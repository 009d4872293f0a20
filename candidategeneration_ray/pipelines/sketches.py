"""Mergeable-summary (sketch) aggregates over the documents table.

The reference has no sketches or approximate aggregates (SURVEY §2,
"sampled selection threshold" O3 is its only sampling); these are the
bounded-memory summaries a 100 TB training-data pipeline runs where an
exact groupby over the full key space is unnecessary or impossible.
Every operator follows the same shape: a vectorized per-batch PARTIAL
summary emitted as a few rows, one tiny ``groupby`` merge (the summary
is orders of magnitude smaller than the data), and a driver-side
finalize over the merged summary only — the data itself is never
materialized and the shuffle moves summaries, not rows.

Three of the four are EXACT (and SQL-verified by the driver):
histogram/quantiles because fixed-width binning is deterministic, and
heavy hitters because the Misra-Gries pass only bounds the CANDIDATE
set — a second exact counting pass restricted to candidates makes the
output exact (the classic 2-pass frequent-items scheme, Misra & Gries
1982).  HyperLogLog is genuinely approximate (Flajolet et al. 2007)
and is error-bound tested against the exact distinct count instead.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ray.data.aggregate import Max, Sum

from candidategeneration_ray.functions import hashing as H
from candidategeneration_ray.functions.groups import group_sum, run_starts
from candidategeneration_ray.functions.tableutil import sized_read, table_buckets
from candidategeneration_ray.functions.tokenize import tokenize_many

# ---------------------------------------------------------------- histogram

HIST_BIN_WIDTH = 64          # n_chars per bin — fixed so the oracle agrees
QUANTILE_PCTS = (50, 90, 99)


def _doclen_partials(batch: pa.Table) -> pa.Table:
    bins = batch.column("n_chars").to_numpy() // HIST_BIN_WIDTH
    idx, cnt = np.unique(bins, return_counts=True)
    return pa.table({
        "bin": pa.array(idx.astype(np.int64), pa.int64()),
        "n_docs": pa.array(cnt.astype(np.int64), pa.int64()),
    })


def _texts_ds(sf_dir: str) -> ray.data.Dataset:
    return sized_read(sf_dir, "documents", ["text"])


def _doclen_hist_ds(sf_dir: str) -> ray.data.Dataset:
    ds = sized_read(sf_dir, "documents", ["n_chars"])
    return (
        ds.map_batches(_doclen_partials, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


def q_doclen_histogram(sf_dir: str) -> ray.data.Dataset:
    """Fixed-width histogram of document lengths (n_chars, bin width
    64): one row per non-empty bin with its inclusive char range.
    Shuffle: per-batch bincount partials -> groupby(bin).sum — the
    merged summary is O(max_len / width) rows regardless of corpus
    size."""

    def _edges(batch: pa.Table) -> pa.Table:
        b = batch.column("bin").to_numpy()
        return batch.append_column(
            "lo_chars", pa.array(b * HIST_BIN_WIDTH, pa.int64()))

    return _doclen_hist_ds(sf_dir).map_batches(_edges, batch_format="pyarrow")


def q_doclen_quantiles(sf_dir: str) -> pa.Table:
    """Histogram-sketch quantiles of document length: for each pct the
    smallest bin whose cumulative count reaches ceil(pct/100 * N), with
    its exclusive upper char bound.  Deterministic (fixed bins + fixed
    rank rule), so exactly reproducible in SQL.  The finalize runs on
    the driver over the merged histogram only (a few hundred rows)."""
    hist = _doclen_hist_ds(sf_dir).sort("bin").take_all()
    bins = np.array([r["bin"] for r in hist], dtype=np.int64)
    counts = np.array([r["n_docs"] for r in hist], dtype=np.int64)
    cum = np.cumsum(counts)
    total = int(cum[-1]) if cum.size else 0
    out_pct, out_bin = [], []
    for pct in QUANTILE_PCTS:
        target = -(-pct * total // 100)  # ceil without floats
        i = int(np.searchsorted(cum, target))
        out_pct.append(pct)
        out_bin.append(int(bins[min(i, bins.size - 1)]) if bins.size else 0)
    b = np.array(out_bin, dtype=np.int64)
    return pa.table({
        "pct": pa.array(out_pct, pa.int64()),
        "bin": pa.array(b, pa.int64()),
        "ub_chars": pa.array((b + 1) * HIST_BIN_WIDTH, pa.int64()),
    })


# ------------------------------------------------------------ heavy hitters

FREQ_PHI_PCT = 0.5       # report terms with >= 0.5% of all kept tokens
MG_CAPACITY = 512        # per-batch Misra-Gries capacity k (>= 2/phi)
_TOTAL_KEY = ""          # never a kept token (tokenizer drops len<=1)


def _mg_partial(batch: pa.Table) -> pa.Table:
    """Per-batch Misra-Gries summary over kept tokens: at most k
    (term, cnt) rows where cnt is a LOWER bound with error <= B/(k+1)
    for a batch of B tokens, plus one reserved ''-keyed row carrying
    the exact batch token count (so the merge also yields exact N)."""
    token_lists = tokenize_many(batch.column("text").to_pylist())
    flat = np.asarray(
        [t for toks in token_lists for t in toks], dtype=object)
    terms, counts = (np.unique(flat, return_counts=True)
                     if flat.size else (np.empty(0, object), np.empty(0, np.int64)))
    if terms.size > MG_CAPACITY:
        # decrement trick on exact batch counts: subtract the (k+1)-th
        # largest count; <= k terms stay positive and each kept count
        # is the standard MG lower bound
        d = np.partition(counts, -(MG_CAPACITY + 1))[-(MG_CAPACITY + 1)]
        keep = counts > d
        terms, counts = terms[keep], counts[keep] - d
    return pa.table({
        "term": pa.array(
            np.concatenate(([_TOTAL_KEY], terms)).tolist(), pa.string()),
        "cnt": pa.array(
            np.concatenate(([flat.size], counts)).astype(np.int64), pa.int64()),
    })


def q_frequent_terms(sf_dir: str, phi_pct: float = FREQ_PHI_PCT) -> pa.Table:
    """EXACT heavy hitters: every kept token whose total occurrence
    count is >= ceil(phi * total_tokens), with its exact count
    (2-pass Misra-Gries).

    Pass 1: per-batch MG summaries -> groupby(term).sum.  A term absent
    from every batch summary has total count <= sum_i B_i/(k+1) =
    N/(k+1) < phi*N (k >= 2/phi), so the merged candidate set has no
    false negatives; candidates whose merged lower bound plus the
    global error N/(k+1) misses the threshold are pruned before the
    broadcast.  Pass 2: broadcast the sorted candidate array (the
    filter-set semi-join pattern, stages/postings.py M4) and count
    exactly -> groupby(term).sum -> threshold filter.  Only summaries
    and candidate-restricted counts are ever shuffled; the candidate
    set is <= 1/phi true hitters plus prunable noise."""
    # soundness precondition (same hazard as the windowed twin,
    # events.q_windowed_heavy_hitters): the MG error N/(k+1) must stay
    # BELOW the threshold phi*N or true hitters can be decremented out
    # of every batch summary — fail fast instead of silently missing
    if (MG_CAPACITY + 1) * int(phi_pct * 100) <= 10000:
        raise ValueError(
            f"phi_pct={phi_pct} needs MG capacity > {10000 // int(phi_pct * 100)}"
            f" (have {MG_CAPACITY}); raise MG_CAPACITY or phi_pct")
    # materialize the merged summary in the OBJECT STORE (it can be up
    # to k x n_batches rows at scale — never take_all it raw); the
    # driver pulls one total row, then only the candidates that survive
    # the distributed error-bound prune (<= ~1/phi true hitters +
    # borderline noise)
    merged = (
        _texts_ds(sf_dir)
        .map_batches(_mg_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .materialize()
    )

    import pyarrow.compute as pc

    def _total_row(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("term"), _TOTAL_KEY))

    total = merged.map_batches(
        _total_row, batch_format="pyarrow").take_all()[0]["cnt"]
    threshold = -(-int(phi_pct * 100) * total // 10000)  # ceil(phi*N), exact ints
    err = total // (MG_CAPACITY + 1)

    def _prune(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        terms = batch.column("term")
        cnt = batch.column("cnt").to_numpy()
        keep = (cnt + err >= threshold) & pc.not_equal(
            terms, _TOTAL_KEY).to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(keep))

    cand = np.array(sorted(
        r["term"] for r in
        merged.map_batches(_prune, batch_format="pyarrow").take_all()
    ), dtype=object)
    cand_ref = ray.put(cand)

    def _exact_partial(batch: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        token_lists = tokenize_many(batch.column("text").to_pylist())
        flat = np.asarray(
            [t for toks in token_lists for t in toks], dtype=object)
        if flat.size == 0 or cands.size == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        flat = flat[np.isin(flat, cands)]
        terms, counts = np.unique(flat, return_counts=True)
        return pa.table({"term": pa.array(terms.tolist(), pa.string()),
                         "cnt": pa.array(counts.astype(np.int64), pa.int64())})

    exact = (
        _texts_ds(sf_dir)
        .map_batches(_exact_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )
    rows = sorted(((r["term"], r["cnt"]) for r in exact
                   if r["cnt"] >= threshold), key=lambda x: (-x[1], x[0]))
    return pa.table({
        "term": pa.array([t for t, _ in rows], pa.string()),
        "cnt": pa.array([c for _, c in rows], pa.int64()),
    })


# -------------------------------------------------------------- HyperLogLog

HLL_P = 12                       # 2^12 = 4096 registers, ~1.6% std error
HLL_M = 1 << HLL_P


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized int.bit_length for uint64 (6 shift/compare passes)."""
    bl = np.zeros(x.shape, dtype=np.int64)
    v = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(s))
        bl[m] += s
        v[m] >>= np.uint64(s)
    bl[v > 0] += 1
    return bl


def _hll_partial(batch: pa.Table) -> pa.Table:
    """Per-batch HLL register maxima over the batch's DISTINCT kept
    tokens: (register, rho) rows, at most m per batch."""
    token_lists = tokenize_many(batch.column("text").to_pylist())
    toks = sorted({t for ts in token_lists for t in ts})
    if not toks:
        return pa.table({"register": pa.array([], pa.int64()),
                         "rho": pa.array([], pa.int64())})
    h = H.h64_many(toks)
    reg = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = (h << np.uint64(HLL_P)) >> np.uint64(HLL_P)  # low 64-p bits
    rho = (64 - HLL_P) - _bit_length_u64(rest) + 1      # leading zeros + 1
    order = np.lexsort((-rho, reg))
    reg, rho = reg[order], rho[order]
    first = np.concatenate(([True], reg[1:] != reg[:-1]))
    return pa.table({
        "register": pa.array(reg[first], pa.int64()),
        "rho": pa.array(rho[first], pa.int64()),
    })


def _hll_merged(sf_dir: str) -> list[dict]:
    """Merged HLL registers: per-batch partials over batch-distinct
    tokens -> groupby(register).max.  Duplicate tokens across batches
    hash identically, so the merged registers equal the single-pass
    registers over the GLOBAL distinct token set — which is what the
    SQL oracle computes (q_hll_registers is value-verified on exactly
    this state)."""
    return (
        _texts_ds(sf_dir)
        .map_batches(_hll_partial, batch_format="pyarrow")
        .groupby("register")
        .aggregate(Max("rho", alias_name="rho"))
        .take_all()
    )


def q_hll_registers(sf_dir: str) -> pa.Table:
    """The HLL sketch STATE (register, max rho) — deterministic
    integers, so the driver hash-verifies the entire distributed
    sketch construction; only the float estimator on top of it
    (q_hll_distinct_terms) remains approximate."""
    merged = sorted(_hll_merged(sf_dir), key=lambda r: r["register"])
    return pa.table({
        "register": pa.array([r["register"] for r in merged], pa.int64()),
        "rho": pa.array([r["rho"] for r in merged], pa.int64()),
    })


# Flajolet et al. 2007 bias constant, fixed to parts-per-billion so the
# estimator below is pure integer arithmetic (the SQL oracle inlines the
# SAME constant — no float crosses an engine boundary).
HLL_ALPHA_PPB = int(round(0.7213 / (1 + 1.079 / HLL_M) * 1e9))
HLL_RHO_MAX = 64 - HLL_P + 1     # rho range is 1..53; 0 = empty register
_PPB = 10 ** 9


def hll_ln_lut() -> list[int]:
    """ln(m / V) in parts-per-billion for V = 1..m — the linear-counting
    correction as a FIXED integer lookup shared verbatim by the engine
    and the SQL oracle (which inlines these values), so the corrected
    estimate is deterministic integer arithmetic end to end."""
    v = np.arange(1, HLL_M + 1, dtype=np.float64)
    return [int(x) for x in np.round(np.log(HLL_M / v) * 1e9)]


def q_hll_distinct_terms(sf_dir: str) -> pa.Table:
    """Approximate number of distinct kept tokens via HyperLogLog
    (p=12).  Per-batch register partials -> groupby(register).max ->
    driver estimate over <= 4096 rows.  Register max is commutative,
    so the estimate is independent of partitioning/parallelism (tested)
    and the merge is a fixed-size shuffle however large the corpus.

    The estimator is integer-exact: with S = Σ_j 2^(RHO_MAX - rho_j)
    (big-int; empty registers contribute 2^RHO_MAX), the raw estimate
    is (alpha_ppb * m^2 * 2^RHO_MAX) // (S * 1e9) and the small-range
    linear-counting correction m*ln(m/zeros) comes from the shared
    hll_ln_lut() table — so even this 'approximate' sketch entry
    hash-verifies against its DuckDB oracle (the approximation is vs
    the true distinct count, pytest-asserted <5%, not vs the oracle)."""
    merged = _hll_merged(sf_dir)
    regs = np.zeros(HLL_M, dtype=np.int64)
    for r in merged:
        regs[r["register"]] = r["rho"]
    return _hll_estimate_table(regs)


def _hll_estimate_table(regs: np.ndarray) -> pa.Table:
    """The shared integer HLL finalizer over a dense register array
    (used by the global sketch and the keyed-sketch UNION)."""
    s_sum = int(np.sum(1 << (HLL_RHO_MAX - regs.astype(object))))
    est = (HLL_ALPHA_PPB * HLL_M * HLL_M
           << HLL_RHO_MAX) // (s_sum * _PPB)
    zeros = int(np.count_nonzero(regs == 0))
    if 2 * est <= 5 * HLL_M and zeros > 0:    # small-range correction
        est = (HLL_M * hll_ln_lut()[zeros - 1]) // _PPB
    return pa.table({
        "n_distinct_est": pa.array([int(est)], pa.int64()),
        "n_registers": pa.array([HLL_M], pa.int64()),
    })


def q_hll_union_distinct(sf_dir: str) -> pa.Table:
    """Sketch MERGEABILITY as a verified entry: union the per-source
    HLL register states (q_hll_registers_by_source — register-wise max,
    the HLL merge operator) and run the shared integer finalizer. The
    driver checks it against the GLOBAL sketch's oracle, so the
    algebraic claim 'union of keyed sketches == sketch of the union'
    is hash-verified — the property that lets 10^12-doc sketches build
    per-partition and merge in O(sources x m)."""
    from ray.data.aggregate import Max

    merged = (q_hll_registers_by_source(sf_dir)
              .groupby("register")
              .aggregate(Max("rho", alias_name="rho"))
              .take_all())
    regs = np.zeros(HLL_M, dtype=np.int64)
    for r in merged:
        regs[r["register"]] = r["rho"]
    return _hll_estimate_table(regs)


# ----------------------------------- per-source dynamic quantile filter

def q_source_quantile_filter(sf_dir: str, pct: int = 25) -> ray.data.Dataset:
    """Dynamic per-source length filter: drop each source's shortest
    ~pct% of docs, where the threshold is derived from the SOURCE's own
    length distribution (the data-driven analog of quality_filter's
    fixed bounds — sources with different length profiles get different
    cutoffs). The threshold is the histogram-sketch quantile bin (same
    fixed 64-char bins and ceil-rank rule as q_doclen_quantiles), so
    the rule is integer-deterministic and exactly SQL-reproducible.

    Shape: per-batch (source, bin) count partials -> one
    groupby(source, bin).sum whose merged summary is
    O(sources * bins) rows; thresholds broadcast once; the filter pass
    is a pure streaming map. Nothing driver-side scales with the
    corpus.

    Returns (source, doc_id, n_chars, thr_bin) for KEPT docs
    (n_chars // 64 >= thr_bin)."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist(), dtype=object)
        bins = batch.column("n_chars").to_numpy().astype(np.int64) \
            // HIST_BIN_WIDTH
        su, sinv = np.unique(src, return_inverse=True)
        key = sinv.astype(np.int64) * (int(bins.max()) + 1 if bins.size else 1) \
            + bins
        kg, cnt = np.unique(key, return_counts=True)
        width = int(bins.max()) + 1 if bins.size else 1
        return pa.table({
            "source": pa.array(su[kg // width].tolist(), pa.string()),
            "bin": pa.array(kg % width, pa.int64()),
            "n_docs": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    ds = sized_read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    hist = (ds.map_batches(_partial, batch_format="pyarrow")
            .groupby(["source", "bin"])
            .aggregate(Sum("n_docs", alias_name="n_docs"))
            .sort(["source", "bin"])
            .take_all())  # merged summary only: O(sources * bins) rows
    thr: dict[str, int] = {}
    i = 0
    while i < len(hist):
        s = hist[i]["source"]
        j = i
        cum = 0
        rows = []
        while j < len(hist) and hist[j]["source"] == s:
            rows.append((hist[j]["bin"], hist[j]["n_docs"]))
            cum += hist[j]["n_docs"]
            j += 1
        target = -(-pct * cum // 100)  # ceil without floats
        c = 0
        for b, nd in rows:
            c += nd
            if c >= target:
                thr[s] = int(b)
                break
        i = j
    thr_ref = ray.put(thr)

    def _filter(batch: pa.Table) -> pa.Table:
        t = ray.get(thr_ref)
        src = np.asarray(batch.column("source").to_pylist(), dtype=object)
        nch = batch.column("n_chars").to_numpy().astype(np.int64)
        tb = np.fromiter((t[s] for s in src), np.int64, src.size)
        keep = (nch // HIST_BIN_WIDTH) >= tb
        return pa.table({
            "source": batch.column("source").filter(pa.array(keep)),
            "doc_id": batch.column("doc_id").cast(pa.int64()).filter(pa.array(keep)),
            "n_chars": pa.array(nch[keep], pa.int64()),
            "thr_bin": pa.array(tb[keep], pa.int64()),
        })

    return ds.map_batches(_filter, batch_format="pyarrow")


# ------------------------------------------------------------ Bloom filter

BLOOM_M = 8192               # bits
BLOOM_K = 3                  # salted hash functions
BLOOM_PROBES = ["query", "join", "vector", "batch",
                "zzqq", "absentwordx", "qq"]


def _bloom_bits_of(tokens: np.ndarray) -> np.ndarray:
    """Distinct bloom bit indices of a distinct-token array: k salted
    md5-h64 hashes mod m (the engine-wide hash, so the oracle can
    recompute bit-for-bit)."""
    if tokens.size == 0:
        return np.empty(0, np.int64)
    bits = [
        (H.h64_many([f"b{i}:{t}" for t in tokens])
         % np.uint64(BLOOM_M)).astype(np.int64)  # mod in uint64 — an
        # int64 wrap first would change the residue
        for i in range(BLOOM_K)
    ]
    return np.unique(np.concatenate(bits))


def _bloom_merged(sf_dir: str) -> np.ndarray:
    """Distributed bloom construction: per-batch distinct tokens ->
    bit-index partials -> groupby(bit) dedup. The merge shuffles at
    most m rows regardless of corpus size (OR of bitsets == distinct
    union of set bits)."""
    def _partial(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        toks = np.unique(np.asarray(
            [t for ts in token_lists for t in ts], dtype=object))
        bits = _bloom_bits_of(toks)
        return pa.table({
            "bit": pa.array(bits, pa.int64()),
            "one": pa.array(np.ones(bits.size, np.int64), pa.int64()),
        })

    rows = (
        _texts_ds(sf_dir)
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("bit")
        .aggregate(Max("one", alias_name="one"))
        .take_all()
    )
    return np.sort(np.array([r["bit"] for r in rows], dtype=np.int64))


def q_bloom_bits(sf_dir: str) -> pa.Table:
    """The Bloom-filter STATE: every set bit index over the corpus's
    distinct kept tokens (m=8192, k=3 salted h64 hashes) — exact
    deterministic integers, so the driver value-verifies the whole
    distributed sketch construction."""
    bits = _bloom_merged(sf_dir)
    return pa.table({"bit": pa.array(bits, pa.int64())})


def q_bloom_membership(sf_dir: str) -> pa.Table:
    """Membership probes through the merged filter: in_filter = all k
    salted bits set. False positives are a deterministic function of
    the corpus + hash, so the SQL oracle reproduces them exactly
    (the probe list mixes present and absent terms)."""
    bits = _bloom_merged(sf_dir)
    out = []
    for term in BLOOM_PROBES:
        b = _bloom_bits_of(np.array([term], dtype=object))
        pos = np.minimum(np.searchsorted(bits, b), max(bits.size - 1, 0))
        ok = bool(bits.size) and bool((bits[pos] == b).all())
        out.append((term, int(ok)))
    return pa.table({
        "term": pa.array([t for t, _ in out], pa.string()),
        "in_filter": pa.array([f for _, f in out], pa.int64()),
    })


# -------------------------------------------- per-source percentile rank

def q_source_pct_rank(sf_dir: str) -> ray.data.Dataset:
    """Within-group feature normalization: each doc's length percentile
    rank inside its OWN source, in millionths — rank = number of
    strictly shorter docs in the source (ties share the minimum, SQL
    rank() semantics), pct = rank * 1e6 // n_source.

    Two passes: (1) per-batch (source, n_chars) count partials -> one
    bounded groupby (groups = sources x distinct lengths; for
    real-valued features you'd bin first — q_doclen_histogram is that
    path), (2) the merged distribution broadcasts once and the rank
    map is a streaming searchsorted per batch — no second shuffle."""
    def _counts(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist(), dtype=object)
        n = batch.column("n_chars").to_numpy().astype(np.int64)
        key = np.asarray([f"{s}\x00{v}" for s, v in zip(src, n)], object)
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "source": pa.array([k.split("\x00")[0] for k in u], pa.string()),
            "n_chars": pa.array([int(k.split("\x00")[1]) for k in u],
                                pa.int64()),
            "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    merged = (
        sized_read(sf_dir, "documents", ["source", "n_chars"])
        .map_batches(_counts, batch_format="pyarrow")
        .groupby(["source", "n_chars"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )
    dist: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
    by_src: dict[str, list[tuple[int, int]]] = {}
    for r in merged:
        by_src.setdefault(r["source"], []).append(
            (int(r["n_chars"]), int(r["cnt"])))
    for s, rows in by_src.items():
        rows.sort()
        vals = np.array([v for v, _ in rows], dtype=np.int64)
        cum = np.concatenate(([0], np.cumsum([c for _, c in rows])))
        dist[s] = (vals, cum[:-1], int(cum[-1]))  # cum[i] = # strictly <
    dist_ref = ray.put(dist)

    def _rank(batch: pa.Table) -> pa.Table:
        d = ray.get(dist_ref)
        src = np.asarray(batch.column("source").to_pylist(), dtype=object)
        n = batch.column("n_chars").to_numpy().astype(np.int64)
        pct = np.empty(n.size, np.int64)
        for s in np.unique(src):
            vals, below, total = d[s]
            m = src == s
            pos = np.searchsorted(vals, n[m])  # exact match guaranteed
            pct[m] = below[pos] * 1_000_000 // total
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "source": batch.column("source"),
            "n_chars": pa.array(n, pa.int64()),
            "pct_millionths": pa.array(pct, pa.int64()),
        })

    return sized_read(sf_dir, "documents", ["doc_id", "source", "n_chars"]).map_batches(_rank, batch_format="pyarrow")


NTILE_K = 4


def q_source_ntile(sf_dir: str, k: int = NTILE_K) -> ray.data.Dataset:
    """NTILE(k) within each source ordered by (n_chars, doc_id) — the
    equi-count bucketing window (quartile feature). Exact DuckDB ntile
    semantics: the first n%k tiles hold ceil(n/k) rows.

    The global per-source rank is built WITHOUT co-locating a source:
    (1) the bounded (source, n_chars) distribution merges once and
    broadcasts (strict-less cumulative counts + per-source totals,
    exactly q_source_pct_rank's first pass); (2) ties are ranked by
    doc_id inside their (source, n_chars) class via one hash-bucketed
    groupby whose tasks do a lexsort + segmented arange — tie classes
    are distribution rows, never a whole source. rank = strict_less +
    tie_rank; the tile is a closed-form function of (rank, n)."""
    def _counts(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist(), dtype=object)
        n = batch.column("n_chars").to_numpy().astype(np.int64)
        key = np.asarray([f"{s}\x00{v}" for s, v in zip(src, n)], object)
        u, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "source": pa.array([x.split("\x00")[0] for x in u], pa.string()),
            "n_chars": pa.array([int(x.split("\x00")[1]) for x in u],
                                pa.int64()),
            "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    merged = (
        sized_read(sf_dir, "documents", ["source", "n_chars"])
        .map_batches(_counts, batch_format="pyarrow")
        .groupby(["source", "n_chars"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )
    by_src: dict[str, list[tuple[int, int]]] = {}
    for r in merged:
        by_src.setdefault(r["source"], []).append(
            (int(r["n_chars"]), int(r["cnt"])))
    dist: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
    for s, rows in by_src.items():
        rows.sort()
        vals = np.array([v for v, _ in rows], dtype=np.int64)
        cum = np.concatenate(([0], np.cumsum([c for _, c in rows])))
        dist[s] = (vals, cum[:-1], int(cum[-1]))
    dist_ref = ray.put(dist)
    nb = table_buckets(sf_dir, "documents")

    def _bucket(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist(), dtype=object)
        n = batch.column("n_chars").to_numpy().astype(np.int64)
        h = H.h64_many([f"{s}\x00{v}" for s, v in zip(src, n)])
        return batch.append_column(
            "tbucket",
            pa.array((h % np.uint64(nb)).astype(np.int64), pa.int64()))

    def _tiles(group: pa.Table) -> pa.Table:
        d = ray.get(dist_ref)
        src = np.asarray(group.column("source").to_pylist(), dtype=object)
        n = group.column("n_chars").to_numpy().astype(np.int64)
        doc = group.column("doc_id").to_numpy().astype(np.int64)
        # NB: np.unique, not pd.factorize — pandas hashes object strings
        # as C strings and truncates at the embedded NUL separator
        _, codes = np.unique(
            np.asarray([f"{s}\x00{v}" for s, v in zip(src, n)], object),
            return_inverse=True)
        order = np.lexsort((doc, codes))
        sc = codes[order]
        starts = run_starts(sc)
        tie = np.arange(sc.size, dtype=np.int64) - np.repeat(
            starts, np.diff(np.concatenate((starts, [sc.size]))))
        rank = np.empty(sc.size, np.int64)
        nsrc = np.empty(sc.size, np.int64)
        osrc, on = src[order], n[order]
        for s in np.unique(osrc):
            vals, below, total = d[s]
            m = osrc == s
            rank[m] = below[np.searchsorted(vals, on[m])]
            nsrc[m] = total
        rank = rank + tie
        q, rem = nsrc // k, nsrc % k
        cut = rem * (q + 1)
        tile = np.where(rank < cut, rank // np.maximum(q + 1, 1),
                        rem + (rank - cut) // np.maximum(q, 1)) + 1
        return pa.table({
            "doc_id": pa.array(doc[order], pa.int64()),
            "source": pa.array(osrc.tolist(), pa.string()),
            "tile": pa.array(tile.astype(np.int64), pa.int64()),
        })

    return (
        sized_read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
        .map_batches(_bucket, batch_format="pyarrow")
        .groupby("tbucket").map_groups(_tiles, batch_format="pyarrow")
    )


def q_hll_registers_by_source(sf_dir: str) -> ray.data.Dataset:
    """KEYED sketch: per-source HLL register state (source, register,
    max rho) over each source's distinct kept tokens — the grouped
    generalization of q_hll_registers; the merge is one groupby over
    at most sources x m rows regardless of corpus size. Exact
    deterministic integers, so the whole keyed-sketch construction is
    value-verified."""
    def _partial(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist(), dtype=object)
        token_lists = tokenize_many(batch.column("text").to_pylist())
        pairs = sorted({(s, t) for s, ts in zip(src, token_lists)
                        for t in ts})
        if not pairs:
            return pa.table({"source": pa.array([], pa.string()),
                             "register": pa.array([], pa.int64()),
                             "rho": pa.array([], pa.int64())})
        ps = np.asarray([p[0] for p in pairs], dtype=object)
        h = H.h64_many([p[1] for p in pairs])
        reg = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
        rest = (h << np.uint64(HLL_P)) >> np.uint64(HLL_P)
        rho = (64 - HLL_P) - _bit_length_u64(rest) + 1
        # per (source, register) max via one packed sort
        key = np.asarray([f"{s}\x00{r}" for s, r in zip(ps, reg)], object)
        order = np.lexsort((-rho, key))
        k, rh = key[order], rho[order]
        first = np.concatenate(([True], k[1:] != k[:-1]))
        ks = k[first]
        return pa.table({
            "source": pa.array([x.split("\x00")[0] for x in ks], pa.string()),
            "register": pa.array([int(x.split("\x00")[1]) for x in ks],
                                 pa.int64()),
            "rho": pa.array(rh[first], pa.int64()),
        })

    return (
        sized_read(sf_dir, "documents", ["source", "text"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["source", "register"])
        .aggregate(Max("rho", alias_name="rho"))
    )


# ---------------------------------------------------------- Count-Min

CM_WIDTH = 2048
CM_DEPTH = 3
CM_PROBES = ["query", "join", "vector", "batch", "zzqq", "absentwordx"]


def _cm_rows(terms: np.ndarray, counts: np.ndarray) -> pa.Table:
    """(depth, cell, partial count) rows for a batch's term counts —
    at most depth x width rows after the in-batch combine."""
    ds, ws, cs = [], [], []
    for d in range(CM_DEPTH):
        w = (H.h64_many([f"c{d}:{t}" for t in terms])
             % np.uint64(CM_WIDTH)).astype(np.int64)
        u, s = group_sum(w, counts)
        ds.append(np.full(u.size, d, np.int64))
        ws.append(u)
        cs.append(s)
    return pa.table({
        "depth": pa.array(np.concatenate(ds), pa.int64()),
        "cell": pa.array(np.concatenate(ws), pa.int64()),
        "cnt": pa.array(np.concatenate(cs), pa.int64()),
    })


def _cm_merged(sf_dir: str) -> ray.data.Dataset:
    def _partial(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        flat = np.asarray([t for ts in token_lists for t in ts], dtype=object)
        if flat.size == 0:
            return pa.table({"depth": pa.array([], pa.int64()),
                             "cell": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        terms, counts = np.unique(flat, return_counts=True)
        return _cm_rows(terms, counts.astype(np.int64))

    return (
        _texts_ds(sf_dir)
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["depth", "cell"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )


def q_cmsketch_counters(sf_dir: str) -> ray.data.Dataset:
    """Count-Min sketch STATE over kept-token occurrences: counter
    (depth, cell) = Σ counts of tokens hashing there (width=2048,
    depth=3, salted md5-h64). Counter addition is commutative, so the
    merge is one groupby over at most depth x width rows — exact
    deterministic integers, value-verified like the HLL/Bloom states."""
    return _cm_merged(sf_dir)


def _probe_true_counts(sf_dir: str, probes) -> dict[str, int]:
    """Exact kept-token occurrence counts for a fixed probe list —
    the shared truth side of the CM / Count-Sketch estimate entries
    (probe-filtered per-batch partials, one tiny groupby)."""
    probe_arr = np.asarray(list(probes), dtype=object)

    def _exact(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        flat = np.asarray([t for ts in token_lists for t in ts], dtype=object)
        if flat.size:
            flat = flat[np.isin(flat, probe_arr)]
        terms, counts = np.unique(flat, return_counts=True)
        return pa.table({
            "term": pa.array(terms.tolist(), pa.string()),
            "cnt": pa.array(counts.astype(np.int64), pa.int64()),
        })

    return {
        r["term"]: int(r["cnt"])
        for r in _texts_ds(sf_dir)
        .map_batches(_exact, batch_format="pyarrow")
        .groupby("term").aggregate(Sum("cnt", alias_name="cnt")).take_all()
    }


def q_cmsketch_estimates(sf_dir: str) -> pa.Table:
    """Point queries through the merged sketch: est = min over rows of
    the probed counters (the CM upper bound; >= true count, equality
    unless collisions) next to the EXACT count — both deterministic,
    so overestimates are reproduced bit-for-bit by the oracle."""
    merged = {}
    for r in _cm_merged(sf_dir).take_all():
        merged[(int(r["depth"]), int(r["cell"]))] = int(r["cnt"])

    exact = _probe_true_counts(sf_dir, CM_PROBES)
    ests, trues = [], []
    for t in CM_PROBES:
        cells = (H.h64_many([f"c{d}:{t}" for d in range(CM_DEPTH)])
                 % np.uint64(CM_WIDTH)).astype(np.int64)
        ests.append(min(merged.get((d, int(c)), 0)
                        for d, c in enumerate(cells)))
        trues.append(exact.get(t, 0))
    return pa.table({
        "term": pa.array(CM_PROBES, pa.string()),
        "cm_estimate": pa.array(ests, pa.int64()),
        "true_count": pa.array(trues, pa.int64()),
    })


# --------------------------------------------------- KMV (bottom-k) sketch

KMV_K = 64


def _kmv_bottom(h: np.ndarray) -> np.ndarray:
    """Bottom-KMV_K distinct uint64 hashes, sorted ascending."""
    return np.unique(h)[:KMV_K]


def _kmv_source_sketches(sf_dir: str) -> dict[str, np.ndarray]:
    """Per-source bottom-k distinct-token-hash sketches (Bar-Yossef et
    al. RANDOM'02 / the KMV 'theta sketch' state): per-batch partials
    emit each source's batch-local bottom-k, one tiny groupby merges
    them — bottom-k is a mergeable summary (the bottom-k of a union is
    the bottom-k of the concatenated per-part bottom-k's), so the
    shuffle moves O(sources x k) rows however large the corpus."""

    def _partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        srcs = np.asarray(batch.column("source").to_pylist(), dtype=object)
        token_lists = tokenize_many(texts)
        out_src, out_h = [], []
        su, sinv = np.unique(srcs, return_inverse=True)
        for si, s in enumerate(su):
            toks = set()
            for tl in (token_lists[j] for j in np.flatnonzero(sinv == si)):
                toks.update(tl)
            if not toks:
                continue
            hs = _kmv_bottom(H.h64_many(sorted(toks)))
            out_src.extend([s] * hs.size)
            out_h.extend(hs.tolist())
        return pa.table({
            "source": pa.array(out_src, pa.string()),
            "h": pa.array(np.asarray(out_h, dtype=np.uint64), pa.uint64()),
        })

    def _merge(group: pa.Table) -> pa.Table:
        hs = _kmv_bottom(group.column("h").to_numpy().astype(np.uint64))
        return pa.table({
            "source": pa.array([group.column("source")[0].as_py()] * hs.size,
                               pa.string()),
            "h": pa.array(hs, pa.uint64()),
        })

    rows = (
        sized_read(sf_dir, "documents", ["text", "source"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("source").map_groups(_merge, batch_format="pyarrow")
        .take_all()  # O(sources x k)
    )
    out: dict[str, list[int]] = {}
    for r in rows:
        out.setdefault(r["source"], []).append(int(r["h"]))
    return {s: np.asarray(sorted(v), dtype=np.uint64)
            for s, v in out.items()}


def _signed64(vals) -> list[int]:
    return [int(v) - (1 << 64) if int(v) >= (1 << 63) else int(v)
            for v in vals]


def q_kmv_registers(sf_dir: str) -> pa.Table:
    """The GLOBAL KMV sketch state: the corpus's bottom-KMV_K distinct
    kept-token hashes with their rank — deterministic integers, so the
    driver hash-verifies the whole distributed bottom-k construction
    (the companion intersection-capable sketch to the HLL registers,
    which can only union). The global sketch merges exactly from the
    per-source sketches: any hash among the global k smallest is among
    its own source's k smallest."""
    sks = _kmv_source_sketches(sf_dir)
    glob = _kmv_bottom(np.concatenate(list(sks.values())))
    return pa.table({
        "rank": pa.array(np.arange(1, glob.size + 1, dtype=np.int64),
                         pa.int64()),
        "kmv_hash": pa.array(_signed64(glob), pa.int64()),
    })


def q_kmv_source_overlap(sf_dir: str) -> pa.Table:
    """Pairwise source vocabulary overlap from the KMV sketches — the
    set-INTERSECTION estimate HLL cannot provide (Beyer et al.
    SIGMOD'07): for each source pair the union sketch is the bottom-k
    of the two sketches' union; n_match counts union-sketch hashes
    present in both sides (a k-sample of the union, so n_match/ku
    estimates Jaccard); union_est is the KMV cardinality estimator
    (k-1)*2^64 // h_k (exact count when the union sketch is not full);
    inter_est = n_match * union_est // ku. Every quantity is integer
    arithmetic over the sketch state, so the estimates themselves
    hash-verify. O(sources^2 x k) driver work over the merged
    sketches only."""
    sks = _kmv_source_sketches(sf_dir)
    names = sorted(sks)
    rows = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            A, B = sks[a], sks[b]
            usk = _kmv_bottom(np.concatenate((A, B)))
            ku = int(usk.size)
            match = int(np.count_nonzero(
                np.isin(usk, A) & np.isin(usk, B)))
            if ku < KMV_K:
                union_est = ku
            else:
                union_est = ((KMV_K - 1) << 64) // int(usk[-1])
            rows.append((a, b, match, union_est,
                         match * union_est // ku))
    return pa.table({
        "src_a": pa.array([r[0] for r in rows], pa.string()),
        "src_b": pa.array([r[1] for r in rows], pa.string()),
        "n_match": pa.array([r[2] for r in rows], pa.int64()),
        "union_est": pa.array([r[3] for r in rows], pa.int64()),
        "inter_est": pa.array([r[4] for r in rows], pa.int64()),
    })


# ------------------------------------- distribution distance (source L1)

def q_source_hist_l1(sf_dir: str) -> pa.Table:
    """Pairwise distribution distance between sources — exact L1
    (total variation ×2) between NORMALIZED doc-length histograms,
    kept as the cross-multiplied integer pair

        l1_num = Σ_bins |c_a·n_b − c_b·n_a|,   l1_den = n_a·n_b

    (identical distributions → 0; disjoint → 2·n_a·n_b). The
    distribution-shift metric next to df_drift (vocabulary) and
    kmv_source_overlap (set overlap), over the same fixed 64-char
    bins as the histogram/quantile sketches.

    Shape: per-batch (source, bin) count partials → one tiny groupby
    (O(sources × bins) rows); the pairwise fold is driver math over
    that summary, like the KMV overlap."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist(), object)
        bins = (batch.column("n_chars").to_numpy().astype(np.int64)
                // HIST_BIN_WIDTH)
        su, sinv = np.unique(src, return_inverse=True)
        width = int(bins.max()) + 1 if bins.size else 1
        key = sinv.astype(np.int64) * width + bins
        kg, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "source": pa.array(su[kg // width].tolist(), pa.string()),
            "bin": pa.array(kg % width, pa.int64()),
            "n_docs": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    rows = (sized_read(sf_dir, "documents", ["source", "n_chars"])
            .map_batches(_partial, batch_format="pyarrow")
            .groupby(["source", "bin"])
            .aggregate(Sum("n_docs", alias_name="n_docs"))
            .take_all())  # O(sources x bins)
    hists: dict[str, dict[int, int]] = {}
    for r in rows:
        hists.setdefault(r["source"], {})[int(r["bin"])] = int(r["n_docs"])
    names = sorted(hists)
    totals = {s: sum(h.values()) for s, h in hists.items()}
    out = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            na, nb = totals[a], totals[b]
            all_bins = set(hists[a]) | set(hists[b])
            num = sum(abs(hists[a].get(k, 0) * nb
                          - hists[b].get(k, 0) * na) for k in all_bins)
            out.append((a, b, num, na * nb))
    return pa.table({
        "src_a": pa.array([r[0] for r in out], pa.string()),
        "src_b": pa.array([r[1] for r in out], pa.string()),
        "l1_num": pa.array([r[2] for r in out], pa.int64()),
        "l1_den": pa.array([r[3] for r in out], pa.int64()),
    })


# --------------------------------------------- AMS F2 (frequency moments)

AMS_ROWS = 16


def _ams_signs(terms, row: int) -> np.ndarray:
    """±1 four-universal-style signs from the salted md5-h64 parity —
    the same hash family the CM sketch uses, one salt per sketch row."""
    h = H.h64_many([f"a{row}:{t}" for t in terms])
    return np.where(h % np.uint64(2) == 0, np.int64(1), np.int64(-1))


def _ams_merged(sf_dir: str) -> ray.data.Dataset:
    """The AMS sketch state: per row r, X_r = Σ_t cnt_t · s_r(t) over
    kept-token occurrence counts (Alon, Matias & Szegedy 1996). X is
    linear in the counts, so per-batch partials (AMS_ROWS ints per
    batch) merge with ONE groupby sum — the canonical mergeable-sketch
    shape; nothing scales with the vocabulary or the corpus."""

    def _partial(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        flat = np.asarray([t for ts in token_lists for t in ts], dtype=object)
        if flat.size == 0:
            return pa.table({"row": pa.array([], pa.int64()),
                             "x": pa.array([], pa.int64())})
        terms, counts = np.unique(flat, return_counts=True)
        counts = counts.astype(np.int64)
        xs = [int((counts * _ams_signs(terms, r)).sum())
              for r in range(AMS_ROWS)]
        return pa.table({
            "row": pa.array(np.arange(AMS_ROWS, dtype=np.int64), pa.int64()),
            "x": pa.array(np.asarray(xs, np.int64), pa.int64()),
        })

    return (
        _texts_ds(sf_dir)
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("row")
        .aggregate(Sum("x", alias_name="x"))
    )


def q_ams_f2(sf_dir: str) -> ray.data.Dataset:
    """AMS F2 sketch STATE: one (row, x, x2) per sketch row — x2 = X_r²
    is the row's unbiased F2 estimate. Exact deterministic integers,
    value-verified like the CM/HLL states."""

    def _fin(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy().astype(np.int64)
        return batch.append_column("x2", pa.array(x * x, pa.int64()))

    return _ams_merged(sf_dir).map_batches(_fin, batch_format="pyarrow")


def q_ams_f2_estimate(sf_dir: str) -> pa.Table:
    """The sketch's F2 (second frequency moment, Σ cnt_t²) estimate —
    lower median of the AMS_ROWS squared row sums — next to the TRUE F2
    from the exact per-term counts (vocabulary-bounded groupby), so the
    driver hash-checks both the estimator arithmetic and the ground
    truth it approximates. One row: (rows, f2_est, f2_true)."""
    from ray.data.aggregate import Sum as _Sum

    merged = _ams_merged(sf_dir).to_pandas()
    x = merged.sort_values("row")["x"].to_numpy(np.int64)
    x2 = np.sort(x * x)
    f2_est = int(x2[(AMS_ROWS + 1) // 2 - 1])  # lower median, rn convention

    def _tf(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        flat = np.asarray([t for ts in token_lists for t in ts], dtype=object)
        if flat.size == 0:
            return pa.table({"tok": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        terms, counts = np.unique(flat, return_counts=True)
        return pa.table({"tok": pa.array(terms.tolist(), pa.string()),
                         "cnt": pa.array(counts.astype(np.int64), pa.int64())})

    tf = (_texts_ds(sf_dir)
          .map_batches(_tf, batch_format="pyarrow")
          .groupby("tok").aggregate(_Sum("cnt", alias_name="cnt")))

    def _sq(batch: pa.Table) -> pa.Table:
        c = batch.column("cnt").to_numpy().astype(np.int64)
        return pa.table({"f2": pa.array([int((c * c).sum())], pa.int64())})

    f2_true = sum(r["f2"] for r in
                  tf.map_batches(_sq, batch_format="pyarrow").take_all())
    return pa.table({
        "rows": pa.array([AMS_ROWS], pa.int64()),
        "f2_est": pa.array([f2_est], pa.int64()),
        "f2_true": pa.array([int(f2_true)], pa.int64()),
    })


# ------------------------------------------------------------ Count-Sketch

CS_WIDTH = 2048
CS_DEPTH = 3          # odd, so the median estimator is a single value
CS_PROBES = CM_PROBES


def _cs_rows(terms: np.ndarray, counts: np.ndarray) -> pa.Table:
    """(depth, cell, signed partial) rows — the Count-Sketch twin of
    _cm_rows (Charikar, Chen & Farach-Colton 2002): counters accumulate
    sign_d(t)·cnt_t, so heavy hitters cancel noise instead of
    inflating it and the estimator is unbiased (median, not min)."""
    ds, ws, cs = [], [], []
    for d in range(CS_DEPTH):
        w = (H.h64_many([f"s{d}:{t}" for t in terms])
             % np.uint64(CS_WIDTH)).astype(np.int64)
        g = np.where(H.h64_many([f"g{d}:{t}" for t in terms])
                     % np.uint64(2) == 0, np.int64(1), np.int64(-1))
        signed = counts * g
        u, s = group_sum(w, signed)
        ds.append(np.full(u.size, d, np.int64))
        ws.append(u)
        cs.append(s)
    return pa.table({
        "depth": pa.array(np.concatenate(ds), pa.int64()),
        "cell": pa.array(np.concatenate(ws), pa.int64()),
        "cnt": pa.array(np.concatenate(cs), pa.int64()),
    })


def _cs_merged(sf_dir: str) -> ray.data.Dataset:
    def _partial(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        flat = np.asarray([t for ts in token_lists for t in ts], dtype=object)
        if flat.size == 0:
            return pa.table({"depth": pa.array([], pa.int64()),
                             "cell": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        terms, counts = np.unique(flat, return_counts=True)
        return _cs_rows(terms, counts.astype(np.int64))

    return (
        _texts_ds(sf_dir)
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["depth", "cell"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )


def q_countsketch_counters(sf_dir: str) -> ray.data.Dataset:
    """Count-Sketch STATE over kept-token occurrences: counter
    (depth, cell) = Σ sign_d(t)·cnt_t (width=2048, depth=3, salted
    md5-h64 for both cell and sign). Signed-counter addition is
    commutative, so the merge is one groupby over at most depth × width
    rows — exact deterministic integers."""
    return _cs_merged(sf_dir)


def q_countsketch_estimates(sf_dir: str) -> pa.Table:
    """Point queries through the merged Count-Sketch: est = MEDIAN over
    rows of sign_d(term)·counter[d, cell_d(term)] — unbiased, two-sided
    error (the CM min is a one-sided upper bound), so the absent-word
    probes can come back negative. True counts ride along; CS_DEPTH is
    odd so the median is a single integer and the row hash-verifies."""
    merged = {(int(r["depth"]), int(r["cell"])): int(r["cnt"])
              for r in _cs_merged(sf_dir).take_all()}
    true = _probe_true_counts(sf_dir, CS_PROBES)
    terms_arr = np.asarray(CS_PROBES, dtype=object)
    ests = []
    for t in CS_PROBES:
        vals = []
        for d in range(CS_DEPTH):
            cell = int(H.h64_many([f"s{d}:{t}"])[0] % np.uint64(CS_WIDTH))
            sign = 1 if int(H.h64_many([f"g{d}:{t}"])[0]
                            % np.uint64(2)) == 0 else -1
            vals.append(sign * merged.get((d, cell), 0))
        ests.append(int(np.sort(np.asarray(vals, np.int64))[CS_DEPTH // 2]))
    return pa.table({
        "term": pa.array(terms_arr.tolist(), pa.string()),
        "cs_estimate": pa.array(ests, pa.int64()),
        "true_count": pa.array([true.get(t, 0) for t in CS_PROBES],
                               pa.int64()),
    })


# -------------------------------------- Kolmogorov–Smirnov two-sample

def q_ks_source_test(sf_dir: str) -> pa.Table:
    """Exact two-sample Kolmogorov–Smirnov statistic between every
    source pair's doc-length (n_chars) distributions — the
    distribution-shift test beside the L1 histogram distance
    (q_source_hist_l1): D = sup_v |F_a(v) − F_b(v)| over the union of
    observed values, kept as the exact rational

        d_num = max_v |cle_a(v)·n_b − cle_b(v)·n_a|      d_den = n_a·n_b

    (cle = docs with n_chars ≤ v), so the statistic hash-verifies with
    no float CDF. Shape: ONE (source, n_chars) groupby (value-domain ×
    sources bounded); the driver finalize is a cumsum + merged-support
    walk per pair over that summary only."""
    from ray.data.aggregate import Count

    hist = (sized_read(sf_dir, "documents", ["source", "n_chars"])
            .groupby(["source", "n_chars"])
            .aggregate(Count(alias_name="c"))
            .take_all())
    per: dict[str, dict[int, int]] = {}
    for r in hist:
        per.setdefault(r["source"], {})[int(r["n_chars"])] = int(r["c"])
    names = sorted(per)
    totals = {s: sum(h.values()) for s, h in per.items()}
    out = []
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            va = np.asarray(sorted(per[a]), np.int64)
            vb = np.asarray(sorted(per[b]), np.int64)
            ca = np.cumsum([per[a][int(v)] for v in va]).astype(np.int64)
            cb = np.cumsum([per[b][int(v)] for v in vb]).astype(np.int64)
            support = np.union1d(va, vb)
            # docs with value <= v: cumulative count at the rightmost
            # observed value <= v (0 before the first)
            ia = np.searchsorted(va, support, side="right")
            ib = np.searchsorted(vb, support, side="right")
            cle_a = np.where(ia > 0, ca[np.maximum(ia - 1, 0)], 0)
            cle_b = np.where(ib > 0, cb[np.maximum(ib - 1, 0)], 0)
            d_num = int(np.abs(cle_a * totals[b] - cle_b * totals[a]).max())
            out.append((a, b, totals[a], totals[b], d_num,
                        totals[a] * totals[b]))
    return pa.table({
        "src_a": pa.array([r[0] for r in out], pa.string()),
        "src_b": pa.array([r[1] for r in out], pa.string()),
        "n_a": pa.array([r[2] for r in out], pa.int64()),
        "n_b": pa.array([r[3] for r in out], pa.int64()),
        "d_num": pa.array([r[4] for r in out], pa.int64()),
        "d_den": pa.array([r[5] for r in out], pa.int64()),
    })


# --------------------------------------- V-optimal histogram (exact DP)

VOPT_BIN_WIDTH = 8     # pre-binning width for the frequency series
VOPT_BUCKETS = 6       # histogram buckets the DP may spend


def q_vopt_histogram(sf_dir: str,
                     n_buckets: int = VOPT_BUCKETS) -> pa.Table:
    """V-optimal histogram (Jagadish et al., VLDB'98) — the optimal-
    segmentation / dynamic-programming class: partition the dense
    doc-length frequency series f_0..f_m (s = n_chars // 8, zeros
    filled in) into exactly B contiguous buckets minimizing the total
    integer SSE, where each segment's cost uses the toward-zero
    truncated mean (the same quantized-leaf criterion as q_gbdt_model
    — segment costs are then INTEGERS, so DP sums stay exact and the
    argmin is well-defined with ties broken toward the smaller segment
    start). The SQL oracle unrolls the B DP layers and backtracks the
    cut chain. Output one row per bucket: (bucket, lo_bin, hi_bin,
    n_docs, sse).

    Shape: one groupby(s).sum to the bounded frequency domain (the
    doclen-histogram sufficient statistic); the O(m²·B) DP runs on the
    driver over the ≤~hundred-point series — nothing scales with the
    corpus."""
    from ray.data.aggregate import Sum

    def _part(batch: pa.Table) -> pa.Table:
        s = batch.column("n_chars").to_numpy() // VOPT_BIN_WIDTH
        u, c = np.unique(s, return_counts=True)
        return pa.table({"s": pa.array(u, pa.int64()),
                         "f": pa.array(c.astype(np.int64), pa.int64())})

    rows = (sized_read(sf_dir, "documents", ["n_chars"])
            .map_batches(_part, batch_format="pyarrow")
            .groupby("s")
            .aggregate(Sum("f", alias_name="f"))
            .take_all())
    m = max(int(r["s"]) for r in rows)
    f = [0] * (m + 1)
    for r in rows:
        f[int(r["s"])] = int(r["f"])
    if m + 1 < n_buckets:
        raise ValueError(
            f"{m + 1} series points cannot fill {n_buckets} buckets")
    c1 = [0]
    c2 = [0]
    for v in f:
        c1.append(c1[-1] + v)
        c2.append(c2[-1] + v * v)

    def _cost(i: int, j: int) -> int:      # inclusive bin range
        n = j - i + 1
        s1 = c1[j + 1] - c1[i]
        s2 = c2[j + 1] - c2[i]
        mu = s1 // n                        # s1 >= 0: floor == trunc
        return s2 - 2 * mu * s1 + n * mu * mu

    B = n_buckets
    INF = float("inf")
    dp = [[INF] * (m + 1) for _ in range(B + 1)]
    cut = [[0] * (m + 1) for _ in range(B + 1)]
    for j in range(m + 1):
        dp[1][j] = _cost(0, j)
    for b in range(2, B + 1):
        for j in range(b - 1, m + 1):
            best, bc = INF, 0
            for c in range(b - 1, j + 1):
                v = dp[b - 1][c - 1] + _cost(c, j)
                # ascending c: strict < keeps the smallest-c tie winner
                if v < best:
                    best, bc = v, c
            dp[b][j] = best
            cut[b][j] = bc
    # backtrack the cut chain from (B, m)
    segs = []
    j = m
    for b in range(B, 1, -1):
        c = cut[b][j]
        segs.append((b, c, j))
        j = c - 1
    segs.append((1, 0, j))
    segs.reverse()
    return pa.table({
        "bucket": pa.array([s[0] for s in segs], pa.int64()),
        "lo_bin": pa.array([s[1] for s in segs], pa.int64()),
        "hi_bin": pa.array([s[2] for s in segs], pa.int64()),
        "n_docs": pa.array([c1[s[2] + 1] - c1[s[1]] for s in segs],
                           pa.int64()),
        "sse": pa.array([_cost(s[1], s[2]) for s in segs], pa.int64()),
    })
