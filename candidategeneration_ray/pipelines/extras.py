"""Large-scale training-data operators over the documents/embeddings
tables: deduplication (exact, Jaccard, MinHash-LSH, SimHash), similarity
search, and text analysis. The reference has no near-dedup (SURVEY §2.7)
— these extend the engine for 100 TB pipeline use; each is expressed as
Ray Data transforms with the shuffle pattern noted in its docstring.

All hashing is md5-based (functions/hashing.py) so the DuckDB oracles
compute identical values.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from candidategeneration_ray.functions import hashing as H
from candidategeneration_ray.functions.groups import group_sum, run_starts
from candidategeneration_ray.functions.keys import bucket_of, pack_pair, unpack_pair
from candidategeneration_ray.functions.tableutil import (
    rows_or_empty, sized_read, table_buckets)
from candidategeneration_ray.functions.tokenize import tokenize_many
from candidategeneration_ray.pipelines.docquery import _cache_dir, documents_ds

def _pair_key_bucket(a_col: str, b_col: str, nb: int):
    """map_batches fn attaching a hash bucket over the packed (a, b)
    pair key (keys.pack_pair checks both ids)."""
    def _pb(batch: pa.Table) -> pa.Table:
        pk = pack_pair(batch.column(a_col).to_numpy(),
                       batch.column(b_col).to_numpy())
        return batch.append_column("pfb", pa.array(bucket_of(pk, nb)))
    return _pb


def _distinct_pairs_ds(ds: ray.data.Dataset, a_col: str, b_col: str,
                       nb: int) -> ray.data.Dataset:
    """Distributed DISTINCT over (a, b) pairs — packed-key bucket fold
    (one np.unique per bucket) on the task exchange, replacing the
    two-column sort aggregate whose reduce pays per-GROUP Python
    (measured: 21 s on ~10^5 pair groups once the sized documents
    read left few blocks; ~0.5 s as a fold)."""
    from candidategeneration_ray.functions.exchange import fold_by_bucket

    def _fold(group: pa.Table) -> pa.Table:
        a, b = unpack_pair(np.unique(pack_pair(
            group.column(a_col).to_numpy(), group.column(b_col).to_numpy())))
        return pa.table({a_col: pa.array(a, pa.int64()),
                         b_col: pa.array(b, pa.int64())})

    empty = pa.table({a_col: pa.array([], pa.int64()),
                      b_col: pa.array([], pa.int64())})
    return fold_by_bucket(
        ds.map_batches(_pair_key_bucket(a_col, b_col, nb),
                       batch_format="pyarrow"),
        "pfb", _fold, nb, empty)


def _sized_emb(emb_path: str) -> ray.data.Dataset:
    """Size-aware embeddings read (tableutil.sized_read policy) —
    see clustering._embeddings_ds for the round-5 measurements."""
    return sized_read(os.path.dirname(emb_path), "embeddings",
                      ["vec_id", "embedding"])



# ------------------------------------------------------------- exact dedup

def q_novelty_scores(sf_dir: str) -> ray.data.Dataset:
    """Per-document NOVELTY in corpus order — the positional twin of
    dedup (Lee et al.'s memorization analyses ask exactly this): for
    each doc, how many of its distinct shingles appear in NO earlier
    document (first-occurrence attribution by min doc_id). A doc of
    entirely novel shingles scores n_novel == n_shingles; a late
    near-duplicate scores ~0 — the novelty CURVE over doc order is
    the data-collection diminishing-returns diagnostic.

    Shape: the shared _shingle_rows emission → ONE groupby(shingle)
    min(doc_id) (first occurrences) → per-doc novel counts compressed
    per batch → union with the per-doc size rows → one groupby(doc)
    sum. Nothing driver-side scales with the corpus. Output
    (doc_id, n_shingles, n_novel)."""
    from ray.data.aggregate import Min, Sum

    sh = (documents_ds(sf_dir)
          .map_batches(lambda b: _shingle_rows(b, H.SHINGLE_W),
                       batch_format="pyarrow")
          .materialize())

    def _size_rows(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        n = batch.column("doc_n").to_numpy().astype(np.int64)
        u, idx = np.unique(d, return_index=True)
        return pa.table({
            "doc_id": pa.array(u, pa.int64()),
            "n_shingles": pa.array(n[idx], pa.int64()),
            "n_novel": pa.array(np.zeros(u.size, np.int64), pa.int64()),
        })

    def _novel_rows(batch: pa.Table) -> pa.Table:
        f = batch.column("first_doc").to_numpy().astype(np.int64)
        u, c = np.unique(f, return_counts=True)
        return pa.table({
            "doc_id": pa.array(u, pa.int64()),
            "n_shingles": pa.array(np.zeros(u.size, np.int64), pa.int64()),
            "n_novel": pa.array(c.astype(np.int64), pa.int64()),
        })

    novel = (sh.groupby("shingle_h")
             .aggregate(Min("doc_id", alias_name="first_doc"))
             .map_batches(_novel_rows, batch_format="pyarrow"))
    sizes = sh.map_batches(_size_rows, batch_format="pyarrow")
    return (sizes.union(novel)
            .groupby("doc_id")
            .aggregate(Sum("n_shingles", alias_name="n_shingles"),
                       Sum("n_novel", alias_name="n_novel")))


HEAPS_CHECKPOINTS = 10


def q_heaps_curve(sf_dir: str,
                  checkpoints: int = HEAPS_CHECKPOINTS) -> pa.Table:
    """The vocabulary-growth (Heaps' law) curve — distinct kept terms
    seen after each decile of the corpus in doc_id order: the
    collection-scaling diagnostic behind "how much new vocabulary
    does the next shard buy". Exact: per term ONE first-occurrence
    row (groupby(term) min doc_id), folded into a checkpoint
    histogram (O(vocab) driver work, the df_top50 class). Output
    (checkpoint, n_docs_seen, vocab_size)."""
    from ray.data.aggregate import Min

    import pyarrow.compute as pc

    def _first_rows(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens").combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(col).to_numpy()
        d = batch.column("doc_id").to_numpy().astype(np.int64)[parent]
        if flat.size == 0:
            return pa.table({"term": pa.array([], pa.string()),
                             "doc_id": pa.array([], pa.int64())})
        uniq, inv = np.unique(flat.astype(object), return_inverse=True)
        first = np.full(uniq.size, np.int64(1) << np.int64(60), np.int64)
        np.minimum.at(first, inv, d)
        return pa.table({"term": pa.array(uniq.tolist(), pa.string()),
                         "doc_id": pa.array(first, pa.int64())})

    from candidategeneration_ray.pipelines.docquery import doc_tokens

    firsts = (doc_tokens(sf_dir)
              .map_batches(_first_rows, batch_format="pyarrow")
              .groupby("term")
              .aggregate(Min("doc_id", alias_name="first_doc"))
              .to_pandas())                    # O(vocab)
    n_docs = int(documents_ds(sf_dir).count())
    fd = firsts["first_doc"].to_numpy(np.int64)
    rows = {"checkpoint": [], "n_docs_seen": [], "vocab_size": []}
    for i in range(1, checkpoints + 1):
        thresh = n_docs * i // checkpoints
        rows["checkpoint"].append(i)
        rows["n_docs_seen"].append(thresh)
        rows["vocab_size"].append(int((fd < thresh).sum()))
    return pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})


def q_dedup_exact(sf_dir: str) -> ray.data.Dataset:
    """Exact dedup by content hash: one row per distinct text with its
    group size and representative (min doc_id). Shuffle: groupby(hash)
    over per-batch (hash, doc_id) rows — the standard hash-partitioned
    first-wins dedup."""
    from ray.data.aggregate import Count, Min

    def _hash(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        import hashlib

        return pa.table({
            "text_md5": pa.array([hashlib.md5(t.encode()).hexdigest() for t in texts]),
            "doc_id": batch.column("doc_id").cast(pa.int64()),
        })

    return (
        documents_ds(sf_dir)
        .map_batches(_hash, batch_format="pyarrow")
        .groupby("text_md5")
        .aggregate(Count(alias_name="n_docs"), Min("doc_id", alias_name="keep_doc_id"))
    )


# ------------------------------------------------- shingles / near-dedup

def _doc_shingle_flat(batch: pa.Table, w: int):
    """Batch-global distinct (doc, shingle-hash) emission — the
    emitter's flatten + ONE lexsort + boundary-arithmetic pattern
    (stages/postings.py:36-68): no per-doc numpy calls, Python touches
    each row only to build the md5 input strings (the oracle-identity
    contract). Returns (doc_ids, doc_idx, h, starts, sizes): `doc_idx`
    indexes into `doc_ids` per kept row, `h` is the uint64 hash sorted
    ascending within each doc segment, `starts`/`sizes` delimit the
    per-doc segments (every doc emits >= 1 shingle — empty docs yield
    the empty-string shingle, hashing.word_shingles contract)."""
    token_lists = tokenize_many(batch.column("text").to_pylist())
    doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
    sh_lists = [H.word_shingles(t, w) for t in token_lists]
    counts = np.fromiter((len(s) for s in sh_lists), np.int64,
                         len(sh_lists))
    flat: list[str] = []
    for s in sh_lists:
        flat.extend(s)
    h = H.h64_many(flat)
    di = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    order = np.lexsort((h, di))
    di, h = di[order], h[order]
    keep = np.concatenate(
        ([True], (di[1:] != di[:-1]) | (h[1:] != h[:-1]))) \
        if di.size else np.zeros(0, bool)
    di, h = di[keep], h[keep]
    starts = run_starts(di)
    sizes = np.diff(np.append(starts, di.size))
    return doc_ids, di, h, starts, sizes


def _shingle_rows(batch: pa.Table, w: int) -> pa.Table:
    """(doc_id, shingle_h, doc_n) rows — DISTINCT shingles per doc,
    with the doc's set size carried on every row (docs are batch-local,
    so sizes are exact — no separate sizing aggregation needed)."""
    doc_ids, di, h, starts, sizes = _doc_shingle_flat(batch, w)
    return pa.table({
        "doc_id": pa.array(doc_ids[di], pa.int64()),
        "shingle_h": pa.array(h.astype(np.int64), pa.int64()),
        "doc_n": pa.array(np.repeat(sizes, sizes), pa.int64()),
    })


def _explode_pairs(shingle_h: np.ndarray, doc_ids: np.ndarray,
                   max_df: int | None = None):
    """All within-shingle doc pairs (a<b), vectorized by GROUP-SIZE
    CLASS: every shingle group of the same cardinality is processed as
    one matrix triu — no per-group Python calls. Groups larger than
    `max_df` (stop shingles) are dropped when a cap is set."""
    order = np.lexsort((doc_ids, shingle_h))
    sh, dc = shingle_h[order], doc_ids[order]
    starts = run_starts(sh)
    counts = np.diff(np.concatenate((starts, [sh.size])))
    out_a, out_b = [], []
    for c in np.unique(counts):
        if c < 2 or (max_df is not None and c > max_df):
            continue
        s_c = starts[counts == c]
        mat = dc[s_c[:, None] + np.arange(c)]
        ia, ib = np.triu_indices(int(c), k=1)
        out_a.append(mat[:, ia].ravel())
        out_b.append(mat[:, ib].ravel())
    if not out_a:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_a), np.concatenate(out_b)


DEFAULT_MAX_SHINGLE_DF = 10_000


_JACCARD_EMPTY = pa.table({"doc_a": pa.array([], pa.int64()),
                           "doc_b": pa.array([], pa.int64()),
                           "inter_n": pa.array([], pa.int64()),
                           "union_n": pa.array([], pa.int64())})
_CONTAINMENT_EMPTY = _JACCARD_EMPTY.rename_columns(
    ["doc_a", "doc_b", "inter_n", "small_n"])


def q_jaccard_pairs(sf_dir: str, threshold_pct: int = 20,
                    max_shingle_df: int | None = DEFAULT_MAX_SHINGLE_DF
                    ) -> ray.data.Dataset | pa.Table:
    """n-gram-Jaccard near-dup candidates: doc pairs whose distinct
    3-word-shingle sets overlap with Jaccard >= threshold_pct/100.
    Pattern: shingle rows → groupby(shingle-hash BUCKET, not shingle —
    thousands of tiny groups would drown in per-group overhead) →
    size-class-vectorized pair explosion per bucket → groupby(pair)
    count (intersection) → filter by |A|+|B| (broadcast per-doc set
    sizes). Output (doc_a, doc_b, inter_n, union_n).

    `max_shingle_df`: skew guard — shingle groups larger than this
    (boilerplate "stop shingles") are dropped before the O(m²) pair
    explosion, bounding any group's cost at max_shingle_df²/2. The cap
    is ON by default (safe polarity: a web-scale run that forgets the
    knob cannot blow up on one hot shingle; a shingle shared by >10³
    docs carries no near-dup signal anyway — the MinHash-LSH star-edge
    path is the exact-scale alternative). Pass max_shingle_df=None for
    the exact result — the oracle harness opts in explicitly
    (__ray_entry__), and capped output is always a SUBSET of exact
    (tested with a pathological hot shingle). No passing pair: the
    typed empty table (tableutil.rows_or_empty)."""
    inter = _shingle_pair_overlaps(sf_dir, max_shingle_df)

    def _filter(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy()
        b = batch.column("doc_b").to_numpy()
        inter_n = batch.column("inter_n").to_numpy().astype(np.int64)
        union_n = (batch.column("size_a").to_numpy().astype(np.int64)
                   + batch.column("size_b").to_numpy().astype(np.int64) - inter_n)
        keep = inter_n * 100 >= threshold_pct * union_n
        return pa.table({
            "doc_a": pa.array(a[keep], pa.int64()),
            "doc_b": pa.array(b[keep], pa.int64()),
            "inter_n": pa.array(inter_n[keep], pa.int64()),
            "union_n": pa.array(union_n[keep], pa.int64()),
        })

    return rows_or_empty(inter.map_batches(_filter, batch_format="pyarrow"),
                         _JACCARD_EMPTY)


def q_containment_pairs(sf_dir: str, threshold_pct: int = 80,
                        max_shingle_df: int | None = DEFAULT_MAX_SHINGLE_DF
                        ) -> ray.data.Dataset | pa.Table:
    """One-sided containment near-dups: doc pairs where the SMALLER
    distinct-shingle set is >= threshold_pct contained in the other —
    the rule that catches quote/subset duplicates whose Jaccard stays
    low because the containing doc is much bigger (Broder's
    containment, the dedup signal Jaccard structurally misses).

    Same distributed shape as q_jaccard_pairs (shared intersection
    machinery); only the finalizer rule differs:
    inter * 100 >= pct * min(|A|, |B|).
    Output (doc_a, doc_b, inter_n, small_n); no passing pair: the typed
    empty table."""
    inter = _shingle_pair_overlaps(sf_dir, max_shingle_df)

    def _filter(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy()
        b = batch.column("doc_b").to_numpy()
        inter_n = batch.column("inter_n").to_numpy().astype(np.int64)
        small_n = np.minimum(
            batch.column("size_a").to_numpy().astype(np.int64),
            batch.column("size_b").to_numpy().astype(np.int64))
        keep = inter_n * 100 >= threshold_pct * small_n
        return pa.table({
            "doc_a": pa.array(a[keep], pa.int64()),
            "doc_b": pa.array(b[keep], pa.int64()),
            "inter_n": pa.array(inter_n[keep], pa.int64()),
            "small_n": pa.array(small_n[keep], pa.int64()),
        })

    return rows_or_empty(inter.map_batches(_filter, batch_format="pyarrow"),
                         _CONTAINMENT_EMPTY)


def _shingle_pair_overlaps(sf_dir: str,
                           max_shingle_df: int | None) -> ray.data.Dataset:
    """Shared near-dup intersection machinery: distinct-shingle rows →
    groupby(shingle-hash bucket) → size-class-vectorized pair explosion
    → groupby(pair) sum. Yields (doc_a, doc_b, inter_n, size_a,
    size_b); the Jaccard / containment finalizers differ only in the
    threshold rule they apply to these five columns."""
    from ray.data.aggregate import Max, Sum

    shingles = documents_ds(sf_dir).map_batches(
        lambda b: _shingle_rows(b, H.SHINGLE_W), batch_format="pyarrow")
    nsb = table_buckets(sf_dir, "documents")

    def _bucketize(batch: pa.Table) -> pa.Table:
        h = batch.column("shingle_h").to_numpy()
        return batch.append_column(
            "sbucket", pa.array(
                (h.astype(np.uint64) % np.uint64(nsb)).astype(np.int32)))

    def _pairs(group: pa.Table) -> pa.Table:
        docs = group.column("doc_id").to_numpy().astype(np.int64)
        # a shingle's rows all share its bucket, so group-local shingle
        # counts ARE the global df — the cap sees true frequencies
        a, b = _explode_pairs(
            group.column("shingle_h").to_numpy().astype(np.int64), docs,
            max_df=max_shingle_df)
        # partial intersection counts within the bucket + doc set sizes
        # (constant per doc, resolved from this group's rows)
        if a.size:
            order = np.lexsort((b, a))
            a, b = a[order], b[order]
            new = np.concatenate(([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
            starts = np.nonzero(new)[0]
            cnt = np.diff(np.concatenate((starts, [a.size])))
            a, b = a[starts], b[starts]
            uniq_docs, first = np.unique(docs, return_index=True)
            doc_n = group.column("doc_n").to_numpy().astype(np.int64)[first]
            size_a = doc_n[np.searchsorted(uniq_docs, a)]
            size_b = doc_n[np.searchsorted(uniq_docs, b)]
        else:
            cnt = size_a = size_b = np.empty(0, np.int64)
        return pa.table({
            "doc_a": pa.array(a, pa.int64()),
            "doc_b": pa.array(b, pa.int64()),
            "inter_partial": pa.array(cnt.astype(np.int64), pa.int64()),
            "size_a": pa.array(size_a, pa.int64()),
            "size_b": pa.array(size_b, pa.int64()),
        })

    from candidategeneration_ray.functions.exchange import fold_by_bucket

    def _inter_fold(group: pa.Table) -> pa.Table:
        """Per-pair Sum(inter) + first(size) — sizes are per-doc
        constants, so first occurrence equals the old Max aggregate."""
        a = group.column("doc_a").to_numpy().astype(np.int64)
        b = group.column("doc_b").to_numpy().astype(np.int64)
        ip = group.column("inter_partial").to_numpy().astype(np.int64)
        sa = group.column("size_a").to_numpy().astype(np.int64)
        sb = group.column("size_b").to_numpy().astype(np.int64)
        pk = pack_pair(a, b)
        order = np.argsort(pk)
        starts = run_starts(pk[order])
        first = order[starts]
        u = pk[first]
        return pa.table({
            "doc_a": pa.array(u >> np.int64(32), pa.int64()),
            "doc_b": pa.array(u & np.int64(0xFFFFFFFF), pa.int64()),
            "inter_n": pa.array(np.add.reduceat(ip[order], starts),
                                pa.int64()),
            "size_a": pa.array(sa[first], pa.int64()),
            "size_b": pa.array(sb[first], pa.int64()),
        })

    return fold_by_bucket(
        shingles.map_batches(_bucketize, batch_format="pyarrow")
        .groupby("sbucket").map_groups(_pairs, batch_format="pyarrow")
        .map_batches(_pair_key_bucket("doc_a", "doc_b", nsb),
                     batch_format="pyarrow"),
        "pfb", _inter_fold, nsb,
        pa.table({"doc_a": pa.array([], pa.int64()),
                  "doc_b": pa.array([], pa.int64()),
                  "inter_n": pa.array([], pa.int64()),
                  "size_a": pa.array([], pa.int64()),
                  "size_b": pa.array([], pa.int64())}))


def q_minhash_signatures(sf_dir: str) -> ray.data.Dataset:
    """MinHash signature matrix: (doc_id, perm_id, minhash) — 16 fixed
    permutations over distinct 3-word shingles. Embarrassingly parallel
    map_batches; no shuffle."""

    def _sig(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy()
        n = len(token_lists)
        docs = np.repeat(doc_ids.astype(np.int64), H.NUM_PERMS)
        perms = np.tile(np.arange(H.NUM_PERMS, dtype=np.int64), n)
        sigs = np.concatenate([
            H.minhash_signature(
                np.unique(H.h64_many(H.word_shingles(toks, H.SHINGLE_W))))
            for toks in token_lists
        ]) if n else np.empty(0, np.int64)
        return pa.table({
            "doc_id": pa.array(docs, pa.int64()),
            "perm_id": pa.array(perms, pa.int64()),
            "minhash": pa.array(sigs, pa.int64()),
        })

    return documents_ds(sf_dir).map_batches(_sig, batch_format="pyarrow")


def q_minhash_lsh_pairs(sf_dir: str) -> ray.data.Dataset:
    """MinHash-LSH near-dup candidate STAR EDGES: 4 bands x 4 rows; each
    (band, band_sig) bucket emits (rep=min doc_id, doc) edges instead of
    all pairs — a hot duplicate cluster of m docs costs m-1 rows, not
    m²/2, and connected components over star edges recovers identical
    clusters. Pattern: signature → band rows → bucketed groupby(sig
    bucket) → vectorized per-(band,sig) star extraction → distributed
    distinct via groupby(doc_a, doc_b). No driver-side step. Output
    (doc_a, doc_b) with doc_a < doc_b."""
    from ray.data.aggregate import Count

    def _bands(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy()
        out_doc, out_band, out_sig = [], [], []
        for i, toks in enumerate(token_lists):
            sig = H.minhash_signature(
                np.unique(H.h64_many(H.word_shingles(toks, H.SHINGLE_W))))
            for band in range(H.LSH_BANDS):
                rows = sig[band * H.LSH_ROWS:(band + 1) * H.LSH_ROWS]
                out_doc.append(int(doc_ids[i]))
                out_band.append(band)
                out_sig.append(H.h64("-".join(str(int(x)) for x in rows)))
        return pa.table({
            "doc_id": pa.array(out_doc, pa.int64()),
            "band_id": pa.array(out_band, pa.int64()),
            "band_sig": pa.array(np.array(out_sig, dtype=np.uint64).astype(np.int64), pa.int64()),
        })

    bands = documents_ds(sf_dir).map_batches(_bands, batch_format="pyarrow")
    nsb = table_buckets(sf_dir, "documents")

    def _bucketize(batch: pa.Table) -> pa.Table:
        s = batch.column("band_sig").to_numpy()
        return batch.append_column(
            "sbucket", pa.array(
                (s.astype(np.uint64) % np.uint64(nsb)).astype(np.int32)))

    def _star(group: pa.Table) -> pa.Table:
        """One bucket = many (band, sig) groups, processed by ONE
        lexsort: the group's min doc (first after sort) becomes the
        representative; every other member gets one (rep, doc) edge."""
        b = group.column("band_id").to_numpy().astype(np.int64)
        s = group.column("band_sig").to_numpy().astype(np.int64)
        d = group.column("doc_id").to_numpy().astype(np.int64)
        order = np.lexsort((d, s, b))
        b, s, d = b[order], s[order], d[order]
        new = np.concatenate(([True], (b[1:] != b[:-1]) | (s[1:] != s[:-1])))
        starts = np.nonzero(new)[0]
        counts = np.diff(np.concatenate((starts, [d.size])))
        rep = np.repeat(d[starts], counts)
        keep = rep != d
        return pa.table({
            "doc_a": pa.array(rep[keep], pa.int64()),
            "doc_b": pa.array(d[keep], pa.int64()),
        })

    # distinct (the same edge may arise from several bands) — the
    # packed-pair bucket fold, not a driver drop_duplicates
    return _distinct_pairs_ds(
        bands.map_batches(_bucketize, batch_format="pyarrow")
        .groupby("sbucket").map_groups(_star, batch_format="pyarrow"),
        "doc_a", "doc_b", nsb)


def q_dup_clusters(sf_dir: str, max_rounds: int = 20) -> ray.data.Dataset:
    """Connected components over the MinHash-LSH star-edge graph: every
    doc gets the MIN doc_id of its duplicate cluster.

    Fully distributed min-label propagation over the EDGE-INDUCED
    subgraph only (a node with no duplicate edge can never change
    label, so per-round shuffles move |dup nodes| rows, not |corpus|):
    labels (node, lbl) start as doc_id; each round unions symmetric
    edge rows with label rows, groups by src (64-way hash buckets,
    vectorized inside), sends each src's label along its out-edges,
    then groupby(node).min(lbl) picks the new label. Labels only
    decrease, so Sum(lbl) is an exact convergence witness — one scalar
    aggregate per round, nothing else reaches the driver. Per-round
    datasets are materialized to truncate lineage (bounded: one row
    per dup node). Singletons fold back in at the end with ONE
    groupby(node).min over (identity ∪ subgraph labels) — min is
    correct because propagated labels only ever decrease below the
    node's own id. Output (doc_id, cluster) for ALL docs.

    Edge sets small enough for one task (<=5M rows after star-edge
    compression) skip the rounds and run CC in a single Ray task over
    the object-store edge blocks instead."""
    from ray.data.aggregate import Min

    SENT = np.iinfo(np.int64).max  # edge-row marker in the unioned schema

    def _sym(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy().astype(np.int64)
        b = batch.column("doc_b").to_numpy().astype(np.int64)
        return pa.table({
            "src": pa.array(np.concatenate((a, b)), pa.int64()),
            "dst": pa.array(np.concatenate((b, a)), pa.int64()),
            "lbl": pa.array(np.full(2 * a.size, SENT, dtype=np.int64), pa.int64()),
        })

    edges = (
        q_minhash_lsh_pairs(sf_dir)
        .map_batches(_sym, batch_format="pyarrow")
        .materialize()  # reused every round; star edges are linear in docs
    )

    # Small-graph fast path: star edges compress a dup cluster to m-1
    # rows, so the WHOLE edge set of even a heavily-duplicated corpus is
    # often task-sized. Run CC in ONE Ray task over the object-store
    # edge blocks (the edge list never touches the driver; the task
    # returns (node, lbl) for dup nodes only, consumed via
    # from_arrow_refs). Graphs past the threshold take the
    # groupby-rounds path.
    n_edges = edges.count()
    if n_edges == 0:
        labels = ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "lbl": pa.array([], pa.int64())}))
    elif n_edges <= 5_000_000:
        labels = ray.data.from_arrow_refs(
            [_small_graph_cc.remote(*edges.to_arrow_refs())])
    else:
        labels = _propagation_rounds(
            edges, max_rounds, num_buckets=table_buckets(sf_dir, "documents"))

    def _identity(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").cast(pa.int64())
        return pa.table({"node": d, "lbl": d})

    all_docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(_identity, batch_format="pyarrow")

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("node"),
                         "cluster": batch.column("lbl")})

    return (
        all_docs.union(labels)
        .groupby("node").aggregate(Min("lbl", alias_name="lbl"))
        .map_batches(_rename, batch_format="pyarrow")
    )


@ray.remote
def _small_graph_cc(*tables: pa.Table) -> pa.Table:
    """Connected components over a task-sized symmetric edge list:
    min-label propagation with pointer jumping, vectorized numpy.
    Returns (node, lbl) for edge-touched nodes only."""
    # high-parallelism runs pad the dataset with 0-row blocks carrying
    # an EMPTY schema — concat_tables rejects the mix; drop them
    tables = [t for t in tables if t.num_rows > 0]
    if not tables:
        return pa.table({"node": pa.array([], pa.int64()),
                         "lbl": pa.array([], pa.int64())})
    t = pa.concat_tables(tables)
    src = t.column("src").to_numpy().astype(np.int64)
    dst = t.column("dst").to_numpy().astype(np.int64)
    nodes = np.unique(np.concatenate((src, dst)))
    label = nodes.copy()
    isrc = np.searchsorted(nodes, src)
    idst = np.searchsorted(nodes, dst)
    # edges sorted by src ONCE; each round is a gather + ONE
    # minimum.reduceat per segment (np.minimum.at is an unbuffered
    # ufunc — ~1 s/round at 8M edges vs ~50 ms for the reduceat)
    eorder = np.argsort(isrc, kind="stable")
    isrc_s = isrc[eorder]
    idst_s = idst[eorder]
    seg = run_starts(isrc_s)
    seg_nodes = isrc_s[seg]
    while True:
        new = label.copy()
        if isrc_s.size:
            mins = np.minimum.reduceat(label[idst_s], seg)
            new[seg_nodes] = np.minimum(new[seg_nodes], mins)
        new = np.minimum(new, new[np.searchsorted(nodes, new)])
        if np.array_equal(new, label):
            break
        label = new
    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "lbl": pa.array(label, pa.int64())})


def _propagation_rounds(edges, max_rounds: int,
                        num_buckets: int = 64):
    """The general-scale CC path: per-round groupby label propagation
    over the edge-induced subgraph (see q_dup_clusters docstring).
    `edges` is the materialized symmetric (src, dst, lbl=SENT) set.
    `num_buckets` sizes the per-round message fold: callers pass
    tableutil.table_buckets over the tables their graph comes from."""
    from ray.data.aggregate import Sum

    from candidategeneration_ray.functions.exchange import fold_by_bucket

    _LBL_EMPTY = pa.table({"node": pa.array([], pa.int64()),
                           "lbl": pa.array([], pa.int64())})

    def _node_bucket(batch: pa.Table) -> pa.Table:
        n = batch.column("node").to_numpy()
        return batch.append_column(
            "nb_", pa.array(bucket_of(n, num_buckets)))

    def _min_per_node(group: pa.Table) -> pa.Table:
        """Per-node Min as a vectorized fold — the sort aggregate pays
        per-GROUP Python in the reduce (the round-5 cliff; x rounds
        here)."""
        n = group.column("node").to_numpy().astype(np.int64)
        l = group.column("lbl").to_numpy().astype(np.int64)
        order = np.lexsort((l, n))
        n, l = n[order], l[order]
        first = np.r_[True, n[1:] != n[:-1]] if n.size             else np.empty(0, bool)
        return pa.table({"node": pa.array(n[first], pa.int64()),
                         "lbl": pa.array(l[first], pa.int64())})

    def _edge_nodes(batch: pa.Table) -> pa.Table:
        s = batch.column("src")
        return pa.table({"node": s, "lbl": s})

    # identity labels for nodes that touch an edge (distinct via fold)
    labels = fold_by_bucket(
        edges.map_batches(_edge_nodes, batch_format="pyarrow")
        .map_batches(_node_bucket, batch_format="pyarrow"),
        "nb_", _min_per_node, num_buckets, _LBL_EMPTY).materialize()
    prev_sum = labels.aggregate(Sum("lbl"))["sum(lbl)"]

    def _as_msg(batch: pa.Table) -> pa.Table:
        # a node's label row doubles as its self-message (keeps own lbl)
        return pa.table({"src": batch.column("node"),
                         "dst": batch.column("node"),
                         "lbl": batch.column("lbl")})

    def _bucketize(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy()
        return batch.append_column(
            "sbucket", pa.array((s.astype(np.uint64)
                                 % np.uint64(num_buckets)).astype(np.int32)))

    def _propagate(group: pa.Table) -> pa.Table:
        """Vectorized over the bucket's many src groups: resolve each
        src's label (its single non-sentinel row) and emit it to every
        dst of that src."""
        src = group.column("src").to_numpy().astype(np.int64)
        dst = group.column("dst").to_numpy().astype(np.int64)
        lbl = group.column("lbl").to_numpy().astype(np.int64)
        order = np.lexsort((lbl, src))       # label row sorts first per src
        src, dst, lbl = src[order], dst[order], lbl[order]
        new = np.concatenate(([True], src[1:] != src[:-1]))
        starts = np.nonzero(new)[0]
        counts = np.diff(np.concatenate((starts, [src.size])))
        src_lbl = np.repeat(lbl[starts], counts)
        return pa.table({"node": pa.array(dst, pa.int64()),
                         "lbl": pa.array(src_lbl, pa.int64())})

    converged = False
    for _ in range(max_rounds):
        msgs = edges.union(labels.map_batches(_as_msg, batch_format="pyarrow"))
        propagated = fold_by_bucket(
            msgs.map_batches(_bucketize, batch_format="pyarrow"),
            "sbucket", _propagate, num_buckets, _LBL_EMPTY)
        labels = fold_by_bucket(
            propagated.map_batches(_node_bucket, batch_format="pyarrow"),
            "nb_", _min_per_node, num_buckets, _LBL_EMPTY).materialize()
        cur_sum = labels.aggregate(Sum("lbl"))["sum(lbl)"]
        if cur_sum == prev_sum:
            converged = True
            break
        prev_sum = cur_sum
    if not converged:
        # labels only decrease, so an unstable Sum(lbl) after the last
        # round means propagation has NOT reached a fixpoint — returning
        # would hand back wrong (split) clusters silently
        raise RuntimeError(
            f"duplicate-cluster label propagation did not converge within "
            f"{max_rounds} rounds (Sum(lbl) still falling). Star edges keep "
            "cluster diameter ~2, so this indicates a pathological graph — "
            "raise max_rounds")
    return labels


def q_simhash(sf_dir: str) -> ray.data.Dataset:
    """60-bit SimHash per doc over kept tokens weighted by tf.
    Embarrassingly parallel; Hamming-bucket grouping would follow the
    LSH pattern above."""

    def _sim(batch: pa.Table) -> pa.Table:
        """Batch-GLOBAL simhash — no per-doc Python loop: one Arrow
        dictionary-encode over the batch's flattened tokens (each
        unique token md5-hashed ONCE), per-(doc, token) tf via one
        np.unique over packed pairs, then a single (rows x 60)
        sign-weighted reduceat per doc. Bit-identical to the scalar
        H.simhash path (differential-tested)."""
        token_lists = tokenize_many(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        n = len(token_lists)
        lens = np.array([len(t) for t in token_lists], dtype=np.int64)
        out = np.zeros(n, dtype=np.int64)
        if lens.sum():
            flat = pa.array([t for ts in token_lists for t in ts], pa.string())
            denc = flat.dictionary_encode()
            codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            vocab = len(denc.dictionary)
            didx = np.repeat(np.arange(n, dtype=np.int64), lens)
            pairs, counts = np.unique(didx * vocab + codes, return_counts=True)
            pdoc, pcode = pairs // vocab, pairs % vocab
            uh = H.h64_many(denc.dictionary.to_pylist())
            shifts = np.arange(H.SIMHASH_BITS, dtype=np.uint64)
            signs = (2 * ((uh[:, None] >> shifts[None, :])
                          & np.uint64(1)).astype(np.int32) - 1)
            contrib = counts[:, None].astype(np.int32) * signs[pcode]
            starts = run_starts(pdoc)
            sums = np.add.reduceat(contrib, starts, axis=0)
            bitvals = np.int64(1) << np.arange(H.SIMHASH_BITS, dtype=np.int64)
            out[pdoc[starts]] = ((sums > 0).astype(np.int64) * bitvals).sum(axis=1)
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "simhash": pa.array(out, pa.int64()),
        })

    return documents_ds(sf_dir).map_batches(_sim, batch_format="pyarrow")


def q_simhash_neardups(sf_dir: str, max_hamming: int = 3) -> ray.data.Dataset:
    """SimHash near-duplicates, EXACT for Hamming distance <=
    `max_hamming`: the 60-bit simhash splits into 4 15-bit bands; any
    pair within distance 3 differs in <= 3 bits, so by pigeonhole at
    least one band matches — grouping by (band_id, band_value) has
    perfect recall, and an exact popcount check inside each group
    removes false positives. Group work runs at the DISTINCT-value
    level (a hot duplicate cluster collapses to ONE value, so the
    value-pair loop is tiny even under worst skew); doc expansion is
    output-sized. Distinct across bands via groupby. Output
    (doc_a, doc_b), doc_a < doc_b."""
    from ray.data.aggregate import Count

    NBANDS, BITS = 4, 15
    sims = q_simhash(sf_dir)

    def _bands(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        s = batch.column("simhash").to_numpy().astype(np.int64)
        out_b, out_v, out_d, out_s = [], [], [], []
        for band in range(NBANDS):
            val = (s >> (band * BITS)) & ((1 << BITS) - 1)
            out_b.append(np.full(d.size, band, dtype=np.int64))
            out_v.append(val)
            out_d.append(d)
            out_s.append(s)
        return pa.table({
            "band_id": pa.array(np.concatenate(out_b), pa.int64()),
            "band_val": pa.array(np.concatenate(out_v), pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            "simhash": pa.array(np.concatenate(out_s), pa.int64()),
        })

    nsb = table_buckets(sf_dir, "documents")

    def _bucketize(batch: pa.Table) -> pa.Table:
        b = batch.column("band_id").to_numpy().astype(np.uint64)
        v = batch.column("band_val").to_numpy().astype(np.uint64)
        return batch.append_column(
            "sbucket", pa.array(
                ((b * 31 + v) % np.uint64(nsb)).astype(np.int32)))

    def _pairs(group: pa.Table) -> pa.Table:
        b = group.column("band_id").to_numpy().astype(np.int64)
        v = group.column("band_val").to_numpy().astype(np.int64)
        d = group.column("doc_id").to_numpy().astype(np.int64)
        s = group.column("simhash").to_numpy().astype(np.int64)
        out_a, out_b2 = [], []
        order = np.lexsort((d, s, v, b))
        b, v, d, s = b[order], v[order], d[order], s[order]
        gnew = np.concatenate(([True], (b[1:] != b[:-1]) | (v[1:] != v[:-1])))
        gstarts = np.nonzero(gnew)[0]
        gends = np.concatenate((gstarts[1:], [d.size]))
        for gs, ge in zip(gstarts, gends):
            if ge - gs < 2:
                continue
            sims_g, docs_g = s[gs:ge], d[gs:ge]
            vals, vstart = np.unique(sims_g, return_index=True)
            vend = np.concatenate((vstart[1:], [sims_g.size]))
            for i in range(vals.size):
                di = docs_g[vstart[i]:vend[i]]
                # same-value docs: distance 0 — all pairs (output-sized)
                if di.size > 1:
                    ia, ib = np.triu_indices(di.size, k=1)
                    out_a.append(di[ia])
                    out_b2.append(di[ib])
                for j in range(i + 1, vals.size):
                    if bin(int(vals[i]) ^ int(vals[j])).count("1") > max_hamming:
                        continue
                    dj = docs_g[vstart[j]:vend[j]]
                    aa = np.repeat(di, dj.size)
                    bb = np.tile(dj, di.size)
                    out_a.append(np.minimum(aa, bb))
                    out_b2.append(np.maximum(aa, bb))
        return pa.table({
            "doc_a": pa.array(np.concatenate(out_a) if out_a else [], pa.int64()),
            "doc_b": pa.array(np.concatenate(out_b2) if out_b2 else [], pa.int64()),
        })

    return _distinct_pairs_ds(
        sims.map_batches(_bands, batch_format="pyarrow")
        .map_batches(_bucketize, batch_format="pyarrow")
        .groupby("sbucket").map_groups(_pairs, batch_format="pyarrow"),
        "doc_a", "doc_b", nsb)


# --------------------------------------------------------- similarity search

def q_ann_cosine_top10(sf_dir: str) -> pa.Table:
    """Brute-force cosine top-10 against the query vector (vec_id 0):
    per-batch numpy matmul against the broadcast query, per-batch
    partial top-k, driver merge. Output (rank, vec_id). The IVF-style
    scale path (bucket by coarse centroid, search nearest buckets) is
    q_ann_ivf_top10."""
    import pyarrow.parquet as pq

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    qtab = pq.read_table(emb_path, filters=[("vec_id", "=", 0)])
    q = np.asarray(qtab.column("embedding").to_pylist()[0], dtype=np.float64)
    q /= np.linalg.norm(q)
    q_ref = ray.put(q)

    def _score(batch: pa.Table, *, _c={}) -> pa.Table:
        if "q" not in _c:
            _c["q"] = ray.get(q_ref)
        qv = _c["q"]
        col = batch.column("embedding").combine_chunks()
        mat = np.asarray(col.values.to_numpy(zero_copy_only=False),
                         dtype=np.float64).reshape(batch.num_rows, -1)
        norms = np.linalg.norm(mat, axis=1)
        cos = (mat @ qv) / np.where(norms == 0, 1.0, norms)
        ids = batch.column("vec_id").to_numpy().astype(np.int64)
        top = np.lexsort((ids, -cos))[:10]   # per-batch partial top-k
        return pa.table({
            "vec_id": pa.array(ids[top], pa.int64()),
            "cos": pa.array(cos[top], pa.float64()),
        })

    parts = _sized_emb(emb_path) \
        .map_batches(_score, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(["cos", "vec_id"], ascending=[False, True]).head(10)
    return pa.table({
        "rank": pa.array(np.arange(1, len(parts) + 1, dtype=np.int64), pa.int64()),
        "vec_id": pa.array(parts["vec_id"].to_numpy(np.int64), pa.int64()),
    })


def _read_query_vec(emb_path: str, vec_id: int = 0) -> np.ndarray:
    """Point-read ONE vector (parquet row-group filter) — never the
    whole embeddings table on the driver."""
    import pyarrow.parquet as pq

    qtab = pq.read_table(emb_path, columns=["vec_id", "embedding"],
                         filters=[("vec_id", "=", vec_id)])
    return np.asarray(qtab.column("embedding").to_pylist()[0], dtype=np.float64)


def _emb_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    col = batch.column("embedding").combine_chunks()
    mat = np.asarray(col.values.to_numpy(zero_copy_only=False),
                     dtype=np.float64).reshape(batch.num_rows, -1)
    ids = batch.column("vec_id").to_numpy().astype(np.int64)
    return ids, mat


def _ivf_planes(n_planes: int, dim: int) -> np.ndarray:
    """Fixed seeded coarse-quantizer hyperplanes (the IVF 'centroid'
    analog that needs no training pass)."""
    return np.random.default_rng(13).standard_normal((n_planes, dim))


def build_ivf_index(sf_dir: str, n_planes: int = 3) -> str:
    """Persist the IVF layout ONCE: embeddings sign-coded against the
    fixed hyperplanes and written BUCKETED BY CODE (hive-partitioned
    parquet, one directory per inverted list) — the exact analog of the
    bucket-partitioned posting segments next door. Query-time probing
    then READS only the probed buckets' files (parquet directory
    pruning) instead of scanning the table per query — what a 100 TB
    embedding table needs for high-QPS serving. Cached with a manifest
    keyed on the source path + parameters."""
    from candidategeneration_ray.state import checkpoint as ckpt

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    out = _cache_dir(sf_dir, f"ivf-p{n_planes}")
    if ckpt.is_complete(out, [emb_path]):
        return out
    ckpt.clear_stale(out)
    dim = _read_query_vec(emb_path).size
    planes = _ivf_planes(n_planes, dim)
    weights = 1 << np.arange(n_planes)
    planes_ref = ray.put(planes)

    def _code(batch: pa.Table, *, _c={}) -> pa.Table:
        if "p" not in _c:
            _c["p"] = ray.get(planes_ref)
        _, mat = _emb_matrix(batch)
        codes = ((mat @ _c["p"].T) > 0) @ weights
        return batch.append_column("code", pa.array(codes.astype(np.int64), pa.int64()))

    os.makedirs(out, exist_ok=True)
    _sized_emb(emb_path) \
        .map_batches(_code, batch_format="pyarrow") \
        .write_parquet(out, partition_cols=["code"])
    ckpt.write_manifest(out, {"phase": "ivf", "inputs": [emb_path],
                              "n_planes": n_planes})
    return out


def ivf_probe_paths(ivf_dir: str, probe_codes) -> list[str]:
    """Parquet files of ONLY the probed inverted lists — the unit the
    bucket-pruned read touches (asserted in pytest)."""
    import glob as _glob

    paths = []
    for c in probe_codes:
        paths.extend(sorted(_glob.glob(
            os.path.join(ivf_dir, f"code={int(c)}", "*.parquet"))))
    return paths


def q_ann_recall_report(sf_dir: str) -> pa.Table:
    """The ANN family folded to ONE evaluation row per method — the
    recall@10 scoreboard an index-selection decision reads (the ANN
    analog of judgment_pool's four-ranker pooling): for each of the
    six deterministic methods (brute-force cosine = the truth anchor,
    SQ8, PQ-ADC, IVF-PQ, learned-codebook IVF, hyperplane-LSH IVF),
    n_hits = |method top-10 ∩ exact top-10| and whether the top-1
    agrees. Every input is itself value-verified; the oracle composes
    all six oracles, so the driver hash-checks the whole evaluation
    matrix (the recall numbers are exact integers, not samples —
    every method here is deterministic).

    Shape: six already-cached top-10 tables; the fold is O(k²) driver
    arithmetic."""
    from candidategeneration_ray.pipelines import clustering as cl

    exact = q_ann_cosine_top10(sf_dir).to_pandas()
    exact_ids = set(exact["vec_id"].astype(int))
    exact_top1 = int(exact.loc[exact["rank"] == 1, "vec_id"].iloc[0])
    methods = [
        ("cosine", lambda _: exact),      # reuse the anchor scan
        ("ivf", q_ann_ivf_top10),
        ("ivfk", cl.q_ann_ivf_kmeans_top10),
        ("ivfpq", cl.q_ann_ivfpq_top10),
        ("pq", cl.q_ann_pq_top10),
        ("sq8", q_ann_sq8_top10),
    ]
    rows = {"method": [], "n_hits": [], "top1_match": []}
    for name, fn in methods:
        t = fn(sf_dir)
        if hasattr(t, "to_pandas"):
            t = t.to_pandas()
        ids = set(t["vec_id"].astype(int))
        top1 = int(t.loc[t["rank"] == 1, "vec_id"].iloc[0])
        rows["method"].append(name)
        rows["n_hits"].append(len(ids & exact_ids))
        rows["top1_match"].append(1 if top1 == exact_top1 else 0)
    return pa.table({
        "method": pa.array(rows["method"], pa.string()),
        "n_hits": pa.array(rows["n_hits"], pa.int64()),
        "top1_match": pa.array(rows["top1_match"], pa.int64()),
    })


def q_ann_ivf_top10(sf_dir: str, n_planes: int = 3, probe: int = 3) -> pa.Table:
    """IVF ANN over the PERSISTED bucketed layout (build_ivf_index):
    the query's `probe` Hamming-nearest inverted lists are read by
    explicit bucket-directory pruning — nothing outside the probed
    buckets leaves storage — then scored with per-batch matmuls and
    ≤10-row partial top-k merges. Candidate set identical to the
    former scan-and-filter variant (recall unchanged, tested).
    Approximate by design — recall vs brute force asserted in pytest."""
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    ivf_dir = build_ivf_index(sf_dir, n_planes)
    qv = _read_query_vec(emb_path)
    planes = _ivf_planes(n_planes, qv.size)
    weights = 1 << np.arange(n_planes)
    qcode = int(((qv @ planes.T) > 0) @ weights)
    ham = np.array([bin(b ^ qcode).count("1") for b in range(2 ** n_planes)])
    probe_codes = np.sort(np.argsort(ham, kind="stable")[:probe])
    files = ivf_probe_paths(ivf_dir, probe_codes)
    if not files:
        return pa.table({"rank": pa.array([], pa.int64()),
                         "vec_id": pa.array([], pa.int64())})
    qn = qv / np.linalg.norm(qv)
    q_ref = ray.put(qn)

    def _score(batch: pa.Table, *, _c={}) -> pa.Table:
        if "q" not in _c:
            _c["q"] = ray.get(q_ref)
        ids, mat = _emb_matrix(batch)
        norms = np.linalg.norm(mat, axis=1)
        cos = (mat @ _c["q"]) / np.where(norms == 0, 1.0, norms)
        top = np.lexsort((ids, -cos))[:10]
        return pa.table({
            "vec_id": pa.array(ids[top], pa.int64()),
            "cos": pa.array(cos[top], pa.float64()),
        })

    parts = ray.data.read_parquet(files, columns=["vec_id", "embedding"]) \
        .map_batches(_score, batch_format="pyarrow").to_pandas()
    parts = parts.sort_values(["cos", "vec_id"], ascending=[False, True]).head(10)
    return pa.table({
        "rank": pa.array(np.arange(1, len(parts) + 1, dtype=np.int64), pa.int64()),
        "vec_id": pa.array(parts["vec_id"].to_numpy(np.int64), pa.int64()),
    })


def q_embedding_neardups(sf_dir: str, threshold_pct: int = 40,
                         n_blocks: int = 4) -> ray.data.Dataset:
    """Embedding-cosine near-duplicates, EXACT and distributed: vector
    pairs with cosine >= threshold_pct/100, (vec_a, vec_b) ascending.

    Block-pair all-pairs: each vector lands in block vec_id % n_blocks
    and is replicated to the n_blocks pair-groups its block belongs to;
    groupby(pair_id) then runs ONE bounded matmul per group (cross for
    i<j, triu for i==j), so every candidate pair is scored exactly once
    and no task ever holds more than 2/n_blocks of the table. Scale by
    raising n_blocks (memory per task shrinks as 1/n_blocks, replication
    grows as n_blocks ~ sqrt(cluster)). No driver-side read."""
    emb_path = os.path.join(sf_dir, "embeddings.parquet")

    def _expand(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy().astype(np.int64)
        blk = (ids % n_blocks).astype(np.int64)
        # for block k: pair-groups (min(k,j), max(k,j)) for every j
        pair_of = np.empty((n_blocks, n_blocks), dtype=np.int64)
        side_of = np.empty((n_blocks, n_blocks), dtype=np.int64)
        for k in range(n_blocks):
            for j in range(n_blocks):
                lo, hi = min(k, j), max(k, j)
                pair_of[k, j] = lo * n_blocks + hi
                side_of[k, j] = 0 if k == lo else 1
        take = np.repeat(np.arange(ids.size), n_blocks)
        pair_id = pair_of[np.repeat(blk, n_blocks),
                          np.tile(np.arange(n_blocks), ids.size)]
        side = side_of[np.repeat(blk, n_blocks),
                       np.tile(np.arange(n_blocks), ids.size)]
        rep = batch.take(take)
        return pa.table({
            "pair_id": pa.array(pair_id, pa.int64()),
            "side": pa.array(side, pa.int64()),
            "vec_id": rep.column("vec_id").cast(pa.int64()),
            "embedding": rep.column("embedding"),
        })

    def _score_group(group: pa.Table) -> pa.Table:
        pair_id = int(group.column("pair_id")[0].as_py())
        i, j = divmod(pair_id, n_blocks)
        side = group.column("side").to_numpy().astype(np.int64)
        ids, mat = _emb_matrix(group)
        norms = np.linalg.norm(mat, axis=1)
        unit = mat / np.where(norms == 0, 1.0, norms)[:, None]
        if i == j:
            # diagonal group: docs appear once (side 0); triu pairs
            m0 = side == 0
            u, uid = unit[m0], ids[m0]
            cos = u @ u.T
            ia, ib = np.triu_indices(uid.size, k=1)
            keep = cos[ia, ib] * 100 >= threshold_pct
            a, b = uid[ia[keep]], uid[ib[keep]]
        else:
            m0, m1 = side == 0, side == 1
            ua, ida = unit[m0], ids[m0]
            ub, idb = unit[m1], ids[m1]
            cos = ua @ ub.T
            ka, kb = np.nonzero(cos * 100 >= threshold_pct)
            a, b = ida[ka], idb[kb]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table({
            "vec_a": pa.array(lo, pa.int64()),
            "vec_b": pa.array(hi, pa.int64()),
        })

    return (
        _sized_emb(emb_path)
        .map_batches(_expand, batch_format="pyarrow")
        .groupby("pair_id").map_groups(_score_group, batch_format="pyarrow")
    )


def q_embedding_neardups_lsh(sf_dir: str, threshold_pct: int = 40,
                             planes_per_band: int = 2,
                             n_bands: int = 8) -> ray.data.Dataset:
    """APPROXIMATE embedding near-dups via random-hyperplane LSH banding
    — the sub-quadratic scale path beside exact q_embedding_neardups.

    Each vector gets `n_bands` band codes (sign pattern over
    `planes_per_band` seeded hyperplanes per band, Charikar STOC 2002
    similarity estimation) inside map_batches; candidates are pairs
    sharing any band bucket, scored with an exact cosine matmul INSIDE
    the bucket group and deduped by a distributed groupby. Compute is
    Σ_buckets m² instead of the exact path's n²/n_blocks per task — the
    win grows with the threshold (more planes per band → smaller
    buckets). Expected recall for a cos≥t pair is
    1 - (1 - (1 - θ/π)^r)^B ≈ 0.98 at t=0.4, r=2, B=8 (asserted ≥0.8
    against the exact path in pytest — approximate by design, so this
    is a rows-only driver entry like ann_ivf_top10)."""
    from ray.data.aggregate import Count

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    dim = _read_query_vec(emb_path).size
    planes = np.random.default_rng(17).standard_normal(
        (n_bands * planes_per_band, dim))
    weights = 1 << np.arange(planes_per_band)
    planes_ref = ray.put(planes)

    def _bands(batch: pa.Table, *, _c={}) -> pa.Table:
        if "p" not in _c:
            _c["p"] = ray.get(planes_ref)
        ids, mat = _emb_matrix(batch)
        bits = (mat @ _c["p"].T) > 0                     # (n, B*r)
        codes = bits.reshape(ids.size, n_bands, planes_per_band) @ weights
        take = np.repeat(np.arange(ids.size), n_bands)
        band = np.tile(np.arange(n_bands, dtype=np.int64), ids.size)
        rep = batch.take(take)
        return pa.table({
            "band": pa.array(band, pa.int64()),
            "code": pa.array(codes.reshape(-1).astype(np.int64), pa.int64()),
            "vec_id": rep.column("vec_id").cast(pa.int64()),
            "embedding": rep.column("embedding"),
        })

    nsb = table_buckets(sf_dir, "embeddings")

    def _bucketize(batch: pa.Table) -> pa.Table:
        b = batch.column("band").to_numpy().astype(np.uint64)
        c = batch.column("code").to_numpy().astype(np.uint64)
        return batch.append_column(
            "sbucket", pa.array(
                ((b * 131 + c) % np.uint64(nsb)).astype(np.int32)))

    def _pairs(group: pa.Table) -> pa.Table:
        """One shuffle bucket = many (band, code) LSH buckets; score
        each with one bounded matmul (vectorized within segments)."""
        band = group.column("band").to_numpy().astype(np.int64)
        code = group.column("code").to_numpy().astype(np.int64)
        ids, mat = _emb_matrix(group)
        norms = np.linalg.norm(mat, axis=1)
        unit = mat / np.where(norms == 0, 1.0, norms)[:, None]
        order = np.lexsort((ids, code, band))
        band, code, ids, unit = band[order], code[order], ids[order], unit[order]
        gnew = np.concatenate(
            ([True], (band[1:] != band[:-1]) | (code[1:] != code[:-1])))
        gstarts = np.nonzero(gnew)[0]
        gends = np.concatenate((gstarts[1:], [ids.size]))
        out_a, out_b = [], []
        for gs, ge in zip(gstarts, gends):
            if ge - gs < 2:
                continue
            u, uid = unit[gs:ge], ids[gs:ge]
            cos = u @ u.T
            ia, ib = np.triu_indices(uid.size, k=1)
            keep = cos[ia, ib] * 100 >= threshold_pct
            a, b = uid[ia[keep]], uid[ib[keep]]
            out_a.append(np.minimum(a, b))
            out_b.append(np.maximum(a, b))
        return pa.table({
            "vec_a": pa.array(np.concatenate(out_a) if out_a else [], pa.int64()),
            "vec_b": pa.array(np.concatenate(out_b) if out_b else [], pa.int64()),
        })

    return _distinct_pairs_ds(
        _sized_emb(emb_path)
        .map_batches(_bands, batch_format="pyarrow")
        .map_batches(_bucketize, batch_format="pyarrow")
        .groupby("sbucket").map_groups(_pairs, batch_format="pyarrow"),
        "vec_a", "vec_b", nsb)


def q_repetition_stats(sf_dir: str) -> ray.data.Dataset:
    """Repetition-based quality signals (the Gopher/MassiveText-style
    repetition filters used by training-data pipelines — Rae et al. 2021
    §A1.1: documents dominated by repeated n-grams are low quality):
    per doc over ADJACENT kept-token bigrams,
      n_bigrams      = total bigram occurrences,
      top_bigram_n   = occurrences of the most frequent bigram,
      dup_bigram_n   = occurrences belonging to any repeated bigram
    (the filter thresholds are ratios of these; integers are emitted so
    the oracle compare is exact). Fully vectorized per batch: tokens →
    batch-local codes → packed (doc, bigram) keys → one sort + reduceat."""

    def _rep(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        nrows = len(token_lists)
        lens = np.fromiter((len(t) for t in token_lists), dtype=np.int64,
                           count=nrows)
        flat = [t for toks in token_lists for t in toks]
        n_big = np.zeros(nrows, np.int64)
        top_big = np.zeros(nrows, np.int64)
        dup_big = np.zeros(nrows, np.int64)
        if flat:
            arr = pa.array(flat, pa.string()).dictionary_encode()
            codes = arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            vocab = np.int64(len(arr.dictionary))
            didx = np.repeat(np.arange(nrows, dtype=np.int64), lens)
            if codes.size >= 2:
                same = didx[:-1] == didx[1:]
                d = didx[:-1][same]
                pair = codes[:-1][same] * vocab + codes[1:][same]
                if d.size:
                    # one packed sort per batch when (doc, pair) fits an
                    # int64; lexsort fallback for huge batch vocabularies
                    if vocab * vocab * nrows < (1 << 62):
                        packed = np.sort(d * (vocab * vocab) + pair)
                        starts = run_starts(packed)
                        gd = packed[starts] // (vocab * vocab)
                    else:
                        order = np.lexsort((pair, d))
                        d, pair = d[order], pair[order]
                        new = np.concatenate(
                            ([True], (d[1:] != d[:-1]) | (pair[1:] != pair[:-1])))
                        starts = np.nonzero(new)[0]
                        gd = d[starts]
                    cnt = np.diff(np.concatenate((starts, [pair.size])))
                    np.add.at(n_big, gd, cnt)
                    np.maximum.at(top_big, gd, cnt)
                    np.add.at(dup_big, gd, np.where(cnt > 1, cnt, 0))
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "n_bigrams": pa.array(n_big, pa.int64()),
            "top_bigram_n": pa.array(top_big, pa.int64()),
            "dup_bigram_n": pa.array(dup_big, pa.int64()),
        })

    return documents_ds(sf_dir).map_batches(_rep, batch_format="pyarrow")


def q_duplicate_spans(sf_dir: str, w: int = 20) -> ray.data.Dataset:
    """Cross-document duplicate-span rates (the repeated-substring
    signal of Lee et al. 2022, "Deduplicating Training Data Makes
    Language Models Better" — memorized boilerplate shows up as long
    token spans shared across documents): per doc, the number of
    DISTINCT w-token spans it contains and how many of those appear in
    at least one other document. Downstream filters threshold
    n_dup_spans / n_spans.

    Shape: distinct span hashes per doc (map_batches) → span-hash
    bucket groupby computing per-span cross-doc df and per-doc partial
    counts inside the bucket → groupby(doc).sum. Both shuffles move
    compressed rows (distinct spans, then 2-int partials per
    (doc, bucket))."""
    from ray.data.aggregate import Sum

    spans = documents_ds(sf_dir).map_batches(
        lambda b: _shingle_rows(b, w), batch_format="pyarrow")
    nsb = table_buckets(sf_dir, "documents")

    def _bucketize(batch: pa.Table) -> pa.Table:
        h = batch.column("shingle_h").to_numpy()
        return batch.append_column(
            "sbucket", pa.array(
                (h.astype(np.uint64) % np.uint64(nsb)).astype(np.int32)))

    def _df_partials(group: pa.Table) -> pa.Table:
        h = group.column("shingle_h").to_numpy().astype(np.int64)
        d = group.column("doc_id").to_numpy().astype(np.int64)
        order = np.lexsort((d, h))
        h, d = h[order], d[order]
        starts = run_starts(h)
        counts = np.diff(np.concatenate((starts, [h.size])))
        # rows are distinct per doc, so group size IS the cross-doc df;
        # a span's rows all share its bucket → dfs here are global
        df = np.repeat(counts, counts)
        docs, tot, dup = group_sum(d, np.ones(d.size, np.int64), df >= 2)
        return pa.table({
            "doc_id": pa.array(docs, pa.int64()),
            "dup_partial": pa.array(dup, pa.int64()),
            "tot_partial": pa.array(tot, pa.int64()),
        })

    return (
        spans.map_batches(_bucketize, batch_format="pyarrow")
        .groupby("sbucket").map_groups(_df_partials, batch_format="pyarrow")
        .groupby("doc_id").aggregate(
            Sum("tot_partial", alias_name="n_spans"),
            Sum("dup_partial", alias_name="n_dup_spans"),
        )
    )


def q_source_sample(sf_dir: str, k: int = 25) -> ray.data.Dataset:
    """Per-source deterministic bottom-k sample — the consistent-
    hashing sampling primitive training-data pipelines use for mixture
    control and stable sub-sampling (same doc set on every run and
    every re-shard, unlike RNG sampling): for each `source`, keep the
    k docs with the smallest md5-derived hash of their doc id (ties by
    doc id). Two-level: per-batch PARTIAL bottom-k inside map_batches
    (the shuffle moves <= k rows per (source, batch)), then
    groupby(source) final bottom-k. Output (source, doc_id)."""

    def _bottom_k(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        src = batch.column("source").to_numpy(zero_copy_only=False)
        h = H.h64_many([str(i) for i in ids.tolist()])
        # group rows by source, keep each group's k smallest (h, doc_id)
        codes, inv = np.unique(src, return_inverse=True)
        order = np.lexsort((ids, h, inv))
        gi = inv[order]
        starts = run_starts(gi)
        counts = np.diff(np.concatenate((starts, [gi.size])))
        pos = np.arange(gi.size) - np.repeat(starts, counts)
        keep = order[pos < k]
        return pa.table({
            "source": pa.array(src[keep].tolist(), pa.string()),
            "doc_id": pa.array(ids[keep], pa.int64()),
        })

    return (
        ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "source"])
        .map_batches(_bottom_k, batch_format="pyarrow")
        .groupby("source").map_groups(_bottom_k, batch_format="pyarrow")
    )


# ------------------------------------------------------------ text analysis

_STOPWORD_SET = None  # lazily-built pa.array, shared per worker


def _textstats(batch: pa.Table) -> pa.Table:
    """Per-doc text statistics, fully vectorized in Arrow C++ (RE2
    kernels + one flattened word pass) — no Python loop over rows.
    Tested equal to the per-row regex reference on the driver tables."""
    import pyarrow.compute as pc

    global _STOPWORD_SET
    if _STOPWORD_SET is None:
        from candidategeneration_ray.functions.stopwords import STOPWORDS

        _STOPWORD_SET = pa.array(sorted(STOPWORDS), pa.string())

    text = batch.column("text").combine_chunks()
    n = len(text)
    # words = runs of [A-Za-z]+ — non-letters to spaces, whitespace split
    words = pc.split_pattern_regex(
        pc.replace_substring_regex(text, "[^A-Za-z]+", " "), r"\s+")
    flat = words.values
    lens_all = np.diff(words.offsets.to_numpy().astype(np.int64))
    didx = np.repeat(np.arange(n), lens_all)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    n_words = np.bincount(didx[nonempty], minlength=n).astype(np.int64)
    stop = pc.is_in(pc.utf8_lower(flat), value_set=_STOPWORD_SET) \
        .to_numpy(zero_copy_only=False) & nonempty
    n_stop = np.bincount(didx[stop], minlength=n).astype(np.int64)

    def _count(pattern: str) -> pa.Array:
        return pc.count_substring_regex(text, pattern).cast(pa.int64())

    return pa.table({
        "doc_id": batch.column("doc_id").cast(pa.int64()),
        "n_chars": pc.utf8_length(text).cast(pa.int64()),
        "n_words": pa.array(n_words, pa.int64()),
        "n_stop": pa.array(n_stop, pa.int64()),
        "n_digit_tokens": _count("[0-9]+"),
        "n_punct_chars": _count(r"[^A-Za-z0-9\s]"),
        "n_upper_chars": _count("[A-Z]"),
        "n_bpe_units": _count(r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"),
    })


def q_text_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-doc text analysis: char/word/stopword/punct/upper counts and
    a BPE-ish unit count (quality scoring + token counting)."""
    return documents_ds(sf_dir).map_batches(_textstats, batch_format="pyarrow")


# PII-ish scrub patterns (RE2 syntax — pyarrow and DuckDB both run
# RE2, so partial-match semantics agree by construction)
REGEX_PATTERNS: list[tuple[str, str]] = [
    ("repeat_word", "batch batch"),
    ("gap_pair", "query [a-z]+ join"),
    ("either_order", "(vector [a-z]+ data|data [a-z]+ vector)"),
    ("adjacent_class", "(sort|merge) (sort|merge)"),
    ("ordered_triple", "stream .*filter.* hash"),
]


def q_regex_counts(sf_dir: str) -> ray.data.Dataset:
    """Per-(source, pattern) count of documents whose raw text matches
    a fixed set of unanchored regexes — the scrub-list / PII-pattern
    accounting pass a training-data pipeline runs before redaction.

    Shape: ONE streaming scan; each batch runs compiled RE2 kernels
    (pyarrow match_substring_regex — no Python regex loop) and emits
    O(sources x patterns) partial rows; a tiny groupby sums them.
    Returns (pattern, source, n_docs)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_numpy(zero_copy_only=False)
        codes, *cnts = group_sum(src, *[
            pc.match_substring_regex(batch.column("text"), pat)
            .to_numpy(zero_copy_only=False) for _, pat in REGEX_PATTERNS])
        out_p, out_s, out_n = [], [], []
        for (name, _), cnt in zip(REGEX_PATTERNS, cnts):
            nz = np.nonzero(cnt)[0]
            out_p.extend([name] * nz.size)
            out_s.extend(codes[nz].tolist())
            out_n.extend(cnt[nz].tolist())
        return pa.table({
            "pattern": pa.array(out_p, pa.string()),
            "source": pa.array(out_s, pa.string()),
            "n_docs": pa.array(out_n, pa.int64()),
        })

    return (
        ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["text", "source"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["pattern", "source"])
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


def q_langid(sf_dir: str) -> ray.data.Dataset:
    """Stopword-ratio language-ID heuristic: is_en iff >= 20% of the
    alphabetic words are English stopwords (5*n_stop >= n_words)."""

    def _lang(batch: pa.Table) -> pa.Table:
        t = _textstats(batch)
        n_words = t.column("n_words").to_numpy()
        n_stop = t.column("n_stop").to_numpy()
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_words": t.column("n_words"),
            "n_stop": t.column("n_stop"),
            "is_en": pa.array(5 * n_stop >= np.maximum(n_words, 1), pa.bool_()),
        })

    return documents_ds(sf_dir).map_batches(_lang, batch_format="pyarrow")


def q_langid_eval(sf_dir: str) -> ray.data.Dataset:
    """Heuristic-vs-label evaluation aggregate: per (lang label, is_en
    heuristic) document counts — the confusion table used to calibrate
    a cheap classifier against labeled data. Pre-aggregated: one
    partial row per (lang, is_en) per batch, then a tiny groupby sum
    (the shuffle never moves per-doc rows)."""
    from ray.data.aggregate import Sum

    def _part(batch: pa.Table) -> pa.Table:
        t = _textstats(batch)
        n_words = t.column("n_words").to_numpy()
        n_stop = t.column("n_stop").to_numpy()
        is_en = 5 * n_stop >= np.maximum(n_words, 1)
        lang = batch.column("lang").to_numpy(zero_copy_only=False)
        key = np.array([f"{l}\x00{int(e)}" for l, e in zip(lang, is_en)],
                       dtype=object)
        uniq, counts = np.unique(key, return_counts=True)
        langs = [u.split("\x00")[0] for u in uniq]
        ens = [u.split("\x00")[1] == "1" for u in uniq]
        return pa.table({
            "lang": pa.array(langs, pa.string()),
            "is_en": pa.array(ens, pa.bool_()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        })

    return (
        ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "text", "lang"])
        .map_batches(_part, batch_format="pyarrow")
        .groupby(["lang", "is_en"]).aggregate(Sum("n", alias_name="n_docs"))
    )


def q_fingerprints(sf_dir: str) -> ray.data.Dataset:
    """Document fingerprint: min md5-hash over 8-word shingles of the
    kept-token stream (winnowing-style content signature)."""

    def _fp(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        out = np.empty(len(token_lists), dtype=np.int64)
        for i, toks in enumerate(token_lists):
            hs = H.h64_many(H.word_shingles(toks, H.FINGERPRINT_W))
            out[i] = np.int64(int(hs.min()) - (1 << 64) if int(hs.min()) >= (1 << 63) else int(hs.min()))
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "fingerprint": pa.array(out, pa.int64()),
        })

    return documents_ds(sf_dir).map_batches(_fp, batch_format="pyarrow")


WINNOW_K = 4   # words per k-gram
WINNOW_W = 5   # k-gram hashes per winnowing window


def winnow_select(hs: np.ndarray) -> list[tuple[int, int]]:
    """The winnowing kernel: sorted distinct (1-based position, hash)
    minima of every WINNOW_W-hash window (leftmost min on ties); a
    sequence shorter than one window yields its global min."""
    n = int(hs.size)
    if n <= WINNOW_W:
        p = int(np.argmin(hs))
        sel = {(p + 1, int(hs[p]))}
    else:
        win = np.lib.stride_tricks.sliding_window_view(hs, WINNOW_W)
        am = np.argmin(win, axis=1)          # leftmost min per window
        pos = np.arange(win.shape[0], dtype=np.int64) + am
        sel = {(int(p) + 1, int(h)) for p, h in zip(pos, hs[pos])}
    return sorted(sel)


def q_winnow_fingerprints(sf_dir: str) -> ray.data.Dataset:
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken
    SIGMOD'03 — the MOSS local fingerprinting scheme): hash every
    WINNOW_K-word shingle of the kept-token stream, slide a
    WINNOW_W-hash window over the sequence, and keep each window's
    minimum hash (leftmost on ties), deduplicated by (position, hash).
    Guarantees any shared run of WINNOW_K + WINNOW_W - 1 consecutive
    words is caught by at least one common fingerprint at ~2/(w+1)
    selection density — the position-robust middle ground between the
    single min-hash signature (q_fingerprints) and full shingle sets
    (q_jaccard_pairs), and the primitive plagiarism / near-dup span
    detectors build on.

    Shape: pure streaming map_batches — a numpy sliding-window min per
    doc, no shuffle, output O(tokens / w) rows per doc. Output
    (doc_id, pos, fp) with pos the 1-based k-gram position."""

    def _win(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        out_doc, out_pos, out_fp = [], [], []
        for i, toks in enumerate(token_lists):
            for p, h in winnow_select(
                    H.h64_many(H.word_shingles(toks, WINNOW_K))):
                out_doc.append(doc_ids[i])
                out_pos.append(p)
                out_fp.append(h - (1 << 64) if h >= (1 << 63) else h)
        return pa.table({
            "doc_id": pa.array(out_doc, pa.int64()),
            "pos": pa.array(out_pos, pa.int64()),
            "fp": pa.array(out_fp, pa.int64()),
        })

    return documents_ds(sf_dir).map_batches(_win, batch_format="pyarrow")


# -------------------------------------------------------------- multimodal

class BinaryDecodeStub:
    """Actor-pool stage for opaque binary payloads (images/audio).

    The decode itself is a STUB (no image/audio libs in this container):
    it derives deterministic fake metadata from the bytes. The Ray-side
    plumbing — binary Arrow column in, small batches, actor-pool
    map_batches, typed metadata out — is the real production shape.
    """

    def __init__(self):
        self.decoded = 0  # per-actor counter (real decoders hold models)

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column("payload").to_pylist()
        n_bytes = np.array([len(p) for p in payloads], dtype=np.int64)
        # deterministic fake "decode": dimensions derived from content
        width = 64 + (n_bytes % 577)
        height = 64 + ((n_bytes * 31) % 419)
        self.decoded += len(payloads)
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "n_bytes": pa.array(n_bytes, pa.int64()),
            "width": pa.array(width, pa.int64()),
            "height": pa.array(height, pa.int64()),
        })


class FrameSampleStub:
    """Actor-pool frame sampler for opaque video payloads: REAL Ray
    plumbing (binary column in, small batches, exploded per-frame rows
    out), fake decode (no media libs in this container). Treats the
    payload as fixed FRAME_BYTES-byte frames and emits every STRIDE-th
    frame as its own row with the actual byte slice — the shape of a
    video frame-sampling stage (keyframe extraction would replace the
    fixed stride)."""

    FRAME_BYTES = 256
    STRIDE = 4

    def __init__(self):
        self.sampled = 0

    def __call__(self, batch: pa.Table) -> pa.Table:
        fb, stride = self.FRAME_BYTES, self.STRIDE
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        payloads = batch.column("payload").to_pylist()
        out_doc, out_idx, out_n, out_payload = [], [], [], []
        for i, p in enumerate(payloads):
            n = len(p)
            n_frames = (n + fb - 1) // fb
            for fi in range(0, n_frames, stride):
                out_doc.append(doc_ids[i])
                out_idx.append(fi)
                out_n.append(min(fb, n - fi * fb))
                out_payload.append(p[fi * fb:(fi + 1) * fb])
        self.sampled += len(out_idx)
        return pa.table({
            "doc_id": pa.array(out_doc, pa.int64()),
            "frame_idx": pa.array(out_idx, pa.int64()),
            "frame_bytes": pa.array(out_n, pa.int64()),
            "frame_payload": pa.array(out_payload, pa.binary()),
        })


class CodepointHistogramFeatures:
    """Actor-pool feature extractor: 16-bucket codepoint histogram per
    doc — a REAL (not stubbed) cheap feature family computable without
    media libs; the actor shape is identical to an embedding-model
    stage (load weights in __init__, batch inference in __call__).
    Emits exploded (doc_id, bucket, n) rows for nonzero buckets."""

    N_BUCKETS = 16

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        out_doc, out_bucket, out_n = [], [], []
        for i, t in enumerate(texts):
            if not t:
                continue
            # utf-32-le view = one uint32 codepoint per character
            cps = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
            buckets = np.minimum(cps, 255) >> 4
            counts = np.bincount(buckets, minlength=self.N_BUCKETS)
            nz = np.nonzero(counts)[0]
            out_doc.append(np.full(nz.size, doc_ids[i], dtype=np.int64))
            out_bucket.append(nz.astype(np.int64))
            out_n.append(counts[nz].astype(np.int64))
        return pa.table({
            "doc_id": pa.array(np.concatenate(out_doc) if out_doc else [], pa.int64()),
            "bucket": pa.array(np.concatenate(out_bucket) if out_bucket else [], pa.int64()),
            "n": pa.array(np.concatenate(out_n) if out_n else [], pa.int64()),
        })


def _binary_payloads(sf_dir: str) -> ray.data.Dataset:
    """Synthesize the opaque binary column from text (deterministic)."""

    def _to_binary(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "payload": pa.array(
                [t.encode("utf-8") for t in batch.column("text").to_pylist()],
                pa.binary()),
        })

    return documents_ds(sf_dir).map_batches(_to_binary, batch_format="pyarrow")


def q_multimodal_frames(sf_dir: str) -> ray.data.Dataset:
    """Frame-sampling plumbing over opaque binary payloads (actor pool,
    small batches for large payloads). Returns (doc_id, frame_idx,
    frame_bytes); the actual frame byte slices flow through the stage
    and are dropped only for the oracle comparison."""
    return (
        _binary_payloads(sf_dir)
        .map_batches(FrameSampleStub, batch_format="pyarrow",
                     batch_size=256, concurrency=(1, 4))
        .select_columns(["doc_id", "frame_idx", "frame_bytes"])
    )


def q_multimodal_features(sf_dir: str) -> ray.data.Dataset:
    """Feature-extraction plumbing: per-doc 16-bucket codepoint
    histogram as exploded (doc_id, bucket, n) rows (actor pool)."""
    return documents_ds(sf_dir).map_batches(
        CodepointHistogramFeatures, batch_format="pyarrow",
        batch_size=512, concurrency=(1, 4))


def q_multimodal_meta(sf_dir: str) -> ray.data.Dataset:
    """Multimodal plumbing: synthesize an opaque binary column from the
    text (deterministic), run the actor-pool decode stub with small
    batches (large-payload sizing), return typed metadata."""

    def _to_binary(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "payload": pa.array(
                [t.encode("utf-8") for t in batch.column("text").to_pylist()],
                pa.binary()),
        })

    return (
        documents_ds(sf_dir)
        .map_batches(_to_binary, batch_format="pyarrow")
        .map_batches(BinaryDecodeStub, batch_format="pyarrow",
                     batch_size=256, concurrency=(1, 4))
    )


# --------------------------------------------------- mixture accounting

TRAIN_PCT = 90


def q_tokens_by_source(sf_dir: str) -> ray.data.Dataset:
    """Mixture accounting: per `source`, document / kept-token /
    character totals — the bookkeeping a training-data pipeline runs
    before weighting sources. Per-batch vectorized partials (one row
    per source per batch) -> groupby(source).sum; the shuffle moves
    O(sources) rows per batch."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        src = batch.column("source").to_numpy(zero_copy_only=False)
        nch = batch.column("n_chars").to_numpy().astype(np.int64)
        ntok = np.fromiter((len(t) for t in token_lists), np.int64,
                           len(token_lists))
        codes, n, stok, sch = group_sum(src, np.ones(src.size, np.int64),
                                        ntok, nch)
        return pa.table({
            "source": pa.array(codes.tolist(), pa.string()),
            "n_docs": pa.array(n, pa.int64()),
            "total_tokens": pa.array(stok, pa.int64()),
            "total_chars": pa.array(sch, pa.int64()),
        })

    return (
        ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "text", "source", "n_chars"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"),
                   Sum("total_tokens", alias_name="total_tokens"),
                   Sum("total_chars", alias_name="total_chars"))
    )


def q_train_val_split(sf_dir: str, train_pct: int = TRAIN_PCT) -> ray.data.Dataset:
    """Deterministic train/val split by consistent hash — split
    membership depends only on doc_id (stable across runs, re-shards
    and corpus growth, unlike RNG splits): split = 'train' iff
    h64(doc_id) % 100 < train_pct. Returns per-(source, split) doc
    counts; per-batch compressed partials -> groupby sum."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        src = batch.column("source").to_numpy(zero_copy_only=False)
        h = H.h64_many([str(i) for i in ids.tolist()])
        split = np.where(h % np.uint64(100) < train_pct, "train", "val")
        key = np.char.add(np.char.add(src.astype("U"), "\x1f"),
                          split.astype("U"))
        codes, counts = np.unique(key, return_counts=True)
        srcs, splits = zip(*(c.split("\x1f") for c in codes.tolist())) \
            if codes.size else ((), ())
        return pa.table({
            "source": pa.array(list(srcs), pa.string()),
            "split": pa.array(list(splits), pa.string()),
            "n_docs": pa.array(counts.astype(np.int64), pa.int64()),
        })

    return (
        ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "source"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["source", "split"])
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


# ----------------------------------------------------- quality filtering

# C4/Gopher-style document filter rules (Raffel et al. 2020 / Rae et
# al. 2021 shapes, integer-exact thresholds): bit i of fail_mask set =
# rule i failed. All comparisons are integer, so the SQL oracle is exact.
QF_MIN_WORDS = 20          # bit 0: too short
QF_MAX_WORDS = 10_000      # bit 1: too long
QF_STOP_MULT = 30          # bit 2: stopword ratio < 1/30
QF_MAX_MEAN_WLEN = 12      # bit 3: mean chars per word too high
QF_PUNCT_MULT = 10         # bit 4: punct chars > 1/10 of chars


def q_quality_filter(sf_dir: str) -> ray.data.Dataset:
    """Composite document-quality filter: per doc a keep flag and a
    bitmask of failed rules (min/max length, stopword ratio, mean word
    length, symbol ratio) over the vectorized _textstats quantities —
    the canonical pre-training cleaning gate, as one streaming
    map_batches chain (stats kernel -> integer rule mask), no shuffle
    at all."""

    def _rules(batch: pa.Table) -> pa.Table:
        nw = batch.column("n_words").to_numpy()
        nc = batch.column("n_chars").to_numpy()
        ns = batch.column("n_stop").to_numpy()
        np_ = batch.column("n_punct_chars").to_numpy()
        mask = (
            (nw < QF_MIN_WORDS).astype(np.int64)
            | ((nw > QF_MAX_WORDS).astype(np.int64) << 1)
            | ((QF_STOP_MULT * ns < nw).astype(np.int64) << 2)
            | ((nc > QF_MAX_MEAN_WLEN * np.maximum(nw, 1)).astype(np.int64) << 3)
            | ((QF_PUNCT_MULT * np_ > nc).astype(np.int64) << 4)
        )
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "keep": pa.array((mask == 0).astype(np.int64), pa.int64()),
            "fail_mask": pa.array(mask, pa.int64()),
        })

    return (
        ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                              columns=["doc_id", "text"])
        .map_batches(_textstats, batch_format="pyarrow")
        .map_batches(_rules, batch_format="pyarrow")
    )


# ----------------------------------------------- chunking / profiling

CHUNK_TOKENS = 32


def q_doc_chunks(sf_dir: str) -> ray.data.Dataset:
    """RAG/training-style document chunker — the flat-map EXPANSION
    shape (one doc → many rows): each document's kept-token stream
    (indexing tokenizer, so chunk boundaries line up with the
    positional family) splits into fixed CHUNK_TOKENS-token chunks;
    output one row per chunk: (doc_id, chunk_idx, n_tokens,
    chunk_text). Docs with no kept tokens yield no chunks.

    Shape: pure map_batches (embarrassingly parallel, no shuffle);
    chunk assembly is vectorized — one flat token array per batch, a
    ListArray built from computed offsets, and Arrow's binary_join
    does the string work in C++. At 100 TB this runs at read
    throughput and is the stage you'd put in front of an embedding
    actor pool."""
    import pyarrow.compute as pc

    def _chunks(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        lens = np.array([len(t) for t in token_lists], np.int64)
        n_chunks = -(-lens // CHUNK_TOKENS)  # ceil; 0 for empty docs
        if int(n_chunks.sum()) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "chunk_idx": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "chunk_text": pa.array([], pa.string())})
        flat = pa.array([t for tl in token_lists for t in tl], pa.string())
        doc_start = np.concatenate(([0], np.cumsum(lens)))[:-1]
        # per-chunk start offsets: doc_start + 32*[0..n_chunks)
        local = (np.arange(int(n_chunks.sum()), dtype=np.int64)
                 - np.repeat(np.concatenate(([0], np.cumsum(n_chunks)))[:-1],
                             n_chunks))
        starts = np.repeat(doc_start, n_chunks) + local * CHUNK_TOKENS
        ends = np.minimum(starts + CHUNK_TOKENS,
                          np.repeat(doc_start + lens, n_chunks))
        offsets = np.concatenate((starts, [int(ends[-1])]))
        # chunks are contiguous per doc, so starts[i+1] == ends[i]
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), flat)
        return pa.table({
            "doc_id": pa.array(np.repeat(doc_ids, n_chunks), pa.int64()),
            "chunk_idx": pa.array(local, pa.int64()),
            "n_tokens": pa.array(ends - starts, pa.int64()),
            "chunk_text": pc.binary_join(lists, " "),
        })

    return documents_ds(sf_dir).map_batches(_chunks, batch_format="pyarrow")


PROFILE_COLUMNS = ["doc_id", "text", "lang", "source", "n_chars"]


def q_column_profile(sf_dir: str) -> pa.Table:
    """Data-validation column profile of the documents table — the
    schema-drift check every ingest pipeline runs first: per column,
    the null count and the exact distinct count.

    Shape: nulls/rows come from per-batch counter partials → one
    O(columns) groupby; distincts come from per-batch-deduped
    (col, value) rows → distributed distinct (groupby) → per-column
    count partials. Nothing materializes values on the driver; at
    100 TB you'd pre-hash wide text values into the fingerprint
    (fingerprints entry) before the distinct shuffle — the profile
    then counts distinct hashes (collision-bounded), same plumbing."""
    from ray.data.aggregate import Sum

    cols = PROFILE_COLUMNS

    def _null_partial(batch: pa.Table) -> pa.Table:
        names, nulls = [], []
        for c in cols:
            names.append(c)
            nulls.append(batch.column(c).null_count)
        return pa.table({
            "col_name": pa.array(names, pa.string()),
            "n_null": pa.array(np.array(nulls, np.int64), pa.int64()),
        })

    def _distinct_rows(batch: pa.Table) -> pa.Table:
        out_c, out_v = [], []
        for c in cols:
            arr = batch.column(c)
            vals = np.unique(np.asarray(
                [str(v) for v in arr.to_pylist() if v is not None], object))
            out_c.append(np.full(vals.size, c, object))
            out_v.append(vals)
        return pa.table({
            "col_name": pa.array(np.concatenate(out_c).tolist(), pa.string()),
            "val": pa.array(np.concatenate(out_v).tolist(), pa.string()),
        })

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=cols)
    nulls = (ds.map_batches(_null_partial, batch_format="pyarrow")
             .groupby("col_name").aggregate(Sum("n_null", alias_name="n_null"))
             ).to_pandas()
    distinct = (
        ds.map_batches(_distinct_rows, batch_format="pyarrow")
        .groupby(["col_name", "val"])
        .map_groups(
            lambda g: pa.table(
                {"col_name": g.column("col_name").slice(0, 1),
                 "n_distinct": pa.array([1], pa.int64())}),
            batch_format="pyarrow")
        .groupby("col_name")
        .aggregate(Sum("n_distinct", alias_name="n_distinct"))
    ).to_pandas()
    out = nulls.merge(distinct, on="col_name", how="outer").fillna(0)
    out = out.sort_values("col_name").reset_index(drop=True)
    return pa.table({
        "col_name": pa.array(out["col_name"].tolist(), pa.string()),
        "n_null": pa.array(out["n_null"].astype("int64"), pa.int64()),
        "n_distinct": pa.array(out["n_distinct"].astype("int64"), pa.int64()),
    })


SIMDOC_QUERY_DOCS = [3, 17, 29]
SIMDOC_TOPK = 5
SIMDOC_SCALE = np.int64(1_000_000_000)


def q_similar_docs(sf_dir: str) -> pa.Table:
    """Jaccard similarity SEARCH (query-by-document): for each query
    doc, the top-k most shingle-similar corpus docs — the
    broadcast-probe retrieval shape (the pairwise near-dup entries
    sweep all pairs; this one answers "find docs like THIS one"
    without a pair explosion).

    Shape: the Q query docs' shingle sets load once and broadcast via
    ray.put; one map_batches over the corpus shingle rows computes
    per-doc intersection partials against all Q sets simultaneously
    (searchsorted membership + one bincount per query), a groupby(doc)
    merges partials, and a per-batch partial top-k bounds what the
    driver merges to ≤ k·Q rows per block. Scores are scaled-integer
    Jaccard (inter·1e9 // union) so rank order is float-free and the
    oracle compares exactly."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Max, Sum

    qdocs = np.array(sorted(SIMDOC_QUERY_DOCS), np.int64)
    qtab = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "in", [int(d) for d in qdocs])])
    qrows = _shingle_rows(qtab, H.SHINGLE_W)
    qd = qrows.column("doc_id").to_numpy()
    qh = qrows.column("shingle_h").to_numpy()
    qsets = [np.sort(qh[qd == d]) for d in qdocs]
    q_ref = ray.put((qdocs, qsets))

    def _inter_partial(batch: pa.Table) -> pa.Table:
        qdocs_b, qsets_b = ray.get(q_ref)
        rows = _shingle_rows(batch, H.SHINGLE_W)
        d = rows.column("doc_id").to_numpy()
        h = rows.column("shingle_h").to_numpy()
        n = rows.column("doc_n").to_numpy()
        u, first = np.unique(d, return_index=True)
        inv = np.searchsorted(u, d)
        cols = {"doc_id": pa.array(u, pa.int64()),
                "size": pa.array(n[first], pa.int64())}
        for qi, qs in enumerate(qsets_b):
            if qs.size:
                pos = np.minimum(np.searchsorted(qs, h), qs.size - 1)
                hit = qs[pos] == h
            else:
                hit = np.zeros(h.size, bool)
            inter = np.bincount(inv[hit], minlength=u.size).astype(np.int64)
            cols[f"inter_{qi}"] = pa.array(inter, pa.int64())
        return pa.table(cols)

    merged = (
        documents_ds(sf_dir)
        .map_batches(_inter_partial, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Max("size", alias_name="size"),
                   *[Sum(f"inter_{qi}", alias_name=f"inter_{qi}")
                     for qi in range(len(qdocs))])
    )
    qsizes = np.array([s.size for s in qsets], np.int64)

    def _partial_topk(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        sz = batch.column("size").to_numpy().astype(np.int64)
        oq, od, oi, ou, os_ = [], [], [], [], []
        for qi, qdoc in enumerate(qdocs):
            inter = batch.column(f"inter_{qi}").to_numpy().astype(np.int64)
            mask = (inter > 0) & (d != qdoc)
            union = qsizes[qi] + sz[mask] - inter[mask]
            score = inter[mask] * SIMDOC_SCALE // union
            dd = d[mask]
            order = np.lexsort((dd, -score))[:SIMDOC_TOPK]
            oq.append(np.full(order.size, qdoc, np.int64))
            od.append(dd[order]); oi.append(inter[mask][order])
            ou.append(union[order]); os_.append(score[order])
        return pa.table({
            "query_doc": pa.array(np.concatenate(oq), pa.int64()),
            "doc_id": pa.array(np.concatenate(od), pa.int64()),
            "inter_n": pa.array(np.concatenate(oi), pa.int64()),
            "union_n": pa.array(np.concatenate(ou), pa.int64()),
            "score_scaled": pa.array(np.concatenate(os_), pa.int64()),
        })

    parts = merged.map_batches(_partial_topk, batch_format="pyarrow").to_pandas()
    outs = []
    for qdoc in qdocs:
        sub = parts[parts["query_doc"] == qdoc].sort_values(
            ["score_scaled", "doc_id"], ascending=[False, True]
        ).head(SIMDOC_TOPK).reset_index(drop=True)
        sub.insert(1, "rank", np.arange(1, len(sub) + 1, dtype=np.int64))
        outs.append(sub)
    import pandas as pd

    out = pd.concat(outs, ignore_index=True)
    return pa.table({
        "query_doc": pa.array(out["query_doc"].astype("int64"), pa.int64()),
        "rank": pa.array(out["rank"].astype("int64"), pa.int64()),
        "doc_id": pa.array(out["doc_id"].astype("int64"), pa.int64()),
        "inter_n": pa.array(out["inter_n"].astype("int64"), pa.int64()),
        "union_n": pa.array(out["union_n"].astype("int64"), pa.int64()),
        "score_scaled": pa.array(out["score_scaled"].astype("int64"),
                                 pa.int64()),
    })


# ------------------------------------- prefix-filtered (PPJoin) near-dup

PPJOIN_HOT_DF = 4         # shingles at/above this df get explicit rank
PPJOIN_HOT_MAX = 1_000_000  # broadcast bound: top-df shingles only


def q_jaccard_pairs_prefix(sf_dir: str,
                           threshold_pct: int = 20,
                           num_buckets: int | None = None
                           ) -> ray.data.Dataset | pa.Table:
    """Prefix-filtered exact Jaccard join — the ALL-PAIRS/PPJoin plan
    (Bayardo et al. WWW'07, Xiao et al. WWW'08; public algorithms):
    the same result as q_jaccard_pairs computed WITHOUT exploding
    every shared-shingle group.

    Prefix-filtering principle: order each doc's shingle set by one
    global order (numeric hash); if J(A,B) >= t then |A∩B| >=
    ceil(t·|A|), so the first |A| - ceil(t·|A|) + 1 hashes of A and
    the corresponding prefix of B must share an element. Candidate
    pairs therefore come from PREFIX rows only (plus the |B| >= t·|A|
    length filter); the quadratic explosion touches ~(1-t) of each
    set instead of all of it. The global order is the classic
    ASCENDING-df order (Bayardo et al.'s frequency ordering): one df
    aggregate finds the hot shingles (df >= PPJOIN_HOT_DF, capped at
    the PPJOIN_HOT_MAX highest-df entries so the broadcast stays
    bounded at any corpus size), each doc orders its shingles by
    (known-df, hash) — rare/unknown shingles first, hot shingles
    deterministically in the suffixes — and prefix filtering stays
    complete under ANY consistent total order, so the plan equals the
    exact oracle with strictly fewer hot-bucket candidates than the
    old hash order (~(1-t)² survival per hot shingle).

    Verification is exact and distributed: each candidate pair gets a
    packed pair id, both docs' FULL shingle sets are routed to the
    pair's hash bucket (union-tag through one groupby), and a
    per-bucket lexsort counts duplicated hashes — inter = dup count,
    union = rows - inter, no size join needed. Output schema and
    values equal q_jaccard_pairs, the typed empty table included; the
    driver hash-checks the two plans against the SAME oracle
    (plan-equivalence proof, like sessionize_sliced).

    `num_buckets` sizes every hash-bucket fold in the plan (shingle
    candidate buckets, pair-dedup buckets, pair-verify buckets).
    Default derives from the input size via tableutil.table_buckets —
    a fixed count would give each fold task ~1/64th of a corpus-sized
    row stream at 100 TB. Output is bucket-count independent
    (pytest-forced at two counts)."""
    pct = int(threshold_pct)
    if not 0 < pct <= 100:
        raise ValueError("threshold_pct must be in (0, 100]")
    if num_buckets is None:
        num_buckets = table_buckets(sf_dir, "documents")
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")

    # global ascending-df order: ONE df fold over the distinct
    # (doc, shingle) rows; only the hot tail (df >= PPJOIN_HOT_DF,
    # top PPJOIN_HOT_MAX by df) is broadcast — everything else ranks
    # as df-unknown (0) and orders by hash, a consistent total order.
    # The fold is the int-bucket + np.unique pattern (NOT the sort
    # aggregate: measured 1.9 s -> 0.9 s at sf0.1), and the df >= floor
    # filter runs INSIDE the fold so only hot rows reach the driver
    def _hot_fold(group: pa.Table) -> pa.Table:
        u, c = np.unique(group.column("shingle_h").to_numpy()
                         .astype(np.int64), return_counts=True)
        hotm = c >= PPJOIN_HOT_DF
        return pa.table({"shingle_h": pa.array(u[hotm], pa.int64()),
                         "df": pa.array(c[hotm].astype(np.int64),
                                        pa.int64())})

    from candidategeneration_ray.functions.exchange import fold_by_bucket

    # the (doc, shingle) emission is consumed THREE times (df pass,
    # prefix pass, full-set verify routing): tokenize + shingle ONCE
    # into the object store and derive all three from the rows (at
    # 100 TB this is the shingle family you would persist anyway —
    # Ray spills the materialized blocks; re-scanning the corpus
    # three times was ~0.7 s/pass of pure re-tokenize at sf0.1)
    shingles_full = (documents_ds(sf_dir)
                     .map_batches(lambda bt: _shingle_rows(bt,
                                                           H.SHINGLE_W),
                                  batch_format="pyarrow")
                     .materialize())

    # reindex: no hot shingle at all can leave only zero-column blocks
    hot_pdf = fold_by_bucket(
        shingles_full
        .map_batches(lambda b: b.append_column(
            "hbkt", pa.array((b.column("shingle_h").to_numpy()
                              .astype(np.uint64)
                              % np.uint64(num_buckets))
                             .astype(np.int32))),
            batch_format="pyarrow"),
        "hbkt", _hot_fold, num_buckets,
        pa.table({"shingle_h": pa.array([], pa.int64()),
                  "df": pa.array([], pa.int64())})).to_pandas() \
        .reindex(columns=["shingle_h", "df"])
    hot_pdf = hot_pdf.nlargest(PPJOIN_HOT_MAX, "df", keep="first") \
        if len(hot_pdf) > PPJOIN_HOT_MAX else hot_pdf
    # keep the hot keys uint64 END-TO-END (bit-preserving view, sorted
    # in uint64 order): h64_many emits uint64, and a mixed
    # int64/uint64 searchsorted silently promotes both sides to
    # float64 — any hash >= 2^63 would never match its broadcast df
    hk = hot_pdf["shingle_h"].to_numpy(np.int64).view(np.uint64)
    hd = hot_pdf["df"].to_numpy(np.int64)
    horder = np.argsort(hk, kind="stable")
    hot_ref = ray.put((np.ascontiguousarray(hk[horder]), hd[horder]))

    def _prefix_rows(batch: pa.Table) -> pa.Table:
        """Batch-global prefix emission FROM the materialized shingle
        rows (no re-tokenize): ONE df lookup, ONE lexsort over
        (doc, df, hash), then segment-boundary arithmetic selects each
        doc's prefix — no per-doc Python/numpy loop (the emitter
        pattern, stages/postings.py:36-68). The prefix length comes
        from the carried set size `doc_n`, not from the segment: Ray
        may slice one doc's rows into several blocks, and each part
        then keeps its lowest prefix-length rows — every true-prefix
        row among them, so the candidates are a superset and
        verification keeps the result exact."""
        hot_keys, hot_df = ray.get(hot_ref)   # plasma, zero-copy
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        if d.size == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "shingle_h": pa.array([], pa.int64()),
                             "doc_n": pa.array([], pa.int64())})
        h = np.ascontiguousarray(
            batch.column("shingle_h").to_numpy()).view(np.uint64)
        new_doc = np.concatenate(([True], d[1:] != d[:-1]))
        starts = np.nonzero(new_doc)[0]
        sizes = np.diff(np.concatenate((starts, [d.size])))
        di = np.repeat(np.arange(starts.size, dtype=np.int64), sizes)
        doc_ids = d[starts]
        if hot_keys.size:
            idx = np.minimum(np.searchsorted(hot_keys, h),
                             hot_keys.size - 1)
            dfv = np.where(hot_keys[idx] == h, hot_df[idx], 0)
        else:
            dfv = np.zeros(h.size, np.int64)
        order = np.lexsort((h, dfv, di))   # per doc: df asc, hash asc
        di2, h2 = di[order], h[order]
        pos = np.arange(di.size, dtype=np.int64) - np.repeat(starts,
                                                             sizes)
        # constant per doc segment, so the same in sorted order
        n = batch.column("doc_n").to_numpy().astype(np.int64)
        p = np.minimum(n, np.maximum(1, n - (pct * n + 99) // 100 + 1))
        keep = pos < p
        return pa.table({
            "doc_id": pa.array(doc_ids[di2[keep]], pa.int64()),
            "shingle_h": pa.array(h2[keep].astype(np.int64), pa.int64()),
            "doc_n": pa.array(n[keep], pa.int64()),
        })

    nsb = num_buckets
    npb = num_buckets

    def _bucketize(batch: pa.Table) -> pa.Table:
        h = batch.column("shingle_h").to_numpy()
        return batch.append_column(
            "sbucket", pa.array((h % nsb).astype(np.int32)))

    def _cand_pairs(group: pa.Table) -> pa.Table:
        docs = group.column("doc_id").to_numpy().astype(np.int64)
        a, b = _explode_pairs(
            group.column("shingle_h").to_numpy().astype(np.int64), docs)
        if a.size == 0:
            return pa.table({"doc_a": pa.array([], pa.int64()),
                             "doc_b": pa.array([], pa.int64()),
                             "size_a": pa.array([], pa.int64()),
                             "size_b": pa.array([], pa.int64())})
        # bucket-local distinct + sizes + the |B| >= t|A| length filter
        key = pack_pair(a, b)
        _, first = np.unique(key, return_index=True)
        a, b = a[first], b[first]
        uniq_docs, fidx = np.unique(docs, return_index=True)
        doc_n = group.column("doc_n").to_numpy().astype(np.int64)[fidx]
        size_a = doc_n[np.searchsorted(uniq_docs, a)]
        size_b = doc_n[np.searchsorted(uniq_docs, b)]
        keep = (100 * size_b >= pct * size_a) & (100 * size_a >= pct * size_b)
        return pa.table({
            "doc_a": pa.array(a[keep], pa.int64()),
            "doc_b": pa.array(b[keep], pa.int64()),
            "size_a": pa.array(size_a[keep], pa.int64()),
            "size_b": pa.array(size_b[keep], pa.int64()),
        })

    def _cbucket(batch: pa.Table) -> pa.Table:
        pid = pack_pair(batch.column("doc_a").to_numpy(),
                        batch.column("doc_b").to_numpy())
        return batch.append_column("cbucket", pa.array(bucket_of(pid, npb)))

    def _cand_dedup(group: pa.Table) -> pa.Table:
        """Bucket-local pair dedup (sizes are per-doc constants, so
        first-occurrence == the old Max aggregate) — int-bucket
        map_groups replaces the two-column sort aggregate."""
        a = group.column("doc_a").to_numpy().astype(np.int64)
        b = group.column("doc_b").to_numpy().astype(np.int64)
        sa = group.column("size_a").to_numpy().astype(np.int64)
        sb = group.column("size_b").to_numpy().astype(np.int64)
        pid = pack_pair(a, b)
        _, first = np.unique(pid, return_index=True)
        return pa.table({
            "doc_a": pa.array(a[first], pa.int64()),
            "doc_b": pa.array(b[first], pa.int64()),
            "size_a": pa.array(sa[first], pa.int64()),
            "size_b": pa.array(sb[first], pa.int64()),
        })

    _PAIR4 = pa.table({"doc_a": pa.array([], pa.int64()),
                       "doc_b": pa.array([], pa.int64()),
                       "size_a": pa.array([], pa.int64()),
                       "size_b": pa.array([], pa.int64())})
    # every fold below rides the task-routed exchange — this plan runs
    # FOUR bucket folds and Ray's sort machinery dominated its wall
    # (6.8 s of the 8.7 s execute at sf0.1, ~0.5 cpu-s of sort work)
    cands = fold_by_bucket(
        fold_by_bucket(
            shingles_full
            .map_batches(_prefix_rows, batch_format="pyarrow")
            .map_batches(_bucketize, batch_format="pyarrow"),
            "sbucket", _cand_pairs, nsb, _PAIR4)
        .map_batches(_cbucket, batch_format="pyarrow"),
        "cbucket", _cand_dedup, npb, _PAIR4)

    def _pid_rows(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy().astype(np.int64)
        b = batch.column("doc_b").to_numpy().astype(np.int64)
        pid = pack_pair(a, b)
        return pa.table({
            "doc": pa.array(np.concatenate((a, b)), pa.int64()),
            "pid": pa.array(np.concatenate((pid, pid)), pa.int64()),
            "h": pa.array(np.zeros(2 * a.size, np.int64), pa.int64()),
            "is_set": pa.array(np.zeros(2 * a.size, bool), pa.bool_()),
        })

    def _set_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc": batch.column("doc_id"),
            "pid": pa.array(
                np.full(batch.num_rows, -1, np.int64), pa.int64()),
            "h": batch.column("shingle_h"),
            "is_set": pa.array(np.ones(batch.num_rows, bool), pa.bool_()),
        })

    def _doc_bucket(batch: pa.Table) -> pa.Table:
        d = batch.column("doc").to_numpy()
        return batch.append_column(
            "dbucket", pa.array(bucket_of(d, npb)))

    def _gather(group: pa.Table) -> pa.Table:
        """Route each doc's full set to every pair it belongs to."""
        doc = group.column("doc").to_numpy().astype(np.int64)
        pid = group.column("pid").to_numpy().astype(np.int64)
        h = group.column("h").to_numpy().astype(np.int64)
        is_set = group.column("is_set").to_numpy()
        sd, sh = doc[is_set], h[is_set]
        order = np.argsort(sd, kind="stable")
        sd, sh = sd[order], sh[order]
        md, mp = doc[~is_set], pid[~is_set]
        lo = np.searchsorted(sd, md, side="left")
        hi = np.searchsorted(sd, md, side="right")
        cnt = hi - lo
        if int(cnt.sum()) == 0:
            return pa.table({"pid": pa.array([], pa.int64()),
                             "pbucket": pa.array([], pa.int32()),
                             "h": pa.array([], pa.int64())})
        idx = np.repeat(lo, cnt) + (
            np.arange(int(cnt.sum()), dtype=np.int64)
            - np.repeat(np.concatenate(([0], np.cumsum(cnt)))[:-1], cnt))
        out_pid = np.repeat(mp, cnt)
        return pa.table({
            "pid": pa.array(out_pid, pa.int64()),
            "pbucket": pa.array(
                (out_pid % np.int64(npb)).astype(np.int32)),
            "h": pa.array(sh[idx], pa.int64()),
        })

    def _verify(group: pa.Table) -> pa.Table:
        pid = group.column("pid").to_numpy().astype(np.int64)
        h = group.column("h").to_numpy().astype(np.int64)
        order = np.lexsort((h, pid))
        pid, h = pid[order], h[order]
        dup = np.concatenate(
            ([False], (pid[1:] == pid[:-1]) & (h[1:] == h[:-1])))
        upid, tot = np.unique(pid, return_counts=True)
        inter = np.bincount(np.searchsorted(upid, pid[dup]),
                            minlength=upid.size).astype(np.int64)
        union = tot.astype(np.int64) - inter
        keep = inter * 100 >= pct * union
        upid, inter, union = upid[keep], inter[keep], union[keep]
        return pa.table({
            "doc_a": pa.array(upid >> np.int64(32), pa.int64()),
            "doc_b": pa.array(upid & np.int64(0xFFFFFFFF), pa.int64()),
            "inter_n": pa.array(inter, pa.int64()),
            "union_n": pa.array(union, pa.int64()),
        })

    routed = fold_by_bucket(
        cands.map_batches(_pid_rows, batch_format="pyarrow")
        .union(shingles_full.map_batches(_set_rows, batch_format="pyarrow"))
        .map_batches(_doc_bucket, batch_format="pyarrow"),
        "dbucket", _gather, npb,
        pa.table({"pid": pa.array([], pa.int64()),
                  "pbucket": pa.array([], pa.int32()),
                  "h": pa.array([], pa.int64())}))
    return rows_or_empty(fold_by_bucket(routed, "pbucket", _verify, npb,
                                        _JACCARD_EMPTY), _JACCARD_EMPTY)


def q_cluster_representatives(sf_dir: str) -> ray.data.Dataset:
    """Keep-best dedup policy (the FineWeb-style representative
    selection): for every MinHash-LSH duplicate cluster, keep the doc
    with the most characters (ties → min doc_id) — q_dup_clusters
    picks min-id representatives; real pipelines keep the best
    version, which needs a quality attribute join.

    Shape: the cluster labels (edge-induced nodes only, O(dups) rows)
    bucket-join against the column-pruned documents read for n_chars
    (union-tag, one groupby), then a cluster-hash bucket groupby does
    one lexsort argmax per cluster. Output (cluster, rep_doc,
    rep_n_chars, n_docs)."""
    from ray.data.aggregate import Sum

    clusters = q_dup_clusters(sf_dir)
    nb = table_buckets(sf_dir, "documents")

    def _cluster_rows(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(d % nb, pa.int64()),
            "key": pa.array(d, pa.int64()),
            "cluster": pa.array(
                batch.column("cluster").to_numpy().astype(np.int64),
                pa.int64()),
            "n_chars": pa.array(np.full(d.size, -1, np.int64), pa.int64()),
        })

    def _doc_rows(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(d % nb, pa.int64()),
            "key": pa.array(d, pa.int64()),
            "cluster": pa.array(np.full(d.size, -1, np.int64), pa.int64()),
            "n_chars": pa.array(
                batch.column("n_chars").to_numpy().astype(np.int64),
                pa.int64()),
        })

    def _attach(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy().astype(np.int64)
        cl = group.column("cluster").to_numpy().astype(np.int64)
        nc = group.column("n_chars").to_numpy().astype(np.int64)
        build = cl < 0           # document rows carry n_chars
        bk, bn = key[build], nc[build]
        order = np.argsort(bk, kind="stable")
        bk, bn = bk[order], bn[order]
        pk, pc_ = key[~build], cl[~build]
        idx = np.searchsorted(bk, pk)      # every cluster doc exists
        return pa.table({
            "cbucket": pa.array((pc_ % nb).astype(np.int32)),
            "cluster": pa.array(pc_, pa.int64()),
            "doc_id": pa.array(pk, pa.int64()),
            "n_chars": pa.array(bn[idx], pa.int64()),
        })

    def _argmax(group: pa.Table) -> pa.Table:
        cl = group.column("cluster").to_numpy().astype(np.int64)
        d = group.column("doc_id").to_numpy().astype(np.int64)
        nc = group.column("n_chars").to_numpy().astype(np.int64)
        order = np.lexsort((d, -nc, cl))
        cl, d, nc = cl[order], d[order], nc[order]
        starts = run_starts(cl)
        n_docs = np.diff(np.concatenate((starts, [cl.size])))
        return pa.table({
            "cluster": pa.array(cl[starts], pa.int64()),
            "rep_doc": pa.array(d[starts], pa.int64()),
            "rep_n_chars": pa.array(nc[starts], pa.int64()),
            "n_docs": pa.array(n_docs.astype(np.int64), pa.int64()),
        })

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "n_chars"],
    ).map_batches(_doc_rows, batch_format="pyarrow")
    return (
        clusters.map_batches(_cluster_rows, batch_format="pyarrow")
        .union(docs)
        .groupby("bkt").map_groups(_attach, batch_format="pyarrow")
        .groupby("cbucket").map_groups(_argmax, batch_format="pyarrow")
        .select_columns(["cluster", "rep_doc", "rep_n_chars", "n_docs"])
    )


TE_M = 20   # m-estimate smoothing strength (prior pseudo-counts)


def q_target_encoding(sf_dir: str, m: int = TE_M) -> pa.Table:
    """m-estimate target encoding of the `source` categorical against
    the binary target y = (lang == 'en') (Micci-Barreca SIGKDD
    Explorations'01 — THE high-cardinality categorical encoder;
    rare categories shrink toward the global prior instead of
    memorizing noise):

        enc(source) = (Σy + m·prior) / (n + m),  prior = SY/NT

    kept exact by cross-multiplying the prior through:
    enc_num = Σy·NT + m·SY, enc_den = (n + m)·NT — the no-float-
    division house rule, so the encoder table hash-verifies. Output
    one row per source: (source, n, sum_y, enc_num, enc_den).

    Shape: one compressed (source, n, Σy) partial per batch → tiny
    groupby → O(sources) driver finalize with the global prior."""
    from ray.data.aggregate import Sum

    def _part(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist(), object)
        y = (np.asarray(batch.column("lang").to_pylist(), object)
             == "en").astype(np.int64)
        u, n, sy = group_sum(src, np.ones(src.size, np.int64), y)
        return pa.table({
            "source": pa.array(u.tolist(), pa.string()),
            "n": pa.array(n, pa.int64()),
            "sum_y": pa.array(sy, pa.int64()),
        })

    rows = (ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["source", "lang"])
            .map_batches(_part, batch_format="pyarrow")
            .groupby("source")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_y", alias_name="sum_y"))
            .take_all())                       # O(sources)
    nt = sum(int(r["n"]) for r in rows)
    sy_tot = sum(int(r["sum_y"]) for r in rows)
    rows.sort(key=lambda r: r["source"])
    return pa.table({
        "source": pa.array([r["source"] for r in rows], pa.string()),
        "n": pa.array([int(r["n"]) for r in rows], pa.int64()),
        "sum_y": pa.array([int(r["sum_y"]) for r in rows], pa.int64()),
        "enc_num": pa.array(
            [int(r["sum_y"]) * nt + m * sy_tot for r in rows], pa.int64()),
        "enc_den": pa.array(
            [(int(r["n"]) + m) * nt for r in rows], pa.int64()),
    })


def q_source_moments(sf_dir: str) -> ray.data.Dataset:
    """Per-source SUFFICIENT STATISTICS for (n_chars, kept-token
    count): n, Σx, Σy, Σx², Σy², Σxy — the mergeable-moment pattern
    every distributed correlation / variance / linear-regression
    fit reduces to (ship integer moments, finalize float math on the
    O(groups) result; the engine ships moments so the comparison is
    exact). int64 bound: x,y < 10⁴ per doc keeps Σxy < 2^63 up to
    ~10¹¹ docs per source; past that the partials would split into
    per-shard moments, documented not needed here.

    Shape: tokenize + one numpy pass per batch → one compressed row
    per (batch, source) → tiny groupby sum."""
    from ray.data.aggregate import Sum

    def _moments(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        y = np.array([len(t) for t in token_lists], np.int64)
        x = batch.column("n_chars").to_numpy().astype(np.int64)
        src = np.asarray(batch.column("source").to_pylist(), object)
        u, *s = group_sum(src, np.ones(x.size, np.int64), x, y, x * x,
                          y * y, x * y)
        return pa.table({"source": pa.array(u.tolist(), pa.string()), **{
            c: pa.array(v, pa.int64()) for c, v in zip(
                ("n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy"), s)}})

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["source", "text", "n_chars"])
    return (ds.map_batches(_moments, batch_format="pyarrow")
            .groupby("source")
            .aggregate(*[Sum(c, alias_name=c)
                         for c in ["n", "sum_x", "sum_y", "sum_xx",
                                   "sum_yy", "sum_xy"]]))


TOP_PAIRS_K = 20
JACC_SCORE_SCALE = np.int64(1_000_000)


def q_top_similar_pairs(sf_dir: str, k: int = TOP_PAIRS_K,
                        max_shingle_df: int | None = None
                        ) -> ray.data.Dataset:
    """Global top-k most-similar document pairs by Jaccard — the
    THRESHOLD-LESS similarity join ("show me the worst near-dups"
    triage view; jaccard_pairs needs a cutoff picked in advance). The
    score is the scaled integer (inter * 1e6) // union with
    (doc_a, doc_b) tie-break, so ranking is deterministic and the
    oracle hash-matches including boundary ties.

    Shape: reuses _shingle_pair_overlaps (bucketed pair intersection
    counts); each batch then keeps its LOCAL top-k (one lexsort) and a
    single constant-key merge ranks the <= k x n_batches survivors —
    the partial-top-k pattern every ANN entry here uses, applied to a
    pair stream.

    Skew note (same polarity warning as jaccard_pairs): the default
    max_shingle_df=None keeps the pair expansion exact for the oracle,
    which leaves the O(df²) hot-shingle explosion reachable — at scale
    pass a finite cap (hot shingles are stop-phrases that cannot be
    top-similarity evidence anyway)."""
    def _score(batch: pa.Table):
        da = batch.column("doc_a").to_numpy().astype(np.int64)
        db = batch.column("doc_b").to_numpy().astype(np.int64)
        inter = batch.column("inter_n").to_numpy().astype(np.int64)
        union = (batch.column("size_a").to_numpy().astype(np.int64)
                 + batch.column("size_b").to_numpy().astype(np.int64)
                 - inter)
        score = inter * JACC_SCORE_SCALE // union
        order = np.lexsort((db, da, -score))[:k]
        return da[order], db[order], inter[order], union[order], \
            score[order]

    def _partial(batch: pa.Table) -> pa.Table:
        da, db, inter, union, score = _score(batch)
        return pa.table({
            "doc_a": pa.array(da, pa.int64()),
            "doc_b": pa.array(db, pa.int64()),
            "inter_n": pa.array(inter, pa.int64()),
            "union_n": pa.array(union, pa.int64()),
            "score_q": pa.array(score, pa.int64()),
            "g": pa.array(np.zeros(da.size, np.int64), pa.int64()),
        })

    def _final(group: pa.Table) -> pa.Table:
        da = group.column("doc_a").to_numpy().astype(np.int64)
        db = group.column("doc_b").to_numpy().astype(np.int64)
        inter = group.column("inter_n").to_numpy().astype(np.int64)
        union = group.column("union_n").to_numpy().astype(np.int64)
        score = group.column("score_q").to_numpy().astype(np.int64)
        order = np.lexsort((db, da, -score))[:k]
        return pa.table({
            "rank": pa.array(np.arange(1, order.size + 1, dtype=np.int64),
                             pa.int64()),
            "doc_a": pa.array(da[order], pa.int64()),
            "doc_b": pa.array(db[order], pa.int64()),
            "inter_n": pa.array(inter[order], pa.int64()),
            "union_n": pa.array(union[order], pa.int64()),
            "score_q": pa.array(score[order], pa.int64()),
        })

    return (
        _shingle_pair_overlaps(sf_dir, max_shingle_df)
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("g").map_groups(_final, batch_format="pyarrow")
    )


DIGEST_MOD = np.int64(1) << 40


def q_corpus_digest(sf_dir: str) -> ray.data.Dataset:
    """Order-insensitive corpus digest — the data-versioning primitive
    (detect ANY changed/added/dropped row between two copies of a
    table without comparing rows): per (source, lang) stratum, the row
    count and the SUM of per-row hashes (h64 of the canonical
    'doc_id|n_chars' row string, reduced mod 2^40). The int64 stratum
    sum is exact to 2^23 (~8.4M) rows per stratum — plenty at bench
    scale; past that the honest fix is the two-level tree digest
    (digest per partition, then a digest of digests — each level stays
    under the bound), NOT a wider modulus. Addition commutes, so the
    digest is partitioning/order independent and incrementally
    maintainable (a delta's digest just adds on). Sum (not XOR) keeps
    duplicate rows visible.

    Shape: embarrassingly parallel — per-batch partials, one
    O(strata) groupby. Per-row md5 is the irreducible cost (same as
    fingerprints); strings assemble in Arrow C++ first."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        rows = pc.binary_join_element_wise(
            pc.cast(batch.column("doc_id"), pa.string()),
            pc.cast(batch.column("n_chars"), pa.string()), "|")
        h = (H.h64_many(rows.to_pylist()).astype(np.int64)
             & np.int64((1 << 63) - 1)) % DIGEST_MOD
        src = batch.column("source").to_numpy(zero_copy_only=False)
        lang = batch.column("lang").to_numpy(zero_copy_only=False)
        key = np.asarray([a + "\x00" + b for a, b in zip(src, lang)],
                         object)
        u, n, s = group_sum(key, np.ones(key.size, np.int64), h)
        return pa.table({
            "source": pa.array([k.split("\x00")[0] for k in u],
                               pa.string()),
            "lang": pa.array([k.split("\x00")[1] for k in u],
                             pa.string()),
            "n_rows": pa.array(n, pa.int64()),
            "digest": pa.array(s, pa.int64()),
        })

    return (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "n_chars", "source", "lang"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["source", "lang"])
        .aggregate(Sum("n_rows", alias_name="n_rows"),
                   Sum("digest", alias_name="digest"))
    )


def q_source_regression(sf_dir: str) -> ray.data.Dataset:
    """Grouped closed-form OLS fit (tokens-per-chars slope per source)
    — distributed ML as a FINALIZER over the mergeable moments
    (q_source_moments): slope = cov/var and intercept arrive as EXACT
    integer numerator/denominator pairs

        slope_num = n·Σxy − Σx·Σy      slope_den = n·Σx² − (Σx)²
        icept_num = Σy·slope_den − slope_num·Σx
        icept_den = n·slope_den

    so the fit itself is hash-verified (the float division is the
    caller's one-line finalizer). Shows the sufficient-statistics
    pattern every distributed closed-form estimator reduces to —
    nothing beyond the moments ever crosses the wire. int64 bound:
    x,y < 10⁴ per doc keeps n·Σxy < 2^63 to ~10⁹ docs/source; past
    that, moments recenter around a pivot (documented)."""
    def _fit(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy().astype(np.int64)
        sx = batch.column("sum_x").to_numpy().astype(np.int64)
        sy = batch.column("sum_y").to_numpy().astype(np.int64)
        sxx = batch.column("sum_xx").to_numpy().astype(np.int64)
        sxy = batch.column("sum_xy").to_numpy().astype(np.int64)
        num = n * sxy - sx * sy
        den = n * sxx - sx * sx
        return pa.table({
            "source": batch.column("source"),
            "n": pa.array(n, pa.int64()),
            "slope_num": pa.array(num, pa.int64()),
            "slope_den": pa.array(den, pa.int64()),
            "icept_num": pa.array(sy * den - num * sx, pa.int64()),
            "icept_den": pa.array(n * den, pa.int64()),
        })

    return q_source_moments(sf_dir).map_batches(
        _fit, batch_format="pyarrow")


# --- snapshot diff (session 7) ----------------------------------------------

SNAP_ADD_BASE = 10_000_000   # demo id offset for the derived snapshot's
                             # added rows (a real diff takes two dirs)


def snapshot_diff(ds_a: ray.data.Dataset, ds_b: ray.data.Dataset,
                  n_buckets: int = 64) -> ray.data.Dataset:
    """Generic two-snapshot table diff by primary key — the
    data-versioning operator corpus_digest only detects: which doc_ids
    were ADDED, REMOVED, or CHANGED between snapshot A and snapshot B
    (unchanged rows are never emitted). Both inputs need (doc_id,
    text) columns.

    Shape: each side compresses to (doc_id, row_hash) per batch —
    hashes, never text, enter the exchange — then ONE union-tag
    bucketed shuffle on doc_id hash classifies each id with two sorted
    membership probes per bucket. Output is O(changes), so a 100 TB
    diff with 0.1% churn shuffles 64-bit pairs and emits a trickle."""

    def _hash_side(side: int):
        def _h(batch: pa.Table) -> pa.Table:
            doc = batch.column("doc_id").to_numpy().astype(np.int64)
            import pyarrow.compute as pc
            rows = pc.binary_join_element_wise(
                pc.cast(batch.column("doc_id"), pa.string()),
                batch.column("text"), "|")
            h = (H.h64_many(rows.to_pylist()).astype(np.int64)
                 & np.int64((1 << 63) - 1))
            return pa.table({
                "bkt": pa.array(doc % n_buckets, pa.int64()),
                "doc_id": pa.array(doc, pa.int64()),
                "h": pa.array(h, pa.int64()),
                "side": pa.array(np.full(doc.size, side, np.int64),
                                 pa.int64()),
            })
        return _h

    def _classify(group: pa.Table) -> pa.Table:
        doc = group.column("doc_id").to_numpy().astype(np.int64)
        h = group.column("h").to_numpy().astype(np.int64)
        side = group.column("side").to_numpy().astype(np.int64)
        a, b = side == 0, side == 1
        da, ha = doc[a], h[a]
        oa = np.argsort(da)
        da, ha = da[oa], ha[oa]
        db, hb = doc[b], h[b]
        ob = np.argsort(db)
        db, hb = db[ob], hb[ob]
        # A-side probe into B
        ia = np.minimum(np.searchsorted(db, da), max(db.size - 1, 0))
        in_b = (db[ia] == da) if db.size else np.zeros(da.size, bool)
        # B-side probe into A
        ib = np.minimum(np.searchsorted(da, db), max(da.size - 1, 0))
        in_a = (da[ib] == db) if da.size else np.zeros(db.size, bool)
        removed = da[~in_b]
        added = db[~in_a]
        changed = da[in_b & (hb[ia] != ha)] if db.size else da[:0]
        return pa.table({
            "doc_id": pa.array(
                np.concatenate((removed, added, changed)), pa.int64()),
            "status": pa.array(
                ["removed"] * removed.size + ["added"] * added.size
                + ["changed"] * changed.size, pa.string()),
        })

    return (
        ds_a.map_batches(_hash_side(0), batch_format="pyarrow")
        .union(ds_b.map_batches(_hash_side(1), batch_format="pyarrow"))
        .groupby("bkt")
        .map_groups(_classify, batch_format="pyarrow")
    )


def q_snapshot_diff(sf_dir: str) -> ray.data.Dataset:
    """snapshot_diff driven by a deterministically DERIVED second
    snapshot (the sandbox has only one corpus version): version B drops
    doc_id % 10 == 0 (removed), appends ' v2' to text where
    doc_id % 7 == 0 (changed), and injects a new row at
    SNAP_ADD_BASE + doc_id for doc_id % 13 == 0 (added). The oracle
    re-derives B relationally and FULL-OUTER-joins on text equality,
    so the hash-diff plan is value-verified against the direct
    comparison."""
    import pyarrow.compute as pc

    a = documents_ds(sf_dir).select_columns(["doc_id", "text"])

    def _derive_b(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_id").to_numpy().astype(np.int64)
        text = np.asarray(batch.column("text").to_pylist(), object)
        keep = doc % 10 != 0
        kd, kt = doc[keep], text[keep].copy()
        bump = kd % 7 == 0
        kt[bump] = [t + " v2" for t in kt[bump]]
        newd = doc[doc % 13 == 0]
        return pa.table({
            "doc_id": pa.array(
                np.concatenate((kd, SNAP_ADD_BASE + newd)), pa.int64()),
            "text": pa.array(
                kt.tolist()
                + [f"new version row {d}" for d in newd], pa.string()),
        })

    b = documents_ds(sf_dir).select_columns(["doc_id", "text"]) \
        .map_batches(_derive_b, batch_format="pyarrow")
    return snapshot_diff(a, b)


# ----------------------------- fuzzy string join (edit distance <= k)

ED_K = 1                  # edit-distance threshold
ED_Q = 2                  # q-gram width for the candidate filter


def _ed_many(a_list: list[str], b_list: list[str]) -> np.ndarray:
    """Exact Levenshtein distance for MANY string pairs at once —
    Myers' bit-parallel algorithm (Myers, JACM 1999; public algorithm)
    vectorized across pairs: every pair advances one text position per
    iteration via uint64 word ops, so the loop runs max(len(b)) times
    over numpy arrays instead of once per pair. Patterns must be <= 64
    single-byte (ASCII) chars — asserted, since the SQL oracle's
    levenshtein() counts characters."""
    n = len(a_list)
    if n == 0:
        return np.empty(0, np.int64)
    la = np.fromiter((len(s) for s in a_list), np.int64, n)
    lb = np.fromiter((len(s) for s in b_list), np.int64, n)
    if int(la.max(initial=0)) > 64:
        raise ValueError("ed verify: pattern strings must be <= 64 chars")
    abytes = "".join(a_list).encode()
    bbytes = "".join(b_list).encode()
    if len(abytes) != int(la.sum()) or len(bbytes) != int(lb.sum()):
        raise ValueError("ed verify requires single-byte (ASCII) strings")
    acode = np.frombuffer(abytes, np.uint8).astype(np.int64)
    bcode = np.frombuffer(bbytes, np.uint8).astype(np.int64)
    rows = np.arange(n)
    apair = np.repeat(rows, la)
    apos = np.arange(acode.size) - np.repeat(
        np.concatenate(([0], np.cumsum(la)[:-1])), la)
    peq = np.zeros((n, 128), np.uint64)
    np.bitwise_or.at(peq, (apair, acode),
                     np.uint64(1) << apos.astype(np.uint64))
    maxlb = int(lb.max(initial=0))
    bmat = np.zeros((n, maxlb), np.int64)
    bpair = np.repeat(rows, lb)
    bpos = np.arange(bcode.size) - np.repeat(
        np.concatenate(([0], np.cumsum(lb)[:-1])), lb)
    bmat[bpair, bpos] = bcode

    ones = np.full(n, np.uint64(0xFFFFFFFFFFFFFFFF))
    sel = la < 64
    ones[sel] = (np.uint64(1) << la[sel].astype(np.uint64)) - np.uint64(1)
    mask = np.zeros(n, np.uint64)
    pos = la > 0
    mask[pos] = np.uint64(1) << (la[pos] - 1).astype(np.uint64)
    pv = ones.copy()
    mv = np.zeros(n, np.uint64)
    score = la.copy()
    one = np.uint64(1)
    for j in range(maxlb):
        act = j < lb
        eq = np.where(act, peq[rows, bmat[:, j]], np.uint64(0))
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        score += (act & ((ph & mask) != 0)).astype(np.int64)
        score -= (act & ((mh & mask) != 0)).astype(np.int64)
        ph = (ph << one) | one
        mh = mh << one
        pv = np.where(act, mh | ~(xv | ph), pv)
        mv = np.where(act, ph & xv, mv)
    return np.where(la == 0, lb, score)


def _positional_grams(names: list[str], q: int, short_len: int):
    """Flat positional q-gram emission for the names LONGER than
    `short_len` — batch-global (the emitter pattern): one UTF-32
    decode of the joined blob (codepoint == array slot, any script),
    q shifted slices build every window at once, ONE stable lexsort
    assigns occurrence indexes. No per-name Python loop.

    Returns (kept, name_idx, gramkey): `kept` = indexes of the long
    names within `names`, `name_idx` = per-gram index into `kept`,
    `gramkey` = packed (gram, occurrence) int64 — codepoints shifted
    into the high bits, the positional occurrence index in the low 16
    (ordering by gramkey == ordering by (gram, occ))."""
    lens = np.fromiter((len(s) for s in names), np.int64, len(names))
    kept = np.nonzero(lens > short_len)[0]
    klens = lens[kept]
    if kept.size == 0:
        return kept, np.zeros(0, np.int64), np.zeros(0, np.int64)
    blob = np.frombuffer(
        "".join([names[i] for i in kept]).encode("utf-32-le"),
        np.uint32).astype(np.int64)
    shift = max(7, int(blob.max()).bit_length())
    if q * shift + 16 > 63:
        raise ValueError("q-gram packing overflows int64 for this "
                         "alphabet; shrink q or widen the key")
    counts = klens - q + 1          # windows per kept name (all >= 1)
    nidx = np.repeat(np.arange(kept.size, dtype=np.int64), klens)
    w = counts.sum()
    # window starts: all blob positions whose q-window stays in-name
    starts_b = np.concatenate(([0], np.cumsum(klens)))[:-1]
    win = np.repeat(starts_b, counts) + (
        np.arange(int(w), dtype=np.int64)
        - np.repeat(np.concatenate(([0], np.cumsum(counts)))[:-1],
                    counts))
    gram = np.zeros(int(w), np.int64)
    for j in range(q):              # q is a small constant
        gram = (gram << np.int64(shift)) | blob[win + j]
    gidx = nidx[win]
    # occurrence index: stable lexsort keeps positional order within
    # each (name, gram) group; occ = rank within the group
    order = np.lexsort((gram, gidx))
    gs, ns = gram[order], gidx[order]
    grp = np.concatenate(
        ([True], (ns[1:] != ns[:-1]) | (gs[1:] != gs[:-1])))
    seg = np.nonzero(grp)[0]
    occ = np.arange(gs.size, dtype=np.int64) - np.repeat(
        seg, np.diff(np.concatenate((seg, [gs.size]))))
    if int(occ.max(initial=0)) >= 1 << 16:
        raise ValueError("names with >= 2^16 repeats of one q-gram "
                         "overflow the packed occurrence index")
    gramkey = (gs << np.int64(16)) | occ
    return kept, ns, gramkey


def q_fuzzy_name_pairs(sf_dir: str, k: int = ED_K,
                       q: int = ED_Q,
                       num_buckets: int | None = None
                       ) -> ray.data.Dataset:
    """Fuzzy string self-join: all part-name pairs within edit distance
    `k` (typo-level near-duplicate detection — the string-similarity
    join of Gravano et al. VLDB'01, with prefix filtering per Xiao et
    al. WWW'08; public algorithms).

    Plan (three compressed shuffles, no n² stage):
      1. positional q-gram df: each name's (gram, occurrence-index)
         multiset rows -> one tiny groupby (O(alphabet^q * occ) rows)
         -> broadcast rank dictionary ordered by (df asc, gram, occ)
         so HOT grams deterministically sink to suffixes;
      2. prefix rows: each name keeps only its k*q+1 RAREST gram
         occurrences (if ed(a,b) <= k the multisets share >=
         max(la,lb)-q+1-k*q grams, so two disjoint prefixes of size
         k*q+1 would contradict the count bound) -> groupby(gram, occ)
         emits in-group candidate pairs under the |la-lb| <= k length
         filter; names shorter than (k+1)*q ride a single SHORT bucket
         (the count bound is vacuous there);
      3. candidates route to pair-hash buckets -> per-bucket distinct
         -> ONE vectorized Myers bit-parallel verify per bucket
         (_ed_many) -> exact (a_key, b_key, ed) for ed <= k.

    At 100 TB the prefix rank dictionary stays O(alphabet^q);
    the verify is linear in candidates, and candidates are bounded by
    rare-gram co-occurrence, not corpus size. Grams are packed int64
    keys built batch-globally (_positional_grams: one UTF-32 decode +
    q shifted slices + one stable lexsort — no per-name Python loop),
    the rank broadcast is a sorted-array searchsorted, and every
    hash-bucket fold is sized by `num_buckets` (default from input
    size via tableutil.table_buckets; output is bucket-count
    independent, pytest-forced). Deterministic integers throughout ->
    hash-verified against DuckDB's levenshtein()."""
    if k < 1 or q < 2:
        raise ValueError("need k >= 1 and q >= 2")
    short_len = (k + 1) * q - 1   # count bound vacuous at/below this
    npref = k * q + 1
    part_path = os.path.join(sf_dir, "part.parquet")
    if num_buckets is None:
        num_buckets = table_buckets(sf_dir, "part")
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")

    def _df_rows(batch: pa.Table) -> pa.Table:
        names = batch.column("p_name").to_pylist()
        _, _, gramkey = _positional_grams(names, q, short_len)
        return pa.table({"gramkey": pa.array(gramkey, pa.int64())})

    def _gbucket(batch: pa.Table) -> pa.Table:
        gk = batch.column("gramkey").to_numpy()
        return batch.append_column(
            "gbkt",
            pa.array(bucket_of(gk, num_buckets)))

    def _df_fold(group: pa.Table) -> pa.Table:
        """Bucket-local packed (gram, occ) count — one np.unique."""
        u, c = np.unique(
            group.column("gramkey").to_numpy().astype(np.int64),
            return_counts=True)
        return pa.table({"gramkey": pa.array(u, pa.int64()),
                         "df": pa.array(c.astype(np.int64), pa.int64())})

    df = (ray.data.read_parquet(part_path, columns=["p_name"])
          .map_batches(_df_rows, batch_format="pyarrow")
          .map_batches(_gbucket, batch_format="pyarrow")
          .groupby("gbkt").map_groups(_df_fold, batch_format="pyarrow")
          .to_pandas())
    # ascending-df global order (ties by packed (gram, occ)): rank[i]
    # for the i-th smallest gramkey — searchsorted replaces the old
    # per-tuple Python dict
    dfk = df["gramkey"].to_numpy(np.int64)
    dfc = df["df"].to_numpy(np.int64)
    korder = np.argsort(dfk, kind="stable")
    keys_sorted = dfk[korder]
    rorder = np.lexsort((dfk, dfc))       # rows in (df asc, key asc)
    rank_by_row = np.empty(dfk.size, np.int64)
    rank_by_row[rorder] = np.arange(dfk.size, dtype=np.int64)
    rank_of_key = rank_by_row[korder]     # aligned with keys_sorted
    rank_ref = ray.put((keys_sorted, rank_of_key))

    def _prefix_rows(batch: pa.Table, *, _c={}) -> pa.Table:
        """Batch-global prefix emission: ONE rank searchsorted, ONE
        lexsort over (name, rank), segment arithmetic keeps each
        name's npref rarest gram occurrences — no per-name loop."""
        if "r" not in _c:
            _c["r"] = ray.get(rank_ref)
        keys_s, ranks = _c["r"]
        pkeys = batch.column("p_partkey").to_numpy().astype(np.int64)
        names = batch.column("p_name").to_pylist()
        kept, nidx, gramkey = _positional_grams(names, q, short_len)
        if gramkey.size:
            pos = np.minimum(np.searchsorted(keys_s, gramkey),
                             max(keys_s.size - 1, 0))
            if keys_s.size == 0 or not bool(
                    (keys_s[pos] == gramkey).all()):
                raise ValueError("q-gram absent from the df broadcast "
                                 "— df and prefix stages disagree")
            rk = ranks[pos]
            order = np.lexsort((rk, nidx))
            nidx2, gk2 = nidx[order], gramkey[order]
            counts = np.bincount(nidx2, minlength=kept.size)
            starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
            within = np.arange(nidx2.size, dtype=np.int64) \
                - np.repeat(starts, counts)
            sel = within < npref
            long_idx = kept[nidx2[sel]]
            long_gk = gk2[sel]
        else:
            long_idx = np.zeros(0, np.int64)
            long_gk = np.zeros(0, np.int64)
        # SHORT bucket: count bound vacuous, single gramkey -1
        lens = np.fromiter((len(s) for s in names), np.int64,
                           len(names))
        short_idx = np.nonzero(lens <= short_len)[0]
        all_idx = np.concatenate((long_idx, short_idx))
        all_gk = np.concatenate(
            (long_gk, np.full(short_idx.size, -1, np.int64)))
        return pa.table({
            "gramkey": pa.array(all_gk, pa.int64()),
            "key": pa.array(pkeys[all_idx], pa.int64()),
            "len": pa.array(lens[all_idx], pa.int64()),
        })

    npb = num_buckets
    # the verify needs both name strings per surviving candidate; the
    # part catalog is the SMALL side of this self-join (dimension
    # table), so ship ONE sorted (key -> name) broadcast instead of
    # carrying two strings through two pair-proportional shuffles
    # (~2x name bytes per candidate). At a catalog too large to
    # broadcast, switch to the union-tag bucketed join
    # (q_delta_dedup pattern).
    import pyarrow.parquet as _pq

    ntab = _pq.read_table(part_path, columns=["p_partkey", "p_name"])
    nkeys = ntab.column("p_partkey").to_numpy().astype(np.int64)
    norder = np.argsort(nkeys, kind="stable")
    name_ref = ray.put((np.ascontiguousarray(nkeys[norder]),
                        np.asarray(ntab.column("p_name").to_pylist(),
                                   dtype=object)[norder]))

    _PK_EMPTY = pa.table({"pbucket": pa.array([], pa.int32()),
                          "pkey": pa.array([], pa.int64())})

    def _cand_bucket(group: pa.Table) -> pa.Table:
        """All of this bucket's (gram, occ) groups in one fold: one
        lexsort, then per-segment pair expansion (segment count is
        alphabet-bounded — grams, not corpus)."""
        gk = group.column("gramkey").to_numpy().astype(np.int64)
        keys = group.column("key").to_numpy().astype(np.int64)
        lens = group.column("len").to_numpy().astype(np.int64)
        order = np.lexsort((keys, gk))
        gk, keys, lens = gk[order], keys[order], lens[order]
        seg = np.append(run_starts(gk), gk.size)
        parts = []
        for i in range(seg.size - 1):
            kseg = keys[seg[i]:seg[i + 1]]
            lseg = lens[seg[i]:seg[i + 1]]
            m = kseg.size
            if m < 2:
                continue
            ia, ib = np.triu_indices(m, k=1)
            ok = np.abs(lseg[ia] - lseg[ib]) <= k
            ia, ib = ia[ok], ib[ok]
            if ia.size == 0:
                continue
            parts.append(pack_pair(kseg[ia], kseg[ib]))
        if not parts:
            return _PK_EMPTY
        pk = np.concatenate(parts)
        return pa.table({
            "pbucket": pa.array((pk % npb).astype(np.int32)),
            "pkey": pa.array(pk, pa.int64()),
        })

    def _verify(group: pa.Table, *, _c={}) -> pa.Table:
        if "n" not in _c:
            _c["n"] = ray.get(name_ref)
        nk, nv = _c["n"]
        pk = np.unique(group.column("pkey").to_numpy().astype(np.int64))
        ka = pk >> np.int64(32)
        kb = pk & np.int64(0xFFFFFFFF)
        a_names = nv[np.searchsorted(nk, ka)].tolist()
        b_names = nv[np.searchsorted(nk, kb)].tolist()
        ed = _ed_many(a_names, b_names)
        keep = ed <= k
        return pa.table({
            "a_key": pa.array(ka[keep], pa.int64()),
            "b_key": pa.array(kb[keep], pa.int64()),
            "ed": pa.array(ed[keep], pa.int64()),
        })

    from candidategeneration_ray.functions.exchange import fold_by_bucket

    def _gramb(batch: pa.Table) -> pa.Table:
        gk = batch.column("gramkey").to_numpy()
        return batch.append_column(
            "gramb",
            pa.array(bucket_of(gk, num_buckets)))

    prefix = (ray.data.read_parquet(part_path,
                                    columns=["p_partkey", "p_name"])
              .map_batches(_prefix_rows, batch_format="pyarrow")
              .map_batches(_gramb, batch_format="pyarrow"))
    cands = fold_by_bucket(prefix, "gramb", _cand_bucket, num_buckets,
                           _PK_EMPTY)
    return fold_by_bucket(
        cands, "pbucket", _verify, npb,
        pa.table({"a_key": pa.array([], pa.int64()),
                  "b_key": pa.array([], pa.int64()),
                  "ed": pa.array([], pa.int64())}))


def q_part_entities(sf_dir: str, max_rounds: int = 20) -> ray.data.Dataset:
    """Entity resolution over the catalog: connected components of the
    edit-distance near-duplicate graph (q_fuzzy_name_pairs edges), so
    every part gets the MIN partkey of its name-equivalence cluster —
    the fuzzy-join composition that turns pairwise matches into
    resolved entities (same CC machinery as q_dup_clusters: star-ish
    symmetric edges, task-sized graphs in ONE object-store task, the
    distributed min-label rounds behind them)."""
    from ray.data.aggregate import Min

    SENT = np.iinfo(np.int64).max
    nfb = table_buckets(sf_dir, "part")

    def _sym(batch: pa.Table) -> pa.Table:
        a = batch.column("a_key").to_numpy().astype(np.int64)
        b = batch.column("b_key").to_numpy().astype(np.int64)
        return pa.table({
            "src": pa.array(np.concatenate((a, b)), pa.int64()),
            "dst": pa.array(np.concatenate((b, a)), pa.int64()),
            "lbl": pa.array(np.full(2 * a.size, SENT, dtype=np.int64),
                            pa.int64()),
        })

    edges = (q_fuzzy_name_pairs(sf_dir)
             .map_batches(_sym, batch_format="pyarrow")
             .materialize())
    n_edges = edges.count()
    if n_edges == 0:
        labels = ray.data.from_arrow(
            pa.table({"node": pa.array([], pa.int64()),
                      "lbl": pa.array([], pa.int64())}))
    elif n_edges <= 5_000_000:
        labels = ray.data.from_arrow_refs(
            [_small_graph_cc.remote(*edges.to_arrow_refs())])
    else:
        labels = _propagation_rounds(edges, max_rounds, num_buckets=nfb)

    def _identity(batch: pa.Table) -> pa.Table:
        k = batch.column("p_partkey").cast(pa.int64())
        return pa.table({"node": k, "lbl": k})

    all_parts = ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey"]
    ).map_batches(_identity, batch_format="pyarrow")

    def _rename(batch: pa.Table) -> pa.Table:
        return pa.table({"p_partkey": batch.column("node"),
                         "entity": batch.column("lbl")})

    from candidategeneration_ray.functions.exchange import fold_by_bucket

    def _nkb(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "nkb", pa.array(bucket_of(batch.column("node").to_numpy(), nfb)))

    def _min_fold(group: pa.Table) -> pa.Table:
        n = group.column("node").to_numpy().astype(np.int64)
        l = group.column("lbl").to_numpy().astype(np.int64)
        order = np.lexsort((l, n))
        n, l = n[order], l[order]
        first = np.r_[True, n[1:] != n[:-1]] if n.size             else np.empty(0, bool)
        return pa.table({"p_partkey": pa.array(n[first], pa.int64()),
                         "entity": pa.array(l[first], pa.int64())})

    return fold_by_bucket(
        all_parts.union(labels).map_batches(_nkb,
                                            batch_format="pyarrow"),
        "nkb", _min_fold, nfb,
        pa.table({"p_partkey": pa.array([], pa.int64()),
                  "entity": pa.array([], pa.int64())}))


def q_source_similarity(sf_dir: str) -> pa.Table:
    """DATASET-level similarity: pairwise MinHash resemblance between
    sources (which corpora overlap, the dataset-dedup / provenance
    question asked before mixing). A source's signature slot is the min
    of its docs' slots (min composes), so the whole thing is per-batch
    (source, perm, min) partials -> one O(sources x perms) groupby ->
    a tiny pairwise slot-match count. Estimated Jaccard =
    match_slots / n_perms; the integer pair (match_slots, n_perms) is
    emitted so the entry hash-verifies."""
    from ray.data.aggregate import Min

    def _partial(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        src = batch.column("source").to_pylist()
        out_s, out_p, out_m = [], [], []
        best: dict[str, np.ndarray] = {}
        for s, toks in zip(src, token_lists):
            sig = H.minhash_signature(
                np.unique(H.h64_many(H.word_shingles(toks, H.SHINGLE_W))))
            cur = best.get(s)
            best[s] = sig if cur is None else np.minimum(cur, sig)
        for s, sig in best.items():
            out_s.extend([s] * H.NUM_PERMS)
            out_p.extend(range(H.NUM_PERMS))
            out_m.extend(sig.tolist())
        return pa.table({
            "source": pa.array(out_s, pa.string()),
            "perm_id": pa.array(out_p, pa.int64()),
            "minhash": pa.array(out_m, pa.int64()),
        })

    merged = (ray.data.read_parquet(
                  os.path.join(sf_dir, "documents.parquet"),
                  columns=["source", "text"])
              .map_batches(_partial, batch_format="pyarrow")
              .groupby(["source", "perm_id"])
              .aggregate(Min("minhash", alias_name="minhash"))
              .to_pandas())  # O(sources x perms) rows — driver-safe
    sources = sorted(merged["source"].unique())
    sig = {s: merged[merged["source"] == s]
           .sort_values("perm_id")["minhash"].to_numpy()
           for s in sources}
    rows_a, rows_b, match = [], [], []
    for i, a in enumerate(sources):
        for b in sources[i + 1:]:
            rows_a.append(a)
            rows_b.append(b)
            match.append(int((sig[a] == sig[b]).sum()))
    return pa.table({
        "source_a": pa.array(rows_a, pa.string()),
        "source_b": pa.array(rows_b, pa.string()),
        "match_slots": pa.array(match, pa.int64()),
        "n_perms": pa.array([H.NUM_PERMS] * len(rows_a), pa.int64()),
    })


DELTA_ID_BASE = 50_000_000


def q_delta_dedup(sf_dir: str) -> ray.data.Dataset:
    """ASYMMETRIC dedup — the incremental-ingest question: which NEWLY
    ARRIVED docs already exist in the base corpus? (q_dedup_exact
    answers the within-corpus question; an LSM pipeline needs
    new-vs-base before appending a delta generation.) The delta is
    derived deterministically from the corpus (the sandbox has one
    version): per base doc, a delta doc at DELTA_ID_BASE + doc_id whose
    text is an exact copy (doc_id % 4 == 0), a near-copy with an
    appended tail (% 4 == 1 — must NOT match exact dedup), or fresh.

    Shape: both sides emit (h64(text), side, id, text) rows bucketed by
    hash; each bucket resolves delta rows to the MIN base doc_id with
    EQUAL TEXT (hash only co-locates; equality is on the string, so a
    64-bit collision cannot corrupt the answer — at 100 TB you would
    carry the hash and lazily confirm the rare collision instead of
    shipping text). Output (doc_id, base_match | -1) per delta doc."""
    nb = table_buckets(sf_dir, "documents")

    def _base_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        h = H.h64_many(texts).astype(np.int64)
        return pa.table({
            "bkt": pa.array(h % nb, pa.int64()),
            "h": pa.array(h, pa.int64()),
            "side": pa.array(np.zeros(ids.size, np.int64), pa.int64()),
            "id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
        })

    def _delta_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = np.asarray(batch.column("text").to_pylist(), object)
        out = texts.copy()
        out[ids % 4 == 1] = [t + " appended tail"
                             for t in texts[ids % 4 == 1]]
        fresh = ~np.isin(ids % 4, (0, 1))
        out[fresh] = [f"fresh delta row {i}" for i in ids[fresh]]
        h = H.h64_many(out.tolist()).astype(np.int64)
        return pa.table({
            "bkt": pa.array(h % nb, pa.int64()),
            "h": pa.array(h, pa.int64()),
            "side": pa.array(np.ones(ids.size, np.int64), pa.int64()),
            "id": pa.array(DELTA_ID_BASE + ids, pa.int64()),
            "text": pa.array(out.tolist(), pa.string()),
        })

    def _resolve(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy().astype(np.int64)
        ids = group.column("id").to_numpy().astype(np.int64)
        texts = np.asarray(group.column("text").to_pylist(), object)
        bt, bi = texts[side == 0], ids[side == 0]
        dt_, di = texts[side == 1], ids[side == 1]
        lookup: dict[str, int] = {}
        for t, i in zip(bt.tolist(), bi.tolist()):
            cur = lookup.get(t)
            if cur is None or i < cur:
                lookup[t] = i
        match = np.array([lookup.get(t, -1) for t in dt_.tolist()],
                         np.int64)
        return pa.table({
            "doc_id": pa.array(di, pa.int64()),
            "base_match": pa.array(match, pa.int64()),
        })

    src = documents_ds(sf_dir)
    return (src.map_batches(_base_rows, batch_format="pyarrow")
            .union(src.map_batches(_delta_rows, batch_format="pyarrow"))
            .groupby("bkt").map_groups(_resolve, batch_format="pyarrow"))


# ------------------------------------------------------ PII redaction

# Redaction TRANSFORM (the step q_regex_counts accounts for): each
# pattern's matches are replaced with a fixed token, patterns applied
# in list order (order matters when matches overlap — both backends
# apply the same order). Both pyarrow and DuckDB run RE2, so the
# redacted TEXT itself hash-verifies (md5), not just the counts.
REDACT_PATTERNS: list[tuple[str, str]] = [
    ("gap_pair", "query [a-z]+ join"),
    ("adjacent_class", "(sort|merge) (sort|merge)"),
    ("repeat_word", "batch batch"),
]
REDACT_TOKEN = "<scrubbed>"


def q_redact_docs(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, n_redactions, clean_md5): per doc the number of
    redacted spans (summed over patterns, counted BEFORE each
    replacement pass) and the md5 of the fully redacted text.

    Shape: one streaming scan, compiled RE2 kernels
    (count_substring_regex + replace_substring_regex) per batch — no
    shuffle, no Python regex loop; output is one row per doc. At
    100 TB this is the canonical cheap map; the md5 column is what a
    downstream exact-dedup pass would consume."""
    import hashlib

    import pyarrow.compute as pc

    def _redact(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        total = np.zeros(batch.num_rows, np.int64)
        for _, pat in REDACT_PATTERNS:
            total += pc.count_substring_regex(text, pat) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            text = pc.replace_substring_regex(text, pat, REDACT_TOKEN)
        clean = [hashlib.md5((t or "").encode()).hexdigest()
                 for t in text.to_pylist()]
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "n_redactions": pa.array(total, pa.int64()),
            "clean_md5": pa.array(clean, pa.string()),
        })

    return documents_ds(sf_dir).map_batches(_redact, batch_format="pyarrow")


# ------------------------------------------------- weighted PPS sampling

PPS_SAMPLE_K = 50


PRIO_SAMPLE_K = 25
_TWO64 = 1 << 64


def q_priority_sample(sf_dir: str, k: int = PRIO_SAMPLE_K) -> pa.Table:
    """Priority sampling (Duffield, Lund & Thorup JACM'07 — the
    weighted top-k dual of q_pps_sample's systematic design, and the
    estimator-of-choice for weighted subset sums): each doc draws a
    deterministic uniform u = h64(doc_id)/2⁶⁴ and a priority
    q = w/u realized as the exact integer floor w·2⁶⁴ // max(h, 1);
    the sample is the k highest-priority docs (ties → min doc_id) and
    τ = the (k+1)-th priority, with the Horvitz-Thompson adjusted
    weight est_w = max(w, τ) making Σ est_w unbiased for the total
    weight. Everything is integer arithmetic over md5 hashes, so the
    sample AND its estimator weights hash-verify.

    Shape: per-batch partial top-(k+1) by priority → driver merge of
    O(batches·k) rows (the ann partial-top-k pattern; the global top
    k+1 are each inside their batch's top k+1). Output
    (doc_id, weight, est_weight) for the k sampled docs, est clamped
    at 2⁶² identically on both sides (τ is an unbounded bigint)."""
    from candidategeneration_ray.functions import hashing as H

    def _partial(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        w = batch.column("n_chars").to_numpy().astype(np.int64)
        h = H.h64_many([str(int(x)) for x in d]).astype(np.uint64)
        # float prefilter: exact bigint priorities only for rows whose
        # float estimate can reach the batch top-(k+1) (float q has
        # relative error ~2^-50 plus the floor's absolute 1, so the
        # widened threshold provably keeps every true top row — the
        # per-doc Python bigint pass shrinks from all rows to ~k+1)
        hf = np.maximum(h.astype(np.float64), 1.0)
        qf = w.astype(np.float64) * (2.0 ** 64) / hf
        kk = min(k + 1, d.size)
        if d.size > kk:
            thr = np.partition(qf, d.size - kk)[d.size - kk]
            cand = np.nonzero(qf >= thr * (1.0 - 1e-6) - 4.0)[0]
        else:
            cand = np.arange(d.size)
        pr_c = [int(w[i]) * _TWO64 // max(int(h[i]), 1) for i in cand]
        order_c = sorted(range(len(cand)),
                         key=lambda j: (-pr_c[j], int(d[cand[j]])))
        keep = cand[order_c[:k + 1]]
        pr = {int(i): pr_c[j] for j, i in enumerate(cand)}
        return pa.table({
            "doc_id": pa.array(d[keep], pa.int64()),
            "weight": pa.array(w[keep], pa.int64()),
            # priorities exceed int64: carry as decimal strings in the
            # partial rows, re-bigint on the driver
            "pr": pa.array([str(pr[i]) for i in keep], pa.string()),
        })

    rows = (ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "n_chars"])
            .map_batches(_partial, batch_format="pyarrow")
            .take_all())                    # O(batches * k)
    rows.sort(key=lambda r: (-int(r["pr"]), r["doc_id"]))
    top = rows[:k]
    tau = int(rows[k]["pr"]) if len(rows) > k else 0
    cap = 1 << 62     # τ is unbounded bigint; both sides clamp alike
    return pa.table({
        "doc_id": pa.array([r["doc_id"] for r in top], pa.int64()),
        "weight": pa.array([r["weight"] for r in top], pa.int64()),
        "est_weight": pa.array(
            [min(max(int(r["weight"]), tau), cap) for r in top],
            pa.int64()),
    })


def q_sample_subset_sums(sf_dir: str, k: int = PRIO_SAMPLE_K) -> pa.Table:
    """Subset-sum estimation from the priority sample — the query the
    Horvitz-Thompson weights exist for (Duffield et al.: ANY
    post-hoc subset's weight is estimated by summing est_w over the
    sample members in the subset, unbiased, no re-sampling): per
    source, est_chars = Σ est_weight over its sampled docs beside the
    TRUE Σ n_chars — so the driver hash-verifies both the estimator
    surface and its ground truth (error is the sample's variance, a
    per-fixture constant under deterministic draws).

    Shape: the k-row sample (cached arithmetic) + one point read of
    the sampled docs' sources + the standard per-source weight
    aggregate. Output (source, n_sampled, est_chars, true_chars)."""
    import pyarrow.parquet as pq_
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    sample = q_priority_sample(sf_dir, k)
    sids = sample.column("doc_id").to_numpy().astype(np.int64)
    est = sample.column("est_weight").to_numpy().astype(np.int64)
    meta = pq_.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"],
        filters=[("doc_id", "in", sids.tolist())])    # K-row point read
    src_of = dict(zip(meta.column("doc_id").to_numpy().astype(np.int64),
                      meta.column("source").to_pylist()))
    est_by: dict[str, list] = {}
    for d, e in zip(sids, est):
        est_by.setdefault(src_of[int(d)], []).append(int(e))

    def _truth(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist(), object)
        w = batch.column("n_chars").to_numpy().astype(np.int64)
        u, s = group_sum(src, w)
        return pa.table({"source": pa.array(u.tolist(), pa.string()),
                         "true_chars": pa.array(s, pa.int64())})

    truth = (ray.data.read_parquet(
                 os.path.join(sf_dir, "documents.parquet"),
                 columns=["source", "n_chars"])
             .map_batches(_truth, batch_format="pyarrow")
             .groupby("source")
             .aggregate(Sum("true_chars", alias_name="true_chars"))
             .take_all())                 # O(sources)
    truth.sort(key=lambda r: r["source"])
    return pa.table({
        "source": pa.array([r["source"] for r in truth], pa.string()),
        "n_sampled": pa.array(
            [len(est_by.get(r["source"], [])) for r in truth], pa.int64()),
        "est_chars": pa.array(
            [sum(est_by.get(r["source"], [])) for r in truth], pa.int64()),
        "true_chars": pa.array(
            [int(r["true_chars"]) for r in truth], pa.int64()),
    })


def q_pps_sample(sf_dir: str, k: int = PPS_SAMPLE_K,
                 num_blocks: int | None = None) -> ray.data.Dataset:
    """Systematic probability-proportional-to-size sampling (the
    deterministic cousin of A-ES weighted reservoir sampling; Madow '49):
    lay every doc's weight (n_chars) end-to-end in doc_id order and take
    one doc at every `step = W // k` marks — doc i is selected iff its
    weight interval [cum_i - w_i, cum_i) contains a multiple of step,
    i.e. floor(cum_i / step) > floor((cum_i - w_i) / step). Inclusion
    probability is proportional to weight (docs with w >= step are
    always selected), the sample is identical on every run and every
    re-shard, and the whole operator is ONE distributed prefix sum:
    sort by doc_id -> range-blocked cumsum (blocked_prefix_apply — the
    driver holds only per-block totals) -> per-block vectorized mark
    test. At 10^12 docs nothing corpus-sized exists anywhere.

    Output (doc_id, n_chars, cum_chars) for the selected docs; the
    oracle recomputes cum via a window SUM over doc_id order."""
    from candidategeneration_ray.stages.docids import blocked_prefix_apply
    import pyarrow.parquet as pq_

    # total weight first (one tiny aggregate) so step is known up front
    meta = pq_.read_metadata(os.path.join(sf_dir, "documents.parquet"))
    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "n_chars"])
    total_w = int(ds.sum("n_chars") or 0)
    step = max(1, total_w // k)

    ds_sorted = ds.sort("doc_id")

    def _total(t: pa.Table) -> int:
        import pyarrow.compute as pc
        return int(pc.sum(t.column("n_chars")).as_py() or 0)

    def _emit(t: pa.Table, base: int) -> pa.Table:
        ids = t.column("doc_id").to_numpy().astype(np.int64)
        w = t.column("n_chars").to_numpy().astype(np.int64)
        cum = base + np.cumsum(w)
        sel = (cum // step) > ((cum - w) // step)
        return pa.table({
            "doc_id": pa.array(ids[sel], pa.int64()),
            "n_chars": pa.array(w[sel], pa.int64()),
            "cum_chars": pa.array(cum[sel], pa.int64()),
        })

    if num_blocks is None:
        num_blocks = max(4, min(64, meta.num_rows // 512 or 4))
    return blocked_prefix_apply(ds_sorted, num_blocks, _total, _emit)


# ------------------------------------------- exact-substring dedup removal

DEDUP_SUB_W = 10          # token window width for span removal
_SUB_POS_BITS = 20        # packed occurrence key = doc_id << 20 | start


def q_dedup_substrings(sf_dir: str, w: int = DEDUP_SUB_W) -> ray.data.Dataset:
    """Exact-substring dedup REMOVAL transform (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better"):
    q_duplicate_spans only REPORTS span duplication rates; this entry
    actually rewrites the corpus. Every w-token window is hashed; each
    distinct window hash has one global OWNER occurrence — the minimum
    of doc_id << 20 | start over its occurrences — and every other
    occurrence marks its w token positions covered. A doc's clean text
    is its kept-token stream with covered positions dropped (first
    occurrence survives, later copies vanish; overlapping duplicated
    windows union their coverage). Docs shorter than w emit no windows
    (whole-doc dedup is q_dedup_exact's job). Identity is the 64-bit
    md5 window hash — at 100 TB you would carry the window text
    alongside the rare colliding hash and confirm lazily, exactly as
    q_delta_dedup documents for whole-doc hashing.

    Shape: window-occurrence rows (hash, packed pos) -> ONE
    groupby(hash-bucket) where group-local min IS the global owner
    (all occurrences of a hash share its bucket) emitting only
    non-owner occurrences (output is duplication-bound, not
    corpus-bound) -> union-tag bucketed join with the documents table
    (same pattern as q_delta_dedup) -> per-doc coverage diff-array +
    rebuild. No stage holds more than one bucket; nothing touches the
    driver. Positions are 1-based to match the oracle's kpos;
    per-doc token counts must fit 20 bits (fail fast otherwise)."""
    nb = table_buckets(sf_dir, "documents")
    pos_mask = (1 << _SUB_POS_BITS) - 1

    def _windows(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        out_h, out_p = [], []
        for i, toks in enumerate(token_lists):
            n = len(toks)
            if n < w:
                continue
            if n >= (1 << _SUB_POS_BITS):
                raise ValueError(
                    f"doc {doc_ids[i]} has {n} tokens >= 2^{_SUB_POS_BITS}; "
                    "raise _SUB_POS_BITS to pack (doc, start) keys")
            hs = H.h64_many(
                [" ".join(toks[j:j + w]) for j in range(n - w + 1)])
            starts = np.arange(1, n - w + 2, dtype=np.int64)
            out_h.append(hs.astype(np.int64))
            out_p.append((doc_ids[i] << _SUB_POS_BITS) | starts)
        h = np.concatenate(out_h) if out_h else np.empty(0, np.int64)
        p = np.concatenate(out_p) if out_p else np.empty(0, np.int64)
        return pa.table({
            "bkt": pa.array((h.astype(np.uint64) % nb).astype(np.int64), pa.int64()),
            "h": pa.array(h, pa.int64()),
            "packed": pa.array(p, pa.int64()),
        })

    def _covered(group: pa.Table) -> pa.Table:
        h = group.column("h").to_numpy().astype(np.int64)
        p = group.column("packed").to_numpy().astype(np.int64)
        order = np.lexsort((p, h))
        h, p = h[order], p[order]
        starts = run_starts(h)
        counts = np.diff(np.concatenate((starts, [h.size])))
        owner = np.zeros(h.size, bool)
        owner[starts] = True
        cov = p[(np.repeat(counts, counts) >= 2) & ~owner]
        return pa.table({
            "jbkt": pa.array((cov >> _SUB_POS_BITS) % nb, pa.int64()),
            "doc_id": pa.array(cov >> _SUB_POS_BITS, pa.int64()),
            "start": pa.array(cov & pos_mask, pa.int64()),
            "text": pa.array([""] * cov.size, pa.string()),
        })

    def _doc_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy().astype(np.int64)
        return pa.table({
            "jbkt": pa.array(ids % nb, pa.int64()),
            "doc_id": pa.array(ids, pa.int64()),
            "start": pa.array(np.full(ids.size, -1, np.int64), pa.int64()),
            "text": batch.column("text").cast(pa.string()),
        })

    def _rebuild(group: pa.Table) -> pa.Table:
        ids = group.column("doc_id").to_numpy().astype(np.int64)
        st = group.column("start").to_numpy().astype(np.int64)
        texts = group.column("text").to_pylist()
        is_doc = st < 0
        doc_idx = np.nonzero(is_doc)[0]
        doc_ids = ids[doc_idx]
        token_lists = tokenize_many([texts[i] for i in doc_idx.tolist()])
        cov_ids, cov_st = ids[~is_doc], st[~is_doc]
        order = np.argsort(cov_ids, kind="stable")
        cov_ids, cov_st = cov_ids[order], cov_st[order]
        lo = np.searchsorted(cov_ids, doc_ids, side="left")
        hi = np.searchsorted(cov_ids, doc_ids, side="right")
        out_txt: list[str] = []
        out_nt = np.empty(doc_ids.size, np.int64)
        out_nr = np.empty(doc_ids.size, np.int64)
        for k, toks in enumerate(token_lists):
            n = len(toks)
            out_nt[k] = n
            if lo[k] == hi[k] or n == 0:
                out_txt.append(" ".join(toks))
                out_nr[k] = 0
                continue
            s = cov_st[lo[k]:hi[k]]          # 1-based window starts
            diff = np.zeros(n + 1, np.int64)
            np.add.at(diff, s - 1, 1)
            np.add.at(diff, np.minimum(s - 1 + w, n), -1)
            covered = np.cumsum(diff[:n]) > 0
            out_txt.append(" ".join(
                t for t, c in zip(toks, covered.tolist()) if not c))
            out_nr[k] = int(covered.sum())
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "clean_text": pa.array(out_txt, pa.string()),
            "n_tokens": pa.array(out_nt, pa.int64()),
            "n_removed": pa.array(out_nr, pa.int64()),
        })

    windows = documents_ds(sf_dir).map_batches(_windows, batch_format="pyarrow")
    covered = windows.groupby("bkt").map_groups(_covered, batch_format="pyarrow")
    docs = documents_ds(sf_dir).map_batches(_doc_rows, batch_format="pyarrow")
    return (
        docs.union(covered)
        .groupby("jbkt")
        .map_groups(_rebuild, batch_format="pyarrow")
    )


# ---------------------------------------------- feature-hashed embeddings

HASH_DIM = 32          # hashing-trick vector width
_SIGN_BIT = 40         # md5 bit used for the ±1 sign (independent of dim bits)


def _hashed_doc_vecs(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(doc_ids, V) where V[i] is doc i's HASH_DIM-wide signed-tf
    hashing-trick vector (Weinberger et al. 2009): each distinct kept
    token adds sign(h) * tf to dimension h % HASH_DIM, h = md5-64 of
    the token, sign from an independent md5 bit. Batch-global: one
    factorize over the batch's token stream, tokens hashed once each,
    one np.add.at scatter — no per-doc Python loop."""
    import pandas as pd

    token_lists = tokenize_many(batch.column("text").to_pylist())
    doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
    V = np.zeros((doc_ids.size, HASH_DIM), dtype=np.int64)
    lens = np.fromiter((len(t) for t in token_lists), np.int64,
                       len(token_lists))
    if lens.sum() == 0:
        return doc_ids, V
    flat = np.concatenate([np.asarray(t, object) for t in token_lists
                           if t] or [np.empty(0, object)])
    didx = np.repeat(np.arange(doc_ids.size), lens)
    codes, uniq = pd.factorize(flat)
    h = H.h64_many(list(uniq))
    dim = (h % np.uint64(HASH_DIM)).astype(np.int64)
    sign = np.where(((h >> np.uint64(_SIGN_BIT)) & np.uint64(1)) == 1,
                    -1, 1).astype(np.int64)
    # per (doc, token-code) tf via one packed sort
    packed = didx * len(uniq) + codes
    pk, tf = np.unique(packed, return_counts=True)
    pd_doc = pk // len(uniq)
    pd_code = pk % len(uniq)
    np.add.at(V, (pd_doc, dim[pd_code]), sign[pd_code] * tf)
    return doc_ids, V


def q_hashed_embeddings(sf_dir: str) -> ray.data.Dataset:
    """Text -> vector WITHOUT a model: the feature-hashing trick over
    kept-token tfs. Gives every downstream embedding operator (ANN,
    clustering, JL, gram) a deterministic text-derived vector source.
    Pure streaming map — docs are row-local, no shuffle; output is the
    sparse (doc_id, dim, val != 0) triple form."""

    def _rows(batch: pa.Table) -> pa.Table:
        ids, V = _hashed_doc_vecs(batch)
        d, k = np.nonzero(V)
        return pa.table({
            "doc_id": pa.array(ids[d], pa.int64()),
            "dim": pa.array(k.astype(np.int64), pa.int64()),
            "val": pa.array(V[d, k], pa.int64()),
        })

    return documents_ds(sf_dir).map_batches(_rows, batch_format="pyarrow")


def q_hashed_mips_top10(sf_dir: str, k: int = 10) -> pa.Table:
    """Maximum-inner-product search over the hashed text vectors: per
    fixed query, the top-k docs by integer dot(q, d) > 0, ties by
    doc_id — lexical-overlap retrieval through a 32-dim bottleneck
    (hash collisions and sign cancellation INCLUDED: the oracle
    reproduces them exactly, which is the point — the whole hashing
    trick is value-verified, not just plumbed).

    Shape: broadcast Q×DIM query matrix, per-batch doc vectors + one
    matmul, per-batch partial top-k per query, driver folds only
    k×Q×n_batches partial rows (the ann_cosine pattern)."""
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.pipelines.docquery import DOC_QUERIES

    qids, qvecs = [], []
    for qid, text in DOC_QUERIES:
        toks = sorted(set(tokenize_text(text)))
        v = np.zeros(HASH_DIM, dtype=np.int64)
        if toks:
            h = H.h64_many(toks)
            dim = (h % np.uint64(HASH_DIM)).astype(np.int64)
            sign = np.where(((h >> np.uint64(_SIGN_BIT)) & np.uint64(1)) == 1,
                            -1, 1).astype(np.int64)
            np.add.at(v, dim, sign)
        qids.append(qid)
        qvecs.append(v)
    qm = np.stack(qvecs)                      # (Q, DIM)
    qid_arr = np.asarray(qids, np.int64)
    qm_ref = ray.put(qm)

    def _partial(batch: pa.Table) -> pa.Table:
        ids, V = _hashed_doc_vecs(batch)
        if ids.size == 0:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64()),
                             "dot": pa.array([], pa.int64())})
        dots = V @ ray.get(qm_ref).T          # (B, Q)
        out_q, out_d, out_s = [], [], []
        for j in range(qid_arr.size):
            s = dots[:, j]
            pos = s > 0
            if not pos.any():
                continue
            cand_ids, cand_s = ids[pos], s[pos]
            top = np.lexsort((cand_ids, -cand_s))[:k]
            out_q.append(np.full(top.size, qid_arr[j], np.int64))
            out_d.append(cand_ids[top])
            out_s.append(cand_s[top])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "doc_id": pa.array([], pa.int64()),
                             "dot": pa.array([], pa.int64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            "dot": pa.array(np.concatenate(out_s), pa.int64()),
        })

    parts = (documents_ds(sf_dir)
             .map_batches(_partial, batch_format="pyarrow").take_all())
    qs, ds_, ss, rk = [], [], [], []
    for qid in qids:
        rows = [(int(r["dot"]), int(r["doc_id"])) for r in parts
                if int(r["query_id"]) == qid]
        rows.sort(key=lambda t: (-t[0], t[1]))
        for rank, (s, d) in enumerate(rows[:k]):
            qs.append(qid)
            rk.append(rank + 1)
            ds_.append(d)
            ss.append(s)
    return pa.table({
        "query_id": pa.array(qs, pa.int64()),
        "rank": pa.array(rk, pa.int64()),
        "doc_id": pa.array(ds_, pa.int64()),
        "dot": pa.array(ss, pa.int64()),
    })


def _quantized_batch(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(vec_ids, trunc(emb * 2^16) int64 matrix) — the shared
    power-of-two quantization (pipelines/clustering.py KMEANS_SCALE)."""
    ids, mat = _emb_matrix(batch)
    return ids, np.trunc(mat * (1 << 16)).astype(np.int64)


# -------------------------------------------------- scalar-quantized ANN

def q_ann_sq8_top10(sf_dir: str, k: int = 10) -> pa.Table:
    """SQ8 scalar-quantized ANN (the third quantization family next to
    IVF and PQ): every dimension is linearly re-coded into [0, 255]
    against its global min/max, and ranking is MIN symmetric squared
    L2 in code space (the per-dim shift cancels in differences, so
    code-space L2 is span-weighted true L2 — unlike a code dot
    product, which the shift would dominate) — 4x smaller vectors
    than f32 and pure int arithmetic, so even this APPROXIMATE method
    is value-verified (approximate vs the exact-L2 twin, never
    unverifiable). Query = vec_id 0, like the other ANN entries.

    Shape: pass 1 aggregates per-dim (min, max) partials (64 tiny rows
    per batch -> one groupby); pass 2 codes each batch against the
    broadcast bounds and emits a per-batch partial top-k; the driver
    folds k x n_batches rows. Two scans, no shuffle of vectors."""
    from ray.data.aggregate import Max, Min

    emb_path = os.path.join(sf_dir, "embeddings.parquet")

    def _mm_partial(batch: pa.Table) -> pa.Table:
        _, xq = _quantized_batch(batch)
        if xq.shape[0] == 0:
            return pa.table({"d": pa.array([], pa.int64()),
                             "mn": pa.array([], pa.int64()),
                             "mx": pa.array([], pa.int64())})
        return pa.table({
            "d": pa.array(np.arange(xq.shape[1]), pa.int64()),
            "mn": pa.array(xq.min(axis=0), pa.int64()),
            "mx": pa.array(xq.max(axis=0), pa.int64()),
        })

    mm = (_sized_emb(emb_path)
          .map_batches(_mm_partial, batch_format="pyarrow")
          .groupby("d")
          .aggregate(Min("mn", alias_name="mn"), Max("mx", alias_name="mx"))
          .to_pandas().sort_values("d"))
    mn = mm["mn"].to_numpy(np.int64)
    mx = mm["mx"].to_numpy(np.int64)
    span = np.maximum(mx - mn, 1)
    live = mx > mn

    def _code(xq: np.ndarray) -> np.ndarray:
        c = ((xq - mn) * 255) // span
        return np.where(live, c, 0).astype(np.int64)

    qvec = _read_query_vec(emb_path, 0)
    qcode = _code(np.trunc(np.asarray(qvec, np.float64)
                           * (1 << 16)).astype(np.int64)[None, :])[0]
    state = ray.put((mn, span, live, qcode))

    def _partial(batch: pa.Table) -> pa.Table:
        ids, xq = _quantized_batch(batch)
        if ids.size == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "d2": pa.array([], pa.int64())})
        bmn, bspan, blive, bq = ray.get(state)
        c = np.where(blive, ((xq - bmn) * 255) // bspan, 0).astype(np.int64)
        d2 = ((c - bq) ** 2).sum(axis=1)
        top = np.lexsort((ids, d2))[:k]
        return pa.table({"vec_id": pa.array(ids[top], pa.int64()),
                         "d2": pa.array(d2[top], pa.int64())})

    parts = (_sized_emb(emb_path)
             .map_batches(_partial, batch_format="pyarrow").to_pandas())
    parts = parts.sort_values(["d2", "vec_id"],
                              ascending=[True, True]).head(k)
    return pa.table({
        "rank": pa.array(np.arange(1, len(parts) + 1, dtype=np.int64),
                         pa.int64()),
        "vec_id": pa.array(parts["vec_id"].to_numpy(np.int64), pa.int64()),
        "d2": pa.array(parts["d2"].to_numpy(np.int64), pa.int64()),
    })


# ------------------------------------------------------ privacy / drift

K_ANON = 5
K_ANON_CHAR_BUCKET = 256


def _qi_lang_partial(batch: pa.Table, char_bucket: int) -> pa.Table:
    """Compressed (lang, source, chars_bucket, count) partials shared
    by the privacy-audit triad (k-anonymity / l-diversity /
    t-closeness): factorize+pack per batch, one np.unique — the
    shuffle downstream moves distinct quasi-identifier combinations,
    never documents."""
    import pandas as pd

    lang = batch.column("lang").to_numpy(zero_copy_only=False)
    src = batch.column("source").to_numpy(zero_copy_only=False)
    nb = (batch.column("n_chars").to_numpy().astype(np.int64)
          // char_bucket)
    lc, lu = pd.factorize(lang)
    sc, su = pd.factorize(src)
    packed = (lc.astype(np.int64) * len(su) + sc) * 1_000_000 + nb
    u, counts = np.unique(packed, return_counts=True)
    ub = u % 1_000_000
    uls = u // 1_000_000
    return pa.table({
        "lang": pa.array(lu[uls // len(su)].tolist(), pa.string()),
        "source": pa.array(su[uls % len(su)].tolist(), pa.string()),
        "chars_bucket": pa.array(ub, pa.int64()),
        "n_docs": pa.array(counts.astype(np.int64), pa.int64()),
    })


def _qi_lang_counts(sf_dir: str, char_bucket: int) -> ray.data.Dataset:
    """One groupby over the shared partials: exact per
    (lang, source, chars_bucket) document counts."""
    from ray.data.aggregate import Sum

    return (ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["lang", "source", "n_chars"])
            .map_batches(lambda b: _qi_lang_partial(b, char_bucket),
                         batch_format="pyarrow")
            .groupby(["lang", "source", "chars_bucket"])
            .aggregate(Sum("n_docs", alias_name="n_docs")))


def q_k_anonymity(sf_dir: str, k: int = K_ANON,
                  char_bucket: int = K_ANON_CHAR_BUCKET,
                  per_lang: "ray.data.Dataset | None" = None
                  ) -> ray.data.Dataset:
    """Privacy audit: k-anonymity violations over the quasi-identifier
    tuple (lang, source, n_chars // bucket) — groups smaller than k are
    re-identification risks a release gate must suppress or generalize.
    Output one row per violating group with its size; empty = the
    release passes at this k.

    Shape: per-batch compressed (qid-tuple, count) partials -> one tiny
    groupby -> size filter (the triad-shared _qi_lang_counts). The
    shuffle moves distinct quasi-identifier combinations, never
    documents. `per_lang` shares one materialized QI aggregate
    across the triad (release_report passes it: 3 corpus passes → 1)."""
    agg = (per_lang if per_lang is not None
           else _qi_lang_counts(sf_dir, char_bucket))

    def _violations(batch: pa.Table) -> pa.Table:
        n = batch.column("n_docs").to_numpy().astype(np.int64)
        return batch.filter(pa.array(n < k))

    return agg.map_batches(_violations, batch_format="pyarrow")


def q_label_centroid_dist(sf_dir: str) -> pa.Table:
    """Dataset-drift / cluster-separation diagnostic: the integer
    squared L2 distance between every pair of label centroids
    (floor-div centroids over the shared power-of-two quantization —
    the same arithmetic as the k-means update, so the values are
    exactly reproducible). Small pairwise gaps between labels flag
    collapsing classes; tracking the matrix across snapshots is the
    embedding-drift monitor.

    Shape: integer partial sums per (label, dim) + a count row -> one
    tiny groupby -> the labels x dim centroid table folds on the
    driver (labels-sized by nature). Output (label_a, label_b, d2)."""
    from ray.data.aggregate import Sum

    COUNT_DIM = -1

    def _partials(batch: pa.Table) -> pa.Table:
        ids, xq = _quantized_batch(batch)
        lab = batch.column("label").to_numpy().astype(np.int64)
        if ids.size == 0:
            return pa.table({"label": pa.array([], pa.int64()),
                             "dim": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64())})
        dim = xq.shape[1]
        out_l, out_d, out_s = [], [], []
        for lv in np.unique(lab):
            m = lab == lv
            out_l.append(np.full(dim + 1, lv, np.int64))
            out_d.append(np.concatenate((np.arange(dim), [COUNT_DIM])))
            out_s.append(np.concatenate((xq[m].sum(axis=0),
                                         [int(m.sum())])))
        return pa.table({
            "label": pa.array(np.concatenate(out_l), pa.int64()),
            "dim": pa.array(np.concatenate(out_d).astype(np.int64),
                            pa.int64()),
            "s": pa.array(np.concatenate(out_s), pa.int64()),
        })

    merged = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding", "label"])
        .map_batches(_partials, batch_format="pyarrow")
        .groupby(["label", "dim"])
        .aggregate(Sum("s", alias_name="s"))
        .to_pandas()
    )
    labels = np.sort(merged["label"].unique().astype(np.int64))
    dim = int(merged[merged["dim"] >= 0]["dim"].max()) + 1
    cent = np.zeros((labels.size, dim), np.int64)
    cnt = np.zeros(labels.size, np.int64)
    lpos = {int(l): i for i, l in enumerate(labels)}
    for _, r in merged.iterrows():
        i = lpos[int(r["label"])]
        if r["dim"] == COUNT_DIM:
            cnt[i] = r["s"]
        else:
            cent[i, int(r["dim"])] = r["s"]
    cent = np.floor(cent / np.maximum(cnt, 1)[:, None]).astype(np.int64)
    la, lb, d2 = [], [], []
    for i in range(labels.size):
        for j in range(i + 1, labels.size):
            la.append(int(labels[i]))
            lb.append(int(labels[j]))
            d2.append(int(((cent[i] - cent[j]) ** 2).sum()))
    return pa.table({
        "label_a": pa.array(la, pa.int64()),
        "label_b": pa.array(lb, pa.int64()),
        "d2": pa.array(d2, pa.int64()),
    })


# ------------------------------------------- approx-dedup quality eval

def exact_jaccard_for_pairs(sf_dir: str, pairs_ds: ray.data.Dataset,
                            npb: int | None = None) -> ray.data.Dataset:
    """Exact Jaccard for an ARBITRARY candidate-pair Dataset (doc_a,
    doc_b): both docs' full distinct-shingle sets are routed to the
    pair's hash bucket (union-tag through one groupby) and a per-bucket
    lexsort counts duplicated hashes — the q_jaccard_pairs_prefix
    verification kernel generalized to any candidate source, with NO
    threshold filter (callers judge). `npb` defaults to table_buckets
    over the documents. Output (doc_a, doc_b, inter_n, union_n) for
    every input pair."""
    if npb is None:
        npb = table_buckets(sf_dir, "documents")

    def _pid_rows(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy().astype(np.int64)
        b = batch.column("doc_b").to_numpy().astype(np.int64)
        pid = pack_pair(a, b)
        return pa.table({
            "doc": pa.array(np.concatenate((a, b)), pa.int64()),
            "pid": pa.array(np.concatenate((pid, pid)), pa.int64()),
            "h": pa.array(np.zeros(2 * a.size, np.int64), pa.int64()),
            "is_set": pa.array(np.zeros(2 * a.size, bool), pa.bool_()),
        })

    def _set_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc": batch.column("doc_id"),
            "pid": pa.array(np.full(batch.num_rows, -1, np.int64), pa.int64()),
            "h": batch.column("shingle_h"),
            "is_set": pa.array(np.ones(batch.num_rows, bool), pa.bool_()),
        })

    def _doc_bucket(batch: pa.Table) -> pa.Table:
        d = batch.column("doc").to_numpy()
        return batch.append_column(
            "dbucket", pa.array(bucket_of(d, npb)))

    def _gather(group: pa.Table) -> pa.Table:
        doc = group.column("doc").to_numpy().astype(np.int64)
        pid = group.column("pid").to_numpy().astype(np.int64)
        h = group.column("h").to_numpy().astype(np.int64)
        is_set = group.column("is_set").to_numpy()
        sd, sh = doc[is_set], h[is_set]
        order = np.argsort(sd, kind="stable")
        sd, sh = sd[order], sh[order]
        md, mp = doc[~is_set], pid[~is_set]
        lo = np.searchsorted(sd, md, side="left")
        hi = np.searchsorted(sd, md, side="right")
        cnt = hi - lo
        if int(cnt.sum()) == 0:
            return pa.table({"pid": pa.array([], pa.int64()),
                             "pbucket": pa.array([], pa.int32()),
                             "h": pa.array([], pa.int64())})
        idx = np.repeat(lo, cnt) + (
            np.arange(int(cnt.sum()), dtype=np.int64)
            - np.repeat(np.concatenate(([0], np.cumsum(cnt)))[:-1], cnt))
        out_pid = np.repeat(mp, cnt)
        return pa.table({
            "pid": pa.array(out_pid, pa.int64()),
            "pbucket": pa.array((out_pid % np.int64(npb)).astype(np.int32)),
            "h": pa.array(sh[idx], pa.int64()),
        })

    def _verify(group: pa.Table) -> pa.Table:
        pid = group.column("pid").to_numpy().astype(np.int64)
        h = group.column("h").to_numpy().astype(np.int64)
        order = np.lexsort((h, pid))
        pid, h = pid[order], h[order]
        dup = np.concatenate(
            ([False], (pid[1:] == pid[:-1]) & (h[1:] == h[:-1])))
        upid, tot = np.unique(pid, return_counts=True)
        inter = np.bincount(np.searchsorted(upid, pid[dup]),
                            minlength=upid.size).astype(np.int64)
        union = tot.astype(np.int64) - inter
        return pa.table({
            "doc_a": pa.array(upid >> np.int64(32), pa.int64()),
            "doc_b": pa.array(upid & np.int64(0xFFFFFFFF), pa.int64()),
            "inter_n": pa.array(inter, pa.int64()),
            "union_n": pa.array(union, pa.int64()),
        })

    shingles_full = documents_ds(sf_dir).map_batches(
        lambda bt: _shingle_rows(bt, H.SHINGLE_W), batch_format="pyarrow")
    routed = (
        pairs_ds.map_batches(_pid_rows, batch_format="pyarrow")
        .union(shingles_full.map_batches(_set_rows, batch_format="pyarrow"))
        .map_batches(_doc_bucket, batch_format="pyarrow")
        .groupby("dbucket").map_groups(_gather, batch_format="pyarrow")
    )
    return (routed.groupby("pbucket")
            .map_groups(_verify, batch_format="pyarrow")
            .select_columns(["doc_a", "doc_b", "inter_n", "union_n"]))


def q_lsh_precision(sf_dir: str, threshold_pct: int = 20) -> ray.data.Dataset:
    """Quality evaluation OF the approximate dedup method BY VALUE:
    every MinHash-LSH candidate edge gets its exact Jaccard computed
    (the generalized pair-verification kernel) and a true/false-
    positive verdict at the corpus' dedup threshold — the
    precision-side audit that tells an operator whether the LSH band
    parameters are tuned (recall's audit is the existing
    oracle-asserted pytest). Output (doc_a, doc_b, inter_n, union_n,
    is_dup); precision = avg(is_dup) is the analyst's finalizer.
    Cost: candidate-bound, never corpus-bound."""
    pairs = q_minhash_lsh_pairs(sf_dir)
    scored = exact_jaccard_for_pairs(sf_dir, pairs)

    def _flag(batch: pa.Table) -> pa.Table:
        i = batch.column("inter_n").to_numpy().astype(np.int64)
        u = batch.column("union_n").to_numpy().astype(np.int64)
        return batch.append_column(
            "is_dup", pa.array((i * 100 >= threshold_pct * u)
                               .astype(np.int64), pa.int64()))

    return scored.map_batches(_flag, batch_format="pyarrow")


# ------------------------------------------------------ curriculum order

def q_curriculum_order(sf_dir: str, num_blocks: int = 8) -> ray.data.Dataset:
    """Curriculum ordering for training: a GLOBAL rank over the corpus
    by (fluency desc, length asc, doc_id) — easy-first scheduling, the
    ordering knob next to the packing entries (token_offsets /
    sequence_manifest consume doc order; this entry PRODUCES a
    quality-aware one). Fluency proxy = stopword density in millionths
    (integer; the classic cheap signal), over the verified text-stats
    kernel.

    Shape: streaming stats map -> ONE distributed sort -> the
    range-blocked prefix-rank pattern (blocked_prefix_apply: the
    driver holds only per-block row counts). Output (doc_id,
    fluency_ppm, n_words, curriculum_rank) with rank 1 = first doc to
    train on."""
    from candidategeneration_ray.stages.docids import blocked_prefix_apply

    def _score(batch: pa.Table) -> pa.Table:
        nw = batch.column("n_words").to_numpy().astype(np.int64)
        ns = batch.column("n_stop").to_numpy().astype(np.int64)
        ppm = (ns * 1_000_000) // np.maximum(nw, 1)
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "fluency_ppm": pa.array(ppm, pa.int64()),
            "n_words": pa.array(nw, pa.int64()),
            "neg_fluency": pa.array(-ppm, pa.int64()),
        })

    ds_sorted = (
        documents_ds(sf_dir)
        .map_batches(_textstats, batch_format="pyarrow")
        .map_batches(_score, batch_format="pyarrow")
        .sort(["neg_fluency", "n_words", "doc_id"])
    )

    def _total(t: pa.Table) -> int:
        return t.num_rows

    def _emit(t: pa.Table, base: int) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "fluency_ppm": t.column("fluency_ppm"),
            "n_words": t.column("n_words"),
            "curriculum_rank": pa.array(
                base + 1 + np.arange(t.num_rows, dtype=np.int64), pa.int64()),
        })

    return blocked_prefix_apply(ds_sorted, num_blocks, _total, _emit)


# ------------------------------------------------ mixed-language audit

MIXED_CHUNK_WORDS = 32


def q_mixed_lang_docs(sf_dir: str,
                      chunk: int = MIXED_CHUNK_WORDS) -> ray.data.Dataset:
    """Language-consistency audit: the doc-level language-ID heuristic
    applied PER 32-WORD CHUNK — a doc whose chunks disagree (some
    English-dense, some not) is code-switched or concatenated content
    that a doc-level classifier mislabels wholesale; the standard
    pre-training fix is per-chunk routing, and this entry finds the
    docs that need it. Output per doc with >= 1 alphabetic word:
    (doc_id, n_chunks, en_chunks, is_mixed).

    Shape: one vectorized batch pass (Arrow regex word split, ordinal
    arithmetic, two packed bincounts) — no shuffle; docs are row-local
    like every text audit."""
    import pyarrow.compute as pc

    from candidategeneration_ray.functions.stopwords import STOPWORDS

    stop_arr = pa.array(sorted(STOPWORDS), pa.string())

    def _audit(batch: pa.Table) -> pa.Table:
        text = batch.column("text").combine_chunks()
        n = len(text)
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        words = pc.split_pattern_regex(
            pc.replace_substring_regex(text, "[^A-Za-z]+", " "), r"\s+")
        flat = words.values
        lens_all = np.diff(words.offsets.to_numpy().astype(np.int64))
        didx = np.repeat(np.arange(n), lens_all)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        stop = pc.is_in(pc.utf8_lower(flat), value_set=stop_arr) \
            .to_numpy(zero_copy_only=False) & nonempty
        d = didx[nonempty]
        s = stop[nonempty]
        if d.size == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_chunks": pa.array([], pa.int64()),
                             "en_chunks": pa.array([], pa.int64()),
                             "is_mixed": pa.array([], pa.int64())})
        counts = np.bincount(d, minlength=n).astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        ordinal = np.arange(d.size, dtype=np.int64) - starts[d]
        ck = ordinal // chunk
        code = d * (int(ck.max()) + 1) + ck
        u, nw, ns = group_sum(code, np.ones(code.size, np.int64), s)
        en = 5 * ns >= nw
        udoc = u // (int(ck.max()) + 1)
        docs, n_chunks, en_chunks = group_sum(
            udoc, np.ones(udoc.size, np.int64), en)
        mixed = (en_chunks > 0) & (en_chunks < n_chunks)
        return pa.table({
            "doc_id": pa.array(doc_ids[docs], pa.int64()),
            "n_chunks": pa.array(n_chunks, pa.int64()),
            "en_chunks": pa.array(en_chunks, pa.int64()),
            "is_mixed": pa.array(mixed.astype(np.int64), pa.int64()),
        })

    return documents_ds(sf_dir).map_batches(_audit, batch_format="pyarrow")


# ------------------------------------------- late-interaction (MaxSim)

MAXSIM_SLOTS = 4       # hash slots per token vector (4 nonzero dims)


def _token_slot_vecs(tokens: list[str]) -> np.ndarray:
    """(len(tokens), HASH_DIM) int64 token vectors: each token gets
    MAXSIM_SLOTS ±1 entries at dims h64(f"{s}:{tok}") % HASH_DIM (same
    md5 hash family and sign bit as the doc-level hashing trick); slot
    collisions within a token accumulate (±2 / 0), exactly as the SQL
    replay's per-(tok, dim) sum does."""
    V = np.zeros((len(tokens), HASH_DIM), dtype=np.int64)
    if not tokens:
        return V
    for s in range(MAXSIM_SLOTS):
        h = H.h64_many([f"{s}:{t}" for t in tokens])
        dim = (h % np.uint64(HASH_DIM)).astype(np.int64)
        sign = np.where(((h >> np.uint64(_SIGN_BIT)) & np.uint64(1)) == 1,
                        -1, 1).astype(np.int64)
        np.add.at(V, (np.arange(len(tokens)), dim), sign)
    return V


def q_maxsim_top10(sf_dir: str, k: int = 10) -> pa.Table:
    """Late-interaction retrieval (the ColBERT MaxSim PLAN, Khattab &
    Zaharia SIGIR'20, with a model-free token-vector source): every
    token — query and document — gets a MAXSIM_SLOTS-sparse ±1 hash
    vector, and score(q, d) = Σ_{t∈q} max(0, max_{w∈d} ⟨v_t, v_w⟩):
    per-query-token MAXIMUM over the doc's token vectors, summed —
    token-level matching that survives the bottleneck better than one
    pooled doc vector (q_hashed_mips_top10 is exactly that pooled
    twin). All-integer arithmetic, so the late-interaction aggregation
    itself is value-verified. Top-10 per query by (score desc, doc_id
    asc), docs with score > 0.

    Shape: broadcast (query-token matrix, query ids); per batch ONE
    factorize over distinct doc tokens, one (uniq-tokens × q-tokens)
    integer matmul, per-doc per-query-token max via maximum.reduceat,
    relu + per-query sum, per-batch partial top-k; the driver folds
    k × Q × n_batches partial rows. No shuffle."""
    import pandas as pd

    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.pipelines.docquery import DOC_QUERIES

    q_ids, q_toks = [], []
    for qid, text in DOC_QUERIES:
        for t in sorted(set(tokenize_text(text))):
            q_ids.append(qid)
            q_toks.append(t)
    qtv = _token_slot_vecs(q_toks)              # (QT, DIM)
    qid_rows = np.asarray(q_ids, np.int64)
    qorder = np.argsort(qid_rows, kind="stable")
    qtv, qid_rows = qtv[qorder], qid_rows[qorder]
    qstarts = run_starts(qid_rows)
    uniq_qids = qid_rows[qstarts]
    ref = ray.put((qtv, qstarts, uniq_qids))

    def _partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "doc_id": pa.array([], pa.int64()),
                          "score": pa.array([], pa.int64())})
        token_lists = tokenize_many(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        pairs = sorted({(i, t) for i, toks in enumerate(token_lists)
                        for t in toks})
        if not pairs:
            return empty
        didx = np.asarray([p[0] for p in pairs], np.int64)
        toks = [p[1] for p in pairs]
        codes, uniq = pd.factorize(np.asarray(toks, object))
        qm, qst, qids_u = ray.get(ref)
        D = _token_slot_vecs(list(uniq)) @ qm.T   # (U, QT)
        rows = D[codes]                           # (pairs, QT) doc-sorted
        dstarts = run_starts(didx)
        M = np.maximum.reduceat(rows, dstarts, axis=0)  # (docs, QT)
        S = np.add.reduceat(np.maximum(M, 0), qst, axis=1)  # (docs, Q)
        batch_docs = doc_ids[didx[dstarts]]
        out_q, out_d, out_s = [], [], []
        for j in range(qids_u.size):
            s = S[:, j]
            pos = s > 0
            if not pos.any():
                continue
            cd, cs = batch_docs[pos], s[pos]
            top = np.lexsort((cd, -cs))[:k]
            out_q.append(np.full(top.size, qids_u[j], np.int64))
            out_d.append(cd[top])
            out_s.append(cs[top])
        if not out_q:
            return empty
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
            "score": pa.array(np.concatenate(out_s), pa.int64()),
        })

    parts = (documents_ds(sf_dir)
             .map_batches(_partial, batch_format="pyarrow")
             .take_all())  # <= k x Q x n_batches rows
    qs, rk, ds_, ss = [], [], [], []
    by_q: dict[int, list[tuple[int, int]]] = {}
    for r in parts:
        by_q.setdefault(int(r["query_id"]), []).append(
            (int(r["doc_id"]), int(r["score"])))
    for qid in sorted(by_q):
        cand = by_q[qid]
        cand.sort(key=lambda t: (-t[1], t[0]))
        for rank, (d, s) in enumerate(cand[:k], 1):
            qs.append(qid)
            rk.append(rank)
            ds_.append(d)
            ss.append(s)
    return pa.table({
        "query_id": pa.array(qs, pa.int64()),
        "rank": pa.array(rk, pa.int64()),
        "doc_id": pa.array(ds_, pa.int64()),
        "score": pa.array(ss, pa.int64()),
    })


# ------------------------------------------------- exact decision stump

STUMP_FEATURES = ("n_chars", "n_tokens", "n_types")


def q_decision_stump(sf_dir: str) -> pa.Table:
    """Exact best-split decision stump — the CART/boosting base
    learner, trained distributed: label y = (lang = 'en'), integer
    features (n_chars, kept-token count, distinct-token count); for
    every feature the best threshold minimizes EXACT 0-1 loss
    min(p_l, n_l) + min(p_r, n_r) over the split x <= t vs x > t,
    candidate thresholds = the feature's distinct values, ties by
    smaller threshold. Output one row per feature (its best split,
    errors and per-side majority labels) — integer counts only, so the
    trained model itself hash-verifies.

    Shape: per-batch (feature, value) → (pos, neg) count partials →
    ONE groupby(feature, value).sum (O(distinct values) rows — the
    sufficient statistic for 0-1-loss splitting) → per-feature prefix
    scan in a 3-group map_groups. The corpus is read once; nothing
    driver-side scales with it."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        y = (np.asarray(batch.column("lang").to_pylist(), dtype=object)
             == "en").astype(np.int64)
        feats = {
            "n_chars": batch.column("n_chars").to_numpy().astype(np.int64),
            "n_tokens": np.fromiter((len(t) for t in token_lists),
                                    np.int64, len(token_lists)),
            "n_types": np.fromiter((len(set(t)) for t in token_lists),
                                   np.int64, len(token_lists)),
        }
        out_f, out_v, out_p, out_n = [], [], [], []
        for name in STUMP_FEATURES:
            v = feats[name]
            uk, p, c = group_sum(v, y, np.ones(v.size, np.int64))
            out_f.extend([name] * uk.size)
            out_v.extend(uk.tolist())
            out_p.extend(p.tolist())
            out_n.extend((c - p).tolist())
        return pa.table({
            "feature": pa.array(out_f, pa.string()),
            "value": pa.array(out_v, pa.int64()),
            "p": pa.array(out_p, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
        })

    def _best(group: pa.Table) -> pa.Table:
        v = group.column("value").to_numpy().astype(np.int64)
        p = group.column("p").to_numpy().astype(np.int64)
        n = group.column("n").to_numpy().astype(np.int64)
        order = np.argsort(v)
        v, p, n = v[order], p[order], n[order]
        pl, nl = np.cumsum(p), np.cumsum(n)
        pr, nr = pl[-1] - pl, nl[-1] - nl
        errors = np.minimum(pl, nl) + np.minimum(pr, nr)
        i = int(np.lexsort((v, errors))[0])     # min errors, then min t
        return pa.table({
            "feature": pa.array([group.column("feature")[0].as_py()],
                                pa.string()),
            "threshold": pa.array([int(v[i])], pa.int64()),
            "n_errors": pa.array([int(errors[i])], pa.int64()),
            "left_label": pa.array([1 if pl[i] > nl[i] else 0], pa.int64()),
            "right_label": pa.array([1 if pr[i] > nr[i] else 0], pa.int64()),
        })

    rows = (ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["text", "lang", "n_chars"])
            .map_batches(_partial, batch_format="pyarrow")
            .groupby(["feature", "value"])
            .aggregate(Sum("p", alias_name="p"), Sum("n", alias_name="n"))
            .groupby("feature").map_groups(_best, batch_format="pyarrow")
            .take_all())
    rows.sort(key=lambda r: r["feature"])
    return pa.table({
        "feature": pa.array([r["feature"] for r in rows], pa.string()),
        "threshold": pa.array([r["threshold"] for r in rows], pa.int64()),
        "n_errors": pa.array([r["n_errors"] for r in rows], pa.int64()),
        "left_label": pa.array([r["left_label"] for r in rows], pa.int64()),
        "right_label": pa.array([r["right_label"] for r in rows],
                                pa.int64()),
    })


# ------------------------------------------------- readability scoring

def q_readability(sf_dir: str) -> ray.data.Dataset:
    """Flesch reading-ease per document as an EXACT rational — the
    classic readability feature next to the length/punct heuristics of
    q_text_stats: words = maximal [a-z]+ runs of the lowercased text,
    sentences = [.!?]+ runs, syllables = vowel-group count with a
    min-1-per-word floor (vowel-less words count one syllable, added
    as words - words_with_vowel). The score 206.835 - 1.015·W/S -
    84.6·Y/W is emitted as an integer (num, den) pair over the common
    denominator 1000·S·W — no float division, so the feature
    hash-verifies; consumers divide (or threshold by
    cross-multiplication). S and W floor at 1 so empty docs are
    defined.

    Shape: pure streaming map — four compiled RE2 count kernels per
    batch (pyarrow count_substring_regex, the same RE2 DuckDB runs),
    no Python loop, no shuffle."""
    import pyarrow.compute as pc

    def _read(batch: pa.Table) -> pa.Table:
        doc_id = batch.column("doc_id").cast(pa.int64())
        lower = pc.utf8_lower(batch.column("text"))
        w = pc.count_substring_regex(lower, "[a-z]+").to_numpy().astype(
            np.int64)
        wv = pc.count_substring_regex(
            lower, "[a-z]*[aeiouy][a-z]*").to_numpy().astype(np.int64)
        y = pc.count_substring_regex(
            lower, "[aeiouy]+").to_numpy().astype(np.int64) + (w - wv)
        s = pc.count_substring_regex(
            batch.column("text"), r"[.!?]+").to_numpy().astype(np.int64)
        w1 = np.maximum(w, 1)
        s1 = np.maximum(s, 1)
        num = 206835 * s1 * w1 - 1015 * w1 * w1 - 84600 * y * s1
        return pa.table({
            "doc_id": doc_id,
            "n_words": pa.array(w, pa.int64()),
            "n_sentences": pa.array(s, pa.int64()),
            "n_syllables": pa.array(y, pa.int64()),
            "flesch_num": pa.array(num, pa.int64()),
            "flesch_den": pa.array(1000 * s1 * w1, pa.int64()),
        })

    return documents_ds(sf_dir).map_batches(_read, batch_format="pyarrow")


# ---------------------------------------------------- term-drift audit

DF_DRIFT_TOPK = 50


def q_df_drift(sf_dir: str, k_out: int = DF_DRIFT_TOPK) -> pa.Table:
    """Vocabulary drift between two corpus snapshots (first/second half
    by doc_id — the same split convention as asof_bm25_topk): per term,
    document frequency in each half, ranked by the EXACT cross-
    multiplied rate difference |df_a·n_b − df_b·n_a| (the χ²-style
    drift numerator with no division — a term used proportionally more
    in one half scores high). The text-side distribution-drift
    diagnostic next to label_centroid_dist (embeddings) and
    snapshot_diff (rows): detects topic/source composition shifts
    between ingests.

    Shape: per-batch (term, half) distinct-doc count partials → ONE
    groupby(term) merge → a pure map computes the drift → dataset-side
    sort/limit. O(vocabulary) rows after the merge."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        half = batch.column("is_b").to_numpy().astype(np.int64)
        toks, halves = [], []
        for i, tl in enumerate(token_lists):
            u = set(tl)
            toks.extend(u)
            halves.extend([half[i]] * len(u))
        if not toks:
            return pa.table({"tok": pa.array([], pa.string()),
                             "df_a": pa.array([], pa.int64()),
                             "df_b": pa.array([], pa.int64())})
        ta = np.asarray(toks, object)
        hb = np.asarray(halves, np.int64)
        u, da, db = group_sum(ta, hb == 0, hb == 1)
        return pa.table({"tok": pa.array(u.tolist(), pa.string()),
                         "df_a": pa.array(da, pa.int64()),
                         "df_b": pa.array(db, pa.int64())})

    import pyarrow.compute as pc

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"])
    n_total = docs.count()
    n_a = n_total // 2          # doc_id < n_total // 2 -> half A
    n_b = n_total - n_a

    merged = (docs.map_batches(
        lambda b: b.append_column(
            "is_b", pc.cast(pc.greater_equal(
                b.column("doc_id"), n_a), pa.int64())),
        batch_format="pyarrow")
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("tok")
        .aggregate(Sum("df_a", alias_name="df_a"),
                   Sum("df_b", alias_name="df_b")))

    def _drift(batch: pa.Table) -> pa.Table:
        da = batch.column("df_a").to_numpy().astype(np.int64)
        db = batch.column("df_b").to_numpy().astype(np.int64)
        return batch.append_column(
            "drift_num", pa.array(np.abs(da * n_b - db * n_a), pa.int64()))

    top = (merged.map_batches(_drift, batch_format="pyarrow")
           .sort(key=["drift_num", "tok"], descending=[True, False])
           .limit(k_out)
           .take_all())
    return pa.table({
        "tok": pa.array([r["tok"] for r in top], pa.string()),
        "df_a": pa.array([r["df_a"] for r in top], pa.int64()),
        "df_b": pa.array([r["df_b"] for r in top], pa.int64()),
        "drift_num": pa.array([r["drift_num"] for r in top], pa.int64()),
    })


# ------------------------------------- sorted-neighborhood (SNM) blocking

SNM_W = 4        # sliding window over the sorted key order
SNM_K = 4        # verify threshold (edit distance; the synthetic
                 # names are 'color noun' — nearest window pairs
                 # sit at ed 3-4, so 4 keeps real matches)
SNM_GROUP = 512  # ranks per window bucket (>> SNM_W)


def q_snm_pairs(sf_dir: str, w: int = SNM_W,
                k: int = SNM_K) -> ray.data.Dataset:
    """Sorted-neighborhood entity-resolution blocking (Hernández &
    Stolfo SIGMOD'95 merge/purge): DISTINCT part names sort globally;
    every pair within a window of `w` consecutive sorted positions is a
    candidate; candidates verify with the exact Myers bit-parallel
    edit distance (<= k kept). The classic alternative BLOCKING
    strategy to q_fuzzy_name_pairs' q-gram prefix filter — window
    candidates are O(n·w) regardless of gram skew, at the cost of
    missing pairs that sort far apart.

    Shape: distinct-name groupby → ONE distributed sort + the
    range-blocked rank pattern → each row lands in its rank-bucket
    (and the previous bucket when within w-1 of the boundary, so every
    window pair is owned by exactly one bucket — its LEFT element's) →
    per-bucket window expansion + one vectorized _ed_many verify.
    Output (name_a, name_b, ed), name_a < name_b in sort order."""
    from ray.data.aggregate import Count

    from candidategeneration_ray.stages.docids import blocked_prefix_apply

    g = SNM_GROUP

    names = (ray.data.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_name"])
        .groupby("p_name").aggregate(Count(alias_name="_c"))
        .select_columns(["p_name"]))

    def _emit(t: pa.Table, base: int) -> pa.Table:
        if t.num_rows == 0 or "p_name" not in t.column_names:
            return pa.table({"nm": pa.array([], pa.string()),
                             "r": pa.array([], pa.int64())})
        return pa.table({
            "nm": t.column("p_name"),
            "r": pa.array(base + 1 + np.arange(t.num_rows, dtype=np.int64),
                          pa.int64()),
        })

    ranked = blocked_prefix_apply(names.sort(key=["p_name"]), 16,
                                  lambda t: t.num_rows, _emit)

    def _buckets(batch: pa.Table) -> pa.Table:
        nm = np.asarray(batch.column("nm").to_pylist(), object)
        r = batch.column("r").to_numpy().astype(np.int64)
        own = r // g
        out_nm = [nm]
        out_r = [r]
        out_b = [own]
        straddle = (r % g) <= (w - 2)
        if straddle.any():
            out_nm.append(nm[straddle])
            out_r.append(r[straddle])
            out_b.append(own[straddle] - 1)
        return pa.table({
            "bkt": pa.array(np.concatenate(out_b), pa.int64()),
            "nm": pa.array(np.concatenate(out_nm).tolist(), pa.string()),
            "r": pa.array(np.concatenate(out_r), pa.int64()),
        })

    def _window_pairs(group: pa.Table) -> pa.Table:
        bkt = int(group.column("bkt")[0].as_py())
        nm = np.asarray(group.column("nm").to_pylist(), object)
        r = group.column("r").to_numpy().astype(np.int64)
        order = np.argsort(r)
        nm, r = nm[order], r[order]
        a_list, b_list = [], []
        for i in range(r.size):
            if r[i] // g != bkt:        # replicated row: right-side only
                continue
            for j in range(i + 1, r.size):
                if r[j] - r[i] >= w:
                    break
                a_list.append(nm[i])
                b_list.append(nm[j])
        empty = pa.table({"name_a": pa.array([], pa.string()),
                          "name_b": pa.array([], pa.string()),
                          "ed": pa.array([], pa.int64())})
        if not a_list:
            return empty
        ed = _ed_many(a_list, b_list)
        keep = ed <= k
        if not keep.any():
            return empty
        ki = np.flatnonzero(keep)
        return pa.table({
            "name_a": pa.array([a_list[i] for i in ki], pa.string()),
            "name_b": pa.array([b_list[i] for i in ki], pa.string()),
            "ed": pa.array(ed[ki], pa.int64()),
        })

    return (ranked.map_batches(_buckets, batch_format="pyarrow")
            .groupby("bkt")
            .map_groups(_window_pairs, batch_format="pyarrow"))


L_DIVERSITY = 3


def q_l_diversity(sf_dir: str, l_min: int = L_DIVERSITY,
                  char_bucket: int = K_ANON_CHAR_BUCKET,
                  per_lang: "ray.data.Dataset | None" = None
                  ) -> ray.data.Dataset:
    """l-diversity audit (Machanavajjhala et al. ICDE'06) — the
    attribute-disclosure companion of q_k_anonymity: for each
    quasi-identifier group (source, n_chars // bucket), the number of
    DISTINCT sensitive values (lang) must reach l; a group where it
    doesn't lets an attacker infer the sensitive attribute even when
    the group is large. Output one row per violating group with its
    size and diversity count.

    Shape: per-batch compressed (qid, lang, count) partials → one
    groupby to distinct (qid, lang) rows → one groupby to per-qid
    (Σdocs, #langs) → size filter (the triad-shared _qi_lang_counts).
    Shuffles move distinct combinations only."""
    from ray.data.aggregate import Count, Sum

    if per_lang is None:
        per_lang = _qi_lang_counts(sf_dir, char_bucket)

    agg = (per_lang
           .groupby(["source", "chars_bucket"])
           .aggregate(Sum("n_docs", alias_name="n_docs"),
                      Count(alias_name="n_langs")))

    def _violations(batch: pa.Table) -> pa.Table:
        nl = batch.column("n_langs").to_numpy().astype(np.int64)
        out = batch.filter(pa.array(nl < l_min))
        return pa.table({
            "source": out.column("source"),
            "chars_bucket": out.column("chars_bucket").cast(pa.int64()),
            "n_docs": out.column("n_docs").cast(pa.int64()),
            "n_langs": out.column("n_langs").cast(pa.int64()),
        })

    return agg.map_batches(_violations, batch_format="pyarrow")


T_CLOSENESS_PPM = 333333   # groups with TVD > 1/3 (ppm floor) violate


def q_t_closeness(sf_dir: str,
                  char_bucket: int = K_ANON_CHAR_BUCKET,
                  per_lang: "ray.data.Dataset | None" = None
                  ) -> ray.data.Dataset:
    """t-closeness audit (Li, Li & Venkatasubramanian ICDE'07) — the
    third member of the release-privacy triad: a quasi-identifier
    group (source, n_chars // bucket) leaks the sensitive attribute
    (lang) when its within-group distribution strays from the GLOBAL
    one, even if the group is large (k-anonymous) and diverse
    (l-diverse). Distance is the total variation distance (the
    categorical-attribute t-closeness metric), kept exact:
    TVD = Σ_l |c_l/n − C_l/N| / 2, emitted as the ppm floor
    tvd_ppm = 10⁶·Σ_l |N·c_l − n·C_l| // (2·n·N) (Python/HUGEINT
    bigints — n·N passes 2^63 at corpus scale), with
    violates = tvd_ppm > T_CLOSENESS_PPM. Output one row per group.

    Shape: the shared (lang, qi) compressed partials → one groupby to
    distinct combinations; global lang counts are an O(langs)
    broadcast; one map_groups per qi group computes the TVD against
    the broadcast marginal. Shuffles move distinct combinations,
    never documents."""
    from ray.data.aggregate import Sum

    if per_lang is None:
        per_lang = _qi_lang_counts(sf_dir, char_bucket).materialize()

    gl = (per_lang.groupby("lang")
          .aggregate(Sum("n_docs", alias_name="c")).take_all())
    glangs = np.array(sorted(r["lang"] for r in gl), dtype=object)
    gcounts = np.array([next(int(r["c"]) for r in gl
                             if r["lang"] == s) for s in glangs], np.int64)
    n_total = int(gcounts.sum())
    gref = ray.put((glangs, gcounts, n_total))

    def _tvd(group: pa.Table) -> pa.Table:
        gls, gcs, nt = ray.get(gref)
        langs = group.column("lang").to_numpy(zero_copy_only=False)
        c = group.column("n_docs").to_numpy().astype(np.int64)
        n = int(c.sum())
        li = np.searchsorted(gls, langs)
        present = [int(x) for x in gcs[li]]
        # absent langs contribute n·C_l each; fold them as
        # Σ_present (|N·c − n·C| − n·C) + n·N  (all Python bigints)
        num = n * nt + sum(abs(nt * int(cc) - n * pc) - n * pc
                           for cc, pc in zip(c, present))
        ppm = 10 ** 6 * num // (2 * n * nt)
        return pa.table({
            "source": group.take([0]).column("source"),
            "chars_bucket":
                group.take([0]).column("chars_bucket").cast(pa.int64()),
            "n_docs": pa.array([n], pa.int64()),
            "tvd_ppm": pa.array([ppm], pa.int64()),
            "violates": pa.array(
                [1 if ppm > T_CLOSENESS_PPM else 0], pa.int64()),
        })

    return (per_lang.groupby(["source", "chars_bucket"])
            .map_groups(_tvd, batch_format="pyarrow"))


# ---------------------------------------------------- character entropy

ENTROPY_LUT_MAX = 1024


def entropy_ln_lut() -> list[int]:
    """round(ln(c)·1e9) for c = 1..ENTROPY_LUT_MAX — the bounded-domain
    scaled-ln table (the hll_ln_lut / aa_weight_lut trick) shared by
    the engine and the inlined SQL VALUES, so Shannon entropy over
    counts <= the cap is pure integer arithmetic."""
    c = np.arange(1, ENTROPY_LUT_MAX + 1, dtype=np.float64)
    return [int(x) for x in np.round(np.log(c) * 1e9)]


def q_char_entropy(sf_dir: str) -> ray.data.Dataset:
    """Per-document Shannon character entropy — the gibberish /
    base64-blob detector quality scoring stacks on length heuristics:
    with per-doc ASCII character counts c_i (n = Σc_i),

        entropy_num = Σ c_i·(lnppb(n) − lnppb(c_i))   [= n·H·1e9 nats]

    over the shared integer LUT, so the feature hash-verifies; the
    consumer divides by n·1e9. Docs longer than ENTROPY_LUT_MAX ASCII
    chars raise (widen the LUT — it is O(cap) rows).

    Shape: pure streaming map — one byte-level bincount per batch (a
    batch-global scatter over doc×byte keys, no per-char Python), no
    shuffle. Output (doc_id, n_ascii, entropy_num)."""
    lut = np.zeros(ENTROPY_LUT_MAX + 1, np.int64)
    lut[1:] = np.asarray(entropy_ln_lut(), np.int64)

    def _ent(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        enc = [t.encode("utf-8") for t in texts]
        lens = np.fromiter((len(e) for e in enc), np.int64, len(enc))
        flat = np.frombuffer(b"".join(enc), np.uint8)
        didx = np.repeat(np.arange(len(enc), dtype=np.int64), lens)
        ascii_m = flat < 128
        key = didx[ascii_m] * 128 + flat[ascii_m]
        uk, cnt = np.unique(key, return_counts=True)
        kd = uk // 128
        n = np.zeros(len(enc), np.int64)
        np.add.at(n, kd, cnt)
        if n.size and int(n.max()) > ENTROPY_LUT_MAX:
            raise ValueError("doc exceeds ENTROPY_LUT_MAX ASCII chars — "
                             "widen the LUT")
        num = np.zeros(len(enc), np.int64)
        np.add.at(num, kd, cnt * (lut[n[kd]] - lut[cnt]))
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "n_ascii": pa.array(n, pa.int64()),
            "entropy_num": pa.array(num, pa.int64()),
        })

    return documents_ds(sf_dir).map_batches(_ent, batch_format="pyarrow")


# --------------------------------------------------- release gate report

def q_release_report(sf_dir: str) -> pa.Table:
    """Data-release gate — ONE report row per audit subsystem, the
    go/no-go summary a corpus release pipeline publishes:

        k_anonymity    violating QI groups        (pass = 0)
        l_diversity    low-diversity QI groups    (pass = 0)
        t_closeness    distribution-leaking QI groups (pass = 0)
        fk_orphans     orphan child rows, 5 edges (pass = 0)
        fd_violations  violating determinant keys (pass = 0)
        corpus_digest  Σ stratum digests mod 2^40 (informational)

    The oracle COMPOSES all six subsystems' standalone oracle SQL as
    derived tables, so the driver hash-checks the cross-subsystem
    WIRING — the same composition proof pattern as judgment_pool
    (four rankers) and pretrain_select (four stages).

    Shape: each input is an already-audited pipeline whose OUTPUT is
    tiny (violating groups / 5 edges / strata rows); the six
    subsystems are INDEPENDENT, so their plans are built on the main
    thread (Ray's path resolution lazily imports fsspec modules whose
    half-initialized state raises a bare ImportError that path_util's
    `except ModuleNotFoundError` misses — the pre-import below makes
    concurrent starts deterministic) and DRAIN CONCURRENTLY; the
    report fold is driver-side arithmetic over the tiny summaries
    (round 3 ran them back-to-back: 44 s of serial pipelines for a
    6-row answer)."""
    from concurrent.futures import ThreadPoolExecutor

    from candidategeneration_ray.pipelines import relational as rl

    try:  # pre-warm the lazy import Ray's path_util races on
        import fsspec.implementations.http  # noqa: F401
    except Exception:
        pass

    # ONE materialized QI aggregate feeds the whole privacy triad
    per_lang = _qi_lang_counts(sf_dir, K_ANON_CHAR_BUCKET).materialize()
    ka_ds = q_k_anonymity(sf_dir, per_lang=per_lang)
    ld_ds = q_l_diversity(sf_dir, per_lang=per_lang)
    tc_ds = q_t_closeness(sf_dir, per_lang=per_lang)
    fk_ds = rl.q_fk_audit(sf_dir)
    dg_ds = q_corpus_digest(sf_dir)
    with ThreadPoolExecutor(max_workers=6) as pool:
        f_ka = pool.submit(ka_ds.count)
        f_ld = pool.submit(ld_ds.count)
        f_tc = pool.submit(tc_ds.to_pandas)
        f_fk = pool.submit(fk_ds.to_pandas)
        f_dg = pool.submit(dg_ds.to_pandas)
        f_fd = pool.submit(rl.q_fd_audit, sf_dir)
        ka = int(f_ka.result())
        ld = int(f_ld.result())
        fk_orphans = int(f_fk.result()["n_orphans"].sum())
        fd_viol = int(f_fd.result().to_pandas()["n_violating_keys"].sum())
        digest = int(f_dg.result()["digest"].sum()) % (1 << 40)
        tviol = int((f_tc.result()["violates"] == 1).sum())
    checks = [
        ("corpus_digest", digest, 1),
        ("fd_violations", fd_viol, 1 if fd_viol == 0 else 0),
        ("fk_orphans", fk_orphans, 1 if fk_orphans == 0 else 0),
        ("k_anonymity", ka, 1 if ka == 0 else 0),
        ("l_diversity", ld, 1 if ld == 0 else 0),
        ("t_closeness", tviol, 1 if tviol == 0 else 0),
    ]
    return pa.table({
        "check": pa.array([c[0] for c in checks], pa.string()),
        "metric": pa.array([c[1] for c in checks], pa.int64()),
        "passed": pa.array([c[2] for c in checks], pa.int64()),
    })


def _tdiv(a: int, b: int) -> int:
    """DuckDB `//` truncates toward zero for mixed signs; Python //
    floors — the shared exact-arithmetic shim (used by the Cramer
    ridge solve and the GBDT leaf means)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _score_label_partial(batch: pa.Table, scale: int) -> pa.Table:
    """(stopword-ratio score bin, positive count, negative count)
    partials shared by the classifier-eval entries (exact AUC,
    isotonic calibration): score = (scale·n_stop) // max(n_words, 1),
    label = (lang == 'en'); one np.unique + two scatters per batch."""
    t = _textstats(batch)
    n_words = t.column("n_words").to_numpy()
    n_stop = t.column("n_stop").to_numpy()
    sc = (scale * n_stop) // np.maximum(n_words, 1)
    y = (np.asarray(batch.column("lang").to_pylist(), dtype=object)
         == "en")
    u, pos, neg = group_sum(sc, y, ~y)
    return pa.table({"s": pa.array(u, pa.int64()),
                     "pos": pa.array(pos, pa.int64()),
                     "neg": pa.array(neg, pa.int64())})


def q_auc_eval(sf_dir: str) -> pa.Table:
    """Exact ROC-AUC (Mann-Whitney U with midrank tie handling) for the
    stopword-density English score against the lang label — the
    classifier-evaluation aggregate (decision_stump's missing twin:
    that entry trains, this one scores). Score s = (5000*n_stop) //
    max(n_words, 1) (the q_langid heuristic as a graded score, ties
    common by construction); label y = (lang = 'en').

        u2 = sum_s pos_s * (2*cumneg_below(s) + neg_s)   [= 2*U]
        AUC = u2 / (2 * n_pos * n_neg)

    Every quantity is an integer (ties contribute exactly 1 per pair),
    so the evaluation hash-verifies; auc_ppm = the parts-per-million
    floor quotient. Output one row (n_pos, n_neg, u2, auc_ppm).

    Shape: per-batch (s, pos, neg) partials -> groupby(s).sum over the
    bounded score domain (s in [0, 5000]) -> an O(domain) driver
    finalizer in exact Python ints (u2 <= 2*n_pos*n_neg needs bigints
    past ~3e9 docs; the int64 OUTPUT column is the documented bound)."""
    from ray.data.aggregate import Sum

    agg = (ray.data.read_parquet(
               os.path.join(sf_dir, "documents.parquet"),
               columns=["doc_id", "text", "lang"])
           .map_batches(lambda b: _score_label_partial(b, 5000),
                        batch_format="pyarrow")
           .groupby("s")
           .aggregate(Sum("pos", alias_name="pos"),
                      Sum("neg", alias_name="neg"))
           .to_pandas())
    agg = agg.sort_values("s", kind="mergesort")
    pos = [int(x) for x in agg["pos"]]
    neg = [int(x) for x in agg["neg"]]
    n_pos, n_neg = sum(pos), sum(neg)
    u2, cneg = 0, 0
    for p, ng in zip(pos, neg):
        u2 += p * (2 * cneg + ng)
        cneg += ng
    auc_ppm = ((1_000_000 * u2) // (2 * n_pos * n_neg)
               if n_pos and n_neg else -1)
    return pa.table({
        "n_pos": pa.array([n_pos], pa.int64()),
        "n_neg": pa.array([n_neg], pa.int64()),
        "u2": pa.array([u2], pa.int64()),
        "auc_ppm": pa.array([auc_ppm], pa.int64()),
    })


RIDGE_LAMBDA = 1000


def q_ridge_regression(sf_dir: str, lam: int = RIDGE_LAMBDA) -> pa.Table:
    """Multivariate ridge regression in closed form — predict n_chars
    from [1, n_words, n_punct_chars] by solving the 3×3 normal
    equations (X'X + λI)β = X'y with Cramer's rule in EXACT
    arbitrary-precision integers (the multivariate big sibling of
    q_source_regression's single-feature OLS). β arrives as ppm
    truncating quotients det_i·10⁶ / det (toward-zero division — the
    DuckDB `//` convention, emulated exactly on negatives), so the
    trained model hash-verifies with no float linear algebra.

    Shape: per-batch integer moment partials (9 sums + n, one row per
    batch) -> driver sum -> O(1) bigint Cramer finalize; only the
    sufficient statistics cross the wire."""
    def _moments(batch: pa.Table) -> pa.Table:
        t = _textstats(batch)
        x1 = t.column("n_words").to_numpy().astype(np.int64)
        x2 = t.column("n_punct_chars").to_numpy().astype(np.int64)
        y = t.column("n_chars").to_numpy().astype(np.int64)
        vals = {
            "n": len(y),
            "sx1": int(x1.sum()), "sx2": int(x2.sum()),
            "sx11": int((x1 * x1).sum()), "sx12": int((x1 * x2).sum()),
            "sx22": int((x2 * x2).sum()),
            "sy": int(y.sum()), "sx1y": int((x1 * y).sum()),
            "sx2y": int((x2 * y).sum()),
        }
        return pa.table({k: pa.array([v], pa.int64())
                         for k, v in vals.items()})

    parts = (ray.data.read_parquet(
                 os.path.join(sf_dir, "documents.parquet"),
                 columns=["doc_id", "text"])
             .map_batches(_moments, batch_format="pyarrow").take_all())
    m = {k: sum(int(r[k]) for r in parts) for k in parts[0]}

    a = [[m["n"] + lam, m["sx1"], m["sx2"]],
         [m["sx1"], m["sx11"] + lam, m["sx12"]],
         [m["sx2"], m["sx12"], m["sx22"] + lam]]
    b = [m["sy"], m["sx1y"], m["sx2y"]]

    def _det3(mm) -> int:
        return (mm[0][0] * (mm[1][1] * mm[2][2] - mm[1][2] * mm[2][1])
                - mm[0][1] * (mm[1][0] * mm[2][2] - mm[1][2] * mm[2][0])
                + mm[0][2] * (mm[1][0] * mm[2][1] - mm[1][1] * mm[2][0]))

    det = _det3(a)
    betas = []
    for j in range(3):
        aj = [row[:] for row in a]
        for i in range(3):
            aj[i][j] = b[i]
        betas.append(_tdiv(1_000_000 * _det3(aj), det) if det else 0)
    return pa.table({
        "n": pa.array([m["n"]], pa.int64()),
        "lam": pa.array([lam], pa.int64()),
        "beta0_ppm": pa.array([betas[0]], pa.int64()),
        "beta1_ppm": pa.array([betas[1]], pa.int64()),
        "beta2_ppm": pa.array([betas[2]], pa.int64()),
    })


# --------------------------------------- gradient-boosted stumps (GBM)

GBDT_ROUNDS = 3
GBDT_SCALE = 1000            # residuals in permille units
GBDT_FEATURES = ("n_punct_chars", "n_stop", "n_words")


def q_gbdt_model(sf_dir: str, rounds: int = GBDT_ROUNDS) -> pa.Table:
    """Gradient-boosted regression stumps — Friedman's GBM with
    squared loss and depth-1 trees, made hash-verifiable by keeping
    every quantity an integer: residuals live in permille units
    (r0 = 1000·n_chars), each leaf value is the toward-zero-truncated
    mean of its side's residuals (the DuckDB `//` convention), and the
    split criterion is the EXACT integer SSE of those truncated
    leaves, Σr² − 2·leaf·Σr + n·leaf² per side (an empty right side
    contributes leaf 0 / sse 0). Candidate thresholds are the
    feature's distinct values; ties break on (sse, feature, threshold)
    ascending. Because a zero leaf is always dominated by the
    truncated mean (a·(2S − n·a) ≥ 0 for a = trunc(S/n)), the train
    SSE is non-increasing across rounds — asserted in tests. Features:
    the q_text_stats integers (n_punct_chars, n_stop, n_words);
    target n_chars.

    Shape: one corpus pass per round (the model so far is a tiny
    broadcast list; residuals are recomputed per batch) emitting
    per-(feature, value) partials (cnt, Σr, Σr²) → ONE
    groupby(feature, value).sum to O(distinct values) rows — the
    sufficient statistic for SSE splitting — → an exact Python-int
    prefix scan on the driver. Nothing driver-side scales with the
    corpus; int64 partials bound the corpus at ~10⁸ docs per the Σr²
    column (documented; split hi/lo words past that)."""
    from ray.data.aggregate import Sum

    model: list[tuple[str, int, int, int]] = []
    out = {"round": [], "feature": [], "threshold": [],
           "leaf_l": [], "leaf_r": [], "sse": []}

    for t in range(1, rounds + 1):
        frozen = list(model)

        def _partial(batch: pa.Table,
                     _m=frozen) -> pa.Table:
            ts = _textstats(batch)
            feats = {f: ts.column(f).to_numpy().astype(np.int64)
                     for f in GBDT_FEATURES}
            r = GBDT_SCALE * ts.column("n_chars").to_numpy().astype(
                np.int64)
            for mf, mt, ll, lr in _m:
                r = r - np.where(feats[mf] <= mt, ll, lr)
            out_f, out_v, out_c, out_s1, out_s2 = [], [], [], [], []
            for name in GBDT_FEATURES:
                v = feats[name]
                uk, c, s1, s2 = group_sum(v, np.ones(v.size, np.int64),
                                          r, r * r)
                out_f.extend([name] * uk.size)
                out_v.extend(uk.tolist())
                out_c.extend(c.tolist())
                out_s1.extend(s1.tolist())
                out_s2.extend(s2.tolist())
            return pa.table({
                "feature": pa.array(out_f, pa.string()),
                "value": pa.array(out_v, pa.int64()),
                "cnt": pa.array(out_c, pa.int64()),
                "s1": pa.array(out_s1, pa.int64()),
                "s2": pa.array(out_s2, pa.int64()),
            })

        rows = (documents_ds(sf_dir)
                .map_batches(_partial, batch_format="pyarrow")
                .groupby(["feature", "value"])
                .aggregate(Sum("cnt", alias_name="cnt"),
                           Sum("s1", alias_name="s1"),
                           Sum("s2", alias_name="s2"))
                .take_all())
        # exact Python-int prefix scan per feature (tiny table)
        best = None          # (sse, feature, threshold, leaf_l, leaf_r)
        for name in sorted({r["feature"] for r in rows}):
            sub = sorted((int(r["value"]), int(r["cnt"]),
                          int(r["s1"]), int(r["s2"]))
                         for r in rows if r["feature"] == name)
            nt = sum(x[1] for x in sub)
            st1 = sum(x[2] for x in sub)
            st2 = sum(x[3] for x in sub)
            nl = sl1 = sl2 = 0
            for v, c, s1, s2 in sub:
                nl, sl1, sl2 = nl + c, sl1 + s1, sl2 + s2
                nr, sr1, sr2 = nt - nl, st1 - sl1, st2 - sl2
                ll = _tdiv(sl1, nl)
                lr = _tdiv(sr1, nr) if nr else 0
                sse = sl2 - 2 * ll * sl1 + nl * ll * ll
                if nr:
                    sse += sr2 - 2 * lr * sr1 + nr * lr * lr
                key = (sse, name, v)
                if best is None or key < best[:3]:
                    best = (sse, name, v, ll, lr)
        sse, name, v, ll, lr = best
        model.append((name, v, ll, lr))
        out["round"].append(t)
        out["feature"].append(name)
        out["threshold"].append(v)
        out["leaf_l"].append(ll)
        out["leaf_r"].append(lr)
        out["sse"].append(sse)
    return pa.table({
        "round": pa.array(out["round"], pa.int64()),
        "feature": pa.array(out["feature"], pa.string()),
        "threshold": pa.array(out["threshold"], pa.int64()),
        "leaf_l": pa.array(out["leaf_l"], pa.int64()),
        "leaf_r": pa.array(out["leaf_r"], pa.int64()),
        "sse": pa.array(out["sse"], pa.int64()),
    })


# ------------------------------------------ isotonic calibration (PAVA)

ISO_BINS = 64                # stopword-ratio bin resolution
ISO_KEY_SCALE = 10 ** 12     # order-embedding scale for exact fractions


def q_isotonic_calibration(sf_dir: str) -> pa.Table:
    """Isotonic regression — the PAVA calibration curve mapping a
    bounded quality score to a nondecreasing P(lang = 'en'), computed
    by the exact minimax characterization fit(k) = max_{i<=k}
    min_{j>=k} avg(p[i..j]/n[i..j]) over the present score bins
    (score = 64·n_stop // max(n_words, 1), a bounded domain like
    q_auc_eval's). Interval averages are exact rationals compared
    through the order-embedding key (10¹²·P) // N, valid while the
    corpus holds ≤ 10⁶ docs (distinct fractions then differ by
    ≥ 1/(N·N) ≥ 10⁻¹², so scaled floors preserve strict order — the
    documented bound; raise the scale past it). Output per present
    bin: (s, n, p, fit_s12), with fit_s12 nondecreasing in s — the
    weighted-least-squares isotonic fit, bit-equal to classic
    adjacent-violators pooling (tested).

    Shape: one corpus pass → groupby(s).sum over the ≤65-value domain
    → O(bins²) exact-int minimax on the driver. The sufficient
    statistic is the bounded per-bin table; nothing driver-side
    scales with the corpus."""
    from ray.data.aggregate import Sum

    rows = (ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text", "lang"])
            .map_batches(lambda b: _score_label_partial(b, ISO_BINS),
                         batch_format="pyarrow")
            .groupby("s")
            .aggregate(Sum("pos", alias_name="pos"),
                       Sum("neg", alias_name="neg"))
            .take_all())
    rows.sort(key=lambda r: r["s"])
    for r in rows:                      # (n, p) view of the partials
        r["n"] = int(r["pos"]) + int(r["neg"])
        r["p"] = int(r["pos"])
    s = [int(r["s"]) for r in rows]
    n = [int(r["n"]) for r in rows]
    p = [int(r["p"]) for r in rows]
    b = len(s)
    cp = [0]
    cn = [0]
    for i in range(b):
        cp.append(cp[-1] + p[i])
        cn.append(cn[-1] + n[i])

    def _key(i: int, j: int) -> int:
        return (ISO_KEY_SCALE * (cp[j + 1] - cp[i])) // (cn[j + 1] - cn[i])

    # fit(k) = max_{i<=k} min_{j>=k} key(i, j): for each i, one
    # right-to-left pass yields the suffix minima over j; fold the
    # running max over i into fit as each row completes — O(b²)
    fit = [None] * b
    for i in range(b):
        suf = None
        for k in range(b - 1, i - 1, -1):
            kij = _key(i, k)
            suf = kij if suf is None else min(suf, kij)
            if fit[k] is None or suf > fit[k]:
                fit[k] = suf
    return pa.table({
        "s": pa.array(s, pa.int64()),
        "n": pa.array(n, pa.int64()),
        "p": pa.array(p, pa.int64()),
        "fit_s12": pa.array(fit, pa.int64()),
    })


# ------------------------------------- content-defined chunking (CDC)

CDC_K = 4        # tokens per rolling window
CDC_D = 8        # boundary divisor: ~1/D cut rate, mean chunk ~D tokens


def _cdc_bounds(toks: list[str]) -> list[int]:
    """Chunk boundary token-counts for one doc under basic Rabin-style
    CDC (no min/max clamps — the variant whose boundaries depend only
    on local content, so edits shift at most the two adjacent chunks):
    a cut falls AFTER token e (K <= e <= n-1) iff the window hash of
    tokens (e-K+1 .. e) is divisible by CDC_D. Returns the partition
    fenceposts [0, e1, e2, ..., n]."""
    n = len(toks)
    bounds = [0]
    if n >= CDC_K:
        hs = H.h64_many(H.word_shingles(toks, CDC_K))
        for idx in range(n - CDC_K):       # exclude the final window
            if int(hs[idx]) % CDC_D == 0:
                bounds.append(idx + CDC_K)
    bounds.append(n)
    return bounds


def q_cdc_chunks(sf_dir: str) -> ray.data.Dataset:
    """Content-defined chunking over the kept-token stream — the
    storage-dedup primitive (LBFS/FastCDC family): boundaries are
    picked where a K-token rolling hash is divisible by CDC_D, so
    identical passages chunk identically REGARDLESS of their offset
    in the doc (the property fixed-size blocks lack). Per chunk:
    (doc_id, chunk_idx, start_kpos, n_tokens, chunk_md5) with
    chunk_md5 = md5 of the space-joined chunk tokens — the
    content-addressed store key.

    Shape: pure streaming map_batches, no shuffle; the md5-per-chunk
    loop is bounded by tokens/CDC_D per doc. Docs with no kept tokens
    emit nothing."""
    import hashlib

    def _chunks(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        out = {"doc_id": [], "chunk_idx": [], "start_kpos": [],
               "n_tokens": [], "chunk_md5": []}
        for did, toks in zip(doc_ids.tolist(), token_lists):
            if not toks:
                continue
            bounds = _cdc_bounds(toks)
            for c in range(len(bounds) - 1):
                lo, hi = bounds[c], bounds[c + 1]
                out["doc_id"].append(did)
                out["chunk_idx"].append(c)
                out["start_kpos"].append(lo + 1)
                out["n_tokens"].append(hi - lo)
                out["chunk_md5"].append(
                    hashlib.md5(" ".join(toks[lo:hi]).encode())
                    .hexdigest())
        return pa.table({
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "chunk_idx": pa.array(out["chunk_idx"], pa.int64()),
            "start_kpos": pa.array(out["start_kpos"], pa.int64()),
            "n_tokens": pa.array(out["n_tokens"], pa.int64()),
            "chunk_md5": pa.array(out["chunk_md5"], pa.string()),
        })

    return documents_ds(sf_dir).map_batches(_chunks,
                                            batch_format="pyarrow")


def q_cdc_dedup_stats(sf_dir: str) -> pa.Table:
    """Chunk-level dedup accounting over the CDC chunking — what a
    content-addressed store would save: total vs distinct chunks and
    the redundant token mass Σ (occurrences − 1) · chunk_len over
    duplicate chunk groups (equal md5 ⇒ equal content ⇒ equal length).
    One output row (total_chunks, distinct_chunks, dup_chunks,
    total_tokens, redundant_tokens).

    Shape: chunk stream → ONE groupby(chunk_md5) to per-content rows
    → per-batch partial sums → O(1) driver finalize."""
    from ray.data.aggregate import Count, Min, Sum

    grouped = (q_cdc_chunks(sf_dir)
               .groupby("chunk_md5")
               .aggregate(Count(alias_name="cnt"),
                          Min("n_tokens", alias_name="len"),
                          Sum("n_tokens", alias_name="tok_sum")))

    def _part(batch: pa.Table) -> pa.Table:
        cnt = batch.column("cnt").to_numpy().astype(np.int64)
        ln = batch.column("len").to_numpy().astype(np.int64)
        tok = batch.column("tok_sum").to_numpy().astype(np.int64)
        return pa.table({
            "total_chunks": pa.array([int(cnt.sum())], pa.int64()),
            "distinct_chunks": pa.array([cnt.size], pa.int64()),
            "total_tokens": pa.array([int(tok.sum())], pa.int64()),
            "redundant_tokens": pa.array(
                [int(((cnt - 1) * ln).sum())], pa.int64()),
        })

    parts = grouped.map_batches(_part, batch_format="pyarrow").take_all()
    tc = sum(int(r["total_chunks"]) for r in parts)
    dc = sum(int(r["distinct_chunks"]) for r in parts)
    tt = sum(int(r["total_tokens"]) for r in parts)
    rt = sum(int(r["redundant_tokens"]) for r in parts)
    return pa.table({
        "total_chunks": pa.array([tc], pa.int64()),
        "distinct_chunks": pa.array([dc], pa.int64()),
        "dup_chunks": pa.array([tc - dc], pa.int64()),
        "total_tokens": pa.array([tt], pa.int64()),
        "redundant_tokens": pa.array([rt], pa.int64()),
    })


# ----------------------------------------- k-fold cross-validation (CV)

CV_FOLDS = 5


def q_cv_stump(sf_dir: str, folds: int = CV_FOLDS) -> pa.Table:
    """k-fold cross-validation of the decision stump — the
    model-selection protocol: folds are the consistent hash
    h64(doc_id) % k (the train/val-split convention), fold f's stump
    trains on the other k−1 folds by EXACT 0-1 loss (same rule and
    tie-break as q_decision_stump, argmin over (errors, feature,
    threshold)), and validates on fold f. The whole protocol needs
    ONE corpus pass: the per-(fold, feature, value) → (p, n) counts
    are a sufficient statistic for BOTH sides — each fold's train
    stats are total − fold, and its validation errors are the
    stump-side minority counts over the fold's own rows. Output one
    row per fold: (fold, feature, threshold, left_label, right_label,
    train_errors, val_errors).

    Shape: one groupby((fold, feature, value)).sum to a
    k × O(distinct values) table; the per-fold prefix scans run on
    the driver over that bounded table in exact Python ints."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        fold = (H.h64_many([str(i) for i in doc_ids.tolist()])
                % np.uint64(folds)).astype(np.int64)
        y = (np.asarray(batch.column("lang").to_pylist(), dtype=object)
             == "en").astype(np.int64)
        feats = {
            "n_chars": batch.column("n_chars").to_numpy().astype(np.int64),
            "n_tokens": np.fromiter((len(t) for t in token_lists),
                                    np.int64, len(token_lists)),
            "n_types": np.fromiter((len(set(t)) for t in token_lists),
                                   np.int64, len(token_lists)),
        }
        out_fo, out_f, out_v, out_p, out_n = [], [], [], [], []
        for name in STUMP_FEATURES:
            uk, p, c = group_sum(pack_pair(fold, feats[name]), y,
                                 np.ones(y.size, np.int64))
            ufold, uval = unpack_pair(uk)
            out_fo.extend(ufold.tolist())
            out_f.extend([name] * len(uk))
            out_v.extend(uval.tolist())
            out_p.extend(p.tolist())
            out_n.extend((c - p).tolist())
        return pa.table({
            "fold": pa.array(out_fo, pa.int64()),
            "feature": pa.array(out_f, pa.string()),
            "value": pa.array(out_v, pa.int64()),
            "p": pa.array(out_p, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
        })

    rows = (ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text", "lang", "n_chars"])
            .map_batches(_partial, batch_format="pyarrow")
            .groupby(["fold", "feature", "value"])
            .aggregate(Sum("p", alias_name="p"), Sum("n", alias_name="n"))
            .take_all())
    # bounded table: stats[(fold, feature, value)] = (p, n)
    stats: dict[tuple[int, str, int], tuple[int, int]] = {
        (int(r["fold"]), r["feature"], int(r["value"])):
        (int(r["p"]), int(r["n"])) for r in rows}
    out = {k: [] for k in ("fold", "feature", "threshold", "left_label",
                           "right_label", "train_errors", "val_errors")}
    feat_vals = {name: sorted({k[2] for k in stats if k[1] == name})
                 for name in STUMP_FEATURES}
    for f in range(folds):
        best = None   # (errors, feature, threshold, labL, labR)
        for name in sorted(STUMP_FEATURES):
            vals = feat_vals[name]
            tr = [(v,
                   sum(stats.get((g, name, v), (0, 0))[0]
                       for g in range(folds) if g != f),
                   sum(stats.get((g, name, v), (0, 0))[1]
                       for g in range(folds) if g != f))
                  for v in vals]
            tot_p = sum(t[1] for t in tr)
            tot_n = sum(t[2] for t in tr)
            pl = nl = 0
            for v, p, n in tr:
                pl, nl = pl + p, nl + n
                pr, nr = tot_p - pl, tot_n - nl
                err = min(pl, nl) + min(pr, nr)
                labl = 1 if pl > nl else 0
                labr = 1 if pr > nr else 0
                key = (err, name, v)
                if best is None or key < best[:3]:
                    best = (err, name, v, labl, labr)
        err, name, thr, labl, labr = best
        # validation errors on fold f from its own (value, p, n) rows
        ve = 0
        for v in feat_vals[name]:
            p, n = stats.get((f, name, v), (0, 0))
            lab = labl if v <= thr else labr
            ve += n if lab == 1 else p
        out["fold"].append(f)
        out["feature"].append(name)
        out["threshold"].append(thr)
        out["left_label"].append(labl)
        out["right_label"].append(labr)
        out["train_errors"].append(err)
        out["val_errors"].append(ve)
    return pa.table({
        "fold": pa.array(out["fold"], pa.int64()),
        "feature": pa.array(out["feature"], pa.string()),
        "threshold": pa.array(out["threshold"], pa.int64()),
        "left_label": pa.array(out["left_label"], pa.int64()),
        "right_label": pa.array(out["right_label"], pa.int64()),
        "train_errors": pa.array(out["train_errors"], pa.int64()),
        "val_errors": pa.array(out["val_errors"], pa.int64()),
    })


# ------------------------------------- consistent hashing (ring audit)

RING_NODES = 8       # base cluster size
RING_VNODES = 16     # virtual nodes per physical node


def _ring_points(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The ring: sorted vnode hash positions and their owner node ids.
    Vnode v of node i sits at h64('node{i}:{v}')."""
    labels = [f"node{i}:{v}" for i in range(1, n_nodes + 1)
              for v in range(RING_VNODES)]
    owners = np.repeat(np.arange(1, n_nodes + 1, dtype=np.int64),
                       RING_VNODES)
    hs = H.h64_many(labels)
    order = np.argsort(hs, kind="stable")
    return hs[order], owners[order]


def _ring_owner(keys: np.ndarray, ring: tuple[np.ndarray, np.ndarray]
                ) -> np.ndarray:
    hs, owners = ring
    idx = np.searchsorted(hs, keys, side="left")
    idx[idx == hs.size] = 0          # wrap to the ring's first vnode
    return owners[idx]


def q_hash_ring_counts(sf_dir: str,
                       n_nodes: int = RING_NODES) -> pa.Table:
    """Consistent-hashing placement audit — the data-placement
    primitive a fixed-size cluster rebalances with: each doc key
    h64(doc_id) is owned by the clockwise-successor virtual node on
    the md5 ring (RING_VNODES vnodes per node smooth the load; wrap to
    the smallest vnode). Output per node: (node, n_docs) — the load
    distribution the vnode count is supposed to flatten.

    Shape: the ring is O(nodes·vnodes) and broadcast by closure; a
    pure map_batches does one searchsorted per batch, then ONE
    groupby(node) count."""
    from ray.data.aggregate import Sum

    ring = _ring_points(n_nodes)

    def _own(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        keys = H.h64_many([str(i) for i in doc_ids])
        node = _ring_owner(keys, ring)
        u, c = np.unique(node, return_counts=True)
        return pa.table({"node": pa.array(u, pa.int64()),
                         "n_docs": pa.array(c.astype(np.int64),
                                            pa.int64())})

    return (ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id"])
            .map_batches(_own, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Sum("n_docs", alias_name="n_docs")))


def q_hash_ring_rebalance(sf_dir: str,
                          n_nodes: int = RING_NODES) -> pa.Table:
    """Scale-out movement audit: when node n_nodes+1 joins the ring,
    consistent hashing guarantees the ONLY docs that move are those
    the new node now owns (expected fraction 1/(n+1)) — no shuffling
    among the old nodes. One output row: (n_docs, moved_docs,
    moved_to_new) with moved_docs == moved_to_new by the guarantee
    (asserted here, hash-checked by the oracle).

    Shape: both rings broadcast; one pass computes old/new owners per
    batch and sums three counters."""
    ring_a = _ring_points(n_nodes)
    ring_b = _ring_points(n_nodes + 1)

    def _mov(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        keys = H.h64_many([str(i) for i in doc_ids])
        a = _ring_owner(keys, ring_a)
        b = _ring_owner(keys, ring_b)
        moved = a != b
        return pa.table({
            "n_docs": pa.array([len(doc_ids)], pa.int64()),
            "moved_docs": pa.array([int(moved.sum())], pa.int64()),
            "moved_to_new": pa.array(
                [int((moved & (b == n_nodes + 1)).sum())], pa.int64()),
        })

    parts = (ray.data.read_parquet(
                 os.path.join(sf_dir, "documents.parquet"),
                 columns=["doc_id"])
             .map_batches(_mov, batch_format="pyarrow")
             .take_all())
    n = sum(int(r["n_docs"]) for r in parts)
    mv = sum(int(r["moved_docs"]) for r in parts)
    mn = sum(int(r["moved_to_new"]) for r in parts)
    return pa.table({
        "n_docs": pa.array([n], pa.int64()),
        "moved_docs": pa.array([mv], pa.int64()),
        "moved_to_new": pa.array([mn], pa.int64()),
    })
