"""Impact-ordered quantized index family + score-at-a-time serving.

The pre-computed-impact model (Anh & Moffat, "Pruned query evaluation
using pre-computed impacts", SIGIR 2006): per-(term, doc) quantized
BM25 scores are re-quantized into IMPACT_Q integer levels with GLOBAL
uniform bins, each posting list is persisted split into
impact-DESCENDING segments, and top-k serving runs score-at-a-time
(SAAT) over whole segments with an exact accumulator-admission cutoff
(the bounded-accumulator idea of Lester/Zobel made exact): once the
current k-th accumulated sum STRICTLY exceeds the best total any
still-unseen doc could reach (one posting per term at that term's
largest remaining segment level), new docs stop being admitted;
already-admitted candidates still absorb every remaining posting, so
the result is EXACT w.r.t. quantized impacts — strict inequality
because SAAT does not visit docs in id order, so an equal-sum unseen
doc could otherwise deserve the (sum desc, doc_id asc) tie-break.

Family build is shuffle-free: each key's postings already live in one
segment row, so the split into impact runs is a map_batches re-encode;
the only global step is a two-int (min, max) aggregate over scores.
The reference builds its impact-ordered top layer the same way from
sorted lists (SelectChuncks.java:16-62); here the whole index gets the
impact layout, not just prefixes.

Scale: pass 1 reduces to one (min, max) row per batch; pass 2 is
embarrassingly parallel over segment rows and output is index-sized;
serving reads only the fixed queries' keys (row-group stats prune on
the key column, the same access pattern as the other families).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.functions.tableutil import ranked_table
from candidategeneration_ray.functions.tokenize import tokenize_text
from candidategeneration_ray.functions.varint import decode_delta, encode_delta
from candidategeneration_ray.pipelines.build import read_index_segments
from candidategeneration_ray.pipelines.docquery import (
    DOC_QUERIES,
    _cache_dir,
    build_documents_index,
)
from candidategeneration_ray.state import checkpoint as ckpt

IMPACT_Q = 8        # quantization levels (1..Q)
IMPACT_TOPK = 10


def build_impact_family(sf_dir: str, cfg: EngineConfig | None = None) -> dict:
    """Build (or reuse) the impact-ordered family for the documents
    index. Returns {"family_dir", "stats", "mn", "mx"}."""
    cfg = cfg or EngineConfig(emit_pairs=False)
    built = build_documents_index(sf_dir, cfg)
    fd = _cache_dir(sf_dir, f"impactfam-{cfg.index_tag()}-q{IMPACT_Q}")
    mm_path = os.path.join(fd, "minmax.json")
    if ckpt.is_complete(fd):
        mm = json.load(open(mm_path))
        return {"family_dir": fd, "stats": built["stats"],
                "mn": mm["mn"], "mx": mm["mx"]}
    ckpt.clear_stale(fd)
    seg = read_index_segments(built["final_dir"])

    def _minmax(batch: pa.Table) -> pa.Table:
        mn, mx = None, None
        for blob in batch.column("scores").to_pylist():
            s = np.frombuffer(blob, dtype="<i4")
            if s.size:
                lo, hi = int(s.min()), int(s.max())
                mn = lo if mn is None else min(mn, lo)
                mx = hi if mx is None else max(mx, hi)
        if mn is None:
            return pa.table({"mn": pa.array([], pa.int64()),
                             "mx": pa.array([], pa.int64())})
        return pa.table({"mn": pa.array([mn], pa.int64()),
                         "mx": pa.array([mx], pa.int64())})

    parts = seg.map_batches(_minmax, batch_format="pyarrow").to_pandas()
    mn, mx = int(parts["mn"].min()), int(parts["mx"].max())
    span = np.int64(mx - mn + 1)

    def _split(batch: pa.Table) -> pa.Table:
        keys = batch.column("key").to_numpy()
        out_k, out_i, out_n, out_d = [], [], [], []
        for row in range(batch.num_rows):
            docs = decode_delta(batch.column("docs")[row].as_py()).astype(np.int64)
            scores = np.frombuffer(batch.column("scores")[row].as_py(),
                                   dtype="<i4").astype(np.int64)
            imp = 1 + ((scores - mn) * IMPACT_Q) // span
            for lvl in np.unique(imp)[::-1]:
                d = docs[imp == lvl]
                out_k.append(int(keys[row]))
                out_i.append(int(lvl))
                out_n.append(int(d.size))
                out_d.append(encode_delta(d))
        return pa.table({
            "key": pa.array(out_k, pa.int64()),
            "impact": pa.array(out_i, pa.int64()),
            "n": pa.array(out_n, pa.int64()),
            "docs": pa.array(out_d, pa.binary()),
        })

    os.makedirs(fd, exist_ok=True)
    seg.map_batches(_split, batch_format="pyarrow").write_parquet(fd)
    json.dump({"mn": mn, "mx": mx}, open(mm_path, "w"))
    ckpt.write_manifest(fd, {"phase": "impact-family", "q": IMPACT_Q,
                             "mn": mn, "mx": mx})
    return {"family_dir": fd, "stats": built["stats"], "mn": mn, "mx": mx}


def saat_topk(term_segments: list[list[tuple[int, np.ndarray]]], k: int,
              count_admissions: bool = False):
    """Exact top-k [(impact_sum, doc_id)] by (sum desc, doc asc) via
    score-at-a-time accumulation over per-term impact segments, with
    the exact admission cutoff.

    `term_segments[t]` = that term's [(level, sorted docs array)].
    When `count_admissions`, also returns the number of segments merged
    in admitting mode (the pruning witness for tests/bench)."""
    items = []  # (level, term_idx, docs)
    for t, segs in enumerate(term_segments):
        for lvl, docs in segs:
            if docs.size:
                items.append((int(lvl), t, docs))
    if not items:
        return ([], 0) if count_admissions else []
    items.sort(key=lambda it: -it[0])
    n = len(items)
    # suffix_bound[i] = best total an UNSEEN doc could reach from items
    # i..end: one posting per term at that term's max remaining level
    suffix_bound = np.zeros(n + 1, np.int64)
    cur_max: dict[int, int] = {}
    total = 0
    for i in range(n - 1, -1, -1):
        lvl, t, _ = items[i]
        prev = cur_max.get(t, 0)
        if lvl > prev:
            total += lvl - prev
            cur_max[t] = lvl
        suffix_bound[i] = total
    cand = np.empty(0, np.int64)
    acc = np.empty(0, np.int64)
    admitting = True
    n_admitted_segs = 0
    for i, (lvl, _, docs) in enumerate(items):
        if admitting:
            n_admitted_segs += 1
            union = np.union1d(cand, docs)
            new_acc = np.zeros(union.size, np.int64)
            new_acc[np.searchsorted(union, cand)] = acc
            new_acc[np.searchsorted(union, docs)] += lvl
            cand, acc = union, new_acc
            if cand.size >= k:
                theta = int(np.partition(acc, acc.size - k)[acc.size - k])
                if theta > int(suffix_bound[i + 1]):
                    admitting = False
        else:
            pos = np.searchsorted(cand, docs)
            safe = np.minimum(pos, cand.size - 1)
            hit = (pos < cand.size) & (cand[safe] == docs)
            acc[pos[hit]] += lvl
    order = np.lexsort((cand, -acc))[:k]
    out = [(int(acc[i]), int(cand[i])) for i in order]
    return (out, n_admitted_segs) if count_admissions else out


def _query_term_segments(fam: dict, qtext: str):
    """The query's per-term impact segments from the persisted family
    (key-filtered read; row-group stats prune on `key` at scale)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    stats = fam["stats"]
    t2i = {t: i + 1 for i, t in enumerate(stats["terms"])}
    tids = sorted({t2i[t] for t in tokenize_text(qtext) if t in t2i})
    if not tids:
        return []
    files = sorted(os.path.join(fam["family_dir"], f)
                   for f in os.listdir(fam["family_dir"])
                   if f.endswith(".parquet"))
    tab = pq.read_table(files, filters=pc.field("key").isin(tids))
    keys = tab.column("key").to_numpy()
    lvls = tab.column("impact").to_numpy()
    per_term = []
    for tid in tids:
        rows = np.nonzero(keys == tid)[0]
        per_term.append([
            (int(lvls[r]), decode_delta(tab.column("docs")[int(r)].as_py())
             .astype(np.int64))
            for r in rows
        ])
    return per_term


def q_impact_topk(sf_dir: str, k: int = IMPACT_TOPK) -> pa.Table:
    """Top-k per fixed query by summed quantized impacts, served
    score-at-a-time from the persisted impact-ordered family. The
    DuckDB oracle recomputes the global uniform quantization and the
    sums directly, so the driver hash-checks the quantization math,
    the family layout AND the admission cutoff at once."""
    fam = build_impact_family(sf_dir)
    return ranked_table(
        ((qid, saat_topk(_query_term_segments(fam, qtext), k))
         for qid, qtext in DOC_QUERIES), score="impact_sum")
