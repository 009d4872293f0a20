"""Secondary index families for a transcript index dir, delta-aware.

The reference maintains three indexes side by side and rebuilds them
together (WWWMain.java:76-110: BM25 index, HIT index, bigram index).
Here the secondary families live under `<out_dir>/families/<name>/` next
to the main index and are DELTA-AWARE:

  - both families are GLOBAL functions of the corpus (a corpus-wide
    static rank; corpus-wide top-budget prefixes), so a delta cannot be
    folded in incrementally without changing their semantics;
  - `update_index` therefore marks every family manifest stale after
    ingesting a delta, and each family's lineage (the stats inputs
    list) is checked on access — the next ensure_* call rebuilds from
    the updated corpus even if the eager invalidation was lost to a
    crash;
  - rebuild cost is family-build cost (HIT: one unigram emission +
    bucketed shuffle; bigram: a segment-pruned top-map + bounded union
    lists), not full-index cost.

HIT prior note: the rank (n_chars desc, doc_id asc) is a pure function
of the corpus — independent of the frozen scoring epoch — so a HIT
family rebuilt after a delta is byte-identical to one built over a
fresh full build (SQL-verified by the delta_hit_top5 driver entry).
The bigram family's top-`budget` prefixes order by quantized BM25,
which IS epoch-dependent: after a delta it reflects the served index's
frozen-epoch scores (exactly what a user of that index observes).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.pipelines.build import (
    _stats_dir,
    load_stats,
    read_index_segments,
    read_partition,
    write_lists,
)
from candidategeneration_ray.stages.docids import attach_doc_ids, rank_prior_scalable
from candidategeneration_ray.stages.listbuild import partial_rows
from candidategeneration_ray.stages.postings import emit_postings
from candidategeneration_ray.state import checkpoint as ckpt


def family_dir(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, "families", name, "final")


def invalidate_families(out_dir: str) -> list[str]:
    """Mark every family under out_dir stale (called by update_index
    after a delta lands). Returns the invalidated family names."""
    root = os.path.join(out_dir, "families")
    if not os.path.isdir(root):
        return []
    hit = []
    for name in sorted(os.listdir(root)):
        fd = family_dir(out_dir, name)
        m = ckpt.read_manifest(fd)
        if m is not None and not m.get("stale"):
            m["stale"] = True
            ckpt.write_manifest(fd, m)
            hit.append(name)
    return hit


def _index_lineage(out_dir: str) -> list[str]:
    """The corpus lineage of the index at out_dir = its stats inputs."""
    sm = ckpt.read_manifest(_stats_dir(out_dir))
    if sm is None:
        raise ValueError(f"{out_dir!r} holds no completed build")
    return sorted(sm.get("inputs", []))


def _family_fresh(fd: str, lineage: list[str], tag: str, extra: dict) -> bool:
    m = ckpt.read_manifest(fd)
    return (m is not None and not m.get("stale")
            and m.get("inputs") == lineage and m.get("cfg") == tag
            and all(m.get(k) == v for k, v in extra.items()))


def ensure_hit_family(out_dir: str, cfg: EngineConfig | None = None) -> str:
    """Build (or reuse) the HIT family over the index's CURRENT corpus:
    unigram postings whose score is the doc's static prior rank
    (n_chars desc, doc asc — the HITS-array analog,
    InvertedIndex.java:352-389). Prior computed by the distributed
    rank pipeline; emission under the blocked-prior lookup."""
    cfg = cfg or EngineConfig(emit_pairs=False)
    lineage = _index_lineage(out_dir)
    fd = family_dir(out_dir, "hit")
    tag = cfg.index_tag()
    if _family_fresh(fd, lineage, tag, {}):
        return fd
    stats, offsets = load_stats(out_dir)
    toks = attach_doc_ids(read_partition(lineage), ray.put(offsets))

    def _lengths(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "n_chars": pc.utf8_length(
                pc.fill_null(batch.column("text"), "")).cast(pa.int64()),
        })

    prior, keepalive = rank_prior_scalable(
        toks.map_batches(_lengths, batch_format="pyarrow"))
    write_lists(
        emit_postings(toks, ray.put(stats), cfg, prior_ref=ray.put(prior)),
        fd, cfg, {"phase": "hit-family", "inputs": lineage})
    del keepalive  # prior blocks live until the pipeline above executed
    return fd


def bigram_union_postings(pair_keys: np.ndarray, top_map: dict,
                          num_buckets: int) -> ray.data.Dataset:
    """The bigram family's posting stream (BigramIndex.java:44-85): for
    each pair key, the union of its two terms' top-`budget` doc
    prefixes from `top_map` (term id → sorted doc ids), score 0, as
    listbuild.partial_rows rows over `num_buckets`."""
    top_ref = ray.put(top_map)

    def _emit(batch: pa.Table, *, _c={}) -> pa.Table:
        if "tm" not in _c:
            _c["tm"] = ray.get(top_ref)
        tm = _c["tm"]
        empty = np.empty(0, np.int64)
        out_k, out_d = [], []
        for key in batch.column("key").to_numpy():
            union = np.union1d(tm.get(int(key >> 32), empty),
                               tm.get(int(key & 0xFFFFFFFF), empty))
            out_k.append(np.full(union.size, key, dtype=np.int64))
            out_d.append(union)
        docs = np.concatenate(out_d) if out_d else empty
        keys = np.concatenate(out_k) if out_k else empty
        return partial_rows(keys, np.zeros(docs.size, np.int32), docs,
                            num_buckets)

    pairs = ray.data.from_arrow(pa.table({"key": pa.array(pair_keys, pa.int64())}))
    return pairs.map_batches(_emit, batch_format="pyarrow")


def ensure_bigram_family(out_dir: str, pair_keys: np.ndarray,
                         budget: int = 20,
                         cfg: EngineConfig | None = None) -> str:
    """Build (or reuse) the bigram family (BigramIndex.java:44-85) over
    the index's current serving view: for each filter-set pair, the
    union of the two unigram top-`budget` impact prefixes, read from
    the PERSISTED main-index segments across every LSM generation."""
    from candidategeneration_ray.pipelines.update import serving_sources

    cfg = cfg or EngineConfig(emit_pairs=False)
    lineage = _index_lineage(out_dir)
    fd = family_dir(out_dir, "bigram")
    tag = cfg.index_tag()
    pair_keys = np.asarray(sorted(set(map(int, pair_keys))), dtype=np.int64)
    pset_digest = ckpt.content_hash(pair_keys, np.int64(budget))
    if not _family_fresh(fd, lineage, tag, {"pair_set": pset_digest}):
        write_bigram_family(serving_sources(out_dir), pair_keys, budget, cfg,
                            fd, {"phase": "bigram-family", "inputs": lineage,
                                 "pair_set": pset_digest, "budget": budget})
    return fd


def write_bigram_family(sources: list[str], pair_keys: np.ndarray,
                        budget: int, cfg: EngineConfig, fd: str,
                        manifest: dict) -> None:
    """Write the bigram family of `pair_keys` into `fd` through
    write_lists: each pair's union of its two terms' top-`budget`
    prefixes by (score desc, doc asc) over the unigram segment dirs
    `sources`, decoded with `cfg.codec`. Only the needed lists are
    decoded, and per-source tops merge exactly (each member of the
    global top-b is in its source's top-b), so at most |needed terms|
    x budget x |sources| rows are collected."""
    need = np.unique(np.concatenate((pair_keys >> 32, pair_keys & 0xFFFFFFFF))) \
        if pair_keys.size else np.empty(0, np.int64)
    need_ref = ray.put(need)

    def _tops(batch: pa.Table) -> pa.Table:
        from candidategeneration_ray.functions.codecs import decode_docs

        nd = ray.get(need_ref)
        keys = batch.column("key").to_numpy()
        ns = batch.column("n").to_numpy()
        out_k, out_d, out_s = [], [], []
        for row in np.nonzero(np.isin(keys, nd))[0]:
            docs = decode_docs(batch.column("docs")[row].as_py(),
                               int(ns[row]), cfg.codec).astype(np.int64)
            scores = np.frombuffer(batch.column("scores")[row].as_py(), dtype="<i4")
            top = np.lexsort((docs, -scores.astype(np.int64)))[:budget]
            out_k.append(np.full(top.size, keys[row], dtype=np.int64))
            out_d.append(docs[top])
            out_s.append(scores[top].astype(np.int64))
        e = np.empty(0, np.int64)
        return pa.table({
            "key": pa.array(np.concatenate(out_k) if out_k else e, pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d) if out_d else e, pa.int64()),
            "score": pa.array(np.concatenate(out_s) if out_s else e, pa.int64()),
        })

    tops_parts = [read_index_segments(s).map_batches(_tops, batch_format="pyarrow")
                  for s in sources]
    tops_ds = tops_parts[0]
    for part in tops_parts[1:]:
        tops_ds = tops_ds.union(part)
    top_map = {}
    for k, g in tops_ds.to_pandas().groupby("key"):
        d = g["doc_id"].to_numpy(np.int64)
        s = g["score"].to_numpy(np.int64)
        keep = np.lexsort((d, -s))[:budget]
        top_map[int(k)] = np.sort(d[keep])
    write_lists(bigram_union_postings(pair_keys, top_map, cfg.num_buckets),
                fd, cfg, manifest)
