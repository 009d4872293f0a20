"""Posting-list assembly: the one all-to-all shuffle of the index build.

Replaces the reference's run files + external k-way merge
(InvertedIndex.flushBuffer :471-498, ExternalSort.massiveBinaryMerge
:91-205, Go binsort WWWMain.java:378) with a single hash shuffle:

  postings → add bucket = hash(key) % num_buckets (fused into the
             emission map by stages/postings.emit_postings)
           → functions/exchange.fold_by_bucket (task-routed, no sort:
             one fold task per contiguous bucket range)
           → per-bucket vectorized list build

A bucket holds MANY keys, so list building is one np.lexsort +
reduceat-style boundary walk per bucket — not one Python call per key.
Each final list row is:

  key:int64, n:int64, docs:binary (delta+varint over sorted doc ids),
  scores:binary (raw little-endian int32, aligned with docs),
  block_max:list<int32> (max quantized score per block of
  `cfg.block_size` postings — the block-max WAND metadata),
  block_last:list<int64> (last doc id per block, the skip table)

Within-list order is doc_id ascending (WAND intersection order); the
reference's impact order (score desc, ExternalSort sort orders
WWW.java:211-258) is recoverable per list by sorting on the decoded
scores, and is exposed by QueryEngine.top_layer() (SURVEY §7.4).

Skew: a pathologically hot key is handled by the partitioned build
(pipelines/build.py), where each input partition contributes a
doc-range-disjoint sub-list and the merge is ordered concatenation —
the "salted two-phase aggregation" of SURVEY §4, with partition id as
the salt.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from candidategeneration_ray.config import EngineConfig

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def bucket_of(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic int64-key → bucket hash (splitmix-style multiply)."""
    h = keys.astype(np.uint64) * _HASH_MULT
    h ^= h >> np.uint64(29)
    return (h % np.uint64(num_buckets)).astype(np.int32)


def attach_bucket(ds: ray.data.Dataset, num_buckets: int) -> ray.data.Dataset:
    def _b(batch: pa.Table) -> pa.Table:
        keys = batch.column("key").to_numpy()
        return batch.append_column("bucket", pa.array(bucket_of(keys, num_buckets), pa.int32()))

    # whole blocks: fuses into the upstream map without re-batching
    # its (partial-list) blocks
    return ds.map_batches(_b, batch_format="pyarrow", batch_size=None)


def prune_mask(pk: np.ndarray, docs: np.ndarray, scores: np.ndarray,
               starts: np.ndarray, ends: np.ndarray,
               cfg: EngineConfig) -> np.ndarray:
    """Exact build-time list pruning (reference O3 sampled selection,
    InvertedIndex.java:428-462: keep <=1000/list, first 100
    unconditional, rest above a sampled score threshold). Deterministic
    variant over (key, doc)-sorted postings: per list keep the first
    `unconditional_prefix` postings in doc order plus the best
    (max_list_postings - prefix) of the remainder by (score desc,
    doc asc). Vectorized across the whole bucket — one extra lexsort
    over only the tail postings.

    Safe at every level: applying this mask to any SUBSET of a list
    (a partition's sub-list, a batch) keeps a superset of the global
    keep-set's intersection with that subset — a global-prefix posting
    is within the subset's first `prefix` docs, and a global-top-budget
    tail posting beats all but < budget subset-tail postings — so
    partitioned builds may prune per partition AND at the final merge
    and still produce the exact single-pass result (tested)."""
    n = pk.size
    prefix = cfg.unconditional_prefix
    budget = cfg.max_list_postings - prefix
    pos = np.arange(n, dtype=np.int64) - np.repeat(starts, ends - starts)
    keep = pos < prefix
    if budget <= 0:
        return keep
    tail = np.nonzero(~keep)[0]
    if tail.size == 0:
        return keep
    tk = pk[tail]
    ts = scores[tail].astype(np.int64)
    td = docs[tail]
    o = np.lexsort((td, -ts, tk))
    tko = tk[o]
    tstarts = np.concatenate(([0], np.nonzero(tko[1:] != tko[:-1])[0] + 1))
    tcounts = np.diff(np.concatenate((tstarts, [tail.size])))
    rank = np.arange(tail.size, dtype=np.int64) - np.repeat(tstarts, tcounts)
    keep[tail[o[rank < budget]]] = True
    return keep


def build_lists_for_bucket(
    keys: np.ndarray,
    scores: np.ndarray,
    doc_ids: np.ndarray,
    cfg: EngineConfig,
    bucket: int,
) -> pa.Table:
    """Vectorized list build over one bucket's postings."""
    from candidategeneration_ray.functions.codecs import encode_docs

    order = np.lexsort((doc_ids, keys))
    keys = keys[order]
    scores = scores[order]
    doc_ids = doc_ids[order]
    # group boundaries over the sorted keys (no group at all if empty —
    # the task exchange can hand a bucket zero rows)
    if keys.size:
        starts = np.concatenate(([0], np.nonzero(keys[1:] != keys[:-1])[0] + 1))
        ends = np.concatenate((starts[1:], [keys.size]))
    else:
        starts = np.zeros(0, np.int64)
        ends = np.zeros(0, np.int64)
    if cfg.max_list_postings is not None and keys.size:
        keep = prune_mask(keys, doc_ids, scores, starts, ends, cfg)
        keys, scores, doc_ids = keys[keep], scores[keep], doc_ids[keep]
        starts = np.concatenate(([0], np.nonzero(keys[1:] != keys[:-1])[0] + 1))
        ends = np.concatenate((starts[1:], [keys.size]))
    bs = cfg.block_size

    out = {
        "key": keys[starts],
        "n": (ends - starts).astype(np.int64),
        "docs": [],
        "scores": [],
        "block_max": [],
        "block_last": [],
    }
    for s, e in zip(starts, ends):
        d = doc_ids[s:e]
        sc = scores[s:e]
        out["docs"].append(encode_docs(d, cfg.codec))
        out["scores"].append(sc.astype("<i4").tobytes())
        nb = (d.size + bs - 1) // bs
        bm = np.empty(nb, dtype=np.int32)
        bl = np.empty(nb, dtype=np.int64)
        for bi in range(nb):
            bm[bi] = sc[bi * bs:(bi + 1) * bs].max()
            bl[bi] = d[min((bi + 1) * bs, d.size) - 1]
        out["block_max"].append(bm)
        out["block_last"].append(bl)
    return pa.table({
        "key": pa.array(out["key"], pa.int64()),
        "n": pa.array(out["n"], pa.int64()),
        "docs": pa.array(out["docs"], pa.binary()),
        "scores": pa.array(out["scores"], pa.binary()),
        "block_max": pa.array([b.tolist() for b in out["block_max"]], pa.list_(pa.int32())),
        "block_last": pa.array([b.tolist() for b in out["block_last"]], pa.list_(pa.int64())),
        "bucket": pa.array(np.full(len(starts), bucket, dtype=np.int32), pa.int32()),
    })


def merge_partial_lists(
    keys: np.ndarray,
    ns: np.ndarray,
    docs_bin,
    scores_bin,
    cfg: EngineConfig,
    bucket: int,
    tombstones: tuple[np.ndarray, np.ndarray] | None = None,
    src_codec: str = "varint",
    docs_off: np.ndarray | None = None,
) -> pa.Table:
    """Merge per-batch partial-list rows (one per (key, batch)) into
    final lists, fully vectorized across the whole bucket:

      1. one-pass decode of ALL partial blobs (decode_delta_concat),
      2. one global np.lexsort by (key, doc_id) over every posting,
      3. grouped re-encode (encode_delta_grouped) + reduceat block
         metadata — no per-key numpy-call overhead.

    `src_codec`/`docs_off`: codec of the INPUT rows (emission partials
    are always varint; final/generation rows carry cfg.codec, whose bp
    form needs the per-row byte offsets). Output encodes cfg.codec.

    `tombstones` = (starts, ends) sorted disjoint deleted doc-id ranges
    (pipelines.update.delete_docs): tombstoned postings are dropped
    BEFORE pruning/encode, so compaction physically removes deleted
    docs and keys left empty vanish from the segment.
    """
    from candidategeneration_ray.functions.arrowutil import binary_array_from_concat
    from candidategeneration_ray.functions.codecs import (
        decode_docs_concat, encode_docs_grouped_concat,
    )

    ns = np.asarray(ns, dtype=np.int64)
    # 1. bulk-decode every partial row in input order (docs_bin /
    # scores_bin arrive as ONE contiguous payload + offsets — zero-copy
    # views of the Arrow data buffers)
    flat_docs_u, row_off = decode_docs_concat(docs_bin, ns, src_codec,
                                              byte_offsets=docs_off)
    flat_docs = flat_docs_u.astype(np.int64)
    flat_scores = np.frombuffer(scores_bin, dtype="<i4") if isinstance(scores_bin, (bytes, bytearray)) \
        else np.ascontiguousarray(scores_bin, dtype=np.uint8).view("<i4")
    posting_key = np.repeat(keys, ns)

    # 2. global (key, doc) order
    order = np.lexsort((flat_docs, posting_key))
    pk = posting_key[order]
    docs = flat_docs[order]
    scores = flat_scores[order]

    if tombstones is not None and pk.size:
        t_starts, t_ends = tombstones
        idx = np.searchsorted(t_starts, docs, side="right") - 1
        live = np.ones(docs.size, dtype=bool)
        has = idx >= 0
        live[has] = docs[has] >= t_ends[idx[has]]
        if not live.all():
            pk, docs, scores = pk[live], docs[live], scores[live]
        if pk.size == 0:
            return build_lists_for_bucket(
                np.empty(0, np.int64), np.empty(0, np.int32),
                np.empty(0, np.int64), cfg, bucket)

    starts = np.concatenate(([0], np.nonzero(pk[1:] != pk[:-1])[0] + 1))
    ends = np.concatenate((starts[1:], [pk.size]))
    if cfg.max_list_postings is not None and pk.size:
        keep = prune_mask(pk, docs, scores, starts, ends, cfg)
        pk, docs, scores = pk[keep], docs[keep], scores[keep]
        starts = np.concatenate(([0], np.nonzero(pk[1:] != pk[:-1])[0] + 1))
        ends = np.concatenate((starts[1:], [pk.size]))
    out_key = pk[starts]
    out_n = ends - starts

    # 3a. grouped re-encode, again buffer-oriented
    dbuf, doff = encode_docs_grouped_concat(docs, starts, ends, cfg.codec)
    out_docs = binary_array_from_concat(dbuf, doff)
    value_off = np.concatenate((starts, [pk.size])).astype(np.int64)
    out_scores = binary_array_from_concat(
        scores.astype("<i4").view(np.uint8), 4 * value_off)

    # 3b. block metadata via reduceat over per-key block starts
    bs = cfg.block_size
    nb = (out_n + bs - 1) // bs
    block_starts = np.concatenate([
        np.arange(s, e, bs, dtype=np.int64) for s, e in zip(starts, ends)
    ]) if starts.size else np.empty(0, np.int64)
    bmax = np.maximum.reduceat(scores, block_starts) if block_starts.size else np.empty(0, np.int32)
    block_ends = np.minimum(block_starts + bs, np.repeat(ends, nb))
    blast = docs[block_ends - 1] if block_starts.size else np.empty(0, np.int64)
    list_off = np.concatenate(([0], np.cumsum(nb))).astype(np.int32)
    bmax_col = pa.ListArray.from_arrays(pa.array(list_off, pa.int32()),
                                        pa.array(bmax.astype(np.int32), pa.int32()))
    blast_col = pa.ListArray.from_arrays(pa.array(list_off, pa.int32()),
                                         pa.array(blast, pa.int64()))
    return pa.table({
        "key": pa.array(out_key, pa.int64()),
        "n": pa.array(out_n.astype(np.int64), pa.int64()),
        "docs": out_docs,
        "scores": out_scores,
        "block_max": bmax_col,
        "block_last": blast_col,
        "bucket": pa.array(np.full(out_key.size, bucket, dtype=np.int32), pa.int32()),
    })


def lists_for_bucket_rows(group: pa.Table, cfg: EngineConfig) -> pa.Table:
    """The per-bucket fold: one bucket's rows → its final lists.
    Combiner partial-list rows (key, n, docs, scores) are merged; raw
    posting rows (key, score, doc_id) are built."""
    keys = group.column("key").to_numpy().astype(np.int64)
    bucket = int(group.column("bucket")[0].as_py())
    if "docs" in group.schema.names:
        from candidategeneration_ray.functions.arrowutil import binary_column_concat

        docs_data, _ = binary_column_concat(group.column("docs"))
        scores_data, _ = binary_column_concat(group.column("scores"))
        return merge_partial_lists(
            keys, group.column("n").to_numpy().astype(np.int64),
            docs_data, scores_data, cfg, bucket)
    return build_lists_for_bucket(
        keys,
        group.column("score").to_numpy().astype(np.int32),
        group.column("doc_id").to_numpy().astype(np.int64),
        cfg, bucket)


def build_posting_lists(postings: ray.data.Dataset,
                        cfg: EngineConfig | None = None) -> ray.data.Dataset:
    """postings → posting-list dataset (see module doc).

    Accepts either raw posting rows (key, score, doc_id) or the
    combiner's partial-list rows (key, n, docs, scores); both route
    through functions/exchange.fold_by_bucket into
    `lists_for_bucket_rows`. The fold is order-insensitive (it re-sorts
    each key's postings), so the result equals Ray's sort-exchange plan
    over the same buckets — identity is pytest-forced
    (tests/test_index_build.py)."""
    from candidategeneration_ray.functions.exchange import fold_by_bucket

    cfg = cfg or EngineConfig()
    schema = postings.schema()   # None when the stream is empty
    if schema is not None and "bucket" not in schema.names:
        # raw rows from outside emit_postings (which attaches it fused)
        postings = attach_bucket(postings, cfg.num_buckets)
    empty = build_lists_for_bucket(np.empty(0, np.int64), np.empty(0, np.int32),
                                   np.empty(0, np.int64), cfg, 0)
    return fold_by_bucket(postings, "bucket",
                          lambda g: lists_for_bucket_rows(g, cfg),
                          cfg.num_buckets, empty)
