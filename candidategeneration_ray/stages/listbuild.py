"""Posting-list assembly: the one all-to-all shuffle of the index build.

Replaces the reference's run files + external k-way merge
(InvertedIndex.flushBuffer :471-498, ExternalSort.massiveBinaryMerge
:91-205, Go binsort WWWMain.java:378) with a single hash shuffle over
ONE posting format — the combiner's partial rows:

  producers → partial_rows: one row per (key, batch) — key, n, docs
              (varint-delta binary), scores (int32 binary) and
              bucket = hash(key) % num_buckets (the flushBuffer
              sorted-run analog; emit_postings and the bigram family
              emit through it)
            → functions/exchange.fold_by_bucket (task-routed, no sort:
              one fold task per contiguous bucket range)
            → merge_partial_lists per bucket (the massiveBinaryMerge
              analog)

A bucket holds MANY keys, so the merge is one np.lexsort +
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
from candidategeneration_ray.functions.groups import outside_ranges, run_starts
from candidategeneration_ray.functions.keys import bucket_of

# Final list rows (module doc); the empty build output and the
# all-tombstoned merge return are 0-row tables of this schema.
_LIST_SCHEMA = pa.schema([
    ("key", pa.int64()), ("n", pa.int64()),
    ("docs", pa.binary()), ("scores", pa.binary()),
    ("block_max", pa.list_(pa.int32())), ("block_last", pa.list_(pa.int64())),
    ("bucket", pa.int32()),
])
# The one input format of build_posting_lists (partial_rows' output).
_PARTIAL_SCHEMA = pa.schema([
    ("key", pa.int64()), ("n", pa.int32()),
    ("docs", pa.binary()), ("scores", pa.binary()),
    ("bucket", pa.int32()),
])
_CONTRACT = ("build_posting_lists takes partial rows {} emitted through "
             "listbuild.partial_rows; got rows with columns {}")


def attach_bucket(ds: ray.data.Dataset, num_buckets: int) -> ray.data.Dataset:
    def _b(batch: pa.Table) -> pa.Table:
        keys = batch.column("key").to_numpy()
        return batch.append_column("bucket", pa.array(bucket_of(keys, num_buckets), pa.int32()))

    # whole blocks: fuses into the upstream map without re-batching
    # its blocks
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
    tstarts = run_starts(tko)
    tcounts = np.diff(np.concatenate((tstarts, [tail.size])))
    rank = np.arange(tail.size, dtype=np.int64) - np.repeat(tstarts, tcounts)
    keep[tail[o[rank < budget]]] = True
    return keep


def partial_rows(keys: np.ndarray, scores: np.ndarray, docs: np.ndarray,
                 num_buckets: int) -> pa.Table:
    """Batch-local combiner: group one batch's postings by key and emit
    ONE partial-list row per key — (key, n, docs varint-delta binary,
    scores raw-int32 binary, bucket = bucket_of(key)). This is the
    map-side pre-aggregation of SURVEY §4: the exchange then moves
    ~|keys| compressed rows per batch instead of one row per posting
    (10-20x fewer rows), which is what keeps the all-to-all from
    dominating the build. Every producer of build_posting_lists' input
    emits through here; `num_buckets` must be the build cfg's."""
    from candidategeneration_ray.functions.arrowutil import binary_array_from_concat
    from candidategeneration_ray.functions.varint import encode_delta_grouped_concat

    if keys.size == 0:
        # a filter set can strip every posting from a batch; the
        # keys[starts] gather below would IndexError on an empty array
        return _PARTIAL_SCHEMA.empty_table()
    order = np.lexsort((docs, keys))
    keys = keys[order]
    scores = scores[order]
    docs = docs[order]
    starts = run_starts(keys)
    ends = np.concatenate((starts[1:], [keys.size]))
    dbuf, doff = encode_delta_grouped_concat(docs, starts, ends)
    value_off = np.concatenate((starts, [keys.size])).astype(np.int64)
    out_keys = keys[starts]
    return pa.table({
        "key": pa.array(out_keys, pa.int64()),
        "n": pa.array((ends - starts).astype(np.int32), pa.int32()),
        "docs": binary_array_from_concat(dbuf, doff),
        "scores": binary_array_from_concat(scores.astype("<i4").view(np.uint8), 4 * value_off),
        "bucket": pa.array(bucket_of(out_keys, num_buckets), pa.int32()),
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
        live = outside_ranges(docs, *tombstones)
        if not live.all():
            pk, docs, scores = pk[live], docs[live], scores[live]
    if pk.size == 0:   # no rows, or every posting tombstoned
        return _LIST_SCHEMA.empty_table()

    starts = run_starts(pk)
    ends = np.concatenate((starts[1:], [pk.size]))
    if cfg.max_list_postings is not None:
        keep = prune_mask(pk, docs, scores, starts, ends, cfg)
        pk, docs, scores = pk[keep], docs[keep], scores[keep]
        starts = run_starts(pk)
        ends = np.concatenate((starts[1:], [pk.size]))
    out_key = pk[starts]
    out_n = ends - starts

    # 3a. grouped re-encode, again buffer-oriented
    dbuf, doff = encode_docs_grouped_concat(docs, starts, ends, cfg.codec)
    out_docs = binary_array_from_concat(dbuf, doff)
    value_off = np.concatenate((starts, [pk.size])).astype(np.int64)
    out_scores = binary_array_from_concat(
        scores.astype("<i4").view(np.uint8), 4 * value_off)

    # 3b. block metadata via reduceat over per-key block starts: block
    # j of a key starts at its list start + j * bs, where j counts from
    # the key's first block (every list holds >= 1 posting here)
    bs = cfg.block_size
    nb = (out_n + bs - 1) // bs
    block_j = (np.arange(nb.sum(), dtype=np.int64)
               - np.repeat(np.cumsum(nb) - nb, nb))
    block_starts = np.repeat(starts, nb) + bs * block_j
    bmax = np.maximum.reduceat(scores, block_starts)
    block_ends = np.minimum(block_starts + bs, np.repeat(ends, nb))
    blast = docs[block_ends - 1]
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
    """The per-bucket fold: one bucket's partial rows → its final lists.
    Rows in any other format (e.g. raw (key, score, doc_id) postings)
    raise instead of being re-bucketed."""
    from candidategeneration_ray.functions.arrowutil import binary_column_concat

    if not set(_PARTIAL_SCHEMA.names) <= set(group.schema.names):
        raise ValueError(_CONTRACT.format(_PARTIAL_SCHEMA.names, group.schema.names))
    docs_data, _ = binary_column_concat(group.column("docs"))
    scores_data, _ = binary_column_concat(group.column("scores"))
    return merge_partial_lists(
        group.column("key").to_numpy().astype(np.int64),
        group.column("n").to_numpy().astype(np.int64),
        docs_data, scores_data, cfg, int(group.column("bucket")[0].as_py()))


def build_posting_lists(postings: ray.data.Dataset,
                        cfg: EngineConfig | None = None) -> ray.data.Dataset:
    """Partial rows → posting-list dataset (see module doc).

    `postings` holds partial rows from `partial_rows` (emit_postings'
    output), bucketed with the same `cfg.num_buckets`; rows of any other
    shape raise a ValueError naming partial_rows. They route through
    functions/exchange.fold_by_bucket into `lists_for_bucket_rows`. The
    fold is order-insensitive (it re-sorts each key's postings), so the
    result equals Ray's sort-exchange plan over the same buckets —
    identity is pytest-forced (tests/test_index_build.py)."""
    from candidategeneration_ray.functions.exchange import fold_by_bucket

    cfg = cfg or EngineConfig()
    try:
        return fold_by_bucket(postings, "bucket",
                              lambda g: lists_for_bucket_rows(g, cfg),
                              cfg.num_buckets, _LIST_SCHEMA.empty_table())
    except KeyError as e:   # rows without the bucket column
        raise ValueError(_CONTRACT.format(_PARTIAL_SCHEMA.names, e)) from e
