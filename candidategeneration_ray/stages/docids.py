"""Stable doc-id assignment by (conv_id asc, turn_idx asc) rank.

The reference consumes externally assigned sequential doc ids (docInfo
field 1, InvertedIndex.java:140); our transcript analog derives them as
a PURE FUNCTION of the data, never of execution order (resume/retry
determinism, SURVEY §7.4):

    doc_id = conv_base_offset[conv_id] + turn_idx

where conv_base_offset is the cumulative turn count over conv_ids in
ascending order. Validity requires turn_idx to be dense 0..T-1 within
each conversation — validated during the offsets aggregate.

The offsets map is one row per conversation, broadcast once (ray.put)
and looked up per batch with searchsorted (`conv_offsets` → mapping,
`attach_doc_ids` → map_batches).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from candidategeneration_ray.functions.groups import run_starts
from candidategeneration_ray.functions.keys import str_bucket_of


def _conv_partials(batch: pa.Table) -> pa.Table:
    """Per-batch (conv_id, n_turns, min_t, max_t) partials — the groupby
    shuffle moves ~one row per (conv, batch) instead of one per turn."""
    conv = batch.column("conv_id").combine_chunks().dictionary_encode()
    codes = conv.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    turns = batch.column("turn_idx").to_numpy().astype(np.int64)
    order = np.argsort(codes, kind="stable")
    sc, st = codes[order], turns[order]
    starts = run_starts(sc)
    counts = np.diff(np.concatenate((starts, [sc.size])))
    names = np.asarray(conv.dictionary.to_pylist(), dtype=object)[sc[starts]]
    return pa.table({
        "conv_id": pa.array(names.tolist(), pa.string()),
        "n_turns": pa.array(counts, pa.int64()),
        "min_t": pa.array(np.minimum.reduceat(st, starts), pa.int64()),
        "max_t": pa.array(np.maximum.reduceat(st, starts), pa.int64()),
    })


def _conv_fold(group: pa.Table) -> pa.Table:
    """Bucket-local exact fold of _conv_partials rows — one row per
    conversation. The int-bucket groupby + vectorized fold replaces the
    string-key sort aggregate (measured 4.2 s -> ~1.5 s on the headline
    stats phase). One stable sort by conversation code, then int64
    reduceats over its runs (groups.run_starts): turn counts are exact
    past 2^53, and min/max turn ride the same runs."""
    import pandas as pd

    names = np.asarray(group.column("conv_id").to_pylist(), dtype=object)
    n = group.column("n_turns").to_numpy().astype(np.int64)
    mn = group.column("min_t").to_numpy().astype(np.int64)
    mx = group.column("max_t").to_numpy().astype(np.int64)
    codes, uniq = pd.factorize(names)
    order = np.argsort(codes, kind="stable")
    sc = codes[order]
    starts = run_starts(sc)
    return pa.table({
        "conv_id": pa.array(
            np.asarray(uniq, dtype=object)[sc[starts]].tolist(), pa.string()),
        "n_turns": pa.array(np.add.reduceat(n[order], starts), pa.int64()),
        "min_t": pa.array(np.minimum.reduceat(mn[order], starts), pa.int64()),
        "max_t": pa.array(np.maximum.reduceat(mx[order], starts), pa.int64()),
    })


def conv_offsets(ds: ray.data.Dataset, num_buckets: int) -> dict:
    """Aggregate per-conversation turn stats and build base offsets.

    Returns {"conv_ids": sorted np array, "bases": int64 np array,
    "n_docs": int}. Raises if turn_idx is not dense 0..T-1 per conv.

    `num_buckets` sizes the per-conv fold (task-routed exchange);
    callers size it from the files the plan reads (build_index: 16
    for sub-256 MB local inputs — measured fastest — else
    bytes-derived)."""
    def _bucketize(batch: pa.Table) -> pa.Table:
        b = str_bucket_of(batch.column("conv_id").to_pylist(), num_buckets)
        return batch.append_column("cbucket", pa.array(b))

    from candidategeneration_ray.functions.exchange import fold_by_bucket

    agg = fold_by_bucket(
        ds.select_columns(["conv_id", "turn_idx"])
        .map_batches(lambda b: _bucketize(_conv_partials(b)),
                     batch_format="pyarrow"),
        "cbucket", _conv_fold, num_buckets,
        pa.table({"conv_id": pa.array([], pa.string()),
                  "n_turns": pa.array([], pa.int64()),
                  "min_t": pa.array([], pa.int64()),
                  "max_t": pa.array([], pa.int64())}))
    pdf = agg.to_pandas()  # one row per conversation (small relative to turns)
    pdf = pdf.sort_values("conv_id").reset_index(drop=True)
    if not ((pdf["min_t"] == 0).all() and (pdf["max_t"] == pdf["n_turns"] - 1).all()):
        bad = pdf[(pdf["min_t"] != 0) | (pdf["max_t"] != pdf["n_turns"] - 1)]
        raise ValueError(
            f"turn_idx not dense 0..T-1 for {len(bad)} conversations, "
            f"e.g. {bad['conv_id'].iloc[0]!r}"
        )
    counts = pdf["n_turns"].to_numpy(np.int64)
    bases = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return {
        "conv_ids": pdf["conv_id"].to_numpy(),  # sorted ascending
        "bases": bases,
        "counts": counts,
        "n_docs": int(counts.sum()),
    }


def rank_prior_scalable(ds: ray.data.Dataset, by: str = "n_chars",
                        num_blocks: int = 64) -> tuple[dict, object]:
    """Distributed static-prior rank (the HIT-family prior, J6): rank
    every doc by (`by` desc, doc_id asc), 1-based, without the corpus
    ever touching the driver. The reference loads HITS[docID] from a
    precomputed file (utilsClass.java:251-263) — this is that
    precomputation as a Ray pipeline:

      1. distributed sort by (`by` desc, doc_id asc); per-block row
         counts (tiny remote calls) prefix-sum into block base ranks on
         the driver — num_blocks scalars, O(KB) at any corpus size;
      2. per-block rank emission (base + arange) as object-store Arrow
         blocks, re-sorted by doc_id into `num_blocks` range blocks;
      3. the returned prior dict holds only block refs + per-block
         first doc_id; PostingEmitter's blocked-prior mode pulls the
         1-2 blocks each batch touches (a range-partitioned
         broadcast join).

    Ranks are int32 to match the index score column; a corpus beyond
    2^31 docs needs the score format widened first.

    Returns (prior_dict, keepalive) — hold `keepalive` until every
    pipeline consuming the prior has executed (it owns the
    materialized object-store blocks).
    """
    sorted_ds = (
        ds.select_columns([by, "doc_id"])
        .sort([by, "doc_id"], descending=[True, False])
        .materialize()
    )
    refs = list(sorted_ds.get_internal_block_refs())

    @ray.remote
    def _count(block) -> int:
        t = block if hasattr(block, "column") else block.to_arrow()
        return t.num_rows

    counts = np.array(ray.get([_count.remote(r) for r in refs]), dtype=np.int64)
    bases = np.concatenate(([0], np.cumsum(counts)[:-1]))

    @ray.remote
    def _rank(block, base: int) -> pa.Table:
        t = block if hasattr(block, "column") else block.to_arrow()
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "rank": pa.array(
                base + np.arange(1, t.num_rows + 1, dtype=np.int64), pa.int32()),
        })

    rank_refs = [_rank.remote(r, int(b)) for r, b, c in zip(refs, bases, counts) if c]
    ranked = (
        ray.data.from_arrow_refs(rank_refs)
        .sort("doc_id")
        .repartition(num_blocks)
        .materialize()
    )
    block_refs = list(ranked.get_internal_block_refs())

    @ray.remote
    def _first(block):
        t = block if hasattr(block, "column") else block.to_arrow()
        return None if t.num_rows == 0 else int(t.column("doc_id")[0].as_py())

    firsts = ray.get([_first.remote(r) for r in block_refs])
    keep = [(r, f) for r, f in zip(block_refs, firsts) if f is not None]
    prior = {
        "block_refs": [r for r, _ in keep],
        "block_first_doc": np.array([f for _, f in keep], dtype=np.int64),
    }
    return prior, ranked


def remap_doc_ids(ds: ray.data.Dataset, mapping_ref,
                  column: str = "doc_id") -> ray.data.Dataset:
    """Apply an old→new doc-id mapping to a dataset column (M11,
    utilsClass.java:398-436: the reference reads a CSV remap and
    rewrites postings). mapping_ref is a ray.put of {"old": sorted
    int64 array, "new": int64 array}; lookup is a broadcast
    searchsorted — no shuffle. Ids absent from the map pass through."""

    def _remap(batch: pa.Table, *, _c={}) -> pa.Table:
        if "m" not in _c:
            _c["m"] = ray.get(mapping_ref) if not isinstance(mapping_ref, dict) else mapping_ref
        m = _c["m"]
        old = batch.column(column).to_numpy().astype(np.int64)
        pos = np.searchsorted(m["old"], old)
        pos = np.minimum(pos, len(m["old"]) - 1)
        hit = m["old"][pos] == old
        new = np.where(hit, m["new"][pos], old)
        i = batch.schema.get_field_index(column)
        return batch.set_column(i, column, pa.array(new, pa.int64()))

    return ds.map_batches(_remap, batch_format="pyarrow")


def attach_doc_ids(ds: ray.data.Dataset, offsets_ref) -> ray.data.Dataset:
    """Add int64 `doc_id` column via broadcast offsets (zero shuffle).

    `offsets_ref` is a ray.put() handle of conv_offsets(...)'s result.
    """

    def _assign(batch: pa.Table, *, _cache={}) -> pa.Table:
        if "off" not in _cache:
            _cache["off"] = ray.get(offsets_ref)
        off = _cache["off"]
        convs = batch.column("conv_id").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(off["conv_ids"], convs)
        doc_id = off["bases"][idx] + batch.column("turn_idx").to_numpy().astype(np.int64)
        return batch.append_column("doc_id", pa.array(doc_id, pa.int64()))

    return ds.map_batches(_assign, batch_format="pyarrow")


def blocked_prefix_apply(ds_sorted: ray.data.Dataset, num_blocks: int,
                         total_fn, emit_fn,
                         combine: str = "sum") -> ray.data.Dataset:
    """The range-blocked global prefix-SCAN pattern, factored once (the
    scaffolding rank_prior_scalable / token_offsets /
    order_global_rank / peak_concurrency / late_events all share): a
    SORTED dataset is split into `num_blocks`
    order-preserving blocks that stay in the object store;
    `total_fn(table) -> int` extracts each block's contribution, the
    driver holds ONLY the O(num_blocks) totals and their EXCLUSIVE
    prefix under `combine` ("sum" → running totals base 0, "max" →
    running maxima base -2^62 — any associative scan fits the shape),
    and `emit_fn(table, base) -> pa.Table` finishes each block in
    parallel with its global base. No driver materialization, no
    sequential scan.

    Correctness leans on Ray Data preserving block order through
    repartition of a sorted dataset — the one assumption, audited
    here and tested by the callers' block-count-invariance tests."""
    mat = ds_sorted.repartition(num_blocks).materialize()
    block_refs = list(mat.get_internal_block_refs())

    def _as_table(block) -> pa.Table:
        return block if hasattr(block, "column") else block.to_arrow()

    @ray.remote
    def _total(block) -> int:
        return int(total_fn(_as_table(block)))

    totals = np.array(ray.get([_total.remote(b) for b in block_refs]),
                      np.int64)
    if combine == "sum":
        bases = np.concatenate(([0], np.cumsum(totals)[:-1]))
    elif combine == "max":
        ident = np.int64(-(1 << 62))
        bases = np.concatenate(
            ([ident], np.maximum.accumulate(totals)[:-1]))
    else:
        raise ValueError(f"unknown combine {combine!r}")

    @ray.remote
    def _emit(block, base: int) -> pa.Table:
        return emit_fn(_as_table(block), int(base))

    refs = [_emit.remote(b, int(base))
            for b, base in zip(block_refs, bases)]
    return ray.data.from_arrow_refs(refs)
