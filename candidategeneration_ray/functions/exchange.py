"""Task-routed bucket exchange — groupby(int bucket).map_groups minus
Ray's sort machinery. The one all-to-all of the repo: the index build
(`listbuild.build_posting_lists`), `conv_offsets` and the entry folds
all route rows to their bucket's fold through `fold_by_bucket`.

Ray executes a groupby as a full sort exchange; at bench scale the
Sort operator spends seconds of wall on milliseconds of compute (the
round-5 build measurement: 3.7 s wall for ~2 cpu-s; the PPJoin plan
ran FOUR such sorts). This module routes the same rows explicitly.
The buckets are cut into `groups = min(num_buckets, cluster CPUs)`
contiguous bucket ranges (`bucket_ranges`, shared with the segment
merge of `pipelines.build._merge_parts`). Each upstream block is split
ONCE into `groups` zero-copy slices (`num_returns` fan-out), and one
task per range folds its slices bucket by bucket — identical input
rows per fold, no sort exchange. With one range (one bucket or one CPU) the
blocks go straight to a single fold task, unsplit.

Traffic is `groups` objects per block — `blocks x groups` refs on the
driver, not `blocks x buckets`. Bucket counts come from the callers
(size-derived via tableutil.auto_buckets where the stream is
corpus-proportional); the range count only caps task parallelism.

Bound: the exchange starts from the upstream's full list of block refs,
so the whole upstream dataset is materialized in the object store
before any fold runs — streaming backpressure ends at this boundary."""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import ray

from candidategeneration_ray.functions.tableutil import cluster_cpus


def bucket_ranges(num_buckets: int) -> np.ndarray:
    """The one bucket-range rule: `groups = min(num_buckets, cluster
    CPUs)` contiguous ranges, returned as `groups + 1` edges — range g
    holds buckets [edges[g], edges[g + 1]). The range count caps task
    parallelism of every bucket-keyed task fan-out (`fold_by_bucket`,
    the segment merge `pipelines.build._merge_parts`)."""
    groups = max(1, min(num_buckets, cluster_cpus()))
    return (np.arange(groups + 1, dtype=np.int64) * num_buckets) // groups


def _cut_by_bucket(tbl: pa.Table, col: str, nb: int,
                   edges: np.ndarray) -> list[pa.Table]:
    """Stable-sort `tbl` by its bucket column and cut it at `edges`:
    slice i holds the rows of buckets [edges[i], edges[i+1]). Raises on
    a bucket outside [0, nb) instead of dropping its rows."""
    b = tbl.column(col).to_numpy().astype(np.int64)
    if b.size and (b.min() < 0 or b.max() >= nb):
        raise ValueError(
            f"bucket column {col!r} holds values outside [0, {nb}): "
            f"min {b.min()}, max {b.max()}")
    if b.size > 1 and (b[1:] < b[:-1]).any():
        order = np.argsort(b, kind="stable")
        tbl = tbl.take(pa.array(order, pa.int64()))
        b = b[order]
    bounds = np.searchsorted(b, edges)
    return [tbl.slice(bounds[i], bounds[i + 1] - bounds[i])
            for i in range(len(edges) - 1)]


@ray.remote
def _split_col(block: pa.Table, col: str, nb: int, edges: np.ndarray):
    """One block → one zero-copy slice per bucket range."""
    if block.num_rows == 0:
        # Ray passes EMPTY blocks through map stages unchanged (the
        # appended bucket column never materializes on them); 0-row
        # slices are filtered before the fold concat, so any schema works
        return tuple(block.slice(0, 0) for _ in range(len(edges) - 1))
    return tuple(_cut_by_bucket(block, col, nb, edges))


@ray.remote
def _fold_range(fold_fn: Callable, empty_out: pa.Table, col: str,
                nb: int, lo: int, hi: int, *slices: pa.Table) -> pa.Table:
    """Fold every non-empty bucket in [lo, hi), one `fold_fn` call per
    bucket, and concatenate the outputs in bucket order (a bucket whose
    output column is all-null, hence null-typed, still concatenates)."""
    live = [s for s in slices if s.num_rows]
    if not live:
        return empty_out
    parts = _cut_by_bucket(pa.concat_tables(live), col, nb,
                           np.arange(lo, hi + 1))
    outs = [fold_fn(p) for p in parts if p.num_rows]
    return (outs[0] if len(outs) == 1
            else pa.concat_tables(outs, promote_options="default"))


def fold_by_bucket(ds: ray.data.Dataset, bucket_col: str,
                   fold_fn: Callable[[pa.Table], pa.Table],
                   num_buckets: int,
                   empty_out: pa.Table) -> ray.data.Dataset:
    """`ds.groupby(bucket_col).map_groups(fold_fn)` with task routing.

    Requirements (same as the folds already satisfy): `bucket_col`
    holds ints in [0, num_buckets) — anything else raises ValueError,
    and rows without the column raise KeyError (on the driver, before
    any fold task, when the block's schema is known); `fold_fn` is
    order-insensitive over its group's rows and receives the bucket
    column like map_groups does. Output rows come in bucket
    order, one block per bucket range; a range with no rows yields
    `empty_out` (the fold's 0-row output schema)."""
    # not ds.to_arrow_refs(): after executing a lazy plan it re-runs the
    # plan's head to fetch the schema and cancels those tasks — wasted
    # upstream work, and a cancel path that has aborted the driver in
    # Ray 2.49 (reference_count.cc check failure). The upstream maps
    # here all emit pyarrow blocks, so the refs need no conversion.
    bundles = list(ds.iter_internal_ref_bundles())
    for b in bundles:   # the fold tasks re-check blocks of unknown schema
        names = getattr(b.schema, "names", None)
        if b.num_rows() and names is not None and bucket_col not in names:
            raise KeyError(f"rows without bucket column {bucket_col!r} "
                           f"(columns {names})")
    refs = [r for b in bundles for r in b.block_refs]
    if not refs:
        return ray.data.from_arrow([empty_out])
    edges = bucket_ranges(num_buckets)
    groups = len(edges) - 1
    if groups == 1:
        slices = [refs]
    else:
        split_out = [
            _split_col.options(num_returns=groups).remote(
                r, bucket_col, num_buckets, edges)
            for r in refs
        ]
        slices = [[so[g] for so in split_out] for g in range(groups)]
    return ray.data.from_arrow_refs([
        _fold_range.remote(fold_fn, empty_out, bucket_col, num_buckets,
                           int(edges[g]), int(edges[g + 1]), *slices[g])
        for g in range(groups)
    ])
