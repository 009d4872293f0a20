"""Arrow block utilities shared by the driver-side gather patterns, and
the read and fold sizing policies of the pipelines."""

from __future__ import annotations

import os

import pyarrow as pa
import ray
import ray.data


def concat_blocks(tables, empty_schema: pa.Schema) -> pa.Table:
    """Concatenate object-store dataset blocks, skipping the
    ZERO-COLUMN placeholder blocks Ray Data emits for empty groupby
    partitions (they carry no schema and break pa.concat_tables —
    whether one appears depends on data layout, so callers downstream
    of a bucket-fold MUST tolerate them). Returns an empty table with
    `empty_schema` when every block is a placeholder."""
    ts = [t for t in tables if t.num_columns > 0]
    if not ts:
        return empty_schema.empty_table()
    return pa.concat_tables(ts)


def ranked_table(results, score: str = "score") -> pa.Table:
    """The ranked output of a top-k entry: one row per hit of each
    `(query_id, [(score, doc_id), ...])` pair in `results`, as int64
    columns query_id, rank (from 1, in the order given), doc_id and
    `score`."""
    qids, ranks, docs, scores = [], [], [], []
    for qid, hits in results:
        for rank, (s, d) in enumerate(hits, 1):
            qids.append(qid)
            ranks.append(rank)
            docs.append(d)
            scores.append(s)
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "rank": pa.array(ranks, pa.int64()),
        "doc_id": pa.array(docs, pa.int64()),
        score: pa.array(scores, pa.int64()),
    })


def rows_or_empty(ds: ray.data.Dataset,
                  empty: pa.Table) -> ray.data.Dataset | pa.Table:
    """`ds` materialized, or the typed 0-row table `empty` when `ds`
    has no rows: Ray Data's to_pandas of a row-less dataset has no
    columns, even when every block carries the schema, so a consumer
    that indexes a column would get a KeyError."""
    ds = ds.materialize()
    return ds if ds.count() else empty


def cluster_cpus() -> int:
    """CPUs of the connected Ray cluster; 16 when the cluster reports
    none or cannot be asked (no session). The one read of the cluster's
    size, for the bucket-range count of the exchange and the emission
    batch; fold bucket counts come from the input (auto_buckets)."""
    try:
        return int(ray.cluster_resources().get("CPU", 16))
    except ray.exceptions.RaySystemError:   # not connected
        return 16


def sized_read_kwargs(nbytes: int, floor: int = 1) -> dict:
    """read_parquet kwargs for an input of `nbytes`: ~2 MB blocks (at
    least `floor`) up to 256 MB, Ray's own heuristic above it. Ray's
    default parallelism splits a small file into hundreds of tiny
    blocks, and a downstream all-to-all then pays a fixed per-block
    cost that dwarfs the data (measured on fd_audit: 7.1 s with default
    splits vs 0.7 s at ~2 MB/block); at real scale the default is
    already right."""
    if nbytes > 256 << 20:
        return {}
    return {"override_num_blocks": max(floor, int(nbytes // (2 << 20)) + 1)}


def auto_buckets(*paths: str, per_bucket_bytes: int = 32 << 20,
                 floor: int = 64, cap: int = 1 << 16) -> int:
    """Size a hash-bucket fold from its input files: ceil(total input
    bytes / per_bucket_bytes), floored so small inputs keep enough
    parallelism and capped as a runaway guard. This is the one
    fold-sizing rule: every fold or shuffle whose rows grow with the
    input takes its bucket count from here (`table_buckets` for
    tables of an sf dir). A fixed bucket count is the 100 TB
    anti-pattern the fold exists to avoid — each fold task owns
    ~1/num_buckets of the routed rows, so the count must grow with the
    corpus to keep tasks task-sized. Bucket counts only repartition
    work: every fold built on this is bucket-count independent
    (pytest-forced by patching this function)."""
    total = sum(os.path.getsize(p) for p in paths)
    return max(floor, min(cap, -(-total // per_bucket_bytes)))


def table_buckets(sf_dir: str, *tables: str) -> int:
    """auto_buckets over the named tables of `sf_dir` — the bucket
    count of a fold whose plan reads those tables."""
    return auto_buckets(*(os.path.join(sf_dir, f"{t}.parquet")
                          for t in tables))


def sized_read(sf_dir: str, tbl: str, cols: list[str] | None = None,
               **read_kw) -> ray.data.Dataset:
    """Column-pruned read of one table with a size-aware block count
    (sized_read_kwargs)."""
    p = os.path.join(sf_dir, f"{tbl}.parquet")
    return ray.data.read_parquet(
        p, columns=cols, **sized_read_kwargs(os.path.getsize(p)), **read_kw)
