"""Query-serving pipeline: queries table → top-k candidates table.

queries(query_id:int64, text:string)
  → repartition(K)                                 # one block per slot
  → map_batches(task: worker-cached QueryEngine,  # T2
                concurrency=K)
  → (query_id, rank, doc_id, score)                # S7 analog

The reference loads its static index once into the query operator
(algo_toplayer.cpp:61-83) and streams the queries through it. Here each
worker process builds one QueryEngine per call from the call's
broadcast refs and keeps it for every later task of that call
(functions.workercache), so a batch pays no actor-pool cold start.

Queries that tokenize to nothing (stopword-only, Metadata.java:214-218)
produce no output rows.

The serving plan carries its own block bound: the most one serving task
can emit, ceil(queries / concurrency) x top_k rows of SERVE_ROW_BYTES.
Before a map operator has produced any output, Ray Data 2.49 sizes each
task's pending output as target_max_block_size x 2 streaming-generator
blocks (128 MiB x 2 by default), and a task is only launched while that
fits the operator's share of the object-store budget. On a 512 MiB
store none fits, so the executor's liveness rule (launch one task when
the whole plan is idle) ran the first serving task alone and started
the others only after its output lowered the estimate. Measured on 4
CPUs with 2 slots, a 2,000-query batch ran its two tasks (0.14 and
0.18 s) one after the other: operator span 0.32 s, the sum of its task
walls. Under the bound both start at once (span 0.18 s). The bound lives on a copy of
the plan's DataContext: the caller's query dataset and the global
context keep theirs.
"""

from __future__ import annotations

import ray
import ray.data

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.functions.workercache import worker_cached
from candidategeneration_ray.state.queryengine import QueryEngine


def write_candidates(results: ray.data.Dataset, out_dir: str) -> str:
    """Candidate-pool sink (S7, algo_toplayer.cpp:978-1012 writes
    `qid:did did ...` text lines): persist (query_id, rank, doc_id,
    score) as partitioned Parquet — the self-describing replacement for
    the reference's text file."""
    results.write_parquet(out_dir)
    return out_dir


# Above this decoded segment size the driver no longer concatenates the
# index into one plasma object: each serving worker reads the segment
# files itself (parallel IO, per-worker memory bounded by its reads) —
# the default that stays safe when the index outgrows one node. For
# cross-node scale-out use ShardedQueryEngine (doc-sharded fleet) or
# IndexReader(buckets=...) (key-sharded fleet).
BROADCAST_INDEX_MAX_BYTES = 2 << 30

# one output row: query_id int64 + rank int32 + doc_id int64 + score int64
SERVE_ROW_BYTES = 28


def _serve_block_bound(queries: ray.data.Dataset, top_k: int,
                       concurrency: int) -> int | None:
    """Bytes one serving task emits at most: its share of the queries
    times top_k rows each. None when Ray cannot tell the stream's row
    count without running it (such a plan keeps Ray's default bound)."""
    n = queries._meta_count()
    if n is None:
        return None
    return max(1, -(-n // concurrency)) * top_k * SERVE_ROW_BYTES


def run_queries(
    index_dir: str | list[str],
    queries: ray.data.Dataset,
    stats: dict,
    cfg: EngineConfig | None = None,
    concurrency: int = 4,
    broadcast_max_bytes: int | None = None,
    tombstones: dict | None = None,
) -> ray.data.Dataset:
    """Serve a query dataset against the built index.

    `index_dir` may be a list of segment sources — the LSM serving view
    of a base index plus delta generations
    (pipelines.update.serving_sources), base first. `tombstones`
    (pipelines.update.load_tombstones) filters deleted docs at decode
    time in every serving worker — pass it whenever the index has
    uncompacted deletes.

    `concurrency` is both the number of blocks the query stream is split
    into and the limit on concurrent serving tasks, so even a one-block
    query table reaches every slot. The tasks are stateless: each worker
    process builds one QueryEngine on its first task of this call and
    reuses it for the rest. The engine is keyed on refs this call
    creates, so no engine outlives a rewrite of its index (such as a
    compaction that swaps `final/` in place), and a worker keeps at most
    one run_queries engine, so a finished call pins at most one
    broadcast copy per process.

    Small index (<= broadcast_max_bytes decoded): load segments ONCE on
    the driver and ship the Arrow tables through the object store —
    every worker maps the same plasma buffers zero-copy instead of
    re-reading the segment files (N_workers x IO -> 1 x IO; transferred
    once per node by the object store).

    Large index: pass the segment PATHS to the workers — each loads the
    files itself in parallel and the driver never materializes the
    index (the whole-index ray.put would otherwise cap serving at one
    node's driver heap)."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    cfg = cfg or EngineConfig()
    limit = BROADCAST_INDEX_MAX_BYTES if broadcast_max_bytes is None \
        else broadcast_max_bytes
    dirs = index_dir if isinstance(index_dir, list) else [index_dir]
    per_dir_files = [
        sorted(glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True))
        for d in dirs
    ]
    # size the broadcast decision on the DECODED footprint, not the
    # compressed file size: parquet row-group metadata records the
    # uncompressed byte size, which tracks the Arrow tables placed in
    # plasma far better (advisor finding: an index just under the
    # on-disk limit could still exhaust the object store)
    total_bytes = 0
    for files in per_dir_files:
        for f in files:
            md = pq.read_metadata(f)
            total_bytes += sum(md.row_group(g).total_byte_size
                               for g in range(md.num_row_groups))
    stats_ref = ray.put(stats)
    if total_bytes <= limit:
        from concurrent.futures import ThreadPoolExecutor

        # parquet decode releases the GIL — a thread pool turns the
        # driver-side segment load from serial file reads into a
        # bandwidth-bound parallel read (measured 4-6x at GB sizes)
        with ThreadPoolExecutor(max_workers=8) as ex:
            tables = [
                pa.concat_tables(list(ex.map(pq.read_table, files))).combine_chunks()
                for files in per_dir_files
            ]
        source = ray.put(tables if isinstance(index_dir, list) else tables[0])
        source_key = source.hex()
    else:
        source = dirs if isinstance(index_dir, list) else index_dir
        source_key = tuple(dirs)
    tomb_ref = ray.put(tombstones) if tombstones is not None else None
    key = (source_key, stats_ref.hex(),
           None if tomb_ref is None else tomb_ref.hex())

    def _serve(batch: pa.Table) -> pa.Table:
        engine = worker_cached(
            "run_queries", key,
            lambda: QueryEngine(source, stats_ref, cfg, tomb_ref), bound=1)
        return engine(batch)

    out = queries.repartition(concurrency).map_batches(
        _serve, batch_format="pyarrow", concurrency=concurrency)
    bound = _serve_block_bound(queries, cfg.top_k, concurrency)
    if bound is None:
        return out
    # a plan copy shares its DataContext along the whole lineage, the
    # caller's `queries` included: bound a deep copy (own context) only
    out = ray.data.Dataset.copy(out, _deep_copy=True)
    out.context.target_max_block_size = bound
    return out
