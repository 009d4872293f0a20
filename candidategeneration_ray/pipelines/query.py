"""Query-serving pipeline: queries table → top-k candidates table.

queries(query_id:int64, text:string)
  → repartition(K)                                 # one block per slot
  → map_batches(task: worker-cached QueryEngine,  # T2
                concurrency=K)
  → (query_id, rank, doc_id, score)                # S7 analog

The reference loads its static index once into the query operator
(algo_toplayer.cpp:61-83) and streams the queries through it. Here the
load is keyed on the serving view's content version (serving_version):
the lineage of its segment files, a digest of the stats and tombstones,
the engine config, the broadcast limit and the Ray session. The driver
keeps the broadcast of the last version, and each worker process keeps
the QueryEngine it built for it (functions.workercache), so a call on
an unchanged index reads no segment file on the driver, puts nothing
and builds no engine: its tasks reuse warm engines, list caches
included. An update, delete, compaction or rebuild changes the version,
and the next call loads the new state.

Queries that tokenize to nothing (stopword-only, Metadata.java:214-218)
produce no output rows.

The serving plan carries its own block bound, SERVE_BLOCK_BYTES.
Before a map operator has produced any output, Ray Data 2.49 sizes each
task's pending output as target_max_block_size x 2 streaming-generator
blocks (128 MiB x 2 by default), and a task is only launched while that
fits the operator's share of the object-store budget. On a 512 MiB
store none fits, so the executor's liveness rule (launch one task when
the whole plan is idle) ran the first serving task alone and started
the others only after its output lowered the estimate. Measured on 4
CPUs with 2 slots, a 2,000-query batch ran its two tasks (0.14 and
0.18 s) one after the other: operator span 0.32 s, the sum of its task
walls. Under the bound both start at once (span 0.18 s). The bound is a
constant, so it holds for a query stream whose row count Ray cannot
tell without running it (a filter, say). It lives on a copy of the
plan's DataContext: the caller's query dataset and the global context
keep theirs.
"""

from __future__ import annotations

import glob
import hashlib
import os
import pickle

import ray
import ray.data

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.functions.workercache import worker_cached
from candidategeneration_ray.state.checkpoint import file_lineage
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

# Block bound of the serving plan. A 512 MiB store gives Ray Data a
# 256 MiB limit; it reserves half of that, split evenly over the plan's
# operators, and half of each operator's share for its running tasks:
# 16 MiB or more per operator in a plan of up to four. 4 tasks x 2
# pending blocks x 1 MiB = 8 MiB fits that. A task that emits more
# (over ~37k rows of 28 B: query_id int64 + rank int32 + doc_id int64 +
# score int64) streams it out as several blocks.
SERVE_BLOCK_BYTES = 1 << 20


def _segment_files(index_dir: str | list[str]) -> list[list[str]]:
    """The parquet files of each serving source, in source order."""
    dirs = index_dir if isinstance(index_dir, list) else [index_dir]
    return [sorted(glob.glob(os.path.join(d, "**", "*.parquet"),
                             recursive=True)) for d in dirs]


def _version(files: list[list[str]], stats: dict, cfg: EngineConfig,
             limit: int, tombstones: dict | None) -> str:
    """Content version of one serving view: what run_queries keys its
    broadcast and the workers' engines on. The file lineage (path, size,
    mtime_ns) changes with every update, compaction or rebuild; the
    stats and tombstones are digested whole (pickle + md5: 0.2 ms at
    1.5k terms, 74 ms at 532k); the limit decides, with the files,
    whether the index is broadcast. The session is the driver's node id
    (new with every local cluster) and job id (new with every driver
    that joins a running one): a broadcast does not outlive its session,
    and a job id alone restarts at 01000000 with each ray.init."""
    rt = ray.get_runtime_context()
    return hashlib.md5(pickle.dumps(
        (rt.get_node_id(), rt.get_job_id(),
         [file_lineage(f) for f in files], stats, tombstones, cfg, limit),
        protocol=pickle.HIGHEST_PROTOCOL)).hexdigest()


def serving_version(index_dir: str | list[str], stats: dict,
                    cfg: EngineConfig | None = None,
                    broadcast_max_bytes: int | None = None,
                    tombstones: dict | None = None) -> str:
    """The version run_queries serves these arguments under: equal
    versions mean the same index content, stats, tombstones, config and
    Ray session."""
    limit = BROADCAST_INDEX_MAX_BYTES if broadcast_max_bytes is None \
        else broadcast_max_bytes
    return _version(_segment_files(index_dir), stats,
                    cfg or EngineConfig(), limit, tombstones)


def _broadcast(files: list[list[str]], dirs: list[str], stats: dict,
               limit: int, tombstones: dict | None) -> tuple:
    """(index source, stats ref, tombstones ref) for the workers' engines.

    Small index (<= limit decoded): load the segments ONCE on the driver
    and ship the Arrow tables through the object store — every worker
    maps the same plasma buffers zero-copy instead of re-reading the
    segment files (N_workers x IO -> 1 x IO; transferred once per node
    by the object store). Large index: the segment PATHS — each worker
    loads the files itself in parallel and the driver never
    materializes the index (the whole-index ray.put would otherwise cap
    serving at one node's driver heap)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    # size the broadcast decision on the DECODED footprint, not the
    # compressed file size: parquet row-group metadata records the
    # uncompressed byte size, which tracks the Arrow tables placed in
    # plasma far better (advisor finding: an index just under the
    # on-disk limit could still exhaust the object store)
    total_bytes = 0
    for per_dir in files:
        for f in per_dir:
            md = pq.read_metadata(f)
            total_bytes += sum(md.row_group(g).total_byte_size
                               for g in range(md.num_row_groups))
    source = dirs
    if total_bytes <= limit:
        from concurrent.futures import ThreadPoolExecutor

        # parquet decode releases the GIL — a thread pool turns the
        # driver-side segment load from serial file reads into a
        # bandwidth-bound parallel read (measured 4-6x at GB sizes)
        with ThreadPoolExecutor(max_workers=8) as ex:
            source = ray.put([
                pa.concat_tables(list(ex.map(pq.read_table, per_dir)))
                .combine_chunks() for per_dir in files])
    return (source, ray.put(stats),
            None if tombstones is None else ray.put(tombstones))


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
    process builds one QueryEngine per serving version (serving_version)
    and reuses it for every later task, across calls, until a call with
    another version replaces it. The driver likewise keeps the broadcast
    of the last version only: a call on an unchanged index stats the
    segment files and reads none of them. An engine never outlives a
    rewrite of its index (such as a compaction that swaps `final/` in
    place), since the rewrite changes the files' lineage, and a finished
    call pins at most one broadcast copy per process.

    Small index (<= broadcast_max_bytes decoded): the workers map the
    driver's broadcast tables zero-copy. Large index: they read the
    segment files themselves (see _broadcast)."""
    cfg = cfg or EngineConfig()
    limit = BROADCAST_INDEX_MAX_BYTES if broadcast_max_bytes is None \
        else broadcast_max_bytes
    dirs = index_dir if isinstance(index_dir, list) else [index_dir]
    files = _segment_files(dirs)
    version = _version(files, stats, cfg, limit, tombstones)
    # the same cache mechanism as the workers': the old broadcast is
    # dropped before the new one is put
    source, stats_ref, tomb_ref = worker_cached(
        "run_queries-broadcast", version,
        lambda: _broadcast(files, dirs, stats, limit, tombstones), bound=1)

    def _serve(batch):
        engine = worker_cached(
            "run_queries", version,
            lambda: QueryEngine(source, stats_ref, cfg, tomb_ref), bound=1)
        return engine(batch)

    out = queries.repartition(concurrency).map_batches(
        _serve, batch_format="pyarrow", concurrency=concurrency)
    # a plan copy shares its DataContext along the whole lineage, the
    # caller's `queries` included: bound a deep copy (own context) only
    out = ray.data.Dataset.copy(out, _deep_copy=True)
    out.context.target_max_block_size = SERVE_BLOCK_BYTES
    return out
