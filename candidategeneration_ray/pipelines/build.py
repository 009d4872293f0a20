"""End-to-end index build pipeline (the reference's PHASE1 + PHASE2).

    read_parquet(transcripts)                       # S1; column-pruned
      → map_batches(tokenize)                        # M1
      → [stats pass: N, Σlen, df, dictionary]        # A1-A3, checkpointed
      → map_batches(attach doc_id)                   # pure-function ids
      → map_batches(PostingEmitter) → partial rows   # M5-M7
      → fold_by_bucket → vectorized list merge       # O1/O2 collapsed into
                                                     #  one hash exchange
      → write_parquet(segments) + manifest           # S5/S6, resumable

The stages are shared with update_index (pipelines/update.py): the
input listing (`list_inputs`), the stats scan (`scan_stats`), the
partition read (`partition_postings`) and the one posting-list segment
writer (`write_lists`), which every posting-list segment in the
package goes through.

Layout: `stats/` and `final/`. A one-partition build (the default)
writes its segments straight into `final/`. Partitioned mode
(`partitions=P`, P > 1) splits the emission into P parts under
`segments/part-NNNNN/`: groups of input files when the corpus has
several files, else contiguous conv-id ranges (parquet predicate
pushdown prunes row groups at the read); a merge with one task and
one output file per bucket range then writes `final/`. Each part,
with its manifest, is simultaneously:
  * the resume unit (a killed build skips completed partitions), and
  * the salting scheme for hot keys (SURVEY §4): a hot key's postings
    arrive as P doc-ordered sub-lists that the per-bucket merge folds
    into one list.

Every manifest records what its output was built from, by content:
each input's path, size and mtime (checkpoint.file_lineage). A rebuild
into the same `out_dir` skips a phase only when that record still
matches the inputs on disk.
"""

from __future__ import annotations

import ctypes
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from candidategeneration_ray.config import FORMAT_VERSION, EngineConfig
from candidategeneration_ray.functions.arrowutil import binary_column_concat
from candidategeneration_ray.functions.exchange import (
    _cut_by_bucket, bucket_ranges)
from candidategeneration_ray.stages.docids import attach_doc_ids, conv_offsets
from candidategeneration_ray.stages.listbuild import (
    _LIST_SCHEMA, build_posting_lists, merge_partial_lists)
from candidategeneration_ray.stages.postings import emit_batch, emit_postings
from candidategeneration_ray.stages.stats import compute_stats
from candidategeneration_ray.stages.tokenize import attach_tokens
from candidategeneration_ray.state import checkpoint as ckpt

INPUT_COLUMNS = ["conv_id", "turn_idx", "text"]


def read_index_segments(index_dir: str) -> ray.data.Dataset:
    """Read a segment directory as a Dataset (skips MANIFEST.json —
    naive read_parquet on the dir would choke on it)."""
    files = sorted(
        os.path.join(index_dir, f)
        for f in os.listdir(index_dir) if f.endswith(".parquet")
    )
    return ray.data.read_parquet(files)


def list_inputs(source: str | list[str]) -> list[str]:
    """Sorted parquet inputs of `source`: a directory's `*.parquet`
    files, or the given path(s)."""
    if isinstance(source, str) and os.path.isdir(source):
        return sorted(os.path.join(source, f) for f in os.listdir(source)
                      if f.endswith(".parquet"))
    return sorted(source if isinstance(source, list) else [source])


def _scan_sizing(paths: list[str]) -> tuple[dict, int]:
    """Sizing of a corpus scan: (read_parquet kwargs, fold bucket count
    for its conv_offsets / compute_stats folds).

    Reads follow tableutil.sized_read_kwargs: ~2 MB blocks below
    256 MB (measured on the 60 MB bench corpus: conv_offsets 1.40 ->
    0.32 s, compute_stats 2.17 -> 0.90 s, emission part 5.7 -> 3.9 s
    warm), Ray's own heuristic above — at 100 TB the kwargs are empty.

    Folds take 16 buckets on small local inputs (task-exchange object
    overhead dominates below that) and tableutil.auto_buckets
    (bytes-derived) at scale."""
    from candidategeneration_ray.functions.tableutil import (
        auto_buckets, sized_read_kwargs)

    total = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
    kw = sized_read_kwargs(total)
    return kw, 16 if kw else auto_buckets(*paths)


def read_partition(paths: list[str], conv_range=None,
                   **read_kw) -> ray.data.Dataset:
    """Tokenized rows of `paths`, narrowed to the conv ids in
    [lo, hi) when `conv_range` = (lo, hi) is given (hi None = open;
    parquet predicate pushdown prunes row groups). `read_kw` goes to
    read_parquet unchanged, so each caller keeps its own block sizing."""
    if conv_range is not None:
        import pyarrow.dataset as pads

        lo, hi = conv_range
        flt = pads.field("conv_id") >= lo
        if hi is not None:
            flt = flt & (pads.field("conv_id") < hi)
        read_kw["filter"] = flt
    return attach_tokens(ray.data.read_parquet(
        paths, columns=INPUT_COLUMNS, **read_kw))


def scan_stats(paths: list[str]) -> tuple[dict, dict, dict]:
    """The corpus statistics scan: conv offsets, then dictionary / df /
    N / total tokens, both over size-aware blocks (_scan_sizing).
    Returns (stats, offsets, read kwargs of the scan)."""
    kw, fold_nb = _scan_sizing(paths)
    # offsets scan never touches `text` — prune it at the read
    base_ds = ray.data.read_parquet(
        paths, columns=["conv_id", "turn_idx"], **kw)
    toks = read_partition(paths, **kw)
    # sequential: measured faster than both thread-concurrent
    # execution (two streaming executions contend) and a fused
    # single-groupby variant (the two-column string groupby path
    # costs more than the second shuffle saves)
    offsets = conv_offsets(base_ds, num_buckets=fold_nb)
    stats = compute_stats(toks, num_buckets=fold_nb)
    return stats, offsets, kw


def partition_postings(paths: list[str], conv_range, read_kw: dict,
                       stats_ref, offsets_ref, cfg: EngineConfig,
                       rows: int) -> ray.data.Dataset:
    """Partial posting rows of one partition (read_partition → doc
    ids → emission), scored under the broadcast stats. `rows` is the
    partition's turn count; it sizes the emission batches
    (postings.emit_batch)."""
    toks = read_partition(paths, conv_range, **read_kw)
    return emit_postings(attach_doc_ids(toks, offsets_ref), stats_ref, cfg,
                         rows=rows)


def write_lists(postings: ray.data.Dataset, seg_dir: str,
                cfg: EngineConfig, manifest: dict) -> int:
    """The posting-list segment writer: clear `seg_dir`, build the
    lists from partial rows, write them as parquet, then write the
    manifest (`manifest` plus the config tag and key count) last, so a
    segment with a manifest is complete. Returns the key count."""
    ckpt.clear_stale(seg_dir)
    lists = build_posting_lists(postings, cfg)
    os.makedirs(seg_dir, exist_ok=True)
    lists.write_parquet(seg_dir)
    n_keys = sum(pq.read_metadata(os.path.join(seg_dir, f)).num_rows
                 for f in os.listdir(seg_dir) if f.endswith(".parquet"))
    ckpt.write_manifest(seg_dir, {**manifest, "cfg": cfg.index_tag(),
                                  "n_keys": int(n_keys)})
    return int(n_keys)


def segment_lineage(paths: list[str], conv_range, files: list[dict]) -> dict:
    """What a segment is built from: `lineage`, its input paths (plus
    `range:lo..hi` for a conv range), and `files`, the content record
    (checkpoint.file_lineage) of the corpus whose stats and doc ids it
    was emitted under — a part depends on every input, not only its
    own."""
    lineage = sorted(paths)
    if conv_range is not None:
        lineage.append(f"range:{conv_range[0]}..{conv_range[1]}")
    return {"lineage": lineage, "files": files}


def _steal_cpu_sec() -> float:
    """Cumulative hypervisor CPU-steal (cpu-seconds, /proc/stat col 8)
    — per-phase deltas land in the build metrics so a noisy-host run's
    wall-clock spread is attributable to a phase (read vs emission vs
    shuffle vs merge) instead of a mystery (BENCH/BASELINE.md
    session-13 measured 94-250 s for identical code)."""
    try:
        return int(open("/proc/stat").readline().split()[8]) / 100.0
    except Exception:
        return 0.0


def _stats_dir(out_dir): return os.path.join(out_dir, "stats")
def _part_dir(out_dir, p): return os.path.join(out_dir, "segments", f"part-{p:05d}")
def _final_dir(out_dir): return os.path.join(out_dir, "final")


def _persist_stats(out_dir: str, stats: dict, offsets: dict,
                   inputs: list[str], files: list[dict] | None = None,
                   phase: str = "stats") -> None:
    """Write stats/ and its manifest. `inputs` stay plain paths (the
    families re-read them); `files` records their content (default:
    checkpoint.file_lineage of `inputs`). update_index writes
    phase="update", which marks the directory as LSM state.

    Each file is written to a tmp path and renamed over the old one, so
    a crash mid-write (update_index rewrites a live stats/) leaves the
    previous file readable; the manifest goes last."""
    d = _stats_dir(out_dir)
    os.makedirs(d, exist_ok=True)

    def _replace(name: str, write) -> None:
        tmp = os.path.join(d, name + ".tmp")
        write(tmp)
        os.replace(tmp, os.path.join(d, name))

    _replace("terms.parquet", lambda p: pq.write_table(pa.table({
        "term": pa.array(list(stats["terms"]), pa.string()),
        "df": pa.array(stats["df_by_id"][1:], pa.int64()),
    }), p))
    _replace("convs.parquet", lambda p: pq.write_table(pa.table({
        "conv_id": pa.array(list(offsets["conv_ids"]), pa.string()),
        "base": pa.array(offsets["bases"], pa.int64()),
        "n_turns": pa.array(offsets["counts"], pa.int64()),
    }), p))

    def _global(p: str) -> None:
        with open(p, "w") as f:
            json.dump({"n_docs": stats["n_docs"],
                       "total_tokens": stats["total_tokens"],
                       "avgdl": stats["avgdl"]}, f)

    _replace("global.json", _global)
    ckpt.write_manifest(d, {
        "phase": phase, "inputs": sorted(inputs),
        "files": files if files is not None else ckpt.file_lineage(inputs),
        "format": FORMAT_VERSION, "n_docs": stats["n_docs"],
        "n_terms": int(len(stats["terms"]))})


def load_stats(out_dir: str) -> tuple[dict, dict]:
    """Load the persisted stats + conv-offset checkpoint."""
    d = _stats_dir(out_dir)
    terms_t = pq.read_table(os.path.join(d, "terms.parquet"))
    convs_t = pq.read_table(os.path.join(d, "convs.parquet"))
    with open(os.path.join(d, "global.json")) as f:
        g = json.load(f)
    terms = np.asarray(terms_t.column("term").to_pylist(), dtype=object)
    stats = {
        "terms": terms,
        "df_by_id": np.concatenate(([0], terms_t.column("df").to_numpy())),
        "n_docs": g["n_docs"],
        "total_tokens": g["total_tokens"],
        "avgdl": g["avgdl"],
    }
    counts = convs_t.column("n_turns").to_numpy()
    offsets = {
        "conv_ids": np.asarray(convs_t.column("conv_id").to_pylist(), dtype=object),
        "bases": convs_t.column("base").to_numpy(),
        "counts": counts,
        "n_docs": int(counts.sum()),
    }
    return stats, offsets


def _conv_ranges(offsets: dict,
                 partitions: int) -> list[tuple[tuple[str, str | None], int]]:
    """Split conversations into `partitions` contiguous ranges balanced
    by turn count. Returns [((lo_conv, hi_conv_exclusive_or_None),
    turns in the range)]."""
    conv_ids = offsets["conv_ids"]
    cum = np.cumsum(offsets["counts"])
    total = cum[-1]
    bounds = [0]
    for p in range(1, partitions):
        bounds.append(int(np.searchsorted(cum, total * p / partitions)))
    bounds.append(len(conv_ids))
    ranges = []
    for i in range(partitions):
        lo, hi = bounds[i], bounds[i + 1]
        if lo >= hi:
            continue
        hi_conv = conv_ids[hi] if hi < len(conv_ids) else None
        turns = cum[hi - 1] - (cum[lo - 1] if lo else 0)
        ranges.append(((conv_ids[lo], hi_conv), int(turns)))
    return ranges


def _refuse_lsm_state(out_dir: str) -> None:
    """build_index starts a scoring epoch; it cannot re-baseline an
    index that update_index / delete_docs have moved past its build
    (stats extended by a delta, generations or tombstones on disk)."""
    sm = ckpt.read_manifest(_stats_dir(out_dir)) or {}
    lsm = [d for d in (os.path.join(out_dir, "generations"),
                       os.path.join(out_dir, "tombstones"))
           if os.path.isdir(d) and os.listdir(d)]
    if sm.get("phase") == "update" or lsm:
        raise ValueError(
            f"{out_dir!r} holds LSM state (updated stats, generations or "
            "tombstones); build_index does not re-baseline it in place — "
            "build the grown corpus into a fresh out_dir")


def build_index(
    source: str | list[str],
    out_dir: str,
    cfg: EngineConfig | None = None,
    partitions: int = 1,
) -> dict:
    """Build (or resume) the static index under `out_dir`.

    The term dictionary, df and conv offsets are computed once, persisted
    under `stats/` and broadcast to every emitter (one ray.put each).

    `partitions > 1` splits the emission into resumable partitions,
    chosen from the input:
      - several input files: partitions are groups of files, so each
        byte of input is read exactly once. Doc ranges per partition
        may interleave (input may be shuffled), but the bucket merge
        re-sorts each key's postings by doc id, so the final index is
        identical (tested);
      - one input file: partitions are contiguous conv-id ranges
        (parquet predicate filters), giving doc-range-disjoint,
        ordered sub-lists.
    One partition writes `final/` directly.

    A phase is skipped only when its manifest records the same inputs
    (path, size, mtime), format and config; anything else rebuilds it.
    An `out_dir` holding LSM state (see update_index) raises
    ValueError: re-baseline into a fresh `out_dir`.

    Returns {"final_dir", "stats", "offsets", "metrics"}.
    """
    cfg = cfg or EngineConfig()
    t0 = time.time()
    inputs = list_inputs(source)
    _refuse_lsm_state(out_dir)
    metrics = {"phases": []}
    # Manifests record the config digest so a resume under a changed
    # EngineConfig / format version rebuilds rather than silently
    # reusing partitions built under the old settings.
    cfg_tag = cfg.index_tag()
    files = ckpt.file_lineage(inputs)

    # ---- phase 1: stats (N, total tokens, df, dictionary, conv offsets)
    sd = _stats_dir(out_dir)
    sm = ckpt.read_manifest(sd) or {}
    if (sm.get("inputs"), sm.get("files"), sm.get("format")) == \
            (inputs, files, FORMAT_VERSION):
        stats, offsets = load_stats(out_dir)
        metrics["phases"].append({"phase": "stats", "skipped": True})
    else:
        ckpt.clear_stale(sd)
        st = _steal_cpu_sec()
        stats, offsets, _ = scan_stats(inputs)
        _persist_stats(out_dir, stats, offsets, inputs, files)
        metrics["phases"].append({"phase": "stats", "skipped": False,
                                  "sec": round(time.time() - t0, 3),
                                  "steal_cpu_sec": round(
                                      _steal_cpu_sec() - st, 1)})

    stats_ref = ray.put(stats)
    offsets_ref = ray.put(offsets)

    # ---- phase 2: per-partition posting emission + list build.
    # (paths, conv range, read kwargs, turns): file groups read
    # size-aware and count their turns from the parquet footers, conv
    # ranges read with Ray's default blocks
    if len(inputs) > 1 and partitions > 1:
        bounds = np.linspace(0, len(inputs), min(partitions, len(inputs)) + 1).astype(int)
        groups = [inputs[bounds[i]:bounds[i + 1]]
                  for i in range(len(bounds) - 1) if bounds[i] < bounds[i + 1]]
        part_specs = [
            (g, None, _scan_sizing(g)[0],
             sum(pq.read_metadata(f).num_rows for f in g))
            for g in groups
        ]
    else:
        part_specs = [(inputs, r, {}, n)
                      for r, n in _conv_ranges(offsets, partitions)]
    fd = _final_dir(out_dir)
    one = len(part_specs) == 1
    if one:  # parts of an earlier partitioned build into this out_dir
        ckpt.clear_stale(os.path.join(out_dir, "segments"))
    part_dirs, parts = [], []
    for p, (paths, conv_range, read_kw, rows) in enumerate(part_specs):
        pd = fd if one else _part_dir(out_dir, p)
        part_dirs.append(pd)
        lin = segment_lineage(paths, conv_range, files)
        parts.append(lin["lineage"])
        pm = ckpt.read_manifest(pd) or {}
        if all(pm.get(k) == v for k, v in lin.items()) and pm.get("cfg") == cfg_tag:
            metrics["phases"].append({"phase": f"part-{p}", "skipped": True})
            continue
        tp, sp = time.time(), _steal_cpu_sec()
        n_keys = write_lists(
            partition_postings(paths, conv_range, read_kw, stats_ref,
                               offsets_ref, cfg, rows),
            pd, cfg, {"phase": f"part-{p}", **lin})
        metrics["phases"].append({"phase": f"part-{p}", "skipped": False,
                                  "n_keys": n_keys, "rows": rows,
                                  "emit_batch": emit_batch(cfg, rows),
                                  "sec": round(time.time() - tp, 3),
                                  "steal_cpu_sec": round(
                                      _steal_cpu_sec() - sp, 1)})

    # ---- phase 3: merge partition sub-segments into the global index
    if not one:
        fm = ckpt.read_manifest(fd) or {}
        if (fm.get("parts"), fm.get("files"), fm.get("cfg")) == \
                (parts, files, cfg_tag):
            metrics["phases"].append({"phase": "merge", "skipped": True})
        else:
            ckpt.clear_stale(fd)
            tm, sm2 = time.time(), _steal_cpu_sec()
            merged = _merge_parts(part_dirs, fd, cfg)
            ckpt.write_manifest(fd, {"phase": "merge", "parts": parts,
                                     "files": files, "cfg": cfg_tag})
            metrics["phases"].append({"phase": "merge", "skipped": False,
                                      **merged,
                                      "sec": round(time.time() - tm, 3),
                                      "steal_cpu_sec": round(
                                          _steal_cpu_sec() - sm2, 1)})

    metrics["total_sec"] = round(time.time() - t0, 3)
    metrics["n_docs"] = stats["n_docs"]
    return {"final_dir": fd, "stats": stats, "offsets": offsets, "metrics": metrics}


def _write_range(files: list[str], lo: int, hi: int, cfg: EngineConfig,
                 out_path: str, tombstones) -> int:
    """Merge buckets [lo, hi) of every segment file in `files` (in
    doc-range order) into `out_path`, one row group per bucket. Each
    file is read once, filtered to the range (parquet statistics prune
    row groups), and cut into zero-copy per-bucket slices; the buckets
    then merge one at a time. Returns the key count."""
    edges = np.arange(lo, hi + 1)
    cuts = []
    for f in files:
        t = pq.read_table(f, filters=[("bucket", ">=", lo),
                                      ("bucket", "<", hi)])
        if t.num_rows:
            cuts.append(_cut_by_bucket(t, "bucket", cfg.num_buckets, edges))
    tmp = os.path.join(os.path.dirname(out_path),
                       f".{os.path.basename(out_path)}.tmp")
    n_keys = 0
    with pq.ParquetWriter(tmp, _LIST_SCHEMA) as writer:
        for i in range(hi - lo):
            parts = [c[i] for c in cuts if c[i].num_rows]
            if not parts:
                continue
            tab = pa.concat_tables(parts).combine_chunks()
            docs_data, docs_off = binary_column_concat(tab.column("docs"))
            scores_data, _ = binary_column_concat(tab.column("scores"))
            merged = merge_partial_lists(
                tab.column("key").to_numpy().astype(np.int64),
                tab.column("n").to_numpy().astype(np.int64),
                docs_data, scores_data, cfg, lo + i,
                tombstones=tombstones,
                src_codec=cfg.codec, docs_off=docs_off,
            )
            if merged.num_rows:
                writer.write_table(merged)
                n_keys += merged.num_rows
    os.replace(tmp, out_path)
    return n_keys


@ray.remote
def _merge_range_task(files: list[str], lo: int, hi: int, cfg: EngineConfig,
                      out_path: str, tombstones=None) -> int:
    """One bucket range of `_merge_parts` (see `_write_range`). The
    per-bucket numpy decodes leave freed pages on the C heap; trimming
    it (glibc `malloc_trim`) once the range is written keeps a merge
    worker's resident size at that of one task per bucket (measured on
    the churn corpus: about 10 MB less per worker than without the
    trim; releasing Arrow's pool instead made no difference)."""
    n_keys = _write_range(files, lo, hi, cfg, out_path, tombstones)
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):   # a C library without malloc_trim
        pass
    return n_keys


def _merge_parts(part_dirs: list[str], final_dir: str, cfg: EngineConfig,
                 tombstones=None) -> dict:
    """Concat-merge doc-range-disjoint sub-lists per key.

    The reference's massiveBinaryMerge (ExternalSort.java:91-205)
    k-way-merges sorted runs; because our partitions have disjoint,
    ordered doc ranges AND both sides are already bucket-partitioned,
    no shuffle is needed at all. The buckets are cut into the
    exchange's contiguous ranges (`exchange.bucket_ranges`, one per
    CPU); one independent Ray task per range reads its slice of every
    part file once (parquet predicate pushdown), runs the vectorized
    partial-list merge bucket by bucket, and writes one segment file
    atomically, one row group per bucket. A range task holds its
    range's compressed input, like a `fold_by_bucket` fold task, plus
    one bucket's decode at a time. (A groupby(bucket) sorts the entire
    index's binary payloads through the shuffle — 400 s at a 2 M-turn
    scale test vs ~20 s for the task shape; one task per bucket opens
    every part file once per bucket, ~10,000 filtered opens per
    compaction of a 96-file final.)

    Returns {"files_read", "files_written", "n_keys"}.
    """
    files = [os.path.join(d, f) for d in part_dirs
             for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
    os.makedirs(final_dir, exist_ok=True)
    tomb_ref = ray.put(tombstones) if tombstones is not None else None
    edges = bucket_ranges(cfg.num_buckets)
    refs = [
        _merge_range_task.remote(
            files, lo, hi, cfg,
            os.path.join(final_dir, f"buckets-{lo:05d}-{hi:05d}.parquet"),
            tomb_ref)
        for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist())
    ]
    return {"files_read": len(files), "files_written": len(refs),
            "n_keys": int(sum(ray.get(refs)))}
