"""Incremental (delta) index updates: LSM generations over the static index.

The reference rebuilds its index from scratch for new data (its phases
are one-shot batch passes, WWWMain.java:69-110 — there is no
incremental path). At 100 TB a daily full rebuild is the dominant cost,
so this module adds the standard segment-generation design used by
impact-ordered index stores:

  update_index(out_dir, delta_source)
    → delta stats pass (new conversations, new terms)
    → delta postings scored under the FROZEN base epoch statistics
    → delta list build through build_index's own stages (scan_stats,
      partition_postings, write_lists: emit → fold_by_bucket →
      vectorized list build → segment + manifest)
    → written as `generations/gen-NNNN/` next to the base `final/`
  serving: IndexReader([final, gen-0001, ...]) concatenates per-key
    lists across generations (doc ranges are disjoint ascending by
    construction) and rebuilds block-max metadata at decode time —
    queries stay exact block-max WAND with NO compaction required.
  compact_index(out_dir) folds every generation into `final/` with the
    no-shuffle merge (pipelines.build._merge_parts): one task per
    bucket range (one range per CPU) reads each segment file once and
    writes one file, one row group per bucket; a range task holds its
    range's compressed input, like a `fold_by_bucket` fold task —
    identical result to serving the generations directly (tested).
    Its manifest records `through`, the highest generation folded
    (state.checkpoint's generation rule).

FROZEN-STATS EPOCH SEMANTICS (the deliberate trade, documented):
  - N, avgdl and the df of base-dictionary terms stay at the last FULL
    build's values, so every posting of a given term carries a
    consistent quantized BM25 score across base and delta lists (scores
    for one term computed under two df values would not be mergeable).
  - Terms first seen in the delta are APPENDED to the dictionary
    (ids continue past the base vocabulary; base ids never move) with
    their delta df.
  - A full `build_index` over the grown corpus, into a FRESH
    `out_dir`, re-baselines the epoch (exactly the reference's
    rebuild); build_index refuses an `out_dir` holding LSM state
    (updated stats, generations or tombstones). `update_index`
    refuses deltas larger than `max_delta_fraction` of the epoch
    corpus — past that, frozen statistics drift too far and a rebuild
    is the right call.

DELETES (tombstones): delete_docs(out_dir, conv_ids) records deleted
conversations as doc-id ranges under `tombstones/`; IndexReader
filters them at decode time (exact serving, no rebuild), and
compact_index physically removes the postings. Doc ids are never
reclaimed, so a tombstone only covers dead ids and one a crash left
behind after its compaction is harmless. Statistics stay at the
frozen epoch like additive deltas; a full rebuild into a fresh
`out_dir` re-baselines.

Doc-id assignment: delta conversations get doc ids starting at the
current corpus's total turn count (conv_offsets bases shifted), so base
doc ids are stable and every delta doc id is strictly greater than
every base doc id — the invariant the LSM reader's per-key ordered
concatenation relies on (validated at decode).

With build-time list pruning enabled (EngineConfig.max_list_postings),
each generation is pruned to the cap on its own, so GENERATIONAL
serving may expose up to cap × n_generations postings per key;
COMPACTION re-applies the exact prune to the concatenation and
restores the cap (prune-of-pruned is safe — the partition-safety
property in stages/listbuild.prune_mask). This is the documented
difference between the two serving views under pruning (tested).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import ray
import ray.data

from candidategeneration_ray.config import FORMAT_VERSION, EngineConfig
from candidategeneration_ray.pipelines.build import (
    _conv_ranges,
    _final_dir,
    _merge_parts,
    _persist_stats,
    _stats_dir,
    _steal_cpu_sec,
    list_inputs,
    load_stats,
    partition_postings,
    scan_stats,
    segment_lineage,
    write_lists,
)
# not called here: perfbench's traced mode wraps these three names on this module
from candidategeneration_ray.stages.docids import conv_offsets  # noqa: F401
from candidategeneration_ray.stages.listbuild import build_posting_lists  # noqa: F401
from candidategeneration_ray.stages.postings import emit_batch
from candidategeneration_ray.stages.stats import compute_stats  # noqa: F401
from candidategeneration_ray.state import checkpoint as ckpt


def extend_stats(base: dict, delta: dict) -> dict:
    """Append delta-only terms to the base dictionary; freeze everything
    else at the base epoch (see module doc)."""
    base_terms = np.asarray(base["terms"], dtype=object)
    known = set(base_terms.tolist())
    d_terms = np.asarray(delta["terms"], dtype=object)
    d_df = np.asarray(delta["df_by_id"][1:], dtype=np.int64)
    new_mask = np.fromiter((t not in known for t in d_terms),
                           dtype=bool, count=d_terms.size)
    return {
        # compute_stats emits terms sorted, so the appended run is
        # internally sorted; ids = position + 1 (base ids stable)
        "terms": np.concatenate((base_terms, d_terms[new_mask])),
        "df_by_id": np.concatenate(
            (np.asarray(base["df_by_id"], dtype=np.int64), d_df[new_mask])),
        "n_docs": base["n_docs"],               # frozen epoch N
        "total_tokens": base["total_tokens"],   # frozen
        "avgdl": base["avgdl"],                 # frozen
    }


def extend_offsets(base: dict, delta: dict,
                   readdable: set | None = None) -> dict:
    """Merge conversation offset maps; delta conversations' doc-id bases
    shift past the current corpus. Raises on conv-id overlap — except
    for conversations in `readdable` (previously tombstone-deleted,
    see delete_docs): a re-supplied deleted conversation REPLACES its
    map row with a fresh doc-id range at the end of the id space (its
    old doc ids stay tombstoned forever; ids are never reclaimed).

    The shift is max(base + count) over the current map — NOT
    sum(counts) — so dropping a re-added conversation's old row can
    never shrink the id space under a live range."""
    b_conv = np.asarray(base["conv_ids"], dtype=object)
    b_bases = np.asarray(base["bases"], dtype=np.int64)
    b_counts = np.asarray(base["counts"], dtype=np.int64)
    d_conv = np.asarray(delta["conv_ids"], dtype=object)
    overlap = np.intersect1d(b_conv, d_conv)
    if overlap.size:
        blocked = overlap if readdable is None else \
            overlap[~np.isin(overlap, np.asarray(sorted(readdable), dtype=object))]
        if blocked.size:
            raise ValueError(
                f"delta re-supplies {blocked.size} existing conversations "
                f"(e.g. {blocked[0]!r}); updates must carry only NEW "
                "conversations — delete_docs a conversation first to "
                "re-ingest it, or rebuild")
        keep = ~np.isin(b_conv, overlap)
        b_conv, b_bases, b_counts = b_conv[keep], b_bases[keep], b_counts[keep]
    shift = int((np.asarray(base["bases"], dtype=np.int64)
                 + np.asarray(base["counts"], dtype=np.int64)).max()) \
        if len(base["bases"]) else 0
    conv = np.concatenate((b_conv, d_conv))
    bases = np.concatenate((b_bases,
                            np.asarray(delta["bases"], dtype=np.int64) + shift))
    counts = np.concatenate((b_counts,
                             np.asarray(delta["counts"], dtype=np.int64)))
    order = np.argsort(conv, kind="stable")  # attach_doc_ids searchsorts
    return {
        "conv_ids": conv[order],
        "bases": bases[order],
        "counts": counts[order],
        "n_docs": int(counts.sum()),
    }


def _gen_root(out_dir: str) -> str:
    return os.path.join(out_dir, "generations")


# ---------------------------------------------------------------------------
# Tombstone deletes: the LSM delete path. delete_docs records deleted
# conversations as doc-id RANGES (one row per conv — the transcript
# schema maps a conv to a contiguous [base, base+n_turns) doc-id run),
# serving filters them at decode time (IndexReader tombstones=...),
# and compact_index physically removes them. Statistics stay at the
# frozen epoch (N, df, avgdl unchanged — the same deliberate trade as
# additive deltas; a full rebuild re-baselines). Doc-id space is NEVER
# reclaimed: bases are absolute, so live doc ids are stable forever.


def _tomb_root(out_dir: str) -> str:
    return os.path.join(out_dir, "tombstones")


def _through(out_dir: str) -> int:
    """Highest generation number folded into final/ (0 before the
    first compaction)."""
    fd = _final_dir(out_dir)
    return ckpt.folded_through(ckpt.read_manifest(fd), fd)


def _load_offsets_light(out_dir: str) -> dict:
    """Conversation offset map only — no dictionary load (delete_docs
    must not pay the vocabulary's memory at 10^12-doc scale)."""
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(_stats_dir(out_dir), "convs.parquet"))
    conv = np.asarray(t.column("conv_id").to_pylist(), dtype=object)
    bases = t.column("base").to_numpy().astype(np.int64)
    counts = t.column("n_turns").to_numpy().astype(np.int64)
    order = np.argsort(conv, kind="stable")
    return {"conv_ids": conv[order], "bases": bases[order],
            "counts": counts[order]}


def tombstone_files(out_dir: str) -> list[str]:
    """Committed tombstone files, sorted — including one a crashed
    compaction folded but did not remove: it covers only dead doc ids,
    so serving it filters nothing and the next compaction removes it."""
    root = _tomb_root(out_dir)
    if not os.path.isdir(root):
        return []
    return [os.path.join(root, f) for f in sorted(os.listdir(root))
            if f.startswith("del-") and f.endswith(".parquet")]


def load_tombstones(out_dir: str) -> dict | None:
    """Active tombstones as sorted disjoint doc-id ranges:
    {"starts", "ends", "conv_ids", "n_docs"} or None when there are
    none. Pass to IndexReader(tombstones=...) / QueryEngine."""
    import pyarrow.parquet as pq

    files = tombstone_files(out_dir)
    if not files:
        return None
    import pyarrow as pa

    t = pa.concat_tables([pq.read_table(f) for f in files])
    starts = t.column("start").to_numpy().astype(np.int64)
    counts = t.column("n_docs").to_numpy().astype(np.int64)
    convs = np.asarray(t.column("conv_id").to_pylist(), dtype=object)
    order = np.argsort(starts, kind="stable")
    starts, counts, convs = starts[order], counts[order], convs[order]
    # distinct delete ops never share a conv (delete_docs skips already-
    # deleted convs), so ranges are disjoint by construction; verify.
    ends = starts + counts
    if starts.size > 1 and bool(np.any(starts[1:] < ends[:-1])):
        raise ValueError(f"overlapping tombstone ranges in {out_dir!r}")
    return {"starts": starts, "ends": ends, "conv_ids": convs,
            "n_docs": int(counts.sum())}


def _deleted_registry_path(out_dir: str) -> str:
    return os.path.join(_tomb_root(out_dir), "folded-convs.parquet")


def deleted_convs(out_dir: str) -> set:
    """Every conversation ever tombstone-deleted and not since
    re-added: active tombstone files ∪ the folded registry kept by
    compact_index (posting effects fold into final/, but the IDENTITY
    of deleted conversations must outlive compaction so update_index
    can authorize re-ingestion), minus conversations whose CURRENT
    offset row postdates their deletion (re-added)."""
    import pyarrow.parquet as pq

    convs: set = set()
    p = _deleted_registry_path(out_dir)
    if os.path.exists(p):
        convs |= set(pq.read_table(p).column("conv_id").to_pylist())
    t = load_tombstones(out_dir)
    if t is not None:
        convs |= set(t["conv_ids"].tolist())
    if not convs:
        return convs
    # a re-added conv has a live row whose base is past every tombstone
    # range recorded for it — it is no longer "deleted"
    off = _load_offsets_light(out_dir)
    starts_by_conv: dict = {}
    if t is not None:
        for c, s in zip(t["conv_ids"], t["starts"]):
            starts_by_conv.setdefault(c, []).append(int(s))
    if os.path.exists(p):
        reg = pq.read_table(p)
        for c, s in zip(reg.column("conv_id").to_pylist(),
                        reg.column("start").to_pylist()):
            starts_by_conv.setdefault(c, []).append(int(s))
    out = set()
    for c in sorted(convs):
        i = int(np.searchsorted(off["conv_ids"], c))
        if i >= off["conv_ids"].size or off["conv_ids"][i] != c:
            out.add(c)  # deleted and never re-added (row may be dropped)
        elif int(off["bases"][i]) in starts_by_conv.get(c, []):
            out.add(c)  # current row is exactly the deleted range
    return out


def delete_docs(out_dir: str, conv_ids: list[str],
                compact: bool = False,
                cfg: EngineConfig | None = None) -> dict:
    """Tombstone-delete whole conversations from the index at
    `out_dir`. Idempotent: conversations already tombstoned are
    skipped; re-running the same request rewrites the same file
    (digest-named, atomic replace). Unknown conversations raise.
    Serving picks the tombstones up via load_tombstones; compact=True
    folds them into final/ immediately (physical removal).

    O(deleted convs) driver memory and one tiny parquet write — the
    corpus is never read."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    t0 = time.time()
    if not conv_ids:
        raise ValueError("delete_docs needs at least one conv_id")
    req = np.asarray(sorted(set(conv_ids)), dtype=object)
    off = _load_offsets_light(out_dir)
    pos = np.searchsorted(off["conv_ids"], req)
    pos_c = np.minimum(pos, off["conv_ids"].size - 1)
    found = off["conv_ids"][pos_c] == req
    if not found.all():
        missing = req[~found]
        raise ValueError(
            f"delete_docs: {missing.size} conversations not in the index "
            f"(e.g. {missing[0]!r})")
    dead_now = deleted_convs(out_dir)
    if dead_now:
        already = np.isin(req, np.asarray(sorted(dead_now), dtype=object))
        req, pos_c = req[~already], pos_c[~already]
    metrics = {"requested": int(len(set(conv_ids))),
               "skipped_already_deleted": int(len(set(conv_ids)) - req.size)}
    if req.size:
        # digest over (conv, CURRENT start): the same request in the
        # same state replays to the same file (idempotent)
        digest = hashlib.md5("|".join(
            f"{c}:{int(s)}" for c, s in zip(req.tolist(), off["bases"][pos_c])
        ).encode()).hexdigest()[:10]
        root = _tomb_root(out_dir)
        os.makedirs(root, exist_ok=True)
        path = os.path.join(root, f"del-{digest}.parquet")
        tmp = path + ".tmp"
        pq.write_table(pa.table({
            "conv_id": pa.array(req.tolist(), pa.string()),
            "start": pa.array(off["bases"][pos_c], pa.int64()),
            "n_docs": pa.array(off["counts"][pos_c], pa.int64()),
        }), tmp)
        os.replace(tmp, path)
        metrics["deleted_docs"] = int(off["counts"][pos_c].sum())
        # secondary families are corpus functions — rebuild post-delete
        from candidategeneration_ray.pipelines.families import invalidate_families

        stale = invalidate_families(out_dir)
        if stale:
            metrics["invalidated_families"] = stale
    else:
        metrics["deleted_docs"] = 0
    if compact:
        compact_index(out_dir, cfg)
        metrics["compacted"] = True
    metrics["total_sec"] = round(time.time() - t0, 3)
    return metrics


def generation_dirs(out_dir: str) -> list[str]:
    """Complete delta generations not yet folded into final/, in
    ascending doc-id order."""
    return ckpt.generation_dirs(_gen_root(out_dir), _through(out_dir))


def serving_sources(out_dir: str) -> list[str]:
    """Segment sources for IndexReader/QueryEngine, base first."""
    return [_final_dir(out_dir)] + generation_dirs(out_dir)


def update_index(
    out_dir: str,
    source: str | list[str],
    cfg: EngineConfig | None = None,
    compact: bool = False,
    max_delta_fraction: float = 1.0,
    partitions: int = 1,
) -> dict:
    """Apply a delta (new parquet files / a directory of them) to the
    index at `out_dir`. Idempotent: a delta whose inputs are already in
    the stats lineage, unchanged (same size and mtime), is skipped; an
    ingested path whose file has since changed raises ValueError.
    `partitions > 1` splits the delta into contiguous conv ranges, one
    generation each — the resume unit for very large deltas. The
    delta's new terms are appended to the persisted broadcast
    dictionary (extend_stats); stats written in the older
    blocked-dictionary layout raise ValueError — rebuild them with
    build_index. Returns {"sources", "stats", "offsets", "metrics"}
    where `sources` is the serving list for IndexReader (single [final]
    after compact=True)."""
    cfg = cfg or EngineConfig()
    t0 = time.time()
    delta_inputs = list_inputs(source)
    if not delta_inputs:
        raise ValueError(f"no delta parquet inputs in {source!r}")

    sd = _stats_dir(out_dir)
    sm = ckpt.read_manifest(sd)
    if sm is None or sm.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"{out_dir!r} holds no completed build to update (run "
            "build_index first)")
    if sm.get("dict_mode") == "blocks":
        raise ValueError(
            f"{out_dir!r} holds stats in the removed blocked-dictionary "
            "layout — rebuild it with build_index before updating")
    # refuse a config that doesn't match the index on disk — a delta
    # bucketed under different settings would merge/serve wrongly
    fm = ckpt.read_manifest(_final_dir(out_dir))
    through = ckpt.folded_through(fm, _final_dir(out_dir))
    disk_tag = (fm or {}).get("cfg")
    if disk_tag is not None and disk_tag != cfg.index_tag():
        raise ValueError(
            f"EngineConfig mismatch: index at {out_dir!r} was built under "
            f"config tag {disk_tag}, update invoked with {cfg.index_tag()} "
            "— pass the same configuration the index was built with")

    # earlier inputs keep their recorded content (they may be gone by
    # now); the delta's is taken here
    recorded = {f["path"]: f for f in sm.get("files", [])}
    delta_files = ckpt.file_lineage(delta_inputs)
    already = [f for f in delta_files if f["path"] in recorded]
    changed = [f["path"] for f in already if recorded[f["path"]] != f]
    if changed:
        raise ValueError(
            f"delta input {changed[0]!r} was already ingested and has "
            "changed since (size or mtime differ); an update cannot "
            "replace ingested data — delete_docs its conversations and "
            "ingest the new file under a new path, or rebuild")
    metrics = {"phases": []}
    if already:
        if len(already) != len(delta_inputs):
            raise ValueError(
                f"delta partially overlaps the index lineage "
                f"({len(already)}/{len(delta_inputs)} files already "
                "ingested) — pass only new files")
        stats, offsets = load_stats(out_dir)
        metrics["phases"].append({"phase": "delta", "skipped": True})
        if compact:  # still honor a compaction request on a no-op delta
            tc = time.time()
            compact_index(out_dir, cfg)
            metrics["phases"].append({"phase": "compact", "skipped": False,
                                      "sec": round(time.time() - tc, 3)})
        metrics["total_sec"] = round(time.time() - t0, 3)
        return {"sources": serving_sources(out_dir), "stats": stats,
                "offsets": offsets, "metrics": metrics}

    base_stats, base_offsets = load_stats(out_dir)

    # ---- delta stats pass: the base build's scan, size-aware blocks
    delta_stats, delta_offsets, kw = scan_stats(delta_inputs)
    epoch_docs = int(base_stats["n_docs"])
    if epoch_docs and delta_offsets["n_docs"] > max_delta_fraction * epoch_docs:
        raise ValueError(
            f"delta of {delta_offsets['n_docs']} docs exceeds "
            f"{max_delta_fraction:.0%} of the {epoch_docs}-doc scoring "
            "epoch; frozen statistics would drift too far — run a full "
            "build_index instead (or raise max_delta_fraction)")
    ext_stats = extend_stats(base_stats, delta_stats)
    n_new = int(len(ext_stats["terms"]) - len(base_stats["terms"]))
    merged_offsets = extend_offsets(base_offsets, delta_offsets,
                                    readdable=deleted_convs(out_dir))
    metrics["phases"].append({
        "phase": "delta-stats",
        "new_docs": int(delta_offsets["n_docs"]),
        "new_terms": n_new,
        "sec": round(time.time() - t0, 3),
    })

    # ---- delta emission + list build, one generation per conv range.
    # partitions > 1 makes a LARGE delta resumable at sub-delta
    # granularity: contiguous conv ranges get their own generations
    # (delta doc ids ascend with conv id, so range order preserves the
    # LSM disjoint-ascending invariant); a killed ingest re-runs only
    # the unfinished ranges. Generations read with the scan's sized
    # blocks.
    stats_ref = ray.put(ext_stats)
    offsets_ref = ray.put(merged_offsets)
    ranges = _conv_ranges(delta_offsets, partitions) if partitions > 1 \
        else [(None, int(delta_offsets["n_docs"]))]
    for conv_range, rows in ranges:
        lin = segment_lineage(delta_inputs, conv_range, delta_files)
        # crash healing: a run that died between writing a generation
        # and extending the stats lineage leaves completed generations
        # whose delta is not yet in the lineage — reuse them instead of
        # building duplicate doc ranges (which the LSM reader would
        # reject at decode)
        if any(all((ckpt.read_manifest(g) or {}).get(k) == v
                   for k, v in lin.items())
               for g in ckpt.generation_dirs(_gen_root(out_dir), through)):
            metrics["phases"].append({"phase": "generation", "skipped": True,
                                      "healed": True, "range": conv_range})
            continue
        tg = time.time()
        write_lists(
            partition_postings(delta_inputs, conv_range, kw, stats_ref,
                               offsets_ref, cfg, rows),
            ckpt.next_generation_dir(_gen_root(out_dir), through), cfg,
            {"phase": "generation", **lin, "epoch_n_docs": epoch_docs})
        metrics["phases"].append({"phase": "generation", "skipped": False,
                                  "range": conv_range, "rows": rows,
                                  "emit_batch": emit_batch(cfg, rows),
                                  "sec": round(time.time() - tg, 3)})

    # stats/offsets now cover the grown corpus (epoch values frozen —
    # global.json keeps the base N/avgdl); lineage includes the delta so
    # a replayed update is detected as already-ingested
    _persist_stats(out_dir, ext_stats, merged_offsets,
                   sm.get("inputs", []) + delta_inputs,
                   files=sorted(list(recorded.values()) + delta_files,
                                key=lambda f: f["path"]),
                   phase="update")

    # secondary families (HIT / bigram) are global functions of the
    # corpus — mark them stale so the next ensure_* rebuilds them over
    # the grown corpus (their lineage check also catches this if the
    # eager invalidation is lost to a crash)
    from candidategeneration_ray.pipelines.families import invalidate_families

    stale_fams = invalidate_families(out_dir)
    if stale_fams:
        metrics["phases"].append({"phase": "invalidate-families",
                                  "families": stale_fams})

    if compact:
        tc = time.time()
        compact_index(out_dir, cfg)
        metrics["phases"].append({"phase": "compact", "skipped": False,
                                  "sec": round(time.time() - tc, 3)})

    metrics["total_sec"] = round(time.time() - t0, 3)
    return {"sources": serving_sources(out_dir), "stats": ext_stats,
            "offsets": merged_offsets, "metrics": metrics}


def compact_index(out_dir: str, cfg: EngineConfig | None = None) -> str:
    """Fold every delta generation AND every active tombstone into
    `final/` (pipelines.build._merge_parts, no shuffle: one merge task
    per bucket range, one range per CPU, reads each segment file once
    and writes one file with one row group per bucket; a range task
    holds its range's compressed input, like a `fold_by_bucket` fold
    task, plus one bucket's decode. Each bucket's sub-lists
    concatenate in doc order; tombstoned postings are dropped inside
    the merge, physically removing deleted docs). Atomic: the new
    final is built beside the old one and swapped in, then generation
    dirs / tombstone files are removed.

    It first removes the generations at or below the final's `through`
    (left by a crash before cleanup) and the torn ones (no manifest),
    so update and compaction must never run concurrently on one index.
    The new final's manifest records `through`, the highest generation
    folded, and `metrics`: `sec` and `steal_cpu_sec` of the compaction,
    the `generations` and `tombstone_files` folded, `files_read`,
    `files_written` and `n_keys`. Returns the final dir."""
    cfg = cfg or EngineConfig()
    t0, st = time.time(), _steal_cpu_sec()
    fd = _final_dir(out_dir)
    new_fd_pending = fd + ".compacting"
    old_pending = fd + ".old"
    # crash healing for an interrupted swap: a completed .compacting
    # (has a manifest) replaces a missing final; otherwise the old
    # final rolls back.
    if not os.path.isdir(fd):
        if os.path.isdir(new_fd_pending) and ckpt.read_manifest(new_fd_pending):
            os.rename(new_fd_pending, fd)
        elif os.path.isdir(old_pending):
            os.rename(old_pending, fd)
    if os.path.isdir(old_pending):
        shutil.rmtree(old_pending)
    through = _through(out_dir)
    ckpt.clear_torn_generations(_gen_root(out_dir), through)
    gens = ckpt.generation_dirs(_gen_root(out_dir), through)
    tomb_paths = tombstone_files(out_dir)
    tombs = load_tombstones(out_dir)
    if not gens and tombs is None:
        return fd
    tags = {(ckpt.read_manifest(d) or {}).get("cfg") for d in [fd] + gens}
    tags.discard(None)
    if len(tags) > 1 or (tags and cfg.index_tag() not in tags):
        raise ValueError(
            f"EngineConfig mismatch across segments of {out_dir!r} "
            f"(tags {sorted(tags)}, compacting with {cfg.index_tag()}) — "
            "all generations and the final index must share one config")
    new_fd = fd + ".compacting"
    ckpt.clear_stale(new_fd)
    merged = _merge_parts(
        [fd] + gens, new_fd, cfg,
        tombstones=(tombs["starts"], tombs["ends"]) if tombs else None)
    ckpt.write_manifest(new_fd, {
        "phase": "compact", "cfg": cfg.index_tag(),
        "through": ckpt.generation_number(gens[-1]) if gens else through,
        "metrics": {"sec": round(time.time() - t0, 3),
                    "steal_cpu_sec": round(_steal_cpu_sec() - st, 1),
                    "generations": len(gens),
                    "tombstone_files": len(tomb_paths), **merged},
    })
    if tombs is not None:
        # preserve deleted-conv IDENTITY past compaction (folded
        # registry authorizes later re-ingestion, see deleted_convs);
        # written BEFORE the swap so no crash window loses it
        import pyarrow as pa
        import pyarrow.parquet as pq

        reg_p = _deleted_registry_path(out_dir)
        add = pa.table({
            "conv_id": pa.array(tombs["conv_ids"].tolist(), pa.string()),
            "start": pa.array(tombs["starts"], pa.int64()),
        })
        if os.path.exists(reg_p):
            prev = pq.read_table(reg_p)
            add = pa.concat_tables([prev, add])
            # dedupe (replayed compaction after a crash)
            import pandas as pd

            df = add.to_pandas().drop_duplicates().sort_values(
                ["conv_id", "start"], kind="mergesort")
            add = pa.Table.from_pandas(df, preserve_index=False)
        tmp_reg = reg_p + ".tmp"
        pq.write_table(add, tmp_reg)
        os.replace(tmp_reg, reg_p)
    old = fd + ".old"
    ckpt.clear_stale(old)
    os.rename(fd, old)
    os.rename(new_fd, fd)
    shutil.rmtree(old)
    for g in gens:
        shutil.rmtree(g)
    for t in tomb_paths:
        os.remove(t)
    return fd


# ------------------------------------------------------ elastic reshard

def reshard_index(final_dir: str, new_num_buckets: int,
                  out_dir: str | None = None) -> str:
    """Elastic re-bucketing of a built index: rewrite the final
    segments under a NEW key-hash bucket count — the operation a
    growing cluster needs when the shard count must change (more
    serving shards, finer pruning) without paying a rebuild.

    The compressed list rows move WHOLESALE: no re-tokenize, no
    re-emission, no re-sort, no re-encode, no re-scoring — one pure map
    recomputes bucket = hash(key) % new_n and ONE byte-level shuffle
    (groupby the new bucket) regroups rows; each bucket task writes
    exactly one file (tmp + atomic rename, so a crashed reshard simply
    re-runs), giving file-granular pruning for bucket-filtered readers
    and key-sharded fleets at the new count. Cost is proportional to
    index BYTES, not corpus tokens — the same economics as compaction.
    Serving from the resharded layout is bit-identical (the bucket
    column is a layout property, not a semantic one); hash-verified by
    the resharded_bm25_topk plan-equivalence entry and the disjoint-
    ownership pytest."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from candidategeneration_ray.functions.keys import bucket_of
    from candidategeneration_ray.state import checkpoint as ckpt

    out = out_dir or f"{final_dir.rstrip(os.sep)}-rs{new_num_buckets}"
    done = os.path.join(out, "DONE")
    if os.path.exists(done):
        return out
    # a reshard covers ONLY the segments it rewrites: pending LSM
    # generations (bucketed with the old count) would silently miss
    # keys under bucket-filtered reads at the new count — compact first
    parent = os.path.dirname(final_dir.rstrip(os.sep))
    if generation_dirs(parent):
        raise ValueError(
            "index has uncompacted delta generations; run compact_index "
            "before resharding (mixed bucket counts break pruned reads)")
    os.makedirs(out, exist_ok=True)

    def _rebucket(batch: pa.Table) -> pa.Table:
        keys = batch.column("key").to_numpy()
        b = bucket_of(keys, new_num_buckets)
        idx = batch.schema.get_field_index("bucket")
        return batch.set_column(idx, "bucket", pa.array(b, pa.int32()))

    def _write_bucket(group: pa.Table) -> pa.Table:
        b = int(group.column("bucket")[0].as_py())
        tmp = os.path.join(out, f".tmp-bucket-{b:05d}.parquet")
        dst = os.path.join(out, f"bucket-{b:05d}.parquet")
        pq.write_table(group, tmp)
        os.replace(tmp, dst)
        return pa.table({"bucket": pa.array([b], pa.int32()),
                         "n_keys": pa.array([group.num_rows], pa.int64())})

    counts = (
        ray.data.read_parquet(final_dir, file_extensions=["parquet"])
        .map_batches(_rebucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_write_bucket, batch_format="pyarrow")
        .to_pandas()
    )
    ckpt.write_manifest(out, {
        "phase": "reshard",
        "lineage": [final_dir],
        "num_buckets": int(new_num_buckets),
        "n_bucket_files": int(len(counts)),
        "n_keys": int(counts["n_keys"].sum()),
    })
    with open(done, "w") as f:
        f.write("ok")
    return out
