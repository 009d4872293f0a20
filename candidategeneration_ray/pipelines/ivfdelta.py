"""Incremental (LSM) updates for the learned-codebook IVF layout.

Extends the text-index LSM capability (pipelines/update.py) to the
embedding side: a built IVF layout (clustering.build_ivf_kmeans_index,
hive-partitioned `cluster=*/` dirs + persisted codebook) absorbs new
vectors WITHOUT retraining — the delta is assigned under the FROZEN
base codebook and lands as a generation directory
`gen-NNNN/cluster=*/`, exactly the frozen-epoch semantics the text LSM
uses for BM25 stats (state.checkpoint's generation rule). Serving
probes read base + every complete generation for the probed clusters
only.

Compaction is a trivial-move (RocksDB's no-overlap move-down): each
generation file is renamed into its base cluster directory with a
generation-unique name, then the emptied generation is dropped. Since
inverted lists are disjoint by cluster and probing reads whole cluster
dirs, a move IS a full compaction here — no byte rewrite, and every
crash window is safe: renames are atomic per file, so a file is
readable from exactly one location at all times, and a half-moved
generation serves its remaining files while the moved ones already
serve from base — so no folded mark filters live generations here;
the highest moved `gen-NNNN-` prefix only floors the next number, so
a moved-file name is never reused (os.rename would clobber it).

Scale notes: delta cost is O(delta) (assign + one partitioned write);
nothing touches the base layout until compaction, and compaction is
O(#generation files) renames. At 100 TB the same layout holds with
cluster dirs sharded across a DFS; the frozen-codebook drift caveat is
the standard IVF practice (retrain offline when drift matters).
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from candidategeneration_ray.pipelines.clustering import (
    _assign, _quantize, build_ivf_kmeans_index,
)
from candidategeneration_ray.state import checkpoint as ckpt


def update_ivf_index(ivf_dir: str, cent: np.ndarray,
                     delta_path: str) -> str:
    """Ingest one delta file as a new generation; returns its dir.

    Vec ids must be new (the LSM is append-only, like the text path);
    the codebook is the base's — FROZEN, never retrained here."""
    moved = glob.glob(os.path.join(ivf_dir, "cluster=*", "gen-*.parquet"))
    gen_dir = ckpt.next_generation_dir(
        ivf_dir, max(map(ckpt.generation_number, moved), default=0))
    cent_ref = ray.put(cent)

    def _code(batch: pa.Table) -> pa.Table:
        _, xq = _quantize(batch)
        return batch.append_column(
            "cluster", pa.array(_assign(xq, ray.get(cent_ref)), pa.int64()))

    ray.data.read_parquet(delta_path, columns=["vec_id", "embedding"]) \
        .map_batches(_code, batch_format="pyarrow") \
        .write_parquet(gen_dir, partition_cols=["cluster"])
    ckpt.write_manifest(gen_dir, {"generation": ckpt.generation_number(gen_dir),
                                  "inputs": [delta_path]})
    return gen_dir


def ivf_serving_paths(ivf_dir: str, clusters) -> list[str]:
    """All parquet files serving the given clusters: base layout plus
    every COMPLETE generation (an interrupted ingest without its
    manifest is invisible — crash healing by re-ingest)."""
    roots = [ivf_dir] + ckpt.generation_dirs(ivf_dir)
    paths = []
    for c in clusters:
        for r in roots:
            paths.extend(sorted(glob.glob(
                os.path.join(r, f"cluster={int(c)}", "*.parquet"))))
    return paths


def compact_ivf_index(ivf_dir: str) -> int:
    """Move every complete generation's files down into the base
    cluster dirs (names prefixed with the generation so they never
    collide), then drop the generation, and remove every generation
    dir without a complete manifest (a torn ingest, never served, or
    the husk of a crash inside an earlier compaction). Returns #files
    moved. Update and compaction are never run concurrently on one
    index: an ingest still writing its generation has no manifest
    yet and would be removed."""
    moved = 0
    for g in ckpt.generation_dirs(ivf_dir):
        gname = os.path.basename(g)
        for f in sorted(glob.glob(os.path.join(g, "cluster=*", "*.parquet"))):
            cdir = os.path.join(ivf_dir, os.path.basename(os.path.dirname(f)))
            os.makedirs(cdir, exist_ok=True)
            os.rename(f, os.path.join(
                cdir, f"{gname}-{os.path.basename(f)}"))
            moved += 1
        os.remove(os.path.join(g, ckpt.MANIFEST))
        for d in sorted(glob.glob(os.path.join(g, "cluster=*"))):
            os.rmdir(d)
        os.rmdir(g)
    ckpt.clear_torn_generations(ivf_dir)
    return moved


# ------------------------------------------------------- driver entry

def _delta_ivf(sf_dir: str) -> tuple[str, np.ndarray]:
    """Build (or reuse) the delta-exercising IVF: embeddings split by
    vec_id parity — EVEN ids are the base corpus (codebook trained on
    them alone), ODD ids arrive as a delta under the frozen codebook —
    then compacted. Parity (unlike a midpoint) keeps the SQL oracle
    free of table-size constants."""
    from candidategeneration_ray.pipelines.clustering import (
        KMEANS_ITERS, KMEANS_K)
    from candidategeneration_ray.pipelines.docquery import _cache_dir
    from candidategeneration_ray.state import checkpoint as ckpt

    root = _cache_dir(sf_dir, f"ivfdelta-k{KMEANS_K}i{KMEANS_ITERS}")
    done = os.path.join(root, "DONE")
    base_dir = os.path.join(root, "base")
    if os.path.exists(done):
        # the codebook persists with the base layout
        # (build_ivf_kmeans_index's own cache) — single source of truth
        ivf_dir, cent = build_ivf_kmeans_index(base_dir)
        return ivf_dir, cent
    ckpt.clear_stale(root)
    os.makedirs(base_dir, exist_ok=True)

    tab = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    ids = tab.column("vec_id").to_numpy()
    import pyarrow.compute as pc

    even = pc.equal(pc.bit_wise_and(tab.column("vec_id"), 1), 0)
    pq.write_table(tab.filter(even), os.path.join(base_dir, "embeddings.parquet"))
    delta_f = os.path.join(root, "delta.parquet")
    pq.write_table(tab.filter(pc.invert(even)), delta_f)
    assert (ids % 2 == 0).any() and (ids % 2 == 1).any(), \
        "parity split needs both halves non-empty"

    ivf_dir, cent = build_ivf_kmeans_index(base_dir)
    # crash hygiene: a previous attempt may have ingested (gen dirs) or
    # compacted (gen-prefixed files in the base cluster dirs) this same
    # delta and died before DONE — reset to the pristine base layout so
    # re-ingest can't double-serve.
    import shutil

    for g in glob.glob(os.path.join(ivf_dir, "gen-*")):
        shutil.rmtree(g, ignore_errors=True)
    for f in glob.glob(os.path.join(ivf_dir, "cluster=*", "gen-*.parquet")):
        os.remove(f)
    update_ivf_index(ivf_dir, cent, delta_f)
    compact_ivf_index(ivf_dir)
    with open(done, "w") as f:
        json.dump({"ivf_dir": ivf_dir}, f)
    return ivf_dir, cent


@ray.remote
def _cluster_stats(files: list[str], cluster: int) -> tuple[int, int, int]:
    if not files:
        return cluster, 0, 0
    t = pq.read_table(files, columns=["vec_id"])
    v = t.column("vec_id").to_numpy()
    return cluster, int(v.size), int(v.sum())


def q_ivf_delta_counts(sf_dir: str) -> pa.Table:
    """Post-delta, post-compaction IVF inverted-list membership:
    (cluster, n_vectors, vec_id_sum) over base+delta — every vector
    assigned under the base-half (even vec_ids) codebook. Vec-id sums
    make the check membership-exact, not just cardinality-exact; one
    Ray task per inverted list."""
    from candidategeneration_ray.pipelines.clustering import KMEANS_K

    ivf_dir, _ = _delta_ivf(sf_dir)
    futs = [
        _cluster_stats.remote(ivf_serving_paths(ivf_dir, [c]), c)
        for c in range(KMEANS_K)
    ]
    rows = sorted(r for r in ray.get(futs) if r[1] > 0)
    return pa.table({
        "cluster": pa.array([r[0] for r in rows], pa.int64()),
        "n_vectors": pa.array([r[1] for r in rows], pa.int64()),
        "vec_id_sum": pa.array([r[2] for r in rows], pa.int64()),
    })


# ------------------------------------------------------- vector deletes

_TOMB_DIR = "tombstones"


def delete_vectors(ivf_dir: str, vec_ids) -> dict:
    """Tombstone-delete vectors from the IVF layout — the embedding-side
    twin of pipelines.update.delete_docs. O(deleted ids): one sorted-id
    parquet write (digest-named, atomic, idempotent); probing filters
    them (ivf_read_filtered) and purge_ivf_tombstones physically
    rewrites only the files that contain any."""
    import hashlib

    ids = np.unique(np.asarray(list(vec_ids), dtype=np.int64))
    if ids.size == 0:
        raise ValueError("delete_vectors needs at least one vec_id")
    existing = load_vector_tombstones(ivf_dir)
    if existing is not None:
        ids = ids[~np.isin(ids, existing)]
    if ids.size == 0:
        return {"deleted": 0, "skipped_already_deleted": True}
    root = os.path.join(ivf_dir, _TOMB_DIR)
    os.makedirs(root, exist_ok=True)
    digest = hashlib.md5(ids.tobytes()).hexdigest()[:10]
    path = os.path.join(root, f"del-{digest}.parquet")
    tmp = path + ".tmp"
    pq.write_table(pa.table({"vec_id": pa.array(ids, pa.int64())}), tmp)
    os.replace(tmp, path)
    return {"deleted": int(ids.size)}


def load_vector_tombstones(ivf_dir: str) -> np.ndarray | None:
    files = sorted(glob.glob(os.path.join(ivf_dir, _TOMB_DIR, "del-*.parquet")))
    if not files:
        return None
    ids = np.concatenate([
        pq.read_table(f).column("vec_id").to_numpy().astype(np.int64)
        for f in files])
    return np.unique(ids)


def ivf_read_filtered(ivf_dir: str, clusters,
                      columns: list[str]) -> pa.Table | None:
    """Probe read over base + generations with tombstoned vectors
    filtered out — the serving-path view under uncompacted deletes."""
    paths = ivf_serving_paths(ivf_dir, clusters)
    if not paths:
        return None
    cols = list(dict.fromkeys(["vec_id", *columns]))
    t = pq.read_table(paths, columns=cols)
    tombs = load_vector_tombstones(ivf_dir)
    if tombs is not None and t.num_rows:
        v = t.column("vec_id").to_numpy()
        idx = np.minimum(np.searchsorted(tombs, v), tombs.size - 1)
        t = t.filter(pa.array(tombs[idx] != v))
    return t


@ray.remote
def _purge_file(path: str, tombs: np.ndarray) -> int:
    """Rewrite one cluster file without its tombstoned vectors (atomic
    tmp+replace; a file left with zero rows is removed). Returns the
    number of vectors dropped. Idempotent — a replayed purge finds no
    matching ids and no-ops."""
    t = pq.read_table(path)
    v = t.column("vec_id").to_numpy().astype(np.int64)
    idx = np.minimum(np.searchsorted(tombs, v), tombs.size - 1)
    dead = tombs[idx] == v
    n_dead = int(dead.sum())
    if n_dead == 0:
        return 0
    kept = t.filter(pa.array(~dead))
    if kept.num_rows == 0:
        os.remove(path)
        return n_dead
    tmp = path + ".tmp"
    pq.write_table(kept, tmp)
    os.replace(tmp, path)
    return n_dead


def purge_ivf_tombstones(ivf_dir: str) -> int:
    """Physically remove tombstoned vectors: one Ray task per serving
    file (base AND generations), each rewriting only if it holds any
    deleted id; tombstone files are removed last (crash between purge
    and removal replays as a no-op). Returns #vectors purged."""
    tombs = load_vector_tombstones(ivf_dir)
    if tombs is None:
        return 0
    files = sorted(
        glob.glob(os.path.join(ivf_dir, "cluster=*", "*.parquet"))
        + glob.glob(os.path.join(ivf_dir, "gen-*", "cluster=*", "*.parquet")))
    tombs_ref = ray.put(tombs)
    purged = int(sum(ray.get([_purge_file.remote(f, tombs_ref)
                              for f in files])))
    for f in glob.glob(os.path.join(ivf_dir, _TOMB_DIR, "del-*.parquet")):
        os.remove(f)
    return purged


def q_ivf_delete_counts(sf_dir: str) -> pa.Table:
    """IVF inverted-list membership AFTER vector deletes: the
    delta-exercising layout (base = even vec_ids, delta = odd, frozen
    codebook) with every vec_id % 5 == 2 tombstone-deleted, served
    through the probe-time filter. pytest proves filter-view ==
    purged-view; the oracle re-derives membership excluding deleted
    ids under the same frozen codebook."""
    from candidategeneration_ray.pipelines.clustering import KMEANS_K

    ivf_dir, _ = _delta_ivf(sf_dir)
    all_ids = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                            columns=["vec_id"]).column("vec_id").to_numpy()
    victims = all_ids[all_ids % 5 == 2]
    if victims.size:
        delete_vectors(ivf_dir, victims)  # idempotent on fixture reuse
    rows = []
    for c in range(KMEANS_K):
        t = ivf_read_filtered(ivf_dir, [c], ["vec_id"])
        if t is None or t.num_rows == 0:
            continue
        v = t.column("vec_id").to_numpy()
        rows.append((c, int(v.size), int(v.sum())))
    return pa.table({
        "cluster": pa.array([r[0] for r in rows], pa.int64()),
        "n_vectors": pa.array([r[1] for r in rows], pa.int64()),
        "vec_id_sum": pa.array([r[2] for r in rows], pa.int64()),
    })
