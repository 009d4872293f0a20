"""IVF LSM (frozen-codebook delta + trivial-move compaction) tests."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from candidategeneration_ray.pipelines import ivfdelta as ivd
from candidategeneration_ray.pipelines.clustering import (
    KMEANS_K, build_ivf_kmeans_index)
from candidategeneration_ray.state import checkpoint as ckpt


def _write_vecs(path, ids, rng):
    emb = rng.normal(size=(len(ids), 8)).round(3)
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, e)) for e in emb],
                              pa.list_(pa.float64())),
    }), path)


def _served_ids(ivf_dir):
    files = ivd.ivf_serving_paths(ivf_dir, range(KMEANS_K))
    if not files:
        return []
    return sorted(pq.read_table(files, columns=["vec_id"])
                  .column("vec_id").to_pylist())


class TestIvfLsm:
    def _build(self, tmp_path, n_base=40, n_delta=15):
        rng = np.random.default_rng(3)
        base_dir = str(tmp_path / "base")
        os.makedirs(base_dir)
        _write_vecs(os.path.join(base_dir, "embeddings.parquet"),
                    list(range(n_base)), rng)
        delta_f = str(tmp_path / "delta.parquet")
        _write_vecs(delta_f, list(range(1000, 1000 + n_delta)), rng)
        ivf_dir, cent = build_ivf_kmeans_index(base_dir)
        return ivf_dir, cent, delta_f

    def test_delta_visible_and_compaction_identity(self, ray_session, tmp_path):
        ivf_dir, cent, delta_f = self._build(tmp_path)
        assert _served_ids(ivf_dir) == list(range(40))
        ivd.update_ivf_index(ivf_dir, cent, delta_f)
        pre = _served_ids(ivf_dir)
        assert pre == list(range(40)) + list(range(1000, 1015))
        # per-cluster membership must be identical across compaction
        pre_by_cluster = {
            c: sorted(pq.read_table(f, columns=["vec_id"])
                      .column("vec_id").to_pylist())
            for c in range(KMEANS_K)
            if (f := ivd.ivf_serving_paths(ivf_dir, [c]))
        }
        moved = ivd.compact_ivf_index(ivf_dir)
        assert moved > 0
        assert not glob.glob(os.path.join(ivf_dir, "gen-*"))
        assert _served_ids(ivf_dir) == pre
        for c, want in pre_by_cluster.items():
            got = sorted(pq.read_table(
                ivd.ivf_serving_paths(ivf_dir, [c]),
                columns=["vec_id"]).column("vec_id").to_pylist())
            assert got == want

    def test_half_moved_generation_serves_each_row_once(self, ray_session, tmp_path):
        """Simulate a crash mid-compaction: one file already renamed
        into base, the generation manifest still present — every row
        must be served exactly once."""
        ivf_dir, cent, delta_f = self._build(tmp_path)
        gen = ivd.update_ivf_index(ivf_dir, cent, delta_f)
        want = _served_ids(ivf_dir)
        gname = os.path.basename(gen)
        f = sorted(glob.glob(os.path.join(gen, "cluster=*", "*.parquet")))[0]
        cdir = os.path.join(ivf_dir, os.path.basename(os.path.dirname(f)))
        os.makedirs(cdir, exist_ok=True)
        os.rename(f, os.path.join(cdir, f"{gname}-{os.path.basename(f)}"))
        assert _served_ids(ivf_dir) == want          # crash window
        ivd.compact_ivf_index(ivf_dir)                # healing finishes
        assert _served_ids(ivf_dir) == want

    def test_incomplete_generation_invisible(self, ray_session, tmp_path):
        ivf_dir, cent, delta_f = self._build(tmp_path)
        base = _served_ids(ivf_dir)
        gen = ivd.update_ivf_index(ivf_dir, cent, delta_f)
        os.remove(os.path.join(gen, ckpt.MANIFEST))  # crash before manifest
        assert _served_ids(ivf_dir) == base
        # re-ingest heals: a fresh generation number is used
        gen2 = ivd.update_ivf_index(ivf_dir, cent, delta_f)
        assert gen2 != gen
        assert len(_served_ids(ivf_dir)) == len(base) + 15

    def test_torn_manifest_write_invisible(self, ray_session, tmp_path,
                                           torn_generation_manifest):
        """A manifest write cut off half way must not make the
        generation served: the manifest only appears by rename once
        complete. The next compaction removes the torn generation,
        its parquet files and its MANIFEST.json.tmp included."""
        ivf_dir, cent, delta_f = self._build(tmp_path)
        base = _served_ids(ivf_dir)
        with pytest.raises(OSError, match="interrupted"):
            ivd.update_ivf_index(ivf_dir, cent, delta_f)
        torn = glob.glob(os.path.join(ivf_dir, "gen-*"))
        assert len(torn) == 1
        assert glob.glob(os.path.join(torn[0], "cluster=*", "*.parquet"))
        assert os.path.exists(os.path.join(torn[0], ckpt.MANIFEST + ".tmp"))
        assert _served_ids(ivf_dir) == base
        assert ivd.compact_ivf_index(ivf_dir) == 0
        assert not os.path.exists(torn[0])
        assert _served_ids(ivf_dir) == base

    def test_two_deltas_stack_then_compact(self, ray_session, tmp_path):
        ivf_dir, cent, delta_f = self._build(tmp_path)
        rng = np.random.default_rng(9)
        delta2 = str(tmp_path / "delta2.parquet")
        _write_vecs(delta2, list(range(2000, 2010)), rng)
        ivd.update_ivf_index(ivf_dir, cent, delta_f)
        ivd.update_ivf_index(ivf_dir, cent, delta2)
        assert len(ckpt.generation_dirs(ivf_dir)) == 2
        want = _served_ids(ivf_dir)
        ivd.compact_ivf_index(ivf_dir)
        assert _served_ids(ivf_dir) == want
        assert len(want) == 40 + 15 + 10


def test_driver_entry_total_is_table_size(ray_session):
    got = ivd.q_ivf_delta_counts("/root/testdata/sf0.001").to_pandas()
    emb = pq.read_table("/root/testdata/sf0.001/embeddings.parquet",
                        columns=["vec_id"])
    assert got["n_vectors"].sum() == emb.num_rows
    assert got["vec_id_sum"].sum() == \
        int(np.sum(emb.column("vec_id").to_numpy()))


class TestIvfLsmEpochs:
    """Regression tests: generation numbering across compaction epochs
    and the second-delta-after-compaction path."""

    def test_second_delta_after_compaction(self, ray_session, tmp_path):
        rng = np.random.default_rng(3)
        base_dir = str(tmp_path / "base")
        os.makedirs(base_dir)
        _write_vecs(os.path.join(base_dir, "embeddings.parquet"),
                    list(range(40)), rng)
        d1 = str(tmp_path / "d1.parquet")
        _write_vecs(d1, list(range(1000, 1010)), rng)
        d2 = str(tmp_path / "d2.parquet")
        _write_vecs(d2, list(range(2000, 2012)), rng)
        ivf_dir, cent = build_ivf_kmeans_index(base_dir)
        ivd.update_ivf_index(ivf_dir, cent, d1)
        ivd.compact_ivf_index(ivf_dir)
        gen2 = ivd.update_ivf_index(ivf_dir, cent, d2)
        # numbering never reuses an epoch-1 name
        assert os.path.basename(gen2) != "gen-0001"
        want = sorted(list(range(40)) + list(range(1000, 1010))
                      + list(range(2000, 2012)))
        assert _served_ids(ivf_dir) == want
        ivd.compact_ivf_index(ivf_dir)
        assert _served_ids(ivf_dir) == want  # no clobber across epochs


def _filtered_ids(ivf_dir):
    out = []
    for c in range(KMEANS_K):
        t = ivd.ivf_read_filtered(ivf_dir, [c], ["vec_id"])
        if t is not None:
            out.extend(t.column("vec_id").to_pylist())
    return sorted(out)


class TestIvfDeletes:
    def _build(self, tmp_path):
        rng = np.random.default_rng(5)
        base_dir = str(tmp_path / "base")
        os.makedirs(base_dir)
        _write_vecs(os.path.join(base_dir, "embeddings.parquet"),
                    list(range(50)), rng)
        delta_f = str(tmp_path / "delta.parquet")
        _write_vecs(delta_f, list(range(1000, 1020)), rng)
        ivf_dir, cent = build_ivf_kmeans_index(base_dir)
        ivd.update_ivf_index(ivf_dir, cent, delta_f)
        return ivf_dir

    def test_filter_view_equals_purged_view(self, ray_session, tmp_path):
        """Probe-time tombstone filter == physical purge, with deletes
        hitting base AND an uncompacted generation."""
        ivf_dir = self._build(tmp_path)
        victims = [0, 7, 13, 1000, 1001, 1017]
        m = ivd.delete_vectors(ivf_dir, victims)
        assert m["deleted"] == len(victims)
        want = [i for i in _served_ids(ivf_dir) if i not in set(victims)]
        assert _filtered_ids(ivf_dir) == want
        n = ivd.purge_ivf_tombstones(ivf_dir)
        assert n == len(victims)
        assert ivd.load_vector_tombstones(ivf_dir) is None
        assert _served_ids(ivf_dir) == want       # physically gone
        assert _filtered_ids(ivf_dir) == want     # filter path idempotent
        # replayed purge no-ops
        assert ivd.purge_ivf_tombstones(ivf_dir) == 0

    def test_delete_idempotent_and_compaction_composes(self, ray_session,
                                                       tmp_path):
        ivf_dir = self._build(tmp_path)
        ivd.delete_vectors(ivf_dir, [3, 1005])
        m2 = ivd.delete_vectors(ivf_dir, [3, 1005])
        assert m2 == {"deleted": 0, "skipped_already_deleted": True}
        before = _filtered_ids(ivf_dir)
        ivd.compact_ivf_index(ivf_dir)   # move-down keeps tombstones live
        assert _filtered_ids(ivf_dir) == before
        ivd.purge_ivf_tombstones(ivf_dir)
        assert _served_ids(ivf_dir) == before

    def test_purge_removes_emptied_file(self, ray_session, tmp_path):
        ivf_dir = self._build(tmp_path)
        ivd.compact_ivf_index(ivf_dir)
        # delete EVERY vector of one populated cluster
        files = sorted(glob.glob(os.path.join(ivf_dir, "cluster=*",
                                              "*.parquet")))
        t = pq.read_table(files[0], columns=["vec_id"])
        victims = t.column("vec_id").to_pylist()
        ivd.delete_vectors(ivf_dir, victims)
        ivd.purge_ivf_tombstones(ivf_dir)
        assert not os.path.exists(files[0])
        assert not set(victims) & set(_served_ids(ivf_dir))
