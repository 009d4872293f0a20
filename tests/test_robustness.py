"""Defensive behavior: malformed inputs fail loudly and early."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


class TestInputValidation:
    def test_sparse_turn_idx_rejected(self, ray_session, tmp_path):
        """Non-dense turn_idx must raise during the offsets aggregate
        (doc-id purity depends on density) — not silently mis-assign."""
        import ray.data

        from candidategeneration_ray.stages.docids import conv_offsets

        t = pa.table({
            "conv_id": pa.array(["a", "a", "b"], pa.string()),
            "turn_idx": pa.array([0, 2, 0], pa.int32()),  # gap in conv a
            "text": pa.array(["x", "y", "z"]),
        })
        p = str(tmp_path / "bad.parquet")
        pq.write_table(t, p)
        with pytest.raises(ValueError, match="dense"):
            conv_offsets(ray.data.read_parquet(p), 64)

    def test_null_text_tolerated(self, ray_session, tmp_path):
        import ray.data

        from candidategeneration_ray.pipelines.build import build_index

        t = pa.table({
            "conv_id": pa.array(["a", "a", "b"], pa.string()),
            "turn_idx": pa.array([0, 1, 0], pa.int32()),
            "text": pa.array(["alpha beta", None, "gamma delta"], pa.string()),
        })
        p = str(tmp_path / "nulls")
        import os

        os.makedirs(p)
        pq.write_table(t, os.path.join(p, "t.parquet"))
        res = build_index(p, str(tmp_path / "idx"))
        assert res["metrics"]["n_docs"] == 3  # null-text turn still a doc

    def test_missing_index_dir_raises(self):
        from candidategeneration_ray.state.queryengine import IndexReader

        with pytest.raises((ValueError, FileNotFoundError)):
            IndexReader("/nonexistent/nowhere", None)

    def test_filtered_out_batch_with_unigrams(self):
        """A batch where the filter set strips EVERY posting must yield
        an empty partial-list table, not IndexError (advisor finding:
        the unigram branch appended empty arrays past the guard)."""
        from candidategeneration_ray.config import EngineConfig
        from candidategeneration_ray.stages.postings import PostingEmitter

        stats = {
            "terms": np.array(["alpha", "beta"], dtype=object),
            "df_by_id": np.array([0, 1, 1], dtype=np.int64),
            "n_docs": 1, "total_tokens": 2, "avgdl": 2.0,
        }
        batch = pa.table({
            "doc_id": pa.array([0], pa.int64()),
            "doc_len": pa.array([2], pa.int32()),
            "tokens": pa.array([["alpha", "beta"]], pa.list_(pa.string())),
        })
        # filter set contains only a key no batch posting matches
        emitter = PostingEmitter(
            stats, EngineConfig(emit_unigrams=True, emit_pairs=True),
            filter_ref=np.array([10_000], dtype=np.int64))
        out = emitter(batch)
        assert out.num_rows == 0
        assert out.column_names == ["key", "n", "docs", "scores", "bucket"]

    def test_hit_prior_missing_doc_raises(self, ray_session):
        """A doc absent from the HIT prior map must fail with a clear
        error, not silently take a neighboring doc's rank."""
        import ray

        from candidategeneration_ray.config import EngineConfig
        from candidategeneration_ray.stages.postings import PostingEmitter

        stats = {
            "terms": np.array(["alpha"], dtype=object),
            "df_by_id": np.array([0, 2], dtype=np.int64),
            "n_docs": 2, "total_tokens": 2, "avgdl": 1.0,
        }
        # range-blocked layout of docids.rank_prior_scalable: one block
        prior = {"block_refs": [ray.put(pa.table({
                     "doc_id": pa.array([0], pa.int64()),
                     "rank": pa.array([7], pa.int32())}))],
                 "block_first_doc": np.array([0], dtype=np.int64)}
        batch = pa.table({
            "doc_id": pa.array([0, 5], pa.int64()),  # doc 5 not in prior
            "doc_len": pa.array([1, 1], pa.int32()),
            "tokens": pa.array([["alpha"], ["alpha"]], pa.list_(pa.string())),
        })
        emitter = PostingEmitter(stats, EngineConfig(emit_pairs=False),
                                 prior_ref=prior)
        with pytest.raises(KeyError, match="prior"):
            emitter(batch)

    def test_large_binary_offset_switch(self):
        """Payloads past the int32 offset range come back as
        large_binary (int64 offsets) instead of wrapping negative."""
        from candidategeneration_ray.functions.arrowutil import (
            binary_array_from_concat, binary_column_concat)

        small = binary_array_from_concat(
            np.array([1, 2, 3], np.uint8), np.array([0, 2, 3], np.int64))
        assert small.type == pa.binary()
        big_data = np.zeros(2**31, np.uint8)
        big = binary_array_from_concat(
            big_data, np.array([0, 2**31 - 5, 2**31], np.int64))
        assert big.type == pa.large_binary()
        data, offs = binary_column_concat(big)
        assert offs[-1] == 2**31 and len(big) == 2

    def test_resume_invalidated_by_config_change(self, ray_session, tmp_path):
        """Re-running build_index with a changed EngineConfig must
        rebuild partitions + merge, not silently reuse segments built
        under the old settings."""
        import os

        from candidategeneration_ray.config import EngineConfig
        from candidategeneration_ray.pipelines.build import build_index

        t = pa.table({
            "conv_id": pa.array(["a", "a", "b", "b"], pa.string()),
            "turn_idx": pa.array([0, 1, 0, 1], pa.int32()),
            "text": pa.array(["alpha beta gamma", "beta gamma delta",
                              "alpha delta", "gamma gamma beta"], pa.string()),
        })
        src = str(tmp_path / "src")
        os.makedirs(src)
        pq.write_table(t, os.path.join(src, "t.parquet"))
        out = str(tmp_path / "idx")
        build_index(src, out, EngineConfig(num_buckets=8), partitions=2)
        # identical config: everything skips
        m2 = build_index(src, out, EngineConfig(num_buckets=8), partitions=2)["metrics"]
        assert all(p.get("skipped") for p in m2["phases"])
        # changed config: partitions and merge rebuild
        m3 = build_index(src, out, EngineConfig(num_buckets=4, distance=2),
                         partitions=2)["metrics"]
        rebuilt = [p for p in m3["phases"] if p["phase"] != "stats"]
        assert rebuilt and all(not p.get("skipped") for p in rebuilt)
        # and the final dir holds only the new bucket layout: no row of
        # the 8-bucket layout survives
        final = os.path.join(out, "final")
        buckets = pa.concat_tables([
            pq.read_table(os.path.join(final, f), columns=["bucket"])
            for f in os.listdir(final) if f.endswith(".parquet")
        ]).column("bucket").to_numpy()
        assert buckets.size and buckets.max() < 4

    def test_index_tag_pinned(self):
        """Tags of existing indexes stay valid: update_index refuses a
        tag mismatch and family caches key on the tag, so a field
        removed from EngineConfig keeps its slot in the digest."""
        from candidategeneration_ray.config import EngineConfig

        assert EngineConfig().index_tag() == "c519d4b6a60f"
        assert EngineConfig(codec="bp").index_tag() == "f5c76bf9c67d"

    def test_scan_sizing_rule(self, monkeypatch):
        """One read-sizing rule (tableutil.sized_read_kwargs): ~2 MB
        blocks, at least `floor`, up to 256 MB and Ray's own blocks
        above. Build and update scans add 16 fold buckets below 256 MB
        and bytes-derived ones above."""
        import os

        from candidategeneration_ray.functions.tableutil import sized_read_kwargs
        from candidategeneration_ray.pipelines.build import _scan_sizing

        def blocks(n, floor):
            return sized_read_kwargs(n, floor).get("override_num_blocks")

        # the formulas the rule replaced: relational.sized_read and
        # build._scan_sizing (floor 1), docquery.documents_ds (floor 16)
        def sized_read_formula(sz):
            return None if sz > 256 << 20 else max(1, int(sz // (2 << 20)) + 1)

        def documents_ds_formula(sz):
            return None if sz > 256 << 20 else max(16, int(sz // (2 << 20)) + 1)

        mb = 1 << 20
        pinned = {0: (1, 16), 2 * mb - 1: (1, 16), 2 * mb: (2, 16),
                  256 * mb: (129, 129), 256 * mb + 1: (None, None)}
        for n, want in pinned.items():
            assert (blocks(n, 1), blocks(n, 16)) == want, n
            assert blocks(n, 1) == sized_read_formula(n)
            assert blocks(n, 16) == documents_ds_formula(n)

        sizes = {"small": 10 << 20, "tiny": 0, "big": 300 << 20,
                 "huge": 4 << 30}
        monkeypatch.setattr(os.path, "exists", lambda p: p in sizes)
        monkeypatch.setattr(os.path, "getsize", lambda p: sizes[p])
        assert _scan_sizing(["small"]) == ({"override_num_blocks": 6}, 16)
        assert _scan_sizing(["tiny"]) == ({"override_num_blocks": 1}, 16)
        assert _scan_sizing(["big"]) == ({}, 64)
        assert _scan_sizing(["big", "huge"]) == ({}, 138)

    def test_binary_column_concat_zero_copy(self):
        """A single-chunk column is viewed in place (its data buffer is
        not copied), a sliced chunk is rebased, and a two-chunk column
        still decodes row by row."""
        from candidategeneration_ray.functions.arrowutil import binary_column_concat

        arr = pa.array([b"ab", b"", b"cde"], pa.binary())
        data, offs = binary_column_concat(pa.chunked_array([arr]))
        assert data.ctypes.data == arr.buffers()[2].address
        assert offs.tolist() == [0, 2, 2, 5]
        data, offs = binary_column_concat(pa.chunked_array([arr.slice(1)]))
        assert data.ctypes.data == arr.buffers()[2].address + 2
        assert offs.tolist() == [0, 0, 3] and data.tobytes() == b"cde"
        data, offs = binary_column_concat(
            pa.chunked_array([arr, pa.array([b"xy"], pa.binary())]))
        rows = [data[offs[i]:offs[i + 1]].tobytes() for i in range(len(offs) - 1)]
        assert rows == [b"ab", b"", b"cde", b"xy"]

    def test_cache_dir_keyed_on_input_files(self, tmp_path):
        """A corpus rewritten at the same path gets a new derived-index
        cache directory, so an index built (and updated in place) over
        an earlier corpus there is never served for it."""
        import os

        from candidategeneration_ray.pipelines.docquery import _cache_dir

        sf = tmp_path / "sf"
        sf.mkdir()
        p = str(sf / "documents.parquet")
        pq.write_table(pa.table({"doc_id": [1], "text": ["a"]}), p)
        first = _cache_dir(str(sf), "docidx")
        assert _cache_dir(str(sf), "docidx") == first
        pq.write_table(pa.table({"doc_id": [1, 2], "text": ["a", "b"]}), p)
        second = _cache_dir(str(sf), "docidx")
        assert second != first
        # same size, later mtime: still a new directory
        st = os.stat(p)
        os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        assert _cache_dir(str(sf), "docidx") not in (first, second)

    def test_empty_corpus_build(self, ray_session, tmp_path):
        """A corpus that tokenizes to nothing still builds (empty index)
        rather than crashing mid-pipeline."""
        import os

        import ray.data

        from candidategeneration_ray.pipelines.build import build_index

        t = pa.table({
            "conv_id": pa.array(["a"], pa.string()),
            "turn_idx": pa.array([0], pa.int32()),
            "text": pa.array(["the and of ..."], pa.string()),  # stopwords only
        })
        p = str(tmp_path / "empty")
        os.makedirs(p)
        pq.write_table(t, os.path.join(p, "t.parquet"))
        res = build_index(p, str(tmp_path / "eidx"))
        assert res["metrics"]["n_docs"] == 1
        assert len(res["stats"]["terms"]) == 0


def test_csv_remap_roundtrip(ray_session, tmp_path):
    """S8 (CSV readers) + M11 (docID remap): the reference's CSV remap
    input (utilsClass.java:398-436) fed through ray.data.read_csv into
    remap_doc_ids; unmapped ids pass through."""
    import numpy as np
    import ray
    import ray.data

    from candidategeneration_ray.stages.docids import remap_doc_ids

    p = tmp_path / "remap.csv"
    p.write_text("old,new\n1,100\n3,300\n")
    m = ray.data.read_csv(str(p)).to_pandas().sort_values("old")
    mapping = {"old": m["old"].to_numpy(np.int64),
               "new": m["new"].to_numpy(np.int64)}
    ds = ray.data.from_items([{"doc_id": i} for i in range(5)])
    out = sorted(remap_doc_ids(ds, ray.put(mapping)).to_pandas()["doc_id"])
    assert out == [0, 2, 4, 100, 300]
