"""End-to-end index build vs the exhaustive oracle (SURVEY §5.2)."""

import numpy as np
import pyarrow.dataset as pads
import pytest

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.functions.varint import decode_delta
from candidategeneration_ray.oracle import build_oracle_index
from candidategeneration_ray.state.queryengine import IndexReader


def _decoded_postings(partials):
    """A partial-row stream decoded back to one (key, doc_id, score) row
    per posting, sorted by (key, doc_id) — the raw postings it combines.
    Each row's bucket must be its key's hash bucket."""
    import pandas as pd

    from candidategeneration_ray.stages.listbuild import bucket_of

    t = partials.to_pandas()
    cfg = EngineConfig()
    keys = t["key"].to_numpy(np.int64)
    assert np.array_equal(t["bucket"].to_numpy(np.int32),
                          bucket_of(keys, cfg.num_buckets))
    docs = [decode_delta(d).astype(np.int64) for d in t["docs"]]
    assert [d.size for d in docs] == t["n"].tolist()
    out = pd.DataFrame({
        "key": np.repeat(keys, t["n"].to_numpy(np.int64)),
        "doc_id": np.concatenate(docs) if docs else np.empty(0, np.int64),
        "score": np.concatenate([np.frombuffer(b, "<i4") for b in t["scores"]])
        if len(t) else np.empty(0, np.int32),
    })
    return out.sort_values(["key", "doc_id"]).reset_index(drop=True)


@pytest.fixture(scope="module")
def reader(built_index):
    return IndexReader(built_index["final_dir"], built_index["stats"])


class TestStats:
    def test_global_stats_match_oracle(self, built_index, oracle_small):
        s = built_index["stats"]
        assert s["n_docs"] == oracle_small.n_docs
        assert s["total_tokens"] == oracle_small.total_tokens
        assert s["avgdl"] == oracle_small.avgdl

    def test_df_matches_oracle(self, built_index, oracle_small):
        s = built_index["stats"]
        assert list(s["terms"]) == sorted(oracle_small.df)
        for i, t in enumerate(s["terms"]):
            assert s["df_by_id"][i + 1] == oracle_small.df[t], t

    def test_term_ids_are_deterministic_dictionary(self, built_index, oracle_small):
        s = built_index["stats"]
        for t, tid in oracle_small.term_ids.items():
            assert s["terms"][tid - 1] == t


class TestDocIds:
    def test_docid_is_stable_rank(self, built_index, transcripts_dir):
        off = built_index["offsets"]
        # conv_ids sorted; bases = prefix sums
        assert list(off["conv_ids"]) == sorted(off["conv_ids"])
        assert off["bases"][0] == 0
        assert np.array_equal(
            np.diff(off["bases"]), off["counts"][:-1]
        )

    def test_text_equality_invariant(self, transcripts_dir, ray_session):
        """Per-turn text equality under stable (conv_id, turn_idx) order:
        the tokenize stage passes `text` through byte-identical."""
        import ray.data
        from candidategeneration_ray.stages.tokenize import attach_tokens

        ds = ray.data.read_parquet(transcripts_dir)
        out = attach_tokens(ds).select_columns(["conv_id", "turn_idx", "text"]).to_pandas()
        src = pads.dataset(transcripts_dir).to_table(
            columns=["conv_id", "turn_idx", "text"]).to_pandas()
        out = out.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        src = src.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        assert (out["text"] == src["text"]).all()


class TestPostingLists:
    def test_unigram_lists_match_oracle(self, reader, oracle_small):
        # every term's list: same docs, same quantized scores, doc order
        for t, tid in oracle_small.term_ids.items():
            got = reader.get(tid)
            expect = oracle_small.unigram_postings(t)
            assert got is not None, t
            docs, scores, bmax, blast = got
            assert docs.tolist() == [d for d, _ in expect], t
            assert scores.tolist() == [s for _, s in expect], t

    def test_structural_invariants(self, reader):
        cfg = EngineConfig()
        for key in reader.keys:
            docs, scores, bmax, blast = reader.get(int(key))
            assert np.all(np.diff(docs) > 0), "doc ids strictly increasing"
            assert docs.size == scores.size == reader.list_len(int(key))
            nb = (docs.size + cfg.block_size - 1) // cfg.block_size
            assert bmax.size == blast.size == nb
            for b in range(nb):
                blk = scores[b * cfg.block_size:(b + 1) * cfg.block_size]
                assert bmax[b] == blk.max(), "block_max is the block max"
                assert blast[b] == docs[min((b + 1) * cfg.block_size, docs.size) - 1]

    def test_pair_lists_match_oracle_sample(self, reader, oracle_small):
        # spot-check d-bigram lists for pairs the oracle can verify
        pair_keys = [int(k) for k in reader.keys if k >= (1 << 32)]
        assert pair_keys, "index contains pair lists"
        rng = np.random.default_rng(7)
        id_to_term = {v: k for k, v in oracle_small.term_ids.items()}
        for key in rng.choice(pair_keys, size=min(40, len(pair_keys)), replace=False):
            lo, hi = int(key) >> 32, int(key) & 0xFFFFFFFF
            t1, t2 = id_to_term[lo], id_to_term[hi]
            expect = oracle_small.pair_postings(t1, t2, distance=5)
            docs, scores, _, _ = reader.get(int(key))
            assert docs.tolist() == [d for d, _ in expect], (t1, t2)
            assert scores.tolist() == [s for _, s in expect], (t1, t2)

    def test_total_postings_conservation(self, reader, oracle_small):
        # Σ unigram list lengths == Σ per-doc distinct terms
        uni_total = sum(
            reader.list_len(int(k)) for k in reader.keys if k < (1 << 32)
        )
        expect = sum(len(set(ts)) for ts in oracle_small.tokens.values())
        assert uni_total == expect


class TestDistributedPrior:
    def _docs_table(self):
        import pyarrow as pa

        rng = np.random.default_rng(13)
        n = 200
        words = np.array(["alpha", "beta", "gamma", "delta", "query", "index"])
        texts = [" ".join(rng.choice(words, size=int(rng.integers(2, 12))))
                 for _ in range(n)]
        return pa.table({
            "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        })

    def test_rank_prior_scalable_matches_driver_rank(self, ray_session):
        """The distributed (sort + block-base) prior rank equals the
        driver-side lexsort rank, and the driver only ever holds block
        metadata (verified by reading the blocks back explicitly)."""
        import pyarrow as pa
        import ray
        import ray.data

        from candidategeneration_ray.stages.docids import rank_prior_scalable

        t = self._docs_table()
        ds = ray.data.from_arrow(t).repartition(5)
        prior, keep = rank_prior_scalable(
            ds.select_columns(["doc_id", "n_chars"]), num_blocks=4)
        assert set(prior) == {"block_refs", "block_first_doc"}
        got = {}
        for ref in prior["block_refs"]:
            blk = ray.get(ref)
            blk = blk if hasattr(blk, "column") else blk.to_arrow()
            for d, r in zip(blk.column("doc_id").to_pylist(),
                            blk.column("rank").to_pylist()):
                got[d] = r
        ids = t.column("doc_id").to_numpy()
        nch = t.column("n_chars").to_numpy()
        order = np.lexsort((ids, -nch))
        expect = {int(ids[i]): r + 1 for r, i in enumerate(order)}
        assert got == expect
        del keep


class TestIndexIntegrity:
    def test_detects_injected_corruption(self, ray_session, tmp_path):
        """The audit reports 0 on a fresh index and flags a row whose
        block_max metadata is tampered with."""
        import glob
        import shutil

        import pyarrow as pa
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.docquery import (
            build_documents_index, q_index_integrity)

        sf = "/root/testdata/sf0.001"
        clean = q_index_integrity(sf).to_pandas()
        assert clean.loc[0, "n_violations"] == 0
        assert clean.loc[0, "n_keys"] > 0

        # copy the built index, corrupt one block_max entry, re-audit
        from candidategeneration_ray.config import EngineConfig
        built = build_documents_index(sf, EngineConfig(emit_pairs=False))
        src_dir = built["final_dir"]
        dst = str(tmp_path / "final")
        shutil.copytree(src_dir, dst)
        f = sorted(glob.glob(dst + "/**/*.parquet", recursive=True))[0]
        t = pq.read_table(f)
        bm = t.column("block_max").to_pylist()
        bm[0] = [v + 1 for v in bm[0]]          # inflate one skip bound
        t = t.set_column(t.schema.get_field_index("block_max"),
                         "block_max", pa.array(bm, pa.list_(pa.int32())))
        pq.write_table(t, f)

        import numpy as np
        import ray.data
        from ray.data.aggregate import Sum
        from candidategeneration_ray.functions.codecs import decode_docs
        # re-run the audit kernel against the corrupted copy
        import candidategeneration_ray.pipelines.docquery as dq
        orig = dq.build_documents_index
        try:
            dq.build_documents_index = lambda s, c=None: {
                "final_dir": dst, "stats": built["stats"]}
            got = q_index_integrity(sf).to_pandas()
        finally:
            dq.build_documents_index = orig
        assert got.loc[0, "n_violations"] == 1


def _sort_exchange_lists(postings, cfg):
    """Reference plan: Ray's groupby(bucket) sort exchange over the same
    bucket column and the same per-bucket fold as build_posting_lists —
    only the routing differs."""
    from candidategeneration_ray.stages.listbuild import lists_for_bucket_rows

    return postings.groupby("bucket").map_groups(
        lambda g: lists_for_bucket_rows(g, cfg), batch_format="pyarrow")


def _assert_same_lists(got, ref):
    a = got.to_pandas().sort_values("key").reset_index(drop=True)
    b = ref.to_pandas().sort_values("key").reset_index(drop=True)
    assert len(a) == len(b) > 0
    assert list(a.columns) == list(b.columns)
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        assert all(np.array_equal(x, y) for x, y in zip(av, bv)), c


def _small_posting_stream(transcripts_dir, cfg):
    """emit_postings over a transcript dir, stats and doc ids included."""
    import glob

    import ray

    from candidategeneration_ray.pipelines.build import INPUT_COLUMNS
    from candidategeneration_ray.stages.docids import (
        attach_doc_ids, conv_offsets)
    from candidategeneration_ray.stages.postings import emit_postings
    from candidategeneration_ray.stages.stats import compute_stats
    from candidategeneration_ray.stages.tokenize import attach_tokens

    inputs = sorted(glob.glob(transcripts_dir + "/*.parquet"))
    base = ray.data.read_parquet(inputs, columns=INPUT_COLUMNS)
    offsets_ref = ray.put(conv_offsets(base, 64))
    stats_ref = ray.put(compute_stats(attach_tokens(base), 64))
    with_ids = attach_doc_ids(attach_tokens(
        ray.data.read_parquet(inputs, columns=INPUT_COLUMNS)), offsets_ref)
    return emit_postings(with_ids, stats_ref, cfg)


class TestExchangeIdentity:
    def test_task_exchange_equals_sort_exchange(self, ray_session,
                                                transcripts_dir):
        """Combiner partial-list rows: the task-routed exchange
        (fold_by_bucket) must produce the SAME posting lists as the
        groupby sort exchange — the fold is order-insensitive."""
        from candidategeneration_ray.stages.listbuild import (
            build_posting_lists)

        cfg = EngineConfig()
        p = _small_posting_stream(transcripts_dir, cfg).materialize()
        assert "docs" in p.schema().names
        _assert_same_lists(build_posting_lists(p, cfg),
                           _sort_exchange_lists(p, cfg))

    def test_task_exchange_equals_sort_exchange_raw_rows(self, ray_session):
        """Raw (key, score, doc_id) postings combined by partial_rows,
        spread over more blocks than fold tasks and pruned per list:
        same identity."""
        import ray

        from candidategeneration_ray.stages.listbuild import (
            build_posting_lists, partial_rows)

        rng = np.random.default_rng(11)
        pairs = np.unique(rng.integers(0, 300, (6000, 2)), axis=0)
        pairs = pairs[rng.permutation(len(pairs))]
        scores = rng.integers(1, 1 << 20, len(pairs))
        cfg = EngineConfig(num_buckets=11, max_list_postings=12,
                           unconditional_prefix=4, block_size=4)
        tables = [partial_rows(pairs[i::7, 0].astype(np.int64),
                               scores[i::7].astype(np.int32),
                               pairs[i::7, 1].astype(np.int64),
                               cfg.num_buckets) for i in range(7)]
        p = ray.data.from_arrow(tables)
        _assert_same_lists(build_posting_lists(p, cfg),
                           _sort_exchange_lists(p, cfg))


class TestPartialRowContract:
    def test_build_runs_without_schema_probe(self, ray_session,
                                             tiny_transcripts_dir,
                                             monkeypatch):
        """build_posting_lists must not call Dataset.schema(): on a lazy
        plan that runs the plan's head and cancels it (the cancel path
        once aborted the test driver)."""
        import ray.data

        from candidategeneration_ray.stages.listbuild import build_posting_lists

        cfg = EngineConfig()
        p = _small_posting_stream(tiny_transcripts_dir, cfg)

        def _no_probe(self, *a, **k):
            raise AssertionError("Dataset.schema() called")

        monkeypatch.setattr(ray.data.Dataset, "schema", _no_probe)
        lists = build_posting_lists(p, cfg).materialize()
        monkeypatch.undo()
        keys = lists.to_pandas()["key"].to_numpy()
        assert keys.size > 0
        assert np.unique(keys).size == keys.size

    def test_raw_rows_raise_naming_partial_rows(self, ray_session):
        """Rows that did not come through listbuild.partial_rows raise
        an error naming it, with or without a bucket column, instead of
        being re-bucketed and built."""
        import pyarrow as pa
        import ray.data

        from candidategeneration_ray.stages.listbuild import (
            attach_bucket, build_posting_lists)

        cfg = EngineConfig(num_buckets=8)
        raw = ray.data.from_arrow(pa.table({
            "key": pa.array([3, 5, 3], pa.int64()),
            "score": pa.array([7, 8, 9], pa.int32()),
            "doc_id": pa.array([1, 2, 4], pa.int64()),
        }))
        with pytest.raises(ValueError, match=r"listbuild\.partial_rows"):
            build_posting_lists(raw, cfg).materialize()
        with pytest.raises(ValueError, match=r"listbuild\.partial_rows"):
            build_posting_lists(attach_bucket(raw, cfg.num_buckets),
                                cfg).materialize()


class TestOneCpuBuild:
    def test_one_cpu_build_equals_session_build(self, built_index,
                                                transcripts_dir, tmp_path):
        """On a 1-CPU cluster every bucket range collapses into one fold
        task (no split) and the emission batch is the whole corpus
        (ceil(rows / 1) under the 8192 cap), against ceil(rows / 4) on
        the session build: the index must be identical across both
        CPU counts and both batch sizes. Ray runs in a subprocess: the
        session cluster is pinned to 4 CPUs, which takes the
        multi-range route."""
        import json
        import os
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent(f"""
            import json
            import ray
            ray.init(address="local", num_cpus=1, include_dashboard=False,
                     logging_level="ERROR",
                     object_store_memory=200 * 1024 * 1024)
            from ray.data import DataContext
            DataContext.get_current().enable_progress_bars = False
            from candidategeneration_ray.pipelines.build import build_index
            res = build_index({transcripts_dir!r}, {str(tmp_path)!r})
            ray.shutdown()
            print(json.dumps({{"final_dir": res["final_dir"]}}))
        """)
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run([sys.executable, "-c", script], cwd=repo,
                             capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr[-3000:]
        final_dir = json.loads(out.stdout.strip().splitlines()[-1])["final_dir"]

        base = IndexReader(built_index["final_dir"], built_index["stats"])
        one = IndexReader(final_dir, built_index["stats"])
        assert np.array_equal(np.sort(base.keys), np.sort(one.keys))
        assert len(base.keys) > 0
        for k in map(int, base.keys):
            assert one.list_len(k) == base.list_len(k), k
            a, b = base.get(k), one.get(k)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])


def _derived_batch(rows):
    """emit_batch on the 4-CPU session cluster: ceil(rows / 4) under
    the default 8192 cap."""
    return min(EngineConfig().emit_batch_size, -(-rows // 4))


class TestEmitBatchSizing:
    def test_part_record_says_what_ran(self, built_index, transcripts_dir):
        """The part phase records its turn count and the emission batch
        derived from it."""
        import glob

        import pyarrow.parquet as pq

        rows = sum(pq.read_metadata(f).num_rows
                   for f in glob.glob(transcripts_dir + "/*.parquet"))
        (part,) = [p for p in built_index["metrics"]["phases"]
                   if p["phase"] == "part-0"]
        assert part["rows"] == rows == built_index["stats"]["n_docs"]
        assert part["emit_batch"] == _derived_batch(rows) < rows

    def test_conv_range_parts_equal_one_partition(self, built_index,
                                                  tmp_path):
        """One input file split into two conv-range parts: the parts'
        turn counts cover the corpus and the index equals the
        one-partition build of the same transcripts (in four files)."""
        from candidategeneration_ray.pipelines.build import build_index
        from candidategeneration_ray.sources.transcripts import (
            write_transcripts)

        src = write_transcripts(str(tmp_path / "src"), num_convs=120,
                                seed=42, num_files=1)
        res = build_index(src, str(tmp_path / "idx"), partitions=2)
        parts = [p for p in res["metrics"]["phases"]
                 if p["phase"].startswith("part-")]
        assert len(parts) == 2
        assert sum(p["rows"] for p in parts) == res["stats"]["n_docs"] \
            == built_index["stats"]["n_docs"]
        for p in parts:
            assert 0 < p["rows"] < res["stats"]["n_docs"]
            assert p["emit_batch"] == _derived_batch(p["rows"])

        base = IndexReader(built_index["final_dir"], built_index["stats"])
        two = IndexReader(res["final_dir"], res["stats"])
        assert np.array_equal(np.sort(base.keys), np.sort(two.keys))
        for k in map(int, base.keys):
            a, b = base.get(k), two.get(k)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
