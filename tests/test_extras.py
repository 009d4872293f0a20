"""Behavioral tests for the training-data extras (dedup / ANN /
text-analysis) beyond the SQL-oracle value checks."""

import numpy as np
import pyarrow as pa
import pytest

from candidategeneration_ray.functions import hashing as H

SF = "/root/testdata/sf0.01"


class TestHashing:
    def test_h64_matches_duckdb_expression(self):
        import duckdb

        con = duckdb.connect()
        for s in ["", "token", "hello world", "1234"]:
            sql = con.sql(
                f"SELECT ('0x' || substr(md5('{s}'), 1, 16))::UBIGINT").fetchone()[0]
            assert H.h64(s) == sql

    def test_minhash_containment(self):
        # identical shingle sets -> identical signatures
        hs = H.h64_many(["aa bb cc", "bb cc dd", "cc dd ee"])
        assert np.array_equal(H.minhash_signature(hs), H.minhash_signature(hs[::-1]))

    def test_similar_docs_share_minhash_rows(self):
        a = H.h64_many([f"sh{i}" for i in range(100)])
        b = H.h64_many([f"sh{i}" for i in range(5, 105)])  # 95% overlap
        sa, sb = H.minhash_signature(a), H.minhash_signature(b)
        assert (sa == sb).mean() > 0.5

    def test_simhash_similarity(self):
        toks_a = [f"w{i}" for i in range(50)]
        toks_b = toks_a[:45] + ["x1", "x2", "x3", "x4", "x5"]
        ha = H.simhash(H.h64_many(toks_a), np.ones(50))
        hb = H.simhash(H.h64_many(toks_b), np.ones(50))
        hc = H.simhash(H.h64_many([f"z{i}" for i in range(50)]), np.ones(50))
        d_ab = bin(ha ^ hb).count("1")
        d_ac = bin(ha ^ hc).count("1")
        assert d_ab < d_ac

    def test_word_shingles_short_docs(self):
        assert H.word_shingles([], 3) == [""]
        assert H.word_shingles(["a"], 3) == ["a"]
        assert H.word_shingles(["a", "b", "c", "d"], 3) == ["a b c", "b c d"]


class TestDedup:
    def test_lsh_clusters_cover_jaccard_dups(self, ray_session):
        """Every high-Jaccard pair (>=50%) must land in the SAME
        duplicate cluster (star edges don't list all pairs directly,
        but connected components over them recover the full cluster —
        4 bands x 4 rows catches J>=0.5 w.h.p.)."""
        from candidategeneration_ray.pipelines.extras import (
            q_dup_clusters, q_jaccard_pairs,
        )

        jacc = q_jaccard_pairs(SF, threshold_pct=50)
        if hasattr(jacc, "to_pandas"):
            jacc = jacc.to_pandas()
        cl = q_dup_clusters(SF).to_pandas()
        cluster_of = dict(zip(cl["doc_id"], cl["cluster"]))
        for a, b in zip(jacc["doc_a"], jacc["doc_b"]):
            assert cluster_of[a] == cluster_of[b], (a, b)

    def test_star_edges_linear_on_hot_cluster(self, ray_session, tmp_path):
        """Worst-skew fixture: 10k identical docs form ONE band bucket.
        The star-edge path must emit exactly n-1 distinct edges (the
        all-pairs shape would emit ~50M) and cluster everything to the
        min doc_id."""
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import (
            q_dup_clusters, q_minhash_lsh_pairs,
        )

        n = 10_000
        d = str(tmp_path / "hot")
        os.makedirs(d)
        pq.write_table(pa.table({
            "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "text": pa.array(["duplicate payload text shard"] * n, pa.string()),
        }), os.path.join(d, "documents.parquet"))
        pairs = q_minhash_lsh_pairs(d)
        assert pairs.count() == n - 1
        cl = q_dup_clusters(d).to_pandas()
        assert len(cl) == n and (cl["cluster"] == 0).all()

    def test_propagation_rounds_match_task_cc(self, ray_session):
        """The groupby-rounds CC path (taken for >5M-edge graphs) must
        produce the same labels as the single-task fast path — chains,
        cliques and merged stars all converge to the component min."""
        import ray
        import ray.data

        from candidategeneration_ray.pipelines.extras import (
            _propagation_rounds, _small_graph_cc)

        SENT = np.iinfo(np.int64).max
        # chain 0-1-2-3, clique {10,11,12}, star merged via shared node
        raw = [(0, 1), (1, 2), (2, 3), (10, 11), (10, 12), (11, 12),
               (20, 25), (25, 30)]
        a = np.array([p[0] for p in raw], np.int64)
        b = np.array([p[1] for p in raw], np.int64)
        sym = pa.table({
            "src": pa.array(np.concatenate((a, b)), pa.int64()),
            "dst": pa.array(np.concatenate((b, a)), pa.int64()),
            "lbl": pa.array(np.full(2 * a.size, SENT, np.int64), pa.int64()),
        })
        edges = ray.data.from_arrow(sym).materialize()
        rounds = _propagation_rounds(edges, 20).to_pandas() \
            .sort_values("node").reset_index(drop=True)
        task = ray.get(_small_graph_cc.remote(sym)).to_pandas() \
            .sort_values("node").reset_index(drop=True)
        assert rounds.equals(task)
        got = dict(zip(rounds["node"], rounds["lbl"]))
        assert got == {0: 0, 1: 0, 2: 0, 3: 0, 10: 10, 11: 10, 12: 10,
                       20: 20, 25: 20, 30: 20}

    def test_jaccard_stop_shingle_cap(self, ray_session):
        """The skew guard drops shingle groups above max_shingle_df
        before pair explosion; with a cap no larger than any real
        group's df the result must be unchanged, and a cap of 1 must
        produce no pairs."""
        from candidategeneration_ray.pipelines.extras import q_jaccard_pairs

        exact = q_jaccard_pairs(SF, threshold_pct=50).to_pandas() \
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
        capped = q_jaccard_pairs(SF, threshold_pct=50,
                                 max_shingle_df=10_000).to_pandas() \
            .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
        assert exact.equals(capped)
        none = q_jaccard_pairs(SF, threshold_pct=50, max_shingle_df=1).to_pandas()
        assert len(none) == 0

    def test_small_graph_cc_tolerates_empty_schema_blocks(self, ray_session):
        """High-parallelism datasets pad with 0-row EMPTY-SCHEMA blocks;
        the single-task CC must drop them instead of failing
        concat_tables (regression: broke the 32-CPU driver sweep while
        the 4-CPU pytest session never produced such blocks)."""
        import ray

        from candidategeneration_ray.pipelines.extras import _small_graph_cc

        good = pa.table({
            "src": pa.array([1, 2], pa.int64()),
            "dst": pa.array([2, 1], pa.int64()),
            "lbl": pa.array([0, 0], pa.int64()),
        })
        empty_schema = pa.table({})
        out = ray.get(_small_graph_cc.remote(good, empty_schema))
        assert dict(zip(out.column("node").to_pylist(),
                        out.column("lbl").to_pylist())) == {1: 1, 2: 1}
        only_empty = ray.get(_small_graph_cc.remote(empty_schema))
        assert only_empty.num_rows == 0

    def test_exact_dedup_groups(self, ray_session):
        from candidategeneration_ray.pipelines.extras import q_dedup_exact

        pdf = q_dedup_exact(SF).to_pandas()
        assert pdf["n_docs"].sum() == 500  # every doc in exactly one group


class TestAnn:
    def test_lsh_neardup_recall_vs_exact(self, ray_session):
        """LSH-banded near-dups: precision 1.0 (every emitted pair is
        cosine-verified in-bucket), recall >= 0.8 vs the exact
        block-pair path (expected ~0.98 at r=2, B=8 for cos>=0.4)."""
        from candidategeneration_ray.pipelines.extras import (
            q_embedding_neardups, q_embedding_neardups_lsh,
        )

        def pairs(ds):
            pdf = ds.to_pandas()
            return set(zip(pdf.iloc[:, 0], pdf.iloc[:, 1]))

        exact = pairs(q_embedding_neardups(SF))
        lsh = pairs(q_embedding_neardups_lsh(SF))
        assert lsh <= exact, "LSH emitted a non-near pair (precision < 1)"
        recall = len(lsh & exact) / len(exact)
        assert recall >= 0.8, f"LSH near-dup recall {recall}"

    def test_ivf_recall_vs_brute_force(self, ray_session):
        from candidategeneration_ray.pipelines.extras import (
            q_ann_cosine_top10, q_ann_ivf_top10,
        )

        bf = q_ann_cosine_top10(SF).column("vec_id").to_pylist()
        ivf = q_ann_ivf_top10(SF).column("vec_id").to_pylist()
        recall = len(set(bf) & set(ivf)) / len(bf)
        assert recall >= 0.5, f"IVF recall {recall}"
        assert bf[0] == 0  # the query vector itself is its own 1-NN

    def test_jaccard_hot_shingle_cap(self, ray_session, tmp_path):
        """Pathological skew: one boilerplate shingle shared by EVERY
        doc. The default cap drops it before the O(m²) explosion;
        capped pairs are a subset of exact pairs, true near-dups (which
        share many non-hot shingles) survive, and the all-pairs blowup
        from the hot shingle alone does not."""
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import q_jaccard_pairs

        n = 40
        boiler = "click here to subscribe"
        texts = [f"{boiler} unique{i}a unique{i}b unique{i}c unique{i}d"
                 for i in range(n)]
        # one true near-dup pair sharing most of their text
        texts[0] = f"{boiler} shared alpha beta gamma delta epsilon"
        texts[1] = f"{boiler} shared alpha beta gamma delta zeta"
        t = pa.table({
            "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "documents.parquet"))

        def pairs(tab):
            pdf = tab.to_pandas()
            return set(zip(pdf["doc_a"], pdf["doc_b"]))

        exact = pairs(q_jaccard_pairs(d, max_shingle_df=None))
        capped = pairs(q_jaccard_pairs(d, max_shingle_df=5))
        assert capped <= exact
        assert (0, 1) in capped, "true near-dup survives the cap"
        # the hot shingle alone may pull low-Jaccard pairs into `exact`
        # but never into `capped`
        assert len(capped) <= len(exact)

    def test_ivf_persisted_layout_prunes_probes(self, ray_session):
        """The IVF index persists as a code-bucketed parquet layout; a
        probe's read set contains ONLY the probed buckets' files, and
        the bucket files partition the table (every vector in exactly
        one inverted list)."""
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import (
            build_ivf_index, ivf_probe_paths)

        ivf_dir = build_ivf_index(SF)
        codes = sorted(int(d.split("=")[1]) for d in os.listdir(ivf_dir)
                       if d.startswith("code="))
        assert len(codes) >= 2, "layout has at least two inverted lists"
        probed = codes[:2]
        others = [c for c in codes if c not in probed]
        files = ivf_probe_paths(ivf_dir, probed)
        assert files
        for f in files:
            assert any(os.sep + f"code={c}" + os.sep in f for c in probed), f
            assert not any(os.sep + f"code={c}" + os.sep in f for c in others), f
        total = sum(pq.read_metadata(f).num_rows
                    for f in ivf_probe_paths(ivf_dir, codes))
        n = pq.read_metadata(f"{SF}/embeddings.parquet").num_rows
        assert total == n

    def test_brute_force_is_exact(self, ray_session):
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import q_ann_cosine_top10

        tab = pq.read_table(f"{SF}/embeddings.parquet")
        mat = np.asarray(tab.column("embedding").to_pylist(), dtype=np.float64)
        ids = tab.column("vec_id").to_numpy()
        q = mat[ids == 0][0]
        cos = (mat @ q) / (np.linalg.norm(mat, axis=1) * np.linalg.norm(q))
        expect = ids[np.lexsort((ids, -cos))[:10]].tolist()
        got = q_ann_cosine_top10(SF).column("vec_id").to_pylist()
        assert got == expect


class TestMultimodal:
    def test_frame_payload_bytes_are_real_slices(self, ray_session):
        """The frame-sample stage must carry the ACTUAL payload byte
        slices, not just metadata — checked against python slicing."""
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import (
            FrameSampleStub, _binary_payloads)

        out = _binary_payloads(SF).map_batches(
            FrameSampleStub, batch_format="pyarrow",
            batch_size=256, concurrency=(1, 2)).to_pandas()
        texts = pq.read_table(f"{SF}/documents.parquet",
                              columns=["doc_id", "text"]).to_pandas()
        by_doc = dict(zip(texts["doc_id"], texts["text"]))
        fb = FrameSampleStub.FRAME_BYTES
        checked = 0
        for _, row in out.iloc[::37].iterrows():
            p = by_doc[row["doc_id"]].encode("utf-8")
            fi = int(row["frame_idx"])
            assert bytes(row["frame_payload"]) == p[fi * fb:(fi + 1) * fb]
            assert row["frame_bytes"] == len(row["frame_payload"])
            checked += 1
        assert checked > 3

    def test_decode_stub_plumbing(self, ray_session):
        from candidategeneration_ray.pipelines.extras import q_multimodal_meta

        pdf = q_multimodal_meta(SF).to_pandas()
        assert len(pdf) == 500
        assert (pdf["n_bytes"] > 0).all()
        assert set(pdf.columns) == {"doc_id", "n_bytes", "width", "height"}
        # deterministic: same input -> same fake dims
        pdf2 = q_multimodal_meta(SF).to_pandas()
        assert pdf.sort_values("doc_id").reset_index(drop=True).equals(
            pdf2.sort_values("doc_id").reset_index(drop=True))


class TestRepetitionStats:
    def test_known_document(self, ray_session, tmp_path):
        """'a b a b c' over kept tokens: bigrams (ab, ba, ab, bc) →
        n=4, top=2 (ab), dup=2 (the two ab occurrences)."""
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import q_repetition_stats

        t = pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([
                "alpha beta alpha beta gamma",
                "query query query query",   # repeated token: 3x (query,query)
                "the and of",                # stopwords only -> no bigrams
            ], pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        pdf = q_repetition_stats(d).to_pandas().set_index("doc_id").sort_index()
        assert pdf.loc[0].tolist() == [4, 2, 2]
        assert pdf.loc[1].tolist() == [3, 3, 3]
        assert pdf.loc[2].tolist() == [0, 0, 0]


class TestSourceSample:
    def test_deterministic_and_quota(self, ray_session):
        from candidategeneration_ray.pipelines.extras import q_source_sample

        a = q_source_sample(SF).to_pandas().sort_values(
            ["source", "doc_id"]).reset_index(drop=True)
        b = q_source_sample(SF).to_pandas().sort_values(
            ["source", "doc_id"]).reset_index(drop=True)
        assert a.equals(b)  # consistent-hash sample: identical every run
        assert (a.groupby("source").size() <= 25).all()

    def test_small_source_keeps_all(self, ray_session, tmp_path):
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import q_source_sample

        t = pa.table({
            "doc_id": pa.array(list(range(40)), pa.int64()),
            "source": pa.array(["tiny"] * 3 + ["big"] * 37, pa.string()),
        })
        pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
        pdf = q_source_sample(str(tmp_path)).to_pandas()
        counts = pdf.groupby("source").size().to_dict()
        assert counts == {"tiny": 3, "big": 25}


class TestDuplicateSpans:
    def test_known_fixture(self, ray_session, tmp_path):
        """Exact-duplicate docs share all spans; short docs collapse to
        one whole-doc span; a unique doc has zero dup spans."""
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import q_duplicate_spans

        # pure-alpha tokens (the tokenizer drops letter+digit mixes)
        base = " ".join(f"tok{chr(97 + i // 26)}{chr(97 + i % 26)}"
                        for i in range(30))
        t = pa.table({
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array([
                base,                      # doc0 == doc1 → all spans dup
                base,
                "alpha beta gamma",        # short → one whole-doc span, unique
                " ".join(f"uniq{chr(97 + i // 26)}{chr(97 + i % 26)}"
                         for i in range(30)),  # long, unique
            ], pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        pdf = q_duplicate_spans(d, w=20).to_pandas().set_index("doc_id").sort_index()
        # 30 tokens, w=20 → 11 spans per long doc
        assert pdf.loc[0].tolist() == [11, 11]
        assert pdf.loc[1].tolist() == [11, 11]
        assert pdf.loc[2].tolist() == [1, 0]
        assert pdf.loc[3].tolist() == [11, 0]


class TestDedupSubstrings:
    def test_removal_semantics(self, ray_session, tmp_path):
        """Owner (lowest doc_id, earliest start) keeps its text; an exact
        copy is fully removed; a doc sharing only a w-token prefix loses
        exactly that prefix; short and unique docs are untouched."""
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import q_dedup_substrings

        toks = [f"tok{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(30)]
        base = " ".join(toks)
        tail = [f"uniq{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(15)]
        t = pa.table({
            "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
            "text": pa.array([
                base,                               # owner of every window
                base,                               # exact copy → emptied
                "alpha beta gamma",                 # < w tokens → untouched
                " ".join(f"solo{chr(97 + i // 26)}{chr(97 + i % 26)}"
                         for i in range(30)),       # unique long → untouched
                " ".join(toks[:10] + tail),         # shares only prefix window
            ], pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        pdf = (q_dedup_substrings(d, w=10).to_pandas()
               .set_index("doc_id").sort_index())
        assert pdf.loc[0, "clean_text"] == base
        assert pdf.loc[0, "n_removed"] == 0
        assert pdf.loc[1, "clean_text"] == ""
        assert pdf.loc[1, "n_removed"] == 30
        assert pdf.loc[2, "clean_text"] == "alpha beta gamma"
        assert pdf.loc[2, "n_removed"] == 0
        assert pdf.loc[3, "n_removed"] == 0
        # doc4: only its first 10-token window duplicates base → exactly
        # the 10 prefix positions are covered, the unique tail survives
        assert pdf.loc[4, "clean_text"] == " ".join(tail)
        assert pdf.loc[4, "n_removed"] == 10
        assert pdf.loc[4, "n_tokens"] == 25

    def test_overlapping_coverage_unions(self, ray_session, tmp_path):
        """Two overlapping duplicated windows in one doc union their
        covered positions (diff-array, not per-window subtraction)."""
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import q_dedup_substrings

        toks = [f"tok{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(12)]
        # doc1 contains base's tokens 0..11 → windows at starts 1,2,3 all
        # duplicated; coverage = positions 1..12 (union), not 3*w.
        t = pa.table({
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array([
                " ".join(toks) + " extra trailing words here",
                " ".join(toks),
            ], pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        pdf = (q_dedup_substrings(d, w=10).to_pandas()
               .set_index("doc_id").sort_index())
        assert pdf.loc[1, "clean_text"] == ""
        assert pdf.loc[1, "n_removed"] == 12


class TestMixtureAccounting:
    def test_split_partitions_and_token_totals(self, ray_session):
        from candidategeneration_ray.pipelines.docquery import q_global_stats
        from candidategeneration_ray.pipelines.extras import (
            q_tokens_by_source, q_train_val_split)

        SF = "/root/testdata/sf0.01"
        tbs = q_tokens_by_source(SF).to_pandas()
        gs = q_global_stats(SF).to_pandas()
        assert tbs["n_docs"].sum() == gs["n_docs"][0]
        assert tbs["total_tokens"].sum() == gs["total_tokens"][0]
        tvs = q_train_val_split(SF).to_pandas()
        assert set(tvs["split"]) <= {"train", "val"}
        per_src = tvs.groupby("source")["n_docs"].sum().sort_index()
        by_src = tbs.set_index("source")["n_docs"].sort_index()
        assert (per_src.values == by_src.values).all()


class TestQualityFilter:
    def test_mask_consistency_and_mix(self, ray_session):
        from candidategeneration_ray.pipelines.extras import q_quality_filter

        df = q_quality_filter("/root/testdata/sf0.01").to_pandas()
        assert len(df) == 500
        assert ((df["keep"] == 1) == (df["fail_mask"] == 0)).all()
        # thresholds chosen to actually discriminate on the driver table
        assert 0 < df["keep"].sum() < len(df)
        assert (df["fail_mask"] >= 0).all() and (df["fail_mask"] < 32).all()


class TestContainment:
    def test_subset_dup_caught_by_containment_not_jaccard(
            self, ray_session, tmp_path):
        """A short doc fully contained in a much longer one: containment
        fires, 20%-Jaccard does not — the case the rule exists for."""
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import (
            q_containment_pairs, q_jaccard_pairs)

        # pure-alpha words (the tokenizer drops alphanumeric mixes)
        import itertools
        import string

        words = ["".join(p) for p in itertools.islice(
            itertools.product(string.ascii_lowercase, repeat=3), 120)]
        short = " ".join(words[:12])           # 10 shingles, all in long
        long = " ".join(words)                 # 118 shingles
        other = " ".join("".join(p) for p in itertools.islice(
            itertools.product("qrstuv", repeat=3), 50))
        d = str(tmp_path / "subset")
        os.makedirs(d)
        pq.write_table(pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([short, long, other], pa.string()),
        }), os.path.join(d, "documents.parquet"))
        cont = q_containment_pairs(d, max_shingle_df=None).to_pandas()
        assert len(cont) == 1
        assert (int(cont["doc_a"][0]), int(cont["doc_b"][0])) == (1, 2)
        assert int(cont["inter_n"][0]) == int(cont["small_n"][0]) == 10
        jac = q_jaccard_pairs(d, max_shingle_df=None).to_pandas()
        assert len(jac) == 0                   # 10/118 < 20%

    def test_capped_containment_is_subset_of_exact(
            self, ray_session, tmp_path):
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import (
            q_containment_pairs)

        import itertools
        import string

        tails = ["".join(p) for p in itertools.islice(
            itertools.product(string.ascii_lowercase, repeat=4), 36)]
        # 30 DISTINCT common words: 28 shared shingles vs 32 per doc
        # (>80% containment); repetition wouldn't work — distinct
        # shingle sets collapse repeats
        hot = " ".join("".join(p) for p in itertools.islice(
            itertools.product("fghjk", repeat=3), 30))
        docs = [f"{hot} {tails[3*i]} {tails[3*i+1]} {tails[3*i+2]}"
                for i in range(12)]
        d = str(tmp_path / "cap")
        os.makedirs(d)
        pq.write_table(pa.table({
            "doc_id": pa.array(np.arange(len(docs), dtype=np.int64)),
            "text": pa.array(docs, pa.string()),
        }), os.path.join(d, "documents.parquet"))
        def pairs(t):
            df = t.to_pandas()
            return (set() if df.empty
                    else set(zip(df["doc_a"], df["doc_b"])))

        ep = pairs(q_containment_pairs(d, max_shingle_df=None))
        cp = pairs(q_containment_pairs(d, max_shingle_df=4))
        assert ep, "exact run should find the hot-prefix pairs"
        assert cp <= ep


def test_doc_chunks_reassemble(ray_session):
    """Chunks partition each doc's kept-token stream: contiguous
    chunk_idx from 0, all chunks full except possibly the last, and
    re-joining the chunk texts equals the tokenized doc."""
    from candidategeneration_ray.functions.tokenize import tokenize_many
    from candidategeneration_ray.pipelines.extras import CHUNK_TOKENS, q_doc_chunks

    import pyarrow.parquet as pq

    df = q_doc_chunks("/root/testdata/sf0.01").to_pandas()
    docs = pq.read_table("/root/testdata/sf0.01/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    toks = {int(d): t for d, t in
            zip(docs["doc_id"], tokenize_many(docs["text"].tolist()))}
    for doc_id, grp in df.groupby("doc_id"):
        grp = grp.sort_values("chunk_idx")
        assert grp["chunk_idx"].tolist() == list(range(len(grp)))
        assert (grp["n_tokens"].iloc[:-1] == CHUNK_TOKENS).all()
        joined = " ".join(grp["chunk_text"])
        assert joined == " ".join(toks[int(doc_id)])
    # every non-empty doc appears
    assert set(df["doc_id"]) == {d for d, t in toks.items() if t}


def test_column_profile_counts(ray_session):
    from candidategeneration_ray.pipelines.extras import q_column_profile

    t = q_column_profile("/root/testdata/sf0.01").to_pandas().set_index("col_name")
    import duckdb

    con = duckdb.connect()
    n = con.execute(
        "SELECT count(*) FROM '/root/testdata/sf0.01/documents.parquet'").fetchone()[0]
    assert t.loc["doc_id", "n_distinct"] == n     # primary key
    assert (t["n_null"] == 0).all()               # synthetic corpus: no nulls
    assert (t["n_distinct"] <= n).all()


def test_similar_docs_sane(ray_session):
    from candidategeneration_ray.pipelines.extras import (
        SIMDOC_QUERY_DOCS, SIMDOC_TOPK, q_similar_docs)

    df = q_similar_docs("/root/testdata/sf0.01").to_pandas()
    for qd, grp in df.groupby("query_doc"):
        assert int(qd) in SIMDOC_QUERY_DOCS
        assert len(grp) <= SIMDOC_TOPK
        assert (grp["doc_id"] != qd).all()        # self excluded
        g = grp.sort_values("rank")
        assert g["rank"].tolist() == list(range(1, len(g) + 1))
        # ranks follow (score desc, doc_id asc)
        rows = list(zip(-g["score_scaled"].to_numpy(), g["doc_id"].to_numpy()))
        assert rows == sorted(rows)
        assert (g["inter_n"] <= g["union_n"]).all()


def test_jaccard_prefix_plan_equivalence(ray_session):
    """The PPJoin prefix-filtered plan must produce exactly the
    all-pairs result (sf0.001 here; sf0.01 in the contract test)."""
    from candidategeneration_ray.pipelines.extras import (
        q_jaccard_pairs, q_jaccard_pairs_prefix)

    sf = "/root/testdata/sf0.001"
    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(by=list(df.columns)).reset_index(drop=True)
    exact = canon(q_jaccard_pairs(sf, max_shingle_df=None).to_pandas())
    pref = canon(q_jaccard_pairs_prefix(sf).to_pandas())
    assert len(exact) == len(pref)
    for c in exact.columns:
        assert (exact[c].values == pref[c].values).all()


def test_jaccard_prefix_exact_when_blocks_split_documents(ray_session,
                                                         tmp_path):
    """Ray may split one document's shingle rows across blocks (an
    output block past target_max_block_size is sliced by rows). Each
    part then sizes its prefix from the carried `doc_n`, keeping at
    least its share of the true prefix, so the candidates stay a
    superset and verification keeps the result exact. The fixture is
    two documents that differ in their last word (J = 11/13): with
    four rows per block, prefixes sized from each part alone (one row
    each at 80%) share no shingle, whichever way the two documents
    share a task's output stream."""
    import copy

    import pyarrow.parquet as pq
    from ray.data import DataContext

    from candidategeneration_ray.pipelines.docquery import documents_ds
    from candidategeneration_ray.pipelines.extras import (
        _shingle_rows, q_jaccard_pairs, q_jaccard_pairs_prefix)

    head = ("wcjh wfgc wgck wjkk whkh wfhg wbjk wchb wdgj wdbg wghf wbjc "
            "wcbh ")
    pq.write_table(pa.table({
        "doc_id": pa.array([3, 8], pa.int64()),
        "text": pa.array([head + "wffk", head + "wbbf"], pa.string()),
    }), str(tmp_path / "documents.parquet"))
    sf = str(tmp_path)

    def canon(df):
        df = df[sorted(df.columns)]
        return df.sort_values(by=list(df.columns)).reset_index(drop=True)

    want = canon(q_jaccard_pairs(sf, threshold_pct=80,
                                 max_shingle_df=None).to_pandas())
    assert want[["doc_a", "doc_b"]].values.tolist() == [[3, 8]]
    ctx = DataContext.get_current()
    tiny = copy.deepcopy(ctx)
    tiny.target_max_block_size = 4 * 24   # four (doc_id, shingle_h, doc_n)
    DataContext._set_current(tiny)
    try:
        split = documents_ds(sf).map_batches(
            lambda b: _shingle_rows(b, H.SHINGLE_W),
            batch_format="pyarrow").materialize()
        assert split.num_blocks() > 2          # documents are split
        got = canon(q_jaccard_pairs_prefix(sf, threshold_pct=80).to_pandas())
    finally:
        DataContext._set_current(ctx)
    assert got.equals(want)


def test_jaccard_prefix_emits_fewer_candidate_rows(ray_session):
    """The point of the prefix filter: candidate generation touches
    only each doc's prefix, so a hot shared suffix shingle creates no
    pairs. Construct a corpus where every doc shares one hot shingle
    that sorts LAST — prefix rows exclude it — and check no candidate
    pairs (no doc pair is actually similar)."""
    import pyarrow.parquet as pq
    import tempfile, os
    from candidategeneration_ray.functions import hashing as H
    from candidategeneration_ray.pipelines.extras import (
        q_containment_pairs, q_jaccard_pairs, q_jaccard_pairs_prefix)

    with tempfile.TemporaryDirectory() as d:
        # distinct per-doc text + one shared trigram at the end; tokens
        # must be pure letters (the tokenizer drops mixed alnum words)
        def w(i, j):
            return "uniq" + chr(97 + i) + chr(97 + j) * 3
        texts = [" ".join(w(i, j) for j in range(7))
                 + " shared hot trigram" for i in range(20)]
        pq.write_table(pa.table({
            "doc_id": pa.array(np.arange(20, dtype=np.int64), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }), os.path.join(d, "documents.parquet"))
        out = q_jaccard_pairs_prefix(d).to_pandas()
        # no pair reaches Jaccard >= 0.2 (1 shared of ~8 shingles each)
        assert len(out) == 0
        # ...and the empty answer still has the pair columns
        assert list(out.columns) == ["doc_a", "doc_b", "inter_n", "union_n"]
        exact = q_jaccard_pairs(d, max_shingle_df=None).to_pandas()
        assert len(exact) == 0
        assert list(exact.columns) == ["doc_a", "doc_b", "inter_n",
                                       "union_n"]
        cont = q_containment_pairs(d, max_shingle_df=None).to_pandas()
        assert len(cont) == 0
        assert list(cont.columns) == ["doc_a", "doc_b", "inter_n",
                                      "small_n"]


def test_cluster_representatives_policy(ray_session):
    """Representative = longest doc (ties min id) of its cluster;
    clusters and sizes agree with q_dup_clusters."""
    import pyarrow.parquet as pq
    from candidategeneration_ray.pipelines.extras import (
        q_cluster_representatives, q_dup_clusters)

    reps = q_cluster_representatives(SF).to_pandas()
    clusters = q_dup_clusters(SF).to_pandas()
    nchars = pq.read_table(SF + "/documents.parquet",
                           columns=["doc_id", "n_chars"]).to_pandas() \
        .set_index("doc_id")["n_chars"]
    sizes = clusters.groupby("cluster").size()
    assert set(reps["cluster"]) == set(sizes.index)
    r = reps.set_index("cluster")
    assert (r["n_docs"].sort_index() == sizes.sort_index()).all()
    for cl, grp in clusters.groupby("cluster"):
        members = grp["doc_id"].to_numpy()
        best = sorted(members, key=lambda d: (-nchars[d], d))[0]
        assert r.loc[cl, "rep_doc"] == best
        assert r.loc[cl, "rep_n_chars"] == nchars[best]


def test_source_moments_cauchy_schwarz(ray_session):
    """Moment sanity: n*Σxy within Cauchy-Schwarz bounds, variance
    numerators non-negative."""
    from candidategeneration_ray.pipelines.extras import q_source_moments

    df = q_source_moments(SF).to_pandas()
    vx = df["n"] * df["sum_xx"] - df["sum_x"] ** 2
    vy = df["n"] * df["sum_yy"] - df["sum_y"] ** 2
    cov = df["n"] * df["sum_xy"] - df["sum_x"] * df["sum_y"]
    assert (vx >= 0).all() and (vy >= 0).all()
    assert (cov * cov <= vx * vy).all()


def test_top_similar_pairs_invariants(ray_session):
    """Top-k ranking: descending scores, rank contiguous, every row's
    score recomputes from inter/union, and the set is the true global
    top-k (checked against the full jaccard pair recompute)."""
    from candidategeneration_ray.pipelines import extras as ex

    sf = "/root/testdata/sf0.001"
    got = ex.q_top_similar_pairs(sf).to_pandas().sort_values("rank")
    assert got["rank"].tolist() == list(range(1, len(got) + 1))
    s = got["score_q"].to_numpy()
    assert (s[:-1] >= s[1:]).all()
    assert (got["inter_n"] * int(ex.JACC_SCORE_SCALE)
            // got["union_n"] == got["score_q"]).all()

    allp = ex._shingle_pair_overlaps(sf, None).to_pandas()
    allp["union_n"] = allp["size_a"] + allp["size_b"] - allp["inter_n"]
    allp["score_q"] = (allp["inter_n"] * int(ex.JACC_SCORE_SCALE)
                       // allp["union_n"])
    want = allp.sort_values(
        ["score_q", "doc_a", "doc_b"],
        ascending=[False, True, True]).head(len(got))
    assert got[["doc_a", "doc_b", "score_q"]].values.tolist() \
        == want[["doc_a", "doc_b", "score_q"]].values.tolist()


def test_corpus_digest_detects_any_change(ray_session, tmp_path):
    """The digest is order-independent but changes under row edit,
    insertion and deletion; incremental property: digest(base+delta) =
    digest(base) + digest(delta) per stratum."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines import extras as ex

    sf = "/root/testdata/sf0.001"
    base = ex.q_corpus_digest(sf).to_pandas()

    # shuffled copy -> identical digest
    d2 = str(tmp_path)
    t = pq.read_table(os.path.join(sf, "documents.parquet"))
    perm = np.random.default_rng(1).permutation(t.num_rows)
    pq.write_table(t.take(pa.array(perm)),
                   os.path.join(d2, "documents.parquet"))
    shuffled = ex.q_corpus_digest(d2).to_pandas()
    key = ["source", "lang"]
    assert shuffled.sort_values(key).reset_index(drop=True).equals(
        base.sort_values(key).reset_index(drop=True))

    # edit one row's n_chars -> that stratum's digest changes
    cols = t.to_pydict()
    src0, lang0 = cols["source"][0], cols["lang"][0]
    cols["n_chars"][0] += 1
    pq.write_table(pa.table(cols, schema=t.schema),
                   os.path.join(d2, "documents.parquet"))
    edited = ex.q_corpus_digest(d2).to_pandas()
    b = base.set_index(key)["digest"]
    e = edited.set_index(key)["digest"]
    assert e[(src0, lang0)] != b[(src0, lang0)]
    changed = (b.sort_index().values != e.sort_index().values).sum()
    assert changed == 1

    # additive: splitting the table gives digests that sum to base's
    half = t.slice(0, t.num_rows // 2)
    rest = t.slice(t.num_rows // 2)
    pq.write_table(half, os.path.join(d2, "documents.parquet"))
    d_half = ex.q_corpus_digest(d2).to_pandas().set_index(key)
    pq.write_table(rest, os.path.join(d2, "documents.parquet"))
    d_rest = ex.q_corpus_digest(d2).to_pandas().set_index(key)
    tot = d_half.add(d_rest, fill_value=0)
    assert tot["digest"].astype(int).sort_index().equals(
        base.set_index(key)["digest"].sort_index())


def test_source_regression_matches_lstsq(ray_session):
    """Exact integer num/den fit == numpy float lstsq per source (to
    float tolerance), and identities hold (den > 0 with varying x)."""
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.pipelines import extras as ex
    import os
    import pyarrow.parquet as pq

    sf = "/root/testdata/sf0.001"
    got = ex.q_source_regression(sf).to_pandas()
    t = pq.read_table(os.path.join(sf, "documents.parquet"),
                      columns=["source", "text", "n_chars"]).to_pandas()
    t["y"] = [len(tokenize_text(s)) for s in t["text"]]
    for src, g in t.groupby("source"):
        row = got[got["source"] == src].iloc[0]
        x, y = g["n_chars"].to_numpy(float), g["y"].to_numpy(float)
        if len(g) >= 2 and x.std() > 0:
            slope, icept = np.polyfit(x, y, 1)
            assert row["slope_den"] > 0
            assert abs(row["slope_num"] / row["slope_den"] - slope) < 1e-9
            assert abs(row["icept_num"] / row["icept_den"] - icept) < 1e-9


def test_snapshot_diff_generic(ray_session):
    """The generic two-dataset diff classifies added/removed/changed
    and never emits unchanged rows."""
    import ray.data

    from candidategeneration_ray.pipelines.extras import snapshot_diff

    a = ray.data.from_items([
        {"doc_id": 1, "text": "alpha"},
        {"doc_id": 2, "text": "beta"},
        {"doc_id": 3, "text": "gamma"},
        {"doc_id": 4, "text": "delta"},
    ])
    b = ray.data.from_items([
        {"doc_id": 1, "text": "alpha"},        # unchanged
        {"doc_id": 2, "text": "beta prime"},   # changed
        {"doc_id": 4, "text": "delta"},        # unchanged (3 removed)
        {"doc_id": 5, "text": "epsilon"},      # added
    ])
    got = {(r["doc_id"], r["status"])
           for r in snapshot_diff(a, b).take_all()}
    assert got == {(2, "changed"), (3, "removed"), (5, "added")}


def test_snapshot_diff_statuses_partition_the_churn(ray_session):
    """Driver entry at sf0.001: statuses are disjoint and counts match
    the derivation rules exactly."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.extras import q_snapshot_diff

    sf = "/root/testdata/sf0.001"
    df = q_snapshot_diff(sf).to_pandas()
    assert df["doc_id"].is_unique or (
        # an added id never collides with a base id by construction
        df.groupby("doc_id")["status"].nunique().max() == 1)
    ids = pq.read_table(sf + "/documents.parquet", columns=["doc_id"]) \
        .column("doc_id").to_numpy()
    n_removed = int((ids % 10 == 0).sum())
    n_changed = int(((ids % 10 != 0) & (ids % 7 == 0)).sum())
    n_added = int((ids % 13 == 0).sum())
    counts = df["status"].value_counts().to_dict()
    assert counts.get("removed", 0) == n_removed
    assert counts.get("changed", 0) == n_changed
    assert counts.get("added", 0) == n_added


def test_snapshot_diff_property_random(ray_session):
    """Property test: for seeded random A/B table pairs the engine
    diff equals a dict-based brute diff (including empty sides and
    bucket-boundary ids)."""
    import ray.data

    from candidategeneration_ray.pipelines.extras import snapshot_diff

    rng = np.random.default_rng(7)
    for trial in range(4):
        na, nb = int(rng.integers(0, 40)), int(rng.integers(0, 40))
        ids_a = rng.choice(200, size=na, replace=False)
        ids_b = rng.choice(200, size=nb, replace=False)
        ta = {int(i): f"t{int(rng.integers(0, 3))}" for i in ids_a}
        tb = {int(i): f"t{int(rng.integers(0, 3))}" for i in ids_b}
        a = ray.data.from_items(
            [{"doc_id": k, "text": v} for k, v in ta.items()]) \
            if ta else ray.data.from_arrow(pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "text": pa.array([], pa.string())}))
        b = ray.data.from_items(
            [{"doc_id": k, "text": v} for k, v in tb.items()]) \
            if tb else ray.data.from_arrow(pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "text": pa.array([], pa.string())}))
        got = {(r["doc_id"], r["status"])
               for r in snapshot_diff(a, b, n_buckets=7).take_all()}
        want = set()
        for k in ta:
            if k not in tb:
                want.add((k, "removed"))
            elif ta[k] != tb[k]:
                want.add((k, "changed"))
        for k in tb:
            if k not in ta:
                want.add((k, "added"))
        assert got == want, f"trial {trial}"


class TestFuzzyJoin:
    def test_myers_matches_dp(self):
        """_ed_many equals the textbook DP on random pairs incl. empty
        strings, equal strings, and the 64-char boundary."""
        import random

        from candidategeneration_ray.pipelines.extras import _ed_many

        def ed(a, b):
            D = list(range(len(b) + 1))
            for i, ca in enumerate(a, 1):
                nD = [i]
                for j, cb in enumerate(b, 1):
                    nD.append(min(D[j] + 1, nD[-1] + 1,
                                  D[j - 1] + (ca != cb)))
                D = nD
            return D[-1]

        rng = random.Random(11)
        alpha = "abcde "
        pairs = [("".join(rng.choice(alpha)
                          for _ in range(rng.randint(0, 15))),
                  "".join(rng.choice(alpha)
                          for _ in range(rng.randint(0, 15))))
                 for _ in range(300)]
        pairs += [("", ""), ("a", ""), ("", "abc"), ("same", "same"),
                  ("x" * 64, "x" * 63 + "y")]
        got = _ed_many([a for a, _ in pairs], [b for _, b in pairs])
        assert list(got) == [ed(a, b) for a, b in pairs]

    def test_pairs_brute_force_with_shorts(self, ray_session, tmp_path):
        """Prefix-filtered join equals the brute-force O(n^2) answer on
        a fixture that exercises the SHORT bucket (names at/below
        (k+1)*q-1 chars) and repeated-gram multisets."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import (
            _ed_many, q_fuzzy_name_pairs)

        names = ["ab", "ac", "abc", "abd", "x", "", "aaaa", "aaab",
                 "banana", "banan", "bananas", "bandana", "ribbon",
                 "ribbons", "zzz top", "zz top", "aaaa"]
        keys = list(range(1, len(names) + 1))
        pq.write_table(pa.table({
            "p_partkey": pa.array(keys, pa.int64()),
            "p_name": pa.array(names, pa.string()),
        }), str(tmp_path / "part.parquet"))
        got = q_fuzzy_name_pairs(str(tmp_path)).to_pandas()
        got_set = {(a, b, e) for a, b, e in
                   zip(got["a_key"], got["b_key"], got["ed"])}
        want = set()
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                d = int(_ed_many([names[i]], [names[j]])[0])
                if d <= 1:
                    want.add((keys[i], keys[j], d))
        assert got_set == want


def test_part_entities_transitive_closure(ray_session):
    """Entity labels equal a python union-find over the fuzzy pairs at
    sf0.001 (min-key representative), and non-matched parts are
    singletons."""
    from candidategeneration_ray.pipelines.extras import (
        q_fuzzy_name_pairs, q_part_entities)

    sf = "/root/testdata/sf0.001"
    pairs = q_fuzzy_name_pairs(sf).to_pandas()
    got = q_part_entities(sf).to_pandas()
    parent = {int(k): int(k) for k in got["p_partkey"]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["a_key"], pairs["b_key"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = {k: find(k) for k in parent}
    # union-find roots are not necessarily cluster minima; normalize
    clusters = {}
    for k, r in want.items():
        clusters.setdefault(r, []).append(k)
    want = {k: min(m) for r, m in clusters.items() for k in m}
    assert {int(r.p_partkey): int(r.entity)
            for r in got.itertuples()} == want


def test_source_similarity_self_consistency(ray_session):
    """Identical sources would match all slots; here: match counts are
    within [0, n_perms], symmetric-complete pair set, and a cloned
    source matches itself-as-clone on every slot."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.extras import \
        q_source_similarity

    sf = "/root/testdata/sf0.001"
    t = q_source_similarity(sf)
    df = t.to_pandas()
    assert (df["match_slots"] >= 0).all()
    assert (df["match_slots"] <= df["n_perms"]).all()
    srcs = set(df["source_a"]) | set(df["source_b"])
    assert len(df) == len(srcs) * (len(srcs) - 1) // 2

    # clone fixture: duplicate ONE source under a new name -> its pair
    # with the clone must match on EVERY slot (identical shingle sets)
    import tempfile
    base = pq.read_table(sf + "/documents.parquet")
    pick = sorted(set(base.column("source").to_pylist()))[0]
    import pyarrow.compute as pc
    sub = base.filter(pc.equal(base.column("source"), pick))
    clone = sub.set_column(
        sub.schema.get_field_index("source"), "source",
        pa.array(["zclone"] * sub.num_rows, pa.string()))
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.concat_tables([base, clone]),
                       d + "/documents.parquet")
        dfc = q_source_similarity(d).to_pandas()
    row = dfc[(dfc["source_a"] == pick) & (dfc["source_b"] == "zclone")]
    assert len(row) == 1
    assert int(row["match_slots"].iloc[0]) == int(row["n_perms"].iloc[0])


def test_pps_sample_invariance_and_inclusion(ray_session):
    """Systematic PPS sample at sf0.001: block-count invariance (the
    blocked-prefix contract), every doc with weight >= step is always
    selected, sample size is within 1 of W // step, and cum_chars is
    the true running total at each selected doc."""
    import numpy as np
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.extras import PPS_SAMPLE_K, q_pps_sample
    from candidategeneration_ray.stages.docids import blocked_prefix_apply  # noqa: F401

    SF = "/root/testdata/sf0.001"
    got = q_pps_sample(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "n_chars"]).to_pandas()
    docs = docs.sort_values("doc_id").reset_index(drop=True)
    w = docs.n_chars.to_numpy(np.int64)
    cum = np.cumsum(w)
    step = max(1, int(w.sum()) // PPS_SAMPLE_K)
    sel = (cum // step) > ((cum - w) // step)
    brute = docs[sel].assign(cum_chars=cum[sel])
    assert got.doc_id.tolist() == brute.doc_id.tolist()
    assert got.cum_chars.tolist() == brute.cum_chars.tolist()
    # inclusion: heavy docs always sampled; size within 1 of W // step
    heavy = docs.doc_id[w >= step]
    assert set(heavy).issubset(set(got.doc_id))
    assert abs(len(got) - int(w.sum()) // step) <= 1
    # block-count invariance: the global scan must not depend on how
    # the sorted dataset splits into prefix blocks
    for nb in (3, 17):
        again = q_pps_sample(SF, num_blocks=nb).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        assert again.equals(got), nb


class TestHashedEmbeddings:
    def _scalar_vec(self, text: str):
        from candidategeneration_ray.functions import hashing as H
        from candidategeneration_ray.functions.tokenize import tokenize_text
        from candidategeneration_ray.pipelines.extras import HASH_DIM, _SIGN_BIT

        v = np.zeros(HASH_DIM, np.int64)
        for tok in tokenize_text(text):
            h = H.h64(tok)
            sign = -1 if (h >> _SIGN_BIT) & 1 else 1
            v[h % HASH_DIM] += sign
        return v

    def test_matches_scalar_reference(self, ray_session):
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import (
            HASH_DIM, q_hashed_embeddings)

        sf = "/root/testdata/sf0.01"
        got = q_hashed_embeddings(sf).to_pandas()
        t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
        for doc_id, text in list(zip(t["doc_id"].to_pylist(),
                                     t["text"].to_pylist()))[:40]:
            want = self._scalar_vec(text)
            rows = got[got.doc_id == doc_id]
            dense = np.zeros(HASH_DIM, np.int64)
            dense[rows["dim"].to_numpy()] = rows["val"].to_numpy()
            assert dense.tolist() == want.tolist(), doc_id
        assert (got["val"] != 0).all()

    def test_mips_stopword_query_empty_and_ranks_sound(self, ray_session):
        from candidategeneration_ray.pipelines.extras import q_hashed_mips_top10

        got = q_hashed_mips_top10("/root/testdata/sf0.01").to_pandas()
        assert (got["query_id"] != 3).all()          # stopword-only query
        assert (got["dot"] > 0).all()
        for qid, grp in got.groupby("query_id"):
            g = grp.sort_values("rank")
            assert g["rank"].tolist() == list(range(1, len(g) + 1))
            d = g["dot"].to_numpy()
            assert (np.diff(d) <= 0).all()           # dot non-increasing
        # unmapped-but-hashable query 4 ("zzz") may collide into docs —
        # whatever it returns must obey the same invariants (no assert
        # on presence; collisions are the hashing trick's semantics)


class TestAnnSq8:
    @pytest.mark.parametrize("sf", ["/root/testdata/sf0.001",
                                    "/root/testdata/sf0.01"])
    def test_recall_vs_exact_l2(self, ray_session, sf):
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import q_ann_sq8_top10

        got = q_ann_sq8_top10(sf).to_pandas().sort_values("rank")
        # the query vector itself is its own nearest code (d2 = 0)
        assert got.iloc[0]["vec_id"] == 0 and got.iloc[0]["d2"] == 0
        d2 = got["d2"].to_numpy()
        assert (np.diff(d2) >= 0).all()
        t = pq.read_table(f"{sf}/embeddings.parquet")
        ids = np.array(t["vec_id"], np.int64)
        xq = np.trunc(np.array(t["embedding"].to_pylist(), np.float64)
                      * (1 << 16)).astype(np.int64)
        q = xq[ids == 0][0]
        ex = ((xq - q) ** 2).sum(1)
        exact = set(ids[np.lexsort((ids, ex))[:10]].tolist())
        assert len(set(got["vec_id"]) & exact) >= 6   # 8-bit quantization recall


class TestPrivacyAndDrift:
    def test_k_anonymity_flags_planted_rare_group(self, ray_session, tmp_path):
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import q_k_anonymity

        n = 60
        t = pa.table({
            "doc_id": pa.array(range(n + 2), pa.int64()),
            "text": pa.array(["common text"] * (n + 2), pa.string()),
            "lang": pa.array(["en"] * n + ["xx", "xx"], pa.string()),
            "source": pa.array(["web"] * n + ["rare", "rare"], pa.string()),
            "n_chars": pa.array([100] * n + [100, 100], pa.int64()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        got = q_k_anonymity(d).to_pandas()
        assert len(got) == 1
        r = got.iloc[0]
        assert (r["lang"], r["source"], r["n_docs"]) == ("xx", "rare", 2)

    def test_label_centroids_match_numpy(self, ray_session):
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import (
            q_label_centroid_dist)

        sf = "/root/testdata/sf0.01"
        got = (q_label_centroid_dist(sf).to_pandas()
               .sort_values(["label_a", "label_b"]).reset_index(drop=True))
        t = pq.read_table(f"{sf}/embeddings.parquet")
        lab = np.array(t["label"], np.int64)
        xq = np.trunc(np.array(t["embedding"].to_pylist(), np.float64)
                      * (1 << 16)).astype(np.int64)
        labels = np.unique(lab)
        cent = np.stack([
            np.floor(xq[lab == lv].sum(0) / (lab == lv).sum()).astype(np.int64)
            for lv in labels])
        k = 0
        for i in range(labels.size):
            for j in range(i + 1, labels.size):
                want = int(((cent[i] - cent[j]) ** 2).sum())
                row = got.iloc[k]
                assert (row["label_a"], row["label_b"], row["d2"]) == (
                    labels[i], labels[j], want)
                k += 1
        assert k == len(got)


class TestLshPrecision:
    def test_verdicts_match_exact_jaccard(self, ray_session):
        from candidategeneration_ray.functions import hashing as H
        from candidategeneration_ray.functions.tokenize import tokenize_many
        from candidategeneration_ray.pipelines.extras import q_lsh_precision

        import pyarrow.parquet as pq

        sf = "/root/testdata/sf0.01"
        got = q_lsh_precision(sf).to_pandas()
        assert len(got) > 0
        t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
        ids = np.array(t["doc_id"], np.int64)
        toks = tokenize_many(t["text"].to_pylist())
        sets = {int(i): set(H.h64_many(H.word_shingles(tk, H.SHINGLE_W))
                            .tolist())
                for i, tk in zip(ids, toks)}
        for _, r in got.iterrows():
            a, b = sets[r["doc_a"]], sets[r["doc_b"]]
            assert r["inter_n"] == len(a & b)
            assert r["union_n"] == len(a | b)
            assert r["is_dup"] == int(len(a & b) * 100 >= 20 * len(a | b))
        # the duplicate fixture guarantees true positives exist
        assert got["is_dup"].sum() > 0


class TestCurriculumOrder:
    def test_rank_is_total_and_block_invariant(self, ray_session):
        from candidategeneration_ray.pipelines.extras import q_curriculum_order

        sf = "/root/testdata/sf0.01"
        a = (q_curriculum_order(sf, num_blocks=3).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
        b = (q_curriculum_order(sf, num_blocks=11).to_pandas()
             .sort_values("doc_id").reset_index(drop=True))
        assert a.equals(b)                                  # block invariance
        r = np.sort(a["curriculum_rank"].to_numpy())
        assert (r == np.arange(1, len(a) + 1)).all()        # total order
        g = a.sort_values("curriculum_rank")
        f = g["fluency_ppm"].to_numpy()
        assert (np.diff(f) <= 0).all()                      # easy-first


class TestDedupSubstringsProperties:
    def test_randomized_conservation_and_owner_survival(self, ray_session,
                                                        tmp_path):
        """Random corpora with planted repetition: token conservation
        (n_tokens - n_removed == len(clean tokens)), the globally first
        occurrence of every duplicated window survives in its owner's
        clean text, and a corpus with no repeated window is untouched."""
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.functions import hashing as H
        from candidategeneration_ray.functions.tokenize import tokenize_many
        from candidategeneration_ray.pipelines.extras import (
            DEDUP_SUB_W, q_dedup_substrings)

        rng = np.random.default_rng(17)
        vocab = [f"w{chr(97 + i // 26)}{chr(97 + i % 26)}q" for i in range(80)]
        texts = []
        motif = " ".join(vocab[:DEDUP_SUB_W])        # planted repeated span
        for i in range(12):
            body = " ".join(rng.choice(vocab, size=25))
            texts.append(body if i % 3 else motif + " " + body)
        t = pa.table({"doc_id": pa.array(range(12), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        got = (q_dedup_substrings(d).to_pandas()
               .set_index("doc_id").sort_index())
        toks = tokenize_many(texts)
        for i in range(12):
            clean = got.loc[i, "clean_text"].split() \
                if got.loc[i, "clean_text"] else []
            assert got.loc[i, "n_tokens"] == len(toks[i])
            assert got.loc[i, "n_tokens"] - got.loc[i, "n_removed"] \
                == len(clean)
            # clean tokens are a subsequence of the original kept stream
            it = iter(toks[i])
            assert all(tok in it for tok in clean)
        # owner (doc 0, first motif holder) keeps the motif verbatim
        assert got.loc[0, "clean_text"].startswith(motif)
        # at least one later motif holder lost exactly those positions
        assert got.loc[3, "n_removed"] >= DEDUP_SUB_W


class TestMixedLangDocs:
    def test_code_switched_doc_flagged(self, ray_session, tmp_path):
        import os

        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.extras import q_mixed_lang_docs

        en = "the quick brown fox and the lazy dog were on the hill " * 4
        xx = "zorblat qixmur flendor gazpin wroddle klumft yerbosh " * 6
        t = pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([
                en + xx,            # code-switched -> mixed
                en + en,            # uniformly english
                xx + xx,            # uniformly non-english
            ], pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        got = (q_mixed_lang_docs(d).to_pandas()
               .set_index("doc_id").sort_index())
        assert got.loc[0, "is_mixed"] == 1
        assert got.loc[1, "is_mixed"] == 0
        assert got.loc[1, "en_chunks"] == got.loc[1, "n_chunks"]
        assert got.loc[2, "is_mixed"] == 0
        assert got.loc[2, "en_chunks"] == 0


def _canon_pairs(ds):
    df = ds.to_pandas()
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def test_jaccard_prefix_bucket_count_independence(ray_session):
    """Bucket counts only repartition work: the PPJoin plan must emit
    IDENTICAL pairs at any num_buckets (the partition-independence
    proof behind tableutil.auto_buckets deriving the count from input
    size instead of a fixed 64)."""
    from candidategeneration_ray.pipelines.extras import q_jaccard_pairs_prefix

    sf = "/root/testdata/sf0.001"
    a = _canon_pairs(q_jaccard_pairs_prefix(sf, num_buckets=7))
    b = _canon_pairs(q_jaccard_pairs_prefix(sf, num_buckets=64))
    assert a.equals(b)
    assert len(a) > 0


def test_fuzzy_name_pairs_bucket_count_independence(ray_session):
    """Same proof for the fuzzy string join's gram-df and pair folds."""
    from candidategeneration_ray.pipelines.extras import q_fuzzy_name_pairs

    sf = "/root/testdata/sf0.001"
    a = _canon_pairs(q_fuzzy_name_pairs(sf, num_buckets=5))
    b = _canon_pairs(q_fuzzy_name_pairs(sf, num_buckets=64))
    assert a.equals(b)
    assert len(a) > 0


def test_positional_grams_match_python_multiset(ray_session):
    """The packed batch-global q-gram emitter equals the obvious
    per-name Python multiset builder (occurrence indexes in positional
    order), including a non-ASCII name (UTF-32 decode: codepoint ==
    slot)."""
    from candidategeneration_ray.pipelines.extras import _positional_grams

    names = ["banana", "", "ab", "ananas", "aaaa", "naïve café", "xyz"]
    q, short_len = 2, 3
    kept, nidx, gramkey = _positional_grams(names, q, short_len)
    got = {}
    for j, gk in zip(nidx, gramkey):
        got.setdefault(int(kept[j]), []).append(
            (int(gk) >> 16, int(gk) & 0xFFFF))
    shift = max(7, max(ord(c) for n in names for c in n).bit_length())
    for i, name in enumerate(names):
        if len(name) <= short_len:
            assert i not in got
            continue
        seen, expect = {}, []
        for p in range(len(name) - q + 1):
            g = name[p:p + q]
            o = seen.get(g, 0)
            seen[g] = o + 1
            packed = 0
            for c in g:
                packed = (packed << shift) | ord(c)
            expect.append((packed, o))
        assert sorted(got[i]) == sorted(expect), name


@pytest.mark.parametrize("a,b", [(0, -1), (-3, 2)])
def test_exact_jaccard_rejects_negative_doc_id(ray_session, a, b):
    """A negative doc id has no packed pair key: `(a << 32) | b` would
    give a pid that the verifier unpacks as another pair. The pair
    kernel packs through keys.pack_pair, which raises."""
    import ray.data

    from candidategeneration_ray.pipelines.extras import exact_jaccard_for_pairs

    pairs = ray.data.from_arrow(pa.table({"doc_a": pa.array([a], pa.int64()),
                                          "doc_b": pa.array([b], pa.int64())}))
    with pytest.raises(Exception, match=r"ids in \[0, 2\^31\)"):
        exact_jaccard_for_pairs(SF, pairs).materialize()
