"""BM25 top-k rank identity: block-max WAND vs TAAT vs the exhaustive
oracle (the north-rule check, BASELINE.md targets)."""

import numpy as np
import pyarrow as pa
import pytest

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.state.queryengine import (
    IndexReader, QueryEngine, _List, _load_segment_table, blockmax_topk,
    maxscore_topk, ta_impact_topk, taat_topk, wand_topk,
)

# a query mix per FIXTURES.md §2: hot terms, rare terms, absent terms,
# stopword-only, multi-term
QUERIES = [
    "data",                      # hottest term (negative IDF path)
    "query engine",
    "index worker shard",
    "rareterma",
    "rareterma rareterme data",
    "absentzzz",                 # not in corpus
    "the and of",                # stopword-only → empty
    "model kernel latency vector actor",
    "1003 1007",                 # numeric tokens
    "duplicate payload text",
    "alpha beta gamma",
    "data data data",            # repeated query term == distinct once
    "cluster dataset engine frame group",
    "agenting batching caching",
]


@pytest.fixture(scope="module")
def engine(built_index):
    return QueryEngine(built_index["final_dir"], built_index["stats"])


class TestRankIdentity:
    @pytest.mark.parametrize("qtext", QUERIES)
    def test_wand_matches_oracle(self, engine, oracle_small, qtext):
        from candidategeneration_ray.functions.tokenize import tokenize_text

        got = engine.topk(qtext, k=10, algorithm="wand")
        expect = oracle_small.topk(tokenize_text(qtext), k=10)
        assert [(d, s) for s, d in got] == expect, qtext

    @pytest.mark.parametrize("qtext", QUERIES)
    def test_auto_dispatch_matches_oracle(self, engine, oracle_small, qtext):
        from candidategeneration_ray.functions.tokenize import tokenize_text

        got = engine.topk(qtext, k=10)  # hybrid auto path
        expect = oracle_small.topk(tokenize_text(qtext), k=10)
        assert [(d, s) for s, d in got] == expect, qtext

    @pytest.mark.parametrize("qtext", QUERIES)
    def test_wand_matches_taat(self, engine, qtext):
        ids = engine.reader.query_term_ids(qtext)
        taat = taat_topk(engine.reader, ids, 10)
        wand = engine.topk(qtext, k=10, algorithm="wand")
        assert wand == taat, qtext

    @pytest.mark.parametrize("qtext", QUERIES)
    def test_maxscore_matches_taat(self, engine, qtext):
        ids = engine.reader.query_term_ids(qtext)
        taat = taat_topk(engine.reader, ids, 10)
        got = engine.topk(qtext, k=10, algorithm="maxscore")
        assert got == taat, qtext

    @pytest.mark.parametrize("qtext", QUERIES)
    def test_ta_impact_matches_taat(self, engine, qtext):
        """Impact-ordered TA (the all-non-positive heavy-mix path) is
        rank-identical to the exhaustive TAAT merge at several k."""
        ids = engine.reader.query_term_ids(qtext)
        for k in (1, 3, 10, 100):
            assert (engine.topk(qtext, k=k, algorithm="ta_impact")
                    == taat_topk(engine.reader, ids, k)), (qtext, k)

    def test_rare_hot_query_dispatches_to_ta_impact(self, engine,
                                                     monkeypatch):
        """A rare + hot query — one tail term plus one term with
        df > N/2, whose scores quantize <= 0 — runs impact-ordered TA,
        not MaxScore, and answers as the exhaustive TAAT merge does."""
        import candidategeneration_ray.state.queryengine as qe

        st = engine.reader.stats
        df = np.asarray(st["df_by_id"])
        hot = int(np.argmax(df))
        assert df[hot] > st["n_docs"] / 2
        rare = int(np.flatnonzero(df == df[1:].min())[0])
        q = f"{st['terms'][rare - 1]} {st['terms'][hot - 1]}"
        assert (engine.reader.get(hot)[1] <= 0).all()
        ran = []
        for name in ("ta_impact_topk", "maxscore_topk", "taat_topk"):
            fn = getattr(qe, name)
            monkeypatch.setattr(
                qe, name,
                lambda *a, _fn=fn, _name=name: ran.append(_name) or _fn(*a))
        got = engine.topk(q, k=10)
        assert ran == ["ta_impact_topk"], (q, ran)
        assert got == engine.topk(q, k=10, algorithm="taat")

    def test_warm_preserves_results(self, built_index):
        """Serving-actor warmup (hot-list decode + impact orders +
        dense views) changes latency only, never results."""
        cold = QueryEngine(built_index["final_dir"], built_index["stats"])
        want = {q: cold.topk(q, k=10) for q in QUERIES}
        warmed = QueryEngine(built_index["final_dir"],
                             built_index["stats"])
        assert warmed.warm(top_lists=8) > 0
        for q in QUERIES:
            assert warmed.topk(q, k=10) == want[q], q

    def test_various_k(self, engine, oracle_small):
        from candidategeneration_ray.functions.tokenize import tokenize_text

        for k in (1, 3, 25, 100, 10_000):
            got = engine.topk("query index data worker", k=k, algorithm="wand")
            expect = oracle_small.topk(
                tokenize_text("query index data worker"), k=k)
            assert [(d, s) for s, d in got] == expect, k


@pytest.mark.parametrize("scorer", [wand_topk, blockmax_topk, maxscore_topk],
                         ids=["wand_scalar", "blockmax_vec", "maxscore"])
class TestWandUnit:
    def _mk(self, docs, scores, bs=4):
        docs = np.asarray(docs, np.int64)
        scores = np.asarray(scores, np.int32)
        nb = (docs.size + bs - 1) // bs
        bmax = np.array([scores[i * bs:(i + 1) * bs].max() for i in range(nb)], np.int32)
        blast = np.array([docs[min((i + 1) * bs, docs.size) - 1] for i in range(nb)], np.int64)
        return _List(docs, scores, bmax, blast)

    def test_tie_break_doc_asc(self, scorer):
        l1 = self._mk([1, 2, 3], [5, 5, 5])
        out = scorer([l1], 2, 4)
        assert out == [(5, 1), (5, 2)]

    def test_negative_scores(self, scorer):
        l1 = self._mk([1, 2], [-3, -7])
        l2 = self._mk([2, 3], [4, 4])
        # doc2: -7+4=-3; doc1: -3; doc3: 4 → top2 = (4,3),(-3,1)
        out = scorer([l1, l2], 2, 4)
        assert out == [(4, 3), (-3, 1)]

    def test_block_skip_correctness(self, scorer):
        # long list with one high block at the end
        docs = list(range(1, 101))
        scores = [1] * 99 + [100]
        l1 = self._mk(docs, scores, bs=8)
        l2 = self._mk([100, 200], [50, 60])
        out = scorer([l1, l2], 2, 8)
        assert out == [(150, 100), (60, 200)]

    def test_exhaustive_random_vs_taat_reference(self, scorer):
        rng = np.random.default_rng(0)
        for trial in range(50):
            nlists = int(rng.integers(1, 6))
            lists = []
            ref_acc = {}
            for _ in range(nlists):
                n = int(rng.integers(1, 40))
                docs = np.sort(rng.choice(200, size=n, replace=False)).astype(np.int64)
                scores = rng.integers(-50, 1000, size=n).astype(np.int32)
                for d, s in zip(docs, scores):
                    ref_acc[int(d)] = ref_acc.get(int(d), 0) + int(s)
                lists.append(self._mk(docs, scores, bs=7))
            k = int(rng.integers(1, 12))
            expect = sorted(
                ((s, d) for d, s in ref_acc.items()), key=lambda p: (-p[0], p[1])
            )[:k]
            got = scorer(lists, k, 7)
            assert got == expect, trial


class TestCandidates:
    def test_pair_candidates_contain_cooccurring_docs(self, engine, oracle_small):
        cands = engine.candidates("alpha beta", budget=1000)
        # every doc where the pair co-occurs must be in the pool
        expect = oracle_small.pair_postings("alpha", "beta", distance=5)
        for d, _ in expect:
            assert d in cands

    def test_top_layer_is_impact_ordered_prefix(self, engine):
        key = int(engine.reader.keys[0])
        docs, scores = engine.reader.top_layer(key, 5)
        assert np.all(np.diff(scores) <= 0)

    def test_top_layer_equals_lexsort_reference(self, built_index):
        """Every key, at a depth below, equal to and above its length:
        the prefix of the list ordered by score desc, then doc asc."""
        reader = IndexReader(built_index["final_dir"], built_index["stats"])
        for key in map(int, reader.keys):
            docs, scores, _, _ = reader.get(key)
            n = docs.size
            for depth in (n - 1, n, n + 1):
                want = _ref_top_layer(reader, key, depth)
                got = reader.top_layer(key, depth)
                assert np.array_equal(got[0], want[0]), (key, depth)
                assert np.array_equal(got[1], want[1]), (key, depth)

    def test_candidates_equal_per_key_union(self, built_index):
        """Plain index: the gather equals one top_layer per augmented
        key, at budgets that put lists on both sides of the short-list
        rule (every list long, a mix, every list short)."""
        eng = QueryEngine(built_index["final_dir"], built_index["stats"])
        ref = IndexReader(built_index["final_dir"], built_index["stats"])
        for q in _candidate_queries(built_index["stats"]):
            for budget, pw in ((1, 1), (3, 5), (200, 5), (10**6, 5)):
                assert np.array_equal(
                    eng.candidates(q, budget, pw),
                    _ref_candidates(ref, q, budget, pw)), (q, budget, pw)

    def test_candidates_equal_per_key_union_lsm_view(self, built_index,
                                                    lsm_split):
        """Base + generation + tombstones, and a doc_filter on top."""
        stats = built_index["stats"]
        views = {"lsm": {"tombstones": lsm_split["tombstones"]},
                 "filtered": {"tombstones": lsm_split["tombstones"],
                              "doc_filter": lsm_split["doc_filter"]}}
        sources = lsm_split["sources"]
        for name, kw in views.items():
            eng = QueryEngine(sources, stats, tombstones_ref=kw["tombstones"],
                              doc_filter_ref=kw.get("doc_filter"))
            ref = IndexReader(sources, stats, **kw)
            for q in _candidate_queries(stats):
                for budget in (3, 200):
                    assert np.array_equal(
                        eng.candidates(q, budget),
                        _ref_candidates(ref, q, budget, 5)), (name, q, budget)

    def test_lsm_view_serves_every_generation(self, built_index, lsm_split):
        """The split fixture really exercises the LSM path: keys span
        both generations and the pools change under the tombstones."""
        stats = built_index["stats"]
        plain = QueryEngine(built_index["final_dir"], stats)
        lsm = QueryEngine(lsm_split["sources"], stats)
        dead = QueryEngine(lsm_split["sources"], stats,
                           tombstones_ref=lsm_split["tombstones"])
        base, gen = lsm_split["sources"]
        both = np.intersect1d(base.column("key").to_numpy(),
                              gen.column("key").to_numpy())
        assert both.size > 100
        qs = _candidate_queries(stats)
        assert all(np.array_equal(lsm.candidates(q), plain.candidates(q))
                   for q in qs)
        assert any(dead.candidates(q).size < lsm.candidates(q).size
                   for q in qs)

    def test_overlapping_generations_raise(self, built_index):
        """The same segment twice is two generations that overlap on
        every key: both the batched short lists and the long lists
        that go through get() must raise."""
        table = _load_segment_table(built_index["final_dir"], None)
        eng = QueryEngine([table, table], built_index["stats"])
        for budget in (1, 10**6):
            with pytest.raises(ValueError, match="overlap"):
                eng.candidates("alpha beta gamma", budget)

    def test_augmented_keys_pack_pairs(self, engine):
        from candidategeneration_ray.functions.keys import pack_pair

        ids = [7, 2, 40]
        assert engine.reader.augmented_keys(ids) == [
            7, 2, 40, *pack_pair([2, 7, 2], [7, 40, 40]).tolist()]
        assert engine.reader.augmented_keys([]) == []

    def test_augmented_keys_reject_ids_past_31_bits(self, engine):
        """(2^31 << 32) is negative in int64, and wider ids collide."""
        engine.reader.augmented_keys([1, (1 << 31) - 1])
        for bad in ([1, 1 << 31], [1 << 32, 3]):
            with pytest.raises(ValueError, match="2\\^31"):
                engine.reader.augmented_keys(bad)


def _ref_top_layer(reader, key, depth):
    """The `depth` highest-scoring postings of a list: lexsort by
    (score desc, doc asc) over the whole decoded list."""
    got = reader.get(key)
    if got is None:
        return np.empty(0, np.int64), np.empty(0, np.int32)
    docs, scores = got[0], got[1]
    order = np.lexsort((docs, -scores.astype(np.int64)))[:depth]
    return docs[order], scores[order]


def _ref_candidates(reader, text, budget, pair_weight):
    """One top layer per augmented key (pairs `pair_weight` times
    deeper), union of the doc ids."""
    ids = reader.query_term_ids(text)
    keys = list(ids) + [(min(a, b) << 32) | max(a, b)
                        for i, a in enumerate(ids) for b in ids[i + 1:]]
    pools = [np.empty(0, np.int64)]
    for key in keys:
        depth = budget * pair_weight if key >= (1 << 32) else budget
        pools.append(_ref_top_layer(reader, key, depth)[0])
    return np.unique(np.concatenate(pools))


def _candidate_queries(stats):
    """QUERIES plus seeded multi-term queries over the vocabulary, up
    to 20 terms (190 pair keys, most of them absent)."""
    rng = np.random.default_rng(5)
    terms = [str(t) for t in stats["terms"]]
    extra = [" ".join(rng.choice(terms, size=int(m), replace=False))
             for m in rng.integers(2, 21, size=12)]
    return QUERIES + extra


@pytest.fixture(scope="module")
def lsm_split(built_index):
    """The session index split at its middle doc id into a base and a
    delta generation (the layout update_index serves, as in-memory
    tables, so no index is built), with tombstones across both and a
    doc filter keeping every third doc."""
    from candidategeneration_ray.functions.arrowutil import binary_column_concat
    from candidategeneration_ray.stages.listbuild import merge_partial_lists

    table = _load_segment_table(built_index["final_dir"], None)
    keys = table.column("key").to_numpy()
    ns = table.column("n").to_numpy()
    docs, _ = binary_column_concat(table.column("docs"))
    scores, _ = binary_column_concat(table.column("scores"))
    n_docs = int(built_index["stats"]["n_docs"])
    mid = n_docs // 2

    def part(lo, hi):  # keep [lo, hi): tombstone everything else
        dead = (np.array([0, hi]), np.array([lo, 1 << 62]))
        return merge_partial_lists(keys, ns, docs, scores, EngineConfig(), 0,
                                   tombstones=dead)

    return {
        "sources": [part(0, mid), part(mid, n_docs)],
        "tombstones": {"starts": np.array([mid // 3, mid + 5], np.int64),
                       "ends": np.array([mid // 3 + 40, mid + 60], np.int64)},
        "doc_filter": np.arange(0, n_docs, 3, dtype=np.int64),
    }


def _row_decode(table, row, codec):
    """One row decoded through per-row pyarrow scalars."""
    from candidategeneration_ray.functions.codecs import decode_docs

    n = int(table.column("n")[row].as_py())
    return (decode_docs(table.column("docs")[row].as_py(), n,
                        codec).astype(np.int64),
            np.frombuffer(table.column("scores")[row].as_py(), "<i4"),
            np.asarray(table.column("block_max")[row].as_py(), np.int32),
            np.asarray(table.column("block_last")[row].as_py(), np.int64))


class TestGenerationDecode:
    """The flat column views of a _Generation decode exactly as per-row
    pyarrow scalars do, whatever the chunking and offset of the table
    (ListArray.offsets stay absolute into an unsliced .values)."""

    @pytest.fixture(scope="class")
    def table(self, built_index):
        return _load_segment_table(built_index["final_dir"],
                                   None).combine_chunks()

    @staticmethod
    def _check(gen, table):
        # every 7th key and the last: a misaligned offset shows on any
        for i in [*range(0, gen.keys.size, 7), gen.keys.size - 1]:
            row = int(gen.order[i])
            got = gen.decode(i)
            want = _row_decode(table, row, "varint")
            assert int(table.column("key")[row].as_py()) == int(gen.keys[i])
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (i, row)
                assert g.dtype == w.dtype

    def test_sliced_table(self, table):
        from candidategeneration_ray.state.queryengine import _Generation

        part = table.slice(1, table.num_rows - 2)
        assert part.column("block_max").chunk(0).offset == 1
        self._check(_Generation(part), part)
        self._check(IndexReader(part, None)._gens[0], part)

    def test_multi_chunk_and_sliced_chunks(self, table):
        from candidategeneration_ray.state.queryengine import _Generation

        k = table.num_rows // 3
        multi = pa.concat_tables([table.slice(1, k), table.slice(k + 5)])
        assert multi.column("docs").num_chunks == 2
        self._check(_Generation(multi), multi)
        reader = IndexReader(multi, None)
        for key in map(int, multi.column("key").to_numpy()[::7]):
            row = int(np.flatnonzero(multi.column("key").to_numpy() == key)[0])
            got = reader.get(key)
            want = _row_decode(multi, row, "varint")
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def _query_table():
    return pa.table({"query_id": pa.array(range(len(QUERIES)), pa.int64()),
                     "text": pa.array(QUERIES, pa.string())})


class TestBatchServing:
    def test_map_batches_over_queries(self, built_index, ray_session):
        import ray.data
        from candidategeneration_ray.pipelines.query import run_queries

        queries = ray.data.from_items([
            {"query_id": i, "text": q} for i, q in enumerate(QUERIES)
        ])
        out = run_queries(
            built_index["final_dir"], queries, built_index["stats"],
            concurrency=2,
        ).to_pandas()
        assert set(out.columns) == {"query_id", "rank", "doc_id", "score"}
        # stopword-only and absent queries yield no rows
        assert 6 not in set(out["query_id"])
        # each answered query has ranks 0..n-1 with n<=10
        for qid, grp in out.groupby("query_id"):
            assert list(grp.sort_values("rank")["rank"]) == list(range(len(grp)))
            assert len(grp) <= 10

    def test_broadcast_and_path_equal_engine_topk(self, built_index, engine,
                                                  ray_session):
        """Both source modes (the plasma-broadcast table and, above the
        broadcast threshold, workers loading the segment paths) answer
        every query exactly as QueryEngine.topk, rank by rank."""
        import ray.data
        from candidategeneration_ray.pipelines.query import run_queries

        want = {i: engine.topk(q) for i, q in enumerate(QUERIES)}
        for limit in (None, 0):   # default: broadcast (index is tiny)
            out = run_queries(
                built_index["final_dir"], ray.data.from_arrow(_query_table()),
                built_index["stats"], concurrency=2, broadcast_max_bytes=limit,
            ).to_pandas().sort_values(["query_id", "rank"])
            got = {i: [] for i in want}
            for qid, d, s in zip(out["query_id"], out["doc_id"], out["score"]):
                got[int(qid)].append((int(s), int(d)))
            assert got == want, limit

    def test_one_block_reaches_every_slot(self, built_index, ray_session):
        """A one-block query table is split so that its map runs in
        `concurrency` tasks, not one."""
        import ray.data
        from candidategeneration_ray.pipelines.query import run_queries

        qds = ray.data.from_arrow(_query_table())
        assert qds.num_blocks() == 1
        out = run_queries(built_index["final_dir"], qds, built_index["stats"],
                          concurrency=2).materialize()
        last = out._get_stats_summary().operators_stats[-1]
        assert last.task_rows["count"] == 2

    def test_serving_tasks_run_at_once_on_small_store(self, built_index,
                                                      tmp_path):
        """On a 4-CPU cluster with a 512 MiB object store, Ray Data's
        pre-output estimate of a map task's pending output (2 blocks of
        target_max_block_size) fits no serving task into the operator's
        budget at Ray's 128 MiB default, so the liveness rule ran the
        first task alone. Under run_queries' own block bound both slots
        run together: the serving operator's span stays well below the
        sum of its task walls. That holds for a filtered query stream
        too, whose row count Ray cannot tell before it runs. Ray runs
        in a subprocess, since the session cluster has Ray's default
        (larger) store."""
        import json
        import os
        import pickle
        import subprocess
        import sys
        import textwrap

        stats_path = str(tmp_path / "stats.pkl")
        with open(stats_path, "wb") as f:
            pickle.dump(built_index["stats"], f)
        script = textwrap.dedent(f"""
            import json
            import pickle
            import pyarrow as pa
            import ray
            ray.init(address="local", num_cpus=4, include_dashboard=False,
                     logging_level="ERROR",
                     object_store_memory=512 * 1024 * 1024)
            from ray.data import DataContext
            DataContext.get_current().enable_progress_bars = False
            from candidategeneration_ray.pipelines.query import run_queries
            with open({stats_path!r}, "rb") as f:
                stats = pickle.load(f)
            texts = {QUERIES!r}

            def serve(n, filtered):
                qt = pa.table({{"query_id": pa.array(range(n), pa.int64()),
                                "text": [texts[i % len(texts)]
                                         for i in range(n)]}})
                qds = ray.data.from_arrow(qt)
                if filtered:
                    qds = qds.filter(expr="query_id != 3")
                out = run_queries({built_index["final_dir"]!r}, qds, stats,
                                  concurrency=2).materialize()
                return out._get_stats_summary().operators_stats[-1]

            def grown(filtered):
                n = 2000
                op = serve(n, filtered)
                while op.wall_time["min"] < 0.1 and n < 256000:
                    n *= 2
                    op = serve(n, filtered)
                return {{"span": op.time_total_s, "walls": op.wall_time,
                         "tasks": op.task_rows["count"]}}

            serve(len(texts), False)   # warm the worker processes
            got = {{"plain": grown(False), "filtered": grown(True)}}
            ray.shutdown()
            print(json.dumps(got))
        """)
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run([sys.executable, "-c", script], cwd=repo,
                             capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr[-3000:]
        for mode, got in json.loads(
                out.stdout.strip().splitlines()[-1]).items():
            assert got["tasks"] == 2, mode
            assert got["walls"]["min"] >= 0.1, (mode, got)
            # serial tasks: span ~ sum of walls; concurrent: ~ the longest
            assert got["span"] < 0.75 * got["walls"]["sum"], (mode, got)

    def test_second_call_reuses_the_broadcast(self, built_index, engine,
                                              ray_session, monkeypatch):
        """A call on an unchanged index reads no segment file on the
        driver, puts nothing and serves from the broadcast of the call
        before it, under the same version (the workers' engine key)."""
        import pyarrow.parquet as pq
        import ray
        import ray.data

        from candidategeneration_ray.functions.workercache import worker_cached
        from candidategeneration_ray.pipelines.query import (
            run_queries, serving_version)

        final, stats = built_index["final_dir"], built_index["stats"]
        want = {i: engine.topk(q) for i, q in enumerate(QUERIES)}

        def memo():
            def miss():
                raise AssertionError("no broadcast kept")
            return worker_cached("run_queries-broadcast",
                                 serving_version(final, stats), miss, bound=1)

        def served(counted):
            qds = ray.data.from_arrow(_query_table())
            calls = []
            with monkeypatch.context() as m:
                if counted:
                    for mod, name in ((ray, "put"), (pq, "read_table"),
                                      (pq, "read_metadata")):
                        real = getattr(mod, name)
                        m.setattr(mod, name,
                                  lambda *a, _r=real, _n=name, **k:
                                  calls.append(_n) or _r(*a, **k))
                out = run_queries(final, qds, stats, concurrency=2)
            assert calls == []
            pdf = out.to_pandas().sort_values(["query_id", "rank"])
            got = {i: [] for i in want}
            for qid, d, s in zip(pdf["query_id"], pdf["doc_id"], pdf["score"]):
                got[int(qid)].append((int(s), int(d)))
            assert got == want

        served(counted=False)
        first = memo()
        assert isinstance(first[0], ray.ObjectRef)   # tiny index: broadcast
        for _ in range(2):
            served(counted=True)
            assert memo() is first

    def test_broadcast_does_not_outlive_its_session(self, built_index,
                                                    tmp_path):
        """The driver keeps its broadcast across calls, keyed on the Ray
        session too: after ray.shutdown and a new ray.init, a call on
        the same index puts a new broadcast instead of handing the
        workers a ref of the dead session. Ray runs in a subprocess, so
        the session cluster is left alone."""
        import json
        import os
        import pickle
        import subprocess
        import sys
        import textwrap

        stats_path = str(tmp_path / "stats.pkl")
        with open(stats_path, "wb") as f:
            pickle.dump(built_index["stats"], f)
        script = textwrap.dedent(f"""
            import json
            import pickle
            import pyarrow as pa
            import ray
            from candidategeneration_ray.pipelines.query import run_queries
            from candidategeneration_ray.state.queryengine import QueryEngine
            with open({stats_path!r}, "rb") as f:
                stats = pickle.load(f)
            texts = {QUERIES!r}
            final = {built_index["final_dir"]!r}
            want = [QueryEngine(final, stats).topk(q) for q in texts]
            qt = pa.table({{"query_id": pa.array(range(len(texts)),
                                                 pa.int64()),
                            "text": texts}})
            agree = []
            for session in range(2):
                ray.init(address="local", num_cpus=2,
                         include_dashboard=False, logging_level="ERROR")
                ray.data.DataContext.get_current().enable_progress_bars = False
                pdf = run_queries(final, ray.data.from_arrow(qt), stats,
                                  concurrency=2).to_pandas()
                got = [[] for _ in texts]
                for qid, _, score, doc in sorted(zip(
                        pdf["query_id"], pdf["rank"], pdf["score"],
                        pdf["doc_id"])):
                    got[qid].append((int(score), int(doc)))
                agree.append(got == want)
                ray.shutdown()
            print(json.dumps(agree))
        """)
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run([sys.executable, "-c", script], cwd=repo,
                             capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr[-3000:]
        assert json.loads(out.stdout.strip().splitlines()[-1]) == [True, True]

    def test_caller_dataset_keeps_its_context(self, built_index, engine,
                                              ray_session):
        """The serving bound lives on run_queries' own plan: the
        caller's query dataset and the global DataContext read the same
        after the call, and a second call over the same dataset still
        answers every query as QueryEngine.topk."""
        import copy

        import ray.data
        from ray.data import DataContext

        from candidategeneration_ray.pipelines.query import run_queries

        def fields(ctx):
            snap = copy.deepcopy(vars(ctx))
            snap["execution_options"] = vars(snap["execution_options"])
            return snap

        queries = ray.data.from_arrow(_query_table())
        ctx = queries.context
        before, global_before = fields(ctx), fields(DataContext.get_current())
        want = {i: engine.topk(q) for i, q in enumerate(QUERIES)}
        for _ in range(2):
            out = run_queries(built_index["final_dir"], queries,
                              built_index["stats"], concurrency=2)
            assert out.context is not ctx
            assert (out.context.target_max_block_size
                    != ctx.target_max_block_size)
            pdf = out.to_pandas().sort_values(["query_id", "rank"])
            assert queries.context is ctx
            assert fields(ctx) == before
            assert fields(DataContext.get_current()) == global_before
            got = {i: [] for i in want}
            for qid, d, s in zip(pdf["query_id"], pdf["doc_id"], pdf["score"]):
                got[int(qid)].append((int(s), int(d)))
            assert got == want


class TestBucketFilteredLoad:
    def test_bucket_subset_covers_its_keys(self, built_index):
        from candidategeneration_ray.stages.listbuild import bucket_of
        import numpy as np

        full = IndexReader(built_index["final_dir"], built_index["stats"])
        cfg = EngineConfig()
        some = IndexReader(built_index["final_dir"], built_index["stats"],
                           buckets=[0, 1, 2])
        # every loaded key belongs to the requested buckets and matches
        # the full reader's list byte-for-byte
        assert 0 < some.keys.size < full.keys.size
        b = bucket_of(some.keys, cfg.num_buckets)
        assert set(b.tolist()) <= {0, 1, 2}
        for k in some.keys[::17]:
            for x, y in zip(some.get(int(k)), full.get(int(k))):
                assert np.array_equal(x, y)
        # union of all buckets reproduces the full key set
        union_keys = sum(
            IndexReader(built_index["final_dir"], built_index["stats"],
                        buckets=list(range(s, cfg.num_buckets, 4))).keys.size
            for s in range(4)
        )
        assert union_keys == full.keys.size


def test_prf_topk_second_scale_oracle(ray_session):
    """prf_topk hash-verifies at sf0.01 in the contract sweep; this
    re-verifies the full expansion chain at sf0.001 (different corpus
    statistics exercise different expansion-term ties)."""
    import duckdb
    import pandas as pd

    from candidategeneration_ray.pipelines.docquery import q_prf_topk
    from candidategeneration_ray.pipelines.sql_oracles import core_oracles

    SF = "/root/testdata/sf0.001"
    got = q_prf_topk(SF).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.sql(core_oracles()["prf_topk"]).df()
    got = got.sort_values(["query_id", "rank"]).reset_index(drop=True)
    want = want.sort_values(["query_id", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64"), check_dtype=False)


def test_forward_export_conserves_postings(ray_session):
    """The transpose must conserve postings: Σ n_terms over docs ==
    Σ list lengths over terms, and per-doc term counts equal the
    tokenizer's distinct-term counts."""
    from candidategeneration_ray.pipelines.docquery import (
        q_forward_export, q_unigram_list_lengths)

    SF = "/root/testdata/sf0.001"
    fwd = q_forward_export(SF).to_pandas()
    lens = q_unigram_list_lengths(SF).to_pandas()
    assert fwd["n_terms"].sum() == lens["n"].sum()
    import pyarrow.parquet as pq
    from candidategeneration_ray.functions.tokenize import tokenize_text

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    want = {int(r.doc_id): len(set(tokenize_text(r.text)))
            for r in docs.itertuples()}
    got = dict(zip(fwd["doc_id"].astype(int), fwd["n_terms"].astype(int)))
    assert got == {d: n for d, n in want.items() if n > 0}


def test_doc_filter_algorithms_agree_and_respect_filter(ray_session):
    """The filtered index view serves identically under WAND / scalar
    WAND / TAAT, returns only allowed docs, and equals the unfiltered
    ranking restricted to the allowed set."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.pipelines.docquery import (
        DOC_QUERIES, build_documents_index)
    from candidategeneration_ray.state.queryengine import QueryEngine

    SF = "/root/testdata/sf0.001"
    cfg = EngineConfig(emit_pairs=False)
    built = build_documents_index(SF, cfg)
    meta = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "lang"])
    allowed = np.sort(meta.filter(pc.equal(meta.column("lang"), "en"))
                      .column("doc_id").to_numpy().astype(np.int64))
    eng_f = QueryEngine(built["final_dir"], built["stats"], cfg,
                        doc_filter_ref=allowed)
    eng = QueryEngine(built["final_dir"], built["stats"], cfg)
    aset = set(allowed.tolist())
    for _, q in DOC_QUERIES:
        w = eng_f.topk(q, k=10, algorithm="wand")
        assert eng_f.topk(q, k=10, algorithm="wand_scalar") == w
        assert eng_f.topk(q, k=10, algorithm="taat") == w
        assert all(d in aset for _, d in w)
        full = [(s, d) for s, d in eng.topk(q, k=10_000) if d in aset]
        assert w == full[:10]


def test_collapse_topk_invariants(ray_session):
    """Field collapsing at sf0.001: one doc per (query, source), ranks
    are 1..n in (score desc, doc_id asc) order, and each collapsed row
    is the best-scoring doc of its source within the query's full
    match set (cross-checked against uncollapsed TAAT)."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.docquery import (
        DOC_QUERIES, build_documents_index, q_collapse_topk)
    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.state.queryengine import IndexReader, taat_topk

    SF = "/root/testdata/sf0.001"
    t = q_collapse_topk(SF).to_pandas()
    assert not t.duplicated(["query_id", "source"]).any()
    built = build_documents_index(SF, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    meta = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "source"]).to_pandas()
    src_of = dict(zip(meta.doc_id, meta.source))
    for qid, text in DOC_QUERIES:
        sub = t[t.query_id == qid].sort_values("rank")
        if sub.empty:
            continue
        assert list(sub["rank"]) == list(range(1, len(sub) + 1))
        pairs = list(zip(sub["score"], sub["doc_id"]))
        assert pairs == sorted(pairs, key=lambda p: (-p[0], p[1]))
        full = taat_topk(reader, reader.query_term_ids(text), 1 << 60)
        best = {}
        for s, d in full:  # already (score desc, doc asc)
            best.setdefault(src_of[d], (s, d))
        for r in sub.itertuples():
            assert best[r.source] == (r.score, r.doc_id)


def test_mmr_topk_greedy_invariants(ray_session):
    """MMR at sf0.001: rank 1 equals the plain BM25 top-1, no doc
    repeats, and every later pick maximizes the marginal value over the
    remaining pool (recomputed brute-force per step with tokenize_text
    term sets)."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.pipelines.docquery import (
        DOC_QUERIES, MMR_PEN_W, MMR_POOL, MMR_REL_W, MMR_SIM_SCALE,
        build_documents_index, q_mmr_topk)
    from candidategeneration_ray.state.queryengine import IndexReader, taat_topk

    SF = "/root/testdata/sf0.001"
    t = q_mmr_topk(SF).to_pandas()
    assert not t.duplicated(["query_id", "doc_id"]).any()
    built = build_documents_index(SF, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    text_of = dict(zip(docs.doc_id, docs.text))
    for qid, qtext in DOC_QUERIES:
        sub = t[t.query_id == qid].sort_values("rank")
        if sub.empty:
            continue
        pool = taat_topk(reader, reader.query_term_ids(qtext), MMR_POOL)
        assert (sub.iloc[0].doc_id, sub.iloc[0].score) == (pool[0][1], pool[0][0])
        tsets = {d: set(tokenize_text(text_of[d])) for _, d in pool}
        chosen = []
        for r in sub.itertuples():
            vals = {}
            for s, d in pool:
                if d in chosen:
                    continue
                mo = max((len(tsets[d] & tsets[c]) for c in chosen), default=0)
                vals[d] = MMR_REL_W * s - MMR_PEN_W * MMR_SIM_SCALE * mo
            best = min((d for d in vals if vals[d] == max(vals.values())))
            assert (r.doc_id, r.mmr_value) == (best, vals[best])
            chosen.append(r.doc_id)


def test_hybrid_topk_invariants(ray_session):
    """Hybrid dense+sparse fusion at sf0.001: the dense seed (sparse
    rank-1 doc) wins final rank 1 (rank 1 in BOTH lists is unbeatable
    RRF mass), rrf_micro is brute-force-reproduced from the two
    rankings, and queries with no sparse matches produce no rows."""
    import numpy as np
    import pyarrow.parquet as pq

    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.pipelines.docquery import (
        DOC_QUERIES, HYBRID_POOL, HYBRID_RRF_C, build_documents_index,
        q_hybrid_topk)
    from candidategeneration_ray.state.queryengine import QueryEngine

    SF = "/root/testdata/sf0.001"
    t = q_hybrid_topk(SF).to_pandas()
    assert not t.duplicated(["query_id", "doc_id"]).any()
    built = build_documents_index(SF, EngineConfig(emit_pairs=False))
    eng = QueryEngine(built["final_dir"], built["stats"])
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    ids = emb.vec_id.to_numpy(np.int64)
    mat = np.stack(emb.embedding.to_numpy()).astype(np.float64)
    norms = np.linalg.norm(mat, axis=1)
    seen_nonempty = False
    for qid, qtext in DOC_QUERIES:
        sub = t[t.query_id == qid].sort_values("rank")
        hits = eng.topk(qtext, k=HYBRID_POOL)
        if not hits:
            assert sub.empty
            continue
        seen_nonempty = True
        sparse = [int(d) for _, d in hits]
        seed = sparse[0]
        qv = mat[ids == seed][0]
        cos = (mat @ qv) / (norms * np.linalg.norm(qv))
        dense = ids[np.lexsort((ids, -cos))][:HYBRID_POOL].tolist()
        assert dense[0] == seed          # cos(seed, seed) = 1 is the max
        score: dict[int, int] = {}
        for r, d in enumerate(sparse, 1):
            score[d] = score.get(d, 0) + 1_000_000 // (HYBRID_RRF_C + r)
        for r, d in enumerate(dense, 1):
            score[int(d)] = score.get(int(d), 0) + 1_000_000 // (HYBRID_RRF_C + r)
        top = sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        got = list(zip(sub.doc_id, sub.rrf_micro))
        assert got == top
        assert sub.iloc[0].doc_id == seed  # double rank-1 is unbeatable
    assert seen_nonempty


def test_bm25f_fielded_transform_and_ranking(ray_session):
    """BM25F at sf0.001: (a) the fielded token transform preserves term
    PRESENCE per doc (df unchanged) while inflating doc_len by exactly
    (W-1)*min(dl, H); (b) the fielded ranking actually differs from the
    unfielded one somewhere (the head weight is load-bearing); (c) the
    per-query result sets obey the engine's (score desc, doc asc) order."""
    import numpy as np

    from candidategeneration_ray.pipelines.docquery import (
        BM25F_HEAD, BM25F_WEIGHT, doc_tokens, doc_tokens_fielded,
        q_bm25_topk, q_bm25f_topk)

    SF = "/root/testdata/sf0.001"
    plain = doc_tokens(SF).to_pandas().set_index("doc_id")
    fielded = doc_tokens_fielded(SF).to_pandas().set_index("doc_id")
    assert set(plain.index) == set(fielded.index)
    for doc_id in list(plain.index)[:200]:
        p = list(plain.loc[doc_id, "tokens"])
        f = list(fielded.loc[doc_id, "tokens"])
        assert set(p) == set(f)  # presence (df) preserved
        exp_len = len(p) + (BM25F_WEIGHT - 1) * min(len(p), BM25F_HEAD)
        assert len(f) == exp_len == fielded.loc[doc_id, "doc_len"]
        # weighted tf: head tokens gain exactly W-1 extra copies
        head = p[:BM25F_HEAD]
        for tok in set(p):
            exp_tf = p.count(tok) + (BM25F_WEIGHT - 1) * head.count(tok)
            assert f.count(tok) == exp_tf

    base = q_bm25_topk(SF).to_pandas()
    fld = q_bm25f_topk(SF).to_pandas()
    # same queries produce results; scores must differ somewhere
    assert set(base.query_id) == set(fld.query_id)
    merged = base.merge(fld, on=["query_id", "rank"], suffixes=("_b", "_f"))
    assert (merged.score_b != merged.score_f).any()
    for qid, sub in fld.groupby("query_id"):
        sub = sub.sort_values("rank")
        s = sub.score.to_numpy(np.int64)
        d = sub.doc_id.to_numpy(np.int64)
        assert all((s[i] > s[i + 1]) or (s[i] == s[i + 1] and d[i] < d[i + 1])
                   for i in range(len(s) - 1))


def test_result_cache_lineage_invalidation(ray_session, tmp_path):
    """CachedEngine over a real LSM index: (a) fill then hit without an
    engine; (b) a delta generation changes the lineage digest so the
    same query MISSES and returns the updated results; (c) compaction
    changes it again but results stay equal to the post-delta truth."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import (
        compact_index, serving_sources, update_index)
    from candidategeneration_ray.sources.transcripts import (
        generate_transcripts, write_transcripts)
    from candidategeneration_ray.state.resultcache import CachedEngine, index_digest

    src = write_transcripts(str(tmp_path / "tr"), num_convs=60, seed=11)
    out = str(tmp_path / "idx")
    res = build_index(src, out, partitions=2)
    root = str(tmp_path / "cache")
    q = "query engine latency"

    fill = CachedEngine(res["final_dir"], res["stats"], root)
    base = fill.topk(q, k=5)
    assert (fill.misses, fill.hits) == (1, 0)

    def _boom():
        raise AssertionError("hit path constructed an engine")
    hit = CachedEngine(res["final_dir"], res["stats"], root, engine_factory=_boom)
    assert hit.topk(q, k=5) == base and hit.hits == 1
    # different k = different key (cold), so the factory must fire
    try:
        hit.topk(q, k=3)
        raise AssertionError("expected engine construction for new k")
    except AssertionError as e:
        assert "hit path" in str(e)

    # delta: new conversations under a fresh prefix
    t = generate_transcripts(10, seed=23)
    t = t.set_column(
        t.schema.get_field_index("conv_id"), "conv_id",
        pc.binary_join_element_wise(
            pa.array(["zd"] * len(t)), t.column("conv_id"), "-"))
    os.makedirs(str(tmp_path / "delta"), exist_ok=True)
    pq.write_table(t, str(tmp_path / "delta" / "p0.parquet"))
    upd = update_index(out, str(tmp_path / "delta"))
    assert index_digest(upd["sources"]) != index_digest(res["final_dir"])

    upd_eng = CachedEngine(upd["sources"], upd["stats"], root)
    post = upd_eng.topk(q, k=5)
    assert upd_eng.misses == 1  # new lineage -> cold key
    compact_index(out)
    comp = CachedEngine(serving_sources(out), upd["stats"], root)
    assert comp.topk(q, k=5) == post and comp.misses == 1


class TestHardNegatives:
    def test_triple_structure(self, ray_session):
        from candidategeneration_ray.pipelines.docquery import (
            q_bm25_topk, q_hard_negatives)

        sf = "/root/testdata/sf0.01"
        got = q_hard_negatives(sf).to_pandas()
        assert len(got) > 0
        # same ranking => pos always scores >= neg
        assert (got["margin"] >= 0).all()
        assert (got["pos_rank"] <= 3).all()
        assert got["neg_rank"].between(11, 20).all()
        # positives agree with the exact top-k entry's top-3
        top = q_bm25_topk(sf).to_pandas()
        for qid, grp in got.groupby("query_id"):
            want_pos = set(top[(top.query_id == qid) & (top["rank"] <= 3)]
                           ["doc_id"])
            assert set(grp["pos_doc_id"]) <= want_pos
            # a doc is never both positive and negative for one query
            assert not (set(grp["pos_doc_id"]) & set(grp["neg_doc_id"]))


class TestPassageMaxP:
    def test_best_passage_beats_length(self, ray_session, tmp_path):
        """A doc whose FIRST 32-token chunk is identical to a short
        relevant doc ties it on best-passage score no matter how much
        unrelated tail follows — the MaxP property (doc-level BM25
        would bury the long doc under its dl penalty)."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.docquery import (
            q_passage_bm25_topk)

        chunk = ["batch"] * 4 + [f"filler{chr(97 + i)}x" for i in range(28)]
        tail = [f"noise{chr(97 + i // 26)}{chr(97 + i % 26)}"
                for i in range(320)]
        t = pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array([
                " ".join(chunk),                  # short relevant doc
                " ".join(chunk + tail),           # same best passage + tail
                " ".join(tail[:64]),              # irrelevant
            ], pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        got = q_passage_bm25_topk(d).to_pandas()
        g5 = got[got.query_id == 5].sort_values("rank")   # query "batch"
        assert g5["doc_id"].tolist()[:2] == [0, 1]
        s = g5.set_index("doc_id")["score"]
        assert s[0] == s[1]                      # identical best passages tie
        assert 2 not in set(g5["doc_id"])        # no query term, no score

    def test_chunk_packing_failfast(self, ray_session, tmp_path):
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq
        import pytest

        from candidategeneration_ray.pipelines.docquery import build_chunk_index

        toks = [f"w{chr(97 + i % 26)}{chr(97 + (i // 26) % 26)}"
                f"{chr(97 + (i // 676) % 26)}" for i in range(1024 * 32 + 32)]
        t = pa.table({
            "doc_id": pa.array([0], pa.int64()),
            "text": pa.array([" ".join(toks)], pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        with pytest.raises(Exception, match="packing overflow"):
            build_chunk_index(d)


class TestLtrRerankAndAgreement:
    def test_rerank_is_pool_permutation(self, ray_session):
        from candidategeneration_ray.pipelines.docquery import (
            LTR_WEIGHTS, q_ltr_features, q_ltr_rerank_topk)

        sf = "/root/testdata/sf0.01"
        feat = q_ltr_features(sf).to_pandas()
        got = q_ltr_rerank_topk(sf).to_pandas()
        for qid, grp in got.groupby("query_id"):
            pool = feat[feat.query_id == qid]
            # reranked docs come from the feature pool
            assert set(grp["doc_id"]) <= set(pool["doc_id"])
            # scores recompute from the weight vector
            fs = pool.set_index("doc_id")
            for _, r in grp.iterrows():
                want = sum(w * int(fs.loc[r["doc_id"], c])
                           for c, w in LTR_WEIGHTS.items())
                assert r["ltr_score"] == want
            s = grp.sort_values("rank")["ltr_score"].to_numpy()
            assert (np.diff(s) <= 0).all()

    def test_agreement_monotone_and_bounded(self, ray_session):
        from candidategeneration_ray.pipelines.docquery import (
            q_ranking_agreement)

        got = q_ranking_agreement("/root/testdata/sf0.01").to_pandas()
        for qid, grp in got.groupby("query_id"):
            g = grp.sort_values("depth")
            n = g["n_common"].to_numpy()
            d = g["depth"].to_numpy()
            assert (n <= d).all()
            assert (np.diff(n) >= 0).all()     # prefix intersection grows


class TestQppAndPooling:
    def test_qpp_invariants(self, ray_session):
        from candidategeneration_ray.pipelines.docquery import (
            q_query_difficulty)

        got = q_query_difficulty("/root/testdata/sf0.01").to_pandas()
        assert len(got) > 0
        assert (got["min_df"] <= got["max_df"]).all()
        assert (got["scope"] >= got["max_df"]).all()   # union >= largest list
        assert (got["topk_n"] <= 10).all()
        # Cauchy-Schwarz: n*ss >= sum^2 (variance nonneg)
        n, s, ss = (got["topk_n"].astype(object), got["score_sum"].astype(object),
                    got["score_ss"].astype(object))
        assert ((n * ss - s * s) >= 0).all()

    def test_pool_union_semantics(self, ray_session):
        from candidategeneration_ray.pipelines.docquery import (
            q_bm25_topk, q_judgment_pool)

        sf = "/root/testdata/sf0.01"
        pool = q_judgment_pool(sf).to_pandas()
        assert pool["n_systems"].between(1, 4).all()
        bm = q_bm25_topk(sf).to_pandas()
        bm_pairs = set(zip(bm["query_id"], bm["doc_id"]))
        pool_pairs = set(zip(pool["query_id"], pool["doc_id"]))
        assert bm_pairs <= pool_pairs          # every system's top-10 pooled
        assert (pool["n_systems"] >= 3).any()  # cross-system consensus exists


class _FakeReader:
    """Dict-backed IndexReader stand-in for the TA property test:
    provides exactly the surface ta_impact_topk touches."""

    def __init__(self, lists):
        # lists: {tid: (docs int64 asc, scores int32)}
        self._lists = {}
        for tid, (d, s) in lists.items():
            d = np.asarray(d, np.int64)
            s = np.asarray(s, np.int32)
            bs = 4
            nb = (d.size + bs - 1) // bs
            bmax = np.array([s[i*bs:(i+1)*bs].max() for i in range(nb)],
                            np.int32)
            blast = np.array([d[min((i+1)*bs, d.size)-1]
                              for i in range(nb)], np.int64)
            self._lists[tid] = (d, s, bmax, blast)
        self._impact = {}

    def get(self, tid):
        return self._lists.get(tid)

    def impact_order(self, tid):
        d, s, _, _ = self._lists[tid]
        return np.lexsort((d, -s.astype(np.int64))).astype(np.int32)

    def dense_view(self, tid):
        return None   # force the searchsorted probe path


def test_ta_impact_property_random_lists():
    """ta_impact == brute-force TAAT on randomized signed lists with
    heavy ties — positive, negative, mixed and rare + hot regimes,
    several k. Rare + hot is the mix the dispatch sends here: one
    short positive list (often shorter than k) beside one or two long
    all-non-positive lists over a dense doc space."""
    from candidategeneration_ray.state.queryengine import ta_impact_topk

    rng = np.random.default_rng(7)
    for trial in range(60):
        regime = trial % 4
        lists = {}
        if regime == 3:          # rare + hot
            m = int(rng.integers(1, 80))
            lists[1] = (np.sort(rng.choice(2000, size=m, replace=False)),
                        rng.integers(1, 40, m).astype(np.int32))
            for t in range(int(rng.integers(1, 3))):
                h = int(rng.integers(1000, 2000))
                lists[t + 2] = (
                    np.sort(rng.choice(2000, size=h, replace=False)),
                    -rng.integers(0, 6, h).astype(np.int32))
        else:
            for t in range(int(rng.integers(1, 5))):
                m = int(rng.integers(1, 400))
                docs = np.sort(rng.choice(2000, size=m, replace=False))
                if regime == 0:      # all positive
                    scores = rng.integers(1, 20, m)
                elif regime == 1:    # all non-positive (the heavy TA mix)
                    scores = -rng.integers(0, 20, m)
                else:                # signed mix
                    scores = rng.integers(-15, 15, m)
                lists[t + 1] = (docs, scores.astype(np.int32))
        reader = _FakeReader(lists)
        # brute force totals
        acc = {}
        for d, s, _, _ in reader._lists.values():
            for dd, ss in zip(d, s):
                acc[int(dd)] = acc.get(int(dd), 0) + int(ss)
        want_order = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
        for k in (1, 3, 10, 57):
            got = ta_impact_topk(reader, list(lists), k)
            want = [(s, d) for d, s in want_order[:k]]
            assert got == want, (trial, k)


def test_ta_impact_stops_only_when_bound_is_below_theta():
    """After the first round (a 1,024-posting impact prefix per list)
    theta is 10 (doc 9000) and the bound is 5 + 5 = 10: the unexplored
    doc 1050 scores 5 in each list and ties theta with a smaller doc
    id, so the search must go on (bound < theta, strict). Stopping at
    bound <= theta, or bounding by the largest next score alone
    (5 < 10), answers doc 9000."""
    from candidategeneration_ray.state.queryengine import ta_impact_topk

    a_docs = np.concatenate(([9000], np.arange(1, 1101)))
    a_scores = np.concatenate(([10], np.full(1100, 5)))
    o = np.argsort(a_docs)
    b_docs = np.concatenate(([1050, 9000], np.arange(20000, 21024)))
    b_scores = np.concatenate(([5, 0], np.full(1024, 6)))
    reader = _FakeReader({1: (a_docs[o], a_scores[o]),
                          2: (b_docs, b_scores)})
    assert ta_impact_topk(reader, [1, 2], 1) == [(10, 1050)]


def test_taat_dense_equals_sparse_paths(monkeypatch):
    """The bincount scatter-add TAAT merge must equal the sort-merge
    fallback exactly (float64 accumulation exactness bound) across
    random signed lists; the fallback is forced via the dense cap."""
    import candidategeneration_ray.state.queryengine as qe

    rng = np.random.default_rng(13)
    for trial in range(25):
        lists = {}
        for t in range(int(rng.integers(2, 5))):
            m = int(rng.integers(1, 300))
            docs = np.sort(rng.choice(5000, size=m, replace=False))
            scores = rng.integers(-(2**30), 2**30, m).astype(np.int32)
            lists[t + 1] = (docs, scores)
        reader = _FakeReader(lists)
        for k in (1, 5, 40):
            dense = qe.taat_topk(reader, list(lists), k)
            monkeypatch.setattr(qe, "TAAT_DENSE_MAX_DOC", -1)
            sparse = qe.taat_topk(reader, list(lists), k)
            monkeypatch.setattr(qe, "TAAT_DENSE_MAX_DOC", 1 << 26)
            assert dense == sparse, (trial, k)
