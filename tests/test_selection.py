"""Predictive layer (Q1-Q6): quality model, greedy selection, top-layer
extraction, model-guided candidate generation, and the reference's Q6
coverage-bitmask merge as the oracle of predictive_candidates."""

import numpy as np
import pytest

from candidategeneration_ray.state.queryengine import IndexReader, QueryEngine
from candidategeneration_ray.state.selection import (
    QualityModel, bucket_of, build_quality_model, extract_top_layer,
    geometric_buckets, greedy_select_chunks, online_depth_selection,
    predictive_candidates,
)

QUERY_TEXTS = [
    "query engine latency", "data worker", "index shard model",
    "cluster dataset engine", "rareterma data", "model kernel vector actor",
    "agenting batching", "alpha beta gamma", "1003 shard",
]


@pytest.fixture(scope="module")
def setup(built_index, oracle_small):
    eng = QueryEngine(built_index["final_dir"], built_index["stats"])
    reader = eng.reader
    keysets, gts = [], []
    for q in QUERY_TEXTS:
        ids = reader.query_term_ids(q)
        keysets.append(reader.augmented_keys(ids))
        gts.append([d for _, d in eng.topk(q, k=10)])
    model = build_quality_model(reader, keysets, gts)
    return reader, eng, keysets, gts, model


class TestBuckets:
    def test_geometric_buckets_reference_rule(self):
        # len rule: 4, i += i*1.1 → 4, 8, 16, 33, ... (Selection.java:36-41)
        b = geometric_buckets(4, 1.1, 100)
        assert b[0] == 4 and b[1] == 8 and b[-1] == 100
        # rank rule: 11, i += i*1.4 → 11, 26, 62, ...
        r = geometric_buckets(11, 1.4, 1000)
        assert r[0] == 11 and r[1] == 26 and r[2] == 62

    def test_bucket_of(self):
        b = np.array([4, 8, 16, 100])
        assert bucket_of(1, b) == 0
        assert bucket_of(4, b) == 0
        assert bucket_of(5, b) == 1
        assert bucket_of(100, b) == 3


class TestQualityModel:
    def test_probabilities_valid_and_monotone(self, setup):
        _, _, _, _, model = setup
        for fam in (False, True):
            p = model.prob[fam]
            assert (p >= 0).all() and (p <= 1).all()
            assert (np.diff(p, axis=1) >= -1e-12).all(), "CDF monotone in depth"

    def test_model_has_signal(self, setup):
        # ground-truth docs score high → they appear in early prefixes of
        # the query's own lists → deepest bucket prob must be positive
        _, _, _, _, model = setup
        assert model.prob[False][:, -1].max() > 0


def coverage_bitmask_candidates(
    reader: IndexReader,
    model: QualityModel,
    term_ids: list[int],
    budget_postings: int = 2000,
    num_candidates: int = 10,
) -> list[tuple[int, int]]:
    """Q6 reference: the reference's merge shape (algo_toplayer.cpp
    Vec_Merge :300-338 + the nextGEQ patch phase :935-976). Accumulate
    partial scores from the selected UNIGRAM prefixes with a per-term
    coverage bitmask, then for every candidate doc patch each UNCOVERED
    term with a point lookup into its full list (skipped when the doc
    is outside the list's range — the lookupPruningTable analog)."""
    keys = reader.augmented_keys(term_ids)
    depths = online_depth_selection(keys, reader, model, budget_postings)
    uni_terms = sorted(set(term_ids))
    bit_of = {t: i for i, t in enumerate(uni_terms)}

    # candidate pool = union of ALL selected prefixes (pairs contribute
    # docs only — their combined score is reconstructed per term by the
    # patch lookups, as the reference does)
    if not depths:
        return []
    pool = reader.top_layer_docs(list(depths), list(depths.values()))

    score = np.zeros(pool.size, dtype=np.int64)
    covered = np.zeros(pool.size, dtype=np.int64)  # bitmask per doc
    # partial scores + coverage bits from unigram prefixes
    for key, depth in depths.items():
        if key >= (1 << 32):
            continue
        docs, scs = reader.top_layer(key, depth)
        pos = np.searchsorted(pool, docs)
        pos_c = np.minimum(pos, pool.size - 1)
        valid = pool[pos_c] == docs
        bit = 1 << bit_of[int(key)]
        score[pos_c[valid]] += scs[valid].astype(np.int64)
        covered[pos_c[valid]] |= bit

    # patch phase: per uncovered (doc, term), nextGEQ point lookup
    for t in uni_terms:
        got = reader.get(int(t))
        if got is None:
            continue
        docs, scs, _, _ = got
        bit = 1 << bit_of[t]
        need = (covered & bit) == 0
        if not need.any():
            continue
        targets = pool[need]
        # lookup pruning: docs outside the list's range cannot hit
        in_range = (targets >= docs[0]) & (targets <= docs[-1])
        if not in_range.any():
            continue
        pos = np.searchsorted(docs, targets[in_range])
        pos_c = np.minimum(pos, docs.size - 1)
        hit = docs[pos_c] == targets[in_range]
        idx = np.nonzero(need)[0][np.nonzero(in_range)[0][hit]]
        score[idx] += scs[pos_c[hit]].astype(np.int64)

    order = np.lexsort((pool, -score))[:num_candidates]
    return [(int(score[i]), int(pool[i])) for i in order]


class TestCoverageBitmaskMerge:
    def test_bitmask_merge_equals_pool_taat(self, setup):
        """The reference-faithful coverage-bitmask merge + nextGEQ
        patch (Q6, coverage_bitmask_candidates above) must equal the
        pool-restricted exact TAAT of predictive_candidates — the
        differential proof behind the documented deviation."""
        reader, eng, keysets, gts, model = setup
        checked = 0
        for q in QUERY_TEXTS:
            ids = reader.query_term_ids(q)
            if not ids:
                continue
            a = predictive_candidates(reader, model, ids, 3000, 10)
            b = coverage_bitmask_candidates(reader, model, ids, 3000, 10)
            assert a == b, q
            checked += 1
        assert checked >= 5


class TestExternalGroundTruth:
    def test_gt_parquet_roundtrip(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.docquery import load_ground_truth

        p = str(tmp_path / "gt.parquet")
        pq.write_table(pa.table({
            "query_id": pa.array([1, 0, 1, 0], pa.int64()),
            "doc_id": pa.array([7, 3, 9, 5], pa.int64()),
            "rank": pa.array([2, 1, 1, 2], pa.int64()),
        }), p)
        gt = load_ground_truth(p)
        assert gt == {0: [3, 5], 1: [9, 7]}

    def test_perturbed_gt_moves_the_model(self, ray_session, tmp_path):
        """Training on external (perturbed) GT must change the quality
        matrices vs self-GT — proves the external hook actually drives
        training (reference NestedQueryTrace complex-ranker GT)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.docquery import (
            DOC_QUERIES, _predictive_setup)

        sf = "/root/testdata/sf0.001"
        _, self_model = _predictive_setup(sf)
        # perturbed GT: docs unlikely to sit at the top of impact lists
        rows_q, rows_d, rows_r = [], [], []
        for qid, _ in DOC_QUERIES:
            for r in range(1, 11):
                rows_q.append(qid)
                rows_d.append(400 + 13 * r + qid)  # arbitrary mid-corpus docs
                rows_r.append(r)
        p = str(tmp_path / "gt.parquet")
        pq.write_table(pa.table({
            "query_id": pa.array(rows_q, pa.int64()),
            "doc_id": pa.array(rows_d, pa.int64()),
            "rank": pa.array(rows_r, pa.int64()),
        }), p)
        _, ext_model = _predictive_setup(sf, gt_path=p)
        moved = any(
            not np.array_equal(self_model.prob[fam], ext_model.prob[fam])
            for fam in (False, True)
        )
        assert moved
        # still a valid monotone CDF
        for fam in (False, True):
            pm = ext_model.prob[fam]
            assert (pm >= 0).all() and (pm <= 1).all()
            assert (np.diff(pm, axis=1) >= -1e-12).all()


class TestGreedySelection:
    def test_budget_respected_and_chunks_valid(self, setup):
        reader, _, keysets, _, model = setup
        access = {}
        for keys in keysets:
            for k in keys:
                access[k] = access.get(k, 0) + 1
        sel = greedy_select_chunks(reader, model, access, budget_postings=500)
        total = sum(sel.values())
        assert 0 < total <= 500
        for k, depth in sel.items():
            assert 0 < depth <= reader.list_len(k)

    def test_top_layer_extraction(self, setup):
        reader, _, keysets, _, model = setup
        access = {k: 1 for keys in keysets for k in keys}
        sel = greedy_select_chunks(reader, model, access, budget_postings=300)
        layer = extract_top_layer(reader, sel)
        for k, (docs, scores) in layer.items():
            assert docs.size == min(sel[k], reader.list_len(k))
            assert np.all(np.diff(scores) <= 0), "impact-ordered"

    def test_online_selection_budget(self, setup):
        reader, _, keysets, _, model = setup
        depths = online_depth_selection(keysets[0], reader, model, 200)
        assert sum(depths.values()) <= 200


class TestPredictiveCandidates:
    def test_recall_vs_exact_topk(self, setup):
        """With a generous budget the model-guided pool must recover
        most of the exact top-10 (candidate generation quality)."""
        reader, eng, keysets, gts, model = setup
        recalls = []
        for q, gt in zip(QUERY_TEXTS, gts):
            if not gt:
                continue
            ids = reader.query_term_ids(q)
            cands = predictive_candidates(reader, model, ids,
                                          budget_postings=3000,
                                          num_candidates=10)
            got = {d for _, d in cands}
            recalls.append(len(got & set(gt)) / len(gt))
        assert np.mean(recalls) >= 0.8, recalls

    def test_candidate_scores_are_exact(self, setup):
        """Pool members are scored with the same quantized sums as the
        exact engine (the 'patch-complete' scoring contract)."""
        reader, eng, _, _, model = setup
        q = "query engine latency"
        ids = reader.query_term_ids(q)
        cands = predictive_candidates(reader, model, ids, 5000, 10)
        exact = {d: s for s, d in eng.topk(q, k=10_000)}
        for s, d in cands:
            assert exact[d] == s


def test_retrieval_eval_invariants(ray_session):
    """Eval stats internally consistent and consistent with a direct
    set comparison of the two underlying pipelines."""
    from candidategeneration_ray.pipelines.docquery import (
        q_bm25_topk, q_predictive_candidates, q_retrieval_eval)

    sf = "/root/testdata/sf0.001"
    ev = q_retrieval_eval(sf).to_pandas()
    assert len(ev) > 0 and ev["query_id"].is_unique
    assert ev["hits_at_10"].between(0, 10).all()
    assert ((ev["first_rel_rank"] == 0)
            | (ev["first_rel_rank"] <= ev["n_candidates"])).all()
    # a query with any top-10 hit must have a first relevant rank
    assert ((ev["hits_at_10"] == 0)
            | (ev["first_rel_rank"] >= 1)).all()

    cand = q_predictive_candidates(sf).to_pandas()
    rel = q_bm25_topk(sf).to_pandas()
    for q in ev["query_id"]:
        c = cand[cand["query_id"] == q]
        r = set(rel[rel["query_id"] == q]["doc_id"])
        row = ev[ev["query_id"] == q].iloc[0]
        hits10 = len(set(c[c["rank"] <= 10]["doc_id"]) & r)
        assert int(row["hits_at_10"]) == hits10
        relranks = c[c["doc_id"].isin(r)]["rank"]
        assert int(row["first_rel_rank"]) == (
            int(relranks.min()) if len(relranks) else 0)
