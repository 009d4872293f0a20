"""Positional family + phrase query tests."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from candidategeneration_ray.functions.tokenize import tokenize_text
from candidategeneration_ray.pipelines import positional as ps
from candidategeneration_ray.state import checkpoint as ckpt

SF = "/root/testdata/sf0.001"


def _write_docs(tmp_path, texts):
    d = str(tmp_path / "corpus")
    os.makedirs(d, exist_ok=True)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(100, 100 + len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), os.path.join(d, "documents.parquet"))
    return d


def _brute(texts, phrase):
    """(doc_id, n_occurrences) by scanning kept-token windows."""
    want = {}
    ptoks = tokenize_text(phrase)
    for i, text in enumerate(texts):
        toks = tokenize_text(text)
        n = sum(
            toks[j:j + len(ptoks)] == ptoks
            for j in range(len(toks) - len(ptoks) + 1)
        )
        if n:
            want[100 + i] = n
    return want


class TestPhrasePostings:
    def test_bruteforce_including_overlaps(self, ray_session, tmp_path):
        texts = [
            "alpha beta gamma alpha beta",          # 2x "alpha beta"
            "beta alpha beta alpha beta alpha",     # overlapping repeats
            "alpha alpha alpha alpha",              # repeated-term phrase
            "the alpha of beta",                    # stopwords removed -> adjacent
            "gamma delta",                          # no match
            "",                                     # empty doc
        ]
        d = _write_docs(tmp_path, texts)
        phrases = [(0, "alpha beta"), (1, "alpha alpha"), (2, "beta alpha beta"),
                   (3, "nosuchword beta")]
        got = ps.q_phrase_postings(d, phrases=phrases).to_pandas()
        for pid, phrase in phrases:
            sub = got[got["phrase_id"] == pid]
            assert dict(zip(sub["doc_id"], sub["n_occurrences"])) == \
                _brute(texts, phrase), phrase

    def test_overlap_counting_is_sliding(self, ray_session, tmp_path):
        # "ab ab ab ab" contains "ab ab" 3 times (overlaps count)
        d = _write_docs(tmp_path, ["ab ab ab ab"])
        got = ps.q_phrase_postings(d, phrases=[(0, "ab ab")]).to_pandas()
        assert got["n_occurrences"].tolist() == [3]

    def test_stopword_only_and_unmapped_phrases_empty(self, ray_session, tmp_path):
        d = _write_docs(tmp_path, ["alpha beta gamma"])
        got = ps.q_phrase_postings(
            d, phrases=[(0, "the and of"), (1, "zz qq")]).to_pandas()
        assert len(got) == 0
        assert list(got.columns) == ["phrase_id", "doc_id", "n_occurrences"]

    def test_single_term_phrase_is_tf(self, ray_session, tmp_path):
        texts = ["alpha beta alpha", "beta beta", "alpha"]
        d = _write_docs(tmp_path, texts)
        got = ps.q_phrase_postings(d, phrases=[(0, "alpha")]).to_pandas()
        assert dict(zip(got["doc_id"], got["n_occurrences"])) == \
            {100: 2, 102: 1}


class TestFamilyBuild:
    def test_resume_skips_rebuild(self, ray_session, tmp_path):
        d = _write_docs(tmp_path, ["alpha beta", "beta gamma"])
        r1 = ps.build_positional_family(d)
        mtimes = {
            f: os.path.getmtime(os.path.join(r1["final_dir"], f))
            for f in os.listdir(r1["final_dir"])
        }
        r2 = ps.build_positional_family(d)
        assert r2["final_dir"] == r1["final_dir"]
        assert mtimes == {
            f: os.path.getmtime(os.path.join(r1["final_dir"], f))
            for f in os.listdir(r1["final_dir"])
        }

    def test_segment_roundtrip_matches_tokenizer(self, ray_session):
        """Decode every (term, doc) position list of a few sf0.001 terms
        and compare with positions recomputed from the raw text."""
        import glob

        from candidategeneration_ray.functions.varint import (
            decode_delta_concat, varint_decode)
        from candidategeneration_ray.pipelines.docquery import corpus_stats

        fam = ps.build_positional_family(SF)
        stats = corpus_stats(SF)
        check_terms = ["query", "join", "batch"]
        tids = {t: ps.phrase_term_ids(stats, t)[0] for t in check_terms}

        raw = pq.read_table(os.path.join(SF, "documents.parquet"),
                            columns=["doc_id", "text"])
        want = {t: {} for t in check_terms}
        for doc_id, text in zip(raw.column("doc_id").to_pylist(),
                                raw.column("text").to_pylist()):
            toks = tokenize_text(text)
            for t in check_terms:
                p = [i + 1 for i, x in enumerate(toks) if x == t]
                if p:
                    want[t][doc_id] = p

        seg = pq.read_table(
            sorted(glob.glob(os.path.join(fam["final_dir"], "*.parquet"))),
            filters=[("key", "in", list(tids.values()))])
        assert seg.num_rows == len(check_terms)
        for row in range(seg.num_rows):
            key = seg.column("key")[row].as_py()
            term = next(t for t, i in tids.items() if i == key)
            counts = varint_decode(seg.column("counts")[row].as_py()).astype(np.int64)
            docs = decode_delta_concat(
                seg.column("docs")[row].as_py(),
                np.array([counts.size]))[0].astype(np.int64)
            posv, off = decode_delta_concat(seg.column("pos")[row].as_py(), counts)
            got = {
                int(docs[i]): posv[off[i]:off[i + 1]].astype(int).tolist()
                for i in range(docs.size)
            }
            assert got == want[term], term
            assert seg.column("n")[row].as_py() == len(want[term])


class TestProximityDocs:
    @staticmethod
    def _brute(texts, terms, W):
        want = {}
        terms = sorted(set(terms))
        for i, text in enumerate(texts):
            toks = tokenize_text(text)
            pos = {t: [j + 1 for j, x in enumerate(toks) if x == t]
                   for t in terms}
            anchors = sorted(p for t in terms for p in pos[t])
            n = sum(
                all(any(a <= p < a + W for p in pos[t]) for t in terms)
                for a in anchors
            )
            if n:
                want[100 + i] = n
        return want

    def test_bruteforce_window_boundary(self, ray_session, tmp_path):
        texts = [
            "alpha xx xx beta",          # gap 3: inside W=4 exactly
            "alpha xx xx xx beta",       # gap 4: outside W=4
            "beta alpha",                # reversed order still counts
            "alpha beta alpha",          # multiple anchors
            "alpha only here",
        ]
        d = _write_docs(tmp_path, texts)
        qs = [(0, "alpha beta")]
        got = ps.q_proximity_docs(d, window=4, queries=qs).to_pandas()
        assert dict(zip(got["doc_id"], got["n_anchors"])) == \
            self._brute(texts, ["alpha", "beta"], 4)
        # doc 100 matches (max gap W-1), doc 101 must not
        assert 100 in set(got["doc_id"]) and 101 not in set(got["doc_id"])

    def test_three_terms_and_repeated_query_term(self, ray_session, tmp_path):
        texts = [
            "aa bb cc",
            "aa xx bb xx xx cc",         # span 6 > W=5
            "cc bb aa",
            "aa bb xx cc aa bb cc",
        ]
        d = _write_docs(tmp_path, texts)
        got = ps.q_proximity_docs(
            d, window=5, queries=[(0, "aa bb cc"), (1, "aa aa bb")]).to_pandas()
        for qid, terms in [(0, ["aa", "bb", "cc"]), (1, ["aa", "bb"])]:
            sub = got[got["query_id"] == qid]
            assert dict(zip(sub["doc_id"], sub["n_anchors"])) == \
                self._brute(texts, terms, 5), qid

    def test_unmapped_term_query_empty(self, ray_session, tmp_path):
        d = _write_docs(tmp_path, ["alpha beta"])
        got = ps.q_proximity_docs(
            d, queries=[(0, "alpha zzqq")]).to_pandas()
        assert len(got) == 0


class TestPositionalLsm:
    def _setup(self, tmp_path):
        """Base corpus + a delta that reuses old terms AND introduces a
        brand-new term (exercises the appended dictionary)."""
        base_texts = ["alpha beta gamma", "beta gamma alpha beta"]
        delta_texts = ["alpha beta newword", "newword alpha", "gamma beta"]
        base = _write_docs(tmp_path / "b", base_texts)
        # delta doc ids must be new: write with shifted ids
        ddir = str(tmp_path / "d")
        os.makedirs(ddir, exist_ok=True)
        pq.write_table(pa.table({
            "doc_id": pa.array(range(500, 500 + len(delta_texts)), pa.int64()),
            "text": pa.array(delta_texts, pa.string()),
        }), os.path.join(ddir, "documents.parquet"))
        # the full-corpus twin for ground truth
        full = str(tmp_path / "f")
        os.makedirs(full, exist_ok=True)
        pq.write_table(pa.table({
            "doc_id": pa.array(
                list(range(100, 100 + len(base_texts)))
                + list(range(500, 500 + len(delta_texts))), pa.int64()),
            "text": pa.array(base_texts + delta_texts, pa.string()),
        }), os.path.join(full, "documents.parquet"))
        return base, ddir, full

    @staticmethod
    def _serve(dirs, stats, phrases):
        from candidategeneration_ray.config import EngineConfig

        import ray as _ray

        cfg = EngineConfig()
        futs = []
        for pid, phrase in phrases:
            tids = ps.phrase_term_ids(stats, phrase)
            if tids is None:
                continue
            futs.append(ps._phrase_task.remote(dirs, pid, tids,
                                               cfg.num_buckets))
        parts = [p.to_pandas() for p in _ray.get(futs) if p.num_rows]
        import pandas as pd

        if not parts:
            return []
        df = pd.concat(parts).sort_values(
            ["phrase_id", "doc_id"]).reset_index(drop=True)
        return [tuple(r) for r in df.itertuples(index=False)]

    def test_delta_then_compaction_equals_full_build(self, ray_session, tmp_path):
        base, ddir, full = self._setup(tmp_path)
        phrases = [(0, "alpha beta"), (1, "newword alpha"),
                   (2, "beta gamma"), (3, "alpha beta newword")]

        fam = ps.build_positional_family(base)
        root = os.path.dirname(fam["final_dir"])
        upd = ps.update_positional_family(root, fam["stats"], ddir)

        # ground truth: a one-shot family over the union corpus
        want = ps.q_phrase_postings(full, phrases=phrases).to_pandas()
        want = [tuple(r) for r in want.itertuples(index=False)]

        pre = self._serve(ps.family_serving_dirs(root), upd["stats"], phrases)
        assert pre == want                      # generational serving
        assert len(ps.family_serving_dirs(root)) == 2

        folded = ps.compact_positional_family(root)
        assert folded == 1
        dirs = ps.family_serving_dirs(root)
        assert dirs == [os.path.join(root, "final-0001")]
        assert self._serve(dirs, upd["stats"], phrases) == want

    def test_crash_window_folded_gens_excluded(self, ray_session, tmp_path):
        """If compaction wrote ACTIVE.json but the folded generation
        dir still exists (crash before cleanup), it must not serve."""
        base, ddir, full = self._setup(tmp_path)
        fam = ps.build_positional_family(base)
        root = os.path.dirname(fam["final_dir"])
        upd = ps.update_positional_family(root, fam["stats"], ddir)
        gen = upd["gen_dir"]
        ps.compact_positional_family(root)
        # resurrect the folded generation dir as a crash leftover
        os.makedirs(os.path.join(gen, "x"), exist_ok=True)
        with open(os.path.join(gen, ckpt.MANIFEST), "w") as f:
            f.write("{}")
        dirs = ps.family_serving_dirs(root)
        assert all(os.path.basename(gen) not in d for d in dirs)

    def test_folded_name_list_raises(self, ray_session, tmp_path):
        """An ACTIVE.json from the older layout (a `folded` name list)
        is refused by update and compaction."""
        import json

        base, ddir, _ = self._setup(tmp_path)
        fam = ps.build_positional_family(base)
        root = os.path.dirname(fam["final_dir"])
        with open(os.path.join(root, "ACTIVE.json"), "w") as f:
            json.dump({"final": "final", "folded": ["gen-0001"]}, f)
        with pytest.raises(ValueError, match="rebuild"):
            ps.update_positional_family(root, fam["stats"], ddir)
        with pytest.raises(ValueError, match="rebuild"):
            ps.compact_positional_family(root)

    def test_torn_manifest_write_invisible(self, ray_session, tmp_path,
                                           torn_generation_manifest):
        """A generation whose manifest write was cut off half way must
        not serve: only the base final is listed. The next compaction
        removes the torn generation, its parquet files and its
        MANIFEST.json.tmp included."""
        base, ddir, _ = self._setup(tmp_path)
        fam = ps.build_positional_family(base)
        root = os.path.dirname(fam["final_dir"])
        with pytest.raises(OSError, match="interrupted"):
            ps.update_positional_family(root, fam["stats"], ddir)
        torn = glob.glob(os.path.join(root, "gen-*"))
        assert len(torn) == 1
        assert glob.glob(os.path.join(torn[0], "*.parquet"))
        assert os.path.exists(os.path.join(torn[0], ckpt.MANIFEST + ".tmp"))
        assert ps.family_serving_dirs(root) == [fam["final_dir"]]
        assert ps.compact_positional_family(root) == 0
        assert not os.path.exists(torn[0])
        assert ps.family_serving_dirs(root) == [fam["final_dir"]]

    def test_new_term_id_continues_past_base_vocab(self, ray_session, tmp_path):
        base, ddir, _ = self._setup(tmp_path)
        fam = ps.build_positional_family(base)
        root = os.path.dirname(fam["final_dir"])
        upd = ps.update_positional_family(root, fam["stats"], ddir)
        n_base = len(fam["stats"]["terms"])
        tids = ps.phrase_term_ids(upd["stats"], "newword")
        assert tids is not None and tids[0] > n_base


class TestMinspanTopk:
    @staticmethod
    def _brute(texts, terms, k=5):
        terms = sorted(set(terms))
        per_doc = []
        for i, text in enumerate(texts):
            toks = tokenize_text(text)
            pos = {t: [j + 1 for j, x in enumerate(toks) if x == t]
                   for t in terms}
            if any(not p for p in pos.values()):
                continue
            best = None
            anchors = sorted(p for t in terms for p in pos[t])
            for a in anchors:
                nxt = []
                for t in terms:
                    c = [p for p in pos[t] if p >= a]
                    if not c:
                        nxt = None
                        break
                    nxt.append(min(c))
                if nxt is not None:
                    s = max(nxt) - a + 1
                    best = s if best is None else min(best, s)
            if best is not None:
                per_doc.append((best, 100 + i))
        per_doc.sort()
        return [(r + 1, d, s) for r, (s, d) in enumerate(per_doc[:k])]

    def test_bruteforce(self, ray_session, tmp_path):
        texts = [
            "alpha xx beta",                 # span 3
            "alpha beta",                    # span 2 -> rank 1
            "beta xx xx alpha yy beta",      # best span: alpha..beta = 3
            "alpha xx xx xx xx beta",        # span 6
            "alpha only",
            "beta only",
        ]
        d = _write_docs(tmp_path, texts)
        got = ps.q_minspan_topk(d, queries=[(0, "alpha beta")]).to_pandas()
        want = self._brute(texts, ["alpha", "beta"])
        assert [tuple(r) for r in got[
            ["rank", "doc_id", "min_span"]].itertuples(index=False)] == want

    def test_adjacent_terms_span_equals_arity(self, ray_session, tmp_path):
        d = _write_docs(tmp_path, ["aa bb cc dd"])
        got = ps.q_minspan_topk(d, queries=[(0, "aa bb cc")]).to_pandas()
        assert got["min_span"].tolist() == [3]


class TestSnippets:
    def test_snippet_is_best_window_text(self, ray_session, tmp_path):
        texts = [
            "alpha zz yy beta more words here",   # span 4
            "junk alpha beta junk",               # span 2 -> rank 1
            "beta qq alpha zz beta",              # two span-3 windows;
            # earliest anchor wins -> "beta qq alpha"
        ]
        d = _write_docs(tmp_path, texts)
        got = ps.q_snippets(d, queries=[(0, "alpha beta")]).to_pandas()
        assert got["doc_id"].tolist() == [101, 102, 100]
        assert got["snippet"].tolist() == [
            "alpha beta",
            "beta qq alpha",
            "alpha zz yy beta",
        ]
        assert got["min_span"].tolist() == [2, 3, 4]
        assert got["rank"].tolist() == [1, 2, 3]

    def test_earliest_anchor_tiebreak(self, ray_session, tmp_path):
        # two minimal windows in one doc -> snippet from the EARLIEST
        d = _write_docs(tmp_path, ["alpha qq beta zz alpha yy beta"])
        got = ps.q_snippets(d, queries=[(0, "alpha beta")]).to_pandas()
        assert got["snippet"].tolist() == ["alpha qq beta"]


def test_rrf_fusion_arithmetic(ray_session, tmp_path):
    """Fusion score == hand-computed reciprocal ranks from the two
    standalone rankings."""
    texts = [
        "alpha beta",                       # span 2, in-window
        "alpha zz zz zz zz zz zz beta",     # span 8: minspan only (W=6)
        "alpha zz beta alpha yy beta",      # span 3, two anchors
    ]
    d = _write_docs(tmp_path, texts)
    qs = [(0, "alpha beta")]
    ms = ps.q_minspan_topk(d, k=100, queries=qs).to_pandas()
    pr = ps.q_proximity_docs(d, queries=qs).to_pandas() \
        .sort_values(["n_anchors", "doc_id"], ascending=[False, True])
    want = {}
    for r, doc in enumerate(ms["doc_id"], 1):
        want[doc] = want.get(doc, 0) + 1_000_000 // (60 + r)
    for r, doc in enumerate(pr["doc_id"], 1):
        want[doc] = want.get(doc, 0) + 1_000_000 // (60 + r)
    got = ps.q_rrf_fusion(d, queries=qs).to_pandas()
    assert dict(zip(got["doc_id"], got["rrf_micro"])) == want
    # doc 101 is outside the proximity window -> single-list score
    assert 101 in set(got["doc_id"])


class TestPhraseBm25TopK:
    def test_matches_composed_standalone_entries(self, ray_session, tmp_path):
        """Top-k == phrase-matching docs ranked by the sum of the
        distinct terms' unigram index scores (the two standalone
        entries composed by hand)."""
        from candidategeneration_ray.pipelines import docquery as dq

        texts = [
            "alpha beta gamma alpha beta",
            "beta alpha beta noise words here",
            "alpha beta",
            "alpha zz beta",                    # no phrase match
            "gamma delta epsilon",
        ]
        d = _write_docs(tmp_path, texts)
        qs = [(0, "alpha beta"), (1, "beta alpha beta")]
        got = ps.q_phrase_bm25_topk(d, k=10, phrases=qs).to_pandas()
        match = ps.q_phrase_postings(d, phrases=qs).to_pandas()
        score = {}
        for term in ["alpha", "beta"]:
            t = dq.q_term_postings(d, term=term).to_pandas()
            for doc, s in zip(t["doc_id"], t["score"]):
                score[(doc, term)] = int(s)
        for pid, _ in qs:
            sub = got[got["phrase_id"] == pid]
            m = match[match["phrase_id"] == pid]
            want = sorted(
                ((-(score[(doc, "alpha")] + score[(doc, "beta")]), doc, occ)
                 for doc, occ in zip(m["doc_id"], m["n_occurrences"])),
            )
            assert [tuple(r) for r in sub[
                ["doc_id", "score", "n_occurrences"]].itertuples(index=False)
            ] == [(doc, -neg, occ) for neg, doc, occ in want]
            assert sub["rank"].tolist() == list(range(1, len(want) + 1))

    def test_repeated_term_phrase_scores_distinct_terms_once(
            self, ray_session, tmp_path):
        from candidategeneration_ray.pipelines import docquery as dq

        d = _write_docs(tmp_path, ["order order order", "order filler words"])
        got = ps.q_phrase_bm25_topk(d, phrases=[(0, "order order")]).to_pandas()
        t = dq.q_term_postings(d, term="order").to_pandas()
        s100 = int(t[t["doc_id"] == 100]["score"].iloc[0])
        assert got["doc_id"].tolist() == [100]
        assert got["score"].tolist() == [s100]   # once, not twice
        assert got["n_occurrences"].tolist() == [2]

    def test_unmapped_phrase_yields_no_rows(self, ray_session, tmp_path):
        d = _write_docs(tmp_path, ["alpha beta"])
        got = ps.q_phrase_bm25_topk(d, phrases=[(0, "zz alpha")]).to_pandas()
        assert len(got) == 0
        assert list(got.columns) == [
            "phrase_id", "rank", "doc_id", "score", "n_occurrences"]


class TestPositionalLsmMultiDelta:
    """Regression tests for the review findings: generation numbering
    across compactions, chained-delta dictionary extension, and
    crash-rerun double-ingest hygiene."""

    def _full(self, tmp_path, all_texts, ids):
        full = str(tmp_path / "full")
        os.makedirs(full, exist_ok=True)
        pq.write_table(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(all_texts, pa.string()),
        }), os.path.join(full, "documents.parquet"))
        return full

    def test_update_after_compaction_stays_servable(self, ray_session, tmp_path):
        base_texts = ["alpha beta", "beta gamma"]
        d1_texts = ["alpha beta newword"]
        d2_texts = ["newword alpha", "aardvark beta", "alpha beta"]
        base = _write_docs(tmp_path / "b", base_texts)
        d1 = str(tmp_path / "d1"); os.makedirs(d1)
        pq.write_table(pa.table({
            "doc_id": pa.array([500], pa.int64()),
            "text": pa.array(d1_texts, pa.string()),
        }), os.path.join(d1, "documents.parquet"))
        d2 = str(tmp_path / "d2"); os.makedirs(d2)
        pq.write_table(pa.table({
            "doc_id": pa.array([600, 601, 602], pa.int64()),
            "text": pa.array(d2_texts, pa.string()),
        }), os.path.join(d2, "documents.parquet"))
        full = self._full(tmp_path, base_texts + d1_texts + d2_texts,
                          [100, 101, 500, 600, 601, 602])

        fam = ps.build_positional_family(base)
        root = os.path.dirname(fam["final_dir"])
        u1 = ps.update_positional_family(root, fam["stats"], d1)
        ps.compact_positional_family(root)
        # delta AFTER compaction must get a FRESH generation number
        u2 = ps.update_positional_family(root, u1["stats"], d2)
        assert os.path.basename(u2["gen_dir"]) != "gen-0001"
        assert ps.family_serving_dirs(root) == [
            os.path.join(root, "final-0001"), u2["gen_dir"]]

        phrases = [(0, "alpha beta"), (1, "newword alpha"),
                   (2, "aardvark beta"), (3, "alpha beta newword")]
        want = ps.q_phrase_postings(full, phrases=phrases).to_pandas()
        want = [tuple(r) for r in want.itertuples(index=False)]
        got = TestPositionalLsm._serve(
            ps.family_serving_dirs(root), u2["stats"], phrases)
        assert got == want
        # second compaction folds the post-compaction generation too;
        # the next one drops the superseded compacted final
        assert ps.compact_positional_family(root) == 1
        assert ps.family_serving_dirs(root) == [
            os.path.join(root, "final-0002")]
        assert ps.compact_positional_family(root) == 0
        assert not os.path.exists(os.path.join(root, "final-0001"))
        assert TestPositionalLsm._serve(
            ps.family_serving_dirs(root), u2["stats"], phrases) == want

    def test_chained_deltas_no_id_aliasing(self, ray_session, tmp_path):
        """Delta 2 reuses delta 1's new term AND introduces one that
        sorts before it — ids must not alias (review finding)."""
        base = _write_docs(tmp_path / "b", ["alpha beta"])
        d1 = str(tmp_path / "d1"); os.makedirs(d1)
        pq.write_table(pa.table({
            "doc_id": pa.array([500], pa.int64()),
            "text": pa.array(["alpha newword"], pa.string()),
        }), os.path.join(d1, "documents.parquet"))
        d2 = str(tmp_path / "d2"); os.makedirs(d2)
        pq.write_table(pa.table({
            "doc_id": pa.array([600, 601], pa.int64()),
            "text": pa.array(["aardvark newword", "newword beta"],
                             pa.string()),
        }), os.path.join(d2, "documents.parquet"))
        full = self._full(
            tmp_path, ["alpha beta", "alpha newword", "aardvark newword",
                       "newword beta"], [100, 500, 600, 601])

        fam = ps.build_positional_family(base)
        root = os.path.dirname(fam["final_dir"])
        u1 = ps.update_positional_family(root, fam["stats"], d1)
        u2 = ps.update_positional_family(root, u1["stats"], d2)
        # 'newword' keeps its delta-1 id; 'aardvark' gets a NEW id
        t1 = ps.phrase_term_ids(u1["stats"], "newword")[0]
        assert ps.phrase_term_ids(u2["stats"], "newword")[0] == t1
        assert ps.phrase_term_ids(u2["stats"], "aardvark")[0] != t1
        phrases = [(0, "aardvark newword"), (1, "newword beta"),
                   (2, "alpha newword")]
        want = ps.q_phrase_postings(full, phrases=phrases).to_pandas()
        want = [tuple(r) for r in want.itertuples(index=False)]
        got = TestPositionalLsm._serve(
            ps.family_serving_dirs(root), u2["stats"], phrases)
        assert got == want


def test_ordered_window_brute_force(ray_session):
    """Ordered-window matches a per-doc brute-force chain scan at
    sf0.001 (greedy-leftmost == exists-a-chain), and order matters:
    'data query' and 'query data' yield different result sets."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.functions.tokenize import tokenize_many
    from candidategeneration_ray.pipelines.positional import (
        OW_QUERIES, OW_W, q_ordered_window_docs)

    sf = "/root/testdata/sf0.001"
    got = q_ordered_window_docs(sf).to_pandas()
    docs = pq.read_table(f"{sf}/documents.parquet",
                         columns=["doc_id", "text"]).to_pandas()
    toks = dict(zip(docs.doc_id, tokenize_many(list(docs.text))))
    from candidategeneration_ray.functions.tokenize import tokenize_text

    want = {}
    for qid, text in OW_QUERIES:
        terms = tokenize_text(text)
        if not terms:
            continue
        for doc_id, tk in toks.items():
            pos = {}
            for i, t in enumerate(tk):
                pos.setdefault(t, []).append(i)
            if any(t not in pos for t in terms):
                continue
            n = 0
            for a in pos[terms[0]]:
                cur, alive = a, True
                for t in terms[1:]:
                    import bisect
                    nxt = bisect.bisect_right(pos[t], cur)
                    if nxt < len(pos[t]) and pos[t][nxt] <= cur + OW_W:
                        cur = pos[t][nxt]
                    else:
                        alive = False
                        break
                n += alive
            if n:
                want[(qid, doc_id)] = n
    have = {(int(r.query_id), int(r.doc_id)): int(r.n_matches)
            for r in got.itertuples()}
    assert have == want
    a = q_ordered_window_docs(sf, queries=[(0, "data query")]).to_pandas()
    b = q_ordered_window_docs(sf, queries=[(0, "query data")]).to_pandas()
    assert not a.equals(b)


class TestLmDirichlet:
    def test_length_normalization_and_candidates(self, ray_session, tmp_path):
        """Equal tf, different dl -> shorter doc scores higher; docs
        with no query term never appear; repeated term raises score."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.positional import (
            q_lmdirichlet_topk)

        pad = [f"pad{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(40)]
        t = pa.table({
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array([
                "batch once short doc",
                "batch once " + " ".join(pad),      # same tf, longer
                "batch batch batch dense doc",       # higher tf
                " ".join(pad[:20]),                  # no query term
            ], pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "documents.parquet"))
        got = q_lmdirichlet_topk(d).to_pandas()
        g5 = got[got.query_id == 5].sort_values("rank")   # query "batch"
        assert 3 not in set(g5["doc_id"])
        s = g5.set_index("doc_id")["score"]
        assert s[2] > s[0] > s[1]      # tf wins, then length normalization


class TestShardedPhrase:
    def test_sharded_equals_single_task(self, ray_session):
        from candidategeneration_ray.pipelines.positional import (
            q_phrase_postings, q_phrase_postings_sharded)

        sf = "/root/testdata/sf0.001"
        a = q_phrase_postings(sf).to_pandas()
        b = q_phrase_postings_sharded(sf).to_pandas()
        assert a.equals(b)
        assert len(a) > 0

    def test_shard_ownership_is_disjoint_and_complete(self, ray_session):
        """Every term id is owned by EXACTLY one shard (the fleet's
        merge correctness rests on this)."""
        import numpy as np

        from candidategeneration_ray.config import EngineConfig
        from candidategeneration_ray.pipelines.positional import (
            PhraseShardedEngine, build_positional_family,
            family_serving_dirs)
        import os

        sf = "/root/testdata/sf0.001"
        cfg = EngineConfig()
        fam = build_positional_family(sf, cfg)
        dirs = family_serving_dirs(os.path.dirname(fam["final_dir"]))
        eng = PhraseShardedEngine(dirs, cfg, n_shards=3)
        try:
            import ray as _ray

            tids = list(range(1, 400))
            owned = _ray.get(
                [s.owned.remote(tids) for s in eng.shards])
            flat = [t for o in owned for t in o]
            assert sorted(flat) == sorted(set(flat))   # disjoint
            assert sorted(flat) == tids                # complete
        finally:
            eng.shutdown()
