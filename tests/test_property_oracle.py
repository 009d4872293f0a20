"""Property-based oracle equivalence (SURVEY §5.2-6): random tiny
corpora → the in-process list-build + WAND path must match the
exhaustive oracle exactly. No Ray session needed — exercises the same
kernels the distributed pipeline runs per batch."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.oracle import build_oracle_index
from candidategeneration_ray.stages.postings import PostingEmitter
from candidategeneration_ray.stages.listbuild import merge_partial_lists
from candidategeneration_ray.state.queryengine import (
    IndexReader, _List, blockmax_topk, maxscore_topk, wand_topk)

VOCAB = ["alpha", "beta", "gamma", "delta", "epsi", "zeta", "eta",
         "theta", "iota", "kappa", "rare1", "rare2", "77", "88"]

doc_strategy = st.lists(st.sampled_from(VOCAB), min_size=0, max_size=30)
corpus_strategy = st.lists(doc_strategy, min_size=1, max_size=12)
query_strategy = st.lists(st.sampled_from(VOCAB + ["absent"]), min_size=1, max_size=4)


def _build_inprocess(token_docs, cfg):
    """Run the REAL emitter + list merge on one in-memory batch."""
    texts = [" ".join(toks) for toks in token_docs]
    oracle = build_oracle_index(list(enumerate(texts)))
    stats = {
        "terms": np.array(sorted(oracle.df), dtype=object),
        "df_by_id": np.concatenate(
            ([0], [oracle.df[t] for t in sorted(oracle.df)])).astype(np.int64),
        "n_docs": oracle.n_docs,
        "total_tokens": oracle.total_tokens,
        "avgdl": oracle.avgdl,
    }
    batch = pa.table({
        "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
        "doc_len": pa.array([len(oracle.tokens[i]) for i in range(len(texts))], pa.int32()),
        "tokens": pa.array([oracle.tokens[i] for i in range(len(texts))],
                           pa.list_(pa.string())),
    })
    partials = PostingEmitter(stats, cfg)(batch)
    if partials.num_rows == 0:
        return oracle, None
    from candidategeneration_ray.functions.arrowutil import binary_column_concat

    docs_data, _ = binary_column_concat(partials.column("docs"))
    scores_data, _ = binary_column_concat(partials.column("scores"))
    lists = merge_partial_lists(
        partials.column("key").to_numpy().astype(np.int64),
        partials.column("n").to_numpy().astype(np.int64),
        docs_data, scores_data, cfg, 0)
    return oracle, IndexReader(lists, stats, cfg)


@given(corpus_strategy, query_strategy)
@settings(max_examples=60, deadline=None)
def test_wand_topk_matches_oracle(token_docs, query):
    cfg = EngineConfig()
    oracle, reader = _build_inprocess(token_docs, cfg)
    expect = oracle.topk(query, k=5)
    if reader is None:
        assert expect == []
        return
    t2i = {t: i + 1 for i, t in enumerate(stats_terms(reader))}
    for scorer in (wand_topk, blockmax_topk, maxscore_topk):
        lists = []
        for t in sorted(set(query)):
            tid = t2i.get(t)
            got = reader.get(tid) if tid else None
            if got is not None:
                lists.append(_List(*got))
        result = scorer(lists, 5, cfg.block_size)
        assert [(d, s) for s, d in result] == expect, scorer.__name__


def stats_terms(reader):
    return reader.stats["terms"]


@given(corpus_strategy)
@settings(max_examples=40, deadline=None)
def test_structural_invariants_hold(token_docs):
    cfg = EngineConfig(block_size=4)  # tiny blocks exercise metadata paths
    oracle, reader = _build_inprocess(token_docs, cfg)
    if reader is None:
        return
    for k in reader.keys:
        docs, scores, bmax, blast = reader.get(int(k))
        assert np.all(np.diff(docs) > 0)
        nb = (docs.size + 3) // 4
        assert bmax.size == nb and blast.size == nb
        for b in range(nb):
            assert bmax[b] == scores[b * 4:(b + 1) * 4].max()


@given(corpus_strategy)
@settings(max_examples=40, deadline=None)
def test_pair_lists_match_oracle(token_docs):
    cfg = EngineConfig()
    oracle, reader = _build_inprocess(token_docs, cfg)
    if reader is None:
        return
    id_to_term = {v: k for k, v in oracle.term_ids.items()}
    for key in reader.keys:
        if key < (1 << 32):
            continue
        t1 = id_to_term[int(key) >> 32]
        t2 = id_to_term[int(key) & 0xFFFFFFFF]
        expect = oracle.pair_postings(t1, t2, cfg.distance)
        docs, scores, _, _ = reader.get(int(key))
        assert docs.tolist() == [d for d, _ in expect], (t1, t2)
        assert scores.tolist() == [s for _, s in expect], (t1, t2)


def _reference_lists(keys, scores, docs, cfg):
    """Plain-numpy list build, one key at a time: doc order, then
    prefix + budget pruning, then per-block max score / last doc."""
    out = {}
    for k in np.unique(keys):
        m = keys == k
        o = np.argsort(docs[m], kind="stable")
        d, s = docs[m][o], scores[m][o].astype(np.int64)
        if cfg.max_list_postings is not None:
            prefix = cfg.unconditional_prefix
            budget = cfg.max_list_postings - prefix
            tail = sorted(range(prefix, d.size), key=lambda i: (-s[i], d[i]))
            keep = sorted(list(range(min(prefix, d.size))) + tail[:budget])
            d, s = d[keep], s[keep]
        bs = cfg.block_size
        out[int(k)] = (d, s,
                       [int(s[i:i + bs].max()) for i in range(0, d.size, bs)],
                       [int(d[min(i + bs, d.size) - 1]) for i in range(0, d.size, bs)])
    return out


@st.composite
def _raw_postings(draw):
    n = draw(st.integers(0, 120))
    key_pool = draw(st.lists(st.sampled_from([1, 2, 3, 7, 11, (3 << 32) | 5]),
                             min_size=1, max_size=6, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(key_pool),
                                    st.integers(0, 2000)),
                          min_size=n, max_size=n, unique=True))
    scores = draw(st.lists(st.integers(0, 2**31 - 1), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    return (np.array([p[0] for p in pairs], np.int64).reshape(-1),
            np.array(scores, np.int32).reshape(-1),
            np.array([p[1] for p in pairs], np.int64).reshape(-1),
            cuts)


@st.composite
def _list_cfg(draw):
    codec = draw(st.sampled_from(["varint", "bp", "ef", "rice", "bic"]))
    bs = draw(st.integers(1, 6))
    if draw(st.booleans()):
        prefix = draw(st.integers(0, 5))
        cap = draw(st.integers(max(prefix, 1), prefix + 8))
        return EngineConfig(codec=codec, block_size=bs, num_buckets=5,
                            max_list_postings=cap, unconditional_prefix=prefix)
    return EngineConfig(codec=codec, block_size=bs, num_buckets=5)


@given(_raw_postings(), _list_cfg())
@settings(max_examples=300, deadline=None)
def test_partial_rows_merge_matches_reference(raw, cfg):
    """partial_rows → merge_partial_lists (the build's only list path)
    equals a per-key numpy list build, for postings split across any
    number of emission batches (including empty ones and no postings)."""
    from candidategeneration_ray.functions.arrowutil import binary_column_concat
    from candidategeneration_ray.functions.codecs import decode_docs
    from candidategeneration_ray.stages.listbuild import bucket_of, partial_rows

    keys, scores, docs, cuts = raw
    bounds = [0] + cuts + [keys.size]
    parts = [partial_rows(keys[a:b], scores[a:b], docs[a:b], cfg.num_buckets)
             for a, b in zip(bounds[:-1], bounds[1:])]
    rows = pa.concat_tables(parts)
    assert rows.column_names == ["key", "n", "docs", "scores", "bucket"]
    rk = rows.column("key").to_numpy()
    assert np.array_equal(rows.column("bucket").to_numpy(),
                          bucket_of(rk, cfg.num_buckets))
    docs_data, _ = binary_column_concat(rows.column("docs"))
    scores_data, _ = binary_column_concat(rows.column("scores"))
    lists = merge_partial_lists(rk.astype(np.int64),
                                rows.column("n").to_numpy().astype(np.int64),
                                docs_data, scores_data, cfg, 0)
    assert lists.column_names == ["key", "n", "docs", "scores",
                                  "block_max", "block_last", "bucket"]

    expect = _reference_lists(keys, scores, docs, cfg)
    assert lists.column("key").to_pylist() == sorted(expect)
    for i, k in enumerate(lists.column("key").to_pylist()):
        d, s, bmax, blast = expect[k]
        n = lists.column("n")[i].as_py()
        assert n == d.size
        got_d = decode_docs(lists.column("docs")[i].as_py(), n, cfg.codec)
        assert got_d.astype(np.int64).tolist() == d.tolist()
        got_s = np.frombuffer(lists.column("scores")[i].as_py(), "<i4")
        assert got_s.tolist() == s.tolist()
        assert lists.column("block_max")[i].as_py() == bmax
        assert lists.column("block_last")[i].as_py() == blast
