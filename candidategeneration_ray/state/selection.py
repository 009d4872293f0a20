"""The predictive layer: quality model + greedy prefix selection.

Re-expresses the reference's selection machinery (SURVEY §2.8):

  Q1  geometric bucket ranges   Selection.java:33-55 (len: 4, i+=i*1.1)
                                and :46-55 (rank: 11, i+=i*1.4)
  Q2  quality-model fill        NewQualityModel.java:34-132 — walk each
      query key's IMPACT-ORDERED list and record the prefix depth at
      which each ground-truth doc appears
  A6  bucket histogram          NewQualityModel.java:148-195
  Q3  offline greedy chunk      NewGreedySelection.java:26-128 — budget-
      selection                 constrained greedy over per-key next
                                chunks scored by access-prob x gain/cost
  Q4  chunk extraction          SelectChuncks.java:16-62 — copy selected
                                impact prefixes into the separated index
  Q5  online greedy depth       algo_toplayer.h:272-374 — per query,
      selection                 budgeted greedy with 5x pair weight
  Q6  candidate scoring         algo_toplayer.cpp:300-338, 935-976 —
                                predictive_candidates scores the prefix
                                union exactly; the reference's bitmask +
                                nextGEQ merge is its test oracle
                                (tests/test_selection.py)

Q2 has one builder, which reads only the lists of the training
queries' keys. Q3 and Q5 are one greedy (_greedy_depths) that differ
only in the per-key gain weight: the access count offline, the pair
weight per query.

Normalization choice (documented deviation): the reference trains
against complex-ranker ground truth and normalizes by access counts x
bucket widths; our ground truth is the engine's own exact BM25 top-k
(the executable reference for transcripts), and prob[x][y] =
cumulative hits / opportunities per length bucket — a proper CDF in
[0,1], monotone in depth, used identically downstream.
"""

from __future__ import annotations

import heapq

import numpy as np

from candidategeneration_ray.state.queryengine import IndexReader


def geometric_buckets(start: int, rule: float, maximum: int) -> np.ndarray:
    """Bucket upper bounds: i(0)=start, i+=i*rule, capped at `maximum`
    (Selection.java computelRanges/computerRanges)."""
    bounds = []
    i = start
    while i < maximum:
        bounds.append(i)
        i += int(i * rule)
    bounds.append(maximum)
    return np.array(bounds, dtype=np.int64)


def bucket_of(value: int, bounds: np.ndarray) -> int:
    """First bucket whose upper bound is >= value (getLenBucket walk)."""
    return int(np.searchsorted(bounds, value, side="left"))


class QualityModel:
    """P(ground-truth doc appears within impact-prefix depth <= rank
    bucket y | posting-list length in bucket x), one matrix per key
    family (unigram / pair)."""

    def __init__(self, len_bounds: np.ndarray, rank_bounds: np.ndarray,
                 prob_uni: np.ndarray, prob_pair: np.ndarray):
        self.len_bounds = len_bounds
        self.rank_bounds = rank_bounds
        self.prob = {False: prob_uni, True: prob_pair}


def build_quality_model(
    reader: IndexReader,
    query_keysets: list[list[int]],
    ground_truth: list[list[int]],
    len_rule: float = 1.1,
    rank_rule: float = 1.4,
) -> QualityModel:
    """Q2/A6: fill the bucket histograms by scanning impact-ordered
    lists for the ground-truth docs of the queries that contain each
    key.

    query_keysets[i] = augmented key list of query i (unigrams + packed
    pairs); ground_truth[i] = its exact top-k doc ids.
    """
    max_len = max(reader.max_list_len(), 2)
    len_bounds = geometric_buckets(4, len_rule, max(max_len, 5))
    rank_bounds = geometric_buckets(11, rank_rule, max(max_len, 12))
    shape = (len_bounds.size, rank_bounds.size)
    hits = {False: np.zeros(shape, np.float64), True: np.zeros(shape, np.float64)}
    opps = {False: np.zeros(len_bounds.size, np.float64), True: np.zeros(len_bounds.size, np.float64)}

    for keys, gt in zip(query_keysets, ground_truth):
        if not gt:
            continue
        gt_set = np.asarray(sorted(gt), dtype=np.int64)
        for key in keys:
            got = reader.get(int(key))
            if got is None:
                continue
            docs, scores, _, _ = got
            is_pair = key >= (1 << 32)
            x = bucket_of(docs.size, len_bounds)
            opps[is_pair][x] += gt_set.size
            # impact order = (score desc, doc asc): positions of GT docs
            order = np.lexsort((docs, -scores.astype(np.int64)))
            ranked_docs = docs[order]
            # depth of each GT doc present in this list
            present = np.isin(ranked_docs, gt_set)
            depths = np.nonzero(present)[0]
            for d in depths:
                y = bucket_of(int(d) + 1, rank_bounds)
                hits[is_pair][x, y] += 1.0

    prob = {}
    for fam in (False, True):
        cum = np.cumsum(hits[fam], axis=1)
        denom = np.maximum(opps[fam], 1.0)[:, None]
        prob[fam] = np.clip(cum / denom, 0.0, 1.0)
    return QualityModel(len_bounds, rank_bounds, prob[False], prob[True])


def _greedy_depths(
    reader: IndexReader,
    model: QualityModel,
    weights: dict[int, float],
    budget_postings: int,
) -> dict[int, int]:
    """The budgeted greedy of Q3 and Q5 over per-key next chunks.

    Chunk y of key k adds (rank_bounds[y] - rank_bounds[y-1]) postings
    (clamped to list length) and gains weights[k] * (P[x,y] - P[x,y-1]).
    Chunks pop best gain/cost first, ties by (key, y); a chunk that
    would overrun the budget is skipped, not truncated. Returns {key:
    selected prefix depth (postings)}."""
    rb = model.rank_bounds
    heap: list[tuple[float, int, int]] = []  # (-gain/cost, key, next_bucket)

    def push(key: int, y: int):
        got_len = reader.list_len(key)
        prev_depth = int(rb[y - 1]) if y > 0 else 0
        if prev_depth >= got_len:
            return
        depth = min(int(rb[y]), got_len)
        cost = depth - prev_depth
        x = bucket_of(got_len, model.len_bounds)
        is_pair = key >= (1 << 32)
        prev_p = model.prob[is_pair][x, y - 1] if y > 0 else 0.0
        gain = weights[key] * (model.prob[is_pair][x, y] - prev_p)
        if cost > 0:
            heapq.heappush(heap, (-(gain / cost), key, y))

    for key in weights:
        push(key, 0)

    depths: dict[int, int] = {}
    spent = 0
    while heap and spent < budget_postings:
        _, key, y = heapq.heappop(heap)
        depth = min(int(rb[y]), reader.list_len(key))
        add = depth - depths.get(key, 0)
        if spent + add > budget_postings:
            continue
        spent += add
        depths[key] = depth
        if y + 1 < rb.size:
            push(key, y + 1)
    return depths


def greedy_select_chunks(
    reader: IndexReader,
    model: QualityModel,
    access_counts: dict[int, int],
    budget_postings: int,
) -> dict[int, int]:
    """Q3: offline selection over the whole key population; a chunk's
    gain is weighted by its key's access count."""
    return _greedy_depths(reader, model,
                          {int(k): n for k, n in access_counts.items()},
                          budget_postings)


def extract_top_layer(reader: IndexReader, selection: dict[int, int]) -> dict:
    """Q4: separated index — per selected key the impact-ordered prefix
    as (doc block, score block) (SelectChuncks.java:41-47 layout)."""
    out = {}
    for key, depth in selection.items():
        docs, scores = reader.top_layer(int(key), int(depth))
        out[int(key)] = (docs, scores)
    return out


def online_depth_selection(
    keys: list[int],
    reader: IndexReader,
    model: QualityModel,
    budget_postings: int,
    pair_weight: float = 5.0,
) -> dict[int, int]:
    """Q5: per-query depth choice over the query's keys; pair chunks get
    the reference's 5x weight (algo_toplayer.h:272-374)."""
    return _greedy_depths(
        reader, model,
        {int(k): pair_weight if int(k) >= (1 << 32) else 1.0 for k in keys},
        budget_postings)


def predictive_candidates(
    reader: IndexReader,
    model: QualityModel,
    term_ids: list[int],
    budget_postings: int = 2000,
    num_candidates: int = 10,
) -> list[tuple[int, int]]:
    """Q5+Q6: the reference's candidate-generation flow — model-guided
    prefix selection over the query's keys, union the prefix docs, then
    score the CANDIDATE POOL exactly (TAAT over the query's unigram
    lists restricted to the pool — the reference patches uncovered
    terms with nextGEQ lookups, algo_toplayer.cpp:935-976; restricting
    exact TAAT to the pool is semantically the same patch-complete
    scoring). Returns [(score, doc_id)] top num_candidates."""
    keys = reader.augmented_keys(term_ids)
    depths = online_depth_selection(keys, reader, model, budget_postings)
    if not depths:
        return []
    pool = reader.top_layer_docs(list(depths), list(depths.values()))
    # exact scoring of the pool: accumulate each query term's quantized
    # score for pool members (vectorized searchsorted per list)
    acc = np.zeros(pool.size, dtype=np.int64)
    for t in sorted(set(term_ids)):
        got = reader.get(int(t))
        if got is None:
            continue
        docs, scores, _, _ = got
        pos = np.searchsorted(pool, docs)
        pos_c = np.minimum(pos, pool.size - 1)
        valid = pool[pos_c] == docs
        np.add.at(acc, pos_c[valid], scores[valid].astype(np.int64))
    order = np.lexsort((pool, -acc))[:num_candidates]
    return [(int(acc[i]), int(pool[i])) for i in order]
