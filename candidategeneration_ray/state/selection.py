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

    def p_found(self, list_len: int, depth_bucket: int, is_pair: bool) -> float:
        x = bucket_of(list_len, self.len_bounds)
        return float(self.prob[is_pair][x, depth_bucket])


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


def build_quality_model_distributed(
    lists_ds,
    query_keysets: list[list[int]],
    ground_truth: list[list[int]],
    max_list_len: int,
    len_rule: float = 1.1,
    rank_rule: float = 1.4,
) -> QualityModel:
    """Distributed Q2/A6: the reference streams the merged index once
    against broadcast ground truth (NewQualityModel.java:50-80); the
    Ray shape is map_batches over the posting-list dataset with the
    (small) GT broadcast, emitting partial (family, xbucket, ybucket,
    hits/opps) rows, then one tiny groupby-sum. Identical matrices to
    build_quality_model (tested); this variant never holds the index in
    one process.

    lists_ds: the posting-list Dataset/segments (key, n, docs, scores).
    """
    import pyarrow as pa
    import ray
    import ray.data
    from ray.data.aggregate import Sum

    from candidategeneration_ray.functions.varint import decode_delta

    len_bounds = geometric_buckets(4, len_rule, max(int(max_list_len), 5))
    rank_bounds = geometric_buckets(11, rank_rule, max(int(max_list_len), 12))

    # broadcast: key -> (n_queries_with_key * gt docs...) — we need per
    # (key, query) the query's gt set; flatten to key -> list of gt sets
    key_to_gts: dict[int, list[np.ndarray]] = {}
    for keys, gt in zip(query_keysets, ground_truth):
        if not gt:
            continue
        g = np.asarray(sorted(gt), dtype=np.int64)
        for k in keys:
            key_to_gts.setdefault(int(k), []).append(g)
    gt_ref = ray.put(key_to_gts)

    def _partials(batch: pa.Table, *, _c={}) -> pa.Table:
        if "gt" not in _c:
            _c["gt"] = ray.get(gt_ref)
        gt = _c["gt"]
        rows = {"family": [], "x": [], "y": [], "hits": [], "opps": []}
        keys = batch.column("key").to_numpy()
        for r in range(batch.num_rows):
            gsets = gt.get(int(keys[r]))
            if not gsets:
                continue
            docs = decode_delta(batch.column("docs")[r].as_py()).astype(np.int64)
            scores = np.frombuffer(batch.column("scores")[r].as_py(), dtype="<i4")
            is_pair = int(keys[r]) >= (1 << 32)
            x = bucket_of(docs.size, len_bounds)
            order = np.lexsort((docs, -scores.astype(np.int64)))
            ranked = docs[order]
            for g in gsets:
                rows["family"].append(int(is_pair))
                rows["x"].append(x)
                rows["y"].append(-1)       # opportunity-marker row
                rows["hits"].append(0)
                rows["opps"].append(int(g.size))
                depths = np.nonzero(np.isin(ranked, g))[0]
                for d in depths:
                    rows["family"].append(int(is_pair))
                    rows["x"].append(x)
                    rows["y"].append(bucket_of(int(d) + 1, rank_bounds))
                    rows["hits"].append(1)
                    rows["opps"].append(0)
        return pa.table({
            "family": pa.array(rows["family"], pa.int8()),
            "x": pa.array(rows["x"], pa.int32()),
            "y": pa.array(rows["y"], pa.int32()),
            "hits": pa.array(rows["hits"], pa.int64()),
            "opps": pa.array(rows["opps"], pa.int64()),
        })

    agg = (
        lists_ds.map_batches(_partials, batch_format="pyarrow")
        .groupby(["family", "x", "y"])
        .aggregate(Sum("hits", alias_name="hits"), Sum("opps", alias_name="opps"))
        .to_pandas()
    )
    shape = (len_bounds.size, rank_bounds.size)
    hits = {False: np.zeros(shape), True: np.zeros(shape)}
    opps = {False: np.zeros(len_bounds.size), True: np.zeros(len_bounds.size)}
    for _, row in agg.iterrows():
        fam = bool(row["family"])
        if row["y"] < 0:
            opps[fam][int(row["x"])] += row["opps"]
        else:
            hits[fam][int(row["x"]), int(row["y"])] += row["hits"]
    prob = {}
    for fam in (False, True):
        cum = np.cumsum(hits[fam], axis=1)
        prob[fam] = np.clip(cum / np.maximum(opps[fam], 1.0)[:, None], 0.0, 1.0)
    return QualityModel(len_bounds, rank_bounds, prob[False], prob[True])


def greedy_select_chunks(
    reader: IndexReader,
    model: QualityModel,
    access_counts: dict[int, int],
    budget_postings: int,
) -> dict[int, int]:
    """Q3: budget-constrained greedy over per-key next chunks.

    Chunk y of key k adds (rank_bounds[y] - rank_bounds[y-1]) postings
    (clamped to list length) and gains access(k) * (P[x,y] - P[x,y-1]).
    Returns {key: selected prefix depth (postings)}.
    """
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
        gain = access_counts.get(key, 0) * (model.prob[is_pair][x, y] - prev_p)
        if cost > 0:
            heapq.heappush(heap, (-(gain / cost), key, y))

    for key in access_counts:
        if reader.list_len(int(key)) > 0:
            push(int(key), 0)

    selected: dict[int, int] = {}
    spent = 0
    while heap and spent < budget_postings:
        neg, key, y = heapq.heappop(heap)
        got_len = reader.list_len(key)
        depth = min(int(rb[y]), got_len)
        add = depth - selected.get(key, 0)
        if spent + add > budget_postings:
            continue
        spent += add
        selected[key] = depth
        if y + 1 < rb.size:
            push(key, y + 1)
    return selected


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
    """Q5: per-query budgeted greedy depth choice; pair chunks get the
    reference's 5x weight (algo_toplayer.h:272-374)."""
    rb = model.rank_bounds
    heap: list[tuple[float, int, int]] = []

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
        w = pair_weight if is_pair else 1.0
        gain = w * (model.prob[is_pair][x, y] - prev_p)
        if cost > 0:
            heapq.heappush(heap, (-(gain / cost), key, y))

    for k in keys:
        if reader.list_len(int(k)) > 0:
            push(int(k), 0)

    depths: dict[int, int] = {}
    spent = 0
    while heap and spent < budget_postings:
        _, key, y = heapq.heappop(heap)
        got_len = reader.list_len(key)
        depth = min(int(rb[y]), got_len)
        add = depth - depths.get(key, 0)
        if spent + add > budget_postings:
            continue
        spent += add
        depths[key] = depth
        if y + 1 < rb.size:
            push(key, y + 1)
    return depths


def coverage_bitmask_candidates(
    reader: IndexReader,
    model: QualityModel,
    term_ids: list[int],
    budget_postings: int = 2000,
    num_candidates: int = 10,
) -> list[tuple[int, int]]:
    """Q6, the reference's ACTUAL merge shape (algo_toplayer.cpp
    Vec_Merge :300-338 + the nextGEQ patch phase :935-976): accumulate
    partial scores from the selected UNIGRAM prefixes with a per-term
    coverage bitmask, then for every candidate doc patch each UNCOVERED
    term with a point lookup into its full list (skipped when the doc
    is outside the list's range — the lookupPruningTable analog).

    Exists as the differential reference for predictive_candidates'
    pool-restricted TAAT: both must produce identical (score, doc)
    results on the same selection (tested), which is the semantic-
    equivalence claim for the documented Q6 deviation."""
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
