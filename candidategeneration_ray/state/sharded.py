"""Document-sharded distributed query serving.

At index sizes past one node's memory, serving shards BY DOCUMENT
RANGE: each shard actor loads one partition's sub-index (the
doc-range-disjoint segments the partitioned build already produces) and
answers every query over its doc slice with the full local engine
(hybrid TAAT / block-max WAND). A doc's total score lives entirely in
its own shard, so per-shard top-k + a k-way merge of S×k candidates is
EXACT — the textbook scatter-gather layout (and the Ray-actors case
SURVEY §2.9 anticipates: a shared serving fleet the Dataset API doesn't
express).

This generalizes the reference's single-process C++ engine
(algo_toplayer.cpp ctor :61-83) to a fleet; rank identity vs the
single-engine path is tested.
"""

from __future__ import annotations

import numpy as np
import ray

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.functions.groups import run_starts
from candidategeneration_ray.state.queryengine import QueryEngine


# Shard actors are pure functions of their segment dir + broadcast
# stats, so Ray can transparently restart a crashed one (re-running
# __init__ reloads the segments) and retry the in-flight pure topk
# calls — serving survives worker loss without fleet-level logic.
@ray.remote(max_restarts=2, max_task_retries=2)
class _ShardActor:
    def __init__(self, part_dir: str, stats_ref, cfg: EngineConfig,
                 tombstones_ref=None):
        self.engine = QueryEngine(part_dir, stats_ref, cfg,
                                  tombstones_ref=tombstones_ref)

    def topk(self, text: str, k: int) -> list[tuple[int, int]]:
        return self.engine.topk(text, k=k)

    def ping(self) -> bool:
        return True


class ShardedQueryEngine:
    """Fan-out/merge serving over partition sub-indexes.

    part_dirs: the build's segments/part-* directories (doc-range
    disjoint). Corpus-wide stats are shipped once via ray.put.

    LSM updates compose for free: a delta generation
    (pipelines.update) holds a disjoint doc range BY CONSTRUCTION, so
    appending its dir to part_dirs adds the new documents to the fleet
    as one more shard — no re-shard of existing actors, and the
    scatter-gather merge stays exact (tested equal to the
    multi-generation QueryEngine).
    """

    def __init__(self, part_dirs: list[str], stats: dict,
                 cfg: EngineConfig | None = None,
                 tombstones: dict | None = None):
        """`tombstones` (pipelines.update.load_tombstones): deleted-doc
        ranges, shipped once and filtered inside every shard — deletes
        compose with doc-sharding exactly like generations do."""
        self.cfg = cfg or EngineConfig()
        stats_ref = ray.put(stats)
        tomb_ref = ray.put(tombstones) if tombstones is not None else None
        self.shards = [
            _ShardActor.remote(d, stats_ref, self.cfg, tomb_ref)
            for d in part_dirs
        ]
        ray.get([s.ping.remote() for s in self.shards])  # surface init errors

    def topk(self, text: str, k: int | None = None) -> list[tuple[int, int]]:
        """Exact global top-k: per-shard top-k (concurrent), then merge
        by (score desc, doc_id asc)."""
        k = k or self.cfg.top_k
        partials = ray.get([s.topk.remote(text, k) for s in self.shards])
        merged = [p for part in partials for p in part]
        merged.sort(key=lambda p: (-p[0], p[1]))
        return merged[:k]

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []


# ------------------------------------------------ term-partitioned fleet

def _sum_by_doc(docs: list, scores: list):
    """(distinct docs, int64 score sums) over doc-sorted runs: a stable
    argsort of concatenated sorted runs beats a fresh sort."""
    docs = np.concatenate(docs)
    order = np.argsort(docs, kind="stable")
    docs = docs[order]
    starts = run_starts(docs)
    return docs[starts], np.add.reduceat(
        np.concatenate(scores).astype(np.int64)[order], starts)


@ray.remote(max_restarts=2, max_task_retries=2)
class _TermShardActor:
    """Owns a disjoint set of key-hash buckets: loads ONLY those
    buckets' segments (predicate-pushdown read on the bucket column)
    and answers per-query PARTIAL accumulations over the terms it
    owns. BM25 totals are additive across terms, so partial (doc,
    sum) vectors from disjoint term sets merge exactly by summing."""

    def __init__(self, index_source, stats_ref, cfg: EngineConfig,
                 buckets: list[int]):
        from candidategeneration_ray.state.queryengine import IndexReader

        self.buckets = set(buckets)
        self.reader = IndexReader(index_source, stats_ref, cfg,
                                  buckets=sorted(buckets))

    def partial(self, term_ids: list[int]):
        docs_all, scores_all = [], []
        for t in term_ids:
            got = self.reader.get(int(t))
            if got is not None:
                docs_all.append(got[0])
                scores_all.append(got[1])
        if not docs_all:
            return (np.empty(0, np.int64), np.empty(0, np.int64))
        return _sum_by_doc(docs_all, scores_all)

    def ping(self) -> bool:
        return True


class TermShardedQueryEngine:
    """Term-partitioned scatter-gather serving — the classic
    counterpart of the doc-sharded fleet above (Moffat et al.,
    "A pipelined architecture for distributed text query evaluation"):
    the index splits BY KEY-HASH BUCKET, each shard holds whole posting
    lists for its share of the vocabulary, a query fans out only to the
    shards owning its terms, and the coordinator sums the disjoint
    partial accumulations (exact — BM25 totals are additive over
    terms). Trade-off vs doc-sharding: lists never split (skip
    structures stay whole) but the network ships match-set-sized
    partials instead of k-sized tops, and hot terms hot-spot their
    shard — which is why the entry exists next to ShardedQueryEngine,
    hash-verified against the same oracle."""

    def __init__(self, index_source, stats: dict, n_shards: int = 4,
                 cfg: EngineConfig | None = None):
        from candidategeneration_ray.functions.keys import bucket_of

        self.cfg = cfg or EngineConfig()
        self._bucket_of = bucket_of
        stats_ref = ray.put(stats)
        self.stats = stats
        nb = self.cfg.num_buckets
        self.n_shards = min(n_shards, nb)
        owner = [list(range(s, nb, self.n_shards))
                 for s in range(self.n_shards)]
        self.shards = [
            _TermShardActor.remote(index_source, stats_ref, self.cfg, bks)
            for bks in owner
        ]
        ray.get([s.ping.remote() for s in self.shards])

    def _shard_of(self, term_ids):
        b = self._bucket_of(np.asarray(term_ids, np.int64),
                            self.cfg.num_buckets)
        return b % self.n_shards

    def topk(self, text: str, k: int | None = None) -> list[tuple[int, int]]:
        from candidategeneration_ray.functions.tokenize import tokenize_text

        k = k or self.cfg.top_k
        t2i = {t: i + 1 for i, t in enumerate(self.stats["terms"])}
        ids = sorted({t2i[t] for t in tokenize_text(text) if t in t2i})
        if not ids:
            return []
        sh = self._shard_of(ids)
        futs = []
        for s in range(self.n_shards):
            owned = [ids[i] for i in range(len(ids)) if sh[i] == s]
            if owned:
                futs.append(self.shards[s].partial.remote(owned))
        parts = ray.get(futs)
        uniq, tot = _sum_by_doc([p[0] for p in parts], [p[1] for p in parts])
        top = np.lexsort((uniq, -tot))[:k]
        return [(int(tot[i]), int(uniq[i])) for i in top]

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
