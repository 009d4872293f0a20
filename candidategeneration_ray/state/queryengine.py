"""Stateful query engine: posting-list intersection + block-max WAND top-k.

The Ray analog of the reference's C++ per-query operator
(algo_toplayer.cpp:85-290): a callable class holding the static index
in memory (T2, ctor algo_toplayer.cpp:61-83). pipelines.query.run_queries
builds one per worker process and index version, and feeds it the query
batches of every call on that version from stateless map tasks, so its
list caches stay warm across calls; it can also be held in-process or
as a named actor for interactive serving.

Differences by design (SURVEY §7.4): full lists are doc-id-ordered with
block-max metadata, so top-k is EXACT block-max WAND — the reference's
sampled keeptop/keeptop2 pruning (algo_toplayer.cpp:1057-1189) and
skip-pointer patch lookups (nextGEQ, :935-976) collapse into the WAND
advance primitive (nextGEQ == np.searchsorted on the decoded list).
Rank identity contract: score(doc) = Σ quantized per-term BM25 ints of
the distinct query terms present in the doc; order (score desc, doc_id
asc); ties beyond k are excluded by doc-id order (DAAT emits ascending
doc ids, so equal-score later docs never displace incumbents).

The d-bigram lists power `candidates()` — the predictive candidate
generation path (reference Q5/Q6: pair lists provide high-precision
co-occurrence candidates; unigram top-layer prefixes patch single-term
coverage) — an approximate pool generator for a downstream ranker,
while `topk()` stays exact. It is served as one top-layer gather
(IndexReader.top_layer_docs): every augmented key is resolved with one
searchsorted per generation and absent keys drop out; a list no longer
than its depth is its own top layer, so all such lists (pair lists
mostly are) are decoded in one batch straight from the segment bytes;
a longer list is sliced from its cached impact order
(IndexReader.impact_order), never re-sorted per call.
"""

from __future__ import annotations

import glob
import heapq
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.functions.arrowutil import binary_column_concat, one_chunk
from candidategeneration_ray.functions.codecs import (
    decode_docs, decode_docs_concat)
from candidategeneration_ray.functions.groups import outside_ranges, run_starts
from candidategeneration_ray.functions.keys import pack_pair
from candidategeneration_ray.functions.tokenize import tokenize_text


class _List:
    """Decoded posting list + cursor for DAAT traversal."""

    __slots__ = ("docs", "scores", "block_max", "block_last", "pos", "ub", "ub_pos")

    def __init__(self, docs, scores, block_max, block_last):
        self.docs = docs            # int64 ascending
        self.scores = scores        # int32 quantized BM25
        self.block_max = block_max  # int32 per block
        self.block_last = block_last
        self.pos = 0
        self.ub = int(block_max.max()) if block_max.size else 0
        # Upper-bound CONTRIBUTION of this list to any doc's total: a doc
        # not in the list contributes 0, a doc in it at most `ub` — so
        # max(ub, 0). Quantized BM25 is negative when df > N/2
        # (utilsClass.java:122), where classic WAND's non-negativity
        # assumption breaks; clamping keeps pruning sound (a doc in a
        # SUBSET of lists can outscore a prefix sum of signed UBs).
        self.ub_pos = max(self.ub, 0)

    def cur(self) -> int:
        return int(self.docs[self.pos]) if self.pos < self.docs.size else _EXHAUSTED

    def next_geq(self, target: int) -> int:
        """Advance cursor to the first doc >= target (the nextGEQ skip
        primitive, algo_toplayer.cpp:935-976)."""
        self.pos += int(np.searchsorted(self.docs[self.pos:], target))
        return self.cur()

    def cur_block_max(self, block_size: int) -> int:
        return int(self.block_max[self.pos // block_size])

    def cur_block_last(self, block_size: int) -> int:
        return int(self.block_last[self.pos // block_size])


_EXHAUSTED = 1 << 62


def _list_column(col: pa.ChunkedArray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(values, offsets) of a list<int> column: row r is
    values[offsets[r]:offsets[r + 1]]. `ListArray.offsets` are absolute
    into `.values` (the child is not sliced with the array), so a sliced
    array needs no rebasing."""
    arr = one_chunk(col)
    values = arr.values.to_numpy(zero_copy_only=False).astype(dtype, copy=False)
    return values, arr.offsets.to_numpy()


def _gather_ranges(data: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The ranges data[lo[i]:hi[i]] concatenated, and the offset of each
    range in the result (len(lo) + 1)."""
    lens = hi - lo
    off = np.zeros(lens.size + 1, np.int64)
    np.cumsum(lens, out=off[1:])
    idx = np.arange(off[-1], dtype=np.int64) + np.repeat(lo - off[:-1], lens)
    return data[idx], off


class _Generation:
    """One segment family's sorted-key view (a full index, or one LSM
    delta generation from pipelines.update.update_index).

    The list columns are flat numpy views over the Arrow buffers, built
    once at open: row r's doc blob is docs[doc_off[r]:doc_off[r + 1]],
    and likewise for scores, block_max and block_last. `order` maps a
    sorted key position to its row."""

    __slots__ = ("keys", "order", "n", "codec", "docs", "doc_off", "scores",
                 "score_off", "bmax", "bmax_off", "blast", "blast_off")

    def __init__(self, table: pa.Table, codec: str = "varint"):
        raw = table.column("key").to_numpy()
        self.order = np.argsort(raw, kind="stable")
        self.keys = raw[self.order]
        if self.keys.size and bool(np.any(self.keys[1:] == self.keys[:-1])):
            raise ValueError(
                "duplicate keys within one segment source — an LSM index "
                "(final + generations) must be passed as a LIST of "
                "sources, not one directory globbed recursively")
        self.n = table.column("n").to_numpy()[self.order]
        self.codec = codec
        self.docs, self.doc_off = binary_column_concat(table.column("docs"))
        scores, score_off = binary_column_concat(table.column("scores"))
        self.scores = scores.view("<i4")   # raw little-endian int32 rows
        self.score_off = score_off // 4
        self.bmax, self.bmax_off = _list_column(table.column("block_max"),
                                                np.int32)
        self.blast, self.blast_off = _list_column(table.column("block_last"),
                                                  np.int64)

    def find(self, key: int) -> int:
        """Sorted position of `key` or -1."""
        i = int(np.searchsorted(self.keys, key))
        if i >= self.keys.size or self.keys[i] != key:
            return -1
        return i

    def positions(self, keys: np.ndarray) -> np.ndarray:
        """Sorted position of each of `keys`, -1 where absent."""
        i = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return np.where(self.keys[i] == keys, i, -1)

    def decode(self, i: int):
        """(docs, scores, block_max, block_last) at sorted position `i`."""
        r = int(self.order[i])
        docs = decode_docs(self.docs[self.doc_off[r]:self.doc_off[r + 1]],
                           int(self.n[i]), self.codec).astype(np.int64)
        return (docs,
                self.scores[self.score_off[r]:self.score_off[r + 1]],
                self.bmax[self.bmax_off[r]:self.bmax_off[r + 1]],
                self.blast[self.blast_off[r]:self.blast_off[r + 1]])

    def decode_docs_at(self, pos: np.ndarray):
        """Doc ids of the lists at sorted positions `pos`, in one
        decode: (docs int64 flat, per-list offsets len(pos) + 1)."""
        rows = self.order[pos]
        blob, byte_off = _gather_ranges(self.docs, self.doc_off[rows],
                                        self.doc_off[rows + 1])
        docs, off = decode_docs_concat(blob, self.n[pos], self.codec, byte_off)
        return docs.astype(np.int64), off


def _load_segment_table(source, buckets: list[int] | None) -> pa.Table | None:
    if isinstance(source, str):
        files = sorted(glob.glob(os.path.join(source, "**", "*.parquet"), recursive=True))
        filters = [("bucket", "in", list(buckets))] if buckets is not None else None
        tables = [pq.read_table(f, filters=filters) for f in files]
        return pa.concat_tables(tables) if tables else None
    table = source
    if buckets is not None:
        import pyarrow.compute as pc

        table = table.filter(
            pc.is_in(table.column("bucket"),
                     value_set=pa.array(list(buckets), pa.int32())))
    return table


class IndexReader:
    """Loads index segments (parquet dir or pyarrow Table) + lazy list decode.

    `source` may also be a LIST of segment sources — an LSM view of a
    base index plus delta generations (pipelines.update.update_index):
    list order must be ascending doc-id range (base first). Per-key
    lists are concatenated across generations at decode time — valid
    because generations hold DISJOINT, ascending doc-id ranges (delta
    conversations are appended after the base corpus), checked at every
    decode — and block-max metadata is rebuilt over the concatenation so
    WAND/BMW skipping stays exact without compaction.
    """

    def __init__(self, source, stats: dict | None = None, cfg: EngineConfig | None = None,
                 buckets: list[int] | None = None,
                 tombstones: dict | None = None,
                 doc_filter: np.ndarray | None = None):
        """`buckets`: load only these key-hash buckets — the unit of a
        key-sharded serving fleet (each shard owns a bucket subset of
        the bucket-partitioned segment layout).

        `tombstones`: {"starts", "ends"} sorted disjoint doc-id ranges
        (pipelines.update.load_tombstones) — deleted docs are filtered
        at decode time and block metadata is rebuilt over the survivors,
        so WAND/BMW stays exact without compaction. Under tombstones
        `list_len`/`max_list_len` report the UNDELETED counts (upper
        bounds on served lengths); exact lengths come from `get`.

        `doc_filter`: sorted array of ALLOWED doc ids — the filtered
        index view (metadata-restricted retrieval: serve only docs
        matching a predicate computed outside the index). Applied at
        decode like tombstones (keep-set instead of drop-ranges), so
        every top-k algorithm stays exact over the filtered corpus;
        scores keep the full-corpus statistics (the index's epoch —
        a serving-time filter never rescores)."""
        self.cfg = cfg or EngineConfig()
        sources = source if isinstance(source, list) else [source]
        self._gens: list[_Generation] = []
        for s in sources:
            table = _load_segment_table(s, buckets)
            if table is None or table.num_rows == 0:
                continue  # a generation may be empty in the selected buckets
            self._gens.append(_Generation(table.combine_chunks(),
                                           codec=self.cfg.codec))
        if not self._gens:
            raise ValueError(f"no index segments found in {source!r}")
        if len(self._gens) == 1:
            self._keys = self._gens[0].keys
        else:
            self._keys = np.unique(np.concatenate([g.keys for g in self._gens]))
        self._cache: dict[int, tuple] = {}
        self._impact: dict[int, np.ndarray] = {}
        self._dense: dict[int, tuple] = {}
        if tombstones is not None and len(tombstones.get("starts", ())):
            self._tomb = (np.asarray(tombstones["starts"], dtype=np.int64),
                          np.asarray(tombstones["ends"], dtype=np.int64))
        else:
            self._tomb = None
        self._doc_filter = (np.asarray(doc_filter, dtype=np.int64)
                            if doc_filter is not None else None)
        self.stats = stats
        self.term_to_id = (
            {t: i + 1 for i, t in enumerate(stats["terms"])} if stats else None
        )

    @property
    def keys(self) -> np.ndarray:
        return self._keys

    def list_len(self, key: int) -> int:
        total = 0
        for g in self._gens:
            i = g.find(key)
            if i >= 0:
                total += int(g.n[i])
        return total

    def max_list_len(self) -> int:
        """Longest posting list in the index (upper bound across
        generations: per-generation maxima summed)."""
        return int(sum(int(g.n.max()) if g.n.size else 0 for g in self._gens))

    # decoded lists kept hot per reader; bounded so a long-lived serving
    # actor streaming rare keys cannot grow without limit
    MAX_CACHED_LISTS = 4096

    def get(self, key: int):
        """Decoded (docs, scores, block_max, block_last) or None."""
        if key in self._cache:
            return self._cache[key]
        parts = []
        for g in self._gens:
            i = g.find(key)
            if i >= 0:
                parts.append(g.decode(i))
        if not parts:
            return None
        if len(parts) == 1:
            docs, scores, bmax, blast = parts[0]
        else:
            # LSM view: generations hold disjoint ascending doc ranges,
            # so per-key lists concatenate in generation order. Block
            # metadata is rebuilt over the concatenation (block
            # boundaries do not survive concat).
            prev_last = parts[0][0][-1]
            for d, _, _, _ in parts[1:]:
                if d[0] <= prev_last:
                    _raise_overlap(key, d[0], prev_last)
                prev_last = d[-1]
            docs = np.concatenate([p[0] for p in parts])
            scores = np.concatenate([p[1] for p in parts])
            bmax = None  # rebuilt below
            blast = None
        keep = self._live(docs)
        if keep is not None:
            # persisted metadata covers the dropped postings
            docs, scores, bmax = docs[keep], scores[keep], None
        if docs.size == 0:
            val = None  # every posting deleted or filtered — key vanishes
        else:
            if bmax is None:
                bs = self.cfg.block_size
                starts = np.arange(0, docs.size, bs, dtype=np.int64)
                bmax = np.maximum.reduceat(scores, starts).astype(np.int32)
                blast = docs[np.minimum(starts + bs, docs.size) - 1]
            val = (docs, scores, bmax, blast)
        if len(self._cache) >= self.MAX_CACHED_LISTS:
            self._cache.pop(next(iter(self._cache)))  # FIFO eviction
        self._cache[key] = val
        return val

    def _live(self, docs: np.ndarray) -> np.ndarray | None:
        """Mask of the postings in `docs` that are served — outside every
        tombstoned [start, end) range (pipelines.update.delete_docs;
        sorted, disjoint) and in doc_filter — or None when all are (the
        common case costs one searchsorted per filter)."""
        keep = None
        if self._tomb is not None and docs.size:
            keep = outside_ranges(docs, *self._tomb)
        if self._doc_filter is not None and docs.size:
            allowed = self._doc_filter
            if allowed.size == 0:
                ok = np.zeros(docs.size, dtype=bool)
            else:
                idx = np.minimum(np.searchsorted(allowed, docs),
                                 allowed.size - 1)
                ok = allowed[idx] == docs
            keep = ok if keep is None else keep & ok
        return None if keep is None or keep.all() else keep

    # dense views exist only for lists at least this long (occupancy
    # high enough that the O(doc_space) arrays pay for themselves)
    DENSE_VIEW_MIN = 100_000
    MAX_DENSE_VIEWS = 16   # ~5 MB per view at 1M docs/shard — bounded

    def dense_view(self, key: int):
        """(scores int32 over [0, last_doc], presence bool) for a HOT
        list — O(1) random probes and vectorized accumulate for the
        lists where per-needle binary search / bincount dominates
        serving latency. Returns None for short lists or sparse doc
        spaces; cached and warmed like the decoded lists."""
        v = self._dense.get(key)
        if v is not None:
            return v
        got = self.get(key)
        if got is None:
            return None
        docs, scores, _, _ = got
        if (docs.size < self.DENSE_VIEW_MIN
                or int(docs[-1]) > TAAT_DENSE_MAX_DOC):
            return None
        n = int(docs[-1]) + 1
        ds = np.zeros(n, np.int32)
        ds[docs] = scores
        dp = np.zeros(n, bool)
        dp[docs] = True
        if len(self._dense) >= self.MAX_DENSE_VIEWS:
            self._dense.pop(next(iter(self._dense)))  # FIFO eviction
        self._dense[key] = (ds, dp)
        return self._dense[key]

    def impact_order(self, key: int) -> np.ndarray | None:
        """Cached argsort of a decoded list by (score desc, doc asc) —
        the impact order (Anh & Moffat CIKM'06) that ta_impact_topk
        deepens through; warmed alongside the hot lists so serving
        never pays the lexsort inline."""
        o = self._impact.get(key)
        if o is not None:
            return o
        got = self.get(key)
        if got is None:
            return None
        docs, scores, _, _ = got
        o = np.lexsort((docs, -scores.astype(np.int64))).astype(np.int32)
        if len(self._impact) >= self.MAX_CACHED_LISTS:
            self._impact.pop(next(iter(self._impact)))  # FIFO eviction
        self._impact[key] = o
        return o

    def query_term_ids(self, text: str,
                       tokens: list[str] | None = None) -> list[int]:
        """Query conversion (Metadata.java:191-225): tokenize with the
        corpus tokenizer, map to term ids, drop unmapped terms;
        distinct. `tokens` overrides tokenization for callers whose
        index vocabulary is a transform of the raw tokens (e.g. the
        stemmed family — re-tokenizing stemmed text would re-apply
        stopword/length filters the stem may now trip)."""
        assert self.term_to_id is not None, "IndexReader needs stats for queries"
        toks = tokenize_text(text) if tokens is None else tokens
        ids = {self.term_to_id[t] for t in toks if t in self.term_to_id}
        return sorted(ids)

    def augmented_keys(self, term_ids: list[int]) -> list[int]:
        """Query augmentation (Metadata.java:236-262, WWW.java:302-345):
        unigram ids, then every 2-subset (i < j) packed by
        functions.keys.pack_pair: low id << 32 | high id (the
        reference's `(long)a << 32 | b` on the sorted pair,
        WWW.java:432-434, InvertedIndex.java:289-290). pack_pair raises
        ValueError on an id outside [0, 2^31), whose pair key would be
        negative or collide with another pair's."""
        ids = np.asarray(term_ids, dtype=np.int64)
        # the i < j index pairs in row-major order (np.triu_indices'
        # layout, at a sixth of its per-call cost)
        i, j = np.nonzero(np.arange(ids.size)[:, None] < np.arange(ids.size))
        lo, hi = np.minimum(ids[i], ids[j]), np.maximum(ids[i], ids[j])
        return list(term_ids) + pack_pair(lo, hi).tolist()

    def top_layer(self, key: int, depth: int):
        """Impact-ordered prefix of a list (reference top layer,
        SelectChuncks.java:41-47 / BigramIndex.java:126-151): the `depth`
        highest-scoring postings, (doc_ids, scores), score desc then
        doc asc — a slice of the cached impact_order."""
        got = self.get(key)
        if got is None:
            return np.empty(0, np.int64), np.empty(0, np.int32)
        order = self.impact_order(key)[:depth]
        return got[0][order], got[1][order]

    def top_layer_docs(self, keys: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Sorted distinct doc ids in the union of top_layer(key, depth)
        over the pairs of `keys` and `depths` — one gather instead of a
        call per key. Each generation resolves all keys with one
        searchsorted; absent keys drop out before any per-key work. A
        list no longer than its depth is its own top layer, so all such
        lists are decoded together in one batch per generation, bypassing
        the list cache, with tombstones and doc_filter applied once to
        the gathered docs. Longer lists go through top_layer."""
        keys = np.asarray(keys, dtype=np.int64)
        depths = np.asarray(depths, dtype=np.int64)
        pos = [g.positions(keys) for g in self._gens]
        counts = [np.where(p >= 0, g.n[p], 0) for g, p in zip(self._gens, pos)]
        n = sum(counts)
        whole = (n > 0) & (n <= depths)
        parts = []
        prev_last = np.full(keys.size, -1, np.int64)  # doc ids are >= 0
        for g, p, c in zip(self._gens, pos, counts):
            k = np.flatnonzero(whole & (c > 0))
            if k.size == 0:
                continue
            docs, off = g.decode_docs_at(p[k])
            # generations must hold disjoint ascending doc ranges per key
            first, last = docs[off[:-1]], docs[off[1:] - 1]
            bad = np.flatnonzero(first <= prev_last[k])
            if bad.size:
                _raise_overlap(int(keys[k[bad[0]]]), first[bad[0]],
                               prev_last[k[bad[0]]])
            prev_last[k] = last
            parts.append(docs)
        pools = [np.empty(0, np.int64)]
        if parts:
            docs = np.concatenate(parts)
            keep = self._live(docs)
            pools.append(docs if keep is None else docs[keep])
        for k in np.flatnonzero(n > depths).tolist():
            pools.append(self.top_layer(int(keys[k]), int(depths[k]))[0])
        return np.unique(np.concatenate(pools))


def _raise_overlap(key: int, first, prev_last):
    raise ValueError(
        f"index generations overlap on key {key}: doc {int(first)} <= "
        f"{int(prev_last)}; generations must hold disjoint ascending "
        "doc-id ranges")


def wand_topk(lists: list[_List], k: int, block_size: int) -> list[tuple[int, int]]:
    """Exact top-k by (score desc, doc_id asc) via block-max WAND.

    Algorithm follows the published literature: WAND pivoting (Broder,
    Carmel, Herscovici, Soffer, Zien, "Efficient query evaluation using
    a two-level retrieval process", CIKM 2003) with block-max skipping
    (Ding & Suel, "Faster top-k document retrieval using block-max
    indexes", SIGIR 2011), adapted for signed quantized scores.

    Invariants that make this exact:
      - docs are traversed in ascending doc-id order, so with a full
        heap a candidate must score STRICTLY above theta (equal-score
        later docs lose the doc-id tie-break);
      - a skip is taken only when an upper bound over ALL lists that can
        contain the skipped docs is <= theta.
    """
    lists = [l for l in lists if l.docs.size]
    if not lists:
        return []
    heap: list[tuple[int, int]] = []  # (score, -doc_id) min-heap
    theta = None  # kth best score once heap full

    while True:
        lists.sort(key=lambda l: l.cur())
        while lists and lists[-1].cur() == _EXHAUSTED:
            lists.pop()
        if not lists:
            break
        # pivot: first index where the cumulative list upper bound beats
        # theta (clamped-at-zero UBs — see _List.ub_pos)
        pivot = -1
        acc = 0
        for i, l in enumerate(lists):
            acc += l.ub_pos
            if theta is None or acc > theta:
                pivot = i
                break
        if pivot < 0:
            break  # even the sum of all list UBs cannot beat theta
        pivot_doc = lists[pivot].cur()

        if lists[0].cur() != pivot_doc:
            # not enough mass aligned yet: advance the largest-UB list
            # strictly below the pivot doc (lists at pivot_doc already
            # would make next_geq a no-op and stall the loop)
            adv = max(
                (i for i in range(pivot) if lists[i].cur() < pivot_doc),
                key=lambda i: lists[i].ub_pos,
            )
            lists[adv].next_geq(pivot_doc)
            continue

        # equal prefix = every list currently positioned on pivot_doc;
        # only these lists can contain pivot_doc
        m = 1
        while m < len(lists) and lists[m].cur() == pivot_doc:
            m += 1

        if theta is not None:
            # BMW shallow check: current-block maxes of the equal prefix
            # (clamped at 0 — docs in the skip range need not be in
            # every prefix list)
            bound = sum(max(l.cur_block_max(block_size), 0) for l in lists[:m])
            if bound <= theta:
                # Docs in [pivot_doc, d'-1] appear only in the equal
                # prefix (every other list's cursor is beyond) and stay
                # inside each list's current block (d'-1 <= min
                # block_last), so `bound` covers them all → skip.
                target = min(l.cur_block_last(block_size) for l in lists[:m]) + 1
                if m < len(lists):
                    target = min(target, lists[m].cur())
                if target <= pivot_doc:
                    target = pivot_doc + 1
                for l in lists[:m]:
                    l.next_geq(target)
                continue

        # full evaluation of pivot_doc
        score = 0
        for l in lists[:m]:
            score += int(l.scores[l.pos])
            l.pos += 1
        if theta is None or score > theta:
            heapq.heappush(heap, (score, -pivot_doc))
            if len(heap) > k:
                heapq.heappop(heap)
            if len(heap) == k:
                theta = heap[0][0]

    return sorted(((s, -nd) for s, nd in heap), key=lambda p: (-p[0], p[1]))


def _score_window(covering: list[_List], end: int):
    """(docs ascending, int64 score sums) of every posting of `covering`
    up to doc `end` inclusive, each list's cursor moved past `end`: the
    vectorized window step of blockmax_topk and maxscore_topk."""
    chunks_d, chunks_s = [], []
    for l in covering:
        e = l.pos + int(np.searchsorted(l.docs[l.pos:], end, side="right"))
        chunks_d.append(l.docs[l.pos:e])
        chunks_s.append(l.scores[l.pos:e].astype(np.int64))
        l.pos = e
    d = np.concatenate(chunks_d)
    s = np.concatenate(chunks_s)
    order = np.argsort(d, kind="stable")
    d, s = d[order], s[order]
    starts = run_starts(d)
    return d[starts], np.add.reduceat(s, starts)


def _merge_top(top_docs, top_scores, cand_d, cand_s, k: int):
    """The incumbents merged with a window's candidates: the best k by
    (score desc, doc asc) and theta, the kth score (None below k)."""
    md = np.concatenate((top_docs, cand_d))
    ms = np.concatenate((top_scores, cand_s))
    keep = np.lexsort((md, -ms))[:k]
    top_docs, top_scores = md[keep], ms[keep]
    theta = int(top_scores.min()) if top_docs.size == k else None
    return top_docs, top_scores, theta


def blockmax_topk(lists: list[_List], k: int, block_size: int) -> list[tuple[int, int]]:
    """Exact top-k by (score desc, doc_id asc), vectorized block-at-a-
    time (the BMM family: Ding & Suel SIGIR 2011 block-max metadata,
    evaluated a window per step instead of a doc per step).

    Replaces wand_topk's per-doc Python pointer walk for the degenerate
    hot-term case: each step either SKIPS a whole window [start, end]
    (when the clamped block-max sum over the lists that can contain it
    is <= theta — cost: one in-block searchsorted per list) or scores
    every posting in the window with one concatenate + sort + reduceat,
    then merges candidates into the incumbent top-k with one lexsort.

    Exactness: windows advance in ascending doc order, so incumbents
    always have smaller doc ids than later candidates; a skipped doc
    with score == theta would lose the (score desc, doc asc) tie-break
    anyway, and the merged lexsort selection applies the exact order
    within each evaluated window."""
    lists = [l for l in lists if l.docs.size]
    if not lists:
        return []
    top_docs = np.empty(0, np.int64)
    top_scores = np.empty(0, np.int64)
    theta = None

    while lists:
        curs = np.array([l.cur() for l in lists], dtype=np.int64)
        # window end: smallest current-block last-doc among the lists —
        # every doc in [min(curs), end] lies inside each covering
        # list's CURRENT block, so that block's max bounds it
        end = min(l.cur_block_last(block_size) for l in lists)
        covering = [l for l, c in zip(lists, curs) if c <= end]
        if theta is not None:
            ub = sum(max(l.cur_block_max(block_size), 0) for l in covering)
            if ub <= theta:
                for l in covering:
                    l.next_geq(end + 1)
                lists = [l for l in lists if l.cur() != _EXHAUSTED]
                continue
        # score the whole window vectorized, merge into incumbents
        cand_d, cand_s = _score_window(covering, end)
        top_docs, top_scores, theta = _merge_top(
            top_docs, top_scores, cand_d, cand_s, k)
        lists = [l for l in lists if l.cur() != _EXHAUSTED]

    order = np.lexsort((top_docs, -top_scores))
    return [(int(top_scores[i]), int(top_docs[i])) for i in order]


def maxscore_topk(lists: list[_List], k: int, block_size: int) -> list[tuple[int, int]]:
    """Exact top-k by (score desc, doc_id asc) via DAAT MaxScore
    (Turtle & Flood, "Query evaluation: strategies and optimizations",
    IP&M 1995), vectorized window-at-a-time like blockmax_topk.

    Lists sort ascending by list-level clamped upper bound (ub_pos);
    once the heap holds k docs, the longest PREFIX whose UB sum is
    <= theta is NON-ESSENTIAL: a doc absent from every essential list
    is bounded by that prefix sum, so it cannot strictly beat theta,
    and an exact tie loses the doc-id tie-break to the incumbent
    (windows advance in ascending doc order, so incumbents always have
    smaller doc ids — same argument as blockmax_topk). Candidates are
    therefore generated only from the ESSENTIAL suffix, a window at a
    time; non-essential lists are never traversed — each window's
    surviving candidates probe them with one np.searchsorted per list,
    largest bound first, dropping candidates as soon as
    partial + remaining-prefix UB <= theta.

    The split index is monotone (theta only rises, UBs are static), so
    a list that turns non-essential never needs its cursor again: its
    already-consumed prefix lies strictly below every later window, and
    probes binary-search the whole array.
    """
    lists = [l for l in lists if l.docs.size]
    if not lists:
        return []
    lists.sort(key=lambda l: l.ub_pos)
    # prefix_ub[i] = sum of ub_pos of lists[:i]
    prefix_ub = np.concatenate(([0], np.cumsum([l.ub_pos for l in lists])))
    top_docs = np.empty(0, np.int64)
    top_scores = np.empty(0, np.int64)
    theta = None
    split = 0  # lists[:split] are non-essential (probe-only)

    while True:
        if theta is not None:
            while (split < len(lists)
                   and prefix_ub[split + 1] <= theta):
                split += 1
        ess = [l for l in lists[split:] if l.cur() != _EXHAUSTED]
        if not ess:
            break
        ne = lists[:split]
        ne_total = int(prefix_ub[split])
        # window [min cur, end]: every doc in it lies inside each
        # covering essential list's CURRENT block
        end = min(l.cur_block_last(block_size) for l in ess)
        covering = [l for l in ess if l.cur() <= end]
        if theta is not None:
            ub = ne_total + sum(max(l.cur_block_max(block_size), 0)
                                for l in covering)
            if ub <= theta:
                for l in covering:
                    l.next_geq(end + 1)
                continue
        # candidate docs + partial (essential) scores, vectorized
        cand_d, cand_s = _score_window(covering, end)
        # probe non-essential lists, largest UB first; before probing
        # lists[:j+1] drop candidates whose best case cannot beat theta
        for j in range(split - 1, -1, -1):
            if not cand_d.size:
                break
            if theta is not None:
                keep = cand_s + int(prefix_ub[j + 1]) > theta
                cand_d, cand_s = cand_d[keep], cand_s[keep]
                if not cand_d.size:
                    break
            ldocs = ne[j].docs
            idx = np.searchsorted(ldocs, cand_d)
            hit = (idx < ldocs.size) & (ldocs[np.minimum(idx, ldocs.size - 1)]
                                        == cand_d)
            cand_s = cand_s + np.where(
                hit, ne[j].scores[np.minimum(idx, ldocs.size - 1)].astype(np.int64), 0)
        if cand_d.size:
            top_docs, top_scores, theta = _merge_top(
                top_docs, top_scores, cand_d, cand_s, k)

    order = np.lexsort((top_docs, -top_scores))
    return [(int(top_scores[i]), int(top_docs[i])) for i in order]


# densest doc-id that still buys the bincount accumulator (8+8 bytes
# per slot); beyond it the sort-merge path takes over. Serving shards
# are doc-partitioned well below this at any corpus size.
TAAT_DENSE_MAX_DOC = 1 << 26
# dense accumulators also need the postings to OCCUPY the doc space:
# total_postings * OCC >= dmax, else a sparse query over a huge doc
# range would pay O(dmax) allocation for O(postings) work
TAAT_DENSE_OCCUPANCY = 16


def taat_topk(reader: IndexReader, term_ids: list[int], k: int) -> list[tuple[int, int]]:
    """Vectorized exact TAAT scorer (reference Vec_Merge/TAAT analog,
    algo_toplayer.cpp:300-338,757-858) — the internal cross-check for
    WAND.

    Doc ids are dense turn ordinals, so the accumulator is a float64
    bincount scatter-add over [0, max_doc]. It is exact: scores are
    int32 (|score| < 2^31), so a query of fewer than 2^22 lists sums
    below 2^31 × 2^22 = 2^53, where every integer is a float64 — an
    O(postings + doc_space) merge that replaced the concatenate +
    argsort + reduceat path (the old merge's sort dominated warm-query
    latency: 36 ms vs ~3 ms for a 500k-posting query). Sparse/huge doc
    spaces (> TAAT_DENSE_MAX_DOC) keep the sort-merge."""
    gathered = []
    for t in term_ids:
        got = reader.get(t)
        if got is not None and got[0].size:   # skip empty lists
            gathered.append((t, got[0], got[1]))
    if not gathered:
        return []
    docs_all = [d for _, d, _ in gathered]
    scores_all = [s for _, _, s in gathered]
    dmax = int(max(d[-1] for d in docs_all))
    total_postings = sum(d.size for d in docs_all)
    if len(gathered) == 1:
        uniq = docs_all[0]
        sums = scores_all[0].astype(np.int64)
    elif (dmax <= TAAT_DENSE_MAX_DOC
          and total_postings * TAAT_DENSE_OCCUPANCY >= dmax):
        acc = np.zeros(dmax + 1)
        hits = np.zeros(dmax + 1, bool)
        rest_d, rest_s = [], []
        for t, d, s in gathered:
            dv = reader.dense_view(t)
            if dv is not None:   # hot list: vectorized dense add
                ds, dp = dv
                acc[:ds.size] += ds
                hits[:dp.size] |= dp
            else:
                rest_d.append(d)
                rest_s.append(s)
        if rest_d:
            docs = np.concatenate(rest_d)
            scores = np.concatenate(rest_s)  # int32; bincount → float64
            acc += np.bincount(docs, weights=scores, minlength=dmax + 1)
            hits |= np.bincount(docs, minlength=dmax + 1) > 0
        uniq = np.nonzero(hits)[0]
        sums = acc[uniq].astype(np.int64)  # |sum| < 2^53 → exact
    else:
        docs = np.concatenate(docs_all)
        scores = np.concatenate([s.astype(np.int64) for s in scores_all])
        order = np.argsort(docs, kind="stable")
        docs, scores = docs[order], scores[order]
        starts = run_starts(docs)
        uniq = docs[starts]
        sums = np.add.reduceat(scores, starts)
    if uniq.size > k:
        # shrink to the ties-inclusive top-k before the exact lexsort
        kth = np.partition(sums, uniq.size - k)[uniq.size - k]
        m = sums >= kth
        uniq, sums = uniq[m], sums[m]
    top = np.lexsort((uniq, -sums))[:k]
    return [(int(sums[i]), int(uniq[i])) for i in top]


def ta_impact_topk(reader: IndexReader, term_ids: list[int],
                   k: int) -> list[tuple[int, int]]:
    """Exact top-k via impact-ordered iterative deepening — Fagin's
    threshold algorithm (Fagin, Lotem & Naor PODS'01) over
    score-sorted (impact-ordered, Anh & Moffat CIKM'06) list views.

    The winning path wherever most postings score <= 0 (df > N/2
    terms quantize negative, utilsClass.java:122): the heavy
    all-non-positive mix, where WAND/MaxScore cannot prune (every
    clamped UB is 0) and TAAT merges all postings, and the rare + hot
    mix, where one short positive list decides the answer and the
    search usually stops after its first round. Each round explores
    the top-K impact prefix of every list, probes EXACT totals for the
    union of explored docs (one searchsorted per list — lists stay
    doc-sorted), and stops when no unexplored doc can beat the
    incumbent kth total:

        unexplored u in list subset S has score_l(u) <= next_l for
        every l in S, so total(u) <= max_l [next_l + sum of positive
        next_m over other lists] = bound; bound < theta (strict, so
        doc-id ties keep the explored incumbent) ends the search.

    K doubles per round and every round is INCREMENTAL: only the docs
    first seen this round are probed (a dense seen-bitmap dedups them
    — doc ids are dense ordinals, same argument as taat_topk's
    bincount), and the incumbent pool keeps the ties-inclusive top-k
    explored so far, so total work is O(K_final · lists · log n), not
    rounds × that."""
    trips = []
    dmax = 0
    npost = 0
    for t in term_ids:
        got = reader.get(t)
        if got is not None and got[0].size:   # skip empty lists
            trips.append((got[0], got[1], reader.impact_order(t),
                          reader.dense_view(t)))
            dmax = max(dmax, int(got[0][-1]))
            npost += int(got[0].size)
    if not trips:
        return []
    if (dmax > TAAT_DENSE_MAX_DOC
            or npost * TAAT_DENSE_OCCUPANCY < dmax):
        # sparse/huge doc space: the O(dmax) seen-bitmap loses
        return taat_topk(reader, term_ids, k)
    seen = np.zeros(dmax + 1, bool)
    pool_d = np.empty(0, np.int64)
    pool_s = np.empty(0, np.int64)
    base = max(4 * k, 1024)
    kcur = [0] * len(trips)     # explored impact-prefix length per list
    while True:
        # per-list next unexplored score; per-list bound = what a doc
        # first appearing in THAT list could still total
        nxt = [int(s[o[kc]]) if kc < d.size else None
               for (d, s, o, _), kc in zip(trips, kcur)]
        live = [x for x in nxt if x is not None]
        done, active = False, []
        if not live:
            done = True
        elif pool_s.size >= k:
            theta = int(np.partition(pool_s,
                                     pool_s.size - k)[pool_s.size - k])
            pos = sum(max(x, 0) for x in live)
            done = max(x + pos - max(x, 0) for x in live) < theta
            active = [i for i, x in enumerate(nxt)
                      if x is not None and x + pos - max(x, 0) >= theta]
        else:
            active = [i for i, x in enumerate(nxt) if x is not None]
        if done:
            sel = np.lexsort((pool_d, -pool_s))[:k]
            return [(int(pool_s[i]), int(pool_d[i])) for i in sel]
        fresh_parts = []
        for i in active:        # deepen only lists that can still win
            d, _, o, _ = trips[i]
            knew = min(d.size, max(2 * kcur[i], base))
            chunk = d[o[kcur[i]:knew]]
            kcur[i] = knew
            new = chunk[~seen[chunk]]
            seen[new] = True
            fresh_parts.append(new)
        fresh = np.concatenate(fresh_parts)
        fresh.sort()   # sorted needles: cache-friendly binary probes
        if fresh.size:
            totals = np.zeros(fresh.size, np.int64)
            for d, s, _, dv in trips:
                if dv is not None:      # O(1) dense probes (hot list)
                    ds, dp = dv
                    idx = np.minimum(fresh, ds.size - 1)
                    hit = (fresh < ds.size) & dp[idx]
                    totals += np.where(hit, ds[idx].astype(np.int64), 0)
                else:
                    idx = np.minimum(np.searchsorted(d, fresh),
                                     d.size - 1)
                    hit = d[idx] == fresh
                    totals += np.where(hit, s[idx].astype(np.int64), 0)
            pool_d = np.concatenate((pool_d, fresh))
            pool_s = np.concatenate((pool_s, totals))
            if pool_d.size > k:  # ties-inclusive shrink of the pool
                kth = np.partition(pool_s,
                                   pool_s.size - k)[pool_s.size - k]
                m = pool_s >= kth
                pool_d, pool_s = pool_d[m], pool_s[m]


class QueryEngine:
    """Static index in memory: `topk`/`candidates` per query, and
    `__call__` maps a batch of (query_id, text) → top-k rows (the
    per-worker engine of run_queries)."""

    def __init__(self, index_source, stats_ref, cfg: EngineConfig | None = None,
                 tombstones_ref=None, doc_filter_ref=None):
        import ray

        stats = stats_ref if isinstance(stats_ref, dict) else ray.get(stats_ref)
        if isinstance(index_source, (str, pa.Table, list)):
            src = index_source
        else:
            src = ray.get(index_source)
        tombs = tombstones_ref
        if tombs is not None and not isinstance(tombs, dict):
            tombs = ray.get(tombs)
        doc_filter = doc_filter_ref
        if doc_filter is not None and not isinstance(doc_filter, np.ndarray):
            doc_filter = ray.get(doc_filter)
        self.cfg = cfg or EngineConfig()
        self.reader = IndexReader(src, stats, self.cfg, tombstones=tombs,
                                  doc_filter=doc_filter)

    # below this many total postings the vectorized TAAT merge beats the
    # pointer-walking WAND loop regardless of selectivity (measured)
    TAAT_THRESHOLD = 1_000_000
    # above this many total postings an all-non-positive multi-term mix
    # dispatches to impact-ordered TA instead of the full TAAT merge
    TA_IMPACT_THRESHOLD = 200_000

    def warm(self, top_lists: int = 64) -> int:
        """Decode the `top_lists` longest unigram lists into the
        reader's bounded cache — serving-actor startup warmup so the
        first live query never pays the cold decode of a hot list
        (the p95-tail suspect: ~7 ms per 200k-posting list cold vs
        <0.1 ms cached). Returns the number of lists decoded."""
        r = self.reader
        uni = r.keys[r.keys < (1 << 32)]
        if uni.size == 0:
            return 0
        lens = np.zeros(uni.size, np.int64)
        for g in r._gens:          # vectorized per generation: O(vocab)
            m = g.keys < (1 << 32)
            np.add.at(lens, np.searchsorted(uni, g.keys[m]), g.n[m])
        hot = uni[np.argsort(-lens, kind="stable")[:top_lists]]
        n = 0
        for t in hot:
            if r.get(int(t)) is not None:
                r.impact_order(int(t))  # ta_impact path warms with it
                r.dense_view(int(t))    # dense probe/accumulate view
                n += 1
        return n

    def topk(self, text: str, k: int | None = None,
             algorithm: str = "auto",
             tokens: list[str] | None = None) -> list[tuple[int, int]]:
        """Exact BM25 top-k [(score, doc_id)] for a free-text query.

        Hybrid dispatch, every path rank-identical (tested equal):
        impact-ordered TA (ta_impact_topk) serves multi-term queries
        whose postings mostly score <= 0 (hot terms with df > N/2 —
        common in conversational corpora): the rare + hot mix, and the
        all-non-positive mix past TA_IMPACT_THRESHOLD postings;
        block-max WAND serves positive-UB queries past TAAT_THRESHOLD
        postings; the vectorized TAAT merge serves the rest.
        `algorithm` forces "wand" (vectorized block-at-a-time,
        blockmax_topk) / "maxscore" (DAAT MaxScore, probe-only
        non-essential lists) / "taat" / "ta_impact" / "wand_scalar"
        (the per-doc pointer walk, kept as the differential reference).
        """
        k = k or self.cfg.top_k
        ids = self.reader.query_term_ids(text, tokens=tokens)
        lists = []
        for t in ids:
            got = self.reader.get(t)
            if got is not None:
                lists.append(_List(*got))
        if not lists:
            return []
        if algorithm == "auto":
            total = sum(l.docs.size for l in lists)
            ub_pos_sum = sum(l.ub_pos for l in lists)
            # impact-ordered TA for the multi-term mixes whose postings
            # mostly score <= 0. Rare + hot: the positive-UB lists hold
            # under a quarter of the postings and TA stops after one
            # impact prefix (perfbench mixed class, 4 CPUs: 0.17 / 0.21
            # / 0.22 ms at 7k / 34k / 137k docs; MaxScore 0.78-0.85 ms,
            # TAAT 0.16-2.2 ms). Heavy all-non-positive: UB pruning is
            # impossible and TAAT touches every posting (3 ms vs 11 ms
            # on a 408k-posting two-hot-term query).
            ess_total = sum(l.docs.size for l in lists if l.ub_pos > 0)
            if len(lists) > 1 and (
                    (0 < ub_pos_sum and ess_total * 4 < total)
                    or (ub_pos_sum == 0
                        and total >= self.TA_IMPACT_THRESHOLD)):
                algorithm = "ta_impact"
            else:
                algorithm = ("taat" if len(lists) == 1 or ub_pos_sum == 0
                             or total < self.TAAT_THRESHOLD else "wand")
        if algorithm == "taat":
            return taat_topk(self.reader, ids, k)
        if algorithm == "ta_impact":
            return ta_impact_topk(self.reader, ids, k)
        if algorithm == "wand_scalar":
            return wand_topk(lists, k, self.cfg.block_size)
        if algorithm == "maxscore":
            return maxscore_topk(lists, k, self.cfg.block_size)
        return blockmax_topk(lists, k, self.cfg.block_size)

    def candidates(self, text: str, budget: int = 200, pair_weight: int = 5) -> np.ndarray:
        """Predictive candidate pool (reference Q5/Q6 analog): take
        impact-ordered prefixes of the query's pair lists (weighted
        deeper, algo_toplayer.h:272-374 gives pairs 5x weight) and
        unigram lists, union the doc ids. Approximate by design.

        One top-layer gather over all augmented keys: a key whose list
        holds at most `budget` postings (`budget * pair_weight` for a
        pair) contributes the whole list, batch-decoded with the other
        short lists and never entering the list cache; a longer list
        contributes `impact_order(key)[:depth]`, the cached impact
        order's prefix. The pool equals the union of top_layer(key,
        depth) over the keys."""
        r = self.reader
        keys = np.asarray(r.augmented_keys(r.query_term_ids(text)), np.int64)
        depths = np.where(keys >= (1 << 32), budget * pair_weight, budget)
        return r.top_layer_docs(keys, depths)

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docs, scores = [], [], [], []
        id_col = batch.column("query_id").to_pylist()
        for qid, text in zip(id_col, batch.column("text").to_pylist()):
            for rank, (s, d) in enumerate(self.topk(text)):
                qids.append(qid)
                ranks.append(rank)
                docs.append(d)
                scores.append(s)
        return pa.table({
            "query_id": pa.array(qids, pa.int64()),
            "rank": pa.array(ranks, pa.int32()),
            "doc_id": pa.array(docs, pa.int64()),
            "score": pa.array(scores, pa.int64()),
        })
