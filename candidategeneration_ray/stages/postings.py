"""Posting emission: (doc_id, tokens) -> listbuild.partial_rows rows.

Re-expresses the reference's per-doc emission loops as one map_batches
stage over (key:int64, score:int32, doc_id:int64) postings, combined per
batch into partial-list rows:

  - unigram postings (InvertedIndex.java:364-389): one posting per
    DISTINCT term per doc, score = quantized BM25 of that term in the
    doc; key = term id (int64 < 2^32);
  - d-bigram postings (InvertedIndex.java:264-314): one posting per
    distinct d-window pair per doc, score = bm25(lo) + bm25(hi); key =
    packed pair (>= 2^32, disjoint key space).

Per-doc tf / maxFreq are recomputed inline (np.unique with counts)
instead of the reference's second localTermStats pass
(utilsClass.java:85-110) — that pass only existed because the Java heap
could not hold the corpus.

The broadcast index stats (dictionary, df, N, avgdl) are pulled ONCE
per worker process in __init__ (T1, InvertedIndex.java:86-121 analog). All
per-batch math is numpy; the only Python loop is over docs in the
batch, each iteration doing vectorized work.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.functions.bm25 import bm25_quantized
from candidategeneration_ray.functions.keys import pack_pair, unpack_pair
from candidategeneration_ray.functions.tableutil import cluster_cpus
from candidategeneration_ray.functions.workercache import worker_cached
from candidategeneration_ray.stages.listbuild import partial_rows


class PostingEmitter:
    """One batch of (doc_id, doc_len, tokens) rows → its partial rows;
    emit_postings caches one instance per worker process.

    `stats_ref` is the whole broadcast dictionary (compute_stats /
    build.load_stats), turned into a term → id dict once per worker;
    `prior_ref`, when given, is a range-blocked prior from
    docids.rank_prior_scalable."""

    def __init__(self, stats_ref, cfg: EngineConfig | None = None,
                 filter_ref=None, prior_ref=None):
        stats = ray.get(stats_ref) if not isinstance(stats_ref, dict) else stats_ref
        self.cfg = cfg or EngineConfig()
        # HIT-family mode (InvertedIndex.java:375-378): when a per-doc
        # static prior is supplied, unigram postings carry the doc's
        # prior rank instead of BM25 (pairs are not emitted — the HIT
        # family is unigram-only). The prior is range-blocked
        # ({"block_refs", "block_first_doc"}, stages.docids.
        # rank_prior_scalable).
        if prior_ref is None:
            self.prior = None
        else:
            self.prior = ray.get(prior_ref) if not isinstance(prior_ref, dict) else prior_ref
        self._prior_block_cache: dict[int, dict] = {}
        self.term_to_id = {t: i + 1 for i, t in enumerate(stats["terms"])}
        self.df_by_id = np.asarray(stats["df_by_id"], dtype=np.int64)
        self.n_docs = stats["n_docs"]
        self.avgdl = stats["avgdl"]
        # filter set (M4/J1: broadcast semi-join; sorted int64 keys)
        if filter_ref is None:
            self.filter_keys = None
        else:
            fk = ray.get(filter_ref) if not isinstance(filter_ref, np.ndarray) else filter_ref
            self.filter_keys = np.sort(np.asarray(fk, dtype=np.int64))

    def _prior_ranks(self, pdocs: np.ndarray) -> np.ndarray:
        """doc_id -> static prior rank from the range-blocked prior:
        pulls only the mapping blocks this batch's doc range touches
        (cached per worker), so the prior never has to fit in one
        object (10^12-doc scale path)."""
        pr = self.prior
        firsts = pr["block_first_doc"]
        bidx = np.searchsorted(firsts, pdocs, side="right") - 1
        if bidx.size and bidx.min() < 0:
            raise KeyError(
                f"HIT prior has no rank for doc_ids "
                f"{pdocs[bidx < 0][:5].tolist()} (below first block)")
        ranks = np.empty(pdocs.size, dtype=np.int32)
        for bi in np.unique(bidx):
            if bi not in self._prior_block_cache:
                t = ray.get(pr["block_refs"][bi])
                t = t if hasattr(t, "column") else t.to_arrow()
                self._prior_block_cache[bi] = {
                    "doc_ids": t.column("doc_id").to_numpy().astype(np.int64),
                    "rank": t.column("rank").to_numpy().astype(np.int32),
                }
            blk = self._prior_block_cache[bi]
            rows = bidx == bi
            want = pdocs[rows]
            pos = np.searchsorted(blk["doc_ids"], want)
            pos = np.minimum(pos, blk["doc_ids"].size - 1)
            if not np.array_equal(blk["doc_ids"][pos], want):
                missing = want[blk["doc_ids"][pos] != want][:5]
                raise KeyError(
                    f"HIT prior has no rank for doc_ids {missing.tolist()}; "
                    "the prior map must cover every indexed doc")
            ranks[rows] = blk["rank"][pos]
        return ranks

    def _apply_filter(self, keys: np.ndarray) -> np.ndarray:
        """Boolean mask of keys present in the filter set (searchsorted
        membership — no shuffle, reference InvertedIndex.java:291)."""
        if self.filter_keys.size == 0:
            return np.zeros(keys.size, dtype=bool)
        pos = np.searchsorted(self.filter_keys, keys)
        pos = np.minimum(pos, self.filter_keys.size - 1)
        return self.filter_keys[pos] == keys

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Batch-GLOBAL vectorized emission — no per-doc Python loop.

        All docs' token ids are processed as one flat array with a
        parallel doc-index array; per-(doc,term) tf, per-doc maxtf,
        window pairs (masked at doc boundaries) and dedup all run as
        whole-batch numpy kernels.
        """
        cfg = self.cfg
        col = batch.column("tokens").combine_chunks()
        offsets = col.offsets.to_numpy().astype(np.int64)
        base = offsets[0]
        lens = np.diff(offsets)
        # token -> term id via Arrow dictionary encode (C++ hash), then a
        # small Python pass over the batch's UNIQUE tokens only
        flat_strs = col.values
        if flat_strs.offset != 0 or len(flat_strs) != (offsets[-1] - base):
            flat_strs = flat_strs.slice(0, len(flat_strs))
        denc = flat_strs.dictionary_encode()
        lookup = self.term_to_id
        uniq_ids = np.fromiter(
            (lookup[t] for t in denc.dictionary.to_pylist()),
            dtype=np.int64, count=len(denc.dictionary),
        )
        indices = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        flat_ids = uniq_ids[indices]

        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        doc_lens = batch.column("doc_len").to_numpy().astype(np.int64)
        n_tok = flat_ids.size
        if n_tok == 0:
            out_key = []
        else:
            didx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), lens)
            # --- per-(doc, term) tf via one global lexsort
            order = np.lexsort((flat_ids, didx))
            sd, si = didx[order], flat_ids[order]
            new_grp = np.concatenate(([True], (sd[1:] != sd[:-1]) | (si[1:] != si[:-1])))
            gstart = np.nonzero(new_grp)[0]
            gend = np.concatenate((gstart[1:], [n_tok]))
            tf = gend - gstart                      # per (doc, term)
            g_doc = sd[gstart]                      # doc index per group
            g_term = si[gstart]                     # term id per group
            # per-doc max tf: groups are doc-contiguous
            doc_first = np.concatenate(([True], g_doc[1:] != g_doc[:-1]))
            dstart = np.nonzero(doc_first)[0]
            maxtf_per_presentdoc = np.maximum.reduceat(tf, dstart)
            # map back: docs with zero tokens never appear in groups
            present_docs = g_doc[dstart]
            maxtf_by_doc = np.zeros(batch.num_rows, dtype=np.int64)
            maxtf_by_doc[present_docs] = maxtf_per_presentdoc

            scores = bm25_quantized(
                tf, maxtf_by_doc[g_doc], doc_lens[g_doc], self.df_by_id[g_term],
                self.n_docs, self.avgdl, cfg.k1, cfg.b, cfg.quantization,
            )

            if self.prior is not None:
                # replace scores with the doc's prior rank (HIT family)
                scores = self._prior_ranks(doc_ids[g_doc])

            out_key, out_score, out_doc = [], [], []
            if cfg.emit_unigrams:
                if self.filter_keys is not None:
                    um = self._apply_filter(g_term)
                    out_key.append(g_term[um])
                    out_score.append(scores[um])
                    out_doc.append(doc_ids[g_doc[um]])
                else:
                    out_key.append(g_term)
                    out_score.append(scores)
                    out_doc.append(doc_ids[g_doc])
            if cfg.emit_pairs and n_tok >= 2 and self.prior is None:
                # window pairs, batch-global: shift + doc-boundary mask.
                # Pair entries are built over batch-LOCAL term ranks so
                # (doc, pair) packs into ONE int64 when it fits — a
                # single np.sort dedup instead of a two-key lexsort
                # (~1.5x on the hottest kernel); falls back to the
                # lexsort path for huge batch vocabularies.
                v_local = np.int64(uniq_ids.size)  # batch vocab (== |uniq|)
                # rank of each token's global id among the batch's
                # sorted unique ids — order-isomorphic to global ids
                uniq_sorted = np.sort(uniq_ids)
                rank_of_code = np.searchsorted(uniq_sorted, uniq_ids).astype(np.int64)
                flat_rank = rank_of_code[indices]
                packable = (
                    v_local * v_local * batch.num_rows < (1 << 62)
                )
                chunks_k, chunks_d = [], []
                for s in range(1, cfg.distance + 1):
                    if s >= n_tok:
                        break
                    same = didx[:-s] == didx[s:]
                    a = flat_rank[:-s][same]
                    b2 = flat_rank[s:][same]
                    lo = np.minimum(a, b2)
                    hi = np.maximum(a, b2)
                    chunks_k.append(lo * v_local + hi)
                    chunks_d.append(didx[:-s][same])
                pk = np.concatenate(chunks_k) if chunks_k else np.empty(0, np.int64)
                pd_ = np.concatenate(chunks_d) if chunks_d else np.empty(0, np.int64)
                if packable and pk.size:
                    combined = pd_ * (v_local * v_local) + pk
                    combined = np.sort(combined)
                    keep = np.concatenate(([True], combined[1:] != combined[:-1]))
                    combined = combined[keep]
                    pd_ = combined // (v_local * v_local)
                    pk = combined % (v_local * v_local)
                elif pk.size:
                    porder = np.lexsort((pk, pd_))
                    pk, pd_ = pk[porder], pd_[porder]
                    keep = np.concatenate(([True], (pd_[1:] != pd_[:-1]) | (pk[1:] != pk[:-1])))
                    pk, pd_ = pk[keep], pd_[keep]
                # local rank pair -> global packed pair key
                if pk.size:
                    pk = pack_pair(uniq_sorted[pk // v_local],
                                   uniq_sorted[pk % v_local])
                if pk.size and self.filter_keys is not None:
                    pm = self._apply_filter(pk)
                    pk, pd_ = pk[pm], pd_[pm]
                if pk.size:
                    # score lookup: (doc, term) -> score via searchsorted
                    # on the group table (sorted by (doc, term) already)
                    gkey = pack_pair(g_doc, g_term)
                    lo_t, hi_t = unpack_pair(pk)
                    s_lo = scores[np.searchsorted(gkey, pack_pair(pd_, lo_t))]
                    s_hi = scores[np.searchsorted(gkey, pack_pair(pd_, hi_t))]
                    out_key.append(pk)
                    out_score.append((s_lo.astype(np.int64) + s_hi).astype(np.int32))
                    out_doc.append(doc_ids[pd_])

        if not out_key:
            e = np.empty(0, np.int64)
            return partial_rows(e, e, e, cfg.num_buckets)
        return partial_rows(np.concatenate(out_key),
                            np.concatenate(out_score).astype(np.int32),
                            np.concatenate(out_doc), cfg.num_buckets)


def emit_batch(cfg: EngineConfig, rows: int | None = None) -> int:
    """Rows per emission batch for a stream of `rows` turns: an even
    share per cluster CPU, ceil(rows / CPUs), capped at
    `cfg.emit_batch_size`. Without a row count the cap is the batch."""
    if rows is None:
        return cfg.emit_batch_size
    return max(1, min(cfg.emit_batch_size, -(-rows // cluster_cpus())))


def emit_postings(ds, stats_ref, cfg: EngineConfig | None = None,
                  filter_ref=None, prior_ref=None, rows: int | None = None):
    """Map the token dataset to the posting stream (T1, SURVEY §2.3).

    The stream is listbuild's one input format: partial rows from
    listbuild.partial_rows, bucketed over `cfg.num_buckets` in the same
    map, so it enters build_posting_lists' exchange without another
    pass — build the lists with the same `cfg`.

    `rows` is the turn count of `ds`. Batches hold emit_batch(cfg,
    rows) turns: one share per cluster CPU, so a stream smaller than
    CPUs x `cfg.emit_batch_size` still runs one emission task per CPU
    (6,972 turns on 4 CPUs: one 0.59 s task became four that span
    0.44 s). Without `rows` the batch is the cap. The index does not
    depend on the batch size: the list fold re-sorts every key.

    Emission runs as stateless TASKS with a per-worker-process emitter
    cache: the broadcast state (ray.put ref) is deserialized once per
    worker, like an actor pool, but without the pool's cold-start cost
    (~5 s for 32 fresh actor processes per build — measured; worker
    processes are already warm from earlier stages and are reused).
    """
    cfg = cfg or EngineConfig()
    # Broadcast plain objects ONCE here so (a) every worker shares one
    # plasma copy instead of re-shipping state per task, and (b) the
    # task-path worker cache below can key on the ref's stable hex id —
    # keying on id() of a plain object risks CPython id reuse handing a
    # later build a stale emitter with the previous build's stats.
    if stats_ref is not None and not hasattr(stats_ref, "hex"):
        stats_ref = ray.put(stats_ref)
    if filter_ref is not None and not hasattr(filter_ref, "hex"):
        filter_ref = ray.put(np.asarray(filter_ref, dtype=np.int64))
    if prior_ref is not None and not hasattr(prior_ref, "hex"):
        prior_ref = ray.put(prior_ref)
    projected = ds.select_columns(["doc_id", "doc_len", "tokens"])

    def _rid(r):
        return None if r is None else r.hex()

    key = (_rid(stats_ref), _rid(filter_ref), _rid(prior_ref))

    def _emit(batch: pa.Table) -> pa.Table:
        em = worker_cached(
            "emit_postings", key,
            lambda: PostingEmitter(stats_ref, cfg, filter_ref, prior_ref),
            bound=4)  # bound worker-heap growth
        return em(batch)

    return projected.map_batches(
        _emit, batch_format="pyarrow", batch_size=emit_batch(cfg, rows))
