"""Engine operators exposed over the driver's `documents` test table.

Each function here takes `sf_dir` (e.g. /root/testdata/sf0.01), runs a
REAL engine pipeline over `documents.parquet` (doc_id:int64, text:string,
...) and returns a small result the DuckDB oracle in __ray_entry__ can
check value-for-value. The documents table plays the transcript role
with pre-assigned doc ids (the reference's externally-assigned docInfo
ids, InvertedIndex.java:140).

Index builds are cached under /tmp/cg_ray_cache/src-<code digest>/
v<format>-<tag>-<input digest> (_cache_dir) so repeated queries()/bench calls
reuse the build (and exercise the resume path).
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import ray
import ray.data

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.functions.groups import group_sum, run_starts
from candidategeneration_ray.functions.keys import pack_pair
from candidategeneration_ray.functions.tableutil import (
    ranked_table, sized_read_kwargs, table_buckets,
)
from candidategeneration_ray.stages.stats import compute_stats
from candidategeneration_ray.stages.tokenize import attach_tokens
from candidategeneration_ray.stages.postings import emit_postings

# Fixed query set used by the SQL oracles (mirrors the reference query
# trace Metadata.java:191-225: hot terms, rare terms, absent terms, a
# stopword-only query that must vanish, multi-term queries).
DOC_QUERIES: list[tuple[int, str]] = [
    (0, "query join order"),
    (1, "vector spark data"),
    (2, "customer window merge sort"),
    (3, "the a and"),          # stopword-only → no results
    (4, "absentterm9 zzz"),    # unmapped terms → no results
    (5, "batch"),
    (6, "stream filter hash table scan"),
]


def documents_ds(sf_dir: str) -> ray.data.Dataset:
    """Column-pruned documents read with size-aware blocks, floored at
    16 so tokenize/shingle map stages keep parallelism. Re-measured in
    round 5 AFTER the folds moved to the task-routed exchange: the r4
    rule ("keep Ray's default split — capping to 16 cost jaccard
    +2 s") inverted, because the block tax moved from the sort
    exchange to per-block fixed costs — at 16 blocks jaccard is
    8.8 -> 8.5 s, dedup_bm25 cold 7.8 -> 6.5 s, text_stats
    0.41 -> 0.20 s. Past 256 MB Ray's heuristic rules."""
    p = os.path.join(sf_dir, "documents.parquet")
    return ray.data.read_parquet(
        p, columns=["doc_id", "text"],
        **sized_read_kwargs(os.path.getsize(p), floor=16))


def doc_tokens(sf_dir: str) -> ray.data.Dataset:
    return attach_tokens(documents_ds(sf_dir))


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """md5 over the package's *.py sources (relative path and bytes),
    computed once per process."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.md5()
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


_CACHE_ROOT = "/tmp/cg_ray_cache"
# an entry of _CACHE_ROOT that other code built is removed once it has
# gone untouched this long; _cache_dir touches its code's directory on
# every call, so a process still running that code keeps its entries
_CACHE_IDLE_S = 3600


@functools.lru_cache(maxsize=None)
def _code_cache_root(cache_root: str, digest: str) -> str:
    """The directory of `cache_root` that holds the derived indexes
    built by the package sources with `digest`. The first call in a
    process removes every other entry of `cache_root` idle for
    _CACHE_IDLE_S: the indexes of other sources (and of the older flat
    layout), which this code never reads."""
    root = os.path.join(cache_root, f"src-{digest[:12]}")
    os.makedirs(root, exist_ok=True)
    cutoff = time.time() - _CACHE_IDLE_S
    for name in os.listdir(cache_root):
        p = os.path.join(cache_root, name)
        try:
            idle = os.stat(p).st_mtime < cutoff
        except FileNotFoundError:       # pruned by another process
            continue
        if p != root and idle:
            shutil.rmtree(p, ignore_errors=True)
    return root


def _cache_dir(sf_dir: str, tag: str) -> str:
    """Cache directory of a derived index over `sf_dir`, keyed on the
    package source (its own path component, _code_cache_root), on the
    path, and on each input file's size and mtime: a corpus rewritten
    at the same path (a reused temp dir) gets a fresh directory instead
    of an earlier corpus's index, which update paths mutate in place,
    and changed code never serves an index that older code built."""
    from candidategeneration_ray.config import FORMAT_VERSION

    root = _code_cache_root(_CACHE_ROOT, _source_digest())
    os.makedirs(root, exist_ok=True)    # a cache wiped since the first call
    os.utime(root)
    h = hashlib.md5(os.path.realpath(sf_dir).encode())
    for f in sorted(os.listdir(sf_dir)):
        if f.endswith(".parquet"):
            st = os.stat(os.path.join(sf_dir, f))
            h.update(f"|{f}:{st.st_size}:{st.st_mtime_ns}".encode())
    digest = h.hexdigest()[:10]
    return os.path.join(root, f"v{FORMAT_VERSION}-{tag}-{digest}")


# in-process memo of corpus stats per sf_dir — half a dozen entries
# need the same dictionary/df pass; one Ray groupby (~seconds) each
# adds up across the driver's correctness sweep
_STATS_MEMO: dict[str, dict] = {}


def corpus_stats(sf_dir: str) -> dict:
    key = os.path.realpath(sf_dir)
    if key not in _STATS_MEMO:
        _STATS_MEMO[key] = compute_stats(
            doc_tokens(sf_dir), table_buckets(sf_dir, "documents"))
    return _STATS_MEMO[key]


def _finish_documents_build(sf_dir: str, tag: str, cfg: EngineConfig,
                            make) -> dict:
    """Shared build of the documents-table index variants (standard /
    dedup / stemmed / fielded / chunked) under _cache_dir(sf_dir, tag):
    reuse a complete build, else take (token stream, stats) from
    `make()`, persist the stats with the synthesized one-"conv"
    lineage, emit postings and write the segments through
    build.write_lists."""
    from candidategeneration_ray.pipelines.build import (
        _persist_stats, load_stats, write_lists)
    from candidategeneration_ray.state import checkpoint as ckpt

    out_dir = _cache_dir(sf_dir, tag)
    final = os.path.join(out_dir, "final")
    src = os.path.join(sf_dir, "documents.parquet")
    if ckpt.is_complete(os.path.join(out_dir, "stats"), [src]) and ckpt.is_complete(final):
        stats, _ = load_stats(out_dir)
        return {"final_dir": final, "stats": stats}
    toks, stats = make()
    offsets = {  # documents have no conversations; one-"conv" lineage
        "conv_ids": np.array(["documents"], dtype=object),
        "bases": np.array([0], dtype=np.int64),
        "counts": np.array([stats["n_docs"]], dtype=np.int64),
        "n_docs": stats["n_docs"],
    }
    _persist_stats(out_dir, stats, offsets, [src])
    write_lists(emit_postings(toks, ray.put(stats), cfg), final, cfg,
                {"phase": "merge", "lineage": [src]})
    return {"final_dir": final, "stats": stats}


def build_documents_index(sf_dir: str, cfg: EngineConfig | None = None) -> dict:
    """Build (or reuse) the full static index over the documents table.

    Documents carry their own doc_id, so the transcript doc-id stage is
    replaced by a pass-through; everything downstream (stats, emission,
    bucketed list build, segments, manifests) is the standard pipeline.
    """
    cfg = cfg or EngineConfig()
    # cache key = full index-affecting config digest (a pruned build
    # must never collide with an unpruned one)
    return _finish_documents_build(
        sf_dir, f"docidx-{cfg.index_tag()}", cfg,
        lambda: (doc_tokens(sf_dir), corpus_stats(sf_dir)))


# ---------------------------------------------------------------- queries

def q_tokenize_counts(sf_dir: str) -> ray.data.Dataset:
    """Per-doc kept-token count (tokenizer M1 over documents)."""
    return doc_tokens(sf_dir).select_columns(["doc_id", "doc_len"]).map_batches(
        lambda t: pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "n_tokens": t.column("doc_len").cast(pa.int64()),
        }),
        batch_format="pyarrow",
    )


def q_global_stats(sf_dir: str) -> pa.Table:
    """Corpus stats N / total kept tokens (A1, InvertedIndex.java:171-172)."""
    stats = corpus_stats(sf_dir)
    return pa.table({
        "n_docs": pa.array([stats["n_docs"]], pa.int64()),
        "total_tokens": pa.array([stats["total_tokens"]], pa.int64()),
        "avgdl_trunc": pa.array([int(stats["avgdl"])], pa.int64()),
    })


def q_df_top50(sf_dir: str) -> pa.Table:
    """Document frequency, top 50 by (df desc, term asc) (A2)."""
    stats = corpus_stats(sf_dir)
    terms = np.asarray(stats["terms"], dtype=object)
    df = stats["df_by_id"][1:]
    order = np.lexsort((terms, -df))[:50]
    return pa.table({
        "term": pa.array(terms[order].tolist(), pa.string()),
        "df": pa.array(df[order], pa.int64()),
    })


def s_stem_unique(uniq: np.ndarray) -> list[str]:
    """Harman S-stemmer (Harman JASIS'91 "How effective is
    suffixing?") over a batch's UNIQUE tokens — the weakest of the
    classic English stemmers, prized in IR evaluation because it only
    conflates plural forms (no over-stemming): the longest matching
    suffix rule fires and its exception list decides change vs keep;
    later rules never apply once a suffix matched.
      ies → y   (unless eies, aies)
      es  → e   (unless aes, ees, oes)
      s   → ''  (unless us, ss)
    Applied over the dictionary (unique tokens), not the token stream
    — the batch-global dictionary-encode pattern."""
    out = []
    for t in uniq:
        if t.endswith("ies"):
            out.append(t if t.endswith(("eies", "aies")) else t[:-3] + "y")
        elif t.endswith("es"):
            out.append(t if t.endswith(("aes", "ees", "oes")) else t[:-1])
        elif t.endswith("s"):
            out.append(t if t.endswith(("us", "ss")) else t[:-1])
        else:
            out.append(t)
    return out


def q_stemmed_df_top50(sf_dir: str) -> pa.Table:
    """Stemmed document frequency, top 50 by (df desc, stem asc) — the
    S-stemmer normalization layer over the M1 tokenizer (the reference
    ships its Krovetz stemmer commented out, WWW.java:7,353 — stemming
    is the one normalization knob it documents but never turns on).

    Shape: per batch the token lists flatten once, stem over the
    np.unique dictionary (vocabulary-sized Python work, corpus-sized
    numpy take), per-doc distinct via one packed unique → (stem) rows
    → ONE groupby count; the driver ranks the O(vocab) aggregate."""
    from ray.data.aggregate import Count

    def _stem_doc_rows(batch: pa.Table) -> pa.Table:
        col = batch.column("tokens").combine_chunks()
        import pyarrow.compute as pc

        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(col).to_numpy()
        if flat.size == 0:
            return pa.table({"stem": pa.array([], pa.string())})
        uniq, inv = np.unique(flat.astype(object), return_inverse=True)
        stems = np.asarray(s_stem_unique(uniq), dtype=object)
        su, sinv = np.unique(stems, return_inverse=True)
        # distinct (doc, stem) pairs — docs are batch-local (one row
        # per doc), so within-batch dedup is global dedup
        packed = np.unique(parent.astype(np.int64) * np.int64(su.size)
                           + sinv[inv])
        return pa.table({
            "stem": pa.array(su[packed % su.size].tolist(), pa.string()),
        })

    def _top(batch: pa.Table) -> pa.Table:
        """Per-batch partial top-50 by (df desc, stem asc) — the
        global top 50 are each inside their batch's top 50, so the
        driver merges O(batches·50) rows, never the vocabulary."""
        stems = np.asarray(batch.column("stem").to_pylist(),
                           dtype=object)
        df = batch.column("df").to_numpy().astype(np.int64)
        order = np.lexsort((stems, -df))[:50]
        return pa.table({
            "stem": pa.array(stems[order].tolist(), pa.string()),
            "df": pa.array(df[order], pa.int64()),
        })

    agg = (doc_tokens(sf_dir)
           .map_batches(_stem_doc_rows, batch_format="pyarrow")
           .groupby("stem").aggregate(Count(alias_name="df"))
           .map_batches(_top, batch_format="pyarrow")
           ).to_pandas()                       # O(batches · 50) rows
    stems = agg["stem"].to_numpy(dtype=object)
    df = agg["df"].to_numpy(np.int64)
    order = np.lexsort((stems, -df))[:50]
    return pa.table({
        "stem": pa.array(stems[order].tolist(), pa.string()),
        "df": pa.array(df[order], pa.int64()),
    })


def q_term_postings(sf_dir: str, term: str = "vector") -> pa.Table:
    """Unigram posting list for one term: (doc_id, score) in doc order,
    decoded from the real compressed index (M7 + M8 + O1/O2)."""
    from candidategeneration_ray.state.queryengine import IndexReader

    built = build_documents_index(sf_dir)
    reader = IndexReader(built["final_dir"], built["stats"])
    tid = reader.term_to_id.get(term)
    got = reader.get(tid) if tid else None
    if got is None:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.int64())})
    docs, scores, _, _ = got
    return pa.table({
        "doc_id": pa.array(docs, pa.int64()),
        "score": pa.array(scores.astype(np.int64), pa.int64()),
    })


def q_unigram_list_lengths(sf_dir: str) -> pa.Table:
    """Per-term posting-list length from the built index (A4); equals df
    by construction — checked against SQL's independent count."""
    from candidategeneration_ray.state.queryengine import IndexReader

    built = build_documents_index(sf_dir)
    reader = IndexReader(built["final_dir"], built["stats"])
    terms = np.asarray(built["stats"]["terms"], dtype=object)
    uni = reader.keys[reader.keys < (1 << 32)]
    lens = np.array([reader.list_len(int(k)) for k in uni], dtype=np.int64)
    return pa.table({
        "term": pa.array(terms[uni.astype(np.int64) - 1].tolist(), pa.string()),
        "n": pa.array(lens, pa.int64()),
    })


def q_pruned_list_lengths(sf_dir: str, max_postings: int = 50,
                          prefix: int = 10) -> pa.Table:
    """Build-time list pruning (reference O3 sampled selection,
    InvertedIndex.java:428-462,500-512 — exact deterministic variant):
    per-term pruned unigram lists with content checksums. Each list
    keeps its first `prefix` postings in doc order plus the best
    (max_postings - prefix) of the rest by (score desc, doc asc).
    Output (term, n, doc_sum, score_sum) over ALL terms — the sums make
    the oracle comparison content-sensitive, not just length-sensitive."""
    from candidategeneration_ray.state.queryengine import IndexReader

    cfg = EngineConfig(emit_pairs=False, max_list_postings=max_postings,
                       unconditional_prefix=prefix)
    built = build_documents_index(sf_dir, cfg)
    reader = IndexReader(built["final_dir"], built["stats"], cfg)
    terms = np.asarray(built["stats"]["terms"], dtype=object)
    uni = reader.keys[reader.keys < (1 << 32)]
    ns, dsum, ssum = (np.empty(uni.size, dtype=np.int64) for _ in range(3))
    for i, k in enumerate(uni):
        docs, scores, _, _ = reader.get(int(k))
        ns[i] = docs.size
        dsum[i] = int(docs.sum())
        ssum[i] = int(scores.astype(np.int64).sum())
    return pa.table({
        "term": pa.array(terms[uni.astype(np.int64) - 1].tolist(), pa.string()),
        "n": pa.array(ns, pa.int64()),
        "doc_sum": pa.array(dsum, pa.int64()),
        "score_sum": pa.array(ssum, pa.int64()),
    })


def _delta_index(sf_dir: str, cfg: EngineConfig, compact: bool = True) -> str:
    """Build (or reuse) the delta-exercising LSM index: the documents
    table split at the doc-id midpoint into base + delta ingestion
    batches — full build, then update_index (+ compaction unless
    `compact=False`, which keeps the base generation intact for
    time-travel serving). Returns the index out_dir."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import update_index
    from candidategeneration_ray.state import checkpoint as ckpt

    root = _cache_dir(sf_dir, f"deltaidx{'' if compact else '-nc'}-{cfg.index_tag()}")
    out = os.path.join(root, "index")
    done = os.path.join(root, "DONE")
    if not os.path.exists(done):
        ckpt.clear_stale(root)
        tab = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "text"])
        ids = tab.column("doc_id").to_numpy()
        n = len(ids)
        assert ids.min() == 0 and ids.max() == n - 1, "doc_ids must be dense"
        conv = pa.array([f"{i:012d}" for i in ids.tolist()], pa.string())
        turns = pa.table({
            "conv_id": conv,
            "turn_idx": pa.array(np.zeros(n, np.int32), pa.int32()),
            "text": tab.column("text"),
        })
        mid = n // 2
        import pyarrow.compute as pc

        indir = os.path.join(root, "input")
        os.makedirs(indir, exist_ok=True)
        base_f = os.path.join(indir, "base.parquet")
        delta_f = os.path.join(indir, "delta.parquet")
        pq.write_table(turns.filter(pc.less(tab.column("doc_id"), mid)), base_f)
        pq.write_table(turns.filter(pc.greater_equal(tab.column("doc_id"), mid)), delta_f)
        build_index([base_f], out, cfg)
        update_index(out, [delta_f], cfg, compact=compact)
        with open(done, "w") as f:
            f.write("ok")
    return out


def _deleted_index(sf_dir: str, cfg: EngineConfig) -> str:
    """Build (or reuse) the delete-exercising index: full build over
    the documents table as single-turn conversations, then
    delete_docs of every conv with doc_id % 7 == 3 — tombstones left
    UNcompacted so serving exercises the decode-time filter (the
    compaction-identity property is pytest's job, tests/test_delete.py).
    Returns the index out_dir."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.build import build_index
    from candidategeneration_ray.pipelines.update import delete_docs
    from candidategeneration_ray.state import checkpoint as ckpt

    root = _cache_dir(sf_dir, f"delidx-{cfg.index_tag()}")
    out = os.path.join(root, "index")
    done = os.path.join(root, "DONE")
    if not os.path.exists(done):
        ckpt.clear_stale(root)
        tab = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "text"])
        ids = tab.column("doc_id").to_numpy()
        n = len(ids)
        assert ids.min() == 0 and ids.max() == n - 1, "doc_ids must be dense"
        turns = pa.table({
            "conv_id": pa.array([f"{i:012d}" for i in ids.tolist()], pa.string()),
            "turn_idx": pa.array(np.zeros(n, np.int32), pa.int32()),
            "text": tab.column("text"),
        })
        indir = os.path.join(root, "input")
        os.makedirs(indir, exist_ok=True)
        src = os.path.join(indir, "docs.parquet")
        pq.write_table(turns, src)
        build_index([src], out, cfg)
        delete_docs(out, [f"{i:012d}" for i in range(n) if i % 7 == 3])
        with open(done, "w") as f:
            f.write("ok")
    return out


def q_tombstone_delete_lists(sf_dir: str) -> pa.Table:
    """Tombstone DELETE end-to-end (pipelines.update.delete_docs — the
    LSM delete path; the reference can only rebuild, WWWMain.java:69-110):
    full build over the documents table, then every doc with
    doc_id % 7 == 3 deleted; lists served through the decode-time
    tombstone filter. Scores stay at the full-corpus epoch (frozen
    stats — the documented delete semantics), so score_sum over the
    SURVIVING postings must equal the full-corpus BM25 arithmetic
    restricted to live docs: doc sets AND frozen scores are both
    value-verified. Keys whose every posting is deleted vanish."""
    from candidategeneration_ray.pipelines.build import load_stats
    from candidategeneration_ray.pipelines.update import load_tombstones
    from candidategeneration_ray.state.queryengine import IndexReader

    cfg = EngineConfig(emit_pairs=False)
    out = _deleted_index(sf_dir, cfg)
    stats, _ = load_stats(out)
    reader = IndexReader(os.path.join(out, "final"), stats, cfg,
                         tombstones=load_tombstones(out))
    terms = np.asarray(stats["terms"], dtype=object)
    uni = reader.keys[reader.keys < (1 << 32)]
    out_terms, ns, dsum, ssum = [], [], [], []
    for k in uni:
        got = reader.get(int(k))
        if got is None:
            continue  # fully-deleted key
        docs, scores = got[0], got[1]
        out_terms.append(terms[int(k) - 1])
        ns.append(docs.size)
        dsum.append(int(docs.sum()))
        ssum.append(int(scores.astype(np.int64).sum()))
    return pa.table({
        "term": pa.array(out_terms, pa.string()),
        "n": pa.array(ns, pa.int64()),
        "doc_sum": pa.array(dsum, pa.int64()),
        "score_sum": pa.array(ssum, pa.int64()),
    })


def q_delete_bm25_topk(sf_dir: str) -> pa.Table:
    """Exact BM25 top-10 per fixed query OVER THE DELETED INDEX: the
    tombstone view must rank exactly as if deleted docs never existed
    in the lists while scores keep the frozen full-corpus epoch —
    block-max metadata is rebuilt over the survivors at decode, so
    WAND pruning stays exact (the property this entry pins down)."""
    from candidategeneration_ray.pipelines.build import load_stats
    from candidategeneration_ray.pipelines.update import load_tombstones
    from candidategeneration_ray.state.queryengine import QueryEngine

    cfg = EngineConfig(emit_pairs=False)
    out = _deleted_index(sf_dir, cfg)
    stats, _ = load_stats(out)
    eng = QueryEngine(os.path.join(out, "final"), stats, cfg,
                      tombstones_ref=load_tombstones(out))
    return ranked_table((qid, eng.topk(text, k=10))
                        for qid, text in DOC_QUERIES)


def q_delta_hit_top5(sf_dir: str) -> pa.Table:
    """HIT family REBUILT AFTER A DELTA (pipelines.families): the
    delta-exercising LSM index's HIT family is built over the grown
    corpus via ensure_hit_family (update_index marked any prior family
    stale). The prior rank (n_chars desc, doc asc) is a pure function
    of the corpus — independent of the frozen scoring epoch — so the
    post-delta family must match the full-corpus SQL oracle exactly.
    Output: per fixed-query term the top-5 docs by (hit_rank, doc)."""
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.pipelines.build import load_stats
    from candidategeneration_ray.pipelines.families import ensure_hit_family
    from candidategeneration_ray.functions.keys import bucket_of
    from candidategeneration_ray.state.queryengine import IndexReader

    cfg = EngineConfig(emit_pairs=False)
    out = _delta_index(sf_dir, cfg)
    fam_final = ensure_hit_family(out, cfg)
    stats, _ = load_stats(out)
    t2i = {t: i + 1 for i, t in enumerate(stats["terms"])}
    qterms = sorted({t for _, text in DOC_QUERIES for t in tokenize_text(text)
                     if t in t2i})
    empty = pa.table({"term": pa.array([], pa.string()),
                      "prefix_rank": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "hit_rank": pa.array([], pa.int64())})
    if not qterms:
        return empty
    tids = np.array([t2i[t] for t in qterms], dtype=np.int64)
    buckets = np.unique(bucket_of(tids, cfg.num_buckets)).tolist()
    reader = IndexReader(fam_final, stats, cfg, buckets=buckets)
    terms_out, ranks, docs, hits = [], [], [], []
    for term in qterms:
        got = reader.get(t2i[term])
        if got is None:
            continue
        d, hit_rank = got[0], got[1]
        top = np.lexsort((d, hit_rank))[:5]
        for r, i in enumerate(top):
            terms_out.append(term)
            ranks.append(r + 1)
            docs.append(int(d[i]))
            hits.append(int(hit_rank[i]))
    return pa.table({
        "term": pa.array(terms_out, pa.string()),
        "prefix_rank": pa.array(ranks, pa.int64()),
        "doc_id": pa.array(docs, pa.int64()),
        "hit_rank": pa.array(hits, pa.int64()),
    })


def q_delta_update_lists(sf_dir: str) -> pa.Table:
    """Incremental index update end-to-end (pipelines.update — the LSM
    capability the reference lacks; its phases are one-shot rebuilds,
    WWWMain.java:69-110): the documents table split at the doc-id
    midpoint plays two ingestion batches — base full build, then
    update_index (delta scored under the frozen base epoch) +
    compaction. Output per term: (n, doc_sum) over the compacted
    unigram lists — doc SETS are epoch-independent, so they must equal
    a single full build's (and the SQL oracle's); scores are
    deliberately excluded (they carry the documented frozen-epoch
    semantics, tested in tests/test_update.py).

    Documents become single-turn conversations conv_id=%012d(doc_id);
    ids are dense 0..N-1 (asserted), so conv-rank doc-id assignment
    reproduces the original doc ids exactly."""
    from candidategeneration_ray.pipelines.build import load_stats
    from candidategeneration_ray.state.queryengine import IndexReader

    cfg = EngineConfig(emit_pairs=False)
    out = _delta_index(sf_dir, cfg)
    stats, _ = load_stats(out)
    reader = IndexReader(os.path.join(out, "final"), stats, cfg)
    terms = np.asarray(stats["terms"], dtype=object)
    uni = reader.keys[reader.keys < (1 << 32)]
    ns = np.empty(uni.size, dtype=np.int64)
    dsum = np.empty(uni.size, dtype=np.int64)
    for i, k in enumerate(uni):
        docs, _, _, _ = reader.get(int(k))
        ns[i] = docs.size
        dsum[i] = int(docs.sum())
    return pa.table({
        "term": pa.array(terms[uni.astype(np.int64) - 1].tolist(), pa.string()),
        "n": pa.array(ns, pa.int64()),
        "doc_sum": pa.array(dsum, pa.int64()),
    })


def q_pair_counts_top50(sf_dir: str) -> pa.Table:
    """d-bigram document counts: top 50 (t1, t2, n_docs) pairs by
    (n desc, t1, t2) (M6 emission + A4 grouped count), computed
    distributed: pair postings → groupby(key).count()."""
    from ray.data.aggregate import Sum

    toks = doc_tokens(sf_dir)
    stats = corpus_stats(sf_dir)
    cfg = EngineConfig(emit_unigrams=False, emit_pairs=True)
    postings = emit_postings(toks, ray.put(stats), cfg)
    counts = postings.groupby("key").aggregate(Sum("n", alias_name="n_docs"))

    def _top(batch: pa.Table) -> pa.Table:
        """Partial top-50 per batch by (n desc, key asc) — the driver
        merges O(batches · 50) rows, never the pair vocabulary."""
        k = batch.column("key").to_numpy().astype(np.int64)
        nn = batch.column("n_docs").to_numpy().astype(np.int64)
        o = np.lexsort((k, -nn))[:50]
        return pa.table({"key": pa.array(k[o], pa.int64()),
                         "n_docs": pa.array(nn[o], pa.int64())})

    pdf = counts.map_batches(_top, batch_format="pyarrow").to_pandas()
    keys = pdf["key"].to_numpy(np.int64)
    n = pdf["n_docs"].to_numpy(np.int64)
    order = np.lexsort((keys, -n))[:50]
    keys, n = keys[order], n[order]
    terms = np.asarray(stats["terms"], dtype=object)
    return pa.table({
        "t1": pa.array(terms[(keys >> 32) - 1].tolist(), pa.string()),
        "t2": pa.array(terms[(keys & 0xFFFFFFFF) - 1].tolist(), pa.string()),
        "n_docs": pa.array(n, pa.int64()),
    })


def q_filtered_pair_counts(sf_dir: str) -> pa.Table:
    """Filter-set-pruned d-bigram emission (M4/J1/D2: the reference
    emits a pair posting only if its packed key appears in the
    query-trace filter set, InvertedIndex.java:291): the filter set is
    the fixed query set's augmented pair keys; output per surviving
    pair (t1, t2, n_docs)."""
    from ray.data.aggregate import Sum

    toks = doc_tokens(sf_dir)
    stats = corpus_stats(sf_dir)
    cfg = EngineConfig(emit_unigrams=False, emit_pairs=True)
    postings = emit_postings(
        toks, ray.put(stats), cfg,
        filter_ref=ray.put(np.array(_query_pair_keys(stats), dtype=np.int64)))
    pdf = postings.groupby("key").aggregate(Sum("n", alias_name="n_docs")).to_pandas()
    keys = pdf["key"].to_numpy(np.int64)
    n = pdf["n_docs"].to_numpy(np.int64)
    order = np.lexsort((keys,))
    keys, n = keys[order], n[order]
    terms = np.asarray(stats["terms"], dtype=object)
    return pa.table({
        "t1": pa.array(terms[(keys >> 32) - 1].tolist(), pa.string()),
        "t2": pa.array(terms[(keys & 0xFFFFFFFF) - 1].tolist(), pa.string()),
        "n_docs": pa.array(n, pa.int64()),
    })


RELATED_SEEDS: list[str] = ["query", "vector", "batch"]


def q_related_terms(sf_dir: str, k: int = 5) -> pa.Table:
    """"Related searches": for each seed term, the top-k co-occurring
    terms by d-window pair document count (n desc, term asc) — the
    suggestion list a search frontend derives from the pair family.

    Shape: reuses the M4 filter-set emission path — the filter is the
    dictionary-scale set of packed keys containing a seed id, so
    non-seed pairs are pruned INSIDE the emitter (nothing but
    O(seeds x vocab) pair rows ever reaches the shuffle); the groupby
    output is O(seeds x vocab) and the per-seed top-k is one lexsort.
    A pair of two seeds feeds both seeds' lists.
    Returns (seed, other, n_docs)."""
    from ray.data.aggregate import Sum

    toks = doc_tokens(sf_dir)
    stats = corpus_stats(sf_dir)
    t2i = {t: i + 1 for i, t in enumerate(stats["terms"])}
    seed_ids = {t2i[s] for s in RELATED_SEEDS if s in t2i}
    every = np.fromiter(t2i.values(), np.int64, len(t2i))
    fkeys = set()
    for s in seed_ids:
        o = every[every != s]
        fkeys.update(pack_pair(np.minimum(s, o), np.maximum(s, o)).tolist())
    cfg = EngineConfig(emit_unigrams=False, emit_pairs=True)
    postings = emit_postings(
        toks, ray.put(stats), cfg,
        filter_ref=ray.put(np.array(sorted(fkeys), dtype=np.int64)))
    pdf = postings.groupby("key").aggregate(
        Sum("n", alias_name="n_docs")).to_pandas()
    keys = pdf["key"].to_numpy(np.int64)
    n = pdf["n_docs"].to_numpy(np.int64)
    terms = np.asarray(stats["terms"], dtype=object)
    out_s, out_o, out_n = [], [], []
    for s in sorted(seed_ids):
        t1, t2 = keys >> 32, keys & 0xFFFFFFFF
        m = (t1 == s) | (t2 == s)
        other = np.where(t1[m] == s, t2[m], t1[m])
        names = terms[other - 1]
        cnt = n[m]
        order = np.lexsort((names, -cnt))[:k]
        out_s.extend([str(terms[s - 1])] * order.size)
        out_o.extend(names[order].tolist())
        out_n.extend(cnt[order].tolist())
    return pa.table({
        "seed": pa.array(out_s, pa.string()),
        "other": pa.array(out_o, pa.string()),
        "n_docs": pa.array(out_n, pa.int64()),
    })


def q_query_keys(sf_dir: str) -> pa.Table:
    """Query conversion + augmentation (M2/M3): for the fixed query set,
    emit (query_id, key) = mapped term ids plus packed 2-subset pairs."""
    qids, keys = [], []
    for qid, ids, pairs in _doc_query_keys(corpus_stats(sf_dir)):
        out = ids.tolist() + pairs.tolist()
        qids += [qid] * len(out)
        keys += out
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "key": pa.array(keys, pa.int64()),
    })


def q_postings_bytes(sf_dir: str) -> ray.data.Dataset:
    """Compression accounting straight off the PERSISTED index: per
    unigram term, the on-disk byte size of its delta+varint doc array
    and raw-int32 score array — the index-size budget a capacity plan
    needs, verified against an ANALYTIC SQL model of the codec (the
    oracle recomputes Σ varint_size(gap) from the doc sets, so this
    entry hash-checks the byte layout itself, not just the decoded
    content; functions/varint.py semantics, reference codec
    VariableByteCode.java:68-113).

    Shape: dataset-side scan of the segment files (binary_length is
    zero-copy Arrow — lists are never decoded); the id→term dictionary
    rides along as a broadcast (blocked-dictionary path at >memory
    vocab). Returns (term, n, docs_bytes, scores_bytes)."""
    import glob as _glob

    import pyarrow.compute as pc

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    terms = np.asarray(built["stats"]["terms"], dtype=object)
    terms_ref = ray.put(terms)
    files = sorted(_glob.glob(
        os.path.join(built["final_dir"], "**", "*.parquet"), recursive=True))

    def _sizes(batch: pa.Table) -> pa.Table:
        key = batch.column("key").to_numpy()
        m = key < (1 << 32)
        t = batch.filter(pa.array(m))
        ids = t.column("key").to_numpy().astype(np.int64)
        names = ray.get(terms_ref)[ids - 1]
        return pa.table({
            "term": pa.array(names.tolist(), pa.string()),
            "n": t.column("n").cast(pa.int64()),
            "docs_bytes": pc.binary_length(t.column("docs")).cast(pa.int64()),
            "scores_bytes": pc.binary_length(
                t.column("scores")).cast(pa.int64()),
        })

    return ray.data.read_parquet(
        files, columns=["key", "n", "docs", "scores"]
    ).map_batches(_sizes, batch_format="pyarrow")


def _postings_bytes_codec(sf_dir: str, codec: str,
                          out_col: str) -> ray.data.Dataset:
    """Shared scan for the codec-size comparison entries: per unigram
    term the production delta+varint doc-array size next to what
    `codec` (functions/codecs registry) would cost. Each list
    round-trips through the codec inside the scan — a corrupted
    encoding fails loudly, not just mis-sizes."""
    import glob as _glob

    import pyarrow.compute as pc

    from candidategeneration_ray.functions.codecs import (
        decode_docs, encode_docs)
    from candidategeneration_ray.functions.varint import decode_delta

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    terms = np.asarray(built["stats"]["terms"], dtype=object)
    terms_ref = ray.put(terms)
    files = sorted(_glob.glob(
        os.path.join(built["final_dir"], "**", "*.parquet"), recursive=True))

    def _sizes(batch: pa.Table) -> pa.Table:
        key = batch.column("key").to_numpy()
        m = key < (1 << 32)
        t = batch.filter(pa.array(m))
        ids = t.column("key").to_numpy().astype(np.int64)
        names = ray.get(terms_ref)[ids - 1]
        alt_bytes = np.empty(t.num_rows, np.int64)
        for row in range(t.num_rows):
            blob = t.column("docs")[row].as_py()
            docs = decode_delta(blob)
            b = encode_docs(docs, codec)
            if not np.array_equal(decode_docs(b, docs.size, codec), docs):
                raise ValueError(
                    f"{codec} roundtrip mismatch on key {ids[row]}")
            alt_bytes[row] = len(b)
        return pa.table({
            "term": pa.array(names.tolist(), pa.string()),
            "n": t.column("n").cast(pa.int64()),
            "docs_bytes": pc.binary_length(t.column("docs")).cast(pa.int64()),
            out_col: pa.array(alt_bytes, pa.int64()),
        })

    return ray.data.read_parquet(
        files, columns=["key", "n", "docs"]
    ).map_batches(_sizes, batch_format="pyarrow")


def q_postings_bytes_bp(sf_dir: str) -> ray.data.Dataset:
    """Codec comparison over the PERSISTED index: varint vs the
    binary-packing codec (functions/bitpack, BP128 layout). The oracle
    recomputes BOTH sizes analytically, so the entry hash-checks the
    bit layout of a codec the index doesn't even serve."""
    return _postings_bytes_codec(sf_dir, "bp", "docs_bytes_bp")


def q_postings_bytes_rice(sf_dir: str) -> ray.data.Dataset:
    """Codec comparison over the PERSISTED index: varint vs Golomb-Rice
    (functions/rice). The oracle recomputes the Rice size analytically
    from the gap model — k = floor(log2(u/n)), size = 5 header bytes +
    (Σ(gap>>k)+n+7)//8 unary bytes + (n·k+7)//8 remainder bytes."""
    return _postings_bytes_codec(sf_dir, "rice", "docs_bytes_rice")


def q_postings_bytes_bic(sf_dir: str) -> ray.data.Dataset:
    """Codec comparison over the PERSISTED index: varint vs binary
    interpolative (functions/interpolative). The oracle REPLAYS the
    range-split recursion as a recursive CTE — per node w =
    bit_length(r-1) bits, summed over the tree, + the 8-byte u header
    — so the driver hash-checks the recursion itself, node for node."""
    return _postings_bytes_codec(sf_dir, "bic", "docs_bytes_bic")


def q_postings_bytes_ef(sf_dir: str) -> ray.data.Dataset:
    """Codec comparison over the PERSISTED index: varint vs Elias-Fano
    (functions/eliasfano — the quasi-succinct layout of Vigna, WSDM
    2013). The oracle recomputes the EF size analytically from
    (n, max doc_id) — l = floor(log2(u/n)), size = 1 header byte +
    (n*l+7)//8 low bytes + ((u>>l)+n+7)//8 high bytes."""
    return _postings_bytes_codec(sf_dir, "ef", "docs_bytes_ef")


def q_codec_report(sf_dir: str) -> pa.Table:
    """The codec matrix folded to ONE row per codec — the
    storage-planning summary the five per-term size entries exist
    for: (codec, n_terms, n_postings, docs_bytes) for varint (the
    production layout) and the four alternative doc-array codecs
    (bic/bp/ef/rice), every byte count the SAME audited numbers the
    per-term entries verify (the oracle composes all five size-model
    SQLs, so the driver hash-checks the fold AND the matrix in one
    entry). Builds are cached — the report costs five segment scans,
    not five builds."""
    specs: list[tuple[str, object, str]] = [
        ("varint", q_postings_bytes, "docs_bytes"),
        ("bic", q_postings_bytes_bic, "docs_bytes_bic"),
        ("bp", q_postings_bytes_bp, "docs_bytes_bp"),
        ("ef", q_postings_bytes_ef, "docs_bytes_ef"),
        ("rice", q_postings_bytes_rice, "docs_bytes_rice"),
    ]
    rows = {k: [] for k in ("codec", "n_terms", "n_postings",
                            "docs_bytes")}
    for codec, fn, col in specs:
        df = fn(sf_dir).to_pandas()
        rows["codec"].append(codec)
        rows["n_terms"].append(len(df))
        rows["n_postings"].append(int(df["n"].sum()))
        rows["docs_bytes"].append(int(df[col].sum()))
    return pa.table({
        "codec": pa.array(rows["codec"], pa.string()),
        **{k: pa.array(rows[k], pa.int64())
           for k in ("n_terms", "n_postings", "docs_bytes")},
    })


def q_index_report(sf_dir: str) -> pa.Table:
    """One-row index capacity report off the PERSISTED unigram
    segments — the numbers a cluster-sizing plan starts from:

        n_terms, n_postings, docs_bytes (varint), max_list_n,
        median_list_n (lower median), singleton_terms (n == 1)

    Computed as a dataset-side scan with one tiny driver reduce
    (per-batch partials are O(1) rows; the median comes from the
    list-length multiset, vocabulary-scale). The oracle recomputes all
    six from the kept CTE + the analytic varint model, so the report's
    arithmetic is value-verified like everything else."""
    import glob as _glob

    import pyarrow.compute as pc

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    files = sorted(_glob.glob(
        os.path.join(built["final_dir"], "**", "*.parquet"), recursive=True))

    def _partial(batch: pa.Table) -> pa.Table:
        m = batch.column("key").to_numpy() < (1 << 32)
        t = batch.filter(pa.array(m))
        ns = t.column("n").to_numpy().astype(np.int64)
        docs_b = pc.binary_length(t.column("docs")).to_numpy().astype(np.int64)
        return pa.table({
            "n_terms": pa.array([t.num_rows], pa.int64()),
            "n_postings": pa.array([int(ns.sum())], pa.int64()),
            "docs_bytes": pa.array([int(docs_b.sum())], pa.int64()),
            "max_list_n": pa.array([int(ns.max()) if ns.size else 0],
                                   pa.int64()),
            "singleton_terms": pa.array([int((ns == 1).sum())], pa.int64()),
            "lens": pa.array([ns.tolist()], pa.list_(pa.int64())),
        })

    parts = (ray.data.read_parquet(files, columns=["key", "n", "docs"])
             .map_batches(_partial, batch_format="pyarrow").to_pandas())
    lens = np.sort(np.concatenate([np.asarray(x, np.int64)
                                   for x in parts["lens"]]))
    return pa.table({
        "n_terms": pa.array([int(parts["n_terms"].sum())], pa.int64()),
        "n_postings": pa.array([int(parts["n_postings"].sum())], pa.int64()),
        "docs_bytes": pa.array([int(parts["docs_bytes"].sum())], pa.int64()),
        "max_list_n": pa.array([int(parts["max_list_n"].max())], pa.int64()),
        "median_list_n": pa.array(
            [int(lens[(lens.size - 1) // 2]) if lens.size else 0], pa.int64()),
        "singleton_terms": pa.array([int(parts["singleton_terms"].sum())],
                                    pa.int64()),
    })


def q_access_counts(sf_dir: str) -> pa.Table:
    """#queries containing each term (A5, Metadata.java:153-169), over
    terms that exist in the corpus dictionary."""
    from candidategeneration_ray.functions.tokenize import tokenize_text

    stats = corpus_stats(sf_dir)
    vocab = set(stats["terms"])
    counts: dict[str, int] = {}
    for _, text in DOC_QUERIES:
        for t in set(tokenize_text(text)):
            if t in vocab:
                counts[t] = counts.get(t, 0) + 1
    terms = sorted(counts)
    return pa.table({
        "term": pa.array(terms, pa.string()),
        "n_queries": pa.array([counts[t] for t in terms], pa.int64()),
    })


def q_bm25_topk(sf_dir: str) -> pa.Table:
    """FLAGSHIP: exact BM25 top-10 per fixed query via the full engine
    (static index + block-max WAND actor), rank-identical to SQL."""
    from candidategeneration_ray.state.queryengine import QueryEngine

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    eng = QueryEngine(built["final_dir"], built["stats"])
    return ranked_table((qid, eng.topk(text, k=10))
                        for qid, text in DOC_QUERIES)


# ------------------------------------------------------------- BM25F
# Fielded retrieval (Robertson/Zaragoza/Taylor CIKM'04): per-field term
# frequencies combine LINEARLY with integer field weights before the
# saturation step, and the length normalizer uses the same weighted
# length. Documents here have one text column, so the fields are the
# classic head/body split: the first BM25F_HEAD kept tokens are the
# "head" field (titles/leads — weight BM25F_WEIGHT), the rest are body
# (weight 1). Because the weights are small integers, weighted tf is
# EXACTLY the tf of a corpus whose head tokens are repeated
# BM25F_WEIGHT times — so the fielded index is the UNCHANGED build +
# WAND machinery over a token stream with the head slice replicated,
# and df (presence-based) is untouched. The oracle recomputes
# tf' = tf + (W-1)*tf_head, dl' = dl + (W-1)*min(dl, H) in SQL.
BM25F_HEAD = 8
BM25F_WEIGHT = 3


def _fielded_tokens_batch(batch: pa.Table) -> pa.Table:
    """Replicate each doc's first BM25F_HEAD kept tokens so the standard
    emitter computes BM25F's weighted tf/dl. Batch-global (no per-doc
    Python loop): one list_flatten + index arithmetic + one take."""
    import pyarrow.compute as pc

    col = batch.column("tokens").combine_chunks()
    flat = pc.list_flatten(col)
    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
    head_len = np.minimum(lens, BM25F_HEAD)
    # flat positions of every head token, grouped by doc
    h_total = int(head_len.sum())
    h_cum = np.concatenate(([0], np.cumsum(head_len)))[:-1]
    hidx = (np.arange(h_total, dtype=np.int64)
            - np.repeat(h_cum, head_len) + np.repeat(starts, head_len))
    n = batch.num_rows
    orig_doc = np.repeat(np.arange(n, dtype=np.int64), lens)
    head_doc = np.repeat(np.arange(n, dtype=np.int64), head_len)
    reps = BM25F_WEIGHT - 1
    take_idx = np.concatenate([np.arange(lens.sum(), dtype=np.int64)]
                              + [hidx] * reps)
    take_doc = np.concatenate([orig_doc] + [head_doc] * reps)
    order = np.argsort(take_doc, kind="stable")  # regroup by doc
    new_lens = lens + reps * head_len
    new_offsets = np.concatenate(([0], np.cumsum(new_lens))).astype(np.int32)
    tokens = pa.ListArray.from_arrays(
        pa.array(new_offsets, pa.int32()), flat.take(take_idx[order]))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "tokens": tokens,
        "doc_len": pa.array(new_lens, pa.int32()),
    })


def doc_tokens_fielded(sf_dir: str) -> ray.data.Dataset:
    return doc_tokens(sf_dir).map_batches(
        _fielded_tokens_batch, batch_format="pyarrow")


_FSTATS_MEMO: dict[str, dict] = {}


def build_documents_index_fielded(sf_dir: str,
                                  cfg: EngineConfig | None = None) -> dict:
    """Build (or reuse) the BM25F fielded index: the standard pipeline
    (stats → emission → bucketed shuffle → compressed block-max lists)
    over the head-replicated token stream. Everything downstream —
    segments, manifests, WAND serving — is byte-level identical
    machinery; only the token stream differs."""
    cfg = cfg or EngineConfig(emit_pairs=False)

    def make():
        toks = doc_tokens_fielded(sf_dir)
        key = os.path.realpath(sf_dir)
        if key not in _FSTATS_MEMO:
            _FSTATS_MEMO[key] = compute_stats(
                toks, table_buckets(sf_dir, "documents"))
        return toks, _FSTATS_MEMO[key]

    return _finish_documents_build(
        sf_dir, f"docidxf-h{BM25F_HEAD}w{BM25F_WEIGHT}-{cfg.index_tag()}",
        cfg, make)


def q_bm25f_topk(sf_dir: str) -> pa.Table:
    """BM25F top-10 per fixed query: fielded (head-weighted) scoring
    served by the unchanged block-max WAND engine over the fielded
    family — field weighting is an EMISSION-time property, so serving
    inherits every index-side guarantee (block-max exactness, codec,
    tie-break) for free."""
    from candidategeneration_ray.state.queryengine import QueryEngine

    built = build_documents_index_fielded(sf_dir, EngineConfig(emit_pairs=False))
    eng = QueryEngine(built["final_dir"], built["stats"])
    return ranked_table((qid, eng.topk(text, k=10))
                        for qid, text in DOC_QUERIES)


def q_cached_bm25_topk(sf_dir: str) -> pa.Table:
    """BM25 top-10 served through the lineage-keyed RESULT CACHE
    (state/resultcache.py): the first pass fills, the second pass must
    serve every query from cache without touching the engine, and the
    two passes must agree row-for-row. The driver hash-checks this
    against the plain bm25_topk oracle — the cache layer is invisible
    to results by construction (plan-equivalence proof). Invalidation
    is structural: the key digests the index content lineage, so a
    delta/compaction simply addresses different keys (tested in
    tests/test_query_engine.py with an LSM update)."""
    from candidategeneration_ray.state.resultcache import CachedEngine

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    root = os.path.join(_cache_dir(sf_dir, "resultcache"), "entries")
    fill = CachedEngine(built["final_dir"], built["stats"], root)
    first = {qid: fill.topk(text, k=10) for qid, text in DOC_QUERIES}
    # a FRESH cache view over the same lineage: every query must hit
    # (engine_factory raising proves the index is never touched)
    def _no_engine():
        raise AssertionError("cache hit path must not construct an engine")
    hit = CachedEngine(built["final_dir"], built["stats"], root,
                       engine_factory=_no_engine)
    served = {qid: hit.topk(text, k=10) for qid, text in DOC_QUERIES}
    assert served == first
    assert hit.misses == 0 and hit.hits == len(DOC_QUERIES)
    return ranked_table(served.items())


COLLAPSE_K = 5


def q_collapse_topk(sf_dir: str, k: int = COLLAPSE_K) -> pa.Table:
    """Field collapsing (result grouping): exact top-k per query with at
    most ONE document per `source` — the search-frontend dedup that
    keeps a hot site/domain from monopolising the result page (Solr/ES
    "collapse", SQL = row_number PARTITION BY (query, source)).

    Engine side: the query's full match set comes from the vectorized
    TAAT merge over the real compressed index (match-set size is
    posting-list-bound, never corpus-bound); doc→source attach is one
    searchsorted against the column-pruned (doc_id, source) projection
    — at 10^12 docs that lookup becomes the range-blocked broadcast map
    (stages/docids.rank_prior_scalable pattern), the collapse itself
    stays a per-query O(matches) ordered scan: first hit per source in
    (score desc, doc_id asc) order wins, then the k best survivors."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.state.queryengine import IndexReader, taat_topk

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    # match sets first, then ONE doc-id-filtered read of the source
    # column — the attach is match-set-bound, never corpus-bound (the
    # read prunes row groups on the sorted doc_id stats)
    per_query = {}
    for qid, text in DOC_QUERIES:
        hits = taat_topk(reader, reader.query_term_ids(text), 1 << 60)
        if hits:
            per_query[qid] = hits
    need = sorted({d for hits in per_query.values() for _, d in hits})
    src_t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                          columns=["doc_id", "source"],
                          filters=[("doc_id", "in", need)])
    sdoc = src_t.column("doc_id").to_numpy()
    o = np.argsort(sdoc, kind="stable")
    sdoc = sdoc[o]
    ssrc = np.asarray(src_t.column("source").to_pylist(), dtype=object)[o]

    qids, ranks, docs_out, srcs_out, scores_out = [], [], [], [], []
    for qid, text in DOC_QUERIES:
        hits = per_query.get(qid)
        if not hits:
            continue
        scores = np.array([s for s, _ in hits], np.int64)
        docs = np.array([d for _, d in hits], np.int64)
        src = ssrc[np.searchsorted(sdoc, docs)]
        codes, inv = np.unique(src, return_inverse=True)
        # hits are already in (score desc, doc asc) order; first
        # occurrence of each source code in that order is its best doc
        first = np.unique(inv, return_index=True)[1]
        first.sort()
        for rank, i in enumerate(first[:k]):
            qids.append(qid)
            ranks.append(rank + 1)
            docs_out.append(int(docs[i]))
            srcs_out.append(str(src[i]))
            scores_out.append(int(scores[i]))
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "rank": pa.array(ranks, pa.int64()),
        "doc_id": pa.array(docs_out, pa.int64()),
        "source": pa.array(srcs_out, pa.string()),
        "score": pa.array(scores_out, pa.int64()),
    })


MMR_POOL = 20       # relevance pool size per query
MMR_K = 5           # diversified results per query
MMR_REL_W = 7       # integer λ: value = 7·rel − 3·SIM_SCALE·max_overlap
MMR_PEN_W = 3
MMR_SIM_SCALE = 1_000_000  # one shared-term overlap ≈ 0.1 quantized-BM25 units


def q_mmr_topk(sf_dir: str) -> pa.Table:
    """Maximal Marginal Relevance result diversification (Carbonell &
    Goldstein, SIGIR 1998) over the exact BM25 pool — greedy re-ranking
    that trades relevance against redundancy, all-integer so the oracle
    hash-verifies: doc-doc similarity is the distinct-kept-term overlap
    count, and the marginal value is

        mmr_value = MMR_REL_W·score − MMR_PEN_W·MMR_SIM_SCALE·max_ov

    where max_ov is the candidate's largest overlap with any already-
    selected doc (0 at step 1). Ties break doc_id asc. The DuckDB
    oracle unrolls the MMR_K greedy steps as chained MATERIALIZED CTEs
    (the kcore/predictive unroll pattern).

    Scale: the pool is engine-served (top-MMR_POOL per query, posting-
    list-bound); the greedy is per-query O(K·POOL) over ≤POOL docs —
    query-bound, never corpus-bound."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.functions.tokenize import tokenize_many
    from candidategeneration_ray.state.queryengine import IndexReader, taat_topk

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    # pools first, then ONE pool-filtered read of the text column —
    # K*POOL doc ids total, never a corpus-wide projection
    pools = {}
    for qid, qtext in DOC_QUERIES:
        pool = taat_topk(reader, reader.query_term_ids(qtext), MMR_POOL)
        if pool:
            pools[qid] = pool
    need = sorted({d for pool in pools.values() for _, d in pool})
    docs_t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"],
                           filters=[("doc_id", "in", need)])
    all_ids = docs_t.column("doc_id").to_numpy().astype(np.int64)
    order = np.argsort(all_ids, kind="stable")

    qids, ranks, docs_out, scores_out, values_out = [], [], [], [], []
    for qid, qtext in DOC_QUERIES:
        pool = pools.get(qid)
        if not pool:
            continue
        p_scores = np.array([s for s, _ in pool], np.int64)
        p_docs = np.array([d for _, d in pool], np.int64)
        rows = order[np.searchsorted(all_ids[order], p_docs)]
        texts = [docs_t.column("text")[int(i)].as_py() for i in rows]
        term_sets = [set(t) for t in tokenize_many(texts)]
        n = len(pool)
        ov = np.zeros((n, n), np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                ov[i, j] = ov[j, i] = len(term_sets[i] & term_sets[j])
        selected: list[int] = []
        remaining = list(range(n))
        for rank in range(1, min(MMR_K, n) + 1):
            best_i, best_v = None, None
            for i in remaining:
                max_ov = max((int(ov[i, j]) for j in selected), default=0)
                v = (MMR_REL_W * int(p_scores[i])
                     - MMR_PEN_W * MMR_SIM_SCALE * max_ov)
                # tie-break doc asc — remaining is doc-unordered, compare
                if best_v is None or v > best_v or (
                        v == best_v and p_docs[i] < p_docs[best_i]):
                    best_i, best_v = i, v
            selected.append(best_i)
            remaining.remove(best_i)
            qids.append(qid)
            ranks.append(rank)
            docs_out.append(int(p_docs[best_i]))
            scores_out.append(int(p_scores[best_i]))
            values_out.append(int(best_v))
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "rank": pa.array(ranks, pa.int64()),
        "doc_id": pa.array(docs_out, pa.int64()),
        "score": pa.array(scores_out, pa.int64()),
        "mmr_value": pa.array(values_out, pa.int64()),
    })


def _bm25_topk_codec(sf_dir: str, codec: str) -> pa.Table:
    """Exact BM25 top-10 served from an index BUILT AND STORED under
    `codec` end-to-end (bucket build, merge, decode). Same oracle as
    bm25_topk, so the driver hash-checks that the codec swap is
    lossless through the full build+serve path, not just in codec unit
    tests."""
    from candidategeneration_ray.state.queryengine import QueryEngine

    cfg = EngineConfig(emit_pairs=False, codec=codec)
    built = build_documents_index(sf_dir, cfg)
    eng = QueryEngine(built["final_dir"], built["stats"], cfg)
    return ranked_table((qid, eng.topk(text, k=10))
                        for qid, text in DOC_QUERIES)


def q_bm25_topk_bp(sf_dir: str) -> pa.Table:
    """BM25 top-10 from a binary-packing (codec='bp') index."""
    return _bm25_topk_codec(sf_dir, "bp")


def q_bm25_topk_ef(sf_dir: str) -> pa.Table:
    """BM25 top-10 from an Elias-Fano (codec='ef') index."""
    return _bm25_topk_codec(sf_dir, "ef")


def q_bm25_topk_rice(sf_dir: str) -> pa.Table:
    """BM25 top-10 from a Golomb-Rice (codec='rice') index."""
    return _bm25_topk_codec(sf_dir, "rice")


def q_bm25_topk_bic(sf_dir: str) -> pa.Table:
    """BM25 top-10 from a binary-interpolative (codec='bic') index."""
    return _bm25_topk_codec(sf_dir, "bic")


def q_maxscore_topk(sf_dir: str) -> pa.Table:
    """Exact BM25 top-10 per fixed query via DAAT MaxScore (Turtle &
    Flood 1995) instead of block-max WAND — the second classic
    dynamic-pruning strategy, rank-identical by contract. Same oracle
    SQL as bm25_topk, so the driver hash-checks ALGORITHM equivalence
    (dropping a non-essential list or a probe would flip the hash)."""
    from candidategeneration_ray.state.queryengine import QueryEngine

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    eng = QueryEngine(built["final_dir"], built["stats"])
    return ranked_table((qid, eng.topk(text, k=10, algorithm="maxscore"))
                        for qid, text in DOC_QUERIES)


def q_asof_bm25_topk(sf_dir: str) -> pa.Table:
    """Time-travel (AS OF) serving over the LSM index: after the delta
    generation is ingested (UNcompacted), the base epoch stays exactly
    servable — QueryEngine over the `final` dir alone, with the
    post-update dictionary, must equal a fresh build over just the
    base half. Works because (a) generations are separate segment dirs
    until compaction, (b) scoring statistics are FROZEN at the base
    epoch (the delta is scored under them, never the reverse) and
    (c) dictionary extension appends ids, so base term ids are stable
    and delta-only terms simply have no list in the base generation.

    Oracle: the full bm25_topk SQL with `documents` rebound to the
    base half (doc_id < n//2) — so the driver hash-checks that an
    ingest leaves the old epoch bit-exactly readable."""
    from candidategeneration_ray.pipelines.build import load_stats
    from candidategeneration_ray.state.queryengine import QueryEngine

    cfg = EngineConfig(emit_pairs=False)
    out = _delta_index(sf_dir, cfg, compact=False)
    stats, _ = load_stats(out)
    eng = QueryEngine(os.path.join(out, "final"), stats, cfg)
    return ranked_table((qid, eng.topk(text, k=10))
                        for qid, text in DOC_QUERIES)


def q_search_after_topk(sf_dir: str) -> pa.Table:
    """Cursor pagination (the search_after serving feature): page 2 of
    each fixed query — results 11..20 in (score desc, doc_id asc)
    order, resumed from the page-1 cursor (the 10th hit) WITHOUT
    re-ranking page 1: the engine re-runs block-max WAND with k=20 but
    the cursor makes the continuation stateless and exact — a client
    can fetch any page holding only (score, doc) of the previous last
    hit. Deep pagination stays bounded: page n costs one k=10·n top-k,
    never a full sort. Oracle: the bm25 window with rank 11..20."""
    import pyarrow.compute as pc

    from candidategeneration_ray.state.queryengine import QueryEngine

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    eng = QueryEngine(built["final_dir"], built["stats"])
    pages = []
    for qid, text in DOC_QUERIES:
        page1 = eng.topk(text, k=10)
        if len(page1) < 10:
            continue  # no page 2 without a full page 1
        cs, cd = page1[-1]
        # stateless continuation: top-20, drop everything <= cursor
        full = eng.topk(text, k=20)
        pages.append((qid, [(s, d) for s, d in full
                            if s < cs or (s == cs and d > cd)][:10]))
    t = ranked_table(pages)
    return t.set_column(1, "rank", pc.add(t.column("rank"), 10))


NDCG_DISC_SCALE = 1 << 24


def ndcg_discounts(k: int = 10) -> list[int]:
    """Integer nDCG discount LUT: round(2^24 / log2(r+1)) for r=1..k.
    Shared by the engine and (inlined as SQL VALUES) the oracle, so the
    graded metric hash-verifies despite the irrational discount."""
    import math

    return [int(round(NDCG_DISC_SCALE / math.log2(r + 1)))
            for r in range(1, k + 1)]


def q_ndcg_eval(sf_dir: str) -> pa.Table:
    """Graded nDCG@10 of the predictive candidate pipeline against the
    exact BM25 top-10 as graded relevance (gain = 11 − exact rank):
    per query the scaled integer DCG over the candidate ranking and the
    ideal DCG over the relevance set. The float nDCG = dcg/idcg is the
    caller's one division; keeping both sides integer keeps the oracle
    hash-exact (the retrieval_eval composition pattern, deepened from
    set-overlap to graded positions)."""
    disc = ndcg_discounts(10)
    cand = q_predictive_candidates(sf_dir)
    rel = q_bm25_topk(sf_dir)
    gain = {}
    for r in rel.to_pylist():
        gain[(r["query_id"], r["doc_id"])] = 11 - r["rank"]
    idcg = {}
    for r in rel.to_pylist():
        q = r["query_id"]
        idcg[q] = idcg.get(q, 0) + (11 - r["rank"]) * disc[r["rank"] - 1]
    dcg = {q: 0 for q in idcg}
    for c in cand.to_pylist():
        q = c["query_id"]
        if q in dcg and c["rank"] <= 10:
            dcg[q] += gain.get((q, c["doc_id"]), 0) * disc[c["rank"] - 1]
    qs = sorted(q for q in dcg)
    return pa.table({
        "query_id": pa.array(qs, pa.int64()),
        "dcg_scaled": pa.array([dcg[q] for q in qs], pa.int64()),
        "idcg_scaled": pa.array([idcg[q] for q in qs], pa.int64()),
    })


LTR_POOL = 20


def q_ltr_features(sf_dir: str) -> pa.Table:
    """Learning-to-rank training-table export: for each fixed query's
    exact BM25 top-LTR_POOL candidates, the classic integer feature
    vector a downstream ranker trains on (the reference's quality-model
    matrix is the same shape with engine-specific features,
    NewQualityModel.java:148-195):

        bm25       total quantized score
        n_matched  distinct kept query terms present
        sum_tf     Σ term frequency of matched terms
        max_ts/min_ts  strongest / weakest matched per-term score
        dl         kept-token length of the doc
        min_df     rarest matched term's document frequency
        n_chars    raw doc length (the static prior input)

    Everything is integer, so the export hash-verifies. Scale: pool
    docs per query are k-bounded; feature assembly touches only pool
    docs' texts and the query terms' posting lists — query-bound,
    never corpus-bound. At 100 TB the text fetch is the range-blocked
    doc-store lookup (same pattern as the snippet extractor)."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.functions.tokenize import tokenize_many
    from candidategeneration_ray.state.queryengine import IndexReader, taat_topk

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    stats = built["stats"]
    # pools first, then ONE pool-filtered read (match-set-bound attach)
    pools = {}
    for qid, qtext in DOC_QUERIES:
        tids = reader.query_term_ids(qtext)
        pool = taat_topk(reader, tids, LTR_POOL)
        if pool:
            pools[qid] = (tids, pool)
    need = sorted({d for _, pool in pools.values() for _, d in pool})
    docs_t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text", "n_chars"],
                           filters=[("doc_id", "in", need)])
    all_ids = docs_t.column("doc_id").to_numpy().astype(np.int64)
    order = np.argsort(all_ids, kind="stable")
    nchars = docs_t.column("n_chars").to_numpy().astype(np.int64)

    cols = {k: [] for k in ("query_id", "rank", "doc_id", "bm25",
                            "n_matched", "sum_tf", "max_ts", "min_ts",
                            "dl", "min_df", "n_chars")}
    for qid, qtext in DOC_QUERIES:
        if qid not in pools:
            continue
        tids, pool = pools[qid]
        # per-term decoded list + df for the query's terms
        tlists = {}
        for tid in tids:
            got = reader.get(tid)
            if got is not None:
                tlists[tid] = (got[0], got[1].astype(np.int64))
        rows = order[np.searchsorted(all_ids[order], [d for _, d in pool])]
        texts = [docs_t.column("text")[int(i)].as_py() for i in rows]
        toks = tokenize_many(texts)
        for rank, ((score, doc), row, tk) in enumerate(zip(pool, rows, toks)):
            tf = {}
            for t in tk:
                tf[t] = tf.get(t, 0) + 1
            matched_ts, matched_tf, matched_df = [], [], []
            for tid in tids:
                if tid not in tlists:
                    continue
                ld, ls = tlists[tid]
                i = int(np.searchsorted(ld, doc))
                if i < ld.size and int(ld[i]) == doc:
                    matched_ts.append(int(ls[i]))
                    term = stats["terms"][tid - 1]
                    matched_tf.append(tf.get(term, 0))
                    matched_df.append(int(stats["df_by_id"][tid]))
            cols["query_id"].append(qid)
            cols["rank"].append(rank + 1)
            cols["doc_id"].append(int(doc))
            cols["bm25"].append(int(score))
            cols["n_matched"].append(len(matched_ts))
            cols["sum_tf"].append(int(sum(matched_tf)))
            cols["max_ts"].append(int(max(matched_ts)))
            cols["min_ts"].append(int(min(matched_ts)))
            cols["dl"].append(len(tk))
            cols["min_df"].append(int(min(matched_df)))
            cols["n_chars"].append(int(nchars[row]))
    return pa.table({k: pa.array(v, pa.int64()) for k, v in cols.items()})


def q_term_sharded_topk(sf_dir: str) -> pa.Table:
    """Exact BM25 top-10 per fixed query served by the TERM-PARTITIONED
    actor fleet (state/sharded.TermShardedQueryEngine): the vocabulary
    splits by key-hash bucket across shards, each shard loads only its
    buckets' segments and returns partial accumulations, the
    coordinator sums. Same oracle as bm25_topk — the driver hash-checks
    the distribution strategy itself."""
    from candidategeneration_ray.state.sharded import TermShardedQueryEngine

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    fleet = TermShardedQueryEngine(built["final_dir"], built["stats"],
                                   n_shards=4,
                                   cfg=EngineConfig(emit_pairs=False))
    try:
        return ranked_table((qid, fleet.topk(text, k=10))
                            for qid, text in DOC_QUERIES)
    finally:
        fleet.shutdown()


def q_toplayer_prefixes(sf_dir: str, depth: int = 3) -> pa.Table:
    """Impact-ordered top-layer prefixes (O3/O4: the reference keeps the
    first `budget` postings of each impact-ordered list,
    BigramIndex.java:126-151 / SelectChuncks.java:16-62). For each of
    the fixed query set's unigram terms: the `depth` highest-scoring
    postings as (term, prefix_rank, doc_id, score), order (score desc,
    doc_id asc)."""
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.state.queryengine import IndexReader

    built = build_documents_index(sf_dir)
    reader = IndexReader(built["final_dir"], built["stats"])
    terms_out, ranks, docs, scores = [], [], [], []
    qterms = sorted({t for _, text in DOC_QUERIES for t in tokenize_text(text)})
    for term in qterms:
        tid = reader.term_to_id.get(term)
        if not tid:
            continue
        d, s = reader.top_layer(tid, depth)
        for r in range(d.size):
            terms_out.append(term)
            ranks.append(r + 1)
            docs.append(int(d[r]))
            scores.append(int(s[r]))
    return pa.table({
        "term": pa.array(terms_out, pa.string()),
        "prefix_rank": pa.array(ranks, pa.int64()),
        "doc_id": pa.array(docs, pa.int64()),
        "score": pa.array(scores, pa.int64()),
    })


def _doc_query_keys(stats: dict) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Per DOC_QUERIES entry: (query_id, its sorted distinct term ids,
    the keys.pack_pair keys of every 2-subset (i < j) in row-major
    order) — the reference's query conversion and augmentation
    (Metadata.java:236-262)."""
    from candidategeneration_ray.functions.tokenize import tokenize_text

    t2i = {t: i + 1 for i, t in enumerate(stats["terms"])}
    out = []
    for qid, text in DOC_QUERIES:
        ids = np.array(sorted({t2i[t] for t in tokenize_text(text)
                               if t in t2i}), dtype=np.int64)
        i, j = np.nonzero(np.arange(ids.size)[:, None] < np.arange(ids.size))
        out.append((qid, ids, pack_pair(ids[i], ids[j])))
    return out


def _query_pair_keys(stats: dict) -> list[int]:
    """Packed pair keys of the fixed query trace — the analog of the
    reference's BIGRAM_SMALL_FILTER_SET (Metadata.java:92-151)."""
    return sorted({int(k) for _, _, pairs in _doc_query_keys(stats)
                   for k in pairs})


def build_bigram_family(sf_dir: str, budget: int = 20) -> dict:
    """Persist the BIGRAM index family (BigramIndex.java:44-85
    getBigramIndex: for each filter-set bigram, merge the two unigram
    top-`budget` prefixes and write a persistent bigram index +
    lengths metadata). Distributed shape:

      1. top-`budget` prefixes of the needed unigram lists are
         extracted by map_batches over the PERSISTED unigram segments
         (only rows whose key is needed are decoded); the result is
         bounded by |query-trace terms| x budget and broadcast once;
      2. the pair-key dataset emits each pair's union postings
         (score 0) against the broadcast top-map, as partial rows
         (families.bigram_union_postings — the index-dir family's
         emitter);
      3. lists build through the SAME bucketed shuffle + segment
         writer as the unigram/HIT families, cached with a manifest.
    """
    from candidategeneration_ray.pipelines.families import write_bigram_family
    from candidategeneration_ray.state import checkpoint as ckpt

    cfg = EngineConfig()
    built = build_documents_index(sf_dir)
    stats = built["stats"]
    fam_dir = _cache_dir(sf_dir, f"bigram-b{budget}-{cfg.index_tag()}")
    final = os.path.join(fam_dir, "final")
    src = os.path.join(sf_dir, "documents.parquet")
    if not ckpt.is_complete(final, [src]):
        write_bigram_family(
            [built["final_dir"]], np.array(_query_pair_keys(stats), dtype=np.int64),
            budget, cfg, final,
            {"phase": "bigram-family", "inputs": [src], "budget": budget})
    return {"final_dir": final, "stats": stats}


def q_bigram_union_lists(sf_dir: str, budget: int = 20) -> pa.Table:
    """Bigram lists SERVED FROM THE PERSISTED FAMILY (O5,
    BigramIndex.java:44-85): for each 2-subset of each fixed query's
    terms, the persisted union list of the two unigram top-`budget`
    prefixes, reported as (t1, t2, doc_id), doc ascending."""
    from candidategeneration_ray.state.queryengine import IndexReader

    empty = pa.table({"t1": pa.array([], pa.string()),
                      "t2": pa.array([], pa.string()),
                      "doc_id": pa.array([], pa.int64())})
    if not _query_pair_keys(corpus_stats(sf_dir)):
        return empty
    fam = build_bigram_family(sf_dir, budget)
    stats = fam["stats"]
    terms = np.asarray(stats["terms"], dtype=object)
    # bucket-filtered read: only the buckets holding the trace's pair
    # keys are loaded (the key-sharded serving layout)
    from candidategeneration_ray.functions.keys import bucket_of

    fkeys = np.array(_query_pair_keys(stats), dtype=np.int64)
    cfg = EngineConfig()
    buckets = np.unique(bucket_of(fkeys, cfg.num_buckets)).tolist() or [0]
    reader = IndexReader(fam["final_dir"], stats, cfg, buckets=buckets)
    rows_t1, rows_t2, rows_doc = [], [], []
    for key in fkeys:
        got = reader.get(int(key))
        if got is None:
            continue
        docs = got[0]
        t1 = str(terms[(int(key) >> 32) - 1])
        t2 = str(terms[(int(key) & 0xFFFFFFFF) - 1])
        rows_t1 += [t1] * docs.size
        rows_t2 += [t2] * docs.size
        rows_doc += docs.tolist()
    return pa.table({
        "t1": pa.array(rows_t1, pa.string()),
        "t2": pa.array(rows_t2, pa.string()),
        "doc_id": pa.array(rows_doc, pa.int64()),
    })


def q_hit_postings(sf_dir: str, term: str = "vector") -> pa.Table:
    """HIT-index analog (InvertedIndex.java:375-378 + J6 HITS join):
    postings of one term ordered by a per-doc static prior. The
    reference's prior is the HITS rank array; the documents-table
    analog is rank by (n_chars desc, doc_id asc). Served straight from
    the PERSISTED HIT family (whose score column IS the prior rank,
    built by the distributed rank pipeline) — no driver-side corpus
    read. Output (doc_id, hit_rank)."""
    from candidategeneration_ray.functions.keys import bucket_of
    from candidategeneration_ray.state.queryengine import IndexReader

    fam = build_hit_family(sf_dir)
    cfg = EngineConfig(emit_pairs=False)
    t2i = {t: i + 1 for i, t in enumerate(fam["stats"]["terms"])}
    tid = t2i.get(term)
    if not tid:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "hit_rank": pa.array([], pa.int64())})
    buckets = np.unique(bucket_of(np.array([tid], np.int64), cfg.num_buckets)).tolist()
    reader = IndexReader(fam["final_dir"], fam["stats"], cfg, buckets=buckets)
    got = reader.get(tid)
    if got is None:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "hit_rank": pa.array([], pa.int64())})
    docs, ranks = got[0], got[1].astype(np.int64)
    order = np.lexsort((docs, ranks))
    return pa.table({
        "doc_id": pa.array(docs[order], pa.int64()),
        "hit_rank": pa.array(ranks[order], pa.int64()),
    })


def build_hit_family(sf_dir: str) -> dict:
    """Persist the HIT index family (the reference's third index,
    [term, hitRank, docID] postings, InvertedIndex.java:352-389):
    emitter runs in prior mode (score := per-doc static rank, rank 1 =
    best = longest doc here), lists build through the same bucketed
    shuffle, segments land in their own cached family dir.

    The prior rank itself is computed DISTRIBUTED
    (stages.docids.rank_prior_scalable: sort by (n_chars desc, doc
    asc) + per-block base offsets, range-blocked lookup blocks in the
    object store) — the corpus never materializes on the driver; the
    reference reads its HITS array from a precomputed file
    (utilsClass.java:251-263), this IS that precomputation."""
    from candidategeneration_ray.pipelines.build import write_lists
    from candidategeneration_ray.stages.docids import rank_prior_scalable
    from candidategeneration_ray.state import checkpoint as ckpt

    cfg = EngineConfig(emit_pairs=False)
    stats = corpus_stats(sf_dir)
    fam_dir = _cache_dir(sf_dir, f"hit-{cfg.index_tag()}")
    final = os.path.join(fam_dir, "final")
    src = os.path.join(sf_dir, "documents.parquet")
    if ckpt.is_complete(final, [src]):
        return {"final_dir": final, "stats": stats}

    docs_meta = ray.data.read_parquet(src, columns=["doc_id", "n_chars"])
    prior, keepalive = rank_prior_scalable(docs_meta)
    write_lists(emit_postings(doc_tokens(sf_dir), ray.put(stats), cfg,
                              prior_ref=ray.put(prior)),
                final, cfg, {"phase": "hit-family", "inputs": [src]})
    del keepalive  # prior blocks live until the pipeline above executed
    return {"final_dir": final, "stats": stats}


def q_hit_index_top5(sf_dir: str) -> pa.Table:
    """HIT index family served from the PERSISTED segments via a
    bucket-filtered read (only the buckets holding the fixed-query
    terms' keys are loaded). Output: per fixed-query term the top-5
    docs by (hit_rank asc, doc_id asc)."""
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.functions.keys import bucket_of
    from candidategeneration_ray.state.queryengine import IndexReader

    fam = build_hit_family(sf_dir)
    stats = fam["stats"]
    t2i = {t: i + 1 for i, t in enumerate(stats["terms"])}
    qterms = sorted({t for _, text in DOC_QUERIES for t in tokenize_text(text)
                     if t in t2i})
    if not qterms:
        return pa.table({"term": pa.array([], pa.string()),
                         "prefix_rank": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "hit_rank": pa.array([], pa.int64())})
    cfg = EngineConfig(emit_pairs=False)
    tids = np.array([t2i[t] for t in qterms], dtype=np.int64)
    buckets = np.unique(bucket_of(tids, cfg.num_buckets)).tolist()
    reader = IndexReader(fam["final_dir"], stats, cfg, buckets=buckets)
    terms_out, ranks, docs, hits = [], [], [], []
    for term in qterms:
        got = reader.get(reader.term_to_id[term])
        if got is None:
            continue
        d, hit_rank, _, _ = got
        top = np.lexsort((d, hit_rank))[:5]
        for r, i in enumerate(top):
            terms_out.append(term)
            ranks.append(r + 1)
            docs.append(int(d[i]))
            hits.append(int(hit_rank[i]))
    return pa.table({
        "term": pa.array(terms_out, pa.string()),
        "prefix_rank": pa.array(ranks, pa.int64()),
        "doc_id": pa.array(docs, pa.int64()),
        "hit_rank": pa.array(hits, pa.int64()),
    })


def load_ground_truth(gt_path: str) -> dict[int, list[int]]:
    """External complex-ranker ground truth — the analog of the
    reference's complexRankerResults trace (NestedQueryTrace.java:93-152
    reads (query, doc, rank) triples): a parquet table of
    (query_id:int64, doc_id:int64, rank:int64). Returns query_id ->
    doc ids ordered by rank asc."""
    import pyarrow.parquet as pq

    t = pq.read_table(gt_path, columns=["query_id", "doc_id", "rank"])
    qid = t.column("query_id").to_numpy().astype(np.int64)
    doc = t.column("doc_id").to_numpy().astype(np.int64)
    rank = t.column("rank").to_numpy().astype(np.int64)
    order = np.lexsort((rank, qid))
    qid, doc = qid[order], doc[order]
    out: dict[int, list[int]] = {}
    starts = run_starts(qid)
    ends = np.concatenate((starts[1:], [qid.size]))
    for s, e in zip(starts, ends):
        out[int(qid[s])] = doc[s:e].tolist()
    return out


def _predictive_setup(sf_dir: str, gt_path: str | None = None):
    """Quality-model training setup. Ground truth resolution order:
    explicit `gt_path` > `<sf_dir>/gt.parquet` if present (the
    reference's external complex-ranker GT data model) > the engine's
    own exact top-k (self-GT fallback, documented deviation)."""
    from candidategeneration_ray.state.queryengine import QueryEngine
    from candidategeneration_ray.state.selection import build_quality_model

    built = build_documents_index(sf_dir)
    eng = QueryEngine(built["final_dir"], built["stats"])
    reader = eng.reader
    if gt_path is None:
        cand = os.path.join(sf_dir, "gt.parquet")
        gt_path = cand if os.path.exists(cand) else None
    external = load_ground_truth(gt_path) if gt_path else None
    keysets, gts = [], []
    for qid, text in DOC_QUERIES:
        ids = reader.query_term_ids(text)
        keysets.append(reader.augmented_keys(ids))
        if external is not None:
            gts.append(external.get(qid, []))
        else:
            gts.append([d for _, d in eng.topk(text, k=10)])
    model = build_quality_model(reader, keysets, gts)
    return reader, model


def q_quality_model(sf_dir: str) -> pa.Table:
    """Quality-model matrix (Q2/A6): P(GT doc within depth bucket |
    length bucket) per key family. Value-checked against a full SQL
    re-derivation (sql_oracles.predictive_oracles: geometric buckets as
    recursive CTEs + window-function impact-rank scans); probabilities
    are integer-ratio doubles so the float hash matches bit-exactly."""
    reader, model = _predictive_setup(sf_dir)
    fams, xs, ys, ps = [], [], [], []
    for fam, name in ((False, "unigram"), (True, "pair")):
        p = model.prob[fam]
        for x in range(p.shape[0]):
            for y in range(p.shape[1]):
                fams.append(name)
                xs.append(x)
                ys.append(y)
                ps.append(float(p[x, y]))
    return pa.table({
        "family": pa.array(fams, pa.string()),
        "len_bucket": pa.array(xs, pa.int64()),
        "rank_bucket": pa.array(ys, pa.int64()),
        "p_found": pa.array(ps, pa.float64()),
    })


def q_predictive_candidates(sf_dir: str) -> pa.Table:
    """Model-guided candidate generation (Q5/Q6): per fixed query the
    top-10 candidates from greedy depth selection over its keys, scored
    exactly. Deterministic computation — value-checked against a SQL
    oracle that simulates the budgeted greedy heap one pop per
    iteration (recursive CTE); recall vs exact top-k also asserted in
    pytest."""
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.state.selection import predictive_candidates

    reader, model = _predictive_setup(sf_dir)
    results = []
    for qid, text in DOC_QUERIES:
        ids = reader.query_term_ids(text)
        if ids:
            results.append(
                (qid, predictive_candidates(reader, model, ids, 3000, 10)))
    return ranked_table(results)


def q_topk_candidates(sf_dir: str) -> pa.Table:
    """Predictive candidate pools per query (Q5/Q6 analog): pair-list +
    unigram top-layer union — approximate as a RETRIEVAL method but a
    deterministic computation (impact-ordered prefixes, ties by doc
    asc), so it carries a full SQL oracle (window-function top-k over
    the d-window pair scores)."""
    from candidategeneration_ray.state.queryengine import QueryEngine

    built = build_documents_index(sf_dir)
    eng = QueryEngine(built["final_dir"], built["stats"])
    qids, docs = [], []
    for qid, text in DOC_QUERIES:
        pool = eng.candidates(text, budget=100)
        qids += [qid] * len(pool)
        docs += pool.tolist()
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "doc_id": pa.array(docs, pa.int64()),
    })


def q_retrieval_eval(sf_dir: str) -> pa.Table:
    """Retrieval-quality evaluation of the predictive candidate
    pipeline against the exact BM25 top-10 as relevance truth — the
    reference's actual research question ("do the predictive index's
    candidates cover the full ranker's top-k?",
    algo_toplayer.cpp:978-1012 counts exactly these hits). Per query:

        n_candidates    rows the greedy selection returned
        hits_at_10      |top-10 candidates ∩ exact top-10|
        first_rel_rank  rank of the first relevant candidate (0 = none)

    recall@10 = hits_at_10/10 and MRR = mean(1/first_rel_rank) are
    float finalizers the caller applies; keeping integer ranks keeps
    the oracle hash-exact. Both inputs are SQL-verified pipelines; the
    oracle re-composes their SQL, so the driver checks the COMPOSITION,
    not just the parts. Per-query work is O(k²) over two ≤k-row lists
    — evaluation cost is query-bound, never corpus-bound."""
    cand = q_predictive_candidates(sf_dir)
    rel = q_bm25_topk(sf_dir)

    rq = rel.column("query_id").to_numpy().astype(np.int64)
    rd = rel.column("doc_id").to_numpy().astype(np.int64)
    relset = set(zip(rq.tolist(), rd.tolist()))

    cq = cand.column("query_id").to_numpy().astype(np.int64)
    cr = cand.column("rank").to_numpy().astype(np.int64)
    cd = cand.column("doc_id").to_numpy().astype(np.int64)
    hit = np.fromiter(((int(q), int(d)) in relset
                       for q, d in zip(cq, cd)), bool, cq.size)

    qids, ncand, hits10, firstrel = [], [], [], []
    for q in np.unique(cq):
        m = cq == q
        qids.append(int(q))
        ncand.append(int(m.sum()))
        hits10.append(int((hit & m & (cr <= 10)).sum()))
        relranks = cr[m & hit]
        firstrel.append(int(relranks.min()) if relranks.size else 0)
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "n_candidates": pa.array(ncand, pa.int64()),
        "hits_at_10": pa.array(hits10, pa.int64()),
        "first_rel_rank": pa.array(firstrel, pa.int64()),
    })


def selectivity_pairs() -> list[tuple[str, str]]:
    """The audited conjunctive pairs: all 2-subsets of each fixed
    query's kept tokens (sorted, deduped across queries) — shared by
    the engine and the oracle's inline VALUES."""
    from candidategeneration_ray.functions.tokenize import tokenize_many

    pairs = set()
    for _, text in DOC_QUERIES:
        toks = sorted(set(tokenize_many([text])[0]))
        for i in range(len(toks)):
            for j in range(i + 1, len(toks)):
                pairs.add((toks[i], toks[j]))
    return sorted(pairs)


def q_selectivity_audit(sf_dir: str) -> pa.Table:
    """Optimizer-statistics audit — the System-R independence
    assumption (Selinger et al. SIGMOD'79) checked against the real
    index: for each fixed-query term pair, the estimated conjunctive
    cardinality df1·df2/N (what a cost model predicts from per-term
    stats alone) beside the TRUE co-occurrence count from a
    posting-list intersection. The q-error between est_num/N and
    `actual` is the classic cardinality-misestimate diagnostic; terms
    missing from the dictionary carry df 0, matching the estimator's
    view. Output one row per pair: (t1, t2, df1, df2, n_docs,
    est_num, actual) — est stays the exact integer pair
    (est_num, n_docs), no float division.

    Shape: dfs come from the broadcast stats; each `actual` is one
    sorted-array intersection over the persisted compressed lists
    (the bool_and_docs decode path) — query-bound, never
    corpus-bound."""
    from candidategeneration_ray.state.queryengine import IndexReader

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    stats = built["stats"]
    df_by_id = stats["df_by_id"]
    n_docs = int(stats["n_docs"])

    rows = {k: [] for k in ("t1", "t2", "df1", "df2", "n_docs",
                            "est_num", "actual")}
    for t1, t2 in selectivity_pairs():
        ids = [reader.term_to_id.get(t) for t in (t1, t2)]
        dfs = [int(df_by_id[i]) if i else 0 for i in ids]
        if all(ids):
            d1 = reader.get(ids[0])[0]
            d2 = reader.get(ids[1])[0]
            actual = int(np.intersect1d(d1, d2, assume_unique=True).size)
        else:
            actual = 0
        rows["t1"].append(t1)
        rows["t2"].append(t2)
        rows["df1"].append(dfs[0])
        rows["df2"].append(dfs[1])
        rows["n_docs"].append(n_docs)
        rows["est_num"].append(dfs[0] * dfs[1])
        rows["actual"].append(actual)
    return pa.table({
        "t1": pa.array(rows["t1"], pa.string()),
        "t2": pa.array(rows["t2"], pa.string()),
        **{k: pa.array(rows[k], pa.int64())
           for k in ("df1", "df2", "n_docs", "est_num", "actual")},
    })


def q_list_overlap_kmv(sf_dir: str) -> pa.Table:
    """Sketch-accelerated join-cardinality estimation — the KMV
    (theta-sketch) companion to q_selectivity_audit: for each audited
    term pair, bottom-k sketches of the two POSTING LISTS' doc-id
    sets, their union sketch, and the integer KMV estimators
    (Beyer et al. SIGMOD'07 — the sketches sketches.q_kmv_registers
    builds for source vocabularies, here applied to the index's own
    lists): n_match/ku samples the Jaccard,
    union_est = (k−1)·2⁶⁴ // h_k (exact when the union sketch is not
    full), inter_est = n_match·union_est // ku. `actual` (the exact
    intersection) sits beside the estimate, so the driver
    hash-verifies the ESTIMATOR — the cost-model path a distributed
    planner uses when the exact intersection is too expensive.

    Shape: per pair two posting-list decodes (query-bound) and
    O(k) sketch arithmetic; never corpus-bound."""
    from candidategeneration_ray.functions import hashing as H
    from candidategeneration_ray.pipelines.sketches import (
        KMV_K, _kmv_bottom)
    from candidategeneration_ray.state.queryengine import IndexReader

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])

    def sketch(term: str) -> tuple[np.ndarray, np.ndarray]:
        tid = reader.term_to_id.get(term)
        if not tid:
            return np.array([], np.int64), np.array([], np.uint64)
        docs = reader.get(tid)[0]
        return docs, _kmv_bottom(H.h64_many([str(int(d)) for d in docs]))

    rows = {k: [] for k in ("t1", "t2", "ku", "n_match", "union_est",
                            "inter_est", "actual")}
    for t1, t2 in selectivity_pairs():
        d1, a = sketch(t1)
        d2, b = sketch(t2)
        usk = _kmv_bottom(np.concatenate((a, b)))
        ku = int(usk.size)
        match = int(np.count_nonzero(np.isin(usk, a) & np.isin(usk, b)))
        if ku == 0:
            union_est = inter_est = 0
        else:
            union_est = (ku if ku < KMV_K
                         else ((KMV_K - 1) << 64) // int(usk[-1]))
            inter_est = match * union_est // ku
        rows["t1"].append(t1)
        rows["t2"].append(t2)
        rows["ku"].append(ku)
        rows["n_match"].append(match)
        rows["union_est"].append(union_est)
        rows["inter_est"].append(inter_est)
        rows["actual"].append(
            int(np.intersect1d(d1, d2, assume_unique=True).size))
    return pa.table({
        "t1": pa.array(rows["t1"], pa.string()),
        "t2": pa.array(rows["t2"], pa.string()),
        **{k: pa.array(rows[k], pa.int64())
           for k in ("ku", "n_match", "union_est", "inter_est", "actual")},
    })


def q_pr_points(sf_dir: str) -> pa.Table:
    """Exact precision-recall curve of the predictive candidate
    ranking against the exact BM25 top-10 as relevance truth — the
    third member of the eval family beside retrieval_eval (recall/MRR
    witnesses) and ndcg_eval: one row per RELEVANT HIT in candidate
    rank order, carrying precision@k as the exact pair
    (prec_num = hit_idx, prec_den = rank) and recall@k's numerator
    (hit_idx again, over the query's n_rel). Average precision / MAP
    are float one-liners over these rows; keeping the rational points
    keeps the oracle hash-exact (a single MAP number has no bounded
    common denominator — ranks aren't bounded by k).

    Both inputs are SQL-verified pipelines and the oracle composes
    their SQL (the retrieval_eval pattern), so the driver checks the
    composition. O(k²) per query; never corpus-bound."""
    cand = q_predictive_candidates(sf_dir)
    rel = q_bm25_topk(sf_dir)

    relset = set(zip(rel.column("query_id").to_pylist(),
                     rel.column("doc_id").to_pylist()))
    nrel: dict[int, int] = {}
    for q in rel.column("query_id").to_pylist():
        nrel[q] = nrel.get(q, 0) + 1

    cq = cand.column("query_id").to_numpy().astype(np.int64)
    cr = cand.column("rank").to_numpy().astype(np.int64)
    cd = cand.column("doc_id").to_numpy().astype(np.int64)
    hit = np.fromiter(((int(q), int(d)) in relset
                       for q, d in zip(cq, cd)), bool, cq.size)
    order = np.lexsort((cr, cq))
    cq, cr, hit = cq[order], cr[order], hit[order]
    rows = {k: [] for k in ("query_id", "hit_idx", "rank", "n_rel")}
    for q in np.unique(cq):
        m = (cq == q) & hit
        for i, k in enumerate(cr[m], 1):
            rows["query_id"].append(int(q))
            rows["hit_idx"].append(i)
            rows["rank"].append(int(k))
            rows["n_rel"].append(nrel.get(int(q), 0))
    return pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})


PRF_R = 5   # pseudo-relevant feedback depth
PRF_E = 3   # expansion terms added per query


def q_prf_topk(sf_dir: str) -> pa.Table:
    """Pseudo-relevance-feedback retrieval (Rocchio-style two-pass —
    the classic query-expansion loop, Salton & Buckley 1990): run the
    exact BM25 top-R, harvest the E strongest non-query terms from
    those R docs, and re-rank with the expanded term set. Every step
    is integer-deterministic — expansion strength is the SUM of the
    quantized per-term BM25 scores over the feedback docs (ties by
    term asc), and the final ranking is the same quantized-score
    identity as bm25_topk — so even this "relevance model" entry
    hash-verifies against SQL.

    Feedback-doc term scores are recomputed FORWARD (point-read the R
    texts, tokenize, score under corpus stats) rather than inverted —
    the per-(term,doc) score identity between the two paths is the
    engine's core contract (tested in test_index_build)."""
    from collections import Counter

    import pyarrow.parquet as pq

    from candidategeneration_ray.functions.bm25 import bm25_quantized
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.state.queryengine import IndexReader, taat_topk

    cfg = EngineConfig(emit_pairs=False)
    built = build_documents_index(sf_dir, cfg)
    stats = built["stats"]
    reader = IndexReader(built["final_dir"], stats, cfg)
    terms = np.asarray(stats["terms"], dtype=object)
    t2i = {t: i + 1 for i, t in enumerate(terms)}
    df_by_id = np.asarray(stats["df_by_id"], dtype=np.int64)

    # pass 1: feedback docs for every query, then ONE point-read
    base_ids: dict[int, list[int]] = {}
    rel: dict[int, list[int]] = {}
    for qid, text in DOC_QUERIES:
        ids = reader.query_term_ids(text)
        base_ids[qid] = ids
        rel[qid] = [d for _, d in taat_topk(reader, ids, PRF_R)] if ids else []
    need = sorted({d for docs in rel.values() for d in docs})
    texts: dict[int, str] = {}
    if need:
        tab = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "text"],
            filters=[("doc_id", "in", need)])
        texts = dict(zip(tab.column("doc_id").to_pylist(),
                         tab.column("text").to_pylist()))

    # forward-score each feedback doc once: term id -> quantized score
    doc_scores: dict[int, dict[int, int]] = {}
    for d in need:
        toks = tokenize_text(texts[d])
        if not toks:
            doc_scores[d] = {}
            continue
        tf = Counter(toks)
        tids = np.array([t2i[t] for t in tf], np.int64)
        tfv = np.array(list(tf.values()), np.float64)
        sc = bm25_quantized(tfv, float(tfv.max()), float(len(toks)),
                            df_by_id[tids], stats["n_docs"], stats["avgdl"])
        doc_scores[d] = dict(zip(tids.tolist(), sc.tolist()))

    results = []
    for qid, _ in DOC_QUERIES:
        ids = base_ids[qid]
        if not ids:
            continue
        esum: Counter = Counter()
        for d in rel[qid]:
            for tid, s in doc_scores[d].items():
                esum[tid] += s
        qset = set(ids)
        cand = sorted(((tid, s) for tid, s in esum.items()
                       if tid not in qset),
                      key=lambda x: (-x[1], terms[x[0] - 1]))
        exp = [tid for tid, _ in cand[:PRF_E]]
        all_ids = sorted(qset | set(exp))
        results.append((qid, taat_topk(reader, all_ids, 10)))
    return ranked_table(results)


def q_forward_export(sf_dir: str) -> ray.data.Dataset:
    """Inverted→forward index TRANSPOSE (the docvalues structure real
    engines keep beside the postings): stream the built unigram
    segments, decode each list, re-key every posting by doc, and
    aggregate one row per document — (doc_id, n_terms, term_id_sum,
    score_sum). term ids are the dictionary's 1-based sorted-vocab
    positions, which SQL re-derives as a row_number over the distinct
    token set, so the transpose is value-verified end to end (it must
    reproduce, per doc, exactly the term set and scores the emitter
    inverted in the first place).

    Shape: segments stream through map_batches (decode + one packed
    sort per batch → per-(batch, doc) partials) into ONE doc-keyed
    groupby. The transpose moves each posting once — the same cost
    class as the original build shuffle."""
    from ray.data.aggregate import Sum

    from candidategeneration_ray.functions.arrowutil import binary_column_concat
    from candidategeneration_ray.functions.varint import decode_delta_concat

    cfg = EngineConfig(emit_pairs=False)
    built = build_documents_index(sf_dir, cfg)

    def _transpose(batch: pa.Table) -> pa.Table:
        keys = batch.column("key").to_numpy().astype(np.int64)
        ns = batch.column("n").to_numpy().astype(np.int64)
        if keys.size == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_terms": pa.array([], pa.int64()),
                             "term_id_sum": pa.array([], pa.int64()),
                             "score_sum": pa.array([], pa.int64())})
        docs_bin, _ = binary_column_concat(batch.column("docs"))
        scores_bin, _ = binary_column_concat(batch.column("scores"))
        d_u, _ = decode_delta_concat(docs_bin, ns)  # one-pass bulk decode
        d = d_u.astype(np.int64)
        s = (np.frombuffer(scores_bin, dtype="<i4")
             if isinstance(scores_bin, (bytes, bytearray))
             else np.ascontiguousarray(scores_bin, dtype=np.uint8).view("<i4")
             ).astype(np.int64)
        ud, n, ts, ss = group_sum(d, np.ones(d.size, np.int64),
                                  np.repeat(keys, ns), s)
        return pa.table({
            "doc_id": pa.array(ud, pa.int64()),
            "n_terms": pa.array(n, pa.int64()),
            "term_id_sum": pa.array(ts, pa.int64()),
            "score_sum": pa.array(ss, pa.int64()),
        })

    import glob

    seg_files = sorted(glob.glob(os.path.join(built["final_dir"], "*.parquet")))
    return (
        ray.data.read_parquet(seg_files)
        .map_batches(_transpose, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("n_terms", alias_name="n_terms"),
                   Sum("term_id_sum", alias_name="term_id_sum"),
                   Sum("score_sum", alias_name="score_sum"))
    )


FILTER_LANG = "en"


def q_filtered_bm25_topk(sf_dir: str) -> pa.Table:
    """Metadata-filtered retrieval: exact BM25 top-10 restricted to
    documents with lang == FILTER_LANG — the filtered-index-view
    serving mode (the search-engine analog of filtered ANN). The
    allowed-doc set comes from a column the index never saw; it is
    applied at decode (IndexReader doc_filter), so every top-k
    algorithm stays exact over the filtered corpus while scores keep
    the full-corpus epoch (a serving-time filter never rescores —
    same contract as tombstones)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from candidategeneration_ray.state.queryengine import QueryEngine

    cfg = EngineConfig(emit_pairs=False)
    built = build_documents_index(sf_dir, cfg)
    meta = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "lang"])
    allowed = np.sort(meta.filter(
        pc.equal(meta.column("lang"), FILTER_LANG)
    ).column("doc_id").to_numpy().astype(np.int64))
    eng = QueryEngine(built["final_dir"], built["stats"], cfg,
                      doc_filter_ref=allowed)
    return ranked_table((qid, eng.topk(text, k=10))
                        for qid, text in DOC_QUERIES)


def _stem_tokens_batch(batch: pa.Table) -> pa.Table:
    """Map the tokens column through the S-stemmer — stemming happens
    AFTER tokenization on a fixed token stream (never re-tokenized:
    a stem may trip the stopword/length filters its surface form
    passed). Dictionary-encoded: Python work is vocabulary-sized."""
    import pyarrow.compute as pc

    col = batch.column("tokens").combine_chunks()
    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    if flat.size:
        uniq, inv = np.unique(flat.astype(object), return_inverse=True)
        stems = np.asarray(s_stem_unique(uniq), dtype=object)[inv]
        new_col = pa.ListArray.from_arrays(
            col.offsets, pa.array(stems.tolist(), pa.string()))
    else:
        new_col = col
    i = batch.schema.get_field_index("tokens")
    return batch.set_column(i, "tokens", new_col)


def build_documents_index_stemmed(sf_dir: str,
                                  cfg: EngineConfig | None = None) -> dict:
    """Build (or reuse) the STEMMED static index: the standard
    pipeline over the S-stemmed token stream — the classic
    stemmed-index recall lever (the reference ships its Krovetz
    stemmer commented out, WWW.java:7,353; this turns the knob with
    the weakest safe stemmer). Stats, dictionary and df are all in
    stem space; doc_len is unchanged (stemming is 1:1)."""
    cfg = cfg or EngineConfig(emit_pairs=False)

    def make():
        toks = doc_tokens(sf_dir).map_batches(
            _stem_tokens_batch, batch_format="pyarrow")
        return toks, compute_stats(toks, table_buckets(sf_dir, "documents"))

    return _finish_documents_build(
        sf_dir, f"docidxst-{cfg.index_tag()}", cfg, make)


def q_stemmed_bm25_topk(sf_dir: str) -> pa.Table:
    """Exact BM25 top-10 per fixed query over the STEMMED index —
    query tokens stem through the same rules (passed as pre-stemmed
    tokens so the stopword/length filters are not re-applied), so
    morphological variants of a query term now match. Scores are a
    different epoch from bm25_topk (df/avgdl in stem space); the
    oracle rebuilds the whole chain with the stem CASE interposed."""
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.state.queryengine import QueryEngine

    built = build_documents_index_stemmed(
        sf_dir, EngineConfig(emit_pairs=False))
    eng = QueryEngine(built["final_dir"], built["stats"])
    return ranked_table(
        (qid, eng.topk(text, k=10, tokens=s_stem_unique(
            np.asarray(tokenize_text(text), dtype=object))))
        for qid, text in DOC_QUERIES)


# --------------------------------------- curated-corpus (dedup) index
# The production flow the two biggest subsystems exist for: the dedup
# pipeline decides which documents survive, and the index is REBUILT
# over the survivors — N, avgdl and df all shift, so every BM25 score
# is re-derived (unlike the serving-time doc_filter view, which keeps
# the full-corpus epoch). Survivors = the keep-best representatives of
# the MinHash-LSH duplicate clusters (extras.q_cluster_representatives:
# longest doc per cluster, ties → min doc_id; singleton clusters keep
# their only member).


def _dedup_drop_ids(sf_dir: str) -> np.ndarray:
    """Sorted doc ids REMOVED by near-dup dedup: members of multi-doc
    LSH clusters that are not the keep-best representative. Computed
    distributed (clusters ⨝ reps is the existing bucketed join inside
    q_cluster_representatives); only the O(near-duplicates) drop set —
    the tombstone-sized class, NOT the corpus — reaches the driver."""
    from candidategeneration_ray.pipelines.extras import (
        q_cluster_representatives, q_dup_clusters)

    reps = q_cluster_representatives(sf_dir).to_pandas()
    multi = reps[reps["n_docs"] > 1].sort_values("cluster")
    if not len(multi):
        return np.array([], np.int64)
    mc = multi["cluster"].to_numpy(np.int64)   # sorted multi clusters
    mr = multi["rep_doc"].to_numpy(np.int64)   # aligned representatives
    kref = ray.put((mc, mr))

    def _drops(batch: pa.Table, r=kref) -> pa.Table:
        mc_, mr_ = ray.get(r)
        d = batch.column("doc_id").to_numpy().astype(np.int64)
        c = batch.column("cluster").to_numpy().astype(np.int64)
        pos = np.searchsorted(mc_, c)
        pos[pos == mc_.size] = 0
        hit = (mc_[pos] == c) & (mr_[pos] != d)
        return pa.table({"doc_id": pa.array(d[hit], pa.int64())})

    rows = (q_dup_clusters(sf_dir)
            .map_batches(_drops, batch_format="pyarrow").take_all())
    return np.sort(np.fromiter((r["doc_id"] for r in rows), np.int64,
                               len(rows)))


def drop_doc_filter(batch: pa.Table, drop_sorted: np.ndarray) -> pa.Table:
    """Filter a doc batch against a SORTED drop set of doc ids; an
    empty drop set passes the batch through untouched (an
    all-singleton corpus deduplicates to itself)."""
    if drop_sorted.size == 0:
        return batch
    d = batch.column("doc_id").to_numpy().astype(np.int64)
    pos = np.searchsorted(drop_sorted, d)
    pos[pos == drop_sorted.size] = 0
    return batch.filter(pa.array(~(drop_sorted[pos] == d)))


def build_documents_index_dedup(sf_dir: str,
                                cfg: EngineConfig | None = None) -> dict:
    """Build (or reuse) the static index over the DEDUPLICATED corpus:
    the standard pipeline (stats → emission → bucketed shuffle →
    compressed block-max lists) over the token stream with the
    near-dup drop set filtered out — stats are recomputed over the
    survivors, so the index is a genuine rebuild, not a filtered view
    of the full-corpus index."""
    cfg = cfg or EngineConfig(emit_pairs=False)

    def make():
        dref = ray.put(_dedup_drop_ids(sf_dir))
        toks = doc_tokens(sf_dir).map_batches(
            lambda b, r=dref: drop_doc_filter(b, ray.get(r)),
            batch_format="pyarrow")
        return toks, compute_stats(toks, table_buckets(sf_dir, "documents"))

    return _finish_documents_build(
        sf_dir, f"docidxd-{cfg.index_tag()}", cfg, make)


def q_dedup_bm25_topk(sf_dir: str) -> pa.Table:
    """Exact BM25 top-10 per fixed query over the DEDUPLICATED corpus
    index — the composition proof tying the dedup subsystem to the
    index subsystem (the oracle rebinds the bm25 SQL's documents table
    to the cluster_representatives oracle's survivor set, so the
    whole curate→build→serve wiring is hash-verified)."""
    from candidategeneration_ray.state.queryengine import QueryEngine

    built = build_documents_index_dedup(
        sf_dir, EngineConfig(emit_pairs=False))
    eng = QueryEngine(built["final_dir"], built["stats"])
    return ranked_table((qid, eng.topk(text, k=10))
                        for qid, text in DOC_QUERIES)


MLT_SEEDS = (0, 17, 42)   # seed documents (doc ids exist at every sf)
MLT_E = 5                 # terms taken from each seed


def q_more_like_this(sf_dir: str) -> pa.Table:
    """More-like-this — document-to-document retrieval (the classic
    MLT feature): each seed document's MLT_E strongest terms (by its
    own quantized per-term BM25 scores, ties by term asc) become a
    query; exact top-10 over the index EXCLUDING the seed itself.
    Term strength and ranking are the same integer score identity as
    bm25_topk, so the whole feature hash-verifies.

    Shape: one K-row point read for the seeds, forward scoring (the
    emitter's per-(term,doc) identity), then the standard exact top-k;
    the seed exclusion rides the doc_filter-style decode path cost-free
    (filtered in the final merge — k+1 suffices since only one doc is
    excluded)."""
    from collections import Counter

    import pyarrow.parquet as pq

    from candidategeneration_ray.functions.bm25 import bm25_quantized
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.state.queryengine import IndexReader, taat_topk

    cfg = EngineConfig(emit_pairs=False)
    built = build_documents_index(sf_dir, cfg)
    stats = built["stats"]
    reader = IndexReader(built["final_dir"], stats, cfg)
    terms = np.asarray(stats["terms"], dtype=object)
    t2i = {t: i + 1 for i, t in enumerate(terms)}
    df_by_id = np.asarray(stats["df_by_id"], dtype=np.int64)

    tab = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"],
                        filters=[("doc_id", "in", list(MLT_SEEDS))])
    texts = dict(zip(tab.column("doc_id").to_pylist(),
                     tab.column("text").to_pylist()))
    results = []
    for seed in MLT_SEEDS:
        toks = tokenize_text(texts[seed])
        if not toks:
            continue
        tf = Counter(toks)
        tids = np.array([t2i[t] for t in tf], np.int64)
        tfv = np.array(list(tf.values()), np.float64)
        sc = bm25_quantized(tfv, float(tfv.max()), float(len(toks)),
                            df_by_id[tids], stats["n_docs"], stats["avgdl"])
        order = sorted(zip(tids.tolist(), sc.tolist()),
                       key=lambda x: (-x[1], terms[x[0] - 1]))
        qids = sorted(tid for tid, _ in order[:MLT_E])
        results.append((seed, [(s, d) for s, d in taat_topk(reader, qids, 11)
                               if d != seed][:10]))
    return ranked_table(results).rename_columns(
        ["seed_doc", "rank", "doc_id", "score"])


TEXTRANK_SUPPORT = 3
TEXTRANK_ITERS = 5
TEXTRANK_SCALE = 1_000_000
TEXTRANK_TOPK = 20


def q_textrank_terms(sf_dir: str) -> pa.Table:
    """TextRank keyword importance (Mihalcea & Tarau EMNLP'04):
    integer PageRank over the d-window term co-occurrence graph —
    nodes are terms, edges are term pairs co-occurring (within the
    engine's d=5 pair window) in ≥ TEXTRANK_SUPPORT documents, built
    from the SAME pair-emission machinery as the d-bigram index (M6).
    WEIGHTED (the paper's formulation): edge weight = co-occurrence
    doc count, W(u) = Σ incident weights. Fixed-point arithmetic (the
    q_pagerank convention) makes every round exact:  r₀ = S;
    r'(v) = (100−85)·S//100 + Σ_{u∼v} (85·r(u)·w(u,v)) // (100·W(u))
    — so the oracle unrolls the rounds and hash-verifies. Output:
    top-20 (term, rank) by (rank desc, term asc).

    Shape: pair counts via the bucketed emission groupby; the rank
    rounds run over the edge dataset with a broadcast node-count-sized
    (rank, degree) array per round (the kcore/degree pattern)."""
    from ray.data.aggregate import Sum

    toks = doc_tokens(sf_dir)
    stats = corpus_stats(sf_dir)
    cfg = EngineConfig(emit_unigrams=False, emit_pairs=True)
    postings = emit_postings(toks, ray.put(stats), cfg)
    counts = postings.groupby("key").aggregate(Sum("n", alias_name="n_docs"))

    def _edges(batch: pa.Table) -> pa.Table:
        key = batch.column("key").to_numpy().astype(np.int64)
        n = batch.column("n_docs").to_numpy().astype(np.int64)
        keep = n >= TEXTRANK_SUPPORT
        key, n = key[keep], n[keep]
        return pa.table({
            "u": pa.array(key >> np.int64(32), pa.int64()),
            "v": pa.array(key & np.int64(0xFFFFFFFF), pa.int64()),
            "w": pa.array(n, pa.int64()),
        })

    edges = counts.map_batches(_edges, batch_format="pyarrow").materialize()

    def _deg_rows(batch: pa.Table) -> pa.Table:
        node = np.concatenate((
            batch.column("u").to_numpy().astype(np.int64),
            batch.column("v").to_numpy().astype(np.int64)))
        w = batch.column("w").to_numpy().astype(np.int64)
        ks, ws = group_sum(node, np.concatenate((w, w)))
        return pa.table({"node": pa.array(ks, pa.int64()),
                         "w": pa.array(ws, pa.int64())})

    deg_df = (edges.map_batches(_deg_rows, batch_format="pyarrow")
              .groupby("node").aggregate(Sum("w", alias_name="w"))
              ).to_pandas()  # node-count-sized
    if len(deg_df) == 0:
        return pa.table({"term": pa.array([], pa.string()),
                         "rank": pa.array([], pa.int64())})
    nodes = deg_df["node"].to_numpy(np.int64)
    deg = deg_df["w"].to_numpy(np.int64)
    o = np.argsort(nodes)
    nodes, deg = nodes[o], deg[o]
    S = np.int64(TEXTRANK_SCALE)
    base = (100 - 85) * S // 100
    rank = np.full(nodes.size, S, np.int64)
    for _ in range(TEXTRANK_ITERS):
        state_ref = ray.put((nodes, rank, deg))

        def _give(batch: pa.Table) -> pa.Table:
            gn, gr, gd = ray.get(state_ref)
            u = batch.column("u").to_numpy().astype(np.int64)
            v = batch.column("v").to_numpy().astype(np.int64)
            w = batch.column("w").to_numpy().astype(np.int64)
            x = np.concatenate((u, v))      # giver
            y = np.concatenate((v, u))      # receiver
            ww = np.concatenate((w, w))
            gi = np.searchsorted(gn, x)
            give = (np.int64(85) * gr[gi] * ww) // (np.int64(100) * gd[gi])
            ys, cs = group_sum(y, give)
            return pa.table({"node": pa.array(ys, pa.int64()),
                             "got": pa.array(cs, pa.int64())})

        got = (edges.map_batches(_give, batch_format="pyarrow")
               .groupby("node").aggregate(Sum("got", alias_name="got"))
               ).to_pandas()
        new = np.full(nodes.size, base, np.int64)
        gi = np.searchsorted(nodes, got["node"].to_numpy(np.int64))
        new[gi] += got["got"].to_numpy(np.int64)
        rank = new
    terms = np.asarray(stats["terms"], dtype=object)
    order = np.lexsort((terms[nodes - 1], -rank))[:TEXTRANK_TOPK]
    return pa.table({
        "term": pa.array(terms[nodes[order] - 1].tolist(), pa.string()),
        "rank": pa.array(rank[order], pa.int64()),
    })


# ------------------------------------------- hybrid dense+sparse retrieval

HYBRID_POOL = 20    # depth of each ranking fed into the fusion
HYBRID_RRF_C = 60   # standard RRF constant (Cormack et al. SIGIR'09)
HYBRID_K = 10


def q_hybrid_topk(sf_dir: str) -> pa.Table:
    """Hybrid dense+sparse retrieval: BM25 top-20 from the persisted
    compressed index fused with a dense cosine top-20 by reciprocal-
    rank fusion — the lexical+semantic blend a RAG stack serves. With
    no text encoder in the environment the dense query vector is the
    embedding of the sparse rank-1 document (dense pseudo-relevance
    feedback: sparse retrieval picks the anchor, dense kNN pulls its
    semantic neighborhood); RRF weights are exact integers
    (1e6 // (60 + rank), same convention as positional.q_rrf_fusion)
    so the whole fusion hash-verifies.

    Scale shape: the sparse side reads only the queried terms' posting
    lists; the dense side is ONE streaming pass over the embeddings
    table scoring ALL seeds at once (per-batch |batch| x Q matmul,
    per-seed partial top-20 — q_ann_cosine_top10's baseline
    generalized to a seed matrix); the fusion sees Q x 40 rows. At
    10^12 docs the dense pass swaps to the persisted IVF layout
    (extras.q_ann_ivf_top10) with fusion unchanged.
    Returns (query_id, rank, doc_id, rrf_micro)."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.extras import _emb_matrix
    from candidategeneration_ray.state.queryengine import QueryEngine

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    eng = QueryEngine(built["final_dir"], built["stats"])

    sparse: dict[int, list[int]] = {}   # qid -> doc ids in rank order
    for qid, text in DOC_QUERIES:
        hits = eng.topk(text, k=HYBRID_POOL)
        if hits:
            sparse[qid] = [int(d) for (_s, d) in hits]

    empty = pa.table({
        "query_id": pa.array([], pa.int64()),
        "rank": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "rrf_micro": pa.array([], pa.int64()),
    })
    if not sparse:
        return empty

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    qids = sorted(sparse)
    seeds = [sparse[q][0] for q in qids]
    # point-read the seed vectors (row-group pruned) — never the table
    seed_tab = pq.read_table(emb_path, columns=["vec_id", "embedding"],
                             filters=[("vec_id", "in", sorted(set(seeds)))])
    seed_vecs = {
        int(v): np.asarray(e, dtype=np.float64)
        for v, e in zip(seed_tab.column("vec_id").to_pylist(),
                        seed_tab.column("embedding").to_pylist())
    }
    # a seed doc may have NO embedding row (the embeddings table
    # covers a subset of documents at some scales); the oracle's inner
    # join drops such queries' dense leg, so they fuse sparse-only.
    # `dense_qi[j]` = position of qids[j] in the dense query matrix,
    # or -1 when its seed is vectorless
    have = [j for j, sd in enumerate(seeds) if sd in seed_vecs]
    dense_qi = {j: i for i, j in enumerate(have)}
    if have:
        qmat = np.stack([seed_vecs[seeds[j]] for j in have])   # Q x d
        qmat /= np.linalg.norm(qmat, axis=1, keepdims=True)
    else:
        qmat = np.zeros((0, 1), np.float64)
    q_ref = ray.put(qmat)

    def _score(batch: pa.Table, *, _c={}) -> pa.Table:
        if "q" not in _c:
            _c["q"] = ray.get(q_ref)
        qm = _c["q"]
        ids, mat = _emb_matrix(batch)
        norms = np.linalg.norm(mat, axis=1)
        cos = (mat @ qm.T) / np.where(norms == 0, 1.0, norms)[:, None]
        outs_q, outs_d, outs_c = [], [], []
        for j in range(qm.shape[0]):
            top = np.lexsort((ids, -cos[:, j]))[:HYBRID_POOL]
            outs_q.append(np.full(top.size, j, np.int64))
            outs_d.append(ids[top])
            outs_c.append(cos[top, j])
        return pa.table({
            "qi": pa.array(np.concatenate(outs_q), pa.int64()),
            "vec_id": pa.array(np.concatenate(outs_d), pa.int64()),
            "cos": pa.array(np.concatenate(outs_c), pa.float64()),
        })

    if have:
        parts = (ray.data.read_parquet(emb_path,
                                       columns=["vec_id", "embedding"])
                 .map_batches(_score, batch_format="pyarrow")).to_pandas()
    else:
        import pandas as pd

        parts = pd.DataFrame({"qi": [], "vec_id": [], "cos": []})

    out_q, out_r, out_d, out_s = [], [], [], []
    for j, qid in enumerate(qids):
        dense_p = parts[parts["qi"] == dense_qi.get(j, -1)].sort_values(
            ["cos", "vec_id"], ascending=[False, True]).head(HYBRID_POOL)
        score: dict[int, int] = {}
        for rank, doc in enumerate(sparse[qid], 1):
            score[doc] = score.get(doc, 0) + 1_000_000 // (HYBRID_RRF_C + rank)
        for rank, doc in enumerate(dense_p["vec_id"].to_numpy(np.int64), 1):
            doc = int(doc)
            score[doc] = score.get(doc, 0) + 1_000_000 // (HYBRID_RRF_C + rank)
        top = sorted(score.items(), key=lambda t: (-t[1], t[0]))[:HYBRID_K]
        for r, (doc, s) in enumerate(top, 1):
            out_q.append(qid)
            out_r.append(r)
            out_d.append(doc)
            out_s.append(s)
    if not out_q:
        return empty
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "doc_id": pa.array(out_d, pa.int64()),
        "rrf_micro": pa.array(out_s, pa.int64()),
    })


def q_hard_negatives(sf_dir: str, n_pos: int = 3,
                     neg_lo: int = 11, neg_hi: int = 20) -> pa.Table:
    """Contrastive-training triple mining (the DPR/"BM25 hard
    negatives" recipe): per fixed query, positives = exact BM25 top
    n_pos, hard negatives = ranks [neg_lo, neg_hi] of the SAME ranking
    — near-misses that score high lexically but fall outside the top
    block, exactly the negatives a bi-encoder needs. Emits the full
    pos × neg cross product per query with the integer score margin,
    ready to feed a triplet loss.

    Serving-path computation (index build + WAND top-k at k=neg_hi);
    output is O(queries * n_pos * (neg_hi-neg_lo+1)) — never
    corpus-bound. Queries with < neg_lo retrievable docs yield no
    triples, mirroring the oracle's rank-range join."""
    from candidategeneration_ray.state.queryengine import QueryEngine

    built = build_documents_index(sf_dir)
    eng = QueryEngine(built["final_dir"], built["stats"])
    qs, pr, nr, pd_, nd, mg = [], [], [], [], [], []
    for qid, text in DOC_QUERIES:
        res = eng.topk(text, k=neg_hi)
        pos = res[:n_pos]
        negs = res[neg_lo - 1:neg_hi]
        for pi, (ps, pdoc) in enumerate(pos):
            for ni, (ns, ndoc) in enumerate(negs):
                qs.append(qid)
                pr.append(pi + 1)
                nr.append(neg_lo + ni)
                pd_.append(pdoc)
                nd.append(ndoc)
                mg.append(int(ps) - int(ns))
    return pa.table({
        "query_id": pa.array(qs, pa.int64()),
        "pos_rank": pa.array(pr, pa.int64()),
        "neg_rank": pa.array(nr, pa.int64()),
        "pos_doc_id": pa.array(pd_, pa.int64()),
        "neg_doc_id": pa.array(nd, pa.int64()),
        "margin": pa.array(mg, pa.int64()),
    })


# ------------------------------------------------ passage (MaxP) retrieval

CHUNKS_CAP = 1024     # chunk_id = doc_id * CHUNKS_CAP + chunk_idx


def _chunk_tokens_batch(batch: pa.Table) -> pa.Table:
    """Explode each doc's kept-token stream into CHUNK_TOKENS-token
    passages, one token-stream row per chunk with the packed chunk id
    as its doc_id — the standard index pipeline then builds a PASSAGE
    index with zero new machinery. Batch-global (offset arithmetic on
    one flat token array, no per-doc loop). Packing holds to ~2^40
    docs x 1024 chunks; past that the chunk id needs the docids remap
    stage instead (fail-fast below)."""
    import pyarrow.compute as pc

    from candidategeneration_ray.pipelines.extras import CHUNK_TOKENS

    col = batch.column("tokens").combine_chunks()
    flat = pc.list_flatten(col)
    lens = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
    n_chunks = -(-lens // CHUNK_TOKENS)
    total = int(n_chunks.sum())
    if total == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "tokens": pa.array([], pa.list_(pa.string())),
                         "doc_len": pa.array([], pa.int32())})
    if (n_chunks >= CHUNKS_CAP).any() or (doc_ids >= (1 << 40)).any():
        raise ValueError("chunk-id packing overflow: use a docids remap")
    doc_start = np.concatenate(([0], np.cumsum(lens)))[:-1]
    local = (np.arange(total, dtype=np.int64)
             - np.repeat(np.concatenate(([0], np.cumsum(n_chunks)))[:-1],
                         n_chunks))
    starts = np.repeat(doc_start, n_chunks) + local * CHUNK_TOKENS
    ends = np.minimum(starts + CHUNK_TOKENS,
                      np.repeat(doc_start + lens, n_chunks))
    offsets = np.concatenate((starts, [int(ends[-1])]))
    tokens = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat)
    return pa.table({
        "doc_id": pa.array(np.repeat(doc_ids, n_chunks) * CHUNKS_CAP + local,
                           pa.int64()),
        "tokens": tokens,
        "doc_len": pa.array((ends - starts).astype(np.int32), pa.int32()),
    })


_CSTATS_MEMO: dict[str, dict] = {}


def build_chunk_index(sf_dir: str, cfg: EngineConfig | None = None) -> dict:
    """Build (or reuse) the passage-level index: the unchanged pipeline
    (stats -> emission -> bucketed shuffle -> compressed block-max
    lists) over the chunk token stream. Passage indexing is an
    EMISSION-time reshape, exactly like the fielded family."""
    from candidategeneration_ray.pipelines.extras import CHUNK_TOKENS

    cfg = cfg or EngineConfig(emit_pairs=False)

    def make():
        toks = doc_tokens(sf_dir).map_batches(
            _chunk_tokens_batch, batch_format="pyarrow")
        key = os.path.realpath(sf_dir)
        if key not in _CSTATS_MEMO:
            _CSTATS_MEMO[key] = compute_stats(
                toks, table_buckets(sf_dir, "documents"))
        return toks, _CSTATS_MEMO[key]

    return _finish_documents_build(
        sf_dir, f"docidxc-c{CHUNK_TOKENS}-{cfg.index_tag()}", cfg, make)


def q_passage_bm25_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """MaxP passage retrieval (Dai & Callan 2019's BM25-MaxP shape):
    rank documents by their BEST passage's BM25 — long documents stop
    winning on length alone. Served EXACTLY from the passage index:
    in the chunk ranking (score desc, chunk_id asc) the first
    occurrence of each doc carries its max passage score AND chunk_id
    packing makes the within-score order doc-ascending, so the global
    top-k docs are literally the first k distinct docs of the chunk
    ranking. The serving loop doubles the chunk k until k distinct
    docs are seen or the ranking is exhausted — deterministic and
    exact, no rescoring pass."""
    from candidategeneration_ray.state.queryengine import QueryEngine

    built = build_chunk_index(sf_dir, EngineConfig(emit_pairs=False))
    eng = QueryEngine(built["final_dir"], built["stats"])
    results = []
    for qid, text in DOC_QUERIES:
        kk = 50 * k
        while True:
            res = eng.topk(text, k=kk)
            seen: dict[int, int] = {}
            for s, cid in res:
                d = cid // CHUNKS_CAP
                if d not in seen:
                    seen[d] = int(s)
                if len(seen) >= k:
                    break
            if len(seen) >= k or len(res) < kk:
                break
            kk *= 2
        results.append((qid, [(s, d) for d, s in list(seen.items())[:k]]))
    return ranked_table(results)


# ------------------------------------------------------------ LTR rerank

# fixed integer "trained model": the deterministic stand-in for a
# learned linear ranker over the exported feature table (weights chosen
# so every feature influences the order at test scale; any fixed vector
# exercises the same serving path)
LTR_WEIGHTS: dict[str, int] = {
    "bm25": 3, "n_matched": 10_000_000, "sum_tf": 100_000,
    "max_ts": 1, "min_ts": 1, "dl": -1_000, "min_df": -10_000,
    "n_chars": -10,
}


def q_ltr_rerank_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Second-stage LTR rerank: apply an integer linear model over the
    SQL-verified feature export (q_ltr_features) to the BM25 top-LTR_POOL
    pool and emit the reranked top-k — the export -> train -> SERVE leg
    of the learning-to-rank story. The oracle composes the feature
    oracle verbatim and applies the same weights, so the driver
    hash-checks the rerank WIRING, not just the features. Integer
    weights x integer features keep every score exact. Cost is
    pool-bound (LTR_POOL rows per query)."""
    feat = q_ltr_features(sf_dir)
    qid = feat.column("query_id").to_numpy().astype(np.int64)
    doc = feat.column("doc_id").to_numpy().astype(np.int64)
    score = np.zeros(feat.num_rows, dtype=np.int64)
    for col, w in LTR_WEIGHTS.items():
        score += w * feat.column(col).to_numpy().astype(np.int64)
    order = np.lexsort((doc, -score, qid))
    qs, rs, ds_, ss = [], [], [], []
    prev_q, rank = None, 0
    for i in order:
        q = int(qid[i])
        rank = rank + 1 if q == prev_q else 1
        prev_q = q
        if rank > k:
            continue
        qs.append(q)
        rs.append(rank)
        ds_.append(int(doc[i]))
        ss.append(int(score[i]))
    return pa.table({
        "query_id": pa.array(qs, pa.int64()),
        "rank": pa.array(rs, pa.int64()),
        "doc_id": pa.array(ds_, pa.int64()),
        "ltr_score": pa.array(ss, pa.int64()),
    })


def q_ranking_agreement(sf_dir: str, depth: int = 10) -> pa.Table:
    """Rank-agreement diagnostics between the doc-level BM25 ranking
    and the MaxP passage ranking: per query and prefix depth d, the
    exact prefix-intersection size |A_1..d ∩ B_1..d| — the integer
    kernel of top-weighted rank-correlation measures (RBO's inner term
    with the geometric weights left to the analyst). Two k-row lists
    per query, O(queries x depth^2); both inputs are SQL-verified
    pipelines and the oracle re-composes their SQL, so the COMPARISON
    itself is value-checked."""
    a = q_bm25_topk(sf_dir)
    b = q_passage_bm25_topk(sf_dir)

    def _by_q(t: pa.Table) -> dict[int, list[int]]:
        qid = t.column("query_id").to_numpy().astype(np.int64)
        rank = t.column("rank").to_numpy().astype(np.int64)
        doc = t.column("doc_id").to_numpy().astype(np.int64)
        out: dict[int, list[int]] = {}
        for i in np.lexsort((rank, qid)):
            out.setdefault(int(qid[i]), []).append(int(doc[i]))
        return out

    da, db = _by_q(a), _by_q(b)
    qs, ds_, ns = [], [], []
    for q in sorted(set(da) | set(db)):
        la, lb = da.get(q, []), db.get(q, [])
        for d in range(1, depth + 1):
            qs.append(q)
            ds_.append(d)
            ns.append(len(set(la[:d]) & set(lb[:d])))
    return pa.table({
        "query_id": pa.array(qs, pa.int64()),
        "depth": pa.array(ds_, pa.int64()),
        "n_common": pa.array(ns, pa.int64()),
    })


RBO_DEPTH = 10
RBO_P = (9, 10)      # persistence p = 9/10 as an exact rational


def rbo_weights(depth: int = RBO_DEPTH,
                p: tuple[int, int] = RBO_P) -> tuple[dict[int, int], int]:
    """Exact integer RBO weights: the truncated RBO_min@depth is
    (1−p)·Σ_d p^(d−1)·A_d/d; with p = 9/10 and lcm(1..10) = 2520
    every term scales to the integer
        w_d = (2520 // d) · 9^(d−1) · 10^(depth−d)
    and perfect agreement (A_d = d) gives the constant denominator
    Σ_d 2520 · 9^(d−1) · 10^(depth−d) (d | 2520 for d ≤ 10, so
    (2520 // d)·d == 2520 exactly). Returns ({d: w_d}, den)."""
    pn, pd_ = p
    lcm = 2520
    assert depth <= 10 and all(lcm % d == 0 for d in range(1, depth + 1))
    w = {d: (lcm // d) * pn ** (d - 1) * pd_ ** (depth - d)
         for d in range(1, depth + 1)}
    den = sum(lcm * pn ** (d - 1) * pd_ ** (depth - d)
              for d in range(1, depth + 1))
    return w, den


def q_ranking_rbo(sf_dir: str, depth: int = RBO_DEPTH) -> pa.Table:
    """Rank-biased overlap (Webber, Moffat & Zobel TOIS'10) between
    the doc-level BM25 and MaxP passage rankings — the principled
    top-weighted finalizer over q_ranking_agreement's prefix
    intersections (whose docstring left "the geometric weights to the
    analyst"; this entry is that analyst, kept exact): per query,
    rbo = rbo_num / rbo_den with the integer weight table from
    rbo_weights (p = 9/10, truncated RBO_min — no extrapolation, so
    the bound is conservative). 1 = identical top-10s with identical
    prefixes; 0 = disjoint.

    Shape: the O(queries × depth²) agreement kernel + an O(depth)
    weighted fold. Output (query_id, rbo_num, rbo_den)."""
    w, den = rbo_weights(depth)
    ag = q_ranking_agreement(sf_dir, depth=depth)
    qid = ag.column("query_id").to_numpy().astype(np.int64)
    dep = ag.column("depth").to_numpy().astype(np.int64)
    nc = ag.column("n_common").to_numpy().astype(np.int64)
    acc: dict[int, int] = {}
    for q, d, n in zip(qid, dep, nc):
        acc[int(q)] = acc.get(int(q), 0) + int(n) * w[int(d)]
    qs = sorted(acc)
    return pa.table({
        "query_id": pa.array(qs, pa.int64()),
        "rbo_num": pa.array([acc[q] for q in qs], pa.int64()),
        "rbo_den": pa.array([den] * len(qs), pa.int64()),
    })


def q_kendall_tau(sf_dir: str) -> pa.Table:
    """Kendall rank correlation between the BM25 first stage and the
    LTR-reranked second stage, per query, restricted to the docs BOTH
    rankings retrieved (the standard treatment for top-k lists; RBO
    covers the top-weighted view, Kendall is the uniform classic):
    concordant / discordant counted exactly over the common-doc
    pairs; τ = (C − D) / (C + D) is the caller's one-liner (ties are
    impossible — ranks are strict). Measures how much the reranker
    actually reorders. Output (query_id, n_common, concordant,
    discordant).

    Shape: two verified k-row rankings per query, O(k²) driver
    arithmetic; the oracle composes both oracles (the
    ranking_agreement pattern applied to the rerank pair)."""
    a = q_bm25_topk(sf_dir)
    b = q_ltr_rerank_topk(sf_dir)

    def _ranks(t: pa.Table) -> dict[int, dict[int, int]]:
        out: dict[int, dict[int, int]] = {}
        for r in t.to_pylist():
            out.setdefault(r["query_id"], {})[r["doc_id"]] = r["rank"]
        return out

    ra = _ranks(a)
    rb = _ranks(b)
    rows = {k: [] for k in ("query_id", "n_common", "concordant",
                            "discordant")}
    for q in sorted(set(ra) & set(rb)):
        common = sorted(set(ra[q]) & set(rb[q]))
        if not common:       # mirror the oracle: no common docs, no row
            continue
        c = d = 0
        for i in range(len(common)):
            for j in range(i + 1, len(common)):
                x, y = common[i], common[j]
                if ((ra[q][x] < ra[q][y]) == (rb[q][x] < rb[q][y])):
                    c += 1
                else:
                    d += 1
        rows["query_id"].append(q)
        rows["n_common"].append(len(common))
        rows["concordant"].append(c)
        rows["discordant"].append(d)
    return pa.table({k: pa.array(v, pa.int64()) for k, v in rows.items()})


def q_resharded_bm25_topk(sf_dir: str, new_buckets: int = 7) -> pa.Table:
    """BM25 top-10 served from an ELASTICALLY RESHARDED index layout
    (pipelines.update.reshard_index): the final segments rewritten
    under a different key-hash bucket count — rows move wholesale, one
    byte-level shuffle, no re-encode/re-score. The driver hash-checks
    this against the plain bm25 oracle, so the reshard operation itself
    is proven serving-invisible (plan equivalence, like the codec and
    cache entries)."""
    from candidategeneration_ray.pipelines.update import reshard_index
    from candidategeneration_ray.state.queryengine import QueryEngine

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    new_dir = reshard_index(built["final_dir"], new_buckets)
    cfg = EngineConfig(emit_pairs=False, num_buckets=new_buckets)
    eng = QueryEngine(new_dir, built["stats"], cfg)
    return ranked_table((qid, eng.topk(text, k=10))
                        for qid, text in DOC_QUERIES)


def q_query_difficulty(sf_dir: str, k: int = 10) -> pa.Table:
    """Query-performance prediction (QPP) features per fixed query —
    the search-ops diagnostic that decides routing/rewriting BEFORE
    results ship. Pre-retrieval predictors from the dictionary
    (n_terms, min/max df, quantized max IDF, scope = docs matching any
    term) and post-retrieval integer sufficient statistics of the
    exact top-k score distribution (n, sum, sum-of-squares — NQC's
    variance is a float finalizer). IDF quantizes trunc(ln·1e7) like
    every score, so the whole feature table hash-verifies.

    Cost: dictionary lookups + the already-cached exact ranking; scope
    is one posting-length sum per term — query-bound, never
    corpus-bound."""
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.state.queryengine import IndexReader, QueryEngine

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    eng = QueryEngine(built["final_dir"], built["stats"])
    stats = built["stats"]
    n_docs = float(stats["n_docs"])
    rows = {c: [] for c in ("query_id", "n_terms", "min_df", "max_df",
                            "max_idf_q", "scope", "topk_n", "score_sum",
                            "score_ss")}
    for qid, text in DOC_QUERIES:
        tids = reader.query_term_ids(text)
        if not tids:
            continue
        dfs = np.array([int(stats["df_by_id"][t]) for t in tids], np.int64)
        idf_q = np.trunc(np.log((n_docs - dfs + 0.5) / (dfs + 0.5))
                         * 1e7).astype(np.int64)
        # scope: |union of posting docs| — exact, decoded per term
        docs = [reader.get(int(t))[0] for t in tids
                if reader.get(int(t)) is not None]
        scope = int(np.unique(np.concatenate(docs)).size) if docs else 0
        res = eng.topk(text, k=k)
        sc = np.array([s for s, _ in res], np.int64)
        rows["query_id"].append(qid)
        rows["n_terms"].append(len(tids))
        rows["min_df"].append(int(dfs.min()))
        rows["max_df"].append(int(dfs.max()))
        rows["max_idf_q"].append(int(idf_q.max()))
        rows["scope"].append(scope)
        rows["topk_n"].append(sc.size)
        rows["score_sum"].append(int(sc.sum()))
        rows["score_ss"].append(int((sc * sc).sum()))
    return pa.table({c: pa.array(v, pa.int64()) for c, v in rows.items()})


JUDGMENT_SYSTEMS = ("bm25", "sdm", "passage", "lmd")


def q_judgment_pool(sf_dir: str, depth: int = 10) -> pa.Table:
    """TREC-style judgment pooling: the union of the top-`depth` docs
    from FOUR verified ranking systems (BM25, sequential dependence,
    MaxP passage, LM Dirichlet) per query, with the count of systems
    that retrieved each doc — the doc set a human-annotation budget
    would be spent on, and a cross-system agreement signal (docs found
    by one system only are where the models disagree). The oracle
    composes all four ranking oracles verbatim, so the POOLING of four
    pipelines is itself hash-checked."""
    from candidategeneration_ray.pipelines.positional import (
        q_lmdirichlet_topk, q_sdm_topk)

    systems = {
        "bm25": q_bm25_topk(sf_dir),
        "sdm": q_sdm_topk(sf_dir),
        "passage": q_passage_bm25_topk(sf_dir),
        "lmd": q_lmdirichlet_topk(sf_dir),
    }
    pool: dict[tuple[int, int], int] = {}
    for name in JUDGMENT_SYSTEMS:
        t = systems[name]
        qid = t.column("query_id").to_numpy().astype(np.int64)
        rank = t.column("rank").to_numpy().astype(np.int64)
        doc = t.column("doc_id").to_numpy().astype(np.int64)
        keep = rank <= depth
        for q, d in zip(qid[keep], doc[keep]):
            pool[(int(q), int(d))] = pool.get((int(q), int(d)), 0) + 1
    keys = sorted(pool)
    return pa.table({
        "query_id": pa.array([q for q, _ in keys], pa.int64()),
        "doc_id": pa.array([d for _, d in keys], pa.int64()),
        "n_systems": pa.array([pool[k] for k in keys], pa.int64()),
    })


def q_index_integrity(sf_dir: str) -> pa.Table:
    """Distributed index-integrity audit — the reference's sortedness
    scans (ExternalSort.testMassiveBinaryMerge :294-339, WWWMain.finda
    :277-305) promoted to a first-class operator: every persisted list
    row is decoded and checked (docs strictly ascending, decoded count
    == n, score bytes aligned, block_max exactly the max score of its
    block, block_last the block's final doc, block count == ceil(n /
    block_size)). Returns ONE row (n_keys, n_postings, n_violations);
    the oracle re-derives the first two from the kept CTE and expects
    ZERO violations — so the structural invariants of the on-disk
    format are value-checked by the driver every round.

    Shape: a pure map over segment rows emitting one partial per
    batch, one tiny aggregate. Audit cost = one decode pass over index
    bytes, embarrassingly parallel."""
    from ray.data.aggregate import Sum

    from candidategeneration_ray.functions.codecs import decode_docs

    cfg = EngineConfig(emit_pairs=False)
    built = build_documents_index(sf_dir, cfg)
    bs = cfg.block_size

    def _audit(batch: pa.Table) -> pa.Table:
        keys = batch.num_rows
        postings = 0
        bad = 0
        for r in range(batch.num_rows):
            n = int(batch.column("n")[r].as_py())
            postings += n
            docs = decode_docs(batch.column("docs")[r].as_py(), n, cfg.codec)
            scores = np.frombuffer(batch.column("scores")[r].as_py(),
                                   dtype="<i4")
            bm = np.asarray(batch.column("block_max")[r].as_py(), np.int64)
            bl = np.asarray(batch.column("block_last")[r].as_py(), np.int64)
            nb = -(-n // bs)
            ok = (
                docs.size == n
                and scores.size == n
                and (np.diff(docs) > 0).all()
                and bm.size == nb and bl.size == nb
                and all(int(bm[i]) == int(scores[i * bs:(i + 1) * bs].max())
                        for i in range(nb))
                and all(int(bl[i]) == int(docs[min((i + 1) * bs, n) - 1])
                        for i in range(nb))
            )
            bad += 0 if ok else 1
        return pa.table({
            "n_keys": pa.array([keys], pa.int64()),
            "n_postings": pa.array([postings], pa.int64()),
            "n_violations": pa.array([bad], pa.int64()),
        })

    agg = (
        ray.data.read_parquet(built["final_dir"],
                              file_extensions=["parquet"])
        .map_batches(_audit, batch_format="pyarrow")
        .aggregate(Sum("n_keys", alias_name="k"),
                   Sum("n_postings", alias_name="p"),
                   Sum("n_violations", alias_name="v"))
    )
    return pa.table({
        "n_keys": pa.array([int(agg["k"])], pa.int64()),
        "n_postings": pa.array([int(agg["p"])], pa.int64()),
        "n_violations": pa.array([int(agg["v"])], pa.int64()),
    })


# --------------------------------------- threshold-algorithm rank fusion

TA_FLUENCY_W = 10      # fused = bm25_score + TA_FLUENCY_W * fluency_ppm


def q_ta_fused_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """Fagin's Threshold Algorithm (Fagin, Lotem & Naor PODS'01) fusing
    a QUERY attribute (exact BM25) with a STATIC document attribute
    (stopword-fluency ppm, the curriculum_order signal):
    fused = bm25 + TA_FLUENCY_W·fluency, top-10 per query. TA
    alternates sorted access on both attribute lists, fills the other
    attribute by random access, and STOPS when the k-th best fused
    strictly exceeds the threshold τ = cur_bm25 + W·cur_fluency — the
    early-termination rank-aggregation classic, and the hash match
    against the full-scan oracle proves the stopping rule exact
    (strict >, so doc-id ties at τ can never be cut off).

    Sorted access: the BM25 side enumerates the match set score-desc
    (match-set-bounded — docs outside score exactly 0, so after
    exhaustion the bound is 0; negative-idf docs stay IN the list and
    below the bound); the fluency side streams the corpus-wide sorted
    attribute list, which TA reads only a PREFIX of (pytest asserts
    the scan stops early). Random access: the doc-keyed attribute
    arrays (the in-memory stand-in for a point-read attribute index;
    rank_prior_scalable is the range-blocked form of the same
    lookup)."""
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.pipelines.extras import _textstats
    from candidategeneration_ray.state.queryengine import IndexReader

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])

    def _flu(batch: pa.Table) -> pa.Table:
        nw = batch.column("n_words").to_numpy().astype(np.int64)
        ns = batch.column("n_stop").to_numpy().astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "fluency_ppm": pa.array(
                (ns * 1_000_000) // np.maximum(nw, 1), pa.int64()),
        })

    stat_rows = (documents_ds(sf_dir)
                 .map_batches(_textstats, batch_format="pyarrow")
                 .map_batches(_flu, batch_format="pyarrow")
                 .take_all())
    s2_docs = np.array([r["doc_id"] for r in stat_rows], np.int64)
    s2_vals = np.array([r["fluency_ppm"] for r in stat_rows], np.int64)
    o = np.lexsort((s2_docs, -s2_vals))          # fluency desc, doc asc
    s2_docs, s2_vals = s2_docs[o], s2_vals[o]
    ra_order = np.argsort(s2_docs)               # random-access index
    ra_docs = s2_docs[ra_order]
    ra_vals = s2_vals[ra_order]
    w = np.int64(TA_FLUENCY_W)

    results = []
    total_sorted_accesses = 0
    per_query_accesses: list[tuple] = []
    for qid, text in DOC_QUERIES:
        terms = sorted(set(tokenize_text(text)))
        if not terms:
            continue
        tlists = []
        for t in terms:
            tid = reader.term_to_id.get(t)
            got = reader.get(int(tid)) if tid is not None else None
            if got is not None:
                tlists.append((got[0], got[1]))
        # BM25 match set, score-desc (match-set-bounded, not corpus)
        if tlists:
            alldocs = np.unique(np.concatenate([d for d, _ in tlists]))
            bscore = np.zeros(alldocs.size, np.int64)
            for d, s in tlists:
                pos = np.searchsorted(alldocs, d)
                bscore[pos] += s.astype(np.int64)
            o1 = np.lexsort((alldocs, -bscore))
            s1_docs, s1_vals = alldocs[o1], bscore[o1]
        else:
            s1_docs = np.empty(0, np.int64)
            s1_vals = np.empty(0, np.int64)

        def bm25_of(d: int) -> int:
            if s1_docs.size == 0:
                return 0
            i = np.searchsorted(alldocs, d)
            if i < alldocs.size and alldocs[i] == d:
                return int(bscore[i])
            return 0

        import heapq

        seen: dict[int, int] = {}
        topk_heap: list[int] = []
        new_fused: list[int] = []
        p1 = p2 = 0
        cur1 = int(s1_vals[0]) if s1_vals.size else 0
        cur2 = int(s2_vals[0]) if s2_vals.size else 0
        while True:
            if p1 < s1_docs.size:
                d = int(s1_docs[p1])
                cur1 = int(s1_vals[p1])
                p1 += 1
                if d not in seen:
                    j = np.searchsorted(ra_docs, d)
                    seen[d] = int(s1_vals[p1 - 1]) + int(w * ra_vals[j])
                    new_fused.append(seen[d])
            if p2 < s2_docs.size:
                d = int(s2_docs[p2])
                cur2 = int(s2_vals[p2])
                p2 += 1
                if d not in seen:
                    seen[d] = bm25_of(d) + int(w) * cur2
                    new_fused.append(seen[d])
            # s1 bound for an UNSEEN doc: an unenumerated matcher is
            # <= cur1, and every non-matcher scores exactly 0 — so
            # max(cur1, 0) while the match list is live, 0 after it
            # exhausts (negative-idf matchers stay under both bounds)
            bound1 = max(cur1, 0) if p1 < s1_docs.size else 0
            tau = bound1 + int(w) * cur2
            # k-th best via a size-k min-heap — O(log k) per access
            # instead of re-sorting `seen` (flat-attribute queries
            # grow seen to the corpus)
            while len(topk_heap) < k and new_fused:
                heapq.heappush(topk_heap, new_fused.pop())
            while new_fused:
                f = new_fused.pop()
                if f > topk_heap[0]:
                    heapq.heapreplace(topk_heap, f)
            if len(topk_heap) >= k and topk_heap[0] > tau:
                break
            if p1 >= s1_docs.size and p2 >= s2_docs.size:
                break
        total_sorted_accesses += p1 + p2
        per_query_accesses.append((qid, p1, int(s1_docs.size),
                                   p2, int(s2_docs.size)))
        top = sorted(seen.items(), key=lambda t: (-t[1], t[0]))[:k]
        results.append((qid, [(f, d) for d, f in top]))
    out = ranked_table(results, score="fused")
    # expose the instrumentation for the early-termination pytest
    q_ta_fused_topk.last_sorted_accesses = total_sorted_accesses  # type: ignore[attr-defined]
    q_ta_fused_topk.last_corpus_size = int(s2_docs.size)  # type: ignore[attr-defined]
    q_ta_fused_topk.last_per_query = per_query_accesses  # type: ignore[attr-defined]
    return out
