"""Dictionary-serving search features: prefix scan, fuzzy (edit-
distance <= 1) term lookup, m-of-k disjunctive retrieval, and faceted
result counts.

These are the query-side lexicon operators a full-text engine layers
over the inverted index (the reference's dictionary is the HashMap in
InvertedIndex.java; its lookups are exact-match only — prefix / fuzzy /
facets are the standard extensions a search frontend needs).

Scale notes (100 TB): the dictionary is DICTIONARY-scale, not
corpus-scale — it fits the same budget as the stats broadcast
(stages/stats.py). All four operators below keep that separation:
prefix/fuzzy scan the dictionary as a Dataset, disjunctive retrieval reads
only the queried terms' posting lists from the persisted index, and
facet counting is ONE streaming corpus scan emitting O(terms x facets)
partial rows per batch.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from candidategeneration_ray.functions.groups import run_starts
from candidategeneration_ray.functions.tableutil import ranked_table, sized_read
from candidategeneration_ray.functions.tokenize import tokenize_text
from candidategeneration_ray.pipelines.docquery import (
    DOC_QUERIES,
    build_documents_index,
    corpus_stats,
)

# Fixed inputs shared with the SQL oracles (sql_oracles.lexicon_oracles)
PREFIXES: list[str] = ["s", "co", "qu", "gr", "ba"]
FUZZY_QUERIES: list[str] = [
    "vectr", "scann", "hush", "qery", "tible", "spork", "merg",
    "data", "kay", "zzzz",
]
FACET_TERMS: list[str] = ["query", "vector", "batch", "customer"]
OR_MIN_MATCH = 2


def _dictionary_ds(sf_dir: str, n_blocks: int = 4) -> ray.data.Dataset:
    """The (term, df) dictionary as a Dataset.

    The rows come from the broadcast stats (one process holds the
    whole dictionary, as in the reference); the scan below is a
    per-block map, never a driver loop.
    """
    stats = corpus_stats(sf_dir)
    terms = np.asarray(stats["terms"], dtype=object)
    df = np.asarray(stats["df_by_id"][1:], dtype=np.int64)
    tbl = pa.table({
        "term": pa.array(terms.tolist(), pa.string()),
        "df": pa.array(df, pa.int64()),
    })
    return ray.data.from_arrow(tbl).repartition(n_blocks)


# ------------------------------------------------------------- prefix scan

def q_prefix_terms(sf_dir: str) -> ray.data.Dataset:
    """Prefix dictionary scan: for each fixed prefix, every dictionary
    term starting with it plus its document frequency — the lookup
    behind query autocompletion / wildcard expansion (term*).

    Shape: vectorized `starts_with` per dictionary block; output is
    O(matching terms). With a SORTED blocked dictionary the scan
    prunes to the blocks whose [first, last] term range overlaps the
    prefix interval — same range pruning the segment reader uses.
    Returns (prefix, term, df)."""
    import pyarrow.compute as pc

    def _scan(batch: pa.Table) -> pa.Table:
        outs = []
        for p in PREFIXES:
            hit = batch.filter(pc.starts_with(batch.column("term"), p))
            if hit.num_rows:
                outs.append(pa.table({
                    "prefix": pa.array([p] * hit.num_rows, pa.string()),
                    "term": hit.column("term"),
                    "df": hit.column("df"),
                }))
        if not outs:
            return pa.table({
                "prefix": pa.array([], pa.string()),
                "term": pa.array([], pa.string()),
                "df": pa.array([], pa.int64()),
            })
        return pa.concat_tables(outs)

    return _dictionary_ds(sf_dir).map_batches(_scan, batch_format="pyarrow")


# ------------------------------------------------- fuzzy (ed<=1) term match

def _edit_distance_le1(a: str, b: str) -> int | None:
    """Exact Levenshtein distance if <= 1, else None. O(len) via the
    common-prefix/suffix rule (no DP needed for distance 1)."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return None
    p = 0
    while p < la and p < lb and a[p] == b[p]:
        p += 1
    s = 0
    while s < la - p and s < lb - p and a[la - 1 - s] == b[lb - 1 - s]:
        s += 1
    if la == lb:
        return 1 if p + s >= la - 1 else None
    return 1 if p + s >= min(la, lb) else None


def _deletion_variants(words: pd.Series) -> pd.DataFrame:
    """All strings reachable by deleting <= 1 character, vectorized:
    one sliced-concat pass per character position (no per-row Python),
    so cost is O(max_len) column ops per block."""
    idx = np.arange(len(words))
    frames = [pd.DataFrame({"variant": words.to_numpy(), "row": idx})]
    max_len = int(words.str.len().max() or 0)
    for i in range(max_len):
        mask = (words.str.len() > i).to_numpy()
        if not mask.any():
            break
        sub = words[mask]
        frames.append(pd.DataFrame({
            "variant": (sub.str[:i] + sub.str[i + 1:]).to_numpy(),
            "row": idx[mask],
        }))
    return pd.concat(frames, ignore_index=True)


def q_fuzzy_terms(sf_dir: str) -> ray.data.Dataset:
    """Fuzzy dictionary lookup: for each fixed (possibly misspelled)
    query word, every dictionary term within Levenshtein distance 1,
    with its df — the "did you mean" candidate generator.

    Shape: SymSpell-style deletion neighborhoods. The query words'
    variants are tiny and BROADCAST (closure capture; `ray.put` at
    fleet scale); each dictionary block generates its own variants
    with vectorized slice-concats and hash-joins against the query
    variants. A deletion-variant collision bounds true distance by 2,
    so survivors get the exact prefix/suffix distance-1 check — the
    candidate set per block is tiny by construction (only near-misses
    collide). Returns (qword, term, df, dist)."""
    qs = pd.Series(FUZZY_QUERIES, dtype=object)
    qvar = _deletion_variants(qs).rename(columns={"row": "qrow"})
    qwords = qs.to_numpy()

    def _match(batch: pa.Table) -> pa.Table:
        terms = pd.Series(batch.column("term").to_pylist(), dtype=object)
        df = batch.column("df").to_numpy()
        tvar = _deletion_variants(terms)
        cand = tvar.merge(qvar, on="variant")[["row", "qrow"]].drop_duplicates()
        out_q, out_t, out_df, out_d = [], [], [], []
        for trow, qrow in cand.itertuples(index=False):
            d = _edit_distance_le1(str(qwords[qrow]), str(terms.iat[trow]))
            if d is not None:
                out_q.append(str(qwords[qrow]))
                out_t.append(str(terms.iat[trow]))
                out_df.append(int(df[trow]))
                out_d.append(d)
        return pa.table({
            "qword": pa.array(out_q, pa.string()),
            "term": pa.array(out_t, pa.string()),
            "df": pa.array(out_df, pa.int64()),
            "dist": pa.array(out_d, pa.int64()),
        })

    return _dictionary_ds(sf_dir).map_batches(_match, batch_format="pyarrow")


# ------------------------------------------- m-of-k disjunctive retrieval

def q_bool_or_docs(sf_dir: str, min_match: int = OR_MIN_MATCH) -> pa.Table:
    """Disjunctive (OR) retrieval with a minimum-should-match rule:
    for each fixed query, the docs containing at least `min_match`
    DISTINCT kept query terms, with the match count — the boolean
    recall set a ranker like WAND prunes (bm25_topk is the scored
    twin; this is the unscored m-of-k membership).

    Shape: serving-side — reads ONLY the queried terms' posting lists
    from the persisted compressed index (lists are doc-ordered, so the
    union-with-counts is one concat + unique per query). Unindexed
    terms contribute nothing (OR semantics). Returns
    (query_id, doc_id, n_matched)."""
    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.state.queryengine import IndexReader

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    qids, docs, nm = [], [], []
    for qid, text in DOC_QUERIES:
        terms = sorted(set(tokenize_text(text)))
        tids = [reader.term_to_id[t] for t in terms if t in reader.term_to_id]
        lists = []
        for tid in tids:
            got = reader.get(int(tid))
            if got is not None:
                lists.append(got[0])
        if len(lists) < min_match:
            continue
        alldocs = np.concatenate(lists)
        u, cnt = np.unique(alldocs, return_counts=True)
        keep = cnt >= min_match
        for d, c in zip(u[keep].tolist(), cnt[keep].tolist()):
            qids.append(qid)
            docs.append(int(d))
            nm.append(int(c))
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "doc_id": pa.array(docs, pa.int64()),
        "n_matched": pa.array(nm, pa.int64()),
    })


# -------------------------------------------------------- faceted counts

def q_facet_counts(sf_dir: str) -> ray.data.Dataset:
    """Faceted search counts: for each fixed query term, how many
    matching documents fall in each (source, lang) facet bucket — the
    sidebar counts a search UI renders next to results.

    Shape: ONE streaming corpus scan; each batch emits at most
    O(|terms| x |facet combos|) partial rows (term membership via one
    np.unique over the batch's token stream — no per-row set probes),
    then a tiny groupby sum. No posting lists and no corpus-scale
    shuffle. Returns (term, source, lang, n_docs)."""
    from ray.data.aggregate import Sum

    from candidategeneration_ray.functions.tokenize import tokenize_many

    facet_terms = np.asarray(FACET_TERMS, dtype=object)

    def _partial(batch: pa.Table) -> pa.Table:
        token_lists = tokenize_many(batch.column("text").to_pylist())
        src = batch.column("source").to_numpy(zero_copy_only=False)
        lang = batch.column("lang").to_numpy(zero_copy_only=False)
        n = len(token_lists)
        lens = np.fromiter((len(t) for t in token_lists), np.int64, n)
        flat = np.asarray(
            [t for toks in token_lists for t in toks], dtype=object)
        doc_of = np.repeat(np.arange(n), lens)
        # facet key codes once per batch
        key = np.char.add(np.char.add(src.astype(str), "\x1f"),
                          lang.astype(str))
        fcodes, finv = np.unique(key, return_inverse=True)
        out_t, out_s, out_l, out_n = [], [], [], []
        for term in facet_terms:
            hit_docs = np.unique(doc_of[flat == term])
            if hit_docs.size == 0:
                continue
            cnt = np.bincount(finv[hit_docs], minlength=len(fcodes))
            nz = np.nonzero(cnt)[0]
            for j in nz:
                s, l = fcodes[j].split("\x1f", 1)
                out_t.append(str(term))
                out_s.append(s)
                out_l.append(l)
                out_n.append(int(cnt[j]))
        return pa.table({
            "term": pa.array(out_t, pa.string()),
            "source": pa.array(out_s, pa.string()),
            "lang": pa.array(out_l, pa.string()),
            "n_docs": pa.array(out_n, pa.int64()),
        })

    return (
        sized_read(sf_dir, "documents", ["doc_id", "text", "source", "lang"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["term", "source", "lang"])
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


# fixed substring patterns (>= 3 bytes each so the trigram filter
# applies); varied selectivity incl. a cross-word-boundary pattern
SUBSTR_PATTERNS = ("spark", "batch batch", "dow fil")


def q_substring_docs(sf_dir: str) -> ray.data.Dataset:
    """Substring search via a byte-trigram filter — the grep-index /
    code-search shape (Cox's trigram index behind Google Code Search,
    public design): a document can contain pattern p only if it
    contains EVERY byte trigram of p, so the scan builds each batch's
    trigram codes ONCE (one vectorized sliding window over the
    separator-joined text block), intersects against each pattern's
    tiny trigram set, and runs the exact substring verify only on the
    surviving candidates. Works for any byte pattern incl. across
    token boundaries — the positional/phrase family can't see inside
    or across tokens.

    Scale note: here the trigram filter is computed in-scan (the scan
    is one streaming map_batches, no shuffle at all); the persisted
    variant — (trigram, doc) posting lists, the same family pattern as
    pipelines/positional.py — turns repeated queries into
    posting-list intersections instead of re-scans. Output:
    (pattern, doc_id) for every document containing the pattern."""
    pats = [p.encode() for p in SUBSTR_PATTERNS]
    pat_tris = []
    for p in pats:
        assert len(p) >= 3, "trigram filter needs patterns >= 3 bytes"
        pat_tris.append(np.unique(np.frombuffer(p, np.uint8)[:-2]
                                  .astype(np.int64) * 65536
                                  + np.frombuffer(p, np.uint8)[1:-1]
                                  .astype(np.int64) * 256
                                  + np.frombuffer(p, np.uint8)[2:]
                                  .astype(np.int64)))

    def _scan(batch: pa.Table) -> pa.Table:
        docs = batch.column("doc_id").to_numpy().astype(np.int64)
        texts = batch.column("text").to_pylist()
        joined = b"\x01" + "\x01".join(texts).encode() + b"\x01"
        b = np.frombuffer(joined, np.uint8).astype(np.int64)
        code = b[:-2] * 65536 + b[1:-1] * 256 + b[2:]
        # doc index of each window start (separator windows match no
        # pattern trigram: \x01 never occurs in a pattern)
        lens = np.fromiter((len(t.encode()) for t in texts), np.int64,
                           len(texts))
        starts = np.concatenate(([1], 1 + np.cumsum(lens + 1)))[:-1]
        doc_of = np.searchsorted(starts, np.arange(code.size),
                                 side="right") - 1
        out_pat, out_doc = [], []
        for pi, (praw, tris) in enumerate(zip(pats, pat_tris)):
            hitw = np.isin(code, tris)
            d = doc_of[hitw]
            t = np.searchsorted(tris, code[hitw])
            # candidate docs contain ALL of the pattern's trigrams
            u = np.unique(d * np.int64(len(tris) + 1) + t)
            cd, cnt = np.unique(u // np.int64(len(tris) + 1),
                                return_counts=True)
            cand = cd[cnt == len(tris)]
            for ci in cand:
                if praw in texts[int(ci)].encode():
                    out_pat.append(SUBSTR_PATTERNS[pi])
                    out_doc.append(int(docs[int(ci)]))
        return pa.table({
            "pattern": pa.array(out_pat, pa.string()),
            "doc_id": pa.array(out_doc, pa.int64()),
        })

    return sized_read(sf_dir, "documents", ["doc_id", "text"]).map_batches(_scan, batch_format="pyarrow")


def q_bool_diff_docs(sf_dir: str) -> pa.Table:
    """AND-NOT boolean retrieval — the negation polarity the boolean
    surface lacked (AND: bool_and_docs; OR: bool_or_docs): for each
    fixed query, docs containing its lexicographically FIRST kept term
    (the anchor) but NONE of its other kept terms. This is the
    "A minus B" set difference search engines expose as `foo -bar`.

    Shape: serving-side — reads only the queried terms' doc-ordered
    posting lists from the persisted compressed index; the difference
    is one sorted-membership mask per excluded list (no corpus scan,
    no shuffle). Unindexed anchors yield nothing; unindexed excluded
    terms exclude nothing (matching the relational NOT EXISTS).
    Returns (query_id, doc_id)."""
    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.state.queryengine import IndexReader

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    qids, docs = [], []
    for qid, text in DOC_QUERIES:
        terms = sorted(set(tokenize_text(text)))
        if not terms:
            continue
        anchor, rest = terms[0], terms[1:]
        tid = reader.term_to_id.get(anchor)
        got = reader.get(int(tid)) if tid is not None else None
        if got is None:
            continue
        cur = got[0]
        for t in rest:
            rid = reader.term_to_id.get(t)
            if rid is None:
                continue
            rgot = reader.get(int(rid))
            if rgot is None:
                continue
            cur = cur[~np.isin(cur, rgot[0], assume_unique=True)]
            if cur.size == 0:
                break
        qids.append(np.full(cur.size, qid, np.int64))
        docs.append(cur.astype(np.int64))
    if not qids:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64())})
    return pa.table({
        "query_id": pa.array(np.concatenate(qids), pa.int64()),
        "doc_id": pa.array(np.concatenate(docs), pa.int64()),
    })


# ---------------------------------------------------------------- bitmap index
# Word-aligned bitset index per categorical value — the classic
# secondary-index structure for low-cardinality columns (Chan &
# Ioannidis SIGMOD'98 bitmap designs; this is the uncompressed
# word-aligned base layout that WAH/Roaring compress). Boolean
# predicates become bitwise kernels over 32-bit words instead of row
# scans: AND/OR/ANDNOT per word, popcount for counts.
#
# Scale (100 TB): the index is O(n_values x n_docs/32) words, built
# with ONE compressed shuffle (per-batch OR partials -> groupby sum —
# doc ids are unique so disjoint-bit sum == OR) and persisted as
# parquet keyed by (col, value, word_idx). Serving shuffles only the
# involved values' word rows, bucketed by word range, so each task
# does one vectorized bitwise pass over ~words/buckets aligned words;
# counts come back as O(queries) partials. Nothing touches the driver
# but the final per-query sums.

BITMAP_WORD_BITS = 32
BITMAP_COLS = ("lang", "source")
BITMAP_WBUCKETS = 64
# fixed query set shared with the oracle: (name, kind, lhs, rhs) where
# lhs/rhs are (col, value) pairs and kind in {and, or, andnot}
BITMAP_QUERIES: list[tuple[str, str, tuple[str, str], tuple[str, str]]] = [
    ("en_and_src1", "and", ("lang", "en"), ("source", "src1")),
    ("en_or_de", "or", ("lang", "en"), ("lang", "de")),
    ("src2_not_en", "andnot", ("source", "src2"), ("lang", "en")),
]


def _popcount_words(a: np.ndarray) -> int:
    """Total set bits over an int64 array of 32-bit word values."""
    return int(np.unpackbits(a.astype(np.uint32).view(np.uint8)).sum())


def _bitmap_partials(batch: pa.Table) -> pa.Table:
    """Per-batch OR-combined (col, value, word_idx, word_bits) rows."""
    doc = batch.column("doc_id").to_numpy().astype(np.int64)
    if doc.size == 0:
        return pa.table({"col": pa.array([], pa.string()),
                         "value": pa.array([], pa.string()),
                         "word_idx": pa.array([], pa.int64()),
                         "word_bits": pa.array([], pa.int64())})
    word = doc // BITMAP_WORD_BITS
    bit = np.int64(1) << (doc % BITMAP_WORD_BITS)
    cols, vals, widx, bits = [], [], [], []
    for col in BITMAP_COLS:
        v = batch.column(col).to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(v)
        key = codes.astype(np.int64) * (word.max() + 1) + word
        order = np.argsort(key, kind="stable")
        sk = key[order]
        starts = run_starts(sk)
        ored = np.bitwise_or.reduceat(bit[order], starts)
        kcode = sk[starts] // (word.max() + 1)
        kword = sk[starts] % (word.max() + 1)
        cols.append(np.full(starts.size, col, object))
        vals.append(uniq.astype(object)[kcode])
        widx.append(kword)
        bits.append(ored)
    return pa.table({
        "col": pa.array(np.concatenate(cols), pa.string()),
        "value": pa.array(np.concatenate(vals), pa.string()),
        "word_idx": pa.array(np.concatenate(widx), pa.int64()),
        "word_bits": pa.array(np.concatenate(bits), pa.int64()),
    })


def _bitmap_rows(sf_dir: str) -> ray.data.Dataset:
    """The merged bitmap index as a Dataset: one row per
    (col, value, word_idx) with the OR of all member docs' bits.
    Unique doc ids mean each bit is set by exactly one batch partial,
    so the cross-batch OR reduces to Sum."""
    from ray.data.aggregate import Sum

    ds = sized_read(sf_dir, "documents", ["doc_id", *BITMAP_COLS])
    return (ds.map_batches(_bitmap_partials, batch_format="pyarrow")
            .groupby(["col", "value", "word_idx"])
            .aggregate(Sum("word_bits", alias_name="word_bits")))


def build_bitmap_index(sf_dir: str) -> str:
    """Persist the bitmap index once per corpus (parquet under the
    shared cache, keyed like the other index families)."""
    from candidategeneration_ray.pipelines.docquery import _cache_dir

    out = _cache_dir(sf_dir, "bitmap")
    done = os.path.join(out, "DONE")
    if os.path.exists(done):
        return out
    _bitmap_rows(sf_dir).write_parquet(out)
    with open(done, "w") as f:
        f.write("ok")
    return out


def q_bitmap_index(sf_dir: str) -> ray.data.Dataset:
    """The bitmap index state itself — SQL-verified word for word
    (32-bit words keep every shift in positive BIGINT range on both
    sides)."""
    import pyarrow.parquet  # noqa: F401  (parquet read below)

    out = build_bitmap_index(sf_dir)
    return ray.data.read_parquet(
        out, file_extensions=["parquet"]).select_columns(
        ["col", "value", "word_idx", "word_bits"])


def q_bitmap_query_counts(sf_dir: str) -> ray.data.Dataset:
    """Serve the fixed boolean predicate set from the PERSISTED bitmap
    index: per query, popcount of the combined word array. Each word
    bucket is one vectorized task (align by searchsorted over the
    bucket's word inventory, then AND/OR/ANDNOT + popcount); the
    oracle recounts the predicates straight off the documents table,
    so the hash compare proves the index + kernels reproduce row-scan
    semantics exactly."""
    from ray.data.aggregate import Sum

    pairs = sorted({p for _, _, lhs, rhs in BITMAP_QUERIES
                    for p in (lhs, rhs)})
    out = build_bitmap_index(sf_dir)
    rows = ray.data.read_parquet(out, file_extensions=["parquet"])

    def _keep(batch: pa.Table) -> pa.Table:
        col = batch.column("col").to_numpy(zero_copy_only=False)
        val = batch.column("value").to_numpy(zero_copy_only=False)
        mask = np.zeros(len(batch), bool)
        for c, v in pairs:
            mask |= (col == c) & (val == v)
        t = batch.filter(pa.array(mask))
        wb = t.column("word_idx").to_numpy().astype(np.int64)
        return t.append_column(
            "wbucket", pa.array(wb % BITMAP_WBUCKETS, pa.int64()))

    def _count(group: pa.Table) -> pa.Table:
        col = group.column("col").to_numpy(zero_copy_only=False)
        val = group.column("value").to_numpy(zero_copy_only=False)
        widx = group.column("word_idx").to_numpy().astype(np.int64)
        bits = group.column("word_bits").to_numpy().astype(np.int64)
        words = np.unique(widx)
        dense: dict[tuple[str, str], np.ndarray] = {}
        for c, v in pairs:
            arr = np.zeros(words.size, np.int64)
            m = (col == c) & (val == v)
            arr[np.searchsorted(words, widx[m])] = bits[m]
            dense[(c, v)] = arr
        names, counts = [], []
        for name, kind, lhs, rhs in BITMAP_QUERIES:
            a, b = dense[lhs], dense[rhs]
            if kind == "and":
                w = a & b
            elif kind == "or":
                w = a | b
            else:
                w = a & ~b
            names.append(name)
            counts.append(_popcount_words(w))
        return pa.table({
            "query": pa.array(names, pa.string()),
            "n_docs": pa.array(np.asarray(counts, np.int64), pa.int64()),
        })

    return (rows.map_batches(_keep, batch_format="pyarrow")
            .groupby("wbucket").map_groups(_count, batch_format="pyarrow")
            .groupby("query")
            .aggregate(Sum("n_docs", alias_name="n_docs")))


# ------------------------------------------- boolean query compiler

# Grammar:  expr := term | (expr) | expr AND expr | expr OR expr |
#                   expr AND NOT expr       (NOT only in AND context —
# a bare NOT would be a corpus-wide complement, the standard engine
# restriction). ONE parser builds the AST; TWO backends evaluate it:
# the engine lowers to sorted-doc-array set algebra over the persisted
# posting lists (AND = intersect1d, OR = union1d, AND NOT =
# setdiff1d), the oracle lowers the SAME AST to a SQL boolean over
# EXISTS subqueries — so the driver hash-checks the compiler, not just
# one evaluation.
BOOL_QUERIES: list[tuple[int, str]] = [
    (0, "query AND (engine OR index)"),
    (1, "(data OR stream) AND NOT filter"),
    (2, "table AND hash AND NOT (join OR merge)"),
    (3, "vector OR (kernel AND model)"),
    (4, "query AND zzzqqq"),          # unknown term → empty
    (5, "(scan OR zzzqqq) AND table"),
]


def parse_bool_query(text: str):
    """Recursive-descent parser → nested AST of
    ("term", t) / ("and", l, r) / ("or", l, r) / ("andnot", l, r)."""
    toks = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def eat(t=None):
        v = toks[pos[0]]
        if t is not None and v != t:
            raise ValueError(f"expected {t}, got {v!r}")
        pos[0] += 1
        return v

    def atom():
        if peek() == "(":
            eat("(")
            e = expr()
            eat(")")
            return e
        w = eat()
        if w in ("AND", "OR", "NOT", ")"):
            raise ValueError(f"unexpected {w!r}")
        return ("term", w.lower())

    def expr():
        left = atom()
        while peek() in ("AND", "OR"):
            op = eat()
            if op == "AND" and peek() == "NOT":
                eat("NOT")
                left = ("andnot", left, atom())
            elif op == "AND":
                left = ("and", left, atom())
            else:
                left = ("or", left, atom())
        return left

    e = expr()
    if pos[0] != len(toks):
        raise ValueError(f"trailing tokens: {toks[pos[0]:]}")
    return e


def bool_ast_to_sql(ast) -> str:
    """Lower the AST to a SQL boolean over EXISTS probes of `kept`
    (correlated on d.doc_id)."""
    kind = ast[0]
    if kind == "term":
        return ("EXISTS (SELECT 1 FROM kept k WHERE k.doc_id = d.doc_id "
                f"AND k.tok = '{ast[1]}')")
    l, r = bool_ast_to_sql(ast[1]), bool_ast_to_sql(ast[2])
    if kind == "and":
        return f"({l} AND {r})"
    if kind == "or":
        return f"({l} OR {r})"
    return f"({l} AND NOT {r})"


def q_boolean_query_docs(sf_dir: str,
                         queries: list[tuple[int, str]] | None = None
                         ) -> pa.Table:
    """Boolean retrieval for the fixed BOOL_QUERIES set from the
    persisted index: (query_id, doc_id) for every matching doc.
    Set algebra over decoded doc arrays is list-bound per query;
    AND NOT never complements the corpus (grammar-enforced)."""
    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.state.queryengine import IndexReader

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    t2i = {t: i + 1 for i, t in enumerate(built["stats"]["terms"])}
    empty = np.empty(0, np.int64)

    def docs_of(ast) -> np.ndarray:
        kind = ast[0]
        if kind == "term":
            tid = t2i.get(ast[1])
            got = reader.get(tid) if tid else None
            return got[0].astype(np.int64) if got is not None else empty
        l, r = docs_of(ast[1]), docs_of(ast[2])
        if kind == "and":
            return np.intersect1d(l, r, assume_unique=True)
        if kind == "or":
            return np.union1d(l, r)
        return np.setdiff1d(l, r, assume_unique=True)

    qids, docs_out = [], []
    for qid, text in (queries or BOOL_QUERIES):
        d = docs_of(parse_bool_query(text))
        qids.extend([qid] * d.size)
        docs_out.extend(d.tolist())
    return pa.table({
        "query_id": pa.array(qids, pa.int64()),
        "doc_id": pa.array(docs_out, pa.int64()),
    })


# --------------------------------------------------- wildcard queries

# Fixed wildcard patterns ('*' = any run, the Lucene WildcardQuery
# shape): leading, trailing, middle and double wildcards, plus a
# no-match pattern. Resolution is the standard two-step: scan the
# DICTIONARY for matching terms (dictionary-scale, one vectorized
# regex pass; the blocked-stats path is the >memory variant), then
# union the matched terms' posting lists from the persisted index.
WILDCARD_QUERIES: list[tuple[int, str]] = [
    (0, "qu*"),
    (1, "*er"),
    (2, "s*n"),
    (3, "*ta*"),
    (4, "zz*qq"),     # no dictionary match → no rows
]


def q_wildcard_docs(sf_dir: str,
                    patterns: list[tuple[int, str]] | None = None
                    ) -> pa.Table:
    """(pattern_id, doc_id) for docs containing ANY term matching each
    wildcard pattern. Work = dictionary regex scan + matched lists'
    bytes; doc sets union via np (lists are sorted)."""
    import re

    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.state.queryengine import IndexReader

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    terms = np.asarray(built["stats"]["terms"], dtype=object)
    qids, docs_out = [], []
    for qid, pat in (patterns or WILDCARD_QUERIES):
        rx = re.compile("^" + ".*".join(re.escape(p)
                                        for p in pat.split("*")) + "$")
        hit_ids = [i + 1 for i, t in enumerate(terms) if rx.match(t)]
        pools = []
        for tid in hit_ids:
            got = reader.get(int(tid))
            if got is not None:
                pools.append(got[0].astype(np.int64))
        if not pools:
            continue
        d = np.unique(np.concatenate(pools))
        qids.extend([qid] * d.size)
        docs_out.extend(d.tolist())
    return pa.table({
        "pattern_id": pa.array(qids, pa.int64()),
        "doc_id": pa.array(docs_out, pa.int64()),
    })


# ------------------------------------------ query correction + rescore

# "Did you mean" end-to-end: every query term corrects to the
# (edit-distance asc, df desc, term asc)-best dictionary term within
# Levenshtein distance 1 (an in-dictionary term corrects to itself at
# ed 0; an uncorrectable term drops), then the CORRECTED query serves
# exact BM25 top-10. The oracle replays the correction with DuckDB
# levenshtein() and the shared scores CTE, so the composition
# (correct → retrieve → rank) hash-verifies end-to-end.
CORR_QUERIES: list[tuple[int, str]] = [
    (0, "qery engine latency"),
    (1, "dta index worke"),
    (2, "tible scann"),
    (3, "vectr kernel"),
    (4, "zzzzxq data"),      # uncorrectable first term drops
]


def q_corrected_bm25_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """(query_id, rank, doc_id, score) after per-term spelling
    correction. Correction here scans the broadcast dictionary per
    query word (dictionary-scale); the SymSpell deletion-neighborhood
    machinery above (q_fuzzy_terms) is the >memory / high-QPS path."""
    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.state.queryengine import IndexReader, taat_topk

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    stats = built["stats"]
    terms = np.asarray(stats["terms"], dtype=object)
    df = stats["df_by_id"]

    def correct(word: str) -> str | None:
        best = None  # (ed, -df, term)
        for i, t in enumerate(terms):
            d = _edit_distance_le1(word, str(t))
            if d is None:
                continue
            key = (d, -int(df[i + 1]), str(t))
            if best is None or key < best:
                best = key
        return best[2] if best else None

    results = []
    for qid, text in CORR_QUERIES:
        corrected = sorted({c for w in tokenize_text(text)
                            for c in [correct(w)] if c is not None})
        tids = [i + 1 for i, t in enumerate(terms) if str(t) in corrected]
        results.append((qid, taat_topk(reader, tids, k)))
    return ranked_table(results)


# ------------------------------------------------- synonym retrieval

# Query-time synonym expansion (the Lucene SynonymQuery shape): each
# query concept is a GROUP of interchangeable terms; a doc's score
# sums, over groups, the MAX per-term quantized BM25 score of the
# group's members present in the doc (max, not sum — synonyms must not
# double-count a concept). Groups broadcast; serving reads only the
# member terms' lists.
SYNONYM_QUERIES: list[tuple[int, list[list[str]]]] = [
    (0, [["query", "scan"], ["engine"]]),
    (1, [["data", "table"], ["index", "shard"]]),
    (2, [["merge", "join", "union"], ["hash"]]),
    (3, [["zzzq", "vector"]]),
]


def q_synonym_bm25_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """(query_id, rank, doc_id, score) with per-group max blending."""
    from candidategeneration_ray.config import EngineConfig
    from candidategeneration_ray.state.queryengine import IndexReader

    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    t2i = {t: i + 1 for i, t in enumerate(built["stats"]["terms"])}
    results = []
    for qid, groups in SYNONYM_QUERIES:
        per_doc: dict[int, int] = {}
        for group in groups:
            gdocs, gscores = [], []
            for term in group:
                got = reader.get(t2i[term]) if term in t2i else None
                if got is not None:
                    gdocs.append(got[0].astype(np.int64))
                    gscores.append(got[1].astype(np.int64))
            if not gdocs:
                continue
            d = np.concatenate(gdocs)
            s = np.concatenate(gscores)
            order = np.lexsort((-s, d))
            d, s = d[order], s[order]
            first = np.concatenate(([True], d[1:] != d[:-1]))
            for doc, sc in zip(d[first].tolist(), s[first].tolist()):
                per_doc[doc] = per_doc.get(doc, 0) + sc
        results.append((qid, sorted(((s, d) for d, s in per_doc.items()),
                                    key=lambda p: (-p[0], p[1]))[:k]))
    return ranked_table(results)


# --------------------------------------------- dictionary front coding

FRONT_BLOCK = 16


def q_dictionary_bytes(sf_dir: str,
                       block: int = FRONT_BLOCK) -> pa.Table:
    """Term-dictionary compression accounting — front coding (the
    classic sorted-dictionary layout: every BLOCKth term stored whole,
    the rest as (lcp, suffix) against their predecessor). One row of
    exact byte totals:

        n_terms, raw_bytes (2-byte length + chars each),
        front_bytes (block heads whole; others 2 control bytes +
        the non-shared suffix), saved_ppm

    The analog of postings_bytes for the DICTIONARY side of the index;
    the oracle re-derives the same totals with a lag-window LCP in
    SQL, so the layout arithmetic is value-verified before anyone
    writes the format. Vocabulary-scale work: one pass over sorted
    terms per dictionary block (the blocked dictionary at 100 TB
    feeds the same kernel per range block; per-block front coding is
    exactly why the whole dictionary never needs one task)."""
    stats = corpus_stats(sf_dir)
    terms = sorted(stats["terms"])
    n = len(terms)
    raw = sum(2 + len(t) for t in terms)
    front = 0
    prev = ""
    for i, t in enumerate(terms):
        if i % block == 0:
            front += 2 + len(t)
        else:
            lcp = 0
            m = min(len(prev), len(t), 255)
            while lcp < m and prev[lcp] == t[lcp]:
                lcp += 1
            front += 2 + (len(t) - lcp)
        prev = t
    saved_ppm = ((raw - front) * 1_000_000) // max(raw, 1)
    return pa.table({
        "n_terms": pa.array([n], pa.int64()),
        "raw_bytes": pa.array([raw], pa.int64()),
        "front_bytes": pa.array([front], pa.int64()),
        "saved_ppm": pa.array([saved_ppm], pa.int64()),
    })


# -------------------------------------------------- phonetic (Soundex)

# letter -> Soundex digit (a..z); vowels plus h/w/y map to 0
_SOUNDEX_DIGITS = "01230120022455012623010202"
_SOUNDEX_MAP = str.maketrans("abcdefghijklmnopqrstuvwxyz",
                             _SOUNDEX_DIGITS)


def soundex_code(tok: str) -> str:
    """American Soundex, simplified variant WITHOUT the h/w-separator
    exception (adjacent equal codes separated by h or w stay separate
    runs — h/w act as run breakers exactly like vowels). Rules, applied
    to a lowercase [a-z]+ token: map letters to digits, collapse
    adjacent equal-digit runs, drop the leading run (it belongs to the
    kept first letter), strip zeros, keep 3 digits zero-padded behind
    the uppercased first letter. Deterministic string arithmetic on
    both sides — the SQL oracle applies the identical rule chain with
    translate + per-digit run collapses."""
    d = tok.translate(_SOUNDEX_MAP)
    out = []
    prev = None
    for ch in d:
        if ch != prev:
            out.append(ch)
        prev = ch
    rest = "".join(out[1:]).replace("0", "")
    return (tok[0].upper() + rest + "000")[:4]


def q_soundex_terms(sf_dir: str) -> ray.data.Dataset:
    """Phonetic dictionary: every alphabetic dictionary term with its
    Soundex code (see soundex_code for the documented variant) and df
    — the encoding half of phonetic entity blocking ("smith" and
    "smyth" share S530). Shape: a per-block map over the blocked
    dictionary; the per-term Python loop runs over the VOCABULARY
    (bounded), never over the corpus. Returns (term, df, code)."""
    def _code(batch: pa.Table) -> pa.Table:
        terms = batch.column("term").to_pylist()
        df = batch.column("df").to_numpy().astype(np.int64)
        keep = [i for i, t in enumerate(terms) if t.isalpha()]
        return pa.table({
            "term": pa.array([terms[i] for i in keep], pa.string()),
            "df": pa.array(df[keep], pa.int64()),
            "code": pa.array([soundex_code(terms[i]) for i in keep],
                             pa.string()),
        })

    return _dictionary_ds(sf_dir).map_batches(_code,
                                              batch_format="pyarrow")


# misspelled probes whose Soundex codes collide with dictionary terms
# (badge/batch -> B320, march/merge -> M620, soared/sort -> S630, ...)
PHONETIC_QUERIES = ("badge", "march", "soared", "qwery", "joyn",
                    "filtar", "haash")


def q_phonetic_lookup(sf_dir: str) -> ray.data.Dataset:
    """Phonetic "did you mean": for each fixed (misspelled) probe
    word, every dictionary term sharing its Soundex code, with df —
    the phonetic companion to q_fuzzy_terms' edit-distance lookup
    (soundex catches sound-alike misspellings Levenshtein-1 misses,
    e.g. badge→batch). Shape: the probes' codes are tiny and
    broadcast; each dictionary block encodes itself and hash-joins
    locally — no shuffle. Returns (qword, term, df, code)."""
    probes = [(q, soundex_code(q)) for q in PHONETIC_QUERIES]

    def _match(batch: pa.Table) -> pa.Table:
        terms = batch.column("term").to_pylist()
        df = batch.column("df").to_numpy().astype(np.int64)
        codes = batch.column("code").to_pylist()
        out_q, out_t, out_df, out_c = [], [], [], []
        by_code: dict[str, list[int]] = {}
        for i, c in enumerate(codes):
            by_code.setdefault(c, []).append(i)
        for qw, qc in probes:
            for i in by_code.get(qc, ()):
                out_q.append(qw)
                out_t.append(terms[i])
                out_df.append(int(df[i]))
                out_c.append(qc)
        return pa.table({
            "qword": pa.array(out_q, pa.string()),
            "term": pa.array(out_t, pa.string()),
            "df": pa.array(out_df, pa.int64()),
            "code": pa.array(out_c, pa.string()),
        })

    return q_soundex_terms(sf_dir).map_batches(_match,
                                               batch_format="pyarrow")
