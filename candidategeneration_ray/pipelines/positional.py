"""Positional index family + exact phrase queries.

The reference's index is docid+score only; its d-window PAIR keys
(InvertedIndex.java:246-287) prove proximity but cannot answer "exact
phrase" — the standard fulltext extension is a positional family that
stores, per (term, doc), the ascending kept-token positions. This
module builds that family with the SAME architecture as the unigram /
bigram / HIT families (pipelines/docquery.py): batch-global vectorized
emission -> ONE bucketed shuffle -> bucket-parallel merged segments
cached under a manifest.

On-disk layout (one row per term key, doc-ordered):
    key     int64   1-based term id (the shared dictionary)
    n       int64   number of docs
    docs    binary  delta+varint doc ids (ascending)
    counts  binary  varint positions-per-doc, aligned with docs
    pos     binary  concat of per-doc delta+varint position lists
    bucket  int32   hash bucket (the serving-time pruning key)

Positions are 1-based ranks within the KEPT token stream (stopwords
and rejected tokens removed before ranking) — adjacency therefore
means "adjacent among indexed terms", the usual semantics for a
stopworded positional index.

Scale notes (100 TB): emission is embarrassingly parallel and adds
~1-2 bytes/token over the docid index; the single shuffle is the same
bucketed exchange the main index uses; a phrase query reads ONLY the
buckets holding its terms' keys (parquet predicate pushdown on the
`bucket`/`key` columns) and the intersection cost is bounded by the
rarest term's posting bytes. Each phrase runs as its own Ray task, so
a query trace fans out across the cluster.

LSM deltas land as `gen-NNNN/` dirs (state.checkpoint's generation
rule); compaction folds them into `final-NNNN/` and repoints
`ACTIVE.json` to it and to `through`, the highest generation folded.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.functions.arrowutil import (
    binary_array_from_concat, binary_column_concat,
)
from candidategeneration_ray.functions.tokenize import tokenize_text
from candidategeneration_ray.functions.varint import (
    decode_delta_concat, encode_delta_grouped,
    encode_delta_grouped_concat, varint_decode, varint_encode,
    varint_sizes,
)
from candidategeneration_ray.pipelines.docquery import (
    _cache_dir, corpus_stats, doc_tokens,
)
from candidategeneration_ray.functions.groups import group_sum, run_starts
from candidategeneration_ray.functions.keys import bucket_of
from candidategeneration_ray.functions.tableutil import ranked_table, table_buckets
from candidategeneration_ray.stages.listbuild import attach_bucket
from candidategeneration_ray.state import checkpoint as ckpt

# positions pack into the low bits of (doc_id << POS_BITS | pos); the
# emitter asserts doc_len and doc_id stay within their fields.
POS_BITS = 20

# Fixed phrase trace (same role as DOC_QUERIES): common bigrams, a rare
# trigram, a repeated-term phrase, and an unmapped phrase that must
# produce zero rows.
PHRASE_QUERIES: list[tuple[int, str]] = [
    (0, "part filter"),
    (1, "order sort"),
    (2, "table hash"),
    (3, "query join"),
    (4, "filter hash table"),
    (5, "customer join"),
    (6, "order order"),     # repeated term — self-shifted intersection
    (7, "zzzq qqqz"),       # unmapped terms → no rows
]


class _PositionalEmitter:
    """map_batches callable: tokens -> (key, doc_id, npos, pos) rows.

    Batch-global: one dictionary-encode for token->id, one lexsort for
    (doc, term) grouping, one grouped delta+varint encode for ALL
    position lists. Dictionary broadcast once via ray.put, fetched per
    actor/worker on first batch (PostingEmitter's pattern,
    stages/postings.py:69-104). For LSM delta ingest the broadcast is
    (base_terms, appended_terms, appended_ids): appended ids continue
    past the base vocabulary (update.extend_stats id assignment)."""

    def __init__(self, terms_ref):
        t = ray.get(terms_ref) if isinstance(terms_ref, ray.ObjectRef) else terms_ref
        if isinstance(t, tuple):
            self.terms, self.app_terms, self.app_ids = t
        else:
            self.terms = t  # sorted ascending; id = index + 1
            self.app_terms = np.empty(0, dtype=object)
            self.app_ids = np.empty(0, dtype=np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column("tokens").combine_chunks()
        offsets = col.offsets.to_numpy().astype(np.int64)
        base = offsets[0]
        lens = np.diff(offsets)
        # re-base the child array onto this batch's offset window (a
        # sliced ListArray's .values is the FULL child; offsets are
        # absolute into it — a no-op slice when already aligned)
        flat_strs = col.values.slice(base, offsets[-1] - base)
        n_tok = len(flat_strs)
        if n_tok == 0:
            return pa.table({
                "key": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "npos": pa.array([], pa.int32()),
                "pos": pa.array([], pa.binary()),
            })
        denc = flat_strs.dictionary_encode()
        uniq = np.asarray(denc.dictionary.to_pylist(), dtype=object)
        loc = np.minimum(np.searchsorted(self.terms, uniq),
                         max(self.terms.size - 1, 0))
        uniq_ids = loc.astype(np.int64) + 1
        if self.terms.size:
            miss = self.terms[loc] != uniq
        else:
            miss = np.ones(uniq.size, dtype=bool)
        if miss.any():  # delta-only terms resolve via the appended run
            mpos = np.minimum(np.searchsorted(self.app_terms, uniq[miss]),
                              max(self.app_terms.size - 1, 0))
            if self.app_terms.size == 0 or not np.array_equal(
                    self.app_terms[mpos], uniq[miss]):
                raise KeyError("token outside base+appended dictionary")
            uniq_ids[miss] = self.app_ids[mpos]
        indices = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        flat_ids = uniq_ids[indices]

        doc_ids = batch.column("doc_id").to_numpy().astype(np.int64)
        didx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), lens)
        # 1-based position within the doc's kept-token stream
        positions = np.arange(n_tok, dtype=np.int64) \
            - np.repeat(np.cumsum(lens) - lens, lens) + 1
        # 64 slots of headroom so proximity windows (a + window) never
        # roll into the next doc's packed range
        if lens.max(initial=0) >= (1 << POS_BITS) - 64:
            raise ValueError(
                f"doc_len {lens.max()} exceeds the {POS_BITS}-bit position "
                "field; raise POS_BITS for this corpus")

        # (doc, term) groups; lexsort is stable so positions stay ascending
        order = np.lexsort((flat_ids, didx))
        sd, si = didx[order], flat_ids[order]
        new_grp = np.concatenate(([True], (sd[1:] != sd[:-1]) | (si[1:] != si[:-1])))
        gstart = np.nonzero(new_grp)[0]
        gend = np.concatenate((gstart[1:], [n_tok]))
        blobs = encode_delta_grouped(positions[order], gstart, gend)
        return pa.table({
            "key": pa.array(si[gstart], pa.int64()),
            "doc_id": pa.array(doc_ids[sd[gstart]], pa.int64()),
            "npos": pa.array((gend - gstart).astype(np.int32), pa.int32()),
            "pos": pa.array(blobs, pa.binary()),
        })


def _merge_bucket(group: pa.Table) -> pa.Table:
    """One bucket's (key, doc, npos, pos) rows -> one row per key.

    A (key, doc) pair exists in exactly one emission row (a doc lives
    in one batch), so the merge is a pure regroup: one lexsort by
    (key, doc), grouped docs re-encode, and a byte-gather that
    concatenates each key's per-doc position blobs in doc order —
    no per-key Python loop."""
    keys = group.column("key").to_numpy().astype(np.int64)
    if keys.size == 0:
        return pa.table({
            "key": pa.array([], pa.int64()), "n": pa.array([], pa.int64()),
            "docs": pa.array([], pa.binary()), "counts": pa.array([], pa.binary()),
            "pos": pa.array([], pa.binary()),
            "bucket": pa.array([], pa.int32()),
        })
    bucket = int(group.column("bucket")[0].as_py())
    docs = group.column("doc_id").to_numpy().astype(np.int64)
    npos = group.column("npos").to_numpy().astype(np.int64)
    payload, offs = binary_column_concat(group.column("pos"))

    order = np.lexsort((docs, keys))
    k, d, c = keys[order], docs[order], npos[order]
    kstart = run_starts(k)
    kend = np.concatenate((kstart[1:], [k.size]))

    dbuf, doff = encode_delta_grouped_concat(d, kstart, kend)
    out_docs = binary_array_from_concat(dbuf, doff)

    # counts column: varint(npos) back-to-back, split at key boundaries
    cbytes = np.asarray(
        np.frombuffer(varint_encode(c), dtype=np.uint8))
    cum = np.concatenate(([0], np.cumsum(varint_sizes(c))))
    out_counts = binary_array_from_concat(
        cbytes, cum[np.concatenate((kstart, [c.size]))])

    # pos column: gather per-row blobs into key order without per-row copies
    row_lens = np.diff(offs)
    new_starts = offs[:-1][order]
    new_lens = row_lens[order]
    out_off = np.concatenate(([0], np.cumsum(new_lens)))
    total = int(out_off[-1])
    gather = np.repeat(new_starts - out_off[:-1], new_lens) \
        + np.arange(total, dtype=np.int64)
    out_payload = payload[gather] if total else np.empty(0, np.uint8)
    out_pos = binary_array_from_concat(
        out_payload, out_off[np.concatenate((kstart, [k.size]))])

    return pa.table({
        "key": pa.array(k[kstart], pa.int64()),
        "n": pa.array((kend - kstart).astype(np.int64), pa.int64()),
        "docs": out_docs,
        "counts": out_counts,
        "pos": out_pos,
        "bucket": pa.array(np.full(kstart.size, bucket, dtype=np.int32), pa.int32()),
    })


def build_positional_family(sf_dir: str, cfg: EngineConfig | None = None) -> dict:
    """Build (or reuse) the positional family over `documents`."""
    cfg = cfg or EngineConfig()
    stats = corpus_stats(sf_dir)
    fam_dir = _cache_dir(sf_dir, f"pos-{cfg.index_tag()}")
    final = os.path.join(fam_dir, "final")
    src = os.path.join(sf_dir, "documents.parquet")
    if ckpt.is_complete(final, [src]):
        return {"final_dir": final, "stats": stats}
    ckpt.clear_stale(final)

    terms_ref = ray.put(np.asarray(stats["terms"], dtype=object))
    rows = doc_tokens(sf_dir).map_batches(
        _PositionalEmitter, fn_constructor_args=(terms_ref,),
        batch_format="pyarrow", concurrency=(1, 8),
    )
    lists = attach_bucket(rows, cfg.num_buckets) \
        .groupby("bucket").map_groups(_merge_bucket, batch_format="pyarrow")
    os.makedirs(final, exist_ok=True)
    lists.write_parquet(final)
    ckpt.write_manifest(final, {"phase": "positional-family", "inputs": [src],
                                "cfg": cfg.index_tag()})
    return {"final_dir": final, "stats": stats}


# ------------------------------------------------- LSM delta support

_FAM_ACTIVE = "ACTIVE.json"


def _active(fam_root: str) -> tuple[str, int]:
    """(active final dir name, highest generation folded into it):
    the compaction pointer, or the base build before any compaction."""
    import json

    p = os.path.join(fam_root, _FAM_ACTIVE)
    if not os.path.exists(p):
        return "final", 0
    with open(p) as f:
        a = json.load(f)
    return a["final"], ckpt.folded_through(a, p)


def family_serving_dirs(fam_root: str) -> list[str]:
    """Serving dirs for a positional family root: the active final
    plus every complete generation not yet folded into it. Phrase
    semantics are epoch-free (no scores), so multi-generation serving
    is exact."""
    active, through = _active(fam_root)
    return [os.path.join(fam_root, active)] \
        + ckpt.generation_dirs(fam_root, through)


def update_positional_family(fam_root: str, base_stats: dict,
                             delta_dir: str,
                             cfg: EngineConfig | None = None) -> dict:
    """Ingest a delta documents table as a new generation. Delta-only
    terms get appended dictionary ids (update.extend_stats — the same
    append-only overlay rule as the text LSM); doc ids must be new.
    Returns {"gen_dir", "stats"} with the EXTENDED stats for serving.
    Pass the PREVIOUS update's returned stats for chained deltas — the
    existing overlay is folded into the dictionary before extension,
    so ids never alias across generations."""
    from candidategeneration_ray.pipelines.update import extend_stats
    from candidategeneration_ray.stages.stats import compute_stats
    from candidategeneration_ray.stages.tokenize import attach_tokens

    cfg = cfg or EngineConfig()
    gen_dir = ckpt.next_generation_dir(fam_root, _active(fam_root)[1])
    base_terms = np.asarray(base_stats["terms"], dtype=object)  # sorted
    prev_t = np.asarray(base_stats.get("app_terms", []), dtype=object)
    prev_i = np.asarray(base_stats.get("app_ids", []), dtype=np.int64)
    # effective dictionary = base ++ prior overlay in ID order, so
    # extend_stats assigns the next delta's ids past ALL existing ones
    by_id = np.argsort(prev_i) if prev_t.size else np.empty(0, np.int64)
    eff = {
        **base_stats,
        "terms": np.concatenate((base_terms, prev_t[by_id])),
        "df_by_id": np.concatenate((
            np.asarray(base_stats["df_by_id"], dtype=np.int64),
            np.zeros(prev_t.size, np.int64))),
    }
    delta_ds = attach_tokens(ray.data.read_parquet(
        os.path.join(delta_dir, "documents.parquet"),
        columns=["doc_id", "text"]))
    ext = extend_stats(eff, compute_stats(
        delta_ds, table_buckets(delta_dir, "documents")))
    n_eff = len(eff["terms"])
    new_terms = np.asarray(ext["terms"][n_eff:], dtype=object)  # sorted run
    new_ids = n_eff + 1 + np.arange(new_terms.size, dtype=np.int64)
    # combined overlay (prior + new), sorted by term with aligned ids
    all_t = np.concatenate((prev_t, new_terms))
    all_i = np.concatenate((prev_i, new_ids))
    o = np.argsort(all_t, kind="stable")
    app_terms, app_ids = all_t[o], all_i[o]

    terms_ref = ray.put((base_terms, app_terms, app_ids))
    rows = delta_ds.map_batches(
        _PositionalEmitter, fn_constructor_args=(terms_ref,),
        batch_format="pyarrow", concurrency=(1, 8))
    attach_bucket(rows, cfg.num_buckets) \
        .groupby("bucket").map_groups(_merge_bucket, batch_format="pyarrow") \
        .write_parquet(gen_dir)
    ckpt.write_manifest(gen_dir, {"generation": ckpt.generation_number(gen_dir),
                                  "inputs": [delta_dir],
                                  "app_terms": app_terms.tolist(),
                                  "app_ids": app_ids.tolist()})
    return {"gen_dir": gen_dir, "stats": {
        **base_stats, "app_terms": app_terms, "app_ids": app_ids}}


def _explode_segments(batch: pa.Table) -> pa.Table:
    """Merged rows -> per-(key, doc) emission rows. Per-doc position
    blobs are delta-reset per doc, so their BYTES are reusable as-is —
    splitting needs only the varint end positions (MSB clear), no
    decode/re-encode."""
    out_k, out_d, out_n, out_p = [], [], [], []
    for row in range(batch.num_rows):
        counts = varint_decode(
            batch.column("counts")[row].as_py()).astype(np.int64)
        docs = decode_delta_concat(
            batch.column("docs")[row].as_py(),
            np.array([counts.size]))[0].astype(np.int64)
        blob = batch.column("pos")[row].as_py()
        b = np.frombuffer(blob, dtype=np.uint8)
        ends = np.flatnonzero((b & 0x80) == 0)
        byte_ends = ends[np.cumsum(counts) - 1] + 1
        byte_starts = np.concatenate(([0], byte_ends[:-1]))
        key = int(batch.column("key")[row].as_py())
        out_k.append(np.full(docs.size, key, np.int64))
        out_d.append(docs)
        out_n.append(counts)
        out_p.extend(blob[s:e] for s, e in zip(byte_starts, byte_ends))
    cat = (lambda xs: np.concatenate(xs) if xs else np.empty(0, np.int64))
    return pa.table({
        "key": pa.array(cat(out_k), pa.int64()),
        "doc_id": pa.array(cat(out_d), pa.int64()),
        "npos": pa.array(cat(out_n).astype(np.int32), pa.int32()),
        "pos": pa.array(out_p, pa.binary()),
    })


def compact_positional_family(fam_root: str,
                              cfg: EngineConfig | None = None) -> int:
    """Fold every complete generation into a NEW final directory,
    `final-NNNN` after the highest generation folded (the per-doc
    blobs regroup byte-for-byte; only docs/counts re-encode), then
    atomically repoint ACTIVE.json. Crash windows: pointer not written
    -> old state serves; pointer written but folded gens not yet
    deleted -> they sit at or below `through` and do not serve. What
    serves nothing is removed first: folded or torn (no manifest)
    generations, and compacted finals other than the active one.
    Returns the number of generations folded. Update and compaction
    are never run concurrently on one family: an ingest still writing
    its generation has no manifest yet and would be removed."""
    import json
    import shutil

    cfg = cfg or EngineConfig()
    active, through = _active(fam_root)
    ckpt.clear_torn_generations(fam_root, through)
    for d in glob.glob(os.path.join(fam_root, "final-[0-9]*")):
        if os.path.basename(d) != active:
            shutil.rmtree(d)
    dirs = family_serving_dirs(fam_root)
    gens = dirs[1:]
    if not gens:
        return 0
    through = ckpt.generation_number(gens[-1])
    new_final = f"final-{through:04d}"
    rows = ray.data.read_parquet(_family_files(dirs)) \
        .map_batches(_explode_segments, batch_format="pyarrow")
    attach_bucket(rows, cfg.num_buckets) \
        .groupby("bucket").map_groups(_merge_bucket, batch_format="pyarrow") \
        .write_parquet(os.path.join(fam_root, new_final))
    p = os.path.join(fam_root, _FAM_ACTIVE)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"final": new_final, "through": through}, f)
    os.replace(tmp, p)
    for g in gens:  # best-effort cleanup; the pointer already excludes
        shutil.rmtree(g, ignore_errors=True)
    return len(gens)


def _gather_sorted(futs, empty: pa.Table, sort_keys) -> pa.Table:
    """Collect per-query task results, drop empties, concat + sort —
    the shared tail of every positional query entry."""
    parts = [p for p in ray.get(futs) if p.num_rows] if futs else []
    if not parts:
        return empty
    out = pa.concat_tables(parts)
    return out.take(pa.compute.sort_indices(out, sort_keys=sort_keys))


def phrase_term_ids(stats: dict, phrase: str) -> list[int] | None:
    """Tokenize a phrase with the indexing tokenizer and map to term
    ids (base dictionary, then the LSM appended run if present); None
    if any token is outside both (no match)."""
    terms = np.asarray(stats["terms"], dtype=object)
    app_t = np.asarray(stats.get("app_terms", []), dtype=object)
    app_i = np.asarray(stats.get("app_ids", []), dtype=np.int64)
    toks = tokenize_text(phrase)
    if not toks:
        return None
    ids = []
    for t in toks:
        i = int(np.searchsorted(terms, t))
        if i < terms.size and terms[i] == t:
            ids.append(i + 1)
            continue
        j = int(np.searchsorted(app_t, t))
        if j >= app_t.size or app_t[j] != t:
            return None
        ids.append(int(app_i[j]))
    return ids


def _family_files(dirs: list[str]) -> list[str]:
    files = []
    for d in dirs:
        files.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
    return files


def _packed_positions(dirs: list[str], uniq_tids: list[int],
                      num_buckets: int) -> dict[int, np.ndarray]:
    """Bucket/key-pruned read of the requested terms across every
    serving dir (base final + LSM generations): per term ONE sorted
    packed (doc << POS_BITS | pos) array. A key can contribute one row
    per (bucket file, generation); doc sets are disjoint across
    generations, so concatenation + sort is an exact merge."""
    import pyarrow.parquet as pq

    buckets = np.unique(
        bucket_of(np.asarray(uniq_tids, np.int64), num_buckets)).tolist()
    t = pq.read_table(
        _family_files(dirs),
        filters=[("bucket", "in", buckets), ("key", "in", uniq_tids)],
        columns=["key", "docs", "counts", "pos"],
    )
    parts: dict[int, list[np.ndarray]] = {}
    for row in range(t.num_rows):
        key = int(t.column("key")[row].as_py())
        counts = varint_decode(t.column("counts")[row].as_py()).astype(np.int64)
        docs = decode_delta_concat(
            t.column("docs")[row].as_py(), np.array([counts.size]))[0].astype(np.int64)
        posv, _ = decode_delta_concat(t.column("pos")[row].as_py(), counts)
        if docs.size and int(docs.max()) >= (1 << (62 - POS_BITS)):
            raise ValueError("doc_id exceeds the packed field")
        parts.setdefault(key, []).append(
            (np.repeat(docs, counts) << POS_BITS) | posv.astype(np.int64))
    return {
        k: v[0] if len(v) == 1 else np.sort(np.concatenate(v))
        for k, v in parts.items()
    }


def _phrase_from_packed(packed: dict[int, np.ndarray], phrase_id: int,
                        tids: list[int]) -> pa.Table:
    """Packed (doc << POS_BITS | pos) sorted-set intersection with
    per-term shifts — occurrence p matches iff p+i is a position of
    term i for every i. Overlapping occurrences count (standard
    phrase TF). Shared by the single-task and sharded-fleet servers
    (the packed arrays are identical whichever reader produced them)."""
    empty = pa.table({
        "phrase_id": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "n_occurrences": pa.array([], pa.int64()),
    })
    if any(tid not in packed for tid in tids):
        return empty
    s = packed[tids[0]]
    for i, tid in enumerate(tids[1:], 1):
        s = np.intersect1d(s, packed[tid] - i, assume_unique=True)
        if s.size == 0:
            return empty
    d, occ = np.unique(s >> POS_BITS, return_counts=True)
    return pa.table({
        "phrase_id": pa.array(np.full(d.size, phrase_id, np.int64), pa.int64()),
        "doc_id": pa.array(d, pa.int64()),
        "n_occurrences": pa.array(occ.astype(np.int64), pa.int64()),
    })


@ray.remote
def _phrase_task(dirs: list[str], phrase_id: int, tids: list[int],
                 num_buckets: int) -> pa.Table:
    """Serve one phrase: bucket/key-pruned segment read, then the
    packed intersection (_phrase_from_packed)."""
    packed = _packed_positions(dirs, sorted(set(tids)), num_buckets)
    return _phrase_from_packed(packed, phrase_id, tids)


# Proximity trace: every term must fall inside one W-wide kept-token
# window (the query-time generalization of the reference's d-window
# PAIR keys, InvertedIndex.java:246-287 — there the windows are baked
# into index keys at d=5; here they're evaluated from positions).
PROX_W = 6
PROX_QUERIES: list[tuple[int, str]] = [
    (0, "query join"),
    (1, "customer window merge"),
    (2, "stream filter hash"),
    (3, "vector spark data"),
    (4, "table scan"),
    (5, "zzzq table"),       # unmapped term → no rows
]


@ray.remote
def _proximity_task(dirs: list[str], query_id: int, tids: list[int],
                    window: int, num_buckets: int) -> pa.Table:
    """One proximity query: every distinct term must have a position
    in [a, a+window) for some anchor position a (any term's position —
    a satisfying window's minimum is always an anchor, so anchors are
    complete). n_anchors counts the satisfying anchors per doc. Same
    pruned read + packed-position machinery as _phrase_task; the
    searchsorted range tests run over ALL docs' anchors at once."""
    empty = pa.table({
        "query_id": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "n_anchors": pa.array([], pa.int64()),
    })
    uniq_tids = sorted(set(tids))
    packed = _packed_positions(dirs, uniq_tids, num_buckets)
    if any(tid not in packed for tid in uniq_tids):
        return empty
    anchors = np.sort(np.concatenate([packed[tid] for tid in uniq_tids]))
    ok = np.ones(anchors.size, dtype=bool)
    for tid in uniq_tids:
        p = packed[tid]
        lo = np.searchsorted(p, anchors)
        hi = np.searchsorted(p, anchors + window)
        ok &= hi > lo
    hits = anchors[ok]
    if hits.size == 0:
        return empty
    d, n = np.unique(hits >> POS_BITS, return_counts=True)
    return pa.table({
        "query_id": pa.array(np.full(d.size, query_id, np.int64), pa.int64()),
        "doc_id": pa.array(d, pa.int64()),
        "n_anchors": pa.array(n.astype(np.int64), pa.int64()),
    })


def q_proximity_docs(sf_dir: str, window: int = PROX_W,
                     queries: list[tuple[int, str]] | None = None) -> pa.Table:
    """Proximity retrieval from the persisted positional family:
    (query_id, doc_id, n_anchors) for docs where all query terms
    co-occur within a `window`-wide kept-token span. One Ray task per
    query, bucket/key-pruned reads."""
    cfg = EngineConfig()
    fam = build_positional_family(sf_dir, cfg)
    stats = fam["stats"]
    dirs = family_serving_dirs(os.path.dirname(fam["final_dir"]))
    futs = []
    for qid, text in (queries or PROX_QUERIES):
        tids = phrase_term_ids(stats, text)
        if tids is None:
            continue
        futs.append(_proximity_task.remote(
            dirs, qid, tids, window, cfg.num_buckets))
    return _gather_sorted(futs, pa.table({
            "query_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "n_anchors": pa.array([], pa.int64()),
    }), [("query_id", "ascending"), ("doc_id", "ascending")])


def q_phrase_postings(sf_dir: str,
                      phrases: list[tuple[int, str]] | None = None) -> pa.Table:
    """Exact phrase search over the persisted positional family:
    (phrase_id, doc_id, n_occurrences) for every doc containing each
    trace phrase as consecutive kept tokens. One Ray task per phrase;
    each task's read is pruned to its terms' buckets."""
    cfg = EngineConfig()
    fam = build_positional_family(sf_dir, cfg)
    stats = fam["stats"]
    dirs = family_serving_dirs(os.path.dirname(fam["final_dir"]))
    futs = []
    for pid, phrase in (phrases or PHRASE_QUERIES):
        tids = phrase_term_ids(stats, phrase)
        if tids is None:
            continue
        futs.append(_phrase_task.remote(
            dirs, pid, tids, cfg.num_buckets))
    return _gather_sorted(futs, pa.table({
            "phrase_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "n_occurrences": pa.array([], pa.int64()),
    }), [("phrase_id", "ascending"), ("doc_id", "ascending")])


# ------------------------------- term-sharded phrase serving fleet

@ray.remote(max_restarts=2, max_task_retries=2)
class _PhraseShardActor:
    """Owns the positional-family keys whose bucket hashes to this
    shard (bucket_of(key) % n_shards == shard_id — DISJOINT across the
    fleet by construction, pytest-forced). Answers per-query PARTIAL
    position reads for the terms it owns; packed position arrays are
    term-local, so partials from disjoint term sets merge exactly by
    dict union (the TermShardedQueryEngine pattern for BM25, applied
    to the positional family)."""

    def __init__(self, dirs: list[str], shard_id: int, n_shards: int,
                 num_buckets: int):
        self.dirs = dirs
        self.sid = int(shard_id)
        self.n = int(n_shards)
        self.nb = int(num_buckets)

    def owned(self, term_ids: list[int]) -> list[int]:
        t = np.asarray(sorted(set(term_ids)), np.int64)
        if t.size == 0:
            return []
        mine = t[bucket_of(t, self.nb) % self.n == self.sid]
        return [int(x) for x in mine]

    def positions(self, term_ids: list[int]) -> dict[int, np.ndarray]:
        mine = self.owned(term_ids)
        if not mine:
            return {}
        return _packed_positions(self.dirs, mine, self.nb)

    def ping(self) -> bool:
        return True


class PhraseShardedEngine:
    """Term-partitioned phrase serving: each actor owns a disjoint
    bucket-hash slice of the positional family and serves position
    partials for its terms only; the driver unions the (disjoint)
    partial dicts and runs the packed intersection. One fleet serves
    many phrases — the actors' pruned reads stay warm across queries
    (vs one fresh task per phrase in q_phrase_postings)."""

    def __init__(self, dirs: list[str], cfg: EngineConfig | None = None,
                 n_shards: int = 4):
        self.cfg = cfg or EngineConfig()
        self.n_shards = n_shards
        self.shards = [
            _PhraseShardActor.remote(dirs, s, n_shards,
                                     self.cfg.num_buckets)
            for s in range(n_shards)
        ]
        ray.get([s.ping.remote() for s in self.shards])

    def phrase(self, phrase_id: int, tids: list[int]) -> pa.Table:
        futs = [s.positions.remote(tids) for s in self.shards]
        packed: dict[int, np.ndarray] = {}
        for part in ray.get(futs):
            for k, v in part.items():
                if k in packed:     # ownership is disjoint by design
                    raise RuntimeError(
                        f"term {k} served by two phrase shards")
                packed[k] = v
        return _phrase_from_packed(packed, phrase_id, tids)

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []


def q_phrase_postings_sharded(sf_dir: str,
                              phrases: list[tuple[int, str]] | None = None,
                              n_shards: int = 4) -> pa.Table:
    """q_phrase_postings served through the term-sharded fleet —
    identical output (the driver hash-checks both against the SAME
    oracle), different serving geometry: position partials come from
    n_shards bucket-disjoint actors instead of one task per phrase."""
    cfg = EngineConfig()
    fam = build_positional_family(sf_dir, cfg)
    stats = fam["stats"]
    dirs = family_serving_dirs(os.path.dirname(fam["final_dir"]))
    eng = PhraseShardedEngine(dirs, cfg, n_shards=n_shards)
    try:
        parts = []
        for pid, phrase in (phrases or PHRASE_QUERIES):
            tids = phrase_term_ids(stats, phrase)
            if tids is None:
                continue
            t = eng.phrase(pid, tids)
            if t.num_rows:
                parts.append(t)
    finally:
        eng.shutdown()
    empty = pa.table({
        "phrase_id": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "n_occurrences": pa.array([], pa.int64()),
    })
    if not parts:
        return empty
    out = pa.concat_tables(parts)
    return out.take(pa.compute.sort_indices(
        out, sort_keys=[("phrase_id", "ascending"),
                        ("doc_id", "ascending")]))


def _delta_positional(sf_dir: str) -> tuple[list[str], dict, EngineConfig]:
    """Build (or reuse) the delta-exercising positional family: docs
    split by doc_id parity — EVEN ids are the base family, ODD ids
    arrive as an LSM generation (appended-dictionary terms included),
    then the family is COMPACTED. Returns (serving dirs, stats, cfg).
    Phrase/proximity semantics carry no scoring epoch, so the end
    state must equal a full-corpus build exactly — the driver entry
    reuses the full-corpus phrase oracle verbatim."""
    import json

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    cfg = EngineConfig()
    root = _cache_dir(sf_dir, f"posdelta-{cfg.index_tag()}")
    done = os.path.join(root, "DONE")
    base_dir = os.path.join(root, "base")
    fam_root = None
    if os.path.exists(done):
        with open(done) as f:
            d = json.load(f)
        stats = corpus_stats(base_dir)
        stats = {**stats,
                 "app_terms": np.asarray(d["app_terms"], dtype=object),
                 "app_ids": np.asarray(d["app_ids"], dtype=np.int64)}
        return family_serving_dirs(d["fam_root"]), stats, cfg
    ckpt.clear_stale(root)
    delta_dir = os.path.join(root, "delta")
    os.makedirs(base_dir, exist_ok=True)
    os.makedirs(delta_dir, exist_ok=True)
    tab = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"])
    even = pc.equal(pc.bit_wise_and(tab.column("doc_id"), 1), 0)
    pq.write_table(tab.filter(even),
                   os.path.join(base_dir, "documents.parquet"))
    pq.write_table(tab.filter(pc.invert(even)),
                   os.path.join(delta_dir, "documents.parquet"))

    fam = build_positional_family(base_dir, cfg)
    fam_root = os.path.dirname(fam["final_dir"])
    # crash hygiene: a previous attempt may have ingested/compacted
    # this delta and died before DONE — the base segments are
    # deterministic and reusable, but stale generations / compaction
    # output would DOUBLE the delta on re-ingest. Reset to pristine
    # base state first.
    import shutil

    for d in glob.glob(os.path.join(fam_root, "gen-*")) \
            + glob.glob(os.path.join(fam_root, "final-[0-9]*")):
        shutil.rmtree(d, ignore_errors=True)
    try:
        os.remove(os.path.join(fam_root, _FAM_ACTIVE))
    except FileNotFoundError:
        pass
    upd = update_positional_family(fam_root, fam["stats"], delta_dir, cfg)
    compact_positional_family(fam_root, cfg)
    with open(done, "w") as f:
        json.dump({"fam_root": fam_root,
                   "app_terms": upd["stats"]["app_terms"].tolist(),
                   "app_ids": upd["stats"]["app_ids"].tolist()}, f)
    return family_serving_dirs(fam_root), upd["stats"], cfg


def q_phrase_delta_postings(sf_dir: str) -> pa.Table:
    """Phrase postings served from the base+delta COMPACTED positional
    family — must equal the full-corpus phrase oracle exactly (doc
    sets and positions are epoch-free). The LSM twin of
    q_phrase_postings."""
    dirs, stats, cfg = _delta_positional(sf_dir)
    futs = []
    for pid, phrase in PHRASE_QUERIES:
        tids = phrase_term_ids(stats, phrase)
        if tids is None:
            continue
        futs.append(_phrase_task.remote(dirs, pid, tids, cfg.num_buckets))
    return _gather_sorted(futs, pa.table({
            "phrase_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "n_occurrences": pa.array([], pa.int64()),
    }), [("phrase_id", "ascending"), ("doc_id", "ascending")])


MINSPAN_TOPK = 5


def _min_cover(packed: dict[int, np.ndarray], uniq: list[int]):
    """Per-doc minimal covering window over packed positions: for each
    anchor position a (any term's position) the minimal cover STARTING
    at a ends at max over terms of the first position >= a in the same
    doc; the window minimum of an optimal span is always an anchor, so
    min over anchors is exact (ties to the EARLIEST anchor). Returns
    (docs, starts, spans) sorted by doc — all whole-array
    searchsorteds, shared by the min-span and snippet tasks."""
    anchors = np.sort(np.concatenate([packed[t] for t in uniq]))
    doc_a = anchors >> POS_BITS
    ok = np.ones(anchors.size, dtype=bool)
    end = np.zeros(anchors.size, dtype=np.int64)
    for t in uniq:
        p = packed[t]
        j = np.searchsorted(p, anchors)
        valid = j < p.size
        cand = p[np.minimum(j, p.size - 1)]
        ok &= valid & ((cand >> POS_BITS) == doc_a)
        end = np.maximum(end, cand)
    mask = (1 << POS_BITS) - 1
    d = doc_a[ok]
    a = anchors[ok] & mask
    w = (end[ok] & mask) - a + 1
    if d.size == 0:
        z = np.empty(0, np.int64)
        return z, z, z
    order = np.lexsort((a, w, d))
    d, a, w = d[order], a[order], w[order]
    first = np.r_[True, d[1:] != d[:-1]]
    return d[first], a[first], w[first]


@ray.remote
def _minspan_task(dirs: list[str], query_id: int, tids: list[int],
                  num_buckets: int, k: int) -> pa.Table:
    """Minimal-covering-window ranking (the classic passage-retrieval
    primitive): per doc the smallest kept-token span containing ALL
    query terms, top-k docs by (span asc, doc asc)."""
    empty = pa.table({
        "query_id": pa.array([], pa.int64()),
        "rank": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "min_span": pa.array([], pa.int64()),
    })
    uniq = sorted(set(tids))
    packed = _packed_positions(dirs, uniq, num_buckets)
    if any(t not in packed for t in uniq):
        return empty
    docs, _, spans = _min_cover(packed, uniq)
    if docs.size == 0:
        return empty
    sel = np.lexsort((docs, spans))[:k]
    return pa.table({
        "query_id": pa.array(np.full(sel.size, query_id, np.int64), pa.int64()),
        "rank": pa.array(np.arange(1, sel.size + 1, dtype=np.int64), pa.int64()),
        "doc_id": pa.array(docs[sel], pa.int64()),
        "min_span": pa.array(spans[sel], pa.int64()),
    })


def q_minspan_topk(sf_dir: str, k: int = MINSPAN_TOPK,
                   queries: list[tuple[int, str]] | None = None) -> pa.Table:
    """Passage ranking from the positional family: top-k docs per
    query by the minimal window covering all terms."""
    cfg = EngineConfig()
    fam = build_positional_family(sf_dir, cfg)
    stats = fam["stats"]
    dirs = family_serving_dirs(os.path.dirname(fam["final_dir"]))
    futs = []
    for qid, text in (queries or PROX_QUERIES):
        tids = phrase_term_ids(stats, text)
        if tids is None:
            continue
        futs.append(_minspan_task.remote(dirs, qid, tids, cfg.num_buckets, k))
    return _gather_sorted(futs, pa.table({
            "query_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "min_span": pa.array([], pa.int64()),
    }), [("query_id", "ascending"), ("rank", "ascending")])


SNIPPET_TOPK = 3


@ray.remote
def _snippet_task(dirs: list[str], docs_path: str, query_id: int,
                  tids: list[int], num_buckets: int, k: int) -> pa.Table:
    """Query-biased snippet (KWIC) extraction: the top-k docs by
    minimal covering span, each with the text of its BEST window
    (smallest span, ties to the earliest anchor) re-tokenized from the
    raw doc. Only the <= k matched docs' rows are read back
    (parquet doc_id filter) — snippeting never scans the corpus."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.functions.tokenize import tokenize_text

    empty = pa.table({
        "query_id": pa.array([], pa.int64()),
        "rank": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "min_span": pa.array([], pa.int64()),
        "snippet": pa.array([], pa.string()),
    })
    uniq = sorted(set(tids))
    packed = _packed_positions(dirs, uniq, num_buckets)
    if any(t not in packed for t in uniq):
        return empty
    docs, starts, spans = _min_cover(packed, uniq)
    if docs.size == 0:
        return empty
    sel = np.lexsort((docs, spans))[:k]
    docs, starts, spans = docs[sel], starts[sel], spans[sel]

    txt = pq.read_table(docs_path, columns=["doc_id", "text"],
                        filters=[("doc_id", "in", docs.tolist())])
    text_by_id = dict(zip(txt.column("doc_id").to_pylist(),
                          txt.column("text").to_pylist()))
    snippets = []
    for did, s, ms in zip(docs, starts, spans):
        toks = tokenize_text(text_by_id[int(did)])
        snippets.append(" ".join(toks[int(s) - 1:int(s) - 1 + int(ms)]))
    return pa.table({
        "query_id": pa.array(np.full(docs.size, query_id, np.int64), pa.int64()),
        "rank": pa.array(np.arange(1, docs.size + 1, dtype=np.int64), pa.int64()),
        "doc_id": pa.array(docs, pa.int64()),
        "min_span": pa.array(spans, pa.int64()),
        "snippet": pa.array(snippets, pa.string()),
    })


def q_snippets(sf_dir: str, k: int = SNIPPET_TOPK,
               queries: list[tuple[int, str]] | None = None) -> pa.Table:
    """End-to-end retrieval UX: match (positional family) -> rank
    (min-span) -> query-biased snippet extraction, one Ray task per
    query, all reads pruned."""
    cfg = EngineConfig()
    fam = build_positional_family(sf_dir, cfg)
    stats = fam["stats"]
    dirs = family_serving_dirs(os.path.dirname(fam["final_dir"]))
    docs_path = os.path.join(sf_dir, "documents.parquet")
    futs = []
    for qid, text in (queries or PROX_QUERIES):
        tids = phrase_term_ids(stats, text)
        if tids is None:
            continue
        futs.append(_snippet_task.remote(
            dirs, docs_path, qid, tids, cfg.num_buckets, k))
    return _gather_sorted(futs, pa.table({
            "query_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "min_span": pa.array([], pa.int64()),
            "snippet": pa.array([], pa.string()),
    }), [("query_id", "ascending"), ("rank", "ascending")])


PHRASE_BM25_TOPK = 10


@ray.remote
def _phrase_bm25_task(pos_dirs: list[str], idx_dir: str, phrase_id: int,
                      tids: list[int], num_buckets: int, k: int) -> pa.Table:
    """Phrase-constrained BM25 ranking for ONE phrase — the classic
    two-stage 'match then rank': exact-phrase docs from the positional
    family (packed-position intersection, identical to _phrase_task),
    ranked by the SUM of the phrase's DISTINCT terms' quantized BM25
    scores read bucket/key-pruned from the persisted unigram index
    (functions/bm25.py semantics, utilsClass.java:102-131). Matching
    docs contain every term by construction, so one searchsorted gather
    per term scores all matches at once; ties break (score desc,
    doc asc) like the engine's top-k (O6)."""
    from candidategeneration_ray.state.queryengine import IndexReader

    empty = pa.table({
        "phrase_id": pa.array([], pa.int64()),
        "rank": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "score": pa.array([], pa.int64()),
        "n_occurrences": pa.array([], pa.int64()),
    })
    uniq = sorted(set(tids))
    packed = _packed_positions(pos_dirs, uniq, num_buckets)
    if any(t not in packed for t in uniq):
        return empty
    s = packed[tids[0]]
    for i, tid in enumerate(tids[1:], 1):
        s = np.intersect1d(s, packed[tid] - i, assume_unique=True)
        if s.size == 0:
            return empty
    match_docs, occ = np.unique(s >> POS_BITS, return_counts=True)
    buckets = np.unique(
        bucket_of(np.asarray(uniq, np.int64), num_buckets)).tolist()
    reader = IndexReader(idx_dir, buckets=buckets)
    total = np.zeros(match_docs.size, dtype=np.int64)
    for tid in uniq:
        got = reader.get(int(tid))
        if got is None:  # unreachable: every matching doc holds every term
            return empty
        docs, scores, _, _ = got
        total += scores.astype(np.int64)[np.searchsorted(docs, match_docs)]
    sel = np.lexsort((match_docs, -total))[:k]
    return pa.table({
        "phrase_id": pa.array(np.full(sel.size, phrase_id, np.int64), pa.int64()),
        "rank": pa.array(np.arange(1, sel.size + 1, dtype=np.int64), pa.int64()),
        "doc_id": pa.array(match_docs[sel], pa.int64()),
        "score": pa.array(total[sel], pa.int64()),
        "n_occurrences": pa.array(occ[sel].astype(np.int64), pa.int64()),
    })


def q_phrase_bm25_topk(sf_dir: str, k: int = PHRASE_BM25_TOPK,
                       phrases: list[tuple[int, str]] | None = None) -> pa.Table:
    """Relevance-ranked exact-phrase retrieval: phrase match from the
    positional family, BM25 ranking from the persisted unigram index —
    both families share the dictionary, both reads are bucket-pruned,
    one Ray task per phrase. At 100 TB each task touches only the
    phrase's terms' buckets in two family layouts; nothing scans."""
    from candidategeneration_ray.pipelines.docquery import build_documents_index

    cfg = EngineConfig()
    fam = build_positional_family(sf_dir, cfg)
    stats = fam["stats"]
    dirs = family_serving_dirs(os.path.dirname(fam["final_dir"]))
    idx = build_documents_index(sf_dir, cfg)
    futs = []
    for pid, phrase in (phrases or PHRASE_QUERIES):
        tids = phrase_term_ids(stats, phrase)
        if tids is None:
            continue
        futs.append(_phrase_bm25_task.remote(
            dirs, idx["final_dir"], pid, tids, cfg.num_buckets, k))
    return _gather_sorted(futs, pa.table({
            "phrase_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "score": pa.array([], pa.int64()),
            "n_occurrences": pa.array([], pa.int64()),
    }), [("phrase_id", "ascending"), ("rank", "ascending")])


RRF_C = 60
RRF_TOPK = 5


def q_rrf_fusion(sf_dir: str, k: int = RRF_TOPK, c: int = RRF_C,
                 queries: list[tuple[int, str]] | None = None) -> pa.Table:
    """Reciprocal-rank fusion of two positional rankings per query —
    list A: docs containing ALL terms ranked by minimal covering span;
    list B: docs with a W-window co-occurrence ranked by anchor count
    desc. rrf_micro = Σ 1e6 // (c + rank) over the lists where the doc
    appears (exact integers, so the fusion arithmetic hash-verifies).
    The per-list rankings come from the same per-query Ray tasks the
    standalone entries use; fusion runs over the two small ranked
    lists only."""
    cfg = EngineConfig()
    fam = build_positional_family(sf_dir, cfg)
    stats = fam["stats"]
    dirs = family_serving_dirs(os.path.dirname(fam["final_dir"]))
    jobs = []
    for qid, text in (queries or PROX_QUERIES):
        tids = phrase_term_ids(stats, text)
        if tids is None:
            continue
        jobs.append((qid,
                     _minspan_task.remote(dirs, qid, tids, cfg.num_buckets,
                                          1 << 30),
                     _proximity_task.remote(dirs, qid, tids, PROX_W,
                                            cfg.num_buckets)))
    out_q, out_r, out_d, out_s = [], [], [], []
    for qid, fa, fb in jobs:
        a, b = ray.get(fa), ray.get(fb)
        score: dict[int, int] = {}
        for rank, doc in enumerate(a.column("doc_id").to_pylist(), 1):
            score[doc] = score.get(doc, 0) + 1_000_000 // (c + rank)
        bb = b.to_pandas()
        if len(bb):
            bb = bb.sort_values(["n_anchors", "doc_id"],
                                ascending=[False, True])
            for rank, doc in enumerate(bb["doc_id"], 1):
                doc = int(doc)
                score[doc] = score.get(doc, 0) + 1_000_000 // (c + rank)
        top = sorted(score.items(), key=lambda t: (-t[1], t[0]))[:k]
        for r, (doc, s) in enumerate(top, 1):
            out_q.append(qid)
            out_r.append(r)
            out_d.append(doc)
            out_s.append(s)
    return pa.table({
        "query_id": pa.array(out_q, pa.int64()),
        "rank": pa.array(out_r, pa.int64()),
        "doc_id": pa.array(out_d, pa.int64()),
        "rrf_micro": pa.array(out_s, pa.int64()),
    })


# --------------------------------------------- ordered-window retrieval

# Ordered-window (#odW, the INQUERY/Indri operator): terms must appear
# IN QUERY ORDER with every adjacent gap in (0, OW_W]. A match anchors
# at a t1 position whose greedy chain succeeds; greedy-leftmost (next
# term's MINIMUM position in the window) is feasibility-optimal — the
# earliest choice maximizes the remaining slack — so "exists a chain"
# equals "the greedy chain succeeds", which is what both the engine and
# the SQL oracle compute (the oracle chains one min-aggregate CTE per
# step).
OW_W = 4
OW_QUERIES: list[tuple[int, str]] = [
    (0, "query join"),
    (1, "customer window merge"),
    (2, "stream filter hash"),
    (3, "table scan"),
    (4, "data query"),
    (5, "zzzq table"),       # unmapped term → no rows
]


@ray.remote
def _ordered_window_task(dirs: list[str], query_id: int, tids: list[int],
                         window: int, num_buckets: int) -> pa.Table:
    """One ordered-window query over the packed positional arrays: the
    chain advances all anchors at once (one searchsorted per step;
    doc-crossing impossible because pos + window stays inside the
    POS_BITS field)."""
    empty = pa.table({
        "query_id": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "n_matches": pa.array([], pa.int64()),
    })
    packed = _packed_positions(dirs, sorted(set(tids)), num_buckets)
    if any(tid not in packed for tid in tids):
        return empty
    anchors = packed[tids[0]]
    cur = anchors
    for tid in tids[1:]:
        p = packed[tid]
        if p.size == 0:
            return empty
        idx = np.searchsorted(p, cur + 1)
        safe = np.minimum(idx, p.size - 1)
        ok = (idx < p.size) & (p[safe] <= cur + window)
        anchors, cur = anchors[ok], p[safe[ok]]
        if anchors.size == 0:
            return empty
    d, n = np.unique(anchors >> POS_BITS, return_counts=True)
    return pa.table({
        "query_id": pa.array(np.full(d.size, query_id, np.int64), pa.int64()),
        "doc_id": pa.array(d, pa.int64()),
        "n_matches": pa.array(n.astype(np.int64), pa.int64()),
    })


def q_ordered_window_docs(sf_dir: str, window: int = OW_W,
                          queries: list[tuple[int, str]] | None = None
                          ) -> pa.Table:
    """Ordered-window retrieval from the persisted positional family:
    (query_id, doc_id, n_matches) where n_matches counts the t1
    anchors whose in-order chain (adjacent gaps in (0, window])
    completes. One Ray task per query, bucket/key-pruned reads."""
    cfg = EngineConfig()
    fam = build_positional_family(sf_dir, cfg)
    stats = fam["stats"]
    dirs = family_serving_dirs(os.path.dirname(fam["final_dir"]))
    futs = []
    for qid, text in (queries or OW_QUERIES):
        tids = phrase_term_ids(stats, text)
        if tids is None:
            continue
        futs.append(_ordered_window_task.remote(
            dirs, qid, tids, window, cfg.num_buckets))
    return _gather_sorted(futs, pa.table({
            "query_id": pa.array([], pa.int64()),
            "doc_id": pa.array([], pa.int64()),
            "n_matches": pa.array([], pa.int64()),
    }), [("query_id", "ascending"), ("doc_id", "ascending")])


# ------------------------------------- sequential dependence model (SDM)

# Integer-weight analog of Metzler & Croft's SDM (SIGIR 2005): per
# query, the ranking evidence combines the unigram BM25 total with
# ordered-bigram (#od1 — adjacent occurrence) and unordered-window
# (#uw8 — co-occurrence within SDM_UW tokens) counts over each ADJACENT
# distinct query-term pair:
#
#   sdm = SDM_W_T·bm25 + SDM_W_O·SDM_SCALE·od + SDM_W_U·SDM_SCALE·uw
#
# (classic λ = 0.85/0.10/0.05 becomes 17/2/1 at a fixed count scale —
# deterministic integers so the oracle hash-verifies). Serves from TWO
# persisted families at once: the main BM25 index and the positional
# family's packed position arrays.
SDM_W_T = 17
SDM_W_O = 2
SDM_W_U = 1
SDM_SCALE = 1_000_000
SDM_UW = 8


def _pair_counts(pa_pos: np.ndarray, pb_pos: np.ndarray):
    """(docs, od, uw) for one (a, b) term pair from packed position
    arrays: od = #{p in a : b at p+1}; uw = #{(p, q): q of b,
    0 < |q − p| < SDM_UW}, windows clamped at the doc's low boundary
    (packed pos −7 could borrow into the doc bits; pos +8 cannot
    overflow — the emitter caps doc length 64 below the field)."""
    if pa_pos.size == 0 or pb_pos.size == 0:
        z = np.empty(0, np.int64)
        return z, z, z
    od_hit = np.searchsorted(pb_pos, pa_pos + 1)
    od = (od_hit < pb_pos.size) & (pb_pos[np.minimum(od_hit, pb_pos.size - 1)]
                                   == pa_pos + 1)
    base = (pa_pos >> np.uint64(POS_BITS)) << np.uint64(POS_BITS)
    lo = np.maximum(pa_pos - np.uint64(SDM_UW - 1), base)
    hi = pa_pos + np.uint64(SDM_UW)
    cnt = (np.searchsorted(pb_pos, hi) - np.searchsorted(pb_pos, lo))
    # drop a==p self-match only when the arrays are the same term;
    # callers never pass equal terms, but b may hold a position == p
    # only if a == b, so no exclusion needed here.
    docs_a = (pa_pos >> np.uint64(POS_BITS)).astype(np.int64)
    return group_sum(docs_a, od, cnt)


def q_sdm_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """SDM top-k per fixed DOC_QUERIES query: BM25 totals from the main
    index (TAAT over the match set), od/uw pair counts from the
    positional family (bucket/key-pruned packed reads), combined with
    the fixed integer weights; order (sdm desc, doc asc). Work is
    posting-list-bound per query on both families."""
    from candidategeneration_ray.functions.tokenize import tokenize_text
    from candidategeneration_ray.pipelines.docquery import (
        DOC_QUERIES, build_documents_index)
    from candidategeneration_ray.state.queryengine import IndexReader, taat_topk

    cfg = EngineConfig()
    built = build_documents_index(sf_dir, EngineConfig(emit_pairs=False))
    reader = IndexReader(built["final_dir"], built["stats"])
    fam = build_positional_family(sf_dir, cfg)
    dirs = family_serving_dirs(os.path.dirname(fam["final_dir"]))
    stats = fam["stats"]
    t2i = {t: i + 1 for i, t in enumerate(stats["terms"])}

    results = []
    for qid, text in DOC_QUERIES:
        hits = taat_topk(reader, reader.query_term_ids(text), 1 << 60)
        if not hits:
            continue
        h_docs = np.array([d for _, d in hits], np.int64)
        h_bm25 = np.array([s for s, _ in hits], np.int64)
        order = np.argsort(h_docs, kind="stable")
        h_docs, h_bm25 = h_docs[order], h_bm25[order]
        sdm = SDM_W_T * h_bm25
        toks = tokenize_text(text)
        pairs = [(a, b) for a, b in zip(toks, toks[1:])
                 if a != b and a in t2i and b in t2i]
        if pairs:
            need = sorted({t2i[t] for p in pairs for t in p})
            packed = _packed_positions(dirs, need, cfg.num_buckets)
            for a, b in pairs:
                pa_pos = packed.get(t2i[a])
                pb_pos = packed.get(t2i[b])
                if pa_pos is None or pb_pos is None:
                    continue
                d, od, uw = _pair_counts(pa_pos, pb_pos)
                idx = np.searchsorted(h_docs, d)
                ok = (idx < h_docs.size) & (h_docs[np.minimum(
                    idx, h_docs.size - 1)] == d)
                sdm[idx[ok]] += (SDM_W_O * SDM_SCALE * od[ok]
                                 + SDM_W_U * SDM_SCALE * uw[ok])
        top = np.lexsort((h_docs, -sdm))[:k]
        results.append((qid, [(int(sdm[i]), int(h_docs[i])) for i in top]))
    return ranked_table(results, score="sdm_score")


# ------------------------------------------- LM Dirichlet ranking model

LMD_MU = 2000
LMD_TOPK = 10


@ray.remote
def _lmd_task(dirs: list[str], docs_path: str, query_id: int,
              tids: list[int], total_tokens: int, num_buckets: int,
              mu: int, k: int) -> pa.Table:
    """Serve one query under the Dirichlet-smoothed query-likelihood
    model. tf comes from the positional family (tf = position count —
    the BM25 index stores quantized scores, not tf, which is exactly
    why this second ranker lives on the positional family); cf is the
    term's total position count; dl re-tokenizes only the CANDIDATE
    docs (match-set-bound point read, the LTR/snippet pattern)."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.functions.tokenize import tokenize_many

    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64()),
                      "score": pa.array([], pa.int64())})
    packed = _packed_positions(dirs, sorted(set(tids)), num_buckets)
    term_data = {}
    cand_parts = []
    for t in sorted(set(tids)):
        if t not in packed:
            continue
        d, tf = np.unique(packed[t] >> POS_BITS, return_counts=True)
        term_data[t] = (d, tf.astype(np.int64), int(packed[t].size))
        cand_parts.append(d)
    if not term_data:
        return empty
    cand = np.unique(np.concatenate(cand_parts))
    dt = pq.read_table(docs_path, columns=["doc_id", "text"],
                       filters=[("doc_id", "in", cand.tolist())])
    ids = dt.column("doc_id").to_numpy().astype(np.int64)
    order = np.argsort(ids)
    toks = tokenize_many([dt.column("text")[int(i)].as_py() for i in order])
    dl = np.fromiter((len(tk) for tk in toks), np.float64, len(toks))
    # align dl to cand (ids[order] == cand by construction)
    den = dl + mu
    score = np.zeros(cand.size, np.int64)
    for t in sorted(term_data):
        d, tf, cf = term_data[t]
        tfv = np.zeros(cand.size, np.float64)
        tfv[np.searchsorted(cand, d)] = tf
        smooth = mu * (cf / float(total_tokens))
        val = np.trunc(np.log((tfv + smooth) / den) * 1e7).astype(np.int64)
        score += val
    top = np.lexsort((cand, -score))[:k]
    return pa.table({
        "query_id": pa.array(np.full(top.size, query_id, np.int64),
                             pa.int64()),
        "rank": pa.array(np.arange(1, top.size + 1), pa.int64()),
        "doc_id": pa.array(cand[top], pa.int64()),
        "score": pa.array(score[top], pa.int64()),
    })


def q_lmdirichlet_topk(sf_dir: str, k: int = LMD_TOPK,
                       mu: int = LMD_MU) -> pa.Table:
    """Dirichlet-smoothed query-likelihood top-k (Zhai & Lafferty 2001)
    — a genuinely DIFFERENT ranking model beside BM25, not a variant:
    score(q,d) = Σ_t ln((tf + μ·cf_t/T) / (dl + μ)) over the query's
    distinct mapped terms, candidates = docs matching ≥ 1 term (the
    standard restriction). Each per-term component quantizes to int
    BEFORE the sum, so doc scores are order-free integer sums and the
    whole ranking hash-verifies (the BM25 discipline applied to a
    second model). One Ray task per query; reads prune to the query
    terms' buckets."""
    from candidategeneration_ray.pipelines.docquery import DOC_QUERIES

    cfg = EngineConfig()
    fam = build_positional_family(sf_dir, cfg)
    stats = fam["stats"]
    dirs = family_serving_dirs(os.path.dirname(fam["final_dir"]))
    docs_path = os.path.join(sf_dir, "documents.parquet")
    t2i = {t: i + 1 for i, t in enumerate(stats["terms"])}
    futs = []
    for qid, text in DOC_QUERIES:
        tids = sorted({t2i[t] for t in tokenize_text(text) if t in t2i})
        if not tids:
            continue
        futs.append(_lmd_task.remote(
            dirs, docs_path, qid, tids, int(stats["total_tokens"]),
            cfg.num_buckets, mu, k))
    return _gather_sorted(futs, pa.table({
        "query_id": pa.array([], pa.int64()),
        "rank": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "score": pa.array([], pa.int64()),
    }), [("query_id", "ascending"), ("rank", "ascending")])
