"""Correctness references: oracle top-k over a document set and a
format-independent digest of a built index.

The top-k reference is `candidategeneration_ray.oracle`: its per-term
quantized BM25 (`OracleIndex.term_score`) and its ranking rule (sum
over the distinct query terms a document holds, score descending then
doc id ascending, documents holding no query term excluded). Two
shortcuts keep it fast enough to run inside every benchmark run and
change no answer: each document's term counts are computed once, and
only documents holding a query term are scored.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def ordered_docs(tables: list[pa.Table]) -> list[tuple[str, int, str]]:
    """(conv_id, turn_idx, text) of each corpus in id order: the engine
    numbers a corpus's turns by (conv_id, turn_idx) rank, and each later
    corpus (a churn delta) continues after the ids already handed out."""
    out = []
    for t in tables:
        out.extend(sorted(zip(t.column("conv_id").to_pylist(),
                              t.column("turn_idx").to_pylist(),
                              t.column("text").to_pylist())))
    return out


class Reference:
    """Oracle over `docs` [(doc_id, text)]. `epoch` (another Reference)
    freezes N, avgdl and df at that corpus, as the engine's incremental
    updates do (pipelines.update: FROZEN-STATS EPOCH SEMANTICS)."""

    def __init__(self, docs: list[tuple[int, str]],
                 epoch: "Reference | None" = None):
        from candidategeneration_ray.oracle import build_oracle_index

        idx = build_oracle_index(docs)
        if epoch is not None:
            e = epoch.index
            idx = dataclasses.replace(idx, df=e.df, n_docs=e.n_docs,
                                      total_tokens=e.total_tokens,
                                      avgdl=e.avgdl)
        tfs = {d: Counter(toks) for d, toks in idx.tokens.items()}
        idx.tf = tfs.__getitem__  # same counts, computed once per doc
        self.index = idx
        self.docs_with: dict[str, list[int]] = {}
        for d, tf in tfs.items():
            for term in tf:
                self.docs_with.setdefault(term, []).append(d)

    def topk(self, text: str, k: int) -> list[tuple[int, int]]:
        """[(score, doc_id)] in the engine's output order."""
        from candidategeneration_ray.functions.tokenize import tokenize_text

        totals: dict[int, int] = {}
        for term in sorted(set(tokenize_text(text))):
            for d in self.docs_with.get(term, ()):
                s = self.index.term_score(d, term)
                if s is not None:
                    totals[d] = totals.get(d, 0) + s
        ranked = sorted(totals.items(), key=lambda p: (-p[1], p[0]))[:k]
        return [(s, d) for d, s in ranked]


def index_digest(index_dir: str, codec: str = "varint") -> tuple[str, int, int]:
    """sha256 over every posting list's (key, n, decoded doc ids,
    scores), sorted by key, so the digest names the index contents and
    not their byte layout. Returns (hexdigest, keys, bytes on disk)."""
    from candidategeneration_ray.functions.arrowutil import binary_column_concat
    from candidategeneration_ray.functions.codecs import decode_docs_concat

    files = sorted(glob.glob(os.path.join(index_dir, "*.parquet")))
    t = pa.concat_tables(
        [pq.read_table(f, columns=["key", "n", "docs", "scores"])
         for f in files]).combine_chunks()
    order = np.argsort(t.column("key").to_numpy(), kind="stable")
    t = t.take(pa.array(order))
    n = t.column("n").to_numpy().astype(np.int64)
    docs_data, docs_off = binary_column_concat(t.column("docs"))
    docs, _ = decode_docs_concat(docs_data, n, codec, byte_offsets=docs_off)
    scores, _ = binary_column_concat(t.column("scores"))
    h = hashlib.sha256()
    h.update(t.column("key").to_numpy().astype("<i8").tobytes())
    h.update(n.astype("<i8").tobytes())
    h.update(docs.astype("<i8").tobytes())
    h.update(scores.tobytes())
    return h.hexdigest(), t.num_rows, sum(os.path.getsize(f) for f in files)
