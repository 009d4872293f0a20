"""Global statistics + document frequency + term dictionary.

Reference: PHASE1 (WWWMain.java:69-74) accumulates N / total words into a
shared long[2] and df into a shared, UNSYNCHRONIZED int[] (lossy races,
InvertedIndex.java:157-173). We compute both exactly with pre-aggregated
groupbys:

  - per-batch partial df (one (term, df) row per term per batch) →
    groupby(term).sum — the shuffle moves per-batch partials, not one
    row per (doc, term);
  - N / total tokens via the same partial trick (one row per batch).

Term dictionary (WWW.java:269-281): terms sorted ascending → 1-based
sequential int32 ids — deterministic, so id spaces are reproducible
across runs and parallelism levels.

The resulting broadcast state ("index stats") is a dict of numpy arrays
shipped once via ray.put and pulled once per worker (first batch),
mirroring the reference's load-once InvertedIndex ctor
(InvertedIndex.java:86-121), which holds the whole dictionary in one
process (a 91.5M-entry termFreqArray, InvertedIndex.java:76,163).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from candidategeneration_ray.functions.bm25 import truncated_avgdl
from candidategeneration_ray.functions.groups import group_sum
from candidategeneration_ray.functions.keys import str_bucket_of


def _partial_df(batch: pa.Table) -> pa.Table:
    """One (term, df, n_docs, total_tokens) partial row per distinct term
    in the batch; doc-count/token-count partials ride on the first row.
    Pre-aggregation: the groupby shuffle moves per-batch partials, not
    one row per (doc, term). Fully vectorized: Arrow dictionary_encode
    (C++ hash) + one np.unique over (doc, term-code) pairs + bincount."""
    col = batch.column("tokens").combine_chunks()
    offsets = col.offsets.to_numpy().astype(np.int64)
    lens = np.diff(offsets)
    total_tokens = int(lens.sum())
    values = col.values
    if len(values) and total_tokens:
        denc = values.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab_n = len(denc.dictionary)
        didx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), lens)
        uniq_pairs = np.unique(didx * vocab_n + codes)
        df_counts = np.bincount(uniq_pairs % vocab_n, minlength=vocab_n)
        terms = denc.dictionary
        counts = df_counts.astype(np.int64)
    else:
        terms = pa.array([""], pa.string())
        counts = np.zeros(1, dtype=np.int64)
    n_docs = np.zeros(len(terms), dtype=np.int64)
    n_toks = np.zeros(len(terms), dtype=np.int64)
    n_docs[0] = batch.num_rows
    n_toks[0] = total_tokens
    return pa.table({
        "term": terms,
        "df": pa.array(counts, pa.int64()),
        "n_docs_partial": pa.array(n_docs, pa.int64()),
        "n_tokens_partial": pa.array(n_toks, pa.int64()),
    })


def _df_fold(group: pa.Table) -> pa.Table:
    """Bucket-local exact fold of _partial_df rows: one (term, df, nd,
    nt) row per term. The int-bucket groupby + vectorized fold replaces
    the string-key sort aggregate (measured ~2x on the headline stats
    phase — same per-block fixed-cost lesson as tableutil.sized_read).
    Sums are one groups.group_sum over the term codes, exact int64 past
    2^53; every code 0..len(uniq)-1 occurs, so the sums align with
    `uniq`."""
    import pandas as pd

    codes, uniq = pd.factorize(
        np.asarray(group.column("term").to_pylist(), dtype=object))
    _, df, nd, nt = group_sum(codes, *(
        group.column(c).to_numpy()
        for c in ("df", "n_docs_partial", "n_tokens_partial")))
    return pa.table({
        "term": pa.array(np.asarray(uniq, dtype=object).tolist(), pa.string()),
        "df": pa.array(df, pa.int64()),
        "nd": pa.array(nd, pa.int64()),
        "nt": pa.array(nt, pa.int64()),
    })


def compute_stats(ds_tokens: ray.data.Dataset, num_buckets: int) -> dict:
    """ds_tokens must carry a `tokens:list<string>` column.

    Returns {"terms": sorted np object array (id = index+1),
             "df_by_id": int64 array (df_by_id[0] unused),
             "n_docs": int, "total_tokens": int, "avgdl": float}.

    `num_buckets` sizes the df fold (task-routed exchange); callers
    size it from the files the plan reads (build_index from its
    inputs, 16 for small local ones — object-count overhead; the
    document families with tableutil.table_buckets)."""
    def _bucketize(batch: pa.Table) -> pa.Table:
        b = str_bucket_of(batch.column("term").to_pylist(), num_buckets)
        return batch.append_column("tbucket", pa.array(b))

    # the df fold keeps the sort-based groupby: A/B'd against the
    # task-routed exchange (round 5) and the sort wins here (0.90 vs
    # 1.03 s) — the partial rows carry term strings, so the split's
    # per-bucket take() copies string buffers the sort never touches
    agg = (ds_tokens.select_columns(["tokens"])
           .map_batches(lambda b: _bucketize(_partial_df(b)),
                        batch_format="pyarrow")
           .groupby("tbucket").map_groups(_df_fold, batch_format="pyarrow"))
    pdf = agg.to_pandas()
    n_docs = int(pdf["nd"].sum())
    total_tokens = int(pdf["nt"].sum())
    pdf = pdf[(pdf["df"] > 0) & (pdf["term"] != "")].sort_values("term")
    terms = pdf["term"].to_numpy()
    df_by_id = np.concatenate(([0], pdf["df"].to_numpy(np.int64)))
    return {
        "terms": terms,
        "df_by_id": df_by_id,
        "n_docs": n_docs,
        "total_tokens": total_tokens,
        "avgdl": truncated_avgdl(total_tokens, n_docs) if n_docs else 1.0,
    }
