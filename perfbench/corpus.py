"""Seeded inputs: the base transcript corpus, churn deltas, and the
query mix by document-frequency class.

Everything here is a pure function of the seed, so one seed gives the
same corpus, deltas and queries on every run.
"""

from __future__ import annotations

import os
import random
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# Query classes by document frequency (df) over the base corpus:
#   tail  - 1-2 terms from the rarest tenth of the vocabulary
#   mid   - 2-3 terms between the 40th and 90th df percentile
#   head  - 1-2 terms with df > N/2 (posting lists over half the corpus)
#   mixed - one tail term plus one head term (rare + hot)
#   long  - 8-20 mid terms (many lists; candidates() touches every pair)
CLASSES = ("tail", "mid", "head", "mixed", "long")


def write_corpus(table: pa.Table, dir_path: str, num_files: int = 4) -> int:
    """Write `table` across `num_files` parquet files; returns bytes
    written."""
    os.makedirs(dir_path, exist_ok=True)
    n = table.num_rows
    bounds = np.linspace(0, n, num_files + 1).astype(int)
    total = 0
    for i in range(num_files):
        path = os.path.join(dir_path, f"part-{i:03d}.parquet")
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]), path)
        total += os.path.getsize(path)
    return total


def delta_table(num_convs: int, seed: int, cycle: int) -> pa.Table:
    """New conversations for churn cycle `cycle`: conv ids carry a
    per-cycle prefix so they never collide with the base or earlier
    deltas."""
    from candidategeneration_ray.sources.transcripts import generate_transcripts

    table = generate_transcripts(num_convs, seed=seed * 1009 + cycle + 1)
    conv = pc.replace_substring(table.column("conv_id"), "conv",
                                f"zd{cycle:04d}c")
    return table.set_column(table.schema.get_field_index("conv_id"),
                            "conv_id", conv)


def df_classes(df: dict[str, int], n_docs: int) -> dict[str, list[str]]:
    """Vocabulary split into the df classes the query mix draws from."""
    terms = sorted(df, key=lambda t: (df[t], t))
    dfs = np.array([df[t] for t in terms])
    p10, p40, p90 = np.percentile(dfs, [10, 40, 90])
    head = [t for t in terms if df[t] > n_docs / 2] or terms[-1:]
    return {
        "tail": [t for t in terms if df[t] <= p10],
        "mid": [t for t in terms if p40 <= df[t] <= p90],
        "head": head,
    }


def make_queries(df: dict[str, int], n_docs: int, n: int,
                 seed: int) -> tuple[list[tuple[str, str]], dict]:
    """`n` queries as (class, text), classes in equal shares and
    shuffled, plus a record of the class mix and df thresholds."""
    pools = df_classes(df, n_docs)
    rng = random.Random(seed)
    out = []
    for i in range(n):
        cls = CLASSES[i % len(CLASSES)]
        if cls == "tail":
            terms = rng.sample(pools["tail"], rng.randint(1, 2))
        elif cls == "mid":
            terms = rng.sample(pools["mid"], rng.randint(2, 3))
        elif cls == "head":
            terms = rng.sample(pools["head"],
                               min(len(pools["head"]), rng.randint(1, 2)))
        elif cls == "mixed":
            terms = [rng.choice(pools["tail"]), rng.choice(pools["head"])]
        else:
            terms = rng.sample(pools["mid"], rng.randint(8, 20))
        out.append((cls, " ".join(terms)))
    rng.shuffle(out)
    mix = {
        "classes": dict(Counter(c for c, _ in out)),
        "pool_sizes": {k: len(v) for k, v in pools.items()},
        "df_max": {k: max(df[t] for t in v) for k, v in pools.items()},
        "df_min": {k: min(df[t] for t in v) for k, v in pools.items()},
    }
    return out, mix


def document_frequencies(table: pa.Table) -> dict[str, int]:
    """Per-term document frequency over the corpus's turns, with the
    engine's tokenizer."""
    from candidategeneration_ray.functions.tokenize import tokenize_text

    df: Counter = Counter()
    for text in table.column("text").to_pylist():
        df.update(set(tokenize_text(text)))
    return dict(df)
