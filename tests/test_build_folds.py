"""The build's vectorized folds against per-key references: the list
merge's block metadata (block_max / block_last) and the exact integer
sums of the stats and conv-offset folds. No Ray session needed."""

import numpy as np
import pyarrow as pa
import pytest

from candidategeneration_ray.config import EngineConfig
from candidategeneration_ray.functions.arrowutil import binary_column_concat
from candidategeneration_ray.functions.varint import decode_delta
from candidategeneration_ray.stages.listbuild import (
    merge_partial_lists, partial_rows)

BS = 8
# list lengths around the block size, and one list the cap prunes
LENGTHS = [1, BS - 1, BS, BS + 1, 3 * BS, 5 * BS + 3]
TOMBSTONES = (np.array([100, 5_000], np.int64), np.array([400, 5_300], np.int64))


def _postings(seed):
    """(keys, scores, docs): one list per LENGTHS entry (key = index),
    distinct doc ids per list, scores that include negatives."""
    rng = np.random.default_rng(seed)
    keys, scores, docs = [], [], []
    for k, n in enumerate(LENGTHS):
        keys.append(np.full(n, k, np.int64))
        docs.append(rng.choice(10_000, n, replace=False).astype(np.int64))
        scores.append(rng.integers(-1_000, 1_000_000, n).astype(np.int32))
    return np.concatenate(keys), np.concatenate(scores), np.concatenate(docs)


def _reference_lists(keys, scores, docs, cfg, tombstones):
    """{key: (docs, scores)} per key in Python: tombstoned docs dropped,
    then the first `unconditional_prefix` docs plus the best remainder
    by (score desc, doc asc) kept, doc-ordered."""
    out = {}
    for k in np.unique(keys):
        m = keys == k
        d, s = docs[m], scores[m]
        o = np.argsort(d)
        d, s = d[o], s[o]
        if tombstones is not None:
            live = np.ones(d.size, bool)
            for lo, hi in zip(*tombstones):
                live &= ~((d >= lo) & (d < hi))
            d, s = d[live], s[live]
        if cfg.max_list_postings is not None and d.size > cfg.max_list_postings:
            p = cfg.unconditional_prefix
            tail = sorted(range(p, d.size), key=lambda i: (-int(s[i]), int(d[i])))
            keep = sorted(list(range(p)) + tail[:cfg.max_list_postings - p])
            d, s = d[keep], s[keep]
        if d.size:
            out[int(k)] = (d, s)
    return out


@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("tombstones", [None, TOMBSTONES])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_metadata_matches_per_key_reference(prune, tombstones, seed):
    """The loop-free block_max / block_last of merge_partial_lists equal
    the per-key blocks [i, min(i + block_size, n)) of each final list,
    across list lengths 1, bs-1, bs, bs+1 and 3 bs, with pruning and
    tombstones."""
    cfg = EngineConfig(block_size=BS, num_buckets=3,
                       max_list_postings=3 * BS + 1 if prune else None,
                       unconditional_prefix=BS // 2)
    keys, scores, docs = _postings(seed)
    # three partial batches, as emission produces them
    order = np.random.default_rng(seed + 10).permutation(keys.size)
    parts = pa.concat_tables([
        partial_rows(keys[ix], scores[ix], docs[ix], cfg.num_buckets)
        for ix in np.array_split(order, 3)])
    docs_data, _ = binary_column_concat(parts.column("docs"))
    scores_data, _ = binary_column_concat(parts.column("scores"))
    out = merge_partial_lists(
        parts.column("key").to_numpy().astype(np.int64),
        parts.column("n").to_numpy().astype(np.int64),
        docs_data, scores_data, cfg, 0, tombstones=tombstones).to_pylist()

    ref = _reference_lists(keys, scores, docs, cfg, tombstones)
    assert [r["key"] for r in out] == sorted(ref)
    lengths = set()
    for r in out:
        d = decode_delta(r["docs"]).astype(np.int64)
        s = np.frombuffer(r["scores"], "<i4")
        rd, rs = ref[r["key"]]
        np.testing.assert_array_equal(d, rd)
        np.testing.assert_array_equal(s, rs)
        n = d.size
        assert r["n"] == n
        lengths.add(n)
        starts = range(0, n, BS)
        assert r["block_max"] == [int(s[i:i + BS].max()) for i in starts]
        assert r["block_last"] == [int(d[min(i + BS, n) - 1]) for i in starts]
    if tombstones is None:
        assert {1, BS - 1, BS, BS + 1, 3 * BS} <= lengths


def test_stats_fold_sums_exact_past_2_53():
    """compute_stats' per-term fold sums df / n_docs / n_tokens partials
    as integers: 2^53 + 1 survives (a float64 sum rounds it to 2^53)."""
    from candidategeneration_ray.stages.stats import _df_fold

    big = 1 << 53
    out = _df_fold(pa.table({
        "term": ["a", "b", "a", "a"],
        "df": pa.array([big, 3, 1, 2], pa.int64()),
        "n_docs_partial": pa.array([big, 0, 1, 0], pa.int64()),
        "n_tokens_partial": pa.array([3, big, 0, 0], pa.int64()),
        "tbucket": pa.array([0, 0, 0, 0], pa.int64()),
    })).to_pydict()
    got = dict(zip(out["term"], zip(out["df"], out["nd"], out["nt"])))
    assert got == {"a": (big + 3, big + 1, 3), "b": (3, 0, big)}


def test_conv_fold_turn_counts_exact_past_2_53():
    """conv_offsets' per-conversation fold sums turn counts as
    integers: 2^53 + 1 survives."""
    from candidategeneration_ray.stages.docids import _conv_fold

    big = 1 << 53
    out = _conv_fold(pa.table({
        "conv_id": ["c1", "c0", "c1"],
        "n_turns": pa.array([big, 2, 1], pa.int64()),
        "min_t": pa.array([0, 0, 5], pa.int64()),
        "max_t": pa.array([big - 1, 1, big], pa.int64()),
        "cbucket": pa.array([1, 1, 1], pa.int64()),
    })).to_pydict()
    got = dict(zip(out["conv_id"],
                   zip(out["n_turns"], out["min_t"], out["max_t"])))
    assert got == {"c1": (big + 1, 0, big), "c0": (2, 0, 1)}
