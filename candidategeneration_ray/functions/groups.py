"""Exact grouped integer sums: the one group-by-sum kernel of the package.

`group_sum` sorts the keys once and sums each value column per run of
equal keys with an int64 `np.add.reduceat`, so a group sum is exact
past 2^53 (a weighted bincount, which sums in float64, is not). `run_starts` is
its run-boundary step, for callers whose keys are already sorted (a
stable argsort of concatenated sorted runs beats a fresh sort there)
or that reduce with something other than a sum (min, max, or a
per-run slice). `outside_ranges` is the tombstone rule: which values
lie in none of a set of sorted, disjoint [start, end) ranges.
"""

from __future__ import annotations

import numpy as np


def run_starts(sorted_keys) -> np.ndarray:
    """Positions where each run of equal keys begins, as int64 (the first
    is 0); empty for empty input."""
    k = np.asarray(sorted_keys)
    if k.size == 0:
        return np.zeros(0, np.int64)
    return np.concatenate(([0], np.flatnonzero(k[1:] != k[:-1]) + 1))


def outside_ranges(values: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """Bool mask of the `values` that lie in no [starts[i], ends[i])
    range; the ranges are sorted and disjoint (one searchsorted)."""
    if not len(starts):
        return np.ones(len(values), dtype=bool)
    idx = np.searchsorted(starts, values, side="right") - 1
    return (idx < 0) | (values >= ends[np.maximum(idx, 0)])


def group_sum(keys, *values) -> tuple:
    """(sorted distinct keys, one int64 sum per value column), each sum
    aligned with the keys. Values must be integer or bool (a bool column
    counts its True rows); the sums are exact int64."""
    keys = np.asarray(keys)
    order = np.argsort(keys)
    sk = keys[order]
    starts = run_starts(sk)
    sums = []
    for v in values:
        v = np.asarray(v)
        if v.dtype.kind not in "biu":
            raise TypeError(f"group_sum sums integers, got {v.dtype}")
        sums.append(np.add.reduceat(v.astype(np.int64, copy=False)[order],
                                    starts))
    return (sk[starts], *sums)
