"""functions/groups — the package's one grouped integer sum — against a
Python-int dict oracle at adversarial shapes: int64 keys at 2^31-1 and
±2^62, string keys, negative values, group sums past 2^53 (where a
float64 accumulator rounds), empty input and one-row groups; and its
tombstone rule, outside_ranges, against a per-value range scan."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from candidategeneration_ray.functions.groups import (
    group_sum, outside_ranges, run_starts)

INT_KEY = st.one_of(st.sampled_from([2**31 - 1, 2**62, -(2**62), 0, -1]),
                    st.integers(-3, 3), st.integers(-(2**63), 2**63 - 1))
STR_KEY = st.text(alphabet="ab\x00é", max_size=3)
# 60 rows of |v| <= 2^56 cannot overflow int64, yet sums pass 2^53
VALUE = st.one_of(st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1]),
                  st.integers(-(2**56), 2**56))


def _oracle(keys, *cols):
    acc: dict = {}
    for i, k in enumerate(keys):
        row = acc.setdefault(k, [0] * len(cols))
        for j, c in enumerate(cols):
            row[j] += int(c[i])
    ks = sorted(acc)
    return ks, [[acc[k][j] for k in ks] for j in range(len(cols))]


def _check(keys, *cols):
    uniq, *sums = group_sum(keys, *cols)
    want_keys, want_sums = _oracle(list(keys), *cols)
    assert uniq.tolist() == want_keys
    assert [s.tolist() for s in sums] == want_sums
    assert all(s.dtype == np.int64 for s in sums)


@given(st.lists(st.tuples(INT_KEY, VALUE, st.booleans()), max_size=60))
@settings(max_examples=200, deadline=None)
def test_group_sum_int_keys(rows):
    _check(np.array([r[0] for r in rows], np.int64),
           np.array([r[1] for r in rows], np.int64),
           np.array([r[2] for r in rows], bool))


@given(st.lists(st.tuples(STR_KEY, VALUE), max_size=60))
@settings(max_examples=200, deadline=None)
def test_group_sum_string_keys(rows):
    keys = np.array([r[0] for r in rows], object)
    _check(keys, np.array([r[1] for r in rows], np.int64))


@given(st.lists(INT_KEY, max_size=60))
@settings(max_examples=200, deadline=None)
def test_run_starts(keys):
    k = np.sort(np.array(keys, np.int64))
    want = [i for i in range(k.size) if i == 0 or k[i] != k[i - 1]]
    got = run_starts(k)
    assert got.tolist() == want and got.dtype == np.int64


def test_sum_past_2_53_is_exact():
    keys = np.array([5, 5, 5], np.int64)
    vals = np.array([2**53, 1, 1], np.int64)
    assert group_sum(keys, vals)[1].tolist() == [2**53 + 2]
    # the float64 accumulator this replaces loses both ones
    assert int(np.bincount([0, 0, 0], weights=vals)[0]) == 2**53


def test_empty_and_one_row_groups():
    u, s = group_sum(np.zeros(0, np.int64), np.zeros(0, np.int64))
    assert u.size == 0 and s.size == 0 and s.dtype == np.int64
    assert run_starts(np.zeros(0, np.int64)).size == 0
    u, s = group_sum(np.array([3, -2**62, 2**31 - 1]), np.array([-4, 5, 6]))
    assert u.tolist() == [-2**62, 3, 2**31 - 1] and s.tolist() == [5, -4, 6]


def test_float_values_raise():
    with pytest.raises(TypeError):
        group_sum(np.array([1, 1]), np.array([0.5, 0.5]))


@given(st.lists(st.integers(0, 60), max_size=12, unique=True),
       st.lists(st.integers(-5, 70), max_size=40))
@settings(max_examples=200, deadline=None)
def test_outside_ranges(bounds, values):
    """Sorted disjoint [start, end) ranges from sorted distinct bounds
    taken in pairs (none when fewer than two); a value on a start is
    inside, on an end outside."""
    b = sorted(bounds)
    starts = np.array(b[0:len(b) - 1:2], np.int64)
    ends = np.array(b[1::2], np.int64)
    v = np.array(values, np.int64)
    want = [not any(s <= x < e for s, e in zip(starts, ends)) for x in v]
    got = outside_ranges(v, starts, ends)
    assert got.dtype == bool and got.tolist() == want
