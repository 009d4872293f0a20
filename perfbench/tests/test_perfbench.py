"""Tests for the benchmark's own code (no Ray needed):

    python3 -m pytest perfbench/tests -q
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

from perfbench.corpus import CLASSES, make_queries  # noqa: E402
from perfbench.sampling import percentile, samples_needed  # noqa: E402
from perfbench.spans import Span, Tracer, self_times  # noqa: E402


def _df(n_terms=300, n_docs=1000):
    # a long tail, a middle, and three terms in more than half the docs
    df = {f"t{i:03d}": 1 + (i * 7) % 400 for i in range(n_terms)}
    df.update(hot=900, hotter=950, hottest=990)
    return df, n_docs


# ---- query generator

def test_queries_same_seed_same_queries():
    df, n = _df()
    assert make_queries(df, n, 500, seed=5) == make_queries(df, n, 500, seed=5)


def test_queries_other_seed_other_queries():
    df, n = _df()
    assert make_queries(df, n, 500, seed=5)[0] != make_queries(df, n, 500, seed=6)[0]


def test_query_mix_is_recorded_and_even():
    df, n = _df()
    queries, mix = make_queries(df, n, 500, seed=1)
    assert mix["classes"] == {c: 100 for c in CLASSES}
    assert sorted(mix["classes"]) == sorted(c for c in set(c for c, _ in queries))


def test_query_classes_respect_df():
    df, n = _df()
    queries, mix = make_queries(df, n, 500, seed=2)
    for cls, text in queries:
        terms = text.split()
        if cls == "head":
            assert all(df[t] > n / 2 for t in terms)
        elif cls == "long":
            assert 8 <= len(terms) <= 20
            assert all(df[t] <= n / 2 for t in terms)
        elif cls == "mixed":
            assert df[terms[0]] <= mix["df_max"]["tail"] and df[terms[1]] > n / 2
        elif cls == "tail":
            assert all(df[t] <= mix["df_max"]["tail"] for t in terms)


# ---- percentile rule

def test_p99_needs_ten_samples_beyond_it():
    assert samples_needed(99) == 1000
    assert samples_needed(95) == 200
    assert samples_needed(50) == 20
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    assert percentile(range(1000), 99) == 989.0


def test_percentile_is_nearest_rank():
    vals = list(range(1, 2001))       # 1..2000
    assert percentile(vals, 50) == 1000.0
    assert percentile(vals, 99) == 1980.0
    assert percentile(reversed(vals), 99) == 1980.0
    assert percentile([3.0], 50) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


# ---- spans and self time

def _span(sid, start, end, parent=None, name="x"):
    return Span(sid, name, start, end, parent)


def test_self_time_subtracts_children():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 3.0, 0), _span(2, 5.0, 6.0, 0),
             _span(3, 1.5, 2.0, 1)]
    st = self_times(spans)
    assert st[0] == pytest.approx(7.0)   # 10 - (2 + 1)
    assert st[1] == pytest.approx(1.5)   # 2 - 0.5
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0.0, 10.0), _span(1, 2.0, 6.0, 0), _span(2, 4.0, 8.0, 0),
             _span(3, 9.0, 12.0, 0)]      # clipped to the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_restores():
    class Target:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    t = Tracer()
    original = Target.__dict__["outer"]
    t.wrap(Target, "outer", "outer")
    t.wrap(Target, "inner", "inner")
    with pytest.raises(RuntimeError):
        t.wrap(Target, "inner", "inner")
    assert Target().outer() == 2
    outer, inner = t.named("outer")[0], t.named("inner")[0]
    assert inner.parent == outer.id and outer.parent is None
    assert outer.start <= inner.start <= inner.end <= outer.end
    t.unwrap_all()
    assert Target.__dict__["outer"] is original


def test_tracer_closes_span_when_call_raises():
    class Target:
        def boom(self):
            raise KeyError("x")

    t = Tracer()
    t.wrap(Target, "boom", "boom")
    with pytest.raises(KeyError):
        Target().boom()
    assert t.current is None and t.named("boom")[0].end > 0
    t.unwrap_all()


# ---- list cache hit ratio

def test_cache_hit_ratio_counts_absent_keys_apart():
    from perfbench.layers import Layers

    layers = Layers()
    layers.tracer.spans = [
        _span(0, 0.0, 100.0, name="traced"),
        _span(1, 1.0, 10.0, 0, "engine.candidates"),
        _span(2, 2.0, 3.0, 1, "reader.top_layer"),
        _span(3, 2.1, 2.9, 2, "reader.get"),       # cached list: a hit
        _span(4, 3.0, 6.0, 1, "reader.top_layer"),
        _span(5, 3.1, 5.9, 4, "reader.get"),       # decoded: a miss
        _span(6, 3.2, 5.8, 5, "reader.decode"),
        _span(7, 6.0, 7.0, 1, "reader.top_layer"),
        _span(8, 6.1, 6.9, 7, "reader.get"),       # key in no generation
        _span(9, 11.0, 20.0, 0, "engine.topk"),
        _span(10, 12.0, 13.0, 9, "reader.get"),    # cached list: a hit
    ]
    layers.absent = {8}
    out = layers.metrics(layers.tracer.spans[0], {})
    assert out["reader.list_cache_hit_ratio.candidates"][0] == 0.5
    assert out["reader.list_cache_hit_ratio.topk"][0] == 1.0
    assert out["reader.get_calls_per_query"][0] == 2.0
    assert out["reader.absent_gets_per_query"][0] == 0.5
