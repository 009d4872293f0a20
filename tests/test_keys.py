"""Key routing (functions/keys, tableutil.auto_buckets) — pinned hash
values, checked pair packing, the source rule that keeps one routing
hash, one fold-sizing rule and one grouped sum (functions/groups), the
code-keyed derived-index cache and
its pruning, and bucket-count independence of every fold sized by
auto_buckets."""

import glob
import os
import re
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from candidategeneration_ray.functions.keys import (
    bucket_of, pack_pair, str_bucket_of, unpack_pair)
from test_driver_contract import SF_DIR as SF_SMALL   # the sf0.01 fixture

SF_TINY = os.path.join(os.path.dirname(SF_SMALL), "sf0.001")
PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "candidategeneration_ray")


# ------------------------------------------------------- pinned values

def test_bucket_of_values_pinned():
    # the persisted `bucket` column of every segment holds these values
    assert bucket_of(np.arange(16), 96).tolist() == [
        0, 30, 61, 28, 27, 50, 25, 32, 55, 86, 5, 68, 51, 10, 65, 8]


def test_listbuild_reexports_bucket_of():
    from candidategeneration_ray.stages import listbuild

    assert listbuild.bucket_of is bucket_of


def test_str_bucket_of_values_pinned():
    names = ["conv-000001", "alpha", "beta", "query", "engine", "latency",
             "x", ""]
    assert str_bucket_of(names, 16).tolist() == [10, 10, 8, 3, 8, 13, 13, 6]
    assert str_bucket_of([], 16).size == 0


# --------------------------------------------------------- pair packing

def test_pack_pair_round_trip_at_the_id_limit():
    top = (1 << 31) - 1
    a = np.array([0, 1, top, top, 7], np.int64)
    b = np.array([top, 0, top, 0, 10_000_000], np.int64)
    k = pack_pair(a, b)
    assert k.dtype == np.int64 and (k >= 0).all()
    assert np.unique(k).size == a.size
    a2, b2 = unpack_pair(k)
    assert np.array_equal(a2, a) and np.array_equal(b2, b)


@pytest.mark.parametrize("a,b", [([1 << 31], [0]), ([0], [1 << 31]),
                                 ([-1], [0]), ([0], [-5])])
def test_pack_pair_raises_out_of_range(a, b):
    with pytest.raises(ValueError):
        pack_pair(np.array(a), np.array(b))


# ------------------------------------------------------------ source rule

_RULES = [
    (re.compile(r"0x9E3779B97F4A7C15", re.I), "inline routing hash constant"),
    (re.compile(r"\*\s*10_?000_?000\s*\+"), "decimal pair packing"),
    (re.compile(r"<< (np\.int64\()?32\)?\) \|"), "inline pair packing"),
    (re.compile(r"^\s*n[a-z]?b\s*=\s*\d+\s*(#.*)?$"), "literal fold bucket count"),
    (re.compile(r"^\s*(?!N_BUCKETS\b|VOPT_BUCKETS\b)\w+_BUCKETS\s*=\s*\d"),
     "literal *_BUCKETS fold count"),
    (re.compile(r"ray\.cluster_resources\("), "cluster CPU read"),
    (re.compile(r"\bcluster_cpus\("), "CPU-sized count"),
    (re.compile(r"\b(\w*buckets|n?pb|nb)\s*:\s*int\s*=\s*64\b"),
     "literal bucket default"),
    (re.compile(r"bincount\(.*weights="), "float group sum"),
    (re.compile(r"nonzero\(\s*(np\.concatenate\(\(\[True\],\s*)?\(?(\w+)"
                r"\[1:\]\s*!=\s*\2\[:-1\]"), "inline run boundary"),
    (re.compile(r"flatnonzero\(np\.diff\("), "inline run boundary"),
    (re.compile(r'"rank": pa\.array\(ranks'), "hand-built ranked table"),
]
# the modules a rule's pattern may appear in: fold counts are sized from
# the input, so only the exchange's range count and the emission batch
# follow the cluster's CPUs
_HOME = {"inline routing hash constant": {os.path.join("functions", "keys.py")},
         "inline pair packing": {os.path.join("functions", "keys.py")},
         "cluster CPU read": {os.path.join("functions", "tableutil.py")},
         "CPU-sized count": {os.path.join("functions", "tableutil.py"),
                             os.path.join("functions", "exchange.py"),
                             os.path.join("stages", "postings.py")},
         "inline run boundary": {os.path.join("functions", "groups.py")},
         "hand-built ranked table": {os.path.join("functions",
                                                  "tableutil.py")}}
# the functions (by the enclosing def) a rule's pattern may appear in:
# these take a dataset or an edge list, not an sf dir, so there are no
# input files to size from and their callers pass the count they want
_HOME_DEFS = {"literal bucket default": {"snapshot_diff",
                                         "_propagation_rounds"},
              # a float64 accumulator whose sums provably stay below
              # 2^53 (int32 scores over fewer than 2^22 lists), kept on
              # the serving hot path
              "float group sum": {"taat_topk"},
              # tables of another shape: a source or mmr_value column,
              # and the serving path's 0-based int32 ranks
              "hand-built ranked table": {"__call__", "q_collapse_topk",
                                          "q_mmr_topk"}}
_DEF = re.compile(r"^\s*def (\w+)")


def test_one_routing_hash_and_one_fold_sizing_rule():
    """Key routing goes through keys.bucket_of, fold sizes through
    tableutil.auto_buckets and grouped integer sums through
    groups.group_sum / run_starts: no float64 weighted bincount (exact
    only below 2^53) and no inline run-boundary idiom (a line ending in
    `nonzero(` is read with its continuation); no inline copy of the
    bucket hash (the
    bloom-filter salts are not routing), no decimal or inline shift
    pair packing (keys.pack_pair checks the id range), no
    literal fold bucket count (N_BUCKETS and VOPT_BUCKETS are histogram
    widths, not fold counts), one read of the cluster's CPU count
    (tableutil.cluster_cpus), no fold sized from it, and no bucket
    count that defaults to 64 where the input files are at hand
    (entries default to None and size with tableutil.table_buckets),
    and no hand-built (query_id, rank, doc_id, score) table
    (tableutil.ranked_table)."""
    bad = []
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"),
                                 recursive=True)):
        rel = os.path.relpath(path, PKG)
        fn = None
        prev = ""
        with open(path) as fh:
            for i, line in enumerate(fh, 1):
                m = _DEF.match(line)
                fn = m.group(1) if m else fn
                text = prev + line if prev.endswith("nonzero(") else line
                prev = line.rstrip()
                for rx, what in _RULES:
                    if not rx.search(text):
                        continue
                    if rel in _HOME.get(what, ()) \
                            or fn in _HOME_DEFS.get(what, ()) or (
                            what.startswith("inline")
                            and line.startswith("_BLOOM_JOIN_SALTS")):
                        continue
                    bad.append(f"{rel}:{i}: {what}: {line.strip()}")
    assert not bad, "\n".join(bad)


# ------------------------------------------------------ code-keyed cache

def test_cache_dir_keyed_on_source_digest(monkeypatch, tmp_path):
    from candidategeneration_ray.pipelines import docquery

    monkeypatch.setattr(docquery, "_CACHE_ROOT", str(tmp_path))
    sf = SF_TINY
    digest = docquery._source_digest()
    assert digest == docquery._source_digest()     # once per process
    assert len(digest) == 32
    base = docquery._cache_dir(sf, "t")
    assert docquery._cache_dir(sf, "t") == base
    monkeypatch.setattr(docquery, "_source_digest", lambda: digest)
    assert docquery._cache_dir(sf, "t") == base
    monkeypatch.setattr(docquery, "_source_digest", lambda: "0" * 32)
    assert docquery._cache_dir(sf, "t") != base


def test_cache_prunes_idle_entries_of_other_code(monkeypatch, tmp_path):
    """The first _cache_dir call of a code digest removes the entries of
    other digests (and of the older flat layout) idle for the fixed age;
    a recently touched one, whose code may still be running, stays, and
    so does this code's own directory however old."""
    from candidategeneration_ray.pipelines import docquery

    monkeypatch.setattr(docquery, "_CACHE_ROOT", str(tmp_path))
    monkeypatch.setattr(docquery, "_source_digest", lambda: "a" * 32)
    old = time.time() - docquery._CACHE_IDLE_S - 60
    entries = {}
    for name in ("src-aaaaaaaaaaaa", "src-bbbbbbbbbbbb", "src-cccccccccccc",
                 "v2-docidx-0123456789"):
        os.makedirs(tmp_path / name / "final")
        entries[name] = tmp_path / name
    for name in ("src-aaaaaaaaaaaa", "src-bbbbbbbbbbbb",
                 "v2-docidx-0123456789"):
        os.utime(entries[name], (old, old))
    got = docquery._cache_dir(SF_TINY, "t")
    assert os.path.dirname(got) == str(entries["src-aaaaaaaaaaaa"])
    assert sorted(os.listdir(tmp_path)) == ["src-aaaaaaaaaaaa",
                                            "src-cccccccccccc"]
    # the call touched its own directory, so it is not idle any more
    assert os.stat(entries["src-aaaaaaaaaaaa"]).st_mtime > old + 60


# ------------------------------------------- bucket-count independence

# Every registry entry whose fold or shuffle bucket count used to be a
# literal (JOIN_BUCKETS, COPURCHASE_BUCKETS, TRI_*_BUCKETS,
# NTILE_BUCKETS, nfb = 32, nb = 32) and now comes from auto_buckets.
# item_cosine_pairs is empty at both fixture scales (tests/test_relational.py
# checks it on a basket fixture); its two folds (copurchase_counts,
# _copurchase_item_supports) are association_rules'.
SIZED_ENTRIES = [
    "nation_order_stats", "shipping_priority", "local_supplier_volume",
    "customers_no_orders", "customers_no_orders_bloom",
    "order_priority_counts", "customer_order_distribution",
    "large_volume_customers", "nation_median_order", "nation_median_interp",
    "nation_mode_priority", "fk_audit", "nation_p90_order",
    "small_qty_revenue", "above_avg_idle_customers", "line_priority_counts",
    "volume_shipping", "market_share", "returned_items", "waiting_suppliers",
    "nation_profit", "disjunctive_revenue", "copurchase_pairs",
    "association_rules", "top_orders_per_customer",
    "part_supplier_counts", "dominant_suppliers", "als_rank1",
    "triangle_counts", "common_neighbors", "neighborhood_jaccard",
    "adamic_adar", "kcore_nodes", "densest_subgraph", "ktruss_edges",
    "source_ntile", "part_entities", "peak_concurrency", "active_time",
    "windowed_distinct_users", "session_copresence",
]


def _canon(obj) -> pd.DataFrame:
    import ray.data

    if isinstance(obj, (ray.data.Dataset, pa.Table)):
        obj = obj.to_pandas()
    df = obj[sorted(obj.columns)]
    return df.sort_values(by=list(df.columns),
                          kind="mergesort").reset_index(drop=True)


@pytest.mark.parametrize("name", SIZED_ENTRIES)
def test_entry_bucket_count_independence(ray_session, monkeypatch, name):
    import __ray_entry__ as m
    from candidategeneration_ray.functions import tableutil

    fn = m.queries()[name]
    # volume_shipping has no qualifying rows at sf0.001
    sf = SF_SMALL if name == "volume_shipping" else SF_TINY
    outs = []
    for nb in (3, 17):
        monkeypatch.setattr(tableutil, "auto_buckets",
                            lambda *paths, _nb=nb, **kw: _nb)
        outs.append(_canon(fn(sf)))
    assert len(outs[0]) > 0
    pd.testing.assert_frame_equal(outs[0], outs[1])


# ------------------------------------------------ ids past 10^7 (ALS)

def _shifted_copy(dst: str, shift: int) -> str:
    for t, col in (("lineitem", "l_partkey"), ("part", "p_partkey")):
        tbl = pq.read_table(os.path.join(SF_TINY, f"{t}.parquet"))
        i = tbl.schema.get_field_index(col)
        tbl = tbl.set_column(i, col, pa.array(
            tbl.column(col).to_numpy() + shift, pa.int64()))
        pq.write_table(tbl, os.path.join(dst, f"{t}.parquet"))
    return dst


def test_als_rank1_part_keys_past_ten_million(ray_session, tmp_path):
    """Part keys shifted by +10^7: the decimal packing s*10^7 + p
    decoded (s, 10^7 + p) as (s + 1, p) and merged distinct ratings;
    the checked (s << 32) | p packing keeps the oracle's answer."""
    import duckdb

    import __ray_entry__ as m

    sf = _shifted_copy(str(tmp_path), 10_000_000)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"'{os.path.join(sf, 'lineitem.parquet')}'")
    want = _canon(con.sql(m.oracle_sql()["als_rank1"]).df())
    got = _canon(m.queries()["als_rank1"](sf))
    assert (got["id"][got["kind"] == "part"] >= 10_000_000).all()
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    for c in got.columns:
        if got[c].dtype.kind in "iu":
            assert (got[c].astype("int64").values
                    == want[c].astype("int64").values).all(), c
        else:
            assert (got[c].astype(str).values
                    == want[c].astype(str).values).all(), c
