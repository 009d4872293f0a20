"""Relational/warehouse operators (pipelines/relational.py): integer
arithmetic invariants; the sf0.01 oracle-identity checks run in
test_driver_contract."""

import os

import numpy as np
import pyarrow as pa

from candidategeneration_ray.pipelines import relational as rl

SF_DIR = "/root/testdata/sf0.001"


def test_cents_matches_duckdb_round():
    import duckdb

    v = np.array([0.005, -0.005, 1.005, 2.675, -2.675, 0.125, 3.335])
    con = duckdb.connect()
    want = [con.execute(
        "SELECT CAST(round(? * 100) AS BIGINT)", [float(x)]).fetchone()[0]
        for x in v]
    assert rl._cents(v).tolist() == want


def test_pricing_summary_bounds(ray_session):
    df = rl.q_pricing_summary(SF_DIR).to_pandas()
    assert len(df) > 0
    # discount is 0-10%, tax 0-8%: the derived sums bracket the base
    assert (df["sum_disc_milli"] <= 100 * df["sum_base_cents"]).all()
    assert (df["sum_disc_milli"] >= 90 * df["sum_base_cents"]).all()
    assert (df["sum_charge_micro"] >= 100 * df["sum_disc_milli"]).all()
    assert (df["sum_charge_micro"] <= 108 * df["sum_disc_milli"]).all()


def test_join_aggregates_consistent(ray_session):
    """The bucketed hash join must conserve the order count and total
    cents of the orders whose custkey exists in customer."""
    import os

    import pyarrow.parquet as pq

    agg = rl.q_nation_order_stats(SF_DIR).to_pandas()
    orders = pq.read_table(os.path.join(SF_DIR, "orders.parquet"),
                           columns=["o_custkey", "o_totalprice"]).to_pandas()
    cust = set(pq.read_table(os.path.join(SF_DIR, "customer.parquet"),
                             columns=["c_custkey"])
               .column("c_custkey").to_pylist())
    matched = orders[orders["o_custkey"].isin(cust)]
    assert agg["n_orders"].sum() == len(matched)
    assert agg["total_cents"].sum() == \
        rl._cents(matched["o_totalprice"].to_numpy()).sum()


def test_top_customers_ordering(ray_session):
    t = rl.q_top_customers(SF_DIR).to_pandas()
    assert 0 < len(t) <= rl.TOP_CUSTOMERS
    rows = list(zip(-t["total_cents"].to_numpy(), t["o_custkey"].to_numpy()))
    assert rows == sorted(rows)


class TestSaltedJoin:
    @staticmethod
    def _write_tables(tmp_path, n_orders_hot=5000, hotkey=7):
        import pyarrow.parquet as pq

        rng = np.random.default_rng(5)
        d = str(tmp_path)
        nkeys = np.arange(5, dtype=np.int64)
        pq.write_table(pa.table({
            "n_nationkey": pa.array(nkeys, pa.int64()),
            "n_name": pa.array([f"NATION{i}" for i in nkeys], pa.string()),
        }), os.path.join(d, "nation.parquet"))
        ck = np.arange(50, dtype=np.int64)
        pq.write_table(pa.table({
            "c_custkey": pa.array(ck, pa.int64()),
            "c_nationkey": pa.array(ck % 5, pa.int64()),
        }), os.path.join(d, "customer.parquet"))
        # one monster key + a uniform tail
        custs = np.concatenate((
            np.full(n_orders_hot, hotkey, np.int64),
            rng.integers(0, 50, 2000).astype(np.int64)))
        pq.write_table(pa.table({
            "o_custkey": pa.array(custs, pa.int64()),
            "o_orderstatus": pa.array(
                np.where(np.arange(custs.size) % 3 == 0, "F", "O"),
                pa.string()),
            "o_totalprice": pa.array(
                rng.uniform(1, 100, custs.size).round(2), pa.float64()),
        }), os.path.join(d, "orders.parquet"))
        return d

    def test_hot_key_detection(self, ray_session, tmp_path):
        from candidategeneration_ray.pipelines.relational import _hot_probe_keys

        d = self._write_tables(tmp_path)
        hot = _hot_probe_keys(d, 1)
        assert hot.tolist() == [7]
        assert len(_hot_probe_keys(d, 5)) == 5

    def test_salted_equals_unsalted_with_monster_key(self, ray_session, tmp_path):
        from candidategeneration_ray.pipelines.relational import (
            q_nation_order_stats)

        d = self._write_tables(tmp_path)
        key = ["n_name", "o_orderstatus"]
        plain = q_nation_order_stats(d).to_pandas() \
            .sort_values(key).reset_index(drop=True)
        salted = q_nation_order_stats(d, hot_k=3, salt_shards=4).to_pandas() \
            .sort_values(key).reset_index(drop=True)
        assert plain.equals(salted)
        # and both equal the brute-force join
        import pyarrow.parquet as pq

        o = pq.read_table(os.path.join(d, "orders.parquet")).to_pandas()
        c = pq.read_table(os.path.join(d, "customer.parquet")).to_pandas()
        n = pq.read_table(os.path.join(d, "nation.parquet")).to_pandas()
        o["cents"] = np.floor(np.abs(o.o_totalprice * 100) + 0.5).astype(np.int64)
        j = o.merge(c, left_on="o_custkey", right_on="c_custkey") \
             .merge(n, left_on="c_nationkey", right_on="n_nationkey")
        want = j.groupby(key).agg(
            n_orders=("cents", "size"), total_cents=("cents", "sum")) \
            .reset_index().sort_values(key).reset_index(drop=True)
        assert plain[key + ["n_orders", "total_cents"]].equals(
            want[key + ["n_orders", "total_cents"]])

    def test_salted_equals_unsalted_sf0001(self, ray_session):
        from candidategeneration_ray.pipelines.relational import (
            q_nation_order_stats)

        SF = "/root/testdata/sf0.001"
        key = ["n_name", "o_orderstatus"]
        plain = q_nation_order_stats(SF).to_pandas() \
            .sort_values(key).reset_index(drop=True)
        salted = q_nation_order_stats(SF, hot_k=10).to_pandas() \
            .sort_values(key).reset_index(drop=True)
        assert plain.equals(salted)


class TestShippingPriority:
    def test_sf0001_matches_pandas(self, ray_session):
        import pandas as pd
        import pyarrow.parquet as pq

        SF = "/root/testdata/sf0.001"
        c = pq.read_table(os.path.join(SF, "customer.parquet")).to_pandas()
        o = pq.read_table(os.path.join(SF, "orders.parquet")).to_pandas()
        li = pq.read_table(os.path.join(SF, "lineitem.parquet")).to_pandas()
        cutoff = pd.Timestamp("1998-01-01")
        c = c[c.c_mktsegment == "BUILDING"]
        o = o[o.o_orderdate < cutoff]
        li = li[li.l_shipdate > cutoff].copy()
        li["rev"] = (
            np.floor(np.abs(li.l_extendedprice * 100) + 0.5).astype(np.int64)
            * (100 - np.floor(np.abs(li.l_discount * 100) + 0.5).astype(np.int64)))
        j = li.merge(o, left_on="l_orderkey", right_on="o_orderkey") \
              .merge(c, left_on="o_custkey", right_on="c_custkey")
        g = j.groupby(["l_orderkey", "o_orderdate", "o_orderpriority"])["rev"] \
             .sum().reset_index()
        g["o_orderdate_us"] = g["o_orderdate"].astype("int64")
        g = g.sort_values(["rev", "o_orderdate_us", "l_orderkey"],
                          ascending=[False, True, True]).head(10)
        want = [tuple(r) for r in g[
            ["l_orderkey", "rev", "o_orderdate_us", "o_orderpriority"]
        ].itertuples(index=False)]

        got = rl.q_shipping_priority(SF).to_pandas()
        assert [tuple(r) for r in got.itertuples(index=False)] == want
        assert len(got) == 10

    def test_orders_without_lineitems_drop(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        d = str(tmp_path)
        pq.write_table(pa.table({
            "c_custkey": pa.array([1, 2], pa.int64()),
            "c_mktsegment": pa.array(["BUILDING", "AUTO"], pa.string()),
        }), os.path.join(d, "customer.parquet"))
        dates = np.array(["1997-01-01", "1997-06-01", "1999-01-01"],
                         dtype="datetime64[us]")
        pq.write_table(pa.table({
            "o_orderkey": pa.array([10, 11, 12], pa.int64()),
            "o_custkey": pa.array([1, 1, 1], pa.int64()),
            "o_orderdate": pa.array(dates, pa.timestamp("us")),
            "o_orderpriority": pa.array(["1-URGENT"] * 3, pa.string()),
        }), os.path.join(d, "orders.parquet"))
        ship = np.array(["1998-06-01", "1998-07-01"], dtype="datetime64[us]")
        pq.write_table(pa.table({
            # order 10 qualifies; order 11 has NO post-cutoff lineitem;
            # order 12 fails the orderdate predicate
            "l_orderkey": pa.array([10, 12], pa.int64()),
            "l_extendedprice": pa.array([100.0, 100.0], pa.float64()),
            "l_discount": pa.array([0.10, 0.10], pa.float64()),
            "l_shipdate": pa.array(ship, pa.timestamp("us")),
        }), os.path.join(d, "lineitem.parquet"))
        got = rl.q_shipping_priority(d).to_pandas()
        assert got["l_orderkey"].tolist() == [10]
        assert got["revenue_milli"].tolist() == [10000 * 90]


class TestLocalSupplierVolume:
    def _fixture(self, tmp_path):
        import pyarrow.parquet as pq

        d = str(tmp_path)
        pq.write_table(pa.table({
            "r_regionkey": pa.array([0, 1], pa.int64()),
            "r_name": pa.array(["ASIA", "EUROPE"], pa.string()),
        }), os.path.join(d, "region.parquet"))
        pq.write_table(pa.table({
            "n_nationkey": pa.array([0, 1, 2], pa.int64()),
            "n_name": pa.array(["JAPAN", "INDIA", "FRANCE"], pa.string()),
            "n_regionkey": pa.array([0, 0, 1], pa.int64()),
        }), os.path.join(d, "nation.parquet"))
        pq.write_table(pa.table({
            "c_custkey": pa.array([1, 2, 3], pa.int64()),
            "c_nationkey": pa.array([0, 1, 2], pa.int64()),
        }), os.path.join(d, "customer.parquet"))
        pq.write_table(pa.table({
            "s_suppkey": pa.array([10, 11, 12], pa.int64()),
            "s_nationkey": pa.array([0, 1, 2], pa.int64()),
        }), os.path.join(d, "supplier.parquet"))
        dates = np.array(["1996-06-01", "1996-07-01", "1997-06-01",
                          "1996-08-01"], dtype="datetime64[us]")
        pq.write_table(pa.table({
            "o_orderkey": pa.array([100, 101, 102, 103], pa.int64()),
            "o_custkey": pa.array([1, 2, 1, 3], pa.int64()),
            "o_orderdate": pa.array(dates, pa.timestamp("us")),
        }), os.path.join(d, "orders.parquet"))
        pq.write_table(pa.table({
            # order 100 (cust JP): JP supplier (local, counts) + IN
            # supplier (not local, drops); order 101 (cust IN): IN
            # supplier counts; order 102 fails the date window; order
            # 103's customer is FRANCE (not in ASIA) -> drops.
            "l_orderkey": pa.array([100, 100, 101, 102, 103], pa.int64()),
            "l_suppkey": pa.array([10, 11, 11, 10, 12], pa.int64()),
            "l_extendedprice": pa.array([100.0, 50.0, 40.0, 70.0, 30.0],
                                        pa.float64()),
            "l_discount": pa.array([0.10, 0.0, 0.05, 0.0, 0.0], pa.float64()),
        }), os.path.join(d, "lineitem.parquet"))
        return d

    def test_local_rule_and_window(self, ray_session, tmp_path):
        d = self._fixture(tmp_path)
        got = rl.q_local_supplier_volume(d).to_pandas()
        want = {
            "JAPAN": 10000 * 90,          # order 100 x supplier 10 only
            "INDIA": 4000 * 95,           # order 101 x supplier 11
        }
        assert dict(zip(got["n_name"], got["revenue_milli"])) == want
        # sorted by revenue desc
        assert got["revenue_milli"].is_monotonic_decreasing


class TestCustomersNoOrders:
    def test_anti_semantics(self, ray_session, tmp_path):
        import pyarrow.parquet as pq

        d = str(tmp_path)
        pq.write_table(pa.table({
            "n_nationkey": pa.array([0, 1], pa.int64()),
            "n_name": pa.array(["JAPAN", "INDIA"], pa.string()),
        }), os.path.join(d, "nation.parquet"))
        pq.write_table(pa.table({
            "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
            "c_nationkey": pa.array([0, 0, 1, 1], pa.int64()),
        }), os.path.join(d, "customer.parquet"))
        dates = np.array(["1996-06-01", "1995-06-01"], dtype="datetime64[us]")
        pq.write_table(pa.table({
            # cust 1 has an in-window order; cust 2's order is outside
            # the window (still lonely); custs 3,4 have none.
            "o_orderkey": pa.array([100, 101], pa.int64()),
            "o_custkey": pa.array([1, 2], pa.int64()),
            "o_orderdate": pa.array(dates, pa.timestamp("us")),
        }), os.path.join(d, "orders.parquet"))
        got = rl.q_customers_no_orders(d).to_pandas()
        assert dict(zip(got["n_name"], got["n_customers"])) == {
            "JAPAN": 1, "INDIA": 2}


def test_order_priority_counts_bounds(ray_session):
    """Every counted order lies in the window, and the count per
    priority can't exceed the window's order count for that class."""
    import duckdb

    df = rl.q_order_priority_counts(SF_DIR).to_pandas()
    assert len(df) > 0
    con = duckdb.connect()
    tot = con.execute(f"""
        SELECT o_orderpriority, count(*) FROM '{SF_DIR}/orders.parquet'
        WHERE o_orderdate >= TIMESTAMP '{rl.Q4_DATE_LO}'
          AND o_orderdate < TIMESTAMP '{rl.Q4_DATE_HI}'
        GROUP BY 1""").df().set_index("o_orderpriority").iloc[:, 0]
    for _, r in df.iterrows():
        assert 0 < r["n_orders"] <= tot[r["o_orderpriority"]]


def test_customer_order_distribution_total(ray_session):
    """Histogram masses must sum to the customer count (outer join
    drops nobody), and the weighted sum equals the non-excluded
    order count of customers that exist."""
    import duckdb

    df = rl.q_customer_order_distribution(SF_DIR).to_pandas()
    con = duckdb.connect()
    n_cust = con.execute(
        f"SELECT count(*) FROM '{SF_DIR}/customer.parquet'").fetchone()[0]
    n_ord = con.execute(f"""
        SELECT count(*) FROM '{SF_DIR}/orders.parquet' o
        WHERE o_orderpriority <> '{rl.Q13_EXCLUDE_PRIORITY}'
          AND EXISTS (SELECT 1 FROM '{SF_DIR}/customer.parquet' c
                      WHERE c.c_custkey = o.o_custkey)""").fetchone()[0]
    assert df["custdist"].sum() == n_cust
    assert (df["c_count"] * df["custdist"]).sum() == n_ord


def test_large_volume_customers_threshold(ray_session):
    t = rl.q_large_volume_customers(SF_DIR).to_pandas()
    assert (t["sum_qty_c"] > rl.Q18_MIN_QTY_C).all()
    # descending by quantity, ties by orderkey asc
    rows = list(zip(-t["sum_qty_c"].to_numpy(), t["o_orderkey"].to_numpy()))
    assert rows == sorted(rows)
    assert t["o_orderkey"].is_unique


def test_order_skyline_exact(ray_session):
    """Skyline == brute-force dominance over the whole table, and is
    batch-layout independent by construction (phase 2 reruns the same
    kernel on the union)."""
    import pyarrow.parquet as pq

    got = rl.q_order_skyline(SF_DIR).to_pandas().sort_values(
        "o_orderkey").reset_index(drop=True)
    t = pq.read_table(os.path.join(SF_DIR, "orders.parquet"),
                      columns=["o_orderkey", "o_totalprice",
                               "o_orderdate"])
    key = t.column("o_orderkey").to_numpy().astype(np.int64)
    price = rl._cents(t.column("o_totalprice").to_numpy())
    day = (t.column("o_orderdate").cast(pa.int64()).to_numpy()
           // np.int64(86_400_000_000))
    keep = np.ones(key.size, bool)
    for i in range(key.size):
        dom = (price <= price[i]) & (day <= day[i]) & (
            (price < price[i]) | (day < day[i]))
        if dom.any():
            keep[i] = False
    want = sorted(key[keep].tolist())
    assert got["o_orderkey"].tolist() == want
    assert len(want) > 0


def test_promo_revenue_share_recompute(ray_session):
    """Integer num/den == pandas recompute over the month window."""
    import pyarrow.parquet as pq

    got = rl.q_promo_revenue_share(SF_DIR).to_pandas().iloc[0]
    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                       columns=["l_partkey", "l_extendedprice",
                                "l_discount", "l_shipdate"]).to_pandas()
    pt = pq.read_table(os.path.join(SF_DIR, "part.parquet"),
                       columns=["p_partkey", "p_type"]).to_pandas()
    lo = np.datetime64(rl.PROMO_SHIP_LO)
    hi = np.datetime64(rl.PROMO_SHIP_HI)
    m = (li["l_shipdate"].values >= lo) & (li["l_shipdate"].values < hi)
    li = li[m]
    rev = (rl._cents(li["l_extendedprice"].to_numpy())
           * (100 - rl._pct(li["l_discount"].to_numpy())))
    promo_parts = set(pt[pt["p_type"] == "PROMO"]["p_partkey"])
    is_promo = li["l_partkey"].isin(promo_parts).to_numpy()
    assert int(got["total_milli"]) == int(rev.sum())
    assert int(got["promo_milli"]) == int(rev[is_promo].sum())
    assert int(got["n_lines"]) == int(m.sum()) > 0
    assert 0 < got["promo_milli"] < got["total_milli"]


def test_small_qty_revenue_recompute(ray_session):
    """Cross-multiplied 20%-of-avg filter == pandas recompute."""
    import pyarrow.parquet as pq

    got = rl.q_small_qty_revenue(SF_DIR).to_pandas().iloc[0]
    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                       columns=["l_partkey", "l_quantity",
                                "l_extendedprice"]).to_pandas()
    pt = pq.read_table(os.path.join(SF_DIR, "part.parquet"),
                       columns=["p_partkey", "p_brand"]).to_pandas()
    brand = set(pt[pt["p_brand"] == rl.Q17_BRAND]["p_partkey"])
    li = li[li["l_partkey"].isin(brand)]
    qty = np.rint(li["l_quantity"].to_numpy()).astype(np.int64)
    cents = rl._cents(li["l_extendedprice"].to_numpy())
    g = li.groupby("l_partkey")["l_quantity"]
    cnt = g.transform("count").to_numpy().astype(np.int64)
    sq = np.rint(g.transform("sum").to_numpy()).astype(np.int64)
    ok = 5 * qty * cnt < sq
    assert int(got["total_cents"]) == int(cents[ok].sum())
    assert int(got["n_lines"]) == int(ok.sum()) > 0


def test_above_avg_idle_customers_recompute(ray_session):
    import pyarrow.parquet as pq

    got = rl.q_above_avg_idle_customers(SF_DIR).to_pandas()
    cu = pq.read_table(os.path.join(SF_DIR, "customer.parquet"),
                       columns=["c_custkey", "c_acctbal",
                                "c_nationkey"]).to_pandas()
    od = pq.read_table(os.path.join(SF_DIR, "orders.parquet"),
                       columns=["o_custkey", "o_orderdate"]).to_pandas()
    lo, hi = np.datetime64(rl.Q22_DATE_LO), np.datetime64(rl.Q22_DATE_HI)
    active = set(od[(od["o_orderdate"].values >= lo)
                    & (od["o_orderdate"].values < hi)]["o_custkey"])
    cents = rl._cents(cu["c_acctbal"].to_numpy())
    n_pos = int((cents > 0).sum())
    sum_pos = int(cents[cents > 0].sum())
    keep = (cents * n_pos > sum_pos) & ~cu["c_custkey"].isin(active).to_numpy()
    want = {}
    for nk, c in zip(cu["c_nationkey"].to_numpy()[keep], cents[keep]):
        n, s = want.get(int(nk), (0, 0))
        want[int(nk)] = (n + 1, s + int(c))
    assert {int(r.c_nationkey): (int(r.n_custs), int(r.total_cents))
            for r in got.itertuples()} == want
    assert len(got) > 0


def test_line_priority_counts_recompute(ray_session):
    import pyarrow.parquet as pq

    got = rl.q_line_priority_counts(SF_DIR).to_pandas()
    li = pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                       columns=["l_orderkey", "l_shipdate",
                                "l_returnflag"]).to_pandas()
    od = pq.read_table(os.path.join(SF_DIR, "orders.parquet"),
                       columns=["o_orderkey", "o_orderdate",
                                "o_orderpriority"]).to_pandas()
    j = li.merge(od, left_on="l_orderkey", right_on="o_orderkey")
    j = j[j["l_shipdate"] > j["o_orderdate"]]
    j["high"] = j["o_orderpriority"].isin(rl.HIGH_PRIORITIES)
    want = {f: (int(g["high"].sum()), int((~g["high"]).sum()))
            for f, g in j.groupby("l_returnflag")}
    assert {r.l_returnflag: (int(r.high_lines), int(r.low_lines))
            for r in got.itertuples()} == want
    assert len(got) > 0


def test_nation_median_order_recompute(ray_session):
    import pyarrow.parquet as pq

    got = rl.q_nation_median_order(SF_DIR).to_pandas()
    od = pq.read_table(os.path.join(SF_DIR, "orders.parquet"),
                       columns=["o_custkey", "o_totalprice"]).to_pandas()
    cu = pq.read_table(os.path.join(SF_DIR, "customer.parquet"),
                       columns=["c_custkey", "c_nationkey"]).to_pandas()
    j = od.merge(cu, left_on="o_custkey", right_on="c_custkey")
    j["cents"] = rl._cents(j["o_totalprice"].to_numpy())
    for nk, g in j.groupby("c_nationkey"):
        c = np.sort(g["cents"].to_numpy())
        row = got[got["c_nationkey"] == nk].iloc[0]
        assert int(row["n_orders"]) == c.size
        assert int(row["median_cents"]) == int(c[(c.size - 1) // 2])
        assert int(row["min_cents"]) == int(c[0])
        assert int(row["max_cents"]) == int(c[-1])
    assert len(got) == j["c_nationkey"].nunique()


def test_fk_audit_clean_and_corrupted(ray_session, tmp_path):
    """Synthetic corpus audits clean; an injected orphan is counted."""
    import shutil

    import pyarrow.parquet as pq

    clean = rl.q_fk_audit(SF_DIR).to_pandas()
    assert len(clean) == 5
    assert (clean["n_orphans"] == 0).all()
    assert (clean["n_child_rows"] > 0).all()

    # corrupt a copy: one lineitem pointing at a nonexistent order
    for t in ["lineitem", "orders", "part", "supplier", "customer",
              "nation"]:
        shutil.copy(os.path.join(SF_DIR, f"{t}.parquet"),
                    os.path.join(str(tmp_path), f"{t}.parquet"))
    li = pq.read_table(os.path.join(str(tmp_path), "lineitem.parquet"))
    bad = li.slice(0, 1).to_pydict()
    bad["l_orderkey"] = [10 ** 12]
    pq.write_table(
        pa.concat_tables([li, pa.table(bad, schema=li.schema)]),
        os.path.join(str(tmp_path), "lineitem.parquet"))
    audit = rl.q_fk_audit(str(tmp_path)).to_pandas()
    row = audit[audit["fk_edge"] == "lineitem->orders"].iloc[0]
    assert int(row["n_orphans"]) == 1


def test_nation_p90_two_pass_exact(ray_session, monkeypatch):
    """Two-pass counting-sort P90 == direct sorted-index recompute,
    and is value-bucket-width independent (width only shifts work
    between the histogram and the pass-2 scan)."""
    import pyarrow.parquet as pq

    def _want():
        od = pq.read_table(os.path.join(SF_DIR, "orders.parquet"),
                           columns=["o_custkey", "o_totalprice"]).to_pandas()
        cu = pq.read_table(os.path.join(SF_DIR, "customer.parquet"),
                           columns=["c_custkey", "c_nationkey"]).to_pandas()
        j = od.merge(cu, left_on="o_custkey", right_on="c_custkey")
        j["cents"] = rl._cents(j["o_totalprice"].to_numpy())
        out = {}
        for nk, g in j.groupby("c_nationkey"):
            c = np.sort(g["cents"].to_numpy())
            out[int(nk)] = (c.size, int(c[(9 * (c.size - 1)) // 10]))
        return out

    want = _want()
    got = rl.q_nation_p90_order(SF_DIR).to_pandas()
    assert {int(r.c_nationkey): (int(r.n_orders), int(r.p90_cents))
            for r in got.itertuples()} == want

    monkeypatch.setattr(rl, "P90_VALUE_BUCKET", np.int64(137))
    tiny = rl.q_nation_p90_order(SF_DIR).to_pandas()
    assert {int(r.c_nationkey): (int(r.n_orders), int(r.p90_cents))
            for r in tiny.itertuples()} == want


def test_bloom_anti_join_plan_equivalence(ray_session):
    """Bloom-prefiltered anti join == plain anti join, and the bloom
    shortcut actually fires (most customers are proven order-less
    without touching the shuffle)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    plain = rl.q_customers_no_orders(SF_DIR).to_pandas() \
        .sort_values("n_name").reset_index(drop=True)
    bloomed = rl.q_customers_no_orders_bloom(SF_DIR).to_pandas() \
        .sort_values("n_name").reset_index(drop=True)
    assert bloomed.equals(plain)
    assert len(plain) > 0

    # recompute the bloom on the driver: some customers must be
    # definite misses (the shuffle-reduction claim)
    lo = np.datetime64(rl.Q5_DATE_LO, "us")
    hi = np.datetime64(rl.Q5_DATE_HI, "us")
    od = pq.read_table(os.path.join(SF_DIR, "orders.parquet"),
                       columns=["o_custkey", "o_orderdate"])
    ts = od.column("o_orderdate").cast(pa.int64()).to_numpy()
    scoped = od.column("o_custkey").to_numpy().astype(np.int64)[
        (ts >= lo.astype(np.int64)) & (ts < hi.astype(np.int64))]
    m = rl.bloom_join_size(np.unique(scoped).size)
    bloom = np.zeros(m, bool)
    bloom[rl._bloom_join_bits(np.unique(scoped), m)] = True
    cu = pq.read_table(os.path.join(SF_DIR, "customer.parquet"),
                       columns=["c_custkey"])
    ck = cu.column("c_custkey").to_numpy().astype(np.int64)
    k = len(rl._BLOOM_JOIN_SALTS)
    maybe = bloom[rl._bloom_join_bits(ck, m).reshape(k, ck.size)] \
        .all(axis=0)
    assert (~maybe).sum() > 0          # shortcut fires
    # no false negatives: every customer WITH a scoped order is 'maybe'
    has_order = np.isin(ck, scoped)
    assert maybe[has_order].all()


def test_order_skyline_random_brute_force(ray_session, tmp_path):
    """Randomized orders (heavy ties in both dims) — two-phase skyline
    == O(n²) dominance check."""
    import datetime as dt

    import pyarrow.parquet as pq

    rng = np.random.default_rng(47)
    n = 800
    prices = rng.integers(10, 40, n) * 1.0         # coarse → many ties
    days = rng.integers(0, 30, n)
    t0 = dt.datetime(2024, 1, 1)
    tab = pa.table({
        "o_orderkey": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "o_totalprice": pa.array(prices, pa.float64()),
        "o_orderdate": pa.array(
            [t0 + dt.timedelta(days=int(x)) for x in days],
            pa.timestamp("us")),
    })
    pq.write_table(tab, os.path.join(str(tmp_path), "orders.parquet"))
    got = sorted(rl.q_order_skyline(str(tmp_path)).to_pandas()
                 ["o_orderkey"].tolist())
    cents = rl._cents(prices)
    keep = []
    for i in range(n):
        dom = ((cents <= cents[i]) & (days <= days[i])
               & ((cents < cents[i]) | (days < days[i]))).any()
        if not dom:
            keep.append(i)
    assert got == keep and len(keep) > 0


def test_waiting_suppliers_group_rule(ray_session, tmp_path):
    """Pathological polarity cases for the Q21 shape: an order with
    TWO late suppliers yields nobody; a single-supplier late order
    yields nobody; only the exactly-one-late multi-supplier 'F' order
    counts (and non-'F' orders never count)."""
    import pyarrow.parquet as pq

    day = 86_400_000_000
    late = (rl.Q21_LATE_DAYS + 10) * day
    t0 = np.datetime64("1996-01-01", "us").astype(np.int64)

    def ts(us):
        return np.array([us], "datetime64[us]")[0].astype("datetime64[us]")

    orders = pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4], pa.int64()),
        "o_custkey": pa.array([1, 1, 1, 1], pa.int64()),
        "o_orderstatus": pa.array(["F", "F", "F", "O"], pa.string()),
        "o_totalprice": pa.array([1.0] * 4, pa.float64()),
        "o_orderdate": pa.array(
            np.full(4, t0).astype("datetime64[us]")),
        "o_orderpriority": pa.array(["1-URGENT"] * 4, pa.string()),
    })
    li_rows = [
        # order 1: suppliers 10 (late), 11 (on time)  -> supplier 10 counts
        (1, 10, t0 + late), (1, 11, t0 + day),
        # order 2: suppliers 10, 11 both late         -> nobody
        (2, 10, t0 + late), (2, 11, t0 + late),
        # order 3: single supplier 12, late           -> nobody (no coworker)
        (3, 12, t0 + late),
        # order 4: status 'O', supplier 10 late among two -> nobody
        (4, 10, t0 + late), (4, 13, t0 + day),
    ]
    lineitem = pa.table({
        "l_orderkey": pa.array([r[0] for r in li_rows], pa.int64()),
        "l_suppkey": pa.array([r[1] for r in li_rows], pa.int64()),
        "l_shipdate": pa.array(
            np.array([r[2] for r in li_rows], np.int64)
            .astype("datetime64[us]")),
    })
    supplier = pa.table({
        "s_suppkey": pa.array([10, 11, 12, 13], pa.int64()),
        "s_name": pa.array([f"SUPP_{i}" for i in (10, 11, 12, 13)],
                           pa.string()),
        "s_nationkey": pa.array([0, 0, 0, 0], pa.int32()),
        "s_acctbal": pa.array([0.0] * 4, pa.float64()),
    })
    d = str(tmp_path)
    pq.write_table(orders, os.path.join(d, "orders.parquet"))
    pq.write_table(lineitem, os.path.join(d, "lineitem.parquet"))
    pq.write_table(supplier, os.path.join(d, "supplier.parquet"))
    out = rl.q_waiting_suppliers(d).to_pydict()
    assert out["s_name"] == ["SUPP_10"]
    assert out["numwait"] == [1]


def test_top_orders_per_customer_rank_semantics(ray_session):
    """Every customer keeps <= N rows, ranks are 1..k dense, and rank 1
    is that customer's max-cents order with orderkey tie-break."""
    df = rl.q_top_orders_per_customer(SF_DIR).to_pandas()
    g = df.groupby("c_custkey")
    assert int(g.size().max()) <= rl.TOPN_PER_CUSTOMER
    for _, grp in list(g)[:50]:
        grp = grp.sort_values("rnk")
        assert grp["rnk"].tolist() == list(range(1, len(grp) + 1))
        top = grp.iloc[0]
        rest = grp.iloc[1:]
        assert (rest["total_cents"] < top["total_cents"]).all() or (
            (rest["total_cents"] <= top["total_cents"]).all()
            and (rest[rest["total_cents"] == top["total_cents"]]
                 ["o_orderkey"] > top["o_orderkey"]).all())


def test_orders_cube_lattice_consistency(ray_session):
    """Every rolled-up level must re-aggregate exactly from the base
    level, and the grand total must equal the order count."""
    import pyarrow.parquet as pq

    df = rl.q_orders_cube(SF_DIR).to_pandas()
    base = df[(df["o_orderstatus"] != rl.CUBE_ALL)
              & (df["o_orderpriority"] != rl.CUBE_ALL)]
    by_status = df[(df["o_orderstatus"] != rl.CUBE_ALL)
                   & (df["o_orderpriority"] == rl.CUBE_ALL)]
    by_prio = df[(df["o_orderstatus"] == rl.CUBE_ALL)
                 & (df["o_orderpriority"] != rl.CUBE_ALL)]
    total = df[(df["o_orderstatus"] == rl.CUBE_ALL)
               & (df["o_orderpriority"] == rl.CUBE_ALL)]
    want = base.groupby("o_orderstatus")["n_orders"].sum()
    got = by_status.set_index("o_orderstatus")["n_orders"]
    assert got.sort_index().equals(want.sort_index())
    want_c = base.groupby("o_orderpriority")["total_cents"].sum()
    got_c = by_prio.set_index("o_orderpriority")["total_cents"]
    assert got_c.sort_index().equals(want_c.sort_index())
    n = pq.read_table(os.path.join(SF_DIR, "orders.parquet"),
                      columns=["o_orderkey"]).num_rows
    assert len(total) == 1 and int(total["n_orders"].iloc[0]) == n


def test_order_global_rank_is_permutation(ray_session):
    """Ranks are exactly 1..N, and rank order matches
    (cents desc, orderkey asc) — block-count independent."""
    df = rl.q_order_global_rank(SF_DIR, num_blocks=5).to_pandas()
    n = len(df)
    assert sorted(df["rnk"].tolist()) == list(range(1, n + 1))
    df = df.sort_values("rnk")
    c = df["total_cents"].to_numpy()
    k = df["o_orderkey"].to_numpy()
    assert ((c[:-1] > c[1:]) | ((c[:-1] == c[1:]) & (k[:-1] < k[1:]))).all()
    df2 = rl.q_order_global_rank(SF_DIR, num_blocks=17).to_pandas() \
        .sort_values("rnk")
    assert df2["o_orderkey"].tolist() == df["o_orderkey"].tolist()


def test_stratified_budget_sums_and_fairness(ray_session):
    """Allocation sums to the budget exactly and never misses a
    stratum's proportional share by more than one unit."""
    t = rl.q_stratified_budget(SF_DIR).to_pandas()
    B = rl.STRAT_BUDGET
    total = int(t["n_docs"].sum())
    assert int(t["alloc"].sum()) == B
    lo = (B * t["n_docs"]) // total
    assert ((t["alloc"] == lo) | (t["alloc"] == lo + 1)).all()


def _li(cols):
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(SF_DIR, "lineitem.parquet"),
                         columns=cols).to_pandas()


def test_forecast_revenue_recompute(ray_session):
    df = rl.q_forecast_revenue(SF_DIR).to_pandas()
    li = _li(["l_shipdate", "l_quantity", "l_discount", "l_extendedprice"])
    sd = li["l_shipdate"].to_numpy().astype("datetime64[us]")
    qty = rl._cents(li["l_quantity"].to_numpy()) // 100
    disc = rl._pct(li["l_discount"].to_numpy())
    keep = ((sd >= np.datetime64(rl.Q6_SHIP_LO)) &
            (sd < np.datetime64(rl.Q6_SHIP_HI)) &
            (qty < rl.Q6_MAX_QTY) & np.isin(disc, list(rl.Q6_DISC_PCTS)))
    ext = rl._cents(li["l_extendedprice"].to_numpy()[keep])
    assert int(df["revenue_e4"].iloc[0]) == int((ext * disc[keep]).sum())
    assert int(df["n_lines"].iloc[0]) == int(keep.sum())


def test_top_supplier_revenue_ties_and_max(ray_session):
    t = rl.q_top_supplier_revenue(SF_DIR).to_pandas()
    assert len(t) >= 1
    assert t["revenue_e4"].nunique() == 1  # every kept row attains the max
    li = _li(["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"])
    sd = li["l_shipdate"].to_numpy().astype("datetime64[us]")
    keep = ((sd >= np.datetime64(rl.Q15_SHIP_LO)) &
            (sd < np.datetime64(rl.Q15_SHIP_HI)))
    rev = (rl._cents(li["l_extendedprice"].to_numpy()[keep])
           * (100 - rl._pct(li["l_discount"].to_numpy()[keep])))
    import pandas as pd

    per = pd.DataFrame({"s": li["l_suppkey"].to_numpy()[keep],
                        "r": rev}).groupby("s")["r"].sum()
    assert int(t["revenue_e4"].iloc[0]) == int(per.max())
    assert sorted(t["s_suppkey"].tolist()) == \
        sorted(per[per == per.max()].index.tolist())


def test_min_price_supplier_groupwise_min(ray_session):
    t = rl.q_min_price_supplier(SF_DIR).to_pandas()
    assert len(t) > 0
    # within each part every kept supplier attains one shared minimum
    assert (t.groupby("p_partkey")["min_cents"].nunique() == 1).all()
    # brute force one part end-to-end
    import pyarrow.parquet as pq

    part = pq.read_table(os.path.join(SF_DIR, "part.parquet")).to_pandas()
    typed = set(part[part["p_type"] == rl.Q2_PART_TYPE]["p_partkey"])
    assert set(t["p_partkey"]) <= typed
    p0 = int(t["p_partkey"].iloc[0])
    li = _li(["l_partkey", "l_suppkey", "l_extendedprice"])
    sup = pq.read_table(os.path.join(SF_DIR, "supplier.parquet")).to_pandas()
    nat = pq.read_table(os.path.join(SF_DIR, "nation.parquet")).to_pandas()
    reg = pq.read_table(os.path.join(SF_DIR, "region.parquet")).to_pandas()
    rkey = set(reg[reg["r_name"] == rl.Q2_REGION]["r_regionkey"])
    nkeys = set(nat[nat["n_regionkey"].isin(rkey)]["n_nationkey"])
    skeys = set(sup[sup["s_nationkey"].isin(nkeys)]["s_suppkey"])
    sub = li[(li["l_partkey"] == p0) & (li["l_suppkey"].isin(skeys))]
    cents = rl._cents(sub["l_extendedprice"].to_numpy())
    want_min = int(cents.min())
    assert int(t[t["p_partkey"] == p0]["min_cents"].iloc[0]) == want_min
    want_supps = sorted(set(sub["l_suppkey"].to_numpy()[cents == want_min]))
    assert sorted(t[t["p_partkey"] == p0]["s_suppkey"]) == want_supps


def test_disjunctive_revenue_recompute(ray_session):
    import pyarrow.parquet as pq

    df = rl.q_disjunctive_revenue(SF_DIR).to_pandas()
    part = pq.read_table(os.path.join(SF_DIR, "part.parquet")).to_pandas()
    li = _li(["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
    m = li.merge(part[["p_partkey", "p_brand", "p_size"]],
                 left_on="l_partkey", right_on="p_partkey")
    qty = rl._cents(m["l_quantity"].to_numpy()) // 100
    keep = np.zeros(len(m), bool)
    for b, mx, qlo, qhi in rl.Q19_DISJUNCTS:
        keep |= ((m["p_brand"] == b).to_numpy()
                 & (m["p_size"].to_numpy() >= 1)
                 & (m["p_size"].to_numpy() <= mx)
                 & (qty >= qlo) & (qty <= qhi))
    rev = (rl._cents(m["l_extendedprice"].to_numpy()[keep])
           * (100 - rl._pct(m["l_discount"].to_numpy()[keep])))
    assert int(df["revenue_e4"].iloc[0]) == int(rev.sum())
    assert int(df["n_lines"].iloc[0]) == int(keep.sum())


def test_nation_profit_recompute(ray_session):
    import pyarrow.parquet as pq

    t = rl.q_nation_profit(SF_DIR).to_pandas()
    assert len(t) > 0
    part = pq.read_table(os.path.join(SF_DIR, "part.parquet")).to_pandas()
    part = part[part["p_name"].str.contains(rl.Q9_NAME_SUBSTR)]
    li = _li(["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice",
              "l_discount", "l_quantity"])
    sup = pq.read_table(os.path.join(SF_DIR, "supplier.parquet")).to_pandas()
    nat = pq.read_table(os.path.join(SF_DIR, "nation.parquet")).to_pandas()
    orders = pq.read_table(os.path.join(SF_DIR, "orders.parquet"),
                           columns=["o_orderkey", "o_orderdate"]).to_pandas()
    m = (li.merge(part[["p_partkey", "p_retailprice"]],
                  left_on="l_partkey", right_on="p_partkey")
           .merge(sup[["s_suppkey", "s_nationkey"]],
                  left_on="l_suppkey", right_on="s_suppkey")
           .merge(nat[["n_nationkey", "n_name"]],
                  left_on="s_nationkey", right_on="n_nationkey")
           .merge(orders, left_on="l_orderkey", right_on="o_orderkey"))
    profit = (rl._cents(m["l_extendedprice"].to_numpy())
              * (100 - rl._pct(m["l_discount"].to_numpy()))
              - rl._cents(m["p_retailprice"].to_numpy())
              * (rl._cents(m["l_quantity"].to_numpy()) // 100) * 100)
    m = m.assign(profit=profit,
                 o_year=m["o_orderdate"].dt.year.astype("int64"))
    want = (m.groupby(["n_name", "o_year"])["profit"].agg(["sum", "count"])
             .reset_index())
    got = t.set_index(["n_name", "o_year"]).sort_index()
    want = want.set_index(["n_name", "o_year"]).sort_index()
    assert got.index.tolist() == want.index.tolist()
    assert got["profit_e4"].tolist() == want["sum"].tolist()
    assert got["n_lines"].tolist() == want["count"].tolist()


def test_copurchase_pairs_brute_force(ray_session):
    t = rl.q_copurchase_pairs(SF_DIR).to_pandas()
    li = _li(["l_orderkey", "l_partkey"]).drop_duplicates()
    from collections import Counter
    from itertools import combinations

    cnt = Counter()
    for _, g in li.groupby("l_orderkey"):
        for a, b in combinations(sorted(g["l_partkey"]), 2):
            cnt[(a, b)] += 1
    want = sorted(((-n, a, b) for (a, b), n in cnt.items()))[:rl.COPURCHASE_TOPK]
    got = list(zip(-t["n_orders"].to_numpy(), t["p1"].to_numpy(),
                   t["p2"].to_numpy()))
    assert got == want


def test_association_rules_brute_force(ray_session):
    t = rl.q_association_rules(SF_DIR).to_pandas()
    li = _li(["l_orderkey", "l_partkey"]).drop_duplicates()
    from collections import Counter
    from itertools import combinations

    isup = li.groupby("l_partkey").size().to_dict()
    n_orders = li["l_orderkey"].nunique()
    pair = Counter()
    for _, g in li.groupby("l_orderkey"):
        for a, b in combinations(sorted(g["l_partkey"]), 2):
            pair[(a, b)] += 1
    want = []
    for (a, b), n in pair.items():
        if n < rl.RULE_MIN_SUPPORT:
            continue
        for x, y in ((a, b), (b, a)):
            if rl.RULE_CONF_DEN * n >= rl.RULE_CONF_NUM * isup[x]:
                want.append((x, y, n, isup[x], n * n_orders,
                             isup[x] * isup[y]))
    got = sorted(zip(t["antecedent"], t["consequent"], t["pair_support"],
                     t["antecedent_support"], t["lift_num"], t["lift_den"]))
    assert got == sorted(want)
    assert len(got) > 0


def _basket_lineitem(tmp_path) -> str:
    """A lineitem table of (order, part) baskets built so that pairs
    clear, meet and miss item_cosine_pairs' rules: (1, 2) together in 6
    orders (cos² = 1); (1, 3) and (2, 3) in 3 orders with part 3 in 34
    more (cos² < 1/8); (4, 5) at the support floor of 3; (4, 6) below it (2 orders);
    (7, 8) at exactly cos² = 1/8 (8·3² = 6·12); (9, 10) just under it
    (6·13 > 72). Order 1 lists part 1 twice."""
    import pyarrow.parquet as pq

    rows = [(1, 1)]
    rows += [(o, p) for o in range(1, 7) for p in (1, 2)]
    rows += [(o, 3) for o in range(1, 4)] + [(o, 3) for o in range(7, 41)]
    rows += [(o, p) for o in range(41, 44) for p in (4, 5)]
    rows += [(o, p) for o in (44, 45) for p in (4, 6)]
    rows += [(o, p) for o in range(50, 53) for p in (7, 8)]
    rows += [(o, 7) for o in range(53, 56)] + [(o, 8) for o in range(56, 65)]
    rows += [(o, p) for o in range(70, 73) for p in (9, 10)]
    rows += [(o, 9) for o in range(73, 76)] + [(o, 10) for o in range(76, 86)]
    ok, pk = zip(*rows)
    pq.write_table(pa.table({"l_orderkey": pa.array(ok, pa.int64()),
                             "l_partkey": pa.array(pk, pa.int64())}),
                   os.path.join(tmp_path, "lineitem.parquet"))
    return str(tmp_path)


def test_item_cosine_pairs_nonempty_matches_oracle(ray_session, tmp_path):
    """item_cosine_pairs is empty on the sf fixtures; on baskets that
    exercise its support floor and its cos² >= 1/8 bound it returns
    rows equal to its DuckDB oracle."""
    import duckdb

    import __ray_entry__ as m

    sf = _basket_lineitem(tmp_path)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"'{os.path.join(sf, 'lineitem.parquet')}'")
    cols = ["p1", "p2", "n_orders", "sup_a", "sup_b"]
    want = con.sql(m.oracle_sql()["item_cosine_pairs"]).df()
    got = m.queries()["item_cosine_pairs"](sf).to_pandas()
    assert list(got.columns) == cols
    rows = sorted(map(tuple, got[cols].astype("int64").values.tolist()))
    assert rows == sorted(map(tuple, want[cols].astype("int64")
                              .values.tolist()))
    assert rows == [(1, 2, 6, 6, 6), (4, 5, 3, 5, 3), (7, 8, 3, 6, 12)]


def test_record_orders_brute_force_and_block_invariance(ray_session):
    a = rl.q_record_orders(SF_DIR, num_blocks=3).to_pandas() \
        .sort_values("o_orderkey").reset_index(drop=True)
    b = rl.q_record_orders(SF_DIR, num_blocks=29).to_pandas() \
        .sort_values("o_orderkey").reset_index(drop=True)
    assert a.equals(b)
    import pyarrow.parquet as pq

    o = pq.read_table(os.path.join(SF_DIR, "orders.parquet"),
                      columns=["o_orderkey", "o_orderdate",
                               "o_totalprice"]).to_pandas()
    o["c"] = rl._cents(o["o_totalprice"].to_numpy())
    o = o.sort_values(["o_orderdate", "o_orderkey"], kind="mergesort")
    best = -1
    want = []
    for r in o.itertuples():
        if r.c > best:
            want.append((int(r.o_orderkey), int(r.c), max(best, 0)))
            best = int(r.c)
    got = sorted(zip(a["o_orderkey"], a["total_cents"], a["prev_max_cents"]))
    # records arrive in ascending-cents order, so sorting by key==by time
    assert sorted(want) == got
    assert len(got) >= 2


def test_nation_ivm_maintenance_never_reads_base(ray_session, tmp_path):
    """The IVM property: after the base view is built, deleting the
    even-orderkey half of the fact table must not change maintenance —
    the fold reads only state + delta."""
    import shutil

    import pyarrow.parquet as pq

    src = os.path.join(SF_DIR, "orders.parquet")
    work = tmp_path / "sf"
    work.mkdir()
    for f in os.listdir(SF_DIR):
        if f.endswith(".parquet"):
            os.symlink(os.path.join(SF_DIR, f), work / f)
    base = rl.build_nation_view(str(work), str(tmp_path / "base"), parity=0)
    # replace orders with ONLY the odd half (the delta)
    t = pq.read_table(src)
    odd = t.filter(pa.compute.equal(
        pa.compute.bit_wise_and(t.column("o_orderkey"), 1), 1))
    os.remove(work / "orders.parquet")
    pq.write_table(odd, work / "orders.parquet")
    cur = rl.maintain_nation_view(base, str(work), str(tmp_path / "gen1"),
                                  parity=1)
    import ray.data

    got = ray.data.read_parquet(
        [os.path.join(cur, f) for f in os.listdir(cur)
         if f.endswith(".parquet")]).to_pandas() \
        .sort_values(["n_name", "o_orderstatus"]).reset_index(drop=True)
    want = rl.q_nation_order_stats(SF_DIR).to_pandas() \
        .sort_values(["n_name", "o_orderstatus"]).reset_index(drop=True)
    assert got[["n_name", "o_orderstatus", "n_orders", "total_cents"]] \
        .equals(want[["n_name", "o_orderstatus", "n_orders", "total_cents"]])


def test_median_interp_and_mode_brute_force(ray_session):
    """Interpolated median and grouped mode equal pandas recomputation
    at sf0.001 (incl. the even-count mean and the tie-break)."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines import relational as rl

    sf = "/root/testdata/sf0.001"
    o = pq.read_table(sf + "/orders.parquet").to_pandas()
    c = pq.read_table(sf + "/customer.parquet").to_pandas()
    j = o.merge(c, left_on="o_custkey", right_on="c_custkey")
    j["cents"] = np.round(j["o_totalprice"] * 100).astype(np.int64)

    got = rl.q_nation_median_interp(sf).to_pandas().set_index("c_nationkey")
    for nk, grp in j.groupby("c_nationkey"):
        v = np.sort(grp["cents"].to_numpy())
        want = int(v[(v.size - 1) // 2]) + int(v[v.size // 2])
        assert int(got.loc[nk, "median2_cents"]) == want
        assert int(got.loc[nk, "n_orders"]) == v.size

    gm = rl.q_nation_mode_priority(sf).to_pandas().set_index("c_nationkey")
    for nk, grp in j.groupby("c_nationkey"):
        cnt = grp.groupby("o_orderpriority").size()
        best = sorted(cnt.items(), key=lambda t: (-t[1], t[0]))[0]
        assert gm.loc[nk, "mode_priority"] == best[0]
        assert int(gm.loc[nk, "n_orders_mode"]) == best[1]


class TestPartSupplierShapes:
    def test_important_parts_threshold_semantics(self, ray_session):
        from ray.data.aggregate import Sum

        from candidategeneration_ray.pipelines.relational import (
            IMPORTANT_PART_PPM, q_important_parts)

        sf = "/root/testdata/sf0.01"
        got = q_important_parts(sf).to_pandas()
        assert 0 < len(got) < 2000                  # a real subset
        # every kept part clears the fraction against the GLOBAL total
        import duckdb
        total = duckdb.sql(f"""
            SELECT sum(CAST(round(l_extendedprice*100) AS BIGINT)
                       * (100 - CAST(round(l_discount*100) AS BIGINT)))
            FROM '{sf}/lineitem.parquet'""").fetchone()[0]
        assert (got["revenue_milli"].to_numpy(np.int64).astype(object)
                * 1_000_000 > total * IMPORTANT_PART_PPM).all()

    def test_dominant_suppliers_rule(self, ray_session):
        from candidategeneration_ray.pipelines.relational import (
            DOMINANT_SUPP_MULT, q_dominant_suppliers)

        sf = "/root/testdata/sf0.001"
        got = q_dominant_suppliers(sf).to_pandas()
        assert len(got) > 0
        assert (got["n_parts"] >= 1).all()
        # brute-force replica
        import duckdb
        want = duckdb.sql(f"""
            WITH pq AS (SELECT l_partkey, l_suppkey,
                               sum(CAST(l_quantity AS BIGINT)) q
                        FROM '{sf}/lineitem.parquet' GROUP BY 1, 2),
            pt AS (SELECT l_partkey, sum(q) t FROM pq GROUP BY 1)
            SELECT l_suppkey, count(*) n FROM pq JOIN pt USING (l_partkey)
            WHERE {DOMINANT_SUPP_MULT} * q > t GROUP BY 1 ORDER BY 1""").df()
        g = got.sort_values("s_suppkey").reset_index(drop=True)
        assert g["s_suppkey"].tolist() == want["l_suppkey"].tolist()
        assert g["n_parts"].tolist() == want["n"].tolist()


class TestBenford:
    def test_digits_complete_and_exact(self, ray_session):
        import duckdb

        from candidategeneration_ray.pipelines.relational import (
            q_benford_digits)

        sf = "/root/testdata/sf0.01"
        got = (q_benford_digits(sf).to_pandas()
               .sort_values("digit").reset_index(drop=True))
        assert got["digit"].tolist() == list(range(1, 10))
        want = duckdb.sql(f"""
            SELECT CAST(substr(CAST(CAST(round(o_totalprice*100) AS BIGINT)
                               AS VARCHAR), 1, 1) AS BIGINT) d,
                   count(*) n
            FROM '{sf}/orders.parquet'
            WHERE round(o_totalprice*100) > 0 GROUP BY 1 ORDER BY 1""").df()
        assert got["n_orders"].tolist() == want["n"].tolist()
        assert got["n_orders"].sum() == 15000
