"""General relational operators over the TPC-H-shaped tables — the
engine's generic warehouse surface beside the IR core: an integer-exact
pricing summary (scan + group-aggregate with predicate pushdown at the
read), a distributed bucketed hash equi-join (the general two-large-
tables shape; the small-side broadcast join the engine already uses
everywhere is the documented alternative), and a join-free top-k spend
aggregation.

All money arithmetic is integer cents with DuckDB round() semantics
(half away from zero, the events-pipeline convention) so the oracle
hash compare is exact — float summation order never matters.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum

from candidategeneration_ray.functions.groups import group_sum, run_starts
from candidategeneration_ray.functions.keys import bucket_of, pack_pair, unpack_pair
from candidategeneration_ray.functions.tableutil import sized_read, table_buckets

# Q1-style shipdate cutoff (synthetic corpus dates span 1995-2001).
PRICING_CUTOFF = "1998-09-01"
TOP_CUSTOMERS = 20


def _cents(values: np.ndarray) -> np.ndarray:
    """value -> integer cents, DuckDB round() semantics (the one
    shared kernel, functions/money.py)."""
    from candidategeneration_ray.functions.money import round_scaled

    return round_scaled(values)


# fraction -> integer percent: the same rounding rule, same kernel
_pct = _cents


def q_pricing_summary(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q1-shaped pricing summary, integer-exact: per
    (l_returnflag, l_linestatus) over rows with l_shipdate <= cutoff:

        n_rows, sum_qty (integer quantities),
        sum_base_cents            = sum(cents(extendedprice))
        sum_disc_milli            = sum(cents(price) * (100 - disc_pct))
        sum_charge_micro          = sum(cents(price) * (100 - disc_pct)
                                                     * (100 + tax_pct))

    Shape: the shipdate predicate and the 7-column projection push down
    into the parquet read (row groups that miss the cutoff never leave
    storage); per-batch partials compress to one row per (flag, status)
    before the O(groups) groupby. int64 bound: cents < 2^33 per row,
    charge < 2^47 per row — 10^12 rows would move the milli/micro sums
    past int64, so at that scale the partials split the sum into
    (count, sum) pairs per 10^9-row partition or use decimal128;
    documented, not needed at bench scale."""
    import pyarrow.compute as pc

    cutoff = np.datetime64(PRICING_CUTOFF, "us")

    def _partial(batch: pa.Table) -> pa.Table:
        flag = np.asarray(batch.column("l_returnflag").to_pylist(), object)
        stat = np.asarray(batch.column("l_linestatus").to_pylist(), object)
        qty = _cents(batch.column("l_quantity").to_numpy()) // 100
        price = _cents(batch.column("l_extendedprice").to_numpy())
        disc = _pct(batch.column("l_discount").to_numpy())
        tax = _pct(batch.column("l_tax").to_numpy())
        disc_m = price * (100 - disc)
        charge_u = disc_m * (100 + tax)
        key = np.asarray([f + "\x00" + s for f, s in zip(flag, stat)], object)
        u, n, sq, sp, sd, sc = group_sum(
            key, np.ones(len(key), np.int64), qty, price, disc_m, charge_u)
        return pa.table({
            "l_returnflag": pa.array([k.split("\x00")[0] for k in u], pa.string()),
            "l_linestatus": pa.array([k.split("\x00")[1] for k in u], pa.string()),
            "n_rows": pa.array(n, pa.int64()),
            "sum_qty": pa.array(sq, pa.int64()),
            "sum_base_cents": pa.array(sp, pa.int64()),
            "sum_disc_milli": pa.array(sd, pa.int64()),
            "sum_charge_micro": pa.array(sc, pa.int64()),
        })

    ds = sized_read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"], filter=(pc.field("l_shipdate") <= pa.scalar(
            cutoff, pa.timestamp("us"))),
    )
    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_cents", alias_name="sum_base_cents"),
            Sum("sum_disc_milli", alias_name="sum_disc_milli"),
            Sum("sum_charge_micro", alias_name="sum_charge_micro"),
        )
    )


def _hot_probe_keys(sf_dir: str, hot_k: int) -> np.ndarray:
    """The hot_k most frequent probe-side keys (ties by key asc),
    detected with compressed per-batch partials -> one small groupby ->
    dataset-side sort/limit. At 100 TB the standard variant samples the
    probe side instead of counting it exactly; the plumbing (broadcast
    sorted hot array, dedicated salt buckets) is identical."""
    def _partial(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        u, cnt = np.unique(ck, return_counts=True)
        return pa.table({"key": pa.array(u, pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64), pa.int64())})

    rows = (
        sized_read(sf_dir, "orders", ["o_custkey"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("key").aggregate(Sum("cnt", alias_name="cnt"))
        .sort(key=["cnt", "key"], descending=[True, False])
        .limit(hot_k)
        .take_all()
    )
    return np.sort(np.array([r["key"] for r in rows], dtype=np.int64))


def q_nation_order_stats(sf_dir: str, hot_k: int = 0,
                         salt_shards: int = 8) -> ray.data.Dataset:
    """Distributed hash equi-join orders JOIN customer ON custkey,
    aggregated per (nation name, order status): order count + total
    cents.

    Shape: the GENERAL two-large-tables join — both sides bucket by
    custkey hash (union-tag trick, same machinery as the PageRank
    scatter), one groupby(bucket) co-locates each key's rows, and the
    in-bucket probe is one sort + one searchsorted (build side =
    customer rows in the bucket, unique on the PK). The 25-row nation
    dim is a broadcast lookup, and the output shuffle carries one
    compressed partial row per (nation, status) per bucket. When one
    side fits memory the broadcast join (ray.put + map_batches, used
    all over the engine) is the cheaper plan; this entry keeps the
    shuffle-join path exercised.

    MONSTER-KEY SALTING (hot_k > 0): the hot_k most frequent probe
    keys each get `salt_shards` DEDICATED buckets past the base range;
    their (unique, PK) build row is replicated to all of them and their
    probe rows spread round-robin, so no single task ever holds a hot
    key's full probe stream — the skew ceiling drops from
    max_key_count to max_key_count/salt_shards. Cold keys are
    untouched, and the result is bit-identical (same oracle SQL)."""
    import pyarrow.parquet as pq

    nb = table_buckets(sf_dir, "orders", "customer")
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    nk = nation.column("n_nationkey").to_numpy().astype(np.int64)
    nnames = np.asarray(nation.column("n_name").to_pylist(), object)
    order = np.argsort(nk)
    nation_ref = ray.put((nk[order], nnames[order]))
    hot = _hot_probe_keys(sf_dir, hot_k) if hot_k else np.empty(0, np.int64)
    hot_ref = ray.put(hot)

    def _hot_index(ck: np.ndarray, hk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if hk.size == 0:
            return np.zeros(ck.size, bool), np.empty(0, np.int64)
        pos = np.minimum(np.searchsorted(hk, ck), hk.size - 1)
        ishot = hk[pos] == ck
        return ishot, pos[ishot]

    def _order_rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        bkt = ck % nb
        ishot, hidx = _hot_index(ck, ray.get(hot_ref))
        if ishot.any():  # spread a hot key's probe rows round-robin
            salt = np.arange(ishot.sum(), dtype=np.int64) % salt_shards
            bkt[ishot] = nb + hidx * salt_shards + salt
        return pa.table({
            "bkt": pa.array(bkt, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "nationkey": pa.array(np.full(ck.size, -1, np.int64), pa.int64()),
            "status": batch.column("o_orderstatus"),
            "cents": pa.array(_cents(batch.column("o_totalprice").to_numpy()),
                              pa.int64()),
        })

    def _cust_rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        natk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        bkt = ck % nb
        ishot, hidx = _hot_index(ck, ray.get(hot_ref))
        # cold rows keep their base bucket; each hot build row (unique
        # on the PK) is replicated to all of its salt buckets instead
        cold = ~ishot
        rep_ck = np.repeat(ck[ishot], salt_shards)
        rep_nk = np.repeat(natk[ishot], salt_shards)
        rep_bkt = nb + np.repeat(hidx, salt_shards) * salt_shards \
            + np.tile(np.arange(salt_shards, dtype=np.int64), int(ishot.sum()))
        out_ck = np.concatenate((ck[cold], rep_ck))
        out_nk = np.concatenate((natk[cold], rep_nk))
        out_bkt = np.concatenate((bkt[cold], rep_bkt))
        return pa.table({
            "bkt": pa.array(out_bkt, pa.int64()),
            "key": pa.array(out_ck, pa.int64()),
            "nationkey": pa.array(out_nk, pa.int64()),
            "status": pa.array([""] * out_ck.size, pa.string()),
            "cents": pa.array(np.zeros(out_ck.size, np.int64), pa.int64()),
        })

    def _probe(group: pa.Table) -> pa.Table:
        nko, nname = ray.get(nation_ref)
        key = group.column("key").to_numpy().astype(np.int64)
        natk = group.column("nationkey").to_numpy().astype(np.int64)
        cents = group.column("cents").to_numpy().astype(np.int64)
        status = np.asarray(group.column("status").to_pylist(), object)
        build = natk >= 0
        bk = key[build]
        bn = natk[build]
        o = np.argsort(bk)
        bk, bn = bk[o], bn[o]
        pk = key[~build]
        idx = np.searchsorted(bk, pk)
        if bk.size:
            idx[idx == bk.size] = 0
            hit = bk[idx] == pk
        else:
            hit = np.zeros(pk.size, bool)  # inner join: drop orphans
        nat = bn[idx[hit]]
        nm = nname[np.searchsorted(nko, nat)]
        st = status[~build][hit]
        cn = cents[~build][hit]
        pkey = np.asarray([a + "\x00" + b for a, b in zip(nm, st)], object)
        u, n, c = group_sum(pkey, np.ones(len(pkey), np.int64), cn)
        return pa.table({
            "n_name": pa.array([k.split("\x00")[0] for k in u], pa.string()),
            "o_orderstatus": pa.array([k.split("\x00")[1] for k in u],
                                      pa.string()),
            "n_orders": pa.array(n, pa.int64()),
            "total_cents": pa.array(c, pa.int64()),
        })

    orders = sized_read(sf_dir, "orders", ["o_custkey", "o_orderstatus", "o_totalprice"]).map_batches(_order_rows, batch_format="pyarrow")
    cust = sized_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(_cust_rows, batch_format="pyarrow")
    return (
        orders.union(cust)
        .groupby("bkt").map_groups(_probe, batch_format="pyarrow")
        .groupby(["n_name", "o_orderstatus"])
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("total_cents", alias_name="total_cents"))
    )


def q_top_customers(sf_dir: str, k: int = TOP_CUSTOMERS) -> pa.Table:
    """Top-k customers by total order spend (cents), ties by custkey
    asc: per-batch compressed partials -> groupby(custkey).sum ->
    dataset-side sort + limit, so the driver sees k rows."""
    def _partial(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        cents = _cents(batch.column("o_totalprice").to_numpy())
        u, c, n = group_sum(ck, cents, np.ones(ck.size, np.int64))
        return pa.table({
            "o_custkey": pa.array(u, pa.int64()),
            "total_cents": pa.array(c, pa.int64()),
            "n_orders": pa.array(n, pa.int64()),
        })

    top = (
        sized_read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("total_cents", alias_name="total_cents"),
                   Sum("n_orders", alias_name="n_orders"))
        .sort(key=["total_cents", "o_custkey"], descending=[True, False])
        .limit(k)
    )
    return pa.Table.from_pandas(top.to_pandas(), preserve_index=False)


Q3_SEGMENT = "BUILDING"
Q3_CUTOFF = "1998-01-01"
Q3_TOPK = 10


def q_shipping_priority(sf_dir: str, k: int = Q3_TOPK) -> pa.Table:
    """TPC-H-Q3-shaped shipping-priority query: top-k undelivered
    orders of one market segment by revenue —

        customer(segment) ⋈ orders(date < cutoff)
                          ⋈ lineitem(shipdate > cutoff)
        group by order, revenue_milli = Σ cents(price)·(100 − disc_pct)

    The MULTI-JOIN composition shape: both predicates and projections
    push into the parquet reads; join 1 (custkey) is a bucketed
    union-tag SEMI join that only forwards qualifying order headers;
    lineitem compresses to one partial-revenue row per (batch,
    orderkey) BEFORE join 2 (orderkey), so the second shuffle carries
    aggregates, not lineitems; the final top-k is a dataset-side
    sort + limit — the driver sees k rows."""
    import pyarrow.compute as pc

    nb = table_buckets(sf_dir, "customer", "orders", "lineitem")
    cutoff = np.datetime64(Q3_CUTOFF, "us")

    def _cust_rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "okey": pa.array(np.full(ck.size, -1, np.int64), pa.int64()),
            "odate_us": pa.array(np.zeros(ck.size, np.int64), pa.int64()),
            "oprio": pa.array([""] * ck.size, pa.string()),
        })

    def _order_rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "okey": pa.array(
                batch.column("o_orderkey").to_numpy().astype(np.int64),
                pa.int64()),
            "odate_us": pa.array(
                batch.column("o_orderdate").cast(pa.int64()).to_numpy(),
                pa.int64()),
            "oprio": batch.column("o_orderpriority"),
        })

    def _semi(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        key = group.column("key").to_numpy().astype(np.int64)
        build = np.sort(key[okey == -1])  # segment custkeys (unique PK)
        probe = okey != -1
        pk = key[probe]
        if build.size:
            idx = np.minimum(np.searchsorted(build, pk), build.size - 1)
            hit = build[idx] == pk
        else:
            hit = np.zeros(pk.size, bool)
        sel = np.flatnonzero(probe)[hit]
        return group.select(["okey", "odate_us", "oprio"]).take(sel)

    cust = sized_read(sf_dir, "customer", ["c_custkey", "c_mktsegment"], filter=pc.equal(pc.field("c_mktsegment"), Q3_SEGMENT),
    ).map_batches(_cust_rows, batch_format="pyarrow")
    orders = sized_read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"], filter=(pc.field("o_orderdate") < pa.scalar(cutoff, pa.timestamp("us"))),
    ).map_batches(_order_rows, batch_format="pyarrow")
    qorders = cust.union(orders).groupby("bkt") \
        .map_groups(_semi, batch_format="pyarrow")

    def _li_partial(batch: pa.Table) -> pa.Table:
        lok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        rev = _cents(batch.column("l_extendedprice").to_numpy()) \
            * (100 - _pct(batch.column("l_discount").to_numpy()))
        u, s = group_sum(lok, rev)
        return pa.table({
            "bkt": pa.array(u % nb, pa.int64()),
            "okey": pa.array(u, pa.int64()),
            "odate_us": pa.array(np.zeros(u.size, np.int64), pa.int64()),
            "oprio": pa.array([""] * u.size, pa.string()),
            "rev": pa.array(s, pa.int64()),
        })

    def _o2(batch: pa.Table) -> pa.Table:
        okey = batch.column("okey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(okey % nb, pa.int64()),
            "okey": pa.array(okey, pa.int64()),
            "odate_us": batch.column("odate_us"),
            "oprio": batch.column("oprio"),
            "rev": pa.array(np.full(okey.size, -1, np.int64), pa.int64()),
        })

    def _probe2(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        rev = group.column("rev").to_numpy().astype(np.int64)
        build = rev == -1  # order headers (unique per okey)
        bo = okey[build]
        order = np.argsort(bo)
        bo = bo[order]
        hdr_idx = np.flatnonzero(build)[order]
        pk = okey[~build]
        pv = rev[~build]
        if bo.size:
            idx = np.minimum(np.searchsorted(bo, pk), bo.size - 1)
            hit = bo[idx] == pk
        else:
            idx = np.zeros(pk.size, np.int64)
            hit = np.zeros(pk.size, bool)
        s = np.zeros(bo.size, np.int64)
        n = np.zeros(bo.size, np.int64)
        np.add.at(s, idx[hit], pv[hit])
        np.add.at(n, idx[hit], 1)
        keep = n > 0  # inner join: headers with no lineitem drop
        sel = hdr_idx[keep]
        dates = group.column("odate_us").to_numpy().astype(np.int64)[sel]
        prios = group.column("oprio").take(pa.array(sel))
        return pa.table({
            "l_orderkey": pa.array(bo[keep], pa.int64()),
            "revenue_milli": pa.array(s[keep], pa.int64()),
            "o_orderdate_us": pa.array(dates, pa.int64()),
            "o_orderpriority": prios,
        })

    li = sized_read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"], filter=(pc.field("l_shipdate") > pa.scalar(cutoff, pa.timestamp("us"))),
    ).map_batches(_li_partial, batch_format="pyarrow")

    def _topk(batch: pa.Table) -> pa.Table:
        """Per-batch partial top-k by (rev desc, date, okey) — the
        global top k are each inside their batch's top k, so the
        driver merges O(batches · k) rows instead of paying a full
        sort all-to-all."""
        rev = batch.column("revenue_milli").to_numpy().astype(np.int64)
        dt = batch.column("o_orderdate_us").to_numpy().astype(np.int64)
        ok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        sel = np.lexsort((ok, dt, -rev))[:k]
        return batch.take(pa.array(sel))

    parts = (
        qorders.map_batches(_o2, batch_format="pyarrow").union(li)
        .groupby("bkt").map_groups(_probe2, batch_format="pyarrow")
        .map_batches(_topk, batch_format="pyarrow")
        .to_pandas())                            # O(batches · k) rows
    parts = parts.sort_values(
        ["revenue_milli", "o_orderdate_us", "l_orderkey"],
        ascending=[False, True, True], kind="mergesort").head(k)
    return pa.Table.from_pandas(parts.reset_index(drop=True),
                                preserve_index=False)


Q5_REGION = "ASIA"
Q5_DATE_LO = "1996-01-01"
Q5_DATE_HI = "1997-01-01"


def q_local_supplier_volume(sf_dir: str) -> pa.Table:
    """TPC-H-Q5-shaped local-supplier volume: revenue per nation from
    lineitems where the CUSTOMER and the SUPPLIER sit in the same
    nation, the nation is in one region, and the order falls in a
    one-year window —

        region ⋈ nation ⋈ customer ⋈ orders ⋈ lineitem ⋈ supplier
        group by n_name, revenue_milli = Σ cents(price)·(100 − disc_pct)

    The 6-way join decomposes into the engine's standard shapes with
    TWO bucketed shuffles total: region/nation (30 rows) and supplier
    (|S| ≪ facts; int64→int64 key map) broadcast once via ray.put;
    join 1 (custkey) is the union-tag bucketed join forwarding ONE row
    (okey, c_nationkey) per qualifying date-filtered order; lineitem
    rows resolve s_nationkey from the broadcast map and compress to one
    partial-revenue row per (batch, okey, s_nation) BEFORE join 2
    (okey), where the equality c_nation == s_nation is applied
    in-bucket and the output is one row per nation per bucket. At a
    scale where supplier outgrows broadcast (~10^9 rows), join 3 runs
    as a third bucketed union-tag exchange on suppkey — same machinery,
    documented trade."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    nb = table_buckets(sf_dir, "customer", "orders", "lineitem")
    lo = np.datetime64(Q5_DATE_LO, "us")
    hi = np.datetime64(Q5_DATE_HI, "us")

    # broadcast side 1: nationkey -> name, restricted to the region
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rk = {r["r_name"]: r["r_regionkey"] for r in region.to_pylist()}[Q5_REGION]
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    nrows = [r for r in nation.to_pylist() if r["n_regionkey"] == rk]
    nk = np.array(sorted(r["n_nationkey"] for r in nrows), np.int64)
    nname = np.asarray([r["n_name"] for r in sorted(
        nrows, key=lambda r: r["n_nationkey"])], object)
    # broadcast side 2: suppkey -> nationkey (sorted-key gather)
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_nationkey"])
    sk = supp.column("s_suppkey").to_numpy().astype(np.int64)
    sn = supp.column("s_nationkey").to_numpy().astype(np.int64)
    o = np.argsort(sk)
    supp_ref = ray.put((sk[o], sn[o]))
    nat_ref = ray.put((nk, nname))

    def _cust_rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        natk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        regional = np.isin(natk, ray.get(nat_ref)[0])
        ck, natk = ck[regional], natk[regional]
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "okey": pa.array(np.full(ck.size, -1, np.int64), pa.int64()),
            "cnat": pa.array(natk, pa.int64()),
        })

    def _order_rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "okey": pa.array(
                batch.column("o_orderkey").to_numpy().astype(np.int64),
                pa.int64()),
            "cnat": pa.array(np.full(ck.size, -1, np.int64), pa.int64()),
        })

    def _join1(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        key = group.column("key").to_numpy().astype(np.int64)
        cnat = group.column("cnat").to_numpy().astype(np.int64)
        build = okey == -1
        bk, bn = key[build], cnat[build]
        o = np.argsort(bk)
        bk, bn = bk[o], bn[o]
        pk = key[~build]
        if bk.size:
            idx = np.minimum(np.searchsorted(bk, pk), bk.size - 1)
            hit = bk[idx] == pk
        else:
            idx = np.zeros(pk.size, np.int64)
            hit = np.zeros(pk.size, bool)
        ok = okey[~build][hit]
        return pa.table({
            "bkt": pa.array(ok % nb, pa.int64()),
            "okey": pa.array(ok, pa.int64()),
            "nat": pa.array(bn[idx[hit]], pa.int64()),
            "rev": pa.array(np.full(ok.size, -1, np.int64), pa.int64()),
        })

    def _li_partial(batch: pa.Table) -> pa.Table:
        sk_s, sn_s = ray.get(supp_ref)
        lok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        lsk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        rev = _cents(batch.column("l_extendedprice").to_numpy()) \
            * (100 - _pct(batch.column("l_discount").to_numpy()))
        snat = sn_s[np.searchsorted(sk_s, lsk)]  # FK: every suppkey resolves
        # compress: one row per (okey, supplier nation) per batch; only
        # regional supplier nations can satisfy cnat == snat
        regional = np.isin(snat, ray.get(nat_ref)[0])
        lok, snat, rev = lok[regional], snat[regional], rev[regional]
        key = lok * np.int64(64) + snat  # nationkey < 64 by schema
        u, s = group_sum(key, rev)
        return pa.table({
            "bkt": pa.array((u // 64) % nb, pa.int64()),
            "okey": pa.array(u // 64, pa.int64()),
            "nat": pa.array(u % 64, pa.int64()),
            "rev": pa.array(s, pa.int64()),
        })

    def _join2(group: pa.Table) -> pa.Table:
        nk_b, nname_b = ray.get(nat_ref)
        okey = group.column("okey").to_numpy().astype(np.int64)
        nat = group.column("nat").to_numpy().astype(np.int64)
        rev = group.column("rev").to_numpy().astype(np.int64)
        build = rev == -1  # (okey, customer nation) headers, unique per okey
        bo, bn = okey[build], nat[build]
        o = np.argsort(bo)
        bo, bn = bo[o], bn[o]
        pk, pn, pv = okey[~build], nat[~build], rev[~build]
        if bo.size:
            idx = np.minimum(np.searchsorted(bo, pk), bo.size - 1)
            hit = (bo[idx] == pk) & (bn[idx] == pn)  # local-supplier rule
        else:
            hit = np.zeros(pk.size, bool)
        if not hit.any():
            return pa.table({"n_name": pa.array([], pa.string()),
                             "revenue_milli": pa.array([], pa.int64())})
        u, s = group_sum(pn[hit], pv[hit])
        names = nname_b[np.searchsorted(nk_b, u)]
        return pa.table({
            "n_name": pa.array(names.tolist(), pa.string()),
            "revenue_milli": pa.array(s, pa.int64()),
        })

    cust = sized_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(_cust_rows, batch_format="pyarrow")
    orders = sized_read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"], filter=((pc.field("o_orderdate") >= pa.scalar(lo, pa.timestamp("us")))
                & (pc.field("o_orderdate") < pa.scalar(hi, pa.timestamp("us")))),
    ).map_batches(_order_rows, batch_format="pyarrow")
    qorders = cust.union(orders).groupby("bkt") \
        .map_groups(_join1, batch_format="pyarrow")
    li = sized_read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]).map_batches(_li_partial, batch_format="pyarrow")
    out = (
        qorders.union(li)
        .groupby("bkt").map_groups(_join2, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Sum("revenue_milli", alias_name="revenue_milli"))
        .sort(key=["revenue_milli", "n_name"], descending=[True, False])
    )
    return pa.Table.from_pandas(out.to_pandas(), preserve_index=False)


def q_customers_no_orders(sf_dir: str) -> ray.data.Dataset:
    """Distributed bucketed ANTI join: customers with NO order inside
    the [Q5_DATE_LO, Q5_DATE_HI) window, counted per nation — the join
    polarity the surface didn't cover (inner: nation_order_stats;
    semi: shipping_priority; anti: here). The date scope keeps the
    result non-degenerate on the synthetic corpus (every customer has
    SOME order) and pushes the predicate into the orders read.

    Shape: both sides bucket by custkey hash (union-tag); the orders
    side compresses to DISTINCT custkeys per batch before the shuffle
    (the anti probe only needs existence); per bucket one sort + one
    searchsorted marks customers without a probe hit; output is one
    (nation, count) partial per bucket, merged by a tiny groupby.
    The 25-row nation dim broadcasts for naming."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    lo = np.datetime64(Q5_DATE_LO, "us")
    hi = np.datetime64(Q5_DATE_HI, "us")

    nb = table_buckets(sf_dir, "customer", "orders")
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    nk = nation.column("n_nationkey").to_numpy().astype(np.int64)
    nnames = np.asarray(nation.column("n_name").to_pylist(), object)
    o = np.argsort(nk)
    nat_ref = ray.put((nk[o], nnames[o]))

    def _cust_rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "nat": pa.array(
                batch.column("c_nationkey").to_numpy().astype(np.int64),
                pa.int64()),
        })

    def _order_rows(batch: pa.Table) -> pa.Table:
        ck = np.unique(batch.column("o_custkey").to_numpy().astype(np.int64))
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "nat": pa.array(np.full(ck.size, -1, np.int64), pa.int64()),
        })

    def _anti(group: pa.Table) -> pa.Table:
        nk_b, nname_b = ray.get(nat_ref)
        key = group.column("key").to_numpy().astype(np.int64)
        nat = group.column("nat").to_numpy().astype(np.int64)
        cust = nat >= 0
        probe = np.unique(key[~cust])
        ck, cn = key[cust], nat[cust]
        if probe.size:
            idx = np.minimum(np.searchsorted(probe, ck), probe.size - 1)
            lonely = probe[idx] != ck
        else:
            lonely = np.ones(ck.size, bool)
        if not lonely.any():
            return pa.table({"n_name": pa.array([], pa.string()),
                             "n_customers": pa.array([], pa.int64())})
        u, cnt = np.unique(cn[lonely], return_counts=True)
        names = nname_b[np.searchsorted(nk_b, u)]
        return pa.table({
            "n_name": pa.array(names.tolist(), pa.string()),
            "n_customers": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    cust = sized_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(_cust_rows, batch_format="pyarrow")
    orders = sized_read(sf_dir, "orders", ["o_custkey", "o_orderdate"], filter=((pc.field("o_orderdate") >= pa.scalar(lo, pa.timestamp("us")))
                & (pc.field("o_orderdate") < pa.scalar(hi, pa.timestamp("us")))),
    ).map_batches(_order_rows, batch_format="pyarrow")
    return (
        cust.union(orders)
        .groupby("bkt").map_groups(_anti, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Sum("n_customers", alias_name="n_customers"))
    )


def q_nation_rollup(sf_dir: str) -> pa.Table:
    """ROLLUP(n_name, o_orderstatus) over the join aggregate: the
    finest level plus per-nation subtotals plus a grand total, with
    'ALL' markers (not NULL — avoids null-ordering ambiguity in the
    comparison). The rollup is a driver finalizer over the O(groups)
    merged aggregate — the classic sketch-then-finalize shape; the
    distributed work is exactly q_nation_order_stats."""
    fine = q_nation_order_stats(sf_dir).to_pandas()
    nat = fine.groupby("n_name", as_index=False)[
        ["n_orders", "total_cents"]].sum()
    nat["o_orderstatus"] = "ALL"
    tot = fine[["n_orders", "total_cents"]].sum().to_frame().T
    tot["n_name"] = "ALL"
    tot["o_orderstatus"] = "ALL"
    import pandas as pd

    out = pd.concat([fine, nat, tot], ignore_index=True)[
        ["n_name", "o_orderstatus", "n_orders", "total_cents"]]
    out = out.sort_values(["n_name", "o_orderstatus"]).reset_index(drop=True)
    return pa.table({
        "n_name": pa.array(out["n_name"].tolist(), pa.string()),
        "o_orderstatus": pa.array(out["o_orderstatus"].tolist(), pa.string()),
        "n_orders": pa.array(out["n_orders"].astype("int64"), pa.int64()),
        "total_cents": pa.array(out["total_cents"].astype("int64"), pa.int64()),
    })


Q4_DATE_LO = "1996-01-01"
Q4_DATE_HI = "1997-01-01"
Q4_LATE_DAYS = 30


def q_order_priority_counts(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q4-shaped order-priority check: orders placed inside
    [Q4_DATE_LO, Q4_DATE_HI) counted per priority where EXISTS a
    lineitem shipped more than Q4_LATE_DAYS after the order date (the
    synthetic schema has no commitdate/receiptdate, so "late shipment"
    stands in for Q4's commit-vs-receipt predicate; the reference
    exercises the same exists-filter shape in its candidate-pool
    filters, Selection.java filter-set path).

    Shape: the correlated EXISTS becomes an aggregate semi-join —
    max(l_shipdate) witnesses the existential, so the lineitem side
    compresses to ONE (orderkey, max_ship) row per batch before the
    shuffle; both sides bucket by orderkey hash (union-tag), each
    bucket does one sort + reduceat-max + searchsorted probe, and the
    output is one (priority, n) partial per bucket merged by a tiny
    groupby. No lineitem row crosses the wire uncompressed."""
    import pyarrow.compute as pc

    nb = table_buckets(sf_dir, "orders", "lineitem")
    lo = np.datetime64(Q4_DATE_LO, "us")
    hi = np.datetime64(Q4_DATE_HI, "us")
    late_us = np.int64(Q4_LATE_DAYS) * 86_400_000_000

    def _order_rows(batch: pa.Table) -> pa.Table:
        ok = batch.column("o_orderkey").to_numpy().astype(np.int64)
        od = batch.column("o_orderdate").cast(pa.int64()).to_numpy()
        return pa.table({
            "bkt": pa.array(ok % nb, pa.int64()),
            "key": pa.array(ok, pa.int64()),
            "ship_us": pa.array(np.full(ok.size, -1, np.int64), pa.int64()),
            "odate_us": pa.array(od, pa.int64()),
            "priority": batch.column("o_orderpriority"),
        })

    def _line_rows(batch: pa.Table) -> pa.Table:
        ok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        sh = batch.column("l_shipdate").cast(pa.int64()).to_numpy()
        order = np.argsort(ok, kind="stable")
        ok, sh = ok[order], sh[order]
        starts = run_starts(ok)
        mx = np.maximum.reduceat(sh, starts)
        u = ok[starts]
        return pa.table({
            "bkt": pa.array(u % nb, pa.int64()),
            "key": pa.array(u, pa.int64()),
            "ship_us": pa.array(mx, pa.int64()),
            "odate_us": pa.array(np.zeros(u.size, np.int64), pa.int64()),
            "priority": pa.array([""] * u.size, pa.string()),
        })

    def _probe(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy().astype(np.int64)
        ship = group.column("ship_us").to_numpy().astype(np.int64)
        odate = group.column("odate_us").to_numpy().astype(np.int64)
        prio = np.asarray(group.column("priority").to_pylist(), object)
        build = ship >= 0
        bk, bs = key[build], ship[build]
        order = np.argsort(bk, kind="stable")
        bk, bs = bk[order], bs[order]
        starts = run_starts(bk)
        ukeys = bk[starts]
        umax = np.maximum.reduceat(bs, starts)
        pk = key[~build]
        if ukeys.size:
            idx = np.minimum(np.searchsorted(ukeys, pk), ukeys.size - 1)
            hit = (ukeys[idx] == pk) & (umax[idx] > odate[~build] + late_us)
        else:
            hit = np.zeros(pk.size, bool)
        if not hit.any():
            return pa.table({"o_orderpriority": pa.array([], pa.string()),
                             "n_orders": pa.array([], pa.int64())})
        u, cnt = np.unique(prio[~build][hit], return_counts=True)
        return pa.table({
            "o_orderpriority": pa.array(u.tolist(), pa.string()),
            "n_orders": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    orders = sized_read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"], filter=((pc.field("o_orderdate") >= pa.scalar(lo, pa.timestamp("us")))
                & (pc.field("o_orderdate") < pa.scalar(hi, pa.timestamp("us")))),
    ).map_batches(_order_rows, batch_format="pyarrow")
    lines = sized_read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]).map_batches(_line_rows, batch_format="pyarrow")
    return (
        orders.union(lines)
        .groupby("bkt").map_groups(_probe, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("n_orders", alias_name="n_orders"))
    )


Q13_EXCLUDE_PRIORITY = "1-URGENT"


def q_customer_order_distribution(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q13-shaped customer distribution: histogram of
    orders-per-customer (orders outside one excluded priority class),
    INCLUDING the zero bucket — the LEFT OUTER join polarity (inner /
    semi / anti are covered by the sibling queries; outer-with-
    zero-fill completes the set).

    Shape: orders compress to per-custkey count partials → one
    O(customers) groupby; the counts and the customer PK rows then
    bucket by custkey hash (union-tag), each bucket zero-fills the
    customers without a count row via one sort + searchsorted, and
    emits a (c_count, n) histogram partial — so the final shuffle is
    O(distinct counts), not O(customers)."""
    counts = (
        sized_read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
        .map_batches(
            lambda b: _custkey_count_partial(b, Q13_EXCLUDE_PRIORITY),
            batch_format="pyarrow")
        .groupby("key").aggregate(Sum("cnt", alias_name="cnt"))
    )
    nb = table_buckets(sf_dir, "orders", "customer")

    def _count_rows(batch: pa.Table) -> pa.Table:
        k = batch.column("key").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(k % nb, pa.int64()),
            "key": pa.array(k, pa.int64()),
            "cnt": pa.array(batch.column("cnt").to_numpy().astype(np.int64),
                            pa.int64()),
        })

    def _cust_rows(batch: pa.Table) -> pa.Table:
        k = batch.column("c_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(k % nb, pa.int64()),
            "key": pa.array(k, pa.int64()),
            "cnt": pa.array(np.full(k.size, -1, np.int64), pa.int64()),
        })

    def _hist(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy().astype(np.int64)
        cnt = group.column("cnt").to_numpy().astype(np.int64)
        build = cnt >= 0
        bk, bc = key[build], cnt[build]
        order = np.argsort(bk, kind="stable")
        bk, bc = bk[order], bc[order]
        pk = key[~build]
        if bk.size:
            idx = np.minimum(np.searchsorted(bk, pk), bk.size - 1)
            hit = bk[idx] == pk
            c_count = np.where(hit, bc[np.minimum(idx, bk.size - 1)], 0)
        else:
            c_count = np.zeros(pk.size, np.int64)
        u, n = np.unique(c_count, return_counts=True)
        return pa.table({
            "c_count": pa.array(u.astype(np.int64), pa.int64()),
            "custdist": pa.array(n.astype(np.int64), pa.int64()),
        })

    cust = sized_read(sf_dir, "customer", ["c_custkey"]).map_batches(_cust_rows, batch_format="pyarrow")
    return (
        counts.map_batches(_count_rows, batch_format="pyarrow")
        .union(cust)
        .groupby("bkt").map_groups(_hist, batch_format="pyarrow")
        .groupby("c_count")
        .aggregate(Sum("custdist", alias_name="custdist"))
    )


def _custkey_count_partial(batch: pa.Table, exclude: str) -> pa.Table:
    ck = batch.column("o_custkey").to_numpy().astype(np.int64)
    prio = np.asarray(batch.column("o_orderpriority").to_pylist(), object)
    ck = ck[prio != exclude]
    u, cnt = np.unique(ck, return_counts=True)
    return pa.table({"key": pa.array(u, pa.int64()),
                     "cnt": pa.array(cnt.astype(np.int64), pa.int64())})


Q18_MIN_QTY_C = 250 * 100  # HAVING sum(quantity) > 250, in centi-units


def q_large_volume_customers(sf_dir: str) -> pa.Table:
    """TPC-H-Q18-shaped large-volume customers: orders whose total
    lineitem quantity exceeds a threshold, joined back to the order
    header and the customer name — the HAVING-driven join shape where
    a filtered aggregate becomes the (small) build side of the next
    join.

    Shape: lineitem compresses to per-orderkey quantity partials →
    one groupby → HAVING filter inside map_batches. The survivors are
    threshold-bounded (p99 of the per-order distribution), so the
    right plan is two broadcast semi-joins: survivors broadcast into a
    map over orders (picks headers + custkeys), then the matched
    headers broadcast into a map over customer (picks names); only the
    two tiny survivor tables ever reach the driver. If the threshold
    made the survivor set large, the bucketed union-tag join
    (q_nation_order_stats) is the swap-in plan."""
    # per-order sum + HAVING inside ONE bucket fold (the orderkey
    # sort aggregate paid per-GROUP Python over ~1.5e5 groups: 7.6 s)
    from candidategeneration_ray.functions.exchange import fold_by_bucket

    nfb = table_buckets(sf_dir, "lineitem", "orders", "customer")

    def _okb(batch: pa.Table) -> pa.Table:
        k = batch.column("key").to_numpy()
        return batch.append_column(
            "okb", pa.array(bucket_of(k, nfb)))

    def _sum_having(group: pa.Table) -> pa.Table:
        k = group.column("key").to_numpy().astype(np.int64)
        q = group.column("qty_c").to_numpy().astype(np.int64)
        u, sums = group_sum(k, q)
        keep = sums > Q18_MIN_QTY_C
        return pa.table({"key": pa.array(u[keep], pa.int64()),
                         "sum_qty_c": pa.array(sums[keep], pa.int64())})

    qty = fold_by_bucket(
        sized_read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
        .map_batches(_orderkey_qty_partial, batch_format="pyarrow")
        .map_batches(_okb, batch_format="pyarrow"),
        "okb", _sum_having, nfb,
        pa.table({"key": pa.array([], pa.int64()),
                  "sum_qty_c": pa.array([], pa.int64())}))
    hot = qty.to_pandas()
    okeys = hot["key"].to_numpy().astype(np.int64)
    order = np.argsort(okeys)
    okeys = okeys[order]
    sqty = hot["sum_qty_c"].to_numpy().astype(np.int64)[order]
    hot_ref = ray.put((okeys, sqty))

    def _pick_orders(batch: pa.Table) -> pa.Table:
        hk, hq = ray.get(hot_ref)
        ok = batch.column("o_orderkey").to_numpy().astype(np.int64)
        if hk.size == 0:
            keep = np.zeros(ok.size, bool)
        else:
            idx = np.minimum(np.searchsorted(hk, ok), hk.size - 1)
            keep = hk[idx] == ok
        sub = batch.filter(pa.array(keep))
        ok = sub.column("o_orderkey").to_numpy().astype(np.int64)
        qv = hq[np.searchsorted(hk, ok)] if ok.size else \
            np.empty(0, np.int64)
        return pa.table({
            "c_custkey": pa.array(
                sub.column("o_custkey").to_numpy().astype(np.int64),
                pa.int64()),
            "o_orderkey": pa.array(ok, pa.int64()),
            "o_orderdate_us": pa.array(
                sub.column("o_orderdate").cast(pa.int64()).to_numpy(),
                pa.int64()),
            "total_cents": pa.array(
                _cents(sub.column("o_totalprice").to_numpy()), pa.int64()),
            "sum_qty_c": pa.array(qv, pa.int64()),
        })

    picked = (
        sized_read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate",
                     "o_totalprice"])
        .map_batches(_pick_orders, batch_format="pyarrow")
        .to_pandas()
    )
    cks = np.unique(picked["c_custkey"].to_numpy().astype(np.int64))
    ck_ref = ray.put(cks)

    def _pick_names(batch: pa.Table) -> pa.Table:
        hk = ray.get(ck_ref)
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        if hk.size == 0:
            keep = np.zeros(ck.size, bool)
        else:
            idx = np.minimum(np.searchsorted(hk, ck), hk.size - 1)
            keep = hk[idx] == ck
        return batch.filter(pa.array(keep)).select(["c_custkey", "c_name"])

    names = (
        sized_read(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(_pick_names, batch_format="pyarrow")
        .to_pandas()
    )
    out = picked.merge(names, on="c_custkey", how="inner")
    out = out.sort_values(["sum_qty_c", "o_orderkey"],
                          ascending=[False, True]).reset_index(drop=True)
    return pa.table({
        "c_name": pa.array(out["c_name"].tolist(), pa.string()),
        "c_custkey": pa.array(out["c_custkey"].astype("int64"), pa.int64()),
        "o_orderkey": pa.array(out["o_orderkey"].astype("int64"), pa.int64()),
        "o_orderdate_us": pa.array(out["o_orderdate_us"].astype("int64"),
                                   pa.int64()),
        "total_cents": pa.array(out["total_cents"].astype("int64"),
                                pa.int64()),
        "sum_qty_c": pa.array(out["sum_qty_c"].astype("int64"), pa.int64()),
    })


def _orderkey_qty_partial(batch: pa.Table) -> pa.Table:
    ok = batch.column("l_orderkey").to_numpy().astype(np.int64)
    qc = _cents(batch.column("l_quantity").to_numpy())
    u, s = group_sum(ok, qc)
    return pa.table({"key": pa.array(u, pa.int64()),
                     "qty_c": pa.array(s, pa.int64())})


def q_order_skyline(sf_dir: str) -> ray.data.Dataset:
    """Pareto skyline (maximal-vector / multi-objective frontier) of
    orders minimizing BOTH price and date — "the cheapest early
    orders": an order survives iff no other order is <= on both
    (price_cents, order_day) and strictly < on at least one. The
    skyline shape shows up in data curation as "keep the frontier"
    selection (e.g. shortest-yet-highest-quality documents); dominance
    is pure integer comparison, so the oracle hash-matches.

    Shape: the classic two-phase distributed skyline — phase 1 runs a
    sort-based LOCAL skyline per batch (one np.lexsort + running-min
    scan; dominated rows die before any shuffle), phase 2 runs the
    same kernel once over the union of local skylines (a constant-key
    map_groups task). Correct because global skyline points survive
    every local pass (a dominator in a batch is a dominator globally).
    Phase-2 size = O(Σ local frontier sizes) — tiny for correlated
    dims; a fully anti-correlated 100 TB table would need the
    grid/angular-partition variant (partition by price decile, each
    task gets its decile plus the running frontier), documented not
    built."""
    def _kernel(key: np.ndarray, price: np.ndarray,
                day: np.ndarray) -> pa.Table:
        """Sort-based 2-D skyline: a row survives iff it has the min
        day within its exact price group AND a strictly smaller day
        than everything strictly cheaper."""
        if key.size == 0:
            return pa.table({
                "o_orderkey": pa.array([], pa.int64()),
                "price_cents": pa.array([], pa.int64()),
                "order_day": pa.array([], pa.int64()),
            })
        order = np.lexsort((key, day, price))
        key, price, day = key[order], price[order], day[order]
        uniq_first = np.concatenate(([True], price[1:] != price[:-1]))
        starts = np.nonzero(uniq_first)[0]
        grp_of = np.cumsum(uniq_first) - 1           # price-group index
        run_min = np.minimum.accumulate(day)
        # min day among STRICTLY cheaper rows = running min at the row
        # just before my price group starts (+inf for the cheapest)
        prev = starts[grp_of] - 1
        mdc = np.where(prev >= 0, run_min[np.maximum(prev, 0)],
                       np.iinfo(np.int64).max)
        mdp = np.minimum.reduceat(day, starts)[grp_of]
        keep = (day < mdc) & (day == mdp)
        return pa.table({
            "o_orderkey": pa.array(key[keep], pa.int64()),
            "price_cents": pa.array(price[keep], pa.int64()),
            "order_day": pa.array(day[keep], pa.int64()),
        })

    def _local(batch: pa.Table) -> pa.Table:
        t = _kernel(
            batch.column("o_orderkey").to_numpy().astype(np.int64),
            _cents(batch.column("o_totalprice").to_numpy()),
            batch.column("o_orderdate").cast(pa.int64()).to_numpy()
            // np.int64(86_400_000_000))
        return t.append_column(
            "g", pa.array(np.zeros(t.num_rows, np.int64), pa.int64()))

    def _final(group: pa.Table) -> pa.Table:
        return _kernel(
            group.column("o_orderkey").to_numpy().astype(np.int64),
            group.column("price_cents").to_numpy().astype(np.int64),
            group.column("order_day").to_numpy().astype(np.int64))

    ds = sized_read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])
    return (
        ds.map_batches(_local, batch_format="pyarrow")
        .groupby("g").map_groups(_final, batch_format="pyarrow")
    )


PROMO_SHIP_LO = "1997-09-01"
PROMO_SHIP_HI = "1997-10-01"
Q17_BRAND = "Brand#4"
HIGH_PRIORITIES = ("1-URGENT", "2-HIGH")


def q_promo_revenue_share(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q14-shaped promo share: over one shipdate month, the
    promo-part revenue and total revenue as EXACT integer
    numerator/denominator (revenue_milli = cents(extendedprice) x
    (100 - disc_pct); the reported percentage is num/den, a float
    finalizer the caller applies — keeping the division out keeps the
    oracle hash-exact).

    Shape: the dimension-broadcast join — part's (partkey → is_promo)
    bit goes into the object store ONCE (ray.put) and every lineitem
    batch probes it with one searchsorted; the month predicate and the
    4-column projection push into the parquet read. Output: one row.
    At 100 TB part is ~1/30 the rows of lineitem and only 2 columns
    are shipped — broadcast is the right plan; the bucketed shuffle
    join (q_nation_order_stats) is the fallback when the dim outgrows
    worker memory."""
    import pyarrow.compute as pc

    part = sized_read(sf_dir, "part", ["p_partkey", "p_type"])

    def _part_rows(b: pa.Table) -> pa.Table:
        pk = b.column("p_partkey").to_numpy().astype(np.int64)
        promo = pc.equal(b.column("p_type"), "PROMO").to_numpy(
            zero_copy_only=False)
        return pa.table({"pk": pa.array(pk, pa.int64()),
                         "promo": pa.array(promo.astype(np.int8),
                                           pa.int8())})

    pt = pa.concat_tables(
        ray.get([blk for blk in part.map_batches(
            _part_rows, batch_format="pyarrow").to_arrow_refs()]))
    pk = pt.column("pk").to_numpy().astype(np.int64)
    promo = pt.column("promo").to_numpy().astype(bool)
    o = np.argsort(pk)
    dim_ref = ray.put((pk[o], promo[o]))

    lo = np.datetime64(PROMO_SHIP_LO).astype("datetime64[us]").astype(np.int64)
    hi = np.datetime64(PROMO_SHIP_HI).astype("datetime64[us]").astype(np.int64)

    def _partial(batch: pa.Table) -> pa.Table:
        sd = batch.column("l_shipdate").cast(pa.int64()).to_numpy()
        keep = (sd >= lo) & (sd < hi)
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)[keep]
        ext = _cents(batch.column("l_extendedprice").to_numpy()[keep])
        disc = _pct(batch.column("l_discount").to_numpy()[keep])
        rev = ext * (np.int64(100) - disc)
        dpk, dpromo = ray.get(dim_ref)
        if dpk.size:
            idx = np.minimum(np.searchsorted(dpk, lpk), dpk.size - 1)
            found = dpk[idx] == lpk
            is_promo = found & dpromo[idx]
        else:
            found = np.zeros(lpk.size, bool)
            is_promo = found
        # inner-join semantics (match the oracle): orphan partkeys —
        # the corruption q_fk_audit detects — drop from BOTH sums
        return pa.table({
            "g": pa.array([0], pa.int64()),
            "promo_milli": pa.array([int(rev[is_promo].sum())], pa.int64()),
            "total_milli": pa.array([int(rev[found].sum())], pa.int64()),
            "n_lines": pa.array([int(found.sum())], pa.int64()),
        })

    return (
        sized_read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount",
                     "l_shipdate"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(Sum("promo_milli", alias_name="promo_milli"),
                   Sum("total_milli", alias_name="total_milli"),
                   Sum("n_lines", alias_name="n_lines"))
        .map_batches(lambda t: t.drop_columns(["g"]),
                     batch_format="pyarrow")
    )


def q_small_qty_revenue(sf_dir: str,
                        brand: str = Q17_BRAND) -> ray.data.Dataset:
    """TPC-H-Q17-shaped decorrelated scalar subquery: total revenue of
    brand lines whose quantity is under 20% of that part's average
    quantity. The fractional comparison is EXACT by cross-
    multiplication: qty < 0.2 * (sum_qty/cnt)  ⟺  5*qty*cnt < sum_qty
    (quantities are integral) — no float threshold, so the oracle
    hash-matches.

    Shape: the correlated subquery decorrelates into (pass 1) a
    per-part aggregate of the brand's lineitems — per-batch compressed
    partials, one small groupby — and (pass 2) a re-scan that
    co-locates each part's agg row with its lineitem rows by partkey
    hash-bucket (union-tag + one searchsorted per bucket, no driver
    materialization of the agg) and keeps qualifying lines. Output:
    one row (total_cents, n_lines)."""
    import pyarrow.compute as pc

    nb = table_buckets(sf_dir, "part", "lineitem")

    part = sized_read(sf_dir, "part", ["p_partkey", "p_brand"])

    def _brand_rows(b: pa.Table) -> pa.Table:
        keep = pc.equal(b.column("p_brand"), brand).to_numpy(
            zero_copy_only=False)
        pk = b.column("p_partkey").to_numpy().astype(np.int64)[keep]
        return pa.table({"pk": pa.array(pk, pa.int64())})

    bt = pa.concat_tables(
        ray.get([blk for blk in part.map_batches(
            _brand_rows, batch_format="pyarrow").to_arrow_refs()]))
    bset = np.sort(bt.column("pk").to_numpy().astype(np.int64))
    bset_ref = ray.put(bset)

    def _in_brand(lpk: np.ndarray) -> np.ndarray:
        bs = ray.get(bset_ref)
        if bs.size == 0:
            return np.zeros(lpk.size, bool)
        idx = np.minimum(np.searchsorted(bs, lpk), bs.size - 1)
        return bs[idx] == lpk

    def _qty_partial(batch: pa.Table) -> pa.Table:
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)
        keep = _in_brand(lpk)
        lpk = lpk[keep]
        qty = np.rint(batch.column("l_quantity").to_numpy()[keep]) \
            .astype(np.int64)
        u, n, s = group_sum(lpk, np.ones(lpk.size, np.int64), qty)
        return pa.table({"l_partkey": pa.array(u, pa.int64()),
                         "cnt": pa.array(n, pa.int64()),
                         "sum_qty": pa.array(s, pa.int64())})

    lineitem_cols = ["l_partkey", "l_quantity", "l_extendedprice"]
    agg = (
        sized_read(sf_dir, "lineitem", ["l_partkey", "l_quantity"])
        .map_batches(_qty_partial, batch_format="pyarrow")
        .groupby("l_partkey")
        .aggregate(Sum("cnt", alias_name="cnt"),
                   Sum("sum_qty", alias_name="sum_qty"))
    )

    def _agg_rows(b: pa.Table) -> pa.Table:
        pkk = b.column("l_partkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(pkk % nb, pa.int64()),
            "key": pa.array(pkk, pa.int64()),
            "cnt": b.column("cnt"),
            "sum_qty": b.column("sum_qty"),
            "qty": pa.array(np.full(pkk.size, -1, np.int64), pa.int64()),
            "cents": pa.array(np.zeros(pkk.size, np.int64), pa.int64()),
        })

    def _line_rows(batch: pa.Table) -> pa.Table:
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)
        keep = _in_brand(lpk)
        lpk = lpk[keep]
        qty = np.rint(batch.column("l_quantity").to_numpy()[keep]) \
            .astype(np.int64)
        cents = _cents(batch.column("l_extendedprice").to_numpy()[keep])
        return pa.table({
            "bkt": pa.array(lpk % nb, pa.int64()),
            "key": pa.array(lpk, pa.int64()),
            "cnt": pa.array(np.zeros(lpk.size, np.int64), pa.int64()),
            "sum_qty": pa.array(np.zeros(lpk.size, np.int64), pa.int64()),
            "qty": pa.array(qty, pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })

    def _filter(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy().astype(np.int64)
        qty = group.column("qty").to_numpy().astype(np.int64)
        build = qty < 0
        bk = key[build]
        bc = group.column("cnt").to_numpy().astype(np.int64)[build]
        bs = group.column("sum_qty").to_numpy().astype(np.int64)[build]
        o = np.argsort(bk)
        bk, bc, bs = bk[o], bc[o], bs[o]
        pkk = key[~build]
        pq_ = qty[~build]
        pc_ = group.column("cents").to_numpy().astype(np.int64)[~build]
        idx = np.searchsorted(bk, pkk)   # every probe part has an agg row
        ok = np.int64(5) * pq_ * bc[idx] < bs[idx]
        return pa.table({
            "g": pa.array([0], pa.int64()),
            "total_cents": pa.array([int(pc_[ok].sum())], pa.int64()),
            "n_lines": pa.array([int(ok.sum())], pa.int64()),
        })

    lines = sized_read(sf_dir, "lineitem", lineitem_cols) \
        .map_batches(_line_rows, batch_format="pyarrow")
    # zero seed: the ungrouped oracle aggregate always returns one row,
    # so an empty brand (no buckets form) must still yield (0, 0)
    seed = ray.data.from_arrow(pa.table({
        "g": pa.array([0], pa.int64()),
        "total_cents": pa.array([0], pa.int64()),
        "n_lines": pa.array([0], pa.int64()),
    }))
    return (
        agg.map_batches(_agg_rows, batch_format="pyarrow")
        .union(lines)
        .groupby("bkt").map_groups(_filter, batch_format="pyarrow")
        .union(seed)
        .groupby("g")
        .aggregate(Sum("total_cents", alias_name="total_cents"),
                   Sum("n_lines", alias_name="n_lines"))
        .map_batches(lambda t: t.drop_columns(["g"]),
                     batch_format="pyarrow")
    )


Q22_DATE_LO = "2000-01-01"
Q22_DATE_HI = "2000-07-01"


def q_above_avg_idle_customers(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q22-shaped global-scalar + anti-join: per nation, the
    count and total balance cents of customers whose balance exceeds
    the average POSITIVE balance and who placed no order inside the
    [Q22_DATE_LO, Q22_DATE_HI) window (the window keeps the anti side
    non-degenerate on the synthetic corpus — every customer has SOME
    order — and pushes a predicate into the orders read).
    The above-average comparison is EXACT by cross-multiplication:
    cents > sum_pos/n_pos ⟺ cents * n_pos > sum_pos — no float
    average crosses the wire.

    Shape: (1) one compressed aggregate pass over customer produces
    the (n_pos, sum_pos) scalar — a 1-row broadcast, the decorrelated
    scalar subquery; (2) the NOT-EXISTS becomes the bucketed ANTI
    join (union-tag by custkey hash, per-batch-distinct order keys on
    the build side, one searchsorted per bucket — same machinery as
    q_customers_no_orders); (3) surviving rows compress to per-nation
    partials before the O(nations) groupby."""
    nb = table_buckets(sf_dir, "customer", "orders")

    def _bal_partial(b: pa.Table) -> pa.Table:
        cents = _cents(b.column("c_acctbal").to_numpy())
        pos = cents > 0
        return pa.table({
            "g": pa.array([0], pa.int64()),
            "n_pos": pa.array([int(pos.sum())], pa.int64()),
            "sum_pos": pa.array([int(cents[pos].sum())], pa.int64()),
        })

    scal = (
        sized_read(sf_dir, "customer", ["c_acctbal"])
        .map_batches(_bal_partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(Sum("n_pos", alias_name="n_pos"),
                   Sum("sum_pos", alias_name="sum_pos"))
        .take_all()
    )
    n_pos = np.int64(scal[0]["n_pos"])
    sum_pos = np.int64(scal[0]["sum_pos"])

    def _cust_rows(b: pa.Table) -> pa.Table:
        ck = b.column("c_custkey").to_numpy().astype(np.int64)
        cents = _cents(b.column("c_acctbal").to_numpy())
        natk = b.column("c_nationkey").to_numpy().astype(np.int64)
        keep = cents * n_pos > sum_pos
        ck, cents, natk = ck[keep], cents[keep], natk[keep]
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "nationkey": pa.array(natk, pa.int64()),
            "cents": pa.array(cents, pa.int64()),
        })

    q22_lo = np.datetime64(Q22_DATE_LO).astype(
        "datetime64[us]").astype(np.int64)
    q22_hi = np.datetime64(Q22_DATE_HI).astype(
        "datetime64[us]").astype(np.int64)

    def _order_keys(b: pa.Table) -> pa.Table:
        od = b.column("o_orderdate").cast(pa.int64()).to_numpy()
        inwin = (od >= q22_lo) & (od < q22_hi)
        ck = np.unique(
            b.column("o_custkey").to_numpy().astype(np.int64)[inwin])
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "nationkey": pa.array(np.full(ck.size, -1, np.int64),
                                  pa.int64()),
            "cents": pa.array(np.zeros(ck.size, np.int64), pa.int64()),
        })

    def _anti(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy().astype(np.int64)
        natk = group.column("nationkey").to_numpy().astype(np.int64)
        cents = group.column("cents").to_numpy().astype(np.int64)
        has_order = natk < 0
        ok_keys = np.unique(key[has_order])
        ck, cn, cc = key[~has_order], natk[~has_order], cents[~has_order]
        if ok_keys.size:
            idx = np.minimum(np.searchsorted(ok_keys, ck),
                             ok_keys.size - 1)
            keep = ok_keys[idx] != ck
        else:
            keep = np.ones(ck.size, bool)
        cn, cc = cn[keep], cc[keep]
        u, n, s = group_sum(cn, np.ones(cn.size, np.int64), cc)
        return pa.table({
            "c_nationkey": pa.array(u, pa.int64()),
            "n_custs": pa.array(n, pa.int64()),
            "total_cents": pa.array(s, pa.int64()),
        })

    cust = sized_read(sf_dir, "customer", ["c_custkey", "c_acctbal", "c_nationkey"]).map_batches(_cust_rows, batch_format="pyarrow")
    orders = sized_read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(_order_keys, batch_format="pyarrow")
    return (
        cust.union(orders)
        .groupby("bkt").map_groups(_anti, batch_format="pyarrow")
        .groupby("c_nationkey")
        .aggregate(Sum("n_custs", alias_name="n_custs"),
                   Sum("total_cents", alias_name="total_cents"))
    )


def q_line_priority_counts(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q12-shaped join + conditional aggregation: per
    l_returnflag, how many lineitems (shipped strictly after their
    order date — a predicate on JOINED attributes, evaluable only
    post-join) belong to high-priority orders (1-URGENT/2-HIGH) vs
    low. The CASE collapses the join output to counts, so the final
    shuffle is O(flags), not O(lines).

    Shape: the general bucketed equi-join by orderkey (orders build
    side unique on PK, lineitem probe side), the joined-attribute
    filter and the conditional partial both inside the bucket task."""
    nb = table_buckets(sf_dir, "orders", "lineitem")

    def _order_rows(b: pa.Table) -> pa.Table:
        ok = b.column("o_orderkey").to_numpy().astype(np.int64)
        od = b.column("o_orderdate").cast(pa.int64()).to_numpy()
        prio = b.column("o_orderpriority").to_numpy(zero_copy_only=False)
        high = np.isin(prio, np.asarray(HIGH_PRIORITIES, object))
        return pa.table({
            "bkt": pa.array(ok % nb, pa.int64()),
            "key": pa.array(ok, pa.int64()),
            "odate": pa.array(od, pa.int64()),
            "high": pa.array(high.astype(np.int8), pa.int8()),
            "sdate": pa.array(np.full(ok.size, -1, np.int64), pa.int64()),
            "flag": pa.array([""] * ok.size, pa.string()),
        })

    def _line_rows(b: pa.Table) -> pa.Table:
        ok = b.column("l_orderkey").to_numpy().astype(np.int64)
        sd = b.column("l_shipdate").cast(pa.int64()).to_numpy()
        return pa.table({
            "bkt": pa.array(ok % nb, pa.int64()),
            "key": pa.array(ok, pa.int64()),
            "odate": pa.array(np.zeros(ok.size, np.int64), pa.int64()),
            "high": pa.array(np.full(ok.size, -1, np.int8), pa.int8()),
            "sdate": pa.array(sd, pa.int64()),
            "flag": b.column("l_returnflag"),
        })

    def _probe(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy().astype(np.int64)
        high = group.column("high").to_numpy().astype(np.int64)
        build = high >= 0
        bk = key[build]
        bo = group.column("odate").to_numpy().astype(np.int64)[build]
        bh = high[build]
        o = np.argsort(bk)
        bk, bo, bh = bk[o], bo[o], bh[o]
        pk = key[~build]
        psd = group.column("sdate").to_numpy().astype(np.int64)[~build]
        pf = np.asarray(group.column("flag").to_pylist(), object)[~build]
        if bk.size:
            idx = np.minimum(np.searchsorted(bk, pk), bk.size - 1)
            hit = bk[idx] == pk
        else:
            idx = np.zeros(pk.size, np.int64)
            hit = np.zeros(pk.size, bool)
        late = hit & (psd > bo[idx])
        is_high = np.zeros(pk.size, bool)
        is_high[late] = bh[idx[late]] == 1
        flags, hi, lo_ = group_sum(pf[late], is_high[late], ~is_high[late])
        return pa.table({
            "l_returnflag": pa.array(flags.tolist(), pa.string()),
            "high_lines": pa.array(hi, pa.int64()),
            "low_lines": pa.array(lo_, pa.int64()),
        })

    orders = sized_read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"]).map_batches(_order_rows, batch_format="pyarrow")
    lines = sized_read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate", "l_returnflag"]).map_batches(_line_rows, batch_format="pyarrow")
    return (
        orders.union(lines)
        .groupby("bkt").map_groups(_probe, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(Sum("high_lines", alias_name="high_lines"),
                   Sum("low_lines", alias_name="low_lines"))
    )


def q_nation_median_order(sf_dir: str) -> ray.data.Dataset:
    """Exact per-nation median order value — the HOLISTIC aggregate
    (unlike every mergeable sum/count/sketch on this surface, an exact
    median cannot combine from partials; it needs the group's values
    co-located). Output per nation: n_orders, median_cents (lower
    median: element at index (n-1)//2 — integer, so the oracle
    hash-matches), plus min/max cents.

    Shape: orders join customer for the nation key via the bucketed
    equi-join, then ONE groupby(nation) map_groups with a vectorized
    sort per group. Group count is O(nations) — each group must fit a
    task, the documented holistic-aggregate co-location assumption; a
    heavy-group variant is BUILT as q_nation_p90_order's two-pass
    counting-sort path (same join, rank (n-1)//2)."""
    def _median(group: pa.Table) -> pa.Table:
        nk = int(group.column("c_nationkey")[0].as_py())
        c = np.sort(group.column("cents").to_numpy().astype(np.int64))
        return pa.table({
            "c_nationkey": pa.array([nk], pa.int64()),
            "n_orders": pa.array([c.size], pa.int64()),
            "median_cents": pa.array([int(c[(c.size - 1) // 2])],
                                     pa.int64()),
            "min_cents": pa.array([int(c[0])], pa.int64()),
            "max_cents": pa.array([int(c[-1])], pa.int64()),
        })

    return (
        _orders_nation_cents(sf_dir)
        .groupby("c_nationkey").map_groups(_median,
                                           batch_format="pyarrow")
    )


def _orders_nation_cents(sf_dir: str) -> ray.data.Dataset:
    """Shared bucketed orders⋈customer join: one (c_nationkey, cents)
    row per order — the input both holistic-quantile operators
    (q_nation_median_order, q_nation_p90_order) consume."""
    nb = table_buckets(sf_dir, "orders", "customer")

    def _order_rows(b: pa.Table) -> pa.Table:
        ck = b.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "nationkey": pa.array(np.full(ck.size, -1, np.int64),
                                  pa.int64()),
            "cents": pa.array(_cents(b.column("o_totalprice").to_numpy()),
                              pa.int64()),
        })

    def _cust_rows(b: pa.Table) -> pa.Table:
        ck = b.column("c_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "nationkey": pa.array(
                b.column("c_nationkey").to_numpy().astype(np.int64),
                pa.int64()),
            "cents": pa.array(np.zeros(ck.size, np.int64), pa.int64()),
        })

    def _attach(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy().astype(np.int64)
        natk = group.column("nationkey").to_numpy().astype(np.int64)
        cents = group.column("cents").to_numpy().astype(np.int64)
        build = natk >= 0
        bk, bn = key[build], natk[build]
        o = np.argsort(bk)
        bk, bn = bk[o], bn[o]
        pk, pc_ = key[~build], cents[~build]
        if bk.size:
            idx = np.minimum(np.searchsorted(bk, pk), bk.size - 1)
            hit = bk[idx] == pk
        else:
            idx = np.zeros(pk.size, np.int64)
            hit = np.zeros(pk.size, bool)
        return pa.table({
            "c_nationkey": pa.array(bn[idx[hit]], pa.int64()),
            "cents": pa.array(pc_[hit], pa.int64()),
        })

    orders = sized_read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(_order_rows, batch_format="pyarrow")
    cust = sized_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(_cust_rows, batch_format="pyarrow")
    return (orders.union(cust)
            .groupby("bkt").map_groups(_attach, batch_format="pyarrow"))


def q_fk_audit(sf_dir: str) -> ray.data.Dataset:
    """Referential-integrity audit — the data-quality gate a pipeline
    runs before trusting joins: for each FK edge, the number of child
    rows and how many are ORPHANS (no parent). Synthetic data should
    be clean (zero orphans) — the audit PROVES it rather than assumes
    it, and the same operator catches real corruption at 100 TB.

    Shape: each table is scanned ONCE (size-aware blocks, column
    union of every edge it participates in) emitting compressed
    (bucket, edge, key, n_child) partials — child keys deduped per
    batch with row counts, parent keys deduped flat — for ALL of its
    edge roles; the single union feeds ONE groupby(bucket).map_groups
    anti-join (per-edge searchsorted miss count inside each bucket)
    and a trivial second groupby over the ≤ buckets × edges partial
    rows. The previous plan ran 2 reads + a bucket shuffle PER EDGE
    (10 reads, 6 all-to-alls — 35 s at sf0.1; this one runs ~3 s).
    Edges audited: lineitem→orders, lineitem→part,
    lineitem→supplier, orders→customer, customer→nation."""
    nb = table_buckets(sf_dir, "lineitem", "orders", "part", "supplier",
                       "customer", "nation")
    # edge id -> (child_tbl, child_col, parent_tbl, parent_col, name)
    edges = [
        ("lineitem", "l_orderkey", "orders", "o_orderkey",
         "lineitem->orders"),
        ("lineitem", "l_partkey", "part", "p_partkey",
         "lineitem->part"),
        ("lineitem", "l_suppkey", "supplier", "s_suppkey",
         "lineitem->supplier"),
        ("orders", "o_custkey", "customer", "c_custkey",
         "orders->customer"),
        ("customer", "c_nationkey", "nation", "n_nationkey",
         "customer->nation"),
    ]
    # table -> [(edge_id, column, is_parent)]
    roles: dict[str, list[tuple[int, str, bool]]] = {}
    for eid, (ct, cc, pt, pcol, _) in enumerate(edges):
        # `pcol`, not `pc`: the pyarrow.compute alias stays unshadowed
        roles.setdefault(ct, []).append((eid, cc, False))
        roles.setdefault(pt, []).append((eid, pcol, True))

    def _rows(batch: pa.Table,
              rs: tuple[tuple[int, str, bool], ...]) -> pa.Table:
        bkt_o, eid_o, key_o, n_o = [], [], [], []
        for eid, col, is_parent in rs:
            if batch.num_rows == 0:
                continue
            k = batch.column(col).to_numpy().astype(np.int64)
            uk, cnt = np.unique(k, return_counts=True)
            bkt_o.append(uk % nb)
            eid_o.append(np.full(uk.size, eid, np.int8))
            key_o.append(uk)
            # parents carry n_child = -1 (marker); children their count
            n_o.append(np.full(uk.size, -1, np.int64) if is_parent
                       else cnt.astype(np.int64))
        if not bkt_o:
            return pa.table({"bkt": pa.array([], pa.int64()),
                             "edge": pa.array([], pa.int8()),
                             "key": pa.array([], pa.int64()),
                             "n_child": pa.array([], pa.int64())})
        return pa.table({
            "bkt": pa.array(np.concatenate(bkt_o), pa.int64()),
            "edge": pa.array(np.concatenate(eid_o), pa.int8()),
            "key": pa.array(np.concatenate(key_o), pa.int64()),
            "n_child": pa.array(np.concatenate(n_o), pa.int64()),
        })

    names = [e[4] for e in edges]

    def _count(group: pa.Table) -> pa.Table:
        eid = group.column("edge").to_numpy().astype(np.int64)
        key = group.column("key").to_numpy().astype(np.int64)
        n = group.column("n_child").to_numpy().astype(np.int64)
        out_e, out_rows, out_orph = [], [], []
        for e in np.unique(eid):
            m = eid == e
            isp = n[m] < 0
            pk = np.unique(key[m][isp])
            ck, cn = key[m][~isp], n[m][~isp]
            if pk.size:
                idx = np.minimum(np.searchsorted(pk, ck), pk.size - 1)
                orphan = pk[idx] != ck
            else:
                orphan = np.ones(ck.size, bool)
            out_e.append(names[int(e)])
            out_rows.append(int(cn.sum()))
            out_orph.append(int(cn[orphan].sum()))
        return pa.table({
            "fk_edge": pa.array(out_e, pa.string()),
            "n_child_rows": pa.array(out_rows, pa.int64()),
            "n_orphans": pa.array(out_orph, pa.int64()),
        })

    parts = []
    for tbl, rs in roles.items():
        cols = sorted({c for _, c, _ in rs})
        parts.append(
            sized_read(sf_dir, tbl, cols)
            .map_batches(_rows, fn_kwargs={"rs": tuple(rs)},
                         batch_format="pyarrow"))
    unioned = parts[0].union(*parts[1:])
    return (unioned
            .groupby("bkt").map_groups(_count, batch_format="pyarrow")
            .groupby("fk_edge")      # ≤ buckets × edges partial rows
            .aggregate(Sum("n_child_rows", alias_name="n_child_rows"),
                       Sum("n_orphans", alias_name="n_orphans")))


P90_VALUE_BUCKET = np.int64(100_000)   # cents per histogram bucket


def q_nation_p90_order(sf_dir: str) -> ray.data.Dataset:
    """Exact per-nation 90th-percentile order value WITHOUT group
    co-location — the two-pass counting-sort quantile that
    q_nation_median_order's docstring promises for heavy groups. No
    task ever holds a nation's full value set:

    Pass 1 histograms values into fixed-width buckets
    (P90_VALUE_BUCKET cents): per-batch partials → one small groupby →
    a per-nation prefix scan over its O(value_range/width) bucket
    counts finds the bucket CONTAINING rank (9·(n−1))//10 and the
    remaining offset inside it.
    Pass 2 rescans only rows falling in each nation's target bucket
    (a ~1/buckets fraction of the table), co-locates those few values
    per nation, sorts, and picks the offset element. Exact for any
    distribution; skew only widens pass 2 by the heaviest bucket,
    bounded by width choice. Output: (c_nationkey, n_orders,
    p90_cents), integer-exact vs the window-formulation oracle.

    The nation key comes from the shared bucketed orders⋈customer
    join (_orders_nation_cents), materialized ONCE and reused by both
    passes (object-store blocks, O(orders) rows — the rescan reads
    them, not the base tables)."""
    B = P90_VALUE_BUCKET

    joined = _orders_nation_cents(sf_dir).materialize()

    def _hist_partial(batch: pa.Table) -> pa.Table:
        nk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        vb = batch.column("cents").to_numpy().astype(np.int64) // B
        key = nk * np.int64(1 << 32) + vb   # cents >= 0 so vb >= 0
        u, n = np.unique(key, return_counts=True)
        return pa.table({
            "c_nationkey": pa.array(u >> np.int64(32), pa.int64()),
            "vbucket": pa.array(u & np.int64(0xFFFFFFFF), pa.int64()),
            "n": pa.array(n, pa.int64()),
        })

    def _find_bucket(group: pa.Table) -> pa.Table:
        nk = int(group.column("c_nationkey")[0].as_py())
        vb0 = group.column("vbucket").to_numpy().astype(np.int64)
        n0 = group.column("n").to_numpy().astype(np.int64)
        # partial rows arrive un-aggregated (one per vbucket per input
        # block) — fold here instead of a separate groupby pass
        vb, n = group_sum(vb0, n0)
        total = int(n.sum())
        rank = (9 * (total - 1)) // 10          # 0-based target index
        cum = np.cumsum(n)
        bi = int(np.searchsorted(cum, rank + 1))
        offset = rank - (int(cum[bi - 1]) if bi else 0)
        return pa.table({
            "c_nationkey": pa.array([nk], pa.int64()),
            "target_bucket": pa.array([int(vb[bi])], pa.int64()),
            "offset": pa.array([offset], pa.int64()),
            "n_orders": pa.array([total], pa.int64()),
        })

    targets = (
        joined.map_batches(_hist_partial, batch_format="pyarrow")
        .groupby("c_nationkey")
        .map_groups(_find_bucket, batch_format="pyarrow")
        .to_arrow_refs()
    )
    tt = pa.concat_tables(
        [t for t in ray.get(targets) if t.num_rows > 0])
    tnk = tt.column("c_nationkey").to_numpy().astype(np.int64)
    o = np.argsort(tnk)
    tgt_ref = ray.put((
        tnk[o],
        tt.column("target_bucket").to_numpy().astype(np.int64)[o],
        tt.column("offset").to_numpy().astype(np.int64)[o],
        tt.column("n_orders").to_numpy().astype(np.int64)[o],
    ))

    def _pass2_filter(batch: pa.Table) -> pa.Table:
        nk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        c = batch.column("cents").to_numpy().astype(np.int64)
        tn, tb, _, _ = ray.get(tgt_ref)
        idx = np.searchsorted(tn, nk)        # every nation has a target
        keep = c // B == tb[idx]
        return pa.table({
            "c_nationkey": pa.array(nk[keep], pa.int64()),
            "cents": pa.array(c[keep], pa.int64()),
        })

    def _pick(group: pa.Table) -> pa.Table:
        nk = int(group.column("c_nationkey")[0].as_py())
        c = np.sort(group.column("cents").to_numpy().astype(np.int64))
        tn, _, toff, tcnt = ray.get(tgt_ref)
        i = int(np.searchsorted(tn, nk))
        return pa.table({
            "c_nationkey": pa.array([nk], pa.int64()),
            "n_orders": pa.array([int(tcnt[i])], pa.int64()),
            "p90_cents": pa.array([int(c[int(toff[i])])], pa.int64()),
        })

    return (
        joined
        .map_batches(_pass2_filter, batch_format="pyarrow")
        .groupby("c_nationkey").map_groups(_pick,
                                           batch_format="pyarrow")
    )


BLOOM_JOIN_M = np.int64(1 << 17)          # bloom bit FLOOR (grows with keys)
BLOOM_BITS_PER_KEY = 16                    # k=3 @ 16 bits/key -> ~2-3% fp
_BLOOM_JOIN_SALTS = (np.int64(0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF),
                     np.int64(0xC2B2AE3D27D4EB4F & 0x7FFFFFFFFFFFFFFF),
                     np.int64(0x165667B19E3779F9 & 0x7FFFFFFFFFFFFFFF))


def bloom_join_size(n_keys: int) -> int:
    """Bits sized to the build-side key count (next power of two ≥
    BLOOM_BITS_PER_KEY per key, floored at BLOOM_JOIN_M): a fixed M
    saturates once n_keys ≫ M/16 and the filter degrades to 'everyone
    is maybe' — sizing from the count the build pass sees anyway keeps
    the false-positive rate flat at any scale factor."""
    m = int(BLOOM_JOIN_M)
    while m < BLOOM_BITS_PER_KEY * max(n_keys, 1):
        m <<= 1
    return m


def _bloom_join_bits(keys: np.ndarray, m: int) -> np.ndarray:
    """k=3 salted mix hashes of int64 keys → bit indices (int64)."""
    out = []
    for c in _BLOOM_JOIN_SALTS:
        h = (keys.astype(np.uint64) * np.uint64(c))
        h ^= h >> np.uint64(29)
        out.append((h % np.uint64(m)).astype(np.int64))
    return np.concatenate(out)


def q_customers_no_orders_bloom(sf_dir: str) -> ray.data.Dataset:
    """Bloom-accelerated ANTI join — the semi-join-reduction technique:
    a tiny bloom filter of the (date-scoped) order custkeys broadcasts
    to every customer batch, and customers the bloom DEFINITELY rules
    out skip the shuffle entirely (a bloom has no false negatives, so
    'absent' is proof of no order); only possible members — true
    matches plus the filter's false positives — take the bucketed
    exact anti-join path. Result is bit-identical to
    q_customers_no_orders (the driver maps both to the SAME oracle:
    plan-equivalence proof, like the salted join), while the shuffle
    carries a fraction of the rows. At 100 TB this is the difference
    between shuffling every probe row and shuffling ~|matches|."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    lo = np.datetime64(Q5_DATE_LO, "us")
    hi = np.datetime64(Q5_DATE_HI, "us")
    nb = table_buckets(sf_dir, "orders", "customer")
    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_name"])
    nk = nation.column("n_nationkey").to_numpy().astype(np.int64)
    nnames = np.asarray(nation.column("n_name").to_pylist(), object)
    o = np.argsort(nk)
    nat_ref = ray.put((nk[o], nnames[o]))

    def _order_keys_distinct(batch: pa.Table) -> pa.Table:
        ck = np.unique(batch.column("o_custkey").to_numpy()
                       .astype(np.int64))
        return pa.table({"key": pa.array(ck, pa.int64())})

    orders_scoped = sized_read(sf_dir, "orders", ["o_custkey", "o_orderdate"], filter=((pc.field("o_orderdate") >= pa.scalar(lo, pa.timestamp("us")))
                & (pc.field("o_orderdate") < pa.scalar(hi, pa.timestamp("us")))))
    key_parts = ray.get(orders_scoped.map_batches(
        _order_keys_distinct, batch_format="pyarrow").to_arrow_refs())
    build_keys = np.unique(np.concatenate(
        [t.column("key").to_numpy().astype(np.int64)
         for t in key_parts if t.num_rows]
        or [np.empty(0, np.int64)]))
    m = bloom_join_size(build_keys.size)
    bloom = np.zeros(m, bool)
    if build_keys.size:
        bloom[_bloom_join_bits(build_keys, m)] = True
    bloom_ref = ray.put(bloom)

    def _cust_split(batch: pa.Table) -> pa.Table:
        """bkt = -1 rows are bloom-proven no-order customers: they skip
        the shuffle as per-nation count partials."""
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        nat = batch.column("c_nationkey").to_numpy().astype(np.int64)
        bl = ray.get(bloom_ref)
        k = len(_BLOOM_JOIN_SALTS)
        hits = bl[_bloom_join_bits(ck, bl.size).reshape(k, ck.size)]
        maybe = hits.all(axis=0)
        u, cnt = np.unique(nat[~maybe], return_counts=True)
        return pa.table({
            "bkt": pa.array(np.concatenate((
                ck[maybe] % nb, np.full(u.size, -1, np.int64))),
                pa.int64()),
            "key": pa.array(np.concatenate((
                ck[maybe], np.zeros(u.size, np.int64))), pa.int64()),
            "nat": pa.array(np.concatenate((nat[maybe], u)), pa.int64()),
            "n_sure": pa.array(np.concatenate((
                np.zeros(int(maybe.sum()), np.int64), cnt)), pa.int64()),
        })

    def _order_rows(batch: pa.Table) -> pa.Table:
        ck = np.unique(batch.column("o_custkey").to_numpy()
                       .astype(np.int64))
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "nat": pa.array(np.full(ck.size, -1, np.int64), pa.int64()),
            "n_sure": pa.array(np.zeros(ck.size, np.int64), pa.int64()),
        })

    def _anti(group: pa.Table) -> pa.Table:
        nk_b, nname_b = ray.get(nat_ref)
        bkt0 = int(group.column("bkt")[0].as_py())
        nat = group.column("nat").to_numpy().astype(np.int64)
        if bkt0 == -1:   # bloom-proven partials: pass counts through
            ns = group.column("n_sure").to_numpy().astype(np.int64)
            u, s = group_sum(nat, ns)
            names = nname_b[np.searchsorted(nk_b, u)]
            return pa.table({
                "n_name": pa.array(names.tolist(), pa.string()),
                "n_customers": pa.array(s, pa.int64()),
            })
        key = group.column("key").to_numpy().astype(np.int64)
        cust = nat >= 0
        probe = np.unique(key[~cust])
        ck, cn = key[cust], nat[cust]
        if probe.size:
            idx = np.minimum(np.searchsorted(probe, ck), probe.size - 1)
            lonely = probe[idx] != ck
        else:
            lonely = np.ones(ck.size, bool)
        if not lonely.any():
            return pa.table({"n_name": pa.array([], pa.string()),
                             "n_customers": pa.array([], pa.int64())})
        u, cnt = np.unique(cn[lonely], return_counts=True)
        names = nname_b[np.searchsorted(nk_b, u)]
        return pa.table({
            "n_name": pa.array(names.tolist(), pa.string()),
            "n_customers": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    cust = sized_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(_cust_split, batch_format="pyarrow")
    orders = orders_scoped.map_batches(_order_rows,
                                       batch_format="pyarrow")
    return (
        cust.union(orders)
        .groupby("bkt").map_groups(_anti, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Sum("n_customers", alias_name="n_customers"))
    )


# ---------------------------------------------------------------------------
# Q7/Q8/Q10/Q21-shaped multi-join plans (session 7)
# ---------------------------------------------------------------------------

Q7_NATION_A = "NATION_1"
Q7_NATION_B = "NATION_2"
Q7_SHIP_LO = "1996-01-01"
Q7_SHIP_HI = "1998-01-01"


def _nation_lookup(sf_dir: str):
    """(sorted nationkeys, names aligned) from the tiny nation table."""
    import pyarrow.parquet as pq

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"))
    nk = nation.column("n_nationkey").to_numpy().astype(np.int64)
    nnames = np.asarray(nation.column("n_name").to_pylist(), object)
    o = np.argsort(nk)
    return nk[o], nnames[o], nation


def _supplier_nation_ref(sf_dir: str):
    """Broadcast suppkey -> nationkey as sorted parallel arrays. At a
    scale where supplier outgrows broadcast (~10^9 rows) this becomes a
    third bucketed union-tag exchange on suppkey — same machinery as
    join 1 (documented trade, q_local_supplier_volume)."""
    import pyarrow.parquet as pq

    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_nationkey"])
    sk = supp.column("s_suppkey").to_numpy().astype(np.int64)
    sn = supp.column("s_nationkey").to_numpy().astype(np.int64)
    o = np.argsort(sk)
    return ray.put((sk[o], sn[o]))


def q_volume_shipping(sf_dir: str) -> pa.Table:
    """TPC-H-Q7-shaped volume shipping: revenue flowing BETWEEN two
    nations per shipping year — lineitems whose supplier sits in nation
    A and whose ordering customer sits in nation B, or vice versa,
    shipped inside a two-year window.

        lineitem ⋈ orders ⋈ customer ⋈ supplier ⋈ nation ×2
        group by (supp_nation, cust_nation, year(l_shipdate))

    Plan (two bucketed shuffles, like Q5): nation + supplier broadcast;
    join 1 on custkey forwards ONE (okey, cust_nation) header per order
    of a customer in {A, B} (everyone else never enters the shuffle);
    lineitem rows resolve supp_nation from the broadcast map, keep only
    {A, B} suppliers, and compress to one partial-revenue row per
    (batch, okey, supp_nation, ship_year) BEFORE join 2 on okey, where
    the cross-nation rule (supp_nation != cust_nation) applies
    in-bucket. Final aggregate is O(2×2×years) rows."""
    import pyarrow.compute as pc

    nb = table_buckets(sf_dir, "customer", "orders", "lineitem")
    lo = np.datetime64(Q7_SHIP_LO, "us")
    hi = np.datetime64(Q7_SHIP_HI, "us")
    nk, nnames, _ = _nation_lookup(sf_dir)
    name2key = {n: int(k) for k, n in zip(nk, nnames)}
    ka, kb = name2key[Q7_NATION_A], name2key[Q7_NATION_B]
    pair = np.array(sorted((ka, kb)), np.int64)
    supp_ref = _supplier_nation_ref(sf_dir)
    # year-pack base/width derived from the window, not hardcoded: a
    # wider window must widen the pack, never silently corrupt keys
    ybase = int(Q7_SHIP_LO[:4])
    yspan = int(Q7_SHIP_HI[:4]) - ybase + 1
    if yspan > 16:
        raise ValueError("Q7 ship window spans > 16 years; widen the "
                         "year pack before extending the window")

    def _cust_rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        natk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        keep = np.isin(natk, pair)
        ck, natk = ck[keep], natk[keep]
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "okey": pa.array(np.full(ck.size, -1, np.int64), pa.int64()),
            "nat": pa.array(natk, pa.int64()),
        })

    def _order_rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "okey": pa.array(
                batch.column("o_orderkey").to_numpy().astype(np.int64),
                pa.int64()),
            "nat": pa.array(np.full(ck.size, -1, np.int64), pa.int64()),
        })

    def _join1(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        key = group.column("key").to_numpy().astype(np.int64)
        nat = group.column("nat").to_numpy().astype(np.int64)
        build = okey == -1
        bk, bn = key[build], nat[build]
        o = np.argsort(bk)
        bk, bn = bk[o], bn[o]
        pk = key[~build]
        if bk.size:
            idx = np.minimum(np.searchsorted(bk, pk), bk.size - 1)
            hit = bk[idx] == pk
        else:
            idx = np.zeros(pk.size, np.int64)
            hit = np.zeros(pk.size, bool)
        ok = okey[~build][hit]
        return pa.table({
            "bkt": pa.array(ok % nb, pa.int64()),
            "okey": pa.array(ok, pa.int64()),
            "nat": pa.array(bn[idx[hit]], pa.int64()),
            "year": pa.array(np.full(ok.size, -1, np.int64), pa.int64()),
            "rev": pa.array(np.full(ok.size, -1, np.int64), pa.int64()),
        })

    def _li_partial(batch: pa.Table) -> pa.Table:
        sk_s, sn_s = ray.get(supp_ref)
        lok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        lsk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        ship = batch.column("l_shipdate").to_numpy()
        rev = _cents(batch.column("l_extendedprice").to_numpy()) \
            * (100 - _pct(batch.column("l_discount").to_numpy()))
        snat = sn_s[np.searchsorted(sk_s, lsk)]  # FK: every suppkey resolves
        keep = np.isin(snat, pair)
        lok, snat, rev = lok[keep], snat[keep], rev[keep]
        year = ship[keep].astype("datetime64[Y]").astype(np.int64) + 1970
        # compress: one row per (okey, supp_nation, year) per batch.
        # nationkey < 64 by schema; years span < 16 here (pack bound
        # documented: okey < 2^52 keeps the packed key inside int64 —
        # beyond that, pack into two int64 columns and lexsort instead)
        pk = (lok * np.int64(64) + snat) * np.int64(16) + (year - ybase)
        u, s = group_sum(pk, rev)
        ok_u = u // (64 * 16)
        return pa.table({
            "bkt": pa.array(ok_u % nb, pa.int64()),
            "okey": pa.array(ok_u, pa.int64()),
            "nat": pa.array((u // 16) % 64, pa.int64()),
            "year": pa.array(u % 16 + ybase, pa.int64()),
            "rev": pa.array(s, pa.int64()),
        })

    def _join2(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        nat = group.column("nat").to_numpy().astype(np.int64)
        year = group.column("year").to_numpy().astype(np.int64)
        rev = group.column("rev").to_numpy().astype(np.int64)
        build = rev == -1            # (okey, cust_nation) headers
        bo, bn = okey[build], nat[build]
        o = np.argsort(bo)
        bo, bn = bo[o], bn[o]
        pk, psn, py, pv = okey[~build], nat[~build], year[~build], rev[~build]
        if bo.size:
            idx = np.minimum(np.searchsorted(bo, pk), bo.size - 1)
            hit = (bo[idx] == pk) & (bn[idx] != psn)  # cross-nation rule
        else:
            idx = np.zeros(pk.size, np.int64)
            hit = np.zeros(pk.size, bool)
        if not hit.any():
            return pa.table({"snat": pa.array([], pa.int64()),
                             "cnat": pa.array([], pa.int64()),
                             "l_year": pa.array([], pa.int64()),
                             "revenue_milli": pa.array([], pa.int64())})
        sn_h, cn_h, y_h, v_h = psn[hit], bn[idx[hit]], py[hit], pv[hit]
        key = (sn_h * np.int64(64) + cn_h) * np.int64(16) + (y_h - ybase)
        u, s = group_sum(key, v_h)
        return pa.table({
            "snat": pa.array((u // 16) // 64, pa.int64()),
            "cnat": pa.array((u // 16) % 64, pa.int64()),
            "l_year": pa.array(u % 16 + ybase, pa.int64()),
            "revenue_milli": pa.array(s, pa.int64()),
        })

    cust = sized_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(_cust_rows, batch_format="pyarrow")
    orders = sized_read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(_order_rows, batch_format="pyarrow")
    qorders = cust.union(orders).groupby("bkt") \
        .map_groups(_join1, batch_format="pyarrow")
    li = sized_read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"], filter=((pc.field("l_shipdate") >= pa.scalar(lo, pa.timestamp("us")))
                & (pc.field("l_shipdate") < pa.scalar(hi, pa.timestamp("us")))),
    ).map_batches(_li_partial, batch_format="pyarrow")
    agg = (
        qorders.union(li)
        .groupby("bkt").map_groups(_join2, batch_format="pyarrow")
        .groupby(["snat", "cnat", "l_year"])
        .aggregate(Sum("revenue_milli", alias_name="revenue_milli"))
    ).to_pandas()
    if agg.empty:  # tiny corpora can produce no qualifying pairs
        return pa.table({
            "supp_nation": pa.array([], pa.string()),
            "cust_nation": pa.array([], pa.string()),
            "l_year": pa.array([], pa.int64()),
            "revenue_milli": pa.array([], pa.int64()),
        })
    key2name = {int(k): str(n) for k, n in zip(nk, nnames)}
    agg["supp_nation"] = agg["snat"].map(key2name)
    agg["cust_nation"] = agg["cnat"].map(key2name)
    agg = agg[["supp_nation", "cust_nation", "l_year", "revenue_milli"]] \
        .sort_values(["supp_nation", "cust_nation", "l_year"])
    return pa.Table.from_pandas(agg, preserve_index=False)


Q8_REGION = "EUROPE"
Q8_NATION = "NATION_3"
Q8_TYPE = "STANDARD"
Q8_DATE_LO = "1996-01-01"
Q8_DATE_HI = "1998-01-01"


def q_market_share(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q8-shaped market share: per order year, what fraction of
    the revenue that region-R customers spent on parts of one type came
    through suppliers of nation X. Emitted as exact integer numerator /
    denominator (national_milli, total_milli) per year — the share is
    num/den, never divided (float-free, like promo_revenue_share).

    Plan: part-type keyset, supplier→nation map and region nation set
    broadcast (at 10^9-row part/supplier the keyset becomes a bloom +
    bucketed semi-join — documented, q_customers_no_orders_bloom is the
    in-repo template); join 1 on custkey forwards (okey, order_year)
    headers for region customers' date-scoped orders; lineitem keeps
    typed parts only, flags national suppliers, compresses to one
    (okey, flag) partial per batch before join 2 on okey; final
    aggregate is O(years)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    nb = table_buckets(sf_dir, "customer", "orders", "lineitem")
    lo = np.datetime64(Q8_DATE_LO, "us")
    hi = np.datetime64(Q8_DATE_HI, "us")
    nk, nnames, nation = _nation_lookup(sf_dir)
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rkey = {r["r_name"]: r["r_regionkey"]
            for r in region.to_pylist()}[Q8_REGION]
    rnk = np.array(sorted(
        r["n_nationkey"] for r in nation.to_pylist()
        if r["n_regionkey"] == rkey), np.int64)
    xkey = {n: int(k) for k, n in zip(nk, nnames)}[Q8_NATION]
    supp_ref = _supplier_nation_ref(sf_dir)
    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_type"])
    typed = part.column("p_partkey").to_numpy().astype(np.int64)[
        np.asarray(part.column("p_type").to_pylist(), object) == Q8_TYPE]
    typed_ref = ray.put(np.sort(typed))

    def _cust_rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy().astype(np.int64)
        natk = batch.column("c_nationkey").to_numpy().astype(np.int64)
        keep = np.isin(natk, rnk)
        ck = ck[keep]
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "okey": pa.array(np.full(ck.size, -1, np.int64), pa.int64()),
            "year": pa.array(np.full(ck.size, -1, np.int64), pa.int64()),
        })

    def _order_rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        year = batch.column("o_orderdate").to_numpy() \
            .astype("datetime64[Y]").astype(np.int64) + 1970
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "okey": pa.array(
                batch.column("o_orderkey").to_numpy().astype(np.int64),
                pa.int64()),
            "year": pa.array(year, pa.int64()),
        })

    def _join1(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        key = group.column("key").to_numpy().astype(np.int64)
        year = group.column("year").to_numpy().astype(np.int64)
        build = okey == -1
        bk = np.sort(key[build])
        pk = key[~build]
        if bk.size:
            idx = np.minimum(np.searchsorted(bk, pk), bk.size - 1)
            hit = bk[idx] == pk
        else:
            hit = np.zeros(pk.size, bool)
        ok, yr = okey[~build][hit], year[~build][hit]
        return pa.table({
            "bkt": pa.array(ok % nb, pa.int64()),
            "okey": pa.array(ok, pa.int64()),
            "year": pa.array(yr, pa.int64()),
            "flag": pa.array(np.full(ok.size, -1, np.int64), pa.int64()),
            "rev": pa.array(np.full(ok.size, -1, np.int64), pa.int64()),
        })

    def _li_partial(batch: pa.Table) -> pa.Table:
        sk_s, sn_s = ray.get(supp_ref)
        tp = ray.get(typed_ref)
        lok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)
        lsk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        rev = _cents(batch.column("l_extendedprice").to_numpy()) \
            * (100 - _pct(batch.column("l_discount").to_numpy()))
        keep = np.isin(lpk, tp)
        lok, lsk, rev = lok[keep], lsk[keep], rev[keep]
        flag = (sn_s[np.searchsorted(sk_s, lsk)] == xkey).astype(np.int64)
        pk = lok * np.int64(2) + flag
        u, s = group_sum(pk, rev)
        return pa.table({
            "bkt": pa.array((u // 2) % nb, pa.int64()),
            "okey": pa.array(u // 2, pa.int64()),
            "year": pa.array(np.full(u.size, -1, np.int64), pa.int64()),
            "flag": pa.array(u % 2, pa.int64()),
            "rev": pa.array(s, pa.int64()),
        })

    def _join2(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        year = group.column("year").to_numpy().astype(np.int64)
        flag = group.column("flag").to_numpy().astype(np.int64)
        rev = group.column("rev").to_numpy().astype(np.int64)
        build = rev == -1
        bo, by = okey[build], year[build]
        o = np.argsort(bo)
        bo, by = bo[o], by[o]
        pk, pf, pv = okey[~build], flag[~build], rev[~build]
        if bo.size:
            idx = np.minimum(np.searchsorted(bo, pk), bo.size - 1)
            hit = bo[idx] == pk
        else:
            idx = np.zeros(pk.size, np.int64)
            hit = np.zeros(pk.size, bool)
        if not hit.any():
            return pa.table({"o_year": pa.array([], pa.int64()),
                             "national_milli": pa.array([], pa.int64()),
                             "total_milli": pa.array([], pa.int64())})
        yr, fl, rv = by[idx[hit]], pf[hit], pv[hit]
        u, nat_s, tot_s = group_sum(yr, rv * fl, rv)
        return pa.table({
            "o_year": pa.array(u, pa.int64()),
            "national_milli": pa.array(nat_s, pa.int64()),
            "total_milli": pa.array(tot_s, pa.int64()),
        })

    cust = sized_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(_cust_rows, batch_format="pyarrow")
    orders = sized_read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"], filter=((pc.field("o_orderdate") >= pa.scalar(lo, pa.timestamp("us")))
                & (pc.field("o_orderdate") < pa.scalar(hi, pa.timestamp("us")))),
    ).map_batches(_order_rows, batch_format="pyarrow")
    qorders = cust.union(orders).groupby("bkt") \
        .map_groups(_join1, batch_format="pyarrow")
    li = sized_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"]).map_batches(_li_partial, batch_format="pyarrow")
    return (
        qorders.union(li)
        .groupby("bkt").map_groups(_join2, batch_format="pyarrow")
        .groupby("o_year")
        .aggregate(Sum("national_milli", alias_name="national_milli"),
                   Sum("total_milli", alias_name="total_milli"))
    )


Q10_DATE_LO = "1996-10-01"
Q10_DATE_HI = "1997-01-01"
Q10_TOPK = 20


def q_returned_items(sf_dir: str) -> pa.Table:
    """TPC-H-Q10-shaped returned-item reporting: the TOP_K customers by
    revenue lost to returned lineitems (l_returnflag = 'R') on orders
    placed inside one quarter, with name and nation attached.

    Plan: orders date-filter at the read → (okey, custkey) headers;
    returned lineitems compress to one (okey, rev) partial per batch;
    ONE bucketed join on okey rewrites partials to custkey; a groupby +
    dataset-side sort/limit picks the K winners (ties broken custkey
    asc); ONLY THEN does the customer table enter — a predicate-pushdown
    point read of K rows (the dimension attach never shuffles and never
    broadcasts the full customer table)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    nb = table_buckets(sf_dir, "orders", "lineitem")
    lo = np.datetime64(Q10_DATE_LO, "us")
    hi = np.datetime64(Q10_DATE_HI, "us")

    def _order_rows(batch: pa.Table) -> pa.Table:
        ok = batch.column("o_orderkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(ok % nb, pa.int64()),
            "okey": pa.array(ok, pa.int64()),
            "ck": pa.array(
                batch.column("o_custkey").to_numpy().astype(np.int64),
                pa.int64()),
            "rev": pa.array(np.full(ok.size, -1, np.int64), pa.int64()),
        })

    def _li_partial(batch: pa.Table) -> pa.Table:
        lok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        rev = _cents(batch.column("l_extendedprice").to_numpy()) \
            * (100 - _pct(batch.column("l_discount").to_numpy()))
        u, s = group_sum(lok, rev)
        return pa.table({
            "bkt": pa.array(u % nb, pa.int64()),
            "okey": pa.array(u, pa.int64()),
            "ck": pa.array(np.full(u.size, -1, np.int64), pa.int64()),
            "rev": pa.array(s, pa.int64()),
        })

    def _join(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        ck = group.column("ck").to_numpy().astype(np.int64)
        rev = group.column("rev").to_numpy().astype(np.int64)
        build = rev == -1
        bo, bc = okey[build], ck[build]
        o = np.argsort(bo)
        bo, bc = bo[o], bc[o]
        pk, pv = okey[~build], rev[~build]
        if bo.size:
            idx = np.minimum(np.searchsorted(bo, pk), bo.size - 1)
            hit = bo[idx] == pk
        else:
            idx = np.zeros(pk.size, np.int64)
            hit = np.zeros(pk.size, bool)
        if not hit.any():
            return pa.table({"c_custkey": pa.array([], pa.int64()),
                             "revenue_milli": pa.array([], pa.int64())})
        cu, s = group_sum(bc[idx[hit]], pv[hit])
        return pa.table({
            "c_custkey": pa.array(cu, pa.int64()),
            "revenue_milli": pa.array(s, pa.int64()),
        })

    orders = sized_read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"], filter=((pc.field("o_orderdate") >= pa.scalar(lo, pa.timestamp("us")))
                & (pc.field("o_orderdate") < pa.scalar(hi, pa.timestamp("us")))),
    ).map_batches(_order_rows, batch_format="pyarrow")
    li = sized_read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"], filter=(pc.field("l_returnflag") == "R"),
    ).map_batches(_li_partial, batch_format="pyarrow")
    top = (
        orders.union(li)
        .groupby("bkt").map_groups(_join, batch_format="pyarrow")
        .groupby("c_custkey")
        .aggregate(Sum("revenue_milli", alias_name="revenue_milli"))
        .sort(key=["revenue_milli", "c_custkey"], descending=[True, False])
        .limit(Q10_TOPK)
        .take_all()
    )
    keys = np.array([r["c_custkey"] for r in top], np.int64)
    revs = {int(r["c_custkey"]): int(r["revenue_milli"]) for r in top}
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_nationkey"],
        filters=[("c_custkey", "in", keys.tolist())]) if keys.size else \
        pa.table({"c_custkey": pa.array([], pa.int64()),
                  "c_name": pa.array([], pa.string()),
                  "c_nationkey": pa.array([], pa.int32())})
    nk, nnames, _ = _nation_lookup(sf_dir)
    rows = sorted(cust.to_pylist(),
                  key=lambda r: (-revs[r["c_custkey"]], r["c_custkey"]))
    return pa.table({
        "c_custkey": pa.array([r["c_custkey"] for r in rows], pa.int64()),
        "c_name": pa.array([r["c_name"] for r in rows], pa.string()),
        "n_name": pa.array(
            [str(nnames[np.searchsorted(nk, r["c_nationkey"])])
             for r in rows], pa.string()),
        "revenue_milli": pa.array(
            [revs[r["c_custkey"]] for r in rows], pa.int64()),
    })


Q21_LATE_DAYS = 1400
Q21_TOPK = 25


def q_waiting_suppliers(sf_dir: str) -> pa.Table:
    """TPC-H-Q21-shaped waiting-supplier count: suppliers who were the
    ONLY late supplier on a finished ('F') multi-supplier order, ranked
    by how many such orders they spoiled. "Late" adapts Q21's
    receipt-vs-commit rule to this schema: a supplier is late on an
    order iff any of its lineitems shipped more than Q21_LATE_DAYS
    after the order date (the synthetic corpus has no commit/receipt
    columns; the EXISTS / NOT-EXISTS plan shape is what's exercised).

    Plan: both existential subqueries collapse into ONE group-local
    computation — lineitem compresses to (okey, suppkey, max_shipdate)
    partials per batch (max witnesses 'any line late', like Q4's
    aggregate semi-join), 'F' orders forward (okey, orderdate) headers,
    and a single bucketed shuffle on okey co-locates each order's
    suppliers so n_suppliers ≥ 2 ∧ n_late = 1 ∧ late(s) evaluates
    vectorized per bucket. Supplier names attach as a broadcast of the
    tiny dimension; final rank is a groupby + sort/limit."""
    import pyarrow.parquet as pq

    nb = table_buckets(sf_dir, "orders", "lineitem")
    late_us = np.int64(Q21_LATE_DAYS) * 86_400_000_000

    def _order_rows(batch: pa.Table) -> pa.Table:
        st = np.asarray(batch.column("o_orderstatus").to_pylist(), object)
        keep = st == "F"
        ok = batch.column("o_orderkey").to_numpy().astype(np.int64)[keep]
        od = batch.column("o_orderdate").to_numpy().astype(np.int64)[keep]
        return pa.table({
            "bkt": pa.array(ok % nb, pa.int64()),
            "okey": pa.array(ok, pa.int64()),
            "sk": pa.array(np.full(ok.size, -1, np.int64), pa.int64()),
            "ship": pa.array(od, pa.int64()),   # header: orderdate_us
        })

    def _li_partial(batch: pa.Table) -> pa.Table:
        lok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        lsk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        ship = batch.column("l_shipdate").to_numpy().astype(np.int64)
        # one (okey, suppkey, max ship) row per pair per batch
        order = np.lexsort((lsk, lok))
        lok, lsk, ship = lok[order], lsk[order], ship[order]
        new = np.empty(lok.size, bool)
        new[:1] = True
        new[1:] = (lok[1:] != lok[:-1]) | (lsk[1:] != lsk[:-1])
        starts = np.flatnonzero(new)
        mx = np.maximum.reduceat(ship, starts) if lok.size else ship
        return pa.table({
            "bkt": pa.array(lok[starts] % nb, pa.int64()),
            "okey": pa.array(lok[starts], pa.int64()),
            "sk": pa.array(lsk[starts], pa.int64()),
            "ship": pa.array(mx, pa.int64()),
        })

    def _join(group: pa.Table) -> pa.Table:
        okey = group.column("okey").to_numpy().astype(np.int64)
        sk = group.column("sk").to_numpy().astype(np.int64)
        ship = group.column("ship").to_numpy().astype(np.int64)
        build = sk == -1
        bo, bd = okey[build], ship[build]
        o = np.argsort(bo)
        bo, bd = bo[o], bd[o]
        pk, psk, pship = okey[~build], sk[~build], ship[~build]
        # batch partials may repeat a (okey, suppkey) pair: recombine max
        order = np.lexsort((psk, pk))
        pk, psk, pship = pk[order], psk[order], pship[order]
        if pk.size:
            new = np.empty(pk.size, bool)
            new[:1] = True
            new[1:] = (pk[1:] != pk[:-1]) | (psk[1:] != psk[:-1])
            starts = np.flatnonzero(new)
            pk, psk = pk[starts], psk[starts]
            pship = np.maximum.reduceat(pship, starts)
        if bo.size and pk.size:
            idx = np.minimum(np.searchsorted(bo, pk), bo.size - 1)
            hit = bo[idx] == pk          # order is 'F'
        else:
            idx = np.zeros(pk.size, np.int64)
            hit = np.zeros(pk.size, bool)
        pk, psk, pship, odate = pk[hit], psk[hit], pship[hit], bd[idx[hit]]
        if not pk.size:
            return pa.table({"s_suppkey": pa.array([], pa.int64()),
                             "numwait": pa.array([], pa.int64())})
        late = pship > odate + late_us
        # per order (pk is sorted, one row per supplier): size + late count
        starts = run_starts(pk)
        n_supp = np.diff(np.append(starts, pk.size))
        n_late = np.add.reduceat(late.astype(np.int64), starts)
        keep = late & np.repeat((n_supp >= 2) & (n_late == 1), n_supp)
        if not keep.any():
            return pa.table({"s_suppkey": pa.array([], pa.int64()),
                             "numwait": pa.array([], pa.int64())})
        u, cnt = np.unique(psk[keep], return_counts=True)
        return pa.table({
            "s_suppkey": pa.array(u, pa.int64()),
            "numwait": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    orders = sized_read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderstatus"]).map_batches(_order_rows, batch_format="pyarrow")
    li = sized_read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"]).map_batches(_li_partial, batch_format="pyarrow")
    agg = (
        orders.union(li)
        .groupby("bkt").map_groups(_join, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("numwait", alias_name="numwait"))
        .sort(key=["numwait", "s_suppkey"], descending=[True, False])
        .limit(Q21_TOPK)
        .take_all()
    )
    keys = [int(r["s_suppkey"]) for r in agg]
    supp = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", keys)]) if keys else \
        pa.table({"s_suppkey": pa.array([], pa.int64()),
                  "s_name": pa.array([], pa.string())})
    name = {r["s_suppkey"]: r["s_name"] for r in supp.to_pylist()}
    return pa.table({
        "s_suppkey": pa.array([int(r["s_suppkey"]) for r in agg],
                              pa.int64()),
        "s_name": pa.array([name[int(r["s_suppkey"])] for r in agg],
                           pa.string()),
        "numwait": pa.array([int(r["numwait"]) for r in agg], pa.int64()),
    })


TOPN_PER_CUSTOMER = 3


def q_top_orders_per_customer(sf_dir: str) -> ray.data.Dataset:
    """Per-group top-N with explicit rank — the ROW_NUMBER() window
    dedup/ranking shape (keep each customer's 3 priciest orders): rank
    by (total_cents desc, o_orderkey asc), emit (c_custkey, rnk,
    o_orderkey, total_cents).

    Shape: ONE bucketed shuffle on custkey hash; each bucket ranks all
    its customers with a single lexsort + segment-boundary subtraction
    (rank = position − segment start, no per-customer loop) and keeps
    rank ≤ N. Unlike the argmax entry (last_touch) this emits multiple
    ranked rows per group; output is O(N × customers), never
    order-grain after the shuffle."""
    nb = table_buckets(sf_dir, "orders")

    def _rows(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "ck": pa.array(ck, pa.int64()),
            "okey": pa.array(
                batch.column("o_orderkey").to_numpy().astype(np.int64),
                pa.int64()),
            "cents": pa.array(
                _cents(batch.column("o_totalprice").to_numpy()),
                pa.int64()),
        })

    def _rank(group: pa.Table) -> pa.Table:
        ck = group.column("ck").to_numpy().astype(np.int64)
        ok = group.column("okey").to_numpy().astype(np.int64)
        cents = group.column("cents").to_numpy().astype(np.int64)
        order = np.lexsort((ok, -cents, ck))
        ck, ok, cents = ck[order], ok[order], cents[order]
        new = np.empty(ck.size, bool)
        new[:1] = True
        new[1:] = ck[1:] != ck[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        rnk = np.arange(ck.size, dtype=np.int64) - starts[seg] + 1
        keep = rnk <= TOPN_PER_CUSTOMER
        return pa.table({
            "c_custkey": pa.array(ck[keep], pa.int64()),
            "rnk": pa.array(rnk[keep], pa.int64()),
            "o_orderkey": pa.array(ok[keep], pa.int64()),
            "total_cents": pa.array(cents[keep], pa.int64()),
        })

    return (
        sized_read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
        .map_batches(_rows, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(_rank, batch_format="pyarrow")
    )


CUBE_ALL = "ALL"


def q_orders_cube(sf_dir: str) -> ray.data.Dataset:
    """CUBE lattice aggregate over (o_orderstatus, o_orderpriority):
    counts and total cents for every grouping-set level — (s, p), (s),
    (p), and the grand total — with '{ALL}' as the rolled-up sentinel.
    Completes the grouping-set family next to nation_rollup (ROLLUP is
    the prefix chain; CUBE is the full lattice).

    Shape: the lattice derives from the BASE aggregate, never from the
    fact rows — one compressed groupby to O(status × priority) base
    rows, then a 4-way expansion of that tiny table and a second
    O(lattice) groupby. Fact rows are touched once."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        st = np.asarray(batch.column("o_orderstatus").to_pylist(), object)
        pr = np.asarray(batch.column("o_orderpriority").to_pylist(), object)
        cents = _cents(batch.column("o_totalprice").to_numpy())
        # vectorized two-column factorize + integer pack (no per-row
        # string keys in the hot path)
        us, si = np.unique(st, return_inverse=True)
        up, pi = np.unique(pr, return_inverse=True)
        code = si.astype(np.int64) * up.size + pi
        u, n, s = group_sum(code, np.ones(code.size, np.int64), cents)
        return pa.table({
            "o_orderstatus": pa.array(us[u // up.size].tolist(),
                                      pa.string()),
            "o_orderpriority": pa.array(up[u % up.size].tolist(),
                                        pa.string()),
            "n_orders": pa.array(n, pa.int64()),
            "total_cents": pa.array(s, pa.int64()),
        })

    def _lattice(batch: pa.Table) -> pa.Table:
        st = np.asarray(batch.column("o_orderstatus").to_pylist(), object)
        pr = np.asarray(batch.column("o_orderpriority").to_pylist(), object)
        n = batch.column("n_orders").to_numpy().astype(np.int64)
        c = batch.column("total_cents").to_numpy().astype(np.int64)
        all_ = np.full(st.size, CUBE_ALL, object)
        return pa.table({
            "o_orderstatus": pa.array(
                np.concatenate((st, st, all_, all_)).tolist(), pa.string()),
            "o_orderpriority": pa.array(
                np.concatenate((pr, all_, pr, all_)).tolist(), pa.string()),
            "n_orders": pa.array(np.tile(n, 4), pa.int64()),
            "total_cents": pa.array(np.tile(c, 4), pa.int64()),
        })

    return (
        sized_read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority", "o_totalprice"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["o_orderstatus", "o_orderpriority"])
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("total_cents", alias_name="total_cents"))
        .map_batches(_lattice, batch_format="pyarrow")
        .groupby(["o_orderstatus", "o_orderpriority"])
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("total_cents", alias_name="total_cents"))
    )


def q_order_global_rank(sf_dir: str, num_blocks: int = 32) -> ray.data.Dataset:
    """GLOBAL dense row-number over a distributed sort — the total-
    ordering primitive (sample-sort shape) the surface only used
    internally (token_offsets): every order's exact global rank by
    (total_cents desc, o_orderkey asc).

    Shape: distributed range-partitioned sort → `num_blocks` ordered
    blocks stay in the object store → the driver holds ONLY per-block
    row counts and their exclusive prefix (O(num_blocks)); each block
    adds its base to a local arange. No driver materialization, no
    sequential scan — rank assignment is embarrassingly parallel after
    the one sort."""
    def _rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": pa.array(
                batch.column("o_orderkey").to_numpy().astype(np.int64),
                pa.int64()),
            "total_cents": pa.array(
                _cents(batch.column("o_totalprice").to_numpy()),
                pa.int64()),
        })

    from candidategeneration_ray.stages.docids import blocked_prefix_apply

    ds = (
        sized_read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
        .map_batches(_rows, batch_format="pyarrow")
        .sort(key=["total_cents", "o_orderkey"], descending=[True, False])
    )

    def _emit(t: pa.Table, base: int) -> pa.Table:
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "total_cents": t.column("total_cents"),
            "rnk": pa.array(
                base + 1 + np.arange(t.num_rows, dtype=np.int64),
                pa.int64()),
        })

    return blocked_prefix_apply(ds, num_blocks,
                                lambda t: t.num_rows, _emit)


STRAT_BUDGET = 10_000


def q_stratified_budget(sf_dir: str,
                        budget: int = STRAT_BUDGET) -> pa.Table:
    """Exact integer budget allocation across strata — Hamilton's
    largest-remainder method (the deterministic way to split a sample
    budget of B docs proportionally across sources with NO fractional
    seats): base_i = B·n_i // N, then the B − Σbase leftover units go
    to the largest remainders (B·n_i mod N), ties by source name asc.
    Σ alloc == B exactly — the property proportional-float rounding
    can't give. This is the planning half of mixture sampling
    (source_sample executes a rate; this chooses the rates).

    Shape: one compressed groupby to O(sources) counts; the
    allocation itself is O(sources) driver arithmetic (documented
    tiny — sources number in the hundreds at any scale)."""
    from ray.data.aggregate import Count

    rows = (
        sized_read(sf_dir, "documents", ["source"])
        .groupby("source")
        .aggregate(Count(alias_name="n_docs"))
        .take_all()
    )
    src = np.asarray([r["source"] for r in rows], object)
    n = np.array([r["n_docs"] for r in rows], np.int64)
    order = np.argsort(src)
    src, n = src[order], n[order]
    total = np.int64(n.sum())
    b = np.int64(budget)
    base = b * n // total
    rem = b * n % total
    extra = int(b - base.sum())
    # largest remainder, ties by source asc (src already sorted)
    give = np.zeros(n.size, np.int64)
    if extra > 0:
        winners = np.lexsort((np.arange(n.size), -rem))[:extra]
        give[winners] = 1
    alloc = base + give
    assert int(alloc.sum()) == budget
    return pa.table({
        "source": pa.array(src.tolist(), pa.string()),
        "n_docs": pa.array(n, pa.int64()),
        "alloc": pa.array(alloc, pa.int64()),
    })


# ------------------------------------------------------- session-8 shapes
# The remaining canonical TPC-H polarities expressible on this schema
# (no partsupp table exists; Q2/Q9 adapt supply cost to p_retailprice).

Q6_SHIP_LO = "1997-01-01"
Q6_SHIP_HI = "1998-01-01"
Q6_DISC_PCTS = (5, 6, 7)     # discount BETWEEN 0.05 AND 0.07 in pct ints
Q6_MAX_QTY = 24

Q9_NAME_SUBSTR = "red"       # p_name LIKE '%red%'

Q15_SHIP_LO = "1997-03-01"
Q15_SHIP_HI = "1997-06-01"

Q2_PART_TYPE = "LARGE"
Q2_REGION = "EUROPE"

# Q19 disjuncts: (brand, max_size, qty_lo, qty_hi) — sizes are 1..max
Q19_DISJUNCTS = (("Brand#1", 15, 1, 11),
                 ("Brand#2", 25, 10, 20),
                 ("Brand#3", 50, 20, 30))


def _ship_window_ints(lo: str, hi: str) -> tuple[int, int]:
    return (int(np.datetime64(lo).astype("datetime64[us]").astype(np.int64)),
            int(np.datetime64(hi).astype("datetime64[us]").astype(np.int64)))


def q_forecast_revenue(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q6-shaped forecast revenue: one predicate-heavy scan, one
    row out — sum(extendedprice * discount) over a ship-year, a
    discount band and a quantity cap. Exact integers: revenue_e4 =
    cents(extendedprice) × disc_pct (10⁻⁴ dollars).

    Shape: the pure scan-aggregate — every predicate column is in the
    4-column projection pushed into the parquet read, the batch kernel
    is one vectorized mask, and the only exchange is the one-row
    groupby of per-batch partials. The 100 TB plan is identical."""
    lo, hi = _ship_window_ints(Q6_SHIP_LO, Q6_SHIP_HI)
    pcts = np.asarray(Q6_DISC_PCTS, np.int64)

    def _partial(batch: pa.Table) -> pa.Table:
        sd = batch.column("l_shipdate").cast(pa.int64()).to_numpy()
        qty = _cents(batch.column("l_quantity").to_numpy()) // 100
        disc = _pct(batch.column("l_discount").to_numpy())
        keep = ((sd >= lo) & (sd < hi) & (qty < Q6_MAX_QTY)
                & np.isin(disc, pcts))
        ext = _cents(batch.column("l_extendedprice").to_numpy()[keep])
        return pa.table({
            "g": pa.array([0], pa.int64()),
            "revenue_e4": pa.array([int((ext * disc[keep]).sum())], pa.int64()),
            "n_lines": pa.array([int(keep.sum())], pa.int64()),
        })

    return (
        sized_read(sf_dir, "lineitem", ["l_shipdate", "l_quantity", "l_discount",
                     "l_extendedprice"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(Sum("revenue_e4", alias_name="revenue_e4"),
                   Sum("n_lines", alias_name="n_lines"))
        .map_batches(lambda t: t.drop_columns(["g"]), batch_format="pyarrow")
    )


def q_nation_profit(sf_dir: str) -> pa.Table:
    """TPC-H-Q9-shaped product-type profit by (supplier nation, order
    year), adapted to this schema: cost = p_retailprice × quantity (no
    partsupp table). profit_e4 = cents(ext) × (100 − disc_pct)
    − cents(retail) × qty × 100, exact integers end to end.

    Plan: part (name-filtered → retail cents) and supplier→nation are
    broadcast dimensions; the lineitem⋈orders year attach is ONE
    bucketed shuffle on orderkey where the lineitem side enters
    pre-compressed to one partial row per (batch, okey, nationkey) —
    the same compressed-join scaffold as Q5/Q7 — and the final
    aggregate is O(nations × years)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    nb = table_buckets(sf_dir, "lineitem", "orders")
    nk, nnames, _ = _nation_lookup(sf_dir)
    supp_ref = _supplier_nation_ref(sf_dir)

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_name", "p_retailprice"])
    pmask = pc.match_substring(part.column("p_name"), Q9_NAME_SUBSTR)
    part = part.filter(pmask)
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    retail = _cents(part.column("p_retailprice").to_numpy())
    o = np.argsort(pk)
    part_ref = ray.put((pk[o], retail[o]))

    def _line_rows(batch: pa.Table) -> pa.Table:
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)
        dpk, dretail = ray.get(part_ref)
        if dpk.size == 0:
            return pa.table({"bkt": pa.array([], pa.int64()),
                             "okey": pa.array([], pa.int64()),
                             "nat": pa.array([], pa.int64()),
                             "year": pa.array([], pa.int64()),
                             "profit_e4": pa.array([], pa.int64()),
                             "n_lines": pa.array([], pa.int64())})
        idx = np.minimum(np.searchsorted(dpk, lpk), dpk.size - 1)
        hit = dpk[idx] == lpk
        sk, sn = ray.get(supp_ref)
        lsk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        sidx = np.minimum(np.searchsorted(sk, lsk), max(sk.size - 1, 0))
        hit &= sk[sidx] == lsk if sk.size else False
        okey = batch.column("l_orderkey").to_numpy().astype(np.int64)[hit]
        nat = sn[sidx[hit]]
        ext = _cents(batch.column("l_extendedprice").to_numpy()[hit])
        disc = _pct(batch.column("l_discount").to_numpy()[hit])
        qty = _cents(batch.column("l_quantity").to_numpy()[hit]) // 100
        profit = ext * (np.int64(100) - disc) - dretail[idx[hit]] * qty * 100
        # compress: one row per (okey, nat) in this batch
        key = okey * (np.int64(nk.max()) + 2) + nat
        uk, sums, cnts = group_sum(key, profit, np.ones(key.size, np.int64))
        uok = uk // (np.int64(nk.max()) + 2)
        unat = uk % (np.int64(nk.max()) + 2)
        return pa.table({
            "bkt": pa.array(uok % nb, pa.int64()),
            "okey": pa.array(uok, pa.int64()),
            "nat": pa.array(unat, pa.int64()),
            "year": pa.array(np.full(uok.size, -1, np.int64), pa.int64()),
            "profit_e4": pa.array(sums, pa.int64()),
            "n_lines": pa.array(cnts, pa.int64()),
        })

    def _order_rows(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        years = batch.column("o_orderdate").cast(pa.timestamp("us"))
        yr = pc.year(years).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "bkt": pa.array(okey % nb, pa.int64()),
            "okey": pa.array(okey, pa.int64()),
            "nat": pa.array(np.full(okey.size, -1, np.int64), pa.int64()),
            "year": pa.array(yr, pa.int64()),
            "profit_e4": pa.array(np.zeros(okey.size, np.int64), pa.int64()),
            "n_lines": pa.array(np.zeros(okey.size, np.int64), pa.int64()),
        })

    def _join(group: pa.Table) -> pa.Table:
        nat = group.column("nat").to_numpy().astype(np.int64)
        okey = group.column("okey").to_numpy().astype(np.int64)
        build = nat == -1
        bok = okey[build]
        byr = group.column("year").to_numpy().astype(np.int64)[build]
        o = np.argsort(bok)
        bok, byr = bok[o], byr[o]
        pok = okey[~build]
        if bok.size == 0 or pok.size == 0:
            return pa.table({"nat": pa.array([], pa.int64()),
                             "year": pa.array([], pa.int64()),
                             "profit_e4": pa.array([], pa.int64()),
                             "n_lines": pa.array([], pa.int64())})
        idx = np.minimum(np.searchsorted(bok, pok), bok.size - 1)
        hit = bok[idx] == pok
        return pa.table({
            "nat": pa.array(nat[~build][hit], pa.int64()),
            "year": pa.array(byr[idx[hit]], pa.int64()),
            "profit_e4": pa.array(
                group.column("profit_e4").to_numpy().astype(np.int64)[~build][hit],
                pa.int64()),
            "n_lines": pa.array(
                group.column("n_lines").to_numpy().astype(np.int64)[~build][hit],
                pa.int64()),
        })

    li = sized_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey", "l_suppkey",
                 "l_extendedprice", "l_discount", "l_quantity"]).map_batches(_line_rows, batch_format="pyarrow")
    orders = sized_read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(_order_rows, batch_format="pyarrow")
    joined = li.union(orders).groupby("bkt").map_groups(
        _join, batch_format="pyarrow")
    agg = joined.groupby(["nat", "year"]).aggregate(
        Sum("profit_e4", alias_name="profit_e4"),
        Sum("n_lines", alias_name="n_lines")).to_pandas()
    nat = agg["nat"].to_numpy(np.int64)
    name_of = {int(k): n for k, n in zip(nk, nnames)}
    return pa.table({
        "n_name": pa.array([name_of[int(x)] for x in nat], pa.string()),
        "o_year": pa.array(agg["year"].to_numpy(np.int64), pa.int64()),
        "profit_e4": pa.array(agg["profit_e4"].to_numpy(np.int64), pa.int64()),
        "n_lines": pa.array(agg["n_lines"].to_numpy(np.int64), pa.int64()),
    })


def q_top_supplier_revenue(sf_dir: str) -> pa.Table:
    """TPC-H-Q15-shaped top supplier(s): per-supplier revenue inside a
    quarter, keeping EVERY supplier that attains the maximum (the
    tie-keeping MAX-of-aggregate polarity Q15's view expresses).
    revenue_e4 = Σ cents(ext) × (100 − disc_pct), exact.

    Plan: per-batch partials → one supplier-keyed groupby (dimension-
    sized output); the max and tie filter run on the aggregate, and
    supplier names attach by broadcast point-reads."""
    import pyarrow.parquet as pq

    lo, hi = _ship_window_ints(Q15_SHIP_LO, Q15_SHIP_HI)

    def _partial(batch: pa.Table) -> pa.Table:
        sd = batch.column("l_shipdate").cast(pa.int64()).to_numpy()
        keep = (sd >= lo) & (sd < hi)
        sk = batch.column("l_suppkey").to_numpy().astype(np.int64)[keep]
        ext = _cents(batch.column("l_extendedprice").to_numpy()[keep])
        disc = _pct(batch.column("l_discount").to_numpy()[keep])
        rev = ext * (np.int64(100) - disc)
        usk, srev = group_sum(sk, rev)
        return pa.table({
            "s_suppkey": pa.array(usk, pa.int64()),
            "revenue_e4": pa.array(srev, pa.int64()),
        })

    agg = (
        sized_read(sf_dir, "lineitem", ["l_suppkey", "l_shipdate", "l_extendedprice",
                     "l_discount"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("revenue_e4", alias_name="revenue_e4"))
    ).to_pandas()  # one row per supplier — dimension-sized
    if len(agg) == 0:
        return pa.table({"s_suppkey": pa.array([], pa.int64()),
                         "s_name": pa.array([], pa.string()),
                         "revenue_e4": pa.array([], pa.int64())})
    mx = int(agg["revenue_e4"].max())
    win = agg[agg["revenue_e4"] == mx].sort_values("s_suppkey")
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_name"])
    sk = supp.column("s_suppkey").to_numpy().astype(np.int64)
    names = np.asarray(supp.column("s_name").to_pylist(), object)
    o = np.argsort(sk)
    sk, names = sk[o], names[o]
    wk = win["s_suppkey"].to_numpy(np.int64)
    idx = np.searchsorted(sk, wk)
    return pa.table({
        "s_suppkey": pa.array(wk, pa.int64()),
        "s_name": pa.array(names[idx].tolist(), pa.string()),
        "revenue_e4": pa.array(win["revenue_e4"].to_numpy(np.int64), pa.int64()),
    })


def q_min_price_supplier(sf_dir: str) -> pa.Table:
    """TPC-H-Q2-shaped groupwise-min supplier, adapted: for every part
    of one type, the supplier(s) whose lineitem attains that part's
    MINIMUM extended price (ties kept, Q2's correlated-min subquery
    polarity), restricted to suppliers in one region. No partsupp
    table exists, so lineitem plays the supply catalog.

    Plan: part/supplier/nation/region broadcast; ONE lineitem scan
    emits per-batch (partkey, suppkey) min partials; a (part, supp)
    groupby Min reduces to catalog size; the per-part global min
    derives from that reduced table and the tie filter + dimension
    attach happen on catalog-sized data."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from ray.data.aggregate import Min

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_name", "p_type"])
    part = part.filter(pc.equal(part.column("p_type"), Q2_PART_TYPE))
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    pnames = np.asarray(part.column("p_name").to_pylist(), object)
    o = np.argsort(pk)
    pk, pnames = pk[o], pnames[o]
    part_ref = ray.put(pk)

    nk, nnames, nation = _nation_lookup(sf_dir)
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rk = region.column("r_regionkey").to_numpy().astype(np.int64)
    rnames = np.asarray(region.column("r_name").to_pylist(), object)
    target_r = {int(k) for k, n in zip(rk, rnames) if n == Q2_REGION}
    n_region = nation.column("n_regionkey").to_numpy().astype(np.int64)
    nat_in_region = {int(k) for k, r in zip(
        nation.column("n_nationkey").to_numpy().astype(np.int64), n_region)
        if int(r) in target_r}
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_name", "s_nationkey"])
    sk = supp.column("s_suppkey").to_numpy().astype(np.int64)
    snames = np.asarray(supp.column("s_name").to_pylist(), object)
    snat = supp.column("s_nationkey").to_numpy().astype(np.int64)
    o = np.argsort(sk)
    sk, snames, snat = sk[o], snames[o], snat[o]
    keep_supp = np.isin(snat, np.asarray(sorted(nat_in_region), np.int64))
    supp_set_ref = ray.put(sk[keep_supp])

    def _pair_min(batch: pa.Table) -> pa.Table:
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)
        dpk = ray.get(part_ref)
        dsup = ray.get(supp_set_ref)
        lsk = batch.column("l_suppkey").to_numpy().astype(np.int64)
        hit = np.zeros(lpk.size, bool)
        if dpk.size:
            idx = np.minimum(np.searchsorted(dpk, lpk), dpk.size - 1)
            hit = dpk[idx] == lpk
        if dsup.size:
            sidx = np.minimum(np.searchsorted(dsup, lsk), dsup.size - 1)
            hit &= dsup[sidx] == lsk
        else:
            hit &= False
        lpk, lsk = lpk[hit], lsk[hit]
        cents = _cents(batch.column("l_extendedprice").to_numpy()[hit])
        key = lpk << 20 | lsk  # suppkeys < 2^20 asserted below
        assert (lsk < (1 << 20)).all(), "suppkey exceeds pack width"
        order = np.lexsort((cents, key))
        key_s, cents_s = key[order], cents[order]
        first = np.concatenate(([True], key_s[1:] != key_s[:-1])) \
            if key_s.size else np.empty(0, bool)
        return pa.table({
            "p_partkey": pa.array(key_s[first] >> 20, pa.int64()),
            "s_suppkey": pa.array(key_s[first] & ((1 << 20) - 1), pa.int64()),
            "min_cents": pa.array(cents_s[first].astype(np.int64), pa.int64()),
        })

    pairs = (
        sized_read(sf_dir, "lineitem", ["l_partkey", "l_suppkey", "l_extendedprice"])
        .map_batches(_pair_min, batch_format="pyarrow")
        .groupby(["p_partkey", "s_suppkey"])
        .aggregate(Min("min_cents", alias_name="min_cents"))
    ).to_pandas()  # catalog-sized: |parts of type| × |region suppliers|
    if len(pairs) == 0:
        return pa.table({"p_partkey": pa.array([], pa.int64()),
                         "p_name": pa.array([], pa.string()),
                         "s_suppkey": pa.array([], pa.int64()),
                         "s_name": pa.array([], pa.string()),
                         "n_name": pa.array([], pa.string()),
                         "min_cents": pa.array([], pa.int64())})
    part_min = pairs.groupby("p_partkey")["min_cents"].transform("min")
    win = pairs[pairs["min_cents"] == part_min].sort_values(
        ["p_partkey", "s_suppkey"])
    wpk = win["p_partkey"].to_numpy(np.int64)
    wsk = win["s_suppkey"].to_numpy(np.int64)
    pidx = np.searchsorted(pk, wpk)
    sidx = np.searchsorted(sk, wsk)
    name_of_nat = {int(k): n for k, n in zip(nk, nnames)}
    return pa.table({
        "p_partkey": pa.array(wpk, pa.int64()),
        "p_name": pa.array(pnames[pidx].tolist(), pa.string()),
        "s_suppkey": pa.array(wsk, pa.int64()),
        "s_name": pa.array(snames[sidx].tolist(), pa.string()),
        "n_name": pa.array([name_of_nat[int(x)] for x in snat[sidx]],
                           pa.string()),
        "min_cents": pa.array(win["min_cents"].to_numpy(np.int64), pa.int64()),
    })


def q_disjunctive_revenue(sf_dir: str) -> ray.data.Dataset:
    """TPC-H-Q19-shaped disjunctive predicate scan: revenue over three
    OR'd (brand, size-range, quantity-range) disjuncts — the shape
    where predicate evaluation, not the join, is the operator.
    revenue_e4 = Σ cents(ext) × (100 − disc_pct), exact.

    Plan: part's (brand, size) broadcast once; each lineitem batch
    evaluates all disjuncts as vectorized masks (no row loop, no
    per-disjunct scan) and contributes one partial row."""
    import pyarrow.parquet as pq

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand", "p_size"])
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    brands = np.asarray(part.column("p_brand").to_pylist(), object)
    sizes = part.column("p_size").to_numpy().astype(np.int64)
    o = np.argsort(pk)
    # brand → small int id so the broadcast is numeric
    blist = sorted({b for b, _, _, _ in Q19_DISJUNCTS})
    bid = {b: i for i, b in enumerate(blist)}
    bcode = np.array([bid.get(b, -1) for b in brands[o]], np.int64)
    dim_ref = ray.put((pk[o], bcode, sizes[o]))
    djs = [(bid[b], mx, qlo, qhi) for b, mx, qlo, qhi in Q19_DISJUNCTS]

    def _partial(batch: pa.Table) -> pa.Table:
        lpk = batch.column("l_partkey").to_numpy().astype(np.int64)
        dpk, dbrand, dsize = ray.get(dim_ref)
        idx = np.minimum(np.searchsorted(dpk, lpk), max(dpk.size - 1, 0))
        hit = dpk[idx] == lpk if dpk.size else np.zeros(lpk.size, bool)
        qty = _cents(batch.column("l_quantity").to_numpy()) // 100
        b = dbrand[idx]
        s = dsize[idx]
        keep = np.zeros(lpk.size, bool)
        for code, mx, qlo, qhi in djs:
            keep |= (hit & (b == code) & (s >= 1) & (s <= mx)
                     & (qty >= qlo) & (qty <= qhi))
        ext = _cents(batch.column("l_extendedprice").to_numpy()[keep])
        disc = _pct(batch.column("l_discount").to_numpy()[keep])
        return pa.table({
            "g": pa.array([0], pa.int64()),
            "revenue_e4": pa.array(
                [int((ext * (np.int64(100) - disc)).sum())], pa.int64()),
            "n_lines": pa.array([int(keep.sum())], pa.int64()),
        })

    return (
        sized_read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice",
                     "l_discount"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("g")
        .aggregate(Sum("revenue_e4", alias_name="revenue_e4"),
                   Sum("n_lines", alias_name="n_lines"))
        .map_batches(lambda t: t.drop_columns(["g"]), batch_format="pyarrow")
    )


COPURCHASE_TOPK = 50
COPURCHASE_MAX_BASKET = 1024


def copurchase_counts(sf_dir: str) -> ray.data.Dataset:
    """Distinct co-purchased part pairs with their order-support count
    — the shared front half of q_copurchase_pairs and the co-purchase
    graph (q_kcore_nodes). Schema: (key = p1<<32|p2, n_orders).

    Shape: orders are baskets — bucket by orderkey hash so each
    basket's lines co-locate; per bucket one sort + distinct, then
    pair expansion vectorized PER BASKET-SIZE CLASS (one broadcasted
    triu index per distinct size, no per-order Python loop; basket
    size is capped — a degenerate 10⁶-line order would otherwise
    expand quadratically). Pair partials → one key-hash bucket fold."""
    nb = table_buckets(sf_dir, "lineitem")

    def _pairs(group: pa.Table) -> pa.Table:
        ok = group.column("l_orderkey").to_numpy().astype(np.int64)
        pk = group.column("l_partkey").to_numpy().astype(np.int64)
        order = np.lexsort((pk, ok))
        ok, pk = ok[order], pk[order]
        first = np.concatenate(([True], (ok[1:] != ok[:-1])
                                | (pk[1:] != pk[:-1]))) \
            if ok.size else np.empty(0, bool)
        ok, pk = ok[first], pk[first]
        if ok.size == 0:
            return pa.table({"key": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        starts = run_starts(ok)
        sizes = np.diff(np.concatenate((starts, [ok.size])))
        if int(sizes.max()) > COPURCHASE_MAX_BASKET:
            raise ValueError(
                f"basket of {int(sizes.max())} distinct parts exceeds "
                f"COPURCHASE_MAX_BASKET={COPURCHASE_MAX_BASKET} — cap or "
                "sample degenerate baskets before pair expansion")
        out = []
        for s in np.unique(sizes):
            if s < 2:
                continue
            idx = starts[sizes == s]
            iu, ju = np.triu_indices(int(s), k=1)
            a = pk[(idx[:, None] + iu[None, :]).ravel()]
            b = pk[(idx[:, None] + ju[None, :]).ravel()]
            out.append(pack_pair(a, b))  # a < b by sort order
        if not out:
            return pa.table({"key": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        keys = np.concatenate(out)
        uk, cnt = np.unique(keys, return_counts=True)
        return pa.table({"key": pa.array(uk, pa.int64()),
                         "n": pa.array(cnt.astype(np.int64), pa.int64())})

    def _bucket(batch: pa.Table) -> pa.Table:
        ok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        return batch.append_column(
            "bkt", pa.array((ok % nb).astype(np.int32)))

    def _kbucket(batch: pa.Table) -> pa.Table:
        k = batch.column("key").to_numpy()
        return batch.append_column(
            "kbkt", pa.array(bucket_of(k, nb)))

    def _kfold(group: pa.Table) -> pa.Table:
        """Bucket-local exact sum per pair key — the int-bucket fold
        replacing the key sort-aggregate (same lesson as fd_audit)."""
        k = group.column("key").to_numpy().astype(np.int64)
        n = group.column("n").to_numpy().astype(np.int64)
        uk, s = group_sum(k, n)
        return pa.table({
            "key": pa.array(uk, pa.int64()),
            "n_orders": pa.array(s, pa.int64()),
        })

    return (
        sized_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
        .map_batches(_bucket, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(lambda g: _pairs(g), batch_format="pyarrow")
        .map_batches(_kbucket, batch_format="pyarrow")
        .groupby("kbkt")
        .map_groups(_kfold, batch_format="pyarrow")
    )


def q_copurchase_pairs(sf_dir: str, k_out: int = COPURCHASE_TOPK) -> pa.Table:
    """Market-basket co-purchase mining: the top part PAIRS by the
    number of orders containing both (the support count of 2-itemsets —
    the first level of Apriori / FP-growth, and the affinity signal an
    item-item recommender consumes). Deterministic top-k
    (n desc, p1, p2) over copurchase_counts. At 100 TB the pair space
    is bounded by the catalog (|parts|²/2 worst case, far less in
    practice); past driver comfort the final top-k becomes per-block
    partial top-k + merge (same pattern as top_similar_pairs)."""
    agg = copurchase_counts(sf_dir).to_pandas()  # one row per distinct pair
    key = agg["key"].to_numpy(np.int64)
    n = agg["n_orders"].to_numpy(np.int64)
    order = np.lexsort((key, -n))[:k_out]
    key, n = key[order], n[order]
    return pa.table({
        "p1": pa.array(key >> np.int64(32), pa.int64()),
        "p2": pa.array(key & np.int64(0xFFFFFFFF), pa.int64()),
        "n_orders": pa.array(n, pa.int64()),
    })


def copurchase_edges(sf_dir: str, min_support: int) -> ray.data.Dataset:
    """Co-purchase GRAPH edges: distinct part pairs with order support
    ≥ min_support, as (u, v) with u < v. The association-graph input
    of q_kcore_nodes."""
    def _edges(batch: pa.Table) -> pa.Table:
        key = batch.column("key").to_numpy().astype(np.int64)
        n = batch.column("n_orders").to_numpy().astype(np.int64)
        key = key[n >= min_support]
        return pa.table({
            "u": pa.array(key >> np.int64(32), pa.int64()),
            "v": pa.array(key & np.int64(0xFFFFFFFF), pa.int64()),
        })

    return copurchase_counts(sf_dir).map_batches(
        _edges, batch_format="pyarrow")


RULE_CONF_NUM = 1
RULE_CONF_DEN = 5
RULE_MIN_SUPPORT = 3


def _copurchase_item_supports(sf_dir: str):
    """(sorted part keys, order-supports, total distinct orders) for
    the market-basket operators. Item support = orders containing the
    part — distinct (order, part) computed per ORDERKEY-HASH BUCKET (an
    order's lines co-locate, so per-bucket distinct is globally
    distinct; a per-BATCH distinct would overcount pairs split across
    read batches — the data has duplicate (order, part) lines). One
    catalog-sized groupby; the total-order count rides along as a
    sentinel row, so no extra pass."""
    from ray.data.aggregate import Sum

    nb = table_buckets(sf_dir, "lineitem")

    def _item_bucket(batch: pa.Table) -> pa.Table:
        ok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        return batch.append_column(
            "bkt", pa.array((ok % nb).astype(np.int32)))

    def _item_rows(group: pa.Table) -> pa.Table:
        ok = group.column("l_orderkey").to_numpy().astype(np.int64)
        pk = group.column("l_partkey").to_numpy().astype(np.int64)
        key = pack_pair(ok, pk)
        uk = np.unique(key)
        pks, cnt = np.unique(uk & np.int64(0xFFFFFFFF), return_counts=True)
        n_orders = np.int64(np.unique(ok).size)
        return pa.table({
            "pk": pa.array(np.concatenate((pks, [-1])), pa.int64()),
            "one": pa.array(np.concatenate((cnt.astype(np.int64),
                                            [n_orders])), pa.int64()),
        })

    items = (
        sized_read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
        .map_batches(_item_bucket, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(_item_rows, batch_format="pyarrow")
        .groupby("pk").aggregate(Sum("one", alias_name="support"))
    ).to_pandas()  # catalog-sized (+1 sentinel row)
    n_orders_total = int(items[items["pk"] == -1]["support"].iloc[0])
    items = items[items["pk"] != -1]
    ik = items["pk"].to_numpy(np.int64)
    isup = items["support"].to_numpy(np.int64)
    o = np.argsort(ik)
    return ik[o], isup[o], n_orders_total


ITEM_COS2_NUM = 1
ITEM_COS2_DEN = 8


def q_item_cosine_pairs(sf_dir: str) -> pa.Table:
    """Item-item cosine affinity over the co-purchase matrix — the
    classic neighborhood recommender score (Sarwar et al. WWW'01):
    cos(a, b) = n_ab / sqrt(sup_a · sup_b) over binary order-item
    vectors. The threshold cos² ≥ 1/8 is EXACT by squared
    cross-multiplication (8·n_ab² ≥ sup_a·sup_b — no sqrt, no float),
    pair support ≥ RULE_MIN_SUPPORT; output exposes the raw integer
    counts (n_orders, sup_a, sup_b), so the score fraction itself
    hash-verifies.

    Shape: the shared copurchase_counts pair aggregate + the shared
    catalog-sized item-support broadcast (_copurchase_item_supports);
    the filter is a pure map over pair rows — no new shuffle."""
    ik, isup, _ = _copurchase_item_supports(sf_dir)
    item_ref = ray.put((ik, isup))
    num = np.int64(ITEM_COS2_NUM)
    den = np.int64(ITEM_COS2_DEN)

    def _cos(batch: pa.Table) -> pa.Table:
        key = batch.column("key").to_numpy().astype(np.int64)
        n = batch.column("n_orders").to_numpy().astype(np.int64)
        keep = n >= RULE_MIN_SUPPORT
        key, n = key[keep], n[keep]
        p1 = key >> np.int64(32)
        p2 = key & np.int64(0xFFFFFFFF)
        gk, gs = ray.get(item_ref)
        sa = gs[np.searchsorted(gk, p1)]
        sb = gs[np.searchsorted(gk, p2)]
        keep = den * n * n >= num * sa * sb
        return pa.table({
            "p1": pa.array(p1[keep], pa.int64()),
            "p2": pa.array(p2[keep], pa.int64()),
            "n_orders": pa.array(n[keep], pa.int64()),
            "sup_a": pa.array(sa[keep], pa.int64()),
            "sup_b": pa.array(sb[keep], pa.int64()),
        })

    from candidategeneration_ray.functions.tableutil import concat_blocks

    return concat_blocks(
        ray.get(copurchase_counts(sf_dir)
                .map_batches(_cos, batch_format="pyarrow")
                .to_arrow_refs()),
        pa.schema([("p1", pa.int64()), ("p2", pa.int64()),
                   ("n_orders", pa.int64()), ("sup_a", pa.int64()),
                   ("sup_b", pa.int64())]))


def q_association_rules(sf_dir: str) -> pa.Table:
    """Association rules from the co-purchase 2-itemsets (Agrawal &
    Srikant VLDB'94): directed rules a→b with pair support ≥
    RULE_MIN_SUPPORT and confidence = support(a,b)/support(a) ≥ 1/5.
    The confidence threshold is EXACT by cross-multiplication
    (5·support(a,b) ≥ support(a)) and the output exposes the raw
    integer (antecedent, pair) supports plus the lift fraction's
    numerator/denominator — every column integer, hash-verified.

    Shape: copurchase_counts (the bucketed basket expansion) + ONE
    item-support groupby (catalog-sized) broadcast into a final filter
    map — no new shuffle beyond the shared pair aggregate."""
    ik, isup, n_orders_total = _copurchase_item_supports(sf_dir)
    item_ref = ray.put((ik, isup))
    num = np.int64(RULE_CONF_NUM)
    den = np.int64(RULE_CONF_DEN)

    def _rules(batch: pa.Table) -> pa.Table:
        key = batch.column("key").to_numpy().astype(np.int64)
        n = batch.column("n_orders").to_numpy().astype(np.int64)
        keep = n >= RULE_MIN_SUPPORT
        key, n = key[keep], n[keep]
        p1 = key >> np.int64(32)
        p2 = key & np.int64(0xFFFFFFFF)
        gk, gs = ray.get(item_ref)
        # both directions: a→b and b→a
        a = np.concatenate((p1, p2))
        b = np.concatenate((p2, p1))
        nn = np.concatenate((n, n))
        sa = gs[np.searchsorted(gk, a)]
        sb = gs[np.searchsorted(gk, b)]
        keep = den * nn >= num * sa
        return pa.table({
            "antecedent": pa.array(a[keep], pa.int64()),
            "consequent": pa.array(b[keep], pa.int64()),
            "pair_support": pa.array(nn[keep], pa.int64()),
            "antecedent_support": pa.array(sa[keep], pa.int64()),
            # lift = conf / P(b) = (n/sa) / (sb/N) -> num/den ints
            "lift_num": pa.array(nn[keep] * np.int64(n_orders_total),
                                 pa.int64()),
            "lift_den": pa.array((sa[keep] * sb[keep]).astype(np.int64),
                                 pa.int64()),
        })

    from candidategeneration_ray.functions.tableutil import concat_blocks

    return concat_blocks(
        ray.get(copurchase_counts(sf_dir)
                .map_batches(_rules, batch_format="pyarrow")
                .to_arrow_refs()),
        pa.schema([("antecedent", pa.int64()), ("consequent", pa.int64()),
                   ("pair_support", pa.int64()),
                   ("antecedent_support", pa.int64()),
                   ("lift_num", pa.int64()), ("lift_den", pa.int64())]))


RECORD_BLOCKS = 32


def q_record_orders(sf_dir: str, num_blocks: int = RECORD_BLOCKS) -> ray.data.Dataset:
    """Record-breaking orders — the running-maximum scan: every order
    whose total STRICTLY exceeds the maximum of all chronologically
    earlier orders (order (o_orderdate, o_orderkey); the first order is
    a record by definition). The classic monotone-monoid stream
    operator (new-high detection / watermark family): same
    range-blocked prefix scaffold as the global-rank operators but
    under MAX instead of SUM (blocked_prefix_apply combine="max") —
    the driver holds only O(blocks) block maxima.

    Output (o_orderkey, total_cents, prev_max_cents) with
    prev_max_cents = the previous record (0 for the first order)."""
    import pyarrow.compute as pc

    from candidategeneration_ray.stages.docids import blocked_prefix_apply

    ds = (
        sized_read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_totalprice"])
        .map_batches(lambda t: pa.table({
            "o_orderkey": t.column("o_orderkey").cast(pa.int64()),
            "d": t.column("o_orderdate").cast(pa.int64()),
            "cents": pa.array(_cents(t.column("o_totalprice").to_numpy()),
                              pa.int64()),
        }), batch_format="pyarrow")
        .sort(["d", "o_orderkey"])
    )
    ident = -(1 << 62)

    def _total(tab: pa.Table) -> int:
        c = tab.column("cents").to_numpy()
        return int(c.max()) if c.size else ident  # max-monoid identity

    def _emit(tab: pa.Table, base: int) -> pa.Table:
        c = tab.column("cents").to_numpy()
        k = tab.column("o_orderkey").to_numpy()
        if c.size == 0:
            return pa.table({"o_orderkey": pa.array([], pa.int64()),
                             "total_cents": pa.array([], pa.int64()),
                             "prev_max_cents": pa.array([], pa.int64())})
        run = np.maximum.accumulate(c)
        prev = np.maximum(np.concatenate(([ident], run[:-1])),
                          np.int64(base))
        rec = c > prev
        return pa.table({
            "o_orderkey": pa.array(k[rec], pa.int64()),
            "total_cents": pa.array(c[rec], pa.int64()),
            "prev_max_cents": pa.array(
                np.maximum(prev[rec], 0), pa.int64()),
        })

    return blocked_prefix_apply(ds, num_blocks, _total, _emit,
                                combine="max")


def _nation_view_partials(sf_dir: str,
                          parity: int | None) -> ray.data.Dataset:
    """Per-batch (n_name, o_orderstatus) partials of the orders ⋈
    customer ⋈ nation view, optionally restricted to
    o_orderkey % 2 == parity — shared by the IVM build and maintain
    passes. The dimension side (customer→nation name) broadcasts
    once; inner-join semantics (orphan custkeys drop) match the
    nation_order_stats oracle."""
    import pyarrow.parquet as pq

    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_nationkey"])
    ck = cust.column("c_custkey").to_numpy().astype(np.int64)
    cn = cust.column("c_nationkey").to_numpy().astype(np.int64)
    o = np.argsort(ck)
    nk, nnames, _ = _nation_lookup(sf_dir)
    nat_name = {int(k): n for k, n in zip(nk, nnames)}
    dim_ref = ray.put((ck[o], cn[o]))

    def _part(batch: pa.Table) -> pa.Table:
        okey = batch.column("o_orderkey").to_numpy().astype(np.int64)
        keep = np.ones(okey.size, bool) if parity is None \
            else okey % 2 == parity
        ock = batch.column("o_custkey").to_numpy().astype(np.int64)[keep]
        status = np.asarray(
            batch.column("o_orderstatus").to_pylist(), object)[keep]
        cents = _cents(batch.column("o_totalprice").to_numpy()[keep])
        dck, dcn = ray.get(dim_ref)
        idx = np.minimum(np.searchsorted(dck, ock), max(dck.size - 1, 0))
        hit = dck[idx] == ock if dck.size else np.zeros(ock.size, bool)
        natk = dcn[idx[hit]]
        status = status[hit]
        cents = cents[hit]
        # pack (nation, status) -> group in one lexsort
        scode, sinv = np.unique(status, return_inverse=True)
        uk, cnts, sums = group_sum(natk * np.int64(64) + sinv,
                                   np.ones(sinv.size, np.int64), cents)
        return pa.table({
            "n_name": pa.array(
                [nat_name[int(k // 64)] for k in uk], pa.string()),
            "o_orderstatus": pa.array(
                [scode[int(k % 64)] for k in uk], pa.string()),
            "n_orders": pa.array(cnts, pa.int64()),
            "total_cents": pa.array(sums, pa.int64()),
        })

    return sized_read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice"]).map_batches(_part, batch_format="pyarrow")


def build_nation_view(sf_dir: str, out_dir: str,
                      parity: int | None = None) -> str:
    from ray.data.aggregate import Sum

    from candidategeneration_ray.pipelines.events import _atomic_state_build

    def _write(tmp: str) -> None:
        (_nation_view_partials(sf_dir, parity)
         .groupby(["n_name", "o_orderstatus"])
         .aggregate(Sum("n_orders", alias_name="n_orders"),
                    Sum("total_cents", alias_name="total_cents"))
         .write_parquet(tmp))

    return _atomic_state_build(out_dir, _write)


def maintain_nation_view(state_dir: str, sf_dir: str, out_dir: str,
                         parity: int = 1) -> str:
    """IVM for a JOIN view: fold delta orders (o_orderkey % 2 ==
    parity) into the maintained (n_name, status) aggregate. The join's
    dimension side is stable, so the delta view is (delta ⋈ dims) and
    count/cents stay additive — maintenance reads the O(groups) state
    plus the delta, never the base fact rows."""
    from ray.data.aggregate import Sum

    from candidategeneration_ray.pipelines.events import _atomic_state_build

    def _write(tmp: str) -> None:
        state = ray.data.read_parquet(
            [os.path.join(state_dir, f) for f in os.listdir(state_dir)
             if f.endswith(".parquet")])
        (state.union(_nation_view_partials(sf_dir, parity))
         .groupby(["n_name", "o_orderstatus"])
         .aggregate(Sum("n_orders", alias_name="n_orders"),
                    Sum("total_cents", alias_name="total_cents"))
         .write_parquet(tmp))

    return _atomic_state_build(out_dir, _write)


def q_nation_order_stats_ivm(sf_dir: str) -> ray.data.Dataset:
    """IVM twin of nation_order_stats (SAME oracle = plan-equivalence
    proof): base view from even orderkeys, delta fold of the odd half
    — incremental maintenance of a JOIN view, extending the
    windowed_counts_ivm pattern from a single-table aggregate to a
    fact ⋈ dimension join."""
    from candidategeneration_ray.pipelines.docquery import _cache_dir

    root = _cache_dir(sf_dir, "nationivm")
    os.makedirs(root, exist_ok=True)
    base = build_nation_view(sf_dir, os.path.join(root, "base"), parity=0)
    cur = maintain_nation_view(base, sf_dir, os.path.join(root, "gen1"),
                               parity=1)
    return ray.data.read_parquet(
        [os.path.join(cur, f) for f in os.listdir(cur)
         if f.endswith(".parquet")])


def q_nation_median_interp(sf_dir: str) -> ray.data.Dataset:
    """Interpolated (percentile_cont-style) per-nation median — the
    even-count median is the MEAN of the two middle values, kept exact
    by emitting twice the median in cents (median2_cents =
    c[(n-1)//2] + c[n//2]; equals 2*median for odd n), so no float
    division crosses the oracle boundary. Same co-located holistic
    shape as q_nation_median_order (one sort per nation group)."""
    def _median2(group: pa.Table) -> pa.Table:
        nk = int(group.column("c_nationkey")[0].as_py())
        c = np.sort(group.column("cents").to_numpy().astype(np.int64))
        lo, hi = int(c[(c.size - 1) // 2]), int(c[c.size // 2])
        return pa.table({
            "c_nationkey": pa.array([nk], pa.int64()),
            "n_orders": pa.array([c.size], pa.int64()),
            "median2_cents": pa.array([lo + hi], pa.int64()),
        })

    return (_orders_nation_cents(sf_dir)
            .groupby("c_nationkey").map_groups(_median2,
                                               batch_format="pyarrow"))


def q_nation_mode_priority(sf_dir: str) -> ray.data.Dataset:
    """Per-nation MODE of the order priority — the other non-mergeable
    aggregate class (mode needs full per-group counts, not partials of
    a fixed summary... except the counts themselves ARE the mergeable
    summary: O(priorities) per nation). Shape: the bucketed
    orders⋈customer join emits (nation, priority) count partials
    per bucket; one tiny groupby sums them; a per-nation argmax with
    the (count desc, priority asc) tie-break finishes. Nothing scales
    past O(nations x priorities) after the join."""
    from ray.data.aggregate import Sum

    nb = table_buckets(sf_dir, "orders", "customer")

    def _order_rows(b: pa.Table) -> pa.Table:
        ck = b.column("o_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "nationkey": pa.array(np.full(ck.size, -1, np.int64),
                                  pa.int64()),
            "pr": b.column("o_orderpriority").cast(pa.string()),
        })

    def _cust_rows(b: pa.Table) -> pa.Table:
        ck = b.column("c_custkey").to_numpy().astype(np.int64)
        return pa.table({
            "bkt": pa.array(ck % nb, pa.int64()),
            "key": pa.array(ck, pa.int64()),
            "nationkey": pa.array(
                b.column("c_nationkey").to_numpy().astype(np.int64),
                pa.int64()),
            "pr": pa.array([""] * len(ck), pa.string()),
        })

    def _attach(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy().astype(np.int64)
        natk = group.column("nationkey").to_numpy().astype(np.int64)
        pr = np.asarray(group.column("pr").to_pylist(), dtype=object)
        build = natk >= 0
        bk, bn = key[build], natk[build]
        o = np.argsort(bk)
        bk, bn = bk[o], bn[o]
        pk, pp = key[~build], pr[~build]
        if bk.size:
            idx = np.minimum(np.searchsorted(bk, pk), bk.size - 1)
            hit = bk[idx] == pk
        else:
            idx = np.zeros(pk.size, np.int64)
            hit = np.zeros(pk.size, bool)
        nat, prs = bn[idx[hit]], pp[hit]
        pu, pinv = np.unique(prs, return_inverse=True)
        packed = nat * pu.size + pinv
        kg, cnt = np.unique(packed, return_counts=True)
        return pa.table({
            "c_nationkey": pa.array(kg // pu.size, pa.int64()),
            "pr": pa.array(pu[kg % pu.size].tolist(), pa.string()),
            "n": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    def _mode(group: pa.Table) -> pa.Table:
        n = group.column("n").to_numpy().astype(np.int64)
        pr = np.asarray(group.column("pr").to_pylist(), dtype=object)
        best = np.lexsort((pr, -n))[0]
        return pa.table({
            "c_nationkey": pa.array(
                [int(group.column("c_nationkey")[0].as_py())], pa.int64()),
            "mode_priority": pa.array([str(pr[best])], pa.string()),
            "n_orders_mode": pa.array([int(n[best])], pa.int64()),
        })

    orders = sized_read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(_order_rows, batch_format="pyarrow")
    cust = sized_read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(_cust_rows, batch_format="pyarrow")
    return (orders.union(cust)
            .groupby("bkt").map_groups(_attach, batch_format="pyarrow")
            .groupby(["c_nationkey", "pr"]).aggregate(Sum("n", alias_name="n"))
            .groupby("c_nationkey").map_groups(_mode, batch_format="pyarrow"))


# ---------------------------------------------- Q11 / Q16 / Q20 shapes

IMPORTANT_PART_PPM = 600    # Q11 fraction: keep parts > 600 ppm of revenue
DOMINANT_SUPP_MULT = 5      # Q20 rule: supplier share > 1/5 of part volume


def q_important_parts(sf_dir: str, ppm: int = IMPORTANT_PART_PPM) -> pa.Table:
    """TPC-H-Q11-shaped 'important stock': parts whose lineitem revenue
    exceeds a fixed fraction of GLOBAL revenue (the fraction-of-total
    HAVING — Q11's SUM(...) * 0.0001 subquery, decorrelated). The
    schema has no partsupp, so lineitem revenue plays the stock value
    (documented trade, same as the other partsupp-less shapes).

    Plan: per-batch compressed (partkey, revenue_milli) partials -> one
    groupby -> the global total is ONE tiny aggregate over the
    part-level rows -> broadcast-scalar filter. Cross-multiplied
    integer test rev * 1e6 > total * ppm (int64 headroom to ~10^12
    rows; HUGEINT past that, noted)."""
    from ray.data.aggregate import Sum

    from candidategeneration_ray.functions.money import round_scaled

    def _partial(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").to_numpy().astype(np.int64)
        cents = round_scaled(batch.column("l_extendedprice").to_numpy())
        disc = round_scaled(batch.column("l_discount").to_numpy())
        rev = cents * (100 - disc)
        u, sums = group_sum(pk, rev)
        return pa.table({
            "p_partkey": pa.array(u, pa.int64()),
            "revenue_milli": pa.array(sums, pa.int64()),
        })

    agg = (
        sized_read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("p_partkey")
        .aggregate(Sum("revenue_milli", alias_name="revenue_milli"))
        .materialize()
    )
    total = int(agg.aggregate(Sum("revenue_milli"))["sum(revenue_milli)"])

    def _keep(batch: pa.Table) -> pa.Table:
        rev = batch.column("revenue_milli").to_numpy().astype(np.int64)
        return batch.filter(pa.array(rev * 1_000_000 > total * ppm))

    out = agg.map_batches(_keep, batch_format="pyarrow").to_pandas()
    if "p_partkey" not in out.columns:
        # every block filtered empty: Ray's all-empty to_pandas loses
        # the schema (no part clears the threshold at this scale)
        return pa.table({"p_partkey": pa.array([], pa.int64()),
                         "revenue_milli": pa.array([], pa.int64())})
    return pa.table({
        "p_partkey": pa.array(out["p_partkey"].to_numpy(np.int64), pa.int64()),
        "revenue_milli": pa.array(out["revenue_milli"].to_numpy(np.int64),
                                  pa.int64()),
    })


def q_part_supplier_counts(sf_dir: str) -> pa.Table:
    """TPC-H-Q16-shaped supplier-relationship count: per (p_brand,
    p_size), the number of DISTINCT suppliers shipping those parts,
    excluding 'complaint' suppliers (stand-in rule: negative account
    balance — the schema has no comment column). The missing polarity
    this adds is grouped COUNT DISTINCT over a join with a broadcast
    anti-filter.

    Plan: part attrs (brand, size) and the excluded-supplier set
    broadcast (both dimension-sized); per-batch DISTINCT (brand, size,
    suppkey) triples -> groupby distinct -> count per group. Both
    shuffles move distinct-compressed rows only."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count

    part = pq.read_table(os.path.join(sf_dir, "part.parquet"),
                         columns=["p_partkey", "p_brand", "p_size"])
    import pandas as pd

    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    o = np.argsort(pk)
    bcodes, buniq = pd.factorize(part.column("p_brand").to_numpy(
        zero_copy_only=False)[o])
    sizes = part.column("p_size").to_numpy().astype(np.int64)[o]
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_acctbal"])
    excl = np.sort(supp.column("s_suppkey").to_numpy().astype(np.int64)[
        supp.column("s_acctbal").to_numpy() < 0])
    ref = ray.put((pk[o], bcodes.astype(np.int64), np.asarray(buniq, object),
                   sizes, excl))

    def _triples(batch: pa.Table) -> pa.Table:
        bpk, bbc, bbu, bsz, bex = ray.get(ref)
        lp = batch.column("l_partkey").to_numpy().astype(np.int64)
        ls = batch.column("l_suppkey").to_numpy().astype(np.int64)
        keep = ~np.isin(ls, bex)
        lp, ls = lp[keep], ls[keep]
        idx = np.searchsorted(bpk, lp)
        bc, sz = bbc[idx], bsz[idx]
        ubs, usup = unpack_pair(np.unique(pack_pair(bc * 1_000_000 + sz, ls)))
        return pa.table({
            "p_brand": pa.array(bbu[ubs // 1_000_000].tolist(), pa.string()),
            "p_size": pa.array(ubs % 1_000_000, pa.int64()),
            "s_suppkey": pa.array(usup, pa.int64()),
        })

    # distinct-triple + per-(brand,size) count as ONE packed-key
    # bucket fold (the multi-key sort aggregates pay per-GROUP Python
    # in the reduce — 12 s over ~10^5 triple groups at few blocks)
    from candidategeneration_ray.functions.exchange import fold_by_bucket

    nfb = table_buckets(sf_dir, "lineitem")

    def _tb(batch: pa.Table) -> pa.Table:
        import pandas as pd

        # bucket by (brand, size) so a group never straddles buckets
        br = np.asarray(batch.column("p_brand").to_pylist(), object)
        sz = batch.column("p_size").to_numpy().astype(np.uint64)
        return batch.append_column(
            "bsb", pa.array(bucket_of(pd.util.hash_array(br) ^ sz, nfb)))

    def _cnt_fold(group: pa.Table) -> pa.Table:
        import pandas as pd

        br = np.asarray(group.column("p_brand").to_pylist(), object)
        sz = group.column("p_size").to_numpy().astype(np.int64)
        sp = group.column("s_suppkey").to_numpy().astype(np.int64)
        codes, uniq = pd.factorize(br)
        # distinct triples, then the (brand, size) of each
        gb, _ = unpack_pair(np.unique(pack_pair(
            codes.astype(np.int64) * 1_000_000 + sz, sp)))
        g, cnt = np.unique(gb, return_counts=True)
        return pa.table({
            "p_brand": pa.array(
                np.asarray(uniq, object)[g // 1_000_000].tolist(),
                pa.string()),
            "p_size": pa.array(g % 1_000_000, pa.int64()),
            "supplier_cnt": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    return fold_by_bucket(
        sized_read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
        .map_batches(_triples, batch_format="pyarrow")
        .map_batches(_tb, batch_format="pyarrow"),
        "bsb", _cnt_fold, nfb,
        pa.table({"p_brand": pa.array([], pa.string()),
                  "p_size": pa.array([], pa.int64()),
                  "supplier_cnt": pa.array([], pa.int64())}))


def q_dominant_suppliers(sf_dir: str,
                         mult: int = DOMINANT_SUPP_MULT) -> pa.Table:
    """TPC-H-Q20-shaped 'excess share' suppliers: suppliers whose
    shipped quantity of a part exceeds 1/mult of that part's total
    volume (Q20's availqty > 0.5 * sum(qty) correlated subquery,
    decorrelated into a grouped rule; partsupp-less trade as above).
    Output one row per supplier with the count of parts it dominates
    and the supplier name (broadcast dimension attach).

    Plan: (part, supp, qty) partials -> groupby sum -> per-part rule
    applied in a co-located map_groups (a part's supplier rows are
    few) -> groupby(supp).count -> K-row name attach."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count, Sum

    def _partial(batch: pa.Table) -> pa.Table:
        lp = batch.column("l_partkey").to_numpy().astype(np.int64)
        ls = batch.column("l_suppkey").to_numpy().astype(np.int64)
        q = batch.column("l_quantity").to_numpy().astype(np.int64)
        u, sums = group_sum(pack_pair(lp, ls), q)
        up, us = unpack_pair(u)
        return pa.table({
            "l_partkey": pa.array(up, pa.int64()),
            "l_suppkey": pa.array(us, pa.int64()),
            "qty": pa.array(sums, pa.int64()),
        })

    # pair-sum + per-part dominance rule fused into ONE bucket fold
    # keyed by l_partkey (a part's pairs never straddle buckets), then
    # a tiny per-supplier count fold — the three chained multi-key
    # sort aggregates paid per-GROUP Python in every reduce (12.7 s)
    from candidategeneration_ray.functions.exchange import fold_by_bucket

    nfb = table_buckets(sf_dir, "lineitem")

    def _pkb(batch: pa.Table) -> pa.Table:
        k = batch.column("l_partkey").to_numpy()
        return batch.append_column("pkb", pa.array(bucket_of(k, nfb)))

    def _rule_fold(group: pa.Table) -> pa.Table:
        lp = group.column("l_partkey").to_numpy().astype(np.int64)
        ls = group.column("l_suppkey").to_numpy().astype(np.int64)
        q = group.column("qty").to_numpy().astype(np.int64)
        u, sums = group_sum(pack_pair(lp, ls), q)
        up, us = unpack_pair(u)
        upart, tot = group_sum(up, sums)
        keep = mult * sums > tot[np.searchsorted(upart, up)]
        return pa.table({
            "l_suppkey": pa.array(us[keep], pa.int64())})

    def _supp_count(group: pa.Table) -> pa.Table:
        ls = group.column("l_suppkey").to_numpy().astype(np.int64)
        u, c = np.unique(ls, return_counts=True)
        return pa.table({
            "l_suppkey": pa.array(u, pa.int64()),
            "n_parts": pa.array(c.astype(np.int64), pa.int64())})

    def _skb(batch: pa.Table) -> pa.Table:
        k = batch.column("l_suppkey").to_numpy()
        return batch.append_column(
            "skb", pa.array(bucket_of(k, nfb)))

    dominant = fold_by_bucket(
        sized_read(sf_dir, "lineitem",
                   ["l_partkey", "l_suppkey", "l_quantity"])
        .map_batches(_partial, batch_format="pyarrow")
        .map_batches(_pkb, batch_format="pyarrow"),
        "pkb", _rule_fold, nfb,
        pa.table({"l_suppkey": pa.array([], pa.int64())}))
    counts = fold_by_bucket(
        dominant.map_batches(_skb, batch_format="pyarrow"),
        "skb", _supp_count, nfb,
        pa.table({"l_suppkey": pa.array([], pa.int64()),
                  "n_parts": pa.array([], pa.int64())})).to_pandas()
    counts = counts.sort_values("l_suppkey").reset_index(drop=True)
    supp = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                         columns=["s_suppkey", "s_name"])
    sk = supp.column("s_suppkey").to_numpy().astype(np.int64)
    o = np.argsort(sk)
    names = np.asarray(supp.column("s_name").to_pylist(), object)[o]
    ks = counts["l_suppkey"].to_numpy(np.int64)
    idx = np.searchsorted(sk[o], ks)
    return pa.table({
        "s_suppkey": pa.array(ks, pa.int64()),
        "s_name": pa.array(names[idx].tolist(), pa.string()),
        "n_parts": pa.array(counts["n_parts"].to_numpy(np.int64), pa.int64()),
    })


def q_benford_digits(sf_dir: str) -> ray.data.Dataset:
    """Benford first-digit audit over order totals — the classic
    fraud/data-generation screen (natural multi-scale amounts follow
    log10(1+1/d); fabricated ones usually don't). Emits observed
    counts per leading digit plus the Benford expectation in parts per
    million (integer LUT, so the comparison row is hash-verifiable);
    the chi-square decision is the analyst's finalizer.

    Shape: per-batch digit histogram partials (9 rows) -> one tiny
    groupby. The leading digit comes from integer CENTS (DuckDB round
    semantics), so both sides derive it from identical integers."""
    from ray.data.aggregate import Sum

    from candidategeneration_ray.functions.money import round_scaled

    # round(log10(1 + 1/d) * 1e6) for d = 1..9
    BENFORD_PPM = [301030, 176091, 124939, 96910, 79181,
                   66947, 57992, 51153, 45757]

    def _partial(batch: pa.Table) -> pa.Table:
        cents = round_scaled(batch.column("o_totalprice").to_numpy())
        cents = cents[cents > 0]
        if cents.size == 0:
            return pa.table({"digit": pa.array([], pa.int64()),
                             "n_orders": pa.array([], pa.int64())})
        digit = cents.copy()
        while True:                       # exact: <=19 halving rounds
            big = digit >= 10
            if not big.any():
                break
            digit[big] //= 10
        d, n = np.unique(digit, return_counts=True)
        return pa.table({"digit": pa.array(d, pa.int64()),
                         "n_orders": pa.array(n.astype(np.int64), pa.int64())})

    agg = (
        sized_read(sf_dir, "orders", ["o_totalprice"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("digit")
        .aggregate(Sum("n_orders", alias_name="n_orders"))
    )

    lut = {d + 1: p for d, p in enumerate(BENFORD_PPM)}

    def _attach(batch: pa.Table) -> pa.Table:
        d = batch.column("digit").to_numpy().astype(np.int64)
        return batch.append_column(
            "benford_ppm",
            pa.array([lut[int(x)] for x in d], pa.int64()))

    return agg.map_batches(_attach, batch_format="pyarrow")


# ------------------------------------------- functional-dependency audit

FD_CANDIDATES = (
    ("orders", "o_orderkey", "o_custkey"),      # PK -> attr: must hold
    ("orders", "o_custkey", "o_orderpriority"),  # expected to fail
    ("lineitem", "l_orderkey", "l_returnflag"),  # expected to fail
    ("lineitem", "l_partkey", "l_suppkey"),      # data-dependent
    ("customer", "c_custkey", "c_nationkey"),    # PK -> attr: must hold
)


def q_fd_audit(sf_dir: str, num_buckets: int | None = None) -> pa.Table:
    """Functional-dependency discovery over candidate column pairs —
    the data-profiling classic (TANE's verification step, Huhtala et
    al. 1999): for each candidate A → B, the number of A-keys with
    more than one distinct B value (0 = the FD holds) plus the total
    violating rows a repair would touch. The schema-inference /
    data-contract audit next to fk_audit (referential) and
    column_profile (per-column).

    Shape: ONE pipeline, ONE all-to-all — each table is scanned once
    (column-pruned union of every candidate's columns) and each batch
    emits compressed distinct (cand, A, B, n_rows) partials for ALL
    of that table's candidates; dependents carry in a typed column
    pair (b_int, b_str) so no value is recoded. Rows hash-bucket by
    (cand, A) — a key never straddles buckets — and ONE
    groupby(pbucket).map_groups computes the exact per-key distinct
    counts with a bucket-local lexsort, returning ≤ 5 fold rows per
    bucket to the driver. The round-3 version ran five sequential
    read+shuffle rounds (16 s of fixed per-pipeline cost); this plan
    pays the shuffle once (~4 s at sf0.1). `num_buckets` (default:
    table_buckets over the audited tables) scales with corpus size
    (the shuffle moves only distinct (A, B) pairs).
    Output (tbl, determinant, dependent, n_keys, n_violating_keys,
    n_violating_rows) in FD_CANDIDATES order."""
    by_table: dict[str, list[tuple[int, str, str]]] = {}
    for cid, (tbl, det, dep) in enumerate(FD_CANDIDATES):
        by_table.setdefault(tbl, []).append((cid, det, dep))
    nb = table_buckets(sf_dir, *sorted(by_table)) if num_buckets is None \
        else int(num_buckets)

    def _partials(batch: pa.Table,
                  cands: tuple[tuple[int, str, str], ...]) -> pa.Table:
        import pandas as pd

        cid_o, a_o, bi_o, bs_o, n_o = [], [], [], [], []
        for cid, det, dep in cands:
            if batch.num_rows == 0:
                continue
            a = batch.column(det).to_numpy(zero_copy_only=False)
            b = batch.column(dep).to_numpy(zero_copy_only=False)
            ac, au = pd.factorize(a)
            bc, bu = pd.factorize(b)
            width = int(bc.max()) + 1 if bc.size else 1
            key = ac.astype(np.int64) * width + bc
            uk, cnt = np.unique(key, return_counts=True)
            av = np.asarray(au)[uk // width].astype(np.int64)
            bv = np.asarray(bu)[uk % width]
            if bv.dtype == object:          # string dependent
                bi = np.full(av.size, -1, np.int64)
                bs = bv
            else:                           # integer dependent
                bi = bv.astype(np.int64)
                bs = np.full(av.size, "", object)
            cid_o.append(np.full(uk.size, cid, np.int64))
            a_o.append(av)
            bi_o.append(bi)
            bs_o.append(bs)
            n_o.append(cnt.astype(np.int64))
        if not cid_o:
            return pa.table({
                "pbucket": pa.array([], pa.int32()),
                "cand": pa.array([], pa.int64()),
                "a": pa.array([], pa.int64()),
                "b_int": pa.array([], pa.int64()),
                "b_str": pa.array([], pa.string()),
                "n_rows": pa.array([], pa.int64())})
        cid = np.concatenate(cid_o)
        a = np.concatenate(a_o)
        return pa.table({
            "pbucket": pa.array(bucket_of(a ^ (cid << np.int64(32)), nb)),
            "cand": pa.array(cid, pa.int64()),
            "a": pa.array(a, pa.int64()),
            "b_int": pa.array(np.concatenate(bi_o), pa.int64()),
            "b_str": pa.array(np.concatenate(bs_o).tolist(), pa.string()),
            "n_rows": pa.array(np.concatenate(n_o), pa.int64()),
        })

    def _grp(group: pa.Table) -> pa.Table:
        """Bucket-local exact fold: lexsort-dedup the (cand, a, b)
        rows, count distinct b and total rows per (cand, a), emit one
        3-int row per candidate present in the bucket."""
        import pandas as pd

        cid = group.column("cand").to_numpy().astype(np.int64)
        a = group.column("a").to_numpy().astype(np.int64)
        bi = group.column("b_int").to_numpy().astype(np.int64)
        bs = group.column("b_str").to_numpy(zero_copy_only=False)
        n = group.column("n_rows").to_numpy().astype(np.int64)
        bcode = pd.factorize(bs)[0].astype(np.int64) if bs.size \
            else np.zeros(0, np.int64)
        order = np.lexsort((bcode, bi, a, cid))
        cid, a, bi, bc2, n = (cid[order], a[order], bi[order],
                              bcode[order], n[order])
        newpair = np.concatenate(([True],
                                  (cid[1:] != cid[:-1])
                                  | (a[1:] != a[:-1])
                                  | (bi[1:] != bi[:-1])
                                  | (bc2[1:] != bc2[:-1])))
        ps = np.nonzero(newpair)[0]
        rows_per_pair = np.add.reduceat(n, ps) if ps.size \
            else np.zeros(0, np.int64)
        pcid, pa_ = cid[ps], a[ps]
        newkey = np.concatenate(([True], (pcid[1:] != pcid[:-1])
                                 | (pa_[1:] != pa_[:-1])))
        ks = np.nonzero(newkey)[0]
        nvals = np.diff(np.concatenate((ks, [pcid.size])))
        nrows = np.add.reduceat(rows_per_pair, ks) if ks.size \
            else np.zeros(0, np.int64)
        kcid = pcid[ks]
        viol = nvals > 1
        uc, keys, vk, vr = group_sum(kcid, np.ones(kcid.size, np.int64),
                                     viol, np.where(viol, nrows, 0))
        return pa.table({
            "cand": pa.array(uc, pa.int64()),
            "n_keys": pa.array(keys, pa.int64()),
            "n_violating_keys": pa.array(vk, pa.int64()),
            "n_violating_rows": pa.array(vr, pa.int64()),
        })

    parts = []
    for tbl, cands in by_table.items():
        cols = sorted({c for _, det, dep in cands for c in (det, dep)})
        parts.append(
            sized_read(sf_dir, tbl, cols)
            .map_batches(_partials, fn_kwargs={"cands": tuple(cands)},
                         batch_format="pyarrow"))
    unioned = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    agg = (unioned.groupby("pbucket")
           .map_groups(_grp, batch_format="pyarrow")
           .to_pandas())                   # ≤ nb × |candidates| rows
    sums = agg.groupby("cand")[["n_keys", "n_violating_keys",
                                "n_violating_rows"]].sum()
    out = [(tbl, det, dep,
            int(sums.loc[cid, "n_keys"]) if cid in sums.index else 0,
            int(sums.loc[cid, "n_violating_keys"]) if cid in sums.index
            else 0,
            int(sums.loc[cid, "n_violating_rows"]) if cid in sums.index
            else 0)
           for cid, (tbl, det, dep) in enumerate(FD_CANDIDATES)]
    return pa.table({
        "tbl": pa.array([r[0] for r in out], pa.string()),
        "determinant": pa.array([r[1] for r in out], pa.string()),
        "dependent": pa.array([r[2] for r in out], pa.string()),
        "n_keys": pa.array([r[3] for r in out], pa.int64()),
        "n_violating_keys": pa.array([r[4] for r in out], pa.int64()),
        "n_violating_rows": pa.array([r[5] for r in out], pa.int64()),
    })


# --------------------------------------- rank-1 ALS matrix factorization

ALS_SCALE = 1024      # fixed-point unit for the latent factors
ALS_ROUNDS = 2


def q_als_rank1(sf_dir: str, rounds: int = ALS_ROUNDS) -> pa.Table:
    """Rank-1 alternating least squares over the (supplier, part)
    quantity matrix — the matrix-factorization / recommender-training
    class (Koren, Bell & Volinsky 2009), in exact integer fixed point
    so the trained factors hash-verify. Ratings r_sp = Σ round(qty);
    factors start at v_p = ALS_SCALE and alternate

        u_s = (ALS_SCALE · Σ_p r_sp·v_p) // Σ_p v_p²
        v_p = (ALS_SCALE · Σ_s r_sp·u_s) // Σ_s u_s²

    (per-entity sums over its observed ratings; floor division is the
    quantizer, applied identically in the SQL oracle's chained CTEs).
    Output one row per entity: (kind, id, factor) after `rounds`
    alternations.

    Shape: the ratings table is ONE groupby of lineitem, materialized;
    each half-round broadcasts the opposite factor vector via ray.put
    (entity-bounded model state — the standard broadcast-ALS layout;
    at extreme entity counts this becomes a partitioned join) and
    reduces per-entity (num, den) partials with one groupby sum."""
    from ray.data.aggregate import Sum as _Sum

    def _r(batch: pa.Table) -> pa.Table:
        q = _cents(batch.column("l_quantity").to_numpy()) // 100  # = round()
        return pa.table({
            "s": batch.column("l_suppkey").cast(pa.int64()),
            "p": batch.column("l_partkey").cast(pa.int64()),
            "r": pa.array(q.astype(np.int64), pa.int64()),
        })

    # (s, p) ratings sum as a packed-key bucket fold (the two-column
    # sort aggregate paid per-GROUP Python over ~1.5e5 pair groups)
    from candidategeneration_ray.functions.exchange import fold_by_bucket

    nfb = table_buckets(sf_dir, "lineitem")

    def _spb(batch: pa.Table) -> pa.Table:
        sp = pack_pair(batch.column("s").to_numpy(),
                       batch.column("p").to_numpy())
        return batch.append_column("spb", pa.array(bucket_of(sp, nfb)))

    def _rating_fold(group: pa.Table) -> pa.Table:
        r = group.column("r").to_numpy().astype(np.int64)
        u, sr = group_sum(pack_pair(group.column("s").to_numpy(),
                                    group.column("p").to_numpy()), r)
        us, up = unpack_pair(u)
        return pa.table({
            "s": pa.array(us, pa.int64()),
            "p": pa.array(up, pa.int64()),
            "r": pa.array(sr, pa.int64()),
        })

    ratings = fold_by_bucket(
        sized_read(sf_dir, "lineitem",
                   ["l_suppkey", "l_partkey", "l_quantity"])
        .map_batches(_r, batch_format="pyarrow")
        .map_batches(_spb, batch_format="pyarrow"),
        "spb", _rating_fold, nfb,
        pa.table({"s": pa.array([], pa.int64()),
                  "p": pa.array([], pa.int64()),
                  "r": pa.array([], pa.int64())})).materialize()

    def _solve(key_col: str, other_col: str, fac_keys: np.ndarray,
               fac_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One ALS half-round: update the `key_col` factors given the
        `other_col` factor vector (broadcast, sorted keys)."""
        ref = ray.put((fac_keys, fac_vals))

        def _partial(batch: pa.Table) -> pa.Table:
            ks, vs = ray.get(ref)
            key = batch.column(key_col).to_numpy().astype(np.int64)
            oth = batch.column(other_col).to_numpy().astype(np.int64)
            r = batch.column("r").to_numpy().astype(np.int64)
            f = vs[np.searchsorted(ks, oth)]
            u, num, den = group_sum(key, r * f, f * f)
            return pa.table({
                "k": pa.array(u, pa.int64()),
                "num": pa.array(num, pa.int64()),
                "den": pa.array(den, pa.int64()),
            })

        def _kb(batch: pa.Table) -> pa.Table:
            kk = batch.column("k").to_numpy()
            return batch.append_column(
                "kb", pa.array(bucket_of(kk, nfb)))

        def _nd_fold(group: pa.Table) -> pa.Table:
            kk = group.column("k").to_numpy().astype(np.int64)
            nm = group.column("num").to_numpy().astype(np.int64)
            dn = group.column("den").to_numpy().astype(np.int64)
            u, snm, sdn = group_sum(kk, nm, dn)
            return pa.table({
                "k": pa.array(u, pa.int64()),
                "num": pa.array(snm, pa.int64()),
                "den": pa.array(sdn, pa.int64()),
            })

        rows = fold_by_bucket(
            ratings.map_batches(_partial, batch_format="pyarrow")
            .map_batches(_kb, batch_format="pyarrow"),
            "kb", _nd_fold, nfb,
            pa.table({"k": pa.array([], pa.int64()),
                      "num": pa.array([], pa.int64()),
                      "den": pa.array([], pa.int64())})).take_all()
        keys = np.asarray([int(r_["k"]) for r_ in rows], np.int64)
        num = np.asarray([int(r_["num"]) for r_ in rows], np.int64)
        den = np.asarray([int(r_["den"]) for r_ in rows], np.int64)
        o = np.argsort(keys)
        keys, num, den = keys[o], num[o], den[o]
        vals = np.where(den > 0, (ALS_SCALE * num) // np.maximum(den, 1), 0)
        return keys, vals.astype(np.int64)

    # v0 = SCALE for every part present in the ratings
    p_rows = [r_ for b in ray.get(ratings.to_arrow_refs())
              for r_ in [b]]   # entity-bounded distinct below
    v_keys = np.unique(np.concatenate(
        [t.column("p").to_numpy().astype(np.int64) for t in p_rows]
        or [np.zeros(0, np.int64)]))
    v_vals = np.full(v_keys.size, ALS_SCALE, np.int64)
    u_keys = u_vals = None
    for _ in range(rounds):
        u_keys, u_vals = _solve("s", "p", v_keys, v_vals)
        v_keys, v_vals = _solve("p", "s", u_keys, u_vals)
    kinds = ["supplier"] * u_keys.size + ["part"] * v_keys.size
    ids = np.concatenate([u_keys, v_keys])
    facs = np.concatenate([u_vals, v_vals])
    return pa.table({
        "kind": pa.array(kinds, pa.string()),
        "id": pa.array(ids, pa.int64()),
        "factor": pa.array(facs, pa.int64()),
    })


# ------------------------------------------ layout planning (LPT greedy)

SHARD_PLAN_N = 4


def q_shard_plan(sf_dir: str, n_shards: int = SHARD_PLAN_N) -> pa.Table:
    """Balanced-layout planning by LPT greedy (longest processing time
    — the classic 4/3-approximation for makespan): partition cells are
    (source, lang) with mass = Σ n_chars; cells are placed heaviest
    first (ties by source, lang asc) onto the currently least-loaded
    shard (ties by smallest shard index). This is the shard-placement
    decision a distributed layout needs before writing bucketed
    output; the plan itself is deterministic so the assignment
    hash-verifies. Output one row per cell: (source, lang, mass,
    shard). The SQL oracle replays the greedy as a recursive CTE
    stepping one cell per iteration with the shard loads as columns.

    Shape: one groupby to the O(sources × langs) cell table (the
    BOUNDED planning domain — this is cells, not rows); the greedy is
    O(cells · shards) driver arithmetic."""
    from ray.data.aggregate import Sum

    rows = (sized_read(sf_dir, "documents", ["source", "lang", "n_chars"])
            .groupby(["source", "lang"])
            .aggregate(Sum("n_chars", alias_name="mass"))
            .take_all())
    cells = sorted(((int(r["mass"]), r["source"], r["lang"])
                    for r in rows),
                   key=lambda c: (-c[0], c[1], c[2]))
    loads = [0] * n_shards
    out = {"source": [], "lang": [], "mass": [], "shard": []}
    for mass, src, lng in cells:
        s = min(range(n_shards), key=lambda i: (loads[i], i))
        loads[s] += mass
        out["source"].append(src)
        out["lang"].append(lng)
        out["mass"].append(mass)
        out["shard"].append(s + 1)       # 1-based like the oracle
    return pa.table({
        "source": pa.array(out["source"], pa.string()),
        "lang": pa.array(out["lang"], pa.string()),
        "mass": pa.array(out["mass"], pa.int64()),
        "shard": pa.array(out["shard"], pa.int64()),
    })
