"""Event-stream operators over the `events` table — the windowed /
ordered operators Ray Data has no native primitive for (sessionization,
as-of join), expressed as bucketed co-location + vectorized per-group
kernels.

Partitioning assumption (documented per the custom-operator rule): all
of a user's events must co-locate, so both operators bucket by
user-id hash — a user's stream is assumed to fit one task's memory
(true even for pathological users: sessions are per-user sequential
state, the classic keyed-stream layout). The shuffle moves each event
once; every per-group kernel is numpy over the bucket's sorted arrays,
not a per-row loop.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray.data

from candidategeneration_ray.functions.groups import group_sum, run_starts
from candidategeneration_ray.functions.keys import bucket_of, pack_pair, unpack_pair
from candidategeneration_ray.functions.tableutil import sized_read, table_buckets


def _cents(values: np.ndarray) -> np.ndarray:
    """value -> integer cents with DuckDB round() semantics (the one
    shared kernel, functions/money.py)."""
    from candidategeneration_ray.functions.money import round_scaled

    return round_scaled(values)


# packed (window_index, user) key base for the windowed operators; the
# pack is guarded (below), not an unchecked testdata assumption
_UID_PACK = np.int64(1_000_003)


def _pack_window_user(widx: np.ndarray, uid: np.ndarray) -> np.ndarray:
    if uid.size and int(uid.max()) >= int(_UID_PACK):
        raise ValueError(
            f"user_id >= {int(_UID_PACK)} breaks the packed (window, user) "
            "key; widen _UID_PACK or switch to the 64-bit user hash")
    return widx * _UID_PACK + uid


def events_ds(sf_dir: str, columns: list[str]) -> ray.data.Dataset:
    """Size-aware events read (tableutil.sized_read policy — the
    windowed/sessionize family is shuffle-dominated)."""
    return sized_read(sf_dir, "events", columns)


def _with_user_bucket(sf_dir: str, ds: ray.data.Dataset) -> ray.data.Dataset:
    """`ds` (rows of sf_dir's events) with its user-hash bucket
    `ubucket`, the fold key of the keyed-stream operators. Results are
    bucket-count independent (bucketing only partitions the groupby);
    the co-location assumption is one BUCKET per task, and a single
    monster user still needs its events to fit one task — see the
    hot-user test for the measured bound."""
    nb = table_buckets(sf_dir, "events")

    def _b(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy()
        return batch.append_column(
            "ubucket", pa.array(bucket_of(u, nb)))

    return ds.map_batches(_b, batch_format="pyarrow")


def q_sessionize(sf_dir: str, gap_sec: int = 1800) -> ray.data.Dataset:
    """Gap-based sessionization (the canonical keyed-stream windowed
    aggregate): a user's events ordered by (ts, event_id) start a new
    session whenever the gap from the previous event exceeds
    `gap_sec`. Output one row per session: (user_id, session_idx,
    n_events, min_event_id, max_event_id, cents) with cents =
    Σ round(value*100) (integer money so the comparison is
    order-independent and float-exact).

    Shape: bucket by user hash → ONE lexsort per bucket over
    (user, ts, event_id) → vectorized gap flags + reduceat aggregation
    over session boundaries. No per-user Python loop."""
    gap_us = np.int64(gap_sec * 1_000_000)

    def _sessions(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        cents = _cents(group.column("value").to_numpy())
        order = np.lexsort((eid, ts, u))
        u, ts, eid, cents = u[order], ts[order], eid[order], cents[order]
        if u.size == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "session_idx": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "min_event_id": pa.array([], pa.int64()),
                "max_event_id": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            })
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap = np.concatenate(([gap_us + 1], ts[1:] - ts[:-1]))
        new_sess = new_user | (gap > gap_us)
        starts = np.nonzero(new_sess)[0]
        counts = np.diff(np.concatenate((starts, [u.size])))
        # session_idx = per-user running session number
        sess_user = u[starts]
        user_first = np.concatenate(([True], sess_user[1:] != sess_user[:-1]))
        ustart = np.nonzero(user_first)[0]
        sess_idx = np.arange(starts.size) - np.repeat(
            ustart, np.diff(np.concatenate((ustart, [starts.size]))))
        return pa.table({
            "user_id": pa.array(sess_user, pa.int64()),
            "session_idx": pa.array(sess_idx.astype(np.int64), pa.int64()),
            "n_events": pa.array(counts.astype(np.int64), pa.int64()),
            "min_event_id": pa.array(np.minimum.reduceat(eid, starts), pa.int64()),
            "max_event_id": pa.array(np.maximum.reduceat(eid, starts), pa.int64()),
            "cents": pa.array(np.add.reduceat(cents, starts), pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "value"])
    return (
        _with_user_bucket(sf_dir, ds)
        .groupby("ubucket").map_groups(_sessions, batch_format="pyarrow")
    )


def q_sessionize_sliced(sf_dir: str, gap_sec: int = 1800,
                        slice_sec: int = 6 * 3600) -> ray.data.Dataset:
    """Two-level sessionization for MONSTER users — same result as
    q_sessionize (the driver maps both to the SAME SQL oracle: a
    plan-equivalence proof, like the salted join), but no single task
    ever has to hold one user's whole stream:

    Phase 1 buckets by hash(user, time-slice), so a hot user's events
    spread across tasks, and sessionizes each slice locally (sessions
    are forced closed at slice boundaries). Exactness: within a slice
    the gap rule sees the same consecutive-event gaps the global pass
    would; only boundary-straddling sessions are split, and phase 2
    repairs exactly those.

    Phase 2 re-buckets the per-SESSION rows (compressed: one fixed-width
    row per local session, not per event) by user and merges
    consecutive sessions whose inter-session gap <= gap_sec. Sessions
    of one user are disjoint ascending time intervals, so the ordered
    merge is exact for ANY slice width — `slice_sec` trades phase-1
    parallelism against phase-2 row count and needs no tuning for
    correctness (the tests run it down to 1 s slices).

    Scale: this is the template for the other keyed-stream operators'
    monster-key regime — the co-location assumption drops from "a
    user's events fit one task" to "a user's SESSION SUMMARIES fit one
    task"."""
    gap_us = np.int64(gap_sec * 1_000_000)
    slice_us = np.int64(slice_sec) * 1_000_000
    nb = table_buckets(sf_dir, "events")

    def _slice_bucket(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy().astype(np.uint64)
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        sl = (ts // slice_us).astype(np.uint64)
        return batch.append_column(
            "sbucket",
            pa.array(bucket_of(u ^ (sl * np.uint64(0xC2B2AE3D27D4EB4F)), nb)))

    def _local_sessions(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        cents = _cents(group.column("value").to_numpy())
        empty = pa.table({
            "user_id": pa.array([], pa.int64()),
            "first_ts": pa.array([], pa.int64()),
            "last_ts": pa.array([], pa.int64()),
            "n_events": pa.array([], pa.int64()),
            "min_event_id": pa.array([], pa.int64()),
            "max_event_id": pa.array([], pa.int64()),
            "cents": pa.array([], pa.int64()),
        })
        if u.size == 0:
            return empty
        order = np.lexsort((eid, ts, u))
        u, ts, eid, cents = u[order], ts[order], eid[order], cents[order]
        sl = ts // slice_us
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        new_slice = np.concatenate(([True], sl[1:] != sl[:-1]))
        gap = np.concatenate(([gap_us + 1], ts[1:] - ts[:-1]))
        new_sess = new_user | new_slice | (gap > gap_us)
        starts = np.nonzero(new_sess)[0]
        ends = np.concatenate((starts[1:], [u.size])) - 1
        return pa.table({
            "user_id": pa.array(u[starts], pa.int64()),
            "first_ts": pa.array(ts[starts], pa.int64()),
            "last_ts": pa.array(ts[ends], pa.int64()),
            "n_events": pa.array(
                np.diff(np.concatenate((starts, [u.size]))).astype(np.int64),
                pa.int64()),
            "min_event_id": pa.array(np.minimum.reduceat(eid, starts), pa.int64()),
            "max_event_id": pa.array(np.maximum.reduceat(eid, starts), pa.int64()),
            "cents": pa.array(np.add.reduceat(cents, starts), pa.int64()),
        })

    def _merge_sessions(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy().astype(np.int64)
        first = group.column("first_ts").to_numpy()
        last = group.column("last_ts").to_numpy()
        n = group.column("n_events").to_numpy()
        mn = group.column("min_event_id").to_numpy()
        mx = group.column("max_event_id").to_numpy()
        cents = group.column("cents").to_numpy()
        if u.size == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "session_idx": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "min_event_id": pa.array([], pa.int64()),
                "max_event_id": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            })
        order = np.lexsort((first, u))
        u, first, last = u[order], first[order], last[order]
        n, mn, mx, cents = n[order], mn[order], mx[order], cents[order]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap = np.concatenate(([gap_us + 1], first[1:] - last[:-1]))
        new_sess = new_user | (gap > gap_us)
        starts = np.nonzero(new_sess)[0]
        sess_user = u[starts]
        user_first = np.concatenate(([True], sess_user[1:] != sess_user[:-1]))
        ustart = np.nonzero(user_first)[0]
        sess_idx = np.arange(starts.size) - np.repeat(
            ustart, np.diff(np.concatenate((ustart, [starts.size]))))
        return pa.table({
            "user_id": pa.array(sess_user, pa.int64()),
            "session_idx": pa.array(sess_idx.astype(np.int64), pa.int64()),
            "n_events": pa.array(np.add.reduceat(n, starts), pa.int64()),
            "min_event_id": pa.array(np.minimum.reduceat(mn, starts), pa.int64()),
            "max_event_id": pa.array(np.maximum.reduceat(mx, starts), pa.int64()),
            "cents": pa.array(np.add.reduceat(cents, starts), pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "value"])
    local = (
        ds.map_batches(_slice_bucket, batch_format="pyarrow")
        .groupby("sbucket").map_groups(_local_sessions, batch_format="pyarrow")
    )
    return (
        _with_user_bucket(sf_dir, local)
        .groupby("ubucket").map_groups(_merge_sessions, batch_format="pyarrow")
    )


def q_windowed_counts(sf_dir: str, window_sec: int = 3600) -> ray.data.Dataset:
    """Tumbling-window aggregate: per (event_type, window) event count
    and integer-cents sum. Window assignment is a pure map (epoch
    micros // window), so the whole operator is map_batches partials →
    one small groupby sum — the windowed-aggregate shape that needs no
    ordered state at all."""
    from ray.data.aggregate import Sum

    w_us = np.int64(window_sec) * 1_000_000

    def _part(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        cents = _cents(batch.column("value").to_numpy())
        return _window_type_partial(ts // w_us, et, cents, w_us)

    return (
        events_ds(sf_dir, ["ts", "event_type", "value"])
        .map_batches(_part, batch_format="pyarrow")
        .groupby(["event_type", "window_start_us"]).aggregate(
            Sum("n", alias_name="n_events"),
            Sum("cents", alias_name="cents"),
        )
    )


def _window_type_partial(win: np.ndarray, et: np.ndarray,
                         cents: np.ndarray, w_us: np.int64) -> pa.Table:
    """Per-batch (event_type, window) count + EXACT int64 cents sums:
    dictionary-encode the type once, pack (window, type_code) as one
    integer key, one group_sum for the count and the sums."""
    et_u, et_inv = np.unique(et, return_inverse=True)
    nt = max(len(et_u), 1)
    key = win * np.int64(nt) + et_inv
    uk, n, c = group_sum(key, np.ones(key.size, np.int64), cents)
    return pa.table({
        "event_type": pa.array(et_u[(uk % nt)].tolist(), pa.string()),
        "window_start_us": pa.array((uk // nt) * w_us, pa.int64()),
        "n": pa.array(n, pa.int64()),
        "cents": pa.array(c, pa.int64()),
    })


def q_range_join_counts(sf_dir: str, left_type: str = "purchase",
                        right_type: str = "click",
                        lookback_sec: int = 3600) -> ray.data.Dataset:
    """Range join over the event stream: for every `left_type` event,
    the number of same-user `right_type` events with timestamp in
    [left_ts - lookback, left_ts). Output (event_id, n_prior).

    Shape: user-hash bucketing co-locates the stream; per user segment
    the count is the DIFFERENCE OF TWO searchsorteds into the sorted
    right-side timestamps — the band/range-join primitive without any
    per-row scan."""
    lb_us = np.int64(lookback_sec) * 1_000_000

    def _range(group: pa.Table) -> pa.Table:
        """Merged-probe band count, NO per-user loop: every left event
        contributes two probes (window end at ts, window start at
        ts - lookback); probes sort BEFORE rights at equal ts, so a
        probe's running right-count (cumsum, per-user baselined) is the
        count of rights STRICTLY before it — window = end − start,
        which makes the start inclusive and the end exclusive."""
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        lm = et == left_type
        rm = et == right_type
        lu, lts, lid = u[lm], ts[lm], eid[lm]
        ru, rts = u[rm], ts[rm]
        L, R = lu.size, ru.size
        if L == 0:
            return pa.table({
                "event_id": pa.array([], pa.int64()),
                "n_prior": pa.array([], pa.int64()),
            })
        all_u = np.concatenate((ru, lu, lu))
        all_ts = np.concatenate((rts, lts, lts - lb_us))
        kind = np.concatenate((np.ones(R, np.int64),
                               np.zeros(2 * L, np.int64)))  # probe=0 < right=1
        pid = np.concatenate((np.full(R, -1, np.int64),
                              np.arange(L), np.arange(L) + L))
        order = np.lexsort((kind, all_ts, all_u))
        su, sk, sp = all_u[order], kind[order], pid[order]
        is_right = sk == 1
        cnt_before = np.cumsum(is_right) - is_right  # rights strictly before row
        # per-user baseline (rights belong to earlier users otherwise)
        new_user = np.concatenate(([True], su[1:] != su[:-1]))
        ustarts = np.nonzero(new_user)[0]
        seg_len = np.diff(np.concatenate((ustarts, [su.size])))
        baseline = np.repeat(cnt_before[ustarts], seg_len)
        cnt_user = cnt_before - baseline
        cnt_end = np.zeros(L, np.int64)
        cnt_start = np.zeros(L, np.int64)
        m_end = (sp >= 0) & (sp < L)
        m_start = sp >= L
        cnt_end[sp[m_end]] = cnt_user[m_end]
        cnt_start[sp[m_start] - L] = cnt_user[m_start]
        return pa.table({
            "event_id": pa.array(lid, pa.int64()),
            "n_prior": pa.array(cnt_end - cnt_start, pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type"])
    return (
        _with_user_bucket(sf_dir, ds)
        .groupby("ubucket").map_groups(_range, batch_format="pyarrow")
    )


def q_asof_join(sf_dir: str, left_type: str = "purchase",
                right_type: str = "click") -> ray.data.Dataset:
    """As-of join over the event stream: for every `left_type` event,
    the most recent STRICTLY-earlier `right_type` event of the same
    user (ties among equal right-side timestamps resolve to the
    largest event id). Output (event_id, click_event_id, gap_us) —
    left events with no prior match are dropped (inner as-of).

    Shape: bucket by user hash co-locates each user's stream; per
    bucket, one lexsort of each side and a per-user searchsorted of
    left timestamps into the right side's — the textbook sorted-merge
    as-of, vectorized per user segment."""

    def _asof(group: pa.Table) -> pa.Table:
        """Merged-scan as-of, NO per-user loop: lefts and rights sort
        together by (user, ts, side) with lefts before rights at equal
        ts (so an equal-ts right is not yet 'seen'); the most recent
        prior right is then one np.maximum.accumulate over right
        positions, validated against user boundaries."""
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        lm = et == left_type
        rm = et == right_type
        empty = pa.table({
            "event_id": pa.array([], pa.int64()),
            "click_event_id": pa.array([], pa.int64()),
            "gap_us": pa.array([], pa.int64()),
        })
        if not lm.any() or not rm.any():
            return empty
        side = np.where(rm, 1, 0)[lm | rm]          # left=0 < right=1
        mu, mts, mid = u[lm | rm], ts[lm | rm], eid[lm | rm]
        # rights at equal (ts, user): the LARGEST event id must win the
        # as-of tie, so sort rights by eid and lefts before all rights
        order = np.lexsort((mid, side, mts, mu))
        mu, mts, mid, side = mu[order], mts[order], mid[order], side[order]
        is_r = side == 1
        # last right index seen so far (−1 = none)
        marker = np.where(is_r, np.arange(mu.size), -1)
        last_r = np.maximum.accumulate(marker)
        lpos = np.nonzero(~is_r)[0]
        src = last_r[lpos]
        ok = src >= 0
        ok[ok] &= mu[src[ok]] == mu[lpos[ok]]       # right belongs to same user
        lsel, rsel = lpos[ok], src[ok]
        return pa.table({
            "event_id": pa.array(mid[lsel], pa.int64()),
            "click_event_id": pa.array(mid[rsel], pa.int64()),
            "gap_us": pa.array(mts[lsel] - mts[rsel], pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type"])
    return (
        _with_user_bucket(sf_dir, ds)
        .groupby("ubucket").map_groups(_asof, batch_format="pyarrow")
    )


# Fixed campaign windows for the interval-overlap join (UTC, closed
# [start, end] on both sides); the events table spans Jan 2024
CAMPAIGNS: list[tuple[int, str, str]] = [
    (1, "2024-01-03 00:00:00", "2024-01-05 23:59:59"),
    (2, "2024-01-10 12:00:00", "2024-01-11 11:59:59"),
    (3, "2024-01-15 00:00:00", "2024-01-21 23:59:59"),
    (4, "2024-01-29 00:00:00", "2024-02-02 00:00:00"),
]


def q_campaign_overlap(sf_dir: str, gap_sec: int = 1800) -> ray.data.Dataset:
    """Interval-overlap join: per fixed campaign window, how many user
    SESSIONS (same gap rule as q_sessionize) overlap it and their
    total integer cents — attribution of derived intervals against a
    broadcast interval dimension (the classic range-overlap join with
    one tiny side).

    Shape: the sessionize bucket kernel, extended with per-session
    [min ts, max ts] bounds; each bucket tests its sessions against
    the BROADCAST campaign windows (closed-interval overlap:
    smin <= c_end AND smax >= c_start) and emits O(campaigns) partial
    rows; a tiny groupby sums them. The corpus-scale side never
    shuffles by campaign. Returns (campaign_id, n_sessions, cents)."""
    import datetime as _dt

    from ray.data.aggregate import Sum

    gap_us = np.int64(gap_sec * 1_000_000)
    bounds = [
        # naive-UTC epoch micros (the table's ts is a naive timestamp;
        # never go through the host's local timezone)
        (cid,
         int(_dt.datetime.fromisoformat(a).replace(
             tzinfo=_dt.timezone.utc).timestamp() * 1_000_000),
         int(_dt.datetime.fromisoformat(b).replace(
             tzinfo=_dt.timezone.utc).timestamp() * 1_000_000))
        for cid, a, b in CAMPAIGNS
    ]

    def _overlap(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        cents = _cents(group.column("value").to_numpy())
        empty = pa.table({
            "campaign_id": pa.array([], pa.int64()),
            "n_sessions": pa.array([], pa.int64()),
            "cents": pa.array([], pa.int64()),
        })
        if u.size == 0:
            return empty
        order = np.lexsort((eid, ts, u))
        u, ts, cents = u[order], ts[order], cents[order]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap = np.concatenate(([gap_us + 1], ts[1:] - ts[:-1]))
        starts = np.nonzero(new_user | (gap > gap_us))[0]
        ends = np.concatenate((starts[1:], [u.size]))
        smin, smax = ts[starts], ts[ends - 1]
        pref = np.concatenate(([0], np.cumsum(cents)))
        scents = pref[ends] - pref[starts]
        out_c, out_n, out_s = [], [], []
        for cid, c0, c1 in bounds:
            m = (smin <= c1) & (smax >= c0)
            if m.any():
                out_c.append(cid)
                out_n.append(int(m.sum()))
                out_s.append(int(scents[m].sum()))
        if not out_c:
            return empty
        return pa.table({
            "campaign_id": pa.array(out_c, pa.int64()),
            "n_sessions": pa.array(out_n, pa.int64()),
            "cents": pa.array(out_s, pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "value"])
    return (
        _with_user_bucket(sf_dir, ds)
        .groupby("ubucket").map_groups(_overlap, batch_format="pyarrow")
        .groupby("campaign_id")
        .aggregate(Sum("n_sessions", alias_name="n_sessions"),
                   Sum("cents", alias_name="cents"))
    )


def q_rolling_spend(sf_dir: str, window_sec: int = 3600,
                    event_type: str = "purchase") -> ray.data.Dataset:
    """Per-event rolling RANGE-window aggregate: for every `event_type`
    event, the count and integer-cents sum of the SAME user's
    `event_type` events in the trailing `window_sec` window — SQL's
    `RANGE BETWEEN INTERVAL .. PRECEDING AND CURRENT ROW` frame, so
    equal-timestamp peers are included on both ends. The per-entity
    trailing-spend / velocity feature of fraud and abuse pipelines.

    Shape: bucket by user hash → one lexsort per bucket → BOTH frame
    bounds from two np.searchsorted calls over a single monotone
    composite key (segment_rank * band + ts_offset with band >
    ts_span + window, so a query shifted by `window` can never cross
    a segment boundary) → prefix-sum differences. No per-user loop;
    the window never needs materializing."""
    win_us = np.int64(window_sec * 1_000_000)

    def _rolling(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        keep = et == event_type
        u = group.column("user_id").to_numpy().astype(np.int64)[keep]
        ts = group.column("ts").cast(pa.int64()).to_numpy()[keep]
        eid = group.column("event_id").to_numpy().astype(np.int64)[keep]
        cents = _cents(group.column("value").to_numpy()[keep])
        empty = pa.table({
            "event_id": pa.array([], pa.int64()),
            "n_window": pa.array([], pa.int64()),
            "cents_window": pa.array([], pa.int64()),
        })
        if u.size == 0:
            return empty
        order = np.lexsort((eid, ts, u))
        u, ts, eid, cents = u[order], ts[order], eid[order], cents[order]
        seg = np.concatenate(([True], u[1:] != u[:-1])).cumsum() - 1
        ts0 = ts - ts.min()
        band = int(ts0.max()) + int(win_us) + 2
        if (int(seg[-1]) + 1) * band >= 2**62:  # guarded pack
            raise ValueError("rolling-window composite key would overflow; "
                             "shrink the bucket's time span or window")
        comp = seg * np.int64(band) + ts0
        left = np.searchsorted(comp, comp - win_us, side="left")
        right = np.searchsorted(comp, comp, side="right")
        pref = np.concatenate(([0], np.cumsum(cents)))
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "n_window": pa.array(right - left, pa.int64()),
            "cents_window": pa.array(pref[right] - pref[left], pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type",
                            "value"])
    return (
        _with_user_bucket(sf_dir, ds)
        .groupby("ubucket").map_groups(_rolling, batch_format="pyarrow")
    )


def q_sliding_counts(sf_dir: str, window_sec: int = 3600,
                     slide_sec: int = 900) -> ray.data.Dataset:
    """SLIDING-window aggregate: per (event_type, window) count and
    integer-cents sum over windows of `window_sec` advancing every
    `slide_sec` (window covers [start, start + window)).  Each event
    is fanned out to its window_sec/slide_sec containing windows inside
    map_batches (a pure map — no ordered state), partials compressed
    per batch, one groupby sum.  The fan-out factor is the overlap
    ratio, so output shuffle volume is (W/S) * O(types x windows) per
    batch, never O(events)."""
    from ray.data.aggregate import Sum

    assert window_sec % slide_sec == 0
    s_us = np.int64(slide_sec) * 1_000_000
    fan = window_sec // slide_sec

    def _part(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        cents = _cents(batch.column("value").to_numpy())
        base = ts // s_us
        # window starts base-j for j in 0..fan-1 all contain ts
        win = (np.repeat(base, fan)
               - np.tile(np.arange(fan, dtype=np.int64), ts.size))
        return _window_type_partial(
            win, np.repeat(et, fan), np.repeat(cents, fan), s_us)

    return (
        events_ds(sf_dir, ["ts", "event_type", "value"])
        .map_batches(_part, batch_format="pyarrow")
        .groupby(["event_type", "window_start_us"]).aggregate(
            Sum("n", alias_name="n_events"),
            Sum("cents", alias_name="cents"),
        )
    )


def q_windowed_distinct_users(sf_dir: str,
                              window_sec: int = 3600) -> ray.data.Dataset:
    """EXACT distinct-user count per (event_type, tumbling window) —
    the windowed-dedup composition (the cardinality twin of
    q_windowed_counts; the HLL sketch in pipelines/sketches.py is the
    approximate alternative when exact distinct is too wide).

    Shape: per-batch distinct (type, window, user) triples compress the
    stream first (a user's repeat events within a batch emit one row);
    one vectorized groupby-count dedups the triples globally; a second
    O(windows x types) groupby sums the distinct rows. Both shuffles
    carry compressed rows, never raw events."""
    from ray.data.aggregate import Count

    w_us = np.int64(window_sec) * 1_000_000

    def _part(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        win = (ts // w_us) * w_us
        # batch-local distinct triples: dictionary-encode the type,
        # ONE lexsort + first-occurrence mask (no per-event strings)
        et_u, et_inv = np.unique(et, return_inverse=True)
        order = np.lexsort((uid, win, et_inv))
        e, w, u = et_inv[order], win[order], uid[order]
        first = np.r_[True, (e[1:] != e[:-1]) | (w[1:] != w[:-1])
                      | (u[1:] != u[:-1])] if e.size else np.empty(0, bool)
        return pa.table({
            "event_type": pa.array(et_u[e[first]].tolist(), pa.string()),
            "window_start_us": pa.array(w[first], pa.int64()),
            "user_id": pa.array(u[first], pa.int64()),
        })

    # global distinct + per-(type, window) count as ONE bucket fold
    # keyed by (type, window) — a group never straddles buckets, so
    # the fold's local distinct + count IS the global answer (the two
    # chained multi-key sort aggregates paid per-GROUP Python over
    # ~10^5 triple groups: 10.7 s; ~1 s as a fold)
    from candidategeneration_ray.functions.exchange import fold_by_bucket

    nfb = table_buckets(sf_dir, "events")

    def _twb(batch: pa.Table) -> pa.Table:
        import pandas as pd

        et = np.asarray(batch.column("event_type").to_pylist(), object)
        w = batch.column("window_start_us").to_numpy().astype(np.uint64)
        return batch.append_column(
            "twb", pa.array(bucket_of(pd.util.hash_array(et) ^ w, nfb)))

    def _distinct_count(group: pa.Table) -> pa.Table:
        import pandas as pd

        et = np.asarray(group.column("event_type").to_pylist(), object)
        w = group.column("window_start_us").to_numpy().astype(np.int64)
        u = group.column("user_id").to_numpy().astype(np.int64)
        codes, uniq = pd.factorize(et)
        order = np.lexsort((u, w, codes))
        e, ww, uu = codes[order], w[order], u[order]
        first = np.r_[True, (e[1:] != e[:-1]) | (ww[1:] != ww[:-1])
                      | (uu[1:] != uu[:-1])] if e.size             else np.empty(0, bool)
        e, ww = e[first], ww[first]
        gfirst = np.r_[True, (e[1:] != e[:-1]) | (ww[1:] != ww[:-1])]             if e.size else np.empty(0, bool)
        starts = np.nonzero(gfirst)[0]
        counts = np.diff(np.concatenate((starts, [e.size])))
        return pa.table({
            "event_type": pa.array(
                np.asarray(uniq, object)[e[starts]].tolist(), pa.string()),
            "window_start_us": pa.array(ww[starts], pa.int64()),
            "n_users": pa.array(counts.astype(np.int64), pa.int64()),
        })

    return fold_by_bucket(
        events_ds(sf_dir, ["ts", "event_type", "user_id"])
        .map_batches(_part, batch_format="pyarrow")
        .map_batches(_twb, batch_format="pyarrow"),
        "twb", _distinct_count, nfb,
        pa.table({"event_type": pa.array([], pa.string()),
                  "window_start_us": pa.array([], pa.int64()),
                  "n_users": pa.array([], pa.int64())}))


def q_window_top_users(sf_dir: str, window_sec: int = 3600,
                       k: int = 3) -> ray.data.Dataset:
    """Group-wise top-k over the stream: per tumbling window the k most
    active users by event count, ties by user_id asc — the exact
    "trending entities per window" shape.

    Shape: per-batch (window, user) count partials -> one vectorized
    groupby sum -> per-WINDOW-bucket top-k (one lexsort + rank mask per
    bucket, no per-window Python). The final shuffle carries k rows per
    window."""
    from ray.data.aggregate import Sum

    w_us = np.int64(window_sec) * 1_000_000

    def _part(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        # pack the window INDEX (~5e5), not the epoch-us start
        # (~1.7e15 — start * pack would overflow int64)
        ku, cnt = np.unique(_pack_window_user(ts // w_us, uid),
                            return_counts=True)
        return pa.table({
            "window_start_us": pa.array((ku // _UID_PACK) * w_us, pa.int64()),
            "user_id": pa.array(ku % _UID_PACK, pa.int64()),
            "n": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    def _topk_bucket(group: pa.Table) -> pa.Table:
        win = group.column("window_start_us").to_numpy().astype(np.int64)
        uid = group.column("user_id").to_numpy().astype(np.int64)
        n = group.column("n").to_numpy().astype(np.int64)
        order = np.lexsort((uid, -n, win))
        w = win[order]
        first = np.r_[True, w[1:] != w[:-1]]
        starts = np.flatnonzero(first)
        rank = np.arange(w.size, dtype=np.int64) - np.repeat(
            starts, np.diff(np.r_[starts, w.size]))
        sel = order[rank < k]
        return pa.table({
            "window_start_us": pa.array(win[sel], pa.int64()),
            "rank": pa.array(rank[rank < k] + 1, pa.int64()),
            "user_id": pa.array(uid[sel], pa.int64()),
            "n_events": pa.array(n[sel], pa.int64()),
        })

    # (window, user) sum + per-window top-k as ONE bucket fold keyed
    # by window (a window's rows never straddle buckets) — the
    # (window, user) sort aggregate paid per-GROUP Python over ~10^5
    # pair groups (8.4 s; ~1 s as a fold)
    from candidategeneration_ray.functions.exchange import fold_by_bucket

    nb = np.int64(table_buckets(sf_dir, "events"))

    def _bucket(batch: pa.Table) -> pa.Table:
        win = batch.column("window_start_us").to_numpy().astype(np.int64)
        return batch.append_column(
            "bkt", pa.array(((win // w_us) % nb).astype(np.int32)))

    def _sum_topk(group: pa.Table) -> pa.Table:
        win = group.column("window_start_us").to_numpy().astype(np.int64)
        uid = group.column("user_id").to_numpy().astype(np.int64)
        n = group.column("n").to_numpy().astype(np.int64)
        ku, sums = group_sum(_pack_window_user(win // w_us, uid), n)
        return _topk_bucket(pa.table({
            "window_start_us": pa.array((ku // _UID_PACK) * w_us,
                                        pa.int64()),
            "user_id": pa.array(ku % _UID_PACK, pa.int64()),
            "n": pa.array(sums, pa.int64()),
        }))

    return fold_by_bucket(
        events_ds(sf_dir, ["ts", "user_id"])
        .map_batches(_part, batch_format="pyarrow")
        .map_batches(_bucket, batch_format="pyarrow"),
        "bkt", _sum_topk, int(nb),
        pa.table({"window_start_us": pa.array([], pa.int64()),
                  "rank": pa.array([], pa.int64()),
                  "user_id": pa.array([], pa.int64()),
                  "n_events": pa.array([], pa.int64())}))


def q_windowed_heavy_hitters(sf_dir: str, window_sec: int = 86400,
                             phi100: int = 150,
                             capacity: int = 200) -> ray.data.Dataset:
    """EXACT per-window heavy hitters via a keyed 2-pass Misra-Gries:
    every (window, user) whose event count is >= phi of the window's
    total (phi = phi100/10000, threshold ceil'd exactly in integers).

    Pass 1 compresses each batch's exact (window, user) counts to an MG
    summary of <= `capacity` entries per window (subtract the
    (capacity+1)-th largest count t_b; sum of t_b over batches <=
    n_w/(capacity+1) = the classic MG error bound, so no true hitter is
    lost) plus one per-window total row, merged by ONE groupby sum.
    Pass 2 broadcasts the pruned candidate set (<= ~2/phi ids per
    window) and counts exactly; only summaries and candidate-restricted
    counts ever shuffle. The same sketch-then-verify shape as the
    global q_frequent_terms (sketches.py) generalized to keyed windows.

    Soundness requires capacity+1 > 1/phi (else the MG error bound
    n_w/(capacity+1) reaches the threshold and a true hitter can be
    decremented out of every batch summary), so `capacity` is raised
    to ceil(10000/phi100) when set lower."""
    from ray.data.aggregate import Sum

    capacity = max(capacity, -(-10000 // phi100))
    w_us = np.int64(window_sec) * 1_000_000
    PK = _UID_PACK  # guarded pack; user_id = -1 marks totals

    def _pack(batch: pa.Table) -> np.ndarray:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        return _pack_window_user(ts // w_us, uid)

    _EMPTY = pa.table({
        "window_start_us": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "cnt": pa.array([], pa.int64()),
    })

    def _mg_partial(batch: pa.Table) -> pa.Table:
        ku, cnt = np.unique(_pack(batch), return_counts=True)
        if ku.size == 0:  # reduceat/fancy-index below need >= 1 group
            return _EMPTY
        w, u = ku // PK, ku % PK
        # per-window rank by count desc (lexsort is enough; ties keep
        # arbitrary members — MG allows any (capacity+1)-th value)
        order = np.lexsort((-cnt, w))
        ws, cs, us = w[order], cnt[order], u[order]
        first = np.r_[True, ws[1:] != ws[:-1]]
        starts = np.flatnonzero(first)
        lens = np.diff(np.r_[starts, ws.size])
        rank = np.arange(ws.size) - np.repeat(starts, lens)
        # t = (capacity+1)-th largest count per window (0 if fewer)
        t = np.zeros(starts.size, dtype=np.int64)
        has = lens > capacity
        t[has] = cs[starts[has] + capacity]
        dec = cs - np.repeat(t, lens)
        keep = dec > 0
        totals = np.add.reduceat(cs, starts)
        out_w = np.concatenate((ws[keep], ws[starts]))
        out_u = np.concatenate((us[keep], np.full(starts.size, -1, np.int64)))
        out_c = np.concatenate((dec[keep], totals))
        return pa.table({
            "window_start_us": pa.array(out_w * w_us, pa.int64()),
            "user_id": pa.array(out_u, pa.int64()),
            "cnt": pa.array(out_c, pa.int64()),
        })

    merged = (
        events_ds(sf_dir, ["ts", "user_id"])
        .map_batches(_mg_partial, batch_format="pyarrow")
        .groupby(["window_start_us", "user_id"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .materialize()
    )

    import pyarrow.compute as pc

    def _total_rows(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("user_id"), -1))

    totals = {
        int(r["window_start_us"]): int(r["cnt"])
        for r in merged.map_batches(
            _total_rows, batch_format="pyarrow").take_all()
    }
    # thr = ceil(phi * n_w) exactly; candidates need cnt >= thr - err
    thr = {w: -(-phi100 * n // 10000) for w, n in totals.items()}
    err = {w: n // (capacity + 1) for w, n in totals.items()}
    cut_ref = ray.put({w: thr[w] - err[w] for w in totals})

    def _prune(batch: pa.Table) -> pa.Table:
        cut = ray.get(cut_ref)
        w = batch.column("window_start_us").to_numpy()
        u = batch.column("user_id").to_numpy()
        c = batch.column("cnt").to_numpy()
        cuts = np.array([cut[int(x)] for x in w], dtype=np.int64)
        return batch.filter(pa.array((u != -1) & (c >= cuts)))

    cand = np.sort(np.array([
        (int(r["window_start_us"]) // int(w_us)) * PK + int(r["user_id"])
        for r in merged.map_batches(_prune, batch_format="pyarrow").take_all()
    ], dtype=np.int64))
    cand_ref = ray.put(cand)
    thr_ref = ray.put(thr)

    def _exact_partial(batch: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        key = _pack(batch)
        if cands.size:
            pos = np.minimum(np.searchsorted(cands, key), cands.size - 1)
            key = key[cands[pos] == key]
        else:
            key = key[:0]
        ku, cnt = np.unique(key, return_counts=True)
        return pa.table({
            "window_start_us": pa.array((ku // PK) * w_us, pa.int64()),
            "user_id": pa.array(ku % PK, pa.int64()),
            "n_events": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    def _threshold(batch: pa.Table) -> pa.Table:
        t = ray.get(thr_ref)
        w = batch.column("window_start_us").to_numpy()
        n = batch.column("n_events").to_numpy()
        ts = np.array([t[int(x)] for x in w], dtype=np.int64)
        return batch.filter(pa.array(n >= ts))

    return (
        events_ds(sf_dir, ["ts", "user_id"])
        .map_batches(_exact_partial, batch_format="pyarrow")
        .groupby(["window_start_us", "user_id"])
        .aggregate(Sum("n_events", alias_name="n_events"))
        .map_batches(_threshold, batch_format="pyarrow")
    )


FUNNEL_STAGES = ["signup", "click", "purchase"]


def q_funnel_counts(sf_dir: str,
                    stages: list[str] | None = None) -> ray.data.Dataset:
    """Ordered funnel: per stage, how many users' streams contain the
    stage sequence so far as a strictly-time-increasing subsequence
    (greedy earliest-match — optimal for subsequence existence).

    Shape: one user-hash bucket shuffle (all of a user's events
    co-locate, the events-module invariant), then a vectorized kernel
    per bucket — one lexsort, then per stage one boolean mask +
    np.minimum.at scatter for the per-user earliest admissible event;
    no per-user Python. Buckets emit m partial rows; a tiny groupby
    sums them."""
    from ray.data.aggregate import Sum

    stages = stages or FUNNEL_STAGES
    INF = np.iinfo(np.int64).max

    def _bucket_partial(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((ts, uid))
        u, t, e = uid[order], ts[order], et[order]
        first = np.r_[True, u[1:] != u[:-1]]
        uidx = np.cumsum(first) - 1
        n_users = int(first.sum())
        prev = np.full(n_users, np.int64(-1))
        reached = []
        for s in stages:
            # t > prev also kills dead users (prev == INF beats any ts)
            mask = (e == s) & (t > prev[uidx])
            cur = np.full(n_users, INF)
            if mask.any():
                np.minimum.at(cur, uidx[mask], t[mask])
            prev = cur
            reached.append(int((cur != INF).sum()))
        return pa.table({
            "stage": pa.array(np.arange(1, len(stages) + 1), pa.int64()),
            "event_type": pa.array(stages, pa.string()),
            "n_users": pa.array(reached, pa.int64()),
        })

    return (
        _with_user_bucket(
            sf_dir, events_ds(sf_dir, ["ts", "user_id", "event_type"]))
        .groupby("ubucket")
        .map_groups(_bucket_partial, batch_format="pyarrow")
        .groupby(["stage", "event_type"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def q_cohort_retention(sf_dir: str, cohort_sec: int = 7 * 86400,
                       horizon: int = 5) -> ray.data.Dataset:
    """Cohort-retention matrix: users are cohorted by the week of
    their FIRST signup; cell (cohort, k) counts cohort users with at
    least one purchase in cohort-week + k (0 <= k < horizon, week
    arithmetic on epoch//cohort_sec so a purchase earlier in the
    signup week still counts as week 0).

    ONE user-hash shuffle: each bucket derives first-signup cohorts
    and distinct (user, week-offset) purchase activity with sorted-
    array kernels (lexsort + minimum.reduceat + packed unique), emits
    O(cohorts x horizon) partial counts, and a tiny groupby sums
    them."""
    from ray.data.aggregate import Sum

    w_us = np.int64(cohort_sec) * 1_000_000

    def _bucket_partial(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((ts, uid))
        u, t, e = uid[order], ts[order], et[order]
        first = np.r_[True, u[1:] != u[:-1]]
        uidx = np.cumsum(first) - 1
        n_users = int(first.sum())
        # first signup ts per user (rows sorted by ts within user, so
        # the first signup row per user is the min)
        sm = e == "signup"
        t0wk = np.full(n_users, np.int64(-1))
        if sm.any():
            su = uidx[sm]
            sfirst = np.r_[True, su[1:] != su[:-1]]
            t0wk[su[sfirst]] = t[sm][sfirst] // w_us
        pm = e == "purchase"
        pu = uidx[pm]
        off = t[pm] // w_us - t0wk[pu]
        ok = (t0wk[pu] >= 0) & (off >= 0) & (off < horizon)
        # distinct (user, offset); pack then unique
        key = np.unique(pu[ok] * np.int64(horizon) + off[ok])
        cu, co = key // horizon, key % horizon
        ck, cnt = np.unique(
            t0wk[cu] * np.int64(horizon) + co, return_counts=True)
        return pa.table({
            "cohort_start_us": pa.array((ck // horizon) * w_us, pa.int64()),
            "week_offset": pa.array(ck % horizon, pa.int64()),
            "n_users": pa.array(cnt.astype(np.int64), pa.int64()),
        })

    return (
        _with_user_bucket(
            sf_dir, events_ds(sf_dir, ["ts", "user_id", "event_type"]))
        .groupby("ubucket")
        .map_groups(_bucket_partial, batch_format="pyarrow")
        .groupby(["cohort_start_us", "week_offset"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def q_session_length_hist(sf_dir: str,
                          gap_sec: int = 1800) -> ray.data.Dataset:
    """Composition over sessionization: the distribution of session
    lengths — (n_events, n_sessions) per distinct session size, plus
    total session cents per size. One extra compressed groupby on top
    of q_sessionize's bucketed output (sessions are already
    O(sessions) rows, the histogram is O(distinct sizes))."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        n = batch.column("n_events").to_numpy().astype(np.int64)
        c = batch.column("cents").to_numpy().astype(np.int64)
        u, cnt, cs = group_sum(n, np.ones(n.size, np.int64), c)
        return pa.table({
            "n_events": pa.array(u, pa.int64()),
            "n_sessions": pa.array(cnt, pa.int64()),
            "cents": pa.array(cs, pa.int64()),
        })

    return (
        q_sessionize(sf_dir, gap_sec=gap_sec)
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("n_events")
        .aggregate(Sum("n_sessions", alias_name="n_sessions"),
                   Sum("cents", alias_name="cents"))
    )


def q_last_touch(sf_dir: str) -> ray.data.Dataset:
    """Group-wise argmax ("last touch" attribution): each user's most
    recent event — ties on ts broken by event_id desc (the latest
    write wins deterministically). Per bucket one lexsort + last-row
    mask; no per-user Python."""
    def _last(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        u = uid[order]
        last = np.r_[u[1:] != u[:-1], True]
        sel = order[last]
        return pa.table({
            "user_id": pa.array(uid[sel], pa.int64()),
            "ts_us": pa.array(ts[sel], pa.int64()),
            "event_id": pa.array(eid[sel], pa.int64()),
            "event_type": group.column("event_type").take(pa.array(sel)),
        })

    return (
        _with_user_bucket(sf_dir, 
            events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type"]))
        .groupby("ubucket")
        .map_groups(_last, batch_format="pyarrow")
    )


def q_event_dedup_counts(sf_dir: str, window_sec: int = 60) -> ray.data.Dataset:
    """Stream dedup signal: per event_type, how many events are
    near-duplicates — same (user, type) within `window_sec` of the
    PREVIOUS same-kind event (the at-least-once-delivery dedup rule).
    Per bucket one lexsort over (user, type, ts, event_id) + one
    shifted-gap compare; output is O(types) rows per bucket."""
    from ray.data.aggregate import Sum

    w_us = np.int64(window_sec) * 1_000_000

    def _dups(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = np.asarray(group.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((eid, ts, et, uid))
        u, t, e = uid[order], ts[order], et[order]
        same = np.r_[False, (u[1:] == u[:-1]) & (e[1:] == e[:-1])]
        dup = same & np.r_[False, (t[1:] - t[:-1]) <= w_us]
        uniq, n_all, n_dup = group_sum(e, np.ones(e.size, np.int64), dup)
        return pa.table({
            "event_type": pa.array(uniq.tolist(), pa.string()),
            "n_events": pa.array(n_all, pa.int64()),
            "n_dups": pa.array(n_dup, pa.int64()),
        })

    return (
        _with_user_bucket(sf_dir, 
            events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type"]))
        .groupby("ubucket")
        .map_groups(_dups, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n_events", alias_name="n_events"),
                   Sum("n_dups", alias_name="n_dups"))
    )


GAP_BUCKET_US = np.int64(60_000_000)   # 1-minute histogram bins
GAP_BUCKET_CAP = np.int64(60)          # clamp at 60 (1 hour tail bin)


def q_gap_histogram(sf_dir: str) -> ray.data.Dataset:
    """Inter-event gap histogram — the LAG window shape: for every
    same-user consecutive event pair (ordered by ts, event_id), the
    gap in whole minutes (floor of the microsecond difference),
    clamped at GAP_BUCKET_CAP. Output one row per bucket:
    (gap_min_bucket, n_gaps). The gap statistic is what picks the
    sessionization threshold; the LAG shape is the one windowed
    primitive (offset frame) the surface didn't cover.

    Shape: bucket by user hash → one lexsort per bucket → vectorized
    consecutive diff masked at user boundaries → per-bucket histogram
    partial (≤ CAP+1 rows) → tiny groupby sum. All integer — the
    oracle compares exactly."""
    def _gaps(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        order = np.lexsort((eid, ts, u))
        u, ts = u[order], ts[order]
        if u.size < 2:
            return pa.table({"gap_min_bucket": pa.array([], pa.int64()),
                             "n_gaps": pa.array([], pa.int64())})
        same = u[1:] == u[:-1]
        gap_us = (ts[1:] - ts[:-1])[same]
        bucket = np.minimum(gap_us // GAP_BUCKET_US, GAP_BUCKET_CAP)
        b, n = np.unique(bucket, return_counts=True)
        return pa.table({
            "gap_min_bucket": pa.array(b.astype(np.int64), pa.int64()),
            "n_gaps": pa.array(n.astype(np.int64), pa.int64()),
        })

    from ray.data.aggregate import Sum

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id"])
    return (
        _with_user_bucket(sf_dir, ds)
        .groupby("ubucket").map_groups(_gaps, batch_format="pyarrow")
        .groupby("gap_min_bucket")
        .aggregate(Sum("n_gaps", alias_name="n_gaps"))
    )


def q_running_spend(sf_dir: str,
                    event_type: str = "purchase") -> ray.data.Dataset:
    """Per-user RUNNING total — the ROWS UNBOUNDED PRECEDING prefix
    scan (rolling_spend covers the bounded RANGE frame; this is the
    cumulative frame): for each purchase event, the user's cumulative
    spend cents up to and including it, ordered by (ts, event_id).

    Shape: bucket by user hash → one lexsort per bucket → segmented
    cumulative sum (global cumsum minus the per-user segment offset,
    two vectorized ops). Output one row per purchase event."""
    def _running(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        keep = et == event_type
        u = group.column("user_id").to_numpy().astype(np.int64)[keep]
        ts = group.column("ts").cast(pa.int64()).to_numpy()[keep]
        eid = group.column("event_id").to_numpy().astype(np.int64)[keep]
        cents = _cents(group.column("value").to_numpy()[keep])
        if u.size == 0:
            return pa.table({
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "running_cents": pa.array([], pa.int64()),
            })
        order = np.lexsort((eid, ts, u))
        u, eid, cents = u[order], eid[order], cents[order]
        csum = np.cumsum(cents)
        starts = run_starts(u)
        seg_off = np.repeat(
            csum[starts] - cents[starts],
            np.diff(np.concatenate((starts, [u.size]))))
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "user_id": pa.array(u, pa.int64()),
            "running_cents": pa.array(csum - seg_off, pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type",
                            "value"])
    return (_with_user_bucket(sf_dir, ds)
            .groupby("ubucket").map_groups(_running, batch_format="pyarrow"))


FEATURE_SESSION_GAP_SEC = 1800


def q_user_features(sf_dir: str) -> ray.data.Dataset:
    """Feature-store materialization — per-user feature vector in ONE
    bucket pass (the multi-aggregate extraction every training
    pipeline runs before a ranking/abuse model): event count, distinct
    event types, purchase count + integer spend cents, first/last
    activity timestamps, and session count (gap rule, same constant
    family as sessionize).

    Shape: bucket by user hash → one lexsort per bucket → every
    feature from segment reduceat/bincount over the SAME sorted
    arrays; one shuffle total, no joins between per-feature
    sub-pipelines. Output O(users) rows."""
    gap_us = np.int64(FEATURE_SESSION_GAP_SEC * 1_000_000)

    def _features(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        cents = _cents(group.column("value").to_numpy())
        order = np.lexsort((eid, ts, u))
        u, ts, et, cents = u[order], ts[order], et[order], cents[order]
        if u.size == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "n_event_types": pa.array([], pa.int64()),
                "n_purchases": pa.array([], pa.int64()),
                "purchase_cents": pa.array([], pa.int64()),
                "first_ts_us": pa.array([], pa.int64()),
                "last_ts_us": pa.array([], pa.int64()),
                "n_sessions": pa.array([], pa.int64()),
            })
        starts = run_starts(u)
        n_seg = starts.size
        n_events = np.diff(np.concatenate((starts, [u.size])))
        seg = np.repeat(np.arange(n_seg), n_events)
        # distinct event types per user: unique (seg, type) pairs
        _, type_code = np.unique(et, return_inverse=True)
        pair = seg * np.int64(type_code.max() + 1) + type_code
        upair = np.unique(pair)
        n_types = np.bincount(
            (upair // np.int64(type_code.max() + 1)).astype(np.int64),
            minlength=n_seg).astype(np.int64)
        is_p = et == "purchase"
        n_purch = np.bincount(seg[is_p], minlength=n_seg).astype(np.int64)
        p_cents = np.add.reduceat(np.where(is_p, cents, 0), starts)
        gap = np.concatenate(([gap_us + 1], ts[1:] - ts[:-1]))
        new_sess = np.concatenate(([True], u[1:] != u[:-1])) | (gap > gap_us)
        n_sess = np.bincount(seg[new_sess], minlength=n_seg).astype(np.int64)
        ends = np.concatenate((starts[1:], [u.size])) - 1
        return pa.table({
            "user_id": pa.array(u[starts], pa.int64()),
            "n_events": pa.array(n_events.astype(np.int64), pa.int64()),
            "n_event_types": pa.array(n_types, pa.int64()),
            "n_purchases": pa.array(n_purch, pa.int64()),
            "purchase_cents": pa.array(p_cents, pa.int64()),
            "first_ts_us": pa.array(ts[starts], pa.int64()),
            "last_ts_us": pa.array(ts[ends], pa.int64()),
            "n_sessions": pa.array(n_sess, pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type",
                            "value"])
    return (_with_user_bucket(sf_dir, ds)
            .groupby("ubucket").map_groups(_features, batch_format="pyarrow"))


def q_props_extract(sf_dir: str) -> ray.data.Dataset:
    """Semi-structured extraction — the JSON-payload shape (every
    event pipeline ends up parsing a props blob): pull the integer
    `k` field out of the JSON `props` column and aggregate per
    (event_type, k // 10 decade): event count + exact k sum.

    Shape: extraction is Arrow C++ regex (extract digits, cast) —
    no Python JSON parser in the hot path for a schema this regular;
    ragged/nested payloads would swap in a json_normalize actor
    stage, same plumbing. Per-batch partials → O(groups) groupby."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def _extract(batch: pa.Table) -> pa.Table:
        ks = pc.extract_regex(batch.column("props"), r'"k":\s*(?P<k>\d+)')
        k = pc.struct_field(ks, "k").cast(pa.int64()).to_numpy(
            zero_copy_only=False).astype(np.int64)
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        _, code = np.unique(et, return_inverse=True)
        etu = np.unique(et)
        bucket = k // 10
        key = code * np.int64(1 << 32) + bucket
        u, n, s = group_sum(key, np.ones(key.size, np.int64), k)
        return pa.table({
            "event_type": pa.array(
                etu[(u >> np.int64(32))].tolist(), pa.string()),
            "k_bucket": pa.array(u & np.int64(0xFFFFFFFF), pa.int64()),
            "n_events": pa.array(n, pa.int64()),
            "sum_k": pa.array(s, pa.int64()),
        })

    return (
        events_ds(sf_dir, ["event_type", "props"])
        .map_batches(_extract, batch_format="pyarrow")
        .groupby(["event_type", "k_bucket"])
        .aggregate(Sum("n_events", alias_name="n_events"),
                   Sum("sum_k", alias_name="sum_k"))
    )


def q_type_transitions(sf_dir: str) -> ray.data.Dataset:
    """Event-type transition counts (first-order Markov structure
    mining): for every same-user consecutive event pair ordered by
    (ts, event_id), count (prev_type, next_type) occurrences. The
    row-normalized version of this table IS the session Markov
    transition matrix; keeping raw integer counts keeps the oracle
    hash-exact (normalization is a trivial finalizer).

    Shape: the LAG offset frame fused with pair counting — bucket by
    user hash, ONE lexsort per bucket, shift-compare for the user
    boundary, then count pairs via batch-local dictionary codes
    (np.unique packed code pairs). Per-bucket partials are O(types²)
    rows regardless of bucket size; final groupby sums ≤ types² rows
    total — no per-row shuffle leaves the bucket."""
    def _pairs(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        types, code = np.unique(et, return_inverse=True)
        order = np.lexsort((eid, ts, u))
        u, code = u[order], code[order].astype(np.int64)
        empty = pa.table({"prev_type": pa.array([], pa.string()),
                          "next_type": pa.array([], pa.string()),
                          "n": pa.array([], pa.int64())})
        if u.size < 2:
            return empty
        same = u[1:] == u[:-1]
        prev_c, next_c = code[:-1][same], code[1:][same]
        if prev_c.size == 0:
            return empty
        k = types.size
        packed, counts = np.unique(prev_c * k + next_c,
                                   return_counts=True)
        return pa.table({
            "prev_type": pa.array(types[packed // k].tolist(),
                                  pa.string()),
            "next_type": pa.array(types[packed % k].tolist(),
                                  pa.string()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
        })

    from ray.data.aggregate import Sum

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type"])
    return (
        _with_user_bucket(sf_dir, ds)
        .groupby("ubucket").map_groups(_pairs, batch_format="pyarrow")
        .groupby(["prev_type", "next_type"])
        .aggregate(Sum("n", alias_name="n"))
    )


COPRESENCE_SLICE_US = np.int64(6 * 3600) * 1_000_000


def q_session_copresence(sf_dir: str, gap_sec: int = 1800) -> ray.data.Dataset:
    """Co-presence interval SELF-join — the two-LARGE-sides interval
    join (campaign_overlap broadcasts a small dim; here BOTH sides are
    the full session table): for every unordered pair of users, how
    many of their session pairs overlap in time ([s,e] closed-interval
    intersection). The audience-overlap / co-occurrence shape.

    Shape: time-slice replication — each session is replicated to the
    time slices it spans (one fixed-width row per slice), a
    groupby(slice) co-locates everything alive in a slice, and the
    in-slice sweep is sort-by-start + one searchsorted per row (pairs
    expand via the repeat/arange trick, no Python loop). EXACT dedup
    across slices with no second shuffle: a pair's overlap starts at
    max(s_a, s_b), a time point both sessions were replicated to — so
    only the slice CONTAINING that point emits the pair (ownership
    test, no distinct pass). Skew bound: work per slice is
    O(alive * log + pairs-in-slice); pathological all-day-long sessions
    concentrate in every slice — the documented mitigation is a
    coarser slice for the long-session stratum (split by duration),
    not built."""
    def _session_bounds(group: pa.Table) -> pa.Table:
        gap_us = np.int64(gap_sec * 1_000_000)
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        order = np.lexsort((eid, ts, u))
        u, ts = u[order], ts[order]
        if u.size == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "e": pa.array([], pa.int64())})
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap = np.concatenate(([gap_us + 1], ts[1:] - ts[:-1]))
        starts = np.nonzero(new_user | (gap > gap_us))[0]
        ends = np.concatenate((starts[1:], [u.size])) - 1
        return pa.table({
            "user_id": pa.array(u[starts], pa.int64()),
            "s": pa.array(ts[starts], pa.int64()),
            "e": pa.array(ts[ends], pa.int64()),
        })

    def _replicate(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        if uid.size == 0:
            return pa.table({"slice": pa.array([], pa.int64()),
                             "user_id": pa.array([], pa.int64()),
                             "s": pa.array([], pa.int64()),
                             "e": pa.array([], pa.int64())})
        s = batch.column("s").to_numpy().astype(np.int64)
        e = batch.column("e").to_numpy().astype(np.int64)
        lo = s // COPRESENCE_SLICE_US
        hi = e // COPRESENCE_SLICE_US
        n = (hi - lo + 1).astype(np.int64)
        idx = np.repeat(np.arange(uid.size), n)
        # slice id = lo[i] + position within each run
        off = np.arange(n.sum(), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(n)[:-1])), n)
        return pa.table({
            "slice": pa.array(lo[idx] + off, pa.int64()),
            "user_id": pa.array(uid[idx], pa.int64()),
            "s": pa.array(s[idx], pa.int64()),
            "e": pa.array(e[idx], pa.int64()),
        })

    def _sweep_slice(sl: int, uid: np.ndarray, s: np.ndarray,
                     e: np.ndarray) -> pa.Table:
        order = np.lexsort((uid, s))
        uid, s, e = uid[order], s[order], e[order]
        empty = pa.table({"user_a": pa.array([], pa.int64()),
                          "user_b": pa.array([], pa.int64()),
                          "n_overlaps": pa.array([], pa.int64())})
        if uid.size < 2:
            return empty
        # for sorted starts, i overlaps every j>i with s[j] <= e[i]
        hi = np.searchsorted(s, e, side="right")
        cnt = np.maximum(hi - np.arange(uid.size) - 1, 0)
        total = int(cnt.sum())
        if total == 0:
            return empty
        i = np.repeat(np.arange(uid.size), cnt)
        j = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt) \
            + i + 1
        # ownership: the overlap starts at s[j] (j sorted after i);
        # only the slice containing it emits the pair
        own = (s[j] // COPRESENCE_SLICE_US) == sl
        diff = uid[i] != uid[j]
        keep = own & diff
        ua = np.minimum(uid[i[keep]], uid[j[keep]])
        ub = np.maximum(uid[i[keep]], uid[j[keep]])
        u_, counts = np.unique(pack_pair(ua, ub), return_counts=True)
        ua, ub = unpack_pair(u_)
        return pa.table({
            "user_a": pa.array(ua, pa.int64()),
            "user_b": pa.array(ub, pa.int64()),
            "n_overlaps": pa.array(counts.astype(np.int64), pa.int64()),
        })

    _PAIRS_EMPTY = pa.table({"user_a": pa.array([], pa.int64()),
                             "user_b": pa.array([], pa.int64()),
                             "n_overlaps": pa.array([], pa.int64())})

    def _sweep_bucket(group: pa.Table) -> pa.Table:
        """All of this bucket's slices in one fold: segment by slice
        id (one argsort), run the sweep per segment. Replaces the
        per-slice map_groups whose per-group dispatch dominated once
        the sized events read left few blocks (2.1 -> 13 s)."""
        sl = group.column("slice").to_numpy().astype(np.int64)
        uid = group.column("user_id").to_numpy().astype(np.int64)
        s = group.column("s").to_numpy().astype(np.int64)
        e = group.column("e").to_numpy().astype(np.int64)
        order = np.argsort(sl, kind="stable")
        sl, uid, s, e = sl[order], uid[order], s[order], e[order]
        seg = np.append(run_starts(sl), sl.size)
        outs = [_sweep_slice(int(sl[seg[i]]), uid[seg[i]:seg[i + 1]],
                             s[seg[i]:seg[i + 1]], e[seg[i]:seg[i + 1]])
                for i in range(seg.size - 1)]
        outs = [o for o in outs if o.num_rows]
        return pa.concat_tables(outs) if outs else _PAIRS_EMPTY

    def _pair_fold(group: pa.Table) -> pa.Table:
        n = group.column("n_overlaps").to_numpy().astype(np.int64)
        u_, sn = group_sum(pack_pair(group.column("user_a").to_numpy(),
                                     group.column("user_b").to_numpy()), n)
        ua, ub = unpack_pair(u_)
        return pa.table({
            "user_a": pa.array(ua, pa.int64()),
            "user_b": pa.array(ub, pa.int64()),
            "n_overlaps": pa.array(sn, pa.int64()),
        })

    from candidategeneration_ray.functions.exchange import fold_by_bucket

    nb = table_buckets(sf_dir, "events")

    def _slb(batch: pa.Table) -> pa.Table:
        sl = batch.column("slice").to_numpy()
        return batch.append_column("slb", pa.array(bucket_of(sl, nb)))

    def _prb(batch: pa.Table) -> pa.Table:
        pk = pack_pair(batch.column("user_a").to_numpy(),
                       batch.column("user_b").to_numpy())
        return batch.append_column("prb", pa.array(bucket_of(pk, nb)))

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id"])
    sessions = (
        _with_user_bucket(sf_dir, ds)
        .groupby("ubucket").map_groups(_session_bounds,
                                       batch_format="pyarrow")
    )
    swept = fold_by_bucket(
        sessions.map_batches(_replicate, batch_format="pyarrow")
        .map_batches(_slb, batch_format="pyarrow"),
        "slb", _sweep_bucket, nb, _PAIRS_EMPTY)
    return fold_by_bucket(
        swept.map_batches(_prb, batch_format="pyarrow"),
        "prb", _pair_fold, nb, _PAIRS_EMPTY)


def q_windowed_counts_filled(sf_dir: str,
                             window_sec: int = 3600) -> ray.data.Dataset:
    """Gap-filled tumbling-window aggregate — the ROW-GENERATION shape
    (time-series consumers need a row for EVERY slot, not just
    non-empty ones): per event type, every window between that type's
    first and last event exists, zero-filled where no events landed.

    Shape: the dense aggregate is q_windowed_counts' map partials +
    small groupby; the slot generation comes from a SECOND tiny
    aggregate (per-type min/max window — one row per type) expanded by
    a map_groups into zero rows, unioned with the real counts and
    summed (zeros are the identity, so the union-sum IS the left
    join). Generation is O(types x windows-in-span) rows from an
    O(types) input — a year of hourly slots is ~9k rows per type; a
    multi-decade span would chunk the range expansion, documented not
    needed."""
    from ray.data.aggregate import Max, Min, Sum

    w_us = np.int64(window_sec) * 1_000_000

    def _part(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        cents = _cents(batch.column("value").to_numpy())
        t = _window_type_partial(ts // w_us, et, cents, w_us)
        return pa.table({
            "event_type": t.column("event_type"),
            "window_start_us": t.column("window_start_us"),
            "n_events": t.column("n"),
            "cents": t.column("cents"),
        })

    def _bounds_part(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        w = ts // w_us
        types, code = np.unique(et, return_inverse=True)
        lo = np.full(types.size, np.iinfo(np.int64).max, np.int64)
        hi = np.full(types.size, np.iinfo(np.int64).min, np.int64)
        np.minimum.at(lo, code, w)
        np.maximum.at(hi, code, w)
        return pa.table({
            "event_type": pa.array(types.tolist(), pa.string()),
            "lo": pa.array(lo, pa.int64()),
            "hi": pa.array(hi, pa.int64()),
        })

    def _expand(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        lo = int(group.column("lo")[0].as_py())
        hi = int(group.column("hi")[0].as_py())
        w = np.arange(lo, hi + 1, dtype=np.int64)
        return pa.table({
            "event_type": pa.array([et] * w.size, pa.string()),
            "window_start_us": pa.array(w * w_us, pa.int64()),
            "n_events": pa.array(np.zeros(w.size, np.int64), pa.int64()),
            "cents": pa.array(np.zeros(w.size, np.int64), pa.int64()),
        })

    ds = events_ds(sf_dir, ["ts", "event_type", "value"])
    dense = ds.map_batches(_part, batch_format="pyarrow")
    zeros = (
        ds.map_batches(_bounds_part, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Min("lo", alias_name="lo"),
                   Max("hi", alias_name="hi"))
        .groupby("event_type")
        .map_groups(_expand, batch_format="pyarrow")
    )
    return (
        dense.union(zeros)
        .groupby(["event_type", "window_start_us"])
        .aggregate(Sum("n_events", alias_name="n_events"),
                   Sum("cents", alias_name="cents"))
    )


WINDOW_VIEW_SEC = 3600   # must match q_windowed_counts' window_sec


def _atomic_state_build(out_dir: str, writer) -> str:
    """Shared crash discipline for persisted-state builders: skip if
    DONE, else write into a tmp dir, mark DONE, atomic-rename. A
    half-written state is invisible; reruns are no-ops."""
    import shutil

    tmp = out_dir + ".tmp"
    if os.path.exists(os.path.join(out_dir, "DONE")):
        return out_dir
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    writer(tmp)
    open(os.path.join(tmp, "DONE"), "w").write("ok")
    os.rename(tmp, out_dir)
    return out_dir


def _window_view_partials(sf_dir: str,
                          parity: int | None) -> ray.data.Dataset:
    """Per-batch (event_type, window) partials, optionally restricted
    to event_id % 2 == parity — shared by the build and maintain
    passes (the ONLY difference between them is which rows they see)."""
    w_us = np.int64(WINDOW_VIEW_SEC) * 1_000_000

    def _part(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        keep = np.ones(eid.size, bool) if parity is None \
            else eid % 2 == parity
        ts = batch.column("ts").cast(pa.int64()).to_numpy()[keep]
        et = batch.column("event_type").to_numpy(
            zero_copy_only=False)[keep]
        cents = _cents(batch.column("value").to_numpy()[keep])
        t = _window_type_partial(ts // w_us, et, cents, w_us)
        return pa.table({
            "event_type": t.column("event_type"),
            "window_start_us": t.column("window_start_us"),
            "n_events": t.column("n"),
            "cents": t.column("cents"),
        })

    return events_ds(sf_dir, ["event_id", "ts", "event_type", "value"]) \
        .map_batches(_part, batch_format="pyarrow")


def build_window_view(sf_dir: str, out_dir: str,
                      parity: int | None = None) -> str:
    """Materialize the (event_type, window) count+cents view as
    parquet state (the base step of incremental view maintenance).
    `parity` optionally restricts to event_id % 2 == parity — the
    constant-free base/delta split the other LSM entries use."""
    from ray.data.aggregate import Sum

    def _write(tmp: str) -> None:
        (_window_view_partials(sf_dir, parity)
         .groupby(["event_type", "window_start_us"])
         .aggregate(Sum("n_events", alias_name="n_events"),
                    Sum("cents", alias_name="cents"))
         .write_parquet(tmp))

    return _atomic_state_build(out_dir, _write)


def maintain_window_view(state_dir: str, sf_dir: str, out_dir: str,
                         parity: int = 1) -> str:
    """Incremental view maintenance: fold a delta (events with
    event_id % 2 == parity) into an existing window-view state. Reads
    the STATE (O(occupied slots)) plus the DELTA — never the base
    events: count/cents are additive, so maintenance is
    union(state, delta partials) → groupby sum, the IVM property that
    makes additive aggregates delta-cheap (contrast the posting-list
    LSM in pipelines/update.py, where merge order matters)."""
    from ray.data.aggregate import Sum

    def _write(tmp: str) -> None:
        state = ray.data.read_parquet(
            [os.path.join(state_dir, f) for f in os.listdir(state_dir)
             if f.endswith(".parquet")])
        (state.union(_window_view_partials(sf_dir, parity))
         .groupby(["event_type", "window_start_us"])
         .aggregate(Sum("n_events", alias_name="n_events"),
                    Sum("cents", alias_name="cents"))
         .write_parquet(tmp))

    return _atomic_state_build(out_dir, _write)


def q_windowed_counts_ivm(sf_dir: str) -> ray.data.Dataset:
    """Driver entry for the IVM path: base view from even event_ids,
    delta fold of the odd half — the maintained state must equal the
    full recompute (the SAME windowed_counts oracle: a plan-equivalence
    proof like sessionize_sliced). The maintenance pass's inputs are
    the state rows + the delta only."""
    from candidategeneration_ray.pipelines.docquery import _cache_dir

    root = _cache_dir(sf_dir, "winivm")
    os.makedirs(root, exist_ok=True)
    base = build_window_view(sf_dir, os.path.join(root, "base"),
                             parity=0)
    cur = maintain_window_view(base, sf_dir, os.path.join(root, "gen1"),
                               parity=1)
    return ray.data.read_parquet(
        [os.path.join(cur, f) for f in os.listdir(cur)
         if f.endswith(".parquet")])


RANGE_SCAN_LO = "2024-01-10"
RANGE_SCAN_HI = "2024-01-20"


def build_events_partitioned(sf_dir: str, out_dir: str) -> str:
    """Materialize the event log as DAY-partitioned parquet
    (hive layout day=N/) — the storage layout that turns time-range
    queries from full scans into partition-pruned reads. Same
    _atomic_state_build crash discipline as the view builders."""
    def _with_day(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        return batch.append_column(
            "day", pa.array(ts // np.int64(86_400_000_000), pa.int64()))

    def _write(tmp: str) -> None:
        (events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type",
                            "value"])
         .map_batches(_with_day, batch_format="pyarrow")
         .write_parquet(tmp, partition_cols=["day"]))

    return _atomic_state_build(out_dir, _write)


def range_scan_paths(part_dir: str, lo_day: int, hi_day: int) -> list[str]:
    """Partition files overlapping [lo_day, hi_day) — the pruning step
    (directory names carry the day, so files outside the range are
    never opened)."""
    out = []
    for d in sorted(os.listdir(part_dir)):
        if not d.startswith("day="):
            continue
        day = int(d.split("=")[1])
        if lo_day <= day < hi_day:
            p = os.path.join(part_dir, d)
            out.extend(os.path.join(p, f) for f in sorted(os.listdir(p))
                       if f.endswith(".parquet"))
    return out


def q_events_range_scan(sf_dir: str) -> ray.data.Dataset:
    """Time-range aggregate THROUGH the partitioned layout: per event
    type, count + cents over [RANGE_SCAN_LO, RANGE_SCAN_HI) reading
    ONLY the partitions the range touches (plus one residual ts filter
    inside the boundary partitions — day granularity prunes, the
    filter exactifies). The same pattern as the IVF probe-pruned read
    and the bucket-filtered index segments, applied to time.

    The partitioned copy builds once into the /tmp cache (at 100 TB
    the log is WRITTEN partitioned in the first place — the build step
    here stands in for ingest)."""
    from ray.data.aggregate import Sum

    from candidategeneration_ray.pipelines.docquery import _cache_dir

    part_dir = build_events_partitioned(
        sf_dir, os.path.join(_cache_dir(sf_dir, "evpart"), "days"))
    lo = np.datetime64(RANGE_SCAN_LO).astype("datetime64[us]") \
        .astype(np.int64)
    hi = np.datetime64(RANGE_SCAN_HI).astype("datetime64[us]") \
        .astype(np.int64)
    day_us = np.int64(86_400_000_000)
    files = range_scan_paths(part_dir, int(lo // day_us),
                             int(-(-hi // day_us)))

    def _part(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        keep = (ts >= lo) & (ts < hi)
        et = batch.column("event_type").to_numpy(
            zero_copy_only=False)[keep]
        cents = _cents(batch.column("value").to_numpy()[keep])
        u, n, s = group_sum(et, np.ones(et.size, np.int64), cents)
        return pa.table({
            "event_type": pa.array(u.tolist(), pa.string()),
            "n_events": pa.array(n, pa.int64()),
            "cents": pa.array(s, pa.int64()),
        })

    if not files:
        return ray.data.from_arrow(pa.table({
            "event_type": pa.array([], pa.string()),
            "n_events": pa.array([], pa.int64()),
            "cents": pa.array([], pa.int64()),
        }))
    return (
        ray.data.read_parquet(files, columns=["ts", "event_type",
                                              "value"])
        .map_batches(_part, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("n_events", alias_name="n_events"),
                   Sum("cents", alias_name="cents"))
    )


# --- pivot (session 7) ------------------------------------------------------

PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_events_pivot(sf_dir: str) -> ray.data.Dataset:
    """Row→column PIVOT: per UTC day, one wide row with a count column
    per event type plus purchase revenue — the warehouse reshaping
    primitive (the inverse of the tall groupby the other event entries
    produce). The type set is a declared constant; a type outside it
    fails fast rather than silently dropping (the schema IS the
    contract — at 100 TB a silent drop is an unnoticed data bug).

    Shape: embarrassingly parallel — each batch compresses to one wide
    partial row per day (O(days) not O(events)), one tiny groupby sums
    them. No shuffle ever sees event-grain rows."""
    from ray.data.aggregate import Sum

    day_us = np.int64(86_400_000_000)

    def _partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        et = np.asarray(batch.column("event_type").to_pylist(), object)
        cents = _cents(batch.column("value").to_numpy())
        unknown = ~np.isin(et, np.asarray(PIVOT_TYPES, object))
        if unknown.any():
            raise ValueError(
                f"event_type outside PIVOT_TYPES: "
                f"{sorted(set(et[unknown]))[:5]}")
        day = ts // day_us
        u, *sums = group_sum(day, *[et == t for t in PIVOT_TYPES],
                             np.where(et == "purchase", cents, 0))
        cols = {"day": pa.array(u, pa.int64())}
        for t, c in zip(PIVOT_TYPES, sums):
            cols[f"n_{t}"] = pa.array(c, pa.int64())
        cols["purchase_cents"] = pa.array(sums[-1], pa.int64())
        return pa.table(cols)

    return (
        events_ds(sf_dir, ["ts", "event_type", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(*[Sum(f"n_{t}", alias_name=f"n_{t}")
                     for t in PIVOT_TYPES],
                   Sum("purchase_cents", alias_name="purchase_cents"))
    )


PATH_N = 8


def q_user_event_paths(sf_dir: str) -> ray.data.Dataset:
    """Order-SENSITIVE aggregation (the string_agg ORDER BY shape no
    other entry exercises): per user, the '>'-joined sequence of their
    first PATH_N event types in (ts, event_id) order, plus the total
    event count — the "user journey" feature behavioral models consume.

    Shape: one user-hash bucketed shuffle; per bucket ONE lexsort
    orders every user's stream, segment boundaries cut the first
    PATH_N rows per user vectorized, and only the string join is
    per-user (O(users), bounded at PATH_N short tokens each — the same
    irreducible string-assembly class as q_snippets)."""

    def _paths(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        et = np.asarray(group.column("event_type").to_pylist(), object)
        order = np.lexsort((eid, ts, u))
        u, et = u[order], et[order]
        new = np.empty(u.size, bool)
        new[:1] = True
        new[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        pos = np.arange(u.size, dtype=np.int64) - starts[seg]
        n_events = np.diff(np.concatenate((starts, [u.size])))
        keep = pos < PATH_N
        ku, ket = u[keep], et[keep]
        # kept rows stay (user, pos)-sorted and every user keeps pos 0,
        # so kept segment starts align 1:1 with `starts`
        knew = np.empty(ku.size, bool)
        knew[:1] = True
        knew[1:] = ku[1:] != ku[:-1]
        bounds = np.concatenate((np.flatnonzero(knew), [ku.size]))
        paths = [">".join(ket[bounds[i]:bounds[i + 1]])
                 for i in range(bounds.size - 1)]
        return pa.table({
            "user_id": pa.array(u[starts], pa.int64()),
            "path": pa.array(paths, pa.string()),
            "n_events": pa.array(n_events.astype(np.int64), pa.int64()),
        })

    return (
        _with_user_bucket(sf_dir, events_ds(
            sf_dir, ["event_id", "ts", "user_id", "event_type"]))
        .groupby("ubucket")
        .map_groups(_paths, batch_format="pyarrow")
    )


def _type_day_counts(batch: pa.Table) -> pa.Table:
    """Per-batch (event_type, UTC day, n_events) counts — the partial
    under every daily-series entry (z-score, MAD, CUSUM, ACF, seasonal
    forecast, Haar). Factorize the type, pack type × span + day over
    the batch-local day range (day spans are bounded) and count each
    packed key."""
    ts = batch.column("ts").cast(pa.int64()).to_numpy()
    et = np.asarray(batch.column("event_type").to_pylist(), object)
    day = ts // np.int64(86_400_000_000)
    ut, ti = np.unique(et, return_inverse=True)
    d0 = np.int64(day.min()) if day.size else np.int64(0)
    span = np.int64(day.max()) - d0 + 1 if day.size else np.int64(1)
    u, n = np.unique(ti.astype(np.int64) * span + (day - d0),
                     return_counts=True)
    return pa.table({
        "event_type": pa.array(ut[u // span].tolist(), pa.string()),
        "day": pa.array(u % span + d0, pa.int64()),
        "n_events": pa.array(n.astype(np.int64), pa.int64()),
    })


ANOMALY_K = 2


def q_anomalous_days(sf_dir: str) -> ray.data.Dataset:
    """Statistical outlier detection with EXACT integer arithmetic:
    per event type, the UTC days whose event count deviates from the
    type's mean by more than ANOMALY_K standard deviations — the
    z-score test cross-multiplied so no float division or sqrt ever
    happens:  z² > k²  ⟺  (n·c − S)² > k²·(n·Q − S²)
    with n = #days the type occurs, S = Σc, Q = Σc² (population over
    the type's active days; documented). int64 bound: needs
    n·c < ~3·10⁹ — at a scale past that the partials switch to
    float128/hugeint (noted, not needed at bench scale).

    Shape: events compress to (type, day, count) partials per batch →
    one tiny groupby → per-type finalize via a second O(types×days)
    groupby (each type's day vector fits a task trivially)."""
    from ray.data.aggregate import Sum

    def _flag(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_pylist()
        day = group.column("day").to_numpy().astype(np.int64)
        c = group.column("n_events").to_numpy().astype(np.int64)
        n = np.int64(c.size)
        s = np.int64(c.sum())
        q = np.int64((c * c).sum())
        dev = n * c - s
        keep = dev * dev > np.int64(ANOMALY_K * ANOMALY_K) * (n * q - s * s)
        return pa.table({
            "event_type": pa.array(
                [t for t, k in zip(et, keep) if k], pa.string()),
            "day": pa.array(day[keep], pa.int64()),
            "n_events": pa.array(c[keep], pa.int64()),
        })

    return (
        events_ds(sf_dir, ["ts", "event_type"])
        .map_batches(_type_day_counts, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Sum("n_events", alias_name="n_events"))
        .groupby("event_type")
        .map_groups(_flag, batch_format="pyarrow")
    )


AB_K = 2


def q_ab_test_flags(sf_dir: str) -> pa.Table:
    """Two-sample experimentation readout with EXACT integer
    arithmetic — the Welch-style significance test cross-multiplied so
    no float division or sqrt ever happens: users split into arms by
    user_id parity; per event type the cents means are compared and
    the type is flagged significant iff

        (S_a·n_b − S_b·n_a)²·n_a·n_b
            > k²·[(n_a·Q_a − S_a²)·n_b³ + (n_b·Q_b − S_b²)·n_a³]

    (both sides of z² > k² scaled by n_a³·n_b³; S = Σcents,
    Q = Σcents² per arm). Intermediates exceed int64, so the O(types)
    finalizer uses Python bigints and the oracle HUGEINT — exactness
    is preserved at any magnitude.

    Shape: events compress to (type, arm, n, S, Q) partials per batch
    (int64-safe: Q per row < 2^63/rows at bench cents) → one tiny
    groupby → an O(types) driver finalize. Returns per type the arm
    counts, cents totals, and the 0/1 significance flag."""
    from ray.data.aggregate import Sum

    def _partial(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch.column("event_type").to_pylist(), object)
        uid = batch.column("user_id").to_numpy().astype(np.int64)
        c = _cents(batch.column("value").to_numpy())
        ut, ti = np.unique(et, return_inverse=True)
        code = ti.astype(np.int64) * 2 + (uid % 2)
        u, n, s, q = group_sum(code, np.ones(code.size, np.int64), c, c * c)
        return pa.table({
            "event_type": pa.array(ut[u // 2].tolist(), pa.string()),
            "arm": pa.array(u % 2, pa.int64()),
            "n": pa.array(n, pa.int64()),
            "s": pa.array(s, pa.int64()),
            "q": pa.array(q, pa.int64()),
        })

    rows = (
        events_ds(sf_dir, ["user_id", "event_type", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby(["event_type", "arm"])
        .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"),
                   Sum("q", alias_name="q"))
        .take_all()
    )
    by_type: dict[str, dict[int, tuple[int, int, int]]] = {}
    for r in rows:
        by_type.setdefault(r["event_type"], {})[int(r["arm"])] = (
            int(r["n"]), int(r["s"]), int(r["q"]))
    out_t, out = [], {k: [] for k in
                      ("n_a", "n_b", "cents_a", "cents_b", "significant")}
    for et in sorted(by_type):
        arms = by_type[et]
        if 0 not in arms or 1 not in arms:
            continue                      # a one-armed type can't test
        na, sa, qa = arms[0]
        nb, sb, qb = arms[1]
        lhs = (sa * nb - sb * na) ** 2 * na * nb          # Python bigint
        rhs = AB_K * AB_K * ((na * qa - sa * sa) * nb ** 3
                             + (nb * qb - sb * sb) * na ** 3)
        out_t.append(et)
        out["n_a"].append(na)
        out["n_b"].append(nb)
        out["cents_a"].append(sa)
        out["cents_b"].append(sb)
        out["significant"].append(1 if lhs > rhs else 0)
    return pa.table({"event_type": pa.array(out_t, pa.string()),
                     **{k: pa.array(v, pa.int64())
                        for k, v in out.items()}})


PEAK_GAP_SEC = 1800
PEAK_BLOCKS = 32


def _session_delta_rows(group: pa.Table, gap_us: np.int64) -> pa.Table:
    """Per user-bucket sweep-line endpoints: sessions (gap rule, one
    lexsort + boundary mask — the sessionize kernel) emit ±1 deltas
    (+1 at start_ts, −1 at end_ts + 1µs; a session is active on the
    inclusive [start, end] microsecond range). Shared by the
    interval-overlap family (peak concurrency, union length)."""
    u = group.column("user_id").to_numpy().astype(np.int64)
    ts = group.column("ts").cast(pa.int64()).to_numpy()
    if u.size == 0:
        return pa.table({"ts": pa.array([], pa.int64()),
                         "delta": pa.array([], pa.int64()),
                         "n_sessions": pa.array([], pa.int64())})
    order = np.lexsort((ts, u))
    u, ts = u[order], ts[order]
    new_s = np.concatenate(([True], (u[1:] != u[:-1])
                            | (ts[1:] - ts[:-1] > gap_us)))
    starts = np.nonzero(new_s)[0]
    ends = np.concatenate((starts[1:], [u.size])) - 1
    s_ts, e_ts = ts[starts], ts[ends]
    return pa.table({
        "ts": pa.array(np.concatenate((s_ts, e_ts + 1)), pa.int64()),
        "delta": pa.array(np.concatenate((
            np.ones(s_ts.size, np.int64),
            np.full(e_ts.size, -1, np.int64))), pa.int64()),
        "n_sessions": pa.array(np.concatenate((
            np.ones(s_ts.size, np.int64),
            np.zeros(e_ts.size, np.int64))), pa.int64()),
    })


def _session_net_deltas(sf_dir: str, gap_sec: int) -> ray.data.Dataset:
    """Sweep-line preparation shared by the interval-overlap entries:
    per-bucket session endpoints → ONE net row per distinct timestamp
    (groupby ts) → global ts order. Running sums over this dataset are
    well-defined at every instant."""
    from ray.data.aggregate import Sum

    gap_us = np.int64(gap_sec * 1_000_000)
    deltas = (
        _with_user_bucket(sf_dir, events_ds(sf_dir, ["user_id", "ts"]))
        .groupby("ubucket")
        .map_groups(lambda g: _session_delta_rows(g, gap_us),
                    batch_format="pyarrow")
    )

    # net per distinct ts via a VECTORIZED bucket fold, not the sort
    # aggregate: Ray's aggregate pays per-GROUP Python overhead in the
    # reduce (190k distinct ts at sf0.1 = ~20 s when the sized events
    # read leaves few blocks); one group_sum per bucket is the same
    # result in ~0.3 s
    from candidategeneration_ray.functions.exchange import fold_by_bucket

    nb = table_buckets(sf_dir, "events")

    def _tsb(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").to_numpy()
        return batch.append_column(
            "tsb", pa.array(bucket_of(ts, nb)))

    def _ts_fold(group: pa.Table) -> pa.Table:
        ts = group.column("ts").to_numpy().astype(np.int64)
        d = group.column("delta").to_numpy().astype(np.int64)
        ns = group.column("n_sessions").to_numpy().astype(np.int64)
        u, net, sns = group_sum(ts, d, ns)
        return pa.table({
            "ts": pa.array(u, pa.int64()),
            "net": pa.array(net, pa.int64()),
            "n_sessions": pa.array(sns, pa.int64()),
        })

    folded = fold_by_bucket(
        deltas.map_batches(_tsb, batch_format="pyarrow"),
        "tsb", _ts_fold, nb,
        pa.table({"ts": pa.array([], pa.int64()),
                  "net": pa.array([], pa.int64()),
                  "n_sessions": pa.array([], pa.int64())}))
    return folded.sort("ts")


def q_peak_concurrency(sf_dir: str, gap_sec: int = PEAK_GAP_SEC,
                       num_blocks: int = PEAK_BLOCKS) -> pa.Table:
    """Peak session concurrency — the interval-overlap maximum: how
    many user sessions (gap-based, same rule as q_sessionize) were
    simultaneously active at the busiest instant, and the earliest
    microsecond that peak was reached. A session is active during
    [start_ts, end_ts] inclusive.

    Shape: the classic sweep-line, fully distributed —
      1. sessions per user bucket (one lexsort + reduceat, the
         sessionize kernel) emit interval endpoints as ±1 deltas
         (+1 at start, −1 at end+1µs);
      2. deltas pre-aggregate to one NET row per distinct timestamp
         (groupby ts) — intra-instant ordering ceases to exist, so the
         running sum is well-defined at every instant;
      3. the global running maximum runs through the range-blocked
         prefix-sum scaffold (stages.docids.blocked_prefix_apply): the
         driver holds only O(num_blocks) block totals, each block
         reports (its max prefix, earliest ts attaining it), and the
         final reduce is over num_blocks rows.
    Output one row: (peak, peak_ts_us, n_sessions)."""
    from candidategeneration_ray.stages.docids import blocked_prefix_apply

    net = _session_net_deltas(sf_dir, gap_sec)

    def _total(tab: pa.Table) -> int:
        return int(tab.column("net").to_numpy().sum()) if tab.num_rows else 0

    def _emit(tab: pa.Table, base: int) -> pa.Table:
        if tab.num_rows == 0:
            return pa.table({"peak": pa.array([], pa.int64()),
                             "peak_ts_us": pa.array([], pa.int64()),
                             "n_sessions": pa.array([], pa.int64())})
        c = base + np.cumsum(tab.column("net").to_numpy())
        i = int(np.argmax(c))  # first index attaining the block max
        return pa.table({
            "peak": pa.array([int(c[i])], pa.int64()),
            "peak_ts_us": pa.array(
                [int(tab.column("ts").to_numpy()[i])], pa.int64()),
            "n_sessions": pa.array(
                [int(tab.column("n_sessions").to_numpy().sum())], pa.int64()),
        })

    rows = blocked_prefix_apply(net, num_blocks, _total, _emit).take_all()
    peak = max(r["peak"] for r in rows)
    peak_ts = min(r["peak_ts_us"] for r in rows if r["peak"] == peak)
    return pa.table({
        "peak": pa.array([peak], pa.int64()),
        "peak_ts_us": pa.array([peak_ts], pa.int64()),
        "n_sessions": pa.array([sum(r["n_sessions"] for r in rows)],
                               pa.int64()),
    })


def q_active_time(sf_dir: str, gap_sec: int = PEAK_GAP_SEC,
                  num_blocks: int = PEAK_BLOCKS) -> pa.Table:
    """Interval-UNION length — total wall-clock microseconds during
    which at least one user session was active (the classic "union of
    intervals" measure: SLA busy time / fleet utilization). The
    overlap twin of q_peak_concurrency: same gap-rule sessions, same
    ±1 sweep deltas, but the finalizer integrates (count > 0) over
    time instead of taking the running maximum. A session covers its
    inclusive [start_ts, end_ts] microsecond range, so an isolated
    single-event session contributes exactly 1µs.

    Shape: per-bucket session endpoints → groupby(ts) net rows →
    global ts sort → range-blocked prefix scan
    (stages.docids.blocked_prefix_apply): each block integrates its
    interior segments against its global base count and reports ONE
    summary row (first/last ts, end count, interior covered µs); the
    driver stitches only the O(num_blocks) boundary segments — a
    block whose running count ends positive covers the gap to the
    next block's first timestamp. Output one row:
    (covered_us, n_sessions)."""
    from candidategeneration_ray.stages.docids import blocked_prefix_apply

    net = _session_net_deltas(sf_dir, gap_sec)

    def _total(tab: pa.Table) -> int:
        return int(tab.column("net").to_numpy().sum()) if tab.num_rows else 0

    def _emit(tab: pa.Table, base: int) -> pa.Table:
        if tab.num_rows == 0:
            return pa.table({"first_ts": pa.array([], pa.int64()),
                             "last_ts": pa.array([], pa.int64()),
                             "end_cnt": pa.array([], pa.int64()),
                             "covered_us": pa.array([], pa.int64()),
                             "n_sessions": pa.array([], pa.int64())})
        ts = tab.column("ts").to_numpy()
        c = base + np.cumsum(tab.column("net").to_numpy())
        covered = int(((ts[1:] - ts[:-1]) * (c[:-1] > 0)).sum())
        return pa.table({
            "first_ts": pa.array([int(ts[0])], pa.int64()),
            "last_ts": pa.array([int(ts[-1])], pa.int64()),
            "end_cnt": pa.array([int(c[-1])], pa.int64()),
            "covered_us": pa.array([covered], pa.int64()),
            "n_sessions": pa.array(
                [int(tab.column("n_sessions").to_numpy().sum())], pa.int64()),
        })

    rows = sorted(
        blocked_prefix_apply(net, num_blocks, _total, _emit).take_all(),
        key=lambda r: r["first_ts"])
    covered = sum(r["covered_us"] for r in rows)
    for prev, nxt in zip(rows, rows[1:]):
        if prev["end_cnt"] > 0:           # boundary segment still active
            covered += nxt["first_ts"] - prev["last_ts"]
    return pa.table({
        "covered_us": pa.array([covered], pa.int64()),
        "n_sessions": pa.array([sum(r["n_sessions"] for r in rows)],
                               pa.int64()),
    })


ZORDER_DAY0 = 19700            # day-number offset so z fits 16 bits
ZORDER_USER_LO, ZORDER_USER_HI = 40, 90      # query rectangle
ZORDER_DAY_LO, ZORDER_DAY_HI = 19730, 19740  # [lo, hi) both axes
ZORDER_ROW_GROUP = 512


def _interleave16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Morton code: interleave the low 16 bits of a (even positions)
    and b (odd positions) — vectorized bit spreading."""
    def spread(x):
        x = x.astype(np.uint64) & np.uint64(0xFFFF)
        x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF)
        x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F)
        x = (x | (x << np.uint64(2))) & np.uint64(0x33333333)
        x = (x | (x << np.uint64(1))) & np.uint64(0x55555555)
        return x

    return (spread(a) | (spread(b) << np.uint64(1))).astype(np.int64)


def build_events_zorder(sf_dir: str, out_dir: str) -> str:
    """Materialize the event log in Z-ORDER (Morton-interleaved
    (user_id, day)) with small parquet row groups — the space-filling-
    curve layout that lets ONE sorted file order serve 2-D rectangle
    queries with row-group pruning on BOTH axes (the Delta/Iceberg
    OPTIMIZE ZORDER technique). Same atomic-state crash discipline as
    the other persisted layouts."""
    def _with_z(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy().astype(np.int64)
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        day = ts // np.int64(86_400_000_000)
        rel = day - np.int64(ZORDER_DAY0)
        if u.size and (int(u.max()) >= (1 << 16) or int(rel.max()) >= (1 << 16)
                       or int(rel.min()) < 0):
            raise ValueError("user_id/day outside the 16-bit z pack; "
                             "widen _interleave16 or rebase ZORDER_DAY0")
        return pa.table({
            "z": pa.array(_interleave16(u, rel), pa.int64()),
            "user_id": pa.array(u, pa.int64()),
            "day": pa.array(day, pa.int64()),
            "cents": pa.array(_cents(batch.column("value").to_numpy()),
                              pa.int64()),
        })

    def _write(tmp: str) -> None:
        (events_ds(sf_dir, ["user_id", "ts", "value"])
         .map_batches(_with_z, batch_format="pyarrow")
         .sort("z")
         .write_parquet(tmp, row_group_size=ZORDER_ROW_GROUP))

    return _atomic_state_build(out_dir, _write)


def _morton_ranges(ulo: int, uhi: int, dlo: int, dhi: int) -> list[tuple[int, int]]:
    """EXACT z-range decomposition of the rectangle [ulo,uhi)×[dlo,dhi)
    via quadtree descent: a canonical 2^k-aligned cell's Morton codes
    are one contiguous range, so the cover is a short list of
    disjoint ranges (the litmax/bigmin alternative — same pruning
    power, simpler to audit). Adjacent ranges merge."""
    out: list[tuple[int, int]] = []

    def z_of(u: int, d: int) -> int:
        return int(_interleave16(np.array([u], np.int64),
                                 np.array([d], np.int64))[0])

    def cover(u0: int, d0: int, size: int) -> None:
        u1, d1 = u0 + size, d0 + size
        if u1 <= ulo or u0 >= uhi or d1 <= dlo or d0 >= dhi:
            return
        if ulo <= u0 and u1 <= uhi and dlo <= d0 and d1 <= dhi:
            base = z_of(u0, d0)
            out.append((base, base + size * size - 1))
            return
        h = size // 2
        cover(u0, d0, h)
        cover(u0 + h, d0, h)
        cover(u0, d0 + h, h)
        cover(u0 + h, d0 + h, h)

    cover(0, 0, 1 << 16)
    out.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in out:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def zorder_scan(layout_dir: str, user_lo: int, user_hi: int,
                day_lo: int, day_hi: int):
    """Rectangle scan over the z-ordered layout: the rectangle
    decomposes into exact disjoint Morton ranges (_morton_ranges);
    a parquet row group is read only when its z statistics interval
    intersects one of them, and the exact rectangle predicate
    post-filters. Returns (table, n_row_groups_read, n_row_groups_total)
    so callers (and the pruning pytest) can see the skip rate."""
    import pyarrow.parquet as pq

    ranges = _morton_ranges(user_lo, user_hi,
                            day_lo - ZORDER_DAY0, day_hi - ZORDER_DAY0)
    r_lo = np.array([r[0] for r in ranges], np.int64)
    r_hi = np.array([r[1] for r in ranges], np.int64)

    def _overlaps(zmin: int, zmax: int) -> bool:
        if r_lo.size == 0:
            return False
        i = int(np.searchsorted(r_hi, zmin))  # first range ending >= zmin
        return i < r_lo.size and int(r_lo[i]) <= zmax

    files = sorted(f for f in os.listdir(layout_dir) if f.endswith(".parquet"))
    tables, n_read, n_total = [], 0, 0
    for f in files:
        path = os.path.join(layout_dir, f)
        md = pq.read_metadata(path)
        keep_groups = []
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(0).statistics  # z is column 0
            n_total += 1
            if st is None or _overlaps(int(st.min), int(st.max)):
                keep_groups.append(g)
        if not keep_groups:
            continue
        n_read += len(keep_groups)
        pf = pq.ParquetFile(path)
        t = pf.read_row_groups(keep_groups)
        u = t.column("user_id").to_numpy()
        d = t.column("day").to_numpy()
        mask = ((u >= user_lo) & (u < user_hi)
                & (d >= day_lo) & (d < day_hi))
        tables.append(t.filter(pa.array(mask)))
    out = pa.concat_tables(tables) if tables else None
    return out, n_read, n_total


def q_events_zorder_scan(sf_dir: str) -> pa.Table:
    """2-D pruned rectangle query over the z-ordered event layout:
    (n_events, cents) for user ∈ [40,90) × day ∈ [19730,19740) — both
    axes prune storage through ONE sort order. The pruning rate is
    asserted in pytest; this entry value-verifies the rectangle
    semantics against plain SQL."""
    from candidategeneration_ray.pipelines.docquery import _cache_dir

    root = _cache_dir(sf_dir, "zorder")
    os.makedirs(root, exist_ok=True)
    layout = build_events_zorder(sf_dir, os.path.join(root, "layout"))
    t, _, _ = zorder_scan(layout, ZORDER_USER_LO, ZORDER_USER_HI,
                          ZORDER_DAY_LO, ZORDER_DAY_HI)
    n = int(t.num_rows) if t is not None else 0
    cents = int(t.column("cents").to_numpy().sum()) if t is not None and n else 0
    return pa.table({
        "n_events": pa.array([n], pa.int64()),
        "cents": pa.array([cents], pa.int64()),
    })


# ------------------------------------------------- exponential decay (EWMA)

EWMA_NUM, EWMA_DEN = 3, 4    # retain 3/4 of the previous score per event


def q_ewma_spend(sf_dir: str, event_type: str = "purchase"
                 ) -> ray.data.Dataset:
    """Per-user exponentially-decayed spend — the EWMA/decay recurrence
    (recency-weighted user value scoring), the one windowed shape the
    surface lacked because it is a true sequential recurrence rather
    than a frame aggregate:

        s_1 = c_1;   s_t = (3 * s_{t-1}) // 4 + c_t

    over the user's purchases ordered by (ts, event_id), integer cents
    with floor division so every step is exact (the DuckDB oracle runs
    the same recurrence as a recursive CTE and the hash compare is
    bit-for-bit). Output one row per purchase: (event_id, user_id,
    ewma_cents).

    Shape: user-hash bucket -> one lexsort per bucket -> the recurrence
    is applied in max-run-length VECTORIZED steps: iteration j updates
    the j-th event of EVERY user in the bucket at once (s[i] =
    (3*s[i-1])//4 + c[i] on the positions at in-user index j, whose
    predecessors are the adjacent array slots), so the Python loop is
    O(max events per user), not O(rows). Floor division makes the
    recurrence non-associative, so a parallel prefix is not available
    — per-user sequential order is the semantics; users stay fully
    parallel across and within buckets."""
    def _ewma(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        keep = et == event_type
        u = group.column("user_id").to_numpy().astype(np.int64)[keep]
        ts = group.column("ts").cast(pa.int64()).to_numpy()[keep]
        eid = group.column("event_id").to_numpy().astype(np.int64)[keep]
        cents = _cents(group.column("value").to_numpy()[keep])
        if u.size == 0:
            return pa.table({
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "ewma_cents": pa.array([], pa.int64()),
            })
        order = np.lexsort((eid, ts, u))
        u, eid, cents = u[order], eid[order], cents[order]
        first = np.concatenate(([True], u[1:] != u[:-1]))
        # in-user position of every row (0-based), via segment offsets
        starts = np.flatnonzero(first)
        pos = np.arange(u.size, dtype=np.int64) - np.repeat(
            starts, np.diff(np.concatenate((starts, [u.size]))))
        s = cents.copy()
        for j in range(1, int(pos.max()) + 1 if u.size else 0):
            idx = np.flatnonzero(pos == j)
            if idx.size == 0:
                break
            s[idx] = (EWMA_NUM * s[idx - 1]) // EWMA_DEN + cents[idx]
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "user_id": pa.array(u, pa.int64()),
            "ewma_cents": pa.array(s, pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type",
                            "value"])
    return (_with_user_bucket(sf_dir, ds)
            .groupby("ubucket").map_groups(_ewma, batch_format="pyarrow"))


# ------------------------- watermark / allowed-lateness window counts

LATE_MAX_DELAY_MS = 900_000    # deterministic synthetic arrival delay
LATE_ALLOWED_MS = 120_000      # allowed lateness behind the watermark
LATE_WINDOW_MS = 3_600_000     # tumbling event-time window
LATE_BLOCKS = 32


def q_late_events(sf_dir: str,
                  num_blocks: int = LATE_BLOCKS) -> ray.data.Dataset:
    """Watermark-gated tumbling-window counts — the Dataflow-model
    allowed-lateness semantics (Akidau et al. VLDB'15, public model):
    events are processed in ARRIVAL order; the watermark is the running
    max event time seen so far minus LATE_ALLOWED_MS; an event whose
    event time is already behind the watermark AT ITS ARRIVAL is
    routed to the late side-output instead of its window.

    The table has no arrival column, so arrival is derived
    deterministically on both sides: arr_ms = event-time ms +
    h64(event_id) % LATE_MAX_DELAY_MS (same md5 h64 the split/sample
    operators share with the oracle) — a reproducible out-of-orderness
    model rather than RNG.

    Shape: the arrival-ordered prefix max is the range-blocked scan
    (blocked_prefix_apply combine="max" — the same scaffold as
    record_orders, which IS the watermark monoid); the late flag and
    window assignment are pure vectorized maps, and the per-window
    rollup is one compressed groupby. Output per event-time window:
    (window_start_ms, n_accepted, n_late); the first-arriving event has no
    watermark and is never late."""
    from ray.data.aggregate import Count, Sum

    from candidategeneration_ray.functions import hashing as H
    from candidategeneration_ray.stages.docids import blocked_prefix_apply

    def _arrival(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy().astype(np.int64)
        ts_ms = batch.column("ts").cast(pa.int64()).to_numpy() // 1000
        delay = (H.h64_many([str(i) for i in eid.tolist()])
                 % np.uint64(LATE_MAX_DELAY_MS)).astype(np.int64)
        return pa.table({
            "event_id": pa.array(eid, pa.int64()),
            "ts_ms": pa.array(ts_ms, pa.int64()),
            "arr": pa.array(ts_ms + delay, pa.int64()),
        })

    ds = (sized_read(sf_dir, "events", ["event_id", "ts"])
          .map_batches(_arrival, batch_format="pyarrow")
          .sort(["arr", "event_id"]))
    ident = -(1 << 62)

    def _total(tab: pa.Table) -> int:
        t = tab.column("ts_ms").to_numpy()
        return int(t.max()) if t.size else ident

    def _emit(tab: pa.Table, base: int) -> pa.Table:
        t = tab.column("ts_ms").to_numpy()
        if t.size == 0:
            return pa.table({"window": pa.array([], pa.int64()),
                             "late": pa.array([], pa.int64())})
        run = np.maximum.accumulate(t)
        wm_prev = np.maximum(np.concatenate(([ident], run[:-1])),
                             np.int64(base))
        late = (t < wm_prev - LATE_ALLOWED_MS).astype(np.int64)
        return pa.table({
            "window_start_ms": pa.array(
                t // LATE_WINDOW_MS * LATE_WINDOW_MS, pa.int64()),
            "late": pa.array(late, pa.int64()),
        })

    flagged = blocked_prefix_apply(ds, num_blocks, _total, _emit,
                                   combine="max")

    def _final(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy().astype(np.int64)
        nl = batch.column("n_late").to_numpy().astype(np.int64)
        return pa.table({
            "window_start_ms":
                batch.column("window_start_ms").cast(pa.int64()),
            "n_accepted": pa.array(n - nl, pa.int64()),
            "n_late": pa.array(nl, pa.int64()),
        })

    return (flagged.groupby("window_start_ms")
            .aggregate(Count(alias_name="n"), Sum("late", alias_name="n_late"))
            .map_batches(_final, batch_format="pyarrow"))


# ------------------------------ CUSUM drift detection on daily counts

CUSUM_MULT = 5   # flag when |cumulative deviation| * MULT > N (per type)


def q_cusum_days(sf_dir: str) -> ray.data.Dataset:
    """Sequential drift detection (CUSUM family, Page 1954 — public
    method) with exact integer arithmetic: per event type, walk its
    active days in order and accumulate the cross-multiplied deviation
    from the type's mean daily count,
        S_d = D·prefix_d − d_idx·N
    (D = active days, N = type total; S_d = D·Σ_{i<=d}(n_i − N/D)
    cleared of the division). A day is flagged when
    |S_d|·CUSUM_MULT > N·D — cumulative drift past 1/MULT of the
    type's volume — catching sustained rate shifts the pointwise
    z-test (q_anomalous_days) misses.

    Shape: events compress to (type, day, count) partials per batch →
    one tiny groupby → a per-type ordered scan over its O(days) row
    group (holistic co-location, groups are bounded by the calendar).
    Output (event_type, day, n_events, s_num, flag)."""
    from ray.data.aggregate import Sum

    def _scan(group: pa.Table) -> pa.Table:
        day = group.column("day").to_numpy().astype(np.int64)
        n = group.column("n_events").to_numpy().astype(np.int64)
        order = np.argsort(day, kind="stable")
        day, n = day[order], n[order]
        D = np.int64(day.size)
        N = np.int64(n.sum())
        s = D * np.cumsum(n) - np.arange(1, D + 1, dtype=np.int64) * N
        flag = (np.abs(s) * CUSUM_MULT > N * D).astype(np.int64)
        return pa.table({
            "event_type": pa.array(
                [group.column("event_type")[0].as_py()] * int(D),
                pa.string()),
            "day": pa.array(day, pa.int64()),
            "n_events": pa.array(n, pa.int64()),
            "s_num": pa.array(s, pa.int64()),
            "flag": pa.array(flag, pa.int64()),
        })

    return (sized_read(sf_dir, "events", ["ts", "event_type"])
            .map_batches(_type_day_counts, batch_format="pyarrow")
            .groupby(["event_type", "day"])
            .aggregate(Sum("n_events", alias_name="n_events"))
            .groupby("event_type").map_groups(_scan, batch_format="pyarrow"))


# ----------------------------------------------------- SCD2 versioning

SCD2_TYPE = "view"
_SCD2_OPEN = np.int64(-1)  # sentinel for the open (current) version


def _scd2_version_arrays(group: pa.Table, change_type: str):
    """(user, valid_from_us, segment) arrays of the collapsed SCD2
    version chain, sorted by (user, ts, event_id) — shared by the
    dimension build and the point-in-time join. Consecutive same-
    segment changes collapse to the first."""
    import pyarrow.compute as pc

    et = group.column("event_type").to_numpy(zero_copy_only=False)
    keep = et == change_type
    if not keep.any():
        z = np.empty(0, np.int64)
        return z, z.copy(), z.copy()
    u = group.column("user_id").to_numpy().astype(np.int64)[keep]
    ts = group.column("ts").cast(pa.int64()).to_numpy()[keep]
    eid = group.column("event_id").to_numpy().astype(np.int64)[keep]
    seg = pc.cast(pc.extract_regex(
        group.column("props").combine_chunks().filter(pa.array(keep)),
        r'"k":\s*(?P<v>-?\d+)').field("v"), pa.int64()).to_numpy()
    order = np.lexsort((eid, ts, u))
    u, ts, seg = u[order], ts[order], seg[order]
    first = np.concatenate(([True], u[1:] != u[:-1]))
    changed = first | np.concatenate(([True], seg[1:] != seg[:-1]))
    return u[changed], ts[changed], seg[changed]


def q_scd2_dim(sf_dir: str, change_type: str = SCD2_TYPE) -> ray.data.Dataset:
    """Slowly-changing-dimension type-2 build — the warehouse versioning
    primitive: each user's `change_type` events set a new "segment"
    attribute (the integer in props); consecutive NO-OP changes (same
    segment as the previous version) collapse, and each surviving
    version carries [valid_from, valid_to) with valid_to = the next
    version's ts (-1 sentinel for the open current version). Joining
    facts at their timestamp to the dimension version valid then is the
    existing as-of join (q_asof_join) — this operator builds the
    versioned table itself.

    Shape: one user-hash bucket groupby; per bucket ONE lexsort by
    (user, ts, event_id), the no-op collapse is a shifted-comparison
    mask, valid_to a shifted take — no per-user loop. Output
    (user_id, valid_from_us, valid_to_us, segment)."""
    def _scd2(group: pa.Table) -> pa.Table:
        u, ts, seg = _scd2_version_arrays(group, change_type)
        if u.size == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "valid_from_us": pa.array([], pa.int64()),
                "valid_to_us": pa.array([], pa.int64()),
                "segment": pa.array([], pa.int64()),
            })
        nfirst = np.concatenate(([True], u[1:] != u[:-1]))
        valid_to = np.concatenate((ts[1:], [_SCD2_OPEN]))
        valid_to[np.concatenate((nfirst[1:], [True]))] = _SCD2_OPEN
        return pa.table({
            "user_id": pa.array(u, pa.int64()),
            "valid_from_us": pa.array(ts, pa.int64()),
            "valid_to_us": pa.array(valid_to, pa.int64()),
            "segment": pa.array(seg, pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type",
                            "props"])
    return (_with_user_bucket(sf_dir, ds)
            .groupby("ubucket").map_groups(_scd2, batch_format="pyarrow"))


def q_scd2_join(sf_dir: str, change_type: str = SCD2_TYPE) -> ray.data.Dataset:
    """Point-in-time (temporal) join — the lookup the SCD2 dimension
    exists for: every purchase event enriched with the segment version
    valid AT its timestamp (valid_from <= ts < valid_to, open version
    unbounded); purchases before the user's first version (or with no
    versions at all) get segment = -1. The event-time twin of a
    stream-table temporal join: facts never see segments assigned
    after them.

    Shape: ONE user-hash bucket groupby co-locates each user's change
    events and purchases; per bucket the version chain is the shared
    _scd2_version_arrays kernel and the probe is a merged stable sort
    (versions sort before purchases at equal ts because valid_from is
    inclusive) + one cumulative last-version scan — no per-user loop,
    no second shuffle. Output (event_id, user_id, segment), one row
    per purchase."""

    def _join(group: pa.Table) -> pa.Table:
        uv, tsv, segv = _scd2_version_arrays(group, change_type)
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        pm = et == "purchase"
        if not pm.any():
            return pa.table({
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "segment": pa.array([], pa.int64()),
            })
        up = group.column("user_id").to_numpy().astype(np.int64)[pm]
        tsp = group.column("ts").cast(pa.int64()).to_numpy()[pm]
        eidp = group.column("event_id").to_numpy().astype(np.int64)[pm]
        if uv.size == 0:
            return pa.table({
                "event_id": pa.array(eidp, pa.int64()),
                "user_id": pa.array(up, pa.int64()),
                "segment": pa.array(np.full(up.size, -1, np.int64),
                                    pa.int64()),
            })
        n_v, n_p = uv.size, up.size
        mu = np.concatenate((uv, up))
        mts = np.concatenate((tsv, tsp))
        tag = np.concatenate((np.zeros(n_v, np.int64),
                              np.ones(n_p, np.int64)))
        pidx = np.concatenate((np.arange(n_v, dtype=np.int64),
                               np.arange(n_p, dtype=np.int64)))
        order = np.lexsort((tag, mts, mu))
        is_v = tag[order] == 0
        # versions are (u, ts)-sorted among themselves and lexsort is
        # stable, so the i-th version row in merged order IS version i
        last_v = np.cumsum(is_v) - 1
        ppos = ~is_v
        vidx = last_v[ppos]
        pi = pidx[order][ppos]
        valid = vidx >= 0
        seg_out = np.full(pi.size, -1, np.int64)
        ok = valid & (uv[np.maximum(vidx, 0)] == up[pi])
        seg_out[ok] = segv[vidx[ok]]
        return pa.table({
            "event_id": pa.array(eidp[pi], pa.int64()),
            "user_id": pa.array(up[pi], pa.int64()),
            "segment": pa.array(seg_out, pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type",
                            "props"])
    return (_with_user_bucket(sf_dir, ds)
            .groupby("ubucket").map_groups(_join, batch_format="pyarrow"))


# --------------------------------------------- multi-touch attribution

ATTR_WINDOW_US = np.int64(7 * 24 * 3600) * np.int64(1_000_000)
ATTR_TOUCH_TYPES = ("click", "view")


def q_attribution_linear(sf_dir: str) -> ray.data.Dataset:
    """Linear multi-touch attribution with EXACT integer cents — the
    completion of the attribution family next to `last_touch`: every
    purchase's cents split equally across ALL of the user's touch
    events (click/view) in the 7-day window [p.ts - 7d, p.ts], the
    remainder cents going to the EARLIEST touches (largest-remainder,
    so per purchase the credits sum to its cents exactly). Output one
    row per credited touch: (event_id, user_id, event_type,
    n_purchases, credit_cents).

    Shape: user-hash bucket groupby; per bucket the window bounds for
    EVERY purchase come from one merged sort of touches + two probe
    rows per purchase (at ts-7d and ts) and a cumulative touch count —
    the interval twin of the as-of merge above; the credit expansion is
    bounded by touches-per-window and built with repeat/arange, no
    per-user or per-purchase loop."""

    def _attr(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        tm = (et == ATTR_TOUCH_TYPES[0]) | (et == ATTR_TOUCH_TYPES[1])
        pm = et == "purchase"
        empty = pa.table({
            "event_id": pa.array([], pa.int64()),
            "user_id": pa.array([], pa.int64()),
            "event_type": pa.array([], pa.string()),
            "n_purchases": pa.array([], pa.int64()),
            "credit_cents": pa.array([], pa.int64()),
        })
        if not tm.any() or not pm.any():
            return empty
        cents = _cents(group.column("value").to_numpy()[pm])
        # touches sorted by (user, ts, eid) — global touch order
        t_ord = np.lexsort((eid[tm], ts[tm], u[tm]))
        tu, tt, tid = u[tm][t_ord], ts[tm][t_ord], eid[tm][t_ord]
        tet = et[tm][t_ord]
        pu, pt = u[pm], ts[pm]
        # merged rows: touches (side 0), lo probes at ts-7d (side -1,
        # BEFORE equal-ts touches: window is inclusive), hi probes at
        # ts (side 1, AFTER equal-ts touches)
        n_t, n_p = tu.size, pu.size
        m_u = np.concatenate((tu, pu, pu))
        m_ts = np.concatenate((tt, pt - ATTR_WINDOW_US, pt))
        m_side = np.concatenate((np.zeros(n_t, np.int64),
                                 np.full(n_p, -1), np.ones(n_p, np.int64)))
        m_kind = np.concatenate((np.full(n_t, -1),
                                 np.arange(n_p), np.arange(n_p)))
        order = np.lexsort((m_side, m_ts, m_u))
        is_touch = m_side[order] == 0
        seen = np.cumsum(is_touch)          # touches at-or-before each row
        lo = np.empty(n_p, np.int64)
        hi = np.empty(n_p, np.int64)
        probe_rows = ~is_touch
        pk = m_kind[order][probe_rows]
        pside = m_side[order][probe_rows]
        pseen = seen[probe_rows]
        lo[pk[pside == -1]] = pseen[pside == -1]
        hi[pk[pside == 1]] = pseen[pside == 1]
        n = hi - lo                          # touches in each window
        sel = n > 0
        if not sel.any():
            return empty
        lo_s, n_s, c_s = lo[sel], n[sel], cents[sel]
        total = int(n_s.sum())
        starts = np.concatenate(([0], np.cumsum(n_s)))[:-1]
        rank = np.arange(total, dtype=np.int64) - np.repeat(starts, n_s)
        touch_idx = np.repeat(lo_s, n_s) + rank
        credit = (np.repeat(c_s // n_s, n_s)
                  + (rank < np.repeat(c_s % n_s, n_s)))
        credit_by_touch = np.zeros(n_t, np.int64)   # exact int64 sums
        np.add.at(credit_by_touch, touch_idx, credit)
        count_by_touch = np.bincount(touch_idx, minlength=n_t)
        out = count_by_touch > 0
        return pa.table({
            "event_id": pa.array(tid[out], pa.int64()),
            "user_id": pa.array(tu[out], pa.int64()),
            "event_type": pa.array(tet[out].tolist(), pa.string()),
            "n_purchases": pa.array(count_by_touch[out], pa.int64()),
            "credit_cents": pa.array(credit_by_touch[out], pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id", "event_type",
                            "value"])
    return (_with_user_bucket(sf_dir, ds)
            .groupby("ubucket").map_groups(_attr, batch_format="pyarrow"))


# --------------------------------------------------- MAD robust outliers

MAD_K = 3   # flag |x - median| > MAD_K * MAD


def q_mad_outlier_days(sf_dir: str, k: int = MAD_K) -> ray.data.Dataset:
    """Robust outlier detection — the median/MAD twin of the z-score
    entry (q_anomalous_days): a burst day inflates the MEAN AND the
    variance, so extreme outliers can mask themselves from the z-test;
    median and median-absolute-deviation have a 50% breakdown point
    and keep flagging. Exact integer arithmetic throughout: medians of
    integers are half-integers, so both are carried DOUBLED —
    med2 = x[lo]+x[hi] (2x the median), dev2_d = |2*x_d - med2|
    (2x each deviation), mad4 = doubled median of dev2 (4x the MAD) —
    and the flag test 2*(2*dev2_d) > k*(mad4*... ) reduces to
    4*|x_d - med| > 2*k*MAD  ⟺  2*dev2_d > k * mad4. No float
    anywhere; ties and even/odd group sizes are exact by construction.

    Shape: identical to the z-score entry — (type, day, count)
    partials -> one tiny groupby -> per-type finalize (a type's day
    vector fits a task). Output (event_type, day, n_events, dev2,
    mad4) for flagged days."""
    from ray.data.aggregate import Sum

    def _med2(v: np.ndarray) -> np.int64:
        """2x the exact median of an int vector (lo+hi order stats)."""
        s = np.sort(v)
        n = s.size
        return np.int64(s[(n - 1) // 2]) + np.int64(s[n // 2])

    def _flag(group: pa.Table) -> pa.Table:
        day = group.column("day").to_numpy().astype(np.int64)
        c = group.column("n_events").to_numpy().astype(np.int64)
        med2 = _med2(c)
        dev2 = np.abs(2 * c - med2)
        mad4 = _med2(dev2)
        keep = 2 * dev2 > k * mad4
        t = group.filter(pa.array(keep))
        return pa.table({
            "event_type": t.column("event_type"),
            "day": t.column("day").cast(pa.int64()),
            "n_events": t.column("n_events").cast(pa.int64()),
            "dev2": pa.array(dev2[keep], pa.int64()),
            "mad4": pa.array(np.full(int(keep.sum()), mad4, np.int64),
                             pa.int64()),
        })

    return (
        events_ds(sf_dir, ["ts", "event_type"])
        .map_batches(_type_day_counts, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Sum("n_events", alias_name="n_events"))
        .groupby("event_type")
        .map_groups(_flag, batch_format="pyarrow")
    )


# ------------------------------------------------ autocorrelation stats

ACF_MAX_LAG = 7


def q_daily_autocorr(sf_dir: str, max_lag: int = ACF_MAX_LAG) -> ray.data.Dataset:
    """Time-series diagnostics: per event type and lag 1..max_lag, the
    EXACT integer sufficient statistics of the lag-k autocorrelation
    over the zero-filled daily count series (missing calendar days
    count 0 — lag alignment needs the dense series) —

        n_pairs, sx, sy, sxx, syy, sxy   over pairs (x_t, x_{t+k})

    Pearson r_k = (n·sxy − sx·sy) / √((n·sxx − sx²)(n·syy − sy²)) is a
    float FINALIZER the analyst applies; keeping the moments integer
    keeps the oracle hash-exact, the same contract as source_moments.
    Seasonality shows as r_7 >> r_1 — the diagnostic that decides
    whether the anomaly entries should deseasonalize first.

    Shape: the (type, day, count) compression and tiny groupby of the
    anomaly entries, then ONE co-located pass per type (a type's dense
    day vector is days-sized, trivially task-sized; 10^12 events
    compress to types x days rows long before this step)."""
    from ray.data.aggregate import Sum

    def _acf(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        day = group.column("day").to_numpy().astype(np.int64)
        c = group.column("n_events").to_numpy().astype(np.int64)
        lo, hi = int(day.min()), int(day.max())
        dense = np.zeros(hi - lo + 1, np.int64)
        dense[day - lo] = c
        lags, stats = [], []
        for k in range(1, max_lag + 1):
            if dense.size <= k:
                break
            x, y = dense[:-k], dense[k:]
            lags.append(k)
            stats.append((x.size, int(x.sum()), int(y.sum()),
                          int((x * x).sum()), int((y * y).sum()),
                          int((x * y).sum())))
        return pa.table({
            "event_type": pa.array([et] * len(lags), pa.string()),
            "lag": pa.array(lags, pa.int64()),
            "n_pairs": pa.array([s[0] for s in stats], pa.int64()),
            "sx": pa.array([s[1] for s in stats], pa.int64()),
            "sy": pa.array([s[2] for s in stats], pa.int64()),
            "sxx": pa.array([s[3] for s in stats], pa.int64()),
            "syy": pa.array([s[4] for s in stats], pa.int64()),
            "sxy": pa.array([s[5] for s in stats], pa.int64()),
        })

    return (
        events_ds(sf_dir, ["ts", "event_type"])
        .map_batches(_type_day_counts, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Sum("n_events", alias_name="n_events"))
        .groupby("event_type")
        .map_groups(_acf, batch_format="pyarrow")
    )


# ---------------------------------------------- forecast baseline eval

FORECAST_LAG = 7


def q_seasonal_forecast_eval(sf_dir: str,
                             lag: int = FORECAST_LAG) -> ray.data.Dataset:
    """Forecast-baseline evaluation: score the SEASONAL-NAIVE
    predictor (forecast for day d = observed count at day d-lag) over
    the zero-filled daily series — the baseline every real forecaster
    must beat, and the M-competition convention for reporting. Exact
    integer error sufficient statistics per event type:

        n_days, mae_num = Σ|x_d − x_{d−lag}|, sse = Σ(x_d − x_{d−lag})²,
        naive_num = Σ|x_d − x_{d−1}|   (the MASE scaling denominator)

    MAE / RMSE / MASE are the analyst's float finalizers; keeping
    integer numerators keeps the oracle hash-exact. Shape: the
    (type, day, count) compression -> tiny groupby -> one co-located
    pass per type (dense day vector, days-sized)."""
    from ray.data.aggregate import Sum

    def _eval(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        day = group.column("day").to_numpy().astype(np.int64)
        c = group.column("n_events").to_numpy().astype(np.int64)
        lo, hi = int(day.min()), int(day.max())
        dense = np.zeros(hi - lo + 1, np.int64)
        dense[day - lo] = c
        if dense.size <= lag:
            return pa.table({
                "event_type": pa.array([], pa.string()),
                "n_days": pa.array([], pa.int64()),
                "mae_num": pa.array([], pa.int64()),
                "sse": pa.array([], pa.int64()),
                "naive_num": pa.array([], pa.int64()),
            })
        err = dense[lag:] - dense[:-lag]
        step = np.abs(np.diff(dense))
        return pa.table({
            "event_type": pa.array([et], pa.string()),
            "n_days": pa.array([int(err.size)], pa.int64()),
            "mae_num": pa.array([int(np.abs(err).sum())], pa.int64()),
            "sse": pa.array([int((err * err).sum())], pa.int64()),
            "naive_num": pa.array([int(step.sum())], pa.int64()),
        })

    return (
        events_ds(sf_dir, ["ts", "event_type"])
        .map_batches(_type_day_counts, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Sum("n_events", alias_name="n_events"))
        .groupby("event_type")
        .map_groups(_eval, batch_format="pyarrow")
    )


# --------------------------------------------------- RFM segmentation

RFM_TILES = 4


def _ntile_of_rank(rank: np.ndarray, n: int, k: int) -> np.ndarray:
    """SQL NTILE(k) over 1-based global ranks: bucket sizes differ by
    at most one, larger buckets first — the exact DuckDB rule."""
    q, r = divmod(int(n), k)
    if q == 0:
        return rank.astype(np.int64)
    big = r * (q + 1)
    return np.where(rank <= big,
                    (rank - 1) // (q + 1) + 1,
                    r + (rank - big - 1) // q + 1).astype(np.int64)


def q_rfm_segments(sf_dir: str, num_blocks: int = 16) -> ray.data.Dataset:
    """RFM customer segmentation — the classic marketing/warehouse
    feature: each user scored 1..4 on Recency (last event time),
    Frequency (event count) and Monetary (purchase cents), each score
    an exact global NTILE(4) ordered by (metric asc, user_id asc), and
    segment_code = 100·R + 10·F + M. Quartiles are RANK-based (ties
    split by user_id exactly as SQL NTILE does), not
    threshold-based — so the entry hash-verifies against the window
    formulation.

    Shape: events compress to one row per user (batch partials → one
    groupby — O(users), corpus-independent); per metric ONE
    distributed sort + the range-blocked prefix pattern
    (blocked_prefix_apply) assigns global ranks with the driver
    holding only per-block counts; the three score columns meet in a
    single groupby(user).sum of weighted scores (100/10/1), so no join
    is needed. O(users) rows after the first compression; three sorts
    of the small per-user table."""
    from ray.data.aggregate import Max, Sum

    from candidategeneration_ray.stages.docids import blocked_prefix_apply

    def _partial(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy().astype(np.int64)
        if u.size == 0:
            return pa.table({
                "user_id": pa.array([], pa.int64()),
                "last_ts": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "cents": pa.array([], pa.int64()),
            })
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        cents = np.where(et == "purchase",
                         _cents(batch.column("value").to_numpy()),
                         np.int64(0))
        order = np.argsort(u, kind="stable")
        u_s, ts_s, c_s = u[order], ts[order], cents[order]
        starts = run_starts(u_s)
        return pa.table({
            "user_id": pa.array(u_s[starts], pa.int64()),
            "last_ts": pa.array(np.maximum.reduceat(ts_s, starts),
                                pa.int64()),
            "n_events": pa.array(
                np.diff(np.concatenate((starts, [u_s.size]))).astype(
                    np.int64), pa.int64()),
            "cents": pa.array(np.add.reduceat(c_s, starts), pa.int64()),
        })

    feats = (
        events_ds(sf_dir, ["user_id", "ts", "event_type", "value"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Max("last_ts", alias_name="last_ts"),
                   Sum("n_events", alias_name="n_events"),
                   Sum("cents", alias_name="cents"))
        .materialize()  # O(users) — the compressed per-user table
    )
    n_users = feats.count()

    def _scores(metric: str, weight: int) -> ray.data.Dataset:
        def _emit(t: pa.Table, base: int) -> pa.Table:
            if t.num_rows == 0 or "user_id" not in t.column_names:
                return pa.table({"user_id": pa.array([], pa.int64()),
                                 "w": pa.array([], pa.int64())})
            rank = base + 1 + np.arange(t.num_rows, dtype=np.int64)
            tile = _ntile_of_rank(rank, n_users, RFM_TILES)
            return pa.table({
                "user_id": t.column("user_id").cast(pa.int64()),
                "w": pa.array(tile * weight, pa.int64()),
            })

        return blocked_prefix_apply(
            feats.sort(key=[metric, "user_id"]), num_blocks,
            lambda t: t.num_rows, _emit)

    def _decode(batch: pa.Table) -> pa.Table:
        w = batch.column("w").to_numpy().astype(np.int64)
        return pa.table({
            "user_id": batch.column("user_id").cast(pa.int64()),
            "r_score": pa.array(w // 100, pa.int64()),
            "f_score": pa.array((w // 10) % 10, pa.int64()),
            "m_score": pa.array(w % 10, pa.int64()),
            "segment_code": pa.array(w, pa.int64()),
        })

    return (
        _scores("last_ts", 100)
        .union(_scores("n_events", 10))
        .union(_scores("cents", 1))
        .groupby("user_id").aggregate(Sum("w", alias_name="w"))
        .map_batches(_decode, batch_format="pyarrow")
    )


# ----------------------------------------------- Haar wavelet transform

HAAR_N = 64                      # fixed dyadic window (2^6 day slots)
HAAR_LEVELS = 6


def q_haar_daily(sf_dir: str) -> ray.data.Dataset:
    """Integer Haar wavelet decomposition of each event type's daily
    count series — the multi-resolution view (compression / burst
    localization: a detail coefficient says WHERE at WHICH scale the
    rate changed, which the pointwise z-test and CUSUM entries cannot).
    The UNNORMALIZED filter bank keeps every coefficient an integer:
    level ℓ pairs s→(a+b) with detail (a−b); level HAAR_LEVELS+1 row 0
    is the final approximation = the type's total event count. Missing
    calendar days are zero-filled on a fixed HAAR_N-slot window
    anchored at the GLOBAL min day (raises if the span outgrows it —
    widen HAAR_N, it must be dyadic).

    Shape: the (type, day) count compression (types × days rows) →
    ONE per-type map_groups computing the whole filter bank on a
    64-slot vector. Output (event_type, level, idx, coeff)."""
    from ray.data.aggregate import Sum

    counts = (events_ds(sf_dir, ["ts", "event_type"])
              .map_batches(_type_day_counts, batch_format="pyarrow")
              .groupby(["event_type", "day"])
              .aggregate(Sum("n_events", alias_name="n_events"))
              .materialize())
    day0 = int(counts.min("day"))

    def _haar(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        day = group.column("day").to_numpy().astype(np.int64) - day0
        c = group.column("n_events").to_numpy().astype(np.int64)
        if day.size and int(day.max()) >= HAAR_N:
            raise ValueError(
                f"event span {int(day.max()) + 1} days exceeds the "
                f"HAAR_N={HAAR_N} dyadic window — widen HAAR_N")
        s = np.zeros(HAAR_N, np.int64)
        s[day] = c
        out_l, out_i, out_c = [], [], []
        for lvl in range(1, HAAR_LEVELS + 1):
            d = s[0::2] - s[1::2]
            s = s[0::2] + s[1::2]
            out_l.extend([lvl] * d.size)
            out_i.extend(range(d.size))
            out_c.extend(d.tolist())
        out_l.append(HAAR_LEVELS + 1)
        out_i.append(0)
        out_c.append(int(s[0]))
        return pa.table({
            "event_type": pa.array([et] * len(out_l), pa.string()),
            "level": pa.array(out_l, pa.int64()),
            "idx": pa.array(out_i, pa.int64()),
            "coeff": pa.array(out_c, pa.int64()),
        })

    return counts.groupby("event_type").map_groups(
        _haar, batch_format="pyarrow")


# ------------------------------------------------ time-hierarchy rollup

def q_time_rollup(sf_dir: str) -> ray.data.Dataset:
    """Multi-grain time rollup — the calendar-hierarchy GROUPING SETS
    (day, week, month) in one pass: per grain the event count and
    exact purchase cents. Coarser grains derive from the DAY aggregate
    (week = epoch_day // 7, month = calendar month), so the corpus is
    read once and the day-grain summary (types×days rows) feeds the
    other two — the time twin of orders_cube's lattice derivation.
    Output (grain, bucket, n_events, cents); bucket = epoch day /
    epoch-day week start / year*100+month."""
    from ray.data.aggregate import Sum

    day_us = np.int64(86_400_000_000)

    def _partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        et = batch.column("event_type").to_numpy(zero_copy_only=False)
        cents = np.where(et == "purchase",
                         _cents(batch.column("value").to_numpy()),
                         np.int64(0))
        day = ts // day_us
        # calendar month from the timestamp column (Arrow kernel)
        import pyarrow.compute as pc
        tsc = batch.column("ts")
        ym = (pc.year(tsc).to_numpy(zero_copy_only=False).astype(np.int64)
              * 100
              + pc.month(tsc).to_numpy(zero_copy_only=False)
              .astype(np.int64))
        out = []
        for grain, bucket in (("day", day), ("week", (day // 7) * 7),
                              ("month", ym)):
            uk, n, c = group_sum(bucket, np.ones(bucket.size, np.int64),
                                 cents)
            out.append(pa.table({
                "grain": pa.array([grain] * uk.size, pa.string()),
                "bucket": pa.array(uk, pa.int64()),
                "n_events": pa.array(n, pa.int64()),
                "cents": pa.array(c, pa.int64()),
            }))
        return pa.concat_tables(out)

    return (events_ds(sf_dir, ["ts", "event_type", "value"])
            .map_batches(_partial, batch_format="pyarrow")
            .groupby(["grain", "bucket"])
            .aggregate(Sum("n_events", alias_name="n_events"),
                       Sum("cents", alias_name="cents")))


# ------------------------------------------------ sliding-window limiter

RATE_LIMIT_N = 1                                   # max events allowed...
RATE_LIMIT_W_US = np.int64(3600) * 1_000_000       # ...per trailing hour


def q_rate_limit_flags(sf_dir: str, limit: int = RATE_LIMIT_N) -> ray.data.Dataset:
    """Sliding-window rate limiting — the admission-control replay an
    abuse/quota pipeline runs offline: an event is FLAGGED when its
    user's trailing-hour event count (inclusive window [ts − W, ts],
    counting ALL events with equal timestamps — SQL RANGE-frame peer
    semantics) exceeds `limit`. Output one row per flagged event.

    Shape: one user-hash bucket groupby; per bucket ONE lexsort and
    two vectorized searchsorteds give every event's window count (the
    RANGE-frame twin of rolling_spend, counting instead of summing) —
    no per-user loop. Returns (event_id, user_id, n_in_window)."""
    w = RATE_LIMIT_W_US

    def _flags(group: pa.Table) -> pa.Table:
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        eid = group.column("event_id").to_numpy().astype(np.int64)
        order = np.lexsort((eid, ts, u))
        u, ts, eid = u[order], ts[order], eid[order]
        starts = run_starts(u)
        ends = np.concatenate((starts[1:], [u.size]))
        n = np.empty(u.size, np.int64)
        for s, e in zip(starts, ends):      # per-user slice, vector ops
            seg = ts[s:e]
            lo = np.searchsorted(seg, seg - w, side="left")
            hi = np.searchsorted(seg, seg, side="right")
            n[s:e] = hi - lo
        keep = n > limit
        return pa.table({
            "event_id": pa.array(eid[keep], pa.int64()),
            "user_id": pa.array(u[keep], pa.int64()),
            "n_in_window": pa.array(n[keep], pa.int64()),
        })

    ds = events_ds(sf_dir, ["event_id", "ts", "user_id"])
    return (_with_user_bucket(sf_dir, ds)
            .groupby("ubucket").map_groups(_flags, batch_format="pyarrow"))


# ------------------------------------------------ conversion-delay stats

CONV_PCTS = (50, 90)


def q_conversion_delay(sf_dir: str) -> pa.Table:
    """Time-to-convert quantiles — the product-analytics latency
    metric: per user, delay = (first purchase AT/after the first view)
    − (first view); users lacking either side are excluded; exact
    p50/p90 over the delays with the ceil-rank rule (value at rank
    ⌈p·n/100⌉ of the ascending (delay, user) order — deterministic,
    so the entry hash-verifies). Output (pct, delay_us, n_users).

    Shape: ONE user-bucket groupby compresses events to a per-user
    (first_view, first_purchase_after) row via two searchsorteds; the
    delays table is O(converting users); quantiles come from one sort
    + the blocked-rank pattern (driver holds O(blocks))."""
    from candidategeneration_ray.stages.docids import blocked_prefix_apply

    def _delays(group: pa.Table) -> pa.Table:
        et = group.column("event_type").to_numpy(zero_copy_only=False)
        u = group.column("user_id").to_numpy().astype(np.int64)
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        vm = et == "view"
        pm = et == "purchase"
        uv, tv = u[vm], ts[vm]
        up, tp = u[pm], ts[pm]
        ov = np.lexsort((tv, uv))
        uv, tv = uv[ov], tv[ov]
        op = np.lexsort((tp, up))
        up, tp = up[op], tp[op]
        first = np.concatenate(([True], uv[1:] != uv[:-1])) \
            if uv.size else np.empty(0, bool)
        fv_u, fv_t = uv[first], tv[first]
        if fv_u.size == 0 or up.size == 0:
            return pa.table({"user_id": pa.array([], pa.int64()),
                             "delay_us": pa.array([], pa.int64())})
        # merged scan (the scd2_join trick): probes sort BEFORE
        # purchases at an equal (user, ts) key, so each probe's
        # purchase-cumsum is the index of the first purchase with
        # (u, t) >= (fv_u, fv_t) in the global order
        m_u = np.concatenate((up, fv_u))
        m_t = np.concatenate((tp, fv_t))
        tag = np.concatenate((np.ones(up.size, np.int64),
                              np.zeros(fv_u.size, np.int64)))
        order = np.lexsort((tag, m_t, m_u))
        is_p = tag[order] == 1
        cum = np.cumsum(is_p)
        probe_pos = ~is_p
        # probes keep their relative (u, t) order under the stable sort
        j0 = cum[probe_pos]
        po = np.lexsort((fv_t, fv_u))      # probe order in merged scan
        fv_u, fv_t = fv_u[po], fv_t[po]
        ok = (j0 < up.size) & (up[np.minimum(j0, up.size - 1)] == fv_u)
        out_u = fv_u[ok]
        out_d = tp[j0[ok]] - fv_t[ok]
        return pa.table({
            "user_id": pa.array(out_u, pa.int64()),
            "delay_us": pa.array(out_d, pa.int64()),
        })

    ds = events_ds(sf_dir, ["ts", "user_id", "event_type"])
    delays = (_with_user_bucket(sf_dir, ds)
              .groupby("ubucket")
              .map_groups(_delays, batch_format="pyarrow")
              .materialize())
    n = delays.count()

    def _emit(t: pa.Table, base: int) -> pa.Table:
        if t.num_rows == 0 or "delay_us" not in t.column_names:
            return pa.table({"rnk": pa.array([], pa.int64()),
                             "delay_us": pa.array([], pa.int64())})
        return pa.table({
            "rnk": pa.array(base + 1 + np.arange(t.num_rows,
                                                 dtype=np.int64),
                            pa.int64()),
            "delay_us": t.column("delay_us").cast(pa.int64()),
        })

    ranked = blocked_prefix_apply(
        delays.sort(key=["delay_us", "user_id"]), 8,
        lambda t: t.num_rows, _emit)
    targets = {p: max(1, -(-p * n // 100)) for p in CONV_PCTS}
    tset = set(targets.values())
    picked = {int(r["rnk"]): int(r["delay_us"])
              for r in ranked.filter(
                  lambda r, ts_=tset: r["rnk"] in ts_).take_all()}
    return pa.table({
        "pct": pa.array(list(CONV_PCTS), pa.int64()),
        "delay_us": pa.array([picked[targets[p]] for p in CONV_PCTS],
                             pa.int64()),
        "n_users": pa.array([n] * len(CONV_PCTS), pa.int64()),
    })


def q_dow_profile(sf_dir: str) -> ray.data.Dataset:
    """Day-of-week seasonal profile per event type — the additive
    seasonality table the anomaly entries deseasonalize with (the
    q_daily_autocorr diagnostic showed r_7 structure; this extracts
    it): per (event_type, dow 0=Monday) the day count, total events
    and exact purchase cents, with the per-day mean left as the
    (sum, n_days) integer pair. Zero-event (type, dow) days inside
    the span count toward n_days — the mean is over CALENDAR days,
    not active ones.

    Shape: the (type, day) compression (one groupby), then dow rollup
    of the types×days summary; span bounds ride along as scalars."""
    from ray.data.aggregate import Sum

    day_us = np.int64(86_400_000_000)

    def _partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy()
        et = np.asarray(batch.column("event_type").to_pylist(), object)
        cents = np.where(
            np.asarray(batch.column("event_type").to_pylist(),
                       object) == "purchase",
            _cents(batch.column("value").to_numpy()), np.int64(0))
        day = ts // day_us
        ut, ti = np.unique(et, return_inverse=True)
        d0 = np.int64(day.min()) if day.size else np.int64(0)
        span = np.int64(day.max()) - d0 + 1 if day.size else np.int64(1)
        code = ti.astype(np.int64) * span + (day - d0)
        u, n, c = group_sum(code, np.ones(code.size, np.int64), cents)
        return pa.table({
            "event_type": pa.array(ut[u // span].tolist(), pa.string()),
            "day": pa.array(u % span + d0, pa.int64()),
            "n_events": pa.array(n, pa.int64()),
            "cents": pa.array(c, pa.int64()),
        })

    counts = (events_ds(sf_dir, ["ts", "event_type", "value"])
              .map_batches(_partial, batch_format="pyarrow")
              .groupby(["event_type", "day"])
              .aggregate(Sum("n_events", alias_name="n_events"),
                         Sum("cents", alias_name="cents"))
              .materialize())
    lo = int(counts.min("day"))
    hi = int(counts.max("day"))
    # calendar days per dow inside [lo, hi] — epoch day 0 = Thursday,
    # so dow(Monday=0) = (day + 3) % 7
    all_days = np.arange(lo, hi + 1, dtype=np.int64)
    dow_days = np.bincount((all_days + 3) % 7, minlength=7).astype(
        np.int64)
    ref = ray.put(dow_days)

    def _dow(batch: pa.Table) -> pa.Table:
        day = batch.column("day").to_numpy().astype(np.int64)
        return pa.table({
            "event_type": batch.column("event_type"),
            "dow": pa.array((day + 3) % 7, pa.int64()),
            "n_events": batch.column("n_events").cast(pa.int64()),
            "cents": batch.column("cents").cast(pa.int64()),
        })

    def _attach_days(batch: pa.Table) -> pa.Table:
        dd = ray.get(ref)
        dow = batch.column("dow").to_numpy().astype(np.int64)
        return batch.append_column(
            "n_days", pa.array(dd[dow], pa.int64()))

    return (counts.map_batches(_dow, batch_format="pyarrow")
            .groupby(["event_type", "dow"])
            .aggregate(Sum("n_events", alias_name="n_events"),
                       Sum("cents", alias_name="cents"))
            .map_batches(_attach_days, batch_format="pyarrow"))


# ------------------------------------------- spend concentration (Gini)

GINI_RANK_BLOCKS = 32


def q_spend_gini(sf_dir: str,
                 num_blocks: int = GINI_RANK_BLOCKS) -> pa.Table:
    """Gini coefficient of per-user purchase spend — the inequality /
    concentration audit (how skewed is the spend distribution), exact
    as an integer fraction: with per-user totals x sorted ascending
    and ranked 1..n (ties broken by user_id, the documented
    convention), G = (2·Σ rank·x − (n+1)·Σx) / (n·Σx). Output one row
    (n_users, total_cents, gini_num, gini_den, gini_ppm) — gini_ppm is
    the ppm floor quotient, computed in Python bigints so no
    intermediate overflows.

    Shape: groupby(user_id) to per-user totals → distributed sort on
    (cents, user_id) → blocked_prefix_apply assigns global ranks with
    O(num_blocks) driver state, each block emitting ONE partial row
    (cnt, Σx, Σ rank·x) → the driver sums ≤num_blocks partials. The
    rank-weighted sum never materializes the user table anywhere."""
    from ray.data.aggregate import Sum

    from candidategeneration_ray.stages.docids import blocked_prefix_apply

    def _user_cents(batch: pa.Table) -> pa.Table:
        keep = (np.asarray(batch.column("event_type").to_pylist(),
                           dtype=object) == "purchase")
        uid = batch.column("user_id").to_numpy().astype(np.int64)[keep]
        cents = _cents(batch.column("value").to_numpy()[keep])
        return pa.table({"user_id": pa.array(uid, pa.int64()),
                         "cents": pa.array(cents, pa.int64())})

    per_user = (events_ds(sf_dir, ["user_id", "event_type", "value"])
                .map_batches(_user_cents, batch_format="pyarrow")
                .groupby("user_id")
                .aggregate(Sum("cents", alias_name="cents"))
                .sort(key=["cents", "user_id"]))

    def _emit(t: pa.Table, base: int) -> pa.Table:
        if t.num_rows == 0 or "cents" not in t.schema.names:
            # repartition can hand back schema-less empty blocks when
            # there are fewer users than blocks
            x = np.zeros(0, np.int64)
        else:
            x = t.column("cents").to_numpy().astype(np.int64)
        ranks = base + 1 + np.arange(x.size, dtype=np.int64)
        return pa.table({
            "cnt": pa.array([x.size], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "srx": pa.array([int((ranks * x).sum())], pa.int64()),
        })

    parts = blocked_prefix_apply(per_user, num_blocks,
                                 lambda t: t.num_rows, _emit).take_all()
    n = sum(int(r["cnt"]) for r in parts)
    tot = sum(int(r["sx"]) for r in parts)
    rx = sum(int(r["srx"]) for r in parts)
    num = 2 * rx - (n + 1) * tot
    den = n * tot
    return pa.table({
        "n_users": pa.array([n], pa.int64()),
        "total_cents": pa.array([tot], pa.int64()),
        "gini_num": pa.array([num], pa.int64()),
        "gini_den": pa.array([den], pa.int64()),
        "gini_ppm": pa.array([(1_000_000 * num) // den if den else 0],
                             pa.int64()),
    })
