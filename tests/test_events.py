"""Event-stream operators: gap sessionization + as-of join semantics
on hand-built fixtures (the SQL oracles cover the driver tables)."""

import datetime as dt
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_events(tmp_path, rows):
    t0 = dt.datetime(2024, 1, 1)
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([t0 + dt.timedelta(seconds=r[1]) for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[2] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64()),
    })
    pq.write_table(t, os.path.join(str(tmp_path), "events.parquet"))
    return str(tmp_path)


def test_sessionize_gap_semantics(ray_session, tmp_path):
    """Gap strictly greater than gap_sec starts a new session; exactly
    gap_sec does not. Sessions are per-user."""
    from candidategeneration_ray.pipelines.events import q_sessionize

    rows = [
        # user 1: events at 0s, 1800s (== gap, same session), 3601s (> gap
        # from 1800 → new session)
        (0, 0, 1, "view", 1.00),
        (1, 1800, 1, "view", 2.00),
        (2, 3601, 1, "view", 3.00),
        # user 2: single event
        (3, 50, 2, "click", 0.50),
    ]
    d = _write_events(tmp_path, rows)
    pdf = q_sessionize(d, gap_sec=1800).to_pandas() \
        .sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    got = pdf.values.tolist()
    assert got == [
        [1, 0, 2, 0, 1, 300],   # user1 session0: events 0,1; 100+200 cents
        [1, 1, 1, 2, 2, 300],   # user1 session1: event 2
        [2, 0, 1, 3, 3, 50],
    ]


def test_asof_join_semantics(ray_session, tmp_path):
    """Most recent strictly-earlier right event per user; no prior
    match drops the row; equal-ts right events never match."""
    from candidategeneration_ray.pipelines.events import q_asof_join

    rows = [
        (0, 0, 1, "click", 0.0),
        (1, 100, 1, "click", 0.0),
        (2, 100, 1, "purchase", 0.0),   # equal ts to click 1 → matches click 0
        (3, 200, 1, "purchase", 0.0),   # matches click 1 (most recent prior)
        (4, 10, 2, "purchase", 0.0),    # user 2 has no clicks → dropped
    ]
    d = _write_events(tmp_path, rows)
    pdf = q_asof_join(d).to_pandas().sort_values("event_id").reset_index(drop=True)
    assert pdf.values.tolist() == [
        [2, 0, 100_000_000],
        [3, 1, 100_000_000],
    ]


def test_sessionize_matches_single_partition(ray_session, tmp_path,
                                             monkeypatch):
    """Bucketing must not change results: random events through the
    bucketed path equal a single-bucket run."""
    from candidategeneration_ray.pipelines import events as E

    rng = np.random.default_rng(3)
    rows = [
        (i, int(rng.integers(0, 100_000)), int(rng.integers(0, 20)),
         "view", float(rng.integers(0, 1000)) / 100)
        for i in range(2000)
    ]
    d = _write_events(tmp_path, rows)
    a = E.q_sessionize(d).to_pandas() \
        .sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    monkeypatch.setattr(E, "table_buckets", lambda *a: 1)
    b = E.q_sessionize(d).to_pandas() \
        .sort_values(["user_id", "session_idx"]).reset_index(drop=True)
    assert a.equals(b)


def test_hot_user_single_bucket(ray_session, tmp_path):
    """Pathological skew: ONE user owns every event. The bucketed
    groupby routes them all to a single task (the documented
    co-location assumption) and still produces exact sessions with the
    full row count."""
    from candidategeneration_ray.pipelines import events as E

    n = 5000
    rows = [(i, i * 10, 7, "view", 1.0) for i in range(n)]  # no gaps
    d = _write_events(tmp_path, rows)
    pdf = E.q_sessionize(d).to_pandas()
    assert len(pdf) == 1  # one user, gap never exceeded -> one session
    assert int(pdf["n_events"].iloc[0]) == n
    assert int(pdf["cents"].iloc[0]) == 100 * n


class TestSessionizeSliced:
    """Two-level (user, time-slice) sessionization must equal the
    one-level plan for any slice width — including widths far smaller
    than the session gap, where nearly every session is split and
    repaired by the phase-2 merge."""

    def _one_level(self, E, d, gap_sec=1800):
        return E.q_sessionize(d, gap_sec=gap_sec).to_pandas() \
            .sort_values(["user_id", "session_idx"]).reset_index(drop=True)

    def test_equals_one_level_random(self, ray_session, tmp_path):
        from candidategeneration_ray.pipelines import events as E

        rng = np.random.default_rng(11)
        rows = [
            (i, int(rng.integers(0, 200_000)), int(rng.integers(0, 25)),
             "view", float(rng.integers(0, 1000)) / 100)
            for i in range(3000)
        ]
        d = _write_events(tmp_path, rows)
        want = self._one_level(E, d)
        for slice_sec in (6 * 3600, 1800, 601, 1):
            got = E.q_sessionize_sliced(d, slice_sec=slice_sec).to_pandas() \
                .sort_values(["user_id", "session_idx"]).reset_index(drop=True)
            assert got.equals(want), f"slice_sec={slice_sec}"

    def test_boundary_straddling_session_merges(self, ray_session, tmp_path):
        from candidategeneration_ray.pipelines import events as E

        # slice width 100s; events at 95s and 105s (gap 10 <= 1800)
        # land in different slices and must merge back into ONE session;
        # 105s -> 2000s (gap 1895 > 1800) must stay split even though
        # a slice boundary also separates them.
        rows = [
            (0, 95, 1, "view", 1.00),
            (1, 105, 1, "view", 2.00),
            (2, 2000, 1, "view", 4.00),
        ]
        d = _write_events(tmp_path, rows)
        got = E.q_sessionize_sliced(d, slice_sec=100).to_pandas() \
            .sort_values("session_idx").reset_index(drop=True)
        assert got[["session_idx", "n_events", "min_event_id",
                    "max_event_id", "cents"]].values.tolist() == [
            [0, 2, 0, 1, 300],
            [1, 1, 2, 2, 400],
        ]

    def test_gap_spanning_empty_slices_merges(self, ray_session, tmp_path):
        from candidategeneration_ray.pipelines import events as E

        # 1s slices, events 1700s apart (gap <= 1800): ~1700 empty
        # slices between the two local sessions — still one session.
        rows = [(0, 0, 1, "view", 1.00), (1, 1700, 1, "view", 1.00)]
        d = _write_events(tmp_path, rows)
        got = E.q_sessionize_sliced(d, slice_sec=1).to_pandas()
        assert len(got) == 1
        assert int(got["n_events"].iloc[0]) == 2

    def test_monster_user_spreads_across_phase1_groups(
            self, ray_session, tmp_path):
        """The point of the plan: one user's events hash to MANY
        phase-1 buckets (one per time slice), unlike the one-level
        plan's single bucket."""
        from candidategeneration_ray.pipelines import events as E

        n = 4000
        rows = [(i, i * 10, 7, "view", 1.0) for i in range(n)]
        d = _write_events(tmp_path, rows)
        got = E.q_sessionize_sliced(d, slice_sec=600).to_pandas()
        assert len(got) == 1 and int(got["n_events"].iloc[0]) == n
        assert int(got["cents"].iloc[0]) == 100 * n
        # distinct phase-1 keys touched = distinct (user, slice) pairs
        ts = np.arange(n, dtype=np.int64) * 10
        assert len(np.unique(ts // 600)) > 1


def test_range_join_counts_semantics(ray_session, tmp_path):
    """[ts - lookback, ts) band: boundary events at exactly -lookback
    count, events at ts itself do not."""
    from candidategeneration_ray.pipelines.events import q_range_join_counts

    rows = [
        (0, 0, 1, "click", 0.0),      # exactly lookback before → counts
        (1, 1800, 1, "click", 0.0),   # inside window → counts
        (2, 3600, 1, "click", 0.0),   # equal ts → excluded
        (3, 3600, 1, "purchase", 0.0),
        (4, 10, 2, "purchase", 0.0),  # no clicks → 0
    ]
    d = _write_events(tmp_path, rows)
    pdf = q_range_join_counts(d).to_pandas().sort_values("event_id") \
        .reset_index(drop=True)
    assert pdf.values.tolist() == [[3, 2], [4, 0]]


def test_asof_and_range_match_bruteforce_random(ray_session, tmp_path):
    """Vectorized merged-scan kernels vs an O(n²) python reference on
    random data with ts collisions."""
    from candidategeneration_ray.pipelines.events import (
        q_asof_join, q_range_join_counts)

    rng = np.random.default_rng(11)
    n = 1200
    rows = [
        (i, int(rng.integers(0, 5000)), int(rng.integers(0, 12)),
         ["click", "purchase", "view"][int(rng.integers(0, 3))], 0.0)
        for i in range(n)
    ]
    d = _write_events(tmp_path, rows)

    lefts = [(e, s, u) for e, s, u, t, _ in rows if t == "purchase"]
    rights = [(e, s, u) for e, s, u, t, _ in rows if t == "click"]

    # brute-force as-of: most recent strictly-earlier click, ties by max id
    want_asof = {}
    for e, s, u in lefts:
        cands = [(cs, ce) for ce, cs, cu in rights if cu == u and cs < s]
        if cands:
            cs, ce = max(cands)
            want_asof[e] = (ce, (s - cs) * 1_000_000)
    got = q_asof_join(d).to_pandas()
    got_asof = {r.event_id: (r.click_event_id, r.gap_us)
                for r in got.itertuples()}
    assert got_asof == want_asof

    # brute-force range count: clicks in [s-3600, s)
    want_rng = {
        e: sum(1 for ce, cs, cu in rights
               if cu == u and s - 3600 <= cs < s)
        for e, s, u in lefts
    }
    got2 = q_range_join_counts(d).to_pandas()
    got_rng = dict(zip(got2["event_id"], got2["n_prior"]))
    assert got_rng == want_rng


class TestSlidingCounts:
    def test_fanout_totals_and_tumbling_degenerate(self, ray_session):
        import pyarrow.parquet as pq
        from candidategeneration_ray.pipelines.events import (
            q_sliding_counts, q_windowed_counts)

        SF = "/root/testdata/sf0.01"
        n = pq.read_metadata(SF + "/events.parquet").num_rows
        sl = q_sliding_counts(SF).to_pandas()
        # every event lands in exactly window/slide = 4 windows
        assert sl["n_events"].sum() == 4 * n
        # slide == window degenerates to the tumbling aggregate exactly
        deg = q_sliding_counts(SF, 3600, 3600).to_pandas() \
            .sort_values(["event_type", "window_start_us"]).reset_index(drop=True)
        tum = q_windowed_counts(SF).to_pandas() \
            .sort_values(["event_type", "window_start_us"]).reset_index(drop=True)
        assert (deg.values == tum.values).all()


class TestWindowTopUsers:
    def test_matches_bruteforce_with_ties(self, ray_session, tmp_path):
        """Per-window top-k by count desc, ties broken by user_id asc;
        dense ranks 1..k even when counts tie across the cut."""
        from candidategeneration_ray.pipelines.events import q_window_top_users

        rng = np.random.default_rng(7)
        rows = [
            (i, int(rng.integers(0, 4 * 3600)), int(rng.integers(0, 9)),
             "view", 0.0)
            for i in range(800)
        ]
        d = _write_events(tmp_path, rows)

        # brute force over (window, user) counts
        t0 = dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc).timestamp()
        counts = {}
        for _, s, u, _, _ in rows:
            us = int((t0 + s) * 1_000_000)
            w = (us // (3600 * 1_000_000)) * 3600 * 1_000_000
            counts[(w, u)] = counts.get((w, u), 0) + 1
        want = []
        for w in sorted({k[0] for k in counts}):
            per = sorted(((c, u) for (ww, u), c in counts.items() if ww == w),
                         key=lambda t: (-t[0], t[1]))[:3]
            want += [(w, r + 1, u, c) for r, (c, u) in enumerate(per)]

        got = q_window_top_users(d, k=3).to_pandas() \
            .sort_values(["window_start_us", "rank"]).reset_index(drop=True)
        assert [tuple(r) for r in got[
            ["window_start_us", "rank", "user_id", "n_events"]
        ].itertuples(index=False)] == want

    def test_k1_is_argmax(self, ray_session):
        from candidategeneration_ray.pipelines.events import q_window_top_users

        SF = "/root/testdata/sf0.01"
        one = q_window_top_users(SF, k=1).to_pandas()
        three = q_window_top_users(SF, k=3).to_pandas()
        assert (one["rank"] == 1).all()
        top = three[three["rank"] == 1].sort_values("window_start_us") \
            .reset_index(drop=True)
        one = one.sort_values("window_start_us").reset_index(drop=True)
        assert (one.values == top.values).all()


class TestWindowedHeavyHitters:
    @staticmethod
    def _brute(rows, window_sec, phi100):
        t0 = dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc).timestamp()
        counts, totals = {}, {}
        for _, s, u, _, _ in rows:
            w = (int((t0 + s) * 1_000_000) // (window_sec * 1_000_000)) \
                * window_sec * 1_000_000
            counts[(w, u)] = counts.get((w, u), 0) + 1
            totals[w] = totals.get(w, 0) + 1
        return {
            (w, u): c for (w, u), c in counts.items()
            if c * 10000 >= phi100 * totals[w]
        }

    def test_matches_bruteforce_with_tiny_capacity(self, ray_session, tmp_path):
        """capacity=2 forces heavy MG compression per batch; the exact
        second pass must still recover precisely the true hitters."""
        from candidategeneration_ray.pipelines.events import (
            q_windowed_heavy_hitters)

        rng = np.random.default_rng(11)
        rows = []
        for i in range(900):
            # skew: users 0/1 dominate, long tail of 30 others
            u = int(rng.choice([0, 0, 0, 1, 1] + list(range(2, 32))))
            rows.append((i, int(rng.integers(0, 3 * 3600)), u, "view", 0.0))
        d = _write_events(tmp_path, rows)
        got = q_windowed_heavy_hitters(
            d, window_sec=3600, phi100=500, capacity=2).to_pandas()
        want = self._brute(rows, 3600, 500)
        assert {
            (int(r.window_start_us), int(r.user_id)): int(r.n_events)
            for r in got.itertuples()
        } == want
        assert want  # the fixture must actually produce hitters

    def test_sf0001_exact(self, ray_session):
        """Engine output == exact pandas recount at sf0.001 defaults."""
        from candidategeneration_ray.pipelines.events import (
            q_windowed_heavy_hitters)

        SF = "/root/testdata/sf0.001"
        ev = pq.read_table(os.path.join(SF, "events.parquet"),
                           columns=["ts", "user_id"]).to_pandas()
        w_us = 86400 * 1_000_000
        w = (ev["ts"].astype("int64") // w_us) * w_us
        df = ev.assign(w=w).groupby(["w", "user_id"]).size().reset_index(name="n")
        tot = df.groupby("w")["n"].sum().rename("nw")
        df = df.join(tot, on="w")
        want = df[df["n"] * 10000 >= 150 * df["nw"]]
        got = q_windowed_heavy_hitters(SF).to_pandas()
        assert {
            (int(r.window_start_us), int(r.user_id)): int(r.n_events)
            for r in got.itertuples()
        } == {(int(r.w), int(r.user_id)): int(r.n) for r in want.itertuples()}
        assert len(got) > 0


class TestFunnelCounts:
    def test_ordering_semantics(self, ray_session, tmp_path):
        """A user counts for stage i only if the stages appear as a
        strictly-time-increasing subsequence."""
        from candidategeneration_ray.pipelines.events import q_funnel_counts

        rows = [
            # user 1: full ordered funnel
            (0, 0, 1, "signup", 0.0), (1, 10, 1, "click", 0.0),
            (2, 20, 1, "purchase", 0.0),
            # user 2: purchase BEFORE click -> stops at click
            (3, 0, 2, "signup", 0.0), (4, 5, 2, "purchase", 0.0),
            (5, 10, 2, "click", 0.0),
            # user 3: click only, no signup -> stage 0
            (6, 0, 3, "click", 0.0),
            # user 4: signup only
            (7, 0, 4, "signup", 0.0),
            # user 5: greedy earliest signup still lets later click count
            (8, 0, 5, "signup", 0.0), (9, 1, 5, "signup", 0.0),
            (10, 2, 5, "click", 0.0), (11, 3, 5, "purchase", 0.0),
        ]
        d = _write_events(tmp_path, rows)
        got = q_funnel_counts(d).to_pandas().sort_values("stage")
        assert got["event_type"].tolist() == ["signup", "click", "purchase"]
        assert got["n_users"].tolist() == [4, 3, 2]

    def test_equal_ts_does_not_advance(self, ray_session, tmp_path):
        from candidategeneration_ray.pipelines.events import q_funnel_counts

        rows = [(0, 0, 1, "signup", 0.0), (1, 0, 1, "click", 0.0),
                (2, 1, 1, "purchase", 0.0)]
        d = _write_events(tmp_path, rows)
        got = q_funnel_counts(d).to_pandas().sort_values("stage")
        # click shares the signup timestamp -> strict > rejects it
        assert got["n_users"].tolist() == [1, 0, 0]

    def test_monotone_nonincreasing(self, ray_session):
        from candidategeneration_ray.pipelines.events import q_funnel_counts

        got = q_funnel_counts("/root/testdata/sf0.001").to_pandas() \
            .sort_values("stage")
        n = got["n_users"].tolist()
        assert all(a >= b for a, b in zip(n, n[1:]))
        assert n[0] > 0


class TestCohortRetention:
    def test_semantics_small(self, ray_session, tmp_path):
        from candidategeneration_ray.pipelines.events import q_cohort_retention

        W = 7 * 86400
        rows = [
            # user 1: signup week0, purchases weeks 0 and 2 (two in w2
            # count once), one past the horizon
            (0, 10, 1, "signup", 0.0),
            (1, 20, 1, "purchase", 0.0),
            (2, 2 * W + 5, 1, "purchase", 0.0),
            (3, 2 * W + 6, 1, "purchase", 0.0),
            (4, 9 * W, 1, "purchase", 0.0),           # beyond horizon 5
            # user 2: signup week1 (second signup ignored), purchase week1
            (5, W + 50, 2, "signup", 0.0),
            (6, 2 * W, 2, "signup", 0.0),
            (7, W + 60, 2, "purchase", 0.0),
            # user 3: purchase BEFORE signup in the same week -> week 0
            (8, 100, 3, "purchase", 0.0),
            (9, 200, 3, "signup", 0.0),
            # user 4: purchase but never signed up -> excluded
            (10, 50, 4, "purchase", 0.0),
        ]
        d = _write_events(tmp_path, rows)
        got = q_cohort_retention(d, cohort_sec=W, horizon=5).to_pandas() \
            .sort_values(["cohort_start_us", "week_offset"]).reset_index(drop=True)
        t0 = dt.datetime(2024, 1, 1, tzinfo=dt.timezone.utc).timestamp()
        wk = lambda s: (int((t0 + s) * 1_000_000) // (W * 1_000_000)) \
            * W * 1_000_000
        want = {
            (wk(10), 0): 2,   # users 1 and 3 (3's purchase same week)
            (wk(10), 2): 1,   # user 1
            (wk(W + 50), 0): 1,  # user 2
        }
        assert {
            (int(r.cohort_start_us), int(r.week_offset)): int(r.n_users)
            for r in got.itertuples()
        } == want

    def test_sf0001_matches_pandas(self, ray_session):
        from candidategeneration_ray.pipelines.events import q_cohort_retention

        SF = "/root/testdata/sf0.001"
        ev = pq.read_table(os.path.join(SF, "events.parquet"),
                           columns=["ts", "user_id", "event_type"]).to_pandas()
        W = 7 * 86400 * 1_000_000
        ev["us"] = ev["ts"].astype("int64")
        s = ev[ev.event_type == "signup"].groupby("user_id")["us"].min() // W
        p = ev[ev.event_type == "purchase"].copy()
        p["wk0"] = p["user_id"].map(s)
        p = p.dropna(subset=["wk0"])
        p["k"] = p["us"] // W - p["wk0"].astype("int64")
        p = p[(p["k"] >= 0) & (p["k"] < 5)]
        want = p.drop_duplicates(["user_id", "k"]) \
            .groupby([p["wk0"].astype("int64") * W, "k"]).size()
        got = q_cohort_retention(SF).to_pandas()
        assert {
            (int(r.cohort_start_us), int(r.week_offset)): int(r.n_users)
            for r in got.itertuples()
        } == {(int(c), int(k)): int(v) for (c, k), v in want.items()}
        assert len(got) > 0


def test_session_length_hist_consistent_with_sessionize(ray_session):
    from candidategeneration_ray.pipelines.events import (
        q_session_length_hist, q_sessionize)

    SF_ = "/root/testdata/sf0.001"
    sess = q_sessionize(SF_).to_pandas()
    want = sess.groupby("n_events").agg(
        n_sessions=("n_events", "size"), cents=("cents", "sum"))
    got = q_session_length_hist(SF_).to_pandas().set_index("n_events") \
        .sort_index()
    assert got["n_sessions"].to_dict() == want["n_sessions"].to_dict()
    assert got["cents"].to_dict() == want["cents"].to_dict()
    assert int(got["n_sessions"].sum()) == len(sess)


def test_last_touch_and_dedup_semantics(ray_session, tmp_path):
    from candidategeneration_ray.pipelines.events import (
        q_event_dedup_counts, q_last_touch)

    rows = [
        (0, 0, 1, "view", 0.0),
        (1, 30, 1, "view", 0.0),    # dup of event 0 (30s <= 60)
        (2, 200, 1, "view", 0.0),   # gap 170s > 60 -> not a dup
        (3, 200, 1, "click", 0.0),  # different type -> not a dup
        (4, 5, 2, "view", 0.0),     # other user
        (5, 200, 1, "view", 0.0),   # same ts as event 2 -> gap 0 dup
    ]
    d = _write_events(tmp_path, rows)
    lt = q_last_touch(d).to_pandas().sort_values("user_id")
    # user 1 ties at ts=200: event_id 5 wins (event_id desc)
    assert lt["event_id"].tolist() == [5, 4]
    assert lt["event_type"].tolist() == ["view", "view"]

    dd = q_event_dedup_counts(d).to_pandas().set_index("event_type")
    assert dd.loc["view", "n_events"] == 5
    assert dd.loc["view", "n_dups"] == 2     # events 1 and 5
    assert dd.loc["click", "n_dups"] == 0


def test_rolling_spend_range_frame_semantics(ray_session, tmp_path):
    from candidategeneration_ray.pipelines.events import q_rolling_spend

    rows = [
        (0, 0, 1, "purchase", 1.00),
        (1, 1800, 1, "purchase", 2.00),     # within 1h of 0
        (2, 3600, 1, "purchase", 4.00),     # exactly 1h after 0: included
        (3, 3601, 1, "purchase", 8.00),     # event 0 now out of range
        (4, 3601, 1, "purchase", 16.00),    # equal-ts PEER of 3: both see both
        (5, 3601, 1, "click", 99.00),       # other type: ignored
        (6, 0, 2, "purchase", 32.00),       # other user
        (7, 100000, 1, "purchase", 64.00),  # lone trailing window
    ]
    d = _write_events(tmp_path, rows)
    got = q_rolling_spend(d).to_pandas().set_index("event_id").sort_index()
    assert got.loc[0, "cents_window"] == 100
    assert got.loc[1, "cents_window"] == 300
    assert got.loc[2, "cents_window"] == 700       # 1+2+4 (boundary incl.)
    # RANGE CURRENT ROW includes equal-ts peers in BOTH frames
    assert got.loc[3, "cents_window"] == 3000      # 2+4+8+16
    assert got.loc[4, "cents_window"] == 3000
    assert got.loc[3, "n_window"] == 4 and got.loc[4, "n_window"] == 4
    assert got.loc[6, "cents_window"] == 3200
    assert got.loc[7, "cents_window"] == 6400 and got.loc[7, "n_window"] == 1
    assert 5 not in got.index


def test_rolling_spend_matches_bruteforce(ray_session):
    import duckdb

    from candidategeneration_ray.pipelines.events import q_rolling_spend

    sf = "/root/testdata/sf0.001"
    got = q_rolling_spend(sf).to_pandas().sort_values("event_id") \
        .reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    exp = con.sql("""
        WITH p AS (SELECT event_id, user_id, ts,
                          CAST(round(value*100) AS BIGINT) AS cents
                   FROM events WHERE event_type = 'purchase')
        SELECT a.event_id,
               count(*) AS n_window,
               sum(b.cents) AS cents_window
        FROM p a JOIN p b ON a.user_id = b.user_id
         AND b.ts BETWEEN a.ts - INTERVAL 1 HOUR AND a.ts
        GROUP BY a.event_id ORDER BY a.event_id
    """).df()
    assert got["event_id"].tolist() == exp["event_id"].tolist()
    assert got["n_window"].tolist() == exp["n_window"].astype(int).tolist()
    assert got["cents_window"].tolist() == \
        exp["cents_window"].astype(int).tolist()


def test_gap_histogram_mass(ray_session):
    """Total gaps = total events - distinct users (one LAG null per
    user); buckets bounded by the cap."""
    import duckdb

    from candidategeneration_ray.pipelines import events as ev

    df = ev.q_gap_histogram("/root/testdata/sf0.01").to_pandas()
    con = duckdb.connect()
    n_ev, n_users = con.execute(
        "SELECT count(*), count(DISTINCT user_id) "
        "FROM '/root/testdata/sf0.01/events.parquet'").fetchone()
    assert df["n_gaps"].sum() == n_ev - n_users
    assert df["gap_min_bucket"].between(0, int(ev.GAP_BUCKET_CAP)).all()


def test_running_spend_monotone_per_user(ray_session):
    from candidategeneration_ray.pipelines import events as ev

    df = ev.q_running_spend("/root/testdata/sf0.01").to_pandas()
    for _, grp in df.groupby("user_id"):
        # running totals are non-decreasing in event order (positive values)
        g = grp.sort_values("running_cents")
        assert (g["running_cents"].diff().dropna() >= 0).all()
    assert df["event_id"].is_unique


def test_user_features_consistency(ray_session):
    """Cross-check the one-pass features against the dedicated
    operators: n_sessions vs q_sessionize, purchase cents vs the sum
    of purchase values."""
    from candidategeneration_ray.pipelines import events as ev

    sf = "/root/testdata/sf0.01"
    feat = ev.q_user_features(sf).to_pandas().set_index("user_id")
    sess = ev.q_sessionize(sf).to_pandas().groupby("user_id").size()
    assert (feat["n_sessions"].sort_index() == sess.sort_index()).all()
    assert (feat["first_ts_us"] <= feat["last_ts_us"]).all()
    assert (feat["n_purchases"] <= feat["n_events"]).all()
    assert (feat["n_event_types"] >= 1).all()


def test_props_extract_mass(ray_session):
    from candidategeneration_ray.pipelines import events as ev

    import pyarrow.parquet as pq

    df = ev.q_props_extract("/root/testdata/sf0.01").to_pandas()
    n = pq.read_metadata("/root/testdata/sf0.01/events.parquet").num_rows
    assert df["n_events"].sum() == n          # every event parsed
    # bucket invariant: 10*bucket <= mean k in bucket < 10*(bucket+1)
    assert (df["sum_k"] >= 10 * df["k_bucket"] * df["n_events"]).all()
    assert (df["sum_k"] < 10 * (df["k_bucket"] + 1) * df["n_events"]).all()


def test_type_transitions_fixture(ray_session, tmp_path):
    """Hand-built stream: user 1 = view->click->purchase, user 2 =
    view->view; counts exact, cross-user pairs never counted."""
    from candidategeneration_ray.pipelines.events import q_type_transitions

    sf = _write_events(tmp_path, [
        (1, 0, 1, "view", 0.0),
        (2, 10, 1, "click", 0.0),
        (3, 20, 1, "purchase", 5.0),
        (4, 5, 2, "view", 0.0),
        (5, 15, 2, "view", 0.0),
    ])
    df = q_type_transitions(sf).to_pandas()
    got = {(r.prev_type, r.next_type): r.n for r in df.itertuples()}
    assert got == {("view", "click"): 1, ("click", "purchase"): 1,
                   ("view", "view"): 1}


def test_type_transitions_total(ray_session):
    """Σ transitions = n_events - n_users (each user contributes
    len-1 pairs)."""
    from candidategeneration_ray.pipelines.events import q_type_transitions

    sf = "/root/testdata/sf0.001"
    df = q_type_transitions(sf).to_pandas()
    ev = pq.read_table(os.path.join(sf, "events.parquet"),
                       columns=["user_id"])
    n = ev.num_rows
    nu = len(set(ev.column("user_id").to_pylist()))
    assert int(df["n"].sum()) == n - nu


def test_session_copresence_fixture(ray_session, tmp_path):
    """Users 1,2 overlap twice; user 3 is disjoint; same-user sessions
    never pair. Long sessions cross slice boundaries — counted once."""
    from candidategeneration_ray.pipelines.events import q_session_copresence

    H = 3600
    rows, eid = [], 1

    def _chain(user, start_s, end_s):
        # events every 20 min keep one session alive across the span
        nonlocal eid
        for t in range(start_s, end_s + 1, 1200):
            rows.append((eid, t, user, "view", 0.0))
            eid += 1

    _chain(1, 0, 8 * H)            # user 1 session A crosses 6h slice
    _chain(2, 1 * H, 2 * H)        # user 2 A inside user-1-A -> overlap
    _chain(1, 20 * H, 21 * H)      # user 1 session B
    _chain(2, int(20.5 * H), 22 * H)  # user 2 B overlaps B -> overlap 2
    _chain(3, 100 * H, 101 * H)    # user 3: disjoint
    sf = _write_events(tmp_path, rows)
    df = q_session_copresence(sf).to_pandas()
    got = {(r.user_a, r.user_b): r.n_overlaps for r in df.itertuples()}
    assert got == {(1, 2): 2}


def test_session_copresence_slice_invariance(ray_session, monkeypatch):
    """The result is slice-width independent (ownership dedup exact):
    a 10-minute slice forces heavy replication + cross-slice pairs."""
    from candidategeneration_ray.pipelines import events as ev

    sf = "/root/testdata/sf0.001"
    base = ev.q_session_copresence(sf).to_pandas().sort_values(
        ["user_a", "user_b"]).reset_index(drop=True)
    monkeypatch.setattr(ev, "COPRESENCE_SLICE_US",
                        np.int64(600) * 1_000_000)
    tiny = ev.q_session_copresence(sf).to_pandas().sort_values(
        ["user_a", "user_b"]).reset_index(drop=True)
    assert len(base) > 0
    assert base.equals(tiny)


def test_windowed_counts_filled_consistency(ray_session):
    """Filled == dense counts plus zero rows for every empty slot in
    each type's [min, max] window span; dense rows unchanged."""
    from candidategeneration_ray.pipelines.events import (
        q_windowed_counts, q_windowed_counts_filled)

    sf = "/root/testdata/sf0.001"
    dense = q_windowed_counts(sf).to_pandas()
    filled = q_windowed_counts_filled(sf).to_pandas()
    W = 3600 * 1_000_000
    d = {(r.event_type, r.window_start_us): (r.n_events, r.cents)
         for r in dense.itertuples()}
    for et, g in filled.groupby("event_type"):
        ws = np.sort(g["window_start_us"].to_numpy())
        span = dense[dense["event_type"] == et]["window_start_us"]
        # contiguous hourly slots covering the dense span exactly
        assert ws[0] == span.min() and ws[-1] == span.max()
        assert (np.diff(ws) == W).all()
    for r in filled.itertuples():
        want = d.get((r.event_type, r.window_start_us), (0, 0))
        assert (r.n_events, r.cents) == want
    assert len(filled) > len(dense)  # the corpus has empty slots


def test_window_view_ivm_never_rereads_base(ray_session, tmp_path):
    """After the base state exists, the maintenance pass uses ONLY the
    state + the delta rows: deleting the base half of the events file
    before maintaining must not change the result."""
    from candidategeneration_ray.pipelines import events as E

    rng = np.random.default_rng(5)
    rows = [(i, int(rng.integers(0, 500_000)), int(rng.integers(0, 9)),
             ["view", "click"][int(rng.integers(0, 2))],
             float(rng.integers(0, 1000)) / 100) for i in range(3000)]
    d = _write_events(tmp_path, rows)
    full = E.q_windowed_counts(d).to_pandas().sort_values(
        ["event_type", "window_start_us"]).reset_index(drop=True)

    base = E.build_window_view(d, os.path.join(str(tmp_path), "base"),
                               parity=0)
    # drop the base half from the source — only odd rows remain
    t = pq.read_table(os.path.join(d, "events.parquet"))
    odd = (t.column("event_id").to_numpy() % 2 == 1)
    pq.write_table(t.filter(pa.array(odd)),
                   os.path.join(d, "events.parquet"))

    cur = E.maintain_window_view(base, d,
                                 os.path.join(str(tmp_path), "gen1"),
                                 parity=1)
    import ray as _ray
    import ray.data as rd
    got = rd.read_parquet(
        [os.path.join(cur, f) for f in os.listdir(cur)
         if f.endswith(".parquet")]).to_pandas().sort_values(
        ["event_type", "window_start_us"]).reset_index(drop=True)
    assert got.equals(full)

    # crash-rerun idempotence: a second maintain call is a no-op
    again = E.maintain_window_view(base, d,
                                   os.path.join(str(tmp_path), "gen1"),
                                   parity=1)
    assert again == cur
    got2 = rd.read_parquet(
        [os.path.join(cur, f) for f in os.listdir(cur)
         if f.endswith(".parquet")]).to_pandas().sort_values(
        ["event_type", "window_start_us"]).reset_index(drop=True)
    assert got2.equals(full)


def test_events_range_scan_prunes_partitions(ray_session):
    """The pruned read touches only the day partitions inside the
    range — strictly fewer files than the full layout — and the
    result equals a direct filtered aggregate."""
    from candidategeneration_ray.pipelines import events as E
    from candidategeneration_ray.pipelines.docquery import _cache_dir

    sf = "/root/testdata/sf0.001"
    got = E.q_events_range_scan(sf).to_pandas().sort_values(
        "event_type").reset_index(drop=True)

    part_dir = os.path.join(_cache_dir(sf, "evpart"), "days")
    day_us = 86_400_000_000
    lo = np.datetime64(E.RANGE_SCAN_LO).astype("datetime64[us]") \
        .astype(np.int64)
    hi = np.datetime64(E.RANGE_SCAN_HI).astype("datetime64[us]") \
        .astype(np.int64)
    touched = E.range_scan_paths(part_dir, int(lo // day_us),
                                 int(-(-hi // day_us)))
    all_files = E.range_scan_paths(part_dir, -10**9, 10**9)
    assert touched and set(touched) < set(all_files)  # strict pruning
    for f in touched:  # every touched file IS in range by dirname
        day = int(f.split("day=")[1].split("/")[0])
        assert lo // day_us <= day < -(-hi // day_us)

    ev = pq.read_table(os.path.join(sf, "events.parquet"),
                       columns=["ts", "event_type", "value"])
    ts = ev.column("ts").cast(pa.int64()).to_numpy()
    keep = (ts >= lo) & (ts < hi)
    et = np.asarray(ev.column("event_type").to_pylist(), object)[keep]
    from candidategeneration_ray.functions.money import round_scaled
    cents = round_scaled(ev.column("value").to_numpy()[keep])
    want = {}
    for t, c in zip(et, cents):
        n, s = want.get(t, (0, 0))
        want[t] = (n + 1, s + int(c))
    assert {r.event_type: (r.n_events, r.cents)
            for r in got.itertuples()} == want


def test_session_copresence_random_vs_bruteforce(ray_session, tmp_path):
    """Randomized stream: slice-replicated co-presence == O(n²) brute
    force over the per-user session intervals."""
    from candidategeneration_ray.pipelines import events as E

    rng = np.random.default_rng(23)
    rows = [(i, int(rng.integers(0, 400_000)), int(rng.integers(0, 12)),
             "view", 0.0) for i in range(1500)]
    d = _write_events(tmp_path, rows)
    got = {(r.user_a, r.user_b): r.n_overlaps
           for r in E.q_session_copresence(d).to_pandas().itertuples()}

    # brute force: sessions per user from the same gap rule
    by_user: dict[int, list[int]] = {}
    for _, t, u, _, _ in rows:
        by_user.setdefault(u, []).append(t)
    sess = []
    for u, ts in by_user.items():
        ts.sort()
        s = e = ts[0]
        for t in ts[1:]:
            if t - e > 1800:
                sess.append((u, s, e))
                s = t
            e = t
        sess.append((u, s, e))
    want: dict[tuple, int] = {}
    for i in range(len(sess)):
        for j in range(i + 1, len(sess)):
            (ua, sa, ea), (ub, sb, eb) = sess[i], sess[j]
            if ua != ub and sa <= eb and sb <= ea:
                k = (min(ua, ub), max(ua, ub))
                want[k] = want.get(k, 0) + 1
    assert got == want and len(want) > 0


def test_type_transitions_random_vs_pandas(ray_session, tmp_path):
    from candidategeneration_ray.pipelines.events import q_type_transitions
    import pandas as pd

    rng = np.random.default_rng(31)
    types = ["view", "click", "purchase", "error"]
    rows = [(i, int(rng.integers(0, 50_000)), int(rng.integers(0, 15)),
             types[int(rng.integers(0, 4))], 0.0) for i in range(2000)]
    d = _write_events(tmp_path, rows)
    got = {(r.prev_type, r.next_type): r.n
           for r in q_type_transitions(d).to_pandas().itertuples()}
    df = pd.DataFrame(rows, columns=["event_id", "t", "user_id",
                                     "event_type", "v"])
    df = df.sort_values(["user_id", "t", "event_id"])
    want: dict[tuple, int] = {}
    for _, g in df.groupby("user_id"):
        et = g["event_type"].tolist()
        for a, b in zip(et, et[1:]):
            want[(a, b)] = want.get((a, b), 0) + 1
    assert got == want


def test_events_pivot_fails_fast_on_unknown_type(ray_session, tmp_path):
    from candidategeneration_ray.pipelines import events as ev

    t = pa.table({
        "event_id": pa.array([1], pa.int64()),
        "ts": pa.array(np.array([0], "datetime64[us]")),
        "user_id": pa.array([1], pa.int64()),
        "event_type": pa.array(["mystery"], pa.string()),
        "value": pa.array([1.0], pa.float64()),
        "props": pa.array(["{}"], pa.string()),
    })
    pq.write_table(t, os.path.join(str(tmp_path), "events.parquet"))
    with pytest.raises(Exception, match="PIVOT_TYPES"):
        ev.q_events_pivot(str(tmp_path)).to_pandas()


def test_user_event_paths_brute_force(ray_session):
    """Engine paths equal a pandas recomputation for every user at
    sf0.001 (order, truncation, count)."""
    import pandas as pd

    from candidategeneration_ray.pipelines import events as ev

    sf = "/root/testdata/sf0.001"
    got = ev.q_user_event_paths(sf).to_pandas() \
        .set_index("user_id").sort_index()
    raw = pq.read_table(
        sf + "/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type"]).to_pandas()
    raw = raw.sort_values(["user_id", "ts", "event_id"])
    want_path = raw.groupby("user_id")["event_type"] \
        .apply(lambda s: ">".join(s.iloc[:ev.PATH_N]))
    want_n = raw.groupby("user_id").size()
    assert got["path"].equals(want_path.sort_index())
    assert got["n_events"].astype(int).equals(want_n.sort_index()
                                              .astype(int))


def test_anomalous_days_zscore_brute_force(ray_session):
    """Flagged (type, day) set equals a float z-score recomputation
    (strict > k sigma, population variance)."""
    from candidategeneration_ray.pipelines import events as ev

    sf = "/root/testdata/sf0.001"
    got = {(r["event_type"], int(r["day"]))
           for r in ev.q_anomalous_days(sf).take_all()}
    raw = pq.read_table(sf + "/events.parquet",
                        columns=["ts", "event_type"]).to_pandas()
    raw["day"] = raw["ts"].astype("int64") // 86_400_000_000
    counts = raw.groupby(["event_type", "day"]).size().rename("c") \
        .reset_index()
    want = set()
    for et, grp in counts.groupby("event_type"):
        c = grp["c"].to_numpy(np.float64)
        mu, var = c.mean(), c.var()
        for d, ci in zip(grp["day"], c):
            if (ci - mu) ** 2 > ev.ANOMALY_K ** 2 * var:
                want.add((et, int(d)))
    assert got == want


def test_ab_test_flags_float_recompute(ray_session):
    """The integer cross-multiplied verdicts equal a float Welch
    z-test recomputation (population variances, strict > k)."""
    from candidategeneration_ray.pipelines import events as ev

    sf = "/root/testdata/sf0.001"
    got = ev.q_ab_test_flags(sf).to_pandas().set_index("event_type")
    raw = pq.read_table(sf + "/events.parquet",
                        columns=["user_id", "event_type", "value"]) \
        .to_pandas()
    raw["c"] = ev._cents(raw["value"].to_numpy())
    raw["arm"] = raw["user_id"] % 2
    for et, grp in raw.groupby("event_type"):
        a = grp[grp["arm"] == 0]["c"].to_numpy(np.float64)
        b = grp[grp["arm"] == 1]["c"].to_numpy(np.float64)
        if not len(a) or not len(b):
            assert et not in got.index
            continue
        z2 = (a.mean() - b.mean()) ** 2 / (
            a.var() / len(a) + b.var() / len(b))
        assert int(got.loc[et, "significant"]) == int(z2 > ev.AB_K ** 2)
        assert int(got.loc[et, "cents_a"]) == int(a.sum())
        assert int(got.loc[et, "n_b"]) == len(b)


def test_peak_concurrency_brute_force(ray_session):
    """Sweep-line result == O(n²) direct check: for every session-start
    instant, count sessions whose [start, end] covers it."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines import events as ev

    SF_DIR = "/root/testdata/sf0.001"
    t = ev.q_peak_concurrency(SF_DIR).to_pandas()
    assert len(t) == 1
    li = pq.read_table(os.path.join(SF_DIR, "events.parquet"),
                       columns=["user_id", "ts"]).to_pandas()
    li = li.sort_values(["user_id", "ts"], kind="mergesort")
    gap = np.int64(ev.PEAK_GAP_SEC) * 1_000_000
    spans = []
    for _, g in li.groupby("user_id"):
        ts = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        new = np.concatenate(([True], np.diff(ts) > gap))
        st = np.nonzero(new)[0]
        en = np.concatenate((st[1:], [ts.size])) - 1
        spans.extend(zip(ts[st], ts[en]))
    assert int(t["n_sessions"].iloc[0]) == len(spans)
    s = np.array([a for a, _ in spans], np.int64)
    e = np.array([b for _, b in spans], np.int64)
    conc = [(int(((s <= x) & (e >= x)).sum()), int(x)) for x in s]
    peak = max(c for c, _ in conc)
    first_ts = min(x for c, x in conc if c == peak)
    assert int(t["peak"].iloc[0]) == peak
    assert int(t["peak_ts_us"].iloc[0]) == first_ts


def test_peak_concurrency_block_count_invariant(ray_session):
    from candidategeneration_ray.pipelines import events as ev

    SF_DIR = "/root/testdata/sf0.001"
    a = ev.q_peak_concurrency(SF_DIR, num_blocks=2).to_pandas()
    b = ev.q_peak_concurrency(SF_DIR, num_blocks=57).to_pandas()
    assert a.equals(b)


def test_zorder_scan_prunes_and_matches_bruteforce(ray_session, tmp_path):
    """The z-ordered layout must (a) actually skip row groups on a 2-D
    rectangle, (b) return exactly the brute-force rectangle rows, for
    several rectangles including empty and full ones."""
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines import events as ev

    SF = "/root/testdata/sf0.01"
    layout = ev.build_events_zorder(SF, str(tmp_path / "layout"))
    raw = pq.read_table(os.path.join(SF, "events.parquet"),
                        columns=["user_id", "ts", "value"]).to_pandas()
    raw["day"] = raw["ts"].to_numpy().astype("datetime64[us]") \
        .astype(np.int64) // 86_400_000_000
    raw["cents"] = ev._cents(raw["value"].to_numpy())
    rects = [(40, 90, 19730, 19740), (0, 5, 19723, 19725),
             (140, 150, 19750, 19753), (0, 1000, 19000, 20000),
             (60, 61, 19735, 19736), (10, 12, 19800, 19900)]  # last empty
    sel_read, sel_total = 0, 0
    for ulo, uhi, dlo, dhi in rects:
        t, n_read, n_total = ev.zorder_scan(layout, ulo, uhi, dlo, dhi)
        sub = raw[(raw.user_id >= ulo) & (raw.user_id < uhi)
                  & (raw.day >= dlo) & (raw.day < dhi)]
        got_n = int(t.num_rows) if t is not None else 0
        got_c = int(t.column("cents").to_numpy().sum()) if got_n else 0
        assert got_n == len(sub)
        assert got_c == int(sub["cents"].sum())
        if len(sub) and len(sub) < len(raw) // 4:
            # selective rectangles must skip row groups; the exact count
            # depends on where the sort split files (boundary groups are
            # partial), so the per-rect bound is loose (2/3) and the
            # aggregate bound is the strict one (1/3 across all rects)
            assert n_read * 3 < n_total * 2, (ulo, uhi, dlo, dhi,
                                              n_read, n_total)
            sel_read += n_read
            sel_total += n_total
    assert sel_total > 0
    assert sel_read * 3 < sel_total, (sel_read, sel_total)


def test_ewma_spend_recurrence(ray_session):
    """EWMA rows match a direct python recurrence over per-user
    purchase sequences at sf0.001, including single-purchase users."""
    import numpy as np
    import pyarrow.parquet as pq
    from candidategeneration_ray.functions.money import round_scaled
    from candidategeneration_ray.pipelines import events as ev

    sf = "/root/testdata/sf0.001"
    got = ev.q_ewma_spend(sf).to_pandas()
    t = pq.read_table(sf + "/events.parquet").to_pandas()
    p = t[t["event_type"] == "purchase"].copy()
    p["cents"] = round_scaled(p["value"].to_numpy())
    want = {}
    for uid, grp in p.groupby("user_id"):
        grp = grp.sort_values(["ts", "event_id"])
        s = 0
        for i, (eid, c) in enumerate(zip(grp["event_id"], grp["cents"])):
            s = int(c) if i == 0 else (ev.EWMA_NUM * s) // ev.EWMA_DEN + int(c)
            want[int(eid)] = s
    assert len(got) == len(want)
    assert {int(r.event_id): int(r.ewma_cents)
            for r in got.itertuples()} == want


class TestLateEvents:
    def test_brute_force_and_block_invariance(self, ray_session):
        """Watermark lateness equals a sequential python scan in arrival
        order at sf0.001; result is block-count independent; totals
        conserve the event count and the late path is exercised."""
        import pyarrow.parquet as pq

        from candidategeneration_ray.functions import hashing as H
        from candidategeneration_ray.pipelines import events as ev

        sf = "/root/testdata/sf0.001"
        got = ev.q_late_events(sf).to_pandas().sort_values(
            "window_start_ms").reset_index(drop=True)
        got8 = ev.q_late_events(sf, num_blocks=7).to_pandas().sort_values(
            "window_start_ms").reset_index(drop=True)
        assert got.equals(got8)

        t = pq.read_table(sf + "/events.parquet",
                          columns=["event_id", "ts"])
        eid = t.column("event_id").to_numpy()
        ts_ms = t.column("ts").cast("int64").to_numpy() // 1000
        delay = (H.h64_many([str(i) for i in eid.tolist()])
                 % ev.LATE_MAX_DELAY_MS).astype("int64")
        rows = sorted(zip(ts_ms + delay, eid, ts_ms))
        have = {int(r.window_start_ms): (int(r.n_accepted), int(r.n_late))
                for r in got.itertuples()}
        wm = None
        agg = {}
        for _, _, tm in rows:
            w = tm // ev.LATE_WINDOW_MS * ev.LATE_WINDOW_MS
            late = wm is not None and tm < wm - ev.LATE_ALLOWED_MS
            a, l = agg.get(w, (0, 0))
            agg[w] = (a + (not late), l + late)
            wm = tm if wm is None else max(wm, tm)
        want = dict(agg)
        assert have == want
        assert sum(l for _, l in want.values()) > 0  # late path exercised
        assert (got["n_accepted"].sum() + got["n_late"].sum()
                == len(eid))


def test_cusum_detects_injected_drift(ray_session, tmp_path):
    """CUSUM fires on a rate shift (30 days at ~4/day then 30 at
    ~20/day) and stays quiet on a uniform stream; s_num equals the
    cross-multiplied prefix recurrence."""
    import datetime as dt

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines import events as ev

    rows = []
    t0 = dt.datetime(2024, 1, 1)
    eid = 0
    for day in range(60):
        n = 4 if day < 30 else 20
        for j in range(n):
            rows.append((eid, t0 + dt.timedelta(days=day, minutes=j),
                         "drift"))
            eid += 1
    for day in range(60):
        for j in range(5):
            rows.append((eid, t0 + dt.timedelta(days=day, minutes=j),
                         "steady"))
            eid += 1
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[1] for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([0] * len(rows), pa.int64()),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
        "value": pa.array([1.0] * len(rows), pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    }), str(tmp_path / "events.parquet"))

    df = ev.q_cusum_days(str(tmp_path)).to_pandas()
    drift = df[df["event_type"] == "drift"].sort_values("day")
    steady = df[df["event_type"] == "steady"]
    assert drift["flag"].sum() > 0, "rate shift must be flagged"
    assert steady["flag"].sum() == 0, "uniform stream must stay quiet"
    n = drift["n_events"].to_numpy()
    D, N = n.size, n.sum()
    s = D * np.cumsum(n) - np.arange(1, D + 1) * N
    assert (drift["s_num"].to_numpy() == s).all()
    assert int(s[-1]) == 0  # the scan must return to zero at the end


def test_scd2_versions_brute_force(ray_session):
    """SCD2 at sf0.001 vs a pandas re-derivation: version chains are
    contiguous per user (valid_to == next valid_from, exactly one open
    version), and no version repeats its predecessor's segment."""
    import re

    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from candidategeneration_ray.pipelines.events import q_scd2_dim

    SF = "/root/testdata/sf0.001"
    got = q_scd2_dim(SF).to_pandas().sort_values(
        ["user_id", "valid_from_us"]).reset_index(drop=True)
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev = ev[ev.event_type == "view"].copy()
    ev["seg"] = ev.props.map(lambda s: int(re.search(r'"k":\s*(-?\d+)', s).group(1)))
    ev["ts_us"] = ev.ts.astype("int64")
    rows = []
    for uid, g in ev.groupby("user_id"):
        g = g.sort_values(["ts_us", "event_id"])
        prev = None
        for _, r in g.iterrows():
            if prev is None or r.seg != prev:
                rows.append((uid, r.ts_us, r.seg))
                prev = r.seg
    brute = pd.DataFrame(rows, columns=["user_id", "valid_from_us", "segment"])
    brute["valid_to_us"] = brute.groupby("user_id").valid_from_us.shift(-1)
    brute["valid_to_us"] = brute.valid_to_us.fillna(-1).astype(np.int64)
    brute = brute.sort_values(["user_id", "valid_from_us"]).reset_index(drop=True)
    assert got[brute.columns.tolist()].equals(brute)
    for uid, g in got.groupby("user_id"):
        g = g.sort_values("valid_from_us")
        assert (g.valid_to_us.iloc[-1] == -1) and (g.valid_to_us.iloc[:-1] != -1).all()
        assert (g.valid_to_us.iloc[:-1].to_numpy()
                == g.valid_from_us.iloc[1:].to_numpy()).all()
        assert (g.segment.to_numpy()[1:] != g.segment.to_numpy()[:-1]).all()


def test_attribution_linear_conservation(ray_session):
    """Linear attribution at sf0.001: per-purchase credits conserve the
    purchase's cents exactly (global check: total credit == total cents
    of purchases with >=1 in-window touch), every credit differs from
    the equal share by at most 1, and remainders go to the earliest
    touches (brute-forced for a sample of purchases)."""
    import numpy as np
    import pyarrow.parquet as pq

    from candidategeneration_ray.functions.money import round_scaled
    from candidategeneration_ray.pipelines.events import (
        ATTR_WINDOW_US, q_attribution_linear)

    SF = "/root/testdata/sf0.001"
    got = q_attribution_linear(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    ev["ts_us"] = ev.ts.astype("int64")
    touches = ev[ev.event_type.isin(["click", "view"])].sort_values(
        ["user_id", "ts_us", "event_id"])
    purchases = ev[ev.event_type == "purchase"]
    total_expected = 0
    per_touch = {}
    for _, p in purchases.iterrows():
        w = touches[(touches.user_id == p.user_id)
                    & (touches.ts_us >= p.ts_us - int(ATTR_WINDOW_US))
                    & (touches.ts_us <= p.ts_us)]
        if w.empty:
            continue
        cents = int(round_scaled(np.array([p.value]))[0])
        total_expected += cents
        n = len(w)
        for r, (_, t) in enumerate(w.iterrows(), start=1):
            per_touch[t.event_id] = per_touch.get(t.event_id, 0) + \
                cents // n + (1 if r <= cents % n else 0)
    assert int(got.credit_cents.sum()) == total_expected
    brute = dict(sorted(per_touch.items()))
    mine = dict(sorted(zip(got.event_id.astype(int), got.credit_cents.astype(int))))
    assert mine == brute


class TestMadOutliers:
    def test_masking_resistance_vs_ztest(self, ray_session, tmp_path):
        """A monster burst day masks itself from the z-test (it inflates
        mean AND variance) but not from median/MAD."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.events import (
            q_mad_outlier_days)

        day_us = 86_400_000_000
        rows = []
        eid = 0
        # type "steady": 20 days at 5 events, one day at 500
        for d in range(20):
            n = 500 if d == 10 else 5
            for _ in range(n):
                rows.append((eid, d * day_us + eid % 1000, 7, "steady",
                             1.0, "{}"))
                eid += 1
        # type "uniform": flat 6/day -> nothing flagged
        for d in range(20):
            for _ in range(6):
                rows.append((eid, d * day_us + eid % 1000, 8, "uniform",
                             1.0, "{}"))
                eid += 1
        t = pa.table({
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
            "value": pa.array([r[4] for r in rows], pa.float64()),
            "props": pa.array([r[5] for r in rows], pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "events.parquet"))
        got = q_mad_outlier_days(d).to_pandas()
        flagged = got[got.event_type == "steady"]
        assert flagged["day"].tolist() == [10]
        assert flagged["n_events"].tolist() == [500]
        assert (got.event_type != "uniform").all()

    def test_doubled_median_kernel(self, ray_session):
        from candidategeneration_ray.pipelines import events as ev
        import numpy as np

        # odd and even sizes, with ties
        for v, want in [([3], 6), ([1, 3], 4), ([1, 2, 9], 4),
                        ([2, 2, 4, 10], 6)]:
            got = None
            s = np.array(v, np.int64)
            n = s.size
            got = int(np.int64(np.sort(s)[(n - 1) // 2])
                      + np.int64(np.sort(s)[n // 2]))
            assert got == want


class TestDailyAutocorr:
    def test_seasonality_detected(self, ray_session, tmp_path):
        """A strict weekly pattern gives r_7 = 1 exactly (constant
        series at each lag-7 alignment) and r_1 < 1."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.events import q_daily_autocorr

        day_us = 86_400_000_000
        rows = []
        eid = 0
        week = [2, 5, 9, 3, 7, 1, 4]
        for d in range(28):
            for _ in range(week[d % 7]):
                rows.append((eid, d * day_us + eid % 500, 3, "weekly"))
                eid += 1
        t = pa.table({
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
            "value": pa.array([1.0] * len(rows), pa.float64()),
            "props": pa.array(["{}"] * len(rows), pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "events.parquet"))
        got = (q_daily_autocorr(d).to_pandas()
               .set_index("lag").sort_index())

        def r(row):
            n, sx, sy = row["n_pairs"], row["sx"], row["sy"]
            num = n * row["sxy"] - sx * sy
            den = ((n * row["sxx"] - sx * sx)
                   * (n * row["syy"] - sy * sy)) ** 0.5
            return num / den

        assert abs(r(got.loc[7]) - 1.0) < 1e-12       # exact weekly repeat
        assert r(got.loc[1]) < 0.5
        # moments re-derive from the dense series
        dense = np.array([week[d % 7] for d in range(28)], np.int64)
        for k in range(1, 8):
            x, y = dense[:-k], dense[k:]
            row = got.loc[k]
            assert (row["n_pairs"], row["sx"], row["sy"], row["sxx"],
                    row["syy"], row["sxy"]) == (
                x.size, x.sum(), y.sum(), (x * x).sum(), (y * y).sum(),
                (x * y).sum())


class TestSeasonalForecastEval:
    def test_perfect_weekly_pattern_scores_zero(self, ray_session, tmp_path):
        """A strict weekly series has ZERO seasonal-naive error while
        the lag-1 naive denominator stays positive (MASE -> 0)."""
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        from candidategeneration_ray.pipelines.events import (
            q_seasonal_forecast_eval)

        day_us = 86_400_000_000
        rows = []
        eid = 0
        week = [2, 5, 9, 3, 7, 1, 4]
        for d in range(28):
            for _ in range(week[d % 7]):
                rows.append((eid, d * day_us + eid % 500, 3, "weekly"))
                eid += 1
        t = pa.table({
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "user_id": pa.array([r[2] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
            "value": pa.array([1.0] * len(rows), pa.float64()),
            "props": pa.array(["{}"] * len(rows), pa.string()),
        })
        d = str(tmp_path)
        pq.write_table(t, os.path.join(d, "events.parquet"))
        got = q_seasonal_forecast_eval(d).to_pandas()
        r = got.iloc[0]
        assert (r["mae_num"], r["sse"]) == (0, 0)
        assert r["naive_num"] > 0
        assert r["n_days"] == 21
