"""Windowed analytics over the ``events`` table.

Tumbling and sliding windows, as-of and range joins, HyperLogLog distinct
users, sessionization and a conversion funnel — each a Ray Data pipeline
with a DuckDB oracle (``oracle_*``).  None of them uses the full-text
index; the indexed events queries live in
``whoosh_reloaded_ray.pipelines.events_index``.
"""

from __future__ import annotations

import os

import pyarrow as pa


def _userpart(ds, P: int):
    """Attach the user-hash partition column (the per-entity ops below
    co-locate by user via one small-int shuffle instead of a per-user
    groupby — Ray's group machinery calls Python once per key; see
    partition.py)."""
    import numpy as np

    from .partition import PART_COL, partition_ids

    def addp(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False)
        return batch.add_column(
            0, PART_COL, pa.array(partition_ids(u.astype(np.uint64), P))
        )

    return ds.map_batches(addp, batch_format="pyarrow")


def _disjoint_user_ts(u_sorted, ts_sorted, gap: int):
    """For (user, ts)-sorted arrays, rebase each user's timestamps into
    disjoint strictly-increasing int64 ranges separated by > ``gap``:
    one GLOBAL searchsorted then answers every per-user window query,
    because a window of width <= gap can never span two users.  Total
    per-partition user time-span must fit int64 (~292k years of summed
    activity) — asserted, and shrinkable by raising the partition
    count."""
    import numpy as np

    n = u_sorted.size
    if n == 0:
        return ts_sorted.astype(np.int64)
    new = np.concatenate(([True], u_sorted[1:] != u_sorted[:-1]))
    seg_of = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    ends = np.concatenate((starts[1:], [n])) - 1
    base = ts_sorted[starts]
    spans = ts_sorted[ends] - base
    offs = np.concatenate(([0], np.cumsum(spans + gap)[:-1]))
    out = (ts_sorted - base[seg_of]) + offs[seg_of]
    assert out[-1] >= 0, (
        "summed user time-spans overflowed int64; raise num_partitions"
    )
    return out


def events_tumbling_counts(sf_dir: str) -> pa.Table:
    """Tumbling-window aggregate: events per (event_type, 1-hour window).
    A windowed aggregate is floor-to-bucket + groupby in Ray Data — one
    keyed shuffle, partial counts combined per batch first."""
    import numpy as np
    import pyarrow.compute as pc
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "event_type"]
    )

    def bucket_counts(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hour = (ts // 3_600_000_000) * 3_600_000_000
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        key = np.char.add(np.char.add(et.astype(str), "|"), hour.astype(str))
        uk, counts = np.unique(key, return_counts=True)
        parts = np.char.partition(uk, "|")
        return pa.table(
            {
                "event_type": pa.array(parts[:, 0].tolist(), pa.string()),
                "window_start": pa.array(
                    parts[:, 2].astype(np.int64), pa.timestamp("us")
                ),
                "n": pa.array(counts, pa.int64()),
            }
        )

    agg = (
        ds.map_batches(bucket_counts, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .sum("n")
    )
    parts = list(agg.iter_batches(batch_format="pyarrow", batch_size=None))
    t = pa.concat_tables(parts)
    t = pa.table(
        {
            "event_type": t["event_type"],
            "window_start": t["window_start"],
            "n": t["sum(n)"].cast(pa.int64()),
        }
    )
    return t.sort_by([("event_type", "ascending"), ("window_start", "ascending")])


def oracle_events_tumbling_counts() -> str:
    return """
SELECT event_type, time_bucket(INTERVAL 1 HOUR, ts) AS window_start,
       COUNT(*)::BIGINT AS n
FROM events GROUP BY 1, 2 ORDER BY event_type, window_start
"""


def events_sliding_rate(sf_dir: str) -> pa.Table:
    """Sliding-window rate feature: for every event, how many events the
    same user produced in the preceding hour (inclusive of this one) —
    the per-entity windowed aggregate pattern (sessionization, rate
    limits, burst features).

    Distributed: a user-hash partition co-locates each user's events
    (NOT a per-user groupby — Ray's group machinery calls Python once
    per key, pathological at user cardinality; see
    functions/partition.py).  Inside a partition ALL users are handled
    by one sort + one searchsorted: each user's rebased timestamps are
    shifted into disjoint ranges separated by > window, so windows can
    never cross a user boundary and a single global searchsorted
    answers every per-user window query."""
    import numpy as np
    import ray.data

    from .partition import num_partitions_default, partitioned_map_groups

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "ts", "user_id"]
    )

    def window_counts(part: pa.Table) -> pa.Table:
        win = 3_600_000_000
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        ts = part["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, uid))
        u_s, ts_s = uid[order], ts[order]
        tshift = _disjoint_user_ts(u_s, ts_s, gap=2 * win)
        lo = np.searchsorted(tshift, tshift - win, side="left")
        n_in_window = np.arange(1, tshift.size + 1) - lo
        out = np.empty(tshift.size, dtype=np.int64)
        out[order] = n_in_window
        return pa.table(
            {
                "event_id": part["event_id"],
                "user_id": part["user_id"],
                "n_last_hour": pa.array(out, pa.int64()),
            }
        )

    res = partitioned_map_groups(
        _userpart(ds, num_partitions_default()), window_counts
    )
    parts = list(res.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(parts).sort_by("event_id")


def oracle_events_sliding_rate() -> str:
    return """
SELECT event_id, user_id,
       COUNT(*) OVER (PARTITION BY user_id ORDER BY ts
                      RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                      AND CURRENT ROW)::BIGINT AS n_last_hour
FROM events ORDER BY event_id
"""


def events_asof_signup(sf_dir: str) -> pa.Table:
    """AS-OF JOIN: for every 'purchase' event, the user's most recent
    'signup' at-or-before it (NULL when none) — the canonical as-of join
    the Dataset API lacks as a primitive, expressed as keyed co-location
    (user-hash partition) + a per-partition sorted searchsorted lookup.
    Both sides of the join ride the SAME shuffle, so the cost is one
    keyed exchange regardless of table sizes."""
    import numpy as np
    import ray.data

    from .partition import num_partitions_default, partitioned_map_groups

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def asof(part: pa.Table) -> pa.Table:
        # ALL users of the partition at once: signup rows sorted by
        # (user, ts) become ONE monotone lookup array via per-user
        # disjoint shifting; each purchase maps into its user's shifted
        # range (clamped to the range end so late purchases can't bleed
        # into the next user's segment) and binary-searches globally
        import pyarrow.compute as pc

        et = part["event_type"].to_numpy(zero_copy_only=False)
        ts = part["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        left = np.flatnonzero(et == "purchase")
        out_schema = pa.schema(
            [
                ("event_id", pa.int64()),
                ("user_id", pa.int64()),
                ("signup_ts", pa.timestamp("us")),
            ]
        )
        if left.size == 0:
            return out_schema.empty_table()
        li = pa.array(left, pa.int64())
        right = np.flatnonzero(et == "signup")
        p_u, p_ts = uid[left], ts[left]
        ok = np.zeros(p_u.size, dtype=bool)
        vals = np.zeros(p_u.size, dtype=np.int64)
        if right.size:
            s_u, s_ts = uid[right], ts[right]
            sorder = np.lexsort((s_ts, s_u))
            s_u, s_ts = s_u[sorder], s_ts[sorder]
            s_shift = _disjoint_user_ts(s_u, s_ts, gap=1)
            first = np.concatenate(([True], s_u[1:] != s_u[:-1]))
            last = np.concatenate((first[1:], [True]))
            fu = s_u[first]  # unique users with signups, sorted
            foff = (s_shift - s_ts)[first]  # per-user constant shift
            fend = s_shift[last]  # per-user shifted range end
            upos = np.minimum(np.searchsorted(fu, p_u), fu.size - 1)
            u_match = fu[upos] == p_u
            q = np.minimum(p_ts + foff[upos], fend[upos])
            pos = np.searchsorted(s_shift, q, side="right") - 1
            ok = u_match & (pos >= 0) & (s_u[np.maximum(pos, 0)] == p_u)
            vals = s_ts[np.maximum(pos, 0)]
        signup = pc.if_else(
            pa.array(ok),
            pa.array(np.where(ok, vals, 0), pa.timestamp("us")),
            pa.scalar(None, pa.timestamp("us")),
        )
        return pa.table(
            {
                "event_id": part["event_id"].take(li),
                "user_id": part["user_id"].take(li),
                "signup_ts": signup,
            },
            schema=out_schema,
        )

    res = partitioned_map_groups(_userpart(ds, num_partitions_default()), asof)
    parts = list(res.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(parts).sort_by("event_id")


def oracle_events_asof_signup() -> str:
    return """
SELECT p.event_id, p.user_id,
       MAX(s.ts) AS signup_ts
FROM events p
LEFT JOIN events s
  ON s.user_id = p.user_id AND s.event_type = 'signup' AND s.ts <= p.ts
WHERE p.event_type = 'purchase'
GROUP BY p.event_id, p.user_id
ORDER BY p.event_id
"""


RANGE_LABELS = [(0.0, 10.0, "low"), (10.0, 25.0, "mid"), (25.0, 50.0, "high")]


def events_range_join(sf_dir: str) -> pa.Table:
    """RANGE JOIN: label every event by the value band containing it —
    the broadcast non-equi join pattern: the small side (band table) is a
    constant broadcast, the probe is a vectorized searchsorted against
    the band edges per batch.  No shuffle at all; at 10^12 rows this is
    the only sane plan for small-side range joins."""
    import numpy as np
    import pyarrow.compute as pc
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "value"]
    )
    los = np.array([lo for lo, _, _ in RANGE_LABELS])
    his = np.array([hi for _, hi, _ in RANGE_LABELS])
    labels = np.array([lab for _, _, lab in RANGE_LABELS])

    def probe(batch: pa.Table) -> pa.Table:
        v = batch["value"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(los, v, side="right") - 1
        idx_c = np.maximum(idx, 0)
        ok = (idx >= 0) & (v < his[idx_c])
        lab = np.where(ok, labels[idx_c], "other")
        return pa.table(
            {
                "event_id": batch["event_id"],
                "value_r": pc.round(batch["value"], 6),
                "band": pa.array(lab.tolist(), pa.string()),
            }
        )

    parts = list(
        ds.map_batches(probe, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    return pa.concat_tables(parts).sort_by("event_id")


def oracle_events_range_join() -> str:
    bands = ", ".join(f"({lo}, {hi}, '{lab}')" for lo, hi, lab in RANGE_LABELS)
    return f"""
WITH bands(lo, hi, lab) AS (VALUES {bands})
SELECT e.event_id, ROUND(e.value, 6) AS value_r,
       COALESCE(b.lab, 'other') AS band
FROM events e
LEFT JOIN bands b ON e.value >= b.lo AND e.value < b.hi
ORDER BY e.event_id
"""


HLL_P = 12  # 4096 registers, ~1.6% standard error


def _hll_registers(user_ids, p: int = HLL_P):
    """HyperLogLog registers for a batch of ids (Flajolet et al. 2007):
    64-bit hash -> first p bits pick the register, rank of the remaining
    bits' leading zeros updates it.  Vectorized numpy; merge = max."""
    import numpy as np

    h = (user_ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) ^ np.uint64(
        0xBF58476D1CE4E5B9
    )
    h ^= h >> np.uint64(31)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(29)
    m = 1 << p
    reg_idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64(1 << (p - 1))  # sentinel stops the count
    # leading-zero count of `rest` + 1 == rank
    lz = np.zeros(rest.size, dtype=np.int64)
    cur = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = cur < (np.uint64(1) << np.uint64(64 - shift))
        lz[mask] += shift
        cur[mask] = cur[mask] << np.uint64(shift)
    rank = lz + 1
    regs = np.zeros(m, dtype=np.int8)
    np.maximum.at(regs, reg_idx, rank.astype(np.int8))
    return regs


def _hll_estimate(regs) -> float:
    import numpy as np

    m = regs.size
    est = (0.7213 / (1 + 1.079 / m)) * m * m / np.sum(2.0 ** -regs.astype(np.float64))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # small-range correction
    return float(est)


def events_hll_users(sf_dir: str) -> pa.Table:
    """Approximate distinct users per event type via a HyperLogLog sketch:
    each batch reduces to (event_type, 4096-byte register array) partials,
    the driver merges by elementwise max — constant-size state per key
    regardless of corpus size, the canonical distributed distinct-count
    sketch.  Rows-only gate (approximate); accuracy vs exact is asserted
    in tests."""
    import numpy as np
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        types, regs = [], []
        for t in np.unique(et):
            types.append(str(t))
            regs.append(_hll_registers(uid[et == t]).tobytes())
        return pa.table(
            {"event_type": pa.array(types, pa.string()), "regs": pa.array(regs, pa.binary())}
        )

    merged: dict = {}
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for t, r in zip(b["event_type"].to_pylist(), b["regs"].to_pylist()):
            regs = np.frombuffer(r, dtype=np.int8)
            cur = merged.get(t)
            merged[t] = regs if cur is None else np.maximum(cur, regs)
    rows = sorted((t, int(round(_hll_estimate(r)))) for t, r in merged.items())
    return pa.table(
        {
            "event_type": pa.array([t for t, _ in rows], pa.string()),
            "approx_users": pa.array([n for _, n in rows], pa.int64()),
        }
    )


SESSION_GAP_US = 12 * 3_600_000_000  # 12-hour inactivity gap


def events_sessionize(sf_dir: str, gap_us: int = SESSION_GAP_US) -> pa.Table:
    """Gap-based sessionization: a user's events split into sessions
    wherever consecutive inter-event time exceeds ``gap_us``; returns
    per-session summaries (count, start, end).

    The classic stateful-streaming operator expressed Ray-Data-first:
    one groupby(user_id) shuffle, then a fully vectorized per-group
    sort + diff + cumsum inside ``map_groups`` (no driver state, no
    Python loop).  Partitioning assumption: one user's history fits a
    worker — holds at 100 TB because sessions derive from per-user
    event streams, which are individually small; a pathological single
    hot user would need a two-level (user, day) pre-split."""
    import numpy as np
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )

    def sessions(part: pa.Table) -> pa.Table:
        # ALL users of the partition: one (user, ts, event_id) sort;
        # session breaks = user change OR gap exceeded; per-session rows
        # from boundary arithmetic, per-user session numbering from a
        # first-segment-of-user subtraction — no per-user Python call
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        ts = part["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = part["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u_s, ts_s = uid[order], ts[order]
        n = u_s.size
        new_user = np.concatenate(([True], u_s[1:] != u_s[:-1]))
        brk = new_user | np.concatenate(([True], np.diff(ts_s) > gap_us))
        lo = np.flatnonzero(brk)
        hi = np.concatenate((lo[1:], [n]))
        seg_user = u_s[lo]
        # session_id = segment index − index of the user's first segment
        user_first_seg = np.concatenate(([0], np.flatnonzero(new_user[lo][1:]) + 1))
        seg_of_user = np.cumsum(new_user[lo]) - 1
        sid = np.arange(lo.size) - user_first_seg[seg_of_user]
        return pa.table(
            {
                "user_id": pa.array(seg_user, pa.int64()),
                "session_id": pa.array(sid, pa.int64()),
                "n_events": pa.array(hi - lo, pa.int64()),
                "session_start": pa.array(ts_s[lo], pa.timestamp("us")),
                "session_end": pa.array(ts_s[hi - 1], pa.timestamp("us")),
            }
        )

    from .partition import num_partitions_default, partitioned_map_groups

    out = partitioned_map_groups(_userpart(ds, num_partitions_default()), sessions)
    return pa.concat_tables(
        out.iter_batches(batch_format="pyarrow", batch_size=None)
    ).sort_by([("user_id", "ascending"), ("session_id", "ascending")])


def oracle_events_sessionize() -> str:
    return """
WITH e AS (SELECT user_id, event_id, ts,
    CASE WHEN lag(ts) OVER w IS NULL
              OR ts - lag(ts) OVER w > INTERVAL 12 HOUR
         THEN 1 ELSE 0 END AS brk
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
s AS (SELECT user_id, ts,
        sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) - 1 AS session_id
      FROM e)
SELECT user_id, CAST(session_id AS BIGINT) AS session_id,
       CAST(count(*) AS BIGINT) AS n_events,
       min(ts) AS session_start, max(ts) AS session_end
FROM s GROUP BY user_id, session_id ORDER BY user_id, session_id
"""


FUNNEL_WINDOW_US = 7 * 24 * 3_600_000_000  # 7-day conversion window


def events_funnel(sf_dir: str, window_us: int = FUNNEL_WINDOW_US) -> pa.Table:
    """Ordered conversion funnel: per user, the first 'signup' event and
    the first 'purchase' STRICTLY AFTER it within the window; emits the
    conversion delay as exact integer microseconds.

    Sequential-pattern detection as one groupby(user_id) +
    vectorized per-group mins — the ordering constraint ('purchase
    after signup') that window functions express in SQL is a plain
    boolean mask on the user's own events.  Same partitioning
    assumption as sessionization: one user's history per worker."""
    import numpy as np
    import ray.data

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "event_type", "ts"],
    )

    def funnel(part: pa.Table) -> pa.Table:
        # ALL users of the partition: first signup per user from a
        # (user, ts) sort + segment boundaries; each purchase looks up
        # its user's s0 by binary search, window-filters, and the first
        # surviving purchase per user (still (user, ts)-sorted) is the
        # conversion — no per-user Python call
        empty = pa.table(
            {
                "user_id": pa.array([], pa.int64()),
                "signup_ts": pa.array([], pa.timestamp("us")),
                "first_purchase": pa.array([], pa.timestamp("us")),
                "convert_us": pa.array([], pa.int64()),
            }
        )
        et = part["event_type"].to_numpy(zero_copy_only=False)
        ts = part["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        sm = et == "signup"
        if not sm.any():
            return empty
        s_u, s_ts = uid[sm], ts[sm]
        so = np.lexsort((s_ts, s_u))
        s_u, s_ts = s_u[so], s_ts[so]
        first = np.concatenate(([True], s_u[1:] != s_u[:-1]))
        fu, fs0 = s_u[first], s_ts[first]  # per-user first signup
        pm = et == "purchase"
        p_u, p_ts = uid[pm], ts[pm]
        if p_u.size == 0:
            return empty
        upos = np.minimum(np.searchsorted(fu, p_u), fu.size - 1)
        s0 = fs0[upos]
        keep = (fu[upos] == p_u) & (p_ts > s0) & (p_ts <= s0 + window_us)
        if not keep.any():
            return empty
        k_u, k_ts, k_s0 = p_u[keep], p_ts[keep], s0[keep]
        ko = np.lexsort((k_ts, k_u))
        k_u, k_ts, k_s0 = k_u[ko], k_ts[ko], k_s0[ko]
        kfirst = np.concatenate(([True], k_u[1:] != k_u[:-1]))
        return pa.table(
            {
                "user_id": pa.array(k_u[kfirst], pa.int64()),
                "signup_ts": pa.array(k_s0[kfirst], pa.timestamp("us")),
                "first_purchase": pa.array(k_ts[kfirst], pa.timestamp("us")),
                "convert_us": pa.array(k_ts[kfirst] - k_s0[kfirst], pa.int64()),
            }
        )

    from .partition import num_partitions_default, partitioned_map_groups

    out = partitioned_map_groups(_userpart(ds, num_partitions_default()), funnel)
    return pa.concat_tables(
        out.iter_batches(batch_format="pyarrow", batch_size=None)
    ).sort_by("user_id")


def oracle_events_funnel() -> str:
    return """
WITH s AS (SELECT user_id, min(ts) AS signup_ts FROM events
           WHERE event_type = 'signup' GROUP BY user_id),
p AS (SELECT e.user_id, min(e.ts) AS first_purchase
      FROM events e JOIN s USING (user_id)
      WHERE e.event_type = 'purchase'
        AND e.ts > s.signup_ts
        AND e.ts <= s.signup_ts + INTERVAL 7 DAY
      GROUP BY e.user_id)
SELECT s.user_id, s.signup_ts, p.first_purchase,
       CAST(date_sub('microsecond', s.signup_ts, p.first_purchase) AS BIGINT)
         AS convert_us
FROM s JOIN p USING (user_id) ORDER BY s.user_id
"""
