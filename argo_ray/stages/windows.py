"""Stream-shaped operators over the events table.

Ray Data has no event-time windows; per the streaming-batch pattern the
input is treated as a partitioned log: tumbling windows are a derived
window-start column + pre-aggregated groupby; sessionization sorts each
key partition by time inside ``map_groups``.  Oracle SQL expresses both
(date_trunc / window functions), so they are value-checked.

Money-ish sums are carried as integer cents so the Ray and DuckDB sums
are exactly equal (no float summation-order noise).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .grouping import exchange


def tumbling_window_agg(events_ds, every: str = "hour"):
    """count + integer-cents sum of ``value`` per (event_type, window).

    Shuffle discipline: partial aggregates per batch first (one row per
    key per batch), then the groupby runs over partials — shuffle volume
    is keys×batches, not rows.
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(["ts", "event_type", "value"]).to_pandas()
        df["window_start"] = df["ts"].dt.floor("h" if every == "hour" else every)
        # floor, not round: DuckDB round() is half-away-from-zero while
        # numpy rounds half-to-even; floor is identical in both engines
        df["value_cents"] = np.floor(df["value"].to_numpy() * 100).astype(np.int64)
        agg = (
            df.groupby(["event_type", "window_start"], sort=False)
            .agg(partial_n=("value_cents", "size"), partial_cents=("value_cents", "sum"))
            .reset_index()
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    out = (
        events_ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(
            Sum("partial_n", alias_name="n_events"),
            Sum("partial_cents", alias_name="sum_value_cents"),
        )
    )
    return out


def sessionize(events_ds, gap_minutes: int = 30):
    """Sessions per user: events sorted by ts within the user partition;
    a gap > ``gap_minutes`` starts a new session.  → (user_id,
    n_sessions, n_events).

    Fully vectorized: sort co-locates each user's rows in one block
    (range partition on user_id), then one pandas pass per block — a
    session starts at every user change or over-gap diff; per-user
    counts come from a C-level groupby, never per-group Python (the
    pattern that survives millions of users).
    """
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "n_sessions": pd.Series([], dtype="int64"),
                    "n_events": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts"], kind="mergesort")
        new_user = df["user_id"].ne(df["user_id"].shift())
        over_gap = df["ts"].diff() > gap
        starts = (new_user | over_gap).astype("int64")
        out = (
            df.assign(_s=starts)
            .groupby("user_id", sort=False)
            .agg(n_sessions=("_s", "sum"), n_events=("_s", "size"))
            .reset_index()
        )
        return out.astype(
            {"user_id": "int64", "n_sessions": "int64", "n_events": "int64"}
        )

    return exchange(
        events_ds.select_columns(["user_id", "ts"]), "user_id", per_block,
        batch_format="pandas",
    )


def asof_join_events(events_ds, left_type: str, right_type: str):
    """As-of join (custom operator — absent in both the reference and
    Ray Data): each ``left_type`` event matched to the most recent
    strictly-earlier ``right_type`` event of the same user.

    Physical plan: partition by ``user_id`` (the equi-key) via the
    range-partition ``grouped_map``, then ``pd.merge_asof`` over the
    time-sorted group — the documented partitioning assumption is that
    one user's history fits one group.  Ties on ts resolve to the
    largest event_id (right side sorted by (ts, event_id); merge_asof
    takes the last qualifying row), matching the oracle's
    ``ORDER BY ts DESC, event_id DESC`` pick.
    """
    from .grouping import grouped_map

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["event_type"] == left_type].sort_values("ts")
        right = g[g["event_type"] == right_type].sort_values(
            ["ts", "event_id"]
        )
        if left.empty or right.empty:
            return pd.DataFrame(
                {
                    "left_id": pd.Series([], dtype="int64"),
                    "right_id": pd.Series([], dtype="int64"),
                }
            )
        m = pd.merge_asof(
            left[["event_id", "ts"]],
            right[["event_id", "ts"]].rename(columns={"event_id": "right_id"}),
            on="ts",
            direction="backward",
            allow_exact_matches=False,
        ).dropna(subset=["right_id"])
        return pd.DataFrame(
            {
                "left_id": m["event_id"].astype("int64"),
                "right_id": m["right_id"].astype("int64"),
            }
        )

    return grouped_map(
        events_ds.select_columns(["event_id", "ts", "user_id", "event_type"]),
        "user_id",
        per_user,
    )


def range_join_events(
    events_ds, left_type: str, right_type: str, window_minutes: int = 30
):
    """Range join (custom operator): all (left, right) same-user pairs
    with ``left.ts - window < right.ts < left.ts``.

    Same partitioning assumption as the as-of join (one user per
    group); within a group the pairing is a vectorized double
    ``searchsorted`` over the time-sorted right side — no per-pair
    Python loop.
    """
    import numpy as np

    from .grouping import grouped_map

    window = pd.Timedelta(minutes=window_minutes)

    def per_user(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["event_type"] == left_type].sort_values("ts")
        right = g[g["event_type"] == right_type].sort_values(["ts", "event_id"])
        empty = pd.DataFrame(
            {
                "left_id": pd.Series([], dtype="int64"),
                "right_id": pd.Series([], dtype="int64"),
            }
        )
        if left.empty or right.empty:
            return empty
        rts = right["ts"].to_numpy()
        rid = right["event_id"].to_numpy()
        lo = np.searchsorted(rts, (left["ts"] - window).to_numpy(), side="right")
        hi = np.searchsorted(rts, left["ts"].to_numpy(), side="left")
        counts = hi - lo
        if counts.sum() == 0:
            return empty
        lids = np.repeat(left["event_id"].to_numpy(), counts)
        rix = np.concatenate([np.arange(a, b) for a, b in zip(lo, hi) if b > a])
        return pd.DataFrame(
            {
                "left_id": lids.astype("int64"),
                "right_id": rid[rix].astype("int64"),
            }
        )

    return grouped_map(
        events_ds.select_columns(["event_id", "ts", "user_id", "event_type"]),
        "user_id",
        per_user,
    )


def sliding_window_count(events_ds, size_minutes: int = 60, slide_minutes: int = 30):
    """Sliding windows via flat-map into the (size/slide) overlapping
    window starts each event belongs to, then the same partial→global
    aggregation as tumbling windows."""
    from ray.data.aggregate import Sum

    n_overlap = size_minutes // slide_minutes

    def explode(batch: pa.Table) -> pa.Table:
        df = batch.select(["ts", "event_type"]).to_pandas()
        frames = []
        base = df["ts"].dt.floor(f"{slide_minutes}min")
        for i in range(n_overlap):
            f = pd.DataFrame(
                {
                    "event_type": df["event_type"],
                    "window_start": base - pd.Timedelta(minutes=slide_minutes * i),
                }
            )
            frames.append(f)
        all_rows = pd.concat(frames, ignore_index=True)
        agg = (
            all_rows.groupby(["event_type", "window_start"], sort=False)
            .size()
            .rename("partial_n")
            .reset_index()
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    return (
        events_ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .aggregate(Sum("partial_n", alias_name="n_events"))
    )


def distinct_users_per_type(events_ds):
    """Exact COUNT(DISTINCT user_id) per event_type in TWO bounded
    exchanges: per-batch DISTINCT (event_type, user_id) pairs (the
    combiner — shuffle volume is distinct pairs per batch, not rows),
    one groupby over the pair set to finish the distinct, then a tiny
    per-type count.  The exact-counting sibling of an HLL sketch; at
    100 TB the pair exchange is bounded by |types|×|users|, and a
    same-keyed salt can shard a hot type if |users| itself explodes."""
    from ray.data.aggregate import Sum

    def pairs(batch: pa.Table) -> pa.Table:
        distinct = (
            batch.select(["event_type", "user_id"])
            .group_by(["event_type", "user_id"])
            .aggregate([])
        )
        return distinct.append_column(
            "one", pa.array(np.ones(len(distinct), dtype=np.int64))
        )

    distinct_pairs = (
        events_ds.map_batches(pairs, batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Sum("one", alias_name="n_batches"))
    )

    def ones(batch: pa.Table) -> pa.Table:
        counted = batch.group_by("event_type").aggregate([("user_id", "count")])
        return pa.table(
            {
                "event_type": pc.cast(counted["event_type"], pa.string()),
                "part": pc.cast(counted["user_id_count"], pa.int64()),
            }
        )

    return (
        distinct_pairs.map_batches(ones, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("part", alias_name="n_users"))
    )


def value_quantiles_cents(events_ds, qs=(0.5, 0.9, 0.99)):
    """Exact distributed quantiles of ``floor(value*100)`` (integer
    cents) via mergeable per-batch value histograms — the classic
    two-pass alternative to sorting the whole column:

    1. per batch: (cents, count) partials — shuffle volume is distinct
       cents values per batch, never rows;
    2. one groupby(cents).sum, then the (small) histogram is collected,
       cumulated and indexed on the driver — quantile q = smallest
       cents value whose running count reaches ``ceil(q * n)``
       (the lower interpolation, matching DuckDB's
       ``quantile_disc``).

    Exact (no sketch error); bounded by the value domain, not the row
    count.  For unbounded/continuous domains the same shape works with
    fixed-width bins (then it IS an approximate quantile sketch)."""
    import math

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        cents = np.floor(np.asarray(batch["value"], dtype=np.float64) * 100).astype(
            np.int64
        )
        vals, counts = np.unique(cents, return_counts=True)
        return pa.table(
            {
                "cents": pa.array(vals, pa.int64()),
                "part": pa.array(counts, pa.int64()),
            }
        )

    hist = (
        events_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("cents")
        .aggregate(Sum("part", alias_name="n"))
        .sort("cents")
        .take_all()
    )
    values = np.array([r["cents"] for r in hist], dtype=np.int64)
    counts = np.array([r["n"] for r in hist], dtype=np.int64)
    cum = np.cumsum(counts)
    total = int(cum[-1]) if len(cum) else 0
    if total == 0:
        return pa.table(
            {"q": pa.array([], pa.string()), "cents": pa.array([], pa.int64())}
        )
    rows = []
    for q in qs:
        rank = max(1, math.ceil(q * total))
        idx = int(np.searchsorted(cum, rank))
        rows.append({"q": f"{q:g}", "cents": int(values[idx])})
    return pa.table(
        {
            "q": pa.array([r["q"] for r in rows], pa.string()),
            "cents": pa.array([r["cents"] for r in rows], pa.int64()),
        }
    )


def value_quantiles_by_group(events_ds, group_col: str = "event_type", qs=(0.5, 0.9)):
    """Per-group exact quantiles of ``floor(value*100)`` — the grouped
    variant of :func:`value_quantiles_cents`: partial (group, cents,
    count) histograms per batch, one groupby, per-group cumulative
    index on the driver (bounded by groups × distinct cents values)."""
    import math

    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, "value"]).to_pandas()
        df["cents"] = np.floor(df["value"].to_numpy() * 100).astype(np.int64)
        agg = (
            df.groupby([group_col, "cents"], sort=False)
            .size()
            .rename("part")
            .reset_index()
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    hist = (
        events_ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group_col, "cents"])
        .aggregate(Sum("part", alias_name="n"))
        .sort([group_col, "cents"])
        .take_all()
    )
    out_g, out_q, out_c = [], [], []
    i = 0
    while i < len(hist):
        g = hist[i][group_col]
        vals, counts = [], []
        while i < len(hist) and hist[i][group_col] == g:
            vals.append(int(hist[i]["cents"]))
            counts.append(int(hist[i]["n"]))
            i += 1
        cum = np.cumsum(counts)
        total = int(cum[-1])
        for q in qs:
            rank = max(1, math.ceil(q * total))
            out_g.append(g)
            out_q.append(f"{q:g}")
            out_c.append(vals[int(np.searchsorted(cum, rank))])
    return pa.table(
        {
            group_col: pa.array(out_g, pa.string()),
            "q": pa.array(out_q, pa.string()),
            "cents": pa.array(out_c, pa.int64()),
        }
    )


def value_quantiles_by_group_binned(
    events_ds,
    group_col: str = "event_type",
    qs=(0.5, 0.9),
    bins: int = 4096,
    lo: float = 0.0,
    hi: float = 1024.0,
):
    """Bounded-memory approximate per-group quantiles — the mergeable
    fixed-width-histogram fallback to :func:`value_quantiles_by_group`
    for UNBOUNDED / continuous value domains.

    The exact path's driver cumulation is bounded by groups × distinct
    values — fine for integer cents, unbounded for arbitrary floats.
    Here every batch emits counts over ``bins`` fixed-width bins per
    group (``bin = clip(floor((v-lo)/width), 0, bins-1)``), one
    groupby sums the mergeable partials, and the driver cumulates over
    ≤ groups × bins rows — the memory bound is CHOSEN (``bins``), not
    data-dependent.  Quantile q reports the UPPER edge of the bin
    holding rank ``ceil(q·n)``: error ≤ one bin width = (hi-lo)/bins.
    Values outside [lo, hi) clamp into the edge bins (their quantiles
    saturate at the range edges — pick lo/hi from domain knowledge or a
    prior min/max pass).  Default width 0.25 (1024/4096) is an exact
    binary fraction so the float arithmetic reproduces bit-for-bit in
    any engine (the DuckDB oracle does the same multiply)."""
    import math

    from ray.data.aggregate import Sum

    width = (hi - lo) / bins

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, "value"]).to_pandas()
        b = np.floor((df["value"].to_numpy(np.float64) - lo) / width)
        df["bin"] = np.clip(b, 0, bins - 1).astype(np.int64)
        agg = (
            df.groupby([group_col, "bin"], sort=False)
            .size()
            .rename("part")
            .reset_index()
        )
        return pa.Table.from_pandas(agg, preserve_index=False)

    hist = (
        events_ds.map_batches(partial, batch_format="pyarrow")
        .groupby([group_col, "bin"])
        .aggregate(Sum("part", alias_name="n"))
        .sort([group_col, "bin"])
        .take_all()
    )
    out_g, out_q, out_v = [], [], []
    i = 0
    while i < len(hist):
        g = hist[i][group_col]
        edges, counts = [], []
        while i < len(hist) and hist[i][group_col] == g:
            edges.append(int(hist[i]["bin"]))
            counts.append(int(hist[i]["n"]))
            i += 1
        cum = np.cumsum(counts)
        total = int(cum[-1])
        for q in qs:
            rank = max(1, math.ceil(q * total))
            b = edges[int(np.searchsorted(cum, rank))]
            out_g.append(g)
            out_q.append(f"{q:g}")
            out_v.append(lo + (b + 1) * width)
    return pa.table(
        {
            group_col: pa.array(out_g, pa.string()),
            "q": pa.array(out_q, pa.string()),
            "value_ub": pa.array(out_v, pa.float64()),
        }
    )


def funnel(events_ds, steps=("view", "click", "signup")):
    """Ordered funnel per user: step i completes at the EARLIEST event
    of its type STRICTLY AFTER step i-1's completion time (step 1 at
    the user's earliest event of its type) → (user_id,
    steps_completed, t1..tk, nullable timestamps).

    Same partitioning contract as :func:`sessionize`: one sort
    co-locates each user's events, then every step is a C-level
    filtered groupby-min per block — len(steps) vectorized passes, no
    per-user Python."""

    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        cols = {"user_id": pd.Series([], dtype="int64"),
                "steps_completed": pd.Series([], dtype="int64")}
        for i in range(1, len(steps) + 1):
            cols[f"t{i}"] = pd.Series([], dtype="datetime64[us]")
        if df.empty:
            return pd.DataFrame(cols)
        out = pd.DataFrame(
            index=pd.Index(np.sort(df["user_id"].unique()), name="user_id")
        )
        prev_t = pd.Series(pd.Timestamp.min, index=out.index)
        for i, step in enumerate(steps, 1):
            sub = df[df["event_type"] == step]
            floor = sub["user_id"].map(prev_t)
            ok = sub[floor.notna() & (sub["ts"] > floor)]
            out[f"t{i}"] = ok.groupby("user_id", sort=False)["ts"].min()
            prev_t = out[f"t{i}"]
        tcols = [f"t{i}" for i in range(1, len(steps) + 1)]
        # a missed step blocks all later ones by construction, so the
        # notna count IS the completed prefix length
        out["steps_completed"] = out[tcols].notna().sum(axis=1).astype("int64")
        out = out.reset_index()
        return out[["user_id", "steps_completed", *tcols]]

    return exchange(
        events_ds.select_columns(["user_id", "ts", "event_type"]),
        "user_id", per_block, batch_format="pandas",
    )


def retention_cohorts(events_ds):
    """Day-grain retention matrix: cohort = day of the user's FIRST
    event; one output row per (cohort_day, day_offset) with the count
    of distinct users from that cohort active that day.

    Plan: one sort co-locates each user's events (whole user per
    block), so the first-event cohort is an in-block groupby-min and
    the per-cell user sets are locally EXACT — the global exchange is
    only the (cohort, offset) groupby over pre-deduplicated
    (cohort, offset, user) rows."""
    from ray.data.aggregate import Count

    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "cohort_day": pd.Series([], dtype="datetime64[us]"),
                    "day_offset": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                }
            )
        cohort = (
            df.groupby("user_id", sort=False)["ts"].transform("min").dt.floor("D")
        )
        offset = (df["ts"].dt.floor("D") - cohort).dt.days.astype("int64")
        out = pd.DataFrame(
            {
                "cohort_day": cohort,
                "day_offset": offset,
                "user_id": df["user_id"].astype("int64"),
            }
        ).drop_duplicates()  # whole user in this block → locally exact
        return out

    cells = exchange(
        events_ds.select_columns(["user_id", "ts"]), "user_id", per_block,
        batch_format="pandas",
    )
    return cells.groupby(["cohort_day", "day_offset"]).aggregate(
        Count(alias_name="n_users")
    )


def late_events(events_ds, allowed_lateness_minutes: int = 10):
    """Streaming-semantics late-event detection: replaying each user's
    stream in ARRIVAL order (event_id), an event is LATE when the
    watermark — the max event time seen strictly before it — already
    exceeds its timestamp by more than the allowed lateness.  Returns
    the late events only: (event_id, user_id, ts, watermark_ts).

    Same partitioning contract as sessionize: one sort co-locates each
    user's events; the watermark is a C-level per-user shifted cummax,
    no per-event Python."""
    lateness = pd.Timedelta(minutes=allowed_lateness_minutes)

    def per_block(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "ts": pd.Series([], dtype="datetime64[us]"),
                "watermark_ts": pd.Series([], dtype="datetime64[us]"),
            }
        )
        if df.empty:
            return empty
        df = df.sort_values(["user_id", "event_id"], kind="mergesort")
        # per-user shifted cummax without per-group Python: C-level
        # groupby cummax, one global shift, first-row-of-user masked
        wm = df.groupby("user_id", sort=False)["ts"].cummax().shift()
        wm[df["user_id"].ne(df["user_id"].shift())] = pd.NaT
        late = wm.notna() & (wm > df["ts"] + lateness)
        out = df.loc[late, ["event_id", "user_id", "ts"]].copy()
        out["watermark_ts"] = wm[late]
        return out.astype(
            {
                "event_id": "int64",
                "user_id": "int64",
                "ts": "datetime64[us]",
                "watermark_ts": "datetime64[us]",
            }
        )

    return exchange(
        events_ds.select_columns(["event_id", "user_id", "ts"]), "user_id",
        per_block, batch_format="pandas",
    )
