"""gap_sessions / interval_join — exactness vs in-memory pandas
references, boundary semantics, bucket-replication invariants."""

import numpy as np
import pandas as pd
import pyarrow as pa

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
    gap_sessions,
    interval_join,
)


def _ds(ray_session, df: pd.DataFrame, blocks: int = 3):
    import ray.data

    return ray.data.from_pandas(df).repartition(blocks)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _events(rng, n=300, users=7):
    ts = pd.Timestamp("2024-01-01") + pd.to_timedelta(
        rng.integers(0, 6 * 86400, n), unit="s"
    )
    return pd.DataFrame({
        "user_id": rng.integers(0, users, n).astype(np.int64),
        "ts": ts.astype("datetime64[us]"),
        "event_id": np.arange(n, dtype=np.int64),
    })


def _sessions_ref(ev: pd.DataFrame, gap_s: float) -> pd.DataFrame:
    ev = ev.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    prev = ev.groupby("user_id")["ts"].shift(1)
    brk = (prev.isna()
           | (ev["ts"] - prev > pd.Timedelta(seconds=gap_s))).astype("int64")
    sid = brk.groupby(ev["user_id"]).cumsum()
    out = (ev.assign(session_id=sid)
           .groupby(["user_id", "session_id"])
           .agg(session_start=("ts", "min"), session_end=("ts", "max"),
                n_events=("event_id", "size"))
           .reset_index())
    out["n_events"] = out["n_events"].astype("int64")
    return out


def test_gap_sessions_matches_pandas(ray_session):
    ev = _events(np.random.default_rng(11))
    got = gap_sessions(_ds(ray_session, ev), "user_id", "ts", 3600.0,
                       "event_id").to_pandas()
    pd.testing.assert_frame_equal(_sorted(got),
                                  _sorted(_sessions_ref(ev, 3600.0)))


def test_gap_sessions_boundary_gap_not_a_break(ray_session):
    # a gap EXACTLY equal to gap_seconds stays in the same session
    # (break requires strictly greater)
    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 01:00:00",
         "2024-01-01 02:00:01"]).astype("datetime64[us]")
    ev = pd.DataFrame({"user_id": [1, 1, 1], "ts": ts,
                       "event_id": [0, 1, 2]})
    got = gap_sessions(_ds(ray_session, ev, 2), "user_id", "ts", 3600.0,
                       "event_id").to_pandas()
    got = got.sort_values("session_id").reset_index(drop=True)
    assert got["session_id"].tolist() == [1, 2]
    assert got["n_events"].tolist() == [2, 1]


def test_gap_sessions_partition_independent(ray_session, fixed_partitions):
    ev = _events(np.random.default_rng(5), n=120, users=3)
    fixed_partitions(1)
    a = gap_sessions(_ds(ray_session, ev, 1), "user_id", "ts", 1800.0,
                     "event_id").to_pandas()
    fixed_partitions(7)
    b = gap_sessions(_ds(ray_session, ev, 6), "user_id", "ts", 1800.0,
                     "event_id").to_pandas()
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))


def test_gap_sessions_emit_events_annotates_rows(ray_session):
    ev = _events(np.random.default_rng(17), n=150, users=4)
    got = gap_sessions(_ds(ray_session, ev), "user_id", "ts", 3600.0,
                       "event_id",
                       emit="events").to_pandas()
    assert len(got) == len(ev)
    # per-event ids must aggregate to exactly the session rows
    agg = (got.groupby(["user_id", "session_id"])
           .agg(session_start=("ts", "min"), session_end=("ts", "max"),
                n_events=("event_id", "size")).reset_index())
    agg["n_events"] = agg["n_events"].astype("int64")
    pd.testing.assert_frame_equal(_sorted(agg),
                                  _sorted(_sessions_ref(ev, 3600.0)))


def test_gap_sessions_rejects_bad_emit(ray_session):
    import pytest

    ev = _events(np.random.default_rng(1), n=10, users=2)
    with pytest.raises(ValueError):
        gap_sessions(_ds(ray_session, ev), "user_id", "ts", 60.0,
                     "event_id", emit="rows")


def _intervals(rng, n, width_s, tag):
    st = pd.Timestamp("2024-01-01") + pd.to_timedelta(
        rng.integers(0, 86400, n), unit="s"
    )
    en = st + pd.to_timedelta(rng.integers(0, width_s, n), unit="s")
    return pd.DataFrame({
        "st": st.astype("datetime64[us]"),
        "en": en.astype("datetime64[us]"),
        tag: np.arange(n, dtype=np.int64),
    })


def _overlap_ref(left: pd.DataFrame, right: pd.DataFrame,
                 suffix: str = "_b") -> pd.DataFrame:
    l = left.assign(__k=1)
    r = right.add_suffix(suffix).assign(__k=1)
    m = l.merge(r, on="__k").drop(columns="__k")
    m = m[(m["st"] <= m["en" + suffix]) & (m["st" + suffix] <= m["en"])]
    return m.reset_index(drop=True)


def test_interval_join_matches_all_pairs_reference(ray_session):
    rng = np.random.default_rng(7)
    left = _intervals(rng, 80, 7200, "lid")
    right = _intervals(rng, 40, 5400, "rid")
    got = interval_join(
        _ds(ray_session, left), _ds(ray_session, right, 2), "st", "en",
        left_cols=["st", "en", "lid"], right_cols=["st", "en", "rid"],
        bucket_seconds=3600.0).to_pandas()
    exp = _overlap_ref(left, right)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(exp))


def test_interval_join_no_duplicate_pairs_across_buckets(ray_session):
    # intervals spanning MANY buckets must still emit each pair once
    rng = np.random.default_rng(13)
    left = _intervals(rng, 30, 6 * 3600, "lid")
    right = _intervals(rng, 30, 6 * 3600, "rid")
    got = interval_join(
        _ds(ray_session, left), _ds(ray_session, right), "st", "en",
        left_cols=["st", "en", "lid"], right_cols=["st", "en", "rid"],
        bucket_seconds=600.0).to_pandas()
    assert not got.duplicated(["lid", "rid_b"]).any()
    exp = _overlap_ref(left, right)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(exp))


def test_interval_join_no_overlap_is_empty_with_the_output_schema(ray_session):
    # one point interval a side, one second apart, each repartitioned
    # into a 1-row and an empty (column-less) pandas block
    base = pd.Timestamp("2024-01-01")

    def point(tag, seconds):
        ts = pd.Series([base + pd.Timedelta(seconds=seconds)]).astype(
            "datetime64[us]")
        return pd.DataFrame({"st": ts, "en": ts,
                             tag: np.array([0], dtype=np.int64)})

    got = interval_join(
        _ds(ray_session, point("lid", 0), 2),
        _ds(ray_session, point("rid", 1), 2), "st", "en",
        left_cols=["st", "en", "lid"], right_cols=["st", "en", "rid"],
        bucket_seconds=600.0).materialize()
    assert got.take_all() == []
    assert got.schema().names == ["st", "en", "lid", "st_b", "en_b", "rid_b"]


def test_interval_join_touching_endpoints_inclusive(ray_session):
    # closed intervals: L.en == R.st is an overlap
    base = pd.Timestamp("2024-01-01")
    hr = pd.Timedelta(hours=1)
    us = pd.Timedelta(microseconds=1)
    left = pd.DataFrame({
        "st": pd.Series([base]).astype("datetime64[us]"),
        "en": pd.Series([base + hr]).astype("datetime64[us]"),
        "lid": np.array([0], dtype=np.int64),
    })
    right = pd.DataFrame({
        "st": pd.Series([base + hr, base + hr + us]).astype("datetime64[us]"),
        "en": pd.Series(
            [base + 2 * hr, base + 2 * hr + us]).astype("datetime64[us]"),
        "rid": np.array([0, 1], dtype=np.int64),
    })
    got = interval_join(
        _ds(ray_session, left, 1), _ds(ray_session, right, 1), "st", "en",
        left_cols=["st", "en", "lid"], right_cols=["st", "en", "rid"],
        bucket_seconds=3600.0).to_pandas()
    assert got["rid_b"].tolist() == [0]


def test_interval_join_empty_side_yields_empty(ray_session):
    rng = np.random.default_rng(3)
    left = _intervals(rng, 10, 3600, "lid")
    right = _intervals(rng, 10, 3600, "rid").iloc[:0]
    got = interval_join(
        _ds(ray_session, left), _ds(ray_session, right, 1), "st", "en",
        left_cols=["st", "en", "lid"], right_cols=["st", "en", "rid"],
        bucket_seconds=3600.0)
    # Ray reports no schema for all-empty datasets (to_pandas drops the
    # columns too) — assert emptiness, not the unknowable column list
    assert got.count() == 0


def test_interval_join_numeric_columns(ray_session):
    # numeric (non-timestamp) interval endpoints take the cast branch
    rng = np.random.default_rng(23)
    left = pd.DataFrame({
        "st": rng.uniform(0, 100, 25),
        "en": 0.0, "lid": np.arange(25, dtype=np.int64)})
    left["en"] = left["st"] + rng.uniform(0, 10, 25)
    right = pd.DataFrame({
        "st": rng.uniform(0, 100, 15),
        "en": 0.0, "rid": np.arange(15, dtype=np.int64)})
    right["en"] = right["st"] + rng.uniform(0, 10, 15)
    got = interval_join(
        _ds(ray_session, left), _ds(ray_session, right), "st", "en",
        left_cols=["st", "en", "lid"], right_cols=["st", "en", "rid"],
        bucket_seconds=5.0).to_pandas()
    # reference on the same microsecond-quantized endpoints the engine
    # compares (floats are rounded to integer microseconds internally)
    ql, qr = left.copy(), right.copy()
    for q in (ql, qr):
        q["st"] = (q["st"] * 1e6).round()
        q["en"] = (q["en"] * 1e6).round()
    exp = _overlap_ref(ql, qr)[["lid", "rid_b"]]
    pd.testing.assert_frame_equal(
        _sorted(got[["lid", "rid_b"]]), _sorted(exp))
