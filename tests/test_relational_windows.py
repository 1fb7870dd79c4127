"""grouped_argmax / grouped_regression / fill_gaps / hopping_window_agg —
exactness vs in-memory pandas/numpy references."""

import numpy as np
import pandas as pd

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
    fill_gaps,
    grouped_argmax,
    grouped_regression,
    hopping_window_agg,
)


def _ds(ray_session, df: pd.DataFrame, blocks: int = 3):
    import ray.data

    return ray.data.from_pandas(df).repartition(blocks)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _events(rng, n=200, users=9):
    ts = pd.Timestamp("2024-01-01") + pd.to_timedelta(
        rng.integers(0, 4 * 86400, n), unit="s"
    )
    return pd.DataFrame({
        "user_id": rng.integers(0, users, n).astype(np.int64),
        "event_id": np.arange(n, dtype=np.int64),
        "ts": ts.astype("datetime64[us]"),
        "v": rng.normal(size=n),
    })


def test_grouped_argmax_latest_per_user(ray_session):
    ev = _events(np.random.default_rng(3))
    expected = (
        ev.sort_values(["ts", "event_id"], kind="stable")
        .drop_duplicates(subset=["user_id"], keep="last")
    )
    got = grouped_argmax(_ds(ray_session, ev), ["user_id"],
                         ["ts", "event_id"]).to_pandas()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(expected))


def test_grouped_argmax_tie_broken_by_second_order_col(ray_session):
    df = pd.DataFrame({
        "k": [1, 1, 1],
        "o": [5, 5, 5],
        "tie": [2, 9, 1],
        "payload": ["a", "b", "c"],
    })
    got = grouped_argmax(_ds(ray_session, df, 3), ["k"],
                         ["o", "tie"]).to_pandas()
    assert got["payload"].tolist() == ["b"]


def test_grouped_regression_matches_numpy(ray_session):
    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "g": rng.integers(0, 3, 400).astype(np.int64),
        "x": rng.normal(size=400),
    })
    df["y"] = 2.5 * df["x"] + rng.normal(scale=0.3, size=400) + df["g"]
    got = grouped_regression(_ds(ray_session, df), ["g"], "x", "y").to_pandas()
    for _, row in got.iterrows():
        sub = df[df["g"] == row["g"]]
        slope, intercept = np.polyfit(sub["x"], sub["y"], 1)
        r = np.corrcoef(sub["x"], sub["y"])[0, 1]
        assert abs(row["slope"] - round(slope, 6)) <= 1e-6
        assert abs(row["intercept"] - round(intercept, 6)) <= 1e-6
        assert abs(row["r2"] - round(r * r, 6)) <= 1e-6


def test_grouped_regression_degenerate_constant_x(ray_session):
    df = pd.DataFrame({"g": [1, 1, 1], "x": [2.0, 2.0, 2.0],
                       "y": [1.0, 2.0, 3.0]})
    got = grouped_regression(_ds(ray_session, df, 1), ["g"], "x",
                             "y").to_pandas()
    assert np.isnan(got["slope"].iloc[0]) and np.isnan(got["r2"].iloc[0])


def test_fill_gaps_emits_zero_days(ray_session):
    ev = pd.DataFrame({
        "t": ["a", "a", "b"],
        "ts": pd.to_datetime(
            ["2024-01-01 05:00", "2024-01-04 09:00", "2024-01-02 00:00"]
        ).astype("datetime64[us]"),
    })
    got = fill_gaps(_ds(ray_session, ev, 2), "t", "ts").to_pandas()
    # 2 keys x 4 days, zeros included
    assert len(got) == 8
    assert got["n"].sum() == 3
    a = got[got["t"] == "a"].sort_values("day")
    assert a["n"].tolist() == [1, 0, 0, 1]
    b = got[got["t"] == "b"].sort_values("day")
    assert b["n"].tolist() == [0, 1, 0, 0]


def test_hopping_window_counts_each_event_k_times(ray_session):
    ev = _events(np.random.default_rng(5), n=300)
    hop, size = 3_600_000_000, 2 * 3_600_000_000
    got = hopping_window_agg(
        _ds(ray_session, ev[["user_id", "ts"]]), ["user_id"], "ts",
        size_us=size, hop_us=hop,
    ).to_pandas()
    assert got["n"].sum() == 2 * len(ev)
    # reference: each event in windows floor(ts/hop)-j for j in {0,1}
    us = ev["ts"].astype("int64")
    ref = pd.concat([
        pd.DataFrame({"user_id": ev["user_id"],
                      "w": (us // hop - j) * hop}) for j in (0, 1)
    ]).groupby(["user_id", "w"], as_index=False).size()
    ref["window_start"] = pd.to_datetime(ref["w"], unit="us").astype(
        "datetime64[us]")
    ref = ref.rename(columns={"size": "n"}).drop(columns=["w"])
    ref["n"] = ref["n"].astype(np.int64)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(ref))


def test_hopping_window_rejects_nonmultiple_size(ray_session):
    ev = _events(np.random.default_rng(5), n=10)
    import pytest

    with pytest.raises(ValueError):
        hopping_window_agg(_ds(ray_session, ev), ["user_id"], "ts",
                           size_us=5, hop_us=2)


def test_unpivot_matches_pandas_melt(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import unpivot

    df = pd.DataFrame({
        "k": np.arange(7, dtype=np.int64),
        "a": np.arange(7, dtype=np.float64),
        "b": np.arange(7, dtype=np.float64) * 10.0,
        "c": np.arange(7, dtype=np.int64) * 100,  # int measure casts
    })
    got = unpivot(_ds(ray_session, df), ["k"], ["a", "b", "c"]).to_pandas()
    expected = df.melt(id_vars=["k"], value_vars=["a", "b", "c"])
    expected["value"] = expected["value"].astype(np.float64)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(expected))


def test_window_lead_matches_pandas_shift(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import window_lead

    ev = _events(np.random.default_rng(11))
    expected = ev.sort_values(["user_id", "ts", "event_id"],
                              kind="stable").copy()
    expected["next_v"] = expected.groupby("user_id")["v"].shift(-1)
    got = window_lead(_ds(ray_session, ev), ["user_id"], "ts", "v",
                      "next_v", "event_id").to_pandas()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(expected))


def test_window_dense_rank_ties_share_rank(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        window_dense_rank,
    )

    df = pd.DataFrame({
        "g": ["a"] * 5 + ["b"] * 3,
        "v": [10.0, 10.0, 20.0, 30.0, 30.0, 1.0, 1.0, 2.0],
    })
    got = window_dense_rank(_ds(ray_session, df), ["g"], "v",
                            out_col="r").to_pandas()
    expected = df.copy()
    expected["r"] = df.groupby("g")["v"].rank(method="dense").astype(
        np.int64)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(expected))


def test_grouped_first_last_ordered(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        grouped_first_last,
    )

    ev = _events(np.random.default_rng(13))
    s = ev.sort_values(["user_id", "ts", "event_id"], kind="stable")
    f = s.drop_duplicates("user_id", keep="first")[["user_id", "v"]]
    la = s.drop_duplicates("user_id", keep="last")[["user_id", "v"]]
    expected = f.rename(columns={"v": "first_val"}).merge(
        la.rename(columns={"v": "last_val"}), on="user_id")
    got = grouped_first_last(_ds(ray_session, ev), ["user_id"],
                             ["ts", "event_id"], "v").to_pandas()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(expected))


def test_windowed_cumagg_min_max_count(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        windowed_cumagg,
    )

    ev = _events(np.random.default_rng(17))
    s = ev.sort_values(["user_id", "ts", "event_id"], kind="stable")
    for agg, ref in [
        ("max", s.groupby("user_id")["v"].cummax()),
        ("min", s.groupby("user_id")["v"].cummin()),
        ("count", (s.groupby("user_id")["v"].cumcount() + 1)),
    ]:
        expected = s.copy()
        expected["out"] = ref.to_numpy()
        got = windowed_cumagg(_ds(ray_session, ev), ["user_id"], "ts",
                              "v", "out", "event_id", agg=agg).to_pandas()
        pd.testing.assert_frame_equal(_sorted(got),
                                      _sorted(expected),
                                      check_dtype=False)

    import pytest

    with pytest.raises(ValueError):
        windowed_cumagg(_ds(ray_session, ev), ["user_id"], "ts", "v",
                        "out", "event_id", agg="avg")


def test_window_rank_ties_share_with_gaps(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        window_rank,
    )

    df = pd.DataFrame({
        "g": ["a"] * 5 + ["b"] * 3,
        "v": [10.0, 10.0, 20.0, 30.0, 30.0, 1.0, 1.0, 2.0],
    })
    got = window_rank(_ds(ray_session, df), ["g"], "v",
                      out_col="r").to_pandas()
    expected = df.copy()
    expected["r"] = df.groupby("g")["v"].rank(method="min").astype(
        np.int64)
    # a: 1,1,3,4,4 (gap after the tie); b: 1,1,3
    pd.testing.assert_frame_equal(_sorted(got), _sorted(expected))


# ---------------------------------------------------------------------------
# cusum_changepoints: Page 1954 one-sided CUSUM over daily counts
# ---------------------------------------------------------------------------

def _cusum_events(ray_session, rows):
    """rows: (event_type, day_number, copies) -> one event per copy."""
    import datetime

    import pyarrow as pa

    base = datetime.datetime(2024, 1, 1)
    types, ts = [], []
    for et, day, copies in rows:
        for _ in range(copies):
            types.append(et)
            ts.append(base + datetime.timedelta(days=day))
    return ray_session.data.from_arrow(pa.table({
        "event_type": pa.array(types, pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    }))


def test_cusum_flags_planted_level_shift(ray_session):
    import numpy as np

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        cusum_changepoints,
    )

    # 20 quiet days at ~10/day, then 10 shifted days at 30/day
    rows = [("a", d, 10 + (d % 2)) for d in range(20)]
    rows += [("a", d, 30) for d in range(20, 30)]
    out = sorted(cusum_changepoints(
        _cusum_events(ray_session, rows), "event_type", "ts").take_all(),
                 key=lambda r: r["day"])
    flags = [r["flag"] for r in out]
    assert len(out) == 30
    assert all(f == 0 for f in flags[:20])     # quiet regime never fires
    assert any(f == 1 for f in flags[20:])     # the shift is caught
    # python replay of the Lindley identity
    n = np.array([r["n"] for r in out], float)
    mu, sd = n.mean(), n.std()
    d = (n - mu) / sd - 0.5
    c = np.cumsum(d)
    s = c - np.minimum.accumulate(np.minimum(c, 0.0))
    for r, want in zip(out, np.round(s, 6)):
        assert r["cusum"] == want


def test_cusum_constant_series_never_fires(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        cusum_changepoints,
    )

    rows = [("b", d, 5) for d in range(10)]
    out = cusum_changepoints(
        _cusum_events(ray_session, rows), "event_type", "ts").take_all()
    assert all(r["cusum"] == 0.0 and r["flag"] == 0 for r in out)


def test_cusum_partition_independent(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        cusum_changepoints,
    )

    rows = [(f"t{i % 3}", d, 3 + ((d + i) % 4))
            for i in range(6) for d in range(15)]
    ds = _cusum_events(ray_session, rows)
    key = lambda r: (r["event_type"], r["day"])
    one = sorted(cusum_changepoints(
        ds, "event_type", "ts").take_all(), key=key)
    many = sorted(cusum_changepoints(
        ds.repartition(7), "event_type", "ts").take_all(), key=key)
    assert one == many
