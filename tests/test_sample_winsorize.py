"""grouped_hash_sample / grouped_winsorize — determinism, partition
independence, exactness vs in-memory references."""

import numpy as np
import pandas as pd

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
    grouped_hash_sample,
    grouped_weighted_sample,
    grouped_winsorize,
)

_KNUTH = np.uint64(2654435761)


def _ds(ray_session, df: pd.DataFrame, blocks: int = 3):
    import ray.data

    return ray.data.from_pandas(df).repartition(blocks)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _docs(n=400, groups=5):
    return pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "g": (np.arange(n, dtype=np.int64) * 7919) % groups,
        "v": np.sin(np.arange(n) * 0.37) * 100,
    })


def _sample_ref(df: pd.DataFrame, k: int) -> pd.DataFrame:
    prio = (df["id"].to_numpy(np.uint64) * _KNUTH) & np.uint64(0xFFFFFFFF)
    return (df.assign(__p=prio.astype(np.int64))
            .sort_values(["__p", "id"], kind="mergesort")
            .groupby("g", sort=False).head(k)
            .drop(columns="__p"))


def test_hash_sample_matches_reference(ray_session):
    df = _docs()
    got = grouped_hash_sample(_ds(ray_session, df), ["g"], 7, "id").to_pandas()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(_sample_ref(df, 7)))


def test_hash_sample_partition_independent(ray_session, fixed_partitions):
    df = _docs(n=250, groups=3)
    fixed_partitions(1)
    a = grouped_hash_sample(_ds(ray_session, df, 1), ["g"], 5,
                            "id").to_pandas()
    fixed_partitions(6)
    b = grouped_hash_sample(_ds(ray_session, df, 8), ["g"], 5,
                            "id").to_pandas()
    pd.testing.assert_frame_equal(_sorted(a), _sorted(b))


def test_hash_sample_small_groups_keep_all_rows(ray_session):
    df = _docs(n=12, groups=4)  # 3 rows per group < k
    got = grouped_hash_sample(_ds(ray_session, df, 2), ["g"], 10,
                              "id").to_pandas()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(df))


def _weighted_ref(df: pd.DataFrame, k: int) -> pd.DataFrame:
    d = df[np.isfinite(df["w"]) & (df["w"] > 0)].copy()
    h = (d["id"].to_numpy(np.uint64) * _KNUTH) & np.uint64(0xFFFFFFFF)
    u = (h.astype(np.float64) + 0.5) / 4294967296.0
    d["__p"] = -np.log(u) / d["w"].to_numpy(np.float64)
    out = (d.sort_values(["__p", "id"], kind="mergesort")
           .groupby("g", sort=False).head(k).drop(columns="__p"))
    return out


def test_weighted_sample_matches_reference(ray_session):
    df = _docs()
    df["w"] = 1.0 + (df["id"].to_numpy() % 17).astype(np.float64)
    got = grouped_weighted_sample(_ds(ray_session, df), ["g"], 6, "id",
                                  "w").to_pandas()
    pd.testing.assert_frame_equal(_sorted(got),
                                  _sorted(_weighted_ref(df, 6)))


def test_weighted_sample_drops_nonpositive_weights(ray_session):
    df = _docs(n=60, groups=2)
    df["w"] = 1.0
    df.loc[df["id"] % 3 == 0, "w"] = 0.0
    df.loc[df["id"] % 5 == 0, "w"] = -2.0
    got = grouped_weighted_sample(_ds(ray_session, df), ["g"], 100, "id",
                                  "w").to_pandas()
    bad = set(df.loc[df["w"] <= 0, "id"])
    assert not (set(got["id"]) & bad)
    pd.testing.assert_frame_equal(_sorted(got),
                                  _sorted(df[df["w"] > 0]))


def test_weighted_sample_biases_toward_heavy_rows(ray_session):
    # one group, half the rows weight 100, half weight 1: the heavy
    # half should dominate a k=20 sample of 200 rows
    df = pd.DataFrame({
        "id": np.arange(200, dtype=np.int64),
        "g": 0,
        "w": np.where(np.arange(200) < 100, 100.0, 1.0),
    })
    got = grouped_weighted_sample(_ds(ray_session, df), ["g"], 20, "id",
                                  "w").to_pandas()
    assert (got["id"] < 100).sum() >= 15


def _winsor_ref(df, q_lo, q_hi):
    g = df.groupby("g")["v"]
    lo = np.round(g.transform(lambda s: s.quantile(q_lo)).to_numpy(), 6)
    hi = np.round(g.transform(lambda s: s.quantile(q_hi)).to_numpy(), 6)
    return df.assign(v_w=np.clip(df["v"].to_numpy(np.float64), lo, hi))


def test_winsorize_matches_reference(ray_session):
    df = _docs()
    got = grouped_winsorize(_ds(ray_session, df), ["g"], "v",
                            q_lo=0.1, q_hi=0.9).to_pandas()
    pd.testing.assert_frame_equal(_sorted(got),
                                  _sorted(_winsor_ref(df, 0.1, 0.9)))


def test_winsorize_interior_values_untouched(ray_session):
    df = _docs(n=200, groups=2)
    got = grouped_winsorize(_ds(ray_session, df), ["g"], "v",
                            q_lo=0.0, q_hi=1.0).to_pandas()
    # bounds round to 6 digits, so the group extremes themselves may
    # move by up to 5e-7 — interior rows are bit-identical
    np.testing.assert_allclose(got["v_w"].to_numpy(),
                               got["v"].to_numpy(), rtol=0, atol=1e-6)


def test_winsorize_clips_planted_outliers(ray_session):
    df = pd.DataFrame({
        "g": ["a"] * 100,
        "v": np.r_[np.linspace(0, 1, 98), 1e9, -1e9],
    })
    got = grouped_winsorize(_ds(ray_session, df, 3), ["g"], "v",
                            q_lo=0.05, q_hi=0.95).to_pandas()
    assert got["v_w"].max() < 2.0
    assert got["v_w"].min() > -1.0


def test_winsorize_null_and_nan_keys_are_groups(ray_session):
    """A null group key (None or NaN in pandas) is its own group, as in
    SQL ``GROUP BY`` (it used to raise KeyError at the clip lookup);
    checked against DuckDB ``quantile_cont`` over the same rows."""
    import duckdb
    import pyarrow as pa

    n = 300
    i = np.arange(n)
    df = pd.DataFrame({
        "id": i.astype(np.int64),
        "g": np.where(i % 4 == 0, None, np.where(i % 4 == 1, "a", "b")),
        "h": np.where(i % 3 == 0, np.nan, (i % 2).astype(np.float64)),
        "v": np.sin(i * 0.37) * 100,
    })
    got = grouped_winsorize(_ds(ray_session, df), ["g", "h"], "v",
                            q_lo=0.1, q_hi=0.9).to_pandas()
    t = pa.Table.from_pandas(df, preserve_index=False)  # noqa: F841
    want = duckdb.sql("""
        SELECT id, LEAST(GREATEST(v, round(quantile_cont(v, 0.1) OVER w, 6)),
                         round(quantile_cont(v, 0.9) OVER w, 6)) AS v_w
        FROM t WINDOW w AS (PARTITION BY g, h) ORDER BY id""").df()
    assert df["g"].isna().any() and df["h"].isna().any()
    got = got.sort_values("id").reset_index(drop=True)
    assert got["id"].tolist() == want["id"].tolist()
    np.testing.assert_allclose(got["v_w"].to_numpy(), want["v_w"].to_numpy(),
                               rtol=0, atol=1e-9)



def test_winsorize_nan_and_null_float_key_are_one_group(ray_session):
    """An Arrow float key that holds both NaN and null (a Parquet read
    can; ``from_pandas`` turns every NaN into null) winsorizes NaN and
    null rows as one group, however many partitions the exchange
    spreads them over; checked against DuckDB with NaN read as NULL."""
    import duckdb
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    n = 400
    i = np.arange(n)
    h = pa.array([None if j % 5 == 0 else np.nan if j % 5 == 1
                  else float(j % 3) for j in i], pa.float64())
    t = pa.table({"id": i.astype(np.int64), "g": (i % 6).astype(np.int64),
                  "h": h, "v": np.sin(i * 0.37) * 100})
    assert h.null_count and pc.any(pc.is_nan(h)).as_py()
    got = grouped_winsorize(ray.data.from_arrow(t).repartition(4),
                            ["g", "h"], "v", q_lo=0.1, q_hi=0.9).to_pandas()
    want = duckdb.sql("""
        SELECT id, LEAST(GREATEST(v, round(quantile_cont(v, 0.1) OVER w, 6)),
                         round(quantile_cont(v, 0.9) OVER w, 6)) AS v_w
        FROM t WINDOW w AS (
            PARTITION BY g, CASE WHEN isnan(h) THEN NULL ELSE h END)
        ORDER BY id""").df()
    got = got.sort_values("id").reset_index(drop=True)
    assert got["id"].tolist() == want["id"].tolist()
    np.testing.assert_allclose(got["v_w"].to_numpy(), want["v_w"].to_numpy(),
                               rtol=0, atol=1e-9)

def _schema_hash_lines(run) -> list[str]:
    """Lines with Ray's ``Failed to hash the schemas`` warning logged
    while ``run()`` executes: through this process's ``ray.data``
    logger and into the Ray worker logs, where map tasks write it."""
    import glob
    import logging
    import os

    import ray

    needle = "Failed to hash the schemas"
    logs = ray._private.worker._global_node.get_logs_dir_path()
    pattern = os.path.join(logs, "worker-*.err")
    before = {p: os.path.getsize(p) for p in glob.glob(pattern)}
    seen: list[str] = []

    class Capture(logging.Handler):
        def emit(self, record):
            seen.append(record.getMessage())

    handler = Capture()
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        run()
    finally:
        logger.removeHandler(handler)
    for p in glob.glob(pattern):
        with open(p, errors="replace") as f:
            f.seek(before.get(p, 0))
            seen.extend(f.read().splitlines())
    return [line for line in seen if needle in line]


def test_sample_over_pandas_blocks_logs_no_schema_hash_warning(ray_session):
    """grouped_hash_sample and grouped_weighted_sample over
    pandas-origin blocks (``b'pandas'`` schema metadata) must not make
    Ray log ``Failed to hash the schemas``; the sample keeps the
    input's dtypes and a RangeIndex."""
    df = _docs()
    out: list = []
    lines = _schema_hash_lines(lambda: out.append(
        grouped_hash_sample(_ds(ray_session, df), ["g"], k=7,
                            id_col="id").to_pandas()))
    lines += _schema_hash_lines(lambda: grouped_weighted_sample(
        _ds(ray_session, df.assign(w=1.0 + df["id"] % 3)), ["g"], 7, "id",
        "w").to_pandas())
    assert lines == []
    got = out[0]
    assert got.dtypes.to_dict() == df.dtypes.to_dict()
    assert isinstance(got.index, pd.RangeIndex)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(_sample_ref(df, 7)))
