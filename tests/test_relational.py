"""Distributed relational operators (pipelines/relational.py): anti-join,
as-of join, window top-k, distinct-count, grouped median — exactness vs
in-memory pandas references, including tie/empty/cross-batch edge cases."""

import numpy as np
import pandas as pd
import pytest

import pyarrow as pa

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
    anti_join,
    asof_join,
    broadcast_range_join,
    distinct_count,
    grouped_median,
    window_topk,
)


def _ds(ray_session, df: pd.DataFrame, blocks: int = 3):
    import ray.data

    return ray.data.from_pandas(df).repartition(blocks)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_anti_join_exact(ray_session):
    left = pd.DataFrame({"k": np.arange(20, dtype=np.int64),
                         "name": [f"c{i}" for i in range(20)]})
    right = pd.DataFrame({"rk": np.array([1, 3, 3, 5, 19], dtype=np.int64)})
    out = anti_join(_ds(ray_session, left), _ds(ray_session, right, 2),
                    "k", "rk").to_pandas()
    expected = left[~left["k"].isin(right["rk"])]
    pd.testing.assert_frame_equal(_sorted(out), _sorted(expected))


def test_anti_join_empty_right(ray_session):
    left = pd.DataFrame({"k": np.arange(5, dtype=np.int64)})
    right = pd.DataFrame({"rk": pd.Series([], dtype="int64")})
    out = anti_join(_ds(ray_session, left), _ds(ray_session, right, 1),
                    "k", "rk").to_pandas()
    assert sorted(out["k"]) == list(range(5))


def test_asof_join_strict_prior_and_ties(ray_session):
    ts = pd.to_datetime(
        ["2024-01-01 10:00:00", "2024-01-01 10:00:00",
         "2024-01-01 10:05:00", "2024-01-01 11:00:00"]
    ).astype("datetime64[us]")
    # two right rows share ts 10:00 — tie must break to larger event_id
    right = pd.DataFrame({"user": np.int64([1, 1, 1, 1]),
                          "ts": ts,
                          "event_id": np.int64([10, 11, 12, 13]),
                          "value": [0.1, 0.2, 0.3, 0.4]})
    left = pd.DataFrame({
        "user": np.int64([1, 1, 1]),
        "ts": pd.to_datetime(
            ["2024-01-01 10:00:00",   # no strictly-prior row -> dropped
             "2024-01-01 10:05:00",   # prior = ties at 10:00 -> id 11
             "2024-01-01 12:00:00"]   # prior = 11:00 -> id 13
        ).astype("datetime64[us]"),
        "event_id": np.int64([100, 101, 102]),
    })
    out = asof_join(
        _ds(ray_session, left, 2), _ds(ray_session, right, 2),
        by="user", right_by="user", on="ts",
        right_cols=["event_id", "value"], tie_col="event_id",
    ).to_pandas()
    got = out.set_index("event_id")["event_id_r"].to_dict()
    assert got == {101: 11, 102: 13}
    assert out.set_index("event_id")["value"].to_dict() == \
        pytest.approx({101: 0.2, 102: 0.4})


def test_window_topk_with_ties(ray_session):
    rng = np.random.RandomState(7)
    df = pd.DataFrame({
        "k": rng.randint(0, 5, 200).astype(np.int64),
        "id": np.arange(200, dtype=np.int64),
        # coarse scores force ties within keys
        "score": rng.randint(0, 4, 200).astype(np.float64),
    })
    out = window_topk(_ds(ray_session, df, 5), ["k"], "score", 3,
                      tie_col="id").to_pandas()
    expected = (
        df.sort_values(["score", "id"], ascending=[False, True],
                       kind="stable")
        .groupby("k", sort=False).head(3)
    )
    pd.testing.assert_frame_equal(_sorted(out), _sorted(expected))


def test_distinct_count_cross_batch(ray_session):
    # the same (k, v) pair appears in every block: local combiners dedup
    # per batch, the exchange must dedup across batches
    df = pd.DataFrame({
        "k": np.int64([1] * 30 + [2] * 30),
        "v": np.int64(list(range(10)) * 3 + [7] * 30),
    })
    out = distinct_count(_ds(ray_session, df, 6), ["k"], "v", "n").to_pandas()
    got = out.set_index("k")["n"].to_dict()
    assert got == {1: 10, 2: 1}


def test_asof_join_random_vs_quadratic_reference(ray_session):
    """Seeded random streams, duplicate timestamps included: the
    distributed as-of join must equal the O(n²) definition (latest
    strictly-prior right row per (user, left row), ties → max id)."""
    rng = np.random.RandomState(11)
    n_l, n_r = 300, 400
    base = pd.Timestamp("2024-01-01").value // 1000
    left = pd.DataFrame({
        "user": rng.randint(0, 8, n_l).astype(np.int64),
        "ts": pd.to_datetime(
            base + rng.randint(0, 50, n_l) * 60_000_000, unit="us"),
        "event_id": np.arange(n_l, dtype=np.int64),
    })
    right = pd.DataFrame({
        "user": rng.randint(0, 8, n_r).astype(np.int64),
        "ts": pd.to_datetime(
            base + rng.randint(0, 50, n_r) * 60_000_000, unit="us"),
        "event_id": np.arange(1000, 1000 + n_r, dtype=np.int64),
        "value": rng.rand(n_r).round(6),
    })
    out = asof_join(
        _ds(ray_session, left, 4), _ds(ray_session, right, 5),
        by="user", right_by="user", on="ts",
        right_cols=["event_id", "value"], tie_col="event_id",
    ).to_pandas()
    got = out.set_index("event_id")["event_id_r"].to_dict()

    expected = {}
    for _, lrow in left.iterrows():
        prior = right[(right["user"] == lrow["user"])
                      & (right["ts"] < lrow["ts"])]
        if len(prior):
            best = prior.sort_values(["ts", "event_id"]).iloc[-1]
            expected[lrow["event_id"]] = best["event_id"]
    assert got == expected


def test_broadcast_range_join_overlapping_and_boundaries(ray_session):
    df = pd.DataFrame({"id": np.arange(6, dtype=np.int64),
                       "x": [0.0, 9.9, 10.0, 15.0, 20.0, 25.0]})
    iv = pa.table({"band": ["a", "b", "wide"],
                   "lo": [0.0, 10.0, 0.0],
                   "hi": [10.0, 20.0, 30.0]})
    out = broadcast_range_join(_ds(ray_session, df, 3), iv, "x") \
        .to_pandas()
    got = sorted(zip(out["id"], out["band"]))
    # [lo, hi): x=10 joins b not a; x=20 joins neither a nor b; every
    # row also joins the overlapping 'wide' band
    assert got == sorted(
        [(0, "a"), (1, "a"), (2, "b"), (3, "b")] +
        [(i, "wide") for i in range(6)]
    )


def test_grouped_median_interpolates_even_counts(ray_session):
    df = pd.DataFrame({
        "g": ["a", "a", "a", "a", "b", "b", "b"],
        "x": [1.0, 2.0, 10.0, 4.0, 5.0, 1.0, 3.0],
    })
    out = grouped_median(_ds(ray_session, df, 3), ["g"], "x", "m").to_pandas()
    got = out.set_index("g")["m"].to_dict()
    assert got == pytest.approx({"a": 3.0, "b": 3.0})


def test_grouped_quantile_matches_pandas(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import grouped_quantile

    rng = np.random.RandomState(7)
    df = pd.DataFrame({
        "g": rng.choice(list("abcd"), 200),
        "x": np.round(rng.uniform(0, 100, 200), 3),
    })
    out = grouped_quantile(_ds(ray_session, df, 4), ["g"], "x", 0.9,
                           "p90").to_pandas()
    expected = df.groupby("g")["x"].quantile(0.9)
    got = out.set_index("g")["p90"].to_dict()
    assert got == pytest.approx({k: round(v, 6) for k, v in expected.items()})


def test_rollup_sum_all_levels(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import rollup_sum

    rng = np.random.RandomState(3)
    df = pd.DataFrame({
        "a": rng.choice(["p", "q"], 50),
        "b": rng.choice(["u", "v", "w"], 50),
        "x": np.round(rng.uniform(0, 10, 50), 2),
    })
    out = rollup_sum(_ds(ray_session, df, 3), ["a", "b"], "x",
                     count_col="n", sum_col="s").to_pandas()

    finest = df.groupby(["a", "b"]).agg(n=("x", "size"), s=("x", "sum"))
    lvl1 = df.groupby("a").agg(n=("x", "size"), s=("x", "sum"))
    rows = {}
    for (a, b), r in finest.iterrows():
        rows[(a, b)] = (int(r["n"]), round(float(r["s"]), 2))
    for a, r in lvl1.iterrows():
        rows[(a, "ALL")] = (int(r["n"]), round(float(r["s"]), 2))
    rows[("ALL", "ALL")] = (len(df), round(float(df["x"].sum()), 2))

    got = {
        (r["a"], r["b"]): (int(r["n"]), round(float(r["s"]), 2))
        for _, r in out.iterrows()
    }
    assert got == rows


def test_distinct_set_ops(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import distinct_set_op

    left = pd.DataFrame({"k": np.array([1, 1, 2, 3, 4, 5, 5], dtype=np.int64)})
    right = pd.DataFrame({"rk": np.array([2, 2, 4, 6], dtype=np.int64)})
    inter = distinct_set_op(_ds(ray_session, left, 3),
                            _ds(ray_session, right, 2), "k", "rk",
                            mode="intersect").to_pandas()
    assert sorted(inter["k"]) == [2, 4]
    exc = distinct_set_op(_ds(ray_session, left, 3),
                          _ds(ray_session, right, 2), "k", "rk",
                          mode="except").to_pandas()
    assert sorted(exc["k"]) == [1, 3, 5]
    with pytest.raises(ValueError):
        distinct_set_op(_ds(ray_session, left), _ds(ray_session, right),
                        "k", "rk", mode="union")


def test_exact_cosine_pairs_vs_brute_and_blocking_independence(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
        exact_cosine_pairs,
    )

    rng = np.random.RandomState(11)
    n, dim = 120, 16
    m = rng.standard_normal((n, dim))
    # plant a few near-duplicate pairs
    m[7] = m[3] + 0.01 * rng.standard_normal(dim)
    m[50] = m[40] + 0.02 * rng.standard_normal(dim)
    norm = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = norm @ norm.T
    iu = np.triu_indices(n, 1)
    thr = 0.6
    expected = {
        (int(a), int(b)): round(float(sims[a, b]), 6)
        for a, b in zip(*iu)
        if sims[a, b] >= thr
    }
    assert expected, "fixture must contain pairs above threshold"

    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in m],
                              pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(tbl).repartition(4)
    results = {}
    for blocks in (1, 3, 8):
        out = exact_cosine_pairs(ds, threshold=thr, num_blocks=blocks
                                 ).to_pandas()
        got = {
            (int(r["id_a"]), int(r["id_b"])): round(float(r["cosine"]), 6)
            for _, r in out.iterrows()
        }
        # float32 storage: compare pair sets exactly, values loosely
        assert set(got) == set(expected), f"blocks={blocks}"
        for k in expected:
            assert abs(got[k] - expected[k]) < 1e-5, (blocks, k)
        results[blocks] = got
    # blocking level must not change the answer at all
    assert results[1] == results[3] == results[8]


def test_pivot_sum_matches_conditional_aggregation(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import pivot_sum

    rng = np.random.RandomState(5)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], 100),
        "cat": rng.choice(["x", "y", "z"], 100),
        "v": np.round(rng.uniform(0, 10, 100), 2),
    })
    out = pivot_sum(_ds(ray_session, df, 4), "k", "cat", "v",
                    categories=["x", "y", "z"],
                    out_cols=["sum_x", "sum_y", "sum_z"]).to_pandas()
    for _, r in out.iterrows():
        for cat, col in zip("xyz", ["sum_x", "sum_y", "sum_z"]):
            want = df[(df["k"] == r["k"]) & (df["cat"] == cat)]["v"].sum()
            assert r[col] == pytest.approx(round(float(want), 2)), (r["k"], cat)
    assert sorted(out["k"]) == ["a", "b", "c"]
    # a category absent from the data still yields its (zero) column
    out2 = pivot_sum(_ds(ray_session, df, 2), "k", "cat", "v",
                     categories=["x", "missing"]).to_pandas()
    assert (out2["missing"] == 0.0).all()
    with pytest.raises(ValueError):
        pivot_sum(_ds(ray_session, df, 2), "k", "cat", "v",
                  categories=["x"], out_cols=["a", "b"])


def test_grouped_approx_distinct_accuracy_and_partition_independence(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        grouped_approx_distinct,
    )

    rng = np.random.RandomState(13)
    # two groups with very different cardinalities + heavy repetition
    n_small, n_big = 200, 5000
    df = pd.DataFrame({
        "g": ["s"] * 4000 + ["b"] * 20000,
        "u": ([f"u{i}" for i in rng.randint(0, n_small, 4000)]
              + [f"u{i}" for i in rng.randint(0, n_big, 20000)]),
    })
    exact = df.groupby("g")["u"].nunique().to_dict()
    results = []
    for blocks in (2, 7):
        out = grouped_approx_distinct(
            _ds(ray_session, df.sample(frac=1.0, random_state=blocks), blocks),
            ["g"], "u", "approx",
        ).to_pandas()
        got = out.set_index("g")["approx"].to_dict()
        for g, n in exact.items():
            assert abs(got[g] - n) / n < 0.05, (blocks, g, got[g], n)
        results.append(got)
    # same estimate regardless of row order / block structure
    assert results[0] == results[1]


def test_bloom_semi_join_exact_and_no_false_positives(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        bloom_semi_join,
    )

    rng = np.random.default_rng(3)
    left = pd.DataFrame({
        "k": rng.integers(0, 5000, 4000).astype(np.int64),
        "v": rng.normal(size=4000),
    })
    right = pd.DataFrame({"rk": rng.integers(0, 500, 300).astype(np.int64)})
    out = bloom_semi_join(_ds(ray_session, left, 4),
                          _ds(ray_session, right, 2), "k", "rk").to_pandas()
    expected = left[left["k"].isin(right["rk"])]
    pd.testing.assert_frame_equal(_sorted(out), _sorted(expected))
    # a tiny, saturating mask still gives EXACT results (the co-partition
    # probe removes every bloom false positive)
    out_tiny = bloom_semi_join(_ds(ray_session, left, 4),
                               _ds(ray_session, right, 2), "k", "rk",
                               nbits=64, nhashes=2).to_pandas()
    pd.testing.assert_frame_equal(_sorted(out_tiny), _sorted(expected))


def test_bloom_semi_join_string_keys_empty_result(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        bloom_semi_join,
    )

    left = pd.DataFrame({"k": ["a", "b", "c", "d"]})
    right = pd.DataFrame({"rk": ["x", "y"]})
    out = bloom_semi_join(_ds(ray_session, left, 2),
                          _ds(ray_session, right, 1), "k", "rk").to_pandas()
    assert len(out) == 0


def test_grouped_concat_ordered(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        grouped_concat,
    )

    df = pd.DataFrame({
        "g": ["a", "b", "a", "a", "b"],
        "val": ["z", "m", "x", "y", "n"],
        "ord": np.int64([3, 2, 1, 2, 1]),
    })
    out = grouped_concat(_ds(ray_session, df, 3), ["g"], "val", "ord",
                         "joined").to_pandas()
    got = dict(zip(out["g"], out["joined"]))
    assert got == {"a": "x,y,z", "b": "n,m"}


def test_heavy_hitters_exact_counts_and_ties(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        heavy_hitters,
    )
    import ray.data

    rng = np.random.default_rng(11)
    # zipf-ish: value i appears (40 - i) times; ties at equal counts
    vals = [f"w{i:02d}" for i in range(40) for _ in range(40 - i)]
    rng.shuffle(vals)
    ds = ray.data.from_pandas(pd.DataFrame({"tok": vals})).repartition(5)
    top = heavy_hitters(ds, "tok", 7)
    assert top.column("tok").to_pylist() == [f"w{i:02d}" for i in range(7)]
    assert top.column("n").to_pylist() == [40 - i for i in range(7)]


def test_grouped_corr_matches_numpy(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        grouped_corr,
    )

    rng = np.random.default_rng(5)
    n = 2000
    g = rng.choice(["p", "q", "r"], n)
    x = rng.normal(size=n) * 100
    y = 3 * x + rng.normal(size=n) * 50
    df = pd.DataFrame({"g": g, "x": x, "y": y})
    out = grouped_corr(_ds(ray_session, df, 4), ["g"], "x", "y",
                       "r").to_pandas()
    got = dict(zip(out["g"], out["r"]))
    for key, grp in df.groupby("g"):
        want = np.corrcoef(grp["x"], grp["y"])[0, 1]
        assert abs(got[key] - round(want, 6)) <= 1e-6


def test_copartition_agg_join_q3_shape(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        copartition_agg_join,
    )

    fact = pd.DataFrame({
        "ok": np.int64([1, 1, 2, 3, 3, 3, 9]),
        "rev": [10.0, 5.0, 7.0, 1.0, 2.0, 3.0, 99.0],
    })
    dim = pd.DataFrame({
        "o_ok": np.int64([1, 2, 3, 4]),
        "prio": ["a", "b", "c", "d"],
    })
    out = copartition_agg_join(
        _ds(ray_session, fact, 3), _ds(ray_session, dim, 2),
        "ok", "o_ok", ["o_ok", "prio"], "rev", "revenue",
    ).to_pandas()
    got = {r.ok: (r.revenue, r.prio) for r in out.itertuples()}
    assert got == {1: (15.0, "a"), 2: (7.0, "b"), 3: (6.0, "c")}


def test_windowed_cumsum_matches_pandas(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        windowed_cumsum,
    )

    rng = np.random.default_rng(9)
    n = 500
    df = pd.DataFrame({
        "u": rng.integers(0, 20, n).astype(np.int64),
        "t": rng.integers(0, 50, n).astype(np.int64),  # ties on (u, t)
        "i": np.arange(n, dtype=np.int64),
        "v": rng.normal(size=n),
    })
    out = windowed_cumsum(_ds(ray_session, df, 4), ["u"], "t", "v", "cum",
                          tie_col="i").to_pandas()
    ref = df.sort_values(["u", "t", "i"], kind="stable").copy()
    ref["cum"] = np.round(ref.groupby("u")["v"].cumsum().to_numpy(), 6)
    got = out.sort_values(["u", "t", "i"]).reset_index(drop=True)
    ref = ref.sort_values(["u", "t", "i"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["u", "t", "i", "v", "cum"]], ref)


def test_approx_heavy_hitters_matches_exact_when_bound_holds(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        approx_heavy_hitters,
        heavy_hitters,
    )
    import ray.data

    rng = np.random.default_rng(17)
    # zipf head over a large tail vocabulary
    head = [f"h{i:02d}" for i in range(30) for _ in range(500 - 12 * i)]
    tail = [f"t{i:05d}" for i in rng.integers(0, 20000, 8000)]
    vals = head + tail
    rng.shuffle(vals)
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(6)
    exact = heavy_hitters(ds, "v", 10)
    approx = approx_heavy_hitters(ds, "v", 10, capacity=256)
    assert approx.equals(exact)   # identical values AND exact counts


def test_approx_heavy_hitters_small_capacity_still_counts_exactly(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        approx_heavy_hitters,
    )
    import ray.data

    vals = ["a"] * 100 + ["b"] * 60 + ["c"] * 30 + [f"x{i}" for i in range(50)]
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(3)
    top = approx_heavy_hitters(ds, "v", 2, capacity=8)
    assert top.column("v").to_pylist() == ["a", "b"]
    assert top.column("n").to_pylist() == [100, 60]  # recount is exact


def test_full_outer_join_matches_pandas(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        full_outer_join,
    )
    import ray.data

    left = pd.DataFrame({
        "k": np.int64([1, 2, 3, 5, 5]),
        "lv": ["a", "b", "c", "d", "e"],
    })
    right = pd.DataFrame({
        "rk": np.int64([2, 3, 3, 9]),
        "rv": np.float64([20.0, 30.0, 31.0, 90.0]),
    })
    out = full_outer_join(
        ray.data.from_pandas(left).repartition(3),
        ray.data.from_pandas(right).repartition(2),
        "k", "rk", ["rk", "rv"],
    ).to_pandas()
    ref = left.merge(right.rename(columns={"rk": "k"}), on="k",
                     how="outer")
    got = out.sort_values(["k", "lv", "rv"], na_position="first") \
        .reset_index(drop=True)
    ref = ref.sort_values(["k", "lv", "rv"], na_position="first") \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref, check_dtype=False)
    assert set(got["k"]) == {1, 2, 3, 5, 9}       # both unmatched sides
    assert got["k"].notna().all()                 # key never null


def test_full_outer_join_name_collision_raises(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        full_outer_join,
    )
    import ray.data
    import pytest

    left = ray.data.from_pandas(pd.DataFrame({"k": [1], "v": [1]}))
    right = ray.data.from_pandas(pd.DataFrame({"rk": [1], "v": [2]}))
    with pytest.raises(ValueError, match="collision"):
        full_outer_join(left, right, "k", "rk", ["rk", "v"])


def test_window_lag_matches_pandas(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        window_lag,
    )
    import ray.data

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "u": rng.integers(0, 6, 80).astype(np.int64),
        "t": rng.integers(0, 50, 80).astype(np.int64),
        "i": np.arange(80, dtype=np.int64),
        "v": rng.normal(size=80),
    })
    out = window_lag(ray.data.from_pandas(df).repartition(5),
                     ["u"], "t", "v", "prev_v", tie_col="i").to_pandas()
    ref = df.sort_values(["u", "t", "i"], kind="stable")
    ref = ref.assign(prev_v=ref.groupby("u")["v"].shift(1))
    got = out.sort_values(["u", "t", "i"]).reset_index(drop=True)
    ref = ref.sort_values(["u", "t", "i"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["u", "t", "i", "v", "prev_v"]],
                                  ref)
    # each key's first row has a null lag (nth keeps nulls; first() skips)
    firsts = got.groupby("u").nth(0)
    assert firsts["prev_v"].isna().all()


def test_grouped_mode_matches_pandas(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        grouped_mode,
    )
    import ray.data

    df = pd.DataFrame({
        "k": ["a"] * 6 + ["b"] * 4,
        "v": ["x", "x", "y", "y", "z", "w", "q", "p", "q", "p"],
    })
    out = grouped_mode(ray.data.from_pandas(df).repartition(4),
                       ["k"], "v").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    # a: x and y tie at 2 -> smaller value 'x'; b: p/q tie -> 'p'
    assert out.values.tolist() == [["a", "x", 2], ["b", "p", 2]]


def test_cube_sum_matches_pandas(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        cube_sum,
    )
    import ray.data

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "a": rng.choice(["r", "s"], 300),
        "b": rng.choice(["u", "v", "w"], 300),
        "x": rng.integers(1, 50, 300).astype(np.float64),
    })
    out = cube_sum(ray.data.from_pandas(df).repartition(5), ["a", "b"],
                   "x").to_pandas()
    # 2x3 finest + 2 (a) + 3 (b) + 1 total = 12 rows
    assert len(out) == 12
    ref = {}
    for sub in [("a", "b"), ("a",), ("b",), ()]:
        if sub:
            g = df.groupby(list(sub))["x"].agg(["count", "sum"])
            for kv, row in g.iterrows():
                kv = kv if isinstance(kv, tuple) else (kv,)
                key = tuple(
                    kv[sub.index(c)] if c in sub else "ALL"
                    for c in ("a", "b")
                )
                ref[key] = (int(row["count"]), round(row["sum"], 2))
        else:
            ref[("ALL", "ALL")] = (len(df), round(df["x"].sum(), 2))
    got = {
        (r["a"], r["b"]): (r["n"], r["sum_value"])
        for _, r in out.iterrows()
    }
    assert got == ref


def test_grouped_var_matches_pandas(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        grouped_var,
    )
    import ray.data

    rng = np.random.default_rng(13)
    df = pd.DataFrame({
        "g": rng.choice(list("abc"), 200),
        "x": rng.normal(10, 3, 200),
    })
    df = pd.concat([df, pd.DataFrame({"g": ["solo"], "x": [5.0]})],
                   ignore_index=True)
    out = grouped_var(ray.data.from_pandas(df).repartition(4), ["g"],
                      "x").to_pandas() \
        .set_index("g")
    ref = df.groupby("g")["x"].var()
    for g in "abc":
        assert out.loc[g, "var_samp"] == pytest.approx(
            round(ref[g], 6), abs=1e-5)
        assert out.loc[g, "stddev"] == pytest.approx(
            round(np.sqrt(ref[g]), 6), abs=1e-5)
    assert np.isnan(out.loc["solo", "var_samp"])   # n=1 -> null


def test_window_ntile_exact_sql_semantics(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        window_ntile,
    )
    import ray.data

    # group sizes 10 (=4,3,3... no: ntile(3) of 10 -> 4,3,3) and 2 (<q)
    df = pd.DataFrame({
        "g": ["a"] * 10 + ["b"] * 2,
        "v": list(range(10)) + [5, 1],
        "id": np.arange(12, dtype=np.int64),
    })
    out = window_ntile(ray.data.from_pandas(df).repartition(3), ["g"],
                       "v", 3, tie_col="id") \
        .to_pandas().sort_values(["g", "v", "id"])
    a = out[out["g"] == "a"]["tile"].tolist()
    assert a == [1, 1, 1, 1, 2, 2, 2, 3, 3, 3]
    b = out[out["g"] == "b"].sort_values("v")["tile"].tolist()
    assert b == [1, 2]   # n < tiles: one row per leading bucket


def test_bloom_anti_join_exact_with_forced_collisions(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        anti_join,
        bloom_anti_join,
    )
    import ray.data

    rng = np.random.default_rng(19)
    left = pd.DataFrame({
        "k": [f"key{i}" for i in rng.integers(0, 300, 400)],
        "v": np.arange(400, dtype=np.int64),
    })
    right = pd.DataFrame({
        "rk": [f"key{i}" for i in rng.integers(0, 300, 120)],
    })
    # nbits=64 forces heavy false positives: the exact verify pass must
    # resurrect every falsely-flagged row
    got = bloom_anti_join(
        ray.data.from_pandas(left).repartition(4),
        ray.data.from_pandas(right).repartition(3),
        "k", "rk", nbits=64, nhashes=2,
    ).to_pandas()
    ref = anti_join(
        ray.data.from_pandas(left).repartition(4),
        ray.data.from_pandas(right).repartition(3),
        "k", "rk",
    ).to_pandas()
    got = got.sort_values(["k", "v"]).reset_index(drop=True)
    ref = ref.sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref)
    expected = left[~left["k"].isin(right["rk"])]
    assert len(got) == len(expected)


def test_asof_join_forward_strict_and_ties(ray_session):
    ts = pd.to_datetime(
        ["2024-01-01 10:00:00", "2024-01-01 11:00:00",
         "2024-01-01 11:00:00", "2024-01-01 12:00:00"]
    ).astype("datetime64[us]")
    # two right rows share ts 11:00 — forward tie breaks to SMALLER id
    right = pd.DataFrame({"user": np.int64([1, 1, 1, 1]),
                          "ts": ts,
                          "event_id": np.int64([10, 11, 12, 13]),
                          "value": [0.1, 0.2, 0.3, 0.4]})
    left = pd.DataFrame({
        "user": np.int64([1, 1, 1]),
        "ts": pd.to_datetime(
            ["2024-01-01 10:00:00",   # next strictly-after = 11:00 -> 11
             "2024-01-01 11:30:00",   # next = 12:00 -> id 13
             "2024-01-01 12:00:00"]   # no strictly-later row -> dropped
        ).astype("datetime64[us]"),
        "event_id": np.int64([100, 101, 102]),
    })
    out = asof_join(
        _ds(ray_session, left, 2), _ds(ray_session, right, 2),
        by="user", right_by="user", on="ts",
        right_cols=["event_id", "value"], tie_col="event_id",
        direction="forward",
    ).to_pandas()
    got = out.set_index("event_id")["event_id_r"].to_dict()
    assert got == {100: 11, 101: 13}
    assert out.set_index("event_id")["value"].to_dict() == \
        pytest.approx({100: 0.2, 101: 0.4})
