"""New relational operators: skew-handled join, grouped z-score,
union-by-name schema evolution, boilerplate-line stripping — exactness
vs in-memory pandas references, skew path equivalence, edge cases."""

import numpy as np
import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
    strip_boilerplate,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
    grouped_standardize,
    inner_join,
    skew_join,
    union_by_name,
)


def _ds(ray_session, df: pd.DataFrame, blocks: int = 3):
    import ray.data

    return ray.data.from_pandas(df).repartition(blocks)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _zipf_tables(rng):
    # one head key (0) holding half the fact rows, a tail of 50 keys
    keys = np.concatenate([np.zeros(500, np.int64),
                           rng.integers(1, 51, 500)])
    rng.shuffle(keys)
    left = pd.DataFrame({"k": keys,
                         "v": np.arange(len(keys), dtype=np.int64)})
    right = pd.DataFrame({"rk": np.arange(0, 51, dtype=np.int64),
                          "name": [f"d{i}" for i in range(51)]})
    return left, right


def test_skew_join_matches_plain_join(ray_session):
    rng = np.random.default_rng(7)
    left, right = _zipf_tables(rng)
    expected = left.merge(right, left_on="k", right_on="rk").drop(
        columns=["rk"]).rename(columns={"name": "name"})

    # hot path actually taken: threshold 100 makes key 0 hot
    out_hot = skew_join(_ds(ray_session, left), _ds(ray_session, right, 2),
                        "k", "rk", ["rk", "name"],
                        hot_threshold=100).to_pandas()
    pd.testing.assert_frame_equal(_sorted(out_hot), _sorted(expected))

    # threshold high: falls back to the plain co-partitioned join
    out_cold = skew_join(_ds(ray_session, left), _ds(ray_session, right, 2),
                         "k", "rk", ["rk", "name"],
                         hot_threshold=10_000).to_pandas()
    pd.testing.assert_frame_equal(_sorted(out_cold), _sorted(expected))


def test_skew_join_hot_key_missing_from_right(ray_session):
    # the hot key has no right match -> its rows drop, exactly like SQL
    left = pd.DataFrame({"k": np.int64([9] * 50 + [1, 2]),
                         "v": np.arange(52, dtype=np.int64)})
    right = pd.DataFrame({"rk": np.int64([1, 2]),
                          "name": ["a", "b"]})
    out = skew_join(_ds(ray_session, left), _ds(ray_session, right, 1),
                    "k", "rk", ["rk", "name"], hot_threshold=10).to_pandas()
    expected = left.merge(right, left_on="k", right_on="rk").drop(
        columns=["rk"])
    pd.testing.assert_frame_equal(_sorted(out), _sorted(expected))


def test_inner_join_duplicate_right_keys(ray_session):
    left = pd.DataFrame({"k": np.int64([1, 2, 3]), "v": [10, 20, 30]})
    right = pd.DataFrame({"rk": np.int64([1, 1, 3]),
                          "tag": ["x", "y", "z"]})
    out = inner_join(_ds(ray_session, left), _ds(ray_session, right, 2),
                     "k", "rk", ["rk", "tag"]).to_pandas()
    expected = left.merge(right, left_on="k", right_on="rk").drop(
        columns=["rk"])
    pd.testing.assert_frame_equal(_sorted(out), _sorted(expected))


def test_grouped_standardize_matches_pandas(ray_session):
    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], 300),
        "x": rng.normal(100.0, 25.0, 300),
    })
    out = grouped_standardize(_ds(ray_session, df), ["g"], "x",
                              out_col="z", ndigits=4).to_pandas()
    mu = df.groupby("g")["x"].transform("mean")
    sd = df.groupby("g")["x"].transform("std")
    expected = df.copy()
    expected["z"] = np.round((df["x"] - mu) / sd, 4)
    pd.testing.assert_frame_equal(
        _sorted(out), _sorted(expected), atol=1e-9
    )


def test_grouped_standardize_singleton_group_null(ray_session):
    df = pd.DataFrame({"g": ["a", "a", "b"], "x": [1.0, 3.0, 5.0]})
    out = grouped_standardize(_ds(ray_session, df, 1), ["g"], "x",
                              out_col="z").to_pandas()
    assert np.isnan(out.loc[out["g"] == "b", "z"]).all()
    a = out[out["g"] == "a"].sort_values("x")["z"].to_numpy()
    np.testing.assert_allclose(a, [-0.7071, 0.7071], atol=1e-4)


def test_union_by_name_pads_and_casts(ray_session):
    a = pd.DataFrame({"id": np.int64([1, 2]), "text": ["x", "y"]})
    b = pd.DataFrame({"id": np.int64([3]), "lang": ["en"]})
    out = union_by_name([
        _ds(ray_session, a, 1), _ds(ray_session, b, 1)
    ]).to_pandas()
    assert sorted(out.columns) == ["id", "lang", "text"]
    assert len(out) == 3
    assert out.loc[out["id"] == 3, "text"].isna().all()
    assert out.loc[out["id"] == 1, "lang"].isna().all()


def test_strip_boilerplate_exact(ray_session):
    hdr = "This site uses cookies."
    docs = pd.DataFrame({
        "doc_id": np.arange(12, dtype=np.int64),
        "text": [
            (hdr + "\n" if i % 2 == 0 else "") + f"unique body {i}"
            for i in range(12)
        ],
    })
    # doc 11 is ONLY boilerplate
    docs.loc[11, "text"] = hdr
    out = strip_boilerplate(
        _ds(ray_session, docs), min_docs=5
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(out) == 12
    for i in range(11):
        assert out.loc[i, "clean_text"] == f"unique body {i}"
    assert out.loc[11, "clean_text"] == ""


def test_strip_boilerplate_threshold_not_met(ray_session):
    docs = pd.DataFrame({
        "doc_id": np.arange(3, dtype=np.int64),
        "text": ["common\nbody0", "common\nbody1", "only2"],
    })
    out = strip_boilerplate(
        _ds(ray_session, docs, 1), min_docs=5
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert out["clean_text"].tolist() == ["common\nbody0",
                                          "common\nbody1", "only2"]


def test_strip_boilerplate_scoped_per_site(ray_session):
    hdr = "Follow us on social media."
    docs = pd.DataFrame({
        "doc_id": np.arange(8, dtype=np.int64),
        "domain": ["a.com"] * 6 + ["b.com"] * 2,
        "text": [
            hdr + f"\nbody {i}" if i < 6 or i == 6 else f"body {i}"
            for i in range(8)
        ],
    })
    out = strip_boilerplate(
        _ds(ray_session, docs), min_docs=3, scope_col="domain",
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # a.com: 6 docs share the line (>= 3) -> dropped site-wide
    for i in range(6):
        assert out.loc[i, "clean_text"] == f"body {i}"
    # b.com: only ONE doc carries the identical line (< 3) -> kept
    assert out.loc[6, "clean_text"] == hdr + "\nbody 6"
    assert out.loc[7, "clean_text"] == "body 7"
    # corpus-global mode would have dropped it everywhere
    glob = strip_boilerplate(
        _ds(ray_session, docs), min_docs=3
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert glob.loc[6, "clean_text"] == "body 6"


def test_merge_into_latest_wins_and_delete(ray_session):
    snap = pd.DataFrame({"k": np.int64([1, 2, 3, 4]),
                         "v": ["a", "b", "c", "d"]})
    changes = pd.DataFrame({
        "k": np.int64([2, 2, 3, 9]),
        "v": ["b_old", "b_new", "ignored", "inserted"],
        "op": ["U", "U", "D", "U"],
        "version": np.int64([0, 1, 1, 1]),
    })
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import merge_into

    out = merge_into(_ds(ray_session, snap), _ds(ray_session, changes, 2),
                     "k").to_pandas()
    expected = pd.DataFrame({"k": np.int64([1, 2, 4, 9]),
                             "v": ["a", "b_new", "d", "inserted"]})
    pd.testing.assert_frame_equal(_sorted(out), _sorted(expected))


def test_banded_range_join_matches_bruteforce(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        banded_range_join,
    )

    rng = np.random.default_rng(11)
    pts = pd.DataFrame({"x": rng.uniform(0, 100, 200)})
    # overlapping intervals, one spanning many bands, one empty
    ivs = pd.DataFrame({
        "name": ["a", "b", "wide", "empty"],
        "lo": [0.0, 20.0, 5.0, 50.0],
        "hi": [30.0, 60.0, 95.0, 50.0],
    })
    import ray.data

    out = banded_range_join(
        _ds(ray_session, pts), ray.data.from_pandas(ivs), "x",
        "lo", "hi", band_width=10.0, keep_cols=["name"],
    ).to_pandas()
    rows = []
    for _, p in pts.iterrows():
        for _, iv in ivs.iterrows():
            if iv["lo"] <= p["x"] < iv["hi"]:
                rows.append({"x": p["x"], "name": iv["name"]})
    expected = pd.DataFrame(rows)
    pd.testing.assert_frame_equal(_sorted(out), _sorted(expected))


def test_banded_range_join_boundary_semantics(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        banded_range_join,
    )
    import ray.data

    pts = pd.DataFrame({"x": [10.0, 20.0]})
    ivs = pd.DataFrame({"name": ["i"], "lo": [10.0], "hi": [20.0]})
    out = banded_range_join(
        _ds(ray_session, pts, 1), ray.data.from_pandas(ivs), "x",
        "lo", "hi", band_width=7.0, keep_cols=["name"],
    ).to_pandas()
    assert out["x"].tolist() == [10.0]  # lo inclusive, hi exclusive


def test_tumbling_window_agg_matches_pandas(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        tumbling_window_agg,
    )

    rng = np.random.default_rng(5)
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
        rng.integers(0, 3600, 500), unit="s")
    df = pd.DataFrame({"g": rng.choice(["a", "b"], 500),
                       "ts": ts.astype("datetime64[us]"),
                       "v": rng.uniform(0, 10, 500)})
    out = tumbling_window_agg(
        _ds(ray_session, df), ["g"], "ts", width_us=300_000_000,
        value_col="v",
    ).to_pandas()
    ref = df.copy()
    ref["win"] = ref["ts"].astype("int64") // 300_000_000
    exp = ref.groupby(["g", "win"]).agg(
        n=("v", "size"), sum_value=("v", "sum")).reset_index()
    exp["sum_value"] = np.round(exp["sum_value"], 6)
    exp["n"] = exp["n"].astype("int64")
    pd.testing.assert_frame_equal(_sorted(out), _sorted(exp),
                                  check_dtype=False, atol=1e-6)


def test_assign_splits_deterministic(ray_session):
    import hashlib

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
        assign_splits,
    )

    df = pd.DataFrame({"doc_id": np.arange(400, dtype=np.int64)})
    out = assign_splits(_ds(ray_session, df), id_col="doc_id"
                        ).to_pandas().sort_values("doc_id")
    for i, split in zip(out["doc_id"], out["split"]):
        slot = int(hashlib.md5(str(i).encode()).hexdigest()[-1], 16)
        want = "train" if slot < 12 else ("val" if slot < 14 else "test")
        assert split == want
    # all three splits populated at n=400
    assert set(out["split"]) == {"train", "val", "test"}


def test_left_join_unmatched_rows_null(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        left_join,
    )

    left = _ds(ray_session, pd.DataFrame({
        "k": [1, 2, 3, 4], "lv": ["a", "b", "c", "d"],
    }))
    right = _ds(ray_session, pd.DataFrame({
        "rk": [2, 4, 9], "rv": [20, 40, 90],
    }))
    got = _sorted(left_join(left, right, "k", "rk", ["rk", "rv"]).to_pandas())
    want = _sorted(
        pd.DataFrame({"k": [1, 2, 3, 4], "lv": list("abcd")})
        .merge(pd.DataFrame({"k": [2, 4, 9], "rv": [20, 40, 90]}),
               on="k", how="left")
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_window_percent_rank_ties(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        window_percent_rank,
    )

    df = pd.DataFrame({
        "g": ["a"] * 5 + ["b"] * 1 + ["c"] * 4,
        "v": [10.0, 10.0, 20.0, 30.0, 30.0, 7.0, 1.0, 2.0, 3.0, 4.0],
        "i": range(10),
    })
    got = window_percent_rank(_ds(ray_session, df), ["g"], "v").to_pandas()
    got = got.sort_values("i").reset_index(drop=True)
    # group a (n=5): ranks min-method [1,1,3,4,4] -> (r-1)/4
    np.testing.assert_allclose(
        got[got.g == "a"].pct_rank.to_numpy(),
        [0.0, 0.0, 0.5, 0.75, 0.75],
    )
    # single-row group -> 0.0
    assert got[got.g == "b"].pct_rank.tolist() == [0.0]
    np.testing.assert_allclose(
        got[got.g == "c"].pct_rank.to_numpy(),
        [0.0, 1 / 3, 2 / 3, 1.0], atol=1e-6,
    )


def test_funnel_counts_ordering_semantics(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        funnel_counts,
    )

    rows = [
        # u1 converts in order
        (1, "view", 10), (1, "click", 20), (1, "purchase", 30),
        # u2 clicks BEFORE any view -> stops at view stage
        (2, "click", 5), (2, "view", 10),
        # u3 views+clicks, purchase BEFORE the click -> no purchase credit
        (3, "view", 10), (3, "purchase", 15), (3, "click", 20),
        # u4 never views (click+purchase only) -> counted nowhere
        (4, "click", 1), (4, "purchase", 2),
        # u5 same-timestamp chain counts (>= semantics)
        (5, "view", 7), (5, "click", 7), (5, "purchase", 7),
        # noise types ignored
        (1, "error", 1), (2, "signup", 2),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
    got = funnel_counts(_ds(ray_session, df, blocks=3),
                        ["view", "click", "purchase"]).to_pandas() \
        .sort_values("stage_idx")
    assert got.stage.tolist() == ["view", "click", "purchase"]
    # view: u1,u2,u3,u5; click-after-view: u1,u3,u5; purchase: u1,u5
    assert got.n_users.tolist() == [4, 3, 2]


def test_retention_counts_cohorts(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        retention_counts,
    )

    B = 100  # tiny bucket for the test
    rows = [
        (1, 5), (1, 105), (1, 310),   # cohort 0: offsets 0,1,3
        (2, 50), (2, 55),             # cohort 0: offset 0 only (dedup)
        (3, 210), (3, 399),           # cohort 2: offsets 0,1
        (4, 950),                     # cohort 9: offset 0; offset>3 absent
        (4, 1500),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    got = retention_counts(_ds(ray_session, df, blocks=3),
                           ts_col="ts", bucket_us=B, max_offset=3).to_pandas()
    got_d = {(int(r.cohort), int(r.offset)): int(r.n_users)
             for r in got.itertuples()}
    assert got_d == {
        (0, 0): 2, (0, 1): 1, (0, 3): 1,
        (2, 0): 1, (2, 1): 1,
        (9, 0): 1,
    }


class TestValidationReport:
    def _report(self, rows, rules, **kw):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
            validation_report,
        )

        ds = ray.data.from_items(rows, override_num_blocks=3)
        out = validation_report(ds, rules, **kw).take_all()
        return {(r["col"], r["check"]): r for r in out}

    def test_all_checks(self, ray_session):
        rows = [
            {"k": 1, "v": 10.0, "s": "1-HIGH", "c": "ok"},
            {"k": 2, "v": 99.0, "s": "5-LOW", "c": None},
            {"k": 2, "v": -3.0, "s": "2-MED", "c": "ok"},
            {"k": 3, "v": None, "s": "junk", "c": "ok"},
        ]
        rep = self._report(rows, [
            {"col": "c", "check": "not_null"},
            {"col": "v", "check": "range", "lo": 0.0, "hi": 50.0},
            {"col": "s", "check": "regex", "pattern": "^[1-3]-"},
            {"col": "s", "check": "in_set",
             "values": ["1-HIGH", "2-MED"]},
            {"col": "k", "check": "unique"},
        ])
        assert rep[("c", "not_null")]["n_violations"] == 1
        # 99.0 out of range, -3.0 below, None never satisfies
        assert rep[("v", "range")]["n_violations"] == 3
        assert rep[("s", "regex")]["n_violations"] == 2
        assert rep[("s", "in_set")]["n_violations"] == 2
        # 4 rows, 3 distinct k values -> 1 duplicate
        assert rep[("k", "unique")]["n_violations"] == 1
        for r in rep.values():
            assert r["n_rows"] == 4
        assert rep[("k", "unique")]["violation_frac"] == 0.25

    def test_clean_table_reports_zero(self, ray_session):
        rows = [{"k": i, "v": float(i)} for i in range(10)]
        rep = self._report(rows, [
            {"col": "k", "check": "unique"},
            {"col": "v", "check": "range", "lo": 0.0, "hi": 9.0},
        ])
        assert all(r["n_violations"] == 0 for r in rep.values())
        assert all(r["violation_frac"] == 0.0 for r in rep.values())

    def test_partition_independence(self, ray_session):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
            validation_report,
        )

        rows = [{"k": i % 7, "v": float(i % 11)} for i in range(100)]
        rules = [{"col": "k", "check": "unique"},
                 {"col": "v", "check": "range", "lo": 1.0, "hi": 8.0}]
        outs = []
        for blocks in (1, 5):
            ds = ray.data.from_items(rows, override_num_blocks=blocks)
            outs.append(sorted(
                tuple(sorted(r.items()))
                for r in validation_report(ds, rules).take_all()
            ))
        assert outs[0] == outs[1]


class TestZorderSort:
    def test_interleave_and_sortedness(self, ray_session):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
            zorder_sort,
        )

        rows = [{"x": x, "y": y} for x in range(8) for y in range(8)]
        out = zorder_sort(
            ray.data.from_items(rows, override_num_blocks=4),
            ["x", "y"], bits=3, bucket_bits=2,
        ).take_all()
        # hand-check a few Morton codes: z(x,y) interleaves x at even
        # bit positions, y at odd ones (3 bits each here).
        def morton(x, y):
            return sum((((x >> j) & 1) << (2 * j))
                       | (((y >> j) & 1) << (2 * j + 1))
                       for j in range(3))
        for r in out:
            assert r["zkey"] == morton(r["x"], r["y"])
            assert r["zbucket"] == r["zkey"] >> 4
        zkeys = [r["zkey"] for r in out]
        assert zkeys == sorted(zkeys)

    def test_bucket_locality(self, ray_session):
        # the point of the layout: a square range in (x, y) touches few
        # buckets after z-sort, many under a linear x-major layout.
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
            zorder_sort,
        )

        n = 32
        rows = [{"x": x, "y": y} for x in range(n) for y in range(n)]
        out = zorder_sort(
            ray.data.from_items(rows, override_num_blocks=4),
            ["x", "y"], bits=5, bucket_bits=4,
        ).take_all()
        in_square = [r for r in out if r["x"] < 8 and r["y"] < 8]
        z_buckets = {r["zbucket"] for r in in_square}
        # 16 buckets cover the 32x32 grid; the aligned 8x8 corner is
        # exactly one z-bucket (64 cells = one 16th of 1024).
        assert len(z_buckets) == 1
        # linear layout: bucket by x-major row id >> 6 — the same
        # square spans 4 stripes (each 64-cell bucket holds two 32-cell
        # x-rows, and the square crosses 8 x-rows).
        lin_buckets = {(r["x"] * n + r["y"]) >> 6 for r in in_square}
        assert len(lin_buckets) == 4


class TestIncrementalAgg:
    def test_refresh_equals_full_and_retractions(self, ray_session):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
            incremental_agg,
        )

        base_agg = ray.data.from_items([
            {"k": "a", "sum_val": 10.0, "n": 2},
            {"k": "b", "sum_val": 7.0, "n": 1},
            {"k": "c", "sum_val": 5.0, "n": 1},
        ])
        # inserts for a and d; full retraction of c; partial of b
        delta = ray.data.from_items([
            {"k": "a", "v": 4.0, "w": 1},
            {"k": "d", "v": 9.0, "w": 1},
            {"k": "c", "v": 5.0, "w": -1},
            {"k": "b", "v": 3.0, "w": 1},
            {"k": "b", "v": 7.0, "w": -1},
        ], override_num_blocks=2)
        out = {r["k"]: r for r in incremental_agg(
            base_agg, delta, ["k"], "v", weight_col="w").take_all()}
        assert out["a"] == {"k": "a", "sum_val": 14.0, "n": 3}
        assert out["b"] == {"k": "b", "sum_val": 3.0, "n": 1}
        assert out["d"] == {"k": "d", "sum_val": 9.0, "n": 1}
        assert "c" not in out          # count reached 0 -> group gone
        assert set(out) == {"a", "b", "d"}

    def test_insert_only_no_weight_col(self, ray_session):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
            incremental_agg,
        )

        base_agg = ray.data.from_items(
            [{"k": 1, "sum_val": 2.5, "n": 1}])
        delta = ray.data.from_items(
            [{"k": 1, "v": 1.5}, {"k": 2, "v": 4.0}])
        out = {r["k"]: r for r in incremental_agg(
            base_agg, delta, ["k"], "v").take_all()}
        assert out[1] == {"k": 1, "sum_val": 4.0, "n": 2}
        assert out[2] == {"k": 2, "sum_val": 4.0, "n": 1}


class TestGiniCoefficient:
    def _gini(self, keys_list, **kw):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
            gini_coefficient,
        )

        ds = ray.data.from_items([{"k": k} for k in keys_list],
                                 override_num_blocks=3)
        return gini_coefficient(ds, ["k"], **kw).take_all()[0]

    def test_uniform_is_zero(self, ray_session):
        out = self._gini([i % 5 for i in range(50)])
        assert out["gini"] == 0.0
        assert out["n_keys"] == 5 and out["n_rows"] == 50

    def test_matches_sorted_identity(self, ray_session):
        import numpy as np

        keys = [0] * 50 + [1] * 10 + [2] * 5 + [3] * 1
        out = self._gini(keys)
        x = np.sort(np.array([50, 10, 5, 1], float))
        n = len(x)
        expected = ((2 * np.arange(1, n + 1) - n - 1) * x).sum() / (
            n * x.sum())
        assert abs(out["gini"] - round(expected, 6)) < 1e-9

    def test_extreme_skew_approaches_one(self, ray_session):
        out = self._gini([0] * 99 + list(range(1, 100)))
        assert out["gini"] > 0.45   # half the mass on one of 100 keys


class TestKSStatistic:
    def _ks(self, rows, **kw):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
            ks_statistic,
        )

        ds = ray.data.from_items(rows, override_num_blocks=3)
        return ks_statistic(ds, "v", "s", **kw).take_all()[0]

    def test_identical_distributions_zero(self, ray_session):
        rows = ([{"v": float(i % 7), "s": True} for i in range(70)]
                + [{"v": float(i % 7), "s": False} for i in range(70)])
        out = self._ks(rows)
        assert out["ks"] == 0.0
        assert out["n_sample"] == 70 and out["n_rest"] == 70

    def test_disjoint_distributions_one(self, ray_session):
        rows = ([{"v": 1.0, "s": True}] * 10
                + [{"v": 9.0, "s": False}] * 10)
        assert self._ks(rows)["ks"] == 1.0

    def test_matches_scipy_style_reference(self, ray_session):
        import numpy as np

        rng = np.random.default_rng(11)
        a = rng.integers(0, 20, 80).astype(float)
        b = rng.integers(5, 25, 120).astype(float)
        rows = ([{"v": float(x), "s": True} for x in a]
                + [{"v": float(x), "s": False} for x in b])
        vals = np.unique(np.concatenate([a, b]))
        fa = np.searchsorted(np.sort(a), vals, side="right") / len(a)
        fb = np.searchsorted(np.sort(b), vals, side="right") / len(b)
        expected = round(float(np.abs(fa - fb).max()), 6)
        assert self._ks(rows)["ks"] == expected


class TestExactQuantiles:
    def _vals(self, data, qs, **kw):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
            exact_quantiles,
        )

        ds = ray.data.from_items([{"v": float(x)} for x in data],
                                 override_num_blocks=3)
        return exact_quantiles(ds, "v", qs, **kw)

    def test_matches_quantile_disc_semantics(self, ray_session):
        import numpy as np

        rng = np.random.default_rng(5)
        data = rng.normal(100.0, 30.0, 777)
        qs = [0.1, 0.25, 0.5, 0.75, 0.9]
        got = self._vals(data, qs, rows_limit=32, bins_per_target=16)
        s = np.sort(data)
        for q, g in zip(qs, got):
            k = max(1, int(np.ceil(q * len(s))))
            assert g == s[k - 1]   # 1-based ceil(q*n)-th smallest

    def test_tie_clusters_and_extremes(self, ray_session):
        data = [5.0] * 100 + [1.0] * 3 + [9.0] * 3
        got = self._vals(data, [0.01, 0.5, 0.99, 1.0],
                         rows_limit=4, bins_per_target=8)
        assert got == [1.0, 5.0, 9.0, 9.0]

    def test_small_bins_force_multi_round(self, ray_session):
        import numpy as np

        data = np.arange(2000, dtype=float)
        got = self._vals(data, [0.333, 0.667],
                         rows_limit=8, bins_per_target=4,
                         max_rounds=20)
        s = np.sort(data)
        for q, g in zip([0.333, 0.667], got):
            assert g == s[max(1, int(np.ceil(q * len(s)))) - 1]


def test_locf_fill_carries_forward_and_leading_nulls(ray_session):
    import datetime as dt

    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        locf_fill,
    )

    day = lambda d: dt.datetime(2024, 1, d)  # noqa: E731
    rows = [
        # key "a": observed day 1 (mean 2.0) and day 4 (mean 6.0)
        {"k": "a", "ts": day(1), "v": 1.0},
        {"k": "a", "ts": day(1), "v": 3.0},
        {"k": "a", "ts": day(4), "v": 6.0},
        # key "b": first observed day 3 -> days 1-2 stay NULL
        {"k": "b", "ts": day(3), "v": 5.0},
        # key "c" pins the global range to day 5
        {"k": "c", "ts": day(5), "v": 9.0},
    ]
    out = {(r["k"], r["day"].day): r["filled_val"]
           for r in locf_fill(
               ray.data.from_items(rows, override_num_blocks=2),
               "k", "ts", "v").take_all()}
    assert len(out) == 15                      # 3 keys x 5 days
    assert out[("a", 1)] == 2.0                # mean of 1 and 3
    assert out[("a", 2)] == 2.0 and out[("a", 3)] == 2.0   # carried
    assert out[("a", 4)] == 6.0 and out[("a", 5)] == 6.0
    assert out[("b", 1)] is None and out[("b", 2)] is None
    assert out[("b", 3)] == 5.0 and out[("b", 5)] == 5.0
    assert out[("c", 5)] == 9.0 and out[("c", 1)] is None


def test_fk_coverage_counts(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        fk_coverage,
    )

    child = ray.data.from_items(
        [{"fk": k} for k in [1, 1, 1, 2, 3, 3, 9, 9, 9, 9]],
        override_num_blocks=3)
    parent = ray.data.from_items(
        [{"pk": k} for k in [1, 2, 2, 5]], override_num_blocks=2)
    out = fk_coverage(child, parent, "fk", "pk").take_all()[0]
    assert out["n_child_rows"] == 10
    assert out["n_child_keys"] == 4          # 1, 2, 3, 9
    assert out["n_matched_keys"] == 2        # 1 and 2
    assert out["n_orphan_rows"] == 6         # 3 x2 + 9 x4
    assert out["row_coverage"] == 0.4
    assert out["key_coverage"] == 0.5


def test_analyze_table_with_nulls(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        analyze_table,
    )

    rows = [{"a": float(i % 5), "b": (float(i) if i % 3 else None)}
            for i in range(30)]
    out = {r["col"]: r for r in analyze_table(
        ray.data.from_items(rows, override_num_blocks=3),
        ["a", "b"]).take_all()}
    assert out["a"] == {"col": "a", "n_rows": 30, "n_nulls": 0,
                        "n_distinct": 5, "min_val": 0.0,
                        "max_val": 4.0}
    # i % 3 == 0 -> 10 nulls; non-null values are the 20 others
    assert out["b"]["n_nulls"] == 10
    assert out["b"]["n_distinct"] == 20
    assert out["b"]["min_val"] == 1.0 and out["b"]["max_val"] == 29.0
