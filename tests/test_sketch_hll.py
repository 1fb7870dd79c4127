"""HyperLogLog sketch + grouped entropy: exactness of the primitives
(bit_length, merge semantics) and statistical error bounds vs exact
distinct counts."""

import numpy as np
import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.functions import hll


def test_bit_length_matches_python():
    rng = np.random.default_rng(7)
    xs = np.concatenate([
        rng.integers(0, 2**63, 1000, dtype=np.uint64),
        np.array([0, 1, 2, 3, 2**52, 2**52 + 1, 2**63 - 1,
                  np.iinfo(np.uint64).max], np.uint64),
        (np.uint64(1) << np.arange(64, dtype=np.uint64)),
    ])
    got = hll._bit_length_u64(xs)
    expected = np.array([int(x).bit_length() for x in xs], np.int64)
    np.testing.assert_array_equal(got, expected)


def test_estimate_error_bound():
    # ~1.6% standard error at p=12; assert a generous 5% at 50k distinct
    rng = np.random.default_rng(11)
    vals = pd.Series(rng.choice(200_000, size=120_000, replace=True))
    exact = vals.nunique()
    h = pd.util.hash_pandas_object(vals, index=False).to_numpy(np.uint64)
    est = hll.estimate(hll.update_registers(h, 12))
    assert abs(est - exact) / exact < 0.05


def test_merge_equals_single_pass():
    rng = np.random.default_rng(3)
    h = rng.integers(0, 2**63, 10_000, dtype=np.uint64)
    one = hll.update_registers(h, 10)
    parts = [hll.update_registers(c, 10) for c in np.array_split(h, 7)]
    acc = hll.new_registers(10)
    for prt in parts:
        acc = hll.merge_registers(acc, prt)
    np.testing.assert_array_equal(one, acc)


def test_grouped_registers_match_per_group():
    rng = np.random.default_rng(5)
    h = rng.integers(0, 2**63, 5_000, dtype=np.uint64)
    codes = rng.integers(0, 4, 5_000)
    mat = hll.grouped_registers(h, codes, 4, 10)
    for g in range(4):
        np.testing.assert_array_equal(
            mat[g], hll.update_registers(h[codes == g], 10))


def test_small_range_linear_counting_near_exact():
    # tiny cardinalities sit in the linear-counting regime
    for n in (1, 5, 50):
        vals = pd.Series(np.arange(n))
        h = pd.util.hash_pandas_object(vals, index=False).to_numpy(
            np.uint64)
        est = hll.estimate(hll.update_registers(h, 12))
        assert abs(est - n) <= max(1, 0.05 * n)


def _ds(ray, df):
    import ray.data

    return ray.data.from_pandas(df)


def test_approx_count_distinct_global(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        approx_count_distinct,
    )

    rng = np.random.default_rng(17)
    df = pd.DataFrame({"v": rng.choice(30_000, size=80_000)})
    exact = df["v"].nunique()
    got = approx_count_distinct(
        _ds(ray_session, df), ["v"], p=12).to_pandas()
    assert len(got) == 1
    est = int(got["approx_distinct"].iloc[0])
    assert abs(est - exact) / exact < 0.05


def test_approx_count_distinct_grouped(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        approx_count_distinct,
    )

    rng = np.random.default_rng(23)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], size=60_000),
        "v": rng.choice(8_000, size=60_000),
    })
    exact = df.groupby("g")["v"].nunique()
    got = approx_count_distinct(
        _ds(ray_session, df), ["v"], keys=["g"], p=12,
    ).to_pandas().set_index("g")["approx_distinct"]
    assert sorted(got.index) == ["a", "b", "c"]
    for g in "abc":
        assert abs(got[g] - exact[g]) / exact[g] < 0.06


def test_grouped_entropy_matches_manual(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        grouped_entropy,
    )

    df = pd.DataFrame({
        # a: uniform over 4 values -> exactly 2 bits; b: single value -> 0
        "g": ["a"] * 8 + ["b"] * 3,
        "v": ["w", "x", "y", "z"] * 2 + ["only"] * 3,
    })
    got = grouped_entropy(_ds(ray_session, df), ["g"], "v").to_pandas()
    got = got.set_index("g")["entropy"]
    assert got["a"] == pytest.approx(2.0, abs=1e-9)
    assert got["b"] == pytest.approx(0.0, abs=1e-9)


def test_grouped_entropy_partitioning_independent(ray_session,
                                                  fixed_partitions):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        grouped_entropy,
    )

    rng = np.random.default_rng(29)
    df = pd.DataFrame({
        "g": rng.choice(10, size=5_000),
        "v": rng.choice(list("abcdefg"), size=5_000,
                        p=[0.4, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05]),
    })
    fixed_partitions(2)
    a = grouped_entropy(_ds(ray_session, df), ["g"], "v").to_pandas()
    fixed_partitions(16)
    b = grouped_entropy(_ds(ray_session, df), ["g"], "v").to_pandas()
    counts = df.groupby(["g", "v"]).size()
    probs = counts / counts.groupby(level=0).transform("sum")
    manual = (-probs * np.log2(probs)).groupby(level=0).sum().round(6)
    for out in (a, b):
        got = out.sort_values("g").reset_index(drop=True)["entropy"]
        np.testing.assert_allclose(got, manual.values, atol=2e-6)


@pytest.mark.parametrize("op", ["approx_count_distinct",
                                "approx_frequencies"])
def test_sketch_merge_salts_spread(ray_session, monkeypatch, op):
    """Each batch's partial sketch takes its merge salt from its first
    row's hash, so over 16 partials more than one salt shows (a uint64
    ``%`` a Python int runs in float64 and made every salt 0), and the
    merged answer equals the single-pass sketch."""
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.functions import cms
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines import relational

    salts = []
    real = relational.grouped_apply

    def spy(ds, keys, fn, **kw):
        if keys == ["__salt"]:
            salts.extend(ds.to_pandas()["__salt"].tolist())
        return real(ds, keys, fn, **kw)

    monkeypatch.setattr(relational, "grouped_apply", spy)
    # 16 blocks = 16 partials; every block's first value hashes to
    # >= 2^58, where a float64 remainder mod 32 or 64 is always 0
    df = pd.DataFrame({"v": np.arange(1001, 4201)})
    ds = ray.data.from_pandas([df.iloc[i:i + 200]
                               for i in range(0, 3200, 200)])
    if op == "approx_count_distinct":
        got = relational.approx_count_distinct(ds, ["v"], p=12).to_pandas()
        h = pd.util.hash_pandas_object(df[["v"]], index=False).to_numpy(
            np.uint64)
        want = int(round(hll.estimate(hll.update_registers(h, 12))))
        assert got["approx_distinct"].tolist() == [want]
    else:
        probes = [1001, 1007, 4200, 9999]
        got = relational.approx_frequencies(ds, "v", probes).to_pandas()
        want = cms.point_query(pd.Series(probes),
                               cms.update_counts(df["v"]))
        assert got["est"].tolist() == want.tolist()
    assert len(salts) >= 16
    assert len(set(salts)) > 1
