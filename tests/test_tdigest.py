"""t-digest sketch: compression bound, merge accuracy vs exact ranks,
and the grouped Ray operator vs the exact quantile operator."""

import numpy as np
import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.functions import tdigest as td

QS = [0.01, 0.25, 0.5, 0.9, 0.99]


def _rank_error(values: np.ndarray, est: float, q: float) -> float:
    return abs((values <= est).mean() - q)


def test_compress_bounds_centroid_count():
    rng = np.random.default_rng(0)
    v = rng.lognormal(0, 2, 100_000)
    m, w = td.from_values(v, delta=200.0)
    assert len(m) <= 2 * 200
    assert w.sum() == pytest.approx(len(v))
    assert np.all(np.diff(m) >= 0)          # sorted by mean


def test_merged_digest_rank_error_bound():
    rng = np.random.default_rng(1)
    v = rng.lognormal(0, 2, 50_000)
    # batch-wise digests merged in two different tree shapes
    parts = [td.from_values(c) for c in np.array_split(v, 57)]
    flat = td.merge(parts)
    left = td.merge(parts[:29])
    right = td.merge(parts[29:])
    tree = td.merge([left, right])
    sv = np.sort(v)
    for digest in (flat, tree):
        for q in QS:
            est = td.quantile(*digest, q)
            assert _rank_error(sv, est, q) < 0.01, (q, est)


def test_digest_edge_cases():
    assert np.isnan(td.quantile(*td.from_values(np.array([])), 0.5))
    m, w = td.from_values(np.array([7.0]))
    assert td.quantile(m, w, 0.0) == 7.0 and td.quantile(m, w, 1.0) == 7.0
    # constant data: every quantile is the constant
    m, w = td.from_values(np.full(1000, 3.25))
    for q in QS:
        assert td.quantile(m, w, q) == 3.25
    # NaNs ignored
    m, w = td.from_values(np.array([1.0, np.nan, 2.0, np.nan]))
    assert w.sum() == 2


def test_grouped_quantile_sketch_close_to_exact(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        grouped_quantile,
        grouped_quantile_sketch,
    )

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "k": rng.integers(0, 4, 30_000).astype(np.int64),
        "v": rng.lognormal(0, 1.5, 30_000),
    })
    ds = ray.data.from_pandas(df).repartition(8)
    sk = grouped_quantile_sketch(ds, ["k"], "v", [0.5, 0.95]).to_pandas() \
        .sort_values("k").reset_index(drop=True)
    assert sk["k"].tolist() == [0, 1, 2, 3]
    for q, col in ((0.5, "q0.5"), (0.95, "q0.95")):
        exact = grouped_quantile(ds, ["k"], "v", q, "x").to_pandas() \
            .set_index("k")["x"]
        for k in range(4):
            grp = df[df["k"] == k]["v"].to_numpy()
            err = _rank_error(np.sort(grp), sk.loc[k, col], q)
            assert err < 0.015, (k, q, sk.loc[k, col], exact[k])
