"""ROC-AUC and calibration bins (pipelines/evalmetrics.py) vs a
driver-side pairwise-comparison reference."""

import numpy as np
import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.evalmetrics import (
    calibration_bins,
    ranking_auc,
)


def _ref_auc(scores, labels, ndigits=3):
    s = np.round(np.asarray(scores, float), ndigits)
    y = np.asarray(labels, int)
    pos, neg = s[y == 1], s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        return None
    wins = 0.0
    for p in pos:
        wins += (p > neg).sum() + 0.5 * (p == neg).sum()
    return round(wins / (len(pos) * len(neg)), 6)


def _ds(ray_session, scores, labels, blocks=3):
    import ray.data

    return ray.data.from_pandas(
        pd.DataFrame({"score": scores, "pos": labels})
    ).repartition(blocks)


def test_auc_matches_pairwise_reference(ray_session):
    rng = np.random.default_rng(5)
    scores = rng.random(300)
    labels = (scores + rng.normal(0, 0.3, 300) > 0.5).astype(int)
    out = ranking_auc(_ds(ray_session, scores, labels)).to_pylist()[0]
    assert out["n_pos"] == int(labels.sum())
    assert out["n_neg"] == int((1 - labels).sum())
    assert out["auc"] == pytest.approx(
        _ref_auc(scores, labels), abs=1e-9)


def test_auc_perfect_reversed_constant(ray_session):
    scores = [0.9, 0.8, 0.2, 0.1]
    def auc(scores, labels):
        return ranking_auc(_ds(ray_session, scores, labels)).to_pylist()[0]["auc"]

    assert auc(scores, [1, 1, 0, 0]) == 1.0
    assert auc(scores, [0, 0, 1, 1]) == 0.0
    assert auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5


def test_auc_degenerate_class_is_null(ray_session):
    out = ranking_auc(_ds(ray_session, [0.1, 0.9], [1, 1])).to_pylist()[0]
    assert out["auc"] is None
    assert out["n_neg"] == 0


def test_auc_tie_quantization(ray_session):
    # distinct raw scores that collide after 3-digit rounding
    scores = [0.1231, 0.1234, 0.9]
    labels = [1, 0, 1]
    got = ranking_auc(_ds(ray_session, scores, labels)).to_pylist()[0]["auc"]
    assert got == _ref_auc(scores, labels) == 0.75


def test_auc_partition_independence(ray_session, fixed_partitions):
    rng = np.random.default_rng(9)
    scores = rng.random(200)
    labels = rng.integers(0, 2, 200)
    fixed_partitions(2)
    a = ranking_auc(_ds(ray_session, scores, labels, 2)).to_pylist()[0]
    fixed_partitions(9)
    b = ranking_auc(_ds(ray_session, scores, labels, 7)).to_pylist()[0]
    assert a == b


def test_calibration_bins(ray_session):
    scores = [0.05, 0.05, 0.15, 0.95, 1.0, -0.2]
    labels = [0, 1, 1, 1, 1, 0]
    out = calibration_bins(_ds(ray_session, scores, labels)).to_pandas()
    got = out.set_index("bin")[["n", "n_pos", "frac_pos"]]
    # 1.0 clamps into bin 9; -0.2 clamps into bin 0
    assert got.loc[0].tolist() == [3, 1, round(1 / 3, 6)]
    assert got.loc[1].tolist() == [1, 1, 1.0]
    assert got.loc[9].tolist() == [2, 2, 1.0]
    assert len(out) == 3


def test_cohens_kappa(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.evalmetrics import (
        cohens_kappa,
    )

    census = ray.data.from_pandas(pd.DataFrame({
        "a": [1, 1, 0, 0], "b": [1, 0, 1, 0],
        "n": [20, 5, 10, 15],
    }))
    out = cohens_kappa(census, "a", "b").to_pylist()[0]
    n, a, d, g1, q1 = 50, 20, 15, 25, 30
    po = (a + d) / n
    pe = (g1 * q1 + (n - g1) * (n - q1)) / (n * n)
    assert out["n_docs"] == 50
    assert out["po"] == round(po, 6)
    assert out["pe"] == round(pe, 6)
    assert out["kappa"] == pytest.approx((po - pe) / (1 - pe), abs=1e-6)


def test_cohens_kappa_perfect_and_chance(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.evalmetrics import (
        cohens_kappa,
    )

    perfect = ray.data.from_pandas(pd.DataFrame({
        "a": [1, 0], "b": [1, 0], "n": [30, 70]}))
    assert cohens_kappa(perfect, "a", "b").to_pylist()[0]["kappa"] == 1.0
    # independence: po == pe -> kappa 0
    indep = ray.data.from_pandas(pd.DataFrame({
        "a": [1, 1, 0, 0], "b": [1, 0, 1, 0],
        "n": [25, 25, 25, 25]}))
    assert cohens_kappa(indep, "a", "b").to_pylist()[0]["kappa"] == 0.0


def test_classification_prf(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.evalmetrics import (
        classification_prf,
    )

    census = ray.data.from_pandas(pd.DataFrame({
        "declared": ["en", "en", "de", "xx"],
        "pred": ["en", "de", "de", "en"],
        "n": [8, 2, 5, 1],
    }))
    out = classification_prf(census).to_pandas().set_index("label")
    # en: tp=8, pred=9, true=10
    assert out.loc["en", "tp"] == 8
    assert out.loc["en", "precision"] == round(8 / 9, 6)
    assert out.loc["en", "recall"] == 0.8
    p, r = 8 / 9, 0.8
    assert out.loc["en", "f1"] == pytest.approx(2 * p * r / (p + r),
                                                abs=1e-6)
    # de: tp=5, pred=7, true=5 -> recall 1.0
    assert out.loc["de", "recall"] == 1.0
    # xx: never predicted -> precision NULL, tp=0 -> f1 NULL
    assert np.isnan(out.loc["xx", "precision"])
    assert np.isnan(out.loc["xx", "f1"])
    assert out.loc["xx", "recall"] == 0.0
