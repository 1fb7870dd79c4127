"""Product quantization: ADC math exactness, partitioning-independent
codes, and recall vs brute-force cosine on clustered data."""

import numpy as np
import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray import config


def _clustered(n_clusters=16, per=25, dim=32, seed=5, noise=0.6):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim)) * 3.0
    rows = []
    for c in range(n_clusters):
        pts = centers[c] + rng.normal(size=(per, dim)) * noise
        rows.append(pts)
    x = np.concatenate(rows)
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    return pd.DataFrame({
        "vec_id": np.arange(len(x), dtype=np.int64),
        "embedding": [v.astype(np.float32).tolist() for v in x],
    }), x


def _ds(ray, df, blocks=4):
    import ray.data

    return ray.data.from_pandas(df).repartition(blocks)


def test_adc_table_matches_reconstruction(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
        adc_table,
        pq_encode,
        pq_train_codebooks,
    )

    df, x = _clustered()
    ds = _ds(ray_session, df)
    books = pq_train_codebooks(ds, dim=32, m=4, nbits=4, iters=3)
    assert books.shape == (4, 16, 8)
    q = x[7]
    lut = adc_table(q, books)
    codes = {r["vec_id"]: np.asarray(r["code"])
             for r in pq_encode(ds, books).take_all()}
    # LUT-summed distance == explicit ||q_s - centroid||^2 sum
    for vid in (0, 11, 200):
        c = codes[vid]
        via_lut = lut[np.arange(4), c].sum()
        explicit = sum(
            ((q[s * 8:(s + 1) * 8] - books[s][c[s]]) ** 2).sum()
            for s in range(4))
        assert via_lut == pytest.approx(explicit, rel=1e-12)


def test_codes_partitioning_independent(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
        pq_encode,
        pq_train_codebooks,
    )

    df, _ = _clustered()
    a = _ds(ray_session, df, 2)
    b = _ds(ray_session, df, 16)
    books = pq_train_codebooks(a, dim=32, m=4, nbits=4, iters=2)
    ca = sorted((r["vec_id"], tuple(r["code"]))
                for r in pq_encode(a, books).take_all())
    cb = sorted((r["vec_id"], tuple(r["code"]))
                for r in pq_encode(b, books).take_all())
    assert ca == cb


def test_knn_pq_recall_vs_brute(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
        knn_brute,
        knn_pq,
    )

    df, x = _clustered()
    ds = _ds(ray_session, df)
    q = x[42]  # a point inside cluster 1
    brute = [r["vec_id"] for r in
             knn_brute(ds, q.tolist(), k=10).take_all()]
    approx = [r["vec_id"] for r in
              knn_pq(ds, q.tolist(), dim=32, k=10, m=8,
                     nbits=6, iters=4).take_all()]
    recall = len(set(brute) & set(approx)) / 10
    assert recall >= 0.7, (brute, approx)


def test_knn_ivfpq_matches_pq_within_probed_lists(ray_session, tmp_path):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
        knn_brute,
        knn_ivfpq,
    )

    df, x = _clustered()
    ds = _ds(ray_session, df)
    q = x[42]
    brute = [r["vec_id"] for r in
             knn_brute(ds, q.tolist(), k=10).take_all()]
    approx = [r["vec_id"] for r in
              knn_ivfpq(ds, q.tolist(), dim=32, k=10, nlist=16,
                        nprobe=4, m=8, nbits=6, iters=4,
                        index_dir=str(tmp_path)).take_all()]
    recall = len(set(brute) & set(approx)) / 10
    assert recall >= 0.7, (brute, approx)
    # serving the same query again hits the persisted index
    again = [r["vec_id"] for r in
             knn_ivfpq(ds, q.tolist(), dim=32, k=10, nlist=16,
                       nprobe=4, m=8, nbits=6, iters=4,
                       index_dir=str(tmp_path)).take_all()]
    assert again == approx


def test_ivfpq_rerank_scores_exact_and_recall_monotone(ray_session,
                                                       tmp_path):
    """Re-ranked scores are TRUE cosines (agree with brute per id) and
    recall@k is >= plain IVF-PQ's on the same index params."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
        knn_brute,
        knn_ivfpq,
        knn_ivfpq_rerank,
    )

    df, x = _clustered()
    ds = _ds(ray_session, df)
    q = x[42]
    exact = {r["vec_id"]: r["score"] for r in
             knn_brute(ds, q.tolist(), k=400).take_all()}
    brute_top = sorted(exact, key=lambda i: (-exact[i], i))[:10]
    plain = [r["vec_id"] for r in
             knn_ivfpq(ds, q.tolist(), dim=32, k=10, nlist=16, nprobe=4,
                       m=8, nbits=6, iters=4,
                       index_dir=str(tmp_path)).take_all()]
    rer = knn_ivfpq_rerank(ds, q.tolist(), dim=32, k=10, rerank_factor=4,
                           nlist=16, nprobe=4, m=8, nbits=6, iters=4,
                           index_dir=str(tmp_path)).take_all()
    for r in rer:
        assert r["score"] == pytest.approx(exact[r["vec_id"]], abs=1e-9)
    r_plain = len(set(brute_top) & set(plain)) / 10
    r_rerank = len(set(brute_top) & {r["vec_id"] for r in rer}) / 10
    assert r_rerank >= r_plain, (r_rerank, r_plain)


def test_ivfpq_rerank_full_probe_equals_exact(ray_session, tmp_path):
    """nprobe=nlist + a candidate pool covering the corpus makes the
    re-ranked top-k EXACTLY the brute-force top-k (ids and scores)."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
        knn_brute,
        knn_ivfpq_rerank,
    )

    df, x = _clustered()
    ds = _ds(ray_session, df)
    q = x[7]
    brute = knn_brute(ds, q.tolist(), k=10).take_all()
    rer = knn_ivfpq_rerank(ds, q.tolist(), dim=32, k=10,
                           rerank_factor=len(df) // 10 + 1, nlist=16,
                           nprobe=16, m=8, nbits=6, iters=4,
                           index_dir=str(tmp_path)).take_all()
    assert [r["vec_id"] for r in rer] == [r["vec_id"] for r in brute]
    for a, b in zip(rer, brute):
        assert a["score"] == pytest.approx(b["score"], abs=1e-9)


def test_ivfpq_rerank_local_equals_distributed(ray_session, tmp_path,
                                               monkeypatch):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
        knn_ivfpq_rerank,
    )

    df, x = _clustered()
    ds = _ds(ray_session, df)
    q = x[3]

    def run():
        return [(r["vec_id"], round(r["score"], 12)) for r in
                knn_ivfpq_rerank(ds, q.tolist(), dim=32, k=10,
                                 rerank_factor=4, nlist=16, nprobe=4,
                                 m=8, nbits=6, iters=4,
                                 index_dir=str(tmp_path)).take_all()]

    local = run()
    monkeypatch.setattr(config, "KNN_LOCAL_ROWS", 0)
    assert run() == local
