"""BM25 ranking — math pinned against a direct numpy reference and the
per-batch top-k truncation exercised with more hits than topk."""

import numpy as np
import pandas as pd

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
    bm25_rank,
)


def _ref(docs: dict[int, str], terms, k1=1.2, b=0.75):
    toks = {d: [t for t in s.split(" ") if t] for d, s in docs.items()}
    n = len(docs)
    avgdl = sum(len(t) for t in toks.values()) / n
    df = {t: sum(1 for ts in toks.values() if t in ts) for t in terms}
    out = {}
    for d, ts in toks.items():
        s = 0.0
        for t in terms:
            tf = ts.count(t)
            if tf == 0:
                continue
            idf = np.log((n - df[t] + 0.5) / (df[t] + 0.5) + 1.0)
            s += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(ts) / avgdl))
        if s > 0:
            out[d] = s
    return out


def test_bm25_matches_reference_and_truncates(ray_session):
    import ray.data

    rng = np.random.default_rng(3)
    vocab = ["alpha", "beta", "gamma", "delta", "query", "term"]
    docs = {
        d: " ".join(rng.choice(vocab, size=int(rng.integers(3, 40))))
        for d in range(60)
    }
    docs[99] = "filler only words here"  # no query term -> excluded
    ds = ray.data.from_pandas(pd.DataFrame({
        "doc_id": list(docs), "text": list(docs.values()),
    }))
    got = bm25_rank(ds, ["query", "term"], topk=5).to_pandas()
    ref = _ref(docs, ["query", "term"])
    top = sorted(ref.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert list(got.doc_id) == [d for d, _ in top]
    np.testing.assert_allclose(
        got.score.to_numpy(), [round(s, 6) for _, s in top], atol=1e-6
    )
    assert 99 not in set(got.doc_id)


def test_knn_join_matches_brute(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
        knn_join,
    )

    rng = np.random.default_rng(11)
    corpus = rng.standard_normal((200, 16))
    qmat = rng.standard_normal((4, 16))
    import pyarrow as pa

    tbl = pa.table({
        "vec_id": pa.array(np.arange(200), pa.int64()),
        "embedding": pa.array(
            [r.tolist() for r in corpus.astype(np.float32)],
            pa.list_(pa.float32()),
        ),
    })
    # multiple blocks exercise the per-batch partial combiner
    ds = ray.data.from_arrow(tbl).repartition(7)
    got = knn_join(ds, [10, 11, 12, 13], qmat, k=5).to_pandas() \
        .sort_values(["qid", "rnk"]).reset_index(drop=True)

    cn = corpus / np.linalg.norm(corpus, axis=1, keepdims=True)
    # corpus stored as float32 — reference must normalize the same values
    cn32 = corpus.astype(np.float32).astype(np.float64)
    cn = cn32 / np.linalg.norm(cn32, axis=1, keepdims=True)
    qn = qmat / np.linalg.norm(qmat, axis=1, keepdims=True)
    s = qn @ cn.T
    for qi, qid in enumerate([10, 11, 12, 13]):
        order = np.lexsort((np.arange(200), -s[qi]))[:5]
        sub = got[got.qid == qid]
        assert list(sub.vec_id) == list(order)
        np.testing.assert_allclose(
            sub.score.to_numpy(), np.round(s[qi][order], 6), atol=1e-6
        )
        assert list(sub.rnk) == [1, 2, 3, 4, 5]


def test_exact_quantile_matches_duckdb(ray_session):
    import duckdb
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        exact_quantile,
    )

    rng = np.random.default_rng(5)
    # heavy ties + outliers + negatives
    vals = np.concatenate([
        rng.integers(-50, 50, 3000).astype(np.float64) / 7.0,
        np.full(500, 3.25),
        np.array([1e6, -1e6]),
    ])
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(9)
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"v": vals}))
    for q in (0.01, 0.25, 0.5, 0.9, 0.999):
        want = con.sql(f"SELECT quantile_disc(v, {q}) FROM t").fetchone()[0]
        got = exact_quantile(ds, "v", q)
        assert got == want, (q, got, want)
    # tiny rows_limit forces multiple histogram refinement rounds
    got = exact_quantile(ds, "v", 0.5, rows_limit=8, num_bins=16)
    want = con.sql("SELECT quantile_disc(v, 0.5) FROM t").fetchone()[0]
    assert got == want


def test_bpe_pair_counts_matches_counter(ray_session):
    from collections import Counter

    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        bpe_pair_counts,
    )

    docs = ["hello world", "low lower lowest", "a bb ccc  dddd", ""]
    ref = Counter()
    for d in docs:
        for tok in d.split(" "):
            for i in range(len(tok) - 1):
                ref[tok[i:i + 2]] += 1
    want = sorted(ref.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    ds = ray.data.from_pandas(pd.DataFrame({
        "doc_id": range(len(docs)), "text": docs,
    })).repartition(3)
    got = bpe_pair_counts(ds, k=5).to_pandas()
    assert list(map(tuple, got.values.tolist())) == want


def test_weighted_sample_deterministic_and_weighted(ray_session):
    import hashlib

    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
        weighted_sample,
    )

    n = 400
    w = np.where(np.arange(n) < 40, 100.0, 1.0)  # heavy head
    w[5] = 0.0   # excluded
    w[6] = -3.0  # excluded
    df = pd.DataFrame({"doc_id": np.arange(n), "w": w})
    ds = ray.data.from_pandas(df).repartition(5)
    got = weighted_sample(ds, "w", k=30).to_pandas()
    got2 = weighted_sample(ds.repartition(2), "w", k=30).to_pandas()
    # deterministic + partitioning-independent
    assert sorted(got.doc_id) == sorted(got2.doc_id)
    assert len(got) == 30
    assert 5 not in set(got.doc_id) and 6 not in set(got.doc_id)
    # replay the A-Res draw exactly
    def prio(i, wi):
        u = (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) + 0.5) \
            / 4294967296.0
        return u ** (1.0 / wi)
    ref = sorted(
        ((prio(i, wi), i) for i, wi in zip(df.doc_id, df.w) if wi > 0),
        key=lambda t: (-t[0], t[1]),
    )[:30]
    assert sorted(got.doc_id) == sorted(i for _, i in ref)
    # weight-100 head should dominate the sample
    assert (got.doc_id < 40).mean() > 0.5


def test_embedding_pca_matches_numpy(ray_session):
    import pyarrow as pa
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
        embedding_pca,
    )

    rng = np.random.default_rng(17)
    # anisotropic cloud: a dominant direction PCA must find
    base = rng.standard_normal((300, 8))
    base[:, 0] *= 10.0
    base[:, 1] *= 3.0
    tbl = pa.table({
        "vec_id": pa.array(np.arange(300), pa.int64()),
        "embedding": pa.array([r.tolist() for r in
                               base.astype(np.float32)],
                              pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(tbl).repartition(5)
    got = embedding_pca(ds, n_components=2).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)

    X = base.astype(np.float32).astype(np.float64)
    mu = X.mean(axis=0)
    cov = (X - mu).T @ (X - mu) / (len(X) - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:2]
    W = evecs[:, order]
    for j in range(2):
        i = int(np.argmax(np.abs(W[:, j])))
        if W[i, j] < 0:
            W[:, j] = -W[:, j]
    P = (X - mu) @ W
    np.testing.assert_allclose(got.pc0.to_numpy(), P[:, 0], atol=1e-4)
    np.testing.assert_allclose(got.pc1.to_numpy(), P[:, 1], atol=1e-4)
    # the dominant axis is dimension 0 (variance 100x)
    assert abs(W[0, 0]) > 0.99
