"""Per-group unigram KL drift (pipelines/textstats.unigram_kl_drift):
matches a direct full-vocabulary-grid reimplementation, is
partition-independent, and ranks a vocabulary-disjoint group as the
most drifted."""

import math
from collections import Counter, defaultdict

import pyarrow as pa
import ray.data as rd

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
    unigram_kl_drift,
)


def py_kl(docs: list[tuple[str, str]]) -> dict[str, tuple[int, float]]:
    """Independent reimplementation: explicit Laplace-smoothed P_g over
    the full corpus vocabulary vs the corpus MLE Q, no factoring."""
    tok_all: list[str] = []
    groups: dict[str, list[str]] = defaultdict(list)
    for g, t in docs:
        toks = [x for x in t.split(" ") if x]
        tok_all += toks
        groups[g] += toks
    n = len(tok_all)
    c = Counter(tok_all)
    v = len(c)
    out = {}
    for g, toks in groups.items():
        cg = Counter(toks)
        d = len(toks) + v
        kl = sum(
            ((cg.get(tok, 0) + 1) / d)
            * math.log(((cg.get(tok, 0) + 1) / d) / (c[tok] / n))
            for tok in c
        )
        out[g] = (len(toks), round(kl, 6))
    return out


DOCS = [
    ("a", "x x y z w"),
    ("a", "x y"),
    ("b", "z z q q q"),
    ("b", "q w"),
    ("c", "x y z q w w y"),
    ("d", "omega omega psi psi psi omega"),
]


def _ds(docs):
    return rd.from_arrow(pa.table({
        "source": [d[0] for d in docs],
        "text": [d[1] for d in docs],
    }))


def test_matches_grid_reimplementation(ray_session):
    got = unigram_kl_drift(_ds(DOCS)).to_pandas()
    want = py_kl(DOCS)
    assert len(got) == len(want)
    for _, row in got.iterrows():
        n, kl = want[row["source"]]
        assert row["n_tokens"] == n
        assert row["kl"] == kl


def test_partition_independent(ray_session, fixed_partitions):
    fixed_partitions(1)
    a = (unigram_kl_drift(_ds(DOCS).repartition(1))
         .to_pandas().sort_values("source").reset_index(drop=True))
    fixed_partitions(11)
    b = (unigram_kl_drift(_ds(DOCS).repartition(7))
         .to_pandas().sort_values("source").reset_index(drop=True))
    assert a.equals(b)


def test_disjoint_vocab_group_most_drifted(ray_session):
    got = (unigram_kl_drift(_ds(DOCS))
           .to_pandas().set_index("source")["kl"])
    # 'd' shares no token with the rest of the corpus: largest KL.
    assert got["d"] == got.max()
    assert got["d"] > 2 * got[["a", "b", "c"]].max()


# ---------------------------------------------------------------------------
# log_odds_terms: Monroe et al. 2008 weighted log-odds distinctive terms
# ---------------------------------------------------------------------------

def test_log_odds_marker_token_tops_its_group(ray_session):
    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        log_odds_terms,
    )

    shared = "alpha beta gamma delta"
    rows = []
    for i in range(20):
        src = "a" if i % 2 == 0 else "b"
        marker = "zonly" if src == "a" else "qonly"
        rows.append((i, src, f"{shared} {marker}"))
    ds = ray_session.data.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "source": pa.array([r[1] for r in rows], pa.string()),
        "text": pa.array([r[2] for r in rows], pa.large_string()),
    }))
    out = log_odds_terms(ds, k=2).take_all()
    best = {}
    for r in out:
        best.setdefault(r["source"], []).append((r["zscore"], r["token"]))
    assert max(best["a"])[1] == "zonly"
    assert max(best["b"])[1] == "qonly"
    # the marker's z must dominate the shared vocabulary's
    shared_z = [z for z, t in best["a"] if t != "zonly"]
    marker_z = [z for z, t in best["a"] if t == "zonly"]
    assert marker_z and all(m > s for m in marker_z for s in shared_z)


def test_log_odds_numpy_reference(ray_session):
    import numpy as np
    import pyarrow as pa
    import pytest

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        log_odds_terms,
    )

    docs = [(0, "a", "x x y"), (1, "a", "y z"), (2, "b", "z z y w")]
    ds = ray_session.data.from_arrow(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "source": pa.array([d[1] for d in docs], pa.string()),
        "text": pa.array([d[2] for d in docs], pa.large_string()),
    }))
    out = {(r["source"], r["token"]): r["zscore"]
           for r in log_odds_terms(ds, k=10).take_all()}

    # plain-python replay of the published formula
    from collections import Counter
    c = Counter()
    for _, s, t in docs:
        for tok in t.split():
            c[(s, tok)] += 1
    ct = Counter()
    for (s, tok), n in c.items():
        ct[tok] += n
    ng = Counter()
    for (s, tok), n in c.items():
        ng[s] += n
    N = sum(ng.values())
    V = len(ct)
    a = 0.01
    a0 = a * V
    for (s, tok), cc in c.items():
        crest = ct[tok] - cc
        delta = (np.log((cc + a) / (ng[s] + a0 - cc - a))
                 - np.log((crest + a) / (N - ng[s] + a0 - crest - a)))
        z = round(delta / np.sqrt(1 / (cc + a) + 1 / (crest + a)), 6)
        assert out[(s, tok)] == pytest.approx(z, abs=1e-9), (s, tok)


def test_log_odds_partition_independent(ray_session, fixed_partitions):
    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        log_odds_terms,
    )

    rows = [(i, f"s{i % 3}", f"tok{i % 7} tok{i % 5} common")
            for i in range(60)]
    tbl = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "source": pa.array([r[1] for r in rows], pa.string()),
        "text": pa.array([r[2] for r in rows], pa.large_string()),
    })
    ds = ray_session.data.from_arrow(tbl)
    key = lambda r: (r["source"], r["token"])
    fixed_partitions(1)
    one = sorted(log_odds_terms(ds, k=3).take_all(), key=key)
    fixed_partitions(5)
    many = sorted(log_odds_terms(ds.repartition(7), k=3).take_all(), key=key)
    assert one == many


# ---------------------------------------------------------------------------
# tfidf_cosine_pairs: inverted-index sparse cosine similarity join
# ---------------------------------------------------------------------------

def _tfidf_ds(ray_session, docs):
    import pyarrow as pa

    return ray_session.data.from_arrow(pa.table({
        "doc_id": pa.array([d[0] for d in docs], pa.int64()),
        "text": pa.array([d[1] for d in docs], pa.large_string()),
    }))


def test_tfidf_cosine_matches_numpy(ray_session):
    import numpy as np
    import pytest

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        tfidf_cosine_pairs,
    )

    docs = [(0, "a b c"), (1, "a b d"), (2, "x y z"), (3, "a b c c")]
    out = {(r["doc_a"], r["doc_b"]): r["cosine"]
           for r in tfidf_cosine_pairs(
               _tfidf_ds(ray_session, docs), threshold=0.0).take_all()}

    # numpy reference
    vocab = sorted({t for _, txt in docs for t in txt.split()})
    X = np.zeros((len(docs), len(vocab)))
    for i, (_, txt) in enumerate(docs):
        for t in txt.split():
            X[i, vocab.index(t)] += 1
    df = (X > 0).sum(axis=0)
    Xw = X * np.log(len(docs) / df)
    nrm = np.linalg.norm(Xw, axis=1)
    Xu = np.where(nrm[:, None] > 0, Xw / np.maximum(nrm, 1e-300)[:, None],
                  0.0)
    S = Xu @ Xu.T
    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            want = round(float(S[i, j]), 6)
            if (i, j) in out:
                assert out[(i, j)] == pytest.approx(want, abs=1e-9)
            else:
                # pairs sharing no token never materialize
                assert S[i, j] == pytest.approx(0.0, abs=1e-12)
    # identical-idf-profile docs 0 and 3 are the most similar pair
    assert out[(0, 3)] == max(out.values())
    assert (0, 2) not in out and (1, 2) not in out


def test_tfidf_cosine_threshold_and_partition_independence(
        ray_session, fixed_partitions):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        tfidf_cosine_pairs,
    )

    docs = [(i, f"shared token{i % 4} extra{i % 2}") for i in range(24)]
    ds = _tfidf_ds(ray_session, docs)
    key = lambda r: (r["doc_a"], r["doc_b"])
    fixed_partitions(1)
    one = sorted(tfidf_cosine_pairs(ds, threshold=0.5).take_all(),
                 key=key)
    fixed_partitions(5)
    many = sorted(tfidf_cosine_pairs(
        ds.repartition(7), threshold=0.5).take_all(), key=key)
    assert one == many
    assert one  # threshold keeps the same-residue near-identical docs
    assert all(r["cosine"] >= 0.5 for r in one)


def test_tfidf_cosine_bucket_cap_is_a_lower_bound(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        tfidf_cosine_pairs,
    )

    # hot tokens shared by all docs plus a discriminative rare token;
    # idf of the universal tokens is ln(1)=0, so the rare token carries
    # the signal and the cap must only LOWER scores (weights >= 0)
    docs = [(i, f"hot shared vocab rare{i % 3}") for i in range(12)]
    ds = _tfidf_ds(ray_session, docs)
    exact = {(r["doc_a"], r["doc_b"]): r["cosine"]
             for r in tfidf_cosine_pairs(ds, threshold=0.0).take_all()}
    capped = {(r["doc_a"], r["doc_b"]): r["cosine"]
              for r in tfidf_cosine_pairs(
                  ds, threshold=0.0, max_bucket=4).take_all()}
    assert set(capped) <= set(exact)
    assert capped  # the cap still produces pairs
    for k, v in capped.items():
        assert v <= exact[k] + 1e-9
    # thresholded capped output therefore has NO false positives
    thr = 0.9
    cap_hits = {k for k, v in capped.items() if v >= thr}
    exact_hits = {k for k, v in exact.items() if v >= thr}
    assert cap_hits <= exact_hits
