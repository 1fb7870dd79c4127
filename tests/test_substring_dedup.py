"""Exact substring (k-token span) dedup — semantics pinned against a
quadratic brute-force reference plus hand-crafted keep-first / overlap /
within-doc cases. The operator is the Lee et al. 2022 exact-substring
rule at whitespace-token granularity (see pipelines/dedup.py)."""

import numpy as np
import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.dedup import (
    substring_dedup,
)


def _brute(docs: dict[int, str], k: int) -> dict[int, tuple[str, int]]:
    """Quadratic reference: gram -> min doc; token removed iff covered
    by a window duplicated from an earlier doc."""
    toks = {d: [t for t in txt.split(" ") if t] for d, txt in docs.items()}
    first: dict[str, int] = {}
    for d in sorted(toks):
        ts = toks[d]
        for p in range(len(ts) - k + 1):
            g = " ".join(ts[p:p + k])
            first.setdefault(g, d)
    out = {}
    for d, ts in toks.items():
        cov = np.zeros(len(ts), dtype=bool)
        for p in range(len(ts) - k + 1):
            g = " ".join(ts[p:p + k])
            if first[g] < d:
                cov[p:p + k] = True
        kept = [t for t, c in zip(ts, cov) if not c]
        out[d] = (" ".join(kept), int(cov.sum()))
    return out


def _run(ray_session, docs: dict[int, str], k: int):
    import ray.data

    ds = ray.data.from_pandas(pd.DataFrame({
        "doc_id": list(docs.keys()), "text": list(docs.values()),
    }))
    res = substring_dedup(ds, k=k).to_pandas()
    return {
        int(r.doc_id): (r.clean_text, int(r.n_removed))
        for r in res.itertuples()
    }


def test_keep_first_and_exact_span(ray_session):
    span = "a b c d e f g h i j"
    docs = {
        1: "intro words here " + span + " tail one",
        2: "different opening text " + span + " other ending",
        3: "no shared content in this document at all",
    }
    got = _run(ray_session, docs, k=4)
    assert got == _brute(docs, 4)
    # doc 1 (min id) keeps everything
    assert got[1] == (docs[1], 0)
    # doc 2 loses exactly the 10 span tokens
    assert got[2] == ("different opening text other ending", 10)
    assert got[3] == (docs[3], 0)


def test_overlapping_spans_merge(ray_session):
    # two duplicated windows overlapping in doc 5 merge into one region
    docs = {
        1: "x1 x2 a b c d e f y1 y2",
        2: "z1 z2 c d e f g h z3 z4",
        5: "q1 a b c d e f g h q2",
    }
    got = _run(ray_session, docs, k=4)
    assert got == _brute(docs, 4)
    # a..f covered via doc1, c..h via doc2 -> a..h all removed
    assert got[5] == ("q1 q2", 8)


def test_within_doc_repeat_kept_for_min_doc(ray_session):
    rep = "r1 r2 r3 r4"
    docs = {
        1: rep + " mid " + rep,       # min doc: both copies kept
        2: "lead in " + rep + " out",  # later doc: copy removed
    }
    got = _run(ray_session, docs, k=4)
    assert got == _brute(docs, 4)
    assert got[1] == (docs[1], 0)
    assert got[2] == ("lead in out", 4)


def test_short_docs_and_multispace(ray_session):
    docs = {1: "one two three", 2: "one  two   three", 3: ""}
    got = _run(ray_session, docs, k=8)
    assert got[1] == ("one two three", 0)
    # multi-space collapses through tokenize-rebuild
    assert got[2] == ("one two three", 0)
    assert got[3] == ("", 0)


@pytest.mark.parametrize("parts", [2, 16])
def test_random_corpus_matches_brute(ray_session, fixed_partitions, parts):
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(12)]
    docs = {}
    for d in range(40):
        n = int(rng.integers(0, 30))
        docs[d] = " ".join(rng.choice(vocab, size=n))
    fixed_partitions(parts)
    got = _run(ray_session, docs, k=5)
    assert got == _brute(docs, 5)


def _brute_overlap(corpus: dict[int, str], bench: list[str], n: int):
    def grams(txt):
        ts = [t for t in txt.split(" ") if t]
        return {" ".join(ts[p:p + n]) for p in range(len(ts) - n + 1)}
    bg = set()
    for b in bench:
        bg |= grams(b)
    out = {}
    for d, txt in corpus.items():
        g = grams(txt)
        out[d] = round(len(g & bg) / len(g), 6) if g else 0.0
    return out


@pytest.mark.parametrize("nbits", [1 << 16, 64])  # 64 bits: mass collisions
def test_ngram_overlap_exact_matches_brute(ray_session, nbits):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.dedup import (
        ngram_overlap_exact,
    )

    rng = np.random.default_rng(9)
    vocab = [f"v{i}" for i in range(20)]
    leak = "alpha beta gamma delta epsilon zeta"
    corpus = {
        d: " ".join(rng.choice(vocab, size=int(rng.integers(0, 25))))
        for d in range(30)
    }
    corpus[3] += " " + leak
    corpus[7] = leak + " " + corpus[7]
    bench = [" ".join(rng.choice(vocab, size=15)) + " " + leak, "short"]
    cds = ray.data.from_pandas(pd.DataFrame({
        "doc_id": list(corpus), "text": list(corpus.values()),
    }))
    bds = ray.data.from_pandas(pd.DataFrame({"text": bench}))
    got = ngram_overlap_exact(cds, bds, n=4, nbits=nbits).to_pandas()
    want = _brute_overlap(corpus, bench, 4)
    got_d = {int(r.doc_id): r.bench_overlap for r in got.itertuples()}
    assert got_d == want
    assert got_d[3] > 0 and got_d[7] > 0
