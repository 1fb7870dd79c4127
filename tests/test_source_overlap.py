"""Cross-source n-gram overlap matrix
(pipelines/dedup.source_ngram_overlap): matches a python set-based
reimplementation, ranks a planted mirror pair highest, omits
zero-overlap pairs, never crosses document boundaries, and is
partition-independent."""

from collections import defaultdict

import pyarrow as pa
import ray.data as rd

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.dedup import (
    source_ngram_overlap,
)


def py_overlap(docs, n=3):
    sets: dict[str, set] = defaultdict(set)
    for src, text in docs:
        toks = [x for x in text.split(" ") if x]
        for p in range(len(toks) - n + 1):
            sets[src].add(" ".join(toks[p:p + n]))
    out = {}
    srcs = sorted(sets)
    for i, a in enumerate(srcs):
        for b in srcs[i + 1:]:
            nc = len(sets[a] & sets[b])
            if nc:
                out[(a, b)] = (nc, len(sets[a]), len(sets[b]),
                               round(nc / len(sets[a] | sets[b]), 6))
    return out


DOCS = [
    ("feedA", "the quick brown fox jumps over the lazy dog"),
    ("feedA", "pack my box with five dozen liquor jugs"),
    ("mirror1", "the quick brown fox jumps over the lazy dog today"),
    ("mirror1", "completely original words appear here only"),
    ("feedB", "unrelated tokens that share nothing with others"),
    ("feedB", "more text that stands entirely alone here"),
    # doc boundary check: ending of one doc + start of the next must
    # not form a gram ("dog today" + "zeta" style bleed).
    ("feedC", "alpha beta"),
    ("feedC", "gamma delta epsilon"),
]


def _ds(docs):
    return rd.from_arrow(pa.table({
        "source": [d[0] for d in docs],
        "text": [d[1] for d in docs],
    }))


def test_matches_python_reimplementation(ray_session):
    got = source_ngram_overlap(_ds(DOCS), n=3).to_pandas()
    want = py_overlap(DOCS)
    assert len(got) == len(want)
    for _, r in got.iterrows():
        nc, na, nb, j = want[(r["src_a"], r["src_b"])]
        assert (r["n_common"], r["n_a"], r["n_b"], r["jaccard"]) == \
            (nc, na, nb, j)


def test_mirror_pair_ranks_highest_and_zero_pairs_omitted(ray_session):
    got = source_ngram_overlap(_ds(DOCS), n=3).to_pandas()
    top = got.sort_values("jaccard", ascending=False).iloc[0]
    assert {top["src_a"], top["src_b"]} == {"feedA", "mirror1"}
    # feedB and feedC share no trigram with anyone: absent entirely.
    present = set(got["src_a"]) | set(got["src_b"])
    assert "feedB" not in present and "feedC" not in present


def test_partition_independent(ray_session, fixed_partitions):
    fixed_partitions(1)
    a = (source_ngram_overlap(_ds(DOCS).repartition(1))
         .to_pandas().reset_index(drop=True))
    fixed_partitions(9)
    b = (source_ngram_overlap(_ds(DOCS).repartition(8))
         .to_pandas().reset_index(drop=True))
    assert a.equals(b)
