"""CCNet per-language perplexity terciles
(pipelines/textstats.ccnet_ppl_buckets): fluent docs land in head,
rare-token docs in tail, NTILE sizes follow exact SQL semantics, and
results are partition-independent."""

import math
from collections import Counter

import pyarrow as pa

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
    ccnet_ppl_buckets,
)


def py_buckets(docs: dict[int, tuple[str, str]]) -> dict[int, str]:
    """Independent reimplementation: global unigram LM, per-lang
    ntile(3) over (mean_logprob asc, doc_id) with SQL bucket sizes."""
    toks = {i: t.split() for i, (t, _) in docs.items()}
    corpus = Counter(tok for ts in toks.values() for tok in ts)
    total = sum(corpus.values())
    score = {
        i: round(sum(math.log2(corpus[tok] / total) for tok in ts)
                 / len(ts), 6)
        for i, ts in toks.items()
    }
    out = {}
    langs = {lang for _, lang in docs.values()}
    for lang in langs:
        members = sorted(
            (i for i in docs if docs[i][1] == lang),
            key=lambda i: (score[i], i),
        )
        n = len(members)
        k, r = n // 3, n % 3
        sizes = [k + (1 if b < r else 0) for b in range(3)]
        names = ["tail", "middle", "head"]
        pos = 0
        for b, size in enumerate(sizes):
            for i in members[pos:pos + size]:
                out[i] = names[b]
            pos += size
    return out


def run(ray_session, docs: dict[int, tuple[str, str]]):
    tbl = pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array([t for t, _ in docs.values()],
                         pa.large_string()),
        "lang": pa.array([g for _, g in docs.values()], pa.string()),
    })
    ds = ray_session.data.from_arrow(tbl)
    return {r["doc_id"]: r
            for r in ccnet_ppl_buckets(ds).take_all()}


CORPUS = {
    # en: 6 docs ranging common -> rare tokens
    0: ("web web web web", "en"),
    1: ("web web page page", "en"),
    2: ("web page site crawl", "en"),
    3: ("crawl site index fetch", "en"),
    4: ("fetch index quasar zygote", "en"),
    5: ("xylem phloem quince umbra", "en"),
    # de: 4 docs -> ntile sizes 2/1/1
    6: ("web web seite seite", "de"),
    7: ("seite seite netz netz", "de"),
    8: ("netz krabbeln selten", "de"),
    9: ("einzig wort nie zwei", "de"),
}


class TestPplBuckets:
    def test_matches_python_reimplementation(self, ray_session):
        out = run(ray_session, CORPUS)
        want = py_buckets(CORPUS)
        got = {i: r["ppl_bucket"] for i, r in out.items()}
        assert got == want

    def test_fluent_head_rare_tail_per_language(self, ray_session):
        out = run(ray_session, CORPUS)
        assert out[0]["ppl_bucket"] == "head"      # most-common tokens
        assert out[5]["ppl_bucket"] == "tail"      # unique tokens
        # de buckets computed within de only
        de = [out[i]["ppl_bucket"] for i in (6, 7, 8, 9)]
        # 4 docs -> SQL NTILE sizes 2/1/1, the extra row to tile 1
        # (= tail, the ascending-logprob end)
        assert sorted(de) == ["head", "middle", "tail", "tail"]

    def test_partition_independent(self, ray_session):
        tbl = pa.table({
            "doc_id": pa.array(list(CORPUS), pa.int64()),
            "text": pa.array([t for t, _ in CORPUS.values()],
                             pa.large_string()),
            "lang": pa.array([g for _, g in CORPUS.values()],
                             pa.string()),
        })
        ds = ray_session.data.from_arrow(tbl)
        one = ccnet_ppl_buckets(ds).sort("doc_id").take_all()
        many = ccnet_ppl_buckets(
            ds.repartition(5)).sort("doc_id").take_all()
        assert one == many
