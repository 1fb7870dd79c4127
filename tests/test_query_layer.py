"""Query-layer semantics over a small built KG."""

import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray import config
from nlp_graphrag_with_qdrant_and_neo4j_ray.config import PipelineConfig

CFG = PipelineConfig()


@pytest.fixture(scope="module")
def kg(ray_session, tmp_path_factory):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import build_kg
    from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.pages import pages_dataset

    out = str(tmp_path_factory.mktemp("qkg"))
    return build_kg(lambda: pages_dataset(80, "qtest"), out, CFG, resume=False,
                    lineage=False)


def test_vector_topk_is_exact_cosine(kg):
    import numpy as np

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        embed_query,
        vector_topk,
    )

    hits = vector_topk(kg["chunk_vectors"], "Hugging Face company", k=5,
                       cfg=CFG).take_all()
    assert len(hits) == 5
    scores = [h["score"] for h in hits]
    assert scores == sorted(scores, reverse=True)
    # oracle: driver-side exact computation
    qv = embed_query("Hugging Face company", CFG)
    rows = kg["chunk_vectors"].take_all()
    mat = np.stack([np.asarray(r["embedding"], dtype=np.float32) for r in rows])
    best = float(np.max(mat @ qv))
    assert abs(best - hits[0]["score"]) < 1e-5


def test_vector_topk_ivf_matches_brute(kg, tmp_path):
    """Serving-mode IVF search (VERDICT r3 item 9) returns the same
    top-k as exact brute on the fixture, cold and warm (warm reads only
    the persisted probed list partitions — no retrain, no full scan)."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        vector_topk,
        vector_topk_ivf,
    )

    want = sorted(
        (h["chunk_id"], round(h["score"], 6))
        for h in vector_topk(kg["chunk_vectors"], "Hugging Face company",
                             k=5, cfg=CFG).take_all()
    )
    idx = str(tmp_path / "vecindex")
    for _ in range(2):  # cold build, then warm serve off the index
        got = sorted(
            (h["chunk_id"], round(h["score"], 6))
            for h in vector_topk_ivf(
                kg["chunk_vectors"], "Hugging Face company",
                index_dir=idx, k=5, cfg=CFG,
            ).take_all()
        )
        assert got == want
    import os

    # the index persisted: quantizer + list-partitioned vectors
    tagdirs = [d for d in os.listdir(idx) if d.startswith("ivfx-")]
    assert tagdirs
    assert os.path.exists(os.path.join(idx, tagdirs[0], "_SUCCESS"))


def test_vector_topk_ivf_local_matches_distributed(kg, tmp_path,
                                                   monkeypatch):
    """The small-probe local fast path (pyarrow read + fused einsum)
    and the distributed knn_brute path over the SAME persisted index
    return identical top-k at the round-6 contract. config.KNN_LOCAL_ROWS
    picks the path: 0 forces every probe set onto the distributed
    branch, a huge value forces the local one."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        vector_topk_ivf,
    )

    idx = str(tmp_path / "vecindex")

    def run():
        return sorted(
            (h["chunk_id"], round(h["score"], 6))
            for h in vector_topk_ivf(
                kg["chunk_vectors"], "Hugging Face company",
                index_dir=idx, k=5, cfg=CFG,
            ).take_all()
        )

    monkeypatch.setattr(config, "KNN_LOCAL_ROWS", 1_000_000)
    local = run()
    monkeypatch.setattr(config, "KNN_LOCAL_ROWS", 0)
    distributed = run()
    assert local == distributed


def test_term_search_scores(kg):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import term_search

    hits = term_search(kg["terms"], "galaxy patrol", k=5, cfg=CFG).take_all()
    assert hits
    # bigram "galaxy patrol" scores 2.0 + unigrams 1.0 each → top chunks
    # containing the bigram must outrank unigram-only chunks
    assert hits[0]["score"] >= 4.0


def test_term_search_all_requires_full_coverage(kg):
    """AND semantics vs an independent full-scan python replay: a chunk
    survives iff it contains EVERY query unigram; score is the summed
    per-term occurrence count on a raw terms Dataset."""
    from collections import defaultdict

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        term_search_all,
    )

    query = "galaxy patrol"
    hits = term_search_all(kg["terms"], query, k=50, cfg=CFG).take_all()
    got = {h["chunk_id"]: h["score"] for h in hits}

    rows = kg["terms"].take_all()
    per = defaultdict(lambda: defaultdict(float))
    for r in rows:
        if r["term"] in ("galaxy", "patrol"):
            per[r["chunk_id"]][r["term"]] += 1.0
    want = {c: sum(t.values()) for c, t in per.items() if len(t) == 2}
    # top-50 covers the small fixture entirely
    assert got == dict(sorted(want.items(),
                              key=lambda kv: (-kv[1], kv[0]))[:50])
    assert got  # the fixture has fully-covered chunks
    # OR-search superset sanity: AND survivors are a strict subset of
    # chunks matching at least one term
    partial = {c for c, t in per.items() if len(t) == 1}
    assert partial.isdisjoint(got)


def test_term_search_all_index_local_matches_distributed(
        kg, tmp_path, monkeypatch):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        term_search_all,
    )
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        ensure_term_index,
    )

    idx = ensure_term_index(str(tmp_path), kg["terms"])
    monkeypatch.setattr(config, "TERM_LOCAL_ROWS", 1_000_000)
    local = term_search_all(idx, "galaxy patrol", k=10, cfg=CFG)
    local = (local if isinstance(local, list) else local.take_all())
    monkeypatch.setattr(config, "TERM_LOCAL_ROWS", 0)
    idx2 = ensure_term_index(str(tmp_path), kg["terms"])
    dist = term_search_all(idx2, "galaxy patrol", k=10,
                           cfg=CFG).take_all()
    assert [ (r["chunk_id"], round(r["score"], 9)) for r in local ] ==            [ (r["chunk_id"], round(r["score"], 9)) for r in dist ]
    assert local


def test_term_search_empty_query(kg):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import term_search

    assert term_search(kg["terms"], "!!!", k=5, cfg=CFG).count() == 0


def test_hybrid_combines_and_normalizes(kg):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import hybrid_retrieve

    hits = hybrid_retrieve(kg["chunk_vectors"], kg["terms"],
                           "Hugging Face company", k=5, cfg=CFG)
    assert len(hits) == 5
    assert all(0.0 <= h["score"] <= 1.0 + 1e-9 for h in hits)
    assert hits == sorted(hits, key=lambda h: (-h["score"], h["chunk_id"]))


def test_context_windows(kg):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        graph_retrieve,
        with_context,
    )

    hits = graph_retrieve(kg["terms"], "mecha designs", k=3, cfg=CFG)
    rows = with_context(kg["chunks"], hits, context_size=1)
    assert rows
    match_ids = {h["chunk_id"] for h in hits}
    got_ids = {r["chunk_id"] for r in rows}
    assert match_ids <= got_ids
    # matches sort first; context rows have score 0 and is_match False
    n_match = sum(r["is_match"] for r in rows)
    assert all(r["is_match"] for r in rows[:n_match])
    assert all(not r["is_match"] and r["score"] == 0.0 for r in rows[n_match:])


def test_relationship_search_provenance(kg):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        relationship_search,
    )

    rows = relationship_search(kg["edges"], "The Vision of Escaflowne", None, k=5)
    assert rows
    assert all(r["src_entity_id"] == "e:vision of escaflowne" for r in rows)
    assert all(r["chunk_id"] for r in rows)  # provenance never null
    filtered = relationship_search(kg["edges"], "The Vision of Escaflowne",
                                   "directed", k=5)
    assert all("directed" in r["pred"] for r in filtered)


def test_query_entities_heuristic():
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import query_entities

    # the reference regex (retrieval.py:332)
    assert query_entities("Who founded Hugging Face in New York?") == [
        "Who", "Hugging Face", "New York",
    ]


def test_entity_search_dead_path():
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import entity_search

    assert entity_search("anything") == []


def test_document_chain_apis(kg):
    """get_next/get_prev/get_document_chain (reference
    core/retrieval.py:373-467) over the chunk-chain columns."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        fetch_chunk,
        get_document_chain,
        get_next_chunk,
        get_prev_chunk,
    )

    chunks = kg["chunks"]
    multi = [r for r in chunks.take_all() if r["chunk_index"] == 1]
    assert multi, "fixture must contain a multi-chunk document"
    center = min(multi, key=lambda r: r["chunk_id"])

    prev = get_prev_chunk(chunks, center["chunk_id"])
    assert prev is not None and prev["chunk_index"] == 0
    assert prev["doc_id"] == center["doc_id"]
    assert get_next_chunk(chunks, prev["chunk_id"])["chunk_id"] == center["chunk_id"]
    # chain start: no PREV
    assert get_prev_chunk(chunks, prev["chunk_id"]) is None

    chain = get_document_chain(chunks, center["chunk_id"], max_chunks=5)
    idxs = [r["chunk_index"] for r in chain]
    assert idxs == sorted(idxs)                      # sequence order
    assert center["chunk_id"] in {r["chunk_id"] for r in chain}
    assert all(r["doc_id"] == center["doc_id"] for r in chain)
    # oracle: every chunk of that doc within ±5 of the center index
    want = sorted(
        r["chunk_index"] for r in chunks.take_all()
        if r["doc_id"] == center["doc_id"] and abs(r["chunk_index"] - 1) <= 5
    )
    assert idxs == want

    assert get_document_chain(chunks, "nope_chunk9", 3) == []
    assert fetch_chunk(chunks, "nope_chunk9") is None


def test_term_index_matches_full_scan(kg, tmp_path):
    """The by-term index (pruned bucket reads + filter pushdown) must
    return IDENTICAL term-search results to the full scan, and the index
    build must be resumable."""
    import os

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import term_search
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        ensure_term_index,
        term_buckets,
    )

    idx = ensure_term_index(str(tmp_path), kg["terms"])
    for query in ("galaxy patrol research", "Hugging Face company", "mecha"):
        full = term_search(kg["terms"], query, k=10).take_all()
        # ngram_order over the aggregated postings (weight × tf) must be
        # EXACTLY the full scan's per-occurrence-row sum
        pruned = term_search(idx, query, k=10, score="ngram_order").take_all()
        assert [(r["chunk_id"], r["score"]) for r in full] == [
            (r["chunk_id"], r["score"]) for r in pruned
        ]

    # pruning is real: matched() reads only the query terms' buckets
    need = set(term_buckets(["galaxy"], idx.num_buckets))
    all_buckets = [d for d in os.listdir(idx.path) if d.startswith("bucket-")
                   and os.listdir(os.path.join(idx.path, d))]
    assert len(all_buckets) > len(need)  # more populated buckets than a query touches

    # resume: second call loads the marker, no rebuild
    import time

    t0 = time.perf_counter()
    idx2 = ensure_term_index(str(tmp_path), kg["terms"])
    assert time.perf_counter() - t0 < 1.0
    assert idx2.path == idx.path

    # empty query set
    assert idx.matched([]).count() == 0


def test_term_search_local_matches_distributed(kg, tmp_path, monkeypatch):
    """The small-match local path (matched_local: footer-judged pyarrow
    read + in-process score/top-k) and the distributed exchange path
    return identical results over the same index. config.TERM_LOCAL_ROWS
    picks the path: 0 forces distributed."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import term_search
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        ensure_term_index,
    )

    idx = ensure_term_index(str(tmp_path), kg["terms"])
    for query in ("galaxy patrol research", "Hugging Face company"):
        for score in ("bm25", "ngram_order"):
            monkeypatch.setattr(config, "TERM_LOCAL_ROWS", 100_000_000)
            local = [(r["chunk_id"], round(r["score"], 9)) for r in
                     term_search(idx, query, k=10, score=score).take_all()]
            monkeypatch.setattr(config, "TERM_LOCAL_ROWS", 0)
            dist = [(r["chunk_id"], round(r["score"], 9)) for r in
                    term_search(idx, query, k=10, score=score).take_all()]
            assert local == dist


def test_hybrid_retrieve_with_triplets(kg, tmp_path):
    """retrieve_with_triplets (retrieval.py:607-637): hybrid chunks plus
    per-query-entity relationship hits, truncated per entity and
    globally (O5) — driven through the term index like the CLI does."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        hybrid_retrieve_with_triplets,
    )
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        ensure_term_index,
    )

    idx = ensure_term_index(str(tmp_path), kg["terms"])
    res = hybrid_retrieve_with_triplets(
        kg["chunk_vectors"], idx, kg["edges"],
        "Hugging Face company", k=5, cfg=CFG,
    )
    assert set(res) == {"chunks", "triplets"}
    assert 0 < len(res["chunks"]) <= 5
    assert len(res["triplets"]) <= 5          # global [:k] truncation
    for t in res["triplets"]:
        # the capitalized query entity resolved to its canonical id
        assert t["src_entity_id"] == "e:hugging face"
        assert t["chunk_id"]                  # provenance present (ref: null)


def test_term_index_bm25_matches_oracle(kg, tmp_path):
    """Serving-mode default scoring is BM25 (idf·tf·(k1+1)/(tf+k1),
    k1=1.2, b=0) with exact tf/df/N — checked against a driver-side
    oracle computed from the raw terms table."""
    import math
    from collections import Counter, defaultdict

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import term_search
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        BM25_K1,
        ensure_term_index,
    )

    idx = ensure_term_index(str(tmp_path), kg["terms"])
    n_chunks = kg["chunks"].count()
    assert idx.total_chunks == n_chunks

    rows = kg["terms"].take_all()
    query = "galaxy patrol research"
    got = {r["chunk_id"]: r["score"]
           for r in term_search(idx, query, k=50).take_all()}
    assert got and all(s > 0 for s in got.values())

    qterms = {"galaxy", "patrol", "research", "galaxy patrol",
              "patrol research", "galaxy patrol research"}
    tf = Counter((r["term"], r["chunk_id"]) for r in rows
                 if r["term"] in qterms)
    df = defaultdict(set)
    for (t, c) in tf:
        df[t].add(c)
    want = defaultdict(float)
    for (t, c), f in tf.items():
        idf = math.log1p((n_chunks - len(df[t]) + 0.5) / (len(df[t]) + 0.5))
        want[c] += idf * (f * (BM25_K1 + 1.0) / (f + BM25_K1))
    top = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
    for c, s in top:
        assert abs(got[c] - s) < 1e-9


def test_term_index_tiny_bucket_budget(kg, tmp_path, monkeypatch):
    """Scale-proofing (VERDICT r2 task 5): an artificially tiny
    rows-per-bucket budget must auto-size to many buckets (bounding
    per-bucket compaction memory) and return IDENTICAL query results."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import term_search
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages import termindex
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        TermIndex,
        ensure_term_index,
    )

    big = ensure_term_index(str(tmp_path / "big"), kg["terms"])
    monkeypatch.setattr(termindex, "ROWS_PER_BUCKET", 100)
    tiny = ensure_term_index(str(tmp_path / "tiny"), kg["terms"])
    assert tiny.num_buckets > big.num_buckets
    # every bucket's compacted file is bounded by ~the budget
    mrows = {r["bucket"]: r["rows"] for r in tiny.manifest().take_all()}
    assert sum(mrows.values()) == sum(
        r["rows"] for r in big.manifest().take_all()
    )
    for query in ("galaxy patrol research", "mecha"):
        a = term_search(big, query, k=10).take_all()
        b = term_search(tiny, query, k=10).take_all()
        assert [(r["chunk_id"], round(r["score"], 9)) for r in a] == [
            (r["chunk_id"], round(r["score"], 9)) for r in b
        ]
    # the query side reads num_buckets from the index, not a default
    loaded = TermIndex.load(tiny.path)
    assert loaded.num_buckets == tiny.num_buckets


def test_term_index_fingerprint_invalidation(kg, tmp_path):
    """ADVICE r2: a rebuilt terms table (new fingerprint) must invalidate
    the index instead of serving stale scores."""
    import os

    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        ensure_term_index,
    )

    d = str(tmp_path)
    idx = ensure_term_index(d, kg["terms"], fingerprint="t1")
    compact = os.path.join(idx.bucket_dir(0), "compact.parquet")
    probe = [b for b in range(idx.num_buckets)
             if os.path.exists(os.path.join(idx.bucket_dir(b),
                                            "compact.parquet"))][0]
    compact = os.path.join(idx.bucket_dir(probe), "compact.parquet")
    m1 = os.stat(compact).st_mtime_ns
    ensure_term_index(d, kg["terms"], fingerprint="t1")   # resume: no-op
    assert os.stat(compact).st_mtime_ns == m1
    ensure_term_index(d, kg["terms"], fingerprint="t2")   # stale: rebuild
    assert os.stat(compact).st_mtime_ns != m1


def _table(ds):
    """A Dataset materialized into one in-process ``pa.Table``."""
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _tied_vectors(kg, query: str, k: int):
    """``chunk_vectors`` as a table plus one copy of its k-th best row
    under another chunk_id, appended last: a tie at the k-th score."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        vector_topk_table,
    )

    tbl = _table(kg["chunk_vectors"].select_columns(
        ["chunk_id", "payload_text", "embedding"]))
    kth = vector_topk_table(tbl, query, k, CFG).column("chunk_id")[k - 1]
    row = tbl.filter(pc.equal(tbl.column("chunk_id"), kth))
    dup = row.set_column(0, "chunk_id", pa.array([kth.as_py() + "-copy"]))
    return pa.concat_tables([tbl, dup]), kth.as_py()


def test_hybrid_vector_leg_local_runs_no_dataset(kg, tmp_path, monkeypatch):
    """Given in-process tables and a TermIndex, hybrid retrieval runs no
    Dataset, and returns the rows of the Dataset-input path and of
    ``vector_topk(tbl).take(k)`` — a tie at the k-th score included."""
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        hybrid_retrieve,
        hybrid_retrieve_with_triplets,
        vector_topk,
        vector_topk_table,
    )
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        ensure_term_index,
    )

    query, k = "Hugging Face company", 5
    tbl, kth = _tied_vectors(kg, query, k)
    edges = _table(kg["edges"])
    idx = ensure_term_index(str(tmp_path), kg["terms"])

    leg = vector_topk_table(tbl, query, k, CFG).to_pylist()
    assert [r["chunk_id"] for r in leg][k - 1] == kth  # the first of the tie
    assert leg[k - 1]["score"] == vector_topk_table(
        tbl, query, k + 1, CFG).column("score")[k].as_py()
    assert leg == vector_topk(tbl, query, k, CFG).take(k)
    assert leg == vector_topk(ray.data.from_arrow(tbl), query, k,
                              CFG).take(k)
    want = hybrid_retrieve(ray.data.from_arrow(tbl), idx, query, k, CFG)
    want_t = hybrid_retrieve_with_triplets(
        ray.data.from_arrow(tbl), idx, edges, query, k, CFG)

    def no_dataset(*_a, **_k):
        raise AssertionError("a Dataset was built")

    monkeypatch.setattr(ray.data, "from_arrow", no_dataset)
    monkeypatch.setattr(ray.data, "read_parquet", no_dataset)
    assert hybrid_retrieve(tbl, idx, query, k, CFG) == want
    got_t = hybrid_retrieve_with_triplets(tbl, idx, edges, query, k, CFG)
    assert got_t == want_t and got_t["triplets"]


QUERIES = ("galaxy patrol research", "Hugging Face company", "mecha",
           "galaxy", "patrol research designs")


def _search_all(idx):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        term_search,
        term_search_all,
    )

    return [[term_search(idx, q, k=10, score="bm25", as_rows=True),
             term_search(idx, q, k=10, score="ngram_order", as_rows=True),
             term_search_all(idx, q, k=10, as_rows=True)]
            for q in QUERIES]


def test_term_index_cache_repeat_opens_no_file(kg, tmp_path, monkeypatch):
    """A handle keeps its footers and decoded row groups: a repeated
    query opens no Parquet file, and its results equal a fresh
    handle's for bm25, ngram_order and term_search_all."""
    import pyarrow.parquet as pq

    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        TermIndex,
        ensure_term_index,
    )

    idx = ensure_term_index(str(tmp_path), kg["terms"])
    first = _search_all(idx)
    opened = []
    real = pq.ParquetFile

    def counting(*a, **kw):
        opened.append(a[0] if a else kw.get("source"))
        return real(*a, **kw)

    monkeypatch.setattr(pq, "ParquetFile", counting)
    assert _search_all(idx) == first
    assert opened == []
    assert _search_all(TermIndex.load(idx.path)) == first
    assert opened  # a fresh handle reads its footers and row groups


def test_term_index_cache_budget(kg, tmp_path, monkeypatch):
    """The decoded row groups a handle keeps never exceed
    config.TERM_LOCAL_ROWS rows, and a budget too small for every
    group changes no result."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        TermIndex,
        ensure_term_index,
    )

    idx = ensure_term_index(str(tmp_path), kg["terms"])
    want = _search_all(TermIndex.load(idx.path))
    budget = 5000  # about two of the fixture's eight row groups
    monkeypatch.setattr(config, "TERM_LOCAL_ROWS", budget)
    small = TermIndex.load(idx.path)

    def rounded(res):  # queries past the budget take the exchange path
        return [[[(r["chunk_id"], round(r["score"], 9)) for r in rows]
                 for rows in per_query] for per_query in res]

    for _ in range(2):
        assert rounded(_search_all(small)) == rounded(want)
        assert 0 < small.cached_rows <= budget
        assert small.cached_rows == sum(
            t.num_rows for t in small._groups.values())
    assert len(small._groups) < sum(len(small._footer(f)[1])
                                    for f in small._footers)


def test_term_index_warm_cache_keeps_zero_gate(kg, tmp_path, monkeypatch):
    """TERM_LOCAL_ROWS = 0 still forces the distributed path on a handle
    whose cache is warm."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        term_search,
    )
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        ensure_term_index,
    )

    idx = ensure_term_index(str(tmp_path), kg["terms"])
    query = "galaxy patrol research"
    local = term_search(idx, query, k=10, as_rows=True)
    assert idx.cached_rows > 0
    calls = []
    matched = idx.matched
    monkeypatch.setattr(idx, "matched", lambda t: calls.append(t) or matched(t))
    monkeypatch.setattr(config, "TERM_LOCAL_ROWS", 0)
    dist = term_search(idx, query, k=10, as_rows=True)
    assert calls
    assert ([(r["chunk_id"], round(r["score"], 9)) for r in dist]
            == [(r["chunk_id"], round(r["score"], 9)) for r in local])


def _tiny_group_index(idx, dst, rows_per_group: int):
    """A copy of the built index ``idx`` under ``dst`` whose compact
    files are rewritten with ``rows_per_group``-row row groups."""
    import os
    import shutil

    import pyarrow.parquet as pq

    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        TermIndex,
    )

    shutil.copytree(idx.path, dst)
    for b in range(idx.num_buckets):
        f = os.path.join(dst, f"bucket-{b}", "compact.parquet")
        if os.path.exists(f):
            pq.write_table(pq.read_table(f), f,
                           row_group_size=rows_per_group)
    return TermIndex.load(dst)


def test_term_index_run_lookup_matches_filter(kg, tmp_path, monkeypatch):
    """matched_local finds a cached group's terms by their sorted runs;
    its rows equal the is_in filter of each probed bucket file row for
    row — a run across two row groups, absent and duplicate terms,
    every group pruned, and groups past the budget included — and the
    distributed matched() rows as a set."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
        ensure_term_index,
        term_runs,
    )

    size = 64
    src = ensure_term_index(str(tmp_path / "src"), kg["terms"])
    probe = _tiny_group_index(src, str(tmp_path / "probe"), size)

    spanning, present = None, []
    for b in range(probe.num_buckets):
        f = os.path.join(probe.bucket_dir(b), "compact.parquet")
        if not os.path.exists(f):
            continue
        uniq, bounds = term_runs(pq.read_table(f))
        present.append(uniq[len(uniq) // 2])
        for t, lo, hi in zip(uniq, bounds[:-1], bounds[1:]):
            if spanning is None and lo // size != (hi - 1) // size:
                spanning = t
    assert spanning is not None, "fixture needs a run across two groups"

    def by_filter(idx, terms):
        terms = sorted(set(terms))
        parts = [pq.read_table(f) for f in idx._bucket_files(terms)]
        return pa.concat_tables([
            t.filter(pc.is_in(t.column("term"), value_set=pa.array(terms)))
            for t in parts])

    def rows(tbl):
        return sorted(tuple(r.values()) for r in tbl.to_pylist())

    queries = [
        [spanning],
        [spanning, *present[:3], "zz-no-such-term"],
        [spanning, spanning, present[0], present[0]],
        [""],  # below every group's term min: every group pruned
    ]
    for budget in (config.TERM_LOCAL_ROWS, 3 * size):
        monkeypatch.setattr(config, "TERM_LOCAL_ROWS", budget)
        idx = _tiny_group_index(src, str(tmp_path / f"tiny-{budget}"), size)
        for _ in range(2):  # cold, then from the cache
            for terms in queries:
                got = idx.matched_local(terms, 10 ** 9)
                want = by_filter(idx, terms)
                assert got is not None
                assert got.schema == want.schema
                assert got.to_pylist() == want.to_pylist()
                assert rows(got) == rows(pa.Table.from_pylist(
                    idx.matched(terms).take_all(), schema=want.schema))
        assert any(r is not None for r in idx._runs.values())
        assert idx.cached_rows <= budget
    assert not by_filter(idx, [""]).num_rows
    assert term_runs(pa.table({"term": ["b", "a"]})) is None
    assert term_runs(pa.table({"term": pa.array([], pa.string())})) is None
    uniq, bounds = term_runs(pa.table({"term": ["a", "a", "b"]}))
    assert uniq == ["a", "b"] and bounds.tolist() == [0, 2, 3]


def _ivf_snapshot_of(index_dir: str):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
        _IVF_PROC_CACHE,
    )

    (snap,) = [s for m, s in _IVF_PROC_CACHE.items()
               if m.startswith(index_dir)]
    return snap


def _ivf_queries(kg, idx):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        vector_topk_ivf,
    )

    return [vector_topk_ivf(kg["chunk_vectors"], q, index_dir=idx, k=5,
                            cfg=CFG).take_all() for q in QUERIES]


def _rounded(res):
    """Per-query top-k rows at the round-6 parity contract."""
    return [[(r["chunk_id"], round(r["score"], 6)) for r in rows]
            for rows in res]


def test_vector_topk_ivf_cache_repeat_opens_no_file(kg, tmp_path,
                                                    monkeypatch):
    """The process keeps an IVF index's list files and decoded lists: a
    repeated vector_topk_ivf query opens no Parquet file, and its
    scores equal the cold call's bit for bit."""
    import pyarrow.parquet as pq
    import ray.data

    idx = str(tmp_path / "vecindex")
    cold = _ivf_queries(kg, idx)

    def no_read(*_a, **_k):
        raise AssertionError("a Parquet file was opened")

    for name in ("read_table", "ParquetFile", "read_metadata"):
        monkeypatch.setattr(pq, name, no_read)
    monkeypatch.setattr(ray.data, "read_parquet", no_read)
    assert _ivf_queries(kg, idx) == cold
    assert _ivf_snapshot_of(idx).cached_rows > 0


def test_vector_topk_ivf_cache_bound(kg, tmp_path, monkeypatch):
    """The decoded lists the process keeps never exceed
    config.KNN_LOCAL_ROWS rows over all its IVF snapshots, and a bound
    too small for every probed file changes no score."""
    import numpy as np

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines import similarity
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
        embed_query,
    )

    idx = str(tmp_path / "vecindex")
    want = _ivf_queries(kg, idx)
    snap = _ivf_snapshot_of(idx)
    probed = []
    for q in QUERIES:
        qv = embed_query(q, CFG).astype(np.float64)
        qv /= np.linalg.norm(qv)
        probes = np.argsort(-(snap.cents @ qv))[:8].tolist()
        probed.append(sum(snap._rows[f] for f in snap.list_files(probes)))
    bound = max(probed)  # every query stays on the local path
    assert sum(snap._rows.values()) > bound

    monkeypatch.setattr(config, "KNN_LOCAL_ROWS", bound)
    monkeypatch.setattr(similarity, "_IVF_PROC_CACHE", {})
    other = str(tmp_path / "other")
    for _ in range(2):
        assert _ivf_queries(kg, idx) == want
        small = _ivf_snapshot_of(idx)
        assert 0 < small.cached_rows <= bound
        assert small.cached_rows == sum(
            len(ids) for ids, _, _ in small.decoded.values())
        assert len(small.decoded) < len(small._rows)
        # a second index in the process shares the bound
        assert _rounded(_ivf_queries(kg, other)) == _rounded(want)
        assert sum(s.cached_rows for s in
                   similarity._IVF_PROC_CACHE.values()) <= bound


def test_vector_topk_ivf_warm_cache_keeps_zero_gate(kg, tmp_path,
                                                    monkeypatch):
    """KNN_LOCAL_ROWS = 0 still takes the distributed path when the
    process's IVF cache is warm."""
    import ray.data

    idx = str(tmp_path / "vecindex")
    local = _ivf_queries(kg, idx)
    assert _ivf_snapshot_of(idx).cached_rows > 0
    calls = []
    read = ray.data.read_parquet
    monkeypatch.setattr(ray.data, "read_parquet",
                        lambda *a, **kw: calls.append(a) or read(*a, **kw))
    monkeypatch.setattr(config, "KNN_LOCAL_ROWS", 0)
    dist = _ivf_queries(kg, idx)
    assert calls
    assert _rounded(dist) == _rounded(local)
