"""Query layer: retrieval over the materialized KG tables.

Re-expresses /root/reference/graphrag/core/retrieval.py as Dataset
operations over the Parquet tables build_kg materializes:

- vector top-k   (VectorRetriever, retrieval.py:107-161): exact
  brute-force cosine over ``chunk_vectors`` (O1 — exact ≥ Qdrant ANN for
  correctness), query embedded with the "query:" prefix (retrieval.py:93).
- term search    (GraphRetriever.term_search, retrieval.py:193-229):
  query n-grams matched against the ``terms`` edge list, SUM(score) per
  chunk (A1). Divergence (documented): Lucene fulltext scores are not
  reproducible without Lucene; in serving mode (a ``TermIndex``) the
  engine scores with deterministic BM25 postings precomputed at index
  build (idf·tf saturation, k1=1.2, b=0 — see stages/termindex.py for
  the full derivation and the remaining divergence from Lucene's
  BM25(b=0.75)); a raw terms Dataset falls back to the n-gram-order
  weight (unigram 1.0 / bigram 2.0 / trigram 3.0), which is also
  available on the index as ``score="ngram_order"`` for exact
  full-scan parity checks.
- entity search  (retrieval.py:231-263): reads MENTIONS_ENTITY edges that
  NOTHING ever writes in the reference (SURVEY.md §1.1) — a dead path
  that always returns empty; reproduced faithfully as an empty result.
- hybrid combine (HybridRetriever, retrieval.py:533-605): min-max
  normalization (O3) + weighted vector/graph sum + top-k.
- context windows (retrieval.py:469-514): ±context_size neighbors via the
  chunk-chain columns; matches first (score order), context scored 0 (O4).
- relationship search (retrieval.py:265-314): edges filtered by subject
  entity (+ case-insensitive predicate substring), with the chunk
  provenance the reference always returned as null.

Serving from memory: every retrieval function also accepts the
in-process ``pa.Table`` of a small checkpoint (`_kg_local_table`, the
kgbench ``Server``) and a ``TermIndex`` handle, whose small matches are
read with pyarrow (``TermIndex.matched_local``). The functions that
return rows — ``hybrid_retrieve``, ``graph_retrieve``,
``term_search(as_rows=True)`` and the context / chain / relationship
lookups — then run no Dataset at all: wrapping a 10-row answer in
``ray.data.from_arrow`` and taking it back cost ≈27 ms per call (1 CPU,
1,276 chunk vectors; the scoring kernel itself took 1.6 ms).

``vector_topk`` and ``vector_topk_ivf`` keep returning Datasets, so the
ops that call them still pay that ≈25 ms round-trip: the exact vector
top-k and the IVF vector leg of a hybrid query (kgbench's
``vector_topk`` and ``hybrid_ivf`` ops), around kernels of a few ms.
Their callers, kgbench's ``Server`` among them, take rows from the
returned Dataset with ``.take(k)``; returning rows instead changes that
interface and waits for the benchmark to change with it. The work
below the round-trip is per query, not per index: a ``TermIndex`` finds
a cached row group's terms by their sorted runs, and the process keeps
each IVF index's list files and decoded lists (``similarity.knn_ivf``).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import config
from ..config import DEFAULT_CONFIG, PipelineConfig
from ..functions.chunk import extract_ngrams
from ..functions.embed import get_embedder
from ..functions.link import canonical_key, entity_id_for

# capitalized-phrase query-entity heuristic (retrieval.py:332,622)
_CAP_PHRASE = re.compile(r"[A-Z][a-z]+(?:\s+[A-Z][a-z]+)*")

_TYPE_SCORE = {"unigram": 1.0, "bigram": 2.0, "trigram": 3.0}


def query_entities(query: str) -> list[str]:
    return _CAP_PHRASE.findall(query)


def embed_query(query: str, cfg: PipelineConfig = DEFAULT_CONFIG) -> np.ndarray:
    emb = get_embedder(cfg.embedding_model, cfg.vector_size)
    return np.asarray(emb.encode([query], prefix="query:")[0], dtype=np.float32)


def vector_topk_table(tbl: pa.Table, query: str, k: int = 10,
                      cfg: PipelineConfig = DEFAULT_CONFIG) -> pa.Table:
    """Exact cosine top-k of an in-process ``chunk_vectors`` table (the
    caller read a small checkpoint locally — `_kg_local_table`), with no
    Dataset execution: float32 scores, ties kept in table order (stable
    ``argsort``). Returns a ``pa.Table`` (chunk_id, payload_text,
    score)."""
    qv = embed_query(query, cfg)
    mat = np.asarray(
        tbl.column("embedding").combine_chunks().flatten()
    ).reshape(tbl.num_rows, cfg.vector_size)
    s = (mat.astype(np.float32) @ qv).astype(np.float64)
    order = np.argsort(-s, kind="stable")[:k]
    rows = pa.array(order)
    return pa.table({
        "chunk_id": tbl.column("chunk_id").combine_chunks().take(rows),
        "payload_text": tbl.column("payload_text").combine_chunks().take(rows),
        "score": pa.array(s[order]),
    })


def vector_topk(chunk_vectors_ds, query: str, k: int = 10,
                cfg: PipelineConfig = DEFAULT_CONFIG):
    """Exact cosine top-k: per-batch matmul against the query vector,
    per-batch top-k COMBINER (each batch forwards only its k best rows,
    so payload strings never ride an all-to-all), then one tiny sort
    over ≤ blocks × k survivors. Global top-k == top-k of per-batch
    top-ks, exactly. Returns a Dataset (chunk_id, payload_text, score).

    ``chunk_vectors_ds`` may also be an in-process ``pa.Table``: then
    :func:`vector_topk_table` scores it and its answer is wrapped back
    into a Dataset."""
    if isinstance(chunk_vectors_ds, pa.Table):
        import ray.data

        return ray.data.from_arrow(
            vector_topk_table(chunk_vectors_ds, query, k, cfg))

    qv = embed_query(query, cfg)

    def score(batch: pa.Table) -> pa.Table:
        mat = np.asarray(batch.column("embedding").combine_chunks().flatten()
                         ).reshape(batch.num_rows, cfg.vector_size)
        s = mat.astype(np.float32) @ qv  # unit-norm rows → dot = cosine
        scored = pa.table(
            {
                "chunk_id": batch.column("chunk_id"),
                "payload_text": batch.column("payload_text"),
                "score": pa.array(s.astype(np.float64)),
            }
        )
        if scored.num_rows <= k:
            return scored
        # stable, like vector_topk_table: of rows tied at the k-th
        # score the earlier ones survive (argpartition kept either)
        top = np.argsort(-s, kind="stable")[:k]
        return scored.take(pa.array(np.sort(top)))

    return (
        chunk_vectors_ds.map_batches(score, batch_format="pyarrow", batch_size=4096)
        .sort("score", descending=True)
        .limit(k)
    )


def vector_topk_ivf(chunk_vectors_ds, query: str, index_dir: str,
                    fingerprint: str = "", k: int = 10,
                    nlist: int = 16, nprobe: int = 8,
                    cfg: PipelineConfig = DEFAULT_CONFIG):
    """Serving-mode vector search: IVF index over the chunk vectors,
    persisted list-partitioned under ``index_dir``
    (:func:`similarity.ensure_ivf_index` — atomic publish + fingerprint
    invalidation), so a warm query reads ONLY its ``nprobe`` probed list
    partitions instead of brute-scanning the whole ``chunk_vectors``
    table per query (VERDICT r3 item 9). Returns Dataset
    (chunk_id, score) sorted desc. :func:`vector_topk` (exact brute)
    stays the parity baseline; top-k identity on the fixture is pinned
    by tests/test_query_layer.py. ``chunk_vectors_ds`` may be a
    zero-arg callable — resolved only on a cold index build, so warm
    serving never constructs the KG pipeline (VERDICT r4 task 3)."""
    from .similarity import knn_ivf

    qv = embed_query(query, cfg)
    src = (
        (lambda: chunk_vectors_ds().select_columns(
            ["chunk_id", "embedding"]))
        if callable(chunk_vectors_ds)
        else chunk_vectors_ds.select_columns(["chunk_id", "embedding"])
    )
    return knn_ivf(
        src,
        qv, dim=cfg.vector_size, k=k, nlist=nlist, nprobe=nprobe,
        id_col="chunk_id", emb_col="embedding",
        index_dir=index_dir, fingerprint=fingerprint,
    )


def resolve_chunk_texts(hits: list[dict], chunks_ds,
                        payload_max: int = 1000) -> list[dict]:
    """M9/J2: a payload text of length ≥ payload_max-10 is treated as
    truncated and re-fetched from the chunks table by id (the reference's
    `len >= 990 → fetch from Neo4j` rule, retrieval.py:147-154; the id-list
    fetch is retrieval.py:40-61). Broadcast semi-join on chunk_id."""
    needs = [
        h["chunk_id"]
        for h in hits
        if len(h.get("payload_text") or "") >= payload_max - 10
    ]
    if needs:
        want = pa.array(needs)
        full = {
            r["chunk_id"]: r["text"]
            for r in chunks_ds.map_batches(
                lambda b: b.filter(pc.is_in(b.column("chunk_id"), value_set=want)),
                batch_format="pyarrow",
            ).take_all()
        }
    else:
        full = {}
    out = []
    for h in hits:
        h = dict(h)
        h["text"] = full.get(h["chunk_id"], h.get("payload_text"))
        out.append(h)
    return out


def term_search(terms_ds, query: str, k: int = 10,
                cfg: PipelineConfig = DEFAULT_CONFIG,
                score: str | None = None, as_rows: bool = False):
    """Query n-grams ⋈ terms (broadcast semi-join) → SUM(score) per chunk
    → top-k. Returns Dataset (chunk_id, score), or the same top-k as a
    ``list[dict]`` with ``as_rows=True`` (serving callers that consume
    rows anyway skip a Dataset wrap+take round-trip — ≈27 ms per call
    on 1 CPU).

    ``terms_ds`` may be the raw terms Dataset (full scan — batch-mode
    semantics) or a ``stages.termindex.TermIndex`` (serving mode: only
    the query terms' bucket files are read, with the term filter pushed
    into ``read_parquet`` — the layout-as-index contract, SURVEY.md S7).
    ``score``: ``"bm25"`` (default on a TermIndex — sums the postings'
    precomputed BM25) or ``"ngram_order"`` (the 1/2/3 weights; default
    and only mode on a raw Dataset, where it counts occurrence rows —
    on the index it multiplies the weight by the aggregated ``tf``,
    which is exactly equivalent)."""
    uni, bi, tri = extract_ngrams(query, cfg.remove_stopwords)
    wanted = {t: _TYPE_SCORE["unigram"] for t in uni}
    wanted.update({t: _TYPE_SCORE["bigram"] for t in bi})
    wanted.update({t: _TYPE_SCORE["trigram"] for t in tri})
    is_index = hasattr(terms_ds, "matched")
    index = terms_ds if is_index else None
    if score is None:
        score = "bm25" if is_index else "ngram_order"
    if not is_index and score == "bm25":
        raise ValueError("bm25 scoring needs a TermIndex (postings carry "
                         "the precomputed statistics); raw terms Datasets "
                         "score by ngram_order")
    if not wanted:
        if as_rows:
            return []
        if is_index:
            terms_ds = terms_ds.matched([])
        return terms_ds.limit(0).select_columns(["chunk_id"])
    value_set = pa.array(sorted(wanted))

    def match(batch: pa.Table) -> pa.Table:
        hit = batch.filter(pc.is_in(batch.column("term"), value_set=value_set))
        if score == "bm25":
            vals = pc.cast(hit.column("bm25"), pa.float64())
        elif is_index:  # ngram_order over aggregated postings: weight × tf
            w = [wanted[t] for t in hit.column("term").to_pylist()]
            vals = pc.multiply(pa.array(w, pa.float64()),
                               pc.cast(hit.column("tf"), pa.float64()))
        else:  # raw edge list: weight per occurrence row
            vals = pa.array([wanted[t] for t in
                             hit.column("term").to_pylist()], pa.float64())
        # per-batch combiner: sum scores per chunk before the exchange.
        # chunk_id decodes to string here (raw terms blocks are
        # dict-encoded; the exchange concatenates blocks, and Arrow 16
        # cannot unify differing dictionaries downstream)
        return (
            pa.table({"chunk_id": pc.cast(hit.column("chunk_id"),
                                          pa.string()),
                      "score": vals})
            .group_by("chunk_id")
            .aggregate([("score", "sum")])
            .rename_columns(["chunk_id", "score"])
        )

    # small-match local fast path (the knn_ivf pattern): a query's few
    # terms usually match a handful of bucket files; when those are
    # small — judged from parquet footers alone — the same kernel
    # scores the whole match in-process as one batch (its per-chunk sum
    # is then complete) and the top-k is a local sort with the same
    # (score desc, chunk_id asc) tie-break, instead of paying a Dataset
    # plan + exchange + sort (~1-3 s fixed latency each on a loaded
    # host). Above config.TERM_LOCAL_ROWS the distributed path below
    # runs off the pruned matched() read, constructed only then.
    if index is not None:
        hit = index.matched_local(sorted(wanted), config.TERM_LOCAL_ROWS)
        if hit is not None:
            import ray.data

            out = match(hit).sort_by([("score", "descending"),
                                      ("chunk_id", "ascending")]).slice(0, k)
            if as_rows:
                return out.to_pylist()
            return ray.data.from_arrow(out)
        terms_ds = index.matched(sorted(wanted))

    import pandas as pd

    from ..stages.shuffle import grouped_apply

    def agg_topk(pdf: pd.DataFrame) -> pd.DataFrame:
        """Per-partition final sum + local top-k (per-chunk totals are
        complete within a hash partition, so the global top-k is the
        top-k of ≤ partitions × k local winners — no full sort of
        the matched-chunk set)."""
        s = pdf.groupby("chunk_id", sort=False)["score"].sum().reset_index()
        return s.sort_values(["score", "chunk_id"],
                             ascending=[False, True]).head(k)

    ds = (
        grouped_apply(
            terms_ds.map_batches(match, batch_format="pyarrow",
                                 batch_size=262144),
            ["chunk_id"], agg_topk,
            batch_format="pandas",
        )
        .sort(["score", "chunk_id"], descending=[True, False])
        .limit(k)
    )
    if as_rows:
        return ds.take(k)
    return ds


def term_search_all(terms_ds, query: str, k: int = 10,
                    cfg: PipelineConfig = DEFAULT_CONFIG,
                    as_rows: bool = False):
    """Boolean AND retrieval — chunks containing EVERY query unigram
    (the inverted-index intersection the OR-semantics ``term_search``
    deliberately doesn't do), ranked by summed per-term score (BM25 on
    a TermIndex, tf on a raw terms Dataset), ties by chunk_id.  The
    coverage requirement is per DISTINCT matched unigram, so repeated
    query words don't demand repeated occurrences.

    Scale shape: identical pruned-read contract as ``term_search``
    (only the query terms' bucket files are opened on a TermIndex,
    with the small-match in-process fast path); the distributed path
    pre-combines (chunk, term, score) per batch, then ONE chunk-keyed
    exchange computes coverage (count of distinct matched terms ==
    n query terms) and per-partition top-k — the global winner set is
    the top-k of ≤ partitions × k survivors."""
    import pandas as pd

    from ..stages.shuffle import grouped_apply

    uni, _, _ = extract_ngrams(query, cfg.remove_stopwords)
    need = sorted(set(uni))
    n_need = len(need)
    is_index = hasattr(terms_ds, "matched")

    def empty():
        tbl = pa.table({"chunk_id": pa.array([], pa.string()),
                        "score": pa.array([], pa.float64())})
        if as_rows:
            return []
        import ray.data

        return ray.data.from_arrow(tbl)

    if not n_need:
        return empty()

    def coverage_topk(tbl: pa.Table):
        pdf = (tbl if isinstance(tbl, pd.DataFrame) else tbl.to_pandas())
        per = pdf.groupby(["chunk_id", "term"], sort=False)["s"].sum()
        per = per.reset_index()
        cov = per.groupby("chunk_id", sort=False)["term"].nunique()
        keep = cov[cov == n_need].index
        hit = per[per["chunk_id"].isin(keep)]
        s = hit.groupby("chunk_id", sort=False)["s"].sum().reset_index()
        s = s.rename(columns={"s": "score"})
        return s.sort_values(["score", "chunk_id"],
                             ascending=[False, True]).head(k)

    value_set = pa.array(need)

    def match(batch: pa.Table) -> pa.Table:
        hit = batch.filter(
            pc.is_in(batch.column("term"), value_set=value_set))
        if "bm25" in hit.column_names:
            vals = pc.cast(hit.column("bm25"), pa.float64())
        elif "tf" in hit.column_names:
            vals = pc.cast(hit.column("tf"), pa.float64())
        else:  # raw occurrence rows score 1 each
            vals = pa.array([1.0] * hit.num_rows, pa.float64())
        part = (
            pa.table({"chunk_id": pc.cast(hit.column("chunk_id"),
                                          pa.string()),
                      "term": pc.cast(hit.column("term"), pa.string()),
                      "s": vals})
            .group_by(["chunk_id", "term"])
            .aggregate([("s", "sum")])
            .rename_columns(["chunk_id", "term", "s"])
        )
        return part

    # small-match local fast path: the same kernels over the whole
    # match as one batch (see term_search)
    if is_index:
        hit = terms_ds.matched_local(need, config.TERM_LOCAL_ROWS)
        if hit is not None:
            import ray.data

            tbl = pa.Table.from_pandas(coverage_topk(match(hit)),
                                       preserve_index=False)
            if as_rows:
                return tbl.to_pylist()
            return ray.data.from_arrow(tbl)
        terms_ds = terms_ds.matched(need)

    ds = (
        grouped_apply(
            terms_ds.map_batches(match, batch_format="pyarrow",
                                 batch_size=262144),
            ["chunk_id"], coverage_topk,
            batch_format="pandas",
        )
        .sort(["score", "chunk_id"], descending=[True, False])
        .limit(k)
    )
    if as_rows:
        return ds.take(k)
    return ds


def entity_search(query: str):
    """Reference parity: MENTIONS_ENTITY is never written
    (retrieval.py:246 reads it; no writer exists) → always empty."""
    return []


def _minmax(rows: list[dict], col: str) -> dict[str, float]:
    """Min-max normalize (retrieval.py:550-569); single/equal scores → 1.0."""
    if not rows:
        return {}
    vals = [r[col] for r in rows]
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return {r["chunk_id"]: 1.0 for r in rows}
    return {r["chunk_id"]: (r[col] - lo) / (hi - lo) for r in rows}


def graph_retrieve(terms_ds, query: str, k: int = 10,
                   cfg: PipelineConfig = DEFAULT_CONFIG) -> list[dict]:
    """GraphRetriever.retrieve_chunks (retrieval.py:316-371): term search ∪
    entity search (dead), dedup by chunk keeping max score (A2)."""
    hits = term_search(terms_ds, query, k, cfg, as_rows=True)
    best: dict[str, float] = {}
    for r in list(hits) + entity_search(query):
        cid = r["chunk_id"]
        if cid not in best or r["score"] > best[cid]:
            best[cid] = r["score"]
    out = [{"chunk_id": c, "score": s} for c, s in best.items()]
    out.sort(key=lambda r: (-r["score"], r["chunk_id"]))
    return out[:k]


def hybrid_retrieve(chunk_vectors_ds, terms_ds, query: str, k: int = 10,
                    cfg: PipelineConfig = DEFAULT_CONFIG,
                    vec_hits: list[dict] | None = None) -> list[dict]:
    """HybridRetriever (retrieval.py:533-605): min-max normalize each list,
    weighted combine (vector_weight / 1-vector_weight), top-k.

    ``vec_hits``: precomputed vector-leg hits (chunk_id, score) — the
    serving composition where the vector side comes from an ANN index
    (the reference's Qdrant leg is itself HNSW-approximate) instead of
    the exact brute scan. When given, ``chunk_vectors_ds`` is unused.
    An in-process ``pa.Table`` is scored by :func:`vector_topk_table`
    directly, the rows of ``vector_topk(...).take(k)`` without the
    Dataset."""
    if vec_hits is not None:
        vec = vec_hits
    elif isinstance(chunk_vectors_ds, pa.Table):
        vec = vector_topk_table(chunk_vectors_ds, query, k, cfg).to_pylist()
    else:
        vec = vector_topk(chunk_vectors_ds, query, k, cfg).take(k)
    gra = graph_retrieve(terms_ds, query, k, cfg)
    nv = _minmax(list(vec), "score")
    ng = _minmax(gra, "score")
    w = cfg.vector_weight
    combined: dict[str, float] = {}
    for cid, s in nv.items():
        combined[cid] = w * s
    for cid, s in ng.items():
        combined[cid] = combined.get(cid, 0.0) + (1 - w) * s
    out = [{"chunk_id": c, "score": s} for c, s in combined.items()]
    out.sort(key=lambda r: (-r["score"], r["chunk_id"]))
    return out[:k]


def with_context(chunks_ds, hits: list[dict], context_size: int = 1) -> list[dict]:
    """retrieve_with_context (retrieval.py:469-514): expand each hit with
    ±context_size chain neighbors via (doc_id, chunk_index) arithmetic —
    a zero-join window over the chunk-chain columns (J3). Matches first
    (by score desc), then context chunks with score 0; dedup keeps the
    match entry."""
    if not hits:
        return []
    # the chunk-id scheme encodes (doc_id, index) — parse instead of a
    # first table scan (one scan total, not two)
    from ..functions.ids import parse_chunk_id

    windows: set[tuple[str, int]] = set()
    for h in hits:
        parsed = parse_chunk_id(h["chunk_id"])
        if parsed is None:
            continue
        doc, center = parsed
        for d in range(-context_size, context_size + 1):
            idx = center + d
            if idx >= 0:
                windows.add((doc, idx))
    keys = pa.array([f"{d}\x00{i}" for d, i in sorted(windows)])

    def in_window(batch: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(
            batch.column("doc_id"),
            pc.cast(batch.column("chunk_index"), pa.string()),
            "\x00",
        )
        return batch.filter(pc.is_in(key, value_set=keys))

    # chunks_ds may be an in-process pa.Table (a small checkpoint read
    # locally — `_kg_local_table`): same filter, no Dataset execution
    if isinstance(chunks_ds, pa.Table):
        ctx_rows = in_window(chunks_ds).to_pylist()
    else:
        ctx_rows = chunks_ds.map_batches(
            in_window, batch_format="pyarrow").take_all()
    score_of = {h["chunk_id"]: h["score"] for h in hits}
    out = []
    for r in ctx_rows:
        cid = r["chunk_id"]
        out.append(
            {
                "chunk_id": cid,
                "doc_id": r["doc_id"],
                "chunk_index": r["chunk_index"],
                # a pruned meta projection (no text column) is a valid
                # input when the caller only needs the window shape
                "text": r.get("text"),
                "is_match": cid in score_of,
                "score": score_of.get(cid, 0.0),
            }
        )
    out.sort(key=lambda r: (-r["score"], r["doc_id"], r["chunk_index"]))
    return out


def fetch_chunk(chunks_ds, chunk_id: str) -> dict | None:
    """Single-chunk fetch by id (retrieval.py:40-61 shape, pruned scan)."""
    rows = chunks_ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("chunk_id"), chunk_id)),
        batch_format="pyarrow",
    ).take(1)
    return rows[0] if rows else None


def get_next_chunk(chunks_ds, chunk_id: str) -> dict | None:
    """NEXT-edge hop (/root/reference/graphrag/core/retrieval.py:373-395):
    the chunk chain is data (``next_chunk_id`` column), so one hop is one
    id-pruned fetch, no graph store."""
    row = fetch_chunk(chunks_ds, chunk_id)
    nxt = row.get("next_chunk_id") if row else None
    return fetch_chunk(chunks_ds, nxt) if nxt else None


def get_prev_chunk(chunks_ds, chunk_id: str) -> dict | None:
    """PREV-edge hop (retrieval.py:397-418)."""
    row = fetch_chunk(chunks_ds, chunk_id)
    prv = row.get("prev_chunk_id") if row else None
    return fetch_chunk(chunks_ds, prv) if prv else None


def get_document_chain(chunks_ds, chunk_id: str, max_chunks: int = 5) -> list[dict]:
    """Chunk chain ±max_chunks around a center chunk, in sequence order
    (retrieval.py:419-467). The reference walks one NEXT/PREV Cypher
    round-trip per hop (up to 2×max_chunks+1 queries); the engine fetches
    the whole ``(doc_id, chunk_index)`` window in ONE pruned scan —
    identical result, chain-as-data."""
    from ..functions.ids import parse_chunk_id

    parsed = parse_chunk_id(chunk_id)
    if parsed is None:
        return []
    doc_id, idx = parsed
    lo, hi = idx - max_chunks, idx + max_chunks

    def window(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(batch.column("doc_id"), doc_id),
            pc.and_(
                pc.greater_equal(batch.column("chunk_index"), lo),
                pc.less_equal(batch.column("chunk_index"), hi),
            ),
        )
        return batch.filter(m)

    # chunks_ds may be an in-process pa.Table (small checkpoint read
    # locally): same window filter, no Dataset execution
    if isinstance(chunks_ds, pa.Table):
        rows = window(chunks_ds).to_pylist()
    else:
        rows = chunks_ds.map_batches(
            window, batch_format="pyarrow").take_all()
    # reference parity: unknown center chunk → [] (retrieval.py:443-447);
    # the id parse alone can't prove existence, the window scan does
    if chunk_id not in {r["chunk_id"] for r in rows}:
        return []
    rows.sort(key=lambda r: r["chunk_index"])
    return rows


def relationship_search(edges_ds, entity_name: str, relation_keyword: str | None = None,
                        k: int = 10) -> list[dict]:
    """relationship_search (retrieval.py:265-314): edges by subject entity,
    optional case-insensitive predicate substring, with real provenance."""
    eid = entity_id_for(canonical_key(entity_name))

    def match(batch: pa.Table) -> pa.Table:
        hit = batch.filter(pc.equal(batch.column("src_entity_id"), eid))
        if relation_keyword:
            hit = hit.filter(
                pc.match_substring(hit.column("pred"), relation_keyword,
                                   ignore_case=True)
            )
        keep = [c for c in hit.column_names if c != "pred_embedding"]
        return hit.select(keep)

    # edges_ds may be an in-process pa.Table (a small checkpoint read
    # locally): same filter, first-k in the same storage order
    if isinstance(edges_ds, pa.Table):
        return match(edges_ds).slice(0, k).to_pylist()
    rows = edges_ds.map_batches(match, batch_format="pyarrow").take(k)
    return list(rows)


def hybrid_retrieve_with_triplets(chunk_vectors_ds, terms_ds, edges_ds, query: str,
                                  k: int = 10, cfg: PipelineConfig = DEFAULT_CONFIG):
    """hybrid_retrieve_with_triplets (retrieval.py:607-637): hybrid chunks
    + per-query-entity relationship hits truncated [:k] per entity and
    globally (O5)."""
    chunks = hybrid_retrieve(chunk_vectors_ds, terms_ds, query, k, cfg)
    triplets: list[dict] = []
    for ent in query_entities(query):
        triplets.extend(relationship_search(edges_ds, ent, None, k))
        if len(triplets) >= k:
            break
    return {"chunks": chunks, "triplets": triplets[:k]}
