"""Spans around calls into the engine's public functions.

Spans are kept in memory and written once at the end of the run. The
traced KG build calls, in ``build_kg``'s dependency order and each
through ``state.checkpoint.checkpointed``, the stage functions that
``build_kg`` composes; every stage is materialized in its own span, then
published in a ``state.checkpoint.<table>`` span, so compute and publish
are timed apart. Branches run one after another, so the sum of the spans
is longer than a ``build_kg`` run by the branch overlap plus the tracing
cost.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.parquet as pq

from nlp_graphrag_with_qdrant_and_neo4j_ray.schemas import (
    CHUNKS, DOCUMENTS, TERMS, TERMS_DICT, TRIPLES,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages import embedding as emb_stage
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages import ngram as ngram_stage
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages import tripletstage as tri_stage
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.chunking import make_chunk_fn
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.extract import make_extract_fn
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.link import (
    collect_alias_dict, edges, entity_nodes, link_triples,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.state.checkpoint import checkpointed
from nlp_graphrag_with_qdrant_and_neo4j_ray.state.lineage import LineageRecorder
from nlp_graphrag_with_qdrant_and_neo4j_ray.state.quarantine import (
    QuarantineRecorder, quarantined,
)

KG_TABLES = ("documents", "chunks", "terms", "term_nodes", "chunk_vectors",
             "triples", "linked_triples", "entity_nodes", "edges")
# the compute spans of the five per-batch map stages
MAP_STAGE_SPANS = ("stages.extract.documents", "stages.chunking.chunks",
                   "stages.ngram.terms", "stages.embedding.chunk_vectors",
                   "stages.tripletstage.triples")


class Tracer:
    """In-memory span list: name, start, end, parent span id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name and s["end"] is not None)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def dir_stats(path: str) -> tuple[int, int]:
    """(files, bytes) under ``path``."""
    files = size = 0
    for d, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(d, n))
    return files, size


def read_table(out_dir: str, name: str) -> pa.Table:
    return pq.read_table(os.path.join(out_dir, name))


def table_digest(out_dir: str, name: str) -> str:
    """Row-order-independent digest of a published table (dictionary
    columns decoded, so storage encoding does not matter)."""
    tbl = read_table(out_dir, name)
    rows = sorted(
        hashlib.blake2b(repr(sorted(r.items())).encode(),
                        digest_size=16).digest()
        for r in tbl.to_pylist())
    return hashlib.blake2b(b"".join(rows), digest_size=16).hexdigest()


def traced_build(tr: Tracer, pages_dir: str, out_dir: str, cfg) -> None:
    """The KG build of ``pages_dir`` into ``out_dir``, one span per stage
    compute and per checkpoint publish."""
    import ray.data

    os.makedirs(out_dir, exist_ok=True)

    def rec(stage):
        return LineageRecorder(out_dir, stage, cfg.versioned(stage))

    def qrec(stage):
        return QuarantineRecorder(out_dir, stage)

    def stage(name: str, layer: str, compute):
        with tr.span(f"{layer}.{name}"):
            ds = compute().materialize()
        with tr.span(f"state.checkpoint.{name}"):
            return checkpointed(out_dir, name, lambda: ds, resume=False)

    with tr.span("sources.read") as sp:
        pages = ray.data.read_parquet(pages_dir).materialize()
    sp["rows"], sp["bytes"] = pages.count(), pages.size_bytes()

    documents = stage("documents", "stages.extract", lambda: pages.map_batches(
        quarantined(make_extract_fn(cfg, rec("extract")), "url", DOCUMENTS,
                    qrec("extract")),
        batch_format="pyarrow", batch_size=cfg.chunk_batch_size))
    chunks = stage("chunks", "stages.chunking", lambda: documents.map_batches(
        quarantined(make_chunk_fn(cfg, rec("chunk")), "doc_id", CHUNKS,
                    qrec("chunk")),
        batch_format="pyarrow", batch_size=cfg.chunk_batch_size))
    terms_schema = TERMS_DICT if ngram_stage._dict_out() else TERMS
    terms = stage("terms", "stages.ngram", lambda: chunks.map_batches(
        quarantined(ngram_stage.make_ngram_fn(cfg, rec("ngram")), "chunk_id",
                    terms_schema, qrec("ngram")),
        batch_format="pyarrow", batch_size=cfg.chunk_batch_size))
    if emb_stage.wants_actor_pool(cfg):
        raise RuntimeError("the traced build covers the task-mode embedder only")
    stage("chunk_vectors", "stages.embedding", lambda: chunks.map_batches(
        emb_stage.make_embed_fn(cfg, rec("embed")),
        batch_format="pyarrow", batch_size=cfg.embed_batch_size))
    if tri_stage.wants_actor_pool(cfg):
        raise RuntimeError("the traced build covers the task-mode extractor only")
    triples = stage("triples", "stages.tripletstage", lambda: chunks.map_batches(
        quarantined(tri_stage.make_triplet_fn(cfg, rec("triplets")), "chunk_id",
                    TRIPLES, qrec("triplets")),
        batch_format="pyarrow", batch_size=cfg.triplet_batch_size))

    with tr.span("stages.link.collect_alias_dict"):
        alias = collect_alias_dict(
            triples, cfg, spill_dir=os.path.join(out_dir, "_alias_spill"),
            lineage=rec("alias"))
    linked = stage(
        "linked_triples", "stages.link",
        lambda: link_triples(triples, alias, cfg))
    stage("entity_nodes", "stages.link", lambda: entity_nodes(linked, cfg))
    stage("edges", "stages.link", lambda: edges(linked, cfg))
    stage("term_nodes", "stages.ngram", lambda: ngram_stage.term_nodes(terms, cfg))


def run_kernels(pages_tbl: pa.Table, cfg) -> dict:
    """Each per-batch map kernel called in-process (no Ray) on the
    batches ``build_kg`` gives it. Returns {stage: (self_s, rows_out)}."""

    def batches(tbl: pa.Table, size: int):
        return [tbl.slice(i, size) for i in range(0, tbl.num_rows, size)]

    def run(fn, tbls):
        t0 = time.perf_counter()
        outs = [fn(b) for b in tbls]
        dt = time.perf_counter() - t0
        return dt, pa.concat_tables(outs)

    res: dict = {}
    t, docs = run(make_extract_fn(cfg), batches(pages_tbl, cfg.chunk_batch_size))
    res["extract"] = (t, docs.num_rows)
    t, chunks = run(make_chunk_fn(cfg), batches(docs, cfg.chunk_batch_size))
    res["chunking"] = (t, chunks.num_rows)
    t, terms = run(ngram_stage.make_ngram_fn(cfg), batches(chunks, cfg.chunk_batch_size))
    res["ngram"] = (t, terms.num_rows)
    t, vecs = run(emb_stage.make_embed_fn(cfg), batches(chunks, cfg.embed_batch_size))
    res["embedding"] = (t, vecs.num_rows)
    t, triples = run(tri_stage.make_triplet_fn(cfg),
                     batches(chunks, cfg.triplet_batch_size))
    res["tripletstage"] = (t, triples.num_rows)
    return res
