"""The flagship KG-construction pipeline (SURVEY.md §3.1 engine DAG).

    pages ─ extract+lang-filter ─ documents ─ chunker ─ chunks
      chunks ─ n-grams ──────────────→ terms, term_nodes
      chunks ─ embedder actor pool ──→ chunk_vectors
      chunks ─ triplet actor pool ───→ triples
      triples ─ broadcast-linker ─ salted canonicalize → entity_nodes
              └─ edge combiner ─ groupby(src,dst,pred) → edges (sorted)

Each table is a per-stage Parquet checkpoint (atomic publish + _SUCCESS;
resume skips completed stages); every stage appends per-partition lineage
rows. The reference runs the same logic as three sequential in-memory
passes per document (cli/main.py:86-104).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc

from ..config import DEFAULT_CONFIG, PipelineConfig
from ..functions.rounding import sql_round
from ..stages import embedding as emb_stage
from ..stages import tripletstage as tri_stage
from ..stages.chunking import make_chunk_fn
from ..stages.embedding import EmbedChunks
from ..stages.extract import make_extract_fn
from ..stages.link import (
    EDGE_KEYS, PART_NAMES, collect_alias_dict, edges, entity_nodes,
    entity_rows, fold_edges, fold_entities, link_triples,
)
from ..stages.ngram import make_ngram_fn, term_nodes
from ..stages.tripletstage import ExtractTriples
from ..schemas import CHUNKS, DOCUMENTS, TERMS_DICT, TRIPLES
from ..state.checkpoint import DiskTables, checkpointed, checkpointed_passthrough
from ..state.lineage import LineageRecorder
from ..state.quarantine import QuarantineRecorder, quarantined

TABLES = ("documents", "chunks", "terms", "term_nodes", "chunk_vectors",
          "triples", "linked_triples", "entity_nodes", "edges")


def build_kg(
    pages_ds_factory,
    out_dir: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    resume: bool = True,
    lineage: bool = True,
):
    """Run (or resume) the full KG build; returns a read-only mapping
    {table_name: Dataset} whose Datasets are the published checkpoints,
    each opened with ``read_parquet`` on first access (``DiskTables``).

    ``pages_ds_factory`` is a zero-arg callable returning the input pages
    Dataset (a callable so a resumed run doesn't even construct the read).
    """
    import time
    from concurrent.futures import ThreadPoolExecutor

    import ray

    os.makedirs(out_dir, exist_ok=True)

    # actor-pool sizing: never reserve every CPU or the pool starves the
    # read/write tasks and the pipeline deadlocks (observed at num_cpus=4
    # with a fixed pool of 4). Autoscale from 1 up to a cap below the
    # cluster CPU count.
    total_cpus = int(ray.cluster_resources().get("CPU", 8))
    embed_pool = (1, max(1, min(cfg.embed_concurrency, total_cpus - 2)))
    triplet_pool = (1, max(1, min(cfg.triplet_concurrency, total_cpus - 2)))

    def rec(stage: str) -> LineageRecorder | None:
        return LineageRecorder(out_dir, stage, cfg.versioned(stage)) if lineage else None

    # row-failure policy (reference skip-and-continue, cli/main.py:150-154,
    # at row granularity): poisoned rows are skipped + recorded, never
    # batch-fatal
    def qrec(stage: str) -> QuarantineRecorder:
        return QuarantineRecorder(out_dir, stage)

    # per-stage driver wall clock (one entry per table, written from the
    # branch threads), recorded into the manifest for observability
    stage_wall: dict[str, float] = {}
    # interior tables consumed downstream in the same run hand their
    # object-store blocks straight to consumers and publish the Parquet
    # checkpoint on a background thread — the write/read-back round-trip
    # leaves the critical path. finalizers are joined before build_kg
    # returns; the returned tables are opened from disk on first access,
    # so no object-store pin outlives the build and a table nobody reads
    # is never opened. terms is not handed off: it
    # is the n-gram explosion (~15 rows per chunk, the largest table in
    # the build), pinning it pushes the object store into spill at large
    # corpus sizes (measured at 1 M pages: 32-CPU wall 76 s streaming vs
    # 122 s pinned), and its consumer (term_nodes) is off the critical
    # path, so it streams. Leaf tables stream write_parquet directly.
    handoff = ("documents", "chunks", "triples", "linked_triples")
    finalizers: dict = {}

    # leaf tables (no consumer in the build) are published, not opened
    def stage(name: str, compute, read_back: bool = True):
        t0 = time.perf_counter()
        if name in handoff:
            ds, finalizers[name] = checkpointed_passthrough(
                out_dir, name, compute, resume=resume)
        else:
            ds = checkpointed(out_dir, name, compute, resume=resume,
                              read_back=read_back)
        stage_wall[name] = sql_round(time.perf_counter() - t0, 3)
        return ds

    def parallel(*branches):
        """Run independent branches on driver threads so their
        streaming executors overlap; returns their results in order."""
        with ThreadPoolExecutor(max_workers=len(branches)) as pool:
            futures = [pool.submit(b) for b in branches]
            return [f.result() for f in futures]

    # extract runs once: chunks maps the chunker over the documents
    # handoff, and a resume with documents published re-chunks from the
    # checkpoint without reading the pages
    documents = stage("documents", lambda: pages_ds_factory().map_batches(
        quarantined(make_extract_fn(cfg, rec("extract")), "url", DOCUMENTS,
                    qrec("extract")),
        batch_format="pyarrow",
        batch_size=cfg.chunk_batch_size,
    ))
    chunks = stage("chunks", lambda: documents.map_batches(
        quarantined(make_chunk_fn(cfg, rec("chunk")), "doc_id", CHUNKS,
                    qrec("chunk")),
        batch_format="pyarrow",
        batch_size=cfg.chunk_batch_size,
    ))

    # the three chunk-fed branches are independent (the n-gram task
    # stage fills CPUs the actor pools leave idle)
    def _terms_branch():
        return stage("terms", lambda: chunks.map_batches(
            quarantined(make_ngram_fn(cfg, rec("ngram")), "chunk_id",
                        TERMS_DICT, qrec("ngram")),
            batch_format="pyarrow",
            batch_size=cfg.chunk_batch_size,
        ))

    # stage compute mode: heavy models (weights / GPU) → actor pool with
    # state in __init__; cheap deterministic doubles → stateless tasks on
    # the warm worker pool (an actor is always a fresh process — ~2 s
    # cold-start each, which only amortizes for heavyweight state)
    def _vectors_branch():
        if emb_stage.wants_actor_pool(cfg):
            mk = lambda: chunks.map_batches(  # noqa: E731
                EmbedChunks,
                fn_constructor_kwargs={"cfg": cfg, "lineage": rec("embed")},
                batch_format="pyarrow",
                batch_size=cfg.embed_batch_size,
                concurrency=embed_pool,
                num_gpus=cfg.embed_num_gpus or None,
            )
        else:
            mk = lambda: chunks.map_batches(  # noqa: E731
                emb_stage.make_embed_fn(cfg, rec("embed")),
                batch_format="pyarrow",
                batch_size=cfg.embed_batch_size,
            )
        return stage("chunk_vectors", mk, read_back=False)

    def _triples_branch():
        if tri_stage.wants_actor_pool(cfg):
            mk = lambda: chunks.map_batches(  # noqa: E731
                ExtractTriples,
                fn_constructor_kwargs={"cfg": cfg, "lineage": rec("triplets"),
                                       "quarantine": qrec("triplets")},
                batch_format="pyarrow",
                batch_size=cfg.triplet_batch_size,
                concurrency=triplet_pool,
                num_gpus=cfg.triplet_num_gpus or None,
            )
        else:
            mk = lambda: chunks.map_batches(  # noqa: E731
                quarantined(tri_stage.make_triplet_fn(cfg, rec("triplets")),
                            "chunk_id", TRIPLES, qrec("triplets")),
                batch_format="pyarrow",
                batch_size=cfg.triplet_batch_size,
            )
        return stage("triples", mk)

    terms, _, triples = parallel(
        _terms_branch, _vectors_branch, _triples_branch)

    # linking: broadcast alias dict (small side) + annotated triples;
    # an oversized dict spills to partitioned Parquet and linking becomes
    # a partition-aligned map-side join (never a silent semantics drop)
    def linked():
        alias = collect_alias_dict(
            triples, cfg,
            spill_dir=os.path.join(out_dir, "_alias_spill"),
            lineage=rec("alias"),
        )
        return link_triples(triples, alias, cfg)

    # tail: the term-node aggregate only needs the terms table, so it
    # runs concurrently with the whole linking chain
    def _link_chain():
        linked_ds = stage("linked_triples", linked)
        parallel(
            lambda: stage("entity_nodes", lambda: entity_nodes(linked_ds, cfg),
                          read_back=False),
            lambda: stage("edges", lambda: edges(linked_ds, cfg), read_back=False),
        )

    parallel(
        _link_chain,
        lambda: stage("term_nodes", lambda: term_nodes(terms, cfg), read_back=False),
    )

    # join the background checkpoint publishes (re-raises any publish
    # failure); the returned tables hold no in-memory handoff dataset
    for finalize in finalizers.values():
        finalize()

    manifest = {
        "engine": "nlp_graphrag_with_qdrant_and_neo4j_ray",
        "stage_version": cfg.stage_version,
        "config": {
            "max_tokens_per_chunk": cfg.max_tokens_per_chunk,
            "remove_stopwords": cfg.remove_stopwords,
            "embedding_model": cfg.embedding_model,
            "vector_size": cfg.vector_size,
            "salt_buckets": cfg.salt_buckets,
            "languages": list(cfg.languages),
        },
        "tables": list(TABLES),
        "stage_wall_s": stage_wall,
        "layout": {
            "edges": "sorted by (src_entity_id, dst_entity_id, pred)",
            "chunks": "chunk chain as prev/next columns; sort key (doc_id, chunk_index)",
            "chunk_vectors": "UUIDv5 point ids, cosine/unit-norm vectors",
        },
    }
    with open(os.path.join(out_dir, "_MANIFEST.json"), "w") as f:
        json.dump(manifest, f, indent=2)

    return DiskTables(out_dir, TABLES)


def merge_kg(tables_a: dict, tables_b: dict) -> dict:
    """INCREMENTAL KG update: merge a new corpus increment's KG tables
    into an existing KG without rebuilding — the periodic-crawl
    production path (build the increment alone, then one additive
    merge; full re-canonicalization stays an offline batch job).

    Merge rules per table (all exact because the aggregates are
    associative):
    - ``chunks`` / ``terms`` / ``triples`` / ``chunk_vectors`` /
      ``documents`` / ``linked_triples``: plain union — rows are keyed
      by doc/chunk ids, disjoint across corpora by construction.
    - ``term_nodes``: one exchange on (term, term_type), chunk_count
      sums (chunk sets are disjoint).
    - ``entity_nodes``: one exchange on entity_id through
      ``stages.link.fold_entities``, the fold ``entity_nodes`` runs —
      mention_count sums, aliases union (sorted distinct),
      triplet_part joins to "both" when the sides disagree; the name
      is the smallest alias (as a rebuild picks it), with the
      embedding of the input row holding that name.
    - ``edges``: one exchange on (src, dst, pred) through
      ``stages.link.fold_edges`` — weight sums, provenance chunk_id
      takes the min (deterministic representative), pred_embedding is
      pred-determined.

    EXACTNESS CONTRACT (documented divergence from a full rebuild):
    the increment is canonicalized with its OWN alias dictionary, so
    a merge equals a full rebuild exactly iff no ≥similarity-threshold
    alias pair BRIDGES the two corpora (tested equality on stable
    corpora in tests/test_kg_merge.py). A bridging alias yields two
    entity ids a rebuild would merge — the standard
    incremental-vs-recanonicalize trade-off. ``grouped_apply`` sizes
    each exchange from the union, so from the two sides' row counts."""
    from ..stages.shuffle import grouped_apply

    def union(name: str):
        return tables_a[name].union(tables_b[name])

    out: dict = {}
    for name in ("documents", "chunks", "terms", "triples",
                 "chunk_vectors", "linked_triples"):
        if name in tables_a and name in tables_b:
            out[name] = tables_a[name].union(tables_b[name])

    def merge_term_nodes(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(["term", "term_type"]).aggregate(
            [("chunk_count", "sum")]
        )
        return agg.rename_columns(["term", "term_type", "chunk_count"])

    out["term_nodes"] = grouped_apply(
        union("term_nodes"), ["term", "term_type"], merge_term_nodes)

    def merge_entities(tbl: pa.Table) -> pa.Table:
        folded = fold_entities(pa.table({
            "entity_id": tbl.column("entity_id"),
            "names": tbl.column("aliases"),
            "parts": pc.index_in(tbl.column("triplet_part"),
                                 value_set=PART_NAMES).cast(pa.int8()),
            "mention_count": tbl.column("mention_count"),
        }), ["entity_id"])
        # an embedding is name-determined, and every row's name is its
        # smallest alias: the merged name's vector is on a row named so
        rows = pc.index_in(pc.list_element(folded.column("names"), 0),
                           value_set=tbl.column("name"))
        return entity_rows(folded, tbl.column("embedding").take(rows))

    out["entity_nodes"] = grouped_apply(
        union("entity_nodes"), ["entity_id"], merge_entities)

    def merge_edges(tbl: pa.Table) -> pa.Table:
        folded = fold_edges(tbl)
        # pred_embedding is pred-determined: the first row's with that pred
        emb = tbl.column("pred_embedding").take(
            pc.index_in(folded.column("pred"), value_set=tbl.column("pred")))
        return folded.select(EDGE_KEYS + ["chunk_id", "weight"]) \
            .append_column("pred_embedding", emb)

    out["edges"] = grouped_apply(union("edges"), EDGE_KEYS, merge_edges)
    return out
