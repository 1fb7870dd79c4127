"""Frozen pipeline configuration.

The reference re-reads env vars constantly (``utils/config.py:44-45`` in
/root/reference/graphrag); here config is a frozen dataclass captured at job
submit and recorded in lineage ``stage_version`` fields.

Defaults mirror the reference's code defaults (``utils/config.py:131-134``):
``max_tokens_per_chunk=200``, ``top_k=10``, 768-d cosine vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PipelineConfig:
    # chunking (reference core/ingest.py:65-101)
    max_tokens_per_chunk: int = 200

    # n-grams (reference core/nlp_graph.py:35-58)
    remove_stopwords: bool = True

    # embeddings (reference utils/common.py:50-98, 768-d e5-base-v2)
    embedding_model: str = "hash-e5-double"  # deterministic test double

    # triplet model (reference core/triplets.py:96-123, T5/PEFT);
    # "grammar" = the hermetic deterministic extractor
    triplet_model: str = "grammar"
    vector_size: int = 768
    payload_text_max: int = 1000  # reference core/ingest.py:200

    # retrieval (reference utils/config.py:131-134)
    top_k: int = 10
    with_context: bool = False
    context_size: int = 1
    vector_weight: float = 0.5  # reference core/retrieval.py:597-600
    # entity alias near-merge cosine threshold (reference hard-codes
    # 0.96, core/triplets.py); >1.0 disables near-merges — exact-name
    # canonicalization only, which makes incremental merge_kg exact
    alias_threshold: float = 0.96

    # language filter (north_star requirement; reference assumes English)
    languages: tuple[str, ...] = ("en",)

    # execution knobs (engine-only)
    chunk_batch_size: int = 64        # pages per chunker batch (wide rows)
    embed_batch_size: int = 256       # chunks per embedder batch
    triplet_batch_size: int = 256     # chunks per extractor batch
    embed_concurrency: int = 16       # embedder actor pool cap (autoscaled,
                                      # runtime-capped below cluster CPUs)
    triplet_concurrency: int = 16     # triplet actor pool cap
    salt_buckets: int = 16            # salt-key skew split for head entities
    embed_num_gpus: float = 0.0       # per-actor GPU share for real models
    triplet_num_gpus: float = 0.0     # (0 = CPU; the T5-XL reference path
                                      # wants 1.0 per actor)
    stage_version: str = "v1"

    def versioned(self, stage: str) -> str:
        return f"{stage}@{self.stage_version}"


DEFAULT_CONFIG = PipelineConfig()


# In-process serving. A serving query whose input is small — judged from
# Parquet footers alone (`state.checkpoint.rows_at_most`) — reads it with
# pyarrow and runs no Ray Dataset (each costs ~1-3 s of fixed
# streaming-executor latency on a loaded host); above these sizes the
# distributed path runs the same math. Module constants, read at call
# time, so tests pin local == distributed by patching them.

# master switch for the `__ray_entry__` KG-checkpoint local reads
KG_LOCAL_SERVE = True
# chunk_vectors rows for exact vector serving: this path drags
# payload_text along, and past ~50 k rows a single-threaded
# read+decompress loses to the parallel scan (measured 12.4 s local vs
# ~4 s distributed at 206 k rows)
VEC_LOCAL_ROWS = 50_000
# text-free projections (chunk meta, edges for relationship search,
# entity seeds) stay a few MB even at ~1 M chunks
CHUNKMETA_LOCAL_ROWS = 20_000_000
# matched term-index posting rows (`TermIndex.matched_local`)
TERM_LOCAL_ROWS = 2_000_000
# probed IVF-list rows (knn_ivf small-probe path, IVF-PQ exact re-rank)
KNN_LOCAL_ROWS = 300_000
# lineage directory bytes folded in-process (many tiny per-batch files,
# metadata-bound as a Dataset read)
LINEAGE_LOCAL_BYTES = 256 << 20
# size cap of the graph solvers (pipelines.graph): each solves the
# whole edge list vectorized inside ONE Ray task and raises ValueError
# above this many edges; 5 M edges × ~50 B ≈ 250 MB fit one worker. The
# distributed rounds they replaced lost at every size the engine serves
# (5.3-10.2 s of exchange latency for 5 rounds on a 74 k-edge KG at
# sf0.1); the largest caller, the 250 k-page KG, has ~1.45 M linked
# triples. The in-process KG serving path (__ray_entry__) reads the
# checkpoint under the same cap.
LOCAL_EDGES_THRESHOLD = 5_000_000
