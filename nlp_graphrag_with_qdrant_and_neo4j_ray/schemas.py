"""Explicit Arrow schemas for every logical table (SURVEY.md §1.4).

The reference's schema is implicit (whatever Cypher ``SET`` writes); making it
explicit is a deliberate improvement. The Neo4j/Qdrant stores become
"Neo4j-shaped" node/edge Parquet tables and a "Qdrant-shaped" vector shard
table.
"""

from __future__ import annotations

import pyarrow as pa

# input (BASELINE.json input_hint)
PAGES = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.large_string()),
        ("lang", pa.string()),
    ]
)

# Document node table (reference core/ingest.py:136)
DOCUMENTS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("url", pa.string()),
        ("text", pa.large_string()),
        ("n_chars", pa.int64()),
    ]
)

# Chunk node table; NEXT/PREV edges (core/ingest.py:162-177) become columns.
CHUNKS = pa.schema(
    [
        ("chunk_id", pa.string()),
        ("doc_id", pa.string()),
        ("chunk_index", pa.int32()),
        ("text", pa.large_string()),
        ("n_tokens", pa.int32()),
        ("prev_chunk_id", pa.string()),
        ("next_chunk_id", pa.string()),
    ]
)

# Qdrant-shaped vector shard table (core/ingest.py:181-214)
def chunk_vectors(dim: int) -> pa.Schema:
    return pa.schema(
        [
            ("chunk_id", pa.string()),
            ("doc_id", pa.string()),
            ("chunk_index", pa.int32()),
            ("embedding", pa.list_(pa.float32(), dim)),
            ("point_uuid", pa.string()),
            ("payload_text", pa.string()),
        ]
    )


# HAS_TERM edge list (core/nlp_graph.py:60-104)
TERMS = pa.schema(
    [
        ("chunk_id", pa.string()),
        ("term", pa.string()),
        ("term_type", pa.string()),  # unigram | bigram | trigram
        ("position", pa.int32()),
    ]
)

# dictionary-encoded physical layout of TERMS — what the n-gram explode
# actually emits (VERDICT r3 item 3): chunk_id repeats ~15×/chunk and
# term_type has 3 values, so dict indices cut the explode's object-store
# footprint ~3× (the terms table is the build's largest, and its store
# traffic is what pushes high-parallelism runs into spill). Parquet
# round-trips the dict types; consumers decode per block at entry
# (cross-block group_by over differing dictionaries is not implemented
# in Arrow 16 — see stages/ngram.decode_terms).
TERMS_DICT = pa.schema(
    [
        ("chunk_id", pa.dictionary(pa.int32(), pa.string())),
        ("term", pa.dictionary(pa.int32(), pa.string())),
        ("term_type", pa.dictionary(pa.int32(), pa.string())),
        ("position", pa.int32()),
    ]
)

# distinct Term node table (Cypher MERGE on (text, type), core/nlp_graph.py:93)
TERM_NODES = pa.schema(
    [
        ("term", pa.string()),
        ("term_type", pa.string()),
        ("chunk_count", pa.int64()),
    ]
)

# raw triples before linking (core/triplets.py:134-205 output), with the
# provenance the reference drops (retrieval.py:283 reads r.source but nothing
# writes it — SURVEY.md §1.1).
TRIPLES = pa.schema(
    [
        ("chunk_id", pa.string()),
        ("doc_id", pa.string()),
        ("sent_index", pa.int32()),
        ("subj", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
    ]
)

# canonical Entity node table (core/triplets.py:354-361, made deterministic)
def entity_nodes(dim: int) -> pa.Schema:
    return pa.schema(
        [
            ("entity_id", pa.string()),
            ("name", pa.string()),
            ("embedding", pa.list_(pa.float32(), dim)),
            ("triplet_part", pa.string()),
            ("aliases", pa.list_(pa.string())),
            ("mention_count", pa.int64()),
        ]
    )


# RELATES_TO edge table with weight + provenance (core/triplets.py:363-365)
EDGES = pa.schema(
    [
        ("src_entity_id", pa.string()),
        ("dst_entity_id", pa.string()),
        ("pred", pa.string()),
        ("chunk_id", pa.string()),  # min chunk_id provenance sample
        ("weight", pa.int64()),
    ]
)


LINEAGE = pa.schema(
    [
        ("partition_id", pa.string()),
        ("stage", pa.string()),
        ("stage_version", pa.string()),
        ("input_fragment", pa.string()),
        ("row_count_in", pa.int64()),
        ("row_count_out", pa.int64()),
        ("triple_count", pa.int64()),
        ("wall_ms", pa.float64()),
    ]
)

QUARANTINE = pa.schema(
    [
        ("stage", pa.string()),
        ("row_id", pa.string()),
        ("error", pa.string()),
    ]
)
