"""Partitioning-independence (SURVEY.md §5): the KG build must produce
byte-identical sorted outputs regardless of how the input is split into
blocks — the engine's replacement for the reference's order-dependent
entity graph is only honest if true."""

import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.config import PipelineConfig

CFG = PipelineConfig(salt_buckets=8)


def _build(tmp_path_factory, n_blocks: int):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import build_kg
    from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.pages import pages_dataset

    out = str(tmp_path_factory.mktemp(f"det{n_blocks}"))
    return build_kg(
        lambda: pages_dataset(60, "dettest").repartition(n_blocks),
        out, CFG, resume=False, lineage=False,
    )


def _sorted_rows(ds, key_cols, drop=()):
    rows = []
    for r in ds.take_all():
        rows.append(tuple(
            tuple(v) if isinstance(v, list) else v
            for k, v in sorted(r.items()) if k not in drop
        ))
    return sorted(rows)


@pytest.fixture(scope="module")
def two_builds(ray_session, tmp_path_factory):
    return _build(tmp_path_factory, 2), _build(tmp_path_factory, 13)


def test_edges_identical_across_partitionings(two_builds):
    a, b = two_builds
    assert _sorted_rows(a["edges"], None) == _sorted_rows(b["edges"], None)


def test_entity_nodes_identical_across_partitionings(two_builds):
    a, b = two_builds
    assert (_sorted_rows(a["entity_nodes"], None)
            == _sorted_rows(b["entity_nodes"], None))


def test_chunks_and_terms_identical_across_partitionings(two_builds):
    a, b = two_builds
    assert _sorted_rows(a["chunks"], None) == _sorted_rows(b["chunks"], None)
    assert (_sorted_rows(a["term_nodes"], None)
            == _sorted_rows(b["term_nodes"], None))
