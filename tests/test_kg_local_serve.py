"""Entry-level local serving (checkpoint pa.Table, zero Dataset
executions) returns exactly what the distributed graph path returns.

The default (``config.KG_LOCAL_SERVE``) serves small KGs in-process
straight off the published checkpoint (`_kg_local_table`); patching it
off, with ``config.TERM_LOCAL_ROWS`` at 0, forces the Dataset path, so
these tests pin the two paths row-for-row on the same sf0.001 KG."""

import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray import config

SF = "/root/testdata/sf0.001"
QUERIES = ["kg_entity_pagerank", "kg_entity_hits",
           "kg_entity_ppr", "kg_entity_communities",
           "kg_vector_topk", "kg_hybrid_retrieve", "kg_document_chain",
           "kg_context_windows", "kg_relationship_search", "kg_term_search",
           "kg_lineage_summary"]


def _frame(res) -> pd.DataFrame:
    df = res.to_pandas()
    return (df[sorted(df.columns)]
            .sort_values(sorted(df.columns))
            .reset_index(drop=True))


def test_hybrid_ivf_high_recall_vs_exact(ray_session):
    """The ANN-served hybrid twin is approximate by construction
    (nprobe < nlist ⇒ recall < 1 — the same contract as the reference's
    HNSW-backed Qdrant leg): require ≥0.9 recall@10 against the exact
    hybrid, with full result shape."""
    import __ray_entry__ as entry

    qs = entry.queries()
    exact = _frame(qs["kg_hybrid_retrieve"](SF))
    served = _frame(qs["kg_hybrid_retrieve_ivf"](SF))
    assert len(served) == len(exact) == 10
    overlap = len(set(exact["chunk_id"]) & set(served["chunk_id"]))
    assert overlap >= 9


@pytest.mark.parametrize("name", QUERIES)
def test_local_serve_matches_distributed(ray_session, monkeypatch, name):
    import __ray_entry__ as entry

    qs = entry.queries()
    monkeypatch.setattr(config, "KG_LOCAL_SERVE", True)
    monkeypatch.setattr(config, "TERM_LOCAL_ROWS", 100_000_000)
    local = _frame(qs[name](SF))
    monkeypatch.setattr(config, "KG_LOCAL_SERVE", False)
    monkeypatch.setattr(config, "TERM_LOCAL_ROWS", 0)
    distributed = _frame(qs[name](SF))
    assert len(local) == len(distributed) > 0
    pd.testing.assert_frame_equal(local, distributed)
