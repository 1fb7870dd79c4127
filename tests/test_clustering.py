"""Per-node clustering coefficient (pipelines/graph.
clustering_coefficient): hand-computed values, a networkx-free exact
reference, in-process kernel == Dataset solver, string nodes and
input-block independence."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
    _clustering_local,
    clustering_coefficient,
)


def _sorted(tbl) -> pd.DataFrame:
    pdf = tbl.to_pandas() if isinstance(tbl, pa.Table) else tbl
    return pdf.sort_values("node").reset_index(drop=True)


def test_triangle_plus_pendant():
    # triangle 1-2-3 with pendant 3-4 (plus dup/reversed/self noise).
    edges = pa.table({"src": [1, 2, 1, 3, 2, 4, 4],
                      "dst": [2, 3, 3, 4, 1, 3, 4]})
    out = _sorted(_clustering_local(edges, "src", "dst"))
    assert out["node"].tolist() == [1, 2, 3, 4]
    assert out["n_tri"].tolist() == [1, 1, 1, 0]
    # deg: 1->2, 2->2, 3->3, 4->1
    assert out["lcc"].tolist() == [1.0, 1.0,
                                   round(2 * 1 / (3 * 2), 6), 0.0]


def test_clique_is_all_ones():
    # K4: every node in 3 triangles, lcc 1.
    src, dst = zip(*[(a, b) for a in range(4) for b in range(4) if a < b])
    edges = pa.table({"src": list(src), "dst": list(dst)})
    out = _sorted(_clustering_local(edges, "src", "dst"))
    assert out["n_tri"].tolist() == [3, 3, 3, 3]
    assert out["lcc"].tolist() == [1.0] * 4


def _random_edges(n_nodes: int, n_edges: int, seed: int) -> pa.Table:
    g = np.random.RandomState(seed)
    return pa.table({
        "src": g.randint(0, n_nodes, n_edges).astype(np.int64),
        "dst": g.randint(0, n_nodes, n_edges).astype(np.int64),
    })


def test_local_eq_distributed(ray_session):
    # the in-process kernel (the KG serving path) == the Dataset solver
    edges = _random_edges(50, 400, seed=5)
    loc = _sorted(_clustering_local(edges, "src", "dst"))
    dist = _sorted(clustering_coefficient(
        rd.from_arrow(edges).repartition(5)).to_pandas())
    pd.testing.assert_frame_equal(loc, dist)


def test_partition_independence(ray_session):
    edges = _random_edges(30, 150, seed=9)
    a = _sorted(clustering_coefficient(rd.from_arrow(edges)).to_pandas())
    b = _sorted(clustering_coefficient(
        rd.from_arrow(edges).repartition(6)).to_pandas())
    pd.testing.assert_frame_equal(a, b)


def test_string_nodes(ray_session):
    edges = pa.table({"src": ["a", "b", "a", "c"],
                      "dst": ["b", "c", "c", "d"]})
    loc = _sorted(_clustering_local(edges, "src", "dst"))
    dist = _sorted(clustering_coefficient(
        rd.from_arrow(edges)).to_pandas())
    pd.testing.assert_frame_equal(loc, dist)
    assert loc.set_index("node")["n_tri"].to_dict() == {
        "a": 1, "b": 1, "c": 1, "d": 0}


def test_total_matches_triangle_count():
    # sum of per-node triangle counts == 3 * number of triangles.
    edges = _random_edges(40, 300, seed=13)
    out = _clustering_local(edges, "src", "dst").to_pandas()
    # independent reference: brute-force over the dense adjacency.
    s = edges.column("src").to_numpy()
    d = edges.column("dst").to_numpy()
    n = 40
    adj = np.zeros((n, n), bool)
    adj[s, d] = True
    adj[d, s] = True
    np.fill_diagonal(adj, False)
    a3 = (adj.astype(np.int64) @ adj.astype(np.int64)) * adj
    per_node = a3.sum(axis=1) // 2
    got = out.set_index("node")["n_tri"]
    for v in range(n):
        assert got.get(v, 0) == per_node[v]
    assert out["n_tri"].sum() % 3 == 0


def test_empty():
    empty = _clustering_local(
        pa.table({"src": pa.array([], pa.int64()),
                  "dst": pa.array([], pa.int64())}), "src", "dst")
    assert empty.num_rows == 0
    assert empty.column_names == ["node", "n_tri", "lcc"]


def test_duckdb_oracle_parity():
    """The SQL shape the driver runs for docs_clustering_coef."""
    duckdb = pytest.importorskip("duckdb")
    edges = _random_edges(35, 200, seed=21)
    got = _sorted(_clustering_local(edges, "src", "dst"))
    con = duckdb.connect()
    con.register("raw", edges.to_pandas())
    want = con.execute("""
        WITH edges AS (
            SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
            FROM raw WHERE src <> dst
        ),
        und AS (SELECT a AS c, b AS n FROM edges
                UNION ALL SELECT b, a FROM edges),
        deg AS (SELECT c AS node, count(*) AS deg FROM und GROUP BY c),
        tri AS (
            SELECT u1.c AS v
            FROM und u1
            JOIN und u2 ON u1.c = u2.c AND u1.n < u2.n
            JOIN edges e ON e.a = u1.n AND e.b = u2.n
        ),
        cnt AS (SELECT v, count(*) AS t FROM tri GROUP BY v)
        SELECT d.node, coalesce(c.t, 0) AS n_tri,
               round(CASE WHEN d.deg >= 2
                          THEN 2.0 * coalesce(c.t, 0)
                               / (d.deg * (d.deg - 1))
                          ELSE 0.0 END, 6) AS lcc
        FROM deg d LEFT JOIN cnt c ON c.v = d.node
        ORDER BY d.node
    """).fetch_df()
    want["n_tri"] = want["n_tri"].astype("int64")
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))
