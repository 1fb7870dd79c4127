"""Link-prediction scores (pipelines/graph.link_scores): hand-computed
indices, in-process kernel == Dataset solver, string nodes, the hub cap
and input-block independence.  Beyond-reference: the reference stops at
writing KG edges (/root/reference/graphrag/core/triplets.py); these
are the classic local similarity indices (Liben-Nowell & Kleinberg
2003) proposed over that edge list."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
    _link_scores_local,
    link_scores,
)


def _sorted(tbl) -> pd.DataFrame:
    pdf = tbl.to_pandas() if isinstance(tbl, pa.Table) else tbl
    return (pdf.sort_values(["node_a", "node_b"])
            .reset_index(drop=True))


def _square() -> pa.Table:
    # 1-2-3-4-1: the two diagonals are the only 2-hop pairs.
    return pa.table({"src": [1, 2, 3, 4], "dst": [2, 3, 4, 1]})


def test_square_hand_computed():
    out = _sorted(_link_scores_local(_square(), "src", "dst"))
    # (1,3) and (2,4): cn=2 via two degree-2 centers,
    # aa = 2/ln 2, ra = 2*(1/2) = 1, jaccard = 2/(2+2-2) = 1.
    assert out["node_a"].tolist() == [1, 2]
    assert out["node_b"].tolist() == [3, 4]
    assert out["cn"].tolist() == [2, 2]
    assert np.allclose(out["aa"], round(2 / np.log(2), 6))
    assert out["ra"].tolist() == [1.0, 1.0]
    assert out["jaccard"].tolist() == [1.0, 1.0]


def test_adjacent_pairs_excluded_and_dedup():
    # triangle + pendant: 1-2, 2-3, 1-3 (plus dup/reversed/self rows),
    # 3-4.  Triangle pairs are adjacent -> excluded; (1,4) and (2,4)
    # share center 3; (1,2) adjacent even though they share center 3.
    edges = pa.table({
        "src": [1, 2, 1, 3, 2, 1, 3],
        "dst": [2, 3, 3, 1, 2, 1, 4],
    })
    out = _sorted(_link_scores_local(edges, "src", "dst"))
    assert list(zip(out["node_a"], out["node_b"])) == [(1, 4), (2, 4)]
    # center 3 has degree 3 (neighbors 1, 2, 4).
    assert out["cn"].tolist() == [1, 1]
    assert np.allclose(out["aa"], round(1 / np.log(3), 6))
    assert np.allclose(out["ra"], round(1 / 3, 6))
    # deg(1)=2, deg(4)=1, cn=1 -> 1/(2+1-1) = 0.5
    assert out["jaccard"].tolist() == [0.5, 0.5]


def _random_edges(n_nodes: int, n_edges: int, seed: int) -> pa.Table:
    g = np.random.RandomState(seed)
    return pa.table({
        "src": g.randint(0, n_nodes, n_edges).astype(np.int64),
        "dst": g.randint(0, n_nodes, n_edges).astype(np.int64),
    })


def test_local_eq_distributed(ray_session):
    # the in-process kernel (the KG serving path) == the Dataset solver
    edges = _random_edges(60, 300, seed=7)
    loc = _sorted(_link_scores_local(edges, "src", "dst"))
    dist = _sorted(link_scores(
        rd.from_arrow(edges).repartition(5)).to_pandas())
    pd.testing.assert_frame_equal(loc, dist)


def test_partition_independence(ray_session):
    edges = _random_edges(40, 160, seed=11)
    a = _sorted(link_scores(rd.from_arrow(edges)).to_pandas())
    b = _sorted(link_scores(
        rd.from_arrow(edges).repartition(7)).to_pandas())
    pd.testing.assert_frame_equal(a, b)


def test_string_nodes(ray_session):
    edges = pa.table({"src": ["a", "b", "c", "d"],
                      "dst": ["b", "c", "d", "a"]})
    loc = _sorted(_link_scores_local(edges, "src", "dst"))
    dist = _sorted(link_scores(rd.from_arrow(edges)).to_pandas())
    pd.testing.assert_frame_equal(loc, dist)
    assert loc["node_a"].tolist() == ["a", "b"]
    assert loc["node_b"].tolist() == ["c", "d"]


def test_max_center_degree_cap(ray_session):
    # star center 0 with 5 leaves, plus a path 1-10-2.
    edges = pa.table({
        "src": [0, 0, 0, 0, 0, 1, 10],
        "dst": [1, 2, 3, 4, 5, 10, 2],
    })
    full = _sorted(_link_scores_local(edges, "src", "dst"))
    capped = _sorted(_link_scores_local(edges, "src", "dst",
                                        max_center_degree=3))
    # uncapped: all leaf pairs of the degree-5 star center scored;
    # capped: only wedges through degree-2 centers survive — (0, 10)
    # via centers 1 and 2, and (1, 2) via center 10 (its center-0
    # wedge is dropped, so cn falls from 2 to 1).
    assert len(full) > len(capped)
    assert list(zip(capped["node_a"], capped["node_b"])) == [(0, 10),
                                                             (1, 2)]
    assert capped["cn"].tolist() == [2, 1]
    dist = _sorted(link_scores(rd.from_arrow(edges),
                               max_center_degree=3).to_pandas())
    pd.testing.assert_frame_equal(capped, dist)


def test_empty_and_no_wedges(ray_session):
    none = _link_scores_local(pa.table({"src": pa.array([], pa.int64()),
                                        "dst": pa.array([], pa.int64())}),
                              "src", "dst")
    assert none.num_rows == 0
    # single edge: no center has 2 neighbors.
    one = _link_scores_local(pa.table({"src": [1], "dst": [2]}),
                             "src", "dst")
    assert one.num_rows == 0
    assert one.column_names == ["node_a", "node_b", "cn", "aa", "ra",
                                "jaccard"]


def test_duckdb_oracle_parity(ray_session):
    """The exact SQL the driver runs for docs_adamic_adar, on a
    random graph instead of the synthetic doc maps."""
    duckdb = pytest.importorskip("duckdb")
    edges = _random_edges(50, 220, seed=3)
    got = _sorted(_link_scores_local(edges, "src", "dst"))
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
        wedges AS (
            SELECT u1.n AS x, u2.n AS y, u1.c AS z
            FROM und u1 JOIN und u2 ON u1.c = u2.c AND u1.n < u2.n
        ),
        scored AS (
            SELECT x, y, count(*) AS cn,
                   sum(1.0 / ln(d.deg)) AS aa,
                   sum(1.0 / d.deg) AS ra
            FROM wedges w JOIN deg d ON d.node = w.z
            GROUP BY x, y
        ),
        nonedge AS (
            SELECT s.* FROM scored s
            LEFT JOIN edges e ON e.a = s.x AND e.b = s.y
            WHERE e.a IS NULL
        )
        SELECT n.x AS node_a, n.y AS node_b, n.cn,
               round(n.aa, 6) AS aa, round(n.ra, 6) AS ra,
               round(n.cn / (da.deg + db.deg - n.cn)::DOUBLE, 6)
                   AS jaccard
        FROM nonedge n
        JOIN deg da ON da.node = n.x
        JOIN deg db ON db.node = n.y
        ORDER BY node_a, node_b
    """).fetch_df()
    want["cn"] = want["cn"].astype("int64")
    pd.testing.assert_frame_equal(got, want.reset_index(drop=True))
