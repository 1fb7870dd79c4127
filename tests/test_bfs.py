"""Multi-source fixed-depth BFS (pipelines/graph.bfs_depths) vs a
driver-side frontier walk; the in-process kernel == the Dataset
solver."""

import numpy as np
import pandas as pd
import pytest
import pyarrow as pa

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
    _bfs_local,
    bfs_depths,
)


def _ref_bfs(edges: list[tuple], seeds, max_depth: int) -> dict:
    adj: dict = {}
    for s, t in edges:
        adj.setdefault(s, []).append(t)
    depth = {s: 0 for s in seeds}
    frontier = set(seeds)
    for r in range(1, max_depth + 1):
        nxt = set()
        for u in frontier:
            for v in adj.get(u, []):
                if v not in depth:
                    depth[v] = r
                    nxt.add(v)
        frontier = nxt
    return depth


def _dss(ray_session, edges, seeds, blocks=3):
    import ray.data

    e = ray.data.from_pandas(
        pd.DataFrame(edges, columns=["src", "dst"])).repartition(blocks)
    s = ray.data.from_pandas(
        pd.DataFrame({"node": list(seeds)})).repartition(2)
    return e, s


def _as_dict(out) -> dict:
    pdf = out.to_pandas() if hasattr(out, "to_pandas") else out
    if isinstance(pdf, pa.Table):
        pdf = pdf.to_pandas()
    return pdf.set_index("node")["depth"].to_dict()


def test_local_matches_reference():
    rng = np.random.default_rng(7)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 60, (400, 2))]
    seeds = [0, 7, 59]
    tbl = pa.table({"src": [e[0] for e in edges],
                    "dst": [e[1] for e in edges]})
    got = _as_dict(_bfs_local(tbl, "src", "dst", seeds, 3))
    assert got == _ref_bfs(edges, seeds, 3)


def test_distributed_matches_reference(ray_session):
    rng = np.random.default_rng(11)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 50, (300, 2))]
    seeds = [3, 44]
    e, s = _dss(ray_session, edges, seeds)
    got = _as_dict(bfs_depths(e, s, max_depth=3))
    assert got == _ref_bfs(edges, seeds, 3)


def test_local_path_matches_distributed(ray_session):
    """The in-process kernel (the KG serving path) == the Dataset solver
    over multi-block edges and seeds."""
    rng = np.random.default_rng(13)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 80, (500, 2))]
    seeds = [1, 2, 78]
    tbl = pa.table({"src": [e[0] for e in edges],
                    "dst": [e[1] for e in edges]})
    loc = _as_dict(_bfs_local(tbl, "src", "dst", seeds, 4))
    e, s = _dss(ray_session, edges, seeds)
    dist = _as_dict(bfs_depths(e, s, max_depth=4))
    assert loc == dist == _ref_bfs(edges, seeds, 4)


def test_string_nodes_and_isolated_seed(ray_session):
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
             ("x", "a")]
    # 'zzz' appears in no edge: surfaces at depth 0 only
    seeds = ["a", "zzz"]
    e, s = _dss(ray_session, edges, seeds)
    got = _as_dict(bfs_depths(e, s, max_depth=2))
    assert got == {"a": 0, "zzz": 0, "b": 1, "c": 2}


def test_max_depth_zero_and_empty_seeds(ray_session):
    edges = [(0, 1), (1, 2)]
    e, s = _dss(ray_session, edges, [0])
    got = _as_dict(bfs_depths(e, s, max_depth=0))
    assert got == {0: 0}
    tbl = pa.table({"src": [0, 1], "dst": [1, 2]})
    empty = _bfs_local(tbl, "src", "dst", [], 3)
    assert empty.num_rows == 0
    assert empty.column_names == ["node", "depth"]


def test_partition_independence(ray_session):
    rng = np.random.default_rng(17)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 40, (200, 2))]
    seeds = [0]
    e, s = _dss(ray_session, edges, seeds, blocks=2)
    a = _as_dict(bfs_depths(e, s, max_depth=3))
    e2, s2 = _dss(ray_session, edges, seeds, blocks=7)
    b = _as_dict(bfs_depths(e2, s2, max_depth=3))
    assert a == b == _ref_bfs(edges, seeds, 3)


def test_seed_duplicates_collapse(ray_session):
    edges = [(0, 1)]
    e, _ = _dss(ray_session, edges, [0])
    import ray.data

    s = ray.data.from_pandas(pd.DataFrame({"node": [0, 0, 0]}))
    got = _as_dict(bfs_depths(e, s, max_depth=1))
    assert got == {0: 0, 1: 1}


# ---- reciprocity (shares the fixture helpers above) ------------------------

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (  # noqa: E402
    reciprocity,
)


def _recip_dict(out):
    pdf = out.to_pandas()
    return {
        r["node"]: (r["out_deg"], r["reciprocated"], r["reciprocity"])
        for _, r in pdf.iterrows()
    }


def test_reciprocity_hand_graph(ray_session):
    # a↔b mutual; a→c one-way; c→c self-loop dropped; dup edge a→b
    edges = [("a", "b"), ("b", "a"), ("a", "c"), ("c", "c"),
             ("a", "b")]
    e, _ = _dss(ray_session, edges, ["a"])
    got = _recip_dict(reciprocity(e))
    assert got == {"a": (2, 1, 0.5), "b": (1, 1, 1.0)}


def test_reciprocity_int_nodes_partition_independence(ray_session,
                                                      fixed_partitions):
    rng = np.random.default_rng(3)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 25, (150, 2))]
    e, _ = _dss(ray_session, edges, [0], blocks=2)
    fixed_partitions(2)
    a = _recip_dict(reciprocity(e))
    e2, _ = _dss(ray_session, edges, [0], blocks=6)
    fixed_partitions(7)
    b = _recip_dict(reciprocity(e2))
    # driver reference
    de = {(s, t) for s, t in edges if s != t}
    ref = {}
    for s in {s for s, _ in de}:
        outs = {t for x, t in de if x == s}
        rec = sum(1 for t in outs if (t, s) in de)
        ref[s] = (len(outs), rec, round(rec / len(outs), 6))
    assert a == b == ref


# ---- degree assortativity ---------------------------------------------------

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (  # noqa: E402
    degree_assortativity,
)


def _ref_assort(edges, ndigits=6):
    import math

    out, inn = {}, {}
    for s, t in edges:
        out[s] = out.get(s, 0) + 1
        inn[t] = inn.get(t, 0) + 1
    xs = [out[s] for s, _ in edges]
    ys = [inn[t] for _, t in edges]
    n = len(edges)
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx, syy = sum(x * x for x in xs), sum(y * y for y in ys)
    d1, d2 = n * sxx - sx * sx, n * syy - sy * sy
    if d1 <= 0 or d2 <= 0:
        return None
    return round(float(n * sxy - sx * sy)
                 / math.sqrt(float(d1) * float(d2)), ndigits)


def test_assortativity_matches_reference(ray_session):
    rng = np.random.default_rng(21)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 30, (250, 2))]
    e, _ = _dss(ray_session, edges, [0])
    got = degree_assortativity(e).to_pylist()[0]
    assert got["n_edges"] == len(edges)
    assert got["assortativity"] == pytest.approx(
        _ref_assort(edges), abs=1e-9)


def test_assortativity_zero_variance_is_null(ray_session):
    # a perfect cycle: every out-degree and in-degree is 1
    edges = [(0, 1), (1, 2), (2, 0)]
    e, _ = _dss(ray_session, edges, [0])
    got = degree_assortativity(e).to_pylist()[0]
    assert got == {"n_edges": 3, "assortativity": None}


def test_assortativity_partition_independence(ray_session,
                                              fixed_partitions):
    rng = np.random.default_rng(29)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 15, (120, 2))]
    e, _ = _dss(ray_session, edges, [0], blocks=2)
    fixed_partitions(2)
    a = degree_assortativity(e).to_pylist()[0]
    e2, _ = _dss(ray_session, edges, [0], blocks=5)
    fixed_partitions(7)
    b = degree_assortativity(e2).to_pylist()[0]
    assert a == b


# ---- negative edge sampling -------------------------------------------------

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (  # noqa: E402
    edge_negatives,
)


def test_edge_negatives_properties(ray_session):
    rng = np.random.default_rng(31)
    edges = sorted({(int(a), int(b))
                    for a, b in rng.integers(0, 40, (200, 2))})
    e, _ = _dss(ray_session, edges, [0], blocks=3)
    out = edge_negatives(e).to_pandas()
    true_set = set(edges)
    pos = out[out.label == 1]
    neg = out[out.label == 0]
    # positives are exactly the input edge multiset
    assert sorted(map(tuple, pos[["src", "dst"]].to_numpy())) == edges
    # negatives: never true edges, tails drawn from observed tails,
    # at most one per input edge, and at least SOME survive
    dsts = {b for _, b in edges}
    for s, t in neg[["src", "dst"]].to_numpy():
        assert (s, t) not in true_set and t in dsts
    assert 0 < len(neg) <= len(edges)
    assert not neg.duplicated(["src", "dst"]).any()


def test_edge_negatives_deterministic(ray_session):
    rng = np.random.default_rng(37)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 30, (120, 2))]
    e, _ = _dss(ray_session, edges, [0], blocks=2)
    a = edge_negatives(e).to_pandas().sort_values(
        ["label", "src", "dst"]).reset_index(drop=True)
    e2, _ = _dss(ray_session, edges, [0], blocks=5)
    b = edge_negatives(e2).to_pandas().sort_values(
        ["label", "src", "dst"]).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


# ---- bounded-hop weighted shortest paths ------------------------------------

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (  # noqa: E402
    _shortest_paths_local,
    shortest_paths,
)


def _ref_sp(edges, seeds, max_hops):
    """edges: (src, dst, w). Bellman-Ford to max_hops rounds."""
    INF = float("inf")
    nodes = {s for s, _, _ in edges} | {t for _, t, _ in edges} | set(seeds)
    cost = {n: (0 if n in set(seeds) else INF) for n in nodes}
    for _ in range(max_hops):
        nxt = dict(cost)
        for s, t, w in edges:
            if cost[s] + w < nxt[t]:
                nxt[t] = cost[s] + w
        cost = nxt
    return {n: int(c) for n, c in cost.items() if c < INF}


def _sp_dss(ray_session, edges, seeds, blocks=3):
    import ray.data

    e = ray.data.from_pandas(
        pd.DataFrame(edges, columns=["src", "dst", "w"])
    ).repartition(blocks)
    s = ray.data.from_pandas(
        pd.DataFrame({"node": list(seeds)})).repartition(2)
    return e, s


def test_sp_local_matches_reference():
    rng = np.random.default_rng(41)
    edges = [(int(a), int(b), int(w) + 1)
             for a, b, w in rng.integers(0, 30, (200, 3))]
    tbl = pa.table({"src": [e[0] for e in edges],
                    "dst": [e[1] for e in edges],
                    "w": [e[2] for e in edges]})
    got = _shortest_paths_local(tbl, "src", "dst", "w", [0, 5], 3)
    got = {r["node"]: r["cost"] for r in got.to_pylist()}
    assert got == _ref_sp(edges, [0, 5], 3)


def test_sp_distributed_matches_local(ray_session):
    """The Dataset solver == the in-process kernel (as for BFS)."""
    rng = np.random.default_rng(43)
    edges = [(int(a), int(b), int(w) + 1)
             for a, b, w in rng.integers(0, 25, (150, 3))]
    seeds = [0, 13]
    e, s = _sp_dss(ray_session, edges, seeds)
    dd = shortest_paths(e, s, max_hops=3).to_pandas()
    dist = dd.set_index("node")["cost"].to_dict()
    tbl = pa.table({"src": [x[0] for x in edges],
                    "dst": [x[1] for x in edges],
                    "w": [x[2] for x in edges]})
    loc = _shortest_paths_local(tbl, "src", "dst", "w", seeds, 3)
    loc = {r["node"]: r["cost"] for r in loc.to_pylist()}
    assert dist == loc == _ref_sp(edges, seeds, 3)


def test_sp_improving_cost_across_rounds(ray_session):
    # a->b direct weight 10, but a->c->b costs 2: the 2-hop path must
    # REPLACE b's 1-hop cost in a later round
    edges = [("a", "b", 10), ("a", "c", 1), ("c", "b", 1)]
    e, s = _sp_dss(ray_session, edges, ["a"])
    got = shortest_paths(e, s, max_hops=4).to_pandas()
    got = got.set_index("node")["cost"].to_dict()
    assert got == {"a": 0, "b": 2, "c": 1}


def test_sp_hop_bound_semantics(ray_session):
    # with max_hops=1 only the direct (expensive) edge is reachable
    edges = [("a", "b", 10), ("a", "c", 1), ("c", "b", 1)]
    e, s = _sp_dss(ray_session, edges, ["a"])
    got = shortest_paths(e, s, max_hops=1).to_pandas()
    got = got.set_index("node")["cost"].to_dict()
    assert got == {"a": 0, "b": 10, "c": 1}


def test_sp_partition_independence(ray_session):
    rng = np.random.default_rng(47)
    edges = [(int(a), int(b), int(w) + 1)
             for a, b, w in rng.integers(0, 20, (100, 3))]
    e, s = _sp_dss(ray_session, edges, [0], blocks=2)
    a = shortest_paths(e, s, max_hops=3).to_pandas()
    e2, s2 = _sp_dss(ray_session, edges, [0], blocks=6)
    b = shortest_paths(e2, s2, max_hops=3).to_pandas()
    assert (a.set_index("node")["cost"].to_dict()
            == b.set_index("node")["cost"].to_dict())
