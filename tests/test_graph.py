"""Graph operators (pipelines/graph.py): out-degrees and fixed-iteration
PageRank vs a driver-side dense power iteration."""

import numpy as np
import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
    out_degrees,
    pagerank,
)


def _ref_pagerank(edges: list[tuple], iters: int = 5,
                  d: float = 0.85) -> dict:
    nodes = sorted({x for e in edges for x in e})
    outdeg = {}
    for s, _ in edges:
        outdeg[s] = outdeg.get(s, 0) + 1
    r = {n: 1.0 for n in nodes}
    for _ in range(iters):
        nxt = {n: 0.0 for n in nodes}
        for s, t in edges:
            nxt[t] += r[s] / outdeg[s]
        r = {n: (1 - d) + d * nxt[n] for n in nodes}
    return {n: round(v, 6) for n, v in r.items()}


def _edges_ds(ray_session, edges, blocks=3, cols=("src", "dst")):
    import ray.data

    df = pd.DataFrame(edges, columns=list(cols))
    return ray.data.from_pandas(df).repartition(blocks)


def test_out_degrees(ray_session):
    edges = [(0, 1), (0, 2), (0, 1), (3, 0)]
    out = out_degrees(_edges_ds(ray_session, edges)) \
        .to_pandas()
    assert out.set_index("src")["out_degree"].to_dict() == {0: 3, 3: 1}


def test_pagerank_int_graph_matches_power_iteration(ray_session):
    rng = np.random.default_rng(23)
    edges = [(int(a), int(b))
             for a, b in rng.integers(0, 40, (300, 2))]
    out = pagerank(_edges_ds(ray_session, edges, 5), iters=5).to_pandas()
    ref = _ref_pagerank(edges)
    got = out.set_index("node")["pr"].to_dict()
    assert set(got) == set(ref)
    for n in ref:
        assert got[n] == pytest.approx(ref[n], abs=2e-6), n


def test_pagerank_string_nodes_and_sinks(ray_session):
    # 'd' is a dangling sink (no out-edges); 'x' has no in-edges
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"),
             ("x", "a")]
    out = pagerank(_edges_ds(ray_session, edges, 2), iters=5).to_pandas()
    ref = _ref_pagerank(edges)
    got = out.set_index("node")["pr"].to_dict()
    assert got == {n: pytest.approx(v, abs=2e-6) for n, v in ref.items()}
    assert got["x"] == 0.15          # in-degree 0 -> base only
    assert len(got) == 5


def test_pagerank_partitioning_independent(ray_session):
    rng = np.random.default_rng(5)
    edges = [(int(a), int(b))
             for a, b in rng.integers(0, 25, (120, 2))]
    outs = []
    for blocks in (1, 6):
        out = pagerank(_edges_ds(ray_session, edges, blocks),
                       iters=4).to_pandas()
        outs.append(out.sort_values("node").reset_index(drop=True))
    # deterministic to the rounding digit regardless of partitioning
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_pagerank_weighted_matches_reference(ray_session):
    # rank splits by weight share, not uniformly
    edges = [("a", "b", 3.0), ("a", "c", 1.0), ("b", "a", 1.0),
             ("c", "a", 2.0)]
    out = pagerank(
        _edges_ds(ray_session, edges, 2, cols=("src", "dst", "w")),
        weight_col="w", iters=5).to_pandas()
    nodes = sorted({x for s, t, _ in edges for x in (s, t)})
    wsum = {}
    for s, _, w in edges:
        wsum[s] = wsum.get(s, 0.0) + w
    r = {n: 1.0 for n in nodes}
    for _ in range(5):
        nxt = {n: 0.0 for n in nodes}
        for s, t, w in edges:
            nxt[t] += r[s] * w / wsum[s]
        r = {n: 0.15 + 0.85 * nxt[n] for n in nodes}
    got = out.set_index("node")["pr"].to_dict()
    assert got == {n: pytest.approx(round(v, 6), abs=2e-6)
                   for n, v in r.items()}
    # b gets 3x the share c does from a
    assert got["b"] > got["c"]


def test_personalized_pagerank_matches_reference(ray_session):
    rng = np.random.default_rng(41)
    edges = [(int(a), int(b)) for a, b in rng.integers(0, 20, (80, 2))]
    seeds = {0, 7}
    out = pagerank(_edges_ds(ray_session, edges, 3), iters=5,
                   seeds=frozenset(seeds)) \
        .to_pandas().set_index("node")["pr"].to_dict()
    # reference: r0 = s; r = 0.15*s + 0.85*incoming
    nodes = sorted({x for e in edges for x in e})
    outdeg = {}
    for s, _ in edges:
        outdeg[s] = outdeg.get(s, 0) + 1
    r = {n: float(n in seeds) for n in nodes}
    for _ in range(5):
        nxt = {n: 0.0 for n in nodes}
        for s, t in edges:
            nxt[t] += r[s] / outdeg[s]
        r = {n: 0.15 * (n in seeds) + 0.85 * nxt[n] for n in nodes}
    assert set(out) == set(nodes)
    for n in nodes:
        assert out[n] == pytest.approx(round(r[n], 6), abs=2e-6), n
    # mass concentrates at/near seeds; far-from-seed nodes score lower
    assert out[0] > 0 and out[7] > 0


def _ref_lpa(edges, iters=5):
    """Driver-side synchronous LPA: adopt the incoming label with max
    total weight (undirected), ties to the smaller label."""
    und = []
    for e in edges:
        s, t, w = (e if len(e) == 3 else (e[0], e[1], 1.0))
        und += [(s, t, w), (t, s, w)]
    nodes = sorted({x for s, t, _ in und for x in (s, t)})
    lab = {n: n for n in nodes}
    for _ in range(iters):
        votes = {n: {} for n in nodes}
        for s, t, w in und:
            votes[t][lab[s]] = votes[t].get(lab[s], 0.0) + w
        new = {}
        for n in nodes:
            v = votes[n]
            v.setdefault(lab[n], v.get(lab[n], 0.0))
            best = sorted(v.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            new[n] = best[0]
        lab = new
    return lab


def test_label_propagation_two_cliques(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        label_propagation,
    )

    # two 5-cliques bridged by one weak edge + an isolated node's
    # self-loop-free singleton (via a dangling edge endpoint)
    a = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    b = [(i, j) for i in range(10, 15) for j in range(i + 1, 15)]
    edges = a + b + [(4, 10), (20, 21)]
    out = label_propagation(_edges_ds(ray_session, edges, 4),
                            iters=5).to_pandas()
    lab = out.set_index("node")["community"].to_dict()
    ref = _ref_lpa(edges)
    assert lab == ref
    # the two cliques resolve to separate communities
    assert len({lab[i] for i in range(5)}) == 1
    assert len({lab[i] for i in range(10, 15)}) == 1
    assert lab[0] != lab[10]
    assert len(out) == len(ref)


def test_label_propagation_weighted_directed_and_partitioning(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        label_propagation,
    )

    rng = np.random.default_rng(3)
    edges = [(int(a), int(b), float(w)) for a, b, w in
             np.c_[rng.integers(0, 12, (60, 2)),
                   rng.integers(1, 5, 60)]]
    outs = []
    for blocks in (1, 5):
        out = label_propagation(
            _edges_ds(ray_session, edges, blocks,
                      cols=("src", "dst", "w")),
            weight_col="w", iters=4,
        ).to_pandas().sort_values("node").reset_index(drop=True)
        outs.append(out)
    pd.testing.assert_frame_equal(outs[0], outs[1])
    ref = _ref_lpa(edges, iters=4)
    assert outs[0].set_index("node")["community"].to_dict() == ref


def test_graph_ops_self_loops_and_parallel_edges(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        label_propagation,
    )

    # self-loop + duplicate parallel edges: both count toward weight
    edges = [(1, 1), (1, 2), (1, 2), (2, 3), (3, 1)]
    pr = pagerank(_edges_ds(ray_session, edges, 2), iters=4).to_pandas() \
        .set_index("node")["pr"].to_dict()
    ref = _ref_pagerank(edges, iters=4)
    assert pr == {n: pytest.approx(v, abs=2e-6) for n, v in ref.items()}
    lab = label_propagation(_edges_ds(ray_session, edges, 2),
                            iters=4).to_pandas()
    assert set(lab["node"]) == {1, 2, 3}
    assert lab.set_index("node")["community"].to_dict() == _ref_lpa(
        edges, iters=4)


def test_triangle_count_matches_matrix_reference(ray_session):
    import pyarrow as pa
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        triangle_count,
    )

    rng = np.random.default_rng(13)
    n = 60
    A = np.zeros((n, n), dtype=np.int64)
    # random edges + a hub (node 0 connected to everything) + a clique
    for _ in range(150):
        i, j = rng.integers(0, n, 2)
        if i != j:
            A[i, j] = A[j, i] = 1
    A[0, :] = A[:, 0] = 1
    A[0, 0] = 0
    for i in range(40, 48):
        for j in range(40, 48):
            if i != j:
                A[i, j] = 1
    want = int(np.trace(A @ A @ A) // 6)

    src, dst = np.nonzero(A)  # both directions present + dups below
    src = np.concatenate([src, src[:20]])
    dst = np.concatenate([dst, dst[:20]])
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64()),
    })).repartition(5)
    got = triangle_count(ds).to_pandas()
    assert got.n_triangles.tolist() == [want]
    assert want > 100  # the graph is non-trivial


def test_triangle_count_no_triangles(ray_session):
    import pyarrow as pa
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        triangle_count,
    )

    # a pure chain has no triangles; self-loops must be ignored
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array([0, 1, 2, 3, 5], pa.int64()),
        "dst": pa.array([1, 2, 3, 4, 5], pa.int64()),
    }))
    got = triangle_count(ds).to_pandas()
    assert got.n_triangles.tolist() == [0]


def _brute_kcore(edges: set[tuple[int, int]], k: int) -> dict[int, int]:
    edges = {(min(a, b), max(a, b)) for a, b in edges if a != b}
    while True:
        deg = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        bad = {n for n, d in deg.items() if d < k}
        if not bad:
            return deg
        edges = {(a, b) for a, b in edges if a not in bad and b not in bad}
        if not edges:
            return {}


def test_k_core_matches_brute_peeling(ray_session):
    import pyarrow as pa
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        k_core,
    )

    rng = np.random.default_rng(21)
    raw = {(int(a), int(b)) for a, b in rng.integers(0, 50, (160, 2))}
    # guarantee a 4-core: K6 on nodes 100..105
    for i in range(100, 106):
        for j in range(i + 1, 106):
            raw.add((i, j))
    src = [a for a, _ in raw] + [b for _, b in raw][:30]  # some reversed dups
    dst = [b for _, b in raw] + [a for a, _ in raw][:30]
    ds = ray.data.from_arrow(pa.table({
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64()),
    })).repartition(4)
    for k in (2, 3, 4, 30):
        got = k_core(ds, k).to_pandas()
        want = _brute_kcore(raw, k)
        got_d = {int(r.node): int(r.deg) for r in got.itertuples()}
        assert got_d == want, k
    # the K6 clique survives k=4 with within-core degrees >= 5... at least 5
    got = k_core(ds, 5).to_pandas()
    assert set(got.node) >= set(range(100, 106))


def test_pagerank_local_equals_distributed(ray_session):
    """The in-process kernel (the KG serving path) equals the Dataset
    solver over a multi-block input — weighted string graph with a
    hub, both plain and personalized (seeded)."""
    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        _pagerank_local,
    )

    rng = np.random.default_rng(7)
    names = [f"ent{i:02d}" for i in range(30)]
    edges = [(names[int(a)], names[int(b)], float(w))
             for a, b, w in zip(rng.integers(0, 30, 400),
                                rng.integers(0, 30, 400),
                                rng.integers(1, 5, 400))]
    # hub: one node with many out-edges
    edges += [("hub", names[i % 30], 1.0) for i in range(90)]
    ds = _edges_ds(ray_session, edges, 4, cols=("src", "dst", "w"))
    tbl = pa.Table.from_pandas(pd.DataFrame(edges,
                                            columns=["src", "dst", "w"]))
    for seeds in (None, frozenset({"ent03", "hub"})):
        dist = pagerank(ds, weight_col="w", iters=5,
                        seeds=seeds).to_pandas() \
            .sort_values("node").reset_index(drop=True)
        loc = _pagerank_local(tbl, "src", "dst", "w", 5, 0.85, "pr", 6,
                              seeds).to_pandas() \
            .sort_values("node").reset_index(drop=True)
        pd.testing.assert_frame_equal(loc, dist, check_dtype=False)


def test_label_propagation_local_equals_distributed(ray_session):
    """In-process kernel == Dataset solver, as for pagerank above."""
    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        _lpa_local,
        label_propagation,
    )

    rng = np.random.default_rng(11)
    # two dense clusters + a few random bridges, weighted
    edges = []
    for base in (0, 20):
        for _ in range(120):
            a, b = rng.integers(base, base + 20, 2)
            edges.append((f"n{a:02d}", f"n{b:02d}",
                          float(rng.integers(1, 4))))
    edges += [("n03", "n23", 1.0), ("n15", "n31", 1.0)]
    ds = _edges_ds(ray_session, edges, 3, cols=("src", "dst", "w"))
    tbl = pa.Table.from_pandas(pd.DataFrame(edges,
                                            columns=["src", "dst", "w"]))
    for directed in (False, True):
        for wcol in (None, "w"):
            dist = label_propagation(
                ds, weight_col=wcol, iters=4, directed=directed,
            ).to_pandas().sort_values("node").reset_index(drop=True)
            loc = _lpa_local(tbl, "src", "dst", wcol, 4, directed,
                             "community").to_pandas() \
                .sort_values("node").reset_index(drop=True)
            pd.testing.assert_frame_equal(loc, dist, check_dtype=False)


class TestDegreeHistogram:
    def _hist(self, edges, blocks=2):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
            degree_histogram,
        )

        ds = ray.data.from_items(
            [{"src": s, "dst": d} for s, d in edges],
            override_num_blocks=blocks)
        return {r["degree"]: r["n_nodes"]
                for r in degree_histogram(ds).take_all()}

    def test_hand_graph(self, ray_session):
        # star: 0->1, 0->2, 0->3 plus a parallel edge 0->1
        edges = [(0, 1), (0, 2), (0, 3), (0, 1)]
        hist = self._hist(edges)
        # node 0: degree 4 (parallel edges count); node 1: 2; 2,3: 1
        assert hist == {4: 1, 2: 1, 1: 2}

    def test_self_loop_counts_twice(self, ray_session):
        hist = self._hist([(5, 5)])
        assert hist == {2: 1}

    def test_partition_independence(self, ray_session, fixed_partitions):
        edges = [(i, (i * i + 1) % 7) for i in range(40)]
        fixed_partitions(2)
        one = self._hist(edges, blocks=1)
        fixed_partitions(5)
        assert one == self._hist(edges, blocks=8)


# ---------------------------------------------------------------------------
# random_walks: deterministic DeepWalk corpus sampling
# ---------------------------------------------------------------------------

def _pairs_ds(ray_session, pairs):
    import pyarrow as pa

    return ray_session.data.from_arrow(pa.table({
        "src": pa.array([a for a, _ in pairs], pa.int64()),
        "dst": pa.array([b for _, b in pairs], pa.int64()),
    }))


def test_random_walks_hand_computed(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        random_walks,
    )

    A, B = 2654435761, 40503
    # node 0 -> {1, 2}; node 1 -> {0}; node 2 -> {1}
    pairs = [(0, 1), (0, 2), (1, 0), (2, 1)]
    out = random_walks(_pairs_ds(ray_session, pairs),
                       walk_len=3).take_all()
    got = {(r["walk_id"], r["step"]): r["node"] for r in out}

    # python replay
    adj = {0: [1, 2], 1: [0], 2: [1]}
    for start in adj:
        cur = start
        assert got[(start, 0)] == start
        for s in range(2):
            cur = adj[cur][(cur * A + s * B) % len(adj[cur])]
            assert got[(start, s + 1)] == cur, (start, s)
    assert len(out) == 9  # 3 walks x 3 steps, no dead ends


def test_random_walks_dead_end_stops_early(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        random_walks,
    )

    # 5 -> 6, 6 has no out-edges: the walk from 5 stops at step 1
    out = random_walks(_pairs_ds(ray_session, [(5, 6)]),
                       walk_len=4).take_all()
    rows = sorted((r["walk_id"], r["step"], r["node"]) for r in out)
    assert rows == [(5, 0, 5), (5, 1, 6)]


def test_random_walks_parallel_edges_dedup_and_partition_independent(
        ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        random_walks,
    )

    pairs = [(i, (i + 1) % 20) for i in range(20)]
    pairs += pairs[:7]  # parallel duplicates must not change degrees
    pairs += [(i, (i + 5) % 20) for i in range(20)]
    ds = _pairs_ds(ray_session, pairs)
    key = lambda r: (r["walk_id"], r["step"])
    one = sorted(random_walks(ds, walk_len=4).take_all(), key=key)
    many = sorted(random_walks(ds.repartition(7), walk_len=4).take_all(),
                  key=key)
    assert one == many
    assert len(one) == 20 * 4


def test_random_walks_rejects_string_ids(ray_session):
    """The KG's ids are strings; the walk hashes int64 ids, so a string
    id column is named in a ValueError, not a failed map task."""
    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        random_walks,
    )

    ds = ray_session.data.from_arrow(pa.table({
        "src_entity_id": ["e:a", "e:b"], "dst_entity_id": ["e:b", "e:a"]}))
    with pytest.raises(ValueError, match="'src_entity_id' is string"):
        random_walks(ds, src_col="src_entity_id", dst_col="dst_entity_id")


# ---------------------------------------------------------------------------
# HITS: hubs & authorities
# ---------------------------------------------------------------------------

def _hits_replay(edges, iters=5):
    nodes = sorted({n for e in edges for n in e})
    a = {n: 0.0 for n in nodes}
    h = {n: 1.0 for n in nodes}
    for _ in range(iters):
        a = {n: 0.0 for n in nodes}
        for s, t in edges:
            a[t] += h[s]
        sa = sum(a.values()) or 1.0
        a = {n: v / sa for n, v in a.items()}
        h = {n: 0.0 for n in nodes}
        for s, t in edges:
            h[s] += a[t]
        sh = sum(h.values()) or 1.0
        h = {n: v / sh for n, v in h.items()}
    return ({n: round(v, 6) for n, v in a.items()},
            {n: round(v, 6) for n, v in h.items()})


def test_hits_matches_replay_local_and_distributed(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import hits

    rng = np.random.default_rng(7)
    edges = [(int(a), int(b))
             for a, b in rng.integers(0, 30, (200, 2))]
    want_a, want_h = _hits_replay(edges, iters=5)
    out = hits(_edges_ds(ray_session, edges, 4), iters=5).to_pandas()
    got_a = dict(zip(out["node"], out["authority"]))
    got_h = dict(zip(out["node"], out["hub"]))
    assert set(got_a) == set(want_a)
    for n in want_a:
        assert abs(got_a[n] - want_a[n]) < 2e-6, n
        assert abs(got_h[n] - want_h[n]) < 2e-6, n


def test_hits_pure_hub_and_authority(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import hits

    # 0 links to 1 and 2; nothing links to 0 → 0 is a pure hub
    edges = [(0, 1), (0, 2)]
    out = {r["node"]: r for r in hits(
        _edges_ds(ray_session, edges, 2), iters=3).take_all()}
    assert out[0]["authority"] == 0.0
    assert out[0]["hub"] == 1.0
    assert out[1]["hub"] == 0.0 and out[2]["hub"] == 0.0
    assert abs(out[1]["authority"] - 0.5) < 1e-9
    assert abs(out[2]["authority"] - 0.5) < 1e-9


def test_hits_string_nodes_partition_independent(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import hits

    edges = [("a.com", "b.com"), ("a.com", "c.com"), ("b.com", "c.com"),
             ("c.com", "a.com"), ("d.com", "c.com")]
    ref = None
    for blocks in (1, 3, 5):
        out = hits(_edges_ds(ray_session, edges, blocks),
                   iters=4).to_pandas()
        cur = sorted(map(tuple, out.to_numpy().tolist()))
        if ref is None:
            ref = cur
        else:
            assert cur == ref, blocks


# ---------------------------------------------------------------------------
# open-vocabulary co-occurrence PMI
# ---------------------------------------------------------------------------

def _co_replay(rows, min_count=1, cap=256):
    import math
    by_g = {}
    for g, it in rows:
        by_g.setdefault(g, set()).add(it)
    by_g = {g: sorted(s)[:cap] for g, s in by_g.items()}
    n = {}
    nab = {}
    for items in by_g.values():
        for x in items:
            n[x] = n.get(x, 0) + 1
        for i, x in enumerate(items):
            for y in items[i + 1:]:
                nab[(x, y)] = nab.get((x, y), 0) + 1
    N = len(by_g)
    return {
        p: (c, round(math.log2(c * N / (n[p[0]] * n[p[1]])), 6))
        for p, c in nab.items() if c >= min_count
    }


def test_cooccurrence_pmi_matches_replay(ray_session, fixed_partitions):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        cooccurrence_pmi,
    )

    rows = [
        (1, "ant"), (1, "bee"), (1, "cat"), (1, "ant"),  # dup presence
        (2, "ant"), (2, "bee"),
        (3, "bee"), (3, "cat"),
        (4, "ant"), (4, "dog"),
        (5, "emu"),                                      # singleton group
    ]
    want = _co_replay(rows, min_count=1)
    for blocks, parts in ((1, 2), (4, 5)):
        fixed_partitions(parts)
        ds = ray.data.from_items(
            [{"g": g, "item": it} for g, it in rows]
        ).repartition(blocks)
        out = cooccurrence_pmi(ds, "g", "item", min_count=1).take_all()
        got = {(r["a"], r["b"]): (r["n_ab"], r["pmi"]) for r in out}
        assert got == want, (blocks, parts)


def test_cooccurrence_pmi_cap_and_min_count(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        cooccurrence_pmi,
    )

    # group 1 has 4 items but cap=2 keeps only the lexicographic head
    # {a, b}; min_count=2 then needs (a, b) in BOTH groups
    rows = [(1, "d"), (1, "c"), (1, "a"), (1, "b"),
            (2, "a"), (2, "b"), (2, "z")]
    ds = ray.data.from_items([{"g": g, "item": it} for g, it in rows])
    out = cooccurrence_pmi(ds, "g", "item", min_count=2,
                           max_items_per_group=2).take_all()
    want = _co_replay(rows, min_count=2, cap=2)
    got = {(r["a"], r["b"]): (r["n_ab"], r["pmi"]) for r in out}
    assert got == want
    assert set(got) == {("a", "b")}


def test_hits_rejects_zero_iters(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import hits

    # with no iteration no score is computed: an error, not
    # authority 0.0 / hub 1.0 for every node
    with pytest.raises(ValueError, match="iters must be >= 1"):
        hits(_edges_ds(ray_session, [(0, 1), (1, 2)], 2), iters=0)


# ---------------------------------------------------------------------------
# the one-task solver contract: empty graphs and the edge cap
# ---------------------------------------------------------------------------

SOLVERS = ["pagerank", "label_propagation", "hits", "bfs_depths",
           "shortest_paths", "link_scores", "clustering_coefficient",
           "betweenness_sample", "harmonic_sample", "truss_decomposition"]


def _solve(name: str, edges, seeds):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines import graph

    fn = getattr(graph, name)
    if name in ("bfs_depths", "shortest_paths"):
        return fn(edges, seeds)
    if name in ("pagerank", "label_propagation"):
        return fn(edges, weight_col="w")
    return fn(edges)


def _graph(ray_session, n_edges: int, node_type):
    """The first ``n_edges`` of a triangle 0-1-2 with a tail 2-3, a float
    weight column, and node 0 as the one seed (none without edges)."""
    import pyarrow as pa

    pairs = [(0, 1), (1, 2), (2, 0), (2, 3)][:n_edges]
    node = (lambda v: f"n{v}") if node_type == pa.string() else int
    edges = pa.table({
        "src": pa.array([node(a) for a, _ in pairs], node_type),
        "dst": pa.array([node(b) for _, b in pairs], node_type),
        "w": pa.array([2.0] * len(pairs), pa.float64()),
    })
    seeds = pa.table({"node": pa.array([node(0)][:n_edges], node_type)})
    return (ray_session.data.from_arrow(edges),
            ray_session.data.from_arrow(seeds))


def _table(ds):
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@pytest.mark.parametrize("node_type", ["int64", "string"])
@pytest.mark.parametrize("name", SOLVERS)
def test_zero_edges_typed_like_nonempty(ray_session, name, node_type):
    import pyarrow as pa

    typ = pa.type_for_alias(node_type)
    full = _table(_solve(name, *_graph(ray_session, 4, typ)))
    empty = _table(_solve(name, *_graph(ray_session, 0, typ)))
    assert full.num_rows > 0
    assert empty.num_rows == 0
    assert empty.schema.names == full.schema.names
    assert empty.schema.types == full.schema.types


@pytest.mark.parametrize("name", SOLVERS)
def test_edge_cap_raises(ray_session, monkeypatch, name):
    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray import config

    monkeypatch.setattr(config, "LOCAL_EDGES_THRESHOLD", 2)
    # the cap is read at call time and is inclusive
    assert _table(_solve(name, *_graph(ray_session, 2, pa.int64()))) \
        .num_rows >= 0
    with pytest.raises(ValueError, match="LOCAL_EDGES_THRESHOLD"):
        _solve(name, *_graph(ray_session, 3, pa.int64()))


@pytest.mark.parametrize("name", SOLVERS)
def test_zero_edges_without_schema(ray_session, name):
    import pyarrow as pa

    # a filter that drops every row can leave blocks with no columns
    none = ray_session.data.from_arrow(pa.table({}))
    assert _table(_solve(name, none, none)).num_rows == 0
