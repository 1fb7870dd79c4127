"""truss_decomposition — hand-computed structures and a brute-force
peeling reference on random graphs."""

import numpy as np
import pandas as pd

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
    truss_decomposition,
)


def _ds(ray_session, df, blocks=2):
    import ray.data

    return ray.data.from_pandas(df).repartition(blocks)


def _edges(pairs):
    return pd.DataFrame({
        "src": np.array([p[0] for p in pairs], np.int64),
        "dst": np.array([p[1] for p in pairs], np.int64),
    })


def _truss_ref(pairs):
    """Brute-force peeling on python sets."""
    alive = {frozenset((s, d)) for s, d in pairs if s != d}
    adj = {}
    for e in alive:
        u, v = tuple(e)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    truss = {e: 2 for e in alive}
    k = 3
    while alive:
        changed = True
        while changed:
            changed = False
            for e in list(alive):
                u, v = tuple(e)
                if len(adj[u] & adj[v]) < k - 2:
                    alive.discard(e)
                    adj[u].discard(v)
                    adj[v].discard(u)
                    changed = True
        for e in alive:
            truss[e] = k
        k += 1
    return truss


def _got(ray_session, pairs):
    out = truss_decomposition(
        _ds(ray_session, _edges(pairs))).to_pandas()
    return {frozenset((a, b)): t for a, b, t in
            zip(out["node_a"], out["node_b"], out["truss"])}


def test_triangle_is_3truss(ray_session):
    got = _got(ray_session, [(0, 1), (1, 2), (0, 2)])
    assert set(got.values()) == {3}


def test_k4_is_4truss_pendant_is_2(ray_session):
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    got = _got(ray_session, k4 + [(3, 9)])
    assert got[frozenset((3, 9))] == 2
    for e in k4:
        assert got[frozenset(e)] == 4


def test_bowtie_all_3(ray_session):
    # two triangles sharing edge (1,2): the shared edge has support 2
    # but peeling at k=4 cascades everything back to 3
    got = _got(ray_session, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert set(got.values()) == {3}


def test_matches_bruteforce_random(ray_session):
    rng = np.random.default_rng(17)
    pairs = list({(int(a), int(b)) for a, b in
                  zip(rng.integers(0, 12, 70), rng.integers(0, 12, 70))
                  if a != b})
    got = _got(ray_session, pairs)
    want = _truss_ref(pairs)
    assert got == want


def test_duplicate_reversed_edges_collapse(ray_session):
    a = _got(ray_session, [(0, 1), (1, 2), (0, 2)])
    b = _got(ray_session, [(0, 1), (1, 0), (1, 2), (0, 2), (2, 0)])
    assert a == b
