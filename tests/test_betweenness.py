"""betweenness_sample — exactness with all sources vs hand values and
an independent pure-python Brandes reference; estimator properties."""

import numpy as np
import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
    betweenness_sample,
)


def _ds(ray_session, df, blocks=2):
    import ray.data

    return ray.data.from_pandas(df).repartition(blocks)


def _edges(pairs):
    return pd.DataFrame({
        "src": np.array([p[0] for p in pairs], np.int64),
        "dst": np.array([p[1] for p in pairs], np.int64),
    })


def _brandes_ref(pairs):
    """Textbook list-based Brandes (exact, all sources, undirected)."""
    from collections import deque

    adj = {}
    for s, d in pairs:
        if s == d:
            continue
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    bc = {v: 0.0 for v in adj}
    for s in adj:
        stack, preds = [], {v: [] for v in adj}
        sigma = {v: 0.0 for v in adj}
        dist = {v: -1 for v in adj}
        sigma[s], dist[s] = 1.0, 0
        q = deque([s])
        while q:
            v = q.popleft()
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    q.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: 0.0 for v in adj}
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return {v: b / 2.0 for v, b in bc.items()}


def _got(ray_session, pairs, **kw):
    out = betweenness_sample(
        _ds(ray_session, _edges(pairs)), **kw).to_pandas()
    return dict(zip(out["node"], out["betweenness"]))


def test_path_graph_hand_values(ray_session):
    # P4: 0-1-2-3 → betweenness (0, 2, 2, 0)
    got = _got(ray_session, [(0, 1), (1, 2), (2, 3)], k_sources=100)
    assert got == {0: 0.0, 1: 2.0, 2: 2.0, 3: 0.0}


def test_star_center_hand_value(ray_session):
    # K1,3: center on all C(3,2)=3 leaf pairs
    got = _got(ray_session, [(9, 1), (9, 2), (9, 3)], k_sources=100)
    assert got == {1: 0.0, 2: 0.0, 3: 0.0, 9: 3.0}


def test_all_sources_matches_reference_random(ray_session):
    rng = np.random.default_rng(5)
    pairs = list({(int(a), int(b)) for a, b in
                  zip(rng.integers(0, 12, 40), rng.integers(0, 12, 40))
                  if a != b})
    got = _got(ray_session, pairs, k_sources=10_000)
    want = _brandes_ref(pairs)
    assert set(got) == set(want)
    for v in want:
        assert abs(got[v] - want[v]) <= 1e-6, (v, got[v], want[v])


def test_explicit_sources_and_scaling(ray_session):
    # P3: 0-1-2; source 0 alone gives delta(1)=1; scale n/k/2 = 3/2
    got = _got(ray_session, [(0, 1), (1, 2)], sources=[0])
    assert got[1] == pytest.approx(1.0 * 3 / 1 / 2)
    raw = _got(ray_session, [(0, 1), (1, 2)], sources=[0], scale=False)
    assert raw[1] == pytest.approx(1.0)


def test_sampled_estimate_tracks_exact(ray_session):
    rng = np.random.default_rng(11)
    pairs = list({(int(a), int(b)) for a, b in
                  zip(rng.integers(0, 30, 150),
                      rng.integers(0, 30, 150)) if a != b})
    exact = _got(ray_session, pairs, k_sources=10_000)
    est = _got(ray_session, pairs, k_sources=12)
    # same support; estimator correlates strongly with the exact values
    xs = np.array([exact[v] for v in sorted(exact)])
    ys = np.array([est[v] for v in sorted(exact)])
    if xs.std() > 0 and ys.std() > 0:
        assert np.corrcoef(xs, ys)[0, 1] > 0.8


def test_duplicate_and_reversed_edges_collapse(ray_session):
    a = _got(ray_session, [(0, 1), (1, 2)], k_sources=100)
    b = _got(ray_session, [(0, 1), (1, 0), (1, 2), (1, 2)],
             k_sources=100)
    assert a == b


def test_disconnected_components(ray_session):
    got = _got(ray_session, [(0, 1), (1, 2), (10, 11)], k_sources=100)
    # node 1 sits on exactly the (0, 2) pair → betweenness 1; the
    # isolated edge contributes nothing and BFS never crosses
    assert got[1] == 1.0
    assert got[0] == got[2] == got[10] == got[11] == 0.0


# ---------------------------------------------------------------------------
# harmonic centrality (same sampled-BFS machinery)


def _harmonic_ref(pairs):
    from collections import deque

    adj = {}
    for s, d in pairs:
        if s == d:
            continue
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    out = {}
    for v in adj:
        dist = {v: 0}
        q = deque([v])
        while q:
            x = q.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        out[v] = sum(1.0 / d for u, d in dist.items() if d > 0)
    return out


def test_harmonic_exact_matches_reference(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        harmonic_sample,
    )

    rng = np.random.default_rng(7)
    pairs = list({(int(a), int(b)) for a, b in
                  zip(rng.integers(0, 15, 60), rng.integers(0, 15, 60))
                  if a != b})
    out = harmonic_sample(_ds(ray_session, _edges(pairs)),
                          k_sources=10_000).to_pandas()
    got = dict(zip(out["node"], out["harmonic"]))
    want = _harmonic_ref(pairs)
    assert set(got) == set(want)
    for v in want:
        assert abs(got[v] - want[v]) <= 1e-6


def test_harmonic_disconnected_pairs_contribute_zero(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        harmonic_sample,
    )

    out = harmonic_sample(
        _ds(ray_session, _edges([(0, 1), (5, 6)])),
        k_sources=100).to_pandas()
    got = dict(zip(out["node"], out["harmonic"]))
    assert got == {0: 1.0, 1: 1.0, 5: 1.0, 6: 1.0}


def test_harmonic_path_hand_values(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        harmonic_sample,
    )

    # P3 0-1-2: ends 1 + 1/2, middle 2
    out = harmonic_sample(_ds(ray_session, _edges([(0, 1), (1, 2)])),
                          k_sources=100).to_pandas()
    got = dict(zip(out["node"], out["harmonic"]))
    assert got == {0: 1.5, 1: 2.0, 2: 1.5}


@pytest.mark.parametrize("solver", ["betweenness_sample", "harmonic_sample"])
def test_bad_sources_raise_value_error(ray_session, solver):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines import graph

    ds = _ds(ray_session, _edges([(0, 1), (1, 2), (2, 3)]))
    fn = getattr(graph, solver)
    with pytest.raises(ValueError, match="sources is empty"):
        fn(ds, sources=[])
    with pytest.raises(ValueError, match="source 9 is not a node"):
        fn(ds, sources=[1, 9])
    with pytest.raises(ValueError, match="k_sources"):
        fn(ds, k_sources=0)
