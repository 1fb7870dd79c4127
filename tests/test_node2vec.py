"""node2vec_walks — exact replication by a python reference, p/q bias
behavior, determinism, DeepWalk equivalence at step 0."""

import numpy as np
import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
    node2vec_walks,
)

A, B = 2654435761, 40503


def _ds(ray_session, df, blocks=2):
    import ray.data

    return ray.data.from_pandas(df).repartition(blocks)


def _edges(pairs):
    return pd.DataFrame({
        "src": np.array([p[0] for p in pairs], np.int64),
        "dst": np.array([p[1] for p in pairs], np.int64),
    })


def _ref(pairs, walk_len, p, q):
    adj = {}
    for s, d in sorted(set(pairs)):
        adj.setdefault(s, []).append(d)
    for k in adj:
        adj[k] = sorted(set(adj[k]))
    rows = []
    for start in sorted(adj):
        node, prev = start, None
        rows.append((start, 0, start))
        for step in range(walk_len - 1):
            nbrs = adj.get(node)
            if not nbrs:
                break
            if prev is None:
                i = (start * A + step * B) % len(nbrs)
                nxt = nbrs[i]
            else:
                w = []
                for c in nbrs:
                    if c == prev:
                        w.append(1.0 / p)
                    elif c in adj.get(prev, []):
                        w.append(1.0)
                    else:
                        w.append(1.0 / q)
                tot = sum(w)
                r = ((np.uint64(start) * np.uint64(A)
                      + np.uint64(step) * np.uint64(B))
                     & np.uint64(0xFFFFFFFF))
                frac = (float(r) + 0.5) / 4294967296.0
                cum, nxt = 0.0, None
                for c, wi in zip(nbrs, w):
                    cum += wi
                    if cum > frac * tot:
                        nxt = c
                        break
                if nxt is None:
                    break
            rows.append((start, step + 1, nxt))
            prev, node = node, nxt
    return sorted(rows)


def _got(ray_session, pairs, walk_len=4, p=1.0, q=1.0, blocks=3):
    out = node2vec_walks(_ds(ray_session, _edges(pairs), blocks),
                         walk_len=walk_len, p=p, q=q).to_pandas()
    return sorted(zip(out["walk_id"], out["step"], out["node"]))


def test_matches_reference_random(ray_session):
    rng = np.random.default_rng(23)
    pairs = list({(int(a), int(b)) for a, b in
                  zip(rng.integers(0, 10, 60), rng.integers(0, 10, 60))
                  if a != b})
    # symmetrize, the usual node2vec form
    pairs = list({*pairs, *[(b, a) for a, b in pairs]})
    for p, q in [(1.0, 1.0), (0.25, 4.0), (4.0, 0.25)]:
        assert _got(ray_session, pairs, 5, p, q) == _ref(pairs, 5, p, q)


def test_partition_independent(ray_session):
    rng = np.random.default_rng(3)
    pairs = list({(int(a), int(b)) for a, b in
                  zip(rng.integers(0, 8, 40), rng.integers(0, 8, 40))
                  if a != b})
    a = _got(ray_session, pairs, 4, 0.5, 2.0, blocks=1)
    b = _got(ray_session, pairs, 4, 0.5, 2.0, blocks=6)
    assert a == b


def test_high_p_avoids_backtrack(ray_session):
    # path 0-1-0: from 1 the only neighbor is 0 (must backtrack), but
    # on a triangle with huge p the walk should never return to prev
    tri = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    walks = _got(ray_session, tri, walk_len=6, p=1e9, q=1.0)
    by_walk = {}
    for w, s, n in walks:
        by_walk.setdefault(w, []).append(n)
    for seq in by_walk.values():
        for i in range(2, len(seq)):
            assert seq[i] != seq[i - 2], seq  # no immediate backtrack


def test_sink_stops_walk(ray_session):
    walks = _got(ray_session, [(0, 1)], walk_len=5)
    assert walks == [(0, 0, 0), (0, 1, 1)]


def test_step0_equals_deepwalk_rule(ray_session):
    pairs = [(0, 1), (0, 2), (0, 3)]
    walks = dict(((w, s), n) for w, s, n in
                 _got(ray_session, pairs, walk_len=2))
    assert walks[(0, 1)] == sorted([1, 2, 3])[(0 * A + 0 * B) % 3]


def test_skipgram_pairs_window_semantics(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        skipgram_pairs,
    )

    walks = pd.DataFrame({
        "walk_id": np.array([1, 1, 1, 1, 2, 2], np.int64),
        "step": np.array([0, 1, 2, 3, 0, 1], np.int64),
        "node": np.array([10, 11, 12, 13, 20, 21], np.int64),
    })
    out = skipgram_pairs(ray.data.from_pandas(walks).repartition(2),
                         window=2).to_pandas()
    got = set(zip(out["center"], out["context"], out["offset"]))
    want = set()
    seqs = {1: [10, 11, 12, 13], 2: [20, 21]}
    for seq in seqs.values():
        for i, c in enumerate(seq):
            for off in (-2, -1, 1, 2):
                j = i + off
                if 0 <= j < len(seq):
                    want.add((c, seq[j], off))
    assert got == want
    assert len(out) == len(want)  # no duplicate emissions


def test_skipgram_negatives_deterministic_and_distributed(ray_session,
                                                          fixed_partitions):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        skipgram_negatives,
    )

    rng = np.random.default_rng(31)
    walks = pd.DataFrame({
        "walk_id": np.repeat(np.arange(40, dtype=np.int64), 4),
        "step": np.tile(np.arange(4, dtype=np.int64), 40),
        "node": rng.integers(0, 12, 160).astype(np.int64),
    })
    fixed_partitions(1)
    a = skipgram_negatives(ray.data.from_pandas(walks).repartition(1),
                           window=2, k_neg=3).to_pandas()
    fixed_partitions(5)
    b = skipgram_negatives(ray.data.from_pandas(walks).repartition(7),
                           window=2, k_neg=3).to_pandas()
    key = ["center", "context", "offset", "neg_rank", "negative"]
    pd.testing.assert_frame_equal(
        a[key].sort_values(key).reset_index(drop=True),
        b[key].sort_values(key).reset_index(drop=True))
    # 3 negatives per pair, ranks 0..2
    assert set(a["neg_rank"]) == {0, 1, 2}
    assert len(a) % 3 == 0


def test_skipgram_negatives_follow_unigram_power(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        skipgram_negatives,
    )

    # node 0 dominates visits → it must dominate the negative draws
    walks = pd.DataFrame({
        "walk_id": np.repeat(np.arange(50, dtype=np.int64), 4),
        "step": np.tile(np.arange(4, dtype=np.int64), 50),
        "node": np.where(np.arange(200) % 4 < 3, 0,
                         1 + np.arange(200) % 7).astype(np.int64),
    })
    out = skipgram_negatives(ray.data.from_pandas(walks).repartition(3),
                             window=1, k_neg=5).to_pandas()
    share0 = (out["negative"] == 0).mean()
    assert share0 > 0.4  # 75% of visits, ^0.75-damped, still dominant


def test_rejects_string_ids(ray_session):
    """String node ids (the KG's id type) raise a ValueError naming the
    column and its type."""
    df = pd.DataFrame({"src": [1, 2], "dst": ["e:b", "e:a"]})
    with pytest.raises(ValueError, match="'dst' is string"):
        node2vec_walks(_ds(ray_session, df, 1))
