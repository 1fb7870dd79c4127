"""INTERSECT / EXCEPT set semantics: duplicates collapse, right-only
tuples never leak, multi-column tuples compare as a whole."""

import pandas as pd


def _ds(ray, df):
    import ray.data

    return ray.data.from_pandas(df)


def test_intersect_distinct_set_semantics(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        intersect_distinct,
    )

    left = pd.DataFrame({"k": [1, 1, 2, 3, 3, 3], "v": list("aabccc")})
    right = pd.DataFrame({"k": [1, 3, 3, 4], "v": list("acca")})
    got = intersect_distinct(_ds(ray_session, left),
                             _ds(ray_session, right), ["k", "v"]).to_pandas()
    got = set(map(tuple, got[["k", "v"]].itertuples(index=False)))
    # (1,'a') and (3,'c') on both sides; duplicates collapse
    assert got == {(1, "a"), (3, "c")}


def test_except_distinct_set_semantics(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        except_distinct,
    )

    left = pd.DataFrame({"k": [1, 1, 2, 3], "v": list("aabc")})
    right = pd.DataFrame({"k": [3, 4], "v": list("cd")})
    got = except_distinct(_ds(ray_session, left),
                          _ds(ray_session, right), ["k", "v"]).to_pandas()
    got = set(map(tuple, got[["k", "v"]].itertuples(index=False)))
    # (3,'c') removed; right-only (4,'d') never appears; dups collapse
    assert got == {(1, "a"), (2, "b")}
