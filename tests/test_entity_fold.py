"""The one entity fold (``stages.link.fold_entities``) that both
``entity_nodes`` levels and ``merge_kg`` run: aliases travel as lists,
so a surface name holding ``|`` stays one alias, and a merged entity
takes its smallest alias as its name whichever side it came from."""

import numpy as np
import pyarrow as pa

from nlp_graphrag_with_qdrant_and_neo4j_ray.config import PipelineConfig

CFG = PipelineConfig()
DIM = 4


def _mentions(rows):
    ids, salts, names, parts = zip(*rows)
    return pa.table({
        "entity_id": list(ids),
        "salt": pa.array(salts, pa.int32()),
        "names": pa.array([[n] for n in names], pa.list_(pa.string())),
        "parts": pa.array(parts, pa.int8()),
        "mention_count": pa.array([1] * len(rows), pa.int64()),
    })


def test_fold_is_the_same_in_one_level_or_two():
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.link import fold_entities

    rows = [("e:b", 0, "B", 1), ("e:a", 1, "a", 2), ("e:b", 1, "b", 2),
            ("e:a", 1, "A", 2), ("e:b", 0, "B", 1), ("e:a", 0, "a", 2)]
    one = fold_entities(_mentions(rows), ["entity_id"])
    two = fold_entities(fold_entities(_mentions(rows), ["entity_id", "salt"])
                        .drop_columns(["salt"]), ["entity_id"])
    want = {"entity_id": ["e:a", "e:b"],
            "names": [["A", "a"], ["B", "b"]],
            "parts": [2, 3],
            "mention_count": [3, 3]}
    assert one.to_pydict() == want
    assert two.to_pydict() == want


def test_pipe_in_a_surface_name_stays_one_alias(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.link import (
        entity_nodes,
        make_linker_fn,
    )

    linked = make_linker_fn(None, CFG)(pa.table({
        "chunk_id": ["c0", "c1"],
        "subj": ["Foo|Bar", "Foo|Bar"],
        "pred": ["likes", "likes"],
        "obj": ["Baz", "Baz"],
    }))
    foo = linked.column("src_entity_id")[0].as_py()
    rows = {r["entity_id"]: r
            for r in entity_nodes(ray.data.from_arrow(linked), CFG).take_all()}
    assert list(rows[foo]["aliases"]) == ["Foo|Bar"]
    assert rows[foo]["name"] == "Foo|Bar"
    assert rows[foo]["mention_count"] == 2


def _side(name: str, part: str, vec: list[float]) -> dict:
    """A one-entity KG (with the term_nodes and edges merge_kg reads)."""
    import ray.data

    return {
        "entity_nodes": ray.data.from_arrow(pa.table({
            "entity_id": ["e:paris"],
            "name": [name],
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(vec, pa.float32()), DIM),
            "triplet_part": [part],
            "aliases": pa.array([[name]], pa.list_(pa.string())),
            "mention_count": pa.array([2], pa.int64()),
        })),
        "term_nodes": ray.data.from_arrow(pa.table({
            "term": ["paris"], "term_type": ["unigram"],
            "chunk_count": pa.array([1], pa.int64()),
        })),
        "edges": ray.data.from_arrow(pa.table({
            "src_entity_id": ["e:paris"], "dst_entity_id": ["e:france"],
            "pred": ["in"], "chunk_id": [f"c-{name}"],
            "weight": pa.array([1], pa.int64()),
            "pred_embedding": pa.FixedSizeListArray.from_arrays(
                pa.array([1.0, 0.0, 0.0, 0.0], pa.float32()), DIM),
        })),
    }


def test_merge_name_is_the_smallest_alias_on_either_side(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import merge_kg

    lower, upper = [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]
    a = _side("paris", "subject", lower)
    b = _side("Paris", "object", upper)

    def node(tables):
        (row,) = merge_kg(*tables)["entity_nodes"].take_all()
        row = {k: (list(np.asarray(v).tolist())
                   if isinstance(v, (list, np.ndarray)) else v)
               for k, v in row.items()}
        return row

    ab, ba = node((a, b)), node((b, a))
    assert ab == ba
    assert ab["aliases"] == ["Paris", "paris"]
    assert ab["name"] == "Paris"  # a rebuild picks the smallest alias
    assert ab["embedding"] == upper  # the vector of the row named so
    assert ab["triplet_part"] == "both"
    assert ab["mention_count"] == 4
