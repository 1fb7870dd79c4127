"""``state.broadcast.broadcast_lookup`` gives DuckDB's rows for
``JOIN`` / ``LEFT JOIN`` / ``EXISTS`` / ``NOT EXISTS`` on the same tables:
an int32 probe key against an int64 dim key, a null probe key (never
matches), a key absent from the dim, an empty batch, a zero-row dim and
a duplicate dim key (refused)."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.state.broadcast import (
    broadcast_lookup,
    lookup_batch,
)

FACT = pa.table({
    "k": pa.array([1, 2, 3, None, 7, 2, 4], pa.int32()),
    "v": pa.array([10, 20, 30, 40, 50, 60, 70], pa.int64()),
})
DIM = pa.table({
    "dk": pa.array([4, 2, 1, 3, 9], pa.int64()),
    "name": ["four", "two", None, "three", "nine"],
    "w": [4.5, 2.5, 1.5, 3.5, 9.5],
})
SQL = {
    "inner": "SELECT f.*, d.name, d.w FROM f JOIN d ON f.k = d.dk",
    "left": "SELECT f.*, d.name, d.w FROM f LEFT JOIN d ON f.k = d.dk",
    "anti": "SELECT f.* FROM f WHERE NOT EXISTS "
            "(SELECT 1 FROM d WHERE d.dk = f.k)",
}


def _fact_ds():
    import ray.data

    return ray.data.from_arrow([FACT.slice(0, 3), FACT.slice(3)])


def _collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def _want(sql: str, dim: pa.Table) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("f", FACT)
    con.register("d", dim)
    return con.sql(sql).arrow().to_pandas()


def _same(got: pa.Table, want: pd.DataFrame) -> None:
    g = got.to_pandas().sort_values("v").reset_index(drop=True)
    w = want.sort_values("v").reset_index(drop=True)
    assert list(g.columns) == list(w.columns)
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


@pytest.mark.parametrize("how", ["inner", "left", "anti"])
def test_lookup_matches_duckdb(ray_session, how):
    cols = [] if how == "anti" else ["name", "w"]
    got = _collect(broadcast_lookup(_fact_ds(), DIM, "k", "dk", cols, how))
    _same(got, _want(SQL[how], DIM))
    assert got.schema.field("k").type == pa.int32()


def test_semi_join_is_exists(ray_session):
    got = _collect(broadcast_lookup(_fact_ds(), DIM, "k", "dk", []))
    _same(got, _want("SELECT f.* FROM f WHERE EXISTS "
                     "(SELECT 1 FROM d WHERE d.dk = f.k)", DIM))
    assert 40 not in got.column("v").to_pylist()  # the null key


@pytest.mark.parametrize("how", ["inner", "left", "anti"])
def test_zero_row_dim(ray_session, how):
    empty = DIM.slice(0, 0)
    cols = [] if how == "anti" else ["name", "w"]
    got = _collect(broadcast_lookup(_fact_ds(), empty, "k", "dk", cols, how))
    want = _want(SQL[how], empty)
    assert got.num_rows == len(want) == (0 if how == "inner" else 7)
    if how == "left":
        assert got.schema.field("name").type == pa.string()
        assert got.schema.field("w").type == pa.float64()
        assert got.column("name").null_count == 7
    if got.num_rows:
        _same(got, want)


def test_duplicate_dim_key_raises(ray_session):
    dup = pa.concat_tables([DIM, DIM.slice(0, 1)])
    with pytest.raises(ValueError, match="not unique"):
        broadcast_lookup(_fact_ds(), dup, "k", "dk", ["name"])


@pytest.mark.parametrize("how", ["inner", "left", "anti"])
def test_empty_batch_keeps_schema(how):
    """Ray skips empty blocks, so the batch kernel is pinned directly."""
    cols = [] if how == "anti" else ["name", "w"]
    dim = DIM.select(["dk", *cols])
    got = lookup_batch(FACT.slice(0, 0), dim, "k", cols, how)
    assert got.num_rows == 0
    assert got.schema == pa.schema(list(FACT.schema) + [
        DIM.schema.field(c) for c in cols])
