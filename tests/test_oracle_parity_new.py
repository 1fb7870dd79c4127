"""Driver-mimic oracle parity for the closing-session queries: each
runs at sf0.001 and must match its own oracle_sql() in DuckDB
(row count + sorted-column value equality), the comparison the graft
driver applies."""

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem "
          "events documents embeddings").split()

NEW_ORACLED = [
    "events_gap_sessions",
    "events_session_ids",
    "events_session_error_windows",
    "events_session_conversions",
    "events_late_arrivals",
    "docs_reservoir_per_source",
    "docs_weighted_sample_per_source",
    "lineitem_price_winsorized",
    "docs_novelty_by_batch",
    "docs_skipgram_pairs",
    "docs_skipgram_negatives",
    "embedding_hard_negatives",
    "embedding_dim_truncation_recall",
    "embedding_knn_ndcg",
    "docs_readability",
    "docs_lang_temperature_weights",
    "customer_rfm_segments",
    "docs_containment_pairs",
    "events_burstiness",
    "docs_trigram_entropy",
    "events_interarrival_quantiles",
    "docs_hapax_ratio",
    "docs_mixing_schedule",
    "docs_type_token_ratio",
    "orders_mom_growth",
]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{SF}/{t}.parquet')")
    return con


@pytest.mark.parametrize("name", NEW_ORACLED)
def test_matches_oracle(ray_session, oracle_con, name):
    import __ray_entry__ as E

    got = _canon(E.queries()[name](SF).to_pandas())
    want = _canon(oracle_con.sql(E.oracle_sql()[name]).df())
    assert len(got) == len(want), (len(got), len(want))
    assert list(got.columns) == list(want.columns)
    if len(got):
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=False, rtol=1e-9)


def _duckdb_round(x, ndigits):
    return duckdb.sql(f"SELECT round({x!r}::DOUBLE, {ndigits})").fetchone()[0]


@pytest.mark.parametrize("x,ndigits", [
    (0.5, 0), (2.5, 0), (-2.5, 0), (0.125, 2), (-0.125, 2),
    # x * 10**n is integral but x is one ulp off the divided-back value
    (303.46999999999997, 6), (317.14 + 240.13 + 791.89, 2),
    # negative ties round away from zero, not up as floor(y + 0.5) does
    (-0.5, 0), (-1.5, 0), (-0.375, 2), (-0.0000005, 6),
])
def test_round_helper_rounds_halves_as_duckdb(x, ndigits):
    """The one rounding rule, ``sql_round``, gives DuckDB's ``round()``
    bit for bit: an exact binary half rounds away from zero (``np.round``
    rounds it to even) and the scaled value is rounded even when it is
    already integral (``pc.round`` then returns ``x`` unchanged)."""
    import numpy as np
    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.rounding import (
        sql_round,
    )

    want = _duckdb_round(x, ndigits)
    assert np.float64(sql_round(x, ndigits)).tobytes() == \
        np.float64(want).tobytes()
    arr = sql_round(np.array([x, np.nan]), ndigits)
    assert arr[0] == want and np.isnan(arr[1])
    got = sql_round(pa.chunked_array([[x, None]]), ndigits)
    assert got.type == pa.float64() and got.to_pylist() == [want, None]


def test_round_helper_non_finite_and_nulls():
    """NaN and +-inf come back unchanged, as in DuckDB; None and Arrow
    nulls stay null; a pandas Series gives a float64 ndarray."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.rounding import (
        sql_round,
    )

    for v in ("'nan'", "'inf'", "'-inf'"):
        want = duckdb.sql(f"SELECT round({v}::DOUBLE, 2)").fetchone()[0]
        got = sql_round(float(v.strip("'")), 2)
        assert (np.isnan(got) and np.isnan(want)) or got == want
    assert sql_round(None, 2) is None
    assert sql_round(1e308, 2) == 1e308  # scaled value overflows: x back
    arr = sql_round(pa.array([0.125, None, -0.125, float("inf")]), 2)
    assert arr.type == pa.float64() and arr.null_count == 1
    assert arr.to_pylist() == [0.13, None, -0.13, float("inf")]
    ser = sql_round(pd.Series([2.5, None]), 0)
    assert isinstance(ser, np.ndarray) and ser.dtype == np.float64
    assert ser[0] == 3.0 and np.isnan(ser[1])


def test_round_helper_bulk_matches_duckdb():
    """Seeded bulk check, bit for bit against DuckDB ``round()`` at
    n = 0, 2 and 6: float sums of 2-decimal prices (the engine's
    money columns), small-integer ratios, and exact decimal ties."""
    import numpy as np

    from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.rounding import (
        sql_round,
    )

    rng = np.random.default_rng(20241019)
    n = 350_000
    sums = (rng.integers(1, 10_000_000, (n, 5)) / 100.0).sum(axis=1)
    ratios = (rng.integers(-10_000, 10_000, n)
              / rng.integers(1, 1_000, n).astype(np.float64))
    ties = (rng.integers(-10**9, 10**9, n) / 2.0
            / 10.0 ** rng.integers(0, 7, n))
    x = np.concatenate([sums, -sums, ratios, ties])
    assert len(x) >= 1_000_000
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"x": x}))
    for ndigits in (0, 2, 6):
        want = con.sql(f"SELECT round(x, {ndigits}) AS r FROM t").df()[
            "r"].to_numpy()
        got = sql_round(x, ndigits)
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert not len(bad), (ndigits, x[bad[:5]], got[bad[:5]],
                              want[bad[:5]])


def test_late_arrivals_exact_for_large_event_ids(ray_session, tmp_path):
    """events_late_arrivals' arrival jitter (event_id * 2654435761) %
    10_800_000_000 is exact, as the oracle's HUGEINT math is: a uint64
    product wraps from event_id 6,949,403,088 on."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    n = 400
    step = 22_000_000_000_000_007  # ids reach 8.8e18
    ids = 6_949_403_088 + np.arange(n, dtype=np.int64) * step
    ts = (np.datetime64("2024-01-01T00:00:00", "us")
          + np.arange(n) * np.timedelta64(3, "m"))
    pq.write_table(pa.table({"event_id": ids, "ts": ts,
                             "user_id": np.arange(n, dtype=np.int64) % 4}),
                   tmp_path / "events.parquet")
    got = _canon(E.queries()["events_late_arrivals"](str(tmp_path))
                 .to_pandas())
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM read_parquet("
                f"'{tmp_path}/events.parquet')")
    want = _canon(con.sql(E.oracle_sql()["events_late_arrivals"]).df())
    assert len(got) == len(want) > 0
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-9)


def _check_contract():
    """``tools/check_contract.py``, whose ``to_pandas`` + ``canon`` are
    the contract comparison."""
    import importlib
    import pathlib
    import sys

    tools = str(pathlib.Path(__file__).resolve().parent.parent / "tools")
    if tools not in sys.path:
        sys.path.insert(0, tools)
    return importlib.import_module("check_contract")


def test_q19_no_qualifying_row_is_null(ray_session, oracle_con):
    """No sf0.001 lineitem meets Q19's disjunction, and SUM over no row
    is NULL in SQL: the revenue is NULL, not 0.0."""
    import __ray_entry__ as E

    cc = _check_contract()
    got = cc.canon(cc.to_pandas(E.queries()["q19_disjunctive_revenue"](SF)))
    want = cc.canon(oracle_con.sql(
        E.oracle_sql()["q19_disjunctive_revenue"]).df())
    assert want["revenue"].isna().all() and len(want) == 1
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-9)


@pytest.mark.parametrize("name", ["q6_forecast_revenue", "q14_promo_revenue",
                                  "q17_small_quantity_revenue"])
def test_empty_sum_is_null(ray_session, tmp_path, name):
    """No lineitem row qualifies (shipped in 1990, no discount, no
    Brand#23 or PROMO part): SUM over no row is NULL in SQL, and so is
    each entry's one value, not 0.0."""
    import datetime

    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    pq.write_table(pa.table({
        "l_partkey": pa.array([1, 2, 3, 1], pa.int64()),
        "l_quantity": [5.0, 10.0, 1.0, 40.0],
        "l_extendedprice": [100.0, 200.0, 300.0, 400.0],
        "l_discount": [0.0, 0.0, 0.0, 0.0],
        "l_shipdate": pa.array([datetime.datetime(1990, 1, d)
                                for d in (1, 2, 3, 4)], pa.timestamp("us")),
    }), tmp_path / "lineitem.parquet")
    pq.write_table(pa.table({
        "p_partkey": pa.array([1, 2, 3], pa.int64()),
        "p_brand": ["Brand#11", "Brand#12", "Brand#13"],
        "p_type": ["STANDARD", "SMALL", "LARGE"],
    }), tmp_path / "part.parquet")
    cc = _check_contract()
    got = cc.canon(cc.to_pandas(E.queries()[name](str(tmp_path))))
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet("
                    f"'{tmp_path}/{t}.parquet')")
    want = cc.canon(con.sql(E.oracle_sql()[name]).df())
    assert len(want) == 1 and want.iloc[:, 0].isna().all()
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("heavy", [0.0, 100.0])
def test_q11_result_keeps_columns(ray_session, tmp_path, heavy):
    """With 3,000 equal parts none clears 0.05% of the total quantity:
    the result still has its two columns (a zero-row Dataset loses them
    in ``to_pandas()``). One heavy part clears the bar alone."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    n = 3_000
    qty = np.ones(n)
    qty[0] += heavy
    pq.write_table(pa.table({"l_partkey": np.arange(n, dtype=np.int64),
                             "l_quantity": qty}),
                   tmp_path / "lineitem.parquet")
    got = _canon(E.queries()["q11_important_parts"](str(tmp_path))
                 .to_pandas())
    con = duckdb.connect()
    con.execute("CREATE VIEW lineitem AS SELECT * FROM read_parquet("
                f"'{tmp_path}/lineitem.parquet')")
    want = _canon(con.sql(E.oracle_sql()["q11_important_parts"]).df())
    assert list(got.columns) == list(want.columns) == ["l_partkey", "value"]
    assert len(got) == len(want) == (1 if heavy else 0)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_tumbling_counts_match_oracle_at_sf01(ray_session):
    """events_tumbling_counts at sf0.1 (100 k events) passes the contract
    comparison. Its window sums are rounded as DuckDB's ``round()``
    does; ``pc.round`` left 698 of them one ulp off, and the canonical
    sort then paired rows of different windows."""
    import __ray_entry__ as E

    sf = "/root/testdata/sf0.1"
    cc = _check_contract()
    got = cc.canon(E.queries()["events_tumbling_counts"](sf).to_pandas())
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = cc.canon(con.sql(E.oracle_sql()["events_tumbling_counts"]).df())
    assert len(got) == len(want) > 0
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-9)
