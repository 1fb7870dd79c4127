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


@pytest.mark.parametrize("x,ndigits", [(0.5, 0), (2.5, 0), (-2.5, 0),
                                       (0.125, 2), (-0.125, 2)])
def test_round_helper_rounds_halves_as_duckdb(x, ndigits):
    """The queries' one rounding helper rounds an exact binary half away
    from zero, as the oracles' DuckDB ``round()`` does (``np.round``
    rounds it to even)."""
    import numpy as np

    import __ray_entry__ as E

    want = duckdb.sql(f"SELECT round({x}::DOUBLE, {ndigits})").fetchone()[0]
    assert E._round(x, ndigits) == want
    assert E._round(np.array([x, np.nan]), ndigits)[0] == want
    assert np.isnan(E._round(np.array([x, np.nan]), ndigits)[1])


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
