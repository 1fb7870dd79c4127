"""Row-failure policy: a poisoned row must be skipped + recorded, never
batch-fatal (reference skip-and-continue, cli/main.py:150-154; VERDICT r1
missing #4)."""

import datetime

import pyarrow as pa
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.config import PipelineConfig
from nlp_graphrag_with_qdrant_and_neo4j_ray.schemas import PAGES
from nlp_graphrag_with_qdrant_and_neo4j_ray.state.quarantine import (
    QuarantineRecorder,
    quarantined,
)

OUT = pa.schema([("row_id", pa.string()), ("double", pa.int64())])


def _fn(batch: pa.Table) -> pa.Table:
    vals = batch.column("v").to_pylist()
    if any(v is None for v in vals):
        raise ValueError("poisoned")
    return pa.table(
        {
            "row_id": batch.column("row_id"),
            "double": pa.array([v * 2 for v in vals], pa.int64()),
        },
        schema=OUT,
    )


def test_quarantined_isolates_poisoned_rows(tmp_path):
    rec = QuarantineRecorder(str(tmp_path), "unit")
    safe = quarantined(_fn, "row_id", OUT, rec)
    batch = pa.table(
        {
            "row_id": pa.array([f"r{i}" for i in range(8)]),
            "v": pa.array([0, 1, None, 3, 4, None, 6, 7], pa.int64()),
        }
    )
    out = safe(batch)
    assert out.column("row_id").to_pylist() == ["r0", "r1", "r3", "r4", "r6", "r7"]
    assert out.column("double").to_pylist() == [0, 2, 6, 8, 12, 14]

    import pyarrow.parquet as pq

    q = pq.read_table(str(tmp_path / "quarantine"))
    assert sorted(q.column("row_id").to_pylist()) == ["r2", "r5"]
    assert all("poisoned" in e for e in q.column("error").to_pylist())


def test_quarantined_all_rows_poisoned(tmp_path):
    safe = quarantined(_fn, "row_id", OUT, QuarantineRecorder(str(tmp_path), "u2"))
    batch = pa.table(
        {"row_id": pa.array(["a", "b"]), "v": pa.array([None, None], pa.int64())}
    )
    out = safe(batch)
    assert out.num_rows == 0
    assert out.schema == OUT  # stable schema even with zero survivors


def test_quarantined_happy_path_untouched():
    calls = []

    def counting(batch):
        calls.append(batch.num_rows)
        return _fn(batch)

    safe = quarantined(counting, "row_id", OUT, None)
    batch = pa.table(
        {"row_id": pa.array(["a", "b"]), "v": pa.array([1, 2], pa.int64())}
    )
    assert safe(batch).num_rows == 2
    assert calls == [2]  # exactly one vectorized call, no bisecting


@pytest.mark.usefixtures("ray_session")
def test_build_kg_survives_poisoned_page(tmp_path):
    """End-to-end: one page with html=NULL (decode raises) must not kill
    the run; every other page lands, the skip is recorded."""
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import build_kg
    from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.pages import pages_dataset

    good = pages_dataset(20, "poisontest").take_all()
    ts = datetime.datetime(2025, 3, 28)
    rows = pa.table(
        {
            "url": pa.array([r["url"] for r in good] + ["bad://page"]),
            "warc_ts": pa.array([r["warc_ts"] for r in good] + [ts],
                                pa.timestamp("us")),
            "html": pa.array([r["html"] for r in good] + [None], pa.binary()),
            "text": pa.array([r["text"] for r in good] + ["x"],
                             pa.large_string()),
            "lang": pa.array([r["lang"] for r in good] + ["en"]),
        },
        schema=PAGES,
    )
    out = str(tmp_path / "kg")
    tables = build_kg(lambda: ray.data.from_arrow(rows), out,
                      PipelineConfig(), resume=False, lineage=True)
    docs = tables["documents"].take_all()
    n_en = sum(1 for r in good if r["lang"] == "en")
    assert len(docs) == n_en                    # run completed minus the skip
    assert all(d["url"] != "bad://page" for d in docs)

    q = ray.data.read_parquet(f"{out}/quarantine").take_all()
    # extract runs once per page, so the skip is recorded once
    assert sum(1 for r in q if r["row_id"] == "bad://page"
               and r["stage"] == "extract") == 1


def test_quarantined_systemic_failure_raises(tmp_path):
    """ADVICE r2: a failure rate above the guard (bad config / missing
    dep) must FAIL the stage with the original error, not quarantine its
    way to an empty-but-successful checkpoint."""
    rec = QuarantineRecorder(str(tmp_path), "sys")
    safe = quarantined(_fn, "row_id", OUT, rec)
    n = 1000
    vals = [None if i % 3 == 0 else i for i in range(n)]  # ~33% poisoned
    batch = pa.table(
        {"row_id": pa.array([f"r{i}" for i in range(n)]),
         "v": pa.array(vals, pa.int64())}
    )
    with pytest.raises(RuntimeError, match="systemic stage failure"):
        safe(batch)


def test_quarantine_one_file_per_batch(tmp_path):
    """ADVICE r2: failures buffer into ONE parquet file per batch, not
    one per row."""
    import os

    rec = QuarantineRecorder(str(tmp_path), "buf")
    safe = quarantined(_fn, "row_id", OUT, rec, max_failure_rate=0.5)
    n = 40
    vals = [None if i % 4 == 0 else i for i in range(n)]  # 10 of 40 fail
    batch = pa.table(
        {"row_id": pa.array([f"r{i}" for i in range(n)]),
         "v": pa.array(vals, pa.int64())}
    )
    out = safe(batch)
    assert out.num_rows == 30
    files = os.listdir(str(tmp_path / "quarantine"))
    assert len(files) == 1

    import pyarrow.parquet as pq

    q = pq.read_table(str(tmp_path / "quarantine"))
    assert q.num_rows == 10
