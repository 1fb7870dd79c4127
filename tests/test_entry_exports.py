"""The entry's format round-trips export the documents table once and
read it back. An export killed part-way leaves files in its output dir
and no marker; the rerun must publish a fresh export, not add a second
full set next to the partial one and read back duplicate rows."""

import json
import os

import pyarrow.compute as pc
import pyarrow.csv as pacsv
import pyarrow.parquet as pq
from test_kg_local_serve import SF  # the sf0.001 test scale


def _rows(rows: list[dict], cols: list[str]) -> list[tuple]:
    return sorted(tuple(r[c] for c in cols) for r in rows)


def test_killed_exports_are_redone(ray_session, monkeypatch, tmp_path):
    import __ray_entry__ as E

    monkeypatch.setattr(E, "_kg_dir", lambda sf_dir: str(tmp_path))
    docs = pq.read_table(os.path.join(SF, "documents.parquet"))
    en_docs = docs.filter(pc.equal(docs["lang"], "en"))
    # what a killed export left: part of the rows, no marker
    (tmp_path / "jsonl-src").mkdir()
    with open(tmp_path / "jsonl-src" / "stray.json", "w") as f:
        for r in docs.slice(0, 5).select(
                ["doc_id", "text", "lang", "source"]).to_pylist():
            f.write(json.dumps(r) + "\n")
    en = tmp_path / "hive-docs" / "lang=en"
    en.mkdir(parents=True)
    pq.write_table(en_docs.slice(0, 5).select(["doc_id", "text"]),
                   en / "stray.parquet")
    (tmp_path / "csv-src").mkdir()
    pacsv.write_csv(docs.slice(0, 5).select(["doc_id", "lang", "n_chars"]),
                    tmp_path / "csv-src" / "stray.csv")

    qs = E.queries()
    cols = ["doc_id", "text", "lang", "source"]
    got = qs["docs_from_jsonl_roundtrip"](SF).take_all()
    assert _rows(got, cols) == _rows(docs.to_pylist(), cols)
    cols = ["doc_id", "text", "lang"]
    got = qs["docs_hive_partition_pruned"](SF).take_all()
    assert _rows(got, cols) == _rows(en_docs.to_pylist(), cols)
    cols = ["doc_id", "lang", "n_chars"]
    got = qs["docs_from_csv_roundtrip"](SF).take_all()
    assert _rows(got, cols) == _rows(docs.to_pylist(), cols)
    for name in ("jsonl-src", "hive-docs", "csv-src"):
        assert os.path.exists(tmp_path / name / "_SUCCESS")
