"""The entry's KG checkpoint cache is keyed by the scale dir and by a
digest of the code, shared with ``tools/check_contract.py``."""

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_kg_dir_keyed_by_code_digest(monkeypatch):
    import __ray_entry__ as E

    monkeypatch.setattr(E, "_code_digest", lambda: "a" * 32)
    a = E._kg_dir("/data/sf0.01")
    assert E._kg_dir("/data/sf0.01") == a
    assert E._kg_dir("/data/sf0.1") != a
    monkeypatch.setattr(E, "_code_digest", lambda: "b" * 32)
    assert E._kg_dir("/data/sf0.01") != a


def test_code_digest_shared_with_contract_tool():
    import __ray_entry__ as E

    from nlp_graphrag_with_qdrant_and_neo4j_ray.state.checkpoint import (
        source_digest,
    )

    entry = str(ROOT / "__ray_entry__.py")
    tool = str(ROOT / "tools" / "check_contract.py")
    assert E._code_digest() == source_digest(entry)
    sys.path.insert(0, os.path.dirname(tool))
    try:
        import check_contract
    finally:
        sys.path.remove(os.path.dirname(tool))
    # the tool adds its own file to the entry's digest
    assert check_contract.source_digest() == source_digest(entry, tool)
    assert check_contract.source_digest() != E._code_digest()


def test_entry_caches_keyed_by_code_digest(monkeypatch, tmp_path):
    """The ANN index dir of the four embedding entries and the WARC/WET
    fixture are keyed by the code as well as the scale dir, so other
    code never serves the artifacts of older k-means, PQ or WARC
    encoders; a rewritten source table rebuilds the fixture."""
    import tempfile

    import __ray_entry__ as E
    import pyarrow as pa
    import pyarrow.parquet as pq

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.table({"vec_id": [0], "embedding": [[1.0, 0.0]]}),
                   sf / "embeddings.parquet")
    docs = pa.table({"doc_id": [0, 1], "text": ["a b", "c d"],
                     "lang": ["en", "de"], "source": ["s", "s"]})
    pq.write_table(docs, sf / "documents.parquet")

    monkeypatch.setattr(E, "_code_digest", lambda: "a" * 32)
    index_dir, fp = E._emb_index(str(sf))
    assert index_dir.startswith(str(tmp_path))
    assert E._emb_index(str(sf)) == (index_dir, fp)
    wet = E._warc_fixture(str(sf), "wet")
    assert all(os.path.exists(p) for p in wet)
    assert os.path.dirname(E._warc_fixture(str(sf), "warc")[0]) != \
        os.path.dirname(wet[0])
    built = os.stat(wet[0]).st_mtime_ns
    assert E._warc_fixture(str(sf), "wet") == wet
    assert os.stat(wet[0]).st_mtime_ns == built      # warm: kept

    monkeypatch.setattr(E, "_code_digest", lambda: "b" * 32)
    other_dir, other_fp = E._emb_index(str(sf))
    assert other_dir != index_dir and other_fp == fp
    assert os.path.dirname(E._warc_fixture(str(sf), "wet")[0]) != \
        os.path.dirname(wet[0])

    monkeypatch.setattr(E, "_code_digest", lambda: "a" * 32)
    pq.write_table(docs.slice(0, 1), sf / "documents.parquet")
    assert E._warc_fixture(str(sf), "wet") == wet
    assert os.stat(wet[0]).st_mtime_ns != built      # stale: rebuilt
