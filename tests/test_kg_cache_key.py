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
