"""``tools/check_contract.py``'s resume loop, with stand-in workers that
start no Ray session."""

from __future__ import annotations

import importlib
import json
import pathlib
import sys

import pytest

TOOLS = str(pathlib.Path(__file__).resolve().parent.parent / "tools")


def _check_contract():
    if TOOLS not in sys.path:
        sys.path.insert(0, TOOLS)
    return importlib.import_module("check_contract")


def _lines(path) -> list[dict]:
    return [json.loads(x) for x in path.read_text().splitlines()]


def _results(cc, tmp_path, *recs):
    path = tmp_path / "sf.jsonl"
    cc.open_results(str(path))
    for r in recs:
        cc.append(str(path), r)
    return path


def _workers(monkeypatch, cc, code: str, limit: int = 5) -> list:
    """Stand in ``python -c code`` (argv[1] = results path) for the
    worker; fail the test past ``limit`` starts instead of looping."""
    starts = []

    def cmd(sf_dir, path):
        starts.append(path)
        assert len(starts) <= limit, "run() keeps starting workers"
        return [sys.executable, "-c", code, path]

    monkeypatch.setattr(cc, "worker_cmd", cmd)
    return starts


def test_worker_that_records_nothing_stops_the_run(tmp_path, monkeypatch):
    """A STARTED line left by a killed run, then a worker that fails
    before its first entry: the run stops with its exit code."""
    cc = _check_contract()
    path = _results(cc, tmp_path, {"name": "q1", "status": cc.STARTED})
    before = path.read_text()
    starts = _workers(monkeypatch, cc, "raise SystemExit(2)")
    assert cc.run("sf", str(path)) == 2
    assert len(starts) == 1
    assert path.read_text() == before


def test_entry_that_kills_two_sessions_is_a_crash(tmp_path, monkeypatch):
    cc = _check_contract()
    path = _results(cc, tmp_path, {"name": "q0", "status": cc.STARTED},
                    {"name": "q0", "status": "OK"})
    # the worker skips recorded entries, as the real one does
    code = f"""
import json, sys
sys.path.insert(0, {TOOLS!r})
import check_contract as cc
final, _ = cc.load(sys.argv[1])
if "q1" in final:
    raise SystemExit(0)
cc.append(sys.argv[1], {{"name": "q1", "status": cc.STARTED}})
raise SystemExit(1)
"""
    starts = _workers(monkeypatch, cc, code)
    assert cc.run("sf", str(path)) == 0
    assert len(starts) == 3
    final, started = cc.load(str(path))
    assert final["q1"]["status"] == "SESSION CRASH (exit 1)"
    assert started == {"q0": 1, "q1": 2}


def test_resume_refuses_records_of_other_code(tmp_path):
    cc = _check_contract()
    path = _results(cc, tmp_path, {"name": "q1", "status": "OK"})
    cc.open_results(str(path))  # same code: resumes
    assert _lines(path)[0] == {"source": cc.source_digest()}
    path.write_text(json.dumps({"source": "0" * 32}) + "\n"
                    + json.dumps({"name": "q1", "status": "OK"}) + "\n")
    with pytest.raises(SystemExit, match="delete it to start over"):
        cc.open_results(str(path))
