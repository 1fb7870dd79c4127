"""``tools/serve_ops.py`` on a synthetic serve_mixed log."""

from __future__ import annotations

import importlib
import pathlib
import sys

TOOLS = str(pathlib.Path(__file__).resolve().parent.parent / "tools")


def _serve_ops():
    if TOOLS not in sys.path:
        sys.path.insert(0, TOOLS)
    return importlib.import_module("serve_ops")


def test_serve_ops_maps_ops_by_index(tmp_path, capsys):
    so = _serve_ops()
    seed, n = 5, 60
    names = so.op_names(seed, n)
    assert len(set(names)) == len(so.session.OP_MIX)
    ms = {op: 10.0 * (k + 1) for k, (op, _) in enumerate(so.session.OP_MIX)}
    raised, gated = 4, 9  # one op raised, one failed its gate: no timing
    lines = ["Ray noise", "op 0 done? no"]
    for i, op in enumerate(names):
        if i == raised:
            lines.append(f"op {i} failed: RuntimeError('x')")
        elif i != gated:
            lines.append(f"op {i}: {ms[op] / 1000:.4f} s")
    log = tmp_path / f"serve_mixed-s{seed}-t0.log"
    log.write_text("\n".join(lines) + "\n")

    secs, seen = so.parse(log.read_text().splitlines())
    assert seen == n and len(secs) == n - 2
    rows = {r["op"]: r for r in so.split(secs, seen, names)}
    for op in ms:
        passed = [i for i, name in enumerate(names)
                  if name == op and i not in (raised, gated)]
        r = rows[op]
        assert r["n"] == len(passed)
        assert abs(r["p50_ms"] - ms[op]) < 1e-9
        assert abs(r["p90_ms"] - ms[op]) < 1e-9
        assert abs(r["sum_ms"] - ms[op] * len(passed)) < 1e-6
    assert rows[names[raised]]["failed"] >= 1
    assert sum(r["failed"] for r in rows.values()) == 2

    assert so.main([str(log)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[:2] == ["op", "n"] and len(out) == 1 + len(ms)
