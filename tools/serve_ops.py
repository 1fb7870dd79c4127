"""Split a serve_mixed session log into per-op timings. Usage:

    python tools/serve_ops.py .kgbench_out/serve_mixed-s7-t0.log [--seed N] [--toy]

The timed loop logs one ``op <i>: <seconds> s`` line per passed op, and
only its index ``i``. The index maps to the op's name through
``kgbench.session.schedule``, the seeded draw the run itself made, so
an op that failed (and so logged no timing) does not shift the names of
the ops after it. The seed comes from the log's name (``-s<seed>-``)
unless ``--seed`` gives it; ``--toy`` is for a log of a ``--toy`` run.

Prints one line per op name, the largest total first: passed ops, p50
and p90 (nearest rank, as kgbench reports) and the sum, in ms, and the
ops that logged no timing below the last index seen.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from kgbench import session  # noqa: E402

OP_LINE = re.compile(r"^op (\d+): ([0-9.]+) s$")
FAILED_LINE = re.compile(r"^op (\d+) failed: ")


def parse(lines) -> tuple[dict[int, float], int]:
    """(seconds per passed op index, count of op indices the log names:
    the last index seen + 1)."""
    secs: dict[int, float] = {}
    last = -1
    for line in lines:
        m = OP_LINE.match(line)
        if m:
            secs[int(m.group(1))] = float(m.group(2))
            last = max(last, int(m.group(1)))
        else:
            m = FAILED_LINE.match(line)
            if m:
                last = max(last, int(m.group(1)))
    return secs, last + 1


def op_names(seed: int, n: int, toy: bool = False) -> list[str]:
    """The names of a serve_mixed run's first ``n`` ops."""
    size = session.TOY if toy else session.FULL
    pools = {op: [None] * size["text_queries"] for op, _ in session.OP_MIX}
    pools["document_chain"] = [None] * size["chain_queries"]
    pools["relationship_search"] = [None] * size["entity_queries"]
    plan = session.schedule(SimpleNamespace(args=SimpleNamespace(seed=seed)),
                            pools)
    return [next(plan)[0] for _ in range(n)]


def split(secs: dict[int, float], n: int, names: list[str]) -> list[dict]:
    """Per op name: passed ops, p50 / p90 / sum in ms and the ops with no
    timing, the largest sum first."""
    by_op: dict[str, list[float]] = {}
    missing: dict[str, int] = {}
    for i in range(n):
        if i in secs:
            by_op.setdefault(names[i], []).append(secs[i] * 1000)
        else:
            missing[names[i]] = missing.get(names[i], 0) + 1
    rows = [{"op": op, "n": len(ms), "p50_ms": session.percentile(ms, 0.5),
             "p90_ms": session.percentile(ms, 0.9), "sum_ms": sum(ms),
             "failed": missing.get(op, 0)} for op, ms in by_op.items()]
    rows += [{"op": op, "n": 0, "p50_ms": None, "p90_ms": None,
              "sum_ms": 0.0, "failed": k}
             for op, k in missing.items() if op not in by_op]
    return sorted(rows, key=lambda r: (-r["sum_ms"], r["op"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("log")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)
    seed = args.seed
    if seed is None:
        m = re.search(r"-s(\d+)-", os.path.basename(args.log))
        if not m:
            ap.error("no -s<seed>- in the log's name: pass --seed")
        seed = int(m.group(1))
    with open(args.log, errors="replace") as f:
        secs, n = parse(line.rstrip("\n") for line in f)
    rows = split(secs, n, op_names(seed, n, args.toy))
    total = sum(r["sum_ms"] for r in rows) or 1.0

    def ms(v):
        return "-" if v is None else f"{v:.1f}"

    print(f"{'op':<22}{'n':>6}{'p50_ms':>9}{'p90_ms':>9}{'sum_ms':>10}"
          f"{'share':>7}{'failed':>8}")
    for r in rows:
        print(f"{r['op']:<22}{r['n']:>6}{ms(r['p50_ms']):>9}"
              f"{ms(r['p90_ms']):>9}{r['sum_ms']:>10.1f}"
              f"{r['sum_ms'] / total:>7.1%}{r['failed']:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
