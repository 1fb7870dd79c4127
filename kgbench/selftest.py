"""Toy-size self-test of the benchmark.

    python3 kgbench/selftest.py

Runs every workload of run.py (update_merge too) once untraced and once
traced at toy input sizes and asserts that each run exits 0, passes its
correctness gates, prints every metric BENCHMARK.json names for that mode,
and leaves no Ray or benchmark process behind. It also checks the
schema-hash warning counter against a known emitter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from kgbench import procs  # noqa: E402
from kgbench.run import WORKLOADS  # noqa: E402


def ours() -> set[int]:
    """Live processes that look like Ray or this benchmark."""
    out = set()
    for pid in procs.all_pids():
        st = procs.stat_fields(pid)
        if pid == os.getpid() or st is None or st[0] == "Z":
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if "ray" in cmd or "kgbench" in cmd:
            out.add(pid)
    return out


def check_warning_count() -> list[str]:
    """``log.schema_hash_warnings`` counts the warning from the module
    that emits it in the driver and from a worker's log file, and
    nothing else."""
    import logging
    import tempfile

    from kgbench.session import SCHEMA_HASH_WARNING, SchemaHashWarnings

    emitter = logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow")
    line = f"{SCHEMA_HASH_WARNING} (for deduplication): unhashable type: 'dict'"
    with tempfile.TemporaryDirectory(dir=HERE) as logs:
        worker_log = os.path.join(logs, "worker-abc-01000000-123.err")
        with open(worker_log, "w") as f:
            f.write(line + "\n")  # before the block: not counted
        with SchemaHashWarnings(logs) as counter:
            with open(worker_log, "a") as f:
                f.write(f"{line}\nunrelated line\n{line}\n")
            with open(os.path.join(logs, "raylet.out"), "w") as f:
                f.write(line + "\n")  # not a worker log
            emitter.warning(line)
            emitter.warning("another warning")
    if (counter.driver, counter.workers) != (1, 2):
        return [f"schema-hash warning count: driver {counter.driver} (want 1), "
                f"workers {counter.workers} (want 2)"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    before = ours()
    problems = check_warning_count()
    for w in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"]
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            tag = f"{w} trace={trace}"
            left = ours() - before
            if left:
                problems.append(f"{tag}: processes left: {sorted(left)}")
            if r.returncode != 0:
                problems.append(f"{tag}: exit {r.returncode}: {r.stderr[-400:]}")
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            missing = names[trace] - set(res["metrics"])
            extra = set(res["metrics"]) - names[trace]
            if missing or extra:
                problems.append(f"{tag}: missing {sorted(missing)} extra {sorted(extra)}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{tag}: correctness gates failed")
            print(f"{tag}: ok={not problems} attempted={res['attempted']}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
