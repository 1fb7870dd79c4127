"""KG-engine benchmark: one workload per call, in a fresh process session.

    python3 kgbench/run.py --workload build_crawl --seed 1 --seconds 30 --trace 0

Workloads: ``build_crawl`` (full build_kg over a Parquet directory of
crawl pages) and ``serve_mixed`` (closed-loop GraphRAG queries), the two
BENCHMARK.json lists, and ``update_merge`` (increment build + merge_kg +
publish into a base KG), which runs the same way but is left out of
BENCHMARK.json to give the other two longer runs. With
``--trace 0`` the last stdout line is the result JSON with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
walk through every layer. The line before it is a report with the host,
the inputs and the workload's own metric names. See kgbench/README.md.

This process never starts Ray. It runs ``session.py`` as a child in a new
process session, keeps the child's logs off stdout, and on exit, error,
timeout, SIGTERM or SIGINT stops every process left in that session (and
only that session) before it returns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from kgbench import procs  # noqa: E402

PACKAGE = "nlp_graphrag_with_qdrant_and_neo4j_ray"
CHILD_TIMEOUT_S = 140.0
WORKLOADS = ("build_crawl", "update_merge", "serve_mixed")


def parse(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy input sizes (the self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "pipelines", "kg.py")):
        print(f"kgbench: package {PACKAGE} not found under {ROOT}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(ROOT, ".kgbench_work", str(os.getpid()))
    out = os.path.join(ROOT, ".kgbench_out")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(work, "session.log")
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"),
               PYTHONPATH=os.pathsep.join(
                   p for p in (ROOT, os.environ.get("PYTHONPATH")) if p))
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work] + (["--toy"] if args.toy else [])

    child = None
    stopped = []

    def on_signal(signum, _frame):
        stopped.append(signum)
        if child is not None and child.poll() is None:
            child.send_signal(signal.SIGTERM)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    stdout, rc = "", 1
    try:
        with open(log_path, "w") as log:
            child = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                                     stderr=log, stdin=subprocess.DEVNULL, text=True,
                                     start_new_session=True)
            try:
                stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"kgbench: session exceeded {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
                child.send_signal(signal.SIGTERM)
                try:
                    stdout, _ = child.communicate(timeout=10)
                except subprocess.TimeoutExpired:
                    child.kill()
                    stdout, _ = child.communicate()
                stopped.append("timeout")
            rc = child.returncode
    finally:
        if child is not None:
            if child.poll() is None:
                child.kill()
                child.wait()
            left = procs.stop_session(child.pid)
            if left:
                print(f"kgbench: killed {len(left)} leftover processes", file=sys.stderr)
        ray_tmp = os.path.join(work, "ray_temp_dirs")
        if os.path.exists(ray_tmp):
            with open(ray_tmp) as f:
                for temp in f.read().split():
                    shutil.rmtree(temp, ignore_errors=True)
        spans = os.path.join(work, "spans.json")
        if os.path.exists(spans):
            shutil.copy(spans, os.path.join(out, f"{tag}-spans.json"))
        if os.path.exists(log_path):
            shutil.copy(log_path, os.path.join(out, f"{tag}.log"))
        shutil.rmtree(work, ignore_errors=True)

    lines = {}
    for line in stdout.splitlines():
        for key in ("report", "result"):
            if line.startswith(f"KGBENCH {key} "):
                lines[key] = line[len(f"KGBENCH {key} "):]
    if rc != 0 or stopped or "result" not in lines:
        print(f"kgbench: session failed (exit {rc}, stopped {stopped}); "
              f"log: {os.path.join(out, tag + '.log')}", file=sys.stderr)
        return 1
    with open(os.path.join(out, f"{tag}.json"), "w") as f:
        f.write(lines.get("report", "{}"))
    print("kgbench report: " + lines.get("report", "{}"))
    print(json.dumps(json.loads(lines["result"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
