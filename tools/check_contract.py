"""Driver-mimic: run entry(), every queries() callable, and compare each
against oracle_sql() via DuckDB (row count + order-insensitive value
comparison), the way the graft driver does. Usage:

    python tools/check_contract.py SF_DIR [--results FILE]

The entries run in chunks of ``CHUNK``, each in a fresh subprocess with
its own Ray session (one long session can abort inside Ray); a worker
whose results file has not grown for ``STALL_S`` seconds is killed as
hung. Every entry appends one JSON line to the results file (default
``.check_contract/<sf>.jsonl``): its status, row count, wall seconds and
a digest of its canonical rows. A rerun skips the entries already
recorded, so a killed run resumes where it stopped. The file's first
line holds a digest of the code the entries run; a rerun with other
code refuses to resume, and deleting the file starts over. Two results
files (say, of two checkouts) compare entry by entry on ``digest``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import duckdb
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from nlp_graphrag_with_qdrant_and_neo4j_ray.state.checkpoint import (  # noqa: E402
    source_digest as package_digest,
)

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()
ENTRY = "entry()"
STARTED = "STARTED"
# exit code of a worker that ran its chunk and left entries pending
MORE = 3
# entries per worker session: a Ray 2.49 session aborted after 32 and
# after 244 entries of one sweep
CHUNK = 40
# A worker whose results file has not grown for this long is hung. At
# sf0.1, the largest test scale, a worker wrote its first line 5 s after
# it started and the slowest entry took 15.3 s (docs_train_ready_ids;
# 8 Ray CPUs on one core): 300 s is a 15x margin over the two together.
STALL_S = 300.0


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def digest(df: pd.DataFrame) -> str:
    """Hash of a canonical frame's column names and cell values (floats
    bit for bit; ints of any width hash alike)."""
    h = hashlib.blake2b(digest_size=16)
    for c in df.columns:
        h.update(str(c).encode() + b"\0")
        try:
            v = pd.util.hash_pandas_object(df[c], index=False).to_numpy()
        except TypeError:  # unhashable cells (lists, arrays)
            v = df[c].map(repr).to_numpy().astype(str)
        h.update(v.tobytes())
    return h.hexdigest()


def check(name: str, fn, sf_dir: str, con, sqls: dict) -> dict:
    """Run one entry and compare it with its oracle, if it has one."""
    t0 = time.time()
    try:
        got = canon(to_pandas(fn(sf_dir)))
    except Exception as e:  # noqa: BLE001
        return {"status": f"RAY ERROR {type(e).__name__}: {e}"[:2000],
                "seconds": round(time.time() - t0, 3)}
    rec = {"rows": len(got), "digest": digest(got),
           "seconds": round(time.time() - t0, 3)}
    if name not in sqls:
        return {"status": "rows-only", **rec}
    want = canon(con.sql(sqls[name]).df())
    status = "OK"
    if len(got) != len(want):
        status = f"ROWCOUNT {len(got)} vs {len(want)}"
    elif list(got.columns) != list(want.columns):
        status = f"COLS {list(got.columns)} vs {list(want.columns)}"
    else:
        try:
            pd.testing.assert_frame_equal(
                got, want, check_dtype=False, check_exact=False, rtol=1e-9
            )
        except AssertionError as e:
            status = "VALUES differ: " + str(e).split("\n")[0]
    return {"status": status, **rec}


def source_digest() -> str:
    """Hash of the code a results file's records depend on: the entry
    module, the package and this file."""
    return package_digest(os.path.join(ROOT, "__ray_entry__.py"),
                          os.path.abspath(__file__))


def open_results(path: str) -> None:
    """Start ``path`` with the source digest, or exit when its records
    were made by other code."""
    src = source_digest()
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        append(path, {"source": src})
        return
    with open(path) as f:
        try:
            got = json.loads(f.readline()).get("source")
        except json.JSONDecodeError:
            got = None
    if got != src:
        sys.exit(f"{path} was recorded by other code (source {got}, now "
                 f"{src}); delete it to start over")


def load(path: str) -> tuple[dict, dict]:
    """(final record per entry, STARTED count per entry) of a results file."""
    final, started = {}, {}
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                try:
                    r = json.loads(line)
                except json.JSONDecodeError:  # a line cut by a crash
                    continue
                if "name" not in r:  # the source line
                    continue
                if r["status"] == STARTED:
                    started[r["name"]] = started.get(r["name"], 0) + 1
                else:
                    final[r["name"]] = r
    return final, started


def append(path: str, rec: dict) -> None:
    with open(path, "a") as f:
        f.write(json.dumps(rec) + "\n")


def worker(sf_dir: str, path: str) -> int:
    """Run up to ``CHUNK`` unrecorded entries in one Ray session."""
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    qs, sqls = E.queries(), E.oracle_sql()
    done, _ = load(path)
    pending = [n for n in [ENTRY, *qs] if n not in done]
    for name in pending[:CHUNK]:
        append(path, {"name": name, "status": STARTED})
        if name == ENTRY:
            t0 = time.time()
            res = E.entry()
            n = res.count() if hasattr(res, "count") else len(res)
            rec = {"status": "rows-only", "rows": n,
                   "seconds": round(time.time() - t0, 3)}
        else:
            rec = check(name, qs[name], sf_dir, con, sqls)
        append(path, {"name": name, **rec})
        print(f"  {name}: {rec['status'][:300]} "
              f"({rec.get('rows', '-')} rows, {rec['seconds']:.1f}s)", flush=True)
    ray.shutdown()
    return MORE if len(pending) > CHUNK else 0


def worker_cmd(sf_dir: str, path: str) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), sf_dir,
            "--results", path, "--worker"]


def watch(p: subprocess.Popen, path: str) -> int:
    """Wait for worker ``p``. When the results file has not grown for
    ``STALL_S`` seconds (a hung Ray session), or this process is
    interrupted, kill the worker's process group, which holds the Ray
    processes it started."""
    start = time.time()
    try:
        while True:
            try:
                return p.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
            if time.time() - max(os.path.getmtime(path), start) > STALL_S:
                return _kill(p)
    except BaseException:
        _kill(p)
        raise


def _kill(p: subprocess.Popen) -> int:
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return p.wait()


def run(sf_dir: str, path: str) -> int:
    """Start workers until every entry is recorded; an entry whose
    session died or hung twice before recording it is recorded as a
    crash. Returns a worker's exit code when it recorded nothing."""
    while True:
        size = os.path.getsize(path)
        rc = watch(subprocess.Popen(worker_cmd(sf_dir, path),
                                    start_new_session=True), path)
        if rc == 0:
            return 0
        if rc == MORE:
            continue
        if os.path.getsize(path) == size:
            return rc  # it cannot start, so another try would not either
        final, started = load(path)
        for name, k in started.items():
            if name not in final and k >= 2:
                append(path, {"name": name,
                              "status": f"SESSION CRASH (exit {rc})"})


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("sf_dir", help="testdata scale dir, e.g. .../sf0.01")
    ap.add_argument("--results", default=None)
    ap.add_argument("--worker", action="store_true")
    args = ap.parse_args()
    sf_dir = args.sf_dir.rstrip("/")
    path = args.results or os.path.join(
        ".check_contract", os.path.basename(sf_dir) + ".jsonl")
    if args.worker:
        sys.exit(worker(sf_dir, path))
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    open_results(path)
    rc = run(sf_dir, path)
    if rc:
        print(f"worker failed (exit {rc}) before recording an entry")
        sys.exit(rc)

    records, _ = load(path)
    failures = [(n, r["status"]) for n, r in records.items()
                if r["status"] not in ("OK", "rows-only")]
    print(f"{len(records)} entries recorded in {path}")

    # Cross-table invariant audit of the KG checkpoints this run built
    # (VERDICT r4 task 7): the conservation-law class of check that
    # caught the r4 term_nodes chunk_count overcount — no SQL oracle
    # covers combiner bugs that only fire at batch boundaries, so the
    # audit is part of every contract run, not a one-off.
    from check_invariants import main as invariants_main

    import __ray_entry__ as E

    kg_dir = E._kg_dir(sf_dir)
    if os.path.isdir(kg_dir):
        print(f"\ninvariant audit of {kg_dir}:")
        inv_failures = invariants_main(kg_dir)
        if inv_failures:
            failures.append(("kg_invariants", f"{inv_failures} violations"))
    else:
        print(f"\ninvariant audit skipped: {kg_dir} not built this run")

    print("\nFAILURES:", len(failures))
    for name, why in failures:
        print(" ", name, "->", why[:300])
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
