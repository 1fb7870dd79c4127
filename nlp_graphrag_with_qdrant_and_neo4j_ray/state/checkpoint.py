"""Per-stage Parquet checkpoints with atomic publish + resume.

The reference has no checkpointing (a crash re-processes everything,
converging only via Cypher MERGE idempotency — SURVEY.md §4.1). Here each
stage's output table is a directory published atomically by
:func:`publish_dir`, the one publish rule of the package: build into
``<name>.__tmp__``, write its ``_SUCCESS`` marker, rename it to
``<name>``. On resume a stage whose marker matches is loaded with
``read_parquet`` instead of recomputed, so a failed run skips finished
stages (per-partition skip within a stage comes from the partitioned
file layout + idempotent overwrite of the stage directory). The serving
indexes and the entry's cached fixtures publish through the same rule,
keyed by :func:`fingerprint` of what they are built from.
"""

from __future__ import annotations

import os
import shutil
import sys
import types
from collections.abc import Callable, Mapping


def _pin_fsspec_http_module() -> None:
    """Make ``fsspec.implementations.http`` importable, thread-safely.

    Without aiohttp the module raises ModuleNotFoundError on every import
    attempt; Ray's ``_is_http_filesystem`` tolerates that — but when two
    driver threads call ``write_parquet`` concurrently, the failing import
    races and surfaces as a bare ``ImportError`` ("cannot import name
    'HTTPFileSystem'") that Ray does NOT catch. Registering a placeholder
    module with a never-instantiated HTTPFileSystem class makes the import
    succeed deterministically; Ray's isinstance check then simply returns
    False, which is the correct semantics here (local filesystem only).
    """
    try:
        import fsspec.implementations.http  # noqa: F401
    except ModuleNotFoundError:
        mod = types.ModuleType("fsspec.implementations.http")

        class HTTPFileSystem:  # placeholder; nothing ever instantiates it
            pass

        mod.HTTPFileSystem = HTTPFileSystem
        sys.modules["fsspec.implementations.http"] = mod
    except ImportError:
        pass


_pin_fsspec_http_module()


SUCCESS = "_SUCCESS"


def table_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, name)


def rows_at_most(files: list[str], max_rows: int) -> bool:
    """True when the Parquet ``files`` hold at most ``max_rows`` rows in
    total, judged from their footers alone (a few KB of metadata I/O, no
    data read) and stopping at the first footer past the cap — the size
    gate of every in-process serving path (see ``config``)."""
    import pyarrow.parquet as pq

    total = 0
    for f in files:
        total += pq.ParquetFile(f).metadata.num_rows
        if total > max_rows:
            return False
    return True


def source_digest(*extra: str) -> str:
    """Hash of the code that checkpoints or recorded results depend on:
    this package's Python sources plus the files ``extra``, each hashed
    with its path relative to the package's parent directory, so two
    checkouts of the same code agree."""
    import hashlib

    pkg = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.dirname(pkg)
    files = [os.path.join(d, f) for d, _, fs in os.walk(pkg)
             for f in fs if f.endswith(".py")]
    h = hashlib.blake2b(digest_size=16)
    for f in sorted([*map(os.path.abspath, extra), *files]):
        h.update(os.path.relpath(f, root).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def fingerprint(path: str) -> str:
    """``mtime_ns:size`` of the file ``path``: the staleness key of what
    is built from it (a rewrite changes it)."""
    st = os.stat(path)
    return f"{st.st_mtime_ns}:{st.st_size}"


def published(path: str, key: str) -> bool:
    """True when the directory ``path`` is published under ``key``: its
    ``_SUCCESS`` marker holds exactly ``key``."""
    try:
        with open(os.path.join(path, SUCCESS)) as f:
            return f.read() == key
    except OSError:
        return False


def publish_dir(path: str, key: str, build: Callable[[str], None],
                resume: bool = True) -> bool:
    """Publish the directory ``path`` atomically, or keep it.

    With ``resume``, a ``path`` already :func:`published` under ``key``
    is kept and nothing is built (returns False). Otherwise the old
    ``path`` and any temp dir a killed build left are removed first, so
    a failed rebuild never leaves an older table published; then
    ``build(tmp)`` fills the fresh temp dir ``<path>.__tmp__``, ``key``
    is written as its ``_SUCCESS`` and the temp dir is renamed to
    ``path`` (returns True). This is the only place in the package that
    writes a marker or renames a directory into place
    (``tests/test_publish_guard.py``)."""
    if resume and published(path, key):
        return False
    tmp = path + ".__tmp__"
    for stale in (tmp, path):
        if os.path.exists(stale):
            shutil.rmtree(stale)
    os.makedirs(tmp)
    build(tmp)
    with open(os.path.join(tmp, SUCCESS), "w") as f:
        f.write(key)
    os.rename(tmp, path)
    return True


def _write_parquet(ds, tmp: str, write_kwargs: dict | None) -> None:
    """The build of a checkpoint: ``ds`` written as Parquet into ``tmp``."""
    ds.write_parquet(tmp, **(write_kwargs or {}))
    # an all-empty dataset writes no files; publish an explicit zero-row
    # file so the checkpoint stays readable with a stable schema
    if not any(f.endswith(".parquet") for f in os.listdir(tmp)):
        import pyarrow.parquet as pq

        schema = ds.schema()
        arrow_schema = getattr(schema, "base_schema", None) if schema else None
        if arrow_schema is not None:
            pq.write_table(arrow_schema.empty_table(), os.path.join(tmp, "empty.parquet"))


def checkpointed(
    out_dir: str,
    name: str,
    compute: Callable[[], "ray.data.Dataset"],  # noqa: F821
    resume: bool = True,
    write_kwargs: dict | None = None,
    read_back: bool = True,
):
    """Return a Dataset for table ``name``, recomputing only if needed.

    ``compute`` must return the (lazy) Dataset to materialize. The write
    streams through ``write_parquet`` (no driver materialization).
    ``read_back=False`` publishes without opening the table and returns
    None: opening a ``read_parquet`` reads every footer and runs Parquet
    sampling tasks, wasted on a table nothing downstream reads.
    """
    import ray.data

    path = table_path(out_dir, name)
    publish_dir(path, "ok",
                lambda tmp: _write_parquet(compute(), tmp, write_kwargs), resume)
    return ray.data.read_parquet(path) if read_back else None


class DiskTables(Mapping):
    """Published checkpoint tables by name, each opened with
    ``read_parquet`` on first access and kept. A build returns its tables
    this way so it opens (footers, sampling tasks) only what its caller
    reads, and no object-store pin outlives the build."""

    def __init__(self, out_dir: str, names):
        self._out_dir = out_dir
        self._names = tuple(names)
        self._open: dict = {}

    def __getitem__(self, name: str):
        if name not in self._names:
            raise KeyError(name)
        if name not in self._open:
            import ray.data

            self._open[name] = ray.data.read_parquet(table_path(self._out_dir, name))
        return self._open[name]

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def checkpointed_passthrough(
    out_dir: str,
    name: str,
    compute: Callable[[], "ray.data.Dataset"],  # noqa: F821
    resume: bool = True,
    write_kwargs: dict | None = None,
):
    """Like :func:`checkpointed`, but takes the checkpoint I/O off the
    stage's critical path: the stage materializes in the OBJECT STORE
    (spill-backed) and is handed to downstream consumers immediately,
    while a background thread streams the Parquet publish from the
    cached blocks.

    Returns ``(ds, finalize)``. ``finalize()`` must be called before the
    build returns: it joins the publish thread and re-raises any publish
    failure (on the resume path it is a no-op); the build then drops
    ``ds`` so the object-store pin is released. Correctness contract: a
    consumer that observed the in-memory Dataset and a resumed run that
    reads the checkpoint see identical rows — same blocks, one
    ``write_parquet``.
    """
    import threading

    import ray.data

    path = table_path(out_dir, name)
    if resume and published(path, "ok"):
        return ray.data.read_parquet(path), (lambda: None)

    ds = compute().materialize()
    err: list[BaseException] = []

    def run() -> None:
        try:
            publish_dir(path, "ok",
                        lambda tmp: _write_parquet(ds, tmp, write_kwargs), resume=False)
        except BaseException as e:  # re-raised at finalize()
            err.append(e)

    t = threading.Thread(target=run, name=f"publish-{name}", daemon=True)
    t.start()

    def finalize():
        t.join()
        if err:
            raise err[0]

    return ds, finalize
