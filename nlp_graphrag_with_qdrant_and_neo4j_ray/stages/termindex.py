"""Serving-path term index: the terms edge list re-materialized
hash-partitioned by ``term``, each bucket aggregated to per-(term, chunk)
postings with BM25 statistics and sorted by term.

r1's ``term_search`` scanned the ENTIRE terms table per query (16.7 s at
sf0.1 — VERDICT finding 7) because the build-order layout (partitioned by
chunk) prunes nothing for a term lookup. The layout contract (SURVEY.md
S7: "partitioned + sorted Parquet replaces indexes") is satisfied by this
second materialization: a query hashes its few terms to buckets, reads
ONLY those bucket files, and pushes a ``term IN (...)`` filter into
``read_parquet`` so row-group statistics (sorted by term) prune within
the bucket. Built once per KG dir, lazily, checkpoint-style (atomic
publish + ``_SUCCESS``, resume skips).

Scoring (VERDICT r2 task 4): the reference scores term hits with Lucene's
fulltext relevance (``/root/reference/graphrag/core/retrieval.py:206-216``);
bit-exact Lucene scores are not reproducible without Lucene, so the index
precomputes a deterministic **BM25** posting score at build time —
``idf(t)·tf·(k1+1)/(tf+k1)`` with the Lucene/ATIRE idf
``ln(1+(N−df+0.5)/(df+0.5))``, k1=1.2 and **b=0** (no length
normalization: a chunk's total term count lives across term-hash buckets,
and the chunker already bounds chunk length, so the dl/avgdl factor is
nearly constant — the documented remaining divergence from Lucene's
BM25(b=0.75) and from its query-coordination factors). df is exact and
local by construction: a term's complete posting list lives in exactly
one hash bucket, so compaction sees every chunk of every term it owns.

Scale/robustness (VERDICT r2 task 5, ADVICE r2):
- ``num_buckets`` auto-sizes to a rows-per-bucket target (fixed 64 made a
  100 TB bucket ~1.5 TB; compaction memory is bounded by the target);
  the bucket count is recorded in the ``_SUCCESS`` marker and the query
  side always reads it from there.
- the marker also records a source-table fingerprint (the terms
  checkpoint's ``_SUCCESS`` mtime by default) — rebuilding the KG in
  place invalidates the index instead of silently serving stale scores.
- part-file names hash the FULL batch content, so two distinct
  concurrent batches can never collide (retries still overwrite
  idempotently).

Serving: a ``TermIndex`` handle is a snapshot of the index it was
loaded from, and caches what its small-match reads decode up to
``config.TERM_LOCAL_ROWS`` rows, so repeated queries on a long-lived
handle (kgbench's ``Server``, the CLI REPL) read no file, and finds a
cached group's query terms by binary search over its sorted term runs
instead of filtering every row (see ``TermIndex``).
"""

from __future__ import annotations

import bisect
import json
import math
import os
import shutil

import time as _time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import config
from ..functions.rounding import sql_round

_now = _time.perf_counter

SUCCESS = "_SUCCESS"
BM25_K1 = 1.2
INDEX_VERSION = 2


def term_buckets(terms: list[str], num_buckets: int) -> list[int]:
    """Deterministic bucket of each term — the same vectorized hash the
    shuffle layer uses, so write side and query side always agree."""
    h = pd.util.hash_pandas_object(pd.Series(terms, dtype="object"),
                                   index=False)
    return [int(v) for v in (h % num_buckets)]


def term_runs(group: pa.Table) -> tuple[list[str], np.ndarray] | None:
    """A term-sorted row group's runs: its distinct terms, ascending, and
    the row offsets where each term's run starts, closed by the row
    count. Compact files are sorted by ``(term, term_type, chunk_id)``,
    so one term's postings in a group are one contiguous run. None when
    the group is empty or its terms are null or out of order: such a
    group is filtered instead."""
    col = group.column("term").combine_chunks()
    n = len(col)
    if n == 0 or col.null_count:
        return None
    same = pc.equal(col.slice(1), col.slice(0, n - 1)).to_numpy(
        zero_copy_only=False)
    starts = np.flatnonzero(np.concatenate([[True], ~same]))
    uniq = col.take(pa.array(starts)).to_pylist()
    # Arrow sorts strings by UTF-8 bytes, which is code-point order
    if any(a >= b for a, b in zip(uniq, uniq[1:])):
        return None
    return uniq, np.append(starts, n)


def run_rows(runs: tuple[list[str], np.ndarray],
             terms: list[str]) -> np.ndarray:
    """Row indices of a group's postings for the sorted, distinct
    ``terms`` — each term's ``[lo, hi)`` run found by binary search —
    in the order an ``is_in`` filter of the group keeps them."""
    uniq, bounds = runs
    rows = []
    for t in terms:
        i = bisect.bisect_left(uniq, t)
        if i < len(uniq) and uniq[i] == t:
            rows.append(np.arange(bounds[i], bounds[i + 1]))
    return np.concatenate(rows) if rows else np.zeros(0, np.int64)


class TermIndex:
    """Handle to a built index directory; ``matched(terms)`` returns a
    Dataset of exactly the posting rows whose term is in the query set
    (columns ``term, term_type, chunk_id, tf, df, bm25``), reading only
    the needed bucket directories.

    A handle is a snapshot of the index it was loaded from: it keeps
    each probed bucket's file list and each file's footer statistics
    (per row group: term min/max and row count), and ``matched_local``
    keeps the row groups it decodes, up to ``config.TERM_LOCAL_ROWS``
    rows in total — the same bound as one local match, read at call
    time. Past that budget a row group is read as before and nothing is
    evicted. A repeated query thus opens no file. A rebuilt index is
    a new directory and ``ensure_term_index`` returns a new handle for
    it; a handle held across the rebuild keeps serving its snapshot.

    With a cached group the handle also keeps its term runs
    (:func:`term_runs`): the group's distinct terms and where each
    term's contiguous run of postings starts. ``matched_local`` then
    finds each query term's ``[lo, hi)`` by binary search and takes
    those rows, instead of an ``is_in`` pass over every row of the
    group, so a cached lookup costs by the matched rows, not by the
    group. The rows and their order are the filter's: files in order,
    groups in order, terms ascending, so scores do not change. A group
    past the budget is filtered as before."""

    def __init__(self, path: str, num_buckets: int, total_chunks: int = 0):
        self.path = path
        self.num_buckets = num_buckets
        self.total_chunks = total_chunks
        self._files: dict[int, list[str]] = {}  # bucket → part files
        # part file → (schema, [(term min, term max, rows) per group])
        self._footers: dict[str, tuple] = {}
        self._groups: dict[tuple[str, int], pa.Table] = {}
        # cached group → its term runs (see ``term_runs``)
        self._runs: dict[tuple[str, int], tuple | None] = {}
        self.cached_rows = 0

    @classmethod
    def load(cls, path: str) -> "TermIndex":
        with open(os.path.join(path, SUCCESS)) as f:
            meta = json.load(f)
        return cls(path, meta["num_buckets"], meta.get("total_chunks", 0))

    def bucket_dir(self, bucket: int) -> str:
        return os.path.join(self.path, f"bucket-{bucket}")

    def _empty(self):
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "term_type": pa.array([], pa.string()),
                    "chunk_id": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                    "bm25": pa.array([], pa.float64()),
                }
            )
        )

    def _bucket_files(self, terms: list[str]) -> list[str]:
        """The part files of the buckets ``terms`` hash to."""
        files: list[str] = []
        for b in sorted(set(term_buckets(terms, self.num_buckets))):
            if b not in self._files:
                d = self.bucket_dir(b)
                self._files[b] = [
                    os.path.join(d, f) for f in sorted(os.listdir(d))
                    if f.endswith(".parquet")
                ] if os.path.isdir(d) else []
            files.extend(self._files[b])
        return files

    def _footer(self, path: str) -> tuple:
        """(arrow schema, [(term min, term max, rows) per row group]) of
        a part file; min/max are None where a group has no statistics."""
        if path not in self._footers:
            pf = pq.ParquetFile(path)
            md = pf.metadata
            col = pf.schema_arrow.names.index("term")
            groups = []
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                st = rg.column(col).statistics
                lo, hi = ((st.min, st.max) if st is not None
                          and st.min is not None and st.max is not None
                          else (None, None))
                groups.append((lo, hi, rg.num_rows))
            self._footers[path] = (pf.schema_arrow, groups)
        return self._footers[path]

    def _read_groups(self, path: str, groups: list[int]) -> list[tuple]:
        """Row groups ``groups`` of a part file, each as ``(table, runs)``:
        the cached ones from memory, where ``runs`` is the group's
        :func:`term_runs`; a decoded one is kept, with its runs, while
        the budget allows. An uncached group's ``runs`` is None."""
        got = {g: self._groups.get((path, g)) for g in groups}
        missing = [g for g, t in got.items() if t is None]
        if missing:
            pf = pq.ParquetFile(path)
            for g in missing:
                t = got[g] = pf.read_row_group(g)
                if self.cached_rows + t.num_rows <= config.TERM_LOCAL_ROWS:
                    self._groups[(path, g)] = t
                    self._runs[(path, g)] = term_runs(t)
                    self.cached_rows += t.num_rows
        return [(got[g], self._runs.get((path, g))) for g in groups]

    def matched(self, terms: list[str]):
        import ray.data

        terms = sorted(set(terms))
        files = self._bucket_files(terms)
        if not terms or not files:
            return self._empty()
        return ray.data.read_parquet(
            files, filter=pc.field("term").isin(terms)
        )

    def matched_local(self, terms: list[str], max_rows: int):
        """The matched posting rows as an in-process ``pa.Table`` when
        the matched ROW GROUPS are small — or None (big match → the
        caller's Dataset path). The gate and the read are both
        row-group-granular: buckets are sorted by term, so each row
        group's term min/max statistics (in the footer — a few KB of
        metadata I/O, no data read) prune exactly like the Dataset
        read's filter pushdown; a query's few terms typically land in
        1-2 of a bucket's ~25 groups. Parquet string statistics are
        truncation-safe bounds (truncated max is incremented), so the
        range check can only over-select, never miss. Footers, decoded
        row groups and their term runs come from the handle's cache (see
        the class docstring)."""
        terms = sorted(set(terms))
        files = self._bucket_files(terms)
        if not terms or not files:
            return None
        picked: list[tuple] = []
        total = 0
        for f in files:
            groups = []
            for g, (lo, hi, rows) in enumerate(self._footer(f)[1]):
                if lo is None:
                    hit = True  # no stats → must read
                else:
                    # any wanted term inside [min, max]?
                    i = bisect.bisect_left(terms, lo)
                    hit = i < len(terms) and terms[i] <= hi
                if hit:
                    groups.append(g)
                    total += rows
                    if total > max_rows:
                        return None
            if groups:
                picked.append((f, groups))
        value_set = pa.array(terms)
        parts = []
        for f, groups in picked:
            for t, runs in self._read_groups(f, groups):
                parts.append(
                    t.filter(pc.is_in(t.column("term"), value_set=value_set))
                    if runs is None else t.take(run_rows(runs, terms))
                )
        if not parts:  # every row group pruned: empty match, known schema
            parts = [self._footer(files[0])[0].empty_table()]
        return pa.concat_tables(parts)

    def manifest(self):
        """Per-bucket build manifest (bucket, rows, n_terms) — the
        index-build receipt (one row per bucket)."""
        import ray.data

        return ray.data.read_parquet(os.path.join(self.path,
                                                  "manifest.parquet"))


def kg_fingerprint(out_dir: str) -> str:
    """Default staleness fingerprint: the terms checkpoint's _SUCCESS
    mtime (a KG rebuild rewrites it → index invalidates)."""
    p = os.path.join(out_dir, "terms", SUCCESS)
    try:
        return str(os.stat(p).st_mtime_ns)
    except OSError:
        return ""


def _distinct_chunks(terms_ds) -> int:
    """Fallback N for BM25 when the caller has no chunks table: exact
    distinct chunk count via per-batch partial distinct + one groupby."""

    def partial(batch: pa.Table) -> pa.Table:
        cid = batch.column("chunk_id")
        if pa.types.is_dictionary(cid.type):  # dict-encoded terms block
            cid = pc.cast(cid, cid.type.value_type)
        return pa.table({"chunk_id": cid}).group_by("chunk_id").aggregate([])

    return (
        terms_ds.map_batches(partial, batch_format="pyarrow",
                             batch_size=262144)
        .groupby("chunk_id")
        .count()
        .count()
    )


def ensure_term_index(out_dir: str, terms_ds, num_buckets: int | None = None,
                      resume: bool = True, rows_per_bucket: int = 1_000_000,
                      fingerprint: str | None = None,
                      total_chunks=None) -> TermIndex:
    """Build (or load) the by-term BM25 posting index for a KG dir.

    SHUFFLE-FREE partitioned write: every map task splits its batch by
    term-hash bucket and writes one sorted file per (batch, bucket)
    directly into the bucket directory — the r1→r2 interim design moved
    the whole 68 M-row terms table through a grouped exchange first
    (~70-84 s at 32 CPUs); a single streaming pass builds the same
    pruned-read layout. Compaction then aggregates each bucket to
    per-(term, term_type, chunk_id) postings with exact tf/df and the
    precomputed BM25 score (see module docstring), one sorted file per
    bucket. ``total_chunks`` may be an int, a zero-arg callable (resolved
    only on an actual build), or None (exact distinct-chunk fallback).
    ``terms_ds`` may likewise be a zero-arg callable returning the terms
    Dataset — resolved only on a build, so a warm load never constructs
    (or resumes) the KG pipeline (the ensure_ivf_index contract)."""
    path = os.path.join(out_dir, "terms_by_term")
    marker = os.path.join(path, SUCCESS)
    if fingerprint is None:
        fingerprint = kg_fingerprint(out_dir)
    if resume and os.path.exists(marker):
        try:
            with open(marker) as f:
                meta = json.load(f)
        except (json.JSONDecodeError, OSError):
            meta = {}
        if (meta.get("version") == INDEX_VERSION
                and meta.get("fingerprint") == fingerprint
                and (num_buckets is None
                     or meta.get("num_buckets") == num_buckets)):
            return TermIndex(path, meta["num_buckets"],
                             meta.get("total_chunks", 0))

    import hashlib

    import ray.data

    if callable(terms_ds):  # build only — warm loads returned above
        terms_ds = terms_ds()
    if num_buckets is None:
        n_rows = terms_ds.count()
        num_buckets = int(max(8, min(65536,
                                     math.ceil(n_rows / rows_per_bucket))))
    if callable(total_chunks):
        total_chunks = int(total_chunks())
    if total_chunks is None:
        total_chunks = _distinct_chunks(terms_ds)
    n_chunks = int(total_chunks)

    tmp = path + ".__tmp__"
    for stale in (tmp, path):
        if os.path.exists(stale):
            shutil.rmtree(stale)
    for b in range(num_buckets):
        os.makedirs(os.path.join(tmp, f"bucket-{b}"), exist_ok=True)

    def write_batch(batch: pa.Table) -> pa.Table:
        empty = pa.table({"bucket": pa.array([], pa.int64()),
                          "rows": pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return empty
        from .ngram import decode_terms

        # raw terms blocks arrive dict-encoded; the index's sort/equal/
        # hash machinery (and its persisted part files) work on strings
        batch = decode_terms(batch)
        # per-batch tf combiner: terms arrive chunk-grouped, so the same
        # (term, chunk) repeats within a batch — aggregating tf here
        # shrinks what hits disk AND what compaction re-reads
        agg = (
            batch.select(["term", "term_type", "chunk_id"])
            .group_by(["term", "term_type", "chunk_id"])
            .aggregate([([], "count_all")])
            .rename_columns(["term", "term_type", "chunk_id", "tf"])
        )
        tser = agg.column("term").to_pandas()
        buckets = pa.array(
            (pd.util.hash_pandas_object(tser, index=False)
             % num_buckets).astype("int64")
        )
        agg = agg.append_column("bucket", buckets)
        # ONE int-column sort on bucket, then zero-copy slices at bucket
        # boundaries — not a filter pass per bucket. Term order inside a
        # raw part is irrelevant: compaction re-reads each part fully
        # and produces the term-sorted compact file queries read, so a
        # (term, chunk_id) string sort here was pure waste (measured
        # 31.5 s → see marker build_wall_s).
        agg = agg.sort_by([("bucket", "ascending")])
        bvals = agg.column("bucket").to_numpy()
        bounds = np.flatnonzero(np.diff(bvals)) + 1
        starts = np.concatenate([[0], bounds])
        ends = np.concatenate([bounds, [len(bvals)]])
        counts = []
        for s, e in zip(starts, ends):
            b = int(bvals[s])
            out = agg.slice(int(s), int(e - s)).drop_columns(["bucket"])
            # content hash of the FULL batch-bucket slice: distinct
            # concurrent batches can never collide (ADVICE r2 — first/
            # last-row names collided when equal-count duplicate rows
            # split across batch boundaries); true task retries still
            # produce the same name, keeping os.replace idempotent
            h = pd.util.hash_pandas_object(
                out.select(["term", "chunk_id"]).to_pandas(), index=False
            ).to_numpy()
            tag = hashlib.blake2b(
                h.tobytes() + f"#{b}#{out.num_rows}".encode(), digest_size=10
            ).hexdigest()
            final = os.path.join(tmp, f"bucket-{b}",
                                 f"part-{tag}.parquet")
            tmp_file = f"{final}.tmp-{os.getpid()}"
            pq.write_table(
                out, tmp_file,
                row_group_size=32768,  # sorted → row-group min/max prune
            )
            os.replace(tmp_file, final)  # idempotent on task retry
            counts.append({"bucket": b, "rows": out.num_rows})
        if not counts:
            return empty
        return pa.Table.from_pylist(
            counts, schema=pa.schema([("bucket", pa.int64()),
                                      ("rows", pa.int64())])
        )

    t_write0 = _now()
    # large batches bound the part-file count: each batch writes ≤1 file
    # per bucket it touches, so files ≈ (rows / batch_size) × buckets —
    # at 262k batches over 272 M rows that was 142k files; 2 M-row
    # batches (~150 MB of slim posting rows) cut it ~8×; 4 M was measured slower (tail imbalance)
    terms_ds.map_batches(
        write_batch, batch_format="pyarrow", batch_size=2_097_152
    ).materialize()
    write_s = sql_round(_now() - t_write0, 3)

    # compaction: aggregate each bucket's raw occurrence rows to postings
    # (term, term_type, chunk_id, tf) + exact df + BM25, one sorted file
    # per bucket (queries open ≤1 file per probed bucket). Still
    # shuffle-free — rows are already bucket-partitioned on disk; bucket
    # size (and therefore compaction memory) is bounded by the
    # rows-per-bucket target via the auto-sized bucket count.
    def compact(batch: pa.Table) -> pa.Table:
        rows_out = []
        for b in batch.column("id").to_pylist():
            d = os.path.join(tmp, f"bucket-{int(b)}")
            parts = sorted(
                os.path.join(d, f) for f in os.listdir(d)
                if f.endswith(".parquet")
            )
            if not parts:
                rows_out.append({"bucket": int(b), "rows": 0, "n_terms": 0})
                continue
            raw = pa.concat_tables(
                [pq.read_table(
                    p, columns=["term", "term_type", "chunk_id", "tf"])
                 for p in parts]
            )
            # Arrow-native aggregation (the pandas version of this local
            # groupby was the index build's hot loop — 28 s → ~10 s):
            # tf partials (pre-combined per write batch) sum per posting;
            # df per term comes from run lengths over the SORTED postings
            # (one numpy pass) instead of a second groupby + string-keyed
            # hash join — a term's complete posting list is contiguous
            # after the sort by construction
            agg = (
                raw.group_by(["term", "term_type", "chunk_id"])
                .aggregate([("tf", "sum")])
                .rename_columns(["term", "term_type", "chunk_id", "tf"])
            ).sort_by([("term", "ascending"), ("term_type", "ascending"),
                       ("chunk_id", "ascending")]).combine_chunks()
            n = agg.num_rows
            t_col = agg.column("term")
            tt_col = agg.column("term_type")
            if n > 1:
                same = pc.and_(
                    pc.equal(t_col.slice(1), t_col.slice(0, n - 1)),
                    pc.equal(tt_col.slice(1), tt_col.slice(0, n - 1)),
                ).to_numpy(zero_copy_only=False)
                starts = np.concatenate([[0], np.flatnonzero(~same) + 1])
            else:
                starts = np.zeros(min(n, 1), np.int64)
            runlens = np.diff(np.concatenate([starts, [n]]))
            dfv = np.repeat(runlens, runlens)
            tf = agg.column("tf").to_numpy()
            idf = np.log1p(
                (np.maximum(n_chunks - dfv, 0) + 0.5) / (dfv + 0.5)
            )
            bm25 = idf * (tf * (BM25_K1 + 1.0) / (tf + BM25_K1))
            tbl = agg.append_column(
                "df", pa.array(dfv, pa.int64())
            ).append_column("bm25", pa.array(bm25, pa.float64()))
            final = os.path.join(d, "compact.parquet")
            tmp_file = f"{final}.tmp-{os.getpid()}"
            pq.write_table(tbl, tmp_file, row_group_size=32768)
            os.replace(tmp_file, final)
            for p in parts:
                os.remove(p)
            rows_out.append({"bucket": int(b), "rows": tbl.num_rows,
                             "n_terms": int(len(starts))})
        return pa.Table.from_pylist(
            rows_out,
            schema=pa.schema([("bucket", pa.int64()), ("rows", pa.int64()),
                              ("n_terms", pa.int64())]),
        )

    t_compact0 = _now()
    manifest_rows = (
        ray.data.range(num_buckets)
        .map_batches(compact, batch_format="pyarrow", batch_size=1)
        .take_all()
    )  # one row per bucket — small by construction
    compact_s = sql_round(_now() - t_compact0, 3)
    pq.write_table(
        pa.Table.from_pylist(
            manifest_rows,
            schema=pa.schema([("bucket", pa.int64()), ("rows", pa.int64()),
                              ("n_terms", pa.int64())]),
        ),
        os.path.join(tmp, "manifest.parquet"),
    )

    os.rename(tmp, path)
    with open(marker, "w") as f:
        json.dump(
            {"version": INDEX_VERSION, "num_buckets": num_buckets,
             "total_chunks": n_chunks, "fingerprint": fingerprint,
             "scoring": f"bm25(k1={BM25_K1},b=0)",
             "build_wall_s": {"write": write_s, "compact": compact_s}},
            f,
        )
    return TermIndex(path, num_buckets, n_chunks)
