"""Similarity search over an embedding column (``list<float>``).

- ``knn_brute``: exact cosine top-k — per-batch numpy matmul against a
  broadcast query matrix → global sort → limit (the correctness baseline;
  exact ≥ ANN).
- ``lsh_buckets`` / ``knn_lsh``: random-hyperplane LSH bucketing as the
  scale path: vectors are assigned sign-bit bucket codes once
  (shuffle-free), queries probe only matching buckets (multi-probe over
  hamming-1 neighbors), then exact re-rank inside the probed buckets.
- ``cosine_near_dup_pairs``: embedding near-duplicate detection — bucket
  by LSH code, exact pairwise cosine ≥ threshold within buckets.
- ``knn_ivf`` / ``kmeans_centroids``: inverted-file ANN (coarse k-means
  quantizer + nprobe list probing — the standard IVF design of
  Sivic/Zisserman 2003 and FAISS), with a deterministic distributed
  Lloyd's iteration.

Random-hyperplane LSH follows Charikar (STOC 2002).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import config
from ..functions.rounding import sql_round
from ..stages.shuffle import combine, grouped_apply
from ..state.checkpoint import SUCCESS, publish_dir, rows_at_most


def _as_matrix(batch: pa.Table, col: str) -> np.ndarray:
    arr = batch.column(col).combine_chunks()
    if isinstance(arr, pa.ChunkedArray):  # pragma: no cover
        arr = arr.combine_chunks()
    values = np.asarray(arr.flatten(), dtype=np.float32)
    return values.reshape(batch.num_rows, -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def knn_brute(embeddings_ds, query_vec, k: int = 10,
              id_col: str = "vec_id", emb_col: str = "embedding"):
    """Exact cosine top-k. Returns Dataset (vec_id, score) sorted desc.

    Per-batch top-k COMBINER before the sort: each batch forwards only
    the rows whose score ties-or-beats its k-th best (``>= s_k`` keeps
    every tie participant, so the global (score desc, id asc) winner
    set is EXACTLY preserved), and the final all-to-all sorts
    ≤ blocks × ~k survivors instead of every scored row (a 100 k-row
    probe set across 192 small blocks sorted in 9.8 s before; ~0.5 s
    after — BASELINE.md r4)."""
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)

    def score(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch, emb_col).astype(np.float64)
        m = _normalize(m)
        s = m @ q
        out = pa.table(
            {id_col: batch.column(id_col), "score": pa.array(s, pa.float64())}
        )
        n = len(s)
        if n <= k:
            return out
        s_k = np.partition(s, n - k)[n - k]  # k-th largest
        return out.filter(pa.array(s >= s_k))

    return (
        embeddings_ds.map_batches(score, batch_format="pyarrow", batch_size=8192)
        .sort(["score", id_col], descending=[True, False])
        .limit(k)
    )


def _hyperplanes(dim: int, bits: int, seed: int = 42) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.standard_normal((bits, dim)).astype(np.float32)


def lsh_code(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Sign-bit bucket codes for rows of m (int64)."""
    bits = (m @ planes.T) > 0
    weights = (1 << np.arange(planes.shape[0], dtype=np.int64))
    return bits.astype(np.int64) @ weights


def lsh_buckets(embeddings_ds, dim: int, bits: int = 12, seed: int = 42,
                id_col: str = "vec_id", emb_col: str = "embedding"):
    """Assign every vector its LSH bucket code (adds ``bucket`` column)."""
    planes = _hyperplanes(dim, bits, seed)

    def assign(batch: pa.Table) -> pa.Table:
        m = _normalize(_as_matrix(batch, emb_col))
        codes = lsh_code(m, planes)
        return batch.append_column("bucket", pa.array(codes, pa.int64()))

    return embeddings_ds.map_batches(assign, batch_format="pyarrow", batch_size=8192)


def knn_lsh(embeddings_ds, query_vec, dim: int, k: int = 10, bits: int = 8,
            probe_radius: int = 2, seed: int = 42,
            id_col: str = "vec_id", emb_col: str = "embedding"):
    """Approximate top-k: probe the query's bucket plus all buckets within
    ``probe_radius`` bit flips, exact re-rank inside. Recall < 1 by
    construction; use ``knn_brute`` when exactness matters."""
    import itertools

    import pyarrow.compute as pc

    planes = _hyperplanes(dim, bits, seed)
    q = np.asarray(query_vec, dtype=np.float32)
    q = q / (np.linalg.norm(q) or 1.0)
    code = int(lsh_code(q.reshape(1, -1), planes)[0])
    probe_codes = [code]
    for r in range(1, probe_radius + 1):
        for flips in itertools.combinations(range(bits), r):
            c = code
            for b in flips:
                c ^= 1 << b
            probe_codes.append(c)
    probes = pa.array(probe_codes, pa.int64())

    bucketed = lsh_buckets(embeddings_ds, dim, bits, seed, id_col, emb_col)
    candidates = bucketed.map_batches(
        lambda b: b.filter(pc.is_in(b.column("bucket"), value_set=probes)),
        batch_format="pyarrow",
    )
    return knn_brute(candidates, q, k, id_col, emb_col)


def _min_k_rows(ds, k: int, id_col: str, emb_col: str) -> list[dict]:
    """The k rows with smallest ids — a per-batch combiner (each batch
    keeps only its k smallest) then a tiny global sort over ≤ blocks × k
    rows, instead of a full-dataset sort (VERDICT r2 finding 2)."""

    def partial(batch: pa.Table) -> pa.Table:
        return batch.select([id_col, emb_col]).sort_by(id_col).slice(0, k)

    reduced = ds.map_batches(partial, batch_format="pyarrow", batch_size=8192)
    return reduced.sort(id_col).limit(k).take_all()


def kmeans_centroids(embeddings_ds, dim: int, nlist: int = 64, iters: int = 5,
                     id_col: str = "vec_id", emb_col: str = "embedding",
                     train_per_centroid: int = 256) -> np.ndarray:
    """Deterministic k-means (spherical) for the IVF coarse quantizer,
    trained on a BOUNDED sample (FAISS practice: ~256 vectors per
    centroid suffices for a coarse quantizer).

    The previous version ran each Lloyd iteration as a streaming pass
    over the full (lazy) dataset — which re-executed the upstream
    parquet read once per iteration (measured: 6 full scans of a
    250 k × 768 chunk-vector table for iters=5, ~28 s of a 43 s index
    build). Now: TWO bounded passes — a count() to size the sampling
    fraction, then a deterministic hash sample of
    ``train_per_centroid × nlist`` rows (partition-independent — the
    keep/drop decision is a pure function of the id), and Lloyd runs
    vectorized on the driver over that bounded matrix (≤ ~a few MB by
    construction; the full-data pass that remains is the caller's
    assignment step). Init = the ``nlist`` sampled vectors with
    smallest ids. Datasets at or below the sample budget train on all
    rows, so small-fixture behavior matches the old exact path."""
    import pandas as pd

    target = int(train_per_centroid) * int(nlist)
    slim = embeddings_ds.select_columns([id_col, emb_col])
    n = slim.count()
    if n > target:
        frac = min(1.0, 1.2 * target / n)  # 20% cushion on the binomial
        thresh = np.uint64(int(frac * float(2**64 - 1)))

        def keep(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_pandas()
            h = pd.util.hash_pandas_object(ids, index=False).to_numpy(
                np.uint64)
            return batch.filter(pa.array(h < thresh))

        slim = slim.map_batches(keep, batch_format="pyarrow")
    rows = slim.take_all()  # bounded: ≤ ~1.2 × target rows
    if len(rows) < nlist:  # pragma: no cover - pathological sample
        rows = _min_k_rows(embeddings_ds, nlist, id_col, emb_col)
    rows.sort(key=lambda r: r[id_col])
    m = _normalize(np.stack(
        [np.asarray(r[emb_col], dtype=np.float64) for r in rows]))
    cents = m[:nlist].copy()
    for _ in range(iters):
        assign = np.argmax(m @ cents.T, axis=1)
        sums = np.zeros_like(cents)
        np.add.at(sums, assign, m)
        counts = np.bincount(assign, minlength=cents.shape[0])
        nonempty = counts > 0
        cents[nonempty] = _normalize(sums[nonempty] / counts[nonempty, None])
    return cents


def _reduce_cluster_partials(partials_ds, keys: list[str]) -> list[dict]:
    """Merge per-block (keys…, sum:list, count) partial rows through
    ONE keyed exchange (associative elementwise-sum), returning the
    bounded per-key list — never O(blocks) rows on the driver."""

    def reduce_(pdf: pd.DataFrame) -> pd.DataFrame:
        def fold(g: pd.DataFrame) -> pd.Series:
            arr = np.stack(g["sum"].to_numpy())
            # canonical row order before the float fold: partition row
            # order follows shuffle arrival, and float addition is not
            # associative — lexsorting keeps k-means bit-deterministic
            arr = arr[np.lexsort(arr.T)]
            return pd.Series({
                "sum": arr.sum(axis=0).tolist(),
                "count": int(g["count"].sum()),
            })

        return (pdf.groupby(keys, sort=False)
                .apply(fold, include_groups=False).reset_index())

    # to_pandas, not take_all: row-based take_all over pandas blocks
    # converts per row — measured ~0.6 ms/row, meaningful × iterations
    return grouped_apply(partials_ds, keys, reduce_,
                         batch_format="pandas").to_pandas().to_dict("records")


class _IvfSnapshot:
    """One published IVF index as this process has read it: the
    identity it was read under (the ``_SUCCESS`` marker's inode, its
    mtime and its content), the centroids, each list's part files, the
    row count of each part file decoded, and each decoded part file as
    ``(ids, float32 matrix, float64 row norms)``. Decoded files are kept
    while the snapshots in ``_IVF_PROC_CACHE`` hold at most
    ``config.KNN_LOCAL_ROWS`` rows together, read at call time; past
    that bound a file is read as before and nothing is evicted."""

    def __init__(self, ident: tuple, cents: np.ndarray, lists_path: str):
        self.ident = ident
        self.cents = cents
        self.lists_path = lists_path
        self._files: dict[int, list[str]] = {}  # list id → part files
        self._rows: dict[str, int] = {}  # decoded part file → rows
        # (part file, id column, vector column) → (ids, matrix, norms)
        self.decoded: dict[tuple[str, str, str], tuple] = {}
        self.cached_rows = 0

    def list_files(self, probes: list[int]) -> list[str]:
        """The part files of the lists ``probes``, in probe order."""
        import glob
        import os

        out = []
        for i in probes:
            if i not in self._files:
                self._files[i] = sorted(glob.glob(os.path.join(
                    self.lists_path, f"list_id={i}", "*.parquet")))
            out.extend(self._files[i])
        return out

    def rows_at_most(self, paths: list[str], max_rows: int) -> bool:
        """``state.checkpoint.rows_at_most``, opening only the footers of
        files not yet decoded, so a repeated probe set opens no file."""
        known = sum(self._rows.get(f, 0) for f in paths)
        return known <= max_rows and rows_at_most(
            [f for f in paths if f not in self._rows], max_rows - known)

    def scored(self, paths: list[str], q: np.ndarray, id_col: str,
               emb_col: str) -> tuple[pa.Array, np.ndarray]:
        """(ids, cosine scores) of every row of ``paths``, in file order.

        The files not yet decoded are read on up to 8 threads; then
        each kept while the bound allows. Scoring is fused — einsum
        accumulates the dot and the row norm in float64 straight off
        the float32 matrix, so no 2×-size float64 temporary is ever
        materialized (the scan is memory-bandwidth-bound; the fused
        form measured 2.7× faster than normalize-then-gemv and agrees
        with knn_brute to ~1e-16, far inside the round-6 contract). A
        kept file's norms are computed once; its scores are the same
        einsum on the same arrays, so a warm query's scores equal the
        cold query's bit for bit."""
        import pyarrow.parquet as pq

        def decode(f: str) -> tuple:
            t = pq.read_table(f, columns=[id_col, emb_col])
            m = _as_matrix(t, emb_col)
            nrm = np.sqrt(np.einsum("ij,ij->i", m, m, dtype=np.float64))
            nrm[nrm == 0] = 1.0
            return t.column(id_col).combine_chunks(), m, nrm

        keys = [(f, id_col, emb_col) for f in paths]
        got = {k: self.decoded.get(k) for k in keys}
        missing = [k for k, d in got.items() if d is None]
        if missing:
            from concurrent.futures import ThreadPoolExecutor

            others = sum(s.cached_rows for s in _IVF_PROC_CACHE.values()
                         if s is not self)
            with ThreadPoolExecutor(min(8, len(missing))) as ex:
                for k, d in zip(missing,
                                ex.map(decode, [k[0] for k in missing])):
                    got[k] = d
                    n = self._rows[k[0]] = len(d[0])
                    if (others + self.cached_rows + n
                            <= config.KNN_LOCAL_ROWS):
                        self.decoded[k] = d
                        self.cached_rows += n
        parts = [got[k] for k in keys]
        return (pa.concat_arrays([ids for ids, _, _ in parts]),
                np.concatenate([np.einsum("ij,j->i", m, q, dtype=np.float64)
                                / nrm for _, m, nrm in parts]))


# marker path → the snapshot of the index last read or built there
_IVF_PROC_CACHE: dict[str, _IvfSnapshot] = {}


def _ivf_snapshot(index_dir: str, embeddings_ds, dim: int, nlist: int,
                  iters: int, id_col: str, emb_col: str, fingerprint: str,
                  resume: bool) -> _IvfSnapshot:
    """:func:`ensure_ivf_index` returning the process's snapshot of the
    index (see ``_IvfSnapshot``). A warm call whose snapshot is still
    the published index costs one ``stat`` of the marker."""
    import json
    import os

    tag = f"ivfx-d{dim}-n{nlist}-i{iters}"
    path = os.path.join(index_dir, tag)
    marker = os.path.join(path, SUCCESS)
    want = json.dumps({"fingerprint": fingerprint, "tag": tag})
    if resume:
        try:
            st = os.stat(marker)
            snap = _IVF_PROC_CACHE.get(marker)
            if snap is not None and snap.ident == (st.st_ino, st.st_mtime_ns,
                                                   want):
                return snap
        except FileNotFoundError:
            pass
    publish_dir(path, want, lambda tmp: _build_ivf_index(
        tmp, embeddings_ds, dim, nlist, iters, id_col, emb_col), resume)
    with open(marker) as f:
        st = os.fstat(f.fileno())
        ident = (st.st_ino, st.st_mtime_ns, f.read())
    snap = _IVF_PROC_CACHE[marker] = _IvfSnapshot(
        ident, np.load(os.path.join(path, "centroids.npy")),
        os.path.join(path, "lists"))
    return snap


def _build_ivf_index(tmp: str, embeddings_ds, dim: int, nlist: int,
                     iters: int, id_col: str, emb_col: str) -> None:
    """Write the index of :func:`ensure_ivf_index` into ``tmp``."""
    import os

    import ray

    if callable(embeddings_ds):
        embeddings_ds = embeddings_ds()
    cents = kmeans_centroids(embeddings_ds, dim, nlist, iters, id_col,
                             emb_col)
    np.save(os.path.join(tmp, "centroids.npy"), cents)
    ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        m = _normalize(_as_matrix(batch, emb_col).astype(np.float64))
        lists = np.argmax(m @ c.T, axis=1).astype(np.int64)
        return batch.append_column("list_id", pa.array(lists, pa.int64()))

    # sort by list before the partitioned write: write_parquet's
    # partition_cols split each BLOCK per list, so 128 input blocks ×
    # nlist lists wrote ~24 fragments per list — per-file read overhead
    # then dominated warm serving. Range-partitioned by the sort, each
    # list lands in ~1-2 contiguous fragments (one-time build cost).
    embeddings_ds.map_batches(
        assign, batch_format="pyarrow", batch_size=8192
    ).sort("list_id").write_parquet(
        os.path.join(tmp, "lists"), partition_cols=["list_id"]
    )


def ensure_ivf_index(index_dir: str, embeddings_ds, dim: int,
                     nlist: int = 64, iters: int = 5,
                     id_col: str = "vec_id", emb_col: str = "embedding",
                     fingerprint: str = "", resume: bool = True):
    """Full serving-mode IVF index: the quantizer PLUS the vectors
    themselves written as parquet partitioned by list assignment
    (``lists/list_id=<i>/``).  A query then reads ONLY its ``nprobe``
    probed lists' partitions — the inverted-file read-pruning that makes
    IVF sublinear — instead of re-scanning (and re-assigning) the whole
    embeddings table per query.  Published with ``state.checkpoint.publish_dir`` under
    the source ``fingerprint`` and the quantizer params.  Returns
    ``(centroids, lists_path)``.

    ``embeddings_ds`` may be a zero-arg callable returning the Dataset
    — it is resolved ONLY on a build, so a warm serving call never
    constructs (or resumes) the source pipeline (VERDICT r4 task 3).
    The process keeps one snapshot per index (centroids, list files,
    decoded lists — see :func:`knn_ivf`), keyed by the ``_SUCCESS``
    marker's inode and mtime as well as its content, so a warm call
    skips the np.load, and a rebuild — here, which replaces the
    snapshot, or by another process, which replaces the marker file —
    is never served from the old one."""
    snap = _ivf_snapshot(index_dir, embeddings_ds, dim, nlist, iters,
                         id_col, emb_col, fingerprint, resume)
    return snap.cents, snap.lists_path


def knn_ivf(embeddings_ds, query_vec, dim: int, k: int = 10, nlist: int = 64,
            nprobe: int = 8, iters: int = 5,
            id_col: str = "vec_id", emb_col: str = "embedding",
            index_dir: str | None = None, fingerprint: str = ""):
    """IVF approximate top-k (the second SURVEY scale path next to LSH):
    coarse-quantize with k-means lists, probe the query's ``nprobe``
    nearest lists, exact re-rank inside. Pass ``index_dir`` for serving
    mode: the quantizer AND the list-partitioned vectors persist once
    (:func:`ensure_ivf_index`) and a query READS ONLY its probed lists'
    parquet partitions — sublinear serving, no full scan, no per-query
    assignment pass. Without ``index_dir`` the quantizer trains
    in-process and assignment is a shuffle-free per-batch filter
    (batch mode). ``embeddings_ds`` may be a zero-arg callable — in
    serving mode it is only resolved on a cold index build, so a warm
    query never constructs the source pipeline (VERDICT r4 task 3).

    Serving mode keeps what a small probe decodes: the process's
    snapshot of the index (``_IvfSnapshot``) holds each list's part-file
    names, each decoded part file's row count and each decoded part
    file (ids, float32 matrix, float64 row norms), the decoded ones up
    to ``config.KNN_LOCAL_ROWS`` rows over all of the process's
    snapshots — the same bound as one local probe set, read at call
    time. Past it a file is read as before and nothing is evicted. A repeated probe set thus opens no
    file, and its scores equal the cold query's bit for bit. A rebuilt
    index gets a new snapshot (see :func:`ensure_ivf_index`)."""
    import ray

    q = np.asarray(query_vec, dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)

    if index_dir is not None:
        snap = _ivf_snapshot(index_dir, embeddings_ds, dim, nlist, iters,
                             id_col, emb_col, fingerprint, True)
        probes = np.argsort(-(snap.cents @ q))[:nprobe].tolist()
        paths = snap.list_files(probes)
        if not paths:  # pragma: no cover - defensive
            if callable(embeddings_ds):
                embeddings_ds = embeddings_ds()
            return knn_brute(embeddings_ds, q, k, id_col, emb_col)

        import ray.data

        # Small-probe fast path (the graph family's local-solve pattern):
        # when the probed lists are modest — known from the parquet
        # footers alone, a few KB of metadata reads — a full Ray Dataset
        # (plan + task launch + all-to-all sort) is pure fixed overhead
        # on top of ~0.3 s of actual work. Score the probed partitions
        # in-process (``_IvfSnapshot.scored``) and take top-k with
        # knn_brute's exact (score desc, id asc) tie-break. Above the
        # threshold (100 TB serving: nprobe lists are GBs), the
        # distributed path below does the same math in parallel.
        if snap.rows_at_most(paths, config.KNN_LOCAL_ROWS):
            ids, scores = snap.scored(paths, q, id_col, emb_col)
            out = pa.table({
                id_col: ids, "score": pa.array(scores, pa.float64()),
            }).sort_by([("score", "descending"), (id_col, "ascending")])
            return ray.data.from_arrow(out.slice(0, k))

        candidates = ray.data.read_parquet(paths, columns=[id_col, emb_col])
        return knn_brute(candidates, q, k, id_col, emb_col)

    if callable(embeddings_ds):
        embeddings_ds = embeddings_ds()
    cents = kmeans_centroids(embeddings_ds, dim, nlist, iters, id_col,
                             emb_col)
    probes = set(np.argsort(-(cents @ q))[:nprobe].tolist())
    ref = ray.put((cents, probes))

    def in_probed_lists(batch: pa.Table) -> pa.Table:
        c, pr = ray.get(ref)
        m = _normalize(_as_matrix(batch, emb_col).astype(np.float64))
        assign = np.argmax(m @ c.T, axis=1)
        keep = np.isin(assign, list(pr))
        return batch.filter(pa.array(keep))

    candidates = embeddings_ds.map_batches(
        in_probed_lists, batch_format="pyarrow", batch_size=8192
    )
    return knn_brute(candidates, q, k, id_col, emb_col)


def knn_ivfpq_rerank(embeddings_ds, query_vec, dim: int, k: int = 10,
                     rerank_factor: int = 4, nlist: int = 64,
                     nprobe: int = 8, m: int = 8, nbits: int = 8,
                     iters: int = 5, id_col: str = "vec_id",
                     emb_col: str = "embedding", index_dir: str = None,
                     fingerprint: str = ""):
    """IVF-PQ with exact re-rank (the FAISS ``IndexRefineFlat``
    production pattern): the compressed ADC scan nominates
    ``rerank_factor × k`` candidates cheaply (m bytes/vector over the
    probed lists), then ONLY those candidates are re-read in full
    precision from the flat IVF index and rescored exactly — PQ's
    quantization error is confined to the nomination stage, so top-k
    quality approaches IVF-flat at PQ's scan cost. Both indexes share
    the deterministic k-means quantizer (same input, params, seed), so
    every nominated candidate provably lives in a probed flat
    partition — the re-read is sublinear too, pruned to the probed
    lists and filtered to candidate ids at the parquet layer. Returns
    the knn_brute schema: Dataset (id, score) sorted (desc, id asc)."""
    import pyarrow.parquet as pq
    import ray.data

    if index_dir is None:
        raise ValueError("knn_ivfpq_rerank is serving-mode only: "
                         "pass index_dir")
    cand = knn_ivfpq(
        embeddings_ds, query_vec, dim, k=max(k, rerank_factor * k),
        nlist=nlist, nprobe=nprobe, m=m, nbits=nbits, iters=iters,
        id_col=id_col, emb_col=emb_col, index_dir=index_dir,
        fingerprint=fingerprint,
    ).take_all()  # bounded: rerank_factor × k nominee rows
    cand_ids = [r[id_col] for r in cand]

    snap = _ivf_snapshot(index_dir, embeddings_ds, dim, nlist, iters,
                         id_col, emb_col, fingerprint, True)
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    probes = np.argsort(-(snap.cents @ q))[:nprobe].tolist()
    paths = snap.list_files(probes)
    if not paths:  # pragma: no cover - defensive
        if callable(embeddings_ds):
            embeddings_ds = embeddings_ds()
        return knn_brute(embeddings_ds, q, k, id_col, emb_col)

    # The candidate set is ≤ rerank_factor × k rows by construction, so
    # the exact pass is footer/stats-pruned parquet reads of just those
    # rows — in-process below the same row threshold knn_ivf uses for
    # its local fast path, a filtered Dataset scan of the probed
    # partitions above it.
    id_filter = pc.field(id_col).isin(cand_ids)
    if snap.rows_at_most(paths, config.KNN_LOCAL_ROWS):
        t = pa.concat_tables([
            pq.read_table(f, columns=[id_col, emb_col], filters=id_filter)
            for f in paths
        ])
        mat = _as_matrix(t, emb_col)
        dots = np.einsum("ij,j->i", mat, q, dtype=np.float64)
        nrm = np.sqrt(np.einsum("ij,ij->i", mat, mat, dtype=np.float64))
        nrm[nrm == 0] = 1.0
        out = pa.table({
            id_col: t.column(id_col).combine_chunks(),
            "score": pa.array(dots / nrm, pa.float64()),
        }).sort_by([("score", "descending"), (id_col, "ascending")])
        return ray.data.from_arrow(out.slice(0, k))

    flat = ray.data.read_parquet(paths, columns=[id_col, emb_col])
    id_set = pa.array(cand_ids)

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_in(batch.column(id_col),
                                     value_set=id_set))

    return knn_brute(
        flat.map_batches(keep, batch_format="pyarrow"),
        q, k, id_col, emb_col,
    )


def exact_cosine_pairs(embeddings_ds, threshold: float,
                       num_blocks: int = 8,
                       id_col: str = "vec_id", emb_col: str = "embedding",
                       ndigits: int = 6):
    """EXACT all-pairs cosine ≥ ``threshold`` — the recall-1.0 baseline
    next to :func:`cosine_near_dup_pairs` (whose LSH bucketing trades
    recall for work). Returns Dataset (id_a, id_b, cosine) with
    ``id_a < id_b``.

    Distribution is triangle blocking (the standard block decomposition
    of all-pairs similarity): rows hash into ``num_blocks`` blocks; each
    unordered block pair (i ≤ j) is one partition of the exchange, and a
    row in block b replicates to the ``num_blocks`` pairs containing b.
    Per-partition memory is O(2·n/num_blocks) rows and every unordered
    row pair is scored exactly once (block i × block j cross product, or
    the in-block upper triangle when i == j), as one numpy matmul.

    Scale contract: all-pairs is inherently O(n²) compute no matter how
    it is partitioned — this operator exists as the exact
    baseline/verifier; at corpus scale run it AFTER a candidate
    generator (LSH buckets, dedup bands) has cut n, and size
    ``num_blocks`` ~ sqrt(cluster parallelism) so the B(B+1)/2
    partitions cover the cluster while replication stays ×B."""
    B = int(num_blocks)
    if B < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")

    def replicate(batch: pa.Table) -> pa.Table:
        slim = batch.select([id_col, emb_col])
        ids = slim.column(id_col).to_pandas()
        blk = (pd.util.hash_pandas_object(ids, index=False) % B).to_numpy(
        ).astype(np.int64)
        outs = []
        for other in range(B):
            i = np.minimum(blk, other)
            j = np.maximum(blk, other)
            outs.append(
                slim.append_column("__blk", pa.array(blk, pa.int64()))
                .append_column("__pair", pa.array(i * B + j, pa.int64()))
            )
        return pa.concat_tables(outs)

    def score_partition(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
        if tbl.num_rows == 0:
            return empty
        frames = []
        # the exchange partitions by hash(__pair): one partition may hold
        # several block pairs — sort once, then resolve each run locally
        tbl = tbl.sort_by("__pair")
        pids, starts, lens = np.unique(tbl.column("__pair").to_numpy(),
                                       return_index=True, return_counts=True)
        for pid, start, n in zip(pids, starts, lens):
            grp = tbl.slice(int(start), int(n))
            i, j = divmod(int(pid), B)
            blks = grp.column("__blk").to_numpy()
            if i == j:
                sub = grp.sort_by(id_col)
                ids = sub.column(id_col).to_numpy()
                m = _normalize(_as_matrix(sub, emb_col).astype(np.float64))
                sims = m @ m.T
                ai, bi = np.triu_indices(len(ids), k=1)
                vals = sims[ai, bi]
                ida, idb = ids[ai], ids[bi]
            else:
                a = grp.filter(pa.array(blks == i)).sort_by(id_col)
                b = grp.filter(pa.array(blks == j)).sort_by(id_col)
                if a.num_rows == 0 or b.num_rows == 0:
                    continue
                ma = _normalize(_as_matrix(a, emb_col).astype(np.float64))
                mb = _normalize(_as_matrix(b, emb_col).astype(np.float64))
                sims = ma @ mb.T
                ai, bi = np.nonzero(np.ones_like(sims, dtype=bool))
                vals = sims[ai, bi]
                ida = a.column(id_col).to_numpy()[ai]
                idb = b.column(id_col).to_numpy()[bi]
            keep = vals >= threshold
            if not keep.any():
                continue
            ida, idb, vals = ida[keep], idb[keep], vals[keep]
            lo = np.minimum(ida, idb)
            hi = np.maximum(ida, idb)
            frames.append(
                pa.table(
                    {
                        "id_a": pa.array(lo, pa.int64()),
                        "id_b": pa.array(hi, pa.int64()),
                        "cosine": pa.array(sql_round(vals, ndigits),
                                           pa.float64()),
                    }
                )
            )
        if not frames:
            return empty
        return pa.concat_tables(frames)

    replicated = embeddings_ds.map_batches(
        replicate, batch_format="pyarrow", batch_size=8192
    )
    return grouped_apply(
        replicated, ["__pair"], score_partition,
        num_partitions=max(32, B * (B + 1) // 2),
        batch_format="pyarrow",
    ).sort(["id_a", "id_b"])


def cosine_near_dup_pairs(embeddings_ds, dim: int, threshold: float = 0.95,
                          bits: int = 10, seed: int = 42,
                          id_col: str = "vec_id", emb_col: str = "embedding",
                          max_bucket: int = 512):
    """Embedding near-dup pairs: LSH-bucket, exact cosine within buckets.
    Returns Dataset (id_a, id_b, cosine). Pairs split across buckets are
    missed with probability (1-sim_angle)^bits — raise bits/probes or use
    band-style multi-tables for tighter recall (documented trade-off).
    Oversized buckets (near-identical embeddings, e.g. empty docs) are
    split by a secondary id hash (``capped_subgroups``) so per-bucket
    work is bounded by max_bucket² instead of going quadratic."""
    from ..functions.dedup import capped_subgroups, group_salt

    bucketed = lsh_buckets(embeddings_ds, dim, bits, seed, id_col, emb_col)

    def partition_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"id_a": pd.Series([], dtype="int64"),
             "id_b": pd.Series([], dtype="int64"),
             "cosine": pd.Series([], dtype="float64")}
        )
        if len(pdf) == 0:
            return empty
        sizes = pdf.groupby("bucket")[id_col].transform("size")
        multi = pdf[sizes >= 2]
        frames = []
        for key, group in multi.groupby("bucket", sort=True):
            for sub in capped_subgroups(group.sort_values(id_col), id_col,
                                        max_bucket, salt=group_salt(key)):
                if len(sub) < 2:
                    continue
                ids = sub[id_col].to_numpy()
                m = np.stack(
                    [np.asarray(v, dtype=np.float64) for v in sub[emb_col]]
                )
                m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True),
                                   1e-12)
                sims = m @ m.T
                ai, bi = np.triu_indices(len(ids), k=1)
                vals = sims[ai, bi]
                keep = vals >= threshold
                if keep.any():
                    frames.append(
                        pd.DataFrame(
                            {
                                "id_a": ids[ai][keep],
                                "id_b": ids[bi][keep],
                                "cosine": vals[keep],
                            }
                        )
                    )
        if not frames:
            return empty
        return pd.concat(frames, ignore_index=True)

    return grouped_apply(bucketed, ["bucket"], partition_pairs,
                         batch_format="pandas")


def grouped_centroids(embeddings_ds, label_col: str = "label",
                      emb_col: str = "embedding",
                      out_col: str = "centroid", ndigits: int = 6):
    """Per-label embedding centroid (the class-prototype computation
    behind centroid classifiers, cluster summaries and
    embedding-drift monitoring), emitted LONG-FORM as
    ``(label, dim, centroid)`` with 1-based dims so a SQL oracle can
    reproduce it via unnest+avg.

    Scale shape: each batch reduces to one (Σvector, count) pair per
    label present (vectorized ``np.add.at`` over factorized labels), so
    the one exchange ships ``labels-per-batch`` rows of ``dim`` doubles
    — never the raw vectors; the final divide + dim-explode is
    vectorized per partition."""
    import pandas as pd

    def partial(batch: pa.Table) -> pd.DataFrame:
        m = _as_matrix(batch, emb_col).astype(np.float64)
        labels = batch.column(label_col).to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), m.shape[1]), np.float64)
        np.add.at(sums, codes, m)
        counts = np.bincount(codes, minlength=len(uniq))
        return pd.DataFrame({
            label_col: uniq.astype(np.int64),
            "__sum": list(sums),
            "__n": counts.astype(np.int64),
        })

    def final(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lab, g in pdf.groupby(label_col, sort=True):
            s = np.sum(np.stack(g["__sum"].to_numpy()), axis=0)
            c = s / g["__n"].sum()
            rows.append((lab, c))
        dim = len(rows[0][1]) if rows else 0
        return pd.DataFrame({
            label_col: np.repeat([r[0] for r in rows], dim),
            "dim": np.tile(np.arange(1, dim + 1), len(rows)),
            out_col: np.concatenate([r[1] for r in rows])
            if rows else np.array([]),
        })

    sk = combine(embeddings_ds, partial)
    out = grouped_apply(sk, [label_col], final,
                        batch_format="pandas")

    def rounded(b: pa.Table) -> pa.Table:
        return pa.table({
            label_col: pc.cast(b.column(label_col), pa.int64()),
            "dim": pc.cast(b.column("dim"), pa.int64()),
            out_col: sql_round(b.column(out_col), ndigits),
        })

    return out.map_batches(rounded, batch_format="pyarrow")


def knn_join(corpus_ds, query_ids, query_matrix, k: int = 3,
             id_col: str = "vec_id", emb_col: str = "embedding",
             qid_col: str = "qid"):
    """Vector similarity JOIN: for every query vector, the exact cosine
    top-k rows of the corpus — the broadcast nearest-neighbor join
    (query side small by contract, e.g. a probe set or a centroid
    table; for corpus×corpus all-pairs see ``cosine_near_dup_pairs``).

    Scale shape: the normalized query matrix broadcasts ONCE via
    ``ray.put``; each corpus batch computes one q×b matmul and keeps
    only its local top-k per query (a combiner — k·q rows leave each
    batch regardless of batch size); one hash exchange on ``qid_col``
    merges the partials into exact global top-k. The corpus never
    shuffles; ties break by ascending corpus id. Emits
    ``(qid, id, score, rnk)`` with 1-based rank."""
    import ray

    qids = np.asarray(query_ids)
    Q = _normalize(np.asarray(query_matrix, dtype=np.float64))
    qref = ray.put((qids, Q))

    def partial(batch: pa.Table) -> pa.Table:
        qi, Qm = ray.get(qref)
        if batch.num_rows == 0:
            return pa.table({
                qid_col: pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "score": pa.array([], pa.float64()),
            })
        m = _normalize(_as_matrix(batch, emb_col).astype(np.float64))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        s = Qm @ m.T  # (q, b)
        kk = min(k, s.shape[1])
        order = np.lexsort(
            (np.broadcast_to(ids, s.shape), -s), axis=1
        )[:, :kk]
        rows = np.arange(len(qi))[:, None]
        return pa.table({
            qid_col: pa.array(np.repeat(qi, kk), pa.int64()),
            id_col: pa.array(ids[order].ravel(), pa.int64()),
            "score": pa.array(s[rows, order].ravel(), pa.float64()),
        })

    def merge(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas().sort_values(
            [qid_col, "score", id_col],
            ascending=[True, False, True], kind="stable",
        )
        top = pdf.groupby(qid_col, sort=True).head(k).copy()
        top["rnk"] = top.groupby(qid_col, sort=False).cumcount() + 1
        top["score"] = sql_round(top["score"], 6)
        return pa.Table.from_pandas(top, preserve_index=False)

    partials = combine(corpus_ds, partial, batch_size=8192)
    return grouped_apply(partials, [qid_col], merge,
                         batch_format="pyarrow")


def ann_recall_eval(embeddings_ds, dim: int, k: int = 10,
                    n_queries: int = 20, nlist: int = 16, nprobe: int = 4,
                    bits: int = 8, probe_radius: int = 2, seed: int = 42,
                    id_col: str = "vec_id", emb_col: str = "embedding",
                    ndigits: int = 4,
                    m: int = 8, nbits: int = 6, rerank_factor: int = 4):
    """Recall@k of the ANN detectors against exact truth — the ANN
    family's tuning-loop query (the `dedup_eval` pattern): how much
    recall do IVF list-probing (nprobe/nlist), LSH multi-probe
    (bits/probe_radius), full-scan PQ/ADC (m/nbits), IVF-PQ, and
    IVF-PQ + exact re-rank (rerank_factor) give up versus the exact
    broadcast join, per parameter choice, measured on the corpus
    itself. Returns pa.Table (method, recall_at_k, n_queries, k) with
    method ∈ {ivf, lsh, pq, ivfpq, ivfpq_rerank}.

    Scale shape: ONE corpus pass scores every method for all
    ``n_queries`` queries simultaneously — the normalized query matrix,
    IVF centroid lookup, LSH probe-code sets, PQ codebooks and
    per-query ADC LUTs broadcast once via ``ray.put``; each batch
    computes a single q×b matmul plus an m-gather ADC matrix, derives
    each method's candidate mask from the batch's own assignments
    (rows outside a query's probed lists/buckets score -inf), and
    forwards only its per-(method, query) top-k (a combiner — O(q·k)
    rows per method leave a batch regardless of size; the re-rank
    method forwards its rerank_factor×k nominee pool carrying BOTH the
    ADC distance and the true cosine, so the merge can replay the
    exact two-stage semantics: global top-C by ADC, then top-k of
    those by true cosine). One hash exchange on (method, qid) merges
    partials; the driver folds the few-hundred survivor rows into the
    recall numbers. The corpus never shuffles. Queries are the
    ``n_queries`` smallest ids (deterministic); truth and detectors
    share the same (score desc, id asc) tie-break so recall is exact,
    not tie-dependent."""
    import ray
    import ray.data

    qrows = embeddings_ds.sort(id_col).limit(n_queries).take_all()
    qids = np.asarray([r[id_col] for r in qrows], np.int64)
    Q = _normalize(np.asarray([r[emb_col] for r in qrows], np.float64))

    cents = kmeans_centroids(embeddings_ds, dim, nlist, 5, id_col, emb_col)
    # (nlist, q) bool: is list l probed by query i?
    probe_lists = np.zeros((nlist, len(qids)), bool)
    for i in range(len(qids)):
        probe_lists[np.argsort(-(cents @ Q[i]))[:nprobe], i] = True

    import itertools

    planes = _hyperplanes(dim, bits, seed)
    qcodes = lsh_code(Q.astype(np.float32), planes)
    probe_codes = []  # per query: sorted array of probed bucket codes
    for c in qcodes:
        codes = {int(c)}
        for r in range(1, probe_radius + 1):
            for flips in itertools.combinations(range(bits), r):
                x = int(c)
                for b in flips:
                    x ^= 1 << b
                codes.add(x)
        probe_codes.append(np.asarray(sorted(codes), np.int64))
    books = pq_train_codebooks(embeddings_ds, dim, m=m, nbits=nbits,
                               iters=3, id_col=id_col, emb_col=emb_col)
    luts = np.stack([adc_table(Q[i], books) for i in range(len(qids))])
    C = rerank_factor * k
    ref = ray.put((qids, Q, cents, probe_lists, planes, probe_codes,
                   books, luts))

    def partial(batch: pa.Table) -> pa.Table:
        qi, Qm, c, plists, pl, pcodes, bk, lt = ray.get(ref)
        empty = pa.table({
            "method": pa.array([], pa.string()),
            "qid": pa.array([], pa.int64()),
            id_col: pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
            "adc": pa.array([], pa.float64()),
        })
        if batch.num_rows == 0:
            return empty
        x = _normalize(_as_matrix(batch, emb_col).astype(np.float64))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        s = Qm @ x.T  # (q, b)
        assign = np.argmax(x @ c.T, axis=1)           # IVF list per row
        codes = lsh_code(x.astype(np.float32), pl)    # LSH bucket per row
        mm, _ksub, dsub = bk.shape
        pq_codes = np.empty((len(ids), mm), np.intp)  # PQ code per row
        for sub in range(mm):
            xs = x[:, sub * dsub:(sub + 1) * dsub]
            d = ((xs * xs).sum(1)[:, None]
                 - 2.0 * xs @ bk[sub].T
                 + (bk[sub] * bk[sub]).sum(1)[None, :])
            pq_codes[:, sub] = np.argmin(d, axis=1)
        adc = np.zeros((len(qi), len(ids)), np.float64)  # (q, b)
        for sub in range(mm):
            adc += lt[:, sub, pq_codes[:, sub]]
        ivf_mask = plists[assign].T                   # (q, b)
        # (selection score, reported score, pool size) per method. The
        # PQ family selects by NEGATED ADC distance (asc dist == desc
        # score, id-asc tie-break — _adc_scan's exact order); the
        # re-rank method reports the TRUE cosine and rides the ADC
        # distance along so the merge can replay nomination exactly.
        specs = {
            "brute": (s, s, k),
            "ivf": (np.where(ivf_mask, s, -np.inf), s, k),
            "lsh": (np.where(
                np.stack([np.isin(codes, pc_) for pc_ in pcodes]),
                s, -np.inf), s, k),
            "pq": (-adc, -adc, k),
            "ivfpq": (np.where(ivf_mask, -adc, -np.inf), -adc, k),
            "ivfpq_rerank": (np.where(ivf_mask, -adc, -np.inf), s, C),
        }
        out = []
        for method, (sel, rep, pool) in specs.items():
            kk = min(pool, sel.shape[1])
            order = np.lexsort(
                (np.broadcast_to(ids, sel.shape), -sel), axis=1
            )[:, :kk]
            rows = np.arange(len(qi))[:, None]
            keep = np.isfinite(sel[rows, order]).ravel()
            out.append(pa.table({
                "method": pa.array(
                    np.repeat(method, keep.sum()), pa.string()),
                "qid": pa.array(np.repeat(qi, kk)[keep], pa.int64()),
                id_col: pa.array(ids[order].ravel()[keep], pa.int64()),
                "score": pa.array(rep[rows, order].ravel()[keep],
                                  pa.float64()),
                "adc": pa.array(adc[rows, order].ravel()[keep],
                                pa.float64()),
            }))
        return pa.concat_tables(out) if out else empty

    def merge(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        rer = pdf[pdf["method"] == "ivfpq_rerank"]
        rest = pdf[pdf["method"] != "ivfpq_rerank"].sort_values(
            ["method", "qid", "score", id_col],
            ascending=[True, True, False, True], kind="stable",
        ).groupby(["method", "qid"], sort=True).head(k)
        if len(rer):
            # exact two-stage replay: global top-C nominees by ADC
            # distance (asc, id asc), then top-k of those by true
            # cosine (desc, id asc)
            rer = rer.sort_values(
                ["method", "qid", "adc", id_col],
                ascending=[True, True, True, True], kind="stable",
            ).groupby(["method", "qid"], sort=True).head(C)
            rer = rer.sort_values(
                ["method", "qid", "score", id_col],
                ascending=[True, True, False, True], kind="stable",
            ).groupby(["method", "qid"], sort=True).head(k)
        return pa.Table.from_pandas(
            pd.concat([rest, rer]), preserve_index=False,
        )

    top = grouped_apply(
        combine(embeddings_ds, partial, batch_size=8192),
        ["method", "qid"], merge,
        batch_format="pyarrow",
    ).take_all()

    methods = ("ivf", "lsh", "pq", "ivfpq", "ivfpq_rerank")
    truth: dict[int, set] = {}
    pred: dict[str, dict[int, set]] = {mth: {} for mth in methods}
    for r in top:
        d = truth if r["method"] == "brute" else pred[r["method"]]
        d.setdefault(r["qid"], set()).add(r[id_col])
    rows = []
    for method in methods:
        hits = sum(len(pred[method].get(q_, set()) & t)
                   for q_, t in truth.items())
        denom = sum(len(t) for t in truth.values())
        rows.append({
            "method": method,
            "recall_at_k": sql_round(hits / denom, ndigits) if denom else 1.0,
            "n_queries": len(truth),
            "k": k,
        })
    return pa.Table.from_pylist(rows)


def embedding_pca(ds, n_components: int = 2, id_col: str = "vec_id",
                  emb_col: str = "embedding", ndigits: int = 6):
    """Distributed PCA projection of an embedding column — the classic
    two-pass sufficient-statistics design: every batch reduces to
    ``(n, Σx, ΣxᵀX)`` (one d-vector + one d×d matrix, bytes-packed), so
    the covariance arrives at the driver as a constant-size stream
    regardless of corpus size; the d×d eigendecomposition runs once on
    the driver (d is the embedding dim, tiny); projection is a pure
    map stage against the broadcast component matrix. Component signs
    are fixed deterministically (largest-|coefficient| entry positive).
    Returns (id, pc0..pc{c-1}) rounded to ``ndigits``."""
    import ray

    def stats(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch, emb_col).astype(np.float64)
        return pa.table({
            "n": pa.array([m.shape[0]], pa.int64()),
            "s": pa.array([m.sum(axis=0).tobytes()], pa.binary()),
            "ss": pa.array([(m.T @ m).tobytes()], pa.binary()),
        })

    n = 0
    s = None
    ss = None
    for part in ds.map_batches(
        stats, batch_format="pyarrow"
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        for nn, sb, ssb in zip(part.column("n").to_pylist(),
                               part.column("s").to_pylist(),
                               part.column("ss").to_pylist()):
            n += nn
            sv = np.frombuffer(sb, dtype=np.float64)
            if s is None:
                s = sv.copy()
                d = len(sv)
                ss = np.zeros((d, d))
            else:
                s += sv
            ss += np.frombuffer(ssb, dtype=np.float64).reshape(len(sv), -1)
    if n < 2:
        raise ValueError("embedding_pca needs at least 2 rows")
    mu = s / n
    cov = (ss - n * np.outer(mu, mu)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:n_components]
    W = evecs[:, order]
    # deterministic sign: the largest-|coefficient| entry is positive
    for j in range(W.shape[1]):
        i = int(np.argmax(np.abs(W[:, j])))
        if W[i, j] < 0:
            W[:, j] = -W[:, j]
    ref = ray.put((mu, W))

    def project(batch: pa.Table) -> pa.Table:
        mu_, W_ = ray.get(ref)
        m = _as_matrix(batch, emb_col).astype(np.float64)
        p = (m - mu_) @ W_
        out = {id_col: batch.column(id_col)}
        for j in range(W_.shape[1]):
            out[f"pc{j}"] = pa.array(sql_round(p[:, j], ndigits),
                                     pa.float64())
        return pa.table(out)

    return ds.map_batches(project, batch_format="pyarrow")


def kmeans_assign(embeddings_ds, dim: int, nlist: int = 8, iters: int = 5,
                  id_col: str = "vec_id", emb_col: str = "embedding"):
    """Cluster-assignment view of the deterministic distributed k-means
    the IVF quantizer trains (:func:`kmeans_centroids`): every vector
    gets its nearest (spherical) centroid id — the standard embedding-
    clustering operator (topic bucketing, diversity sampling, IVF list
    layout).  Centroids broadcast via ``ray.put``; assignment is one
    pure map pass.  Returns (id, cluster)."""
    import ray

    cents = kmeans_centroids(embeddings_ds, dim, nlist, iters,
                             id_col, emb_col)
    ref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        m = _normalize(_as_matrix(batch, emb_col).astype(np.float64))
        return pa.table({
            id_col: batch.column(id_col),
            "cluster": pa.array(np.argmax(m @ c.T, axis=1), pa.int64()),
        })

    return embeddings_ds.map_batches(assign, batch_format="pyarrow")


# ------------------------- product quantization -----------------------------

def pq_train_codebooks(embeddings_ds, dim: int, m: int = 8,
                       nbits: int = 8, iters: int = 5,
                       id_col: str = "vec_id",
                       emb_col: str = "embedding") -> np.ndarray:
    """Train product-quantization codebooks (Jégou et al. 2011): split
    the (unit-normalized) vector into ``m`` subspaces and run an
    independent k-means (k = 2**nbits, plain L2) in each — vectors
    compress to ``m`` code bytes, distances come from an m×k lookup
    table (ADC).  The memory scale path beyond IVF: 768-d float32
    (3 KB) → 8 bytes at the defaults.

    Scale shape mirrors :func:`kmeans_centroids`: deterministic min-id
    init, and each Lloyd iteration is ONE streaming pass that updates
    ALL subspaces (per-batch partial (sum, count) per (subspace,
    centroid); the codebook tensor is the broadcast small side).
    Returns (m, 2**nbits, dim//m)."""
    import ray

    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m {m}")
    ksub, dsub = 1 << nbits, dim // m
    init = _min_k_rows(embeddings_ds, ksub, id_col, emb_col)
    base = _normalize(np.stack(
        [np.asarray(r[emb_col], dtype=np.float64) for r in init]))
    books = np.stack([base[:, s * dsub:(s + 1) * dsub]
                      for s in range(m)])  # (m, ksub, dsub)

    for _ in range(iters):
        ref = ray.put(books)

        def partial(batch: pa.Table) -> pa.Table:
            bk = ray.get(ref)
            x = _normalize(_as_matrix(batch, emb_col).astype(np.float64))
            rows = []
            for s in range(m):
                xs = x[:, s * dsub:(s + 1) * dsub]
                d = ((xs * xs).sum(1)[:, None]
                     - 2.0 * xs @ bk[s].T
                     + (bk[s] * bk[s]).sum(1)[None, :])
                assign = np.argmin(d, axis=1)
                sums = np.zeros((ksub, dsub))
                np.add.at(sums, assign, xs)
                counts = np.bincount(assign, minlength=ksub)
                for c in range(ksub):
                    rows.append({"sub": s, "cluster": c,
                                 "sum": sums[c].tolist(),
                                 "count": int(counts[c])})
            return pa.Table.from_pylist(rows, schema=pa.schema([
                ("sub", pa.int32()), ("cluster", pa.int32()),
                ("sum", pa.list_(pa.float64())),
                ("count", pa.int64()),
            ]))

        # same tree-reduce as kmeans_centroids: m×ksub rows per BLOCK
        # merge through one keyed exchange; the driver folds exactly
        # m×ksub rows regardless of corpus size
        agg = _reduce_cluster_partials(
            combine(embeddings_ds, partial, batch_size=8192),
            ["sub", "cluster"],
        )
        sums = np.zeros((m, ksub, dsub))
        counts = np.zeros((m, ksub), dtype=np.int64)
        for r in agg:
            sums[r["sub"], r["cluster"]] += np.asarray(r["sum"])
            counts[r["sub"], r["cluster"]] += r["count"]
        nonempty = counts > 0
        books[nonempty] = sums[nonempty] / counts[nonempty][:, None]
    return books


def pq_encode(embeddings_ds, codebooks: np.ndarray,
              id_col: str = "vec_id", emb_col: str = "embedding"):
    """(id, code: list<uint8>[m]) — each batch encodes against the
    broadcast codebooks; block-layout independent (per-row argmin)."""
    import ray

    m, ksub, dsub = codebooks.shape
    ref = ray.put(codebooks)

    def enc(batch: pa.Table) -> pa.Table:
        bk = ray.get(ref)
        x = _normalize(_as_matrix(batch, emb_col).astype(np.float64))
        codes = np.empty((batch.num_rows, m), np.uint8)
        for s in range(m):
            xs = x[:, s * dsub:(s + 1) * dsub]
            d = ((xs * xs).sum(1)[:, None]
                 - 2.0 * xs @ bk[s].T
                 + (bk[s] * bk[s]).sum(1)[None, :])
            codes[:, s] = np.argmin(d, axis=1).astype(np.uint8)
        return pa.table({
            id_col: batch.column(id_col),
            "code": pa.FixedSizeListArray.from_arrays(
                pa.array(codes.reshape(-1), pa.uint8()), m),
        })

    return embeddings_ds.map_batches(enc, batch_format="pyarrow",
                                     batch_size=8192)


def adc_table(query_vec, codebooks: np.ndarray) -> np.ndarray:
    """Asymmetric-distance lookup table: (m, ksub) squared-L2 partial
    distances from the (normalized) query's subvectors to every
    centroid — one small matrix; scan cost is m gathers per vector."""
    m, ksub, dsub = codebooks.shape
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / max(np.linalg.norm(q), 1e-12)
    lut = np.empty((m, ksub))
    for s in range(m):
        qs = q[s * dsub:(s + 1) * dsub]
        lut[s] = ((codebooks[s] - qs[None, :]) ** 2).sum(1)
    return lut


def knn_pq(embeddings_ds, query_vec, dim: int, k: int = 10, m: int = 8,
           nbits: int = 8, iters: int = 5, id_col: str = "vec_id",
           emb_col: str = "embedding",
           codebooks: np.ndarray | None = None):
    """Approximate top-k by PQ/ADC: train (or reuse) codebooks, encode
    the corpus, scan CODES with the query's lookup table — per-batch
    top-k combiner, global sort over ≤ blocks × k rows.  On unit
    vectors L2 order == cosine order, so this approximates the brute
    cosine ranking at ~dim·4/m× memory compression (recall bound
    tested vs brute)."""
    if codebooks is None:
        codebooks = pq_train_codebooks(embeddings_ds, dim, m=m,
                                       nbits=nbits, iters=iters,
                                       id_col=id_col, emb_col=emb_col)
    codes = pq_encode(embeddings_ds, codebooks, id_col, emb_col)
    return _adc_scan(codes, adc_table(query_vec, codebooks), id_col, k)


def ensure_pq_codebooks(index_dir: str, embeddings_ds, dim: int,
                        m: int = 8, nbits: int = 8, iters: int = 5,
                        id_col: str = "vec_id",
                        emb_col: str = "embedding",
                        fingerprint: str = "",
                        resume: bool = True) -> np.ndarray:
    """Build-once/serve-many PQ codebooks, published with
    ``state.checkpoint.publish_dir`` under the source ``fingerprint``
    and the training params (training must NOT rerun inside every
    query; VERDICT r2 finding 2 applied to PQ from day one)."""
    import json
    import os

    tag = f"pq-d{dim}-m{m}-b{nbits}-i{iters}"
    path = os.path.join(index_dir, tag)

    def build(tmp: str) -> None:
        np.save(os.path.join(tmp, "codebooks.npy"), pq_train_codebooks(
            embeddings_ds, dim, m=m, nbits=nbits, iters=iters,
            id_col=id_col, emb_col=emb_col))

    publish_dir(path, json.dumps({"fingerprint": fingerprint, "tag": tag}),
                build, resume)
    return np.load(os.path.join(path, "codebooks.npy"))


def _adc_scan(codes_ds, lut: np.ndarray, id_col: str, k: int):
    """Scan a (id, code) dataset with an ADC lookup table — per-batch
    top-k combiner, global sort over ≤ blocks × 10k rows."""
    import ray

    lut_ref = ray.put(lut)

    def scan(batch: pa.Table) -> pa.Table:
        t = ray.get(lut_ref)
        mm = t.shape[0]
        c = np.asarray(batch.column("code").combine_chunks()
                       .flatten().to_numpy(zero_copy_only=False)
                       ).reshape(-1, mm)
        dist = t[np.arange(mm)[None, :], c].sum(1)
        order = np.argsort(dist, kind="stable")[:10 * k]
        return pa.table({
            id_col: pc.take(batch.column(id_col), pa.array(order)),
            "adc_dist": pa.array(dist[order], pa.float64()),
        })

    scanned = codes_ds.map_batches(scan, batch_format="pyarrow",
                                   batch_size=65536)
    return scanned.sort(["adc_dist", id_col]).limit(k)


def ensure_ivfpq_index(index_dir: str, embeddings_ds, dim: int,
                       nlist: int = 64, m: int = 8, nbits: int = 8,
                       iters: int = 5, id_col: str = "vec_id",
                       emb_col: str = "embedding",
                       fingerprint: str = "", resume: bool = True):
    """IVF-PQ serving index (the FAISS-style production ANN layout):
    k-means coarse lists + PQ codebooks trained once, and the CODE
    table (id, m-byte code) written partitioned by list assignment —
    a query reads only its probed lists' code partitions and pays m
    LUT gathers per candidate.  No-residual variant (codes encode the
    raw vector, FAISS ``by_residual=False``) — simpler, and exactness
    within a list is already delegated to the ADC bound.  Published with
    ``state.checkpoint.publish_dir`` under the source ``fingerprint``
    and the params.  Returns ``(centroids, codebooks, codes_path)``."""
    import json
    import os

    tag = f"ivfpq-d{dim}-n{nlist}-m{m}-b{nbits}-i{iters}"
    path = os.path.join(index_dir, tag)
    publish_dir(path, json.dumps({"fingerprint": fingerprint, "tag": tag}),
                lambda tmp: _build_ivfpq_index(
                    tmp, embeddings_ds, dim, nlist, m, nbits, iters,
                    id_col, emb_col), resume)
    return (np.load(os.path.join(path, "centroids.npy")),
            np.load(os.path.join(path, "codebooks.npy")),
            os.path.join(path, "codes"))


def _build_ivfpq_index(tmp: str, embeddings_ds, dim: int, nlist: int,
                       m: int, nbits: int, iters: int, id_col: str,
                       emb_col: str) -> None:
    """Write the index of :func:`ensure_ivfpq_index` into ``tmp``."""
    import os

    import ray

    cents = kmeans_centroids(embeddings_ds, dim, nlist, iters, id_col,
                             emb_col)
    books = pq_train_codebooks(embeddings_ds, dim, m=m, nbits=nbits,
                               iters=iters, id_col=id_col,
                               emb_col=emb_col)
    np.save(os.path.join(tmp, "centroids.npy"), cents)
    np.save(os.path.join(tmp, "codebooks.npy"), books)
    ref = ray.put((cents, books))
    mm, ksub, dsub = books.shape

    def assign_encode(batch: pa.Table) -> pa.Table:
        c, bk = ray.get(ref)
        x = _normalize(_as_matrix(batch, emb_col).astype(np.float64))
        lists = np.argmax(x @ c.T, axis=1).astype(np.int64)
        codes = np.empty((batch.num_rows, mm), np.uint8)
        for s in range(mm):
            xs = x[:, s * dsub:(s + 1) * dsub]
            d = ((xs * xs).sum(1)[:, None]
                 - 2.0 * xs @ bk[s].T
                 + (bk[s] * bk[s]).sum(1)[None, :])
            codes[:, s] = np.argmin(d, axis=1).astype(np.uint8)
        return pa.table({
            id_col: batch.column(id_col),
            "code": pa.FixedSizeListArray.from_arrays(
                pa.array(codes.reshape(-1), pa.uint8()), mm),
            "list_id": pa.array(lists, pa.int64()),
        })

    embeddings_ds.map_batches(
        assign_encode, batch_format="pyarrow", batch_size=8192
    ).write_parquet(os.path.join(tmp, "codes"),
                    partition_cols=["list_id"])


def knn_ivfpq(embeddings_ds, query_vec, dim: int, k: int = 10,
              nlist: int = 64, nprobe: int = 8, m: int = 8,
              nbits: int = 8, iters: int = 5, id_col: str = "vec_id",
              emb_col: str = "embedding", index_dir: str = None,
              fingerprint: str = ""):
    """IVF-PQ approximate top-k: probe the ``nprobe`` nearest lists,
    ADC-scan ONLY those partitions' m-byte codes — sublinear reads AND
    compressed candidates (the combination that serves billion-vector
    corpora).  ``index_dir`` is required (this is a serving structure
    by nature; batch-mode full-scan PQ is :func:`knn_pq`)."""
    import glob
    import os

    if index_dir is None:
        raise ValueError("knn_ivfpq is serving-mode only: pass index_dir")
    cents, books, codes_path = ensure_ivfpq_index(
        index_dir, embeddings_ds, dim, nlist=nlist, m=m, nbits=nbits,
        iters=iters, id_col=id_col, emb_col=emb_col,
        fingerprint=fingerprint,
    )
    q = np.asarray(query_vec, dtype=np.float64)
    q = q / (np.linalg.norm(q) or 1.0)
    probes = np.argsort(-(cents @ q))[:nprobe].tolist()
    paths = [
        f for i in probes
        for f in sorted(glob.glob(
            os.path.join(codes_path, f"list_id={i}", "*.parquet")))
    ]
    if not paths:  # pragma: no cover - defensive
        return knn_brute(embeddings_ds, q, k, id_col, emb_col)
    import ray.data

    codes = ray.data.read_parquet(paths, columns=[id_col, "code"])
    return _adc_scan(codes, adc_table(q, books), id_col, k)


def label_separation(embeddings_ds, label_col: str = "label",
                     emb_col: str = "embedding", ndigits: int = 6):
    """Embedding-space cluster-separation audit: per label, the mean
    cosine of members to their own centroid (cohesion) vs the highest
    mean cosine to any OTHER label's centroid (the nearest confusable
    class), and the margin between them — the label-quality report a
    team reads before trusting class labels for semantic dedup,
    stratified sampling or classifier training.  A non-positive
    ``separation`` flags a label whose members sit closer to another
    class's prototype than to their own.

    Scale shape: mean-cosine-to-centroid factors through sums —
    ``mean_m cos(x, c) = (Σ_m x/|x|) · c / (n · |c|)`` — so each batch
    reduces to one (Σx, Σx/|x|, n) triple per label present and raw
    vectors never ride the exchange; ONE constant-key reduce over
    O(labels × batches) rows of ``dim`` doubles assembles the
    labels × labels cosine matrix (labels are bounded; the matrix is
    tiny).  Ties on the nearest-label argmax break to the smallest
    label id."""
    import pandas as pd

    def partial(batch: pa.Table) -> pd.DataFrame:
        m = _as_matrix(batch, emb_col).astype(np.float64)
        nrm = np.linalg.norm(m, axis=1)
        unit = m / nrm[:, None]
        labels = batch.column(label_col).to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), m.shape[1]), np.float64)
        usums = np.zeros((len(uniq), m.shape[1]), np.float64)
        np.add.at(sums, codes, m)
        np.add.at(usums, codes, unit)
        counts = np.bincount(codes, minlength=len(uniq))
        return pd.DataFrame({
            label_col: uniq.astype(np.int64),
            "__sum": list(sums),
            "__u": list(usums),
            "__n": counts.astype(np.int64),
        })

    def final(pdf: pd.DataFrame) -> pa.Table:
        labs: list[int] = []
        S: list[np.ndarray] = []
        U: list[np.ndarray] = []
        N: list[int] = []
        for lab, g in pdf.groupby(label_col, sort=True):
            labs.append(int(lab))
            S.append(np.sum(np.stack(g["__sum"].to_numpy()), axis=0))
            U.append(np.sum(np.stack(g["__u"].to_numpy()), axis=0))
            N.append(int(g["__n"].sum()))
        if not labs:
            return pa.table({
                label_col: pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "intra_cos": pa.array([], pa.float64()),
                "nearest_label": pa.array([], pa.int64()),
                "nearest_cos": pa.array([], pa.float64()),
                "separation": pa.array([], pa.float64()),
            })
        S_m = np.stack(S)
        U_m = np.stack(U)
        n_v = np.array(N, np.float64)
        C = S_m / n_v[:, None]
        cn = np.linalg.norm(C, axis=1)
        # M[l, m] = mean cosine of label l's members to centroid m
        M = (U_m @ C.T) / (n_v[:, None] * cn[None, :])
        k = len(labs)
        intra = np.diag(M).copy()
        off = M.copy()
        np.fill_diagonal(off, -np.inf)
        nearest_idx = np.argmax(off, axis=1)  # ties: smallest label
        nearest = off[np.arange(k), nearest_idx]
        lab_arr = np.array(labs, np.int64)
        t = pa.table({
            label_col: pa.array(lab_arr, pa.int64()),
            "n": pa.array(np.array(N, np.int64), pa.int64()),
            "intra_cos": pa.array(intra, pa.float64()),
            "nearest_label": pa.array(lab_arr[nearest_idx], pa.int64()),
            "nearest_cos": pa.array(nearest, pa.float64()),
            "separation": pa.array(intra - nearest, pa.float64()),
        })
        cols = {}
        for name in t.column_names:
            col = t.column(name)
            if pa.types.is_float64(col.type):
                col = sql_round(col, ndigits)
            cols[name] = col
        return pa.table(cols)

    sk = combine(embeddings_ds.select_columns([label_col, emb_col]),
                 partial)
    return grouped_apply(sk, [], final, batch_format="pandas")


def label_outliers(embeddings_ds, label_col: str = "label",
                   emb_col: str = "embedding", id_col: str = "vec_id",
                   z_thresh: float = -2.0, ndigits: int = 6):
    """Per-point label-noise mining: each vector's cosine to its OWN
    label centroid, z-scored within the label, with points more than
    ``|z_thresh|`` standard deviations BELOW their label's mean
    cohesion flagged — the mislabeled-sample shortlist a curation team
    reviews before training a classifier on the labels (the per-point
    sibling of :func:`label_separation`).

    Scale shape: pass 1 folds per-label (Σvector, n) partials to an
    O(labels × dim) centroid dict on the driver (bounded — labels are a
    class enum); pass 2 is a map computing each vector's cosine against
    the broadcast centroid matrix plus ONE label-keyed exchange for the
    within-label moments and z-scores.  Labels with fewer than two
    members emit a null z (flag false), matching SQL stddev_samp
    semantics."""
    import pandas as pd

    def cent_partial(batch: pa.Table) -> pd.DataFrame:
        m = _as_matrix(batch, emb_col).astype(np.float64)
        labels = batch.column(label_col).to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), m.shape[1]), np.float64)
        np.add.at(sums, codes, m)
        return pd.DataFrame({
            label_col: uniq.astype(np.int64),
            "__sum": list(sums),
            "__n": np.bincount(codes, minlength=len(uniq)).astype(
                np.int64),
        })

    rows = embeddings_ds.select_columns([label_col, emb_col]).map_batches(
        cent_partial, batch_format="pyarrow").take_all()
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for r in rows:
        lab = int(r[label_col])
        v = np.asarray(r["__sum"], np.float64)
        sums[lab] = sums.get(lab, 0) + v
        counts[lab] = counts.get(lab, 0) + int(r["__n"])
    labels_sorted = sorted(sums)
    cent = np.stack([sums[l] / counts[l] for l in labels_sorted])
    cent_unit = cent / np.linalg.norm(cent, axis=1)[:, None]
    lab_index = {l: i for i, l in enumerate(labels_sorted)}

    def score(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch, emb_col).astype(np.float64)
        unit = m / np.linalg.norm(m, axis=1)[:, None]
        labels = batch.column(label_col).to_numpy(zero_copy_only=False)
        idx = np.array([lab_index[int(l)] for l in labels], np.int64)
        cos = np.einsum("ij,ij->i", unit, cent_unit[idx])
        return pa.table({
            id_col: batch.column(id_col),
            label_col: pa.array(labels.astype(np.int64), pa.int64()),
            "cos_own": pa.array(cos, pa.float64()),
        })

    scored = embeddings_ds.select_columns(
        [id_col, label_col, emb_col]
    ).map_batches(score, batch_format="pyarrow")

    def per_label(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        out = []
        for lab, g in df.groupby(label_col, sort=True):
            cos = g["cos_own"].to_numpy()
            if len(cos) >= 2:
                mu = cos.mean()
                sd = cos.std(ddof=1)
                z = (cos - mu) / sd if sd > 0 else np.full(len(cos),
                                                           np.nan)
            else:
                z = np.full(len(cos), np.nan)
            out.append(pd.DataFrame({
                id_col: g[id_col].to_numpy(),
                label_col: lab,
                "cos_own": cos,
                "z": z,
            }))
        res = pd.concat(out) if out else pd.DataFrame(
            columns=[id_col, label_col, "cos_own", "z"])
        zvals = res["z"].to_numpy()
        flagged = np.where(np.isnan(zvals), False, zvals <= z_thresh)
        return pa.table({
            id_col: pa.array(res[id_col].to_numpy(), pa.int64()),
            label_col: pa.array(res[label_col].to_numpy(), pa.int64()),
            "cos_own": pa.array(sql_round(res["cos_own"], ndigits)),
            "z": sql_round(
                pa.array([None if np.isnan(v) else float(v)
                          for v in zvals], pa.float64()), ndigits),
            "flagged": pa.array(flagged, pa.bool_()),
        })

    return grouped_apply(scored, [label_col], per_label,
                         batch_format="pyarrow")


def hard_negatives(embeddings_ds, id_col: str = "vec_id",
                   emb_col: str = "embedding",
                   label_col: str = "label", ndigits: int = 6):
    """Contrastive hard-negative mining: for EVERY vector, its single
    most-cosine-similar corpus vector with a DIFFERENT label — the
    standard pair-construction step for training embedding models
    (triplet/contrastive losses want the hardest negatives, not
    random ones).  Ties break toward the smaller negative id.

    Scale shape: the normalized corpus matrix + ids + labels broadcast
    ONCE via ``ray.put`` (the same broadcast contract as
    :func:`knn_join`'s query side — fine to ~10^7 × small-dim on a
    worker store); each corpus batch then computes one b×N matmul,
    masks self and same-label columns, and keeps its row argmax — one
    pass over the corpus, NO exchange.  Above the broadcast budget,
    compose the IVF index instead: nominate per probe list, drop
    same-label candidates, rescore (the knn_ivfpq_rerank pattern)."""
    import ray

    slim = embeddings_ds.select_columns([id_col, emb_col, label_col])
    tbl = pa.concat_tables(
        ray.get(slim.materialize().to_arrow_refs()))
    ids = tbl.column(id_col).to_numpy(zero_copy_only=False).astype(
        np.int64)
    labels = tbl.column(label_col).to_numpy(
        zero_copy_only=False).astype(np.int64)
    M = _normalize(_as_matrix(tbl, emb_col).astype(np.float64))
    corpus_ref = ray.put((ids, labels, M))

    def mine(batch: pa.Table) -> pa.Table:
        cids, clabels, Cm = ray.get(corpus_ref)
        empty = pa.table({
            id_col: pa.array([], pa.int64()),
            "neg_id": pa.array([], pa.int64()),
            "neg_label": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        })
        if batch.num_rows == 0:
            return empty
        q = _normalize(_as_matrix(batch, emb_col).astype(np.float64))
        qids = batch.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        qlabels = batch.column(label_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        s = q @ Cm.T  # (b, N)
        s[qlabels[:, None] == clabels[None, :]] = -np.inf
        best = np.lexsort(
            (np.broadcast_to(cids, s.shape), -s), axis=1)[:, 0]
        score = s[np.arange(len(qids)), best]
        keep = np.isfinite(score)  # rows whose label covers the corpus
        return pa.table({
            id_col: pa.array(qids[keep]),
            "neg_id": pa.array(cids[best][keep]),
            "neg_label": pa.array(clabels[best][keep]),
            "score": pa.array(sql_round(score[keep], ndigits)),
        })

    return slim.map_batches(mine, batch_format="pyarrow")


def dim_truncation_recall(embeddings_ds, dims=(8, 16, 32, 64),
                          k: int = 10, query_mod: int = 25,
                          id_col: str = "vec_id",
                          emb_col: str = "embedding",
                          ndigits: int = 6):
    """Matryoshka-style dimension-truncation audit: for each prefix
    dimensionality in ``dims``, the cosine top-``k`` recall against
    the full-dimension truth over a deterministic query subset
    (``id % query_mod == 0``) — "how many dims can serving truncate
    before recall falls off", the embedding-engineering eval behind
    MRL (Kusupati et al. 2022) deployments.  Self-matches excluded;
    ties break toward the smaller corpus id; the LAST entry of
    ``dims`` must be the full dimension (it defines truth).

    Scale shape: the truncated+renormalized query matrices broadcast
    ONCE (O(queries × Σdims) floats); each corpus batch computes one
    q×b matmul per dim and keeps its local top-k per (dim, query) —
    a combiner — then ONE (dim, qid)-keyed exchange merges exact
    global top-k and a tiny fold intersects each dim against the
    full-dim truth."""
    import ray

    dims = list(dims)
    full = dims[-1]
    slim = embeddings_ds.select_columns([id_col, emb_col])

    def is_query(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column(id_col), pa.int64())
        keep = pc.equal(
            pc.subtract(ids, pc.multiply(
                pc.divide(ids, query_mod), query_mod)), 0)
        return b.filter(keep)

    qtbl = pa.concat_tables(
        ray.get(slim.map_batches(is_query, batch_format="pyarrow")
                .materialize().to_arrow_refs()))
    qids = qtbl.column(id_col).to_numpy(zero_copy_only=False).astype(
        np.int64)
    Qfull = _as_matrix(qtbl, emb_col).astype(np.float64)
    qmats = {d: _normalize(Qfull[:, :d].copy()) for d in dims}
    qref = ray.put((qids, qmats))

    def partial(batch: pa.Table) -> pa.Table:
        qi, qm = ray.get(qref)
        empty = pa.table({
            "dim": pa.array([], pa.int64()),
            "qid": pa.array([], pa.int64()),
            "cid": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        })
        if batch.num_rows == 0 or not len(qi):
            return empty
        M = _as_matrix(batch, emb_col).astype(np.float64)
        ids = batch.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        parts = []
        for d, Q in qm.items():
            m = _normalize(M[:, :d].copy())
            s = Q @ m.T  # (q, b)
            s[qi[:, None] == ids[None, :]] = -np.inf  # self-match
            kk = min(k, s.shape[1])
            order = np.lexsort(
                (np.broadcast_to(ids, s.shape), -s), axis=1)[:, :kk]
            rows = np.arange(len(qi))[:, None]
            parts.append(pa.table({
                "dim": pa.array(np.full(len(qi) * kk, d, np.int64)),
                "qid": pa.array(np.repeat(qi, kk)),
                "cid": pa.array(ids[order].ravel()),
                "score": pa.array(s[rows, order].ravel()),
            }))
        return pa.concat_tables(parts)

    def merge(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[np.isfinite(pdf["score"])]
        pdf = pdf.sort_values(["dim", "qid", "score", "cid"],
                              ascending=[True, True, False, True],
                              kind="mergesort")
        return (pdf.groupby(["dim", "qid"], sort=False).head(k)
                [["dim", "qid", "cid"]])

    topk = grouped_apply(
        combine(slim, partial),
        ["dim", "qid"], merge,
        batch_format="pandas")

    def recall(pdf: pd.DataFrame) -> pd.DataFrame:
        truth = pdf[pdf["dim"] == full][["qid", "cid"]]
        n_q = truth["qid"].nunique()
        out = []
        for d, g in pdf.groupby("dim"):
            hit = g.merge(truth, on=["qid", "cid"], how="inner")
            out.append({"dim": int(d), "recall_at_k": sql_round(
                len(hit) / (k * n_q), ndigits)})
        return pd.DataFrame(out)

    # O(dims × queries × k) rows — a driver-sized eval fold
    return grouped_apply(topk, [], recall, batch_format="pandas")


def knn_label_ndcg(embeddings_ds, k: int = 10, query_mod: int = 25,
                   id_col: str = "vec_id", emb_col: str = "embedding",
                   label_col: str = "label", ndigits: int = 6):
    """Graded retrieval quality: nDCG@k of exact cosine top-k with
    label-match relevance (rel = 1 when the neighbor shares the
    query's label) — the standard IR metric over the embedding space,
    the "does nearest-neighbor search surface the right class" eval
    that complements recall-vs-brute ANN audits.  IDCG uses the full
    corpus: the ideal ranking front-loads min(k, #same-label others)
    relevant hits.  Self-matches excluded; ties toward the smaller
    corpus id; per-query rows ``(qid, dcg, idcg, ndcg)``.

    Scale shape: query matrix + label lookup broadcast once; per-batch
    matmul + local top-k combiner; ONE qid exchange merges global
    top-k; label counts fold from one tiny label-keyed aggregate."""
    import ray

    slim = embeddings_ds.select_columns([id_col, emb_col, label_col])

    def is_query(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column(id_col), pa.int64())
        keep = pc.equal(
            pc.subtract(ids, pc.multiply(
                pc.divide(ids, query_mod), query_mod)), 0)
        return b.filter(keep)

    qtbl = pa.concat_tables(
        ray.get(slim.map_batches(is_query, batch_format="pyarrow")
                .materialize().to_arrow_refs()))
    qids = qtbl.column(id_col).to_numpy(zero_copy_only=False).astype(
        np.int64)
    qlab = qtbl.column(label_col).to_numpy(
        zero_copy_only=False).astype(np.int64)
    Q = _normalize(_as_matrix(qtbl, emb_col).astype(np.float64))
    label_counts = (
        embeddings_ds.select_columns([label_col]).groupby(label_col)
        .count().to_pandas())
    n_per_label = dict(zip(label_counts[label_col].astype(int),
                           label_counts["count()"].astype(int)))
    qref = ray.put((qids, qlab, Q))

    def partial(batch: pa.Table) -> pa.Table:
        qi, ql, Qm = ray.get(qref)
        empty = pa.table({
            "qid": pa.array([], pa.int64()),
            "cid": pa.array([], pa.int64()),
            "rel": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        })
        if batch.num_rows == 0 or not len(qi):
            return empty
        M = _normalize(_as_matrix(batch, emb_col).astype(np.float64))
        ids = batch.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        labs = batch.column(label_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        s = Qm @ M.T
        s[qi[:, None] == ids[None, :]] = -np.inf
        kk = min(k, s.shape[1])
        order = np.lexsort(
            (np.broadcast_to(ids, s.shape), -s), axis=1)[:, :kk]
        rows = np.arange(len(qi))[:, None]
        rel = (ql[:, None] == labs[order]).astype(np.int64)
        return pa.table({
            "qid": pa.array(np.repeat(qi, kk)),
            "cid": pa.array(ids[order].ravel()),
            "rel": pa.array(rel.ravel()),
            "score": pa.array(s[rows, order].ravel()),
        })

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[np.isfinite(pdf["score"])]
        pdf = pdf.sort_values(["qid", "score", "cid"],
                              ascending=[True, False, True],
                              kind="mergesort")
        top = pdf.groupby("qid", sort=False).head(k).copy()
        top["rank"] = top.groupby("qid", sort=False).cumcount() + 1
        top["gain"] = top["rel"] / np.log2(top["rank"] + 1.0)
        dcg = top.groupby("qid", sort=False)["gain"].sum()
        out = dcg.reset_index().rename(columns={"gain": "dcg"})
        ideal = np.cumsum(1.0 / np.log2(np.arange(1, k + 1) + 1.0))
        qlabel = dict(zip(qids, qlab))
        n_rel = np.array([
            min(k, n_per_label.get(int(qlabel[q]), 1) - 1)
            for q in out["qid"]])
        out["idcg"] = np.where(n_rel > 0, ideal[np.maximum(n_rel, 1)
                                                - 1], 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            nd = np.where(out["idcg"] > 0,
                          out["dcg"] / out["idcg"], 0.0)
        out["dcg"] = sql_round(out["dcg"], ndigits)
        out["idcg"] = sql_round(out["idcg"], ndigits)
        out["ndcg"] = sql_round(nd, ndigits)
        return out

    merged = grouped_apply(
        combine(slim, partial),
        ["qid"], fold,
        batch_format="pandas")
    return merged
