"""Deterministic, resumable training-shard writer.

The last stage of a training-data pipeline: give every document a
pseudo-random but DETERMINISTIC position (hash of its id — no RNG
state, stable under re-partitioning, re-runs and corpus growth, the
same argument as :func:`pipelines.clean.assign_splits`), bucket the
corpus into ``n_shards`` fixed shards, and publish each shard as ONE
atomically-renamed Parquet file whose footer carries its manifest row.
A re-run scans footers only (a few KB of metadata I/O per shard) and
recomputes exactly the shards whose files are missing — the "resumable
output" contract: a failed 100 TB run skips finished partitions.

Scale shape: shard assignment is map-side; the only exchange is one
hash partition on ``shard_id`` (each shard lands wholly in one task,
so no two writers race on a file); per-shard work is a local sort +
one streamed Parquet write. At 100 TB you raise ``n_shards`` so a
shard fits a worker's heap — the layout (many independent files +
footer manifests) is exactly what a multi-node resume needs.

The reference has no training-export stage; this is a beyond-reference
operator (SURVEY.md "beyond-reference training-data operators").
md5 is per-row Python here ONLY so a DuckDB oracle can replay the
assignment byte-for-byte (the :func:`clean.assign_splits` precedent);
production assignment would ride the vectorized shuffle-layer hash.
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

MANIFEST_META_KEY = b"graft_shard_manifest"

_MANIFEST_SCHEMA = pa.schema([
    ("shard_id", pa.int64()),
    ("n_docs", pa.int64()),
    ("n_bytes", pa.int64()),
    ("min_key", pa.string()),
    ("max_key", pa.string()),
])


def _shard_path(out_dir: str, shard_id: int) -> str:
    return os.path.join(out_dir, f"shard-{shard_id:05d}.parquet")


def assign_shards(docs, n_shards: int, id_col: str = "doc_id"):
    """Append ``shard_key`` (md5 hex of the id — the global pseudo-random
    order) and ``shard_id`` (first 8 hex chars mod ``n_shards``)."""

    def assign(batch: pa.Table) -> pa.Table:
        keys = [hashlib.md5(str(i).encode()).hexdigest()
                for i in batch.column(id_col).to_pylist()]
        sid = [int(k[:8], 16) % n_shards for k in keys]
        return (batch
                .append_column("shard_key", pa.array(keys, pa.string()))
                .append_column("shard_id", pa.array(sid, pa.int64())))

    return docs.map_batches(assign, batch_format="pyarrow")


def _manifest_row(shard_id: int, tbl: pa.Table, text_col: str) -> dict:
    nb = pc.sum(pc.binary_length(tbl.column(text_col))).as_py() or 0
    keys = tbl.column("shard_key")
    return {
        "shard_id": int(shard_id),
        "n_docs": tbl.num_rows,
        "n_bytes": int(nb),
        "min_key": pc.min(keys).as_py(),
        "max_key": pc.max(keys).as_py(),
    }


def _read_footer_manifest(path: str) -> dict | None:
    meta = pq.read_metadata(path).metadata or {}
    raw = meta.get(MANIFEST_META_KEY)
    return json.loads(raw) if raw is not None else None


def write_training_shards(docs_thunk, out_dir: str, n_shards: int = 8,
                          id_col: str = "doc_id",
                          text_col: str = "text") -> pa.Table:
    """Write ``n_shards`` training shards under ``out_dir`` and return
    the manifest (one row per shard: ``shard_id, n_docs, n_bytes,
    min_key, max_key``), recomputing only shards whose files are
    missing. ``docs_thunk`` is a zero-arg Dataset constructor — the
    :func:`ensure_ivf_index` contract: a fully-resumed run never
    constructs the input pipeline at all."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.shuffle import grouped_apply

    os.makedirs(out_dir, exist_ok=True)
    done: dict[int, dict] = {}
    for sid in range(n_shards):
        path = _shard_path(out_dir, sid)
        if os.path.exists(path):
            row = _read_footer_manifest(path)
            if row is not None:
                done[sid] = row
    todo = [sid for sid in range(n_shards) if sid not in done]

    rows = list(done.values())
    if todo:
        ds = assign_shards(docs_thunk(), n_shards, id_col=id_col)
        if len(todo) < n_shards:
            todo_arr = pa.array(todo, pa.int64())
            ds = ds.map_batches(
                lambda b: b.filter(pc.is_in(b.column("shard_id"),
                                            value_set=todo_arr)),
                batch_format="pyarrow",
            )

        def write_partition(tbl: pa.Table) -> pa.Table:
            out = []
            sids = tbl.column("shard_id").to_numpy(zero_copy_only=False)
            for sid in sorted(set(sids.tolist())):
                shard = tbl.filter(pc.equal(tbl.column("shard_id"),
                                            pa.scalar(sid, pa.int64())))
                order = pc.sort_indices(
                    shard,
                    sort_keys=[("shard_key", "ascending"),
                               (id_col, "ascending")],
                )
                shard = shard.take(order).drop_columns(["shard_id"])
                row = _manifest_row(sid, shard, text_col)
                meta = dict(shard.schema.metadata or {})
                meta[MANIFEST_META_KEY] = json.dumps(row).encode()
                final = _shard_path(out_dir, sid)
                tmp = final + f".tmp.{os.getpid()}"
                pq.write_table(shard.replace_schema_metadata(meta), tmp)
                os.replace(tmp, final)
                out.append(row)
            return pa.Table.from_pylist(out, schema=_MANIFEST_SCHEMA)

        written = grouped_apply(
            ds, ["shard_id"], write_partition,
            num_partitions=min(n_shards, 64),
        )
        rows.extend(written.take_all())  # bounded: n_shards manifest rows

    rows.sort(key=lambda r: r["shard_id"])
    return pa.Table.from_pylist(rows, schema=_MANIFEST_SCHEMA)


def _wet_paths(out_dir: str, shard_id: int) -> tuple[str, str]:
    base = os.path.join(out_dir, f"shard-{shard_id:05d}.wet.gz")
    return base, base + ".manifest.json"


def write_wet_archives(pages_thunk, out_dir: str, n_shards: int = 8,
                       url_col: str = "url", text_col: str = "text",
                       lang_col: str = "lang",
                       ts_col: str = "warc_ts") -> pa.Table:
    """Publish a (cleaned) pages corpus as WET archives — the writer
    twin of ``sources/warc.py``: the engine reads the format web corpora
    arrive in AND re-publishes curated corpora in it. Same deterministic
    resumable layout as :func:`write_training_shards` (shard =
    ``md5(url)[:8] mod n``, one hash-partition exchange, per-shard local
    sort, atomic rename), except each shard is ONE ``.wet.gz``
    (one gzip member per record, ISO 28500 ``conversion`` records) with
    its manifest row in a sidecar ``.manifest.json`` — gzip has no
    parquet footer to carry it. A re-run stats sidecars only and
    recomputes exactly the missing shards; ``pages_thunk`` is never
    called on a fully-resumed run."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.warc import encode_wet_pages
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.shuffle import grouped_apply

    os.makedirs(out_dir, exist_ok=True)
    done: dict[int, dict] = {}
    for sid in range(n_shards):
        arch, mani = _wet_paths(out_dir, sid)
        if os.path.exists(arch) and os.path.exists(mani):
            try:
                done[sid] = json.load(open(mani))
            except (OSError, ValueError):
                pass  # unreadable sidecar → recompute the shard
    todo = [sid for sid in range(n_shards) if sid not in done]

    rows = list(done.values())
    if todo:
        ds = assign_shards(pages_thunk(), n_shards, id_col=url_col)
        if len(todo) < n_shards:
            todo_arr = pa.array(todo, pa.int64())
            ds = ds.map_batches(
                lambda b: b.filter(pc.is_in(b.column("shard_id"),
                                            value_set=todo_arr)),
                batch_format="pyarrow",
            )

        def write_partition(tbl: pa.Table) -> pa.Table:
            out = []
            sids = tbl.column("shard_id").to_numpy(zero_copy_only=False)
            for sid in sorted(set(sids.tolist())):
                shard = tbl.filter(pc.equal(tbl.column("shard_id"),
                                            pa.scalar(sid, pa.int64())))
                order = pc.sort_indices(
                    shard,
                    sort_keys=[("shard_key", "ascending"),
                               (url_col, "ascending")],
                )
                shard = shard.take(order)
                recs = [
                    {"url": r[url_col], "warc_ts": r[ts_col],
                     "text": r[text_col] or "", "lang": r.get(lang_col, "")}
                    for r in shard.to_pylist()
                ]
                arch, mani = _wet_paths(out_dir, sid)
                payload = encode_wet_pages(
                    recs, filename=os.path.basename(arch))
                row = _manifest_row(sid, shard, text_col)
                tmp = arch + f".tmp.{os.getpid()}"
                with open(tmp, "wb") as f:
                    f.write(payload)
                os.replace(tmp, arch)
                tmpm = mani + f".tmp.{os.getpid()}"
                with open(tmpm, "w") as f:
                    json.dump(row, f)
                os.replace(tmpm, mani)
                out.append(row)
            return pa.Table.from_pylist(out, schema=_MANIFEST_SCHEMA)

        written = grouped_apply(
            ds, ["shard_id"], write_partition,
            num_partitions=min(n_shards, 64),
        )
        rows.extend(written.take_all())  # bounded: n_shards manifest rows

    rows.sort(key=lambda r: r["shard_id"])
    return pa.Table.from_pylist(rows, schema=_MANIFEST_SCHEMA)


def global_shuffle_positions(docs, seed: int = 42, id_col: str = "doc_id",
                             num_buckets: int = 256):
    """Deterministic seeded GLOBAL shuffle with contiguous positions —
    the "shuffle the corpus before training" step, as a distributed
    zip-with-index: every row gets ``shuffle_pos`` = its rank in the
    total order ``(md5(f"{seed}:{id}"), id)``.  No RNG state, stable
    under re-partitioning and re-runs, and a new seed is a brand-new
    permutation; consumers stream rows in position order (or range-read
    any slice of it).

    Scale shape: the key's first 16 bits bucket the order into
    ``num_buckets`` contiguous key ranges (fixed-width lowercase hex
    sorts identically as string and as integer, so ascending bucket id
    IS ascending key).  Per-bucket counts fold to the driver as O(buckets)
    integers whose running sum gives each bucket's global offset; ONE
    bucket-keyed exchange then sorts each bucket locally and adds its
    offset.  Bucket sizes concentrate at corpus/buckets (md5 is
    uniform), so at 100 TB you raise ``num_buckets`` until a bucket
    fits a worker — the same knob as ``n_shards`` above.  md5 per row
    is the oracle-replayable choice (module docstring).
    """
    from ..stages.shuffle import grouped_apply

    if not 1 <= num_buckets <= 65536:
        raise ValueError(f"num_buckets must be in [1, 65536]: {num_buckets}")

    def key_it(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        keys = [hashlib.md5(f"{seed}:{i}".encode()).hexdigest()
                for i in ids]
        # Order-preserving range bucketing off the first 16 key bits:
        # bucket boundaries are key-prefix boundaries for ANY bucket
        # count <= 65536, so ascending bucket id == ascending key.
        buckets = [int(k[:4], 16) * num_buckets // 65536 for k in keys]
        return pa.table({
            id_col: batch.column(id_col),
            "__key": pa.array(keys, pa.string()),
            "__bucket": pa.array(buckets, pa.int64()),
        })

    keyed = docs.map_batches(key_it, batch_format="pyarrow").materialize()

    def bucket_counts(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["__bucket"]).aggregate([([], "count_all")])
        return g.rename_columns(["__bucket", "n"])

    counts: dict[int, int] = {}
    for row in keyed.map_batches(
        bucket_counts, batch_format="pyarrow"
    ).take_all():
        counts[row["__bucket"]] = counts.get(row["__bucket"], 0) + row["n"]
    offsets: dict[int, int] = {}
    acc = 0
    for b in sorted(counts):
        offsets[b] = acc
        acc += counts[b]

    def rank_partition(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas().sort_values(
            ["__bucket", "__key", id_col], kind="mergesort"
        )
        within = df.groupby("__bucket", sort=False).cumcount().to_numpy()
        base = df["__bucket"].map(offsets).to_numpy()
        out = pa.table({
            id_col: pa.array(df[id_col].to_numpy()),
            "shuffle_pos": pa.array(base + within, pa.int64()),
        })
        return out

    return grouped_apply(keyed, ["__bucket"], rank_partition,
                         batch_format="pyarrow")
