"""Partition-wise grouped execution — the engine's core shuffle pattern.

``Dataset.groupby(keys).map_groups(fn)`` invokes ``fn`` once per DISTINCT
key: per-group Python/pandas overhead (~2-3 ms) dominates when groups are
small and numerous (measured: 8k MinHash-LSH buckets → ~30 s of pure
group-dispatch overhead on 500 docs). The scalable shape is:

    add __part = stable_hash(keys) % num_partitions        (map_batches)
    groupby(__part)                                        (one shuffle)
    per partition: ONE vectorized local groupby over keys  (map_groups)

One shuffle, ``num_partitions`` function calls total, local group logic
fully vectorized. Skew note: a hot KEY still lands in one partition, but
per-key work here is per-row-linear (the combiners upstream cap per-key
row counts), so partitions stay balanced; key-salting (see
stages/link.py) handles the head-key case before this exchange.

The EXCHANGE is always zero-copy Arrow (blocks ship as Arrow through the
object store; a pandas-block exchange pickles per block and was measured
~25% slower with higher variance on string-heavy keys — BASELINE.md
round-3/4 A/Bs). ``batch_format`` only selects what ``partition_fn``
receives: ``"pyarrow"`` hands it the partition ``pa.Table`` directly;
``"pandas"`` converts once per partition on both sides, for local logic
that needs pandas kernels (``merge_asof``-style windows).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_PART = "__part"


def _hash_rows(tbl: pa.Table, keys: list[str]) -> np.ndarray:
    """Stable vectorized row hash (uint64) of the KEY columns.

    polars ``hash_rows`` (seeded, combines columns per row in native
    code, no Python-object materialization) — measured ~8× faster than
    the previous ``to_pandas()`` + ``hash_pandas_object`` path on
    string keys (BASELINE.md r4: 0.56 s vs 4.75 s per 5 M rows), and
    the MAP side of every exchange pays this per input row, so it is
    pure overhead in the memory-bandwidth regime that throttles high
    parallelism. Deterministic for a fixed polars version + seed —
    which covers every consumer: partition assignment within a run
    (exchanges, co-partitioned joins) and the alias-spill partition→
    file contract (written and read inside one build). Nothing
    SEMANTIC hashes through here — sampling, HLL/CMS sketches and the
    persisted term-index buckets keep ``hash_pandas_object``.
    """
    import polars as pl

    import pyarrow.compute as pc

    cols = {}
    for k in keys:
        c = tbl.column(k)
        if pa.types.is_dictionary(c.type):
            c = pc.cast(c, c.type.value_type)
        cols[k] = c
    return pl.from_arrow(pa.table(cols)).hash_rows(seed=42).to_numpy()


def _stable_part(df: pd.DataFrame, keys: list[str], num_partitions: int) -> pd.Series:
    h = _hash_rows(pa.Table.from_pandas(df[keys], preserve_index=False),
                   keys)
    return pd.Series(h % num_partitions, index=df.index).astype("int64")


def _from_pandas(df: pd.DataFrame) -> pa.Table:
    """``df`` as an Arrow block without the ``b'pandas'`` schema
    metadata: a schema carrying it is unhashable, and Ray then logs
    ``Failed to hash the schemas`` when it unifies block schemas."""
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    return tbl.replace_schema_metadata(None)


def arrow_out(fn):
    """Wrap a pandas ``map_batches`` fn so its OUTPUT blocks are Arrow —
    for stages whose result unions with Arrow-block datasets (one block
    type per batcher; grouped_apply outputs are always Arrow now)."""

    def wrapped(pdf: pd.DataFrame):
        out = fn(pdf)
        if isinstance(out, pa.Table):
            return out
        return _from_pandas(out)

    return wrapped


def grouped_apply(ds, keys: list[str], partition_fn, num_partitions: int = 64,
                  batch_size: int = 65536, batch_format: str = "pyarrow"):
    """Hash-partition ``ds`` on ``keys`` and hand each WHOLE partition to
    ``partition_fn`` (which does its own local groupby over ``keys``) —
    for logic that vectorizes across groups (aggregations, windowing).

    The partition column is computed from the KEY columns only (same
    ``_hash_rows`` everywhere — no pandas materialization) and appended to
    the Arrow batch; blocks ride the exchange as Arrow regardless of
    ``batch_format``. The DEFAULT hands ``partition_fn`` a zero-copy
    ``pyarrow.Table`` (the builder's A/B showed ~25% faster and
    lower-variance on string-heavy keys — BASELINE.md r3/r4);
    ``batch_format="pandas"`` is the opt-in for partition logic that
    needs pandas kernels (``merge_asof``-style, ``ngroup`` folds) and
    converts once on partition entry and once on exit.
    """

    def add_part_arrow(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column(_PART, pa.array([], pa.int64()))
        part = (_hash_rows(batch, keys) % num_partitions).astype(np.int64)
        return batch.append_column(_PART, pa.array(part))

    if batch_format == "pyarrow":
        def per_partition(batch: pa.Table) -> pa.Table:
            return partition_fn(batch.drop_columns([_PART]))
    else:
        def per_partition(batch: pa.Table) -> pa.Table:
            out = partition_fn(batch.drop_columns([_PART]).to_pandas())
            if isinstance(out, pa.Table):
                return out
            return _from_pandas(out)

    return (
        ds.map_batches(add_part_arrow, batch_format="pyarrow",
                       batch_size=batch_size)
        .groupby(_PART)
        .map_groups(per_partition, batch_format="pyarrow")
    )
