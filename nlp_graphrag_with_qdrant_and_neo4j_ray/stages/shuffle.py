"""Partition-wise grouped execution — the engine's core shuffle pattern.

``Dataset.groupby(keys).map_groups(fn)`` invokes ``fn`` once per DISTINCT
key: per-group Python/pandas overhead (~2-3 ms) dominates when groups are
small and numerous (measured: 8k MinHash-LSH buckets → ~30 s of pure
group-dispatch overhead on 500 docs). The scalable shape is:

    add __part = stable_hash(keys) % num_partitions        (map_batches)
    groupby(__part)                                        (one shuffle)
    per partition: ONE vectorized local groupby over keys  (map_groups)

One shuffle, one function call per non-empty partition, local group
logic fully vectorized. Each call has a fixed cost, so every exchange
is sized from its input by one rule, not by its caller (Spark AQE's
post-shuffle coalescing, the same idea):

    partitions_for(rows) = min(MAX_PARTITIONS,
        max(cluster CPUs, ceil(rows / ROWS_PER_PARTITION)))

``rows`` comes from metadata alone — sizing never executes a Dataset.
An input whose own count is known (Parquet footers of a read, block
metadata of a materialized handoff) gives it exactly; a lazy input (a
map, a projection, a union) is sized from the row counts of its
plan's source leaves, so a union sums its sides. What a filter keeps
(a ``filter`` op, or a Parquet read with a pushed-down filter) and what
an earlier exchange's fold emits are unknown without running them and
usually far fewer rows than their sources, so they add no rows: an
exchange fed only by them gets the CPU floor. Only a source of
unknown size (a streaming datasource) gives the cap. A caller passes a count
only where its own structure sets one: a global fold
(``num_partitions=1``), a salted merge over a fixed salt range, one
partition per shard or block pair, a fold whose output depends on the
count (the alias-spill file contract, negative sampling), or a spine
exchange whose input fans out from its source (two entity mentions per
linked triple, ``partitions_for(..., per_row=2)``). Elsewhere the
count never changes an output row: every fold is per key.
Skew note: a hot KEY still lands in one partition, but per-key work
here is per-row-linear (the combiners upstream cap per-key row counts),
so partitions stay balanced; key-salting (see stages/link.py) handles
the head-key case before this exchange.

The EXCHANGE is always zero-copy Arrow (blocks ship as Arrow through the
object store; a pandas-block exchange pickles per block and was measured
~25% slower with higher variance on string-heavy keys — BASELINE.md
round-3/4 A/Bs). ``batch_format`` only selects what ``partition_fn``
receives: ``"pyarrow"`` hands it the partition ``pa.Table`` directly;
``"pandas"`` converts once per partition on both sides, for local logic
that needs pandas kernels (``merge_asof``-style windows). The KG spine
(``stages/link.py``, ``stages/ngram.py``, ``pipelines/kg.py``) uses
only the Arrow default; the pandas opt-in serves the relational and
graph operators.
"""

from __future__ import annotations

import weakref

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data._internal.datasource.parquet_datasource import ParquetDatasource
from ray.data._internal.logical.operators.map_operator import Filter
from ray.data._internal.logical.operators.read_operator import Read

_PART = "__part"

# rows one partition call is sized for: sf0.1's smallest spine exchange
# (edges, ~1.45 M linked triples) still gets the cap on 32 CPUs, while
# the 15 k-triple build_crawl tail gets at most 8 partitions on 1 CPU
ROWS_PER_PARTITION = 4096
# the partition count every spine exchange used before it was sized
MAX_PARTITIONS = 256


# the fold of every grouped_apply built in this process: what it emits
# is unknown until it runs, so sizing adds nothing for it
_FOLDS = weakref.WeakSet()


def _adds_no_rows(op) -> bool:
    """True for an op whose output rows metadata cannot tell and whose
    source rows would overstate them: a filter (a ``filter`` op, or a
    Parquet read with a pushed-down filter, for which Ray drops the
    footer count) or an earlier exchange's fold."""
    if op in _FOLDS or isinstance(op, Filter):
        return True
    return (isinstance(op, Read)
            and isinstance(op._datasource, ParquetDatasource)
            and op._datasource._to_batches_kwargs.get("filter") is not None)


def _source_rows(ds) -> int | None:
    """Rows of ``ds`` from metadata alone: its own count when known
    (Parquet footers of a read, block metadata of a materialized
    Dataset), else the summed counts of its plan's source leaves (a
    lazy map counts what it reads, a union both sides), counting
    nothing below a filter or an earlier fold. None when a source's
    size is unknown without running it. Never executes a Dataset."""
    n = ds._meta_count()
    if n is not None:
        return n
    total, ops = 0, [ds._logical_plan.dag]
    while ops:
        op = ops.pop()
        if _adds_no_rows(op):
            continue
        if op.input_dependencies:
            ops.extend(op.input_dependencies)
            continue
        n = op.infer_metadata().num_rows
        if n is None:
            return None
        total += n
    return total


def _known_rows(datasets) -> int | None:
    """Total source rows of ``datasets``, or None when any is unknown."""
    total = 0
    for ds in datasets:
        n = _source_rows(ds)
        if n is None:
            return None
        total += n
    return total


def _cluster_cpus() -> int:
    import ray

    return int(ray.cluster_resources().get("CPU", 1))


def partitions_for(*datasets, per_row: int = 1) -> int:
    """Partition count for an exchange whose input is at most
    ``per_row`` rows per row of ``datasets`` (two entity mentions per
    linked triple): one partition per ``ROWS_PER_PARTITION`` rows, at
    least one per cluster CPU, at most ``MAX_PARTITIONS`` — and
    ``MAX_PARTITIONS`` when a source's size is unknown without running
    it."""
    rows = _known_rows(datasets)
    if rows is None:
        return MAX_PARTITIONS
    wanted = -(-per_row * rows // ROWS_PER_PARTITION)
    return max(1, min(MAX_PARTITIONS, max(_cluster_cpus(), wanted)))


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


def _arrow_block(out: pa.Table | pd.DataFrame) -> pa.Table:
    """``out`` as an Arrow block without the ``b'pandas'`` schema
    metadata that ``from_pandas`` attaches: a schema carrying it is
    unhashable, and Ray then logs ``Failed to hash the schemas`` when it
    unifies block schemas. The pandas side loses nothing it uses: Ray
    converts pandas blocks with preserve_index=False (a RangeIndex
    either way), and every testdata table gives the same ``to_pandas()``
    dtypes without it."""
    if not isinstance(out, pa.Table):
        out = pa.Table.from_pandas(out, preserve_index=False)
    return out.replace_schema_metadata(None)


def grouped_apply(ds, keys: list[str], partition_fn,
                  num_partitions: int | None = None,
                  batch_size: int = 65536, batch_format: str = "pyarrow"):
    """Hash-partition ``ds`` on ``keys`` and hand each WHOLE partition to
    ``partition_fn`` (which does its own local groupby over ``keys``) —
    for logic that vectorizes across groups (aggregations, windowing).

    ``num_partitions`` is the number of ``partition_fn`` calls (empty
    partitions are never called). ``None`` — every caller but the few
    the module docstring names — sizes it from the input with
    ``partitions_for(ds)``. The output is registered as a fold, so an
    exchange fed by it adds no rows for it when it is sized.

    The partition column is computed from the KEY columns only (same
    ``_hash_rows`` everywhere — no pandas materialization) and appended to
    the Arrow batch; blocks ride the exchange as Arrow regardless of
    ``batch_format``. The DEFAULT hands ``partition_fn`` a zero-copy
    ``pyarrow.Table`` (an A/B measured it ~25% faster and
    lower-variance on string-heavy keys — BASELINE.md r3/r4), and it is
    the only form the KG spine uses; ``batch_format="pandas"`` is the
    opt-in for relational/graph partition logic that needs pandas
    kernels (``merge_asof``-style, ``ngroup`` folds) and converts once
    on partition entry and once on exit. A partition fn that needs its
    partition's number recomputes it as ``_hash_rows(<one row>, keys) %
    num_partitions``, so it passes its count explicitly.
    """
    if num_partitions is None:
        num_partitions = partitions_for(ds)

    # both sides strip b'pandas' schema metadata (see _arrow_block):
    # inputs read from pandas-written files or built with from_pandas
    # carry it, and so do partition outputs built with from_pandas
    def add_part_arrow(batch: pa.Table) -> pa.Table:
        batch = _arrow_block(batch)
        if batch.num_rows == 0:
            return batch.append_column(_PART, pa.array([], pa.int64()))
        part = (_hash_rows(batch, keys) % num_partitions).astype(np.int64)
        return batch.append_column(_PART, pa.array(part))

    def per_partition(batch: pa.Table) -> pa.Table:
        part = batch.drop_columns([_PART])
        if batch_format != "pyarrow":
            part = part.to_pandas()
        return _arrow_block(partition_fn(part))

    out = (
        ds.map_batches(add_part_arrow, batch_format="pyarrow",
                       batch_size=batch_size)
        .groupby(_PART)
        .map_groups(per_partition, batch_format="pyarrow")
    )
    _FOLDS.add(out._logical_plan.dag)
    return out
