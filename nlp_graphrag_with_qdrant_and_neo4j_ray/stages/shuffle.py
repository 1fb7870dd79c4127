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

    partitions_for = min(MAX_PARTITIONS, max(cluster CPUs,
        ceil(rows / ROWS_PER_PARTITION + folded / BATCH_SIZE)))

``rows`` and ``folded`` come from metadata alone — sizing never
executes a Dataset. An input whose own count is known (Parquet footers
of a read, block metadata of a materialized handoff) gives ``rows``
exactly; a lazy input (a map, a projection, a union) is sized from the
row counts of its plan's source leaves, so a union sums its sides. A
leaf below a filter, an earlier exchange's fold or a per-batch combiner
(``combine``: a partial aggregate, a per-batch distinct or top-k)
counts as ``folded`` instead: those ops rarely emit more than they
read, often far fewer, and how many is unknown until they run. So an
exchange fed by them gets the CPU floor at small scale ("Every Row
Counts", CIDR 2019, in its simplest form: no distinct-key estimate),
and one whose fold barely shrinks its input still hands each call at
most ``BATCH_SIZE`` rows on average, one map-side batch, until the
cap. A map that may emit more rows than it reads (a tokenizer, an
explode) is a plain ``map_batches``, so its source rows count in full.
A Parquet read with a pushed-down filter counts nothing (Ray drops its
footer count), and only a source of unknown size gives the cap.
``grouped_apply(ds, [], fold)`` is the global fold: one partition, one
``fold`` call with every row.

No caller sizes an exchange. A caller passes a count only where the
count is part of a contract: a salted merge over a fixed salt range,
one partition per shard or similarity block pair, and a fold whose
output depends on the count (the alias-spill files, negative
sampling). Elsewhere the count never changes an output row: every
fold is per key.

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

import functools
import math
import weakref

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data._internal.datasource.parquet_datasource import ParquetDatasource
from ray.data._internal.logical.operators.map_operator import Filter
from ray.data._internal.logical.operators.read_operator import Read

_PART = "__part"

# rows one partition call is sized for: an exchange over a row map of
# ~1 M source rows gets the cap, one over 30 k rows 8 partitions
ROWS_PER_PARTITION = 4096
# the partition count every spine exchange used before it was sized
MAX_PARTITIONS = 256


# rows per map-side batch of an exchange (the hash + tag of its input),
# and the rows read below a filter, a fold or a combiner that one
# partition of the exchange they feed is sized for
BATCH_SIZE = 65536


# the fold of every grouped_apply and the map of every combine built in
# this process: what they emit is unknown until they run
_FOLDS = weakref.WeakSet()


def _filtered_read(op) -> bool:
    """A Parquet read with a pushed-down filter: Ray drops its footer
    count, and what it keeps is unknown until it runs."""
    return (isinstance(op, Read)
            and isinstance(op._datasource, ParquetDatasource)
            and op._datasource._to_batches_kwargs.get("filter") is not None)


def _source_rows(ds) -> tuple[int, int] | None:
    """``(rows, folded)`` of ``ds`` from metadata alone: its own count
    when known (Parquet footers of a read, block metadata of a
    materialized Dataset), else the summed counts of its plan's source
    leaves (a lazy map counts what it reads, a union both sides). The
    leaves below a filter, an earlier exchange's fold or a combiner
    count as ``folded``: those ops rarely emit more than they read,
    often far fewer, and how many is unknown until they run. A filtered
    Parquet read counts nothing. None when a source's size is unknown
    without running it. Never executes a Dataset."""
    n = ds._meta_count()
    if n is not None:
        return n, 0
    rows = folded = 0
    ops = [(ds._logical_plan.dag, False)]
    while ops:
        op, below_fold = ops.pop()
        if _filtered_read(op):
            continue
        below_fold = below_fold or op in _FOLDS or isinstance(op, Filter)
        if op.input_dependencies:
            ops.extend((o, below_fold) for o in op.input_dependencies)
            continue
        n = op.infer_metadata().num_rows
        if n is None:
            return None
        if below_fold:
            folded += n
        else:
            rows += n
    return rows, folded


def _cluster_cpus() -> int:
    import ray

    return int(ray.cluster_resources().get("CPU", 1))


def partitions_for(ds) -> int:
    """Partition count for an exchange over ``ds``: one partition per
    ``ROWS_PER_PARTITION`` source rows and per ``BATCH_SIZE`` rows read
    below a filter, a fold or a combiner, at least one per cluster CPU,
    at most ``MAX_PARTITIONS`` — and ``MAX_PARTITIONS`` when a source's
    size is unknown without running it."""
    counted = _source_rows(ds)
    if counted is None:
        return MAX_PARTITIONS
    rows, folded = counted
    wanted = math.ceil(rows / ROWS_PER_PARTITION + folded / BATCH_SIZE)
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


def combine(ds, fn, batch_format: str = "pyarrow",
            batch_size: int | None = None):
    """``ds.map_batches(fn, batch_format=, batch_size=)`` for a
    per-batch combiner: ``fn`` folds one batch ahead of an exchange (a
    partial aggregate, a per-batch distinct or top-k). Each output
    becomes an Arrow block (``_arrow_block``), and the map is registered
    as a fold, so an exchange fed by it, directly or as one side of a
    union, counts its source rows per ``BATCH_SIZE``, not per
    ``ROWS_PER_PARTITION``, when it is sized. A row map (select, tag,
    add a column) or a fan-out that may emit more rows than it reads (a
    tokenizer, an explode) stays a plain ``map_batches``: its source
    rows count in full."""
    @functools.wraps(fn)  # the op keeps the combiner's name in Ray's stats
    def arrow_out(batch):
        return _arrow_block(fn(batch))

    out = ds.map_batches(arrow_out, batch_format=batch_format,
                         batch_size=batch_size)
    _FOLDS.add(out._logical_plan.dag)
    return out


def grouped_apply(ds, keys: list[str], partition_fn,
                  num_partitions: int | None = None,
                  batch_format: str = "pyarrow"):
    """Hash-partition ``ds`` on ``keys`` and hand each WHOLE partition to
    ``partition_fn`` (which does its own local groupby over ``keys``) —
    for logic that vectorizes across groups (aggregations, windowing).

    ``num_partitions`` is the number of ``partition_fn`` calls (empty
    partitions are never called). ``None`` — every caller but the
    contract-bound few the module docstring names — sizes it from the
    input with ``partitions_for(ds)``; a per-batch combiner ahead of the
    exchange goes through ``combine`` so that its source rows count per
    ``BATCH_SIZE``, not per ``ROWS_PER_PARTITION``. ``keys=[]`` is the
    global fold: no hash, one partition, so ``partition_fn`` is called
    once with every row (and not at all on an empty input). The output
    is registered as a fold, so an exchange fed by it counts its source
    rows per ``BATCH_SIZE`` when it is sized.

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
    if not keys:
        num_partitions = 1
    elif num_partitions is None:
        num_partitions = partitions_for(ds)

    # both sides strip b'pandas' schema metadata (see _arrow_block):
    # inputs read from pandas-written files or built with from_pandas
    # carry it, and so do partition outputs built with from_pandas
    def add_part_arrow(batch: pa.Table) -> pa.Table:
        batch = _arrow_block(batch)
        part = np.zeros(batch.num_rows, np.int64)
        if num_partitions > 1 and batch.num_rows:
            part[:] = _hash_rows(batch, keys) % num_partitions
        return batch.append_column(_PART, pa.array(part))

    def per_partition(batch: pa.Table) -> pa.Table:
        part = batch.drop_columns([_PART])
        if batch_format != "pyarrow":
            part = part.to_pandas()
        return _arrow_block(partition_fn(part))

    out = (
        ds.map_batches(add_part_arrow, batch_format="pyarrow",
                       batch_size=BATCH_SIZE)
        .groupby(_PART)
        .map_groups(per_partition, batch_format="pyarrow")
    )
    _FOLDS.add(out._logical_plan.dag)
    return out
