"""Distributed relational operators Ray Data lacks natively.

The engine brief calls out as-of joins, range joins, windowed aggregates
and anti-joins as operators to express "as a composition of map_batches +
groupby().map_groups + sort if semantics allow".  All operators here are
exactly that composition, built on the engine's one shuffle primitive
(:func:`stages.shuffle.grouped_apply`): hash-partition on the join/group
key, then ONE vectorized pandas/pyarrow pass per partition.  Ray 2.49's
native ``Dataset.join`` misbehaves on empty hash partitions (see
``stages/pairjoin.py``), so two-input operators co-partition through a
typed-null-padded union — the same union-join exchange ``pairjoin`` and
``dedup.connected_components`` use.

Partitioning assumptions (the 100-TB contract, documented per operator):

- ``anti_join`` / ``asof_join``: both sides hash-exchange once on the
  join key; per-key payload must fit a partition (keys here are
  customer/user ids — bounded fan-in).  The right side ships ONLY the
  columns the probe needs.
- ``window_topk``: per-key top-k runs inside each partition after one
  exchange; combiner-style pre-truncation per input batch caps what the
  exchange ships (each batch contributes at most k rows per key it
  contains).
- ``distinct_count``: per-batch local distinct (arrow ``group_by``) is
  the combiner; the exchange ships already-deduped (key, value) pairs.
- ``grouped_median``: exact median needs a group's full value column in
  one place — values (8 bytes/row) exchange once, keyed by group.  At
  petabyte group sizes the approximate path is a t-digest/histogram
  sketch; exact is the correct default at "many groups × bounded group"
  shape, which is what web-corpus per-domain stats look like.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.rounding import sql_round
from ..stages.shuffle import combine, grouped_apply

_SIDE = "__side"
# a salted sketch merge folds at most 64 (HLL) or 32 (CMS) one-row
# partials whatever the input size, so its exchange count is fixed
_SALT_PARTS = 8


def _pad_to(batch: pa.Table, schema: pa.Schema) -> pa.Table:
    """Reshape ``batch`` to ``schema``: missing columns become typed
    nulls, present ones are cast — so both sides of a union exchange
    share one schema."""
    cols = []
    for field in schema:
        if field.name in batch.column_names:
            cols.append(pc.cast(batch.column(field.name), field.type))
        else:
            cols.append(pa.nulls(batch.num_rows, field.type))
    return pa.table(dict(zip(schema.names, cols)))


def _arrow_schema(ds) -> pa.Schema:
    """The dataset's schema as pyarrow — pandas-block datasets (e.g.
    ``from_pandas``) report a PandasBlockSchema, which we map through
    numpy dtypes (object → string)."""
    s = ds.schema()
    if s is None:
        return None  # empty dataset: Ray reports no schema at all
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, dtype in zip(base.names, base.types):
        try:
            typ = pa.from_numpy_dtype(dtype)
        except (pa.ArrowNotImplementedError, TypeError):
            typ = pa.string()
        fields.append(pa.field(name, typ))
    return pa.schema(fields)


def _copartition(left, right, key: str, right_key: str, right_cols: list[str],
                 partition_fn):
    """Union-join co-partition: rename the right side's key to the left's,
    pad both sides to the combined schema, tag with ``__side``, exchange
    once on the key, and hand each partition's (left_tbl, right_tbl) to
    ``partition_fn`` (pyarrow in, pyarrow out)."""
    left_schema = _arrow_schema(left)
    right_schema = _arrow_schema(right)
    if right_schema is None:
        # empty right side: no right batch will ever flow, so types only
        # seed the union schema — the key takes the left's key type
        right_schema = pa.schema(
            [
                pa.field(n, left_schema.field(key).type if n == right_key
                         else pa.string())
                for n in right_cols
            ]
        )

    fields = [pa.field(_SIDE, pa.int8())]
    fields += [left_schema.field(n) for n in left_schema.names]
    for n in right_cols:
        f = right_schema.field(n)
        out_name = key if n == right_key else n
        if out_name not in left_schema.names:
            fields.append(pa.field(out_name, f.type))
    union_schema = pa.schema(fields)

    def tag_left(batch: pa.Table) -> pa.Table:
        out = _pad_to(batch, union_schema)
        return out.set_column(
            0, _SIDE, pa.array(np.zeros(batch.num_rows, np.int8))
        )

    def tag_right(batch: pa.Table) -> pa.Table:
        batch = batch.select(right_cols).rename_columns(
            [key if n == right_key else n for n in right_cols]
        )
        out = _pad_to(batch, union_schema)
        return out.set_column(
            0, _SIDE, pa.array(np.ones(batch.num_rows, np.int8))
        )

    unioned = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def per_partition(tbl: pa.Table) -> pa.Table:
        side = tbl.column(_SIDE)
        lt = tbl.filter(pc.equal(side, 0)).select(left_schema.names)
        rt = tbl.filter(pc.equal(side, 1)).select(
            [key if n == right_key else n for n in right_cols]
        )
        return partition_fn(lt, rt)

    return grouped_apply(unioned, [key], per_partition,
                         batch_format="pyarrow")


def anti_join(left, right, left_key: str, right_key: str):
    """Rows of ``left`` whose ``left_key`` appears nowhere in
    ``right[right_key]`` — a distributed NOT EXISTS.  One hash exchange;
    the right side ships only its key column."""

    def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if rt.num_rows == 0:
            return lt
        mask = pc.invert(
            pc.is_in(lt.column(left_key),
                     value_set=rt.column(left_key).combine_chunks())
        )
        return lt.filter(mask)

    return _copartition(left, right, left_key, right_key, [right_key],
                        probe)


def asof_join(left, right, by: str, right_by: str, on: str,
              right_cols: list[str], tie_col: str,
              suffix: str = "_r",
              direction: str = "backward"):
    """For every left row, the most recent right row of the same ``by``
    key with ``right.on`` STRICTLY before ``left.on`` (inner semantics:
    left rows with no prior right row are dropped).  Ties on ``on`` in
    the right table break toward the largest ``tie_col`` — pinned by
    sorting the right side by (on, tie_col) so ``merge_asof`` keeps the
    last.  One hash exchange on ``by``; each partition runs one sorted
    pandas ``merge_asof``.

    ``direction="forward"`` flips the semantics to the EARLIEST right
    row STRICTLY after ``left.on`` (the "next following event" join);
    ties on ``on`` then break toward the SMALLEST ``tie_col`` (the
    same right-side sort — ``merge_asof`` forward keeps the first)."""
    keep = [c for c in right_cols if c != right_by]

    def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lpdf = lt.to_pandas()
        rpdf = rt.to_pandas()
        if len(lpdf) == 0 or len(rpdf) == 0:
            out = lpdf.iloc[0:0].copy()
            out[on + suffix] = pd.Series([], dtype=rpdf[on].dtype)
            for c in keep:
                suffixed = c + suffix if c in lpdf.columns else c
                out[suffixed] = pd.Series([], dtype=rpdf[c].dtype)
            return pa.Table.from_pandas(out, preserve_index=False)
        rpdf = rpdf.rename(
            columns={c: c + suffix for c in keep if c in lpdf.columns}
        )
        rkeep = [c + suffix if c in lpdf.columns else c for c in keep]
        joined = pd.merge_asof(
            lpdf.sort_values([on], kind="stable"),
            rpdf.sort_values([on, (tie_col + suffix)
                              if tie_col in lpdf.columns else tie_col],
                             kind="stable")[[by, on] + rkeep].rename(
                columns={on: on + suffix}),
            left_on=on, right_on=on + suffix, by=by,
            allow_exact_matches=False, direction=direction,
        )
        joined = joined[joined[rkeep[0]].notna()]
        # restore integer dtypes merge_asof floated via NaN padding
        for c in rkeep:
            base = c[: -len(suffix)] if c.endswith(suffix) else c
            ftype = rt.schema.field(base).type if base in rt.column_names \
                else None
            if ftype is not None and pa.types.is_integer(ftype):
                joined[c] = joined[c].astype("int64")
        return pa.Table.from_pandas(joined, preserve_index=False)

    return _copartition(left, right, by, right_by, [right_by, on] + keep,
                        probe)


def window_topk(ds, keys: list[str], order_col: str, k: int,
                tie_col: str, ascending: bool = False):
    """Top-``k`` rows per distinct ``keys`` by ``order_col`` (ties break
    toward ascending ``tie_col``) — ROW_NUMBER() <= k as data movement.
    A per-batch combiner truncates each input batch to its own local
    top-k per key before the exchange, so the shuffle ships at most
    k rows per (batch, key)."""

    def local_topk(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values([order_col, tie_col],
                              ascending=[ascending, True], kind="stable")
        return pdf.groupby(keys, sort=False, dropna=False).head(k)

    combined = combine(ds, local_topk, batch_format="pandas")
    return grouped_apply(combined, keys, local_topk,
                         batch_format="pandas")


def distinct_count(ds, keys: list[str], value_col: str, out_col: str):
    """COUNT(DISTINCT value) per ``keys``.  Per-batch arrow ``group_by``
    over (keys, value) is the combiner — the exchange ships only deduped
    pairs — then each partition counts distinct values per key."""
    cols = keys + [value_col]

    def local_distinct(batch: pa.Table) -> pa.Table:
        return batch.select(cols).group_by(cols).aggregate([])

    def count_partition(batch: pa.Table) -> pa.Table:
        dedup = batch.group_by(cols).aggregate([])
        counted = dedup.group_by(keys).aggregate(
            [(value_col, "count_distinct")]
        )
        return counted.rename_columns(keys + [out_col])

    combined = combine(ds, local_distinct)
    return grouped_apply(combined, keys, count_partition,
                         batch_format="pyarrow")


def broadcast_range_join(ds, intervals: pa.Table, value_col: str,
                         lo_col: str = "lo", hi_col: str = "hi",
                         closed: str = "left"):
    """Range (interval) join against a SMALL interval table: every input
    row pairs with every interval containing ``value_col`` (intervals
    may overlap — a row can match several).  The interval side is
    broadcast via ``ray.put`` once and read inside every task — never
    shuffled, never re-shipped per batch; work per batch is one
    vectorized mask per interval (k masks × n rows, k small by
    contract).  For a large interval side this becomes a co-partitioned
    join on a coarse bucketing of the value domain — out of scope here
    and documented as the scale path."""
    import ray

    if intervals.num_rows > 10_000:
        raise ValueError(
            "broadcast_range_join is for small interval tables "
            f"(got {intervals.num_rows} rows); use a bucketed exchange"
        )
    ref = ray.put(intervals)
    if closed == "left":
        lo_ok, hi_ok = pc.greater_equal, pc.less
    elif closed == "both":
        lo_ok, hi_ok = pc.greater_equal, pc.less_equal
    else:
        raise ValueError(f"closed must be 'left' or 'both', got {closed!r}")

    def probe(batch: pa.Table) -> pa.Table:
        iv = ray.get(ref)
        outs = []
        for i in range(iv.num_rows):
            lo = iv.column(lo_col)[i].as_py()
            hi = iv.column(hi_col)[i].as_py()
            mask = pc.and_(
                lo_ok(batch.column(value_col), lo),
                hi_ok(batch.column(value_col), hi),
            )
            hit = batch.filter(mask)
            if hit.num_rows == 0:
                continue
            for name in iv.column_names:
                hit = hit.append_column(
                    name,
                    pa.nulls(hit.num_rows, iv.field(name).type).fill_null(
                        iv.column(name)[i].as_py()
                    ),
                )
            outs.append(hit)
        if not outs:
            empty = batch.slice(0, 0)
            for name in iv.column_names:
                empty = empty.append_column(
                    name, pa.nulls(0, iv.field(name).type)
                )
            return empty
        return pa.concat_tables(outs)

    return ds.map_batches(probe, batch_format="pyarrow")


def grouped_quantile(ds, keys: list[str], value_col: str, q: float,
                     out_col: str, ndigits: int = 6):
    """Exact per-group quantile with linear interpolation (the SQL
    ``quantile_cont`` convention; ``q=0.5`` reduces to
    :func:`grouped_median`).  Same exchange shape as the median: only
    (keys, value) ship, keyed by group; the sketch path (t-digest) is the
    documented alternative at unbounded group sizes."""

    def quant(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby(keys, sort=True, dropna=False)[value_col]
            .quantile(q)
            .reset_index(name=out_col)
        )
        out[out_col] = sql_round(out[out_col], ndigits)
        return out

    slim = ds.map_batches(
        lambda b: b.select(keys + [value_col]), batch_format="pyarrow"
    )
    return grouped_apply(slim, keys, quant,
                         batch_format="pandas")


def rollup_sum(ds, keys: list[str], value_col: str,
               sentinel: str = "ALL", count_col: str = "n",
               sum_col: str = "sum_value", ndigits: int = 2):
    """GROUP BY ROLLUP(keys): count + sum at every prefix level of
    ``keys`` (finest → … → grand total), rolled-up key columns filled
    with ``sentinel``.

    Scale shape: the RAW data is aggregated exactly once (one exchange,
    per-batch combiner inside ``grouped_apply``'s partitions) into the
    finest level; every coarser level re-aggregates the PREVIOUS level's
    result — a cascade over already-tiny aggregate tables, never a
    second pass over the input.  The grand total is a driver-side fold
    of the coarsest table (scalar output)."""

    def finest(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(keys).aggregate(
            [([], "count_all"), (value_col, "sum")]
        )
        return agg.rename_columns(keys + [count_col, sum_col])

    slim = ds.map_batches(
        lambda b: b.select(keys + [value_col]), batch_format="pyarrow"
    )
    levels = [
        grouped_apply(slim, keys, finest,
                      batch_format="pyarrow")
    ]
    for depth in range(len(keys) - 1, -1, -1):
        prev = levels[-1]
        sub = keys[:depth]

        def coarsen(tbl: pa.Table, _sub=tuple(sub)) -> pa.Table:
            cols = list(_sub)
            if cols:
                agg = tbl.group_by(cols).aggregate(
                    [(count_col, "sum"), (sum_col, "sum")]
                )
            else:
                agg = tbl.group_by([]).aggregate(
                    [(count_col, "sum"), (sum_col, "sum")]
                )
            return agg.rename_columns(cols + [count_col, sum_col])

        if sub:
            levels.append(
                grouped_apply(prev, sub, coarsen,
                              batch_format="pyarrow")
            )
        else:
            # grand total: fold the coarsest level on the driver (scalar)
            rows = prev.map_batches(coarsen, batch_format="pyarrow").take_all()
            import ray.data

            total = pa.table(
                {
                    count_col: pa.array(
                        [sum(r[count_col] for r in rows)], pa.int64()
                    ),
                    sum_col: pa.array(
                        [float(sum(r[sum_col] for r in rows))], pa.float64()
                    ),
                }
            )
            levels.append(ray.data.from_arrow(total))

    def pad(level_keys: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            cols = {}
            for k in keys:
                if k in level_keys:
                    cols[k] = pc.cast(batch.column(k), pa.string())
                else:
                    cols[k] = pa.array([sentinel] * batch.num_rows,
                                       pa.string())
            cols[count_col] = pc.cast(batch.column(count_col), pa.int64())
            cols[sum_col] = sql_round(
                pc.cast(batch.column(sum_col), pa.float64()), ndigits
            )
            return pa.table(cols)

        return fn

    out = levels[0].map_batches(pad(keys), batch_format="pyarrow")
    for depth, lvl in zip(range(len(keys) - 1, -1, -1), levels[1:]):
        out = out.union(
            lvl.map_batches(pad(keys[:depth]), batch_format="pyarrow")
        )
    return out


def distinct_set_op(left, right, left_key: str, right_key: str,
                    mode: str = "intersect"):
    """Distinct-set INTERSECT / EXCEPT on a key column (SQL bag-free set
    semantics).  Per-batch arrow distinct is the combiner on both sides,
    so the exchange ships deduped keys only; each partition then keeps
    the left-distinct keys present (intersect) or absent (except) on the
    right — the same union-join co-partition as ``anti_join``, but
    set-valued on both sides."""
    if mode not in ("intersect", "except"):
        raise ValueError(f"mode must be intersect|except, got {mode!r}")

    def local_distinct_l(batch: pa.Table) -> pa.Table:
        return batch.select([left_key]).group_by([left_key]).aggregate([])

    def local_distinct_r(batch: pa.Table) -> pa.Table:
        return batch.select([right_key]).group_by([right_key]).aggregate([])

    left_d = combine(left, local_distinct_l)
    right_d = combine(right, local_distinct_r)

    def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
        ld = lt.group_by([left_key]).aggregate([])
        present = pc.is_in(
            ld.column(left_key),
            value_set=rt.column(left_key).combine_chunks(),
        )
        mask = present if mode == "intersect" else pc.invert(present)
        return ld.filter(mask)

    return _copartition(left_d, right_d, left_key, right_key, [right_key],
                        probe)


def pivot_sum(ds, key: str, pivot_col: str, value_col: str,
              categories: list[str], out_cols: list[str] | None = None,
              ndigits: int = 2):
    """Wide pivot: one output row per ``key``, one column per category
    holding ``sum(value_col) where pivot_col == category`` (SQL's
    SUM(CASE WHEN …) conditional-aggregation shape).  ``categories`` is
    the fixed output vocabulary — a pivot at scale must DECLARE its
    columns; discovering them from data would need an extra pass and an
    unbounded schema.  Per-batch arrow partial aggregation on
    (key, pivot) is the combiner, so the exchange ships one partial sum
    per (batch, key, category), never raw rows."""
    out_cols = out_cols or categories
    if len(out_cols) != len(categories):
        raise ValueError("out_cols must match categories 1:1")

    def partial(batch: pa.Table) -> pa.Table:
        agg = (
            batch.select([key, pivot_col, value_col])
            .group_by([key, pivot_col])
            .aggregate([(value_col, "sum")])
        )
        return agg.rename_columns([key, pivot_col, "__psum"])

    def widen(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        wide = pdf.pivot_table(index=key, columns=pivot_col,
                               values="__psum", aggfunc="sum", fill_value=0.0)
        wide = wide.reindex(columns=categories, fill_value=0.0)
        out = pd.DataFrame({key: wide.index.to_numpy()})
        for cat, name in zip(categories, out_cols):
            out[name] = sql_round(wide[cat].astype(float).to_numpy(), ndigits)
        return pa.Table.from_pandas(out, preserve_index=False)

    combined = combine(ds, partial)
    return grouped_apply(combined, [key], widen,
                         batch_format="pyarrow")


# ---------------------------------------------------------------------------
# HyperLogLog approximate distinct count (Flajolet et al. 2007)
# ---------------------------------------------------------------------------

def _hll_alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _hll_registers(values: pd.Series, codes: np.ndarray, n_keys: int,
                   p: int) -> np.ndarray:
    """(n_keys, 2^p) uint8 register matrix for hashed ``values`` grouped
    by ``codes`` — fully vectorized (one hash pass + np.maximum.at)."""
    m = 1 << p
    h = pd.util.hash_pandas_object(values, index=False).to_numpy(
    ).astype(np.uint64)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | (np.uint64(1) << np.uint64(p - 1))
    # rank = leading zeros of the remaining bits + 1; the OR above seeds
    # a sentinel bit so rank is bounded by (64-p)+1 and rest is never 0.
    # floor(log2) must be EXACT — full-width uint64→float64 rounds near
    # 2^64 — so split into 32-bit halves (float64 represents uint32
    # exactly, and log2 rounding cannot cross an integer boundary there)
    hi32 = (rest >> np.uint64(32)).astype(np.float64)
    lo32 = (rest & np.uint64(0xFFFFFFFF)).astype(np.float64)
    with np.errstate(divide="ignore"):
        high = np.where(
            hi32 > 0,
            32 + np.floor(np.log2(np.maximum(hi32, 1.0))),
            np.floor(np.log2(np.maximum(lo32, 1.0))),
        ).astype(np.int64)
    rank = (64 - high).astype(np.uint8)
    regs = np.zeros((n_keys, m), dtype=np.uint8)
    np.maximum.at(regs, (codes, idx), rank)
    return regs


def _hll_estimate(regs: np.ndarray) -> np.ndarray:
    """Distinct-count estimates for each row of a register matrix, with
    the standard small-range linear-counting correction."""
    m = regs.shape[1]
    est = _hll_alpha(m) * m * m / np.sum(
        np.power(2.0, -regs.astype(np.float64)), axis=1
    )
    zeros = np.sum(regs == 0, axis=1)
    small = est <= 2.5 * m
    with np.errstate(divide="ignore"):
        linear = m * np.log(m / np.maximum(zeros, 1).astype(np.float64))
    use_linear = small & (zeros > 0)
    est = np.where(use_linear, linear, est)
    return est


def grouped_approx_distinct(ds, keys: list[str], value_col: str,
                            out_col: str, precision: int = 12):
    """Approximate COUNT(DISTINCT value) per group via HyperLogLog —
    the sketch path next to the exact :func:`distinct_count`.  Standard
    error ≈ 1.04/sqrt(2^precision) (~1.6% at p=12).  Deterministic: the
    value hash is the engine-wide ``hash_pandas_object``, registers are
    an order-independent max — the estimate is identical under any
    partitioning or block order.

    Scale shape: each input batch reduces to one 2^p-byte register row
    per key it contains (the mergeable combiner); the exchange ships
    registers, never values — per-key cost is O(2^p) bytes total,
    versus the exact operator's O(distinct values).  This is the right
    operator when per-key distinct cardinality is unbounded (e.g.
    distinct visitors per domain over a web corpus)."""
    p = int(precision)
    if not 4 <= p <= 16:
        raise ValueError(f"precision must be in [4,16], got {precision}")
    m = 1 << p

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            out = pdf[keys].iloc[0:0].copy()
            out["__regs"] = pd.Series([], dtype=object)
            return out
        grp = pdf.groupby(keys, sort=True, dropna=False)
        codes = grp.ngroup().to_numpy()
        regs = _hll_registers(pdf[value_col], codes, grp.ngroups, p)
        heads = grp.head(1).sort_values(keys, kind="stable")
        out = heads[keys].reset_index(drop=True)
        out["__regs"] = [regs[i].tobytes() for i in range(grp.ngroups)]
        return out

    def merge(pdf: pd.DataFrame) -> pd.DataFrame:
        grp = pdf.groupby(keys, sort=True, dropna=False)
        rows = []
        for kv, g in grp:
            stack = np.stack(
                [np.frombuffer(b, dtype=np.uint8) for b in g["__regs"]]
            )
            merged = stack.max(axis=0)
            est = float(_hll_estimate(merged[None, :])[0])
            kv = kv if isinstance(kv, tuple) else (kv,)
            rows.append((*kv, int(sql_round(est))))
        return pd.DataFrame(rows, columns=keys + [out_col])

    slim = ds.map_batches(
        lambda b: b.select(keys + [value_col]), batch_format="pyarrow"
    )
    combined = combine(slim, partial, batch_format="pandas")
    return grouped_apply(combined, keys, merge,
                         batch_format="pandas")


def grouped_median(ds, keys: list[str], value_col: str, out_col: str,
                   ndigits: int = 6):
    """Exact per-group median (linear-interpolated on even counts, the
    SQL ``median()`` convention).  Ships only (keys, value) through one
    exchange; see the module docstring for the sketch-based path at
    unbounded group sizes."""

    def med(pdf: pd.DataFrame) -> pd.DataFrame:
        out = (
            pdf.groupby(keys, sort=True, dropna=False)[value_col]
            .median()
            .reset_index(name=out_col)
        )
        out[out_col] = sql_round(out[out_col], ndigits)
        return out

    slim = ds.map_batches(
        lambda b: b.select(keys + [value_col]), batch_format="pyarrow"
    )
    return grouped_apply(slim, keys, med,
                         batch_format="pandas")


# ---------------------------------------------------------------------------
# Bloom-filter semi-join (Bloom 1970) — broadcast-pruned big-big semi-join
# ---------------------------------------------------------------------------

def _bloom_positions(series: pd.Series, nbits: int, nhashes: int):
    """k bit positions per value via double hashing (Kirsch & Mitzenmacher
    2006): two independent ``hash_pandas_object`` passes, ``h1 + i*h2``.
    Deterministic across processes (fixed hash keys), fully vectorized."""
    h1 = pd.util.hash_pandas_object(
        series, index=False, hash_key="graftbloomhash0a"
    ).to_numpy().astype(np.uint64)
    h2 = pd.util.hash_pandas_object(
        series, index=False, hash_key="graftbloomhash0b"
    ).to_numpy().astype(np.uint64) | np.uint64(1)
    return [
        ((h1 + np.uint64(i) * h2) % np.uint64(nbits)).astype(np.int64)
        for i in range(nhashes)
    ]


def _bloom_mask_ref(right, right_key: str, nbits: int, nhashes: int):
    """Reduce ``right[right_key]`` to one broadcast Bloom mask: each
    batch emits its packed mask (one row, nbits/8 bytes) and the driver
    ORs them STREAMING — driver memory is one mask regardless of batch
    count; the masks, not the keys, cross the wire."""
    import ray

    def build_mask(batch: pa.Table) -> pa.Table:
        bits = np.zeros(nbits, dtype=bool)
        if batch.num_rows:
            s = batch.column(right_key).to_pandas()
            for pos in _bloom_positions(s, nbits, nhashes):
                bits[pos] = True
        return pa.table({"__mask": pa.array([np.packbits(bits).tobytes()],
                                            pa.binary())})

    mask = np.zeros(nbits // 8, dtype=np.uint8)
    for part in right.map_batches(
        build_mask, batch_format="pyarrow"
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        for buf in part.column("__mask").to_pylist():
            mask |= np.frombuffer(buf, dtype=np.uint8)
    return ray.put(mask)


def _bloom_prefilter(mask_ref, left_key: str, nbits: int, nhashes: int,
                     want: bool):
    """Batch filter keeping rows whose bloom-membership flag equals
    ``want`` (True: possible matches; False: definite non-matches)."""
    import ray

    def prefilter(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        m = ray.get(mask_ref)
        s = batch.column(left_key).to_pandas()
        hit = np.ones(batch.num_rows, dtype=bool)
        for pos in _bloom_positions(s, nbits, nhashes):
            # np.packbits is MSB-first within each byte
            hit &= (m[pos >> 3] >> (7 - (pos & 7)).astype(np.int64)) & 1 > 0
        return batch.filter(pa.array(hit if want else ~hit))

    return prefilter


def bloom_semi_join(left, right, left_key: str, right_key: str,
                    nbits: int = 1 << 23, nhashes: int = 4):
    """EXACT semi-join (rows of ``left`` whose key exists in ``right``)
    with a broadcast Bloom filter as the shuffle pruner.

    Scale shape: the right side reduces to one ``nbits``-bit mask — each
    right batch emits its own packed mask (one row, nbits/8 bytes) and
    the driver ORs them (a tree-reduce at very large batch counts; the
    masks, not the keys, are what crosses the wire).  The mask is
    ``ray.put`` once and read in every probe task: left rows failing any
    of the k bits are dropped BEFORE the exchange — at web scale this is
    the difference between shuffling all of ``left`` and shuffling only
    the ~matching fraction (false-positive rate (1-e^{-kn/m})^k, ~0.6%
    at the defaults with 1M distinct right keys).  Survivors then pass
    through the exact co-partitioned ``is_in`` probe, so the result has
    no false positives."""
    mask_ref = _bloom_mask_ref(right, right_key, nbits, nhashes)
    pruned = left.map_batches(
        _bloom_prefilter(mask_ref, left_key, nbits, nhashes, want=True),
        batch_format="pyarrow",
    )

    def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if rt.num_rows == 0:
            return lt.slice(0, 0)
        return lt.filter(
            pc.is_in(lt.column(left_key),
                     value_set=rt.column(left_key).combine_chunks())
        )

    return _copartition(pruned, right, left_key, right_key, [right_key],
                        probe)


def bloom_anti_join(left, right, left_key: str, right_key: str,
                    nbits: int = 1 << 23, nhashes: int = 4):
    """EXACT anti-join (rows of ``left`` whose key does NOT exist in
    ``right``) with the Bloom mask inverted as the shuffle pruner — the
    incremental-dedup shape: dedupe a new crawl against an existing
    corpus where only the ~duplicate fraction ever shuffles.

    Bloom-NEGATIVE rows are definite non-matches and are kept WITHOUT
    any exchange (for a mostly-new corpus that is almost everything);
    only bloom-positive rows (true duplicates + the ~0.6% false
    positives at defaults) go through the exact co-partitioned
    :func:`anti_join`, which resurrects the false positives — so the
    result is exact."""
    mask_ref = _bloom_mask_ref(right, right_key, nbits, nhashes)
    definite_new = left.map_batches(
        _bloom_prefilter(mask_ref, left_key, nbits, nhashes, want=False),
        batch_format="pyarrow",
    )
    candidates = left.map_batches(
        _bloom_prefilter(mask_ref, left_key, nbits, nhashes, want=True),
        batch_format="pyarrow",
    )
    verified_new = anti_join(candidates, right, left_key, right_key)
    return definite_new.union(verified_new)


def grouped_concat(ds, keys: list[str], value_col: str, order_col: str,
                   out_col: str, sep: str = ","):
    """Per-group ordered string concatenation — SQL
    ``string_agg(value, sep ORDER BY order_col)``.  Ordering across the
    whole group pins the result, so (keys, value, order) rows exchange
    once and each partition sorts locally then joins; there is no
    order-preserving pre-concat combiner by construction (concatenating
    partial strings from different batches would interleave).  Per-key
    output is a string proportional to the group's values — the same
    "bounded group" contract as the exact median."""
    cols = list(dict.fromkeys(keys + [value_col, order_col]))

    def concat(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(keys + [order_col], kind="stable")
        out = (
            pdf.groupby(keys, sort=True, dropna=False)[value_col]
            .agg(lambda s: sep.join(s.astype(str)))
            .reset_index(name=out_col)
        )
        return out

    slim = ds.map_batches(lambda b: b.select(cols), batch_format="pyarrow")
    return grouped_apply(slim, keys, concat, batch_format="pandas")


def heavy_hitters(ds, value_col: str, k: int,
                  count_col: str = "n") -> pa.Table:
    """EXACT global top-``k`` most frequent values (ties break toward the
    smaller value).  Per-batch arrow ``group_by`` count is the combiner —
    the exchange ships one (value, partial count) per batch per distinct
    value — then each partition sums its values' counts and keeps its own
    local top-k; the driver merges ``partitions × k`` candidate rows
    (correct because a value's total count lives entirely in one
    partition).  Returns a pyarrow Table (small by construction).  The
    sketch path at unbounded vocabularies is Misra-Gries/Space-Saving;
    exact is right whenever the combined per-partition distinct set fits
    a worker, which holds for word-like vocabularies."""

    def partial(batch: pa.Table) -> pa.Table:
        agg = batch.select([value_col]).group_by([value_col]).aggregate(
            [([], "count_all")]
        )
        return agg.rename_columns([value_col, count_col])

    def local_topk(tbl: pa.Table) -> pa.Table:
        summed = tbl.group_by([value_col]).aggregate([(count_col, "sum")])
        summed = summed.rename_columns([value_col, count_col])
        order = pc.sort_indices(
            summed,
            sort_keys=[(count_col, "descending"), (value_col, "ascending")],
        )
        return summed.take(order.slice(0, k))

    combined = combine(ds, partial)
    candidates = grouped_apply(combined, [value_col], local_topk,
                               batch_format="pyarrow").take_all()
    tbl = pa.Table.from_pylist(candidates) if candidates else pa.table(
        {value_col: pa.array([], pa.string()),
         count_col: pa.array([], pa.int64())}
    )
    order = pc.sort_indices(
        tbl, sort_keys=[(count_col, "descending"), (value_col, "ascending")]
    )
    top = tbl.take(order.slice(0, k)).select([value_col, count_col])
    return top.set_column(
        1, count_col, pc.cast(top.column(count_col), pa.int64())
    )


def grouped_corr(ds, keys: list[str], x_col: str, y_col: str,
                 out_col: str, ndigits: int = 6):
    """Exact per-group Pearson correlation via the sufficient-statistics
    combiner: each batch reduces to (n, Σx, Σy, Σx², Σy², Σxy) per key,
    partials merge by addition after one exchange — the textbook
    algebraic-aggregate shape, O(groups) shuffle bytes regardless of
    input size.  Matches SQL ``corr()`` to float64 precision (both are
    the same closed form; results rounded to ``ndigits``)."""

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(x_col), pa.float64())
        y = pc.cast(batch.column(y_col), pa.float64())
        t = pa.table({
            **{kc: batch.column(kc) for kc in keys},
            "__x": x, "__y": y,
            "__xx": pc.multiply(x, x), "__yy": pc.multiply(y, y),
            "__xy": pc.multiply(x, y),
        })
        agg = t.group_by(keys).aggregate(
            [([], "count_all")] + [(c, "sum")
                                   for c in ("__x", "__y", "__xx", "__yy",
                                             "__xy")]
        )
        return agg.rename_columns(keys + ["__n", "__x", "__y", "__xx",
                                          "__yy", "__xy"])

    def finish(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        g = pdf.groupby(keys, sort=True, dropna=False).sum().reset_index()
        n = g["__n"].to_numpy(dtype=np.float64)
        sx, sy = g["__x"].to_numpy(), g["__y"].to_numpy()
        sxx, syy, sxy = (g["__xx"].to_numpy(), g["__yy"].to_numpy(),
                         g["__xy"].to_numpy())
        cov = n * sxy - sx * sy
        varx = n * sxx - sx * sx
        vary = n * syy - sy * sy
        denom = np.sqrt(varx * vary)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(denom > 0, cov / denom, np.nan)
        out = g[keys].copy()
        out[out_col] = sql_round(r, ndigits)
        return pa.Table.from_pandas(out, preserve_index=False)

    slim = ds.map_batches(
        lambda b: b.select(keys + [x_col, y_col]), batch_format="pyarrow"
    )
    combined = combine(slim, partial)
    return grouped_apply(combined, keys, finish,
                         batch_format="pyarrow")


def grouped_var(ds, keys: list[str], value_col: str,
                var_col: str = "var_samp", std_col: str = "stddev",
                ndigits: int = 6):
    """Exact per-group sample variance + stddev via the same
    sufficient-statistics combiner as :func:`grouped_corr` — each batch
    reduces to (n, Σx, Σx²) per key, partials merge by addition after
    one exchange.  Closed form ``(n·Σx² − (Σx)²) / (n·(n−1))``; null
    for groups of size 1 (SQL ``var_samp`` convention)."""

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(value_col), pa.float64())
        t = pa.table({
            **{kc: batch.column(kc) for kc in keys},
            "__x": x, "__xx": pc.multiply(x, x),
        })
        agg = t.group_by(keys).aggregate(
            [([], "count_all"), ("__x", "sum"), ("__xx", "sum")]
        )
        return agg.rename_columns(keys + ["__n", "__x", "__xx"])

    def finish(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        g = pdf.groupby(keys, sort=True, dropna=False).sum().reset_index()
        n = g["__n"].to_numpy(dtype=np.float64)
        sx, sxx = g["__x"].to_numpy(), g["__xx"].to_numpy()
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(n > 1, (n * sxx - sx * sx) / (n * (n - 1.0)),
                         np.nan)
            v = np.maximum(v, 0.0)  # clamp negative rounding residue
        out = g[keys].copy()
        out[var_col] = sql_round(v, ndigits)
        out[std_col] = sql_round(np.sqrt(v), ndigits)
        return pa.Table.from_pandas(out, preserve_index=False)

    slim = ds.map_batches(
        lambda b: b.select(keys + [value_col]), batch_format="pyarrow"
    )
    combined = combine(slim, partial)
    return grouped_apply(combined, keys, finish,
                         batch_format="pyarrow")


def window_ntile(ds, keys: list[str], order_col: str, tiles: int,
                 tie_col: str, out_col: str = "tile"):
    """SQL ``NTILE(tiles) OVER (PARTITION BY keys ORDER BY order_col,
    tie_col)`` — the first ``n % tiles`` buckets get ``⌈n/tiles⌉`` rows
    (exact SQL semantics, 1-based).  Same exchange shape as
    :func:`windowed_cumsum`: one exchange on the keys, per-partition
    stable sort + a fully vectorized position→bucket formula."""
    cols = list(dict.fromkeys(keys + [order_col, tie_col]))

    def ntile(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(keys + [order_col, tie_col], kind="stable")
        grp = pdf.groupby(keys, sort=False, dropna=False)
        p = grp.cumcount().to_numpy(np.int64)
        n = grp[order_col].transform("size").to_numpy(np.int64)
        k, r = n // tiles, n % tiles
        big = r * (k + 1)
        out = pdf.copy()
        out[out_col] = np.where(
            p < big,
            p // np.maximum(k + 1, 1),
            r + (p - big) // np.maximum(k, 1),
        ) + 1
        return out

    slim = ds.map_batches(lambda b: b.select(cols), batch_format="pyarrow")
    return grouped_apply(slim, keys, ntile,
                         batch_format="pandas")


def copartition_agg_join(fact, dim, key: str, dim_key: str,
                         dim_cols: list[str], value_col: str,
                         sum_col: str):
    """Fused big-big aggregate⋈join on one key: the fact side is
    pre-aggregated per batch (combiner), both sides co-partition in ONE
    union exchange, and each partition sums fact partials per key and
    inner-joins the dim rows that landed in the same partition — the
    multi-way-join building block (TPC-H Q3 shape: lineitem revenue per
    orderkey ⋈ orders).  One exchange total; only (key, partial sum)
    and the dim's needed columns ship."""
    keep = [c for c in dim_cols if c != dim_key]

    def partial(batch: pa.Table) -> pa.Table:
        agg = batch.select([key, value_col]).group_by([key]).aggregate(
            [(value_col, "sum")]
        )
        return agg.rename_columns([key, sum_col])

    def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if lt.num_rows == 0 or rt.num_rows == 0:
            empty = lt.slice(0, 0)
            for c in keep:
                empty = empty.append_column(
                    c, pa.nulls(0, rt.schema.field(c).type)
                )
            return empty
        summed = lt.group_by([key]).aggregate([(sum_col, "sum")])
        summed = summed.rename_columns([key, sum_col])
        return summed.join(rt, keys=[key], join_type="inner")

    combined = combine(fact, partial)
    return _copartition(combined, dim, key, dim_key, [dim_key] + keep,
                        probe)


def windowed_cumsum(ds, keys: list[str], order_col: str, value_col: str,
                    out_col: str, tie_col: str, ndigits: int = 6):
    """Per-key running total — SQL ``SUM(value) OVER (PARTITION BY keys
    ORDER BY order_col, tie_col ROWS UNBOUNDED PRECEDING)``.  A window
    that orders the WHOLE group needs the group in one place: (keys,
    order, tie, value) exchange once, each partition sorts locally and
    runs one vectorized pandas ``groupby().cumsum()``.  Same bounded-
    group contract as the exact median; the streaming alternative for
    time-ordered logs is a per-key stateful actor over an
    already-time-bucketed layout."""
    cols = list(dict.fromkeys(keys + [order_col, tie_col, value_col]))

    def cumsum(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(keys + [order_col, tie_col], kind="stable")
        out = pdf.copy()
        out[out_col] = sql_round(
            pdf.groupby(keys, sort=False, dropna=False)[value_col]
            .cumsum().to_numpy(),
            ndigits,
        )
        return out

    slim = ds.map_batches(lambda b: b.select(cols), batch_format="pyarrow")
    return grouped_apply(slim, keys, cumsum,
                         batch_format="pandas")


def windowed_cumagg(ds, keys: list[str], order_col: str, value_col: str,
                    out_col: str, tie_col: str, agg: str = "max"):
    """Per-key running ``max``/``min``/``count`` — SQL ``AGG(value)
    OVER (PARTITION BY keys ORDER BY order_col, tie_col ROWS UNBOUNDED
    PRECEDING)``; :func:`windowed_cumsum`'s shape with the accumulator
    swapped (pandas ``cummax``/``cummin``/``cumcount``)."""
    if agg not in ("max", "min", "count"):
        raise ValueError(f"unsupported running aggregate: {agg}")
    cols = list(dict.fromkeys(keys + [order_col, tie_col, value_col]))

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(keys + [order_col, tie_col], kind="stable")
        out = pdf.copy()
        g = pdf.groupby(keys, sort=False, dropna=False)[value_col]
        if agg == "count":
            out[out_col] = (g.cumcount() + 1).astype(np.int64)
        elif agg == "max":
            out[out_col] = g.cummax().to_numpy()
        else:
            out[out_col] = g.cummin().to_numpy()
        return out

    slim = ds.map_batches(lambda b: b.select(cols), batch_format="pyarrow")
    return grouped_apply(slim, keys, run,
                         batch_format="pandas")


def grouped_mode(ds, keys: list[str], value_col: str,
                 count_col: str = "n"):
    """Per-group modal value (ties break toward the smallest value) with
    its count.  Per-batch partial counts combine before the one exchange
    — only distinct (keys, value, count) triples ship, so a hot value
    costs one row per batch, not one per occurrence."""

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(keys + [value_col], sort=False, dropna=False) \
            .size().reset_index(name="__c")
        return g

    def final(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(keys + [value_col], sort=False, dropna=False)[
            "__c"
        ].sum().reset_index()
        g = g.sort_values(keys + ["__c", value_col],
                          ascending=[True] * len(keys) + [False, True],
                          kind="stable")
        top = g.drop_duplicates(subset=keys, keep="first")
        return top.rename(columns={"__c": count_col})

    slim = ds.map_batches(
        lambda b: b.select(keys + [value_col]), batch_format="pyarrow"
    )
    combined = combine(slim, partial, batch_format="pandas")
    return grouped_apply(combined, keys, final,
                         batch_format="pandas")


def cube_sum(ds, keys: list[str], value_col: str, sentinel: str = "ALL",
             count_col: str = "n", sum_col: str = "sum_value",
             ndigits: int = 2):
    """GROUP BY CUBE(keys): count + sum for EVERY subset of ``keys``
    (2^len levels), absent key columns filled with ``sentinel``.  Like
    :func:`rollup_sum`, the raw data is aggregated exactly once into the
    finest level; every other subset re-aggregates that already-tiny
    table — never a second pass over the input."""
    from itertools import combinations

    def finest(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(keys).aggregate(
            [([], "count_all"), (value_col, "sum")]
        )
        return agg.rename_columns(keys + [count_col, sum_col])

    slim = ds.map_batches(
        lambda b: b.select(keys + [value_col]), batch_format="pyarrow"
    )
    finest_ds = grouped_apply(slim, keys, finest,
                              batch_format="pyarrow")

    def pad(level_keys: tuple[str, ...]):
        def fn(batch: pa.Table) -> pa.Table:
            cols = {}
            for k in keys:
                if k in level_keys:
                    cols[k] = pc.cast(batch.column(k), pa.string())
                else:
                    cols[k] = pa.array([sentinel] * batch.num_rows,
                                       pa.string())
            cols[count_col] = pc.cast(batch.column(count_col), pa.int64())
            cols[sum_col] = sql_round(
                pc.cast(batch.column(sum_col), pa.float64()), ndigits)
            return pa.table(cols)

        return fn

    out = finest_ds.map_batches(pad(tuple(keys)), batch_format="pyarrow")
    subsets = [
        sub
        for r in range(len(keys) - 1, -1, -1)
        for sub in combinations(keys, r)
    ]
    for sub in subsets:
        def coarsen(tbl: pa.Table, _sub=sub) -> pa.Table:
            agg = tbl.group_by(list(_sub)).aggregate(
                [(count_col, "sum"), (sum_col, "sum")]
            )
            return agg.rename_columns(list(_sub) + [count_col, sum_col])

        if sub:
            lvl = grouped_apply(finest_ds, list(sub), coarsen,
                                batch_format="pyarrow")
        else:
            rows = finest_ds.map_batches(
                coarsen, batch_format="pyarrow"
            ).take_all()
            import ray.data

            lvl = ray.data.from_arrow(pa.table({
                count_col: pa.array(
                    [sum(r[count_col] for r in rows)], pa.int64()
                ),
                sum_col: pa.array(
                    [float(sum(r[sum_col] for r in rows))], pa.float64()
                ),
            }))
        out = out.union(lvl.map_batches(pad(sub), batch_format="pyarrow"))
    return out


def grouped_quantile_sketch(ds, keys: list[str], value_col: str,
                            qs: list[float], delta: float = 200.0):
    """Per-group quantiles via the merging t-digest
    (functions/tdigest.py) — the scale path :func:`grouped_quantile`'s
    contract points to: a group never needs to fit anywhere.  Each batch
    compresses its values into ≤ ~2δ centroids per key (shipped as two
    ``list<double>`` columns), centroid lists merge associatively in the
    one exchange, and the final digest answers every requested quantile.
    Rank error is O(1/δ), tightest at the tails; like any sketch the
    exact estimate depends on batching, so results are reproducible for
    a fixed partitioning but only error-bounded across partitionings.
    Output columns: keys + ``q{q}`` per requested quantile."""
    from ..functions import tdigest as td

    def sketch(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, g in pdf.groupby(keys, sort=False, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            m, w = td.from_values(g[value_col].to_numpy(), delta)
            rows.append(
                dict(zip(keys, kv))
                | {"__m": list(m), "__w": list(w)}
            )
        if not rows:
            return pd.DataFrame(
                {c: pd.Series(dtype="object") for c in
                 keys + ["__m", "__w"]}
            )
        return pd.DataFrame(rows)

    def finalize(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, g in pdf.groupby(keys, sort=True, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            m, w = td.merge(
                [(np.asarray(r["__m"]), np.asarray(r["__w"]))
                 for _, r in g.iterrows()],
                delta,
            )
            rows.append(
                dict(zip(keys, kv))
                | {f"q{q}": td.quantile(m, w, q) for q in qs}
            )
        return pd.DataFrame(rows)

    slim = ds.map_batches(
        lambda b: b.select(keys + [value_col]), batch_format="pyarrow"
    )
    sketched = combine(slim, sketch, batch_format="pandas")
    return grouped_apply(sketched, keys, finalize,
                         batch_format="pandas")


def full_outer_join(left, right, left_key: str, right_key: str,
                    right_cols: list[str]):
    """Distributed FULL OUTER JOIN — both sides hash-co-partition on
    the key (one exchange, the union-join pattern), each partition runs
    Arrow's hash join locally with ``join_type="full outer"`` (key
    columns coalesced).  Unmatched left rows carry typed-null right
    columns and vice versa; the output key column is never null.
    Non-key column names must be disjoint across sides."""
    left_names = _arrow_schema(left).names
    out_right = [c for c in right_cols if c != right_key]
    clash = set(left_names) & set(out_right)
    if clash:
        raise ValueError(f"column name collision across sides: {clash}")
    out_names = left_names + out_right

    def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
        joined = lt.join(rt, keys=[left_key], join_type="full outer")
        return joined.select(out_names)

    return _copartition(left, right, left_key, right_key,
                        [right_key] + out_right, probe)


def window_lag(ds, keys: list[str], order_col: str, value_col: str,
               out_col: str, tie_col: str, periods: int = 1):
    """SQL ``LAG(value, periods) OVER (PARTITION BY keys ORDER BY
    order_col, tie_col)`` — null for each key's first ``periods`` rows.
    Same shape as :func:`windowed_cumsum`: one exchange on the keys,
    per-partition stable sort + one vectorized ``groupby().shift()``."""
    cols = list(dict.fromkeys(keys + [order_col, tie_col, value_col]))

    def lag(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(keys + [order_col, tie_col], kind="stable")
        out = pdf.copy()
        out[out_col] = pdf.groupby(keys, sort=False, dropna=False)[
            value_col
        ].shift(periods)
        return out

    slim = ds.map_batches(lambda b: b.select(cols), batch_format="pyarrow")
    return grouped_apply(slim, keys, lag,
                         batch_format="pandas")


def approx_heavy_hitters(ds, value_col: str, k: int, capacity: int = 4096,
                         count_col: str = "n") -> pa.Table:
    """Misra-Gries/Space-Saving heavy hitters with an exact recount —
    the sketch path next to the exact :func:`heavy_hitters` for
    UNBOUNDED vocabularies (URLs, n-grams) where shipping every distinct
    value through an exchange is the bottleneck.

    Pass 1: each batch compresses to a Misra-Gries summary of at most
    ``capacity`` counters (exact local counts decremented by the
    (capacity+1)-th largest — the classic FREQUENT compress; the merged
    guarantee ε·N, ε = 1/(capacity+1), is preserved under counter
    addition, Agarwal et al. 2013).  Summaries merge DISTRIBUTED: one
    exchange keyed by value sums each surviving value to a single row
    and truncates per partition to its local top-``capacity``, so the
    driver folds at most partitions × capacity rows — never a row per
    batch.  Survival guarantee: a value's merged count understates its
    true frequency by at most ε·N, and fewer than capacity+1 values can
    exceed ε·N in any partition, so any value with true frequency
    > 2·ε·N is guaranteed to survive the per-partition truncation into
    the candidate set (the classic ε·N bound, one doubling weaker).

    Pass 2: the ≤ partitions·capacity surviving candidates broadcast as
    a filter set and are recounted EXACTLY (per-batch count combiner +
    one tiny exchange) — so reported counts carry no sketch error, and
    the result equals the exact top-k whenever the k-th true frequency
    clears the ε·N survival bound (true for any power-law-ish corpus
    with capacity ≫ k)."""
    import ray

    def mg_compress(counts: pd.Series, cap: int) -> pd.Series:
        if len(counts) <= cap:
            return counts
        counts = counts.sort_values(ascending=False, kind="stable")
        dec = counts.iloc[cap]
        out = counts.iloc[:cap] - dec
        return out[out > 0]

    def sketch(pdf: pd.DataFrame) -> pd.DataFrame:
        c = mg_compress(pdf[value_col].value_counts(), capacity)
        return pd.DataFrame({value_col: c.index.to_numpy(),
                             "__c": c.to_numpy()})

    def merge_truncate(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(value_col, sort=False)["__c"].sum() \
            .sort_values(ascending=False, kind="stable")
        return g.iloc[:capacity].reset_index()

    parts = grouped_apply(
        combine(ds, sketch, batch_format="pandas"),
        [value_col], merge_truncate,
        batch_format="pandas",
    ).take_all()
    if not parts:
        return pa.table({value_col: pa.array([], pa.string()),
                         count_col: pa.array([], pa.int64())})
    merged = pd.DataFrame(parts).set_index(value_col)["__c"]
    candidates = set(mg_compress(merged, capacity).index)
    cand_ref = ray.put(candidates)

    def recount(pdf: pd.DataFrame) -> pd.DataFrame:
        cand = ray.get(cand_ref)
        c = pdf[value_col][pdf[value_col].isin(cand)].value_counts()
        return pd.DataFrame({value_col: c.index.to_numpy(),
                             "__c": c.to_numpy()})

    def total(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(value_col, sort=True)["__c"].sum().reset_index()
        return g

    exact = grouped_apply(combine(ds, recount, batch_format="pandas"),
                          [value_col], total,
                          batch_format="pandas").take_all()
    tbl = pa.Table.from_pylist(exact) if exact else pa.table(
        {value_col: pa.array([], pa.string()),
         "__c": pa.array([], pa.int64())}
    )
    order = pc.sort_indices(
        tbl, sort_keys=[("__c", "descending"), (value_col, "ascending")]
    )
    top = tbl.take(order.slice(0, k)).select([value_col, "__c"])
    return pa.table({
        value_col: top.column(value_col),
        count_col: pc.cast(top.column("__c"), pa.int64()),
    })


def inner_join(left, right, key: str, right_key: str,
               right_cols: list[str]):
    """Plain co-partitioned inner equi-join: both sides hash-exchange
    once on the key, each partition runs one local Arrow hash join.
    Per-key fan-in must fit a partition — for skewed keys use
    :func:`skew_join`, which routes the head keys around the exchange."""
    keep = [c for c in right_cols if c != right_key]
    left_schema = _arrow_schema(left)
    if left_schema is None:
        # provably empty left (Ray reports no schema at all): the
        # inner join of nothing is nothing — pass the empty through
        return left
    left_names = left_schema.names

    def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if lt.num_rows == 0 or rt.num_rows == 0:
            empty = lt.slice(0, 0)
            for c in keep:
                empty = empty.append_column(
                    c, pa.nulls(0, rt.schema.field(c).type)
                )
            return empty.select(left_names + keep)
        return lt.join(rt, keys=[key], join_type="inner").select(
            left_names + keep
        )

    return _copartition(left, right, key, right_key, [right_key] + keep,
                        probe)


def skew_join(left, right, key: str, right_key: str,
              right_cols: list[str], hot_threshold: int = 1_000_000):
    """Skew-handled inner equi-join — the head keys of a Zipf-distributed
    fact table never enter the exchange.

    A plain hash join puts every row of a hot key in ONE partition; a
    web-corpus join keyed by domain or entity routinely has head keys
    holding 1-10% of the corpus, which turns the exchange into a
    straggler.  Here:

    1. Left key frequencies aggregate through a per-batch Arrow combiner
       (ships one row per distinct key per batch) and keys with
       ``count >= hot_threshold`` are collected — **bounded by
       construction**: at most ``n_left / hot_threshold`` keys qualify,
       so the driver holds ≤ a few thousand keys at any corpus size.
    2. The right rows matching hot keys are collected and broadcast.
       Contract (documented, dim-like right side): O(1) right rows per
       key, so the broadcast is O(#hot keys).
    3. Hot left rows join map-side against the broadcast (no exchange —
       the skewed mass streams through ``map_batches``); cold rows take
       the normal co-partitioned exchange.  Output is the union.
    """
    keep = [c for c in right_cols if c != right_key]
    left_names = _arrow_schema(left).names

    def kpartial(batch: pa.Table) -> pa.Table:
        agg = batch.select([key]).group_by([key]).aggregate(
            [([], "count_all")]
        )
        return agg.rename_columns([key, "__n"])

    def ksum(tbl: pa.Table) -> pa.Table:
        s = tbl.group_by([key]).aggregate([("__n", "sum")])
        s = s.rename_columns([key, "__n"])
        return s.filter(pc.greater_equal(s.column("__n"),
                                         pa.scalar(hot_threshold)))

    hot_rows = grouped_apply(
        combine(left, kpartial), [key], ksum,
        batch_format="pyarrow",
    ).take_all()

    if not hot_rows:
        return inner_join(left, right, key, right_key, right_cols)

    key_type = _arrow_schema(left).field(key).type
    hot_arr = pc.cast(pa.array([r[key] for r in hot_rows]), key_type)

    rh_rows = right.map_batches(
        lambda b: b.filter(pc.is_in(b.column(right_key),
                                    value_set=pc.cast(hot_arr,
                                                      b.schema.field(
                                                          right_key).type))),
        batch_format="pyarrow",
    ).take_all()
    right_hot = (
        pa.Table.from_pylist(rh_rows).select(right_cols)
        if rh_rows else None
    )
    if right_hot is not None:
        right_hot = right_hot.rename_columns(
            [key if n == right_key else n for n in right_cols]
        )

    def split(batch: pa.Table, want_hot: bool) -> pa.Table:
        mask = pc.is_in(batch.column(key), value_set=hot_arr)
        return batch.filter(mask if want_hot else pc.invert(mask))

    def hot_probe(batch: pa.Table) -> pa.Table:
        lt = split(batch, True)
        if lt.num_rows == 0 or right_hot is None:
            empty = lt.slice(0, 0)
            for c in keep:
                typ = (right_hot.schema.field(c).type
                       if right_hot is not None else pa.string())
                empty = empty.append_column(c, pa.nulls(0, typ))
            return empty.select(left_names + keep)
        return lt.join(right_hot, keys=[key], join_type="inner").select(
            left_names + keep
        )

    hot_joined = left.map_batches(hot_probe, batch_format="pyarrow")
    left_cold = left.map_batches(lambda b: split(b, False),
                                 batch_format="pyarrow")
    right_cold = right.map_batches(
        lambda b: b.filter(
            pc.invert(pc.is_in(b.column(right_key),
                               value_set=pc.cast(hot_arr,
                                                 b.schema.field(
                                                     right_key).type)))),
        batch_format="pyarrow",
    )
    cold_joined = inner_join(left_cold, right_cold, key, right_key,
                             right_cols)
    return cold_joined.union(hot_joined)


def grouped_standardize(ds, keys: list[str], value_col: str,
                        out_col: str = "zscore", ndigits: int = 4):
    """Per-group z-score ``(x − μ_g) / σ_g`` (σ = sample stddev) without
    shuffling the fact table: the same (n, Σx, Σx²) sufficient-stats
    combiner as :func:`grouped_var` reduces each batch to one tiny row
    per key, ONE small exchange merges them, and the resulting per-group
    stats (bounded by group cardinality — per-domain/label/type shape)
    broadcast back into a map-side standardize pass.  Contrast
    :func:`windowed_cumsum`, which must co-locate whole groups; a
    z-score only needs two scalars per group.  Groups of size 1 get a
    null z (SQL ``stddev_samp`` convention)."""
    import ray

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(value_col), pa.float64())
        t = pa.table({
            **{kc: batch.column(kc) for kc in keys},
            "__x": x, "__xx": pc.multiply(x, x),
        })
        agg = t.group_by(keys).aggregate(
            [([], "count_all"), ("__x", "sum"), ("__xx", "sum")]
        )
        return agg.rename_columns(keys + ["__n", "__x", "__xx"])

    def finish(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        g = pdf.groupby(keys, sort=True, dropna=False).sum().reset_index()
        n = g["__n"].to_numpy(dtype=np.float64)
        sx, sxx = g["__x"].to_numpy(), g["__xx"].to_numpy()
        mu = sx / n
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(n > 1, (n * sxx - sx * sx) / (n * (n - 1.0)),
                         np.nan)
            v = np.maximum(v, 0.0)
        out = g[keys].copy()
        out["__mu"] = mu
        out["__sd"] = np.sqrt(v)
        return pa.Table.from_pandas(out, preserve_index=False)

    slim = ds.map_batches(
        lambda b: b.select(keys + [value_col]), batch_format="pyarrow"
    )
    combined = combine(slim, partial)
    stats_rows = grouped_apply(combined, keys, finish,
                               batch_format="pyarrow").take_all()
    stats = pd.DataFrame(stats_rows)
    stats_ref = ray.put(stats)

    def standardize(pdf: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(stats_ref)
        m = pdf.merge(st, on=keys, how="left")
        z = (m[value_col].to_numpy(dtype=np.float64)
             - m["__mu"].to_numpy()) / m["__sd"].to_numpy()
        out = pdf.copy()
        out[out_col] = sql_round(z, ndigits)
        return out

    return ds.map_batches(standardize, batch_format="pandas")


def union_by_name(datasets):
    """UNION ALL BY NAME with schema evolution: the merged schema takes
    each column's first-seen type in first-seen order; every input pads
    missing columns with typed nulls and casts the rest — the streaming
    equivalent of reading heterogeneous corpus generations into one
    table.  No exchange at all: padding is a map, the union is a
    metadata concat."""
    schemas = [_arrow_schema(d) for d in datasets]
    fields: list[pa.Field] = []
    seen: set[str] = set()
    for s in schemas:
        for f in s:
            if f.name not in seen:
                seen.add(f.name)
                fields.append(f)
    merged = pa.schema(fields)

    padded = [
        d.map_batches(lambda b, _s=merged: _pad_to(b, _s),
                      batch_format="pyarrow")
        for d in datasets
    ]
    out = padded[0]
    for d in padded[1:]:
        out = out.union(d)
    return out


def merge_into(snapshot, changes, key: str, op_col: str = "op",
               version_col: str = "version"):
    """Apply a changelog to a snapshot (the incremental-pipeline MERGE
    primitive): ``changes`` carries the snapshot's columns plus
    ``op_col`` ('U' upsert / 'D' delete) and ``version_col``; the
    LATEST change per key wins, 'D' removes the key, 'U' replaces-or-
    inserts the row.  ONE co-partitioned exchange on the key — snapshot
    rows whose key never changed pass straight through their partition;
    output schema equals the snapshot's.

    Scale shape: both sides hash-exchange once; per-key work is a
    vectorized latest-wins dedup.  A 100-TB snapshot + daily changelog
    never materializes anywhere — partitioned output can be written
    shard-by-shard for a resumable swap."""
    snap_names = _arrow_schema(snapshot).names
    change_cols = snap_names + [op_col, version_col]

    def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if rt.num_rows == 0:
            return lt
        cdf = rt.to_pandas().sort_values(version_col, kind="stable")
        latest = cdf.drop_duplicates(key, keep="last")
        sdf = lt.to_pandas()
        keep = sdf[~sdf[key].isin(latest[key])]
        ups = latest[latest[op_col] != "D"][snap_names]
        out = pd.concat([keep, ups], ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False).cast(
            lt.schema
        )

    return _copartition(snapshot, changes, key, key, change_cols,
                        probe)


def banded_range_join(points, intervals, value_col: str, lo_col: str,
                      hi_col: str, band_width: float,
                      keep_cols: list[str]):
    """Big-big range join (``lo <= value < hi``) WITHOUT a broadcast:
    both sides band by ``floor(value / band_width)`` — each interval
    replicates to every band it overlaps, each point belongs to exactly
    ONE band (so multi-band intervals can't duplicate a match) — then
    one co-partitioned exchange and a vectorized per-partition
    band-merge + bounds filter.

    The replication factor is ``interval_span / band_width``: pick the
    band width near the median interval span.  This is the scale path
    when the interval side is too big to broadcast
    (:func:`broadcast_range_join` is the small-side fast path)."""
    keep = [c for c in keep_cols if c not in (lo_col, hi_col)]
    _BAND = "__band"

    def band_points(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch.column(value_col), pa.float64())
        b = pc.cast(pc.floor(pc.divide(v, pa.scalar(band_width))),
                    pa.int64())
        return batch.append_column(_BAND, b)

    def explode_intervals(batch: pa.Table) -> pa.Table:
        pdf = batch.to_pandas()
        lo = np.floor(pdf[lo_col].to_numpy(np.float64) / band_width
                      ).astype(np.int64)
        # hi is exclusive: a band starting exactly at hi never matches
        hi_v = pdf[hi_col].to_numpy(np.float64)
        hi = np.floor(np.nextafter(hi_v, -np.inf) / band_width
                      ).astype(np.int64)
        n = np.maximum(hi - lo + 1, 0)
        rep = pdf.loc[pdf.index.repeat(n)].reset_index(drop=True)
        starts = np.cumsum(n) - n
        rep[_BAND] = (np.arange(int(n.sum())) - np.repeat(starts, n)
                      + np.repeat(lo, n))
        return pa.Table.from_pandas(rep, preserve_index=False)

    pts = points.map_batches(band_points, batch_format="pyarrow")
    ivs = intervals.map_batches(explode_intervals,
                                batch_format="pyarrow")
    point_names = [n for n in _arrow_schema(points).names]

    def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
        out_cols = point_names + keep
        if lt.num_rows == 0 or rt.num_rows == 0:
            empty = lt.slice(0, 0)
            for c in keep:
                typ = (rt.schema.field(c).type if rt.num_rows or c in
                       rt.column_names else pa.string())
                empty = empty.append_column(c, pa.nulls(0, typ))
            return empty.select(out_cols)
        pdf = lt.to_pandas().merge(rt.to_pandas(), on=_BAND)
        v = pdf[value_col].to_numpy(np.float64)
        m = (v >= pdf[lo_col].to_numpy(np.float64)) & (
            v < pdf[hi_col].to_numpy(np.float64))
        return pa.Table.from_pandas(pdf[m][out_cols],
                                    preserve_index=False)

    iv_cols = [_BAND] + [c for c in
                         _arrow_schema(intervals).names] 

    def _probe_wrap(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return probe(lt, rt)

    return _copartition(pts, ivs, _BAND, _BAND, iv_cols, _probe_wrap)


def tumbling_window_agg(ds, keys: list[str], ts_col: str,
                        width_us: int, value_col: str,
                        win_col: str = "win", count_col: str = "n",
                        sum_col: str = "sum_value", ndigits: int = 6):
    """Tumbling event-time windows — count + sum per (keys, window),
    where ``window = epoch_us(ts) // width_us``.  Window assignment is
    a pure vectorized map, so this is just a grouped aggregate with a
    derived key: per-batch Arrow combiner, one tiny exchange.  The
    streaming-engine 'window operator' degenerates to data (§2.9:
    ordering-as-data) exactly like the chunk chain."""

    def assign(batch: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(batch.column(ts_col), pa.int64()),
                     pa.int64())
        win = pc.divide(ts, pa.scalar(width_us, pa.int64()))
        t = pa.table({
            **{k: batch.column(k) for k in keys},
            win_col: win,
            "__v": pc.cast(batch.column(value_col), pa.float64()),
        })
        agg = t.group_by(keys + [win_col]).aggregate(
            [([], "count_all"), ("__v", "sum")]
        )
        return agg.rename_columns(keys + [win_col, "__n", "__v"])

    def finish(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(keys + [win_col]).aggregate(
            [("__n", "sum"), ("__v", "sum")]
        )
        agg = agg.rename_columns(keys + [win_col, "__n", "__v"])
        return pa.table({
            **{k: agg.column(k) for k in keys},
            win_col: agg.column(win_col),
            count_col: pc.cast(agg.column("__n"), pa.int64()),
            sum_col: sql_round(agg.column("__v"), ndigits),
        })

    combined = combine(ds, assign)
    return grouped_apply(combined, keys + [win_col], finish,
                         batch_format="pyarrow")


def exact_quantile(ds, value_col: str, q: float,
                   rows_limit: int = 65536, num_bins: int = 1024,
                   max_rounds: int = 16) -> float:
    """Exact global discrete quantile (DuckDB ``quantile_disc``
    semantics: the 1-based ``ceil(q*n)``-th smallest value) WITHOUT a
    global sort — the distributed selection algorithm: iteratively
    bracket the order statistic with per-round histograms.

    Each round is one streaming pass: every batch bin-counts its values
    over the current ``[lo, hi]`` bracket (``num_bins`` bins, one
    ``np.searchsorted`` per batch) and a constant-size aggregate sums
    the histograms; the driver walks the cumulative counts to the bin
    containing the target rank and recurses into it.  When the
    surviving bin holds ≤ ``rows_limit`` rows, those rows (alone) are
    fetched and the answer picked exactly — ties and repeated values
    are handled by rank arithmetic, never by equality on floats.
    Driver memory: one ``num_bins`` int array per round.  O(log_b n)
    passes; no shuffle at all — the scale path where ``sort()`` +
    index-into would move the whole table."""
    from ray.data.aggregate import Count, Max, Min

    stats = ds.aggregate(Count(value_col), Min(value_col), Max(value_col))
    n = int(stats[f"count({value_col})"])
    if n == 0:
        raise ValueError("exact_quantile of an empty dataset")
    lo = float(stats[f"min({value_col})"])
    hi = float(stats[f"max({value_col})"])
    k = max(1, int(np.ceil(q * n)))  # 1-based target rank
    below = 0  # values strictly inside brackets discarded to the left
    prev_bin_count = None

    for _ in range(max_rounds):
        in_bracket_rank = k - below
        # count rows in [lo, hi] cheaply via the histogram pass itself
        edges = np.linspace(lo, hi, num_bins + 1)

        def hist(batch: pa.Table, _edges=edges) -> pa.Table:
            v = batch.column(value_col).to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            v = v[(v >= _edges[0]) & (v <= _edges[-1])]
            idx = np.clip(np.searchsorted(_edges, v, side="right") - 1,
                          0, num_bins - 1)
            return pa.table({
                "bin": pa.array(np.arange(num_bins), pa.int64()),
                "cnt": pa.array(np.bincount(idx, minlength=num_bins),
                                pa.int64()),
            })

        from ray.data.aggregate import Sum
        htbl = ds.map_batches(hist, batch_format="pyarrow") \
            .groupby("bin").aggregate(Sum("cnt")).to_pandas() \
            .sort_values("bin")
        counts = np.zeros(num_bins, np.int64)
        counts[htbl["bin"].to_numpy()] = htbl["sum(cnt)"].to_numpy()
        cum = np.cumsum(counts)
        b = int(np.searchsorted(cum, in_bracket_rank, side="left"))
        bin_lo = float(edges[b])
        bin_hi = float(edges[b + 1]) if b + 1 < len(edges) else hi
        below += int(cum[b - 1]) if b > 0 else 0
        bin_count = int(counts[b])
        last_bin = b == num_bins - 1
        # a tie cluster (or unsplittable float neighborhood) stalls the
        # refinement — a round that doesn't shrink the bin can't ever:
        # fetch it exactly (duplicate handling costs the cluster size,
        # as in any selection algorithm)
        stalled = prev_bin_count is not None and bin_count >= prev_bin_count
        prev_bin_count = bin_count
        if bin_count <= rows_limit or (bin_hi - bin_lo) <= 0 or stalled:
            def grab(batch: pa.Table, _lo=bin_lo, _hi=bin_hi,
                     _last=last_bin) -> pa.Table:
                v = batch.column(value_col).to_numpy(
                    zero_copy_only=False
                ).astype(np.float64)
                m = (v >= _lo) & ((v <= _hi) if _last else (v < _hi))
                return pa.table({"v": pa.array(v[m], pa.float64())})

            vals = np.sort(np.concatenate([
                t.column("v").to_numpy(zero_copy_only=False)
                for t in ds.map_batches(grab, batch_format="pyarrow")
                .iter_batches(batch_size=None, batch_format="pyarrow")
            ] + [np.empty(0, np.float64)]))
            return float(vals[k - below - 1])
        # recurse: make the bracket half-open consistent with binning
        lo, hi = bin_lo, bin_hi if last_bin else np.nextafter(
            bin_hi, -np.inf
        )
    raise RuntimeError("exact_quantile failed to converge")


def left_join(left, right, left_key: str, right_key: str,
              right_cols: list[str]):
    """Distributed LEFT OUTER JOIN — the one-exchange union-join
    pattern (:func:`full_outer_join`), with Arrow's local
    ``join_type="left outer"``: every left row survives, unmatched
    ones carry typed-null right columns. Non-key column names must be
    disjoint across sides."""
    left_names = _arrow_schema(left).names
    out_right = [c for c in right_cols if c != right_key]
    clash = set(left_names) & set(out_right)
    if clash:
        raise ValueError(f"column name collision across sides: {clash}")
    out_names = left_names + out_right

    def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
        joined = lt.join(rt, keys=[left_key], join_type="left outer")
        return joined.select(out_names)

    return _copartition(left, right, left_key, right_key,
                        [right_key] + out_right, probe)


def window_percent_rank(ds, keys: list[str], order_col: str,
                        out_col: str = "pct_rank", ndigits: int = 6):
    """SQL ``PERCENT_RANK() OVER (PARTITION BY keys ORDER BY
    order_col)`` — (rank-1)/(n-1) with ties sharing the minimum rank,
    0.0 for single-row groups.  One exchange on the keys; the
    per-partition kernel is one vectorized pandas ``rank(method="min")``
    across all of the partition's groups at once."""

    def pr(pdf: pd.DataFrame) -> pd.DataFrame:
        grp = pdf.groupby(keys, sort=False, dropna=False)[order_col]
        rank = grp.rank(method="min")
        n = grp.transform("size")
        out = pdf.copy()
        denom = np.maximum(n.to_numpy(np.float64) - 1.0, 1.0)
        val = (rank.to_numpy(np.float64) - 1.0) / denom
        out[out_col] = sql_round(val, ndigits)
        return out

    return grouped_apply(ds, keys, pr,
                         batch_format="pandas")


def funnel_counts(events, stages: list[str], user_col: str = "user_id",
                  type_col: str = "event_type", ts_col: str = "ts"):
    """Ordered funnel analysis: how many users reach each stage IN
    ORDER — stage i counts users with a ``stages[i]`` event at or after
    their first qualifying ``stages[i-1]`` event (the classic
    conversion funnel).  All of a user's events co-locate in ONE hash
    exchange on the user; the per-partition kernel is a chain of
    vectorized merges (first-event times per stage), no per-user
    Python; per-partition stage counts then reduce through a tiny
    3-row-per-partition exchange.  Returns (stage, n_users) — one row
    per stage, funnel-ordered via a stage_idx column."""
    stages = list(stages)

    def slim(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b.column(type_col),
                        value_set=pa.array(stages, pa.string()))
        return b.filter(keep).select([user_col, type_col, ts_col])

    def per_partition(t: pa.Table) -> pa.Table:
        pdf = t.to_pandas()
        counts = []
        cur = None  # Series: user -> first qualifying time of prev stage
        for i, st in enumerate(stages):
            ev = pdf[pdf[type_col] == st][[user_col, ts_col]]
            if i > 0:
                # merge on a column: an index merge names the result's
                # index user_col when ``ev`` is empty, and the groupby
                # below then finds user_col twice
                ev = ev.merge(cur.rename("__prev").reset_index(),
                              on=user_col, how="inner")
                ev = ev[ev[ts_col] >= ev["__prev"]]
            cur = ev.groupby(user_col)[ts_col].min()
            counts.append(len(cur))
        return pa.table({
            "stage_idx": pa.array(np.arange(len(stages)), pa.int64()),
            "stage": pa.array(stages, pa.string()),
            "n_users": pa.array(counts, pa.int64()),
        })

    partials = grouped_apply(
        events.map_batches(slim, batch_format="pyarrow"),
        [user_col], per_partition,
        batch_format="pyarrow",
    )

    def reduce_(t: pa.Table) -> pa.Table:
        g = t.group_by(["stage_idx", "stage"]).aggregate(
            [("n_users", "sum")]
        )
        return pa.table({
            "stage_idx": g.column("stage_idx"),
            "stage": g.column("stage"),
            "n_users": pc.cast(g.column("n_users_sum"), pa.int64()),
        })

    return grouped_apply(partials, ["stage_idx"], reduce_,
                         batch_format="pyarrow")


def retention_counts(events, user_col: str = "user_id",
                     ts_col: str = "ts", bucket_us: int = 7 * 86_400_000_000,
                     max_offset: int = 3):
    """Cohort retention: users are cohorted by the time bucket of their
    FIRST event (epoch-microsecond floor division by ``bucket_us``) and
    counted in every later bucket they return in, as (cohort, offset)
    pairs for offsets 0..``max_offset`` — the standard weekly-retention
    triangle.  One hash exchange on the user (first-bucket + distinct
    activity buckets are per-user reductions), then the tiny
    (cohort, offset) partials reduce through a second constant-size
    exchange.  Returns (cohort, offset, n_users)."""

    def slim(b: pa.Table) -> pa.Table:
        return pa.table({
            user_col: b.column(user_col),
            "__b": pc.cast(
                pc.divide(pc.cast(b.column(ts_col), pa.int64()),
                          bucket_us),
                pa.int64(),
            ),
        })

    def per_user(t: pa.Table) -> pa.Table:
        pdf = t.to_pandas().drop_duplicates()
        first = pdf.groupby(user_col)["__b"].transform("min")
        off = pdf["__b"] - first
        keep = off <= max_offset
        out = pd.DataFrame({
            "cohort": first[keep].to_numpy(np.int64),
            "offset": off[keep].to_numpy(np.int64),
        }).groupby(["cohort", "offset"], as_index=False).size()
        return pa.Table.from_pandas(
            out.rename(columns={"size": "n_users"}), preserve_index=False
        )

    partials = grouped_apply(
        events.map_batches(slim, batch_format="pyarrow"),
        [user_col], per_user,
        batch_format="pyarrow",
    )

    def reduce_(t: pa.Table) -> pa.Table:
        g = t.group_by(["cohort", "offset"]).aggregate([("n_users", "sum")])
        return pa.table({
            "cohort": g.column("cohort"),
            "offset": g.column("offset"),
            "n_users": pc.cast(g.column("n_users_sum"), pa.int64()),
        })

    return grouped_apply(partials, ["cohort", "offset"], reduce_,
                         batch_format="pyarrow")


def grouped_argmax(ds, keys: list[str], order_cols: list[str]):
    """One row per key group: the row with the LEXICOGRAPHIC MAX of
    ``order_cols`` — SQL ``QUALIFY row_number() OVER (PARTITION BY keys
    ORDER BY order_cols DESC) = 1`` (the "latest event per user" /
    "newest revision per page" shape).

    Scale shape: each input batch reduces to at most one row per key it
    contains (combiner), so the single hash exchange on ``keys`` ships
    O(batches × keys-per-batch) rows, never the fact table.  Determinism
    contract: ``order_cols`` must totally order rows within a key
    (include a unique tiebreak column, e.g. the event id)."""

    def local_max(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(order_cols, kind="stable")
        return pdf.drop_duplicates(subset=keys, keep="last")

    combined = ds.map_batches(local_max, batch_format="pandas")
    return grouped_apply(combined, keys, local_max,
                         batch_format="pandas")


def grouped_regression(ds, keys: list[str], x_col: str, y_col: str,
                       ndigits: int = 6):
    """Exact per-group simple linear regression (OLS y = a·x + b) via
    the same sufficient-statistics combiner as :func:`grouped_corr`:
    each batch reduces to (n, Σx, Σy, Σx², Σy², Σxy) per key, partials
    merge by addition after one exchange, and the closed forms for SQL
    ``regr_slope`` / ``regr_intercept`` / ``regr_r2`` evaluate on the
    merged stats.  O(groups) shuffle bytes regardless of input size."""

    def partial(batch: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(x_col), pa.float64())
        y = pc.cast(batch.column(y_col), pa.float64())
        t = pa.table({
            **{kc: batch.column(kc) for kc in keys},
            "__x": x, "__y": y,
            "__xx": pc.multiply(x, x), "__yy": pc.multiply(y, y),
            "__xy": pc.multiply(x, y),
        })
        agg = t.group_by(keys).aggregate(
            [([], "count_all")] + [(c, "sum")
                                   for c in ("__x", "__y", "__xx", "__yy",
                                             "__xy")]
        )
        return agg.rename_columns(keys + ["__n", "__x", "__y", "__xx",
                                          "__yy", "__xy"])

    def finish(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        g = pdf.groupby(keys, sort=True, dropna=False).sum().reset_index()
        n = g["__n"].to_numpy(dtype=np.float64)
        sx, sy = g["__x"].to_numpy(), g["__y"].to_numpy()
        sxx, syy, sxy = (g["__xx"].to_numpy(), g["__yy"].to_numpy(),
                         g["__xy"].to_numpy())
        cov = n * sxy - sx * sy
        varx = n * sxx - sx * sx
        vary = n * syy - sy * sy
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(varx > 0, cov / varx, np.nan)
            r2 = np.where(varx * vary > 0, (cov * cov) / (varx * vary),
                          np.nan)
        intercept = (sy - slope * sx) / n
        out = g[keys].copy()
        out["slope"] = sql_round(slope, ndigits)
        out["intercept"] = sql_round(intercept, ndigits)
        out["r2"] = sql_round(r2, ndigits)
        return pa.Table.from_pandas(out, preserve_index=False)

    slim = ds.map_batches(
        lambda b: b.select(keys + [x_col, y_col]), batch_format="pyarrow"
    )
    combined = combine(slim, partial)
    return grouped_apply(combined, keys, finish,
                         batch_format="pyarrow")


def fill_gaps(ds, key_col: str, ts_col: str, out_col: str = "n"):
    """Zero-filled daily date spine: counts per (key, day) with EVERY
    day between the global min and max emitted per key, missing days as
    0 — the gap-filling step dashboards/trend models need (SQL:
    generate_series × DISTINCT keys LEFT JOIN counts).

    Scale shape: rows reduce to (key, day, partial count) per batch
    (combiner) before ONE hash exchange on the key; the day range is
    two scalar aggregates broadcast to the fill pass, and each
    partition reindexes its keys' count series against the shared
    day grid vectorized (pivot → reindex → stack).  Output size is
    keys × days — the spine itself — which is the operator's result,
    not an intermediate blow-up."""

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch.column(ts_col), unit="day")
        t = pa.table({key_col: batch.column(key_col), "day": day})
        agg = t.group_by([key_col, "day"]).aggregate([([], "count_all")])
        return agg.rename_columns([key_col, "day", "__n"])

    lo, hi = ds.min(ts_col), ds.max(ts_col)
    days = pd.date_range(pd.Timestamp(lo).floor("D"),
                         pd.Timestamp(hi).floor("D"), freq="D")

    def fill(pdf: pd.DataFrame) -> pd.DataFrame:
        m = (
            pdf.groupby([key_col, "day"], sort=False)["__n"].sum()
            .unstack("day")
            .reindex(columns=days)
            .fillna(0)
        )
        long = m.stack(future_stack=True).rename(out_col).reset_index()
        long.columns = [key_col, "day", out_col]
        long[out_col] = long[out_col].astype(np.int64)
        return long

    combined = combine(ds, partial)
    return grouped_apply(combined, [key_col], fill,
                         batch_format="pandas")


def hopping_window_agg(ds, keys: list[str], ts_col: str,
                       size_us: int, hop_us: int, out_col: str = "n",
                       window_col: str = "window_start"):
    """Hopping (sliding) event-time windows: size ``size_us``, advancing
    by ``hop_us`` (size must be a multiple of hop) — each event lands in
    exactly size/hop windows.  The overlap is materialized by a
    vectorized per-batch explode of (key, window_start) pairs that
    immediately collapses to partial counts (combiner), so the one hash
    exchange ships O(windows × keys) partial rows, never size/hop copies
    of the input.  The tumbling special case (size == hop) degenerates
    to :func:`tumbling_window_agg`."""
    if size_us % hop_us:
        raise ValueError("size_us must be a multiple of hop_us")
    k = size_us // hop_us

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ts = batch.column(ts_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        bucket = ts // hop_us
        starts = ((bucket[:, None] - np.arange(k)[None, :]) * hop_us
                  ).reshape(-1)
        cols = {
            kc: pa.array(
                np.repeat(
                    batch.column(kc).to_numpy(zero_copy_only=False), k)
            ).cast(batch.schema.field(kc).type)
            for kc in keys
        }
        cols[window_col] = pa.array(starts, pa.int64())
        t = pa.table(cols)
        agg = t.group_by(keys + [window_col]).aggregate([([], "count_all")])
        return agg.rename_columns(keys + [window_col, "__n"])

    def reduce_(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(keys + [window_col]).aggregate([("__n", "sum")])
        out = {kc: g.column(kc) for kc in keys}
        out[window_col] = pc.cast(g.column(window_col),
                                  pa.timestamp("us"))
        out[out_col] = pc.cast(g.column("__n_sum"), pa.int64())
        return pa.table(out)

    combined = ds.map_batches(explode, batch_format="pyarrow")
    return grouped_apply(combined, keys + [window_col], reduce_,
                         batch_format="pyarrow")


def unpivot(ds, id_cols: list[str], value_cols: list[str],
            var_col: str = "variable", val_col: str = "value",
            val_type: pa.DataType | None = None):
    """UNPIVOT / melt — wide measure columns to (variable, value) long
    form (SQL ``UNPIVOT`` / ``UNION ALL`` of one SELECT per measure).

    Scale shape: a pure map stage, zero exchanges — each batch emits
    its |value_cols| stacked slices locally, so the operator streams at
    read speed and the output block size stays proportional to the
    input's.  All measures cast to one Arrow type (``val_type``,
    default float64)."""
    typ = val_type or pa.float64()

    def melt(batch: pa.Table) -> pa.Table:
        pieces = []
        for c in value_cols:
            t = batch.select(id_cols)
            t = t.append_column(
                var_col, pa.array([c] * batch.num_rows, pa.string())
            )
            t = t.append_column(val_col, pc.cast(batch.column(c), typ))
            pieces.append(t)
        return pa.concat_tables(pieces)

    return ds.map_batches(melt, batch_format="pyarrow")


def window_lead(ds, keys: list[str], order_col: str, value_col: str,
                out_col: str, tie_col: str, periods: int = 1):
    """SQL ``LEAD(value, periods) OVER (PARTITION BY keys ORDER BY
    order_col, tie_col)`` — null for each key's last ``periods`` rows.
    Same single-exchange shape as :func:`window_lag` (a lead IS a lag
    with negated shift)."""
    return window_lag(ds, keys, order_col, value_col, out_col, tie_col,
                      periods=-periods)


def window_dense_rank(ds, keys: list[str], order_col: str,
                      out_col: str = "dense_rank"):
    """SQL ``DENSE_RANK() OVER (PARTITION BY keys ORDER BY order_col)``
    — consecutive rank values, ties share one rank.  One exchange on
    the keys; the per-partition kernel is a single vectorized pandas
    ``rank(method="dense")`` across all of the partition's groups."""

    def dr(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.copy()
        out[out_col] = (
            pdf.groupby(keys, sort=False, dropna=False)[order_col]
            .rank(method="dense")
            .astype(np.int64)
        )
        return out

    return grouped_apply(ds, keys, dr,
                         batch_format="pandas")


def grouped_first_last(ds, keys: list[str], order_cols: list[str],
                       value_col: str, first_col: str = "first_val",
                       last_col: str = "last_val"):
    """Per-group FIRST/LAST value by an explicit order — SQL
    ``first(value ORDER BY order_cols)`` / ``last(...)`` per key.

    Scale shape: each batch reduces to at most TWO rows per key it
    contains (its local first and last — exact, because the global
    first/last is the first/last of the per-batch candidates), so the
    single hash exchange ships O(batches × keys-per-batch) rows.
    Determinism contract: ``order_cols`` must totally order rows
    within a key (include a unique tiebreak column)."""
    cols = list(dict.fromkeys(keys + order_cols + [value_col]))

    def local(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf[cols].sort_values(keys + order_cols, kind="stable")
        f = pdf.drop_duplicates(subset=keys, keep="first")
        la = pdf.drop_duplicates(subset=keys, keep="last")
        return pd.concat([f, la], ignore_index=True)

    def final(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(keys + order_cols, kind="stable")
        f = pdf.drop_duplicates(subset=keys, keep="first")[
            keys + [value_col]
        ].rename(columns={value_col: first_col})
        la = pdf.drop_duplicates(subset=keys, keep="last")[
            keys + [value_col]
        ].rename(columns={value_col: last_col})
        return f.merge(la, on=keys)

    combined = ds.map_batches(local, batch_format="pandas")
    return grouped_apply(combined, keys, final,
                         batch_format="pandas")


def approx_count_distinct(ds, cols: list[str], keys: list[str] | None = None,
                          p: int = 12, out_col: str = "approx_distinct"):
    """Approximate COUNT(DISTINCT cols) via HyperLogLog
    (functions/hll.py) — globally, or per ``keys`` group.

    Scale shape (the reason this operator exists next to the exact
    ``distinct_count``): the exact operator's exchange ships every
    distinct (key, value) pair; at web scale (distinct URLs per domain,
    distinct users per day over years of events) that IS the data.
    Here every input batch folds into 2**p one-byte registers
    (p=12 → 4 KB, ~1.6 % error), so:

    - global: each batch emits ONE 4 KB row; a salted exchange
      max-merges batches into ≤64 partial sketches; the driver folds
      those ≤64 rows (bounded, independent of data size).
    - grouped: per-batch grouped combiner emits one 4 KB row per group
      it saw; ONE exchange on the keys max-merges and estimates.
      Driver never sees the sketches.  Memory is 4 KB × groups-per-
      batch — the inherent cost of grouped HLL (lower p to trade
      error for footprint).
    """
    import ray.data

    from ..functions import hll

    m = 1 << p

    if keys is None:
        def local(pdf: pd.DataFrame) -> pd.DataFrame:
            h = pd.util.hash_pandas_object(
                pdf[cols], index=False).to_numpy(np.uint64)
            regs = hll.update_registers(h, p)
            salt = int(h[0]) % 64 if len(h) else 0
            return pd.DataFrame({"__salt": [salt],
                                 "__regs": [regs.tobytes()]})

        def merge_salt(pdf: pd.DataFrame) -> pd.DataFrame:
            out = []
            for s, g in pdf.groupby("__salt", sort=False):
                acc = hll.new_registers(p)
                for b in g["__regs"]:
                    acc = hll.merge_registers(
                        acc, np.frombuffer(b, np.uint8))
                out.append((int(s), acc.tobytes()))
            return pd.DataFrame(out, columns=["__salt", "__regs"])

        partials = grouped_apply(
            combine(ds, local, batch_format="pandas"),
            ["__salt"], merge_salt, num_partitions=_SALT_PARTS,
            batch_format="pandas")
        # ≤64 rows × 4 KB — bounded fold, independent of corpus size
        acc = hll.new_registers(p)
        for row in partials.take_all():
            acc = hll.merge_registers(
                acc, np.frombuffer(row["__regs"], np.uint8))
        return ray.data.from_arrow(pa.table({
            out_col: pa.array([int(sql_round(hll.estimate(acc)))], pa.int64())
        }))

    def local_grouped(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            return pd.DataFrame(columns=keys + ["__regs"])
        # factorize keys; one maximum.at pass fills all group sketches
        codes = pdf.groupby(keys, sort=False, dropna=False).ngroup()
        mask = ~codes.duplicated()
        firsts = pdf[mask].iloc[np.argsort(codes[mask].to_numpy())]
        h = pd.util.hash_pandas_object(
            pdf[cols], index=False).to_numpy(np.uint64)
        mat = hll.grouped_registers(h, codes.to_numpy(),
                                    int(codes.max()) + 1, p)
        out = firsts[keys].reset_index(drop=True)
        out["__regs"] = [mat[i].tobytes() for i in range(mat.shape[0])]
        return out

    def merge_keys(pdf: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, g in pdf.groupby(keys, sort=False, dropna=False):
            acc = hll.new_registers(p)
            for b in g["__regs"]:
                acc = hll.merge_registers(acc, np.frombuffer(b, np.uint8))
            kv = kv if isinstance(kv, tuple) else (kv,)
            rows.append(kv + (int(sql_round(hll.estimate(acc))),))
        return pd.DataFrame(rows, columns=keys + [out_col])

    combined = combine(ds, local_grouped, batch_format="pandas")
    return grouped_apply(combined, keys, merge_keys,
                         batch_format="pandas")


def grouped_entropy(ds, keys: list[str], value_col: str,
                    out_col: str = "entropy", ndigits: int = 6):
    """Shannon entropy (bits) of ``value_col``'s distribution within
    each ``keys`` group — SQL ``-SUM(p * log2(p))`` over per-group
    value frequencies.

    Scale shape: per-batch combiner reduces to (keys, value, count)
    partials — the exchange ships one row per distinct (key, value)
    pair per batch, never raw rows; ONE exchange on the keys, then a
    fully vectorized per-partition count→probability→entropy pass.
    Rounded half-away-from-zero to match SQL ``round()``."""

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(keys + [value_col], sort=False, dropna=False,
                        as_index=False).size()
        return g.rename(columns={"size": "__n"})

    def part(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby(keys + [value_col], sort=False, dropna=False,
                        as_index=False)["__n"].sum()
        tot = g.groupby(keys, sort=False, dropna=False)["__n"].transform(
            "sum")
        prob = g["__n"] / tot
        g["__plogp"] = -prob * np.log2(prob)
        ent = g.groupby(keys, sort=False, dropna=False, as_index=False)[
            "__plogp"].sum()
        ent[out_col] = sql_round(ent["__plogp"], ndigits)
        return ent.drop(columns=["__plogp"])

    combined = combine(ds, partial, batch_format="pandas")
    return grouped_apply(combined, keys, part,
                         batch_format="pandas")


def _tagged_distinct_union(left, right, cols: list[str]):
    """Per-batch local distinct on each side (the combiner: the
    exchange ships already-deduped value tuples), tagged 0/1."""

    def slim(side: int):
        def fn(b: pa.Table) -> pa.Table:
            d = b.select(cols).group_by(cols).aggregate([])
            return d.append_column(
                _SIDE, pa.array(np.full(d.num_rows, side, np.int8))
            )

        return fn

    return left.map_batches(slim(0), batch_format="pyarrow").union(
        right.map_batches(slim(1), batch_format="pyarrow")
    )


def intersect_distinct(left, right, cols: list[str]):
    """SQL ``INTERSECT`` (set semantics) on ``cols`` — distinct tuples
    present on BOTH sides.  Scale shape: per-batch distinct combiners on
    each side, ONE co-partitioned exchange on the value tuple, local
    min/max-side test.  Both sides must present ``cols`` with matching
    types (rename/cast upstream)."""

    def part(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(cols).aggregate(
            [(_SIDE, "min"), (_SIDE, "max")]
        )
        keep = agg.filter(
            pc.and_(pc.equal(agg.column(f"{_SIDE}_min"), 0),
                    pc.equal(agg.column(f"{_SIDE}_max"), 1))
        )
        return keep.select(cols)

    return grouped_apply(_tagged_distinct_union(left, right, cols), cols,
                         part,
                         batch_format="pyarrow")


def except_distinct(left, right, cols: list[str]):
    """SQL ``EXCEPT`` (set semantics) — distinct ``cols`` tuples on the
    left and NOT on the right.  Same single-exchange shape as
    :func:`intersect_distinct`."""

    def part(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(cols).aggregate([(_SIDE, "max")])
        keep = agg.filter(pc.equal(agg.column(f"{_SIDE}_max"), 0))
        return keep.select(cols)

    return grouped_apply(_tagged_distinct_union(left, right, cols), cols,
                         part,
                         batch_format="pyarrow")


def approx_frequencies(ds, col: str, probes: list, depth: int = 4,
                       width: int = 4096):
    """Count-Min point-frequency estimates for ``probes`` over ``col``
    (functions/cms.py) — the "how frequent is THIS key" companion to
    ``approx_heavy_hitters``'s "which keys are frequent".

    Scale shape: every batch reduces to ONE fixed-size counter matrix
    (depth×width int64 — 128 KB at the defaults) regardless of row
    count; ≤32 salted partials merge in one tiny exchange; the driver
    folds those ≤32 rows (bounded, independent of data size) and
    answers the probe list locally.  Estimates are never under the true
    count and overestimate by ≤ (e/width)·N w.h.p.; at probe-set
    cardinalities ≪ width the estimate is exact unless two probe values
    collide in EVERY row (probability (1/width)^depth, deterministic
    for fixed hashes)."""
    import ray.data

    from ..functions import cms

    def local(pdf: pd.DataFrame) -> pd.DataFrame:
        c = cms.update_counts(pdf[col], depth=depth, width=width)
        h = pd.util.hash_pandas_object(pdf[col].iloc[:1], index=False)
        salt = int(h.iloc[0]) % 32 if len(pdf) else 0
        return pd.DataFrame({"__salt": [salt],
                             "__cms": [c.tobytes()]})

    def merge_salt(pdf: pd.DataFrame) -> pd.DataFrame:
        out = []
        for s, g in pdf.groupby("__salt", sort=False):
            acc = cms.new_counts(depth, width)
            for b in g["__cms"]:
                acc = cms.merge_counts(
                    acc, np.frombuffer(b, np.int64).reshape(depth, width))
            out.append((int(s), acc.tobytes()))
        return pd.DataFrame(out, columns=["__salt", "__cms"])

    partials = grouped_apply(
        combine(ds, local, batch_format="pandas"),
        ["__salt"], merge_salt, num_partitions=_SALT_PARTS,
        batch_format="pandas")
    acc = cms.new_counts(depth, width)
    for row in partials.take_all():  # ≤32 rows — bounded fold
        acc = cms.merge_counts(
            acc, np.frombuffer(row["__cms"], np.int64).reshape(depth,
                                                               width))
    est = cms.point_query(pd.Series(probes), acc)
    return ray.data.from_arrow(pa.table({
        "value": pa.array(probes),
        "est": pa.array(est.astype(np.int64), pa.int64()),
    }))


def grouped_mad(ds, keys: list[str], value_col: str, out_col: str = "mad",
                ndigits: int = 6):
    """Per-group median absolute deviation (the robust spread measure):
    ``median(|x - median(x)|)`` with the interpolated median on both
    passes (numpy/DuckDB ``mad()`` convention).  Exact — a group's
    values co-locate through ONE hash exchange (same bounded-group
    contract as the exact median); both passes are vectorized pandas
    ``groupby().transform``/``median`` over the whole partition."""
    cols = list(dict.fromkeys(keys + [value_col]))

    def part(pdf: pd.DataFrame) -> pd.DataFrame:
        med = pdf.groupby(keys, sort=False, dropna=False)[
            value_col].transform("median")
        pdf = pdf.assign(__dev=(pdf[value_col] - med).abs())
        out = pdf.groupby(keys, sort=False, dropna=False,
                          as_index=False)["__dev"].median()
        out[out_col] = sql_round(out["__dev"], ndigits)
        return out.drop(columns=["__dev"])

    slim = ds.map_batches(lambda b: b.select(cols),
                          batch_format="pyarrow")
    return grouped_apply(slim, keys, part,
                         batch_format="pandas")


def profile_numeric(ds, cols: list[str]):
    """Column profiling (the data-quality / stats-collection pass) for
    numeric columns: one streaming pass emits per-column
    (n_rows, n_nulls, min, max, total) — each batch reduces to
    |cols| partial rows, one tiny exchange merges them.  The planner-
    statistics shape: constant-size output regardless of data size."""

    def partial(batch: pa.Table) -> pa.Table:
        rows = []
        for c in cols:
            col = batch.column(c)
            n = batch.num_rows
            nulls = col.null_count
            if n > nulls:
                mn = float(pc.min(col).as_py())
                mx = float(pc.max(col).as_py())
                tot = float(pc.sum(col).as_py())
            else:
                mn, mx, tot = np.inf, -np.inf, 0.0
            rows.append({"column": c, "n_rows": n, "n_nulls": nulls,
                         "min": mn, "max": mx, "total": tot})
        return pa.Table.from_pylist(rows, schema=pa.schema([
            ("column", pa.string()), ("n_rows", pa.int64()),
            ("n_nulls", pa.int64()), ("min", pa.float64()),
            ("max", pa.float64()), ("total", pa.float64()),
        ]))

    def merge(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(["column"]).aggregate(
            [("n_rows", "sum"), ("n_nulls", "sum"), ("min", "min"),
             ("max", "max"), ("total", "sum")]
        )
        return agg.rename_columns(
            ["column", "n_rows", "n_nulls", "min", "max", "total"])

    partials = combine(ds, partial)
    return grouped_apply(partials, ["column"], merge,
                         batch_format="pyarrow")


def window_rank(ds, keys: list[str], order_col: str,
                out_col: str = "rank"):
    """SQL ``RANK() OVER (PARTITION BY keys ORDER BY order_col)`` —
    ties share a rank and leave gaps (pandas ``rank(method="min")``);
    :func:`window_dense_rank`'s sibling, same one-exchange shape."""

    def rk(pdf: pd.DataFrame) -> pd.DataFrame:
        out = pdf.copy()
        out[out_col] = (
            pdf.groupby(keys, sort=False, dropna=False)[order_col]
            .rank(method="min")
            .astype(np.int64)
        )
        return out

    return grouped_apply(ds, keys, rk,
                         batch_format="pandas")


def window_cume_dist(ds, keys: list[str], order_col: str,
                     out_col: str = "cume_dist", ndigits: int = 6):
    """SQL ``CUME_DIST() OVER (PARTITION BY keys ORDER BY order_col)``
    — count(rows ≤ current)/n, ties sharing the MAX rank;
    :func:`window_percent_rank`'s sibling, same one-exchange shape and
    DuckDB-parity rounding."""

    def cd(pdf: pd.DataFrame) -> pd.DataFrame:
        grp = pdf.groupby(keys, sort=False, dropna=False)[order_col]
        rank = grp.rank(method="max")
        n = grp.transform("size")
        out = pdf.copy()
        val = rank.to_numpy(np.float64) / n.to_numpy(np.float64)
        out[out_col] = sql_round(val, ndigits)
        return out

    return grouped_apply(ds, keys, cd,
                         batch_format="pandas")


def validation_report(ds, rules: list[dict],
                      ndigits: int = 6):
    """Column-level data-quality audit (the Great-Expectations / dbt-test
    pattern): evaluate declarative ``rules`` over the whole dataset and
    emit ONE report row per rule — ``(col, check, n_rows, n_violations,
    violation_frac)``.

    Supported checks (NULL never satisfies a predicate, so nulls count
    as violations of every check except where they're the subject):

    - ``{"col", "check": "not_null"}``
    - ``{"col", "check": "range", "lo", "hi"}``  (inclusive)
    - ``{"col", "check": "regex", "pattern"}``   (RE2 partial match,
      same engine as DuckDB ``regexp_matches``)
    - ``{"col", "check": "in_set", "values": [...]}``
    - ``{"col", "check": "unique"}``  (violations = rows - distinct
      values, nulls counting as one shared value)

    Scale shape: every scalar check folds to ``(rule_id, n, viol)``
    partials inside ``map_batches`` — vectorized Arrow kernels, O(rules)
    rows per map task ride the ONE tiny reduce exchange.  ``unique``
    checks dedup locally per batch, hash-partition the SURVIVING
    distinct values (each value lands in exactly one partition, so
    per-partition distinct counts sum exactly), and contribute
    O(partitions) count rows to the same reduce — no global sort, no
    full-column collection anywhere."""
    meta = [(str(r["col"]), str(r["check"])) for r in rules]
    scalar_ids = [i for i, r in enumerate(rules) if r["check"] != "unique"]
    unique_ids = [i for i, r in enumerate(rules) if r["check"] == "unique"]

    def _satisfied(batch: pa.Table, r: dict):
        c = batch.column(r["col"])
        if r["check"] == "not_null":
            return pc.is_valid(c)
        if r["check"] == "range":
            ok = pc.and_(pc.greater_equal(c, r["lo"]),
                         pc.less_equal(c, r["hi"]))
        elif r["check"] == "regex":
            ok = pc.match_substring_regex(c, r["pattern"])
        elif r["check"] == "in_set":
            ok = pc.is_in(c, value_set=pa.array(r["values"], c.type))
        else:  # pragma: no cover - guarded by rule parsing
            raise ValueError(f"unknown check {r['check']!r}")
        return pc.fill_null(ok, False)

    def partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        rid, ns, viol, dist = [], [], [], []
        for i in scalar_ids:
            sat = pc.sum(_satisfied(batch, rules[i])).as_py() or 0
            rid.append(i); ns.append(n); viol.append(n - sat); dist.append(0)
        for i in unique_ids:
            rid.append(i); ns.append(n); viol.append(0); dist.append(0)
        return pa.table({
            "rule_id": pa.array(rid, pa.int64()),
            "n": pa.array(ns, pa.int64()),
            "viol": pa.array(viol, pa.int64()),
            "distinct": pa.array(dist, pa.int64()),
        })

    parts = [combine(ds, partial)]

    for i in unique_ids:
        col = rules[i]["col"]

        def local_distinct(batch: pa.Table, _c=col, _i=i) -> pa.Table:
            u = pc.unique(batch.column(_c))
            return pa.table({
                "rule_id": pa.array([_i] * len(u), pa.int64()),
                "__v": u,
            })

        def count_partition(tbl: pa.Table, _i=i) -> pa.Table:
            nd = len(pc.unique(tbl.column("__v")))
            return pa.table({
                "rule_id": pa.array([_i], pa.int64()),
                "n": pa.array([0], pa.int64()),
                "viol": pa.array([0], pa.int64()),
                "distinct": pa.array([nd], pa.int64()),
            })

        parts.append(grouped_apply(
            combine(ds, local_distinct),
            ["__v"], count_partition,
        ))

    unioned = parts[0]
    for p in parts[1:]:
        unioned = unioned.union(p)

    cols = pa.array([c for c, _ in meta], pa.string())
    checks = pa.array([k for _, k in meta], pa.string())

    def finish(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["rule_id"]).aggregate(
            [("n", "sum"), ("viol", "sum"), ("distinct", "sum")]
        )
        rid = g.column("rule_id").to_numpy(zero_copy_only=False)
        n = g.column("n_sum").to_numpy(zero_copy_only=False)
        viol = g.column("viol_sum").to_numpy(zero_copy_only=False).copy()
        dist = g.column("distinct_sum").to_numpy(zero_copy_only=False)
        is_u = np.isin(rid, np.array(unique_ids, dtype=rid.dtype))
        viol[is_u] = n[is_u] - dist[is_u]
        frac = sql_round(np.divide(viol, n, out=np.zeros_like(viol, float),
                                   where=n > 0), ndigits)
        order = np.argsort(rid, kind="stable")
        return pa.table({
            "col": cols.take(pa.array(rid[order])),
            "check": checks.take(pa.array(rid[order])),
            "n_rows": pa.array(n[order], pa.int64()),
            "n_violations": pa.array(viol[order], pa.int64()),
            "violation_frac": pa.array(frac[order], pa.float64()),
        })

    # the reduce input is O(rules × map-tasks + rules × partitions)
    # tiny rows — one global fold finishes the report.
    return grouped_apply(unioned, [], finish)


def zorder_sort(ds, cols: list[str], bits: int = 8,
                bucket_bits: int = 4, zkey_col: str = "zkey",
                bucket_col: str = "zbucket"):
    """Z-order (Morton-curve) layout — the Delta/Iceberg ``ZORDER BY``
    primitive: interleave the low ``bits`` bits of each integer key
    column into one ``zkey``, globally sort by it, and assign each row
    a ``bucket`` (the top ``bucket_bits`` of the key space ≙ the output
    file it would land in).  Rows close in EVERY dimension land in the
    same bucket, so a multi-dimensional range predicate touches only a
    few files' min/max zone maps instead of the whole table — the
    data-skipping layout step that runs once at write time.

    Scale shape: the interleave is a pure vectorized numpy map; the ONE
    global range-partitioned sort is the entire point of the operator
    (layout IS an all-to-all) and runs once per written dataset, not
    per query.  Caller pre-bins non-integer dimensions (quantile or
    epoch-day binning) so the bit arithmetic stays exact and
    SQL-replayable."""
    ncols = len(cols)
    mask = (1 << bits) - 1
    shift = max(bits * ncols - bucket_bits, 0)

    def add_z(batch: pa.Table) -> pa.Table:
        arrs = [
            pc.cast(batch.column(c), pa.int64()).to_numpy(
                zero_copy_only=False
            ) & mask
            for c in cols
        ]
        z = np.zeros(batch.num_rows, np.int64)
        for j in range(bits):
            for i, a in enumerate(arrs):
                z |= ((a >> j) & 1) << (j * ncols + i)
        return (batch.append_column(zkey_col, pa.array(z))
                     .append_column(bucket_col, pa.array(z >> shift)))

    return ds.map_batches(add_z, batch_format="pyarrow").sort(zkey_col)


def zorder_sql_expr(cols: list[str], bits: int = 8) -> str:
    """The exact SQL replay of :func:`zorder_sort`'s bit interleave —
    one generated expression so a DuckDB oracle can recompute ``zkey``
    bit-for-bit."""
    ncols = len(cols)
    mask = (1 << bits) - 1
    # every term fully parenthesized — DuckDB's bitwise operators share
    # one precedence level and associate left, so a bare `a << 0 | b`
    # would parse as `(a << 0 | b)` feeding the NEXT shift.
    terms = [
        f"(((({c} & {mask}) >> {j}) & 1) << {j * ncols + i})"
        for j in range(bits)
        for i, c in enumerate(cols)
    ]
    return "(" + " | ".join(terms) + ")"


def incremental_agg(base_agg, delta_ds, keys: list[str], value_col: str,
                    sum_col: str = "sum_val", cnt_col: str = "n",
                    weight_col: str | None = None):
    """Incremental maintenance of a SUM/COUNT materialized aggregate
    (the self-maintainable-view refresh): given the STORED aggregate
    table ``base_agg`` = ``(keys…, sum_col, cnt_col)`` and a DELTA of
    raw rows, produce the refreshed aggregate WITHOUT re-reading the
    raw base — the whole point at 100 TB, where the base fact table is
    petabytes but its aggregate is millions of rows.

    Retractions ride the same math: give delta rows a ``weight_col`` of
    -1 (CDC delete) or +1 (insert); groups whose refreshed count
    reaches 0 disappear.

    Scale shape: the delta pre-combines per batch (one row per touched
    key per map task), the base ships as its already-compact aggregate
    rows, and ONE key-hashed exchange merges them — bytes moved are
    O(|aggregate| + |touched keys|), never O(raw base)."""

    def delta_partial(b: pa.Table) -> pa.Table:
        v = pc.cast(b.column(value_col), pa.float64())
        if weight_col is not None:
            w = pc.cast(b.column(weight_col), pa.float64())
            v = pc.multiply(v, w)
        else:
            w = pa.array(np.ones(b.num_rows), pa.float64())
        t = pa.table({k: b.column(k) for k in keys}
                     | {sum_col: v, cnt_col: w})
        g = t.group_by(keys).aggregate([(sum_col, "sum"),
                                        (cnt_col, "sum")])
        return g.rename_columns(keys + [sum_col, cnt_col])

    def norm_base(b: pa.Table) -> pa.Table:
        return pa.table(
            {k: b.column(k) for k in keys}
            | {sum_col: pc.cast(b.column(sum_col), pa.float64()),
               cnt_col: pc.cast(b.column(cnt_col), pa.float64())}
        )

    unioned = base_agg.map_batches(norm_base, batch_format="pyarrow").union(
        combine(delta_ds, delta_partial))

    def merge(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(keys).aggregate([(sum_col, "sum"),
                                          (cnt_col, "sum")])
        g = g.rename_columns(keys + [sum_col, cnt_col])
        alive = pc.not_equal(g.column(cnt_col), 0.0)
        g = g.filter(alive)
        return g.set_column(
            g.column_names.index(cnt_col), cnt_col,
            pc.cast(g.column(cnt_col), pa.int64()))

    return grouped_apply(unioned, keys, merge)


def gini_coefficient(ds, keys: list[str], ndigits: int = 6):
    """Gini coefficient of the per-key row-count distribution — ONE
    scalar answering "how skewed is this key?" before you hash-join or
    groupby on it (0 = perfectly uniform, →1 = one key owns
    everything); the summary statistic over the full key population
    that the top-k skew profile can't give.

    Uses the sorted-values identity G = Σ(2i−n−1)·x₍ᵢ₎ / (n·Σx), which
    is tie-invariant, so it folds EXACTLY from the histogram of count
    values: a run of m equal counts v starting after global rank a
    contributes v·(2·(m·a + m(m+1)/2) − (n+1)·m).

    Scale shape: per-key counts pre-combine per batch and reduce
    through one key exchange; their HISTOGRAM (count value →
    multiplicity) pre-combines again and folds on a single partition —
    O(distinct count values) tiny rows, never the keys themselves."""

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(keys).aggregate([([], "count_all")])
        return g.rename_columns(keys + ["c"])

    def per_key(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(keys).aggregate([("c", "sum")])
        h = pa.table({"v": g.column("c_sum")}).group_by(["v"]).aggregate(
            [([], "count_all")])
        return h.rename_columns(["v", "m"])

    hist = grouped_apply(
        combine(ds, partial),
        keys, per_key,
    )

    def finish(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas().groupby(
            "v", as_index=False)["m"].sum().sort_values("v")
        v = df["v"].to_numpy(np.float64)
        m = df["m"].to_numpy(np.float64)
        n = m.sum()
        tot = (v * m).sum()
        a = np.concatenate([[0.0], np.cumsum(m)[:-1]])  # ranks before run
        num = (v * (2.0 * (m * a + m * (m + 1) / 2.0)
                    - (n + 1.0) * m)).sum()
        gini = num / (n * tot) if n and tot else 0.0
        return pa.table({
            "gini": pa.array([sql_round(gini, ndigits)], pa.float64()),
            "n_keys": pa.array([int(n)], pa.int64()),
            "n_rows": pa.array([int(tot)], pa.int64()),
        })

    return grouped_apply(hist, [], finish)


def ks_statistic(ds, value_col: str, flag_col: str, ndigits: int = 6):
    """Exact two-sample Kolmogorov–Smirnov statistic between the rows
    where ``flag_col`` is true and those where it's false — the
    sample-representativeness audit: after carving a dev sample out of
    a corpus, ``max |ECDF_sample(v) − ECDF_rest(v)|`` over a numeric
    column says in ONE number whether the sample still looks like the
    population (0 = identical distributions).

    Scale shape: per-(value, side) counts pre-combine per batch and
    reduce through one value-keyed exchange; the resulting histogram —
    O(distinct values) rows, never the rows themselves — folds on a
    single partition where the sorted cumulative fractions give the
    exact supremum (for discrete data the ECDF gap is maximal at an
    observed value, so scanning distinct values is exact)."""

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "v": pc.cast(b.column(value_col), pa.float64()),
            "s": pc.cast(b.column(flag_col), pa.bool_()),
        })
        g = t.group_by(["v", "s"]).aggregate([([], "count_all")])
        return g.rename_columns(["v", "s", "m"])

    def per_value(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["v", "s"]).aggregate([("m", "sum")])
        return g.rename_columns(["v", "s", "m"])

    hist = grouped_apply(
        combine(ds, partial),
        ["v"], per_value,
    )

    def finish(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        piv = (df.pivot_table(index="v", columns="s", values="m",
                              aggfunc="sum", fill_value=0)
               .reindex(columns=[True, False], fill_value=0)
               .sort_index())
        na, nb = piv[True].sum(), piv[False].sum()
        if na == 0 or nb == 0:
            ks = 1.0 if (na or nb) else 0.0
        else:
            diff = (piv[True].cumsum() / na
                    - piv[False].cumsum() / nb).abs()
            ks = float(diff.max())
        return pa.table({
            "ks": pa.array([sql_round(ks, ndigits)], pa.float64()),
            "n_sample": pa.array([int(na)], pa.int64()),
            "n_rest": pa.array([int(nb)], pa.int64()),
        })

    return grouped_apply(hist, [], finish)


def exact_quantiles(ds, value_col: str, qs: list[float],
                    rows_limit: int = 65536, bins_per_target: int = 512,
                    max_rounds: int = 16) -> list[float]:
    """Exact global discrete quantiles for ALL of ``qs`` at once
    (DuckDB ``quantile_disc(col, [q...])`` semantics) — the range-
    SPLITTER primitive: computing every cut point of a range
    partitioner costs one histogram pass per round TOTAL, not per
    quantile.

    Same selection algorithm as :func:`exact_quantile`, vectorized
    across targets: each unresolved target keeps its own bracket, every
    round ONE streaming pass bin-counts each batch into every target's
    bracket (a few ``np.searchsorted`` per batch — targets are few),
    the driver refines each bracket independently, and ONE final fetch
    pass collects the union of the surviving brackets and resolves each
    rank exactly.  Driver memory: O(targets × bins) ints per round; no
    shuffle anywhere."""
    from ray.data.aggregate import Count, Max, Min, Sum

    stats = ds.aggregate(Count(value_col), Min(value_col),
                         Max(value_col))
    n = int(stats[f"count({value_col})"])
    if n == 0:
        raise ValueError("exact_quantiles of an empty dataset")
    glo = float(stats[f"min({value_col})"])
    ghi = float(stats[f"max({value_col})"])

    targets = [{
        "k": max(1, int(np.ceil(q * n))), "lo": glo, "hi": ghi,
        "below": 0, "prev": None, "done": False, "is_last": True,
    } for q in qs]

    for _ in range(max_rounds):
        live = [t for t in targets if not t["done"]]
        if not live:
            break
        edge_sets = [np.linspace(t["lo"], t["hi"], bins_per_target + 1)
                     for t in live]

        def hist(batch: pa.Table, _es=edge_sets) -> pa.Table:
            v = batch.column(value_col).to_numpy(
                zero_copy_only=False).astype(np.float64)
            tgt, bins, cnts = [], [], []
            for ti, e in enumerate(_es):
                w = v[(v >= e[0]) & (v <= e[-1])]
                idx = np.clip(np.searchsorted(e, w, side="right") - 1,
                              0, bins_per_target - 1)
                c = np.bincount(idx, minlength=bins_per_target)
                tgt.append(np.full(bins_per_target, ti, np.int64))
                bins.append(np.arange(bins_per_target, dtype=np.int64))
                cnts.append(c)
            return pa.table({
                "tgt": pa.array(np.concatenate(tgt)),
                "bin": pa.array(np.concatenate(bins)),
                "cnt": pa.array(np.concatenate(cnts).astype(np.int64)),
            })

        h = (ds.map_batches(hist, batch_format="pyarrow")
             .groupby(["tgt", "bin"]).aggregate(Sum("cnt")).to_pandas())
        for ti, t in enumerate(live):
            sub = h[h["tgt"] == ti].sort_values("bin")
            counts = np.zeros(bins_per_target, np.int64)
            counts[sub["bin"].to_numpy()] = sub["sum(cnt)"].to_numpy()
            cum = np.cumsum(counts)
            e = edge_sets[ti]
            b = int(np.searchsorted(cum, t["k"] - t["below"],
                                    side="left"))
            t["below"] += int(cum[b - 1]) if b > 0 else 0
            new_lo, new_hi = float(e[b]), float(e[b + 1])
            t["is_last"] = (b == bins_per_target - 1
                            and new_hi >= t["hi"])
            bc = int(counts[b])
            stalled = t["prev"] is not None and bc >= t["prev"]
            t["prev"] = bc
            t["lo"], t["hi"] = new_lo, new_hi
            if bc <= rows_limit or (new_hi - new_lo) <= 0 or stalled:
                t["done"] = True

    brackets = [(t["lo"], t["hi"], t["is_last"]) for t in targets]

    def grab(batch: pa.Table, _br=brackets) -> pa.Table:
        v = batch.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        tgt, vals = [], []
        for ti, (lo, hi, last) in enumerate(_br):
            m = (v >= lo) & ((v <= hi) if last else (v < hi))
            vals.append(v[m])
            tgt.append(np.full(int(m.sum()), ti, np.int64))
        return pa.table({
            "tgt": pa.array(np.concatenate(tgt)),
            "v": pa.array(np.concatenate(vals), pa.float64()),
        })

    by_tgt: dict[int, list[np.ndarray]] = {}
    for b in ds.map_batches(grab, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"):
        t_np = b.column("tgt").to_numpy(zero_copy_only=False)
        v_np = b.column("v").to_numpy(zero_copy_only=False)
        for ti in np.unique(t_np):
            by_tgt.setdefault(int(ti), []).append(v_np[t_np == ti])

    out = []
    for ti, t in enumerate(targets):
        vals = np.sort(np.concatenate(
            by_tgt.get(ti, [np.empty(0, np.float64)])))
        out.append(float(vals[t["k"] - t["below"] - 1]))
    return out


def locf_fill(ds, key_col: str, ts_col: str, value_col: str,
              out_col: str = "filled_val", ndigits: int = 6):
    """Last-observation-carried-forward daily series per key (the
    gap-FILLING sibling of :func:`fill_gaps`'s zero-fill): the daily
    MEAN of ``value_col`` per key on observed days, forward-filled
    across missing days; days before a key's first observation stay
    NULL — SQL's ``last_value(x IGNORE NULLS) OVER (PARTITION BY key
    ORDER BY day)`` on the spine.

    Scale shape: rows reduce to (key, day, sum, n) per batch before
    ONE key exchange; the global day grid is two scalar aggregates;
    each partition reindexes its keys' mean series and ``ffill``s
    vectorized.  Output is the spine itself (keys × days)."""

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch.column(ts_col), unit="day")
        t = pa.table({
            key_col: batch.column(key_col),
            "day": day,
            "__s": pc.cast(batch.column(value_col), pa.float64()),
        })
        agg = t.group_by([key_col, "day"]).aggregate(
            [("__s", "sum"), ([], "count_all")])
        return agg.rename_columns([key_col, "day", "__s", "__n"])

    lo, hi = ds.min(ts_col), ds.max(ts_col)
    days = pd.date_range(pd.Timestamp(lo).floor("D"),
                         pd.Timestamp(hi).floor("D"), freq="D")

    def fill(pdf: pd.DataFrame) -> pd.DataFrame:
        g = pdf.groupby([key_col, "day"], sort=False).agg(
            s=("__s", "sum"), n=("__n", "sum")).reset_index()
        g["mean"] = sql_round(g["s"] / g["n"], ndigits)
        m = (g.set_index([key_col, "day"])["mean"]
             .unstack("day").reindex(columns=days).ffill(axis=1))
        long = m.stack(future_stack=True).rename(out_col).reset_index()
        long.columns = [key_col, "day", out_col]
        return long

    combined = combine(ds, partial)
    return grouped_apply(combined, [key_col], fill,
                         batch_format="pandas")


def fk_coverage(child, parent, fk: str, pk: str, ndigits: int = 6):
    """Cross-table referential-integrity audit (the FK sibling of the
    single-table :func:`validation_report`): ONE row —
    ``(n_child_rows, n_child_keys, n_matched_keys, n_orphan_rows,
    row_coverage, key_coverage)`` — saying how much of ``child.fk``
    actually resolves in ``parent.pk`` before you join on it.

    Scale shape: the child pre-combines to (key, row_count) per batch
    and the parent to its distinct keys, both ride ONE co-partitioned
    union exchange on the key (the :func:`_copartition` shape), each
    partition emits four counters, and a single-partition fold adds
    them — no join output is ever materialized."""

    def child_partial(b: pa.Table) -> pa.Table:
        g = b.group_by([fk]).aggregate([([], "count_all")])
        return g.rename_columns([fk, "__rows"])

    def parent_partial(b: pa.Table) -> pa.Table:
        u = pc.unique(b.column(pk))
        return pa.table({pk: u, "__rows": pa.array(
            np.zeros(len(u), np.int64))})

    def counters(lt: pa.Table, rt: pa.Table) -> pa.Table:
        cg = lt.group_by([fk]).aggregate([("__rows", "sum")])
        keys = cg.column(fk)
        rows = cg.column("__rows_sum").to_numpy(zero_copy_only=False)
        pset = pc.unique(rt.column(fk))
        matched = pc.is_in(keys, value_set=pset).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "n_child_rows": pa.array([int(rows.sum())], pa.int64()),
            "n_child_keys": pa.array([len(keys)], pa.int64()),
            "n_matched_keys": pa.array([int(matched.sum())], pa.int64()),
            "n_orphan_rows": pa.array([int(rows[~matched].sum())],
                                      pa.int64()),
        })

    parts = _copartition(
        combine(child, child_partial),
        combine(parent, parent_partial),
        fk, pk, [pk, "__rows"], counters,
    )

    def finish(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas().sum()
        ncr, nck = int(df["n_child_rows"]), int(df["n_child_keys"])
        nmk, nor = int(df["n_matched_keys"]), int(df["n_orphan_rows"])
        rc = (ncr - nor) / ncr if ncr else 1.0
        kc = nmk / nck if nck else 1.0
        return pa.table({
            "n_child_rows": pa.array([ncr], pa.int64()),
            "n_child_keys": pa.array([nck], pa.int64()),
            "n_matched_keys": pa.array([nmk], pa.int64()),
            "n_orphan_rows": pa.array([nor], pa.int64()),
            "row_coverage": pa.array([sql_round(rc, ndigits)], pa.float64()),
            "key_coverage": pa.array([sql_round(kc, ndigits)], pa.float64()),
        })

    return grouped_apply(parts, [], finish)


def grouped_ks(ds, group_col: str, value_col: str, flag_col: str,
               ndigits: int = 6):
    """Per-group two-sample KS (the stratified form of
    :func:`ks_statistic`): one row per group — did the carved sample
    stay representative WITHIN each language / source, not just
    overall?  (An overall-balanced sample can still be badly skewed
    inside a stratum.)

    Scale shape: (group, value, side) counts pre-combine per batch;
    ONE group-keyed exchange co-locates each group's value histogram
    (O(distinct values per group) rows, never the rows themselves) and
    the per-partition fold computes each group's exact supremum."""

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            group_col: b.column(group_col),
            "v": pc.cast(b.column(value_col), pa.float64()),
            "s": pc.cast(b.column(flag_col), pa.bool_()),
        })
        g = t.group_by([group_col, "v", "s"]).aggregate(
            [([], "count_all")])
        return g.rename_columns([group_col, "v", "s", "m"])

    def per_group(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas().groupby(
            [group_col, "v", "s"], as_index=False)["m"].sum()
        rows = []
        for gkey, sub in df.groupby(group_col, sort=True):
            piv = (sub.pivot_table(index="v", columns="s", values="m",
                                   aggfunc="sum", fill_value=0)
                   .reindex(columns=[True, False], fill_value=0)
                   .sort_index())
            na, nb = int(piv[True].sum()), int(piv[False].sum())
            if na == 0 or nb == 0:
                ks = 1.0 if (na or nb) else 0.0
            else:
                ks = float((piv[True].cumsum() / na
                            - piv[False].cumsum() / nb).abs().max())
            rows.append((gkey, sql_round(ks, ndigits), na, nb))
        return pa.table({
            group_col: pa.array([r[0] for r in rows]),
            "ks": pa.array([r[1] for r in rows], pa.float64()),
            "n_sample": pa.array([r[2] for r in rows], pa.int64()),
            "n_rest": pa.array([r[3] for r in rows], pa.int64()),
        })

    return grouped_apply(
        combine(ds, partial),
        [group_col], per_group)


def analyze_table(ds, cols: list[str]):
    """``ANALYZE TABLE`` — the planner-statistics pass: one row per
    column with ``(col, n_rows, n_nulls, n_distinct, min_val,
    max_val)`` (values as float64; give it numeric columns).  These are
    the numbers every join-order / pushdown / partitioning decision in
    this engine starts from, surfaced as an operator.

    Scale shape: null counts and min/max fold map-side to O(cols) rows
    per task; distinct counts dedup locally then hash-partition each
    column's survivors (same exactness argument as
    :func:`validation_report`'s unique check — every value lands in
    one partition).  ONE shared exchange keyed on (col, value) carries
    all columns' distinct streams together; a single-partition fold
    assembles the report."""

    def partial(b: pa.Table) -> pa.Table:
        names, nrows, nnull, mins, maxs = [], [], [], [], []
        for c in cols:
            col = pc.cast(b.column(c), pa.float64())
            names.append(c)
            nrows.append(b.num_rows)
            nnull.append(b.num_rows - (pc.sum(
                pc.is_valid(col).cast(pa.int64())).as_py() or 0))
            mn = pc.min(col).as_py()
            mx = pc.max(col).as_py()
            mins.append(mn if mn is not None else np.inf)
            maxs.append(mx if mx is not None else -np.inf)
        return pa.table({
            "col": pa.array(names, pa.string()),
            "kind": pa.array(["stats"] * len(cols), pa.string()),
            "v": pa.array([0.0] * len(cols), pa.float64()),
            "n_rows": pa.array(nrows, pa.int64()),
            "n_nulls": pa.array(nnull, pa.int64()),
            "mn": pa.array(mins, pa.float64()),
            "mx": pa.array(maxs, pa.float64()),
        })

    def distinct_partial(b: pa.Table) -> pa.Table:
        frames = []
        for c in cols:
            u = pc.unique(pc.cast(b.column(c), pa.float64()))
            u = u.drop_null()
            frames.append(pa.table({
                "col": pa.array([c] * len(u), pa.string()),
                "kind": pa.array(["val"] * len(u), pa.string()),
                "v": u,
                "n_rows": pa.array(np.zeros(len(u), np.int64)),
                "n_nulls": pa.array(np.zeros(len(u), np.int64)),
                "mn": pa.array(np.full(len(u), np.inf)),
                "mx": pa.array(np.full(len(u), -np.inf)),
            }))
        return pa.concat_tables(frames)

    unioned = combine(ds, partial).union(
        combine(ds, distinct_partial))

    def per_partition(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        vals = df[df["kind"] == "val"]
        nd = vals.groupby("col")["v"].nunique()
        stats = df[df["kind"] == "stats"].groupby("col").agg(
            n_rows=("n_rows", "sum"), n_nulls=("n_nulls", "sum"),
            mn=("mn", "min"), mx=("mx", "max"))
        out = []
        for c in set(nd.index) | set(stats.index):
            s = stats.loc[c] if c in stats.index else None
            out.append((
                c,
                int(s["n_rows"]) if s is not None else 0,
                int(s["n_nulls"]) if s is not None else 0,
                int(nd.get(c, 0)),
                float(s["mn"]) if s is not None else np.inf,
                float(s["mx"]) if s is not None else -np.inf,
            ))
        return pa.table({
            "col": pa.array([r[0] for r in out], pa.string()),
            "n_rows": pa.array([r[1] for r in out], pa.int64()),
            "n_nulls": pa.array([r[2] for r in out], pa.int64()),
            "n_distinct": pa.array([r[3] for r in out], pa.int64()),
            "mn": pa.array([r[4] for r in out], pa.float64()),
            "mx": pa.array([r[5] for r in out], pa.float64()),
        })

    parts = grouped_apply(unioned, ["col", "kind", "v"], per_partition)

    def finish(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas().groupby(
            "col", as_index=False).agg(
            n_rows=("n_rows", "sum"), n_nulls=("n_nulls", "sum"),
            n_distinct=("n_distinct", "sum"),
            min_val=("mn", "min"), max_val=("mx", "max"))
        return pa.Table.from_pandas(
            df.sort_values("col"), preserve_index=False)

    return grouped_apply(parts, [], finish)


def time_weighted_mean(ds, keys: list[str], order_col: str,
                       value_col: str, tie_col: str,
                       unit: float = 1_000_000.0, ndigits: int = 6):
    """Time-weighted average per key: each row's ``value_col`` is held
    from its ``order_col`` instant until the key's NEXT row, and the
    mean weights each value by that holding duration — the TWAP / mean
    sensor-state estimator irregular event streams need (an arithmetic
    mean over-counts bursts; a gauge sampled on change must weight by
    how long each reading held).  The key's last row has no duration
    and drops; single-row keys emit nothing.

    ``order_col`` is an int64 instant (epoch-us for timestamps —
    cast upstream, the exact-parity convention of
    :func:`window_lag` callers); ``unit`` divides raw durations into
    output units (1e6 → seconds).

    Scale shape: ONE exchange on the keys; each partition does a
    stable vectorized sort + ``groupby().shift(-1)`` and reduces to one
    (Σ value·w, Σ w) pair per key — identical to every window-family
    operator here."""
    cols = list(dict.fromkeys(keys + [order_col, tie_col, value_col]))

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(keys + [order_col, tie_col],
                              kind="mergesort")
        nxt = pdf.groupby(keys, sort=False)[order_col].shift(-1)
        mask = nxt.notna()
        w = (nxt[mask].to_numpy(dtype=np.float64)
             - pdf.loc[mask, order_col].to_numpy(
                 dtype=np.float64)) / unit
        kept = pdf.loc[mask, keys].copy()
        kept["__vw"] = pdf.loc[mask, value_col].to_numpy(
            dtype=np.float64) * w
        kept["__w"] = w
        kept["__n"] = 1
        agg = kept.groupby(keys, sort=True).agg(
            n_intervals=("__n", "sum"),
            vw=("__vw", "sum"),
            w=("__w", "sum"),
        ).reset_index()
        out = agg[keys].copy()
        out["n_intervals"] = agg["n_intervals"].astype(np.int64)
        out["twa_value"] = sql_round(
            agg["vw"].to_numpy() / agg["w"].to_numpy(), ndigits)
        return out

    return grouped_apply(ds.select_columns(cols), keys, per_partition,
                         batch_format="pandas")


def cusum_changepoints(ds, key_col: str, ts_col: str,
                       slack: float = 0.5, threshold: float = 4.0,
                       ndigits: int = 6):
    """One-sided CUSUM level-shift detection over each key's DAILY
    count series — the classic sequential change-point monitor (Page
    1954) a pipeline runs over its event feeds to catch volume
    regime shifts: per key, daily counts standardize against the
    key's own mean/std, the drift-allowance ``slack`` subtracts, and
    the reflected partial sum ``S_i = max(0, S_{i-1} + d_i)`` flags
    days where ``S_i > threshold``.  The recursion vectorizes via the
    Lindley solution ``S_i = C_i − min(0, min_{j≤i} C_j)`` (cumsum +
    running min), which is also exactly expressible with SQL windows
    — so the whole statistic is oracle-checkable.  Keys with zero
    count variance carry S = 0 (no signal).

    Output: ``(key_col, day, n:int64, cusum:float64 rounded,
    flag:int64)`` for every OBSERVED (key, day).

    Scale shape: rows collapse to (key, day, partial n) per batch
    (combiner) before ONE key exchange; each partition sums partials,
    sorts its keys' short day series and runs two cumulative kernels
    — no spine materialization, no driver state."""

    def partial(batch: pa.Table) -> pa.Table:
        days = pc.floor_temporal(batch.column(ts_col), unit="day")
        t = pa.table({
            key_col: batch.column(key_col),
            "day": days,
        })
        agg = t.group_by([key_col, "day"]).aggregate([([], "count_all")])
        return agg.rename_columns([key_col, "day", "n"])

    partials = combine(ds.select_columns([key_col, ts_col]), partial)

    def scan(pdf: pd.DataFrame) -> pd.DataFrame:
        g = (pdf.groupby([key_col, "day"], sort=True)["n"].sum()
             .reset_index())
        n = g["n"].to_numpy(np.float64)
        mu = g.groupby(key_col, sort=False)["n"].transform("mean")
        sd = g.groupby(key_col, sort=False)["n"].transform(
            lambda x: x.std(ddof=0))
        sdv = sd.to_numpy(np.float64)
        d = np.where(sdv > 0,
                     (n - mu.to_numpy(np.float64))
                     / np.where(sdv > 0, sdv, 1.0) - slack,
                     0.0)
        gg = pd.DataFrame({key_col: g[key_col], "d": d})
        cum = gg.groupby(key_col, sort=False)["d"].cumsum().to_numpy()
        mn = (pd.Series(np.minimum(cum, 0.0))
              .groupby(gg[key_col].to_numpy(), sort=False)
              .cummin().to_numpy())
        s = cum - mn
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            "day": g["day"].to_numpy(),
            "n": g["n"].to_numpy(np.int64),
            "cusum": sql_round(s, ndigits),
            "flag": (s > threshold).astype(np.int64),
        })

    return grouped_apply(partials, [key_col], scan,
                         batch_format="pandas")


def fd_violations(ds, lhs: str, rhs: str):
    """Functional-dependency PROFILING (the dbt/Great-Expectations
    uniqueness generalization): does ``lhs → rhs`` hold — i.e. does
    every lhs value map to exactly one rhs value?  Output is ONE row:
    ``(lhs, rhs, n_keys, n_violating, max_rhs_per_key, fd_holds)``.

    Scale shape: (lhs, rhs) pairs dedup LOCALLY per batch before ONE
    lhs-keyed exchange (a key's surviving pairs all land together, so
    per-key distinct-rhs counts are exact); per-partition
    (keys, violating, max) scalars fold through a final
    single-partition reduce — row payloads never reship."""

    def local_pairs(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "lhs": pc.cast(batch.column(lhs), pa.string()),
            "rhs": pc.cast(batch.column(rhs), pa.string()),
        })
        return t.group_by(["lhs", "rhs"]).aggregate([])

    pairs = combine(ds.select_columns([lhs, rhs]), local_pairs)

    def per_key(pdf: pd.DataFrame) -> pd.DataFrame:
        dd = pdf.drop_duplicates(["lhs", "rhs"])
        per = dd.groupby("lhs").size()
        return pd.DataFrame({
            "n_keys": [int(len(per))],
            "n_violating": [int((per > 1).sum())],
            "max_rhs_per_key": [int(per.max()) if len(per) else 0],
        })

    parts = grouped_apply(pairs, ["lhs"], per_key,
                          batch_format="pandas")

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "lhs": [lhs],
            "rhs": [rhs],
            "n_keys": [int(pdf["n_keys"].sum())],
            "n_violating": [int(pdf["n_violating"].sum())],
            "max_rhs_per_key": [int(pdf["max_rhs_per_key"].max())],
            "fd_holds": [int(pdf["n_violating"].sum() == 0)],
        })

    return grouped_apply(parts, [], fold, batch_format="pandas")


def gap_sessions(ds, key: str, ts_col: str, gap_seconds: float,
                 order_col: str,
                 emit: str = "sessions"):
    """Gap-based session windows (the streaming "session window"
    sibling of the tumbling/hopping aggregates): per ``key``, events
    sorted by ``(ts, order_col)`` start a NEW session whenever the gap
    to the previous event exceeds ``gap_seconds``.  Default output is
    one row per session: ``(key, session_id, session_start,
    session_end, n_events)`` with 1-based per-key session ids —
    exactly SQL's ``sum(brk) OVER (PARTITION BY key ORDER BY ts,
    order_col)``; ``emit="events"`` instead annotates every input row
    with its ``session_id`` (the sessionize-enrich form).

    Scale shape: ONE hash exchange on ``key``; inside each partition a
    single vectorized lag + cumsum + groupby over all its keys (no
    per-key Python).  Per-key event history must fit a partition — the
    bounded-fan-in shape of user/session telemetry."""
    if emit not in ("sessions", "events"):
        raise ValueError(f"emit must be 'sessions' or 'events': {emit!r}")
    gap = pd.Timedelta(seconds=gap_seconds)

    def sessions(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values([key, ts_col, order_col], kind="mergesort")
        prev = pdf.groupby(key, sort=False)[ts_col].shift(1)
        brk = (prev.isna() | (pdf[ts_col] - prev > gap)).astype("int64")
        sid = brk.groupby(pdf[key], sort=False).cumsum()
        if emit == "events":
            return pdf.assign(session_id=sid).reset_index(drop=True)
        out = (
            pdf.assign(session_id=sid)
            .groupby([key, "session_id"], sort=False)
            .agg(session_start=(ts_col, "min"),
                 session_end=(ts_col, "max"),
                 n_events=(order_col, "size"))
            .reset_index()
        )
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return grouped_apply(
        ds.select_columns([key, ts_col, order_col]), [key], sessions,
        batch_format="pandas")


_BUCKET = "__ibucket"


def interval_join(left, right, start_col: str, end_col: str,
                  left_cols: list[str], right_cols: list[str],
                  bucket_seconds: float = 3600.0, suffix: str = "_b",
                  chunk: int = 512):
    """Overlap (range) join of two interval tables: every (L, R) pair
    with ``L.start <= R.end AND R.start <= L.end`` (closed intervals).
    Both sides must carry ``start_col``/``end_col`` (timestamp[us] or
    numeric); right-side columns are suffixed.

    Scale shape — bucketed replication, no all-pairs and no dedup
    exchange: time is cut into fixed ``bucket_seconds`` buckets; each
    interval replicates to every bucket it spans (one map each side),
    both sides co-partition on the bucket id through ONE exchange, and
    inside a bucket a chunked vectorized mask tests overlap.  Each
    qualifying pair is emitted by exactly ONE bucket — the bucket
    containing ``max(L.start, R.start)`` (the pair's first overlap
    instant) — so no downstream dedup pass exists.  Partitioning
    assumptions: ``bucket_seconds`` should be >= the typical interval
    length (replication factor = span/bucket + 1) and per-bucket
    concurrency bounded (concurrent-session counts; a pathological
    bucket degrades to its own chunked quadratic, never the corpus').
    """
    lcar = [c for c in left_cols if c not in (start_col, end_col)]
    rcar = [c for c in right_cols if c not in (start_col, end_col)]
    w_us = int(sql_round(bucket_seconds * 1_000_000))

    def _us(col: pa.ChunkedArray) -> np.ndarray:
        if pa.types.is_timestamp(col.type):
            return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)
        return pc.cast(
            sql_round(pc.multiply(pc.cast(col, pa.float64()), 1_000_000)),
            pa.int64()).to_numpy(zero_copy_only=False)

    def replicate(cols: list[str], side: int):
        def fn(b: pa.Table) -> pa.Table:
            st = _us(b.column(start_col))
            en = _us(b.column(end_col))
            b0 = st // w_us
            b1 = en // w_us
            counts = (b1 - b0 + 1).astype(np.int64)
            idx = np.repeat(np.arange(len(st), dtype=np.int64), counts)
            within = (np.arange(idx.size, dtype=np.int64)
                      - np.repeat(np.cumsum(counts) - counts, counts))
            out = b.select(cols).take(pa.array(idx))
            out = out.append_column("__st", pa.array(st[idx]))
            out = out.append_column("__en", pa.array(en[idx]))
            out = out.append_column(
                _BUCKET, pa.array(b0[idx] + within))
            out = out.append_column(
                _SIDE, pa.array(np.full(idx.size, side, np.int8)))
            return out

        return fn

    l_keep = [start_col, end_col] + lcar
    r_keep = [start_col, end_col] + rcar
    lt_schema = _arrow_schema(left)
    rt_schema = _arrow_schema(right)
    if lt_schema is None or rt_schema is None:
        # an EMPTY side (Ray reports no schema at all) joins to zero
        # pairs; type the empty result from whatever side is known
        import ray.data

        def _t(schema, c):
            return schema.field(c).type if schema is not None else pa.null()

        empty_schema = pa.schema(
            [pa.field(c, _t(lt_schema, c)) for c in l_keep]
            + [pa.field(c + suffix, _t(rt_schema, c)) for c in r_keep])
        return ray.data.from_arrow(empty_schema.empty_table())
    out_fields = (
        [pa.field(c, lt_schema.field(c).type) for c in l_keep]
        + [pa.field(c + suffix, rt_schema.field(c).type) for c in r_keep]
    )
    out_schema = pa.schema(out_fields)

    # pad both replicated streams to one union schema (side-tagged)
    union_fields = [pa.field(_SIDE, pa.int8()),
                    pa.field(_BUCKET, pa.int64()),
                    pa.field("__st", pa.int64()),
                    pa.field("__en", pa.int64())]
    for c in l_keep:
        union_fields.append(pa.field("l_" + c, lt_schema.field(c).type))
    for c in r_keep:
        union_fields.append(pa.field("r_" + c, rt_schema.field(c).type))
    union_schema = pa.schema(union_fields)

    def pad_side(side: int, keep: list[str], prefix: str):
        rep = replicate(keep, side)

        def fn(b: pa.Table) -> pa.Table:
            r = rep(b)
            r = r.rename_columns(
                [(prefix + n) if n in keep else n
                 for n in r.column_names])
            return _pad_to(r, union_schema)

        return fn

    unioned = left.map_batches(
        pad_side(0, l_keep, "l_"), batch_format="pyarrow"
    ).union(right.map_batches(
        pad_side(1, r_keep, "r_"), batch_format="pyarrow"))

    def per_bucket(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {f.name: pa.array([], f.type) for f in out_schema})
        if tbl.num_rows == 0:
            return empty
        side = tbl.column(_SIDE)
        lt = tbl.filter(pc.equal(side, 0))
        rt = tbl.filter(pc.equal(side, 1))
        if lt.num_rows == 0 or rt.num_rows == 0:
            return empty
        # one bucket id per partition group? No — grouped_apply hands a
        # PARTITION (many buckets); pair rows bucket-by-bucket locally.
        out_parts = []
        lb = lt.column(_BUCKET).to_numpy()
        rb = rt.column(_BUCKET).to_numpy()
        l_st = lt.column("__st").to_numpy()
        l_en = lt.column("__en").to_numpy()
        r_st = rt.column("__st").to_numpy()
        r_en = rt.column("__en").to_numpy()
        l_order = np.argsort(lb, kind="stable")
        r_order = np.argsort(rb, kind="stable")
        lb_s, rb_s = lb[l_order], rb[r_order]
        for bucket in np.intersect1d(np.unique(lb), np.unique(rb)):
            li = l_order[np.searchsorted(lb_s, bucket, "left"):
                         np.searchsorted(lb_s, bucket, "right")]
            ri = r_order[np.searchsorted(rb_s, bucket, "left"):
                         np.searchsorted(rb_s, bucket, "right")]
            for c0 in range(0, li.size, chunk):
                lc = li[c0:c0 + chunk]
                ov = ((l_st[lc][:, None] <= r_en[ri][None, :])
                      & (r_st[ri][None, :] <= l_en[lc][:, None]))
                first = np.maximum(l_st[lc][:, None],
                                   r_st[ri][None, :]) // w_us == bucket
                ii, jj = np.nonzero(ov & first)
                if not ii.size:
                    continue
                lrows = lt.take(pa.array(lc[ii]))
                rrows = rt.take(pa.array(ri[jj]))
                cols = {}
                for c in l_keep:
                    cols[c] = lrows.column("l_" + c)
                for c in r_keep:
                    cols[c + suffix] = rrows.column("r_" + c)
                out_parts.append(pa.table(cols))
        if not out_parts:
            return empty
        return pa.concat_tables(out_parts)

    return grouped_apply(unioned, [_BUCKET], per_bucket,
                         batch_format="pyarrow")


_KNUTH = np.uint64(2654435761)
_PRIO = "__prio"


def grouped_hash_sample(ds, keys: list[str], k: int, id_col: str):
    """Uniform k-per-group sample WITHOUT randomness: priority =
    Knuth multiplicative hash of ``id_col`` (``id * 2654435761 mod
    2^32``), keep the ``k`` smallest priorities per group (bottom-k ==
    uniform without replacement for a fixed hash).  Deterministic,
    partition-independent, and resumable — the keep/drop decision is a
    pure function of the row, unlike an RNG-seeded reservoir.

    Scale shape: rides :func:`window_topk` — a per-batch combiner
    truncates to the local bottom-k per key before the single
    exchange, so the shuffle ships at most k rows per (batch, key)."""

    def add_prio(b: pa.Table) -> pa.Table:
        # drop b'pandas' schema metadata: Ray cannot hash such a schema
        # when it concatenates this op's outputs, and logs "Failed to
        # hash the schemas" (the fused task holds several blocks,
        # bundled for grouped_apply's batch size)
        b = b.replace_schema_metadata(None)
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        prio = (ids.astype(np.uint64) * _KNUTH) & np.uint64(0xFFFFFFFF)
        return b.append_column(_PRIO, pa.array(prio.astype(np.int64)))

    sampled = window_topk(
        ds.map_batches(add_prio, batch_format="pyarrow"),
        keys, _PRIO, k, tie_col=id_col, ascending=True)
    return sampled.map_batches(
        lambda b: b.drop_columns([_PRIO]), batch_format="pyarrow")


def grouped_weighted_sample(ds, keys: list[str], k: int, id_col: str,
                            weight_col: str):
    """Weighted k-per-group sample without replacement, without
    randomness — the Efraimidis–Spirakis A-ES scheme with a HASH in
    place of the RNG: ``u = (knuth_hash(id) + 0.5) / 2^32``,
    ``priority = -ln(u) / weight``, keep the ``k`` smallest priorities
    per group (inclusion probability ∝ weight).  Deterministic,
    partition-independent, resumable.  Rows with ``weight <= 0`` or
    null are excluded.

    Scale shape: same as :func:`grouped_hash_sample` — priorities ride
    :func:`window_topk`'s per-batch combiner, so the exchange ships at
    most k rows per (batch, key)."""

    def add_prio(b: pa.Table) -> pa.Table:
        w = pc.cast(b.column(weight_col), pa.float64()).to_numpy(
            zero_copy_only=False)
        keep = np.isfinite(w) & (w > 0)
        # no b'pandas' schema metadata (see grouped_hash_sample)
        b = b.filter(pa.array(keep)).replace_schema_metadata(None)
        w = w[keep]
        ids = b.column(id_col).to_numpy(zero_copy_only=False)
        h = (ids.astype(np.uint64) * _KNUTH) & np.uint64(0xFFFFFFFF)
        u = (h.astype(np.float64) + 0.5) / 4294967296.0
        return b.append_column(_PRIO, pa.array(-np.log(u) / w))

    sampled = window_topk(
        ds.map_batches(add_prio, batch_format="pyarrow"),
        keys, _PRIO, k, tie_col=id_col, ascending=True)
    return sampled.map_batches(
        lambda b: b.drop_columns([_PRIO]), batch_format="pyarrow")


def grouped_winsorize(ds, keys: list[str], value_col: str,
                      q_lo: float = 0.05, q_hi: float = 0.95,
                      out_col: str | None = None, ndigits: int = 6):
    """Per-group winsorization: clip ``value_col`` into its group's
    ``[quantile(q_lo), quantile(q_hi)]`` (SQL ``quantile_cont``
    convention, bounds rounded to ``ndigits``).  Output = input rows +
    the clipped column ``out_col`` (default ``value_col + '_w'``).

    Scale shape: the per-group bounds come from ONE
    :func:`grouped_quantile`-style exchange shipping only
    (keys, value); the bounds table is O(groups) and is collected once
    on the driver (bounded-cardinality keys by assumption — a census
    dimension, not a row id) and broadcast into a vectorized clip map —
    the big table is never shuffled.  A null key is its own group, as
    in SQL ``GROUP BY``; a NaN float key joins the null group (the
    pandas group and clip steps cannot tell NaN from null), where
    DuckDB would keep NaN a group of its own."""
    out_col = out_col or value_col + "_w"

    def key_of(vals) -> tuple:
        # NaN != NaN, so a NaN key would never find its own bounds row
        return tuple(None if pd.isna(v) else v for v in vals)

    def both(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby(keys, sort=True, dropna=False)[value_col]
        lo = g.quantile(q_lo)
        hi = g.quantile(q_hi)
        out = lo.reset_index(name="__lo")
        out["__hi"] = hi.to_numpy()
        out["__lo"] = sql_round(out["__lo"], ndigits)
        out["__hi"] = sql_round(out["__hi"], ndigits)
        out = pa.Table.from_pandas(out, preserve_index=False)
        # a partition whose keys are all null comes back from pandas as
        # float NaN: keep the input key types so partitions concatenate
        return out.cast(pa.schema([t.schema.field(k) for k in keys]
                                  + list(out.schema)[len(keys):]))

    def slim_batch(b: pa.Table) -> pa.Table:
        # NaN → null before the exchange hashes the keys, or a NaN and
        # a null key could land in two partitions and emit two bounds
        # rows for what the lookup below sees as one key
        b = b.select(keys + [value_col])
        for i, k in enumerate(keys):
            col = b.column(k)
            if pa.types.is_floating(col.type):
                b = b.set_column(i, k, pc.if_else(
                    pc.is_nan(col), pa.scalar(None, col.type), col))
        return b

    slim = ds.map_batches(slim_batch, batch_format="pyarrow")
    bounds = grouped_apply(slim, keys, both).to_pandas()
    lut = {key_of(r[k] for k in keys): (r["__lo"], r["__hi"])
           for r in bounds.to_dict("records")}

    def clip(pdf: pd.DataFrame) -> pd.DataFrame:
        kt = list(zip(*(pdf[k] for k in keys)))
        if pdf[keys].isna().to_numpy().any():
            kt = [key_of(t) for t in kt]
        lo = np.fromiter((lut[t][0] for t in kt), np.float64, len(kt))
        hi = np.fromiter((lut[t][1] for t in kt), np.float64, len(kt))
        pdf[out_col] = np.clip(
            pdf[value_col].to_numpy(np.float64), lo, hi)
        return pdf

    return ds.map_batches(clip, batch_format="pandas")
