"""Broadcast small-side lookups: ``ray.put`` once, read per task/actor.

Replaces the reference's read-modify-write entity lookup against live
Neo4j (/root/reference/graphrag/core/triplets.py:252-343) with an immutable
alias dictionary shipped through the object store — no shuffle, no
re-serialization per batch (SURVEY.md J1/T3). ``broadcast_lookup`` is the
same idea for a dimension table joined to a fact Dataset.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa
import pyarrow.compute as pc
import ray


class BroadcastLookup:
    """Lazily-resolved handle usable inside map_batches closures; the
    object is fetched from the local object store once per worker process
    (zero-copy for Arrow/numpy payloads)."""

    def __init__(self, ref: "ray.ObjectRef"):
        self.ref = ref
        self._value: Any = None
        self._resolved = False

    def get(self) -> Any:
        if not self._resolved:
            self._value = ray.get(self.ref)
            self._resolved = True
        return self._value

    def __reduce__(self):  # keep only the ref when pickled into tasks
        return (BroadcastLookup, (self.ref,))


def lookup_batch(batch: pa.Table, dim: pa.Table, key: str,
                 columns: list[str], how: str) -> pa.Table:
    """One batch of ``broadcast_lookup``: ``dim``'s first column is the
    (unique) key and ``columns`` are taken from it."""
    values = dim.column(0).combine_chunks()
    k = pc.cast(batch.column(key), values.type)
    idx = pc.index_in(k, value_set=values, skip_nulls=True)
    if how == "anti":
        return batch.filter(pc.is_null(idx))
    if how == "inner":
        hit = pc.is_valid(idx)
        batch, idx = batch.filter(hit), idx.filter(hit)
    for c in columns:
        batch = batch.append_column(c, dim.column(c).take(idx))
    return batch


def broadcast_lookup(ds, dim: pa.Table, key: str, dim_key: str,
                     columns: list[str], how: str = "inner"):
    """Join the small table ``dim`` to every batch of ``ds`` on
    ``ds.key = dim.dim_key`` without an exchange: ``dim`` ships once
    through the object store and each batch probes it with one Arrow
    hash lookup (``pc.index_in`` + ``take``), appending ``columns``.

    ``inner`` keeps matched rows (``columns=[]`` is a semi-join),
    ``left`` keeps every row with typed nulls where nothing matches,
    ``anti`` keeps only the unmatched rows and appends nothing. The
    probe key is cast to ``dim_key``'s type; a null key never matches.
    Raises ``ValueError`` when ``dim_key`` has duplicates."""
    if how not in ("inner", "left", "anti"):
        raise ValueError(f"how must be inner, left or anti, not {how!r}")
    dim = dim.select([dim_key, *columns]).combine_chunks()
    if pc.count_distinct(dim.column(0), mode="all").as_py() != dim.num_rows:
        raise ValueError(f"broadcast_lookup: {dim_key} is not unique")
    side = BroadcastLookup(ray.put(dim))
    return ds.map_batches(
        lambda b: lookup_batch(b, side.get(), key, columns, how),
        batch_format="pyarrow")
