"""triples → entity_nodes + edges: broadcast-dict linking, salted
canonicalization, weighted edge materialization.

Decomposition of the reference's per-triplet ``process_triplet``
(core/triplets.py:220-403: 3 embeds + similar-node lookup + Entity MERGE ×2
+ RELATES_TO MERGE, 4-7 Cypher round-trips each) into:

1. distinct-name aggregate (per-batch combiner → groupby) — small side;
2. alias dictionary built once on the driver, ``ray.put`` broadcast;
3. stateless linker ``map_batches`` annotating src/dst entity ids;
4. entity canonicalization: per-batch partials with an explicit
   ``salt = hash(chunk_id) % S`` column → level-1 fold on
   ``(entity_id, salt)`` → level-2 fold on ``entity_id`` — the
   two-level salt-key skew split the north_rule requires (head entities
   like country names dominate web text);
5. edge weighting: per-batch combiner → fold on ``(src, dst, pred)``
   with Sum/Min aggregates (the Cypher MERGE collapse, multiplicity
   preserved as ``weight`` — SURVEY.md A5) plus min-chunk provenance
   (fixing the reference's always-null ``r.source``, retrieval.py:283).

Every exchange hands its partition function an Arrow table, and every
fold is a ``pa.Table.group_by`` aggregate: :func:`fold_entities` (both
entity levels and ``pipelines.kg.merge_kg``) and :func:`fold_edges`
(``edges`` and ``merge_kg``). Surface names travel as ``list<string>``
aliases, so a name holding ``|`` stays one alias.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..config import PipelineConfig
from ..functions.embed import get_embedder
from ..functions.link import canonical_key, entity_id_for, merge_similar_keys
from ..state.broadcast import BroadcastLookup

# process-global read-only embedder cache for map_groups workers (the
# reference's utils/common.py:20 cache, but immutable)
_EMBEDDERS: dict = {}


def _embedder(model: str, dim: int):
    key = (model, dim)
    if key not in _EMBEDDERS:
        _EMBEDDERS[key] = get_embedder(model, dim)
    return _EMBEDDERS[key]


def partial_distinct_names(batch: pa.Table) -> pa.Table:
    """Combiner: distinct (name) per batch from subj+obj columns —
    vectorized (``pc.unique`` over the concatenated columns; no per-row
    Python fold on the linking spine)."""
    chunks = batch.column("subj").chunks + batch.column("obj").chunks
    both = pa.chunked_array(chunks, type=pa.string()) if not chunks \
        else pa.chunked_array(chunks)
    uniq = pc.unique(both)
    return pa.table(
        {"name": uniq.take(pc.sort_indices(uniq)).cast(pa.string())}
    )


def collect_alias_dict(triples_ds, cfg: PipelineConfig, max_aliases: int = 2_000_000,
                       spill_dir: str | None = None, spill_partitions: int = 64,
                       lineage=None):
    """Distributed alias-dictionary construction → broadcast ref.

    Fully distributed (the naive version collected EVERY distinct name to
    the driver and embedded serially — a non-scaling driver bottleneck):

    1. per-batch distinct-name combiner → ``groupby(name)`` dedup;
    2. map: canonical key + first-token blocking bucket;
    3. partition-wise per bucket: embed the bucket's keys (process-global
       embedder) and run the ≥0.96 similarity merge LOCALLY — workers do
       all embedding;
    4. the driver collects only (name, merged_key) rows for names whose
       key actually changed — typically a tiny fraction — and broadcasts
       {name → (entity_id, key)}.

    The linker falls back to the pure canonical key for any name not in
    the dict, so the dict only needs the REMAPPED names.

    Overflow policy: if the remapped-name table exceeds ``max_aliases``
    it is NOT silently dropped (that would change the entity graph with
    corpus size) — it spills to hash-partitioned Parquet under
    ``spill_dir`` and linking switches to a partition-aligned map-side
    join (:class:`SpilledAlias`); a lineage row records the dictionary
    size and mode either way.
    """
    from .shuffle import combine, grouped_apply

    model, dim = cfg.embedding_model, cfg.vector_size
    threshold = getattr(cfg, "alias_threshold", 0.96)

    # per-batch distinct only — no global dedup shuffle: the per-bucket
    # merge below dedups keys itself, so cross-batch duplicate names just
    # add a few shuffled rows (far cheaper than a full groupby(name))
    distinct = combine(triples_ds, partial_distinct_names, batch_size=65536)

    def keyed(batch: pa.Table) -> pa.Table:
        names = batch.column("name").to_pylist()
        keys = [canonical_key(n) for n in names]
        return pa.table(
            {
                "name": pa.array(names, pa.string()),
                "key": pa.array(keys, pa.string()),
                "bucket": pa.array(
                    [k.split(" ", 1)[0] for k in keys], pa.string()
                ),
            }
        )

    def merge_bucket(tbl: pa.Table) -> pa.Table:
        """One exchange partition → (name, merged_key) for the names
        whose key the similarity merge remaps. Only keys that share
        their blocking bucket with 1..511 other keys are embedded: a
        lone key cannot merge, and ``merge_similar_keys`` skips a
        bucket of more than 512."""
        keys = pc.unique(tbl.column("key")).to_pylist()
        size = Counter(k.split(" ", 1)[0] for k in keys)
        candidates = sorted(k for k in keys
                            if 2 <= size[k.split(" ", 1)[0]] <= 512)
        remap: dict[str, str] = {}
        if candidates:
            emb = _embedder(model, dim).encode(candidates, prefix="passage:")
            remap = merge_similar_keys(candidates, np.asarray(emb), threshold)
        hit = tbl.filter(pc.is_in(tbl.column("key"),
                                  value_set=pa.array(list(remap), pa.string())))
        return pa.table({
            "name": hit.column("name"),
            "merged_key": pa.array([remap[k] for k in
                                    hit.column("key").to_pylist()],
                                   pa.string()),
        })

    merged = grouped_apply(
        distinct.map_batches(keyed, batch_format="pyarrow", batch_size=65536),
        ["bucket"],
        merge_bucket,
    ).materialize()  # small by construction; read twice below (count + use)
    n_alias = merged.count()

    import time as _time

    if n_alias > max_aliases:
        if spill_dir is None:
            # never silently build an oversized driver dict (ADVICE r2):
            # a caller that opted out of spilling must fail fast, not OOM
            raise ValueError(
                f"alias dictionary has {n_alias} remapped names "
                f"(> max_aliases={max_aliases}) and no spill_dir was "
                "given; pass spill_dir to switch to the partitioned "
                "map-side join, or raise max_aliases explicitly"
            )
        spilled = _spill_alias(merged, spill_dir, spill_partitions)
        if lineage is not None:
            lineage.record("alias-dict:spilled", n_alias, n_alias, 0, 0.0)
        return spilled

    t0 = _time.perf_counter()
    alias: dict[str, tuple[str, str]] = {}
    for batch in merged.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for n, k in zip(
            batch.column("name").to_pylist(), batch.column("merged_key").to_pylist()
        ):
            alias[n] = (entity_id_for(k), k)
    if lineage is not None:
        lineage.record("alias-dict:broadcast", n_alias, len(alias), 0,
                       (_time.perf_counter() - t0) * 1e3)
    return BroadcastLookup(ray.put(alias or None))


class SpilledAlias:
    """Handle to a hash-partitioned on-disk alias table
    (``part-<i>.parquet`` with columns ``name, merged_key``; ``i`` is the
    same ``shuffle._hash_rows % num_partitions`` the shuffle layer
    uses; written and read within one build, so the hash only needs
    within-run stability). Linking against it is a partition-aligned map-side join: the
    repair stage shuffles triples on the entity-name column with the SAME
    hash, so each partition function reads exactly one alias part file."""

    def __init__(self, path: str, num_partitions: int):
        self.path = path
        self.num_partitions = num_partitions

    def part_file(self, part: int) -> str:
        import os

        return os.path.join(self.path, f"part-{part}.parquet")


def _partition_of(tbl: pa.Table, col: str, num_partitions: int) -> int:
    """The exchange partition ``tbl`` is, for an exchange keyed on
    ``col`` alone: ``grouped_apply``'s own hash of its first row (as a
    Python int: a NumPy uint64 scalar ``%`` an int is a float)."""
    from .shuffle import _hash_rows

    return int(_hash_rows(tbl.slice(0, 1), [col])[0]) % num_partitions


def _spill_alias(merged_ds, spill_dir: str, num_partitions: int) -> SpilledAlias:
    import os
    import uuid

    import pyarrow.parquet as pq

    from .shuffle import grouped_apply

    os.makedirs(spill_dir, exist_ok=True)

    def write_part(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({"part": pa.array([], pa.int64())})
        part = _partition_of(tbl, "name", num_partitions)
        final = os.path.join(spill_dir, f"part-{part}.parquet")
        tmp = f"{final}.tmp-{uuid.uuid4().hex}"
        pq.write_table(tbl.select(["name", "merged_key"]), tmp)
        os.replace(tmp, final)  # atomic publish, idempotent on retry
        return pa.table({"part": pa.array([part], pa.int64())})

    # the exchange on name is the one the repair stage runs, so alias
    # rows land in the file their names hash to
    grouped_apply(merged_ds, ["name"], write_part,
                  num_partitions=num_partitions).materialize()
    return SpilledAlias(spill_dir, num_partitions)


def make_linker_fn(alias_lookup: BroadcastLookup | None, cfg: PipelineConfig):
    """triples → triples + src/dst entity ids + salt column.

    Vectorized hot path: ``canonical_key``/dict lookups run once per
    DISTINCT name in the batch (entity names repeat heavily in web text)
    and fan back out through a pandas ``Series.map``; the salt comes from
    one vectorized ``hash_pandas_object`` over chunk_id instead of a
    per-row blake2b. That is pandas' seedless row hash, not the polars
    ``hash_rows`` the shuffle layer partitions with
    (``shuffle._hash_rows``): the salt is a stored column of
    ``linked_triples``, so it must not depend on a hasher seed."""
    salt_buckets = cfg.salt_buckets

    def link(batch: pa.Table) -> pa.Table:
        alias = alias_lookup.get() if alias_lookup is not None else None

        cols = []
        for name_col in ("subj", "obj"):
            s = batch.column(name_col).to_pandas()
            lut: dict[str, str] = {}
            for n in pd.unique(s):
                hit = alias.get(n) if alias is not None else None
                lut[n] = hit[0] if hit is not None else entity_id_for(canonical_key(n))
            cols.append(pa.array(s.map(lut), pa.string()))
        salt = (
            pd.util.hash_pandas_object(
                batch.column("chunk_id").to_pandas(), index=False
            )
            % salt_buckets
        ).astype("int32")
        return (
            batch.append_column("src_entity_id", cols[0])
            .append_column("dst_entity_id", cols[1])
            .append_column("salt", pa.array(salt, pa.int32()))
        )

    return link


def _make_repair_fn(spilled: SpilledAlias, name_col: str, id_col: str):
    """Partition fn for the spilled-alias map-side join: each partition
    (keyed on ``name_col`` with the shuffle layer's hash) loads exactly
    its one alias part file and remaps the already-computed default
    entity ids for names present in the alias table."""
    import os

    import pyarrow.parquet as pq

    def repair(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl
        path = spilled.part_file(
            _partition_of(tbl, name_col, spilled.num_partitions))
        if not os.path.exists(path):
            return tbl
        alias = pq.read_table(path)
        ids = pa.array([entity_id_for(k) for k in
                        alias.column("merged_key").to_pylist()], pa.string())
        hit = ids.take(pc.index_in(tbl.column(name_col),
                                   value_set=alias.column("name")))
        return tbl.set_column(tbl.schema.get_field_index(id_col), id_col,
                              pc.coalesce(hit, tbl.column(id_col)))

    return repair


def link_triples(triples_ds, alias, cfg: PipelineConfig):
    """Annotate triples with src/dst entity ids + salt.

    Broadcast mode (the common case — alias dict fits the object store):
    one stateless ``map_batches``. Spilled mode: default ids first, then
    two partition-aligned repair shuffles (one per entity-name column)
    joining against the on-disk alias partitions — no unbounded driver
    dict, recall identical to broadcast mode."""
    linked = triples_ds.map_batches(
        make_linker_fn(alias if isinstance(alias, BroadcastLookup) else None, cfg),
        batch_format="pyarrow",
        batch_size=65536,
    )
    if isinstance(alias, SpilledAlias):
        from .shuffle import grouped_apply

        for name_col, id_col in (("subj", "src_entity_id"),
                                 ("obj", "dst_entity_id")):
            linked = grouped_apply(
                linked,
                [name_col],
                _make_repair_fn(alias, name_col, id_col),
                num_partitions=alias.num_partitions)
    return linked


# --------------------------- entity_nodes ---------------------------------


def entity_mentions(batch: pa.Table) -> pa.Table:
    """Reshape linked triples → entity-mention rows, one per endpoint
    (vectorized, no per-batch combiner: entity names are mostly unique
    within a batch, so one would not shrink the exchange). Each row is
    already in :func:`fold_entities`' encoding: ``names`` holds the one
    surface name, ``parts`` is 1 (subject) or 2 (object)."""
    n = batch.num_rows
    singles = pa.array(np.arange(n + 1, dtype=np.int32))
    return pa.concat_tables([
        pa.table({
            "entity_id": batch.column(id_col),
            "salt": batch.column("salt"),
            "names": pa.ListArray.from_arrays(
                singles, batch.column(name_col).combine_chunks()),
            "parts": pa.array(np.full(n, part, np.int8)),
            "mention_count": pa.array(np.ones(n, np.int64)),
        })
        for id_col, name_col, part in (("src_entity_id", "subj", 1),
                                       ("dst_entity_id", "obj", 2))
    ])


def fold_entities(tbl: pa.Table, keys: list[str]) -> pa.Table:
    """The one entity fold, shared by both ``entity_nodes`` levels and
    by ``merge_kg``: rows of ``keys`` + ``names`` (list<string>) +
    ``parts`` (int8: 1 subject, 2 object, 3 both) + ``mention_count`` →
    one row per distinct ``keys``, sorted by them, holding the sorted
    distinct names, the parts code (the rows' common code, else 3) and
    the mention_count sum. Every input row has at least one name."""
    by_keys = [(k, "ascending") for k in keys]
    names = tbl.column("names")
    flat = tbl.select(keys).take(pc.list_parent_indices(names)) \
        .append_column("name", pc.list_flatten(names))
    # distinct (keys, name) pairs sorted by keys then name: each group's
    # names are one contiguous run, cut by the per-group counts (group_by
    # output order is not its input order, so every aggregate here is
    # re-sorted by keys before the columns line up)
    pairs = (flat.group_by(keys + ["name"]).aggregate([])
             .sort_by(by_keys + [("name", "ascending")]))
    # mode="all": a null name still takes its slot in ``pairs``
    runs = (pairs.group_by(keys)
            .aggregate([("name", "count", pc.CountOptions(mode="all"))])
            .sort_by(by_keys))
    offsets = np.concatenate(
        ([0], np.cumsum(runs.column("name_count").to_numpy())))
    stats = (tbl.group_by(keys)
             .aggregate([("parts", "min"), ("parts", "max"),
                         ("mention_count", "sum")])
             .sort_by(by_keys))
    lo, hi = stats.column("parts_min"), stats.column("parts_max")
    return pa.table({
        **{k: runs.column(k) for k in keys},
        "names": pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()),
            pairs.column("name").combine_chunks()),
        "parts": pc.if_else(pc.equal(lo, hi), hi, pa.scalar(3, pa.int8())),
        "mention_count": stats.column("mention_count_sum"),
    })


PART_NAMES = pa.array(["", "subject", "object", "both"], pa.string())


def entity_rows(folded: pa.Table, embedding: pa.Array) -> pa.Table:
    """``entity_nodes`` rows from a :func:`fold_entities` over
    ``entity_id``: the display name is the smallest alias, and
    ``embedding`` holds that name's vector per row."""
    return pa.table({
        "entity_id": folded.column("entity_id"),
        "name": pc.list_element(folded.column("names"), 0),
        "embedding": embedding,
        "triplet_part": PART_NAMES.take(folded.column("parts")),
        "aliases": folded.column("names"),
        "mention_count": folded.column("mention_count"),
    })


def make_final_entity_partition(cfg: PipelineConfig):
    model, dim = cfg.embedding_model, cfg.vector_size

    def final(tbl: pa.Table) -> pa.Table:
        folded = fold_entities(tbl, ["entity_id"])
        names = pc.list_element(folded.column("names"), 0).to_pylist()
        # one batched encode for the whole partition's display names
        emb = _embedder(model, dim).encode(names, prefix="passage:")
        return entity_rows(folded, pa.FixedSizeListArray.from_arrays(
            pa.array(np.asarray(emb, dtype=np.float32).reshape(-1),
                     type=pa.float32()),
            dim,
        ))

    return final


def entity_nodes(linked_ds, cfg: PipelineConfig):
    """Two-level salted canonicalization → entity_nodes table.

    Both levels run :func:`fold_entities` partition-wise
    (stages/shuffle.py): the salt column spreads a head entity's
    partials over ``salt_buckets`` level-1 groups; level-2 sees ≤
    salt_buckets rows per entity regardless of skew. Both levels are
    sized from the linked-triple count, the mention rows' source."""
    from .shuffle import grouped_apply

    mentions = linked_ds.map_batches(
        entity_mentions, batch_format="pyarrow", batch_size=65536
    )
    level1 = grouped_apply(
        mentions, ["entity_id", "salt"],
        lambda tbl: fold_entities(tbl, ["entity_id", "salt"]))
    return grouped_apply(level1, ["entity_id"],
                         make_final_entity_partition(cfg))


# ------------------------------ edges --------------------------------------


def partial_edges(batch: pa.Table) -> pa.Table:
    """Combiner: per-batch (src, dst, pred) → count + min chunk_id."""
    return (
        batch.select(["src_entity_id", "dst_entity_id", "pred", "chunk_id"])
        .group_by(["src_entity_id", "dst_entity_id", "pred"])
        .aggregate([("chunk_id", "count"), ("chunk_id", "min")])
        .rename_columns(
            ["src_entity_id", "dst_entity_id", "pred", "weight", "chunk_id"]
        )
    )


EDGE_KEYS = ["src_entity_id", "dst_entity_id", "pred"]


def fold_edges(tbl: pa.Table) -> pa.Table:
    """The edge fold, shared by ``edges`` and ``merge_kg``: per (src,
    dst, pred), the ``weight`` sum and the min ``chunk_id``."""
    return (tbl.group_by(EDGE_KEYS)
            .aggregate([("weight", "sum"), ("chunk_id", "min")])
            .rename_columns(EDGE_KEYS + ["weight", "chunk_id"]))


def edges(linked_ds, cfg: PipelineConfig, with_pred_embedding: bool = True):
    """Weighted, provenance-carrying, sorted edge list.

    ``pred_embedding`` mirrors the reference's predicate vector stored on
    every RELATES_TO edge (core/triplets.py:239-241,363-365); it is
    computed once per distinct predicate per batch (tiny vocabulary).

    The aggregate runs partition-wise (stages/shuffle.py) instead of
    ``groupby([3 string cols]).aggregate``: a sort-based exchange keyed
    on three strings is the same bottleneck the term-node aggregate hit
    (stages/ngram.py — ~28 s at 8 CPUs); hashing the key triple to an
    int partition column turns the exchange into an int sort with the
    string groupby done locally, Arrow-native on both sides (VERDICT r2
    finding 6; pandas-vs-arrow measurement in BASELINE.md)."""
    from .shuffle import combine, grouped_apply

    partials = combine(linked_ds, partial_edges, batch_size=65536)

    agg = grouped_apply(partials, EDGE_KEYS, fold_edges)
    model, dim = cfg.embedding_model, cfg.vector_size

    def add_pred_embedding(batch: pa.Table) -> pa.Table:
        preds = batch.column("pred").to_pylist()
        vocab = sorted(set(preds))
        vecs = _embedder(model, dim).encode(vocab, prefix="passage:")
        lut = {p: v for p, v in zip(vocab, vecs)}
        mat = np.stack([lut[p] for p in preds]) if preds else np.zeros((0, dim), "f4")
        emb = pa.FixedSizeListArray.from_arrays(
            pa.array(mat.astype(np.float32).reshape(-1), type=pa.float32()), dim
        )
        return batch.append_column("pred_embedding", emb)

    # Parity note (reference core/triplets.py:372-398): the reference
    # UNWINDs every ≥0.96-similar entity per triplet endpoint, creating
    # |sim(src)| × |sim(dst)| RELATES_TO edges; this engine stores ONE
    # edge between CANONICAL entities (alias surface forms live on the
    # node) — deliberate and order-independent. A reference user who
    # needs the original edge multiplicity materializes it with
    # :func:`edges_alias_fanout` below.
    #
    # sorted edge-list materialization (north_star) — sort is the final
    # exchange before the sink so the written file ranges follow key
    # order. The 768-dim pred_embedding attaches AFTER the sort (a
    # per-block map preserves block order) so the all-to-all ships a few
    # MB of strings+ints, not ~230 MB of vectors (3 kB/row × edge count).
    out = agg.sort(["src_entity_id", "dst_entity_id", "pred"])
    if with_pred_embedding:
        out = out.map_batches(add_pred_embedding, batch_format="pyarrow",
                              batch_size=65536)
        cols = ["src_entity_id", "dst_entity_id", "pred", "chunk_id", "weight",
                "pred_embedding"]
    else:
        cols = ["src_entity_id", "dst_entity_id", "pred", "chunk_id", "weight"]
    return out.select_columns(cols)


def edges_alias_fanout(edges_ds, entity_nodes_ds):
    """Reference-parity fan-out materialization (core/triplets.py:372-398,
    the ``UNWIND×3`` cross-product): reconstruct the reference's edge
    multiplicity from the canonical graph — each canonical edge fans out
    to every (src_alias, dst_alias) pair, alias ids being the entity ids
    the merged surface forms would have had unmerged.

    The fan-out map covers only entities with >1 alias (the linker's
    remapped-name set, small by construction and bounded by the
    max_aliases guard), broadcast once via ``ray.put``; the edge list
    streams past in one map. Returns (src_entity_id, dst_entity_id,
    pred, chunk_id, weight) with reference multiplicity."""
    multi = entity_nodes_ds.map_batches(
        lambda b: b.filter(
            pc.greater(pc.list_value_length(b.column("aliases")), 1)
        ).select(["entity_id", "aliases"]),
        batch_format="pyarrow",
    )
    amap = {
        r["entity_id"]: sorted(
            {entity_id_for(canonical_key(a)) for a in r["aliases"]}
        )
        for r in multi.take_all()  # merged entities only — tiny
    }
    ref = ray.put(amap)

    def fanout(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        cols = {c: batch.column(c).to_pylist()
                for c in ("src_entity_id", "dst_entity_id", "pred",
                          "chunk_id", "weight")}
        out: dict[str, list] = {c: [] for c in cols}
        for s, d, p, c_, w in zip(cols["src_entity_id"],
                                  cols["dst_entity_id"], cols["pred"],
                                  cols["chunk_id"], cols["weight"]):
            for sa in m.get(s, (s,)):
                for da in m.get(d, (d,)):
                    out["src_entity_id"].append(sa)
                    out["dst_entity_id"].append(da)
                    out["pred"].append(p)
                    out["chunk_id"].append(c_)
                    out["weight"].append(w)
        return pa.table(
            {
                "src_entity_id": pa.array(out["src_entity_id"], pa.string()),
                "dst_entity_id": pa.array(out["dst_entity_id"], pa.string()),
                "pred": pa.array(out["pred"], pa.string()),
                "chunk_id": pa.array(out["chunk_id"], pa.string()),
                "weight": pa.array(out["weight"], pa.int64()),
            }
        )

    return edges_ds.select_columns(
        ["src_entity_id", "dst_entity_id", "pred", "chunk_id", "weight"]
    ).map_batches(fanout, batch_format="pyarrow", batch_size=65536)
