"""Input-sized exchanges (``stages/shuffle.partitions_for``): the
rule's counts at the design point and at crawl scale, sizing from
metadata without running a Dataset (a lazy input by its plan's source
leaves, a per-batch combiner's source rows per map batch), the global fold
(``grouped_apply(ds, [], fold)``), and identical KG-spine output rows
at one partition, at the sized count and at the cap."""

from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.config import PipelineConfig
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages import shuffle
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.shuffle import (
    MAX_PARTITIONS,
    partitions_for,
)

# linked triples of a 250 k-page sf0.1 bench build (~1.45 M; edges is
# the smallest spine exchange there) and of the 1,500-page crawl build,
# and the crawl build's terms rows (term_nodes' source)
SF01_LINKED = 1_448_000
CRAWL_LINKED = 15_312
CRAWL_TERMS = 476_455

CFG = PipelineConfig()


class _Sized:
    """A stand-in Dataset read from one source of ``rows`` rows (None:
    unknown without running it)."""

    def __init__(self, rows):
        self.rows = rows
        leaf = SimpleNamespace(
            input_dependencies=[],
            infer_metadata=lambda: SimpleNamespace(num_rows=rows))
        self._logical_plan = SimpleNamespace(dag=leaf)

    def _meta_count(self):
        return self.rows


class _Op:
    def __init__(self, inputs):
        self.input_dependencies = inputs


class _Combined:
    """A stand-in ``shuffle.combine`` over a source of ``rows`` rows."""

    def __init__(self, rows):
        self._logical_plan = SimpleNamespace(
            dag=_Op([_Sized(rows)._logical_plan.dag]))
        shuffle._FOLDS.add(self._logical_plan.dag)

    def _meta_count(self):
        return None


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n: int):
        monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: n)

    return set_cpus


def test_design_point_keeps_the_cap(cpus):
    cpus(32)
    # both entity levels: a row map over the linked triples
    assert partitions_for(_Sized(SF01_LINKED)) == MAX_PARTITIONS
    # edges: a combiner over them, one partition per map batch it
    # reads (23), so the CPU floor
    assert partitions_for(_Combined(SF01_LINKED)) == 32
    cpus(8)
    assert partitions_for(_Combined(SF01_LINKED)) == 23
    # ten times the rows: each call still gets at most BATCH_SIZE
    # combiner rows on average
    assert partitions_for(_Combined(10 * SF01_LINKED)) == 221


def test_crawl_scale_on_one_cpu(cpus):
    cpus(1)
    assert partitions_for(_Sized(CRAWL_LINKED)) <= 8
    # edges and the alias dict (combiners over the triples) get the
    # floor; term_nodes (a combiner over the terms) one partition per
    # map batch it reads, where the terms rows alone gave 117
    assert partitions_for(_Combined(CRAWL_LINKED)) == 1
    assert partitions_for(_Combined(CRAWL_TERMS)) == 8
    assert partitions_for(_Sized(CRAWL_TERMS)) == 117


def test_bounds(cpus):
    for n, want in ((1, 1), (0, 1), (32, 32)):
        cpus(n)
        assert partitions_for(_Sized(0)) == want
    for rows in (1, 10**4, 10**6, 10**9):
        for n in (1, 32, 1024):
            cpus(n)
            assert 1 <= partitions_for(_Sized(rows)) <= MAX_PARTITIONS
    # an input of unknown size keeps the cap
    cpus(1)
    assert partitions_for(_Sized(None)) == MAX_PARTITIONS


def _zipf_triples(n: int, seed: int = 3) -> pa.Table:
    """Triples whose entity names follow a Zipf law: a few head
    entities take most mentions (the case the salt split exists for)."""
    rng = np.random.default_rng(seed)
    names = [f"entity {i}" for i in range(300)]
    preds = ["is", "has", "founded", "leads"]

    def pick():
        return names[min(int(rng.zipf(1.4)) - 1, len(names) - 1)]

    return pa.table({
        "chunk_id": [f"c{i // 3:05d}" for i in range(n)],
        "subj": [pick() for _ in range(n)],
        "pred": [preds[int(rng.integers(len(preds)))] for _ in range(n)],
        "obj": [pick() for _ in range(n)],
    })


def _linked(tbl: pa.Table) -> pa.Table:
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.link import make_linker_fn

    return make_linker_fn(None, CFG)(tbl)


def _terms(n_chunks: int, seed: int = 5) -> pa.Table:
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.ngram import ngram_table

    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(400)]
    texts = [" ".join(vocab[min(int(rng.zipf(1.3)) - 1, len(vocab) - 1)]
                      for _ in range(40))
             for _ in range(n_chunks)]
    return ngram_table([f"c{i:05d}" for i in range(n_chunks)], texts)


def _read(path, tbl: pa.Table):
    import ray.data

    pq.write_table(tbl, str(path))
    return ray.data.read_parquet(str(path))


@pytest.fixture(scope="module")
def spine_inputs(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("sizing")
    return {
        "linked": _read(d / "linked.parquet", _linked(_zipf_triples(3000))),
        "linked_a": _read(d / "linked_a.parquet", _linked(_zipf_triples(1500, 7))),
        "linked_b": _read(d / "linked_b.parquet", _linked(_zipf_triples(1500, 8))),
        "terms": _read(d / "terms.parquet", _terms(200)),
        "terms_a": _read(d / "terms_a.parquet", _terms(100, 6)),
        "terms_b": _read(d / "terms_b.parquet", _terms(100, 7)),
        "dir": d,
    }


def _rows(ds) -> list:
    def norm(v):
        if isinstance(v, (list, tuple, np.ndarray)):
            return tuple(norm(x) for x in v)
        return v

    return sorted(repr(sorted((k, norm(v)) for k, v in r.items()))
                  for r in ds.take_all())


def _unsized_source(d):
    """A streaming WARC read: its row count is unknown until it runs."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.warc import (
        encode_wet_pages,
    )
    from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.warc import (
        read_warc_as_pages,
    )

    import datetime

    path = d / "pages.wet.gz"
    path.write_bytes(encode_wet_pages([{
        "url": "https://crawl.example/doc-0",
        "warc_ts": datetime.datetime(2025, 3, 28),
        "text": "one page", "lang": "en", "html": b"<p>one page</p>",
    }]))
    return read_warc_as_pages([str(path)])


def test_sizing_runs_no_dataset(spine_inputs, monkeypatch, cpus):
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import merge_kg
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.link import edges, entity_nodes
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.ngram import term_nodes

    linked, terms = spine_inputs["linked"], spine_inputs["terms"]
    mat = linked.materialize()
    lazy = linked.map_batches(lambda b: b)
    small = ray.data.from_arrow(pa.table({"k": [1, 2, 3]}))
    unsized = _unsized_source(spine_inputs["dir"])
    filtered = ray.data.read_parquet(
        str(spine_inputs["dir"] / "linked.parquet"),
        filter=pc.field("pred") == "is")

    def refuse(*_a, **_k):
        raise AssertionError("a Dataset ran while sizing an exchange")

    monkeypatch.setattr(StreamingExecutor, "execute", refuse)
    # footers of a Parquet read and block metadata of a materialized
    # Dataset give exact counts (3,000 rows each); a lazy map counts its
    # source's rows, a lazy union both sources' rows
    cpus(1)
    monkeypatch.setattr(shuffle, "ROWS_PER_PARTITION", 1000)
    assert partitions_for(linked) == 3
    assert partitions_for(mat) == 3
    assert partitions_for(linked.union(mat)) == 6
    assert partitions_for(lazy) == 3
    assert partitions_for(lazy.union(mat.map_batches(lambda b: b))) == 6
    assert shuffle._source_rows(
        lazy.select_columns(["subj"]).union(small)) == (3003, 0)
    # a combiner's source rows are counted apart, as folded
    assert shuffle._source_rows(
        shuffle.combine(lazy, lambda b: b).union(small)) == (3, 3000)
    # what a filter keeps and what an earlier exchange's fold emits are
    # unknown and usually far fewer rows than their sources: their
    # sources count per BATCH_SIZE (3,000 rows: 0.05 partition), and a
    # filtered Parquet read, whose footer count Ray drops, counts nothing
    assert partitions_for(filtered.map_batches(lambda b: b)) == 1
    assert partitions_for(filtered.union(linked)) == 3
    assert partitions_for(
        linked.filter(expr="pred == 'is'").union(mat)) == 4
    fold = shuffle.grouped_apply(linked, ["subj"], lambda t: t)
    assert partitions_for(fold) == 1
    assert shuffle._source_rows(fold) == (0, 3000)
    assert partitions_for(fold.map_batches(lambda b: b).union(linked)) == 4
    # only a source whose size is unknown without running it gets the cap
    assert partitions_for(unsized.map_batches(lambda b: b)) == MAX_PARTITIONS
    assert partitions_for(lazy.union(unsized)) == MAX_PARTITIONS
    # building each sized spine stage only plans it, whether its input
    # size is known or not
    for src, trm in ((linked, terms), (lazy, terms.map_batches(lambda b: b)),
                     (unsized, terms)):
        entity_nodes(src, CFG)
        edges(src, CFG)
        term_nodes(trm, CFG)
        tables = {"term_nodes": trm, "entity_nodes": src, "edges": src}
        merge_kg(tables, tables)


def _distinct_ids():
    """A per-batch combiner: the distinct ``id & 7`` of a batch (built
    in the test, so Ray ships it by value)."""
    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"k": pc.unique(pc.bit_wise_and(batch.column("id"), 7))})

    return fn


def test_combiner_counts_its_source_per_batch(ray_session, monkeypatch, cpus):
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    def refuse(*_a, **_k):
        raise AssertionError("a Dataset ran while sizing an exchange")

    big = ray.data.range(10**6)
    small = ray.data.range(3 * shuffle.ROWS_PER_PARTITION)
    monkeypatch.setattr(StreamingExecutor, "execute", refuse)
    cpus(32)
    # the same 10^6 source rows: a row map counts each, a combiner (whose
    # output is unknown until it runs) one per map batch, 16, so it gets
    # the CPU floor
    assert partitions_for(big.map_batches(lambda b: b)) == 245
    assert partitions_for(shuffle.combine(big, _distinct_ids())) == 32
    cpus(2)
    assert partitions_for(shuffle.combine(big, _distinct_ids())) == 16
    assert partitions_for(
        shuffle.combine(big, _distinct_ids()).map_batches(lambda b: b)) == 16
    # a union adds its sides, each at its own rate: 3 + 15.3
    mapped = small.map_batches(lambda b: b)
    assert partitions_for(mapped) == 3
    assert partitions_for(
        shuffle.combine(big, _distinct_ids()).union(mapped)) == 19
    assert partitions_for(
        mapped.union(shuffle.combine(big, _distinct_ids()))) == 19
    # a combine of a small input, unioned with a row map: the row map
    # sizes it
    assert partitions_for(
        shuffle.combine(small, _distinct_ids()).union(mapped)) == 4


def test_combine_runs_fn_per_batch(ray_session):
    import ray.data

    ds = ray.data.range(1000, override_num_blocks=5)
    out = shuffle.combine(ds, _distinct_ids(), batch_size=100).take_all()
    # five blocks of 200 rows, so ten batches of 100, each folded to its
    # 8 distinct keys
    assert len(out) == 80
    assert sorted({r["k"] for r in out}) == list(range(8))
    # a pandas combiner's output is an Arrow block without pandas
    # schema metadata
    pdf = shuffle.combine(
        ds, lambda df: df.groupby(df["id"] % 3, as_index=False).size(),
        batch_format="pandas").materialize()
    assert pdf.schema().base_schema.metadata is None


def test_global_fold_calls_fold_once(ray_session):
    import ray.data

    def fold(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("id").to_pylist()
        return pa.table({"n": [len(ids)], "ids": [sorted(ids)]})

    ds = ray.data.range(5000, override_num_blocks=7)
    out = shuffle.grouped_apply(ds, [], fold).take_all()
    assert len(out) == 1
    assert out[0]["n"] == 5000
    assert list(out[0]["ids"]) == list(range(5000))
    empty = ds.filter(expr="id < 0")
    assert shuffle.grouped_apply(empty, [], fold).take_all() == []
    # a pinned count does not split it
    pandas_out = shuffle.grouped_apply(
        ds, [], lambda df: df.agg({"id": ["count", "sum"]}).T,
        num_partitions=8, batch_format="pandas").take_all()
    assert pandas_out == [{"count": 5000, "sum": sum(range(5000))}]


@pytest.mark.parametrize("stage", ["entity_nodes", "edges", "term_nodes"])
def test_partition_count_never_changes_rows(spine_inputs, stage,
                                            fixed_partitions):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages import link, ngram

    fn, src = {
        "entity_nodes": (link.entity_nodes, "linked"),
        "edges": (link.edges, "linked"),
        "term_nodes": (ngram.term_nodes, "terms"),
    }[stage]
    ds = spine_inputs[src]
    assert 1 < partitions_for(ds) < MAX_PARTITIONS
    want = _rows(fn(ds, CFG))
    assert want
    for parts in (1, MAX_PARTITIONS):
        fixed_partitions(parts)
        assert _rows(fn(ds, CFG)) == want, parts


def test_merge_kg_partition_count_never_changes_rows(spine_inputs,
                                                     fixed_partitions):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import merge_kg
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.link import edges, entity_nodes
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.ngram import term_nodes

    import ray.data

    d = spine_inputs["dir"]

    def kg(side: str) -> dict:
        linked = spine_inputs[f"linked_{side}"]
        out = {}
        for name, ds in (("entity_nodes", entity_nodes(linked, CFG)),
                         ("edges", edges(linked, CFG)),
                         ("term_nodes",
                          term_nodes(spine_inputs[f"terms_{side}"], CFG))):
            path = str(d / f"{name}_{side}")
            ds.write_parquet(path)
            out[name] = ray.data.read_parquet(path)
        return out

    a, b = kg("a"), kg("b")
    sized = merge_kg(a, b)
    want = {name: _rows(sized[name])
            for name in ("term_nodes", "entity_nodes", "edges")}
    for parts in (1, MAX_PARTITIONS):
        fixed_partitions(parts)
        merged = merge_kg(a, b)
        for name, rows in want.items():
            assert rows, name
            assert _rows(merged[name]) == rows, (name, parts)
