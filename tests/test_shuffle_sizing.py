"""Input-sized exchanges (``stages/shuffle.partitions_for``): the
rule's counts at the design point and at crawl scale, sizing from
metadata without running a Dataset (a lazy input by its plan's source
leaves), and identical KG-spine output rows at one partition, at the
sized count and at the cap."""

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
# the smallest spine exchange there) and of the 1,500-page crawl build
SF01_LINKED = 1_448_000
CRAWL_LINKED = 15_312

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


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n: int):
        monkeypatch.setattr(shuffle, "_cluster_cpus", lambda: n)

    return set_cpus


def test_design_point_keeps_the_cap(cpus):
    cpus(32)
    # edges (one row per linked triple) and entity mentions (two)
    assert partitions_for(_Sized(SF01_LINKED)) == MAX_PARTITIONS
    assert partitions_for(_Sized(SF01_LINKED), per_row=2) == MAX_PARTITIONS


def test_crawl_scale_on_one_cpu(cpus):
    cpus(1)
    assert partitions_for(_Sized(CRAWL_LINKED)) <= 8
    assert partitions_for(_Sized(CRAWL_LINKED), per_row=2) <= 8


def test_bounds(cpus):
    for n, want in ((1, 1), (0, 1), (32, 32)):
        cpus(n)
        assert partitions_for(_Sized(0)) == want
    for rows in (1, 10**4, 10**6, 10**9):
        for n in (1, 32, 1024):
            cpus(n)
            assert 1 <= partitions_for(_Sized(rows)) <= MAX_PARTITIONS
    # several inputs add up; one of unknown size keeps the cap
    cpus(1)
    assert partitions_for(_Sized(5 * shuffle.ROWS_PER_PARTITION),
                          _Sized(3 * shuffle.ROWS_PER_PARTITION)) == 8
    assert partitions_for(_Sized(0), _Sized(None)) == MAX_PARTITIONS


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
    assert partitions_for(linked, mat) == 6
    assert partitions_for(linked, per_row=2) == 6
    assert partitions_for(lazy) == 3
    assert partitions_for(lazy.union(mat.map_batches(lambda b: b))) == 6
    assert shuffle._source_rows(
        lazy.select_columns(["subj"]).union(small)) == 3003
    # what a filter keeps and what an earlier exchange's fold emits are
    # unknown and usually far fewer rows than their sources: they add
    # nothing, so only the other side of a union counts
    assert partitions_for(filtered.map_batches(lambda b: b)) == 1
    assert partitions_for(filtered.union(linked)) == 3
    assert partitions_for(
        linked.filter(expr="pred == 'is'").union(mat)) == 3
    fold = shuffle.grouped_apply(linked, ["subj"], lambda t: t)
    assert partitions_for(fold) == 1
    assert partitions_for(fold.map_batches(lambda b: b).union(linked)) == 3
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


@pytest.mark.parametrize("stage", ["entity_nodes", "edges", "term_nodes"])
def test_partition_count_never_changes_rows(spine_inputs, stage,
                                            fixed_partitions):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages import link, ngram

    fn, src, per_row = {
        "entity_nodes": (link.entity_nodes, "linked", 2),
        "edges": (link.edges, "linked", 1),
        "term_nodes": (ngram.term_nodes, "terms", 1),
    }[stage]
    ds = spine_inputs[src]
    assert 1 < partitions_for(ds, per_row=per_row) < MAX_PARTITIONS
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
