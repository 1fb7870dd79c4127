"""One benchmark run in one process with its own Ray session.

    python kgbench/session.py --workload W --seed N --seconds S --trace 0|1 \
        --work DIR [--toy]

``run.py`` starts this file in a fresh process session and owns clean-up;
run it directly only for debugging. Machine-readable lines go to stdout
with a ``KGBENCH`` prefix; everything else (Ray and Ray Data logs) goes to
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "tools")]

import pyarrow as pa  # noqa: E402

from kgbench import inputs, procs  # noqa: E402
from kgbench.trace import (  # noqa: E402
    KG_TABLES, MAP_STAGE_SPANS, Tracer, dir_stats, read_table, run_kernels,
    table_digest, traced_build,
)

# Input sizes. FULL is the benchmark; TOY is the self-test's size.
FULL = {"crawl_pages": 1500, "base_pages": 800, "incr_pages": 500,
        "serve_pages": 800, "warm_pages": 64, "text_queries": 12,
        "chain_queries": 8, "entity_queries": 10, "trace_queries": 10}
TOY = {"crawl_pages": 80, "base_pages": 60, "incr_pages": 40,
       "serve_pages": 60, "warm_pages": 16, "text_queries": 4,
       "chain_queries": 3, "entity_queries": 3, "trace_queries": 3}

# serve_mixed op mix, as (op, share of 20 draws)
OP_MIX = (("hybrid_with_triplets", 8), ("hybrid_ivf", 3), ("vector_topk", 2),
          ("term_search", 2), ("graph_with_context", 3),
          ("document_chain", 1), ("relationship_search", 1))
K = 10
SCHEMA_HASH_WARNING = "Failed to hash the schemas"


class Interrupted(Exception):
    pass


def _on_signal(signum, _frame):
    raise Interrupted(f"signal {signum}")


def percentile(vals: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted(vals)[max(0, math.ceil(q * len(vals)) - 1)]


TAIL_BLOCK = 200  # the fewest ops whose p95 has ten ops beyond it


def tail(durs: list[float]) -> float:
    """p95 of the run's ops, as the median of the p95s of its consecutive
    blocks of at least TAIL_BLOCK ops, so that a burst of host contention
    moves one block, not the figure. A run of a few builds has no block;
    its median stands in (the slowest of three builds is noise, not a
    tail)."""
    blocks = len(durs) // TAIL_BLOCK
    if not blocks:
        return statistics.median(durs)
    n = len(durs)
    return statistics.median(percentile(durs[i * n // blocks:(i + 1) * n // blocks], 0.95)
                             for i in range(blocks))


class Bench:
    def __init__(self, args):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.config import DEFAULT_CONFIG

        self.args = args
        self.size = TOY if args.toy else FULL
        self.cfg = DEFAULT_CONFIG
        self.work = args.work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.inputs: dict = {}
        self.layer: dict = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    # ----------------------------------------------------------- gates
    def gate(self, name: str, ok: bool) -> bool:
        if not ok:
            self.failures.append(name)
        return ok

    def setup_gate(self, ok: bool) -> None:
        """A set-up KG's correctness gates count as one op."""
        self.attempted += 1
        self.failed += not ok

    def check_kg(self, out_dir: str, pages_tbl: pa.Table) -> bool:
        """The per-build correctness gates: cross-table invariants,
        documents.text == extract_text(html) for every kept url, and
        triples == the in-process triple kernel on the same chunks."""
        import check_invariants

        from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import extract_text
        from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.tripletstage import make_triplet_fn

        with contextlib.redirect_stdout(io.StringIO()):
            inv_ok = check_invariants.main(out_dir) == 0
        ok = self.gate("check_invariants", inv_ok)

        docs = read_table(out_dir, "documents").select(["url", "text"]).to_pylist()
        langs = set(self.cfg.languages)
        want = {r["url"]: r["html"] for r in pages_tbl.select(["url", "html", "lang"]).to_pylist()
                if r["lang"] in langs}
        got = {r["url"]: r["text"] for r in docs}
        ok &= self.gate("documents_text", len(docs) == len(got) and got.keys() == want.keys()
                        and all(got[u] == extract_text(h) for u, h in want.items()))

        chunks = read_table(out_dir, "chunks").select(["chunk_id", "doc_id", "text"])
        fn = make_triplet_fn(self.cfg)
        size = self.cfg.triplet_batch_size
        ref = pa.concat_tables([fn(chunks.slice(i, size))
                                for i in range(0, max(chunks.num_rows, 1), size)])
        cols = ["chunk_id", "doc_id", "sent_index", "subj", "pred", "obj"]

        def rows(tbl: pa.Table) -> list[tuple]:
            return sorted(zip(*(tbl.column(c).to_pylist() for c in cols)))

        ok &= self.gate("triples", rows(ref) == rows(read_table(out_dir, "triples")))
        return ok

    # ---------------------------------------------------------- set-up
    def write_pages(self, corpus: str, n: int, en_share: float, seed: int | None = None):
        seed = self.args.seed if seed is None else seed
        tbl = inputs.pages(seed, corpus, n, en_share)
        d = self.path("inputs", f"{corpus}-{seed}")
        nbytes = inputs.write_pages(tbl, d, max(1, n // 250))
        return d, tbl, nbytes

    def record_inputs(self, corpus: str, tbl: pa.Table, nbytes: int) -> None:
        en = sum(1 for lang in tbl.column("lang").to_pylist() if lang == "en")
        self.inputs[corpus] = {"pages": tbl.num_rows, "input_mb": round(nbytes / 2**20, 3),
                               "en_share": round(en / max(1, tbl.num_rows), 4)}

    def build(self, pages_dir: str, out_dir: str, lineage: bool = True) -> dict:
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import build_kg

        shutil.rmtree(out_dir, ignore_errors=True)
        return build_kg(lambda: ray.data.read_parquet(pages_dir), out_dir, self.cfg,
                        resume=False, lineage=lineage)

    def warm_up(self) -> None:
        """One small build so worker processes and imports are warm."""
        d, _, _ = self.write_pages("warmup", self.size["warm_pages"], 1.0)
        out = self.path("warmup-kg")
        self.build(d, out, lineage=False)
        shutil.rmtree(out, ignore_errors=True)

    # ----------------------------------------------------------- loop
    def measure(self, op, min_ops: int, rss_per_op: bool = True):
        """Run ops until ``--seconds`` have passed and at least ``min_ops``
        ran. ``op(i)`` does the op's untimed preparation (input generation)
        and returns ``(timed, gate)``: only ``timed()`` is timed, and
        ``gate(result)`` then runs the op's correctness checks. Peak RSS is
        reset before ``timed()`` and read right after it, or once around
        the whole loop when ops are too short for a /proc scan each.
        Returns (seconds of the ops that passed, seconds of all timed
        parts, peak RSS MiB samples)."""
        durs, rss = [], []
        timed_total = 0.0
        me = os.getpid()
        procs.reset_peak_rss(procs.tree(me))
        t_start = time.perf_counter()
        i = 0
        while time.perf_counter() - t_start < self.args.seconds or i < min_ops:
            self.attempted += 1
            ok, dt = False, None
            try:
                timed, gate = op(i)
                if rss_per_op:
                    procs.reset_peak_rss(procs.tree(me))
                t0 = time.perf_counter()
                res = timed()
                dt = time.perf_counter() - t0
                timed_total += dt
                if rss_per_op:
                    rss.append(procs.peak_rss_mb(procs.tree(me)))
                ok = gate(res)
            except Interrupted:
                raise
            except Exception as e:  # a failed op counts; the run goes on
                print(f"op {i} failed: {e!r}", file=sys.stderr)
                self.failures.append(f"op {i}: {type(e).__name__}")
            if ok:
                durs.append(dt)
                print(f"op {i}: {dt:.4f} s", file=sys.stderr, flush=True)
            else:
                self.failed += 1
            i += 1
        if not rss_per_op:
            rss.append(procs.peak_rss_mb(procs.tree(me)))
        return durs, timed_total, rss


# ------------------------------------------------------------- workloads

def build_crawl_setup(b: Bench) -> dict:
    pages_dir, tbl, nbytes = b.write_pages("crawl", b.size["crawl_pages"], 0.6)
    b.record_inputs("crawl", tbl, nbytes)
    b.warm_up()
    return {"pages_dir": pages_dir, "tbl": tbl}


def build_crawl(b: Bench, st: dict) -> dict | None:
    pages_dir, tbl = st["pages_dir"], st["tbl"]
    if b.args.trace:
        return layer_walk(b, pages_dir, tbl, base_dir=None)
    out = b.path("kg")
    written: list[float] = []

    def gate(_res):
        written.append(dir_stats(out)[1] / 2**20)
        return b.check_kg(out, tbl)

    durs, timed, rss = b.measure(lambda _i: (lambda: b.build(pages_dir, out), gate),
                                 min_ops=3)
    return {"durs": durs, "rss": rss, "timed": timed,
            "written_mb": statistics.median(written), "named": "build_s"}


def _sums(out_dir: str) -> dict:
    import pyarrow.compute as pc

    return {col: pc.sum(read_table(out_dir, table)[col]).as_py() or 0
            for table, col in (("entity_nodes", "mention_count"), ("edges", "weight"),
                               ("term_nodes", "chunk_count"))}


MERGED = ("term_nodes", "entity_nodes", "edges")


def merge_publish(base_dir: str, incr_dir: str, out_dir: str,
                  tr: Tracer | None = None) -> None:
    """merge_kg(base, increment), then publish the merged term_nodes /
    entity_nodes / edges through ``checkpointed``."""
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import merge_kg
    from nlp_graphrag_with_qdrant_and_neo4j_ray.state.checkpoint import checkpointed

    def tables(d):
        return {n: ray.data.read_parquet(os.path.join(d, n)) for n in KG_TABLES}

    merged = merge_kg(tables(base_dir), tables(incr_dir))
    shutil.rmtree(out_dir, ignore_errors=True)
    for name in MERGED:
        with tr.span(f"pipelines.kg.merge.{name}") if tr else contextlib.nullcontext():
            checkpointed(out_dir, name, lambda: merged[name], resume=False)


def check_merge(b: Bench, base_dir: str, incr_dir: str, out_dir: str) -> bool:
    """Merged mention_count / weight / chunk_count sums equal A + B."""
    a, c, m = _sums(base_dir), _sums(incr_dir), _sums(out_dir)
    return b.gate("merge_additive", all(m[k] == a[k] + c[k] for k in m))


def update_merge_setup(b: Bench) -> dict:
    base_pages, base_tbl, nbytes = b.write_pages("base", b.size["base_pages"], 1.0)
    b.record_inputs("base", base_tbl, nbytes)
    if b.args.trace:
        b.warm_up()
    # the base build warms workers and imports for the timed loop
    base = b.path("base-kg")
    b.build(base_pages, base)
    return {"base": base, "base_tbl": base_tbl}


def update_merge(b: Bench, st: dict) -> dict | None:
    base = st["base"]
    b.setup_gate(b.check_kg(base, st["base_tbl"]))
    if b.args.trace:
        incr_dir, incr_tbl, nbytes = b.write_pages("increment", b.size["incr_pages"], 1.0)
        b.record_inputs("increment", incr_tbl, nbytes)
        return layer_walk(b, incr_dir, incr_tbl, base_dir=base)
    incr, merged = b.path("incr-kg"), b.path("merged")
    written: list[float] = []
    sizes: list[dict] = []

    def op(i):
        # the increment's pages are input generation, outside the timing
        seed = b.args.seed * 1000 + i + 1
        d, tbl, nbytes = b.write_pages("increment", b.size["incr_pages"], 1.0, seed=seed)
        sizes.append({"pages": tbl.num_rows, "input_mb": nbytes / 2**20})

        def timed():
            b.build(d, incr)
            merge_publish(base, incr, merged)

        def gate(_res):
            written.append((dir_stats(incr)[1] + dir_stats(merged)[1]) / 2**20)
            good = check_merge(b, base, incr, merged) & b.check_kg(incr, tbl)
            shutil.rmtree(d, ignore_errors=True)
            return good

        return timed, gate

    durs, timed, rss = b.measure(op, min_ops=3)
    b.inputs["increment"] = {"pages": b.size["incr_pages"], "en_share": 1.0,
                             "input_mb": round(statistics.median(s["input_mb"] for s in sizes), 3)}
    return {"durs": durs, "rss": rss, "timed": timed,
            "written_mb": statistics.median(written), "named": "update_s"}


class Server:
    """The serving shape: checkpoint tables loaded once in-process, the
    term index and the IVF index built once."""

    def __init__(self, b: Bench, kg: str, tr: Tracer | None = None):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import ensure_ivf_index
        from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
            ensure_term_index, kg_fingerprint,
        )

        span = tr.span if tr else (lambda _n: contextlib.nullcontext())
        self.cfg = b.cfg
        self.kg = kg
        self.fingerprint = kg_fingerprint(kg)
        self.chunks = read_table(kg, "chunks")
        self.vectors = read_table(kg, "chunk_vectors").select(
            ["chunk_id", "payload_text", "embedding"])
        self.edges = read_table(kg, "edges")
        with span("stages.termindex.build"):
            self.terms = ensure_term_index(
                kg, lambda: ray.data.read_parquet(os.path.join(kg, "terms")),
                total_chunks=self.chunks.num_rows, resume=False)
        self.index_dir = os.path.join(kg, "ivf")
        with span("pipelines.similarity.ivf_build"):
            ensure_ivf_index(self.index_dir, self._vectors_ds, self.cfg.vector_size,
                             nlist=16, id_col="chunk_id", emb_col="embedding",
                             fingerprint=self.fingerprint, resume=False)

    def _vectors_ds(self):
        import ray.data

        return ray.data.read_parquet(os.path.join(self.kg, "chunk_vectors")).select_columns(
            ["chunk_id", "embedding"])

    def ivf_hits(self, q: str) -> list[dict]:
        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines import query as Q

        return Q.vector_topk_ivf(self._vectors_ds, q, self.index_dir, self.fingerprint,
                                 k=K, nlist=16, cfg=self.cfg).take(K)

    def run(self, op: str, arg):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines import query as Q

        cfg = self.cfg
        if op == "hybrid_with_triplets":
            return Q.hybrid_retrieve_with_triplets(self.vectors, self.terms, self.edges,
                                                   arg, K, cfg)
        if op == "hybrid_ivf":
            return Q.hybrid_retrieve(None, self.terms, arg, K, cfg,
                                     vec_hits=self.ivf_hits(arg))
        if op == "vector_topk":
            return Q.vector_topk(self.vectors, arg, K, cfg).take(K)
        if op == "term_search":
            return Q.term_search(self.terms, arg, K, cfg, as_rows=True)
        if op == "graph_with_context":
            return Q.with_context(self.chunks, Q.graph_retrieve(self.terms, arg, K, cfg),
                                  cfg.context_size)
        if op == "document_chain":
            return Q.get_document_chain(self.chunks, arg)
        if op == "relationship_search":
            return Q.relationship_search(self.edges, arg[0], arg[1], K)
        raise ValueError(op)


def query_pools(b: Bench, chunks: pa.Table) -> dict:
    seed, size = b.args.seed, b.size
    texts = inputs.text_queries(seed, size["text_queries"])
    rng = inputs.rng_for(seed, "chains")
    ids = sorted(chunks.column("chunk_id").to_pylist())
    chains = rng.sample(ids, min(len(ids), size["chain_queries"]))
    ents = inputs.entity_queries(seed, size["entity_queries"])
    pools = {op: texts for op, _ in OP_MIX}
    pools["document_chain"] = chains
    pools["relationship_search"] = ents
    return pools


def schedule(b: Bench, pools: dict):
    """Endless (op, pool index) draws: the op mix exact per block of 20,
    shuffled; pool entries drawn Zipf-weighted so repeats occur."""
    rng = inputs.rng_for(b.args.seed, "schedule")
    block = [op for op, share in OP_MIX for _ in range(share)]
    weights = {op: inputs.zipf_weights(len(pool)) for op, pool in pools.items()}
    while True:
        rng.shuffle(block)
        for op in block:
            yield op, rng.choices(range(len(pools[op])), weights=weights[op])[0]


def serve_mixed_setup(b: Bench) -> dict:
    pages_dir, tbl, nbytes = b.write_pages("serve", b.size["serve_pages"], 1.0)
    b.record_inputs("serve", tbl, nbytes)
    if b.args.trace:
        b.warm_up()
        return {"pages_dir": pages_dir, "tbl": tbl}
    # no warm-up build: the timed loop runs no build, and the set-up pass
    # below warms every query path
    kg = b.path("serve-kg")
    b.build(pages_dir, kg)
    srv = Server(b, kg)
    pools = query_pools(b, srv.chunks)
    # the set-up pass: every (op, query) once; served results must equal it
    expected = {(op, i): srv.run(op, q) for op, _ in OP_MIX for i, q in enumerate(pools[op])}
    return {"pages_dir": pages_dir, "tbl": tbl, "kg": kg, "srv": srv, "pools": pools,
            "expected": expected}


def serve_mixed(b: Bench, st: dict) -> dict | None:
    if b.args.trace:
        return layer_walk(b, st["pages_dir"], st["tbl"], base_dir=None)
    kg, srv, pools, expected = st["kg"], st["srv"], st["pools"], st["expected"]
    b.setup_gate(b.check_kg(kg, st["tbl"]))
    written_mb = dir_stats(kg)[1] / 2**20
    plan = schedule(b, pools)

    def op(_i):
        name, qi = next(plan)
        return (lambda: srv.run(name, pools[name][qi]),
                lambda res: b.gate(f"served {name}", res == expected[(name, qi)]))

    durs, timed, rss = b.measure(op, min_ops=200, rss_per_op=False)
    return {"durs": durs, "rss": rss, "timed": timed,
            "written_mb": written_mb, "named": "query"}


# ---------------------------------------------------------- traced run

class SchemaHashWarnings(logging.Handler):
    """Counts Ray Data's schema-hash warning lines emitted while the
    ``with`` block runs: in the driver through a handler on the
    ``ray.data`` logger, and in the workers by counting the lines added
    to this session's worker log files."""

    def __init__(self, logs_dir: str):
        super().__init__(logging.WARNING)
        self.logs_dir = logs_dir
        self.driver = 0
        self.workers = 0

    def emit(self, record: logging.LogRecord) -> None:
        if SCHEMA_HASH_WARNING in record.getMessage():
            self.driver += 1

    def worker_lines(self) -> int:
        n = 0
        for name in os.listdir(self.logs_dir):
            if name.startswith(("worker-", "python-core-worker")):
                try:
                    with open(os.path.join(self.logs_dir, name), errors="replace") as f:
                        n += sum(1 for line in f if SCHEMA_HASH_WARNING in line)
                except OSError:
                    pass
        return n

    def __enter__(self) -> "SchemaHashWarnings":
        self._workers0 = self.worker_lines()
        logging.getLogger("ray.data").addHandler(self)
        return self

    def __exit__(self, *exc) -> None:
        logging.getLogger("ray.data").removeHandler(self)
        time.sleep(1.0)  # let workers flush their log lines
        self.workers = self.worker_lines() - self._workers0

    @property
    def count(self) -> int:
        return self.driver + self.workers


def layer_walk(b: Bench, pages_dir: str, pages_tbl: pa.Table, base_dir: str | None) -> None:
    """The traced run: every layer once on this workload's inputs.

    build_kg (untraced) → traced stage-by-stage build (digest-equal) →
    in-process kernels → merge_kg into ``base_dir`` (or the traced copy
    when there is no base) → term index, IVF index and each query op."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.chunk import extract_ngrams
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines import query as Q

    cfg, L = b.cfg, b.layer
    tr = Tracer()
    kg, traced = b.path("kg"), b.path("kg-traced")

    import ray._private.worker as rw

    with SchemaHashWarnings(rw._global_node.get_logs_dir_path()) as hash_warnings:
        with tr.span("pipelines.kg.build_kg"):
            b.build(pages_dir, kg)
    L["log.schema_hash_warnings"] = (hash_warnings.count, "count")
    ok = b.check_kg(kg, pages_tbl)
    files, nbytes = dir_stats(os.path.join(kg, "lineage"))
    L["state.lineage.files"] = (files, "count")
    L["state.lineage.mb"] = (nbytes / 2**20, "MB")

    with tr.span("pipelines.kg.traced_build"):
        traced_build(tr, pages_dir, traced, cfg)
    ok &= b.gate("traced_digest", all(table_digest(kg, t) == table_digest(traced, t)
                                      for t in KG_TABLES))
    L["pipelines.kg.build_kg_s"] = (tr.total("pipelines.kg.build_kg"), "s")
    L["pipelines.kg.traced_build_s"] = (tr.total("pipelines.kg.traced_build"), "s")
    src = next(s for s in tr.spans if s["name"] == "sources.read")
    L["sources.read_s"] = (src["end"] - src["start"], "s")
    L["sources.rows"] = (src["rows"], "count")
    L["sources.mb"] = (src["bytes"] / 2**20, "MB")
    for name in KG_TABLES:
        files, nbytes = dir_stats(os.path.join(traced, name))
        L[f"state.checkpoint.{name}.wall_s"] = (tr.total(f"state.checkpoint.{name}"), "s")
        L[f"state.checkpoint.{name}.rows"] = (read_table(traced, name).num_rows, "count")
        L[f"state.checkpoint.{name}.mb"] = (nbytes / 2**20, "MB")
        L[f"state.checkpoint.{name}.files"] = (files, "count")
    for span, metric in (("stages.link.linked_triples", "stages.link.link_triples_s"),
                         ("stages.link.collect_alias_dict", "stages.link.collect_alias_dict_s"),
                         ("stages.link.entity_nodes", "stages.link.entity_nodes_s"),
                         ("stages.link.edges", "stages.link.edges_s"),
                         ("stages.ngram.term_nodes", "stages.ngram.term_nodes_s")):
        L[metric] = (tr.total(span), "s")

    with tr.span("kernels"):
        kern = run_kernels(pages_tbl, cfg)
    for stage, (self_s, rows) in kern.items():
        L[f"stages.{stage}.self_s"] = (self_s, "s")
        L[f"stages.{stage}.rows_out"] = (rows, "count")
    L["stages.extract.keep_ratio"] = (kern["extract"][1] / max(1, pages_tbl.num_rows), "ratio")
    stage_wall = sum(tr.total(span) for span in MAP_STAGE_SPANS)
    L["pipelines.kg.engine_overhead_s"] = (
        stage_wall - sum(t for t, _ in kern.values()), "s")

    base_dir = base_dir or traced
    merge_publish(base_dir, kg, b.path("merged"), tr)
    ok &= check_merge(b, base_dir, kg, b.path("merged"))
    for name in MERGED:
        L[f"pipelines.kg.merge.{name}_s"] = (tr.total(f"pipelines.kg.merge.{name}"), "s")

    srv = Server(b, kg, tr)
    L["stages.termindex.build_s"] = (tr.total("stages.termindex.build"), "s")
    L["pipelines.similarity.ivf_build_s"] = (tr.total("pipelines.similarity.ivf_build"), "s")
    texts = inputs.text_queries(b.args.seed, b.size["trace_queries"])
    pools = query_pools(b, srv.chunks)
    recall = []
    for q in texts:
        with tr.span("pipelines.query.embed_query"):
            Q.embed_query(q, cfg)
        with tr.span("pipelines.query.vector_topk"):
            exact = Q.vector_topk(srv.vectors, q, K, cfg).take(K)
        with tr.span("pipelines.query.vector_topk_ivf"):
            ivf = srv.ivf_hits(q)
        recall.append(len({h["chunk_id"] for h in exact} & {h["chunk_id"] for h in ivf}) / K)
        with tr.span("pipelines.query.term_search"):
            Q.term_search(srv.terms, q, K, cfg, as_rows=True)
        uni, bi, tri = extract_ngrams(q, cfg.remove_stopwords)
        with tr.span("pipelines.query.TermIndex.matched_local"):
            srv.terms.matched_local(sorted(set(uni + bi + tri)), 2_000_000)
        hits = Q.graph_retrieve(srv.terms, q, K, cfg)
        with tr.span("pipelines.query.with_context"):
            Q.with_context(srv.chunks, hits, cfg.context_size)
    for cid in pools["document_chain"]:
        with tr.span("pipelines.query.get_document_chain"):
            Q.get_document_chain(srv.chunks, cid)
    for ent, kw in pools["relationship_search"]:
        with tr.span("pipelines.query.relationship_search"):
            Q.relationship_search(srv.edges, ent, kw, K)
    for op in ("embed_query", "vector_topk", "vector_topk_ivf", "term_search",
               "TermIndex.matched_local", "with_context", "get_document_chain",
               "relationship_search"):
        L[f"pipelines.query.{op}.p50_ms"] = (
            statistics.median(tr.durations(f"pipelines.query.{op}")) * 1e3, "ms")
    L["pipelines.query.ivf_recall_at_10"] = (statistics.mean(recall), "ratio")

    b.attempted += 1
    if not ok:
        b.failed += 1
    tr.write(b.path("spans.json"))


# ------------------------------------------------------------------ main

# workload: (set-up, measured part, set-ups per untraced run). setup_s is
# the median of the set-ups; build_crawl's set-up is short and mostly cold
# start, so it sets up three times; the others hold a full KG build, are
# steadier and would not fit the run's time budget three times over
WORKLOADS = {"build_crawl": (build_crawl_setup, build_crawl, 3),
             "update_merge": (update_merge_setup, update_merge, 1),
             "serve_mixed": (serve_mixed_setup, serve_mixed, 1)}


def nproc() -> int:
    """What GNU ``nproc`` prints: the CPUs this process may use, or
    OMP_NUM_THREADS when that is set."""
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    return int(omp) if omp.isdigit() and int(omp) > 0 else len(os.sched_getaffinity(0))


def start_ray(work: str) -> None:
    import ray
    import ray.data

    # Ray's socket paths (<temp>/session_<date>_<pid>/sockets/plasma_store)
    # must fit in 107 bytes, which a checkout path cannot promise, so Ray
    # gets a short private directory under /tmp; run.py removes it
    temp = tempfile.mkdtemp(prefix="kgb-", dir="/tmp")
    with open(os.path.join(work, "ray_temp_dirs"), "a") as f:
        f.write(temp + "\n")
    ray.init(address="local", num_cpus=nproc(),
             include_dashboard=False, logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 2**20, _temp_dir=temp)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False


def stop_ray() -> None:
    """Shut Ray down and wait until the processes of its session have
    exited, so the next set-up starts on a quiet host."""
    import ray

    ray.shutdown()
    me = os.getpid()
    deadline = time.monotonic() + 20.0
    while (set(procs.session_members(os.getsid(0))) - {me}
           and time.monotonic() < deadline):
        time.sleep(0.1)


def result_metrics(b: Bench, res: dict, setups: list[float]) -> tuple[dict, dict]:
    """(end-to-end metrics, the same figures under the workload's own
    names)."""
    durs = res["durs"]
    n = len(durs)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (statistics.median(durs) * 1e3, "ms"),
        "op_tail_ms": (tail(durs) * 1e3, "ms"),
        "ops_per_s": (n / res["timed"], "1/s"),
        "peak_rss_mb": (statistics.median(res["rss"]), "MB"),
        "written_mb": (res["written_mb"], "MB"),
    }
    named = {"setup_s": e2e["setup_s"]}
    if res["named"] == "query":
        named["query_p50_ms"] = e2e["op_p50_ms"]
        named["query_p95_ms"] = e2e["op_tail_ms"]
        named["queries_per_s"] = e2e["ops_per_s"]
    else:
        named[res["named"]] = (statistics.median(durs), "s")
    named["peak_rss_mb"] = e2e["peak_rss_mb"]
    named["written_mb"] = e2e["written_mb"]
    named["error_rate"] = (b.failed / max(1, b.attempted), "ratio")
    named["ops"] = (n, "count")
    return e2e, named


def fmt(metrics: dict) -> dict:
    return {k: {"value": v if isinstance(v, int) else float(v), "unit": u}
            for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    import ray

    setup, run, repeats = WORKLOADS[args.workload]
    b = Bench(args)
    setups: list[float] = []
    try:
        for r in range(1 if args.trace else repeats):
            if r:
                stop_ray()
            t0 = time.perf_counter()
            start_ray(args.work)
            st = setup(b)
            setups.append(time.perf_counter() - t0)
        res = run(b, st)
    finally:
        ray.shutdown()

    host = {"nproc": nproc(), "cpus_online": os.cpu_count(), "ray": ray.__version__,
            "pyarrow": pa.__version__, "python": platform.python_version(),
            "scaling": "two-scale figure omitted" + (
                ": workers share one core" if nproc() == 1 else "")}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "toy": args.toy, "host": host, "inputs": b.inputs,
              "setups_s": setups, "failures": b.failures}
    if args.trace:
        metrics = b.layer
    else:
        metrics, named = result_metrics(b, res, setups)
        report["metrics"] = fmt(named)
    print("KGBENCH report " + json.dumps(report), flush=True)
    print("KGBENCH result " + json.dumps({
        "correct": b.failed == 0 and not b.failures, "attempted": b.attempted,
        "failed": b.failed, "metrics": fmt(metrics)}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Interrupted as e:
        print(f"interrupted: {e}", file=sys.stderr)
        sys.exit(130)
