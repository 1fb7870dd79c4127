"""Graph algorithms over edge-list Datasets — the analysis layer on top
of the KG the engine materializes (entity importance, communities,
traversal, degree structure).  The reference implementation stops at
writing edges (graphrag/core/triplets.py); these are beyond-reference
operators.

Two shapes.  The iterative solvers (PageRank, label propagation, HITS,
BFS, shortest paths, link scores, clustering coefficients, betweenness,
harmonic centrality, k-truss) each have ONE vectorized kernel over the
whole edge list: one Ray task (:func:`_one_task`), or for the sampled
centralities one CSR shared by a few source-slice tasks.  The edge list
must fit one worker — at most ``config.LOCAL_EDGES_THRESHOLD`` edges,
read at call time — and a larger one raises ``ValueError``.  The
other operators (degree counts, triangle count, k-core peeling,
reciprocity, assortativity, co-occurrence PMI, negative sampling, walk
corpora) are keyed ``grouped_apply`` exchanges with no size cap.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .. import config
from ..functions.rounding import sql_round
from ..stages.shuffle import combine, grouped_apply


def out_degrees(edges_ds, src_col: str = "src", dst_col: str = "dst"):
    """(node, out_degree) — per-batch count combiner, one exchange."""

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by([src_col]).aggregate([([], "count_all")])
        return g.rename_columns([src_col, "out_degree"])

    def final(b: pa.Table) -> pa.Table:
        g = b.group_by([src_col]).aggregate([("out_degree", "sum")])
        return pa.table({
            src_col: g.column(src_col),
            "out_degree": pc.cast(g.column("out_degree_sum"), pa.int64()),
        })

    slim = edges_ds.map_batches(lambda b: b.select([src_col]),
                                batch_format="pyarrow")
    return grouped_apply(combine(slim, partial),
                         [src_col], final,
                         batch_format="pyarrow")


# ---- the one-task solver contract ----------------------------------------
#
# Each iterative solver runs its vectorized kernel over the WHOLE edge
# list in one Ray task. Every caller sits far below the cap (the
# 250 k-page design-scale KG has ~1.45 M linked triples), and there one
# task beats distributed rounds — McSherry et al., "Scalability! But at
# what COST?" (HotOS 2015); in this engine 5 distributed rounds on a
# 74 k-edge KG (sf0.1) paid 5.3-10.2 s of exchange latency alone. Above
# the cap the solvers raise instead of degrading.


def _edge_blocks(edges_ds, solver: str) -> list:
    """Arrow block refs of the WHOLE edge list, or ``ValueError`` when it
    has more than ``config.LOCAL_EDGES_THRESHOLD`` edges (read at call
    time). ONE bounded pass: ``limit(cap+1)`` early-stops on big inputs,
    and when it did not truncate, its blocks ARE the edge list."""
    cap = config.LOCAL_EDGES_THRESHOLD
    capped = edges_ds.limit(cap + 1).materialize()
    if capped.count() > cap:
        raise ValueError(
            f"{solver} solves the edge list in one worker: at most {cap} "
            "edges (config.LOCAL_EDGES_THRESHOLD)")
    return capped.to_arrow_refs()


def _edge_table(blocks, cols: list[str]) -> pa.Table:
    """``cols`` of the edge blocks as one table. With no rows it keeps
    the column types of a block that carries them (null-typed when none
    does), so an empty graph's output is typed like a non-empty one's."""
    typed = [b.select(cols) for b in blocks
             if set(cols) <= set(b.column_names)]
    full = [b for b in typed if b.num_rows]
    if full:
        return pa.concat_tables(full)
    return typed[0] if typed else pa.schema(
        [(c, pa.null()) for c in cols]).empty_table()


def _one_task(solver: str, edges_ds, cols: list[str], kernel,
              seeds_ds=None, seed_col: str = "node"):
    """``kernel(edge_table)`` — or ``kernel(edge_table, seed_values)``
    given ``seeds_ds`` — run in ONE Ray task over the whole edge list
    (:func:`_edge_blocks`' cap applies), returned as a Dataset."""
    import ray
    import ray.data

    refs = _edge_blocks(edges_ds, solver)
    with_seeds = seeds_ds is not None
    seed_refs = (seeds_ds.select_columns([seed_col]).materialize()
                 .to_arrow_refs() if with_seeds else [])

    @ray.remote
    def solve(n_edge_blocks, *blocks):
        tbl = _edge_table(blocks[:n_edge_blocks], cols)
        if not with_seeds:
            return kernel(tbl)
        seeds = [v for b in blocks[n_edge_blocks:] if b.num_rows
                 for v in b.column(seed_col).to_pylist()]
        return kernel(tbl, seeds)

    return ray.data.from_arrow(
        ray.get(solve.remote(len(refs), *refs, *seed_refs)))


def _node_array(nodes: np.ndarray, tbl: pa.Table, col: str) -> pa.Array:
    """Node values as Arrow; an empty graph keeps ``col``'s type (an
    empty object array would infer ``null``)."""
    return (pa.array(nodes) if len(nodes)
            else pa.array([], tbl.schema.field(col).type))


def _factorize_edges(tbl: pa.Table, src_col: str, dst_col: str,
                     weight_col: str | None):
    """(sorted unique node values, src idx, dst idx, weights)."""
    src = tbl.column(src_col).to_numpy(zero_copy_only=False)
    dst = tbl.column(dst_col).to_numpy(zero_copy_only=False)
    w = (pc.cast(tbl.column(weight_col), pa.float64()).to_numpy(
        zero_copy_only=False)
        if weight_col else np.ones(len(src), np.float64))
    nodes, codes = np.unique(np.concatenate([src, dst]),
                             return_inverse=True)
    return nodes, codes[:len(src)], codes[len(src):], w


def _pagerank_local(tbl: pa.Table, src_col: str, dst_col: str,
                    weight_col: str | None, iters: int, damping: float,
                    rank_col: str, ndigits: int, seeds) -> pa.Table:
    """The :func:`pagerank` / PPR kernel: r0 = s, then ``iters``
    scatter/gather steps ``r = base + d·Σ share·r``, vectorized with
    np.add.at."""
    nodes, s_idx, d_idx, w = _factorize_edges(tbl, src_col, dst_col,
                                              weight_col)
    n = len(nodes)
    sumw = np.zeros(n)
    np.add.at(sumw, s_idx, w)
    share = w / sumw[s_idx]
    if seeds is None:
        svec = np.ones(n)
        base = np.full(n, 1.0 - damping)
    else:
        svec = np.asarray(pd.Series(nodes).isin(seeds), np.float64)
        base = (1.0 - damping) * svec
    r = base + damping * svec
    for _ in range(iters):
        c = np.zeros(n)
        np.add.at(c, d_idx, share * r[s_idx])
        r = base + damping * c
    return pa.table({
        "node": _node_array(nodes, tbl, src_col),
        rank_col: pa.array(sql_round(r, ndigits), pa.float64()),
    })


def _lpa_local(tbl: pa.Table, src_col: str, dst_col: str,
               weight_col: str | None, iters: int, directed: bool,
               label_col: str) -> pa.Table:
    """The :func:`label_propagation` kernel: synchronous updates, argmax
    summed incoming weight, ties to the smaller label value; a weight-0
    self message keeps isolated nodes alive. ``nodes`` from np.unique is
    SORTED, so comparing label indices == comparing label values."""
    nodes, s_idx, d_idx, w = _factorize_edges(tbl, src_col, dst_col,
                                              weight_col)
    n = np.int64(len(nodes))
    if not directed:
        s_idx, d_idx = (np.concatenate([s_idx, d_idx]),
                        np.concatenate([d_idx, s_idx]))
        w = np.concatenate([w, w])
    self_idx = np.arange(n)
    lab = self_idx.copy()
    for _ in range(iters):
        msg_dst = np.concatenate([d_idx, self_idx])
        msg_lab = np.concatenate([lab[s_idx], lab])
        msg_w = np.concatenate([w, np.zeros(int(n))])
        key = msg_dst.astype(np.int64) * n + msg_lab
        uk, inv = np.unique(key, return_inverse=True)
        sums = np.zeros(len(uk))
        np.add.at(sums, inv, msg_w)
        g_dst, g_lab = uk // n, uk % n
        order = np.lexsort((g_lab, -sums, g_dst))
        gd = g_dst[order]
        first = np.ones(len(gd), bool)
        first[1:] = gd[1:] != gd[:-1]
        lab = lab.copy()
        lab[gd[first]] = g_lab[order][first]
    return pa.table({
        "node": _node_array(nodes, tbl, src_col),
        label_col: _node_array(nodes[lab], tbl, src_col),
    })


def pagerank(edges_ds, src_col: str = "src", dst_col: str = "dst",
             weight_col: str | None = None,
             iters: int = 5, damping: float = 0.85,
             rank_col: str = "pr", ndigits: int = 6,
             seeds: frozenset | set | None = None):
    """Fixed-iteration PageRank (the standard simplified recurrence
    ``r(v) = (1-d) + d·Σ_{u→v} r(u)·share(u→v)``, ranks initialized to
    1.0, dangling mass dropped — Page et al. 1999's original per-node
    form).  A FIXED iteration count keeps the result deterministic and
    SQL-oracle-able (the oracle unrolls the same ``iters`` joins).
    ``share(u→v)`` is ``1/outdeg(u)``, or ``w(u→v)/Σ_w(u→·)`` with
    ``weight_col`` — the natural mode for KG edges whose weight is
    mention count.

    Personalized PageRank (``seeds``): with a seed set, the teleport
    mass goes only to seeds — ``r(v) = (1-d)·s(v) + d·Σ`` with
    ``s(v) = 1`` for seeds else 0, initial rank = s — the GraphRAG
    retrieval-expansion variant (rank entities by proximity to the
    query's seed entities).

    Node ids may be any hashable Arrow type (int ids, entity-name
    strings).  Solved by :func:`_pagerank_local` in one Ray task
    (:func:`_one_task`; at most ``config.LOCAL_EDGES_THRESHOLD`` edges).
    """
    cols = [src_col, dst_col] + ([weight_col] if weight_col else [])
    return _one_task("pagerank", edges_ds, cols, lambda t: _pagerank_local(
        t, src_col, dst_col, weight_col, iters, damping, rank_col,
        ndigits, seeds))


def label_propagation(edges_ds, src_col: str = "src",
                      dst_col: str = "dst",
                      weight_col: str | None = None,
                      iters: int = 5, directed: bool = False,
                      label_col: str = "community"):
    """Community detection by synchronous label propagation (Raghavan
    et al. 2007): every node starts in its own community; each round it
    adopts the incoming-neighbor label with the largest total edge
    weight (ties toward the smaller label; a node with no neighbors
    keeps its label).  A FIXED iteration count with the deterministic
    tie-break makes the result reproducible — the classic LPA caveat
    (label oscillation on bipartite structure) is bounded by the
    iteration cap rather than a convergence loop.  By default edges
    count both ways (``directed=False`` — communities are about
    adjacency, not direction).

    Solved by :func:`_lpa_local` in one Ray task (same contract as
    :func:`pagerank`)."""
    cols = [src_col, dst_col] + ([weight_col] if weight_col else [])
    return _one_task("label_propagation", edges_ds, cols,
                     lambda t: _lpa_local(t, src_col, dst_col, weight_col,
                                          iters, directed, label_col))


# ---- shared undirected-graph plumbing (triangle_count, k_core) ----------

_KIND = "__kind"


def canonical_edges(edges_ds, src_col: str, dst_col: str):
    """Distinct canonical (a < b) undirected edges — reversed
    duplicates collapse, self-loops drop; per-batch combiner dedup
    then one exchange."""

    def canon(b: pa.Table) -> pa.Table:
        a = pc.cast(b.column(src_col), pa.int64())
        c = pc.cast(b.column(dst_col), pa.int64())
        lo = pc.min_element_wise(a, c)
        hi = pc.max_element_wise(a, c)
        t = pa.table({"a": lo, "b": hi}).filter(pc.not_equal(lo, hi))
        return t.group_by(["a", "b"]).aggregate([]).select(["a", "b"])

    def dedup(t: pa.Table) -> pa.Table:
        return t.group_by(["a", "b"]).aggregate([]).select(["a", "b"])

    return grouped_apply(
        combine(edges_ds, canon),
        ["a", "b"], dedup,
        batch_format="pyarrow",
    )


def edge_degrees(edges):
    """(node, deg) over a canonical edge list — per-batch count
    combiner, one exchange."""

    def deg_partial(b: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays([
            b.column("a").combine_chunks(), b.column("b").combine_chunks()
        ])
        t = pa.table({"node": nodes}).group_by(["node"]).aggregate(
            [([], "count_all")]
        )
        return t.rename_columns(["node", "deg"])

    def deg_sum(t: pa.Table) -> pa.Table:
        g = t.group_by(["node"]).aggregate([("deg", "sum")])
        return pa.table({
            "node": g.column("node"),
            "deg": pc.cast(g.column("deg_sum"), pa.int64()),
        })

    return grouped_apply(
        combine(edges, deg_partial),
        ["node"], deg_sum,
        batch_format="pyarrow",
    )


def attach_degree(edge_tbl, degrees, key_name: str, deg_out: str):
    """Join (node, deg) onto one endpoint of an (a, b[, da]) edge table
    via a co-partitioned union exchange — degrees are O(V) rows and
    never broadcast."""
    usch = pa.schema([
        pa.field(_KIND, pa.int8()), pa.field("k", pa.int64()),
        pa.field("a", pa.int64()), pa.field("b", pa.int64()),
        pa.field("da", pa.int64()), pa.field("deg", pa.int64()),
    ])

    def tag_edge(b: pa.Table) -> pa.Table:
        da = (b.column("da") if "da" in b.column_names
              else pa.nulls(b.num_rows, pa.int64()))
        return pa.table({
            _KIND: pa.array(np.zeros(b.num_rows, np.int8)),
            "k": b.column(key_name), "a": b.column("a"),
            "b": b.column("b"), "da": da,
            "deg": pa.nulls(b.num_rows, pa.int64()),
        }, schema=usch)

    def tag_deg(b: pa.Table) -> pa.Table:
        z = pa.nulls(b.num_rows, pa.int64())
        return pa.table({
            _KIND: pa.array(np.ones(b.num_rows, np.int8)),
            "k": b.column("node"), "a": z, "b": z, "da": z,
            "deg": b.column("deg"),
        }, schema=usch)

    def join(t: pa.Table) -> pa.Table:
        pdf = t.to_pandas()
        dd = pdf[pdf[_KIND] == 1][["k", "deg"]]
        ee = pdf[pdf[_KIND] == 0].drop(columns=[_KIND, "deg"])
        if deg_out in ee.columns:  # drop the null placeholder slot
            ee = ee.drop(columns=[deg_out])
        m = ee.merge(dd, on="k", how="inner").drop(columns=["k"])
        m = m.rename(columns={"deg": deg_out})
        return pa.Table.from_pandas(m, preserve_index=False)

    return grouped_apply(
        edge_tbl.map_batches(tag_edge, batch_format="pyarrow").union(
            degrees.map_batches(tag_deg, batch_format="pyarrow")
        ),
        ["k"], join,
        batch_format="pyarrow",
    )


def triangle_count(edges_ds, src_col: str = "src", dst_col: str = "dst"):
    """Exact global triangle count of the UNDIRECTED graph (duplicate,
    reversed and self-loop edges tolerated) — the compact-forward /
    degree-orientation algorithm: every edge is directed from its
    lower-(degree, id) endpoint, so each triangle has exactly one
    acyclic orientation and is counted once, and every node's oriented
    out-degree is O(√m) — the wedge explosion that sinks the naive
    node-iterator on skewed graphs is structurally bounded (Chiba-
    Nishizeki / Latapy).

    Five bounded exchanges, all via ``grouped_apply`` (no driver-side
    graph state): canonical-edge dedup → endpoint-degree count → two
    degree⋈edge co-partition joins (degrees are O(V) rows, never
    broadcast) → wedge generation grouped by source → wedge⋈edge
    closure keyed on the (ordered) wedge endpoints.  Returns a 1-row
    Dataset ``(n_triangles)``."""
    # consumed three times: degrees + join + closure
    edges = canonical_edges(edges_ds, src_col, dst_col).materialize()
    degrees = edge_degrees(edges)
    with_da = attach_degree(edges, degrees, "a", "da")
    with_db = attach_degree(with_da, degrees, "b", "db")

    # ---- orient: from lower (deg, id) endpoint to higher ----
    def orient(b: pa.Table) -> pa.Table:
        pdf = b.to_pandas()
        a_first = (pdf["da"].to_numpy() < pdf["db"].to_numpy()) | (
            (pdf["da"].to_numpy() == pdf["db"].to_numpy())
            & (pdf["a"].to_numpy() < pdf["b"].to_numpy())
        )
        u = np.where(a_first, pdf["a"], pdf["b"])
        v = np.where(a_first, pdf["b"], pdf["a"])
        du = np.where(a_first, pdf["da"], pdf["db"])
        dv = np.where(a_first, pdf["db"], pdf["da"])
        return pa.table({
            "u": pa.array(u, pa.int64()), "v": pa.array(v, pa.int64()),
            "du": pa.array(du, pa.int64()), "dv": pa.array(dv, pa.int64()),
        })

    oriented = with_db.map_batches(
        orient, batch_format="pyarrow"
    ).materialize()  # consumed twice: wedges + closure

    # ---- wedges: pairs of each source's out-neighbors, ordered by the
    # same (deg, id) total order so the closing edge matches exactly ----
    def wedges(t: pa.Table) -> pa.Table:
        pdf = t.to_pandas().sort_values(["u", "dv", "v"], kind="stable")
        xs, ys = [], []
        for _, g in pdf.groupby("u", sort=False):
            if len(g) < 2:
                continue
            vs = g["v"].to_numpy()
            i, j = np.triu_indices(len(vs), k=1)
            xs.append(vs[i])
            ys.append(vs[j])
        if not xs:
            return pa.table({"x": pa.array([], pa.int64()),
                             "y": pa.array([], pa.int64())})
        return pa.table({"x": pa.array(np.concatenate(xs)),
                         "y": pa.array(np.concatenate(ys))})

    wedge_ds = grouped_apply(oriented, ["u"], wedges,
                             batch_format="pyarrow")

    # ---- closure: wedge (x, y) closes iff oriented edge x→y exists ----
    usch = pa.schema([
        pa.field(_KIND, pa.int8()), pa.field("x", pa.int64()),
        pa.field("y", pa.int64()),
    ])

    def tag_w(b: pa.Table) -> pa.Table:
        return pa.table({
            _KIND: pa.array(np.zeros(b.num_rows, np.int8)),
            "x": b.column("x"), "y": b.column("y"),
        }, schema=usch)

    def tag_e(b: pa.Table) -> pa.Table:
        return pa.table({
            _KIND: pa.array(np.ones(b.num_rows, np.int8)),
            "x": b.column("u"), "y": b.column("v"),
        }, schema=usch)

    def close(t: pa.Table) -> pa.Table:
        pdf = t.to_pandas()
        ee = pdf[pdf[_KIND] == 1][["x", "y"]].drop_duplicates()
        ww = pdf[pdf[_KIND] == 0][["x", "y"]]
        n = len(ww.merge(ee, on=["x", "y"], how="inner"))
        return pa.table({"part_triangles": pa.array([n], pa.int64())})

    closed = grouped_apply(
        wedge_ds.map_batches(tag_w, batch_format="pyarrow").union(
            oriented.map_batches(tag_e, batch_format="pyarrow")
        ),
        ["x", "y"], close,
        batch_format="pyarrow",
    )

    from ray.data.aggregate import Sum

    agg = closed.aggregate(Sum("part_triangles"))
    import ray.data as _rd

    return _rd.from_arrow(pa.table({
        "n_triangles": pa.array(
            [int(agg["sum(part_triangles)"] or 0)], pa.int64()
        )
    }))


def k_core(edges_ds, k: int, src_col: str = "src", dst_col: str = "dst",
           max_rounds: int = 50):
    """The ``k``-core of the undirected graph — the maximal subgraph in
    which every node has degree ≥ k — by distributed iterative peeling:
    each round recomputes degrees over the SURVIVING edge list, joins
    them onto both endpoints (the :func:`attach_degree` co-partition
    exchange — no broadcast of removed-node sets), and drops every edge
    with an under-degree endpoint; the fixpoint is reached when the
    edge count stops changing (the driver holds one integer per round).
    Rounds are bounded by the peeling depth, not the graph size.
    Returns (node, deg) for the k-core's nodes with their within-core
    degrees; empty (but schema-stable) when no k-core exists."""
    import ray.data

    edges = canonical_edges(edges_ds, src_col, dst_col).materialize()
    prev = edges.count()
    seed = ray.data.from_arrow(pa.table({
        "node": pa.array([], pa.int64()),
        "deg": pa.array([], pa.int64()),
    }))
    if prev == 0:
        return seed

    for _ in range(max_rounds):
        degrees = edge_degrees(edges)
        with_da = attach_degree(edges, degrees, "a", "da")
        with_db = attach_degree(with_da, degrees, "b", "db")

        def keep(b: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.greater_equal(b.column("da"), k),
                pc.greater_equal(b.column("db"), k),
            )
            return b.filter(m).select(["a", "b"])

        edges = with_db.map_batches(
            keep, batch_format="pyarrow"
        ).materialize()
        n = edges.count()
        if n == prev or n == 0:
            break
        prev = n

    if edges.count() == 0:
        return seed
    return edge_degrees(edges).union(seed)


def degree_histogram(edges_ds, src_col: str = "src",
                     dst_col: str = "dst"):
    """Degree-distribution report — ``(degree, n_nodes)`` over TOTAL
    degree (out + in, parallel edges counted): the first structural
    summary anyone asks of a materialized graph (power-law check, hub
    census, join-skew forecast for downstream exchanges).

    Scale shape: per-batch count combiner over the concatenated
    endpoint column → ONE node-keyed exchange summing per-node counts
    → a second count combiner over degrees → one tiny degree-keyed
    exchange.  Rows on the wire: O(distinct nodes per map task), then
    O(distinct degrees) — the edge payload never reships."""

    def endpoint_counts(b: pa.Table) -> pa.Table:
        nodes = pa.chunked_array([
            pc.cast(b.column(src_col), pa.int64()).combine_chunks(),
            pc.cast(b.column(dst_col), pa.int64()).combine_chunks(),
        ])
        g = pa.table({"node": nodes}).group_by(["node"]).aggregate(
            [([], "count_all")])
        return g.rename_columns(["node", "c"])

    def node_totals(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["node"]).aggregate([("c", "sum")])
        return pa.table({
            "degree": g.column("c_sum").cast(pa.int64()),
        })

    per_node = grouped_apply(
        combine(edges_ds, endpoint_counts),
        ["node"], node_totals,
    )

    def degree_counts(b: pa.Table) -> pa.Table:
        g = b.group_by(["degree"]).aggregate([([], "count_all")])
        return g.rename_columns(["degree", "n"])

    def hist(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["degree"]).aggregate([("n", "sum")])
        return pa.table({
            "degree": g.column("degree"),
            "n_nodes": g.column("n_sum").cast(pa.int64()),
        })

    return grouped_apply(
        combine(per_node, degree_counts),
        ["degree"], hist,
    )


def _walk_ids(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """Integer (or all-null) node ids as int64; any other column passes
    through for :func:`_walk_edges` to reject."""
    if pa.types.is_integer(col.type) or pa.types.is_null(col.type):
        return pc.cast(col, pa.int64())
    return col


def _walk_edges(edges_ds, undip, walker: str, cols: list[str]):
    """``edges_ds`` through ``undip``, materialized, or ``ValueError``
    naming the first of ``cols`` (src, dst) that is not an integer node
    id column: the walk kernels hash and compare ids as int64."""
    edges = edges_ds.map_batches(undip, batch_format="pyarrow").materialize()
    schema = edges.schema()  # None for an empty edge list
    types = dict(zip(schema.names, schema.types)) if schema else {}
    for col, key in zip(cols, ("key", "dst")):
        if key in types and types[key] != pa.int64():
            raise ValueError(f"{walker} needs integer node ids: column "
                             f"{col!r} is {types[key]}")
    return edges


def random_walks(edges_ds, walk_len: int = 4, src_col: str = "src",
                 dst_col: str = "dst", mult_a: int = 2654435761,
                 mult_b: int = 40503):
    """DeepWalk-style WALK CORPUS over an edge list — the sampling
    step graph-embedding pipelines feed to a skip-gram trainer
    (Perozzi et al. 2014) — with a DETERMINISTIC next-hop rule so the
    corpus is reproducible and SQL-replayable: from node u at step s
    the walk moves to neighbor ``(u·A + s·B) mod deg(u)`` of u's
    distinct, dst-sorted adjacency (a Weyl-style mixed congruential
    pick; no RNG state, stable across runs and partitionings).  One
    walk starts at every distinct source node (walk_id = start node);
    a walk reaching a node with no out-edges stops early.

    Output: visited rows ``(walk_id, step, node)``, step 0 = start.

    Scale shape (100 TB): the distinct edge list materializes ONCE;
    each of the ``walk_len − 1`` steps is ONE co-partitioned union
    exchange (frontier rows ride with the adjacency rows of their
    current node — the pagerank-round pattern), and per-step state is
    one row per live walk, never the visited prefix (the corpus
    accumulates as a lazy union of per-step Datasets).  Hub nodes
    concentrate frontier rows on one partition but the per-row work
    is a vectorized two-key merge."""

    def undip(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": _walk_ids(batch.column(src_col)),
            "dst": _walk_ids(batch.column(dst_col)),
            "walk": pa.array([-1] * len(batch), pa.int64()),
            "step": pa.array([-1] * len(batch), pa.int64()),
        })

    edges = _walk_edges(edges_ds, undip, "random_walks", [src_col, dst_col])

    def starts(batch: pa.Table) -> pa.Table:
        u = pc.unique(batch.column("key"))
        return pa.table({
            "walk_id": u, "step": pa.array([0] * len(u), pa.int64()),
            "node": u,
        })

    # per-batch unique then one exchange dedups start nodes exactly
    def dedup_starts(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.drop_duplicates("walk_id")

    frontier = grouped_apply(
        combine(edges, starts),
        ["walk_id"], dedup_starts,
        batch_format="pandas",
    ).materialize()
    visited = [frontier]

    for step in range(walk_len - 1):
        def fr_rows(batch: pa.Table, _s=step) -> pa.Table:
            return pa.table({
                "key": pc.cast(batch.column("node"), pa.int64()),
                "dst": pa.array([-1] * len(batch), pa.int64()),
                "walk": pc.cast(batch.column("walk_id"), pa.int64()),
                "step": pc.cast(batch.column("step"), pa.int64()),
            })

        unioned = edges.union(
            frontier.map_batches(fr_rows, batch_format="pyarrow"))

        def hop(pdf: pd.DataFrame, _s=step) -> pd.DataFrame:
            adj = (pdf[pdf["walk"] < 0][["key", "dst"]]
                   .drop_duplicates()
                   .sort_values(["key", "dst"], kind="mergesort"))
            adj["i"] = adj.groupby("key").cumcount()
            deg = (adj.groupby("key").size().rename("deg")
                   .reset_index())
            fr = pdf[pdf["walk"] >= 0][["key", "walk", "step"]]
            m = fr.merge(deg, on="key", how="inner")
            m["i"] = (m["key"].to_numpy(np.int64) * mult_a
                      + _s * mult_b) % m["deg"].to_numpy(np.int64)
            nxt = m.merge(adj, on=["key", "i"], how="inner")
            return pd.DataFrame({
                "walk_id": nxt["walk"].to_numpy(np.int64),
                "step": nxt["step"].to_numpy(np.int64) + 1,
                "node": nxt["dst"].to_numpy(np.int64),
            })

        frontier = grouped_apply(
            unioned, ["key"], hop,
            batch_format="pandas",
        ).materialize()
        visited.append(frontier)

    out = visited[0]
    for v in visited[1:]:
        out = out.union(v)
    return out


# ---------------------------------------------------------------------------
# HITS (hubs & authorities)
# ---------------------------------------------------------------------------

def _hits_local(tbl: pa.Table, src_col: str, dst_col: str,
                iters: int, ndigits: int,
                hub_col: str, auth_col: str) -> pa.Table:
    """The :func:`hits` kernel (a ← Σ_in h, L1-normalize; h ← Σ_out a,
    L1-normalize), vectorized with np.add.at."""
    nodes, s_idx, d_idx, _ = _factorize_edges(tbl, src_col, dst_col,
                                              None)
    n = len(nodes)
    h = np.ones(n)
    a = np.zeros(n)
    for _ in range(iters):
        a = np.zeros(n)
        np.add.at(a, d_idx, h[s_idx])
        a /= a.sum() or 1.0
        h = np.zeros(n)
        np.add.at(h, s_idx, a[d_idx])
        h /= h.sum() or 1.0
    return pa.table({
        "node": _node_array(nodes, tbl, src_col),
        auth_col: pa.array(sql_round(a, ndigits), pa.float64()),
        hub_col: pa.array(sql_round(h, ndigits), pa.float64()),
    })


def hits(edges_ds, src_col: str = "src", dst_col: str = "dst",
         iters: int = 5, ndigits: int = 6,
         hub_col: str = "hub", auth_col: str = "authority"):
    """Fixed-iteration HITS (Kleinberg 1999): per iteration
    ``a(v) = Σ_{u→v} h(u)`` then L1-normalize, ``h(u) = Σ_{u→v} a(v)``
    then L1-normalize; ``h`` initialized to 1.  A FIXED iteration count
    keeps the result deterministic and SQL-oracle-able (the oracle
    unrolls the same ``iters`` join pairs).  Complements
    :func:`pagerank` on the host link graph — hubs are directories /
    link farms, authorities are heavily-cited content — the classic
    web-graph pair.  ``iters`` must be >= 1: with none, no score is
    ever computed.

    Solved by :func:`_hits_local` in one Ray task (same contract as
    :func:`pagerank`).
    """
    if iters < 1:
        raise ValueError("hits: iters must be >= 1")
    return _one_task("hits", edges_ds, [src_col, dst_col],
                     lambda t: _hits_local(t, src_col, dst_col, iters,
                                           ndigits, hub_col, auth_col))


# ---------------------------------------------------------------------------
# open-vocabulary co-occurrence PMI (co-mention graph construction)
# ---------------------------------------------------------------------------

_CO_PAIR, _CO_MARG, _CO_GROUPS = np.int8(0), np.int8(1), np.int8(2)


def cooccurrence_pmi(ds, group_col: str, item_col: str,
                     min_count: int = 1, max_items_per_group: int = 256,
                     ndigits: int = 6):
    """Document-level co-occurrence PMI over an OPEN item vocabulary:
    ``pmi(a,b) = log2(N · n_ab / (n_a · n_b))`` where ``n_ab`` counts
    groups containing both items (presence, not frequency), ``n_x``
    groups containing ``x``, and ``N`` groups with ≥1 item.  The
    co-mention edge builder for entity graphs — the output (a, b,
    n_ab, pmi) IS an edge list :func:`pagerank` / :func:`hits` /
    :func:`label_propagation` consume.

    The fixed-vocabulary twin (``textstats.token_pmi``) broadcasts a
    |V|-bit presence matrix and exchanges one |V|×|V| sufficient
    statistic; THIS variant is for item universes too large to
    broadcast (canonical entities at 10^12-document scale):

    Scale shape: exchange 1 on the group key — a partition holds each
    of its groups completely, so (group, item) dedupes globally, the
    per-group item list caps at ``max_items_per_group``
    (lexicographic head, deterministic), and pairs generate VECTORIZED
    per distinct group size (one ``np.triu_indices`` per size, fancy-
    indexed across all groups of that size at once — never a Python
    loop over groups).  Pair partials pre-aggregate per partition
    before exchange 2 on (a, b); item marginals pre-aggregate before
    exchange 3 on the item; N folds from one count row per partition.
    Marginals then attach by two co-partitioned joins (pairs never
    collect; the marginal table never broadcasts).  5 exchanges total,
    none carrying more than pair/marginal aggregates.

    Per-batch combiner: batches dedupe (group, item) before exchange 1
    so at most one row per (batch, group, item) ships."""
    from .relational import inner_join

    def distinct_map(b: pa.Table) -> pa.Table:
        t = b.select([group_col, item_col])
        if t.num_rows == 0:
            return t  # group_by on empty would drop the schema
        return t.group_by([group_col, item_col]).aggregate([])

    deduped = combine(ds, distinct_map)

    def per_group(tbl: pa.Table) -> pa.Table:
        # explicit Arrow output types even on EMPTY partitions — a
        # min_count-filtered empty pandas block would otherwise infer
        # null-typed columns and poison the downstream join's union
        # schema
        it_type = tbl.schema.field(item_col).type
        t = tbl.group_by([group_col, item_col]).aggregate([])
        t = t.sort_by([(group_col, "ascending"),
                       (item_col, "ascending")])
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        items = t.column(item_col).to_numpy(zero_copy_only=False)
        starts = np.r_[0, np.flatnonzero(g[1:] != g[:-1]) + 1]
        sizes = np.diff(np.r_[starts, len(g)])
        # cap: keep each group's lexicographic head
        rank = np.arange(len(g)) - np.repeat(starts, sizes)
        keep = rank < max_items_per_group
        if not keep.all():
            g, items = g[keep], items[keep]
            starts = np.r_[0, np.flatnonzero(g[1:] != g[:-1]) + 1]
            sizes = np.diff(np.r_[starts, len(g)])
        pa_, pb_ = [], []
        for size in np.unique(sizes):
            if size < 2:
                continue
            sel = starts[sizes == size]
            ii, jj = np.triu_indices(int(size), 1)
            pa_.append(items[(sel[:, None] + ii[None, :]).ravel()])
            pb_.append(items[(sel[:, None] + jj[None, :]).ravel()])
        if pa_:
            p = (pd.DataFrame({"a": np.concatenate(pa_),
                               "b": np.concatenate(pb_)})
                 .groupby(["a", "b"], sort=False).size()
                 .reset_index(name="n"))
            p_a, p_b = p["a"].to_numpy(), p["b"].to_numpy()
            p_n = p["n"].to_numpy(np.int64)
        else:
            p_a = p_b = items[:0]
            p_n = np.array([], np.int64)
        m_a, m_n = (np.unique(items, return_counts=True)
                    if len(items) else (items[:0],
                                        np.array([], np.int64)))
        n_groups = int(len(starts)) if len(g) else 0
        head = items[:1] if n_groups else items[:0]
        head_n = (np.array([n_groups], np.int64) if n_groups
                  else np.array([], np.int64))
        a_all = np.concatenate([p_a, m_a, head])
        b_all = np.concatenate([p_b, m_a, head])
        n_all = np.concatenate([p_n, m_n.astype(np.int64), head_n])
        kind = np.concatenate([
            np.full(len(p_n), _CO_PAIR, np.int8),
            np.full(len(m_n), _CO_MARG, np.int8),
            np.full(len(head_n), _CO_GROUPS, np.int8),
        ])
        return pa.table({
            "a": pa.array(a_all, type=it_type),
            "b": pa.array(b_all, type=it_type),
            "n": pa.array(n_all, pa.int64()),
            "kind": pa.array(kind, pa.int8()),
        })

    tagged = grouped_apply(deduped, [group_col], per_group,
                           batch_format="pyarrow").materialize()

    def of_kind(kind: int):
        return tagged.map_batches(
            lambda b, _k=kind: b.filter(
                pc.equal(b.column("kind"), _k)).drop_columns(["kind"]),
            batch_format="pyarrow")

    n_total = int(of_kind(int(_CO_GROUPS)).sum("n") or 0) or 1

    def sum_pairs(t: pa.Table) -> pa.Table:
        gb = t.group_by(["a", "b"]).aggregate([("n", "sum")])
        out = pa.table({
            "a": gb.column("a"), "b": gb.column("b"),
            "n_ab": pc.cast(gb.column("n_sum"), pa.int64()),
        })
        return out.filter(
            pc.greater_equal(out.column("n_ab"), min_count))

    pairs = grouped_apply(of_kind(int(_CO_PAIR)), ["a", "b"], sum_pairs,
                          batch_format="pyarrow")

    # two named copies of the marginal exchange (item-cardinality
    # aggregates — cheap), so the join chain needs no rename step in
    # between: schema inference over an intermediate lambda fails on a
    # legitimately-empty pair set
    def marg_named(count_col: str):
        def sum_marg(t: pa.Table) -> pa.Table:
            gb = t.group_by(["a"]).aggregate([("n", "sum")])
            return pa.table({
                "item": gb.column("a"),
                count_col: pc.cast(gb.column("n_sum"), pa.int64()),
            })

        return grouped_apply(
            of_kind(int(_CO_MARG)).map_batches(
                lambda b: b.drop_columns(["b"]),
                batch_format="pyarrow"),
            ["a"], sum_marg,
            batch_format="pyarrow")

    joined = inner_join(pairs, marg_named("n_a"), "a", "item",
                        ["item", "n_a"])
    joined = inner_join(joined, marg_named("n_b"), "b", "item",
                        ["item", "n_b"])

    def finish(b: pa.Table) -> pa.Table:
        n_ab = pc.cast(b.column("n_ab"), pa.float64())
        n_a = pc.cast(b.column("n_a"), pa.float64())
        n_b = pc.cast(b.column("n_b"), pa.float64())
        ratio = pc.divide(pc.multiply(n_ab, float(n_total)),
                          pc.multiply(n_a, n_b))
        pmi = pc.divide(pc.ln(ratio), float(np.log(2.0)))
        return pa.table({
            "a": b.column("a"),
            "b": b.column("b"),
            "n_ab": pc.cast(b.column("n_ab"), pa.int64()),
            "pmi": sql_round(pmi, ndigits),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


# ---- multi-source BFS (traversal family) ----------------------------------

def _bfs_local(tbl: pa.Table, src_col: str, dst_col: str, seeds,
               max_depth: int, node_col: str = "node",
               depth_col: str = "depth") -> pa.Table:
    """The :func:`bfs_depths` kernel — frontier expansion vectorized
    with np.isin edge masks per round. ``seeds`` is a bounded iterable
    of node values; output is (node, depth) for every node within
    ``max_depth`` hops of ANY seed, sorted by node (np.unique order)."""
    seed_list = list(seeds)
    src = tbl.column(src_col).to_numpy(zero_copy_only=False)
    dst = tbl.column(dst_col).to_numpy(zero_copy_only=False)
    if not seed_list:
        return pa.table({
            node_col: pa.array([], tbl.column(src_col).type),
            depth_col: pa.array([], pa.int64()),
        })
    seed_arr = np.asarray(seed_list, dtype=src.dtype if len(src) else None)
    nodes, codes = np.unique(np.concatenate([src, dst, seed_arr]),
                             return_inverse=True)
    s_idx = codes[:len(src)]
    d_idx = codes[len(src):len(src) + len(dst)]
    depth = np.full(len(nodes), -1, np.int64)
    frontier = np.unique(codes[len(src) + len(dst):])
    depth[frontier] = 0
    for r in range(1, max_depth + 1):
        if frontier.size == 0:
            break
        targets = np.unique(d_idx[np.isin(s_idx, frontier)])
        frontier = targets[depth[targets] < 0]
        depth[frontier] = r
    sel = depth >= 0
    return pa.table({
        node_col: pa.array(nodes[sel]),
        depth_col: pa.array(depth[sel], pa.int64()),
    })


def bfs_depths(edges_ds, seeds_ds, src_col: str = "src",
               dst_col: str = "dst", seed_col: str = "node",
               max_depth: int = 4):
    """Multi-source breadth-first search to a FIXED depth: (node, depth)
    for every node reachable within ``max_depth`` directed hops of any
    seed, depth = shortest hop distance. The traversal primitive under
    GraphRAG multi-hop context expansion (the reference walks NEXT/PREV
    one hop at a time per query — graphrag/core/retrieval.py's
    neighbor expansion; this is the corpus-wide batch form) and under
    crawl-frontier / link-distance analyses on the host graph. A fixed
    ``max_depth`` keeps the result deterministic and SQL-oracle-able
    (a recursive CTE enumerates walks of length ≤ max_depth; MIN(d)
    per node is the same shortest-walk distance). Seed rows need not
    appear in the edge list — they surface at depth 0 regardless.

    Solved by :func:`_bfs_local` in one Ray task (same contract as
    :func:`pagerank`; the seeds ride along). Node columns must share
    one dtype across edges and seeds.
    """
    return _one_task("bfs_depths", edges_ds, [src_col, dst_col],
                     lambda t, seeds: _bfs_local(t, src_col, dst_col,
                                                 seeds, max_depth),
                     seeds_ds, seed_col)


# ---- link reciprocity ------------------------------------------------------

def reciprocity(edges_ds, src_col: str = "src", dst_col: str = "dst"):
    """Per-node link reciprocity over a directed edge list: for every
    node with at least one out-edge, its distinct out-neighbor count,
    how many of those neighbors link back, and the reciprocated
    fraction — the web-graph symmetry signal (mutual links correlate
    with legitimate affiliation; link farms show near-zero or near-one
    extremes). Self-loops are dropped; duplicate edges collapse.

    Scale shape: edges canonicalize map-side to unordered pairs
    carrying two direction flags, ONE co-partitioned exchange folds
    each pair's flags (max = logical OR, so duplicates are free) and
    emits ≤2 bounded node rows per pair, and a second exchange sums
    per node — int64 math throughout with a single final division, so
    a SQL oracle evaluating the same formula hashes identically.
    Returns (node, out_deg, reciprocated, reciprocity).
    """

    def pair_rows(b: pa.Table) -> pa.Table:
        s = b.column(src_col)
        t = b.column(dst_col)
        keep = pc.not_equal(s, t)
        s, t = pc.filter(s, keep), pc.filter(t, keep)
        fwd = pc.less(s, t)
        return pa.table({
            "a": pc.min_element_wise(s, t),
            "b": pc.max_element_wise(s, t),
            "h1": pc.cast(fwd, pa.int8()),        # a→b seen
            "h2": pc.cast(pc.invert(fwd), pa.int8()),  # b→a seen
        })

    def fold_pairs(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["a", "b"]).aggregate([("h1", "max"),
                                                ("h2", "max")])
        g = g.rename_columns(["a", "b", "h1", "h2"])
        h1 = g.column("h1").to_numpy(zero_copy_only=False) > 0
        h2 = g.column("h2").to_numpy(zero_copy_only=False) > 0
        rec = (h1 & h2).astype(np.int64)
        return pa.table({
            "node": pa.concat_arrays([
                g.column("a").combine_chunks(),
                g.column("b").combine_chunks(),
            ]),
            "out": pa.array(np.concatenate([
                h1.astype(np.int64), h2.astype(np.int64)])),
            "rec": pa.array(np.concatenate([rec, rec])),
        })

    node_rows = grouped_apply(
        edges_ds.map_batches(pair_rows, batch_format="pyarrow"),
        ["a", "b"], fold_pairs,
    )

    def fold_nodes(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["node"]).aggregate([("out", "sum"),
                                              ("rec", "sum")])
        g = g.rename_columns(["node", "out_deg", "reciprocated"])
        g = g.filter(pc.greater(g.column("out_deg"), 0))
        ratio = sql_round(
            pc.divide(pc.cast(g.column("reciprocated"), pa.float64()),
                      pc.cast(g.column("out_deg"), pa.float64())), 6)
        return g.append_column("reciprocity", ratio)

    return grouped_apply(node_rows, ["node"], fold_nodes)


# ---- degree assortativity --------------------------------------------------

def degree_assortativity(edges_ds, src_col: str = "src",
                         dst_col: str = "dst", ndigits: int = 6):
    """Out-in degree assortativity (Newman 2002): the Pearson
    correlation, over directed edges, between the source's OUT-degree
    and the destination's IN-degree — do hubs link to hubs (assortative
    web cores) or to leaves (broadcast topologies)? Returns a one-row
    table ``(n_edges, assortativity)``; NULL when either degree is
    constant (zero variance), matching SQL's NULL division.

    Scale shape — the Σxy term pairs per-edge endpoint degrees, which
    is irreducibly ONE join, but everything else factors through
    per-source aggregates: in-degrees attach to edges keyed by ``dst``
    (count exchange + co-partitioned union join), then one exchange
    keyed by ``src`` reduces each source u to (out-deg c_u, Σy, Σy²)
    and each PARTITION to a single six-sum partial row, since
    Σ_edges x = Σ_u c_u², Σ_edges x² = Σ_u c_u³ and
    Σ_edges xy = Σ_u c_u·Σy(u). The driver folds one row per
    partition. Partials accumulate as PYTHON ints serialized as strings —
    c³ sums overflow int64 near 10^6-degree hubs, and exactness is
    what lets the single final float expression (mirroring the SQL
    oracle's DOUBLE cast order) hash identically.
    """
    import math

    _K = "__kind"

    def dpart(b: pa.Table) -> pa.Table:
        t = pa.table({"k": b.column(dst_col)}).group_by(["k"]).aggregate(
            [([], "count_all")])
        return t.rename_columns(["k", "y"])

    def dsum(t: pa.Table) -> pa.Table:
        g = t.group_by(["k"]).aggregate([("y", "sum")])
        return g.rename_columns(["k", "y"])

    deg_in = grouped_apply(
        combine(edges_ds, dpart),
        ["k"], dsum)

    def tag_edge(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column(dst_col),
            "src": b.column(src_col),
            "y": pa.nulls(b.num_rows, pa.int64()),
            _K: pa.array(np.zeros(b.num_rows, np.int8)),
        })

    def tag_deg(b: pa.Table) -> pa.Table:
        return pa.table({
            "k": b.column("k"),
            "src": pa.nulls(b.num_rows, b.column("k").type),
            "y": pc.cast(b.column("y"), pa.int64()),
            _K: pa.array(np.ones(b.num_rows, np.int8)),
        })

    def join(pdf: pd.DataFrame) -> pd.DataFrame:
        dd = pdf[pdf[_K] == 1][["k", "y"]]
        ee = pdf[pdf[_K] == 0][["k", "src"]]
        return ee.merge(dd, on="k", how="inner")[["src", "y"]]

    pairs = grouped_apply(
        edges_ds.map_batches(tag_edge, batch_format="pyarrow").union(
            deg_in.map_batches(tag_deg, batch_format="pyarrow")),
        ["k"], join,
        batch_format="pandas")

    out_fields = ["n", "sx", "sy", "sxy", "sxx", "syy"]

    def fold(pdf: pd.DataFrame) -> pd.DataFrame:
        if len(pdf) == 0:
            return pd.DataFrame({f: pd.Series([], dtype=str)
                                 for f in out_fields})
        yo = pdf["y"].astype(object)
        pdf = pdf.assign(y2=yo * yo)
        g = pdf.groupby("src", sort=False).agg(
            c=("y", "size"), sy=("y", "sum"), syy=("y2", "sum"))
        cs = [int(v) for v in g["c"]]
        sys_ = [int(v) for v in g["sy"]]
        syys = [int(v) for v in g["syy"]]
        vals = [sum(cs), sum(c * c for c in cs),
                sum(sys_), sum(c * s for c, s in zip(cs, sys_)),
                sum(c ** 3 for c in cs), sum(syys)]
        return pd.DataFrame({f: [str(v)]
                             for f, v in zip(out_fields, vals)})

    rows = grouped_apply(pairs, ["src"], fold,
                         batch_format="pandas").take_all()
    tot = {f: sum(int(r[f]) for r in rows) for f in out_fields}
    n, sx, sy = tot["n"], tot["sx"], tot["sy"]
    sxy, sxx, syy = tot["sxy"], tot["sxx"], tot["syy"]
    d1, d2 = n * sxx - sx * sx, n * syy - sy * sy
    if n == 0 or d1 <= 0 or d2 <= 0:
        r = None
    else:
        r = sql_round(float(n * sxy - sx * sy)
                      / math.sqrt(float(d1) * float(d2)), ndigits)
    return pa.table({
        "n_edges": pa.array([n], pa.int64()),
        "assortativity": pa.array([r], pa.float64()),
    })


# ---- negative edge sampling (KG-embedding training) ------------------------

# tails roll within each dst-hash partition, so the count is part of
# the sampler's definition: fixed, not sized from the input
_NEGATIVE_PARTS = 8


def edge_negatives(edges_ds, src_col: str = "src", dst_col: str = "dst"):
    """Deterministic corrupt-tail NEGATIVE sampling for KG-embedding /
    link-prediction training (the TransE recipe: one corrupted edge
    per true edge): each edge's tail is replaced with another observed
    tail, candidates that happen to be TRUE edges (or unchanged) are
    dropped, and the output unions true edges (label 1) with the
    surviving negatives (label 0).

    Scale shape — no entity table, no broadcast, no randomness source:
    tails are permuted WITHIN each dst-hash partition (sort by a
    stable row hash, roll by one), which both preserves the observed
    tail distribution (degree-proportional corruption, the standard
    practice) and keeps the permutation deterministic (the count is
    ``_NEGATIVE_PARTS``, whatever the input size); the truth filter is
    ONE (src,dst)-keyed anti-join exchange. Output:
    ``(src, dst, label:int8)``.
    """
    from ..stages.shuffle import _hash_rows

    def keyed(b: pa.Table) -> pa.Table:
        return pa.table({"src": b.column(src_col),
                         "dst": b.column(dst_col)})

    base = edges_ds.map_batches(keyed, batch_format="pyarrow")

    def corrupt(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return pa.table({
                "src": pa.array([], tbl.column("src").type),
                "dst": pa.array([], tbl.column("dst").type),
            })
        order = np.argsort(_hash_rows(tbl, ["src", "dst"]),
                           kind="stable")
        src = tbl.column("src").to_numpy(zero_copy_only=False)[order]
        dst = tbl.column("dst").to_numpy(zero_copy_only=False)[order]
        cand = np.roll(dst, 1)
        keep = cand != dst  # unchanged-tail candidates are useless
        return pa.table({"src": pa.array(src[keep]),
                         "dst": pa.array(cand[keep])})

    cands = grouped_apply(base, ["dst"], corrupt,
                          num_partitions=_NEGATIVE_PARTS)

    K_TRUE, K_CAND = np.int8(1), np.int8(0)

    def tag(kind):
        def fn(b: pa.Table) -> pa.Table:
            return b.append_column(
                "label", pa.array(np.full(b.num_rows, kind, np.int8)))
        return fn

    def anti(tbl: pa.Table) -> pa.Table:
        """Per (src,dst) group: keep true rows; keep candidate rows
        only when NO true row shares the pair (dedup candidates)."""
        lab = tbl.column("label").to_numpy(zero_copy_only=False)
        pdf = tbl.to_pandas()
        true_rows = pdf[lab == K_TRUE]
        truth = set(map(tuple, true_rows[["src", "dst"]].to_numpy()))
        cand_rows = pdf[lab == K_CAND].drop_duplicates(["src", "dst"])
        mask = [tuple(x) not in truth
                for x in cand_rows[["src", "dst"]].to_numpy()]
        out = pd.concat([true_rows, cand_rows[np.array(mask, bool)]],
                        ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False)

    unioned = base.map_batches(tag(K_TRUE), batch_format="pyarrow").union(
        cands.map_batches(tag(K_CAND), batch_format="pyarrow"))
    return grouped_apply(unioned, ["src", "dst"], anti)


# ---- bounded-hop weighted shortest paths (Bellman-Ford rounds) -------------

def _shortest_paths_local(tbl: pa.Table, src_col: str, dst_col: str,
                          weight_col: str, seeds, max_hops: int,
                          node_col: str = "node",
                          cost_col: str = "cost") -> pa.Table:
    """The :func:`shortest_paths` kernel — bounded-hop Bellman-Ford,
    vectorized (np.minimum.at per round)."""
    seed_list = list(seeds)
    src = tbl.column(src_col).to_numpy(zero_copy_only=False)
    dst = tbl.column(dst_col).to_numpy(zero_copy_only=False)
    w = pc.cast(tbl.column(weight_col), pa.int64()).to_numpy(
        zero_copy_only=False)
    if not seed_list:
        return pa.table({
            node_col: pa.array([], tbl.column(src_col).type),
            cost_col: pa.array([], pa.int64()),
        })
    seed_arr = np.asarray(seed_list,
                          dtype=src.dtype if len(src) else None)
    nodes, codes = np.unique(np.concatenate([src, dst, seed_arr]),
                             return_inverse=True)
    s_idx = codes[:len(src)]
    d_idx = codes[len(src):len(src) + len(dst)]
    INF = np.iinfo(np.int64).max // 2
    cost = np.full(len(nodes), INF, np.int64)
    cost[np.unique(codes[len(src) + len(dst):])] = 0
    for _ in range(max_hops):
        relaxed = cost.copy()
        np.minimum.at(relaxed, d_idx, cost[s_idx] + w)
        if np.array_equal(relaxed, cost):
            break
        cost = relaxed
    sel = cost < INF
    return pa.table({
        node_col: pa.array(nodes[sel]),
        cost_col: pa.array(cost[sel], pa.int64()),
    })


def shortest_paths(edges_ds, seeds_ds, src_col: str = "src",
                   dst_col: str = "dst", weight_col: str = "w",
                   seed_col: str = "node", max_hops: int = 4):
    """Multi-source WEIGHTED shortest paths bounded to ``max_hops``
    edges: (node, cost) with cost = the minimum total integer edge
    weight over any directed path of at most ``max_hops`` hops from
    any seed — Bellman-Ford relaxation rounds, the weighted twin of
    :func:`bfs_depths` (link-distance with per-edge cost: crawl
    politeness budgets, weighted KG relatedness radii). The hop bound
    is part of the SEMANTICS (exactly ``max_hops`` relaxation rounds),
    which keeps the result deterministic and SQL-oracle-able: a
    recursive CTE enumerating (node, cost, hops ≤ max_hops) walks has
    the same MIN(cost) per node. Weights cast to int64 → exact int64
    math.

    Solved by :func:`_shortest_paths_local` in one Ray task (same
    contract as :func:`bfs_depths`).
    """
    return _one_task("shortest_paths", edges_ds,
                     [src_col, dst_col, weight_col],
                     lambda t, seeds: _shortest_paths_local(
                         t, src_col, dst_col, weight_col, seeds,
                         max_hops),
                     seeds_ds, seed_col)


def _canon_codes(tbl: pa.Table, src_col: str, dst_col: str):
    """Shared local-solver preamble: self-loop drop → id factorization
    (strings become int32 codes ONCE — every downstream step runs on
    ints) → canonical distinct a<b edge codes.  Returns
    ``(a, b, uniques)`` or ``None`` when the graph is empty."""
    s = tbl.column(src_col).to_numpy(zero_copy_only=False)
    d = tbl.column(dst_col).to_numpy(zero_copy_only=False)
    keep = s != d
    s, d = s[keep], d[keep]
    if not len(s):
        return None
    codes, uniques = pd.factorize(np.concatenate([s, d]), sort=True)
    sc, dc = codes[: len(s)].astype(np.int64), codes[len(s):].astype(
        np.int64)
    lo = np.minimum(sc, dc)
    hi = np.maximum(sc, dc)
    nv = len(uniques)
    packed = np.unique(lo * nv + hi)
    return packed // nv, packed % nv, np.asarray(uniques)


def _group_pairs(centers: np.ndarray, neighbors: np.ndarray,
                 max_k: int | None = None):
    """All within-group neighbor pairs, vectorized by distinct group
    size: ``centers`` sorted ascending, ``neighbors`` sorted within
    each center.  Yields ``(k, c_mat, x, y)`` per distinct size ``k``
    (≥2, ≤``max_k``): the centers of that size and their pair
    endpoints ``x < y`` as flat arrays — no per-group Python."""
    uniq, starts, counts = np.unique(centers, return_index=True,
                                     return_counts=True)
    for k in np.unique(counts):
        k = int(k)
        if k < 2 or (max_k is not None and k > max_k):
            continue
        sel = counts == k
        # (n_groups, k) matrix of each group's neighbors
        mat = neighbors[starts[sel][:, None] + np.arange(k)[None, :]]
        i, j = np.triu_indices(k, 1)
        yield k, uniq[sel], mat[:, i].ravel(), mat[:, j].ravel()


def _link_scores_local(tbl: pa.Table, src_col: str, dst_col: str,
                       max_center_degree: int | None = None,
                       ndigits: int = 6) -> pa.Table:
    """The :func:`link_scores` kernel, fully vectorized: ids factorize
    to int codes once, wedges generate per DISTINCT degree (one triu per
    size, all same-size centers batched), and (x, y) aggregation + the
    adjacency anti-join run on packed int64 keys — no per-center Python
    loop, no string groupbys (measured 207 s → ~4 s on the 72 k-edge /
    68 M-wedge bench KG)."""
    # the type pa.array gives the factorized uniques below
    out_type = tbl.schema.field(src_col).type
    if pa.types.is_large_string(out_type):
        out_type = pa.string()
    empty = pa.table({
        "node_a": pa.array([], out_type),
        "node_b": pa.array([], out_type),
        "cn": pa.array([], pa.int64()),
        "aa": pa.array([], pa.float64()),
        "ra": pa.array([], pa.float64()),
        "jaccard": pa.array([], pa.float64()),
    })
    canon = _canon_codes(tbl, src_col, dst_col)
    if canon is None:
        return empty
    a, b, uniques = canon
    nv = len(uniques)
    # symmetric adjacency sorted by (center, neighbor): the packed
    # center*nv+neighbor key sorts exactly that way
    und = np.sort(np.concatenate([a * nv + b, b * nv + a]))
    cent, neigh = und // nv, und % nv
    deg = np.bincount(cent, minlength=nv)
    edge_keys = a * nv + b  # canonical a<b, already sorted ascending
    key_parts, cn_parts, aa_parts, ra_parts = [], [], [], []
    for k, _c, x, y in _group_pairs(cent, neigh, max_center_degree):
        # neighbors ascend within a center, so x < y holds pairwise
        pk = x * nv + y
        uk, inv = np.unique(pk, return_inverse=True)
        key_parts.append(uk)
        cn_parts.append(np.bincount(inv))
        aa_parts.append(np.bincount(inv) / np.log(k))
        ra_parts.append(np.bincount(inv) / k)
    if not key_parts:
        return empty
    keys = np.concatenate(key_parts)
    uk, inv = np.unique(keys, return_inverse=True)
    cn = np.bincount(inv, weights=np.concatenate(cn_parts)).astype(
        np.int64)
    aa = np.bincount(inv, weights=np.concatenate(aa_parts))
    ra = np.bincount(inv, weights=np.concatenate(ra_parts))
    # anti-join the existing edges (adjacent pairs are not proposals)
    pos = np.searchsorted(edge_keys, uk)
    pos_c = np.minimum(pos, len(edge_keys) - 1) if len(edge_keys) else pos
    nonadj = (edge_keys[pos_c] != uk) if len(edge_keys) else np.ones(
        len(uk), bool)
    uk, cn, aa, ra = uk[nonadj], cn[nonadj], aa[nonadj], ra[nonadj]
    x, y = uk // nv, uk % nv
    jac = cn.astype(np.float64) / (deg[x] + deg[y] - cn)
    return pa.table({
        "node_a": pa.array(uniques[x]),
        "node_b": pa.array(uniques[y]),
        "cn": pa.array(cn),
        "aa": pa.array(sql_round(aa, ndigits)),
        "ra": pa.array(sql_round(ra, ndigits)),
        "jaccard": pa.array(sql_round(jac, ndigits)),
    })


def link_scores(edges_ds, src_col: str = "src", dst_col: str = "dst",
                max_center_degree: int | None = None,
                ndigits: int = 6):
    """Link-prediction scores for every 2-hop (non-adjacent) node pair
    of the UNDIRECTED graph: common-neighbor count ``cn``, Adamic-Adar
    ``aa = Σ_z 1/ln(deg z)``, resource allocation ``ra = Σ_z 1/deg z``
    (Zhou et al. 2009) and neighborhood Jaccard
    ``cn / (deg a + deg b − cn)`` — the classic local similarity
    indices (Liben-Nowell & Kleinberg 2003) behind "entities that
    share many rare neighbors are probably related", the KG
    missing-edge proposer that pairs with
    :func:`edge_negatives`' evaluation harness.  Duplicate, reversed
    and self-loop edges collapse.

    Hub skew: a center of degree k emits k(k−1)/2 wedge pairs — the
    explosion is inherent to the statistic, and a 10^6-degree hub
    contributes only 1/ln(10^6) ≈ 0.07 per pair, so production runs
    cap it: centers above ``max_center_degree`` are skipped entirely
    (the standard practice in large-scale implementations; the cap is
    part of the operator's contract, not a silent truncation).

    Node ids may be int or string.  Solved by :func:`_link_scores_local`
    in one Ray task (same contract as :func:`pagerank`)."""
    return _one_task("link_scores", edges_ds, [src_col, dst_col],
                     lambda t: _link_scores_local(
                         t, src_col, dst_col, max_center_degree, ndigits))


def _clustering_local(tbl: pa.Table, src_col: str, dst_col: str,
                      ndigits: int = 6) -> pa.Table:
    """The :func:`clustering_coefficient` kernel: per-node triangle
    counts from one degree-oriented wedge enumeration."""
    canon = _canon_codes(tbl, src_col, dst_col)
    if canon is None:
        return pa.table({
            "node": pa.array([], tbl.schema.field(src_col).type),
            "n_tri": pa.array([], pa.int64()),
            "lcc": pa.array([], pa.float64()),
        })
    a, b, uniques = canon
    nv = len(uniques)
    deg = np.bincount(np.concatenate([a, b]), minlength=nv)
    # degree orientation (same trick as triangle_count): every
    # edge points from its lower-(deg, id) endpoint, so oriented
    # out-degrees stay O(√m) and each triangle is enumerated exactly
    # once from its lowest corner — hub wedge explosion is
    # structurally bounded, not capped
    a_first = (deg[a] < deg[b]) | ((deg[a] == deg[b]) & (a < b))
    oc = np.where(a_first, a, b)
    on = np.where(a_first, b, a)
    order = np.argsort(oc * nv + on, kind="stable")
    oc, on = oc[order], on[order]
    edge_keys = a * nv + b  # sorted ascending (canonical a<b)
    n_tri = np.zeros(nv, np.int64)
    for _k, cgrp, x, y in _group_pairs(oc, on):
        pk = np.minimum(x, y) * nv + np.maximum(x, y)
        pos = np.searchsorted(edge_keys, pk)
        pos_c = np.minimum(pos, len(edge_keys) - 1)
        closed = edge_keys[pos_c] == pk
        if not closed.any():
            continue
        # each closed wedge credits all three corners
        npairs = _k * (_k - 1) // 2
        centers = np.repeat(cgrp, npairs)[closed]
        np.add.at(n_tri, centers, 1)
        np.add.at(n_tri, x[closed], 1)
        np.add.at(n_tri, y[closed], 1)
    degv = deg.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        lcc = np.where(degv >= 2, 2.0 * n_tri / (degv * (degv - 1.0)),
                       0.0)
    return pa.table({
        "node": pa.array(uniques),
        "n_tri": pa.array(n_tri),
        "lcc": pa.array(sql_round(lcc, ndigits)),
    })


def clustering_coefficient(edges_ds, src_col: str = "src",
                           dst_col: str = "dst", ndigits: int = 6):
    """Per-node triangle count and local clustering coefficient
    ``lcc(v) = 2·T(v) / (deg v · (deg v − 1))`` (Watts & Strogatz
    1998) over the UNDIRECTED graph — the community-density signal
    per entity (KG neighborhoods that are cliques vs stars), the
    per-node refinement of :func:`triangle_count`'s global census.

    Same degree-orientation trick as :func:`triangle_count` — every
    triangle is enumerated exactly once from its lowest-(deg, id)
    corner, so oriented out-degrees stay O(√m) and hub wedge
    explosion is structurally bounded — but each closed wedge
    (u; v, w) credits ALL THREE corners, so per-node counts come out
    of the one enumeration.  Node ids may be int or string.  Solved by
    :func:`_clustering_local` in one Ray task (same contract as
    :func:`pagerank`)."""
    return _one_task("clustering_coefficient", edges_ds,
                     [src_col, dst_col],
                     lambda t: _clustering_local(t, src_col, dst_col,
                                                 ndigits))


# ---------------------------------------------------------------------------
# betweenness centrality (sampled Brandes)


def _csr(a: np.ndarray, b: np.ndarray, nv: int):
    """Symmetric CSR adjacency from canonical a<b edge codes."""
    u = np.concatenate([a, b])
    v = np.concatenate([b, a])
    order = np.argsort(u, kind="stable")
    u, v = u[order], v[order]
    indptr = np.zeros(nv + 1, np.int64)
    np.add.at(indptr, u + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, v


def _brandes_source(indptr: np.ndarray, indices: np.ndarray,
                    s: int, nv: int) -> np.ndarray:
    """Dependency accumulation δ_s(·) of one BFS source (Brandes 2001,
    unweighted), fully vectorized per level: the frontier's incident
    edges are gathered with repeat/arange index arithmetic and both
    the σ (path-count) forward pass and the δ backward pass are
    ``np.add.at`` scatters over level edges — no per-node Python."""
    dist = np.full(nv, -1, np.int64)
    sigma = np.zeros(nv, np.float64)
    dist[s] = 0
    sigma[s] = 1.0
    levels = [np.array([s], np.int64)]
    lvl_edges = []  # (v_at_level_d, w_at_level_d+1) per depth
    d = 0
    while True:
        f = levels[-1]
        counts = indptr[f + 1] - indptr[f]
        total = int(counts.sum())
        if total == 0:
            break
        flat = (np.repeat(indptr[f], counts)
                + np.arange(total) - np.repeat(
                    np.cumsum(counts) - counts, counts))
        w = indices[flat]
        v = np.repeat(f, counts)
        fresh = dist[w] == -1
        if fresh.any():
            dist[w[fresh]] = d + 1
        tree = dist[w] == d + 1  # all shortest-path edges to next level
        if not tree.any():
            break
        np.add.at(sigma, w[tree], sigma[v[tree]])
        lvl_edges.append((v[tree], w[tree]))
        nxt = np.unique(w[tree])
        levels.append(nxt)
        d += 1
    delta = np.zeros(nv, np.float64)
    for v, w in reversed(lvl_edges):
        np.add.at(delta, v, sigma[v] / sigma[w] * (1.0 + delta[w]))
    delta[s] = 0.0
    return delta


def _source_sampled(solver: str, edges_ds, src_col: str, dst_col: str,
                    k_sources: int, sources: list | None, tasks: int,
                    per_source, out_col: str, scale: float | None,
                    ndigits: int):
    """Shared driver of the source-sampled centralities: canonical CSR
    of the undirected graph (cap of :func:`_edge_blocks`), the sources
    (``sources`` or ``k_sources`` evenly spaced ranks of the sorted node
    ids), ``per_source(indptr, indices, s, nv)`` O(V) vectors summed over
    source slices in ``tasks`` Ray tasks off ONE ray.put CSR, then
    ``acc · n/k · scale`` when ``scale`` is set."""
    import ray
    import ray.data as rd

    tbl = _edge_table(ray.get(_edge_blocks(edges_ds, solver)),
                      [src_col, dst_col])
    canon = _canon_codes(tbl, src_col, dst_col)
    if canon is None:
        return rd.from_arrow(pa.table({
            "node": pa.array([], tbl.schema.field(src_col).type),
            out_col: pa.array([], pa.float64()),
        }))
    a, b, uniques = canon
    nv = len(uniques)
    indptr, indices = _csr(a, b, nv)
    if sources is not None:
        lookup = {v: i for i, v in enumerate(uniques)}
        if not len(sources):
            raise ValueError(f"{solver}: sources is empty")
        for s in sources:
            if s not in lookup:
                raise ValueError(f"{solver}: source {s!r} is not a node")
        src_codes = np.array([lookup[s] for s in sources], np.int64)
    else:
        if k_sources < 1:
            raise ValueError(f"{solver}: k_sources must be >= 1")
        k = min(int(k_sources), nv)
        src_codes = np.unique(
            sql_round(np.linspace(0, nv - 1, k)).astype(np.int64))
    k = len(src_codes)

    csr_ref = ray.put((indptr, indices))

    @ray.remote
    def solve(slice_codes: np.ndarray) -> np.ndarray:
        ip, ix = ray.get(csr_ref)
        acc = np.zeros(nv, np.float64)
        for s in slice_codes:
            acc += per_source(ip, ix, int(s), nv)
        return acc

    slices = np.array_split(src_codes, min(int(tasks), k))
    acc = sum(ray.get([solve.remote(sl) for sl in slices if len(sl)]))
    if scale is not None:
        acc = acc * (nv / k) * scale
    return rd.from_arrow(pa.table({
        "node": pa.array(uniques),
        out_col: pa.array(sql_round(acc, ndigits)),
    }))


def betweenness_sample(edges_ds, src_col: str = "src",
                       dst_col: str = "dst", k_sources: int = 32,
                       sources: list | None = None,
                       scale: bool = True, ndigits: int = 6,
                       tasks: int = 8):
    """Approximate betweenness centrality by source sampling
    (Brandes 2001; Brandes & Pich 2007 for the sampled estimator):
    run the single-source dependency accumulation from ``k_sources``
    deterministically chosen sources (evenly spaced ranks of the
    sorted node ids — stable across partitioning; pass ``sources``
    explicitly to override) and scale by ``n/k`` (and the undirected
    ½) to the exact statistic's magnitude.  The default sources are a
    fixed quasi-sample, not a random one, so the Brandes–Pich
    unbiasedness does not apply: the estimate can be biased when
    centrality correlates with node-id order (pass random ``sources``
    for the unbiased estimator).  With ``k_sources >= n`` every node
    is a source and the result IS exact.

    Scale shape — parallel over SOURCES, not partitions
    (:func:`_source_sampled`).  The graph must fit a worker (at most
    ``config.LOCAL_EDGES_THRESHOLD`` edges): betweenness on a bigger
    graph wants a different algorithm class, e.g. k-bounded-distance
    approximations."""
    return _source_sampled("betweenness_sample", edges_ds, src_col,
                           dst_col, k_sources, sources, tasks,
                           _brandes_source, "betweenness",
                           0.5 if scale else None, ndigits)


def _bfs_dist(indptr: np.ndarray, indices: np.ndarray, s: int,
              nv: int) -> np.ndarray:
    """Unweighted BFS distances from ``s`` (-1 = unreachable),
    level-vectorized like :func:`_brandes_source`."""
    dist = np.full(nv, -1, np.int64)
    dist[s] = 0
    frontier = np.array([s], np.int64)
    d = 0
    while len(frontier):
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        flat = (np.repeat(indptr[frontier], counts)
                + np.arange(total) - np.repeat(
                    np.cumsum(counts) - counts, counts))
        w = indices[flat]
        fresh = np.unique(w[dist[w] == -1])
        if not len(fresh):
            break
        d += 1
        dist[fresh] = d
        frontier = fresh
    return dist


def _harmonic_source(indptr: np.ndarray, indices: np.ndarray, s: int,
                     nv: int) -> np.ndarray:
    """1/dist(s, v) for every v reached from ``s`` (0 elsewhere)."""
    dist = _bfs_dist(indptr, indices, s, nv)
    out = np.zeros(nv, np.float64)
    reach = dist > 0
    out[reach] = 1.0 / dist[reach]
    return out


def harmonic_sample(edges_ds, src_col: str = "src",
                    dst_col: str = "dst", k_sources: int = 32,
                    sources: list | None = None, scale: bool = True,
                    ndigits: int = 6, tasks: int = 8):
    """Approximate harmonic (closeness-family) centrality by source
    sampling: ``H(v) = Σ_{s≠v} 1/dist(s, v)`` over the sampled
    sources, scaled by ``n/k`` to the exact statistic's magnitude
    (Boldi & Vigna 2014 — harmonic handles disconnected graphs where
    classic closeness breaks; unreachable pairs contribute 0).  The
    default sources are the same deterministic quasi-sample as
    :func:`betweenness_sample`'s, so there is no expectation to be
    unbiased over; pass random ``sources`` for that.  Exact when every
    node is a source.

    Same scale shape and size cap as :func:`betweenness_sample`; larger
    graphs want HyperBall-style sketched neighborhood functions."""
    return _source_sampled("harmonic_sample", edges_ds, src_col, dst_col,
                           k_sources, sources, tasks, _harmonic_source,
                           "harmonic", 1.0 if scale else None, ndigits)


def _truss_local(tbl: pa.Table, src_col: str, dst_col: str) -> pa.Table:
    """Single-task exact k-truss decomposition: each undirected edge's
    truss number = the largest k such that the edge survives in the
    subgraph where every edge sits in ≥ k−2 triangles (Cohen 2008).
    Bulk peeling: per round, recompute supports via the degree-
    oriented wedge enumeration (vectorized, one triu per distinct
    out-degree) and remove EVERY edge below the current threshold;
    when a round removes nothing, the survivors graduate to the next
    k.  Rounds are O(wedges) each and the k ladder is bounded by
    max-support — no per-edge priority queue, no Python inner loop."""
    canon = _canon_codes(tbl, src_col, dst_col)
    node_type = tbl.schema.field(src_col).type
    if canon is None:
        return pa.table({
            "node_a": pa.array([], node_type),
            "node_b": pa.array([], node_type),
            "truss": pa.array([], pa.int64()),
        })
    a, b, uniques = canon
    nv = len(uniques)
    keys = a * nv + b  # sorted canonical edge keys
    truss = np.full(len(keys), 2, np.int64)  # every edge is a 2-truss
    alive = np.ones(len(keys), bool)

    def supports(idx: np.ndarray) -> np.ndarray:
        """Triangle count per alive edge (edges given by index list)."""
        ea, eb = keys[idx] // nv, keys[idx] % nv
        deg = np.bincount(np.concatenate([ea, eb]), minlength=nv)
        a_first = (deg[ea] < deg[eb]) | ((deg[ea] == deg[eb])
                                         & (ea < eb))
        oc = np.where(a_first, ea, eb)
        on = np.where(a_first, eb, ea)
        order = np.argsort(oc * nv + on, kind="stable")
        oc, on = oc[order], on[order]
        ekeys = keys[idx]
        sup = np.zeros(len(idx), np.int64)
        for _k, _c, x, y in _group_pairs(oc, on):
            pk = np.minimum(x, y) * nv + np.maximum(x, y)
            pos = np.searchsorted(ekeys, pk)
            pos_c = np.minimum(pos, len(ekeys) - 1)
            closed = ekeys[pos_c] == pk
            if not closed.any():
                continue
            # the closing edge and both wedge legs each gain a triangle
            np.add.at(sup, pos_c[closed], 1)
            npairs = _k * (_k - 1) // 2
            centers = np.repeat(_c, npairs)[closed]
            leg1 = np.minimum(centers, x[closed]) * nv + np.maximum(
                centers, x[closed])
            leg2 = np.minimum(centers, y[closed]) * nv + np.maximum(
                centers, y[closed])
            np.add.at(sup, np.searchsorted(ekeys, leg1), 1)
            np.add.at(sup, np.searchsorted(ekeys, leg2), 1)
        return sup

    k = 3
    while alive.any():
        idx = np.flatnonzero(alive)
        sup = supports(idx)
        drop = sup < k - 2
        if drop.any():
            alive[idx[drop]] = False
            continue  # re-evaluate at the same k (peeling cascades)
        truss[idx] = k  # everyone alive survives the k-truss
        k += 1
    return pa.table({
        "node_a": pa.array(uniques[keys // nv]),
        "node_b": pa.array(uniques[keys % nv]),
        "truss": pa.array(truss),
    })


def truss_decomposition(edges_ds, src_col: str = "src",
                        dst_col: str = "dst"):
    """Exact k-truss number per undirected edge — the edge-cohesion
    ladder (an edge in a k-truss sits in a (k−1)-clique-dense region;
    the subgraph signal for "is this KG relation embedded in a dense
    topic community or a stray link?").  Solved by :func:`_truss_local`
    in one Ray task (same contract as :func:`pagerank`)."""
    return _one_task("truss_decomposition", edges_ds, [src_col, dst_col],
                     lambda t: _truss_local(t, src_col, dst_col))


def node2vec_walks(edges_ds, walk_len: int = 4, p: float = 1.0,
                   q: float = 1.0, src_col: str = "src",
                   dst_col: str = "dst", mult_a: int = 2654435761,
                   mult_b: int = 40503):
    """node2vec biased walk corpus (Grover & Leskovec 2016) — the
    second-order sibling of :func:`random_walks`: from node u (having
    arrived from ``prev``) each out-neighbor x is weighted ``1/p`` if
    x == prev (return), ``1`` if x is an out-neighbor of prev
    (BFS-ish stay-local), else ``1/q`` (DFS-ish explore), and the
    next hop is the DETERMINISTIC weighted pick — the hash fraction
    ``((walk·A + step·B) mod 2^32 + ½)/2^32`` against the cumulative
    weights of the cand-id-sorted candidates.  No RNG state:
    reproducible and partition-independent.  Step 0 has no ``prev``
    and picks uniformly by the same DeepWalk modular rule.  Directed
    edges as given — symmetrize upstream for the undirected form.

    Output: ``(walk_id, step, node)`` rows, one walk per distinct
    source node (walk_id = start node), early stop at sinks.

    Scale shape: TWO co-partitioned union exchanges per step (the
    pagerank-round pattern twice) — candidates gather at the current
    node's partition (one row per (live walk, out-neighbor), O(E)
    worst case per step, same as a pagerank round), then re-key by
    ``prev`` where prev's adjacency answers the is-neighbor test with
    a vectorized merge and the weighted pick is a per-walk cumsum —
    per-step state is one row per live walk, never the prefix."""
    inv_p, inv_q = 1.0 / float(p), 1.0 / float(q)

    def undip(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": _walk_ids(batch.column(src_col)),
            "dst": _walk_ids(batch.column(dst_col)),
            "walk": pa.array([-1] * len(batch), pa.int64()),
            "step": pa.array([-1] * len(batch), pa.int64()),
            "prev": pa.array([-1] * len(batch), pa.int64()),
        })

    edges = _walk_edges(edges_ds, undip, "node2vec_walks",
                        [src_col, dst_col])

    def starts(batch: pa.Table) -> pa.Table:
        u = pc.unique(batch.column("key"))
        n = len(u)
        return pa.table({
            "walk_id": u,
            "step": pa.array([0] * n, pa.int64()),
            "node": u,
            "prev": pa.array([-1] * n, pa.int64()),
        })

    def dedup_starts(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.drop_duplicates("walk_id")

    frontier = grouped_apply(
        combine(edges, starts),
        ["walk_id"], dedup_starts,
        batch_format="pandas",
    ).materialize()
    visited = [frontier.drop_columns(["prev"])]

    for step in range(walk_len - 1):
        def fr_rows(batch: pa.Table) -> pa.Table:
            return pa.table({
                "key": pc.cast(batch.column("node"), pa.int64()),
                "dst": pa.array([-1] * len(batch), pa.int64()),
                "walk": pc.cast(batch.column("walk_id"), pa.int64()),
                "step": pc.cast(batch.column("step"), pa.int64()),
                "prev": pc.cast(batch.column("prev"), pa.int64()),
            })

        unioned = edges.union(
            frontier.map_batches(fr_rows, batch_format="pyarrow"))

        def expand(pdf: pd.DataFrame, _s=step) -> pd.DataFrame:
            """Candidates of each live walk = adjacency of its node.
            Step 0 (prev == -1) resolves HERE with the uniform
            modular pick — no second exchange needed for it."""
            adj = (pdf[pdf["walk"] < 0][["key", "dst"]]
                   .drop_duplicates()
                   .sort_values(["key", "dst"], kind="mergesort"))
            fr = pdf[pdf["walk"] >= 0][["key", "walk", "step", "prev"]]
            first = fr[fr["prev"] < 0]
            rest = fr[fr["prev"] >= 0]
            outs = []
            if len(first):
                adj_i = adj.assign(i=adj.groupby("key").cumcount())
                deg = adj.groupby("key").size().rename("deg").reset_index()
                m = first.merge(deg, on="key", how="inner")
                m["i"] = (m["walk"].to_numpy(np.int64) * mult_a
                          + _s * mult_b) % m["deg"].to_numpy(np.int64)
                nxt = m.merge(adj_i, on=["key", "i"], how="inner")
                outs.append(pd.DataFrame({
                    "key": nxt["key"], "walk": nxt["walk"],
                    "step": nxt["step"], "cand": nxt["dst"],
                    "picked": True,
                }))
            if len(rest):
                c = rest.merge(adj, on="key", how="inner")
                outs.append(pd.DataFrame({
                    # re-key by prev for the membership exchange
                    "key": c["prev"], "walk": c["walk"],
                    "step": c["step"], "cand": c["dst"],
                    "picked": False,
                }).assign(u=c["key"].to_numpy(np.int64)))
            if not outs:
                return pd.DataFrame({
                    "key": pd.Series([], dtype="int64"),
                    "walk": pd.Series([], dtype="int64"),
                    "step": pd.Series([], dtype="int64"),
                    "cand": pd.Series([], dtype="int64"),
                    "picked": pd.Series([], dtype="bool"),
                    "u": pd.Series([], dtype="int64"),
                })
            out = pd.concat(outs, ignore_index=True)
            if "u" not in out.columns:
                out["u"] = np.int64(-1)
            out["u"] = out["u"].fillna(-1).astype("int64")
            return out

        cands = grouped_apply(unioned, ["key"], expand,
                              batch_format="pandas")

        def cand_rows(batch: pa.Table) -> pa.Table:
            return pa.table({
                "key": batch.column("key"),
                "dst": pa.nulls(batch.num_rows, pa.int64()),
                "walk": batch.column("walk"),
                "step": batch.column("step"),
                "cand": batch.column("cand"),
                "picked": batch.column("picked"),
                "u": batch.column("u"),
            })

        def edge_rows(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            return pa.table({
                "key": batch.column("key"),
                "dst": batch.column("dst"),
                "walk": pa.array([-1] * n, pa.int64()),
                "step": pa.array([-1] * n, pa.int64()),
                "cand": pa.nulls(n, pa.int64()),
                "picked": pa.array([False] * n, pa.bool_()),
                "u": pa.array([-1] * n, pa.int64()),
            })

        unioned2 = edges.map_batches(
            edge_rows, batch_format="pyarrow").union(
            cands.map_batches(cand_rows, batch_format="pyarrow"))

        def pick(pdf: pd.DataFrame, _s=step) -> pd.DataFrame:
            done = pdf[(pdf["walk"] >= 0) & pdf["picked"]]
            todo = pdf[(pdf["walk"] >= 0) & ~pdf["picked"]]
            outs = []
            if len(done):
                outs.append(pd.DataFrame({
                    "walk_id": done["walk"].to_numpy(np.int64),
                    "step": done["step"].to_numpy(np.int64) + 1,
                    "node": done["cand"].to_numpy(np.int64),
                    "prev": done["key"].to_numpy(np.int64),
                }))
            if len(todo):
                adj = pdf[pdf["walk"] < 0][["key", "dst"]].drop_duplicates()
                t = todo.merge(
                    adj, left_on=["key", "cand"],
                    right_on=["key", "dst"], how="left",
                    indicator=True).rename(columns={"_merge": "is_nb"})
                w = np.where(
                    t["cand"].to_numpy(np.int64)
                    == t["key"].to_numpy(np.int64), inv_p,
                    np.where(t["is_nb"].to_numpy() == "both", 1.0,
                             inv_q))
                t = t.assign(w=w).sort_values(
                    ["walk", "cand"], kind="mergesort")
                g = t.groupby("walk", sort=False)
                cum = g["w"].cumsum()
                tot = g["w"].transform("sum")
                r = ((t["walk"].to_numpy(np.uint64)
                      * np.uint64(mult_a)
                      + np.uint64(_s) * np.uint64(mult_b))
                     & np.uint64(0xFFFFFFFF)).astype(np.float64)
                r = (r + 0.5) / 4294967296.0
                hit = cum.to_numpy() > r * tot.to_numpy()
                # first hitting candidate per walk (cand-sorted order)
                idx = (t.assign(hit=hit, rn=np.arange(len(t)))
                       [lambda d: d["hit"]]
                       .groupby("walk", sort=False)["rn"].min())
                chosen = t.iloc[idx.to_numpy()]
                outs.append(pd.DataFrame({
                    "walk_id": chosen["walk"].to_numpy(np.int64),
                    "step": chosen["step"].to_numpy(np.int64) + 1,
                    "node": chosen["cand"].to_numpy(np.int64),
                    "prev": chosen["u"].to_numpy(np.int64),
                }))
            if not outs:
                return pd.DataFrame({
                    "walk_id": pd.Series([], dtype="int64"),
                    "step": pd.Series([], dtype="int64"),
                    "node": pd.Series([], dtype="int64"),
                    "prev": pd.Series([], dtype="int64"),
                })
            return pd.concat(outs, ignore_index=True)

        frontier = grouped_apply(unioned2, ["key"], pick,
                                 batch_format="pandas").materialize()
        visited.append(frontier.drop_columns(["prev"]))

    out = visited[0]
    for v in visited[1:]:
        out = out.union(v)
    return out


def skipgram_pairs(walks_ds, window: int = 2,
                   walk_col: str = "walk_id", step_col: str = "step",
                   node_col: str = "node"):
    """(center, context, offset) training pairs from a walk corpus —
    the windowing step between :func:`random_walks` /
    :func:`node2vec_walks` and a skip-gram embedding trainer
    (Mikolov et al. 2013): every ordered pair of nodes within
    ``window`` steps of each other on the same walk.

    Scale shape: ONE hash exchange on the walk id; inside each
    partition a single sort + 2·window vectorized shifts (each a
    same-walk-masked array offset) — pair count = O(rows · window),
    no per-walk Python."""

    def pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values([walk_col, step_col], kind="mergesort")
        w = pdf[walk_col].to_numpy(np.int64)
        s = pdf[step_col].to_numpy(np.int64)
        n = pdf[node_col].to_numpy(np.int64)
        outs = []
        for off in range(-window, window + 1):
            if off == 0:
                continue
            if off > 0:
                same = (w[: len(w) - off] == w[off:]) & (
                    s[off:] - s[: len(s) - off] == off)
                outs.append(pd.DataFrame({
                    "center": n[: len(n) - off][same],
                    "context": n[off:][same],
                    "offset": np.int64(off),
                }))
            else:
                k = -off
                same = (w[k:] == w[: len(w) - k]) & (
                    s[: len(s) - k] - s[k:] == off)
                outs.append(pd.DataFrame({
                    "center": n[k:][same],
                    "context": n[: len(n) - k][same],
                    "offset": np.int64(off),
                }))
        if not outs:
            return pd.DataFrame({
                "center": pd.Series([], dtype="int64"),
                "context": pd.Series([], dtype="int64"),
                "offset": pd.Series([], dtype="int64"),
            })
        return pd.concat(outs, ignore_index=True)

    return grouped_apply(
        walks_ds.select_columns([walk_col, step_col, node_col]),
        [walk_col], pairs,
        batch_format="pandas")


def skipgram_negatives(walks_ds, window: int = 2, k_neg: int = 3,
                       walk_col: str = "walk_id", step_col: str = "step",
                       node_col: str = "node", mult_a: int = 2654435761,
                       mult_b: int = 40503):
    """Skip-gram pairs WITH deterministic negative sampling — the
    complete word2vec training-data shape (Mikolov et al. 2013):
    every (center, context, offset) window pair from
    :func:`skipgram_pairs` plus ``k_neg`` negatives drawn from the
    unigram^0.75 visit-count distribution, picked by a HASH fraction
    against the node-ascending cumulative weight table (no RNG:
    reproducible, partition-independent, SQL-replayable).

    Scale shape: the walk exchange of :func:`skipgram_pairs`, ONE
    tiny node-count exchange, and a broadcast cumulative table
    (O(vocab) floats — node vocabulary bounded by contract, the same
    assumption the downstream embedding trainer makes); negatives are
    a vectorized repeat + searchsorted per batch."""
    import ray

    pairs = skipgram_pairs(walks_ds, window=window, walk_col=walk_col,
                           step_col=step_col, node_col=node_col)

    def count_nodes(batch: pa.Table) -> pa.Table:
        return (batch.select([node_col])
                .group_by(node_col).aggregate([([], "count_all")])
                .rename_columns(["node", "n"]))

    def fold_counts(t: pa.Table) -> pa.Table:
        return (t.group_by("node").aggregate([("n", "sum")])
                .rename_columns(["node", "n"]))

    counts = grouped_apply(
        combine(walks_ds, count_nodes),
        ["node"], fold_counts,
        batch_format="pyarrow").to_pandas().sort_values("node")
    nodes = counts["node"].to_numpy(np.int64)
    # weights quantized to integer micro-units so the cumulative
    # boundaries are EXACT on both the numpy and the SQL side (a float
    # cumsum would differ in the last ulp between engines and could
    # flip a pick at a bin boundary)
    w = np.floor(
        counts["n"].to_numpy(np.float64) ** 0.75 * 1e6).astype(np.int64)
    cum = np.cumsum(w)  # node-ascending, the order the oracle replays
    tot = float(cum[-1])
    table_ref = ray.put((nodes, cum, tot))

    def attach(batch: pa.Table) -> pa.Table:
        nds, cm, tt = ray.get(table_ref)
        n = batch.num_rows
        if n == 0:
            return pa.table({
                "center": pa.array([], pa.int64()),
                "context": pa.array([], pa.int64()),
                "offset": pa.array([], pa.int64()),
                "neg_rank": pa.array([], pa.int64()),
                "negative": pa.array([], pa.int64()),
            })
        c = batch.column("center").to_numpy(zero_copy_only=False)
        x = batch.column("context").to_numpy(zero_copy_only=False)
        off = batch.column("offset").to_numpy(zero_copy_only=False)
        pairhash = (c.astype(np.uint64) * np.uint64(1000003)
                    + x.astype(np.uint64) * np.uint64(10007)
                    + (off + window).astype(np.uint64))
        j = np.tile(np.arange(k_neg, dtype=np.uint64), n)
        ph = np.repeat(pairhash, k_neg)
        h = (ph * np.uint64(mult_a)
             + j * np.uint64(mult_b)) & np.uint64(0xFFFFFFFF)
        frac = (h.astype(np.float64) + 0.5) / 4294967296.0
        pick = np.searchsorted(cm, frac * tt, side="right")
        pick = np.minimum(pick, len(nds) - 1)
        return pa.table({
            "center": pa.array(np.repeat(c, k_neg)),
            "context": pa.array(np.repeat(x, k_neg)),
            "offset": pa.array(np.repeat(off, k_neg)),
            "neg_rank": pa.array(j.astype(np.int64)),
            "negative": pa.array(nds[pick]),
        })

    return pairs.map_batches(attach, batch_format="pyarrow")
