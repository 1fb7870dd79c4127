"""chunks → terms edge list (+ distinct Term node aggregate).

Stateless fan-out map_batches: each chunk explodes into
(chunk_id, term, term_type, position) rows — the HAS_TERM edge list
(/root/reference/graphrag/core/nlp_graph.py:60-104). ``position`` is the
0-based occurrence index within that chunk's n-gram stream of the same
type (engine addition; the reference's Cypher MERGE collapses repeats).

The distinct Term node table (Cypher ``MERGE (t:Term {text,type})``,
nlp_graph.py:93) is a two-level aggregate: per-batch partial distinct
(combiner) → groupby((term, term_type)) sum of per-chunk-distinct counts —
high-cardinality, roughly uniform keys, plain hash shuffle (SURVEY.md §7.4).
"""

from __future__ import annotations

import time
from itertools import chain

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import PipelineConfig
from ..functions.tokenize import STOPWORDS, word_tokenize
from ..schemas import TERMS_DICT
from ..state.lineage import LineageRecorder, first_fragment

_TYPE_NAMES = pa.array(["unigram", "bigram", "trigram"], pa.string())


def _dict_out() -> bool:
    """The terms table is always dict-encoded (``TERMS_DICT``); kept
    because the benchmark harness (``kgbench/trace.py``) calls it."""
    return True


def decode_terms(batch: pa.Table) -> pa.Table:
    """Per-block decode of the dict-encoded terms layout back to the
    logical string schema. Safe per BLOCK (one dictionary each);
    cross-block aggregation over dict columns is what Arrow 16 cannot
    do (``ArrowNotImplementedError: Unifying differing dictionaries``),
    which is why consumers call this at batch entry instead of the
    table carrying strings end-to-end."""
    cols = {}
    for name in batch.column_names:
        col = batch.column(name)
        if pa.types.is_dictionary(col.type):
            col = pc.cast(col, col.type.value_type)
        cols[name] = col
    return pa.table(cols)


def _positions_within(rows: np.ndarray, n_chunks: int) -> np.ndarray:
    """0-based occurrence index within each contiguous ascending group."""
    if len(rows) == 0:
        return np.array([], dtype=np.int64)
    counts = np.bincount(rows, minlength=n_chunks)
    cum = np.concatenate(([0], np.cumsum(counts)))
    return np.arange(len(rows), dtype=np.int64) - cum[rows]


def ngram_table(chunk_ids: list[str], texts: list[str],
                remove_stopwords: bool = True) -> pa.Table:
    """Vectorized chunk→terms explode, byte-identical to the scalar
    ``extract_ngrams`` loop (same row order: per chunk, unigrams then
    bigrams then trigrams, each position-ascending).

    The Python-semantics parts (``str.lower``, ``str.isalnum``, stopword
    membership) run once per UNIQUE token in the batch (factorize), not
    per occurrence; the n-gram joins are Arrow
    ``binary_join_element_wise`` kernels; order restoration is one
    ``np.lexsort`` over int keys."""
    n = len(texts)
    tok_lists = [word_tokenize(t) for t in texts]
    lengths = np.fromiter((len(t) for t in tok_lists), np.int64, count=n)
    total = int(lengths.sum())
    empty = TERMS_DICT.empty_table()
    if total == 0:
        return empty
    import pandas as pd

    flat = np.asarray(list(chain.from_iterable(tok_lists)), dtype=object)
    codes, uniques = pd.factorize(flat)
    # Python string semantics evaluated once per unique token — exact
    # parity with the scalar path on every corner of unicode
    lower_u = np.asarray([u.lower() for u in uniques], dtype=object)
    alnum_u = np.fromiter((u.isalnum() for u in uniques), bool,
                          count=len(uniques))
    stop_u = np.fromiter((u in STOPWORDS for u in lower_u), bool,
                         count=len(uniques))

    rows_all = np.repeat(np.arange(n, dtype=np.int64), lengths)
    keep = alnum_u[codes]
    rows = rows_all[keep]
    kept_codes = codes[keep]
    toks = pc.take(pa.array(lower_u, pa.string()),
                   pa.array(kept_codes, pa.int64()))

    # unigrams (stopword-filtered when enabled)
    if remove_stopwords:
        uni_mask = ~stop_u[kept_codes]
    else:
        uni_mask = np.ones(len(kept_codes), dtype=bool)
    uni_rows = rows[uni_mask]
    uni_terms = toks.filter(pa.array(uni_mask))

    # bigrams/trigrams from the UNFILTERED (alnum, lowered) token list
    if len(rows) >= 2:
        bi_valid = rows[:-1] == rows[1:]
        bi_all = pc.binary_join_element_wise(
            toks.slice(0, len(rows) - 1), toks.slice(1), " "
        )
        bi_terms = bi_all.filter(pa.array(bi_valid))
        bi_rows = rows[:-1][bi_valid]
    else:
        bi_terms = pa.array([], pa.string())
        bi_rows = np.array([], dtype=np.int64)
    if len(rows) >= 3:
        tri_valid = rows[:-2] == rows[2:]
        tri_all = pc.binary_join_element_wise(
            toks.slice(0, len(rows) - 2), toks.slice(1, len(rows) - 2),
            toks.slice(2), " "
        )
        tri_terms = tri_all.filter(pa.array(tri_valid))
        tri_rows = rows[:-2][tri_valid]
    else:
        tri_terms = pa.array([], pa.string())
        tri_rows = np.array([], dtype=np.int64)

    all_rows = np.concatenate([uni_rows, bi_rows, tri_rows])
    if len(all_rows) == 0:
        return empty
    rank = np.concatenate([
        np.zeros(len(uni_rows), np.int8),
        np.ones(len(bi_rows), np.int8),
        np.full(len(tri_rows), 2, np.int8),
    ])
    pos = np.concatenate([
        _positions_within(uni_rows, n),
        _positions_within(bi_rows, n),
        _positions_within(tri_rows, n),
    ])
    terms = pa.concat_arrays([
        uni_terms.combine_chunks() if isinstance(uni_terms, pa.ChunkedArray)
        else uni_terms,
        bi_terms.combine_chunks() if isinstance(bi_terms, pa.ChunkedArray)
        else bi_terms,
        tri_terms.combine_chunks() if isinstance(tri_terms, pa.ChunkedArray)
        else tri_terms,
    ])
    # reference row order: per chunk — unigram block, bigram block,
    # trigram block, positions ascending. Output is the dict-encoded
    # physical layout (TERMS_DICT): chunk_id indices point straight at
    # the batch's chunk_ids, term_type at the 3 type names, and term
    # dict-encodes once over the (already deduped-per-unique-token)
    # concat — the explode's blocks ride the object store and the
    # parquet checkpoint at ~1/3 the bytes of the plain-string layout.
    order = np.lexsort((pos, rank, all_rows))
    order_pa = pa.array(order, pa.int64())
    chunk_dict = pa.DictionaryArray.from_arrays(
        pa.array(all_rows[order].astype(np.int32), pa.int32()),
        pa.array(chunk_ids, pa.string()),
    )
    return pa.table(
        {
            "chunk_id": chunk_dict,
            "term": pc.take(pc.dictionary_encode(terms), order_pa),
            "term_type": pa.DictionaryArray.from_arrays(
                pa.array(rank[order].astype(np.int32), pa.int32()),
                _TYPE_NAMES,
            ),
            "position": pa.array(pos[order].astype(np.int32), pa.int32()),
        },
        schema=TERMS_DICT,
    )


def make_ngram_fn(cfg: PipelineConfig, lineage: LineageRecorder | None = None):
    remove_stopwords = cfg.remove_stopwords

    def ngram(batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        frag = first_fragment(batch, "chunk_id")
        out = ngram_table(
            batch.column("chunk_id").to_pylist(),
            batch.column("text").to_pylist(),
            remove_stopwords,
        )
        if lineage is not None:
            lineage.record(
                frag, batch.num_rows, out.num_rows, 0, (time.perf_counter() - t0) * 1e3
            )
        return out

    return ngram


# term_type rides the exchange as an int8 CODE (index into
# _TYPE_NAMES), not the repeated string — at 1 M pages the partials
# exchange ships ~80 M rows, and 0/1/2 as int8 is ~10 bytes/row less
# sort traffic than 'unigram'/'bigram'/'trigram' strings (r5 scaling
# lever; the reducer decodes codes back to names at output).
_PARTIAL_TERMS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("term_type", pa.int8()),        # index into _TYPE_NAMES
        ("chunk_id", pa.string()),       # null ⇒ pre-counted partial
        ("chunk_count", pa.int64()),
    ]
)


def partial_distinct_terms(batch: pa.Table) -> pa.Table:
    """Combiner: per-batch (term, term_type) → count of DISTINCT chunks
    (matches the Cypher MERGE edge semantics). Emits ~1 row per key per
    batch so the following groupby shuffles partials, not the edge list.

    EXACT under batch splits (r4 fix): a chunk whose rows straddle a
    batch boundary was distinct-counted once per batch and then
    double-counted by the downstream SUM — measured +5,495 over the
    true 221,406,734 distinct (term, type, chunk) triples at 250 k
    pages (kg_term_nodes has no SQL oracle and the e2e fixtures never
    split a chunk, so three rounds missed it). Explode rows are
    chunk-contiguous, so only a batch's FIRST and LAST chunk can span
    batches: their rows ship as raw distinct (term, term_type,
    chunk_id) triples (``chunk_id`` set, ``chunk_count`` 0) and dedup
    at the reducer; interior chunks — in exactly one batch by
    construction — pre-count as before (``chunk_id`` null)."""
    if batch.num_rows == 0:
        return _PARTIAL_TERMS_SCHEMA.empty_table()
    batch = decode_terms(batch.select(["term", "term_type", "chunk_id"]))
    # string type names → int8 codes for the ride (decoded at the
    # reducer); index_in is safe against parquet re-ordering dict
    # values, unlike trusting the block's dictionary indices
    codes = pc.cast(pc.index_in(batch.column("term_type"),
                                value_set=_TYPE_NAMES), pa.int8())
    batch = batch.set_column(
        batch.schema.get_field_index("term_type"), "term_type", codes)
    cid = batch.column("chunk_id")
    edge_ids = pa.array([cid[0].as_py(), cid[-1].as_py()], pa.string())
    on_edge = pc.is_in(cid, value_set=edge_ids)

    boundary = (
        batch.filter(on_edge)
        .group_by(["term", "term_type", "chunk_id"])
        .aggregate([])
    )
    boundary = boundary.append_column(
        "chunk_count", pa.array(np.zeros(boundary.num_rows, np.int64))
    )

    interior = (
        batch.filter(pc.invert(on_edge))
        .group_by(["term", "term_type", "chunk_id"])
        .aggregate([])
        .group_by(["term", "term_type"])
        .aggregate([("chunk_id", "count")])
        .rename_columns(["term", "term_type", "chunk_count"])
    )
    interior = interior.add_column(
        2, "chunk_id", pa.array([None] * interior.num_rows, pa.string())
    )
    return pa.concat_tables(
        [boundary.select(_PARTIAL_TERMS_SCHEMA.names).cast(_PARTIAL_TERMS_SCHEMA),
         interior.select(_PARTIAL_TERMS_SCHEMA.names).cast(_PARTIAL_TERMS_SCHEMA)]
    )


def term_nodes(terms_ds, cfg: PipelineConfig,
               batch_size: int = 262144):
    """terms edge list → distinct Term node table with chunk_count.

    Partition-wise (stages/shuffle.py) rather than
    ``groupby([term, term_type]).aggregate``: a sort-based shuffle keyed on
    ~10M short STRINGS is the pipeline's most expensive exchange (~28 s at
    8 CPUs); hashing keys to an int partition column and doing the string
    groupby locally per partition cuts the exchange to an int sort. Both
    sides of the exchange stay Arrow (zero-copy from the object store;
    the local aggregate is ``pa.Table.group_by`` — measured against the
    pandas round-trip in BASELINE.md, VERDICT r2 finding 6)."""
    from .shuffle import combine, grouped_apply

    partials = combine(terms_ds, partial_distinct_terms,
                       batch_size=batch_size)

    def agg_partition(batch: pa.Table) -> pa.Table:
        cid = batch.column("chunk_id")
        pre = (
            batch.filter(pc.is_null(cid))
            .group_by(["term", "term_type"])
            .aggregate([("chunk_count", "sum")])
            .rename_columns(["term", "term_type", "chunk_count"])
        )
        # boundary triples: dedup across batches, THEN count — the
        # exactness half of the combiner contract (see
        # partial_distinct_terms)
        bnd = (
            batch.filter(pc.is_valid(cid))
            .group_by(["term", "term_type", "chunk_id"])
            .aggregate([])
            .group_by(["term", "term_type"])
            .aggregate([("chunk_id", "count")])
            .rename_columns(["term", "term_type", "chunk_count"])
        )
        out = (
            pa.concat_tables([pre, bnd])
            .group_by(["term", "term_type"])
            .aggregate([("chunk_count", "sum")])
            .rename_columns(["term", "term_type", "chunk_count"])
        )
        # int8 codes rode the exchange; the output table speaks strings
        names = pc.take(_TYPE_NAMES,
                        pc.cast(out.column("term_type"), pa.int32()))
        return out.set_column(1, "term_type", names)

    return grouped_apply(partials, ["term", "term_type"], agg_partition,
                         batch_format="pyarrow")
