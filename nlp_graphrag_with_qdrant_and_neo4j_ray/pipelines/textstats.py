"""Text-analysis pipelines over a documents table (training-data prep)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.rounding import sql_round
from ..functions.textstats import (
    bpe_ish_token_count,
    detect_language,
    fingerprint64,
    quality_scores,
    ws_token_count,
)
from ..stages.shuffle import combine, grouped_apply


def token_counts(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """(id, ws_tokens, bpe_ish_tokens) per document."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        return pa.table(
            {
                id_col: batch.column(id_col),
                "ws_tokens": pa.array([ws_token_count(t) for t in texts], pa.int64()),
                "bpe_ish_tokens": pa.array(
                    [bpe_ish_token_count(t) for t in texts], pa.int64()
                ),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow", batch_size=8192)


def language_id(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """(id, detected_lang) via the function-word heuristic."""

    def fn(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col),
                "detected_lang": pa.array(
                    [detect_language(t) for t in batch.column(text_col).to_pylist()],
                    pa.string(),
                ),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow", batch_size=8192)


def quality(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """(id, n_chars, n_words, ratios..., quality) per document."""

    def fn(batch: pa.Table) -> pa.Table:
        rows = [quality_scores(t) for t in batch.column(text_col).to_pylist()]
        out = {id_col: batch.column(id_col)}
        for col in (
            "n_chars", "n_words", "mean_word_len", "alpha_ratio", "punct_ratio",
            "digit_ratio", "stopword_ratio", "quality",
        ):
            typ = pa.int64() if col in ("n_chars", "n_words") else pa.float64()
            out[col] = pa.array([r[col] for r in rows], typ)
        return pa.table(out)

    return docs_ds.map_batches(fn, batch_format="pyarrow", batch_size=8192)


def md5_fingerprints(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """(id, fingerprint:string) — md5 hex of the whitespace-normalized
    text. The SQL-expressible content fingerprint (oracled in DuckDB as
    md5 over the same normalization); the order-sensitive rolling
    fingerprint stays in :func:`fingerprints`."""
    import hashlib

    def fn(batch: pa.Table) -> pa.Table:
        vals = [
            hashlib.md5(" ".join(t.split()).encode("utf-8")).hexdigest()
            for t in batch.column(text_col).to_pylist()
        ]
        return pa.table(
            {id_col: batch.column(id_col),
             "fingerprint": pa.array(vals, pa.string())}
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow", batch_size=8192)


def fingerprints(docs_ds, window: int = 8,
                 id_col: str = "doc_id", text_col: str = "text"):
    """(id, fingerprint:int64 bit-view) rolling-hash document fingerprint."""

    def fn(batch: pa.Table) -> pa.Table:
        vals = [
            np.uint64(fingerprint64(t, window)).astype(np.int64)
            for t in batch.column(text_col).to_pylist()
        ]
        return pa.table(
            {id_col: batch.column(id_col), "fingerprint": pa.array(vals, pa.int64())}
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow", batch_size=8192)


def bm25_rank(docs_ds, terms: list[str], id_col: str = "doc_id",
              text_col: str = "text", k1: float = 1.2, b: float = 0.75,
              topk: int = 10):
    """Distributed BM25 ranking of a documents table for a fixed query
    — the scoring rule the serving-path term index precomputes
    (stages/termindex.py), here over whitespace tokens so a DuckDB
    oracle can pin the MATH exactly: Lucene-style
    ``idf = ln((N - df + .5)/(df + .5) + 1)``,
    ``tf·(k1+1)/(tf + k1·(1 - b + b·dl/avgdl))``.

    Scale shape: ONE vectorized pass over the text produces a narrow
    per-document stats table (dl + tf/has per query term — integers
    only, materialized so the two consumers don't re-tokenize); global
    stats (N, Σdl, df per term) reduce to a constant-size aggregate;
    scoring + per-batch top-k truncation keep the final sort at
    O(batches·topk) rows. Documents never shuffle."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    terms = list(terms)

    def tf_rows(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch.column(text_col), " ")
        lens = np.asarray(
            pc.list_value_length(split).to_numpy(zero_copy_only=False),
            np.int64,
        )
        nrows = batch.num_rows
        doc_idx = np.repeat(np.arange(nrows), lens)
        flat = pc.list_flatten(split)
        nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        toks = flat.to_numpy(zero_copy_only=False)
        cols = {
            id_col: batch.column(id_col),
            "dl": pa.array(
                np.bincount(doc_idx[nonempty], minlength=nrows), pa.int64()
            ),
        }
        for j, t in enumerate(terms):
            m = nonempty & (toks == t)
            tf = np.bincount(doc_idx[m], minlength=nrows)
            cols[f"tf{j}"] = pa.array(tf, pa.int64())
            cols[f"has{j}"] = pa.array((tf > 0).astype(np.int64))
        return pa.table(cols)

    narrow = docs_ds.map_batches(
        tf_rows, batch_format="pyarrow", batch_size=8192
    ).materialize()

    aggs = [Count(), Sum("dl")] + [Sum(f"has{j}") for j in range(len(terms))]
    st = narrow.aggregate(*aggs)
    n_docs = float(st["count()"])
    avgdl = float(st["sum(dl)"]) / n_docs
    idf = np.array([
        np.log((n_docs - st[f"sum(has{j})"] + 0.5)
               / (st[f"sum(has{j})"] + 0.5) + 1.0)
        for j in range(len(terms))
    ])

    def score(batch: pa.Table) -> pa.Table:
        dl = batch.column("dl").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        norm = k1 * (1.0 - b + b * dl / avgdl)
        s = np.zeros(len(dl))
        anyhit = np.zeros(len(dl), dtype=bool)
        for j in range(len(terms)):
            tf = batch.column(f"tf{j}").to_numpy(
                zero_copy_only=False
            ).astype(np.float64)
            s += idf[j] * tf * (k1 + 1.0) / (tf + norm)
            anyhit |= tf > 0
        out = pa.table({
            id_col: batch.column(id_col).filter(pa.array(anyhit)),
            "score": pa.array(s[anyhit], pa.float64()),
        })
        # local truncation: only each batch's top-k ride the global sort
        if out.num_rows > topk:
            od = out.to_pandas().sort_values(
                ["score", id_col], ascending=[False, True],
                kind="stable",
            ).head(topk)
            out = pa.Table.from_pandas(od, preserve_index=False)
        return out

    ranked = narrow.map_batches(score, batch_format="pyarrow") \
        .sort(["score", id_col], descending=[True, False]).limit(topk)

    def round6(batch: pa.Table) -> pa.Table:
        return pa.table({
            id_col: batch.column(id_col),
            "score": sql_round(batch.column("score"), 6),
        })

    return ranked.map_batches(round6, batch_format="pyarrow")


def bpe_pair_counts(docs_ds, k: int = 20, id_col: str = "doc_id",
                    text_col: str = "text"):
    """The counting step of BPE tokenizer training: global frequencies
    of ADJACENT CHARACTER PAIRS inside whitespace tokens, top-``k`` by
    (count desc, pair asc).  One merge round of Sennrich-style BPE is
    exactly "take the argmax of this table"; iterating alternates this
    count with a vocabulary rewrite.

    Scale shape: each batch flattens its tokens once and counts pairs
    with ONE vectorized pass per character offset (loop bounded by the
    longest token, not row count) and one local groupby — only
    (pair, partial_count) rows leave the batch; one hash exchange on
    the pair sums partials; per-partition top-k truncation bounds the
    final sort.  Pure map + one exchange; the corpus never reshuffles."""
    import pyarrow.compute as pc

    def batch_pair_counts(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch.column(text_col), " ")
        flat = pc.list_flatten(split)
        toks = flat.filter(pc.greater(pc.utf8_length(flat), 1))
        if len(toks) == 0:
            return pa.table({"pair": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        lens = pc.utf8_length(toks).to_numpy(zero_copy_only=False)
        maxlen = int(lens.max())
        parts = []
        for off in range(maxlen - 1):
            # tokens long enough to have a pair at this offset
            sub = toks.filter(pa.array(lens > off + 1))
            parts.append(pc.utf8_slice_codeunits(sub, off, off + 2))
        pairs = pa.concat_arrays(
            [p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p
             for p in parts]
        )
        agg = pa.table({"pair": pairs}).group_by(["pair"]).aggregate(
            [([], "count_all")]
        )
        return agg.rename_columns(["pair", "n"])

    def merge(t: pa.Table) -> pa.Table:
        g = t.group_by(["pair"]).aggregate([("n", "sum")])
        g = pa.table({
            "pair": g.column("pair"),
            "n": pc.cast(g.column("n_sum"), pa.int64()),
        })
        # local truncation: each partition only forwards its top-k
        pdf = g.to_pandas().sort_values(
            ["n", "pair"], ascending=[False, True], kind="stable"
        ).head(k)
        return pa.Table.from_pandas(pdf, preserve_index=False)

    summed = grouped_apply(
        docs_ds.map_batches(batch_pair_counts, batch_format="pyarrow"),
        ["pair"], merge,
        batch_format="pyarrow",
    )
    return summed.sort(["n", "pair"], descending=[True, False]).limit(k)


def token_pmi(docs_ds, vocab: list[str], min_pairs: int = 1,
              id_col: str = "doc_id", text_col: str = "text",
              ndigits: int = 6):
    """Document-level PMI for every pair of a FIXED vocabulary (e.g.
    the corpus's top tokens from ``heavy_hitters``):
    ``pmi(a,b) = ln(N · df(a,b) / (df(a) · df(b)))`` over document
    presence (distinct co-occurrence, the standard word-association
    table).

    Scale shape: the vocabulary broadcasts in the closure; each batch
    reduces its documents to a |V|-bit presence matrix and emits ONE
    |V|×|V| co-occurrence count matrix (an integer outer product —
    sufficient statistics), so the exchange is a constant-size
    aggregate regardless of corpus size; the driver folds the tiny
    matrices and computes PMI. No pair explosion, no shuffle of text.
    Emits (tok_a, tok_b, n_pairs, pmi) for a < b with
    ``df(a,b) >= min_pairs``."""
    import pyarrow.compute as pc

    vocab = list(vocab)
    v = len(vocab)
    vmap = {t: i for i, t in enumerate(vocab)}

    def partial(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch.column(text_col), " ")
        lens = np.asarray(
            pc.list_value_length(split).to_numpy(zero_copy_only=False),
            np.int64,
        )
        doc_idx = np.repeat(np.arange(batch.num_rows), lens)
        toks = pc.list_flatten(split).to_numpy(zero_copy_only=False)
        present = np.zeros((batch.num_rows, v), dtype=np.int64)
        for j, t in enumerate(vocab):
            m = toks == t
            present[doc_idx[m], j] = 1
        co = present.T @ present  # v×v, diagonal = df(token)
        return pa.table({
            "i": pa.array([0], pa.int64()),
            "n_docs": pa.array([batch.num_rows], pa.int64()),
            "co": pa.array([co.ravel().tobytes()], pa.binary()),
        })

    co = np.zeros((v, v), dtype=np.int64)
    n_docs = 0
    # constant-size per-batch stats stream to the driver (v² ints)
    for part in docs_ds.map_batches(
            partial, batch_format="pyarrow").iter_batches(
            batch_size=None, batch_format="pyarrow"):
        for nd, buf in zip(part.column("n_docs").to_pylist(),
                           part.column("co").to_pylist()):
            n_docs += nd
            co += np.frombuffer(buf, dtype=np.int64).reshape(v, v)

    ia, ib = np.triu_indices(v, k=1)
    npairs = co[ia, ib]
    keep = npairs >= min_pairs
    ia, ib, npairs = ia[keep], ib[keep], npairs[keep]
    df_a = co[ia, ia].astype(np.float64)
    df_b = co[ib, ib].astype(np.float64)
    pmi = np.log(n_docs * npairs.astype(np.float64) / (df_a * df_b))
    pmi = sql_round(pmi, ndigits)
    import ray.data

    # emit pairs in lexicographic (tok_a < tok_b) orientation however
    # the caller ordered the vocabulary
    ta = [vocab[i] for i in ia]
    tb = [vocab[i] for i in ib]
    lo = [min(a, b) for a, b in zip(ta, tb)]
    hi = [max(a, b) for a, b in zip(ta, tb)]
    return ray.data.from_arrow(pa.table({
        "tok_a": pa.array(lo, pa.string()),
        "tok_b": pa.array(hi, pa.string()),
        "n_pairs": pa.array(npairs, pa.int64()),
        "pmi": pa.array(pmi, pa.float64()),
    }))


def _ws_explode(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Vectorized (id, tok) explode on single-space splits — the same
    tokenization contract as the heavy-hitter queries (SQL
    ``string_split(text, ' ')`` with empties dropped)."""
    import pyarrow.compute as pc

    toks = pc.split_pattern(batch.column(text_col), " ")
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    ids = np.repeat(
        batch.column(id_col).to_numpy(zero_copy_only=False), lens
    )
    flat = pc.list_flatten(toks)
    t = pa.table({id_col: pa.array(ids), "tok": flat})
    return t.filter(pc.not_equal(flat, ""))


def _tf_table(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Per-document term frequencies (id, tok, tf) — exact within the
    map because a document's tokens all live in its own row, so no
    exchange is needed and the table is bounded by
    distinct-tokens-per-doc (far smaller than token occurrences)."""
    t = _ws_explode(batch, id_col, text_col)
    agg = t.group_by([id_col, "tok"]).aggregate([([], "count_all")])
    return agg.rename_columns([id_col, "tok", "tf"])


def unigram_logprob(docs_ds, id_col: str = "doc_id", text_col: str = "text",
                    ndigits: int = 6):
    """Per-document mean unigram log2-probability — the corpus-level
    language-model score filters like CCNet/Gopher threshold on
    (documents whose tokens are globally rare score low).

    Scale shape: TWO exchanges and no broadcast vocabulary.  The text
    collapses to per-document (id, tok, tf) rows inside the map;
    exchange 1 hash-partitions that narrow table on the token — every
    row of a token is then co-located, so the corpus count c(tok) is
    computed LOCALLY inside the partition and joined back in place (no
    separate count exchange, the count table never ships).  Exchange 2
    reduces per-document sufficient stats (Σtf, Σtf·log2(c/total)); the
    mean over occurrences equals the tf-weighted mean exactly.  The
    corpus token total is one scalar aggregate off the materialized tf
    table (object-store resident, spills under pressure)."""
    import pyarrow.compute as pc

    tf = docs_ds.map_batches(
        lambda b: _tf_table(b, id_col, text_col), batch_format="pyarrow"
    ).materialize()
    total = float(tf.sum("tf") or 0.0)

    def per_token_partition(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["tok"]).aggregate([("tf", "sum")])
        idx = pc.index_in(tbl.column("tok"),
                          value_set=g.column("tok").combine_chunks())
        c = pc.take(g.column("tf_sum"), idx).to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        tfv = tbl.column("tf").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        s = tfv * np.log2(c / total)
        return pa.table({
            id_col: tbl.column(id_col),
            "__n": pc.cast(tbl.column("tf"), pa.int64()),
            "__s": pa.array(s, pa.float64()),
        })

    scored = grouped_apply(tf, ["tok"], per_token_partition,
                           batch_format="pyarrow")

    def mean_partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by([id_col]).aggregate(
            [("__n", "sum"), ("__s", "sum")]
        )
        return agg.rename_columns([id_col, "__n", "__s"])

    def mean_reduce(batch: pa.Table) -> pa.Table:
        g = batch.group_by([id_col]).aggregate(
            [("__n", "sum"), ("__s", "sum")]
        )
        n = g.column("__n_sum").to_numpy(zero_copy_only=False)
        s = g.column("__s_sum").to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: g.column(id_col),
            "n_tokens": pc.cast(g.column("__n_sum"), pa.int64()),
            "mean_logprob": pa.array(sql_round(s / n, ndigits),
                                     pa.float64()),
        })

    return grouped_apply(
        combine(scored, mean_partial),
        [id_col], mean_reduce,
        batch_format="pyarrow",
    )


def tfidf_top_terms(docs_ds, k: int = 5, id_col: str = "doc_id",
                    text_col: str = "text", ndigits: int = 6):
    """Per-document top-``k`` terms by TF-IDF (smooth idf
    ``ln((1+N)/(1+df)) + 1``, sklearn's convention) — the keyword
    extraction / topic-labeling primitive.

    Scale shape: tf is exact inside the map (a document's tokens live
    in its own row — no exchange); ONE token-keyed exchange computes df
    LOCALLY within each token partition (the (doc, tok) rows of a token
    are all co-located and globally unique, so df is the partition-local
    row count per token — no df table ever ships) and scores in place;
    the final per-doc top-k rides :func:`relational.window_topk`'s
    combiner (exchange 2, at most k rows per (batch, doc)).  Ranking
    uses the ROUNDED score so the DuckDB oracle's float path agrees
    bit-for-bit."""
    import pyarrow.compute as pc

    from .relational import window_topk

    n_docs = docs_ds.count()
    tf = docs_ds.map_batches(
        lambda b: _tf_table(b, id_col, text_col), batch_format="pyarrow"
    )

    def per_token_partition(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["tok"]).aggregate([([], "count_all")])
        idx = pc.index_in(tbl.column("tok"),
                          value_set=g.column("tok").combine_chunks())
        dfv = pc.take(g.column("count_all"), idx).to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        tfv = tbl.column("tf").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        idf = np.log((1.0 + n_docs) / (1.0 + dfv)) + 1.0
        return pa.table({
            id_col: tbl.column(id_col),
            "tok": tbl.column("tok"),
            "tf": pc.cast(tbl.column("tf"), pa.int64()),
            "score": pa.array(sql_round(tfv * idf, ndigits), pa.float64()),
        })

    scored = grouped_apply(tf, ["tok"], per_token_partition,
                           batch_format="pyarrow")
    return window_topk(scored, [id_col], "score", k, tie_col="tok")


def _bigram_tf_table(batch: pa.Table, id_col: str, text_col: str) -> pa.Table:
    """Per-document bigram frequencies (id, a, b, tf) — exact within
    the map (a document's text lives in its own row); pairs come from
    one shifted comparison over the filtered token explode, so the
    table is bounded by distinct-bigrams-per-doc."""
    t = _ws_explode(batch, id_col, text_col)
    if t.num_rows < 2:
        return pa.table({id_col: pa.array([], t.schema.field(id_col).type),
                         "a": pa.array([], pa.string()),
                         "b": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64())})
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    toks = t.column("tok").to_numpy(zero_copy_only=False)
    same = ids[1:] == ids[:-1]
    df = pd.DataFrame({
        id_col: ids[:-1][same],
        "a": toks[:-1][same],
        "b": toks[1:][same],
    })
    agg = df.groupby([id_col, "a", "b"], sort=False, as_index=False).size()
    agg = agg.rename(columns={"size": "tf"})
    return pa.Table.from_pandas(agg, preserve_index=False)


def bigram_logprob(docs_ds, id_col: str = "doc_id", text_col: str = "text",
                   ndigits: int = 6):
    """Per-document mean bigram CONDITIONAL log2-probability
    log2 p(b|a) = log2(c(a,b) / c(a,·)) — the next LM-filter step after
    :func:`unigram_logprob`: word-salad text that passes a unigram
    filter (all-common tokens) scores low here because its token
    TRANSITIONS are globally rare.

    Scale shape: TWO exchanges, no broadcast model.  The text collapses
    to per-document (id, a, b, tf) bigram rows inside the map; exchange
    1 hash-partitions on the bigram's FIRST token — every bigram
    starting with `a` is then co-located, so BOTH the bigram count
    c(a,b) and the context count c(a,·) are partition-local and join in
    place (neither count table ever ships).  Exchange 2 reduces
    per-document sufficient stats; mean over bigram occurrences.
    Documents with <2 tokens have no bigrams and are absent (the SQL
    convention)."""
    import pyarrow.compute as pc

    tf = docs_ds.map_batches(
        lambda b: _bigram_tf_table(b, id_col, text_col),
        batch_format="pyarrow",
    )

    def per_context_partition(tbl: pa.Table) -> pa.Table:
        gab = tbl.group_by(["a", "b"]).aggregate([("tf", "sum")])
        ga = tbl.group_by(["a"]).aggregate([("tf", "sum")])
        # join both counts back positionally via index_in (arrow-native)
        kab = pc.binary_join_element_wise(
            gab.column("a"), gab.column("b"), "\x1f")
        krow = pc.binary_join_element_wise(
            tbl.column("a"), tbl.column("b"), "\x1f")
        iab = pc.index_in(krow, value_set=kab.combine_chunks())
        cab = pc.take(gab.column("tf_sum"), iab).to_numpy(
            zero_copy_only=False).astype(np.float64)
        ia = pc.index_in(tbl.column("a"),
                         value_set=ga.column("a").combine_chunks())
        ca = pc.take(ga.column("tf_sum"), ia).to_numpy(
            zero_copy_only=False).astype(np.float64)
        tfv = tbl.column("tf").to_numpy(zero_copy_only=False).astype(
            np.float64)
        s = tfv * np.log2(cab / ca)
        return pa.table({
            id_col: tbl.column(id_col),
            "__n": pc.cast(tbl.column("tf"), pa.int64()),
            "__s": pa.array(s, pa.float64()),
        })

    scored = grouped_apply(tf, ["a"], per_context_partition,
                           batch_format="pyarrow")

    def mean_partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by([id_col]).aggregate(
            [("__n", "sum"), ("__s", "sum")]
        )
        return agg.rename_columns([id_col, "__n", "__s"])

    def mean_reduce(batch: pa.Table) -> pa.Table:
        g = batch.group_by([id_col]).aggregate(
            [("__n", "sum"), ("__s", "sum")]
        )
        n = g.column("__n_sum").to_numpy(zero_copy_only=False)
        s = g.column("__s_sum").to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: g.column(id_col),
            "n_bigrams": pc.cast(g.column("__n_sum"), pa.int64()),
            "mean_logprob": pa.array(sql_round(s / n, ndigits),
                                     pa.float64()),
        })

    return grouped_apply(
        combine(scored, mean_partial),
        [id_col], mean_reduce,
        batch_format="pyarrow",
    )


def ccnet_ppl_buckets(docs_ds, id_col: str = "doc_id",
                      text_col: str = "text", lang_col: str = "lang"):
    """CCNet-style per-language perplexity bucketing (Wenzek et al.
    2020): score every document with the corpus unigram LM
    (:func:`unigram_logprob`), then split each LANGUAGE's documents
    into equal-size head / middle / tail terciles by ascending
    perplexity — descending mean log-probability, ties by document id
    (exact SQL ``NTILE(3)`` semantics via ``relational.window_ntile``).
    ``head`` is the third of a language's documents the LM finds most
    fluent — the slice CCNet keeps for training.

    Scale shape: ``unigram_logprob``'s token-keyed exchanges, ONE
    doc-keyed co-partitioned join to re-attach the language, and the
    per-language ntile exchange — each language's rows land in one
    partition (languages are few and near-balanced on web corpora; a
    corpus-global tercile would instead need an order-statistic
    cutoff pass).  Output: ``(lang, mean_logprob, id_col,
    ppl_bucket)`` — one row per scored document."""
    import pyarrow.compute as pc

    from .relational import inner_join, window_ntile

    scores = unigram_logprob(docs_ds, id_col, text_col)
    langs = docs_ds.map_batches(
        lambda b: b.select([id_col, lang_col]), batch_format="pyarrow"
    )
    joined = inner_join(scores, langs, id_col, id_col,
                        [id_col, lang_col])
    tiled = window_ntile(joined, [lang_col], "mean_logprob", 3,
                         tie_col=id_col)
    names = pa.array(["tail", "middle", "head"])

    def label(batch: pa.Table) -> pa.Table:
        idx = pc.subtract(pc.cast(batch.column("tile"), pa.int64()), 1)
        return batch.drop_columns(["tile"]).append_column(
            "ppl_bucket", pc.take(names, idx))

    return tiled.map_batches(label, batch_format="pyarrow")


_SCRIPTS = (("latin", r"\p{Latin}"), ("cyrillic", r"\p{Cyrillic}"),
            ("han", r"\p{Han}"), ("arabic", r"\p{Arabic}"))


def script_fractions(docs_ds, id_col: str = "doc_id",
                     text_col: str = "text", ndigits: int = 6):
    """Unicode-script composition per document — the curation check
    that a document's characters agree with its language label (a
    "en" doc that is 60% Han is a mislabel; script filters are
    standard in CCNet-family pipelines).  Counts per script ride RE2's
    own script property (``\\p{Latin}`` …) through
    ``pc.count_substring_regex`` — the ORACLE uses the same classes in
    DuckDB (also RE2), so the two sides share the exact Unicode
    tables.  Pure vectorized map stage, one regex pass per script.

    Output per doc: ``n_chars:int64``, ``<script>_frac`` per script +
    ``digit_frac`` (rounded, denominators of 0 → 0.0) and
    ``dominant_script`` — the max-count script, ties broken by the
    fixed order latin > cyrillic > han > arabic; ``none`` when no
    script character occurs."""
    import pyarrow.compute as pc

    def fracs(batch: pa.Table) -> pa.Table:
        texts = pc.fill_null(batch.column(text_col), "")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        n = pc.utf8_length(texts).to_numpy(
            zero_copy_only=False).astype(np.int64)
        denom = np.maximum(n, 1).astype(np.float64)
        counts = {
            name: pc.count_substring_regex(texts, rx).to_numpy(
                zero_copy_only=False).astype(np.int64)
            for name, rx in _SCRIPTS
        }
        digits = pc.count_substring_regex(texts, r"[0-9]").to_numpy(
            zero_copy_only=False).astype(np.int64)
        stack = np.stack([counts[name] for name, _ in _SCRIPTS])
        best = np.argmax(stack, axis=0)  # first max wins = fixed order
        names = np.array([name for name, _ in _SCRIPTS] + ["none"])
        dominant = names[np.where(stack.max(axis=0) > 0, best,
                                  len(_SCRIPTS))]
        out = {id_col: batch.column(id_col),
               "n_chars": pa.array(n)}
        for name, _ in _SCRIPTS:
            out[f"{name}_frac"] = pa.array(
                sql_round(counts[name] / denom, ndigits))
        out["digit_frac"] = pa.array(sql_round(digits / denom, ndigits))
        out["dominant_script"] = pa.array(dominant, pa.string())
        return pa.table(out)

    return docs_ds.map_batches(fracs, batch_format="pyarrow")


def _tf_flag_table(batch: pa.Table, id_col: str, text_col: str,
                   flag_col: str) -> pa.Table:
    """Per-document term frequencies carrying the document's
    target-corpus flag: (id, tok, tf, is_t).  Exact within the map —
    a document's tokens all live in its own row — and the flag is
    constant per document, so grouping by (id, tok, flag) equals
    grouping by (id, tok)."""
    import pyarrow.compute as pc

    toks = pc.split_pattern(batch.column(text_col), " ")
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    ids = np.repeat(
        batch.column(id_col).to_numpy(zero_copy_only=False), lens
    )
    flags = np.repeat(
        batch.column(flag_col).to_numpy(zero_copy_only=False), lens
    )
    flat = pc.list_flatten(toks)
    t = pa.table({
        id_col: pa.array(ids),
        "is_t": pa.array(flags, pa.bool_()),
        "tok": flat,
    }).filter(pc.not_equal(flat, ""))
    agg = t.group_by([id_col, "is_t", "tok"]).aggregate([([], "count_all")])
    return agg.rename_columns([id_col, "is_t", "tok", "tf"])


def dsir_logratio(docs_ds, target_col: str = "is_target",
                  id_col: str = "doc_id", text_col: str = "text",
                  ndigits: int = 6):
    """DSIR importance weights (Xie et al. 2023, "Data Selection for
    Language Models via Importance Resampling"): score EVERY document
    with the per-token mean log-likelihood ratio
    ``ln p_target(tok) / ln p_raw(tok)`` between two unigram LMs — one
    trained on the rows where ``target_col`` is true (the small
    high-quality target corpus), one on the rest (the raw web crawl).
    Both LMs are Laplace-smoothed over the SHARED vocabulary, so
    out-of-target tokens still get a finite score.  Resampling itself
    is then a threshold / weighted sample over the returned weights
    (``docs_hash_sample`` shows the deterministic sampler shape).

    Output: one row per document — (id, n_tokens, dsir_llr) with the
    tf-weighted per-token mean rounded to ``ndigits`` (float-sum order
    differences vanish at 1e-6 like the other LM scores).

    Scale shape: the text collapses to per-document (id, tok, tf, is_t)
    rows inside the map; the vocabulary size V and the two corpus
    totals are bounded folds (V = sum of per-partition local distinct
    counts over ONE token-keyed exchange — distinct tokens are disjoint
    across hash partitions; N_T/N_R are two scalar column sums off the
    materialized tf table).  Scoring is a second token-keyed exchange
    where each token's c_T/c_R are partition-local sums joined back in
    place — no count table and no broadcast vocabulary ever ships
    (DSIR's hashed-feature trick bounds the MODEL; partitioning bounds
    it here without the hash collisions).  The per-doc mean reduces
    through a sufficient-stats combiner on a third, document-keyed
    exchange."""
    import pyarrow.compute as pc

    tf = docs_ds.map_batches(
        lambda b: _tf_flag_table(b, id_col, text_col, target_col),
        batch_format="pyarrow",
    ).materialize()

    def batch_totals(b: pa.Table) -> pa.Table:
        tfv = b.column("tf").to_numpy(zero_copy_only=False)
        is_t = b.column("is_t").to_numpy(zero_copy_only=False)
        return pa.table({
            "nt": pa.array([int(tfv[is_t].sum())], pa.int64()),
            "nr": pa.array([int(tfv[~is_t].sum())], pa.int64()),
        })

    totals = tf.map_batches(batch_totals, batch_format="pyarrow")
    n_t = float(totals.sum("nt") or 0.0)
    n_r = float(totals.sum("nr") or 0.0)

    def local_vocab(tbl: pa.Table) -> pa.Table:
        n = pc.count_distinct(tbl.column("tok")).as_py()
        return pa.table({"v": pa.array([int(n)], pa.int64())})

    vocab = grouped_apply(tf, ["tok"], local_vocab,
                          batch_format="pyarrow")
    v = float(vocab.sum("v") or 0.0)

    def per_token_partition(tbl: pa.Table) -> pa.Table:
        is_t = tbl.column("is_t").to_numpy(zero_copy_only=False)
        tfv = tbl.column("tf").to_numpy(zero_copy_only=False).astype(
            np.float64
        )
        df = pd.DataFrame({
            "tok": tbl.column("tok").to_numpy(zero_copy_only=False),
            "ct": np.where(is_t, tfv, 0.0),
            "cr": np.where(is_t, 0.0, tfv),
        })
        g = df.groupby("tok", sort=False)[["ct", "cr"]].sum()
        ct = g["ct"].to_numpy()[g.index.get_indexer(df["tok"])]
        cr = g["cr"].to_numpy()[g.index.get_indexer(df["tok"])]
        s = tfv * (np.log((ct + 1.0) / (n_t + v))
                   - np.log((cr + 1.0) / (n_r + v)))
        return pa.table({
            id_col: tbl.column(id_col),
            "__n": pc.cast(tbl.column("tf"), pa.int64()),
            "__s": pa.array(s, pa.float64()),
        })

    scored = grouped_apply(tf, ["tok"], per_token_partition,
                           batch_format="pyarrow")

    def mean_partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by([id_col]).aggregate(
            [("__n", "sum"), ("__s", "sum")]
        )
        return agg.rename_columns([id_col, "__n", "__s"])

    def mean_reduce(batch: pa.Table) -> pa.Table:
        g = batch.group_by([id_col]).aggregate(
            [("__n", "sum"), ("__s", "sum")]
        )
        n = g.column("__n_sum").to_numpy(zero_copy_only=False)
        s = g.column("__s_sum").to_numpy(zero_copy_only=False)
        return pa.table({
            id_col: g.column(id_col),
            "n_tokens": pc.cast(g.column("__n_sum"), pa.int64()),
            "dsir_llr": pa.array(sql_round(s / n, ndigits), pa.float64()),
        })

    return grouped_apply(
        combine(scored, mean_partial),
        [id_col], mean_reduce,
        batch_format="pyarrow",
    )


def flagged_word_ratio(docs_ds, words: list[str], id_col: str = "doc_id",
                       text_col: str = "text", ndigits: int = 6):
    """Flagged-word quality signal (the C4 "bad words" / RedPajama-v2
    ``rps_doc_frac_*`` family): per document, the fraction of
    lowercased whitespace tokens that appear in the caller's word list
    (NSFW terms, spam vocabulary, …; the list is caller data, like the
    URL blocklist).  Output: ``(id, n_tokens, n_flagged,
    flagged_ratio)`` — zero-token docs keep ratio 0.0 so every input
    row appears.

    Scale shape: pure map stage — one vectorized split + ``pc.is_in``
    against the broadcast-by-closure word set, per-doc folds via
    ``np.bincount``; no exchange, no per-row Python."""
    wl = pa.array(sorted({w.lower() for w in words}), pa.string())

    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        split = pc.split_pattern(batch.column(text_col), " ")
        lens = pc.list_value_length(split).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        toks = pc.list_flatten(split)
        nonempty = pc.not_equal(toks, "").to_numpy(zero_copy_only=False)
        flagged = pc.is_in(pc.utf8_lower(toks), value_set=wl).to_numpy(
            zero_copy_only=False)
        n = np.bincount(doc_idx, weights=nonempty,
                        minlength=batch.num_rows).astype(np.int64)
        f = np.bincount(doc_idx, weights=flagged & nonempty,
                        minlength=batch.num_rows).astype(np.int64)
        ratio = sql_round(np.divide(f, n, out=np.zeros(len(n)),
                                    where=n > 0), ndigits)
        return pa.table({
            id_col: batch.column(id_col),
            "n_tokens": pa.array(n),
            "n_flagged": pa.array(f),
            "flagged_ratio": pa.array(ratio, pa.float64()),
        })

    return docs_ds.map_batches(fn, batch_format="pyarrow",
                               batch_size=8192)


def compression_ratio(docs_ds, id_col: str = "doc_id",
                      text_col: str = "text", level: int = 6,
                      ndigits: int = 6):
    """Compression-ratio quality signal (RedPajama-v2's
    ``rps_doc_lzw``-style measure; highly repetitive / templated text
    compresses far below prose): per document,
    ``len(zlib.compress(utf8_bytes)) / len(utf8_bytes)`` rounded to
    ``ndigits``; empty docs get ratio 0.0.  Deterministic for a fixed
    zlib version + level.

    Scale shape: pure map stage; per-row ``zlib.compress`` is the
    irreducible per-record work (same shape as html→text extraction),
    so the stage parallelizes across blocks with zero exchanges.  No
    SQL oracle (DuckDB has no zlib) — semantics pinned by unit tests
    against the stdlib."""
    import zlib

    def fn(batch: pa.Table) -> pa.Table:
        ratios, nb, nc = [], [], []
        for t in batch.column(text_col).to_pylist():
            b = (t or "").encode("utf-8")
            if not b:
                ratios.append(0.0); nb.append(0); nc.append(0)
                continue
            c = len(zlib.compress(b, level))
            ratios.append(sql_round(c / len(b), ndigits))
            nb.append(len(b)); nc.append(c)
        return pa.table({
            id_col: batch.column(id_col),
            "n_bytes": pa.array(nb, pa.int64()),
            "n_compressed": pa.array(nc, pa.int64()),
            "compression_ratio": pa.array(ratios, pa.float64()),
        })

    return docs_ds.map_batches(fn, batch_format="pyarrow",
                               batch_size=8192)


def corpus_profile(docs_ds, id_col: str = "doc_id",
                   text_col: str = "text", lang_col: str = "lang",
                   ndigits: int = 6):
    """One-row corpus report card in a SINGLE pass over the documents:
    ``(n_docs, n_empty, total_chars, total_ws_tokens, max_chars,
    mean_chars, n_distinct_texts, n_langs, top_lang, top_lang_n)`` —
    the profiling summary a curation run prints before and after each
    stage (the table-level sibling of the per-rule
    :func:`~..relational.validation_report`).

    Scale shape: ONE map over the input emits tagged partial rows —
    O(1) sum/max rows + O(langs) language counts + one row per DISTINCT
    text hash in the batch (local dedup first).  A (kind, key)-hashed
    exchange then folds them: every text hash lands in exactly one
    partition, so per-partition distinct counts sum exactly, language
    counts collapse to one row per language, and a final
    single-partition reduce assembles the card from O(partitions +
    langs) tiny rows.  The full text never rides an exchange."""
    from ..functions.textstats import content_hash, ws_token_count

    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        texts_arr = batch.column(text_col)
        texts = texts_arr.to_pylist()
        chars = pc.utf8_length(texts_arr).to_numpy(zero_copy_only=False)
        toks = sum(ws_token_count(t or "") for t in texts)
        n_empty = sum(1 for t in texts if not (t or "").strip())
        kinds = ["n_docs", "n_empty", "total_chars", "total_ws_tokens",
                 "max_chars"]
        keys = ["", "", "", "", ""]
        ns = [batch.num_rows, n_empty, int(chars.sum()), toks,
              int(chars.max()) if len(chars) else 0]
        lang_counts = pa.table({"l": batch.column(lang_col)}).group_by(
            ["l"]).aggregate([([], "count_all")])
        for l, n in zip(lang_counts.column("l").to_pylist(),
                        lang_counts.column("count_all").to_pylist()):
            kinds.append("lang"); keys.append(l); ns.append(n)
        for h in {content_hash(t or "") for t in texts}:
            kinds.append("text"); keys.append(h); ns.append(1)
        return pa.table({
            "kind": pa.array(kinds, pa.string()),
            "key": pa.array(keys, pa.string()),
            "n": pa.array(ns, pa.int64()),
        })

    def fold(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        out = []
        texts = df[df["kind"] == "text"]
        if len(texts):
            out.append(("n_distinct_texts", "", texts["key"].nunique()))
        for (kind, key), grp in df[df["kind"] != "text"].groupby(
                ["kind", "key"], sort=False):
            agg = grp["n"].max() if kind == "max_chars" else grp["n"].sum()
            out.append((kind, key, int(agg)))
        return pa.table({
            "kind": pa.array([k for k, _, _ in out], pa.string()),
            "key": pa.array([k for _, k, _ in out], pa.string()),
            "n": pa.array([n for _, _, n in out], pa.int64()),
        })

    folded = grouped_apply(
        combine(docs_ds, partial, batch_size=8192),
        ["kind", "key"], fold,
    )

    def finish(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        sums = {k: int(df[df["kind"] == k]["n"].sum())
                for k in ("n_docs", "n_empty", "total_chars",
                          "total_ws_tokens", "n_distinct_texts")}
        mx = df[df["kind"] == "max_chars"]["n"]
        langs = (df[df["kind"] == "lang"].groupby("key")["n"].sum()
                 .reset_index().sort_values(["n", "key"],
                                            ascending=[False, True]))
        mean_chars = (sql_round(sums["total_chars"] / sums["n_docs"], ndigits)
                      if sums["n_docs"] else 0.0)
        return pa.table({
            "n_docs": pa.array([sums["n_docs"]], pa.int64()),
            "n_empty": pa.array([sums["n_empty"]], pa.int64()),
            "total_chars": pa.array([sums["total_chars"]], pa.int64()),
            "total_ws_tokens": pa.array([sums["total_ws_tokens"]],
                                        pa.int64()),
            "max_chars": pa.array([int(mx.max()) if len(mx) else 0],
                                  pa.int64()),
            "mean_chars": pa.array([mean_chars], pa.float64()),
            "n_distinct_texts": pa.array([sums["n_distinct_texts"]],
                                         pa.int64()),
            "n_langs": pa.array([len(langs)], pa.int64()),
            "top_lang": pa.array(
                [langs["key"].iloc[0] if len(langs) else None],
                pa.string()),
            "top_lang_n": pa.array(
                [int(langs["n"].iloc[0]) if len(langs) else 0],
                pa.int64()),
        })

    return grouped_apply(folded, [], finish)


def unigram_kl_drift(docs_ds, group_col: str = "source",
                     id_col: str = "doc_id", text_col: str = "text",
                     ndigits: int = 6):
    """Per-group KL divergence ``KL(P_g || Q)`` between each group's
    Laplace-smoothed unigram distribution and the corpus MLE
    distribution — the distribution-drift monitor a crawl pipeline runs
    per source / per snapshot to catch a feed whose token mix shifted
    (spam injection, template change, language flip) before it pollutes
    the training mix.  ``P_g(tok) = (c_g+1)/(N_g+V)`` over the corpus
    vocabulary ``V``; ``Q(tok) = c(tok)/N``.

    Scale shape: ONE token-keyed exchange and no broadcast vocabulary.
    The map collapses text to (group, tok, tf) partials; the exchange
    co-locates every row of a token, so the corpus count ``c`` and the
    per-group counts ``c_g`` are both LOCAL to the partition.  The KL
    sum over the full vocabulary factors into per-group sufficient
    statistics that are independent of the global scalars
    (``u=Σ(c_g+1)·ln(c_g+1)``, ``w=Σ(c_g+1)·ln c``, ``m=Σ(c_g+1)``,
    ``k=#present``, ``z=Σ ln c``, ``n_g=Σc_g``) plus per-partition
    global partials (``V``, ``S=Σ ln c``, ``N``) — absent-token terms
    never materialize.  A final constant-key reduce over
    O(partitions × groups) tiny rows assembles
    ``KL = [u − w + (m + V − k)·(ln N − ln D) − (S − z)] / D`` with
    ``D = N_g + V``.
    """
    import pyarrow.compute as pc

    def batch_tok_counts(batch: pa.Table) -> pa.Table:
        t = _ws_explode(batch, group_col, text_col)
        agg = t.group_by([group_col, "tok"]).aggregate([([], "count_all")])
        return agg.rename_columns([group_col, "tok", "tf"])

    gt = docs_ds.select_columns([group_col, text_col]).map_batches(
        batch_tok_counts, batch_format="pyarrow")

    def per_token_partition(tbl: pa.Table) -> pa.Table:
        cg = tbl.group_by([group_col, "tok"]).aggregate([("tf", "sum")])
        ct = cg.group_by(["tok"]).aggregate([("tf_sum", "sum")])
        idx = pc.index_in(cg.column("tok"),
                          value_set=ct.column("tok").combine_chunks())
        c = pc.take(ct.column("tf_sum_sum"), idx).to_numpy(
            zero_copy_only=False).astype(np.float64)
        cg1 = cg.column("tf_sum").to_numpy(
            zero_copy_only=False).astype(np.float64) + 1.0
        lnc = np.log(c)
        per = pa.table({
            group_col: cg.column(group_col),
            "u": pa.array(cg1 * np.log(cg1), pa.float64()),
            "w": pa.array(cg1 * lnc, pa.float64()),
            "m": pa.array(cg1, pa.float64()),
            "k": pa.array(np.ones(len(cg1)), pa.float64()),
            "z": pa.array(lnc, pa.float64()),
            "ng": pa.array(cg1 - 1.0, pa.float64()),
        })
        g = per.group_by([group_col]).aggregate(
            [(cn, "sum") for cn in ["u", "w", "m", "k", "z", "ng"]]
        ).rename_columns([group_col, "u", "w", "m", "k", "z", "ng"])
        cvals = ct.column("tf_sum_sum").to_numpy(
            zero_copy_only=False).astype(np.float64)
        glob = pa.table({
            group_col: pa.array([None], pa.string()),
            "u": pa.array([0.0]), "w": pa.array([0.0]),
            "m": pa.array([0.0]), "k": pa.array([0.0]),
            "z": pa.array([0.0]), "ng": pa.array([0.0]),
        })
        g = g.append_column("v", pa.array(
            np.zeros(g.num_rows), pa.float64()))
        g = g.append_column("s", pa.array(
            np.zeros(g.num_rows), pa.float64()))
        g = g.append_column("n", pa.array(
            np.zeros(g.num_rows), pa.float64()))
        glob = glob.append_column("v", pa.array(
            [float(ct.num_rows)], pa.float64()))
        glob = glob.append_column("s", pa.array(
            [float(np.log(cvals).sum())], pa.float64()))
        glob = glob.append_column("n", pa.array(
            [float(cvals.sum())], pa.float64()))
        return pa.concat_tables([g.cast(glob.schema), glob])

    stats = grouped_apply(gt, ["tok"], per_token_partition,
                          batch_format="pyarrow")

    def finish(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        glob = df[df[group_col].isna()]
        V = glob["v"].sum()
        S = glob["s"].sum()
        N = glob["n"].sum()
        g = df[df[group_col].notna()].groupby(group_col, sort=True)[
            ["u", "w", "m", "k", "z", "ng"]].sum().reset_index()
        D = g["ng"].to_numpy() + V
        lnratio = np.log(N) - np.log(D)
        kl = (g["u"].to_numpy() - g["w"].to_numpy()
              + (g["m"].to_numpy() + V - g["k"].to_numpy()) * lnratio
              - (S - g["z"].to_numpy())) / D
        return pa.table({
            group_col: pa.array(g[group_col].tolist(), pa.string()),
            "n_tokens": pa.array(
                g["ng"].to_numpy().astype(np.int64), pa.int64()),
            "kl": pa.array(sql_round(kl, ndigits), pa.float64()),
        })

    return grouped_apply(stats, [], finish)


def phrase_matches(docs_ds, phrase: list[str], id_col: str = "doc_id",
                   text_col: str = "text"):
    """Exact k-token phrase scan: every (document, position) where the
    whitespace token sequence ``phrase`` occurs — the corpus-grep
    primitive behind contamination audits ("does the benchmark prompt
    appear verbatim?"), quote mining and template census.  Positions are
    1-based indices into the RAW single-space split (empty tokens keep
    their slot), the same coordinates SQL's
    ``generate_subscripts(string_split(text,' '))`` yields.

    Scale shape: a PURE stateless map over a column-pruned read — zero
    exchanges; a phrase lives inside one document row, so each batch
    resolves its matches with k shifted vectorized equality kernels on
    the flattened token array (no per-row Python, no join).  At serving
    time the same verifier composes behind the persisted term index
    (postings nominate candidate documents; this map confirms
    adjacency)."""
    import pyarrow.compute as pc

    if not phrase:
        raise ValueError("phrase must have at least one token")
    k = len(phrase)

    def scan(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column(text_col), " ")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        n = len(flat)
        empty = pa.table({
            id_col: pa.array([], batch.column(id_col).type),
            "pos": pa.array([], pa.int64()),
        })
        if n < k:
            return empty
        eq = [pc.equal(flat, p).to_numpy(zero_copy_only=False)
              for p in phrase]
        m = n - k + 1
        ok = eq[0][:m].copy()
        for i in range(1, k):
            ok &= eq[i][i:m + i]
        doc_rep = np.repeat(np.arange(batch.num_rows), lens)
        ok &= doc_rep[k - 1:] == doc_rep[:m]
        idx = np.nonzero(ok)[0]
        if not len(idx):
            return empty
        starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        d = doc_rep[idx]
        return pa.table({
            id_col: pc.take(batch.column(id_col), pa.array(d)),
            "pos": pa.array(idx - starts[d] + 1, pa.int64()),
        })

    return docs_ds.select_columns([id_col, text_col]).map_batches(
        scan, batch_format="pyarrow"
    )


def nb_train_predict(docs_ds, label_col: str = "lang",
                     id_col: str = "doc_id", text_col: str = "text"):
    """Distributed multinomial Naive Bayes, trained and served in one
    pipeline: documents with an even id train per-label token counts
    (the classic closed-form text classifier — all training is
    sufficient statistics, no iteration), odd-id documents are scored
    ``ln prior_l + Σ tf·ln(c_{l,tok}+1) − n_known·ln(N_l+V)`` over the
    TRAIN vocabulary (Laplace smoothing; out-of-vocabulary test tokens
    drop, test documents with no in-vocabulary token drop) and labeled
    with the argmax (ties break to the lexicographically smallest
    label).

    Scale shape: TWO exchanges, no broadcast vocabulary.  Exchange 1
    hash-partitions (doc, label, tok, tf) rows on the token: a token's
    train counts and the test rows that need them are co-located, so
    the per-(doc, candidate-label) partial scores come from a LOCAL
    join; per-partition global partials (label token totals ``N_l``,
    vocabulary-size shards ``V``) ride the same output tagged with a
    null doc id and fold to an O(labels) dict on the driver — as do the
    label priors (one tiny column-pruned pass over ids+labels).
    Exchange 2 reduces per-document partials and applies the closed
    form with the folded scalars in-closure."""
    import pyarrow.compute as pc

    def tf_flag(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column(text_col), " ")
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        ids = np.repeat(
            batch.column(id_col).to_numpy(zero_copy_only=False), lens)
        labs = np.repeat(
            batch.column(label_col).to_numpy(zero_copy_only=False), lens)
        flat = pc.list_flatten(toks)
        t = pa.table({
            id_col: pa.array(ids, pa.int64()),
            "lab": pa.array(labs, pa.string()),
            "tok": flat,
        }).filter(pc.not_equal(flat, ""))
        agg = t.group_by([id_col, "lab", "tok"]).aggregate(
            [([], "count_all")]
        ).rename_columns([id_col, "lab", "tok", "tf"])
        train = np.asarray(
            agg.column(id_col).to_numpy(zero_copy_only=False) % 2 == 0)
        return agg.append_column("is_train", pa.array(train, pa.bool_()))

    tf = docs_ds.select_columns([id_col, label_col, text_col]).map_batches(
        tf_flag, batch_format="pyarrow")

    OUT_SCHEMA = pa.schema([
        (id_col, pa.int64()), ("true_lab", pa.string()),
        ("lab", pa.string()), ("kind", pa.string()),
        ("s", pa.float64()),
    ])

    def per_token_partition(tbl: pa.Table) -> pa.Table:
        train = tbl.filter(tbl.column("is_train"))
        test = tbl.filter(pc.invert(tbl.column("is_train")))
        tr = train.group_by(["lab", "tok"]).aggregate(
            [("tf", "sum")]).rename_columns(["lab", "tok", "c"])
        vocab = tr.group_by(["tok"]).aggregate([])
        nl = tr.group_by(["lab"]).aggregate([("c", "sum")])
        parts = [pa.table({
            id_col: pa.array([None] * nl.num_rows, pa.int64()),
            "true_lab": pa.array([None] * nl.num_rows, pa.string()),
            "lab": nl.column("lab"),
            "kind": pa.array(["nl"] * nl.num_rows, pa.string()),
            "s": pc.cast(nl.column("c_sum"), pa.float64()),
        }).cast(OUT_SCHEMA)]
        parts.append(pa.table({
            id_col: pa.array([None], pa.int64()),
            "true_lab": pa.array([None], pa.string()),
            "lab": pa.array([""], pa.string()),
            "kind": pa.array(["v"], pa.string()),
            "s": pa.array([float(vocab.num_rows)], pa.float64()),
        }).cast(OUT_SCHEMA))
        if test.num_rows:
            known_mask = pc.is_in(
                test.column("tok"),
                value_set=vocab.column("tok").combine_chunks())
            known = test.filter(known_mask)
            if known.num_rows:
                nk = known.group_by([id_col, "lab"]).aggregate(
                    [("tf", "sum")])
                parts.append(pa.table({
                    id_col: nk.column(id_col),
                    "true_lab": nk.column("lab"),
                    "lab": pa.array([""] * nk.num_rows, pa.string()),
                    "kind": pa.array(["nk"] * nk.num_rows, pa.string()),
                    "s": pc.cast(nk.column("tf_sum"), pa.float64()),
                }).cast(OUT_SCHEMA))
                j = known.rename_columns(
                    [id_col, "true_lab", "tok", "tf", "is_train"]
                ).join(tr, keys="tok", join_type="inner")
                s = (j.column("tf").to_numpy(zero_copy_only=False)
                     * np.log(j.column("c").to_numpy(
                         zero_copy_only=False) + 1.0))
                js = pa.table({
                    id_col: j.column(id_col),
                    "true_lab": j.column("true_lab"),
                    "lab": j.column("lab"),
                    "kind": pa.array(["s"] * j.num_rows, pa.string()),
                    "s": pa.array(s, pa.float64()),
                })
                agg = js.group_by(
                    [id_col, "true_lab", "lab", "kind"]
                ).aggregate([("s", "sum")]).rename_columns(
                    [id_col, "true_lab", "lab", "kind", "s"])
                parts.append(agg.cast(OUT_SCHEMA))
        return pa.concat_tables(parts)

    stats = grouped_apply(tf, ["tok"], per_token_partition,
                          batch_format="pyarrow").materialize()

    def _null_rows(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_null(b.column(id_col)))

    glob = stats.map_batches(
        _null_rows, batch_format="pyarrow").take_all()
    n_l: dict[str, float] = {}
    v_total = 0.0
    for r in glob:
        if r["kind"] == "nl":
            n_l[r["lab"]] = n_l.get(r["lab"], 0.0) + r["s"]
        else:
            v_total += r["s"]

    def prior_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        t = pa.table({
            "lab": batch.column(label_col),
        }).filter(pa.array(ids % 2 == 0))
        return t.group_by(["lab"]).aggregate([([], "count_all")])

    prior_rows = docs_ds.select_columns([id_col, label_col]).map_batches(
        prior_partial, batch_format="pyarrow").take_all()
    doc_counts: dict[str, int] = {}
    for r in prior_rows:
        doc_counts[r["lab"]] = doc_counts.get(r["lab"], 0) + r["count_all"]
    n_train_docs = sum(doc_counts.values())

    labels = sorted(n_l)
    ln_prior = np.array([
        np.log(doc_counts[l] / n_train_docs) for l in labels])
    ln_d = np.array([np.log(n_l[l] + v_total) for l in labels])

    def score_partition(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas()
        docs = df[df["kind"] == "nk"][
            [id_col, "true_lab", "s"]].groupby(
            [id_col, "true_lab"], sort=True)["s"].sum().reset_index()
        if not len(docs):
            return pa.table({
                id_col: pa.array([], pa.int64()),
                "true_lang": pa.array([], pa.string()),
                "pred_lang": pa.array([], pa.string()),
                "n_known": pa.array([], pa.int64()),
            })
        srows = df[df["kind"] == "s"]
        grid = srows.pivot_table(index=id_col, columns="lab",
                                 values="s", aggfunc="sum")
        grid = grid.reindex(index=docs[id_col].to_numpy(),
                            columns=labels).fillna(0.0)
        nk = docs["s"].to_numpy()
        scores = ln_prior[None, :] + grid.to_numpy() - nk[:, None] * ln_d[None, :]
        pred = np.argmax(scores, axis=1)
        return pa.table({
            id_col: pa.array(docs[id_col].to_numpy(), pa.int64()),
            "true_lang": pa.array(docs["true_lab"].tolist(), pa.string()),
            "pred_lang": pa.array([labels[i] for i in pred], pa.string()),
            "n_known": pa.array(nk.astype(np.int64), pa.int64()),
        })

    def _doc_rows(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_valid(b.column(id_col)))

    docrows = stats.map_batches(_doc_rows, batch_format="pyarrow")
    return grouped_apply(docrows, [id_col], score_partition,
                         batch_format="pyarrow")


def winnow_fingerprints(docs_ds, k: int = 3, w: int = 4,
                        id_col: str = "doc_id", text_col: str = "text"):
    """Winnowing fingerprint selection (Schleimer, Wilkerson & Aiken
    2003 — the MOSS algorithm): hash every k-token shingle, slide a
    window of ``w`` consecutive hashes and keep each window's minimum
    (rightmost on ties), deduplicated — the selection guarantees any
    shared run of ``w+k-1`` tokens between two documents yields at
    least one shared fingerprint, at a ~2/(w+1) sampling rate.
    Documents shorter than ``k`` tokens emit nothing; documents with
    fewer than ``w`` shingles use one whole-document window.

    The shingle hash is the first 15 hex digits of md5 of the
    space-joined shingle: numeric comparison of those 60 bits is
    exactly lexicographic comparison of the hex string, so a SQL oracle
    replays the selection verbatim (a production variant would swap in
    the vectorized rolling hash of :func:`fingerprints`; the selection
    logic is hash-agnostic).

    Scale shape: a PURE stateless map over a column-pruned read — a
    document's shingles all live in its own row, so selection is local
    (numpy sliding-window argmin); downstream near-dup joins ride the
    same hash-keyed exchanges as the MinHash/SimHash family."""
    import hashlib

    def fn(batch: pa.Table) -> pa.Table:
        out_ids: list = []
        out_pos: list[int] = []
        out_fp: list[str] = []
        ids = batch.column(id_col).to_pylist()
        for i, t in zip(ids, batch.column(text_col).to_pylist()):
            toks = [x for x in (t or "").split(" ") if x]
            n = len(toks) - k + 1
            if n <= 0:
                continue
            h15 = [
                hashlib.md5(
                    " ".join(toks[p:p + k]).encode()).hexdigest()[:15]
                for p in range(n)
            ]
            vals = np.array([int(x, 16) for x in h15], np.int64)
            ww = min(w, n)
            win = np.lib.stride_tricks.sliding_window_view(vals, ww)
            j = np.argmin(win[:, ::-1], axis=1)
            sel = np.unique(np.arange(len(win)) + (ww - 1 - j))
            out_ids += [i] * len(sel)
            out_pos += (sel + 1).tolist()
            out_fp += [h15[s] for s in sel]
        return pa.table({
            id_col: pa.array(out_ids, batch.column(id_col).type),
            "gpos": pa.array(out_pos, pa.int64()),
            "fp": pa.array(out_fp, pa.string()),
        })

    return docs_ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow", batch_size=8192
    )


def zipf_fit(docs_ds, k: int = 200, id_col: str = "doc_id",
             text_col: str = "text", ndigits: int = 6):
    """Zipf rank-frequency fit over the top-``k`` tokens: OLS of
    ``ln(freq)`` on ``ln(rank)`` (rank by frequency descending, token
    ascending on ties) — the one-row corpus-health scalar (natural text
    sits near slope −1; template/boilerplate-dominated or synthetic
    corpora drift off it, making the slope a cheap drift alarm between
    crawl snapshots).

    Scale shape: rides :func:`~.relational.heavy_hitters` (per-batch
    count combiner → one token-keyed exchange → per-partition local
    top-k → bounded driver merge of ``partitions × k`` candidates);
    the OLS itself is O(k) driver math on the merged table.  Returns a
    one-row pyarrow Table ``(k, slope, intercept, r2)``."""
    import pyarrow.compute as pc

    from .relational import heavy_hitters

    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern(batch.column(text_col), " "))
        return pa.table({"tok": toks.filter(pc.not_equal(toks, ""))})

    hh = heavy_hitters(
        docs_ds.select_columns([text_col]).map_batches(
            explode, batch_format="pyarrow"),
        "tok", k,
    )
    n = hh.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
    order = pc.sort_indices(
        hh, sort_keys=[("n", "descending"), ("tok", "ascending")]
    ).to_numpy(zero_copy_only=False)
    y = np.log(n[order])
    x = np.log(np.arange(1, len(y) + 1, dtype=np.float64))
    mx, my = x.mean(), y.mean()
    dx, dy = x - mx, y - my
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    sxy = float(dx @ dy)
    slope = sxy / sxx
    intercept = my - slope * mx
    r2 = (sxy * sxy) / (sxx * syy) if syy > 0 else 1.0

    return pa.table({
        "k": pa.array([len(y)], pa.int64()),
        "slope": pa.array([sql_round(slope, ndigits)], pa.float64()),
        "intercept": pa.array([sql_round(intercept, ndigits)], pa.float64()),
        "r2": pa.array([sql_round(r2, ndigits)], pa.float64()),
    })


def _hash_tokens_md5(uniq_tokens, dim: int) -> np.ndarray:
    """Stable md5-based feature hashing: token → [0, dim). Library-
    and platform-independent (unlike ``hash()`` / pandas hashing), so
    models and tests agree byte-for-byte across runs and processes."""
    import hashlib

    out = np.empty(len(uniq_tokens), dtype=np.int64)
    for i, t in enumerate(uniq_tokens):
        out[i] = int.from_bytes(
            hashlib.md5(t.encode("utf-8")).digest()[:8], "big") % dim
    return out


def logreg_train_predict(docs_ds, pos_label: str, label_col: str = "lang",
                         id_col: str = "doc_id", text_col: str = "text",
                         dim: int = 1024, iters: int = 30, lr: float = 2.0,
                         l2: float = 1e-4, ndigits: int = 6,
                         train_slots: int = 8, binary: bool = False,
                         _use_object_store: bool = True):
    """fastText-style LINEAR text classifier (the CCNet / GPT-3-family
    quality- and routing-filter pattern): binary logistic regression
    over hashed, L1-normalized unigram counts (or binary PRESENCE
    features with ``binary=True`` — the classic spam-filter
    parameterization, which converges in far fewer GD steps when the
    signal is a few marker tokens diluted in long documents, because
    a marker's feature value is 1.0 instead of tf/len), trained by
    full-batch
    gradient descent where each step's gradient is a DISTRIBUTED SUM.
    The train/test split is the repo's standard md5-slot assignment
    (``assign_splits`` convention: slot = last hex digit of
    md5(str(id)); slots < ``train_slots`` of 16 train) — hash splits
    are RNG-free, partition-stable and immune to id-structure
    confounds (synthetic corpora often encode attributes in id
    arithmetic, so a parity split would leak or starve a class).
    Train docs fit y = 1 iff ``label_col == pos_label``; the rest are
    scored and labeled.

    Output: one row per test-slot document —
    ``(id_col, true_y:int64, pred_y:int64, p:float64)`` with the
    positive-class probability rounded to ``ndigits``.

    Scale shape (100 TB): the MODEL is O(dim) floats regardless of
    corpus size (DSIR's hashed-feature trick applied to the
    classifier); tokenize+hash runs ONCE into a materialized narrow
    ``(id, y, idx:list, val:list)`` table so the 20–30 GD passes never
    re-tokenize; each pass is MAP-ONLY (zero exchanges) — per-block
    partial gradients (dim+1 floats) fold on the driver, O(blocks)
    small vectors per step; the refreshed weight vector is broadcast
    through ONE object-store put per iteration (read per task, never
    shipped per batch).  At full corpus scale full-batch GD costs
    ``iters`` streaming passes — the standard play is to train on a
    ``budget_head``/hash-sampled slice and score everything, which is
    this same operator over a smaller train mask.
    Reference has no counterpart (training-data curation surface)."""
    import pyarrow.compute as pc
    import ray

    def featurize(batch: pa.Table) -> pa.Table:
        n = len(batch)
        out_schema = pa.schema([
            (id_col, pa.int64()), ("y", pa.float64()),
            ("is_train", pa.bool_()),
            ("idx", pa.list_(pa.int32())), ("val", pa.list_(pa.float64())),
        ])
        if n == 0:
            return out_schema.empty_table()
        import hashlib

        ids = pc.cast(batch.column(id_col), pa.int64())
        y = pc.cast(pc.equal(batch.column(label_col), pos_label),
                    pa.float64())
        is_train = pa.array([
            int(hashlib.md5(str(i).encode()).hexdigest()[-1], 16)
            < train_slots
            for i in ids.to_pylist()], pa.bool_())
        toks = pc.split_pattern(
            pc.fill_null(batch.column(text_col), ""), " ")
        lens = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        didx = np.repeat(np.arange(n), lens)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        flat_np = np.asarray(flat.to_pandas(), dtype=object)[keep]
        didx = didx[keep]
        codes, uniq = pd.factorize(flat_np, sort=False)
        hashed = _hash_tokens_md5(list(uniq), dim) if len(uniq) else \
            np.empty(0, np.int64)
        feat = hashed[codes] if len(codes) else np.empty(0, np.int64)
        # sum tf per (doc, feature), then L1-normalize per doc
        key = didx * dim + feat
        uk, inv = np.unique(key, return_inverse=True)
        tf = np.bincount(inv).astype(np.float64)
        krow = (uk // dim).astype(np.int64)
        kfeat = (uk % dim).astype(np.int32)
        if binary:
            val = np.ones_like(tf)
        else:
            row_tot = np.bincount(krow, weights=tf, minlength=n)
            val = tf / row_tot[krow]
        order = np.argsort(krow, kind="stable")
        krow, kfeat, val = krow[order], kfeat[order], val[order]
        counts = np.bincount(krow, minlength=n).astype(np.int32)
        offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        return pa.table({
            id_col: ids,
            "y": y,
            "is_train": is_train,
            "idx": pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(kfeat, pa.int32())),
            "val": pa.ListArray.from_arrays(
                pa.array(offsets), pa.array(val, pa.float64())),
        }).cast(out_schema)

    feats = docs_ds.select_columns(
        [id_col, label_col, text_col]
    ).map_batches(featurize, batch_format="pyarrow").materialize()

    def _csr(batch: pa.Table):
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        tr = batch.column("is_train").to_numpy(zero_copy_only=False)
        idx = batch.column("idx").combine_chunks()
        val = batch.column("val").combine_chunks()
        offs = idx.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        fidx = idx.values.to_numpy(zero_copy_only=False).astype(np.int64)
        fval = val.values.to_numpy(zero_copy_only=False)
        # a sliced ListArray's offsets need not start at 0 — rebase so
        # fidx/fval align with np.repeat over np.diff(offs)
        fidx = fidx[offs[0]:offs[-1]]
        fval = fval[offs[0]:offs[-1]]
        offs = offs - offs[0]
        return ids, y, tr, offs, fidx, fval

    def _row_scores(w, offs, fidx, fval):
        contrib = w[fidx] * fval
        sums = np.concatenate(([0.0], np.cumsum(contrib)))[offs]
        return sums[1:] - sums[:-1]

    w = np.zeros(dim + 1, dtype=np.float64)  # [features..., bias]
    n_train = None
    for _ in range(iters):
        wref = ray.put(w) if _use_object_store else w

        def grad_partial(batch: pa.Table, _wref=wref) -> pa.Table:
            wv = ray.get(_wref) if _use_object_store else _wref
            ids, y, train, offs, fidx, fval = _csr(batch)
            g = np.zeros(dim + 1, dtype=np.float64)
            nt = int(train.sum())
            if nt:
                z = _row_scores(wv[:dim], offs, fidx, fval) + wv[dim]
                p = 1.0 / (1.0 + np.exp(-z))
                err = np.where(train, p - y, 0.0)
                row_of = np.repeat(np.arange(len(ids)),
                                   np.diff(offs))
                np.add.at(g, fidx, err[row_of] * fval)
                g[dim] = err.sum()
            return pa.table({
                "g": pa.array([g.tolist()], pa.list_(pa.float64())),
                "n": pa.array([nt], pa.int64()),
            })

        parts = feats.map_batches(
            grad_partial, batch_format="pyarrow").take_all()
        n_train = sum(r["n"] for r in parts)
        g = np.zeros(dim + 1, dtype=np.float64)
        for r in parts:
            g += np.asarray(r["g"], dtype=np.float64)
        g /= max(n_train, 1)
        g[:dim] += l2 * w[:dim]  # bias unregularized
        w = w - lr * g

    w_final = ray.put(w) if _use_object_store else w

    def score(batch: pa.Table, _wref=w_final) -> pa.Table:
        wv = ray.get(_wref) if _use_object_store else _wref
        ids, y, train, offs, fidx, fval = _csr(batch)
        test = ~train
        z = _row_scores(wv[:dim], offs, fidx, fval) + wv[dim]
        p = 1.0 / (1.0 + np.exp(-z))
        return pa.table({
            id_col: pa.array(ids[test], pa.int64()),
            "true_y": pa.array(y[test].astype(np.int64)),
            "pred_y": pa.array((p[test] >= 0.5).astype(np.int64)),
            "p": pa.array(sql_round(p[test], ndigits), pa.float64()),
        })

    return feats.map_batches(score, batch_format="pyarrow")


def log_odds_terms(docs_ds, group_col: str = "source", k: int = 5,
                   alpha: float = 0.01, id_col: str = "doc_id",
                   text_col: str = "text", ndigits: int = 6):
    """Per-group DISTINCTIVE vocabulary via weighted log-odds with an
    (uninformative uniform) Dirichlet prior — Monroe, Colaresi &
    Quinn 2008 ("Fightin' Words"), the standard corpus-comparison
    statistic: for each (group, token), the z-scored log-odds of the
    token in the group vs the Rest of the corpus,

        δ = ln((c_gt + α)/(n_g + αV − c_gt − α))
          − ln((c_t−c_gt + α)/(N−n_g + αV − (c_t−c_gt) − α))
        z = δ / sqrt(1/(c_gt + α) + 1/(c_t − c_gt + α))

    and the top ``k`` tokens per group by z (ranked on the value
    ROUNDED to ``ndigits`` with token-ascending tie-break, so the
    ordering is reproducible across engines whose ln() differs in the
    last ulp).  Output: ``(group_col, token, zscore:float64)``.

    Scale shape (100 TB): token occurrences collapse to per-batch
    (group, tok, tf) partials inside the map (never per-occurrence
    rows on the wire); ONE token-keyed exchange builds exact c_gt and
    attaches the token total c_t in place (all of a token's rows share
    the partition — the DSIR vocabulary argument), with per-partition
    distinct-token counts riding out as tagged rows so V folds exactly
    on the driver; n_g and N fold from an O(groups) aggregate; the z
    map is stateless; ONE group-keyed exchange takes the top-k heads.
    Reference has no counterpart (corpus-analysis surface)."""
    import pyarrow.compute as pc

    def gp_tf(batch: pa.Table) -> pa.Table:
        t = _ws_explode(batch, group_col, text_col)
        agg = t.group_by([group_col, "tok"]).aggregate([([], "count_all")])
        return agg.rename_columns([group_col, "tok", "c"])

    partials = docs_ds.select_columns([group_col, text_col]).map_batches(
        gp_tf, batch_format="pyarrow")

    OUT = pa.schema([
        (group_col, pa.string()), ("tok", pa.large_string()),
        ("c", pa.int64()), ("ct", pa.int64()),
    ])

    def per_token_partition(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by([group_col, "tok"]).aggregate([("c", "sum")])
        agg = agg.rename_columns([group_col, "tok", "c"])
        tot = agg.group_by(["tok"]).aggregate([("c", "sum")])
        tot = tot.rename_columns(["tok", "ct"])
        j = agg.join(tot, keys="tok", join_type="inner")
        out = pa.table({
            group_col: pc.cast(j.column(group_col), pa.string()),
            "tok": pc.cast(j.column("tok"), pa.large_string()),
            "c": pc.cast(j.column("c"), pa.int64()),
            "ct": pc.cast(j.column("ct"), pa.int64()),
        }).cast(OUT)
        # tagged V row: local distinct tokens (disjoint across
        # partitions, so the driver's sum is the exact global V)
        vrow = pa.table({
            group_col: pa.array([None], pa.string()),
            "tok": pa.array([None], pa.large_string()),
            "c": pa.array([0], pa.int64()),
            "ct": pa.array([tot.num_rows], pa.int64()),
        }).cast(OUT)
        return pa.concat_tables([out, vrow])

    counts = grouped_apply(partials, ["tok"], per_token_partition,
                           batch_format="pyarrow").materialize()

    v_total = sum(
        r["ct"] for r in counts.map_batches(
            lambda b: b.filter(pc.is_null(b.column(group_col))),
            batch_format="pyarrow").take_all())
    data = counts.map_batches(
        lambda b: b.filter(pc.is_valid(b.column(group_col))),
        batch_format="pyarrow")
    ng_rows = data.groupby(group_col).sum("c").take_all()
    n_g = {r[group_col]: float(r["sum(c)"]) for r in ng_rows}
    n_total = sum(n_g.values())

    def zmap(batch: pa.Table) -> pa.Table:
        g = batch.column(group_col).to_pylist()
        c = batch.column("c").to_numpy(zero_copy_only=False).astype(
            np.float64)
        ct = batch.column("ct").to_numpy(zero_copy_only=False).astype(
            np.float64)
        ngv = np.array([n_g[x] for x in g])
        a0 = alpha * v_total
        crest = ct - c
        delta = (np.log((c + alpha) / (ngv + a0 - c - alpha))
                 - np.log((crest + alpha)
                          / (n_total - ngv + a0 - crest - alpha)))
        z = delta / np.sqrt(1.0 / (c + alpha) + 1.0 / (crest + alpha))
        return pa.table({
            group_col: batch.column(group_col),
            "token": batch.column("tok"),
            "zscore": pa.array(sql_round(z, ndigits), pa.float64()),
        })

    scored = data.map_batches(zmap, batch_format="pyarrow")

    def topk(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values([group_col, "zscore", "token"],
                              ascending=[True, False, True],
                              kind="mergesort")
        return pdf.groupby(group_col, sort=False).head(k)

    # block-local heads first so the exchange carries O(groups·k·blocks)
    pre = scored.map_batches(
        lambda b: pa.Table.from_pandas(topk(b.to_pandas()),
                                       preserve_index=False),
        batch_format="pyarrow", batch_size=65536)
    return grouped_apply(pre, [group_col], topk,
                         batch_format="pandas")


def tfidf_cosine_pairs(docs_ds, threshold: float = 0.8,
                       id_col: str = "doc_id", text_col: str = "text",
                       ndigits: int = 6, max_bucket: int | None = None):
    """Sparse TF-IDF cosine SIMILARITY JOIN over token space — the
    inverted-index all-pairs algorithm (Broder-style pair generation;
    the lexical sibling of the embedding-space near-dup join): every
    document pair sharing at least one token gets its exact cosine
    over smoothed-idf-weighted tf vectors, and pairs with
    ``cosine ≥ threshold`` survive.  Output: ``(doc_a, doc_b,
    cosine:float64)`` with doc_a < doc_b and the cosine rounded to
    ``ndigits``.

    Distribution (4 keyed exchanges, nothing ever broadcast):
    (A) token-keyed — a token's (doc, tf) rows are co-located, so its
    document frequency is an exact LOCAL count and idf = ln(N/df)
    attaches in place; (B) doc-keyed — L2-normalize each document's
    weight vector (norms need no separate attach later: normalized
    weights make the final sum the cosine itself); (C) token-keyed —
    each token emits its doc-pair partials ŵa·ŵb (a<b), optionally
    split by ``capped_subgroups`` when ``max_bucket`` is set; (D)
    pair-keyed — partials sum to the exact cosine, threshold filter.

    Skew contract (100 TB): a token shared by d documents contributes
    d(d−1)/2 partial rows — unbounded on stop-words.  The production
    path sets ``max_bucket`` (each hot token's group splits into
    salted sub-buckets) or prunes stop-tokens by df upstream.  Because
    tf·idf weights are non-negative, a capped score only ever LOSES
    contributions, so it is a LOWER BOUND on the true cosine:
    thresholded output keeps precision 1.0 and degrades recall
    predictably — the same contract as the LSH bucket caps, pinned by
    test.  ``max_bucket=None`` is the exact mode for bounded-n
    baselines and oracle checks.  Reference has no counterpart."""
    import pyarrow.compute as pc

    from ..functions.dedup import capped_subgroups, group_salt

    n_docs = docs_ds.count()

    tf = docs_ds.select_columns([id_col, text_col]).map_batches(
        lambda b: _tf_table(b, id_col, text_col),
        batch_format="pyarrow")

    def attach_idf(pdf: pd.DataFrame) -> pd.DataFrame:
        df_per_tok = pdf.groupby("tok")["tok"].transform("size")
        w = pdf["tf"].to_numpy(np.float64) * np.log(
            n_docs / df_per_tok.to_numpy(np.float64))
        return pd.DataFrame({
            id_col: pdf[id_col].to_numpy(),
            "tok": pdf["tok"].to_numpy(),
            "w": w,
        })

    weighted = grouped_apply(tf, ["tok"], attach_idf,
                             batch_format="pandas")

    def normalize(pdf: pd.DataFrame) -> pd.DataFrame:
        norm = np.sqrt(
            (pdf["w"] ** 2).groupby(pdf[id_col]).transform("sum"))
        out = pdf.copy()
        # all-zero vectors (ln(N/N)=0 single-token corpora) stay zero
        out["w"] = np.where(norm > 0, pdf["w"] / norm, 0.0)
        return out

    unit = grouped_apply(weighted, [id_col], normalize,
                         batch_format="pandas")

    def pair_partials(pdf: pd.DataFrame) -> pd.DataFrame:
        outs_a, outs_b, outs_p = [], [], []
        for tok, g in pdf.groupby("tok", sort=False):
            subs = (capped_subgroups(g, id_col, max_bucket,
                                     salt=group_salt(tok))
                    if max_bucket else (g,))
            for sub in subs:
                if len(sub) < 2:
                    continue
                s = sub.sort_values(id_col, kind="mergesort")
                ids = s[id_col].to_numpy()
                ws = s["w"].to_numpy()
                ia, ib = np.triu_indices(len(ids), k=1)
                outs_a.append(ids[ia])
                outs_b.append(ids[ib])
                outs_p.append(ws[ia] * ws[ib])
        if not outs_a:
            return pd.DataFrame({
                "doc_a": np.empty(0, np.int64),
                "doc_b": np.empty(0, np.int64),
                "p": np.empty(0, np.float64),
            })
        return pd.DataFrame({
            "doc_a": np.concatenate(outs_a),
            "doc_b": np.concatenate(outs_b),
            "p": np.concatenate(outs_p),
        })

    partials = grouped_apply(unit, ["tok"], pair_partials,
                             batch_format="pandas")

    def reduce_pairs(pdf: pd.DataFrame) -> pd.DataFrame:
        # sort partials so the float sum order is independent of the
        # upstream partition arrival order (run-to-run determinism)
        pdf = pdf.sort_values(["doc_a", "doc_b", "p"], kind="mergesort")
        agg = pdf.groupby(["doc_a", "doc_b"], sort=True)["p"].sum()
        cos = sql_round(agg, ndigits)
        out = agg.reset_index()[["doc_a", "doc_b"]]
        out["cosine"] = cos
        return out[out["cosine"] >= threshold]

    return grouped_apply(partials, ["doc_a", "doc_b"], reduce_pairs,
                         batch_format="pandas")


def token_ids_encode(docs_ds, vocab_size: int | None = None,
                     id_col: str = "doc_id", text_col: str = "text",
                     return_vocab: bool = False):
    """Vocabulary freeze + corpus ENCODE — the "turn text into token
    ids" step a training pipeline runs right before sequence packing:
    build the corpus vocabulary with dense ids assigned by frequency
    rank (count desc, token asc — the classic frequency-ordered vocab
    so small ids are common tokens), then re-emit every document as
    its id sequence in original token order.  With ``vocab_size``,
    tokens ranked at or beyond the cut encode as −1 (OOV).

    Output: ``(id_col, ids:list<int64>, n_tokens:int64)`` — one row
    per input document, empty docs carry an empty list.

    Scale shape (100 TB): the global frequency rank needs NO global
    sort and NO single-partition window — rank(t) decomposes as
    ``(#tokens with higher count) + (lexicographic index among equal
    counts)``: per-batch (tok, c) partials → ONE token-keyed exchange
    for exact counts, whose per-partition count-histogram rows
    (O(distinct count values), typically a few thousand under Zipf)
    fold on the driver into cumulative offsets; a count-keyed exchange
    then gives each token its within-count lexicographic index locally
    and adds the broadcast offset.  Encoding is the standard
    repartition join: (doc, pos, tok) rows meet their vocab row on ONE
    token-keyed exchange, and ONE doc-keyed exchange reassembles
    ordered id lists.  Reference has no counterpart."""
    import pyarrow.compute as pc

    # ---- exact corpus counts: one token-keyed exchange ----
    def batch_tok_counts(batch: pa.Table) -> pa.Table:
        t = _ws_explode(batch, id_col, text_col)
        agg = t.group_by(["tok"]).aggregate([([], "count_all")])
        return agg.rename_columns(["tok", "c"])

    def sum_counts(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby("tok", sort=False)["c"].sum().reset_index()

    counts = grouped_apply(
        docs_ds.select_columns([id_col, text_col]).map_batches(
            batch_tok_counts, batch_format="pyarrow"),
        ["tok"], sum_counts,
        batch_format="pandas",
    ).materialize()

    # ---- driver fold: count-value histogram -> rank offsets ----
    def chist(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["c"]).aggregate([([], "count_all")])
        return g.rename_columns(["c", "n"])

    hist: dict[int, int] = {}
    for r in counts.map_batches(chist, batch_format="pyarrow").take_all():
        hist[r["c"]] = hist.get(r["c"], 0) + r["n"]
    offsets: dict[int, int] = {}
    acc = 0
    for c in sorted(hist, reverse=True):
        offsets[c] = acc
        acc += hist[c]

    # ---- count-keyed exchange: within-count lexicographic index ----
    def assign_ids(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values(["c", "tok"],
                              ascending=[False, True], kind="mergesort")
        within = pdf.groupby("c", sort=False).cumcount()
        tid = (pdf["c"].map(offsets).to_numpy(np.int64)
               + within.to_numpy(np.int64))
        if vocab_size is not None:
            tid = np.where(tid < vocab_size, tid, -1)
        return pd.DataFrame({"tok": pdf["tok"].to_numpy(), "tid": tid})

    vocab = grouped_apply(counts, ["c"], assign_ids,
                          batch_format="pandas")

    # ---- encode: (doc, pos, tok) meets its vocab row on the token ----
    def doc_tokens(batch: pa.Table) -> pa.Table:
        t = _ws_explode(batch, id_col, text_col)
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        # positions index the KEPT (non-empty) token sequence per doc
        pos = pd.Series(np.zeros(len(ids), np.int64)).groupby(
            ids, sort=False).cumcount().to_numpy()
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "pos": pa.array(pos, pa.int64()),
            "tok": t.column("tok"),
            "tid": pa.array([-2] * len(ids), pa.int64()),  # request
        })

    def vocab_rows(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table({
            id_col: pa.array([-1] * n, pa.int64()),
            "pos": pa.array([-1] * n, pa.int64()),
            "tok": batch.column("tok"),
            "tid": pc.cast(batch.column("tid"), pa.int64()),
        })

    unioned = docs_ds.select_columns([id_col, text_col]).map_batches(
        doc_tokens, batch_format="pyarrow"
    ).union(vocab.map_batches(vocab_rows, batch_format="pyarrow"))

    def lookup(pdf: pd.DataFrame) -> pd.DataFrame:
        v = pdf[pdf[id_col] < 0].drop_duplicates("tok")
        req = pdf[pdf[id_col] >= 0]
        m = req[[id_col, "pos", "tok"]].merge(
            v[["tok", "tid"]], on="tok", how="inner")
        return m[[id_col, "pos", "tid"]]

    hits = grouped_apply(unioned, ["tok"], lookup,
                         batch_format="pandas")

    # ---- reassemble ordered id lists per doc (empty docs rejoin) ----
    def rebuild(pdf: pd.DataFrame) -> pa.Table:
        pdf = pdf.sort_values([id_col, "pos"], kind="mergesort")
        sizes = pdf.groupby(id_col, sort=True).size()
        ids = sizes.index.to_numpy()
        lens = sizes.to_numpy(np.int64)
        offs = np.concatenate(([0], np.cumsum(lens)))
        flat = pdf["tid"].to_numpy(np.int64)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "ids": pa.ListArray.from_arrays(
                pa.array(offs, pa.int32()), pa.array(flat, pa.int64())),
            "n_tokens": pa.array(lens),
        })

    encoded = grouped_apply(hits, [id_col], rebuild,
                            batch_format="pandas")

    # docs whose every token was empty-filtered (or empty docs) emit
    # an empty list row via an anti-join on the encoded id set
    def empties(batch: pa.Table) -> pa.Table:
        t = pc.fill_null(batch.column(text_col), "")
        toks = pc.split_pattern(t, " ")
        lens = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        didx = np.repeat(np.arange(len(batch)), lens)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        nb = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        nonblank = np.bincount(didx, weights=nb.astype(np.float64),
                               minlength=len(batch))
        keep = nonblank == 0
        ids = pc.cast(batch.column(id_col), pa.int64()).to_numpy(
            zero_copy_only=False)[keep]
        n = int(keep.sum())
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "ids": pa.ListArray.from_arrays(
                pa.array(np.zeros(n + 1, np.int32)),
                pa.array([], pa.int64())),
            "n_tokens": pa.array([0] * n, pa.int64()),
        })

    empty_rows = docs_ds.select_columns([id_col, text_col]).map_batches(
        empties, batch_format="pyarrow")
    out = encoded.union(empty_rows)
    # ``return_vocab`` hands back the frozen (tok, tid) table too, so
    # decode_token_ids can invert the encoding without re-freezing
    return (out, vocab) if return_vocab else out


def decode_token_ids(encoded_ds, vocab_ds, id_col: str = "doc_id",
                     out_col: str = "text_rt"):
    """DECODE — the inverse of :func:`token_ids_encode`: id lists back
    to space-joined token text. Because the encoder's tokenization is
    a single-space split with empties dropped, decode(encode(text))
    equals the whitespace-SQUEEZED source text exactly — the lossless-
    roundtrip proof a tokenization stage owes its training pipeline
    (and the detokenization path for inspecting packed samples). OOV
    ids (−1, from a ``vocab_size`` cut) have no vocab row and are
    dropped from the reconstruction (a doc whose EVERY token is OOV
    drops from the output entirely); pass the full vocab for exact
    roundtrips.

    Scale shape: the mirror of encode — id lists explode map-side to
    (doc, pos, tid) rows, meet their vocab row on ONE tid-keyed
    exchange, and ONE doc-keyed exchange reassembles the ordered
    string. Empty docs short-circuit map-side off ``n_tokens == 0``.
    Output: ``(id_col, out_col)``.
    """
    import pyarrow.compute as pc

    def explode(b: pa.Table) -> pa.Table:
        lens = pc.list_value_length(b.column("ids")).to_numpy(
            zero_copy_only=False).astype(np.int64)
        dids = np.repeat(
            pc.cast(b.column(id_col), pa.int64()).to_numpy(
                zero_copy_only=False), lens)
        pos = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
        flat = pc.list_flatten(b.column("ids"))
        t = pa.table({
            id_col: pa.array(dids, pa.int64()),
            "pos": pa.array(pos, pa.int64()),
            "tid": pc.cast(flat, pa.int64()),
            "tok": pa.nulls(len(dids), pa.string()),
        })
        # OOV ids (−1) have no vocab row: drop them here (positions
        # keep the original sequence order for the surviving tokens)
        return t.filter(pc.greater_equal(t.column("tid"), 0))

    def vocab_rows(b: pa.Table) -> pa.Table:
        # a vocab_size cut marks out-of-vocab tokens with tid=-1 —
        # those rows must not masquerade as decodable ids
        b = b.filter(pc.greater_equal(b.column("tid"), 0))
        n = b.num_rows
        return pa.table({
            id_col: pa.array([-1] * n, pa.int64()),
            "pos": pa.array([-1] * n, pa.int64()),
            "tid": pc.cast(b.column("tid"), pa.int64()),
            "tok": b.column("tok"),
        })

    unioned = encoded_ds.map_batches(
        explode, batch_format="pyarrow"
    ).union(vocab_ds.map_batches(vocab_rows, batch_format="pyarrow"))

    def lookup(pdf: pd.DataFrame) -> pd.DataFrame:
        v = pdf[pdf[id_col] < 0].drop_duplicates("tid")
        req = pdf[pdf[id_col] >= 0]
        m = req[[id_col, "pos", "tid"]].merge(
            v[["tid", "tok"]], on="tid", how="inner")
        return m[[id_col, "pos", "tok"]]

    hits = grouped_apply(unioned, ["tid"], lookup,
                         batch_format="pandas")

    def rebuild(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values([id_col, "pos"], kind="mergesort")
        g = pdf.groupby(id_col, sort=True)["tok"].agg(" ".join)
        return pd.DataFrame({id_col: g.index.to_numpy(),
                             out_col: g.to_numpy()})

    decoded = grouped_apply(hits, [id_col], rebuild,
                            batch_format="pandas")

    def empties(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b.column("n_tokens"), 0))
        return pa.table({
            id_col: pc.cast(t.column(id_col), pa.int64()),
            out_col: pa.array([""] * t.num_rows, pa.string()),
        })

    return decoded.union(
        encoded_ds.map_batches(empties, batch_format="pyarrow"))


def stop_tokens(docs_ds, min_df_frac: float = 0.5,
                id_col: str = "doc_id", text_col: str = "text",
                ndigits: int = 6):
    """Corpus-driven STOPWORD discovery: tokens whose document
    frequency exceeds ``min_df_frac`` of the corpus — the df-pruning
    feed for the inverted-index joins (``tfidf_cosine_pairs``'s skew
    contract names exactly this list) and for index size control.
    Output: ``(tok, df:int64, df_frac:float64)`` sorted nowhere (small
    result; callers sort).

    Scale shape: per-batch DISTINCT (doc, tok) pairs collapse to
    (tok, partial df) rows (a token counts once per doc regardless of
    tf) before ONE token-keyed exchange sums exact dfs; the corpus
    doc count is one metadata-cheap ``count()``."""
    import pyarrow.compute as pc

    n_docs = docs_ds.count()
    floor = min_df_frac * n_docs

    def batch_doc_freqs(batch: pa.Table) -> pa.Table:
        t = _tf_table(batch, id_col, text_col)  # distinct per (doc, tok)
        agg = t.group_by(["tok"]).aggregate([([], "count_all")])
        return agg.rename_columns(["tok", "df"])

    partials = docs_ds.select_columns([id_col, text_col]).map_batches(
        batch_doc_freqs, batch_format="pyarrow")

    def reduce_df(pdf: pd.DataFrame) -> pd.DataFrame:
        s = pdf.groupby("tok", sort=False)["df"].sum().reset_index()
        s = s[s["df"] > floor]
        s["df_frac"] = sql_round(
            s["df"].to_numpy(np.float64) / n_docs, ndigits)
        return s

    return grouped_apply(partials, ["tok"], reduce_df,
                         batch_format="pandas")
