"""Web-corpus cleaning operators for training-data preparation — the
hygiene stages (PII redaction, repetition/quality scoring, sequence
packing) that sit between raw extracted text and a tokenized training
set.  None of these exist in the reference (which stops at KG
construction, /root/reference/graphrag/core/ingest.py); they are the
beyond-reference training-data surface the brief asks for, built on the
same engine primitives (`map_batches` over Arrow, `grouped_apply`
exchanges).

Scale shape: PII redaction and repetition scoring are per-document —
pure map stages, no exchange, RE2 / vectorized-pandas kernels per
batch.  Sequence packing is per-shard-sequential by construction
(greedy concatenation order matters), so it runs as ONE hash exchange
on a caller-chosen shard key and a fully vectorized per-partition
layout computation — parallelism across shards, exact GPT-style
concat-and-chunk semantics within a shard.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.rounding import sql_round
from ..stages.shuffle import combine, grouped_apply

# RE2-compatible patterns (no lookahead/backrefs) — pyarrow's
# replace_substring_regex and DuckDB's regexp_replace both run RE2, so
# an oracle can assert byte-exact parity.  Order matters: emails first
# (their local parts contain dots/digits), then IPs (which the phone
# pattern would otherwise eat), then phones.
PII_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"(?:\+?\d{1,2}[ .-]?)?\(?\d{3}\)?[ .-]?\d{3}[ .-]?\d{4}", "<PHONE>"),
]


def redact_pii_array(strings: pa.Array | pa.ChunkedArray):
    """Apply the PII pattern chain to an Arrow string array — all
    occurrences, vectorized in RE2."""
    for pattern, repl in PII_PATTERNS:
        strings = pc.replace_substring_regex(
            strings, pattern=pattern, replacement=repl
        )
    return strings


def pii_redact(docs_ds, text_col: str = "text",
               out_col: str | None = None):
    """Mask emails / IPv4 addresses / phone numbers in ``text_col``
    (written to ``out_col``, default in-place) — a pure map stage: no
    exchange, no state, byte-deterministic."""
    dest = out_col or text_col

    def redact(batch: pa.Table) -> pa.Table:
        red = redact_pii_array(batch.column(text_col))
        if dest in batch.column_names:
            return batch.set_column(
                batch.column_names.index(dest), dest, red
            )
        return batch.append_column(dest, red)

    return docs_ds.map_batches(redact, batch_format="pyarrow")


def repetition_scores(docs_ds, id_col: str = "doc_id",
                      text_col: str = "text", append: bool = False):
    """Gopher-style repetition signals per document over whitespace
    tokens: ``n_tokens``, ``distinct_frac`` (distinct/total),
    ``top_token_frac`` (most frequent token's share) and
    ``top_bigram_frac`` (most frequent adjacent bigram's share of the
    n-1 bigrams; 0.0 for single-token docs).  Documents with no tokens
    are dropped (no signal).  Per-document ⇒ pure map stage; the batch
    kernel is one flatten + two pandas groupbys, no per-row Python.
    Fractions round half-away-from-zero to 6 digits for DuckDB oracle
    parity.  With ``append=True`` the four score columns are appended
    to the input batch (all original columns kept) so a downstream
    quality filter needs no join."""

    def score(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern(batch.column(text_col), " ")
        lens = pc.list_value_length(split).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        toks = pc.list_flatten(split).to_numpy(zero_copy_only=False)
        mask = toks != ""
        doc_idx, toks = doc_idx[mask], toks[mask]
        if len(toks) == 0:
            empty_scores = {
                "n_tokens": pa.array([], pa.int64()),
                "distinct_frac": pa.array([], pa.float64()),
                "top_token_frac": pa.array([], pa.float64()),
                "top_bigram_frac": pa.array([], pa.float64()),
            }
            if append:
                out = batch.slice(0, 0)
                for name, col in empty_scores.items():
                    out = out.append_column(name, col)
                return out
            return pa.table({
                id_col: pa.array([], batch.schema.field(id_col).type),
                **empty_scores,
            })
        df = pd.DataFrame({"d": doc_idx, "t": toks})
        grp = df.groupby("d", sort=True)["t"]
        n = grp.size()
        nun = grp.nunique()
        top = df.groupby(["d", "t"], sort=False).size().groupby(
            level=0
        ).max()
        # adjacent pairs that stay within one document
        same = doc_idx[1:] == doc_idx[:-1]
        tser = pd.Series(toks)
        bg = pd.DataFrame({
            "d": doc_idx[:-1][same],
            "b": (tser.iloc[:-1].reset_index(drop=True)[same] + " "
                  + tser.iloc[1:].reset_index(drop=True)[same]),
        })
        if len(bg):
            topbg = bg.groupby(["d", "b"], sort=False).size().groupby(
                level=0
            ).max()
        else:
            topbg = pd.Series(dtype="int64")
        topbg = topbg.reindex(n.index)

        docs = n.index.to_numpy()
        n_np = n.to_numpy(np.float64)
        nbig = np.maximum(n_np - 1.0, 1.0)  # divisor; n==1 → frac 0/1
        scores = {
            "n_tokens": pa.array(n.to_numpy(np.int64)),
            "distinct_frac": pa.array(
                sql_round(nun.to_numpy(np.float64) / n_np, 6)),
            "top_token_frac": pa.array(
                sql_round(top.to_numpy(np.float64) / n_np, 6)),
            "top_bigram_frac": pa.array(
                sql_round(topbg.fillna(0.0).to_numpy(np.float64) / nbig, 6)),
        }
        if append:
            out = batch.take(pa.array(docs))
            for name, col in scores.items():
                out = out.append_column(name, col)
            return out
        return pa.table({
            id_col: batch.column(id_col).take(pa.array(docs)),
            **scores,
        })

    return docs_ds.map_batches(score, batch_format="pyarrow")


def pack_sequences(ds, shard_col: str, count_col: str,
                   id_col: str = "doc_id", max_len: int = 256):
    """GPT-style concat-and-chunk sequence packing: within each shard,
    documents are laid end-to-end in ``id_col`` order and the token
    stream is cut every ``max_len`` tokens.  Emits one row per document
    SEGMENT — ``(shard, pack_id, doc_id, seg_start, seg_len,
    pack_offset)`` — from which a tokenizing consumer can assemble each
    fixed-length training sequence and its document-boundary (EOD/loss
    mask) positions.  Zero-count documents contribute nothing.

    Packing is inherently sequential in the concatenation order, so the
    shard key IS the parallelism: one hash exchange on ``shard_col``,
    then a fully vectorized per-partition layout (cumsum + boundary
    explode via ``np.repeat`` — no per-row Python).  At 100 TB the
    caller sizes shards so one shard's doc COUNT rows fit a worker
    (the token payloads never move — only (id, count) pairs ride the
    exchange); determinism is independent of input partitioning.
    """

    def pack(batch: pa.Table) -> pa.Table:
        pdf = batch.select([shard_col, id_col, count_col]).to_pandas()
        pdf = pdf[pdf[count_col] > 0].sort_values(
            [shard_col, id_col], kind="stable"
        )
        if len(pdf) == 0:
            return pa.table({
                shard_col: pa.array([], batch.schema.field(shard_col).type),
                "pack_id": pa.array([], pa.int64()),
                id_col: pa.array([], batch.schema.field(id_col).type),
                "seg_start": pa.array([], pa.int64()),
                "seg_len": pa.array([], pa.int64()),
                "pack_offset": pa.array([], pa.int64()),
            })
        n = pdf[count_col].to_numpy(np.int64)
        end = pdf.groupby(shard_col, sort=False)[count_col].cumsum() \
                 .to_numpy(np.int64)
        start = end - n
        first = start // max_len
        last = (end - 1) // max_len
        nseg = last - first + 1
        ridx = np.repeat(np.arange(len(pdf)), nseg)
        seg_no = np.arange(len(ridx)) - np.repeat(
            np.cumsum(nseg) - nseg, nseg
        )
        pack_id = first[ridx] + seg_no
        lo = np.maximum(start[ridx], pack_id * max_len)
        hi = np.minimum(end[ridx], (pack_id + 1) * max_len)
        return pa.table({
            shard_col: pa.array(pdf[shard_col].to_numpy()[ridx]),
            "pack_id": pa.array(pack_id),
            id_col: pa.array(pdf[id_col].to_numpy()[ridx]),
            "seg_start": pa.array(lo - start[ridx]),
            "seg_len": pa.array(hi - lo),
            "pack_offset": pa.array(lo - pack_id * max_len),
        })

    slim = ds.map_batches(
        lambda b: b.select([shard_col, id_col, count_col]),
        batch_format="pyarrow",
    )
    return grouped_apply(slim, [shard_col], pack,
                         batch_format="pyarrow")


def strip_boilerplate(docs, id_col: str = "doc_id",
                      text_col: str = "text", min_docs: int = 10,
                      out_col: str = "clean_text",
                      scope_col: str | None = None):
    """CCNet/RefinedWeb-style boilerplate-line removal: a line that
    occurs in ``>= min_docs`` DISTINCT documents (cookie banners,
    nav menus, subscribe footers) is dropped from every document.
    With ``scope_col`` (e.g. the registrable domain) the count is PER
    SCOPE — the RefinedWeb per-SITE template rule: a site's nav line
    repeats across that site's pages but an identical line on an
    unrelated small site survives.

    Two exchanges, both over the exploded (doc, line) rows the rewrite
    has to move anyway:

    1. keyed by ``line`` (plus ``scope_col`` when scoped) — each
       partition counts distinct docs per (scope,) line locally
       (exact, vectorized ``nunique``) and flags every occurrence
       keep/drop.  Hot boilerplate lines are exactly the dropped ones;
       their rows reduce to a flag, never reassemble.
    2. keyed by ``doc`` — surviving lines sort by their original index
       and re-join with ``\\n``; documents whose every line was
       boilerplate still emit (empty string), so output cardinality
       equals input.

    The explode itself is vectorized Arrow (``split_pattern`` +
    ``list_flatten`` + one ``np.repeat`` for ids/offsets)."""
    count_keys = ([scope_col, "line"] if scope_col else ["line"])

    def explode(batch: pa.Table) -> pa.Table:
        txt = pc.cast(batch.column(text_col), pa.string())
        lines = pc.split_pattern(txt, "\n")
        n = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        n = np.asarray(n, dtype=np.int64)
        ids = np.repeat(
            batch.column(id_col).to_numpy(zero_copy_only=False), n
        )
        flat = pc.list_flatten(lines)
        starts = np.cumsum(n) - n
        idx = np.arange(int(n.sum()), dtype=np.int64) - np.repeat(starts, n)
        out = pa.table({id_col: pa.array(ids), "line_idx": pa.array(idx),
                        "line": flat})
        if scope_col:
            scope = np.repeat(
                batch.column(scope_col).to_numpy(zero_copy_only=False), n)
            out = out.append_column(scope_col, pa.array(scope))
        return out

    def mark(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas()
        nun = pdf.groupby(count_keys)[id_col].transform("nunique")
        pdf["__keep"] = (nun < min_docs).to_numpy()
        return pa.Table.from_pandas(pdf, preserve_index=False)

    def assemble(tbl: pa.Table) -> pa.Table:
        pdf = tbl.to_pandas().sort_values([id_col, "line_idx"],
                                          kind="stable")
        kept = pdf[pdf["__keep"]]
        joined = kept.groupby(id_col, sort=True)["line"].agg("\n".join)
        ids = pdf[id_col].drop_duplicates().sort_values()
        out = pd.DataFrame({id_col: ids.to_numpy()})
        out[out_col] = out[id_col].map(joined).fillna("").to_numpy()
        return pa.Table.from_pandas(out, preserve_index=False)

    exploded = docs.map_batches(explode, batch_format="pyarrow")
    marked = grouped_apply(exploded, count_keys, mark,
                           batch_format="pyarrow")
    return grouped_apply(marked, [id_col], assemble,
                         batch_format="pyarrow")


def assign_splits(docs, id_col: str = "doc_id",
                  split_col: str = "split",
                  val_slots: int = 2, test_slots: int = 2):
    """Deterministic train/val/test split by md5 slot of the id (16
    slots: last ``test_slots`` → test, the ``val_slots`` before → val,
    rest → train).  Hash-based splits are the scale-correct choice: no
    RNG state, no shuffle, stable across runs, re-partitionings and
    corpus growth (a doc's split never changes when neighbors are
    added/removed).  md5 per row is Python-level ONLY so a DuckDB
    oracle can assert the assignment byte-for-byte; the production
    path uses the vectorized ``hash_pandas_object`` hash the shuffle
    layer uses everywhere."""
    import hashlib

    train_hi = 16 - val_slots - test_slots
    val_hi = 16 - test_slots

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        slots = [int(hashlib.md5(str(i).encode()).hexdigest()[-1], 16)
                 for i in ids]
        lab = ["train" if s < train_hi else
               ("val" if s < val_hi else "test") for s in slots]
        return batch.append_column(split_col, pa.array(lab, pa.string()))

    return docs.map_batches(assign, batch_format="pyarrow")


def weighted_sample(ds, weight_col: str, k: int, id_col: str = "doc_id"):
    """Deterministic weighted sampling WITHOUT replacement
    (Efraimidis-Spirakis A-Res): each row gets priority ``u^(1/w)``
    with ``u`` a uniform derived from the md5 of its id, and the
    global top-``k`` priorities win — inclusion probability is
    proportional to weight, yet the draw is pure hash arithmetic: no
    RNG state, stable under re-partitioning, re-runs and corpus
    growth (the same properties as :func:`assign_splits`, which also
    keeps md5 so a DuckDB oracle can replay the draw byte-for-byte).
    Rows with non-positive weight are excluded.

    Scale shape: priorities are per-row map work; each batch truncates
    to its local top-k (combiner) so the final exact sort sees
    O(batches·k) rows."""
    import hashlib

    def prio(batch: pa.Table) -> pa.Table:
        w = batch.column(weight_col).to_numpy(
            zero_copy_only=False
        ).astype(np.float64)
        keep = w > 0
        batch = batch.filter(pa.array(keep))
        w = w[keep]
        u = np.array([
            (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) + 0.5)
            / 4294967296.0
            for i in batch.column(id_col).to_pylist()
        ]) if batch.num_rows else np.empty(0)
        out = batch.append_column(
            "__prio", pa.array(u ** (1.0 / w), pa.float64())
        )
        if out.num_rows > k:
            pdf = out.to_pandas().sort_values(
                ["__prio", id_col], ascending=[False, True],
                kind="stable",
            ).head(k)
            out = pa.Table.from_pandas(pdf, preserve_index=False)
        return out

    return (
        ds.map_batches(prio, batch_format="pyarrow")
        .sort(["__prio", id_col], descending=[True, False])
        .limit(k)
        .drop_columns(["__prio"])
    )


def extract_patterns(docs_ds, pattern: str, id_col: str = "doc_id",
                     text_col: str = "text", match_col: str = "match",
                     idx_col: str = "match_idx"):
    """Regex extraction to long form — every non-overlapping match of
    ``pattern`` as its own row ``(id, match, match_idx)`` with the
    1-based ordinal of the match within its document (SQL
    ``unnest(regexp_extract_all(...))`` zipped with its position).

    Scale shape: a pure map stage, zero exchanges — findall + explode
    per batch; output rows ∝ matches, blocks stay proportional to
    input.  Use RE2-compatible patterns (no lookahead/backrefs) so a
    DuckDB oracle matches byte-exactly."""

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        found = pdf[text_col].str.findall(pattern)
        out = pd.DataFrame({id_col: pdf[id_col].to_numpy(),
                            match_col: found.to_numpy()})
        out = out.explode(match_col, ignore_index=False)
        out = out[out[match_col].notna()]
        out[idx_col] = out.groupby(level=0).cumcount() + 1
        out[match_col] = out[match_col].astype(str)
        return out.reset_index(drop=True)

    return docs_ds.map_batches(fn, batch_format="pandas")


def normalize_text(docs_ds, id_col: str = "doc_id",
                   text_col: str = "text", out_col: str = "norm_text"):
    """Canonical text normalization — collapse whitespace runs to one
    space, trim, lowercase (the preprocessing step exact dedup and
    fingerprinting assume).  Pure Arrow-kernel map stage, zero
    exchanges, byte-exact RE2/DuckDB parity
    (``lower(trim(regexp_replace(text, '\\s+', ' ', 'g')))``)."""

    def fn(batch: pa.Table) -> pa.Table:
        t = pc.replace_substring_regex(batch.column(text_col), r"\s+",
                                       " ")
        t = pc.utf8_lower(pc.utf8_trim_whitespace(t))
        return pa.table({id_col: batch.column(id_col), out_col: t})

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def json_extract_scalar(ds, col: str, key: str, out_col: str):
    """Extract one top-level scalar from a JSON-string column (the
    semi-structured side-car pattern — event ``props``, crawl metadata)
    as an int64 column, null on missing/malformed rows.

    Per-row ``json.loads`` inside the batch — JSON parse is inherently
    per-record (the same shape as html→text extraction); the stage is
    a pure map, zero exchanges, and drops the raw JSON immediately so
    downstream blocks carry only the typed column."""
    import json

    def fn(batch: pa.Table) -> pa.Table:
        vals = []
        for s in batch.column(col).to_pylist():
            try:
                v = json.loads(s).get(key)
                vals.append(int(v) if v is not None else None)
            except (ValueError, TypeError):
                vals.append(None)
        return batch.drop_columns([col]).append_column(
            out_col, pa.array(vals, pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow")


_C4_TERMINAL = (".", "!", "?", '"')


def c4_line_filter(ds, id_col: str = "doc_id", text_col: str = "text",
                   min_words_per_line: int = 5, min_lines: int = 3):
    """C4-style rule-based page cleaning (the published heuristics of
    Raffel et al. 2020 §2.2, the complement of the corpus-frequency
    boilerplate pass above): keep only lines that end in terminal
    punctuation, have ≥ ``min_words_per_line`` whitespace words, and
    don't mention "javascript"; then drop the whole page if fewer than
    ``min_lines`` lines survive, if it contains "lorem ipsum", or if it
    contains a ``{``. Pure stateless map stage — line scanning is the
    irreducible per-doc work; no exchange anywhere.

    Output: ``(id_col, text_col(kept lines re-joined), n_lines:int64)``.
    """

    def fn(batch: pa.Table) -> pa.Table:
        ids, texts, counts = [], [], []
        for i, t in zip(batch.column(id_col).to_pylist(),
                        batch.column(text_col).to_pylist()):
            t = t or ""
            if "lorem ipsum" in t.lower() or "{" in t:
                continue
            kept = [
                line for line in t.split("\n")
                if line.endswith(_C4_TERMINAL)
                and len(line.split()) >= min_words_per_line
                and "javascript" not in line.lower()
            ]
            if len(kept) < min_lines:
                continue
            ids.append(i)
            texts.append("\n".join(kept))
            counts.append(len(kept))
        return pa.table({
            id_col: pa.array(ids, batch.column(id_col).type),
            text_col: pa.array(texts, pa.large_string()),
            "n_lines": pa.array(counts, pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


_GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have",
                     "with")
_BULLET_RE = r"^(• |- |\* )"
_ELLIPSIS_RE = r"(\.\.\.|…)$"


def gopher_quality(ds, id_col: str = "doc_id", text_col: str = "text",
                   min_words: int = 50, max_words: int = 100_000,
                   min_mean_word_len: float = 3.0,
                   max_mean_word_len: float = 10.0,
                   max_symbol_ratio: float = 0.1,
                   max_bullet_frac: float = 0.9,
                   max_ellipsis_frac: float = 0.3,
                   min_alpha_frac: float = 0.8,
                   min_stopwords: int = 2):
    """Gopher doc-level quality rules (Rae et al. 2021, Appendix A1.1
    — the published spec): keep a document iff its whitespace word
    count is in [min_words, max_words], mean word length in
    [min_mean_word_len, max_mean_word_len], symbol-to-word ratio
    (``#`` + ``...``/``…`` occurrences per word) ≤ max_symbol_ratio,
    < max_bullet_frac of lines start with a bullet, < max_ellipsis_frac
    of lines end with an ellipsis, ≥ min_alpha_frac of words contain an
    alphabetic character, and ≥ min_stopwords DISTINCT words from the
    canonical 8-stopword set appear.  The complement of the C4 LINE
    rules above — these are document-level signals.

    Pure stateless map stage; the kernel is flatten + ``np.bincount``
    folds (no per-row Python).  Fractions round half-away-from-zero to
    6 digits and ``keep`` is judged on the ROUNDED values, both for
    DuckDB-oracle parity.  Output per input doc: ``(id_col,
    n_words:int64, mean_word_len, symbol_ratio, bullet_frac,
    ellipsis_frac, alpha_frac:float64, n_stopwords:int64,
    keep:int64)``."""

    def signals(batch: pa.Table) -> pa.Table:
        n = len(batch)
        texts = pc.fill_null(batch.column(text_col), "")
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()

        words_list = pc.split_pattern_regex(texts, r"\s+")
        wlens = pc.list_value_length(words_list).to_numpy(
            zero_copy_only=False).astype(np.int64)
        wdoc = np.repeat(np.arange(n), wlens)
        words = pc.list_flatten(words_list)
        nonempty = pc.not_equal(words, "").to_numpy(zero_copy_only=False)
        wd = wdoc[nonempty]
        n_words = np.bincount(wd, minlength=n).astype(np.int64)
        chars = pc.utf8_length(words).to_numpy(
            zero_copy_only=False).astype(np.float64)[nonempty]
        total_chars = np.bincount(wd, weights=chars, minlength=n)
        alpha = pc.match_substring_regex(words, "[A-Za-z]").to_numpy(
            zero_copy_only=False).astype(np.float64)[nonempty]
        alpha_words = np.bincount(wd, weights=alpha, minlength=n)

        sw_idx = pc.index_in(
            pc.utf8_lower(words),
            value_set=pa.array(list(_GOPHER_STOPWORDS)),
        ).to_numpy(zero_copy_only=False)
        hit = ~np.isnan(sw_idx)
        keys = np.unique(wdoc[hit] * 8 + sw_idx[hit].astype(np.int64))
        n_stop = np.bincount(keys // 8, minlength=n).astype(np.int64)

        lines_list = pc.split_pattern(texts, "\n")
        llens = pc.list_value_length(lines_list).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ldoc = np.repeat(np.arange(n), llens)
        lines = pc.list_flatten(lines_list)
        n_lines = np.maximum(np.bincount(ldoc, minlength=n), 1)
        bullet = pc.match_substring_regex(lines, _BULLET_RE).to_numpy(
            zero_copy_only=False).astype(np.float64)
        ellip = pc.match_substring_regex(lines, _ELLIPSIS_RE).to_numpy(
            zero_copy_only=False).astype(np.float64)
        bullet_lines = np.bincount(ldoc, weights=bullet, minlength=n)
        ellip_lines = np.bincount(ldoc, weights=ellip, minlength=n)

        symbols = (
            pc.count_substring(texts, "#").to_numpy(zero_copy_only=False)
            + pc.count_substring(texts, "...").to_numpy(
                zero_copy_only=False)
            + pc.count_substring(texts, "…").to_numpy(
                zero_copy_only=False)
        ).astype(np.float64)

        denom = np.maximum(n_words, 1).astype(np.float64)
        mean_len = sql_round(total_chars / denom, 6)
        sym_ratio = sql_round(symbols / denom, 6)
        bullet_frac = sql_round(bullet_lines / n_lines.astype(np.float64), 6)
        ellip_frac = sql_round(ellip_lines / n_lines.astype(np.float64), 6)
        alpha_frac = sql_round(alpha_words / denom, 6)

        keep = (
            (n_words >= min_words) & (n_words <= max_words)
            & (mean_len >= min_mean_word_len)
            & (mean_len <= max_mean_word_len)
            & (sym_ratio <= max_symbol_ratio)
            & (bullet_frac < max_bullet_frac)
            & (ellip_frac < max_ellipsis_frac)
            & (alpha_frac >= min_alpha_frac)
            & (n_stop >= min_stopwords)
        )
        return pa.table({
            id_col: batch.column(id_col),
            "n_words": pa.array(n_words),
            "mean_word_len": pa.array(mean_len),
            "symbol_ratio": pa.array(sym_ratio),
            "bullet_frac": pa.array(bullet_frac),
            "ellipsis_frac": pa.array(ellip_frac),
            "alpha_frac": pa.array(alpha_frac),
            "n_stopwords": pa.array(n_stop),
            "keep": pa.array(keep.astype(np.int64)),
        })

    return ds.map_batches(signals, batch_format="pyarrow")


def rebalance_to_target(ds, group_col: str, targets: dict[str, float],
                        id_col: str = "doc_id"):
    """Measure→act training-mix rebalancing: downsample each group so
    the SURVIVING corpus matches a target share distribution (e.g.
    rebalance languages to 50% en / 12.5% each of de-fr-es-zh) while
    keeping as many documents as possible.

    Phase 1 (measure): one grouped count — the exchange carries one row
    per group; the driver folds a #groups-bounded table. The largest
    achievable corpus is ``K = min_g(n_g / target_g)``; each group's
    keep rate is ``target_g * K / n_g`` (≤ 1 by construction, with the
    binding group kept whole). Groups absent from ``targets`` drop.

    Phase 2 (act): map-side deterministic hash thresholding — a row
    survives iff ``md5(id)``'s first 8 hex digits, read as a uniform in
    [0,1), fall below its group's rate. No RNG state, reproducible
    under any partitioning, and expected shares hit the target exactly.
    md5 per row is for DuckDB-oracle parity (the clean.py sampling
    precedent); production would ride the vectorized shuffle hash.
    """
    import hashlib

    from ray.data.aggregate import Count

    counts = {r[group_col]: r["n"]
              for r in ds.groupby(group_col)
                         .aggregate(Count(alias_name="n")).take_all()
              if r[group_col] in targets}
    if not counts:
        return ds.filter(lambda row: False)
    biggest = min(counts[g] / targets[g] for g in counts)
    rates = {g: targets[g] * biggest / counts[g] for g in counts}

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        groups = batch.column(group_col).to_pylist()
        mask = [
            g in rates
            and int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
            / 2**32 < rates[g]
            for i, g in zip(ids, groups)
        ]
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def length_trim(counts_ds, lo: float = 0.05, hi: float = 0.95,
                count_col: str = "ws_tokens"):
    """Percentile length trim — drop documents whose token count falls
    outside the corpus's [lo, hi] quantile band (the standard
    outlier-page cut between extraction and tokenization; very short
    pages are navigation stubs, very long ones are logs/dumps).

    Exact ``quantile_cont`` thresholds WITHOUT a values exchange: token
    counts live in a tiny integer domain (≤ max document length), so
    per-block ``value_counts`` partials feed one groupby over at most
    that many distinct values, the driver folds the (bounded) histogram
    and interpolates at rank q·(N−1), and the filter is a pure map with
    the two scalars closed over.  At 100 TB the aggregate stays a few
    thousand rows — the corpus size never appears in any exchange.
    """
    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch.column(count_col))
        return pa.table({count_col: vc.field("values"),
                         "cnt": pc.cast(vc.field("counts"), pa.int64())})

    rows = (counts_ds.map_batches(partial, batch_format="pyarrow")
            .groupby(count_col).sum("cnt").take_all())  # bounded: ≤ max doc length
    vals = np.array([r[count_col] for r in rows], dtype=np.int64)
    cnts = np.array([r["sum(cnt)"] for r in rows], dtype=np.int64)
    order = np.argsort(vals)
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1])

    def q_cont(q: float) -> float:
        # linear interpolation at rank q·(N−1) over the sorted multiset,
        # read off the cumulative histogram (quantile_cont semantics)
        p = q * (n - 1)
        i = int(np.floor(p))
        frac = p - i
        vi = float(vals[np.searchsorted(cum, i, side="right")])
        if frac == 0.0:
            return vi
        vj = float(vals[np.searchsorted(cum, i + 1, side="right")])
        return vi + frac * (vj - vi)

    lo_v, hi_v = q_cont(lo), q_cont(hi)

    def keep(batch: pa.Table) -> pa.Table:
        c = pc.cast(batch.column(count_col), pa.float64())
        return batch.filter(pc.and_(pc.greater_equal(c, lo_v),
                                    pc.less_equal(c, hi_v)))

    return counts_ds.map_batches(keep, batch_format="pyarrow")


def domain_quality_filter(docs_ds, domain_col: str = "source",
                          id_col: str = "doc_id", text_col: str = "text",
                          drop_quantile: float = 0.25):
    """Domain-level quality gating (the RefinedWeb / UT1 pattern
    applied to SIGNALS instead of a blocklist): score every document
    with the composite quality heuristic, average per DOMAIN, and drop
    every document of the domains whose mean falls below the exact
    ``drop_quantile`` of domain means — whole spammy sites disappear,
    including their individually innocuous pages.

    Output: (id, domain, domain_quality) for documents of kept domains;
    the per-doc quality is rounded to 6 digits BEFORE averaging so a
    SQL oracle composes off the quality view bit-for-bit.

    Scale shape: scoring is a pure map; the domain mean reduces
    through a (sum, n) combiner and ONE domain-keyed exchange, so the
    exchange ships O(domains × map-tasks) tiny rows; the threshold is
    :func:`relational.exact_quantile` on the O(domains) mean table (no
    global sort); kept domains come back as ONE broadcast filter list
    (at web scale, millions of eTLD+1 domains ≈ tens of MB — ``ray.put``
    once; the blocked minority could equally ride a bloom filter)."""
    from ..functions.textstats import quality_scores
    from .relational import exact_quantile

    def score(batch: pa.Table) -> pa.Table:
        qs = sql_round([quality_scores(t)["quality"]
                        for t in batch.column(text_col).to_pylist()], 6)
        return pa.table({
            id_col: batch.column(id_col),
            domain_col: batch.column(domain_col),
            "__q": pa.array(qs, pa.float64()),
        })

    scored = docs_ds.map_batches(score, batch_format="pyarrow",
                                 batch_size=8192).materialize()

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by([domain_col]).aggregate(
            [("__q", "sum"), ([], "count_all")]
        )
        return g.rename_columns([domain_col, "__s", "__n"])

    def reduce_means(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by([domain_col]).aggregate(
            [("__s", "sum"), ("__n", "sum")]
        )
        s = g.column("__s_sum").to_numpy(zero_copy_only=False)
        n = g.column("__n_sum").to_numpy(zero_copy_only=False)
        return pa.table({
            domain_col: g.column(domain_col),
            "domain_quality": pa.array(sql_round(s / n, 6), pa.float64()),
        })

    domain_means = grouped_apply(
        combine(scored, partial),
        [domain_col], reduce_means,
        batch_format="pyarrow",
    ).materialize()
    thr = exact_quantile(domain_means, "domain_quality", drop_quantile)

    kept = {
        r[domain_col]: r["domain_quality"]
        for r in domain_means.filter(
            expr=f"domain_quality >= {thr!r}"
        ).take_all()
    }

    def keep(batch: pa.Table) -> pa.Table:
        doms = batch.column(domain_col).to_pylist()
        mask = pa.array([d in kept for d in doms], pa.bool_())
        out = batch.filter(mask)
        dq = [kept[d] for d in out.column(domain_col).to_pylist()]
        return pa.table({
            id_col: out.column(id_col),
            domain_col: out.column(domain_col),
            "domain_quality": pa.array(dq, pa.float64()),
        })

    return scored.map_batches(keep, batch_format="pyarrow")


# A latin-1-decoded UTF-8 sequence: a lead byte (0xC2-0xF4) followed by
# a continuation byte (0x80-0xBF), both read as the latin-1 codepoints
# they became.  This is THE signature of mojibake from the single most
# common corruption on the web — UTF-8 bytes re-decoded as latin-1 /
# cp1252 (ftfy's headline case).
# Continuation-byte class: the latin-1 codepoints U+0080-U+00BF, plus
# what cp1252 maps the 0x80-0x9F bytes to (curly quotes, dashes, etc.)
# so smart-punctuation mojibake ("\u00e2\u20ac\u2122" for "'") is
# caught too.
_MOJIBAKE_CONT = ("\u0080-\u00bf\u20ac\u201a\u0192\u201e\u2026\u2020"
                  "\u2021\u02c6\u2030\u0160\u2039\u0152\u017d\u2018"
                  "\u2019\u201c\u201d\u2022\u2013\u2014\u02dc\u2122"
                  "\u0161\u203a\u0153\u017e\u0178")
_MOJIBAKE_RE = "[\u00c2-\u00f4][" + _MOJIBAKE_CONT + "]"


def _repair_mojibake(s: str, max_rounds: int = 3) -> str:
    """Undo up to ``max_rounds`` layers of UTF-8-decoded-as-latin-1
    corruption on one string.  Conservative whole-string rule: a repair
    round is accepted only if the latin-1 (or cp1252) re-encode and the
    UTF-8 re-decode BOTH succeed and the mojibake-marker count strictly
    decreases — genuine text is never made worse (ftfy fixes segments;
    we fix whole strings, trading recall on mixed strings for a
    no-corruption guarantee)."""
    import re

    mark = re.compile(_MOJIBAKE_RE)
    n = len(mark.findall(s))
    for _ in range(max_rounds):
        if n == 0:
            break
        try:
            b = s.encode("latin-1")
        except UnicodeEncodeError:
            try:
                b = s.encode("cp1252")
            except UnicodeEncodeError:
                break
        try:
            t = b.decode("utf-8")
        except UnicodeDecodeError:
            break
        n2 = len(mark.findall(t))
        if n2 >= n:
            break
        s, n = t, n2
    return s


def fix_mojibake(docs_ds, id_col: str = "doc_id", text_col: str = "text"):
    """Encoding repair for web text (the ftfy / CCNet hygiene step the
    cleaning surface was missing): detect UTF-8-decoded-as-latin-1
    mojibake ("Ã©" for "é", "â€™" for "'") and undo it, including
    double-encoded layers.

    Output: ``(id_col, text_col(repaired), n_mojibake:int64(markers
    BEFORE repair), fixed:bool)``.

    Scale shape: pure map stage, zero exchanges.  Detection is ONE
    vectorized RE2 scan per batch (`pc.count_substring_regex`); the
    per-row Python codec round-trip runs ONLY on the flagged rows —
    on a real crawl that is a small minority, so the hot path stays
    Arrow-vectorized."""

    def fn(batch: pa.Table) -> pa.Table:
        txt = batch.column(text_col)
        counts = pc.count_substring_regex(txt, _MOJIBAKE_RE)
        counts = pc.fill_null(counts, 0).cast(pa.int64())
        texts = txt.to_pylist()
        cl = counts.to_pylist()
        fixed = []
        for i, c in enumerate(cl):
            if c:
                t = _repair_mojibake(texts[i])
                fixed.append(t != texts[i])
                texts[i] = t
            else:
                fixed.append(False)
        return pa.table({
            id_col: batch.column(id_col),
            text_col: pa.array(texts, pa.string()),
            "n_mojibake": counts,
            "fixed": pa.array(fixed, pa.bool_()),
        })

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def budget_head(ds, order_col: str, count_col: str,
                budget: float | dict, id_col: str = "doc_id",
                group_col: str | None = None, descending: bool = True,
                num_buckets: int = 256,
                cum_col: str = "cum_tokens"):
    """Data selection under a budget (the "best data until N tokens"
    step of training-set assembly): order the corpus by ``order_col``
    (quality, DSIR weight, …) and keep rows while the running
    ``count_col`` total stays ≤ ``budget`` — SQL's
    ``SUM(count) OVER (ORDER BY order, id) <= budget``, distributed.

    With ``group_col`` this becomes MIXTURE construction: the cutoff
    runs independently per group (per language / per source), with
    ``budget`` either one number for every group or a
    ``{group: budget}`` dict (missing groups get 0 — drop) — SQL's
    ``SUM(count) OVER (PARTITION BY group ORDER BY order, id)``.

    Scale shape (the :func:`~.shards.global_shuffle_positions`
    prefix-sum pattern): a bounded min/max pass linearly quantizes
    ``order_col`` into ``num_buckets`` order-preserving ranges;
    per-(group, bucket) token sums fold to the driver as
    O(groups × buckets) numbers whose per-group running sums give each
    bucket's preceding total; ONE (group, bucket)-keyed exchange then
    sorts each bucket locally and applies
    ``preceding + local cumsum <= budget[group]`` vectorized.  Buckets
    whose preceding total already exceeds their group's budget emit
    nothing; no global sort, no driver-side row data."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min

    gcols = [group_col] if group_col else []

    def slim_fn(b: pa.Table) -> pa.Table:
        cols = {id_col: b.column(id_col)}
        for g in gcols:
            cols[g] = b.column(g)
        cols[order_col] = pc.cast(b.column(order_col), pa.float64())
        cols[count_col] = pc.cast(b.column(count_col), pa.float64())
        return pa.table(cols)

    slim = ds.map_batches(slim_fn, batch_format="pyarrow").materialize()

    stats = slim.aggregate(Min(on=order_col), Max(on=order_col))
    lo = (stats or {}).get(f"min({order_col})")
    hi = (stats or {}).get(f"max({order_col})")
    if lo is None or hi is None:   # empty corpus → empty selection
        return slim.map_batches(
            lambda b: b.append_column(
                cum_col, pa.array([], pa.float64())),
            batch_format="pyarrow")
    span = (hi - lo) or 1.0

    def budget_of(g) -> float:
        if isinstance(budget, dict):
            return float(budget.get(g, 0.0))
        return float(budget)

    def bucket_of(v: np.ndarray) -> np.ndarray:
        frac = (hi - v) / span if descending else (v - lo) / span
        return np.clip((frac * num_buckets).astype(np.int64),
                       0, num_buckets - 1)

    def key_it(batch: pa.Table) -> pa.Table:
        v = batch.column(order_col).to_numpy(zero_copy_only=False)
        return batch.append_column("__bucket",
                                   pa.array(bucket_of(v), pa.int64()))

    keyed = slim.map_batches(key_it, batch_format="pyarrow").materialize()

    part_keys = gcols + ["__bucket"]
    sums: dict[tuple, float] = {}
    for row in keyed.map_batches(
        lambda b: b.group_by(part_keys).aggregate(
            [(count_col, "sum")]).rename_columns(part_keys + ["s"]),
        batch_format="pyarrow",
    ).take_all():
        k = tuple(row[c] for c in part_keys)
        sums[k] = sums.get(k, 0.0) + row["s"]
    preceding: dict[tuple, float] = {}
    acc_by_group: dict[tuple, float] = {}
    for k in sorted(sums):
        g = k[:-1]
        preceding[k] = acc_by_group.get(g, 0.0)
        acc_by_group[g] = preceding[k] + sums[k]

    def cut(tbl: pa.Table) -> pa.Table:
        df = tbl.to_pandas().sort_values(
            part_keys + [order_col, id_col],
            ascending=[True] * len(part_keys)
            + [not descending, True], kind="mergesort")
        key_tuples = list(zip(*(df[c] for c in part_keys)))
        base = np.array([preceding[k] for k in key_tuples])
        cum = df.groupby(part_keys, sort=False)[count_col].cumsum()
        total = base + cum.to_numpy()
        if group_col:
            caps = np.array([budget_of(g) for g in df[group_col]])
        else:
            caps = budget_of(None)
        keep = total <= caps
        out = df[keep]
        cols = {id_col: pa.array(out[id_col].to_numpy())}
        for g in gcols:
            cols[g] = pa.array(out[g].to_numpy())
        cols[order_col] = pa.array(out[order_col].to_numpy(),
                                   pa.float64())
        cols[count_col] = pa.array(out[count_col].to_numpy(),
                                   pa.float64())
        cols[cum_col] = pa.array(total[keep], pa.float64())
        return pa.table(cols)

    return grouped_apply(keyed, part_keys, cut)


def pseudonymize(ds, cols: list[str], salt: str = "",
                 digest_chars: int = 16):
    """Deterministic keyed PSEUDONYMIZATION (GDPR-style): replace each
    listed column's values with ``md5(salt || value)`` hex prefixes —
    identity is gone but JOINABILITY survives (equal inputs map to
    equal tokens across every table sharing the salt), which is the
    property plain redaction destroys.  Change the salt to rotate the
    pseudonym space; ``digest_chars`` trades collision margin for
    width (16 hex chars = 64 bits).

    Pure stateless map — zero exchanges; md5 runs once per DISTINCT
    value per batch (web-scale key columns repeat heavily within a
    block).  The same construction replays in SQL, so outputs are
    oracle-checkable."""
    import hashlib

    def fn(batch: pa.Table) -> pa.Table:
        out = {}
        for name in batch.column_names:
            col = batch.column(name)
            if name not in cols:
                out[name] = col
                continue
            vals = pd.Series(
                pc.cast(col, pa.string()).to_pandas(), dtype=object)
            uniq = vals.dropna().unique()
            lut = {
                v: hashlib.md5(
                    (salt + v).encode("utf-8")).hexdigest()[:digest_chars]
                for v in uniq
            }
            out[name] = pa.array(vals.map(lut), pa.string())
        return pa.table(out)

    return ds.map_batches(fn, batch_format="pyarrow")


def token_windows(docs_ds, window: int = 64, stride: int = 48,
                  id_col: str = "doc_id", text_col: str = "text"):
    """Sliding token-window splitter: each document explodes into
    fixed-size whitespace-token windows of ``window`` tokens advancing
    by ``stride`` — the long-document → training-context-window step
    that complements :func:`pack_sequences` (which packs SHORT docs up
    to a budget; this splits LONG ones down to it). Window count is
    ``floor(max(n - window, 0) / stride) + 1``: every doc emits at
    least one window, the last window starts at the final stride
    multiple that still yields a full window (trailing remainder
    tokens past it are dropped, the usual fixed-window training
    convention). Tokenization is a bare single-space split (empty
    tokens from runs of spaces survive), so a SQL
    ``string_split(text, ' ')`` + ``list_slice`` oracle reproduces
    windows byte-exactly via ``array_to_string``.

    Pure map-side explode — no exchange; output order inside a doc is
    ``window_idx``, so the op is partition-count independent. Returns
    (id, window_idx, n_tokens, window_text).
    """

    def fn(b: pa.Table) -> pa.Table:
        ids_out, idxs, lens, texts = [], [], [], []
        for i, t in zip(b.column(id_col).to_pylist(),
                        b.column(text_col).to_pylist()):
            toks = t.split(" ")
            n_win = max(len(toks) - window, 0) // stride + 1
            for w in range(n_win):
                piece = toks[w * stride:w * stride + window]
                ids_out.append(i)
                idxs.append(w)
                lens.append(len(piece))
                texts.append(" ".join(piece))
        return pa.table({
            id_col: pa.array(ids_out, b.column(id_col).type),
            "window_idx": pa.array(idxs, pa.int64()),
            "n_tokens": pa.array(lens, pa.int64()),
            "window_text": pa.array(texts, pa.string()),
        })

    return docs_ds.map_batches(fn, batch_format="pyarrow",
                               batch_size=4096)


def length_buckets(docs_ds, id_col: str = "doc_id",
                   text_col: str = "text"):
    """Power-of-two length-bucket audit for dynamic batching: assign
    each document to the smallest 2^k bucket holding its non-empty
    whitespace token count, and report per bucket the doc count, total
    real tokens, and PADDING WASTE (bucket size minus real tokens,
    summed) — the number a batching policy minimizes when it groups
    samples by length before padding. Empty docs land in bucket 1 and
    count one waste token.

    Pure int64 math end to end (the bucket exponent comes from an
    exact ``log2`` — exact floats at powers of two, strictly
    fractional between them, so ``ceil`` can't flip at a boundary) —
    per-batch combiner, ONE bucket-keyed exchange. Output
    ``(bucket, n_docs, total_tokens, padding_waste)``.
    """

    def partial(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern(b.column(text_col), " ")
        lens = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        nonblank = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        didx = np.repeat(np.arange(len(lens)), lens)
        n = np.bincount(didx, weights=nonblank.astype(np.float64),
                        minlength=len(lens)).astype(np.int64)
        bucket = np.int64(1) << np.ceil(
            np.log2(np.maximum(n, 1))).astype(np.int64)
        t = pa.table({
            "bucket": pa.array(bucket),
            "n_docs": pa.array(np.ones(len(n), np.int64)),
            "total_tokens": pa.array(n),
            "padding_waste": pa.array(bucket - n),
        })
        g = t.group_by(["bucket"]).aggregate([
            ("n_docs", "sum"), ("total_tokens", "sum"),
            ("padding_waste", "sum")])
        return g.rename_columns(["bucket", "n_docs", "total_tokens",
                                 "padding_waste"])

    def merge(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["bucket"]).aggregate([
            ("n_docs", "sum"), ("total_tokens", "sum"),
            ("padding_waste", "sum")])
        return g.rename_columns(["bucket", "n_docs", "total_tokens",
                                 "padding_waste"])

    return grouped_apply(
        combine(docs_ds.select_columns([id_col, text_col]), partial),
        ["bucket"], merge,
    ).sort("bucket")
