"""BPE tokenizer training + application — the tokenization step of a
training-data pipeline, completing the story `bpe_pair_counts`
(textstats.py) starts.

Sennrich-style byte-pair encoding (Sennrich/Haddow/Birch 2016) trains
on the WORD-FREQUENCY table, not the corpus: the classic formulation
iterates over a ``{word: count}`` dict, so the distributed part of
training is exactly one exact word-count exchange (per-batch combiner,
vocabulary-bounded output) and the merge loop itself runs driver-side
over that bounded table — at web scale the distinct-word table is
~10⁶-10⁸ rows (already log-scale smaller than the corpus), and each
merge round is a vectorized pass over it.  If even the vocabulary
out-scales one node, the per-round pair count IS `bpe_pair_counts`'s
one-exchange shape — the loop moves to the driver with k exchanges.

Application is embarrassingly parallel: the learned merge ranks
broadcast once (``ray.put``), and each batch encodes its DISTINCT
words only (per-batch cache — the same once-per-distinct-value
convention as the entity linker), multiplying piece counts back by
word multiplicity.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.shuffle import grouped_apply

END = "</w>"


def word_counts(docs_ds, text_col: str = "text", max_vocab: int | None = None):
    """Exact corpus word frequencies (word, n) — per-batch combiner,
    one hash exchange; output bounded by the vocabulary.

    ``max_vocab`` caps the result to the top-``max_vocab`` words by
    (count desc, word) — the standard BPE-training truncation (a web
    corpus's raw distinct-word table is 10⁸+ rows of typo/url tail
    that contributes nothing to merge counts).  The cap is EXACT:
    counts are complete before truncation, each partition keeps its
    own top-``max_vocab``, and the final sort sees ≤ partitions×cap
    rows."""

    def batch_word_counts(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(pc.split_pattern(batch.column(text_col),
                                                " "))
        flat = flat.filter(pc.not_equal(flat, ""))
        t = pa.table({"word": flat})
        agg = t.group_by(["word"]).aggregate([([], "count_all")])
        return agg.rename_columns(["word", "n"])

    def reduce_(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(["word"]).aggregate([("n", "sum")])
        agg = agg.rename_columns(["word", "n"])
        if max_vocab is not None and agg.num_rows > max_vocab:
            agg = agg.sort_by([("n", "descending"),
                               ("word", "ascending")]
                              ).slice(0, max_vocab)
        return agg

    partials = docs_ds.map_batches(batch_word_counts, batch_format="pyarrow")
    counts = grouped_apply(partials, ["word"], reduce_,
                           batch_format="pyarrow")
    if max_vocab is None:
        return counts
    return counts.sort(["n", "word"],
                       descending=[True, False]).limit(max_vocab)


def train_bpe(vocab: dict[str, int], num_merges: int) -> list[tuple[str, str]]:
    """Sennrich BPE training over a word-count dict: each round merges
    the most frequent adjacent symbol pair (ties broken by pair
    lexicographic order, deterministic); words end with the ``</w>``
    boundary symbol.  Pure function; the caller supplies the
    (bounded) vocabulary table."""
    words: list[tuple[list[str], int]] = [
        (list(w) + [END], int(n)) for w, n in sorted(vocab.items())
    ]
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        counts: dict[tuple[str, str], int] = {}
        for syms, n in words:
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                counts[p] = counts.get(p, 0) + n
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        merged = best[0] + best[1]
        for syms, _n in words:
            i = 0
            while i < len(syms) - 1:
                if syms[i] == best[0] and syms[i + 1] == best[1]:
                    syms[i:i + 2] = [merged]
                else:
                    i += 1
    return merges


def encode_word(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Greedy lowest-rank-first BPE encode of one word (the standard
    inference loop)."""
    syms = list(word) + [END]
    while len(syms) > 1:
        best_rank, best_i = None, -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank, best_i = r, i
        if best_rank is None:
            break
        a, b = syms[best_i], syms[best_i + 1]
        # merge ALL occurrences of this pair left-to-right (training
        # rewrites every occurrence in the round, so inference must too)
        out, i = [], 0
        while i < len(syms):
            if i < len(syms) - 1 and syms[i] == a and syms[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = out
    return syms


def bpe_apply(docs_ds, merges: list[tuple[str, str]],
              text_col: str = "text"):
    """Corpus piece frequencies (piece, n) under the learned merges.
    The rank dict broadcasts once; each batch encodes its DISTINCT
    words only and multiplies back by multiplicity; one exchange sums
    the per-batch piece partials (piece vocabulary-bounded)."""
    import ray

    ranks = {p: i for i, p in enumerate(merges)}
    ranks_ref = ray.put(ranks)

    def batch_piece_counts(batch: pa.Table) -> pa.Table:
        r = ray.get(ranks_ref)
        flat = pc.list_flatten(pc.split_pattern(batch.column(text_col),
                                                " "))
        flat = flat.filter(pc.not_equal(flat, ""))
        words, counts = np.unique(
            flat.to_numpy(zero_copy_only=False), return_counts=True)
        piece_counts: dict[str, int] = {}
        for w, n in zip(words, counts):
            for piece in encode_word(str(w), r):
                piece_counts[piece] = piece_counts.get(piece, 0) + int(n)
        if not piece_counts:
            return pa.table({"piece": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        items = sorted(piece_counts.items())
        return pa.table({
            "piece": pa.array([k for k, _ in items], pa.string()),
            "n": pa.array([v for _, v in items], pa.int64()),
        })

    def reduce_(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(["piece"]).aggregate([("n", "sum")])
        return agg.rename_columns(["piece", "n"])

    partials = docs_ds.map_batches(batch_piece_counts, batch_format="pyarrow")
    return grouped_apply(partials, ["piece"], reduce_,
                         batch_format="pyarrow")
