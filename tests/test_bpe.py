"""BPE train/apply: the classic Sennrich word-count example, the
encode/train consistency property, and the distributed apply."""

import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.bpe import (
    END,
    bpe_apply,
    encode_word,
    train_bpe,
    word_counts,
)

SENNRICH = {"low": 5, "lower": 2, "newest": 6, "widest": 3}


def test_train_classic_example():
    merges = train_bpe(SENNRICH, 10)
    # 'es' (9 = newest 6 + widest 3) wins round 1; then 'est', 'est</w>'
    assert merges[0] == ("e", "s")
    assert merges[1] == ("es", "t")
    assert merges[2] == ("est", END)
    # 'lo' (7 = low 5 + lower 2) is next, then 'low'
    assert merges[3] == ("l", "o")
    assert merges[4] == ("lo", "w")


def test_encode_roundtrip_property():
    merges = train_bpe(SENNRICH, 8)
    ranks = {p: i for i, p in enumerate(merges)}
    for w in list(SENNRICH) + ["lowest", "newer", "wide", "unseen"]:
        pieces = encode_word(w, ranks)
        assert "".join(pieces) == w + END  # lossless
    # a trained word encodes to few pieces; 'low' is a learned symbol
    assert encode_word("low", ranks)[0] == "low"


def test_encode_matches_training_segmentation():
    # applying the merges to a training word reproduces the segmentation
    # training itself produced (greedy-rank inference == round rewrite
    # when every pair rank is distinct)
    merges = train_bpe(SENNRICH, 6)
    words = {w: list(w) + [END] for w in SENNRICH}
    for a, b in merges:
        for syms in words.values():
            i = 0
            while i < len(syms) - 1:
                if syms[i] == a and syms[i + 1] == b:
                    syms[i:i + 2] = [a + b]
                else:
                    i += 1
    ranks = {p: i for i, p in enumerate(merges)}
    for w, expected in words.items():
        assert encode_word(w, ranks) == expected


def test_distributed_word_counts_and_apply(ray_session):
    import ray.data

    df = pd.DataFrame({
        "text": ["low low lower", "newest widest newest",
                 "low newest  widest", ""],
    })
    ds = ray.data.from_pandas(df)
    wc = {r["word"]: r["n"]
          for r in word_counts(ds).take_all()}
    assert wc == {"low": 3, "lower": 1, "newest": 3, "widest": 2}

    merges = train_bpe(wc, 6)
    pieces = bpe_apply(ds, merges).to_pandas()
    got = dict(zip(pieces["piece"], pieces["n"]))
    # exact reference: encode each word locally, multiply by count
    ranks = {p: i for i, p in enumerate(merges)}
    expected: dict[str, int] = {}
    for w, n in wc.items():
        for p in encode_word(w, ranks):
            expected[p] = expected.get(p, 0) + n
    assert got == expected
    # total piece mass conserves total character+boundary mass
    assert sum(len(p.replace(END, "#")) for p in got) > 0


def test_word_counts_max_vocab_exact_topk(ray_session):
    import ray.data

    df = pd.DataFrame({"text": ["a a a a b b b c c d", "d a b e"]})
    ds = ray.data.from_pandas(df)
    top = {(r["word"], r["n"])
           for r in word_counts(ds,
                                max_vocab=2).take_all()}
    # counts complete BEFORE the cap: a=5, b=4 win over c=2, d=2, e=1
    assert top == {("a", 5), ("b", 4)}


# ---------------------------------------------------------------------------
# token_ids_encode: frequency-ranked vocab freeze + ordered id encode
# ---------------------------------------------------------------------------

def _enc_ds(ray_session, docs):
    import pyarrow as pa

    return ray_session.data.from_arrow(pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array(list(docs.values()), pa.large_string()),
    }))


def test_token_ids_frequency_rank_and_order(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        token_ids_encode,
    )

    # counts: "b" x4, "a" x3, "c" x1 -> ids b=0, a=1, c=2
    out = {r["doc_id"]: r for r in token_ids_encode(_enc_ds(
        ray_session, {0: "a b b", 1: "b a c", 2: "b a"})).take_all()}
    assert out[0]["ids"] == [1, 0, 0]
    assert out[1]["ids"] == [0, 1, 2]
    assert out[2]["ids"] == [0, 1]
    assert out[0]["n_tokens"] == 3


def test_token_ids_count_ties_break_lexically(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        token_ids_encode,
    )

    # "x" and "y" both appear twice: x < y lexically -> x=0, y=1
    out = {r["doc_id"]: r for r in token_ids_encode(_enc_ds(
        ray_session, {0: "y x", 1: "x y"})).take_all()}
    assert out[0]["ids"] == [1, 0]
    assert out[1]["ids"] == [0, 1]


def test_token_ids_oov_and_empty_docs(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        token_ids_encode,
    )

    out = {r["doc_id"]: r for r in token_ids_encode(
        _enc_ds(ray_session, {0: "b b a rare", 1: "", 2: "  "}),
        vocab_size=2).take_all()}
    # b=0, a=1, rare -> OOV -1 under vocab_size=2 (tie a<rare lexically)
    assert out[0]["ids"] == [0, 0, 1, -1]
    assert out[1]["ids"] == [] and out[1]["n_tokens"] == 0
    assert out[2]["ids"] == [] and out[2]["n_tokens"] == 0
    assert len(out) == 3


def test_token_ids_partition_independent(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        token_ids_encode,
    )

    docs = {i: f"tok{i % 5} tok{i % 3} shared" for i in range(40)}
    ds = _enc_ds(ray_session, docs)
    one = token_ids_encode(ds).sort("doc_id").take_all()
    many = token_ids_encode(
        ds.repartition(7)).sort("doc_id").take_all()
    assert one == many


# ---- token-id decode roundtrip ---------------------------------------------

def test_decode_token_ids_roundtrip(ray_session):
    import pandas as pd
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        decode_token_ids,
        token_ids_encode,
    )

    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["the cat sat", "the  the cat", "", "dog"],
    })
    ds = ray.data.from_pandas(docs).repartition(3)
    enc, vocab = token_ids_encode(ds,
                                  return_vocab=True)
    out = decode_token_ids(enc, vocab).to_pandas()
    got = out.set_index("doc_id")["text_rt"].to_dict()
    # decode == whitespace-squeezed source
    assert got == {0: "the cat sat", 1: "the the cat", 2: "", 3: "dog"}


def test_decode_token_ids_oov_dropped(ray_session):
    import pandas as pd
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        decode_token_ids,
        token_ids_encode,
    )

    docs = pd.DataFrame({
        "doc_id": [0, 1],
        "text": ["a a a b", "a rare"],
    })
    ds = ray.data.from_pandas(docs)
    # vocab_size=1 keeps only the most frequent token 'a'
    enc, vocab = token_ids_encode(ds, vocab_size=1,
                                  return_vocab=True)
    out = decode_token_ids(enc, vocab).to_pandas()
    got = out.set_index("doc_id")["text_rt"].to_dict()
    assert got == {0: "a a a", 1: "a"}
