import pandas as pd
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.textstats import (
    bpe_ish_token_count,
    content_hash,
    detect_language,
    fingerprint64,
    quality_scores,
    ws_token_count,
)


def test_ws_token_count():
    assert ws_token_count("a b  c") == 3
    assert ws_token_count("") == 0
    assert ws_token_count("   ") == 0
    assert ws_token_count(" one ") == 1


def test_bpe_ish_token_count():
    assert bpe_ish_token_count("") == 0
    assert bpe_ish_token_count("hello world") == 2
    assert bpe_ish_token_count("don't stop") > 2  # contraction splits


def test_detect_language():
    assert detect_language("the cat and the dog of the house is in a tree") == "en"
    assert detect_language("der Hund und die Katze ist nicht in dem Haus") == "de"
    assert detect_language("xyz qqq zzz") == "und"
    assert detect_language("") == "und"


def test_quality_scores():
    good = quality_scores("The quick brown fox jumps over the lazy dog near the barn.")
    bad = quality_scores("@@@ ### $$$ 12345 ???")
    assert good["quality"] > bad["quality"]
    assert good["n_words"] == 12
    assert 0 <= good["quality"] <= 1


def test_fingerprint64():
    t = "one two three four five six seven eight nine ten"
    assert fingerprint64(t) == fingerprint64(t)
    assert fingerprint64(t) != fingerprint64(t.replace("three", "3"))
    assert fingerprint64("") == 0
    # local change flips some windows only
    assert fingerprint64("short text") != 0


def test_content_hash_stable():
    assert content_hash("x") == content_hash("x")
    assert len(content_hash("x")) == 32


def test_grouped_apply_matches_naive_groupby(ray_session):
    import pyarrow as pa
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.shuffle import grouped_apply

    rows = [{"k": f"k{i % 17}", "v": i} for i in range(500)]
    ds = ray.data.from_items(rows)
    df = pd.DataFrame(rows)
    want = df.groupby("k")["v"].sum().to_dict()

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby("k", sort=True).agg(s=("v", "sum")).reset_index()

    got = {r["k"]: r["s"] for r in grouped_apply(
        ds, ["k"], per_partition, 8, batch_format="pandas").take_all()}
    assert got == want

    # the Arrow-native partition_fn flavor must agree, and the exchange
    # must produce Arrow blocks in BOTH flavors (pandas fns convert at
    # the partition boundary only)
    def per_partition_arrow(t: pa.Table) -> pa.Table:
        g = t.group_by(["k"]).aggregate([("v", "sum")])
        return g.rename_columns(["k", "s"])

    out = grouped_apply(ds, ["k"], per_partition_arrow, 8,
                        batch_format="pyarrow")
    got2 = {r["k"]: r["s"] for r in out.take_all()}
    assert got2 == want


def test_term_nodes_exact_when_batches_split_chunks(ray_session):
    """Regression (r4): a chunk whose term rows straddle a batch
    boundary must be distinct-counted ONCE — the old combiner counted
    it once per batch and the reducer summed the duplicates (measured
    +5,495 over 221.4 M pairs at bench scale). Tiny batch_size forces
    splits; truth is a driver-side distinct count."""
    import pyarrow as pa
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.config import PipelineConfig
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.ngram import term_nodes

    rows = []
    # chunk c0 has 7 'alpha' rows (several positions) — any batch_size
    # of 3 splits it; c1/c2 share terms with c0 across chunks
    for pos in range(7):
        rows.append(("c0", "alpha", "unigram", pos))
    for cid in ("c1", "c2"):
        for pos, term in enumerate(["alpha", "beta", "beta", "gamma"]):
            rows.append((cid, term, "unigram", pos))
    tbl = pa.table({
        "chunk_id": pa.array([r[0] for r in rows]),
        "term": pa.array([r[1] for r in rows]),
        "term_type": pa.array([r[2] for r in rows]),
        "position": pa.array([r[3] for r in rows], pa.int32()),
    })
    truth = {}
    for cid, term, tt, _ in rows:
        truth.setdefault((term, tt), set()).add(cid)
    want = {k: len(v) for k, v in truth.items()}

    for bs in (3, 4, 5, 1000):
        got = {
            (r["term"], r["term_type"]): r["chunk_count"]
            for r in term_nodes(ray.data.from_arrow(tbl), PipelineConfig(),
                                batch_size=bs).take_all()
        }
        assert got == want, f"batch_size={bs}: {got} != {want}"


def test_hash_rows_layout_invariant():
    """The partition hash must depend only on VALUES: same hashes for a
    contiguous table, a multi-chunk table (map_batches batches can span
    blocks), and a dict-encoded key column (terms layout) — otherwise
    the same key could land in different partitions of one exchange."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.shuffle import _hash_rows

    vals = ["a", "b", "c", "d", None, "ee"]
    contiguous = pa.table({"k": pa.array(vals), "v": list(range(6))})
    chunked = pa.concat_tables([contiguous.slice(0, 2),
                                contiguous.slice(2)])
    dicted = pa.table({"k": pc.dictionary_encode(pa.array(vals)),
                       "v": list(range(6))})
    want = _hash_rows(contiguous, ["k"]).tolist()
    assert _hash_rows(chunked, ["k"]).tolist() == want
    assert _hash_rows(dicted, ["k"]).tolist() == want
    # two-column keys combine per row
    assert len(set(_hash_rows(contiguous, ["k", "v"]).tolist())) == 6


def test_pandas_partition_output_schema_hashable(ray_session):
    """A pandas partition fn's Arrow output carries no ``b'pandas'``
    schema metadata, which would make the schema unhashable (Ray then
    logs "Failed to hash the schemas" when it unifies blocks)."""
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.shuffle import (
        grouped_apply,
    )

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf.groupby("k", sort=True).agg(s=("v", "sum")).reset_index()

    ds = ray.data.from_items([{"k": f"k{i % 5}", "v": i} for i in range(50)])
    batches = list(grouped_apply(ds, ["k"], per_partition, 4,
                                 batch_format="pandas")
                   .iter_batches(batch_format="pyarrow"))
    assert batches
    for b in batches:
        hash(b.schema)


def test_grouped_apply_empty_dataset(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.shuffle import grouped_apply

    ds = ray.data.from_items([{"k": "a", "v": 1}]).filter(lambda r: False)

    def per_partition(pdf: pd.DataFrame) -> pd.DataFrame:
        return pdf

    assert grouped_apply(ds, ["k"], per_partition, 4,
                         batch_format="pandas").count() == 0


def test_multimodal_decode(ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.multimodal import (
        decode_images,
        synth_media_dataset,
    )

    out = decode_images(synth_media_dataset(32), feature_dim=16).take_all()
    assert len(out) == 32
    for r in out[:5]:
        assert r["width"] >= 16 and r["height"] >= 16
        assert len(r["feature"]) == 16
        assert r["n_bytes"] > 0


def test_unigram_logprob_matches_naive(ray_session):
    import math

    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        unigram_logprob,
    )

    texts = {1: "a b a", 2: "b c", 3: "a", 4: "c c d a b"}
    ds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in texts.items()]
    )
    out = {
        r["doc_id"]: r
        for r in unigram_logprob(ds).take_all()
    }

    counts: dict[str, int] = {}
    for t in texts.values():
        for tok in t.split(" "):
            if tok:
                counts[tok] = counts.get(tok, 0) + 1
    total = sum(counts.values())
    for i, t in texts.items():
        toks = [x for x in t.split(" ") if x]
        want = sum(math.log2(counts[x] / total) for x in toks) / len(toks)
        assert out[i]["n_tokens"] == len(toks)
        assert abs(out[i]["mean_logprob"] - round(want, 6)) < 1e-9


def test_tfidf_top_terms_matches_naive(ray_session):
    import math

    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        tfidf_top_terms,
    )

    texts = {
        1: "apple apple banana cherry",
        2: "banana cherry cherry date",
        3: "apple date date date egg fig",
    }
    ds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in texts.items()]
    )
    got = tfidf_top_terms(ds, k=2).take_all()

    n_docs = len(texts)
    df: dict[str, int] = {}
    for t in texts.values():
        for tok in set(t.split(" ")):
            df[tok] = df.get(tok, 0) + 1
    want = {}
    for i, t in texts.items():
        tf: dict[str, int] = {}
        for tok in t.split(" "):
            tf[tok] = tf.get(tok, 0) + 1
        scored = sorted(
            (
                (
                    round(
                        c * (math.log((1 + n_docs) / (1 + df[tok])) + 1.0),
                        6,
                    ),
                    tok,
                    c,
                )
                for tok, c in tf.items()
            ),
            key=lambda x: (-x[0], x[1]),
        )[:2]
        want[i] = {(tok, c, s) for s, tok, c in scored}
    got_sets: dict[int, set] = {}
    for r in got:
        got_sets.setdefault(r["doc_id"], set()).add(
            (r["tok"], r["tf"], r["score"])
        )
    assert got_sets == want


def test_dsir_logratio_matches_naive(ray_session, fixed_partitions):
    import math

    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        dsir_logratio,
    )

    texts = {
        1: ("the quick brown fox", True),
        2: ("the lazy dog", True),
        3: ("buy cheap pills now", False),
        4: ("the dog sat", False),
        5: ("quick quick fox", False),
    }
    ds = ray.data.from_items(
        [{"doc_id": i, "text": t, "is_target": f}
         for i, (t, f) in texts.items()]
    )
    for parts in (1, 4):
        fixed_partitions(parts)
        out = {
            r["doc_id"]: r
            for r in dsir_logratio(ds).take_all()
        }

        ct: dict[str, int] = {}
        cr: dict[str, int] = {}
        for t, flag in texts.values():
            for tok in t.split(" "):
                d = ct if flag else cr
                d[tok] = d.get(tok, 0) + 1
        vocab = len(set(ct) | set(cr))
        nt, nr = sum(ct.values()), sum(cr.values())
        for i, (t, _) in texts.items():
            toks = t.split(" ")
            want = sum(
                math.log((ct.get(x, 0) + 1) / (nt + vocab))
                - math.log((cr.get(x, 0) + 1) / (nr + vocab))
                for x in toks
            ) / len(toks)
            assert out[i]["n_tokens"] == len(toks)
            assert abs(out[i]["dsir_llr"] - round(want, 6)) < 1e-9, (
                parts, i)
        # target docs should score above the spammy raw doc
        assert out[1]["dsir_llr"] > out[3]["dsir_llr"]
        assert out[2]["dsir_llr"] > out[3]["dsir_llr"]


def test_stop_tokens_matches_naive(ray_session, fixed_partitions):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        stop_tokens,
    )

    texts = {
        1: "the cat sat",
        2: "the the dog",     # repeated token counts once for df
        3: "the bird flew up",
        4: "cat and dog",
        5: "nothing here",
    }
    ds = ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in texts.items()]
    )
    for parts in (1, 4):
        fixed_partitions(parts)
        out = {
            r["tok"]: r
            for r in stop_tokens(
                ds.repartition(parts), min_df_frac=0.3).take_all()
        }
        # df: the=3, cat=2, dog=2 — all > 0.3*5=1.5; everything else df=1
        assert set(out) == {"the", "cat", "dog"}, parts
        assert out["the"]["df"] == 3 and out["the"]["df_frac"] == 0.6
        assert out["cat"]["df"] == 2 and out["cat"]["df_frac"] == 0.4
        assert out["dog"]["df"] == 2
