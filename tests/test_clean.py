"""Cleaning operators: PII redaction, repetition scores, sequence
packing — driver-side references on small synthetic corpora."""

import numpy as np
import pandas as pd
import pyarrow as pa

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
    pack_sequences,
    pii_redact,
    redact_pii_array,
    repetition_scores,
)


def test_redact_pii_array_cases():
    cases = {
        "mail bob.smith+x@sub.example.co.uk now": "mail <EMAIL> now",
        "ip 10.0.3.1 and 255.255.255.0 end": "ip <IP> and <IP> end",
        "call 415-555-1234 or +1 (650) 555 9999": "call <PHONE> or <PHONE>",
        "dotted 1.2.3.4 then a@b.io then 555.123.4567":
            "dotted <IP> then <EMAIL> then <PHONE>",
        "no pii here at all": "no pii here at all",
    }
    got = redact_pii_array(pa.array(list(cases))).to_pylist()
    assert got == list(cases.values())


def test_pii_redact_dataset_roundtrip(ray_session):
    import ray.data

    df = pd.DataFrame({
        "doc_id": np.int64([0, 1]),
        "text": ["write a@b.com", "clean"],
    })
    out = pii_redact(ray.data.from_pandas(df)).to_pandas()
    assert sorted(out["text"]) == ["clean", "write <EMAIL>"]
    # out-of-place column
    out2 = pii_redact(ray.data.from_pandas(df), out_col="clean_text") \
        .to_pandas().sort_values("doc_id")
    assert out2["text"].tolist() == df["text"].tolist()
    assert out2["clean_text"].tolist() == ["write <EMAIL>", "clean"]


def _ref_scores(texts):
    rows = []
    for i, t in enumerate(texts):
        toks = [x for x in t.split(" ") if x]
        if not toks:
            continue
        n = len(toks)
        bigs = [f"{a} {b}" for a, b in zip(toks, toks[1:])]
        top_bg = max((bigs.count(b) for b in set(bigs)), default=0)
        rows.append({
            "doc_id": i,
            "n_tokens": n,
            "distinct_frac": round(len(set(toks)) / n, 6),
            "top_token_frac": round(
                max(toks.count(x) for x in set(toks)) / n, 6
            ),
            "top_bigram_frac": round(top_bg / max(n - 1, 1), 6),
        })
    return pd.DataFrame(rows)


def test_repetition_scores_matches_reference(ray_session):
    import ray.data

    texts = [
        "a b c d e",
        "a a a a",
        "x y x y x y",
        "solo",
        "",
        "p q  r",          # double space → empty token filtered
    ]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    out = repetition_scores(ray.data.from_pandas(df).repartition(3)) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    ref = _ref_scores(texts).astype({"doc_id": "int64"})
    pd.testing.assert_frame_equal(out, ref, check_dtype=False)
    # spot values
    r = out.set_index("doc_id")
    assert r.loc[1, "top_token_frac"] == 1.0
    assert r.loc[2, "top_bigram_frac"] == round(3 / 5, 6)
    assert 4 not in r.index          # empty doc dropped
    assert r.loc[5, "n_tokens"] == 3


def test_pack_sequences_layout(ray_session):
    import ray.data

    # one shard: docs 0..4 with counts 100, 300, 50, 256, 6
    df = pd.DataFrame({
        "shard": np.int64([0] * 5),
        "doc_id": np.arange(5, dtype=np.int64),
        "n_tok": np.int64([100, 300, 50, 256, 6]),
    })
    out = pack_sequences(ray.data.from_pandas(df).repartition(3),
                         "shard", "n_tok", max_len=256).to_pandas()
    out = out.sort_values(["doc_id", "pack_id"]).reset_index(drop=True)
    # token conservation per doc
    per_doc = out.groupby("doc_id")["seg_len"].sum()
    assert per_doc.tolist() == [100, 300, 50, 256, 6]
    # doc 1 spans packs 0 and 1: 156 then 144
    d1 = out[out["doc_id"] == 1]
    assert d1[["pack_id", "seg_start", "seg_len", "pack_offset"]] \
        .values.tolist() == [[0, 0, 156, 100], [1, 156, 144, 0]]
    # every pack except the last is exactly full
    packs = out.groupby("pack_id")["seg_len"].sum()
    assert packs.iloc[:-1].eq(256).all() and packs.iloc[-1] <= 256
    # offsets tile each pack without gaps
    for _, p in out.sort_values(["pack_id", "pack_offset"]) \
                   .groupby("pack_id"):
        ends = (p["pack_offset"] + p["seg_len"]).tolist()
        assert p["pack_offset"].tolist() == [0] + ends[:-1]


def test_pack_sequences_partitioning_independent(ray_session,
                                                 fixed_partitions):
    import ray.data

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "shard": rng.integers(0, 5, 200).astype(np.int64),
        "doc_id": np.arange(200, dtype=np.int64),
        "n_tok": rng.integers(0, 400, 200).astype(np.int64),
    })
    outs = []
    for parts in (1, 7):
        fixed_partitions(parts)
        out = pack_sequences(ray.data.from_pandas(df).repartition(parts),
                             "shard", "n_tok", max_len=128).to_pandas()
        outs.append(out.sort_values(["shard", "pack_id", "doc_id",
                                     "seg_start"])
                    .reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    # zero-count docs contribute nothing; all others conserved
    kept = df[df["n_tok"] > 0]
    assert outs[0].groupby("doc_id")["seg_len"].sum().sum() \
        == kept["n_tok"].sum()
    assert set(outs[0]["doc_id"]) == set(kept["doc_id"])
    assert (outs[0]["seg_len"] > 0).all()
    assert (outs[0]["pack_offset"] + outs[0]["seg_len"] <= 128).all()


def test_repetition_scores_append_mode(ray_session):
    import ray.data

    df = pd.DataFrame({
        "doc_id": np.int64([0, 1, 2]),
        "text": ["a b c", "", "x x"],
        "extra": ["p", "q", "r"],
    })
    out = repetition_scores(ray.data.from_pandas(df).repartition(2),
                            append=True).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # original columns kept, zero-token doc dropped
    assert list(out.columns) == ["doc_id", "text", "extra", "n_tokens",
                                 "distinct_frac", "top_token_frac",
                                 "top_bigram_frac"]
    assert out["doc_id"].tolist() == [0, 2]
    assert out["extra"].tolist() == ["p", "r"]
    assert out["n_tokens"].tolist() == [3, 2]
    assert out.loc[1, "top_token_frac"] == 1.0


class TestC4LineFilter:
    def test_rules(self, ray_session):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
            c4_line_filter,
        )

        good = "This sentence has exactly six words total."
        docs = [
            # every line rule: no-punct, short, javascript, then 3 good
            {"doc_id": 1, "text": "\n".join([
                "no terminal punctuation here at all",
                "Too short.",
                "Please enable JavaScript to continue reading this page.",
                good, good, good])},
            # page kills: lorem ipsum / brace / too few surviving lines
            {"doc_id": 2, "text": "\n".join([good, good, good,
                                             "lorem ipsum dolor."])},
            {"doc_id": 3, "text": "\n".join([good, good, good,
                                             "if (x) { y(); }"])},
            {"doc_id": 4, "text": "\n".join([good, good])},
            # quote-terminated lines count as terminal punctuation
            {"doc_id": 5, "text": "\n".join(
                ['He said "this is a full quote."'] + [good, good])},
        ]
        out = {r["doc_id"]: r
               for r in c4_line_filter(
                   ray.data.from_items(docs)).take_all()}
        assert set(out) == {1, 5}
        assert out[1]["text"] == "\n".join([good, good, good])
        assert out[1]["n_lines"] == 3
        assert out[5]["n_lines"] == 3


class TestRebalanceToTarget:
    def test_binding_group_kept_whole_and_mix_hits_target(self, ray_session,
                                                          fixed_partitions):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
            rebalance_to_target,
        )

        rows = ([{"doc_id": i, "lang": "en"} for i in range(100)]
                + [{"doc_id": 1000 + i, "lang": "de"} for i in range(900)]
                + [{"doc_id": 5000 + i, "lang": "xx"} for i in range(50)])
        targets = {"en": 0.5, "de": 0.5}
        for parts in (1, 6):
            fixed_partitions(parts)
            ds = ray.data.from_items(rows).repartition(parts)
            out = rebalance_to_target(ds, "lang", targets).take_all()
            by_lang = {}
            for r in out:
                by_lang.setdefault(r["lang"], set()).add(r["doc_id"])
            # en binds (100/0.5 = 200 < 900/0.5): kept whole
            assert len(by_lang["en"]) == 100
            # de downsamples toward 100 (hash thresholding: expected
            # value 100, binomial spread)
            assert 70 <= len(by_lang["de"]) <= 130
            # untargeted groups drop entirely
            assert "xx" not in by_lang
        # deterministic: same survivors on a rerun
        again = rebalance_to_target(
            ray.data.from_items(rows), "lang", targets).take_all()
        assert {r["doc_id"] for r in again} == {
            i for s in by_lang.values() for i in s}


def test_domain_quality_filter_drops_spam_domains(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
        domain_quality_filter,
    )

    prose = "the quick brown fox jumps over the lazy dog again and again"
    spam = "$$$ !!! 77777 @@@ ### 999 $$$ !!! buy 77777 @@@ ### 999 now"
    rows = []
    for d in range(4):
        dom, text = f"site{d}", (spam if d == 0 else prose)
        for i in range(5):
            rows.append({"doc_id": d * 10 + i, "source": dom, "text": text})
    ds = ray.data.from_items(rows, override_num_blocks=3)
    # quantile_disc(0.5) of 4 domain means = the 2nd smallest (the
    # lowest prose mean), so the spam domain falls below it and the
    # three prose domains tie at-or-above it.
    out = domain_quality_filter(ds, drop_quantile=0.5).take_all()
    kept_domains = {r["source"] for r in out}
    assert kept_domains == {"site1", "site2", "site3"}
    assert len(out) == 15
    for r in out:
        assert 0.0 <= r["domain_quality"] <= 1.0


class TestFixMojibake:
    def _run(self, rows):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
            fix_mojibake,
        )

        ds = ray.data.from_items(rows, override_num_blocks=2)
        return {r["doc_id"]: r for r in fix_mojibake(ds).take_all()}

    def test_single_layer_repair(self, ray_session):
        good = "café naïve — déjà vu"
        bad = good.encode("utf-8").decode("latin-1")
        out = self._run([
            {"doc_id": 0, "text": bad},
            {"doc_id": 1, "text": "plain ascii stays untouched"},
        ])
        assert out[0]["text"] == good
        assert out[0]["fixed"] is True
        assert out[0]["n_mojibake"] >= 4
        assert out[1]["text"] == "plain ascii stays untouched"
        assert out[1]["fixed"] is False
        assert out[1]["n_mojibake"] == 0

    def test_double_encoded_repair(self, ray_session):
        good = "smörgåsbord"
        bad2 = (good.encode("utf-8").decode("latin-1")
                .encode("utf-8").decode("latin-1"))
        out = self._run([{"doc_id": 0, "text": bad2}])
        assert out[0]["text"] == good
        assert out[0]["fixed"] is True

    def test_unrepairable_text_untouched(self, ray_session):
        # contains a char outside latin-1 AND cp1252 (U+0394) alongside
        # a mojibake-looking pair — the conservative whole-string rule
        # must leave it alone rather than corrupt it.
        s = "Δ genuine greek with stray Ã© pair"
        out = self._run([{"doc_id": 0, "text": s}])
        assert out[0]["text"] == s
        assert out[0]["fixed"] is False
        assert out[0]["n_mojibake"] == 1

    def test_cp1252_curly_quote_repair(self, ray_session):
        good = "it’s here"           # curly apostrophe
        bad = good.encode("utf-8").decode("cp1252")  # "it’s here"
        out = self._run([{"doc_id": 0, "text": bad}])
        assert out[0]["text"] == good
        assert out[0]["fixed"] is True


class TestBudgetHead:
    def _run(self, rows, budget, blocks=3, **kw):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
            budget_head,
        )

        ds = ray.data.from_items(rows, override_num_blocks=blocks)
        return sorted(budget_head(ds, "score", "toks", budget, **kw)
                      .take_all(), key=lambda r: r["cum_tokens"])

    ROWS = [
        {"doc_id": 0, "score": 0.9, "toks": 100.0},
        {"doc_id": 1, "score": 0.8, "toks": 200.0},
        {"doc_id": 2, "score": 0.7, "toks": 300.0},
        {"doc_id": 3, "score": 0.6, "toks": 400.0},
        {"doc_id": 4, "score": 0.5, "toks": 500.0},
    ]

    def test_running_total_cutoff(self, ray_session):
        out = self._run(self.ROWS, 650.0, num_buckets=4)
        # order 0,1,2,... cum 100,300,600,1000 -> keep first three
        assert [r["doc_id"] for r in out] == [0, 1, 2]
        assert [r["cum_tokens"] for r in out] == [100.0, 300.0, 600.0]

    def test_boundary_row_exactly_at_budget_kept(self, ray_session):
        out = self._run(self.ROWS, 600.0)
        assert [r["doc_id"] for r in out] == [0, 1, 2]

    def test_ties_break_by_id_and_ascending_mode(self, ray_session):
        rows = [{"doc_id": i, "score": 1.0, "toks": 10.0}
                for i in range(6)]
        out = self._run(rows, 35.0, num_buckets=8)
        assert [r["doc_id"] for r in out] == [0, 1, 2]
        # ascending: smallest score first
        asc = self._run(self.ROWS, 950.0, descending=False)
        assert [r["doc_id"] for r in asc] == [4, 3]

    def test_partition_independence(self, ray_session):
        a = self._run(self.ROWS, 700.0, blocks=1)
        b = self._run(self.ROWS, 700.0, blocks=5)
        assert a == b


def test_budget_head_per_group(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
        budget_head,
    )

    rows = []
    for i in range(6):
        rows.append({"doc_id": i, "g": "en",
                     "score": 1.0 - i * 0.1, "toks": 100.0})
    for i in range(6, 10):
        rows.append({"doc_id": i, "g": "de",
                     "score": 1.0 - (i - 6) * 0.1, "toks": 100.0})
    rows.append({"doc_id": 10, "g": "zz", "score": 0.99, "toks": 1.0})
    ds = ray.data.from_items(rows, override_num_blocks=3)
    out = budget_head(ds, "score", "toks",
                      budget={"en": 350.0, "de": 200.0},
                      group_col="g", num_buckets=4).take_all()
    by_g = {}
    for r in out:
        by_g.setdefault(r["g"], []).append(r["doc_id"])
    # en: 3 docs of 100 toks fit 350; de: 2 fit 200; zz: no budget
    assert sorted(by_g["en"]) == [0, 1, 2]
    assert sorted(by_g["de"]) == [6, 7]
    assert "zz" not in by_g


def test_budget_head_empty_corpus(ray_session):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
        budget_head,
    )

    ds = ray.data.from_items(
        [{"doc_id": 0, "score": 1.0, "toks": 1.0}]).filter(
        lambda r: False)
    out = budget_head(ds, "score", "toks", 100.0).take_all()
    assert out == []


# ---------------------------------------------------------------------------
# pseudonymize: keyed deterministic tokenization preserving joins
# ---------------------------------------------------------------------------

class TestPseudonymize:
    def _ds(self, ray_session, names, extra=None):
        import pyarrow as pa

        cols = {
            "id": pa.array(range(len(names)), pa.int64()),
            "name": pa.array(names, pa.string()),
        }
        if extra:
            cols["seg"] = pa.array(extra, pa.string())
        return ray_session.data.from_arrow(pa.table(cols))

    def test_same_value_same_token_and_salt_rotates(self, ray_session):
        import hashlib

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
            pseudonymize,
        )

        ds = self._ds(ray_session, ["alice", "bob", "alice"])
        a = pseudonymize(ds, ["name"], salt="s1").sort("id").take_all()
        b = pseudonymize(ds, ["name"], salt="s2").sort("id").take_all()
        assert a[0]["name"] == a[2]["name"] != a[1]["name"]
        assert a[0]["name"] != b[0]["name"]          # salt rotation
        assert a[0]["name"] == hashlib.md5(
            b"s1alice").hexdigest()[:16]              # pinned construction
        assert len(a[0]["name"]) == 16

    def test_untouched_columns_and_nulls_pass_through(self, ray_session):
        import pyarrow as pa

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
            pseudonymize,
        )

        ds = ray_session.data.from_arrow(pa.table({
            "id": pa.array([0, 1], pa.int64()),
            "name": pa.array(["x", None], pa.string()),
        }))
        out = pseudonymize(ds, ["name"]).sort("id").take_all()
        assert out[0]["id"] == 0 and out[1]["name"] is None


def test_fd_violations_detects_and_clears(ray_session, fixed_partitions):
    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        fd_violations,
    )

    tbl = pa.table({
        "k": pa.array([1, 1, 2, 3, 3, 3], pa.int64()),
        "v": pa.array(["a", "b", "c", "d", "d", "e"], pa.string()),
    })
    ds = ray_session.data.from_arrow(tbl)
    row = fd_violations(ds, "k", "v").take_all()[0]
    assert row["n_keys"] == 3
    assert row["n_violating"] == 2      # keys 1 (a,b) and 3 (d,e)
    assert row["max_rhs_per_key"] == 2
    assert row["fd_holds"] == 0

    clean = pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "v": pa.array(["a", "a", "b"], pa.string()),
    })
    row = fd_violations(
        ray_session.data.from_arrow(clean), "k", "v").take_all()[0]
    assert row["fd_holds"] == 1 and row["n_violating"] == 0

    # partition independence
    big = pa.table({
        "k": pa.array([i % 10 for i in range(200)], pa.int64()),
        "v": pa.array([str((i % 10) * (1 + i % 2)) for i in range(200)],
                      pa.string()),
    })
    ds = ray_session.data.from_arrow(big)
    fixed_partitions(1)
    one = fd_violations(ds, "k", "v").take_all()
    fixed_partitions(3)
    many = fd_violations(ds.repartition(7), "k", "v").take_all()
    assert one == many


# ---- token windows ----------------------------------------------------------

def test_token_windows_parity_and_edges(ray_session):
    import pandas as pd
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
        token_windows,
    )

    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [
            " ".join(f"t{i}" for i in range(10)),   # short: 1 window
            " ".join(f"t{i}" for i in range(5)),    # exactly W=5
            " ".join(f"t{i}" for i in range(12)),   # 12 toks, W5 S3
            "a  b",                                  # empty token kept
        ],
    })
    ds = ray.data.from_pandas(docs).repartition(3)
    out = token_windows(ds, window=5, stride=3).to_pandas().sort_values(
        ["doc_id", "window_idx"]).reset_index(drop=True)

    def ref(text, W=5, S=3):
        toks = text.split(" ")
        nw = max(len(toks) - W, 0) // S + 1
        return [(" ".join(toks[i * S:i * S + W]),
                 len(toks[i * S:i * S + W])) for i in range(nw)]

    for did, text in zip(docs["doc_id"], docs["text"]):
        rows = out[out["doc_id"] == did]
        exp = ref(text)
        assert len(rows) == len(exp)
        for (_, r), (wt, n) in zip(rows.iterrows(), exp):
            assert r["window_text"] == wt and r["n_tokens"] == n
    # doc 0: 10 tokens -> floor(5/3)+1 = 2 windows; doc 2: 12 -> 3
    assert out.groupby("doc_id").size().to_dict() == {0: 2, 1: 1,
                                                      2: 3, 3: 1}
    # stride coverage: window 1 of doc 2 starts at token 3
    assert out[(out.doc_id == 2) & (out.window_idx == 1)][
        "window_text"].iloc[0] == "t3 t4 t5 t6 t7"


def test_length_buckets(ray_session):
    import pandas as pd
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
        length_buckets,
    )

    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3, 4],
        "text": ["a", "a b", "a b c", "", "a  b c d e"],
    })
    # token counts: 1, 2, 3, 0, 5 -> buckets 1, 2, 4, 1, 8
    ds = ray.data.from_pandas(docs).repartition(3)
    out = length_buckets(ds).to_pandas()
    got = out.set_index("bucket").to_dict("index")
    assert got == {
        1: {"n_docs": 2, "total_tokens": 1, "padding_waste": 1},
        2: {"n_docs": 1, "total_tokens": 2, "padding_waste": 0},
        4: {"n_docs": 1, "total_tokens": 3, "padding_waste": 1},
        8: {"n_docs": 1, "total_tokens": 5, "padding_waste": 3},
    }
