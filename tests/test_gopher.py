"""Gopher doc-level quality rules (pipelines/clean.gopher_quality,
Rae et al. 2021 Appendix A1.1): each rule fires independently, the
signals match a plain-python reimplementation, and results are
partition-independent."""

import re

import pyarrow as pa
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
    _GOPHER_STOPWORDS,
    gopher_quality,
)

LINE = ("the quick brown fox jumps over a lazy dog and then that dog "
        "will have a quiet rest with friends today")

VARIANTS = {
    0: ("Just a few words here.", "n_words"),
    1: ("\n".join([LINE, LINE, ("12345 " * 21).strip()]), "alpha_frac"),
    2: ("\n".join([LINE, LINE, LINE, ("# " * 8).strip()]),
        "symbol_ratio"),
    3: ("\n".join(["- " + LINE] * 3), "bullet_frac"),
    4: ("\n".join([LINE + "...", LINE + "...", LINE]), "ellipsis_frac"),
    5: (("the and that have with of to be "
         + "pneumonoultramicroscopic " * 52).strip(), "mean_word_len"),
    6: (("zebra mango guitar piano velvet copper meadow lantern "
         * 8).strip(), "n_stopwords"),
    7: ("\n".join([LINE, LINE, LINE]), None),  # passes all rules
}


def py_signals(text: str) -> dict:
    """Independent plain-python reimplementation of the A1.1 signals."""
    words = [w for w in re.split(r"\s+", text) if w]
    lines = text.split("\n")
    n = len(words)
    d = max(n, 1)
    sym = (text.count("#")
           + len(re.findall(r"\.\.\.", text))
           + text.count("…"))
    return {
        "n_words": n,
        "mean_word_len": round(sum(len(w) for w in words) / d, 6),
        "symbol_ratio": round(sym / d, 6),
        "bullet_frac": round(
            sum(bool(re.match(r"^(• |- |\* )", ln)) for ln in lines)
            / max(len(lines), 1), 6),
        "ellipsis_frac": round(
            sum(bool(re.search(r"(\.\.\.|…)$", ln)) for ln in lines)
            / max(len(lines), 1), 6),
        "alpha_frac": round(
            sum(bool(re.search("[A-Za-z]", w)) for w in words) / d, 6),
        "n_stopwords": len(
            {w.lower() for w in words
             if w.lower() in _GOPHER_STOPWORDS}),
    }


def run(ray_session, rows, **kw):
    ds = ray_session.data.from_arrow(pa.table({
        "doc_id": pa.array(list(range(len(rows))), pa.int64()),
        "text": pa.array(rows, pa.large_string()),
    }))
    out = gopher_quality(ds, **kw).sort("doc_id").take_all()
    return out


class TestRules:
    def test_each_variant_fails_exactly_its_rule(self, ray_session):
        texts = [VARIANTS[v][0] for v in sorted(VARIANTS)]
        out = run(ray_session, texts)
        for v in sorted(VARIANTS):
            _, failing = VARIANTS[v]
            row = out[v]
            assert row["keep"] == (1 if failing is None else 0), (v, row)
            # the named signal is the one outside its threshold
            if failing == "n_words":
                assert row["n_words"] < 50
            elif failing == "alpha_frac":
                assert row["alpha_frac"] < 0.8
            elif failing == "symbol_ratio":
                assert row["symbol_ratio"] > 0.1
            elif failing == "bullet_frac":
                assert row["bullet_frac"] >= 0.9
            elif failing == "ellipsis_frac":
                assert row["ellipsis_frac"] >= 0.3
            elif failing == "mean_word_len":
                assert row["mean_word_len"] > 10.0
            elif failing == "n_stopwords":
                assert row["n_stopwords"] < 2

    def test_signals_match_python_reimplementation(self, ray_session):
        texts = [VARIANTS[v][0] for v in sorted(VARIANTS)] + [
            "",  # empty doc: zero words, keep=0, no div-by-zero
            "• first\n• second\nplain tail line here now",
            "ends with unicode ellipsis…\nanother … line",
            "Tabs\tand  runs   of spaces collapse to words.",
        ]
        out = run(ray_session, texts)
        for row, text in zip(out, texts):
            want = py_signals(text)
            got = {k: row[k] for k in want}
            assert got == pytest.approx(want), text[:40]

    def test_max_words_and_bounds_are_parameters(self, ray_session):
        good = VARIANTS[7][0]  # 63 words
        strict = run(ray_session, [good], max_words=50)
        assert strict[0]["keep"] == 0
        loose = run(ray_session, [VARIANTS[0][0]], min_words=3,
                    min_stopwords=0)
        assert loose[0]["keep"] == 1

    def test_empty_doc_fails_without_error(self, ray_session):
        out = run(ray_session, ["", "   "])
        for row in out:
            assert row["n_words"] == 0
            assert row["keep"] == 0
            assert row["mean_word_len"] == 0.0

    def test_partition_independent(self, ray_session):
        texts = [VARIANTS[i % 8][0] for i in range(40)]
        ds = ray_session.data.from_arrow(pa.table({
            "doc_id": pa.array(list(range(40)), pa.int64()),
            "text": pa.array(texts, pa.large_string()),
        }))
        one = gopher_quality(ds).sort("doc_id").take_all()
        many = gopher_quality(
            ds.repartition(7)).sort("doc_id").take_all()
        assert one == many


class TestScriptFractions:
    def test_scripts_and_dominant(self, ray_session):
        import pyarrow as pa

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
            script_fractions,
        )

        docs = {
            0: "hello world",
            1: "привет мир",
            2: "你好",
            3: "مرحبا",
            4: "1234 !!",          # digits only -> none dominant
            5: "ab приветик",      # cyrillic outnumbers latin
            6: "",                 # empty: all 0, none
        }
        tbl = pa.table({
            "doc_id": pa.array(list(docs), pa.int64()),
            "text": pa.array(list(docs.values()), pa.large_string()),
        })
        out = {r["doc_id"]: r for r in script_fractions(
            ray_session.data.from_arrow(tbl)).take_all()}
        assert out[0]["dominant_script"] == "latin"
        assert out[1]["dominant_script"] == "cyrillic"
        assert out[2]["dominant_script"] == "han"
        assert out[3]["dominant_script"] == "arabic"
        assert out[4]["dominant_script"] == "none"
        assert out[4]["digit_frac"] == round(4 / 7, 6)
        assert out[5]["dominant_script"] == "cyrillic"
        assert out[6]["n_chars"] == 0
        assert out[6]["latin_frac"] == 0.0
        assert out[0]["latin_frac"] == round(10 / 11, 6)

    def test_tie_prefers_latin(self, ray_session):
        import pyarrow as pa

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
            script_fractions,
        )

        tbl = pa.table({"doc_id": pa.array([0], pa.int64()),
                        "text": pa.array(["abпр"], pa.large_string())})
        out = script_fractions(
            ray_session.data.from_arrow(tbl)).take_all()[0]
        assert out["dominant_script"] == "latin"


class TestFlaggedWordRatio:
    def test_hand_case(self, ray_session):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
            flagged_word_ratio,
        )

        rows = [
            {"doc_id": 0, "text": "Buy SPAM now spam  forever"},
            {"doc_id": 1, "text": "clean prose only"},
            {"doc_id": 2, "text": ""},
        ]
        out = {r["doc_id"]: r for r in flagged_word_ratio(
            ray.data.from_items(rows, override_num_blocks=2),
            ["spam", "buy"]).take_all()}
        # double space yields an empty token that must not count
        assert out[0]["n_tokens"] == 5
        assert out[0]["n_flagged"] == 3   # Buy, SPAM, spam (case-folded)
        assert out[0]["flagged_ratio"] == 0.6
        assert out[1] == {"doc_id": 1, "n_tokens": 3, "n_flagged": 0,
                          "flagged_ratio": 0.0}
        assert out[2]["n_tokens"] == 0 and out[2]["flagged_ratio"] == 0.0


class TestCompressionRatio:
    def test_matches_stdlib_and_orders_by_redundancy(self, ray_session):
        import zlib

        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
            compression_ratio,
        )

        prose = ("the quick brown fox jumps over the lazy dog while "
                 "seventeen violinists argue about breakfast") * 3
        repetitive = "spam " * 60
        rows = [{"doc_id": 0, "text": prose},
                {"doc_id": 1, "text": repetitive},
                {"doc_id": 2, "text": ""}]
        out = {r["doc_id"]: r for r in compression_ratio(
            ray.data.from_items(rows)).take_all()}
        for i, t in ((0, prose), (1, repetitive)):
            b = t.encode("utf-8")
            assert out[i]["n_bytes"] == len(b)
            assert out[i]["n_compressed"] == len(zlib.compress(b, 6))
        assert out[1]["compression_ratio"] < out[0]["compression_ratio"]
        assert out[2] == {"doc_id": 2, "n_bytes": 0, "n_compressed": 0,
                          "compression_ratio": 0.0}


class TestCorpusProfile:
    ROWS = [
        {"doc_id": 0, "text": "alpha beta gamma", "lang": "en"},
        {"doc_id": 1, "text": "alpha beta gamma", "lang": "en"},
        {"doc_id": 2, "text": "   ", "lang": "de"},
        {"doc_id": 3, "text": "une seule ligne ici", "lang": "fr"},
        {"doc_id": 4, "text": "kurz", "lang": "de"},
        {"doc_id": 5, "text": "noch ein deutscher text", "lang": "de"},
    ]

    def _profile(self, blocks):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
            corpus_profile,
        )

        return corpus_profile(
            ray.data.from_items(self.ROWS, override_num_blocks=blocks),
        ).take_all()[0]

    def test_card_values(self, ray_session):
        card = self._profile(3)
        assert card["n_docs"] == 6
        assert card["n_empty"] == 1
        assert card["total_chars"] == sum(len(r["text"]) for r in self.ROWS)
        assert card["total_ws_tokens"] == 3 + 3 + 0 + 4 + 1 + 4
        assert card["max_chars"] == len("noch ein deutscher text")
        assert card["n_distinct_texts"] == 5   # doc 0 == doc 1
        assert card["n_langs"] == 3
        assert card["top_lang"] == "de"        # 3 de vs 2 en, ties none
        assert card["top_lang_n"] == 3

    def test_partition_independence(self, ray_session):
        assert self._profile(1) == self._profile(4)
