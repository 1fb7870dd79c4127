"""Distributed multinomial Naive Bayes
(pipelines/textstats.nb_train_predict): predictions match a direct
python reimplementation (priors, Laplace smoothing, OOV drop, argmax
tie-break), all-OOV test documents drop, separable vocabularies
classify perfectly, and results are partition-independent."""

import math
from collections import Counter, defaultdict

import pyarrow as pa
import ray.data as rd

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
    nb_train_predict,
)


def py_nb(docs: dict[int, tuple[str, str]]) -> dict[int, tuple[str, str, int]]:
    train = {i: d for i, d in docs.items() if i % 2 == 0}
    test = {i: d for i, d in docs.items() if i % 2 == 1}
    c: dict[str, Counter] = defaultdict(Counter)
    nl: Counter = Counter()
    dc: Counter = Counter()
    for _, (t, lab) in train.items():
        toks = [x for x in t.split(" ") if x]
        c[lab].update(toks)
        nl[lab] += len(toks)
        dc[lab] += 1
    vocab = {tok for lab in c for tok in c[lab]}
    v = len(vocab)
    nd = sum(dc.values())
    labels = sorted(nl)
    out = {}
    for i, (t, true) in test.items():
        toks = [x for x in t.split(" ") if x and x in vocab]
        if not toks:
            continue
        scores = {
            lab: math.log(dc[lab] / nd)
            + sum(math.log(c[lab][tok] + 1) for tok in toks)
            - len(toks) * math.log(nl[lab] + v)
            for lab in labels
        }
        best = min(labels, key=lambda lab: (-scores[lab], lab))
        out[i] = (true, best, len(toks))
    return out


DOCS = {
    0: ("cat dog cat purr", "en"),
    2: ("chat chien chat miaou", "fr"),
    4: ("dog dog bark cat", "en"),
    6: ("chien chien aboie chat", "fr"),
    8: ("cat bark", "en"),
    10: ("hund hund bellt", "de"),
    1: ("cat dog purr purr", "en"),
    3: ("chat chien miaou", "fr"),
    5: ("bark dog", "en"),
    7: ("aboie chat chien zzz", "fr"),  # zzz is OOV, rest known
    9: ("qqq www", "en"),               # all OOV: dropped from output
    11: ("hund bellt", "de"),
}


def _ds(docs):
    return rd.from_arrow(pa.table({
        "doc_id": list(docs),
        "text": [d[0] for d in docs.values()],
        "lang": [d[1] for d in docs.values()],
    }))


def test_matches_python_reimplementation(ray_session):
    got = nb_train_predict(_ds(DOCS)).to_pandas()
    want = py_nb(DOCS)
    assert len(got) == len(want)
    for _, row in got.iterrows():
        true, pred, nk = want[row["doc_id"]]
        assert (row["true_lang"], row["pred_lang"], row["n_known"]) == \
            (true, pred, nk)


def test_separable_vocab_classifies_perfectly(ray_session):
    got = nb_train_predict(_ds(DOCS)).to_pandas()
    assert (got["pred_lang"] == got["true_lang"]).all()
    assert 9 not in set(got["doc_id"])  # all-OOV doc dropped


def test_partition_independent(ray_session, fixed_partitions):
    fixed_partitions(1)
    a = (nb_train_predict(_ds(DOCS).repartition(1))
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    fixed_partitions(9)
    b = (nb_train_predict(_ds(DOCS).repartition(7))
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert a.equals(b)


def test_prior_breaks_empty_evidence_ties(ray_session):
    # 'x' appears once in every language: token evidence ties, the
    # majority-class prior must decide.
    docs = {
        0: ("x", "en"), 2: ("x", "en"), 4: ("x", "fr"),
        1: ("x", "en"),
    }
    got = nb_train_predict(_ds(docs)).to_pandas()
    assert list(got["pred_lang"]) == ["en"]
