"""Edit-distance-1 fuzzy self-join: the vectorized edit1_mask kernel vs
a reference DP, and the SymSpell-blocked pipeline vs a brute-force
quadratic join."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.dedup import edit1_mask
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.dedup import (
    edit1_fuzzy_pairs,
)


def levenshtein_ref(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[len(b)]


CASES = [
    ("abc", "abc", True),      # equal
    ("abc", "abd", True),      # substitution
    ("abc", "abcd", True),     # insertion at end
    ("abc", "xabc", True),     # insertion at front
    ("abc", "bc", True),       # deletion at front
    ("abc", "ac", True),       # deletion in middle
    ("abc", "axbyc", False),   # two insertions
    ("abc", "xyz", False),     # three substitutions
    ("ab", "ba", False),       # transposition = distance 2 (plain Lev.)
    ("", "", True),
    ("", "x", True),
    ("", "xy", False),
    ("aaaa", "aaa", True),     # repeated chars
    ("héllo", "hèllo", True),  # non-ASCII substitution
]


def test_edit1_mask_golden():
    a = [c[0] for c in CASES]
    b = [c[1] for c in CASES]
    want = np.array([c[2] for c in CASES])
    got = edit1_mask(a, b)
    assert (got == want).all()
    # symmetric
    assert (edit1_mask(b, a) == want).all()


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="abc", max_size=6), st.text(alphabet="abc", max_size=6))
def test_edit1_mask_matches_dp(a, b):
    assert edit1_mask([a], [b])[0] == (levenshtein_ref(a, b) <= 1)


@pytest.fixture(scope="module")
def name_pool():
    # numbered names (dense distance-1 neighborhoods), plus word-like
    # strings with insert/delete/substitute variants and some unrelated
    base = [f"user#{i:04d}" for i in range(40)]
    words = ["alpha", "alphaa", "alpa", "alpha", "beta", "betta", "bets",
             "gamma", "gamm", "gamma1", "delta", "completely-different"]
    return base + words


def test_edit1_fuzzy_pairs_matches_bruteforce(ray_session, name_pool):
    ds = ray.data.from_arrow(pa.table({"name": name_pool}))
    got = (
        edit1_fuzzy_pairs(ds, "name")
        .to_pandas()
        .sort_values(["name_a", "name_b"])
        .reset_index(drop=True)
    )
    distinct = sorted(set(name_pool))
    want_rows = [
        (a, b)
        for i, a in enumerate(distinct)
        for b in distinct[i + 1:]
        if levenshtein_ref(a, b) <= 1
    ]
    want = pd.DataFrame(want_rows, columns=["name_a", "name_b"])
    pd.testing.assert_frame_equal(got, want)


def test_edit1_fuzzy_pairs_empty(ray_session):
    ds = ray.data.from_arrow(pa.table({"name": pa.array([], pa.string())}))
    assert edit1_fuzzy_pairs(ds, "name").count() == 0
