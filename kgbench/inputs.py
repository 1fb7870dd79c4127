"""Seeded inputs: Common-Crawl-style pages and the serving query pool.

Pages follow the north-star ``pages`` schema (url, warc_ts, html, text,
lang). Sentences reuse the fixture vocabulary of ``sources/pages.py`` so the
grammar triple extractor finds facts; entities are drawn Zipf-weighted, so
the first organisation and the head place form a hot key in the entity and
edge exchanges. Everything is a pure function of (seed, corpus, index).
"""

from __future__ import annotations

import datetime
import hashlib
import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import render_html
from nlp_graphrag_with_qdrant_and_neo4j_ray.schemas import PAGES
from nlp_graphrag_with_qdrant_and_neo4j_ray.sources import pages as fixture

EPOCH = datetime.datetime(2025, 3, 28)
OTHER_LANGS = ("de", "fr", "und")


def rng_for(seed: int, *parts) -> random.Random:
    key = ":".join(str(p) for p in (seed,) + parts).encode()
    return random.Random(int.from_bytes(
        hashlib.blake2b(key, digest_size=8).digest(), "big"))


def zipf_weights(n: int, s: float = 1.1) -> list[float]:
    return [1.0 / (r ** s) for r in range(1, n + 1)]


def _pick(rng: random.Random, items: list[str]) -> str:
    return rng.choices(items, weights=zipf_weights(len(items)))[0]


def fact(rng: random.Random) -> str:
    org = _pick(rng, fixture.ORGS)
    return rng.choice(fixture.TEMPLATES).format(
        org=org,
        org2=_pick(rng, [o for o in fixture.ORGS if o != org]),
        person=_pick(rng, fixture.PEOPLE),
        place=_pick(rng, fixture.PLACES),
        show=_pick(rng, fixture.SHOWS),
        machine=_pick(rng, fixture.MACHINES),
        year=rng.choice(fixture.YEARS),
    )


def page_text(rng: random.Random, n_sents: int) -> str:
    """``n_sents`` sentences, ~70% extractable facts, in paragraphs of
    3-6 sentences."""
    sents = [fact(rng) if rng.random() < 0.7 else rng.choice(fixture.FILLER)
             for _ in range(n_sents)]
    paras, i = [], 0
    while i < len(sents):
        step = rng.randint(3, 6)
        paras.append(" ".join(sents[i:i + step]))
        i += step
    return "\n\n".join(paras)


def pages(seed: int, corpus: str, n: int, en_share: float,
          min_sents: int = 10, max_sents: int = 40) -> pa.Table:
    """``n`` pages. Exactly ``round(n * en_share)`` are ``en``; the rest
    are ``de``/``fr``/``und`` and dropped by the language filter. Page
    lengths spread evenly over ``min_sents``..``max_sents`` sentences.
    The seed decides which page gets which language and length and all
    the words, so every seed has the same input shape. ``html`` is the
    rendered page, so extract recovers ``text`` byte for byte."""
    shape = rng_for(seed, corpus, "shape")
    n_en = round(n * en_share)
    langs = ["en"] * n_en + [shape.choice(OTHER_LANGS) for _ in range(n - n_en)]
    shape.shuffle(langs)
    span = max_sents - min_sents + 1
    lengths = [min_sents + (i * span) // n for i in range(n)]
    shape.shuffle(lengths)
    rows = []
    for i in range(n):
        text = page_text(rng_for(seed, corpus, i), lengths[i])
        doc = f"{corpus}-s{seed}-{i:06d}"
        rows.append({
            "url": f"https://crawl.example/{corpus}/{doc}",
            "warc_ts": EPOCH + datetime.timedelta(seconds=i),
            "html": render_html(doc, text),
            "text": text,
            "lang": langs[i],
        })
    return pa.Table.from_pylist(rows, schema=PAGES)


def write_pages(tbl: pa.Table, path: str, files: int) -> int:
    """Write ``tbl`` as ``files`` Parquet files under ``path``; returns
    the bytes written."""
    os.makedirs(path, exist_ok=True)
    step = -(-tbl.num_rows // files)
    for f in range(files):
        pq.write_table(tbl.slice(f * step, step),
                       os.path.join(path, f"part-{f:03d}.parquet"))
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


TOPICS = ["company", "founded", "directed by", "released", "piloted by",
          "headquartered", "research division", "mecha designs",
          "animation score", "secret", "acquired", "member"]


def text_queries(seed: int, n: int) -> list[str]:
    """Query strings mixing entity names and topic words."""
    rng = rng_for(seed, "queries")
    vocab = fixture.ORGS + fixture.PEOPLE + fixture.SHOWS + fixture.PLACES
    out: list[str] = []
    while len(out) < n:
        q = f"{rng.choice(vocab)} {rng.choice(TOPICS)}"
        if rng.random() < 0.4:
            q = f"{q} {rng.choice(fixture.PEOPLE)}"
        if q not in out:
            out.append(q)
    return out


def entity_queries(seed: int, n: int) -> list[tuple[str, str | None]]:
    """(subject entity, optional predicate keyword) pairs for
    ``relationship_search``."""
    rng = rng_for(seed, "entities")
    names = fixture.ORGS + fixture.PEOPLE + fixture.SHOWS
    out: list[tuple[str, str | None]] = []
    while len(out) < n:
        pair = (rng.choice(names), rng.choice([None, "in", "by", "is"]))
        if pair not in out:
            out.append(pair)
    return out
