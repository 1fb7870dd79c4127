"""Deterministic synthetic ``pages`` table (FIXTURES.md §1) + testdata adapter.

Everything is a pure function of (corpus, row_index) — no wall clock, no
global RNG state — so any scale can be generated distributed
(``ray.data.range(n).map_batches``) with bit-identical output at any
parallelism, and the driver can regenerate rows independently.

Content echoes the reference's de-facto fixtures (escaflowne.txt,
robotech.txt, lensman.txt and the Dockerfile's canonical Hugging Face demo
sentence, /root/reference/graphrag/core/ingest.py:287): multi-sentence
paragraphs with named entities and simple factual SVO statements so the
deterministic grammar extractor yields a non-trivial golden triple set.
"""

from __future__ import annotations

import datetime
import hashlib
import random

import pyarrow as pa

from ..functions.html import render_html
from ..schemas import PAGES

EPOCH = datetime.datetime(2025, 3, 28, 0, 0, 0)  # fixed base, no now()

SEED = 42

ORGS = [
    "Hugging Face",
    "Sunrise Studio",
    "Harmony Gold",
    "Galaxy Patrol",
    "Zaibach Empire",
    "Macross Consortium",
    "Arisia Labs",
    "Eriador Press",
    "Boskone Syndicate",
    "Fanelia Works",
]
PEOPLE = [
    "Hitomi Kanzaki",
    "Van Fanel",
    "Kimball Kinnison",
    "Rick Hunter",
    "Lisa Hayes",
    "Clair Savage",
    "Edward Smith",
    "Nora Winters",
    "Allen Schezar",
    "Roy Fokker",
]
PLACES = [
    "New York City",
    "Tokyo",
    "Paris",
    "Gaea",
    "Arisia",
    "Macross City",
    "Palas",
    "Boston",
]
SHOWS = [
    "The Vision of Escaflowne",
    "Robotech",
    "Galactic Patrol",
    "Macross Saga",
    "Lensman",
]
MACHINES = ["Escaflowne", "the SDF-1", "the Dilgear", "Veritech", "Scherzar"]
YEARS = ["1984", "1985", "1996", "2016", "2021", "2023"]

# the Zipf head entity — appears in a large fraction of documents to
# exercise salt-key skew splitting (FIXTURES.md §1, SURVEY.md §7.4)
HEAD_ENTITY = "the United States"

# Each template yields ≥1 deterministic grammar-extractable SVO fact.
TEMPLATES = [
    "{org} is an American company based in {place}.",
    "{org}, Inc. is a company that develops tools for building applications.",
    "{person} founded {org} in {year}.",
    "{show} was directed by {person}.",
    "{show} was released in {year}.",
    "{machine} is piloted by {person}.",
    "{person} joined {org} in {year}.",
    "{org} is headquartered in {place}.",
    "{person} is a member of the Galaxy Patrol.",
    "{show} is known for its detailed mecha designs.",
    "{org} operates in " + HEAD_ENTITY + ".",
    "{person} discovered the secret of {machine}.",
    "{org} acquired {org2} in {year}.",
    "{person} leads the research division of {org}.",
    "{show} was written by {person}.",
]

FILLER = [
    "The story follows a long conflict between rival factions.",
    "Critics praised the animation and the orchestral score.",
    "Fans continue to debate the ending to this day.",
    "The series blends fantasy elements with mecha action.",
    "Several adaptations and remasters followed over the years.",
    "Merchandise sales exceeded expectations in every region.",
]

_LANGS = ["en"] * 90 + ["de"] * 4 + ["fr"] * 3 + ["und"] * 3


def _rng(corpus: str, idx: int) -> random.Random:
    h = hashlib.blake2b(f"{SEED}:{corpus}:{idx}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(h, "big"))


def _fact(rng: random.Random) -> str:
    t = rng.choice(TEMPLATES)
    org = rng.choice(ORGS)
    return t.format(
        org=org,
        org2=rng.choice([o for o in ORGS if o != org]),
        person=rng.choice(PEOPLE),
        place=rng.choice(PLACES),
        show=rng.choice(SHOWS),
        machine=rng.choice(MACHINES),
        year=rng.choice(YEARS),
    )


def _body(rng: random.Random) -> str:
    paragraphs = []
    for _ in range(rng.randint(2, 4)):
        sents = []
        for _ in range(rng.randint(3, 6)):
            if rng.random() < 0.7:
                sents.append(_fact(rng))
            else:
                sents.append(rng.choice(FILLER))
        paragraphs.append(" ".join(sents))
    return "\n\n".join(paragraphs)


def _edge_case_text(idx: int, rng: random.Random) -> str | None:
    """Deterministic edge-case rows by index (FIXTURES.md §1)."""
    k = idx % 100
    if k == 1:
        return ""  # empty text (chunker returns no chunks)
    if k == 2:
        # one sentence longer than max_tokens_per_chunk=200 (chunker
        # single-long-sentence rule, core/ingest.py:87-94)
        words = [rng.choice(["alpha", "beta", "gamma", "delta", "omega"]) for _ in range(260)]
        return "The endless chronicle names " + " ".join(words) + " without pause."
    if k == 3:
        # E5 prefix suppression (utils/common.py:76-82)
        return (
            "query: what is the Galaxy Patrol?\n\n"
            "passage: The Galaxy Patrol is an interstellar police force. "
            + _fact(rng)
        )
    if k == 4:
        # latin-1-representable non-ASCII
        return (
            "Café Métropole is a famous bistro in Paris. "
            "François Dubois founded Café Métropole in 1985. "
            "The café is known for its crème brûlée."
        )
    if k == 5:
        # duplicate entity surface forms differing only by case (toLower
        # normalization, core/triplets.py:355-363)
        return (
            "HUGGING FACE is an American company based in New York City. "
            "hugging face is a company that develops machine learning tools. "
            "Hugging Face operates in " + HEAD_ENTITY + "."
        )
    return None


def page_row(corpus: str, idx: int) -> dict:
    """The fully deterministic row for (corpus, idx)."""
    rng = edge_rng = _rng(corpus, idx)
    text = _edge_case_text(idx, edge_rng)
    if text is None:
        text = _body(rng)
    doc_id = f"{corpus}-{idx:07d}"
    lang = _LANGS[int.from_bytes(
        hashlib.blake2b(f"lang:{corpus}:{idx}".encode(), digest_size=4).digest(), "big"
    ) % 100]
    return {
        "url": f"https://fixture.test/{corpus}/{doc_id}",
        "warc_ts": EPOCH + datetime.timedelta(seconds=idx),
        "html": render_html(doc_id, text),
        "text": text,
        "lang": lang,
    }


def pages_dataset(n: int, corpus: str = "bench", override_num_blocks: int | None = None):
    """Distributed generation: ``ray.data.range(n)`` → row synthesis per
    batch. Scales to any n without driver-side materialization."""
    import ray.data

    def gen(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pylist(
            [page_row(corpus, int(i)) for i in batch.column("id").to_pylist()],
            schema=PAGES,
        )

    ds = ray.data.range(n, override_num_blocks=override_num_blocks)
    return ds.map_batches(gen, batch_format="pyarrow", batch_size=256)


def pages_from_documents(sf_dir: str, augment: bool = True, facts: int = 3,
                         override_num_blocks: int | None = None,
                         replicate: int = 1):
    """Adapter: map the driver's read-only ``documents`` table
    (doc_id:int64, text, lang, source, n_chars — TESTDATA.md) into the
    ``pages`` schema (FIXTURES.md §4). With ``augment`` a deterministic
    block of entity-rich fact sentences (seeded by doc_id) is appended so
    the triple-extraction path does real work on word-salad testdata text;
    ``facts`` scales pages toward realistic Common-Crawl text sizes for
    throughput benchmarking. ``override_num_blocks`` splits the (single
    small) source file into enough blocks to parallelize downstream
    map_batches stages. ``replicate`` emits R deterministic page variants
    per source document (distinct fact blocks, ``-rK`` url suffix) —
    the FIXTURES.md "bench" corpus scale without touching the read-only
    testdata.
    """
    import ray.data

    def to_pages(batch: pa.Table) -> pa.Table:
        rows = []
        for r in batch.to_pylist():
            for k in range(replicate):
                doc_id = f"{r['source']}-{r['doc_id']}" + (f"-r{k}" if replicate > 1 else "")
                text = r["text"] or ""
                if augment:
                    rng = _rng("aug", int(r["doc_id"]) * replicate + k)
                    sents = [_fact(rng) if rng.random() < 0.7 else rng.choice(FILLER)
                             for _ in range(facts)]
                    # paragraphs of ~5 sentences
                    paras = [" ".join(sents[i : i + 5]) for i in range(0, len(sents), 5)]
                    block = "\n\n".join(paras)
                    text = (text + "\n\n" + block) if text else block
                rows.append(
                    {
                        "url": f"testdata://{r['source']}/{doc_id}",
                        "warc_ts": EPOCH + datetime.timedelta(seconds=int(r["doc_id"])),
                        "html": render_html(doc_id, text),
                        "text": text,
                        "lang": r["lang"],
                    }
                )
        return pa.Table.from_pylist(rows, schema=PAGES)

    # NOTE: the source file has a single row group, so splitting at the
    # READ (override_num_blocks on read_parquet) makes every read task
    # decompress the whole file (measured 7.5s vs 1.0s at 32 CPUs).
    # Read once, then split blocks row-wise with repartition (no shuffle).
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet")
    if override_num_blocks:
        ds = ds.repartition(override_num_blocks)
    return ds.map_batches(to_pages, batch_format="pyarrow", batch_size=64)
