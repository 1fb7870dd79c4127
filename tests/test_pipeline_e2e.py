"""End-to-end golden test: distributed pipeline output must equal a
single-process evaluation of the same pure functions (SURVEY.md §5)."""

import os
import shutil

import pyarrow.parquet as pq
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.config import PipelineConfig
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.chunk import chunk_text, extract_ngrams
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import extract_text
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.ids import chunk_id, doc_id_from_url
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.triples import extract_from_text
from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.pages import page_row

N_PAGES = 60
CORPUS = "goldtest"
CFG = PipelineConfig()


def golden_documents():
    docs = []
    for i in range(N_PAGES):
        r = page_row(CORPUS, i)
        if r["lang"] in CFG.languages:
            text = extract_text(r["html"])
            docs.append((doc_id_from_url(r["url"]), r["url"], text))
    return docs


def golden_triples():
    out = set()
    for doc_id, _url, text in golden_documents():
        for i, (ctext, _n) in enumerate(chunk_text(text, CFG.max_tokens_per_chunk)):
            for si, (s, p, o) in extract_from_text(ctext):
                out.add((chunk_id(doc_id, i), si, s.lower(), p.lower(), o.lower()))
    return out


@pytest.fixture(scope="module")
def kg_out(ray_session, tmp_path_factory):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import build_kg
    from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.pages import pages_dataset

    out_dir = str(tmp_path_factory.mktemp("kg"))
    tables = build_kg(
        lambda: pages_dataset(N_PAGES, CORPUS), out_dir, CFG, resume=False
    )
    return out_dir, tables


def test_text_extraction_byte_identical(kg_out):
    out_dir, tables = kg_out
    got = {r["url"]: r["text"] for r in tables["documents"].take_all()}
    want = {url: text for _d, url, text in golden_documents()}
    assert got == want  # byte-identical per url (north_rule invariant)


def test_chunks_exact(kg_out):
    out_dir, tables = kg_out
    got = {
        (r["chunk_id"], r["chunk_index"], r["text"], r["n_tokens"],
         r["prev_chunk_id"], r["next_chunk_id"])
        for r in tables["chunks"].take_all()
    }
    want = set()
    for doc_id, _url, text in golden_documents():
        chunks = chunk_text(text, CFG.max_tokens_per_chunk)
        n = len(chunks)
        for i, (ctext, ntok) in enumerate(chunks):
            want.add(
                (chunk_id(doc_id, i), i, ctext, ntok,
                 chunk_id(doc_id, i - 1) if i > 0 else None,
                 chunk_id(doc_id, i + 1) if i < n - 1 else None)
            )
    assert got == want


def test_terms_exact(kg_out):
    out_dir, tables = kg_out
    got = {
        (r["chunk_id"], r["term"], r["term_type"], r["position"])
        for r in tables["terms"].take_all()
    }
    want = set()
    for doc_id, _url, text in golden_documents():
        for i, (ctext, _n) in enumerate(chunk_text(text, CFG.max_tokens_per_chunk)):
            uni, bi, tri = extract_ngrams(ctext, CFG.remove_stopwords)
            for tname, grams in (("unigram", uni), ("bigram", bi), ("trigram", tri)):
                for pos, g in enumerate(grams):
                    want.add((chunk_id(doc_id, i), g, tname, pos))
    assert got == want


def test_triples_precision_recall(kg_out):
    out_dir, tables = kg_out
    got = {
        (r["chunk_id"], r["sent_index"], r["subj"], r["pred"], r["obj"])
        for r in tables["triples"].take_all()
    }
    want = golden_triples()
    assert want, "golden triple set must be non-trivial"
    tp = len(got & want)
    precision = tp / max(1, len(got))
    recall = tp / max(1, len(want))
    assert precision >= 0.95 and recall >= 0.95, (precision, recall)


def test_entity_case_dedup_and_provenance(kg_out):
    out_dir, tables = kg_out
    ents = {r["entity_id"]: r for r in tables["entity_nodes"].take_all()}
    # the case-duplicate fixture row (idx % 100 == 5) merges to one entity
    hf = ents.get("e:hugging face")
    assert hf is not None
    assert hf["mention_count"] >= 2
    edges = tables["edges"].take_all()
    assert edges
    assert all(e["chunk_id"] for e in edges)  # provenance always present
    assert all(e["weight"] >= 1 for e in edges)
    # every edge endpoint exists in entity_nodes
    for e in edges[:50]:
        assert e["src_entity_id"] in ents and e["dst_entity_id"] in ents


def test_chunk_vectors_contract(kg_out):
    import numpy as np

    out_dir, tables = kg_out
    rows = tables["chunk_vectors"].take(20)
    from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.ids import point_uuid

    for r in rows:
        v = np.asarray(r["embedding"], dtype=np.float32)
        assert v.shape == (CFG.vector_size,)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-4
        assert r["point_uuid"] == point_uuid(r["chunk_id"])
        assert len(r["payload_text"]) <= CFG.payload_text_max


def test_lineage_reconciles(kg_out):
    out_dir, tables = kg_out
    lineage = pq.read_table(os.path.join(out_dir, "lineage")).to_pylist()
    by_stage = {}
    for r in lineage:
        s = by_stage.setdefault(r["stage"], {"in": 0, "out": 0, "triples": 0})
        s["in"] += r["row_count_in"]
        s["out"] += r["row_count_out"]
        s["triples"] += r["triple_count"]
    assert by_stage["extract"]["in"] == N_PAGES
    assert by_stage["extract"]["out"] == tables["documents"].count()
    assert by_stage["chunk"]["out"] == tables["chunks"].count()
    assert by_stage["ngram"]["out"] == tables["terms"].count()
    assert by_stage["triplets"]["out"] == tables["triples"].count()
    assert by_stage["triplets"]["triples"] == tables["triples"].count()


def test_determinism_rerun_identical(kg_out, ray_session, tmp_path_factory):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import build_kg
    from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.pages import pages_dataset

    out_dir2 = str(tmp_path_factory.mktemp("kg2"))
    tables2 = build_kg(
        lambda: pages_dataset(N_PAGES, CORPUS), out_dir2, CFG, resume=False,
        lineage=False,
    )
    _, tables = kg_out

    def key_set(ds, cols):
        return {tuple(r[c] for c in cols) for r in ds.take_all()}

    for name, cols in (
        ("triples", ["chunk_id", "sent_index", "subj", "pred", "obj"]),
        ("edges", ["src_entity_id", "dst_entity_id", "pred", "chunk_id", "weight"]),
        ("entity_nodes", ["entity_id", "name", "triplet_part", "mention_count"]),
    ):
        assert key_set(tables[name], cols) == key_set(tables2[name], cols), name


def test_resume_skips_completed_stages(kg_out, ray_session):
    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import build_kg
    from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.pages import pages_dataset

    out_dir, tables = kg_out
    before = {r["src_entity_id"]: r["weight"] for r in tables["edges"].take_all()}
    chunks_mtime = os.path.getmtime(os.path.join(out_dir, "chunks", "_SUCCESS"))

    # simulate a crash after triples: drop the edges checkpoint
    shutil.rmtree(os.path.join(out_dir, "edges"))

    def must_not_run():
        raise AssertionError("pages factory must not be called on resume")

    tables3 = build_kg(must_not_run, out_dir, CFG, resume=True, lineage=False)
    after = {r["src_entity_id"]: r["weight"] for r in tables3["edges"].take_all()}
    assert after == before
    # earlier checkpoints untouched
    assert os.path.getmtime(os.path.join(out_dir, "chunks", "_SUCCESS")) == chunks_mtime

    # a crash that lost chunks: they are rebuilt from the documents
    # checkpoint, never by re-reading (or re-extracting) the pages
    def chunk_rows(ds):
        return sorted(ds.take_all(), key=lambda r: r["chunk_id"])

    chunks_before = chunk_rows(tables3["chunks"])
    shutil.rmtree(os.path.join(out_dir, "chunks"))
    tables4 = build_kg(must_not_run, out_dir, CFG, resume=True, lineage=False)
    assert chunk_rows(tables4["chunks"]) == chunks_before
