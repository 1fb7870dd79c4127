"""Corpus-wide exact paragraph dedup
(pipelines/dedup.paragraph_dedup): first occurrence survives, later
copies are removed, docs reassemble in order, and results are
partition-independent."""

import pyarrow as pa

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.dedup import (
    paragraph_dedup,
)

B = "Shared boilerplate paragraph."


def run(ray_session, docs: dict[int, str], **kw):
    tbl = pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array(list(docs.values()), pa.large_string()),
    })
    return {
        r["doc_id"]: r
        for r in paragraph_dedup(
            ray_session.data.from_arrow(tbl), **kw).take_all()
    }


class TestParagraphDedup:
    def test_first_occurrence_survives_later_copies_removed(
            self, ray_session):
        out = run(ray_session, {
            0: f"Opening zero.\n\n{B}\n\nClosing zero.",
            1: f"{B}\n\nUnique one.",
            2: f"Unique two.\n\n{B}",
        })
        assert out[0]["text"] == f"Opening zero.\n\n{B}\n\nClosing zero."
        assert out[1]["text"] == "Unique one."
        assert out[2]["text"] == "Unique two."
        assert out[1]["n_paras_in"] == 2
        assert out[1]["n_paras_kept"] == 1

    def test_doc_of_only_duplicates_drops(self, ray_session):
        out = run(ray_session, {0: B, 1: B, 2: B})
        assert set(out) == {0}
        assert out[0]["text"] == B

    def test_first_is_by_doc_then_para_index(self, ray_session):
        # within one doc the earlier index owns the paragraph; the
        # within-doc repeat is removed too
        out = run(ray_session, {5: f"{B}\n\nMiddle.\n\n{B}"})
        assert out[5]["text"] == f"{B}\n\nMiddle."
        assert out[5]["n_paras_in"] == 3
        assert out[5]["n_paras_kept"] == 2

    def test_empty_and_whitespace_paragraphs_drop(self, ray_session):
        out = run(ray_session, {
            0: "Alpha.\n\n\n\n  \n\nBeta.",
            1: " \t ",
        })
        assert out[0]["text"] == "Alpha.\n\nBeta."
        assert out[0]["n_paras_in"] == 2
        assert 1 not in out

    def test_custom_separator(self, ray_session):
        out = run(ray_session, {0: "a|dup", 1: "dup|b"}, sep="|")
        assert out[0]["text"] == "a|dup"
        assert out[1]["text"] == "b"

    def test_partition_independent(self, ray_session, fixed_partitions):
        docs = {
            i: (f"Unique {i}.\n\n{B}" if i % 2 else f"{B}\n\nTail {i}.")
            for i in range(30)
        }
        tbl = pa.table({
            "doc_id": pa.array(list(docs), pa.int64()),
            "text": pa.array(list(docs.values()), pa.large_string()),
        })
        ds = ray_session.data.from_arrow(tbl)
        fixed_partitions(1)
        one = paragraph_dedup(ds).sort("doc_id").take_all()
        fixed_partitions(5)
        many = paragraph_dedup(
            ds.repartition(7)).sort("doc_id").take_all()
        assert one == many


from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.dedup import (
    line_dedup_within_doc,
)


def run_lines(ray_session, docs: dict[int, str], **kw):
    tbl = pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array(list(docs.values()), pa.large_string()),
    })
    return {
        r["doc_id"]: r
        for r in line_dedup_within_doc(
            ray_session.data.from_arrow(tbl), **kw).take_all()
    }


class TestLineDedupWithinDoc:
    def test_later_copies_drop_first_survives(self, ray_session):
        out = run_lines(ray_session, {
            0: "nav\nalpha\nnav\nbeta\nnav",
            1: "unique one\nunique two",
        })
        assert out[0]["text"] == "nav\nalpha\nbeta"
        assert out[0]["n_lines_in"] == 5
        assert out[0]["n_lines_kept"] == 3
        assert out[1]["text"] == "unique one\nunique two"

    def test_scope_is_per_document(self, ray_session):
        # the same line in two docs survives in BOTH (contrast with
        # corpus-wide paragraph_dedup)
        out = run_lines(ray_session, {0: "nav\na", 1: "nav\nb"})
        assert out[0]["text"] == "nav\na"
        assert out[1]["text"] == "nav\nb"

    def test_blank_lines_always_survive(self, ray_session):
        out = run_lines(ray_session, {0: "a\n\n\nb\n  \n  \na"})
        assert out[0]["text"] == "a\n\n\nb\n  \n  "
        assert out[0]["n_lines_in"] == 7
        assert out[0]["n_lines_kept"] == 6

    def test_empty_doc_row_survives(self, ray_session):
        out = run_lines(ray_session, {0: "", 1: "x"})
        assert out[0]["text"] == ""
        assert out[0]["n_lines_in"] == 1
        assert out[0]["n_lines_kept"] == 1

    def test_partition_independent(self, ray_session):
        docs = {
            i: "\n".join(["nav", f"u{i}", "nav", "", f"v{i}", "nav"])
            for i in range(30)
        }
        tbl = pa.table({
            "doc_id": pa.array(list(docs), pa.int64()),
            "text": pa.array(list(docs.values()), pa.large_string()),
        })
        ds = ray_session.data.from_arrow(tbl)
        one = line_dedup_within_doc(ds).sort("doc_id").take_all()
        many = line_dedup_within_doc(
            ds.repartition(7)).sort("doc_id").take_all()
        assert one == many
        assert one[3]["text"] == "nav\nu3\n\nv3"
