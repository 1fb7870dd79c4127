"""Training-shard writer: manifest parity vs DuckDB, resumability
(only missing shards recompute), exactly-once coverage, and
partitioning-independence of the written shards."""

import os

import duckdb
import pyarrow.parquet as pq
import pytest

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.shards import (
    _shard_path,
    write_training_shards,
)

SF_DIR = os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")
DOCS = os.path.join(SF_DIR, "documents.parquet")

ORACLE = """
    SELECT shard_id, count(*) AS n_docs,
           CAST(sum(octet_length(encode(text))) AS BIGINT) AS n_bytes,
           min(key) AS min_key, max(key) AS max_key
    FROM (
        SELECT CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                    AS BIGINT) % {n} AS shard_id,
               md5(CAST(doc_id AS VARCHAR)) AS key, text
        FROM read_parquet('{docs}')
    )
    GROUP BY shard_id ORDER BY shard_id
"""


def _docs_thunk():
    import ray.data

    return ray.data.read_parquet(DOCS).select_columns(["doc_id", "text"])


@pytest.fixture()
def out_dir(tmp_path):
    return str(tmp_path / "shards")


def _oracle(n):
    return duckdb.sql(ORACLE.format(n=n, docs=DOCS)).arrow()


def test_manifest_matches_duckdb(ray_session, out_dir):
    got = write_training_shards(_docs_thunk, out_dir, n_shards=8)
    want = _oracle(8)
    assert got.equals(want.cast(got.schema))


def test_shards_cover_corpus_exactly_once_and_sorted(ray_session, out_dir):
    write_training_shards(_docs_thunk, out_dir, n_shards=8)
    ids = []
    for sid in range(8):
        tbl = pq.read_table(_shard_path(out_dir, sid))
        keys = tbl.column("shard_key").to_pylist()
        pairs = list(zip(keys, tbl.column("doc_id").to_pylist()))
        assert pairs == sorted(pairs)  # deterministic within-shard order
        ids.extend(p[1] for p in pairs)
    src = pq.read_table(DOCS, columns=["doc_id"]).column("doc_id").to_pylist()
    assert sorted(ids) == sorted(src)


def test_resume_recomputes_only_missing_shards(ray_session, out_dir):
    first = write_training_shards(_docs_thunk, out_dir, n_shards=8)
    mtimes = {s: os.path.getmtime(_shard_path(out_dir, s)) for s in range(8)}
    os.unlink(_shard_path(out_dir, 3))

    again = write_training_shards(_docs_thunk, out_dir, n_shards=8)
    assert again.equals(first)
    for sid in range(8):
        mt = os.path.getmtime(_shard_path(out_dir, sid))
        if sid == 3:
            assert mt > mtimes[sid]
        else:
            assert mt == mtimes[sid]  # untouched — footer-only resume


def test_fully_resumed_run_never_builds_input(ray_session, out_dir):
    write_training_shards(_docs_thunk, out_dir, n_shards=4)

    def boom():  # the thunk contract: not called when nothing is missing
        raise AssertionError("input pipeline constructed on warm resume")

    got = write_training_shards(boom, out_dir, n_shards=4)
    assert got.equals(_oracle(4).cast(got.schema))


def test_partitioning_independence(ray_session, out_dir):
    def shredded():
        return _docs_thunk().repartition(13)

    got = write_training_shards(shredded, out_dir, n_shards=8)
    assert got.equals(_oracle(8).cast(got.schema))


class TestWetArchives:
    @staticmethod
    def _pages_thunk():
        import datetime

        import pyarrow as pa
        import ray.data

        ts = datetime.datetime(2025, 3, 28)

        def mk(batch: pa.Table) -> pa.Table:
            rows = [{"url": f"https://x.example/d/{i}", "warc_ts": ts,
                     "text": t or "", "lang": "en"}
                    for i, t in zip(batch.column("doc_id").to_pylist(),
                                    batch.column("text").to_pylist())]
            return pa.Table.from_pylist(rows)

        return ray.data.read_parquet(DOCS).select_columns(
            ["doc_id", "text"]).map_batches(mk, batch_format="pyarrow")

    def test_roundtrip_through_the_source(self, ray_session, out_dir):
        import glob

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.shards import (
            write_wet_archives,
        )
        from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.warc import (
            read_warc_as_pages,
        )

        manifest = write_wet_archives(self._pages_thunk, out_dir,
                                      n_shards=4)
        assert sum(r["n_docs"] for r in manifest.to_pylist()) == 500
        back = read_warc_as_pages(
            sorted(glob.glob(out_dir + "/*.wet.gz"))).take_all()
        got = {r["url"]: r["text"] for r in back}
        want = {r["url"]: r["text"] for r in self._pages_thunk().take_all()}
        assert got == want

    def test_fully_resumed_run_never_builds_input(self, ray_session,
                                                  out_dir):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.shards import (
            write_wet_archives,
        )

        first = write_wet_archives(self._pages_thunk, out_dir, n_shards=4)

        def boom():
            raise AssertionError("thunk called on a fully-resumed run")

        again = write_wet_archives(boom, out_dir, n_shards=4)
        assert again.to_pylist() == first.to_pylist()

    def test_recomputes_only_missing_shards(self, ray_session, out_dir):
        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.shards import (
            write_wet_archives,
        )

        first = write_wet_archives(self._pages_thunk, out_dir, n_shards=4)
        victim = os.path.join(out_dir, "shard-00002.wet.gz")
        keeper = os.path.join(out_dir, "shard-00001.wet.gz")
        kept_mtime = os.stat(keeper).st_mtime_ns
        os.remove(victim)
        again = write_wet_archives(self._pages_thunk, out_dir, n_shards=4)
        assert again.to_pylist() == first.to_pylist()
        assert os.path.exists(victim)
        assert os.stat(keeper).st_mtime_ns == kept_mtime


class TestGlobalShufflePositions:
    @staticmethod
    def _run(ids, **kw):
        import ray.data

        from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.shards import (
            global_shuffle_positions,
        )

        ds = ray.data.from_items([{"doc_id": i} for i in ids],
                                 override_num_blocks=kw.pop("blocks", 4))
        out = global_shuffle_positions(ds, **kw).take_all()
        return {r["doc_id"]: r["shuffle_pos"] for r in out}

    def test_matches_naive_and_is_contiguous(self, ray_session):
        import hashlib

        ids = list(range(200))
        got = self._run(ids, seed=42)
        order = sorted(
            ids, key=lambda i: (hashlib.md5(f"42:{i}".encode()).hexdigest(),
                                i)
        )
        want = {i: pos for pos, i in enumerate(order)}
        assert got == want
        assert sorted(got.values()) == list(range(len(ids)))

    def test_partitioning_and_bucket_count_invariance(self, ray_session):
        ids = list(range(150))
        base = self._run(ids, seed=7)
        assert self._run(ids, seed=7, blocks=1) == base
        for nb in (1, 7, 64, 65536):
            assert self._run(ids, seed=7, num_buckets=nb) == base

    def test_new_seed_is_a_new_permutation(self, ray_session):
        ids = list(range(100))
        a, b = self._run(ids, seed=1), self._run(ids, seed=2)
        assert sorted(a.values()) == sorted(b.values())
        assert a != b
