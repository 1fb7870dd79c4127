"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG-construction pipeline on sf0.001;
``queries()`` exposes one callable per implemented operator/pipeline from
SURVEY.md §2 (+ the training-data operators); ``oracle_sql()`` gives the
DuckDB-equivalent SQL for every SQL-expressible query (same column names).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import datetime
import functools
import glob
import hashlib
import json
import os
import sqlite3
import tempfile
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from nlp_graphrag_with_qdrant_and_neo4j_ray import config
from nlp_graphrag_with_qdrant_and_neo4j_ray.config import PipelineConfig
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.avro import (
    write_avro_file,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.html import (
    extract_text, render_html,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.media import (
    encode_avi, encode_mp4_raw, encode_png, encode_wav,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.rounding import sql_round
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.textstats import (
    content_hash, detect_language, quality_scores as qrow, ws_token_count,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.tokenize import STOPWORDS
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.triples import (
    sanitize_relation,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.warc import (
    encode_warc_pages, encode_wet_pages,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines import (
    dedup as dd, query as q, similarity as sim, textstats as ts,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.bpe import (
    bpe_apply, train_bpe, word_counts,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
    PII_PATTERNS as _pii, assign_splits, budget_head, c4_line_filter,
    domain_quality_filter, extract_patterns, fix_mojibake, gopher_quality,
    json_extract_scalar, length_buckets, length_trim, normalize_text,
    pack_sequences, pii_redact, pseudonymize, rebalance_to_target,
    redact_pii_array, repetition_scores, strip_boilerplate, token_windows,
    weighted_sample,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.dedup import (
    edit1_fuzzy_pairs, hamming_pairs, line_dedup_within_doc,
    ngram_decontaminate, ngram_overlap_exact, paragraph_dedup,
    source_ngram_overlap, split_leakage, substring_dedup,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.evalmetrics import (
    calibration_bins, classification_prf, cohens_kappa, ranking_auc,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
    _bfs_local, _clustering_local, _hits_local, _link_scores_local, _lpa_local,
    _pagerank_local, betweenness_sample, bfs_depths, clustering_coefficient,
    cooccurrence_pmi, degree_assortativity, degree_histogram, edge_negatives,
    harmonic_sample, hits, k_core, label_propagation, link_scores,
    node2vec_walks, pagerank, random_walks, reciprocity, shortest_paths,
    skipgram_negatives, skipgram_pairs, triangle_count, truss_decomposition,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.kg import build_kg
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.query import (
    query_entities,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
    _copartition, analyze_table, anti_join, approx_count_distinct,
    approx_frequencies, approx_heavy_hitters, asof_join, banded_range_join,
    bloom_anti_join, bloom_semi_join, broadcast_range_join,
    copartition_agg_join, cube_sum, cusum_changepoints, distinct_count,
    distinct_set_op, exact_quantile, exact_quantiles, except_distinct,
    fd_violations, fill_gaps, fk_coverage, full_outer_join, funnel_counts,
    gap_sessions, gini_coefficient, grouped_approx_distinct, grouped_argmax,
    grouped_concat, grouped_corr, grouped_entropy, grouped_first_last,
    grouped_hash_sample, grouped_ks, grouped_mad, grouped_median, grouped_mode,
    grouped_quantile, grouped_quantile_sketch, grouped_regression,
    grouped_standardize, grouped_var, grouped_weighted_sample,
    grouped_winsorize, heavy_hitters, hopping_window_agg, incremental_agg,
    inner_join, intersect_distinct, interval_join, ks_statistic, left_join,
    locf_fill, merge_into, pivot_sum, profile_numeric, retention_counts,
    rollup_sum, skew_join, time_weighted_mean, tumbling_window_agg,
    union_by_name, unpivot, validation_report, window_cume_dist,
    window_dense_rank, window_lag, window_lead, window_ntile,
    window_percent_rank, window_rank, window_topk, windowed_cumagg,
    windowed_cumsum, zorder_sort, zorder_sql_expr as _zexpr,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.shards import (
    global_shuffle_positions, write_training_shards, write_wet_archives,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
    dim_truncation_recall, embedding_pca, ensure_ivf_index, grouped_centroids,
    hard_negatives, kmeans_assign, knn_label_ndcg, label_outliers,
    label_separation,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
    bigram_logprob, bm25_rank, bpe_pair_counts, ccnet_ppl_buckets,
    compression_ratio, corpus_profile, dsir_logratio, flagged_word_ratio,
    nb_train_predict, phrase_matches, script_fractions, stop_tokens,
    tfidf_top_terms, token_pmi, unigram_kl_drift, unigram_logprob,
    winnow_fingerprints, zipf_fit,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
    add_url_columns, anchor_text_counts, cap_per_domain, crawl_diff,
    crawl_frontier, dedup_recrawls, dedup_recrawls_windowed, domain_counts,
    host_cocitation, host_link_graph, main_content, mirror_paths,
    page_metadata, robots_filter, sitemap_urls, url_block_filter,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.avro import read_avro
from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.orc import (
    read_orc, write_orc_file,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.pages import (
    pages_from_documents,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.sources.warc import (
    read_warc_as_pages,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.extract import (
    make_extract_fn,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.link import (
    edges_alias_fanout,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.multimodal import (
    MEDIA_SCHEMA, audio_fingerprints, audio_spectrograms, augment_images,
    decode_audio, decode_images, image_phash, resize_images,
    sample_video_frames, synth_media_dataset,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.shuffle import (
    combine,
    grouped_apply,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.stages.termindex import (
    ensure_term_index,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.state.broadcast import (
    broadcast_lookup, lookup_batch,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.state.checkpoint import (
    checkpointed, fingerprint, publish_dir, rows_at_most, source_digest,
)

CFG = PipelineConfig()
# Ray's native hash join starts one aggregator actor per partition, and
# each reserves ~0.9 GiB of the node's memory resource: sizing it like a
# grouped_apply exchange asks for more than a 15 GB host has
_NATIVE_JOIN_PARTITIONS = 8


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _read(sf_dir: str, table: str, columns: list[str] | None = None,
          filter: pc.Expression | None = None):
    """``<table>.parquet`` of ``sf_dir``; ``columns`` projects and
    ``filter`` prunes in the read itself, so the Dataset keeps its footer
    row count."""
    return ray.data.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                                 columns=columns, filter=filter)


def _dim(sf_dir: str, table: str, columns: list[str],
         filter: pc.Expression | None = None) -> pa.Table:
    """A small ``<table>.parquet`` read on the driver, for
    ``broadcast_lookup``."""
    return pq.read_table(os.path.join(sf_dir, f"{table}.parquet"),
                         columns=columns, filters=filter)


def _table(ds) -> pa.Table:
    """A small Dataset gathered on the driver (empty blocks carry no
    schema and are skipped)."""
    return pa.concat_tables([
        t for t in ds.iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_columns])


def _asia_nations(sf_dir: str) -> pa.Table:
    """``n_nationkey, n_name`` of the nations in region ASIA."""
    asia = _dim(sf_dir, "region", ["r_regionkey"],
                filter=pc.field("r_name") == "ASIA")
    return _table(broadcast_lookup(
        _read(sf_dir, "nation", columns=["n_nationkey", "n_name",
                                         "n_regionkey"]),
        asia, "n_regionkey", "r_regionkey", []))


@functools.cache
def _code_digest() -> str:
    """Digest of this module and the package sources, once per process."""
    return source_digest(os.path.abspath(__file__))


def _cache_dir(kind: str, key: str) -> str:
    """The ``/tmp`` cache dir ``<kind>-<tag>`` of ``key``, keyed by the
    key and the code, so two checkouts or two versions of the code
    never serve each other's artifacts."""
    tag = hashlib.blake2b(f"{key}\0{_code_digest()}".encode(),
                          digest_size=6).hexdigest()
    return os.path.join(tempfile.gettempdir(), f"{kind}-{tag}")


def _kg_dir(sf_dir: str) -> str:
    """The KG checkpoint cache of ``sf_dir`` (built with resume)."""
    return _cache_dir("kgcache", sf_dir)


def _emb_index(sf_dir: str) -> tuple[str, str]:
    """The ANN index dir of ``sf_dir``'s embeddings table and the
    table's fingerprint. The indexes are built from embeddings.parquet,
    not from the KG, so they live apart from ``_kg_dir`` and a KG
    rebuild forces no k-means retrain."""
    return (_cache_dir("ivfcache", sf_dir),
            fingerprint(os.path.join(sf_dir, "embeddings.parquet")))


def _export(sf_dir: str, name: str, suffix: str,
            write: Callable[[str], None]) -> list[str]:
    """The entries ending in ``suffix`` of the export ``name`` in
    ``sf_dir``'s KG dir, published once by ``write(dir)``: a killed
    export is never read back, and its rerun starts from an empty dir."""
    out_dir = os.path.join(_kg_dir(sf_dir), name)
    publish_dir(out_dir, "ok", write)
    return [os.path.join(out_dir, f) for f in sorted(os.listdir(out_dir))
            if f.endswith(suffix)]


def _warc_fixture(sf_dir: str, fmt: str) -> list[str]:
    """Deterministic WARC/WET fixture shards built from the sf_dir's
    documents table (FIXTURES.md pattern: real container bytes, no
    external data). ``fmt`` is ``"wet"`` (conversion records carrying
    text) or ``"warc"`` (response records carrying full HTTP captures of
    render_html output). Cached under /tmp keyed on the scale dir, the
    format and the code, and published under the source file's
    fingerprint; the build is a bounded local pass over the small
    testdata table — fixture GENERATION is test scaffolding, the read
    path under test is the streaming datasource."""
    src = os.path.join(sf_dir, "documents.parquet")
    d = _cache_dir("warcfix", f"{sf_dir}\0{fmt}")
    names = [f"part-{s:02d}.{fmt}.gz" for s in range(4)]

    def build(tmp: str) -> None:
        tbl = pq.read_table(src, columns=["doc_id", "text", "lang", "source"])
        epoch = datetime.datetime(2025, 3, 28)
        shards: list[list[dict]] = [[] for _ in names]
        for r in tbl.sort_by("doc_id").to_pylist():
            did = f"{r['source']}-{r['doc_id']}"
            url = f"https://crawl.example/{r['source']}/{did}"
            row = {
                "url": url,
                "warc_ts": epoch + datetime.timedelta(seconds=int(r["doc_id"])),
                "text": r["text"] or "",
                "lang": r["lang"],
                "html": render_html(did, r["text"] or ""),
            }
            shards[int(r["doc_id"]) % len(names)].append(row)
        enc = encode_wet_pages if fmt == "wet" else encode_warc_pages
        for name, rows in zip(names, shards):
            with open(os.path.join(tmp, name), "wb") as f:
                f.write(enc(rows, filename=name))

    publish_dir(d, fingerprint(src), build)
    return [os.path.join(d, n) for n in names]


def _kg_tables(sf_dir: str):
    """Build (or resume from checkpoint) the KG over this sf_dir's
    documents table mapped into the pages schema. Cached across queries
    within one driver session via the per-stage checkpoints."""
    return build_kg(
        lambda: pages_from_documents(sf_dir, augment=True),
        _kg_dir(sf_dir),
        CFG,
        resume=True,
        lineage=True,
    )


def _kg_local_table(sf_dir: str, name: str, columns: list[str],
                    max_rows: int):
    """The published KG checkpoint table as an in-process pa.Table when
    it is small — or None (``config.KG_LOCAL_SERVE`` off, or more than
    ``max_rows`` rows), and the caller runs its distributed path. A cold
    call builds the KG checkpoints once first. Size is judged from the
    parquet FOOTERS alone (`rows_at_most`): below the threshold a
    serving query pays zero Ray Dataset executions. Only ever reads a
    published checkpoint (`_SUCCESS` present), so it can never observe
    a half-written table."""
    if not config.KG_LOCAL_SERVE:
        return None
    d = os.path.join(_kg_dir(sf_dir), name)
    if not os.path.exists(os.path.join(d, "_SUCCESS")):
        _kg_tables(sf_dir)
    files = sorted(glob.glob(os.path.join(d, "*.parquet")))
    if not files or not rows_at_most(files, max_rows):
        return None
    return pa.concat_tables([
        pq.read_table(f, columns=columns) for f in files
    ])


def _as_string(ds, cols: list[str]):
    """Cast large_string columns to string for stable schema comparison."""

    def cast(batch: pa.Table) -> pa.Table:
        arrays, names = [], []
        for name in cols:
            col = batch.column(name)
            if pa.types.is_large_string(col.type):
                col = pc.cast(col, pa.string())
            arrays.append(col)
            names.append(name)
        return pa.table(dict(zip(names, arrays)))

    return ds.map_batches(cast, batch_format="pyarrow")


# --------------------------------------------------------------------------
# entry
# --------------------------------------------------------------------------

def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: full KG construct;
    returns the sorted weighted edge list."""
    tables = _kg_tables("/root/testdata/sf0.001")
    return tables["edges"]


# --------------------------------------------------------------------------
# queries
# --------------------------------------------------------------------------

def queries() -> dict[str, Callable[[str], Any]]:
    # ---- KG pipeline stages (S1, M1-M7, T1-T3, J1, A4-A5, §2.7) ----

    def kg_extract_documents(sf_dir: str):
        """S1+M2+M3: pages → lang-filtered documents; html→text must be
        byte-identical to the source text column (SQL-checkable)."""
        pages = pages_from_documents(sf_dir, augment=False)
        docs = pages.map_batches(
            make_extract_fn(CFG), batch_format="pyarrow", batch_size=64
        )
        return _as_string(docs, ["doc_id", "url", "text", "n_chars"])

    def _messy_urls(sf_dir: str):
        """Deterministic messy-URL table from documents (oracle
        scaffolding for the web-pipeline operators): mixed-case schemes
        and hosts, default ports, tracking params, fragments, www
        prefixes and multi-label public suffixes — every rule
        pipelines/web.py canonicalizes, replayable in SQL."""
        ds = _read(sf_dir, "documents", columns=["doc_id", "source"])

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                src = r["source"]
                core = (src.upper() if i % 6 == 0 else src) + str(i % 3)
                host = (("www." if i % 2 == 1 else "") + core + "."
                        + ("co.uk" if i % 5 == 0 else "com"))
                scheme = "HTTPS" if i % 3 == 0 else "https"
                port = ":443" if i % 4 == 0 else ""
                q = (f"?utm_source=feed&id={i}" if i % 2 == 0
                     else f"?id={i}&utm_campaign=z")
                frag = f"#s{i}" if i % 3 == 1 else ""
                rows.append({
                    "doc_id": i,
                    "url": f"{scheme}://{host}{port}/{src}/doc-{i}{q}{frag}",
                })
            return pa.Table.from_pylist(rows)

        return ds.map_batches(mk, batch_format="pyarrow")

    def url_canonicalized(sf_dir: str):
        """URL canonicalization + registrable-domain extraction
        (pipelines/web.py): vectorized pyarrow regex kernels; the
        oracle reconstructs the expected canonical form rule-by-rule
        in SQL."""
        return add_url_columns(_messy_urls(sf_dir)).select_columns(
            ["doc_id", "canonical_url", "domain"])

    def pages_domain_counts(sf_dir: str):
        """Docs per registrable domain — map-side derive, small
        groupby."""
        return domain_counts(_messy_urls(sf_dir))

    def docs_domain_capped(sf_dir: str):
        """RefinedWeb-style anti-domination cap: ≤3 docs per
        registrable domain, picked by deterministic md5(url) rank —
        one hash-partition exchange, group heads vectorized per
        partition. Oracle replays the rank with row_number()."""
        return cap_per_domain(_messy_urls(sf_dir), 3).select_columns(
            ["doc_id", "domain"])

    def _linked_pages(sf_dir: str):
        """Deterministic link-bearing HTML pages from documents (web-graph
        oracle scaffolding): each page carries one absolute anchor to a
        doc_id-arithmetic target, one RELATIVE anchor (resolves to its own
        host), and noise links (#fragment, mailto:, javascript:) the
        extractor must drop. Host shapes exercise www-prefixes and
        multi-label suffixes. The SQL oracle replays the arithmetic — the
        Ray side genuinely parses the HTML."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])
        n_docs = docs.count()

        def host(i: int) -> str:
            return (("www." if i % 2 else "") + f"site{i % 10}."
                    + ("co.uk" if i % 3 == 0 else "com"))

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                t1 = (i * 7 + 13) % n_docs
                html = (
                    f"<html><body><p>doc {i}</p>"
                    f'<a href="https://{host(t1)}/d/doc-{t1}">out</a>'
                    f"<a href='/d/doc-{(i + 1) % n_docs}'>next</a>"
                    '<a href="#top">top</a><a href="mailto:a@b">m</a>'
                    '<a href="javascript:void(0)">j</a>'
                    "</body></html>"
                ).encode()
                rows.append({"url": f"https://{host(i)}/d/doc-{i}",
                             "html": html})
            return pa.Table.from_pylist(rows)

        return docs.map_batches(mk, batch_format="pyarrow")

    def web_host_link_graph(sf_dir: str):
        """Raw captures → registrable-domain link graph (anchor
        extraction with RFC 3986 relative resolution, noise-scheme
        filtering, eTLD+1 mapping, pre-combined two-key groupby). The
        oracle replays the planted link arithmetic in SQL."""
        return host_link_graph(_linked_pages(sf_dir))

    def web_host_cocitation(sf_dir: str):
        """Host co-citation (pipelines/web.host_cocitation): for every
        unordered registrable-domain pair, how many pages link to
        BOTH — the relatedness / spam-constellation signal
        complementing the link graph.  Pairs form map-side per page;
        one pre-combined two-key groupby.  The oracle replays the
        planted-anchor arithmetic; the Ray side genuinely parses the
        HTML."""
        return host_cocitation(_linked_pages(sf_dir))

    def web_host_reciprocity(sf_dir: str):
        """Per-domain link reciprocity (pipelines/graph.reciprocity)
        over the registrable-domain link graph: distinct out-neighbor
        count, how many link back, and the reciprocated fraction —
        the symmetry signal separating mutual affiliation from link
        farms. Self-loops (the relative anchors) drop; int64 counts +
        one division, so the oracle (same formula over the planted
        link arithmetic) hashes exactly."""
        edges = host_link_graph(_linked_pages(sf_dir))
        return reciprocity(edges, "src_domain", "dst_domain").sort("node")

    def events_time_weighted_value(sf_dir: str):
        """Time-weighted average value per user
        (pipelines/relational.time_weighted_mean): each event's value
        held until the user's next event, weighted by the holding
        duration in seconds — the TWAP / gauge-state mean for
        irregular streams.  One user-keyed exchange; ts rides as
        epoch-us int64 for exact parity; the oracle replays the lead
        window and duration weighting."""
        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_id", "ts", "value"],
        )

        def to_us(batch: pa.Table) -> pa.Table:
            return pa.table({
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "ts_us": pc.cast(batch.column("ts"), pa.int64()),
                "value": batch.column("value"),
            })

        return time_weighted_mean(
            ev.map_batches(to_us, batch_format="pyarrow"),
            ["user_id"], "ts_us", "value", tie_col="event_id",
        )

    def web_anchor_texts(sf_dir: str):
        """Anchor-text aggregation per destination domain
        (pipelines/web.anchor_text_counts): each planted page carries
        an absolute link whose anchor markup needs tag-stripping and
        whitespace-collapsing, a relative link resolving to its own
        host, and noise anchors (mailto:, #fragment) that must drop.
        The oracle replays the planted arithmetic; the Ray side
        genuinely parses the HTML."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                t = (i * 3 + 1) % 10
                html = (
                    f"<html><body><p>page {i}</p>"
                    f'<a href="https://site{t}.com/p" rel="nofollow">'
                    f"<b>Read</b>\n  more {i % 4}</a>"
                    "<a href='/about'>About  Us</a>"
                    '<a href="#top">skip</a>'
                    '<a href="mailto:x@y">ignore</a>'
                    "</body></html>"
                ).encode()
                rows.append({"url": f"https://site{i % 10}.com/d/{i}",
                             "html": html})
            return pa.Table.from_pylist(rows)

        return anchor_text_counts(
            docs.map_batches(mk, batch_format="pyarrow"))

    def pages_url_filtered(sf_dir: str):
        """RefinedWeb-style URL filtering
        (pipelines/web.url_block_filter): planted urls where doc_id%5
        lands on a blocked domain, doc_id%4 carries a blocklist word in
        the path (doc_id%8 uppercased — matching is case-insensitive),
        the rest are clean. The oracle replays the arithmetic and the
        substring counting in SQL."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                host = ("blocked.com" if i % 5 == 0
                        else f"site{i % 3}.com")
                w = ("CASINO" if i % 8 == 0
                     else "casino" if i % 4 == 0 else "article")
                rows.append({
                    "doc_id": i,
                    "url": f"https://{host}/{w}/page-{i}",
                })
            return pa.Table.from_pylist(rows)

        return url_block_filter(
            docs.map_batches(mk, batch_format="pyarrow"),
            blocked_domains=("blocked.com",),
            blocked_words=("casino", "viagra"),
        )

    def pages_robots_filtered(sf_dir: str):
        """RFC 9309 robots filtering (pipelines/web.robots_filter +
        functions/robots.py): four planted domains — nested
        Allow-inside-Disallow (longest match must win), a plain
        Disallow, an empty-Disallow allow-all file, and a domain with
        NO robots row (RFC default allow). The oracle replays the
        longest-match precedence with a window over prefix matches;
        the Ray side genuinely parses the robots.txt text."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                host = f"site{i % 4}.com"
                path = ("/private/page-" + str(i) if i % 3 == 0 else
                        "/private/ok/page-" + str(i) if i % 3 == 1 else
                        f"/public/page-{i}?q={i}")
                rows.append({"doc_id": i,
                             "url": f"https://{host}{path}"})
            return pa.Table.from_pylist(rows)

        robots = ray.data.from_items([
            {"domain": "site0.com",
             "robots_txt": ("# site0\nUser-agent: graftbot\n"
                            "Disallow: /\n\nUser-agent: *\n"
                            "Disallow: /private\n"
                            "Allow: /private/ok\n")},
            {"domain": "site1.com",
             "robots_txt": "User-agent: *\nDisallow: /private\n"},
            {"domain": "site2.com",
             "robots_txt": "User-agent: *\nDisallow:\n"},
            # site3.com has no robots row -> allow all
        ])
        return robots_filter(
            docs.map_batches(mk, batch_format="pyarrow"), robots)

    def pages_html_metadata(sf_dir: str):
        """HTML metadata mining (pipelines/web.page_metadata): planted
        pages exercise inner-tag titles, entity escapes, flipped
        attribute order on the description meta, and doc_id-arithmetic
        absence of each field. The oracle replays the expected strings;
        the Ray side genuinely parses the HTML."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                title = ("" if i % 7 == 0 else
                         f"<title>Doc <b>{i}</b> &amp; more</title>")
                desc = ("" if i % 5 == 0 else
                        f'<meta name="description" content="About {i}">'
                        if i % 2 == 0 else
                        f'<meta content="Flip {i}" name="description">')
                canon = ("" if i % 3 == 0 else
                         f'<link rel="canonical" '
                         f'href="https://c.com/{i}">')
                og = ("" if i % 4 == 0 else
                      f'<meta property="og:title" content="OG {i}">')
                html = (f"<html><head>{title}{desc}{canon}{og}</head>"
                        f"<body><p>body {i}</p></body></html>").encode()
                rows.append({"url": f"https://m.com/{i}", "html": html})
            return pa.Table.from_pylist(rows)

        return page_metadata(docs.map_batches(mk, batch_format="pyarrow"))

    def web_crawl_frontier(sf_dir: str):
        """Frontier discovery (pipelines/web.crawl_frontier): each
        planted page links to itself (crawled — must anti-join away),
        to an external tracking-decorated target (uncrawled — must
        survive, canonicalized) and to noise anchors. 60 distinct
        frontier urls by doc_id arithmetic; the oracle replays counts
        and distinct referring domains in SQL."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                url = f"https://site{i % 7}.com/d/{i}"
                html = (
                    f'<a href="https://ext{i % 3}.com/new/{i % 20}'
                    f'?utm_source=x&id={i % 20}">ext</a>'
                    f'<a href="/d/{i}">self</a>'
                    '<a href="#x">noise</a>'
                ).encode()
                rows.append({"url": url, "html": html})
            return pa.Table.from_pylist(rows)

        return crawl_frontier(
            docs.map_batches(mk, batch_format="pyarrow"))

    def pages_main_content(sf_dir: str):
        """jusText-style main-content extraction
        (pipelines/web.main_content): planted pages alternate two block
        layouts — a short block RESCUED between two good blocks vs
        condemned next to a nav block, and a neargood block rescued by
        a good neighbor vs condemned after a bad one. The Ray side runs
        the real block classifier on real HTML; the oracle writes the
        expected output text per layout from the same literals."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])
        ph = ("the sun is warm and the breeze is soft in the quiet "
              "garden of our town ")
        good = (ph * 3).strip()
        nav = ('<a href="https://x.com/a">Home</a> '
               '<a href="https://x.com/b">About</a>')
        short = "Short note only."
        near = ph.strip()

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                if i % 2 == 0:
                    body = [good, short, good, nav, near]
                else:
                    body = [nav, short, good, near]
                html = ("<html><body>"
                        + "".join(f"<p>{b}</p>" for b in body)
                        + "</body></html>").encode()
                rows.append({"doc_id": i,
                             "url": f"https://mc.com/{i}",
                             "html": html})
            return pa.Table.from_pylist(rows)

        out = main_content(
            docs.map_batches(mk, batch_format="pyarrow"),
            stopwords=("the", "and", "of", "to", "a", "in", "is",
                       "with"))
        return out

    def pages_sitemap_urls(sf_dir: str):
        """Sitemap parsing (pipelines/web.sitemap_urls): every 10th
        planted file is a sitemapindex pointing at two nested sitemaps;
        the rest are urlsets whose entries carry arithmetic lastmod /
        priority presence (and one entity-escaped loc). The oracle
        replays the expected rows; the Ray side parses the XML."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                if i % 10 == 0:
                    xml = (
                        '<?xml version="1.0"?><sitemapindex>'
                        f"<sitemap><loc>https://s{i % 4}.com/a.xml</loc>"
                        "<lastmod>2025-01-01</lastmod></sitemap>"
                        f"<sitemap><loc>https://s{i % 4}.com/b.xml</loc>"
                        "</sitemap></sitemapindex>"
                    )
                else:
                    ent = "&amp;" if i % 7 == 0 else ""
                    lastmod = (f"<lastmod>2025-02-{i % 28 + 1:02d}"
                               "</lastmod>" if i % 3 == 0 else "")
                    prio = (f"<priority>0.{i % 9 + 1}</priority>"
                            if i % 2 == 0 else "")
                    xml = (
                        '<?xml version="1.0"?><urlset>'
                        f"<url><loc>https://s{i % 4}.com/p/{i}{ent}"
                        f"</loc>{lastmod}{prio}</url>"
                        "<url><lastmod>2024-01-01</lastmod></url>"
                        "</urlset>"
                    )
                rows.append({"url": f"https://s{i % 4}.com/sitemap-{i}.xml",
                             "xml": xml.encode()})
            return pa.Table.from_pylist(rows)

        return sitemap_urls(docs.map_batches(mk, batch_format="pyarrow"))

    def pages_mirror_paths(sf_dir: str):
        """Mirror detection (pipelines/web.mirror_paths): even doc_ids
        serve a tracking-decorated /pkg/{doc_id%7} path from domain
        m{doc_id%5}.com (7 mirrored paths × 5 domains after
        canonicalization), odd doc_ids serve unique paths that must
        fall under the min_domains floor. The oracle replays the
        grouping arithmetic."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                if i % 2 == 0:
                    url = (f"https://m{i % 5}.com/pkg/{i % 7}"
                           "?utm_source=x")
                else:
                    url = f"https://u{i % 3}.com/d/{i}"
                rows.append({"url": url})
            return pa.Table.from_pylist(rows)

        return mirror_paths(
            docs.map_batches(mk, batch_format="pyarrow"),
            min_domains=3)

    def docs_boilerplate_scoped(sf_dir: str):
        """PER-SITE template removal (clean.strip_boilerplate with
        scope_col — the RefinedWeb per-site rule): every a.com doc
        carries the same footer line (dropped: repeats across ≥20 of
        a.com's docs) while the ONE b.com doc carrying the identical
        line keeps it (1 < 20 within b.com) — the corpus-global
        variant would drop both. The oracle writes the expected texts
        from the same arithmetic."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])
        shared = "Follow us on social media."

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                lines = [f"Unique line {i}."]
                if i % 2 == 0 or i == 1:
                    lines.append(shared)
                rows.append({
                    "doc_id": i,
                    "domain": "a.com" if i % 2 == 0 else "b.com",
                    "text": "\n".join(lines),
                })
            return pa.Table.from_pylist(rows)

        return strip_boilerplate(
            docs.map_batches(mk, batch_format="pyarrow"),
            min_docs=20, scope_col="domain")

    def web_host_pagerank(sf_dir: str):
        """The classic crawl pipeline composed end-to-end: archives →
        link extraction → host graph → weighted PageRank (the existing
        pipelines/graph.pagerank, n_links as edge weight). Rows-only
        check; the pagerank kernel itself is pinned by docs_pagerank's
        unrolled SQL oracle and tests/test_graph.py."""
        g = host_link_graph(_linked_pages(sf_dir))
        return pagerank(g, src_col="src_domain", dst_col="dst_domain",
                        weight_col="n_links", iters=5).sort("node")

    def web_host_hits(sf_dir: str):
        """Hubs vs authorities over the same parsed host link graph —
        link directories score as hubs, heavily-cited hosts as
        authorities (the classic web-graph pair beside
        web_host_pagerank). Rows-only; the HITS kernel is pinned by
        docs_hits' unrolled SQL oracle and tests/test_graph.py."""
        g = host_link_graph(_linked_pages(sf_dir))
        return hits(g, src_col="src_domain", dst_col="dst_domain",
                    iters=5).sort("node")

    def pages_recrawl_dedup(sf_dir: str):
        """Re-crawl collapse (pipelines/web.dedup_recrawls): every doc
        appears once under one messy decoration; every 4th doc is
        RE-captured later under a different decoration of the SAME
        canonical url. Canonicalize → keep latest capture per canonical
        url. The oracle reconstructs which variant must survive."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])
        epoch = datetime.datetime(2025, 3, 28)

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                host, path = f"site{i % 5}.com", f"/d/doc-{i}"
                rows.append({
                    "doc_id": i,
                    "url": f"HTTPS://{host}:443{path}?utm_source=feed&id={i}",
                    "warc_ts": epoch + datetime.timedelta(seconds=i),
                })
                if i % 4 == 0:  # later re-capture, same canonical url
                    rows.append({
                        "doc_id": i,
                        "url": f"https://{host}{path}?id={i}&utm_campaign=x#f",
                        "warc_ts": epoch + datetime.timedelta(seconds=i + 500_000),
                    })
            return pa.Table.from_pylist(rows)

        pages = docs.map_batches(mk, batch_format="pyarrow")
        return dedup_recrawls(pages).select_columns(
            ["doc_id", "canonical_url", "url"])

    def pages_recrawl_dedup_windowed(sf_dir: str):
        """Windowed re-crawl collapse (pipelines/web.dedup_recrawls_windowed):
        keep the latest capture per canonical url per 30-day epoch
        bucket. Every doc has a base capture; every 3rd doc is
        re-captured +1 day later (usually the SAME window — collapses),
        every 4th doc +40 days later (always a DIFFERENT window — both
        survive). The oracle recomputes the same epoch-aligned window
        and replays keep-latest with a window function, so bucket-edge
        cases are handled identically rather than assumed away."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])
        epoch = datetime.datetime(2025, 3, 28)

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                host, path = f"site{i % 5}.com", f"/d/doc-{i}"
                base = epoch + datetime.timedelta(seconds=i)
                rows.append({
                    "doc_id": i,
                    "url": f"HTTPS://{host}:443{path}?utm_source=feed&id={i}",
                    "warc_ts": base,
                })
                if i % 3 == 0:  # re-capture a day later (same window mostly)
                    rows.append({
                        "doc_id": i,
                        "url": f"https://{host}{path}?id={i}&utm_campaign=x#f",
                        "warc_ts": base + datetime.timedelta(days=1),
                    })
                if i % 4 == 0:  # re-capture 40 days later (next window)
                    rows.append({
                        "doc_id": i,
                        "url": f"https://{host}:443{path}?id={i}&utm_medium=z",
                        "warc_ts": base + datetime.timedelta(days=40),
                    })
            return pa.Table.from_pylist(rows)

        pages = docs.map_batches(mk, batch_format="pyarrow")
        return dedup_recrawls_windowed(
            pages, window_days=30
        ).select_columns(["doc_id", "canonical_url", "window", "url"])

    def docs_stop_tokens(sf_dir: str):
        """Corpus-driven stopword discovery
        (pipelines/textstats.stop_tokens): tokens present in more than
        10% of documents, with exact document frequency — the
        df-pruning feed for the inverted-index joins. Single-space
        tokenization, the shared SQL-expressible contract."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return stop_tokens(docs, min_df_frac=0.10)

    def docs_c4_line_filtered(sf_dir: str):
        """C4 rule-based cleaning (pipelines/clean.c4_line_filter) over
        deterministically synthesized multi-line pages: each doc gets a
        punctuation-less salad line, good sentences, a too-short line, a
        'javascript' line, and (by doc_id arithmetic) lorem-ipsum /
        brace / too-few-good-lines page-kill variants — every published
        rule fires. The oracle rebuilds the same lines and applies the
        same rules with DuckDB list kernels."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def synth(batch: pa.Table) -> pa.Table:
            ids, texts = [], []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                lines = [
                    r["text"] or "",
                    f"This document has a valid first sentence number {i}.",
                    "Short line.",
                    "Enable javascript to view the full content here.",
                    "A second valid sentence keeps the document alive.",
                    (f"Third valid sentence number {i} completes the "
                     "document." if i % 5 else "no punct line here"),
                    ("lorem ipsum dolor sit amet." if i % 7 == 0 else
                     "short one." if i % 5 == 0 else
                     "Extra good sentence appears right here today."),
                    ("function f() { return 1; }" if i % 11 == 0 else
                     "also short." if i % 5 == 0 else
                     "Closing sentence ends the document nicely today."),
                ]
                ids.append(i)
                texts.append("\n".join(lines))
            return pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(texts, pa.large_string())})

        return _as_string(
            c4_line_filter(docs.map_batches(synth, batch_format="pyarrow")),
            ["doc_id", "text", "n_lines"],
        )

    def docs_gopher_quality(sf_dir: str):
        """Gopher doc-level quality rules (pipelines/clean.gopher_quality
        — Rae et al. 2021, Appendix A1.1) over deterministically
        synthesized pages: doc_id % 8 picks a variant failing exactly
        one rule (too few words / low alpha fraction / symbol-heavy /
        all-bullet lines / ellipsis lines / 21-char mean words / no
        stopwords) or passing all seven. The oracle rebuilds the same
        pages and recomputes every signal with DuckDB list kernels."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])
        line = ("the quick brown fox jumps over a lazy dog and then "
                "that dog will have a quiet rest with friends today")

        def synth(batch: pa.Table) -> pa.Table:
            ids, texts = [], []
            for i in batch.column("doc_id").to_pylist():
                i = int(i)
                v = i % 8
                if v == 0:
                    t = "Just a few words here."
                elif v == 1:
                    t = "\n".join([line, line, ("12345 " * 21).strip()])
                elif v == 2:
                    t = "\n".join([line, line, line,
                                   ("# " * 8).strip()])
                elif v == 3:
                    t = "\n".join(["- " + line] * 3)
                elif v == 4:
                    t = "\n".join([line + "...", line + "...", line])
                elif v == 5:
                    t = ("the and that have with of to be "
                         + "pneumonoultramicroscopic " * 52).strip()
                elif v == 6:
                    t = ("zebra mango guitar piano velvet copper "
                         "meadow lantern " * 8).strip()
                else:
                    t = "\n".join([line, line, line])
                ids.append(i)
                texts.append(t)
            return pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(texts, pa.large_string())})

        return gopher_quality(
            docs.map_batches(synth, batch_format="pyarrow"))

    def docs_paragraph_dedup(sf_dir: str):
        """Corpus-wide exact paragraph dedup
        (pipelines/dedup.paragraph_dedup — RefinedWeb/CCNet practice)
        over synthesized multi-paragraph pages: every doc carries a
        shared boilerplate paragraph (and doc_id%3 adds a shared
        copyright one, doc_id%5 a whitespace-only one, doc_id%7 docs
        are boilerplate-ONLY so all but the first drop entirely). The
        oracle replays split → first-occurrence-by-(doc_id,para_idx) →
        ordered reassembly with window functions."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])
        b = "Subscribe to our newsletter for daily updates."
        d = "Copyright notice all rights reserved."

        def synth(batch: pa.Table) -> pa.Table:
            ids, texts = [], []
            for i in batch.column("doc_id").to_pylist():
                i = int(i)
                if i % 7 == 0:
                    t = "\n\n".join([b, d])
                else:
                    paras = [f"Unique opening paragraph number {i}.",
                             b,
                             f"Unique closing paragraph number {i}."]
                    if i % 3 == 0:
                        paras.append(d)
                    if i % 5 == 0:
                        paras.append("")
                    t = "\n\n".join(paras)
                ids.append(i)
                texts.append(t)
            return pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(texts, pa.large_string())})

        return paragraph_dedup(
            docs.map_batches(synth, batch_format="pyarrow"))

    def docs_line_dedup_within(sf_dir: str):
        """Intra-document exact line dedup
        (pipelines/dedup.line_dedup_within_doc — the within-page
        sibling of corpus-wide paragraph dedup; zero exchanges) over
        synthesized template-y pages: doc_id%4==0 pages repeat a
        shared nav line three times and their own alpha line twice
        (later copies drop, first survives); every page keeps its
        blank lines (structure, never deduped). The oracle replays
        split → per-(doc, line) first-occurrence window → ordered
        reassembly."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])
        nav = "Shared navigation menu item"

        def synth(batch: pa.Table) -> pa.Table:
            ids, texts = [], []
            for i in batch.column("doc_id").to_pylist():
                i = int(i)
                a = f"Alpha content line {i}."
                c = f"Beta content line {i}."
                if i % 4 == 0:
                    lines = [nav, a, "", nav, c, nav, a]
                else:
                    lines = [a, "", "", nav, c]
                ids.append(i)
                texts.append("\n".join(lines))
            return pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(texts, pa.large_string())})

        return line_dedup_within_doc(
            docs.map_batches(synth, batch_format="pyarrow"))

    def docs_filter_agreement(sf_dir: str):
        """Curation-dashboard agreement audit between two PRODUCTION
        quality filters over the real documents table: the Gopher A1.1
        document rules (clean.gopher_quality; min_stopwords=0 here
        because the synthetic corpus has no English stopwords — the
        other six rules gate, and n_words≥50 splits this corpus
        ~55/45) vs the composite quality-score gate
        (textstats.quality ≥ 0.75, the corpus median). The
        disagreement cells are where filter tuning lives — docs one
        filter keeps and the other kills. Both signal stages are
        zero-exchange maps; the flag join is ONE co-partitioned union
        exchange on doc_id and the 2×2 census pre-combines per
        partition so the final exchange carries O(partitions × 4)
        rows. The oracle recomputes both signal families and the join
        in SQL."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        g = gopher_quality(docs, min_stopwords=0)
        q = ts.quality(docs)

        def g_rows(b: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "gopher_keep": pc.cast(b.column("keep"), pa.int64()),
                "quality_keep": pa.array([-1] * len(b), pa.int64()),
            })

        def q_rows(b: pa.Table) -> pa.Table:
            qr = sql_round(b.column("quality"), 6)
            keep = pc.cast(pc.greater_equal(qr, 0.75), pa.int64())
            return pa.table({
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "gopher_keep": pa.array([-1] * len(b), pa.int64()),
                "quality_keep": keep,
            })

        u = g.map_batches(g_rows, batch_format="pyarrow").union(
            q.map_batches(q_rows, batch_format="pyarrow"))

        def census(pdf):
            # the two marker rows per doc collapse under max (-1 loses)
            f = pdf.groupby("doc_id")[
                ["gopher_keep", "quality_keep"]].max()
            return (f.groupby(["gopher_keep", "quality_keep"]).size()
                    .rename("n").reset_index())

        cells = grouped_apply(u, ["doc_id"], census,
                              batch_format="pandas")

        def fold(pdf):
            return (pdf.groupby(["gopher_keep", "quality_keep"])["n"]
                    .sum().reset_index())

        return grouped_apply(cells, [], fold, batch_format="pandas")

    def docs_split_leakage(sf_dir: str):
        """Train/val/test leakage audit (pipelines/dedup.split_leakage
        over clean.assign_splits° assignments): 8-token-prefix
        fingerprints straddling split boundaries — the intra-corpus
        contamination check (docs_decontaminated° handles the
        external-benchmark case). One fingerprint-keyed exchange; the
        oracle replays the md5-slot split and the prefix md5 in
        SQL."""
        docs = assign_splits(_read(sf_dir, "documents",
                                   columns=["doc_id", "text"]))
        return split_leakage(docs, prefix_tokens=8)

    def docs_lang_f1(sf_dir: str):
        """Per-class precision / recall / F1 of the language-ID
        heuristic vs the declared corpus label
        (pipelines/evalmetrics.classification_prf over the
        docs_lang_confusion° census) — the class-level report behind
        a per-language routing decision. Bounded |classes|² fold;
        fixed expressions over int counts mirror the SQL replay."""
        return classification_prf(docs_lang_confusion(sf_dir),
                                  true_col="declared",
                                  pred_col="detected")

    def docs_filter_kappa(sf_dir: str):
        """Cohen's kappa between the Gopher rules and the composite
        quality gate (pipelines/evalmetrics.cohens_kappa over the
        docs_filter_agreement° census): chance-corrected agreement —
        the single number behind the agreement dashboard. The census
        fold is ≤4 rows; the divisions mirror the SQL replay
        operation-for-operation."""
        return cohens_kappa(docs_filter_agreement(sf_dir),
                            "gopher_keep", "quality_keep")

    def docs_log_odds_terms(sf_dir: str):
        """Per-source distinctive vocabulary — weighted log-odds with
        a uniform Dirichlet prior (Monroe et al. 2008, "Fightin'
        Words"; pipelines/textstats.log_odds_terms): top-5 tokens per
        source by the z-scored group-vs-rest log-odds, ranked on the
        6-digit-rounded value with token tie-break so engine ln() ulp
        differences can't flip the heads. One token-keyed exchange
        builds exact counts, one source-keyed exchange takes heads.
        The oracle recomputes the entire statistic in SQL."""
        return ts.log_odds_terms(_read(sf_dir, "documents"), k=5)

    def docs_tfidf_cosine_pairs(sf_dir: str):
        """Sparse TF-IDF cosine similarity join
        (pipelines/textstats.tfidf_cosine_pairs — inverted-index
        all-pairs, the lexical sibling of embedding_cosine_exact_pairs)
        at threshold 0.7 over the 200-doc bounded subset (the same
        bounded-n baseline contract as docs_jaccard_exact_pairs; the
        production path caps hot tokens via max_bucket). Exact mode
        here so the SQL oracle replays the full statistic: tf → idf →
        L2 normalize → shared-token self-join → threshold."""
        docs = (_read(sf_dir, "documents", columns=["doc_id", "text"])
                .sort("doc_id").limit(200))
        return ts.tfidf_cosine_pairs(docs, threshold=0.7)

    def docs_graph_random_walks(sf_dir: str):
        """DeepWalk-style walk corpus (pipelines/graph.random_walks,
        Perozzi et al. 2014 sampling step) over the deterministic
        two-out-edges-per-doc graph the degree-hist query pins —
        walk_len 4, one walk per source node, next hop chosen by the
        SQL-replayable mixed-congruential rule (u·A + s·B) mod deg(u)
        over dst-sorted distinct adjacency. The oracle replays all
        three hops as chained window-numbered joins."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(x):
                return pc.subtract(x, pc.multiply(pc.divide(x, 500), 500))

            src = pa.concat_arrays([ids.combine_chunks()] * 2)
            dst = pa.concat_arrays([
                mod500(pc.add(pc.multiply(ids, 7), 3)).combine_chunks(),
                mod500(pc.add(pc.multiply(ids, ids), 1)).combine_chunks(),
            ])
            return pa.table({"src": src, "dst": dst})

        return random_walks(
            docs.map_batches(edges, batch_format="pyarrow"),
            walk_len=4)

    def docs_token_ids(sf_dir: str):
        """Vocabulary freeze + corpus encode
        (pipelines/textstats.token_ids_encode): dense token ids by
        frequency rank (count desc, token asc) WITHOUT a global sort —
        rank decomposes into a driver-folded count-histogram offset
        plus a within-count lexicographic index — then every document
        re-emitted as its id sequence via one token-keyed repartition
        join and one doc-keyed ordered reassembly. The id list rides
        out comma-joined so the DuckDB oracle (window-ranked vocab +
        string_agg replay) compares value-exactly."""
        enc = ts.token_ids_encode(_read(sf_dir, "documents"))

        def stringify(b: pa.Table) -> pa.Table:
            s = pc.binary_join(
                pc.cast(b.column("ids"), pa.list_(pa.string())), ",")
            return pa.table({
                "doc_id": b.column("doc_id"),
                "ids_str": pc.cast(s, pa.string()),
                "n_tokens": b.column("n_tokens"),
            })

        return enc.map_batches(stringify, batch_format="pyarrow")

    def docs_token_roundtrip(sf_dir: str):
        """Lossless tokenization proof: encode the corpus to frequency-
        ranked ids (pipelines/textstats.token_ids_encode) and DECODE it
        back (decode_token_ids) — the reconstructed text must equal
        the whitespace-squeezed source byte-for-byte, which the oracle
        states directly in SQL (no replay of the encoder at all: the
        roundtrip IS the contract)."""
        enc, vocab = ts.token_ids_encode(
            _read(sf_dir, "documents"), return_vocab=True)
        return ts.decode_token_ids(enc, vocab).sort("doc_id")

    def docs_logreg_spam_pred(sf_dir: str):
        """fastText-style hashed-feature logistic regression
        (pipelines/textstats.logreg_train_predict — the CCNet/GPT-3
        quality- and routing-filter pattern): md5-slot train docs fit
        a binary classifier by distributed full-batch GD (per-block
        gradient partials fold on the driver; the O(dim) model
        broadcasts via one object-store put per iteration), the rest
        are scored. The base corpus text carries no label signal (the
        tokens are drawn from one shared vocabulary), so the task
        plants one: doc_id%3==0 docs get three spam-marker tokens
        appended and the 'spam' label — the classifier must recover
        the planted rule on the held-out slots. No SQL oracle
        (iterative GD isn't SQL-expressible); semantics are pinned by
        a plain-numpy reference reimplementation in
        tests/test_logreg.py, and this entry's planted rule makes the
        returned pred_y itself checkable row-by-row. Bounded to the
        2,000-doc sorted head: GD passes stream the whole feature
        table, so an unbounded demo would cost iters × corpus scans —
        at real scale you train on a sampled slice and score
        everything with the final weights (one map pass), which is
        this same operator."""
        docs = (_read(sf_dir, "documents",
                      columns=["doc_id", "text"]).sort("doc_id").limit(2000))

        def plant(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64()).to_numpy(
                zero_copy_only=False)
            spam = ids % 3 == 0
            txt = b.column("text").to_pylist()
            out_t = [(t + " winfree prizeclaim creditoffer") if s else t
                     for t, s in zip(txt, spam)]
            return pa.table({
                "doc_id": pa.array(ids),
                "label": pa.array(
                    ["spam" if s else "ham" for s in spam], pa.string()),
                "text": pa.array(out_t, pa.large_string()),
            })

        return ts.logreg_train_predict(
            docs.map_batches(plant, batch_format="pyarrow"), "spam",
            label_col="label", dim=1024, iters=20, lr=2.0, binary=True)

    def web_curation_pipeline(sf_dir: str):
        """End-to-end web curation as ONE streaming chain with ONE SQL
        oracle: planted captures → RefinedWeb URL blocklist
        (web.url_block_filter) → RFC 9309 robots filter
        (web.robots_filter) → byte-exact HTML→text extract
        (functions/html.extract_text) → Gopher A1.1 quality signals
        (clean.gopher_quality). Every stage is the production
        operator; the oracle replays the url/robots arithmetic as a
        WHERE over the Gopher signal SQL (doc_id%5 urls land on the
        blocked domain, doc_id%3 paths are robots-disallowed, the
        rest carry the doc_id%8 Gopher variant text)."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])
        line = ("the quick brown fox jumps over a lazy dog and then "
                "that dog will have a quiet rest with friends today")

        def mk(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                v = i % 8
                if v == 0:
                    t = "Just a few words here."
                elif v == 1:
                    t = "\n".join([line, line, ("12345 " * 21).strip()])
                elif v == 2:
                    t = "\n".join([line, line, line,
                                   ("# " * 8).strip()])
                elif v == 3:
                    t = "\n".join(["- " + line] * 3)
                elif v == 4:
                    t = "\n".join([line + "...", line + "...", line])
                elif v == 5:
                    t = ("the and that have with of to be "
                         + "pneumonoultramicroscopic " * 52).strip()
                elif v == 6:
                    t = ("zebra mango guitar piano velvet copper "
                         "meadow lantern " * 8).strip()
                else:
                    t = "\n".join([line, line, line])
                host = ("blocked.com" if i % 5 == 0
                        else f"site{i % 7}.com")
                path = "/private/p" if i % 3 == 0 else "/ok/p"
                rows.append({
                    "doc_id": i,
                    "url": f"https://{host}{path}?d={i}",
                    "html": render_html(str(i), t),
                })
            return pa.Table.from_pylist(rows)

        robots = ray.data.from_items([
            {"domain": f"site{k}.com",
             "robots_txt": "User-agent: *\nDisallow: /private\n"}
            for k in range(7)
        ])
        pages = docs.map_batches(mk, batch_format="pyarrow")
        past_urls = url_block_filter(
            pages, blocked_domains=("blocked.com",),
        ).filter(expr="keep == 1").select_columns(
            ["doc_id", "url", "html"])
        live = robots_filter(past_urls, robots) \
            .filter(expr="allowed == 1")

        def extract(batch: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "text": pa.array(
                    [extract_text(h)
                     for h in batch.column("html").to_pylist()],
                    pa.large_string()),
            })

        return gopher_quality(
            live.map_batches(extract, batch_format="pyarrow"))

    def docs_wet_export(sf_dir: str):
        """Archive EXPORT (pipelines/shards.write_wet_archives): publish
        the documents table as resumable WET archives — the writer twin
        of the streaming WARC source; curated corpora leave the engine
        in the same format they arrived in. Returns the manifest; the
        oracle replays the md5 shard assignment and byte counts."""
        out_dir = _kg_dir(sf_dir) + "-wet"

        def thunk():
            docs = _read(sf_dir, "documents",
                         columns=["doc_id", "text", "lang", "source"])
            epoch = datetime.datetime(2025, 3, 28)

            def mk(batch: pa.Table) -> pa.Table:
                rows = []
                for r in batch.to_pylist():
                    did = f"{r['source']}-{r['doc_id']}"
                    rows.append({
                        "url": f"https://crawl.example/{r['source']}/{did}",
                        "warc_ts": epoch,
                        "text": r["text"] or "",
                        "lang": r["lang"],
                    })
                return pa.Table.from_pylist(rows)

            return docs.map_batches(mk, batch_format="pyarrow")

        return write_wet_archives(thunk, out_dir, n_shards=8)

    def pages_crawl_diff(sf_dir: str):
        """Incremental-crawl diff (pipelines/web.crawl_diff): snapshot A
        is every doc under a utm-decorated url; snapshot B re-crawls
        under a DIFFERENT decoration of the same canonical url (the
        match must happen post-canonicalization), drops every 5th doc,
        rewrites every 3rd's text, and adds a new url for every 7th.
        Oracle replays the arithmetic; removed beats changed when both
        rules hit (the doc isn't in B at all)."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def old_pages(batch: pa.Table) -> pa.Table:
            rows = [{"url": f"https://c.example/d/doc-{r['doc_id']}"
                            f"?utm_junk=1",
                     "text": r["text"] or ""}
                    for r in batch.to_pylist()]
            return pa.Table.from_pylist(rows)

        def new_pages(batch: pa.Table) -> pa.Table:
            rows = []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                if i % 5 != 0:  # removed pages never reappear
                    text = (r["text"] or "")
                    if i % 3 == 0:
                        text += " v2"
                    rows.append({
                        "url": f"HTTPS://c.example:443/d/doc-{i}",
                        "text": text,
                    })
                if i % 7 == 0:
                    rows.append({"url": f"https://c.example/new/doc-{i}",
                                 "text": f"new page {i}"})
            return pa.Table.from_pylist(rows)

        old_ds = docs.map_batches(old_pages, batch_format="pyarrow")
        new_ds = docs.map_batches(new_pages, batch_format="pyarrow")
        return crawl_diff(old_ds, new_ds)

    def docs_lang_rebalanced(sf_dir: str):
        """Measure→act mix rebalancing (pipelines/clean.
        rebalance_to_target): downsample per language so the surviving
        corpus is 50% en / 12.5% each of de-fr-es-zh, keeping the
        maximum corpus the targets allow. The oracle recomputes the
        group counts, the binding group, the per-group rates and the
        md5 thresholding entirely in SQL."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "lang"])
        targets = {"en": 0.5, "de": 0.125, "fr": 0.125, "es": 0.125,
                   "zh": 0.125}
        return rebalance_to_target(docs, "lang", targets)

    def wet_pages_roundtrip(sf_dir: str):
        """WARC/WET archive source (sources/warc.py): documents →
        deterministic per-record-gzipped WET shards on disk → streamed
        back through the FileBasedDatasource (bounded blocks off the
        multi-member gzip stream, never the whole archive in heap);
        url/text/lang must round-trip byte-exactly — the oracle replays
        the url construction in SQL. Extends the reference's loose-file
        ingest seam (cli/main.py:115-156) to the archive format a
        100 TB web corpus actually arrives in."""
        pages = read_warc_as_pages(_warc_fixture(sf_dir, "wet"),
                                   records_per_block=256)
        return _as_string(pages, ["url", "text", "lang"])

    def warc_extract_documents(sf_dir: str):
        """WARC ``response`` records (full HTTP/1.1 captures, one gzip
        member per record) → streamed pages → the UNCHANGED extract
        stage; extracted text must be byte-identical to the source text
        column. Proves the whole archive path: gzip-member stream →
        record parse → HTTP split → html→text."""
        pages = read_warc_as_pages(_warc_fixture(sf_dir, "warc"),
                                   records_per_block=256)
        docs = pages.map_batches(
            make_extract_fn(CFG), batch_format="pyarrow", batch_size=64
        )
        return _as_string(docs, ["doc_id", "url", "text", "n_chars"])

    def kg_chunks(sf_dir: str):
        t = _kg_tables(sf_dir)
        return _as_string(
            t["chunks"],
            ["chunk_id", "doc_id", "chunk_index", "text", "n_tokens",
             "prev_chunk_id", "next_chunk_id"],
        )

    def kg_terms(sf_dir: str):
        return _kg_tables(sf_dir)["terms"]

    def kg_term_nodes(sf_dir: str):
        return _kg_tables(sf_dir)["term_nodes"]

    def kg_triples(sf_dir: str):
        return _kg_tables(sf_dir)["triples"]

    def kg_chunk_vectors(sf_dir: str):
        ds = _kg_tables(sf_dir)["chunk_vectors"]
        return ds.select_columns(["chunk_id", "doc_id", "chunk_index",
                                  "point_uuid", "payload_text"])

    def kg_entity_nodes(sf_dir: str):
        ds = _kg_tables(sf_dir)["entity_nodes"]
        return ds.select_columns(["entity_id", "name", "triplet_part",
                                  "mention_count"])

    def kg_doc_stats(sf_dir: str):
        """A3: the reference's per-document counters (chunks_count, n-gram
        counts, triplet counts — cli/main.py:90-113) as one fully
        distributed aggregate: per-batch combiners on both inputs emit
        zero-padded partial rows with a shared schema, the union shuffles
        partials only, and ONE groupby(doc_id) sums everything — no
        ``.to_pandas()``/driver merge of per-document-cardinality data."""
        t = _kg_tables(sf_dir)

        def chunk_partials(b: pa.Table) -> pa.Table:
            agg = (
                b.select(["doc_id", "n_tokens"])
                .group_by("doc_id")
                .aggregate([("doc_id", "count"), ("n_tokens", "sum")])
                .rename_columns(["doc_id", "n_chunks", "n_tokens"])
            )
            return pa.table(
                {
                    "doc_id": agg.column("doc_id"),
                    "n_chunks": pc.cast(agg.column("n_chunks"), pa.int64()),
                    "n_tokens": pc.cast(agg.column("n_tokens"), pa.int64()),
                    "n_triples": pa.nulls(agg.num_rows, pa.int64()).fill_null(0),
                }
            )

        def triple_partials(b: pa.Table) -> pa.Table:
            agg = (
                b.select(["doc_id"])
                .group_by("doc_id")
                .aggregate([("doc_id", "count")])
                .rename_columns(["doc_id", "n_triples"])
            )
            zero = pa.nulls(agg.num_rows, pa.int64()).fill_null(0)
            return pa.table(
                {
                    "doc_id": agg.column("doc_id"),
                    "n_chunks": zero,
                    "n_tokens": zero,
                    "n_triples": pc.cast(agg.column("n_triples"), pa.int64()),
                }
            )

        partials = combine(
            t["chunks"], chunk_partials, batch_size=65536).union(
            combine(t["triples"], triple_partials, batch_size=65536)
        )

        def agg(batch: pa.Table) -> pa.Table:
            return (
                batch.group_by("doc_id")
                .aggregate([("n_chunks", "sum"), ("n_tokens", "sum"),
                            ("n_triples", "sum")])
                .rename_columns(["doc_id", "n_chunks", "n_tokens",
                                 "n_triples"])
            )

        return grouped_apply(partials, ["doc_id"], agg,
                             batch_format="pyarrow").sort("doc_id")

    def kg_edges(sf_dir: str):
        return _kg_tables(sf_dir)["edges"].select_columns(
            ["src_entity_id", "dst_entity_id", "pred", "chunk_id", "weight"]
        )

    def kg_edges_fanout(sf_dir: str):
        """Reference-parity edge multiplicity (core/triplets.py:372-398
        UNWIND×3): every canonical edge fanned out across its endpoints'
        alias sets — the optional materialization for users who need the
        reference's similar-node cross-product edges."""
        t = _kg_tables(sf_dir)
        return edges_alias_fanout(t["edges"], t["entity_nodes"])

    # ---- query layer (O1-O5, J2-J5, A1-A2, M8) ----

    def _chunk_vectors_local(sf_dir: str):
        """In-process chunk_vectors checkpoint for exact vector serving,
        or None (big table → the distributed scan). The gate,
        config.VEC_LOCAL_ROWS, is much tighter than knn_ivf's probe
        gate: this path drags payload_text along (the brute contract
        returns it)."""
        return _kg_local_table(
            sf_dir, "chunk_vectors",
            ["chunk_id", "payload_text", "embedding"], config.VEC_LOCAL_ROWS)

    def kg_vector_topk(sf_dir: str):
        src = _chunk_vectors_local(sf_dir)
        if src is None:
            src = _kg_tables(sf_dir)["chunk_vectors"]
        hits = q.vector_topk(src, "Who founded Hugging Face?",
                             k=10, cfg=CFG).take_all()
        for r in hits:
            r["score"] = sql_round(r["score"], 6)
        return pa.Table.from_pylist(hits) if hits else pa.table(
            {"chunk_id": pa.array([], pa.string()),
             "payload_text": pa.array([], pa.string()),
             "score": pa.array([], pa.float64())})

    def _vec_index_args(sf_dir: str):
        kg_dir = _kg_dir(sf_dir)
        return (os.path.join(kg_dir, "vecindex"), fingerprint(
            os.path.join(kg_dir, "chunk_vectors", "_SUCCESS")))

    def kg_vector_index_build(sf_dir: str):
        """One-time IVF index build over the KG chunk vectors as its own
        entry (same split as kg_term_index_build / kg_term_search, so
        kg_vector_topk_ivf below reports pure serving latency): k-means
        quantizer + the vectors written parquet-partitioned by list
        assignment, fingerprinted on the chunk_vectors checkpoint (stale
        KG → rebuild). Returns the per-list row manifest."""
        t = _kg_tables(sf_dir)
        index_dir, fp = _vec_index_args(sf_dir)
        _, lists_path = ensure_ivf_index(
            index_dir,
            t["chunk_vectors"].select_columns(["chunk_id", "embedding"]),
            dim=CFG.vector_size, nlist=16, id_col="chunk_id",
            emb_col="embedding", fingerprint=fp,
        )

        rows = []
        for d in sorted(glob.glob(os.path.join(lists_path, "list_id=*"))):
            n = sum(pq.read_metadata(f).num_rows
                    for f in glob.glob(os.path.join(d, "*.parquet")))
            rows.append({"list_id": int(d.rsplit("=", 1)[1]), "rows": n})
        return pa.Table.from_pylist(rows)

    def kg_vector_topk_ivf(sf_dir: str):
        """Serving twin of kg_vector_topk (VERDICT r3 item 9): reads
        ONLY the query's nprobe probed list partitions of the persisted
        IVF index (built by kg_vector_index_build; a cold call builds it
        once) instead of brute-scanning the chunk_vectors table. Top-k
        identity vs brute on the fixture is pinned by
        tests/test_query_layer.py; kg_vector_topk (exact brute) stays
        the parity baseline.

        Warm serving never touches the KG pipeline (VERDICT r4 task 3):
        the chunk_vectors checkpoint is located by os.stat alone, and
        the Dataset thunk is only resolved if the index must be built
        (the fingerprint already pins staleness against the
        checkpoint)."""
        if not os.path.exists(os.path.join(
                _kg_dir(sf_dir), "chunk_vectors", "_SUCCESS")):
            _kg_tables(sf_dir)  # cold: build the KG checkpoints once
        index_dir, fp = _vec_index_args(sf_dir)
        hits = q.vector_topk_ivf(
            lambda: _kg_tables(sf_dir)["chunk_vectors"],
            "Who founded Hugging Face?",
            index_dir=index_dir, fingerprint=fp, k=10, cfg=CFG,
        ).take_all()
        return pa.table({
            "chunk_id": pa.array([r["chunk_id"] for r in hits],
                                 pa.string()),
            "score": pa.array([sql_round(r["score"], 6) for r in hits],
                              pa.float64()),
        })

    def _term_index(sf_dir: str):
        """Serving-path index (built lazily once per KG dir): terms
        re-materialized hash-partitioned + sorted by term with
        precomputed BM25 postings, so a query reads only its terms'
        bucket files. Fingerprinted on the terms checkpoint (stale KG →
        rebuild). Warm loads never touch the KG pipeline: the terms
        Dataset and N-for-idf ride as thunks resolved only on a build
        (the ensure_ivf_index contract — was a ~0.7 s KG resume on
        EVERY serving call)."""
        if not os.path.exists(os.path.join(
                _kg_dir(sf_dir), "terms", "_SUCCESS")):
            _kg_tables(sf_dir)  # cold: build the KG checkpoints once
        return ensure_term_index(
            _kg_dir(sf_dir),
            lambda: _kg_tables(sf_dir)["terms"],
            total_chunks=lambda: _kg_tables(sf_dir)["chunks"].count(),
        )

    def kg_term_index_build(sf_dir: str):
        """The one-time index build as its own entry (VERDICT r2 task 6):
        returns the per-bucket build manifest, so kg_term_search below
        reports pure serving latency."""
        return _term_index(sf_dir).manifest()

    def kg_term_search(sf_dir: str):
        return q.term_search(_term_index(sf_dir), "galaxy patrol research",
                             k=10, cfg=CFG)

    def kg_term_search_all(sf_dir: str):
        """Boolean AND retrieval (pipelines/query.term_search_all):
        only chunks containing EVERY query unigram survive, ranked by
        summed BM25 — the inverted-index intersection primitive the
        OR-semantics kg_term_search deliberately lacks. Same pruned
        bucket-file read + small-match in-process fast path. Rows-only
        (the BM25 statistic has no SQL oracle here); AND-coverage
        semantics pinned by tests against an independent full-scan
        python replay."""
        return q.term_search_all(_term_index(sf_dir),
                                 "galaxy patrol research", k=10, cfg=CFG)

    def kg_hybrid_retrieve(sf_dir: str):
        src = _chunk_vectors_local(sf_dir)
        if src is None:
            src = _kg_tables(sf_dir)["chunk_vectors"]
        rows = q.hybrid_retrieve(src, _term_index(sf_dir),
                                 "Hugging Face company", k=10, cfg=CFG)
        for r in rows:
            r["score"] = sql_round(r["score"], 6)
        return pa.Table.from_pylist(rows)

    def kg_hybrid_retrieve_ivf(sf_dir: str):
        """Serving twin of kg_hybrid_retrieve: the vector leg comes from
        the persisted IVF index (nprobe probed partitions only — the
        reference's Qdrant leg is itself HNSW-approximate, so the ANN
        composition is the faithful serving shape; kg_hybrid_retrieve's
        exact brute leg stays the parity baseline), the graph leg from
        the by-term index. Rows-only."""
        if not os.path.exists(os.path.join(
                _kg_dir(sf_dir), "chunk_vectors", "_SUCCESS")):
            _kg_tables(sf_dir)
        index_dir, fp = _vec_index_args(sf_dir)
        vec = q.vector_topk_ivf(
            lambda: _kg_tables(sf_dir)["chunk_vectors"],
            "Hugging Face company",
            index_dir=index_dir, fingerprint=fp, k=10, cfg=CFG,
        ).take_all()
        rows = q.hybrid_retrieve(None, _term_index(sf_dir),
                                 "Hugging Face company", k=10, cfg=CFG,
                                 vec_hits=vec)
        for r in rows:
            r["score"] = sql_round(r["score"], 6)
        return pa.Table.from_pylist(rows)

    def kg_context_windows(sf_dir: str):
        hits = q.graph_retrieve(_term_index(sf_dir), "mecha designs", k=5,
                                cfg=CFG)
        chunks = _chunks_meta_local(sf_dir)
        if chunks is None:
            chunks = _kg_tables(sf_dir)["chunks"]
        rows = q.with_context(chunks, hits, context_size=1)
        return pa.Table.from_pylist(
            [{k: r[k] for k in ("chunk_id", "doc_id", "chunk_index",
                                "is_match")} for r in rows]
        )

    def _chunks_meta_local(sf_dir: str):
        """In-process (chunk_id, doc_id, chunk_index) projection of the
        chunks checkpoint — no text column, so even a ~1 M-chunk corpus
        is a few-MB read. None above the row gate."""
        return _kg_local_table(
            sf_dir, "chunks", ["chunk_id", "doc_id", "chunk_index"],
            config.CHUNKMETA_LOCAL_ROWS)

    def kg_document_chain(sf_dir: str):
        """Chain walk (reference core/retrieval.py:419-467): ±2 chunks
        around a deterministic center (smallest chunk_id with index 1 —
        i.e. some multi-chunk document's second chunk). The center pick
        is a Min aggregate, not a global sort (VERDICT r2 finding 5).
        Small corpora serve in-process off the text-free chunk-meta
        projection (same Min + window semantics, zero Dataset
        executions)."""
        chunks = _chunks_meta_local(sf_dir)
        if chunks is not None:
            at1 = chunks.filter(pc.equal(chunks.column("chunk_index"), 1))
            pool = at1 if at1.num_rows else chunks
            center_id = (pc.min(pool.column("chunk_id")).as_py()
                         if pool.num_rows else None)
        else:
            chunks = _kg_tables(sf_dir)["chunks"]
            center_id = chunks.filter(expr="chunk_index == 1").aggregate(
                Min("chunk_id")
            )["min(chunk_id)"]
            if center_id is None:  # corpus of single-chunk docs
                center_id = chunks.aggregate(Min("chunk_id"))["min(chunk_id)"]
        rows = q.get_document_chain(chunks, center_id,
                                    max_chunks=2) if center_id else []
        return pa.Table.from_pylist(
            [{k: r[k] for k in ("chunk_id", "doc_id", "chunk_index")}
             for r in rows]
        )

    def kg_relationship_search(sf_dir: str):
        src = _kg_local_table(
            sf_dir, "edges",
            ["src_entity_id", "dst_entity_id", "pred", "chunk_id", "weight"],
            config.CHUNKMETA_LOCAL_ROWS)
        if src is None:
            src = _kg_tables(sf_dir)["edges"]
        rows = q.relationship_search(src, "Hugging Face", None, k=10)
        return pa.Table.from_pylist(rows) if rows else pa.table(
            {"src_entity_id": pa.array([], pa.string())})

    # ---- training-data operators over the raw testdata tables ----

    def ws_token_counts(sf_dir: str):
        return ts.token_counts(_read(sf_dir, "documents")).select_columns(
            ["doc_id", "ws_tokens"]
        )

    def token_counts_full(sf_dir: str):
        return ts.token_counts(_read(sf_dir, "documents"))

    def language_id(sf_dir: str):
        return ts.language_id(_read(sf_dir, "documents"))

    def quality_scores(sf_dir: str):
        ds = ts.quality(_read(sf_dir, "documents"))

        def rnd(batch: pa.Table) -> pa.Table:
            out = {}
            for name in batch.column_names:
                col = batch.column(name)
                if pa.types.is_floating(col.type):
                    # ties away from zero — matches DuckDB round() so the
                    # SQL oracle hashes identically
                    col = sql_round(col, 6)
                out[name] = col
            return pa.table(out)

        return ds.map_batches(rnd, batch_format="pyarrow")

    def _quality_scored(sf_dir: str):
        """(score, pos) per document: the composite quality score
        (rounded 6, the quality_scores° contract) against the native
        lang == 'en' label — the scored dataset the evaluation
        operators grade."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

        def fn(b: pa.Table) -> pa.Table:
            vals = [qrow(t)["quality"]
                    for t in b.column("text").to_pylist()]
            score = sql_round(pa.array(vals, pa.float64()), 6)
            pos = pc.cast(pc.equal(b.column("lang"), "en"), pa.int64())
            return pa.table({"score": score, "pos": pos})

        return docs.map_batches(fn, batch_format="pyarrow",
                                batch_size=8192)

    def docs_quality_auc(sf_dir: str):
        """ROC-AUC of the composite quality score ranking the
        lang == 'en' label (pipelines/evalmetrics.ranking_auc):
        Mann-Whitney with average-rank ties over 3-digit-quantized
        scores — does the quality filter actually order English docs
        higher? Integer-exact numerator, single float division, so
        the SQL oracle (same formula over the same rounded scores)
        hashes identically."""
        return ranking_auc(_quality_scored(sf_dir))

    def docs_quality_calibration(sf_dir: str):
        """Reliability table of the quality score vs the lang == 'en'
        label (pipelines/evalmetrics.calibration_bins): 10 fixed-width
        score bins with count, positives, and positive fraction — the
        calibration curve behind a quality-threshold choice."""
        return calibration_bins(_quality_scored(sf_dir), bins=10)

    def docs_token_windows(sf_dir: str):
        """Long-document → training-context windows
        (pipelines/clean.token_windows): 32-token windows advancing by
        24, byte-exact via a bare single-space split so the
        string_split/list_slice SQL oracle reproduces every window
        text exactly. The splitting half of the packing story
        (docs_packed_sequences° packs short docs up; this splits long
        docs down)."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return token_windows(docs, window=32, stride=24).sort(
            ["doc_id", "window_idx"])

    def docs_length_buckets(sf_dir: str):
        """Power-of-two length-bucket / padding-waste audit
        (pipelines/clean.length_buckets): the cost table a
        length-grouped batching policy minimizes. Int64 end to end;
        the oracle replays the bucket assignment with a powers-table
        min-join (no float log in SQL)."""
        return length_buckets(_read(sf_dir, "documents"))

    def docs_quality_filtered(sf_dir: str):
        """Percentile quality gating: keep documents whose quality score
        is at or above the corpus's exact 25th percentile, computed by
        the distributed selection operator (iterative histogram
        bracketing — no global sort; relational.exact_quantile) over a
        materialized narrow (doc_id, quality) table. quantile_disc
        semantics match DuckDB exactly."""
        ds = ts.quality(_read(sf_dir, "documents"))

        def slim(batch: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "quality": sql_round(batch.column("quality"), 6),
            })

        narrow = ds.map_batches(slim, batch_format="pyarrow").materialize()
        thr = exact_quantile(narrow, "quality", 0.25)
        return narrow.filter(expr=f"quality >= {thr!r}")

    def docs_length_trimmed(sf_dir: str):
        """Percentile length trim (p5–p95 of whitespace token count):
        exact quantile_cont thresholds from a bounded count histogram —
        see clean.length_trim for the no-values-exchange scale story."""
        counts = ts.token_counts(_read(sf_dir, "documents")).select_columns(
            ["doc_id", "ws_tokens"]
        )
        return length_trim(counts, lo=0.05, hi=0.95)

    def doc_fingerprints(sf_dir: str):
        """SQL-expressible fingerprint (md5 of ws-normalized text) — the
        oracled variant (VERDICT r2 task 7)."""
        return ts.md5_fingerprints(_read(sf_dir, "documents"))

    def doc_fingerprints_rolling(sf_dir: str):
        """Order-sensitive rolling-hash fingerprint (blake2b window XOR;
        not SQL-expressible — pinned by unit tests)."""
        return ts.fingerprints(_read(sf_dir, "documents"))

    def exact_dedup_docs(sf_dir: str):
        return dd.exact_dedup(_read(sf_dir, "documents"))

    def minhash_lsh_pairs(sf_dir: str):
        return dd.minhash_lsh_pairs(_read(sf_dir, "documents"), threshold=0.5)

    def simhash_dup_pairs(sf_dir: str):
        return dd.simhash_pairs(_read(sf_dir, "documents"), max_hamming=3)

    def _truth_pairs(sf_dir: str):
        """Exact-Jaccard-verified near-dup pair table (char-3-gram
        Jaccard ≥0.6 over MinHash-LSH candidates), CHECKPOINTED under
        the sf cache dir like the KG tables (VERDICT r3 next-step 4):
        `ngram_jaccard_dups` publishes it once per corpus and
        `simhash_vs_jaccard_eval` reuses it instead of recomputing the
        full LSH + verify chain inside the same bench run."""

        def compute():
            docs = _read(sf_dir, "documents")
            cand = dd.minhash_lsh_pairs(docs, threshold=0.5).select_columns(
                ["doc_a", "doc_b"]
            )
            return dd.ngram_jaccard_verify(docs, cand, n=3, threshold=0.6)

        return checkpointed(_kg_dir(sf_dir), "truth-pairs-n3-t060-lsh050",
                            compute)

    def ngram_jaccard_dups(sf_dir: str):
        """LSH candidates verified by exact char-n-gram Jaccard; the
        candidate-pair set stays a Dataset end-to-end (co-partitioned
        pairs ⋈ texts exchange — no driver pair list). Publishes the
        verified-truth checkpoint `simhash_vs_jaccard_eval` reuses."""
        return _truth_pairs(sf_dir)

    def _gram_pairs(sf_dir: str):
        """``doc_a < doc_b, c, na, nb`` over the first 200 documents:
        ``c`` distinct char 3-grams the pair shares, ``na`` / ``nb``
        each doc's distinct 3-grams. Gram-keyed exchange, then a
        (doc_a, doc_b) one — |A∩B| is the per-(a,b) count of shared
        grams, so no n² driver loop; the per-doc sizes join the summed
        pairs by broadcast lookup. Skew contract: a gram shared by d
        docs contributes d(d-1)/2 pair rows in its partition — bounded
        here by the 200-doc subset (the unbounded variant needs
        stop-gram pruning, the same contract as the LSH bucket
        caps)."""
        docs = (_read(sf_dir, "documents", columns=["doc_id", "text"])
                .sort("doc_id").limit(200))

        def grams(batch: pa.Table) -> pa.Table:
            ids, out = [], []
            # 200 docs total — not a hot path; per-doc set build is the
            # natural shape for distinct char n-grams
            for did, txt in zip(batch.column("doc_id").to_pylist(),
                                batch.column("text").to_pylist()):
                t = (txt or "").lower()
                gs = {t[i:i + 3] for i in range(max(len(t) - 2, 0))}
                ids.extend([did] * len(gs))
                out.extend(gs)
            return pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "gram": pa.array(out, pa.string())})

        gram_ds = docs.map_batches(grams, batch_format="pyarrow")
        sizes = _table(gram_ds.groupby("doc_id").count())

        def pair_counts(pdf) -> Any:
            j = pdf.merge(pdf, on="gram")
            j = j[j["doc_id_x"] < j["doc_id_y"]]
            return (j.groupby(["doc_id_x", "doc_id_y"], sort=False)
                    .size().reset_index(name="c")
                    .rename(columns={"doc_id_x": "doc_a",
                                     "doc_id_y": "doc_b"}))

        def total(pdf) -> Any:
            return (pdf.groupby(["doc_a", "doc_b"], sort=False)["c"]
                    .sum().reset_index())

        pairs = grouped_apply(
            grouped_apply(gram_ds, ["gram"], pair_counts,
                          batch_format="pandas"),
            ["doc_a", "doc_b"], total, batch_format="pandas")
        for side, n in (("doc_a", "na"), ("doc_b", "nb")):
            pairs = broadcast_lookup(pairs, sizes.rename_columns(
                ["doc_id", n]), side, "doc_id", [n])
        return pairs

    def _gram_pair_apply(sf_dir: str, measure: Callable, threshold: float,
                         out_col: str):
        """``measure(c, na, nb)`` per pair of ``_gram_pairs``; pairs at
        or above ``threshold`` (on the UNROUNDED value, as SQL) keep it
        rounded to 6 places."""

        def finish(b: pa.Table) -> pa.Table:
            m = measure(*(b.column(c).to_numpy() for c in ("c", "na", "nb")))
            return b.select(["doc_a", "doc_b"]).append_column(
                out_col, pa.array(sql_round(m, 6))).filter(pa.array(m >= threshold))

        return (_gram_pairs(sf_dir).map_batches(finish, batch_format="pyarrow")
                .sort(["doc_a", "doc_b"]))

    def docs_jaccard_exact_pairs(sf_dir: str):
        """EXACT all-pairs char-3-gram Jaccard ≥ 0.5 — the recall-1.0
        text baseline next to the LSH detectors (the text analogue of
        exact_cosine_pairs), SQL-oracled; pairs from ``_gram_pairs``."""
        return _gram_pair_apply(sf_dir, lambda c, na, nb: c / (na + nb - c),
                                0.5, "jaccard")

    def docs_containment_pairs(sf_dir: str):
        """EXACT all-pairs char-3-gram CONTAINMENT ≥ 0.8 — the
        asymmetric near-dup (Broder 1997's containment next to
        resemblance): |A∩B| / min(|A|, |B|) catches quote-inclusion
        and page-wrapping that symmetric Jaccard misses (a small doc
        fully quoted inside a big one scores ~2·|A|/(|A|+|B|) on
        Jaccard but 1.0 on containment).  Same bounded-200-doc oracle
        baseline + gram-keyed exchange as docs_jaccard_exact_pairs;
        the production path pairs a MinHash candidate generator with
        this as the verifier."""
        return _gram_pair_apply(
            sf_dir, lambda c, na, nb: c / np.minimum(na, nb), 0.8,
            "containment")

    def embedding_cosine_exact_pairs(sf_dir: str):
        """EXACT all-pairs cosine ≥ 0.4 over the embeddings table — the
        recall-1.0 baseline next to embedding_near_dups (whose LSH
        bucketing trades recall for work), now SQL-oracled. Triangle-
        blocked all-pairs exchange (see similarity.exact_cosine_pairs
        for the scale contract: exact all-pairs is the verifier you run
        AFTER a candidate generator at corpus scale)."""
        emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        return sim.exact_cosine_pairs(emb, threshold=0.4,
                                      num_blocks=8).sort(["id_a", "id_b"])

    def simhash_vs_jaccard_eval(sf_dir: str):
        """Detector evaluation (the threshold/band tuning loop as one
        query): precision/recall/F1 of the CHEAP detector (SimHash
        hamming ≤3) against the expensive verified truth (exact
        char-3-gram Jaccard ≥0.6 over LSH candidates) — pair sets stay
        Datasets, canonicalization is map-side, the hit count is one
        INTERSECT exchange (`pipelines/dedup.dedup_eval`). The truth
        table resumes from `ngram_jaccard_dups`'s checkpoint, so this
        query costs the SimHash detector + one INTERSECT."""
        docs = _read(sf_dir, "documents")
        pred = dd.simhash_pairs(docs, max_hamming=3).select_columns(
            ["doc_a", "doc_b"])
        true = _truth_pairs(sf_dir).select_columns(["doc_a", "doc_b"])
        return dd.dedup_eval(pred, true)

    def dup_clusters(sf_dir: str):
        """Near-dup pairs → duplicate clusters (distributed min-label
        connected components): the training-data step after LSH pair
        detection — each cluster keeps its smallest doc as the
        representative."""
        docs = _read(sf_dir, "documents")
        pairs = dd.minhash_lsh_pairs(docs, threshold=0.5)
        return dd.connected_components(pairs)

    def _chain_pairs(sf_dir: str):
        """Deterministic SQL-replayable pair graph (oracle scaffolding
        for the CC family): docs chain consecutively within
        (n_chars % 50) buckets — chains force multi-round min-label
        propagation (the worst case for the CC loop), and the expected
        cluster of every chained node is its bucket's min doc_id,
        which DuckDB computes directly."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

        def bucketize(b: pa.Table) -> pa.Table:
            n = b.column("n_chars").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "bucket": pa.array((n % 50).astype("int64")),
                    "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                }
            )

        def chain(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.sort_values(["bucket", "doc_id"])
            nxt = pdf.groupby("bucket")["doc_id"].shift(-1)
            m = nxt.notna()
            return pd.DataFrame(
                {
                    "doc_a": pdf["doc_id"][m].to_numpy(),
                    "doc_b": nxt[m].astype("int64").to_numpy(),
                }
            )

        return grouped_apply(
            docs.map_batches(bucketize, batch_format="pyarrow",
                             batch_size=65536),
            ["bucket"], chain,
            batch_format="pandas",
        )

    def dup_clusters_chain(sf_dir: str):
        """Distributed connected components against a hard SQL oracle
        over the deterministic chain graph (see _chain_pairs)."""
        return dd.connected_components(_chain_pairs(sf_dir))

    def docs_cluster_keep_best(sf_dir: str):
        """Near-dup cluster representative selection by QUALITY
        (pipelines/dedup.cluster_keep_best — the RefinedWeb/FineWeb
        production decision: keep the best doc per duplicate cluster,
        not an arbitrary one) over the deterministic chain graph with
        a synthetic quality = (doc_id*37) % 101: chained buckets keep
        their max-quality member (ties min doc_id), singleton buckets
        survive as their own cluster. The oracle recomputes clusters,
        quality and the argmax window directly."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def add_q(b: pa.Table) -> pa.Table:
            d = pc.cast(b.column("doc_id"), pa.int64()).to_numpy(
                zero_copy_only=False)
            return pa.table({
                "doc_id": pa.array(d),
                "quality": pa.array(((d * 37) % 101).astype("float64")),
            })

        qdocs = docs.map_batches(add_q, batch_format="pyarrow")
        return dd.cluster_keep_best(qdocs, _chain_pairs(sf_dir))

    def _query_vec(sf_dir: str):
        """Fetch the vec_id==0 query vector via a pruned expression-filter
        read (row-group stats prune; never a per-row Python lambda —
        VERDICT r2 finding 4)."""
        return ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
            filter=(pc.field("vec_id") == 0),
        ).take(1)[0]["embedding"]

    def embedding_knn_top10(sf_dir: str):
        emb = _read(sf_dir, "embeddings")
        qv = _query_vec(sf_dir)
        hits = sim.knn_brute(emb, qv, k=10).take_all()
        return pa.table(
            {
                "vec_id": pa.array([r["vec_id"] for r in hits], pa.int64()),
                "score": pa.array([sql_round(r["score"], 6) for r in hits],
                                  pa.float64()),
            }
        )

    def embedding_knn_pq(sf_dir: str):
        """Product-quantization ANN (Jégou ADC): codebooks trained in
        streaming Lloyd passes, corpus encoded to m=8 bytes/vector
        (384× compression of the 768-d float32), scan = m LUT gathers
        per vector with a per-batch top-k combiner. The third ANN scale
        path next to LSH and IVF; recall-vs-brute pinned by
        tests/test_pq.py."""
        emb = _read(sf_dir, "embeddings")
        qv = _query_vec(sf_dir)
        index_dir, fp = _emb_index(sf_dir)
        books = sim.ensure_pq_codebooks(
            index_dir, emb, dim=len(qv), m=8, nbits=6, iters=3,
            fingerprint=fp,
        )
        hits = sim.knn_pq(emb, qv, dim=len(qv), k=10, m=8, nbits=6,
                          iters=3, codebooks=books).take_all()
        return pa.table({
            "vec_id": pa.array([r["vec_id"] for r in hits], pa.int64()),
            "adc_dist": pa.array([sql_round(r["adc_dist"], 6) for r in hits],
                                 pa.float64()),
        })

    def embedding_knn_ivfpq(sf_dir: str):
        """IVF-PQ serving ANN (the FAISS-style billion-vector layout):
        coarse lists + PQ codebooks trained once, m-byte codes
        persisted PARTITIONED BY LIST — a query reads only its nprobe
        probed partitions and ADC-scans compressed codes. Sublinear
        reads × 384× candidate compression."""
        emb = _read(sf_dir, "embeddings")
        qv = _query_vec(sf_dir)
        index_dir, fp = _emb_index(sf_dir)
        hits = sim.knn_ivfpq(
            emb, qv, dim=len(qv), k=10, nlist=16, nprobe=4, m=8,
            nbits=6, iters=3, index_dir=index_dir, fingerprint=fp,
        ).take_all()
        return pa.table({
            "vec_id": pa.array([r["vec_id"] for r in hits], pa.int64()),
            "adc_dist": pa.array([sql_round(r["adc_dist"], 6) for r in hits],
                                 pa.float64()),
        })

    def embedding_knn_ivfpq_rerank(sf_dir: str):
        """IVF-PQ + exact re-rank (FAISS IndexRefineFlat pattern): the
        ADC scan nominates 4×k candidates from compressed codes, then
        only those rows are re-read in full precision from the flat IVF
        index (same deterministic quantizer → candidates provably live
        in probed partitions) and rescored exactly. Scores are TRUE
        cosines, so any nominee in the exact top-k lands with its exact
        score."""
        emb = _read(sf_dir, "embeddings")
        qv = _query_vec(sf_dir)
        index_dir, fp = _emb_index(sf_dir)
        hits = sim.knn_ivfpq_rerank(
            emb, qv, dim=len(qv), k=10, rerank_factor=4, nlist=16,
            nprobe=4, m=8, nbits=6, iters=3, index_dir=index_dir,
            fingerprint=fp,
        ).take_all()
        return pa.table({
            "vec_id": pa.array([r["vec_id"] for r in hits], pa.int64()),
            "score": pa.array([sql_round(r["score"], 6) for r in hits],
                              pa.float64()),
        })

    def embedding_ann_recall_eval(sf_dir: str):
        """Recall@10 of the ANN detectors (IVF nprobe/nlist list
        probing, LSH multi-probe) against the exact broadcast-join
        truth — the ANN family's tuning-loop query (the
        simhash_vs_jaccard_eval pattern): ONE corpus pass scores truth
        and both detectors for 20 queries via a broadcast query matrix
        and per-batch candidate masks, a per-(method, query) top-k
        combiner, and one exchange. Rows-only (k-means quantizer — not
        SQL-expressible); the truth side's exactness is pinned by the
        °-oracled embedding_knn_join."""
        emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        qv = _query_vec(sf_dir)
        return sim.ann_recall_eval(emb, dim=len(qv), k=10, n_queries=20,
                                   nlist=16, nprobe=4)

    def embedding_knn_join(sf_dir: str):
        """Broadcast kNN join: vectors 0-4 are the query side, the rest
        the corpus; exact cosine top-3 per query with ascending-id tie
        break. Oracled by a DuckDB cross join over DOUBLE-cast lists."""
        probe = ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
            filter=(pc.field("vec_id") < 5),
        ).take_all()
        qids = [r["vec_id"] for r in probe]
        qmat = np.stack([np.asarray(r["embedding"]) for r in probe])
        corpus = ray.data.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
            filter=(pc.field("vec_id") >= 5),
        )
        return sim.knn_join(corpus, qids, qmat, k=3)

    def embedding_knn_lsh(sf_dir: str):
        emb = _read(sf_dir, "embeddings")
        qv = _query_vec(sf_dir)
        hits = sim.knn_lsh(emb, qv, dim=len(qv), k=10).take_all()
        return pa.table(
            {
                "vec_id": pa.array([r["vec_id"] for r in hits], pa.int64()),
                "score": pa.array([sql_round(r["score"], 6) for r in hits],
                                  pa.float64()),
            }
        )

    def embedding_knn_ivf(sf_dir: str):
        """Serving-mode IVF: the k-means quantizer persists under a
        per-sf index dir (``_emb_index``) — queries load centroids +
        probe; no per-query training (VERDICT r2 finding 2)."""
        emb = _read(sf_dir, "embeddings")
        qv = _query_vec(sf_dir)
        index_dir, fp = _emb_index(sf_dir)
        hits = sim.knn_ivf(emb, qv, dim=len(qv), k=10, index_dir=index_dir,
                           fingerprint=fp).take_all()
        return pa.table(
            {
                "vec_id": pa.array([r["vec_id"] for r in hits], pa.int64()),
                "score": pa.array([sql_round(r["score"], 6) for r in hits],
                                  pa.float64()),
            }
        )

    def embedding_near_dups(sf_dir: str):
        emb = _read(sf_dir, "embeddings")
        dim = len(emb.take(1)[0]["embedding"])
        return sim.cosine_near_dup_pairs(emb, dim=dim, threshold=0.95)

    def embedding_label_counts(sf_dir: str):
        return (
            _read(sf_dir, "embeddings").groupby("label")
            .aggregate(Count(alias_name="n"))
        )

    def decode_image_features(sf_dir: str):
        media = synth_media_dataset(200, "image")
        return decode_images(media, feature_dim=64).select_columns(
            ["media_id", "width", "height", "n_bytes"]
        )

    def decode_audio_frames(sf_dir: str):
        media = synth_media_dataset(200, "audio")
        return decode_audio(media, num_frames=16).select_columns(
            ["media_id", "sample_rate", "n_samples", "n_bytes"]
        )

    def sample_video_frames_q(sf_dir: str):
        media = synth_media_dataset(200, "video")
        return sample_video_frames(media, num_frames=8).select_columns(
            ["media_id", "width", "height", "n_frames_total", "n_bytes"]
        )

    def video_frames_real_containers(sf_dir: str):
        """Frame-sampling over REAL video containers (VERDICT r3 item
        5): deterministic AVI (RIFF/BI_RGB), MJPEG-AVI (baseline JPEG
        frames, functions/jpeg.py — VERDICT r4 task 5) and MP4 ('raw '
        samples) payloads built from the documents table's bytes,
        demuxed by the vendored container walkers and decoded to real
        pixels by the actor pool. Rows-only check; planted-frame pixel
        exactness is pinned by tests/test_files_media_refetch.py."""
        rows = _read(sf_dir, "documents", columns=["doc_id", "text"]) \
            .sort("doc_id").limit(24).take_all()
        items = []
        for r in rows:
            seed = np.frombuffer(
                hashlib.blake2b(r["text"][:256].encode(),
                                digest_size=8).digest(), np.uint8)
            rng = np.random.RandomState(seed.astype(np.uint32))
            frames = [rng.randint(0, 256, (12, 16, 3), dtype=np.uint8)
                      for _ in range(6)]
            pick = int(r["doc_id"]) % 3
            if pick == 0:
                payload = encode_avi(frames, fps=6)
            elif pick == 1:
                payload = encode_avi(frames, fps=6, codec="mjpg")
            else:
                payload = encode_mp4_raw(frames, fps=6)
            items.append({"media_id": f"vid-{int(r['doc_id']):05d}",
                          "payload": payload})
        media = ray.data.from_items(items)
        return sample_video_frames(media, num_frames=4).select_columns(
            ["media_id", "width", "height", "n_frames_total", "n_bytes"]
        ).sort("media_id")

    def images_resized(sf_dir: str):
        """Actor-pool image resize — real PNG payloads in AND out
        (vendored codec, exact area-average block means); the
        thumbnailing step of a multimodal pipeline. Rows-only check;
        pixel exactness pinned by tests/test_resize.py."""

        def gen(batch: pa.Table) -> pa.Table:
            rows = []
            for i in batch.column("id").to_pylist():
                rng = np.random.default_rng(int(i))
                img = rng.integers(0, 256, (48, 64), dtype=np.uint8)
                rows.append({
                    "media_id": f"img-{int(i):07d}",
                    "kind": "image",
                    "payload": encode_png(img),
                    "mime": "image/png",
                    "source_url": f"https://fixture.test/img/{int(i)}",
                })
            return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

        media = ray.data.range(200).map_batches(
            gen, batch_format="pyarrow", batch_size=64)
        return resize_images(media, out_h=16, out_w=16).select_columns(
            ["media_id", "width", "height", "n_bytes"])

    def images_augmented(sf_dir: str):
        """Deterministic per-image augmentation (flip / k·90° rotation
        / hashed crop, chosen by CRC32 of media_id — no RNG state, so
        the augmented snapshot is reproducible and resumable) — real
        PNG payloads in AND out via the vendored codec.  Rows-only;
        pixel semantics pinned by tests/test_augment.py against a
        pure-numpy reference."""

        def gen(batch: pa.Table) -> pa.Table:
            rows = []
            for i in batch.column("id").to_pylist():
                rng = np.random.default_rng(int(i))
                img = rng.integers(0, 256, (48, 64), dtype=np.uint8)
                rows.append({
                    "media_id": f"img-{int(i):07d}",
                    "kind": "image",
                    "payload": encode_png(img),
                    "mime": "image/png",
                    "source_url": f"https://fixture.test/img/{int(i)}",
                })
            return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

        media = ray.data.range(200).map_batches(
            gen, batch_format="pyarrow", batch_size=64)
        return augment_images(media, crop_margin=8).select_columns(
            ["media_id", "aug", "width", "height", "n_bytes"])

    def images_phash_dups(sf_dir: str):
        """Image near-dup detection — REAL PNG payloads (vendored
        encoder) → actor-pool perceptual dHash → the same band-bucket +
        XOR-popcount pair exchange text SimHash uses
        (`pipelines/dedup.hamming_pairs`). The corpus plants one noisy
        re-encode per base image (ids 1000+i duplicate i), so expected
        pairs are known; rows-only driver check, exactness pinned by
        tests/test_phash.py."""
        n_base = 150

        def gen(batch: pa.Table) -> pa.Table:
            rows = []
            for i in batch.column("id").to_pylist():
                i = int(i)
                base = i % n_base
                rng = np.random.default_rng(base)
                img = rng.integers(0, 256, (48, 64), dtype=np.uint8)
                if i >= n_base:  # noisy duplicate of base image
                    noise = np.random.default_rng(10_000 + i)
                    mask = noise.random((48, 64)) < 0.01
                    img = img.copy()
                    img[mask] = noise.integers(0, 256, int(mask.sum()))
                mid = i if i < n_base else 1000 + base
                rows.append({
                    "media_id": f"img-{mid:07d}",
                    "kind": "image",
                    "payload": encode_png(img),
                    "mime": "image/png",
                    "source_url": f"https://fixture.test/img/{mid}",
                })
            return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

        media = ray.data.range(n_base + 40).map_batches(
            gen, batch_format="pyarrow", batch_size=64)
        hashes = image_phash(media).map_batches(
            lambda b: pa.table({
                "media_num": pc.cast(
                    pc.utf8_slice_codeunits(
                        b.column("media_id"), 4, 99), pa.int64()),
                "phash": b.column("phash"),
            }),
            batch_format="pyarrow",
        )
        return hamming_pairs(hashes, max_hamming=6, id_col="media_num",
                             hash_col="phash")

    def audio_dup_pairs(sf_dir: str):
        """Audio near-dup detection — real PCM16 WAV payloads (vendored
        codec) → actor-pool energy-envelope fingerprint (gain-
        invariant, `functions/media.audio_hash64`) → the shared
        hamming-pair exchange. Planted dups: ids 1000+i are gain-
        changed noisy re-encodes of clip i; recall/precision pinned by
        tests/test_audio_fp.py."""
        n_base = 120

        def clip(seed: int) -> np.ndarray:
            rng = np.random.default_rng(seed)
            env = np.abs(np.cumsum(rng.normal(size=8000)))
            env = env / env.max()
            return env * rng.normal(size=8000) * 0.3

        def gen(batch: pa.Table) -> pa.Table:
            rows = []
            for i in batch.column("id").to_pylist():
                i = int(i)
                base = i % n_base
                x = clip(base)
                if i >= n_base:
                    noise = np.random.default_rng(10_000 + i)
                    x = x * 0.7 + noise.normal(size=x.size) * 0.002
                mid = base if i < n_base else 1000 + base
                rows.append({
                    "media_id": f"aud-{mid:07d}",
                    "kind": "audio",
                    "payload": encode_wav(16000, x),
                    "mime": "audio/wav",
                    "source_url": f"https://fixture.test/aud/{mid}",
                })
            return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

        media = ray.data.range(n_base + 30).map_batches(
            gen, batch_format="pyarrow", batch_size=64)
        hashes = audio_fingerprints(media).map_batches(
            lambda b: pa.table({
                "num": pc.cast(pc.utf8_slice_codeunits(
                    b.column("media_id"), 4, 99), pa.int64()),
                "ahash": b.column("ahash"),
            }),
            batch_format="pyarrow",
        )
        return hamming_pairs(hashes, max_hamming=6, id_col="num",
                             hash_col="ahash")

    def audio_tone_features(sf_dir: str):
        """Hermetic audio feature extraction — real PCM16 WAV payloads
        (vendored codec), each a planted sine tone + noise → actor-pool
        numpy-STFT stage emitting banded log-power spectra, dominant
        and centroid frequency. Tone recovery pinned by
        tests/test_audio_spectrogram.py."""

        def gen(batch: pa.Table) -> pa.Table:
            rows = []
            for i in batch.column("id").to_pylist():
                i = int(i)
                hz = 200.0 + 37.0 * (i % 40)
                t = np.arange(8000) / 16000.0
                rng = np.random.default_rng(i)
                x = (0.5 * np.sin(2 * np.pi * hz * t)
                     + rng.normal(size=t.size) * 0.01)
                rows.append({
                    "media_id": f"tone-{i:05d}",
                    "kind": "audio",
                    "payload": encode_wav(16000, x),
                    "mime": "audio/wav",
                    "source_url": f"https://fixture.test/tone/{i}",
                })
            return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)

        media = ray.data.range(160).map_batches(
            gen, batch_format="pyarrow", batch_size=64)
        return audio_spectrograms(media).select_columns(
            ["media_id", "sample_rate", "dominant_hz", "centroid_hz"])

    def events_users_both_halves(sf_dir: str):
        """SQL INTERSECT — distinct users active in BOTH halves of the
        month; per-side distinct combiners, one value-keyed exchange."""
        mid = datetime.datetime(2024, 1, 16)
        first = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "ts"],
            filter=pc.field("ts") < mid,
        ).select_columns(["user_id"])
        second = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "ts"],
            filter=pc.field("ts") >= mid,
        ).select_columns(["user_id"])
        return intersect_distinct(first, second, ["user_id"])

    def discontinued_part_suppliers(sf_dir: str):
        """SQL EXCEPT — (part, supplier) pairs shipped before 1997 and
        never again after (the discontinued-relationship set); the
        anti-join shape's set-operation sibling, same one-exchange plan
        as INTERSECT, on a two-column value tuple."""
        cut = datetime.datetime(1997, 1, 1)
        cols = ["l_partkey", "l_suppkey"]
        before = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=cols + ["l_shipdate"],
            filter=pc.field("l_shipdate") < cut,
        ).select_columns(cols)
        after = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=cols + ["l_shipdate"],
            filter=pc.field("l_shipdate") >= cut,
        ).select_columns(cols)
        return except_distinct(before, after, cols)

    def lineitem_price_geomean(sf_dir: str):
        """Geometric mean per return flag — the multiplicative-average
        sufficient statistic (Σ ln x, n) rides a per-batch combiner +
        one tiny groupby; exp at the end."""
        li = _read(sf_dir, "lineitem",
                   columns=["l_returnflag", "l_extendedprice"])

        def partial(b: pa.Table) -> pa.Table:
            ln = pc.ln(pc.cast(b.column("l_extendedprice"),
                               pa.float64()))
            t = pa.table({"l_returnflag": b.column("l_returnflag"),
                          "__ln": ln})
            agg = t.group_by(["l_returnflag"]).aggregate(
                [("__ln", "sum"), ([], "count_all")])
            return agg.rename_columns(["l_returnflag", "s", "n"])

        summed = (li.map_batches(partial, batch_format="pyarrow")
                  .groupby("l_returnflag")
                  .aggregate(Sum("s", alias_name="s"),
                             Sum("n", alias_name="n")))

        def finish(b: pa.Table) -> pa.Table:
            g = pc.exp(pc.divide(b.column("s"),
                                 pc.cast(b.column("n"), pa.float64())))
            return pa.table({
                "l_returnflag": b.column("l_returnflag"),
                "geomean": sql_round(g, 4),
            })

        return summed.map_batches(finish, batch_format="pyarrow")

    def orders_custkey_skew_profile(sf_dir: str):
        """Key-skew profile (the pre-shuffle planning statistic the
        skew_join threshold feeds on): per-key counts via one exchange,
        then (n_keys, max, p50 by the 1-based ceil(q·n) quantile_disc
        convention) from the key-cardinality-bounded count column."""
        orders = _read(sf_dir, "orders", columns=["o_custkey"])

        def partial(pdf):
            return (pdf.groupby("o_custkey", as_index=False)
                    .size().rename(columns={"size": "n"}))

        def reduce_(pdf):
            return (pdf.groupby("o_custkey", as_index=False)["n"].sum())

        counts = grouped_apply(
            combine(orders, partial, batch_format="pandas"),
            ["o_custkey"], reduce_,
            batch_format="pandas")
        # to_pandas, not take_all: row-based take_all over pandas
        # blocks converts per row (measured 9.6 s for 15k rows!)
        sizes = np.sort(
            counts.to_pandas()["n"].to_numpy(np.int64))
        # the count column is bounded by key cardinality (customers)
        p50 = int(sizes[int(np.ceil(0.5 * len(sizes))) - 1])
        return pa.table({
            "n_keys": pa.array([len(sizes)], pa.int64()),
            "max_n": pa.array([int(sizes[-1])], pa.int64()),
            "p50_n": pa.array([p50], pa.int64()),
        })

    def lineitem_numeric_profile(sf_dir: str):
        """Column profiling / stats collection in one streaming pass —
        per-column (rows, nulls, min, max, total), each batch reduces
        to |cols| partial rows; the planner-statistics shape."""
        cols = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]
        li = _read(sf_dir, "lineitem", columns=cols)

        def round_total(b: pa.Table) -> pa.Table:
            return b.set_column(
                b.schema.get_field_index("total"), "total",
                sql_round(b.column("total"), 2),
            )

        return profile_numeric(li, cols).map_batches(
            round_total, batch_format="pyarrow")

    def events_props_k_sum(sf_dir: str):
        """Semi-structured extraction: JSON `props` column → typed
        int64 → per-type exact sum; JSON parse is a pure map stage
        (per-record by nature, like html→text), aggregation rides a
        per-batch combiner + one groupby."""
        ev = _read(sf_dir, "events", columns=["event_type", "props"])
        typed = json_extract_scalar(ev, "props", "k", "k_val")

        def partial(b: pa.Table) -> pa.Table:
            agg = b.group_by(["event_type"]).aggregate([("k_val", "sum")])
            return agg.rename_columns(["event_type", "k_sum"])

        return (typed.map_batches(partial, batch_format="pyarrow")
                .groupby("event_type")
                .aggregate(Sum("k_sum", alias_name="k_sum")))

    def events_window_unique_users(sf_dir: str):
        """Distinct users per 6-hour tumbling window (the DAU-style
        metric): window key derived map-side, then the distinct-count
        operator's per-batch-dedup combiner + one exchange."""
        ev = _read(sf_dir, "events", columns=["user_id", "ts"])
        size_us = 6 * 3600 * 1_000_000

        def window(b: pa.Table) -> pa.Table:
            us = pc.cast(b.column("ts"), pa.int64())
            w = pc.multiply(
                pc.divide(us, size_us), pa.scalar(size_us, pa.int64()))
            return pa.table({"window_us": pc.cast(w, pa.int64()),
                             "user_id": b.column("user_id")})

        keyed = ev.map_batches(window, batch_format="pyarrow")
        return distinct_count(keyed, ["window_us"], "user_id",
                              "unique_users")

    def lineitem_qty_mad_by_flag(sf_dir: str):
        """Exact per-group median absolute deviation — the robust
        spread companion to `lineitem_qty_var_by_flag`°; one exchange,
        interpolated-median convention on both passes (DuckDB mad)."""
        li = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity"])
        return grouped_mad(li, ["l_returnflag"], "l_quantity")

    def events_type_transitions(sf_dir: str):
        """Markov transition counts over each user's event sequence —
        LEAD() per user (one exchange) then a counted groupby with a
        per-batch combiner; the session-mining primitive."""
        ev = _read(sf_dir, "events",
                   columns=["event_id", "user_id", "ts", "event_type"])
        led = window_lead(ev, ["user_id"], "ts", "event_type",
                          "next_type", "event_id")

        def partial(b: pa.Table) -> pa.Table:
            b = b.filter(pc.is_valid(b.column("next_type")))
            agg = (b.select(["event_type", "next_type"])
                   .group_by(["event_type", "next_type"])
                   .aggregate([([], "count_all")]))
            return agg.rename_columns(["event_type", "next_type", "n"])

        return (combine(led, partial)
                .groupby(["event_type", "next_type"])
                .aggregate(Sum("n", alias_name="n")))

    def events_type_transition_probs(sf_dir: str):
        """The Markov CHAIN itself: transition counts row-normalized to
        conditional probabilities P(next | current) — the counted
        groupby from events_type_transitions plus one tiny
        from-type-keyed exchange that divides each row by its row-sum.
        Integer counts divide exactly the same in both engines, so the
        round-6 probabilities are oracle-stable."""
        counts = events_type_transitions(sf_dir)

        def normalize(tbl: pa.Table) -> pa.Table:
            df = tbl.to_pandas()
            tot = df.groupby("event_type")["n"].transform("sum")
            p = df["n"].to_numpy(np.float64) / tot.to_numpy(np.float64)
            df["p"] = sql_round(p, 6)
            return pa.Table.from_pandas(df, preserve_index=False)

        return grouped_apply(counts, ["event_type"], normalize)

    def top2_parts_per_brand_by_revenue(sf_dir: str):
        """Two-level top-k: revenue aggregates per (brand, part) —
        brand broadcast from the pruned part read, per-batch combiner,
        one exchange — then window_topk's combiner ranks the top 2
        parts per brand. Revenue is INTEGER CENTS rounded per row
        (half-away, DuckDB round parity) so the distributed int64 sum
        is order-independent and the ranking/oracle comparison is
        exact by construction — no float-summation-order boundary
        flips."""
        part = _dim(sf_dir, "part", ["p_partkey", "p_brand"])
        li = _read(sf_dir, "lineitem",
                   columns=["l_partkey", "l_extendedprice", "l_discount"])

        def partial(pdf):
            rev = (pdf["l_extendedprice"]
                   * (1.0 - pdf["l_discount"]) * 100.0)
            pdf["revenue_cents"] = sql_round(rev).astype(np.int64)
            return pdf.groupby(["p_brand", "l_partkey"], sort=False,
                               as_index=False)["revenue_cents"].sum()

        def reduce_(pdf):
            return pdf.groupby(["p_brand", "l_partkey"], sort=False,
                               as_index=False)["revenue_cents"].sum()

        summed = grouped_apply(
            combine(broadcast_lookup(li, part, "l_partkey", "p_partkey",
                                     ["p_brand"]),
                    partial, batch_format="pandas"),
            ["p_brand", "l_partkey"], reduce_,
            batch_format="pandas",
        )  # grouped_apply, not the slow native string-key Aggregate

        return window_topk(summed, ["p_brand"], "revenue_cents", 2,
                           tie_col="l_partkey")

    def events_user_running_max(sf_dir: str):
        """Running MAX(value) per user in event order — windowed_cumagg
        (cumsum's shape, accumulator swapped); one user-keyed
        exchange."""
        ev = _read(sf_dir, "events",
                   columns=["event_id", "user_id", "ts", "value"])
        return windowed_cumagg(ev, ["user_id"], "ts", "value",
                               "running_max", "event_id", agg="max")

    def docs_normalized_text(sf_dir: str):
        """Canonical whitespace/case normalization — pure Arrow-kernel
        map, byte-exact RE2/DuckDB parity."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return normalize_text(docs)

    def docs_bpe_vocab(sf_dir: str):
        """BPE tokenizer TRAINING over the corpus: one exact word-count
        exchange (vocabulary-bounded), then Sennrich merge rounds over
        that bounded table (driver-side by design — the original
        algorithm trains on the word-count dict; `bpe_pair_counts`° is
        the distributed per-round alternative). Returns the ordered
        merge table."""
        docs = _read(sf_dir, "documents", columns=["text"])
        wc = {r["word"]: r["n"]
              for r in word_counts(docs,
                                   max_vocab=500_000).take_all()}
        merges = train_bpe(wc, 50)
        return ray.data.from_arrow(pa.table({
            "rank": pa.array(range(len(merges)), pa.int64()),
            "left": pa.array([a for a, _ in merges], pa.string()),
            "right": pa.array([b for _, b in merges], pa.string()),
        }))

    def docs_bpe_piece_counts(sf_dir: str):
        """BPE tokenizer APPLICATION: the 50-merge tokenizer trained by
        `docs_bpe_vocab` encodes the corpus — merge ranks broadcast
        once, each batch encodes its DISTINCT words only, one
        piece-keyed exchange sums counts."""
        docs = _read(sf_dir, "documents", columns=["text"])
        wc = {r["word"]: r["n"]
              for r in word_counts(docs,
                                   max_vocab=500_000).take_all()}
        merges = train_bpe(wc, 50)
        return bpe_apply(docs, merges)

    def docs_bigram_logprob(sf_dir: str):
        """Bigram conditional LM score per doc — two exchanges, counts
        co-located by the bigram's first token, no broadcast model."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return bigram_logprob(docs)

    def docs_extracted_s_words(sf_dir: str):
        """Regex extraction to long form — every match with its 1-based
        in-document ordinal; pure map stage, RE2 pattern, byte-exact
        DuckDB parity."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return extract_patterns(docs, r"\bs\w+")

    def events_type_freq_cms(sf_dir: str):
        """Count-Min point frequencies for the event-type vocabulary —
        every batch reduces to one 128 KB counter matrix, ≤32 salted
        partials, bounded driver fold. At 5 probe values ≪ width=4096
        the estimate is provably exact unless two values collide in all
        4 rows ((1/4096)^4, deterministic) — so the SQL oracle is the
        EXACT count, a hard check of the sketch mechanics."""
        ev = _read(sf_dir, "events", columns=["event_type"])
        probes = ["click", "error", "purchase", "signup", "view"]
        return approx_frequencies(ev, "event_type", probes)

    def docs_minhash_deduped(sf_dir: str):
        """END-TO-END near-dup dedup: MinHash-LSH pairs → distributed
        connected components → keep each cluster's min doc_id → EXCEPT
        removes the rest. The full training-data dedup chain as one
        streaming composition of oracled/tested operators; returns the
        kept doc_id set."""
        docs = _read(sf_dir, "documents")
        pairs = dd.minhash_lsh_pairs(docs, threshold=0.5).select_columns(
            ["doc_a", "doc_b"])
        clusters = dd.connected_components(pairs)  # (node, cluster_id)

        def removals(b: pa.Table) -> pa.Table:
            keep = pc.not_equal(b.column("node"), b.column("cluster_id"))
            return pa.table({"doc_id": b.filter(keep).column("node")})

        rem = clusters.map_batches(removals, batch_format="pyarrow")
        return except_distinct(docs.select_columns(["doc_id"]), rem,
                               ["doc_id"])

    def docs_minhash_keep_best(sf_dir: str):
        """END-TO-END quality-aware near-dup dedup — the FineWeb-style
        production chain: MinHash-LSH pairs → connected components →
        keep each cluster's BEST doc by composite quality score
        (pipelines/dedup.cluster_keep_best; singletons survive as
        themselves). The sibling of docs_minhash_deduped with the
        keep-min-id rule replaced by the quality argmax a real
        curation pipeline uses. Rows-only driver check (the LSH
        detector isn't SQL-replayable); every stage is individually
        oracled/tested."""
        docs = _read(sf_dir, "documents")
        pairs = dd.minhash_lsh_pairs(docs, threshold=0.5).select_columns(
            ["doc_a", "doc_b"])

        q = ts.quality(docs)

        def slim(b: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "quality": sql_round(b.column("quality"), 6),
            })

        return dd.cluster_keep_best(
            q.map_batches(slim, batch_format="pyarrow"), pairs)

    def embeddings_semantic_dedup(sf_dir: str):
        """Semantic (embedding-space) dedup end-to-end: LSH-bucketed
        cosine near-dup pairs → connected components → keep min vec_id
        per cluster; the embedding analogue of `docs_minhash_deduped`."""
        emb = _read(sf_dir, "embeddings")
        dim = len(emb.take(1)[0]["embedding"])
        pairs = sim.cosine_near_dup_pairs(
            emb, dim=dim, threshold=0.95).select_columns(["id_a", "id_b"])
        clusters = dd.connected_components(pairs, a_col="id_a",
                                           b_col="id_b")

        def removals(b: pa.Table) -> pa.Table:
            keep = pc.not_equal(b.column("node"), b.column("cluster_id"))
            return pa.table({"vec_id": b.filter(keep).column("node")})

        rem = clusters.map_batches(removals, batch_format="pyarrow")
        return except_distinct(emb.select_columns(["vec_id"]), rem,
                               ["vec_id"])

    # ---- relational operator coverage (A1-A5, O1-O5, J-patterns) ----

    def lang_distribution(sf_dir: str):
        return _read(sf_dir, "documents").groupby("lang").aggregate(
            Count(alias_name="n")
        )

    def docs_by_source(sf_dir: str):
        return _read(sf_dir, "documents").groupby("source").aggregate(
            Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars")
        )

    def q1_pricing_summary(sf_dir: str):
        li = _read(sf_dir, "lineitem")
        li = li.map_batches(
            lambda b: b.append_column(
                "revenue",
                pc.multiply(b.column("l_extendedprice"),
                            pc.subtract(pa.scalar(1.0), b.column("l_discount"))),
            ).filter(pc.less_equal(b.column("l_shipdate"),
                                   pa.scalar(np.datetime64("1998-09-02", "us")))),
            batch_format="pyarrow",
        )
        agg = li.groupby(["l_returnflag", "l_linestatus"]).aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("revenue", alias_name="sum_revenue"),
            Count(alias_name="count_order"),
        )

        def rnd(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "l_returnflag": batch.column("l_returnflag"),
                    "l_linestatus": batch.column("l_linestatus"),
                    "sum_qty": sql_round(batch.column("sum_qty"), 2),
                    "sum_revenue": sql_round(batch.column("sum_revenue"), 2),
                    "count_order": batch.column("count_order"),
                }
            )

        return agg.map_batches(rnd, batch_format="pyarrow")

    def top_customers_by_orders(sf_dir: str):
        """Aggregate-then-join: orders collapse to one row per custkey
        FIRST (the shuffle carries ints only — no per-order name strings),
        top-k truncates to 10 rows, and only then is the customer name
        attached via an id-pruned read of the dimension table. At high SF
        this never broadcasts the customer table or ships c_name per
        order row."""
        agg = _read(sf_dir, "orders").groupby("o_custkey").aggregate(
            Count(alias_name="n_orders"),
            Sum("o_totalprice", alias_name="total_spent"),
        )

        def rnd(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "o_custkey": batch.column("o_custkey"),
                    "n_orders": batch.column("n_orders"),
                    "total_spent": sql_round(batch.column("total_spent"), 2),
                }
            )

        top = (
            agg.map_batches(rnd, batch_format="pyarrow")
            .sort(["total_spent", "o_custkey"], descending=[True, False])
            .limit(10)
            .take_all()
        )
        keys = [r["o_custkey"] for r in top]
        names = {
            r["c_custkey"]: r["c_name"]
            for r in ray.data.read_parquet(
                os.path.join(sf_dir, "customer.parquet"),
                columns=["c_custkey", "c_name"],
                filter=pc.field("c_custkey").isin(keys),
            ).take_all()
        }
        return pa.table(
            {
                "o_custkey": pa.array(keys, pa.int64()),
                "c_name": pa.array([names[k] for k in keys], pa.string()),
                "n_orders": pa.array([r["n_orders"] for r in top], pa.int64()),
                "total_spent": pa.array(
                    [r["total_spent"] for r in top], pa.float64()
                ),
            }
        )

    def customer_segment_revenue(sf_dir: str):
        """Distributed hash join (Ray Data native ``Dataset.join``) for
        the fact⋈dim case where the dim side is too big to broadcast at
        scale: orders ⋈ customer on custkey, partitioned exchange, then a
        small segment aggregate."""
        orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
        cust = _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
        joined = orders.join(
            cust, join_type="inner",
            num_partitions=_NATIVE_JOIN_PARTITIONS,
            on=("o_custkey",), right_on=("c_custkey",),
        )
        agg = joined.groupby("c_mktsegment").aggregate(
            Count(alias_name="n_orders"),
            Sum("o_totalprice", alias_name="revenue"),
        )
        return agg.map_batches(
            lambda b: pa.table(
                {
                    "c_mktsegment": b.column("c_mktsegment"),
                    "n_orders": b.column("n_orders"),
                    "revenue": sql_round(b.column("revenue"), 2),
                }
            ),
            batch_format="pyarrow",
        )

    def nation_region_counts(sf_dir: str):
        """Broadcast dimension join nation ⋈ region → counts per region."""
        region = _dim(sf_dir, "region", ["r_regionkey", "r_name"])
        return (
            broadcast_lookup(_read(sf_dir, "nation"), region, "n_regionkey",
                             "r_regionkey", ["r_name"], how="left")
            .groupby("r_name")
            .aggregate(Count(alias_name="n_nations"))
        )

    def part_topk_price(sf_dir: str):
        return (
            _read(sf_dir, "part",
                  columns=["p_partkey", "p_name", "p_retailprice"])
            .sort(["p_retailprice", "p_partkey"], descending=[True, False])
            .limit(5)
        )

    def lineitem_filter_pruned(sf_dir: str):
        """Prune-at-the-read: column projection + row-group filter pushed
        into read_parquet, then a small aggregate."""
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_returnflag", "l_quantity", "l_discount"],
            filter=(pc.field("l_discount") > 0.05),
        )
        agg = ds.groupby("l_returnflag").aggregate(
            Count(alias_name="n"), Sum("l_quantity", alias_name="sum_qty")
        )
        return agg.map_batches(
            lambda b: pa.table(
                {
                    "l_returnflag": b.column("l_returnflag"),
                    "n": b.column("n"),
                    "sum_qty": sql_round(b.column("sum_qty"), 2),
                }
            ),
            batch_format="pyarrow",
        )

    def orders_by_priority_month(sf_dir: str):
        """Timestamp bucketing: per (order month, priority) counts."""
        ds = _read(sf_dir, "orders")

        def month(batch: pa.Table) -> pa.Table:
            ts = batch.column("o_orderdate")
            ym = pc.add(
                pc.multiply(pc.cast(pc.year(ts), pa.int64()), 100),
                pc.cast(pc.month(ts), pa.int64()),
            )
            return pa.table(
                {
                    "ym": ym,
                    "o_orderpriority": batch.column("o_orderpriority"),
                }
            )

        return (
            ds.map_batches(month, batch_format="pyarrow")
            .groupby(["ym", "o_orderpriority"])
            .aggregate(Count(alias_name="n"))
        )

    def supplier_nation_join(sf_dir: str):
        """Second broadcast-dim join shape: supplier ⋈ nation → totals."""
        nation = _dim(sf_dir, "nation", ["n_nationkey", "n_name"])
        agg = (
            broadcast_lookup(_read(sf_dir, "supplier"), nation, "s_nationkey",
                             "n_nationkey", ["n_name"], how="left")
            .groupby("n_name")
            .aggregate(Count(alias_name="n_suppliers"),
                       Sum("s_acctbal", alias_name="total_acctbal"))
        )
        return agg.map_batches(
            lambda b: pa.table(
                {
                    "n_name": b.column("n_name"),
                    "n_suppliers": b.column("n_suppliers"),
                    "total_acctbal": sql_round(b.column("total_acctbal"), 2),
                }
            ),
            batch_format="pyarrow",
        )

    def part_sanitized_names(sf_dir: str):
        """M6 scalar parity at table scale: the reference's (unused)
        relation sanitizer applied as a vectorized column transform."""

        def fn(batch: pa.Table) -> pa.Table:
            names = batch.column("p_name").to_pylist()
            return pa.table(
                {
                    "p_partkey": batch.column("p_partkey"),
                    "sanitized": pa.array(
                        [sanitize_relation(n) for n in names], pa.string()
                    ),
                }
            )

        return _read(sf_dir, "part").map_batches(
            fn, batch_format="pyarrow", batch_size=8192
        )

    def capitalized_phrases(sf_dir: str):
        """M8 scalar parity at table scale: the query-entity heuristic
        regex (retrieval.py:332) counted per document."""

        def fn(batch: pa.Table) -> pa.Table:
            texts = batch.column("text").to_pylist()
            ents = [query_entities(t) for t in texts]
            return pa.table(
                {
                    "doc_id": batch.column("doc_id"),
                    "n_phrases": pa.array([len(e) for e in ents], pa.int64()),
                    "first_phrase": pa.array(
                        [e[0] if e else None for e in ents], pa.string()
                    ),
                }
            )

        return _read(sf_dir, "documents").map_batches(
            fn, batch_format="pyarrow", batch_size=8192
        )

    def supplier_acctbal_minmax(sf_dir: str):
        """O3 at table scale: min-max normalization as a two-pass
        distributed op — tiny global (min,max) aggregate broadcast into a
        vectorized map (the reference normalizes driver-side lists,
        retrieval.py:550-569)."""
        ds = _read(sf_dir, "supplier", columns=["s_suppkey", "s_acctbal"])
        bounds = ds.aggregate(Min("s_acctbal"), Max("s_acctbal"))
        lo, hi = bounds["min(s_acctbal)"], bounds["max(s_acctbal)"]

        def norm(batch: pa.Table) -> pa.Table:
            v = batch.column("s_acctbal")
            if hi == lo:
                normed = pc.multiply(pc.subtract(v, v), 0.0)
            else:
                normed = pc.divide(pc.subtract(v, pa.scalar(lo)),
                                   pa.scalar(hi - lo))
            return pa.table(
                {
                    "s_suppkey": batch.column("s_suppkey"),
                    "acctbal_norm": sql_round(normed, 6),
                }
            )

        return ds.map_batches(norm, batch_format="pyarrow", batch_size=8192)

    def events_by_type(sf_dir: str):
        agg = _read(sf_dir, "events").groupby("event_type").aggregate(
            Count(alias_name="n"), Sum("value", alias_name="sum_value")
        )

        def rnd(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "event_type": batch.column("event_type"),
                    "n": batch.column("n"),
                    "sum_value": sql_round(batch.column("sum_value"), 2),
                }
            )

        return agg.map_batches(rnd, batch_format="pyarrow")

    def events_sessionized(sf_dir: str):
        """Streaming-shaped op: per-user tumbling 1-hour windows.
        Partition-wise (users hash-bucketed, one shuffle), window
        aggregation fully vectorized inside each partition."""

        def windows(pdf: pd.DataFrame) -> pd.DataFrame:
            win = (
                pdf["ts"].astype("datetime64[us]").astype("int64") // (3600 * 10**6)
            )
            out = (
                pdf.assign(window_start_h=win)
                .groupby(["user_id", "window_start_h"], sort=True)
                .agg(n_events=("event_id", "size"), sum_value=("value", "sum"))
                .reset_index()
            )
            out["sum_value"] = sql_round(out["sum_value"], 2)
            return out[["user_id", "n_events", "sum_value", "window_start_h"]]

        return grouped_apply(
            _read(sf_dir, "events"), ["user_id"], windows,
            batch_format="pandas")

    def events_gap_dedup(sf_dir: str):
        """Gap-based event throttle (the telemetry/debounce hygiene
        rule): keep an event only if it's the first of its
        (user, type) or more than 60 s after the PREVIOUS event of the
        same (user, type) — LAG semantics, vectorized shift inside one
        user-keyed exchange; the oracle is the identical LAG window."""
        events = _read(sf_dir, "events",
                       columns=["event_id", "ts", "user_id", "event_type"])

        def throttle(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.sort_values(["user_id", "event_type", "ts",
                                   "event_id"])
            prev = pdf.groupby(["user_id", "event_type"],
                               sort=False)["ts"].shift(1)
            keep = prev.isna() | (pdf["ts"] - prev
                                  > pd.Timedelta(seconds=60))
            return pdf.loc[keep, ["event_id", "user_id", "event_type"]]

        return grouped_apply(events, ["user_id"], throttle,
                             batch_format="pandas")

    def docs_graph_degree_hist(sf_dir: str):
        """Degree-distribution report (pipelines/graph.degree_histogram)
        over the same deterministic two-out-edges-per-doc graph
        docs_pagerank pins — total out+in degree per node, then
        (degree, n_nodes).  Two count-combined exchanges; the oracle
        replays the edge construction and both groupbys."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(x):
                return pc.subtract(x, pc.multiply(pc.divide(x, 500), 500))

            src = pa.concat_arrays([ids.combine_chunks()] * 2)
            # first edge is a bijection (gcd(7,500)=1); the second is
            # quadratic, so destinations collide and the in-degree
            # distribution is genuinely skewed (a real hub census).
            dst = pa.concat_arrays([
                mod500(pc.add(pc.multiply(ids, 7), 3)).combine_chunks(),
                mod500(pc.add(pc.multiply(ids, ids), 1)).combine_chunks(),
            ])
            return pa.table({"src": src, "dst": dst})

        return degree_histogram(
            docs.map_batches(edges, batch_format="pyarrow"),
        )

    def docs_adamic_adar(sf_dir: str):
        """Link-prediction scores (pipelines/graph.link_scores) over
        the same deterministic skewed synthetic doc graph
        docs_graph_degree_hist pins: common-neighbor count,
        Adamic-Adar, resource allocation and neighborhood Jaccard for
        every non-adjacent 2-hop pair — the KG missing-edge proposer
        (Liben-Nowell & Kleinberg 2003).  The oracle replays
        canonicalization, the wedge self-join, the existing-edge
        anti-join and both degree joins in SQL."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(x):
                return pc.subtract(x, pc.multiply(pc.divide(x, 500),
                                                  500))

            src = pa.concat_arrays([ids.combine_chunks()] * 2)
            dst = pa.concat_arrays([
                mod500(pc.add(pc.multiply(ids, 7), 3)).combine_chunks(),
                mod500(pc.add(pc.multiply(ids, ids),
                              1)).combine_chunks(),
            ])
            return pa.table({"src": src, "dst": dst})

        return link_scores(docs.map_batches(edges, batch_format="pyarrow"))

    def kg_entity_adamic_adar(sf_dir: str):
        """Missing-edge proposals over the real KG edge list (string
        entity ids): the link-prediction indices docs_adamic_adar°
        pins, applied to the graph the pipeline actually built —
        "entities that share many (rare) neighbors are probably
        related", the batch complement to the reference's one-hop
        retrieval walk (core/retrieval.py).  Rows only: the KG tables
        aren't SQL views; semantics are pinned by docs_adamic_adar's
        oracle and tests/test_link_scores.py.  Small KGs solve
        in-process off the published checkpoint.  Centers above
        degree 256 are skipped (the operator's documented production
        cap): a deg-4000 hub emits 8 M wedge pairs each worth only
        1/ln(4000) ≈ 0.12 — on the bench KG the uncapped run is 65 M
        proposal rows, the capped one 24 k."""
        tbl = _kg_edges_local(sf_dir)
        if tbl is not None:
            return _link_scores_local(tbl, "src_entity_id",
                                      "dst_entity_id",
                                      max_center_degree=256)
        edges = _kg_tables(sf_dir)["edges"].select_columns(
            ["src_entity_id", "dst_entity_id"])
        return link_scores(edges, src_col="src_entity_id",
                           dst_col="dst_entity_id", max_center_degree=256)

    def docs_clustering_coef(sf_dir: str):
        """Per-node triangle count + local clustering coefficient
        (pipelines/graph.clustering_coefficient) over the same
        deterministic skewed synthetic doc graph
        docs_graph_degree_hist pins — the community-density signal
        (Watts & Strogatz 1998) that separates clique-like KG
        neighborhoods from star hubs.  Same degree-orientation wedge
        enumeration as the triangle census, but every closed wedge
        credits all three corners.  The oracle replays
        canonicalization, the center self-join and the closure join
        in SQL."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(x):
                return pc.subtract(x, pc.multiply(pc.divide(x, 500),
                                                  500))

            src = pa.concat_arrays([ids.combine_chunks()] * 2)
            dst = pa.concat_arrays([
                mod500(pc.add(pc.multiply(ids, 7), 3)).combine_chunks(),
                mod500(pc.add(pc.multiply(ids, ids),
                              1)).combine_chunks(),
            ])
            return pa.table({"src": src, "dst": dst})

        return clustering_coefficient(
            docs.map_batches(edges, batch_format="pyarrow"))

    def kg_entity_clustering(sf_dir: str):
        """Local clustering coefficients over the real KG edge list
        (string entity ids) — which extracted entities sit in dense
        mutually-connected neighborhoods (topic cliques) vs sparse
        hubs, the per-node refinement of kg_entity_communities'
        partition view.  Rows only: KG tables aren't SQL views;
        semantics are pinned by docs_clustering_coef's oracle and
        tests/test_clustering.py.  Small KGs solve in-process off the
        published checkpoint."""
        tbl = _kg_edges_local(sf_dir)
        if tbl is not None:
            return _clustering_local(tbl, "src_entity_id",
                                     "dst_entity_id")
        edges = _kg_tables(sf_dir)["edges"].select_columns(
            ["src_entity_id", "dst_entity_id"])
        return clustering_coefficient(
            edges, src_col="src_entity_id", dst_col="dst_entity_id")

    def kg_entity_betweenness(sf_dir: str):
        """Sampled betweenness centrality (Brandes 2001; Brandes &
        Pich 2007 estimator) over the real KG edge list — which
        entities broker between otherwise-separate topic
        neighborhoods, the path-centric complement to PageRank's
        stationary view.  Parallel over SOURCES: the CSR adjacency
        ships once (ray.put), tasks solve source slices, the driver
        folds O(V) vectors.  Rows only (no SQL for shortest-path
        dependency counts); exactness with all sources is pinned
        against an independent pure-python Brandes reference in
        tests/test_betweenness.py."""
        tbl = _kg_edges_local(sf_dir)
        if tbl is not None:
            edges = ray.data.from_arrow(
                tbl.select(["src_entity_id", "dst_entity_id"]))
        else:
            edges = _kg_tables(sf_dir)["edges"].select_columns(
                ["src_entity_id", "dst_entity_id"])
        return betweenness_sample(
            edges, src_col="src_entity_id", dst_col="dst_entity_id",
            k_sources=64, tasks=8)

    def docs_novelty_by_batch(sf_dir: str):
        """Corpus novelty curve: bucket documents into crawl batches
        of 50 ids and count, per batch, the DISTINCT token TRIGRAMS
        whose first occurrence lands there (plus the running
        cumulative) — the data-freshness signal behind "is this crawl
        still contributing new content?" (trigram shingles, not
        unigrams: the fixture vocabulary saturates in 5 docs while
        trigram novelty decays realistically 2413→886 across the
        corpus).  Per-batch (shingle → min bucket) arrow combiner, ONE
        shingle-keyed exchange takes the global min, then
        per-partition O(buckets) counts fold through a
        single-partition cumsum — shingle occurrences never ship."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def explode(b: pa.Table) -> pa.Table:
            toks = pc.split_pattern(b.column("text"), " ")
            flat = pc.list_flatten(toks)
            ids = pc.cast(b.column("doc_id"), pa.int64())
            rep = pc.list_parent_indices(toks).to_numpy(
                zero_copy_only=False)
            keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
            words = flat.to_numpy(zero_copy_only=False)[keep]
            docs_of = rep[keep]
            if len(words) < 3:
                return pa.table({
                    "tok": pa.array([], pa.string()),
                    "bucket": pa.array([], pa.int64()),
                })
            same = (docs_of[:-2] == docs_of[1:-1]) & (
                docs_of[:-2] == docs_of[2:])
            tri = np.char.add(
                np.char.add(
                    np.char.add(words[:-2].astype("U"), " "),
                    np.char.add(words[1:-1].astype("U"), " ")),
                words[2:].astype("U"))[same]
            bucket = (ids.to_numpy(zero_copy_only=False)[
                docs_of[:-2][same]] // 50)
            t = pa.table({"tok": pa.array(tri), "bucket":
                          pa.array(bucket)})
            return t.group_by("tok").aggregate(
                [("bucket", "min")]).rename_columns(["tok", "bucket"])

        def first_bucket(t: pa.Table) -> pa.Table:
            firsts = t.group_by("tok").aggregate([("bucket", "min")])
            return firsts.group_by("bucket_min").aggregate(
                [([], "count_all")]).rename_columns(["bucket", "n_new"])

        partials = grouped_apply(
            docs.map_batches(explode, batch_format="pyarrow"),
            ["tok"], first_bucket,
            batch_format="pyarrow")

        def fold(pdf: pd.DataFrame) -> pd.DataFrame:
            out = (pdf.groupby("bucket", as_index=False)["n_new"].sum()
                   .sort_values("bucket"))
            out["n_new"] = out["n_new"].astype("int64")
            out["cum_new"] = out["n_new"].cumsum().astype("int64")
            return out

        return grouped_apply(partials, [], fold, batch_format="pandas")

    def docs_node2vec_walks(sf_dir: str):
        """node2vec biased walk corpus (Grover & Leskovec 2016) over
        the symmetrized synthetic doc graph — p=0.5 (return-averse) /
        q=2 (BFS-ish), walk_len 4, deterministic hash-fraction picks.
        Rows only (the second-order weighted pick has no tractable SQL
        form); exact semantics pinned by a python reference replaying
        every pick (tests/test_node2vec.py)."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(x):
                return pc.subtract(x, pc.multiply(pc.divide(x, 500),
                                                  500))

            src = pa.concat_arrays([ids.combine_chunks()] * 2)
            dst = pa.concat_arrays([
                mod500(pc.add(pc.multiply(ids, 7), 3)).combine_chunks(),
                mod500(pc.add(pc.multiply(ids, ids), 1)).combine_chunks(),
            ])
            # symmetrize: node2vec's usual undirected form
            return pa.table({
                "src": pa.concat_arrays([src, dst]),
                "dst": pa.concat_arrays([dst, src]),
            })

        return node2vec_walks(
            docs.map_batches(edges, batch_format="pyarrow"),
            walk_len=4, p=0.5, q=2.0)

    def customer_rfm_segments(sf_dir: str):
        """RFM segmentation — the classic recency/frequency/monetary
        quartile coding over the per-customer order aggregate (one
        combiner-bounded exchange builds it; three exact-NTILE windows
        code it; rfm = r·100 + f·10 + m).  The windows run over the
        O(customers) aggregate, never the orders fact table — the
        dimension-sized-output contract every RFM implementation
        shares; at larger customer counts the quantile-threshold
        variant (exact_quantiles) replaces exact NTILE."""
        orders = _read(sf_dir, "orders",
                       columns=["o_custkey", "o_orderdate", "o_totalprice"])

        def partial(b: pa.Table) -> pa.Table:
            return b.group_by("o_custkey").aggregate(
                [("o_orderdate", "max"), ("o_totalprice", "sum"),
                 ([], "count_all")]).rename_columns(
                ["o_custkey", "recency", "monetary", "frequency"])

        def fold(t: pa.Table) -> pa.Table:
            agg = t.group_by("o_custkey").aggregate(
                [("recency", "max"), ("monetary", "sum"),
                 ("frequency", "sum")])
            return pa.table({
                "o_custkey": agg.column("o_custkey"),
                "recency": agg.column("recency_max"),
                "frequency": pc.cast(agg.column("frequency_sum"),
                                     pa.int64()),
                "monetary": sql_round(agg.column("monetary_sum"), 2),
            })

        rfm = grouped_apply(
            combine(orders, partial),
            ["o_custkey"], fold,
            batch_format="pyarrow")

        def ntile4(pdf: pd.DataFrame, metric: str) -> np.ndarray:
            # exact SQL NTILE(4) over (metric, custkey) — same
            # position→bucket formula as relational.window_ntile
            order = np.lexsort((pdf["o_custkey"].to_numpy(),
                                pdf[metric].to_numpy()))
            n = len(pdf)
            k, r = n // 4, n % 4
            big = r * (k + 1)
            p = np.arange(n, dtype=np.int64)
            tile = np.where(p < big, p // max(k + 1, 1),
                            r + (p - big) // max(k, 1)) + 1
            out = np.empty(n, np.int64)
            out[order] = tile
            return out

        def code(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.reset_index(drop=True)
            pdf["r"] = ntile4(pdf, "recency")
            pdf["f"] = ntile4(pdf, "frequency")
            pdf["m"] = ntile4(pdf, "monetary")
            pdf["rfm"] = (pdf["r"] * 100 + pdf["f"] * 10
                          + pdf["m"]).astype("int64")
            return pdf

        # all three NTILEs need the GLOBAL rank order, so the
        # O(customers) aggregate folds through one partition — the
        # dimension-sized window every exact-NTILE implementation pays
        return grouped_apply(rfm, [], code, batch_format="pandas")

    def events_interarrival_quantiles(sf_dir: str):
        """Inter-arrival time distribution per event type (p50 / p90
        of consecutive same-type gaps in seconds) — the arrival-rate
        profile that sizes stream buffers; the quantile companion to
        events_burstiness' dispersion view.  One type-keyed exchange:
        lag + quantile both run vectorized inside the partition."""
        ev = _read(sf_dir, "events", columns=["event_type", "ts", "event_id"])

        def quantiles(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.sort_values(["event_type", "ts", "event_id"],
                                  kind="mergesort")
            prev = pdf.groupby("event_type", sort=False)["ts"].shift(1)
            gap = (pdf["ts"] - prev).dt.total_seconds()
            out = (pdf.assign(gap=gap).dropna(subset=["gap"])
                   .groupby("event_type", sort=True)["gap"]
                   .quantile([0.5, 0.9]).unstack())
            out.columns = ["p50_s", "p90_s"]
            out = out.reset_index()
            out["p50_s"] = sql_round(out["p50_s"], 6)
            out["p90_s"] = sql_round(out["p90_s"], 6)
            return out

        return grouped_apply(ev, ["event_type"], quantiles,
                             batch_format="pandas")

    def docs_type_token_ratio(sf_dir: str):
        """Per-document type-token ratio (distinct / total whitespace
        tokens) — the doc-level lexical-diversity signal next to the
        corpus-level hapax share; low TTR flags repetitive templates.
        Pure vectorized map: tokens explode once per batch, both
        counts come from one arrow group_by."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def ttr(b: pa.Table) -> pa.Table:
            toks = pc.split_pattern(b.column("text"), " ")
            flat = pc.list_flatten(toks)
            rep = pc.list_parent_indices(toks)
            ids = pc.cast(b.column("doc_id"), pa.int64())
            t = pa.table({
                "doc_id": pc.take(ids, rep), "tok": flat,
            }).filter(pc.not_equal(flat, ""))
            per_pair = t.group_by(["doc_id", "tok"]).aggregate(
                [([], "count_all")])
            agg = per_pair.group_by("doc_id").aggregate(
                [([], "count_all"), ("count_all", "sum")])
            n_types = pc.cast(agg.column("count_all"), pa.float64())
            n_toks = pc.cast(agg.column("count_all_sum"), pa.float64())
            return pa.table({
                "doc_id": agg.column("doc_id"),
                "n_tokens": pc.cast(agg.column("count_all_sum"),
                                    pa.int64()),
                "n_types": pc.cast(agg.column("count_all"),
                                   pa.int64()),
                "ttr": sql_round(pc.divide(n_types, n_toks), 6),
            })

        return docs.map_batches(ttr, batch_format="pyarrow")

    def orders_mom_growth(sf_dir: str):
        """Month-over-month order-count growth per priority — the
        trend view of the orders stream (lag window over the tiny
        (priority, month) aggregate).  One count exchange; lag +
        growth vectorized over O(priorities × months) rows."""
        orders = _read(sf_dir, "orders",
                       columns=["o_orderpriority", "o_orderdate"])

        def month_counts(b: pa.Table) -> pa.Table:
            m = pc.floor_temporal(b.column("o_orderdate"), unit="month")
            return pa.table({
                "o_orderpriority": b.column("o_orderpriority"),
                "month": m,
            }).group_by(["o_orderpriority", "month"]).aggregate(
                [([], "count_all")]).rename_columns(
                ["o_orderpriority", "month", "n"])

        def growth(pdf: pd.DataFrame) -> pd.DataFrame:
            g = (pdf.groupby(["o_orderpriority", "month"],
                             sort=False)["n"].sum().reset_index()
                 .sort_values(["o_orderpriority", "month"],
                              kind="mergesort"))
            prev = g.groupby("o_orderpriority", sort=False)["n"].shift(1)
            g["n"] = g["n"].astype("int64")
            g["prev_n"] = prev.astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                g["growth"] = sql_round(
                    (g["n"] - prev) / prev.astype(np.float64), 6)
            return g

        return grouped_apply(
            combine(orders, month_counts),
            ["o_orderpriority"], growth,
            batch_format="pandas")

    def docs_hapax_ratio(sf_dir: str):
        """Vocabulary richness: the corpus hapax-legomena share —
        what fraction of DISTINCT whitespace tokens occur exactly
        once (high on fresh diverse text, near zero on templated
        spam).  Per-batch token-count combiner, one token-keyed
        exchange, O(partitions) scalar fold."""
        docs = _read(sf_dir, "documents", columns=["text"])

        def tok_counts(b: pa.Table) -> pa.Table:
            toks = pc.list_flatten(
                pc.split_pattern(b.column("text"), " "))
            t = pa.table({"tok": toks}).filter(pc.not_equal(toks, ""))
            return t.group_by("tok").aggregate(
                [([], "count_all")]).rename_columns(["tok", "n"])

        def per_token(t: pa.Table) -> pa.Table:
            agg = t.group_by("tok").aggregate([("n", "sum")])
            n = agg.column("n_sum")
            return pa.table({
                "n_distinct": pa.array([agg.num_rows], pa.int64()),
                "n_hapax": pa.array([pc.sum(pc.cast(
                    pc.equal(n, 1), pa.int64())).as_py() or 0],
                    pa.int64()),
            })

        partials = grouped_apply(
            docs.map_batches(tok_counts, batch_format="pyarrow"),
            ["tok"], per_token,
            batch_format="pyarrow")

        def fold(pdf: pd.DataFrame) -> pd.DataFrame:
            d = int(pdf["n_distinct"].sum())
            h = int(pdf["n_hapax"].sum())
            return pd.DataFrame({
                "n_distinct_tokens": [d], "n_hapax": [h],
                "hapax_ratio": [sql_round(h / d, 6) if d else 0.0],
            })

        return grouped_apply(partials, [], fold, batch_format="pandas")

    def events_burstiness(sf_dir: str):
        """Traffic burstiness per event type: the Fano factor
        (sample variance / mean of DAILY counts) — >1 flags bursty,
        overdispersed streams that need headroom; ≈1 is Poisson-like.
        One (type, day) count exchange, then an O(types × days)
        variance fold."""
        ev = _read(sf_dir, "events", columns=["event_type", "ts"])

        def day_counts(b: pa.Table) -> pa.Table:
            day = pc.cast(pc.floor_temporal(b.column("ts"), unit="day"),
                          pa.date32())
            return pa.table({
                "event_type": b.column("event_type"), "day": day,
            }).group_by(["event_type", "day"]).aggregate(
                [([], "count_all")]).rename_columns(
                ["event_type", "day", "n"])

        def fold(pdf: pd.DataFrame) -> pd.DataFrame:
            g = (pdf.groupby(["event_type", "day"], sort=False)["n"]
                 .sum().reset_index()
                 .groupby("event_type", sort=True)["n"])
            out = g.agg(n_days="size", mean_daily="mean",
                        var_daily="var").reset_index()
            out["n_days"] = out["n_days"].astype("int64")
            out["fano"] = sql_round(out["var_daily"] / out["mean_daily"], 6)
            out["mean_daily"] = sql_round(out["mean_daily"], 6)
            out["var_daily"] = sql_round(out["var_daily"], 6)
            return out

        return grouped_apply(
            combine(ev, day_counts),
            ["event_type"], fold,
            batch_format="pandas")

    def events_late_arrivals(sf_dir: str):
        """Event-time disorder census — the signal that sizes a
        streaming watermark: per user (stream key), events whose
        timestamp lags the running event-time maximum seen so far in
        ARRIVAL order by more than 10 minutes.  The fixture has no
        arrival column (event_id order IS ts order), so arrival time
        is SIMULATED deterministically as ts + a ±90 min Knuth-hash
        jitter of the event id — bounded out-of-orderness, the shape
        real collection pipelines produce.  One key exchange; the
        running max is a vectorized per-key cummax."""
        ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])
        late_by = pd.Timedelta(minutes=10)

        def audit(pdf: pd.DataFrame) -> pd.DataFrame:
            # exact (eid * 2654435761) % M as the oracle's HUGEINT
            # computes it: the multiplier splits into 16-bit halves so
            # every int64 product stays below 2^51 (|eid % M| < 2^34);
            # fmod truncates like SQL's % for negative ids too
            m = 10_800_000_000
            x = np.fmod(pdf["event_id"].to_numpy(np.int64), m)
            jitter = np.fmod(
                np.fmod(x * (2654435761 >> 16), m) * 65536
                + x * (2654435761 & 0xFFFF), m)
            arrival = (pdf["ts"].astype("datetime64[us]").astype(
                "int64") + jitter - 5_400_000_000)
            pdf = pdf.assign(__arr=arrival).sort_values(
                ["user_id", "__arr", "event_id"],
                kind="mergesort").reset_index(drop=True)
            cmax = pdf.groupby("user_id", sort=False)["ts"].cummax()
            prevmax = cmax.groupby(pdf["user_id"], sort=False).shift(1)
            lag = prevmax - pdf["ts"]
            out = pdf[lag > late_by].drop(columns="__arr").copy()
            out["late_by_s"] = sql_round(
                lag[lag > late_by].dt.total_seconds(), 6)
            return out

        return grouped_apply(ev, ["user_id"], audit,
                             batch_format="pandas")

    def docs_skipgram_pairs(sf_dir: str):
        """(center, context, offset) skip-gram training pairs from the
        DeepWalk corpus docs_graph_random_walks° pins — window 2, one
        walk-keyed exchange + vectorized shifts. The oracle replays
        the whole chain: the three SQL walk hops, then the window
        self-join."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(x):
                return pc.subtract(x, pc.multiply(pc.divide(x, 500),
                                                  500))

            src = pa.concat_arrays([ids.combine_chunks()] * 2)
            dst = pa.concat_arrays([
                mod500(pc.add(pc.multiply(ids, 7), 3)).combine_chunks(),
                mod500(pc.add(pc.multiply(ids, ids), 1)).combine_chunks(),
            ])
            return pa.table({"src": src, "dst": dst})

        walks = random_walks(
            docs.map_batches(edges, batch_format="pyarrow"),
            walk_len=4)
        return skipgram_pairs(walks, window=2)

    def docs_skipgram_negatives(sf_dir: str):
        """The complete word2vec training-data shape: skip-gram
        window pairs from the SQL-replayable DeepWalk corpus plus 3
        deterministic negatives per pair, drawn from the unigram^0.75
        visit distribution via a hash fraction against the integer-
        quantized cumulative weight table (exact bin boundaries on
        both engines). The oracle replays walks → pairs → counts →
        cumulative table → range join."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(x):
                return pc.subtract(x, pc.multiply(pc.divide(x, 500),
                                                  500))

            src = pa.concat_arrays([ids.combine_chunks()] * 2)
            dst = pa.concat_arrays([
                mod500(pc.add(pc.multiply(ids, 7), 3)).combine_chunks(),
                mod500(pc.add(pc.multiply(ids, ids), 1)).combine_chunks(),
            ])
            return pa.table({"src": src, "dst": dst})

        walks = random_walks(
            docs.map_batches(edges, batch_format="pyarrow"),
            walk_len=4)
        return skipgram_negatives(walks, window=2, k_neg=3)

    def kg_edge_truss(sf_dir: str):
        """k-truss number per KG edge (Cohen 2008) — the edge-cohesion
        ladder separating relations embedded in clique-dense topic
        communities from stray links; the edge-level sibling of
        kg_entity_clustering.  Bulk peeling with vectorized
        degree-oriented support recomputation per round, solved in one
        Ray task off the published checkpoint (same edge cap as the
        other graph solvers).  Rows only; semantics pinned by a
        brute-force peeling reference (tests/test_truss.py)."""
        tbl = _kg_edges_local(sf_dir)
        if tbl is not None:
            edges = ray.data.from_arrow(
                tbl.select(["src_entity_id", "dst_entity_id"]))
        else:
            edges = _kg_tables(sf_dir)["edges"].select_columns(
                ["src_entity_id", "dst_entity_id"])
        return truss_decomposition(edges, src_col="src_entity_id",
                                   dst_col="dst_entity_id")

    def docs_lang_temperature_weights(sf_dir: str):
        """XLM-R-style temperature sampling weights (Conneau et al.
        2020, α = 0.3): per language, w_l ∝ p_l^α normalized — the
        multilingual rebalance that upweights low-resource languages.
        One tiny count exchange; the α-scaling is an O(langs) fold."""
        docs = _read(sf_dir, "documents", columns=["lang"])

        def count_l(b: pa.Table) -> pa.Table:
            return b.group_by("lang").aggregate(
                [([], "count_all")]).rename_columns(["lang", "n"])

        def fold(t: pa.Table) -> pa.Table:
            agg = t.group_by("lang").aggregate([("n", "sum")])
            return agg.rename_columns(["lang", "n"])

        counts = grouped_apply(
            combine(docs, count_l),
            ["lang"], fold, batch_format="pyarrow")

        def weights(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.sort_values("lang")
            n = pdf["n"].to_numpy(np.float64)
            p = n / n.sum()
            w = p ** 0.3
            w = w / w.sum()
            return pd.DataFrame({
                "lang": pdf["lang"].to_numpy(),
                "n_docs": pdf["n"].astype("int64").to_numpy(),
                "p": sql_round(p, 6),
                "weight": sql_round(w, 6),
                "boost": sql_round(w / p, 6),
            })

        return grouped_apply(counts, [], weights, batch_format="pandas")

    def docs_trigram_entropy(sf_dir: str):
        """Character-trigram Shannon entropy per document — the
        LM-free gibberish/boilerplate detector (low entropy = highly
        repetitive templates; keyboard-mash and encrypted blobs sit at
        the high extreme).  Pure map, zero exchanges; per-doc counting
        is inherently per-record (same contract as the zlib
        compression-ratio signal), the entropy fold is numpy."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def entropy(b: pa.Table) -> pa.Table:
            ids, ents = [], []
            for did, txt in zip(b.column("doc_id").to_pylist(),
                                b.column("text").to_pylist()):
                t = (txt or "").lower()
                if len(t) < 3:
                    continue
                c = Counter(t[i:i + 3] for i in range(len(t) - 2))
                n = np.fromiter(c.values(), np.float64, len(c))
                p = n / n.sum()
                ids.append(did)
                ents.append(float(-(p * np.log2(p)).sum()))
            return pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "trigram_entropy": sql_round(pa.array(ents, pa.float64()), 6),
            })

        return docs.map_batches(entropy, batch_format="pyarrow")

    def docs_mixing_schedule(sf_dir: str):
        """Deterministic source-mixing schedule — stride scheduling
        (WFQ) over temperature weights: doc r of source s gets
        ``mix_key = (r + 0.5) / w_s``, and sorting by (mix_key,
        source, doc_id) interleaves sources in exact proportion to
        their α=0.3 sampling weights — how training batches mix
        sources without an RNG.  Fully distributed: one tiny count
        exchange for the O(sources) weight table, one source-keyed
        exchange for the per-source ranks, a broadcast map for the
        keys; the global order is the consumer's sort (training
        shards are written key-sorted), never a global window."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "source"])

        def count_s(b: pa.Table) -> pa.Table:
            return b.group_by("source").aggregate(
                [([], "count_all")]).rename_columns(["source", "n"])

        def fold_c(t: pa.Table) -> pa.Table:
            return t.group_by("source").aggregate(
                [("n", "sum")]).rename_columns(["source", "n"])

        counts = grouped_apply(
            combine(docs, count_s),
            ["source"], fold_c,
            batch_format="pyarrow").to_pandas().sort_values("source")
        n = counts["n"].to_numpy(np.float64)
        p = n / n.sum()
        w = p ** 0.3
        w = sql_round(w / w.sum(), 6)
        wmap = dict(zip(counts["source"], w))

        def keys(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.sort_values(["source", "doc_id"],
                                  kind="mergesort").reset_index(
                drop=True)
            r = pdf.groupby("source", sort=False).cumcount().to_numpy(
                np.float64)
            wt = pdf["source"].map(wmap).to_numpy(np.float64)
            pdf["src_rank"] = r.astype(np.int64)
            pdf["mix_key"] = sql_round((r + 0.5) / wt, 6)
            return pdf

        return grouped_apply(docs, ["source"], keys,
                             batch_format="pandas")

    def docs_readability(sf_dir: str):
        """Flesch-reading-ease-style readability per document — the
        classic curation signal for audience-level filtering.
        Syllables are approximated as vowel-group runs (the standard
        regex proxy); sentences as [.!?]+ runs (min 1).  Pure
        vectorized regex map, zero exchanges."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def score(b: pa.Table) -> pa.Table:
            text = b.column("text")
            words = pc.count_substring_regex(text, "[A-Za-z]+")
            syll = pc.count_substring_regex(text, "[aeiouAEIOU]+")
            sents = pc.max_element_wise(
                pc.count_substring_regex(text, "[.!?]+"),
                pa.scalar(1, pa.int32()))
            w = pc.cast(words, pa.float64()).to_numpy(
                zero_copy_only=False)
            s = pc.cast(syll, pa.float64()).to_numpy(
                zero_copy_only=False)
            n = pc.cast(sents, pa.float64()).to_numpy(
                zero_copy_only=False)
            with np.errstate(divide="ignore", invalid="ignore"):
                flesch = np.where(
                    w > 0,
                    206.835 - 1.015 * (w / n) - 84.6 * (s / w),
                    0.0)
            return pa.table({
                "doc_id": b.column("doc_id"),
                "n_words": pc.cast(words, pa.int64()),
                "n_sentences": pc.cast(sents, pa.int64()),
                "n_syllable_groups": pc.cast(syll, pa.int64()),
                "flesch": sql_round(pa.array(flesch), 6),
            })

        return docs.map_batches(score, batch_format="pyarrow")

    def embedding_hard_negatives(sf_dir: str):
        """Contrastive hard-negative mining: each vector's most-similar
        DIFFERENT-label neighbor (cosine; ties toward the smaller id) —
        the pair-construction step for triplet/contrastive training.
        Corpus broadcasts once (ray.put), one b×N matmul + masked
        argmax per batch, no exchange."""
        emb = _read(sf_dir, "embeddings")
        return hard_negatives(emb)

    def embedding_dim_truncation_recall(sf_dir: str):
        """Matryoshka-style truncation audit: cosine top-10 recall of
        prefix dims 8/16/32 against the full 64-dim truth over the
        id%25 query subset — how many dims serving can drop.  Query
        matrices broadcast once, per-batch matmul combiner, one
        (dim, qid) exchange, tiny recall fold."""
        emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        return dim_truncation_recall(emb, dims=(8, 16, 32, 64), k=10,
                                     query_mod=25)

    def embedding_knn_ndcg(sf_dir: str):
        """Graded retrieval quality: per-query nDCG@10 of exact cosine
        top-k under label-match relevance — does nearest-neighbor
        search surface the right class, the IR-metric complement to
        the recall-vs-brute ANN audits. Broadcast queries, matmul
        combiner, one qid exchange, per-query vectorized DCG/IDCG."""
        emb = _read(sf_dir, "embeddings")
        return knn_label_ndcg(emb, k=10, query_mod=25)

    def kg_entity_harmonic(sf_dir: str):
        """Sampled harmonic centrality (Boldi & Vigna 2014) over the
        real KG edge list — which entities are CLOSE to everything
        (short-path reach), robust to the disconnected components a
        real extraction graph always has.  Same source-parallel
        shape as kg_entity_betweenness (one ray.put CSR, O(V) vector
        folds); exactness with all sources pinned against a
        pure-python BFS reference in tests/test_betweenness.py."""
        tbl = _kg_edges_local(sf_dir)
        if tbl is not None:
            edges = ray.data.from_arrow(
                tbl.select(["src_entity_id", "dst_entity_id"]))
        else:
            edges = _kg_tables(sf_dir)["edges"].select_columns(
                ["src_entity_id", "dst_entity_id"])
        return harmonic_sample(
            edges, src_col="src_entity_id", dst_col="dst_entity_id",
            k_sources=64, tasks=8)

    def orders_incremental_agg(sf_dir: str):
        """Materialized-view refresh (pipelines/relational.
        incremental_agg): the stored per-customer (sum, count)
        aggregate over 90% of orders is refreshed with the remaining
        10% as a CDC delta — compact base rows + pre-combined delta
        partials through ONE key exchange, the raw base never re-read.
        The oracle is the full recompute the refresh must equal."""
        orders = _read(sf_dir, "orders",
                       columns=["o_orderkey", "o_custkey", "o_totalprice"])

        def split(keep_base: bool):
            def fn(b: pa.Table) -> pa.Table:
                ok = pc.cast(b.column("o_orderkey"), pa.int64())
                is_delta = pc.equal(
                    pc.subtract(ok, pc.multiply(pc.divide(ok, 10), 10)),
                    0)
                mask = pc.invert(is_delta) if keep_base else is_delta
                return b.filter(mask)
            return fn

        base_raw = orders.map_batches(split(True), batch_format="pyarrow")

        def base_partial(b: pa.Table) -> pa.Table:
            g = pa.table({
                "o_custkey": b.column("o_custkey"),
                "sum_price": pc.cast(b.column("o_totalprice"),
                                     pa.float64()),
                "n_orders": pa.array(np.ones(b.num_rows), pa.float64()),
            }).group_by(["o_custkey"]).aggregate(
                [("sum_price", "sum"), ("n_orders", "sum")])
            return g.rename_columns(["o_custkey", "sum_price",
                                     "n_orders"])

        # the "stored view": a real aggregate of the base slice
        base_agg = grouped_apply(
            combine(base_raw, base_partial),
            ["o_custkey"],
            lambda t: t.group_by(["o_custkey"]).aggregate(
                [("sum_price", "sum"), ("n_orders", "sum")]
            ).rename_columns(["o_custkey", "sum_price", "n_orders"]),
        )
        delta = orders.map_batches(split(False), batch_format="pyarrow")

        refreshed = incremental_agg(
            base_agg, delta, ["o_custkey"], "o_totalprice",
            sum_col="sum_price", cnt_col="n_orders",
        )

        def round6(b: pa.Table) -> pa.Table:
            return b.set_column(
                b.column_names.index("sum_price"), "sum_price",
                sql_round(b.column("sum_price"), 6))

        return refreshed.map_batches(round6, batch_format="pyarrow")

    def docs_token_budget_head(sf_dir: str):
        """Data selection under a token budget
        (pipelines/clean.budget_head): keep the highest-quality
        documents while the running whitespace-token total stays
        ≤ 10,000 — SQL's running-sum window, distributed as the
        bucketed prefix-sum (O(buckets) driver integers, one
        bucket-keyed exchange, no global sort).  Counts are
        integer-valued so float summation order cannot flip the
        budget boundary."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def score(batch: pa.Table) -> pa.Table:
            texts = batch.column("text").to_pylist()
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "quality": pa.array(
                    [sql_round(qrow(t)["quality"], 6)
                     for t in texts], pa.float64()),
                "ws_tokens": pa.array(
                    [float(ws_token_count(t)) for t in texts],
                    pa.float64()),
            })

        return budget_head(
            docs.map_batches(score, batch_format="pyarrow"),
            "quality", "ws_tokens", budget=10000.0,
        )

    def docs_lang_budget_mix(sf_dir: str):
        """Mixture construction under per-language token budgets
        (pipelines/clean.budget_head with group_col): the best-quality
        documents of each language are kept until that language's
        budget is spent; languages without a budget drop entirely.
        Same bucketed prefix-sum, the driver fold is
        O(languages × buckets) numbers; the oracle is the
        PARTITION BY window running sum with a CASE budget."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

        def score(batch: pa.Table) -> pa.Table:
            texts = batch.column("text").to_pylist()
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "quality": pa.array(
                    [sql_round(qrow(t)["quality"], 6)
                     for t in texts], pa.float64()),
                "ws_tokens": pa.array(
                    [float(ws_token_count(t)) for t in texts],
                    pa.float64()),
            })

        return budget_head(
            docs.map_batches(score, batch_format="pyarrow"),
            "quality", "ws_tokens",
            budget={"en": 5000.0, "de": 2000.0, "fr": 1500.0},
            group_col="lang",
        )

    def orders_custkey_gini(sf_dir: str):
        """Key-skew audit scalar (pipelines/relational.gini_coefficient):
        Gini of the orders-per-customer distribution from the
        tie-invariant sorted-values identity, folded EXACTLY from the
        histogram of count values — O(distinct counts) rows reach the
        final partition, never the keys.  The oracle computes the same
        identity with a row_number window."""
        orders = _read(sf_dir, "orders", columns=["o_custkey"])
        return gini_coefficient(orders, ["o_custkey"])

    def docs_sample_ks_audit(sf_dir: str):
        """Sample-representativeness audit
        (pipelines/relational.ks_statistic): exact two-sample KS
        between the 1/16 md5 dev sample and the rest of the corpus
        over whitespace token counts — the one-number check that the
        carved sample still looks like the population.  Histogram of
        (value, side) counts rides the exchange; the oracle replays
        the cumulative-fraction supremum with SQL windows."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def prep(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_pylist()
            texts = batch.column("text").to_pylist()
            return pa.table({
                "ws_tokens": pa.array(
                    [float(ws_token_count(t)) for t in texts],
                    pa.float64()),
                "in_sample": pa.array(
                    [hashlib.md5(str(i).encode()).hexdigest()[-1] == "0"
                     for i in ids], pa.bool_()),
            })

        return ks_statistic(
            docs.map_batches(prep, batch_format="pyarrow"),
            "ws_tokens", "in_sample",
        )

    def kg_lineage_summary(sf_dir: str):
        """The north-rule lineage contract made queryable: every KG
        stage appends per-partition records (state/lineage.py —
        partition id, stage version, input fragment, row counts, triple
        counts); this entry ensures the KG is built, reads the lineage
        directory back as a Dataset, and rolls it up per stage —
        (stage, n_partitions, rows_in, rows_out, triples).  Rows-only
        driver check (partition granularity is an execution detail);
        the invariant audit cross-checks the counts against the
        checkpoints."""
        lineage_dir = os.path.join(_kg_dir(sf_dir), "lineage")
        if not os.path.isdir(lineage_dir):
            _kg_tables(sf_dir)  # cold: build the KG (writes lineage/)

        def partial(b: pa.Table) -> pa.Table:
            g = pa.table({
                "stage": b.column("stage"),
                "n_partitions": pa.array([1] * b.num_rows, pa.int64()),
                "rows_in": b.column("row_count_in"),
                "rows_out": b.column("row_count_out"),
                "triples": b.column("triple_count"),
            }).group_by(["stage"]).aggregate(
                [("n_partitions", "sum"), ("rows_in", "sum"),
                 ("rows_out", "sum"), ("triples", "sum")])
            return g.rename_columns(
                ["stage", "n_partitions", "rows_in", "rows_out",
                 "triples"])

        # lineage is many TINY per-batch files (metadata-bound as a
        # Dataset read); below config.LINEAGE_LOCAL_BYTES the whole
        # directory (judged by file sizes alone) folds in-process as one
        # `partial` batch — same arithmetic as the distributed branch
        names = [n for n in os.listdir(lineage_dir)
                 if n.endswith(".parquet")]
        total = sum(os.stat(os.path.join(lineage_dir, n)).st_size
                    for n in names)
        if config.KG_LOCAL_SERVE and total <= config.LINEAGE_LOCAL_BYTES:
            return ray.data.from_arrow(partial(
                pds.dataset(lineage_dir, format="parquet").to_table(
                    columns=["stage", "row_count_in", "row_count_out",
                             "triple_count"])))

        def reduce_stage(tbl: pa.Table) -> pa.Table:
            g = tbl.group_by(["stage"]).aggregate(
                [("n_partitions", "sum"), ("rows_in", "sum"),
                 ("rows_out", "sum"), ("triples", "sum")])
            return g.rename_columns(
                ["stage", "n_partitions", "rows_in", "rows_out",
                 "triples"])

        return grouped_apply(
            combine(ray.data.read_parquet(lineage_dir), partial),
            ["stage"], reduce_stage,
        )

    def docs_lang_confusion(sf_dir: str):
        """Language-ID confusion matrix — the eval that tells you
        whether the detector is good enough to route on: declared
        corpus label × detected label with counts.  Both labels derive
        from the SAME row, so there's no join — one map stage computes
        the heuristic, a pre-combined two-key groupby reduces.  The
        oracle composes the full SQL replay of the detector with the
        declared label."""
        docs = _read(sf_dir, "documents", columns=["text", "lang"])

        def detect(batch: pa.Table) -> pa.Table:
            det = [detect_language(t)
                   for t in batch.column("text").to_pylist()]
            g = pa.table({
                "declared": batch.column("lang"),
                "detected": pa.array(det, pa.string()),
            }).group_by(["declared", "detected"]).aggregate(
                [([], "count_all")])
            return g.rename_columns(["declared", "detected", "n"])

        def reduce_counts(tbl: pa.Table) -> pa.Table:
            g = tbl.group_by(["declared", "detected"]).aggregate(
                [("n", "sum")])
            return g.rename_columns(["declared", "detected", "n"])

        return grouped_apply(
            combine(docs, detect),
            ["declared", "detected"], reduce_counts,
        )

    def orders_price_deciles(sf_dir: str):
        """Range-splitter primitive (pipelines/relational.
        exact_quantiles): ALL nine decile cut points of o_totalprice
        computed together — one histogram pass per refinement round
        TOTAL (not per quantile), one final union-bracket fetch, no
        sort, no shuffle; DuckDB quantile_disc semantics per cut.
        This is how a range partitioner prices its boundaries at
        100 TB."""
        orders = _read(sf_dir, "orders", columns=["o_totalprice"])
        qs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        vals = exact_quantiles(orders, "o_totalprice", qs)
        return ray.data.from_arrow(pa.table({
            "q": pa.array(qs, pa.float64()),
            "value": pa.array(vals, pa.float64()),
        }))

    def orders_range_partition_hist(sf_dir: str):
        """The splitters actually partitioning: assign every order to
        the range partition its price falls in (searchsorted against
        the broadcast decile boundaries from exact_quantiles) and
        report the per-partition row counts — ten near-equal buckets,
        the balance a range exchange would see.  The oracle recomputes
        the boundaries with quantile_disc and the assignment with a
        boundary-count subquery."""
        orders = _read(sf_dir, "orders", columns=["o_totalprice"])
        qs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        bounds = np.array(exact_quantiles(orders, "o_totalprice", qs))

        def assign(batch: pa.Table) -> pa.Table:
            v = batch.column("o_totalprice").to_numpy(
                zero_copy_only=False)
            b = np.searchsorted(bounds, v, side="right")
            g = pa.table({"bucket": pa.array(b, pa.int64())}).group_by(
                ["bucket"]).aggregate([([], "count_all")])
            return g.rename_columns(["bucket", "n_rows"])

        def reduce_buckets(tbl: pa.Table) -> pa.Table:
            g = tbl.group_by(["bucket"]).aggregate([("n_rows", "sum")])
            return g.rename_columns(["bucket", "n_rows"])

        return grouped_apply(
            combine(orders, assign),
            ["bucket"], reduce_buckets,
        )

    def lineitem_fk_coverage(sf_dir: str):
        """Cross-table referential-integrity audit
        (pipelines/relational.fk_coverage): how much of
        lineitem.l_orderkey resolves in a parent deliberately missing
        every 7th orderkey — child (key, rows) combiner + parent
        distinct keys through ONE co-partitioned union exchange, four
        counters per partition, single-partition fold.  Oracle replays
        the planted filter with a LEFT JOIN."""
        li = _read(sf_dir, "lineitem", columns=["l_orderkey"])
        orders = _read(sf_dir, "orders", columns=["o_orderkey"])

        def drop_sevenths(b: pa.Table) -> pa.Table:
            ok = pc.cast(b.column("o_orderkey"), pa.int64())
            keep = pc.not_equal(
                pc.subtract(ok, pc.multiply(pc.divide(ok, 7), 7)), 0)
            return b.filter(keep)

        return fk_coverage(
            li, orders.map_batches(drop_sevenths,
                                   batch_format="pyarrow"),
            "l_orderkey", "o_orderkey",
        )

    def docs_dup_rate_by_source(sf_dir: str):
        """Per-source duplication report — the curation dashboard
        number that says WHICH feed is copying itself: rows, distinct
        texts and the dup rate per source.  Local (source, text-hash)
        dedup per batch, ONE hash exchange co-locating each (source,
        hash), per-partition distinct + row sums, tiny per-source fold
        (full text never rides the exchange).  Oracle:
        count(DISTINCT text) per source."""
        docs = _read(sf_dir, "documents", columns=["source", "text"])

        def local(batch: pa.Table) -> pa.Table:
            srcs = batch.column("source").to_pylist()
            hs = [hashlib.blake2b((t or "").encode(),
                                  digest_size=16).hexdigest()
                  for t in batch.column("text").to_pylist()]
            g = pa.table({
                "source": pa.array(srcs, pa.string()),
                "__h": pa.array(hs, pa.string()),
            }).group_by(["source", "__h"]).aggregate(
                [([], "count_all")])
            return g.rename_columns(["source", "__h", "n"])

        def per_partition(tbl: pa.Table) -> pa.Table:
            df = tbl.to_pandas().groupby(["source", "__h"],
                                         as_index=False)["n"].sum()
            agg = df.groupby("source").agg(
                n_rows=("n", "sum"), n_distinct=("__h", "size")
            ).reset_index()
            return pa.Table.from_pandas(agg, preserve_index=False)

        parts = grouped_apply(
            combine(docs, local),
            ["source", "__h"], per_partition,
        )

        def finish(tbl: pa.Table) -> pa.Table:
            df = tbl.to_pandas().groupby("source", as_index=False).sum()
            dup = 1.0 - df["n_distinct"] / df["n_rows"]
            return pa.table({
                "source": pa.array(df["source"], pa.string()),
                "n_rows": pa.array(df["n_rows"], pa.int64()),
                "n_distinct": pa.array(df["n_distinct"], pa.int64()),
                "dup_rate": pa.array(sql_round(dup, 6), pa.float64()),
            })

        return grouped_apply(parts, ["source"],
                             lambda t: finish(t))

    def docs_common_lines(sf_dir: str):
        """Top-20 lines by the number of DISTINCT documents containing
        them — the boilerplate census (what strip_boilerplate would
        strip, surfaced as a report).  Vectorized line explode +
        local (line, doc) dedup, distinct-doc counting through the
        heavy-hitters exchange.  Oracle: unnest split lines, distinct
        doc counts, top 20 by (count desc, line)."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def explode(batch: pa.Table) -> pa.Table:
            split = pc.split_pattern(batch.column("text"), "\n")
            lens = pc.list_value_length(split).to_numpy(
                zero_copy_only=False)
            ids = np.repeat(
                batch.column("doc_id").to_numpy(zero_copy_only=False),
                lens)
            lines = pc.list_flatten(split)
            mask = pc.not_equal(lines, "").to_numpy(
                zero_copy_only=False)
            t = pa.table({
                "line": lines.filter(pa.array(mask)),
                "doc_id": pa.array(ids[mask]),
            })
            # local dedup: one (line, doc) pair per batch
            return t.group_by(["line", "doc_id"]).aggregate([])

        pairs = docs.map_batches(explode, batch_format="pyarrow")
        counted = distinct_count(pairs, ["line"], "doc_id", "n_docs")

        # each line is fully counted in ONE row, so per-block top-20
        # candidates + a blocks×20 driver merge give the exact global
        # top-20 (the heavy-hitters fold) — never the full line table.
        def local_topk(b: pa.Table) -> pa.Table:
            df = b.to_pandas().sort_values(
                ["n_docs", "line"], ascending=[False, True]).head(20)
            return pa.Table.from_pandas(df, preserve_index=False)

        cands = counted.map_batches(
            local_topk, batch_format="pyarrow").to_pandas()
        top = cands.sort_values(["n_docs", "line"],
                                ascending=[False, True]).head(20)

        return ray.data.from_pandas(top.reset_index(drop=True))

    def docs_lang_sample_ks(sf_dir: str):
        """Stratified sample audit (pipelines/relational.grouped_ks):
        the md5 1/16 dev sample checked for representativeness WITHIN
        each language over token counts — an overall-balanced sample
        can still skew inside a stratum.  Per-(lang, value, side)
        histogram combiner, one lang-keyed exchange, exact supremum
        per group; the oracle replays it with lang-partitioned
        windows."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

        def prep(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_pylist()
            texts = batch.column("text").to_pylist()
            return pa.table({
                "lang": batch.column("lang"),
                "ws_tokens": pa.array(
                    [float(ws_token_count(t)) for t in texts],
                    pa.float64()),
                "in_sample": pa.array(
                    [hashlib.md5(str(i).encode()).hexdigest()[-1] == "0"
                     for i in ids], pa.bool_()),
            })

        return grouped_ks(
            docs.map_batches(prep, batch_format="pyarrow"),
            "lang", "ws_tokens", "in_sample",
        )

    def docs_rendezvous_resharding(sf_dir: str):
        """Elastic resharding audit — what growing the cluster 8→9
        shards costs in data movement: rendezvous (highest-random-
        weight) assignment moves only ≈1/9 of documents, while naive
        ``hash % n`` moves ≈8/9; one row with both fractions.  Pure
        map (per-doc max over n shard hashes) + constant-size
        counters; md5 keeps it oracle-replayable — the oracle
        recomputes every assignment with a documents × shards cross
        join and argmax."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def hrw(i: int, n: int) -> int:
            return max(
                range(n),
                key=lambda s: hashlib.md5(
                    f"{i}:{s}".encode()).hexdigest())

        def assign(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_pylist()
            moved_hrw = moved_mod = 0
            for i in ids:
                if hrw(i, 8) != hrw(i, 9):
                    moved_hrw += 1
                if i % 8 != i % 9:
                    moved_mod += 1
            return pa.table({
                "n_docs": pa.array([len(ids)], pa.int64()),
                "moved_hrw": pa.array([moved_hrw], pa.int64()),
                "moved_mod": pa.array([moved_mod], pa.int64()),
            })

        def finish(tbl: pa.Table) -> pa.Table:
            df = tbl.to_pandas().sum()
            n = int(df["n_docs"])
            mh, mm = int(df["moved_hrw"]), int(df["moved_mod"])
            return pa.table({
                "n_docs": pa.array([n], pa.int64()),
                "moved_hrw": pa.array([mh], pa.int64()),
                "moved_mod": pa.array([mm], pa.int64()),
                "hrw_frac": pa.array([sql_round(mh / n, 6)], pa.float64()),
                "mod_frac": pa.array([sql_round(mm / n, 6)], pa.float64()),
            })

        return grouped_apply(combine(docs, assign), [], finish)

    def orders_analyze(sf_dir: str):
        """ANALYZE TABLE (pipelines/relational.analyze_table): the
        planner statistics — rows, nulls, NDV, min, max per numeric
        column — that every join-order / pushdown / partitioning
        decision starts from, as one operator: map-side stat folds +
        locally-deduped distinct streams through ONE shared
        (col, value) exchange.  Oracle: per-column SQL aggregates."""
        orders = _read(sf_dir, "orders",
                       columns=["o_orderkey", "o_custkey", "o_totalprice"])
        return analyze_table(
            orders, ["o_orderkey", "o_custkey", "o_totalprice"])

    def docs_hash_sample(sf_dir: str):
        """Deterministic hash sampling (the scale-correct way to sample
        a corpus: no shuffle, no RNG state, reproducible across runs and
        partitionings) — keep doc_id where md5(doc_id) ends in '0'
        (mod-16 == 0, 1/16 ≈ 6.25%). md5 is per-row Python here ONLY
        because the oracle needs DuckDB's md5(); the production sampler
        is the vectorized hash_pandas_object path the shuffle layer
        uses."""
        docs = _read(sf_dir, "documents",
                     columns=["doc_id", "source", "n_chars"])

        def sample(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_pylist()
            keep = [
                hashlib.md5(str(i).encode()).hexdigest()[-1] == "0"
                for i in ids
            ]
            return batch.filter(pa.array(keep))

        return docs.map_batches(sample, batch_format="pyarrow")

    def docs_decontaminated(sf_dir: str):
        """Benchmark decontamination over the documents corpus: docs
        with doc_id % 97 == 0 stand in for the benchmark/eval set; every
        other doc is dropped if any of its 8-token shingles collides
        with the benchmark bloom mask (max_overlap=0). Rows-only —
        shingle hashing isn't SQL-expressible; semantics pinned by
        tests/test_dedup_similarity.py."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def split(want_bench: bool):
            def fn(b: pa.Table) -> pa.Table:
                ids = b.column("doc_id")
                mod = pc.subtract(
                    ids, pc.multiply(pc.divide(ids, 97), 97)
                )  # doc_id % 97 (ids are non-negative)
                is_bench = pc.equal(mod, 0)
                return b.filter(is_bench if want_bench
                                else pc.invert(is_bench))

            return fn

        bench = docs.map_batches(split(True), batch_format="pyarrow")
        corpus = docs.map_batches(split(False), batch_format="pyarrow")
        out = ngram_decontaminate(corpus, bench, n=8)
        return out.map_batches(
            lambda b: pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "bench_overlap": b.column("bench_overlap"),
                }
            ),
            batch_format="pyarrow",
        )

    def docs_graph_triangles(sf_dir: str):
        """Exact triangle count (degree-orientation algorithm) over a
        deterministic graph on the document ids: a chain (i, i+1), skip
        edges (i, i+2) for even i — one triangle per even i — plus a
        K10 clique on ids 0-9; reversed duplicates are injected to
        exercise canonicalization. Oracled by a DuckDB 3-way self-join
        over the canonical a<b<c ordering."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def build_edges(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            src = [ids, ids[ids % 2 == 0]]
            dst = [ids + 1, ids[ids % 2 == 0] + 2]
            # reversed duplicates of the chain for ids % 3 == 0
            rev = ids[ids % 3 == 0]
            src.append(rev + 1)
            dst.append(rev)
            return pa.table({
                "src": pa.array(np.concatenate(src), pa.int64()),
                "dst": pa.array(np.concatenate(dst), pa.int64()),
            })

        chain = docs.map_batches(build_edges, batch_format="pyarrow")
        # drop edges pointing past the last doc id
        max_id = docs.max("doc_id")
        chain = chain.filter(expr=f"dst <= {int(max_id)}")
        k10 = [(i, j) for i in range(10) for j in range(10) if i != j]
        clique = ray.data.from_arrow(pa.table({
            "src": pa.array([a for a, _ in k10], pa.int64()),
            "dst": pa.array([b for _, b in k10], pa.int64()),
        }))
        return triangle_count(chain.union(clique))

    def token_pmi_pairs(sf_dir: str):
        """Document-level PMI for all pairs of a fixed 8-token
        vocabulary — per-batch presence-matrix outer products reduce
        the whole corpus to one 8x8 sufficient-statistics matrix."""
        vocab = ["batch", "hash", "join", "merge", "scan", "sort",
                 "table", "window"]
        return token_pmi(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            vocab,
        )

    def embedding_pca_project(sf_dir: str):
        """2-component PCA projection of the embeddings table —
        constant-size sufficient-stats covariance + driver eigh +
        map-side projection. Rows-only (eigendecomposition isn't
        SQL-expressible); math pinned vs numpy in tests."""
        return embedding_pca(
            _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
            n_components=2,
        )

    def embedding_kmeans_clusters(sf_dir: str):
        """Deterministic k-means cluster assignment (8 spherical
        clusters, the IVF quantizer's training loop). Rows-only —
        iterative; init/assignment determinism pinned by the IVF
        tests."""
        emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
        dim = len(_query_vec(sf_dir))
        return kmeans_assign(emb, dim=dim, nlist=8)

    def docs_weighted_sample(sf_dir: str):
        """Deterministic weighted sample (A-Res, weight = n_chars):
        top-50 by md5-derived priority u^(1/w) — the draw replays
        byte-for-byte in SQL."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
        return weighted_sample(docs, "n_chars", k=50)

    def q7_nation_volume(sf_dir: str):
        """TPC-H Q7 shape — cross-nation trade volume by year between
        NATION_3 and NATION_8: supplier and customer nations (filtered
        to the two nations) are broadcast lookups; lineitem prunes at
        the read (shipdate window), keeps the two nations' suppliers and
        pre-aggregates per (orderkey, supp_nation, year); orders keep
        the two nations' customers; ONE big-big fused aggregate⋈join
        exchange runs the opposite-nation filter; a final tiny exchange
        groups by (supp_nation, cust_nation, year)."""
        nat = _dim(sf_dir, "nation", ["n_nationkey", "n_name"],
                   filter=pc.field("n_name").isin(["NATION_3", "NATION_8"]))
        keys = nat.column("n_nationkey").to_pylist()
        supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"],
                    filter=pc.field("s_nationkey").isin(keys))
        cust = _dim(sf_dir, "customer", ["c_custkey", "c_nationkey"],
                    filter=pc.field("c_nationkey").isin(keys))

        li = broadcast_lookup(
            _read(sf_dir, "lineitem",
                  columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                           "l_discount", "l_shipdate"],
                  filter=((pc.field("l_shipdate")
                           >= pa.scalar(pd.Timestamp("1996-01-01")))
                          & (pc.field("l_shipdate")
                             < pa.scalar(pd.Timestamp("1999-01-01"))))),
            supp, "l_suppkey", "s_suppkey", ["s_nationkey"])

        def li_partial(batch: pa.Table) -> pa.Table:
            year = pc.year(batch.column("l_shipdate"))
            vol = pc.multiply(
                batch.column("l_extendedprice"),
                pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
            )
            t = pa.table({
                "l_orderkey": batch.column("l_orderkey"),
                "s_nat": pc.cast(batch.column("s_nationkey"), pa.int64()),
                "l_year": pc.cast(year, pa.int64()),
                "vol": vol,
            })
            agg = t.group_by(
                ["l_orderkey", "s_nat", "l_year"]
            ).aggregate([("vol", "sum")])
            return agg.rename_columns(
                ["l_orderkey", "s_nat", "l_year", "vol"]
            )

        fact = combine(li, li_partial)
        orders = broadcast_lookup(
            _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
            cust, "o_custkey", "c_custkey", ["c_nationkey"])

        _S = "__side"
        usch = pa.schema([
            pa.field(_S, pa.int8()), pa.field("k", pa.int64()),
            pa.field("s_nat", pa.int64()), pa.field("l_year", pa.int64()),
            pa.field("vol", pa.float64()),
            pa.field("c_nat", pa.int64()),
        ])

        def tag_fact(b: pa.Table) -> pa.Table:
            return pa.table({
                _S: pa.array(np.zeros(b.num_rows, np.int8)),
                "k": b.column("l_orderkey"),
                "s_nat": b.column("s_nat"),
                "l_year": b.column("l_year"),
                "vol": b.column("vol"),
                "c_nat": pa.nulls(b.num_rows, pa.int64()),
            }, schema=usch)

        def tag_ord(b: pa.Table) -> pa.Table:
            z = pa.nulls(b.num_rows, pa.int64())
            return pa.table({
                _S: pa.array(np.ones(b.num_rows, np.int8)),
                "k": b.column("o_orderkey"),
                "s_nat": z, "l_year": z,
                "vol": pa.nulls(b.num_rows, pa.float64()),
                "c_nat": pc.cast(b.column("c_nationkey"), pa.int64()),
            }, schema=usch)

        def probe(t: pa.Table) -> pa.Table:
            pdf = t.to_pandas()
            f = pdf[pdf[_S] == 0]
            o = pdf[pdf[_S] == 1][["k", "c_nat"]]
            if len(f) == 0 or len(o) == 0:
                return pa.table({
                    "s_nat": pa.array([], pa.int64()),
                    "c_nat": pa.array([], pa.int64()),
                    "l_year": pa.array([], pa.int64()),
                    "vol": pa.array([], pa.float64()),
                })
            m = f.merge(o, on="k", how="inner",
                        suffixes=("", "_o"))
            m = m[m["c_nat_o"] != m["s_nat"]]
            out = pd.DataFrame({
                "s_nat": m["s_nat"].to_numpy(np.int64),
                "c_nat": m["c_nat_o"].to_numpy(np.int64),
                "l_year": m["l_year"].to_numpy(np.int64),
                "vol": m["vol"].to_numpy(np.float64),
            })
            g = out.groupby(["s_nat", "c_nat", "l_year"],
                            as_index=False)["vol"].sum()
            return pa.Table.from_pandas(g, preserve_index=False)

        unioned = fact.map_batches(tag_fact, batch_format="pyarrow") \
            .union(orders.map_batches(tag_ord, batch_format="pyarrow"))
        partials = grouped_apply(unioned, ["k"], probe,
                                 batch_format="pyarrow")

        names = dict(zip(nat.column("n_nationkey").to_pylist(),
                         nat.column("n_name").to_pylist()))

        def final(t: pa.Table) -> pa.Table:
            pdf = t.to_pandas()
            g = pdf.groupby(["s_nat", "c_nat", "l_year"],
                            as_index=False)["vol"].sum()
            return pa.table({
                "supp_nation": pa.array(
                    [names[int(x)] for x in g["s_nat"]], pa.string()
                ),
                "cust_nation": pa.array(
                    [names[int(x)] for x in g["c_nat"]], pa.string()
                ),
                "l_year": pa.array(g["l_year"].to_numpy(np.int64)),
                "revenue": pa.array(sql_round(g["vol"], 2)),
            })

        out = grouped_apply(partials, ["s_nat", "c_nat", "l_year"],
                            final,
                            batch_format="pyarrow")
        # schema seed: an empty result (possible at tiny sf where the
        # two nations have no suppliers) must still carry the schema
        seed = ray.data.from_arrow(pa.table({
            "supp_nation": pa.array([], pa.string()),
            "cust_nation": pa.array([], pa.string()),
            "l_year": pa.array([], pa.int64()),
            "revenue": pa.array([], pa.float64()),
        }))
        return out.union(seed)

    def docs_bpe_pair_counts(sf_dir: str):
        """Top-20 adjacent character pairs inside whitespace tokens —
        the argmax table of one BPE training merge round; per-batch
        vectorized offset-slice counting + one pair-keyed exchange."""
        return bpe_pair_counts(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            k=20,
        )

    def docs_graph_kcore(sf_dir: str):
        """5-core of the triangles query's deterministic graph (chain +
        even-skip + K10 clique on ids 0-9): peeling removes everything
        but the clique, whose within-core degree is 9. Rows-only —
        iterative peeling isn't reasonably SQL-expressible; semantics
        pinned by tests/test_graph.py vs a brute peeling reference."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def build_edges(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id").to_numpy(zero_copy_only=False)
            src = [ids, ids[ids % 2 == 0]]
            dst = [ids + 1, ids[ids % 2 == 0] + 2]
            return pa.table({
                "src": pa.array(np.concatenate(src), pa.int64()),
                "dst": pa.array(np.concatenate(dst), pa.int64()),
            })

        chain = docs.map_batches(build_edges, batch_format="pyarrow")
        max_id = docs.max("doc_id")
        chain = chain.filter(expr=f"dst <= {int(max_id)}")
        k10 = [(i, j) for i in range(10) for j in range(10) if i != j]
        clique = ray.data.from_arrow(pa.table({
            "src": pa.array([a for a, _ in k10], pa.int64()),
            "dst": pa.array([b for _, b in k10], pa.int64()),
        }))
        return k_core(chain.union(clique), k=5)

    def events_funnel(sf_dir: str):
        """Ordered view->click->purchase conversion funnel: stage i
        counts users whose stage-i event happens at or after their
        first qualifying stage-(i-1) event. One exchange on user_id."""
        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_type", "ts"],
        )
        return funnel_counts(ev, ["view", "click", "purchase"])

    def events_weekly_retention(sf_dir: str):
        """Weekly cohort retention triangle: users cohorted by the
        week of their first event, counted in each later week they
        return (offsets 0-3). One user-keyed exchange + one tiny
        reduce."""
        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "ts"],
        )
        return retention_counts(ev)

    def customer_order_counts_left(sf_dir: str):
        """LEFT OUTER JOIN: every customer with their order count, 0
        for customers who never ordered — aggregate-before-join (the
        orders side reduces to (custkey, n) before the single
        co-partitioned exchange)."""
        cust = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_name"],
        )

        def partial_counts(b: pa.Table) -> pa.Table:
            agg = b.group_by(["o_custkey"]).aggregate([([], "count_all")])
            return agg.rename_columns(["o_custkey", "n"])

        def sum_counts(t: pa.Table) -> pa.Table:
            agg = t.group_by(["o_custkey"]).aggregate([("n", "sum")])
            return pa.table({
                "o_custkey": agg.column("o_custkey"),
                "n": pc.cast(agg.column("n_sum"), pa.int64()),
            })

        # per-batch count combiner + one small exchange — never the
        # (slow) native Aggregate
        agg = grouped_apply(
            combine(ray.data.read_parquet(
                os.path.join(sf_dir, "orders.parquet"),
                columns=["o_custkey"],
            ), partial_counts),
            ["o_custkey"], sum_counts,
            batch_format="pyarrow",
        )
        joined = left_join(cust, agg, "c_custkey", "o_custkey",
                           ["o_custkey", "n"])
        return joined.map_batches(
            lambda b: pa.table({
                "c_custkey": b.column("c_custkey"),
                "c_name": b.column("c_name"),
                "n_orders": pc.fill_null(b.column("n"), 0),
            }),
            batch_format="pyarrow",
        )

    def orders_price_percent_rank(sf_dir: str):
        """PERCENT_RANK() over order price within each priority class —
        min-rank tie semantics, one exchange on the priority key."""
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
        )
        out = window_percent_rank(
            orders, ["o_orderpriority"], "o_totalprice",
        )
        return out.map_batches(
            lambda b: b.select(["o_orderkey", "o_orderpriority",
                                "pct_rank"]),
            batch_format="pyarrow",
        )

    def docs_bench_overlap(sf_dir: str):
        """EXACT benchmark n-gram overlap with a SQL oracle: docs 0-19
        are the eval set, the rest the corpus; a 25-token leak span is
        injected identically on both sides (bench doc 0 + corpus docs
        with doc_id%10==1), so leaked docs show a nonzero exact
        distinct-8-gram overlap fraction while clean docs are 0.0. The
        engine bloom-prunes before the exact co-partitioned verify;
        the oracle is a plain distinct-window join."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        span = ("the quick brown fox jumps over the lazy dog while "
                "seventeen astronauts quietly measure forty two "
                "distinct orbital parameters during the long winter "
                "night shift")

        def bench_side(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id")
            keep = pc.less(ids, 20)
            b = b.filter(keep)
            leak = pc.equal(b.column("doc_id"), 0)
            txt = pc.binary_join_element_wise(
                b.column("text"),
                pc.if_else(leak, pa.scalar(" " + span), pa.scalar("")),
                "",
            )
            return pa.table({"doc_id": b.column("doc_id"), "text": txt})

        def corpus_side(b: pa.Table) -> pa.Table:
            ids = b.column("doc_id")
            b = b.filter(pc.greater_equal(ids, 20))
            ids = b.column("doc_id")
            mod10 = pc.subtract(ids, pc.multiply(pc.divide(ids, 10), 10))
            leak = pc.equal(mod10, 1)
            txt = pc.binary_join_element_wise(
                b.column("text"),
                pc.if_else(leak, pa.scalar(" " + span), pa.scalar("")),
                "",
            )
            return pa.table({"doc_id": ids, "text": txt})

        bench = docs.map_batches(bench_side, batch_format="pyarrow")
        corpus = docs.map_batches(corpus_side, batch_format="pyarrow")
        return ngram_overlap_exact(corpus, bench, n=8)

    def docs_stratified_sample(sf_dir: str):
        """Stratified deterministic sampling: per-group rates out of 16
        hash slots (en 4/16 = 25%, other languages 1/16) keyed on the
        same md5 slot as docs_hash_sample — shuffle-free, reproducible
        under any partitioning, and the per-stratum rate is data, not
        RNG state. The production path uses the vectorized
        hash_pandas_object; md5 here is solely for DuckDB oracle
        parity."""
        rates = {"en": 4}  # hex-digit threshold per lang; default 1
        docs = _read(sf_dir, "documents", columns=["doc_id", "lang", "source"])

        def sample(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_pylist()
            langs = batch.column("lang").to_pylist()
            keep = [
                int(hashlib.md5(str(i).encode()).hexdigest()[-1], 16)
                < rates.get(lang, 1)
                for i, lang in zip(ids, langs)
            ]
            return batch.filter(pa.array(keep))

        return docs.map_batches(sample, batch_format="pyarrow")

    def docs_pii_redacted(sf_dir: str):
        """PII redaction with byte-exact RE2 oracle parity: the corpus
        has no PII, so deterministic synthetic PII (email, IP, phone
        derived from doc_id) is appended identically on the Ray and SQL
        sides, then the engine's vectorized redaction chain
        (pipelines/clean.redact_pii_array) must byte-match DuckDB's
        regexp_replace — both are RE2."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def redact(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id")
            s = pc.cast(ids, pa.string())
            ip_oct = pc.cast(
                pc.subtract(ids, pc.multiply(pc.divide(ids, 200), 200)),
                pa.string(),
            )
            phone = pc.cast(
                pc.add(
                    pc.subtract(ids, pc.multiply(pc.divide(ids, 9000), 9000)),
                    1000,
                ),
                pa.string(),
            )
            injected = pc.binary_join_element_wise(
                batch.column("text"), " contact user", s,
                "@example.com from 10.0.", ip_oct, ".1 call 415-555-",
                phone, "",
            )
            return pa.table({
                "doc_id": ids,
                "clean_text": redact_pii_array(injected),
            })

        return docs.map_batches(redact, batch_format="pyarrow")

    def docs_repetition_scores(sf_dir: str):
        """Gopher-style repetition signals per document (token count,
        distinct fraction, top-token share, top-bigram share) — a pure
        map stage, one flatten + two vectorized groupbys per batch."""
        return repetition_scores(
            _read(sf_dir, "documents", columns=["doc_id", "text"])
        )

    def docs_packed_sequences(sf_dir: str):
        """GPT-style concat-and-chunk sequence packing into 256-token
        training sequences: docs shard by md5(doc_id)%4 (md5 solely for
        oracle parity; production uses the vectorized pandas hash), lay
        end-to-end in doc_id order per shard, and the token stream cuts
        every 256 tokens — one segment row per (doc, pack) with offsets.
        One hash exchange; layout fully vectorized per partition."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def prep(batch: pa.Table) -> pa.Table:
            split = pc.split_pattern(batch.column("text"), " ")
            lens = pc.list_value_length(split).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            toks = pc.list_flatten(split).to_numpy(zero_copy_only=False)
            empty = toks == ""
            if empty.any():
                doc_idx = np.repeat(np.arange(len(lens)), lens)
                lens = lens - np.bincount(
                    doc_idx[empty], minlength=len(lens)
                )
            shard = [
                int(hashlib.md5(str(i).encode()).hexdigest()[-1], 16) % 4
                for i in batch.column("doc_id").to_pylist()
            ]
            return pa.table({
                "shard": pa.array(shard, pa.int64()),
                "doc_id": batch.column("doc_id"),
                "n_tok": pa.array(lens),
            })

        return pack_sequences(
            docs.map_batches(prep, batch_format="pyarrow"),
            "shard", "n_tok", max_len=256,
        )

    def docs_per_source_cap(sf_dir: str):
        """Per-domain document cap — the web-corpus balance step (keep
        at most 10 docs per source, smallest doc_id first), expressed as
        the existing window_topk operator (combiner truncates each batch
        before the exchange)."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "source"])
        return window_topk(docs, ["source"], "doc_id", 10,
                           tie_col="doc_id", ascending=True)

    def customer_order_totals_outer(sf_dir: str):
        """Distributed FULL OUTER JOIN: per-customer order totals vs
        high-balance customers — unmatched rows survive from BOTH sides
        (customers with no orders; order totals whose customer fails the
        balance filter). Totals pre-aggregate per batch before the one
        co-partitioned exchange."""
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey", "o_totalprice"],
        )

        def partial(batch: pa.Table) -> pa.Table:
            g = batch.group_by("o_custkey").aggregate(
                [("o_totalprice", "sum"), ([], "count_all")]
            )
            return pa.table({
                "custkey": g.column("o_custkey"),
                "__sum": g.column("o_totalprice_sum"),
                "__cnt": g.column("count_all"),
            })

        def final(batch: pa.Table) -> pa.Table:
            g = batch.group_by("custkey").aggregate(
                [("__sum", "sum"), ("__cnt", "sum")]
            )
            return pa.table({
                "custkey": g.column("custkey"),
                "order_cnt": pc.cast(g.column("__cnt_sum"), pa.int64()),
                "total_price": sql_round(g.column("__sum_sum"), 2),
            })

        totals = grouped_apply(
            combine(orders, partial),
            ["custkey"], final,
            batch_format="pyarrow",
        )
        cust = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_name", "c_acctbal"],
            filter=(pc.field("c_acctbal") > 5000.0),
        ).select_columns(["c_custkey", "c_name"])
        return full_outer_join(totals, cust, "custkey", "c_custkey",
                               ["c_custkey", "c_name"])

    def events_prev_gap(sf_dir: str):
        """LAG window: microseconds since the same user's previous
        event (null for each user's first) — ts carried as epoch-us
        int64 through the exchange for exact integer oracle parity."""
        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_id", "ts"],
        )

        def to_us(batch: pa.Table) -> pa.Table:
            return pa.table({
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "ts_us": pc.cast(batch.column("ts"), pa.int64()),
            })

        lagged = window_lag(
            ev.map_batches(to_us, batch_format="pyarrow"),
            ["user_id"], "ts_us", "ts_us", "prev_us",
            tie_col="event_id",
        )

        def gap(pdf):
            # shift() degraded prev_us to float64+NaN; both epoch-us
            # values sit far below 2^53 so the difference is exact —
            # restore a nullable int64 for integer oracle parity
            return pd.DataFrame({
                "user_id": pdf["user_id"].to_numpy(),
                "event_id": pdf["event_id"].to_numpy(),
                "gap_us": pd.array(
                    (pdf["ts_us"] - pdf["prev_us"]).to_numpy(),
                    dtype="Int64",
                ),
            })

        return lagged.map_batches(gap, batch_format="pandas")

    def orders_priority_mode(sf_dir: str):
        """Per-group MODE (most frequent o_orderpriority per status,
        ties toward the smaller value) — per-batch count combiner, one
        exchange of distinct triples."""
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderstatus", "o_orderpriority"],
        )
        return grouped_mode(orders, ["o_orderstatus"], "o_orderpriority")

    def lineitem_cube_qty(sf_dir: str):
        """GROUP BY CUBE over (returnflag, linestatus): all four
        grouping sets from ONE pass over the raw data — coarser levels
        cascade off the finest aggregate."""
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_returnflag", "l_linestatus", "l_quantity"],
        )
        return cube_sum(li, ["l_returnflag", "l_linestatus"],
                        "l_quantity")

    def lineitem_qty_quantile_sketch(sf_dir: str):
        """t-digest per-group quantiles (p50/p95) — the mergeable-sketch
        scale path for unbounded groups; semantics pinned by
        tests/test_tdigest.py (rank-error bound vs the exact operator),
        not SQL-expressible."""
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_returnflag", "l_quantity"],
        )
        return grouped_quantile_sketch(li, ["l_returnflag"],
                                       "l_quantity", [0.5, 0.95])

    def docs_pagerank(sf_dir: str):
        """5-iteration PageRank (pipelines/graph.pagerank) on a
        deterministic synthetic graph over the documents table (two
        pseudo-random out-edges per doc, both sides derive the identical
        edge list) — pins the one-task kernel's recurrence against an
        unrolled SQL oracle, like dup_clusters_chain does for CC."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(mult: int, add: int):
                x = pc.add(pc.multiply(ids, mult), add)
                return pc.subtract(x, pc.multiply(pc.divide(x, 500), 500))

            src = pa.concat_arrays([ids.combine_chunks()] * 2)
            dst = pa.concat_arrays([
                mod500(7, 3).combine_chunks(),
                mod500(13, 101).combine_chunks(),
            ])
            return pa.table({"src": src, "dst": dst})

        return pagerank(docs.map_batches(edges, batch_format="pyarrow"),
                        iters=5)

    def docs_hits(sf_dir: str):
        """5-iteration HITS (pipelines/graph.hits) on the same
        deterministic synthetic doc graph as docs_pagerank — hubs vs
        authorities with per-iteration L1 normalization, pinned
        against an unrolled SQL oracle (the same join pair per
        iteration)."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(mult: int, add: int):
                x = pc.add(pc.multiply(ids, mult), add)
                return pc.subtract(x, pc.multiply(pc.divide(x, 500), 500))

            src = pa.concat_arrays([ids.combine_chunks()] * 2)
            dst = pa.concat_arrays([
                mod500(7, 3).combine_chunks(),
                mod500(13, 101).combine_chunks(),
            ])
            return pa.table({"src": src, "dst": dst})

        return hits(docs.map_batches(edges, batch_format="pyarrow"),
                    iters=5)

    def docs_bfs_depths(sf_dir: str):
        """Fixed-depth multi-source BFS (pipelines/graph.bfs_depths)
        on the docs_pagerank/docs_hits synthetic edge list: shortest
        hop distance from the doc_id % 101 == 0 seed set within 4
        directed hops — the traversal primitive under GraphRAG
        multi-hop context expansion (the reference walks neighbors one
        hop per query in core/retrieval.py; this is the corpus-wide
        batch form). Pinned against a recursive-CTE oracle: walks of
        length ≤ 4, MIN(d) per node = the same shortest distance."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(mult: int, add: int):
                x = pc.add(pc.multiply(ids, mult), add)
                return pc.subtract(x, pc.multiply(pc.divide(x, 500), 500))

            src = pa.concat_arrays([ids.combine_chunks()] * 2)
            dst = pa.concat_arrays([
                mod500(7, 3).combine_chunks(),
                mod500(13, 101).combine_chunks(),
            ])
            return pa.table({"src": src, "dst": dst})

        def seeds(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())
            rem = pc.subtract(ids, pc.multiply(pc.divide(ids, 101), 101))
            return pa.table({"node": pc.filter(ids, pc.equal(rem, 0))})

        return bfs_depths(
            docs.map_batches(edges, batch_format="pyarrow"),
            docs.map_batches(seeds, batch_format="pyarrow"),
            max_depth=4,
        ).sort("node")

    def docs_shortest_paths(sf_dir: str):
        """Bounded-hop WEIGHTED shortest paths
        (pipelines/graph.shortest_paths — Bellman-Ford relaxation
        rounds, the weighted twin of docs_bfs_depths°) on the
        synthetic doc graph with planted integer weights
        ((src+dst) % 7 + 1): min path cost within 4 hops from the
        doc_id % 101 == 0 seeds. Recursive-CTE oracle enumerates
        (node, cost, hops ≤ 4) walks; MIN(cost) matches exactly
        (int64 throughout)."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(mult: int, add: int):
                x = pc.add(pc.multiply(ids, mult), add)
                return pc.subtract(x, pc.multiply(pc.divide(x, 500), 500))

            src = pa.concat_arrays([ids.combine_chunks()] * 2)
            dst = pa.concat_arrays([
                mod500(7, 3).combine_chunks(),
                mod500(13, 101).combine_chunks(),
            ])
            sd = pc.add(src, dst)
            w = pc.add(pc.subtract(sd, pc.multiply(pc.divide(sd, 7), 7)),
                       1)
            return pa.table({"src": src, "dst": dst, "w": w})

        def seeds(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())
            rem = pc.subtract(ids, pc.multiply(pc.divide(ids, 101), 101))
            return pa.table({"node": pc.filter(ids, pc.equal(rem, 0))})

        return shortest_paths(
            docs.map_batches(edges, batch_format="pyarrow"),
            docs.map_batches(seeds, batch_format="pyarrow"),
            max_hops=4,
        ).sort("node")

    def docs_graph_assortativity(sf_dir: str):
        """Out-in degree assortativity
        (pipelines/graph.degree_assortativity) of the synthetic doc
        graph: Pearson over edges of (src out-degree, dst in-degree) —
        hubs-link-to-hubs vs broadcast structure. Integer sums
        accumulate exactly (Python-int partials) and the single final
        DOUBLE expression mirrors the oracle's cast order, so it
        hashes identically."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])

        def edges(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column("doc_id"), pa.int64())

            def mod500(arr, mult: int, add: int):
                x = pc.add(pc.multiply(arr, mult), add)
                return pc.subtract(x, pc.multiply(pc.divide(x, 500), 500))

            # a third edge for every doc_id % 3 == 0 varies the
            # out-degree (the 2-regular base graph has zero x-variance)
            def flat(a):
                return (a.combine_chunks()
                        if isinstance(a, pa.ChunkedArray) else a)

            rem3 = pc.subtract(ids, pc.multiply(pc.divide(ids, 3), 3))
            extra = flat(pc.filter(ids, pc.equal(rem3, 0)))
            src = pa.concat_arrays([flat(ids)] * 2 + [extra])
            dst = pa.concat_arrays([
                flat(mod500(ids, 7, 3)),
                flat(mod500(ids, 13, 101)),
                flat(mod500(extra, 11, 7)),
            ])
            return pa.table({"src": src, "dst": dst})

        return degree_assortativity(
            docs.map_batches(edges, batch_format="pyarrow"))

    def docs_token_cooccurrence(sf_dir: str):
        """Open-vocabulary co-occurrence PMI
        (pipelines/graph.cooccurrence_pmi) over long tokens (≥5 chars)
        by document presence: the co-mention edge builder, pinned
        against a SQL replay of dedupe → cap → self-join pairs →
        marginal joins → log2 PMI. min_count=2 keeps the pair table
        tight."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def long_tokens(b: pa.Table) -> pa.Table:
            toks = pc.split_pattern(b.column("text"), " ")
            lens = pc.list_value_length(toks).to_numpy(
                zero_copy_only=False)
            ids = np.repeat(
                b.column("doc_id").to_numpy(zero_copy_only=False), lens)
            flat = toks.combine_chunks().flatten()
            t = pa.table({"doc_id": pa.array(ids), "item": flat})
            return t.filter(
                pc.greater_equal(pc.utf8_length(flat), 5))

        items = docs.map_batches(long_tokens, batch_format="pyarrow")
        return cooccurrence_pmi(items, "doc_id", "item", min_count=2)

    def kg_entity_cooccurrence(sf_dir: str):
        """Entity co-mention PMI over the real KG: linked triples
        explode to (chunk, canonical entity) presence, then the same
        open-vocabulary PMI exchange chain — the co-mention edge list
        GraphRAG relatedness expansion consumes (docs_token_cooccurrence°
        pins the operator; rows-only here)."""
        linked = _kg_tables(sf_dir)["linked_triples"].select_columns(
            ["chunk_id", "src_entity_id", "dst_entity_id"])

        def explode(b: pa.Table) -> pa.Table:
            chunk = b.column("chunk_id").combine_chunks()
            return pa.table({
                "chunk_id": pa.concat_arrays([chunk, chunk]),
                "item": pa.concat_arrays([
                    b.column("src_entity_id").combine_chunks(),
                    b.column("dst_entity_id").combine_chunks(),
                ]),
            })

        pairs = cooccurrence_pmi(
            linked.map_batches(explode, batch_format="pyarrow"),
            "chunk_id", "item", min_count=2)
        return pairs.sort(["n_ab", "a", "b"], descending=[True, False,
                                                          False]).limit(100)

    _EDGE_COLS = ["src_entity_id", "dst_entity_id", "weight"]

    def _kg_edges_local(sf_dir: str):
        """In-process KG edge table for graph serving, or None (serving
        off, or more edges than the graph solvers' cap): then the query
        runs the Dataset solver, the same kernel in one Ray task."""
        return _kg_local_table(sf_dir, "edges", _EDGE_COLS,
                               config.LOCAL_EDGES_THRESHOLD)

    def kg_entity_pagerank(sf_dir: str):
        """Entity importance over the real KG edge list (string node
        ids) — the GraphRAG analysis layer the reference lacks. Rows
        only: iterative, not SQL-expressible at reasonable cost over
        the KG tables; semantics pinned by tests/test_graph.py vs a
        driver-side power iteration. Small KGs serve fully in-process
        straight off the published checkpoint (same recurrence —
        graph._pagerank_local — zero Dataset executions; pinned
        equal to the Dataset path by tests/test_kg_local_serve.py)."""
        tbl = _kg_edges_local(sf_dir)
        if tbl is not None:
            return _pagerank_local(tbl, *_EDGE_COLS, iters=5,
                                   damping=0.85, rank_col="pr",
                                   ndigits=6, seeds=None)
        edges = _kg_tables(sf_dir)["edges"].select_columns(_EDGE_COLS)
        return pagerank(edges, src_col="src_entity_id",
                        dst_col="dst_entity_id", weight_col="weight",
                        iters=5)

    def kg_entity_hits(sf_dir: str):
        """Hub/authority split over the real KG edge list
        (graph.hits, unweighted like Kleinberg's original): entities
        that POINT AT many important entities (hubs — aggregator
        mentions) vs entities many hubs point at (authorities) — the
        complementary importance axis to kg_entity_pagerank. Rows
        only: iterative; docs_hits° pins the recurrence against an
        unrolled SQL oracle. Small KGs serve in-process off the
        published checkpoint (pinned equal to the Dataset path by
        tests/test_kg_local_serve.py)."""
        tbl = _kg_edges_local(sf_dir)
        if tbl is not None:
            return _hits_local(tbl, "src_entity_id", "dst_entity_id",
                               iters=5, ndigits=6, hub_col="hub",
                               auth_col="authority")
        edges = _kg_tables(sf_dir)["edges"].select_columns(
            ["src_entity_id", "dst_entity_id"])
        return hits(edges, src_col="src_entity_id",
                    dst_col="dst_entity_id", iters=5)

    def kg_entity_reach(sf_dir: str):
        """Multi-hop reach off the real KG edge list: BFS hop depth
        (≤3 directed hops) from the 3 lexicographically-smallest
        source entities — the batch form of the reference's per-query
        neighbor expansion (core/retrieval.py walks one hop per
        call). Rows only: iterative; docs_bfs_depths° pins the
        recurrence against a recursive-CTE oracle. Small KGs serve
        in-process off the published checkpoint (the same _bfs_local
        kernel the Dataset path runs in one Ray task)."""
        tbl = _kg_edges_local(sf_dir)
        if tbl is not None:
            seeds = sorted(
                pc.unique(tbl.column("src_entity_id")).to_pylist())[:3]
            return _bfs_local(tbl, "src_entity_id", "dst_entity_id",
                              seeds, 3)
        edges = _kg_tables(sf_dir)["edges"].select_columns(
            ["src_entity_id", "dst_entity_id"])
        seeds = (
            edges.groupby("src_entity_id").count()
            .sort("src_entity_id").limit(3)
            .map_batches(
                lambda b: pa.table({"node": b.column("src_entity_id")}),
                batch_format="pyarrow")
        )
        return bfs_depths(
            edges, seeds, src_col="src_entity_id",
            dst_col="dst_entity_id", max_depth=3,
        ).sort("node")

    def kg_edge_negatives(sf_dir: str):
        """Link-prediction training pairs off the real KG: every true
        edge labeled 1 plus one deterministic corrupt-tail negative
        (labeled 0) drawn from the observed tail distribution
        (pipelines/graph.edge_negatives — the TransE corruption
        recipe). Rows only: the permutation rides a polars row hash
        DuckDB can't replay; properties (positives == edge multiset,
        negatives never true, determinism) pinned by
        tests/test_bfs.py."""
        edges = _kg_tables(sf_dir)["edges"].select_columns(
            ["src_entity_id", "dst_entity_id"])

        def rename(b: pa.Table) -> pa.Table:
            return b.rename_columns(["src", "dst"])

        neg = edge_negatives(
            edges.map_batches(rename, batch_format="pyarrow"))
        return neg.sort(["label", "src", "dst"])

    def embedding_label_centroids(sf_dir: str):
        """Per-label embedding centroid, long-form (label, dim,
        centroid) — each batch reduces to one (Σvector, n) row per
        label before the exchange; raw vectors never shuffle."""
        return grouped_centroids(
            _read(sf_dir, "embeddings", columns=["label", "embedding"])
        )

    def embedding_label_separation(sf_dir: str):
        """Cluster-separation audit
        (pipelines/similarity.label_separation): per label, mean
        member cosine to the own centroid vs the nearest other
        centroid and the margin — the label-quality gate before
        trusting classes for semantic dedup / stratified sampling.
        Mean-cosine factors through (Σx, Σx/|x|, n) sufficient stats;
        raw vectors never shuffle; the oracle replays the
        labels × labels cosine matrix in SQL over DOUBLE-cast
        unnested embeddings."""
        return label_separation(
            _read(sf_dir, "embeddings", columns=["label", "embedding"])
        )

    def embedding_label_outliers(sf_dir: str):
        """Per-point label-noise mining
        (pipelines/similarity.label_outliers): each vector's cosine to
        its OWN label centroid, z-scored within the label; points
        ≤ −2σ below their label's mean cohesion are flagged — the
        mislabeled-sample shortlist.  Bounded centroid fold + one
        label-keyed exchange; the oracle replays centroids, cosines
        and the windowed z-score in SQL."""
        return label_outliers(
            _read(sf_dir, "embeddings",
                  columns=["vec_id", "label", "embedding"])
        )

    def docs_zipf_slope(sf_dir: str):
        """Zipf rank-frequency fit (pipelines/textstats.zipf_fit):
        OLS of ln(freq) on ln(rank) over the exact top-200 tokens —
        the one-row corpus-health scalar (natural text ≈ slope −1).
        Rides the heavy-hitters combiner exchange; the oracle replays
        the fit with SQL regr_slope/regr_intercept/regr_r2."""
        docs = _read(sf_dir, "documents", columns=["text"])
        return zipf_fit(docs, k=200)

    def lineitem_qty_var_by_flag(sf_dir: str):
        """Exact grouped sample variance + stddev — (n, Σx, Σx²)
        sufficient-stats combiner, one tiny exchange."""
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_returnflag", "l_quantity"],
        )
        return grouped_var(li, ["l_returnflag"], "l_quantity")

    def orders_ntile4(sf_dir: str):
        """NTILE(4) of orders by total price within each priority
        (exact SQL bucket-size semantics, pinned tie-break)."""
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_orderpriority", "o_totalprice"],
        )
        return window_ntile(orders, ["o_orderpriority"], "o_totalprice",
                            4, tie_col="o_orderkey")

    def docs_training_pipeline(sf_dir: str):
        """The full training-data prep chain as ONE streaming pipeline
        with a single end-to-end SQL oracle: PII-redact → Gopher-style
        repetition filter (distinct_frac ≥ 0.4, top_bigram_frac ≤ 0.12,
        n_tokens ≥ 20 — keeps ~57% of this corpus) → exact dedup (keep
        min doc_id per content hash; only (hash, id, n_tok) ride the
        exchange, texts never shuffle again) → GPT-style 256-token
        sequence packing.  Map stages fuse; the whole chain has two
        exchanges (dedup, pack-shard)."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        scored = repetition_scores(pii_redact(docs), append=True)

        def keep(batch: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.and_(
                    pc.greater_equal(batch.column("distinct_frac"), 0.4),
                    pc.less_equal(batch.column("top_bigram_frac"), 0.12),
                ),
                pc.greater_equal(batch.column("n_tokens"), 20),
            )
            sub = batch.filter(m)
            hashes = [content_hash(t)
                      for t in sub.column("text").to_pylist()]
            return pa.table({
                "h": pa.array(hashes, pa.string()),
                "doc_id": sub.column("doc_id"),
                "n_tok": sub.column("n_tokens"),
            })

        def dedup_part(pdf):
            pdf = pdf.sort_values(["h", "doc_id"], kind="stable")
            return pdf.drop_duplicates(subset="h")[["doc_id", "n_tok"]]

        kept = grouped_apply(
            scored.map_batches(keep, batch_format="pyarrow"),
            ["h"], dedup_part,
            batch_format="pandas",
        )

        def shard(batch: pa.Table) -> pa.Table:
            s = [
                int(hashlib.md5(str(i).encode()).hexdigest()[-1], 16) % 4
                for i in batch.column("doc_id").to_pylist()
            ]
            return pa.table({
                "shard": pa.array(s, pa.int64()),
                "doc_id": batch.column("doc_id"),
                "n_tok": pc.cast(batch.column("n_tok"), pa.int64()),
            })

        return pack_sequences(
            kept.map_batches(shard, batch_format="pyarrow"),
            "shard", "n_tok", max_len=256,
        )

    def kg_entity_ppr(sf_dir: str):
        """Personalized PageRank from the KG's 5 most-mentioned
        entities — the GraphRAG retrieval-expansion primitive (which
        entities are closest to the query's seed entities by weighted
        graph proximity). Top 20 by score; rows-only (iterative),
        semantics pinned by tests/test_graph.py."""
        tbl = _kg_edges_local(sf_dir)
        if tbl is not None:
            # seeds: same (mention_count desc, entity_id asc) top-5 as
            # the Dataset sort below, in-process off the checkpoint
            ent = _kg_local_table(
                sf_dir, "entity_nodes", ["entity_id", "mention_count"],
                config.CHUNKMETA_LOCAL_ROWS)
            if ent is not None:
                seeds = frozenset(
                    ent.sort_by([("mention_count", "descending"),
                                 ("entity_id", "ascending")])
                    .slice(0, 5).column("entity_id").to_pylist()
                )
                ranked = _pagerank_local(tbl, *_EDGE_COLS, iters=5,
                                         damping=0.85, rank_col="pr",
                                         ndigits=6, seeds=seeds)
                return ranked.sort_by(
                    [("pr", "descending"), ("node", "ascending")]
                ).slice(0, 20)

        t = _kg_tables(sf_dir)
        top = t["entity_nodes"].select_columns(
            ["entity_id", "mention_count"]
        ).sort(["mention_count", "entity_id"],
               descending=[True, False]).limit(5).take_all()
        seeds = frozenset(r["entity_id"] for r in top)
        edges = t["edges"].select_columns(
            ["src_entity_id", "dst_entity_id", "weight"]
        )
        ranked = pagerank(edges, src_col="src_entity_id",
                          dst_col="dst_entity_id", weight_col="weight",
                          seeds=seeds, iters=5)
        return ranked.sort(["pr", "node"],
                           descending=[True, False]).limit(20)

    def kg_entity_communities(sf_dir: str):
        """Entity communities by synchronous label propagation over the
        weighted, undirected KG edge list — the cluster layer above
        canonicalization (which entities form a topic group). Rows-only
        (iterative); semantics pinned by tests/test_graph.py."""
        tbl = _kg_edges_local(sf_dir)
        if tbl is not None:
            return _lpa_local(tbl, *_EDGE_COLS, iters=5,
                              directed=False, label_col="community")
        edges = _kg_tables(sf_dir)["edges"].select_columns(
            ["src_entity_id", "dst_entity_id", "weight"]
        )
        return label_propagation(edges, src_col="src_entity_id",
                                 dst_col="dst_entity_id",
                                 weight_col="weight", iters=5)

    def docs_dedup_vs_prev(sf_dir: str):
        """Incremental dedup: new crawl (doc_id % 3 != 0) against the
        existing corpus (doc_id % 3 == 0) by exact text match —
        bloom-negative rows (definitely new) skip the exchange
        entirely; only candidate duplicates pay the exact anti-join."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def split(want_prev: bool):
            def fn(b: pa.Table) -> pa.Table:
                ids = b.column("doc_id")
                mod = pc.subtract(ids, pc.multiply(pc.divide(ids, 3), 3))
                is_prev = pc.equal(mod, 0)
                return b.filter(is_prev if want_prev
                                else pc.invert(is_prev))

            return fn

        prev = docs.map_batches(split(True), batch_format="pyarrow") \
            .select_columns(["text"])
        new = docs.map_batches(split(False), batch_format="pyarrow")
        return bloom_anti_join(new, prev, "text", "text")

    def docs_from_jsonl_roundtrip(sf_dir: str):
        """JSONL source coverage: the documents table is exported once
        to newline-delimited JSON in the KG cache dir (``_export``)
        and read back with ray.data.read_json —
        the Common-Crawl-adjacent ingestion format. Oracle: the same
        rows straight from parquet."""
        ds = ray.data.read_json(_export(
            sf_dir, "jsonl-src", ".json", lambda d: _read(
                sf_dir, "documents",
                columns=["doc_id", "text", "lang", "source"]).write_json(d)))
        return ds.map_batches(
            lambda b: b.select(["doc_id", "text", "lang", "source"]),
            batch_format="pyarrow",
        )

    def docs_from_orc_roundtrip(sf_dir: str):
        """ORC source coverage (sources/orc.read_orc — Ray Data ships
        no ORC reader): the documents table is exported once to ORC
        files under /tmp and read back stripe-streamed through the
        custom FileBasedDatasource.  Oracle: the same rows straight
        from parquet."""
        def write(out_dir: str) -> None:
            t = pq.read_table(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text", "lang", "source"],
            )
            shards = 4
            per = (t.num_rows + shards - 1) // shards
            for i in range(shards):
                write_orc_file(
                    t.slice(i * per, per),
                    os.path.join(out_dir, f"docs-{i:02d}.orc"),
                )

        return read_orc(_export(sf_dir, "orc-src", ".orc", write))

    def docs_from_avro_roundtrip(sf_dir: str):
        """Avro source coverage (sources/avro.read_avro over the
        vendored pure Object-Container-File codec — no avro lib in the
        environment): the documents table is exported once to .avro
        files under /tmp (alternating null/deflate codecs, multi-block)
        and read back block-streamed. Oracle: the same rows straight
        from parquet."""
        def write(out_dir: str) -> None:
            t = pq.read_table(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text", "lang", "source"],
            )
            shards = 4
            per = (t.num_rows + shards - 1) // shards
            for i in range(shards):
                write_avro_file(
                    t.slice(i * per, per),
                    os.path.join(out_dir, f"docs-{i:02d}.avro"),
                    codec="deflate" if i % 2 else "null",
                    records_per_block=64,
                )

        return read_avro(_export(sf_dir, "avro-src", ".avro", write))

    def docs_hive_partition_pruned(sf_dir: str):
        """Directory-partition pruning (the hive-layout contract the
        resumable writers rely on): the documents table is written ONCE
        with write_parquet(partition_cols=['lang']); the read then
        lists ONLY the lang=en subdirectory — the other languages'
        files are never opened, the directory structure IS the filter.
        Oracle: WHERE lang = 'en' over the original parquet."""
        (en,) = _export(
            sf_dir, "hive-docs", "lang=en", lambda d: _read(
                sf_dir, "documents", columns=["doc_id", "text", "lang"],
            ).write_parquet(d, partition_cols=["lang"]))
        ds = ray.data.read_parquet(en)

        def add_lang(b: pa.Table) -> pa.Table:
            cols = {n: b.column(n) for n in ("doc_id", "text")}
            cols["lang"] = pa.array(["en"] * b.num_rows, pa.string())
            return pa.table(cols)

        return ds.map_batches(add_lang, batch_format="pyarrow")

    def docs_from_sqlite_roundtrip(sf_dir: str):
        """Operational-database ingestion (ray.data.read_sql over a
        DBAPI connection factory — the JDBC-shaped source family): the
        documents table is loaded once into a sqlite file and read
        back through read_sql.  Parallel sharded reads need a
        server-side DB; a single sqlite file reads as one task, which
        is the correct shape for this source (read_sql shards by key
        hash when the backend allows concurrent cursors).  Oracle: the
        same rows straight from parquet."""
        def write(out_dir: str) -> None:
            t = pq.read_table(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text", "lang"],
            )
            con = sqlite3.connect(os.path.join(out_dir, "docs.sqlite"))
            con.execute("CREATE TABLE documents "
                        "(doc_id INTEGER, text TEXT, lang TEXT)")
            con.executemany(
                "INSERT INTO documents VALUES (?, ?, ?)",
                zip(t.column("doc_id").to_pylist(),
                    t.column("text").to_pylist(),
                    t.column("lang").to_pylist()),
            )
            con.commit()
            con.close()

        (db_path,) = _export(sf_dir, "sqlite-src", ".sqlite", write)
        return ray.data.read_sql(
            "SELECT doc_id, text, lang FROM documents",
            lambda: __import__("sqlite3").connect(db_path),
        )

    def docs_from_csv_roundtrip(sf_dir: str):
        """CSV source coverage: numeric document stats exported to CSV
        once and read back with ray.data.read_csv (schema inferred) —
        text stays out of the CSV to keep the format round-trippable.
        Oracle: the same projection from parquet."""
        ds = ray.data.read_csv(_export(
            sf_dir, "csv-src", ".csv", lambda d: _read(
                sf_dir, "documents",
                columns=["doc_id", "lang", "n_chars"]).write_csv(d)))
        return ds.map_batches(
            lambda b: b.select(["doc_id", "lang", "n_chars"]),
            batch_format="pyarrow",
        )

    def events_rolling_mean(sf_dir: str):
        """Ordered sliding-window aggregate: per-user rolling mean of
        the last 3 events by (ts, event_id). One hash exchange on
        user_id; the window itself is a vectorized pandas rolling pass
        per partition — the ordered-window complement of the tumbling
        windows in events_sessionized."""
        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "event_id", "ts", "value"],
        )

        def roll(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.sort_values(["user_id", "ts", "event_id"],
                                  kind="stable")
            rm = (
                pdf.groupby("user_id", sort=False)["value"]
                .rolling(3, min_periods=1).mean()
                .reset_index(level=0, drop=True)
            )
            return pd.DataFrame(
                {
                    "event_id": pdf["event_id"].to_numpy(),
                    "rolling_mean_3": sql_round(rm, 6),
                }
            )

        return grouped_apply(ev, ["user_id"], roll,
                             batch_format="pandas")

    def customers_without_urgent_orders(sf_dir: str):
        """Distributed anti-join (NOT EXISTS): customers with no
        1-URGENT order. Right side is pruned at the read to the key
        column + pushed filter."""
        cust = _read(sf_dir, "customer",
                     columns=["c_custkey", "c_name", "c_acctbal"])
        urgent = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey", "o_orderpriority"],
            filter=(pc.field("o_orderpriority") == "1-URGENT"),
        )
        return anti_join(cust, urgent, "c_custkey", "o_custkey")

    def events_asof_purchase_view(sf_dir: str):
        """As-of join: each purchase matched to the user's most recent
        strictly-earlier view (ties on ts break toward the larger
        event_id). Co-partitioned on user_id, per-partition sorted
        merge_asof."""
        path = os.path.join(sf_dir, "events.parquet")
        purchases = ray.data.read_parquet(
            path, columns=["event_id", "user_id", "ts", "event_type"],
            filter=(pc.field("event_type") == "purchase"),
        ).select_columns(["event_id", "user_id", "ts"])
        views = ray.data.read_parquet(
            path, columns=["event_id", "user_id", "ts", "value",
                           "event_type"],
            filter=(pc.field("event_type") == "view"),
        ).select_columns(["event_id", "user_id", "ts", "value"])
        joined = asof_join(
            purchases, views, by="user_id", right_by="user_id", on="ts",
            right_cols=["event_id", "value"], tie_col="event_id",
        )

        def project(batch: pa.Table) -> pa.Table:
            gap = pc.subtract(
                pc.cast(batch.column("ts"), pa.int64()),
                pc.cast(batch.column("ts_r"), pa.int64()),
            )
            return pa.table(
                {
                    "purchase_id": batch.column("event_id"),
                    "view_id": batch.column("event_id_r"),
                    "view_value": batch.column("value"),
                    "gap_us": gap,
                }
            )

        return joined.map_batches(project, batch_format="pyarrow")

    def events_asof_next_purchase(sf_dir: str):
        """FORWARD as-of join: each view matched to the user's earliest
        strictly-later purchase (time-to-conversion; ties on ts break
        toward the smaller event_id). Same one-exchange sorted
        merge_asof, direction flipped."""
        path = os.path.join(sf_dir, "events.parquet")
        views = ray.data.read_parquet(
            path, columns=["event_id", "user_id", "ts", "event_type"],
            filter=(pc.field("event_type") == "view"),
        ).select_columns(["event_id", "user_id", "ts"])
        purchases = ray.data.read_parquet(
            path, columns=["event_id", "user_id", "ts", "value",
                           "event_type"],
            filter=(pc.field("event_type") == "purchase"),
        ).select_columns(["event_id", "user_id", "ts", "value"])
        joined = asof_join(
            views, purchases, by="user_id", right_by="user_id", on="ts",
            right_cols=["event_id", "value"], tie_col="event_id",
            direction="forward",
        )

        def project(batch: pa.Table) -> pa.Table:
            gap = pc.subtract(
                pc.cast(batch.column("ts_r"), pa.int64()),
                pc.cast(batch.column("ts"), pa.int64()),
            )
            return pa.table(
                {
                    "view_id": batch.column("event_id"),
                    "purchase_id": batch.column("event_id_r"),
                    "purchase_value": batch.column("value"),
                    "wait_us": gap,
                }
            )

        return joined.map_batches(project, batch_format="pyarrow")

    def top3_orders_per_customer(sf_dir: str):
        """Windowed rank (ROW_NUMBER() <= 3 per customer by price desc):
        per-batch combiner truncation, one exchange, partition-wise
        vectorized top-k."""
        orders = _read(sf_dir, "orders",
                       columns=["o_custkey", "o_orderkey", "o_totalprice"])
        return window_topk(orders, ["o_custkey"], "o_totalprice", 3,
                           tie_col="o_orderkey")

    def supplier_distinct_parts(sf_dir: str):
        """COUNT(DISTINCT l_partkey) per supplier: per-batch arrow
        distinct combiner, deduped pairs through one exchange."""
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_suppkey", "l_partkey"],
        )
        return distinct_count(li, ["l_suppkey"], "l_partkey", "n_parts")

    def lineitem_qty_median(sf_dir: str):
        """Exact grouped median (SQL median() semantics): values-only
        exchange keyed by group."""
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_returnflag", "l_quantity"],
        )
        return grouped_median(li, ["l_returnflag"], "l_quantity",
                              "median_qty")

    def orders_price_band_join(sf_dir: str):
        """Broadcast range join: orders against a small OVERLAPPING
        interval table ('all' contains every other band, so rows
        multi-match), then a native aggregate per band."""
        bands = pa.table(
            {
                "band": ["low", "mid", "high", "all"],
                "lo": [0.0, 150000.0, 300000.0, 0.0],
                "hi": [150000.0, 300000.0, 600000.0, 600000.0],
            }
        )
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_totalprice"],
        )
        joined = broadcast_range_join(ds, bands, "o_totalprice")
        agg = joined.groupby("band").aggregate(
            Count(alias_name="n"), Sum("o_totalprice", alias_name="sum_price")
        )
        return agg.map_batches(
            lambda b: pa.table(
                {
                    "band": b.column("band"),
                    "n": b.column("n"),
                    "sum_price": sql_round(b.column("sum_price"), 2),
                }
            ),
            batch_format="pyarrow",
        )

    def order_price_histogram(sf_dir: str):
        """Fixed-width histogram: vectorized binning + native count
        aggregate (binning is the combiner's key)."""
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_totalprice"],
        )

        def binning(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "price_bin": pc.cast(
                        pc.floor(pc.divide(batch.column("o_totalprice"),
                                           50000.0)),
                        pa.int64(),
                    )
                }
            )

        return (
            ds.map_batches(binning, batch_format="pyarrow")
            .groupby("price_bin")
            .aggregate(Count(alias_name="n"))
        )

    def embedding_exact_near_dups(sf_dir: str):
        """EXACT all-pairs cosine ≥ 0.35 over the embeddings table via
        triangle blocking (pipelines/similarity.exact_cosine_pairs) —
        the recall-1.0 baseline next to the LSH-bucketed
        embedding_near_dups; every unordered pair scored exactly once,
        bounded per-partition memory."""
        emb = _read(sf_dir, "embeddings")
        return sim.exact_cosine_pairs(emb, threshold=0.35, num_blocks=8)

    def orders_price_p90_by_priority(sf_dir: str):
        """Exact grouped 90th percentile (quantile_cont semantics):
        values-only exchange keyed by group, linear interpolation."""
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderpriority", "o_totalprice"],
        )
        return grouped_quantile(orders, ["o_orderpriority"], "o_totalprice",
                                0.9, "p90_price", ndigits=4)

    def orders_rollup(sf_dir: str):
        """GROUP BY ROLLUP(o_orderpriority, o_orderstatus): the raw
        table aggregates once; coarser levels cascade over the previous
        level's (tiny) result, never re-reading the input."""
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
        )
        return rollup_sum(orders, ["o_orderpriority", "o_orderstatus"],
                          "o_totalprice", count_col="n",
                          sum_col="sum_price")

    def urgent_high_value_custkeys(sf_dir: str):
        """Distinct-set INTERSECT: customers with a 1-URGENT order AND
        some order over 350k — deduped keys on both sides before the
        one co-partitioned exchange."""
        path = os.path.join(sf_dir, "orders.parquet")
        urgent = ray.data.read_parquet(
            path, columns=["o_custkey", "o_orderpriority"],
            filter=(pc.field("o_orderpriority") == "1-URGENT"),
        ).select_columns(["o_custkey"])
        high = ray.data.read_parquet(
            path, columns=["o_custkey", "o_totalprice"],
            filter=(pc.field("o_totalprice") > 350000.0),
        ).select_columns(["o_custkey"])
        return distinct_set_op(urgent, high, "o_custkey", "o_custkey",
                               mode="intersect")

    def custkeys_never_urgent(sf_dir: str):
        """Distinct-set EXCEPT: customers who ordered but never at
        1-URGENT priority (set semantics — contrast with the row-level
        anti-join customers_without_urgent_orders)."""
        path = os.path.join(sf_dir, "orders.parquet")
        all_ck = ray.data.read_parquet(
            path, columns=["o_custkey"])
        urgent = ray.data.read_parquet(
            path, columns=["o_custkey", "o_orderpriority"],
            filter=(pc.field("o_orderpriority") == "1-URGENT"),
        ).select_columns(["o_custkey"])
        return distinct_set_op(all_ck, urgent, "o_custkey", "o_custkey",
                               mode="except")

    def orders_status_pivot(sf_dir: str):
        """Wide pivot (SUM(CASE WHEN) conditional aggregation): revenue
        per priority × order-status, columns declared up front; per-batch
        arrow partials are the combiner so the exchange ships one partial
        sum per (batch, key, category)."""
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
        )
        return pivot_sum(orders, "o_orderpriority", "o_orderstatus",
                         "o_totalprice", categories=["F", "O", "P"],
                         out_cols=["status_f", "status_o", "status_p"])

    def events_user_approx_distinct(sf_dir: str):
        """HyperLogLog approximate distinct users per event type (p=12,
        ~1.6% standard error): the sketch path next to the exact
        supplier_distinct_parts — registers, never values, ride the
        exchange. Deterministic under any partitioning (unit-tested
        against the exact count)."""
        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_type", "user_id"],
        )
        return grouped_approx_distinct(ev, ["event_type"], "user_id",
                                       "approx_users")

    def urgent_lineitem_qty_by_flag(sf_dir: str):
        """Bloom-pruned EXACT semi-join (lineitem ⋉ urgent orders): the
        urgent-order keys reduce to one broadcast bit mask that filters
        lineitem BEFORE the exchange; the co-partitioned is_in probe
        removes bloom false positives, then a native aggregate."""
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_returnflag", "l_quantity"],
        )
        urgent = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey"],
            filter=(pc.field("o_orderpriority") == "1-URGENT"),
        )
        hits = bloom_semi_join(li, urgent, "l_orderkey", "o_orderkey")
        agg = hits.groupby("l_returnflag").aggregate(
            Count(alias_name="n"), Sum("l_quantity", alias_name="sum_qty")
        )
        return agg.map_batches(
            lambda b: pa.table(
                {
                    "l_returnflag": b.column("l_returnflag"),
                    "n": b.column("n"),
                    "sum_qty": sql_round(b.column("sum_qty"), 2),
                }
            ),
            batch_format="pyarrow",
        )

    def region_nation_list(sf_dir: str):
        """Per-group ORDERED string_agg: nations per region name, the
        region dim broadcast into the map side, concat pinned by a full
        per-group sort after one exchange."""
        region = _dim(sf_dir, "region", ["r_regionkey", "r_name"])
        nat = broadcast_lookup(
            _read(sf_dir, "nation", columns=["n_regionkey", "n_name"]),
            region, "n_regionkey", "r_regionkey", ["r_name"])
        return grouped_concat(nat, ["r_name"], "n_name", "n_name",
                              "nations")

    def top_tokens_exact(sf_dir: str):
        """Exact global heavy hitters: top-20 whitespace tokens over the
        documents corpus. Per-batch arrow count combiner → one exchange
        of (token, partial count) → per-partition top-k → driver merge
        of partitions×k candidates."""
        docs = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        )

        def explode(batch: pa.Table) -> pa.Table:
            toks = pc.list_flatten(
                pc.split_pattern(batch.column("text"), " ")
            )
            return pa.table({"tok": toks.filter(pc.not_equal(toks, ""))})

        return heavy_hitters(
            docs.map_batches(explode, batch_format="pyarrow"),
            "tok", 20,
        )

    def top_tokens_sketch(sf_dir: str):
        """Misra-Gries top-20 tokens with exact recount — the sketch
        path next to top_tokens_exact for unbounded vocabularies.
        Shares top_tokens_exact's SQL oracle: the recount pass makes
        counts exact, and capacity=4096 ≫ 20 guarantees the true top-20
        survive pass 1 on any remotely zipfian corpus (their frequency
        far exceeds N/4097; equality to the exact operator is also
        pinned by tests/test_relational.py)."""
        docs = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["text"]
        )

        def explode(batch: pa.Table) -> pa.Table:
            toks = pc.list_flatten(
                pc.split_pattern(batch.column("text"), " ")
            )
            return pa.table({"tok": toks.filter(pc.not_equal(toks, ""))})

        return approx_heavy_hitters(
            docs.map_batches(explode, batch_format="pyarrow"),
            "tok", 20, capacity=4096,
        )

    def lineitem_qty_price_corr(sf_dir: str):
        """Exact grouped Pearson correlation via the sufficient-statistics
        combiner — (n, Σx, Σy, Σx², Σy², Σxy) per key per batch, merged
        by addition after one exchange."""
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_returnflag", "l_quantity", "l_extendedprice"],
        )
        return grouped_corr(li, ["l_returnflag"], "l_quantity",
                            "l_extendedprice", "r")

    def q3_shipping_priority(sf_dir: str):
        """TPC-H Q3 shape — three-table pipeline from the new building
        blocks: BUILDING customers bloom-prune+semi-join the date-filtered
        orders (big-big, one exchange); shipdate-filtered lineitem
        pre-aggregates revenue per orderkey per batch and meets orders in
        ONE fused co-partition aggregate⋈join exchange; global top-10 by
        revenue rides a sort over one small row per qualifying order."""
        cut = datetime.datetime(1998, 6, 1)
        cust = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey"],
            filter=(pc.field("c_mktsegment") == "BUILDING"),
        )
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_orderdate",
                     "o_orderpriority"],
            filter=(pc.field("o_orderdate") < cut),
        )
        orders_b = bloom_semi_join(orders, cust, "o_custkey",
                                   "c_custkey").drop_columns(["o_custkey"])
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_extendedprice", "l_discount"],
            filter=(pc.field("l_shipdate") > cut),
        )

        def revenue(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "l_orderkey": batch.column("l_orderkey"),
                    "rev": pc.multiply(
                        batch.column("l_extendedprice"),
                        pc.subtract(
                            pa.scalar(1.0), batch.column("l_discount")
                        ),
                    ),
                }
            )

        joined = copartition_agg_join(
            li.map_batches(revenue, batch_format="pyarrow"), orders_b,
            "l_orderkey", "o_orderkey",
            ["o_orderkey", "o_orderdate", "o_orderpriority"],
            "rev", "revenue",
        )
        top = joined.sort(
            ["revenue", "o_orderdate", "l_orderkey"],
            descending=[True, False, False],
        ).limit(10)
        return top.map_batches(
            lambda b: pa.table(
                {
                    "l_orderkey": b.column("l_orderkey"),
                    "revenue": sql_round(b.column("revenue"), 2),
                    "o_orderdate": b.column("o_orderdate"),
                    "o_orderpriority": b.column("o_orderpriority"),
                }
            ),
            batch_format="pyarrow",
        )

    def events_user_cumsum(sf_dir: str):
        """Per-user running total (SUM OVER ... ROWS UNBOUNDED
        PRECEDING): one exchange keyed by user, per-partition sort +
        vectorized cumsum."""
        ev = ray.data.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["user_id", "ts", "event_id", "value"],
        )
        out = windowed_cumsum(ev, ["user_id"], "ts", "value", "cum_value",
                              tie_col="event_id")
        return out.map_batches(
            lambda b: pa.table(
                {
                    "event_id": b.column("event_id"),
                    "user_id": b.column("user_id"),
                    "cum_value": b.column("cum_value"),
                }
            ),
            batch_format="pyarrow",
        )

    def q5_nation_volume(sf_dir: str):
        """TPC-H Q5 shape — six tables: supplier and customer, pruned to
        the ASIA nations, are broadcast lookups (each ≤ the supplier
        table, orders of magnitude under the fact tables; the
        co-partitioned path takes over when a dim outgrows a broadcast,
        as q3 demonstrates for customer); lineitem and orders are pruned
        to ASIA rows BEFORE the single big-big co-partition exchange on
        orderkey, where the partition probe joins, applies the
        c_nationkey = s_nationkey condition, and pre-aggregates revenue
        per nation — the final groupby sums a handful of partials."""
        lo = datetime.datetime(1996, 1, 1)
        hi = datetime.datetime(1999, 1, 1)
        asia = _asia_nations(sf_dir)
        keys = asia.column("n_nationkey").to_pylist()
        supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"],
                    filter=pc.field("s_nationkey").isin(keys))
        cust = _dim(sf_dir, "customer", ["c_custkey", "c_nationkey"],
                    filter=pc.field("c_nationkey").isin(keys))

        def li_slim(b: pa.Table) -> pa.Table:
            return pa.table({
                "l_orderkey": b.column("l_orderkey"),
                "s_nat": pc.cast(b.column("s_nationkey"), pa.int64()),
                "rev": pc.multiply(b.column("l_extendedprice"),
                                   pc.subtract(1.0, b.column("l_discount"))),
            })

        def ord_slim(b: pa.Table) -> pa.Table:
            return pa.table({
                "o_orderkey": b.column("o_orderkey"),
                "c_nat": pc.cast(b.column("c_nationkey"), pa.int64()),
            })

        li = broadcast_lookup(
            _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey",
                                               "l_extendedprice",
                                               "l_discount"]),
            supp, "l_suppkey", "s_suppkey", ["s_nationkey"],
        ).map_batches(li_slim, batch_format="pyarrow")
        orders = broadcast_lookup(
            _read(sf_dir, "orders",
                  columns=["o_orderkey", "o_custkey", "o_orderdate"],
                  filter=((pc.field("o_orderdate") >= lo)
                          & (pc.field("o_orderdate") < hi))),
            cust, "o_custkey", "c_custkey", ["c_nationkey"],
        ).map_batches(ord_slim, batch_format="pyarrow")

        def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
            if lt.num_rows == 0 or rt.num_rows == 0:
                return pa.table({"n_nationkey": pa.array([], pa.int64()),
                                 "rev": pa.array([], pa.float64())})
            joined = lt.join(rt, keys=["l_orderkey"], join_type="inner")
            joined = joined.filter(
                pc.equal(joined.column("s_nat"), joined.column("c_nat"))
            )
            agg = joined.group_by(["s_nat"]).aggregate([("rev", "sum")])
            return agg.rename_columns(["n_nationkey", "rev"])

        partials = _copartition(li, orders, "l_orderkey", "o_orderkey",
                                ["o_orderkey", "c_nat"], probe)
        final = broadcast_lookup(
            partials.groupby("n_nationkey").aggregate(
                Sum("rev", alias_name="revenue")),
            asia, "n_nationkey", "n_nationkey", ["n_name"])
        return final.map_batches(
            lambda b: pa.table({
                "n_name": b.column("n_name"),
                "revenue": sql_round(b.column("revenue"), 2),
            }),
            batch_format="pyarrow",
        )

    def orders_customer_skew_join(sf_dir: str):
        """Skew-handled fact⋈dim equi-join: head customers (≥12 orders
        at this sf) route around the exchange — their dim rows broadcast
        and the skewed order mass joins map-side; tail keys take the
        normal co-partitioned exchange. Threshold is tuned so the demo
        corpus genuinely exercises BOTH paths; at web scale the same
        operator guards a domain- or entity-keyed join where head keys
        hold 1-10% of the corpus."""
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey", "o_totalprice"],
        )
        cust = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_name"],
        )
        return skew_join(orders, cust, "o_custkey", "c_custkey",
                         ["c_custkey", "c_name"], hot_threshold=12)

    def events_value_zscore(sf_dir: str):
        """Per-group standardization without shuffling the fact table:
        (n, Σx, Σx²) combiner → one tiny stats exchange → broadcast →
        map-side z-score. The window-function answer with a
        broadcast-join execution shape."""
        ev = _read(sf_dir, "events",
                   columns=["event_id", "event_type", "value"])
        return grouped_standardize(ev, ["event_type"], "value",
                                   out_col="zscore", ndigits=4)

    def docs_union_schema_evolution(sf_dir: str):
        """UNION ALL BY NAME over two corpus generations with different
        schemas (metadata columns added/dropped between crawls): typed
        null padding + cast, no exchange."""
        docs = _read(sf_dir, "documents")

        def even(b: pa.Table) -> pa.Table:
            m = pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), 0)
            return b.filter(m).select(["doc_id", "text", "lang"])

        def odd(b: pa.Table) -> pa.Table:
            m = pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), 1)
            return b.filter(m).select(["doc_id", "source", "n_chars"])

        gen_a = docs.map_batches(even, batch_format="pyarrow")
        gen_b = docs.map_batches(odd, batch_format="pyarrow")
        return union_by_name([gen_a, gen_b])

    def docs_boilerplate_stripped(sf_dir: str):
        """CCNet-style boilerplate-line removal with an exact SQL
        oracle: the corpus has no newlines, so a deterministic cookie
        header (doc_id%2=0) and subscribe footer (doc_id%3=0) are
        injected identically on both sides; lines in ≥25 distinct docs
        are stripped, bodies survive byte-exact."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        hdr = "This website uses cookies to improve your experience."
        ftr = "Subscribe to our newsletter for updates!"

        def augment(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id")
            is_even = pc.equal(pc.bit_wise_and(ids, 1), 0)
            div3 = pc.equal(
                pc.subtract(ids, pc.multiply(pc.divide(ids, 3), 3)), 0
            )
            pre = pc.if_else(is_even, pa.scalar(hdr + "\n"),
                             pa.scalar(""))
            post = pc.if_else(div3, pa.scalar("\n" + ftr),
                              pa.scalar(""))
            txt = pc.binary_join_element_wise(
                pre, batch.column("text"), post, ""
            )
            return pa.table({"doc_id": ids, "text": txt})

        aug = docs.map_batches(augment, batch_format="pyarrow")
        return strip_boilerplate(aug, min_docs=25)

    def docs_substring_dedup(sf_dir: str):
        """Lee et al. 2022 exact-substring dedup over 8-token windows
        with an exact SQL oracle: two deterministic spam spans are
        injected identically on both sides (a 12-token footer on
        doc_id%5==0, a 10-token header on doc_id%7==0); every window
        duplicated from an earlier doc is removed, the earliest doc
        keeps its copy, overlapping windows merge. doc 0 carries both
        spans and keeps both (keep-first); every other injected doc
        loses exactly its span."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        ftr = ("click here to accept all cookies and continue to the "
               "requested page")
        hdr = ("breaking news update from our partner network "
               "syndicated content follows")

        def augment(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id")
            mod5 = pc.equal(
                pc.subtract(ids, pc.multiply(pc.divide(ids, 5), 5)), 0
            )
            mod7 = pc.equal(
                pc.subtract(ids, pc.multiply(pc.divide(ids, 7), 7)), 0
            )
            pre = pc.if_else(mod7, pa.scalar(hdr + " "), pa.scalar(""))
            post = pc.if_else(mod5, pa.scalar(" " + ftr), pa.scalar(""))
            txt = pc.binary_join_element_wise(
                pre, batch.column("text"), post, ""
            )
            return pa.table({"doc_id": ids, "text": txt})

        aug = docs.map_batches(augment, batch_format="pyarrow")
        return substring_dedup(aug, k=8)

    def docs_bm25_rank(sf_dir: str):
        """BM25 top-10 for the fixed query (sort, merge, window) over
        whitespace tokens — pins the Lucene-style BM25 math the KG term
        index precomputes against an exact SQL oracle (k1=1.2,
        b=0.75)."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return bm25_rank(docs, ["sort", "merge", "window"], topk=10)

    def q10_returned_items(sf_dir: str):
        """TPC-H Q10 shape — returned-item revenue per customer:
        R-flagged lineitems pre-aggregate per order (combiner) and meet
        orders in ONE fused aggregate⋈join exchange; per-customer sums
        take a second tiny exchange; the global top-20 then drives a
        pruned map-side lookup of customer + nation attributes (20
        keys — no broadcast of the full customer table)."""
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_extendedprice", "l_discount"],
            filter=(pc.field("l_returnflag") == "R"),
        )

        def revenue(batch: pa.Table) -> pa.Table:
            return pa.table({
                "l_orderkey": batch.column("l_orderkey"),
                "rev": pc.multiply(
                    batch.column("l_extendedprice"),
                    pc.subtract(pa.scalar(1.0),
                                batch.column("l_discount")),
                ),
            })

        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_custkey"],
        )
        per_order = copartition_agg_join(
            li.map_batches(revenue, batch_format="pyarrow"), orders,
            "l_orderkey", "o_orderkey", ["o_orderkey", "o_custkey"],
            "rev", "revenue",
        )

        def cpartial(b: pa.Table) -> pa.Table:
            agg = b.select(["o_custkey", "revenue"]).group_by(
                ["o_custkey"]).aggregate([("revenue", "sum")])
            return agg.rename_columns(["o_custkey", "revenue"])

        def csum(tbl: pa.Table) -> pa.Table:
            agg = tbl.group_by(["o_custkey"]).aggregate(
                [("revenue", "sum")])
            return agg.rename_columns(["o_custkey", "revenue"])

        per_cust = grouped_apply(
            combine(per_order, cpartial),
            ["o_custkey"], csum,
            batch_format="pyarrow",
        )
        top = per_cust.sort(["revenue", "o_custkey"],
                            descending=[True, False]).limit(20).take_all()
        keys = pa.array([r["o_custkey"] for r in top], pa.int64())
        rev_by_key = {r["o_custkey"]: r["revenue"] for r in top}

        cust_rows = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        ).map_batches(
            lambda b: b.filter(pc.is_in(b.column("c_custkey"),
                                        value_set=keys)),
            batch_format="pyarrow",
        ).take_all()
        nations = {
            r["n_nationkey"]: r["n_name"]
            for r in _read(sf_dir, "nation").take_all()
        }
        cust_rows.sort(key=lambda r: (-rev_by_key[r["c_custkey"]],
                                      r["c_custkey"]))
        return pa.table({
            "c_custkey": pa.array(
                [r["c_custkey"] for r in cust_rows], pa.int64()),
            "c_name": pa.array(
                [r["c_name"] for r in cust_rows], pa.string()),
            "revenue": pa.array(
                [sql_round(rev_by_key[r["c_custkey"]], 2)
                 for r in cust_rows], pa.float64()),
            "c_acctbal": pa.array(
                [r["c_acctbal"] for r in cust_rows], pa.float64()),
            "n_name": pa.array(
                [nations[r["c_nationkey"]] for r in cust_rows],
                pa.string()),
        })

    def orders_merged_changelog(sf_dir: str):
        """MERGE INTO — apply a changelog to the orders snapshot in one
        co-partitioned exchange: o_orderkey%10==3 rows get an update
        (status 'X', latest version wins over a superseded earlier
        version of the same key), %10==7 rows a delete. The changelog is
        synthesized deterministically from the snapshot so DuckDB can
        state the merged result in closed form."""
        orders = _read(sf_dir, "orders")

        def make_changes(batch: pa.Table) -> pa.Table:
            k = batch.column("o_orderkey")
            mod = pc.subtract(k, pc.multiply(pc.divide(k, 10), 10))
            upd = batch.filter(pc.equal(mod, 3))
            dele = batch.filter(pc.equal(mod, 7))
            # superseded version 0 keeps the old status; version 1 wins
            upd0 = upd.append_column(
                "op", pa.array(["U"] * upd.num_rows)).append_column(
                "version", pa.array([0] * upd.num_rows, pa.int64()))
            upd1 = upd.set_column(
                upd.schema.get_field_index("o_orderstatus"),
                "o_orderstatus", pa.array(["X"] * upd.num_rows),
            ).append_column(
                "op", pa.array(["U"] * upd.num_rows)).append_column(
                "version", pa.array([1] * upd.num_rows, pa.int64()))
            dele = dele.append_column(
                "op", pa.array(["D"] * dele.num_rows)).append_column(
                "version", pa.array([1] * dele.num_rows, pa.int64()))
            return pa.concat_tables([upd0, upd1, dele])

        changes = orders.map_batches(make_changes, batch_format="pyarrow")
        return merge_into(orders, changes, "o_orderkey")

    def orders_price_band_join_banded(sf_dir: str):
        """The big-big variant of orders_price_band_join: same
        OVERLAPPING interval table and half-open semantics, but joined
        through banded replication + one co-partitioned exchange
        instead of a broadcast — the scale path when the interval side
        can't broadcast. Identical oracle."""
        bands = pa.table({
            "band": ["low", "mid", "high", "all"],
            "lo": [0.0, 150000.0, 300000.0, 0.0],
            "hi": [150000.0, 300000.0, 600000.0, 600000.0],
        })
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_totalprice"],
        )
        joined = banded_range_join(
            ds, ray.data.from_arrow(bands), "o_totalprice", "lo", "hi",
            band_width=50000.0, keep_cols=["band"],
        )
        agg = joined.groupby("band").aggregate(
            Count(alias_name="n"),
            Sum("o_totalprice", alias_name="sum_price"),
        )
        return agg.map_batches(
            lambda b: pa.table({
                "band": b.column("band"),
                "n": b.column("n"),
                "sum_price": sql_round(b.column("sum_price"), 2),
            }),
            batch_format="pyarrow",
        )

    def docs_train_val_test_split(sf_dir: str):
        """Deterministic hash split (train/val/test by md5 slot —
        reproducible across runs/partitionings, no RNG state, no
        shuffle). md5 is per-row Python here ONLY for DuckDB oracle
        parity; the production splitter uses the vectorized
        hash_pandas_object path (same note as docs_hash_sample)."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "lang"])
        return assign_splits(docs, id_col="doc_id")

    def docs_training_shards(sf_dir: str):
        """Resumable training-shard writer: deterministic md5 global
        order → 8 fixed shards, each published as ONE atomically-renamed
        Parquet file whose footer carries its manifest row; a re-run
        reads footers only and recomputes exactly the missing shards.
        Returns the manifest, which the DuckDB oracle replays from the
        raw table (shard = first 8 md5 hex chars mod 8)."""
        out_dir = _kg_dir(sf_dir) + "-shards"
        return write_training_shards(
            lambda: _read(sf_dir, "documents", columns=["doc_id", "text"]),
            out_dir,
            n_shards=8,
        )

    def events_tumbling_counts(sf_dir: str):
        """Tumbling 5-minute event-time windows per event type: window
        assignment is a derived column, so the streaming window
        operator is a grouped aggregate (combiner + one tiny
        exchange)."""
        ev = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
        return tumbling_window_agg(ev, ["event_type"], "ts",
                                   width_us=300_000_000, value_col="value")

    def events_last_per_user(sf_dir: str):
        """Per-key argmax (latest event per user) — the per-batch
        combiner keeps one row per user, so the single exchange ships
        O(users) rows; (ts, event_id) totally orders a user's events."""
        ev = _read(sf_dir, "events", columns=["user_id", "event_id", "ts",
                                              "event_type", "value"])
        return grouped_argmax(ev, ["user_id"], ["ts", "event_id"])

    def events_gap_sessions(sf_dir: str):
        """Gap-based session windows (1 h inactivity closes a session):
        ONE hash exchange on user_id, then a single vectorized
        lag+cumsum+groupby per partition — no per-key Python."""
        ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])
        return gap_sessions(ev, key="user_id", ts_col="ts",
                            gap_seconds=3600.0, order_col="event_id")

    def events_session_error_windows(sf_dir: str):
        """Interval (overlap) join: user sessions × 15-minute error
        windows from a sampled user slice. Bucketed replication on
        1 h time buckets — each qualifying pair is emitted by exactly
        the bucket containing its first overlap instant, so there is
        no all-pairs scan and no dedup exchange."""
        ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])
        sess = gap_sessions(ev, key="user_id", ts_col="ts",
                            gap_seconds=3600.0, order_col="event_id")
        left = sess.map_batches(
            lambda t: t.rename_columns(
                ["user_id", "session_id", "st", "en", "n_events"]
            ).select(["st", "en", "user_id", "session_id"]),
            batch_format="pyarrow")

        def error_windows(t: pa.Table) -> pa.Table:
            t = t.filter(pc.and_(
                pc.equal(t.column("event_type"), "error"),
                pc.equal(pc.bit_wise_and(t.column("user_id"), 31), 0)))
            st = t.column("ts")
            en = pc.add(st, pa.scalar(900_000_000, pa.duration("us")))
            return pa.table(
                {"st": st, "en": en, "event_id": t.column("event_id")})

        right = _read(sf_dir, "events",
                      columns=["user_id", "ts", "event_id", "event_type"]
                      ).map_batches(error_windows, batch_format="pyarrow")
        return interval_join(
            left, right, "st", "en",
            left_cols=["st", "en", "user_id", "session_id"],
            right_cols=["st", "en", "event_id"],
            bucket_seconds=3600.0)

    def docs_reservoir_per_source(sf_dir: str):
        """Uniform 10-per-source document sample without randomness:
        bottom-k by a Knuth multiplicative hash of doc_id — the
        deterministic, partition-independent, resumable form of a
        per-group reservoir; ships ≤k rows per (batch, key)."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "source"])
        return grouped_hash_sample(docs, ["source"], 10, "doc_id")

    def docs_weighted_sample_per_source(sf_dir: str):
        """Weighted 5-per-source sample (inclusion ∝ text length) via
        hash-randomized A-ES priorities — the deterministic form of
        weighted sampling without replacement; ships ≤k rows per
        (batch, key) through one exchange."""
        docs = _read(sf_dir, "documents",
                     columns=["doc_id", "source", "text"]).map_batches(
            lambda b: pa.table({
                "doc_id": b.column("doc_id"),
                "source": b.column("source"),
                "w": pc.add(pc.utf8_length(b.column("text")), 1),
            }),
            batch_format="pyarrow")
        return grouped_weighted_sample(
            docs, ["source"], 5, "doc_id", "w"
        ).select_columns(["doc_id", "source"])

    def events_session_ids(sf_dir: str):
        """Sessionize-enrich: every event annotated with its gap-based
        (1 h) session id — same single exchange + vectorized
        lag/cumsum as events_gap_sessions, emitting per-event rows."""
        ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])
        return gap_sessions(ev, key="user_id", ts_col="ts",
                            gap_seconds=3600.0, order_col="event_id",
                            emit="events")

    def events_session_conversions(sf_dir: str):
        """Within-session funnel: for every gap-based (1 h) session,
        did a purchase happen at-or-after the session's first view?
        ONE user-keyed exchange; the partition fn sessionizes
        (vectorized lag+cumsum, gap_sessions semantics) AND reduces
        each session to its verdict in the same pass — session ids are
        per-key so no second exchange exists."""
        ev = _read(sf_dir, "events",
                   columns=["user_id", "ts", "event_id", "event_type"])
        gap = pd.Timedelta(seconds=3600.0)

        def verdict(pdf: pd.DataFrame) -> pd.DataFrame:
            pdf = pdf.sort_values(["user_id", "ts", "event_id"],
                                  kind="mergesort")
            prev = pdf.groupby("user_id", sort=False)["ts"].shift(1)
            brk = (prev.isna()
                   | (pdf["ts"] - prev > gap)).astype("int64")
            sid = brk.groupby(pdf["user_id"], sort=False).cumsum()
            out = pd.DataFrame({
                "user_id": pdf["user_id"],
                "session_id": sid,
                "fv": pdf["ts"].where(pdf["event_type"] == "view"),
                "lp": pdf["ts"].where(pdf["event_type"] == "purchase"),
            }).groupby(["user_id", "session_id"], sort=False).agg(
                first_view=("fv", "min"), last_purchase=("lp", "max"),
                n_events=("fv", "size")).reset_index()
            out["n_events"] = out["n_events"].astype("int64")
            out["converted"] = (out["first_view"].notna()
                                & out["last_purchase"].notna()
                                & (out["last_purchase"]
                                   >= out["first_view"]))
            return out

        return grouped_apply(ev, ["user_id"], verdict,
                             batch_format="pandas")

    def lineitem_price_winsorized(sf_dir: str):
        """Per-group winsorization (clip extendedprice into its
        returnflag group's [p05, p95]): one (key, value) exchange for
        the O(groups) bounds table, broadcast into a vectorized clip —
        the big table is never shuffled."""
        li = _read(sf_dir, "lineitem",
                   columns=["l_returnflag", "l_extendedprice"])
        return grouped_winsorize(li, ["l_returnflag"], "l_extendedprice",
                                 q_lo=0.05, q_hi=0.95)

    def lineitem_price_regression(sf_dir: str):
        """Per-group OLS (extendedprice ~ quantity) via the
        sufficient-statistics combiner — O(groups) shuffle bytes."""
        li = _read(sf_dir, "lineitem",
                   columns=["l_returnflag", "l_quantity", "l_extendedprice"])
        return grouped_regression(li, ["l_returnflag"], "l_quantity",
                                  "l_extendedprice")

    def events_daily_spine(sf_dir: str):
        """Zero-filled daily date spine per event_type (gap filling):
        combiner pre-counts (type, day), one exchange, vectorized
        reindex against the broadcast global day range."""
        ev = _read(sf_dir, "events", columns=["event_type", "ts"])
        return fill_gaps(ev, "event_type", "ts")

    def docs_train_ready_ids(sf_dir: str):
        """The curated-corpus-to-token-ids chain as ONE streaming
        composition of this session's production operators: composite
        quality gate (score ≥ 0.75 — same rule the agreement audit
        pins) → MinHash-LSH near-dup clusters → keep the best-quality
        doc per cluster (dedup.cluster_keep_best) → survivors
        re-joined to their text → frequency-ranked vocabulary freeze +
        token-id encode (textstats.token_ids_encode). Rows-only
        driver check (LSH isn't SQL-replayable); every stage is
        individually oracled/tested. Output: (doc_id, ids_str,
        n_tokens) for every surviving document."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        q = ts.quality(docs)

        def gate(b: pa.Table) -> pa.Table:
            qr = sql_round(b.column("quality"), 6)
            return pa.table({
                "doc_id": pc.cast(b.column("doc_id"), pa.int64()),
                "quality": qr,
            }).filter(pc.greater_equal(qr, 0.75))

        kept_q = q.map_batches(gate, batch_format="pyarrow")
        # near-dup pairs over the gated subset only (join docs back in)

        gated_docs = bloom_semi_join(docs, kept_q, "doc_id", "doc_id")
        pairs = dd.minhash_lsh_pairs(
            gated_docs, threshold=0.5).select_columns(["doc_a", "doc_b"])
        winners = dd.cluster_keep_best(kept_q, pairs)
        survivors = bloom_semi_join(gated_docs, winners, "doc_id",
                                    "doc_id")
        enc = ts.token_ids_encode(survivors)

        def stringify(b: pa.Table) -> pa.Table:
            s = pc.binary_join(
                pc.cast(b.column("ids"), pa.list_(pa.string())), ",")
            return pa.table({
                "doc_id": b.column("doc_id"),
                "ids_str": pc.cast(s, pa.string()),
                "n_tokens": b.column("n_tokens"),
            })

        return enc.map_batches(stringify, batch_format="pyarrow")

    def customer_pseudonymized(sf_dir: str):
        """Deterministic keyed pseudonymization
        (pipelines/clean.pseudonymize): customer names replaced by
        md5('v1' || name) 16-hex tokens — identity gone, joinability
        kept (equal names map to equal tokens under the shared salt).
        Zero exchanges; the oracle replays the digest in SQL."""
        cust = _read(sf_dir, "customer",
                     columns=["c_custkey", "c_name", "c_mktsegment"])
        return pseudonymize(cust, ["c_name"], salt="v1")

    def orders_fd_violations(sf_dir: str):
        """Functional-dependency profiling
        (pipelines/relational.fd_violations): does o_custkey →
        o_orderpriority hold? (It shouldn't — repeat customers order
        at many priorities.) Local pair dedup → one lhs-keyed
        exchange → scalar fold; the oracle recomputes the per-key
        distinct counts in SQL."""
        return fd_violations(_read(sf_dir, "orders"),
                             "o_custkey", "o_orderpriority")

    def events_daily_cusum(sf_dir: str):
        """One-sided CUSUM level-shift monitor
        (pipelines/relational.cusum_changepoints, Page 1954) over each
        event_type's daily count series: standardized against the
        type's own mean/std, drift allowance 0.5, flag at S > 4. The
        reflected recursion vectorizes via the Lindley cumsum/running-
        min identity, which the oracle replays with SQL windows."""
        ev = _read(sf_dir, "events", columns=["event_type", "ts"])
        return cusum_changepoints(ev, "event_type", "ts")

    def events_daily_locf(sf_dir: str):
        """Forward-filled daily value series per event_type
        (pipelines/relational.locf_fill — the gap-filling sibling of
        the zero-fill spine): daily mean value where observed, last
        observation carried forward across missing days, NULL before a
        type's first day.  The oracle is the spine LEFT JOIN with
        last_value(x IGNORE NULLS) over the same grid."""
        ev = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
        return locf_fill(ev, "event_type", "ts", "value")

    def events_hopping_counts(sf_dir: str):
        """Hopping event-time windows (2 h size, 1 h hop): the overlap
        explode collapses to partial counts per batch before the one
        exchange on (type, window_start)."""
        ev = _read(sf_dir, "events", columns=["event_type", "ts"])
        return hopping_window_agg(ev, ["event_type"], "ts",
                                  size_us=7_200_000_000,
                                  hop_us=3_600_000_000)

    def q18_large_orders(sf_dir: str):
        """TPC-H Q18 (large-volume customers): lineitem quantity is
        pre-aggregated per batch and fused with orders in ONE
        copartition_agg_join exchange; the HAVING filter shrinks the
        result before the customer join (one more exchange); global
        top-100 by (totalprice desc, orderkey)."""
        li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
        orders = _read(sf_dir, "orders",
                       columns=["o_orderkey", "o_custkey", "o_orderdate",
                                "o_totalprice"])
        joined = copartition_agg_join(
            li, orders, "l_orderkey", "o_orderkey",
            ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
            "l_quantity", "sum_qty",
        )
        big = joined.filter(expr="sum_qty > 250")
        cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
        out = inner_join(big, cust, "o_custkey", "c_custkey",
                         ["c_custkey", "c_name"])
        return (
            out.sort(["o_totalprice", "l_orderkey"],
                     descending=[True, False])
            .limit(100)
            .map_batches(
                lambda b: pa.table({
                    "c_name": b.column("c_name"),
                    "o_custkey": b.column("o_custkey"),
                    "o_orderkey": b.column("l_orderkey"),
                    "o_orderdate": b.column("o_orderdate"),
                    "o_totalprice": b.column("o_totalprice"),
                    "sum_qty": b.column("sum_qty"),
                }),
                batch_format="pyarrow",
            )
        )

    def docs_unigram_logprob(sf_dir: str):
        """Per-document mean unigram log2-probability — the CCNet/Gopher
        corpus-LM score filter. Three bounded exchanges, no broadcast
        vocabulary: token counts (combiner + token-keyed exchange),
        tokens ⋈ counts co-partitioned on the token, per-doc mean via a
        sufficient-stats combiner."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return unigram_logprob(docs)

    def docs_ppl_buckets(sf_dir: str):
        """CCNet per-language perplexity terciles
        (pipelines/textstats.ccnet_ppl_buckets — Wenzek et al. 2020):
        unigram-LM score per doc, then equal-size head/middle/tail
        NTILE(3) within each language by descending mean log-prob. The
        oracle composes the unigram-logprob SQL with a window ntile."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
        return ccnet_ppl_buckets(docs)

    def docs_dsir_weights(sf_dir: str):
        """DSIR importance weights
        (pipelines/textstats.dsir_logratio — Xie et al. 2023): per-doc
        mean unigram log-likelihood ratio between an LM trained on the
        target corpus (here the English documents, the stand-in for
        "a small high-quality corpus") and one trained on the raw
        rest, Laplace-smoothed over the shared vocabulary. The score a
        web-scale mixer resamples the raw crawl by. Token-keyed
        exchanges only — no broadcast vocabulary."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

        def flag(b: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": b.column("doc_id"),
                "text": b.column("text"),
                "is_target": pc.equal(b.column("lang"), "en"),
            })

        docs = docs.map_batches(flag, batch_format="pyarrow")
        return dsir_logratio(docs)

    def docs_source_kl_drift(sf_dir: str):
        """Per-source unigram-distribution drift
        (pipelines/textstats.unigram_kl_drift): KL(P_source || Q_corpus)
        over the corpus vocabulary with Laplace smoothing — the
        per-feed drift monitor a crawl mixer alarms on.  ONE token-keyed
        exchange; absent-token terms folded analytically (never
        materialized); the oracle recomputes the full vocabulary × group
        grid directly in SQL."""
        docs = _read(sf_dir, "documents", columns=["source", "text"])
        return unigram_kl_drift(docs, group_col="source")

    def docs_phrase_matches(sf_dir: str):
        """Exact phrase scan (pipelines/textstats.phrase_matches):
        every (doc, 1-based raw-split position) where the token
        sequence "the group" occurs — the contamination-audit /
        quote-mining grep.  Pure stateless map, zero exchanges; the
        oracle replays it with positional self-joins on
        generate_subscripts coordinates."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return phrase_matches(docs, ["the", "group"])

    def docs_nb_lang_predict(sf_dir: str):
        """Distributed multinomial Naive Bayes
        (pipelines/textstats.nb_train_predict): even-id documents train
        per-label token counts (closed-form sufficient statistics),
        odd-id documents are scored over the train vocabulary with
        Laplace smoothing and labeled with the argmax.  TWO exchanges,
        no broadcast vocabulary; the oracle replays priors, counts,
        OOV-drop and the argmax window in SQL."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
        return nb_train_predict(docs)

    def docs_winnowed_fingerprints(sf_dir: str):
        """Winnowing fingerprint selection
        (pipelines/textstats.winnow_fingerprints — Schleimer et al.
        2003, the MOSS algorithm): per-window rightmost-minimum of
        md5-hashed 3-token shingles, window 4.  Pure stateless map; the
        oracle replays the selection via the beater-free-interval
        characterization (a shingle is selected iff no strictly smaller
        hash within w-1 to the left and no smaller-or-equal hash within
        w-1 to the right leaves room for a window)."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return winnow_fingerprints(docs, k=3, w=4)

    def docs_source_overlap_matrix(sf_dir: str):
        """Cross-source n-gram overlap census
        (pipelines/dedup.source_ngram_overlap): pairwise Jaccard of
        each source's distinct trigram set — the cross-feed
        contamination matrix (mirrors / syndication) computed BEFORE
        per-document dedup.  One gram-keyed exchange emitting bounded
        per-pair partials; the oracle replays the distinct-gram
        self-join in SQL."""
        docs = _read(sf_dir, "documents", columns=["source", "text"])
        return source_ngram_overlap(docs, n=3)

    def docs_global_shuffle(sf_dir: str):
        """Deterministic seeded global training shuffle
        (pipelines/shards.global_shuffle_positions): every document's
        contiguous rank in the total order (md5('42:'||id), id) — a
        distributed zip-with-index via order-preserving 16-bit key-range
        buckets, O(buckets) driver ints, ONE bucket-keyed exchange. The
        oracle replays the permutation with a window row_number."""
        docs = _read(sf_dir, "documents", columns=["doc_id"])
        return global_shuffle_positions(docs, seed=42)

    def docs_domain_quality_filter(sf_dir: str):
        """Domain-level quality gate (pipelines/clean.domain_quality_filter
        — the RefinedWeb whole-site judgment): mean composite quality
        per source, drop every doc of the bottom-quartile domains.
        Combiner + one domain-keyed exchange + exact_quantile threshold
        + broadcast kept-set filter."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "source", "text"])
        return domain_quality_filter(docs, domain_col="source")

    def docs_mojibake_fixed(sf_dir: str):
        """Encoding repair (pipelines/clean.fix_mojibake — the ftfy /
        CCNet hygiene step): deterministic doc_id%3 arithmetic injects
        accented characters ('e'→'é', 'a'→'ä') and then CORRUPTS those
        rows the way the web does (UTF-8 bytes re-decoded as latin-1,
        so 'é' becomes 'Ã©'); the repair stage must detect the mojibake
        signature vectorized and undo it exactly.  The oracle states
        the fixed point: repaired text == the injected pre-corruption
        text, with the marker count replayed from character counts."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def corrupt(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            raw = batch.column("text").to_pylist()
            inj = pc.replace_substring(
                pc.replace_substring(batch.column("text"), "e", "é"),
                "a", "ä",
            ).to_pylist()
            out = [
                inj[k].encode("utf-8").decode("latin-1")
                if ids[k] % 3 == 0 else raw[k]
                for k in range(len(raw))
            ]
            return pa.table({
                "doc_id": batch.column("doc_id"),
                "text": pa.array(out, pa.string()),
            })

        return fix_mojibake(
            docs.map_batches(corrupt, batch_format="pyarrow")
        )

    def orders_validation_report(sf_dir: str):
        """Data-quality audit (pipelines/relational.validation_report —
        the Great-Expectations / dbt-test pattern): five declarative
        checks over orders fold to (rule, n, violations) partials in one
        streaming pass; unique checks count distinct values through a
        hash-partitioned exchange (per-partition distinct counts sum
        exactly).  The oracle recomputes every rule with SQL
        aggregates."""
        orders = _read(sf_dir, "orders",
                       columns=["o_orderkey", "o_custkey", "o_orderstatus",
                                "o_totalprice", "o_orderpriority"])
        return validation_report(orders, [
            {"col": "o_orderstatus", "check": "not_null"},
            {"col": "o_totalprice", "check": "range",
             "lo": 1000.0, "hi": 300000.0},
            {"col": "o_orderpriority", "check": "regex",
             "pattern": "^[1-3]-"},
            {"col": "o_orderstatus", "check": "in_set",
             "values": ["O", "F"]},
            {"col": "o_custkey", "check": "unique"},
            {"col": "o_orderkey", "check": "unique"},
        ])

    def orders_zorder_layout(sf_dir: str):
        """Z-order write layout (pipelines/relational.zorder_sort — the
        Delta/Iceberg ZORDER BY primitive): bin o_totalprice to an
        exact power-of-two grid, interleave its bits with o_custkey's
        into a Morton key, globally range-sort, and assign the output
        file bucket.  The oracle replays the interleave bit-for-bit
        via zorder_sql_expr; sortedness and bucket locality are pinned
        by unit tests (ordering doesn't survive a hash compare)."""
        orders = _read(sf_dir, "orders",
                       columns=["o_orderkey", "o_custkey", "o_totalprice"])

        def bin_dims(batch: pa.Table) -> pa.Table:
            tp_bin = pc.cast(
                pc.floor(pc.divide(batch.column("o_totalprice"), 2048.0)),
                pa.int64(),
            )
            return pa.table({
                "o_orderkey": batch.column("o_orderkey"),
                "ck": batch.column("o_custkey"),
                "tp_bin": tp_bin,
            })

        z = zorder_sort(orders.map_batches(bin_dims, batch_format="pyarrow"),
                        ["ck", "tp_bin"], bits=8, bucket_bits=4)
        return z.select_columns(["o_orderkey", "zkey", "zbucket"])

    def docs_flagged_words(sf_dir: str):
        """Flagged-word quality signal
        (pipelines/textstats.flagged_word_ratio — the C4 bad-words /
        RedPajama-v2 frac-signal family): fraction of lowercased
        whitespace tokens in a caller blocklist, vectorized is_in over
        the flattened token stream with bincount per-doc folds.  The
        oracle recomputes token and hit counts with unnest +
        conditional aggregation."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return flagged_word_ratio(docs, ["slow", "spam", "big", "junk"])

    def docs_compression_ratio(sf_dir: str):
        """Compression-ratio quality signal
        (pipelines/textstats.compression_ratio — RedPajama-v2's
        repetitiveness measure): zlib level-6 compressed size over
        utf-8 byte size per document.  No SQL oracle (DuckDB has no
        zlib) — rows-only driver check; semantics pinned by unit tests
        against the stdlib."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return compression_ratio(docs)

    def docs_corpus_profile(sf_dir: str):
        """One-row corpus report card
        (pipelines/textstats.corpus_profile): doc/empty counts, char
        and whitespace-token totals, max/mean length, distinct-text
        count, language cardinality and the modal language — ONE pass,
        tagged partial rows, two tiny exchanges (text hashes
        partitioned so per-partition distinct counts sum exactly).
        The oracle recomputes every field with SQL aggregates."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
        return corpus_profile(docs)

    def docs_script_fractions(sf_dir: str):
        """Unicode-script composition
        (pipelines/textstats.script_fractions): doc_id arithmetic
        appends Cyrillic / Han / Arabic / digit runs to the (Latin)
        document text, flipping the dominant script for some docs.
        Both sides count with RE2's own \\p{Script} classes (pyarrow
        and DuckDB share the regex engine), so the oracle is
        table-exact."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

        def synth(batch: pa.Table) -> pa.Table:
            ids, texts = [], []
            for r in batch.to_pylist():
                i = int(r["doc_id"])
                t = r["text"] or ""
                if i % 3 == 0:
                    t += " " + "привет мир " * (i % 4 + 1)
                if i % 5 == 0:
                    t += " " + "你好世界" * (len(t) // 2 + 1)
                if i % 7 == 0:
                    t += " مرحبا 123"
                ids.append(i)
                texts.append(t)
            return pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "text": pa.array(texts, pa.large_string())})

        return script_fractions(
            docs.map_batches(synth, batch_format="pyarrow"))

    def docs_tfidf_top_terms(sf_dir: str):
        """Per-document top-3 terms by TF-IDF (sklearn smooth idf) —
        keyword extraction. tf never shuffles (exact within the doc's
        own row); df is one token-keyed exchange over deduped
        (doc, tok) pairs; the top-k rides window_topk's per-batch
        combiner."""
        docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
        return tfidf_top_terms(docs, k=3)

    def q14_promo_revenue(sf_dir: str):
        """TPC-H Q14 shape — promotion revenue share for one ship
        month: lineitem prunes at the read (shipdate window + four
        columns); the part type joins by broadcast lookup (no join
        exchange); every batch folds to two partial sums and the global
        reduce is one scalar aggregate.  Zero exchanges. No qualifying
        row (or a zero total) gives NULL, as SQL's SUM and division
        do."""
        li = _read(sf_dir, "lineitem",
                   columns=["l_partkey", "l_extendedprice", "l_discount",
                            "l_shipdate"],
                   filter=((pc.field("l_shipdate")
                            >= pa.scalar(pd.Timestamp("1996-03-01")))
                           & (pc.field("l_shipdate")
                              < pa.scalar(pd.Timestamp("1996-04-01")))))

        def partial(batch: pa.Table) -> pa.Table:
            rev = (
                batch.column("l_extendedprice").to_numpy(
                    zero_copy_only=False)
                * (1.0 - batch.column("l_discount").to_numpy(
                    zero_copy_only=False))
            )
            is_promo = pc.fill_null(pc.equal(batch.column("p_type"),
                                             "PROMO"), False).to_numpy(
                zero_copy_only=False)
            return pa.table({
                "__promo": pa.array([float(rev[is_promo].sum())]),
                "__total": pa.array([float(rev.sum())]),
            })

        sums = broadcast_lookup(
            li, _dim(sf_dir, "part", ["p_partkey", "p_type"]),
            "l_partkey", "p_partkey", ["p_type"],
        ).map_batches(partial, batch_format="pyarrow").sum(
            ["__promo", "__total"])
        share = (100.0 * sums["sum(__promo)"] / sums["sum(__total)"]
                 if sums and sums["sum(__total)"] else None)
        return pa.table({"promo_revenue": pa.array([sql_round(share, 6)],
                                                   pa.float64())})

    def q19_disjunctive_revenue(sf_dir: str):
        """TPC-H Q19 shape — revenue under three OR'd (brand, size,
        quantity-band) predicates: the quantity envelope prunes at the
        read; part's brand and size join by broadcast lookup; the whole
        disjunction evaluates vectorized inside the map and the result
        is one scalar aggregate.  Zero exchanges."""
        li = _read(sf_dir, "lineitem",
                   columns=["l_partkey", "l_quantity", "l_extendedprice",
                            "l_discount"],
                   filter=((pc.field("l_quantity") >= pa.scalar(1.0))
                           & (pc.field("l_quantity") <= pa.scalar(30.0))))

        def partial(batch: pa.Table) -> pa.Table:
            b, s, qty, ext, disc = (
                batch.column(c).to_numpy(zero_copy_only=False) for c in
                ("p_brand", "p_size", "l_quantity", "l_extendedprice",
                 "l_discount"))
            rev = ext * (1.0 - disc)
            m = (
                ((b == "Brand#12") & (s >= 1) & (s <= 5)
                 & (qty >= 1) & (qty <= 11))
                | ((b == "Brand#23") & (s >= 1) & (s <= 10)
                   & (qty >= 10) & (qty <= 20))
                | ((b == "Brand#34") & (s >= 1) & (s <= 15)
                   & (qty >= 20) & (qty <= 30))
            )
            return pa.table({"__rev": pa.array([float(rev[m].sum())]),
                             "__n": pa.array([int(m.sum())])})

        sums = broadcast_lookup(
            li, _dim(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]),
            "l_partkey", "p_partkey", ["p_brand", "p_size"],
        ).map_batches(partial, batch_format="pyarrow").sum(["__rev", "__n"])
        # SUM over no qualifying row is NULL, as in SQL
        total = sums["sum(__rev)"] if sums and sums["sum(__n)"] else None
        return pa.table({"revenue": pa.array([sql_round(total, 2)],
                                             pa.float64())})

    def q16_supplier_part_counts(sf_dir: str):
        """TPC-H Q16 shape — distinct supplier count per part
        attribute triple, excluding negative-balance suppliers (the
        NOT IN): the supplier exclusion set is a broadcast anti-join
        (dim-sized); lineitem dedupes (partkey, suppkey) per batch,
        co-partitions with the filtered part dim on the partkey
        (exchange 1), and the distinct count per (brand, type, size)
        ships only deduped pairs (exchange 2)."""
        bad = _dim(sf_dir, "supplier", ["s_suppkey"],
                   filter=pc.field("s_acctbal") < 0.0)
        pairs = broadcast_lookup(
            _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"]),
            bad, "l_suppkey", "s_suppkey", [], how="anti",
        ).map_batches(
            lambda t: t.group_by(["l_partkey", "l_suppkey"]).aggregate([]),
            batch_format="pyarrow")
        part = ray.data.read_parquet(
            os.path.join(sf_dir, "part.parquet"),
            columns=["p_partkey", "p_brand", "p_type", "p_size"],
            filter=pc.field("p_brand") != pa.scalar("Brand#45"),
        )
        joined = inner_join(pairs, part, "l_partkey", "p_partkey",
                            ["p_partkey", "p_brand", "p_type", "p_size"])
        return distinct_count(joined, ["p_brand", "p_type", "p_size"],
                              "l_suppkey", "supplier_cnt")

    def customer_name_fuzzy_pairs(sf_dir: str):
        """Edit-distance-≤1 fuzzy self-join over customer names —
        typo-level blocking for entity resolution. SymSpell delete-1
        variant buckets (perfect recall at distance 1) + vectorized
        alignment verify; three narrow exchanges, pairs stay a
        Dataset."""
        cust = _read(sf_dir, "customer", columns=["c_name"])
        return edit1_fuzzy_pairs(cust, "c_name")

    def q4_order_priority(sf_dir: str):
        """TPC-H Q4 shape — per-priority count of orders with a late
        lineitem (EXISTS semi-join; commitdate/receiptdate aren't in
        this schema, so "late" = any lineitem shipped >60 days after
        the order date).  Lineitem reduces to one (orderkey,
        max shipdate) row per batch (EXISTS(ship > cutoff) ≡
        max(ship) > cutoff, so the combiner is exact); orders prune at
        the read; ONE co-partitioned exchange on the orderkey; the
        per-priority counts fold to ≤5 rows per partition before a
        tiny final reduce."""
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
            filter=(
                (pc.field("o_orderdate")
                 >= pa.scalar(pd.Timestamp("1996-01-01")))
                & (pc.field("o_orderdate")
                   < pa.scalar(pd.Timestamp("1996-04-01")))
            ),
        )
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_shipdate"],
        )

        def li_combine(batch: pa.Table) -> pa.Table:
            agg = batch.group_by(["l_orderkey"]).aggregate(
                [("l_shipdate", "max")]
            )
            return agg.rename_columns(["l_orderkey", "max_ship"])

        li_max = combine(li, li_combine)

        empty = pa.table({
            "o_orderpriority": pa.array([], pa.string()),
            "__n": pa.array([], pa.int64()),
        })

        def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
            # lt = lineitem (orderkey, max_ship) partials; rt = orders
            if lt.num_rows == 0 or rt.num_rows == 0:
                return empty
            j = lt.join(rt, keys=["l_orderkey"], join_type="inner")
            ship = j.column("max_ship").to_numpy(zero_copy_only=False)
            od = j.column("o_orderdate").to_numpy(zero_copy_only=False)
            late = ship > od + np.timedelta64(60, "D")
            dedup = (
                j.filter(pa.array(late))
                .select(["l_orderkey", "o_orderpriority"])
                .group_by(["l_orderkey", "o_orderpriority"])
                .aggregate([])
            )
            return dedup.group_by(["o_orderpriority"]).aggregate(
                [([], "count_all")]
            ).rename_columns(["o_orderpriority", "__n"])

        parts = _copartition(
            li_max, orders, "l_orderkey", "o_orderkey",
            ["o_orderkey", "o_orderdate", "o_orderpriority"],
            probe,
        )

        def finish(tbl: pa.Table) -> pa.Table:
            return tbl.group_by(["o_orderpriority"]).aggregate(
                [("__n", "sum")]
            ).rename_columns(["o_orderpriority", "order_count"])

        return grouped_apply(parts, [], finish)

    def q6_forecast_revenue(sf_dir: str):
        """TPC-H Q6 — forecast revenue change: every predicate prunes
        at the read (shipdate year, discount band, quantity cap, four
        columns), each batch folds to one partial sum, and the global
        reduce is a single scalar aggregate.  Zero exchanges."""
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_extendedprice", "l_discount"],
            filter=(
                (pc.field("l_shipdate")
                 >= pa.scalar(pd.Timestamp("1996-01-01")))
                & (pc.field("l_shipdate")
                   < pa.scalar(pd.Timestamp("1997-01-01")))
                & (pc.field("l_discount") >= pa.scalar(0.05))
                & (pc.field("l_discount") <= pa.scalar(0.07))
                & (pc.field("l_quantity") < pa.scalar(24.0))
            ),
        )

        def partial(batch: pa.Table) -> pa.Table:
            rev = (
                batch.column("l_extendedprice").to_numpy(
                    zero_copy_only=False)
                * batch.column("l_discount").to_numpy(
                    zero_copy_only=False)
            )
            return pa.table({"__rev": pa.array([float(rev.sum())])})

        # SUM over no row is NULL, as in SQL (Dataset.sum gives None)
        total = li.map_batches(partial, batch_format="pyarrow").sum("__rev")
        return pa.table({"revenue": pa.array([sql_round(total, 2)],
                                             pa.float64())})

    def q12_priority_by_returnflag(sf_dir: str):
        """TPC-H Q12 shape — high/low-priority lineitem counts per
        return flag (the schema has no shipmode; returnflag plays its
        role): lineitem prunes at the read and combines to one
        (orderkey, flag, count) row per batch group; ONE co-partitioned
        exchange with the slim orders dim on the orderkey; the
        conditional split (CASE WHEN priority IN high) is a vectorized
        mask inside the partition, folding to ≤3 rows each."""
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_orderpriority"],
        )
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_returnflag"],
            filter=(
                (pc.field("l_shipdate")
                 >= pa.scalar(pd.Timestamp("1996-01-01")))
                & (pc.field("l_shipdate")
                   < pa.scalar(pd.Timestamp("1997-01-01")))
            ),
        )

        def li_combine(batch: pa.Table) -> pa.Table:
            return batch.group_by(
                ["l_orderkey", "l_returnflag"]
            ).aggregate([([], "count_all")]).rename_columns(
                ["l_orderkey", "l_returnflag", "__c"]
            )

        li_cnt = combine(li, li_combine)

        empty = pa.table({
            "l_returnflag": pa.array([], pa.string()),
            "__hi": pa.array([], pa.int64()),
            "__lo": pa.array([], pa.int64()),
        })

        def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
            if lt.num_rows == 0 or rt.num_rows == 0:
                return empty
            j = lt.join(rt, keys=["l_orderkey"], join_type="inner")
            hi_mask = pc.is_in(
                j.column("o_orderpriority"),
                value_set=pa.array(["1-URGENT", "2-HIGH"]),
            ).to_numpy(zero_copy_only=False)
            c = j.column("__c").to_numpy(zero_copy_only=False)
            t = pa.table({
                "l_returnflag": j.column("l_returnflag"),
                "__hi": pa.array(np.where(hi_mask, c, 0),
                                 pa.int64()),
                "__lo": pa.array(np.where(hi_mask, 0, c),
                                 pa.int64()),
            })
            return t.group_by(["l_returnflag"]).aggregate(
                [("__hi", "sum"), ("__lo", "sum")]
            ).rename_columns(["l_returnflag", "__hi", "__lo"])

        parts = _copartition(
            li_cnt, orders, "l_orderkey", "o_orderkey",
            ["o_orderkey", "o_orderpriority"], probe,
        )

        def finish(tbl: pa.Table) -> pa.Table:
            return tbl.group_by(["l_returnflag"]).aggregate(
                [("__hi", "sum"), ("__lo", "sum")]
            ).rename_columns(
                ["l_returnflag", "high_line_count", "low_line_count"]
            )

        return grouped_apply(parts, [], finish)

    def q13_customer_distribution(sf_dir: str):
        """TPC-H Q13 — distribution of per-customer order counts
        including zero-order customers (the LEFT JOIN): orders combine
        to (custkey, count) per batch; ONE co-partitioned exchange with
        the slim customer dim; the per-partition local left join
        coalesces unmatched customers to 0 and folds straight to the
        (c_count, custdist) histogram, so only ≤ partitions × distinct
        counts rows reach the tiny final reduce."""
        cust = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey"],
        )
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey"],
            filter=pc.field("o_orderpriority") != pa.scalar("1-URGENT"),
        )

        def ord_combine(batch: pa.Table) -> pa.Table:
            return batch.group_by(["o_custkey"]).aggregate(
                [([], "count_all")]
            ).rename_columns(["o_custkey", "__c"])

        ord_cnt = combine(orders, ord_combine)

        def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
            # lt = customers (c_custkey); rt = order-count partials
            if lt.num_rows == 0:
                return pa.table({
                    "c_count": pa.array([], pa.int64()),
                    "__n": pa.array([], pa.int64()),
                })
            summed = rt.group_by(["c_custkey"]).aggregate(
                [("__c", "sum")]
            ).rename_columns(["c_custkey", "__c"])
            j = lt.join(summed, keys=["c_custkey"],
                        join_type="left outer")
            cnt = pc.coalesce(j.column("__c"), pa.scalar(0, pa.int64()))
            return pa.table({"c_count": cnt}).group_by(
                ["c_count"]
            ).aggregate([([], "count_all")]).rename_columns(
                ["c_count", "__n"]
            )

        parts = _copartition(
            cust, ord_cnt, "c_custkey", "o_custkey",
            ["o_custkey", "__c"], probe,
        )

        def finish(tbl: pa.Table) -> pa.Table:
            return tbl.group_by(["c_count"]).aggregate(
                [("__n", "sum")]
            ).rename_columns(["c_count", "custdist"])

        return grouped_apply(parts, [], finish)

    def q15_top_supplier(sf_dir: str):
        """TPC-H Q15 — the top-revenue supplier for one ship quarter
        (HAVING = global MAX): per-batch revenue combiner + one
        supplier-keyed exchange build the dim-sized revenue view, which
        materializes ONCE (it is supplier-cardinality, never the fact
        table); the max is a scalar aggregate broadcast into a
        vectorized equality filter; supplier names attach via a
        broadcast lookup — no second exchange."""
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_suppkey", "l_extendedprice", "l_discount"],
            filter=(
                (pc.field("l_shipdate")
                 >= pa.scalar(pd.Timestamp("1996-01-01")))
                & (pc.field("l_shipdate")
                   < pa.scalar(pd.Timestamp("1996-04-01")))
            ),
        )

        def partial(batch: pa.Table) -> pa.Table:
            rev = (
                batch.column("l_extendedprice").to_numpy(
                    zero_copy_only=False)
                * (1.0 - batch.column("l_discount").to_numpy(
                    zero_copy_only=False))
            )
            t = pa.table({
                "l_suppkey": batch.column("l_suppkey"),
                "__rev": pa.array(rev),
            })
            return t.group_by(["l_suppkey"]).aggregate(
                [("__rev", "sum")]
            ).rename_columns(["l_suppkey", "__rev"])

        def reduce_(tbl: pa.Table) -> pa.Table:
            summed = tbl.group_by(["l_suppkey"]).aggregate(
                [("__rev", "sum")]
            ).rename_columns(["l_suppkey", "total_revenue"])
            return summed.set_column(
                1, "total_revenue",
                sql_round(summed.column("total_revenue"), 2),
            )

        revenue = grouped_apply(
            combine(li, partial),
            ["l_suppkey"], reduce_,
            batch_format="pyarrow",
        ).materialize()
        rmax = revenue.max("total_revenue")
        top = revenue.map_batches(
            lambda b: b.filter(pc.equal(b.column("total_revenue"), rmax)),
            batch_format="pyarrow")
        named = broadcast_lookup(
            top, _dim(sf_dir, "supplier", ["s_suppkey", "s_name"]),
            "l_suppkey", "s_suppkey", ["s_name"])
        return named.map_batches(
            lambda b: pa.table({
                "s_suppkey": pc.cast(b.column("l_suppkey"), pa.int64()),
                "s_name": b.column("s_name"),
                "total_revenue": b.column("total_revenue"),
            }),
            batch_format="pyarrow")

    def q11_important_parts(sf_dir: str):
        """TPC-H Q11 shape — parts whose total shipped quantity
        exceeds a fixed fraction of the corpus total (HAVING >
        fraction · global SUM; quantity, not supplycost, because the
        schema has no partsupp).  Per-batch combiner + one
        partkey-keyed exchange build the dim-sized view; the global
        total is a scalar aggregate; the threshold comparison is a
        vectorized map-side filter.  Quantities are integral doubles,
        so both sums are exact and the knife-edge is deterministic
        across engines."""
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_partkey", "l_quantity"],
        )

        def partial(batch: pa.Table) -> pa.Table:
            return batch.group_by(["l_partkey"]).aggregate(
                [("l_quantity", "sum")]
            ).rename_columns(["l_partkey", "__q"])

        def reduce_(tbl: pa.Table) -> pa.Table:
            return tbl.group_by(["l_partkey"]).aggregate(
                [("__q", "sum")]
            ).rename_columns(["l_partkey", "value"])

        v = grouped_apply(
            combine(li, partial),
            ["l_partkey"], reduce_,
            batch_format="pyarrow",
        ).materialize()
        thresh = (v.sum("value") or 0.0) * 0.0005

        def keep(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.greater(batch.column("value"), thresh)
            )

        # at most 1 / 0.0005 = 2,000 parts clear the bar, so the result
        # comes back as one table: a Dataset with no rows would lose its
        # columns in to_pandas(), and an exchange's empty output block
        # has no columns at all
        kept = ray.get(
            v.map_batches(keep, batch_format="pyarrow").to_arrow_refs())
        return pa.concat_tables([pa.table({
            "l_partkey": pa.array([], pa.int64()),
            "value": pa.array([], pa.float64()),
        }), *(t for t in kept if t.num_rows)])

    def q17_small_quantity_revenue(sf_dir: str):
        """TPC-H Q17 — revenue from below-20%-of-part-average-quantity
        orders (the correlated AVG subquery): the brand slice of part is
        a broadcast semi-join that prunes lineitem map-side, the
        correlated per-part average and the row filter both happen
        inside ONE partkey-keyed exchange over the pruned slice, and the
        result folds to one partial sum (and row count) per partition;
        no qualifying row gives NULL, as SQL's SUM does. Quantities are
        integral doubles, so the per-part average (and the 0.2·avg
        knife-edge) is bit-identical to the SQL engine's."""
        part = _dim(sf_dir, "part", ["p_partkey"],
                    filter=pc.field("p_brand") == "Brand#23")
        li = _read(sf_dir, "lineitem",
                   columns=["l_partkey", "l_quantity", "l_extendedprice"])

        def per_part(pdf: pd.DataFrame) -> pd.DataFrame:
            g = pdf.groupby("l_partkey", sort=False)["l_quantity"]
            avg = g.transform("sum") / g.transform("size")
            keep = pdf["l_quantity"] < 0.2 * avg
            return pd.DataFrame({
                "__s": [float(pdf.loc[keep, "l_extendedprice"].sum())],
                "__n": [int(keep.sum())],
            })

        sums = grouped_apply(
            broadcast_lookup(li, part, "l_partkey", "p_partkey", []),
            ["l_partkey"], per_part,
            batch_format="pandas",
        ).sum(["__s", "__n"])
        avg = sums["sum(__s)"] / 7.0 if sums and sums["sum(__n)"] else None
        return pa.table({"avg_yearly": pa.array([sql_round(avg, 2)],
                                                pa.float64())})

    def q2_min_cost_supplier(sf_dir: str):
        """TPC-H Q2 shape — the cheapest supplier per small part (the
        schema has no partsupp, so unit cost = MIN(extendedprice /
        quantity) observed in lineitem): the size-filtered part dim is
        a broadcast semi-join that prunes lineitem; lineitem combines to
        one (part, supplier, min cost) row per batch; the per-part
        argmin (tie-break on suppkey) happens inside ONE partkey-keyed
        exchange; names attach map-side by broadcast lookup."""
        part = _dim(sf_dir, "part", ["p_partkey", "p_name"],
                    filter=pc.field("p_size") <= 5)
        li = _read(sf_dir, "lineitem",
                   columns=["l_partkey", "l_suppkey", "l_quantity",
                            "l_extendedprice"])

        def partial(batch: pa.Table) -> pa.Table:
            cost = (
                batch.column("l_extendedprice").to_numpy(
                    zero_copy_only=False)
                / batch.column("l_quantity").to_numpy(
                    zero_copy_only=False)
            )
            t = pa.table({
                "l_partkey": batch.column("l_partkey"),
                "l_suppkey": batch.column("l_suppkey"),
                "__cost": pa.array(cost),
            })
            return t.group_by(["l_partkey", "l_suppkey"]).aggregate(
                [("__cost", "min")]
            ).rename_columns(["l_partkey", "l_suppkey", "__cost"])

        def argmin(pdf: pd.DataFrame) -> pd.DataFrame:
            g = pdf.groupby(["l_partkey", "l_suppkey"], sort=False,
                            as_index=False)["__cost"].min()
            g = g.sort_values(["l_partkey", "__cost", "l_suppkey"],
                              kind="stable")
            return g.drop_duplicates(subset=["l_partkey"], keep="first")

        best = grouped_apply(
            combine(broadcast_lookup(li, part, "l_partkey", "p_partkey", []),
                    partial),
            ["l_partkey"], argmin,
            batch_format="pandas",
        )
        best = broadcast_lookup(best, part, "l_partkey", "p_partkey",
                                ["p_name"])
        best = broadcast_lookup(
            best, _dim(sf_dir, "supplier", ["s_suppkey", "s_name"]),
            "l_suppkey", "s_suppkey", ["s_name"])
        return best.map_batches(
            lambda b: pa.table({
                "p_partkey": pc.cast(b.column("l_partkey"), pa.int64()),
                "p_name": b.column("p_name"),
                "s_name": b.column("s_name"),
                "unit_cost": b.column("__cost"),
            }),
            batch_format="pyarrow")

    def q22_idle_rich_customers(sf_dir: str):
        """TPC-H Q22 shape — above-average-balance customers with no
        urgent order, grouped by a derived country code (custkey mod
        10; the schema has no phone column): the global average is one
        scalar aggregate over a pruned read; the NOT EXISTS rides
        :func:`bloom_anti_join`, so only bloom-positive customers ever
        shuffle; the final per-country count/sum is one exchange keyed
        by the 10-value country code."""
        cust = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_acctbal"],
        )
        avg_bal = ray.data.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_acctbal"],
            filter=pc.field("c_acctbal") > pa.scalar(0.0),
        ).mean("c_acctbal") or 0.0

        rich = cust.map_batches(
            lambda b: b.filter(
                pc.greater(b.column("c_acctbal"), avg_bal)),
            batch_format="pyarrow",
        )
        urgent = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey"],
            filter=pc.field("o_orderpriority") == pa.scalar("1-URGENT"),
        )
        idle = bloom_anti_join(rich, urgent, "c_custkey", "o_custkey")

        def with_cntry(batch: pa.Table) -> pa.Table:
            ck = batch.column("c_custkey").to_numpy(zero_copy_only=False)
            return batch.append_column(
                "cntry", pa.array(ck % 10, pa.int64())
            )

        def agg(tbl: pa.Table) -> pa.Table:
            out = tbl.group_by(["cntry"]).aggregate(
                [([], "count_all"), ("c_acctbal", "sum")]
            ).rename_columns(["cntry", "numcust", "totacctbal"])
            return out.set_column(
                2, "totacctbal",
                sql_round(out.column("totacctbal"), 2),
            )

        return grouped_apply(
            idle.map_batches(with_cntry, batch_format="pyarrow"),
            ["cntry"], agg, batch_format="pyarrow",
        )

    def q21_waiting_suppliers(sf_dir: str):
        """TPC-H Q21 shape — suppliers who were the SOLE late supplier
        in a finished multi-supplier order (late = shipped >60 days
        after the order date, as in q4): lineitem combines to one
        (order, supplier, max shipdate) row per batch — exact, since
        both the lateness test and the per-order supplier census only
        need per-(order,supplier) maxima; ONE orderkey-keyed exchange
        joins the F-status orders and runs the whole sole-late-supplier
        logic vectorized per partition; the per-supplier counts fold
        through a second tiny exchange and names attach map-side by
        broadcast lookup."""
        orders = ray.data.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderkey", "o_orderdate"],
            filter=pc.field("o_orderstatus") == pa.scalar("F"),
        )
        li = ray.data.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_suppkey", "l_shipdate"],
        )

        def li_combine(batch: pa.Table) -> pa.Table:
            return batch.group_by(
                ["l_orderkey", "l_suppkey"]
            ).aggregate([("l_shipdate", "max")]).rename_columns(
                ["l_orderkey", "l_suppkey", "max_ship"]
            )

        li_max = combine(li, li_combine)

        empty = pa.table({
            "l_suppkey": pa.array([], pa.int64()),
            "__n": pa.array([], pa.int64()),
        })

        def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
            if lt.num_rows == 0 or rt.num_rows == 0:
                return empty
            j = lt.join(rt, keys=["l_orderkey"], join_type="inner")
            if j.num_rows == 0:
                return empty
            pdf = j.to_pandas()
            g = pdf.groupby(["l_orderkey", "l_suppkey"], sort=False,
                            as_index=False).agg(
                max_ship=("max_ship", "max"),
                od=("o_orderdate", "first"),
            )
            g["late"] = g["max_ship"] > g["od"] + pd.Timedelta(days=60)
            stats = g.groupby("l_orderkey", sort=False)["late"].agg(
                n_supp="size", n_late="sum")
            g = g.merge(stats, left_on="l_orderkey", right_index=True)
            qual = g[g["late"] & (g["n_supp"] > 1) & (g["n_late"] == 1)]
            counts = qual.groupby("l_suppkey", sort=False).size()
            return pa.table({
                "l_suppkey": pa.array(
                    counts.index.to_numpy(np.int64), pa.int64()),
                "__n": pa.array(counts.to_numpy(np.int64), pa.int64()),
            })

        parts = _copartition(
            li_max, orders, "l_orderkey", "o_orderkey",
            ["o_orderkey", "o_orderdate"], probe,
        )

        def reduce_(tbl: pa.Table) -> pa.Table:
            return tbl.group_by(["l_suppkey"]).aggregate(
                [("__n", "sum")]
            ).rename_columns(["l_suppkey", "numwait"])

        summed = grouped_apply(parts, ["l_suppkey"], reduce_,
                               batch_format="pyarrow")
        return broadcast_lookup(
            summed, _dim(sf_dir, "supplier", ["s_suppkey", "s_name"]),
            "l_suppkey", "s_suppkey", ["s_name"],
        ).map_batches(lambda b: b.select(["s_name", "numwait"]),
                      batch_format="pyarrow")

    def lineitem_unpivot_measures(sf_dir: str):
        """UNPIVOT/melt — three lineitem measures to long form; a pure
        map stage (zero exchanges) streaming at read speed."""
        li = _read(sf_dir, "lineitem",
                   columns=["l_orderkey", "l_linenumber", "l_quantity",
                            "l_extendedprice", "l_tax"])
        return unpivot(li, ["l_orderkey", "l_linenumber"],
                       ["l_quantity", "l_extendedprice", "l_tax"])

    def events_next_event_type(sf_dir: str):
        """LEAD() window — each event annotated with the user's next
        event type; one user-keyed exchange (window_lead = window_lag
        with negated shift)."""
        ev = _read(sf_dir, "events",
                   columns=["event_id", "user_id", "ts", "event_type"])
        return window_lead(ev, ["user_id"], "ts", "event_type",
                           "next_type", "event_id")

    def orders_price_dense_rank(sf_dir: str):
        """DENSE_RANK() window — order price rank within each
        priority class, ties sharing one consecutive rank; one
        exchange on the priority key."""
        orders = _read(sf_dir, "orders",
                       columns=["o_orderkey", "o_orderpriority",
                                "o_totalprice"])
        return window_dense_rank(orders, ["o_orderpriority"],
                                 "o_totalprice", out_col="price_rank")

    def orders_price_rank(sf_dir: str):
        """RANK() window (ties share, gaps remain) — DENSE_RANK's
        sibling; one exchange on the priority key."""
        orders = _read(sf_dir, "orders",
                       columns=["o_orderkey", "o_orderpriority",
                                "o_totalprice"])
        return window_rank(orders, ["o_orderpriority"], "o_totalprice",
                           out_col="price_rank")

    def orders_price_cume_dist(sf_dir: str):
        """CUME_DIST() window — fraction of the priority class at or
        below each order's price; PERCENT_RANK's sibling, one
        exchange."""
        orders = _read(sf_dir, "orders",
                       columns=["o_orderkey", "o_orderpriority",
                                "o_totalprice"])
        return window_cume_dist(orders, ["o_orderpriority"],
                                "o_totalprice", out_col="cd")

    def events_first_last_value(sf_dir: str):
        """Ordered FIRST/LAST per user — each batch ships at most two
        rows per user (its local first and last), one exchange."""
        ev = _read(sf_dir, "events",
                   columns=["event_id", "user_id", "ts", "value"])
        return grouped_first_last(ev, ["user_id"], ["ts", "event_id"],
                                  "value")

    def q8_market_share(sf_dir: str):
        """TPC-H Q8 shape — national market share: of all PROMO-part
        revenue delivered to ASIA customers in the 1995-1996 order
        window, the share supplied by one nation (the lexicographically
        first ASIA nation, computed from data so the query is sf-dir
        portable), per order year. Scale shape: the type-filtered part
        keys, supplier nations and the ASIA customers are broadcast
        lookups from pruned reads (all bounded dims; co-partition takes
        over when customer outgrows a broadcast, as q3 shows); lineitem
        and orders are pruned map-side BEFORE the single big-big
        orderkey exchange whose partition probe joins and pre-aggregates
        (year, volume, share_volume) — the final groupby folds a handful
        of partials per year."""
        lo = datetime.datetime(1995, 1, 1)
        hi = datetime.datetime(1997, 1, 1)
        asia = _asia_nations(sf_dir)
        share_key = asia.sort_by("n_name").column("n_nationkey")[0].as_py()
        part = _dim(sf_dir, "part", ["p_partkey"],
                    filter=pc.field("p_type") == "PROMO")
        supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
        cust = _dim(sf_dir, "customer", ["c_custkey"],
                    filter=pc.field("c_nationkey").isin(
                        asia.column("n_nationkey").to_pylist()))

        def li_slim(b: pa.Table) -> pa.Table:
            vol = pc.multiply(b.column("l_extendedprice"),
                              pc.subtract(1.0, b.column("l_discount")))
            is_share = pc.fill_null(
                pc.equal(b.column("s_nationkey"), share_key), False)
            return pa.table({
                "l_orderkey": b.column("l_orderkey"),
                "vol": vol,
                "share_vol": pc.if_else(is_share, vol, 0.0),
            })

        def ord_slim(b: pa.Table) -> pa.Table:
            return pa.table({
                "o_orderkey": b.column("o_orderkey"),
                "o_year": pc.cast(pc.year(b.column("o_orderdate")),
                                  pa.int64()),
            })

        li = broadcast_lookup(
            broadcast_lookup(
                _read(sf_dir, "lineitem",
                      columns=["l_orderkey", "l_partkey", "l_suppkey",
                               "l_extendedprice", "l_discount"]),
                part, "l_partkey", "p_partkey", []),
            supp, "l_suppkey", "s_suppkey", ["s_nationkey"], how="left",
        ).map_batches(li_slim, batch_format="pyarrow")
        orders = broadcast_lookup(
            _read(sf_dir, "orders",
                  columns=["o_orderkey", "o_custkey", "o_orderdate"],
                  filter=((pc.field("o_orderdate") >= lo)
                          & (pc.field("o_orderdate") < hi))),
            cust, "o_custkey", "c_custkey", [],
        ).map_batches(ord_slim, batch_format="pyarrow")

        def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
            if lt.num_rows == 0 or rt.num_rows == 0:
                return pa.table({"o_year": pa.array([], pa.int64()),
                                 "vol": pa.array([], pa.float64()),
                                 "share_vol": pa.array([], pa.float64())})
            joined = lt.join(rt, keys=["l_orderkey"], join_type="inner")
            agg = joined.group_by(["o_year"]).aggregate(
                [("vol", "sum"), ("share_vol", "sum")]
            )
            return agg.rename_columns(["o_year", "vol", "share_vol"])

        partials = _copartition(li, orders, "l_orderkey", "o_orderkey",
                                ["o_orderkey", "o_year"], probe)
        final = partials.groupby("o_year").aggregate(
            Sum("vol", alias_name="vol"),
            Sum("share_vol", alias_name="share_vol"),
        )

        def finish(b: pa.Table) -> pa.Table:
            share = sql_round(
                pc.divide(b.column("share_vol"), b.column("vol")), 6)
            return pa.table({"o_year": b.column("o_year"),
                             "mkt_share": share})

        return final.map_batches(finish, batch_format="pyarrow")

    def q9_product_profit(sf_dir: str):
        """TPC-H Q9 shape — product-type profit by nation and year.
        The testdata has no partsupp table, so supply cost is adapted
        to the in-schema deterministic proxy 0.5 * p_retailprice
        (amount = l_extendedprice*(1-l_discount) -
        0.5*p_retailprice*l_quantity); the plan shape is Q9's. Scale
        shape: the name-filtered part's retailprice and the supplier's
        nation are broadcast lookups; lineitem slims map-side to (orderkey,
        nation, amount); ONE big-big orderkey exchange against the
        2-column orders read attaches the year and pre-aggregates per
        (nation, year) in the partition probe. Inputs carry two decimals,
        so each amount is an exact integer of 1e-4 units: the sums are
        exact whatever the partition count, and the round to cents is
        half away from zero on the exact total."""
        part = _dim(sf_dir, "part", ["p_partkey", "p_retailprice"],
                    filter=pc.match_substring(pc.field("p_name"), "widget"))
        supp = lookup_batch(
            _dim(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]),
            _dim(sf_dir, "nation", ["n_nationkey", "n_name"]),
            "s_nationkey", ["n_name"], "inner")

        def li_slim(b: pa.Table) -> pa.Table:
            ext, disc, cost, qty = (
                b.column(c).to_numpy(zero_copy_only=False) for c in
                ("l_extendedprice", "l_discount", "p_retailprice",
                 "l_quantity"))
            amount = ext * (1.0 - disc) - 0.5 * cost * qty
            return pa.table({
                "l_orderkey": b.column("l_orderkey"),
                "nation": b.column("n_name"),
                "amount": sql_round(amount * 10_000).astype(np.int64),
            })

        def ord_slim(b: pa.Table) -> pa.Table:
            return pa.table({
                "o_orderkey": b.column("o_orderkey"),
                "o_year": pc.cast(pc.year(b.column("o_orderdate")),
                                  pa.int64()),
            })

        li = broadcast_lookup(
            broadcast_lookup(
                _read(sf_dir, "lineitem",
                      columns=["l_orderkey", "l_partkey", "l_suppkey",
                               "l_quantity", "l_extendedprice",
                               "l_discount"]),
                part, "l_partkey", "p_partkey", ["p_retailprice"]),
            supp, "l_suppkey", "s_suppkey", ["n_name"], how="left",
        ).map_batches(li_slim, batch_format="pyarrow")
        orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"]
                       ).map_batches(ord_slim, batch_format="pyarrow")

        def probe(lt: pa.Table, rt: pa.Table) -> pa.Table:
            if lt.num_rows == 0 or rt.num_rows == 0:
                return pa.table({"nation": pa.array([], pa.string()),
                                 "o_year": pa.array([], pa.int64()),
                                 "amount": pa.array([], pa.int64())})
            joined = lt.join(rt, keys=["l_orderkey"], join_type="inner")
            agg = joined.group_by(["nation", "o_year"]).aggregate(
                [("amount", "sum")]
            )
            return agg.rename_columns(["nation", "o_year", "amount"])

        partials = _copartition(li, orders, "l_orderkey", "o_orderkey",
                                ["o_orderkey", "o_year"], probe)
        final = partials.groupby(["nation", "o_year"]).aggregate(
            Sum("amount", alias_name="sum_profit")
        )

        def finish(b: pa.Table) -> pa.Table:
            units = b.column("sum_profit").to_numpy(zero_copy_only=False)
            cents = np.sign(units) * ((np.abs(units) + 50) // 100)
            return b.set_column(
                b.schema.get_field_index("sum_profit"), "sum_profit",
                pa.array(cents / 100.0, pa.float64()),
            )

        return final.map_batches(finish, batch_format="pyarrow")

    def q20_part_promotion(sf_dir: str):
        """TPC-H Q20 shape — suppliers who shipped a significant volume
        of a name-matched part in the 1996 window (the availqty
        correlation needs the absent partsupp table, so the HAVING
        threshold is the adaptation: sum(l_quantity) > 40 per
        (part, supplier)), restricted to ASIA. Scale shape: the
        name-filtered part keys are a broadcast semi-join that prunes
        lineitem map-side after a shipdate-pruned read; a per-batch
        (part,supp) combiner pre-aggregates before the ONE exchange; the
        surviving supplier keys collapse to a distinct set orders of
        magnitude under the supplier table, and the ASIA supplier names
        join by broadcast lookup."""
        lo = datetime.datetime(1996, 1, 1)
        hi = datetime.datetime(1997, 1, 1)
        part = _dim(sf_dir, "part", ["p_partkey"],
                    filter=pc.starts_with(pc.field("p_name"), "large"))
        supp = _dim(sf_dir, "supplier", ["s_suppkey", "s_name"],
                    filter=pc.field("s_nationkey").isin(
                        _asia_nations(sf_dir).column("n_nationkey")
                        .to_pylist()))

        def partial(pdf):
            return (pdf.groupby(["l_partkey", "l_suppkey"], sort=False,
                                as_index=False)["l_quantity"].sum())

        li = _read(sf_dir, "lineitem",
                   columns=["l_partkey", "l_suppkey", "l_quantity",
                            "l_shipdate"],
                   filter=((pc.field("l_shipdate") >= lo)
                           & (pc.field("l_shipdate") < hi)),
                   ).drop_columns(["l_shipdate"])
        sums = (
            broadcast_lookup(li, part, "l_partkey", "p_partkey", [])
            .map_batches(partial, batch_format="pandas")
            .groupby(["l_partkey", "l_suppkey"])
            .aggregate(Sum("l_quantity", alias_name="qty"))
            .filter(expr="qty > 40")
        )

        def distinct_named(b: pa.Table) -> pa.Table:
            t = b.group_by(["l_suppkey", "s_name"]).aggregate([])
            return pa.table({
                "s_suppkey": pc.cast(t.column("l_suppkey"), pa.int64()),
                "s_name": t.column("s_name"),
            })

        # per-partition distinct → global distinct: the surviving key
        # set is bounded by the supplier table, one tiny exchange
        named = broadcast_lookup(sums, supp, "l_suppkey", "s_suppkey",
                                 ["s_name"]).map_batches(
            distinct_named, batch_format="pyarrow")
        return (named.groupby("s_suppkey")
                .map_groups(lambda t: t.slice(0, 1),
                            batch_format="pyarrow"))

    def orders_custkey_approx_distinct(sf_dir: str):
        """Global HyperLogLog COUNT(DISTINCT o_custkey) — every batch
        reduces to one 4 KB sketch; ≤64 salted partials merge; no
        distinct-value exchange at any scale. Rows-only check (the
        estimate is ~1.6%-error by construction; the error bound is
        pinned by tests/test_sketch_hll.py)."""
        orders = _read(sf_dir, "orders", columns=["o_custkey"])
        return approx_count_distinct(orders, ["o_custkey"], p=12)

    def events_user_types_approx_distinct(sf_dir: str):
        """Grouped HLL — approximate distinct event types per user in
        ONE exchange of 4 KB-per-(batch,user) sketch rows; the exact
        companion shape is `supplier_distinct_parts`°."""
        ev = _read(sf_dir, "events", columns=["user_id", "event_type"])
        return approx_count_distinct(ev, ["event_type"],
                                     keys=["user_id"], p=12)

    def events_type_entropy_by_user(sf_dir: str):
        """Shannon entropy of each user's event-type distribution —
        per-batch (user,type) count combiner, one user-keyed exchange,
        vectorized entropy."""
        ev = _read(sf_dir, "events", columns=["user_id", "event_type"])
        return grouped_entropy(ev, ["user_id"], "event_type")

    def docs_exact_dedup_keep_best(sf_dir: str):
        """Dedup-keep-best composite — documents grouped by the md5
        whitespace-normalized fingerprint (same normalization as
        `doc_fingerprints`°); each group keeps its BEST row (longest
        raw text, doc_id tiebreak), the keep-policy real pipelines use
        instead of keep-first. One exchange on the fingerprint; each
        batch pre-truncates to its local best per fingerprint, so the
        exchange ships ≤1 row per (batch, fingerprint)."""
        docs = _read(sf_dir, "documents",
                     columns=["doc_id", "text", "n_chars"])

        def fp(pdf):
            pdf = pdf.copy()
            pdf["fingerprint"] = [
                hashlib.md5(" ".join(t.split()).encode("utf-8")).hexdigest()
                for t in pdf["text"]
            ]
            return _best(pdf)  # combiner: local best per fingerprint

        def _best(pdf):
            pdf = pdf.sort_values(
                ["fingerprint", "n_chars", "doc_id"],
                ascending=[True, False, True], kind="stable")
            return pdf.drop_duplicates("fingerprint", keep="first")

        def keep_best(pdf):
            return _best(pdf)[["doc_id", "text"]]

        combined = docs.map_batches(fp, batch_format="pandas")
        return grouped_apply(combined, ["fingerprint"], keep_best,
                             batch_format="pandas")

    reg = {
        # KG pipeline
        "kg_extract_documents": kg_extract_documents,
        "wet_pages_roundtrip": wet_pages_roundtrip,
        "warc_extract_documents": warc_extract_documents,
        "url_canonicalized": url_canonicalized,
        "pages_domain_counts": pages_domain_counts,
        "docs_domain_capped": docs_domain_capped,
        "web_host_link_graph": web_host_link_graph,
        "web_host_cocitation": web_host_cocitation,
        "events_time_weighted_value": events_time_weighted_value,
        "web_anchor_texts": web_anchor_texts,
        "pages_url_filtered": pages_url_filtered,
        "pages_robots_filtered": pages_robots_filtered,
        "pages_html_metadata": pages_html_metadata,
        "web_crawl_frontier": web_crawl_frontier,
        "pages_main_content": pages_main_content,
        "pages_sitemap_urls": pages_sitemap_urls,
        "pages_mirror_paths": pages_mirror_paths,
        "docs_boilerplate_scoped": docs_boilerplate_scoped,
        "web_host_pagerank": web_host_pagerank,
        "web_host_hits": web_host_hits,
        "web_host_reciprocity": web_host_reciprocity,
        "pages_recrawl_dedup": pages_recrawl_dedup,
        "pages_recrawl_dedup_windowed": pages_recrawl_dedup_windowed,
        "docs_stop_tokens": docs_stop_tokens,
        "docs_c4_line_filtered": docs_c4_line_filtered,
        "docs_gopher_quality": docs_gopher_quality,
        "web_curation_pipeline": web_curation_pipeline,
        "docs_paragraph_dedup": docs_paragraph_dedup,
        "docs_line_dedup_within": docs_line_dedup_within,
        "docs_filter_agreement": docs_filter_agreement,
        "docs_log_odds_terms": docs_log_odds_terms,
        "docs_tfidf_cosine_pairs": docs_tfidf_cosine_pairs,
        "docs_graph_random_walks": docs_graph_random_walks,
        "docs_token_ids": docs_token_ids,
        "docs_logreg_spam_pred": docs_logreg_spam_pred,
        "docs_wet_export": docs_wet_export,
        "pages_crawl_diff": pages_crawl_diff,
        "docs_lang_rebalanced": docs_lang_rebalanced,
        "kg_chunks": kg_chunks,
        "kg_terms": kg_terms,
        "kg_term_nodes": kg_term_nodes,
        "kg_triples": kg_triples,
        "kg_chunk_vectors": kg_chunk_vectors,
        "kg_entity_nodes": kg_entity_nodes,
        "kg_edges": kg_edges,
        "kg_edges_fanout": kg_edges_fanout,
        "kg_doc_stats": kg_doc_stats,
        # query layer
        "kg_vector_topk": kg_vector_topk,
        "kg_vector_index_build": kg_vector_index_build,
        "kg_vector_topk_ivf": kg_vector_topk_ivf,
        "kg_term_index_build": kg_term_index_build,
        "kg_term_search": kg_term_search,
        "kg_term_search_all": kg_term_search_all,
        "kg_hybrid_retrieve": kg_hybrid_retrieve,
        "kg_hybrid_retrieve_ivf": kg_hybrid_retrieve_ivf,
        "kg_context_windows": kg_context_windows,
        "kg_document_chain": kg_document_chain,
        "kg_relationship_search": kg_relationship_search,
        # training-data ops
        "ws_token_counts": ws_token_counts,
        "token_counts_full": token_counts_full,
        "language_id": language_id,
        "quality_scores": quality_scores,
        "docs_quality_auc": docs_quality_auc,
        "docs_quality_calibration": docs_quality_calibration,
        "docs_token_windows": docs_token_windows,
        "docs_token_roundtrip": docs_token_roundtrip,
        "docs_length_buckets": docs_length_buckets,
        "docs_filter_kappa": docs_filter_kappa,
        "docs_lang_f1": docs_lang_f1,
        "docs_split_leakage": docs_split_leakage,
        "docs_quality_filtered": docs_quality_filtered,
        "docs_length_trimmed": docs_length_trimmed,
        "doc_fingerprints": doc_fingerprints,
        "doc_fingerprints_rolling": doc_fingerprints_rolling,
        "exact_dedup_docs": exact_dedup_docs,
        "minhash_lsh_pairs": minhash_lsh_pairs,
        "simhash_dup_pairs": simhash_dup_pairs,
        "ngram_jaccard_dups": ngram_jaccard_dups,
        "docs_jaccard_exact_pairs": docs_jaccard_exact_pairs,
        "embedding_cosine_exact_pairs": embedding_cosine_exact_pairs,
        "dup_clusters": dup_clusters,
        "dup_clusters_chain": dup_clusters_chain,
        "docs_cluster_keep_best": docs_cluster_keep_best,
        "embedding_knn_top10": embedding_knn_top10,
        "embedding_knn_join": embedding_knn_join,
        "embedding_ann_recall_eval": embedding_ann_recall_eval,
        "embedding_pca_project": embedding_pca_project,
        "embedding_kmeans_clusters": embedding_kmeans_clusters,
        "embedding_knn_lsh": embedding_knn_lsh,
        "embedding_knn_ivf": embedding_knn_ivf,
        "embedding_knn_pq": embedding_knn_pq,
        "embedding_knn_ivfpq": embedding_knn_ivfpq,
        "embedding_knn_ivfpq_rerank": embedding_knn_ivfpq_rerank,
        "embedding_near_dups": embedding_near_dups,
        "embedding_label_counts": embedding_label_counts,
        "decode_image_features": decode_image_features,
        "decode_audio_frames": decode_audio_frames,
        "sample_video_frames": sample_video_frames_q,
        "video_frames_real_containers": video_frames_real_containers,
        # relational coverage
        "lang_distribution": lang_distribution,
        "docs_by_source": docs_by_source,
        "q1_pricing_summary": q1_pricing_summary,
        "top_customers_by_orders": top_customers_by_orders,
        "customer_segment_revenue": customer_segment_revenue,
        "nation_region_counts": nation_region_counts,
        "part_topk_price": part_topk_price,
        "part_sanitized_names": part_sanitized_names,
        "capitalized_phrases": capitalized_phrases,
        "supplier_acctbal_minmax": supplier_acctbal_minmax,
        "lineitem_filter_pruned": lineitem_filter_pruned,
        "orders_by_priority_month": orders_by_priority_month,
        "supplier_nation_join": supplier_nation_join,
        "events_by_type": events_by_type,
        "events_sessionized": events_sessionized,
        # distributed relational operators (pipelines/relational.py)
        "docs_hash_sample": docs_hash_sample,
        "events_rolling_mean": events_rolling_mean,
        "customers_without_urgent_orders": customers_without_urgent_orders,
        "events_asof_purchase_view": events_asof_purchase_view,
        "top3_orders_per_customer": top3_orders_per_customer,
        "supplier_distinct_parts": supplier_distinct_parts,
        "lineitem_qty_median": lineitem_qty_median,
        "orders_price_band_join": orders_price_band_join,
        "order_price_histogram": order_price_histogram,
        "embedding_exact_near_dups": embedding_exact_near_dups,
        "orders_price_p90_by_priority": orders_price_p90_by_priority,
        "orders_rollup": orders_rollup,
        "urgent_high_value_custkeys": urgent_high_value_custkeys,
        "custkeys_never_urgent": custkeys_never_urgent,
        "orders_status_pivot": orders_status_pivot,
        "events_user_approx_distinct": events_user_approx_distinct,
        "urgent_lineitem_qty_by_flag": urgent_lineitem_qty_by_flag,
        "region_nation_list": region_nation_list,
        "top_tokens_exact": top_tokens_exact,
        "top_tokens_sketch": top_tokens_sketch,
        "lineitem_qty_price_corr": lineitem_qty_price_corr,
        "q3_shipping_priority": q3_shipping_priority,
        "events_user_cumsum": events_user_cumsum,
        "q5_nation_volume": q5_nation_volume,
        "docs_stratified_sample": docs_stratified_sample,
        "docs_decontaminated": docs_decontaminated,
        "docs_bench_overlap": docs_bench_overlap,
        "customer_order_counts_left": customer_order_counts_left,
        "events_funnel": events_funnel,
        "events_weekly_retention": events_weekly_retention,
        "events_last_per_user": events_last_per_user,
        "lineitem_price_regression": lineitem_price_regression,
        "events_daily_spine": events_daily_spine,
        "events_hopping_counts": events_hopping_counts,
        "q18_large_orders": q18_large_orders,
        "docs_graph_triangles": docs_graph_triangles,
        "docs_graph_kcore": docs_graph_kcore,
        "orders_price_percent_rank": orders_price_percent_rank,
        "docs_pii_redacted": docs_pii_redacted,
        "docs_repetition_scores": docs_repetition_scores,
        "docs_packed_sequences": docs_packed_sequences,
        "docs_per_source_cap": docs_per_source_cap,
        "customer_order_totals_outer": customer_order_totals_outer,
        "events_prev_gap": events_prev_gap,
        "orders_priority_mode": orders_priority_mode,
        "lineitem_cube_qty": lineitem_cube_qty,
        "lineitem_qty_quantile_sketch": lineitem_qty_quantile_sketch,
        "docs_pagerank": docs_pagerank,
        "docs_hits": docs_hits,
        "docs_bfs_depths": docs_bfs_depths,
        "docs_shortest_paths": docs_shortest_paths,
        "docs_graph_assortativity": docs_graph_assortativity,
        "kg_entity_reach": kg_entity_reach,
        "kg_edge_negatives": kg_edge_negatives,
        "docs_token_cooccurrence": docs_token_cooccurrence,
        "kg_entity_cooccurrence": kg_entity_cooccurrence,
        "kg_entity_pagerank": kg_entity_pagerank,
        "kg_entity_hits": kg_entity_hits,
        "embedding_label_centroids": embedding_label_centroids,
        "embedding_label_separation": embedding_label_separation,
        "embedding_label_outliers": embedding_label_outliers,
        "docs_zipf_slope": docs_zipf_slope,
        "lineitem_qty_var_by_flag": lineitem_qty_var_by_flag,
        "orders_ntile4": orders_ntile4,
        "docs_training_pipeline": docs_training_pipeline,
        "kg_entity_ppr": kg_entity_ppr,
        "kg_entity_communities": kg_entity_communities,
        "docs_dedup_vs_prev": docs_dedup_vs_prev,
        "docs_from_jsonl_roundtrip": docs_from_jsonl_roundtrip,
        "docs_from_csv_roundtrip": docs_from_csv_roundtrip,
        "orders_customer_skew_join": orders_customer_skew_join,
        "events_value_zscore": events_value_zscore,
        "docs_union_schema_evolution": docs_union_schema_evolution,
        "docs_boilerplate_stripped": docs_boilerplate_stripped,
        "docs_substring_dedup": docs_substring_dedup,
        "docs_bm25_rank": docs_bm25_rank,
        "docs_bpe_pair_counts": docs_bpe_pair_counts,
        "docs_weighted_sample": docs_weighted_sample,
        "token_pmi_pairs": token_pmi_pairs,
        "q7_nation_volume": q7_nation_volume,
        "q10_returned_items": q10_returned_items,
        "orders_merged_changelog": orders_merged_changelog,
        "orders_price_band_join_banded": orders_price_band_join_banded,
        "docs_train_val_test_split": docs_train_val_test_split,
        "docs_training_shards": docs_training_shards,
        "events_tumbling_counts": events_tumbling_counts,
        "docs_unigram_logprob": docs_unigram_logprob,
        "docs_ppl_buckets": docs_ppl_buckets,
        "docs_dsir_weights": docs_dsir_weights,
        "docs_source_kl_drift": docs_source_kl_drift,
        "docs_phrase_matches": docs_phrase_matches,
        "docs_nb_lang_predict": docs_nb_lang_predict,
        "docs_winnowed_fingerprints": docs_winnowed_fingerprints,
        "docs_source_overlap_matrix": docs_source_overlap_matrix,
        "docs_global_shuffle": docs_global_shuffle,
        "docs_domain_quality_filter": docs_domain_quality_filter,
        "docs_mojibake_fixed": docs_mojibake_fixed,
        "orders_validation_report": orders_validation_report,
        "orders_zorder_layout": orders_zorder_layout,
        "docs_flagged_words": docs_flagged_words,
        "docs_compression_ratio": docs_compression_ratio,
        "docs_corpus_profile": docs_corpus_profile,
        "events_gap_dedup": events_gap_dedup,
        "docs_graph_degree_hist": docs_graph_degree_hist,
        "docs_adamic_adar": docs_adamic_adar,
        "kg_entity_adamic_adar": kg_entity_adamic_adar,
        "docs_clustering_coef": docs_clustering_coef,
        "kg_entity_clustering": kg_entity_clustering,
        "orders_incremental_agg": orders_incremental_agg,
        "docs_token_budget_head": docs_token_budget_head,
        "docs_lang_budget_mix": docs_lang_budget_mix,
        "orders_custkey_gini": orders_custkey_gini,
        "docs_sample_ks_audit": docs_sample_ks_audit,
        "docs_from_orc_roundtrip": docs_from_orc_roundtrip,
        "docs_from_avro_roundtrip": docs_from_avro_roundtrip,
        "docs_from_sqlite_roundtrip": docs_from_sqlite_roundtrip,
        "docs_lang_confusion": docs_lang_confusion,
        "kg_lineage_summary": kg_lineage_summary,
        "orders_price_deciles": orders_price_deciles,
        "orders_range_partition_hist": orders_range_partition_hist,
        "docs_train_ready_ids": docs_train_ready_ids,
        "customer_pseudonymized": customer_pseudonymized,
        "orders_fd_violations": orders_fd_violations,
        "events_daily_cusum": events_daily_cusum,
        "events_daily_locf": events_daily_locf,
        "lineitem_fk_coverage": lineitem_fk_coverage,
        "docs_dup_rate_by_source": docs_dup_rate_by_source,
        "docs_common_lines": docs_common_lines,
        "events_type_transition_probs": events_type_transition_probs,
        "docs_lang_sample_ks": docs_lang_sample_ks,
        "docs_rendezvous_resharding": docs_rendezvous_resharding,
        "orders_analyze": orders_analyze,
        "docs_hive_partition_pruned": docs_hive_partition_pruned,
        "docs_script_fractions": docs_script_fractions,
        "docs_tfidf_top_terms": docs_tfidf_top_terms,
        "q14_promo_revenue": q14_promo_revenue,
        "q19_disjunctive_revenue": q19_disjunctive_revenue,
        "q16_supplier_part_counts": q16_supplier_part_counts,
        "customer_name_fuzzy_pairs": customer_name_fuzzy_pairs,
        "q4_order_priority": q4_order_priority,
        "q6_forecast_revenue": q6_forecast_revenue,
        "q11_important_parts": q11_important_parts,
        "q12_priority_by_returnflag": q12_priority_by_returnflag,
        "q13_customer_distribution": q13_customer_distribution,
        "q15_top_supplier": q15_top_supplier,
        "q2_min_cost_supplier": q2_min_cost_supplier,
        "q17_small_quantity_revenue": q17_small_quantity_revenue,
        "q21_waiting_suppliers": q21_waiting_suppliers,
        "q22_idle_rich_customers": q22_idle_rich_customers,
        "lineitem_unpivot_measures": lineitem_unpivot_measures,
        "events_next_event_type": events_next_event_type,
        "orders_price_dense_rank": orders_price_dense_rank,
        "orders_price_rank": orders_price_rank,
        "orders_price_cume_dist": orders_price_cume_dist,
        "events_first_last_value": events_first_last_value,
        "q8_market_share": q8_market_share,
        "q9_product_profit": q9_product_profit,
        "q20_part_promotion": q20_part_promotion,
        "orders_custkey_approx_distinct": orders_custkey_approx_distinct,
        "events_user_types_approx_distinct":
            events_user_types_approx_distinct,
        "events_type_entropy_by_user": events_type_entropy_by_user,
        "docs_exact_dedup_keep_best": docs_exact_dedup_keep_best,
        "images_resized": images_resized,
        "images_phash_dups": images_phash_dups,
        "audio_dup_pairs": audio_dup_pairs,
        "events_users_both_halves": events_users_both_halves,
        "discontinued_part_suppliers": discontinued_part_suppliers,
        "events_asof_next_purchase": events_asof_next_purchase,
        "events_user_running_max": events_user_running_max,
        "docs_normalized_text": docs_normalized_text,
        "lineitem_price_geomean": lineitem_price_geomean,
        "orders_custkey_skew_profile": orders_custkey_skew_profile,
        "lineitem_numeric_profile": lineitem_numeric_profile,
        "events_props_k_sum": events_props_k_sum,
        "events_window_unique_users": events_window_unique_users,
        "lineitem_qty_mad_by_flag": lineitem_qty_mad_by_flag,
        "events_type_transitions": events_type_transitions,
        "top2_parts_per_brand_by_revenue": top2_parts_per_brand_by_revenue,
        "docs_bpe_vocab": docs_bpe_vocab,
        "docs_bpe_piece_counts": docs_bpe_piece_counts,
        "docs_bigram_logprob": docs_bigram_logprob,
        "docs_extracted_s_words": docs_extracted_s_words,
        "events_type_freq_cms": events_type_freq_cms,
        "docs_minhash_deduped": docs_minhash_deduped,
        "docs_minhash_keep_best": docs_minhash_keep_best,
        "simhash_vs_jaccard_eval": simhash_vs_jaccard_eval,
        "embeddings_semantic_dedup": embeddings_semantic_dedup,
        "events_gap_sessions": events_gap_sessions,
        "events_session_error_windows": events_session_error_windows,
        "docs_reservoir_per_source": docs_reservoir_per_source,
        "lineitem_price_winsorized": lineitem_price_winsorized,
        "audio_tone_features": audio_tone_features,
        "docs_weighted_sample_per_source": docs_weighted_sample_per_source,
        "events_session_ids": events_session_ids,
        "events_session_conversions": events_session_conversions,
        "kg_entity_betweenness": kg_entity_betweenness,
        "kg_entity_harmonic": kg_entity_harmonic,
        "embedding_hard_negatives": embedding_hard_negatives,
        "docs_novelty_by_batch": docs_novelty_by_batch,
        "kg_edge_truss": kg_edge_truss,
        "docs_node2vec_walks": docs_node2vec_walks,
        "docs_skipgram_pairs": docs_skipgram_pairs,
        "docs_skipgram_negatives": docs_skipgram_negatives,
        "events_late_arrivals": events_late_arrivals,
        "customer_rfm_segments": customer_rfm_segments,
        "embedding_dim_truncation_recall": embedding_dim_truncation_recall,
        "embedding_knn_ndcg": embedding_knn_ndcg,
        "docs_readability": docs_readability,
        "docs_lang_temperature_weights": docs_lang_temperature_weights,
        "docs_containment_pairs": docs_containment_pairs,
        "events_burstiness": events_burstiness,
        "images_augmented": images_augmented,
        "docs_trigram_entropy": docs_trigram_entropy,
        "events_interarrival_quantiles": events_interarrival_quantiles,
        "docs_hapax_ratio": docs_hapax_ratio,
        "docs_mixing_schedule": docs_mixing_schedule,
        "docs_type_token_ratio": docs_type_token_ratio,
        "orders_mom_growth": orders_mom_growth,
    }
    # SQL-oracled entries lead (stable order within each group): the
    # driver's correctness pass checks a fixed-size window of the
    # registry, so front-loading the oracle-checkable queries maximizes
    # rows it can verify hash-exactly; rows-only (no_oracle) entries —
    # KG/embedding/multimodal shapes DuckDB can't express — follow.
    # Within the oracled group, entries NEVER checked by a prior
    # driver window (CORRECTNESS_r*.json) lead, so cumulative
    # driver-verified coverage grows round over round (VERDICT r4
    # task 6) instead of re-checking the same 50.
    oracled = set(oracle_sql())
    checked: set[str] = set()
    try:
        here = Path(__file__).resolve().parent
        for f in sorted(glob.glob(str(here / "CORRECTNESS_r*.json"))):
            checked.update(json.load(open(f)))
    except Exception:
        pass  # no prior windows → plain oracled-first order
    return {
        **{k: v for k, v in reg.items()
           if k in oracled and k not in checked},
        **{k: v for k, v in reg.items() if k in oracled and k in checked},
        **{k: v for k, v in reg.items() if k not in oracled},
    }


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------

# the deterministic messy-url construction of queries()._messy_urls in
# SQL — shared CTE for the three web-pipeline oracles
_WEB_URLS_CTE = """
    WITH u0 AS (
      SELECT doc_id, source,
             CASE WHEN doc_id % 6 = 0 THEN upper(source) ELSE source END
                 || CAST(doc_id % 3 AS VARCHAR) AS core,
             CASE WHEN doc_id % 5 = 0 THEN 'co.uk' ELSE 'com' END AS suffix,
             CASE WHEN doc_id % 2 = 1 THEN 'www.' ELSE '' END AS www
      FROM documents
    ), u AS (
      SELECT doc_id, source, core, suffix,
             www || core || '.' || suffix AS host,
             (CASE WHEN doc_id % 3 = 0 THEN 'HTTPS' ELSE 'https' END)
               || '://' || www || core || '.' || suffix
               || (CASE WHEN doc_id % 4 = 0 THEN ':443' ELSE '' END)
               || '/' || source || '/doc-' || CAST(doc_id AS VARCHAR)
               || (CASE WHEN doc_id % 2 = 0
                    THEN '?utm_source=feed&id=' || CAST(doc_id AS VARCHAR)
                    ELSE '?id=' || CAST(doc_id AS VARCHAR)
                         || '&utm_campaign=z' END)
               || (CASE WHEN doc_id % 3 = 1
                    THEN '#s' || CAST(doc_id AS VARCHAR) ELSE '' END)
                 AS messy_url
      FROM u0
    )
"""


def _stopword_list_sql() -> str:
    """The vendored NLTK stopword list as a DuckDB list literal (the
    stopword_ratio oracle needs the same vocabulary)."""
    return "[" + ",".join(
        "'" + w.replace("'", "''") + "'" for w in sorted(STOPWORDS)
    ) + "]"


# quality signals (functions/textstats.py:53-86) in SQL; rounding on both
# sides is 6 digits, ties away from zero
_QUALITY_ORACLE = """
    WITH base AS (
      SELECT doc_id, text,
             length(text) AS n_chars,
             regexp_extract_all(text, '[A-Za-z]+') AS words,
             length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS n_alpha,
             length(regexp_replace(text, '[A-Za-z0-9\\s]', '', 'g')) AS n_punct,
             length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digit
      FROM documents
    ), calc AS (
      SELECT doc_id, n_chars,
             len(words) AS n_words,
             CASE WHEN len(words) > 0 THEN n_alpha / len(words) ELSE 0.0 END
                 AS mean_word_len,
             CASE WHEN n_chars > 0 THEN n_alpha / n_chars ELSE 0.0 END
                 AS alpha_ratio,
             CASE WHEN n_chars > 0 THEN n_punct / n_chars ELSE 0.0 END
                 AS punct_ratio,
             CASE WHEN n_chars > 0 THEN n_digit / n_chars ELSE 0.0 END
                 AS digit_ratio,
             CASE WHEN len(words) > 0 THEN
               len(list_filter(words, w -> list_contains({stopwords}, lower(w))))
                 * 1.0 / len(words)
             ELSE 0.0 END AS stopword_ratio
      FROM base
    )
    SELECT doc_id, n_chars, n_words,
           round(mean_word_len, 6) AS mean_word_len,
           round(alpha_ratio, 6) AS alpha_ratio,
           round(punct_ratio, 6) AS punct_ratio,
           round(digit_ratio, 6) AS digit_ratio,
           round(stopword_ratio, 6) AS stopword_ratio,
           round(CASE WHEN n_words >= 5 THEN
             0.4 * least(1.0, alpha_ratio / 0.8)
             + 0.3 * least(1.0, stopword_ratio / 0.4)
             + 0.2 * (1.0 - least(1.0, punct_ratio / 0.3))
             + 0.1 * (1.0 - least(1.0, digit_ratio / 0.3))
           ELSE 0.0 END, 6) AS quality
    FROM calc
"""


def oracle_sql() -> dict[str, str]:
    d = {
        # html→text byte-identity: extracted text must equal the source
        # text column exactly (the north_rule per-row invariant in SQL)
        "kg_extract_documents": """
            SELECT source || '-' || CAST(doc_id AS VARCHAR) AS doc_id,
                   'testdata://' || source || '/' || source || '-'
                       || CAST(doc_id AS VARCHAR) AS url,
                   text,
                   length(text) AS n_chars
            FROM documents
            WHERE lang = 'en'
        """,
        # mix rebalancing: recompute counts, the binding group, rates
        # and the md5 thresholding — all in SQL, same float order
        "docs_lang_rebalanced": """
            WITH t(lang, share) AS (
                VALUES ('en', 0.5), ('de', 0.125), ('fr', 0.125),
                       ('es', 0.125), ('zh', 0.125)
            ), counts AS (
                SELECT lang, count(*) AS n FROM documents GROUP BY lang
            ), k AS (
                SELECT min(n / share) AS kk
                FROM counts JOIN t USING (lang)
            ), rates AS (
                SELECT lang, (share * kk) / n AS rate
                FROM counts JOIN t USING (lang), k
            )
            SELECT d.doc_id, d.lang
            FROM documents d JOIN rates r USING (lang)
            WHERE CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)),
                                       1, 8)) AS BIGINT)
                      / 4294967296.0 < r.rate
        """,
        # incremental-crawl diff: replay the snapshot arithmetic
        "pages_crawl_diff": """
            SELECT 'https://c.example/d/doc-' || CAST(doc_id AS VARCHAR)
                       AS canonical_url,
                   CASE WHEN doc_id % 5 = 0 THEN 'removed'
                        WHEN doc_id % 3 = 0 THEN 'changed'
                        ELSE 'unchanged' END AS status
            FROM documents
            UNION ALL
            SELECT 'https://c.example/new/doc-' || CAST(doc_id AS VARCHAR),
                   'added'
            FROM documents WHERE doc_id % 7 = 0
        """,
        # WET export manifest: replay the md5(url) shard assignment
        "docs_wet_export": """
            SELECT shard_id, count(*) AS n_docs,
                   CAST(sum(octet_length(encode(text))) AS BIGINT)
                       AS n_bytes,
                   min(key) AS min_key, max(key) AS max_key
            FROM (
                SELECT CAST(('0x' || substr(md5(url), 1, 8)) AS BIGINT)
                           % 8 AS shard_id,
                       md5(url) AS key, text
                FROM (
                    SELECT 'https://crawl.example/' || source || '/'
                               || source || '-'
                               || CAST(doc_id AS VARCHAR) AS url,
                           text
                    FROM documents
                )
            )
            GROUP BY shard_id
            ORDER BY shard_id
        """,
        # WET archive round-trip: encode → gzip-member stream → parse
        # must reproduce the source table's url/text/lang byte-exactly
        "wet_pages_roundtrip": """
            SELECT 'https://crawl.example/' || source || '/' || source
                       || '-' || CAST(doc_id AS VARCHAR) AS url,
                   text, lang
            FROM documents
        """,
        # WARC response records through the unchanged extract stage:
        # same byte-identity contract as kg_extract_documents, but all
        # langs pass (response records carry no language header, so the
        # pages rows all land with the default 'en')
        "warc_extract_documents": """
            SELECT source || '-' || CAST(doc_id AS VARCHAR) AS doc_id,
                   'https://crawl.example/' || source || '/' || source
                       || '-' || CAST(doc_id AS VARCHAR) AS url,
                   text,
                   length(text) AS n_chars
            FROM documents
        """,
        # web-pipeline operators: the oracle reconstructs the messy url
        # (same deterministic rules as _messy_urls) and the EXPECTED
        # canonical form / domain / cap rule-by-rule in SQL
        "url_canonicalized": _WEB_URLS_CTE + """
            SELECT doc_id,
                   'https://' || lower(host) || '/' || source || '/doc-'
                       || CAST(doc_id AS VARCHAR) || '?id='
                       || CAST(doc_id AS VARCHAR) AS canonical_url,
                   lower(core) || '.' || suffix AS domain
            FROM u
        """,
        "pages_domain_counts": _WEB_URLS_CTE + """
            SELECT lower(core) || '.' || suffix AS domain,
                   count(*) AS n_docs
            FROM u GROUP BY 1
        """,
        "docs_domain_capped": _WEB_URLS_CTE + """
            SELECT doc_id, domain FROM (
                SELECT doc_id, lower(core) || '.' || suffix AS domain,
                       row_number() OVER (
                           PARTITION BY lower(core) || '.' || suffix
                           ORDER BY md5(messy_url), messy_url) AS rn
                FROM u
            ) WHERE rn <= 3
        """,
        # web-graph: the Ray side PARSES the planted anchors out of real
        # HTML; the oracle replays the link arithmetic directly
        "docs_boilerplate_scoped": """
            SELECT doc_id,
                   CASE WHEN doc_id = 1 THEN
                       'Unique line 1.' || chr(10)
                       || 'Follow us on social media.'
                   ELSE 'Unique line ' || CAST(doc_id AS VARCHAR)
                        || '.'
                   END AS clean_text
            FROM documents
        """,
        "pages_mirror_paths": """
            WITH u AS (
              SELECT CASE WHEN doc_id % 2 = 0 THEN
                         '/pkg/' || CAST(doc_id % 7 AS VARCHAR)
                     ELSE '/d/' || CAST(doc_id AS VARCHAR) END AS path,
                     CASE WHEN doc_id % 2 = 0 THEN
                         'm' || CAST(doc_id % 5 AS VARCHAR) || '.com'
                     ELSE 'u' || CAST(doc_id % 3 AS VARCHAR) || '.com'
                     END AS domain
              FROM documents
            ), g AS (
              SELECT path,
                     CAST(count(DISTINCT domain) AS BIGINT)
                         AS n_domains,
                     count(*) AS n_pages
              FROM u GROUP BY path
            )
            SELECT * FROM g WHERE n_domains >= 3
        """,
        "pages_sitemap_urls": """
            WITH d AS (
              SELECT doc_id, doc_id % 4 AS k,
                     'https://s' || CAST(doc_id % 4 AS VARCHAR)
                         || '.com/sitemap-' || CAST(doc_id AS VARCHAR)
                         || '.xml' AS sitemap_url
              FROM documents
            )
            SELECT sitemap_url, 'sitemap' AS kind,
                   'https://s' || CAST(k AS VARCHAR) || '.com/a.xml'
                       AS loc,
                   '2025-01-01' AS lastmod,
                   CAST(NULL AS DOUBLE) AS priority
            FROM d WHERE doc_id % 10 = 0
            UNION ALL
            SELECT sitemap_url, 'sitemap',
                   'https://s' || CAST(k AS VARCHAR) || '.com/b.xml',
                   NULL, NULL
            FROM d WHERE doc_id % 10 = 0
            UNION ALL
            SELECT sitemap_url, 'url',
                   'https://s' || CAST(k AS VARCHAR) || '.com/p/'
                       || CAST(doc_id AS VARCHAR)
                       || CASE WHEN doc_id % 7 = 0 THEN '&'
                          ELSE '' END,
                   CASE WHEN doc_id % 3 = 0 THEN '2025-02-'
                       || lpad(CAST(doc_id % 28 + 1 AS VARCHAR), 2,
                               '0') END,
                   CASE WHEN doc_id % 2 = 0
                        THEN (doc_id % 9 + 1) / 10.0 END
            FROM d WHERE doc_id % 10 <> 0
        """,
        "pages_main_content": """
            WITH c AS (
              SELECT 'the sun is warm and the breeze is soft in the '
                     || 'quiet garden of our town ' AS ph
            )
            SELECT 'https://mc.com/' || CAST(doc_id AS VARCHAR) AS url,
                   CASE WHEN doc_id % 2 = 0 THEN
                       trim(repeat(ph, 3)) || chr(10) || chr(10)
                       || 'Short note only.' || chr(10) || chr(10)
                       || trim(repeat(ph, 3))
                   ELSE
                       trim(repeat(ph, 3)) || chr(10) || chr(10)
                       || trim(ph)
                   END AS main_text,
                   CAST(CASE WHEN doc_id % 2 = 0 THEN 5 ELSE 4 END
                        AS BIGINT) AS n_blocks,
                   CAST(CASE WHEN doc_id % 2 = 0 THEN 3 ELSE 2 END
                        AS BIGINT) AS n_good
            FROM documents, c
        """,
        "web_crawl_frontier": """
            WITH e AS (
              SELECT 'https://ext' || CAST(doc_id % 3 AS VARCHAR)
                         || '.com/new/' || CAST(doc_id % 20 AS VARCHAR)
                         || '?id=' || CAST(doc_id % 20 AS VARCHAR)
                         AS frontier_url,
                     'site' || CAST(doc_id % 7 AS VARCHAR) || '.com'
                         AS src_domain
              FROM documents
            )
            SELECT frontier_url,
                   CAST(count(DISTINCT src_domain) AS BIGINT)
                       AS n_src_domains,
                   count(*) AS n_links
            FROM e GROUP BY frontier_url
        """,
        "pages_html_metadata": """
            SELECT 'https://m.com/' || CAST(doc_id AS VARCHAR) AS url,
                   CASE WHEN doc_id % 7 = 0 THEN NULL
                        ELSE 'Doc ' || CAST(doc_id AS VARCHAR)
                             || ' & more' END AS title,
                   CASE WHEN doc_id % 5 = 0 THEN NULL
                        WHEN doc_id % 2 = 0 THEN
                            'About ' || CAST(doc_id AS VARCHAR)
                        ELSE 'Flip ' || CAST(doc_id AS VARCHAR)
                   END AS meta_description,
                   CASE WHEN doc_id % 3 = 0 THEN NULL
                        ELSE 'https://c.com/'
                             || CAST(doc_id AS VARCHAR)
                   END AS canonical_url,
                   CASE WHEN doc_id % 4 = 0 THEN NULL
                        ELSE 'OG ' || CAST(doc_id AS VARCHAR)
                   END AS og_title
            FROM documents
        """,
        "pages_robots_filtered": """
            WITH p AS (
              SELECT doc_id,
                     'site' || CAST(doc_id % 4 AS VARCHAR) || '.com'
                         AS domain,
                     CASE WHEN doc_id % 3 = 0 THEN
                            '/private/page-' || CAST(doc_id AS VARCHAR)
                          WHEN doc_id % 3 = 1 THEN
                            '/private/ok/page-'
                                || CAST(doc_id AS VARCHAR)
                          ELSE '/public/page-'
                                || CAST(doc_id AS VARCHAR)
                                || '?q=' || CAST(doc_id AS VARCHAR)
                     END AS path
              FROM documents
            ), r(domain, allow, prefix) AS (
              VALUES ('site0.com', 0, '/private'),
                     ('site0.com', 1, '/private/ok'),
                     ('site1.com', 0, '/private')
            ), m AS (
              SELECT p.doc_id, r.allow,
                     row_number() OVER (PARTITION BY p.doc_id
                         ORDER BY length(r.prefix) DESC,
                                  r.allow DESC) AS rn
              FROM p JOIN r ON p.domain = r.domain
                           AND starts_with(p.path, r.prefix)
            )
            SELECT p.doc_id,
                   'https://' || p.domain || p.path AS url,
                   p.domain, p.path,
                   CAST(coalesce(b.allow, 1) AS BIGINT) AS allowed
            FROM p LEFT JOIN (SELECT doc_id, allow FROM m
                              WHERE rn = 1) b USING (doc_id)
        """,
        "pages_url_filtered": """
            WITH u AS (
              SELECT doc_id,
                CASE WHEN doc_id % 5 = 0 THEN 'blocked.com'
                     ELSE 'site' || CAST(doc_id % 3 AS VARCHAR)
                          || '.com' END AS host,
                CASE WHEN doc_id % 8 = 0 THEN 'CASINO'
                     WHEN doc_id % 4 = 0 THEN 'casino'
                     ELSE 'article' END AS w
              FROM documents
            ), v AS (
              SELECT doc_id, host,
                     'https://' || host || '/' || w || '/page-'
                         || CAST(doc_id AS VARCHAR) AS url
              FROM u
            )
            SELECT doc_id, url, host AS domain,
                   CAST((length(lower(url))
                         - length(replace(lower(url), 'casino', ''))) / 6
                        + (length(lower(url))
                         - length(replace(lower(url), 'viagra', ''))) / 6
                        AS BIGINT) AS n_blockwords,
                   CAST(host = 'blocked.com' AS BIGINT)
                       AS blocked_domain,
                   CAST(host <> 'blocked.com'
                        AND NOT contains(lower(url), 'casino')
                        AND NOT contains(lower(url), 'viagra')
                        AS BIGINT) AS keep
            FROM v
        """,
        "web_anchor_texts": """
            WITH e AS (
              SELECT 'site' || CAST((doc_id * 3 + 1) % 10 AS VARCHAR)
                         || '.com' AS dst_domain,
                     'Read more ' || CAST(doc_id % 4 AS VARCHAR)
                         AS anchor
              FROM documents
              UNION ALL
              SELECT 'site' || CAST(doc_id % 10 AS VARCHAR) || '.com',
                     'About Us'
              FROM documents
            )
            SELECT dst_domain, anchor, count(*) AS n_links
            FROM e GROUP BY 1, 2
        """,
        "web_host_cocitation": """
            WITH n AS (SELECT count(*) AS total FROM documents),
            d AS (SELECT doc_id,
                         'site' || CAST(doc_id % 10 AS VARCHAR) || '.'
                           || CASE WHEN doc_id % 3 = 0 THEN 'co.uk'
                                   ELSE 'com' END AS dom
                  FROM documents),
            e AS (
              SELECT least(s.dom, t.dom) AS dom_a,
                     greatest(s.dom, t.dom) AS dom_b
              FROM documents x, n
              JOIN d s ON s.doc_id = x.doc_id
              JOIN d t ON t.doc_id = (x.doc_id * 7 + 13) % n.total
              WHERE s.dom <> t.dom
            )
            SELECT dom_a, dom_b, count(*) AS n_pages
            FROM e GROUP BY 1, 2
        """,
        "events_time_weighted_value": """
            WITH o AS (
                SELECT user_id, value, epoch_us(ts) AS tus,
                       lead(epoch_us(ts)) OVER (
                           PARTITION BY user_id
                           ORDER BY epoch_us(ts), event_id) AS nus
                FROM events
            )
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_intervals,
                   round(sum(value * ((nus - tus) / 1000000.0))
                         / sum((nus - tus) / 1000000.0), 6)
                       AS twa_value
            FROM o WHERE nus IS NOT NULL GROUP BY user_id
        """,
        "web_host_link_graph": """
            WITH n AS (SELECT count(*) AS total FROM documents),
            d AS (SELECT doc_id,
                         'site' || CAST(doc_id % 10 AS VARCHAR) || '.'
                           || CASE WHEN doc_id % 3 = 0 THEN 'co.uk'
                                   ELSE 'com' END AS dom
                  FROM documents),
            e AS (
              SELECT s.dom AS src_domain, t.dom AS dst_domain
              FROM documents x, n
              JOIN d s ON s.doc_id = x.doc_id
              JOIN d t ON t.doc_id = (x.doc_id * 7 + 13) % n.total
              UNION ALL
              -- the RELATIVE anchor resolves against the page's own
              -- host, so its destination domain is the source domain
              SELECT s.dom AS src_domain, s.dom AS dst_domain
              FROM documents x
              JOIN d s ON s.doc_id = x.doc_id
            )
            SELECT src_domain, dst_domain, count(*) AS n_links
            FROM e GROUP BY 1, 2
        """,
        # per-domain reciprocity over the planted host link graph:
        # distinct directed edges minus self-loops, EXISTS back-edge,
        # int counts + one rounded division
        "web_host_reciprocity": """
            WITH n AS (SELECT count(*) AS total FROM documents),
            d AS (SELECT doc_id,
                         'site' || CAST(doc_id % 10 AS VARCHAR) || '.'
                           || CASE WHEN doc_id % 3 = 0 THEN 'co.uk'
                                   ELSE 'com' END AS dom
                  FROM documents),
            e AS (
              SELECT s.dom AS src_domain, t.dom AS dst_domain
              FROM documents x, n
              JOIN d s ON s.doc_id = x.doc_id
              JOIN d t ON t.doc_id = (x.doc_id * 7 + 13) % n.total
              UNION ALL
              SELECT s.dom, s.dom
              FROM documents x JOIN d s ON s.doc_id = x.doc_id
            ),
            de AS (SELECT DISTINCT src_domain AS s, dst_domain AS t
                   FROM e WHERE src_domain <> dst_domain),
            r AS (
              SELECT de.s, de.t,
                     CASE WHEN EXISTS (SELECT 1 FROM de b
                                       WHERE b.s = de.t AND b.t = de.s)
                          THEN 1 ELSE 0 END AS rec
              FROM de
            )
            SELECT s AS node, CAST(COUNT(*) AS BIGINT) AS out_deg,
                   CAST(SUM(rec) AS BIGINT) AS reciprocated,
                   round(CAST(SUM(rec) AS DOUBLE) / COUNT(*), 6)
                       AS reciprocity
            FROM r GROUP BY s ORDER BY s
        """,
        # re-crawl collapse: both captures canonicalize to the same url;
        # the later one (the i%4==0 re-capture) must survive
        "pages_recrawl_dedup": """
            SELECT doc_id,
                   'https://site' || CAST(doc_id % 5 AS VARCHAR)
                       || '.com/d/doc-' || CAST(doc_id AS VARCHAR)
                       || '?id=' || CAST(doc_id AS VARCHAR)
                       AS canonical_url,
                   CASE WHEN doc_id % 4 = 0 THEN
                       'https://site' || CAST(doc_id % 5 AS VARCHAR)
                           || '.com/d/doc-' || CAST(doc_id AS VARCHAR)
                           || '?id=' || CAST(doc_id AS VARCHAR)
                           || '&utm_campaign=x#f'
                   ELSE
                       'HTTPS://site' || CAST(doc_id % 5 AS VARCHAR)
                           || '.com:443/d/doc-' || CAST(doc_id AS VARCHAR)
                           || '?utm_source=feed&id='
                           || CAST(doc_id AS VARCHAR)
                   END AS url
            FROM documents
        """,
        # windowed re-crawl collapse: rebuild the three capture
        # variants, recompute the epoch-aligned 30-day window, and
        # replay keep-latest (ts DESC, url ASC) per (canonical, window)
        # with a window function — bucket-edge cases replay identically
        "pages_recrawl_dedup_windowed": """
            WITH caps AS (
              SELECT doc_id,
                     'HTTPS://site' || CAST(doc_id % 5 AS VARCHAR)
                         || '.com:443/d/doc-' || CAST(doc_id AS VARCHAR)
                         || '?utm_source=feed&id='
                         || CAST(doc_id AS VARCHAR) AS url,
                     TIMESTAMP '2025-03-28'
                         + doc_id * INTERVAL 1 SECOND AS warc_ts
              FROM documents
              UNION ALL
              SELECT doc_id,
                     'https://site' || CAST(doc_id % 5 AS VARCHAR)
                         || '.com/d/doc-' || CAST(doc_id AS VARCHAR)
                         || '?id=' || CAST(doc_id AS VARCHAR)
                         || '&utm_campaign=x#f' AS url,
                     TIMESTAMP '2025-03-28'
                         + doc_id * INTERVAL 1 SECOND
                         + INTERVAL 1 DAY AS warc_ts
              FROM documents WHERE doc_id % 3 = 0
              UNION ALL
              SELECT doc_id,
                     'https://site' || CAST(doc_id % 5 AS VARCHAR)
                         || '.com:443/d/doc-' || CAST(doc_id AS VARCHAR)
                         || '?id=' || CAST(doc_id AS VARCHAR)
                         || '&utm_medium=z' AS url,
                     TIMESTAMP '2025-03-28'
                         + doc_id * INTERVAL 1 SECOND
                         + INTERVAL 40 DAY AS warc_ts
              FROM documents WHERE doc_id % 4 = 0
            ), c AS (
              SELECT doc_id, url, warc_ts,
                     'https://site' || CAST(doc_id % 5 AS VARCHAR)
                         || '.com/d/doc-' || CAST(doc_id AS VARCHAR)
                         || '?id=' || CAST(doc_id AS VARCHAR)
                         AS canonical_url,
                     CAST(epoch_us(warc_ts) // 2592000000000 AS BIGINT)
                         AS "window"
              FROM caps
            ), r AS (
              SELECT *, row_number() OVER (
                         PARTITION BY canonical_url, "window"
                         ORDER BY warc_ts DESC, url ASC) AS rn
              FROM c
            )
            SELECT doc_id, canonical_url, "window", url
            FROM r WHERE rn = 1
        """,
        # corpus-driven stopwords: df counts each token once per doc;
        # strict > threshold, like the pipeline's floor comparison
        "docs_stop_tokens": """
            WITH tok AS (
              SELECT DISTINCT doc_id, t AS tok
              FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS t
                    FROM documents)
              WHERE t <> ''
            ), df AS (
              SELECT tok, count(*) AS df FROM tok GROUP BY tok
            ), n AS (SELECT count(*) AS n_docs FROM documents)
            SELECT tok, df,
                   round(df / (SELECT n_docs FROM n), 6) AS df_frac
            FROM df
            WHERE df > 0.10 * (SELECT n_docs FROM n)
        """,
        # C4 rule-based cleaning: the oracle rebuilds the synthesized
        # lines and applies the SAME published rules with list kernels
        "docs_c4_line_filtered": r"""
            WITH synth AS (
              SELECT doc_id,
                text || chr(10)
                || 'This document has a valid first sentence number '
                    || CAST(doc_id AS VARCHAR) || '.' || chr(10)
                || 'Short line.' || chr(10)
                || 'Enable javascript to view the full content here.'
                    || chr(10)
                || 'A second valid sentence keeps the document alive.'
                    || chr(10)
                || CASE WHEN doc_id % 5 <> 0 THEN
                       'Third valid sentence number '
                           || CAST(doc_id AS VARCHAR)
                           || ' completes the document.'
                   ELSE 'no punct line here' END || chr(10)
                || CASE WHEN doc_id % 7 = 0 THEN
                       'lorem ipsum dolor sit amet.'
                   WHEN doc_id % 5 = 0 THEN 'short one.'
                   ELSE 'Extra good sentence appears right here today.'
                   END || chr(10)
                || CASE WHEN doc_id % 11 = 0 THEN
                       'function f() { return 1; }'
                   WHEN doc_id % 5 = 0 THEN 'also short.'
                   ELSE 'Closing sentence ends the document nicely today.'
                   END AS t
              FROM documents
            ), f AS (
              SELECT doc_id, t,
                     list_filter(string_split(t, chr(10)), l ->
                         regexp_matches(l, '[.!?"]$')
                         AND len(regexp_split_to_array(trim(l), '\s+')) >= 5
                         AND NOT contains(lower(l), 'javascript')) AS kept
              FROM synth
            )
            SELECT doc_id, array_to_string(kept, chr(10)) AS text,
                   CAST(len(kept) AS BIGINT) AS n_lines
            FROM f
            WHERE len(kept) >= 3
              AND NOT contains(lower(t), 'lorem ipsum')
              AND NOT contains(t, '{')
        """,
        "docs_line_dedup_within": r"""
            WITH synth AS (
              SELECT doc_id,
                CASE WHEN doc_id % 4 = 0 THEN
                  'Shared navigation menu item' || chr(10)
                  || 'Alpha content line ' || CAST(doc_id AS VARCHAR)
                  || '.' || chr(10)
                  || chr(10)
                  || 'Shared navigation menu item' || chr(10)
                  || 'Beta content line ' || CAST(doc_id AS VARCHAR)
                  || '.' || chr(10)
                  || 'Shared navigation menu item' || chr(10)
                  || 'Alpha content line ' || CAST(doc_id AS VARCHAR)
                  || '.'
                ELSE
                  'Alpha content line ' || CAST(doc_id AS VARCHAR)
                  || '.' || chr(10)
                  || chr(10)
                  || chr(10)
                  || 'Shared navigation menu item' || chr(10)
                  || 'Beta content line ' || CAST(doc_id AS VARCHAR)
                  || '.'
                END AS t
              FROM documents
            ), sp AS (
              SELECT doc_id, string_split(t, chr(10)) AS ls FROM synth
            ), l AS (
              SELECT doc_id, i - 1 AS idx, ls[i] AS line
              FROM (SELECT doc_id, ls,
                           unnest(generate_series(1, len(ls))) AS i
                    FROM sp)
            ), w AS (
              SELECT doc_id, idx, line,
                     row_number() OVER (PARTITION BY doc_id, line
                         ORDER BY idx) AS rn,
                     trim(line, ' ' || chr(9) || chr(13)) = '' AS blank,
                     count(*) OVER (PARTITION BY doc_id) AS n_in
              FROM l
            )
            SELECT doc_id,
                   string_agg(line, chr(10) ORDER BY idx) AS text,
                   CAST(max(n_in) AS BIGINT) AS n_lines_in,
                   CAST(count(*) AS BIGINT) AS n_lines_kept
            FROM w
            WHERE blank OR rn = 1
            GROUP BY doc_id
        """,
        "docs_paragraph_dedup": r"""
            WITH synth AS (
              SELECT doc_id,
                CASE WHEN doc_id % 7 = 0 THEN
                  'Subscribe to our newsletter for daily updates.'
                  || chr(10) || chr(10)
                  || 'Copyright notice all rights reserved.'
                ELSE
                  'Unique opening paragraph number '
                  || CAST(doc_id AS VARCHAR) || '.'
                  || chr(10) || chr(10)
                  || 'Subscribe to our newsletter for daily updates.'
                  || chr(10) || chr(10)
                  || 'Unique closing paragraph number '
                  || CAST(doc_id AS VARCHAR) || '.'
                  || CASE WHEN doc_id % 3 = 0 THEN chr(10) || chr(10)
                       || 'Copyright notice all rights reserved.'
                     ELSE '' END
                  || CASE WHEN doc_id % 5 = 0 THEN chr(10) || chr(10)
                     ELSE '' END
                END AS t
              FROM documents
            ), sp AS (
              SELECT doc_id,
                     string_split(t, chr(10) || chr(10)) AS paras
              FROM synth
            ), p AS (
              SELECT doc_id, i - 1 AS para_idx, paras[i] AS para
              FROM (SELECT doc_id, paras,
                           unnest(generate_series(1, len(paras))) AS i
                    FROM sp)
              WHERE trim(paras[i],
                         ' ' || chr(9) || chr(10) || chr(13)) <> ''
            ), w AS (
              SELECT doc_id, para_idx, para,
                     row_number() OVER (PARTITION BY para
                         ORDER BY doc_id, para_idx) AS rn,
                     count(*) OVER (PARTITION BY doc_id) AS n_in
              FROM p
            )
            SELECT doc_id,
                   string_agg(para, chr(10) || chr(10)
                              ORDER BY para_idx) AS text,
                   CAST(max(n_in) AS BIGINT) AS n_paras_in,
                   CAST(count(*) AS BIGINT) AS n_paras_kept
            FROM w
            WHERE rn = 1
            GROUP BY doc_id
        """,
        "web_curation_pipeline": r"""
            WITH l AS (
              SELECT 'the quick brown fox jumps over a lazy dog and '
                  || 'then that dog will have a quiet rest with '
                  || 'friends today' AS ln
            ), synth AS (
              SELECT d.doc_id,
                CASE d.doc_id % 8
                  WHEN 0 THEN 'Just a few words here.'
                  WHEN 1 THEN ln || chr(10) || ln || chr(10)
                      || trim(repeat('12345 ', 21))
                  WHEN 2 THEN ln || chr(10) || ln || chr(10) || ln
                      || chr(10) || trim(repeat('# ', 8))
                  WHEN 3 THEN '- ' || ln || chr(10) || '- ' || ln
                      || chr(10) || '- ' || ln
                  WHEN 4 THEN ln || '...' || chr(10) || ln || '...'
                      || chr(10) || ln
                  WHEN 5 THEN trim('the and that have with of to be '
                      || repeat('pneumonoultramicroscopic ', 52))
                  WHEN 6 THEN trim(repeat('zebra mango guitar piano '
                      || 'velvet copper meadow lantern ', 8))
                  ELSE ln || chr(10) || ln || chr(10) || ln
                END AS t
              FROM documents d, l
              WHERE d.doc_id % 5 <> 0 AND d.doc_id % 3 <> 0
            ), w AS (
              SELECT doc_id, t,
                     list_filter(string_split_regex(t, '\s+'),
                                 x -> x <> '') AS words,
                     string_split(t, chr(10)) AS lines
              FROM synth
            ), s AS (
              SELECT doc_id,
                CAST(len(words) AS BIGINT) AS n_words,
                round(list_sum(list_transform(words,
                    x -> CAST(length(x) AS DOUBLE)))
                    / greatest(len(words), 1), 6) AS mean_word_len,
                round((
                    (length(t) - length(replace(t, '#', '')))
                    + (length(t) - length(replace(t, '...', ''))) / 3
                    + (length(t) - length(replace(t, '…', '')))
                  ) / CAST(greatest(len(words), 1) AS DOUBLE),
                  6) AS symbol_ratio,
                round(len(list_filter(lines, x ->
                    regexp_matches(x, '^(• |- |\* )')))
                    / CAST(greatest(len(lines), 1) AS DOUBLE),
                    6) AS bullet_frac,
                round(len(list_filter(lines, x ->
                    regexp_matches(x, '(\.\.\.|…)$')))
                    / CAST(greatest(len(lines), 1) AS DOUBLE),
                    6) AS ellipsis_frac,
                round(len(list_filter(words, x ->
                    regexp_matches(x, '[A-Za-z]')))
                    / CAST(greatest(len(words), 1) AS DOUBLE),
                    6) AS alpha_frac,
                CAST(len(list_distinct(list_transform(
                    list_filter(words, x -> list_contains(
                        ['the','be','to','of','and','that','have',
                         'with'], lower(x))),
                    x -> lower(x)))) AS BIGINT) AS n_stopwords
              FROM w
            )
            SELECT doc_id, n_words, mean_word_len, symbol_ratio,
                   bullet_frac, ellipsis_frac, alpha_frac, n_stopwords,
                   CAST(n_words BETWEEN 50 AND 100000
                        AND mean_word_len BETWEEN 3.0 AND 10.0
                        AND symbol_ratio <= 0.1
                        AND bullet_frac < 0.9
                        AND ellipsis_frac < 0.3
                        AND alpha_frac >= 0.8
                        AND n_stopwords >= 2 AS BIGINT) AS keep
            FROM s
        """,
        "docs_gopher_quality": r"""
            WITH l AS (
              SELECT 'the quick brown fox jumps over a lazy dog and '
                  || 'then that dog will have a quiet rest with '
                  || 'friends today' AS ln
            ), synth AS (
              SELECT d.doc_id,
                CASE d.doc_id % 8
                  WHEN 0 THEN 'Just a few words here.'
                  WHEN 1 THEN ln || chr(10) || ln || chr(10)
                      || trim(repeat('12345 ', 21))
                  WHEN 2 THEN ln || chr(10) || ln || chr(10) || ln
                      || chr(10) || trim(repeat('# ', 8))
                  WHEN 3 THEN '- ' || ln || chr(10) || '- ' || ln
                      || chr(10) || '- ' || ln
                  WHEN 4 THEN ln || '...' || chr(10) || ln || '...'
                      || chr(10) || ln
                  WHEN 5 THEN trim('the and that have with of to be '
                      || repeat('pneumonoultramicroscopic ', 52))
                  WHEN 6 THEN trim(repeat('zebra mango guitar piano '
                      || 'velvet copper meadow lantern ', 8))
                  ELSE ln || chr(10) || ln || chr(10) || ln
                END AS t
              FROM documents d, l
            ), w AS (
              SELECT doc_id, t,
                     list_filter(string_split_regex(t, '\s+'),
                                 x -> x <> '') AS words,
                     string_split(t, chr(10)) AS lines
              FROM synth
            ), s AS (
              SELECT doc_id,
                CAST(len(words) AS BIGINT) AS n_words,
                round(list_sum(list_transform(words,
                    x -> CAST(length(x) AS DOUBLE)))
                    / greatest(len(words), 1), 6) AS mean_word_len,
                round((
                    (length(t) - length(replace(t, '#', '')))
                    + (length(t) - length(replace(t, '...', ''))) / 3
                    + (length(t) - length(replace(t, '…', '')))
                  ) / CAST(greatest(len(words), 1) AS DOUBLE),
                  6) AS symbol_ratio,
                round(len(list_filter(lines, x ->
                    regexp_matches(x, '^(• |- |\* )')))
                    / CAST(greatest(len(lines), 1) AS DOUBLE),
                    6) AS bullet_frac,
                round(len(list_filter(lines, x ->
                    regexp_matches(x, '(\.\.\.|…)$')))
                    / CAST(greatest(len(lines), 1) AS DOUBLE),
                    6) AS ellipsis_frac,
                round(len(list_filter(words, x ->
                    regexp_matches(x, '[A-Za-z]')))
                    / CAST(greatest(len(words), 1) AS DOUBLE),
                    6) AS alpha_frac,
                CAST(len(list_distinct(list_transform(
                    list_filter(words, x -> list_contains(
                        ['the','be','to','of','and','that','have',
                         'with'], lower(x))),
                    x -> lower(x)))) AS BIGINT) AS n_stopwords
              FROM w
            )
            SELECT doc_id, n_words, mean_word_len, symbol_ratio,
                   bullet_frac, ellipsis_frac, alpha_frac, n_stopwords,
                   CAST(n_words BETWEEN 50 AND 100000
                        AND mean_word_len BETWEEN 3.0 AND 10.0
                        AND symbol_ratio <= 0.1
                        AND bullet_frac < 0.9
                        AND ellipsis_frac < 0.3
                        AND alpha_frac >= 0.8
                        AND n_stopwords >= 2 AS BIGINT) AS keep
            FROM s
        """,
        "ws_token_counts": r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\s+'))
                   END AS ws_tokens
            FROM documents
        """,
        "exact_dedup_docs": """
            SELECT min(doc_id) AS keeper, count(*) AS dup_count
            FROM documents GROUP BY text
        """,
        "embedding_cosine_exact_pairs": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   round(list_cosine_similarity(
                       a.embedding::DOUBLE[], b.embedding::DOUBLE[]),
                       6) AS cosine
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(
                a.embedding::DOUBLE[], b.embedding::DOUBLE[]) >= 0.4
        """,
        # exact all-pairs char-3-gram Jaccard over the first 200 docs:
        # distinct grams per doc, shared-gram join = intersection size
        "docs_jaccard_exact_pairs": """
            WITH d AS (SELECT doc_id, lower(text) AS t
                       FROM documents ORDER BY doc_id LIMIT 200),
            g AS (SELECT DISTINCT doc_id, substring(t, i, 3) AS gram
                  FROM (SELECT doc_id, t,
                               unnest(generate_series(
                                   1, greatest(length(t) - 2, 0))) AS i
                        FROM d)),
            sz AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
            inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                             count(*) AS c
                      FROM g a JOIN g b
                        ON a.gram = b.gram AND a.doc_id < b.doc_id
                      GROUP BY 1, 2)
            SELECT doc_a, doc_b,
                   round(c * 1.0 / (sa.n + sb.n - c), 6) AS jaccard
            FROM inter
            JOIN sz sa ON sa.doc_id = doc_a
            JOIN sz sb ON sb.doc_id = doc_b
            WHERE c * 1.0 / (sa.n + sb.n - c) >= 0.5
        """,
        "token_counts_full": r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE len(regexp_split_to_array(trim(text), '\s+'))
                   END AS ws_tokens,
                   len(regexp_extract_all(text,
                       '''(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+'
                   )) AS bpe_ish_tokens
            FROM documents
        """,
        # md5 of whitespace-normalized text (same normalization as
        # `" ".join(text.split())`)
        "doc_fingerprints": r"""
            SELECT doc_id,
                   md5(coalesce(array_to_string(list_filter(
                       regexp_split_to_array(text, '\s+'), x -> x <> ''),
                       ' '), '')) AS fingerprint
            FROM documents
        """,
        # connected components over the deterministic chain graph:
        # every doc in a (n_chars % 50) bucket with >=2 members is
        # chained, so its component's min label is the bucket min
        # keep-best-per-cluster over the chain graph: chained buckets
        # (c >= 2) keep the max-quality member (tie min doc_id);
        # singleton buckets are their own surviving cluster
        "docs_cluster_keep_best": """
            WITH b AS (
              SELECT doc_id, CAST(n_chars % 50 AS BIGINT) AS bucket,
                     CAST((doc_id * 37) % 101 AS DOUBLE) AS quality
              FROM documents
            ), m AS (
              SELECT bucket, count(*) AS c, min(doc_id) AS mn
              FROM b GROUP BY bucket
            ), j AS (
              SELECT b.doc_id,
                     CASE WHEN m.c >= 2 THEN m.mn
                          ELSE b.doc_id END AS cluster_id,
                     b.quality
              FROM b JOIN m USING (bucket)
            ), r AS (
              SELECT j.*, row_number() OVER (PARTITION BY cluster_id
                         ORDER BY quality DESC, doc_id ASC) AS rn
              FROM j
            )
            SELECT doc_id, cluster_id, quality FROM r WHERE rn = 1
        """,
        "dup_clusters_chain": """
            WITH b AS (
              SELECT doc_id, CAST(n_chars % 50 AS BIGINT) AS bucket
              FROM documents
            ), m AS (
              SELECT bucket, count(*) AS c, min(doc_id) AS mn
              FROM b GROUP BY bucket
            )
            SELECT b.doc_id AS node, m.mn AS cluster_id
            FROM b JOIN m USING (bucket)
            WHERE m.c >= 2
        """,
        # function-word language heuristic (functions/textstats.py:40-50):
        # first argmax in alphabetical lang order, >=2 hits else 'und'
        "language_id": """
            WITH w AS (
              SELECT doc_id,
                     list_distinct(list_transform(
                       regexp_extract_all(text, '[A-Za-z]+'),
                       x -> lower(x))) AS ws
              FROM documents
            ), h AS (
              SELECT doc_id,
                     len(list_intersect(ws, ['der','die','das','und','ist',
                       'von','mit','für','nicht','ein'])) AS h_de,
                     len(list_intersect(ws, ['the','and','of','to','in','is',
                       'was','that','for','with'])) AS h_en,
                     len(list_intersect(ws, ['el','la','los','y','es','de',
                       'que','en','un','por'])) AS h_es,
                     len(list_intersect(ws, ['le','la','les','et','est','de',
                       'des','une','dans','pour'])) AS h_fr
              FROM w
            )
            SELECT doc_id,
                   CASE WHEN greatest(h_de, h_en, h_es, h_fr) >= 2 THEN
                     CASE WHEN h_de = greatest(h_de, h_en, h_es, h_fr) THEN 'de'
                          WHEN h_en = greatest(h_de, h_en, h_es, h_fr) THEN 'en'
                          WHEN h_es = greatest(h_de, h_en, h_es, h_fr) THEN 'es'
                          ELSE 'fr' END
                   ELSE 'und' END AS detected_lang
            FROM h
        """,
        "quality_scores": _QUALITY_ORACLE.format(stopwords=_stopword_list_sql()),
        # 2x2 agreement census between the Gopher A1.1 document rules
        # and the composite quality-score gate (>= 0.5), both families
        # recomputed from scratch over the real documents table
        # frequency-ranked vocab + ordered id-sequence replay; empty
        # docs keep an empty string and zero count through the LEFT JOIN
        "docs_token_ids": r"""
            WITH sp AS (
              SELECT doc_id, string_split(text, ' ') AS ls
              FROM documents
            ), tokx AS (
              SELECT doc_id, tok,
                     row_number() OVER (PARTITION BY doc_id
                         ORDER BY i) - 1 AS pos
              FROM (SELECT doc_id, ls[i] AS tok, i
                    FROM (SELECT doc_id, ls,
                                 unnest(generate_series(1, len(ls))) AS i
                          FROM sp))
              WHERE tok <> ''
            ), counts AS (
              SELECT tok, count(*) AS c FROM tokx GROUP BY tok
            ), vocab AS (
              SELECT tok,
                     row_number() OVER (ORDER BY c DESC, tok ASC) - 1
                         AS tid
              FROM counts
            ), enc AS (
              SELECT t.doc_id,
                     string_agg(CAST(v.tid AS VARCHAR), ','
                                ORDER BY t.pos) AS ids_str,
                     CAST(count(*) AS BIGINT) AS n_tokens
              FROM tokx t JOIN vocab v USING (tok)
              GROUP BY t.doc_id
            )
            SELECT d.doc_id,
                   coalesce(e.ids_str, '') AS ids_str,
                   coalesce(e.n_tokens, 0) AS n_tokens
            FROM documents d LEFT JOIN enc e USING (doc_id)
        """,
        # deterministic DeepWalk corpus: replay the adjacency indexing
        # and all three mixed-congruential hops as chained joins
        "docs_graph_random_walks": r"""
            WITH e AS (
              SELECT DISTINCT src, dst FROM (
                SELECT doc_id AS src, (7 * doc_id + 3) % 500 AS dst
                FROM documents
                UNION ALL
                SELECT doc_id, (doc_id * doc_id + 1) % 500
                FROM documents)
            ), adj AS (
              SELECT src, dst,
                     row_number() OVER (PARTITION BY src
                         ORDER BY dst) - 1 AS i,
                     count(*) OVER (PARTITION BY src) AS deg
              FROM e
            ), s0 AS (
              SELECT DISTINCT src AS walk_id, CAST(0 AS BIGINT) AS step,
                     src AS node
              FROM e
            ), s1 AS (
              SELECT w.walk_id, CAST(1 AS BIGINT) AS step,
                     a.dst AS node
              FROM s0 w JOIN adj a ON a.src = w.node
               AND a.i = (w.node * 2654435761 + 0 * 40503) % a.deg
            ), s2 AS (
              SELECT w.walk_id, CAST(2 AS BIGINT) AS step,
                     a.dst AS node
              FROM s1 w JOIN adj a ON a.src = w.node
               AND a.i = (w.node * 2654435761 + 1 * 40503) % a.deg
            ), s3 AS (
              SELECT w.walk_id, CAST(3 AS BIGINT) AS step,
                     a.dst AS node
              FROM s2 w JOIN adj a ON a.src = w.node
               AND a.i = (w.node * 2654435761 + 2 * 40503) % a.deg
            )
            SELECT * FROM s0 UNION ALL SELECT * FROM s1
            UNION ALL SELECT * FROM s2 UNION ALL SELECT * FROM s3
        """,
        # inverted-index TF-IDF cosine join over the 200-doc subset:
        # tf -> smooth-free idf ln(N/df) -> L2 normalize -> shared-token
        # self-join -> rounded threshold filter (exact replay)
        "docs_tfidf_cosine_pairs": r"""
            WITH d AS (
              SELECT doc_id, text FROM documents
              ORDER BY doc_id LIMIT 200
            ), tokx AS (
              SELECT doc_id,
                     unnest(list_filter(string_split(text, ' '),
                                        x -> x <> '')) AS tok
              FROM d
            ), tf AS (
              SELECT doc_id, tok, count(*) AS tf
              FROM tokx GROUP BY doc_id, tok
            ), dfq AS (
              SELECT tok, count(*) AS df FROM tf GROUP BY tok
            ), w AS (
              SELECT tf.doc_id, tf.tok,
                     tf.tf * ln(200.0 / dfq.df) AS w
              FROM tf JOIN dfq USING (tok)
            ), nrm AS (
              SELECT doc_id, sqrt(sum(w * w)) AS nm
              FROM w GROUP BY doc_id
            ), u AS (
              SELECT w.doc_id, w.tok,
                     CASE WHEN nrm.nm > 0 THEN w.w / nrm.nm
                          ELSE 0.0 END AS w
              FROM w JOIN nrm USING (doc_id)
            ), p AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     round(sum(a.w * b.w), 6) AS cosine
              FROM u a JOIN u b
                ON a.tok = b.tok AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            )
            SELECT doc_a, doc_b, cosine FROM p WHERE cosine >= 0.7
        """,
        # Monroe et al. 2008 weighted log-odds, entire statistic in SQL;
        # rank on the 6-digit-rounded z with token tie-break (same rule
        # as the Ray side) so ln() ulp differences can't flip heads
        "docs_log_odds_terms": r"""
            WITH tokx AS (
              SELECT source,
                     unnest(list_filter(string_split(text, ' '),
                                        x -> x <> '')) AS tok
              FROM documents
            ), c AS (
              SELECT source, tok, count(*) AS c
              FROM tokx GROUP BY source, tok
            ), ctt AS (
              SELECT tok, sum(c) AS ct FROM c GROUP BY tok
            ), ns AS (
              SELECT source, sum(c) AS ng FROM c GROUP BY source
            ), tot AS (
              SELECT (SELECT sum(c) FROM c) AS n,
                     (SELECT count(*) FROM ctt) AS v
            ), z AS (
              SELECT c.source, c.tok,
                     round((
                       ln((c.c + 0.01)
                          / (ns.ng + 0.01 * tot.v - c.c - 0.01))
                     - ln((ctt.ct - c.c + 0.01)
                          / (tot.n - ns.ng + 0.01 * tot.v
                             - (ctt.ct - c.c) - 0.01))
                     ) / sqrt(1.0 / (c.c + 0.01)
                              + 1.0 / (ctt.ct - c.c + 0.01)),
                     6) AS zscore
              FROM c
              JOIN ctt USING (tok)
              JOIN ns USING (source)
              CROSS JOIN tot
            ), r AS (
              SELECT source, tok AS token, zscore,
                     row_number() OVER (PARTITION BY source
                         ORDER BY zscore DESC, tok ASC) AS rn
              FROM z
            )
            SELECT source, token, zscore FROM r WHERE rn <= 5
        """,
        "docs_filter_agreement": r"""
            WITH qsc AS (""" + _QUALITY_ORACLE.format(
            stopwords=_stopword_list_sql()) + r"""
            ), w AS (
              SELECT doc_id, text AS t,
                     list_filter(string_split_regex(text, '\s+'),
                                 x -> x <> '') AS words,
                     string_split(text, chr(10)) AS lines
              FROM documents
            ), s AS (
              SELECT doc_id,
                CAST(len(words) AS BIGINT) AS n_words,
                round(list_sum(list_transform(words,
                    x -> CAST(length(x) AS DOUBLE)))
                    / greatest(len(words), 1), 6) AS mean_word_len,
                round((
                    (length(t) - length(replace(t, '#', '')))
                    + (length(t) - length(replace(t, '...', ''))) / 3
                    + (length(t) - length(replace(t, '…', '')))
                  ) / CAST(greatest(len(words), 1) AS DOUBLE),
                  6) AS symbol_ratio,
                round(len(list_filter(lines, x ->
                    regexp_matches(x, '^(• |- |\* )')))
                    / CAST(greatest(len(lines), 1) AS DOUBLE),
                    6) AS bullet_frac,
                round(len(list_filter(lines, x ->
                    regexp_matches(x, '(\.\.\.|…)$')))
                    / CAST(greatest(len(lines), 1) AS DOUBLE),
                    6) AS ellipsis_frac,
                round(len(list_filter(words, x ->
                    regexp_matches(x, '[A-Za-z]')))
                    / CAST(greatest(len(words), 1) AS DOUBLE),
                    6) AS alpha_frac,
                CAST(len(list_distinct(list_transform(
                    list_filter(words, x -> list_contains(
                        ['the','be','to','of','and','that','have',
                         'with'], lower(x))),
                    x -> lower(x)))) AS BIGINT) AS n_stopwords
              FROM w
            ), g AS (
              SELECT doc_id,
                     CAST(n_words BETWEEN 50 AND 100000
                          AND mean_word_len BETWEEN 3.0 AND 10.0
                          AND symbol_ratio <= 0.1
                          AND bullet_frac < 0.9
                          AND ellipsis_frac < 0.3
                          AND alpha_frac >= 0.8
                          AND n_stopwords >= 0 AS BIGINT) AS gopher_keep
              FROM s
            )
            SELECT g.gopher_keep,
                   CAST(qsc.quality >= 0.75 AS BIGINT) AS quality_keep,
                   count(*) AS n
            FROM g JOIN qsc USING (doc_id)
            GROUP BY 1, 2
        """,
        "embedding_knn_top10": """
            SELECT vec_id,
                   round(list_cosine_similarity(
                       CAST(embedding AS DOUBLE[]),
                       (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
                        WHERE vec_id = 0)), 6) AS score
            FROM embeddings
            ORDER BY list_cosine_similarity(
                       CAST(embedding AS DOUBLE[]),
                       (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings
                        WHERE vec_id = 0)) DESC, vec_id ASC
            LIMIT 10
        """,
        "embedding_label_counts": """
            SELECT label, count(*) AS n FROM embeddings GROUP BY label
        """,
        "lang_distribution": """
            SELECT lang, count(*) AS n FROM documents GROUP BY lang
        """,
        "docs_by_source": """
            SELECT source, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY source
        """,
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_revenue,
                   count(*) AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
            GROUP BY l_returnflag, l_linestatus
        """,
        "top_customers_by_orders": """
            SELECT o.o_custkey, c.c_name,
                   count(*) AS n_orders,
                   round(sum(o.o_totalprice), 2) AS total_spent
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY o.o_custkey, c.c_name
            ORDER BY total_spent DESC, o.o_custkey ASC
            LIMIT 10
        """,
        "customer_segment_revenue": """
            SELECT c.c_mktsegment,
                   count(*) AS n_orders,
                   round(sum(o.o_totalprice), 2) AS revenue
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
        """,
        "nation_region_counts": """
            SELECT r.r_name, count(*) AS n_nations
            FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY r.r_name
        """,
        "part_topk_price": """
            SELECT p_partkey, p_name, p_retailprice
            FROM part
            ORDER BY p_retailprice DESC, p_partkey ASC
            LIMIT 5
        """,
        # M6: strip non-[0-9a-zA-Z_ ], spaces→_, upper (triplets.py:207-218)
        "part_sanitized_names": """
            SELECT p_partkey,
                   upper(replace(regexp_replace(p_name, '[^0-9a-zA-Z_ ]', '',
                                                'g'), ' ', '_')) AS sanitized
            FROM part
        """,
        # M8: capitalized-phrase heuristic (retrieval.py:332)
        "capitalized_phrases": """
            WITH e AS (
              SELECT doc_id,
                     regexp_extract_all(text,
                       '[A-Z][a-z]+(?:\\s+[A-Z][a-z]+)*') AS phrases
              FROM documents
            )
            SELECT doc_id,
                   len(phrases) AS n_phrases,
                   CASE WHEN len(phrases) > 0 THEN phrases[1]
                        ELSE NULL END AS first_phrase
            FROM e
        """,
        # O3: min-max normalize (retrieval.py:550-569) over a column
        "supplier_acctbal_minmax": """
            SELECT s_suppkey,
                   round((s_acctbal - min(s_acctbal) OVER ())
                         / (max(s_acctbal) OVER () - min(s_acctbal) OVER ()),
                         6) AS acctbal_norm
            FROM supplier
        """,
        "lineitem_filter_pruned": """
            SELECT l_returnflag, count(*) AS n,
                   round(sum(l_quantity), 2) AS sum_qty
            FROM lineitem
            WHERE l_discount > 0.05
            GROUP BY l_returnflag
        """,
        "orders_by_priority_month": """
            SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT)
                       AS ym,
                   o_orderpriority, count(*) AS n
            FROM orders GROUP BY 1, 2
        """,
        "supplier_nation_join": """
            SELECT n.n_name, count(*) AS n_suppliers,
                   round(sum(s.s_acctbal), 2) AS total_acctbal
            FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "events_by_type": """
            SELECT event_type, count(*) AS n, round(sum(value), 2) AS sum_value
            FROM events GROUP BY event_type
        """,
        "events_sessionized": """
            SELECT any_value(user_id) AS user_id,
                   count(*) AS n_events,
                   round(sum(value), 2) AS sum_value,
                   CAST(floor(epoch(ts) / 3600) AS BIGINT) AS window_start_h
            FROM events
            GROUP BY user_id, CAST(floor(epoch(ts) / 3600) AS BIGINT)
        """,
        "docs_hash_sample": """
            SELECT doc_id, source, n_chars
            FROM documents
            WHERE right(md5(CAST(doc_id AS VARCHAR)), 1) = '0'
        """,
        "events_rolling_mean": """
            SELECT event_id,
                   round(avg(value) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id
                     ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6)
                     AS rolling_mean_3
            FROM events
        """,
        "customers_without_urgent_orders": """
            SELECT c_custkey, c_name, c_acctbal
            FROM customer c
            WHERE NOT EXISTS (
              SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey
                AND o.o_orderpriority = '1-URGENT')
        """,
        "events_asof_purchase_view": """
            WITH p AS (SELECT * FROM events WHERE event_type = 'purchase'),
                 v AS (SELECT * FROM events WHERE event_type = 'view')
            SELECT p.event_id AS purchase_id,
                   v.event_id AS view_id,
                   v.value AS view_value,
                   epoch_us(p.ts) - epoch_us(v.ts) AS gap_us
            FROM p JOIN v
              ON v.user_id = p.user_id AND v.ts < p.ts
            QUALIFY row_number() OVER (
              PARTITION BY p.event_id
              ORDER BY v.ts DESC, v.event_id DESC) = 1
        """,
        "events_asof_next_purchase": """
            WITH v AS (SELECT * FROM events WHERE event_type = 'view'),
                 p AS (SELECT * FROM events WHERE event_type = 'purchase')
            SELECT v.event_id AS view_id,
                   p.event_id AS purchase_id,
                   p.value AS purchase_value,
                   epoch_us(p.ts) - epoch_us(v.ts) AS wait_us
            FROM v JOIN p
              ON p.user_id = v.user_id AND p.ts > v.ts
            QUALIFY row_number() OVER (
              PARTITION BY v.event_id
              ORDER BY p.ts ASC, p.event_id ASC) = 1
        """,
        "top3_orders_per_customer": """
            SELECT o_custkey, o_orderkey, o_totalprice
            FROM orders
            QUALIFY row_number() OVER (
              PARTITION BY o_custkey
              ORDER BY o_totalprice DESC, o_orderkey ASC) <= 3
        """,
        "supplier_distinct_parts": """
            SELECT l_suppkey, count(DISTINCT l_partkey) AS n_parts
            FROM lineitem GROUP BY l_suppkey
        """,
        "lineitem_qty_median": """
            SELECT l_returnflag,
                   round(median(l_quantity), 6) AS median_qty
            FROM lineitem GROUP BY l_returnflag
        """,
        "order_price_histogram": """
            SELECT CAST(floor(o_totalprice / 50000) AS BIGINT) AS price_bin,
                   count(*) AS n
            FROM orders GROUP BY 1
        """,
        "orders_price_band_join": """
            WITH bands(band, lo, hi) AS (VALUES
              ('low', 0.0, 150000.0), ('mid', 150000.0, 300000.0),
              ('high', 300000.0, 600000.0), ('all', 0.0, 600000.0))
            SELECT band, count(*) AS n,
                   round(sum(o_totalprice), 2) AS sum_price
            FROM orders JOIN bands
              ON o_totalprice >= lo AND o_totalprice < hi
            GROUP BY band
        """,
        "embedding_knn_join": """
            WITH q AS (
                SELECT vec_id AS qid, embedding::DOUBLE[] AS qe
                FROM embeddings WHERE vec_id < 5
            ),
            c AS (
                SELECT vec_id, embedding::DOUBLE[] AS e
                FROM embeddings WHERE vec_id >= 5
            ),
            s AS (
                SELECT qid, vec_id,
                       list_cosine_similarity(qe, e) AS score,
                       row_number() OVER (
                           PARTITION BY qid
                           ORDER BY list_cosine_similarity(qe, e) DESC,
                                    vec_id
                       ) AS rnk
                FROM q CROSS JOIN c
            )
            SELECT qid, vec_id, round(score, 6) AS score,
                   CAST(rnk AS BIGINT) AS rnk
            FROM s WHERE rnk <= 3
        """,
        "embedding_exact_near_dups": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b,
                   round(list_cosine_similarity(
                       CAST(a.embedding AS DOUBLE[]),
                       CAST(b.embedding AS DOUBLE[])), 6) AS cosine
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(
                      CAST(a.embedding AS DOUBLE[]),
                      CAST(b.embedding AS DOUBLE[])) >= 0.35
            ORDER BY id_a, id_b
        """,
        "orders_price_p90_by_priority": """
            SELECT o_orderpriority,
                   round(quantile_cont(o_totalprice, 0.9), 4) AS p90_price
            FROM orders GROUP BY o_orderpriority
        """,
        "orders_rollup": """
            SELECT coalesce(o_orderpriority, 'ALL') AS o_orderpriority,
                   coalesce(o_orderstatus, 'ALL') AS o_orderstatus,
                   count(*) AS n,
                   round(sum(o_totalprice), 2) AS sum_price
            FROM orders
            GROUP BY ROLLUP(o_orderpriority, o_orderstatus)
        """,
        "urgent_high_value_custkeys": """
            SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
            INTERSECT
            SELECT o_custkey FROM orders WHERE o_totalprice > 350000.0
        """,
        "custkeys_never_urgent": """
            SELECT o_custkey FROM orders
            EXCEPT
            SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
        """,
        "orders_status_pivot": """
            SELECT o_orderpriority,
                   round(coalesce(sum(CASE WHEN o_orderstatus = 'F'
                                      THEN o_totalprice END), 0), 2) AS status_f,
                   round(coalesce(sum(CASE WHEN o_orderstatus = 'O'
                                      THEN o_totalprice END), 0), 2) AS status_o,
                   round(coalesce(sum(CASE WHEN o_orderstatus = 'P'
                                      THEN o_totalprice END), 0), 2) AS status_p
            FROM orders GROUP BY o_orderpriority
        """,
        "urgent_lineitem_qty_by_flag": """
            SELECT l_returnflag, count(*) AS n,
                   round(sum(l_quantity), 2) AS sum_qty
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                                 WHERE o_orderpriority = '1-URGENT')
            GROUP BY l_returnflag
        """,
        "region_nation_list": """
            SELECT r_name, string_agg(n_name, ',' ORDER BY n_name) AS nations
            FROM nation JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "top_tokens_exact": """
            SELECT t AS tok, count(*) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS t
                  FROM documents)
            WHERE t <> ''
            GROUP BY t
            ORDER BY n DESC, t
            LIMIT 20
        """,
        "top_tokens_sketch": """
            SELECT t AS tok, count(*) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS t
                  FROM documents)
            WHERE t <> ''
            GROUP BY t
            ORDER BY n DESC, t
            LIMIT 20
        """,
        "lineitem_qty_price_corr": """
            SELECT l_returnflag,
                   round(corr(l_quantity, l_extendedprice), 6) AS r
            FROM lineitem GROUP BY l_returnflag
        """,
        "q3_shipping_priority": """
            SELECT l_orderkey,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)
                       AS revenue,
                   o_orderdate, o_orderpriority
            FROM customer
            JOIN orders ON c_custkey = o_custkey
            JOIN lineitem ON l_orderkey = o_orderkey
            WHERE c_mktsegment = 'BUILDING'
              AND o_orderdate < TIMESTAMP '1998-06-01'
              AND l_shipdate > TIMESTAMP '1998-06-01'
            GROUP BY l_orderkey, o_orderdate, o_orderpriority
            ORDER BY sum(l_extendedprice * (1 - l_discount)) DESC,
                     o_orderdate, l_orderkey
            LIMIT 10
        """,
        "events_user_cumsum": """
            SELECT event_id, user_id,
                   round(sum(value) OVER (PARTITION BY user_id
                         ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING), 6) AS cum_value
            FROM events
        """,
        "q5_nation_volume": """
            SELECT n_name,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)
                       AS revenue
            FROM customer, orders, lineitem, supplier, nation, region
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
              AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
              AND r_name = 'ASIA'
              AND o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1999-01-01'
            GROUP BY n_name
        """,
        "docs_stratified_sample": """
            SELECT doc_id, lang, source
            FROM documents
            WHERE strpos('0123456789abcdef',
                         right(md5(CAST(doc_id AS VARCHAR)), 1)) - 1
                  < CASE WHEN lang = 'en' THEN 4 ELSE 1 END
        """,
        # Same RE2 patterns as the engine (pipelines/clean.PII_PATTERNS)
        # applied in the same order over identically-derived input text;
        # both sides are RE2, so equality is byte-exact.
        "docs_pii_redacted": (lambda p=_pii: f"""
            SELECT doc_id,
                   regexp_replace(
                     regexp_replace(
                       regexp_replace(
                         text || ' contact user' || CAST(doc_id AS VARCHAR)
                              || '@example.com from 10.0.'
                              || CAST(doc_id % 200 AS VARCHAR)
                              || '.1 call 415-555-'
                              || CAST(1000 + doc_id % 9000 AS VARCHAR),
                         '{p[0][0]}', '{p[0][1]}', 'g'),
                       '{p[1][0]}', '{p[1][1]}', 'g'),
                     '{p[2][0]}', '{p[2][1]}', 'g') AS clean_text
            FROM documents
        """)(),
        "docs_repetition_scores": """
            WITH toks AS (
                SELECT doc_id, unnest(l) AS tok,
                       unnest(range(1, len(l) + 1)) AS ord
                FROM (SELECT doc_id, string_split(text, ' ') AS l
                      FROM documents)
            ),
            ftoks AS (SELECT * FROM toks WHERE tok <> ''),
            tc AS (SELECT doc_id, tok, count(*) AS c
                   FROM ftoks GROUP BY doc_id, tok),
            base AS (SELECT doc_id, sum(c) AS n, count(*) AS nun,
                            max(c) AS top
                     FROM tc GROUP BY doc_id),
            bg AS (SELECT doc_id,
                          tok || ' ' || lead(tok) OVER (
                              PARTITION BY doc_id ORDER BY ord) AS b
                   FROM ftoks),
            bgc AS (SELECT doc_id, max(c) AS topbg
                    FROM (SELECT doc_id, b, count(*) AS c FROM bg
                          WHERE b IS NOT NULL GROUP BY doc_id, b)
                    GROUP BY doc_id)
            SELECT base.doc_id,
                   CAST(n AS BIGINT) AS n_tokens,
                   round(nun * 1.0 / n, 6) AS distinct_frac,
                   round(top * 1.0 / n, 6) AS top_token_frac,
                   round(coalesce(topbg, 0) * 1.0
                         / greatest(n - 1, 1), 6) AS top_bigram_frac
            FROM base LEFT JOIN bgc ON base.doc_id = bgc.doc_id
        """,
        "docs_packed_sequences": """
            WITH base AS (
                SELECT doc_id,
                       (strpos('0123456789abcdef',
                               right(md5(CAST(doc_id AS VARCHAR)), 1))
                        - 1) % 4 AS shard,
                       len(list_filter(string_split(text, ' '),
                                       x -> x <> '')) AS n_tok
                FROM documents
            ),
            pos AS (
                SELECT doc_id, shard, n_tok,
                       CAST(sum(n_tok) OVER (
                           PARTITION BY shard ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) - n_tok
                            AS BIGINT) AS start
                FROM base WHERE n_tok > 0
            ),
            seg AS (
                SELECT shard, doc_id, start, n_tok,
                       unnest(generate_series(
                           start // 256,
                           (start + n_tok - 1) // 256)) AS pack_id
                FROM pos
            )
            SELECT CAST(shard AS BIGINT) AS shard,
                   CAST(pack_id AS BIGINT) AS pack_id,
                   doc_id,
                   CAST(greatest(start, pack_id * 256) - start
                        AS BIGINT) AS seg_start,
                   CAST(least(start + n_tok, (pack_id + 1) * 256)
                        - greatest(start, pack_id * 256)
                        AS BIGINT) AS seg_len,
                   CAST(greatest(start, pack_id * 256) - pack_id * 256
                        AS BIGINT) AS pack_offset
            FROM seg
        """,
        "docs_per_source_cap": """
            SELECT doc_id, source FROM documents
            QUALIFY row_number() OVER (
                PARTITION BY source ORDER BY doc_id) <= 10
        """,
        "customer_order_totals_outer": """
            SELECT COALESCE(o.o_custkey, c.c_custkey) AS custkey,
                   o.order_cnt, o.total_price, c.c_name
            FROM (SELECT o_custkey, count(*) AS order_cnt,
                         round(sum(o_totalprice), 2) AS total_price
                  FROM orders GROUP BY o_custkey) o
            FULL OUTER JOIN
                 (SELECT c_custkey, c_name FROM customer
                  WHERE c_acctbal > 5000) c
            ON o.o_custkey = c.c_custkey
        """,
        "events_prev_gap": """
            SELECT user_id, event_id,
                   epoch_us(ts) - lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id
                       ORDER BY epoch_us(ts), event_id) AS gap_us
            FROM events
        """,
        "orders_priority_mode": """
            SELECT o_orderstatus, o_orderpriority, n
            FROM (SELECT o_orderstatus, o_orderpriority,
                         count(*) AS n
                  FROM orders GROUP BY 1, 2)
            QUALIFY row_number() OVER (
                PARTITION BY o_orderstatus
                ORDER BY n DESC, o_orderpriority) = 1
        """,
        "lineitem_cube_qty": """
            SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
                   COALESCE(l_linestatus, 'ALL') AS l_linestatus,
                   CAST(count(*) AS BIGINT) AS n,
                   round(sum(l_quantity), 2) AS sum_value
            FROM lineitem
            GROUP BY CUBE(l_returnflag, l_linestatus)
        """,
        # 5 unrolled PageRank iterations over the same deterministic
        # synthetic edge list the Ray query derives from doc_id
        "docs_pagerank": (
            """
            WITH edges AS (
                SELECT doc_id AS src, (doc_id * 7 + 3) % 500 AS dst
                FROM documents
                UNION ALL
                SELECT doc_id, (doc_id * 13 + 101) % 500 FROM documents
            ),
            outdeg AS (SELECT src, count(*) AS c FROM edges GROUP BY src),
            nodes AS (SELECT src AS node FROM edges
                      UNION SELECT dst FROM edges),
            r0 AS (SELECT node, CAST(1.0 AS DOUBLE) AS r FROM nodes)
            """
            + "".join(
                f""",
            r{i} AS (
                SELECT n.node,
                       0.15 + 0.85 * coalesce(sum(p.r / d.c), 0.0) AS r
                FROM nodes n
                LEFT JOIN edges e ON e.dst = n.node
                LEFT JOIN r{i - 1} p ON p.node = e.src
                LEFT JOIN outdeg d ON d.src = e.src
                GROUP BY n.node
            )"""
                for i in range(1, 6)
            )
            + """
            SELECT node, round(r, 6) AS pr FROM r5
            """
        ),
        # 5 unrolled HITS iterations (a ← Σ_in h, L1-normalize;
        # h ← Σ_out a, L1-normalize) over the docs_pagerank edge list
        "docs_hits": (
            """
            WITH edges AS MATERIALIZED (
                SELECT doc_id AS src, (doc_id * 7 + 3) % 500 AS dst
                FROM documents
                UNION ALL
                SELECT doc_id, (doc_id * 13 + 101) % 500 FROM documents
            ),
            nodes AS MATERIALIZED (SELECT src AS node FROM edges
                      UNION SELECT dst FROM edges),
            h0 AS (SELECT node, CAST(1.0 AS DOUBLE) AS h FROM nodes)
            """
            + "".join(
                f""",
            a{i}raw AS MATERIALIZED (
                SELECT n.node, coalesce(sum(p.h), 0.0) AS v
                FROM nodes n
                LEFT JOIN edges e ON e.dst = n.node
                LEFT JOIN h{i - 1} p ON p.node = e.src
                GROUP BY n.node
            ),
            a{i} AS (
                SELECT node,
                       v / (SELECT CASE WHEN sum(v) = 0 THEN 1.0
                                   ELSE sum(v) END FROM a{i}raw) AS a
                FROM a{i}raw
            ),
            h{i}raw AS MATERIALIZED (
                SELECT n.node, coalesce(sum(p.a), 0.0) AS v
                FROM nodes n
                LEFT JOIN edges e ON e.src = n.node
                LEFT JOIN a{i} p ON p.node = e.dst
                GROUP BY n.node
            ),
            h{i} AS (
                SELECT node,
                       v / (SELECT CASE WHEN sum(v) = 0 THEN 1.0
                                   ELSE sum(v) END FROM h{i}raw) AS h
                FROM h{i}raw
            )"""
                for i in range(1, 6)
            )
            + """
            SELECT a5.node, round(a5.a, 6) AS authority,
                   round(h5.h, 6) AS hub
            FROM a5 JOIN h5 ON a5.node = h5.node
            """
        ),
        # ROC-AUC of the quality score vs lang='en': Mann-Whitney with
        # average-rank ties over 3-digit-quantized scores — integer
        # numerator Σ np·(2·cum_nn + nn), one float division
        "docs_quality_auc": (
            "WITH q AS (" + _QUALITY_ORACLE.format(
                stopwords=_stopword_list_sql()) + """),
            s AS (
              SELECT round(q.quality, 3) AS score,
                     CASE WHEN d.lang = 'en' THEN 1 ELSE 0 END AS pos
              FROM q JOIN documents d USING (doc_id)
            ),
            g AS (
              SELECT score, SUM(pos) AS np, COUNT(*) - SUM(pos) AS nn
              FROM s GROUP BY score
            ),
            c AS (
              SELECT np, nn,
                     COALESCE(SUM(nn) OVER (ORDER BY score
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND 1 PRECEDING), 0) AS cum_nn
              FROM g
            ),
            tot AS (SELECT SUM(np) AS n_pos, SUM(nn) AS n_neg FROM g)
            SELECT round(CAST(SUM(c.np * (2 * c.cum_nn + c.nn))
                              AS DOUBLE)
                         / (2.0 * tot.n_pos * tot.n_neg), 6) AS auc,
                   CAST(tot.n_pos AS BIGINT) AS n_pos,
                   CAST(tot.n_neg AS BIGINT) AS n_neg
            FROM c, tot
            GROUP BY tot.n_pos, tot.n_neg
        """),
        # reliability table: fixed-width quality-score bins vs the
        # lang='en' positive fraction
        "docs_quality_calibration": (
            "WITH q AS (" + _QUALITY_ORACLE.format(
                stopwords=_stopword_list_sql()) + """),
            s AS (
              SELECT least(greatest(
                         CAST(floor(q.quality * 10) AS BIGINT), 0), 9)
                         AS bin,
                     CASE WHEN d.lang = 'en' THEN 1 ELSE 0 END AS pos
              FROM q JOIN documents d USING (doc_id)
            )
            SELECT bin, CAST(SUM(pos) AS BIGINT) AS n_pos,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   round(CAST(SUM(pos) AS DOUBLE) / COUNT(*), 6)
                       AS frac_pos
            FROM s GROUP BY bin ORDER BY bin
        """),
        # power-of-two length buckets + padding waste: bucket via a
        # powers-table min-join, all-BIGINT sums
        "docs_length_buckets": """
            WITH t AS (
              SELECT doc_id,
                     len(list_filter(string_split(text, ' '),
                                     x -> x <> '')) AS n
              FROM documents
            ),
            p AS (SELECT CAST(power(2, i) AS BIGINT) AS b
                  FROM UNNEST(generate_series(0, 20)) AS u(i)),
            w AS (
              SELECT doc_id, n,
                     (SELECT min(b) FROM p
                      WHERE b >= greatest(n, 1)) AS bucket
              FROM t
            )
            SELECT bucket, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n) AS BIGINT) AS total_tokens,
                   CAST(sum(bucket - n) AS BIGINT) AS padding_waste
            FROM w GROUP BY bucket ORDER BY bucket
        """,
        # encode→decode roundtrip: the reconstruction must equal the
        # whitespace-squeezed source — the oracle asserts the
        # CONTRACT, not a replay of the encoder
        "docs_token_roundtrip": """
            SELECT doc_id,
                   array_to_string(
                       list_filter(string_split(text, ' '),
                                   t -> t <> ''), ' ') AS text_rt
            FROM documents ORDER BY doc_id
        """,
        # sliding token windows: floor(max(n-32,0)/24)+1 windows per
        # doc, 1-based inclusive list_slice, single-space join — the
        # window text must match byte-exactly
        "docs_token_windows": """
            WITH t AS (
              SELECT doc_id, string_split(text, ' ') AS toks,
                     len(string_split(text, ' ')) AS n
              FROM documents
            ),
            w AS (
              SELECT doc_id, CAST(u.i AS BIGINT) AS window_idx,
                     list_slice(toks, u.i*24 + 1, u.i*24 + 32) AS win
              FROM t, UNNEST(generate_series(0,
                    CAST(floor(greatest(n - 32, 0) / 24) AS BIGINT)))
                    AS u(i)
            )
            SELECT doc_id, window_idx,
                   CAST(len(win) AS BIGINT) AS n_tokens,
                   array_to_string(win, ' ') AS window_text
            FROM w ORDER BY doc_id, window_idx
        """,
        # cross-split leakage: md5-slot split + 8-token-prefix md5
        # fingerprints; leaking = present in > 1 split
        "docs_split_leakage": r"""
            WITH f AS (
              SELECT doc_id,
                     md5(array_to_string(list_slice(list_filter(
                         regexp_split_to_array(text, '\s+'),
                         x -> x <> ''), 1, 8), ' ')) AS fingerprint,
                     CASE WHEN slot < 12 THEN 'train'
                          WHEN slot < 14 THEN 'val'
                          ELSE 'test' END AS split
              FROM (SELECT doc_id, text,
                           strpos('0123456789abcdef',
                                  right(md5(CAST(doc_id AS VARCHAR)),
                                        1)) - 1 AS slot
                    FROM documents)
            )
            SELECT fingerprint,
                   CAST(count(DISTINCT split) AS BIGINT) AS n_splits,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM f GROUP BY fingerprint
            HAVING count(DISTINCT split) > 1
            ORDER BY fingerprint
        """,
        # bounded-hop weighted shortest paths: recursive CTE over
        # (node, cost, hops ≤ 4) walks with planted integer weights;
        # MIN(cost) per node = the Bellman-Ford result
        "docs_shortest_paths": """
            WITH RECURSIVE edges AS MATERIALIZED (
                SELECT src, dst, (src + dst) % 7 + 1 AS w FROM (
                    SELECT doc_id AS src, (doc_id * 7 + 3) % 500 AS dst
                    FROM documents
                    UNION ALL
                    SELECT doc_id, (doc_id * 13 + 101) % 500
                    FROM documents
                )
            ),
            walk(node, c, d) AS (
                SELECT doc_id, 0, 0 FROM documents
                WHERE doc_id % 101 = 0
                UNION
                SELECT e.dst, w.c + e.w, w.d + 1
                FROM walk w JOIN edges e ON e.src = w.node
                WHERE w.d < 4
            )
            SELECT node, CAST(MIN(c) AS BIGINT) AS cost
            FROM walk GROUP BY node ORDER BY node
        """,
        # out-in degree assortativity: degrees via GROUP BY, joined
        # back onto edges, exact BIGINT sums, one DOUBLE expression
        "docs_graph_assortativity": """
            WITH edges AS MATERIALIZED (
                SELECT doc_id AS src, (doc_id * 7 + 3) % 500 AS dst
                FROM documents
                UNION ALL
                SELECT doc_id, (doc_id * 13 + 101) % 500 FROM documents
                UNION ALL
                SELECT doc_id, (doc_id * 11 + 7) % 500 FROM documents
                WHERE doc_id % 3 = 0
            ),
            od AS (SELECT src AS node, COUNT(*) AS x
                   FROM edges GROUP BY src),
            idg AS (SELECT dst AS node, COUNT(*) AS y
                    FROM edges GROUP BY dst),
            ex AS (
              SELECT od.x AS x, idg.y AS y
              FROM edges e
              JOIN od ON od.node = e.src
              JOIN idg ON idg.node = e.dst
            ),
            s AS (SELECT COUNT(*) AS n, SUM(x) AS sx, SUM(y) AS sy,
                         SUM(x*y) AS sxy, SUM(x*x) AS sxx,
                         SUM(y*y) AS syy FROM ex)
            SELECT CAST(n AS BIGINT) AS n_edges,
                   round(CAST(n*sxy - sx*sy AS DOUBLE)
                         / sqrt(CAST(n*sxx - sx*sx AS DOUBLE)
                                * CAST(n*syy - sy*sy AS DOUBLE)), 6)
                       AS assortativity
            FROM s
        """,
        # fixed-depth multi-source BFS: recursive CTE enumerates walks
        # of length ≤ 4 from the % 101 seed set; MIN(d) per node is
        # the shortest-walk (= shortest-path) distance
        "docs_bfs_depths": """
            WITH RECURSIVE edges AS MATERIALIZED (
                SELECT doc_id AS src, (doc_id * 7 + 3) % 500 AS dst
                FROM documents
                UNION ALL
                SELECT doc_id, (doc_id * 13 + 101) % 500 FROM documents
            ),
            walk(node, d) AS (
                SELECT doc_id, 0 FROM documents WHERE doc_id % 101 = 0
                UNION
                SELECT e.dst, w.d + 1
                FROM walk w JOIN edges e ON e.src = w.node
                WHERE w.d < 4
            )
            SELECT node, CAST(MIN(d) AS BIGINT) AS depth
            FROM walk GROUP BY node ORDER BY node
        """,
        # open-vocabulary co-occurrence PMI: dedupe (doc, long token),
        # cap per doc, self-join pairs a<b, marginal joins, log2 PMI
        "docs_token_cooccurrence": """
            WITH it0 AS MATERIALIZED (
              SELECT DISTINCT doc_id, t AS item
              FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS t
                    FROM documents)
              WHERE length(t) >= 5
            ),
            it AS MATERIALIZED (
              SELECT doc_id, item FROM it0
              QUALIFY row_number() OVER (
                  PARTITION BY doc_id ORDER BY item) <= 256
            ),
            pairs AS (
              SELECT x.item AS a, y.item AS b,
                     CAST(count(*) AS BIGINT) AS n_ab
              FROM it x JOIN it y
                ON x.doc_id = y.doc_id AND x.item < y.item
              GROUP BY 1, 2
            ),
            marg AS MATERIALIZED (
              SELECT item, count(*) AS n FROM it GROUP BY item
            ),
            nn AS (SELECT count(DISTINCT doc_id) AS n_docs FROM it)
            SELECT a, b, n_ab,
                   round(log2(CAST(n_ab AS DOUBLE)
                              * (SELECT n_docs FROM nn)
                              / (m1.n * m2.n)), 6) AS pmi
            FROM pairs
            JOIN marg m1 ON m1.item = a
            JOIN marg m2 ON m2.item = b
            WHERE n_ab >= 2
        """,
        "embedding_label_outliers": """
            WITH e AS (
                SELECT vec_id, label,
                       CAST(unnest(embedding) AS DOUBLE) AS x,
                       unnest(range(1, len(embedding) + 1)) AS dim
                FROM embeddings
            ),
            cent AS (SELECT label, dim, avg(x) AS c FROM e
                     GROUP BY label, dim),
            cn AS (SELECT label, sqrt(sum(c * c)) AS cn FROM cent
                   GROUP BY label),
            nv AS (SELECT vec_id, sqrt(sum(x * x)) AS nrm FROM e
                   GROUP BY vec_id),
            cosv AS (
                SELECT e.vec_id, e.label,
                       sum(e.x * cent.c)
                           / (max(nv.nrm) * max(cn.cn)) AS cos_own
                FROM e
                JOIN cent ON cent.label = e.label AND cent.dim = e.dim
                JOIN nv ON nv.vec_id = e.vec_id
                JOIN cn ON cn.label = e.label
                GROUP BY e.vec_id, e.label
            ),
            z AS (SELECT vec_id, label, cos_own,
                         (cos_own - avg(cos_own) OVER w)
                             / stddev_samp(cos_own) OVER w AS z
                  FROM cosv WINDOW w AS (PARTITION BY label))
            SELECT vec_id, CAST(label AS BIGINT) AS label,
                   round(cos_own, 6) AS cos_own, round(z, 6) AS z,
                   coalesce(z <= -2.0, FALSE) AS flagged
            FROM z
        """,
        "docs_zipf_slope": """
            WITH c AS (
                SELECT t AS tok, count(*) AS n
                FROM (SELECT unnest(string_split(text, ' ')) AS t
                      FROM documents)
                WHERE t <> ''
                GROUP BY t ORDER BY n DESC, t LIMIT 200
            ),
            r AS (SELECT ln(CAST(row_number() OVER (
                              ORDER BY n DESC, tok) AS DOUBLE)) AS x,
                         ln(CAST(n AS DOUBLE)) AS y
                  FROM c)
            SELECT CAST(count(*) AS BIGINT) AS k,
                   round(regr_slope(y, x), 6) AS slope,
                   round(regr_intercept(y, x), 6) AS intercept,
                   round(regr_r2(y, x), 6) AS r2
            FROM r
        """,
        "embedding_label_separation": """
            WITH e AS (
                SELECT vec_id, label,
                       CAST(unnest(embedding) AS DOUBLE) AS x,
                       unnest(range(1, len(embedding) + 1)) AS dim
                FROM embeddings
            ),
            nv AS (SELECT vec_id, sqrt(sum(x * x)) AS nrm FROM e
                   GROUP BY vec_id),
            nl AS (SELECT label, count(*) AS n FROM embeddings
                   GROUP BY label),
            cent AS (SELECT label, dim, avg(x) AS c FROM e
                     GROUP BY label, dim),
            cn AS (SELECT label, sqrt(sum(c * c)) AS cn FROM cent
                   GROUP BY label),
            u AS (SELECT e.label, e.dim, sum(e.x / nv.nrm) AS u
                  FROM e JOIN nv USING (vec_id)
                  GROUP BY e.label, e.dim),
            m AS (SELECT u.label AS la, c.label AS lb,
                         sum(u.u * c.c) AS dot
                  FROM u JOIN cent c ON u.dim = c.dim
                  GROUP BY u.label, c.label),
            mc AS (SELECT m.la, m.lb, m.dot / (nl.n * cn.cn) AS cosv
                   FROM m JOIN nl ON nl.label = m.la
                   JOIN cn ON cn.label = m.lb),
            intra AS (SELECT la AS label, cosv AS intra FROM mc
                      WHERE la = lb),
            near AS (SELECT la AS label, lb AS nearest_label,
                            cosv AS nearest_cos,
                            row_number() OVER (
                                PARTITION BY la
                                ORDER BY cosv DESC, lb) AS rn
                     FROM mc WHERE la <> lb)
            SELECT CAST(i.label AS BIGINT) AS label,
                   CAST(nl.n AS BIGINT) AS n,
                   round(i.intra, 6) AS intra_cos,
                   CAST(near.nearest_label AS BIGINT) AS nearest_label,
                   round(near.nearest_cos, 6) AS nearest_cos,
                   round(i.intra - near.nearest_cos, 6) AS separation
            FROM intra i
            JOIN near ON near.label = i.label AND near.rn = 1
            JOIN nl ON nl.label = i.label
        """,
        "embedding_label_centroids": """
            SELECT CAST(label AS BIGINT) AS label, dim,
                   round(avg(x), 6) AS centroid
            FROM (SELECT label, unnest(embedding) AS x,
                         unnest(range(1, len(embedding) + 1)) AS dim
                  FROM embeddings)
            GROUP BY label, dim
        """,
        "lineitem_qty_var_by_flag": """
            SELECT l_returnflag,
                   round(var_samp(l_quantity), 6) AS var_samp,
                   round(stddev_samp(l_quantity), 6) AS stddev
            FROM lineitem GROUP BY l_returnflag
        """,
        "docs_from_jsonl_roundtrip": """
            SELECT doc_id, text, lang, source FROM documents
        """,
        "docs_from_csv_roundtrip": """
            SELECT doc_id, lang, n_chars FROM documents
        """,
        "docs_dedup_vs_prev": """
            SELECT doc_id, text FROM documents d
            WHERE doc_id % 3 <> 0
              AND NOT EXISTS (
                  SELECT 1 FROM documents p
                  WHERE p.doc_id % 3 = 0 AND p.text = d.text)
        """,
        "orders_ntile4": """
            SELECT o_orderkey, o_orderpriority, o_totalprice,
                   CAST(ntile(4) OVER (
                       PARTITION BY o_orderpriority
                       ORDER BY o_totalprice, o_orderkey
                   ) AS BIGINT) AS tile
            FROM orders
        """,
"docs_training_pipeline": (lambda p=_pii: f"""
            WITH clean AS (
                SELECT doc_id,
                       regexp_replace(regexp_replace(regexp_replace(
                           text,
                           '{p[0][0]}', '{p[0][1]}', 'g'),
                           '{p[1][0]}', '{p[1][1]}', 'g'),
                           '{p[2][0]}', '{p[2][1]}', 'g') AS text
                FROM documents
            ),
            toks AS (
                SELECT doc_id, unnest(l) AS tok,
                       unnest(range(1, len(l) + 1)) AS ord
                FROM (SELECT doc_id, string_split(text, ' ') AS l
                      FROM clean)
            ),
            f AS (SELECT * FROM toks WHERE tok <> ''),
            tc AS (SELECT doc_id, tok, count(*) AS c
                   FROM f GROUP BY 1, 2),
            base AS (SELECT doc_id, CAST(sum(c) AS BIGINT) AS n,
                            count(*) AS nun
                     FROM tc GROUP BY 1),
            bg AS (SELECT doc_id, tok || ' ' || lead(tok) OVER (
                       PARTITION BY doc_id ORDER BY ord) AS b FROM f),
            bgc AS (SELECT doc_id, max(c) AS topbg
                    FROM (SELECT doc_id, b, count(*) AS c FROM bg
                          WHERE b IS NOT NULL GROUP BY 1, 2)
                    GROUP BY 1),
            scored AS (
                SELECT base.doc_id, n,
                       round(nun * 1.0 / n, 6) AS df_,
                       round(coalesce(topbg, 0) * 1.0
                             / greatest(n - 1, 1), 6) AS bf_
                FROM base LEFT JOIN bgc ON base.doc_id = bgc.doc_id
            ),
            kept AS (SELECT doc_id, n FROM scored
                     WHERE df_ >= 0.4 AND bf_ <= 0.12 AND n >= 20),
            dedup AS (
                SELECT min(k.doc_id) AS doc_id,
                       any_value(k.n) AS n_tok
                FROM kept k JOIN clean c ON c.doc_id = k.doc_id
                GROUP BY c.text
            ),
            pos AS (
                SELECT doc_id,
                       (strpos('0123456789abcdef',
                               right(md5(CAST(doc_id AS VARCHAR)), 1))
                        - 1) % 4 AS shard,
                       n_tok
                FROM dedup
            ),
            pos2 AS (
                SELECT doc_id, shard, n_tok,
                       CAST(sum(n_tok) OVER (
                           PARTITION BY shard ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) - n_tok
                            AS BIGINT) AS start
                FROM pos WHERE n_tok > 0
            ),
            seg AS (
                SELECT shard, doc_id, start, n_tok,
                       unnest(generate_series(
                           start // 256,
                           (start + n_tok - 1) // 256)) AS pack_id
                FROM pos2
            )
            SELECT CAST(shard AS BIGINT) AS shard,
                   CAST(pack_id AS BIGINT) AS pack_id,
                   doc_id,
                   CAST(greatest(start, pack_id * 256) - start
                        AS BIGINT) AS seg_start,
                   CAST(least(start + n_tok, (pack_id + 1) * 256)
                        - greatest(start, pack_id * 256)
                        AS BIGINT) AS seg_len,
                   CAST(greatest(start, pack_id * 256) - pack_id * 256
                        AS BIGINT) AS pack_offset
            FROM seg
        """)(),
        "orders_customer_skew_join": """
            SELECT o_orderkey, o_custkey, o_totalprice, c_name
            FROM orders JOIN customer ON o_custkey = c_custkey
        """,
        "events_value_zscore": """
            SELECT event_id, event_type, value,
                   round((value - avg(value) OVER w)
                         / stddev_samp(value) OVER w, 4) AS zscore
            FROM events
            WINDOW w AS (PARTITION BY event_type)
        """,
        "docs_union_schema_evolution": """
            SELECT doc_id, text, lang, CAST(NULL AS VARCHAR) AS source,
                   CAST(NULL AS BIGINT) AS n_chars
            FROM documents WHERE doc_id % 2 = 0
            UNION ALL
            SELECT doc_id, CAST(NULL AS VARCHAR), CAST(NULL AS VARCHAR),
                   source, n_chars
            FROM documents WHERE doc_id % 2 = 1
        """,
        "docs_boilerplate_stripped": """
            WITH aug AS (
                SELECT doc_id,
                       (CASE WHEN doc_id % 2 = 0
                        THEN 'This website uses cookies to improve your experience.'
                             || chr(10) ELSE '' END)
                       || text ||
                       (CASE WHEN doc_id % 3 = 0
                        THEN chr(10) ||
                             'Subscribe to our newsletter for updates!'
                        ELSE '' END) AS text
                FROM documents
            ),
            lines AS (
                SELECT doc_id,
                       unnest(string_split(text, chr(10))) AS line,
                       unnest(range(len(string_split(text, chr(10)))))
                           AS idx
                FROM aug
            ),
            freq AS (
                SELECT line FROM lines
                GROUP BY line HAVING count(DISTINCT doc_id) >= 25
            ),
            kept AS (
                SELECT * FROM lines
                WHERE line NOT IN (SELECT line FROM freq)
            )
            SELECT a.doc_id, coalesce(k.txt, '') AS clean_text
            FROM aug a LEFT JOIN (
                SELECT doc_id,
                       string_agg(line, chr(10) ORDER BY idx) AS txt
                FROM kept GROUP BY doc_id
            ) k ON a.doc_id = k.doc_id
        """,
        "docs_substring_dedup": """
            WITH tk AS (
                SELECT doc_id,
                       list_filter(string_split(
                           (CASE WHEN doc_id % 7 = 0
                            THEN 'breaking news update from our partner network syndicated content follows '
                            ELSE '' END)
                           || text ||
                           (CASE WHEN doc_id % 5 = 0
                            THEN ' click here to accept all cookies and continue to the requested page'
                            ELSE '' END), ' '),
                           x -> x <> '') AS toks
                FROM documents
            ),
            toks AS (
                SELECT doc_id, unnest(toks) AS tok,
                       unnest(range(len(toks))) AS i
                FROM tk
            ),
            grams AS (
                SELECT doc_id, i AS p,
                       tok || ' ' || lead(tok, 1) OVER w || ' '
                           || lead(tok, 2) OVER w || ' '
                           || lead(tok, 3) OVER w || ' '
                           || lead(tok, 4) OVER w || ' '
                           || lead(tok, 5) OVER w || ' '
                           || lead(tok, 6) OVER w || ' '
                           || lead(tok, 7) OVER w AS gram,
                       lead(tok, 7) OVER w AS t7
                FROM toks
                WINDOW w AS (PARTITION BY doc_id ORDER BY i)
            ),
            g2 AS (SELECT doc_id, p, gram FROM grams
                   WHERE t7 IS NOT NULL),
            dup AS (
                SELECT g.doc_id, g.p
                FROM g2 g
                JOIN (SELECT gram, min(doc_id) AS m FROM g2
                      GROUP BY gram) q ON g.gram = q.gram
                WHERE g.doc_id <> q.m
            ),
            cov AS (
                SELECT DISTINCT t.doc_id, t.i
                FROM toks t
                JOIN dup d ON t.doc_id = d.doc_id
                          AND t.i >= d.p AND t.i < d.p + 8
            )
            SELECT t.doc_id,
                   coalesce(string_agg(t.tok, ' ' ORDER BY t.i)
                            FILTER (WHERE c.i IS NULL), '')
                       AS clean_text,
                   CAST(count(c.i) AS BIGINT) AS n_removed
            FROM toks t
            LEFT JOIN cov c ON t.doc_id = c.doc_id AND t.i = c.i
            GROUP BY t.doc_id
        """,
        "docs_bm25_rank": """
            WITH tok AS (
                SELECT doc_id,
                       unnest(list_filter(string_split(text, ' '),
                                          x -> x <> '')) AS tok
                FROM documents
            ),
            dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT sum(dl) FROM dl)
                           / (SELECT count(*) FROM documents) AS avgdl
            ),
            tf AS (
                SELECT doc_id, tok, count(*) AS tf FROM tok
                WHERE tok IN ('sort', 'merge', 'window')
                GROUP BY doc_id, tok
            ),
            df AS (SELECT tok, count(DISTINCT doc_id) AS df FROM tf
                   GROUP BY tok),
            sc AS (
                SELECT tf.doc_id,
                       sum(ln((stats.n_docs - df.df + 0.5)
                              / (df.df + 0.5) + 1.0)
                           * tf.tf * 2.2
                           / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl
                                             / stats.avgdl))) AS s
                FROM tf
                JOIN df USING (tok)
                JOIN dl USING (doc_id)
                CROSS JOIN stats
                GROUP BY tf.doc_id
            )
            SELECT doc_id, round(s, 6) AS score
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        "docs_bench_overlap": """
            WITH corpus AS (
                SELECT doc_id,
                       text || (CASE WHEN doc_id % 10 = 1 THEN
                           ' the quick brown fox jumps over the lazy dog while seventeen astronauts quietly measure forty two distinct orbital parameters during the long winter night shift'
                           ELSE '' END) AS text
                FROM documents WHERE doc_id >= 20
            ),
            bench AS (
                SELECT text || (CASE WHEN doc_id = 0 THEN
                           ' the quick brown fox jumps over the lazy dog while seventeen astronauts quietly measure forty two distinct orbital parameters during the long winter night shift'
                           ELSE '' END) AS text
                FROM documents WHERE doc_id < 20
            ),
            ctk AS (
                SELECT doc_id,
                       unnest(list_filter(string_split(text, ' '),
                                          x -> x <> '')) AS tok,
                       unnest(range(len(list_filter(string_split(text, ' '),
                                                    x -> x <> '')))) AS i
                FROM corpus
            ),
            btk AS (
                SELECT row_number() OVER () AS bid, text FROM bench
            ),
            btok AS (
                SELECT bid,
                       unnest(list_filter(string_split(text, ' '),
                                          x -> x <> '')) AS tok,
                       unnest(range(len(list_filter(string_split(text, ' '),
                                                    x -> x <> '')))) AS i
                FROM btk
            ),
            cg AS (
                SELECT DISTINCT doc_id,
                       tok || ' ' || lead(tok, 1) OVER w || ' '
                           || lead(tok, 2) OVER w || ' '
                           || lead(tok, 3) OVER w || ' '
                           || lead(tok, 4) OVER w || ' '
                           || lead(tok, 5) OVER w || ' '
                           || lead(tok, 6) OVER w || ' '
                           || lead(tok, 7) OVER w AS gram
                FROM ctk
                WINDOW w AS (PARTITION BY doc_id ORDER BY i)
                QUALIFY lead(tok, 7) OVER w IS NOT NULL
            ),
            bg AS (
                SELECT DISTINCT
                       tok || ' ' || lead(tok, 1) OVER w || ' '
                           || lead(tok, 2) OVER w || ' '
                           || lead(tok, 3) OVER w || ' '
                           || lead(tok, 4) OVER w || ' '
                           || lead(tok, 5) OVER w || ' '
                           || lead(tok, 6) OVER w || ' '
                           || lead(tok, 7) OVER w AS gram
                FROM btok
                WINDOW w AS (PARTITION BY bid ORDER BY i)
                QUALIFY lead(tok, 7) OVER w IS NOT NULL
            ),
            tot AS (SELECT doc_id, count(*) AS tot FROM cg GROUP BY doc_id),
            hit AS (
                SELECT doc_id, count(*) AS hits
                FROM cg JOIN bg USING (gram) GROUP BY doc_id
            )
            SELECT c.doc_id,
                   round(CASE WHEN t.tot IS NULL OR t.tot = 0 THEN 0.0
                         ELSE coalesce(h.hits, 0) * 1.0 / t.tot END, 6)
                       AS bench_overlap
            FROM (SELECT DISTINCT doc_id FROM corpus) c
            LEFT JOIN tot t USING (doc_id)
            LEFT JOIN hit h USING (doc_id)
        """,
        "customer_order_counts_left": """
            SELECT c_custkey, c_name,
                   CAST(coalesce(n, 0) AS BIGINT) AS n_orders
            FROM customer
            LEFT JOIN (SELECT o_custkey, count(*) AS n FROM orders
                       GROUP BY o_custkey) o
              ON c_custkey = o_custkey
        """,
        "orders_price_percent_rank": """
            SELECT o_orderkey, o_orderpriority,
                   round(percent_rank() OVER (
                       PARTITION BY o_orderpriority
                       ORDER BY o_totalprice), 6) AS pct_rank
            FROM orders
        """,
        "docs_graph_triangles": """
            WITH mx AS (SELECT max(doc_id) AS m FROM documents),
            raw AS (
                SELECT doc_id AS s, doc_id + 1 AS d FROM documents
                UNION ALL
                SELECT doc_id, doc_id + 2 FROM documents
                WHERE doc_id % 2 = 0
                UNION ALL
                SELECT doc_id + 1, doc_id FROM documents
                WHERE doc_id % 3 = 0
                UNION ALL
                SELECT i.a, j.a
                FROM range(10) i(a) CROSS JOIN range(10) j(a)
                WHERE i.a <> j.a
            ),
            e AS (
                SELECT DISTINCT least(s, d) AS a, greatest(s, d) AS b
                FROM raw, mx
                WHERE s <= mx.m AND d <= mx.m AND s <> d
            )
            SELECT CAST(count(*) AS BIGINT) AS n_triangles
            FROM e e1
            JOIN e e2 ON e2.a = e1.b
            JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
        """,
        "docs_bpe_pair_counts": """
            WITH toks AS (
                SELECT unnest(list_filter(string_split(text, ' '),
                                          x -> len(x) > 1)) AS tok
                FROM documents
            ),
            pairs AS (
                SELECT substring(tok, CAST(i AS INT) + 1, 2) AS pair
                FROM toks, unnest(range(len(tok) - 1)) AS t(i)
            )
            SELECT pair, CAST(count(*) AS BIGINT) AS n
            FROM pairs GROUP BY pair ORDER BY n DESC, pair LIMIT 20
        """,
        "docs_weighted_sample": """
            SELECT doc_id, n_chars FROM (
                SELECT doc_id, n_chars,
                       pow((CAST('0x' ||
                                 substring(md5(CAST(doc_id AS VARCHAR)),
                                           1, 8) AS BIGINT) + 0.5)
                           / 4294967296.0, 1.0 / n_chars) AS prio
                FROM documents WHERE n_chars > 0
            ) ORDER BY prio DESC, doc_id LIMIT 50
        """,
        "q7_nation_volume": """
            SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
                   CAST(year(l_shipdate) AS BIGINT) AS l_year,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)
                       AS revenue
            FROM supplier, lineitem, orders, customer,
                 nation n1, nation n2
            WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
              AND c_custkey = o_custkey
              AND s_nationkey = n1.n_nationkey
              AND c_nationkey = n2.n_nationkey
              AND ((n1.n_name = 'NATION_3' AND n2.n_name = 'NATION_8')
                OR (n1.n_name = 'NATION_8' AND n2.n_name = 'NATION_3'))
              AND l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1999-01-01'
            GROUP BY 1, 2, 3
        """,
        "token_pmi_pairs": """
            WITH pres AS (
                SELECT DISTINCT doc_id, tok FROM (
                    SELECT doc_id,
                           unnest(list_filter(string_split(text, ' '),
                                              x -> x <> '')) AS tok
                    FROM documents
                )
                WHERE tok IN ('batch', 'hash', 'join', 'merge', 'scan',
                              'sort', 'table', 'window')
            ),
            nn AS (SELECT count(*) AS n_docs FROM documents),
            df AS (SELECT tok, count(*) AS df FROM pres GROUP BY tok),
            pairs AS (
                SELECT a.tok AS tok_a, b.tok AS tok_b,
                       count(*) AS n_pairs
                FROM pres a
                JOIN pres b ON a.doc_id = b.doc_id AND a.tok < b.tok
                GROUP BY a.tok, b.tok
            )
            SELECT p.tok_a, p.tok_b,
                   CAST(p.n_pairs AS BIGINT) AS n_pairs,
                   round(ln(nn.n_docs * p.n_pairs * 1.0
                            / (da.df * db.df)), 6) AS pmi
            FROM pairs p
            JOIN df da ON da.tok = p.tok_a
            JOIN df db ON db.tok = p.tok_b
            CROSS JOIN nn
        """,
        "events_funnel": """
            WITH v AS (
                SELECT user_id, min(ts) AS t FROM events
                WHERE event_type = 'view' GROUP BY user_id
            ),
            c AS (
                SELECT e.user_id, min(e.ts) AS t
                FROM events e JOIN v ON e.user_id = v.user_id
                WHERE e.event_type = 'click' AND e.ts >= v.t
                GROUP BY e.user_id
            ),
            p AS (
                SELECT e.user_id, min(e.ts) AS t
                FROM events e JOIN c ON e.user_id = c.user_id
                WHERE e.event_type = 'purchase' AND e.ts >= c.t
                GROUP BY e.user_id
            )
            SELECT CAST(0 AS BIGINT) AS stage_idx, 'view' AS stage,
                   CAST((SELECT count(*) FROM v) AS BIGINT) AS n_users
            UNION ALL
            SELECT 1, 'click', (SELECT count(*) FROM c)
            UNION ALL
            SELECT 2, 'purchase', (SELECT count(*) FROM p)
        """,
        "events_weekly_retention": """
            WITH act AS (
                SELECT DISTINCT user_id,
                       epoch_us(ts) // 604800000000 AS b
                FROM events
            ),
            first AS (
                SELECT user_id, min(b) AS cohort FROM act
                GROUP BY user_id
            )
            SELECT f.cohort, CAST(a.b - f.cohort AS BIGINT) AS "offset",
                   CAST(count(*) AS BIGINT) AS n_users
            FROM act a JOIN first f ON a.user_id = f.user_id
            WHERE a.b - f.cohort <= 3
            GROUP BY f.cohort, a.b - f.cohort
        """,
        "events_last_per_user": """
            SELECT user_id, event_id, ts, event_type, value
            FROM events
            QUALIFY row_number() OVER (
                PARTITION BY user_id ORDER BY ts DESC, event_id DESC) = 1
        """,
        "lineitem_price_regression": """
            SELECT l_returnflag,
                   round(regr_slope(l_extendedprice, l_quantity), 6)
                       AS slope,
                   round(regr_intercept(l_extendedprice, l_quantity), 6)
                       AS intercept,
                   round(regr_r2(l_extendedprice, l_quantity), 6) AS r2
            FROM lineitem GROUP BY l_returnflag
        """,
        "customer_pseudonymized": """
            SELECT c_custkey,
                   substr(md5('v1' || c_name), 1, 16) AS c_name,
                   c_mktsegment
            FROM customer
        """,
        "orders_fd_violations": """
            WITH dd AS (
              SELECT DISTINCT CAST(o_custkey AS VARCHAR) AS lhs,
                     o_orderpriority AS rhs
              FROM orders
            ), per AS (
              SELECT lhs, count(*) AS c FROM dd GROUP BY lhs
            )
            SELECT 'o_custkey' AS lhs, 'o_orderpriority' AS rhs,
                   count(*) AS n_keys,
                   sum(CAST(c > 1 AS BIGINT)) AS n_violating,
                   max(c) AS max_rhs_per_key,
                   CAST(sum(CAST(c > 1 AS BIGINT)) = 0 AS BIGINT)
                       AS fd_holds
            FROM per
        """,
        # Page 1954 one-sided CUSUM via the Lindley identity in SQL
        # windows: cum = running sum of the standardized-minus-slack
        # deviations, S = cum - running min(least(cum, 0))
        "events_daily_cusum": """
            WITH c AS (
              SELECT event_type, date_trunc('day', ts) AS day,
                     count(*) AS n
              FROM events GROUP BY 1, 2
            ), s AS (
              SELECT event_type, avg(n) AS mu, stddev_pop(n) AS sd
              FROM c GROUP BY 1
            ), d AS (
              SELECT c.event_type, c.day, c.n,
                     CASE WHEN s.sd > 0
                          THEN (c.n - s.mu) / s.sd - 0.5
                          ELSE 0.0 END AS dd
              FROM c JOIN s USING (event_type)
            ), w AS (
              SELECT event_type, day, n,
                     sum(dd) OVER (PARTITION BY event_type
                         ORDER BY day) AS cum
              FROM d
            ), m AS (
              SELECT event_type, day, n, cum,
                     min(least(cum, 0)) OVER (PARTITION BY event_type
                         ORDER BY day) AS mn
              FROM w
            )
            SELECT event_type, day, n,
                   round(cum - mn, 6) AS cusum,
                   CAST(cum - mn > 4.0 AS BIGINT) AS flag
            FROM m
        """,
        "events_daily_spine": """
            WITH d AS (
                SELECT unnest(generate_series(
                    date_trunc('day', (SELECT min(ts) FROM events)),
                    date_trunc('day', (SELECT max(ts) FROM events)),
                    INTERVAL 1 DAY)) AS day
            ),
            k AS (SELECT DISTINCT event_type FROM events),
            c AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       count(*) AS n
                FROM events GROUP BY 1, 2
            )
            SELECT k.event_type, d.day,
                   CAST(coalesce(c.n, 0) AS BIGINT) AS n
            FROM k CROSS JOIN d
            LEFT JOIN c ON c.event_type = k.event_type AND c.day = d.day
        """,
        "events_hopping_counts": """
            SELECT event_type,
                   make_timestamp(((epoch_us(ts) // 3600000000) - g.g)
                                  * 3600000000) AS window_start,
                   count(*) AS n
            FROM events
            CROSS JOIN (SELECT unnest(generate_series(0, 1)) AS g) g
            GROUP BY 1, 2
        """,
        "q18_large_orders": """
            SELECT c_name, o_custkey, o_orderkey, o_orderdate,
                   o_totalprice, sum_qty
            FROM (
                SELECT c_name, c_custkey AS o_custkey, o_orderkey,
                       o_orderdate, o_totalprice,
                       sum(l_quantity) AS sum_qty
                FROM customer, orders, lineitem
                WHERE o_orderkey = l_orderkey AND c_custkey = o_custkey
                GROUP BY c_name, c_custkey, o_orderkey, o_orderdate,
                         o_totalprice
                HAVING sum(l_quantity) > 250
            )
            ORDER BY o_totalprice DESC, o_orderkey
            LIMIT 100
        """,
        "q10_returned_items": """
            SELECT c_custkey, c_name,
                   round(sum(l_extendedprice * (1 - l_discount)), 2)
                       AS revenue,
                   c_acctbal, n_name
            FROM customer, orders, lineitem, nation
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND l_returnflag = 'R' AND c_nationkey = n_nationkey
            GROUP BY c_custkey, c_name, c_acctbal, n_name
            ORDER BY sum(l_extendedprice * (1 - l_discount)) DESC,
                     c_custkey
            LIMIT 20
        """,
        "orders_merged_changelog": """
            SELECT o_orderkey, o_custkey, 'X' AS o_orderstatus,
                   o_totalprice, o_orderdate, o_orderpriority
            FROM orders WHERE o_orderkey % 10 = 3
            UNION ALL
            SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice,
                   o_orderdate, o_orderpriority
            FROM orders WHERE o_orderkey % 10 NOT IN (3, 7)
        """,
        "orders_price_band_join_banded": """
            WITH bands(band, lo, hi) AS (VALUES
              ('low', 0.0, 150000.0), ('mid', 150000.0, 300000.0),
              ('high', 300000.0, 600000.0), ('all', 0.0, 600000.0))
            SELECT band, count(*) AS n,
                   round(sum(o_totalprice), 2) AS sum_price
            FROM orders JOIN bands
              ON o_totalprice >= lo AND o_totalprice < hi
            GROUP BY band
        """,
        "docs_train_val_test_split": """
            SELECT doc_id, lang,
                   CASE WHEN slot < 12 THEN 'train'
                        WHEN slot < 14 THEN 'val'
                        ELSE 'test' END AS split
            FROM (
                SELECT doc_id, lang,
                       strpos('0123456789abcdef',
                              right(md5(CAST(doc_id AS VARCHAR)), 1))
                           - 1 AS slot
                FROM documents
            )
        """,
        "docs_training_shards": """
            SELECT shard_id, count(*) AS n_docs,
                   CAST(sum(octet_length(encode(text))) AS BIGINT)
                       AS n_bytes,
                   min(key) AS min_key, max(key) AS max_key
            FROM (
                SELECT CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                            1, 8)) AS BIGINT) % 8
                           AS shard_id,
                       md5(CAST(doc_id AS VARCHAR)) AS key,
                       text
                FROM documents
            )
            GROUP BY shard_id
            ORDER BY shard_id
        """,
        "events_tumbling_counts": """
            SELECT event_type,
                   CAST(epoch_us(ts) // 300000000 AS BIGINT) AS win,
                   count(*) AS n,
                   round(sum(value), 6) AS sum_value
            FROM events
            GROUP BY event_type, win
        """,
        "docs_script_fractions": r"""
            WITH t1 AS (
              SELECT doc_id,
                     text || CASE WHEN doc_id % 3 = 0 THEN
                         ' ' || repeat('привет мир ', doc_id % 4 + 1)
                     ELSE '' END AS t
              FROM documents
            ), t2 AS (
              SELECT doc_id,
                     t || CASE WHEN doc_id % 5 = 0 THEN
                         ' ' || repeat('你好世界', length(t) // 2 + 1)
                     ELSE '' END AS t
              FROM t1
            ), t3 AS (
              SELECT doc_id,
                     t || CASE WHEN doc_id % 7 = 0
                          THEN ' مرحبا 123' ELSE '' END AS t
              FROM t2
            ), c AS (
              SELECT doc_id, length(t) AS n_chars,
                length(t) - length(regexp_replace(t, '\p{Latin}', '',
                    'g')) AS lat,
                length(t) - length(regexp_replace(t, '\p{Cyrillic}',
                    '', 'g')) AS cyr,
                length(t) - length(regexp_replace(t, '\p{Han}', '',
                    'g')) AS han,
                length(t) - length(regexp_replace(t, '\p{Arabic}', '',
                    'g')) AS ara,
                length(t) - length(regexp_replace(t, '[0-9]', '',
                    'g')) AS dig
              FROM t3
            )
            SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars,
                   round(lat / CAST(greatest(n_chars, 1) AS DOUBLE),
                         6) AS latin_frac,
                   round(cyr / CAST(greatest(n_chars, 1) AS DOUBLE),
                         6) AS cyrillic_frac,
                   round(han / CAST(greatest(n_chars, 1) AS DOUBLE),
                         6) AS han_frac,
                   round(ara / CAST(greatest(n_chars, 1) AS DOUBLE),
                         6) AS arabic_frac,
                   round(dig / CAST(greatest(n_chars, 1) AS DOUBLE),
                         6) AS digit_frac,
                   CASE WHEN greatest(lat, cyr, han, ara) = 0
                            THEN 'none'
                        WHEN lat >= cyr AND lat >= han AND lat >= ara
                            THEN 'latin'
                        WHEN cyr >= han AND cyr >= ara THEN 'cyrillic'
                        WHEN han >= ara THEN 'han'
                        ELSE 'arabic' END AS dominant_script
            FROM c
        """,
        "docs_ppl_buckets": """
            WITH tok AS (
                SELECT doc_id,
                       unnest(list_filter(string_split(text, ' '),
                                          x -> x <> '')) AS tok
                FROM documents
            ),
            c AS (SELECT tok, count(*) AS c FROM tok GROUP BY tok),
            tot AS (SELECT count(*) AS total FROM tok),
            s AS (
                SELECT tok.doc_id,
                       round(avg(log2(c.c / tot.total)), 6)
                           AS mean_logprob
                FROM tok JOIN c USING (tok) CROSS JOIN tot
                GROUP BY tok.doc_id
            ),
            t AS (
                SELECT s.doc_id, d.lang, s.mean_logprob,
                       ntile(3) OVER (PARTITION BY d.lang
                           ORDER BY s.mean_logprob, s.doc_id) AS tile
                FROM s JOIN documents d USING (doc_id)
            )
            SELECT lang, mean_logprob, doc_id,
                   CASE tile WHEN 1 THEN 'tail' WHEN 2 THEN 'middle'
                        ELSE 'head' END AS ppl_bucket
            FROM t
        """,
        "docs_unigram_logprob": """
            WITH tok AS (
                SELECT doc_id,
                       unnest(list_filter(string_split(text, ' '),
                                          x -> x <> '')) AS tok
                FROM documents
            ),
            c AS (SELECT tok, count(*) AS c FROM tok GROUP BY tok),
            tot AS (SELECT count(*) AS total FROM tok)
            SELECT tok.doc_id,
                   count(*) AS n_tokens,
                   round(avg(log2(c.c / tot.total)), 6) AS mean_logprob
            FROM tok JOIN c USING (tok) CROSS JOIN tot
            GROUP BY tok.doc_id
        """,
        "docs_dsir_weights": """
            WITH tok AS (
                SELECT doc_id, (lang = 'en') AS is_t,
                       unnest(list_filter(string_split(text, ' '),
                                          x -> x <> '')) AS tok
                FROM documents
            ),
            c AS (SELECT tok,
                         sum(CASE WHEN is_t THEN 1 ELSE 0 END) AS ct,
                         sum(CASE WHEN NOT is_t THEN 1 ELSE 0 END) AS cr
                  FROM tok GROUP BY tok),
            tot AS (SELECT sum(ct) AS nt, sum(cr) AS nr,
                           count(*) AS v FROM c)
            SELECT tok.doc_id,
                   count(*) AS n_tokens,
                   round(avg(ln((c.ct + 1) / (tot.nt + tot.v))
                           - ln((c.cr + 1) / (tot.nr + tot.v))), 6)
                       AS dsir_llr
            FROM tok JOIN c USING (tok) CROSS JOIN tot
            GROUP BY tok.doc_id
        """,
        "docs_source_kl_drift": """
            WITH tok AS (
                SELECT source,
                       unnest(list_filter(string_split(text, ' '),
                                          x -> x <> '')) AS tok
                FROM documents
            ),
            cg AS (SELECT source, tok, count(*) AS c_g FROM tok
                   GROUP BY source, tok),
            c AS (SELECT tok, count(*) AS c FROM tok GROUP BY tok),
            n AS (SELECT count(*) AS n FROM tok),
            v AS (SELECT count(*) AS v FROM c),
            ng AS (SELECT source, count(*) AS n_g FROM tok
                   GROUP BY source),
            grid AS (
                SELECT ng.source, c.c, ng.n_g,
                       coalesce(cg.c_g, 0) AS c_g
                FROM ng CROSS JOIN c
                LEFT JOIN cg ON cg.source = ng.source
                            AND cg.tok = c.tok
            )
            SELECT g.source,
                   CAST(max(g.n_g) AS BIGINT) AS n_tokens,
                   round(sum(
                       ((g.c_g + 1.0) / (g.n_g + v.v))
                       * ln(((g.c_g + 1.0) / (g.n_g + v.v))
                            / (g.c * 1.0 / n.n))), 6) AS kl
            FROM grid g CROSS JOIN v CROSS JOIN n
            GROUP BY g.source
        """,
        "docs_source_overlap_matrix": """
            WITH toks AS (
                SELECT doc_id, source,
                       list_filter(string_split(text, ' '),
                                   x -> x <> '') AS l
                FROM documents
            ),
            t AS (
                SELECT doc_id, source, unnest(l) AS tok,
                       generate_subscripts(l, 1) AS pos
                FROM toks
            ),
            g0 AS (
                SELECT source,
                       tok || ' ' || lead(tok, 1) OVER wd
                           || ' ' || lead(tok, 2) OVER wd AS gram
                FROM t
                WINDOW wd AS (PARTITION BY doc_id ORDER BY pos)
            ),
            g AS (SELECT DISTINCT source, gram FROM g0
                  WHERE gram IS NOT NULL),
            na AS (SELECT source, count(*) AS n FROM g
                   GROUP BY source),
            pairs AS (
                SELECT a.source AS sa, b.source AS sb,
                       count(*) AS nc
                FROM g a JOIN g b
                  ON a.gram = b.gram AND a.source < b.source
                GROUP BY a.source, b.source
            )
            SELECT p.sa AS src_a, p.sb AS src_b,
                   CAST(p.nc AS BIGINT) AS n_common,
                   CAST(na.n AS BIGINT) AS n_a,
                   CAST(nb.n AS BIGINT) AS n_b,
                   round(p.nc * 1.0 / (na.n + nb.n - p.nc), 6)
                       AS jaccard
            FROM pairs p
            JOIN na ON na.source = p.sa
            JOIN na nb ON nb.source = p.sb
        """,
        "docs_winnowed_fingerprints": """
            WITH toks AS (
                SELECT doc_id,
                       list_filter(string_split(text, ' '),
                                   x -> x <> '') AS l
                FROM documents
            ),
            tok AS (
                SELECT doc_id, unnest(l) AS tok,
                       generate_subscripts(l, 1) AS pos
                FROM toks
            ),
            g0 AS (
                SELECT doc_id, pos,
                       tok || ' ' || lead(tok, 1) OVER wd
                           || ' ' || lead(tok, 2) OVER wd AS gram
                FROM tok
                WINDOW wd AS (PARTITION BY doc_id ORDER BY pos)
            ),
            grams AS (
                SELECT doc_id, pos AS gpos,
                       substr(md5(gram), 1, 15) AS h
                FROM g0 WHERE gram IS NOT NULL
            ),
            ng AS (SELECT doc_id, count(*) AS n FROM grams
                   GROUP BY doc_id),
            b AS (
                SELECT g.doc_id, g.gpos, g.h, ng.n,
                       coalesce((SELECT max(q.gpos) FROM grams q
                                 WHERE q.doc_id = g.doc_id
                                   AND q.gpos < g.gpos
                                   AND q.h < g.h), 0) AS lb,
                       coalesce((SELECT min(q.gpos) FROM grams q
                                 WHERE q.doc_id = g.doc_id
                                   AND q.gpos > g.gpos
                                   AND q.h <= g.h), ng.n + 1) AS rb
                FROM grams g JOIN ng USING (doc_id)
            )
            SELECT doc_id, CAST(gpos AS BIGINT) AS gpos, h AS fp
            FROM b WHERE rb - lb - 1 >= least(4, n)
        """,
        "docs_nb_lang_predict": """
            WITH tok AS (
                SELECT doc_id, lang, (doc_id % 2 = 0) AS is_train,
                       unnest(list_filter(string_split(text, ' '),
                                          x -> x <> '')) AS tok
                FROM documents
            ),
            tr AS (SELECT lang, tok, count(*) AS c FROM tok
                   WHERE is_train GROUP BY lang, tok),
            vocab AS (SELECT DISTINCT tok FROM tok WHERE is_train),
            v AS (SELECT count(*) AS v FROM vocab),
            nl AS (SELECT lang, count(*) AS n_l FROM tok
                   WHERE is_train GROUP BY lang),
            pri AS (SELECT lang, count(*) AS d_l FROM documents
                    WHERE doc_id % 2 = 0 GROUP BY lang),
            ptot AS (SELECT count(*) AS nd FROM documents
                     WHERE doc_id % 2 = 0),
            tf AS (SELECT doc_id, min(lang) AS true_lang, tok,
                          count(*) AS tf
                   FROM tok WHERE NOT is_train GROUP BY doc_id, tok),
            known AS (SELECT tf.* FROM tf JOIN vocab USING (tok)),
            nk AS (SELECT doc_id, min(true_lang) AS true_lang,
                          sum(tf) AS n_known
                   FROM known GROUP BY doc_id),
            s AS (SELECT k.doc_id, l.lang,
                         sum(k.tf * ln(coalesce(tr.c, 0) + 1.0)) AS s
                  FROM known k CROSS JOIN (SELECT lang FROM nl) l
                  LEFT JOIN tr ON tr.lang = l.lang AND tr.tok = k.tok
                  GROUP BY k.doc_id, l.lang),
            sc AS (SELECT s.doc_id, s.lang,
                          ln(pri.d_l * 1.0 / ptot.nd) + s.s
                          - nk.n_known * ln(nl.n_l + v.v) AS score
                   FROM s JOIN nl USING (lang) JOIN pri USING (lang)
                   JOIN nk ON nk.doc_id = s.doc_id
                   CROSS JOIN ptot CROSS JOIN v)
            SELECT sc.doc_id, nk.true_lang, sc.lang AS pred_lang,
                   CAST(nk.n_known AS BIGINT) AS n_known
            FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY doc_id
                    ORDER BY score DESC, lang) AS rn
                FROM sc
            ) sc JOIN nk ON nk.doc_id = sc.doc_id
            WHERE sc.rn = 1
        """,
        "docs_phrase_matches": """
            WITH tok AS (
                SELECT doc_id,
                       unnest(string_split(text, ' ')) AS tok,
                       generate_subscripts(string_split(text, ' '), 1)
                           AS pos
                FROM documents
            )
            SELECT t0.doc_id, CAST(t0.pos AS BIGINT) AS pos
            FROM tok t0
            JOIN tok t1 ON t1.doc_id = t0.doc_id
                       AND t1.pos = t0.pos + 1
            WHERE t0.tok = 'the' AND t1.tok = 'group'
        """,
        "docs_global_shuffle": """
            SELECT doc_id,
                   row_number() OVER (
                     ORDER BY md5('42:' || CAST(doc_id AS VARCHAR)),
                              doc_id) - 1 AS shuffle_pos
            FROM documents
        """,
        "docs_tfidf_top_terms": """
            WITH tok AS (
                SELECT doc_id,
                       unnest(list_filter(string_split(text, ' '),
                                          x -> x <> '')) AS tok
                FROM documents
            ),
            tf AS (SELECT doc_id, tok, count(*) AS tf FROM tok
                   GROUP BY doc_id, tok),
            df AS (SELECT tok, count(*) AS df FROM tf GROUP BY tok),
            n AS (SELECT count(*) AS n_docs FROM documents),
            sc AS (
                SELECT tf.doc_id, tf.tok, tf.tf,
                       round(tf.tf * (ln((1.0 + n.n_docs)
                                         / (1.0 + df.df)) + 1.0),
                             6) AS score
                FROM tf JOIN df USING (tok) CROSS JOIN n
            )
            SELECT doc_id, tok, tf, score
            FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY doc_id
                    ORDER BY score DESC, tok) AS rn
                FROM sc
            )
            WHERE rn <= 3
        """,
        "q14_promo_revenue": """
            SELECT round(
                100.0 * sum(CASE WHEN p_type = 'PROMO'
                            THEN l_extendedprice * (1 - l_discount)
                            ELSE 0 END)
                / sum(l_extendedprice * (1 - l_discount)), 6)
                AS promo_revenue
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE l_shipdate >= DATE '1996-03-01'
              AND l_shipdate < DATE '1996-04-01'
        """,
        "q19_disjunctive_revenue": """
            SELECT round(sum(l_extendedprice * (1 - l_discount)), 2)
                AS revenue
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
                   AND l_quantity BETWEEN 1 AND 11)
               OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
                   AND l_quantity BETWEEN 10 AND 20)
               OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
                   AND l_quantity BETWEEN 20 AND 30)
        """,
        "q16_supplier_part_counts": """
            SELECT p_brand, p_type, p_size,
                   count(DISTINCT l_suppkey) AS supplier_cnt
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE p_brand <> 'Brand#45'
              AND l_suppkey NOT IN (
                  SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
            GROUP BY p_brand, p_type, p_size
        """,
        "customer_name_fuzzy_pairs": """
            WITH d AS (SELECT DISTINCT c_name FROM customer)
            SELECT a.c_name AS name_a, b.c_name AS name_b
            FROM d a JOIN d b
              ON a.c_name < b.c_name
             AND levenshtein(a.c_name, b.c_name) <= 1
        """,
        "q4_order_priority": """
            SELECT o_orderpriority, count(*) AS order_count
            FROM orders
            WHERE o_orderdate >= DATE '1996-01-01'
              AND o_orderdate < DATE '1996-04-01'
              AND EXISTS (
                  SELECT 1 FROM lineitem
                  WHERE l_orderkey = o_orderkey
                    AND l_shipdate > o_orderdate + INTERVAL 60 DAY)
            GROUP BY o_orderpriority
        """,
        "q6_forecast_revenue": """
            SELECT round(sum(l_extendedprice * l_discount), 2)
                AS revenue
            FROM lineitem
            WHERE l_shipdate >= DATE '1996-01-01'
              AND l_shipdate < DATE '1997-01-01'
              AND l_discount BETWEEN 0.05 AND 0.07
              AND l_quantity < 24
        """,
        "q11_important_parts": """
            WITH v AS (
                SELECT l_partkey, sum(l_quantity) AS value
                FROM lineitem GROUP BY l_partkey)
            SELECT l_partkey, value FROM v
            WHERE value > 0.0005 * (SELECT sum(value) FROM v)
        """,
        "q12_priority_by_returnflag": """
            SELECT l_returnflag,
                   count(*) FILTER (WHERE o_orderpriority IN
                       ('1-URGENT', '2-HIGH')) AS high_line_count,
                   count(*) FILTER (WHERE o_orderpriority NOT IN
                       ('1-URGENT', '2-HIGH')) AS low_line_count
            FROM orders JOIN lineitem ON o_orderkey = l_orderkey
            WHERE l_shipdate >= DATE '1996-01-01'
              AND l_shipdate < DATE '1997-01-01'
            GROUP BY l_returnflag
        """,
        "q13_customer_distribution": """
            SELECT c_count, count(*) AS custdist
            FROM (
                SELECT c_custkey, count(o_custkey) AS c_count
                FROM customer LEFT JOIN orders
                  ON c_custkey = o_custkey
                 AND o_orderpriority <> '1-URGENT'
                GROUP BY c_custkey) t
            GROUP BY c_count
        """,
        "lineitem_unpivot_measures": """
            SELECT l_orderkey, l_linenumber,
                   'l_quantity' AS variable, l_quantity AS value
            FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber,
                   'l_extendedprice', l_extendedprice FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'l_tax', l_tax
            FROM lineitem
        """,
        "events_next_event_type": """
            SELECT event_id, user_id, ts, event_type,
                   lead(event_type) OVER (
                       PARTITION BY user_id
                       ORDER BY ts, event_id) AS next_type
            FROM events
        """,
        "orders_price_dense_rank": """
            SELECT o_orderkey, o_orderpriority, o_totalprice,
                   dense_rank() OVER (
                       PARTITION BY o_orderpriority
                       ORDER BY o_totalprice) AS price_rank
            FROM orders
        """,
        "orders_price_rank": """
            SELECT o_orderkey, o_orderpriority, o_totalprice,
                   rank() OVER (
                       PARTITION BY o_orderpriority
                       ORDER BY o_totalprice) AS price_rank
            FROM orders
        """,
        "orders_price_cume_dist": """
            SELECT o_orderkey, o_orderpriority, o_totalprice,
                   round(cume_dist() OVER (
                       PARTITION BY o_orderpriority
                       ORDER BY o_totalprice), 6) AS cd
            FROM orders
        """,
        "events_first_last_value": """
            SELECT user_id,
                   first(value ORDER BY ts, event_id) AS first_val,
                   last(value ORDER BY ts, event_id) AS last_val
            FROM events
            GROUP BY user_id
        """,
        "q8_market_share": """
            WITH asia_n AS (
                SELECT n_nationkey, n_name
                FROM nation JOIN region ON n_regionkey = r_regionkey
                WHERE r_name = 'ASIA'),
            vol AS (
                SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
                       l_extendedprice * (1 - l_discount) AS volume,
                       sn.n_name AS supp_nation
                FROM lineitem
                JOIN orders ON l_orderkey = o_orderkey
                JOIN part ON p_partkey = l_partkey
                JOIN customer ON o_custkey = c_custkey
                JOIN asia_n cn ON c_nationkey = cn.n_nationkey
                JOIN (SELECT s_suppkey, n_name FROM supplier
                      JOIN nation ON s_nationkey = n_nationkey) sn
                  ON l_suppkey = sn.s_suppkey
                WHERE p_type = 'PROMO'
                  AND o_orderdate >= DATE '1995-01-01'
                  AND o_orderdate < DATE '1997-01-01')
            SELECT o_year,
                   round(sum(CASE WHEN supp_nation =
                                  (SELECT min(n_name) FROM asia_n)
                             THEN volume ELSE 0 END) / sum(volume),
                         6) AS mkt_share
            FROM vol GROUP BY o_year
        """,
        "q9_product_profit": """
            SELECT n_name AS nation,
                   CAST(year(o_orderdate) AS BIGINT) AS o_year,
                   round(sum(l_extendedprice * (1 - l_discount)
                             - 0.5 * p_retailprice * l_quantity),
                         2) AS sum_profit
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN part ON p_partkey = l_partkey
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE p_name LIKE '%widget%'
            GROUP BY 1, 2
        """,
        "q20_part_promotion": """
            SELECT s_suppkey, s_name
            FROM supplier
            JOIN nation ON s_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            WHERE r_name = 'ASIA' AND s_suppkey IN (
                SELECT l_suppkey
                FROM lineitem JOIN part ON p_partkey = l_partkey
                WHERE p_name LIKE 'large%'
                  AND l_shipdate >= DATE '1996-01-01'
                  AND l_shipdate < DATE '1997-01-01'
                GROUP BY l_partkey, l_suppkey
                HAVING sum(l_quantity) > 40)
        """,
        "events_type_entropy_by_user": """
            SELECT user_id, round(-sum(p * log2(p)), 6) AS entropy
            FROM (
                SELECT user_id,
                       count(*) * 1.0 / sum(count(*)) OVER (
                           PARTITION BY user_id) AS p
                FROM events GROUP BY user_id, event_type)
            GROUP BY user_id
        """,
        "events_users_both_halves": """
            SELECT user_id FROM events
            WHERE ts < TIMESTAMP '2024-01-16'
            INTERSECT
            SELECT user_id FROM events
            WHERE ts >= TIMESTAMP '2024-01-16'
        """,
        "discontinued_part_suppliers": """
            SELECT l_partkey, l_suppkey FROM lineitem
            WHERE l_shipdate < DATE '1997-01-01'
            EXCEPT
            SELECT l_partkey, l_suppkey FROM lineitem
            WHERE l_shipdate >= DATE '1997-01-01'
        """,
        # exact counts: at 5 probes vs width 4096 the CMS estimate is
        # deterministically exact unless two values collide in all 4
        # rows — (1/4096)^4; the oracle is a hard mechanics check
        "events_type_freq_cms": """
            SELECT event_type AS value, count(*) AS est
            FROM events GROUP BY event_type
        """,
        "lineitem_price_geomean": """
            SELECT l_returnflag,
                   round(exp(avg(ln(l_extendedprice))), 4) AS geomean
            FROM lineitem GROUP BY l_returnflag
        """,
        "orders_custkey_skew_profile": """
            WITH c AS (SELECT count(*) AS n FROM orders
                       GROUP BY o_custkey)
            SELECT count(*) AS n_keys, max(n) AS max_n,
                   CAST(quantile_disc(n, 0.5) AS BIGINT) AS p50_n
            FROM c
        """,
        "lineitem_numeric_profile": """
            SELECT 'l_quantity' AS column, count(*) AS n_rows,
                   count(*) - count(l_quantity) AS n_nulls,
                   CAST(min(l_quantity) AS DOUBLE) AS min,
                   CAST(max(l_quantity) AS DOUBLE) AS max,
                   round(sum(l_quantity), 2) AS total
            FROM lineitem
            UNION ALL
            SELECT 'l_extendedprice', count(*),
                   count(*) - count(l_extendedprice),
                   min(l_extendedprice), max(l_extendedprice),
                   round(sum(l_extendedprice), 2) FROM lineitem
            UNION ALL
            SELECT 'l_discount', count(*),
                   count(*) - count(l_discount),
                   min(l_discount), max(l_discount),
                   round(sum(l_discount), 2) FROM lineitem
            UNION ALL
            SELECT 'l_tax', count(*), count(*) - count(l_tax),
                   min(l_tax), max(l_tax), round(sum(l_tax), 2)
            FROM lineitem
        """,
        "events_props_k_sum": """
            SELECT event_type,
                   CAST(sum(CAST(json_extract_string(props, '$.k')
                                 AS BIGINT)) AS BIGINT) AS k_sum
            FROM events GROUP BY event_type
        """,
        "events_window_unique_users": """
            SELECT (epoch_us(ts) // 21600000000) * 21600000000
                       AS window_us,
                   count(DISTINCT user_id) AS unique_users
            FROM events GROUP BY 1
        """,
        "lineitem_qty_mad_by_flag": """
            SELECT l_returnflag, round(mad(l_quantity), 6) AS mad
            FROM lineitem GROUP BY l_returnflag
        """,
        "events_type_transitions": """
            SELECT event_type, next_type, count(*) AS n FROM (
                SELECT event_type, lead(event_type) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id
                ) AS next_type FROM events)
            WHERE next_type IS NOT NULL
            GROUP BY event_type, next_type
        """,
        "top2_parts_per_brand_by_revenue": """
            SELECT p_brand, l_partkey, revenue_cents FROM (
                SELECT p_brand, l_partkey,
                       CAST(sum(CAST(round(l_extendedprice
                                * (1 - l_discount) * 100) AS BIGINT))
                            AS BIGINT) AS revenue_cents,
                       row_number() OVER (
                           PARTITION BY p_brand
                           ORDER BY sum(CAST(round(l_extendedprice
                                * (1 - l_discount) * 100) AS BIGINT))
                                    DESC, l_partkey) AS rn
                FROM lineitem JOIN part ON p_partkey = l_partkey
                GROUP BY p_brand, l_partkey)
            WHERE rn <= 2
        """,
        "events_user_running_max": """
            SELECT event_id, user_id, ts, value,
                   max(value) OVER (
                       PARTITION BY user_id
                       ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) AS running_max
            FROM events
        """,
        "docs_normalized_text": r"""
            SELECT doc_id,
                   lower(trim(regexp_replace(text, '\s+', ' ', 'g')))
                       AS norm_text
            FROM documents
        """,
        "docs_bigram_logprob": """
            WITH toks AS (
                SELECT doc_id,
                       list_filter(string_split(text, ' '),
                                   x -> x <> '') AS l
                FROM documents
            ), bg AS (
                SELECT doc_id,
                       unnest(l[1:len(l) - 1]) AS a,
                       unnest(l[2:len(l)]) AS b
                FROM toks WHERE len(l) >= 2
            ),
            cab AS (SELECT a, b, count(*) AS cab FROM bg GROUP BY a, b),
            ca AS (SELECT a, count(*) AS ca FROM bg GROUP BY a)
            SELECT doc_id, count(*) AS n_bigrams,
                   round(avg(log2(cab * 1.0 / ca)), 6) AS mean_logprob
            FROM bg JOIN cab USING (a, b) JOIN ca USING (a)
            GROUP BY doc_id
        """,
        "docs_extracted_s_words": r"""
            SELECT doc_id,
                   unnest(regexp_extract_all(text, '\bs\w+')) AS match,
                   unnest(range(1, len(regexp_extract_all(text, '\bs\w+'))
                                + 1)) AS match_idx
            FROM documents
        """,
        "docs_exact_dedup_keep_best": r"""
            SELECT doc_id, text FROM (
                SELECT doc_id, text, row_number() OVER (
                    PARTITION BY md5(coalesce(array_to_string(list_filter(
                        regexp_split_to_array(text, '\s+'),
                        x -> x <> ''), ' '), ''))
                    ORDER BY n_chars DESC, doc_id) AS rn
                FROM documents)
            WHERE rn = 1
        """,
        "q2_min_cost_supplier": """
            WITH cost AS (
                SELECT l_partkey, l_suppkey,
                       min(l_extendedprice / l_quantity) AS unit_cost
                FROM lineitem
                WHERE l_partkey IN (SELECT p_partkey FROM part
                                    WHERE p_size <= 5)
                GROUP BY l_partkey, l_suppkey),
            best AS (
                SELECT *, row_number() OVER (
                    PARTITION BY l_partkey
                    ORDER BY unit_cost, l_suppkey) AS rn
                FROM cost)
            SELECT p_partkey, p_name, s_name, unit_cost
            FROM best
            JOIN part ON p_partkey = l_partkey
            JOIN supplier ON s_suppkey = l_suppkey
            WHERE rn = 1
        """,
        "q17_small_quantity_revenue": """
            SELECT round(sum(l_extendedprice) / 7.0, 2) AS avg_yearly
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE p_brand = 'Brand#23'
              AND l_quantity < (
                  SELECT 0.2 * avg(l2.l_quantity) FROM lineitem l2
                  WHERE l2.l_partkey = p_partkey)
        """,
        "q21_waiting_suppliers": """
            SELECT s_name, count(DISTINCT l1.l_orderkey) AS numwait
            FROM lineitem l1
            JOIN orders ON o_orderkey = l1.l_orderkey
            JOIN supplier ON s_suppkey = l1.l_suppkey
            WHERE o_orderstatus = 'F'
              AND l1.l_shipdate > o_orderdate + INTERVAL 60 DAY
              AND EXISTS (
                  SELECT 1 FROM lineitem l2
                  WHERE l2.l_orderkey = l1.l_orderkey
                    AND l2.l_suppkey <> l1.l_suppkey)
              AND NOT EXISTS (
                  SELECT 1 FROM lineitem l3
                  WHERE l3.l_orderkey = l1.l_orderkey
                    AND l3.l_suppkey <> l1.l_suppkey
                    AND l3.l_shipdate > o_orderdate + INTERVAL 60 DAY)
            GROUP BY s_name
        """,
        "q22_idle_rich_customers": """
            SELECT c_custkey % 10 AS cntry, count(*) AS numcust,
                   round(sum(c_acctbal), 2) AS totacctbal
            FROM customer
            WHERE c_acctbal > (SELECT avg(c_acctbal) FROM customer
                               WHERE c_acctbal > 0.0)
              AND NOT EXISTS (
                  SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderpriority = '1-URGENT')
            GROUP BY cntry
        """,
        "q15_top_supplier": """
            WITH revenue AS (
                SELECT l_suppkey,
                       round(sum(l_extendedprice * (1 - l_discount)), 2)
                           AS total_revenue
                FROM lineitem
                WHERE l_shipdate >= DATE '1996-01-01'
                  AND l_shipdate < DATE '1996-04-01'
                GROUP BY l_suppkey)
            SELECT s_suppkey, s_name, total_revenue
            FROM supplier JOIN revenue ON s_suppkey = l_suppkey
            WHERE total_revenue = (SELECT max(total_revenue)
                                   FROM revenue)
        """,
    }
    # Cohen's kappa over the docs_filter_agreement census: int sums,
    # then the identical DOUBLE expression chain the Ray fold runs
    d["docs_filter_kappa"] = (
        "WITH cen AS (" + d["docs_filter_agreement"] + """),
        x AS (
          SELECT SUM(n) AS n,
            SUM(CASE WHEN gopher_keep = 1 AND quality_keep = 1
                     THEN n ELSE 0 END) AS a,
            SUM(CASE WHEN gopher_keep = 0 AND quality_keep = 0
                     THEN n ELSE 0 END) AS d,
            SUM(CASE WHEN gopher_keep = 1 THEN n ELSE 0 END) AS g1,
            SUM(CASE WHEN quality_keep = 1 THEN n ELSE 0 END) AS q1
          FROM cen
        )
        SELECT CAST(n AS BIGINT) AS n_docs,
          round(CAST(a + d AS DOUBLE) / n, 6) AS po,
          round(CAST(g1*q1 + (n-g1)*(n-q1) AS DOUBLE) / (n*n), 6)
              AS pe,
          round((CAST(a + d AS DOUBLE) / n
                 - CAST(g1*q1 + (n-g1)*(n-q1) AS DOUBLE) / (n*n))
                / (1.0 - CAST(g1*q1 + (n-g1)*(n-q1) AS DOUBLE)
                         / (n*n)), 6) AS kappa
        FROM x
    """)
    d["docs_quality_filtered"] = (
        "WITH qq AS (" + d["quality_scores"] + ") "
        "SELECT doc_id, quality FROM qq WHERE quality >= "
        "(SELECT quantile_disc(quality, 0.25) FROM qq)"
    )
    d["docs_domain_quality_filter"] = (
        "WITH qq AS (" + d["quality_scores"] + "), "
        "dq AS (SELECT d.source, round(avg(qq.quality), 6) AS domain_quality "
        "       FROM qq JOIN documents d USING (doc_id) GROUP BY d.source), "
        "thr AS (SELECT quantile_disc(domain_quality, 0.25) AS t FROM dq) "
        "SELECT d.doc_id, d.source, dq.domain_quality "
        "FROM documents d JOIN dq USING (source) CROSS JOIN thr "
        "WHERE dq.domain_quality >= thr.t"
    )
    # repaired text is the FIXED POINT of corrupt∘repair: doc_id%3==0
    # rows were accent-injected then UTF-8→latin-1 corrupted by the Ray
    # side, so the repaired output must equal the injected text and the
    # marker count equals one per injected character (docs are ASCII —
    # verified: the injected 'é'/'ä' are the only multi-byte chars).
    d["docs_mojibake_fixed"] = (
        "SELECT doc_id, "
        "CASE WHEN doc_id % 3 = 0 "
        "     THEN replace(replace(text, 'e', 'é'), 'a', 'ä') "
        "     ELSE text END AS text, "
        "CASE WHEN doc_id % 3 = 0 "
        "     THEN (length(text) - length(replace(text, 'e', ''))) "
        "        + (length(text) - length(replace(text, 'a', ''))) "
        "     ELSE 0 END AS n_mojibake, "
        "doc_id % 3 = 0 AND "
        "(length(text) - length(replace(text, 'e', ''))) "
        " + (length(text) - length(replace(text, 'a', ''))) > 0 AS fixed "
        "FROM documents"
    )
    # one UNION ALL branch per declared rule; violation_frac uses the
    # same half-up rounding as the engine's floor(v*1e6+0.5)/1e6.
    _vr = ("SELECT '{col}' AS col, '{check}' AS \"check\", "
           "count(*) AS n_rows, {viol} AS n_violations, "
           "round(({viol}) / count(*)::DOUBLE, 6) AS violation_frac "
           "FROM orders")
    d["orders_validation_report"] = " UNION ALL ".join([
        _vr.format(col="o_orderstatus", check="not_null",
                   viol="count(*) - count(o_orderstatus)"),
        _vr.format(col="o_totalprice", check="range",
                   viol="count(*) - count(CASE WHEN o_totalprice "
                        "BETWEEN 1000.0 AND 300000.0 THEN 1 END)"),
        _vr.format(col="o_orderpriority", check="regex",
                   viol="count(*) - count(CASE WHEN "
                        "regexp_matches(o_orderpriority, '^[1-3]-') "
                        "THEN 1 END)"),
        _vr.format(col="o_orderstatus", check="in_set",
                   viol="count(*) - count(CASE WHEN o_orderstatus "
                        "IN ('O', 'F') THEN 1 END)"),
        _vr.format(col="o_custkey", check="unique",
                   viol="count(*) - count(DISTINCT o_custkey)"),
        _vr.format(col="o_orderkey", check="unique",
                   viol="count(*) - count(DISTINCT o_orderkey)"),
    ])

    _zk = _zexpr(["ck", "tp_bin"], 8)
    d["orders_zorder_layout"] = (
        "SELECT o_orderkey, " + _zk + " AS zkey, "
        "(" + _zk + ") >> 12 AS zbucket "
        "FROM (SELECT o_orderkey, o_custkey AS ck, "
        "      CAST(floor(o_totalprice / 2048.0) AS BIGINT) AS tp_bin "
        "      FROM orders)"
    )
    d["docs_token_budget_head"] = (
        "WITH q AS (" + d["quality_scores"] + "), "
        "t AS (" + d["ws_token_counts"] + "), "
        "o AS (SELECT q.doc_id, q.quality, t.ws_tokens, "
        "        sum(t.ws_tokens) OVER (ORDER BY q.quality DESC, "
        "                               q.doc_id) AS cum "
        "      FROM q JOIN t USING (doc_id)) "
        "SELECT doc_id, quality, ws_tokens::DOUBLE AS ws_tokens, "
        "       cum::DOUBLE AS cum_tokens "
        "FROM o WHERE cum <= 10000"
    )
    d["docs_from_orc_roundtrip"] = (
        "SELECT doc_id, text, lang, source FROM documents"
    )
    d["docs_from_avro_roundtrip"] = (
        "SELECT doc_id, text, lang, source FROM documents"
    )
    d["docs_from_sqlite_roundtrip"] = (
        "SELECT doc_id, text, lang FROM documents"
    )
    d["docs_lang_confusion"] = (
        "WITH det AS (" + d["language_id"] + ") "
        "SELECT d.lang AS declared, det.detected_lang AS detected, "
        "       count(*) AS n "
        "FROM documents d JOIN det USING (doc_id) "
        "GROUP BY d.lang, det.detected_lang"
    )
    # per-class P/R/F1 over the docs_lang_confusion census: fixed
    # expressions over int counts, NULL on zero denominators
    d["docs_lang_f1"] = (
        "WITH cen AS (" + d["docs_lang_confusion"] + """),
        lab AS (SELECT DISTINCT declared AS label FROM cen
                UNION SELECT DISTINCT detected FROM cen),
        m AS (
          SELECT l.label,
            COALESCE((SELECT SUM(n) FROM cen
                      WHERE declared = l.label
                        AND detected = l.label), 0) AS tp,
            COALESCE((SELECT SUM(n) FROM cen
                      WHERE detected = l.label), 0) AS pred_n,
            COALESCE((SELECT SUM(n) FROM cen
                      WHERE declared = l.label), 0) AS true_n
          FROM lab l
        )
        SELECT label, CAST(tp AS BIGINT) AS tp,
          CAST(pred_n AS BIGINT) AS pred_n,
          CAST(true_n AS BIGINT) AS true_n,
          round(CASE WHEN pred_n > 0
                THEN CAST(tp AS DOUBLE) / pred_n END, 6)
              AS "precision",
          round(CASE WHEN true_n > 0
                THEN CAST(tp AS DOUBLE) / true_n END, 6) AS recall,
          round(CASE WHEN tp > 0 AND pred_n > 0 AND true_n > 0 THEN
              2 * (CAST(tp AS DOUBLE) / pred_n)
                * (CAST(tp AS DOUBLE) / true_n)
              / (CAST(tp AS DOUBLE) / pred_n
                 + CAST(tp AS DOUBLE) / true_n) END, 6) AS f1
        FROM m ORDER BY label
    """)
    d["docs_hive_partition_pruned"] = (
        "SELECT doc_id, text, lang FROM documents WHERE lang = 'en'"
    )
    d["docs_sample_ks_audit"] = (
        "WITH t AS (" + d["ws_token_counts"] + "), "
        "f AS (SELECT ws_tokens AS v, "
        "       right(md5(CAST(doc_id AS VARCHAR)), 1) = '0' AS s "
        "      FROM t), "
        "h AS (SELECT v, count(CASE WHEN s THEN 1 END) AS ma, "
        "             count(CASE WHEN NOT s THEN 1 END) AS mb "
        "      FROM f GROUP BY v), "
        "c AS (SELECT v, "
        "   sum(ma) OVER (ORDER BY v) "
        "     / (SELECT sum(ma) FROM h)::DOUBLE AS fa, "
        "   sum(mb) OVER (ORDER BY v) "
        "     / (SELECT sum(mb) FROM h)::DOUBLE AS fb "
        "      FROM h) "
        "SELECT round(max(abs(fa - fb)), 6) AS ks, "
        "       (SELECT sum(ma) FROM h) AS n_sample, "
        "       (SELECT sum(mb) FROM h) AS n_rest "
        "FROM c"
    )
    d["orders_price_deciles"] = " UNION ALL ".join(
        f"SELECT {q} AS q, quantile_disc(o_totalprice, {q}) AS value "
        "FROM orders"
        for q in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    )
    _an = ("SELECT '{c}' AS col, count(*) AS n_rows, "
           "count(*) - count({c}) AS n_nulls, "
           "count(DISTINCT {c}) AS n_distinct, "
           "min({c})::DOUBLE AS min_val, max({c})::DOUBLE AS max_val "
           "FROM orders")
    d["orders_analyze"] = " UNION ALL ".join(
        _an.format(c=c)
        for c in ("o_custkey", "o_orderkey", "o_totalprice"))
    d["docs_rendezvous_resharding"] = """
        WITH s8 AS (SELECT unnest(generate_series(0, 7)) AS s),
        s9 AS (SELECT unnest(generate_series(0, 8)) AS s),
        a8 AS (SELECT doc_id, arg_max(s,
                   md5(CAST(doc_id AS VARCHAR) || ':'
                       || CAST(s AS VARCHAR))) AS sh
               FROM documents CROSS JOIN s8 GROUP BY doc_id),
        a9 AS (SELECT doc_id, arg_max(s,
                   md5(CAST(doc_id AS VARCHAR) || ':'
                       || CAST(s AS VARCHAR))) AS sh
               FROM documents CROSS JOIN s9 GROUP BY doc_id),
        m AS (SELECT d.doc_id,
                     a8.sh <> a9.sh AS mh,
                     d.doc_id % 8 <> d.doc_id % 9 AS mm
              FROM documents d
              JOIN a8 USING (doc_id) JOIN a9 USING (doc_id))
        SELECT count(*) AS n_docs,
               count(CASE WHEN mh THEN 1 END) AS moved_hrw,
               count(CASE WHEN mm THEN 1 END) AS moved_mod,
               round(count(CASE WHEN mh THEN 1 END)
                     / count(*)::DOUBLE, 6) AS hrw_frac,
               round(count(CASE WHEN mm THEN 1 END)
                     / count(*)::DOUBLE, 6) AS mod_frac
        FROM m
    """
    d["docs_lang_sample_ks"] = (
        "WITH t AS (" + d["ws_token_counts"] + "), "
        "f AS (SELECT d.lang, t.ws_tokens AS v, "
        "       right(md5(CAST(t.doc_id AS VARCHAR)), 1) = '0' AS s "
        "      FROM t JOIN documents d USING (doc_id)), "
        "h AS (SELECT lang, v, "
        "             count(CASE WHEN s THEN 1 END) AS ma, "
        "             count(CASE WHEN NOT s THEN 1 END) AS mb "
        "      FROM f GROUP BY 1, 2), "
        "tot AS (SELECT lang, sum(ma) AS ta, sum(mb) AS tb "
        "        FROM h GROUP BY 1), "
        "c AS (SELECT h.lang, "
        "   sum(ma) OVER (PARTITION BY h.lang ORDER BY v) "
        "     / ta::DOUBLE AS fa, "
        "   sum(mb) OVER (PARTITION BY h.lang ORDER BY v) "
        "     / tb::DOUBLE AS fb "
        "      FROM h JOIN tot USING (lang)) "
        "SELECT c.lang, round(max(abs(fa - fb)), 6) AS ks, "
        "       any_value(ta)::BIGINT AS n_sample, "
        "       any_value(tb)::BIGINT AS n_rest "
        "FROM c JOIN tot ON tot.lang = c.lang GROUP BY c.lang"
    )
    d["events_type_transition_probs"] = (
        "WITH c AS (" + d["events_type_transitions"] + ") "
        "SELECT event_type, next_type, n, "
        "round(n / (sum(n) OVER (PARTITION BY event_type))::DOUBLE, 6) "
        "  AS p "
        "FROM c"
    )
    d["docs_dup_rate_by_source"] = """
        SELECT source, count(*) AS n_rows,
               count(DISTINCT text) AS n_distinct,
               round(1.0 - count(DISTINCT text)
                     / count(*)::DOUBLE, 6) AS dup_rate
        FROM documents GROUP BY source
    """
    d["docs_common_lines"] = r"""
        WITH pairs AS (
            SELECT DISTINCT doc_id, l AS line FROM (
                SELECT doc_id, unnest(string_split(text, chr(10))) AS l
                FROM documents)
            WHERE l <> ''
        )
        SELECT line, count(*) AS n_docs
        FROM pairs GROUP BY line
        ORDER BY n_docs DESC, line
        LIMIT 20
    """
    d["lineitem_fk_coverage"] = """
        WITH p AS (SELECT DISTINCT o_orderkey FROM orders
                   WHERE o_orderkey % 7 <> 0),
        c AS (SELECT l_orderkey, count(*) AS nrows
              FROM lineitem GROUP BY 1),
        j AS (SELECT c.nrows, p.o_orderkey IS NOT NULL AS m
              FROM c LEFT JOIN p ON p.o_orderkey = c.l_orderkey)
        SELECT sum(nrows)::BIGINT AS n_child_rows,
               count(*) AS n_child_keys,
               count(CASE WHEN m THEN 1 END) AS n_matched_keys,
               sum(CASE WHEN NOT m THEN nrows ELSE 0 END)::BIGINT
                 AS n_orphan_rows,
               round((sum(nrows) - sum(CASE WHEN NOT m THEN nrows
                                            ELSE 0 END))
                     / sum(nrows)::DOUBLE, 6) AS row_coverage,
               round(count(CASE WHEN m THEN 1 END)
                     / count(*)::DOUBLE, 6) AS key_coverage
        FROM j
    """
    d["events_daily_locf"] = """
        WITH d AS (
            SELECT unnest(generate_series(
                date_trunc('day', (SELECT min(ts) FROM events)),
                date_trunc('day', (SELECT max(ts) FROM events)),
                INTERVAL 1 DAY)) AS day
        ),
        k AS (SELECT DISTINCT event_type FROM events),
        m AS (
            SELECT event_type, date_trunc('day', ts) AS day,
                   round(sum(value) / count(*), 6) AS mean_val
            FROM events GROUP BY 1, 2
        )
        SELECT k.event_type, d.day,
               last_value(m.mean_val IGNORE NULLS) OVER (
                   PARTITION BY k.event_type ORDER BY d.day
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
               ) AS filled_val
        FROM k CROSS JOIN d
        LEFT JOIN m ON m.event_type = k.event_type AND m.day = d.day
    """
    d["orders_range_partition_hist"] = (
        "WITH b AS (" + d["orders_price_deciles"] + ") "
        "SELECT (SELECT count(*) FROM b "
        "        WHERE b.value <= o.o_totalprice) AS bucket, "
        "       count(*) AS n_rows "
        "FROM orders o GROUP BY 1"
    )
    d["orders_custkey_gini"] = """
        WITH c AS (SELECT o_custkey, count(*) AS n
                   FROM orders GROUP BY o_custkey),
        r AS (SELECT n,
                     row_number() OVER (ORDER BY n, o_custkey) AS i,
                     count(*) OVER () AS cnt,
                     sum(n) OVER () AS tot
              FROM c)
        SELECT round(sum((2 * i - cnt - 1) * n)
                     / (any_value(cnt) * any_value(tot))::DOUBLE,
                     6) AS gini,
               any_value(cnt) AS n_keys,
               any_value(tot) AS n_rows
        FROM r
    """
    d["docs_lang_budget_mix"] = (
        "WITH q AS (" + d["quality_scores"] + "), "
        "t AS (" + d["ws_token_counts"] + "), "
        "o AS (SELECT q.doc_id, d.lang, q.quality, t.ws_tokens, "
        "        sum(t.ws_tokens) OVER (PARTITION BY d.lang "
        "            ORDER BY q.quality DESC, q.doc_id) AS cum "
        "      FROM q JOIN t USING (doc_id) "
        "      JOIN documents d USING (doc_id)) "
        "SELECT doc_id, lang, quality, ws_tokens::DOUBLE AS ws_tokens, "
        "       cum::DOUBLE AS cum_tokens "
        "FROM o WHERE cum <= CASE lang WHEN 'en' THEN 5000 "
        "                              WHEN 'de' THEN 2000 "
        "                              WHEN 'fr' THEN 1500 "
        "                              ELSE 0 END"
    )
    d["orders_incremental_agg"] = """
        SELECT o_custkey,
               round(sum(o_totalprice), 6) AS sum_price,
               count(*) AS n_orders
        FROM orders GROUP BY o_custkey
    """
    d["events_gap_dedup"] = """
        SELECT event_id, user_id, event_type FROM (
            SELECT event_id, user_id, event_type, ts,
                   lag(ts) OVER (PARTITION BY user_id, event_type
                                 ORDER BY ts, event_id) AS pts
            FROM events)
        WHERE pts IS NULL OR ts - pts > INTERVAL 60 SECOND
    """
    d["docs_adamic_adar"] = """
        WITH raw AS (
            SELECT doc_id AS src, (doc_id * 7 + 3) % 500 AS dst
            FROM documents
            UNION ALL
            SELECT doc_id, (doc_id * doc_id + 1) % 500 FROM documents
        ),
        edges AS (
            SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
            FROM raw WHERE src <> dst
        ),
        und AS (SELECT a AS c, b AS n FROM edges
                UNION ALL SELECT b, a FROM edges),
        deg AS (SELECT c AS node, count(*) AS deg FROM und GROUP BY c),
        wedges AS (
            SELECT u1.n AS x, u2.n AS y, u1.c AS z
            FROM und u1 JOIN und u2 ON u1.c = u2.c AND u1.n < u2.n
        ),
        scored AS (
            SELECT x, y, count(*) AS cn,
                   sum(1.0 / ln(d.deg)) AS aa,
                   sum(1.0 / d.deg) AS ra
            FROM wedges w JOIN deg d ON d.node = w.z
            GROUP BY x, y
        ),
        nonedge AS (
            SELECT s.* FROM scored s
            LEFT JOIN edges e ON e.a = s.x AND e.b = s.y
            WHERE e.a IS NULL
        )
        SELECT n.x AS node_a, n.y AS node_b, n.cn,
               round(n.aa, 6) AS aa, round(n.ra, 6) AS ra,
               round(n.cn / (da.deg + db.deg - n.cn)::DOUBLE, 6)
                   AS jaccard
        FROM nonedge n
        JOIN deg da ON da.node = n.x
        JOIN deg db ON db.node = n.y
    """
    d["docs_clustering_coef"] = """
        WITH raw AS (
            SELECT doc_id AS src, (doc_id * 7 + 3) % 500 AS dst
            FROM documents
            UNION ALL
            SELECT doc_id, (doc_id * doc_id + 1) % 500 FROM documents
        ),
        edges AS (
            SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
            FROM raw WHERE src <> dst
        ),
        und AS (SELECT a AS c, b AS n FROM edges
                UNION ALL SELECT b, a FROM edges),
        deg AS (SELECT c AS node, count(*) AS deg FROM und GROUP BY c),
        tri AS (
            SELECT u1.c AS v
            FROM und u1
            JOIN und u2 ON u1.c = u2.c AND u1.n < u2.n
            JOIN edges e ON e.a = u1.n AND e.b = u2.n
        ),
        cnt AS (SELECT v, count(*) AS t FROM tri GROUP BY v)
        SELECT d.node, coalesce(c.t, 0) AS n_tri,
               round(CASE WHEN d.deg >= 2
                          THEN 2.0 * coalesce(c.t, 0)
                               / (d.deg * (d.deg - 1))
                          ELSE 0.0 END, 6) AS lcc
        FROM deg d LEFT JOIN cnt c ON c.v = d.node
    """
    d["docs_graph_degree_hist"] = """
        WITH edges AS (
            SELECT doc_id AS src, (doc_id * 7 + 3) % 500 AS dst
            FROM documents
            UNION ALL
            SELECT doc_id, (doc_id * doc_id + 1) % 500 FROM documents
        ),
        deg AS (
            SELECT node, count(*) AS degree FROM (
                SELECT src AS node FROM edges
                UNION ALL SELECT dst FROM edges)
            GROUP BY node
        )
        SELECT degree, count(*) AS n_nodes FROM deg GROUP BY degree
    """
    d["docs_flagged_words"] = r"""
        WITH toks AS (
            SELECT doc_id, lower(t) AS t
            FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS t
                  FROM documents)
            WHERE t <> ''
        )
        SELECT d.doc_id,
               count(toks.t) AS n_tokens,
               count(CASE WHEN toks.t IN ('slow','spam','big','junk')
                          THEN 1 END) AS n_flagged,
               round(count(CASE WHEN toks.t IN ('slow','spam','big',
                                                'junk') THEN 1 END)
                     / greatest(count(toks.t), 1)::DOUBLE,
                     6) AS flagged_ratio
        FROM documents d LEFT JOIN toks USING (doc_id)
        GROUP BY d.doc_id
    """
    d["docs_corpus_profile"] = (
        "SELECT count(*) AS n_docs, "
        "count(CASE WHEN trim(text) = '' THEN 1 END) AS n_empty, "
        "sum(length(text)) AS total_chars, "
        "(SELECT sum(ws_tokens) FROM (" + d["ws_token_counts"] + ")) "
        "  AS total_ws_tokens, "
        "max(length(text)) AS max_chars, "
        "round(sum(length(text)) / count(*)::DOUBLE, 6) AS mean_chars, "
        "count(DISTINCT text) AS n_distinct_texts, "
        "count(DISTINCT lang) AS n_langs, "
        "(SELECT lang FROM documents GROUP BY lang "
        " ORDER BY count(*) DESC, lang LIMIT 1) AS top_lang, "
        "(SELECT count(*) FROM documents GROUP BY lang "
        " ORDER BY count(*) DESC, lang LIMIT 1) AS top_lang_n "
        "FROM documents"
    )
    d["docs_length_trimmed"] = (
        "WITH t AS (" + d["ws_token_counts"] + "), "
        "q AS (SELECT quantile_cont(ws_tokens, 0.05) AS lo, "
        "             quantile_cont(ws_tokens, 0.95) AS hi FROM t) "
        "SELECT t.doc_id, t.ws_tokens FROM t, q "
        "WHERE t.ws_tokens >= q.lo AND t.ws_tokens <= q.hi"
    )
    # gap-based session windows: lag → break flag → running sum
    _SESSIONS_CTE = """
        WITH o AS (
          SELECT user_id, ts, event_id,
                 lag(ts) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
          FROM events
        ), b AS (
          SELECT user_id, ts, event_id,
                 CASE WHEN prev IS NULL OR ts - prev > INTERVAL 3600 SECOND
                      THEN 1 ELSE 0 END AS brk
          FROM o
        ), s0 AS (
          SELECT user_id, ts,
                 CAST(sum(brk) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id)
                      AS BIGINT) AS session_id
          FROM b
        )
    """
    d["events_gap_sessions"] = _SESSIONS_CTE + """
        SELECT user_id, session_id,
               min(ts) AS session_start, max(ts) AS session_end,
               CAST(count(*) AS BIGINT) AS n_events
        FROM s0 GROUP BY user_id, session_id
    """
    d["events_session_error_windows"] = _SESSIONS_CTE + """
        , s AS (
          SELECT user_id, session_id, min(ts) AS st, max(ts) AS en
          FROM s0 GROUP BY user_id, session_id
        ), w AS (
          SELECT ts AS st_b, ts + INTERVAL 900 SECOND AS en_b,
                 event_id AS event_id_b
          FROM events WHERE event_type = 'error' AND user_id % 32 = 0
        )
        SELECT s.st, s.en, s.user_id, s.session_id,
               w.st_b, w.en_b, w.event_id_b
        FROM s JOIN w ON s.st <= w.en_b AND w.st_b <= s.en
    """
    d["events_session_ids"] = """
        WITH o AS (
          SELECT user_id, ts, event_id,
                 lag(ts) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
          FROM events
        ), b AS (
          SELECT user_id, ts, event_id,
                 CASE WHEN prev IS NULL OR ts - prev > INTERVAL 3600 SECOND
                      THEN 1 ELSE 0 END AS brk
          FROM o
        )
        SELECT user_id, ts, event_id,
               CAST(sum(brk) OVER (PARTITION BY user_id
                                   ORDER BY ts, event_id)
                    AS BIGINT) AS session_id
        FROM b
    """
    d["embedding_dim_truncation_recall"] = """
        WITH q AS (
          SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS e
          FROM embeddings WHERE vec_id % 25 = 0
        ), c AS (
          SELECT vec_id AS cid, CAST(embedding AS DOUBLE[]) AS e
          FROM embeddings
        ), dims AS (SELECT unnest([8, 16, 32, 64]) AS dim),
        scored AS (
          SELECT d.dim, q.qid, c.cid,
                 list_cosine_similarity(q.e[1:d.dim], c.e[1:d.dim]) AS s
          FROM q, c, dims d WHERE q.qid <> c.cid
        ), topk AS (
          SELECT dim, qid, cid
          FROM scored
          QUALIFY row_number() OVER (PARTITION BY dim, qid
                                     ORDER BY s DESC, cid) <= 10
        ), truth AS (SELECT qid, cid FROM topk WHERE dim = 64)
        SELECT CAST(t.dim AS BIGINT) AS dim,
               round(count(*) / (10.0 * (SELECT count(*) FROM q)), 6)
                   AS recall_at_k
        FROM topk t JOIN truth tr ON t.qid = tr.qid AND t.cid = tr.cid
        GROUP BY t.dim
    """
    d["events_interarrival_quantiles"] = """
        WITH o AS (
          SELECT event_type,
                 epoch_us(ts - lag(ts) OVER (
                     PARTITION BY event_type ORDER BY ts, event_id))
                 / 1000000.0 AS gap
          FROM events
        )
        SELECT event_type,
               round(quantile_cont(gap, 0.5), 6) AS p50_s,
               round(quantile_cont(gap, 0.9), 6) AS p90_s
        FROM o WHERE gap IS NOT NULL
        GROUP BY event_type
    """
    d["docs_hapax_ratio"] = """
        WITH tok AS (
          SELECT t, count(*) AS n
          FROM (SELECT unnest(string_split(text, ' ')) AS t
                FROM documents)
          WHERE t <> ''
          GROUP BY t
        )
        SELECT CAST(count(*) AS BIGINT) AS n_distinct_tokens,
               CAST(count(CASE WHEN n = 1 THEN 1 END) AS BIGINT)
                   AS n_hapax,
               round(count(CASE WHEN n = 1 THEN 1 END)
                     / count(*)::DOUBLE, 6) AS hapax_ratio
        FROM tok
    """
    d["events_burstiness"] = """
        WITH dc AS (
          SELECT event_type, CAST(date_trunc('day', ts) AS DATE)
                     AS day,
                 CAST(count(*) AS BIGINT) AS n
          FROM events GROUP BY 1, 2
        )
        SELECT event_type, CAST(count(*) AS BIGINT) AS n_days,
               round(avg(n), 6) AS mean_daily,
               round(var_samp(n), 6) AS var_daily,
               round(var_samp(n) / avg(n), 6) AS fano
        FROM dc GROUP BY event_type
    """
    d["docs_containment_pairs"] = """
        WITH d AS (SELECT doc_id, lower(text) AS t
                   FROM documents ORDER BY doc_id LIMIT 200),
        g AS (SELECT DISTINCT doc_id, substring(t, i, 3) AS gram
              FROM (SELECT doc_id, t,
                           unnest(generate_series(
                               1, greatest(length(t) - 2, 0))) AS i
                    FROM d)),
        sz AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
        inter AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                         count(*) AS c
                  FROM g a JOIN g b
                    ON a.gram = b.gram AND a.doc_id < b.doc_id
                  GROUP BY 1, 2)
        SELECT doc_a, doc_b,
               round(c * 1.0 / least(sa.n, sb.n), 6) AS containment
        FROM inter
        JOIN sz sa ON sa.doc_id = doc_a
        JOIN sz sb ON sb.doc_id = doc_b
        WHERE c * 1.0 / least(sa.n, sb.n) >= 0.8
    """
    d["docs_lang_temperature_weights"] = """
        WITH c AS (
          SELECT lang, CAST(count(*) AS BIGINT) AS n_docs
          FROM documents GROUP BY lang
        ), t AS (
          SELECT lang, n_docs,
                 n_docs / (SELECT sum(n_docs) FROM c)::DOUBLE AS p,
                 pow(n_docs / (SELECT sum(n_docs) FROM c)::DOUBLE, 0.3)
                     AS wraw
          FROM c
        )
        SELECT lang, n_docs, round(p, 6) AS p,
               round(wraw / (SELECT sum(wraw) FROM t), 6) AS weight,
               round((wraw / (SELECT sum(wraw) FROM t)) / p, 6)
                   AS boost
        FROM t
    """
    d["docs_type_token_ratio"] = """
        WITH t AS (
          SELECT doc_id, t AS tok
          FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS t
                FROM documents)
          WHERE t <> ''
        )
        SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
               CAST(count(DISTINCT tok) AS BIGINT) AS n_types,
               round(count(DISTINCT tok) / count(*)::DOUBLE, 6) AS ttr
        FROM t GROUP BY doc_id
    """
    d["orders_mom_growth"] = """
        WITH mc AS (
          SELECT o_orderpriority,
                 date_trunc('month', o_orderdate) AS month,
                 CAST(count(*) AS BIGINT) AS n
          FROM orders GROUP BY 1, 2
        )
        SELECT o_orderpriority, month, n,
               CAST(lag(n) OVER (PARTITION BY o_orderpriority
                                 ORDER BY month) AS DOUBLE) AS prev_n,
               round((n - lag(n) OVER (PARTITION BY o_orderpriority
                                       ORDER BY month))
                     / CAST(lag(n) OVER (PARTITION BY o_orderpriority
                                         ORDER BY month) AS DOUBLE), 6)
                   AS growth
        FROM mc
    """
    d["docs_mixing_schedule"] = """
        WITH c AS (
          SELECT source, count(*) AS n FROM documents GROUP BY source
        ), w AS (
          SELECT source,
                 round(pow(n / (SELECT sum(n) FROM c)::DOUBLE, 0.3)
                       / (SELECT sum(pow(n / (SELECT sum(n) FROM c)
                                         ::DOUBLE, 0.3)) FROM c), 6)
                     AS wt
          FROM c
        ), r AS (
          SELECT doc_id, source,
                 row_number() OVER (PARTITION BY source
                                    ORDER BY doc_id) - 1 AS src_rank
          FROM documents
        )
        SELECT r.doc_id, r.source,
               CAST(src_rank AS BIGINT) AS src_rank,
               round((src_rank + 0.5) / wt, 6) AS mix_key
        FROM r JOIN w USING (source)
    """
    d["docs_trigram_entropy"] = """
        WITH g AS (
          SELECT doc_id, substring(t, i, 3) AS gram
          FROM (SELECT doc_id, lower(text) AS t,
                       unnest(generate_series(
                           1, greatest(length(text) - 2, 0))) AS i
                FROM documents)
        ), c AS (
          SELECT doc_id, gram, count(*) AS n FROM g GROUP BY 1, 2
        ), t AS (
          SELECT doc_id, sum(n) AS tot FROM c GROUP BY 1
        )
        SELECT c.doc_id,
               round(-sum((n / tot::DOUBLE)
                          * log2(n / tot::DOUBLE)), 6)
                   AS trigram_entropy
        FROM c JOIN t USING (doc_id) GROUP BY c.doc_id
    """
    d["docs_readability"] = """
        WITH b AS (
          SELECT doc_id,
                 len(regexp_extract_all(text, '[A-Za-z]+')) AS w,
                 len(regexp_extract_all(text, '[aeiouAEIOU]+')) AS s,
                 greatest(len(regexp_extract_all(text, '[.!?]+')), 1)
                     AS n
          FROM documents
        )
        SELECT doc_id, CAST(w AS BIGINT) AS n_words,
               CAST(n AS BIGINT) AS n_sentences,
               CAST(s AS BIGINT) AS n_syllable_groups,
               round(CASE WHEN w > 0 THEN
                 206.835 - 1.015 * (w / CAST(n AS DOUBLE))
                 - 84.6 * (s / CAST(w AS DOUBLE))
               ELSE 0 END, 6) AS flesch
        FROM b
    """
    d["embedding_knn_ndcg"] = """
        WITH q AS (
          SELECT vec_id AS qid, label AS qlabel,
                 CAST(embedding AS DOUBLE[]) AS e
          FROM embeddings WHERE vec_id % 25 = 0
        ), c AS (
          SELECT vec_id AS cid, label AS clabel,
                 CAST(embedding AS DOUBLE[]) AS e
          FROM embeddings
        ), scored AS (
          SELECT q.qid, q.qlabel, c.cid, c.clabel,
                 list_cosine_similarity(q.e, c.e) AS s
          FROM q JOIN c ON q.qid <> c.cid
        ), topk AS (
          SELECT *, row_number() OVER (PARTITION BY qid
                                       ORDER BY s DESC, cid) AS rnk
          FROM scored
          QUALIFY rnk <= 10
        ), dcg AS (
          SELECT qid, qlabel,
                 sum(CASE WHEN qlabel = clabel
                     THEN 1.0 / log2(rnk + 1) ELSE 0 END) AS dcg_raw
          FROM topk GROUP BY qid, qlabel
        ), lc AS (
          SELECT label, count(*) AS n FROM embeddings GROUP BY label
        ), base AS (
          SELECT d.qid, d.dcg_raw,
                 least(10, lc.n - 1) AS n_rel
          FROM dcg d JOIN lc ON lc.label = d.qlabel
        )
        SELECT qid, round(dcg_raw, 6) AS dcg,
               round((SELECT sum(1.0 / log2(r + 1))
                      FROM unnest(generate_series(1, n_rel)) AS t(r)),
                     6) AS idcg,
               round(CASE WHEN n_rel > 0 THEN dcg_raw /
                     (SELECT sum(1.0 / log2(r + 1))
                      FROM unnest(generate_series(1, n_rel)) AS t(r))
                     ELSE 0 END, 6) AS ndcg
        FROM base
    """
    d["customer_rfm_segments"] = """
        WITH agg AS (
          SELECT o_custkey, max(o_orderdate) AS recency,
                 CAST(count(*) AS BIGINT) AS frequency,
                 round(sum(o_totalprice), 2) AS monetary
          FROM orders GROUP BY o_custkey
        ), t AS (
          SELECT *,
                 CAST(ntile(4) OVER (ORDER BY recency, o_custkey)
                      AS BIGINT) AS r,
                 CAST(ntile(4) OVER (ORDER BY frequency, o_custkey)
                      AS BIGINT) AS f,
                 CAST(ntile(4) OVER (ORDER BY monetary, o_custkey)
                      AS BIGINT) AS m
          FROM agg
        )
        SELECT o_custkey, recency, frequency, monetary, r, f, m,
               r * 100 + f * 10 + m AS rfm
        FROM t
    """
    d["events_late_arrivals"] = """
        WITH o AS (
          SELECT user_id, ts, event_id,
                 epoch_us(ts)
                 + (CAST(event_id AS HUGEINT) * 2654435761)
                   % 10800000000 - 5400000000 AS arrival_us
          FROM events
        ), w AS (
          SELECT user_id, ts, event_id,
                 max(ts) OVER (PARTITION BY user_id
                               ORDER BY arrival_us, event_id
                               ROWS BETWEEN UNBOUNDED PRECEDING
                               AND 1 PRECEDING) AS prevmax
          FROM o
        )
        SELECT user_id, ts, event_id,
               round(epoch_us(prevmax - ts) / 1000000.0, 6) AS late_by_s
        FROM w
        WHERE prevmax - ts > INTERVAL 600 SECOND
    """
    d["docs_skipgram_pairs"] = (
        "WITH walks AS (" + d["docs_graph_random_walks"] + ") "
        'SELECT a.node AS center, b.node AS context, '
        'CAST(b.step - a.step AS BIGINT) AS "offset" '
        "FROM walks a JOIN walks b ON a.walk_id = b.walk_id "
        "AND a.step <> b.step AND abs(a.step - b.step) <= 2"
    )
    d["docs_skipgram_negatives"] = (
        "WITH walks AS (" + d["docs_graph_random_walks"] + "), "
        """pairs AS (
          SELECT a.node AS center, b.node AS context,
                 CAST(b.step - a.step AS BIGINT) AS "offset"
          FROM walks a JOIN walks b ON a.walk_id = b.walk_id
           AND a.step <> b.step AND abs(a.step - b.step) <= 2
        ), counts AS (
          SELECT node,
                 CAST(floor(pow(count(*), 0.75) * 1000000) AS BIGINT)
                     AS w
          FROM walks GROUP BY node
        ), cum AS (
          SELECT node,
                 sum(w) OVER (ORDER BY node) AS hi,
                 sum(w) OVER (ORDER BY node) - w AS lo
          FROM counts
        ), tot AS (SELECT sum(w) AS t FROM counts),
        fr AS (
          SELECT center, context, "offset",
                 CAST(j AS BIGINT) AS neg_rank,
                 (((CAST(center AS HUGEINT) * 1000003
                    + CAST(context AS HUGEINT) * 10007
                    + ("offset" + 2)) * 2654435761
                   + CAST(j AS HUGEINT) * 40503) % 4294967296 + 0.5)
                 / 4294967296.0 AS frac
          FROM pairs,
               LATERAL (SELECT unnest(generate_series(0, 2)) AS j)
        )
        SELECT f.center, f.context, f."offset", f.neg_rank,
               c.node AS negative
        FROM fr f, tot
        JOIN cum c ON f.frac * tot.t >= c.lo AND f.frac * tot.t < c.hi
        """
    )
    d["docs_novelty_by_batch"] = """
        WITH d AS (
          SELECT doc_id,
                 list_filter(string_split(text, ' '), x -> x <> '') AS l
          FROM documents
        ), tok AS (
          SELECT doc_id // 50 AS bucket,
                 l[i] || ' ' || l[i+1] || ' ' || l[i+2] AS t
          FROM d, LATERAL (SELECT unnest(generate_series(
                               1, greatest(len(l) - 2, 0))) AS i)
        ), first AS (
          SELECT t, min(bucket) AS bucket FROM tok GROUP BY t
        )
        SELECT bucket, CAST(count(*) AS BIGINT) AS n_new,
               CAST(sum(count(*)) OVER (ORDER BY bucket) AS BIGINT)
                   AS cum_new
        FROM first GROUP BY bucket
    """
    d["embedding_hard_negatives"] = """
        WITH s AS (
          SELECT a.vec_id AS vec_id, b.vec_id AS neg_id,
                 b.label AS neg_label,
                 list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                        CAST(b.embedding AS DOUBLE[]))
                     AS raw
          FROM embeddings a JOIN embeddings b ON a.label <> b.label
        )
        SELECT vec_id, neg_id, neg_label, round(raw, 6) AS score
        FROM s
        QUALIFY row_number() OVER (
            PARTITION BY vec_id ORDER BY raw DESC, neg_id) = 1
    """
    d["events_session_conversions"] = """
        WITH o AS (
          SELECT user_id, ts, event_id, event_type,
                 lag(ts) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
          FROM events
        ), b AS (
          SELECT user_id, ts, event_id, event_type,
                 CASE WHEN prev IS NULL OR ts - prev > INTERVAL 3600 SECOND
                      THEN 1 ELSE 0 END AS brk
          FROM o
        ), s0 AS (
          SELECT user_id, ts, event_type,
                 CAST(sum(brk) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id)
                      AS BIGINT) AS session_id
          FROM b
        )
        SELECT user_id, session_id,
               min(CASE WHEN event_type = 'view' THEN ts END)
                   AS first_view,
               max(CASE WHEN event_type = 'purchase' THEN ts END)
                   AS last_purchase,
               CAST(count(*) AS BIGINT) AS n_events,
               coalesce(
                 max(CASE WHEN event_type = 'purchase' THEN ts END)
                 >= min(CASE WHEN event_type = 'view' THEN ts END),
                 FALSE) AS converted
        FROM s0 GROUP BY user_id, session_id
    """
    d["docs_weighted_sample_per_source"] = """
        WITH t AS (
          SELECT doc_id, source, length(text) + 1 AS w FROM documents
        )
        SELECT doc_id, source FROM t
        QUALIFY row_number() OVER (
            PARTITION BY source
            ORDER BY -ln((((CAST(doc_id AS HUGEINT) * 2654435761)
                           % 4294967296) + 0.5) / 4294967296.0) / w,
                     doc_id) <= 5
    """
    d["docs_reservoir_per_source"] = """
        SELECT doc_id, source FROM documents
        QUALIFY row_number() OVER (
            PARTITION BY source
            ORDER BY (CAST(doc_id AS HUGEINT) * 2654435761) % 4294967296,
                     doc_id) <= 10
    """
    d["lineitem_price_winsorized"] = """
        WITH b AS (
          SELECT l_returnflag,
                 round(quantile_cont(l_extendedprice, 0.05), 6) AS lo,
                 round(quantile_cont(l_extendedprice, 0.95), 6) AS hi
          FROM lineitem GROUP BY l_returnflag
        )
        SELECT l.l_returnflag, l.l_extendedprice,
               least(greatest(l.l_extendedprice, b.lo), b.hi)
                   AS l_extendedprice_w
        FROM lineitem l JOIN b USING (l_returnflag)
    """
    return d
