"""Ray-Data-native knowledge-graph construction engine.

A from-scratch re-expression of the capabilities of the reference system
``athrael-soju/nlp-graphrag-with-qdrant-and-neo4j`` (surveyed in
/root/repo/SURVEY.md) as idiomatic ``ray.data.Dataset`` pipelines:

- ``sources``   : the ``pages`` input table (Common-Crawl-style web pages),
                  deterministic fixture generation, testdata adapters.
- ``functions`` : pure, deterministic per-record semantics (tokenizer,
                  html→text, n-grams, triplet parsing/extraction, hashing,
                  embedding test-double, dedup sketches, text stats).
- ``stages``    : ``map_batches`` stage definitions (stateless tasks and
                  stateful actor-pool classes) built from ``functions``.
- ``pipelines`` : end-to-end DAGs (KG construction, query layer, dedup,
                  similarity search) plus their output-table layouts.
- ``state``     : lineage records, per-stage Parquet checkpoints, and
                  ``broadcast_lookup``: a small table joined to a Dataset
                  through one ``ray.put`` and an Arrow hash probe.

This package NEVER calls ``ray.init()`` / ``ray.shutdown()`` — sessions are
owned by the driver, ``bench.py``, or the test fixture.
"""

__version__ = "0.1.0"
