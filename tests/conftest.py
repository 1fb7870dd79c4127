import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray
    import ray.data

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def fixed_partitions(monkeypatch):
    """``fixed_partitions(n)`` gives every sized exchange ``n``
    partitions: operators size through ``stages.shuffle.partitions_for``
    when they build their plan, so a count sweep pins it there."""
    from nlp_graphrag_with_qdrant_and_neo4j_ray.stages import shuffle

    def pin(parts: int):
        monkeypatch.setattr(shuffle, "partitions_for", lambda *_a, **_k: parts)

    return pin
