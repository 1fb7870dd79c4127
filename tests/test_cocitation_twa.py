"""Host co-citation (pipelines/web.host_cocitation) and time-weighted
mean (pipelines/relational.time_weighted_mean): planted pages produce
the expected pair counts (distinct-per-page, noise links dropped),
TWAP matches hand-computed durations, last/single rows drop, and both
are partition-independent."""

import pyarrow as pa
import ray.data as rd

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
    time_weighted_mean,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
    host_cocitation,
)


def _pages():
    rows = [
        # links to a.com twice (dedup within page), b.com, own host c.com
        ("https://www.c.com/p1",
         b'<a href="https://a.com/1">x</a><a href="https://a.com/2">y</a>'
         b'<a href="https://b.com/">z</a><a href="/local">rel</a>'
         b'<a href="mailto:n@x">m</a>'),
        # links to a.com and b.com only
        ("https://d.org/p2",
         b'<a href="https://a.com/9">x</a><a href="https://b.com/8">y</a>'),
        # single destination: no pair
        ("https://e.net/p3", b'<a href="https://a.com/solo">x</a>'),
        # no links at all
        ("https://f.io/p4", b"<p>nothing</p>"),
    ]
    return rd.from_arrow(pa.table({
        "url": [r[0] for r in rows],
        "html": pa.array([r[1] for r in rows], pa.binary()),
    }))


def test_cocitation_pairs(ray_session):
    got = host_cocitation(_pages()).to_pandas()
    pairs = {(r["dom_a"], r["dom_b"]): r["n_pages"]
             for _, r in got.iterrows()}
    assert pairs == {
        ("a.com", "b.com"): 2,      # pages p1 and p2
        ("a.com", "c.com"): 1,      # p1 relative link resolves to c.com
        ("b.com", "c.com"): 1,
    }


def test_cocitation_partition_independent(ray_session):
    a = (host_cocitation(_pages().repartition(1)).to_pandas()
         .sort_values(["dom_a", "dom_b"]).reset_index(drop=True))
    b = (host_cocitation(_pages().repartition(4)).to_pandas()
         .sort_values(["dom_a", "dom_b"]).reset_index(drop=True))
    assert a.equals(b)


def _events():
    # user 1: values 10 (held 2s), 20 (held 6s), 99 (last, dropped)
    #   twa = (10*2 + 20*6) / 8 = 17.5
    # user 2: one event only: no intervals, user absent
    rows = [
        (1, 1, 0, 10.0),
        (1, 2, 2_000_000, 20.0),
        (1, 3, 8_000_000, 99.0),
        (2, 4, 0, 5.0),
    ]
    return rd.from_arrow(pa.table({
        "user_id": pa.array([r[0] for r in rows], pa.int64()),
        "event_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts_us": pa.array([r[2] for r in rows], pa.int64()),
        "value": pa.array([r[3] for r in rows], pa.float64()),
    }))


def test_twa_hand_computed(ray_session):
    got = time_weighted_mean(_events(), ["user_id"], "ts_us", "value",
                             tie_col="event_id").to_pandas()
    assert len(got) == 1
    r = got.iloc[0]
    assert (r["user_id"], r["n_intervals"], r["twa_value"]) == (1, 2, 17.5)


def test_twa_partition_independent(ray_session, fixed_partitions):
    fixed_partitions(1)
    a = (time_weighted_mean(_events().repartition(1), ["user_id"],
                            "ts_us", "value", tie_col="event_id")
         .to_pandas().reset_index(drop=True))
    fixed_partitions(7)
    b = (time_weighted_mean(_events().repartition(4), ["user_id"],
                            "ts_us", "value", tie_col="event_id")
         .to_pandas().reset_index(drop=True))
    assert a.equals(b)
