"""Hypothesis differential tests: randomized small frames cross-checked
against pandas/python references for the window and set operators.
Example counts are small — each example executes a Ray pipeline."""

import numpy as np
import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SETTINGS = settings(max_examples=5, deadline=None,
                    suppress_health_check=list(HealthCheck))


def _frame(draw, n):
    ks = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    vs = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    return pd.DataFrame({
        "k": np.array(ks, np.int64),
        "v": np.array(vs, np.int64),
        "id": np.arange(n, dtype=np.int64),
    })


@st.composite
def frames(draw):
    n = draw(st.integers(4, 40))
    return _frame(draw, n)


@given(frames())
@SETTINGS
def test_window_lag_matches_pandas(ray_session, df):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        window_lag,
    )

    got = window_lag(ray.data.from_pandas(df), ["k"], "v", "v",
                     "prev_v", "id").to_pandas()
    s = df.sort_values(["k", "v", "id"], kind="stable")
    expected = s.assign(prev_v=s.groupby("k")["v"].shift(1))
    cols = ["k", "v", "id", "prev_v"]
    pd.testing.assert_frame_equal(
        got.sort_values(["k", "id"]).reset_index(drop=True)[cols],
        expected.sort_values(["k", "id"]).reset_index(drop=True)[cols],
        check_dtype=False)


@given(frames(), frames())
@SETTINGS
def test_intersect_except_match_python_sets(ray_session, a, b):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        except_distinct,
        intersect_distinct,
    )

    left = ray.data.from_pandas(a[["k", "v"]])
    right = ray.data.from_pandas(b[["k", "v"]])
    sa = set(map(tuple, a[["k", "v"]].itertuples(index=False)))
    sb = set(map(tuple, b[["k", "v"]].itertuples(index=False)))

    gi = intersect_distinct(left, right, ["k", "v"]).to_pandas()
    got_i = set(map(tuple, gi.itertuples(index=False))) if len(gi) else set()
    assert got_i == (sa & sb)

    ge = except_distinct(left, right, ["k", "v"]).to_pandas()
    got_e = set(map(tuple, ge.itertuples(index=False))) if len(ge) else set()
    assert got_e == (sa - sb)


@given(frames())
@SETTINGS
def test_grouped_first_last_matches_pandas(ray_session, df):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        grouped_first_last,
    )

    got = grouped_first_last(
        ray.data.from_pandas(df), ["k"], ["v", "id"], "v").to_pandas()
    s = df.sort_values(["k", "v", "id"], kind="stable")
    f = s.drop_duplicates("k", keep="first")[["k", "v"]]
    la = s.drop_duplicates("k", keep="last")[["k", "v"]]
    expected = f.rename(columns={"v": "first_val"}).merge(
        la.rename(columns={"v": "last_val"}), on="k")
    pd.testing.assert_frame_equal(
        got.sort_values("k").reset_index(drop=True),
        expected.sort_values("k").reset_index(drop=True),
        check_dtype=False)


def test_json_extract_malformed_rows_null(ray_session):
    import pyarrow as pa
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
        json_extract_scalar,
    )

    df = pd.DataFrame({
        "id": np.arange(5, dtype=np.int64),
        "props": ['{"k": 3}', "not json", '{"other": 1}', "",
                  '{"k": null}'],
    })
    got = json_extract_scalar(ray.data.from_pandas(df), "props", "k",
                              "k_val").to_pandas()
    got = got.sort_values("id")
    assert got["k_val"].tolist()[0] == 3
    assert got["k_val"].isna().tolist() == [False, True, True, True, True]


@given(frames(), st.integers(1, 300))
@SETTINGS
def test_budget_head_matches_pandas_running_sum(ray_session, df, budget):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.clean import (
        budget_head,
    )

    rows = pd.DataFrame({
        "doc_id": df["id"],
        "score": df["v"].astype(np.float64),
        "toks": (df["k"] + 1).astype(np.float64),   # positive counts
    })
    got = budget_head(ray.data.from_pandas(rows), "score", "toks",
                      float(budget), num_buckets=7).to_pandas()
    s = rows.sort_values(["score", "doc_id"],
                         ascending=[False, True], kind="stable")
    cum = s["toks"].cumsum()
    expected = s[cum <= budget].assign(cum_tokens=cum[cum <= budget])
    if len(expected) == 0:
        assert len(got) == 0
        return
    cols = ["doc_id", "score", "toks", "cum_tokens"]
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id").reset_index(drop=True)[cols],
        expected.sort_values("doc_id").reset_index(drop=True)[cols],
        check_dtype=False)


@given(frames())
@SETTINGS
def test_incremental_agg_matches_full_recompute(ray_session, df):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        incremental_agg,
    )

    base = df[df["id"] % 3 != 0]
    delta = df[df["id"] % 3 == 0]
    base_agg = (base.groupby("k")["v"].agg(["sum", "size"])
                .reset_index()
                .rename(columns={"sum": "sum_val", "size": "n"}))
    base_agg["sum_val"] = base_agg["sum_val"].astype(np.float64)
    got = incremental_agg(
        ray.data.from_pandas(base_agg),
        ray.data.from_pandas(delta.rename(columns={"v": "val"})),
        ["k"], "val").to_pandas()
    full = (df.groupby("k")["v"].agg(["sum", "size"]).reset_index()
            .rename(columns={"sum": "sum_val", "size": "n"}))
    pd.testing.assert_frame_equal(
        got.sort_values("k").reset_index(drop=True)[["k", "sum_val", "n"]],
        full.sort_values("k").reset_index(drop=True)[["k", "sum_val", "n"]],
        check_dtype=False)


@given(frames())
@SETTINGS
def test_degree_histogram_matches_pandas(ray_session, df):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        degree_histogram,
    )

    edges = pd.DataFrame({"src": df["k"].astype(np.int64),
                          "dst": df["v"].astype(np.int64)})
    got = degree_histogram(ray.data.from_pandas(edges)).to_pandas()
    deg = pd.concat([edges["src"], edges["dst"]]).value_counts()
    expected = (deg.value_counts().rename_axis("degree")
                .reset_index(name="n_nodes"))
    pd.testing.assert_frame_equal(
        got.sort_values("degree").reset_index(drop=True),
        expected.sort_values("degree").reset_index(drop=True)
        .astype({"degree": np.int64, "n_nodes": np.int64}),
        check_dtype=False)


@given(frames())
@SETTINGS
def test_validation_report_matches_pandas(ray_session, df):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        validation_report,
    )

    got = {(r["col"], r["check"]): r for r in validation_report(
        ray.data.from_pandas(df), [
            {"col": "v", "check": "range", "lo": -10, "hi": 10},
            {"col": "k", "check": "in_set", "values": [0, 1]},
            {"col": "id", "check": "unique"},
            {"col": "k", "check": "unique"},
        ]).take_all()}
    n = len(df)
    assert got[("v", "range")]["n_violations"] == int(
        (~df["v"].between(-10, 10)).sum())
    assert got[("k", "in_set")]["n_violations"] == int(
        (~df["k"].isin([0, 1])).sum())
    assert got[("id", "unique")]["n_violations"] == n - df["id"].nunique()
    assert got[("k", "unique")]["n_violations"] == n - df["k"].nunique()
    assert all(r["n_rows"] == n for r in got.values())


# ---------------------------------------------------------------------------
# last-session operators: randomized differentials vs python references
# ---------------------------------------------------------------------------

@st.composite
def text_docs(draw):
    n = draw(st.integers(2, 12))
    words = ["alpha", "beta", "gamma", "nav", "x1", ""]
    docs = {}
    for i in range(n):
        n_lines = draw(st.integers(0, 6))
        lines = [" ".join(draw(st.lists(st.sampled_from(words),
                                        min_size=0, max_size=4)))
                 for _ in range(n_lines)]
        docs[i] = "\n".join(lines)
    return docs


@given(text_docs())
@SETTINGS
def test_line_dedup_within_matches_python(ray_session, docs):
    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.dedup import (
        line_dedup_within_doc,
    )

    ds = ray_session.data.from_arrow(pa.table({
        "doc_id": pa.array(list(docs), pa.int64()),
        "text": pa.array(list(docs.values()), pa.large_string()),
    }))
    got = {r["doc_id"]: r for r in line_dedup_within_doc(ds).take_all()}

    for i, text in docs.items():
        lines = text.split("\n")
        seen, kept = set(), []
        for ln in lines:
            blank = ln.strip(" \t\r") == ""
            if blank or ln not in seen:
                kept.append(ln)
                if not blank:
                    seen.add(ln)
        assert got[i]["text"] == "\n".join(kept), i
        assert got[i]["n_lines_in"] == len(lines)
        assert got[i]["n_lines_kept"] == len(kept)


@given(text_docs())
@SETTINGS
def test_token_ids_matches_python(ray_session, docs):
    from collections import Counter

    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
        token_ids_encode,
    )

    texts = {i: t.replace("\n", " ") for i, t in docs.items()}
    ds = ray_session.data.from_arrow(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.large_string()),
    }))
    got = {r["doc_id"]: r for r in token_ids_encode(
        ds).take_all()}

    counts = Counter()
    for t in texts.values():
        counts.update(x for x in t.split(" ") if x)
    vocab = {tok: i for i, (tok, _) in enumerate(
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))}
    assert len(got) == len(texts)
    for i, t in texts.items():
        toks = [x for x in t.split(" ") if x]
        assert got[i]["ids"] == [vocab[x] for x in toks], i
        assert got[i]["n_tokens"] == len(toks)


@st.composite
def count_series(draw):
    n_types = draw(st.integers(1, 3))
    rows = []
    for t in range(n_types):
        n_days = draw(st.integers(1, 12))
        for d in range(n_days):
            rows.append((f"t{t}", d, draw(st.integers(1, 9))))
    return rows


@given(count_series())
@SETTINGS
def test_cusum_matches_python(ray_session, rows):
    import datetime

    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        cusum_changepoints,
    )

    base = datetime.datetime(2024, 1, 1)
    types, ts = [], []
    for et, day, copies in rows:
        for _ in range(copies):
            types.append(et)
            ts.append(base + datetime.timedelta(days=day))
    ds = ray_session.data.from_arrow(pa.table({
        "event_type": pa.array(types, pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    }))
    got = {(r["event_type"], r["day"].day): (r["cusum"], r["flag"])
           for r in cusum_changepoints(
               ds, "event_type", "ts").take_all()}

    per = {}
    for et, day, copies in rows:
        per.setdefault(et, {})[day] = copies
    for et, series in per.items():
        days = sorted(series)
        x = np.array([series[d] for d in days], float)
        sd = x.std()
        d = (x - x.mean()) / sd - 0.5 if sd > 0 else np.zeros_like(x)
        c = np.cumsum(d)
        s = c - np.minimum.accumulate(np.minimum(c, 0.0))
        for day, si in zip(days, s):
            cus, flag = got[(et, day + 1)]  # base date is Jan 1
            assert cus == round(float(si), 6), (et, day)
            assert flag == int(si > 4.0)


@st.composite
def group_items(draw):
    n = draw(st.integers(2, 40))
    gs = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    its = draw(st.lists(st.sampled_from(list("abcdef")),
                        min_size=n, max_size=n))
    return list(zip(gs, its))


@given(group_items(), st.integers(1, 3), st.integers(2, 4))
@SETTINGS
def test_cooccurrence_pmi_matches_python(ray_session, rows, min_count,
                                         cap):
    import math

    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        cooccurrence_pmi,
    )

    by_g = {}
    for g, it in rows:
        by_g.setdefault(g, set()).add(it)
    by_g = {g: sorted(s)[:cap] for g, s in by_g.items()}
    n, nab = {}, {}
    for items in by_g.values():
        for x in items:
            n[x] = n.get(x, 0) + 1
        for i, x in enumerate(items):
            for y in items[i + 1:]:
                nab[(x, y)] = nab.get((x, y), 0) + 1
    N = len(by_g)
    want = {p: (c, round(math.log2(c * N / (n[p[0]] * n[p[1]])), 6))
            for p, c in nab.items() if c >= min_count}

    ds = ray.data.from_items([{"g": g, "item": it} for g, it in rows])
    out = cooccurrence_pmi(ds.repartition(3), "g", "item",
                           min_count=min_count,
                           max_items_per_group=cap).take_all()
    got = {(r["a"], r["b"]): (r["n_ab"], r["pmi"]) for r in out}
    assert got == want


@st.composite
def avro_tables(draw):
    import pyarrow as pa

    n = draw(st.integers(0, 25))
    ids = draw(st.lists(st.integers(-2**40, 2**40),
                        min_size=n, max_size=n))
    txts = draw(st.lists(
        st.one_of(st.none(), st.text(max_size=12)),
        min_size=n, max_size=n))
    vals = draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=n, max_size=n))
    return pa.table({
        "id": pa.array(ids, pa.int64()),
        "txt": pa.array(txts, pa.string()),
        "val": pa.array(vals, pa.float64()),
    })


@given(avro_tables(), st.sampled_from(["null", "deflate"]),
       st.integers(1, 7))
@SETTINGS
def test_avro_roundtrip_property(table, codec, per_block):
    import io

    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.functions.avro import (
        encode_container,
        iter_blocks,
        read_header,
    )

    buf = io.BytesIO(encode_container(table, codec=codec,
                                      records_per_block=per_block))
    fields, got_codec, sync = read_header(buf)
    assert got_codec == codec
    tables = list(iter_blocks(buf, fields, codec, sync))
    got = pa.concat_tables(tables) if tables else table.slice(0, 0)
    assert got.equals(table)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 90)),
                min_size=1, max_size=30),
       st.integers(1, 40))
@SETTINGS
def test_dedup_recrawls_windowed_matches_python(ray_session, caps,
                                                window_days):
    import datetime

    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.web import (
        dedup_recrawls_windowed,
    )

    t0 = datetime.datetime(2025, 1, 1)
    rows = [{
        "url": f"https://h{h}.com/p?id={h}&utm_x={i}",
        "warc_ts": t0 + datetime.timedelta(days=d, seconds=i),
    } for i, (h, d) in enumerate(caps)]

    win_us = window_days * 86_400_000_000
    best = {}
    for r in rows:
        canon = r["url"].split("&utm_x")[0]
        ts_us = int(r["warc_ts"].timestamp() * 1_000_000)
        key = (canon, ts_us // win_us)
        cur = best.get(key)
        # latest ts wins; ties break by raw url ascending
        cand = (-ts_us, r["url"])
        if cur is None or cand < cur:
            best[key] = cand
    want = sorted((k[0], k[1], v[1]) for k, v in best.items())

    out = dedup_recrawls_windowed(
        ray.data.from_items(rows).repartition(3),
        window_days=window_days).take_all()
    got = sorted((r["canonical_url"], r["window"], r["url"])
                 for r in out)
    assert got == want


# ---------------------------------------------------------------------------
# closing-session operators: sessions, interval join, sampling, graph locals


@st.composite
def event_frames(draw):
    n = draw(st.integers(3, 40))
    users = draw(st.integers(1, 4))
    secs = draw(st.lists(st.integers(0, 50_000), min_size=n, max_size=n))
    return pd.DataFrame({
        "user_id": np.array(
            draw(st.lists(st.integers(0, users), min_size=n, max_size=n)),
            np.int64),
        "ts": (pd.Timestamp("2024-01-01")
               + pd.to_timedelta(secs, unit="s")).astype("datetime64[us]"),
        "event_id": np.arange(n, dtype=np.int64),
    })


@given(event_frames(), st.integers(60, 7200))
@SETTINGS
def test_gap_sessions_matches_pandas_reference(ray_session, ev, gap_s):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        gap_sessions,
    )

    got = gap_sessions(ray.data.from_pandas(ev).repartition(3),
                       "user_id", "ts", float(gap_s), "event_id").to_pandas()
    s = ev.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    prev = s.groupby("user_id")["ts"].shift(1)
    brk = (prev.isna() | (s["ts"] - prev
                          > pd.Timedelta(seconds=gap_s))).astype("int64")
    sid = brk.groupby(s["user_id"]).cumsum()
    want = (s.assign(session_id=sid)
            .groupby(["user_id", "session_id"])
            .agg(session_start=("ts", "min"), session_end=("ts", "max"),
                 n_events=("event_id", "size")).reset_index())
    want["n_events"] = want["n_events"].astype("int64")
    cols = sorted(want.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False)


@st.composite
def interval_frames(draw, tag):
    n = draw(st.integers(1, 25))
    st_s = draw(st.lists(st.integers(0, 20_000), min_size=n, max_size=n))
    dur = draw(st.lists(st.integers(0, 8_000), min_size=n, max_size=n))
    base = pd.Timestamp("2024-01-01")
    return pd.DataFrame({
        "st": (base + pd.to_timedelta(st_s, unit="s")
               ).astype("datetime64[us]"),
        "en": (base + pd.to_timedelta(np.array(st_s) + np.array(dur),
                                      unit="s")).astype("datetime64[us]"),
        tag: np.arange(n, dtype=np.int64),
    })


@given(interval_frames("lid"), interval_frames("rid"),
       st.sampled_from([600.0, 3600.0, 14400.0]))
@SETTINGS
def test_interval_join_matches_all_pairs(ray_session, left, right, bucket):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        interval_join,
    )

    # rows, not to_pandas(): Ray's to_pandas() of a zero-row Dataset has
    # no columns, which a draw with no overlapping pair produces
    got = interval_join(
        ray.data.from_pandas(left).repartition(2),
        ray.data.from_pandas(right).repartition(2), "st", "en",
        left_cols=["st", "en", "lid"], right_cols=["st", "en", "rid"],
        bucket_seconds=bucket).take_all()
    want = set()
    for _, l in left.iterrows():
        for _, r in right.iterrows():
            if l["st"] <= r["en"] and r["st"] <= l["en"]:
                want.add((int(l["lid"]), int(r["rid"])))
    assert {(r["lid"], r["rid_b"]) for r in got} == want
    assert len(got) == len(want)  # emitted exactly once


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 40))
    src = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    dst = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    return pd.DataFrame({"src": np.array(src, np.int64),
                         "dst": np.array(dst, np.int64)})


def _adj(df):
    adj = {}
    for s, d in zip(df["src"], df["dst"]):
        if s == d:
            continue
        adj.setdefault(int(s), set()).add(int(d))
        adj.setdefault(int(d), set()).add(int(s))
    return adj


@given(edge_lists())
@SETTINGS
def test_link_scores_local_matches_bruteforce(ray_session, df):
    import itertools
    import math

    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        _link_scores_local,
    )

    out = _link_scores_local(pa.Table.from_pandas(df), "src", "dst")
    adj = _adj(df)
    want = {}
    for x, y in itertools.combinations(sorted(adj), 2):
        if y in adj[x]:
            continue
        common = adj[x] & adj[y]
        if not common:
            continue
        aa = sum(1.0 / math.log(len(adj[z])) for z in common)
        ra = sum(1.0 / len(adj[z]) for z in common)
        jac = len(common) / (len(adj[x]) + len(adj[y]) - len(common))
        want[(x, y)] = (len(common), round(aa, 6), round(ra, 6),
                        round(jac, 6))
    got = {
        (int(r["node_a"]), int(r["node_b"])):
        (int(r["cn"]), r["aa"], r["ra"], r["jaccard"])
        for r in out.to_pylist()
    }
    assert set(got) == set(want)
    for k in want:
        assert got[k][0] == want[k][0], (k, got[k], want[k])
        for i in (1, 2, 3):
            assert abs(got[k][i] - want[k][i]) <= 1e-6, (k, got[k], want[k])


@given(edge_lists())
@SETTINGS
def test_clustering_local_matches_bruteforce(ray_session, df):
    import itertools

    import pyarrow as pa

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.graph import (
        _clustering_local,
    )

    out = _clustering_local(pa.Table.from_pandas(df), "src", "dst")
    adj = _adj(df)
    tri = {v: 0 for v in adj}
    for x, y, z in itertools.combinations(sorted(adj), 3):
        if y in adj[x] and z in adj[x] and z in adj[y]:
            tri[x] += 1
            tri[y] += 1
            tri[z] += 1
    got = {int(r["node"]): (int(r["n_tri"]), r["lcc"])
           for r in out.to_pylist()}
    assert set(got) == set(adj)
    for v in adj:
        k = len(adj[v])
        assert got[v][0] == tri[v], (v, got[v], tri[v])
        want_lcc = 2.0 * tri[v] / (k * (k - 1)) if k >= 2 else 0.0
        assert abs(got[v][1] - want_lcc) <= 1e-6


@given(frames(), st.integers(1, 6))
@SETTINGS
def test_hash_sample_property(ray_session, df, k):
    import ray.data

    from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.relational import (
        grouped_hash_sample,
    )

    got = grouped_hash_sample(
        ray.data.from_pandas(df).repartition(3), ["k"], k, "id").to_pandas()
    prio = (df["id"].to_numpy(np.uint64)
            * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
    want = (df.assign(__p=prio.astype(np.int64))
            .sort_values(["__p", "id"], kind="mergesort")
            .groupby("k", sort=False).head(k).drop(columns="__p"))
    cols = sorted(want.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False)
