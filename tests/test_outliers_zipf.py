"""Label-noise mining (pipelines/similarity.label_outliers) and Zipf
rank-frequency fit (pipelines/textstats.zipf_fit): planted outliers
flag, z matches an explicit reimplementation, singleton labels emit
null z, an exact power-law corpus recovers its slope, and both are
partition-independent."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.similarity import (
    label_outliers,
)
from nlp_graphrag_with_qdrant_and_neo4j_ray.pipelines.textstats import (
    zipf_fit,
)


def _emb_ds():
    rng = np.random.default_rng(3)
    vecs, labels, ids = [], [], []
    i = 0
    for lab, c in ((0, [10, 0, 0]), (1, [0, 10, 0])):
        for _ in range(20):
            vecs.append(np.array(c, float) + rng.normal(0, 0.3, 3))
            labels.append(lab)
            ids.append(i)
            i += 1
    # planted mislabeled point: lives at cluster 1 but labeled 0
    vecs.append(np.array([0, 10, 0], float))
    labels.append(0)
    ids.append(i)
    # singleton label: no sample stddev
    vecs.append(np.array([5, 5, 5], float))
    labels.append(9)
    ids.append(i + 1)
    return rd.from_arrow(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "label": pa.array(np.array(labels, np.int32), pa.int32()),
        "embedding": pa.array(
            [np.asarray(v, np.float32) for v in vecs],
            pa.list_(pa.float32())),
    })), np.array([np.asarray(v, np.float32) for v in vecs],
                  dtype=np.float64), np.array(labels), np.array(ids)


def py_outliers(vecs, labels):
    out = {}
    for lab in np.unique(labels):
        m = vecs[labels == lab]
        ids = np.nonzero(labels == lab)[0]
        c = m.mean(axis=0)
        cu = c / np.linalg.norm(c)
        cos = (m / np.linalg.norm(m, axis=1)[:, None]) @ cu
        if len(cos) >= 2:
            z = (cos - cos.mean()) / cos.std(ddof=1)
        else:
            z = np.full(len(cos), np.nan)
        for i, cv, zv in zip(ids, cos, z):
            out[int(i)] = (round(float(cv), 6),
                           None if np.isnan(zv) else round(float(zv), 6))
    return out


def test_outliers_match_reimplementation_and_flag(ray_session):
    ds, vecs, labels, ids = _emb_ds()
    got = label_outliers(ds).to_pandas().set_index("vec_id")
    want = py_outliers(vecs, labels)
    for vid, (cv, zv) in want.items():
        row = got.loc[ids[vid]]
        assert row["cos_own"] == cv
        if zv is None:
            assert np.isnan(row["z"]) or row["z"] is None
            assert not row["flagged"]
        else:
            assert row["z"] == zv
    # the planted mislabeled point is flagged and is the worst outlier
    flagged = got[got["flagged"]]
    assert 40 in set(flagged.index)
    assert got["z"].idxmin() == 40
    assert (flagged["z"] <= -2.0).all()


def test_outliers_partition_independent(ray_session, fixed_partitions):
    ds, *_ = _emb_ds()
    fixed_partitions(1)
    a = (label_outliers(ds.repartition(1))
         .to_pandas().sort_values("vec_id").reset_index(drop=True))
    fixed_partitions(5)
    b = (label_outliers(ds.repartition(7))
         .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert a.equals(b)


def test_zipf_exact_power_law(ray_session):
    # freq(rank r) = 2^(10-r): ln f = 10 ln 2 - r... not log-log linear.
    # Use f(r) = round(1000 / r): near-perfect slope -1 on log-log.
    toks = []
    for r in range(1, 21):
        toks += [f"tok{r:02d}"] * round(1000 / r)
    text = " ".join(toks)
    ds = rd.from_arrow(pa.table({"doc_id": [0], "text": [text]}))
    out = zipf_fit(ds, k=20).to_pandas()
    assert out["k"].iloc[0] == 20
    assert abs(out["slope"].iloc[0] + 1.0) < 0.01
    assert out["r2"].iloc[0] > 0.999


def test_zipf_partition_independent(ray_session, fixed_partitions):
    texts = ["a a a a b b c", "a a b c d", "b a a c d e"]
    ds1 = rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2], "text": texts})).repartition(1)
    ds3 = rd.from_arrow(pa.table({
        "doc_id": [0, 1, 2], "text": texts})).repartition(3)
    fixed_partitions(1)
    a = zipf_fit(ds1, k=10).to_pandas()
    fixed_partitions(7)
    b = zipf_fit(ds3, k=10).to_pandas()
    assert a.equals(b)
