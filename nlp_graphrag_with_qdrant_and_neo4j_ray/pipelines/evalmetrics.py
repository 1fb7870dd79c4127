"""Ranking / classification evaluation metrics over (score, label)
datasets — the audit layer for quality-filter thresholds and classifier
outputs (does a score actually rank the positive class higher, and is
it calibrated?). Complements the agreement / confusion audits in
pipelines/clean.py: those compare two FILTERS, these grade one SCORE
against a label.

Scale shape: both operators reduce to a bounded per-score (or per-bin)
count table — a per-batch pyarrow group-by combiner, ONE co-partitioned
exchange, then a fold over at most ``10^ndigits + 1`` (AUC) or ``bins``
(calibration) rows. The AUC numerator is computed ENTIRELY in int64
(``Σ np·(2·cum_nn + nn)``), so the single final float division is
bit-identical to a SQL oracle evaluating the same formula — no
summation-order float drift.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.rounding import sql_round
from ..stages.shuffle import combine, grouped_apply


def ranking_auc(ds, score_col: str = "score", label_col: str = "pos",
                ndigits: int = 3):
    """ROC-AUC of ``score_col`` ranking ``label_col`` (0/1), by the
    Mann-Whitney rank statistic with average-rank tie handling:
    ``AUC = Σ_s np(s)·(cum_nn(<s) + nn(s)/2) / (NP·NN)``.

    Scores are rounded to ``ndigits`` decimals FIRST (the oracle
    contract: a [0,1] score quantizes to ≤ 10^ndigits + 1 distinct
    values, which bounds both the exchange and the driver fold — the
    quantization is part of the metric's definition here, not an
    approximation the oracle can't see). Returns a one-row pyarrow
    table (auc, n_pos, n_neg); ``auc`` is NULL when either class is
    empty, matching SQL's NULL division.
    """

    def partial(b: pa.Table) -> pa.Table:
        sc = sql_round(b.column(score_col), ndigits)
        t = pa.table({
            "score": sc,
            "np": pc.cast(b.column(label_col), pa.int64()),
            "one": pa.array(np.ones(b.num_rows, np.int64)),
        })
        g = t.group_by(["score"]).aggregate([("np", "sum"),
                                             ("one", "sum")])
        return g.rename_columns(["score", "np", "n"])

    def merge(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["score"]).aggregate([("np", "sum"),
                                               ("n", "sum")])
        return g.rename_columns(["score", "np", "n"])

    rows = grouped_apply(
        combine(ds, partial),
        ["score"], merge,
    ).take_all()  # bounded: ≤ 10^ndigits + 1 distinct rounded scores

    if rows:
        pdf = pd.DataFrame(rows).sort_values("score")
        np_arr = pdf["np"].to_numpy(np.int64)
        n_arr = pdf["n"].to_numpy(np.int64)
    else:
        np_arr = n_arr = np.array([], np.int64)
    nn_arr = n_arr - np_arr
    n_pos, n_neg = int(np_arr.sum()), int(nn_arr.sum())
    if n_pos == 0 or n_neg == 0:
        auc = None
    else:
        cum_nn = np.concatenate([[0], np.cumsum(nn_arr)[:-1]])
        num2 = int((np_arr * (2 * cum_nn + nn_arr)).sum())
        auc = sql_round(num2 / (2.0 * n_pos * n_neg), 6)
    return pa.table({
        "auc": pa.array([auc], pa.float64()),
        "n_pos": pa.array([n_pos], pa.int64()),
        "n_neg": pa.array([n_neg], pa.int64()),
    })


def calibration_bins(ds, score_col: str = "score",
                     label_col: str = "pos", bins: int = 10):
    """Reliability table: fixed-width score bins
    (``min(floor(score·bins), bins-1)``, clamped at 0) with per-bin
    count, positive count, and positive fraction — the calibration
    curve's data. ``frac_pos`` is a single int/int division rounded to
    6, so it hashes identically to the SQL replay. Returns a Dataset
    sorted by bin."""

    def partial(b: pa.Table) -> pa.Table:
        sc = pc.cast(b.column(score_col), pa.float64()).to_numpy(
            zero_copy_only=False)
        bn = np.clip(np.floor(sc * bins).astype(np.int64), 0, bins - 1)
        t = pa.table({
            "bin": pa.array(bn),
            "n_pos": pc.cast(b.column(label_col), pa.int64()),
            "one": pa.array(np.ones(b.num_rows, np.int64)),
        })
        g = t.group_by(["bin"]).aggregate([("n_pos", "sum"),
                                           ("one", "sum")])
        return g.rename_columns(["bin", "n_pos", "n"])

    def merge(tbl: pa.Table) -> pa.Table:
        g = tbl.group_by(["bin"]).aggregate([("n_pos", "sum"),
                                             ("n", "sum")])
        g = g.rename_columns(["bin", "n_pos", "n"])
        frac = sql_round(
            pc.divide(pc.cast(g.column("n_pos"), pa.float64()),
                      pc.cast(g.column("n"), pa.float64())), 6)
        return g.append_column("frac_pos", frac)

    return grouped_apply(
        combine(ds, partial),
        ["bin"], merge,
    ).sort("bin")


def cohens_kappa(census_ds, a_col: str, b_col: str, n_col: str = "n"):
    """Cohen's kappa from a 2×2 agreement census (two binary raters /
    filters): chance-corrected agreement
    ``κ = (p_o − p_e) / (1 − p_e)`` — the number that says whether two
    quality filters actually agree beyond what their keep-rates force.
    Input is an already-aggregated census Dataset (≤4 rows: a_col,
    b_col ∈ {0,1}, n_col counts), so the fold is a bounded driver
    reduction; the divisions mirror a SQL replay operation-for-
    operation (int sums, then the same DOUBLE expression), so the
    one-row output (n_docs, po, pe, kappa) hashes identically.
    """
    rows = census_ds.take_all()  # ≤ 4 rows by construction
    n = sum(int(r[n_col]) for r in rows)
    a = sum(int(r[n_col]) for r in rows
            if r[a_col] == 1 and r[b_col] == 1)
    d = sum(int(r[n_col]) for r in rows
            if r[a_col] == 0 and r[b_col] == 0)
    g1 = sum(int(r[n_col]) for r in rows if r[a_col] == 1)
    q1 = sum(int(r[n_col]) for r in rows if r[b_col] == 1)
    if n == 0:
        po = pe = kappa = None
    else:
        po = float(a + d) / n
        pe = float(g1 * q1 + (n - g1) * (n - q1)) / (n * n)
        kappa = None if pe == 1.0 else (po - pe) / (1.0 - pe)

    return pa.table({
        "n_docs": pa.array([n], pa.int64()),
        "po": pa.array([sql_round(po, 6)], pa.float64()),
        "pe": pa.array([sql_round(pe, 6)], pa.float64()),
        "kappa": pa.array([sql_round(kappa, 6)], pa.float64()),
    })


def classification_prf(confusion_ds, true_col: str = "declared",
                       pred_col: str = "pred", n_col: str = "n"):
    """Per-class precision / recall / F1 from a confusion-matrix
    Dataset (true_col × pred_col × count) — the class-level report
    behind a routing decision (which languages can the detector be
    trusted on?). Zero-denominator cells are NULL (matching SQL's
    NULL-on-zero contract; F1 is NULL when tp = 0 since p + r = 0).
    The census is ≤ |classes|² rows, so the fold is a bounded driver
    reduction; every metric is a fixed expression over int counts, so
    a SQL replay hashes identically. Output sorted by class:
    ``(label, tp, pred_n, true_n, precision, recall, f1)``.
    """
    rows = confusion_ds.take_all()  # bounded: |classes|²
    labels = sorted({r[true_col] for r in rows}
                    | {r[pred_col] for r in rows})
    out = {k: [] for k in ("label", "tp", "pred_n", "true_n",
                           "precision", "recall", "f1")}
    for lab in labels:
        tp = sum(int(r[n_col]) for r in rows
                 if r[true_col] == lab and r[pred_col] == lab)
        pred_n = sum(int(r[n_col]) for r in rows
                     if r[pred_col] == lab)
        true_n = sum(int(r[n_col]) for r in rows
                     if r[true_col] == lab)
        p = float(tp) / pred_n if pred_n > 0 else None
        rc = float(tp) / true_n if true_n > 0 else None
        f1 = (2 * p * rc / (p + rc)
              if tp > 0 and p is not None and rc is not None else None)
        out["label"].append(lab)
        out["tp"].append(tp)
        out["pred_n"].append(pred_n)
        out["true_n"].append(true_n)
        out["precision"].append(sql_round(p, 6))
        out["recall"].append(sql_round(rc, 6))
        out["f1"].append(sql_round(f1, 6))
    return pa.table({
        "label": pa.array(out["label"]),
        "tp": pa.array(out["tp"], pa.int64()),
        "pred_n": pa.array(out["pred_n"], pa.int64()),
        "true_n": pa.array(out["true_n"], pa.int64()),
        "precision": pa.array(out["precision"], pa.float64()),
        "recall": pa.array(out["recall"], pa.float64()),
        "f1": pa.array(out["f1"], pa.float64()),
    })
