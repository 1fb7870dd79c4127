"""The engine's one rounding rule: DuckDB's ``round(DOUBLE, n)``.

DuckDB computes ``std::round(x * 10**n) / 10**n`` and returns ``x`` when
that is not finite. ``std::round`` rounds half away from zero on the
exact scaled value, so ``np.round`` / ``pc.round`` / builtin ``round``
(half to even), ``floor(y + 0.5)`` (negative ties round up) and
``pc.round(..., round_mode="half_towards_infinity")`` (returns ``x``
unchanged when ``x * 10**n`` is already integral, one ulp off the
divided-back value) each disagree with it on some inputs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _round(x: np.ndarray, ndigits: int) -> np.ndarray:
    scale = 10.0 ** ndigits
    with np.errstate(invalid="ignore", over="ignore"):
        y = x * scale
        a = np.abs(y)
        whole = np.floor(a)
        # a - floor(a) is exact, so the tie test sees the true fraction.
        out = np.copysign(whole + (a - whole >= 0.5), y) / scale
    return np.where(np.isfinite(out), out, x)


def sql_round(x, ndigits: int = 0):
    """Round ``x`` to ``ndigits >= 0`` decimals bit for bit as DuckDB's
    ``round(DOUBLE, ndigits)`` does.

    A Python or NumPy scalar gives a float (None stays None); an Arrow
    array or chunked array gives Arrow float64 with its nulls kept; any
    other array-like (NumPy array, pandas Series, list) gives a float64
    ndarray."""
    if isinstance(x, pa.ChunkedArray):
        return pa.chunked_array([sql_round(c, ndigits) for c in x.chunks],
                                pa.float64())
    if isinstance(x, pa.Array):
        vals = x.cast(pa.float64()).to_numpy(zero_copy_only=False)
        mask = x.is_null().to_numpy(zero_copy_only=False) if x.null_count else None
        return pa.array(_round(vals, ndigits), pa.float64(), mask=mask)
    if x is None:
        return None
    if isinstance(x, pd.Series):
        x = x.to_numpy(np.float64, na_value=np.nan)
    if np.ndim(x) == 0:
        return float(_round(np.float64(x), ndigits))
    return _round(np.asarray(x, np.float64), ndigits)
