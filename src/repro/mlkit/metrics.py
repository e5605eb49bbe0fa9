"""Regression quality metrics.

The paper's headline quality number is **MedAPE** — the median absolute
percentage error — chosen (following Ganguli 2023, Krasowska 2021 and
Underwood 2023) because it is robust to outliers and to the scale of the
predicted metric.  ``r2_score`` and ``coverage`` are its companions for
the model families and the conformal intervals.
"""

from __future__ import annotations

import numpy as np


def _pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(y_true, dtype=np.float64).reshape(-1)
    p = np.asarray(y_pred, dtype=np.float64).reshape(-1)
    if t.shape != p.shape:
        raise ValueError("y_true and y_pred must have the same length")
    if t.size == 0:
        raise ValueError("empty inputs")
    return t, p


def absolute_percentage_errors(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """|pred − true| / |true| × 100 per sample (true == 0 raises)."""
    t, p = _pair(y_true, y_pred)
    if (t == 0).any():
        raise ValueError("APE undefined where y_true == 0")
    return np.abs(p - t) / np.abs(t) * 100.0


def medape(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Median Absolute Percentage Error, in percent (paper's Table 2)."""
    return float(np.median(absolute_percentage_errors(y_true, y_pred)))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination; 0 for a constant true vector."""
    t, p = _pair(y_true, y_pred)
    ss_res = float(np.sum((t - p) ** 2))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0:
        return 0.0 if ss_res > 0 else 1.0
    return 1.0 - ss_res / ss_tot


def coverage(y_true: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Fraction of true values inside [lo, hi] (conformal validity check)."""
    t = np.asarray(y_true, dtype=np.float64).reshape(-1)
    lo = np.asarray(lo, dtype=np.float64).reshape(-1)
    hi = np.asarray(hi, dtype=np.float64).reshape(-1)
    return float(np.mean((t >= lo) & (t <= hi)))
