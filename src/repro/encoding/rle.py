"""Sparsity of a field: the share of elements at one value.

Sparse scientific fields (the Hurricane moisture variables) are mostly
zeros, and that share dominates their compressibility.
"""

from __future__ import annotations

import numpy as np


def zero_run_ratio(values: np.ndarray, zero: float = 0.0, atol: float = 0.0) -> float:
    """Fraction of elements sitting in runs of the given value.

    A cheap, error-agnostic sparsity indicator used by the Rahman 2023
    feature set (its "sparsity correction factor" input).
    """
    values = np.asarray(values).reshape(-1)
    if values.size == 0:
        return 0.0
    if atol > 0:
        mask = np.abs(values - zero) <= atol
    else:
        mask = values == zero
    return float(mask.mean())
