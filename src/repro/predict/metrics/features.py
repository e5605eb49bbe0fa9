"""Error-agnostic statistical feature metrics.

These metrics look only at the uncompressed input (hook:
``begin_compress_impl``), so their ``predictors:invalidate`` declaration
is ``predictors:error_agnostic`` — they can be computed once per dataset
and reused across every error bound and compressor configuration, which
is the reuse opportunity (Q1) the evaluator's cache exploits.

Implemented features and their provenance:

* value statistics (mean/std/range/skewness/kurtosis) — generic, used by
  FXRZ (Rahman 2023);
* sparsity (exact-zero ratio) — FXRZ's sparsity correction input;
* lag-1 spatial correlation, spatial diversity, spatial smoothness —
  the three bespoke Ganguli 2023 metrics;
* coding gain — Ganguli 2023's "existing metric";
* variogram slope — Krasowska 2021;
* SVD truncation rank — Underwood & Bessac 2023 (expensive; the paper's
  §6 discusses amortising its ~771 ms cost across predictions).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...core.data import PressioData
from ...core.metrics import ERROR_AGNOSTIC, NONDETERMINISTIC, MetricsPlugin
from ...core.options import PressioOptions
from ...encoding.entropy import coding_gain
from ...encoding.rle import zero_run_ratio


def _lagged(arr: np.ndarray, axis: int, lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of *arr* without its last / first *lag* planes along *axis*.

    Basic slices, not copies; the callers' differences are written in C
    order, as the copies they replaced were, so each reduction adds the
    same values in the same order and the results are bit-identical.
    """
    head = [slice(None)] * arr.ndim
    tail = list(head)
    head[axis] = slice(0, arr.shape[axis] - lag)
    tail[axis] = slice(lag, None)
    return arr[tuple(head)], arr[tuple(tail)]


def lag_correlations(array: np.ndarray, lag: int = 1) -> float:
    """Mean lag-*lag* Pearson autocorrelation across all axes."""
    arr = np.asarray(array, dtype=np.float64)
    std = arr.std()
    if std == 0 or arr.size < 2:
        return 1.0
    mean = arr.mean()
    cors = []
    for axis in range(arr.ndim):
        if arr.shape[axis] <= lag:
            continue
        head, tail = _lagged(arr, axis, lag)
        a = np.subtract(head, mean, order="C")
        b = np.subtract(tail, mean, order="C")
        denom = np.sqrt((a * a).mean() * (b * b).mean())
        if denom > 0:
            cors.append(float((a * b).mean() / denom))
    return float(np.mean(cors)) if cors else 1.0


def spatial_diversity(array: np.ndarray, block: int = 8) -> float:
    """Ratio of between-block to total variability.

    High when different regions live at different levels (e.g. a sparse
    field: a zero ocean plus an active ring) — exactly the regime the
    paper blames for sampling-estimator failures.
    """
    flat = np.asarray(array, dtype=np.float64).reshape(-1)
    std = flat.std()
    if std == 0:
        return 0.0
    n = (flat.size // block) * block
    if n == 0:
        return 0.0
    means = flat[:n].reshape(-1, block).mean(axis=1)
    return float(means.std() / std)


def spatial_smoothness(array: np.ndarray) -> float:
    """1 − (mean |first difference| / (2·std)); 1 is perfectly smooth."""
    arr = np.asarray(array, dtype=np.float64)
    std = arr.std()
    if std == 0 or arr.size < 2:
        return 1.0
    grads = []
    for axis in range(arr.ndim):
        if arr.shape[axis] > 1:
            grads.append(float(np.abs(np.diff(arr, axis=axis)).mean()))
    if not grads:
        return 1.0
    return float(1.0 - np.mean(grads) / (2.0 * std))


def variogram_slope(array: np.ndarray, max_lag: int = 4) -> float:
    """Log-log slope of the empirical variogram over small lags.

    γ(h) = mean squared increment at lag h, averaged over axes; the
    slope in log space measures how quickly information accumulates with
    distance (Krasowska 2021's local variogram feature).
    """
    arr = np.asarray(array, dtype=np.float64)
    lags = []
    gammas = []
    for h in range(1, max_lag + 1):
        vals = []
        for axis in range(arr.ndim):
            if arr.shape[axis] > h:
                head, tail = _lagged(arr, axis, h)
                d = np.subtract(tail, head, order="C")
                vals.append(float((d * d).mean() * 0.5))
        if vals:
            g = float(np.mean(vals))
            if g > 0:
                lags.append(h)
                gammas.append(g)
    if len(lags) < 2:
        return 0.0
    x = np.log(np.asarray(lags, dtype=np.float64))
    y = np.log(np.asarray(gammas, dtype=np.float64))
    slope = float(np.polyfit(x, y, 1)[0])
    return slope


def svd_truncation_rank(array: np.ndarray, energy: float = 0.999) -> int:
    """Singular values needed to capture *energy* of the unfolded array.

    The array is unfolded into a near-square matrix; economy SVD via
    LAPACK (``full_matrices=False`` — the guides' SVD optimisation).  A
    low rank means the data's global spatial information is concentrated
    → highly compressible (Underwood & Bessac 2023).
    """
    from scipy import linalg

    arr = np.asarray(array, dtype=np.float64)
    flat = arr.reshape(-1)
    if flat.size == 0:
        return 0
    # Unfold to the most square matrix an axis split allows.
    if arr.ndim >= 2:
        rows = arr.shape[0]
        mat = arr.reshape(rows, -1)
    else:
        rows = int(np.sqrt(flat.size))
        mat = flat[: rows * rows].reshape(rows, rows) if rows >= 2 else flat.reshape(1, -1)
    s = linalg.svd(mat, compute_uv=False)
    total = float((s * s).sum())
    if total == 0:
        return 0
    cum = np.cumsum(s * s) / total
    return int(np.searchsorted(cum, energy) + 1)


class ValueStatsMetric(MetricsPlugin):
    """Mean/std/range/skewness/kurtosis of the input."""

    id = "stat"
    invalidations = (ERROR_AGNOSTIC,)

    def __init__(self, **options: Any) -> None:
        super().__init__(**options)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        arr = np.asarray(input_data.array, dtype=np.float64).reshape(-1)
        if arr.size == 0:
            return
        mean = float(arr.mean())
        std = float(arr.std())
        # Moments by multiplication: ``centered**3`` / ``**4`` would go
        # through the generic (and far slower) ``np.power`` loop.
        centered = arr - mean
        sq = centered * centered
        m2 = float(sq.mean())
        skew = float((sq * centered).mean() / m2**1.5) if m2 > 0 else 0.0
        kurt = float((sq * sq).mean() / m2**2) if m2 > 0 else 0.0
        self._results = {
            "mean": mean,
            "std": std,
            "value_range": float(arr.max() - arr.min()),
            "skewness": skew,
            "kurtosis": kurt,
        }

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


class SparsityMetric(MetricsPlugin):
    """Exact-zero ratio and near-constant structure (FXRZ inputs)."""

    id = "sparsity"
    invalidations = (ERROR_AGNOSTIC,)

    def __init__(self, **options: Any) -> None:
        super().__init__(**options)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        flat = np.asarray(input_data.array, dtype=np.float64).reshape(-1)
        zero_ratio = zero_run_ratio(flat)
        self._results = {
            "zero_ratio": zero_ratio,
            "nonzero_fraction": 1.0 - zero_ratio,
        }

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


class SpatialMetric(MetricsPlugin):
    """Ganguli 2023's spatial correlation / diversity / smoothness
    plus the classic coding gain."""

    id = "spatial"
    invalidations = (ERROR_AGNOSTIC,)

    def __init__(self, block: int = 8, **options: Any) -> None:
        super().__init__(**options)
        self.block = int(block)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        arr = input_data.array
        self._results = {
            "correlation": lag_correlations(arr),
            "diversity": spatial_diversity(arr, self.block),
            "smoothness": spatial_smoothness(arr),
            "coding_gain": coding_gain(arr, self.block),
        }

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


class VariogramMetric(MetricsPlugin):
    """Krasowska 2021's local variogram slope."""

    id = "variogram"
    invalidations = (ERROR_AGNOSTIC,)

    def __init__(self, max_lag: int = 4, **options: Any) -> None:
        super().__init__(**options)
        self.max_lag = int(max_lag)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        self._results = {"slope": variogram_slope(input_data.array, self.max_lag)}

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


class SVDTruncationMetric(MetricsPlugin):
    """Underwood 2023's SVD-truncation rank (expensive, amortisable).

    Declared nondeterministic *in addition to* error-agnostic because
    production implementations use randomized SVD (the paper names
    "randomized SVD implementations" as the canonical nondeterministic
    metric); this exact LAPACK version is deterministic but keeps the
    declaration so replicate handling is exercised.
    """

    id = "svd"
    invalidations = (ERROR_AGNOSTIC, NONDETERMINISTIC)

    def __init__(self, energy: float = 0.999, **options: Any) -> None:
        super().__init__(**options)
        self.energy = float(energy)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        rank = svd_truncation_rank(input_data.array, self.energy)
        n = max(input_data.size, 1)
        self._results = {
            "truncation_rank": rank,
            "relative_rank": rank / n ** 0.5,
        }

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))
