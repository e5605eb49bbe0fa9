"""Natural cubic spline regression.

Underwood & Bessac 2023 replaced Krasowska's plain linear fit with "a
more sophisticated cubic spline regression"; this module provides that
model family: a **natural cubic spline basis** per feature (truncated
power basis with the natural boundary constraints absorbed, following
Hastie/Tibshirani/Friedman §5.2.1) combined additively and fitted by
ridge-regularised least squares.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_X, check_X_y


def natural_cubic_basis(x: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Evaluate the natural cubic spline basis at *x*.

    For K knots the basis has K−1 columns: the identity plus K−2
    curvature terms that are linear beyond the boundary knots.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    knots = np.asarray(knots, dtype=np.float64)
    K = knots.size
    if K < 3:
        return x[:, None]

    def d(j: int) -> np.ndarray:
        num = np.maximum(x - knots[j], 0.0) ** 3 - np.maximum(x - knots[-1], 0.0) ** 3
        return num / (knots[-1] - knots[j])

    cols = [x]
    dK1 = d(K - 2)
    for j in range(K - 2):
        cols.append(d(j) - dK1)
    return np.column_stack(cols)


def quantile_knots(x: np.ndarray, n_knots: int) -> np.ndarray:
    """Knots at equally spaced quantiles, deduplicated."""
    qs = np.linspace(0, 1, n_knots)
    knots = np.unique(np.quantile(np.asarray(x, dtype=np.float64), qs))
    return knots


class NaturalSplineRegression(BaseEstimator):
    """Additive natural cubic spline model over all features.

    Each feature contributes its own spline basis; the combined design
    matrix is solved by ridge-regularised least squares (a small
    ``alpha`` keeps near-duplicate knots benign).  With fewer than three
    distinct values a feature degrades gracefully to a linear term.
    """

    def __init__(self, n_knots: int = 5, alpha: float = 1e-6) -> None:
        self.n_knots = int(n_knots)
        self.alpha = float(alpha)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NaturalSplineRegression":
        from scipy import linalg

        X, y = check_X_y(X, y)
        self.knots_ = [quantile_knots(X[:, j], self.n_knots) for j in range(X.shape[1])]
        B = self._design(X)
        A = np.column_stack([np.ones(B.shape[0]), B])
        gram = A.T @ A + self.alpha * np.eye(A.shape[1])
        self.coef_ = linalg.solve(gram, A.T @ y, assume_a="pos")
        self.n_features_ = X.shape[1]
        return self

    def _design(self, X: np.ndarray) -> np.ndarray:
        blocks = [natural_cubic_basis(X[:, j], self.knots_[j]) for j in range(X.shape[1])]
        return np.column_stack(blocks)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X, self.n_features_)
        B = self._design(X)
        A = np.column_stack([np.ones(B.shape[0]), B])
        return A @ self.coef_
