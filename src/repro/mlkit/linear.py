"""Linear model: ordinary least squares.

The Krasowska 2021 scheme fits a "simple trained linear regression" over
two features.  Solved with ``scipy.linalg.lstsq`` — no iterative
optimisation needed at these scales.  ``scipy.linalg`` is imported in
``fit``, so a process that only predicts, or never fits these models,
does not load scipy.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_X, check_X_y


class LinearRegression(BaseEstimator):
    """Ordinary least squares with an intercept."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LinearRegression":
        from scipy import linalg

        X, y = check_X_y(X, y)
        A = np.column_stack([np.ones(X.shape[0]), X])
        coef, *_ = linalg.lstsq(A, y)
        self.intercept_ = float(coef[0])
        self.coef_ = coef[1:]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X, self.coef_.size)
        return self.intercept_ + X @ self.coef_
