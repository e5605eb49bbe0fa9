"""Linear models: ordinary least squares and ridge regression.

The Krasowska 2021 scheme fits a "simple trained linear regression" over
two features; ridge is its numerically safer sibling used wherever
collinear features appear (the Ganguli feature set).  Solved with
``scipy.linalg.lstsq`` / the regularised normal equations — no iterative
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


class Ridge(BaseEstimator):
    """L2-regularised least squares (intercept not penalised).

    Features are centred before solving so the penalty applies only to
    slopes; ``alpha=0`` reduces to OLS on non-degenerate problems.
    """

    def __init__(self, alpha: float = 1.0) -> None:
        self.alpha = float(alpha)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Ridge":
        from scipy import linalg

        X, y = check_X_y(X, y)
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        Xc = X - x_mean
        yc = y - y_mean
        n_features = X.shape[1]
        gram = Xc.T @ Xc + self.alpha * np.eye(n_features)
        self.coef_ = linalg.solve(gram, Xc.T @ yc, assume_a="pos")
        self.intercept_ = y_mean - float(x_mean @ self.coef_)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X, self.coef_.size)
        return self.intercept_ + X @ self.coef_
