"""Gaussian process regression (RBF kernel, exact inference).

The model family behind Lu 2018 ("Understanding and Modeling Lossy
Compression Schemes on HPC Scientific Data", IPDPS'18), which fits
Gaussian-process models from compressor-internal statistics to the
compression ratio.  Standard exact GP regression: Cholesky of the
kernel matrix, analytic posterior mean/variance; inputs standardised
internally and kernel hyper-parameters set by the median heuristic so
no gradient optimisation is needed at these data scales.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_X, check_X_y


def rbf_kernel(A: np.ndarray, B: np.ndarray, length_scale: float) -> np.ndarray:
    """Squared-exponential kernel matrix between row sets A and B."""
    a2 = (A * A).sum(axis=1)[:, None]
    b2 = (B * B).sum(axis=1)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.exp(-0.5 * d2 / (length_scale**2))


def median_heuristic(X: np.ndarray) -> float:
    """The classic kernel-width heuristic: median pairwise distance."""
    n = X.shape[0]
    if n < 2:
        return 1.0
    # Subsample for large n to keep this O(1) in practice.
    if n > 256:
        idx = np.random.default_rng(0).choice(n, 256, replace=False)
        X = X[idx]
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    vals = np.sqrt(d2[np.triu_indices_from(d2, k=1)])
    med = float(np.median(vals)) if vals.size else 1.0
    return med if med > 0 else 1.0


class GaussianProcessRegressor(BaseEstimator):
    """Exact GP regression with an RBF kernel and Gaussian noise.

    Parameters
    ----------
    length_scale:
        Kernel width; ``None`` selects the median heuristic at fit time.
    noise:
        Observation noise variance (relative to the standardised
        target's unit variance).
    """

    def __init__(self, length_scale: float | None = None, noise: float = 1e-2) -> None:
        self.length_scale = length_scale
        self.noise = float(noise)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        from scipy import linalg

        X, y = check_X_y(X, y)
        self.x_mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        self.x_scale_ = np.where(scale > 0, scale, 1.0)
        Xs = (X - self.x_mean_) / self.x_scale_
        self.y_mean_ = float(y.mean())
        y_std = float(y.std())
        self.y_scale_ = y_std if y_std > 0 else 1.0
        ys = (y - self.y_mean_) / self.y_scale_
        ls = self.length_scale if self.length_scale is not None else median_heuristic(Xs)
        self.length_scale_ = float(ls)
        K = rbf_kernel(Xs, Xs, self.length_scale_)
        K[np.diag_indices_from(K)] += self.noise
        self.chol_ = linalg.cholesky(K, lower=True)
        self.alpha_ = linalg.cho_solve((self.chol_, True), ys)
        self.X_train_ = Xs
        self.n_features_ = X.shape[1]
        return self

    def _standardise(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X, self.n_features_)
        return (X - self.x_mean_) / self.x_scale_

    def predict(self, X: np.ndarray) -> np.ndarray:
        Ks = rbf_kernel(self._standardise(X), self.X_train_, self.length_scale_)
        return self.y_mean_ + self.y_scale_ * (Ks @ self.alpha_)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Posterior predictive standard deviation (incl. noise)."""
        from scipy import linalg

        Xs = self._standardise(X)
        Ks = rbf_kernel(Xs, self.X_train_, self.length_scale_)
        v = linalg.solve_triangular(self.chol_, Ks.T, lower=True)
        var = 1.0 + self.noise - (v * v).sum(axis=0)
        return self.y_scale_ * np.sqrt(np.maximum(var, 1e-12))

    def log_marginal_likelihood(self) -> float:
        """Of the standardised training targets (model-selection aid)."""
        n = self.X_train_.shape[0]
        ys = (self.alpha_ @ (self.chol_ @ (self.chol_.T @ self.alpha_)))  # == ysᵀ K⁻¹ ys
        logdet = 2.0 * float(np.log(np.diag(self.chol_)).sum())
        return float(-0.5 * ys - 0.5 * logdet - 0.5 * n * np.log(2 * np.pi))
