"""Mixture-of-linear-experts regression (EM).

Ganguli 2023 "uses a trained mixture model ... to increase the
robustness of statistical approaches": datasets mixing sparse and dense
fields live on different regression surfaces, and a single global model
averages them badly.  This estimator fits K linear experts with Gaussian
noise via expectation–maximisation, with a Gaussian gating model over
the *inputs* so prediction-time assignment needs no target.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_X, check_X_y


def _kmeans_init(X: np.ndarray, k: int, rng: np.random.Generator, iters: int = 10) -> np.ndarray:
    """Plain Lloyd's k-means for responsibility initialisation."""
    n = X.shape[0]
    centers = X[rng.choice(n, size=min(k, n), replace=False)].copy()
    if centers.shape[0] < k:  # fewer points than clusters: duplicate
        reps = -(-k // centers.shape[0])
        centers = np.tile(centers, (reps, 1))[:k]
    for _ in range(iters):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        for j in range(k):
            members = X[assign == j]
            if members.size:
                centers[j] = members.mean(axis=0)
    return centers


class MixtureLinearRegression(BaseEstimator):
    """K linear experts + Gaussian input gating, trained by EM.

    E-step: responsibilities ∝ gate(x) · N(y | expertᵏ(x), σᵏ²).
    M-step: weighted least squares per expert; gate means/covariances
    from the same responsibilities.  Prediction averages experts under
    the input-only gate posterior.
    """

    def __init__(
        self,
        n_components: int = 3,
        n_iter: int = 50,
        reg: float = 1e-6,
        random_state: int | None = 0,
        tol: float = 1e-8,
    ) -> None:
        self.n_components = int(n_components)
        self.n_iter = int(n_iter)
        self.reg = float(reg)
        self.random_state = random_state
        self.tol = float(tol)

    # -- gating ---------------------------------------------------------------
    def _gate_log_prob(self, X: np.ndarray) -> np.ndarray:
        """log p(component | x) up to a shared constant: (n, K)."""
        out = np.empty((X.shape[0], self.n_components))
        for j in range(self.n_components):
            diff = X - self.gate_means_[j]
            out[:, j] = (
                np.log(self.weights_[j] + 1e-300)
                - 0.5 * (diff**2 / self.gate_vars_[j]).sum(axis=1)
                - 0.5 * np.log(self.gate_vars_[j]).sum()
            )
        return out

    def _gate_posterior(self, X: np.ndarray) -> np.ndarray:
        logp = self._gate_log_prob(X)
        logp -= logp.max(axis=1, keepdims=True)
        p = np.exp(logp)
        return p / p.sum(axis=1, keepdims=True)

    # -- EM ---------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "MixtureLinearRegression":
        from scipy import linalg

        X, y = check_X_y(X, y)
        # Standardise inputs internally: the gate works on any scale, but
        # the per-expert solves (and their extrapolation behaviour) are
        # far better conditioned on zero-mean unit-variance features.
        self.x_mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        self.x_scale_ = np.where(scale > 0, scale, 1.0)
        X = (X - self.x_mean_) / self.x_scale_
        n, d = X.shape
        K = self.n_components
        rng = np.random.default_rng(self.random_state)
        centers = _kmeans_init(X, K, rng)
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        resp = np.full((n, K), 1e-3)
        resp[np.arange(n), d2.argmin(axis=1)] = 1.0
        resp /= resp.sum(axis=1, keepdims=True)

        A = np.column_stack([np.ones(n), X])
        coefs = np.zeros((K, d + 1))
        sigma2 = np.full(K, y.var() + 1e-12)
        prev_ll = -np.inf
        for _ in range(self.n_iter):
            # M-step: weighted ridge per expert + gate statistics.
            weights = resp.sum(axis=0) / n
            gate_means = (resp.T @ X) / resp.sum(axis=0)[:, None]
            gate_vars = np.empty((K, d))
            for j in range(K):
                diff = X - gate_means[j]
                gate_vars[j] = (resp[:, j][:, None] * diff**2).sum(axis=0) / resp[:, j].sum()
            gate_vars = np.maximum(gate_vars, 1e-9)
            for j in range(K):
                w = resp[:, j]
                Aw = A * w[:, None]
                gram = Aw.T @ A
                # Scale the ridge term with the gram's magnitude so
                # near-empty components stay well conditioned.
                ridge = self.reg * max(float(np.trace(gram)) / (d + 1), 1.0)
                gram += ridge * np.eye(d + 1)
                coefs[j] = linalg.solve(gram, Aw.T @ y, assume_a="pos")
                res = y - A @ coefs[j]
                sigma2[j] = max(float((w * res**2).sum() / max(w.sum(), 1e-12)), 1e-12)
            self.weights_, self.gate_means_, self.gate_vars_ = weights, gate_means, gate_vars
            # E-step.
            log_lik = self._gate_log_prob(X)
            for j in range(K):
                res = y - A @ coefs[j]
                log_lik[:, j] += -0.5 * res**2 / sigma2[j] - 0.5 * np.log(2 * np.pi * sigma2[j])
            m = log_lik.max(axis=1, keepdims=True)
            p = np.exp(log_lik - m)
            norm = p.sum(axis=1, keepdims=True)
            resp = p / norm
            ll = float((np.log(norm).sum() + m.sum()))
            if abs(ll - prev_ll) < self.tol * (abs(prev_ll) + 1):
                break
            prev_ll = ll
        self.coefs_ = coefs
        self.sigma2_ = sigma2
        self.n_features_ = d
        self.log_likelihood_ = prev_ll
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = check_X(X, self.n_features_)
        X = (X - self.x_mean_) / self.x_scale_
        A = np.column_stack([np.ones(X.shape[0]), X])
        post = self._gate_posterior(X)
        preds = A @ self.coefs_.T  # (n, K)
        return (post * preds).sum(axis=1)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Predictive standard deviation under the mixture (law of total
        variance across experts)."""
        X = check_X(X, self.n_features_)
        X = (X - self.x_mean_) / self.x_scale_
        A = np.column_stack([np.ones(X.shape[0]), X])
        post = self._gate_posterior(X)
        preds = A @ self.coefs_.T
        mean = (post * preds).sum(axis=1, keepdims=True)
        var = (post * (self.sigma2_[None, :] + (preds - mean) ** 2)).sum(axis=1)
        return np.sqrt(var)
