"""Tests for the GP and MLP regressors and the legacy schemes built on
them (Lu 2018, Qin 2020)."""

import numpy as np
import pytest

from repro.compressors import make_compressor
from repro.core import SizeMetrics, UnsupportedError
from repro.mlkit import (
    GaussianProcessRegressor,
    LinearRegression,
    MLPRegressor,
    median_heuristic,
    r2_score,
    rbf_kernel,
)
from repro.predict import get_scheme


@pytest.fixture(scope="module")
def wavy_data():
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(180, 2))
    y = np.sin(2 * X[:, 0]) + 0.5 * X[:, 1] ** 2 + 0.02 * rng.standard_normal(180)
    return X, y


class TestGaussianProcess:
    def test_kernel_properties(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((10, 3))
        K = rbf_kernel(A, A, 1.0)
        assert np.allclose(np.diag(K), 1.0)
        assert np.allclose(K, K.T)
        assert (K >= 0).all() and (K <= 1).all()

    def test_median_heuristic_positive(self):
        rng = np.random.default_rng(2)
        assert median_heuristic(rng.standard_normal((50, 4))) > 0
        assert median_heuristic(np.zeros((1, 3))) == 1.0

    def test_interpolates_training_points(self, wavy_data):
        X, y = wavy_data
        gp = GaussianProcessRegressor(noise=1e-6).fit(X[:60], y[:60])
        assert r2_score(y[:60], gp.predict(X[:60])) > 0.999

    def test_beats_linear_on_nonlinear(self, wavy_data):
        X, y = wavy_data
        train, test = slice(0, 120), slice(120, None)
        gp = GaussianProcessRegressor().fit(X[train], y[train])
        lin = LinearRegression().fit(X[train], y[train])
        assert r2_score(y[test], gp.predict(X[test])) > r2_score(
            y[test], lin.predict(X[test])
        )

    def test_predictive_std_grows_away_from_data(self, wavy_data):
        X, y = wavy_data
        gp = GaussianProcessRegressor().fit(X[:100], y[:100])
        near = gp.predict_std(X[:5])
        far = gp.predict_std(np.full((5, 2), 50.0))
        assert far.mean() > near.mean()

    def test_log_marginal_likelihood_finite(self, wavy_data):
        X, y = wavy_data
        gp = GaussianProcessRegressor().fit(X[:50], y[:50])
        assert np.isfinite(gp.log_marginal_likelihood())

    def test_fit_and_std_are_scipy_factorisations_bit_for_bit(self, wavy_data):
        from scipy import linalg

        X, y = wavy_data
        gp = GaussianProcessRegressor().fit(X[:80], y[:80])
        K = rbf_kernel(gp.X_train_, gp.X_train_, gp.length_scale_)
        K[np.diag_indices_from(K)] += gp.noise
        chol = linalg.cholesky(K, lower=True)
        ys = (y[:80] - gp.y_mean_) / gp.y_scale_
        assert gp.chol_.tobytes() == chol.tobytes()
        assert gp.alpha_.tobytes() == linalg.cho_solve((chol, True), ys).tobytes()
        Xs = (X[80:90] - gp.x_mean_) / gp.x_scale_
        Ks = rbf_kernel(Xs, gp.X_train_, gp.length_scale_)
        v = linalg.solve_triangular(chol, Ks.T, lower=True)
        want = gp.y_scale_ * np.sqrt(np.maximum(1.0 + gp.noise - (v * v).sum(axis=0), 1e-12))
        assert gp.predict_std(X[80:90]).tobytes() == want.tobytes()

    def test_explicit_length_scale(self, wavy_data):
        X, y = wavy_data
        gp = GaussianProcessRegressor(length_scale=0.7).fit(X[:50], y[:50])
        assert gp.length_scale_ == 0.7


class TestMLP:
    def test_fits_nonlinear(self, wavy_data):
        X, y = wavy_data
        train, test = slice(0, 120), slice(120, None)
        mlp = MLPRegressor(epochs=500, random_state=0).fit(X[train], y[train])
        assert r2_score(y[test], mlp.predict(X[test])) > 0.9

    def test_deterministic_given_seed(self, wavy_data):
        X, y = wavy_data
        a = MLPRegressor(epochs=50, random_state=7).fit(X, y).predict(X[:5])
        b = MLPRegressor(epochs=50, random_state=7).fit(X, y).predict(X[:5])
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, wavy_data):
        X, y = wavy_data
        a = MLPRegressor(epochs=50, random_state=1).fit(X, y).predict(X[:5])
        b = MLPRegressor(epochs=50, random_state=2).fit(X, y).predict(X[:5])
        assert not np.array_equal(a, b)

    def test_constant_target(self):
        X = np.random.default_rng(3).standard_normal((40, 2))
        mlp = MLPRegressor(epochs=50).fit(X, np.full(40, 5.0))
        assert mlp.predict(X[:4]) == pytest.approx([5.0] * 4, abs=0.1)

    def test_hidden_architecture_param(self, wavy_data):
        X, y = wavy_data
        mlp = MLPRegressor(hidden=(8,), epochs=100).fit(X, y)
        assert len(mlp.weights_) == 2  # one hidden + output


class TestLegacySchemes:
    @pytest.fixture(scope="class")
    def training(self, small_hurricane):
        rows_by_scheme = {}
        for name in ("lu2018", "qin2020"):
            scheme = get_scheme(name)
            rows, targets = [], []
            for i in range(len(small_hurricane)):
                data = small_hurricane.load_data(i)
                arr = data.array
                eb = 1e-4 * float(arr.max() - arr.min() or 1.0)
                comp = make_compressor("sz3", pressio__abs=eb)
                res = scheme.req_metrics_opts(comp).evaluate(data).to_dict()
                res.update(scheme.config_features(comp))
                rows.append(res)
                size = SizeMetrics()
                comp.set_metrics([size])
                comp.compress(data)
                targets.append(comp.get_metrics_results()["size:compression_ratio"])
            rows_by_scheme[name] = (rows, np.asarray(targets))
        return rows_by_scheme

    @pytest.mark.parametrize("name", ["lu2018", "qin2020"])
    def test_fit_predict_reasonable(self, name, training):
        from repro.mlkit import medape

        rows, y = training[name]
        scheme = get_scheme(name)
        comp = make_compressor("sz3", pressio__abs=1e-3)
        predictor = scheme.get_predictor(comp)
        split = len(rows) * 2 // 3
        predictor.fit(rows[:split], y[:split])
        preds = predictor.predict_many(rows[split:])
        assert medape(y[split:], preds) < 120.0

    @pytest.mark.parametrize("name", ["lu2018", "qin2020"])
    def test_unsupported_compressor(self, name):
        comp = make_compressor("szx", pressio__abs=1e-3)
        with pytest.raises(UnsupportedError):
            get_scheme(name).get_predictor(comp)

    def test_zfp_branch_uses_zfp_probe(self):
        comp = make_compressor("zfp", pressio__abs=1e-3)
        metrics = get_scheme("lu2018").make_metrics(comp)
        assert metrics[0].id == "zfpprobe"
