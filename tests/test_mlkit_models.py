"""Tests for the mlkit regressors: linear, splines, tree, forest,
mixture, conformal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mlkit import (
    ConformalRegressor,
    DecisionTreeRegressor,
    LinearRegression,
    MixtureLinearRegression,
    NaturalSplineRegression,
    RandomForestRegressor,
    coverage,
    r2_score,
)
from repro.mlkit.splines import natural_cubic_basis, quantile_knots
from repro.mlkit.tree import split_search


@pytest.fixture(scope="module")
def linear_data():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((200, 3))
    y = 1.5 + X @ np.array([2.0, -1.0, 0.5]) + 0.01 * rng.standard_normal(200)
    return X, y


@pytest.fixture(scope="module")
def nonlinear_data():
    rng = np.random.default_rng(1)
    X = rng.uniform(-2, 2, size=(300, 2))
    y = np.sin(2 * X[:, 0]) + X[:, 1] ** 2 + 0.05 * rng.standard_normal(300)
    return X, y


class TestLinear:
    def test_recovers_coefficients(self, linear_data):
        X, y = linear_data
        model = LinearRegression().fit(X, y)
        assert model.intercept_ == pytest.approx(1.5, abs=0.05)
        assert model.coef_ == pytest.approx([2.0, -1.0, 0.5], abs=0.05)

    def test_1d_feature_accepted(self):
        x = np.linspace(0, 1, 50)
        y = 3 * x + 1
        model = LinearRegression().fit(x[:, None], y)
        assert model.predict(np.array([[0.5]]))[0] == pytest.approx(2.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.array([[np.nan]]), np.array([1.0]))

    def test_fits_are_scipy_solves_bit_for_bit(self, linear_data):
        """The fit runs scipy.linalg's routine (numpy.linalg's LAPACK
        build may differ in the last bits, and so would every MedAPE)."""
        from scipy import linalg

        X, y = linear_data
        coef = linalg.lstsq(np.column_stack([np.ones(len(X)), X]), y)[0]
        ols = LinearRegression().fit(X, y)
        assert ols.intercept_ == coef[0] and ols.coef_.tobytes() == coef[1:].tobytes()


class TestSplines:
    def test_alpha_shrinks_the_coefficients(self, nonlinear_data):
        X, y = nonlinear_data
        loose = NaturalSplineRegression(alpha=1e-6).fit(X, y)
        tight = NaturalSplineRegression(alpha=1e4).fit(X, y)
        assert np.linalg.norm(tight.coef_) < np.linalg.norm(loose.coef_)

    def test_fit_is_a_scipy_solve_bit_for_bit(self, nonlinear_data):
        from scipy import linalg

        X, y = nonlinear_data
        model = NaturalSplineRegression(n_knots=6).fit(X, y)
        A = np.column_stack([np.ones(len(X)), model._design(X)])
        gram = A.T @ A + model.alpha * np.eye(A.shape[1])
        want = linalg.solve(gram, A.T @ y, assume_a="pos")
        assert model.coef_.tobytes() == want.tobytes()

    def test_basis_shape(self):
        x = np.linspace(0, 1, 40)
        knots = quantile_knots(x, 5)
        basis = natural_cubic_basis(x, knots)
        assert basis.shape == (40, len(knots) - 1)

    def test_basis_linear_beyond_boundaries(self):
        knots = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        x = np.array([2.0, 3.0, 4.0])  # beyond the last knot
        basis = natural_cubic_basis(x, knots)
        # Second differences of a linear function vanish.
        second_diff = basis[2] - 2 * basis[1] + basis[0]
        assert np.abs(second_diff).max() < 1e-8

    def test_fits_nonlinear_function(self, nonlinear_data):
        X, y = nonlinear_data
        spline = NaturalSplineRegression(n_knots=8).fit(X, y)
        linear = LinearRegression().fit(X, y)
        assert r2_score(y, spline.predict(X)) > r2_score(y, linear.predict(X)) + 0.1

    def test_few_distinct_values_degrades_gracefully(self):
        X = np.repeat([[0.0], [1.0]], 10, axis=0)
        y = X[:, 0] * 2
        model = NaturalSplineRegression(n_knots=5).fit(X, y)
        assert model.predict(np.array([[1.0]]))[0] == pytest.approx(2.0, abs=1e-3)


def best_split_for_feature(x, y, min_leaf):
    """One node, one column through the forest-wide split kernel."""
    gain, thr = split_search(x[None, None, :], y[None, :], np.array([x.size]), min_leaf)
    return float(gain[0, 0]), float(thr[0, 0])


class TestTree:
    def test_best_split_obvious(self):
        x = np.array([0.0, 0.0, 1.0, 1.0])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        gain, thr = best_split_for_feature(x, y, 1)
        assert gain > 0
        assert 0.0 < thr < 1.0

    def test_best_split_constant_feature(self):
        gain, thr = best_split_for_feature(np.ones(10), np.arange(10.0), 1)
        assert gain == -np.inf

    def test_best_split_min_leaf_respected(self):
        x = np.arange(6, dtype=float)
        y = np.array([0, 0, 0, 0, 0, 100.0])
        gain, thr = best_split_for_feature(x, y, 3)
        # Only the middle split is allowed.
        assert thr == pytest.approx(2.5)

    def test_tree_memorises_with_depth(self, nonlinear_data):
        X, y = nonlinear_data
        tree = DecisionTreeRegressor(max_depth=16, min_samples_leaf=1).fit(X, y)
        assert r2_score(y, tree.predict(X)) > 0.97

    def test_max_depth_limits_leaves(self, nonlinear_data):
        X, y = nonlinear_data
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert shallow.n_leaves <= 4

    def test_min_samples_leaf(self, nonlinear_data):
        X, y = nonlinear_data
        tree = DecisionTreeRegressor(max_depth=20, min_samples_leaf=30).fit(X, y)
        # With >=30 samples/leaf, at most n/30 leaves.
        assert tree.n_leaves <= len(y) // 30 + 1

    def test_feature_importances_sum_to_one(self, nonlinear_data):
        X, y = nonlinear_data
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        imp = tree.feature_importances()
        assert imp.sum() == pytest.approx(1.0)

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(2).standard_normal((50, 2))
        tree = DecisionTreeRegressor().fit(X, np.full(50, 7.0))
        assert tree.n_leaves == 1
        assert tree.predict(X[:5]) == pytest.approx([7.0] * 5)


class TestForest:
    def test_beats_single_tree_out_of_sample(self, nonlinear_data):
        X, y = nonlinear_data
        train, test = np.arange(0, 200), np.arange(200, 300)
        tree = DecisionTreeRegressor(max_depth=20, random_state=0).fit(X[train], y[train])
        forest = RandomForestRegressor(n_estimators=25, random_state=0).fit(X[train], y[train])
        assert r2_score(y[test], forest.predict(X[test])) >= r2_score(
            y[test], tree.predict(X[test])
        ) - 0.02

    def test_deterministic_given_seed(self, nonlinear_data):
        X, y = nonlinear_data
        a = RandomForestRegressor(n_estimators=5, random_state=42).fit(X, y).predict(X[:10])
        b = RandomForestRegressor(n_estimators=5, random_state=42).fit(X, y).predict(X[:10])
        assert np.array_equal(a, b)

    def test_oob_predictions_present(self, nonlinear_data):
        X, y = nonlinear_data
        forest = RandomForestRegressor(n_estimators=20, random_state=0).fit(X, y)
        seen = ~np.isnan(forest.oob_prediction_)
        assert seen.mean() > 0.9
        assert r2_score(y[seen], forest.oob_prediction_[seen]) > 0.5

    def test_no_bootstrap_mode(self, nonlinear_data):
        X, y = nonlinear_data
        forest = RandomForestRegressor(n_estimators=3, bootstrap=False, random_state=0).fit(X, y)
        assert np.isnan(forest.oob_prediction_).all()


class TestMixture:
    def test_separates_two_regimes(self):
        rng = np.random.default_rng(3)
        n = 200
        x = rng.uniform(-1, 1, size=(n, 1))
        regime = (x[:, 0] > 0).astype(float)
        # Two very different linear laws on each side of 0.
        y = np.where(regime > 0, 5 + 10 * x[:, 0], -5 - 10 * x[:, 0])
        y = y + 0.05 * rng.standard_normal(n)
        mix = MixtureLinearRegression(n_components=2, random_state=0).fit(x, y)
        single = LinearRegression().fit(x, y)
        assert r2_score(y, mix.predict(x)) > r2_score(y, single.predict(x)) + 0.2

    def test_predict_std_positive(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 2))
        y = X[:, 0] + rng.standard_normal(100)
        mix = MixtureLinearRegression(n_components=2, random_state=0).fit(X, y)
        std = mix.predict_std(X)
        assert (std > 0).all()

    def test_single_component_is_linear(self, linear_data):
        X, y = linear_data
        mix = MixtureLinearRegression(n_components=1, random_state=0).fit(X, y)
        lin = LinearRegression().fit(X, y)
        assert np.allclose(mix.predict(X), lin.predict(X), atol=1e-3)


class TestConformal:
    def test_marginal_coverage(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((600, 2))
        y = X[:, 0] * 2 + rng.standard_normal(600)
        model = ConformalRegressor(LinearRegression(), alpha=0.1, random_state=0)
        model.fit(X[:400], y[:400])
        _, lo, hi = model.predict_interval(X[400:])
        cov = coverage(y[400:], lo, hi)
        assert cov >= 0.85  # 1 - alpha with finite-sample slack

    def test_interval_contains_point(self, linear_data):
        X, y = linear_data
        model = ConformalRegressor(LinearRegression(), alpha=0.2).fit(X, y)
        point, lo, hi = model.predict_interval(X[:10])
        assert (lo <= point).all() and (point <= hi).all()

    def test_smaller_alpha_wider_intervals(self, linear_data):
        X, y = linear_data
        tight = ConformalRegressor(LinearRegression(), alpha=0.5, random_state=0).fit(X, y)
        wide = ConformalRegressor(LinearRegression(), alpha=0.05, random_state=0).fit(X, y)
        assert wide.radius_ >= tight.radius_
