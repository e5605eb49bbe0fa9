"""Tests for mlkit support modules: base, metrics, CV splitters,
augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mlkit import (
    GroupKFold,
    KFold,
    LinearRegression,
    NaturalSplineRegression,
    RandomForestRegressor,
    absolute_percentage_errors,
    interpolation_augment,
    medape,
    r2_score,
)


class TestBaseEstimator:
    def test_get_set_params(self):
        model = NaturalSplineRegression(n_knots=4, alpha=2.0)
        assert model.get_params() == {"n_knots": 4, "alpha": 2.0}
        model.set_params(alpha=3.0)
        assert model.alpha == 3.0

    def test_set_unknown_param_raises(self):
        with pytest.raises(ValueError):
            NaturalSplineRegression().set_params(gamma=1)

    def test_clone_unfitted(self):
        rng = np.random.default_rng(0)
        X, y = rng.standard_normal((30, 2)), rng.standard_normal(30)
        model = NaturalSplineRegression(alpha=0.5).fit(X, y)
        dup = model.clone()
        assert dup.alpha == 0.5
        assert not dup.is_fitted()
        assert model.is_fitted()

    def test_state_roundtrip_simple(self):
        rng = np.random.default_rng(1)
        X, y = rng.standard_normal((40, 2)), rng.standard_normal(40)
        model = LinearRegression().fit(X, y)
        restored = LinearRegression()
        restored.set_state(model.get_state())
        assert np.allclose(restored.predict(X), model.predict(X))

    def test_state_roundtrip_nested_list(self):
        rng = np.random.default_rng(2)
        X, y = rng.standard_normal((50, 2)), rng.standard_normal(50)
        forest = RandomForestRegressor(n_estimators=4, random_state=0).fit(X, y)
        restored = RandomForestRegressor(n_estimators=4, random_state=0)
        restored.set_state(forest.get_state())
        assert np.allclose(restored.predict(X), forest.predict(X))


class TestMetrics:
    def test_medape_basic(self):
        assert medape([100, 100], [110, 90]) == pytest.approx(10.0)

    def test_medape_robust_to_outlier(self):
        y = np.array([100.0] * 9 + [100.0])
        p = np.array([101.0] * 9 + [10000.0])
        assert medape(y, p) == pytest.approx(1.0)
        assert absolute_percentage_errors(y, p).mean() > 100

    def test_ape_per_sample(self):
        assert absolute_percentage_errors([10, 10, -4], [11, 15, -2]).tolist() == (
            pytest.approx([10.0, 50.0, 50.0])
        )

    def test_medape_even_count_averages_the_middle_pair(self):
        assert medape([10, 10, 10, 10], [11, 12, 14, 30]) == pytest.approx(30.0)

    def test_ape_zero_target_raises(self):
        with pytest.raises(ValueError):
            absolute_percentage_errors([0.0], [1.0])

    def test_r2_perfect_and_constant(self):
        assert r2_score([1, 2, 3], [1, 2, 3]) == 1.0
        assert r2_score([2, 2, 2], [2, 2, 2]) == 1.0
        assert r2_score([2, 2, 2], [1, 2, 3]) == 0.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            medape([1, 2], [1])


class TestKFold:
    def test_partitions_everything_once(self):
        seen = np.zeros(25, dtype=int)
        for train, val in KFold(5, random_state=1).split(25):
            seen[val] += 1
            assert np.intersect1d(train, val).size == 0
        assert (seen == 1).all()

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(10).split(5))

    def test_reproducible(self):
        a = [v.tolist() for _, v in KFold(3, random_state=7).split(12)]
        b = [v.tolist() for _, v in KFold(3, random_state=7).split(12)]
        assert a == b

    def test_invalid_splits(self):
        with pytest.raises(ValueError):
            KFold(1)


class TestGroupKFold:
    def test_no_group_leakage(self):
        groups = np.repeat(np.arange(8), 5)
        for train, val in GroupKFold(4).split(groups):
            assert set(groups[train]) & set(groups[val]) == set()

    def test_string_groups(self):
        groups = np.array(["a", "a", "b", "b", "c", "c", "d", "d"])
        folds = list(GroupKFold(2).split(groups))
        assert len(folds) == 2

    def test_balanced_by_size(self):
        # One huge group and several small ones: the huge group alone
        # should fill one fold.
        groups = np.array([0] * 50 + [1] * 5 + [2] * 5 + [3] * 5)
        sizes = [len(val) for _, val in GroupKFold(2).split(groups)]
        assert max(sizes) == 50

    def test_too_few_groups(self):
        with pytest.raises(ValueError):
            list(GroupKFold(4).split(np.array([0, 0, 1, 1])))


class TestAugmentation:
    def test_output_size(self):
        rng = np.random.default_rng(7)
        X, y = rng.standard_normal((50, 3)), rng.standard_normal(50)
        Xa, ya = interpolation_augment(X, y, factor=2.5, random_state=0)
        assert Xa.shape[0] == len(ya) == 125

    def test_noop_factor_one(self):
        X, y = np.ones((5, 2)), np.ones(5)
        Xa, ya = interpolation_augment(X, y, factor=1.0)
        assert Xa.shape == X.shape

    def test_synthetic_points_in_convex_hull_coordinatewise(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(30, 2))
        y = rng.uniform(0, 1, size=30)
        Xa, ya = interpolation_augment(X, y, factor=3.0, random_state=1)
        assert Xa.min() >= 0 and Xa.max() <= 1
        assert ya.min() >= 0 and ya.max() <= 1

    def test_labels_interpolated_linearly(self):
        # On a linear function, interpolated labels remain exact.
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 2))
        y = X @ np.array([2.0, -1.0]) + 3
        Xa, ya = interpolation_augment(X, y, factor=2.0, random_state=2)
        assert np.allclose(ya, Xa @ np.array([2.0, -1.0]) + 3, atol=1e-9)

    @given(st.integers(min_value=2, max_value=30), st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=20, deadline=None)
    def test_size_property(self, n, factor):
        rng = np.random.default_rng(n)
        X, y = rng.standard_normal((n, 2)), rng.standard_normal(n)
        Xa, ya = interpolation_augment(X, y, factor=factor, random_state=0)
        assert Xa.shape[0] == len(ya) == n + int(round((factor - 1) * n))
