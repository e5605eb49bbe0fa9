"""The random forest's kernels against the loops they replaced (ISSUE 21).

``repro.mlkit.tree`` grows all trees of a forest in lock-step and reads
them through one node table.  Both must be *bit-identical* to the
recursive per-tree builder and the per-tree predict loop, which live on
in ``tests/reference_kernels.py`` as the referee: every array of every
tree, the out-of-bag predictions and ``predict`` are compared byte for
byte (so NaN thresholds and the sign of zero count too).

Three pins were written at the parent commit, before the kernels
changed: ``golden/forest_state_v1.json`` (a served rahman2023 model's
state blob, query rows and predictions), the MedAPE column of a small
seeded Table 2, and the first near-tie a seeded search finds where
squaring the parent sum with ``np.square`` instead of libm ``pow`` moves
a split to another feature.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import ExperimentRunner
from repro.compressors import make_compressor
from repro.dataset.hurricane import HurricaneDataset
from repro.mlkit import DecisionTreeRegressor, RandomForestRegressor
from repro.mlkit.tree import split_search
from repro.predict.scheme import get_scheme
from repro.serve.codec import decode_state, encode_state
from tests import reference_kernels as ref

ARRAYS = ("feature_", "threshold_", "left_", "right_", "value_")
GOLDEN_STATE = os.path.join(os.path.dirname(__file__), "golden", "forest_state_v1.json")


def assert_same_tree(got: DecisionTreeRegressor, want: dict) -> None:
    for name in ARRAYS:
        assert getattr(got, name).dtype == want[name].dtype, name
        assert getattr(got, name).tobytes() == want[name].tobytes(), name


def assert_matches_reference(X, y, queries, *, n_estimators, bootstrap, random_state, **tree_kw):
    """One forest and one single tree, new kernels vs the reference loops."""
    kw = dict(n_estimators=n_estimators, bootstrap=bootstrap, random_state=random_state, **tree_kw)
    forest = RandomForestRegressor(**kw).fit(X, y)
    trees, oob = ref.forest_fit_loop(X, y, **kw)
    assert len(forest.trees_) == len(trees)
    for got, want in zip(forest.trees_, trees):
        assert_same_tree(got, want)
    assert forest.oob_prediction_.tobytes() == oob.tobytes()
    assert forest.predict(queries).tobytes() == ref.forest_predict_loop(trees, queries).tobytes()

    tree = DecisionTreeRegressor(random_state=random_state, **tree_kw).fit(X, y)
    want = ref.tree_fit_recursive(X, y, random_state=random_state, **tree_kw)
    assert_same_tree(tree, want)
    assert tree.predict(queries).tobytes() == ref.tree_predict_loop(want, queries).tobytes()


def make_problem(seed, rows, features, *, ties=False, duplicates=False, constant_y=False):
    """A seeded design matrix, targets and query rows with NaN and +-inf."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, features))
    if ties:
        X[:, 0] = np.round(X[:, 0])
        X[:, -1] = 1.0
    if duplicates and rows > 2:
        X[rows // 2 :] = X[: rows - rows // 2]
    y = np.full(rows, -0.0) if constant_y else X[:, 0] + 0.1 * rng.standard_normal(rows)
    queries = np.vstack([X[:3], rng.standard_normal((6, features))])
    queries[-1, 0] = np.nan
    queries[-2, -1] = np.inf
    queries[-3, 0] = -np.inf
    return X, y, queries


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.one_of(st.integers(1, 40), st.integers(1, 300)),
    features=st.integers(1, 12),
    max_features=st.sampled_from([None, "sqrt", 1, 3, 0.3, 0.8]),
    min_samples_leaf=st.sampled_from([1, 3]),
    max_depth=st.sampled_from([0, 1, 12]),
    bootstrap=st.booleans(),
    n_estimators=st.integers(1, 5),
    ties=st.booleans(),
    duplicates=st.booleans(),
    constant_y=st.booleans(),
)
def test_forest_equals_reference_everywhere(
    seed, rows, features, max_features, min_samples_leaf, max_depth, bootstrap,
    n_estimators, ties, duplicates, constant_y,
):
    X, y, queries = make_problem(
        seed, rows, features, ties=ties, duplicates=duplicates, constant_y=constant_y
    )
    assert_matches_reference(
        X, y, queries, n_estimators=n_estimators, bootstrap=bootstrap, random_state=seed,
        max_features=max_features, min_samples_leaf=min_samples_leaf, max_depth=max_depth,
    )


PINNED = [
    # rows, features, problem flags, estimator arguments
    (1, 1, {}, dict(n_estimators=3)),
    (2, 3, {}, dict(n_estimators=3, max_features=None)),
    (3, 2, dict(duplicates=True), dict(n_estimators=4, min_samples_leaf=3)),
    (24, 11, {}, dict(n_estimators=30)),  # the campaign's shape, the scheme's defaults
    (24, 11, dict(ties=True), dict(n_estimators=8, bootstrap=False, max_features=0.5)),
    (60, 5, dict(constant_y=True), dict(n_estimators=3)),
    (60, 5, dict(ties=True, duplicates=True), dict(n_estimators=6, max_features=2, max_depth=1)),
    (90, 12, {}, dict(n_estimators=5, max_depth=0)),
    (300, 11, {}, dict(n_estimators=4)),  # EXPERIMENTS.md's shape
    (300, 4, dict(ties=True), dict(n_estimators=3, min_samples_leaf=3, max_features=None)),
]


@pytest.mark.parametrize("rows,features,flags,kw", PINNED)
def test_forest_equals_reference_pinned(rows, features, flags, kw):
    X, y, queries = make_problem(1000 + rows, rows, features, **flags)
    args = dict(n_estimators=30, bootstrap=True, max_features="sqrt", min_samples_leaf=1,
                max_depth=12, random_state=rows)
    assert_matches_reference(X, y, queries, **{**args, **kw})


#: First hit of a seeded search (seeds 0, 1, 2, ... over 24 x 11 standard-normal
#: forests, y = x1 + 0.1 noise, 30 bootstrap trees, ~14 000 split nodes) where
#: squaring the parent sum as an array instead of a scalar changes a forest.
NEAR_TIE_SEED, NEAR_TIE_TREE, NEAR_TIE_NODE = 32, 27, 11


def test_near_tie_follows_scalar_pow_not_array_square(monkeypatch):
    rng = np.random.default_rng(NEAR_TIE_SEED)
    X = rng.standard_normal((24, 11))
    y = X[:, 0] + 0.1 * rng.standard_normal(24)
    forest = RandomForestRegressor(random_state=NEAR_TIE_SEED).fit(X, y)
    trees, _ = ref.forest_fit_loop(X, y, random_state=NEAR_TIE_SEED)
    for got, want in zip(forest.trees_, trees):
        assert_same_tree(got, want)
    # The example is a near-tie: with np.square the reference itself
    # sends that node to feature 7 instead of 6.
    monkeypatch.setattr(
        ref, "best_split_for_feature",
        functools.partial(ref.best_split_for_feature, square_total=np.square),
    )
    squared, _ = ref.forest_fit_loop(X, y, random_state=NEAR_TIE_SEED)
    assert trees[NEAR_TIE_TREE]["feature_"][NEAR_TIE_NODE] == 6
    assert squared[NEAR_TIE_TREE]["feature_"][NEAR_TIE_NODE] == 7
    assert forest.trees_[NEAR_TIE_TREE].feature_[NEAR_TIE_NODE] == 6


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(2, 60),
    min_leaf=st.sampled_from([1, 2, 3]),
    ties=st.booleans(),
)
def test_one_column_split_search_equals_reference(seed, rows, min_leaf, ties):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(rows)
    if ties:
        x = np.round(x)
    y = rng.standard_normal(rows)
    gain, thr = split_search(x[None, None, :], y[None, :], np.array([rows]), min_leaf)
    want_gain, want_thr = ref.best_split_for_feature(x, y, min_leaf)
    assert float(gain[0, 0]) == want_gain
    if want_gain > -np.inf:
        assert float(thr[0, 0]) == want_thr


class TestDescentIsBoundedByTheTable:
    """``predict`` used to loop ``max_depth + 1`` times, a hyper-parameter
    anyone can change after ``fit``; lowering it returned the means of
    internal nodes without a word."""

    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 4))
        return X, np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.05 * rng.standard_normal(200)

    def test_max_depth_changed_after_fit(self, problem):
        X, y = problem
        tree = DecisionTreeRegressor(max_depth=12, random_state=0).fit(X, y)
        before = tree.predict(X)
        tree.set_params(max_depth=2)
        assert tree.predict(X).tobytes() == before.tobytes()
        assert DecisionTreeRegressor(max_depth=12, random_state=0).fit(X, y).set_params(
            max_depth=2
        ).predict(X).tobytes() == before.tobytes()  # no table derived before the change

    def test_max_depth_differs_after_set_state(self, problem):
        X, y = problem
        tree = DecisionTreeRegressor(max_depth=12, random_state=0).fit(X, y)
        restored = DecisionTreeRegressor(max_depth=2)
        restored.set_state(tree.get_state())
        assert restored.predict(X).tobytes() == tree.predict(X).tobytes()
        forest = RandomForestRegressor(n_estimators=5, random_state=0).fit(X, y)
        loaded = RandomForestRegressor(n_estimators=5, max_depth=1)
        loaded.set_state(forest.get_state())
        for member in loaded.trees_:
            member.set_params(max_depth=1)
        assert loaded.predict(X).tobytes() == forest.predict(X).tobytes()

    def test_table_follows_the_learned_state(self, problem):
        X, y = problem
        a = RandomForestRegressor(n_estimators=4, random_state=1).fit(X, y)
        b = RandomForestRegressor(n_estimators=4, random_state=2).fit(X, -y)
        want = b.predict(X)
        assert a.predict(X).tobytes() != want.tobytes()  # derives a's table
        a.set_state(b.get_state())
        assert a.predict(X).tobytes() == want.tobytes()
        a.fit(X, y)
        assert a.predict(X).tobytes() != want.tobytes()
        assert not any(name.startswith("_") for name in a.get_state() if name != "__class__")

    def test_arrays_that_are_not_a_tree_are_refused(self):
        tree = DecisionTreeRegressor()
        tree.set_state({
            "feature_": np.array([0, -1]), "threshold_": np.array([0.0, np.nan]),
            "left_": np.array([0, -1]), "right_": np.array([1, -1]),
            "value_": np.zeros(2), "n_features_": 1,
        })
        with pytest.raises(ValueError, match="do not form a tree"):
            tree.predict(np.zeros((1, 1)))


# -- pins written at the parent commit ---------------------------------------------


def _golden():
    with open(GOLDEN_STATE, encoding="utf-8") as fh:
        return json.load(fh)


def _golden_rows(scheme, n, seed):
    """The generator the golden file's training and query rows came from."""
    rng = np.random.default_rng(seed)
    keys = sorted(set(scheme.feature_keys())
                  | {"sparsity:zero_ratio", "stat:value_range", "config:log_abs_bound"})
    rows = [{k: float(v) for k, v in zip(keys, rng.random(len(keys)) + 0.1)} for _ in range(n)]
    return keys, rows, rng.random(n) * 20.0 + 1.0


def _key_shape(value):
    """The nested key structure of a state dict, values dropped."""
    if isinstance(value, dict):
        return {k: _key_shape(v) for k, v in value.items()}
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return [_key_shape(value[0])]
    return None


class TestParentFormatState:
    def test_parent_state_loads_and_predicts_bit_for_bit(self):
        golden = _golden()
        scheme = get_scheme(golden["scheme"], **golden["scheme_kwargs"])
        predictor = scheme.get_predictor(make_compressor("sz3", pressio__abs=1e-4))
        predictor.set_state(decode_state(golden["state_blob"]))
        queries = [
            {k: float.fromhex(v) for k, v in zip(golden["query_keys"], row)}
            for row in golden["queries_hex"]
        ]
        got = predictor.predict_many(queries)
        assert [float(v).hex() for v in got] == golden["predictions_hex"]
        one_by_one = [float(predictor.predict(q)).hex() for q in queries]
        assert one_by_one == golden["predictions_hex"]
        # Loading and predicting leaves the state as it was published.
        assert encode_state(predictor.get_state()) == golden["state_blob"]

    def test_fresh_fit_writes_the_parent_blob(self):
        # Same seeded rows, same scheme arguments: the lock-step builder
        # must publish the very bytes the recursive one did, which also
        # pins the key set of the serialised forest.
        golden = _golden()
        scheme = get_scheme(golden["scheme"], **golden["scheme_kwargs"])
        predictor = scheme.get_predictor(make_compressor("sz3", pressio__abs=1e-4))
        keys, rows, targets = _golden_rows(scheme, 24, 11)
        assert keys == golden["query_keys"]
        predictor.fit(rows, targets)
        state = predictor.get_state()
        assert _key_shape(state) == _key_shape(decode_state(golden["state_blob"]))
        assert encode_state(state) == golden["state_blob"]


#: ``(compressor, method, medape_pct, n_observations)`` of Table 2 for
#: ``HurricaneDataset((16, 16, 8), timesteps=[12], seed=20230912)`` with
#: the runner's defaults, printed by the parent commit.  rahman2023's
#: forest fits depend on the order of their rows: its figures are those
#: over the rows sorted by entry, compressor, bound and replicate, the
#: one order every fit sees whatever order the observations come in.
TABLE2_AT_PARENT = [
    ("sz3", "sz3", math.nan, 26),
    ("sz3", "khan2023", 9.148304187210345, 26),
    ("sz3", "jin2022", 10.672308415608835, 26),
    ("sz3", "rahman2023", 15.759805283511295, 26),
    ("zfp", "zfp", math.nan, 26),
    ("zfp", "khan2023", 19.233766245811424, 26),
    ("zfp", "jin2022", math.nan, 0),
    ("zfp", "rahman2023", 14.021424865158782, 26),
]


def test_table2_medape_column_is_the_parents():
    runner = ExperimentRunner(HurricaneDataset(shape=(16, 16, 8), timesteps=[12], seed=20230912))
    observations = runner.collect().observations
    assert len(observations) == 52
    rows = runner.table2(observations)
    got = [(r.compressor, r.method, r.medape_pct, r.n_observations) for r in rows]
    assert len(got) == len(TABLE2_AT_PARENT)
    for (comp, method, medape, n_obs), want in zip(got, TABLE2_AT_PARENT):
        assert (comp, method, n_obs) == (want[0], want[1], want[3])
        assert medape == want[2] or (math.isnan(medape) and math.isnan(want[2])), (comp, method)
