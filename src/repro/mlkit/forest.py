"""Random forest regression (bagged CART trees).

The model family behind FXRZ (Rahman 2023).  Bootstrap sampling plus
per-split feature subsampling, averaged predictions; deterministic given
``random_state``.
"""

from __future__ import annotations

import numpy as np

from .base import check_X_y
from .tree import DecisionTreeRegressor, PackedTreeModel, grow_trees, n_candidate_features


def tree_order_sum(per_tree: np.ndarray) -> np.ndarray:
    """Sum ``(trees, rows)`` over trees as ``out = zeros; out += row`` does:
    sequentially (``np.sum`` is pairwise) and from a positive zero."""
    return np.cumsum(per_tree, axis=0)[-1] + 0.0


class RandomForestRegressor(PackedTreeModel):
    """An ensemble of bootstrap-trained regression trees."""

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 12,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int | None = 0,
    ) -> None:
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.bootstrap = bool(bootstrap)
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = check_X_y(X, y)
        rng = np.random.default_rng(self.random_state)
        n, n_features = X.shape
        seeds, samples = [], []
        for _ in range(self.n_estimators):
            seeds.append(int(rng.integers(0, 2**31 - 1)))
            samples.append(rng.integers(0, n, size=n) if self.bootstrap else np.arange(n))
        grown = grow_trees(X, y, samples, seeds, self.max_depth, self.min_samples_leaf,
                           n_candidate_features(self.max_features, n_features))
        self.trees_ = [
            DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=seed,
            )._adopt(arrays, n_features)
            for seed, arrays in zip(seeds, grown)
        ]
        self.n_features_ = n_features
        self._table = None
        self.oob_prediction_ = np.full(n, np.nan)
        if self.bootstrap:
            # Every tree scores every row in the one descent; a row counts
            # for the trees whose bootstrap sample missed it.
            oob = np.ones((self.n_estimators, n), dtype=bool)
            oob[np.arange(self.n_estimators)[:, None], np.array(samples)] = False
            votes = oob.sum(axis=0)
            total = tree_order_sum(np.where(oob, self._leaf_values(self.trees_, X), 0.0))
            np.divide(total, votes, out=self.oob_prediction_, where=votes > 0)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return tree_order_sum(self._leaf_values(self.trees_, X)) / len(self.trees_)

    def feature_importances(self) -> np.ndarray:
        """Average split-count importances over the ensemble."""
        imp = np.zeros(self.n_features_)
        for tree in self.trees_:
            imp += tree.feature_importances()
        return imp / len(self.trees_)
