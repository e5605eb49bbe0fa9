"""CART regression trees (variance-reduction splits), grown and read as forests.

The FXRZ scheme (Rahman 2023) "primarily used random forests ... to
predict the compression ratio"; this is the tree those forests bag.
Both directions work on every tree of a forest at once (a single tree is
a forest of one).  :func:`grow_trees` advances all trees in lock-step
and evaluates the pending node of each tree x its candidate features in
one padded sort / prefix-sum pass (:func:`split_search`);
:class:`NodeTable` concatenates the trees' flat arrays so all trees x
all rows descend together.  Both are bit-identical to the per-node,
per-tree loops they replaced (``tests/reference_kernels.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import BaseEstimator, check_X, check_X_y


def n_candidate_features(max_features: int | float | str | None, n_features: int) -> int:
    """How many features each split search draws."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if isinstance(max_features, float):
        return max(1, int(max_features * n_features))
    return min(int(max_features), n_features)


def split_search(xp: np.ndarray, yp: np.ndarray, sizes: np.ndarray, min_leaf: int):
    """Best SSE reduction and threshold of every (node, feature) pair.

    ``xp`` is ``(nodes, features, rows)`` padded with ``+inf`` and ``yp``
    ``(nodes, rows)`` padded with ``0.0`` beyond each node's ``sizes``
    entry, so the stable order and the prefix sums of the real rows are
    those of the unpadded node.  One sort per column, then the SSE of
    every prefix/suffix partition from cumulative sums.  Returns
    ``(gain, threshold)``, each ``(nodes, features)``; a pair with no
    valid split (constant feature, ``min_leaf`` infeasible) has gain
    ``-inf``.
    """
    n_nodes, n_feats, n_rows = xp.shape
    node_ix = np.arange(n_nodes)[:, None, None]
    feat_ix = np.arange(n_feats)[None, :, None]
    order = np.argsort(xp, axis=2, kind="stable")
    xs = xp[node_ix, feat_ix, order]
    ys = yp[node_ix, order]
    csum = np.cumsum(ys, axis=2)
    csum2 = np.cumsum(ys * ys, axis=2)
    m = sizes[:, None, None]
    total = csum[node_ix, feat_ix, m - 1]
    total2 = csum2[node_ix, feat_ix, m - 1]
    # Candidate split after position i (1-based prefix length k = i+1).
    k = np.arange(1, n_rows)
    left_sum = csum[:, :, :-1]
    left_sse = csum2[:, :, :-1] - left_sum**2 / k
    right_n = m - k
    right_sum = total - left_sum
    right_sse = (total2 - csum2[:, :, :-1]) - right_sum**2 / np.maximum(right_n, 1)
    # The parent term squares through Python's float ``**`` (libm pow),
    # not ``np.square``: the two differ in the last ulp now and then, the
    # loop this replaced squared a scalar, and gains are compared across
    # features, so the choice decides near-ties.
    total_sq = np.array([t**2 for t in total.ravel().tolist()]).reshape(total.shape)
    gain = (total2 - total_sq / m) - (left_sse + right_sse)
    # Valid only between distinct x values with min_leaf rows on both
    # sides; right_n >= 1 also rules out the padding.
    valid = (xs[:, :, 1:] != xs[:, :, :-1]) & (k >= min_leaf) & (right_n >= max(min_leaf, 1))
    gain = np.where(valid, gain, -np.inf)
    best = np.argmax(gain, axis=2)[:, :, None]
    threshold = 0.5 * (xs[node_ix, feat_ix, best] + xs[node_ix, feat_ix, best + 1])
    return gain[node_ix, feat_ix, best][:, :, 0], threshold[:, :, 0]


def grow_trees(X: np.ndarray, y: np.ndarray, samples: Sequence[np.ndarray],
               seeds: Sequence[int | None], max_depth: int, min_leaf: int,
               n_candidates: int) -> list[tuple[np.ndarray, ...]]:
    """Grow one tree per ``samples`` entry (row indices into ``X``) in lock-step.

    Each tree keeps its own pre-order stack and its own ``default_rng(seed)``
    and pops nodes (stop checks, node mean, candidate draw, in the order
    a recursive build makes them) until one needs a split search; the
    pending nodes of all trees are searched in one :func:`split_search`
    pass.  A tree's draws depend on its own earlier splits, so levels of
    one tree cannot be batched without changing the forest; trees are
    independent of each other, so they can.  Returns per tree
    ``(feature, threshold, left, right, value)``.
    """
    n, n_features = X.shape
    every = np.arange(n_features)
    rngs = [np.random.default_rng(s) if n_candidates < n_features else None for s in seeds]
    X_pad = np.vstack([X, np.full((1, n_features), np.inf)])
    y_pad = np.append(y, 0.0)
    nodes: list[tuple[list, ...]] = [([], [], [], [], []) for _ in samples]
    stacks = [[(np.asarray(rows), 0, -1)] for rows in samples]
    while True:
        pending = []
        for t, stack in enumerate(stacks):
            feature, threshold, left, right, value = nodes[t]
            while stack:
                rows, depth, parent = stack.pop()
                node = len(feature)
                if parent >= 0:  # pre-order: a left child directly follows its parent
                    (left if node == parent + 1 else right)[parent] = node
                y_node = y[rows]
                feature.append(-1)
                threshold.append(np.nan)
                left.append(-1)
                right.append(-1)
                # sum / count is ndarray.mean() without its Python wrapper
                value.append(float(np.add.reduce(y_node) / rows.size) if rows.size else 0.0)
                if depth >= max_depth or rows.size < 2 * min_leaf or np.ptp(y_node) == 0:
                    continue
                cand = every if n_candidates == n_features else rngs[t].choice(
                    n_features, size=n_candidates, replace=False)
                pending.append((t, node, rows, depth, cand))
                break
        if not pending:
            break
        sizes = np.array([p[2].size for p in pending])
        padded = np.full((len(pending), sizes.max()), n)  # row n is the padding row
        padded[np.arange(padded.shape[1]) < sizes[:, None]] = np.concatenate([p[2] for p in pending])
        xp = X_pad[padded[:, None, :], np.array([p[4] for p in pending])[:, :, None]]
        gain, thr = split_search(xp, y_pad[padded], sizes, min_leaf)
        # The first candidate with the largest positive gain, which is what
        # a strict ``gain > best`` scan in candidate order picks.
        gain = np.where(gain > 0.0, gain, -np.inf)
        best = np.argmax(gain, axis=1)
        for p, (t, node, rows, depth, cand) in enumerate(pending):
            c = best[p]
            if gain[p, c] > 0.0:
                go_left = xp[p, c, : rows.size] <= thr[p, c]
                nodes[t][0][node] = int(cand[c])
                nodes[t][1][node] = float(thr[p, c])
                stacks[t].append((rows[~go_left], depth + 1, node))
                stacks[t].append((rows[go_left], depth + 1, node))
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.float64)
    return [tuple(np.asarray(c, dtype=d) for c, d in zip(cols, dtypes)) for cols in nodes]


class NodeTable:
    """The flat arrays of several trees as one table, for one descent.

    Children are offset by their tree's base; a leaf loops to itself with
    threshold ``+inf`` (and feature 0), so rows that have arrived stay put
    and the descent needs no active mask.  ``depth`` is the deepest
    tree's, read off the table, not off a hyper-parameter.
    """

    def __init__(self, trees: Sequence["DecisionTreeRegressor"]) -> None:
        counts = np.array([t.feature_.size for t in trees])
        self.roots = np.concatenate(([0], np.cumsum(counts)[:-1]))
        base = np.repeat(self.roots, counts)
        feature = np.concatenate([t.feature_ for t in trees])
        leaf = feature < 0
        own = np.arange(feature.size)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.where(leaf, np.inf, np.concatenate([t.threshold_ for t in trees]))
        self.left = np.where(leaf, own, np.concatenate([t.left_ for t in trees]) + base)
        self.right = np.where(leaf, own, np.concatenate([t.right_ for t in trees]) + base)
        self.value = np.concatenate([t.value_ for t in trees])
        self.depth = 0
        frontier = self.roots
        while (inner := frontier[~leaf[frontier]]).size:
            frontier = np.unique(np.concatenate((self.left[inner], self.right[inner])))
            self.depth += 1
            if self.depth > feature.size:  # loaded state: a tree of n nodes is shallower than n
                raise ValueError("tree arrays do not form a tree")

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(trees, rows)`` leaf values: all trees x all rows, ``depth`` steps."""
        flat = X.ravel()
        row_start = np.arange(X.shape[0]) * X.shape[1]
        node = np.repeat(self.roots[:, None], X.shape[0], axis=1)
        for _ in range(self.depth):
            # NaN <= threshold is false: the row goes right, as it always has.
            go_left = flat[self.feature[node] + row_start] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]


class PackedTreeModel(BaseEstimator):
    """What tree and forest share: the node table derived from the learned
    arrays on first use.  It is private, never serialised, and dropped
    whenever the learned state is replaced."""

    _table: NodeTable | None = None

    def set_state(self, state):
        self._table = None
        return super().set_state(state)

    def _leaf_values(self, trees: Sequence["DecisionTreeRegressor"], X: np.ndarray) -> np.ndarray:
        if self._table is None:
            self._table = NodeTable(trees)
        return self._table.leaf_values(check_X(X, self.n_features_))


class DecisionTreeRegressor(PackedTreeModel):
    """A CART regression tree stored in flat arrays.

    Nodes live in parallel arrays (feature, threshold, children, value)
    so prediction is an iterative vectorised descent rather than object
    traversal.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ) -> None:
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.random_state = random_state

    def _adopt(self, arrays: tuple[np.ndarray, ...], n_features: int) -> "DecisionTreeRegressor":
        self.feature_, self.threshold_, self.left_, self.right_, self.value_ = arrays
        self.n_features_ = n_features
        self._table = None
        return self

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = check_X_y(X, y)
        k = n_candidate_features(self.max_features, X.shape[1])
        (arrays,) = grow_trees(X, y, [np.arange(X.shape[0])], [self.random_state],
                               self.max_depth, self.min_samples_leaf, k)
        return self._adopt(arrays, X.shape[1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._leaf_values([self], X)[0]

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes in the fitted tree."""
        return int((self.feature_ < 0).sum())

    def feature_importances(self) -> np.ndarray:
        """Split-count importances (normalised), a cheap diagnostic."""
        counts = np.bincount(
            self.feature_[self.feature_ >= 0], minlength=self.n_features_
        ).astype(np.float64)
        total = counts.sum()
        return counts / total if total else counts
