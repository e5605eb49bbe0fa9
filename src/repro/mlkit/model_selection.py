"""Cross-validation splitters: K-fold and grouped K-fold.

The paper's Table 2 uses 10-fold cross-validation (§4.3, footnote 3);
the *grouped* variant matters because its evaluation is explicitly
**out-of-sample** across Hurricane fields — folds must not leak
timesteps of the same field between train and validation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


class KFold:
    """Classic K-fold splitter (optionally shuffled)."""

    def __init__(self, n_splits: int = 10, shuffle: bool = True, random_state: int | None = 0) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = int(n_splits)
        self.shuffle = bool(shuffle)
        self.random_state = random_state

    def split(self, n_samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train_idx, val_idx) pairs covering all samples once."""
        if n_samples < self.n_splits:
            raise ValueError(f"cannot make {self.n_splits} folds from {n_samples} samples")
        idx = np.arange(n_samples)
        if self.shuffle:
            np.random.default_rng(self.random_state).shuffle(idx)
        folds = np.array_split(idx, self.n_splits)
        for i in range(self.n_splits):
            val = folds[i]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield np.sort(train), np.sort(val)


class GroupKFold:
    """K-fold over *groups*: all samples of a group share a fold.

    Groups are assigned to folds greedily by size (largest first) to
    balance fold sizes; with Hurricane, grouping by field makes every
    validation fold a set of fields never seen during training.
    """

    def __init__(self, n_splits: int = 10) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = int(n_splits)

    def split(self, groups: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        groups = np.asarray(groups)
        uniq, counts = np.unique(groups, return_counts=True)
        if uniq.size < self.n_splits:
            raise ValueError(
                f"cannot make {self.n_splits} folds from {uniq.size} groups"
            )
        fold_of: dict[object, int] = {}
        load = np.zeros(self.n_splits, dtype=np.int64)
        count_of = dict(zip(uniq.tolist(), counts.tolist()))
        for g in uniq[np.argsort(-counts, kind="stable")]:
            target = int(np.argmin(load))
            key = g.item() if hasattr(g, "item") else g
            fold_of[key] = target
            load[target] += count_of[key]
        sample_fold = np.array(
            [fold_of[g.item() if hasattr(g, "item") else g] for g in groups]
        )
        for i in range(self.n_splits):
            val = np.flatnonzero(sample_fold == i)
            train = np.flatnonzero(sample_fold != i)
            yield train, val

