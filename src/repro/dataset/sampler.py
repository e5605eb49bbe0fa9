"""Sampling dataset wrappers and in-array block sampling.

§4.1 notes that "operations like sampling can even appear near the end
of the pipeline and still be implemented efficiently" because entries
are tracked back to their source files; the wrapper here selects a
subset of entries by seeded permutation or stride, while
:func:`sample_blocks` performs the in-array sampling the Tao/Khan
trial-based estimators rely on.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.data import PressioData
from .base import StackedDataset, dataset_registry


@dataset_registry.register("sample")
class SampledDataset(StackedDataset):
    """Expose a deterministic subset of the inner dataset's entries."""

    id = "sample"

    def __init__(
        self,
        inner,
        *,
        fraction: float | None = None,
        count: int | None = None,
        stride: int | None = None,
        seed: int = 0,
        **options: Any,
    ) -> None:
        super().__init__(inner, **options)
        n = len(inner)
        if stride is not None:
            picks = np.arange(0, n, int(stride))
        else:
            if count is None:
                if fraction is None:
                    raise ValueError("provide fraction, count, or stride")
                count = max(1, int(round(fraction * n)))
            count = min(int(count), n)
            picks = np.sort(np.random.default_rng(seed).permutation(n)[:count])
        self.indices = picks.astype(np.int64)

    def __len__(self) -> int:
        return int(self.indices.size)

    def load_metadata(self, index: int) -> dict[str, Any]:
        return self.inner.load_metadata(int(self.indices[index]))

    def load_data(self, index: int) -> PressioData:
        return self.inner.load_data(int(self.indices[index]))

    def source_index(self, index: int) -> int:
        """Track a sampled entry back to its inner-dataset index."""
        return int(self.indices[index])


def sample_blocks(
    array: np.ndarray,
    *,
    block: int = 8,
    fraction: float = 0.05,
    min_blocks: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Sample multidimensional blocks of side *block* from an array.

    Returns the sampled blocks stacked as ``(k, *block_shape)`` with
    ``block_shape[i] = min(block, shape[i])``: an axis shorter than the
    block is taken whole, so every row is a real spatial block.  The
    grid of non-overlapping blocks is enumerated and a seeded subset
    chosen — the sampling style of Tao 2019 (whose block size "was based
    on the internals of compressors") and of SECRE's coupled sampling.
    Partial edge blocks are excluded, matching those designs.
    """
    array = np.asarray(array)
    block_shape = tuple(min(block, s) for s in array.shape)
    if array.ndim == 0 or array.size == 0:
        return np.zeros((0,) + block_shape, dtype=np.float64)
    grid = [s // b for s, b in zip(array.shape, block_shape)]
    total = int(np.prod(grid))
    k = min(max(min_blocks, int(round(fraction * total))), total)
    rng = np.random.default_rng(seed)
    coords = np.unravel_index(rng.permutation(total)[:k], grid)
    out = np.empty((k,) + block_shape, dtype=np.float64)
    for row in range(k):
        corner = [int(c[row]) * b for c, b in zip(coords, block_shape)]
        out[row] = array[tuple(slice(lo, lo + b) for lo, b in zip(corner, block_shape))]
    return out
