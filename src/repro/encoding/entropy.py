"""Entropy and coding-efficiency mathematics.

Shared by the entropy coders (to size their outputs), the Jin 2022
ratio-quality model (Huffman efficiency estimation), the Ganguli 2023
coding-gain feature, and the Krasowska/Underwood quantized-entropy
feature.
"""

from __future__ import annotations

import numpy as np


def histogram_probabilities(values: np.ndarray) -> np.ndarray:
    """Empirical symbol probabilities of a discrete array (sorted by symbol)."""
    values = np.asarray(values).reshape(-1)
    if values.size == 0:
        return np.zeros(0, dtype=np.float64)
    _, counts = np.unique(values, return_counts=True)
    return counts / values.size


def shannon_entropy(probabilities: np.ndarray) -> float:
    """Shannon entropy in bits of a probability vector (zeros ignored)."""
    p = np.asarray(probabilities, dtype=np.float64)
    p = p[p > 0]
    if p.size == 0:
        return 0.0
    return float(-np.sum(p * np.log2(p)))


def empirical_entropy(values: np.ndarray) -> float:
    """Shannon entropy (bits/symbol) of the empirical distribution."""
    return shannon_entropy(histogram_probabilities(values))


def quantized_entropy(data: np.ndarray, abs_bound: float) -> float:
    """Entropy of the data after quantization to a ``2*abs_bound`` grid.

    This is the *quantized entropy* feature of Krasowska 2021: a proxy
    for the information content that an error-bounded compressor must
    preserve.  Error-dependent (the grid width is ``2*eb``).
    """
    if abs_bound <= 0:
        raise ValueError("abs_bound must be positive")
    flat = np.asarray(data, dtype=np.float64).reshape(-1)
    codes = np.round(flat / (2.0 * abs_bound))
    return empirical_entropy(codes)


def huffman_expected_length(probabilities: np.ndarray) -> float:
    """Upper-bound estimate of Huffman bits/symbol: ``H(p) + redundancy``.

    Huffman codes satisfy ``H(p) <= L < H(p) + 1``; the Gallager bound
    tightens the redundancy to ``p_max + 0.086`` when the most probable
    symbol has probability ``p_max < 0.5``.  Jin's analytic model uses
    exactly this style of estimate for the encoding stage.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    p = p[p > 0]
    if p.size == 0:
        return 0.0
    if p.size == 1:
        return 1.0  # a single symbol still costs one bit per symbol in practice
    h = shannon_entropy(p)
    pmax = float(p.max())
    if pmax >= 0.5:
        redundancy = min(1.0, pmax + 0.086)  # degenerate distributions
    else:
        redundancy = pmax + 0.086
    return h + min(redundancy, 1.0)


def coding_gain(data: np.ndarray, block: int = 8) -> float:
    """Classic coding gain: arithmetic/geometric mean ratio of block variances.

    High coding gain means a transform/predictor can concentrate energy —
    data with very uneven local variance compresses well after
    decorrelation.  Used as a feature by Ganguli 2023.
    """
    flat = np.asarray(data, dtype=np.float64).reshape(-1)
    n = (flat.size // block) * block
    if n == 0:
        return 1.0
    blocks = flat[:n].reshape(-1, block)
    var = blocks.var(axis=1) + 1e-30
    arithmetic = float(var.mean())
    geometric = float(np.exp(np.mean(np.log(var))))
    return arithmetic / geometric
