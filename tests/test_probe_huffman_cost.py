"""The stage probes' Huffman size from count runs, held to the code lengths.

Below a total count of F(19) = 4181 no Huffman code is deeper than the
16-bit limit, so ``_huffman_bits_exact`` adds up the merged weights over
runs of equal counts instead of building per-symbol lengths.  These
properties hold it bit for bit to the limited code lengths ``build_code``
assigns (and to the whole built code book) on every input it takes that
path for: runs of equal counts, single symbols among runs, and the
Fibonacci counts that make the deepest code a total of 4180 allows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.encoding.huffman import DEFAULT_MAX_LENGTH, code_lengths, huffman_code_lengths
from repro.predict.metrics import probes
from repro.predict.metrics.probes import _huffman_bits_exact, _huffman_cost
from tests import reference_kernels as ref

LIMIT = probes._UNLIMITED_TOTAL


def same(a: float, b: float) -> bool:
    """Equal to the last bit."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def limited_bits(counts: np.ndarray) -> float:
    """The probe's value as the limited per-symbol lengths give it."""
    weights = counts.astype(np.float64)
    return float((weights * code_lengths(counts)).sum() / weights.sum())


def fibonacci(n: int) -> list[int]:
    fib = [1, 1]
    while len(fib) < n:
        fib.append(fib[-1] + fib[-2])
    return fib[:n]


@st.composite
def count_runs(draw):
    """Counts as shuffled runs of equal values, cut to a total below 4181."""
    runs = draw(
        st.lists(st.tuples(st.integers(1, 200), st.integers(1, 400)), min_size=1, max_size=40)
    )
    counts = np.repeat(*np.asarray(runs, dtype=np.int64).T)
    counts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(counts)
    return counts[np.cumsum(counts) < LIMIT]


class TestFastPath:
    @settings(max_examples=400, deadline=None)
    @given(count_runs())
    def test_runs_of_equal_counts(self, counts):
        assume(counts.size > 2)
        assert same(_huffman_bits_exact(counts), limited_bits(counts))
        assert _huffman_cost(counts) == int((counts * huffman_code_lengths(counts)).sum())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 60), min_size=3, max_size=60))
    def test_small_alphabets_match_the_built_code_book(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        symbols = np.arange(counts.size, dtype=np.int64)
        assert same(_huffman_bits_exact(counts), ref.huffman_bits_exact_built(symbols, counts))

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_fibonacci_counts_at_4180(self, order):
        # F(1) + ... + F(17) = F(19) - 1: the largest total the fast path
        # takes, with the counts that allow the deepest code.
        counts = np.asarray(fibonacci(17), dtype=np.int64)
        assert counts.sum() == LIMIT - 1
        if order == "descending":
            counts = counts[::-1].copy()
        elif order == "shuffled":
            counts = np.random.default_rng(4).permutation(counts)
        assert code_lengths(counts).max() <= DEFAULT_MAX_LENGTH
        assert same(_huffman_bits_exact(counts), limited_bits(counts))
        symbols = np.arange(counts.size, dtype=np.int64)
        assert same(_huffman_bits_exact(counts), ref.huffman_bits_exact_built(symbols, counts))

    def test_the_fast_path_builds_no_lengths(self, monkeypatch):
        def no_lengths(*args, **kwargs):
            raise AssertionError("per-symbol code lengths were built")

        monkeypatch.setattr(probes, "code_lengths", no_lengths)
        counts = np.asarray([1] * 1500 + [2] * 300 + [7] * 20 + [40], dtype=np.int64)
        assert counts.sum() < LIMIT
        assert _huffman_bits_exact(counts) > 0


class TestOtherInputsKeepTheLengths:
    def test_a_code_past_the_limit_is_limited(self):
        # Doubling counts chain every merge onto the last one: 17 symbols
        # reach depth 16, 18 reach 17, which the limit cuts back to 16.
        counts = np.asarray([1, 1] + [2**k for k in range(1, 17)], dtype=np.int64)
        assert counts.sum() >= LIMIT
        assert huffman_code_lengths(counts).max() > DEFAULT_MAX_LENGTH
        limited = limited_bits(counts)
        assert same(_huffman_bits_exact(counts), limited)
        assert _huffman_cost(counts) / counts.sum() != limited

    @pytest.mark.parametrize(
        "counts", [[5], [3, 9], [0, 4, 4], [0, 0, 1, 1, 2]], ids=["one", "two", "zero", "zeros"]
    )
    def test_tiny_alphabets_and_zero_counts(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        assert same(_huffman_bits_exact(counts), limited_bits(counts))
