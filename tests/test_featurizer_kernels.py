"""Differential tests for the trimmed serve-side featurizers.

``lag_correlations`` and ``variogram_slope`` take their lagged planes as
basic slices, and the SZ3 / sperr stage probes read ``huffman_bits_exact``
off the limited code lengths without building the code book.  Each is held
bit for bit to the form it replaced (``tests/reference_kernels.py``): on
every field of a six-timestep Hurricane set at the what-if size, and on
generated arrays of every rank up to four, both dtypes and three memory
layouts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressors import make_compressor
from repro.compressors.sz3 import ESCAPE_LIMIT
from repro.dataset.hurricane import HurricaneDataset
from repro.encoding.huffman import build_code, code_lengths
from repro.predict.metrics.features import lag_correlations, variogram_slope
from repro.predict.metrics.probes import _huffman_bits_exact
from tests import reference_kernels as ref


def same(a: float, b: float) -> bool:
    """Equal to the last bit (NaN equals NaN)."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.fixture(scope="module")
def hurricane_fields():
    ds = HurricaneDataset(shape=(32, 32, 16), timesteps=6)
    return [ds.load_data(i).array for i in range(len(ds))]


def residual_counts(array: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """The symbols and counts the full-field SZ3 probe codes at *bound*."""
    sz3 = make_compressor("sz3")
    sz3.set_options({"pressio:abs": bound})
    flat = sz3.predict_residuals(np.asarray(array, dtype=np.float64)).reshape(-1)
    return np.unique(flat[np.abs(flat) < ESCAPE_LIMIT], return_counts=True)


class TestHurricaneFields:
    def test_every_field(self, hurricane_fields):
        assert len(hurricane_fields) == 78
        for array in hurricane_fields:
            assert same(lag_correlations(array), ref.lag_correlations_take(array))
            assert same(variogram_slope(array), ref.variogram_slope_take(array))

    def test_probe_bits_on_every_field(self, hurricane_fields):
        for array in hurricane_fields:
            span = float(array.max() - array.min()) or 1.0
            for rel in (1e-2, 1e-4):
                symbols, counts = residual_counts(array, rel * span)
                assert np.array_equal(
                    code_lengths(counts), build_code(symbols=symbols, counts=counts).lengths
                )
                assert same(
                    _huffman_bits_exact(counts), ref.huffman_bits_exact_built(symbols, counts)
                )


LAYOUTS = ("C", "F", "strided")


@st.composite
def arrays(draw):
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=4)))
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).standard_normal(shape).cumsum(axis=-1)
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "F":
        return np.asfortranarray(values.astype(dtype))
    if layout == "strided":
        wide = np.repeat(values.astype(dtype), 2, axis=-1)
        return wide[..., ::2]
    return values.astype(dtype)


class TestGeneratedArrays:
    @settings(max_examples=300, deadline=None)
    @given(arrays(), st.integers(1, 3))
    def test_lag_correlations(self, array, lag):
        assert same(lag_correlations(array, lag), ref.lag_correlations_take(array, lag))

    @settings(max_examples=300, deadline=None)
    @given(arrays(), st.integers(1, 5))
    def test_variogram_slope(self, array, max_lag):
        assert same(variogram_slope(array, max_lag), ref.variogram_slope_take(array, max_lag))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=300))
    def test_huffman_bits(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        symbols = np.arange(counts.size, dtype=np.int64)
        assert same(_huffman_bits_exact(counts), ref.huffman_bits_exact_built(symbols, counts))

    def test_huffman_bits_when_lengths_are_limited(self):
        # Fibonacci counts give a maximally skewed tree: lengths past the
        # 16-bit limit, so the limiting pass does the work.
        fib = [1, 1]
        while len(fib) < 30:
            fib.append(fib[-1] + fib[-2])
        counts = np.asarray(fib, dtype=np.int64)
        symbols = np.arange(counts.size, dtype=np.int64)
        assert code_lengths(counts).max() == 16
        assert same(_huffman_bits_exact(counts), ref.huffman_bits_exact_built(symbols, counts))
