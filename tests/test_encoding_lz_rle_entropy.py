"""Tests for the sparsity ratio, LZ backends, and entropy math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CorruptStreamError, OptionError
from repro.encoding import (
    coding_gain,
    empirical_entropy,
    huffman_expected_length,
    lossless_compress,
    lossless_decompress,
    quantized_entropy,
    shannon_entropy,
    zero_run_ratio,
)
from repro.encoding.entropy import histogram_probabilities


class TestRuns:
    def test_zero_run_ratio(self):
        arr = np.array([0.0, 0.0, 1.0, 0.0])
        assert zero_run_ratio(arr) == pytest.approx(0.75)
        assert zero_run_ratio(np.array([0.001, -0.001]), atol=0.01) == 1.0


class TestLossless:
    @pytest.mark.parametrize("backend", ["zlib", "lz77"])
    def test_roundtrip(self, backend):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 3, 4000).astype(np.uint8).tobytes()
        stream = lossless_compress(data, backend=backend)
        assert lossless_decompress(stream) == data
        assert len(stream) < len(data)

    @pytest.mark.parametrize("backend", ["zlib", "lz77"])
    def test_incompressible_stored_raw(self, backend):
        data = np.random.default_rng(1).bytes(512)
        stream = lossless_compress(data, backend=backend)
        assert lossless_decompress(stream) == data
        assert len(stream) <= len(data) + 16

    def test_empty(self):
        assert lossless_decompress(lossless_compress(b"")) == b""

    def test_overlapping_lz77_matches(self):
        data = b"ab" * 500  # classic overlapping-copy pattern
        stream = lossless_compress(data, backend="lz77")
        assert lossless_decompress(stream) == data
        assert len(stream) < 100

    def test_unknown_backend(self):
        with pytest.raises(OptionError):
            lossless_compress(b"x", backend="snappy")

    def test_corrupt_stream(self):
        with pytest.raises(CorruptStreamError):
            lossless_decompress(b"\x07" + b"\x00" * 16)

    @given(st.binary(max_size=2000))
    @settings(max_examples=40, deadline=None)
    def test_lz77_roundtrip_property(self, data):
        assert lossless_decompress(lossless_compress(data, backend="lz77")) == data

    def test_accepts_ndarray(self):
        arr = np.arange(100, dtype=np.int32)
        stream = lossless_compress(arr)
        assert lossless_decompress(stream) == arr.tobytes()


class TestEntropy:
    def test_shannon_uniform(self):
        assert shannon_entropy(np.full(8, 1 / 8)) == pytest.approx(3.0)

    def test_shannon_degenerate(self):
        assert shannon_entropy(np.array([1.0])) == 0.0
        assert shannon_entropy(np.array([])) == 0.0

    def test_empirical_entropy(self):
        assert empirical_entropy(np.array([1, 1, 2, 2])) == pytest.approx(1.0)
        assert empirical_entropy(np.array([5] * 10)) == 0.0

    def test_quantized_entropy_decreases_with_bound(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(5000)
        fine = quantized_entropy(data, 1e-4)
        coarse = quantized_entropy(data, 1e-1)
        assert coarse < fine

    def test_quantized_entropy_counts_grid_cells(self):
        # A 0.5-wide grid puts the values in cells 0, 1, 2, 2.
        data = np.array([0.0, 0.3, 1.0, 1.1])
        assert quantized_entropy(data, 0.25) == pytest.approx(1.5)

    def test_quantized_entropy_requires_positive_bound(self):
        with pytest.raises(ValueError):
            quantized_entropy(np.zeros(4), 0.0)

    def test_huffman_expected_length_bounds(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 100, 20)
        p = counts / counts.sum()
        est = huffman_expected_length(p)
        h = shannon_entropy(p)
        assert h <= est <= h + 1.0

    def test_huffman_expected_length_degenerate(self):
        assert huffman_expected_length(np.array([1.0])) == 1.0
        assert huffman_expected_length(np.array([])) == 0.0

    def test_coding_gain_higher_for_structured(self):
        rng = np.random.default_rng(4)
        flat_noise = rng.standard_normal(4096)
        # Structured: variance alternates block to block.
        structured = flat_noise * np.repeat([0.01, 10.0], 2048)
        assert coding_gain(structured) > coding_gain(flat_noise)

    def test_coding_gain_empty(self):
        assert coding_gain(np.array([])) == 1.0

    def test_histogram_probabilities_sums_to_one(self):
        p = histogram_probabilities(np.array([1, 2, 2, 3, 3, 3]))
        assert p.sum() == pytest.approx(1.0)
        assert p.tolist() == pytest.approx([1 / 6, 2 / 6, 3 / 6])
