"""Tests for canonical Huffman coding (construction + vectorised decode)."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CorruptStreamError
from repro.encoding import huffman
from repro.encoding.huffman import (
    HuffmanCode,
    build_code,
    canonical_codes,
    huffman_code_lengths,
    limit_code_lengths,
)
from tests.reference_kernels import decode_tables


def kraft_sum(lengths: np.ndarray) -> float:
    lengths = np.asarray(lengths)
    return float(np.sum(0.5 ** lengths[lengths > 0]))


class TestLengths:
    def test_two_symbols(self):
        lengths = huffman_code_lengths(np.array([5, 5]))
        assert lengths.tolist() == [1, 1]

    def test_skewed_distribution_shorter_codes_for_frequent(self):
        counts = np.array([100, 10, 5, 1])
        lengths = huffman_code_lengths(counts)
        assert lengths[0] == lengths.min()
        assert lengths[3] == lengths.max()

    def test_kraft_equality(self):
        counts = np.array([7, 1, 3, 9, 2, 2, 4])
        lengths = huffman_code_lengths(counts)
        assert kraft_sum(lengths) == pytest.approx(1.0)

    def test_single_symbol(self):
        assert huffman_code_lengths(np.array([4])).tolist() == [1]

    def test_empty(self):
        assert huffman_code_lengths(np.array([], dtype=np.int64)).size == 0

    def test_optimality_vs_entropy(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(1, 1000, size=40)
        lengths = huffman_code_lengths(counts)
        p = counts / counts.sum()
        avg = float((p * lengths).sum())
        entropy = float(-(p * np.log2(p)).sum())
        assert entropy <= avg < entropy + 1.0


class TestLengthLimiting:
    def test_noop_when_within_limit(self):
        lengths = np.array([2, 2, 2, 2])
        assert np.array_equal(limit_code_lengths(lengths, 8), lengths)

    def test_limits_deep_codes(self):
        # A Fibonacci-weighted alphabet forces deep Huffman trees.
        counts = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987])
        raw = huffman_code_lengths(counts)
        assert raw.max() > 8
        limited = limit_code_lengths(raw, 8)
        assert limited.max() <= 8
        assert kraft_sum(limited) <= 1.0 + 1e-12

    def test_frequent_symbols_keep_short_codes(self):
        counts = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144])
        raw = huffman_code_lengths(counts)
        limited = limit_code_lengths(raw, 6)
        # The most frequent symbol (last) must have the minimum length.
        assert limited[-1] == limited.min()


class TestCanonicalCodes:
    def test_prefix_free(self):
        lengths = np.array([2, 2, 3, 3, 3, 4, 4])
        codes = canonical_codes(lengths)
        items = sorted(zip(lengths.tolist(), codes.tolist()))
        for i, (l1, c1) in enumerate(items):
            for l2, c2 in items[i + 1 :]:
                # c1 (shorter or equal) must not prefix c2.
                assert (c2 >> (l2 - l1)) != c1 or (l1 == l2 and c1 != c2)

    def test_codes_fit_length(self):
        lengths = np.array([1, 2, 3, 3])
        codes = canonical_codes(lengths)
        for code, length in zip(codes, lengths):
            assert int(code) < (1 << int(length))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([], dtype=np.int64),
            np.array([42]),
            np.array([7] * 50),
            np.array([-1, 0, 1] * 30),
            np.arange(-500, 500),
        ],
        ids=["empty", "single", "constant", "ternary", "uniform"],
    )
    def test_fixed_cases(self, values):
        out = huffman.decode(huffman.encode(np.asarray(values, dtype=np.int64)))
        assert np.array_equal(out, values)

    def test_skewed_large(self):
        rng = np.random.default_rng(3)
        values = (rng.zipf(1.3, size=50_000) % 1000).astype(np.int64)
        stream = huffman.encode(values)
        assert np.array_equal(huffman.decode(stream), values)
        assert len(stream) < values.nbytes  # actually compresses

    @given(st.lists(st.integers(min_value=-(2**31), max_value=2**31), max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert np.array_equal(huffman.decode(huffman.encode(arr)), arr)

    def test_external_code_reuse(self):
        train = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        code = build_code(train)
        stream = huffman.encode(np.array([2, 1, 0, 0]), code=code)
        assert huffman.decode(stream).tolist() == [2, 1, 0, 0]

    def test_widest_code_decodes_in_alphabet_sized_memory(self):
        """Fibonacci counts build the deepest tree (26 symbols want 25
        bits), so the stream declares the widest code decode accepts.
        A decoder that tabulates symbols over every 24-bit window peaks
        near 400 MB here, and one that tabulates a length byte per window
        near 48 MB; a length table sized by the alphabet and one block of
        bit positions stay below 16 MB with the 2.4 MB output."""
        counts = [1, 1]
        while len(counts) < 26:
            counts.append(counts[-1] + counts[-2])
        values = np.random.default_rng(0).permutation(
            np.repeat(np.arange(26, dtype=np.int64), counts)
        )
        stream = huffman.encode(values, max_length=huffman.MAX_CODE_LENGTH)
        assert huffman._STREAM_HEADER.unpack_from(stream, 0)[3] == huffman.MAX_CODE_LENGTH
        tracemalloc.start()
        try:
            out = huffman.decode(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, values)
        assert peak < 16 << 20, f"decode peaked at {peak / 2**20:.1f} MB"

    def test_external_code_missing_symbol_raises(self):
        code = build_code(np.array([0, 1]))
        with pytest.raises(ValueError):
            huffman.encode(np.array([5]), code=code)


class TestStreamValidation:
    def test_truncated_stream(self):
        stream = huffman.encode(np.arange(100))
        with pytest.raises(CorruptStreamError):
            huffman.decode(stream[: len(stream) // 2])

    def test_too_short(self):
        with pytest.raises(CorruptStreamError):
            huffman.decode(b"abc")


class TestCodeIntrospection:
    def test_expected_bits(self):
        values = np.array([0, 0, 0, 0, 1, 2])
        code = build_code(values)
        counts = np.array([4, 1, 1])
        avg = float((counts * code.lengths).sum() / counts.sum())
        entropy = float(-(counts / 6 * np.log2(counts / 6)).sum())
        assert entropy <= avg < entropy + 1.0
        assert avg == pytest.approx(8 / 6)

    def test_stream_bits_are_the_code_lengths(self):
        rng = np.random.default_rng(5)
        values = rng.geometric(0.3, 2000).astype(np.int64)
        code = build_code(values)
        _, counts = np.unique(values, return_counts=True)
        header = struct.unpack_from("<IQQB3x", huffman.encode(values), 0)
        assert header[1] == values.size
        assert header[2] == int((counts * code.lengths).sum())

    def test_decode_tables_cover_all_codes(self):
        code = build_code(np.arange(10))
        sym_table, len_table = decode_tables(code)
        assert sym_table.size == 1 << code.max_length
        # Every symbol index must appear in the table.
        assert set(sym_table[len_table > 0].tolist()) == set(range(10))

    def test_max_length_respected(self):
        rng = np.random.default_rng(1)
        values = (rng.zipf(1.1, 5000) % 3000).astype(np.int64)
        code = build_code(values, max_length=12)
        assert code.max_length <= 12
