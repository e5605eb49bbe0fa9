"""Unit tests for the kernel-vectorization batches.

Covers the headline float-width packing bug (``log2``-based widths
silently truncate codes once ``qmax >= 2**53``), the LZ77 window-edge
crash at distance exactly 65536, lossless wrapper hygiene (level
validation, ``zlib.error`` containment), and equivalence of the
vectorized canonical-table build with the per-symbol scatter loop it
replaced.  The entropy-stage kernels of ISSUE 12 (two-queue Huffman
build, byte-plane packer, anchored decoder) are held element-for-element
to the retired implementations in ``tests/reference_kernels.py``, and the
decoder's header validation is pinned by flipping every header bit.
"""

from __future__ import annotations

import time
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import CorruptStreamError, OptionError
from repro.core.compressor import compressor_registry
import repro.compressors  # noqa: F401  (registers the plugins)
from repro.compressors.zfp import pack_width_groups, unpack_width_groups
from repro.encoding import bitio, huffman, pack_codes, read_uint_array, uint_bit_length, write_uint_array
from repro.encoding.lz import (
    _lz77_compress,
    _lz77_decompress,
    lossless_compress,
    lossless_decompress,
)
from tests import reference_kernels as ref


class TestUintBitLength:
    def test_matches_int_bit_length_at_edges(self):
        edges = [
            0, 1, 2, 3, 4, 7, 8, 255, 256,
            2**31 - 1, 2**31, 2**32,
            2**52, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2,
            2**62, 2**63 - 1, 2**63, 2**64 - 1,
        ]
        got = uint_bit_length(np.array(edges, dtype=np.uint64))
        assert got.tolist() == [v.bit_length() for v in edges]

    def test_float_log2_idiom_is_wrong_above_2_53(self):
        """Documents the bug being fixed: float rounding loses the top bit."""
        q = 2**53
        float_width = int(np.floor(np.log2(float(q)))) + 1  # the old idiom
        assert float_width == 54  # looks fine here...
        q = 2**54 - 1  # ...but rounds *up* to 2**54 as a float
        float_width = int(np.floor(np.log2(float(q)))) + 1
        assert float_width == 55  # over-wide: wrong width grouping
        assert int(uint_bit_length(np.array([q], dtype=np.uint64))[0]) == 54


class TestSzxWidePacking:
    def test_qmax_above_2_53_roundtrips(self):
        """Regression for the headline bug: a block whose quantized span
        needs 54 bits must survive the width-grouped packing exactly.
        On the float-``log2`` widths this decoded the top code as 0."""
        eb = 0.5  # quantizer step 2*eb = 1.0: codes are the values themselves
        values = np.array([0.0, float(2**53), 1.0, 3.0], dtype=np.float64)
        comp = compressor_registry.create("szx")
        comp.set_options({"pressio:abs": eb, "szx:block_size": 4})
        stream = comp.compress_impl(values)
        decoded = comp.decompress_impl(stream, values.dtype, values.shape)
        assert float(np.abs(decoded - values).max()) <= eb

    def test_mixed_width_blocks_roundtrip(self):
        eb = 0.5
        values = np.concatenate(
            [
                [0.0, float(2**53), 1.0, 3.0],  # 54-bit block
                [0.0, 3.0, 1.0, 2.0],  # 2-bit block
                [5.0, 5.0, 5.0, 5.0],  # constant block
            ]
        )
        comp = compressor_registry.create("szx")
        comp.set_options({"pressio:abs": eb, "szx:block_size": 4})
        decoded = comp.decompress_impl(
            comp.compress_impl(values), values.dtype, values.shape
        )
        assert float(np.abs(decoded - values).max()) <= eb


class TestZfpWidthGroups:
    def test_widths_are_exact_bit_lengths(self):
        codes = np.array(
            [
                [0, 0, 0],
                [1, 0, 0],
                [2**53 - 1, 5, 0],
                [2**53, 1, 2],
                [2**64 - 1, 0, 0],
            ],
            dtype=np.uint64,
        )
        payload, widths = pack_width_groups(codes)
        assert widths.tolist() == [0, 1, 53, 54, 64]
        out = unpack_width_groups(payload, widths, codes.shape[1])
        assert np.array_equal(out, codes)

    def test_truncated_payload_raises(self):
        codes = np.array([[7, 1], [1000, 3]], dtype=np.uint64)
        payload, widths = pack_width_groups(codes)
        with pytest.raises(CorruptStreamError):
            unpack_width_groups(payload[:-1], widths, codes.shape[1])


class TestLosslessWrapper:
    def test_truncated_zlib_body_is_corrupt_stream_error(self):
        stream = lossless_compress(b"hello world, hello world " * 64, backend="zlib")
        with pytest.raises(CorruptStreamError, match="zlib body corrupt"):
            lossless_decompress(stream[:-5])

    def test_garbage_zlib_body_is_corrupt_stream_error(self):
        stream = lossless_compress(b"hello world, hello world " * 64, backend="zlib")
        mangled = stream[:9] + b"\xff" + stream[10:]
        with pytest.raises(CorruptStreamError):
            lossless_decompress(mangled)

    def test_zlib_level_validated(self):
        data = b"abc" * 100
        for level in (-1, 0, 6, 9):
            assert lossless_decompress(lossless_compress(data, level=level)) == data
        for level in (-2, 10, 42):
            with pytest.raises(OptionError, match="zlib level"):
                lossless_compress(data, level=level)

    def test_lz77_backend_ignores_level(self):
        data = b"the quick brown fox " * 50
        streams = {lossless_compress(data, backend="lz77", level=lv) for lv in (-1, 0, 9)}
        assert len(streams) == 1
        assert lossless_decompress(streams.pop()) == data


class TestLZ77WindowEdge:
    """Matches at distance exactly 65536 crashed the seed encoder
    (``struct.pack("<H", 65536)``); the window test must be strict."""

    MARKER = b"\xf0\xf1\xf2\xf3\xf4\xf5"

    def _payload(self, gap: int) -> bytes:
        # Filler bytes stay < 0x80 so no window ever equals the marker key.
        rng = np.random.default_rng(65536)
        filler = rng.integers(0, 128, gap, dtype=np.int64).astype(np.uint8).tobytes()
        return self.MARKER + filler + self.MARKER

    def test_distance_65535_still_matches(self):
        payload = self._payload(65535 - len(self.MARKER))
        stream = _lz77_compress(payload)
        assert stream == ref.lz77_compress_loop(payload)
        assert b"\x01\xff\xff" in stream  # match token at dist 0xFFFF
        assert _lz77_decompress(stream, len(payload)) == payload

    def test_distance_65536_is_rejected_not_crashed(self):
        payload = self._payload(65536 - len(self.MARKER))
        stream = _lz77_compress(payload)
        assert stream == ref.lz77_compress_loop(payload)
        assert b"\x01\x00\x00" not in stream  # no wrapped-distance token
        assert _lz77_decompress(stream, len(payload)) == payload


class TestDecodeTables:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vectorized_build_matches_scatter_loop(self, seed):
        rng = np.random.default_rng(seed)
        sym = rng.integers(-40, 40, 5000, dtype=np.int64)
        code = huffman.build_code(sym)
        want = ref.decode_tables_scatter_loop(code)
        got = ref.decode_tables(code)
        assert np.array_equal(want[0], got[0])
        assert np.array_equal(want[1], got[1])

    def test_single_symbol_code(self):
        code = huffman.build_code(np.zeros(10, dtype=np.int64))
        want = ref.decode_tables_scatter_loop(code)
        got = ref.decode_tables(code)
        assert np.array_equal(want[0], got[0])
        assert np.array_equal(want[1], got[1])

    def test_non_canonical_fallback_matches_scatter_loop(self):
        """Gappy (non-tiling) code tables take the fallback branch and
        must preserve the later-code-overwrites semantics exactly."""
        code = huffman.HuffmanCode(
            symbols=np.array([5, 9], dtype=np.int64),
            lengths=np.array([2, 2], dtype=np.int64),
            codes=np.array([0, 3], dtype=np.uint64),
        )
        want = ref.decode_tables_scatter_loop(code)
        got = ref.decode_tables(code)
        assert np.array_equal(want[0], got[0])
        assert np.array_equal(want[1], got[1])
        overlap = huffman.HuffmanCode(
            symbols=np.array([1, 2, 3], dtype=np.int64),
            lengths=np.array([1, 1, 2], dtype=np.int64),
            codes=np.array([0, 0, 1], dtype=np.uint64),
        )
        want = ref.decode_tables_scatter_loop(overlap)
        got = ref.decode_tables(overlap)
        assert np.array_equal(want[0], got[0])
        assert np.array_equal(want[1], got[1])


class TestVectorizedReferenceEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=2000))
    def test_encode_matches_reference(self, payload):
        stream = _lz77_compress(payload)
        assert stream == ref.lz77_compress_loop(payload)
        assert _lz77_decompress(stream, len(payload)) == payload

    @settings(max_examples=30, deadline=None)
    @given(
        st.binary(min_size=1, max_size=64),
        st.integers(min_value=1, max_value=200),
    )
    def test_repetitive_payloads_match_reference(self, motif, reps):
        payload = motif * reps
        stream = _lz77_compress(payload)
        assert stream == ref.lz77_compress_loop(payload)
        assert _lz77_decompress(stream, len(payload)) == payload


# -- ISSUE 12: entropy-stage kernels against their retired implementations -----------


def _fibonacci_counts(n: int) -> np.ndarray:
    counts = [1, 1]
    while len(counts) < n:
        counts.append(counts[-1] + counts[-2])
    return np.array(counts[:n], dtype=np.int64)


class TestHuffmanBuildEquivalence:
    """The two-queue builder reproduces the ``(weight, insertion index)``
    heap order exactly, so the lengths match element for element — not
    just in cost — and ``limit_code_lengths`` sees identical input."""

    @pytest.mark.parametrize("counts", [[], [4], [5, 5], [1, 9], [0, 0], [0, 0, 0, 1]])
    def test_degenerate_alphabets(self, counts):
        counts = np.array(counts, dtype=np.int64)
        got = huffman.huffman_code_lengths(counts)
        assert got.dtype == np.int64
        assert got.tolist() == ref.huffman_code_lengths_heap(counts).tolist()

    @pytest.mark.parametrize("n", [3, 7, 8, 9, 64, 255, 1000])
    def test_all_equal_counts(self, n):
        counts = np.full(n, 7, dtype=np.int64)
        assert np.array_equal(
            huffman.huffman_code_lengths(counts), ref.huffman_code_lengths_heap(counts)
        )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=120))
    def test_heavy_ties(self, counts):
        counts = np.array(counts, dtype=np.int64)
        assert np.array_equal(
            huffman.huffman_code_lengths(counts), ref.huffman_code_lengths_heap(counts)
        )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=2**40), min_size=0, max_size=200))
    def test_arbitrary_counts(self, counts):
        counts = np.array(counts, dtype=np.int64)
        assert np.array_equal(
            huffman.huffman_code_lengths(counts), ref.huffman_code_lengths_heap(counts)
        )

    @pytest.mark.parametrize("n", [18, 30, 60])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_fibonacci_counts_force_depth_over_16(self, n, reverse):
        counts = _fibonacci_counts(n)[::-1] if reverse else _fibonacci_counts(n)
        got = huffman.huffman_code_lengths(counts)
        assert int(got.max()) == n - 1 > 16
        assert np.array_equal(got, ref.huffman_code_lengths_heap(counts))
        # ...so the limited code (and with it the stream) cannot move.
        assert np.array_equal(
            huffman.limit_code_lengths(got, 16),
            huffman.limit_code_lengths(ref.huffman_code_lengths_heap(counts), 16),
        )

    def test_large_sums_do_not_wrap(self):
        counts = np.full(5, 2**62, dtype=np.int64)
        assert np.array_equal(
            huffman.huffman_code_lengths(counts), ref.huffman_code_lengths_heap(counts)
        )


_codes_and_lengths = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=64),
    ),
    min_size=0,
    max_size=80,
)


class TestPackCodesEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(_codes_and_lengths)
    def test_byte_identical_for_lengths_0_to_64(self, pairs):
        codes = np.array([c for c, _ in pairs], dtype=np.uint64)
        lengths = np.array([l for _, l in pairs], dtype=np.int64)
        assert pack_codes(codes, lengths) == ref.pack_codes_bitplanes(codes, lengths)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 31, 32, 33, 56, 57, 58, 63, 64])
    def test_fixed_width_runs_hit_every_lead_offset(self, width):
        """``write_uint_array`` with wide escapes: every bit offset 0..7,
        including the ninth-byte spill of codes longer than 57 bits."""
        rng = np.random.default_rng(width)
        codes = rng.integers(0, 2**63, 41, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
        lengths = np.full(codes.shape, width, dtype=np.int64)
        assert pack_codes(codes, lengths) == ref.pack_codes_bitplanes(codes, lengths)

    def test_zero_length_codes_at_either_end(self):
        codes = np.array([2**64 - 1, 5, 2**64 - 1], dtype=np.uint64)
        lengths = np.array([0, 8, 0], dtype=np.int64)
        assert pack_codes(codes, lengths) == (b"\x05", 8)
        assert pack_codes(codes, np.zeros(3, dtype=np.int64)) == (b"", 0)

    def test_shape_mismatch_raises_in_both(self):
        for packer in (pack_codes, ref.pack_codes_bitplanes):
            with pytest.raises(ValueError, match="same shape"):
                packer(np.array([1, 2]), np.array([1]))

    def test_length_out_of_range_is_rejected(self):
        with pytest.raises(ValueError, match="0..64"):
            pack_codes(np.array([1]), np.array([65]))
        with pytest.raises(ValueError, match="0..64"):
            pack_codes(np.array([1, 1]), np.array([3, -1]))
        for width in (-1, 65, 300):
            with pytest.raises(ValueError, match="0..64"):
                write_uint_array(np.array([1], dtype=np.uint64), width)


class TestWindowsEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 1), max_size=90), st.integers(1, 57))
    def test_matches_sliding_window_matmul(self, bits, width):
        bits = np.array(bits, dtype=np.uint8)
        got = ref.windows_at_every_position(bits, width)
        want = ref.windows_matmul(bits, width)
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("width", [0, -1, 58])
    def test_width_out_of_range(self, width):
        with pytest.raises(ValueError):
            ref.windows_at_every_position(np.array([1, 0], dtype=np.uint8), width)


def _decode_outcome(decoder, stream: bytes):
    try:
        return ("ok", decoder(stream).tolist())
    except Exception as exc:  # noqa: BLE001 - the comparison is on type and message
        return (type(exc).__name__, str(exc))


_NOT_AT_END = ("CorruptStreamError", "huffman codes do not end at the declared bit count")


def _coded_bits(stream: bytes, values: list[int]) -> int:
    """Bits the code table of *stream* spends on *values*."""
    n_symbols = int.from_bytes(stream[:4], "little")
    symbols = np.frombuffer(stream, "<i8", n_symbols, huffman._STREAM_HEADER.size)
    lengths = np.frombuffer(stream, "<u1", n_symbols, huffman._STREAM_HEADER.size + 8 * n_symbols)
    return int(lengths[np.searchsorted(symbols, values)].astype(np.int64).sum())


def _assert_decodes_like(oracle, stream: bytes) -> None:
    """Same values, or the same exception type and message, as *oracle*,
    except where the oracle's codes do not end at ``total_bits``: there
    the production decoder refuses the stream instead."""
    got = _decode_outcome(huffman.decode, stream)
    want = _decode_outcome(oracle, stream)
    if got == _NOT_AT_END and want[0] == "ok":
        total_bits = huffman._STREAM_HEADER.unpack_from(stream, 0)[2]
        assert _coded_bits(stream, want[1]) != total_bits
    else:
        assert got == want


def _residual_stream(seed: int, n: int, spread: float, max_length: int = 16) -> bytes:
    rng = np.random.default_rng(seed)
    values = np.round(rng.standard_normal(n) * spread).astype(np.int64)
    return huffman.encode(values, max_length=max_length)


HEADER = huffman._STREAM_HEADER.size


def _payload_offset(stream: bytes) -> int:
    return HEADER + 9 * int.from_bytes(stream[:4], "little")


class TestDecoderEquivalence:
    """Same values, and on a damaged payload the same exception type and
    message, as the full-lifting decoder (the LZ77 golden test's style).
    Header and code table stay intact: that is where the new decoder
    deliberately differs (``TestHuffmanHeaderValidation``).  The other
    difference is the end check: where the damage leaves ``n_values``
    codes that stop short of or run past ``total_bits``, the oracle
    returns them and the production decoder raises."""

    @pytest.mark.parametrize(
        "seed,n,spread,max_length",
        [(0, 2, 5.0, 16), (1, 15, 1.0, 16), (2, 16, 3.0, 16), (3, 17, 3.0, 16),
         (4, 33, 40.0, 16), (5, 500, 0.6, 16), (6, 3000, 25.0, 16), (7, 3000, 400.0, 11)],
    )
    def test_intact_truncated_and_bit_flipped(self, seed, n, spread, max_length):
        stream = _residual_stream(seed, n, spread, max_length)
        start = _payload_offset(stream)
        assert int.from_bytes(stream[:4], "little") >= 2  # one symbol: no table walk
        rng = np.random.default_rng(seed + 100)
        cases = [stream]
        cases += [stream[: int(rng.integers(start, len(stream)))] for _ in range(12)]
        for _ in range(25):
            flipped = bytearray(stream)
            flipped[int(rng.integers(start, len(stream)))] ^= 1 << int(rng.integers(0, 8))
            cases.append(bytes(flipped))
        for case in cases:
            _assert_decodes_like(ref.huffman_decode_full_lifting, case)

    def test_incomplete_code_reports_invalid_code_like_the_oracle(self):
        """A hand-built stream whose code leaves windows unassigned: the
        stuck-at-a-dead-position path must read the same in both."""
        symbols = np.array([3, 4, 5], dtype="<i8")
        lengths = np.array([1, 3, 3], dtype="<u1")  # codes 0, 100, 101; 11x is dead
        for payload, bits, n_values in ((b"\x4c", 7, 3), (b"\xc0", 2, 1), (b"\x30", 4, 3)):
            head = huffman._STREAM_HEADER.pack(3, n_values, bits, 3)
            stream = head + symbols.tobytes() + lengths.tobytes() + payload
            got = _decode_outcome(huffman.decode, stream)
            assert got == _decode_outcome(ref.huffman_decode_full_lifting, stream)
        assert got[0] == "CorruptStreamError"

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-30, 30), min_size=2, max_size=300),
        st.integers(0, 10**6),
    )
    def test_random_payload_damage(self, values, where):
        if len(set(values)) < 2:
            values = values + [values[0] + 1]
        stream = huffman.encode(np.array(values, dtype=np.int64))
        start = _payload_offset(stream)
        span = len(stream) - start
        flipped = bytearray(stream)
        flipped[start + where % span] ^= 1 << (where % 8)
        for case in (stream, bytes(flipped), stream[: start + where % span]):
            _assert_decodes_like(ref.huffman_decode_full_lifting, case)


class TestHuffmanHeaderValidation:
    """A corrupt header must raise ``CorruptStreamError`` and nothing else
    (ROADMAP aim 3).  Before the validation, 47 of the 192 single-bit
    flips of a header escaped as ``MemoryError`` / ``IndexError`` /
    ``OverflowError`` / ``ValueError``, some after multi-second stalls."""

    STREAMS = {
        "multi_symbol": lambda: _residual_stream(11, 4000, 20.0),
        "two_symbols": lambda: huffman.encode(np.array([1, 2, 2, 2], dtype=np.int64)),
        "single_symbol": lambda: huffman.encode(np.full(100, 7, dtype=np.int64)),
    }

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_every_header_bit_flip_decodes_or_raises_corrupt(self, name):
        stream = self.STREAMS[name]()
        for bit in range(8 * HEADER):
            flipped = bytearray(stream)
            flipped[bit >> 3] ^= 1 << (bit & 7)
            t0 = time.perf_counter()
            try:
                out = huffman.decode(bytes(flipped))
            except CorruptStreamError:
                out = None
            assert time.perf_counter() - t0 < 1.0, f"header bit {bit} stalled"
            assert out is None or out.dtype == np.int64

    def test_every_n_values_bit_flip_raises_or_decodes_all(self):
        """A flipped ``n_values`` used to decode to a short array (296,
        292, 268 or 44 of 300 values): the codes must end exactly at
        ``total_bits``."""
        values = np.round(np.random.default_rng(14).standard_normal(300) * 4.0).astype(np.int64)
        stream = huffman.encode(values)
        for bit in range(32, 96):  # bytes 4..11: n_values
            flipped = bytearray(stream)
            flipped[bit >> 3] ^= 1 << (bit & 7)
            t0 = time.perf_counter()
            try:
                out = huffman.decode(bytes(flipped))
            except CorruptStreamError:
                out = values
            assert time.perf_counter() - t0 < 1.0, f"n_values bit {bit} stalled"
            assert np.array_equal(out, values)

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_code_table_bit_flips_decode_or_raise_corrupt(self, name):
        stream = self.STREAMS[name]()
        n_symbols = int.from_bytes(stream[:4], "little")
        first = HEADER + 8 * n_symbols  # the lengths table
        for bit in range(8 * first, 8 * (first + min(n_symbols, 24))):
            flipped = bytearray(stream)
            flipped[bit >> 3] ^= 1 << (bit & 7)
            try:
                huffman.decode(bytes(flipped))
            except CorruptStreamError:
                pass

    def test_named_inconsistencies(self):
        stream = _residual_stream(12, 200, 4.0)
        n_symbols, n_values, total_bits, width = huffman._STREAM_HEADER.unpack_from(stream, 0)

        def with_header(**fields):
            head = {"n_symbols": n_symbols, "n_values": n_values,
                    "total_bits": total_bits, "width": width, **fields}
            return huffman._STREAM_HEADER.pack(
                head["n_symbols"], head["n_values"], head["total_bits"], head["width"]
            ) + stream[HEADER:]

        assert np.array_equal(huffman.decode(with_header()), huffman.decode(stream))
        for bad in (
            {"total_bits": 8 * len(stream)},  # more bits than the payload holds
            {"n_values": total_bits + 1},  # more codes than bits
            {"n_values": 2**63},  # would size an EiB array
            {"width": width + 1},  # not the table's max length
            {"width": 0},
        ):
            with pytest.raises(CorruptStreamError):
                huffman.decode(with_header(**bad))

    def test_zero_length_in_table_is_corrupt(self):
        stream = bytearray(_residual_stream(13, 200, 4.0))
        n_symbols = int.from_bytes(stream[:4], "little")
        stream[HEADER + 8 * n_symbols] = 0
        with pytest.raises(CorruptStreamError, match="code table"):
            huffman.decode(bytes(stream))

    def test_width_beyond_the_table_cap_is_corrupt(self):
        """Consistent header and table, but a window table of 2**40 entries."""
        symbols = np.arange(2, dtype="<i8")
        lengths = np.array([1, 40], dtype="<u1")
        stream = (huffman._STREAM_HEADER.pack(2, 1, 1, 40) + symbols.tobytes()
                  + lengths.tobytes() + b"\x00")
        with pytest.raises(CorruptStreamError, match="code table"):
            huffman.decode(stream)

    def test_single_symbol_stream_is_bound_to_its_payload(self):
        stream = huffman.encode(np.full(100, 7, dtype=np.int64))
        assert huffman.decode(stream).tolist() == [7] * 100
        with pytest.raises(CorruptStreamError, match="payload shorter"):
            huffman.decode(stream[:-1])

    def test_encoder_never_exceeds_the_cap(self):
        counts = _fibonacci_counts(40)
        code = huffman.build_code(symbols=np.arange(40), counts=counts, max_length=64)
        assert code.max_length == huffman.MAX_CODE_LENGTH
        values = np.repeat(np.arange(40), np.minimum(counts, 50))
        stream = huffman.encode(values, max_length=64)
        assert np.array_equal(huffman.decode(stream), values)


# -- entropy-stage kernels that read straight from the bytes, against the
# -- retired forms: searchsorted encode, int64-window decoder, bit matrix --------------

_SPAN_FACTOR = huffman._LOOKUP_SPAN_FACTOR
_INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def _symbol_streams(draw):
    """Value arrays for both encoder paths: narrow alphabets (lookup
    table), spans either side of the table threshold, full-range int64
    values with the extremes, one symbol, and nothing."""
    kind = draw(st.sampled_from(["narrow", "threshold", "wide", "one_symbol", "empty"]))
    if kind == "empty":
        return np.zeros(0, dtype=np.int64)
    n = draw(st.integers(1, 300))
    if kind == "narrow":
        lo = draw(_INT64.filter(lambda v: v < 2**63 - 64))
        return np.array(draw(st.lists(st.integers(lo, lo + 63), min_size=n, max_size=n)),
                        dtype=np.int64)
    if kind == "threshold":
        n = max(n, 2)
        span = _SPAN_FACTOR * n + draw(st.integers(-1, 1))
        lo = draw(st.integers(-(2**63), 2**63 - span))
        inner = draw(st.lists(st.integers(lo, lo + span - 1), min_size=n - 2, max_size=n - 2))
        return np.array([lo, lo + span - 1, *inner], dtype=np.int64)
    if kind == "wide":
        edges = st.sampled_from([-(2**63), 2**63 - 1, -1, 0])
        return np.array(draw(st.lists(_INT64 | edges, min_size=n, max_size=n)), dtype=np.int64)
    return np.full(n, draw(_INT64), dtype=np.int64)


class TestEncodeByLookup:
    @settings(max_examples=300, deadline=None)
    @given(_symbol_streams(), st.sampled_from([16, 9]))
    def test_byte_identical_to_searchsorted_and_decodes_like_the_window_decoder(
        self, values, max_length
    ):
        stream = huffman.encode(values, max_length=max_length)
        assert stream == ref.huffman_encode_searchsorted(values, max_length=max_length)
        out = huffman.decode(stream)
        assert out.dtype == np.int64
        assert out.tolist() == ref.huffman_decode_windows(stream).tolist() == values.tolist()

    def test_both_sides_of_the_threshold_are_hit(self):
        n = 50
        for span in (_SPAN_FACTOR * n - 1, _SPAN_FACTOR * n):
            values = np.arange(n, dtype=np.int64) * (span - 1) // (n - 1)
            assert int(values.max() - values.min()) + 1 == span
            stream = huffman.encode(values)
            assert stream == ref.huffman_encode_searchsorted(values)
            assert np.array_equal(huffman.decode(stream), values)

    @settings(max_examples=100, deadline=None)
    @given(_symbol_streams(), st.data())
    def test_supplied_code_book(self, values, data):
        if values.size == 0:
            return
        extra = np.array(data.draw(st.lists(_INT64, max_size=5)), dtype=np.int64)
        code = huffman.build_code(np.concatenate([values, extra]))
        stream = huffman.encode(values, code=code)
        assert stream == ref.huffman_encode_searchsorted(values, code=code)
        assert np.array_equal(huffman.decode(stream), values)

    @pytest.mark.parametrize("outside", [-(2**63), 2**63 - 1, 3, 1000])
    def test_value_outside_a_supplied_code_book_raises_in_both(self, outside):
        code = huffman.build_code(np.array([0, 1, 2, 4, 4, 4], dtype=np.int64))
        values = np.array([0, 1, outside, 2], dtype=np.int64)
        for encoder in (huffman.encode, ref.huffman_encode_searchsorted):
            with pytest.raises(ValueError, match="outside the supplied code book"):
                encoder(values, code=code)


class TestDecodeFromBytes:
    @pytest.mark.parametrize(
        "seed,n,spread,max_length",
        [(20, 3, 1.0, 16), (21, 64, 0.4, 16), (22, 4000, 0.7, 16), (23, 4000, 8.0, 16),
         (24, 4000, 3000.0, 16), (25, 2000, 50.0, 24), (26, 700, 9.0, 7)],
    )
    def test_every_lift_depth_matches_the_window_decoder(self, seed, n, spread, max_length):
        stream = _residual_stream(seed, n, spread, max_length)
        _, n_values, total_bits, _ = huffman._STREAM_HEADER.unpack_from(stream, 0)
        assert huffman._lift_levels(n_values, total_bits) in range(huffman._MAX_LIFT_LEVELS + 1)
        want = ref.huffman_decode_windows(stream)
        assert huffman.decode(stream).tolist() == want.tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=2, max_size=40),
        st.binary(min_size=1, max_size=64),
        st.integers(1, 512),
    )
    def test_damaged_code_table_decodes_like_the_table_decoder(self, lengths, payload, n):
        """Any code-length table the header checks let through, over-full
        (a corrupt stream) or incomplete, resolves codes exactly as the
        full symbol table over every window does."""
        n_symbols, width = len(lengths), max(lengths)
        total_bits = 8 * len(payload)
        head = huffman._STREAM_HEADER.pack(n_symbols, min(n, total_bits), total_bits, width)
        symbols = np.arange(n_symbols, dtype="<i8") * 7 - 20
        stream = head + symbols.tobytes() + np.array(lengths, dtype="<u1").tobytes() + payload
        _assert_decodes_like(ref.huffman_decode_windows, stream)

    def test_lift_depth_follows_bits_per_code(self):
        levels = [huffman._lift_levels(1000, bits) for bits in (1000, 2000, 8000, 40000)]
        assert levels == sorted(levels, reverse=True)
        assert levels[-1] == 0

    def test_one_bit_codes_hold_no_more_levels_than_the_window_decoder(self):
        """The densest stream decode accepts has one bit a code; its lift
        depth is capped so ``jump`` plus the levels make at most the five
        stream-sized int64 arrays the int64-window decoder held."""
        for n in (2, 63, 4096, 10**6):
            assert huffman._lift_levels(n, n) == huffman._MAX_LIFT_LEVELS == 4
        values = np.tile(np.array([3, 9], dtype=np.int64), 500)
        stream = huffman.encode(values)
        _, n_values, total_bits, _ = huffman._STREAM_HEADER.unpack_from(stream, 0)
        assert n_values == total_bits
        assert huffman.decode(stream).tolist() == ref.huffman_decode_windows(stream).tolist()


class TestReadUintFromBytes:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 100), st.data())
    def test_matches_the_bit_matrix_at_every_width(self, width, count, data):
        values = np.array(
            data.draw(st.lists(st.integers(0, 2**width - 1), min_size=count, max_size=count)),
            dtype=np.uint64,
        )
        payload = write_uint_array(values, width)
        got = read_uint_array(payload, width, count)
        assert got.dtype == np.uint64
        assert got.tolist() == ref.read_uint_array_bitmatrix(payload, width, count).tolist()
        assert got.tolist() == values.tolist()

    def test_large_reads_come_back_native_uint64(self):
        """The `<<` operator once shifted a large gathered temporary in
        place, so a 118 k-value read came back as big-endian uint64."""
        values = np.arange(118_377, dtype=np.uint64) * np.uint64(35)
        got = read_uint_array(write_uint_array(values, 22), 22, values.size)
        assert got.dtype.str == np.dtype(np.uint64).str
        assert got.tobytes() == values.tobytes()

    @pytest.mark.parametrize("width", [1, 7, 8, 57, 58, 63, 64])
    def test_all_ones_and_truncation(self, width):
        values = np.full(17, 2**width - 1, dtype=np.uint64)
        payload = write_uint_array(values, width)
        assert read_uint_array(payload, width, 17).tolist() == values.tolist()
        for reader in (read_uint_array, ref.read_uint_array_bitmatrix):
            with pytest.raises(CorruptStreamError, match="shorter than declared"):
                reader(payload[:-1], width, 17)


def _codes_or_error(assign, lengths):
    try:
        return assign(lengths).tobytes()
    except Exception as exc:  # noqa: BLE001 - the error type is compared
        return type(exc)


class TestCanonicalCodesByArgsort:
    """One stable argsort by (length, symbol index) gives the codes the
    per-length passes gave, code for code, on built and on arbitrary
    length tables (where both raise, they raise the same error)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**40), min_size=0, max_size=300),
        st.integers(min_value=1, max_value=huffman.MAX_CODE_LENGTH),
    )
    def test_built_codes_are_identical(self, counts, max_length):
        assume(len(counts) <= 2**max_length)  # else no code of that depth exists
        lengths = huffman.code_lengths(np.array(counts, dtype=np.int64), max_length)
        got = huffman.canonical_codes(lengths)
        assert got.dtype == np.uint64
        assert got.tobytes() == ref.canonical_codes_per_length(lengths).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=70), min_size=0, max_size=120))
    def test_arbitrary_length_tables_are_identical(self, lengths):
        lengths = np.array(lengths, dtype=np.int64)
        assert _codes_or_error(huffman.canonical_codes, lengths) == _codes_or_error(
            ref.canonical_codes_per_length, lengths
        )

    @pytest.mark.parametrize(
        "lengths", [[], [0], [0, 0], [1], [3, 0, 3], [1, 1], [2, 1, 2], [70_000, 0, 70_000]]
    )
    def test_edge_tables(self, lengths):
        lengths = np.array(lengths, dtype=np.int64)
        assert _codes_or_error(huffman.canonical_codes, lengths) == _codes_or_error(
            ref.canonical_codes_per_length, lengths
        )


# -- entropy kernels in fixed-size blocks, against the oracles, with the
# -- block constants shrunk so that codes straddle block boundaries --------------

_DECODE_BLOCKS = st.sampled_from([8, 9, 16, 24, 31, 64, 200, huffman._DECODE_BITS])
_PACK_BLOCKS = st.sampled_from([1, 2, 3, 7, 16, bitio._PACK_VALUES])


def _bit_walk(stream: bytes) -> np.ndarray:
    """Sequential oracle for streams whose header and code table are
    intact: one code at a time, one bit at a time (bits past the payload's
    last byte read as zero), truncation where a code must start at or past
    ``total_bits``, and the codes must end there."""
    n_symbols, n_values, total_bits, width = huffman._STREAM_HEADER.unpack_from(stream, 0)
    symbols = np.frombuffer(stream, "<i8", n_symbols, HEADER)
    lengths = np.frombuffer(stream, "<u1", n_symbols, HEADER + 8 * n_symbols).astype(np.int64)
    nbytes = (total_bits + 7) >> 3
    payload = stream[_payload_offset(stream) :]
    if len(payload) < nbytes:
        raise CorruptStreamError("bit payload shorter than declared length")
    book = {(int(l), int(c)): int(s)
            for s, l, c in zip(symbols, lengths, huffman.canonical_codes(lengths))}
    bits = np.unpackbits(np.frombuffer(payload[:nbytes], np.uint8)).tolist() + [0] * width
    out, pos = [], 0
    for k in range(n_values):
        if pos >= total_bits:
            raise CorruptStreamError("huffman stream truncated")
        code = 0
        for length in range(1, width + 1):
            code = 2 * code + bits[pos + length - 1]
            if (length, code) in book:
                break
        else:
            raise CorruptStreamError(
                "invalid prefix at stream start" if k == 0 else "invalid huffman code in stream")
        out.append(book[length, code])
        pos += length
    if pos != total_bits:
        raise CorruptStreamError("huffman codes do not end at the declared bit count")
    return np.array(out, dtype=np.int64)


@st.composite
def _coded_streams(draw):
    """A few hundred values under a code book whose lengths reach up to
    24 bits (Fibonacci counts build the deepest trees), coded with it."""
    n_symbols = draw(st.integers(2, 26))
    max_length = draw(st.integers(max(1, (n_symbols - 1).bit_length()), huffman.MAX_CODE_LENGTH))
    if draw(st.booleans()):
        counts = _fibonacci_counts(n_symbols)
    else:
        counts = np.array(draw(st.lists(st.integers(1, 10**6), min_size=n_symbols,
                                        max_size=n_symbols)), dtype=np.int64)
    symbols = np.arange(n_symbols, dtype=np.int64) * 3 - 7
    code = huffman.build_code(symbols=symbols, counts=counts, max_length=max_length)
    # Mostly the longest codes, so a few hundred values span many blocks.
    longest = np.flatnonzero(code.lengths == code.max_length)
    picks = draw(st.lists(st.integers(0, n_symbols - 1) | st.sampled_from(longest.tolist()),
                          min_size=1, max_size=300))
    return huffman.encode(symbols[picks], code=code), symbols[picks]


class TestBlockedKernels:
    """The decoder and packer run one block at a time; shrunk blocks put
    code and byte boundaries on every kind of block seam."""

    @settings(max_examples=150, deadline=None)
    @given(_coded_streams(), _DECODE_BLOCKS, st.data())
    def test_decoder_matches_the_oracles_across_block_seams(self, coded, block, data):
        stream, values = coded
        start = _payload_offset(stream)
        cases = [stream]
        if len(stream) > start:
            # Damage in the stream's later blocks: the back half of the payload.
            where = data.draw(st.integers((start + len(stream)) // 2, len(stream) - 1))
            flipped = bytearray(stream)
            flipped[where] ^= 1 << data.draw(st.integers(0, 7))
            cases += [bytes(flipped), stream[:where]]
        width = huffman._STREAM_HEADER.unpack_from(stream, 0)[3]
        with patch.object(huffman, "_DECODE_BITS", block):
            assert huffman.decode(stream).tolist() == values.tolist()
            for case in cases:
                assert _decode_outcome(huffman.decode, case) == _decode_outcome(_bit_walk, case)
                if width <= 16:
                    _assert_decodes_like(ref.huffman_decode_windows, case)

    @pytest.mark.parametrize("block", [8, 64, 1000])
    @pytest.mark.parametrize("seed,n,spread,max_length",
                             [(40, 3000, 0.6, 16), (41, 3000, 25.0, 16), (42, 700, 9.0, 7)])
    def test_residual_streams_at_every_lift_depth(self, block, seed, n, spread, max_length):
        """Thousands of codes over many blocks, damage in the later ones."""
        stream = _residual_stream(seed, n, spread, max_length)
        later = (_payload_offset(stream) + len(stream)) // 2
        rng = np.random.default_rng(seed)
        cases = [stream] + [stream[: int(rng.integers(later, len(stream)))] for _ in range(4)]
        for _ in range(8):
            flipped = bytearray(stream)
            flipped[int(rng.integers(later, len(stream)))] ^= 1 << int(rng.integers(0, 8))
            cases.append(bytes(flipped))
        with patch.object(huffman, "_DECODE_BITS", block):
            for case in cases:
                _assert_decodes_like(ref.huffman_decode_full_lifting, case)

    @settings(max_examples=150, deadline=None)
    @given(_codes_and_lengths, _PACK_BLOCKS)
    def test_packer_is_byte_identical_across_block_seams(self, pairs, block):
        codes = np.array([c for c, _ in pairs], dtype=np.uint64)
        lengths = np.array([l for _, l in pairs], dtype=np.int64)
        with patch.object(bitio, "_PACK_VALUES", block):
            assert pack_codes(codes, lengths) == ref.pack_codes_bitplanes(codes, lengths)
            assert pack_codes(codes, lengths.astype(np.uint8)) == pack_codes(codes, lengths)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(57, 64), st.integers(1, 60), _PACK_BLOCKS, st.data())
    def test_wide_codes_spill_a_ninth_byte_across_block_seams(self, width, count, block, data):
        values = np.array(data.draw(st.lists(st.integers(2**width - 2**20, 2**width - 1),
                                             min_size=count, max_size=count)), dtype=np.uint64)
        with patch.object(bitio, "_PACK_VALUES", block):
            payload = write_uint_array(values, width)
        lengths = np.full(count, width, dtype=np.int64)
        assert payload == ref.pack_codes_bitplanes(values, lengths)[0]
        assert read_uint_array(payload, width, count).tolist() == values.tolist()


class TestMemoryIndependentOfStreamSize:
    """Both kernels work one block at a time: past their output, a 4 M
    value stream needs the same fixed budget as a 1 M one."""

    BUDGET = 8 << 20

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [1 << 20, 1 << 22])
    def test_decode(self, n):
        values = np.round(np.random.default_rng(n).standard_normal(n) * 3.0).astype(np.int64)
        stream = huffman.encode(values)
        out, peak = self._peak(huffman.decode, stream)
        assert np.array_equal(out, values)
        assert peak - out.nbytes < self.BUDGET, f"{(peak - out.nbytes) / 2**20:.1f} MB"

    @pytest.mark.parametrize("n", [1 << 20, 1 << 22])
    def test_pack(self, n):
        rng = np.random.default_rng(n)
        lengths = rng.integers(1, 25, n).astype(np.uint8)
        codes = rng.integers(0, 2**24, n, dtype=np.uint64)
        (payload, bits), peak = self._peak(pack_codes, codes, lengths)
        assert bits == int(lengths.sum(dtype=np.int64))
        # The packed bytes are built in place, then copied out as bytes.
        assert peak - 2 * len(payload) < self.BUDGET, f"{(peak - 2 * len(payload)) / 2**20:.1f} MB"
