"""Tests for vectorised bit packing/unpacking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CorruptStreamError
from repro.encoding.bitio import pack_codes, read_uint_array, write_uint_array
# No production path unpacks a bit array any more; these two live on as
# referees, and their tests pin the referees.
from tests.reference_kernels import unpack_bits, windows_at_every_position


class TestPackCodes:
    def test_single_byte_code(self):
        payload, nbits = pack_codes(np.array([0b101]), np.array([3]))
        assert nbits == 3
        assert np.unpackbits(np.frombuffer(payload, np.uint8))[:3].tolist() == [1, 0, 1]

    def test_concatenation_msb_first(self):
        payload, nbits = pack_codes(np.array([0b1, 0b01]), np.array([1, 2]))
        assert nbits == 3
        bits = np.unpackbits(np.frombuffer(payload, np.uint8))[:3]
        assert bits.tolist() == [1, 0, 1]

    def test_zero_length_codes_skipped(self):
        payload, nbits = pack_codes(np.array([5, 3]), np.array([0, 2]))
        assert nbits == 2

    def test_empty(self):
        payload, nbits = pack_codes(np.array([], dtype=np.uint64), np.array([], dtype=np.int64))
        assert payload == b"" and nbits == 0

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([1, 2]), np.array([1]))


class TestUnpackBits:
    def test_roundtrip_with_pack(self):
        codes = np.array([0b1101, 0b10, 0b1], dtype=np.uint64)
        lengths = np.array([4, 2, 1])
        payload, nbits = pack_codes(codes, lengths)
        bits = unpack_bits(payload, nbits)
        assert bits.tolist() == [1, 1, 0, 1, 1, 0, 1]

    def test_truncated_payload_raises(self):
        with pytest.raises(CorruptStreamError):
            unpack_bits(b"\x00", 9)

    def test_zero_bits(self):
        assert unpack_bits(b"", 0).size == 0


class TestWindows:
    def test_every_position(self):
        bits = np.array([1, 0, 1, 1], dtype=np.uint8)
        win = windows_at_every_position(bits, 2)
        assert win.tolist() == [0b10, 0b01, 0b11, 0b10]  # last padded with 0

    def test_width_one(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        assert windows_at_every_position(bits, 1).tolist() == [1, 0, 1]

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            windows_at_every_position(np.array([1], dtype=np.uint8), 0)


class TestFixedWidth:
    @given(
        st.lists(st.integers(min_value=0, max_value=2**20 - 1), min_size=0, max_size=200),
        st.integers(min_value=20, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_uint_array_roundtrip(self, values, width):
        arr = np.asarray(values, dtype=np.uint64)
        payload = write_uint_array(arr, width)
        out = read_uint_array(payload, width, arr.size)
        assert np.array_equal(out, arr)

    def test_width_boundary_values(self):
        arr = np.array([0, 1, (1 << 13) - 1], dtype=np.uint64)
        out = read_uint_array(write_uint_array(arr, 13), 13, 3)
        assert np.array_equal(out, arr)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**16 - 1),
            st.integers(min_value=1, max_value=16),
        ),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=40, deadline=None)
def test_pack_roundtrip_property(pairs):
    """Packing then re-reading each code at its offset recovers it."""
    codes = np.array([c & ((1 << l) - 1) for c, l in pairs], dtype=np.uint64)
    lengths = np.array([l for _, l in pairs], dtype=np.int64)
    payload, nbits = pack_codes(codes, lengths)
    bits = unpack_bits(payload, nbits)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    for code, length, off in zip(codes, lengths, offsets):
        got = 0
        for j in range(length):
            got = (got << 1) | int(bits[off + j])
        assert got == int(code)
