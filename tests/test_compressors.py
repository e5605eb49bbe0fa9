"""Tests for the error-bounded compressors: bounds, round trips, stages."""

import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.compressors import make_compressor
from repro.compressors.sz3 import (
    ESCAPE_LIMIT,
    dequantize,
    lorenzo_forward,
    lorenzo_inverse,
    quantize,
    split_escapes,
)
from repro.compressors.szx import classify_blocks
from repro.compressors.zfp import (
    block_transform_forward,
    block_transform_inverse,
    inverse_gain,
    join_blocks,
    pack_width_groups,
    split_blocks,
    unpack_width_groups,
    unzigzag,
    zigzag,
)
from repro.core import CorruptStreamError, OptionError
from repro.encoding import lossless_compress, lossless_decompress

ALL = ("sz3", "zfp", "szx")


def max_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max())


def bound_tol(eb: float, data: np.ndarray) -> float:
    """Allowed error: eb plus a few float32 ULPs of the data magnitude."""
    scale = float(np.abs(data).max()) if data.size else 1.0
    return eb * (1 + 1e-7) + 4 * np.finfo(np.float32).eps * scale


class TestErrorBounds:
    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("eb", [1e-2, 1e-4])
    def test_bound_on_fixtures(self, name, eb, smooth_field, sparse_field, rough_field):
        for data in (smooth_field, sparse_field, rough_field):
            comp = make_compressor(name, pressio__abs=eb)
            recon = comp.decompress(comp.compress(data)).array
            assert max_err(data, recon) <= bound_tol(eb, data)

    @pytest.mark.parametrize("name", ALL)
    @given(
        data=arrays(
            np.float32,
            array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
            elements=st.floats(-1e4, 1e4, width=32),
        ),
        eb=st.sampled_from([1e-3, 1e-1]),
    )
    @settings(max_examples=25, deadline=None)
    def test_bound_property(self, name, data, eb):
        comp = make_compressor(name, pressio__abs=eb)
        recon = comp.decompress(comp.compress(data)).array
        assert recon.shape == data.shape
        if data.size:
            assert max_err(data, recon) <= bound_tol(eb, data)

    @pytest.mark.parametrize("name", ALL)
    def test_float64_payloads(self, name):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((16, 16)).astype(np.float64)
        comp = make_compressor(name, pressio__abs=1e-6)
        recon = comp.decompress(comp.compress(data)).array
        assert recon.dtype == np.float64
        assert max_err(data, recon) <= 1e-6 * 1.001

    @pytest.mark.parametrize("name", ALL)
    def test_invalid_bound_rejected(self, name, smooth_field):
        comp = make_compressor(name, pressio__abs=-1.0)
        with pytest.raises(OptionError):
            comp.compress(smooth_field)


class TestEdgeShapes:
    @pytest.mark.parametrize("name", ALL)
    @pytest.mark.parametrize("shape", [(1,), (3,), (4, 4), (5, 7), (2, 3, 5), (257,)])
    def test_odd_shapes(self, name, shape):
        rng = np.random.default_rng(1)
        data = rng.standard_normal(shape).astype(np.float32)
        comp = make_compressor(name, pressio__abs=1e-3)
        recon = comp.decompress(comp.compress(data))
        assert recon.shape == shape
        assert max_err(data, recon.array) <= bound_tol(1e-3, data)

    @pytest.mark.parametrize("name", ALL)
    def test_constant_field_compresses_extremely(self, name):
        data = np.full((32, 32), 3.25, dtype=np.float32)
        comp = make_compressor(name, pressio__abs=1e-4)
        stream = comp.compress(data)
        assert data.nbytes / stream.nbytes > 10
        assert max_err(data, comp.decompress(stream).array) <= 1e-4 * 1.001

    @pytest.mark.parametrize("name", ALL)
    def test_all_zero_field_stays_zero(self, name):
        data = np.zeros((16, 16, 8), dtype=np.float32)
        comp = make_compressor(name, pressio__abs=1e-5)
        recon = comp.decompress(comp.compress(data)).array
        assert np.abs(recon).max() <= 1e-5


class TestCompressionBehaviour:
    def test_smooth_beats_rough(self, smooth_field, rough_field):
        for name in ALL:
            comp = make_compressor(name, pressio__abs=1e-3)
            cr_smooth = smooth_field.nbytes / comp.compress(smooth_field).nbytes
            cr_rough = rough_field.nbytes / comp.compress(rough_field).nbytes
            assert cr_smooth > cr_rough, name

    def test_looser_bound_higher_ratio(self, smooth_field):
        for name in ALL:
            tight = make_compressor(name, pressio__abs=1e-6)
            loose = make_compressor(name, pressio__abs=1e-2)
            cr_tight = smooth_field.nbytes / tight.compress(smooth_field).nbytes
            cr_loose = smooth_field.nbytes / loose.compress(smooth_field).nbytes
            assert cr_loose > cr_tight, name

    def test_szx_excels_on_sparse(self, sparse_field):
        comp = make_compressor("szx", pressio__abs=1e-4)
        cr = sparse_field.nbytes / comp.compress(sparse_field).nbytes
        assert cr > 4


class TestSZ3Internals:
    def test_quantize_bound(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal(1000)
        eb = 1e-3
        recon = dequantize(quantize(data, eb), eb, np.float64)
        assert np.abs(recon - data).max() <= eb

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_lorenzo_invertible(self, order, ndim):
        rng = np.random.default_rng(3)
        shape = (7, 5, 4)[:ndim]
        codes = rng.integers(-1000, 1000, size=shape)
        resid = lorenzo_forward(codes, order)
        assert np.array_equal(lorenzo_inverse(resid, order), codes)

    def test_lorenzo_shrinks_smooth_codes(self, smooth_field):
        codes = quantize(smooth_field.astype(np.float64), 1e-4)
        resid = lorenzo_forward(codes, 1)
        assert np.abs(resid).mean() < np.abs(codes).mean()

    def test_split_escapes(self):
        resid = np.array([0, 5, ESCAPE_LIMIT + 3, -ESCAPE_LIMIT - 9])
        symbols, escaped = split_escapes(resid)
        assert symbols.tolist() == [0, 5, ESCAPE_LIMIT, ESCAPE_LIMIT]
        assert escaped.tolist() == [ESCAPE_LIMIT + 3, -ESCAPE_LIMIT - 9]

    def test_split_escapes_no_copy_when_clean(self):
        resid = np.array([0, 1, -1])
        symbols, escaped = split_escapes(resid)
        assert escaped.size == 0

    def test_predictor_option(self, smooth_field):
        for predictor in ("none", "lorenzo", "lorenzo2"):
            comp = make_compressor("sz3", pressio__abs=1e-3)
            comp.set_options({"sz3:predictor": predictor})
            recon = comp.decompress(comp.compress(smooth_field)).array
            assert max_err(smooth_field, recon) <= bound_tol(1e-3, smooth_field)

    def test_unknown_predictor_raises(self, smooth_field):
        comp = make_compressor("sz3", pressio__abs=1e-3)
        comp.set_options({"sz3:predictor": "magic"})
        with pytest.raises(OptionError):
            comp.compress(smooth_field)

    def test_stream_sections_fill_the_payload(self, smooth_field):
        comp = make_compressor("sz3", pressio__abs=1e-3)
        payload = comp.compress_impl(smooth_field)
        _, hsize, esc_size, eb, _ = struct.unpack_from("<BQQdB", payload, 0)
        assert struct.calcsize("<BQQdB") + hsize + esc_size == len(payload)
        assert hsize > 0 and eb == 1e-3

    def test_lz77_backend_roundtrip(self, smooth_field):
        comp = make_compressor("sz3", pressio__abs=1e-2)
        comp.set_options({"sz3:lossless": "lz77"})
        small = smooth_field[:8, :8, :4]
        recon = comp.decompress(comp.compress(small)).array
        assert max_err(small, recon) <= bound_tol(1e-2, small)


class TestGridOverflow:
    """Quantize-first codecs must refuse a bound whose ``2·eb`` grid cannot
    hold the data: past ``2**53`` steps float64 rounding no longer lands
    on the grid, and past ``2**63`` the int64 cast wraps.  A constant
    non-zero field under ``pressio:rel`` resolves to ``eb = rel·1e-30``."""

    @pytest.mark.parametrize(
        "comp_id,options",
        [
            ("sz3", {"sz3:predictor": "lorenzo"}),
            ("sz3", {"sz3:predictor": "lorenzo2"}),
            ("sz3", {"sz3:predictor": "interp"}),
            ("sperr", {}),
        ],
    )
    def test_constant_field_under_rel_raises(self, comp_id, options):
        comp = make_compressor(comp_id)
        comp.set_options({**options, "pressio:rel": 1e-4})
        with pytest.raises(OptionError):
            comp.compress(np.full((8, 8, 8), 3.25))

    def test_quantize_refuses_the_first_unrepresentable_step(self):
        eb = 0.5  # grid step 1.0: codes are the values themselves
        assert quantize(np.array([2.0**53 - 1]), eb).tolist() == [2**53 - 1]
        with pytest.raises(OptionError):
            quantize(np.array([-(2.0**53)]), eb)

    def test_constant_field_under_rel_still_roundtrips_elsewhere(self):
        for comp_id in ("zfp", "szx"):
            comp = make_compressor(comp_id)
            comp.set_options({"pressio:rel": 1e-4})
            field = np.full((8, 8, 8), 3.25)
            recon = comp.decompress(comp.compress(field)).array
            assert np.array_equal(recon, field), comp_id


class TestZFPInternals:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_transform_near_invertible(self, ndim):
        """ZFP's lifting pair loses a few low bits per axis (the real
        codec reserves guard bits for exactly this); at FRAC_BITS=40 the
        loss is ~2^-37 relative — far below any usable tolerance."""
        rng = np.random.default_rng(4)
        blocks = rng.integers(-(2**40), 2**40, size=(10,) + (4,) * ndim)
        recon = block_transform_inverse(block_transform_forward(blocks))
        assert np.abs(recon - blocks).max() <= 2 ** (2 * ndim)

    def test_transform_concentrates_energy(self):
        # A linear ramp should transform to mostly-zero AC coefficients.
        ramp = np.arange(64, dtype=np.int64).reshape(1, 4, 4, 4) * 1000
        coeffs = block_transform_forward(ramp).reshape(-1)
        mags = np.abs(coeffs)
        top4 = np.sort(mags)[-4:].sum()
        assert top4 / mags.sum() > 0.8

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_inverse_gain_reasonable(self, ndim):
        g = inverse_gain(ndim)
        assert 1.0 <= g <= 100.0

    def test_split_join_blocks_roundtrip(self):
        rng = np.random.default_rng(5)
        arr = rng.standard_normal((8, 12, 4))
        blocks = split_blocks(arr)
        assert blocks.shape == (2 * 3 * 1, 4, 4, 4)
        assert np.array_equal(join_blocks(blocks, arr.shape), arr)

    def test_zigzag_roundtrip(self):
        vals = np.array([0, -1, 1, -2**40, 2**40], dtype=np.int64)
        assert np.array_equal(unzigzag(zigzag(vals)), vals)
        # zigzag maps small magnitudes to small unsigned values.
        assert zigzag(np.array([0]))[0] == 0
        assert zigzag(np.array([-1]))[0] == 1
        assert zigzag(np.array([1]))[0] == 2

    def test_width_groups_roundtrip(self):
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 2**12, size=(20, 15)).astype(np.uint64)
        rows[3] = 0  # a zero row gets width 0
        payload, widths = pack_width_groups(rows)
        assert widths[3] == 0
        out = unpack_width_groups(payload, widths, 15)
        assert np.array_equal(out, rows)

    def test_every_single_bit_flip_decodes_or_raises_corrupt(self):
        """A flipped ``nblocks`` used to size buffers unchecked: 63 of its
        64 flips escaped as ``ValueError`` or ``OverflowError``.  Any flip
        of the payload must now decode to the right shape or raise
        ``CorruptStreamError``, within 1 s."""
        comp = make_compressor("zfp", pressio__abs=1e-3)
        field = np.cumsum(np.random.default_rng(8).standard_normal((8, 8, 8)), axis=0)
        payload = comp.compress_impl(field)
        refused = 0
        for bit in range(8 * len(payload)):
            flipped = bytearray(payload)
            flipped[bit >> 3] ^= 1 << (bit & 7)
            t0 = time.perf_counter()
            try:
                out = comp.decompress_impl(bytes(flipped), field.dtype, field.shape)
            except CorruptStreamError:
                refused += bit // 8 in range(8, 16)  # the nblocks field
            else:
                assert out.shape == field.shape
            assert time.perf_counter() - t0 < 1.0, f"bit {bit} stalled"
        assert refused == 64

    @pytest.mark.parametrize("width", [65, 255])
    def test_width_byte_past_64_bits_is_corrupt(self, width):
        """A width is one byte of the zlib'd side stream, so a flip there
        rarely survives zlib; one that does must not reach the reader as a
        shift past 64 bits."""
        comp = make_compressor("zfp", pressio__abs=1e-3)
        field = np.cumsum(np.random.default_rng(8).standard_normal((8, 8, 8)), axis=0)
        payload = comp.compress_impl(field)
        eb, nblocks, body_size, side_size, reserved = struct.unpack_from("<dQQQQ", payload, 0)
        hdr = struct.calcsize("<dQQQQ")
        body = payload[hdr : hdr + body_size]
        side = bytearray(lossless_decompress(payload[hdr + body_size :]))
        side[12 * nblocks] = width
        side = lossless_compress(bytes(side), backend="zlib")
        head = struct.pack("<dQQQQ", eb, nblocks, body_size, len(side), reserved)
        with pytest.raises(CorruptStreamError, match="width"):
            comp.decompress_impl(head + body + side, field.dtype, field.shape)
        with pytest.raises(CorruptStreamError, match="width"):
            unpack_width_groups(bytes(64), np.array([3, width], dtype=np.uint8), 2)


class TestSZXInternals:
    def test_classify_blocks(self):
        flat = np.concatenate([np.full(128, 1.0), np.linspace(0, 1, 128)])
        _, lo, const = classify_blocks(flat, 128, eb=1e-3)
        assert const.tolist() == [True, False]
        assert lo[0] == pytest.approx(1.0)

    def test_looser_bound_makes_more_blocks_constant(self, sparse_field):
        flat = sparse_field.astype(np.float64).reshape(-1)
        shares = [classify_blocks(flat, 64, eb)[2].mean() for eb in (1e-4, 1e-2, 1.0)]
        assert 0.0 <= shares[0] < shares[1] < shares[2] <= 1.0

    def test_padding_never_creates_nonconstant(self):
        flat = np.full(100, 2.0)
        padded, _, const = classify_blocks(flat, 128, eb=1e-6)
        assert padded.size == 128
        assert const.tolist() == [True]

    def test_constant_block_uses_midrange(self):
        # Values spanning exactly 2*eb must still satisfy the bound.
        eb = 0.5
        flat = np.tile(np.array([0.0, 1.0]), 64)  # span 1.0 == 2*eb
        comp = make_compressor("szx", pressio__abs=eb)
        recon = comp.decompress(comp.compress(flat.astype(np.float32))).array
        assert np.abs(recon - flat).max() <= eb * 1.0001

    def test_block_size_option(self, smooth_field):
        comp = make_compressor("szx", pressio__abs=1e-3)
        comp.set_options({"szx:block_size": 32})
        recon = comp.decompress(comp.compress(smooth_field)).array
        assert max_err(smooth_field, recon) <= bound_tol(1e-3, smooth_field)
