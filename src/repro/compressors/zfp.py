"""ZFP-style transform-based error-bounded compressor (fixed-accuracy).

Reproduces ZFP's structure at laptop scale:

1. **Blocking** — the array is edge-padded to multiples of 4 and split
   into ``4^d`` blocks via reshape/transpose (no gather loops).
2. **Fixed point** — each block is scaled by a per-block common
   power-of-two exponent and rounded to int64 (ZFP's block-floating
   point step).
3. **Decorrelating transform** — ZFP's integer lifting transform applied
   along each block axis, vectorised *across* blocks.  Like the real
   transform it is only *near*-invertible: each axis pass can lose a
   couple of low-order bits (zfp reserves guard bits for this).  At
   ``FRAC_BITS = 40`` the loss is ~2^-37 of the block magnitude, far
   below any practical tolerance, and the quantization-step budget
   below leaves half the tolerance as margin to absorb it.
4. **Coefficient quantization** — coefficients are divided by a
   power-of-two step derived from the tolerance and a numerically
   computed bound on the inverse transform's L∞ gain, so the
   reconstruction honours ``pressio:abs``.
5. **Fixed-width packing** — like real ZFP (which has *no* entropy-coding
   stage), quantized AC coefficients are zigzag-mapped and bit-packed at
   each block's minimal width; DC coefficients are delta coded across
   blocks.  A final lossless pass removes residual redundancy.

Stage 1 is :func:`to_blocks`, stages 2–3 :func:`block_coefficients`
(independent of the bound), stage 4 :func:`accuracy_shift` plus
:func:`quantize_coefficients`; the ZFP stage probe calls the same three.

Skipping Huffman entirely is what makes ZFP decisively faster than SZ3 —
the contrast the paper's Table 2 baseline row reports (65 ms vs 323 ms
compression on Hurricane) — while the transform keeps it competitive on
smooth blocks.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Sequence

import numpy as np

from ..core.compressor import CompressorPlugin, Lap, compressor_registry, no_lap
from ..core.errors import CorruptStreamError, OptionError
from ..core.options import PressioOptions
from ..encoding.bitio import pack_width_groups, uint_bit_length, unpack_width_groups
from ..encoding.lz import lossless_compress, lossless_decompress

BLOCK = 4
#: fixed-point fraction bits: values are scaled into [-2^FRAC, 2^FRAC].
FRAC_BITS = 40


def _lift_axis_forward(t: np.ndarray, axis: int) -> None:
    """ZFP's forward lifting step along one axis of stacked blocks.

    ``t`` has shape (..., 4, ...) with the 4 at *axis*; operates in place
    on int64.  The sequence is the published zfp transform::

        x += w; x >>= 1; w -= x
        z += y; z >>= 1; y -= z
        x += z; x >>= 1; z -= x
        w += y; w >>= 1; y -= w
        w += y >> 1; y -= w >> 1
    """
    x, y, z, w = np.moveaxis(t, axis, 0)  # views: the updates land in t
    x += w
    x >>= 1
    w -= x
    z += y
    z >>= 1
    y -= z
    x += z
    x >>= 1
    z -= x
    w += y
    w >>= 1
    y -= w
    w += y >> 1
    y -= w >> 1


def _lift_axis_inverse(t: np.ndarray, axis: int) -> None:
    """Exact inverse of :func:`_lift_axis_forward`."""
    x, y, z, w = np.moveaxis(t, axis, 0)
    y += w >> 1
    w -= y >> 1
    y += w
    w <<= 1
    w -= y
    z += x
    x <<= 1
    x -= z
    y += z
    z <<= 1
    z -= y
    w += x
    x <<= 1
    x -= w


def block_transform_forward(blocks: np.ndarray) -> np.ndarray:
    """Apply the lifting transform along every block axis (in place copy)."""
    out = blocks.astype(np.int64, copy=True)
    ndim = out.ndim - 1  # leading axis indexes blocks
    for axis in range(1, ndim + 1):
        _lift_axis_forward(out, axis)
    return out


def block_transform_inverse(blocks: np.ndarray) -> np.ndarray:
    """Invert :func:`block_transform_forward`."""
    out = blocks.astype(np.int64, copy=True)
    ndim = out.ndim - 1
    for axis in range(ndim, 0, -1):
        _lift_axis_inverse(out, axis)
    return out


@functools.lru_cache(maxsize=None)
def inverse_gain(ndim: int) -> float:
    """Numerically measured L∞ gain of the inverse transform.

    A unit perturbation of one (any) coefficient changes reconstructed
    values by at most this factor; derived by pushing scaled unit vectors
    through the integer inverse and taking the max response.  Computed
    once per dimensionality.
    """
    n = BLOCK**ndim
    scale = 1 << 20  # large scale so integer rounding is negligible
    probes = np.eye(n, dtype=np.int64) * scale
    recon = block_transform_inverse(probes.reshape((n,) + (BLOCK,) * ndim)).reshape(n, n)
    return float(np.abs(recon).sum(axis=0).max()) / scale


def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned so magnitude ↔ bit width (protobuf style)."""
    v = values.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag`."""
    u = values.astype(np.uint64)
    return ((u >> np.uint64(1)).astype(np.int64)) ^ -((u & np.uint64(1)).astype(np.int64))


def split_blocks(array: np.ndarray) -> np.ndarray:
    """(n1,…,nd) → (B, 4, …, 4) with all dims multiples of 4."""
    shape = array.shape
    d = array.ndim
    inter = []
    for s in shape:
        inter.extend([s // BLOCK, BLOCK])
    t = array.reshape(inter)
    order = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    t = t.transpose(order)
    nblocks = int(np.prod([s // BLOCK for s in shape])) if array.size else 0
    return t.reshape((nblocks,) + (BLOCK,) * d)


def join_blocks(blocks: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`split_blocks` for the padded shape."""
    d = len(shape)
    grid = [s // BLOCK for s in shape]
    t = blocks.reshape(grid + [BLOCK] * d)
    order: list[int] = []
    for i in range(d):
        order.extend([i, d + i])
    return t.transpose(order).reshape(shape)


def to_blocks(array: np.ndarray) -> np.ndarray:
    """Blocking: edge-pad each axis to a multiple of 4, stack the ``4^d`` blocks."""
    pads = [(0, (-s) % BLOCK) for s in array.shape]
    return split_blocks(np.pad(array, pads, mode="edge") if any(p for _, p in pads) else array)


def block_coefficients(
    blocks: np.ndarray, lap: Lap = no_lap
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bound-independent prefix of the encoder on stacked float blocks.

    Fixed point: each block's common exponent ``e`` scales it by
    ``2^(FRAC_BITS - e)`` so its max maps near ``2^FRAC_BITS``, rounded
    to int64.  Transform: the lifting transform along every block axis.
    Returns ``(exps, scale, coeffs)`` with ``coeffs`` as ``(B, 4^d)``;
    laps ``fixed_point`` and ``transform``.
    """
    nblocks = blocks.shape[0]
    flat = blocks.reshape(nblocks, -1)
    maxabs = np.abs(flat).max(axis=1)
    exps = np.zeros(nblocks, dtype=np.int64)
    nz = maxabs > 0
    exps[nz] = np.ceil(np.log2(maxabs[nz])).astype(np.int64)
    scale = np.ldexp(1.0, (FRAC_BITS - exps).astype(np.int64))  # 2^(FRAC-e)
    fixed = np.round(flat * scale[:, None]).astype(np.int64)
    lap("fixed_point")
    coeffs = block_transform_forward(fixed.reshape(blocks.shape)).reshape(nblocks, -1)
    lap("transform")
    return exps, scale, coeffs


def accuracy_shift(scale: np.ndarray, abs_bound: float, ndim: int) -> np.ndarray:
    """Per-block quantization step, as a power-of-two shift, that honours
    *abs_bound*: the tolerance in fixed point over the inverse-transform
    gain, floored to a power of two.  Round-to-nearest then errs by at
    most step/2 per coefficient, so the reconstruction error is bounded
    by ``gain * step/2 <= eb/2`` (plus negligible fixed-point rounding)."""
    tol_fixed = abs_bound * scale
    return np.floor(np.log2(np.maximum(tol_fixed / inverse_gain(ndim), 1.0))).astype(np.int64)


def quantize_coefficients(coeffs: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Round each block's coefficients to nearest on its ``2^shift`` grid."""
    half = np.where(shift > 0, np.int64(1) << np.maximum(shift - 1, 0), 0)
    return (coeffs + half[:, None]) >> shift[:, None]


@compressor_registry.register("zfp")
class ZFPCompressor(CompressorPlugin):
    """Fixed-accuracy ZFP-style block transform codec."""

    id = "zfp"
    error_affecting_options: Sequence[str] = ("pressio:abs", "pressio:rel")

    def default_options(self) -> PressioOptions:
        return PressioOptions(
            {
                "pressio:abs": 1e-4,
                "zfp:lossless": "zlib",
                # "accuracy" honours pressio:abs; "rate" targets a fixed
                # bit budget per value (zfp's fixed-rate mode — the mode
                # fixed-ratio frameworks like FRaZ build on) and does
                # NOT guarantee an error bound.
                "zfp:mode": "accuracy",
                "zfp:rate": 8.0,
            }
        )

    stages = ("fixed_point", "transform", "pack", "lossless")

    def compress_impl(self, array: np.ndarray, lap: Lap = no_lap) -> bytes:
        eb = self.abs_bound
        if eb <= 0:
            raise OptionError("pressio:abs must be positive")
        mode = self._options.get("zfp:mode", "accuracy")
        if mode not in ("accuracy", "rate"):
            raise OptionError(f"unknown zfp:mode {mode!r}")
        data = np.asarray(array, dtype=np.float64)
        if data.ndim == 0:
            data = data.reshape(1)
        if data.size == 0:
            return struct.pack("<dQQQQ", eb, 0, 0, 0, 0)
        blocks = to_blocks(data)  # (B, 4, ..., 4)
        exps, scale, coeffs = block_coefficients(blocks, lap)
        if mode == "rate":
            # Fixed-rate: choose each block's shift so its packed AC
            # width lands on the requested bits/value budget.
            target_width = max(int(round(float(self._options.get("zfp:rate", 8.0)))), 1)
            width0 = uint_bit_length(zigzag(coeffs[:, 1:]).max(axis=1))
            shift = np.maximum(width0 - target_width, 0)
        else:
            shift = accuracy_shift(scale, eb, blocks.ndim - 1)
        q = quantize_coefficients(coeffs, shift)
        # DC coefficients track block means: large but spatially smooth,
        # so delta-code them across blocks; AC coefficients are zigzag
        # mapped and bit-packed at each block's minimal width (real ZFP's
        # fixed-precision flavour — no entropy-coding stage).
        dc = q[:, 0]
        dc_delta = np.concatenate(([dc[0]], np.diff(dc)))
        ac_payload, widths = pack_width_groups(zigzag(q[:, 1:]))
        lap("pack")
        body = lossless_compress(ac_payload, backend=self._options.get("zfp:lossless", "zlib"))
        side = lossless_compress(
            dc_delta.astype("<i8").tobytes()
            + np.concatenate([exps, shift]).astype("<i2").tobytes()
            + widths.tobytes(),
            backend="zlib",
        )
        lap("lossless")
        head = struct.pack("<dQQQQ", eb, len(blocks), len(body), len(side), 0)
        return head + body + side

    def decompress_impl(self, payload: bytes, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        hdr = struct.calcsize("<dQQQQ")
        if len(payload) < hdr:
            raise CorruptStreamError("zfp payload too short")
        eb, nblocks, body_size, side_size, _reserved = struct.unpack_from("<dQQQQ", payload, 0)
        d = len(shape) if shape else 1
        work_shape = tuple(max(s, 1) for s in shape) if shape else (1,)
        # The block count is the shape's, and the side stream holds 13
        # bytes a block: check both before anything is sized from it.
        if nblocks != (0 if 0 in shape else math.prod(-(-s // BLOCK) for s in work_shape)):
            raise CorruptStreamError("zfp block count does not match the shape")
        if nblocks == 0:
            return np.zeros(shape, dtype=dtype)
        off = hdr
        body = payload[off : off + body_size]
        side_raw = payload[off + body_size : off + body_size + side_size]
        if len(body) != body_size or len(side_raw) != side_size:
            raise CorruptStreamError("zfp stream truncated")
        side = lossless_decompress(side_raw)
        if len(side) != 13 * nblocks:
            raise CorruptStreamError("zfp side stream does not match the block count")
        dc_delta = np.frombuffer(side, dtype="<i8", count=nblocks).astype(np.int64)
        ints = np.frombuffer(side, dtype="<i2", count=2 * nblocks, offset=8 * nblocks)
        exps = ints[:nblocks].astype(np.int64)
        shift = ints[nblocks:].astype(np.int64)
        widths = np.frombuffer(side, dtype=np.uint8, count=nblocks, offset=12 * nblocks)
        padded_shape = tuple(s + ((-s) % BLOCK) for s in work_shape)
        ncoef = BLOCK**d
        ac = unzigzag(unpack_width_groups(lossless_decompress(body), widths, ncoef - 1))
        q = np.empty((nblocks, ncoef), dtype=np.int64)
        q[:, 0] = np.cumsum(dc_delta)
        q[:, 1:] = ac
        coeffs = q << shift[:, None]  # round-to-nearest used 2^shift steps
        fixed = block_transform_inverse(coeffs.reshape((nblocks,) + (BLOCK,) * d))
        scale = np.ldexp(1.0, (exps - FRAC_BITS).astype(np.int64))
        values = fixed.reshape(nblocks, -1).astype(np.float64) * scale[:, None]
        padded = join_blocks(values.reshape((nblocks,) + (BLOCK,) * d), padded_shape)
        out = padded[tuple(slice(0, s) for s in work_shape)]
        return out.reshape(shape).astype(dtype)
