"""SPERR-style wavelet compressor (CDF 5/3 integer lifting).

SPERR (named in §2.2 as one of SECRE's additional targets) is "a leading
compressor based on wavelets": a multilevel wavelet transform followed
by embedded coefficient coding.  This reproduction keeps the defining
structure — a separable multilevel wavelet decomposition and
coefficient entropy coding — while making the error bound exact by the
same quantize-first construction as our SZ3: values are quantized to the
``2·eb`` grid, then transformed with the *reversible* integer CDF 5/3
(LeGall) lifting of JPEG 2000, which is losslessly invertible on
integers, and finally entropy coded (Huffman + lossless pass with the
escape mechanism shared across the codecs).  That tail is SZ3's own
(:func:`~repro.compressors.sz3.encode_tail`), not a copy of it.

Each lifting pass is expressed with strided slices (no per-element
loops); odd lengths use symmetric boundary extension exactly as the
JPEG 2000 reversible filter specifies.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from ..core.compressor import CompressorPlugin, Lap, compressor_registry, no_lap
from ..core.errors import CorruptStreamError
from ..core.options import PressioOptions
from .sz3 import decode_tail, dequantize, encode_tail, quantize

DEFAULT_LEVELS = 3


def dwt53_forward_axis(arr: np.ndarray, axis: int) -> None:
    """In-place CDF 5/3 forward lifting along *axis*.

    After the call the axis holds ``[approx | detail]`` concatenated
    (approx = ceil(n/2) entries).
    """
    v = np.moveaxis(arr, axis, 0)  # axis first, as a view
    n = v.shape[0]
    if n < 2:
        return
    even = v[0::2].astype(np.int64)  # copies
    odd = v[1::2].astype(np.int64)
    ne, no = even.shape[0], odd.shape[0]
    # Predict: d[i] -= floor((e[i] + e[i+1]) / 2); e[i+1] mirrors at edge.
    right = even[1:] if ne > no else even[1:].copy()
    if right.shape[0] < no:  # odd index has no right even neighbour
        right = np.concatenate([right, even[-1:][...]], axis=0)
    odd -= (even[:no] + right) >> 1
    # Update: e[i] += floor((d[i-1] + d[i] + 2) / 4); mirror at edges.
    d_left = np.concatenate([odd[:1], odd[:-1]], axis=0)
    d_all = odd
    if ne > no:  # extra trailing even sample: mirror the last detail
        d_left = np.concatenate([d_left, odd[-1:]], axis=0)
        d_all = np.concatenate([odd, odd[-1:]], axis=0)
    even += (d_left + d_all + 2) >> 2
    v[:ne] = even
    v[ne:] = odd


def dwt53_inverse_axis(arr: np.ndarray, axis: int) -> None:
    """Exact inverse of :func:`dwt53_forward_axis` (in place)."""
    v = np.moveaxis(arr, axis, 0)  # axis first, as a view
    n = v.shape[0]
    if n < 2:
        return
    ne = (n + 1) // 2
    even = v[:ne].astype(np.int64)
    odd = v[ne:].astype(np.int64)
    no = odd.shape[0]
    d_left = np.concatenate([odd[:1], odd[:-1]], axis=0)
    d_all = odd
    if ne > no:
        d_left = np.concatenate([d_left, odd[-1:]], axis=0)
        d_all = np.concatenate([odd, odd[-1:]], axis=0)
    even -= (d_left + d_all + 2) >> 2
    right = even[1:]
    if right.shape[0] < no:
        right = np.concatenate([right, even[-1:]], axis=0)
    odd += (even[:no] + right) >> 1
    out = np.empty_like(v, dtype=np.int64)
    out[0::2] = even
    out[1::2] = odd
    v[:] = out


def wavelet_forward(codes: np.ndarray, levels: int) -> np.ndarray:
    """Multilevel separable transform on the integer grid (copy)."""
    out = codes.astype(np.int64, copy=True)
    shape = out.shape
    region = list(shape)
    for _ in range(levels):
        if all(r < 2 for r in region):
            break
        sl = tuple(slice(0, r) for r in region)
        sub = out[sl]
        for axis in range(out.ndim):
            if region[axis] >= 2:
                dwt53_forward_axis(sub, axis)
        region = [(r + 1) // 2 if r >= 2 else r for r in region]
    return out


def wavelet_inverse(coeffs: np.ndarray, levels: int) -> np.ndarray:
    """Invert :func:`wavelet_forward` exactly."""
    out = coeffs.astype(np.int64, copy=True)
    shape = out.shape
    # Recompute the region sizes at each level, then unwind.
    regions = []
    region = list(shape)
    for _ in range(levels):
        if all(r < 2 for r in region):
            break
        regions.append(list(region))
        region = [(r + 1) // 2 if r >= 2 else r for r in region]
    for region in reversed(regions):
        sl = tuple(slice(0, r) for r in region)
        sub = out[sl]
        for axis in range(out.ndim - 1, -1, -1):
            if region[axis] >= 2:
                dwt53_inverse_axis(sub, axis)
    return out


@compressor_registry.register("sperr")
class SperrCompressor(CompressorPlugin):
    """Wavelet transform + entropy coding with a strict absolute bound."""

    id = "sperr"
    error_affecting_options: Sequence[str] = ("pressio:abs", "pressio:rel")

    def default_options(self) -> PressioOptions:
        return PressioOptions(
            {
                "pressio:abs": 1e-4,
                "sperr:levels": DEFAULT_LEVELS,
                "sperr:lossless": "zlib",
                "sperr:huffman_max_length": 16,
            }
        )

    stages = ("quantize", "transform", "huffman", "lossless")

    def levels(self) -> int:
        return int(self._options.get("sperr:levels", DEFAULT_LEVELS))

    def transform_coefficients(self, array: np.ndarray, lap: Lap = no_lap) -> np.ndarray:
        """Quantize + transform only (exposed for prediction probes)."""
        codes = quantize(array, self.abs_bound)
        lap("quantize")
        coeffs = wavelet_forward(codes, self.levels())
        lap("transform")
        return coeffs

    def compress_impl(self, array: np.ndarray, lap: Lap = no_lap) -> bytes:
        coeffs = self.transform_coefficients(np.asarray(array), lap)
        stream, side = encode_tail(
            coeffs.reshape(-1),
            int(self._options.get("sperr:huffman_max_length", 16)),
            self._options.get("sperr:lossless", "zlib"),
            lap,
        )
        head = struct.pack("<BQQd", self.levels(), len(stream), len(side), self.abs_bound)
        return head + stream + side

    def decompress_impl(self, payload: bytes, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        hdr = struct.calcsize("<BQQd")
        if len(payload) < hdr:
            raise CorruptStreamError("sperr payload too short")
        levels, hsize, esc_size, eb = struct.unpack_from("<BQQd", payload, 0)
        symbols = decode_tail(payload, hdr, hsize, esc_size)
        work_shape = shape if shape else (1,)
        codes = wavelet_inverse(symbols.reshape(work_shape), levels)
        return dequantize(codes, eb, dtype).reshape(shape)
