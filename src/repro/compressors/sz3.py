"""SZ3-style error-bounded compressor.

Reproduces the pipeline structure of SZ3 (prediction → quantization →
Huffman → lossless) with a *quantize-first* formulation that is both
fully vectorisable and strictly error bounded:

1. **Quantization** — ``q = round(x / (2·eb))`` maps every value onto an
   integer grid; reconstruction ``x̂ = 2·eb·q`` satisfies ``|x − x̂| ≤ eb``
   by construction, so the bound holds no matter what later stages do
   (they are lossless).
2. **Prediction** — an exactly-invertible integer Lorenzo transform on
   the quantized grid: the first-order n-D Lorenzo predictor is the
   composition of one first-difference per axis (inverse: cumulative
   sums in reverse order), all whole-array NumPy ops.  A second-order
   variant applies the difference twice per axis.
3. **Huffman** — residuals are entropy coded with the from-scratch
   canonical coder; rare large residuals use an escape symbol and a raw
   side channel so the alphabet stays bounded.
4. **Lossless** — the Huffman stream goes through a final
   zlib/LZ77 pass, mirroring SZ3's zstd stage.

The stage boundaries are exposed (``quantize``, ``predict_residuals``)
because the Jin 2022, Khan 2023 and Wang 2023 prediction schemes model
exactly these internals.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

import numpy as np

from ..core.compressor import CompressorPlugin, Lap, compressor_registry, no_lap
from ..core.errors import CorruptStreamError, OptionError
from ..core.options import PressioOptions
from ..encoding import huffman
from ..encoding.lz import lossless_compress, lossless_decompress
from .interp import check_grid, interp_decode, interp_encode

#: Residuals with |r| >= ESCAPE are coded as (escape symbol, raw value).
ESCAPE_LIMIT = 1 << 14


def quantize(array: np.ndarray, abs_bound: float) -> np.ndarray:
    """Quantize to the ``2·eb`` integer grid (the error-bounding stage)."""
    if abs_bound <= 0:
        raise OptionError("pressio:abs must be positive")
    values = np.asarray(array, dtype=np.float64)
    check_grid(values, 2.0 * abs_bound)
    return np.round(values / (2.0 * abs_bound)).astype(np.int64)


def dequantize(codes: np.ndarray, abs_bound: float, dtype: np.dtype) -> np.ndarray:
    """Inverse of :func:`quantize`."""
    return (codes.astype(np.float64) * (2.0 * abs_bound)).astype(dtype)


def lorenzo_forward(codes: np.ndarray, order: int = 1) -> np.ndarray:
    """Integer n-D Lorenzo residuals (first differences along each axis).

    Exactly invertible on int64; applying the transform *order* times
    gives higher-order prediction.
    """
    out = codes.astype(np.int64, copy=True)
    for _ in range(order):
        for axis in range(out.ndim):
            # In-place first difference along `axis`, keeping element 0.
            sl_hi = [slice(None)] * out.ndim
            sl_lo = [slice(None)] * out.ndim
            sl_hi[axis] = slice(1, None)
            sl_lo[axis] = slice(None, -1)
            out[tuple(sl_hi)] -= out[tuple(sl_lo)].copy()
    return out


def lorenzo_inverse(resid: np.ndarray, order: int = 1) -> np.ndarray:
    """Invert :func:`lorenzo_forward` via per-axis cumulative sums."""
    out = resid.astype(np.int64, copy=True)
    for _ in range(order):
        for axis in range(out.ndim - 1, -1, -1):
            np.cumsum(out, axis=axis, out=out)
    return out


def split_escapes(resid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replace out-of-window residuals with the escape sentinel.

    Returns ``(symbols, raw_escaped)`` where ``symbols`` uses
    ``ESCAPE_LIMIT`` as the sentinel value and ``raw_escaped`` holds the
    original residuals in stream order.
    """
    flat = resid.reshape(-1)
    mask = np.abs(flat) >= ESCAPE_LIMIT
    if not mask.any():
        return flat, flat[:0]
    symbols = flat.copy()
    symbols[mask] = ESCAPE_LIMIT
    return symbols, flat[mask]


def encode_tail(resid: np.ndarray, max_length: int, backend: str, lap: Lap) -> tuple[bytes, bytes]:
    """The entropy tail SZ3 and SPERR share: Huffman over the escaped
    residuals, then the optional lossless pass (its flag byte leads the
    stream), then the escaped residuals as a zlib'd ``<i8`` side stream.
    Returns ``(stream, side)``; laps ``huffman`` and ``lossless``."""
    symbols, escaped = split_escapes(resid)
    stream = huffman.encode(symbols, max_length=max_length)
    lap("huffman")
    if backend != "none":
        stream = b"\x01" + lossless_compress(stream, backend=backend)
    else:
        stream = b"\x00" + stream
    side = lossless_compress(escaped.astype("<i8").tobytes(), backend="zlib")
    lap("lossless")
    return stream, side


def decode_tail(payload: bytes, off: int, size: int, side_size: int) -> np.ndarray:
    """Inverse of :func:`encode_tail` for the two streams at ``payload[off:]``."""
    stream = payload[off : off + size]
    side = payload[off + size : off + size + side_size]
    if len(stream) != size or len(side) != side_size:
        raise CorruptStreamError("entropy-coded stream truncated")
    body = lossless_decompress(stream[1:]) if stream[:1] == b"\x01" else stream[1:]
    symbols = huffman.decode(body)
    escaped = np.frombuffer(lossless_decompress(side), dtype="<i8").astype(np.int64)
    mask = symbols == ESCAPE_LIMIT
    if int(mask.sum()) != escaped.size:
        raise CorruptStreamError("escape count mismatch")
    if escaped.size:
        symbols = symbols.copy()
        symbols[mask] = escaped
    return symbols


@compressor_registry.register("sz3")
class SZ3Compressor(CompressorPlugin):
    """The SZ3-style prediction + quantization + Huffman + lossless codec."""

    id = "sz3"
    error_affecting_options: Sequence[str] = ("pressio:abs", "pressio:rel", "sz3:predictor")

    def default_options(self) -> PressioOptions:
        opts = PressioOptions(
            {
                "pressio:abs": 1e-4,
                # "lorenzo" | "lorenzo2" | "none" | "interp"
                "sz3:predictor": "lorenzo",
                # final lossless backend: "zlib" | "lz77" | "none"
                "sz3:lossless": "zlib",
                "sz3:huffman_max_length": 16,
                # coarsest anchor spacing for the interpolation predictor
                "sz3:interp_max_stride": 16,
            }
        )
        return opts

    #: header tag for the interpolation predictor (orders 0-2 are Lorenzo).
    INTERP_TAG = 3

    stages = ("quantize", "predict", "huffman", "lossless")

    # -- stage helpers exposed to prediction schemes ----------------------------
    def predictor_order(self) -> int:
        name = self._options.get("sz3:predictor", "lorenzo")
        try:
            return {"none": 0, "lorenzo": 1, "lorenzo2": 2, "interp": self.INTERP_TAG}[name]
        except KeyError:
            raise OptionError(f"unknown sz3:predictor {name!r}") from None

    def predict_residuals(self, array: np.ndarray, lap: Lap = no_lap) -> np.ndarray:
        """Run only the quantize+predict stages (used by Jin/Khan models).

        For the interpolation predictor the returned stream is the full
        stage-ordered residual sequence (anchors included) — the same
        distribution the entropy stage will code.
        """
        order = self.predictor_order()
        if order == self.INTERP_TAG:
            # Interpolation quantizes inside its stage loop, so the
            # quantize stage is folded into predict.
            lap("quantize")
            resid = interp_encode(
                np.asarray(array, dtype=np.float64), self.abs_bound, self._interp_stride()
            )
        else:
            codes = quantize(array, self.abs_bound)
            lap("quantize")
            resid = lorenzo_forward(codes, order)
        lap("predict")
        return resid

    def _interp_stride(self) -> int:
        return int(self._options.get("sz3:interp_max_stride", 16))

    # -- codec ---------------------------------------------------------------
    def compress_impl(self, array: np.ndarray, lap: Lap = no_lap) -> bytes:
        resid = self.predict_residuals(array, lap)
        stream, side = encode_tail(
            resid,
            int(self._options.get("sz3:huffman_max_length", 16)),
            self._options.get("sz3:lossless", "zlib"),
            lap,
        )
        head = struct.pack(
            "<BQQdB", self.predictor_order(), len(stream), len(side), self.abs_bound,
            min(self._interp_stride(), 255),
        )
        return head + stream + side

    def decompress_impl(self, payload: bytes, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        if len(payload) < struct.calcsize("<BQQdB"):
            raise CorruptStreamError("sz3 payload too short")
        order, hsize, esc_size, eb, stride = struct.unpack_from("<BQQdB", payload, 0)
        symbols = decode_tail(payload, struct.calcsize("<BQQdB"), hsize, esc_size)
        if order == self.INTERP_TAG:
            return interp_decode(symbols, shape, eb, max(int(stride), 2), dtype)
        codes = lorenzo_inverse(symbols.reshape(shape), order)
        return dequantize(codes, eb, dtype)
