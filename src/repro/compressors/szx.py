"""SZx-style ultra-fast error-bounded compressor.

SZx (Yu et al.) targets throughput over ratio with a deliberately shallow
pipeline: fixed-size 1-D blocks are classified as *constant* (the whole
block fits inside the error bound around one representative) or
*non-constant* (values are stored quantized at fixed width).  Both paths
are trivially vectorisable, which is exactly why the real SZx saturates
memory bandwidth — and why the Khan 2023 (SECRE) scheme can model it with
a couple of sampled statistics.

Constant blocks store the block midrange (``(min+max)/2``), which is
within ``eb`` of every member by the classification test.  Non-constant
blocks store ``round((x - lo) / (2·eb))`` at the per-block minimal bit
width, giving the same ``|x − x̂| ≤ eb`` guarantee as SZ3's quantizer.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from ..core.compressor import CompressorPlugin, Lap, compressor_registry, no_lap
from ..core.errors import CorruptStreamError, OptionError
from ..core.options import PressioOptions
from ..encoding.bitio import pack_width_groups, unpack_width_groups
from ..encoding.lz import lossless_compress, lossless_decompress

DEFAULT_BLOCK = 128


def classify_blocks(flat: np.ndarray, block: int, eb: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad to whole blocks and classify each as constant/non-constant.

    Returns ``(padded, lo, is_constant)`` where ``lo``/``is_constant``
    are per-block arrays; padding replicates the last value so it never
    creates an artificial non-constant block.
    """
    n = flat.size
    nblocks = (n + block - 1) // block
    pad = nblocks * block - n
    if pad:
        flat = np.concatenate([flat, np.repeat(flat[-1] if n else 0.0, pad)])
    mat = flat.reshape(nblocks, block)
    lo = mat.min(axis=1)
    hi = mat.max(axis=1)
    return flat, lo, (hi - lo) <= 2.0 * eb


@compressor_registry.register("szx")
class SZXCompressor(CompressorPlugin):
    """Constant-block + fixed-width quantization codec (SZx style)."""

    id = "szx"
    error_affecting_options: Sequence[str] = ("pressio:abs", "pressio:rel")

    def default_options(self) -> PressioOptions:
        return PressioOptions(
            {
                "pressio:abs": 1e-4,
                "szx:block_size": DEFAULT_BLOCK,
                "szx:lossless": "zlib",
            }
        )

    stages = ("classify", "pack", "lossless")

    def compress_impl(self, array: np.ndarray, lap: Lap = no_lap) -> bytes:
        eb = self.abs_bound
        if eb <= 0:
            raise OptionError("pressio:abs must be positive")
        block = int(self._options.get("szx:block_size", DEFAULT_BLOCK))
        flat = np.asarray(array, dtype=np.float64).reshape(-1)
        if flat.size == 0:
            return struct.pack("<dIQQQQ", eb, block, 0, 0, 0, 0)
        padded, lo, const = classify_blocks(flat, block, eb)
        lap("classify")
        mat = padded.reshape(-1, block)
        nblocks = mat.shape[0]
        hi = mat.max(axis=1)
        reps = np.where(const, (lo + hi) * 0.5, lo).astype(np.float64)
        # Non-constant blocks: quantize against the block minimum and pack
        # each at the narrowest width that holds its span (>= 1 bit: a
        # non-constant block spans more than one 2·eb step).
        nc = ~const
        q = np.round((mat[nc] - lo[nc][:, None]) / (2.0 * eb)).astype(np.uint64)
        codes_payload, nc_widths = pack_width_groups(q)
        widths = np.zeros(nblocks, dtype=np.uint8)
        widths[nc] = nc_widths
        lap("pack")
        flags = np.packbits(const.astype(np.uint8)).tobytes()
        meta = lossless_compress(
            reps.astype("<f8").tobytes() + widths.tobytes() + flags, backend="zlib"
        )
        body = lossless_compress(codes_payload, backend=self._options.get("szx:lossless", "zlib"))
        lap("lossless")
        head = struct.pack("<dIQQQQ", eb, block, flat.size, nblocks, len(meta), len(body))
        return head + meta + body

    def decompress_impl(self, payload: bytes, dtype: np.dtype, shape: tuple[int, ...]) -> np.ndarray:
        hdr = struct.calcsize("<dIQQQQ")
        if len(payload) < hdr:
            raise CorruptStreamError("szx payload too short")
        eb, block, n, nblocks, meta_size, body_size = struct.unpack_from("<dIQQQQ", payload, 0)
        if n == 0:
            return np.zeros(shape, dtype=dtype)
        off = hdr
        meta = lossless_decompress(payload[off : off + meta_size])
        body = lossless_decompress(payload[off + meta_size : off + meta_size + body_size])
        reps = np.frombuffer(meta, dtype="<f8", count=nblocks)
        widths = np.frombuffer(meta, dtype=np.uint8, count=nblocks, offset=8 * nblocks)
        flag_bytes = meta[9 * nblocks :]
        const = np.unpackbits(np.frombuffer(flag_bytes, dtype=np.uint8))[:nblocks].astype(bool)
        out = np.repeat(reps, block).reshape(nblocks, block)
        nc = ~const
        if nc.any():
            codes = unpack_width_groups(body, widths[nc], block)
            out[nc] = reps[nc][:, None] + 2.0 * eb * codes.astype(np.float64)
        return out.reshape(-1)[:n].reshape(shape).astype(dtype)
