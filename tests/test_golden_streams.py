"""Golden-stream bit-exactness: the kernel rewrite contract.

The fixtures under ``tests/golden/`` were generated from the original
interpreted kernel implementations *before* the vectorization rewrite.
These tests pin three properties for every compressor variant and every
LZ77 payload shape:

1. **byte-identical encode** — the current encoders reproduce the frozen
   streams exactly (so old checkpoints hash-match and the Jin/Khan
   models see the same stage sizes);
2. **exact decode** — the frozen bytes decode to the same values the
   current pipeline produces, within the promised error bound;
3. **reference equivalence** — the vectorized LZ77 encoder agrees byte
   for byte with the retired byte-at-a-time loop it replaced
   (``tests/reference_kernels.py``);
4. **a corrupt-stream contract** — a truncated or bit-flipped LZ77 token
   stream either raises :class:`CorruptStreamError` or decodes to exactly
   the promised number of bytes, never anything else, and never slowly.
   (The token format carries no checksum: a flipped literal byte decodes
   to a different payload of the right size, so "exactly the payload" is
   not a property the decoder can promise.)
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro.compressors  # noqa: F401  (registers the plugins)
from repro.core.compressor import compressor_registry
from repro.core.errors import CorruptStreamError
from repro.encoding import huffman
from repro.encoding.lz import (
    _lz77_compress,
    _lz77_decompress,
    lossless_compress,
    lossless_decompress,
)
from tests import golden_kernels as gk
from tests.reference_kernels import lz77_compress_loop


def _fixture(name: str) -> bytes:
    path = os.path.join(gk.GOLDEN_DIR, name)
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize(
    "name,comp_id,options,kind",
    gk.GOLDEN_COMPRESSOR_VARIANTS,
    ids=[v[0] for v in gk.GOLDEN_COMPRESSOR_VARIANTS],
)
class TestGoldenCompressorStreams:
    def test_encode_is_byte_identical(self, name, comp_id, options, kind):
        assert gk.compressor_stream(name) == _fixture(f"comp_{name}.bin")

    def test_frozen_stream_decodes_within_bound(self, name, comp_id, options, kind):
        field = gk.golden_input(kind)
        comp = compressor_registry.create(comp_id)
        comp.set_options(options)
        decoded = comp.decompress_impl(
            _fixture(f"comp_{name}.bin"), field.dtype, field.shape
        )
        assert decoded.shape == field.shape
        if options.get("zfp:mode") == "rate":
            return  # fixed-rate mode bounds bits, not error
        bound = float(options["pressio:abs"])
        assert float(np.abs(decoded - field).max()) <= bound + 1e-12
        # Decode must also be deterministic against a fresh encode.
        fresh = comp.decompress_impl(
            comp.compress_impl(field), field.dtype, field.shape
        )
        assert np.array_equal(decoded, fresh)


def _smallest_lz_payloads(k: int = 3) -> list[str]:
    """The *k* golden payloads with the shortest non-empty token streams."""
    sizes = {
        name: len(_fixture(f"lz77_tokens_{name}.bin")) for name in gk.golden_lz_payloads()
    }
    return sorted((n for n in sizes if sizes[n]), key=sizes.get)[:k]


def _raises_corrupt_or_decodes_to_size(stream: bytes, size: int) -> None:
    t0 = time.perf_counter()
    try:
        out = _lz77_decompress(stream, size)
    except CorruptStreamError:
        out = None
    assert time.perf_counter() - t0 < 1.0
    assert out is None or (type(out) is bytes and len(out) == size)


@pytest.mark.parametrize("name", sorted(gk.golden_lz_payloads()))
class TestGoldenLZ77Streams:
    def test_token_stream_byte_identical(self, name):
        payload = gk.golden_lz_payloads()[name]
        frozen = _fixture(f"lz77_tokens_{name}.bin")
        assert _lz77_compress(payload) == frozen
        assert lz77_compress_loop(payload) == frozen

    def test_wrapped_stream_byte_identical(self, name):
        payload = gk.golden_lz_payloads()[name]
        assert lossless_compress(payload, backend="lz77") == _fixture(
            f"lz77_stream_{name}.bin"
        )

    def test_both_decoders_roundtrip_frozen_tokens(self, name):
        """The token decoder on the bare tokens, and the lossless wrapper
        on the framed stream."""
        payload = gk.golden_lz_payloads()[name]
        frozen = _fixture(f"lz77_tokens_{name}.bin")
        assert _lz77_decompress(frozen, len(payload)) == payload
        assert lossless_decompress(_fixture(f"lz77_stream_{name}.bin")) == payload

    def test_corrupt_stream_contract(self, name):
        """Random truncations and bit flips: ``CorruptStreamError`` or a
        payload of the promised size, nothing else, each in under 1 s."""
        payload = gk.golden_lz_payloads()[name]
        frozen = _fixture(f"lz77_tokens_{name}.bin")
        if len(frozen) < 4:
            pytest.skip("no meaningful corruption for degenerate stream")
        rng = np.random.default_rng(len(frozen))
        cases = [frozen[: int(rng.integers(1, len(frozen)))] for _ in range(10)]
        for _ in range(10):
            flipped = bytearray(frozen)
            flipped[int(rng.integers(0, len(flipped)))] ^= 1 << int(rng.integers(0, 8))
            cases.append(bytes(flipped))
        for stream in cases:
            _raises_corrupt_or_decodes_to_size(stream, len(payload))


@pytest.mark.parametrize("name", _smallest_lz_payloads())
def test_every_single_bit_flip(name):
    """The same contract over every single-bit flip of a small fixture."""
    payload = gk.golden_lz_payloads()[name]
    frozen = _fixture(f"lz77_tokens_{name}.bin")
    for bit in range(8 * len(frozen)):
        flipped = bytearray(frozen)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        _raises_corrupt_or_decodes_to_size(bytes(flipped), len(payload))


class TestGoldenHuffman:
    def test_stream_byte_identical(self):
        assert gk.huffman_stream() == _fixture("huffman_stream.bin")

    def test_frozen_stream_decodes(self):
        symbols = gk.golden_huffman_symbols()
        assert np.array_equal(huffman.decode(_fixture("huffman_stream.bin")), symbols)

    def test_decode_tables_digest(self):
        assert gk.huffman_tables_digest() == _fixture("huffman_tables.sha256")
