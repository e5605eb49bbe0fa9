"""Lossless coding substrate: bit I/O, Huffman, LZ, entropy math, sparsity."""

from .bitio import (
    pack_codes,
    read_uint_array,
    uint_bit_length,
    unpack_bits,
    windows_at_every_position,
    write_uint_array,
)
from .entropy import (
    coding_gain,
    cross_entropy_bits,
    empirical_entropy,
    histogram_probabilities,
    huffman_expected_length,
    quantized_entropy,
    shannon_entropy,
)
from .huffman import HuffmanCode, build_code, decode, encode
from .lz import lossless_compress, lossless_decompress
from .rle import zero_run_ratio

__all__ = [
    "HuffmanCode",
    "build_code",
    "coding_gain",
    "cross_entropy_bits",
    "decode",
    "empirical_entropy",
    "encode",
    "histogram_probabilities",
    "huffman_expected_length",
    "lossless_compress",
    "lossless_decompress",
    "pack_codes",
    "quantized_entropy",
    "read_uint_array",
    "shannon_entropy",
    "uint_bit_length",
    "unpack_bits",
    "windows_at_every_position",
    "write_uint_array",
    "zero_run_ratio",
]
