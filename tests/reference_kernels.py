"""Test-only oracles: the entropy-stage kernels as they shipped before
the profile-led pass (ISSUE 12), kept verbatim so the differential tests
in ``test_kernel_vectorization.py`` and the timings in
``benchmarks/test_kernels.py`` have something to compare against.

Nothing under ``src/`` imports this module.  The functions are the
heap-based Huffman length builder, the bit-plane code packer, the
full-lifting decoder (sliding-window matmul, int64 tables, one T-sized
self-composition per bit of ``n_values``) and, from PR 6, the per-symbol
scatter loop behind ``HuffmanCode.decode_tables``.  The decoder predates the
header validation of the production one: on a corrupt *header* it can
raise ``MemoryError``/``IndexError``/``OverflowError``/``ValueError`` or
stall, so the differential tests only feed it streams whose 24 header
bytes and code table are intact.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from repro.core.errors import CorruptStreamError
from repro.encoding.bitio import unpack_bits
from repro.encoding.huffman import _STREAM_HEADER, HuffmanCode, canonical_codes


def huffman_code_lengths_heap(counts: np.ndarray) -> np.ndarray:
    """Heap construction; ties broken by insertion order.  Concatenates
    the leaf lists of the two subtrees on every merge: O(n * depth)."""
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 1:
        return np.ones(1, dtype=np.int64)
    heap: list[tuple[int, int, list[int]]] = [
        (int(c), i, [i]) for i, c in enumerate(counts)
    ]
    heapify(heap)
    lengths = np.zeros(n, dtype=np.int64)
    tiebreak = n
    while len(heap) > 1:
        w1, _, leaves1 = heappop(heap)
        w2, _, leaves2 = heappop(heap)
        merged = leaves1 + leaves2
        lengths[merged] += 1
        heappush(heap, (w1 + w2, tiebreak, merged))
        tiebreak += 1
    return lengths


def pack_codes_bitplanes(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """One masked scatter per bit plane (``max(lengths)`` passes)."""
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have the same shape")
    if codes.size == 0:
        return b"", 0
    total_bits = int(lengths.sum())
    if total_bits == 0:
        return b"", 0
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    bits = np.zeros(total_bits, dtype=np.uint8)
    max_len = int(lengths.max())
    for j in range(max_len):
        mask = lengths > j
        if not mask.any():
            continue
        shift = (lengths[mask] - 1 - j).astype(np.uint64)
        bits[offsets[mask] + j] = ((codes[mask] >> shift) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits).tobytes(), total_bits


def windows_matmul(bits: np.ndarray, width: int) -> np.ndarray:
    """Every-position windows as a ``T x width`` int64 sliding-window matmul."""
    if width <= 0:
        raise ValueError("width must be positive")
    n = bits.size
    padded = np.concatenate([bits.astype(np.int64), np.zeros(width, dtype=np.int64)])
    view = np.lib.stride_tricks.sliding_window_view(padded, width)[: max(n, 1)]
    weights = np.int64(1) << np.arange(width - 1, -1, -1, dtype=np.int64)
    return view @ weights


def huffman_decode_full_lifting(stream: bytes) -> np.ndarray:
    """Table lookups at every bit position, then binary lifting over the
    whole jump table: ``bit_length(n_values - 1)`` T-sized compositions."""
    if len(stream) < _STREAM_HEADER.size:
        raise CorruptStreamError("huffman stream too short")
    n_symbols, n_values, total_bits, width = _STREAM_HEADER.unpack_from(stream, 0)
    off = _STREAM_HEADER.size
    if len(stream) < off + 9 * n_symbols:
        raise CorruptStreamError("huffman code table truncated")
    symbols = np.frombuffer(stream, dtype="<i8", count=n_symbols, offset=off).astype(np.int64)
    off += 8 * n_symbols
    lengths = np.frombuffer(stream, dtype="<u1", count=n_symbols, offset=off).astype(np.int64)
    off += n_symbols
    if n_values == 0:
        return np.zeros(0, dtype=np.int64)
    code = HuffmanCode(symbols=symbols, lengths=lengths, codes=canonical_codes(lengths))
    if n_symbols == 1:
        return np.full(n_values, symbols[0], dtype=np.int64)
    bits = unpack_bits(stream[off:], total_bits)
    width = max(int(width), 1)
    windows = windows_matmul(bits, width)
    sym_table, len_table = code.decode_tables()
    sym_at = sym_table[windows]
    len_at = len_table[windows]
    if (len_at[0] == 0) if total_bits else False:
        raise CorruptStreamError("invalid prefix at stream start")
    T = int(total_bits)
    jump = np.minimum(np.arange(T, dtype=np.int64) + len_at, T)
    jump = np.append(jump, T)
    ks = np.arange(n_values, dtype=np.int64)
    pos = np.zeros(n_values, dtype=np.int64)
    step = jump
    level_bits = max(int(n_values - 1).bit_length(), 1)
    for j in range(level_bits):
        mask = ((ks >> j) & 1).astype(bool)
        if mask.any():
            pos[mask] = step[pos[mask]]
        if j + 1 < level_bits:
            step = step[step]
    if (pos >= T).any():
        raise CorruptStreamError("huffman stream truncated")
    decoded_idx = sym_at[pos]
    if (len_at[pos] == 0).any():
        raise CorruptStreamError("invalid huffman code in stream")
    return symbols[decoded_idx]


def decode_tables_scatter_loop(code: HuffmanCode) -> tuple[np.ndarray, np.ndarray]:
    """The per-symbol decode-table build (retired in PR 6); a later code
    overwrites an earlier one where a corrupt table makes them overlap."""
    width = max(code.max_length, 1)
    size = 1 << width
    sym_table = np.zeros(size, dtype=np.int64)
    len_table = np.zeros(size, dtype=np.int64)
    for i in range(code.symbols.size):
        l = int(code.lengths[i])
        if l == 0:
            continue
        b = int(code.codes[i]) << (width - l)
        s = 1 << (width - l)
        sym_table[b : b + s] = i
        len_table[b : b + s] = l
    return sym_table, len_table
