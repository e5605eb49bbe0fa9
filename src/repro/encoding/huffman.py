"""Canonical Huffman coding, from scratch, with a vectorised decoder.

The encoder builds optimal code lengths with the two-queue construction
(one stable sort of the leaves, then a linear merge that keeps parent
pointers only), limits them with a zlib-style pass and assigns canonical
codes.  Each value finds its code through a dense lookup table over the
values' ``[min, max]`` when that span is small next to the stream, else
through a sorted search; codes are packed with
:func:`repro.encoding.bitio.pack_codes` (byte-plane accumulation, one
block of codes at a time, no per-symbol Python loop).

The decoder avoids the classic sequential bit-walk.  Because code lengths
are limited to ``max_length`` (at most 24) bits, the length of the code a
``max_length``-bit window starts with is a lookup in a small table over
the window's top bits (a sorted search over the per-length limits for the
few windows whose prefix spans two lengths); symbols are resolved only
at the ``N`` code starts, by canonical-code arithmetic, so nothing is
sized by ``2**max_length``.  The windows are read straight from the
payload bytes: one big-endian 32-bit word per byte holds the window at
each of that byte's eight bit positions, one shift apart, so no bit
array is ever unpacked.  The lengths at *every* bit position give the
"next code starts at" jump array ``J[p] = p + len[p]``; the position of
the ``k``-th code is ``J`` applied ``k`` times to 0.  Those positions
are recovered with **anchored binary lifting**: the jump-by-2^(j+1)
table is the jump-by-2^j table applied to itself (a gather), but only
``L`` such levels are built; the top one is walked sequentially to place
an *anchor* at every ``2^L``-th code, and the lower levels fan each
anchor out to the ``2^L`` codes it covers with gathers whose sizes sum
to ``N``.  That is ``O(L*T + N)`` vectorised work for ``T`` bits and
``N`` codes plus ``N / 2^L`` interpreted steps — the list-ranking trick
from parallel algorithms, stopped where a short serial walk becomes
cheaper than another pass over the bits.  ``L`` follows the stream's
bits per code: a level costs ``T`` gathered elements and saves
``N / 2^(L+1)`` walked steps.

All of this runs over one block of ``_DECODE_BITS`` bit positions at a
time, from the byte that holds the next code's start: the block's last
code carries that start into the next block, and the symbols go
straight into one preallocated output.  Besides that output, the
decoder's memory is a few MB whatever the stream's length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..core.errors import CorruptStreamError
from .bitio import pack_codes

DEFAULT_MAX_LENGTH = 16
# The decoder reads each code's window out of one 32-bit word, so the
# width a stream may declare is capped; :func:`build_code` never exceeds
# it.
MAX_CODE_LENGTH = 24
# The decoder's lift depth (see :func:`_lift_levels`): one walked anchor
# costs about as much as gathering this many bit positions of a level.
# Every level is a block-sized intp array; with ``jump`` the decoder
# holds at most five.
_WALK_BITS = 32
_MAX_LIFT_LEVELS = 4
# Anchors walked between two tests for the walk's end: a block's walk
# overshoots its last code by at most this many steps.
_WALK_CHUNK = 64
# Bit positions :func:`decode` tabulates at once: its working memory is
# about 40 bytes per position of one such block, whatever the stream.
_DECODE_BITS = 1 << 16
# The decoder's first-level length table covers a window's top bits;
# the windows whose prefix spans more than one code length (at most one
# prefix per length) are searched instead.
_TOP_BITS = 12
_MIXED = 255
# :func:`encode` looks each value's code up in a table over the values'
# [min, max] while that span is below this many times the value count.
_LOOKUP_SPAN_FACTOR = 4


def huffman_code_lengths(counts: np.ndarray) -> np.ndarray:
    """Optimal (unlimited) Huffman code lengths for non-negative *counts*.

    Two-queue construction: the leaves are stable-sorted by count once,
    merged nodes are appended to a second queue (their weights come out
    non-decreasing, so it needs no sorting), and each merge takes the
    smaller head of the two queues.  A leaf wins a weight tie against a
    merged node and merged nodes leave in creation order, which makes the
    lengths reproducible — and equal, element for element, to those of a
    ``(weight, insertion index)`` heap.  Only parent pointers are kept
    during the merge; one reverse pass turns them into depths.
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = counts.size
    if n <= 2:
        # One symbol still needs a 1-bit code; two always get one bit each.
        return np.ones(n, dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    # Node ids: sorted leaves 0..n-1, then merged nodes in creation order.
    # The inf sentinels end the leaf queue and stand for "not merged yet";
    # weights are Python ints, so sums cannot wrap.
    inf = float("inf")
    leaf_w = counts[order].tolist()
    leaf_w.append(inf)
    node_w = [inf] * n
    parent = [0] * (2 * n - 1)
    li = ni = 0
    for k in range(n - 1):
        if leaf_w[li] <= node_w[ni]:
            first, weight = li, leaf_w[li]
            li += 1
        else:
            first, weight = n + ni, node_w[ni]
            ni += 1
        if leaf_w[li] <= node_w[ni]:
            second = li
            weight += leaf_w[li]
            li += 1
        else:
            second = n + ni
            weight += node_w[ni]
            ni += 1
        parent[first] = parent[second] = n + k
        node_w[k] = weight
    # A parent is always created after its children, so walking the merged
    # nodes newest-first sees every parent's depth before it is needed.
    depth = [0] * (2 * n - 1)
    for node in range(2 * n - 3, n - 1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = np.asarray(depth, dtype=np.int64)[parent[:n]] + 1
    return lengths


def limit_code_lengths(lengths: np.ndarray, max_length: int) -> np.ndarray:
    """Clamp code lengths to *max_length* while keeping Kraft equality.

    The zlib approach: count codes per length, move overflowed codes to
    ``max_length``, then repair the Kraft sum by repeatedly splitting the
    deepest available shorter code; finally re-assign lengths to symbols
    so that more frequent symbols (shorter original lengths) keep the
    shorter final lengths.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0 or int(lengths.max(initial=0)) <= max_length:
        return lengths.copy()
    bl_count = np.bincount(np.minimum(lengths, max_length), minlength=max_length + 1)
    # Kraft sum scaled by 2^max_length must equal 2^max_length for a
    # complete code (it can exceed it after clamping).
    kraft = int(
        sum(int(bl_count[l]) << (max_length - l) for l in range(1, max_length + 1))
    )
    budget = 1 << max_length
    while kraft > budget:
        # Find the deepest length < max_length with at least one code,
        # push one of its codes one level deeper (splitting frees space).
        for l in range(max_length - 1, 0, -1):
            if bl_count[l] > 0:
                bl_count[l] -= 1
                bl_count[l + 1] += 1
                kraft -= 1 << (max_length - l - 1)
                break
        else:  # pragma: no cover - cannot happen for a valid code
            raise RuntimeError("unable to repair Kraft inequality")
    # Re-assign: sort symbols by original length (stable), hand out the
    # new multiset of lengths shortest-first.
    order = np.argsort(lengths, kind="stable")
    new_lengths = np.zeros_like(lengths)
    out_lens = np.repeat(
        np.arange(max_length + 1), bl_count.astype(np.int64)
    )
    new_lengths[order] = out_lens[: lengths.size]
    return new_lengths


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical code values for the given lengths (RFC-1951 style).

    Symbols are ranked by (length, symbol index); codes within one length
    are consecutive, and the first code of each length is derived from
    the counts of shorter codes.  One stable argsort gives the ranking,
    so the work is a few whole-array calls however many lengths occur.
    Zero-length symbols (absent from the code) get code 0.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    if lengths.size == 0:
        return codes
    max_len = int(lengths.max())
    bl_count = np.bincount(lengths, minlength=max_len + 1)
    # A stable sort of a one-byte key is a radix sort: linear in the symbols.
    key = lengths.astype(np.uint8) if max_len < 256 else lengths
    order = np.argsort(key, kind="stable")[bl_count[0]:]
    bl_count[0] = 0
    first, code = [0], 0
    for count in bl_count[:-1].tolist():
        code = (code + count) << 1
        first.append(code)
    # Length l's codes count up from first[l] over its run in `order`,
    # which starts at start[l]: code = (first - start)[l] + position.
    start = (np.cumsum(bl_count) - bl_count).astype(np.uint64)
    offset = np.array(first, dtype=np.uint64) - start
    codes[order] = offset[lengths[order]] + np.arange(order.size, dtype=np.uint64)
    return codes


@dataclass
class HuffmanCode:
    """A canonical code book over an integer alphabet."""

    symbols: np.ndarray  # distinct symbol values, sorted (int64)
    lengths: np.ndarray  # bits per symbol (int64)
    codes: np.ndarray  # canonical code values (uint64)

    @property
    def max_length(self) -> int:
        return int(self.lengths.max(initial=0))


def code_lengths(counts: np.ndarray, max_length: int = DEFAULT_MAX_LENGTH) -> np.ndarray:
    """The code lengths :func:`build_code` assigns to *counts*: optimal,
    then limited to *max_length* (never beyond ``MAX_CODE_LENGTH``).
    All a size estimate needs; the code values are left unbuilt."""
    lengths = huffman_code_lengths(np.asarray(counts, dtype=np.int64))
    return limit_code_lengths(lengths, min(max_length, MAX_CODE_LENGTH))


def build_code(values: np.ndarray | None = None, *, counts: np.ndarray | None = None,
               symbols: np.ndarray | None = None,
               max_length: int = DEFAULT_MAX_LENGTH) -> HuffmanCode:
    """Build a canonical code from raw values or a (symbols, counts) pair."""
    if values is not None:
        symbols, counts = np.unique(np.asarray(values, dtype=np.int64), return_counts=True)
    if symbols is None or counts is None:
        raise ValueError("provide either values or (symbols, counts)")
    symbols = np.asarray(symbols, dtype=np.int64)
    lengths = code_lengths(counts, max_length)
    return HuffmanCode(symbols=symbols, lengths=lengths, codes=canonical_codes(lengths))


_STREAM_HEADER = struct.Struct("<IQQB3x")  # n_symbols, n_values, total_bits, max_length


def encode(values: np.ndarray, *, max_length: int = DEFAULT_MAX_LENGTH,
           code: HuffmanCode | None = None) -> bytes:
    """Huffman-encode an int array into a self-contained byte stream.

    The stream embeds the code book (symbols + lengths) so decode needs
    no side channel.  An externally supplied *code* may be reused (e.g.
    by SECRE-style sampled estimators) as long as it covers all values.

    When no code is supplied and the values span fewer than
    ``_LOOKUP_SPAN_FACTOR`` times their count, the symbol counts are one
    ``bincount`` and each value's code and length are gathered from tables
    indexed by ``value - min``; otherwise the sorted symbols are searched.
    Both give the same code.
    """
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, -1)
    span = hi - lo + 1
    if code is None and 0 < span < _LOOKUP_SPAN_FACTOR * values.size:
        offsets = values - lo
        counts = np.bincount(offsets, minlength=span)
        slots = np.flatnonzero(counts)
        code = build_code(symbols=slots + lo, counts=counts[slots], max_length=max_length)
        length_at = np.zeros(span, dtype=np.uint8)
        length_at[slots] = code.lengths
        code_at = np.zeros(span, dtype=np.uint64)
        code_at[slots] = code.codes
        codes, lengths = code_at[offsets], length_at[offsets]
    else:
        if code is None:
            code = build_code(values, max_length=max_length)
        idx = np.searchsorted(code.symbols, values)
        if values.size and (
            (idx >= code.symbols.size).any()
            or (code.symbols[np.minimum(idx, code.symbols.size - 1)] != values).any()
        ):
            raise ValueError("values contain symbols outside the supplied code book")
        codes, lengths = code.codes[idx], code.lengths.astype(np.uint8)[idx]
    payload, total_bits = pack_codes(codes, lengths) if values.size else (b"", 0)
    head = _STREAM_HEADER.pack(code.symbols.size, values.size, total_bits, code.max_length)
    return b"".join([
        head,
        code.symbols.astype("<i8").tobytes(),
        code.lengths.astype("<u1").tobytes(),
        payload,
    ])


def decode(stream: bytes) -> np.ndarray:
    """Decode a stream produced by :func:`encode` (vectorised, see module docs).

    Every header field is checked against the payload before anything is
    sized from it, and the codes must end exactly at the declared bit
    count, so a corrupt stream raises :class:`CorruptStreamError` and
    never an allocation or indexing error or a short array.
    """
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
    nbytes = (total_bits + 7) >> 3
    if len(stream) - off < nbytes:
        raise CorruptStreamError("bit payload shorter than declared length")
    # Every code is at least one bit, and a one-symbol alphabet is coded
    # with exactly one bit a value.
    if n_symbols == 0 or n_values > total_bits or (n_symbols == 1 and n_values != total_bits):
        raise CorruptStreamError("huffman header inconsistent with its payload")
    if not 1 <= width <= MAX_CODE_LENGTH or width != lengths.max() or lengths.min() < 1:
        raise CorruptStreamError("huffman code table inconsistent with its header")
    if n_symbols == 1:
        return np.full(n_values, symbols[0], dtype=np.int64)
    layout = _canonical_layout(symbols, lengths, width)
    payload = np.frombuffer(stream, dtype=np.uint8, count=nbytes, offset=off)
    levels = _lift_levels(n_values, total_bits)
    out = np.empty(n_values, dtype=np.int64)
    # One block of bit positions at a time, from the byte holding the
    # next code's start; the block's last code carries that start on.
    done = at = 0
    while done < n_values:
        if at >= total_bits:
            raise CorruptStreamError("huffman stream truncated")
        first = at >> 3
        windows = _block_windows(payload, first, min(_DECODE_BITS, total_bits - 8 * first), width)
        len_at = layout.lengths_of(windows)
        pos = _code_positions(len_at, at - 8 * first, n_values - done, levels)
        len_pos = len_at[pos]
        if not len_pos.all():
            if done == 0 and len_pos[0] == 0:
                raise CorruptStreamError("invalid prefix at stream start")
            raise CorruptStreamError("invalid huffman code in stream")
        # A code of length l is the window's top l bits; canonical codes of
        # one length count up from that length's first code, one rank apart.
        len_pos = len_pos.astype(np.intp)
        ranks = windows[pos] >> (width - len_pos)
        ranks += layout.rank_offset.take(len_pos)
        layout.ranked.take(ranks, out=out[done : done + pos.size])
        done += pos.size
        at = 8 * first + int(pos[-1]) + int(len_pos[-1])
    if at != total_bits:
        raise CorruptStreamError("huffman codes do not end at the declared bit count")
    return out


@dataclass
class _CanonicalLayout:
    """The canonical code over a length table (each ``1..width``) as
    :func:`decode` reads it.

    ``ends[l]`` is where the left-justified codes of lengths ``1..l`` end
    in ``[0, 2**width)`` (capped there: an over-full code book is a
    corrupt stream), so a window's code length is the first ``l`` whose
    end lies past it, or 0 past the last code.  ``top`` holds that length
    for each value of the window's top bits (the window shifted right by
    ``spread``), ``_MIXED`` where such a prefix spans more than one
    length; ``ranked`` is the symbols in canonical order (by length, then
    index) and ``rank_offset[l]`` the rank of length *l*'s first code less
    that code's value, so a length-*l* code ``c`` is
    ``ranked[c + rank_offset[l]]``.
    """

    ends: np.ndarray
    top: np.ndarray
    spread: int
    ranked: np.ndarray
    rank_offset: np.ndarray

    def lengths_of(self, windows: np.ndarray) -> np.ndarray:
        """The length of the code each window starts with (uint8, 0
        where it starts none)."""
        lens = self.top.take(windows >> self.spread)
        mixed = np.flatnonzero(lens == _MIXED)
        if mixed.size:
            lens[mixed] = _search_lengths(self.ends, windows[mixed])
        return lens


def _search_lengths(ends: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """:meth:`_CanonicalLayout.lengths_of` by a sorted search over *ends*."""
    lens = np.searchsorted(ends, windows, side="right")
    lens[lens == ends.size] = 0
    return lens.astype(np.uint8)


def _canonical_layout(symbols: np.ndarray, lengths: np.ndarray, width: int) -> _CanonicalLayout:
    """The :class:`_CanonicalLayout` of *symbols* coded with *lengths*."""
    bl_count = np.bincount(lengths, minlength=width + 1)
    # Left-justified, the codes of length 1, 2, ... tile [0, 2**width) in
    # that order; an over-full code book (a corrupt stream) runs past it.
    shifted = bl_count << (width - np.arange(width + 1))
    ends = np.minimum(np.cumsum(shifted), 1 << width).astype(np.uint32)
    first, code = [0], 0
    for count in bl_count[:-1].tolist():
        code = (code + count) << 1
        first.append(code)
    rank_offset = (np.cumsum(bl_count) - bl_count) - np.array(first, dtype=np.int64)
    ranked = symbols[np.argsort(lengths.astype(np.uint8), kind="stable")]
    # A prefix holds one length when its first and last windows agree.
    spread = width - min(width, _TOP_BITS)
    prefixes = np.arange(1 << (width - spread), dtype=np.uint32) << spread
    top = _search_lengths(ends, prefixes)
    top[top != _search_lengths(ends, prefixes | ((1 << spread) - 1))] = _MIXED
    return _CanonicalLayout(ends, top, spread, ranked, rank_offset)


def _block_windows(payload: np.ndarray, first: int, size: int, width: int) -> np.ndarray:
    """The ``width``-bit window at each of the *size* bit positions from
    byte *first* of *payload* on, zero past its end (uint32)."""
    nb = (size + 7) >> 3
    padded = np.zeros(nb + 3, dtype=np.uint8)
    chunk = payload[first : first + nb + 3]
    padded[: chunk.size] = chunk
    # words[b] = bytes b..b+3 big-endian: the window at bit 8b + j is that
    # word shifted right by 32 - width - j (width <= 25).
    words = np.ndarray((nb,), ">u4", padded, 0, (1,)).astype(np.uint32)
    windows = (words[:, None] >> np.arange(32 - width, 24 - width, -1, dtype=np.uint32))
    windows = windows.reshape(-1)[:size]
    windows &= np.uint32((1 << width) - 1)
    return windows


def _lift_levels(n_values: int, total_bits: int) -> int:
    """Lift depth for a stream of *total_bits* bits and *n_values* codes.

    A level costs one gather over all ``T`` bit positions and halves the
    ``N / 2^L`` walked anchors, so the cost ``L*T + _WALK_BITS*N/2^L`` (in
    gathered elements) is least near ``2^L = _WALK_BITS * N / T``: deep
    for a near-one-bit code, none for a wide one.  The depth is capped at
    ``_MAX_LIFT_LEVELS`` so a one-bit code costs no more memory.
    """
    ratio = _WALK_BITS * n_values // total_bits
    return min(max(ratio.bit_length() - 1, 0), _MAX_LIFT_LEVELS)


def _code_positions(len_at: np.ndarray, start: int, count: int, levels: int) -> np.ndarray:
    """Start positions of up to *count* codes in one block whose code
    lengths at each bit position are *len_at*, the first at *start*:
    ``jump`` applied 0, 1, 2, ... times to *start* (anchored binary
    lifting), up to the last code that starts in the block.  At a
    position no code matches (length 0) the codes stay put."""
    size = len_at.size
    # jump[p] = start of the code after the one at p; a position no code
    # matches maps to itself, and the end of the block is a sink.  Only
    # the last MAX_CODE_LENGTH positions can point past it.
    jump = np.arange(size + 1, dtype=np.intp)
    jump[:size] += len_at
    tail = jump[-(MAX_CODE_LENGTH + 1) :]
    np.minimum(tail, size, out=tail)
    # lifted[l] jumps 2**l codes at once; each level is the one below
    # applied to itself, a block-sized gather.
    lifted = [jump]
    for _ in range(levels):
        lifted.append(lifted[-1].take(lifted[-1]))
    # Anchors: the position of every 2**levels-th code, by walking the
    # top level sequentially (a memoryview index yields a plain int).  The
    # walk stops moving at the block's end or at a dead position; it is
    # tested for that once a chunk of steps, not at every step.
    stride = 1 << levels
    top = memoryview(lifted[-1])
    anchors = [0] * -(-min(count, size - start) // stride)
    at, filled = start, 0
    while filled < len(anchors):
        chunk_end = min(filled + _WALK_CHUNK, len(anchors))
        for a in range(filled, chunk_end):
            anchors[a] = at
            at = top[at]
        filled = chunk_end
        if top[at] == at:
            break
    del anchors[filled:]
    # Fan out: column r of row a is code stride * a + r.  Level l fills
    # the columns whose lowest set bit is 2**l from the columns 2**l to
    # their left, so each pass doubles the codes known per anchor.
    pos = np.empty((len(anchors), stride), dtype=np.intp)
    pos[:, 0] = anchors
    for l in range(levels - 1, -1, -1):
        step = 1 << l
        pos[:, step :: 2 * step] = lifted[l].take(pos[:, :: 2 * step])
    pos = pos.reshape(-1)[:count]
    return pos[: np.searchsorted(pos, size)]
