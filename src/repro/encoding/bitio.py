"""Vectorised bit-level I/O on NumPy arrays.

Variable-length entropy coders need to concatenate millions of codes of
differing bit lengths.  A per-symbol Python loop would dominate the
runtime of the whole library (the hpc-parallel guides' first rule:
vectorise the hot loop), so both directions are expressed as whole-array
NumPy operations:

* **packing** — given per-symbol ``(code, length)`` arrays, one block
  of ``_PACK_VALUES`` codes at a time: bit offsets come from a
  cumulative sum of the block's lengths plus the bits before it; each
  code is left-aligned in a 64-bit word, shifted to its offset inside
  its first output byte, and the word's *byte planes* are accumulated
  into the block's bytes with one ``bincount`` each
  (``ceil((max_length + 7) / 8)`` passes, independent of the number of
  symbols); a block's first byte, when the previous block ends inside
  it, is OR-ed into that block's last byte, and the blocks' bytes are
  joined.  Past the output, the memory is one block's;
* **reading** — fixed-width values are cut straight out of the payload
  bytes: the value at bit ``i * width`` is the big-endian 64-bit word
  gathered at its first byte, shifted left by the value's offset inside
  that byte (plus a ninth byte for widths 58..64) and right by
  ``64 - width``; no bit array is ever unpacked.  The table-driven
  Huffman decoder reads its windows from the bytes the same way
  (``repro.encoding.huffman``).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import CorruptStreamError

_BIG_ENDIAN_U64 = np.dtype(">u8")
# Codes :func:`pack_codes` places at once: its working memory is about
# 100 bytes per code of one such block, whatever the stream.
_PACK_VALUES = 1 << 14


def pack_codes(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Concatenate variable-length codes into a packed byte string.

    Parameters
    ----------
    codes:
        Unsigned integer code values; only the low ``lengths[i]`` bits of
        ``codes[i]`` are emitted, most-significant bit first.
    lengths:
        Bit length of each code (0 is allowed and emits nothing).

    Returns
    -------
    (payload, total_bits):
        The packed bytes (zero padded to a byte boundary) and the exact
        number of meaningful bits.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have the same shape")
    if codes.size == 0:
        return b"", 0
    max_len = int(lengths.max())
    if max_len > 64 or int(lengths.min()) < 0:
        raise ValueError("code lengths must be in 0..64")
    codes, lengths = codes.reshape(-1), lengths.reshape(-1)
    n_planes = (max_len + 14) >> 3  # ceil((7 lead bits + max_len) / 8)
    parts: list[np.ndarray] = []
    at = 0
    for i in range(0, codes.size, _PACK_VALUES):
        block = slice(i, i + _PACK_VALUES)
        part, end = _pack_block(codes[block], lengths[block], at & 7, n_planes)
        if at & 7:
            # The last byte so far holds this block's first bits too:
            # disjoint bits again, so OR them in.
            parts[-1][-1] |= part[0]
            part = part[1:]
        if part.size:
            parts.append(part)
        at = (at & ~7) + end
    return b"".join(parts), at


def _pack_block(
    codes: np.ndarray, lengths: np.ndarray, lead0: int, n_planes: int
) -> tuple[np.ndarray, int]:
    """The bytes *codes* fill when the first starts at bit *lead0* of its
    first byte, and the bit (from that byte's start) after the last."""
    lengths = lengths.astype(np.int64, copy=False)
    ends = np.cumsum(lengths)
    if lead0:
        ends += lead0
    starts = ends - lengths
    first_byte = starts >> 3
    lead = (starts & 7).astype(np.uint64)
    # Left-align each code in a 64-bit word (this also drops any bits above
    # its length; NumPy defines an unsigned shift by 64 as 0, which is what
    # a zero-length code must contribute), then push it right by its bit
    # offset inside its first output byte.  The word's big-endian bytes are
    # now the values to add into output bytes first_byte, first_byte+1, ...;
    # codes sharing an output byte occupy disjoint bits of it, so adding is
    # OR-ing, and sums stay below 256 (exact in bincount's float64).
    word = codes << (64 - lengths).astype(np.uint64)
    planes = (word >> lead).astype(">u8").view(np.uint8).reshape(-1, 8)
    end = int(ends[-1])
    nbytes = (end + 7) >> 3
    acc = np.zeros(nbytes + 9, dtype=np.float64)
    for k in range(n_planes):
        # A code longer than 57 bits at a large offset spills into a ninth
        # byte: the low `lead` bits the right shift pushed off the word.
        piece = planes[:, k] if k < 8 else (word << (np.uint64(8) - lead)) & np.uint64(0xFF)
        acc[k : k + nbytes] += np.bincount(first_byte, weights=piece, minlength=nbytes)[:nbytes]
    return acc[:nbytes].astype(np.uint8), end


def uint_bit_length(values: np.ndarray) -> np.ndarray:
    """Exact bit length of unsigned integers, vectorised (0 maps to 0).

    Float ``log2`` width math silently breaks past 2**53: the implicit
    float64 conversion rounds ``q + 1`` back down to ``q``, so e.g.
    ``ceil(log2(2**53 + 1))`` evaluates to 53 while 2**53 needs 54 bits —
    one bit short, and the packed codes truncate.  This is the integer
    replacement: a branchless binary search over the value's high bits,
    six whole-array passes for the full uint64 range.
    """
    v = np.asarray(values, dtype=np.uint64).copy()
    out = np.zeros(v.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = v >= (np.uint64(1) << np.uint64(shift))
        out[mask] += shift
        v[mask] >>= np.uint64(shift)
    return out + (v > 0)


def write_uint_array(values: np.ndarray, bit_width: int) -> bytes:
    """Pack fixed-width unsigned integers (used for escape values)."""
    if not 0 <= bit_width <= 64:
        raise ValueError("code lengths must be in 0..64")
    values = np.asarray(values, dtype=np.uint64).reshape(-1)
    payload, _ = pack_codes(values, np.full(values.shape, bit_width, dtype=np.uint8))
    return payload


def read_uint_array(payload: bytes, bit_width: int, count: int) -> np.ndarray:
    """Inverse of :func:`write_uint_array`: *count* values of *bit_width*
    (1..64) bits each, as uint64, read straight from the bytes."""
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    nbytes = (bit_width * count + 7) >> 3
    if len(payload) < nbytes:
        raise CorruptStreamError("bit payload shorter than declared length")
    # Value i starts at bit i * bit_width: gather the big-endian word at
    # its first byte, drop the `lead` bits before it and keep the top
    # bit_width bits.  Bits past the value are shifted out, so the nine
    # bytes of padding may hold anything.
    padded = bytes(payload) + bytes(9)
    start = np.arange(0, bit_width * count, bit_width, dtype=np.int64)
    first = start >> 3
    lead = start.view(np.uint64) & 7
    # The big-endian word at every byte offset (positional arguments: this
    # constructor is a measurable part of a 63-value read).
    words = np.ndarray((nbytes + 1,), _BIG_ENDIAN_U64, padded, 0, (1,))
    # The ufunc call, not `<<`: on a large temporary the operator may be
    # done in place and keep the big-endian dtype.
    out = np.left_shift(words[first], lead)
    if bit_width + 7 > 64:
        # A value that starts late in its byte spills into a ninth one.
        ninth = np.frombuffer(padded, dtype=np.uint8)[first + 8]
        out |= ninth >> (8 - lead).astype(np.uint8)
    out >>= 64 - bit_width
    return out


def pack_width_groups(codes: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Bit-pack rows of unsigned *codes* at each row's minimal width.

    Rows are grouped by width so each group packs in one vectorised call
    (the loop runs at most 64 times — once per distinct width — whatever
    the number of rows); returns the concatenated payload (groups in
    ascending width order) and the per-row widths.  Width-0 rows (all
    zero) emit nothing.  Widths are exact integer bit lengths
    (:func:`uint_bit_length`), never float ``log2``.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    if codes.size == 0:
        return b"", np.zeros(codes.shape[0] if codes.ndim else 0, dtype=np.uint8)
    widths = uint_bit_length(codes.max(axis=1)).astype(np.uint8)
    parts = [
        write_uint_array(codes[widths == width].reshape(-1), int(width))
        for width in np.unique(widths)
        if width
    ]
    return b"".join(parts), widths


def unpack_width_groups(payload: bytes, widths: np.ndarray, row_len: int) -> np.ndarray:
    """Inverse of :func:`pack_width_groups`: ``(len(widths), row_len)`` uint64."""
    widths = np.asarray(widths, dtype=np.int64)
    out = np.zeros((widths.size, row_len), dtype=np.uint64)
    groups = np.unique(widths)
    # The widths come from a side stream: one past 64 bits is damage, not
    # a width read_uint_array can shift by.
    if groups.size and not 0 <= groups[0] <= groups[-1] <= 64:
        raise CorruptStreamError("width-group width outside 0..64 bits")
    cursor = 0
    for width in groups:
        if width == 0:
            continue
        sel = widths == width
        count = int(sel.sum()) * row_len
        nbytes = (int(width) * count + 7) // 8
        chunk = payload[cursor : cursor + nbytes]
        if len(chunk) != nbytes:
            raise CorruptStreamError("width-group payload truncated")
        out[sel] = read_uint_array(chunk, int(width), count).reshape(-1, row_len)
        cursor += nbytes
    return out
