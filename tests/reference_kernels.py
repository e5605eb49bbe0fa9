"""Test-only oracles: the entropy-stage kernels as they shipped before
the profile-led pass (ISSUE 12), kept verbatim so the differential tests
in ``test_kernel_vectorization.py`` and the timings in
``benchmarks/test_kernels.py`` have something to compare against.

The second half (ISSUE 21) is the random forest as it shipped before the
lock-step builder and the all-trees descent: ``best_split_for_feature``,
the recursive per-tree builder, the level-by-level per-tree predict loop
and the forest's tree-by-tree fit / OOB / sum, verbatim apart from
living in functions instead of estimator methods.  ``tests/
test_forest_kernels.py`` and ``benchmarks/test_kernels.py`` hold the
kernels in ``repro.mlkit.tree`` to them node for node and bit for bit.

The last section (ISSUE 24) is the per-task hashing ``bench.tasks.Task``
did before a campaign's parts were hashed once: all three structures of
every task canonically re-encoded for the key, and again for the three
column digests.  ``tests/test_task_keys.py`` and ``benchmarks/
test_kernels.py`` hold ``build_tasks()`` to it key for key.

``lz77_compress_loop`` is the interpreted greedy LZ77 encoder the
vectorised one in ``repro.encoding.lz`` replaced; ``tests/
test_golden_streams.py``, ``tests/test_kernel_vectorization.py`` and
``benchmarks/test_kernels.py`` hold the production encoder to it byte
for byte.

``lag_correlations_take``, ``variogram_slope_take`` and
``huffman_bits_exact_built`` are the serve-side featurizers as they were
before the trim: the lagged planes copied out with ``np.take`` over a
``range``, and the stage probes' exact Huffman bits read off a whole
canonical code book.  ``tests/test_featurizer_kernels.py`` holds the
basic-slice forms and ``huffman.code_lengths`` to them bit for bit.

``huffman_encode_searchsorted``, ``huffman_decode_windows`` and
``read_uint_array_bitmatrix`` are the entropy-stage kernels before they
read straight from the bytes: the encoder's sorted search for
every value's symbol, the decoder that unpacked the payload to a bit
array, packed it back and cut an int64 window at every bit position
(with ``unpack_bits`` and ``windows_at_every_position``, which no
production path calls any more) behind three fixed lifting levels, and
the fixed-width reader's ``(count, width)`` bit matrix times a uint64
weight vector.  ``tests/test_kernel_vectorization.py`` holds the new
kernels to them byte for byte.  The retired decoder returns whatever
``n_values`` codes it finds, also when they stop short of or run past
``total_bits``; the production one refuses that stream.

``canonical_codes_per_length`` is the canonical code assignment as it
was before one stable argsort ranked the symbols: a ``flatnonzero``
pass over every symbol for each code length in turn.
``tests/test_kernel_vectorization.py`` holds ``huffman.canonical_codes``
to it code for code.

Nothing under ``src/`` imports this module.  The functions are the
heap-based Huffman length builder, the bit-plane code packer, the
full-lifting decoder (sliding-window matmul, int64 tables, one T-sized
self-composition per bit of ``n_values``) and, from PR 6, the per-symbol
scatter loop behind ``decode_tables``, which moved here from
``HuffmanCode`` once only tests called it.  The decoder predates the
header validation of the production one: on a corrupt *header* it can
raise ``MemoryError``/``IndexError``/``OverflowError``/``ValueError`` or
stall, so the differential tests only feed it streams whose 24 header
bytes and code table are intact.
"""

from __future__ import annotations

import struct
from heapq import heapify, heappop, heappush

import numpy as np

from repro.core.errors import CorruptStreamError
from repro.core.hashing import combined_hash, options_hash
from repro.core.options import PressioOptions
from repro.encoding.bitio import pack_codes
from repro.encoding.huffman import (
    _STREAM_HEADER,
    DEFAULT_MAX_LENGTH,
    MAX_CODE_LENGTH,
    HuffmanCode,
    build_code,
    canonical_codes,
)
from repro.encoding.lz import _MAX_MATCH, _MIN_MATCH, _WINDOW, _flush_literals
from repro.mlkit.base import check_X, check_X_y


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
    sym_table, len_table = decode_tables(code)
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


def decode_tables(code: HuffmanCode) -> tuple[np.ndarray, np.ndarray]:
    """Full lookup tables of size ``2**max_length`` (``HuffmanCode.decode_tables``
    until the decoder stopped building them).

    ``sym_table[w]`` / ``len_table[w]`` give the decoded symbol index
    and its code length for any window *w* whose leading bits match a
    code.  Windows that match no code get length 0 (detected as
    corruption during decode).
    """
    width = max(code.max_length, 1)
    size = 1 << width
    sym_table = np.zeros(size, dtype=np.int64)
    len_table = np.zeros(size, dtype=np.int64)
    active = np.flatnonzero(code.lengths > 0)
    if active.size == 0:
        return sym_table, len_table
    lens = code.lengths[active].astype(np.int64)
    base = code.codes[active].astype(np.int64) << (width - lens)
    span = np.int64(1) << (width - lens)
    order = np.argsort(base, kind="stable")
    starts = base[order]
    spans = span[order]
    total = int(spans.sum())
    # Canonical codes tile a prefix of [0, 2^width) contiguously, so
    # the whole table is two np.repeat fills — no per-symbol loop.
    if total <= size and np.array_equal(
        starts, np.concatenate(([0], np.cumsum(spans)[:-1]))
    ):
        sym_table[:total] = np.repeat(active[order], spans)
        len_table[:total] = np.repeat(lens[order], spans)
        return sym_table, len_table
    # Non-canonical length tables (possible only for corrupt streams)
    # take the per-symbol scatter: a later code overwrites an earlier one.
    return decode_tables_scatter_loop(code)


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



# -- the entropy-stage kernels before they read straight from the bytes ---------


def unpack_bits(payload: bytes, total_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`' packing: the raw bit array."""
    if total_bits == 0:
        return np.zeros(0, dtype=np.uint8)
    if len(payload) * 8 < total_bits:
        raise CorruptStreamError("bit payload shorter than declared length")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    return bits[:total_bits]


def windows_at_every_position(bits: np.ndarray, width: int) -> np.ndarray:
    """Return the ``width``-bit integer starting at every bit position.

    The stream is zero padded on the right so positions near the end are
    well defined.  Output dtype is int64; ``out[p]`` reads bits
    ``p .. p+width-1`` MSB-first.  *width* is at most 57: the window at
    bit ``8b + j`` is cut out of the ``ceil((width + 7) / 8)`` bytes
    starting at byte ``b``, which have to fit one 64-bit word.
    """
    if not 0 < width <= 57:
        raise ValueError("width must be in 1..57")
    packed = np.packbits(bits)
    n_bytes = max(packed.size, 1)
    n_gather = (width + 14) >> 3
    padded = np.zeros(n_bytes + n_gather, dtype=np.int64)
    padded[: packed.size] = packed
    # word[b] = bytes b .. b+n_gather-1, big-endian.
    word = padded[:n_bytes].copy()
    for k in range(1, n_gather):
        word <<= 8
        word |= padded[k : k + n_bytes]
    out = np.empty((n_bytes, 8), dtype=np.int64)
    spare = 8 * n_gather - width
    for j in range(8):
        np.right_shift(word, spare - j, out=out[:, j])
    out &= (1 << width) - 1
    return out.reshape(-1)[: max(bits.size, 1)]


def huffman_encode_searchsorted(values: np.ndarray, *, max_length: int = DEFAULT_MAX_LENGTH,
                                code: HuffmanCode | None = None) -> bytes:
    """``huffman.encode`` with each value's symbol found by a sorted search."""
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    if code is None:
        code = build_code(values, max_length=max_length)
    idx = np.searchsorted(code.symbols, values)
    if values.size and (
        (idx >= code.symbols.size).any() or (code.symbols[np.minimum(idx, code.symbols.size - 1)] != values).any()
    ):
        raise ValueError("values contain symbols outside the supplied code book")
    payload, total_bits = pack_codes(code.codes[idx], code.lengths[idx]) if values.size else (b"", 0)
    head = _STREAM_HEADER.pack(code.symbols.size, values.size, total_bits, code.max_length)
    return b"".join([
        head,
        code.symbols.astype("<i8").tobytes(),
        code.lengths.astype("<u1").tobytes(),
        payload,
    ])


def huffman_decode_windows(stream: bytes) -> np.ndarray:
    """``huffman.decode`` over a bit array: an int64 window at every bit
    position, three lifted levels, the header validated first."""
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
    bits = unpack_bits(stream[off:], total_bits)
    if n_symbols == 0 or n_values > total_bits or (n_symbols == 1 and n_values != total_bits):
        raise CorruptStreamError("huffman header inconsistent with its payload")
    if not 1 <= width <= MAX_CODE_LENGTH or width != lengths.max() or lengths.min() < 1:
        raise CorruptStreamError("huffman code table inconsistent with its header")
    if n_symbols == 1:
        return np.full(n_values, symbols[0], dtype=np.int64)
    code = HuffmanCode(symbols=symbols, lengths=lengths, codes=canonical_codes(lengths))
    sym_table, len_table = decode_tables(code)
    windows = windows_at_every_position(bits, width)
    len_at = len_table.astype(np.uint8)[windows]
    if len_at[0] == 0:
        raise CorruptStreamError("invalid prefix at stream start")
    jump = np.arange(total_bits + 1, dtype=np.int64)
    jump[:total_bits] += len_at
    tail = jump[-(width + 1) :]
    np.minimum(tail, total_bits, out=tail)
    levels = 3
    lifted = [jump]
    for _ in range(levels):
        lifted.append(lifted[-1][lifted[-1]])
    stride = 1 << levels
    jump_stride = lifted[-1].item
    anchors = []
    at = 0
    for _ in range(-(-n_values // stride)):
        anchors.append(at)
        at = jump_stride(at)
    pos = np.empty((len(anchors), stride), dtype=np.int64)
    pos[:, 0] = anchors
    for l in range(levels - 1, -1, -1):
        step = 1 << l
        pos[:, step :: 2 * step] = lifted[l][pos[:, :: 2 * step]]
    pos = pos.reshape(-1)[:n_values]
    if (pos >= total_bits).any():
        raise CorruptStreamError("huffman stream truncated")
    if (len_at[pos] == 0).any():
        raise CorruptStreamError("invalid huffman code in stream")
    return symbols[sym_table[windows[pos]]]


def read_uint_array_bitmatrix(payload: bytes, bit_width: int, count: int) -> np.ndarray:
    """``bitio.read_uint_array`` as a ``(count, width)`` bit matrix times
    the powers of two."""
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    bits = unpack_bits(payload, bit_width * count)
    mat = bits.reshape(count, bit_width).astype(np.uint64)
    weights = (np.uint64(1) << np.arange(bit_width - 1, -1, -1, dtype=np.uint64))
    return mat @ weights

# -- the random forest before ISSUE 21 -------------------------------------------


def best_split_for_feature(
    x: np.ndarray, y: np.ndarray, min_leaf: int, *, square_total=lambda t: t**2
) -> tuple[float, float]:
    """Best (SSE reduction, threshold) for one feature of one node.

    Sorts once, then evaluates the sum of squared errors of every
    prefix/suffix partition with cumulative sums.  Returns
    ``(-inf, nan)`` when no valid split exists (constant feature or
    min_leaf infeasible).  ``total**2`` is a NumPy *scalar* power (libm
    ``pow``), ``left_sum**2`` an *array* power (``square``): the two
    differ in the last ulp now and then, and the production kernel
    reproduces exactly this mix.  ``square_total`` exists so a test can
    swap in ``np.square`` and show a pinned near-tie is one.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    n = xs.size
    if n < 2 * min_leaf:
        return -np.inf, np.nan
    csum = np.cumsum(ys)
    csum2 = np.cumsum(ys * ys)
    total = csum[-1]
    total2 = csum2[-1]
    # Candidate split after position i (1-based prefix length k = i+1).
    k = np.arange(1, n)
    left_sum = csum[:-1]
    left_sse = csum2[:-1] - left_sum**2 / k
    right_n = n - k
    right_sum = total - left_sum
    right_sse = (total2 - csum2[:-1]) - right_sum**2 / right_n
    parent_sse = total2 - square_total(total) / n
    gain = parent_sse - (left_sse + right_sse)
    # A split is valid only between distinct x values with both sides
    # holding at least min_leaf samples.
    valid = (xs[1:] != xs[:-1]) & (k >= min_leaf) & (right_n >= min_leaf)
    if not valid.any():
        return -np.inf, np.nan
    gain = np.where(valid, gain, -np.inf)
    best = int(np.argmax(gain))
    threshold = 0.5 * (xs[best] + xs[best + 1])
    return float(gain[best]), float(threshold)


def n_candidate_features(max_features, n_features: int) -> int:
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if isinstance(max_features, float):
        return max(1, int(max_features * n_features))
    return min(int(max_features), n_features)


def tree_fit_recursive(X, y, *, max_depth=12, min_samples_leaf=1, max_features=None,
                       random_state=None) -> dict[str, np.ndarray]:
    """The recursive closure of ``DecisionTreeRegressor.fit``; returns the
    five flat arrays (plus ``max_depth``, which bounded the old predict)."""
    X, y = check_X_y(X, y)
    rng = np.random.default_rng(random_state)
    n_features = X.shape[1]
    k = n_candidate_features(max_features, n_features)

    features: list[int] = []
    thresholds: list[float] = []
    lefts: list[int] = []
    rights: list[int] = []
    values: list[float] = []

    def build(idx: np.ndarray, depth: int) -> int:
        node = len(features)
        features.append(-1)
        thresholds.append(np.nan)
        lefts.append(-1)
        rights.append(-1)
        values.append(float(y[idx].mean()) if idx.size else 0.0)
        if depth >= max_depth or idx.size < 2 * min_samples_leaf:
            return node
        if np.ptp(y[idx]) == 0:
            return node
        cand = (
            np.arange(n_features)
            if k == n_features
            else rng.choice(n_features, size=k, replace=False)
        )
        best_gain, best_feat, best_thr = 0.0, -1, np.nan
        for j in cand:
            gain, thr = best_split_for_feature(X[idx, j], y[idx], min_samples_leaf)
            if gain > best_gain:
                best_gain, best_feat, best_thr = gain, int(j), thr
        if best_feat < 0:
            return node
        mask = X[idx, best_feat] <= best_thr
        left_idx, right_idx = idx[mask], idx[~mask]
        features[node] = best_feat
        thresholds[node] = best_thr
        lefts[node] = build(left_idx, depth + 1)
        rights[node] = build(right_idx, depth + 1)
        return node

    build(np.arange(X.shape[0]), 0)
    return {
        "feature_": np.asarray(features, dtype=np.int64),
        "threshold_": np.asarray(thresholds, dtype=np.float64),
        "left_": np.asarray(lefts, dtype=np.int64),
        "right_": np.asarray(rights, dtype=np.int64),
        "value_": np.asarray(values, dtype=np.float64),
        "max_depth": int(max_depth),
    }


def tree_predict_loop(tree: dict[str, np.ndarray], X) -> np.ndarray:
    """One tree, level by level, with an active mask (the old predict)."""
    X = check_X(X)
    node = np.zeros(X.shape[0], dtype=np.int64)
    for _ in range(tree["max_depth"] + 1):
        active = tree["feature_"][node] >= 0
        if not active.any():
            break
        feat = tree["feature_"][node[active]]
        thr = tree["threshold_"][node[active]]
        go_left = X[active, feat] <= thr
        nxt = np.where(go_left, tree["left_"][node[active]], tree["right_"][node[active]])
        node[active] = nxt
    return tree["value_"][node]


def forest_fit_loop(X, y, *, n_estimators=30, max_depth=12, min_samples_leaf=1,
                    max_features="sqrt", bootstrap=True, random_state=0):
    """Tree-by-tree ``RandomForestRegressor.fit``: ``(trees, oob_prediction)``."""
    X, y = check_X_y(X, y)
    rng = np.random.default_rng(random_state)
    n = X.shape[0]
    trees = []
    oob_sum = np.zeros(n)
    oob_count = np.zeros(n)
    for _ in range(n_estimators):
        seed = int(rng.integers(0, 2**31 - 1))
        idx = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        tree = tree_fit_recursive(X[idx], y[idx], max_depth=max_depth,
                                  min_samples_leaf=min_samples_leaf,
                                  max_features=max_features, random_state=seed)
        trees.append(tree)
        if bootstrap:
            oob = np.setdiff1d(np.arange(n), idx, assume_unique=False)
            if oob.size:
                oob_sum[oob] += tree_predict_loop(tree, X[oob])
                oob_count[oob] += 1
    seen = oob_count > 0
    return trees, np.where(seen, oob_sum / np.maximum(oob_count, 1), np.nan)


def forest_predict_loop(trees, X) -> np.ndarray:
    """``out += tree.predict(X)`` in tree order, then the mean."""
    X = check_X(X)
    out = np.zeros(X.shape[0])
    for tree in trees:
        out += tree_predict_loop(tree, X)
    return out / len(trees)


def task_hashes_per_task(task) -> tuple[str, str, str, str]:
    """``(key, compressor_hash, dataset_hash, experiment_hash)`` of one
    task from its plain mappings alone — six structure encodings a task."""
    key = combined_hash(
        {**dict(task.compressor_options), "pressio:id": task.compressor_id},
        dict(task.dataset_config),
        dict(task.experiment),
        str(task.replicate),
    )
    opts = PressioOptions(dict(task.compressor_options))
    opts["pressio:id"] = task.compressor_id
    return (
        key,
        options_hash(opts),
        options_hash(dict(task.dataset_config)),
        options_hash(dict(task.experiment)),
    )


def lz77_compress_loop(data: bytes) -> bytes:
    """Greedy hash-chain LZ77, interpreted, byte at a time: the encoder
    ``repro.encoding.lz._lz77_compress`` replaced and must match byte for
    byte."""
    n = len(data)
    out = bytearray()
    literals = bytearray()
    head: dict[bytes, int] = {}
    i = 0

    while i < n:
        match_len = 0
        match_dist = 0
        if i + _MIN_MATCH <= n:
            key = data[i : i + _MIN_MATCH]
            cand = head.get(key)
            # NB: strictly less than _WINDOW — the distance field is a
            # 16-bit integer, so a match at distance exactly 2^16 would
            # overflow struct.pack (a crash the original `<=` had).
            if cand is not None and i - cand < _WINDOW:
                # Extend the candidate match as far as it goes.
                length = _MIN_MATCH
                limit = min(_MAX_MATCH, n - i)
                while length < limit and data[cand + length] == data[i + length]:
                    length += 1
                match_len = length
                match_dist = i - cand
            head[key] = i
        if match_len >= _MIN_MATCH:
            _flush_literals(out, literals)
            out.append(0x01)
            out.extend(struct.pack("<HB", match_dist, match_len - _MIN_MATCH))
            # Insert hash entries sparsely inside the match to bound cost.
            step = max(1, match_len // 8)
            for k in range(i + 1, min(i + match_len, n - _MIN_MATCH), step):
                head[data[k : k + _MIN_MATCH]] = k
            i += match_len
        else:
            literals.append(data[i])
            i += 1
    _flush_literals(out, literals)
    return bytes(out)


def lag_correlations_take(array: np.ndarray, lag: int = 1) -> float:
    """Mean lag-*lag* Pearson autocorrelation across all axes."""
    arr = np.asarray(array, dtype=np.float64)
    std = arr.std()
    if std == 0 or arr.size < 2:
        return 1.0
    mean = arr.mean()
    cors = []
    for axis in range(arr.ndim):
        if arr.shape[axis] <= lag:
            continue
        a = np.take(arr, range(0, arr.shape[axis] - lag), axis=axis) - mean
        b = np.take(arr, range(lag, arr.shape[axis]), axis=axis) - mean
        denom = np.sqrt((a * a).mean() * (b * b).mean())
        if denom > 0:
            cors.append(float((a * b).mean() / denom))
    return float(np.mean(cors)) if cors else 1.0


def variogram_slope_take(array: np.ndarray, max_lag: int = 4) -> float:
    """Log-log slope of the empirical variogram over small lags."""
    arr = np.asarray(array, dtype=np.float64)
    lags = []
    gammas = []
    for h in range(1, max_lag + 1):
        vals = []
        for axis in range(arr.ndim):
            if arr.shape[axis] > h:
                d = np.take(arr, range(h, arr.shape[axis]), axis=axis) - np.take(
                    arr, range(0, arr.shape[axis] - h), axis=axis
                )
                vals.append(float((d * d).mean() * 0.5))
        if vals:
            g = float(np.mean(vals))
            if g > 0:
                lags.append(h)
                gammas.append(g)
    if len(lags) < 2:
        return 0.0
    x = np.log(np.asarray(lags, dtype=np.float64))
    y = np.log(np.asarray(gammas, dtype=np.float64))
    slope = float(np.polyfit(x, y, 1)[0])
    return slope


def huffman_bits_exact_built(symbols: np.ndarray, counts: np.ndarray) -> float:
    """The stage probes' ``huffman_bits_exact``: a whole canonical code
    book built, then its expected bits per symbol under *counts*."""
    code = build_code(symbols=symbols, counts=counts)
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    return float((counts * code.lengths).sum() / total) if total else 0.0


def canonical_codes_per_length(lengths: np.ndarray) -> np.ndarray:
    """``huffman.canonical_codes`` with one ``flatnonzero`` pass per length."""
    lengths = np.asarray(lengths, dtype=np.int64)
    codes = np.zeros(lengths.size, dtype=np.uint64)
    if lengths.size == 0:
        return codes
    max_len = int(lengths.max())
    bl_count = np.bincount(lengths, minlength=max_len + 1)
    bl_count[0] = 0
    next_code = np.zeros(max_len + 1, dtype=np.uint64)
    code = 0
    for l in range(1, max_len + 1):
        code = (code + int(bl_count[l - 1])) << 1
        next_code[l] = code
    for l in range(1, max_len + 1):
        idx = np.flatnonzero(lengths == l)
        if idx.size:
            codes[idx] = next_code[l] + np.arange(idx.size, dtype=np.uint64)
    return codes
