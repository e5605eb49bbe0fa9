"""Error-dependent prediction metrics: quantized statistics, sampled
trials, and compressor-internal stage probes.

Everything here depends on error-affecting compressor settings (at
minimum ``pressio:abs``), so the ``predictors:invalidate`` declarations
are ``predictors:error_dependent`` — the evaluator recomputes them when
the bound changes but reuses them across error-agnostic invalidations.
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from ...core.compressor import CompressorPlugin
from ...core.data import PressioData
from ...core.errors import MissingOptionError
from ...core.metrics import ERROR_DEPENDENT, NONDETERMINISTIC, RUNTIME, MetricsPlugin
from ...core.options import PressioOptions
from ...dataset.sampler import sample_blocks
from ...encoding.bitio import uint_bit_length
from ...encoding.entropy import huffman_expected_length, quantized_entropy
from ...encoding.huffman import code_lengths


#: A Huffman code as deep as ``DEFAULT_MAX_LENGTH + 1`` = 17 bits needs a
#: total count of at least the Fibonacci number F(19) = 4181; below it,
#: limiting the lengths is a no-op.
_UNLIMITED_TOTAL = 4181


def _huffman_bits_exact(counts: np.ndarray) -> float:
    """Mean bits per value under the Huffman code ``build_code`` would
    make for *counts*.

    Below ``_UNLIMITED_TOTAL`` (every count positive, more than two
    symbols) that code is an unlimited Huffman code, whose cost
    sum(count * length) is the sum of the merged weights whatever the
    tie-breaks: :func:`_huffman_cost` adds them up over runs of equal
    counts.  Both sums are exact integers, so the quotient is the one
    the per-symbol lengths give, bit for bit.  Other inputs take the
    limited code lengths.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if counts.size > 2 and total < _UNLIMITED_TOTAL and counts.min() > 0:
        return float(_huffman_cost(counts)) / float(total)
    weights = counts.astype(np.float64)
    return float((weights * code_lengths(counts)).sum() / weights.sum())


def _huffman_cost(counts: np.ndarray) -> int:
    """Sum of the merged weights of a Huffman merge of *counts* (more
    than one), taking ``m`` equal weights as ``m // 2`` merges at once.

    The heap holds ``(weight, multiplicity)`` runs, starting from the
    distinct counts, so the loop turns per run, not per symbol."""
    weights, multiplicity = np.unique(counts, return_counts=True)
    heap = list(zip(weights.tolist(), multiplicity.tolist()))  # sorted: a heap
    cost = 0
    while True:
        weight, m = heapq.heappop(heap)
        if m == 1:
            if not heap:  # the root
                return cost
            other, m_other = heapq.heappop(heap)
            if m_other > 1:
                heapq.heappush(heap, (other, m_other - 1))
            merged, pairs = weight + other, 1
        else:
            pairs = m // 2
            if m % 2:
                heapq.heappush(heap, (weight, 1))
            merged = 2 * weight
        cost += merged * pairs
        heapq.heappush(heap, (merged, pairs))


def _abs_bound(options: PressioOptions) -> float:
    value = options.get("pressio:abs")
    if value is None:
        raise MissingOptionError("error-dependent metrics need pressio:abs")
    return float(value)


class QuantizedEntropyMetric(MetricsPlugin):
    """Entropy of the input after quantization at the current bound
    (Krasowska 2021 / Underwood 2023's error-dependent feature)."""

    id = "qentropy"
    invalidations = (ERROR_DEPENDENT,)

    def __init__(self, **options: Any) -> None:
        super().__init__(**options)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        eb = _abs_bound(options)
        self._results = {"bits": quantized_entropy(input_data.array, eb)}

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


class BoundSparsityMetric(MetricsPlugin):
    """Fraction of values indistinguishable from zero at the bound.

    FXRZ's sparsity *correction* input: with a liberal bound, near-zero
    values join the zero region and the field's effective sparsity
    grows — error-dependent by definition.
    """

    id = "bsparsity"
    invalidations = (ERROR_DEPENDENT,)

    def __init__(self, **options: Any) -> None:
        super().__init__(**options)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        eb = _abs_bound(options)
        flat = np.asarray(input_data.array, dtype=np.float64).reshape(-1)
        if flat.size == 0:
            self._results = {"below_bound_ratio": 0.0}
            return
        self._results = {"below_bound_ratio": float((np.abs(flat) <= eb).mean())}

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


class DistortionMetric(MetricsPlugin):
    """Ganguli 2023's "general distortion" feature.

    Uniform quantization at bound ``eb`` injects noise with variance
    ``eb²/3``; the signal-to-distortion ratio in dB relative to the data
    variance captures *how much* of the data's information the bound
    allows through — the coarse analog of a rate-distortion operating
    point.  Error-dependent.
    """

    id = "distortion"
    invalidations = (ERROR_DEPENDENT,)

    def __init__(self, **options: Any) -> None:
        super().__init__(**options)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        eb = _abs_bound(options)
        arr = np.asarray(input_data.array, dtype=np.float64)
        var = float(arr.var())
        noise = eb * eb / 3.0
        sdr_db = 10.0 * np.log10(var / noise) if var > 0 and noise > 0 else 0.0
        rng = float(arr.max() - arr.min()) if arr.size else 0.0
        self._results = {
            "sdr_db": float(sdr_db),
            "log_rel_bound": float(np.log10(eb / rng)) if rng > 0 else 0.0,
        }

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


class _CompressorProbe(MetricsPlugin):
    """What every compressor probe shares: a private codec to run, a
    seeded sampling fraction (and block side, for the block samplers),
    and the results of the last observation."""

    invalidations = (ERROR_DEPENDENT,)
    fraction = 0.05
    block = 8

    def __init__(
        self,
        compressor: CompressorPlugin,
        *,
        fraction: float | None = None,
        block: int | None = None,
        seed: int = 0,
        **options: Any,
    ) -> None:
        super().__init__(**options)
        self.compressor = compressor
        self.fraction = float(self.fraction if fraction is None else fraction)
        self.block = int(self.block if block is None else block)
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


def _code_stats(codes: np.ndarray) -> tuple[dict[str, Any], np.ndarray]:
    """The escape fraction plus the Huffman and entropy statistics of the
    in-window codes — what the entropy stage would see.  Also returns
    the in-window symbol probabilities (empty when every code escapes)."""
    from ...compressors.sz3 import ESCAPE_LIMIT  # local to avoid cycle

    escaped = np.abs(codes) >= ESCAPE_LIMIT
    stats = {"escape_fraction": float(escaped.mean()), "huffman_bits_exact": 0.0,
             "entropy_bits": 0.0, "table_symbols": 0}
    inside = codes[~escaped]
    if not inside.size:
        return stats, np.zeros(0)
    symbols, counts = np.unique(inside, return_counts=True)
    probs = counts / counts.sum()
    stats.update(
        huffman_bits_exact=_huffman_bits_exact(counts),
        entropy_bits=float(-np.sum(probs * np.log2(probs))),
        table_symbols=int(symbols.size),
    )
    return stats, probs


class SampledTrialMetric(_CompressorProbe):
    """Tao 2019's trial-based estimate: run the *real* compressor on
    sampled blocks and report the sample compression ratio.

    Runtime-dependent (its cost scales with the compressor) and
    error-dependent; also nondeterministic when the sample seed is drawn
    per call.
    """

    id = "trial"
    invalidations = (ERROR_DEPENDENT, RUNTIME, NONDETERMINISTIC)

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        blocks = sample_blocks(
            input_data.array, block=self.block, fraction=self.fraction, seed=self.seed
        )
        sample = blocks.astype(np.float64).reshape(-1)
        if sample.size == 0:
            self._results = {"sampled_cr": 1.0, "sample_count": 0}
            return
        self.compressor.set_options({"pressio:abs": _abs_bound(options)})
        stream = self.compressor.compress(sample)
        self._results = {
            "sampled_cr": sample.nbytes / max(stream.nbytes, 1),
            "sample_count": int(blocks.shape[0]),
        }


class SZ3StageProbeMetric(_CompressorProbe):
    """Jin 2022 / SECRE-style probe of SZ3's first pipeline stages.

    Runs the codec's prediction + quantization (``predict_residuals``:
    cheap, vectorised; no encoding) and summarises the residual-code
    distribution: its Huffman-efficiency estimate, the escape fraction,
    and the zero-residual fraction.  With ``fraction < 1`` only sampled
    blocks are probed (SECRE's tightly coupled sampling); with
    ``fraction = 1`` (the default) the whole array is used (Jin's full
    numerical model).
    """

    id = "sz3probe"
    fraction = 1.0

    def __init__(self, compressor: CompressorPlugin, **kwargs: Any) -> None:
        super().__init__(compressor, **kwargs)
        # Sampled and full-data probes are *different observations* of
        # the same stages; distinct ids keep their results from
        # colliding when several schemes share one result namespace.
        if self.fraction < 1.0:
            self.id = "sz3probe_sampled"

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        self.compressor.set_options({"pressio:abs": _abs_bound(options)})
        if self.fraction >= 1.0:
            target = np.asarray(input_data.array, dtype=np.float64)
        else:
            target = sample_blocks(
                input_data.array, block=self.block, fraction=self.fraction, seed=self.seed
            )
        flat = self.compressor.predict_residuals(target).reshape(-1)
        if flat.size == 0:
            self._results = {}
            return
        stats, probs = _code_stats(flat)
        self._results = {
            "huffman_bits_estimate": huffman_expected_length(probs) if probs.size else 0.0,
            **stats,
            "zero_residual_fraction": float((flat == 0).mean()),
            "probed_values": int(flat.size),
            "element_bits": int(input_data.dtype.itemsize * 8),
            "total_values": int(input_data.size),
        }


class ZFPStageProbeMetric(_CompressorProbe):
    """SECRE-style probe of the ZFP pipeline on sampled blocks.

    Runs the codec's own fixed point, lifting transform and coefficient
    quantization on sampled 4^d blocks, then reports the bits/value the
    fixed-width packer would spend — the dominant term of the ZFP stream.
    """

    id = "zfpprobe"

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        from ...compressors import zfp as zfpmod

        blocks = sample_blocks(
            input_data.array, block=zfpmod.BLOCK, fraction=self.fraction,
            min_blocks=8, seed=self.seed,
        )
        if blocks.size == 0:
            self._results = {}
            return
        # A short axis gives short blocks: edge-pad them as to_blocks pads the array.
        pads = [(0, 0)] + [(0, zfpmod.BLOCK - side) for side in blocks.shape[1:]]
        blocks = np.pad(blocks, pads, mode="edge")
        _, scale, coeffs = zfpmod.block_coefficients(blocks)
        shift = zfpmod.accuracy_shift(scale, _abs_bound(options), blocks.ndim - 1)
        q = zfpmod.quantize_coefficients(coeffs, shift)
        widths = uint_bit_length(zfpmod.zigzag(q[:, 1:]).max(axis=1))
        ncoef = coeffs.shape[1]
        # Per-block side-channel cost in the real stream: exponent,
        # shift, width (5 bytes) + amortised DC delta.
        dc_mag = np.abs(np.diff(q[:, 0], prepend=q[0, 0]))
        self._results = {
            "ac_bits_per_block": float((widths * (ncoef - 1)).mean()),
            "dc_bits_per_block": float(np.log2(dc_mag.astype(np.float64) + 2.0).mean() + 1.0),
            "mean_width": float(widths.mean()),
            "zero_block_fraction": float((widths == 0).mean()),
            "probed_blocks": len(blocks),
            "block_values": int(ncoef),
            "element_bits": int(input_data.dtype.itemsize * 8),
        }


class SperrStageProbeMetric(_CompressorProbe):
    """SECRE-style probe of the SPERR-like wavelet pipeline.

    §2.2: SECRE "applies it to two additional compressors SZx ... and to
    SPERR a leading compressor based on wavelets".  The probe runs the
    codec's quantize + multilevel integer wavelet
    (``transform_coefficients``) on sampled sub-blocks and summarises
    the coefficient distribution the entropy stage would code — the same
    statistics as the SZ3 probe, measured after a different
    decorrelating stage.
    """

    id = "sperrprobe"
    block = 16

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        self.compressor.set_options({"pressio:abs": _abs_bound(options)})
        blocks = sample_blocks(
            input_data.array, block=self.block, fraction=self.fraction,
            min_blocks=2, seed=self.seed,
        )
        if blocks.size == 0:
            self._results = {}
            return
        flat = np.concatenate(
            [self.compressor.transform_coefficients(b).reshape(-1) for b in blocks]
        )
        self._results = {
            **_code_stats(flat)[0],
            "probed_values": int(flat.size),
            "total_values": int(input_data.size),
            "element_bits": int(input_data.dtype.itemsize * 8),
        }


class SZXStageProbeMetric(_CompressorProbe):
    """Probe SZx's classification on sampled blocks: constant-block
    fraction and the mean non-constant code width."""

    id = "szxprobe"
    fraction = 0.1

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        from ...compressors.szx import classify_blocks

        eb = _abs_bound(options)
        block = int(self.compressor.get_options().get("szx:block_size", 128))
        flat = np.asarray(input_data.array, dtype=np.float64).reshape(-1)
        if flat.size == 0:
            self._results = {}
            return
        rng = np.random.default_rng(self.seed)
        nblocks = max(flat.size // block, 1)
        k = max(4, int(self.fraction * nblocks))
        picks = rng.permutation(nblocks)[: min(k, nblocks)]
        rows = np.stack(
            [flat[p * block : (p + 1) * block] for p in picks if (p + 1) * block <= flat.size]
        ) if nblocks > 1 else flat[: block][None, :]
        _, lo, const = classify_blocks(rows.reshape(-1), rows.shape[1], eb)
        span = np.maximum((rows.max(axis=1) - lo) / (2 * eb), 1.0)
        widths = np.ceil(np.log2(span + 1.0))
        self._results = {
            "constant_fraction": float(const.mean()),
            "mean_width": float(widths[~const].mean()) if (~const).any() else 0.0,
            "probed_blocks": int(rows.shape[0]),
            "block_size": int(block),
            "element_bits": int(input_data.dtype.itemsize * 8),
        }
