"""Error-dependent prediction metrics: quantized statistics, sampled
trials, and compressor-internal stage probes.

Everything here depends on error-affecting compressor settings (at
minimum ``pressio:abs``), so the ``predictors:invalidate`` declarations
are ``predictors:error_dependent`` — the evaluator recomputes them when
the bound changes but reuses them across error-agnostic invalidations.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...core.compressor import CompressorPlugin
from ...core.data import PressioData
from ...core.errors import MissingOptionError
from ...core.metrics import ERROR_DEPENDENT, NONDETERMINISTIC, RUNTIME, MetricsPlugin
from ...core.options import PressioOptions
from ...dataset.sampler import sample_blocks
from ...encoding.entropy import huffman_expected_length, quantized_entropy
from ...encoding.huffman import code_lengths


def _huffman_bits_exact(counts: np.ndarray) -> float:
    """Mean bits per value under the Huffman code ``build_code`` would
    make for *counts*: its limited code lengths are all this needs."""
    weights = np.asarray(counts, dtype=np.float64)
    return float((weights * code_lengths(counts)).sum() / weights.sum())


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


class SampledTrialMetric(MetricsPlugin):
    """Tao 2019's trial-based estimate: run the *real* compressor on
    sampled blocks and report the sample compression ratio.

    Runtime-dependent (its cost scales with the compressor) and
    error-dependent; also nondeterministic when the sample seed is drawn
    per call.
    """

    id = "trial"
    invalidations = (ERROR_DEPENDENT, RUNTIME, NONDETERMINISTIC)

    def __init__(
        self,
        compressor: CompressorPlugin,
        *,
        block: int = 8,
        fraction: float = 0.05,
        seed: int = 0,
        **options: Any,
    ) -> None:
        super().__init__(**options)
        self.compressor = compressor
        self.block = int(block)
        self.fraction = float(fraction)
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

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

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


class SZ3StageProbeMetric(MetricsPlugin):
    """Jin 2022 / SECRE-style probe of SZ3's first pipeline stages.

    Runs prediction + quantization (cheap, vectorised; no encoding) and
    summarises the residual-code distribution: its Huffman-efficiency
    estimate, the escape fraction, and the zero-residual fraction.  With
    ``fraction < 1`` only sampled blocks are probed (SECRE's tightly
    coupled sampling); with ``fraction = 1`` the whole array is used
    (Jin's full numerical model).
    """

    id = "sz3probe"
    invalidations = (ERROR_DEPENDENT,)

    def __init__(
        self,
        compressor: CompressorPlugin,
        *,
        fraction: float = 1.0,
        block: int = 8,
        seed: int = 0,
        **options: Any,
    ) -> None:
        super().__init__(**options)
        self.compressor = compressor
        self.fraction = float(fraction)
        self.block = int(block)
        self.seed = int(seed)
        # Sampled and full-data probes are *different observations* of
        # the same stages; distinct ids keep their results from
        # colliding when several schemes share one result namespace.
        if self.fraction < 1.0:
            self.id = "sz3probe_sampled"
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        from ...compressors.sz3 import ESCAPE_LIMIT  # local to avoid cycle

        self.compressor.set_options({"pressio:abs": _abs_bound(options)})
        if self.fraction >= 1.0:
            target = np.asarray(input_data.array, dtype=np.float64)
        else:
            blocks = sample_blocks(
                input_data.array, block=self.block, fraction=self.fraction, seed=self.seed
            )
            side = self.block
            target = blocks.reshape((-1,) + (side,) * input_data.ndim) if blocks.size else blocks
        resid = self.compressor.predict_residuals(target)
        flat = resid.reshape(-1)
        if flat.size == 0:
            self._results = {}
            return
        escape_fraction = float((np.abs(flat) >= ESCAPE_LIMIT).mean())
        inside = flat[np.abs(flat) < ESCAPE_LIMIT]
        if inside.size:
            symbols, counts = np.unique(inside, return_counts=True)
            probs = counts / counts.sum()
            est_bits = huffman_expected_length(probs)
            exact_bits = _huffman_bits_exact(counts)
            table_symbols = int(symbols.size)
            entropy_bits = float(-np.sum(probs * np.log2(probs)))
        else:
            est_bits = exact_bits = entropy_bits = 0.0
            table_symbols = 0
        self._results = {
            "huffman_bits_estimate": est_bits,
            "huffman_bits_exact": exact_bits,
            "entropy_bits": entropy_bits,
            "escape_fraction": escape_fraction,
            "zero_residual_fraction": float((flat == 0).mean()),
            "table_symbols": table_symbols,
            "probed_values": int(flat.size),
            "element_bits": int(input_data.dtype.itemsize * 8),
            "total_values": int(input_data.size),
        }

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


class ZFPStageProbeMetric(MetricsPlugin):
    """SECRE-style probe of the ZFP pipeline on sampled blocks.

    Runs fixed-point conversion, the lifting transform, and coefficient
    quantization on sampled 4^d blocks, then reports the bits/value the
    fixed-width packer would spend — the dominant term of the ZFP stream.
    """

    id = "zfpprobe"
    invalidations = (ERROR_DEPENDENT,)

    def __init__(
        self,
        compressor: CompressorPlugin,
        *,
        fraction: float = 0.05,
        seed: int = 0,
        **options: Any,
    ) -> None:
        super().__init__(**options)
        self.compressor = compressor
        self.fraction = float(fraction)
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        from ...compressors import zfp as zfpmod

        eb = _abs_bound(options)
        d = max(input_data.ndim, 1)
        blocks = sample_blocks(
            input_data.array, block=zfpmod.BLOCK, fraction=self.fraction,
            min_blocks=8, seed=self.seed,
        )
        if blocks.size == 0:
            self._results = {}
            return
        stacked = blocks.reshape((-1,) + (zfpmod.BLOCK,) * d)
        nblocks = stacked.shape[0]
        flat = stacked.reshape(nblocks, -1)
        maxabs = np.abs(flat).max(axis=1)
        exps = np.zeros(nblocks, dtype=np.int64)
        nz = maxabs > 0
        exps[nz] = np.ceil(np.log2(maxabs[nz])).astype(np.int64)
        scale = np.ldexp(1.0, (zfpmod.FRAC_BITS - exps).astype(np.int64))
        fixed = np.round(flat * scale[:, None]).astype(np.int64)
        coeffs = zfpmod.block_transform_forward(
            fixed.reshape(stacked.shape)
        ).reshape(nblocks, -1)
        gain = zfpmod.inverse_gain(d)
        shift = np.floor(
            np.log2(np.maximum(eb * scale / gain, 1.0))
        ).astype(np.int64)
        half = np.where(shift > 0, np.int64(1) << np.maximum(shift - 1, 0), 0)
        q = (coeffs + half[:, None]) >> shift[:, None]
        zz = zfpmod.zigzag(q[:, 1:])
        rowmax = zz.max(axis=1)
        widths = np.zeros(nblocks, dtype=np.int64)
        wnz = rowmax > 0
        widths[wnz] = np.floor(np.log2(rowmax[wnz].astype(np.float64))).astype(np.int64) + 1
        ncoef = flat.shape[1]
        ac_bits = float((widths * (ncoef - 1)).mean())
        # Per-block side-channel cost in the real stream: exponent,
        # shift, width (5 bytes) + amortised DC delta.
        dc_mag = np.abs(np.diff(q[:, 0], prepend=q[0, 0]))
        dc_bits = float(np.log2(dc_mag.astype(np.float64) + 2.0).mean() + 1.0)
        self._results = {
            "ac_bits_per_block": ac_bits,
            "dc_bits_per_block": dc_bits,
            "mean_width": float(widths.mean()),
            "zero_block_fraction": float((~wnz).mean()),
            "probed_blocks": int(nblocks),
            "block_values": int(ncoef),
            "element_bits": int(input_data.dtype.itemsize * 8),
        }

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


class SperrStageProbeMetric(MetricsPlugin):
    """SECRE-style probe of the SPERR-like wavelet pipeline.

    §2.2: SECRE "applies it to two additional compressors SZx ... and to
    SPERR a leading compressor based on wavelets".  The probe runs
    quantization + the multilevel integer wavelet on sampled sub-blocks
    and summarises the coefficient distribution the entropy stage would
    code — the same statistics as the SZ3 probe, measured after a
    different decorrelating stage.
    """

    id = "sperrprobe"
    invalidations = (ERROR_DEPENDENT,)

    def __init__(
        self,
        compressor: CompressorPlugin,
        *,
        fraction: float = 0.05,
        block: int = 16,
        seed: int = 0,
        **options: Any,
    ) -> None:
        super().__init__(**options)
        self.compressor = compressor
        self.fraction = float(fraction)
        self.block = int(block)
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data: PressioData, options: PressioOptions) -> None:
        from ...compressors.sz3 import ESCAPE_LIMIT, quantize
        from ...compressors.wavelet import wavelet_forward

        eb = _abs_bound(options)
        d = max(input_data.ndim, 1)
        blocks = sample_blocks(
            input_data.array, block=self.block, fraction=self.fraction,
            min_blocks=2, seed=self.seed,
        )
        if blocks.size == 0:
            self._results = {}
            return
        side = self.block if blocks.shape[1] == self.block**d else None
        levels = int(self.compressor.get_options().get("sperr:levels", 3))
        coeffs_list = []
        for row in blocks:
            sub = row.reshape((side,) * d) if side else row
            codes = quantize(sub, eb)
            coeffs_list.append(wavelet_forward(codes, levels).reshape(-1))
        flat = np.concatenate(coeffs_list)
        escape_fraction = float((np.abs(flat) >= ESCAPE_LIMIT).mean())
        inside = flat[np.abs(flat) < ESCAPE_LIMIT]
        if inside.size:
            symbols, counts = np.unique(inside, return_counts=True)
            probs = counts / counts.sum()
            exact_bits = _huffman_bits_exact(counts)
            entropy_bits = float(-np.sum(probs * np.log2(probs)))
            table_symbols = int(symbols.size)
        else:
            exact_bits = entropy_bits = 0.0
            table_symbols = 0
        self._results = {
            "huffman_bits_exact": exact_bits,
            "entropy_bits": entropy_bits,
            "escape_fraction": escape_fraction,
            "table_symbols": table_symbols,
            "probed_values": int(flat.size),
            "total_values": int(input_data.size),
            "element_bits": int(input_data.dtype.itemsize * 8),
        }

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))


class SZXStageProbeMetric(MetricsPlugin):
    """Probe SZx's classification on sampled blocks: constant-block
    fraction and the mean non-constant code width."""

    id = "szxprobe"
    invalidations = (ERROR_DEPENDENT,)

    def __init__(
        self,
        compressor: CompressorPlugin,
        *,
        fraction: float = 0.1,
        seed: int = 0,
        **options: Any,
    ) -> None:
        super().__init__(**options)
        self.compressor = compressor
        self.fraction = float(fraction)
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

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
        mat = rows
        hi = mat.max(axis=1)
        span = np.maximum((hi - mat.min(axis=1)) / (2 * eb), 1.0)
        widths = np.ceil(np.log2(span + 1.0))
        self._results = {
            "constant_fraction": float(const.mean()),
            "mean_width": float(widths[~const].mean()) if (~const).any() else 0.0,
            "probed_blocks": int(mat.shape[0]),
            "block_size": int(block),
            "element_bits": int(input_data.dtype.itemsize * 8),
        }

    def get_metrics_results(self) -> PressioOptions:
        return self._prefixed(dict(self._results))
