"""Analytic/model-based schemes: Jin 2022 (ratio-quality) and
Wang 2023 (ZPerf counterfactual stage decomposition).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ...core.compressor import CompressorPlugin, clone_compressor
from ...core.data import as_data
from ...core.errors import PressioError
from ...core.metrics import MetricsPlugin
from ...mlkit.linear import LinearRegression
from ..metrics.probes import SZ3StageProbeMetric
from ..predictor import EstimatorPredictor, IdentityPredictor, PredictorPlugin
from ..scheme import SchemePlugin, scheme_registry


def estimate_sz3_stream_bits(
    huffman_bits: float,
    escape_fraction: float,
    table_symbols: float,
    total_values: float,
    *,
    entropy_bits: float | None = None,
    lossless_factor: float = 0.9,
    escape_bits: float = 16.0,
    table_bits: float = 20.0,
    header_bytes: float = 120.0,
    floor_bits: float = 0.02,
) -> float:
    """Per-value stream bits from the SZ3 stage statistics.

    The per-stage cost model behind both Jin 2022 and the SZ3 branch of
    SECRE:

    * the Huffman payload, bounded by ``min(λ·L_huff, H)`` — the final
      lossless pass removes ~10% of an already entropy-coded stream and,
      crucially, recovers the *fractional* bits Huffman cannot express:
      a near-degenerate code distribution (a sparse field whose
      residuals are almost all zero) yields a nearly-constant bit stream
      that DEFLATE collapses towards its Shannon entropy ``H``;
    * the escape side channel (raw int64 escapes compress to roughly
      ``escape_bits`` each — their high bytes are shared);
    * the canonical code table (sorted symbols + lengths compress to
      about ``table_bits`` per entry);
    * fixed stream headers (``header_bytes``), which matter exactly when
      everything else has collapsed.

    Constants are calibrated once against the codec, the way Jin's model
    hard-codes Huffman/zstd efficiency terms for SZ.
    """
    total = max(total_values, 1.0)
    payload = huffman_bits * lossless_factor
    if entropy_bits is not None:
        payload = min(payload, entropy_bits)
    return (
        max(payload, floor_bits)
        + escape_fraction * escape_bits
        + table_symbols * table_bits / total
        + header_bytes * 8.0 / total
    )


def _jin_formula(lossless_factor: float):
    """Jin 2022's numerical CR model for prediction-based compression.

    CR = element_bits / estimated_stream_bits_per_value over the *full*
    quantization-code distribution — "offering theoretical analysis
    encompassing Huffman encoding efficiency and subsequent lossless
    encoding efficiency".
    """

    def formula(results: Mapping[str, Any]) -> float:
        est = estimate_sz3_stream_bits(
            float(results["sz3probe:huffman_bits_exact"]),
            float(results["sz3probe:escape_fraction"]),
            float(results["sz3probe:table_symbols"]),
            float(results["sz3probe:total_values"]),
            entropy_bits=float(results.get("sz3probe:entropy_bits", 0.0) or 0.0)
            if "sz3probe:entropy_bits" in results
            else None,
            lossless_factor=lossless_factor,
        )
        src_bits = float(results["sz3probe:element_bits"])
        return src_bits / max(est, 0.02)

    return formula


@scheme_registry.register("jin2022")
class Jin2022Scheme(SchemePlugin):
    """Jin 2022 ("sian"): full-data ratio-quality model, SZ3 only.

    Non-black-box, no training, goal: fast *per use* but the probe runs
    the prediction+quantization stages over the **entire array** (unlike
    SECRE's sampling), so its error-dependent stage is the slowest of
    the three ported schemes (Table 2: 518 ms).  It "does so well on the
    SZ3 compressor because in part it uses parts of the first few stages
    of the SZ3 compressor and excludes the more expensive encoding
    stages" (§6); ZFP is unsupported (Table 2: N/A).
    """

    id = "jin2022"
    needs_training = False
    supported_compressors = frozenset({"sz3"})

    def __init__(self, *, lossless_factor: float = 0.9, **options: Any) -> None:
        super().__init__(**options)
        self.lossless_factor = float(lossless_factor)

    def make_metrics(self, compressor: CompressorPlugin) -> list[MetricsPlugin]:
        self.check_supported(compressor)
        return [SZ3StageProbeMetric(clone_compressor(compressor), fraction=1.0)]

    def feature_keys(self) -> list[str]:
        return [
            "sz3probe:huffman_bits_exact",
            "sz3probe:escape_fraction",
            "sz3probe:zero_residual_fraction",
        ]

    def get_predictor(self, compressor: CompressorPlugin) -> PredictorPlugin:
        self.check_supported(compressor)
        return IdentityPredictor(formula=_jin_formula(self.lossless_factor))


class CounterfactualPredictor(EstimatorPredictor):
    """ZPerf's capability: predict configurations that were never run.

    The stage decomposition makes the *predictor stage* swappable: the
    probe measures the residual-code distribution under each candidate
    Lorenzo order, and the calibrated encoding+lossless model maps any
    of them to a CR.  ``predict`` uses the configured order;
    :meth:`predict_counterfactual` asks "what if the compressor used a
    different predictor stage" without running that compressor.
    """

    id = "zperf"

    def __init__(self, orders: tuple[int, ...] = (0, 1, 2), **kwargs: Any) -> None:
        self.orders = tuple(orders)
        feature_keys = [f"zperf:bits_order{o}" for o in self.orders]
        super().__init__(
            LinearRegression(),
            feature_keys,
            log_target=True,
            **kwargs,
        )
        self._active_order = 1

    def set_active_order(self, order: int) -> None:
        if order not in self.orders:
            raise PressioError(f"zperf probe did not cover order {order}")
        self._active_order = int(order)

    def design_matrix(self, rows):  # type: ignore[override]
        # One feature: the probed bits under the *active* order, plus the
        # escape fraction under that order.
        out = np.empty((len(rows), 2), dtype=np.float64)
        for i, r in enumerate(rows):
            out[i, 0] = float(r[f"zperf:bits_order{self._active_order}"])
            out[i, 1] = float(r[f"zperf:escape_order{self._active_order}"])
        return out

    def predict_counterfactual(self, results: Mapping[str, Any], order: int) -> float:
        """CR estimate under a hypothetical predictor stage."""
        saved = self._active_order
        try:
            self.set_active_order(order)
            return self.predict(results)
        finally:
            self._active_order = saved

    def get_state(self) -> dict[str, Any]:
        # The active order selects which probed column the design matrix
        # reads — without it a restored model silently predicts for
        # whatever order the fresh instance defaulted to.
        state = super().get_state()
        if state:
            state["orders"] = tuple(self.orders)
            state["active_order"] = int(self._active_order)
        return state

    def set_state(self, state: dict[str, Any]) -> None:
        super().set_state(state)
        if not state:
            return
        if "orders" in state:
            self.orders = tuple(int(o) for o in state["orders"])
        if "active_order" in state:
            self.set_active_order(int(state["active_order"]))


class ZPerfProbeMetric(MetricsPlugin):
    """Probe SZ3 residual statistics under every candidate Lorenzo order
    (sampled), producing the per-stage features ZPerf's model consumes."""

    id = "zperf"
    invalidations = ("predictors:error_dependent",)

    def __init__(self, compressor: CompressorPlugin, *, orders: tuple[int, ...] = (0, 1, 2),
                 fraction: float = 0.1, seed: int = 0, **options: Any) -> None:
        super().__init__(**options)
        self.compressor = compressor
        self.orders = tuple(orders)
        self.fraction = float(fraction)
        self.seed = int(seed)
        self.reset()

    def reset(self) -> None:
        self._results: dict[str, Any] = {}

    def begin_compress_impl(self, input_data, options) -> None:
        from ...compressors.sz3 import ESCAPE_LIMIT, lorenzo_forward, quantize
        from ...dataset.sampler import sample_blocks
        from ...encoding.entropy import huffman_expected_length

        data = as_data(input_data)
        eb = float(options.get("pressio:abs"))
        blocks = sample_blocks(data.array, block=8, fraction=self.fraction, seed=self.seed)
        codes = quantize(blocks, eb)
        out: dict[str, Any] = {"element_bits": int(data.dtype.itemsize * 8)}
        for order in self.orders:
            resid = lorenzo_forward(codes, order).reshape(-1)
            esc = float((np.abs(resid) >= ESCAPE_LIMIT).mean()) if resid.size else 0.0
            inside = resid[np.abs(resid) < ESCAPE_LIMIT]
            if inside.size:
                _, counts = np.unique(inside, return_counts=True)
                bits = huffman_expected_length(counts / counts.sum())
            else:
                bits = 0.0
            out[f"bits_order{order}"] = bits
            out[f"escape_order{order}"] = esc
        self._results = out

    def get_metrics_results(self):
        return self._prefixed(dict(self._results))


@scheme_registry.register("wang2023")
class Wang2023Scheme(SchemePlugin):
    """Wang 2023 (ZPerf): trained gray-box stage model with
    counterfactual analysis for compressors that were never run (§2.2).
    """

    id = "wang2023"
    needs_training = True
    supported_compressors = frozenset({"sz3"})

    def __init__(self, *, fraction: float = 0.1, seed: int = 0, **options: Any) -> None:
        super().__init__(**options)
        self.fraction = float(fraction)
        self.seed = int(seed)

    def make_metrics(self, compressor: CompressorPlugin) -> list[MetricsPlugin]:
        self.check_supported(compressor)
        return [
            ZPerfProbeMetric(
                clone_compressor(compressor), fraction=self.fraction, seed=self.seed
            )
        ]

    def feature_keys(self) -> list[str]:
        return [f"zperf:bits_order{o}" for o in (0, 1, 2)] + [
            f"zperf:escape_order{o}" for o in (0, 1, 2)
        ]

    def get_predictor(self, compressor: CompressorPlugin) -> PredictorPlugin:
        self.check_supported(compressor)
        predictor = CounterfactualPredictor()
        predictor.set_active_order(compressor.predictor_order())  # type: ignore[attr-defined]
        return predictor
