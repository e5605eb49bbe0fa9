"""Scheme plugins: the metrics ↔ predictor wiring (§4.2, Figure 4).

A scheme knows, for a given compressor, (1) which metrics must be
computed, (2) how to build a predictor consuming them, and (3) which
result keys feed the predictor — so applications can use a prediction
method without knowing its internals.  ``req_metrics_opts(invalidations)``
returns an evaluator restricted to the metrics an invalidation set
actually touches, which is how Figure 4 avoids recomputing valid values.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core.compressor import CompressorPlugin
from ..core.errors import UnsupportedError
from ..core.metrics import TRAINING, MetricsPlugin
from ..core.options import PressioOptions
from ..core.registry import Registry
from .evaluator import MetricsEvaluator
from .invalidation import is_invalidated
from .predictor import PredictorPlugin

#: Registry of scheme plugins ("tao2019", "rahman2023", ...).
scheme_registry: Registry["SchemePlugin"] = Registry("scheme")


class SchemePlugin:
    """Base class for prediction schemes."""

    id: str = "scheme"

    #: Compressor ids this scheme supports; None means any.
    supported_compressors: frozenset[str] | None = None

    #: The metric-result key the scheme predicts (realised CR by default).
    target_key: str = "size:compression_ratio"

    #: Does using this scheme require a training phase?
    needs_training: bool = False

    def __init__(self, **options: Any) -> None:
        self._options = PressioOptions(
            {k.replace("__", ":"): v for k, v in options.items()}
        )

    # -- capability checks ---------------------------------------------------
    def check_supported(self, compressor: CompressorPlugin) -> None:
        """Raise :class:`UnsupportedError` if the pairing is invalid.

        This is the mechanism behind the paper's Table 2 "N/A" cell:
        the Jin/sian model cannot produce a ZFP predictor.
        """
        if (
            self.supported_compressors is not None
            and compressor.id not in self.supported_compressors
        ):
            raise UnsupportedError(
                f"scheme {self.id!r} does not support compressor {compressor.id!r}"
            )

    # -- the three scheme responsibilities ------------------------------------
    def make_metrics(self, compressor: CompressorPlugin) -> list[MetricsPlugin]:
        """Instantiate the metric plugins this scheme needs."""
        raise NotImplementedError

    def get_predictor(self, compressor: CompressorPlugin) -> PredictorPlugin:
        """Build a predictor for *compressor* (unfitted if trainable)."""
        raise NotImplementedError

    def feature_keys(self) -> list[str]:
        """Metric-result keys consumed by the predictor, in order."""
        raise NotImplementedError

    def config_features(self, compressor: CompressorPlugin) -> dict[str, Any]:
        """Zero-cost features derived from the compressor configuration.

        Schemes whose model takes the error bound as a *model input*
        rather than through error-dependent metrics (FXRZ: all its
        measured features are error-agnostic, Table 2) override this;
        the returned keys are merged into every result row.
        """
        return {}

    # -- evaluator construction (Figure 4's req_metrics_opts) -------------------
    def req_metrics(self, training: bool = False) -> list[str]:
        """Result keys required for inference (plus training extras)."""
        keys = list(self.feature_keys())
        if training:
            keys.append(self.target_key)
        return keys

    def req_metrics_opts(
        self,
        compressor: CompressorPlugin,
        invalidations: Sequence[str] | None = None,
    ) -> MetricsEvaluator:
        """An evaluator over exactly the metrics the invalidation set
        requires (all of them when *invalidations* is None).

        The training-only observations that ``predictors:training``
        names (the realised CR) come from running the compressor, which
        the collection worker does for its ground truth; this evaluator
        runs the metrics only.
        """
        self.check_supported(compressor)
        metrics = self.make_metrics(compressor)
        if invalidations is not None:
            wanted = [
                m
                for m in metrics
                if is_invalidated(tuple(m.invalidations), invalidations, compressor)
            ]
            metrics = wanted
        return MetricsEvaluator(compressor, metrics)

    def wants_training_run(self, invalidations: Sequence[str]) -> bool:
        """True when the caller's set includes ``predictors:training``."""
        return TRAINING in tuple(invalidations)

    # -- configuration -----------------------------------------------------------
    def set_options(self, opts: PressioOptions | dict[str, Any]) -> None:
        self._options.merge(PressioOptions(dict(opts)))

    def get_options(self) -> PressioOptions:
        return self._options.copy()

    def get_configuration(self) -> PressioOptions:
        return PressioOptions(
            {
                "pressio:id": self.id,
                "predictors:needs_training": self.needs_training,
                "predictors:target": self.target_key,
                "predictors:supported_compressors": (
                    sorted(self.supported_compressors)
                    if self.supported_compressors is not None
                    else "any"
                ),
            }
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id!r})"


def get_scheme(name: str, **options: Any) -> SchemePlugin:
    """Look a scheme up in the registry (Figure 4's ``get_scheme``)."""
    return scheme_registry.create(name, **options)


def available_schemes() -> list[str]:
    """Enumerate registered scheme ids."""
    return scheme_registry.names()
