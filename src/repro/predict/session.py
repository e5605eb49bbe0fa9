"""High-level prediction sessions — Figure 4 as a convenience API.

The figure's C++ sketch walks: get scheme → get predictor → load prior
state → ask the scheme for the metrics an invalidation set requires →
evaluate → predict.  :class:`PredictionSession` packages that walk with
the evaluator cache held across calls, so an application embedding the
library gets the invalidation reuse without orchestrating it:

    session = PredictionSession.create("rahman2023", "sz3",
                                       options={"pressio:abs": 1e-3})
    session.fit_on(dataset)              # runs the compressor for labels
    cr = session.predict(data)           # metrics cached per data id
    session.set_options({"pressio:abs": 1e-4})   # auto-invalidation
    cr2 = session.predict(data)          # error-agnostic work reused
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..compressors import make_compressor  # imports register the codecs
from ..core.compressor import CompressorPlugin
from ..core.data import PressioData, as_data
from ..core.metrics import SizeMetrics, TimeMetrics, now
from ..core.options import PressioOptions
from .evaluator import ALL_INVALIDATIONS, MetricsEvaluator
from .predictor import PredictorPlugin
from .scheme import SchemePlugin, get_scheme


class PredictionSession:
    """One (scheme, compressor) pairing with persistent metric reuse.

    The session tracks which compressor options changed between calls
    and passes the minimal invalidation set to the evaluator — callers
    just call :meth:`predict`.
    """

    def __init__(
        self,
        scheme: SchemePlugin,
        compressor: CompressorPlugin,
        *,
        state: Mapping[str, Any] | None = None,
    ) -> None:
        scheme.check_supported(compressor)
        self.scheme = scheme
        self.compressor = compressor
        self.predictor: PredictorPlugin = scheme.get_predictor(compressor)
        if state:
            self.predictor.set_options({"predictors:state": dict(state)})
        self.evaluator: MetricsEvaluator = scheme.req_metrics_opts(compressor)
        self._seen_options = compressor.get_options()
        self.timings: dict[str, float] = {}

    # -- construction helpers -------------------------------------------------
    @classmethod
    def create(
        cls,
        scheme_name: str,
        compressor_name: str,
        *,
        options: Mapping[str, Any] | None = None,
        state: Mapping[str, Any] | None = None,
        **scheme_kwargs: Any,
    ) -> "PredictionSession":
        comp = make_compressor(compressor_name)
        if options:
            comp.set_options(PressioOptions(dict(options)))
        return cls(get_scheme(scheme_name, **scheme_kwargs), comp, state=state)

    # -- configuration with change tracking --------------------------------------
    def set_options(self, opts: Mapping[str, Any]) -> None:
        """Update compressor options; changed keys become the next
        evaluation's invalidation set automatically."""
        self.compressor.set_options(PressioOptions(dict(opts)))

    def _changed_keys(self) -> list[str]:
        current = self.compressor.get_options()
        changed = [
            key
            for key in current
            if current.get(key) != self._seen_options.get(key)
        ]
        self._seen_options = current
        return changed

    # -- inference ----------------------------------------------------------------
    def _evaluate_row(self, data: PressioData | np.ndarray) -> dict[str, Any]:
        data = as_data(data)
        changed = self._changed_keys()
        first_time = self.evaluator.computed == 0 and self.evaluator.reused == 0
        results = self.evaluator.evaluate(
            data, changed=ALL_INVALIDATIONS if first_time else changed
        )
        row = results.to_dict()
        row.update(self.scheme.config_features(self.compressor))
        return row

    def predict(self, data: PressioData | np.ndarray) -> float:
        """Predict the scheme's target metric for *data*."""
        start = now()
        row = self._evaluate_row(data)
        value = self.predictor.predict(row)
        self.timings["last_predict_s"] = now() - start
        return float(value)

    def predict_interval(self, data: PressioData | np.ndarray) -> tuple[float, float, float]:
        """(point, lo, hi) for conformal-capable predictors."""
        row = self._evaluate_row(data)
        return self.predictor.predict_interval(row)  # type: ignore[attr-defined]

    # -- training -------------------------------------------------------------------
    def fit_on(
        self,
        dataset: Iterable[PressioData | np.ndarray],
        *,
        bounds: Sequence[float] | None = None,
        relative: bool = True,
    ) -> "PredictionSession":
        """Train the predictor by running the compressor for labels.

        For each entry (× each bound, if given) the session evaluates
        the scheme's metrics, runs the compressor with the standard
        metrics attached (the ``predictors:training`` observations), and
        fits on the realised target.  Training wall time is recorded in
        ``timings`` the way Table 2 accounts it.
        """
        if not self.predictor.needs_training:
            return self
        base_options = self.compressor.get_options()
        rows: list[dict[str, Any]] = []
        targets: list[float] = []
        train_start = now()
        for entry in dataset:
            data = as_data(entry)
            sweep = bounds if bounds is not None else [None]
            for bound in sweep:
                if bound is not None:
                    eb = bound
                    if relative:
                        arr = data.array
                        eb = bound * max(float(arr.max() - arr.min()), 1e-30)
                    self.set_options({"pressio:abs": eb})
                row = self._evaluate_row(data)
                size, timer = SizeMetrics(), TimeMetrics()
                self.compressor.set_metrics([size, timer])
                stream = self.compressor.compress(data)
                self.compressor.decompress(stream)
                truth = self.compressor.get_metrics_results()
                self.compressor.set_metrics([])
                row.update({k: v for k, v in truth.items()})
                if truth.get("time:compress"):
                    row["derived:compress_bandwidth"] = (
                        truth["size:uncompressed_size"] / truth["time:compress"]
                    )
                target = row.get(self.scheme.target_key)
                if target is None:
                    continue
                rows.append(row)
                targets.append(float(target))
        fit_start = now()
        self.predictor.fit(rows, targets)
        self.timings["training_s"] = fit_start - train_start
        self.timings["fit_s"] = now() - fit_start
        self.compressor.set_options(base_options)
        self._seen_options = self.compressor.get_options()
        return self

    # -- state ------------------------------------------------------------------------
    def get_state(self) -> dict[str, Any]:
        """Serialisable predictor state (Figure 4's ``predictors:state``)."""
        return self.predictor.get_state()

    def stats(self) -> dict[str, Any]:
        """Evaluator reuse counters + session timings."""
        return {**self.evaluator.stats(), **self.timings}
