"""Invalidation-aware metric evaluation with caching (Q1 of the paper).

The evaluator owns a set of metric plugins for one compressor and a
cache of their results keyed by ``(metric id, data id, hash of the
options the metric depends on)``.  On each :meth:`evaluate` call only
metrics whose declarations intersect the *changed* set (plus genuine
cache misses) are recomputed — "generically enabling maximum reuse of
previously observed metrics" across repeated predictions with different
bounds, compressors or data.

Validity is carried by the key: ``evaluate(data, changed=())`` serves
every metric whose data and dependency options are unchanged and
computes the rest, so a caller that keeps an evaluator alive across a
bound sweep (the collection worker, the server's featurization) needs
no hand-tracked change-set.

Per-metric wall time is recorded and bucketed into the paper's timing
stages (error-agnostic / error-dependent / runtime), which is exactly
what Table 2's timing columns report: ``stage_seconds`` over the
evaluator's lifetime, ``last_stage_seconds`` for the latest call alone.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..core.compressor import CompressorPlugin
from ..core.data import PressioData, as_data
from ..core.hashing import options_hash
from ..core.metrics import (
    ERROR_AGNOSTIC,
    ERROR_DEPENDENT,
    RUNTIME,
    MetricsPlugin,
    now,
)
from ..core.options import PressioOptions
from .invalidation import dependency_options, is_cacheable, is_invalidated

#: Change-set meaning "everything" — first evaluation of a new setup.
ALL_INVALIDATIONS = (ERROR_AGNOSTIC, ERROR_DEPENDENT, RUNTIME)


def timing_bucket(declared: Sequence[str]) -> str:
    """Which Table-2 timing column a metric's cost belongs to."""
    if ERROR_DEPENDENT in declared:
        return "error_dependent"
    if ERROR_AGNOSTIC in declared:
        return "error_agnostic"
    if RUNTIME in declared:
        return "runtime"
    # Concrete-key-only declarations behave like error-dependent cost.
    return "error_dependent"


class MetricsEvaluator:
    """Evaluate a metric set over data buffers with result reuse."""

    def __init__(
        self,
        compressor: CompressorPlugin,
        metrics: Sequence[MetricsPlugin],
        *,
        cache_nondeterministic: bool = True,
    ) -> None:
        self.compressor = compressor
        self.metrics = list(metrics)
        self.cache_nondeterministic = cache_nondeterministic
        self._cache: dict[tuple[str, str, str], PressioOptions] = {}
        self.computed = 0
        self.reused = 0
        self.stage_seconds: dict[str, float] = {}
        #: Seconds the latest :meth:`evaluate` call spent computing, by
        #: bucket; a bucket served wholly from the cache is absent.
        self.last_stage_seconds: dict[str, float] = {}

    def set_options(self, opts: PressioOptions | dict[str, Any]) -> None:
        """Forward configuration to the compressor (Figure 4's
        ``eval->set_options(comp->get_options())``)."""
        self.compressor.set_options(PressioOptions(dict(opts)))

    # -- evaluation ------------------------------------------------------------
    def evaluate(
        self,
        data: PressioData,
        *,
        changed: Iterable[str] = ALL_INVALIDATIONS,
    ) -> PressioOptions:
        """Compute (or reuse) every metric for *data*.

        ``changed`` is the invalidation set: which options/classes have
        changed since the caller's previous evaluation.  Metrics not
        invalidated *and* present in the cache are served from it.
        """
        data = as_data(data)
        changed = tuple(changed)
        results = PressioOptions()
        options = self.compressor.get_options()
        data_id = data.data_id()
        # Options cannot change inside one call, so metrics sharing a
        # declaration share one dependency hash.
        dependency_hashes: dict[tuple[str, ...], str] = {}
        self.last_stage_seconds = {}
        for metric in self.metrics:
            declared = tuple(metric.invalidations)
            dependency_hash = dependency_hashes.get(declared)
            if dependency_hash is None:
                dependency_hash = dependency_hashes[declared] = options_hash(
                    dependency_options(declared, self.compressor)
                )
            key = (metric.id, data_id, dependency_hash)
            cacheable = is_cacheable(
                declared, cache_nondeterministic=self.cache_nondeterministic
            )
            invalid = is_invalidated(declared, changed, self.compressor)
            if cacheable and not invalid and key in self._cache:
                self.reused += 1
                results.merge(self._cache[key])
                continue
            if cacheable and key in self._cache and invalid:
                del self._cache[key]
            metric.reset()
            start = now()
            metric.begin_compress_impl(data, options)
            elapsed = now() - start
            bucket = timing_bucket(declared)
            self.stage_seconds[bucket] = self.stage_seconds.get(bucket, 0.0) + elapsed
            self.last_stage_seconds[bucket] = (
                self.last_stage_seconds.get(bucket, 0.0) + elapsed
            )
            out = metric.get_metrics_results()
            self.computed += 1
            if cacheable:
                self._cache[key] = out
            results.merge(out)
        return results

    def evaluate_with_compression(self, data: PressioData) -> PressioOptions:
        """Run a full compress/decompress with all metrics attached.

        Used when ``predictors:training`` is requested: training-grade
        metrics (realised CR, error statistics) need the compressor to
        actually run — this *is* the training-time cost of Table 2.
        """
        data = as_data(data)
        self.compressor.set_metrics(self.metrics)
        start = now()
        stream = self.compressor.compress(data)
        self.compressor.decompress(stream)
        self.stage_seconds["training"] = self.stage_seconds.get("training", 0.0) + (
            now() - start
        )
        results = self.compressor.get_metrics_results()
        self.compressor.set_metrics([])
        return results

    # -- introspection -----------------------------------------------------------
    def cache_size(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        self._cache.clear()

    def stats(self) -> dict[str, Any]:
        """Reuse counters and per-stage accumulated seconds."""
        return {
            "computed": self.computed,
            "reused": self.reused,
            "cache_entries": len(self._cache),
            **{f"seconds_{k}": v for k, v in self.stage_seconds.items()},
        }
