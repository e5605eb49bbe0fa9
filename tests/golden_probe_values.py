"""Golden fixture definitions for the compressor-internal probe metrics.

The stage probes (``sz3probe``, ``zfpprobe``, ``sperrprobe``,
``szxprobe``), the sampled trial and ZPerf's per-order probe are the
error-dependent features of Table 2's white-box schemes: a probe that
re-derives a stage differently from the codec it models shifts every
prediction built on it without failing anything.  This module pins the
*values* they report:

* a seeded Hurricane campaign slice whose every axis is at least 16, so
  every probe samples whole blocks (an axis shorter than a probe block
  is the separate short-axis contract of ``tests/test_probe_matrix.py``);
* every probe at two value-range-relative bounds.

``tests/golden/probe_values_v1.json`` must not be regenerated to paper
over a diff: a diff means a probe no longer observes the stage it
observed before.  The entry point::

    PYTHONPATH=src python -m tests.golden_probe_values
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Callable

import repro.compressors  # noqa: F401  (registers the plugins)
from repro.core.compressor import make_compressor
from repro.core.data import as_data
from repro.core.metrics import MetricsPlugin
from repro.core.options import PressioOptions
from repro.dataset import HurricaneDataset
from repro.predict.metrics.probes import (
    SampledTrialMetric,
    SperrStageProbeMetric,
    SZ3StageProbeMetric,
    SZXStageProbeMetric,
    ZFPStageProbeMetric,
)
from repro.predict.schemes.analytic import ZPerfProbeMetric

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "probe_values_v1.json")

#: Value-range-relative bounds every probe is pinned at.
RELATIVE_BOUNDS = (1e-3, 1e-5)

#: (name, factory) — each factory builds the probe around a fresh codec.
PROBES: tuple[tuple[str, Callable[[], MetricsPlugin]], ...] = (
    ("sz3_full", lambda: SZ3StageProbeMetric(make_compressor("sz3"), fraction=1.0)),
    ("sz3_full_interp", lambda: SZ3StageProbeMetric(
        make_compressor("sz3", sz3__predictor="interp"), fraction=1.0)),
    ("sz3_sampled", lambda: SZ3StageProbeMetric(make_compressor("sz3"), fraction=0.05)),
    ("zfp", lambda: ZFPStageProbeMetric(make_compressor("zfp"), fraction=0.05)),
    ("sperr", lambda: SperrStageProbeMetric(make_compressor("sperr"), fraction=0.05)),
    ("szx", lambda: SZXStageProbeMetric(make_compressor("szx"), fraction=0.1)),
    ("trial_sz3", lambda: SampledTrialMetric(make_compressor("sz3"))),
    ("trial_zfp", lambda: SampledTrialMetric(make_compressor("zfp"))),
    ("zperf", lambda: ZPerfProbeMetric(make_compressor("sz3"), fraction=0.1)),
)


def golden_dataset() -> HurricaneDataset:
    """Three fields at one timestep, every axis >= 16."""
    return HurricaneDataset(
        shape=(32, 24, 16), timesteps=[3], fields=["P", "U", "QVAPOR"], seed=20230912
    )


def _plain(value: Any) -> Any:
    """JSON-stable form of one metric result (NumPy scalars unwrapped)."""
    value = value.item() if hasattr(value, "item") else value
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def probe_results(metric: MetricsPlugin, array, abs_bound: float) -> dict[str, Any]:
    """What one probe reports for *array* at *abs_bound*."""
    metric.begin_compress_impl(as_data(array), PressioOptions({"pressio:abs": abs_bound}))
    return {key: _plain(value) for key, value in metric.get_metrics_results().items()}


def current() -> dict[str, Any]:
    """Every pinned probe value, recomputed by the code under test."""
    ds = golden_dataset()
    out: dict[str, Any] = {}
    for index in range(len(ds)):
        field, step = ds.entry(index)
        array = ds.load_data(index).array
        vrange = float(array.max()) - float(array.min())
        for rel in RELATIVE_BOUNDS:
            abs_bound = rel * max(vrange, 1e-30)
            for name, factory in PROBES:
                key = f"{field}_t{step}/{rel:g}/{name}"
                out[key] = probe_results(factory(), array, abs_bound)
    return out


def load() -> dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def regen() -> str:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(current(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return GOLDEN_PATH


if __name__ == "__main__":
    print(regen())
