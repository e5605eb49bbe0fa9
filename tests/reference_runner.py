"""The per-task-fresh collection worker, kept as a test-only oracle.

Until entry-scoped reuse landed, ``ExperimentRunner.run_task`` loaded the
field, built the compressor and built every scheme's evaluator (fresh
metrics, fresh probe clones, empty cache) for each task.  That brute
force is the reference the invalidation-reuse tests compare against: with
nothing kept between tasks, nothing can be reused wrongly.  It is not
importable from ``src/``.
"""

from __future__ import annotations

from typing import Any

from repro.bench.runner import ExperimentRunner
from repro.bench.tasks import Task
from repro.compressors import make_compressor
from repro.core.errors import UnsupportedError
from repro.core.metrics import ErrorStatMetrics, SizeMetrics, TimeMetrics


class BruteForceRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that keeps nothing between tasks."""

    def run_task(self, task: Task, worker: int = 0) -> dict[str, Any]:
        data = self.dataset.load_data(task.data_index)
        eb = float(task.compressor_options["pressio:abs"])
        if self.relative_bounds:
            arr = data.array
            vrange = float(arr.max() - arr.min()) if arr.size else 1.0
            eb = eb * max(vrange, 1e-30)
        comp = make_compressor(task.compressor_id)
        comp.set_options({"pressio:abs": eb})
        payload: dict[str, Any] = {
            "data_id": task.data_id,
            "field": data.metadata.get("field", task.data_id),
            "timestep": data.metadata.get("timestep", 0),
            "compressor": task.compressor_id,
            "bound": float(task.compressor_options["pressio:abs"]),
            "effective_bound": eb,
            "replicate": task.replicate,
        }
        size, timer, err = SizeMetrics(), TimeMetrics(), ErrorStatMetrics()
        comp.set_metrics([size, timer, err])
        stream = comp.compress(data)
        comp.decompress(stream)
        truth = comp.get_metrics_results()
        comp.set_metrics([])
        payload.update({k: v for k, v in truth.items()})
        if truth.get("time:compress"):
            payload["derived:compress_bandwidth"] = (
                truth["size:uncompressed_size"] / truth["time:compress"]
            )
        if truth.get("time:decompress"):
            payload["derived:decompress_bandwidth"] = (
                truth["size:uncompressed_size"] / truth["time:decompress"]
            )
        for scheme in self.schemes:
            try:
                evaluator = scheme.req_metrics_opts(comp)
            except UnsupportedError:
                payload[f"scheme:{scheme.id}:supported"] = False
                continue
            payload[f"scheme:{scheme.id}:supported"] = True
            results = evaluator.evaluate(data)
            payload.update({k: v for k, v in results.items()})
            payload.update(scheme.config_features(comp))
            for bucket, seconds in evaluator.stage_seconds.items():
                payload[f"time:{scheme.id}:{bucket}"] = seconds
        return payload


def comparable(observations) -> dict[tuple, dict[str, Any]]:
    """Observations by task identity, without the columns that are timings
    (``time:*``) or derived from timings (``derived:*``)."""
    out = {}
    for o in observations:
        key = (o["data_id"], o["compressor"], o["bound"], o["replicate"])
        assert key not in out, f"duplicate observation {key}"
        out[key] = {
            k: v for k, v in o.items() if not k.startswith(("time:", "derived:"))
        }
    return out
