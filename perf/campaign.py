"""The campaign path: ``collect()`` through the checkpoint, then Table 2.

Two workloads share this file because they run the same code with opposite
sizes.  ``campaign_compute`` has few large fields on the serial engine, so
the dataset, compressor, encoding, predict-metric and mlkit layers do the
work and the harness almost none.  ``campaign_many_small`` has thousands of
tiny tasks on two worker processes, so fixed per-task cost, queue dispatch
and the checkpoint dominate; its resume passes read the store the cold pass
wrote, so a write-path gain that costs reads shows.

A run repeats one fixed, seeded cycle of work until ``--seconds`` is used up
(identical work every cycle, so the median is over timing alone); with
``--trace 1`` every second cycle runs with the span wrappers installed.
"""

from __future__ import annotations

import math
import time

import numpy as np

from common import Laps, Run, median, now

from repro.bench import runner as runner_module
from repro.bench.checkpoint import CheckpointStore
from repro.bench.report import format_table2
from repro.bench.runner import ExperimentRunner
from repro.bench.taskqueue import TaskQueue
from repro.core.compressor import CompressorPlugin
from repro.dataset.hurricane import HurricaneDataset
from repro.predict.evaluator import MetricsEvaluator
from repro.predict.predictor import PredictorPlugin
from repro.predict.scheme import SchemePlugin
from repro.predict.schemes.fxrz import FXRZPredictor

#: Two sparse moisture species and three dense dynamics fields: the paper's
#: sparse/dense mix in a cycle short enough to repeat within one run.
COMPUTE_FIELDS = ["CLOUD", "QRAIN", "P", "U", "W"]
BASE_DATASET_SEED = 20230912
_F32_HALF_ULP = float(np.finfo(np.float32).eps) / 2.0


def _dataset(ctx: Run, shape, n_timesteps: int, fields=None) -> HurricaneDataset:
    """Seeded inputs: the seed moves the noise fields and the storm's place on
    its track, not the amount of work."""
    first = 6 + ctx.seed % 12
    stride = max(1, 36 // n_timesteps)
    steps = [first + stride * k for k in range(n_timesteps)]
    return HurricaneDataset(shape=shape, timesteps=steps, fields=fields,
                            seed=BASE_DATASET_SEED + ctx.seed)


def _warm_up(ctx: Run) -> None:
    """An 8-task campaign through to the table, so lazy imports and first-call
    costs fall in set-up, not in the first timed cycle."""
    ds = _dataset(ctx, (16, 16, 8), 1, fields=["CLOUD", "U"])
    runner = ExperimentRunner(ds)
    format_table2(runner.table2(runner.collect().observations))


def register_spans(tracer) -> None:
    """The layer boundaries of the campaign path, by public callable."""
    key16 = lambda key: key[:16]  # noqa: E731
    tracer.target(ExperimentRunner, "run_task", "task",
                  trace_of=lambda self, task, worker=0: key16(task.key()))
    tracer.target(HurricaneDataset, "load_data", "dataset.load",
                  attrs_of=lambda a, k, data: {"data_id": data.metadata["data_id"],
                                               "bytes": int(data.nbytes)})
    tracer.target(ExperimentRunner, "build_tasks", "core.task_hash")
    tracer.target(runner_module, "make_compressor", "core.make_compressor")
    tracer.target(CompressorPlugin, "set_options", "core.make_compressor")
    tracer.target(CompressorPlugin, "compress",
                  lambda self, *a, **k: f"compressors.{self.id}.compress")
    tracer.target(CompressorPlugin, "decompress",
                  lambda self, *a, **k: f"compressors.{self.id}.decompress")
    tracer.target(SchemePlugin, "req_metrics_opts", "predict.req_metrics")
    tracer.target(MetricsEvaluator, "evaluate", "predict.evaluate", leaf=True)
    tracer.target(TaskQueue, "run", "bench.queue")
    tracer.target(CheckpointStore, "put", "bench.checkpoint.put",
                  trace_of=lambda self, key, *a, **k: key16(key))
    tracer.target(CheckpointStore, "flush", "bench.checkpoint.put")
    tracer.target(CheckpointStore, "verify", "bench.checkpoint.verify")
    tracer.target(CheckpointStore, "pending", "bench.checkpoint.pending")
    tracer.target(CheckpointStore, "get", "bench.checkpoint.read",
                  trace_of=lambda self, key: key16(key))
    tracer.target(ExperimentRunner, "table2", "bench.report")
    tracer.target(FXRZPredictor, "fit", "mlkit.fit")
    tracer.target(FXRZPredictor, "predict_many", "mlkit.inference")
    tracer.target(PredictorPlugin, "predict_many", "predict.formula")


# -- correctness ---------------------------------------------------------------------


def bound_violations(observations) -> int:
    """Observations whose max error exceeds the effective bound by more than
    the half-ulp a float32 reconstruction may add at the field's magnitude."""
    bad = 0
    for o in observations:
        magnitude = max(abs(o["error_stat:min"]), abs(o["error_stat:max"]))
        if o["error_stat:max_error"] > o["effective_bound"] + _F32_HALF_ULP * magnitude:
            bad += 1
    return bad


def check_table(ctx: Run, rows) -> None:
    if len(rows) != 8:
        ctx.breach(f"Table 2 has {len(rows)} rows, expected 8")
    for row in rows:
        if row.method != row.compressor and row.supported and not math.isfinite(row.medape_pct):
            ctx.breach(f"MedAPE of {row.compressor}/{row.method} is not finite")


# -- the cycles ----------------------------------------------------------------------


class Cycle:
    """What one cycle measured.  ``*_wall`` is seconds read off the clock,
    ``*_ref`` the same in reference seconds (see ``common.HostMeter``)."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.collect_wall = self.collect_ref = 0.0
        self.total_wall = self.total_ref = 0.0
        self.resume_wall: list[float] = []
        self.resume_ref: list[float] = []
        self.completed = 0
        self.violations = 0
        self.stats = None
        self.observations: list = []
        self.rows: list = []


def _collect(ctx: Run, cycle: Cycle, ds, queue, path, *, flush_every=1, replicates=1):
    """One ``collect()`` on a fresh handle of the store at ``path``."""
    store = CheckpointStore(str(path), flush_every=flush_every)
    runner = ExperimentRunner(ds, store=store, queue=queue, replicates=replicates)
    task_fn = None
    if queue.engine == "serial":
        # The serial engine runs tasks in this process for seconds on end, so
        # the host-speed kernel is run between tasks, through collect()'s own
        # task_fn parameter; Laps.time() takes its time back out of the wall.
        def task_fn(task, worker):
            payload = runner.run_task(task, worker)
            with ctx.span("perf.calibrate", on=cycle.traced):
                ctx.meter.tick()
            return payload

    try:
        t0 = now()
        with ctx.span("collect", on=cycle.traced):
            result = runner.collect(task_fn=task_fn)
        wall = now() - t0
    finally:
        runner.close()
        store.close()
    ctx.attempted += result.stats.completed + result.stats.failed
    ctx.failed += result.stats.failed
    return runner, result, wall


def compute_cycle(ctx: Run, laps: Laps, ds, index: int, traced: bool) -> Cycle:
    cycle = Cycle(traced)
    path = ctx.workdir / f"cycle{index}.db"
    with ctx.span("cycle", f"cycle-{index}", on=traced):
        (runner, result, _), wall, slowness = laps.time(
            lambda: _collect(ctx, cycle, ds, TaskQueue(1, "serial"), path))
        cycle.collect_wall, cycle.collect_ref = wall, wall / slowness

        def report():
            cycle.rows = runner.table2(result.observations)
            with ctx.span("bench.report", on=traced):
                format_table2(cycle.rows, harness=result.stats)

        _, wall, slowness = laps.time(report)
    cycle.total_wall = cycle.collect_wall + wall
    cycle.total_ref = cycle.collect_ref + wall / slowness
    cycle.completed, cycle.stats = result.stats.completed, result.stats
    cycle.observations = result.observations
    return cycle


def many_small_cycle(ctx: Run, laps: Laps, ds, index: int, traced: bool, sizes: dict) -> Cycle:
    cycle = Cycle(traced)
    path = ctx.workdir / f"cycle{index}.db"
    expected = len(ds) * 4 * sizes["replicates"]
    kw = {"flush_every": 32, "replicates": sizes["replicates"]}
    with ctx.span("cycle", f"cycle-{index}", on=traced):
        (_, result, _), wall, slowness = laps.time(
            lambda: _collect(ctx, cycle, ds, TaskQueue(2, "process"), path, **kw))
        cycle.collect_wall, cycle.collect_ref = wall, wall / slowness
        cycle.completed, cycle.stats = result.stats.completed, result.stats
        cycle.observations = result.observations

        def resume():
            for _ in range(sizes["resume_passes"]):
                _, resumed, wall = _collect(ctx, cycle, ds, TaskQueue(2, "process"), path, **kw)
                cycle.resume_wall.append(wall)
                if resumed.stats.completed or len(resumed.observations) != expected:
                    ctx.breach(f"resume pass re-ran {resumed.stats.completed} task(s) and "
                               f"loaded {len(resumed.observations)} of {expected} rows")

        _, wall, slowness = laps.time(resume)
    cycle.resume_ref = [w / slowness for w in cycle.resume_wall]
    cycle.total_wall = cycle.collect_wall + wall
    cycle.total_ref = cycle.collect_ref + wall / slowness
    return cycle


def _run_cycles(ctx: Run, one_cycle) -> list[Cycle]:
    """Repeat ``one_cycle(laps, index, traced)`` until the run's time is used."""
    laps = Laps(ctx.meter)

    def lap(index: int, traced: bool) -> Cycle:
        cycle = one_cycle(laps, index, traced)
        cycle.violations = bound_violations(cycle.observations)
        if cycle.violations:
            ctx.breach(f"cycle {index}: {cycle.violations} observation(s) exceed their bound")
        if not traced:
            # Only the traced cycles' observations are read again (by
            # layers.py); keeping the rest would grow peak RSS with the
            # number of cycles the host happened to have time for.
            cycle.observations = []
        for path in ctx.workdir.glob("cycle*.db*"):
            path.unlink()
        return cycle

    return ctx.laps(lap)


def run_compute(ctx: Run) -> None:
    shape = (16, 16, 8) if ctx.smoke else (64, 64, 32)

    def build():
        _warm_up(ctx)
        return _dataset(ctx, shape, 1, fields=COMPUTE_FIELDS)

    ds = ctx.time_setup(build)
    cycles = _run_cycles(ctx, lambda laps, i, traced: compute_cycle(ctx, laps, ds, i, traced))
    for cycle in cycles:
        check_table(ctx, cycle.rows)
        if cycle.completed != len(ds) * 4:
            ctx.breach(f"cycle completed {cycle.completed} of {len(ds) * 4} tasks")
    ctx.info.update(shape=list(shape), fields=COMPUTE_FIELDS, tasks_per_cycle=len(ds) * 4,
                    field_bytes=int(np.prod(shape)) * 4, cycles=len(cycles))
    _report(ctx, cycles, lambda c: [c.total_ref], lambda c: [c.total_wall])


def run_many_small(ctx: Run) -> None:
    # Cold passes of about a second: the two workers keep both cores busy, so
    # the host's speed can only be sampled between passes, not inside one.
    sizes = ({"timesteps": 2, "replicates": 1, "resume_passes": 2} if ctx.smoke
             else {"timesteps": 4, "replicates": 2, "resume_passes": 5})

    def build():
        _warm_up(ctx)
        return _dataset(ctx, (8, 8, 8), sizes["timesteps"])

    ds = ctx.time_setup(build)
    cycles = _run_cycles(
        ctx, lambda laps, i, traced: many_small_cycle(ctx, laps, ds, i, traced, sizes))
    tasks = len(ds) * 4 * sizes["replicates"]
    for cycle in cycles:
        if cycle.completed != tasks:
            ctx.breach(f"cold pass completed {cycle.completed} of {tasks} tasks")
    ctx.info.update(shape=[8, 8, 8], tasks_per_cycle=tasks, field_bytes=8 * 8 * 8 * 4,
                    cycles=len(cycles), **sizes)
    _report(ctx, cycles, lambda c: c.resume_ref, lambda c: c.resume_wall)
    # Leave the host as it was found.  After both cores have been saturated
    # this sandbox answers cross-process wake-ups slowly for about as long
    # again (serve_rows run straight after this workload loses a fifth of its
    # throughput and gains half on its p99), whatever the kernel of HostMeter
    # reads.  The cold passes are the only thing in the benchmark that
    # saturates both cores, so they pay: idle for three quarters of their time.
    time.sleep(0.75 * sum(c.collect_wall for c in cycles))


def _report(ctx: Run, cycles: list[Cycle], latencies_ref, latencies_wall) -> None:
    if not ctx.trace:
        ctx.time_e2e(
            ops_per_s=median(c.completed / c.collect_ref for c in cycles),
            latencies_ms=[s * 1e3 for c in cycles for s in latencies_ref(c)],
            tail=0.90,
        )
        ctx.info.update(
            wall_ops_per_s=median(c.completed / c.collect_wall for c in cycles),
            wall_latency_p50_ms=median(s * 1e3 for c in cycles for s in latencies_wall(c)),
        )
        return
    import layers

    layers.campaign(ctx, cycles)
