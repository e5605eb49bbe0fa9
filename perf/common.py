"""Shared plumbing of the benchmark: paths, the metric contract, host-speed
calibration and the small statistics every workload uses.

Nothing here imports the program under test except through ``SRC`` being put
on ``sys.path``; the workloads import ``repro`` themselves.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import resource
import sys
import time
from statistics import median
from pathlib import Path

import numpy as np

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

now = time.perf_counter


def require_program() -> None:
    """Put ``src/`` on the import path, or exit non-zero when the checkout
    holds only the benchmark (the driver runs it there too and expects no
    result line)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perf: program source not found under {SRC}; nothing to measure")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_names(names) -> None:
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    if bad:
        raise ValueError(f"names outside [A-Za-z0-9_.-]: {bad}")


# -- statistics ----------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Nearest-rank quantile, the estimator ``ServeStats`` uses: with fewer
    than 1/(1-q) samples it returns the maximum."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return float(ordered[min(int(q * len(ordered)), len(ordered) - 1)])


def peak_rss_mb() -> float:
    """Max RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# -- host-speed calibration ------------------------------------------------------


class HostMeter:
    """How slow the host is right now, relative to a fixed reference.

    The sandbox's cores change speed by a fifth and more from one second to
    the next (co-tenants, SMT siblings), and CPU time moves with wall time,
    so no amount of repetition steadies a raw wall-clock reading.  A fixed
    kernel (an interpreter loop, a table gather and a NumPy sort, the three
    things the program spends its time on) is therefore timed between the
    laps of every workload, and inside the laps that last seconds; a lap's
    wall time divided by the mean slowness over the lap is its time in
    *reference seconds*, which is what the end-to-end metrics report.  The
    kernel lives in the benchmark, so a change to the program cannot move it.
    """

    #: Seconds the kernel takes on the host the baseline was recorded on, in
    #: a quiet moment.  Only ratios between commits matter, so another host
    #: simply reads every metric scaled by one constant.
    REFERENCE_S = 0.0052

    def __init__(self) -> None:
        rng = np.random.default_rng(7)
        self._array = rng.standard_normal(150_000)
        self._table = rng.integers(0, 100, 65_536)
        self._index = rng.integers(0, 65_536, 300_000)
        self._cpus = sorted(os.sched_getaffinity(0))
        #: Every kernel run so far, in seconds.
        self.kernels: list[float] = []
        self._last = 0.0

    def _kernel(self) -> None:
        t0 = now()
        acc = 0
        for i in range(80_000):
            acc += i
        for _ in range(2):
            self._table[self._index].sum()
        np.cumsum(np.sort(self._array))
        self._last = now()
        self.kernels.append(self._last - t0)

    def sample(self) -> None:
        """A boundary sample: a few kernel runs between two laps, shared out
        over the CPUs this process may use (the calling thread is pinned to
        each in turn), because the cores do not slow down together and the
        workloads with a second process keep both busy."""
        try:
            for i in range(4):
                os.sched_setaffinity(0, {self._cpus[i * len(self._cpus) // 4]})
                self._kernel()
        finally:
            os.sched_setaffinity(0, self._cpus)

    def tick(self) -> None:
        """An in-lap sample: one kernel run if none ran for a tenth of a second.
        For laps of seconds, where the boundary samples alone would miss the
        host's changes of speed inside the lap."""
        if now() - self._last >= 0.1:
            self._kernel()

    def slowness(self, since: int = 0) -> float:
        """Mean slowness over the kernel runs from index ``since`` on
        (1.0 = reference speed, 1.2 = a fifth slower)."""
        runs = self.kernels[since:]
        return sum(runs) / len(runs) / self.REFERENCE_S


class Laps:
    """Times consecutive laps of work, a boundary sample between them."""

    def __init__(self, meter: HostMeter) -> None:
        self.meter = meter
        self._since = len(meter.kernels)
        meter.sample()

    def time(self, fn):
        """Run ``fn()``; return ``(result, wall_s, slowness)``: the lap's wall
        time less the in-lap ticks it contains, and the host's mean slowness
        from the sample before the lap to the sample after it."""
        first_tick = len(self.meter.kernels)
        t0 = now()
        result = fn()
        wall = now() - t0 - sum(self.meter.kernels[first_tick:])
        next_since = len(self.meter.kernels)
        self.meter.sample()
        slowness = self.meter.slowness(self._since)
        self._since = next_since
        return result, wall, slowness


# -- one run of one workload -----------------------------------------------------


class Run:
    """State of one ``--workload`` run: inputs, instruments and findings.

    A workload's ``run(ctx)`` fills ``end_to_end`` (with ``--trace 0``) or
    ``per_layer`` (with ``--trace 1``), counts ``attempted``/``failed``
    operations, and calls :meth:`breach` for every correctness failure.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, import_s: float) -> None:
        from spans import Tracer  # perf/ is sys.path[0] when run.py is the script

        self.workload = workload
        self.seed = abs(int(seed))  # NumPy generators take no negative seed
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.smoke = bool(smoke)
        self.workdir = OUT / f"work-{workload}"
        self.meter = HostMeter()
        self.tracer = Tracer(OUT / f"trace-{workload}.jsonl") if trace else None
        self.import_s = import_s
        self.setup_s = 0.0
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.breaches: list[str] = []
        self.info: dict = {}

    def breach(self, message: str) -> None:
        self.breaches.append(message)

    def span(self, name: str, trace: str | None = None, on: bool = True):
        """A tracer span when this lap is traced, else a no-op context."""
        if self.tracer is not None and on:
            return self.tracer.span(name, trace)
        return contextlib.nullcontext()

    def laps(self, one_lap) -> list:
        """Call ``one_lap(index, traced)`` until ``--seconds`` is used up and
        return what it returned.  With ``--trace 1`` every second lap runs
        with the span wrappers installed and the others bare, so one run
        holds both sides of the tracing-overhead comparison.  Another lap
        starts only while one as long as the longest so far still fits."""
        start, longest, results = now(), 0.0, []
        while len(results) < (2 if self.trace else 1) or now() - start + longest <= self.seconds:
            traced = self.trace and len(results) % 2 == 1
            t0 = now()
            with self.tracer.installed() if traced else contextlib.nullcontext():
                results.append(one_lap(len(results), traced))
            longest = max(longest, now() - t0)
        return results

    def time_setup(self, build, discard=lambda product: None):
        """Build the workload's inputs three times (once in a smoke run) and
        keep the last.

        ``setup_s`` is the import time plus the median build time, both in
        reference seconds; the first build pays the lazy imports and cold
        caches the median leaves out, which is why it is built more than once.
        """
        self.meter.sample()
        slowness = self.meter.slowness()
        walls = []
        product = None
        for _ in range(1 if self.smoke else 3):
            if product is not None:
                discard(product)
            product, wall, factor = Laps(self.meter).time(build)
            walls.append(wall / factor)
        self.setup_s = self.import_s / slowness + median(walls)
        self.info["setup_builds_s"] = walls
        return product

    def time_e2e(self, ops_per_s: float, latencies_ms, tail: float) -> None:
        """The metrics every workload reports with ``--trace 0``.  ``tail`` is
        the quantile the workload's sample count supports: 0.99 over the
        thousands of round trips of a serve run, 0.90 over the tens of laps
        of a campaign run, where a p99 would be the single slowest lap."""
        self.end_to_end = {
            "setup_s": self.setup_s,
            "ops_per_s": ops_per_s,
            "latency_p50_ms": median(latencies_ms),
            "latency_tail_ms": quantile(latencies_ms, tail),
            "peak_rss_mb": peak_rss_mb(),
        }
        self.info["latency_samples"] = len(latencies_ms)
