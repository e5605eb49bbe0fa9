"""The query path: two closed-loop clients against a one-worker ``ServeFleet``.

Closed loop, because the callers the paper has in mind (autotuners, what-if
drivers) wait for each reply before they ask again.  ``serve_rows`` sends
precomputed metric rows, so featurization is bypassed and the wire, the
micro-batch window and ``predict_many`` are the whole cost.  ``serve_whatif``
sends fresh raw fields and asks each at both published bounds of an
error-agnostic and an error-dependent scheme, so decode, the scheme
evaluators and the featurization cache dominate, and the cache hit share is
1/4 by construction.

Set-up is a small campaign, ``publish()`` and the fleet start.  Traffic runs
in half-second phases with a host-speed sample between them; with
``--trace 1`` every second phase runs with the client wrappers installed.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import threading
import warnings

import numpy as np

from common import Laps, Run, median, now

from repro.bench.runner import ExperimentRunner
from repro.core.data import as_data
from repro.dataset.hurricane import HurricaneDataset
from repro.serve import ModelRegistry, PredictionClient, ServeFleet, encode_array

CLIENTS = 2
PHASE_S = 0.5
SAMPLE_CHECKS = 50
WHATIF_SCHEMES = ("rahman2023", "khan2023")  # error-agnostic, then error-dependent
BASE_DATASET_SEED = 20230912


class CountingClient(PredictionClient):
    """A client that counts its round trips and keeps the last reply's
    server-side timer wait, through the public ``request`` method.

    The micro-batch window is a timer: the time a request waits for it does
    not stretch when the host slows down, so it is left out of the share of a
    round trip that is divided by the host's slowness.  A ``need_data`` reply
    carries no timings, so a resent query is charged its final reply's wait
    once per round trip.
    """

    round_trips = 0
    queue_wait_s = 0.0

    def request(self, payload):
        reply = super().request(payload)
        self.round_trips += 1
        self.queue_wait_s = reply.get("timings", {}).get("queue_wait_ms", 0.0) / 1e3
        return reply


class Service:
    """A published registry with a live fleet in front of it."""

    def __init__(self, ctx: Run, generation: int) -> None:
        self.root = ctx.workdir / f"registry-{generation}"
        self.cache_dir = ctx.workdir / f"featcache-{generation}"
        first = 6 + ctx.seed % 12
        ds = HurricaneDataset(shape=(16, 16, 8), timesteps=[first, first + 18],
                              seed=BASE_DATASET_SEED + ctx.seed)
        runner = ExperimentRunner(ds)
        self.observations = runner.collect().observations
        with warnings.catch_warnings():
            # jin2022 does not support zfp, so publish() warns that it skips it.
            warnings.simplefilter("ignore")
            self.receipts = runner.publish(ModelRegistry(str(self.root)), self.observations)
        t0 = now()
        self.fleet = ServeFleet(str(self.root), workers=1, feat_cache="shared",
                                feat_cache_dir=str(self.cache_dir)).start()
        self.fleet_start_s = now() - t0
        self.clients = [CountingClient(*self.fleet.address) for _ in range(CLIENTS)]

    def models(self, scheme=None, compressor=None):
        """``(key, manifest)`` of the published models, optionally filtered."""
        return [(r.key, r.manifest) for r in self.receipts
                if scheme in (None, r.manifest["scheme"])
                and compressor in (None, r.manifest["compressor"])]

    def rows_for(self, manifest) -> list[dict]:
        """The set-up campaign's observations a model can be asked about."""
        bound = manifest["compressor_options"]["pressio:abs"]
        return [o for o in self.observations
                if o["compressor"] == manifest["compressor"] and o["bound"] == bound
                and o.get(f"scheme:{manifest['scheme']}:supported")]

    def stop(self) -> None:
        for client in self.clients:
            client.close()
        self.fleet.stop()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class ClientLoop:
    """One closed-loop client: its connection, seeded choices and samples."""

    def __init__(self, ctx: Run, client: CountingClient, index: int) -> None:
        self.client = client
        self.rng = random.Random(ctx.seed * 1000 + index)
        #: ``(round trip, of which timer wait)`` in seconds, this phase.
        self.latencies: list[tuple[float, float]] = []
        self.failed = 0
        self.seen = 0
        self.samples: list[tuple] = []  # reservoir of (key, input, prediction)

    def ask(self, key: str, *, results=None, data=None, array=None) -> None:
        trips = self.client.round_trips
        t0 = now()
        try:
            reply = self.client.predict(key, results=results, data=data)
        except Exception:  # noqa: BLE001 - a failed query is a counted outcome
            self.failed += 1
            return
        self.latencies.append(
            (now() - t0, self.client.queue_wait_s * (self.client.round_trips - trips)))
        # Reservoir sampling (algorithm R) keeps the check sample uniform over
        # a stream whose length is not known in advance.
        self.seen += 1
        sample = (key, results if results is not None else array, reply["prediction"])
        if len(self.samples) < SAMPLE_CHECKS // CLIENTS:
            self.samples.append(sample)
        else:
            slot = self.rng.randrange(self.seen)
            if slot < len(self.samples):
                self.samples[slot] = sample


def rows_step(service: Service):
    """A query: any published model, any row it can be asked about."""
    choices = [(key, service.rows_for(manifest)) for key, manifest in service.models()]

    def step(loop: ClientLoop) -> None:
        key, rows = loop.rng.choice(choices)
        loop.ask(key, results=loop.rng.choice(rows))

    return step


def whatif_step(ctx: Run, service: Service):
    """A what-if sweep: one fresh field, both bounds of each scheme, on sz3."""
    shape = (16, 16, 8) if ctx.smoke else (32, 32, 16)
    ds = HurricaneDataset(shape=shape, timesteps=[6 + ctx.seed % 36],
                          seed=BASE_DATASET_SEED + ctx.seed)
    # A field that is all zeros (a hydrometeor early on the track) perturbs
    # to itself, and a repeated payload would hit the cache off-schedule.
    bases = [a for a in (ds.load_data(i).array for i in range(len(ds)))
             if np.count_nonzero(a) > a.size // 100]
    keys = [key for scheme in WHATIF_SCHEMES
            for key, _ in sorted(service.models(scheme, "sz3"),
                                 key=lambda m: m[1]["compressor_options"]["pressio:abs"])]
    ctx.info.update(field_shape=list(shape), field_bytes=int(bases[0].nbytes),
                    queries_per_field=len(keys))

    def step(loop: ClientLoop) -> None:
        noise = np.random.default_rng(loop.rng.getrandbits(32)).standard_normal(shape)
        field = (loop.rng.choice(bases) * (1.0 + 1e-3 * noise)).astype(np.float32)
        payload = encode_array(field)  # encoded once, queried four times
        for key in keys:
            loop.ask(key, data=payload, array=field)

    return step


def register_spans(tracer) -> None:
    """Client-side boundaries; the server's share comes back in each reply's
    ``timings`` and is kept as span attributes."""
    queries, requests = itertools.count(1), itertools.count(1)
    tracer.target(PredictionClient, "predict", "query",
                  trace_of=lambda *a, **k: f"q{next(queries)}")

    def request_attrs(args, kwargs, reply) -> dict:
        attrs = {"status": reply.get("status"), **reply.get("timings", {})}
        # Sizing a request means encoding it a second time, so only every
        # seventh is sized (seven shares no factor with the what-if sweep's
        # pattern of six requests a field).
        if next(requests) % 7 == 0:
            attrs["bytes"] = len(json.dumps(dict(args[1]))) + 1
        return attrs

    tracer.target(PredictionClient, "request", "serve.request", attrs_of=request_attrs)


class Phase:
    """One lap of traffic: walls as read off the clock, and the same in
    reference seconds (timer wait kept, the rest divided by the slowness)."""

    def __init__(self) -> None:
        self.traced = False
        self.wall = 0.0
        self.latencies: list[tuple[float, float]] = []
        self.latencies_ref: list[float] = []
        self.qps_ref = 0.0

    def close(self, traced: bool, wall: float, slowness: float) -> None:
        self.traced, self.wall = traced, wall
        self.latencies_ref = [wait + (trip - wait) / slowness for trip, wait in self.latencies]
        waited = sum(wait for _, wait in self.latencies) / CLIENTS
        self.qps_ref = len(self.latencies) / (waited + (wall - waited) / slowness)


def _traffic(ctx: Run, service: Service, step) -> tuple[list[Phase], list[ClientLoop]]:
    loops = [ClientLoop(ctx, client, i) for i, client in enumerate(service.clients)]

    def one_phase() -> Phase:
        phase = Phase()
        t_end = now() + PHASE_S

        def work(loop: ClientLoop) -> None:
            while now() < t_end:
                step(loop)

        threads = [threading.Thread(target=work, args=(loop,)) for loop in loops]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for loop in loops:
            phase.latencies.extend(loop.latencies)
            loop.latencies.clear()
        return phase

    laps = Laps(ctx.meter)

    def lap(index: int, traced: bool) -> Phase:
        phase, wall, slowness = laps.time(one_phase)
        phase.close(traced, wall, slowness)
        return phase

    return ctx.laps(lap), loops


# -- correctness ---------------------------------------------------------------------


def _expected(model, sample_input) -> float:
    """In-process prediction for a served input, built as the server builds it."""
    if isinstance(sample_input, np.ndarray):
        evaluator = model.scheme.req_metrics_opts(model.compressor)
        row = dict(evaluator.evaluate(as_data(sample_input)))
    else:
        row = dict(sample_input)
    for key, value in model.scheme.config_features(model.compressor).items():
        row.setdefault(key, value)
    return float(model.predictor.predict(row))


def check_samples(ctx: Run, service: Service, loops) -> None:
    registry = ModelRegistry(str(service.root))
    models = {}
    checked = 0
    for loop in loops:
        for key, sample_input, served in loop.samples:
            model = models.get(key) or models.setdefault(key, registry.load(key))
            expected = _expected(model, sample_input)
            checked += 1
            if expected != served:
                ctx.breach(f"served prediction {served!r} differs from in-process "
                           f"{expected!r} for model {key[:12]}")
    ctx.info["checked_predictions"] = checked
    if checked < min(SAMPLE_CHECKS, sum(loop.seen for loop in loops)):
        ctx.breach(f"only {checked} served predictions were available to check")


def check_counters(ctx: Run, service: Service, before: dict, after: dict,
                   expected_hit_share: float) -> dict:
    """Counter deltas over the timed region; none may be negative."""
    delta = {}
    for name, value in after.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and not name.startswith("latency_") and name not in ("workers", "mean_batch_size"):
            delta[name] = value - before.get(name, 0)
            if delta[name] < 0:
                ctx.breach(f"counter {name} went backwards by {-delta[name]}")
    restarts = sum(service.fleet.restart_counts().values())
    if restarts:
        ctx.breach(f"{restarts} fleet worker restart(s) during the run")
    delta["worker_restarts"] = restarts
    lookups = delta["feat_hits"] + delta["feat_misses"]
    hit_share = delta["feat_hits"] / lookups if lookups else 0.0
    if hit_share != expected_hit_share:
        ctx.breach(f"featurization-cache hit share {hit_share} is not the "
                   f"by-construction {expected_hit_share}")
    delta["feat_hit_share"] = hit_share
    return delta


# -- the workloads -------------------------------------------------------------------


def _run(ctx: Run, make_step, expected_hit_share: float) -> None:
    generation = itertools.count()
    service = ctx.time_setup(lambda: Service(ctx, next(generation)), discard=Service.stop)
    try:
        step = make_step(service)
        for client in service.clients:  # warm-up: connections dialled, models loaded
            warm = ClientLoop(ctx, client, -1)
            for _ in range(4):
                step(warm)
        before = service.fleet.stats()["aggregate"]
        phases, loops = _traffic(ctx, service, step)
        after = service.fleet.stats()["aggregate"]
        delta = check_counters(ctx, service, before, after, expected_hit_share)
        check_samples(ctx, service, loops)
    finally:
        service.stop()
    ctx.failed = sum(loop.failed for loop in loops)
    ctx.attempted = ctx.failed + sum(len(phase.latencies) for phase in phases)
    ctx.info.update(models=len(service.receipts), clients=CLIENTS, phases=len(phases),
                    queries=ctx.attempted)
    if not ctx.trace:
        ctx.time_e2e(
            ops_per_s=median(p.qps_ref for p in phases),
            latencies_ms=[s * 1e3 for p in phases for s in p.latencies_ref],
            tail=0.99,
        )
        ctx.info.update(
            wall_ops_per_s=median(len(p.latencies) / p.wall for p in phases),
            wall_latency_p50_ms=median(trip * 1e3 for p in phases for trip, _ in p.latencies),
        )
        return
    import layers

    layers.serving(ctx, service, phases, delta)


def run_rows(ctx: Run) -> None:
    _run(ctx, rows_step, expected_hit_share=0.0)


def run_whatif(ctx: Run) -> None:
    _run(ctx, lambda service: whatif_step(ctx, service), expected_hit_share=0.25)
