"""The ISSUE's headline acceptance run: ten consecutive drift-triggered
rollovers against a live server, chaos-proofed end to end.

A tiny campaign seeds v0001 into a registry, a :class:`PredictionServer`
serves it, and a background thread keeps querying it with the default
(retrying) client for the whole session.  Each round the drift monitor
is driven to fire with skewed ground truth, then a
:class:`ContinuousLearner` rollover runs under deterministic chaos —
``trainer_kill:1.0`` (the trainer dies at collect and at every one of
the four journaled publish fault points) plus ``publish_corrupt:1.0``
(every freshly committed blob is damaged at rest, forcing a quarantine
and republish).  The contract:

* zero failed client queries across all ten rollovers,
* the server observably flips to a strictly newer version each round
  with zero restarts,
* the registry's ``verify()`` is clean at the end, and
* every monitor is re-armed (not stale) after its rollover.

Emits ``BENCH_drift_loop.json`` with per-round rollover latency and the
queries served *during* each rollover window.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.bench import ChaosPlan, CheckpointStore, ExperimentRunner, RetryPolicy, TaskQueue
from repro.dataset import HurricaneDataset
from repro.predict.scheme import get_scheme
from repro.serve import (
    ContinuousLearner,
    DriftConfig,
    ModelRegistry,
    PredictionClient,
    PredictionServer,
    ServerThread,
)

ARTIFACT = "BENCH_drift_loop.json"
ROUNDS = 10
#: Per round under rate-1.0 chaos: one kill at collect + one at each of
#: the four publish fault points, then one at-rest corruption -> the
#: corrupted vN+1 is quarantined at verify and republished as vN+2.
KILLS_PER_ROUND = 5
FAST_DRIFT = DriftConfig(window=8, min_observations=4, calibration=4, hysteresis=2)


def _runner_factory(store: CheckpointStore):
    def factory(round_no: int) -> ExperimentRunner:
        dataset = HurricaneDataset(
            shape=(8, 8, 4), timesteps=2 + round_no, fields=["P"]
        )
        return ExperimentRunner(
            dataset,
            compressors=["sz3"],
            bounds=[1e-3],
            schemes=[
                get_scheme(
                    "rahman2023", n_estimators=3, max_depth=3, augment_factor=1.0
                )
            ],
            store=store,
            queue=TaskQueue(1, "serial"),
            n_folds=2,
        )

    return factory


def _force_drift(client: PredictionClient, key: str, row: dict, cap: int = 80) -> int:
    """Feed skewed ground truth until the monitor fires; return # observations."""
    resp = client.predict(key, results=row)
    for i in range(1, cap + 1):
        snap = client.observe(
            key,
            resp["prediction"],
            resp["prediction"] * 3.0,
            version=resp["version"],
        )
        if snap["fired"]:
            return i
    raise AssertionError(f"drift monitor did not fire within {cap} observations")


def test_ten_chaos_rollovers_zero_failed_queries(tmp_path, record_property):
    store = CheckpointStore(str(tmp_path / "ck.db"))
    registry = ModelRegistry(str(tmp_path / "reg"))
    factory = _runner_factory(store)

    seed_runner = factory(0)
    observations = seed_runner.collect().observations
    receipts = seed_runner.publish(registry, observations, verify_n=2)
    seed_runner.close()
    assert len(receipts) == 1
    key = receipts[0].key
    row = dict(observations[0])
    assert registry.latest(key) == "v0001"

    chaos = ChaosPlan.from_spec(
        "trainer_kill:1.0,publish_corrupt:1.0",
        seed=11,
        state_dir=str(tmp_path / "chaos-state"),
    )
    server = PredictionServer(registry, drift_config=FAST_DRIFT)
    queries = [0]
    failures: list[str] = []
    stop = threading.Event()

    rounds: list[dict] = []
    t_session = time.perf_counter()
    with ServerThread(server) as thread:
        host, port = thread.address
        learner = ContinuousLearner(
            registry,
            factory,
            servers=[(host, port)],
            retry_policy=RetryPolicy(max_retries=31, base_delay=0.0, seed=0),
            chaos=chaos,
            verify_n=2,
        )

        def traffic() -> None:
            # The default client retries through overload; any error that
            # reaches us is a genuinely failed query.
            with PredictionClient(host, port) as tclient:
                while not stop.is_set():
                    try:
                        resp = tclient.predict(key, results=row)
                        assert resp["status"] == "ok"
                        queries[0] += 1
                    except Exception as exc:  # noqa: BLE001 - the count IS the assert
                        failures.append(repr(exc))
                    time.sleep(0.001)

        pump = threading.Thread(target=traffic, daemon=True)
        pump.start()
        try:
            with PredictionClient(host, port) as client:
                for round_no in range(1, ROUNDS + 1):
                    before = registry.latest(key)
                    obs_to_fire = _force_drift(client, key, row)
                    assert key in learner.fired_keys()
                    served_before = queries[0]
                    t0 = time.perf_counter()
                    report = learner.rollover(round_no)
                    latency = time.perf_counter() - t0
                    after = registry.latest(key)
                    # the flip is observable on the SAME server thread:
                    # zero restarts, strictly newer version
                    assert after == report.published[key]
                    assert int(after[1:]) > int(before[1:])
                    assert client.predict(key, results=row)["version"] == after
                    # the monitor re-armed for the new version: not stale
                    assert learner.fired_keys() == {}
                    rounds.append(
                        {
                            "round": round_no,
                            "version": after,
                            "attempts": report.attempts,
                            "rollover_seconds": round(latency, 4),
                            "queries_during_rollover": queries[0] - served_before,
                            "observations_to_fire": obs_to_fire,
                        }
                    )
        finally:
            stop.set()
            pump.join(30)
    wall = time.perf_counter() - t_session
    store.close()

    assert len(rounds) == ROUNDS
    assert failures == [], f"{len(failures)} client queries failed: {failures[:3]}"
    assert queries[0] > 0
    # chaos really ran at full rate, every round
    injected = chaos.injected_counts()
    assert injected["trainer_kill"] == KILLS_PER_ROUND * ROUNDS
    assert injected["publish_corrupt"] == ROUNDS
    # every rollover had to fight through the kills before converging
    assert all(r["attempts"] > KILLS_PER_ROUND for r in rounds)
    # the registry healed completely: no torn state, no stray quarantine debris
    assert registry.verify() == []
    served = queries[0]
    during = sum(r["queries_during_rollover"] for r in rounds)
    assert during > 0, "traffic stalled during every rollover"

    latencies = sorted(r["rollover_seconds"] for r in rounds)
    payload = {
        "scale": os.environ.get("REPRO_BENCH_SCALE", "small"),
        "rounds": rounds,
        "n_rounds": ROUNDS,
        "chaos_spec": "trainer_kill:1.0,publish_corrupt:1.0",
        "injected": injected,
        "queries_total": served,
        "queries_failed": len(failures),
        "queries_during_rollovers": during,
        "queries_per_second": round(served / wall, 2) if wall > 0 else 0.0,
        "rollover_seconds_min": latencies[0],
        "rollover_seconds_median": latencies[ROUNDS // 2],
        "rollover_seconds_max": latencies[-1],
        "wall_seconds": round(wall, 3),
        "final_version": rounds[-1]["version"],
    }
    with open(ARTIFACT, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    record_property("artifact", os.path.abspath(ARTIFACT))
