"""Chaos-harness ablation: recovery overhead per injected fault class.

The paper's §4.3 resilience story is motivated by fault-prone metric
implementations (the external SECRE/FXRZ bridges crash, hang, and
misreport).  These benches inject each fault class through a seeded
:class:`~repro.bench.faults.ChaosPlan` and measure what recovery costs:
wall-clock overhead versus a clean run of the same campaign, and the
completed-task throughput that survives the chaos.

Every test finishes on the acceptance invariant that matters: after the
chaotic pass (plus the follow-up recovery pass where the fault class
needs one), the checkpoint holds every committed row, reports **zero
pending keys**, and verifies clean.
"""

from __future__ import annotations

import time
import warnings

import pytest

from repro.bench import (
    ChaosPlan,
    CheckpointStore,
    ExperimentRunner,
    RetryPolicy,
    TaskQueue,
)
from repro.dataset import HurricaneDataset


def build_runner(tmp_path, name, queue=None) -> ExperimentRunner:
    ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P", "U", "V", "W"])
    return ExperimentRunner(
        ds,
        compressors=("szx",),
        bounds=(1e-4, 1e-5),
        schemes=("tao2019",),
        store=CheckpointStore(str(tmp_path / f"{name}.db")),
        queue=queue or TaskQueue(1, "serial", max_retries=2),
    )


def find_seed(spec: str, keys, kind: str, minimum: int = 1) -> int:
    """Smallest seed whose plan selects ≥ *minimum* keys for *kind*.

    Deterministic by construction — the chaos draw is a pure function of
    (seed, class, key) — so the benchmark never depends on luck.
    """
    for seed in range(1000):
        plan = ChaosPlan.from_spec(spec, seed=seed)
        if sum(plan.selects(kind, k) for k in keys) >= minimum:
            return seed
    raise AssertionError(f"no seed selects {minimum} {kind} injections")


def timed_collect(runner, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        t0 = time.perf_counter()
        result = runner.collect(**kwargs)
        elapsed = time.perf_counter() - t0
    return result, elapsed


def assert_recovered(runner) -> None:
    """The acceptance invariant: nothing lost, nothing pending."""
    keys = [t.key() for t in runner.build_tasks()]
    assert runner.store.verify() == []
    assert runner.store.pending(keys) == []


def record(benchmark, fault, baseline_s, chaos_s, stats, n_tasks) -> None:
    benchmark.extra_info["fault_class"] = fault
    benchmark.extra_info["baseline_seconds"] = round(baseline_s, 4)
    benchmark.extra_info["chaos_seconds"] = round(chaos_s, 4)
    benchmark.extra_info["recovery_overhead_pct"] = round(
        100.0 * (chaos_s - baseline_s) / max(baseline_s, 1e-9), 1
    )
    benchmark.extra_info["completed_per_second"] = round(
        stats.completed / max(chaos_s, 1e-9), 2
    )
    benchmark.extra_info["n_tasks"] = n_tasks


def test_exception_fault_recovery(benchmark, tmp_path):
    """Transient exceptions on every task, healed by in-run retries."""
    baseline = build_runner(tmp_path, "exc-base")
    (_, base_stats, _), base_s = timed_collect(baseline)
    assert base_stats.failed == 0

    runner = build_runner(tmp_path, "exc-chaos")
    plan = ChaosPlan.from_spec(
        "exception:1.0", seed=1, state_dir=str(tmp_path / "exc-state")
    )

    def chaotic():
        (obs, stats, failures), elapsed = timed_collect(runner, chaos=plan)
        return obs, stats, failures, elapsed

    obs, stats, failures, elapsed = benchmark.pedantic(chaotic, rounds=1, iterations=1)
    n = len(runner.build_tasks())
    assert stats.retries >= n and not failures
    assert_recovered(runner)
    record(benchmark, "exception", base_s, elapsed, stats, n)


def test_crash_fault_recovery_process_pool(benchmark, tmp_path):
    """A worker process dies mid-collection; the pool is rebuilt and the
    in-flight groups re-run — zero committed rows lost."""
    queue = TaskQueue(2, "process", max_retries=2)
    baseline = build_runner(tmp_path, "crash-base", queue=queue)
    (_, base_stats, _), base_s = timed_collect(baseline)
    assert base_stats.failed == 0

    runner = build_runner(tmp_path, "crash-chaos", TaskQueue(2, "process", max_retries=2))
    keys = [t.key() for t in runner.build_tasks()]
    seed = find_seed("crash:0.4", keys, "crash", minimum=1)
    plan = ChaosPlan.from_spec(
        "crash:0.4", seed=seed, state_dir=str(tmp_path / "crash-state")
    )

    def chaotic():
        (obs, stats, failures), elapsed = timed_collect(runner, chaos=plan)
        return obs, stats, failures, elapsed

    obs, stats, failures, elapsed = benchmark.pedantic(chaotic, rounds=1, iterations=1)
    assert plan.injected_counts()["crash"] >= 1  # a worker really died
    assert stats.pool_rebuilds >= 1
    assert stats.failed == 0 and not failures
    # Follow-up pass on the same checkpoint: nothing left to do.
    (_, stats2, _), _ = timed_collect(runner)
    assert stats2.completed == 0 and stats2.failed == 0
    assert_recovered(runner)
    record(benchmark, "crash", base_s, elapsed, stats, len(keys))


def test_hang_fault_recovery_serial_guard(benchmark, tmp_path):
    """A hung task is interrupted by the serial SIGALRM guard and re-run
    (the process engine's slot-recycle hang cell is tier-1's
    ``test_process_deadline_recycles_pool_on_hang``)."""
    baseline = build_runner(tmp_path, "hang-base")
    (_, base_stats, _), base_s = timed_collect(baseline)
    assert base_stats.failed == 0

    runner = build_runner(
        tmp_path, "hang-chaos", TaskQueue(1, "serial", max_retries=2, task_timeout=0.5)
    )
    keys = [t.key() for t in runner.build_tasks()]
    seed = find_seed("hang:0.3", keys, "hang", minimum=1)
    plan = ChaosPlan.from_spec(
        "hang:0.3", seed=seed, hang_seconds=10.0,
        state_dir=str(tmp_path / "hang-state"),
    )

    def chaotic():
        (obs, stats, failures), elapsed = timed_collect(runner, chaos=plan)
        return obs, stats, failures, elapsed

    obs, stats, failures, elapsed = benchmark.pedantic(chaotic, rounds=1, iterations=1)
    assert stats.timeouts >= 1 and stats.failed == 0
    assert elapsed < 10.0  # the 10 s hang was interrupted, not waited out
    assert_recovered(runner)
    record(benchmark, "hang", base_s, elapsed, stats, len(keys))


def test_corruption_fault_recovery_verify(benchmark, tmp_path):
    """At-rest payload corruption is quarantined by verify() and only the
    damaged keys are recomputed on the healing pass."""
    runner = build_runner(tmp_path, "corrupt-chaos")
    (_, base_stats, _), base_s = timed_collect(runner)
    assert base_stats.failed == 0
    keys = [t.key() for t in runner.build_tasks()]
    seed = find_seed("corrupt:0.4", keys, "corrupt", minimum=2)
    plan = ChaosPlan.from_spec(
        "corrupt:0.4", seed=seed, state_dir=str(tmp_path / "corrupt-state")
    )
    victims = plan.corrupt_checkpoint(runner.store)
    assert len(victims) >= 2

    recomputed = []

    def counting(task, worker):
        recomputed.append(task.key())
        return runner.run_task(task, worker)

    def heal():
        recomputed.clear()
        (obs, stats, failures), elapsed = timed_collect(runner, task_fn=counting)
        return obs, stats, failures, elapsed

    obs, stats, failures, elapsed = benchmark.pedantic(heal, rounds=1, iterations=1)
    # Only the first (healing) round recomputes; it replays exactly the
    # corrupted keys, nothing more.
    assert set(recomputed) <= set(victims)
    assert_recovered(runner)
    record(benchmark, "corrupt", base_s, elapsed, stats, len(keys))
    benchmark.extra_info["corrupted_rows"] = len(victims)


def test_sink_fault_recovery(benchmark, tmp_path):
    """Checkpoint-sink failures lose the write, not the campaign: the
    failed tasks land in the ledger and the next pass commits them."""
    baseline = build_runner(tmp_path, "sink-base")
    (_, base_stats, _), base_s = timed_collect(baseline)
    assert base_stats.failed == 0

    runner = build_runner(tmp_path, "sink-chaos")
    keys = [t.key() for t in runner.build_tasks()]
    seed = find_seed("sink:0.4", keys, "sink", minimum=1)
    plan = ChaosPlan.from_spec(
        "sink:0.4", seed=seed, state_dir=str(tmp_path / "sink-state")
    )

    def chaotic_then_recover():
        (_, stats1, failures1), t1 = timed_collect(runner, chaos=plan)
        (_, stats2, failures2), t2 = timed_collect(runner, chaos=plan)
        return stats1, failures1, stats2, failures2, t1 + t2

    stats1, failures1, stats2, failures2, elapsed = benchmark.pedantic(
        chaotic_then_recover, rounds=1, iterations=1
    )
    assert stats1.failed >= 1 and len(failures1) == stats1.failed
    assert stats2.failed == 0 and not failures2  # sink markers all spent
    assert runner.store.failed_keys() == set()  # recovery cleared the ledger
    assert_recovered(runner)
    record(benchmark, "sink", base_s, elapsed, stats2, len(keys))


def test_backoff_overhead_deterministic(benchmark, tmp_path):
    """Exponential backoff with seeded jitter: the retry delay schedule
    is identical run-to-run under a fixed seed."""
    policy = RetryPolicy(max_retries=2, base_delay=0.02, jitter=0.2, seed=11)
    runner = build_runner(
        tmp_path, "backoff", TaskQueue(1, "serial", retry_policy=policy)
    )
    plan = ChaosPlan.from_spec(
        "exception:1.0", seed=2, state_dir=str(tmp_path / "backoff-state")
    )
    keys = [t.key() for t in runner.build_tasks()]
    expected = sum(policy.delay(k, 1) for k in keys)

    def chaotic():
        (obs, stats, failures), elapsed = timed_collect(runner, chaos=plan)
        return stats, elapsed

    stats, elapsed = benchmark.pedantic(chaotic, rounds=1, iterations=1)
    assert stats.backoff_seconds == pytest.approx(expected)
    # Delays overlap with still-pending work (a backing-off retry never
    # blocks the queue), so wall time only has to cover a single delay —
    # the last retry has nothing to overlap with.
    assert elapsed >= min(policy.delay(k, 1) for k in keys)
    assert_recovered(runner)
    benchmark.extra_info["scheduled_backoff_seconds"] = round(expected, 4)
