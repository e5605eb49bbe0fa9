"""The task ledger: one charging policy, three engines.

``TaskLedger`` decides what a task outcome costs (attempts, retries,
quarantine, deadline charges, the crash-loop cap); the serial, process
and cluster engines only report what happened.  The table test drives
one fault mix through ``TaskQueue.run`` on every engine and requires the
same per-task verdicts from each; the rest pin the rules the process and
cluster engines used to disagree on.
"""

import os
import time

import pytest

from repro.bench import RetryPolicy, Task, TaskQueue
from repro.bench.cluster import ClusterSpec
from repro.bench.taskledger import TaskLedger
from repro.core import Status, TaskFailedError, UnsupportedError
from tests.latch import once

ENGINES = ["serial", "process", "cluster"]

#: data_id → (ok, attempts, status) with ``max_retries=2``.
EXPECTED = {
    "success": (True, 1, Status.SUCCESS),
    "transient": (True, 2, Status.SUCCESS),
    "permanent": (False, 1, Status.UNSUPPORTED),
    "always": (False, 3, Status.TASK_FAILED),
    "sink": (False, 1, Status.GENERIC_ERROR),
}
PER_KIND = 2


def make_tasks(kinds, per_kind=PER_KIND):
    return [
        Task(
            data_index=d,
            data_id=kind,
            compressor_id="sz3",
            compressor_options={"pressio:abs": 10.0 ** -(k + 2)},
            dataset_config={"entry:data_id": kind},
            replicate=0,
        )
        for d, kind in enumerate(kinds)
        for k in range(per_kind)
    ]


def _by_kind(task, worker):
    """Module-level: pickled into worker processes and cluster ranks."""
    kind = task.data_id
    if kind == "transient" and once(f"transient-{task.key()}"):
        raise TaskFailedError("fails once", task_key=task.key())
    if kind == "permanent":
        raise UnsupportedError("can never succeed")
    if kind == "always":
        raise TaskFailedError("fails every time", task_key=task.key())
    if kind == "crash" and task.compressor_options["pressio:abs"] == 1e-3:
        os._exit(7)
    return {"kind": kind}


def _failing_sink(result):
    if result.ok and result.task.data_id == "sink":
        raise OSError("disk full")


def _queue(engine, **kwargs):
    if engine == "serial":
        return TaskQueue(1, "serial", **kwargs)
    if engine == "cluster":
        kwargs["cluster"] = ClusterSpec()
    return TaskQueue(2, engine, **kwargs)


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_charges_the_same_fault_mix_alike(engine, state_dir):
    tasks = make_tasks(EXPECTED)
    results, stats = _queue(engine, max_retries=2).run(
        tasks, _by_kind, on_result=_failing_sink
    )
    assert sorted(r.task.key() for r in results) == sorted(t.key() for t in tasks)
    verdicts = {(r.task.data_id, r.ok, r.attempts, r.status) for r in results}
    assert verdicts == {(kind, ok, n, int(status)) for kind, (ok, n, status) in EXPECTED.items()}
    assert stats.engine == engine
    assert (stats.completed, stats.failed) == (2 * PER_KIND, 3 * PER_KIND)
    # One retry per transient task, two per always-failing task.
    assert stats.retries == 3 * PER_KIND
    assert stats.quarantined == PER_KIND
    assert stats.timeouts == 0
    sink_errors = {r.error for r in results if r.task.data_id == "sink"}
    assert sink_errors == {"on_result OSError: disk full"}


@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_counts_placement_alike(engine, state_dir):
    """One placement policy: whole-datum chunks leave nothing to steal,
    so each datum costs one miss and its other tasks are hits on every
    engine, the serial one included."""
    tasks = make_tasks(["a", "b", "c", "d"], per_kind=3)
    _, stats = _queue(engine).run(tasks, _by_kind)
    assert stats.completed == len(tasks)
    assert (stats.affinity_hits, stats.affinity_misses, stats.affinity_steals) == (8, 4, 0)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("seconds", [0, -1.0, float("nan")])
def test_task_timeout_must_be_positive_on_every_engine(engine, seconds):
    """``0`` used to mean "disabled" on serial and "already overdue" on
    the other engines; it is rejected once, before anything runs."""
    with pytest.raises(ValueError, match="task_timeout must be > 0"):
        TaskQueue(2, engine, task_timeout=seconds)


@pytest.mark.parametrize("engine", ["process", "cluster"])
def test_dead_workers_chunk_is_requeued_as_single_tasks(engine, state_dir):
    """One rule for both engines: the chunk-mates of a task that kills
    its worker complete on their own; only the killer is left to trip
    the crash-loop cap.  (The process engine used to requeue the chunk
    whole, so all three tasks went down together.)"""
    tasks = make_tasks(["crash"], per_kind=3)
    results, stats = _queue(engine, max_pool_rebuilds=2).run(tasks, _by_kind)
    assert stats.completed == 2 and stats.failed == 1
    (failed,) = [r for r in results if not r.ok]
    assert failed.task.compressor_options["pressio:abs"] == 1e-3
    assert "crash-looping" in failed.error
    # Worker deaths are never charged to the tasks.
    assert all(r.attempts == 1 for r in results)
    assert stats.retries == 0


class TestLedgerRules:
    def _ledger(self, task_timeout=None, max_worker_deaths=5):
        policy = RetryPolicy(max_retries=1, base_delay=0.05, jitter=0.0)
        return TaskLedger(
            "process", policy, None,
            task_timeout=task_timeout, max_worker_deaths=max_worker_deaths,
        )

    def test_enqueue_cuts_datum_groups_into_chunks(self):
        tasks = make_tasks(["a", "b"], per_kind=3)
        ledger = self._ledger()
        ledger.enqueue(tasks)
        assert [len(c) for c in ledger.pending] == [3, 3]
        ledger = self._ledger()
        ledger.enqueue(tasks, whole_datums=False)
        assert [[t.data_id for t in c] for c in ledger.pending] == [
            ["a"], ["a"], ["a"], ["b"], ["b"], ["b"],
        ]

    def test_overdue_chunk_is_charged_per_task_and_backs_off(self):
        """A timeout is a transient failure like any other: each task of
        the overdue chunk is charged one TIMEOUT attempt and retried on
        its own after the policy's backoff (neither engine used to back
        off here)."""
        tasks = make_tasks(["a"], per_kind=2)
        ledger = self._ledger(task_timeout=0.01)
        ledger.enqueue(tasks)
        assert ledger.dispatch(0) == tasks
        assert ledger.charge_overdue() == []  # within (len + 1) deadlines
        time.sleep(0.05)
        assert ledger.charge_overdue() == [0]
        assert not ledger.in_flight and not ledger.pending
        assert [chunk for _, chunk in ledger.delayed] == [[tasks[0]], [tasks[1]]]
        stats = ledger.stats
        assert (stats.timeouts, stats.retries) == (2, 2)
        assert stats.backoff_seconds == pytest.approx(0.1)
        # The worker that held it dies next; nothing is left to requeue.
        ledger.worker_died(0, "hung")
        assert not ledger.pending and not ledger.aborted
        # A second overrun exhausts max_retries=1: reported as TIMEOUT.
        time.sleep(0.06)
        ledger.promote_delayed()
        ledger.dispatch(1)
        ledger.dispatch(0)
        time.sleep(0.03)
        assert sorted(ledger.charge_overdue()) == [0, 1]
        results, stats = ledger.outcome()
        assert [(r.ok, r.attempts, r.status, r.worker) for r in results] == [
            (False, 2, int(Status.TIMEOUT), -1)
        ] * 2
        assert all("deadline" in r.error for r in results)
        assert ledger.drained

    def test_crash_loop_cap_fails_every_remaining_task_once(self):
        tasks = make_tasks(["a", "b", "c"], per_kind=2)
        ledger = self._ledger(max_worker_deaths=1)
        ledger.enqueue(tasks)
        ledger.dispatch(0)
        ledger.dispatch(1)
        ledger.worker_died(0, "exit 5")
        assert not ledger.aborted
        assert list(ledger.pending) == [tasks[4:6], [tasks[0]], [tasks[1]]]
        ledger.worker_died(1, "exit 5")
        assert ledger.aborted and ledger.drained
        results, stats = ledger.outcome()
        assert sorted(r.task.key() for r in results) == sorted(t.key() for t in tasks)
        assert stats.failed == len(tasks) and stats.per_worker == {}
        assert all("crash-looping" in r.error and "exit 5" in r.error for r in results)
        assert all(r.attempts == 1 and r.status == int(Status.TASK_FAILED) for r in results)

    def test_a_reported_chunk_resets_the_death_counter(self):
        tasks = make_tasks(["a", "b"], per_kind=1)
        ledger = self._ledger(max_worker_deaths=1)
        ledger.enqueue(tasks)
        ledger.dispatch(0)
        ledger.worker_died(0, "x")
        ledger.dispatch(1)
        ledger.charge_chunk(1, [(1, {"ok": 1}, None, int(Status.SUCCESS), 0.0)])
        ledger.dispatch(0)
        ledger.worker_died(0, "x")
        assert not ledger.aborted

    @pytest.mark.parametrize(
        "engine, origin", [("serial", ""), ("process", "rank1"), ("cluster", "rank1")]
    )
    def test_final_failure_carries_its_origin(self, engine, origin):
        """The ledger names where a final failure ran — its rank on
        either parallel engine — so the runner copies it to the failure
        ledger without asking which engine it ran on."""
        (task,) = make_tasks(["a"], per_kind=1)
        ledger = TaskLedger(
            engine, RetryPolicy(max_retries=0), None,
            task_timeout=None, max_worker_deaths=5,
        )
        ledger.charge(task, 1, None, "RuntimeError: boom", int(Status.GENERIC_ERROR))
        ledger.charge(task, 1, {"ok": 1}, None, int(Status.SUCCESS))
        failed, ok = ledger.results
        assert (failed.ok, failed.origin) == (False, origin)
        assert (ok.ok, ok.origin) == (True, "")
