"""Serial-engine task deadlines (SIGALRM guard).

The process and cluster engines recycle the worker holding an overdue
chunk; the serial engine has no other worker, so before this guard
``task_timeout`` was silently unenforced on the paper's default
single-worker path.  These
tests pin the contract: a hung task is interrupted and classified as a
retriable TIMEOUT on the main thread, and the guard degrades to a
warning-once no-op where signals cannot be delivered.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.bench.taskqueue as taskqueue_mod
from repro.bench import Task, TaskQueue
from repro.core import Status


def make_tasks(n=3):
    return [
        Task(
            data_index=d,
            data_id=f"data/{d}",
            compressor_id="sz3",
            compressor_options={"pressio:abs": 1e-4},
            dataset_config={"entry:data_id": f"data/{d}"},
            replicate=0,
            nbytes=1 << 20,
        )
        for d in range(n)
    ]


def test_hung_task_times_out_on_serial_engine():
    tasks = make_tasks(1)
    queue = TaskQueue(1, "serial", max_retries=1, task_timeout=0.2)

    def hang(task, worker):
        time.sleep(30)
        return {}

    t0 = time.perf_counter()
    results, stats = queue.run(tasks, hang)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, "deadline did not interrupt the hung task"
    assert stats.completed == 0
    assert stats.failed == 1
    assert stats.timeouts >= 1
    (result,) = results
    assert not result.ok
    assert result.status == int(Status.TIMEOUT)
    assert "deadline" in result.error


def test_timeout_is_retriable():
    # First attempt hangs, the retry succeeds: TIMEOUT must flow into
    # the existing retry machinery, not fail the task permanently.
    attempts = []

    def flaky(task, worker):
        attempts.append(task.key())
        if len(attempts) == 1:
            time.sleep(30)
        return {"ok": True}

    queue = TaskQueue(1, "serial", max_retries=2, task_timeout=0.2)
    results, stats = queue.run(make_tasks(1), flaky)
    assert stats.completed == 1
    assert stats.failed == 0
    assert stats.timeouts == 1
    assert stats.retries == 1
    assert results[0].ok and results[0].attempts == 2


def test_fast_tasks_unaffected_by_deadline():
    queue = TaskQueue(1, "serial", task_timeout=5.0)
    results, stats = queue.run(make_tasks(4), lambda t, w: {"v": 1})
    assert stats.completed == 4
    assert stats.timeouts == 0
    assert all(r.ok for r in results)


def test_deadline_restores_previous_handler_and_timer():
    import signal

    sentinel = []
    previous = signal.signal(signal.SIGALRM, lambda *a: sentinel.append(a))
    try:
        queue = TaskQueue(1, "serial", task_timeout=0.5)
        queue.run(make_tasks(1), lambda t, w: {})
        assert signal.getsignal(signal.SIGALRM) is not signal.SIG_DFL
        # the guard must have restored our handler and cleared the timer
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        handler = signal.getsignal(signal.SIGALRM)
        assert handler is not None and handler.__name__ == "<lambda>"
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_off_main_thread_degrades_to_warning_noop(monkeypatch):
    # Run the whole serial queue on a non-main thread: the guard cannot
    # deliver SIGALRM there, so the task must *complete* (no interrupt)
    # and a single warning must be emitted.
    monkeypatch.setattr(taskqueue_mod, "_ALARM_UNAVAILABLE_WARNED", False)
    captured = {}

    def run():
        queue = TaskQueue(1, "serial", task_timeout=0.2)
        with pytest.warns(UserWarning, match="cannot be enforced"):
            results, stats = queue.run(
                make_tasks(1), lambda t, w: (time.sleep(0.4), {"done": 1})[1]
            )
        captured["results"], captured["stats"] = results, stats

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(30)
    assert captured["stats"].completed == 1
    assert captured["stats"].timeouts == 0
    assert captured["results"][0].payload == {"done": 1}


def test_warning_fires_only_once(monkeypatch):
    monkeypatch.setattr(taskqueue_mod, "_ALARM_UNAVAILABLE_WARNED", False)
    import warnings as warnings_mod

    records = []

    def run():
        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            queue = TaskQueue(1, "serial", task_timeout=0.2)
            queue.run(make_tasks(2), lambda t, w: {})
        records.extend(caught)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(30)
    relevant = [r for r in records if "cannot be enforced" in str(r.message)]
    assert len(relevant) == 1
