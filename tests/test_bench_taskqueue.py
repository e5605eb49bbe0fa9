"""Tests for the task queue: locality scheduling, retries, fault injection."""

import os
import threading
import time
from collections import deque

import pytest

from repro.bench import FaultInjector, LocalityScheduler, Task, TaskQueue
from repro.core import Status, TaskFailedError


def make_tasks(n_data=4, per_data=3):
    tasks = []
    for d in range(n_data):
        for k in range(per_data):
            tasks.append(
                Task(
                    data_index=d,
                    data_id=f"data/{d}",
                    compressor_id="sz3",
                    compressor_options={"pressio:abs": 10.0 ** -(k + 2)},
                    dataset_config={"entry:data_id": f"data/{d}"},
                    replicate=0,
                    nbytes=1 << 20,
                )
            )
    return tasks


class TestLocalityScheduler:
    def test_prefers_cached_data(self):
        sched = LocalityScheduler()
        tasks = make_tasks(n_data=2, per_data=2)
        pending = deque(tasks)
        first = sched.pick(0, pending)  # miss, caches data/0
        second = sched.pick(0, pending)  # should hit data/0 again
        assert first.data_id == second.data_id == "data/0"
        assert sched.stats_hits == 1 and sched.stats_misses == 1

    def test_empty_pending(self):
        assert LocalityScheduler().pick(0, deque()) is None


class TestTaskQueue:
    def test_serial_runs_everything(self):
        tasks = make_tasks()
        results, stats = TaskQueue(1, "serial").run(tasks, lambda t, w: {"ok": 1})
        assert stats.completed == len(tasks)
        assert stats.failed == 0
        assert all(r.ok for r in results)

    def test_locality_rate_high_with_grouped_tasks(self):
        tasks = make_tasks(n_data=4, per_data=5)
        _, stats = TaskQueue(1, "serial").run(tasks, lambda t, w: {})
        # 4 misses (first touch per datum), 16 hits.
        assert stats.locality_hits == 16
        assert stats.locality_rate == pytest.approx(16 / 20)

    def test_thread_engine_completes_all(self):
        tasks = make_tasks(n_data=3, per_data=4)
        results, stats = TaskQueue(3, "thread").run(tasks, lambda t, w: {"w": w})
        assert stats.completed == 12
        assert {r.task.key() for r in results} == {t.key() for t in tasks}

    def test_transient_failure_retried(self):
        tasks = make_tasks(n_data=1, per_data=3)
        fn = FaultInjector(lambda t, w: {"ok": 1}, fail_first_attempt_every=2)
        results, stats = TaskQueue(1, "serial", max_retries=2).run(tasks, fn)
        assert stats.completed == 3
        assert stats.retries == fn.injected > 0

    def test_poisoned_task_reported_not_raised(self):
        tasks = make_tasks(n_data=1, per_data=2)
        poison = {tasks[0].key()}
        fn = FaultInjector(lambda t, w: {"ok": 1}, poison_keys=poison)
        results, stats = TaskQueue(1, "serial", max_retries=1).run(tasks, fn)
        assert stats.completed == 1 and stats.failed == 1
        failed = [r for r in results if not r.ok][0]
        assert "poisoned" in failed.error
        assert failed.attempts == 2  # original + one retry

    def test_on_result_callback_sees_successes(self):
        seen = []
        tasks = make_tasks(n_data=1, per_data=2)
        TaskQueue(1, "serial").run(tasks, lambda t, w: {"x": 1}, on_result=seen.append)
        assert len(seen) == 2 and all(r.ok for r in seen)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            TaskQueue(2, "mpi")

    def test_single_worker_forces_serial(self):
        q = TaskQueue(1, "thread")
        assert q.engine == "serial"

    def test_single_worker_downgrade_warns_and_is_recorded(self):
        with pytest.warns(UserWarning, match="falling back to 'serial'"):
            q = TaskQueue(1, "process")
        assert q.engine == "serial" and q.requested_engine == "process"
        _, stats = q.run(make_tasks(1, 1), lambda t, w: {"ok": 1})
        assert stats.engine == "serial"
        assert stats.requested_engine == "process"

    def test_explicit_serial_does_not_warn(self):
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            TaskQueue(1, "serial")


class TestQueueStress:
    """Worker-coordination races the condvar dispatcher must not have.

    Before the rework, (a) workers exited as soon as the pending deque
    drained, even while a task executing elsewhere could fail and need
    them, and (b) the "allow anyway" fallback let a task retry on the
    very worker it failed on while other workers were still live."""

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_transient_faults_complete_exactly_once(self, workers):
        from repro.analysis import LockOrderWitness

        witness = LockOrderWitness()
        tasks = make_tasks(n_data=6, per_data=4)
        attempt_log: list[tuple[str, int]] = []
        log_lock = threading.Lock()

        def traced(task, worker):
            with log_lock:
                attempt_log.append((task.key(), worker))
            return {"ok": 1}

        fn = FaultInjector(traced, fail_first_attempt_every=3)
        results, stats = TaskQueue(
            workers, "thread", max_retries=3, lock_witness=witness
        ).run(tasks, fn)
        assert stats.failed == 0
        assert stats.completed == len(tasks)
        keys = [r.task.key() for r in results]
        assert sorted(keys) == sorted(t.key() for t in tasks)  # exactly once
        assert len(set(keys)) == len(tasks)
        assert stats.retries == fn.injected > 0
        witness.assert_acyclic()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_queue_checkpoint_lock_order_is_acyclic(self, workers, tmp_path):
        """Witness the real dispatcher↔store interaction: the result
        sink runs under the queue's condvar and takes the checkpoint
        lock, so the only edge must be queue → checkpoint, never back."""
        from repro.analysis import LockOrderWitness
        from repro.bench import CheckpointStore

        witness = LockOrderWitness()
        store = CheckpointStore(
            str(tmp_path / "ck.db"), flush_every=4, lock_witness=witness
        )
        try:
            tasks = make_tasks(n_data=4, per_data=3)
            fn = FaultInjector(lambda t, w: {"ok": 1}, fail_first_attempt_every=4)

            def sink(result):
                if result.ok:
                    store.put(result.task.key(), result.payload)

            results, stats = TaskQueue(
                workers, "thread", max_retries=3, lock_witness=witness
            ).run(tasks, fn, on_result=sink)
            store.flush()
            assert stats.failed == 0
            assert len(store.query()) == len(tasks)
            witness.assert_acyclic()
            assert ("taskqueue.cond", "checkpoint.lock") in witness.edges()
            assert ("checkpoint.lock", "taskqueue.cond") not in witness.edges()
        finally:
            store.close()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_exclusion_honored_while_alternatives_exist(self, workers):
        """A retry never lands on the worker it failed on when another
        live worker exists — guaranteed, not just likely, because no
        worker exits while a retry is queued or a task is in flight."""
        tasks = make_tasks(n_data=5, per_data=4)
        per_key_workers: dict[str, list[int]] = {}
        log_lock = threading.Lock()
        inject = FaultInjector(lambda t, w: {"ok": 1}, fail_first_attempt_every=4)

        def traced(task, worker):
            with log_lock:
                per_key_workers.setdefault(task.key(), []).append(worker)
            return inject(task, worker)

        results, stats = TaskQueue(workers, "thread", max_retries=2).run(tasks, traced)
        assert stats.failed == 0 and stats.retries > 0
        assert stats.exclusion_overrides == 0
        for key, attempt_workers in per_key_workers.items():
            if len(attempt_workers) > 1:
                assert attempt_workers[1] != attempt_workers[0], (
                    f"retry of {key[:8]} reran on failed worker {attempt_workers[0]}"
                )

    def test_worker_waits_for_inflight_retry(self):
        """The drained worker must wait for the in-flight task: if it
        exited (the old race), the failure could only retry on the
        worker it failed on."""
        tasks = make_tasks(n_data=5, per_data=1)
        slow_key = tasks[0].key()
        others_done = threading.Event()
        done_count = [0]
        lock = threading.Lock()
        attempt_workers: dict[str, list[int]] = {}

        def fn(task, worker):
            with lock:
                attempt_workers.setdefault(task.key(), []).append(worker)
            if task.key() == slow_key and len(attempt_workers[slow_key]) == 1:
                # Fail only after every other task has completed, so the
                # retry can only be served by a worker that waited.
                assert others_done.wait(timeout=30)
                raise TaskFailedError("late transient fault", task_key=task.key())
            with lock:
                done_count[0] += 1
                if done_count[0] == len(tasks) - 1:
                    others_done.set()
            return {"ok": 1}

        results, stats = TaskQueue(2, "thread", max_retries=2).run(tasks, fn)
        assert stats.failed == 0 and stats.completed == len(tasks)
        assert len(attempt_workers[slow_key]) == 2
        first, second = attempt_workers[slow_key]
        assert second != first

    def test_exclusion_lifted_only_when_no_alternative(self):
        """A task that failed on every worker may retry anywhere (the
        only sanctioned override), instead of deadlocking."""
        tasks = make_tasks(n_data=2, per_data=1)
        bad_key = tasks[0].key()
        fails = [0]

        def fn(task, worker):
            if task.key() == bad_key and fails[0] < 2:
                fails[0] += 1
                raise TaskFailedError("fails everywhere once", task_key=task.key())
            return {"ok": 1}

        results, stats = TaskQueue(2, "thread", max_retries=3).run(tasks, fn)
        assert stats.failed == 0 and stats.completed == 2
        assert stats.retries == 2

    def test_process_engine_completes_all(self):
        tasks = make_tasks(n_data=4, per_data=3)
        results, stats = TaskQueue(2, "process").run(tasks, _echo_worker)
        assert stats.failed == 0 and stats.completed == len(tasks)
        assert {r.task.key() for r in results} == {t.key() for t in tasks}
        assert all(r.payload["w"] == r.worker for r in results)

    def test_process_engine_retries_transient_failures(self):
        tasks = make_tasks(n_data=3, per_data=2)
        results, stats = TaskQueue(2, "process", max_retries=2).run(
            tasks, _flaky_worker
        )
        assert stats.failed == 0 and stats.completed == len(tasks)
        assert stats.retries >= 1

    def test_process_engine_worker_init(self):
        tasks = make_tasks(n_data=3, per_data=2)
        results, stats = TaskQueue(2, "process").run(
            tasks, None, worker_init=_make_echo_worker
        )
        assert stats.failed == 0 and stats.completed == len(tasks)

    def test_timing_buckets_accumulate(self):
        tasks = make_tasks(n_data=2, per_data=2)
        _, stats = TaskQueue(2, "thread").run(
            tasks, lambda t, w: {"ok": 1}, on_result=lambda r: None
        )
        summary = stats.stage_summary()
        assert set(summary) == {"queue_wait", "execute", "checkpoint"}
        assert summary["execute"] > 0
        assert all(v >= 0 for v in summary.values())

    def test_run_requires_a_task_function(self):
        with pytest.raises(ValueError):
            TaskQueue(1, "serial").run([], None)


def _echo_worker(task, worker):
    """Module-level so the process engine can pickle it."""
    return {"w": worker, "d": task.data_id}


_FLAKY_FAILED = set()


def _make_echo_worker():
    return _echo_worker


def _flaky_worker(task, worker):
    """Fails each data/0 task's first attempt in a given process."""
    if task.data_id == "data/0" and task.key() not in _FLAKY_FAILED:
        _FLAKY_FAILED.add(task.key())
        raise TaskFailedError("transient process fault", task_key=task.key())
    return {"w": worker}


class TestAffinityDispatch:
    """Worker-pinned dispatch: datum → worker affinity on the process
    engine, with steal-on-idle and per-task hit accounting."""

    def test_affinity_hit_rate_with_groups_twice_workers(self):
        # 4 datum groups on 2 workers (>= 2x), 6 tasks per datum: each
        # group costs exactly one cold load, everything else is pinned.
        tasks = make_tasks(n_data=4, per_data=6)
        results, stats = TaskQueue(2, "process").run(tasks, _echo_worker)
        assert stats.completed == len(tasks)
        assert stats.affinity_hits + stats.affinity_misses == len(tasks)
        assert stats.affinity_hit_rate >= 0.8
        # Whole-group chunks: every task of a datum ran on one worker.
        by_datum = {}
        for r in results:
            by_datum.setdefault(r.task.data_id, set()).add(r.worker)
        assert all(len(ws) == 1 for ws in by_datum.values())

    def test_chunked_dispatch_completes_and_accounts_every_task(self):
        tasks = make_tasks(n_data=3, per_data=4)
        results, stats = TaskQueue(2, "process", chunk_size=2).run(
            tasks, _echo_worker
        )
        assert stats.completed == len(tasks)
        assert {r.task.key() for r in results} == {t.key() for t in tasks}
        assert stats.affinity_hits + stats.affinity_misses == len(tasks)
        assert stats.affinity_hits > 0
        # The affinity counters mirror into the locality stats so both
        # engines report locality through one vocabulary.
        assert stats.locality_hits == stats.affinity_hits

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            TaskQueue(2, "process", chunk_size=0)


class TestFaultInjector:
    def test_fails_only_first_attempt(self):
        tasks = make_tasks(n_data=1, per_data=1)
        fn = FaultInjector(lambda t, w: {"ok": 1}, fail_first_attempt_every=1)
        with pytest.raises(TaskFailedError):
            fn(tasks[0], 0)
        assert fn(tasks[0], 0) == {"ok": 1}


_CRASH_DIR_ENV = "REPRO_TEST_CRASH_DIR"


def _crash_once_worker(task, worker):
    """Kills its worker process on the first data/0 task ever seen.

    The once-only latch is a marker file so it survives the worker's
    death (the rebuilt pool must not crash again on the same task).
    """
    if task.data_id == "data/0":
        marker = os.path.join(os.environ[_CRASH_DIR_ENV], "crashed")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            os._exit(3)
    return {"w": worker}


def _always_crash_worker(task, worker):
    os._exit(5)


def _hang_once_worker(task, worker):
    """First attempt of the flagged task hangs well past any deadline."""
    marker = os.path.join(os.environ[_CRASH_DIR_ENV], "hung")
    if task.data_id == "data/0":
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            os.close(fd)
            time.sleep(60)
    return {"w": worker}


class TestSupervision:
    """Hang detection, crash recovery, and permanent-failure quarantine."""

    def test_permanent_status_quarantined_with_attempts_one(self):
        from repro.core import UnsupportedError

        tasks = make_tasks(n_data=2, per_data=1)
        bad = tasks[0].key()

        def fn(task, worker):
            if task.key() == bad:
                raise UnsupportedError("cannot model this compressor")
            return {"ok": 1}

        results, stats = TaskQueue(1, "serial", max_retries=5).run(tasks, fn)
        assert stats.quarantined == 1 and stats.retries == 0
        failed = [r for r in results if not r.ok][0]
        assert failed.attempts == 1
        assert failed.status == int(Status.UNSUPPORTED)

    def test_thread_watchdog_abandons_hung_task(self):
        tasks = make_tasks(n_data=3, per_data=1)
        hung_key = tasks[0].key()
        hangs = [0]
        lock = threading.Lock()

        def fn(task, worker):
            if task.key() == hung_key:
                with lock:
                    hangs[0] += 1
                    first = hangs[0] == 1
                if first:
                    time.sleep(30)  # well past the deadline
            return {"ok": 1}

        t0 = time.monotonic()
        results, stats = TaskQueue(
            2, "thread", max_retries=2, task_timeout=0.2
        ).run(tasks, fn)
        elapsed = time.monotonic() - t0
        assert elapsed < 10  # did not wait out the 30s sleep
        assert stats.failed == 0 and stats.completed == len(tasks)
        assert stats.timeouts == 1 and stats.retries >= 1
        assert {r.task.key() for r in results} == {t.key() for t in tasks}

    def test_thread_watchdog_fails_task_hanging_every_attempt(self):
        tasks = make_tasks(n_data=2, per_data=1)
        hung_key = tasks[0].key()

        def fn(task, worker):
            if task.key() == hung_key:
                time.sleep(30)
            return {"ok": 1}

        results, stats = TaskQueue(
            2, "thread", max_retries=1, task_timeout=0.2
        ).run(tasks, fn)
        assert stats.completed == 1 and stats.failed == 1
        failed = [r for r in results if not r.ok][0]
        assert failed.status == int(Status.TIMEOUT)
        assert "deadline" in failed.error
        assert failed.attempts == 2  # original + one retried hang

    def test_process_pool_crash_recovers_without_losing_tasks(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_CRASH_DIR_ENV, str(tmp_path))
        tasks = make_tasks(n_data=3, per_data=2)
        results, stats = TaskQueue(2, "process").run(tasks, _crash_once_worker)
        assert stats.failed == 0 and stats.completed == len(tasks)
        assert {r.task.key() for r in results} == {t.key() for t in tasks}
        assert stats.pool_rebuilds >= 1
        # Pool-level faults are not charged to tasks: nothing needed more
        # than one *task* attempt, because the crash broke the pool, not
        # the task.
        assert all(r.attempts == 1 for r in results)
        # ... and they never pollute the per-worker balance stats.
        assert all(w >= 0 for w in stats.per_worker)

    def test_crash_looping_worker_fails_run_with_diagnosis(self):
        tasks = make_tasks(n_data=2, per_data=1)
        results, stats = TaskQueue(2, "process", max_pool_rebuilds=1).run(
            tasks, _always_crash_worker
        )
        assert stats.completed == 0 and stats.failed == len(tasks)
        assert stats.pool_rebuilds == 2  # the cap (1) + the final strike
        assert all("crash-looping" in r.error for r in results)
        assert all(w >= 0 for w in stats.per_worker)

    def test_process_deadline_recycles_pool_on_hang(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_CRASH_DIR_ENV, str(tmp_path))
        tasks = make_tasks(n_data=2, per_data=1)
        t0 = time.monotonic()
        results, stats = TaskQueue(
            2, "process", max_retries=2, task_timeout=0.5
        ).run(tasks, _hang_once_worker)
        elapsed = time.monotonic() - t0
        assert elapsed < 30  # did not wait out the 60s hang
        assert stats.failed == 0 and stats.completed == len(tasks)
        assert stats.timeouts >= 1
        assert stats.pool_rebuilds >= 1


class TestPoisonKeysThreadEngine:
    """Satellite: FaultInjector.poison_keys under the thread engine."""

    def test_poison_exhausts_retries_and_overrides_exclusion(self):
        tasks = make_tasks(n_data=3, per_data=2)
        poison = {tasks[0].key()}
        fn = FaultInjector(lambda t, w: {"ok": 1}, poison_keys=poison)
        results, stats = TaskQueue(3, "thread", max_retries=3).run(tasks, fn)
        # The queue drains: every healthy task completes, the poison task
        # fails after exhausting all attempts, and nothing blocks.
        assert stats.completed == len(tasks) - 1
        assert stats.failed == 1
        assert {r.task.key() for r in results} == {t.key() for t in tasks}
        failed = [r for r in results if not r.ok][0]
        assert failed.task.key() in poison
        assert failed.attempts == 4  # original + max_retries
        # Three failures land on three distinct workers (exclusion), so
        # the fourth attempt can only run via the sanctioned override.
        assert stats.exclusion_overrides == 1

    def test_many_poison_tasks_never_block_drain(self):
        tasks = make_tasks(n_data=4, per_data=2)
        poison = {t.key() for t in tasks[::2]}
        fn = FaultInjector(lambda t, w: {"ok": 1}, poison_keys=poison)
        results, stats = TaskQueue(2, "thread", max_retries=2).run(tasks, fn)
        assert stats.failed == len(poison)
        assert stats.completed == len(tasks) - len(poison)
        assert len(results) == len(tasks)
        assert all(r.attempts == 3 for r in results if not r.ok)


class TestCallbackIsolation:
    def test_failing_on_result_marks_task_failed(self):
        """A broken result sink (e.g. checkpoint write error) must not
        kill the worker; the task is recorded failed for a later rerun."""
        tasks = make_tasks(n_data=1, per_data=3)
        calls = []

        def flaky_sink(result):
            calls.append(result.task.key())
            if len(calls) == 2:
                raise IOError("disk full")

        results, stats = TaskQueue(1, "serial").run(
            tasks, lambda t, w: {"ok": 1}, on_result=flaky_sink
        )
        assert stats.completed == 2
        assert stats.failed == 1
        failed = [r for r in results if not r.ok]
        assert "disk full" in failed[0].error

    def test_threaded_store_writes(self, tmp_path):
        """Checkpoint writes from multiple worker threads are safe."""
        from repro.bench import CheckpointStore

        store = CheckpointStore(str(tmp_path / "mt.db"))
        tasks = make_tasks(n_data=4, per_data=3)

        def sink(result):
            store.put(result.task.key(), result.payload)

        _, stats = TaskQueue(4, "thread").run(
            tasks, lambda t, w: {"w": w}, on_result=sink
        )
        assert stats.failed == 0
        assert store.count() == len(tasks)
