"""Tests for the task queue: locality scheduling, retries, fault injection."""

import os
import random
import time

import pytest

from repro.bench import CheckpointStore, Task, TaskQueue
from repro.core import Status, TaskFailedError
from tests.latch import once

#: Both single-node engines; the behaviour below is engine-independent.
ENGINES = ["serial", "process"]


def _queue(engine, workers=2, **kwargs):
    return TaskQueue(1 if engine == "serial" else workers, engine, **kwargs)


def flaky(fail_first=(), poison=()):
    """A task function whose *fail_first* keys fail their first attempt
    and whose *poison* keys fail every attempt; ``fn.attempts`` counts
    the attempts per key."""
    attempts = {}

    def fn(task, worker):
        key = task.key()
        attempts[key] = attempts.get(key, 0) + 1
        if key in poison:
            raise TaskFailedError("poisoned task (always fails)", task_key=key)
        if key in fail_first and attempts[key] == 1:
            raise TaskFailedError("injected transient fault", task_key=key)
        return {"ok": 1}

    fn.attempts = attempts
    return fn


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
                )
            )
    return tasks


def shuffled_campaign():
    """A grouped campaign of 4 datums x 3 replicates (task ``(d, k)``
    reads datum ``d``) in a seeded shuffled order."""
    tasks = [
        Task(
            data_index=d,
            data_id=f"data/{d}",
            compressor_id="sz3",
            compressor_options={"pressio:abs": 1e-3},
            dataset_config={"entry:data_id": f"data/{d}"},
            replicate=k,
        )
        for d in range(4)
        for k in range(3)
    ]
    random.Random(25).shuffle(tasks)
    return tasks


class TestSerialOrder:
    """The serial engine runs a datum's tasks back to back, datums in
    order of first appearance, each datum's tasks in submission order."""

    def test_shuffled_grouped_campaign_runs_in_a_fixed_order(self):
        ran = []

        def fn(task, worker):
            ran.append((task.data_index, task.replicate))
            return {}

        results, _ = TaskQueue(1, "serial").run(shuffled_campaign(), fn)
        assert ran == [
            (2, 2), (2, 1), (2, 0), (0, 1), (0, 2), (0, 0),
            (3, 0), (3, 2), (3, 1), (1, 2), (1, 1), (1, 0),
        ]
        assert [(r.task.data_index, r.task.replicate) for r in results] == ran

    def test_each_result_reaches_the_sink_before_the_next_task(self):
        events = []
        TaskQueue(1, "serial").run(
            shuffled_campaign(),
            lambda task, worker: events.append("run") or {},
            on_result=lambda result: events.append("sink"),
        )
        assert events == ["run", "sink"] * 12

    def test_retry_runs_after_its_datum_and_before_the_next(self):
        ran = []

        def fn(task, worker):
            ran.append((task.data_index, task.replicate))
            if (task.data_index, task.replicate) == (2, 2) and len(ran) == 1:
                raise TaskFailedError("fails once", task_key=task.key())
            return {}

        results, stats = TaskQueue(1, "serial", max_retries=1).run(shuffled_campaign(), fn)
        assert ran[:5] == [(2, 2), (2, 1), (2, 0), (2, 2), (0, 1)]
        assert stats.completed == 12 and stats.retries == 1
        # The retry rides the warm datum: one load per datum, still.
        assert (stats.affinity_hits, stats.affinity_misses) == (9, 4)


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
        assert stats.affinity_hits == 16
        assert stats.affinity_hit_rate == pytest.approx(16 / 20)

    def test_thread_engine_is_rejected(self):
        """Replaced, not forked: no alias or fallback for the old name."""
        with pytest.raises(ValueError, match="unknown engine 'thread'"):
            TaskQueue(3, "thread")

    def test_transient_failure_retried(self):
        tasks = make_tasks(n_data=1, per_data=3)
        fn = flaky(fail_first={tasks[1].key()})
        results, stats = TaskQueue(1, "serial", max_retries=2).run(tasks, fn)
        assert stats.completed == 3
        assert stats.retries == 1
        assert {r.task.key(): r.attempts for r in results} == fn.attempts

    def test_poisoned_task_reported_not_raised(self):
        tasks = make_tasks(n_data=1, per_data=2)
        poison = {tasks[0].key()}
        fn = flaky(poison=poison)
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
        with pytest.warns(UserWarning, match="falling back to 'serial'"):
            q = TaskQueue(1, "process")
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
    """What must hold under faults on either single-node engine: every
    task is reported exactly once, and no failure is stranded."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_transient_faults_complete_exactly_once(self, workers, state_dir):
        tasks = make_tasks(n_data=6, per_data=4)
        engine = "serial" if workers == 1 else "process"
        results, stats = TaskQueue(workers, engine, max_retries=3).run(
            tasks, _fail_first_attempt_of_k0
        )
        assert stats.failed == 0
        assert stats.completed == len(tasks)
        keys = [r.task.key() for r in results]
        assert sorted(keys) == sorted(t.key() for t in tasks)  # exactly once
        assert len(set(keys)) == len(tasks)
        assert stats.retries == 6  # one injected fault per datum
        assert sorted(r.attempts for r in results) == [1] * 18 + [2] * 6

    def test_worker_waits_for_inflight_retry(self, state_dir):
        """The queue is not drained while a chunk is in flight: a failure
        that arrives after every other task completed is still retried."""
        tasks = make_tasks(n_data=5, per_data=1)
        results, stats = TaskQueue(2, "process", max_retries=2).run(
            tasks, _late_failure_on_data0
        )
        assert stats.failed == 0 and stats.completed == len(tasks)
        assert stats.retries == 1
        (late,) = [r for r in results if r.task.data_id == "data/0"]
        assert late.attempts == 2
        assert results[-1] is late

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
        _, stats = TaskQueue(2, "process").run(
            tasks, _echo_worker, on_result=lambda r: None
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


def _is_k0(task):
    return task.compressor_options["pressio:abs"] == 10.0 ** -2


def _fail_first_attempt_of_k0(task, worker):
    """Each datum's first task fails its first attempt, wherever it runs."""
    if _is_k0(task) and once(f"flaky-{task.key()}"):
        raise TaskFailedError("injected transient fault", task_key=task.key())
    return {"w": worker}


def _late_failure_on_data0(task, worker):
    """data/0 outlasts every other task, then fails its first attempt."""
    if task.data_id == "data/0" and once("late"):
        time.sleep(0.5)
        raise TaskFailedError("late transient fault", task_key=task.key())
    return {"w": worker}


def _poison_k0(task, worker):
    """Each datum's first task fails on every attempt."""
    if _is_k0(task):
        raise TaskFailedError("poisoned task (always fails)", task_key=task.key())
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

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            TaskQueue(2, "process", chunk_size=0)


class TestFaultInjector:
    def test_fails_only_first_attempt(self):
        """A task whose first attempt fails succeeds on its retry: the
        queue runs it exactly twice and reports it completed."""
        tasks = make_tasks(n_data=1, per_data=1)
        fn = flaky(fail_first={tasks[0].key()})
        with pytest.raises(TaskFailedError):
            fn(tasks[0], 0)
        assert fn(tasks[0], 0) == {"ok": 1}
        fn = flaky(fail_first={tasks[0].key()})
        results, stats = TaskQueue(1, "serial", max_retries=1).run(tasks, fn)
        assert results[0].ok and results[0].attempts == 2
        assert stats.completed == 1 and stats.retries == 1


def _crash_once_worker(task, worker):
    """Kills its worker process on the first data/0 task ever seen (the
    rebuilt slot must not crash again on the same task)."""
    if task.data_id == "data/0" and once("crashed"):
        os._exit(3)
    return {"w": worker}


def _always_crash_worker(task, worker):
    os._exit(5)


def _hang_once_worker(task, worker):
    """First attempt of the flagged task hangs well past any deadline."""
    if task.data_id == "data/0" and once("hung"):
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

    def test_process_pool_crash_recovers_without_losing_tasks(self, state_dir):
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

    def test_process_deadline_recycles_pool_on_hang(self, state_dir):
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


@pytest.mark.parametrize("engine", ENGINES)
class TestPoisonKeys:
    """Always-failing tasks exhaust their retries and never block the drain."""

    def test_poison_exhausts_retries(self, engine):
        tasks = make_tasks(n_data=3, per_data=2)
        results, stats = _queue(engine, 3, max_retries=3).run(tasks, _poison_k0)
        # The queue drains: every healthy task completes, the poison
        # tasks fail after exhausting all attempts, and nothing blocks.
        assert stats.completed == 3 and stats.failed == 3
        assert stats.retries == 9
        assert {r.task.key() for r in results} == {t.key() for t in tasks}
        for failed in (r for r in results if not r.ok):
            assert _is_k0(failed.task)
            assert "poisoned" in failed.error
            assert failed.attempts == 4  # original + max_retries

    def test_many_poison_tasks_never_block_drain(self, engine):
        tasks = make_tasks(n_data=4, per_data=2)
        results, stats = _queue(engine, max_retries=2).run(tasks, _poison_k0)
        assert stats.failed == 4
        assert stats.completed == len(tasks) - 4
        assert len(results) == len(tasks)
        assert all(r.attempts == 3 for r in results if not r.ok)


@pytest.mark.parametrize("engine", ENGINES)
class TestCallbackIsolation:
    def test_failing_on_result_marks_task_failed(self, engine):
        """A broken result sink (e.g. checkpoint write error) must not
        kill the run; the task is recorded failed for a later rerun."""
        tasks = make_tasks(n_data=1, per_data=3)
        calls = []

        def flaky_sink(result):
            calls.append(result.task.key())
            if len(calls) == 2:
                raise IOError("disk full")

        results, stats = _queue(engine).run(tasks, _echo_worker, on_result=flaky_sink)
        assert stats.completed == 2
        assert stats.failed == 1
        failed = [r for r in results if not r.ok]
        assert "disk full" in failed[0].error

    def test_sink_writes_are_batched_by_the_store(self, engine, tmp_path):
        """The sink is the single checkpoint writer on every engine, so a
        buffered store commits once per flush interval, not per task."""
        store = CheckpointStore(str(tmp_path / "ck.db"), flush_every=4)
        base = store.commit_count
        tasks = make_tasks(n_data=4, per_data=3)

        def sink(result):
            store.put(result.task.key(), result.payload)

        _, stats = _queue(engine).run(tasks, _echo_worker, on_result=sink)
        assert stats.failed == 0
        assert store.commit_count - base == len(tasks) // 4
        store.flush()
        assert store.count() == len(tasks)
        store.close()
