"""Tests for fault-domain supervision: RetryPolicy, ChaosPlan, quarantine."""

import os
import time

import pytest

from repro.bench import ChaosPlan, CheckpointStore, RetryPolicy, TaskQueue
from repro.bench.faults import CHAOS_CLASSES, _stable_unit_interval
from repro.bench.tasks import Task, precompute_keys
from repro.core import Status, TaskFailedError, UnsupportedError


def make_tasks(n_data=2, per_data=2):
    tasks = [
        Task(
            data_index=d,
            data_id=f"data/{d}",
            compressor_id="sz3",
            compressor_options={"pressio:abs": 10.0 ** -(k + 2)},
            dataset_config={"entry:data_id": f"data/{d}"},
            replicate=0,
        )
        for d in range(n_data)
        for k in range(per_data)
    ]
    precompute_keys(tasks)
    return tasks


def _echo(task, worker):
    return {"ok": 1}


_ATTEMPT_LOG_ENV = "REPRO_TEST_ATTEMPT_LOG"


def _fail_twice_logging_attempts(task, worker):
    """Appends each attempt's monotonic time (one clock system-wide) to a
    file the parent reads back; module-level for the process engine."""
    with open(os.environ[_ATTEMPT_LOG_ENV], "a+") as log:
        log.write(f"{time.monotonic()!r}\n")
        log.seek(0)
        seen = len(log.read().split())
    if seen < 3:
        raise TaskFailedError("transient", task_key=task.key())
    return {"ok": 1}


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.classify(int(Status.UNSUPPORTED)) == "permanent"
        assert policy.classify(int(Status.INVALID_OPTION)) == "permanent"
        assert policy.classify(int(Status.GENERIC_ERROR)) == "transient"
        assert policy.classify(int(Status.TIMEOUT)) == "transient"
        assert policy.classify(int(Status.TASK_FAILED)) == "transient"

    def test_permanent_never_retries(self):
        policy = RetryPolicy(max_retries=5)
        assert not policy.should_retry(int(Status.UNSUPPORTED), attempts=1)
        assert policy.should_retry(int(Status.GENERIC_ERROR), attempts=1)
        assert not policy.should_retry(int(Status.GENERIC_ERROR), attempts=6)

    def test_zero_base_delay_disables_backoff(self):
        policy = RetryPolicy()
        assert policy.delay("k", 1) == 0.0
        assert policy.delay("k", 5) == 0.0

    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base_delay=0.1, backoff=2.0, jitter=0.0, max_delay=100.0)
        assert policy.delay("k", 1) == pytest.approx(0.1)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 3) == pytest.approx(0.4)

    def test_max_delay_caps(self):
        policy = RetryPolicy(base_delay=1.0, backoff=10.0, jitter=0.0, max_delay=5.0)
        assert policy.delay("k", 4) == 5.0

    def test_jitter_is_deterministic_and_bounded(self):
        a = RetryPolicy(base_delay=1.0, jitter=0.2, seed=7)
        b = RetryPolicy(base_delay=1.0, jitter=0.2, seed=7)
        c = RetryPolicy(base_delay=1.0, jitter=0.2, seed=8)
        d1, d2 = a.delay("key", 1), b.delay("key", 1)
        assert d1 == d2  # same seed reproduces the exact schedule
        assert 0.8 <= d1 <= 1.2  # within ±jitter of the raw delay
        assert a.delay("key", 1) != c.delay("key", 1)  # seed matters
        assert a.delay("key", 1) != a.delay("other", 1)  # key matters

    def test_stable_unit_interval_cross_process_safe(self):
        # SHA-256 based, not hash(): identical in any process.
        v = _stable_unit_interval(1, "crash", "abc")
        assert v == _stable_unit_interval(1, "crash", "abc")
        assert 0.0 <= v < 1.0


class TestQueuePolicyIntegration:
    def test_permanent_error_quarantined_first_attempt(self):
        tasks = make_tasks(n_data=1, per_data=2)
        bad_key = tasks[0].key()

        def fn(task, worker):
            if task.key() == bad_key:
                raise UnsupportedError("scheme cannot model this compressor")
            return {"ok": 1}

        results, stats = TaskQueue(1, "serial", max_retries=3).run(tasks, fn)
        assert stats.quarantined == 1 and stats.retries == 0
        failed = [r for r in results if not r.ok][0]
        assert failed.attempts == 1  # no attempts burned on a lost cause
        assert failed.status == int(Status.UNSUPPORTED)

    @pytest.mark.parametrize("engine,workers", [("serial", 1), ("process", 2)])
    def test_backoff_delays_are_respected(self, engine, workers, tmp_path, monkeypatch):
        monkeypatch.setenv(_ATTEMPT_LOG_ENV, str(tmp_path / "attempts"))
        tasks = make_tasks(n_data=1, per_data=1)
        policy = RetryPolicy(max_retries=2, base_delay=0.05, backoff=1.0, jitter=0.0)
        _, stats = TaskQueue(workers, engine, retry_policy=policy).run(
            tasks, _fail_twice_logging_attempts
        )
        assert stats.failed == 0 and stats.retries == 2
        assert stats.backoff_seconds == pytest.approx(0.1)
        attempts_t = [float(line) for line in (tmp_path / "attempts").read_text().split()]
        gaps = [b - a for a, b in zip(attempts_t, attempts_t[1:])]
        assert len(gaps) == 2 and all(g >= 0.045 for g in gaps), gaps

    def test_custom_permanent_statuses(self):
        tasks = make_tasks(n_data=1, per_data=1)
        policy = RetryPolicy(
            max_retries=3,
            permanent_statuses=frozenset({int(Status.TASK_FAILED)}),
        )

        def fn(task, worker):
            raise TaskFailedError("configured as permanent")

        results, stats = TaskQueue(1, "serial", retry_policy=policy).run(tasks, fn)
        assert stats.quarantined == 1
        assert results[0].attempts == 1


class TestChaosPlan:
    def test_from_spec_parses_rates(self):
        plan = ChaosPlan.from_spec("crash:0.25,hang:0.5,exception")
        assert plan.rates["crash"] == 0.25
        assert plan.rates["hang"] == 0.5
        assert plan.rates["exception"] == 1.0
        assert plan.rates["corrupt"] == 0.0

    def test_from_spec_rejects_unknown_class(self):
        with pytest.raises(ValueError, match="unknown chaos class"):
            ChaosPlan.from_spec("segfault:0.1")

    def test_selection_is_deterministic(self):
        a = ChaosPlan.from_spec("exception:0.5", seed=3)
        b = ChaosPlan.from_spec("exception:0.5", seed=3)
        keys = [t.key() for t in make_tasks(4, 4)]
        assert [a.selects("exception", k) for k in keys] == [
            b.selects("exception", k) for k in keys
        ]
        c = ChaosPlan.from_spec("exception:0.5", seed=4)
        assert [a.selects("exception", k) for k in keys] != [
            c.selects("exception", k) for k in keys
        ]

    def test_fire_once_latches_across_clones(self, tmp_path):
        plan = ChaosPlan.from_spec("exception:1.0", state_dir=str(tmp_path))
        clone = plan.bind(lambda t, w: {"ok": 1})
        assert clone._fire_once("exception", "k")
        assert not clone._fire_once("exception", "k")
        assert not plan._fire_once("exception", "k")  # shared marker state
        assert plan.injected_counts()["exception"] == 1

    def test_exception_injection_recovers_via_retries(self, tmp_path):
        tasks = make_tasks(n_data=2, per_data=2)
        plan = ChaosPlan.from_spec("exception:1.0", state_dir=str(tmp_path))
        fn = plan.bind(lambda t, w: {"ok": 1})
        results, stats = TaskQueue(1, "serial", max_retries=2).run(tasks, fn)
        # Every task faulted exactly once, then succeeded on retry.
        assert stats.failed == 0 and stats.completed == len(tasks)
        assert stats.retries == len(tasks)
        assert plan.injected_counts()["exception"] == len(tasks)

    def test_crash_degrades_to_exception_in_main_process(self, tmp_path):
        tasks = make_tasks(n_data=1, per_data=1)
        plan = ChaosPlan.from_spec("crash:1.0", state_dir=str(tmp_path))
        fn = plan.bind(lambda t, w: {"ok": 1})
        # Serial engine runs in the main process: os._exit would kill the
        # test run, so the plan must degrade to a raised fault instead.
        results, stats = TaskQueue(1, "serial", max_retries=1).run(tasks, fn)
        assert stats.failed == 0 and stats.retries == 1

    def test_sink_failures_fire_once_per_key(self, tmp_path):
        tasks = make_tasks(n_data=1, per_data=3)
        plan = ChaosPlan.from_spec("sink:1.0", state_dir=str(tmp_path))
        seen = []
        sink = plan.wrap_sink(lambda r: seen.append(r.task.key()))
        results, stats = TaskQueue(1, "serial").run(
            tasks, lambda t, w: {"ok": 1}, on_result=sink
        )
        # Each commit faulted once; tasks are marked failed (sink lost them).
        assert stats.failed == len(tasks)
        assert seen == []
        # A recovery pass commits cleanly: every marker already fired.
        results, stats = TaskQueue(1, "serial").run(
            tasks, lambda t, w: {"ok": 1}, on_result=sink
        )
        assert stats.failed == 0 and len(seen) == len(tasks)

    def test_corrupt_checkpoint_detected_by_verify(self, tmp_path):
        plan = ChaosPlan.from_spec("corrupt:1.0", state_dir=str(tmp_path / "chaos"))
        store = CheckpointStore(str(tmp_path / "c.db"))
        for i in range(4):
            store.put(f"k{i}", {"value": i})
        victims = plan.corrupt_checkpoint(store)
        assert sorted(victims) == [f"k{i}" for i in range(4)]
        quarantined = store.verify()
        assert sorted(quarantined) == sorted(victims)
        # Quarantined rows are pending again — a resume recomputes them.
        assert sorted(store.pending([f"k{i}" for i in range(4)])) == sorted(victims)
        # Markers latched: a second corruption pass finds nothing to do.
        store.put("k0", {"value": 0})
        assert plan.corrupt_checkpoint(store) == []

    def test_corrupt_checkpoint_damages_float_blocks_and_texts(self, tmp_path):
        import contextlib
        import sqlite3

        plan = ChaosPlan.from_spec("corrupt:1.0", seed=3, state_dir=str(tmp_path / "chaos"))
        store = CheckpointStore(str(tmp_path / "f.db"))
        keys = [f"k{i}" for i in range(8)]
        for i, k in enumerate(keys):
            store.put(k, {"id": i, "ratio": i + 0.5, "time": 1e-3 * i})
        read = "SELECT key, payload, floats FROM results"
        before = {k: (text, block) for k, text, block in store._db.execute(read)}
        assert sorted(plan.corrupt_checkpoint(store)) == keys
        with contextlib.closing(sqlite3.connect(str(tmp_path / "f.db"))) as db:
            after = {k: (text, block) for k, text, block in db.execute(read)}
        in_text = {k for k in keys if after[k][0] != before[k][0]}
        in_block = {k for k in keys if after[k][1] != before[k][1]}
        # Each victim is damaged in exactly one place, and both places occur.
        assert in_text and in_block and in_text | in_block == set(keys)
        assert not in_text & in_block
        assert all(len(after[k][1]) == len(before[k][1]) for k in in_block)
        assert sorted(store.verify()) == keys
        assert store.pending(keys) == keys

    def test_plan_is_picklable(self, tmp_path):
        import pickle

        plan = ChaosPlan.from_spec("crash:0.5,hang:0.25", seed=9, state_dir=str(tmp_path))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.rates == plan.rates
        assert clone.seed == plan.seed
        assert clone.state_dir == plan.state_dir

    def test_own_state_dir_is_removed_with_its_last_plan(self, tmp_path, monkeypatch):
        import pickle
        import tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        ChaosPlan.from_spec("crash:0.5")  # built and dropped at once
        assert os.listdir(tmp_path) == []

        plan = ChaosPlan.from_spec("exception:1.0")
        bound = plan.bind(_echo)
        copy = pickle.loads(pickle.dumps(bound))
        assert copy._fire_once("exception", "k")  # markers shared by the copy
        del copy  # a pickled copy never removes anything
        del plan  # the bound clone still uses the directory
        assert os.path.exists(bound._marker("exception", "k"))
        del bound
        assert os.listdir(tmp_path) == []

    def test_callers_state_dir_is_never_removed(self, tmp_path):
        plan = ChaosPlan.from_spec("exception:1.0", state_dir=str(tmp_path / "mine"))
        assert plan.bind(_echo)._fire_once("exception", "k")
        del plan
        assert len(os.listdir(tmp_path / "mine")) == 1

    def test_all_classes_enumerated(self):
        assert set(CHAOS_CLASSES) == {
            "crash",
            "hang",
            "exception",
            "corrupt",
            "sink",
            "trainer_kill",
            "publish_corrupt",
            "cache_kill",
            "rank_kill",
        }

    def test_loop_faults_fire_once_per_site_and_count(self, tmp_path):
        plan = ChaosPlan(
            trainer_kill_rate=1.0,
            publish_corrupt_rate=1.0,
            cache_kill_rate=0.0,
            seed=3,
            state_dir=str(tmp_path),
        )
        assert plan.loop_fault("trainer_kill", "round1:collect") is True
        # once-only: the same site never fires twice
        assert plan.loop_fault("trainer_kill", "round1:collect") is False
        assert plan.loop_fault("publish_corrupt", "round1:key") is True
        assert plan.loop_fault("cache_kill", "round1:worker") is False
        counts = plan.injected_counts()
        assert counts["trainer_kill"] == 1
        assert counts["publish_corrupt"] == 1
        assert counts["cache_kill"] == 0
        with pytest.raises(ValueError):
            plan.loop_fault("frobnicate", "x")
