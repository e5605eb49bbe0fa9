"""Tests for the experiment runner: collection, checkpoints, Table 2."""

import json
import math
import os
import tempfile

import numpy as np
import pytest

from repro.bench import (
    ChaosPlan,
    CheckpointStore,
    ExperimentRunner,
    StageStat,
    TaskQueue,
    format_table2,
    rows_to_records,
)
from repro.core import TaskFailedError
from repro.dataset import HurricaneDataset
from tests.reference_runner import comparable


@pytest.fixture(scope="module")
def runner_and_obs():
    ds = HurricaneDataset(shape=(12, 12, 8), timesteps=[0, 24])  # all 13 fields
    runner = ExperimentRunner(
        ds,
        compressors=("sz3", "zfp"),
        bounds=(1e-4,),
        schemes=("khan2023", "jin2022", "rahman2023"),
        n_folds=5,
    )
    obs, stats, _ = runner.collect()
    return runner, obs, stats


class TestStageStat:
    def test_from_samples(self):
        stat = StageStat.from_samples([0.001, 0.002, 0.003])
        assert stat.mean == pytest.approx(0.002)
        assert stat.n == 3
        assert "±" in stat.ms()

    def test_empty_not_available(self):
        stat = StageStat.from_samples([])
        assert not stat.available and stat.ms() == "N/A"

    def test_nan_samples_dropped(self):
        stat = StageStat.from_samples([0.001, float("nan")])
        assert stat.n == 1


class TestCollection:
    def test_all_tasks_collected(self, runner_and_obs):
        runner, obs, stats = runner_and_obs
        assert stats.failed == 0
        assert len(obs) == 13 * 2 * 2  # fields*steps x compressors x 1 bound

    def test_observation_contents(self, runner_and_obs):
        _, obs, _ = runner_and_obs
        sample = obs[0]
        assert sample["size:compression_ratio"] > 0
        assert "time:compress" in sample
        assert "error_stat:max_error" in sample
        assert sample["error_stat:max_error"] <= sample["effective_bound"] * 1.01

    def test_jin_marked_unsupported_on_zfp(self, runner_and_obs):
        _, obs, _ = runner_and_obs
        zfp_obs = [o for o in obs if o["compressor"] == "zfp"]
        assert all(o["scheme:jin2022:supported"] is False for o in zfp_obs)
        assert all(o["scheme:khan2023:supported"] is True for o in zfp_obs)

    def test_relative_bounds_scale_with_range(self, runner_and_obs):
        _, obs, _ = runner_and_obs
        by_field = {}
        for o in obs:
            if o["compressor"] == "sz3":
                by_field[o["field"]] = o["effective_bound"]
        # P spans hundreds; QRAIN spans ~1e-3: effective bounds differ.
        assert by_field["P"] > by_field["QRAIN"] * 100

    def test_checkpoint_resume_skips_done(self):
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P", "U"])
        store = CheckpointStore(":memory:")
        runner = ExperimentRunner(
            ds, compressors=("szx",), bounds=(1e-4,), schemes=("tao2019",), store=store
        )
        calls = []

        def counting(task, worker):
            calls.append(task.key())
            return runner.run_task(task, worker)

        runner.collect(task_fn=counting)
        first = len(calls)
        runner.collect(task_fn=counting)
        assert len(calls) == first  # nothing re-ran

    def test_resume_that_runs_nothing_keeps_the_harness_statistics(self):
        """``report`` on a checkpoint that was merely re-opened must still
        show the pass that did the work: a no-op resume used to overwrite
        ``completed: 4, execute: ...`` with ``completed: 0, execute: 0.0``."""
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P", "U"])
        store = CheckpointStore(":memory:")
        runner = ExperimentRunner(
            ds, compressors=("szx",), bounds=(1e-4, 1e-3), schemes=("tao2019",), store=store
        )
        assert store.get_meta("last_run_stats") is None
        runner.collect()
        written = store.get_meta("last_run_stats")
        stats = json.loads(written)
        assert stats["completed"] == 4
        assert stats["stage_summary"]["execute"] > 0
        assert runner.collect().stats.completed == 0
        assert store.get_meta("last_run_stats") == written
        # A pass that ran anything overwrites, as before.
        wider = ExperimentRunner(
            ds, compressors=("szx",), bounds=(1e-4, 1e-3, 1e-2), schemes=("tao2019",),
            store=store,
        )
        assert wider.collect().stats.completed == 2
        assert json.loads(store.get_meta("last_run_stats"))["completed"] == 2

    def test_process_engine_collection(self, tmp_path):
        """Collection through worker processes: per-worker dataset init,
        checkpoint writes in the parent, buffered flush."""
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0, 12], fields=["P", "U"])
        store = CheckpointStore(str(tmp_path / "proc.db"), flush_every=4)
        runner = ExperimentRunner(
            ds,
            compressors=("szx",),
            bounds=(1e-4,),
            schemes=("tao2019",),
            store=store,
            queue=TaskQueue(2, "process"),
        )
        obs, stats, _ = runner.collect()
        assert stats.failed == 0
        assert len(obs) == 4
        assert len(stats.per_worker) >= 1
        # The flush at the end of collect() made everything durable.
        reopened = CheckpointStore(str(tmp_path / "proc.db"))
        assert reopened.count() == 4

    def test_fault_injection_with_retry_completes(self):
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P", "U", "TC"])
        runner = ExperimentRunner(
            ds,
            compressors=("szx",),
            bounds=(1e-4,),
            schemes=("tao2019",),
            queue=TaskQueue(1, "serial", max_retries=2),
        )
        tasks = runner.build_tasks()
        fail_first = {t.key() for t in tasks[1::2]}
        seen = set()

        def fn(task, worker):
            if task.key() in fail_first and task.key() not in seen:
                seen.add(task.key())
                raise TaskFailedError("injected transient fault", task_key=task.key())
            return runner.run_task(task, worker)

        obs, stats, _ = runner.collect(task_fn=fn)
        assert stats.failed == 0
        assert stats.retries > 0
        assert len(obs) == 3


class TestEvaluation:
    def test_table2_rows_complete(self, runner_and_obs):
        runner, obs, _ = runner_and_obs
        rows = runner.table2(obs)
        names = [(r.method, r.compressor) for r in rows]
        assert ("sz3", "sz3") in names and ("zfp", "zfp") in names
        assert ("jin2022", "zfp") in names

    def test_jin_zfp_unsupported_row(self, runner_and_obs):
        runner, obs, _ = runner_and_obs
        rows = runner.table2(obs)
        jin_zfp = next(r for r in rows if r.method == "jin2022" and r.compressor == "zfp")
        assert not jin_zfp.supported
        assert math.isnan(jin_zfp.medape_pct)

    def test_quality_ordering_matches_paper(self, runner_and_obs):
        """rahman (trained) beats khan (sampled) on the sparse/dense mix."""
        runner, obs, _ = runner_and_obs
        rows = {(r.method, r.compressor): r for r in runner.table2(obs)}
        assert rows[("rahman2023", "sz3")].medape_pct < rows[("khan2023", "sz3")].medape_pct
        assert rows[("rahman2023", "zfp")].medape_pct < rows[("khan2023", "zfp")].medape_pct

    def test_timing_stages_present(self, runner_and_obs):
        runner, obs, _ = runner_and_obs
        rows = {(r.method, r.compressor): r for r in runner.table2(obs)}
        khan = rows[("khan2023", "sz3")]
        assert khan.error_dependent.available and not khan.error_agnostic.available
        rahman = rows[("rahman2023", "sz3")]
        assert rahman.error_agnostic.available and not rahman.error_dependent.available
        assert rahman.fit.available and rahman.inference.available
        assert rahman.training.available
        baseline = rows[("sz3", "sz3")]
        assert baseline.compress.available and baseline.decompress.available

    def test_report_rendering(self, runner_and_obs):
        runner, obs, _ = runner_and_obs
        rows = runner.table2(obs)
        text = format_table2(rows, title="t")
        assert "MedAPE" in text and "sz3 rahman2023" in text and "N/A" in text
        records = rows_to_records(rows)
        assert len(records) == len(rows)
        assert all("medape_pct" in r for r in records)


def _cells(runner, observations):
    """(method, compressor) -> (MedAPE bytes, n) of every Table 2 cell."""
    return {
        (r.method, r.compressor): (np.float64(r.medape_pct).tobytes(), r.n_observations)
        for r in runner.table2(observations)
    }


class TestFitOrder:
    """Every fit sees its rows in one order, so Table 2 moves neither with
    the order the rows arrive in nor with the campaign's other schemes."""

    def test_reversed_and_shuffled_rows_give_the_same_table(self, runner_and_obs):
        runner, obs, _ = runner_and_obs
        want = _cells(runner, obs)
        shuffled = list(obs)
        np.random.default_rng(7).shuffle(shuffled)
        assert _cells(runner, obs[::-1]) == want
        assert _cells(runner, shuffled) == want

    @pytest.mark.parametrize("protocol", ["out_of_sample", "in_sample"])
    def test_an_extra_scheme_in_the_campaign_moves_no_cell(self, protocol):
        ds = HurricaneDataset(
            shape=(12, 12, 8), timesteps=[0, 24], fields=["CLOUD", "P", "QRAIN", "U", "TC"]
        )

        def campaign(schemes):
            runner = ExperimentRunner(
                ds, compressors=("zfp",), bounds=(1e-4,), schemes=schemes,
                n_folds=5, protocol=protocol,
            )
            return runner, runner.collect().observations

        base, base_obs = campaign(("rahman2023",))
        wider, wider_obs = campaign(("rahman2023", "tao2019"))
        # The task keys hash the scheme set, so the rows arrive in another order.
        assert [o["data_id"] for o in base_obs] != [o["data_id"] for o in wider_obs]
        want = _cells(base, base_obs)
        got = _cells(wider, wider_obs)
        assert {cell: got[cell] for cell in want} == want


def _names(directory, prefix):
    try:
        return {n for n in os.listdir(directory) if n.startswith(prefix)}
    except FileNotFoundError:  # pragma: no cover - no tmpfs /dev/shm here
        return set()


@pytest.mark.parametrize("chaos_spec", [None, "crash:1.0"], ids=["normal", "crash"])
def test_process_collect_has_one_data_path(tmp_path, chaos_spec):
    """The worker's load is ``dataset.load_data`` and nothing else: a
    process-engine collect() — also one whose workers are all killed
    once — creates no shared-memory segment and no handoff directory,
    and observes what the serial engine observes."""

    def runner(queue):
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P", "U"])
        return ExperimentRunner(ds, compressors=("szx",), bounds=(1e-4, 1e-3),
                                schemes=("tao2019", "khan2023"), queue=queue)

    expected, _, _ = runner(TaskQueue(1, "serial")).collect()
    shm_before = _names("/dev/shm", "psio")
    tmp_before = _names(tempfile.gettempdir(), "repro-data-plane-")
    chaos = None
    if chaos_spec:
        chaos = ChaosPlan.from_spec(chaos_spec, seed=7, state_dir=str(tmp_path))
    observations, stats, failures = runner(
        TaskQueue(2, "process", max_pool_rebuilds=10)
    ).collect(chaos=chaos)
    assert failures == [] and stats.failed == 0
    if chaos:
        assert stats.pool_rebuilds >= 1 and chaos.injected_counts()["crash"] >= 1
    assert comparable(observations) == comparable(expected)
    assert _names("/dev/shm", "psio") == shm_before
    assert _names(tempfile.gettempdir(), "repro-data-plane-") == tmp_before


class TestFaultDomainCollection:
    """collect() under failures: the result triple, the ledger, healing."""

    @staticmethod
    def _small_runner(store=None):
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P", "U"])
        return ExperimentRunner(
            ds,
            compressors=("szx",),
            bounds=(1e-4,),
            schemes=("tao2019",),
            store=store or CheckpointStore(":memory:"),
        )

    def test_collect_returns_failures(self):
        from repro.bench import CollectionResult
        from repro.core import TaskFailedError

        runner = self._small_runner()
        bad = runner.build_tasks()[0].key()

        def fn(task, worker):
            if task.key() == bad:
                raise TaskFailedError("always fails", task_key=task.key())
            return runner.run_task(task, worker)

        with pytest.warns(UserWarning, match="failed after retries"):
            result = runner.collect(task_fn=fn)
        assert isinstance(result, CollectionResult)
        obs, stats, failures = result
        assert stats.failed == 1 and len(failures) == 1
        assert failures[0].task.key() == bad
        assert "always fails" in failures[0].error
        # The failure is also in the persistent ledger.
        assert runner.store.failed_keys() == {bad}

    def test_permanent_failures_skipped_on_resume(self):
        from repro.core import Status, UnsupportedError

        runner = self._small_runner()
        bad = runner.build_tasks()[0].key()
        calls = []

        def fn(task, worker):
            calls.append(task.key())
            if task.key() == bad:
                raise UnsupportedError("can never succeed")
            return runner.run_task(task, worker)

        with pytest.warns(UserWarning):
            _, _, failures = runner.collect(task_fn=fn)
        assert failures[0].status == int(Status.UNSUPPORTED)
        assert failures[0].attempts == 1  # quarantined, not retried
        assert runner.store.poison_keys() == {bad}
        first_calls = len(calls)
        # Resume: the poison task is known hopeless and is not re-run.
        runner.collect(task_fn=fn)
        assert len(calls) == first_calls

    def test_recovered_task_clears_ledger(self):
        from repro.core import TaskFailedError

        runner = self._small_runner()
        bad = runner.build_tasks()[0].key()
        fail_now = [True]

        def fn(task, worker):
            if task.key() == bad and fail_now[0]:
                raise TaskFailedError("transient outage", task_key=task.key())
            return runner.run_task(task, worker)

        runner.queue = TaskQueue(1, "serial", max_retries=0)
        with pytest.warns(UserWarning):
            runner.collect(task_fn=fn)
        assert runner.store.failed_keys() == {bad}
        fail_now[0] = False
        _, stats, failures = runner.collect(task_fn=fn)
        assert stats.failed == 0 and failures == []
        assert runner.store.failed_keys() == set()

    def test_resume_heals_corrupted_checkpoint(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "heal.db"))
        runner = self._small_runner(store)
        obs, _, _ = runner.collect()
        keys = [t.key() for t in runner.build_tasks()]
        victim = keys[0]
        store.corrupt_rows([victim])
        # The resume's verify pass quarantines the damaged row and the
        # queue recomputes exactly that task.
        calls = []

        def counting(task, worker):
            calls.append(task.key())
            return runner.run_task(task, worker)

        with pytest.warns(UserWarning, match="quarantined"):
            obs2, stats, _ = runner.collect(task_fn=counting)
        assert calls == [victim]
        assert len(obs2) == len(obs)
        assert store.pending(keys) == []

    def test_chaos_plan_threads_through_collect(self, tmp_path):
        from repro.bench import ChaosPlan

        runner = self._small_runner()
        runner.queue = TaskQueue(1, "serial", max_retries=2)
        plan = ChaosPlan.from_spec(
            "exception:1.0", seed=5, state_dir=str(tmp_path / "chaos")
        )
        obs, stats, failures = runner.collect(chaos=plan)
        # Every task faulted once and recovered via retry; nothing lost.
        assert failures == [] and stats.failed == 0
        assert stats.retries == len(runner.build_tasks())
        assert plan.injected_counts()["exception"] == stats.retries


class TestOneScanRead:
    """``collect()`` reads the store in one scan: a resume issues one
    ``SELECT`` over ``results``, a pass that ran tasks one more, and the
    observations are the rows in key order (as ``CheckpointStore.query``
    reads them) — what a per-key ``get`` reads."""

    @staticmethod
    def _runner(store, queue=None):
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0, 1], fields=["P", "CLOUD"])
        return ExperimentRunner(
            ds,
            compressors=("szx", "sz3"),
            bounds=(1e-4, 1e-3),
            schemes=("tao2019",),
            store=store,
            queue=queue or TaskQueue(1, "serial"),
        )

    @staticmethod
    def _results_selects(store):
        """Every SELECT over ``results`` the store's connection runs."""
        selects = []

        def trace(sql):
            text = " ".join(sql.split()).upper()
            if text.startswith("SELECT") and " FROM RESULTS" in text:
                selects.append(text)

        store._db.set_trace_callback(trace)
        return selects

    @staticmethod
    def _tasks(runner):
        return sorted(runner.build_tasks(), key=lambda t: t.key())

    def _per_key(self, runner):
        return [
            p for t in self._tasks(runner) if (p := runner.store.get(t.key())) is not None
        ]

    def test_resume_is_one_select_and_cold_pass_two(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "scan.db"), flush_every=4)
        runner = self._runner(store)
        selects = self._results_selects(store)
        cold = runner.collect()
        assert cold.stats.completed == len(runner.build_tasks())
        assert 1 <= len(selects) <= 2
        assert not [s for s in selects if "WHERE" in s]
        selects.clear()
        resumed = runner.collect()
        assert resumed.stats.completed == 0
        assert selects == ["SELECT KEY, PAYLOAD, FLOATS, CHECKSUM FROM RESULTS"]
        assert resumed.observations == cold.observations

    @pytest.mark.parametrize("engine", ["serial", "process", "cluster"])
    def test_observations_equal_per_key_get_in_key_order(self, tmp_path, engine):
        from repro.bench.cluster import ClusterSpec

        workers = 1 if engine == "serial" else 2
        queue = TaskQueue(workers, engine, cluster=ClusterSpec())
        with CheckpointStore(str(tmp_path / "obs.db"), flush_every=3) as store:
            runner = self._runner(store, queue)
            cold = runner.collect()
            assert cold.stats.completed == 16 and not cold.failures
            assert cold.observations == self._per_key(runner)
            resumed = runner.collect()
            assert resumed.stats.completed == 0
            assert resumed.observations == self._per_key(runner)

    def test_quarantined_row_is_recomputed_in_its_place(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "heal.db"))
        runner = self._runner(store)
        runner.collect()
        victim = self._tasks(runner)[5].key()
        store.corrupt_rows([victim])
        with pytest.warns(UserWarning, match="quarantined 1 corrupt"):
            healed = runner.collect()
        assert healed.stats.completed == 1
        assert healed.observations == self._per_key(runner)
        assert len(healed.observations) == 16
        assert healed.observations[5]["data_id"] == self._tasks(runner)[5].data_id

    def test_unverified_collect_reads_without_an_audit(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "raw.db"))
        runner = self._runner(store)
        runner.collect()
        key = self._tasks(runner)[0].key()
        store._db.execute(
            "UPDATE results SET payload=? WHERE key=?", ('{"tampered": 1}', key)
        )
        store._db.commit()
        resumed = runner.collect(verify=False)
        assert resumed.stats.completed == 0
        assert resumed.observations[0] == {"tampered": 1}
