"""End-to-end integration tests across package boundaries."""

import os

import numpy as np
import pytest

from repro.bench import CheckpointStore, ExperimentRunner, TaskQueue, format_table2
from repro.compressors import make_compressor
from repro.core import SizeMetrics, options_hash
from repro.dataset import FolderLoader, HurricaneDataset, LocalCache, MemoryCache
from repro.predict import get_scheme


class TestFigure4Flow:
    """The paper's Figure 4 walk, verbatim through the public API."""

    def test_full_inference_flow(self, smooth_field):
        from repro.core import PressioData

        comp = make_compressor("sz3", pressio__abs=1e-3)
        scm = get_scheme("tao2019")
        pred = scm.get_predictor(comp)
        pred.set_options({"predictors:state": None})  # no prior training
        invs = [
            "pressio:abs",
            "predictors:error_dependent",
            "predictors:error_agnostic",
        ]
        evaluator = scm.req_metrics_opts(comp, invs)
        evaluator.set_options(comp.get_options())
        data = PressioData(smooth_field, metadata={"data_id": "fig4"})
        results = evaluator.evaluate(data, changed=invs)
        value = pred.predict(results.to_dict())
        assert value > 0

    def test_invalidation_narrowing_drops_metrics(self):
        """A change-set touching only the bound excludes error-agnostic
        metrics from the evaluator the scheme constructs."""
        comp = make_compressor("sz3", pressio__abs=1e-3)
        scm = get_scheme("rahman2023")
        full = scm.req_metrics_opts(comp)
        narrowed = scm.req_metrics_opts(comp, ["pressio:abs"])
        assert len(narrowed.metrics) < len(full.metrics)
        # rahman's features are all error-agnostic: nothing is needed.
        assert len(narrowed.metrics) == 0


class TestFileBackedCampaign:
    """Materialised files → stacked loaders → bench → Table 2."""

    @pytest.mark.parametrize("engine", ["serial", "process"])
    def test_pipeline_to_table(self, tmp_path, engine):
        root = str(tmp_path / "fields")
        HurricaneDataset(
            shape=(12, 12, 8), timesteps=[0, 24], fields=["P", "U", "QRAIN", "CLOUD", "TC"]
        ).write_to_directory(root)
        dataset = MemoryCache(
            LocalCache(FolderLoader(root, "*.npy"), cache_dir=str(tmp_path / "spill"))
        )
        store = CheckpointStore(os.path.join(str(tmp_path), "ck.db"))
        kwargs = dict(
            compressors=("szx",), schemes=("khan2023",), store=store, n_folds=2
        )
        workers = 1 if engine == "serial" else 2
        runner = ExperimentRunner(
            dataset, bounds=(1e-4, 1e-3), queue=TaskQueue(workers, engine), **kwargs
        )
        obs, stats, _ = runner.collect()
        assert stats.failed == 0
        assert len(obs) == 20
        text = format_table2(runner.table2(obs))
        assert "szx khan2023" in text
        spill = str(tmp_path / "spill")
        spilled = {name: os.stat(os.path.join(spill, name)).st_mtime_ns
                   for name in os.listdir(spill)}
        assert len(spilled) == 10
        # A worker holds an entry for all of its tasks, so repeat loads
        # come from the next campaign over the same loader stack: a wider
        # sweep resumes through the checkpoint and loads from the caches.
        wider = ExperimentRunner(
            dataset, bounds=(1e-4, 1e-3, 1e-2), queue=TaskQueue(workers, engine), **kwargs
        )
        obs, stats, _ = wider.collect()
        assert stats.failed == 0 and stats.completed == 10
        assert len(obs) == 30
        if engine == "serial":
            metrics = dataset.get_metrics_results()
            assert metrics["memory_cache:hits"] + metrics["local_cache:hits"] >= 10
        # The hit counters of worker processes stay in the workers; what
        # crosses the process boundary is the spill itself, reused as is.
        assert spilled == {name: os.stat(os.path.join(spill, name)).st_mtime_ns
                           for name in os.listdir(spill)}

    def test_checkpoint_shared_between_runner_instances(self, tmp_path):
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P", "W"])
        path = os.path.join(str(tmp_path), "shared.db")
        kwargs = dict(
            compressors=("szx",), bounds=(1e-4,), schemes=("tao2019",), n_folds=2
        )
        r1 = ExperimentRunner(ds, store=CheckpointStore(path), **kwargs)
        r1.collect()
        r1.store.close()
        executed = []
        r2 = ExperimentRunner(ds, store=CheckpointStore(path), **kwargs)

        def spy(task, worker):
            executed.append(task.key())
            return r2.run_task(task, worker)

        obs, _, _ = r2.collect(task_fn=spy)
        assert executed == []  # everything restored from the shared DB
        assert len(obs) == 2


class TestSessionAcrossCompressors:
    def test_one_session_per_codec_share_nothing(self, smooth_field):
        scheme = get_scheme("tao2019")
        estimates = {}
        for name in ("sz3", "zfp", "szx", "sperr"):
            comp = make_compressor(name, pressio__abs=1e-3)
            results = scheme.req_metrics_opts(comp).evaluate(smooth_field)
            results.merge(scheme.config_features(comp))
            estimates[name] = scheme.get_predictor(comp).predict(results.to_dict())
        assert all(v > 0 for v in estimates.values())
        # The estimated winner is a near-winner in reality (Tao's goal is
        # preserving the *ranking*; with sz3 and sperr within a few
        # percent of each other, picking either is a correct outcome).
        truths = {}
        for name in estimates:
            comp = make_compressor(name, pressio__abs=1e-3)
            size = SizeMetrics()
            comp.set_metrics([size])
            comp.compress(smooth_field)
            truths[name] = comp.get_metrics_results()["size:compression_ratio"]
        best_est = max(estimates, key=estimates.get)
        best_true_cr = max(truths.values())
        assert truths[best_est] >= 0.85 * best_true_cr


class TestDeterminismEndToEnd:
    def test_whole_campaign_hashable_and_repeatable(self):
        """Two independent runner instances produce identical payload
        values for the same keys (determinism underwrites checkpoints)."""

        def run_once():
            ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P", "QRAIN"])
            runner = ExperimentRunner(
                ds, compressors=("szx",), bounds=(1e-4,), schemes=("khan2023",)
            )
            obs, _, _ = runner.collect()
            return {
                (o["data_id"], o["bound"]): o["size:compression_ratio"] for o in obs
            }

        assert run_once() == run_once()

    def test_configuration_hash_covers_everything_relevant(self):
        a = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], seed=1)
        b = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], seed=2)
        assert options_hash(a.get_configuration()) != options_hash(b.get_configuration())
