"""The self-healing rollover pipeline: supervised retries, journaled
publish under trainer kills, at-rest corruption healing, crash-loop
cap, and a live server that follows each publish by itself."""

from __future__ import annotations

import pytest

from repro.bench import ChaosPlan, CheckpointStore, ExperimentRunner, RetryPolicy, TaskQueue
from repro.dataset import HurricaneDataset
from repro.predict.scheme import get_scheme
from repro.serve import (
    ContinuousLearner,
    DriftConfig,
    ModelRegistry,
    PredictionClient,
    PredictionServer,
    RolloverFailedError,
    ServerThread,
)

FAST_DRIFT = DriftConfig(window=8, min_observations=4, calibration=4, hysteresis=2)


class LoopEnv:
    """A seeded campaign plus everything a learner needs around it."""

    def __init__(self, tmp_path):
        self.store = CheckpointStore(str(tmp_path / "ck.db"))
        self.registry = ModelRegistry(str(tmp_path / "reg"))
        seed_runner = self.runner_factory(0)
        self.observations = seed_runner.collect().observations
        receipts = seed_runner.publish(self.registry, self.observations, verify_n=2)
        seed_runner.close()
        assert len(receipts) == 1
        self.key = receipts[0].key
        self.seed_version = receipts[0].version
        self.row = dict(self.observations[0])

    def runner_factory(self, round_no):
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
            store=self.store,
            queue=TaskQueue(1, "serial"),
            n_folds=2,
        )

    def learner(self, **kwargs):
        kwargs.setdefault(
            "retry_policy", RetryPolicy(max_retries=15, base_delay=0.0, seed=0)
        )
        kwargs.setdefault("verify_n", 2)
        return ContinuousLearner(self.registry, self.runner_factory, **kwargs)

    def close(self):
        self.store.close()


@pytest.fixture
def env(tmp_path):
    e = LoopEnv(tmp_path)
    yield e
    e.close()


class TestRolloverHappyPath:
    def test_single_attempt_publishes_next_version(self, env):
        report = env.learner().rollover(1)
        assert report.attempts == 1
        assert report.published == {env.key: "v0002"}
        assert report.stage_attempts == {
            "recover": 1,
            "collect": 1,
            "publish": 1,
            "verify": 1,
        }
        assert env.registry.latest(env.key) == "v0002"
        assert env.registry.verify() == []

    def test_recollect_is_incremental_not_restart(self, env):
        """Round N+1 reuses round N's checkpointed rows; only the new
        timestep's tasks actually run."""
        env.learner().rollover(1)
        rows_before = len(env.store.query())
        env.learner().rollover(2)
        rows_after = len(env.store.query())
        # round 2 added exactly one timestep of new tasks, not a re-run
        assert rows_after > rows_before
        assert rows_after - rows_before <= rows_before

    def test_consecutive_rollovers_monotonic_versions(self, env):
        learner = env.learner()
        versions = [learner.rollover(n).published[env.key] for n in (1, 2, 3)]
        assert versions == ["v0002", "v0003", "v0004"]
        assert env.registry.verify() == []


class TestRolloverUnderChaos:
    def test_trainer_kill_at_every_stage_converges(self, env):
        chaos = ChaosPlan.from_spec("trainer_kill:1.0", seed=1)
        report = env.learner(chaos=chaos).rollover(1)
        # killed at collect + all four publish fault points, then done
        assert chaos.injected_counts()["trainer_kill"] == 5
        assert report.attempts >= 5
        assert env.registry.latest(env.key) > env.seed_version
        assert env.registry.verify() == []
        # collect ran once more after its kill, then was memoised
        assert report.stage_attempts["collect"] == 2

    def test_publish_corrupt_blob_is_never_served(self, env):
        chaos = ChaosPlan.from_spec("publish_corrupt:1.0", seed=2)
        report = env.learner(chaos=chaos).rollover(1)
        assert chaos.injected_counts()["publish_corrupt"] == 1
        # the corrupted v0002 was quarantined and republished as v0003
        assert report.published == {env.key: "v0003"}
        assert env.registry.versions(env.key) == ["v0001", "v0003"]
        assert env.registry.load(env.key).version == "v0003"
        assert env.registry.verify() == []

    def test_crash_loop_cap_surfaces_instead_of_spinning(self, env):
        chaos = ChaosPlan.from_spec("trainer_kill:1.0", seed=3)
        learner = env.learner(chaos=chaos, retry_policy=RetryPolicy(max_retries=2))
        with pytest.raises(RolloverFailedError, match="crash-loop cap"):
            learner.rollover(1)
        # the failed rollover still left a recoverable registry
        env.registry.recover()
        assert env.registry.verify() == []

    def test_retry_policy_is_the_one_cap(self, env):
        """``max_retries=1`` allows exactly two supervised attempts."""
        chaos = ChaosPlan.from_spec("trainer_kill:1.0", seed=5)
        learner = ContinuousLearner(
            env.registry, env.runner_factory, chaos=chaos, verify_n=2,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.0, seed=0),
        )
        with pytest.raises(RolloverFailedError, match="within 2 attempts"):
            learner.rollover(1)
        assert chaos.injected_counts()["trainer_kill"] == 2

    def test_rollover_after_failed_rollover_succeeds(self, env):
        chaos = ChaosPlan.from_spec("trainer_kill:1.0", seed=4)
        with pytest.raises(RolloverFailedError):
            env.learner(chaos=chaos, retry_policy=RetryPolicy(max_retries=1)).rollover(1)
        # same chaos plan: its sites are burned, so the retry sails
        report = env.learner(chaos=chaos).rollover(1)
        assert env.registry.latest(env.key) == report.published[env.key]
        assert env.registry.verify() == []


class TestRolloverAgainstLiveServer:
    def test_run_polls_drift_and_rolls_over(self, env):
        server = PredictionServer(env.registry, drift_config=FAST_DRIFT)
        with ServerThread(server) as thread:
            host, port = thread.address
            learner = env.learner(servers=[(host, port)])
            with PredictionClient(host, port) as client:
                resp = client.predict(env.key, results=env.row)
                assert learner.fired_keys() == {}
                for _ in range(60):
                    snap = client.observe(
                        env.key,
                        resp["prediction"],
                        resp["prediction"] * 3.0,
                        version=resp["version"],
                    )
                    if snap["fired"]:
                        break
                assert env.key in learner.fired_keys()
                reports = learner.run(1, poll_interval=0.0, max_polls=5)
                assert len(reports) == 1
                # the registry names a newer version: not stale, before
                # any predict has reached the server
                assert learner.fired_keys() == {}
                assert (
                    client.predict(env.key, results=env.row)["version"]
                    == reports[0].published[env.key]
                )
                # that batch re-armed the monitor for the new version
                monitor = client.drift()["monitors"][env.key]
                assert monitor["fired"] is False
                assert monitor["version"] == reports[0].published[env.key]
