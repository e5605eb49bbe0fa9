"""§4.3 ablation: checkpoint/restart and stable option hashing.

"Fine-grained checkpoint restart allows us to re-run only the affected
results quickly" — these benches measure (1) the cost of the stable
cryptographic hash that keys the checkpoint, (2) upfront key
precomputation for a full campaign, (3) a faulty run followed by a
restart that replays only the poisoned tasks.
"""

import os

import pytest

from repro.bench import (
    CheckpointStore,
    ExperimentRunner,
    TaskQueue,
)
from repro.bench.tasks import precompute_keys
from repro.core import TaskFailedError, options_hash
from repro.dataset import HurricaneDataset


def test_options_hash_throughput(benchmark):
    opts = {
        "pressio:abs": 1e-4,
        "pressio:id": "sz3",
        "sz3:predictor": "lorenzo",
        "sz3:lossless": "zlib",
        "sz3:huffman_max_length": 16,
        "hurricane:fields": ["P", "U", "V", "W", "TC"],
        "hurricane:shape": [48, 48, 24],
    }
    digest = benchmark(options_hash, opts)
    assert len(digest) == 64


def test_campaign_key_precompute(benchmark, runner):
    """Build and hash every task of the campaign upfront (the paper
    computes hashes 'once upfront before execution begins'):
    ``build_tasks()`` encodes each distinct part once and seals every
    task from the hashed parts."""
    tasks = benchmark(runner.build_tasks)
    assert len(precompute_keys(tasks)) == len(tasks)
    benchmark.extra_info["n_tasks"] = len(tasks)


@pytest.fixture()
def small_runner(tmp_path):
    ds = HurricaneDataset(shape=(16, 16, 8), timesteps=[0, 24], fields=["P", "U", "QRAIN", "W"])
    store = CheckpointStore(os.path.join(str(tmp_path), "restart.db"))
    return ExperimentRunner(
        ds,
        compressors=("szx",),
        bounds=(1e-4,),
        schemes=("tao2019",),
        store=store,
        queue=TaskQueue(1, "serial", max_retries=1),
    )


def test_restart_replays_only_missing(benchmark, small_runner):
    """Poison a third of the first run, then benchmark the restart."""
    import warnings

    tasks = small_runner.build_tasks()
    poison = {t.key() for i, t in enumerate(tasks) if i % 3 == 0}

    def faulty(task, worker):
        if task.key() in poison:
            raise TaskFailedError("poisoned task", task_key=task.key())
        return small_runner.run_task(task, worker)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        _, stats1, _ = small_runner.collect(task_fn=faulty)
    assert stats1.failed == len(poison)

    executed = []

    def counting(task, worker):
        executed.append(task.key())
        return small_runner.run_task(task, worker)

    def restart():
        executed.clear()
        obs, stats, _ = small_runner.collect(task_fn=counting)
        return obs, stats

    obs, stats2 = benchmark.pedantic(restart, rounds=1, iterations=1)
    # Only the previously-poisoned keys re-ran (the first restart rounds
    # fill them in; later measured rounds re-run nothing).
    assert set(executed) <= poison
    assert stats2.failed == 0
    assert len(obs) == len(tasks)
    benchmark.extra_info["replayed"] = len(executed)
    benchmark.extra_info["total_tasks"] = len(tasks)


def test_checkpoint_write_read_cost(benchmark, tmp_path):
    """Per-result checkpoint round-trip cost (JSON + SQLite commit)."""
    store = CheckpointStore(os.path.join(str(tmp_path), "io.db"))
    payload = {f"metric:{i}": float(i) * 1.5 for i in range(40)}
    counter = [0]

    def roundtrip():
        key = f"key-{counter[0]}"
        counter[0] += 1
        store.put(key, payload, compressor_hash="c", dataset_hash="d")
        return store.get(key)

    out = benchmark(roundtrip)
    assert out["metric:1"] == 1.5
