"""One way a task reaches a worker, on every engine.

``ExperimentRunner.collect`` hands ``runner.run_task`` to
``TaskQueue.run`` whatever the engine, and a chaos plan is bound to it
there, once: so the same plan must fault the same tasks, and the ledger
must charge them the same way, on the serial loop, on forked process
slots and on spawned TCP cluster ranks.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.bench import ChaosPlan, CheckpointStore, ExperimentRunner, TaskQueue
from repro.bench.cluster import ClusterSpec
from repro.dataset import HurricaneDataset
from tests.reference_runner import comparable

#: Picked so both classes select tasks, one of them both.
CHAOS_SPEC, CHAOS_SEED = "exception:0.3,sink:0.2", 2

ENGINES = {
    "serial": lambda: TaskQueue(1, "serial"),
    "process x2": lambda: TaskQueue(2, "process"),
    "cluster x2": lambda: TaskQueue(2, "cluster", cluster=ClusterSpec()),
}


def _runner(**kwargs) -> ExperimentRunner:
    return ExperimentRunner(
        HurricaneDataset(shape=(8, 8, 4), timesteps=[0, 1], fields=["P", "U", "W"]),
        compressors=("szx",),
        bounds=(1e-3, 1e-4),
        schemes=("tao2019",),
        **kwargs,
    )


def _chaos_row(engine: str, tmp_path) -> dict:
    store = CheckpointStore(str(tmp_path / f"{engine}.db"))
    runner = _runner(store=store, queue=ENGINES[engine]())
    plan = ChaosPlan.from_spec(
        CHAOS_SPEC, seed=CHAOS_SEED, state_dir=str(tmp_path / f"{engine}-chaos")
    )
    with pytest.warns(UserWarning, match="failed after retries"):
        _, stats, failures = runner.collect(chaos=plan)
    keys = [t.key() for t in runner.build_tasks()]
    row = {
        "failed": {r.task.key() for r in failures},
        # A task is retried exactly when its injected exception fired.
        "retried": {k for k in keys if os.path.exists(plan._marker("exception", k))},
        "retries": stats.retries,
        "injected": plan.injected_counts(),
        "stored": len(store.keys()),
        "origins": {f["origin"][:4] for f in store.failures()},
    }
    store.close()
    return row


def test_one_chaos_plan_faults_the_same_tasks_on_every_engine(tmp_path):
    keys = [t.key() for t in _runner().build_tasks()]
    plan = ChaosPlan.from_spec(CHAOS_SPEC, seed=CHAOS_SEED, state_dir=str(tmp_path / "plan"))
    want_retried = {k for k in keys if plan.selects("exception", k)}
    want_failed = {k for k in keys if plan.selects("sink", k)}
    assert want_retried and want_failed and want_retried & want_failed

    table = {engine: _chaos_row(engine, tmp_path) for engine in ENGINES}
    for engine, row in table.items():
        assert row["retried"] == want_retried, engine
        assert row["retries"] == len(want_retried), engine
        assert row["failed"] == want_failed, engine
        assert row["stored"] == len(keys) - len(want_failed), engine
        assert row["injected"]["exception"] == len(want_retried), engine
        assert row["injected"]["sink"] == len(want_failed), engine
        # The failure ledger names the rank on both parallel engines.
        assert row["origins"] == ({""} if engine == "serial" else {"rank"}), engine
    counts = {engine: row["injected"] for engine, row in table.items()}
    assert len({tuple(sorted(c.items())) for c in counts.values()}) == 1, counts


def test_run_task_pickles_without_store_queue_or_held_entry(tmp_path):
    store = CheckpointStore(str(tmp_path / "live.db"))
    runner = _runner(store=store, queue=TaskQueue(2, "process"))
    task = runner.build_tasks()[0]
    here = runner.run_task(task)
    assert runner._context is not None  # the field this worker holds

    run_task = pickle.loads(pickle.dumps(runner.run_task))
    clone = run_task.__self__
    assert isinstance(clone, ExperimentRunner) and clone is not runner
    assert clone.store is None and clone.queue is None and clone._context is None
    # Pickling takes nothing away from the original.
    assert runner.store is store and runner._context is not None
    assert comparable([run_task(task, 1)]) == comparable([here])
    store.close()
