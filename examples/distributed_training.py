#!/usr/bin/env python
"""LibPressio-Predict-Bench at work: resilient distributed training (§4.3).

Demonstrates the bench's two headline behaviours on one machine:

1. **checkpointed collection** — a campaign is interrupted by injected
   faults, then *resumed*; only the missing task keys re-run;
2. **locality-aware scheduling** — tasks touching the same field land on
   the worker that already loaded it.

For real multi-rank scaling, run ``predict-bench collect --engine
cluster`` (``benchmarks/test_cluster_scaleout.py`` measures 1/2/4 ranks).

Run:  python examples/distributed_training.py
"""

import os
import tempfile
import warnings

from repro.bench import (
    ChaosPlan,
    CheckpointStore,
    ExperimentRunner,
    TaskQueue,
    format_table2,
)
from repro.core import TaskFailedError
from repro.dataset import HurricaneDataset


def main() -> None:
    dataset = HurricaneDataset(shape=(24, 24, 12), timesteps=[0, 12, 24])
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(os.path.join(tmp, "bench.db"))
        runner = ExperimentRunner(
            dataset,
            compressors=("sz3", "zfp"),
            bounds=(1e-6, 1e-4),
            schemes=("khan2023", "jin2022", "rahman2023"),
            store=store,
            queue=TaskQueue(1, "serial", max_retries=1),
            n_folds=5,
        )

        # -- 1. a faulty first run: a seeded quarter of the tasks fails once
        # and is retried; every 9th is poisoned and genuinely fails --------
        tasks = runner.build_tasks()
        poison = {t.key() for i, t in enumerate(tasks) if i % 9 == 4}

        def poisoned(task, worker):
            if task.key() in poison:
                raise TaskFailedError("poisoned task", task_key=task.key())
            return runner.run_task(task, worker)

        chaos = ChaosPlan(exception_rate=0.25, seed=3,
                          state_dir=os.path.join(tmp, "chaos"))
        faulty = chaos.bind(poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # failures are the point
            _, stats, _ = runner.collect(task_fn=faulty)
        print(f"first run : {stats.completed} ok, {stats.failed} failed, "
              f"{stats.retries} retries, checkpoint holds {store.count()} rows")

        # -- 2. the restart: only the poisoned keys re-run ------------------
        _, stats2, _ = runner.collect()  # no fault injection this time
        print(f"restart   : re-ran {stats2.completed} missing tasks "
              f"(affinity hit rate {stats2.affinity_hit_rate:.0%}); "
              f"checkpoint now {store.count()} rows")

        # -- 3. evaluate & report ------------------------------------------
        obs, _, _ = runner.collect()
        rows = runner.table2(obs)
        print()
        print(format_table2(rows, title="Hurricane (synthetic) — Table-2 layout"))


if __name__ == "__main__":
    main()
