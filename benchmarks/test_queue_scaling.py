"""Harness scaling: engine throughput and checkpoint flush batching.

The paper's pitch for LibPressio-Predict-Bench (§4.3) is that collection
must scale and survive faults; Underwood et al.'s black-box prediction
line argues the per-datum collection cost must stay cheap.  These
benches measure the harness itself:

* serial vs process wall time on a latency-bound task mix (data-load
  waits dominate task runtimes, per the paper's observation — that is
  exactly the regime where worker parallelism pays even on one core);
* checkpoint commits under buffered flush — at most one commit per
  flush interval, against one commit per task before.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.bench import CheckpointStore, Task, TaskQueue

#: Simulated data-load latency per task (seconds).  Large enough that
#: scheduling overhead (process forks) cannot swamp it.
LOAD_SECONDS = 0.015
N_DATA = 12
PER_DATA = 4


def make_tasks(n_data: int = N_DATA, per_data: int = PER_DATA) -> list[Task]:
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


def simulated_collection_task(task: Task, worker: int) -> dict:
    """One collection task: blocking load wait + a small NumPy kernel.

    Module-level so the process engine can pickle it.
    """
    time.sleep(LOAD_SECONDS)
    arr = np.linspace(0.0, 1.0, 2048)
    return {"mean": float(arr.mean()), "worker": worker}


def _constant_task(task: Task, worker: int) -> dict:
    return {"v": 1}


def _timed_run(queue: TaskQueue) -> tuple[float, object]:
    t0 = time.perf_counter()
    results, stats = queue.run(make_tasks(), simulated_collection_task)
    elapsed = time.perf_counter() - t0
    assert stats.failed == 0
    assert stats.completed == N_DATA * PER_DATA
    return elapsed, stats


class TestEngineScaling:
    def test_process_beats_serial_at_4_workers(self, record_property):
        t_serial, _ = _timed_run(TaskQueue(1, "serial"))
        t_process, stats = _timed_run(TaskQueue(4, "process"))
        record_property("serial_s", round(t_serial, 4))
        record_property("process_s", round(t_process, 4))
        record_property("process_per_worker", dict(stats.per_worker))
        assert t_process < t_serial, (
            f"process engine ({t_process:.3f}s) must beat serial ({t_serial:.3f}s)"
        )

    def test_engine_matrix_reported(self, record_property):
        """One sweep over the full engine matrix, for the record."""
        times = {}
        for engine, workers in (("serial", 1), ("process", 4)):
            elapsed, stats = _timed_run(TaskQueue(workers, engine))
            times[f"{engine}x{workers}"] = round(elapsed, 4)
            summary = stats.stage_summary()
            record_property(f"{engine}_stage_summary", {
                k: round(v, 4) for k, v in summary.items()
            })
        record_property("wall_times", times)
        # The parallel engine must beat serial on latency-bound tasks.
        assert times["processx4"] < times["serialx1"]

    def test_queue_wait_accounted_under_contention(self):
        """A chunk's turnaround beyond its own execution (slot backlog
        + transfer) is booked as queue wait, never as execute time."""
        _, stats = _timed_run(TaskQueue(4, "process"))
        assert stats.execute_seconds >= N_DATA * PER_DATA * LOAD_SECONDS * 0.9
        assert stats.queue_wait_seconds >= 0.0


class TestCheckpointFlushBatching:
    @pytest.mark.parametrize("flush_every", [1, 16])
    def test_at_most_one_commit_per_interval(self, tmp_path, flush_every):
        n_tasks = 64
        store = CheckpointStore(
            os.path.join(str(tmp_path), f"flush{flush_every}.db"),
            flush_every=flush_every,
        )
        base = store.commit_count
        queue = TaskQueue(2, "process")

        def on_result(result):
            store.put(result.task.key(), result.payload)

        tasks = make_tasks(n_data=16, per_data=4)
        assert len(tasks) == n_tasks
        results, stats = queue.run(tasks, _constant_task, on_result=on_result)
        store.flush()
        commits = store.commit_count - base
        # ≤ 1 commit per flush interval (+1 for the tail flush).
        assert commits <= n_tasks // flush_every + 1
        assert store.count() == n_tasks
        store.close()

    def test_batched_flush_is_faster(self, tmp_path, record_property):
        """The per-result commit+fsync is the collection hot path's
        dominant fixed cost; batching amortises it."""
        n = 400
        payload = {f"metric:{i}": float(i) * 1.5 for i in range(40)}

        def fill(store):
            t0 = time.perf_counter()
            for i in range(n):
                store.put(f"key-{i}", payload)
            store.flush()
            return time.perf_counter() - t0

        per_result = CheckpointStore(os.path.join(str(tmp_path), "per.db"))
        t_per = fill(per_result)
        batched = CheckpointStore(
            os.path.join(str(tmp_path), "batch.db"), flush_every=64
        )
        t_batch = fill(batched)
        record_property("per_result_s", round(t_per, 4))
        record_property("batched_s", round(t_batch, 4))
        record_property("speedup", round(t_per / t_batch, 2))
        assert batched.commit_count < per_result.commit_count
        # Commit batching must not be slower; usually it is much faster.
        assert t_batch <= t_per
