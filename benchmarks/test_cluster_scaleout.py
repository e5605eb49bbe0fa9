"""Cluster scale-out: TCP worker scaling, wire cost, and rank_kill chaos.

The paper's §4.3 harness exists to make large collection campaigns
practical; the cluster engine is its multi-node form.  This benchmark
measures the spawn-TCP deployment on one host — the same code path a
SLURM-launched campaign runs, minus the network:

* **strong scaling** — one latency-bound campaign at 1, 2, and 4 worker
  ranks.  Spawned ranks pay real process startup, so the floor asserted
  is modest (4 ranks beat 1); the interesting number is the curve in the
  artifact;
* **wire bytes per task** — payloads ride the acks to rank 0, so the
  control-plane cost per task must stay flat and small (bounded here at
  64 KiB/task);
* **rank_kill chaos** — a campaign where worker ranks are abruptly
  killed (``os._exit``, no flush, no ack) mid-batch must still complete
  every task after requeue + respawn, and rank 0's store must verify
  clean: the zero-lost-tasks guarantee.

Emits ``BENCH_cluster.json``.
"""

from __future__ import annotations

import json
import os
import time

from repro.bench import CheckpointStore, Task, TaskQueue
from repro.bench.cluster import ClusterSpec
from repro.bench.faults import ChaosPlan

ARTIFACT = "BENCH_cluster.json"

#: Simulated data-load latency per task: large enough that rank
#: parallelism (not scheduling overhead) decides the wall time.
LOAD_SECONDS = 0.08
N_DATA = 8
PER_DATA = 8
#: The chaos cell runs fewer tasks: every planned kill costs a real
#: process respawn, and the cell's point is zero loss, not throughput.
CHAOS_PER_DATA = 4
WORKER_COUNTS = (1, 2, 4)


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
    """Latency-bound collection stand-in (module-level so it pickles)."""
    time.sleep(LOAD_SECONDS)
    return {"data_id": task.data_id, "worker": worker}


def _run_cell(n_workers: int, tmp_path, chaos=None, max_pool_rebuilds: int = 16,
              per_data: int = PER_DATA):
    queue = TaskQueue(n_workers, "cluster", cluster=ClusterSpec(),
                      max_pool_rebuilds=max_pool_rebuilds)
    store = CheckpointStore(str(tmp_path / f"ckpt-{n_workers}.db"))
    tasks = make_tasks(per_data=per_data)

    def on_result(result):
        if result.ok:
            store.put(result.task.key(), result.payload)

    t0 = time.perf_counter()
    results, stats = queue.run(
        tasks, simulated_collection_task, chaos=chaos, on_result=on_result
    )
    elapsed = time.perf_counter() - t0
    assert stats.failed == 0, [r.error for r in results if not r.ok][:3]
    assert stats.completed == len(tasks)
    assert sorted(store.keys()) == sorted(t.key() for t in tasks)
    assert store.verify() == []
    store.close()
    return elapsed, stats


class TestClusterScaleout:
    def test_tcp_scaling_and_rank_kill_chaos(self, tmp_path, record_property):
        report: dict = {
            "scale": os.environ.get("REPRO_BENCH_SCALE", "small"),
            "tasks": N_DATA * PER_DATA,
            "load_seconds_per_task": LOAD_SECONDS,
            "scaling": [],
        }

        timings: dict[int, float] = {}
        for n in WORKER_COUNTS:
            elapsed, stats = _run_cell(n, tmp_path)
            cs = stats.cluster_summary()
            timings[n] = elapsed
            report["scaling"].append(
                {
                    "workers": n,
                    "seconds": round(elapsed, 4),
                    "speedup_vs_1": round(timings[WORKER_COUNTS[0]] / elapsed, 3),
                    "wire_bytes_per_task": round(cs["wire_bytes_per_task"], 1),
                    "rank_deaths": cs["rank_deaths"],
                }
            )
            record_property(f"cluster_{n}w_s", round(elapsed, 4))
            # Payloads ride the acks: the control plane must stay flat
            # and cheap per task.
            assert cs["wire_bytes_per_task"] < 64 * 1024, cs

        assert timings[4] < timings[1], (
            f"4 ranks ({timings[4]:.2f}s) must beat 1 rank ({timings[1]:.2f}s) "
            f"on a {N_DATA * PER_DATA}x{LOAD_SECONDS:.0e}s latency-bound campaign"
        )

        # Chaos cell: kill the hosting rank of ~25% of tasks, first
        # attempt each.  Zero lost tasks after requeue is the
        # acceptance criterion, not a statistical outcome.
        chaos = ChaosPlan(
            rank_kill_rate=0.25, seed=13, state_dir=str(tmp_path / "chaos")
        )
        elapsed, stats = _run_cell(
            4, tmp_path / "chaos-cell", chaos=chaos, per_data=CHAOS_PER_DATA
        )
        cs = stats.cluster_summary()
        assert stats.rank_deaths >= 1, "chaos cell must actually kill ranks"
        report["rank_kill_chaos"] = {
            "workers": 4,
            "seconds": round(elapsed, 4),
            "rank_deaths": cs["rank_deaths"],
            "rank_restarts": cs["rank_restarts"],
            "tasks_completed": stats.completed,
            "tasks_lost": N_DATA * CHAOS_PER_DATA - stats.completed,
        }
        record_property("chaos_rank_deaths", cs["rank_deaths"])
        assert report["rank_kill_chaos"]["tasks_lost"] == 0

        with open(ARTIFACT, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        record_property("artifact", os.path.abspath(ARTIFACT))
