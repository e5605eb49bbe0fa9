"""The cluster engine end to end: spec resolution, the worker loop, TCP
spawn campaigns, rank_kill chaos, and the CLI seams.

The TCP tests fork real worker subprocesses over loopback — the same
path CI's cluster job exercises — so they prove the whole chain:
rendezvous, init shipping (pickled task functions resolve through the
propagated ``PYTHONPATH``), durable-before-ack shard writes, rank
supervision, and the final merge.  MPI tests run only where mpi4py and
a launcher exist; everywhere else they skip with a notice.
"""

import json
import shutil
import subprocess
import sys
import textwrap
import time
from collections import deque

import pytest

from repro.bench import CheckpointStore, Task, TaskQueue
from repro.bench.cluster import ClusterSpec, discover_shards, mpi_available, shard_path
from repro.bench.cluster.spec import detect_launch_env, parse_hostport
from repro.bench.cluster.wire import FrameError
from repro.bench.cluster.worker import run_worker
from repro.bench.faults import ChaosPlan


def make_tasks(n_data=2, per_data=2):
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


def _echo_task(task, worker):
    """Module-level so spawned worker ranks can unpickle it."""
    return {"data_id": task.data_id, "bound": task.compressor_options["pressio:abs"]}


def _slow_echo_task(task, worker):
    time.sleep(0.01)  # seconds large enough that counting them twice shows
    return _echo_task(task, worker)


def _fail_on_data0(task, worker):
    if task.data_id == "data/0":
        raise ValueError("planned failure for data/0")
    return {"ok": 1}


CLUSTER_ENV = (
    "REPRO_CLUSTER_RANK",
    "REPRO_CLUSTER_WORLD",
    "REPRO_CLUSTER_COORD",
    "SLURM_PROCID",
    "SLURM_NTASKS",
    "OMPI_COMM_WORLD_RANK",
    "OMPI_COMM_WORLD_SIZE",
    "PMI_RANK",
    "PMI_SIZE",
)


@pytest.fixture(autouse=True)
def _clean_launch_env(monkeypatch):
    """Tests control the launcher environment explicitly."""
    for name in CLUSTER_ENV:
        monkeypatch.delenv(name, raising=False)


class TestClusterSpec:
    def test_spawn_is_the_laptop_default(self):
        spec = ClusterSpec()
        assert spec.resolve() == "spawn"
        assert spec.rank == 0
        assert not spec.is_worker_rank

    def test_no_spawn_no_launcher_downgrades(self):
        assert ClusterSpec(spawn=False).resolve() is None

    def test_mpi_backend_without_world_downgrades(self):
        # mpi4py absent, or present with a world of 1: either way an
        # explicit backend="mpi" has no cluster to run on.
        spec = ClusterSpec(backend="mpi")
        if not mpi_available():
            assert spec.resolve() is None

    def test_launched_env_detected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_RANK", "2")
        monkeypatch.setenv("REPRO_CLUSTER_WORLD", "4")
        monkeypatch.setenv("REPRO_CLUSTER_COORD", "node0:7621")
        spec = ClusterSpec()
        assert spec.resolve() == "launched-tcp"
        assert spec.rank == 2 and spec.world == 4
        assert spec.coord == "node0:7621"
        assert spec.is_worker_rank

    def test_launched_rank0_is_coordinator(self, monkeypatch):
        monkeypatch.setenv("SLURM_PROCID", "0")
        monkeypatch.setenv("SLURM_NTASKS", "4")
        spec = ClusterSpec(coord="127.0.0.1:7621")
        assert spec.resolve() == "launched-tcp"
        assert not spec.is_worker_rank

    def test_launched_env_without_coord_spawns_instead(self, monkeypatch):
        monkeypatch.setenv("SLURM_PROCID", "1")
        monkeypatch.setenv("SLURM_NTASKS", "4")
        assert ClusterSpec().resolve() == "spawn"

    def test_detect_launch_env_priority(self, monkeypatch):
        monkeypatch.setenv("SLURM_PROCID", "3")
        monkeypatch.setenv("REPRO_CLUSTER_RANK", "1")
        assert detect_launch_env()["rank"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="backend"):
            ClusterSpec(backend="carrier-pigeon")
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            ClusterSpec(heartbeat_interval=1.0, heartbeat_timeout=0.5)

    def test_parse_hostport(self):
        assert parse_hostport("node0:7621") == ("node0", 7621)
        with pytest.raises(ValueError):
            parse_hostport("7621")
        with pytest.raises(ValueError):
            parse_hostport("node0:")


class TestEngineDowngrade:
    def test_no_deployment_downgrades_to_process_with_warning(self):
        with pytest.warns(UserWarning, match="falling back to 'process'"):
            q = TaskQueue(2, "cluster", cluster=ClusterSpec(spawn=False))
        assert q.engine == "process"
        assert q.requested_engine == "cluster"

    def test_downgrade_recorded_in_stats(self):
        with pytest.warns(UserWarning, match="falling back to 'process'"):
            q = TaskQueue(2, "cluster", cluster=ClusterSpec(spawn=False))
        _, stats = q.run(make_tasks(1, 1), _echo_task)
        assert stats.engine == "process"
        assert stats.requested_engine == "cluster"

    def test_single_worker_cluster_stays_cluster(self):
        # One worker rank is still a separate process with its own
        # shard — the 1-rank cell of a scaling sweep, not a downgrade.
        q = TaskQueue(1, "cluster", cluster=ClusterSpec())
        assert q.engine == "cluster"

    def test_cluster_run_without_task_fn_requires_worker_rank(self):
        q = TaskQueue(2, "cluster", cluster=ClusterSpec())
        with pytest.raises(ValueError, match="task_fn"):
            q.run(make_tasks(1, 1), None)


class FakeTransport:
    """Scripted in-process transport for worker-loop unit tests."""

    def __init__(self, script):
        self._script = deque(script)
        self.sent = []
        self.bytes_sent = 0
        self.bytes_received = 0

    def recv(self):
        if not self._script:
            raise FrameError("script exhausted")
        return self._script.popleft()

    def send(self, msg):
        self.sent.append(msg)
        return 0


class TestWorkerLoop:
    def test_executes_flushes_and_acks_without_payload(self, tmp_path):
        tasks = make_tasks(1, 2)
        shard = shard_path(str(tmp_path), 1)
        transport = FakeTransport(
            [
                {
                    "op": "init",
                    "worker_init": None,
                    "task_fn": _echo_task,
                    "chaos": None,
                    "shard_path": shard,
                    "heartbeat_interval": 30.0,
                    "flush_every": 2,
                },
                {"op": "run", "tasks": tasks},
                {"op": "stop"},
            ]
        )
        assert run_worker(transport, rank=1) == 0
        results = [m for m in transport.sent if m["op"] == "result"]
        assert len(results) == 1
        for rank, payload, error, status, elapsed in results[0]["outcomes"]:
            assert rank == 1
            assert payload is None  # payloads live in the shard, not the ack
            assert error is None
        bye = [m for m in transport.sent if m["op"] == "bye"]
        assert bye and bye[0]["stats"]["completed"] == 2
        with CheckpointStore(shard) as store:
            assert sorted(store.keys()) == sorted(t.key() for t in tasks)
            assert store.verify() == []
            assert store.get_meta("last_run_stats") is not None

    def test_task_exception_recorded_with_rank_origin(self, tmp_path):
        tasks = make_tasks(2, 1)
        shard = shard_path(str(tmp_path), 3)
        transport = FakeTransport(
            [
                {
                    "op": "init",
                    "worker_init": None,
                    "task_fn": _fail_on_data0,
                    "chaos": None,
                    "shard_path": shard,
                    "heartbeat_interval": 30.0,
                    "flush_every": 4,
                },
                {"op": "run", "tasks": tasks},
                {"op": "stop"},
            ]
        )
        assert run_worker(transport, rank=3) == 0
        (result,) = [m for m in transport.sent if m["op"] == "result"]
        errors = [o[2] for o in result["outcomes"]]
        assert any(e and "planned failure" in e for e in errors)
        assert any(e is None for e in errors)
        with CheckpointStore(shard) as store:
            ledger = store.failures()
            assert len(ledger) == 1
            assert ledger[0]["origin"] == "rank3"

    def test_lost_coordinator_is_exit_1(self, tmp_path):
        transport = FakeTransport([])
        assert run_worker(transport, rank=1) == 1


class TestTcpSpawnEndToEnd:
    def test_campaign_completes_and_merges(self, tmp_path):
        tasks = make_tasks(2, 2)
        spec = ClusterSpec(shard_dir=str(tmp_path / "shards"))
        q = TaskQueue(2, "cluster", cluster=spec)
        store = CheckpointStore(str(tmp_path / "merged.db"))
        results, stats = q.run(tasks, _echo_task, merge_store=store)
        assert stats.engine == "cluster"
        assert stats.completed == len(tasks) and stats.failed == 0
        assert all(r.ok and r.payload is None for r in results)
        assert {r.worker for r in results} <= {1, 2}
        assert stats.shards_merged == len(discover_shards(str(tmp_path / "shards")))
        assert stats.shards_merged >= 1
        assert stats.wire_bytes_sent > 0 and stats.wire_bytes_received > 0
        assert sorted(store.keys()) == sorted(t.key() for t in tasks)
        assert store.verify() == []
        store.close()

    def test_execute_seconds_are_the_ranks_task_seconds_once(self, tmp_path):
        # The ledger books every outcome's seconds as results arrive; the
        # ranks' own totals (shard meta, also sent with "bye") are the
        # same numbers and must not be added a second time.
        tasks = make_tasks(2, 3)
        spec = ClusterSpec(shard_dir=str(tmp_path / "shards"))
        q = TaskQueue(2, "cluster", cluster=spec)
        _, stats = q.run(tasks, _slow_echo_task)
        assert stats.completed == len(tasks)
        reported = 0.0
        for _, shard in discover_shards(str(tmp_path / "shards")):
            with CheckpointStore(shard) as store:
                reported += json.loads(store.get_meta("last_run_stats"))["execute_seconds"]
        assert reported >= 0.01 * len(tasks)
        assert stats.execute_seconds == pytest.approx(reported, rel=1e-9)

    def test_failures_travel_with_rank_origin(self, tmp_path):
        tasks = make_tasks(2, 1)
        spec = ClusterSpec(shard_dir=str(tmp_path / "shards"))
        q = TaskQueue(2, "cluster", max_retries=0, cluster=spec)
        store = CheckpointStore(str(tmp_path / "merged.db"))
        results, stats = q.run(tasks, _fail_on_data0, merge_store=store)
        assert stats.completed == 1 and stats.failed == 1
        (failure,) = [r for r in results if not r.ok]
        assert failure.worker in (1, 2)
        assert "planned failure" in failure.error
        ledger = store.failures()
        assert len(ledger) == 1 and ledger[0]["origin"].startswith("rank")
        store.close()

    def test_rank_kill_chaos_loses_zero_tasks(self, tmp_path):
        # Every task's first hosting rank dies abruptly (rate 1.0, no
        # flush, no ack); the once-only marker lets the requeued task
        # run to completion on the next rank.  Zero lost tasks is the
        # subsystem's headline guarantee.
        tasks = make_tasks(2, 2)
        chaos = ChaosPlan(
            rank_kill_rate=1.0, seed=11, state_dir=str(tmp_path / "chaos")
        )
        spec = ClusterSpec(shard_dir=str(tmp_path / "shards"))
        q = TaskQueue(2, "cluster", max_pool_rebuilds=16, cluster=spec)
        store = CheckpointStore(str(tmp_path / "merged.db"))
        results, stats = q.run(tasks, _echo_task, chaos=chaos, merge_store=store)
        assert stats.completed == len(tasks) and stats.failed == 0
        assert stats.rank_deaths >= 1
        assert stats.rank_restarts >= 1
        assert sorted(store.keys()) == sorted(t.key() for t in tasks)
        assert store.verify() == []
        store.close()


MPI_SKIP_REASON = None
if not mpi_available():
    MPI_SKIP_REASON = "mpi4py is not installed"
elif shutil.which("mpirun") is None:
    MPI_SKIP_REASON = "no mpirun launcher on PATH"

MPI_SMOKE = textwrap.dedent(
    """
    import sys

    from repro.bench import CheckpointStore, Task, TaskQueue
    from repro.bench.cluster import ClusterSpec

    def fn(task, worker):
        return {"w": worker}

    tasks = [
        Task(
            data_index=d,
            data_id=f"data/{d}",
            compressor_id="sz3",
            compressor_options={"pressio:abs": 1e-4},
            dataset_config={"entry:data_id": f"data/{d}"},
            replicate=0,
        )
        for d in range(4)
    ]
    spec = ClusterSpec(backend="mpi", shard_dir=sys.argv[1])
    queue = TaskQueue(2, "cluster", cluster=spec)
    if spec.is_worker_rank:
        queue.run([], None)
    else:
        store = CheckpointStore(sys.argv[2])
        results, stats = queue.run(tasks, fn, merge_store=store)
        assert stats.completed == len(tasks), stats
        assert stats.shards_merged == 2, stats
        assert store.verify() == []
        print("MPI_SMOKE_OK")
    """
)


@pytest.mark.skipif(MPI_SKIP_REASON is not None, reason=MPI_SKIP_REASON or "")
class TestMpiBackend:
    def test_mpi_world_smoke(self, tmp_path):
        script = tmp_path / "mpi_smoke.py"
        script.write_text(MPI_SMOKE, encoding="utf-8")
        proc = subprocess.run(
            [
                "mpirun",
                "--oversubscribe",
                "-n",
                "3",
                sys.executable,
                str(script),
                str(tmp_path / "shards"),
                str(tmp_path / "merged.db"),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "MPI_SMOKE_OK" in proc.stdout


class TestClusterCli:
    def test_report_on_empty_shard_dir(self, tmp_path, capsys):
        from repro.bench.cli import main

        assert main(["report", str(tmp_path)]) == 1
        assert "no shard" in capsys.readouterr().err

    def test_report_failures_show_origin(self, tmp_path, capsys):
        from repro.bench.cli import main

        with CheckpointStore(shard_path(str(tmp_path), 2)) as shard:
            shard.record_failure("deadbeef", "IOError: node fell over", status=1)
        rc = main(["report", str(tmp_path), "--failures"])
        captured = capsys.readouterr()
        assert rc == 1  # failures only, no observations to evaluate
        assert "on rank2" in captured.err
        assert "node fell over" in captured.err

    def test_sbatch_to_stdout(self, capsys):
        from repro.bench.cli import main

        assert main(["sbatch", "predict-bench collect", "--ntasks", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#!/bin/bash")
        assert "--engine cluster" in out

    def test_sbatch_to_file_is_executable(self, tmp_path):
        import os

        from repro.bench.cli import main

        target = tmp_path / "job.sh"
        assert main(["sbatch", "predict-bench collect", "--output", str(target)]) == 0
        assert target.read_text(encoding="utf-8").startswith("#!/bin/bash")
        assert os.access(str(target), os.X_OK)
