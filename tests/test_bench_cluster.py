"""The cluster engine end to end: spec resolution, the worker loop, TCP
spawn campaigns, launched-TCP campaigns, rank_kill chaos, and the CLI
seams.

The TCP tests fork real worker ranks over loopback — the same path
CI's engines job exercises — so they prove the whole chain:
rendezvous, init shipping (the task function travels pickled),
payloads acked to rank 0 and written there by the one ``on_result``
sink, and rank supervision.  The launched test
starts every rank itself with the environment ``mpirun`` would set, so
an ``mpirun``-launched campaign runs the exact code it does.
"""

import functools
import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from collections import deque

import pytest

from repro.bench import CheckpointStore, Task, TaskQueue
from repro.bench.cluster import ClusterSpec
from repro.bench.cluster import engine as engine_module
from repro.bench.cluster.spec import detect_launch_env, parse_hostport
from repro.bench.cluster.transport import TcpCoordinator
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


def _timed_echo_task(task, worker):
    """Reports the seconds it spent, large enough that counting them
    twice shows."""
    t0 = time.perf_counter()
    time.sleep(0.01)
    return {"seconds": time.perf_counter() - t0}


def _fail_on_data0(task, worker):
    if task.data_id == "data/0":
        raise ValueError("planned failure for data/0")
    return {"ok": 1}


class StoreSink:
    """The ``on_result`` sink a runner passes: successes go to *store*;
    ``writes`` counts them per key."""

    def __init__(self, store):
        self.store = store
        self.writes: dict[str, int] = {}

    def __call__(self, result):
        if result.ok:
            key = result.task.key()
            self.writes[key] = self.writes.get(key, 0) + 1
            self.store.put(key, result.payload)


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

    def test_pmi_launch_env_detected(self, monkeypatch):
        # MPICH/Hydra-style launchers export PMI_RANK / PMI_SIZE.
        monkeypatch.setenv("PMI_RANK", "1")
        monkeypatch.setenv("PMI_SIZE", "3")
        monkeypatch.setenv("REPRO_CLUSTER_COORD", "127.0.0.1:7621")
        spec = ClusterSpec()
        assert spec.resolve() == "launched-tcp"
        assert (spec.rank, spec.world) == (1, 3)
        assert spec.is_worker_rank

    def test_launched_env_without_coord_spawns_instead(self, monkeypatch):
        monkeypatch.setenv("SLURM_PROCID", "1")
        monkeypatch.setenv("SLURM_NTASKS", "4")
        assert ClusterSpec().resolve() == "spawn"

    def test_detect_launch_env_priority(self, monkeypatch):
        monkeypatch.setenv("SLURM_PROCID", "3")
        monkeypatch.setenv("REPRO_CLUSTER_RANK", "1")
        assert detect_launch_env()["rank"] == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            ClusterSpec(heartbeat_interval=1.0, heartbeat_timeout=0.5)

    def test_parse_hostport(self):
        assert parse_hostport("node0:7621") == ("node0", 7621)
        with pytest.raises(ValueError):
            parse_hostport("7621")
        with pytest.raises(ValueError):
            parse_hostport("node0:")


class TestEngineDowngrade:
    def test_single_worker_cluster_stays_cluster(self):
        # One worker rank is still a separate process — the 1-rank
        # cell of a scaling sweep, not a downgrade.
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
    def test_executes_and_acks_with_payloads(self):
        tasks = make_tasks(1, 2)
        transport = FakeTransport(
            [
                {
                    "op": "init",
                    "task_fn": _echo_task,
                    "heartbeat_interval": 30.0,
                },
                {"op": "run", "tasks": tasks},
                {"op": "stop"},
            ]
        )
        assert run_worker(transport, rank=1) == 0
        (result,) = [m for m in transport.sent if m["op"] == "result"]
        for task, (rank, payload, error, status, elapsed) in zip(tasks, result["outcomes"]):
            assert rank == 1
            assert payload == _echo_task(task, 1)  # the payload rides the ack
            assert error is None and status == 0 and elapsed >= 0.0
        assert transport.sent[-1] == {"op": "bye"}

    def test_task_exception_recorded_with_rank_origin(self):
        tasks = make_tasks(2, 1)
        transport = FakeTransport(
            [
                {
                    "op": "init",
                    "task_fn": _fail_on_data0,
                    "heartbeat_interval": 30.0,
                },
                {"op": "run", "tasks": tasks},
                {"op": "stop"},
            ]
        )
        assert run_worker(transport, rank=3) == 0
        (result,) = [m for m in transport.sent if m["op"] == "result"]
        failed, ok = result["outcomes"]
        assert failed[0] == 3 and failed[1] is None
        assert "planned failure" in failed[2] and failed[3] != 0
        assert ok[0] == 3 and ok[1] == {"ok": 1} and ok[2] is None

    def test_lost_coordinator_is_exit_1(self, tmp_path):
        transport = FakeTransport([])
        assert run_worker(transport, rank=1) == 1


class TestCoordinatorClose:
    """``close()`` hangs up its sockets, so no thread waits out a join."""

    def test_close_wakes_a_blocked_accept(self):
        coordinator = TcpCoordinator()
        time.sleep(0.05)  # the accept thread is blocked in accept()
        t0 = time.monotonic()
        coordinator.close()
        assert time.monotonic() - t0 < 0.2

    def test_close_hangs_up_a_connection_that_sent_no_hello(self):
        coordinator = TcpCoordinator()
        with socket.create_connection((coordinator.host, coordinator.port)) as silent:
            silent.settimeout(1.0)
            time.sleep(0.05)  # accepted; its reader waits for a hello
            t0 = time.monotonic()
            coordinator.close()
            assert time.monotonic() - t0 < 0.2
            assert silent.recv(1) == b""  # hung up, not left open


class TestTcpSpawnEndToEnd:
    def test_campaign_completes_and_merges(self, tmp_path):
        """Every rank's acked payloads merge into rank 0's one store,
        each key written once."""
        tasks = make_tasks(2, 2)
        q = TaskQueue(2, "cluster", cluster=ClusterSpec())
        with CheckpointStore(str(tmp_path / "ckpt.db")) as store:
            sink = StoreSink(store)
            results, stats = q.run(tasks, _echo_task, on_result=sink)
            assert stats.engine == "cluster"
            assert stats.completed == len(tasks) and stats.failed == 0
            assert all(r.ok and r.payload == _echo_task(r.task, r.worker) for r in results)
            assert {r.worker for r in results} <= {1, 2}
            assert stats.wire_bytes_sent > 0 and stats.wire_bytes_received > 0
            assert sink.writes == {t.key(): 1 for t in tasks}
            assert store.verify() == []

    def test_execute_seconds_are_the_ranks_task_seconds_once(self):
        # The ledger books every outcome's seconds as results arrive; the
        # task reports the seconds it spent inside the rank's timing, so
        # the two agree unless something counts them twice.
        tasks = make_tasks(2, 3)
        q = TaskQueue(2, "cluster", cluster=ClusterSpec())
        results, stats = q.run(tasks, _timed_echo_task)
        assert stats.completed == len(tasks)
        reported = sum(r.payload["seconds"] for r in results)
        assert reported >= 0.01 * len(tasks)
        assert reported <= stats.execute_seconds < 1.5 * reported

    def test_failures_travel_with_rank_origin(self):
        tasks = make_tasks(2, 1)
        q = TaskQueue(2, "cluster", max_retries=0, cluster=ClusterSpec())
        reported = []
        results, stats = q.run(tasks, _fail_on_data0, on_result=reported.append)
        assert stats.completed == 1 and stats.failed == 1
        (failure,) = [r for r in results if not r.ok]
        assert failure.worker in (1, 2)
        assert "planned failure" in failure.error
        assert failure in reported  # the sink sees failures too, rank attached

    def test_rank_kill_chaos_loses_zero_tasks(self, tmp_path):
        # Every task's first hosting rank dies abruptly (rate 1.0, no
        # ack); the once-only marker lets the requeued task run to
        # completion on the next rank.  Zero lost tasks is the
        # subsystem's headline guarantee, and no key is written twice.
        tasks = make_tasks(2, 2)
        chaos = ChaosPlan(
            rank_kill_rate=1.0, seed=11, state_dir=str(tmp_path / "chaos")
        )
        q = TaskQueue(2, "cluster", max_pool_rebuilds=16, cluster=ClusterSpec())
        with CheckpointStore(str(tmp_path / "ckpt.db")) as store:
            sink = StoreSink(store)
            _, stats = q.run(tasks, _echo_task, chaos=chaos, on_result=sink)
            assert stats.completed == len(tasks) and stats.failed == 0
            assert stats.rank_deaths >= 1
            assert stats.rank_restarts >= 1
            assert sink.writes == {t.key(): 1 for t in tasks}
            assert store.verify() == []


LAUNCHED_RANK = textwrap.dedent(
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
    spec = ClusterSpec()
    queue = TaskQueue(2, "cluster", cluster=spec)
    if spec.is_worker_rank:
        queue.run([], None)
    else:
        store = CheckpointStore(sys.argv[1])
        writes = []

        def sink(result):
            writes.append(result.task.key())
            store.put(result.task.key(), result.payload)

        results, stats = queue.run(tasks, fn, on_result=sink)
        assert spec.mode == "launched-tcp", spec.mode
        assert stats.completed == len(tasks) and stats.failed == 0, stats
        assert {r.worker for r in results} == {1, 2}, results
        assert sorted(writes) == sorted(t.key() for t in tasks)
        assert store.verify() == []
        print("LAUNCHED_OK")
    """
)


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestLaunchedTcpEndToEnd:
    def test_mpirun_style_ranks_complete_and_merge(self, tmp_path):
        """Three plain processes carrying the variables ``mpirun -n 3``
        sets: rank 0 coordinates at REPRO_CLUSTER_COORD, ranks 1-2 dial
        it, and rank 0 writes every key once; the workers write nothing."""
        script = tmp_path / "launched_rank.py"
        script.write_text(LAUNCHED_RANK, encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k not in CLUSTER_ENV}
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        env["OMPI_COMM_WORLD_SIZE"] = "3"
        env["REPRO_CLUSTER_COORD"] = f"127.0.0.1:{_free_port()}"
        ranks = [
            subprocess.Popen(
                [sys.executable, str(script), str(tmp_path / "ckpt.db")],
                env={**env, "OMPI_COMM_WORLD_RANK": str(rank)},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for rank in range(3)
        ]
        try:
            outputs = [proc.communicate(timeout=120) for proc in ranks]
        finally:
            for proc in ranks:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        for proc, (_, err) in zip(ranks, outputs):
            assert proc.returncode == 0, err
        assert "LAUNCHED_OK" in outputs[0][0]
        assert sorted(os.listdir(tmp_path)) == ["ckpt.db", "launched_rank.py"]

    def test_silent_rank_is_declared_dead_by_heartbeat_staleness(self, monkeypatch):
        """Rank 2 says hello, takes its chunk and goes silent with its
        socket open: only heartbeat staleness can tell it from a slow
        rank.  It is declared dead within ``heartbeat_timeout``, its
        chunk goes back uncharged, and rank 1 runs it.  Were staleness
        not checked, the campaign would wait for the silent rank to hang
        up, SILENCE seconds later."""
        from repro.bench.cluster.transport import TcpWorkerTransport

        SILENCE = 15.0
        port = _free_port()
        monkeypatch.setenv("OMPI_COMM_WORLD_RANK", "0")
        monkeypatch.setenv("OMPI_COMM_WORLD_SIZE", "3")
        spec = ClusterSpec(coord=f"127.0.0.1:{port}", heartbeat_interval=0.1,
                           heartbeat_timeout=1.0, worker_startup_timeout=10.0)
        taken, release = [], threading.Event()

        def silent_rank():
            transport = TcpWorkerTransport("127.0.0.1", port, 2, connect_timeout=10.0)
            try:
                transport.recv()  # init
                taken.append(transport.recv()["tasks"])  # its chunk, never acked
                release.wait(SILENCE)
            finally:
                transport.close()

        ranks = [
            threading.Thread(target=engine_module.serve_rank,
                             args=("127.0.0.1", port, 1, 10.0), daemon=True),
            threading.Thread(target=silent_rank, daemon=True),
        ]
        for rank in ranks:
            rank.start()
        tasks = make_tasks(2, 2)
        t0 = time.monotonic()
        try:
            results, stats = TaskQueue(2, "cluster", cluster=spec).run(tasks, _echo_task)
        finally:
            release.set()
        elapsed = time.monotonic() - t0
        assert spec.mode == "launched-tcp"
        assert elapsed < 5.0, f"silent rank noticed only after {elapsed:.1f}s"
        assert stats.rank_deaths == 1 and stats.rank_restarts == 0
        assert stats.completed == len(tasks) and stats.failed == 0
        assert sorted(r.task.key() for r in results) == sorted(t.key() for t in tasks)
        # The silent rank's chunk ran on rank 1, charged once.
        assert len(taken) == 1 and taken[0]
        assert {r.worker for r in results} == {1}
        assert all(r.attempts == 1 for r in results)
        for rank in ranks:
            rank.join(timeout=5.0)
            assert not rank.is_alive()


def _mark_then_echo(marker, task, worker):
    """Leaves *marker* behind once any rank has run a task."""
    open(marker, "a").close()
    return {"w": worker}


class TestAdmission:
    def test_first_chunk_goes_out_before_the_last_hello(self, tmp_path, monkeypatch):
        """Spawned rank 2 dials only once a task has run somewhere, so
        the campaign finishes promptly only if the coordinator hands
        rank 1 its first chunk without waiting for rank 2's hello."""
        marker = str(tmp_path / "first-task-ran")
        real_local_rank = engine_module._local_rank

        def rank_two_waits_for_a_task(host, port, rank, connect_timeout):
            deadline = time.monotonic() + 10.0
            while rank == 2 and not os.path.exists(marker) and time.monotonic() < deadline:
                time.sleep(0.005)
            real_local_rank(host, port, rank, connect_timeout)

        # Spawned ranks are forked: they run the patched target.
        monkeypatch.setattr(engine_module, "_local_rank", rank_two_waits_for_a_task)
        spec = ClusterSpec(worker_startup_timeout=5.0)
        t0 = time.monotonic()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, stats = TaskQueue(2, "cluster", cluster=spec).run(
                make_tasks(2, 2), functools.partial(_mark_then_echo, marker)
            )
        elapsed = time.monotonic() - t0
        assert stats.completed == 4 and stats.failed == 0
        assert not [w for w in caught if "never reported in" in str(w.message)]
        assert elapsed < spec.worker_startup_timeout
        assert 1 in {r.worker for r in results}


class TestClusterCli:
    def test_report_failures_show_origin(self, tmp_path, capsys):
        from repro.bench.cli import main

        db = str(tmp_path / "ckpt.db")
        with CheckpointStore(db) as store:
            store.record_failure(
                "deadbeef", "IOError: node fell over", status=1, origin="rank2"
            )
        rc = main(["report", db, "--failures"])
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
