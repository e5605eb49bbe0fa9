"""The cluster engine's one result path, the wire codec, and the sbatch
generator.

Worker ranks ack every batch with its outcomes, payloads included, and
rank 0 charges them through the task ledger into the campaign's one
``on_result`` sink — the path the serial and process engines take.  The
tests below pin what the rank shards and their merge used to provide —
a retried task leaving no failure row, failures attributed to their
rank, a resume recomputing exactly the missing keys, every rank's
results landing in rank 0's store, the newer write of a key winning, a
prior failure cleared by a later success, a rerun of a finished
campaign changing nothing — and that a campaign leaves no temporary
files behind.  No lost work under
``rank_kill`` and every key written once by rank 0 are pinned in
``tests/test_bench_cluster.py``.
"""

import io
import os
import tempfile

import pytest

from repro.bench import CheckpointStore, Task, TaskQueue
from repro.bench.cli import main
from repro.bench.cluster import ClusterSpec, generate_sbatch
from repro.bench.cluster.wire import (
    MAX_FRAME,
    ConnectionClosed,
    FrameError,
    encode_frame,
    recv_frame,
)
from repro.bench.runner import ExperimentRunner
from repro.dataset import HurricaneDataset
from tests.latch import once

LAUNCH_ENV = (
    "REPRO_CLUSTER_RANK", "REPRO_CLUSTER_WORLD", "REPRO_CLUSTER_COORD",
    "SLURM_PROCID", "SLURM_NTASKS", "OMPI_COMM_WORLD_RANK",
    "OMPI_COMM_WORLD_SIZE", "PMI_RANK", "PMI_SIZE",
)


@pytest.fixture(autouse=True)
def _clean_launch_env(monkeypatch):
    """No launcher environment: every campaign here spawns its ranks."""
    for name in LAUNCH_ENV:
        monkeypatch.delenv(name, raising=False)


def make_tasks(n_data=2, per_data=2):
    return [
        Task(
            data_index=d,
            data_id=f"data/{d}",
            compressor_id="sz3",
            compressor_options={"pressio:abs": 10.0 ** -(k + 2)},
            dataset_config={"entry:data_id": f"data/{d}"},
            replicate=0,
        )
        for d in range(n_data)
        for k in range(per_data)
    ]


def _echo(task, worker):
    """Module-level so spawned worker ranks can unpickle it."""
    return {"data_id": task.data_id, "worker": worker}


def _fails_once(task, worker):
    """Fails the first attempt of every task, on whichever rank runs it."""
    if once(task.key()):
        raise OSError(f"transient fault on rank {worker}")
    return _echo(task, worker)


def _poison_field_p(task, worker):
    """Every attempt on field P fails; every other task fails once."""
    if task.data_id.startswith("hurricane/P/"):
        raise ValueError(f"bad field on rank {worker}")
    return _fails_once(task, worker)


def _runner(store, **queue_kwargs):
    """A six-task campaign on two spawned ranks (task functions stand in
    for the collection, so the fields are never loaded)."""
    return ExperimentRunner(
        HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P", "U", "V"]),
        compressors=["szx"], bounds=[1e-3, 1e-4], schemes=["tao2019"], store=store,
        queue=TaskQueue(2, "cluster", cluster=ClusterSpec(), **queue_kwargs),
    )


class TestOneResultPath:
    def test_spawned_campaign_leaves_nothing_in_tmpdir(self, tmp_path, monkeypatch):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmp))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        tasks = make_tasks()
        _, stats = TaskQueue(2, "cluster", cluster=ClusterSpec()).run(tasks, _echo)
        assert stats.completed == len(tasks)
        assert os.listdir(tmp) == []

    def test_failure_then_retry_success_leaves_no_failure_row(self, tmp_path, state_dir):
        with CheckpointStore(str(tmp_path / "ckpt.db")) as store:
            runner = _runner(store, max_retries=1)
            keys = sorted(t.key() for t in runner.build_tasks())
            result = runner.collect(task_fn=_fails_once)
            assert result.stats.retries == len(keys)
            assert result.stats.completed == len(keys) and not result.failures
            assert sorted(store.keys()) == keys
            assert store.failures() == []

    def test_resume_recomputes_only_the_missing_keys(self, tmp_path):
        # A campaign cut short (a lost rank 0, say) left some rows and a
        # failure; the resume runs exactly the rest and clears the failure.
        with CheckpointStore(str(tmp_path / "ckpt.db")) as store:
            runner = _runner(store)
            tasks = runner.build_tasks()
            done, lost = tasks[:2], tasks[2:]
            for task in done:
                store.put(task.key(), {"data_id": task.data_id, "worker": -1})
            store.record_failure(lost[0].key(), "OSError: rank fell over", status=1)
            result = runner.collect(task_fn=_echo)
            assert result.stats.completed == len(lost)
            assert sorted(store.keys()) == sorted(t.key() for t in tasks)
            assert all(store.get(t.key())["worker"] == -1 for t in done)
            assert store.failures() == []
            assert store.verify() == []

    def test_report_failures_name_the_rank(self, tmp_path, capsys):
        db = str(tmp_path / "ckpt.db")
        campaign = ["--schemes", "tao2019", "--compressors", "szx", "--bounds", "1e-4",
                    "--shape", "8", "8", "4", "--timesteps", "1", "--fields", "P", "U"]
        argv = ["collect", *campaign, "--checkpoint", db, "--engine", "cluster",
                "--workers", "2", "--chaos", "exception:1.0", "--max-retries", "0",
                "--chaos-state-dir", str(tmp_path / "chaos")]
        with pytest.warns(UserWarning, match="failed after retries"):
            assert main(argv) == 1
        capsys.readouterr()
        assert main(["report", db, "--failures"]) == 1  # failures, no observations
        err = capsys.readouterr().err
        assert err.count("chaos: injected exception") == 2
        origins = {line.split(" on ")[1].split(":")[0] for line in err.splitlines()
                   if "injected" in line}
        assert origins and origins <= {"rank1", "rank2"}


class TestMergeShards:
    """What the shard merge guaranteed, on the path that replaced it:
    every rank's acked results merge into rank 0's one store."""

    def test_disjoint_shards_all_inserted(self, tmp_path):
        # Each rank runs its own share of the tasks; every share reaches
        # rank 0's store, and every row passes the store's audit.
        with CheckpointStore(str(tmp_path / "ckpt.db")) as store:
            runner = _runner(store)
            keys = sorted(t.key() for t in runner.build_tasks())
            result = runner.collect(task_fn=_echo)
            assert result.stats.completed == len(keys)
            assert sorted(store.keys()) == keys
            assert {store.get(k)["worker"] for k in keys} <= {1, 2}
            assert store.verify() == []

    def test_duplicate_key_last_writer_wins(self, tmp_path):
        # Rows an earlier campaign left for the same keys: the campaign
        # that writes them again holds the newer payloads, checksums valid.
        tasks = make_tasks()
        with CheckpointStore(str(tmp_path / "ckpt.db")) as store:
            for task in tasks:
                store.put(task.key(), {"data_id": task.data_id, "worker": -1})
            store.flush()

            def sink(result):
                if result.ok:
                    store.put(result.task.key(), result.payload)

            queue = TaskQueue(2, "cluster", cluster=ClusterSpec())
            _, stats = queue.run(tasks, _echo, on_result=sink)
            assert stats.completed == len(tasks)
            assert sorted(store.keys()) == sorted(t.key() for t in tasks)
            assert all(store.get(t.key())["worker"] in (1, 2) for t in tasks)
            assert store.verify() == []

    def test_merge_is_idempotent(self, tmp_path):
        # Running the finished campaign again dispatches nothing and
        # leaves every row as it was.
        with CheckpointStore(str(tmp_path / "ckpt.db")) as store:
            runner = _runner(store)
            first = runner.collect(task_fn=_echo)
            rows = {k: store.get(k) for k in store.keys()}
            assert len(rows) == first.stats.completed == len(runner.build_tasks())
            again = runner.collect(task_fn=_echo)
            assert again.stats.completed == 0
            assert {k: store.get(k) for k in store.keys()} == rows
            assert store.verify() == []

    def test_failure_import_is_success_aware(self, tmp_path, state_dir):
        # The flaky keys failed on one attempt and succeeded on the retry:
        # the failure ledger does not show them.  The poison keys failed
        # on every attempt: they surface, labelled with their rank.
        with CheckpointStore(str(tmp_path / "ckpt.db")) as store:
            runner = _runner(store, max_retries=1)
            tasks = runner.build_tasks()
            poison = sorted(t.key() for t in tasks if t.data_id.startswith("hurricane/P/"))
            with pytest.warns(UserWarning, match="failed after retries"):
                runner.collect(task_fn=_poison_field_p)
            ledger = store.failures()
            assert sorted(e["key"] for e in ledger) == poison
            assert {e["origin"] for e in ledger} <= {"rank1", "rank2"}
            assert sorted(store.keys()) == sorted(
                t.key() for t in tasks if t.key() not in poison
            )

    def test_prior_failure_cleared_when_a_shard_succeeded(self, tmp_path):
        # The store already holds a failure from a previous partial
        # campaign; a rank that finally completes the key clears it.
        with CheckpointStore(str(tmp_path / "ckpt.db")) as store:
            runner = _runner(store)
            flaky = runner.build_tasks()[0].key()
            store.record_failure(flaky, "IOError: was down", status=1)
            result = runner.collect(task_fn=_echo)
            assert not result.failures
            assert flaky in store.keys()
            assert store.failures() == []

    def test_resume_from_partial_shards_after_rank_loss(self, tmp_path):
        # The ranks acked part of the campaign before it was lost: pending()
        # over rank 0's store names exactly the lost work, and the resumed
        # campaign recomputes only that, completing the set.
        with CheckpointStore(str(tmp_path / "ckpt.db")) as store:
            runner = _runner(store)
            tasks = runner.build_tasks()
            all_keys = {t.key() for t in tasks}

            def sink(result):
                if result.ok:
                    store.put(result.task.key(), result.payload)

            acked = tasks[:4]
            queue = TaskQueue(2, "cluster", cluster=ClusterSpec())
            queue.run(acked, _echo, on_result=sink)
            store.flush()
            missing = set(store.pending(all_keys))
            assert missing == all_keys - {t.key() for t in acked}
            result = runner.collect(task_fn=_echo)
            assert result.stats.completed == len(missing)
            assert set(store.keys()) == all_keys
            assert store.verify() == []


class TestWireCodec:
    def test_roundtrip(self):
        msg = {"op": "run", "tasks": [1, 2, 3], "blob": b"\x00\xff" * 64}
        frame = encode_frame(msg)
        obj, nbytes = recv_frame(io.BytesIO(frame))
        assert obj == msg
        assert nbytes == len(frame)

    def test_eof_at_boundary_is_connection_closed(self):
        with pytest.raises(ConnectionClosed):
            recv_frame(io.BytesIO(b""))

    def test_truncated_frame_is_frame_error(self):
        frame = encode_frame({"op": "x"})
        with pytest.raises(FrameError):
            recv_frame(io.BytesIO(frame[:-1]))

    def test_corrupt_payload_fails_checksum(self):
        frame = bytearray(encode_frame({"op": "x", "n": 12345}))
        frame[-1] ^= 0xFF
        with pytest.raises(FrameError, match="checksum"):
            recv_frame(io.BytesIO(bytes(frame)))

    def test_oversized_announcement_rejected(self):
        header = encode_frame({})[:12]
        forged = (MAX_FRAME + 1).to_bytes(4, "big") + header[4:]
        with pytest.raises(FrameError, match="cap"):
            recv_frame(io.BytesIO(forged))



class TestSbatchGenerator:
    def test_golden_script(self, tmp_path):
        import pathlib

        script = generate_sbatch(
            "predict-bench collect --checkpoint bench.db",
            job_name="cluster-demo",
            ntasks=4,
            nodes=2,
            time_limit="02:30:00",
            partition="batch",
            account="csc999",
            coord_port=7621,
            extra_directives=["--mem=16G"],
        )
        golden = pathlib.Path(__file__).parent / "golden" / "sbatch_cluster.sh"
        assert script == golden.read_text(encoding="utf-8")

    def test_rank_and_world_plumbing_present(self):
        script = generate_sbatch("predict-bench collect", ntasks=3)
        assert 'export REPRO_CLUSTER_RANK="${SLURM_PROCID}"' in script
        assert 'export REPRO_CLUSTER_WORLD="${SLURM_NTASKS}"' in script
        assert "--engine cluster" in script
        assert "--shard-dir" not in script

    def test_single_rank_rejected(self):
        with pytest.raises(ValueError, match="ntasks"):
            generate_sbatch("predict-bench collect", ntasks=1)

    def test_single_quotes_rejected(self):
        with pytest.raises(ValueError, match="single quote"):
            generate_sbatch("predict-bench collect --fields 'U'")
