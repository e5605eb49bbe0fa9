"""Tests for the zero-copy data plane: shared-memory lifecycle, the
worker-pinned affinity map, and dtype/order fidelity through the
cache/handoff paths."""

import os

import numpy as np
import pytest

from repro.bench import ChaosPlan, CheckpointStore, ExperimentRunner, Task, TaskQueue
from repro.core.data import PressioData
from repro.dataset import HurricaneDataset, LocalCache, SharedMemoryCache
from repro.dataset.base import DatasetPlugin
from repro.dataset.shm import (
    DATA_PLANES,
    PLANE_COUNTERS,
    PlaneCounters,
    SharedSegmentRegistry,
)


def make_tasks(n_data=4, per_data=3):
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
                    nbytes=1 << 20,
                )
            )
    return tasks


def _namespace_prefix(reg: SharedSegmentRegistry) -> str:
    """'psio<namespace>' — every segment of this campaign starts with it."""
    return reg.segment_name("probe").rsplit("-", 1)[0]


def _dev_shm_names(prefix: str) -> list[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-tmpfs platforms
        return []
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))


class TestSharedSegmentRegistry:
    def test_publish_then_get_roundtrip(self, tmp_path):
        reg = SharedSegmentRegistry(str(tmp_path))
        src = np.arange(48, dtype=np.float32).reshape(6, 8)
        view, info = reg.publish("hurricane/P/0", src)
        assert info.name and info.nbytes == src.nbytes
        np.testing.assert_array_equal(view, src)
        assert not view.flags.writeable
        again = reg.get("hurricane/P/0")
        assert again is not None
        np.testing.assert_array_equal(again[0], src)
        assert reg.get("never/published") is None
        reg.unlink_all()

    def test_cross_registry_attach_is_zero_copy(self, tmp_path):
        """A sibling registry (another worker) attaches by name and the
        bytes are counted as mapped, not copied."""
        owner = SharedSegmentRegistry(str(tmp_path))
        src = np.linspace(0, 1, 1024, dtype=np.float32)
        owner.publish("k", src)
        before = PLANE_COUNTERS.snapshot()
        sibling = SharedSegmentRegistry(str(tmp_path))
        got = sibling.get("k")
        delta = PlaneCounters.delta(before, PLANE_COUNTERS.snapshot())
        assert got is not None
        np.testing.assert_array_equal(got[0], src)
        assert delta["bytes_mapped"] == src.nbytes
        assert delta["bytes_copied"] == 0
        assert delta["segments_attached"] == 1
        sibling.close()
        owner.unlink_all()

    def test_refcounted_release(self, tmp_path):
        reg = SharedSegmentRegistry(str(tmp_path))
        reg.publish("k", np.zeros(8, dtype=np.float32))
        reg.get("k")  # refcount 2
        name = reg.segment_name("k")
        reg.release("k")
        assert name in reg.attached_names()  # still one reference
        reg.release("k")
        assert name not in reg.attached_names()
        reg.unlink_all()

    def test_unlink_all_sweeps_segments_and_ledger(self, tmp_path):
        reg = SharedSegmentRegistry(str(tmp_path))
        reg.publish("a", np.ones(16, dtype=np.float32))
        reg.publish("b", np.ones(16, dtype=np.float64))
        prefix = _namespace_prefix(reg)
        assert len(_dev_shm_names(prefix)) == 2 or len(list(reg.iter_live_segments())) == 2
        removed = reg.unlink_all()
        assert len(removed) == 2
        assert reg.ledger_names() == []
        assert list(reg.iter_live_segments()) == []
        assert _dev_shm_names(prefix) == []
        assert reg.unlink_all() == []  # idempotent

    def test_unlink_all_honours_crashed_publisher_intent(self, tmp_path):
        """A worker killed between segment creation and ledger publish
        leaves an intent record + an orphan segment; the sweep reclaims
        both (the leak-proof-under-chaos guarantee)."""
        from multiprocessing import shared_memory

        reg = SharedSegmentRegistry(str(tmp_path))
        name = reg.segment_name("died/mid/publish")
        with open(os.path.join(str(tmp_path), f"{name}.intent"), "w") as fh:
            fh.write("{}")
        seg = shared_memory.SharedMemory(name=name, create=True, size=64)
        seg.close()
        assert name in reg.ledger_names()
        assert list(reg.iter_live_segments()) == [name]
        removed = reg.unlink_all()
        assert removed == [name]
        assert list(reg.iter_live_segments()) == []
        assert _dev_shm_names(_namespace_prefix(reg)) == []

    def test_publish_race_with_dead_publisher_falls_back(self, tmp_path):
        """An intent held by a publisher that never finishes must not
        wedge the loser: after attach_timeout it serves a private copy."""
        reg = SharedSegmentRegistry(str(tmp_path), attach_timeout=0.2)
        name = reg.segment_name("contested")
        with open(os.path.join(str(tmp_path), f"{name}.intent"), "w") as fh:
            fh.write("{}")
        src = np.arange(10, dtype=np.float32)
        view, info = reg.publish("contested", src)
        assert info.name == ""  # private fallback, not a shared segment
        np.testing.assert_array_equal(view, src)
        reg.unlink_all()


class TestDtypeOrderPreservation:
    """Satellite: no silent float64 upcast or C/F re-layout through the
    handoff paths."""

    def test_shm_preserves_float32_fortran_order(self, tmp_path):
        reg = SharedSegmentRegistry(str(tmp_path))
        src = np.asfortranarray(
            np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7.0
        )
        view, info = reg.publish("f-ordered", src)
        assert info.dtype == src.dtype.str and info.order == "F"
        assert view.dtype == np.float32
        assert view.flags["F_CONTIGUOUS"] and not view.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(view, src)
        # A second consumer (fresh registry = another process's view of
        # the ledger) must reconstruct the exact same strides.
        sibling = SharedSegmentRegistry(str(tmp_path))
        arr, _ = sibling.get("f-ordered")
        assert arr.dtype == np.float32
        assert arr.flags["F_CONTIGUOUS"] and not arr.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(arr, src)
        sibling.close()
        reg.unlink_all()

    def test_shm_preserves_int16(self, tmp_path):
        reg = SharedSegmentRegistry(str(tmp_path))
        src = np.arange(32, dtype=np.int16)
        view, _ = reg.publish("ints", src)
        assert view.dtype == np.int16
        np.testing.assert_array_equal(view, src)
        reg.unlink_all()

    def test_local_cache_mmap_preserves_dtype_and_order(self, tmp_path):
        class FortranDataset(DatasetPlugin):
            id = "fortran"

            def __len__(self):
                return 1

            def load_metadata(self, index):
                return {"data_id": "fortran/0", "shape": (6, 5), "dtype": "float32"}

            def load_data(self, index):
                arr = np.asfortranarray(
                    np.arange(30, dtype=np.float32).reshape(6, 5)
                )
                return PressioData(arr, metadata=self.load_metadata(index))

        cache = LocalCache(FortranDataset(), cache_dir=str(tmp_path), mmap=True)
        first = cache.load_data(0).array  # miss: spilled, served via mmap
        second = cache.load_data(0).array  # hit: mapped from the spill
        for arr in (first, second):
            assert isinstance(arr, np.memmap)
            assert not arr.flags.writeable
            assert arr.dtype == np.float32  # no float64 upcast
            assert arr.flags["F_CONTIGUOUS"]  # no re-layout copy
        np.testing.assert_array_equal(second, np.arange(30).reshape(6, 5))
        assert cache.hits == 1 and cache.misses == 1

    def test_local_cache_mmap_hit_counts_mapped_bytes(self, tmp_path):
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P"])
        cache = LocalCache(ds, cache_dir=str(tmp_path), mmap=True)
        cache.load_data(0)
        before = PLANE_COUNTERS.snapshot()
        data = cache.load_data(0)
        delta = PlaneCounters.delta(before, PLANE_COUNTERS.snapshot())
        assert delta["bytes_mapped"] >= data.nbytes
        assert delta["bytes_copied"] == 0


def _echo_worker(task, worker):
    """Module-level so the process engine can pickle it."""
    return {"w": worker, "d": task.data_id}


_DP_DIR_ENV = "REPRO_TEST_DP_LEDGER"


def _publish_then_crash_worker(task, worker):
    """Publishes the datum to the campaign ledger, then kills its worker
    process exactly once (marker-file latch survives the death)."""
    reg = SharedSegmentRegistry(os.environ[_DP_DIR_ENV], track=False)
    arr = np.full((256,), float(task.data_index), dtype=np.float32)
    reg.publish(task.data_id, arr)
    marker = os.path.join(os.environ[_DP_DIR_ENV], "crashed-once")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        pass
    else:
        os.close(fd)
        os._exit(3)
    return {"w": worker}


class TestAffinityDispatch:
    """Worker-pinned dispatch: datum → worker affinity on the process
    engine, with steal-on-idle and per-task hit accounting."""

    def test_affinity_hit_rate_with_groups_twice_workers(self):
        # 4 datum groups on 2 workers (>= 2x), 6 tasks per datum: each
        # group costs exactly one cold load, everything else is pinned.
        tasks = make_tasks(n_data=4, per_data=6)
        results, stats = TaskQueue(2, "process").run(tasks, _echo_worker)
        assert stats.completed == len(tasks)
        assert stats.affinity_hits + stats.affinity_misses == len(tasks)
        assert stats.affinity_hit_rate >= 0.8
        # Whole-group chunks: every task of a datum ran on one worker.
        by_datum = {}
        for r in results:
            by_datum.setdefault(r.task.data_id, set()).add(r.worker)
        assert all(len(ws) == 1 for ws in by_datum.values())

    def test_chunked_dispatch_completes_and_accounts_every_task(self):
        tasks = make_tasks(n_data=3, per_data=4)
        results, stats = TaskQueue(2, "process", chunk_size=2).run(
            tasks, _echo_worker
        )
        assert stats.completed == len(tasks)
        assert {r.task.key() for r in results} == {t.key() for t in tasks}
        assert stats.affinity_hits + stats.affinity_misses == len(tasks)
        assert stats.affinity_hits > 0
        # The affinity counters mirror into the locality stats so both
        # engines report locality through one vocabulary.
        assert stats.locality_hits == stats.affinity_hits

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            TaskQueue(2, "process", chunk_size=0)

    def test_run_records_data_plane_label(self):
        tasks = make_tasks(n_data=1, per_data=2)
        _, stats = TaskQueue(1, "serial", data_plane="mmap").run(
            tasks, lambda t, w: {"ok": 1}
        )
        assert stats.data_plane == "mmap"
        summary = stats.data_plane_summary()
        assert summary["data_plane"] == "mmap"
        assert set(summary) >= {"bytes_copied", "bytes_mapped", "affinity_hit_rate"}


class TestShmLifecycle:
    """Satellite: segments are unlinked after normal collect(), after a
    chaos worker crash, and after a BrokenProcessPool rebuild — no
    leaked /dev/shm names."""

    @staticmethod
    def _runner(tmp_path, queue, store=None):
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P", "U"])
        return ExperimentRunner(
            ds,
            compressors=("szx",),
            bounds=(1e-4, 1e-3),
            schemes=("tao2019",),
            store=store or CheckpointStore(":memory:"),
            queue=queue,
            data_plane="shm",
            data_plane_dir=str(tmp_path / "plane"),
        )

    def test_normal_collect_leaves_no_segments(self, tmp_path):
        runner = self._runner(tmp_path, TaskQueue(2, "process"))
        obs, stats, failures = runner.collect()
        assert failures == [] and stats.failed == 0
        assert len(obs) == 4
        assert stats.data_plane == "shm"
        reg = SharedSegmentRegistry(str(tmp_path / "plane" / "shm"))
        assert list(reg.iter_live_segments()) == []
        assert _dev_shm_names(_namespace_prefix(reg)) == []
        runner.close()

    def test_chaos_crash_collect_leaves_no_segments(self, tmp_path):
        plan = ChaosPlan.from_spec(
            "crash:1.0", seed=7, state_dir=str(tmp_path / "chaos")
        )
        runner = self._runner(
            tmp_path, TaskQueue(2, "process", max_pool_rebuilds=10)
        )
        obs, stats, failures = runner.collect(chaos=plan)
        # Every task's worker was killed once; the supervisor rebuilt the
        # slot, requeued the chunk, and the campaign still drained.
        assert failures == [] and stats.failed == 0
        assert len(obs) == 4
        assert stats.pool_rebuilds >= 1  # BrokenProcessPool recovery ran
        assert plan.injected_counts()["crash"] >= 1
        reg = SharedSegmentRegistry(str(tmp_path / "plane" / "shm"))
        assert list(reg.iter_live_segments()) == []
        assert _dev_shm_names(_namespace_prefix(reg)) == []
        runner.close()

    def test_owner_sweep_reclaims_after_pool_rebuild(self, tmp_path, monkeypatch):
        """Queue-level: a worker publishes, then dies; its segments
        survive the crash (workers are untracked) until the owner's
        sweep unlinks them."""
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        monkeypatch.setenv(_DP_DIR_ENV, str(ledger))
        tasks = make_tasks(n_data=2, per_data=2)
        results, stats = TaskQueue(2, "process").run(
            tasks, _publish_then_crash_worker
        )
        assert stats.failed == 0 and stats.completed == len(tasks)
        assert stats.pool_rebuilds >= 1
        owner = SharedSegmentRegistry(str(ledger))
        live = list(owner.iter_live_segments())
        assert len(live) == 2  # the crash did not take the segments down
        removed = owner.unlink_all()
        assert sorted(removed) == sorted(live)
        assert list(owner.iter_live_segments()) == []
        assert _dev_shm_names(_namespace_prefix(owner)) == []

    def test_shm_plane_counts_mapped_bytes(self, tmp_path):
        runner = self._runner(tmp_path, TaskQueue(2, "process"))
        # A worker holds a datum for all of its tasks, so inside one
        # worker nothing is loaded twice; a datum is *mapped* when a
        # second process loads what another published.  Publish both
        # data from this process, then let the workers load them.
        publisher = SharedMemoryCache(
            runner.dataset, ledger_dir=str(tmp_path / "plane" / "shm")
        )
        before = PLANE_COUNTERS.snapshot()
        nbytes = sum(publisher.load_data(i).nbytes for i in range(len(runner.dataset)))
        published = PlaneCounters.delta(before, PLANE_COUNTERS.snapshot())
        assert published["bytes_copied"] >= nbytes  # the one-time publishes
        _, stats, _ = runner.collect()
        # Each datum's tasks are one chunk on one worker: one attach each.
        assert stats.bytes_mapped == nbytes
        assert stats.bytes_copied == 0
        publisher.close()
        runner.close()


class TestPlaneConfiguration:
    def test_unknown_plane_rejected(self):
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P"])
        with pytest.raises(ValueError, match="unknown data plane"):
            ExperimentRunner(ds, compressors=("szx",), data_plane="rdma")

    def test_plane_choice_preserves_checkpoint_keys(self, tmp_path):
        """Switching --data-plane must not invalidate a checkpoint: task
        keys hash the bare dataset, not the plane stack."""
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P"])
        keys = []
        for plane in DATA_PLANES:
            runner = ExperimentRunner(
                ds,
                compressors=("szx",),
                bounds=(1e-4,),
                schemes=(),
                data_plane=plane,
                data_plane_dir=str(tmp_path / plane),
            )
            keys.append([t.key() for t in runner.build_tasks()])
            runner.close()
        assert keys[0] == keys[1] == keys[2]

    def test_mmap_plane_serves_results_identical_to_pickle(self, tmp_path):
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P"])
        payloads = {}
        for plane in ("pickle", "mmap"):
            runner = ExperimentRunner(
                ds,
                compressors=("szx",),
                bounds=(1e-4,),
                schemes=("tao2019",),
                data_plane=plane,
                data_plane_dir=str(tmp_path / plane),
            )
            obs, stats, _ = runner.collect()
            assert stats.failed == 0
            payloads[plane] = obs[0]["size:compression_ratio"]
            runner.close()
        assert payloads["pickle"] == pytest.approx(payloads["mmap"])
