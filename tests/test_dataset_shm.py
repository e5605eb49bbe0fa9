"""Tests for the shared-segment registry (the serve featurization cache's
substrate) and for dtype/order fidelity through shared segments and
``LocalCache`` spills."""

import os
import threading

import numpy as np

from repro.bench import Task, TaskQueue
from repro.core.data import PressioData
from repro.dataset import HurricaneDataset, LocalCache
from repro.dataset.base import DatasetPlugin
from repro.dataset.shm import SharedSegmentRegistry


def _namespace_prefix(reg: SharedSegmentRegistry) -> str:
    """'psio<namespace>' — every segment of this ledger starts with it."""
    return reg.segment_name("probe").rsplit("-", 1)[0]


def _dev_shm_names(prefix: str) -> list[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-tmpfs platforms
        return []
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))


_LEDGER_ENV = "REPRO_TEST_SHM_LEDGER"


def _publish_then_crash_worker(task, worker):
    """Publishes the datum to the shared ledger, then kills its worker
    process exactly once (marker-file latch survives the death)."""
    reg = SharedSegmentRegistry(os.environ[_LEDGER_ENV], track=False)
    arr = np.full((256,), float(task.data_index), dtype=np.float32)
    reg.publish(task.data_id, arr)
    marker = os.path.join(os.environ[_LEDGER_ENV], "crashed-once")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        pass
    else:
        os.close(fd)
        os._exit(3)
    return {"w": worker}


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
        """A sibling registry (another process's view of the ledger)
        attaches by name to the same pages: a write to the segment shows
        through the view it was handed, which a copy would not."""
        from multiprocessing import shared_memory

        owner = SharedSegmentRegistry(str(tmp_path))
        src = np.linspace(0, 1, 1024, dtype=np.float32)
        owner.publish("k", src)
        sibling = SharedSegmentRegistry(str(tmp_path))
        got = sibling.get("k")
        assert got is not None
        np.testing.assert_array_equal(got[0], src)
        raw = shared_memory.SharedMemory(name=owner.segment_name("k"))
        np.ndarray(src.shape, dtype=src.dtype, buffer=raw.buf)[0] = 7.0
        assert got[0][0] == 7.0
        raw.close()
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


    def test_owner_sweep_reclaims_after_pool_rebuild(self, tmp_path, monkeypatch):
        """An untracked publisher (a worker process) publishes, then
        dies; its segments survive the crash until the owner's sweep
        unlinks them."""
        ledger = tmp_path / "ledger"
        ledger.mkdir()
        monkeypatch.setenv(_LEDGER_ENV, str(ledger))
        tasks = [
            Task(
                data_index=d,
                data_id=f"data/{d}",
                compressor_id="sz3",
                compressor_options={"pressio:abs": 10.0 ** -(k + 2)},
                dataset_config={"entry:data_id": f"data/{d}"},
            )
            for d in range(2)
            for k in range(2)
        ]
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


class TestDtypeOrderPreservation:
    """No silent float64 upcast or C/F re-layout through a shared
    segment or a ``LocalCache`` spill."""

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


class TestLocalCacheConcurrentMiss:
    def test_two_concurrent_misses_publish_one_whole_spill(self, tmp_path, monkeypatch):
        """Two writers missing one entry at once (a stolen group, two
        campaigns sharing a cache dir) each spill through their own temp
        file: both loads succeed, the published spill is the leaf's exact
        array and no temp file is left."""
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P"])
        expected = ds.load_data(0).array
        both_saved = threading.Barrier(2, timeout=10)
        real_save = np.save

        def save_then_meet(file, arr, *args, **kwargs):
            real_save(file, arr, *args, **kwargs)
            both_saved.wait()  # neither writer renames before both wrote

        monkeypatch.setattr(np, "save", save_then_meet)
        caches = [LocalCache(ds, cache_dir=str(tmp_path)) for _ in range(2)]
        errors = []

        def miss(cache):
            try:
                np.testing.assert_array_equal(cache.load_data(0).array, expected)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=miss, args=(c,)) for c in caches]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert [c.misses for c in caches] == [1, 1]
        (spill,) = os.listdir(tmp_path)
        loaded = np.load(tmp_path / spill)
        assert loaded.dtype == expected.dtype
        np.testing.assert_array_equal(loaded, expected)
