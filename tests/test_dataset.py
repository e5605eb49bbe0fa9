"""Tests for the dataset substrate: loaders, caches, sampling, hurricane."""

import os
import pickle
import threading

import numpy as np
import pytest

from repro.bench import ExperimentRunner
from repro.core import OptionError
from repro.core.data import PressioData
from repro.dataset import (
    FIELDS,
    SPARSE_THRESHOLDS,
    DeviceMover,
    FolderLoader,
    HurricaneDataset,
    HurricaneGenerator,
    IOLoader,
    LocalCache,
    MemoryCache,
    SampledDataset,
    dataset_registry,
    make_dataset,
    parse_field_timestep,
    read_array,
    sample_blocks,
    spectral_field,
    standard_test_fields,
    write_array,
)
from repro.dataset.base import DatasetPlugin


def zero_share(gen: HurricaneGenerator, field: str, t: int) -> float:
    """Fraction of exact zeros in one generated field."""
    return float((gen.generate(field, t) == 0).mean())


class TestIOLoader:
    def test_npy_roundtrip(self, tmp_path):
        arr = np.random.default_rng(0).standard_normal((6, 7)).astype(np.float32)
        path = str(tmp_path / "a.npy")
        write_array(path, arr)
        loader = IOLoader([path])
        assert len(loader) == 1
        meta = loader.load_metadata(0)
        assert meta["shape"] == (6, 7)
        assert meta["dtype"] == "float32"
        out = loader.load_data(0)
        assert np.array_equal(out.array, arr)
        assert out.metadata["file"] == path

    def test_raw_binary_needs_dtype(self, tmp_path):
        path = str(tmp_path / "a.bin")
        np.arange(10, dtype=np.float32).tofile(path)
        loader = IOLoader([path])
        with pytest.raises(OptionError):
            loader.load_data(0)
        loader.set_options({"io:dtype": "float32", "io:shape": [2, 5]})
        out = loader.load_data(0)
        assert out.shape == (2, 5)

    def test_f32_extension_implies_dtype(self, tmp_path):
        path = str(tmp_path / "a.f32")
        np.arange(8, dtype=np.float32).tofile(path)
        out = read_array(path)
        assert out.dtype == np.float32 and out.size == 8

    def test_unknown_extension(self, tmp_path):
        path = str(tmp_path / "a.xyz")
        open(path, "w").close()
        with pytest.raises(OptionError):
            read_array(path)

    def test_load_counters(self, tmp_path):
        path = str(tmp_path / "a.npy")
        write_array(path, np.zeros((4, 4), dtype=np.float32))
        loader = IOLoader([path])
        loader.load_data(0)
        loader.load_data(0)
        res = loader.get_metrics_results()
        assert res["io:loads"] == 2
        assert res["io:bytes_loaded"] == 128


class TestFolderLoader:
    def test_pattern_and_metadata(self, tmp_path):
        ds = HurricaneDataset(shape=(8, 8, 4), timesteps=[0, 1], fields=["P", "U"])
        ds.write_to_directory(str(tmp_path))
        loader = FolderLoader(str(tmp_path), "*.npy")
        assert len(loader) == 4
        metas = loader.load_metadata_all()
        assert {m["field"] for m in metas} == {"P", "U"}
        assert {m["timestep"] for m in metas} == {0, 1}
        data = loader.load_data(0)
        assert data.metadata["field"] in ("P", "U")

    def test_rescan_picks_up_new_files(self, tmp_path):
        write_array(str(tmp_path / "A_t00.npy"), np.zeros((2, 2), np.float32))
        loader = FolderLoader(str(tmp_path), "*.npy")
        assert len(loader) == 1
        write_array(str(tmp_path / "B_t00.npy"), np.zeros((2, 2), np.float32))
        loader.rescan()
        assert len(loader) == 2

    def test_parse_field_timestep(self):
        assert parse_field_timestep("QRAIN_t07.npy") == {"field": "QRAIN", "timestep": 7}
        assert parse_field_timestep("no-pattern.npy") == {}

    def test_deterministic_order(self, tmp_path):
        for name in ("C_t00.npy", "A_t00.npy", "B_t00.npy"):
            write_array(str(tmp_path / name), np.zeros(2, np.float32))
        loader = FolderLoader(str(tmp_path), "*.npy")
        fields = [loader.load_metadata(i)["field"] for i in range(3)]
        assert fields == ["A", "B", "C"]


class TestCaches:
    def test_memory_cache_hits(self, tiny_hurricane):
        cache = MemoryCache(tiny_hurricane, capacity_bytes=1 << 24)
        cache.load_data(0)
        cache.load_data(0)
        assert cache.hits == 1 and cache.misses == 1

    def test_memory_cache_eviction(self, tiny_hurricane):
        entry_bytes = tiny_hurricane.load_data(0).nbytes
        cache = MemoryCache(tiny_hurricane, capacity_bytes=entry_bytes)  # fits one
        cache.load_data(0)
        cache.load_data(1)  # evicts 0
        cache.load_data(0)
        assert cache.hits == 0 and cache.misses == 3

    def test_memory_cache_entries_immune_to_caller_mutation(self, tiny_hurricane):
        """Cached entries are shared by reference across hits: a caller
        mutating the array would corrupt every later load.  The cache
        freezes its entries so the mutation raises instead."""
        cache = MemoryCache(tiny_hurricane, capacity_bytes=1 << 24)
        first = cache.load_data(0)
        pristine = first.array.copy()
        with pytest.raises(ValueError):
            first.array[...] = -1.0
        again = cache.load_data(0)
        assert np.array_equal(again.array, pristine)
        # Entries too large to cache stay writable (not shared).
        huge = MemoryCache(tiny_hurricane, capacity_bytes=1)
        assert huge.load_data(0).array.flags.writeable

    def test_local_cache_spills_and_restores(self, tmp_path, tiny_hurricane):
        cache = LocalCache(tiny_hurricane, cache_dir=str(tmp_path / "spill"))
        a = cache.load_data(0)
        b = cache.load_data(0)
        assert cache.hits == 1 and cache.misses == 1
        assert np.array_equal(a.array, b.array)
        # A fresh process (new instance) finds the same spill.
        cache2 = LocalCache(tiny_hurricane, cache_dir=str(tmp_path / "spill"))
        cache2.load_data(0)
        assert cache2.hits == 1

    def test_local_cache_invalidate(self, tmp_path, tiny_hurricane):
        cache = LocalCache(tiny_hurricane, cache_dir=str(tmp_path / "spill"))
        cache.load_data(0)
        cache.invalidate(0)
        cache.load_data(0)
        assert cache.misses == 2

    def test_local_cache_mmap_preserves_dtype_and_order(self, tmp_path):
        """No silent float64 upcast or C/F re-layout through a spill."""

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

    def test_device_mover_tags(self, tiny_hurricane):
        mover = DeviceMover(tiny_hurricane)
        assert mover.load_data(0).domain == "device"

    def test_stacked_metrics_merge(self, tmp_path, tiny_hurricane):
        stack = MemoryCache(LocalCache(tiny_hurricane, cache_dir=str(tmp_path / "s")))
        stack.load_data(0)
        res = stack.get_metrics_results()
        assert "memory_cache:hits" in res and "local_cache:hits" in res


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


class TestSampler:
    def test_count_selection(self, small_hurricane):
        sub = SampledDataset(small_hurricane, count=5, seed=3)
        assert len(sub) == 5
        assert sub.load_metadata(0)["data_id"].startswith("hurricane/")

    def test_fraction_selection(self, small_hurricane):
        sub = SampledDataset(small_hurricane, fraction=0.25, seed=3)
        assert len(sub) == round(0.25 * len(small_hurricane))

    def test_stride_selection(self, small_hurricane):
        sub = SampledDataset(small_hurricane, stride=3)
        assert len(sub) == (len(small_hurricane) + 2) // 3

    def test_source_index_tracks_back(self, small_hurricane):
        sub = SampledDataset(small_hurricane, count=4, seed=1)
        for i in range(4):
            src = sub.source_index(i)
            assert sub.load_metadata(i) == small_hurricane.load_metadata(src)

    def test_requires_a_selector(self, small_hurricane):
        with pytest.raises(ValueError):
            SampledDataset(small_hurricane)

    def test_sample_blocks_shape(self):
        arr = np.arange(32 * 32, dtype=float).reshape(32, 32)
        blocks = sample_blocks(arr, block=8, fraction=0.5, seed=0)
        assert blocks.shape[1:] == (8, 8)
        assert 4 <= blocks.shape[0] <= 16

    def test_sample_blocks_small_array_fallback(self):
        arr = np.arange(6, dtype=float)
        blocks = sample_blocks(arr, block=8)
        assert blocks.shape == (1, 6)

    def test_sample_blocks_deterministic(self):
        arr = np.random.default_rng(0).standard_normal((16, 16))
        a = sample_blocks(arr, block=4, fraction=0.3, seed=9)
        b = sample_blocks(arr, block=4, fraction=0.3, seed=9)
        assert np.array_equal(a, b)


class TestHurricane:
    def test_thirteen_fields(self):
        assert len(FIELDS) == 13

    def test_entry_mapping(self, tiny_hurricane):
        assert len(tiny_hurricane) == 8  # 4 fields x 2 steps
        assert tiny_hurricane.entry(2) == (tiny_hurricane.fields[1], 0)
        assert tiny_hurricane.entry(3) == (tiny_hurricane.fields[1], 24)

    def test_sparse_fields_have_zeros(self):
        # At mid-track (where the threshold is calibrated) the coverage
        # matches the nominal quantile; elsewhere it drifts with the
        # storm's intensity.
        gen = HurricaneGenerator(shape=(16, 16, 8), timesteps=8)
        for field, quantile in SPARSE_THRESHOLDS.items():
            sparsity = zero_share(gen, field, 4)
            assert sparsity == pytest.approx(quantile, abs=0.1), field

    def test_sparsity_evolves_with_storm(self):
        gen = HurricaneGenerator(shape=(16, 16, 8), timesteps=48)
        coverages = [zero_share(gen, "CLOUD", t) for t in range(0, 48, 8)]
        assert max(coverages) - min(coverages) > 0.05
        # The developing storm has *less* hydrometeor coverage (more
        # zeros) than the mature stage.
        assert coverages[0] > zero_share(gen, "CLOUD", 24)

    def test_dense_fields_have_no_zeros(self):
        gen = HurricaneGenerator(shape=(16, 16, 8), timesteps=4)
        for field in ("U", "V", "P", "TC"):
            assert zero_share(gen, field, 0) < 0.01

    def test_deterministic_generation(self):
        a = HurricaneGenerator(shape=(8, 8, 4)).generate("QRAIN", 5)
        b = HurricaneGenerator(shape=(8, 8, 4)).generate("QRAIN", 5)
        assert np.array_equal(a, b)

    def test_pickle_carries_no_grid(self):
        """A runner's task function travels to every rank; the grid,
        which the shape determines, is rebuilt there, not shipped."""
        ds = HurricaneDataset(shape=(64, 64, 16), timesteps=[0, 1], fields=["P", "CLOUD"])
        runner = ExperimentRunner(ds)
        assert len(pickle.dumps(runner.run_task)) < 16 * 1024
        before = ds.generator.generate("CLOUD", 1)
        clone = pickle.loads(pickle.dumps(ds.generator))
        assert clone.generate("CLOUD", 1).tobytes() == before.tobytes()
        assert clone.generate("P", 0).tobytes() == ds.generator.generate("P", 0).tobytes()

    def test_temporal_coherence(self):
        gen = HurricaneGenerator(shape=(16, 16, 8), timesteps=48)
        a = gen.generate("P", 10).astype(np.float64)
        b = gen.generate("P", 11).astype(np.float64)
        far = gen.generate("P", 30).astype(np.float64)
        def corr(x, y):
            return float(np.corrcoef(x.ravel(), y.ravel())[0, 1])
        assert corr(a, b) > corr(a, far)

    def test_unknown_field_rejected(self):
        gen = HurricaneGenerator(shape=(8, 8, 4))
        with pytest.raises(ValueError):
            gen.generate("NOTAFIELD", 0)
        with pytest.raises(ValueError):
            HurricaneDataset(shape=(8, 8, 4), fields=["NOTAFIELD"])

    def test_timestep_out_of_range(self):
        gen = HurricaneGenerator(shape=(8, 8, 4), timesteps=4)
        with pytest.raises(ValueError):
            gen.generate("P", 4)

    def test_metadata_marks_sparse(self, tiny_hurricane):
        metas = tiny_hurricane.load_metadata_all()
        by_field = {m["field"]: m["sparse"] for m in metas}
        assert by_field["QRAIN"] is True
        assert by_field["P"] is False

    def test_configuration_is_hashable_stable(self, tiny_hurricane):
        from repro.core import options_hash

        a = options_hash(tiny_hurricane.get_configuration())
        b = options_hash(
            HurricaneDataset(
                shape=(16, 16, 8), timesteps=[0, 24], fields=["P", "U", "QRAIN", "CLOUD"]
            ).get_configuration()
        )
        assert a == b

    def test_spectral_field_normalised(self):
        f = spectral_field((16, 16, 8), seed=1)
        assert f.std() == pytest.approx(1.0, abs=1e-6)
        assert f.shape == (16, 16, 8)

    def test_registry_construction(self):
        ds = make_dataset("hurricane", shape=(8, 8, 4), timesteps=[0], fields=["P"])
        assert len(ds) == 1


class TestSynthetic:
    def test_standard_test_fields(self):
        ds = standard_test_fields(shape=(8, 8, 4))
        assert len(ds) == 4
        names = [ds.load_metadata(i)["field"] for i in range(4)]
        assert names == ["smooth", "rough", "sparse", "constant"]
        sparse = ds.load_data(2).array
        assert (sparse == 0).mean() > 0.5

    def test_reproducible_entries(self):
        a = standard_test_fields(seed=5).load_data(1).array
        b = standard_test_fields(seed=5).load_data(1).array
        assert np.array_equal(a, b)

    def test_registry_contains_all_plugins(self):
        for name in ("io", "folder", "hurricane", "synthetic", "sample",
                     "local_cache", "memory_cache", "device"):
            assert name in dataset_registry
