"""Figure 2 ablation: the dataset pipeline's cache tiers.

§4.1 motivates multi-tier caching ("deep memory tiers on modern
supercomputers").  These benches measure cold vs. warm loads through the
disk/RAM tiers.  Locality placement across real ranks is measured by
``benchmarks/test_cluster_scaleout.py``.
"""

import pytest

from repro.dataset import HurricaneDataset, LocalCache, MemoryCache


@pytest.fixture(scope="module")
def file_backed(tmp_path_factory):
    """Hurricane materialised to .npy files (a real I/O bottom tier)."""
    from repro.dataset import FolderLoader

    root = tmp_path_factory.mktemp("hurricane_files")
    ds = HurricaneDataset(shape=(32, 32, 16), timesteps=[0, 1], fields=["P", "U", "QRAIN"])
    ds.write_to_directory(str(root))
    return FolderLoader(str(root), "*.npy")


def test_cold_loads(benchmark, file_backed):
    def cold():
        for i in range(len(file_backed)):
            file_backed.load_data(i)

    benchmark(cold)


def test_warm_memory_cache(benchmark, file_backed):
    cache = MemoryCache(file_backed, capacity_bytes=1 << 28)
    for i in range(len(cache)):
        cache.load_data(i)  # prime

    def warm():
        for i in range(len(cache)):
            cache.load_data(i)

    benchmark(warm)
    assert cache.hits > 0


def test_warm_disk_cache(benchmark, tmp_path_factory, file_backed):
    cache = LocalCache(file_backed, cache_dir=str(tmp_path_factory.mktemp("spill")))
    for i in range(len(cache)):
        cache.load_data(i)  # prime the spill

    def warm():
        for i in range(len(cache)):
            cache.load_data(i)

    benchmark(warm)
    assert cache.hits >= len(cache)


def test_generation_vs_cached_load(benchmark, tmp_path_factory):
    """Stacked tiers beat regenerating/re-reading every access."""
    import time

    ds = HurricaneDataset(shape=(32, 32, 16), timesteps=[0], fields=["P", "U", "W"])
    stack = MemoryCache(
        LocalCache(ds, cache_dir=str(tmp_path_factory.mktemp("spill2"))),
        capacity_bytes=1 << 28,
    )

    def measure():
        t0 = time.perf_counter()
        for i in range(len(ds)):
            ds.load_data(i)
        raw_s = time.perf_counter() - t0
        for i in range(len(stack)):
            stack.load_data(i)  # prime
        t0 = time.perf_counter()
        for i in range(len(stack)):
            stack.load_data(i)
        warm_s = time.perf_counter() - t0
        return raw_s, warm_s

    raw_s, warm_s = benchmark.pedantic(measure, rounds=3, iterations=1)
    assert warm_s < raw_s
    benchmark.extra_info["speedup"] = round(raw_s / max(warm_s, 1e-9), 1)

