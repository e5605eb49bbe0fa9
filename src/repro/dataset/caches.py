"""Caching dataset wrappers (Figure 2's ``local_cache`` stage).

Two tiers mirroring the paper's "deep memory tiers on modern
supercomputers":

* :class:`MemoryCache` — an LRU byte-budgeted in-RAM tier;
* :class:`LocalCache` — a node-local disk tier (the "local SSD") storing
  ``.npy`` spills keyed by the entry's data id, enabling "faster restart
  times".

Both count hits/misses so the dataset-pipeline benchmark can report the
effect of each tier.
"""

from __future__ import annotations

import hashlib
import os
import uuid
from collections import OrderedDict
from typing import Any

import numpy as np

from ..core.data import PressioData
from .base import StackedDataset, dataset_registry


@dataset_registry.register("memory_cache")
class MemoryCache(StackedDataset):
    """LRU in-memory cache with a byte budget."""

    id = "memory_cache"

    def __init__(self, inner, capacity_bytes: int = 256 * 2**20, **options: Any) -> None:
        super().__init__(inner, **options)
        self.capacity_bytes = int(capacity_bytes)
        self._store: OrderedDict[int, PressioData] = OrderedDict()
        self._held = 0
        self.hits = 0
        self.misses = 0

    def load_data(self, index: int) -> PressioData:
        if index in self._store:
            self.hits += 1
            self._store.move_to_end(index)
            return self._store[index]
        self.misses += 1
        data = self.inner.load_data(index)
        if data.nbytes <= self.capacity_bytes:
            # The cached buffer is shared by every later hit: freeze it
            # so a caller mutating its copy of "the data" raises loudly
            # instead of silently corrupting all subsequent loads.
            data.array.setflags(write=False)
            self._store[index] = data
            self._held += data.nbytes
            while self._held > self.capacity_bytes and self._store:
                _, evicted = self._store.popitem(last=False)
                self._held -= evicted.nbytes
        return data

    def clear(self) -> None:
        """Drop all cached entries (counters are kept)."""
        self._store.clear()
        self._held = 0

    def get_metrics_results(self):
        out = super().get_metrics_results()
        out.merge(
            {
                "memory_cache:hits": self.hits,
                "memory_cache:misses": self.misses,
                "memory_cache:held_bytes": self._held,
            }
        )
        return out


@dataset_registry.register("local_cache")
class LocalCache(StackedDataset):
    """Disk-backed cache: spills loaded entries as ``.npy`` files.

    Keys are SHA-1 digests of the entry's data id, so a restarted
    process (or another worker sharing the node) finds previous spills —
    the restart-acceleration behaviour §4.1 describes.

    With ``mmap=True`` a hit returns a read-only ``np.memmap``-backed
    buffer: the spill is *paged* into the consumer on demand instead of
    read wholesale, so N consumers of one datum share the page cache
    rather than holding N private copies.  Spills preserve dtype and
    C/F byte order exactly (the ``.npy`` header records both), so a
    float32 Fortran-ordered datum round-trips without a silent float64
    upcast or re-layout copy.
    """

    id = "local_cache"

    def __init__(
        self, inner, cache_dir: str, mmap: bool = False, **options: Any
    ) -> None:
        super().__init__(inner, **options)
        self.cache_dir = os.fspath(cache_dir)
        os.makedirs(self.cache_dir, exist_ok=True)
        self.mmap = bool(mmap)
        self.hits = 0
        self.misses = 0

    def _spill_path(self, index: int) -> str:
        meta = self.inner.load_metadata(index)
        key = str(meta.get("data_id") or meta.get("file") or index)
        digest = hashlib.sha1(key.encode()).hexdigest()
        return os.path.join(self.cache_dir, f"{digest}.npy")

    def load_data(self, index: int) -> PressioData:
        path = self._spill_path(index)
        meta = self.inner.load_metadata(index)
        if os.path.exists(path):
            self.hits += 1
            if self.mmap:
                # mmap_mode="r" maps the file read-only: bytes reach the
                # consumer by page fault, not by read() into a copy.
                arr = np.load(path, mmap_mode="r")
            else:
                arr = np.load(path)
            return PressioData(arr, metadata=meta)
        self.misses += 1
        data = self.inner.load_data(index)
        # One temp file per writer: two processes missing the same entry
        # (a stolen group, two campaigns sharing a cache dir) must not
        # write through one name, or the first rename publishes the
        # other's half-written file.
        tmp = f"{path}.{uuid.uuid4().hex}.tmp"
        with open(tmp, "wb") as fh:
            np.save(fh, data.array)  # .npy header keeps dtype + fortran_order
        os.replace(tmp, path)  # atomic publish: a crash never leaves half a spill
        if self.mmap:
            # Serve the spill we just wrote so the hit and miss paths hand
            # out identical (read-only, mapped) buffer semantics.
            return PressioData(np.load(path, mmap_mode="r"), metadata=meta)
        return data

    def invalidate(self, index: int | None = None) -> None:
        """Drop one spill (or the whole cache directory's spills)."""
        if index is not None:
            try:
                os.remove(self._spill_path(index))
            except FileNotFoundError:
                pass
            return
        for name in os.listdir(self.cache_dir):
            if name.endswith(".npy"):
                os.remove(os.path.join(self.cache_dir, name))

    def get_metrics_results(self):
        out = super().get_metrics_results()
        out.merge({"local_cache:hits": self.hits, "local_cache:misses": self.misses})
        return out


@dataset_registry.register("device")
class DeviceMover(StackedDataset):
    """Tags loaded buffers as device-resident (Figure 2's last stage).

    Movement is simulated (see :meth:`PressioData.to_domain`), but the
    stage exists so pipelines exercise the same composition the paper
    sketches — and so a real accelerator backend could slot in.
    """

    id = "device"

    def __init__(self, inner, domain: str = "device", **options: Any) -> None:
        super().__init__(inner, **options)
        self.domain = domain

    def load_data(self, index: int) -> PressioData:
        return self.inner.load_data(index).to_domain(self.domain)
