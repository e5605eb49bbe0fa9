"""Dataset plugin abstraction (LibPressio-Dataset, §4.1).

The primary abstraction has four methods — ``load_metadata`` /
``load_data`` for one entry and ``load_metadata_all`` / ``load_data_all``
batched variants that let implementations amortise heavy operations —
plus configuration/metrics APIs.  Like LibPressio compressors, dataset
plugins *stack*: caches, samplers and device movers wrap an inner
dataset (Figure 2's pipeline) without the consumer knowing.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..core.data import PressioData
from ..core.options import PressioOptions
from ..core.registry import Registry

#: Registry of dataset plugin factories.
dataset_registry: Registry["DatasetPlugin"] = Registry("dataset")


class DatasetPlugin:
    """Base class for dataset loaders.

    Entries are addressed by integer index in ``[0, len(self))``.
    Metadata must be obtainable *without* loading payloads — the bench
    scheduler sizes and places jobs from metadata alone (§4.1: "job
    configuration only requires the metadata").
    """

    id: str = "dataset"

    def __init__(self, **options: Any) -> None:
        self._options = PressioOptions(
            {k.replace("__", ":"): v for k, v in options.items()}
        )
        self._loads = 0
        self._bytes_loaded = 0

    # -- primary API -----------------------------------------------------------
    def __len__(self) -> int:
        raise NotImplementedError

    def load_metadata(self, index: int) -> dict[str, Any]:
        """Shape/dtype/provenance for one entry; must not load payload."""
        raise NotImplementedError

    def load_data(self, index: int) -> PressioData:
        """Load one entry's payload (with metadata attached)."""
        raise NotImplementedError

    def load_metadata_all(self) -> list[dict[str, Any]]:
        """Batched metadata; default maps :meth:`load_metadata`."""
        return [self.load_metadata(i) for i in range(len(self))]

    def load_data_all(self) -> list[PressioData]:
        """Batched payloads; default maps :meth:`load_data`."""
        return [self.load_data(i) for i in range(len(self))]

    def __iter__(self) -> Iterator[PressioData]:
        for i in range(len(self)):
            yield self.load_data(i)

    # -- configuration & metrics --------------------------------------------------
    def set_options(self, opts: PressioOptions | dict[str, Any]) -> None:
        self._options.merge(PressioOptions(dict(opts)))

    def get_options(self) -> PressioOptions:
        return self._options.copy()

    def get_configuration(self) -> PressioOptions:
        """Stable description of this dataset used for checkpoint hashing."""
        out = self._options.copy()
        out["pressio:id"] = self.id
        return out

    def get_metrics_results(self) -> PressioOptions:
        """Load counters (extended by caching wrappers)."""
        return PressioOptions(
            {
                f"{self.id}:loads": self._loads,
                f"{self.id}:bytes_loaded": self._bytes_loaded,
            }
        )

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Release resources held by the plugin (segments, mappings).

        The base class holds nothing; stacked wrappers propagate the call
        inward so closing the outermost plugin tears down the whole
        pipeline.  Safe to call more than once.
        """

    # -- bookkeeping helper for subclasses ---------------------------------------
    def _count_load(self, data: PressioData) -> PressioData:
        self._loads += 1
        self._bytes_loaded += data.nbytes
        return data

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id!r}, n={len(self)})"


class StackedDataset(DatasetPlugin):
    """Base for wrappers around an inner dataset (cache, sampler, mover)."""

    def __init__(self, inner: DatasetPlugin, **options: Any) -> None:
        super().__init__(**options)
        self.inner = inner

    def __len__(self) -> int:
        return len(self.inner)

    def load_metadata(self, index: int) -> dict[str, Any]:
        return self.inner.load_metadata(index)

    def load_data(self, index: int) -> PressioData:
        return self.inner.load_data(index)

    def get_configuration(self) -> PressioOptions:
        out = self.inner.get_configuration()
        out.merge(super().get_configuration())
        out["pressio:id"] = f"{self.id}({self.inner.get_configuration().get('pressio:id')})"
        return out

    def get_metrics_results(self) -> PressioOptions:
        out = self.inner.get_metrics_results()
        out.merge(super().get_metrics_results())
        return out

    def close(self) -> None:
        self.inner.close()


def make_dataset(name: str, *args: Any, **options: Any) -> DatasetPlugin:
    """Instantiate a dataset plugin by registry id."""
    return dataset_registry.create(name, *args, **options)
