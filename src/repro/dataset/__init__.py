"""Dataset loading substrate (LibPressio-Dataset analog, §4.1).

Plugins stack Figure-2 style::

    ds = HurricaneDataset(shape=(64, 64, 32), timesteps=8)
    ds = LocalCache(ds, cache_dir="/tmp/spill")   # node-local SSD tier
    ds = MemoryCache(ds, capacity_bytes=1 << 28)  # RAM tier
    ds = SampledDataset(ds, fraction=0.25)        # tail-end sampling
"""

from .base import DatasetPlugin, StackedDataset, dataset_registry, make_dataset
from .caches import DeviceMover, LocalCache, MemoryCache
from .folder_loader import FolderLoader, parse_field_timestep
from .hurricane import (
    DEFAULT_SHAPE,
    DEFAULT_TIMESTEPS,
    FIELDS,
    SPARSE_THRESHOLDS,
    HurricaneDataset,
    HurricaneGenerator,
    spectral_field,
)
from .io_loader import IOLoader, read_array, write_array
from .sampler import SampledDataset, sample_blocks
from .scientific import (
    ALL_SCIENTIFIC,
    CESMDataset,
    NyxDataset,
    S3DDataset,
    TurbulenceDataset,
    make_scientific_suite,
)
from .synthetic import SyntheticDataset, standard_test_fields

__all__ = [
    "ALL_SCIENTIFIC",
    "CESMDataset",
    "DEFAULT_SHAPE",
    "DEFAULT_TIMESTEPS",
    "DatasetPlugin",
    "DeviceMover",
    "NyxDataset",
    "S3DDataset",
    "TurbulenceDataset",
    "make_scientific_suite",
    "FIELDS",
    "FolderLoader",
    "HurricaneDataset",
    "HurricaneGenerator",
    "IOLoader",
    "LocalCache",
    "MemoryCache",
    "SPARSE_THRESHOLDS",
    "SampledDataset",
    "StackedDataset",
    "SyntheticDataset",
    "dataset_registry",
    "make_dataset",
    "parse_field_timestep",
    "read_array",
    "sample_blocks",
    "spectral_field",
    "standard_test_fields",
    "write_array",
]
