"""Shared fixtures: small deterministic fields and datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset import HurricaneDataset
from tests.latch import STATE_DIR_ENV


@pytest.fixture
def state_dir(tmp_path, monkeypatch):
    """Where :func:`tests.latch.once` keeps its markers; the environment
    variable is inherited by worker processes and cluster ranks."""
    monkeypatch.setenv(STATE_DIR_ENV, str(tmp_path))
    return tmp_path


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def smooth_field() -> np.ndarray:
    """A smooth 3-D float32 field (highly compressible)."""
    x, y, z = np.meshgrid(
        np.linspace(0, 3, 24), np.linspace(0, 3, 24), np.linspace(0, 1.5, 12),
        indexing="ij",
    )
    noise = np.random.default_rng(7).standard_normal(x.shape) * 0.01
    return (np.sin(x) * np.cos(y) * np.exp(-0.4 * z) + noise).astype(np.float32)


@pytest.fixture(scope="session")
def sparse_field(smooth_field) -> np.ndarray:
    """A mostly-zero field (the hard case the paper highlights)."""
    gate = np.random.default_rng(8).random(smooth_field.shape) > 0.85
    return np.where(gate, np.abs(smooth_field), 0.0).astype(np.float32)

@pytest.fixture(scope="session")
def rough_field() -> np.ndarray:
    """Uncorrelated noise (nearly incompressible)."""
    return np.random.default_rng(9).standard_normal((24, 24, 12)).astype(np.float32)


@pytest.fixture(scope="session")
def tiny_hurricane() -> HurricaneDataset:
    """A 4-field, 2-timestep Hurricane subset at tiny resolution."""
    return HurricaneDataset(
        shape=(16, 16, 8), timesteps=[0, 24], fields=["P", "U", "QRAIN", "CLOUD"]
    )


@pytest.fixture(scope="session")
def small_hurricane() -> HurricaneDataset:
    """All 13 fields at one timestep (for grouped-CV style tests)."""
    return HurricaneDataset(shape=(16, 16, 8), timesteps=[0, 12, 24])
