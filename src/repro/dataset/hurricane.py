"""Synthetic Hurricane Isabel dataset (the paper's evaluation workload).

The real Hurricane Isabel data (Vis 2004 contest / SDRBench) is 13
atmospheric fields × 48 hourly timesteps on a 500×500×100 grid — too
large to ship and gated behind external downloads, so this module
generates a physically-flavoured synthetic equivalent at configurable
resolution.  What the paper's evaluation actually depends on is
preserved deliberately:

* **a mix of dense, smooth dynamics fields and sparse moisture fields**
  — §6 attributes the large prediction errors precisely to this
  sparse/dense diversity ("a kind of worst-case scenario for
  prediction");
* **field-to-field structural differences** (velocities vs pressure vs
  thresholded hydrometeors) so out-of-sample prediction across fields is
  genuinely hard;
* **smooth temporal evolution** over 48 steps so timesteps of one field
  correlate strongly while fields differ.

The construction: a Rankine-style vortex whose centre tracks across the
domain drives U/V/W/P/TC/QVAPOR; moisture species (CLOUD, PRECIP, QRAIN,
QSNOW, QICE, QGRAUP, QCLOUD) are smooth spectral random fields modulated
by the vortex updraft, *thresholded* at per-field levels to create large
exact-zero regions with field-specific sparsity.  All randomness is
seeded per (field, timestep); temporal coherence comes from rotating
between two fixed noise fields, so any single timestep can be generated
independently and reproducibly.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any

import numpy as np

from ..core.data import PressioData
from .base import DatasetPlugin, dataset_registry
from .io_loader import write_array

#: The 13 Hurricane Isabel field names.
FIELDS = (
    "CLOUD",
    "PRECIP",
    "P",
    "QCLOUD",
    "QGRAUP",
    "QICE",
    "QRAIN",
    "QSNOW",
    "QVAPOR",
    "TC",
    "U",
    "V",
    "W",
)

#: Sparse (thresholded) fields and their threshold quantiles: higher
#: quantile → sparser field, mimicking the real data where e.g. rain and
#: graupel occupy small regions while cloud water is more widespread.
SPARSE_THRESHOLDS = {
    "CLOUD": 0.70,
    "QCLOUD": 0.72,
    "PRECIP": 0.85,
    "QRAIN": 0.88,
    "QSNOW": 0.90,
    "QICE": 0.92,
    "QGRAUP": 0.95,
}

DEFAULT_SHAPE = (64, 64, 32)
DEFAULT_TIMESTEPS = 48


def _field_seed(base_seed: int, field: str, extra: int = 0) -> int:
    """Stable per-field seed derived with SHA-256 (process-independent)."""
    digest = hashlib.sha256(f"{base_seed}/{field}/{extra}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def spectral_field(shape: tuple[int, ...], seed: int, beta: float = 2.5) -> np.ndarray:
    """A Gaussian random field with a ``k^-beta`` power spectrum.

    FFT synthesis: filter white noise by radial wavenumber.  ``beta``
    controls smoothness (larger → smoother), giving each field realistic
    spatial autocorrelation instead of white noise.
    """
    rng = np.random.default_rng(seed)
    white = rng.standard_normal(shape)
    spectrum = np.fft.rfftn(white)
    freqs = [np.fft.fftfreq(n) for n in shape[:-1]] + [np.fft.rfftfreq(shape[-1])]
    grids = np.meshgrid(*freqs, indexing="ij")
    k2 = sum(g**2 for g in grids)
    k2[(0,) * len(shape)] = np.inf  # kill the DC mode
    filt = k2 ** (-beta / 4.0)  # amplitude ∝ k^-beta/2 → power ∝ k^-beta
    filt[(0,) * len(shape)] = 0.0
    field = np.fft.irfftn(spectrum * filt, s=shape, axes=tuple(range(len(shape))))
    std = field.std()
    return field / std if std > 0 else field


class HurricaneGenerator:
    """Deterministic generator for the synthetic Hurricane fields."""

    def __init__(
        self,
        shape: tuple[int, ...] = DEFAULT_SHAPE,
        timesteps: int = DEFAULT_TIMESTEPS,
        seed: int = 20230912,
        noise_level: float = 0.05,
    ) -> None:
        if len(shape) != 3:
            raise ValueError("hurricane fields are 3-D (nx, ny, nz)")
        self.shape = tuple(int(s) for s in shape)
        self.timesteps = int(timesteps)
        self.seed = int(seed)
        self.noise_level = float(noise_level)
        self._tau_cache: dict[str, float] = {}
        self._build_grid()

    def _build_grid(self) -> None:
        nx, ny, nz = self.shape
        x = np.linspace(-1.0, 1.0, nx)
        y = np.linspace(-1.0, 1.0, ny)
        z = np.linspace(0.0, 1.0, nz)
        self._X, self._Y, self._Z = np.meshgrid(x, y, z, indexing="ij")

    # The grid is the bulk of a generator's state and ``shape`` alone
    # determines it, so a pickle (every cluster rank's init message, every
    # respawn) carries the shape and the receiver rebuilds the grid.
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        for name in ("_X", "_Y", "_Z"):
            del state[name]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._build_grid()

    # -- vortex kinematics ---------------------------------------------------
    def track(self, t: int) -> tuple[float, float, float]:
        """Vortex centre (cx, cy) and intensity at timestep *t*.

        The storm enters from the south-east, curves north-west, and
        intensifies towards mid-track — a stylised Isabel track.
        """
        s = t / max(self.timesteps - 1, 1)
        cx = 0.6 - 1.1 * s
        cy = -0.5 + 1.0 * s**1.2
        intensity = 0.6 + 0.8 * np.sin(np.pi * min(max(s, 0.0), 1.0)) ** 2
        return float(cx), float(cy), float(intensity)

    def _noise(self, field: str, t: int, beta: float) -> np.ndarray:
        """Temporally coherent noise: rotation between two fixed fields."""
        n1 = spectral_field(self.shape, _field_seed(self.seed, field, 1), beta)
        n2 = spectral_field(self.shape, _field_seed(self.seed, field, 2), beta)
        omega = 2.0 * np.pi / max(self.timesteps, 1)
        return np.cos(omega * t) * n1 + np.sin(omega * t) * n2

    def _vortex(self, t: int) -> dict[str, np.ndarray]:
        """Shared vortex geometry for timestep *t*."""
        cx, cy, intensity = self.track(t)
        dx = self._X - cx
        dy = self._Y - cy
        r = np.sqrt(dx**2 + dy**2) + 1e-9
        rc = 0.18
        # Rankine-style tangential wind: solid-body core, 1/sqrt(r) skirt.
        vt = intensity * np.where(r < rc, r / rc, np.sqrt(rc / r))
        decay = np.exp(-1.5 * self._Z)
        return {
            "dx": dx,
            "dy": dy,
            "r": r,
            "rc": np.asarray(rc),
            "vt": vt,
            "decay": decay,
            "intensity": np.asarray(intensity),
        }

    # -- public API ----------------------------------------------------------
    def generate(self, field: str, t: int) -> np.ndarray:
        """Generate one field at one timestep as float32."""
        if field not in FIELDS:
            raise ValueError(f"unknown hurricane field {field!r}")
        if not 0 <= t < self.timesteps:
            raise ValueError(f"timestep {t} outside [0, {self.timesteps})")
        v = self._vortex(t)
        Z = self._Z
        nl = self.noise_level
        if field == "U":
            base = -v["vt"] * (v["dy"] / v["r"]) * v["decay"] + 0.3
            out = 35.0 * (base + nl * self._noise(field, t, 2.8))
        elif field == "V":
            base = v["vt"] * (v["dx"] / v["r"]) * v["decay"] - 0.1
            out = 35.0 * (base + nl * self._noise(field, t, 2.8))
        elif field == "W":
            ring = np.exp(-(((v["r"] - 0.18) / 0.06) ** 2))
            base = v["intensity"] * ring * np.sin(np.pi * Z)
            out = 8.0 * (base + 2 * nl * self._noise(field, t, 2.2))
        elif field == "P":
            well = -v["intensity"] * np.exp(-((v["r"] / 0.25) ** 2))
            out = 500.0 + 120.0 * (well - 0.8 * Z) + 5.0 * nl * self._noise(field, t, 3.2)
        elif field == "TC":
            warm_core = 0.5 * v["intensity"] * np.exp(-((v["r"] / 0.2) ** 2)) * Z
            out = 25.0 - 60.0 * Z + 15.0 * (warm_core + nl * self._noise(field, t, 3.0))
        elif field == "QVAPOR":
            moist = np.exp(-2.5 * Z) * (1.0 + 0.4 * np.exp(-((v["r"] / 0.3) ** 2)))
            out = 0.02 * np.maximum(moist + 2 * nl * self._noise(field, t, 2.6), 0.0)
        else:
            # Sparse hydrometeor species: updraft-correlated smooth field
            # thresholded at a per-field *absolute* level → large
            # exact-zero areas whose coverage evolves with the storm's
            # intensity (as in the real data), rather than being pinned
            # to a fixed fraction at every timestep.
            ring = np.exp(-(((v["r"] - 0.18) / 0.10) ** 2))
            carrier = float(v["intensity"]) * (
                0.5 * ring * np.sin(np.pi * Z)
                + 0.55 * self._noise(field, t, 2.4)
                + 0.3
            )
            out = 0.003 * np.maximum(carrier - self._sparse_tau(field), 0.0)
        return np.ascontiguousarray(out, dtype=np.float32)

    def _sparse_tau(self, field: str) -> float:
        """Absolute threshold for a sparse species.

        Calibrated once per field: the level that yields the field's
        nominal coverage quantile on a *reference* carrier built at
        mid-track intensity with the field's base noise.  Because the
        threshold is then held fixed, actual coverage varies over the
        storm's life cycle.
        """
        key = field
        if key not in self._tau_cache:
            mid = self.timesteps // 2
            v = self._vortex(mid)
            ring = np.exp(-(((v["r"] - 0.18) / 0.10) ** 2))
            n1 = spectral_field(self.shape, _field_seed(self.seed, field, 1), 2.4)
            carrier = float(v["intensity"]) * (
                0.5 * ring * np.sin(np.pi * self._Z) + 0.55 * n1 + 0.3
            )
            self._tau_cache[key] = float(
                np.quantile(carrier, SPARSE_THRESHOLDS[field])
            )
        return self._tau_cache[key]


@dataset_registry.register("hurricane")
class HurricaneDataset(DatasetPlugin):
    """Dataset plugin over the synthetic Hurricane fields.

    Entries enumerate (field, timestep) pairs in field-major order.
    Subsets can be selected with ``fields=[...]`` / ``timesteps=[...]``.
    """

    id = "hurricane"

    def __init__(
        self,
        shape: tuple[int, ...] = DEFAULT_SHAPE,
        timesteps: int | list[int] = DEFAULT_TIMESTEPS,
        fields: list[str] | None = None,
        seed: int = 20230912,
        **options: Any,
    ) -> None:
        super().__init__(**options)
        if isinstance(timesteps, int):
            steps = list(range(timesteps))
            total = timesteps
        else:
            steps = [int(t) for t in timesteps]
            total = max(steps) + 1 if steps else DEFAULT_TIMESTEPS
        self.fields = list(fields) if fields is not None else list(FIELDS)
        unknown = set(self.fields) - set(FIELDS)
        if unknown:
            raise ValueError(f"unknown hurricane fields: {sorted(unknown)}")
        self.steps = steps
        self.generator = HurricaneGenerator(shape=shape, timesteps=total, seed=seed)

    def __len__(self) -> int:
        return len(self.fields) * len(self.steps)

    def entry(self, index: int) -> tuple[str, int]:
        """Map a flat index to its (field, timestep) pair."""
        field = self.fields[index // len(self.steps)]
        t = self.steps[index % len(self.steps)]
        return field, t

    def load_metadata(self, index: int) -> dict[str, Any]:
        field, t = self.entry(index)
        return {
            "field": field,
            "timestep": t,
            "data_id": f"hurricane/{field}/{t}",
            "shape": self.generator.shape,
            "dtype": "float32",
            "sparse": field in SPARSE_THRESHOLDS,
        }

    def load_data(self, index: int) -> PressioData:
        field, t = self.entry(index)
        array = self.generator.generate(field, t)
        return self._count_load(PressioData(array, metadata=self.load_metadata(index)))

    def get_configuration(self):
        out = super().get_configuration()
        out.merge(
            {
                "hurricane:shape": list(self.generator.shape),
                "hurricane:fields": list(self.fields),
                "hurricane:steps": list(self.steps),
                "hurricane:seed": self.generator.seed,
            }
        )
        return out

    def write_to_directory(self, root: str, fmt: str = "npy") -> list[str]:
        """Materialise every entry as ``<FIELD>_t<TT>.<fmt>`` files.

        Lets the folder/io loader pipeline (and the real SDRBench layout)
        be exercised against the synthetic data.
        """
        os.makedirs(root, exist_ok=True)
        paths = []
        for i in range(len(self)):
            field, t = self.entry(i)
            path = os.path.join(root, f"{field}_t{t:02d}.{fmt}")
            write_array(path, self.load_data(i).array)
            paths.append(path)
        return paths
