"""Buffer abstraction (``pressio_data`` analog).

LibPressio moves data between plugins as ``pressio_data`` handles that
carry a dtype, dimensions, and a memory domain (host/device).  Here the
storage is a NumPy array; we keep the thin wrapper because:

* dataset plugins attach provenance metadata (source file, field name,
  timestep) that the bench scheduler uses for locality-aware placement;
* compressed streams and decoded buffers flow through the same type;
* a ``domain`` tag lets the dataset pipeline model host/device movement
  (Figure 2's device-placement stage) without real GPUs.
"""

from __future__ import annotations

import itertools
from typing import Any, Mapping

import numpy as np

#: Process-wide serials for buffers without provenance.  ``id(obj)`` is
#: handed to the next object once one is freed, so it cannot key a cache
#: that outlives the buffer; a serial is never handed out twice.
_SERIALS = itertools.count(1)


class PressioData:
    """A typed n-dimensional buffer with provenance metadata.

    Parameters
    ----------
    array:
        The payload.  Stored as-is (no copy) unless ``copy=True``.
    metadata:
        Free-form provenance (e.g. ``{"file": ..., "field": "QRAIN",
        "timestep": 12}``).  Copied shallowly.
    domain:
        Memory domain tag, ``"host"`` by default.  The simulated device
        mover in :mod:`repro.dataset` flips this to ``"device"``.
    """

    __slots__ = ("array", "metadata", "domain", "_serial")

    def __init__(
        self,
        array: np.ndarray,
        *,
        metadata: Mapping[str, Any] | None = None,
        domain: str = "host",
        copy: bool = False,
    ) -> None:
        if not isinstance(array, np.ndarray):
            array = np.asarray(array)
        self.array = array.copy() if copy else array
        self.metadata: dict[str, Any] = dict(metadata or {})
        self.domain = domain
        self._serial = next(_SERIALS)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_bytes(cls, payload: bytes, *, metadata: Mapping[str, Any] | None = None) -> "PressioData":
        """Wrap an opaque byte string (e.g. a compressed stream)."""
        return cls(np.frombuffer(payload, dtype=np.uint8), metadata=metadata)

    # -- shape/type queries --------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.array.shape)

    @property
    def dtype(self) -> np.dtype:
        return self.array.dtype

    @property
    def size(self) -> int:
        return int(self.array.size)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    def tobytes(self) -> bytes:
        return self.array.tobytes()

    # -- conversions -----------------------------------------------------------
    def to_domain(self, domain: str) -> "PressioData":
        """Return this buffer tagged as living in *domain*.

        Movement is simulated: the bytes do not change, only the tag —
        enough for the dataset pipeline and scheduler to account for
        placement.  Same-domain moves return ``self``.
        """
        if domain == self.domain:
            return self
        return PressioData(self.array, metadata=self.metadata, domain=domain)

    def with_metadata(self, **extra: Any) -> "PressioData":
        """Return a shallow copy with extra provenance entries."""
        merged = dict(self.metadata)
        merged.update(extra)
        return PressioData(self.array, metadata=merged, domain=self.domain)

    # -- misc ---------------------------------------------------------------
    def data_id(self) -> str:
        """A provenance-derived identity used for caching and locality.

        Prefers explicit metadata (file/field/timestep); falls back to
        the buffer's construction serial, which is stable for its
        lifetime and never reused by a later buffer in this process.
        """
        meta = self.metadata
        if "data_id" in meta:
            return str(meta["data_id"])
        parts = [str(meta[k]) for k in ("file", "field", "timestep") if k in meta]
        if parts:
            return "/".join(parts)
        return f"anon-{self._serial:x}"

    def __repr__(self) -> str:
        return (
            f"PressioData(shape={self.shape}, dtype={self.dtype}, "
            f"domain={self.domain!r}, id={self.data_id()!r})"
        )


def as_data(value: PressioData | np.ndarray) -> PressioData:
    """Coerce an ndarray (or pass through a PressioData) into a buffer."""
    if isinstance(value, PressioData):
        return value
    return PressioData(np.asarray(value))
