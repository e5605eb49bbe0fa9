"""Typed, introspectable option structures (``pressio_options`` analog).

LibPressio configures every plugin through an ``pressio_options``
structure: an ordered mapping from namespaced string keys (for example
``pressio:abs`` or ``sz3:lorenzo``) to typed values.  Options drive three
features that LibPressio-Predict relies on:

* **introspection** — the bench harness converts command-line flags into
  option structures automatically (Section 4.3 of the paper);
* **stable hashing** — checkpoint entries are indexed by a cryptographic
  hash over a deterministic walk of the option structure (footnote 4);
* **invalidation** — metrics declare which option keys invalidate their
  cached results (``predictors:invalidate``).

This module provides :class:`PressioOptions`, a thin ordered mapping with
namespace queries and an explicit notion of *unstable* entries (opaque
handles such as callables or RNGs) that are excluded from hashing,
mirroring LibPressio's exclusion of ``void*`` entries.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Any

import numpy as np

from .errors import OptionError

#: Types that participate in stable hashing.  Anything else is treated as
#: an opaque/unstable entry (LibPressio's ``void*``) and skipped.
STABLE_TYPES = (bool, int, float, str, bytes, type(None))


def is_stable_value(value: Any) -> bool:
    """Return True if *value* participates in the stable option hash.

    Scalars, strings, bytes, None, numpy scalars/arrays, and (possibly
    nested) lists/tuples/dicts of those are stable.  Callables, open
    handles, RNG objects and other opaque values are not.
    """
    if isinstance(value, STABLE_TYPES):
        return True
    if isinstance(value, (np.generic, np.ndarray)):
        return True
    if isinstance(value, (list, tuple)):
        return all(is_stable_value(v) for v in value)
    if isinstance(value, Mapping):
        return all(isinstance(k, str) and is_stable_value(v) for k, v in value.items())
    return False


class PressioOptions:
    """An ordered, namespaced mapping of configuration options.

    Keys follow LibPressio's ``namespace:name`` convention, e.g.
    ``pressio:abs`` (the generic absolute error bound understood by all
    error-bounded compressors) or ``sz3:block_size`` (compressor
    specific).

    The class behaves mostly like a ``dict`` but adds:

    * :meth:`namespace` — select the sub-options for one prefix;
    * :meth:`merge` / :meth:`updated` — functional-style combination;
    * :meth:`stable_items` — the deterministic walk used for hashing.
    """

    __slots__ = ("_data",)

    def __init__(self, values: Mapping[str, Any] | None = None) -> None:
        self._data: dict[str, Any] = {}
        if values:
            for key, value in values.items():
                self[key] = value

    # -- mapping protocol -------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __setitem__(self, key: str, value: Any) -> None:
        if not isinstance(key, str):
            raise OptionError(f"option keys must be str, got {type(key).__name__}")
        self._data[key] = value

    def __delitem__(self, key: str) -> None:
        del self._data[key]

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PressioOptions):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._data.items()))
        return f"PressioOptions({inner})"

    # -- dict-like helpers -------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def keys(self):
        return self._data.keys()

    def values(self):
        return self._data.values()

    def items(self):
        return self._data.items()

    def to_dict(self) -> dict[str, Any]:
        """Return a plain-dict copy of the options."""
        return dict(self._data)

    def copy(self) -> "PressioOptions":
        out = PressioOptions()
        out._data = dict(self._data)
        return out

    # -- namespaces & combination -------------------------------------------
    def namespace(self, prefix: str) -> "PressioOptions":
        """Return the sub-options whose keys start with ``prefix + ':'``."""
        want = prefix + ":"
        out = PressioOptions()
        for key, value in self._data.items():
            if key.startswith(want):
                out[key] = value
        return out

    def merge(self, other: Mapping[str, Any]) -> None:
        """Update in place from *other* (later values win)."""
        for key, value in other.items():
            self[key] = value

    def updated(self, other: Mapping[str, Any] | None = None, **kw: Any) -> "PressioOptions":
        """Return a copy updated with *other* and keyword pairs.

        Keyword names use ``__`` in place of ``:`` (``pressio__abs=1e-4``).
        """
        out = self.copy()
        if other:
            out.merge(other)
        for key, value in kw.items():
            out[key.replace("__", ":")] = value
        return out

    # -- hashing support -----------------------------------------------------
    def stable_items(self) -> list[tuple[str, Any]]:
        """Deterministically ordered (key, value) pairs that are hashable.

        Entries whose values are opaque (callables, streams, RNGs — the
        analog of LibPressio's ``void*`` CUDA-stream/MPI_Comm entries) are
        excluded, per footnote 4 of the paper.
        """
        return [
            (key, value)
            for key, value in sorted(self._data.items())
            if is_stable_value(value)
        ]


def as_options(value: Mapping[str, Any] | PressioOptions | None) -> PressioOptions:
    """Coerce a plain mapping (or None) into :class:`PressioOptions`."""
    if value is None:
        return PressioOptions()
    if isinstance(value, PressioOptions):
        return value
    return PressioOptions(value)
