"""Stable cryptographic hashing of option structures (§4.3 of the paper).

Python's built-in ``hash`` is salted per process, so it cannot index a
checkpoint database that must survive restarts.  The paper introduces a
capability to hash option structures with a *fast cryptographic hash*:
the structure is walked in a deterministic order and every entry with a
consistent (stable) value is hashed; opaque entries (``void*`` in
LibPressio — CUDA streams, MPI communicators) are excluded.

This module reproduces that: a canonical byte serialisation of nested
option values fed into SHA-256.  The encoding is explicitly versioned and
type-tagged so that e.g. ``1`` (int), ``1.0`` (float) and ``"1"`` (str)
hash differently and containers cannot collide with scalars.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .options import PressioOptions, is_stable_value

#: Bump when the canonical encoding changes; stored in checkpoint DBs so
#: stale indexes are detected rather than silently mismatched.
HASH_VERSION = 1
#: What every canonical encoding starts with.
_HEADER = b"pressio-hash-v%d" % HASH_VERSION

_TAG_NONE = b"N"
_TAG_BOOL = b"B"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_STR = b"S"
_TAG_BYTES = b"Y"
_TAG_LIST = b"L"
_TAG_DICT = b"D"
_TAG_ARRAY = b"A"


def _encode(value: Any, out: list[bytes]) -> None:
    """Append the canonical encoding of *value* to *out*.

    Unstable values are silently skipped at the container level by the
    callers (they filter first); reaching here with one is an internal
    error we surface as TypeError to catch bugs early.
    """
    if value is None:
        out.append(_TAG_NONE)
    elif isinstance(value, (bool, np.bool_)):
        out.append(_TAG_BOOL + (b"\x01" if value else b"\x00"))
    elif isinstance(value, (int, np.integer)):
        raw = int(value).to_bytes(16, "little", signed=True)
        out.append(_TAG_INT + raw)
    elif isinstance(value, (float, np.floating)):
        out.append(_TAG_FLOAT + struct.pack("<d", float(value)))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR + len(raw).to_bytes(8, "little") + raw)
    elif isinstance(value, bytes):
        out.append(_TAG_BYTES + len(value).to_bytes(8, "little") + value)
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        desc = f"{arr.dtype.str}|{arr.shape}".encode()
        out.append(_TAG_ARRAY + len(desc).to_bytes(8, "little") + desc)
        out.append(arr.tobytes())
    elif isinstance(value, (list, tuple)):
        stable = [v for v in value if is_stable_value(v)]
        out.append(_TAG_LIST + len(stable).to_bytes(8, "little"))
        for item in stable:
            _encode(item, out)
    elif isinstance(value, Mapping):
        out.append(_mapping_bytes([_encode_item(k, v) for k, v in _stable_items(value)]))
    else:
        raise TypeError(f"cannot canonically encode value of type {type(value).__name__}")


def _encode_item(key: str, value: Any) -> bytes:
    """The canonical encoding of one mapping item: its key, then its value.

    The one item encoder: a mapping's bytes, whether :func:`_encode`
    walks it or :meth:`EncodedItems.with_item` splices one item into it,
    are these encodings in sorted key order.
    """
    out: list[bytes] = []
    _encode(key, out)
    _encode(value, out)
    return b"".join(out)


def _mapping_bytes(items: Sequence[bytes]) -> bytes:
    """A mapping's encoding from its items' encodings, in key order."""
    return _TAG_DICT + len(items).to_bytes(8, "little") + b"".join(items)


def _stable_items(options: PressioOptions | Mapping[str, Any]) -> list[tuple[str, Any]]:
    """The (key, value) pairs a hash covers, in sorted key order: string
    keys with stable values."""
    if isinstance(options, PressioOptions):
        return options.stable_items()
    return sorted(
        (k, v) for k, v in options.items() if isinstance(k, str) and is_stable_value(v)
    )


@dataclass(frozen=True, slots=True)
class HashedOptions:
    """An option structure that has been hashed.

    Holds the canonical bytes and their ``options_hash`` digest, both
    derived once by :meth:`of` (or :meth:`EncodedItems.with_item`).
    :func:`combined_hash` accepts it where it accepts a mapping and
    feeds the stored bytes instead of walking the structure again, so a
    part shared by many keys (one compressor configuration, one dataset
    entry) is encoded once however many keys it goes into.  It is a
    snapshot: later edits to the source mapping are not seen.
    """

    canonical: bytes
    digest: str

    @classmethod
    def of(cls, options: PressioOptions | Mapping[str, Any]) -> "HashedOptions":
        """Encode and hash *options*."""
        return cls.from_canonical(canonical_bytes(options))

    @classmethod
    def from_canonical(cls, canonical: bytes) -> "HashedOptions":
        """Hash canonical bytes that are already encoded."""
        return cls(canonical, hashlib.sha256(canonical).hexdigest())


@dataclass(frozen=True, slots=True)
class EncodedItems:
    """An option mapping encoded once, item by item, in canonical order.

    Many parts can share all but one item — every entry of a dataset has
    the dataset's configuration plus its own ``entry:data_id``.
    :meth:`with_item` derives such a part by splicing the encoding of
    its one item into its sorted place among the stored ones, so the
    shared items are encoded once however many parts they go into.
    """

    keys: tuple[str, ...]
    items: tuple[bytes, ...]

    @classmethod
    def of(cls, options: PressioOptions | Mapping[str, Any]) -> "EncodedItems":
        stable = _stable_items(options)
        return cls(tuple(k for k, _ in stable), tuple(_encode_item(k, v) for k, v in stable))

    def with_item(self, key: Any, value: Any) -> HashedOptions:
        """``HashedOptions.of({**options, key: value})``, byte for byte.

        The item replaces a stored one of the same key; an unstable
        *value* drops that key, and a non-string *key* changes nothing —
        as the mapping walk would have it.
        """
        items = self.items
        if isinstance(key, str):
            at = bisect.bisect_left(self.keys, key)
            end = at + (at < len(self.keys) and self.keys[at] == key)
            new = (_encode_item(key, value),) if is_stable_value(value) else ()
            items = items[:at] + new + items[end:]
        return HashedOptions.from_canonical(_HEADER + _mapping_bytes(items))


def canonical_bytes(options: PressioOptions | Mapping[str, Any]) -> bytes:
    """Serialise an option structure into its canonical byte form.

    Keys are visited in sorted order; unstable entries are excluded, so
    two configurations that differ only in opaque handles hash equally —
    exactly the semantics the paper's checkpoint index needs.
    """
    out: list[bytes] = [_HEADER]
    _encode(dict(_stable_items(options)), out)
    return b"".join(out)


def options_hash(options: PressioOptions | Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical form of *options*."""
    return hashlib.sha256(canonical_bytes(options)).hexdigest()


def hash_parts(
    *parts: PressioOptions | Mapping[str, Any] | HashedOptions | str,
    prefix: hashlib._Hash | None = None,
) -> hashlib._Hash:
    """A SHA-256 state fed *parts*, after a copy of *prefix* if given.

    The one recipe of a combined key (:func:`combined_hash` is its
    digest).  ``hash_parts(*a, *b)`` equals ``hash_parts(*b,
    prefix=hash_parts(*a))``, and *prefix* is left as it was, so keys
    that share leading parts feed them once.
    """
    h = hashlib.sha256() if prefix is None else prefix.copy()
    for part in parts:
        if isinstance(part, str):
            h.update(b"\x00str\x00" + part.encode("utf-8"))
        else:
            canonical = (
                part.canonical if isinstance(part, HashedOptions) else canonical_bytes(part)
            )
            h.update(b"\x00opt\x00" + canonical)
    return h


def combined_hash(*parts: PressioOptions | Mapping[str, Any] | HashedOptions | str) -> str:
    """Hash several structures/strings into one key.

    Bench results are uniquely identified by their compressor
    configuration, dataset configuration, experimental metadata, and
    replicate id (§4.3); this helper combines those four digests.  A
    :class:`HashedOptions` part feeds the bytes it already holds, so the
    key is the same whether a part arrives raw or hashed.
    """
    return hash_parts(*parts).hexdigest()
