"""Exact serialisation of trained predictor state.

The paper requires predictor state to be *serialisable* (Figure 4's
``predictors:state``) so trained models can leave the bench and be
reloaded by applications.  The checkpoint store's JSON coercion is not
enough for that: ``tolist()`` silently drops dtypes (a ``float32``
forest threshold comes back ``float64``) and tuples come back as lists,
so a round-tripped model is *almost* the one that was trained.  A
serving layer cannot tolerate "almost" — a registry blob must
reconstruct a predictor whose ``predict`` is bit-identical to the
trained one.

This codec therefore tags everything whose JSON image is lossy:

* ``np.ndarray`` → base64 payload + ``dtype.str`` + shape + C/F order;
* numpy scalars → value + dtype (so ``np.float32(1.5)`` does not come
  back as a Python float);
* ``tuple`` → tagged list (hyper-parameters like ``hidden=(32, 16)``
  survive);
* ``bytes`` → base64.

Anything else — closures, lambdas, live compressor handles, open files —
raises :class:`StateSerializationError` naming the offending path, which
is how ``publish`` fails loudly instead of shipping a blob that explodes
at first query.

The state codec (registry blobs, featurization-cache rows) stays base64
inside JSON: it is written once and read rarely.  The *query* wire does
not: :func:`encode_array` yields an :class:`EncodedArray`, a JSON header
``{dtype, shape, order, nbytes}`` whose raw body travels as bytes right
after the request line, and :func:`check_array_header` is the one gate a
client-supplied header passes before the server reads or allocates
anything from it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from typing import Any

import numpy as np

from ..core.errors import PressioError, Status

#: Bump when the encoding changes; stored in every blob so a registry
#: refuses to deserialise state written under a different convention.
CODEC_VERSION = 1

_TAG_ARRAY = "__ndarray__"
_TAG_SCALAR = "__npscalar__"
_TAG_TUPLE = "__tuple__"
_TAG_BYTES = "__bytes__"
_RESERVED = (_TAG_ARRAY, _TAG_SCALAR, _TAG_TUPLE, _TAG_BYTES)


class StateSerializationError(PressioError):
    """Predictor state contains a value that cannot round-trip exactly.

    Raised at *publish* time (not first query): the path into the state
    dict is included so the offending scheme attribute — a formula
    closure, a live metric handle — is identifiable immediately.
    """

    status = Status.INVALID_TYPE


def _encode(value: Any, path: str) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        arr = value
        order = "F" if (arr.flags.f_contiguous and not arr.flags.c_contiguous) else "C"
        raw = np.asfortranarray(arr) if order == "F" else np.ascontiguousarray(arr)
        return {
            _TAG_ARRAY: base64.b64encode(raw.tobytes(order=order)).decode("ascii"),
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "order": order,
        }
    if isinstance(value, np.generic):
        return {_TAG_SCALAR: value.item(), "dtype": value.dtype.str}
    if isinstance(value, tuple):
        return {_TAG_TUPLE: [_encode(v, f"{path}[{i}]") for i, v in enumerate(value)]}
    if isinstance(value, bytes):
        return {_TAG_BYTES: base64.b64encode(value).decode("ascii")}
    if isinstance(value, list):
        return [_encode(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise StateSerializationError(
                    f"state key at {path!r} is {type(key).__name__}, not str"
                )
            if key in _RESERVED:
                raise StateSerializationError(
                    f"state key {key!r} at {path!r} collides with a codec tag"
                )
            out[key] = _encode(item, f"{path}.{key}")
        return out
    raise StateSerializationError(
        f"state value at {path!r} has unserialisable type "
        f"{type(value).__name__}; predictor state must contain only "
        "numbers, strings, arrays, and containers thereof (no closures, "
        "handles, or callables)"
    )


def _decode(value: Any) -> Any:
    if isinstance(value, dict):
        if _TAG_ARRAY in value:
            raw = base64.b64decode(value[_TAG_ARRAY])
            arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
            shape = tuple(value["shape"])
            order = value.get("order", "C")
            # frombuffer yields a read-only view over the decode buffer;
            # copy so restored state is as mutable as the original.
            return arr.reshape(shape, order=order).copy(order=order)
        if _TAG_SCALAR in value:
            return np.dtype(value["dtype"]).type(value[_TAG_SCALAR])
        if _TAG_TUPLE in value:
            return tuple(_decode(v) for v in value[_TAG_TUPLE])
        if _TAG_BYTES in value:
            return base64.b64decode(value[_TAG_BYTES])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def encode_state(state: dict[str, Any]) -> str:
    """Serialise a predictor state dict to a JSON string (exact)."""
    if not isinstance(state, dict):
        raise StateSerializationError(
            f"predictor state must be a dict, got {type(state).__name__}"
        )
    payload = {"codec_version": CODEC_VERSION, "state": _encode(state, "state")}
    return json.dumps(payload, sort_keys=True)


def decode_state(blob: str) -> dict[str, Any]:
    """Reconstruct the exact state dict from :func:`encode_state` output."""
    payload = json.loads(blob)
    version = payload.get("codec_version")
    if version != CODEC_VERSION:
        raise StateSerializationError(
            f"state blob written with codec version {version!r}; "
            f"this build reads version {CODEC_VERSION}"
        )
    return _decode(payload["state"])


def state_checksum(blob: str) -> str:
    """Integrity checksum over the serialised blob bytes."""
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: The dtypes a query field may travel as: numeric, little-endian or
#: single-byte.  The server looks a header's dtype up here and never hands
#: client text to ``np.dtype``.
_WIRE_DTYPES = {
    dtype.str: dtype
    for dtype in (
        np.dtype(code).newbyteorder("<")
        for code in ("i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8", "f2", "f4", "f8")
    )
}
_HEADER_KEYS = frozenset(("dtype", "shape", "order", "nbytes"))
#: More dimensions than any field has; bounds the header's shape walk.
_MAX_NDIM = 32


class EncodedArray(dict):
    """One ndarray on the query wire: the JSON header is the mapping,
    ``body`` the raw bytes that follow the request line.

    Only the header is JSON-serialised, so ``json.dumps`` of a request
    carrying one writes the header alone; the client sends ``body``
    after the newline.  Treat it as immutable: the client memoises its
    fingerprint by identity.
    """

    __slots__ = ("body",)

    def __init__(self, header: dict[str, Any], body: bytes) -> None:
        super().__init__(header)
        self.body = body


def check_array_header(header: Any, limit: int | None = None) -> dict[str, Any]:
    """Validate a client-supplied array header; return its canonical form.

    Every check runs on the header alone, before a byte of the body is
    read: exactly the keys ``dtype``/``shape``/``order``/``nbytes``, a
    dtype from the closed wire table, a shape of at most ``_MAX_NDIM``
    non-negative ints (bools refused), ``nbytes`` equal to the shape's
    product times the item size and, with *limit*, at most *limit*.
    """
    if not isinstance(header, dict) or header.keys() != _HEADER_KEYS:
        raise StateSerializationError(
            "an array header has exactly the keys dtype, shape, order, nbytes"
        )
    dtype = _WIRE_DTYPES.get(header["dtype"]) if isinstance(header["dtype"], str) else None
    if dtype is None:
        raise StateSerializationError(f"unsupported wire dtype {header['dtype']!r}")
    shape, nbytes, order = header["shape"], header["nbytes"], header["order"]
    if not (
        isinstance(shape, list)
        and len(shape) <= _MAX_NDIM
        and all(type(dim) is int and dim >= 0 for dim in shape)
    ):
        raise StateSerializationError(
            f"shape must be a list of at most {_MAX_NDIM} non-negative ints"
        )
    if order not in ("C", "F"):
        raise StateSerializationError("order must be 'C' or 'F'")
    if type(nbytes) is not int or nbytes < 0:
        raise StateSerializationError("nbytes must be a non-negative int")
    if limit is not None and nbytes > limit:
        raise StateSerializationError(f"nbytes {nbytes} exceeds the {limit}-byte limit")
    if math.prod(shape) * dtype.itemsize != nbytes:
        raise StateSerializationError(
            f"shape {shape} of {dtype.str} is not {nbytes} bytes"
        )
    return {"dtype": dtype.str, "shape": shape, "order": order, "nbytes": nbytes}


def encode_array(array: np.ndarray) -> EncodedArray:
    """Wire encoding of one ndarray (the query payload of a field)."""
    arr = np.asarray(array)
    dtype = arr.dtype.newbyteorder("<")
    if dtype.str not in _WIRE_DTYPES:
        raise StateSerializationError(f"unsupported wire dtype {arr.dtype.str!r}")
    order = "F" if (arr.flags.f_contiguous and not arr.flags.c_contiguous) else "C"
    body = arr.astype(dtype, copy=False).tobytes(order=order)
    header = {
        "dtype": dtype.str,
        "shape": [int(dim) for dim in arr.shape],
        "order": order,
        "nbytes": len(body),
    }
    return EncodedArray(header, body)


def decode_array(value: Any) -> np.ndarray:
    """Inverse of :func:`encode_array`: a read-only view over the body."""
    if not isinstance(value, EncodedArray):
        raise StateSerializationError("expected an encoded ndarray payload")
    header = check_array_header(value)
    if len(value.body) != header["nbytes"]:
        raise StateSerializationError(
            f"body is {len(value.body)} bytes, header says {header['nbytes']}"
        )
    arr = np.frombuffer(value.body, dtype=_WIRE_DTYPES[header["dtype"]])
    return arr.reshape(header["shape"], order=header["order"])
