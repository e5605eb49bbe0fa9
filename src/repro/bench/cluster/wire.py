"""Length-prefixed checksummed frame codec for the cluster transport.

The serve tier speaks newline-delimited JSON because its payloads are
small and human-debuggable; the cluster control plane ships pickled
:class:`~repro.bench.tasks.Task` batches and chaos plans, so it gets its
own binary framing.

Frame layout::

    >I      payload length (bytes)
    8s      sha256(payload)[:8]
    ...     pickle payload

The truncated digest is an *integrity* check, not authentication: a
torn or reordered write anywhere in the stream desynchronises the
length prefix and is caught as either a checksum mismatch or an
oversized frame, so a corrupt control channel fails loudly instead of
feeding the coordinator garbage outcomes.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from typing import Any

_HEADER = struct.Struct(">I8s")

#: Sanity cap on a single frame.  Control messages are task batches and
#: outcome acks — far below this; anything larger means a desynchronised
#: or hostile stream.
MAX_FRAME = 256 * 1024 * 1024


class FrameError(ConnectionError):
    """The stream is unusable: closed mid-frame, corrupt, or oversized."""


class ConnectionClosed(FrameError):
    """EOF on a clean frame boundary (peer went away)."""


def encode_frame(obj: Any) -> bytes:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME:
        raise FrameError(f"frame of {len(payload)} bytes exceeds cap {MAX_FRAME}")
    return _HEADER.pack(len(payload), hashlib.sha256(payload).digest()[:8]) + payload


def send_frame(sock, obj: Any) -> int:
    """Serialise *obj* onto *sock*; returns bytes put on the wire."""
    frame = encode_frame(obj)
    sock.sendall(frame)
    return len(frame)


def _read_exactly(rfile, n: int, *, mid_frame: bool) -> bytes:
    buf = rfile.read(n)
    if len(buf) == n:
        return buf
    if not buf and not mid_frame:
        raise ConnectionClosed("peer closed the connection")
    raise FrameError(f"stream truncated: wanted {n} bytes, got {len(buf)}")


def recv_frame(rfile) -> tuple[Any, int]:
    """Read one frame from a buffered binary reader.

    Returns ``(object, bytes_consumed)``.  Raises
    :class:`ConnectionClosed` on EOF at a frame boundary and
    :class:`FrameError` on truncation, an oversized length prefix, or a
    checksum mismatch.
    """
    header = _read_exactly(rfile, _HEADER.size, mid_frame=False)
    length, digest = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(f"frame announces {length} bytes, cap is {MAX_FRAME}")
    payload = _read_exactly(rfile, length, mid_frame=True)
    if hashlib.sha256(payload).digest()[:8] != digest:
        raise FrameError("frame checksum mismatch (corrupt control stream)")
    return pickle.loads(payload), _HEADER.size + length


__all__ = [
    "MAX_FRAME",
    "ConnectionClosed",
    "FrameError",
    "encode_frame",
    "recv_frame",
    "send_frame",
]
