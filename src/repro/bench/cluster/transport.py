"""Coordinator/worker transport: pure-socket TCP.

Every rank, spawned or started by a launcher (``srun``, ``mpirun``),
talks to rank 0 over one TCP connection carrying picklable message
dicts.  Message vocabulary:

* worker → coordinator: ``{"op": "hello", "rank": r}``,
  ``{"op": "heartbeat"}``, ``{"op": "result", "outcomes": [...]}``,
  ``{"op": "bye"}``;
* coordinator → worker: ``{"op": "init", ...}``,
  ``{"op": "run", "tasks": [...]}``, ``{"op": "stop"}``.

TCP threading model: the coordinator runs one accept thread plus one
reader thread per connection; every inbound message lands on a single
queue the engine polls.  One thread per rank is deliberate — the engine
targets tens of ranks per coordinator, where thread-per-connection is
simpler and no slower than a selector loop, and a stalled rank cannot
block the others' reads.  Rank arrival and death surface in-band: a
reader enqueues its rank's hello once the connection is registered (so
the rank can be sent to), and ``(rank, None)`` when it hits EOF (or a
corrupt frame).

Byte accounting: both directions are counted so ``QueueStats`` can
report bytes-over-wire per task — the number that tells you whether the
control plane is cheap enough for your task granularity.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Any

from .wire import FrameError, recv_frame, send_frame

#: Inbox event meaning "this rank's connection is gone".
RANK_DEAD = None


class TransportError(ConnectionError):
    """Rendezvous failed (bind, connect, or handshake)."""


class TcpCoordinator:
    """Rank-0 side of the transport.

    Accepts worker connections, demultiplexes their messages onto one
    inbox, and sends to ranks by id.  ``send`` is only called from the
    engine's dispatch thread, so per-rank sockets have a single writer
    and need no write lock.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._inbox: queue.Queue[tuple[int, dict[str, Any] | None]] = queue.Queue()
        self._conns: dict[int, socket.socket] = {}  # guarded-by: _conn_lock
        #: Every accepted connection, hello read or not.
        self._accepted: set[socket.socket] = set()  # guarded-by: _conn_lock
        self._conn_lock = threading.Lock()
        self._closed = threading.Event()
        self.bytes_sent = 0
        self.bytes_received = 0  # reader threads; += races lose counts, never corrupt
        self._threads: list[threading.Thread] = []
        accept = threading.Thread(target=self._accept_loop, daemon=True)
        accept.start()
        self._threads.append(accept)

    # -- accept / read side ------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener hung up
            with self._conn_lock:
                if self._closed.is_set():
                    _hang_up(conn)  # accepted as close() began
                    return
                self._accepted.add(conn)
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            handler.start()
            self._threads.append(handler)

    def _serve_connection(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        rank = -1
        try:
            hello, nbytes = recv_frame(rfile)
            self.bytes_received += nbytes
            if not isinstance(hello, dict) or hello.get("op") != "hello":
                raise FrameError(f"expected hello, got {hello!r}")
            rank = int(hello["rank"])
            with self._conn_lock:
                stale = self._conns.pop(rank, None)
                self._conns[rank] = conn
            if stale is not None:
                _hang_up(stale)  # a respawned rank supersedes its corpse
            self._inbox.put((rank, hello))
            while True:
                msg, nbytes = recv_frame(rfile)
                self.bytes_received += nbytes
                self._inbox.put((rank, msg))
        except (FrameError, OSError):
            # EOF, a corrupt stream, or a connection close() hung up
            # before this reader first read it: the rank is dead either way.
            pass
        finally:
            rfile.close()
            with self._conn_lock:
                self._accepted.discard(conn)
                if rank >= 0 and self._conns.get(rank) is conn:
                    del self._conns[rank]
            if rank >= 0 and not self._closed.is_set():
                self._inbox.put((rank, RANK_DEAD))
            conn.close()

    # -- engine-facing API -------------------------------------------------------
    def poll(self, timeout: float) -> tuple[int, dict[str, Any] | None] | None:
        """Next ``(rank, message)`` event; message ``None`` = rank died."""
        try:
            return self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None

    def send(self, rank: int, msg: dict[str, Any]) -> int:
        with self._conn_lock:
            conn = self._conns.get(rank)
        if conn is None:
            raise TransportError(f"rank {rank} is not connected")
        try:
            nbytes = send_frame(conn, msg)
        except OSError as exc:
            raise TransportError(f"send to rank {rank} failed: {exc}") from exc
        self.bytes_sent += nbytes
        return nbytes

    def drop_rank(self, rank: int) -> None:
        with self._conn_lock:
            conn = self._conns.pop(rank, None)
        if conn is not None:
            _hang_up(conn)

    def close(self) -> None:
        """Hang up the listener and every connection (which wakes the
        accept thread and every reader at once), then join the threads."""
        with self._conn_lock:
            self._closed.set()
            conns = list(self._accepted)
            self._conns.clear()
        _hang_up(self._listener)
        for conn in conns:
            _hang_up(conn)
        for t in self._threads:
            t.join(timeout=1.0)


def _hang_up(sock: socket.socket) -> None:
    """``shutdown`` then ``close``: ends the socket itself, even while a
    forked child still holds a copy of this process's descriptor."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected, or the peer is gone already
    sock.close()


class TcpWorkerTransport:
    """Worker side of the transport (one connection, two senders).

    ``send`` is serialised by an internal lock because the worker's main
    loop (results) and its heartbeat thread write the same socket and
    frames must not interleave.  The blocking socket write lives in
    :func:`~repro.bench.cluster.wire.send_frame`; holding the lock
    across it is the design — a worker whose coordinator stopped reading
    has nothing better to do than block.
    """

    def __init__(
        self,
        host: str,
        port: int,
        rank: int,
        *,
        connect_timeout: float = 30.0,
        retry_interval: float = 0.1,
    ) -> None:
        self.rank = int(rank)
        self.bytes_sent = 0  # guarded-by: _send_lock
        self.bytes_received = 0
        deadline = time.monotonic() + connect_timeout
        last_err: Exception | None = None
        sock: socket.socket | None = None
        while sock is None:
            try:
                sock = socket.create_connection((host, port), timeout=connect_timeout)
            except OSError as exc:
                last_err = exc
                if time.monotonic() >= deadline:
                    raise TransportError(
                        f"rank {rank} could not reach coordinator "
                        f"{host}:{port} within {connect_timeout:g}s: {last_err}"
                    ) from exc
                time.sleep(retry_interval)
        sock.settimeout(None)
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._send_lock = threading.Lock()
        self.send({"op": "hello", "rank": self.rank})

    def send(self, msg: dict[str, Any]) -> int:
        with self._send_lock:
            nbytes = send_frame(self._sock, msg)
            self.bytes_sent += nbytes
        return nbytes

    def recv(self) -> dict[str, Any]:
        msg, nbytes = recv_frame(self._rfile)
        self.bytes_received += nbytes
        return msg

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()


__all__ = [
    "RANK_DEAD",
    "TcpCoordinator",
    "TcpWorkerTransport",
    "TransportError",
]
