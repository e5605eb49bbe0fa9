"""Synchronous client for the prediction server and fleet.

A thin blocking wrapper over the newline-delimited JSON protocol (a raw
field rides as its JSON header on the request line, then its bytes) —
applications (and the ``query`` CLI) get predictions without touching
asyncio.  One :class:`PredictionClient` = one TCP connection, opened
lazily on the first request and **reused across calls** (dial-per-query
pays a full handshake per prediction; the burst benchmark showed it).
Requests on a connection are answered in order, so concurrency comes
from opening more clients, which is exactly how the burst tests and the
throughput benchmark drive the server's micro-batcher.

A broken connection (server restarted, fleet worker killed) is redialed
transparently up to ``reconnects`` times per request.  Every op the
protocol offers is idempotent on the server (predict is pure; observe
at worst duplicates one residual), so a resend after a connection drop
is safe.  A :class:`~repro.serve.fleet.ServeFleet` needs no client of
its own: its workers share one ``SO_REUSEPORT`` data port, so a redial
after a worker dies reaches a live sibling.

An ``overloaded`` answer is the server asking the client to back off,
and the client does, on the project's one backoff formula: its
``retry`` :class:`~repro.core.errors.RetryPolicy` (the bench's task
retry policy) sets how many sheds are retried and how long each wait is.

**Zero-copy what-if resends.**  What-if traffic probes the *same* field
over and over (different bounds, different compressors); shipping the
field's bytes with every probe wastes most of the wire, and the server's
fingerprint pass over them.  A raw-data predict response names the featurization-cache
scope the row was stored under (``"feat_scope"``: shared by every model
whose features are the same function of the field — all bounds of an
error-agnostic scheme, one bound of an error-dependent one).  The client
remembers each model's scope and each confirmed ``(scope, fingerprint)``
pair, and sends a tiny ``data_ref`` request exactly when the pair for the
model it is about to ask is confirmed — so a ref is only ever sent where
the server can honour it.  An entry evicted in between is answered
``need_data`` and the client transparently resends in full; a server
that names no scope (cache off, or one that predates scopes) is always
sent the payload.  Callers never see the negotiation.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import time
from collections import OrderedDict
from typing import Any, Mapping

import numpy as np

from ..core.errors import PressioError, RetryPolicy, Status
from .codec import EncodedArray, encode_array
from .featcache import content_fingerprint

#: Per-client LRU bounds for the zero-copy resend bookkeeping: the
#: (scope, fingerprint) pairs the server confirmed cached, the model →
#: scope memo, and the payload-object → fingerprint memo that keeps
#: repeat predicts from re-hashing the body.
_KNOWN_REFS_CAP = 512
_SCOPES_CAP = 512
_FP_MEMO_CAP = 32

#: Retries on ``overloaded``: four, from 50 ms doubling to at most 2 s,
#: each jittered ±50 %.
OVERLOAD_RETRY = RetryPolicy(max_retries=4, base_delay=0.05, max_delay=2.0, jitter=0.5)

#: Numbers the clients of one process, so their jitter draws differ.
_CLIENT_IDS = itertools.count()


def _remember(lru: OrderedDict, key: Any, value: Any, cap: int) -> None:
    """Insert/refresh *key* as most recent and trim *lru* to *cap*."""
    lru[key] = value
    lru.move_to_end(key)
    while len(lru) > cap:
        lru.popitem(last=False)


class ServerError(PressioError):
    """The server answered with a non-``ok`` status (carried verbatim)."""

    status = Status.GENERIC_ERROR

    def __init__(self, message: str, response: Mapping[str, Any]):
        super().__init__(message)
        self.response = dict(response)
        self.server_status = self.response.get("status", "error")


class ConnectionClosedError(ServerError):
    """The connection dropped and the reconnect budget is exhausted."""

    def __init__(self, message: str):
        super().__init__(message, {"status": "disconnected"})


class PredictionClient:
    """Blocking client; usable as a context manager.

    The documented ``"overloaded"`` status is the server telling the
    client to back off — so the client does: a shed is retried up to
    ``retry.max_retries`` times, waiting ``retry.delay`` before each
    retry, before the error surfaces.  Of the policy only
    ``max_retries`` and the backoff fields (``base_delay``, ``backoff``,
    ``max_delay``, ``jitter``) apply here; ``permanent_statuses`` is the
    bench's, and ``seed`` does not make a client's schedule reproducible:
    the jitter is keyed per client (its process and its place among that
    process's clients), so clients shed together do not come back
    together.  ``RetryPolicy(max_retries=0)`` surfaces the first shed
    (the admission-control tests use it).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retry: RetryPolicy = OVERLOAD_RETRY,
        reconnects: int = 2,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.retry = retry
        self._retry_key = f"{os.getpid()}:{next(_CLIENT_IDS)}"
        self.reconnects = max(0, int(reconnects))
        #: Overload retries this client has performed (observability).
        self.overload_retries_used = 0
        #: TCP connections this client has dialed — the connection-reuse
        #: tests assert this stays at 1 across a whole query loop.
        self.connect_count = 0
        #: Predicts served via ``data_ref`` without resending the payload.
        self.ref_hits = 0
        self._scopes: OrderedDict[tuple[str, str | None], str] = OrderedDict()
        self._known_refs: OrderedDict[tuple[str, str], None] = OrderedDict()
        self._fp_memo: OrderedDict[int, tuple[Any, str]] = OrderedDict()
        self._sock: socket.socket | None = None
        self._rfile: Any = None

    # -- transport -------------------------------------------------------------
    def _ensure_connected(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._rfile = self._sock.makefile("rb")
        self.connect_count += 1

    def _drop_connection(self) -> None:
        sock, rfile = self._sock, self._rfile
        self._sock = None
        self._rfile = None
        try:
            if rfile is not None:
                rfile.close()
        except OSError:
            pass
        try:
            if sock is not None:
                sock.close()
        except OSError:
            pass

    def request(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Send one request object, return the raw response object.

        A ``data`` entry that is an :class:`~repro.serve.codec.EncodedArray`
        goes out as its JSON header inside the line, its ``body`` right
        after the newline (one send: a second small write would wait on
        Nagle's algorithm for the server's delayed ACK).

        The connection is dialed lazily on first use and reused across
        requests.  A drop (reset, broken pipe, server-side close) is
        retried on a fresh connection up to ``reconnects`` times — safe
        because every server op is idempotent.  A *timeout* is not
        silently retried: the request may still be in flight, and
        resending would double-submit against a live connection.
        """
        message = (json.dumps(dict(payload)) + "\n").encode("utf-8")
        data = payload.get("data")
        if isinstance(data, EncodedArray):
            message += data.body
        attempts = 1 + self.reconnects
        last_error: Exception | None = None
        for _ in range(attempts):
            try:
                self._ensure_connected()
                assert self._sock is not None
                self._sock.sendall(message)
                raw = self._rfile.readline()
            except socket.timeout:
                raise
            except OSError as exc:
                self._drop_connection()
                last_error = exc
                continue
            if not raw:
                self._drop_connection()
                last_error = None
                continue
            return json.loads(raw)
        detail = f": {last_error}" if last_error is not None else ""
        raise ConnectionClosedError(
            f"connection to {self.host}:{self.port} lost after "
            f"{attempts} attempt(s){detail}"
        )

    def _checked(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        attempt = 0
        while True:
            response = self.request(payload)
            if response.get("ok"):
                return response
            if (
                response.get("status") == "overloaded"
                and attempt < self.retry.max_retries
            ):
                attempt += 1
                self.overload_retries_used += 1
                time.sleep(self.retry.delay(self._retry_key, attempt))
                continue
            raise ServerError(
                f"server returned {response.get('status')!r}: "
                f"{response.get('error', 'no detail')}",
                response,
            )

    # -- operations ------------------------------------------------------------
    def predict(
        self,
        key: str,
        *,
        results: Mapping[str, Any] | None = None,
        data: np.ndarray | EncodedArray | None = None,
        version: str | None = None,
    ) -> dict[str, Any]:
        """Predict for precomputed metric ``results`` or a raw field.

        ``data`` takes either an ndarray or an already-encoded wire
        payload (the :func:`~repro.serve.codec.encode_array` result) —
        a what-if driver probing one field many times encodes it once.
        A pre-encoded payload is treated as immutable: the client
        memoises its content fingerprint by object identity, and once
        the server confirms the field is cached under this model's
        scope, repeats go out as a ``data_ref`` a few hundred bytes long
        instead of the payload (with a full resend when the server
        answers ``need_data``).

        Returns the full response (``prediction``, ``target``,
        ``version``, ``batch_size``, ``timings``).  Raises
        :class:`ServerError` on any non-ok status; the documented status
        is on ``exc.server_status`` so callers can back off on
        ``"overloaded"`` specifically.
        """
        request: dict[str, Any] = {"op": "predict", "key": key}
        if version is not None:
            request["version"] = version
        if results is not None:
            request["results"] = dict(results)
        if data is None:
            return self._checked(request)
        payload = data if isinstance(data, EncodedArray) else encode_array(data)
        fingerprint = self._fingerprint(payload)
        ref = (self._scopes.get((key, version)), fingerprint)
        if ref in self._known_refs:
            self._known_refs.move_to_end(ref)
            try:
                response = self._checked({**request, "data_ref": fingerprint})
            except ServerError as exc:
                if exc.server_status != "need_data":
                    raise
                # Evicted: forget the ref and resend in full below; the
                # scope on that reply re-arms it.
                del self._known_refs[ref]
            else:
                self.ref_hits += 1
                return response
        response = self._checked({**request, "data": payload})
        scope = response.get("feat_scope")
        if scope is not None:
            _remember(self._scopes, (key, version), scope, _SCOPES_CAP)
            _remember(self._known_refs, (scope, fingerprint), None, _KNOWN_REFS_CAP)
        return response

    def _fingerprint(self, payload: EncodedArray) -> str:
        """Content fingerprint, memoised by payload object identity.

        The strong reference kept in the memo guarantees a stored id()
        can never be recycled by a different payload object.
        """
        memo = self._fp_memo.get(id(payload))
        if memo is not None and memo[0] is payload:
            self._fp_memo.move_to_end(id(payload))
            return memo[1]
        fingerprint = content_fingerprint(payload)
        _remember(self._fp_memo, id(payload), (payload, fingerprint), _FP_MEMO_CAP)
        return fingerprint

    def stats(self) -> dict[str, Any]:
        return self._checked({"op": "stats"})["stats"]

    def models(self) -> list[dict[str, Any]]:
        return self._checked({"op": "models"})["models"]

    def observe(
        self,
        key: str,
        prediction: float,
        truth: float,
        *,
        version: str | None = None,
    ) -> dict[str, Any]:
        """Report ground truth for an earlier prediction (drift ledger).

        ``version`` should echo the ``version`` from the predict
        response, so residuals re-arm the monitor across rollovers.
        Returns the monitor's drift snapshot.
        """
        payload: dict[str, Any] = {
            "op": "observe",
            "key": key,
            "prediction": float(prediction),
            "truth": float(truth),
        }
        if version is not None:
            payload["version"] = version
        return self._checked(payload)["drift"]

    def drift(self) -> dict[str, Any]:
        """Per-key drift snapshots.

        Returns the full response body: ``monitors`` maps key →
        snapshot (with a ``stale`` flag), ``stale_keys`` lists keys
        serving a known-drifted generation.
        """
        return self._checked({"op": "drift"})

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "PredictionClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


__all__ = [
    "ConnectionClosedError",
    "OVERLOAD_RETRY",
    "PredictionClient",
    "ServerError",
]
