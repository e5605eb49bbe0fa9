"""Online prediction server: batched async inference over the registry.

Turns the trained predictors a campaign published into a queryable
service answering "what will SZ3 at 1e-4 do to this field?" without
running the compressor.  The design follows the bench's own playbook —
stage-bucketed timing, explicit counters, shed-don't-hang overload
behaviour — applied to a latency-sensitive online path:

* **work-conserving micro-batching** — a request for an idle model key
  starts that key's drain; requests arriving while its batch runs queue
  behind it and leave as *one* ``predict_many`` call of up to
  ``max_batch`` rows.  A lone caller is answered at wire speed; only
  while another connection (which could add a row) is open does an idle
  key's first batch pause for ``_COALESCE_S``;
* **one compute lane** — a raw field is featurized on the server's one
  compute thread from its admission, so during the pause; a batch's one
  ``predict_many`` runs there too, or inline on the loop thread for
  ``results`` rows: model work never fights itself for the GIL;
* **warm-model LRU** — sized to hold a campaign's published set; one
  drain per key, so a cold key is read and decoded exactly once;
* **admission control** — at most ``max_in_flight`` admitted requests
  and ``max_queue_depth`` queued rows; beyond that, requests are *shed*
  with the documented ``"overloaded"`` status instead of queuing
  unboundedly (a client can back off; a hung socket cannot);
* **stage timings** — every response carries queue-wait / compute-wait /
  featurize / predict ms, summing to at most the server residency (the
  featurization hidden in the queue wait is ``featurize_hidden_ms``),
  and the ``stats`` op exposes the aggregate :class:`ServeStats` counters
  (the server-side analog of :class:`~repro.bench.taskqueue.QueueStats`).

Wire protocol: newline-delimited JSON over TCP.  Request::

    {"op": "predict", "key": "<registry key>",
     "results": {...}}                  # precomputed metric features
    {"op": "predict", "key": "...",     # raw field; server featurizes.
     "data": {"dtype": "<f4",           # The line is followed by exactly
              "shape": [32, 32, 16],    # ``nbytes`` raw bytes of the
              "order": "C",             # field (codec.EncodedArray);
              "nbytes": 65536}}         # nothing else is binary
    {"op": "predict", "key": "...",
     "data_ref": "<sha256>"}            # zero-copy what-if repeat: the
                                        # content fingerprint of a field
                                        # sent earlier; served entirely
                                        # from the featurization cache
    {"op": "observe", "key": "...",     # ground truth arrived for an
     "prediction": 3.1, "truth": 2.9,   # earlier prediction: feed the
     "version": "v0001"}                # drift monitor's ledger
    {"op": "drift"}                     # per-key drift snapshots
    {"op": "drift", "configure": {...}} # push a DriftConfig (loop CLI)
    {"op": "stats" | "ping" | "models" | "shutdown"}

Response statuses (documented contract): ``"ok"``, ``"overloaded"``
(shed by admission control — retry after backoff), ``"not_found"``
(unknown/unpublished key), ``"bad_request"`` (malformed request; after
a line that is not JSON or an array header that fails
:func:`~repro.serve.codec.check_array_header`, the server cannot find the
next request in the byte stream and closes the connection),
``"need_data"`` (a ``data_ref`` fingerprint is not in the featurization
cache — resend the full ``data`` payload), ``"error"`` (internal
failure; request was admitted but not served).

Raw-data predict responses carry ``"cached": true`` and ``"feat_scope"``
when the row was served from or stored into the featurization cache.
Models of equal scope (:meth:`FeaturizationCache.scope`) share entries,
so a client that saw ``(scope, fingerprint)`` confirmed may send
``data_ref`` to any key of that scope and to no other
(:class:`~repro.serve.client.PredictionClient` does, unasked).

Degradation contract: when a model's drift monitor has fired but no
new version has started serving (the continuous-learning loop is down
or still retraining), the key is **stale** — it keeps answering from
vN, and ``stats``/``drift`` responses carry the ``stale`` flag so
operators see the degradation instead of silent decay.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.data import as_data
from .codec import EncodedArray, StateSerializationError, check_array_header, decode_array
from .drift import DriftConfig, DriftMonitor
from .featcache import FeaturizationCache
from .registry import LoadedModel, ModelNotFoundError, ModelRegistry

#: Documented response statuses (see module docstring / DESIGN.md §8).
STATUS_OK = "ok"
STATUS_OVERLOADED = "overloaded"
STATUS_NOT_FOUND = "not_found"
STATUS_BAD_REQUEST = "bad_request"
STATUS_NEED_DATA = "need_data"
STATUS_ERROR = "error"

#: Seconds an idle key's first batch waits for rows from other open
#: connections: the one clock-bound share of a round trip, which keeps
#: closed-loop throughput steady when the host is not (DESIGN.md §8).
_COALESCE_S = 0.001


@dataclass
class ServeStats:
    """Aggregate serving statistics (the online QueueStats analog)."""

    requests: int = 0
    completed: int = 0
    failed: int = 0
    #: Requests rejected by admission control (the overload contract).
    shed: int = 0
    batches: int = 0
    #: Vectorised ``predict_many`` invocations — the micro-batching
    #: win is ``batched_rows / predict_calls`` rows per call.
    predict_calls: int = 0
    batched_rows: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Actual blob deserialisations (cold loads).
    model_loads: int = 0
    #: ``refresh`` ops served (registry invalidation pushes).
    refreshes: int = 0
    #: Ground-truthed residuals fed through the ``observe`` op.
    observations: int = 0
    #: Drift-monitor fire transitions (per key, per armed generation).
    drift_fires: int = 0
    #: TCP connections accepted (a reusing client counts once).
    connections: int = 0
    #: Featurization-cache outcomes for raw-data queries: a hit skips
    #: the decode + scheme evaluator entirely; bypass means the model's
    #: metrics are nondeterministic (uncacheable by contract).
    feat_hits: int = 0
    feat_misses: int = 0
    feat_bypass: int = 0
    #: ``data_ref`` predicts served without the payload crossing the
    #: wire (counted inside ``feat_hits`` too) / refs the cache could
    #: not honour (answered ``need_data``; the client resends in full).
    feat_ref_hits: int = 0
    feat_ref_misses: int = 0
    #: Field bytes whose decode+featurize a cache hit avoided.
    feat_bytes_saved: int = 0
    #: Featurize seconds avoided (original miss cost minus hit cost).
    feat_seconds_saved: float = 0.0
    #: Admission → the request's batch detached from its key's queue.
    queue_wait_seconds: float = 0.0
    #: Batch detached → its predict started, less its own featurization.
    compute_wait_seconds: float = 0.0
    #: The lane's total, hidden in the queue wait or not.
    featurize_seconds: float = 0.0
    predict_seconds: float = 0.0
    #: Per-request end-to-end server latencies (ring buffer, seconds).
    latencies: deque = field(default_factory=lambda: deque(maxlen=8192))

    def observe_latency(self, seconds: float) -> None:
        self.latencies.append(seconds)

    def latency_quantile(self, q: float) -> float:
        """Latency quantile in seconds over the retained window."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        idx = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[idx]

    @property
    def mean_batch_size(self) -> float:
        return self.batched_rows / self.predict_calls if self.predict_calls else 0.0

    def snapshot(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "batches": self.batches,
            "predict_calls": self.predict_calls,
            "batched_rows": self.batched_rows,
            "mean_batch_size": self.mean_batch_size,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "model_loads": self.model_loads,
            "refreshes": self.refreshes,
            "observations": self.observations,
            "drift_fires": self.drift_fires,
            "connections": self.connections,
            "feat_hits": self.feat_hits,
            "feat_misses": self.feat_misses,
            "feat_bypass": self.feat_bypass,
            "feat_ref_hits": self.feat_ref_hits,
            "feat_ref_misses": self.feat_ref_misses,
            "feat_bytes_saved": self.feat_bytes_saved,
            "feat_seconds_saved": self.feat_seconds_saved,
            "queue_wait_seconds": self.queue_wait_seconds,
            "compute_wait_seconds": self.compute_wait_seconds,
            "featurize_seconds": self.featurize_seconds,
            "predict_seconds": self.predict_seconds,
            "latency_p50_ms": self.latency_quantile(0.50) * 1e3,
            "latency_p95_ms": self.latency_quantile(0.95) * 1e3,
            "latency_p99_ms": self.latency_quantile(0.99) * 1e3,
        }


class _ModelCache:
    """Warm-model LRU.

    Only a key's drain task asks for its model, so a cold key is
    deserialised exactly once no matter how many requests race it.  The
    blocking registry read runs in a worker thread so the event loop
    keeps serving other keys meanwhile.
    """

    def __init__(self, registry: ModelRegistry, capacity: int, stats: ServeStats) -> None:
        self.registry = registry
        self.capacity = max(1, int(capacity))
        self.stats = stats
        self._models: OrderedDict[tuple[str, str | None], LoadedModel] = OrderedDict()

    async def get(self, key: str, version: str | None = None) -> LoadedModel:
        cache_key = (key, version)
        model = self._models.get(cache_key)
        if model is not None:
            self.stats.cache_hits += 1
            self._models.move_to_end(cache_key)
            return model
        self.stats.cache_misses += 1
        model = await asyncio.to_thread(self.registry.load, key, version)
        self.stats.model_loads += 1
        self._models[cache_key] = model
        while len(self._models) > self.capacity:
            self._models.popitem(last=False)
        return model

    def refresh(
        self, key: str, latest: str | None, intact: list[str] | None = None
    ) -> int:
        """Evict generations of *key* made stale by a new ``LATEST``.

        The follow-latest entry (version pin ``None``) is dropped when
        the model it holds is no longer the latest; a pinned version
        survives only while it is still *intact* on disk (``intact`` is
        the registry's current non-quarantined version list) — a
        quarantined blob must never keep serving from the warm cache
        after the registry moved it aside.  A vanished key (``latest``
        is None: quarantined or deleted) drops everything.  Returns the
        number of evictions.
        """
        dropped = 0
        for cached in [ck for ck in self._models if ck[0] == key]:
            pin = cached[1]
            model = self._models[cached]
            stale = (
                latest is None
                or (pin is None and model.version != latest)
                or (intact is not None and model.version not in intact)
            )
            if stale:
                self._models.pop(cached, None)
                dropped += 1
        return dropped


@dataclass
class _Pending:
    """One admitted predict request awaiting its batch."""

    row: Mapping[str, Any] | None
    array: Any  # encoded ndarray payload, if featurization is needed
    future: asyncio.Future
    enqueued: float
    #: Content fingerprint of a payload the client sent earlier — the
    #: zero-copy resend path; the row must come from the cache or the
    #: request is answered ``need_data``.
    data_ref: str | None = None
    queue_wait: float = 0.0
    #: A raw item's featurization, put on the lane at admission.
    featurizing: Future | None = None
    #: Featurization's row (None: an unhonourable data_ref) or the exception
    #: that fails this request alone; its end; its part after the detach.
    features: Mapping[str, Any] | None = None
    error: Exception | None = None
    featurized_at: float | None = None
    exposed_s: float = 0.0
    featurize_s: float = 0.0
    #: Featurization-cache outcome for a raw-data item ("hit"/"miss"/
    #: "bypass"/"ref_hit"/"ref_miss"; None when no cache or the client
    #: sent results).  Set on the compute lane, folded into stats on the
    #: loop thread.
    feat_outcome: str | None = None
    #: Decoded field size (bytes) a hit avoided / a miss paid.
    source_nbytes: int = 0
    #: The original featurize cost a hit inherited from its stored row.
    cached_cost_s: float = 0.0
    #: A miss's row, stored in L1 on the lane; its L2 row file is
    #: written there too, once the batch's replies are out.
    l2_write: tuple | None = None


class PredictionServer:
    """Asyncio TCP server fronting a :class:`ModelRegistry`."""

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = 32,
        max_in_flight: int = 64,
        max_queue_depth: int = 256,
        cache_capacity: int = 64,
        drift_config: DriftConfig | None = None,
        feat_cache: FeaturizationCache | None = None,
        reuse_port: bool = False,
        control_port: int | None = None,
        worker_id: int = 0,
        stream_limit: int = 16 * 1024 * 1024,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = int(port)  # 0 = ephemeral; real port known after start
        self.max_batch = max(1, int(max_batch))
        self.max_in_flight = max(1, int(max_in_flight))
        self.max_queue_depth = max(1, int(max_queue_depth))
        self.stats = ServeStats()  # loop-owned
        self.cache = _ModelCache(registry, cache_capacity, self.stats)
        #: Shared/local featurization cache; None disables (see featcache.py).
        self.feat_cache = feat_cache
        #: Max bytes of one request line, and of one field body after it
        #: (a 32³ float32 field is 128 KiB).  A longer line is answered
        #: ``bad_request``; a larger body is refused from its header.
        self.stream_limit = int(stream_limit)
        #: Bind with SO_REUSEPORT so fleet siblings share one data port.
        self.reuse_port = bool(reuse_port)
        #: When not None, a second private listener serving the same ops;
        #: fleet supervisors address one specific worker through it even
        #: while the kernel balances the shared data port (0 = ephemeral).
        self.control_port = control_port if control_port is None else int(control_port)
        self.worker_id = int(worker_id)
        self.drift_config = drift_config or DriftConfig()
        #: key → drift monitor over the ``observe`` residual stream.
        self._monitors: dict[str, DriftMonitor] = {}
        #: key → version most recently served (predict) or known (refresh).
        self._served_versions: dict[str, str] = {}
        #: (key, version) → its queued requests, while its drain task lives.
        self._queues: dict[tuple[str, str | None], deque[_Pending]] = {}
        #: (key, version) → the model its drain holds: admission featurizes with it.
        self._held: dict[tuple[str, str | None], LoadedModel] = {}
        self._drains: set[asyncio.Task] = set()
        #: The one compute lane: two would convoy on the GIL (DESIGN.md §8).
        self._lane = ThreadPoolExecutor(1, thread_name_prefix="serve-compute")
        self._in_flight = 0
        self._queued = 0
        self._server: asyncio.AbstractServer | None = None
        self._control_server: asyncio.AbstractServer | None = None
        self._stopping: asyncio.Event | None = None
        #: Live connection tasks — drained at stop so a graceful shutdown
        #: with keep-alive clients attached does not leave tasks for
        #: ``asyncio.run`` to cancel noisily.
        self._connection_tasks: set[asyncio.Task] = set()

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        self._stopping = asyncio.Event()
        kwargs: dict[str, Any] = {"limit": self.stream_limit}
        if self.reuse_port:
            kwargs["reuse_port"] = True
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, **kwargs
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.control_port is not None:
            self._control_server = await asyncio.start_server(
                self._handle_connection,
                self.host,
                self.control_port,
                limit=self.stream_limit,
            )
            self.control_port = self._control_server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        if self._server is None:
            await self.start()
        assert self._stopping is not None
        try:
            async with self._server:
                await self._stopping.wait()
        finally:
            if self._control_server is not None:
                self._control_server.close()
                await self._control_server.wait_closed()
            # Keep-alive clients hold connections open across requests;
            # cancel and await their handler tasks (and the drains they
            # were waiting on) here so teardown is quiet and deterministic.
            tasks = [*self._connection_tasks, *self._drains]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            # Cancelling the drains above cancelled their queued batches
            # and unstarted featurizations; what is left on the lane are
            # row writes behind replies already sent, and they must land
            # (a restarted server on the same directory reads them).
            self._lane.shutdown(wait=False)

    def request_stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    # -- connection handling -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                request, refusal = await self._read_request(line, reader)
                response = refusal or await self._dispatch(request)
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
                if refusal is not None:  # the next request cannot be found
                    break
                if response.get("op") == "shutdown":
                    self.request_stop()
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except ValueError:
            # A request line over stream_limit: answer with a proper
            # error instead of silently dropping the connection.
            response = {
                "ok": False,
                "status": STATUS_BAD_REQUEST,
                "error": f"request exceeds the {self.stream_limit}-byte line limit",
            }
            try:
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
            except OSError:
                pass
        except asyncio.CancelledError:
            # Server stopping with this connection still open — not an
            # error; close the writer below and swallow the cancel so
            # gather() in serve_until_stopped gets a clean result.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except asyncio.CancelledError:
                # Stop-time cancel landed during the close handshake
                # (CancelledError is a BaseException on 3.11, so the
                # clause below would let it escape the task).
                pass
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass

    async def _read_request(
        self, line: bytes, reader: asyncio.StreamReader
    ) -> tuple[Any, dict[str, Any] | None]:
        """Parse one request line, and read the field body a predict's
        array header announces.

        Returns ``(request, None)``, or ``(None, refusal)`` when the
        stream can no longer be trusted — a line that is not JSON, or an
        array header that fails validation (checked before any body byte
        is read) — and the connection must close after the refusal.
        """
        try:
            request = json.loads(line)
        except ValueError:
            return None, {"ok": False, "status": STATUS_BAD_REQUEST, "error": "invalid JSON"}
        if (
            isinstance(request, dict)
            and request.get("op", "predict") == "predict"
            and request.get("data") is not None
        ):
            try:
                header = check_array_header(request["data"], self.stream_limit)
            except StateSerializationError as exc:
                return None, {
                    "ok": False,
                    "status": STATUS_BAD_REQUEST,
                    "error": f"bad array header: {exc}",
                }
            request["data"] = EncodedArray(header, await reader.readexactly(header["nbytes"]))
        return request, None

    async def _dispatch(self, request: Any) -> dict[str, Any]:
        if not isinstance(request, dict):
            return {
                "ok": False,
                "status": STATUS_BAD_REQUEST,
                "error": "request must be a JSON object",
            }
        op = request.get("op", "predict")
        rid = request.get("id")
        if op == "predict":
            response = await self._handle_predict(request)
        elif op == "stats":
            snapshot = self.stats.snapshot()
            snapshot["stale_keys"] = self.stale_keys()
            snapshot["worker"] = self.worker_id
            if self.feat_cache is not None:
                snapshot["featcache"] = self.feat_cache.stats()
            response = {"ok": True, "status": STATUS_OK, "stats": snapshot}
        elif op == "observe":
            response = self._handle_observe(request)
        elif op == "drift":
            response = self._handle_drift(request)
        elif op == "ping":
            response = {"ok": True, "status": STATUS_OK, "pong": True}
        elif op == "models":
            # Registry listing walks the on-disk version layout; keep it
            # off the loop thread (RL601 regression: the models op used
            # to stall every in-flight predict while describe() stat'ed
            # version directories).
            models = await asyncio.to_thread(self._describe_models)
            response = {"ok": True, "status": STATUS_OK, "models": models}
        elif op == "refresh":
            response = await self._handle_refresh(request)
        elif op == "shutdown":
            response = {"ok": True, "status": STATUS_OK, "op": "shutdown"}
        else:
            response = {
                "ok": False,
                "status": STATUS_BAD_REQUEST,
                "error": f"unknown op {op!r}",
            }
        if rid is not None:
            response["id"] = rid
        return response

    def _describe_models(self) -> list[dict[str, Any]]:
        """Disk-walking registry listing (always runs via ``to_thread``)."""
        return [self.registry.describe(k) for k in self.registry.keys()]

    # -- refresh path ------------------------------------------------------------
    async def _handle_refresh(self, request: dict[str, Any]) -> dict[str, Any]:
        """Registry invalidation push: re-read ``LATEST``, evict stale models.

        A re-publish on disk flips this live server without a restart:
        the next predict after a refresh cold-loads the new version.
        Scoped to ``request["key"]`` when given, else every key the
        registry currently knows.
        """
        key = request.get("key")
        if key is not None and (not isinstance(key, str) or not key):
            return {
                "ok": False,
                "status": STATUS_BAD_REQUEST,
                "error": "'key' must be a non-empty string when present",
            }
        keys = [key] if key is not None else await asyncio.to_thread(self.registry.keys)
        refreshed: dict[str, str | None] = {}
        evicted = 0
        for k in keys:
            latest = await asyncio.to_thread(self.registry.latest, k)
            intact = await asyncio.to_thread(self.registry.versions, k)
            evicted += self.cache.refresh(k, latest, intact)
            refreshed[k] = latest
            if latest is not None:
                self._served_versions[k] = latest
                monitor = self._monitors.get(k)
                # The rollover completed: a fired monitor watching an
                # older generation re-arms (fresh calibration for vN+1)
                # and the key stops being stale.
                if monitor is not None and monitor.version not in (None, latest):
                    monitor.reset(latest)
        self.stats.refreshes += 1
        return {
            "ok": True,
            "status": STATUS_OK,
            "refreshed": refreshed,
            "evicted": evicted,
        }

    # -- drift path --------------------------------------------------------------
    def stale_keys(self) -> list[str]:
        """Keys whose monitor fired while their generation still serves.

        The degradation contract: the loop is down (or retraining), so
        the server keeps answering from the drifted vN — correct but
        known-decayed, flagged instead of silent.
        """
        out = []
        for key, monitor in self._monitors.items():
            if not monitor.fired:
                continue
            serving = self._served_versions.get(key)
            if serving is None or monitor.fired_version in (None, serving):
                out.append(key)
        return sorted(out)

    def _handle_observe(self, request: dict[str, Any]) -> dict[str, Any]:
        """Ground truth arrived for an earlier prediction: ledger it.

        ``version`` names the model generation the prediction came from
        (echoed by the predict response); residuals from a superseded
        generation re-arm the monitor rather than polluting the new
        model's window.
        """
        key = request.get("key")
        if not isinstance(key, str) or not key:
            return {
                "ok": False,
                "status": STATUS_BAD_REQUEST,
                "error": "observe requires a registry 'key'",
            }
        try:
            prediction = float(request["prediction"])
            truth = float(request["truth"])
        except (KeyError, TypeError, ValueError):
            return {
                "ok": False,
                "status": STATUS_BAD_REQUEST,
                "error": "observe requires numeric 'prediction' and 'truth'",
            }
        version = request.get("version")
        if version is not None and not isinstance(version, str):
            return {
                "ok": False,
                "status": STATUS_BAD_REQUEST,
                "error": "'version' must be a string when present",
            }
        monitor = self._monitors.get(key)
        if monitor is None:
            monitor = self._monitors[key] = DriftMonitor(self.drift_config)
            monitor.version = version
        elif version is not None and monitor.version not in (None, version):
            monitor.reset(version)
        if monitor.version is None:
            monitor.version = version
        if version is not None:
            self._served_versions.setdefault(key, version)
        was_fired = monitor.fired
        fired = monitor.observe(prediction, truth)
        self.stats.observations += 1
        if fired and not was_fired:
            self.stats.drift_fires += 1
        return {
            "ok": True,
            "status": STATUS_OK,
            "key": key,
            "drift": monitor.snapshot(),
        }

    def _handle_drift(self, request: dict[str, Any]) -> dict[str, Any]:
        """Drift snapshots per key; optionally reconfigure thresholds.

        ``configure`` replaces the server's :class:`DriftConfig` (the
        loop CLI pushes its ``--drift-*`` flags here at startup) and
        re-arms every monitor under the new thresholds.  Re-sending the
        config the server already runs is a no-op — the learner
        configures on every :meth:`ContinuousLearner.run`, and an
        idempotent re-push must not wipe a fired monitor.
        """
        configure = request.get("configure")
        if configure is not None:
            try:
                new_config = DriftConfig.from_mapping(configure)
            except (TypeError, ValueError) as exc:
                return {"ok": False, "status": STATUS_BAD_REQUEST, "error": str(exc)}
            if new_config != self.drift_config:
                self.drift_config = new_config
                for monitor in self._monitors.values():
                    monitor.config = self.drift_config
                    monitor.reset(monitor.version)
        stale = set(self.stale_keys())
        monitors = {
            key: {**monitor.snapshot(), "stale": key in stale}
            for key, monitor in self._monitors.items()
        }
        return {
            "ok": True,
            "status": STATUS_OK,
            "monitors": monitors,
            "stale_keys": sorted(stale),
        }

    # -- predict path ------------------------------------------------------------
    async def _handle_predict(self, request: dict[str, Any]) -> dict[str, Any]:
        t_admit = time.perf_counter()
        self.stats.requests += 1
        key = request.get("key")
        if not isinstance(key, str) or not key:
            return {
                "ok": False,
                "status": STATUS_BAD_REQUEST,
                "error": "predict requires a registry 'key'",
            }
        row = request.get("results")
        array = request.get("data")
        data_ref = request.get("data_ref")
        if sum(x is not None for x in (row, array, data_ref)) != 1:
            return {
                "ok": False,
                "status": STATUS_BAD_REQUEST,
                "error": (
                    "predict requires exactly one of "
                    "'results' / 'data' / 'data_ref'"
                ),
            }
        if row is not None and not isinstance(row, dict):
            return {
                "ok": False,
                "status": STATUS_BAD_REQUEST,
                "error": "'results' must be an object of metric values",
            }
        if data_ref is not None and not isinstance(data_ref, str):
            return {
                "ok": False,
                "status": STATUS_BAD_REQUEST,
                "error": "'data_ref' must be a content-fingerprint string",
            }
        if data_ref is not None and self.feat_cache is None:
            # No cache, nothing a fingerprint could resolve against.
            self.stats.feat_ref_misses += 1
            return {
                "ok": False,
                "status": STATUS_NEED_DATA,
                "error": "no featurization cache on this server; send 'data'",
            }
        # Admission control: shed instead of queueing unboundedly.  The
        # overload contract is a *fast* "overloaded" response so clients
        # back off; an unbounded queue turns overload into timeouts.
        if self._in_flight >= self.max_in_flight or self._queued >= self.max_queue_depth:
            self.stats.shed += 1
            return {
                "ok": False,
                "status": STATUS_OVERLOADED,
                "error": (
                    f"admission control: {self._in_flight} in flight "
                    f"(max {self.max_in_flight}), {self._queued} queued "
                    f"(max {self.max_queue_depth}); retry with backoff"
                ),
            }
        version = request.get("version")
        pending = _Pending(
            row=row,
            array=array,
            data_ref=data_ref,
            future=asyncio.get_running_loop().create_future(),
            enqueued=time.perf_counter(),
        )
        self._in_flight += 1
        self._queued += 1
        try:
            self._enqueue(key, version, pending)
            payload = await pending.future
        except ModelNotFoundError as exc:
            self.stats.failed += 1
            return {"ok": False, "status": STATUS_NOT_FOUND, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            self.stats.failed += 1
            return {
                "ok": False,
                "status": STATUS_ERROR,
                "error": f"{type(exc).__name__}: {exc}",
            }
        finally:
            self._in_flight -= 1
        if payload.get("status") == STATUS_NEED_DATA:
            # Not a served prediction and not a failure: the client's
            # resend with the full payload is the request that counts.
            return payload
        self.stats.completed += 1
        self.stats.observe_latency(time.perf_counter() - t_admit)
        return payload

    def _enqueue(self, key: str, version: str | None, pending: _Pending) -> None:
        cache_key = (key, version)
        queue = self._queues.get(cache_key)
        if queue is None:
            # Idle key: requests read in this loop iteration share its batch.
            queue = self._queues[cache_key] = deque()
            drain = asyncio.get_running_loop().create_task(self._drain(cache_key))
            self._drains.add(drain)
            drain.add_done_callback(self._drains.discard)
        queue.append(pending)
        self._admit(cache_key, pending)

    def _admit(self, cache_key: tuple[str, str | None], item: _Pending) -> None:
        """Put a raw field's featurization on the lane once its drain holds the model."""
        model = self._held.get(cache_key)
        if model is not None and item.row is None and item.featurizing is None:
            item.featurizing = self._lane.submit(self._featurize, model, item)

    async def _take(self, cache_key: tuple[str, str | None]) -> LoadedModel | Exception:
        """The model the cache holds for *cache_key* now, with the queued
        raw fields admitted under it; a load fault fails the batch it was
        taken for."""
        try:
            model = self._held[cache_key] = await self.cache.get(*cache_key)
            for item in self._queues[cache_key]:
                self._admit(cache_key, item)
        except Exception as exc:  # noqa: BLE001 - fails the batch it was loaded for
            return exc
        return model

    async def _drain(self, cache_key: tuple[str, str | None]) -> None:
        """Serve *cache_key*'s queue, one batch at a time, until it is empty:
        whatever arrived while a batch ran leaves as the next one (FIFO,
        at most ``max_batch`` rows).  Each turn first takes the model and
        admits the queued raw fields.  A fault stays inside its own batch."""
        queue = self._queues[cache_key]
        batch: list[_Pending] = []
        try:
            while queue:
                model = await self._take(cache_key)
                if not batch and len(self._connection_tasks) > 1:  # the first turn only
                    await asyncio.sleep(_COALESCE_S)
                    # A refresh handled during the pause may have evicted
                    # that model: the batch predicts with what the cache
                    # holds at detach.  Rows featurized meanwhile stay
                    # valid, as featurization does not depend on the version.
                    model = await self._take(cache_key)
                batch = [queue.popleft() for _ in range(min(len(queue), self.max_batch))]
                self._queued -= len(batch)
                await self._run_batch(cache_key, model, batch)
        finally:
            # (No await since the emptiness test: nothing is queued behind us.)
            del self._queues[cache_key]
            self._held.pop(cache_key, None)
            for item in (*batch, *queue):  # stopped: drop unstarted featurizations
                if item.featurizing is not None:
                    item.featurizing.cancel()

    async def _run_batch(
        self, cache_key: tuple[str, str | None], model: LoadedModel | Exception,
        batch: list[_Pending],
    ) -> None:
        """Gather the batch's rows and run its one ``predict_many``."""
        key, version = cache_key
        t_detach = time.perf_counter()
        for item in batch:
            item.queue_wait = t_detach - item.enqueued
            self.stats.queue_wait_seconds += item.queue_wait
        self.stats.batches += 1
        try:
            if isinstance(model, Exception):  # the drain could not load it
                raise model
            if all(item.row is not None for item in batch):
                # Bounded by max_batch; cheaper inline than any hand-off.
                work = self._predict(model, batch)
            else:
                work = await asyncio.get_running_loop().run_in_executor(
                    self._lane, self._predict, model, batch
                )
            t_pred, live, preds, predict_s = work
            # Stats mutate only on the loop thread; fold the per-item
            # timings and cache outcomes featurization left on the batch.
            self.stats.featurize_seconds += sum(i.featurize_s for i in batch)
            for item in batch:
                item.exposed_s = min(item.featurize_s, max(item.featurized_at - t_detach, 0.0))
                self.stats.compute_wait_seconds += t_pred - t_detach - item.exposed_s
                if item.feat_outcome in ("hit", "ref_hit"):
                    self.stats.feat_hits += 1
                    self.stats.feat_bytes_saved += item.source_nbytes
                    self.stats.feat_seconds_saved += max(
                        item.cached_cost_s - item.featurize_s, 0.0
                    )
                    if item.feat_outcome == "ref_hit":
                        self.stats.feat_ref_hits += 1
                elif item.feat_outcome == "miss":
                    self.stats.feat_misses += 1
                elif item.feat_outcome == "bypass":
                    self.stats.feat_bypass += 1
                elif item.feat_outcome == "ref_miss":
                    self.stats.feat_ref_misses += 1
            # A featurization that raised fails its request alone; a data_ref
            # the cache could not honour gets ``need_data`` (client resends).
            for item in batch:
                if item.error is not None and not item.future.done():
                    item.future.set_exception(item.error)
                elif item.features is None and not item.future.done():
                    item.future.set_result(
                        {
                            "ok": False,
                            "status": STATUS_NEED_DATA,
                            "error": (
                                "data_ref is not in the featurization "
                                "cache; resend the full 'data' payload"
                            ),
                            "key": key,
                        }
                    )
            if not live:
                return
            self.stats.predict_calls += 1
            self.stats.batched_rows += len(live)
            self.stats.predict_seconds += predict_s
            if version is None:
                # Follow-latest traffic defines what "currently serving"
                # means for the stale flag; pinned queries don't.
                self._served_versions[key] = model.version
            for item, pred in zip(live, preds):
                if item.future.done():
                    continue
                response = {
                    "ok": True,
                    "status": STATUS_OK,
                    "prediction": float(pred),
                    "target": model.target_key,
                    "key": key,
                    "version": model.version,
                    "batch_size": len(batch),
                    "timings": {
                        "queue_wait_ms": item.queue_wait * 1e3,
                        "compute_wait_ms": (t_pred - t_detach - item.exposed_s) * 1e3,
                        "featurize_ms": item.exposed_s * 1e3,
                        "featurize_hidden_ms": (item.featurize_s - item.exposed_s) * 1e3,
                        "predict_ms": predict_s * 1e3,
                    },
                }
                if item.row is None:
                    # Tell the client whether the row now lives in the cache
                    # and under which scope — its cue to send ``data_ref``.
                    response["cached"] = item.feat_outcome in ("hit", "miss", "ref_hit")
                    if response["cached"]:
                        response["feat_scope"] = self.feat_cache.scope(model)
                item.future.set_result(response)
        except Exception as exc:  # noqa: BLE001 - fail what is left of the batch
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
        # The replies are resolved: the row files go on the lane behind
        # them.  A sibling worker misses them for one lane turn longer.
        writes = [item.l2_write for item in batch if item.l2_write is not None]
        if writes:
            self._lane.submit(self._write_rows, writes)

    def _write_rows(self, writes: list[tuple]) -> None:
        for write in writes:
            self.feat_cache.put_l2(*write)

    def _predict(
        self, model: LoadedModel, batch: list[_Pending]
    ) -> tuple[float, list[_Pending], Any, float]:
        """A batch's one ``predict_many``, after its raw fields' featurizations
        (lane FIFO).  Returns (predict start, items, predictions, predict s)."""
        for item in batch:
            if item.featurized_at is None:
                self._featurize(model, item)
        live = [item for item in batch if item.features is not None]
        t_pred = time.perf_counter()
        preds = model.predictor.predict_many([i.features for i in live]) if live else ()
        return t_pred, live, preds, time.perf_counter() - t_pred

    def _featurize(self, model: LoadedModel, item: _Pending) -> None:
        """Turn one pending request into a metric-feature row left on the
        item; an exception there fails this request alone.

        Requests carrying precomputed ``results`` only gain the scheme's
        zero-cost config features; raw ``data`` payloads run through the
        scheme's own metric evaluator — the same featurization the bench
        used at training time, so online and offline rows agree.

        With a :class:`FeaturizationCache` attached, raw payloads are
        content-hashed first and a hit returns the stored evaluator row
        (bit-identical by the state codec's round-trip contract) without
        decoding the array at all.  Config features are applied *after*
        the cache, never stored: they encode the error configuration,
        which error-agnostic cache keys deliberately exclude.
        """
        t0 = time.perf_counter()
        try:
            config = model.scheme.config_features(model.compressor)
            row = dict(item.row) if item.row is not None else self._featurize_raw(model, item)
            if row is not None:  # None: an unhonourable data_ref
                # Fill in zero-cost config features without clobbering any
                # the client computed itself (training rows carry per-field
                # effective bounds when range-relative mode was on).
                for ck, cv in config.items():
                    row.setdefault(ck, cv)
            item.features = row
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            item.error = exc
        item.featurized_at = time.perf_counter()
        item.featurize_s = item.featurized_at - t0

    def _featurize_raw(
        self, model: LoadedModel, item: _Pending
    ) -> dict[str, Any] | None:
        """Featurize one raw-field item, consulting the cache when present.

        A ``data_ref`` item can *only* be served from the cache — there
        is no payload to featurize — so a lookup failure returns None
        and the batch runner answers ``need_data``.
        """
        cache = self.feat_cache
        if item.data_ref is not None:
            cache_key = (
                cache.key_for_fingerprint(model, item.data_ref)
                if cache is not None
                else None
            )
            cached = cache.get(cache_key) if cache_key is not None else None
            if cached is None:
                item.feat_outcome = "ref_miss"
                return None
            item.feat_outcome = "ref_hit"
            item.source_nbytes = cached.source_nbytes
            item.cached_cost_s = cached.cost_s
            return cached.row
        cache_key = cache.key_for(model, item.array) if cache is not None else None
        if cache is not None and cache_key is None:
            item.feat_outcome = "bypass"
        if cache_key is not None:
            cached = cache.get(cache_key)
            if cached is not None:
                item.feat_outcome = "hit"
                item.source_nbytes = cached.source_nbytes
                item.cached_cost_s = cached.cost_s
                return cached.row
        t0 = time.perf_counter()
        data = as_data(decode_array(item.array))
        evaluator = model.scheme.req_metrics_opts(model.compressor)
        row = dict(evaluator.evaluate(data))
        if cache_key is not None:
            item.feat_outcome = "miss"
            item.source_nbytes = int(data.nbytes)
            entry = cache.put_l1(
                cache_key,
                row,
                cost_s=time.perf_counter() - t0,
                source_nbytes=int(data.nbytes),
            )
            if cache.shared:
                item.l2_write = entry
        return row


class ServerThread:
    """Run a :class:`PredictionServer` on a daemon thread (tests, CLI).

    The server owns its own event loop; :meth:`start` blocks until the
    listening port is bound, :meth:`stop` requests a graceful stop and
    joins the thread.
    """

    def __init__(self, server: PredictionServer) -> None:
        self.server = server
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None

    def _main(self) -> None:
        async def run() -> None:
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._started.set()
            await self.server.serve_until_stopped()

        try:
            asyncio.run(run())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
            self._started.set()

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise TimeoutError("prediction server failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"prediction server failed to start: {self._error}")
        return self

    @property
    def address(self) -> tuple[str, int]:
        return (self.server.host, self.server.port)

    def stop(self, timeout: float = 5.0) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server.request_stop)
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
