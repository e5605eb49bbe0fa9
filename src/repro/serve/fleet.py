"""Worker-per-core serving fleet: N processes, one port, one feature store.

One asyncio :class:`~repro.serve.server.PredictionServer` tops out when
featurize-heavy queries saturate its core.  :class:`ServeFleet` scales
the serving tier to the hardware by forking one worker process per core,
every worker running the *same* server code:

* **One data port** — workers bind the shared ``(host, port)`` with
  ``SO_REUSEPORT``; the kernel balances incoming connections across the
  listening sockets, so clients dial one address with a plain
  :class:`~repro.serve.client.PredictionClient`.  There is no
  port-per-worker fallback: on a host without the option the workers'
  own bind fails and :meth:`ServeFleet.start` raises at once.
* **Private control ports** — each worker opens a second, ephemeral
  listener serving the same op set.  The kernel decides which worker a
  data-port connection reaches, so what must read *every* worker
  (``stats`` aggregation) fans out over the control addresses instead.
  Control ports are re-reported on restart, and fan-outs re-resolve
  addresses per attempt, so a worker mid-restart is retried at its new
  port, not skipped.
* **Shared model + feature state** — all workers read one on-disk
  :class:`~repro.serve.registry.ModelRegistry` (per-worker warm LRUs on
  top, each following its ``LATEST`` pointer, so a publish reaches
  every worker with nothing sent to any of them) and, with
  ``feat_cache="shared"``, one SQLite table in a shared directory
  behind every worker's :class:`~repro.serve.featcache.FeaturizationCache`
  (its L2 tier): a field featurized by any worker is a cache hit for
  all of them.
* **Supervision** — a thread watches worker processes and restarts
  crashed ones under the same crash-loop cap discipline the collection
  harness uses (``max_restarts`` per worker, then the worker is parked
  as crash-looped and the rest of the fleet keeps serving).

A directory the fleet made for the feature store is removed at
:meth:`stop`, or by the workers themselves when the parent is killed, so
no database outlives the fleet.  A caller-named directory keeps
its rows: a fleet started on it again starts warm.  Only the fleet's
owner stops it; no request does.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..core.errors import RetryPolicy
from ..core.lifetime import exit_with_parent
from .client import PredictionClient, ServerError
from .drift import DriftConfig
from .featcache import FeaturizationCache
from .registry import ModelRegistry
from .server import LATENCY_QUANTILES, SERVE_COUNTERS, PredictionServer

#: Featurization-cache deployment modes a fleet understands.
FEAT_CACHE_MODES = ("off", "local", "shared")

#: Fan-out over the workers' control ports: five retries, 0.25 s growing
#: by half each time to at most 1.2 s — 3.2 s of waits in all, enough to
#: cover a worker's restart.
FANOUT_RETRY = RetryPolicy(max_retries=5, base_delay=0.25, backoff=1.5, max_delay=1.2, jitter=0.0)


def _fleet_worker_main(spec: dict[str, Any], ready_queue: Any) -> None:
    """Entry point of one fleet worker process (module-level: picklable)."""
    import asyncio

    for fd in spec.get("inherited_fds") or ():
        # Fork-context children inherit the parent's bound placeholder
        # socket (RL702).  Holding it would keep a dead SO_REUSEPORT
        # reservation in every worker's fd table for the fleet's whole
        # lifetime; shed it before anything else opens descriptors.
        try:
            os.close(fd)
        except OSError:
            pass
    # A fleet parent killed outright cannot stop its workers, nor remove
    # the cache directory it made: each worker watches for that itself
    # rather than serve on as an orphan, and removes the fleet's own
    # directory on its way out (a caller's directory keeps its rows).
    exit_with_parent(
        functools.partial(shutil.rmtree, spec["feat_cache_dir"], ignore_errors=True)
        if spec["feat_cache_dir_owned"]
        else None
    )

    registry = ModelRegistry(spec["registry_root"])
    mode = spec["feat_cache"]
    feat_cache = None if mode == "off" else FeaturizationCache(
        capacity=spec["feat_cache_capacity"],
        shared_dir=spec["feat_cache_dir"] if mode == "shared" else None,
        shared_capacity_bytes=spec["feat_cache_bytes"],
    )
    drift_config = (
        DriftConfig.from_mapping(spec["drift_config"])
        if spec.get("drift_config")
        else None
    )
    server = PredictionServer(
        registry,
        spec["host"],
        spec["port"],
        reuse_port=True,
        control_port=0,
        worker_id=spec["worker_id"],
        feat_cache=feat_cache,
        drift_config=drift_config,
        **spec.get("server_options", {}),
    )

    async def amain() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, server.request_stop)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        ready_queue.put(
            {
                "worker": spec["worker_id"],
                "pid": os.getpid(),
                "control_port": server.control_port,
            }
        )
        await server.serve_until_stopped()

    try:
        asyncio.run(amain())
    finally:
        if feat_cache is not None:
            feat_cache.close()


@dataclass
class _WorkerRecord:
    """Supervisor-side state for one fleet worker slot."""

    spec: dict[str, Any]
    proc: Any = None
    pid: int | None = None
    control_port: int | None = None
    ready: bool = False
    restarts: int = 0
    crash_looped: bool = False
    exit_codes: list[int] = field(default_factory=list)


class FleetFanoutError(RuntimeError):
    """A fan-out could not reach every live worker within its retries."""


class ServeFleet:
    """Spawn, supervise and address a multi-process prediction fleet.

    Parameters mirror :class:`PredictionServer` where they overlap;
    extra server keywords (``max_batch``, ``cache_capacity``, …) pass
    through ``server_options``.
    """

    def __init__(
        self,
        registry_root: str,
        workers: int | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        feat_cache: str = "shared",
        feat_cache_dir: str | None = None,
        feat_cache_capacity: int = 1024,
        feat_cache_bytes: int = 64 * 1024 * 1024,
        max_restarts: int = 3,
        drift_config: DriftConfig | Mapping[str, Any] | None = None,
        server_options: Mapping[str, Any] | None = None,
        ready_timeout: float = 60.0,
    ) -> None:
        if feat_cache not in FEAT_CACHE_MODES:
            raise ValueError(
                f"feat_cache must be one of {FEAT_CACHE_MODES}, got {feat_cache!r}"
            )
        self.registry_root = os.fspath(registry_root)
        self.workers = int(workers if workers is not None else os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.host = host
        self.port = int(port)
        self.feat_cache = feat_cache
        self._feat_dir_owned = feat_cache == "shared" and feat_cache_dir is None
        self.feat_cache_dir = feat_cache_dir
        self.feat_cache_capacity = int(feat_cache_capacity)
        self.feat_cache_bytes = int(feat_cache_bytes)
        self.max_restarts = max(0, int(max_restarts))
        if dataclasses.is_dataclass(drift_config):
            drift_config = dataclasses.asdict(drift_config)
        self.drift_config = dict(drift_config) if drift_config else None
        self.server_options = dict(server_options or {})
        self.ready_timeout = float(ready_timeout)
        self._records: dict[int, _WorkerRecord] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._ready_queue: Any = None
        #: fileno of the start()-time port placeholder, live only while
        #: the initial spawn loop runs; fork children close it at birth.
        self._placeholder_fd: int | None = None
        self._supervisor: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._started = False

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "ServeFleet":
        if self._started:
            raise RuntimeError("fleet already started")
        self._started = True
        self._stop_event.clear()
        self._ready_queue = multiprocessing.Queue()
        if self.feat_cache == "shared" and self.feat_cache_dir is None:
            self.feat_cache_dir = tempfile.mkdtemp(prefix="featcache-")
        # Reserve the shared port before any worker binds it: a bound,
        # never-listening SO_REUSEPORT socket holds the number (TCP only
        # routes to LISTEN sockets) without receiving connections,
        # closing the pick-then-bind race for port=0.
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            placeholder.bind((self.host, self.port))
            self.port = placeholder.getsockname()[1]
            self._placeholder_fd = placeholder.fileno()
            for worker_id in range(self.workers):
                # The placeholder must stay bound while workers spawn —
                # closing it first reopens the port-0 race it exists to
                # shut.  Fork children shed the inherited fd at birth
                # (spec["inherited_fds"] in _fleet_worker_main).
                # repro-lint: disable=RL702  # placeholder held by design; the child closes the inherited fd
                self._spawn(worker_id)
            self._await_ready(self.ready_timeout)
        except BaseException:  # a stop signal during start too
            self._started = False
            self._terminate_all()
            self._remove_own_feat_dir()
            raise
        finally:
            self._placeholder_fd = None
            placeholder.close()
        self._supervisor = threading.Thread(
            target=self._supervise, name="fleet-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop every worker (SIGTERM, then kill) and remove the cache
        directory the fleet made; a caller-named one keeps its rows."""
        if not self._started:
            return
        self._started = False
        self._stop_event.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout)
            self._supervisor = None
        self._terminate_all(timeout=timeout)
        if self._ready_queue is not None:
            self._ready_queue.close()
            self._ready_queue = None
        self._remove_own_feat_dir()

    def _remove_own_feat_dir(self) -> None:
        if self._feat_dir_owned and self.feat_cache_dir is not None:
            shutil.rmtree(self.feat_cache_dir, ignore_errors=True)
            self.feat_cache_dir = None

    def __enter__(self) -> "ServeFleet":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- spawn / supervise -------------------------------------------------------
    def _spawn(self, worker_id: int) -> None:
        spec = {
            "worker_id": worker_id,
            "registry_root": self.registry_root,
            "host": self.host,
            "port": self.port,
            "feat_cache": self.feat_cache,
            "feat_cache_dir": self.feat_cache_dir,
            "feat_cache_dir_owned": self._feat_dir_owned,
            "feat_cache_capacity": self.feat_cache_capacity,
            "feat_cache_bytes": self.feat_cache_bytes,
            "drift_config": self.drift_config,
            "server_options": self.server_options,
            # Parent fds a fork child must close at birth (empty under
            # spawn, where nothing is inherited).  Only the start()-time
            # placeholder ever qualifies; restarts see None.
            "inherited_fds": (
                [self._placeholder_fd]
                if self._placeholder_fd is not None
                and multiprocessing.get_start_method() == "fork"
                else []
            ),
        }
        proc = multiprocessing.Process(
            target=_fleet_worker_main,
            args=(spec, self._ready_queue),
            name=f"serve-fleet-{worker_id}",
            daemon=True,
        )
        proc.start()
        with self._lock:
            record = self._records.get(worker_id)
            if record is None:
                record = self._records[worker_id] = _WorkerRecord(spec=spec)
            record.proc = proc
            record.pid = proc.pid
            record.ready = False

    def _consume_ready(self, timeout: float) -> bool:
        """Apply one readiness report from a worker; False on timeout."""
        import queue as _queue

        try:
            msg = self._ready_queue.get(timeout=timeout)
        except (_queue.Empty, OSError, ValueError):
            return False
        with self._lock:
            record = self._records.get(msg["worker"])
            if record is not None:
                record.pid = msg["pid"]
                record.control_port = msg["control_port"]
                record.ready = True
        return True

    def _await_ready(self, timeout: float) -> None:
        """Wait for every worker's readiness report.

        A worker that exits before reporting (a bad server option, a
        failed bind) fails the start at once rather than at *timeout*.
        """
        deadline = time.monotonic() + timeout
        while True:
            while self._consume_ready(timeout=0.0):
                pass
            with self._lock:
                missing = {
                    wid: rec.proc.exitcode
                    for wid, rec in self._records.items()
                    if not rec.ready
                }
            dead = [
                f"worker {wid} (exit code {code})"
                for wid, code in sorted(missing.items())
                if code is not None
            ]
            if dead:
                raise RuntimeError(
                    f"fleet {', '.join(dead)} exited before reporting ready"
                )
            if not missing:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"fleet workers {sorted(missing)} failed to report ready "
                    f"within {timeout:.1f}s"
                )
            self._consume_ready(min(remaining, 0.25))

    def _supervise(self) -> None:
        """Restart dead workers under the crash-loop cap (daemon thread)."""
        while not self._stop_event.wait(0.05):
            # Drain restart readiness reports without blocking the scan.
            while self._consume_ready(timeout=0.0):
                pass
            with self._lock:
                dead = [
                    (wid, rec)
                    for wid, rec in self._records.items()
                    if rec.proc is not None
                    and not rec.proc.is_alive()
                    and not rec.crash_looped
                ]
            for worker_id, record in dead:
                if self._stop_event.is_set():
                    return
                record.exit_codes.append(record.proc.exitcode)
                record.ready = False
                record.restarts += 1
                if record.restarts > self.max_restarts:
                    # Crash-looping: park the slot, keep the fleet up.
                    record.crash_looped = True
                    continue
                self._spawn(worker_id)

    def _terminate_all(self, timeout: float = 10.0) -> None:
        with self._lock:
            procs = [rec.proc for rec in self._records.values() if rec.proc is not None]
        for proc in procs:
            if proc.is_alive():
                proc.terminate()  # SIGTERM -> graceful request_stop
        deadline = time.monotonic() + timeout
        for proc in procs:
            proc.join(max(deadline - time.monotonic(), 0.1))
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(1.0)

    # -- addressing -------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The shared data address every client dials."""
        return (self.host, self.port)

    def control_addresses(self) -> list[tuple[str, int]]:
        """Per-worker private addresses, re-resolved on every call.

        Restarted workers re-report with fresh ports, so callers must
        not cache this list across failures — the loop's drift polls and
        :meth:`_fanout` both re-resolve per attempt.
        """
        with self._lock:
            return [
                (self.host, rec.control_port)
                for rec in self._records.values()
                if rec.ready and rec.control_port is not None and rec.proc.is_alive()
            ]

    def worker_pids(self) -> dict[int, int]:
        with self._lock:
            return {
                wid: rec.pid
                for wid, rec in self._records.items()
                if rec.pid is not None and rec.proc is not None and rec.proc.is_alive()
            }

    def live_workers(self) -> int:
        with self._lock:
            return sum(
                1 for rec in self._records.values() if rec.ready and rec.proc.is_alive()
            )

    def crash_looped_workers(self) -> list[int]:
        with self._lock:
            return sorted(
                wid for wid, rec in self._records.items() if rec.crash_looped
            )

    def restart_counts(self) -> dict[int, int]:
        with self._lock:
            return {wid: rec.restarts for wid, rec in self._records.items()}

    def exit_codes(self) -> dict[int, list[int]]:
        """Each worker's exit codes so far, oldest first."""
        with self._lock:
            return {wid: list(rec.exit_codes) for wid, rec in self._records.items()}

    # -- fleet-wide operations -----------------------------------------------------
    def _fanout(
        self,
        fn: Callable[[PredictionClient], Any],
        *,
        timeout: float = 10.0,
    ) -> dict[int, Any]:
        """Run *fn* against every live worker's control port.

        Addresses are re-resolved per attempt so a worker that died and
        restarted mid-fan-out is reached at its new control port.  Raises
        :class:`FleetFanoutError` when, after all retries, some live
        worker never answered — a silent partial fan-out would report
        fleet totals that miss a worker.
        """
        results: dict[int, Any] = {}
        last_errors: dict[int, str] = {}
        for attempt in range(FANOUT_RETRY.max_retries + 1):
            with self._lock:
                targets = [
                    (wid, (self.host, rec.control_port))
                    for wid, rec in self._records.items()
                    if rec.ready
                    and rec.control_port is not None
                    and rec.proc.is_alive()
                    and wid not in results
                ]
            for worker_id, address in targets:
                try:
                    with PredictionClient(
                        *address, timeout=timeout, reconnects=0
                    ) as client:
                        results[worker_id] = fn(client)
                except (OSError, ServerError) as exc:
                    last_errors[worker_id] = f"{type(exc).__name__}: {exc}"
            with self._lock:
                expected = {
                    wid
                    for wid, rec in self._records.items()
                    if not rec.crash_looped
                }
            if expected <= set(results):
                return results
            if attempt < FANOUT_RETRY.max_retries:
                time.sleep(FANOUT_RETRY.delay("fanout", attempt + 1))
        missing = sorted(expected - set(results))
        raise FleetFanoutError(
            f"workers {missing} unreachable after {FANOUT_RETRY.max_retries + 1} attempts: "
            f"{ {w: last_errors.get(w, 'never ready') for w in missing} }"
        )

    def stats(self) -> dict[str, Any]:
        """Aggregated fleet counters plus the per-worker snapshots."""
        per_worker = self._fanout(lambda client: client.stats())
        return {
            "workers": per_worker,
            "aggregate": aggregate_stats(list(per_worker.values())),
        }


def aggregate_stats(snapshots: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum per-worker :class:`ServeStats` snapshots into fleet totals.

    Counters and accumulated seconds add; latency quantiles cannot be
    averaged meaningfully, so the aggregate reports the worst worker's
    (an upper bound on the fleet quantile); ``mean_batch_size`` is
    recomputed from the summed numerator/denominator.
    """
    out: dict[str, Any] = {"workers": len(snapshots)}
    if not snapshots:
        return out
    for name in SERVE_COUNTERS:
        out[name] = sum(snap.get(name, 0) for snap in snapshots)
    for name in LATENCY_QUANTILES:
        out[name] = max(snap.get(name, 0.0) for snap in snapshots)
    calls = out["predict_calls"]
    out["mean_batch_size"] = out["batched_rows"] / calls if calls else 0.0
    stale: set[str] = set()
    for snap in snapshots:
        stale.update(snap.get("stale_keys", ()))
    out["stale_keys"] = sorted(stale)
    return out


__all__ = [
    "FEAT_CACHE_MODES",
    "FleetFanoutError",
    "ServeFleet",
    "aggregate_stats",
]
