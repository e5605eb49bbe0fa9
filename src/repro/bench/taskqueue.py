"""Distributed task queue with locality-aware scheduling and fault
tolerance (the LibDistributed analog of §4.3).

"As data loading times tend to dominate task runtimes for most
compressors ... we attempt to schedule as many jobs with the same data
to the same workers when they are available.  When multiple workers are
not available, we can fall back to single-node processing."

Engines:

* ``serial`` — single worker on the calling thread, deterministic order
  (the paper's single-node fallback);
* ``process`` — N *pinned* single-process executors (one per worker
  slot), for NumPy-bound collection that needs real cores;
* ``cluster`` — worker *ranks* on one or many nodes
  (:mod:`repro.bench.cluster`), with rank-level fault supervision.

On every engine results come back to the calling process, which runs
the one ``on_result`` sink (so e.g. SQLite sees a single writer).

Each engine is only its mechanics (the loop; slots, pools and futures;
rendezvous, transport and heartbeats).  Placement and what a task
outcome *costs* — attempts, retries with backoff, quarantine, deadline
charges, the crash-loop cap — are decided in one place, the
:class:`~repro.bench.taskledger.TaskLedger` every engine drives: tasks
are grouped by ``data_id`` and routed by a worker-id → datum affinity
map, so a datum's chunks follow the worker that loaded it and idle
workers steal (ownership moves with the steal).  The serial engine is
the one-worker case of the same backlog: single-task chunks, so it runs
one datum's tasks back to back, datums in order of first appearance.

Fault domains supervised (see :mod:`repro.bench.faults`):

* **exceptions** — classified by :class:`RetryPolicy` into transient
  (retried with exponential backoff + deterministic jitter) and
  permanent (quarantined on first failure: a task asking for an
  unsupported scheme can never succeed, so no attempts are burned);
* **hangs** — with ``task_timeout`` set, the serial engine preempts the
  running task with a SIGALRM deadline guard (main thread only), and
  the process and cluster engines charge an overdue chunk's tasks a
  ``TIMEOUT`` attempt and recycle the worker slot / rank holding it,
  since a hung worker process cannot be reclaimed any other way;
* **worker crashes** — a dead worker process (or rank) is rebuilt and
  its in-flight chunk requeued *without* charging the tasks an attempt
  (the worker, not the task, failed); consecutive no-progress deaths
  are capped so a crash-looping worker fails the run with a diagnosis
  instead of hanging it.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
import warnings
from typing import Any, Callable

from ..core.errors import Status, TaskTimeoutError, error_status
from .cluster.spec import ClusterSpec
from .faults import RetryPolicy
from .taskledger import Outcome, QueueStats, TaskLedger, TaskResult  # noqa: F401 - re-exported
from .tasks import Task

ENGINES = ("serial", "process", "cluster")

#: Warn once per process that the serial deadline cannot be enforced
#: (no SIGALRM on this platform, or running off the main thread).
_ALARM_UNAVAILABLE_WARNED = False


@contextlib.contextmanager
def _serial_deadline(seconds: float | None, task_key: str):
    """Enforce a per-task deadline in the serial engine via SIGALRM.

    The serial engine runs tasks on the calling thread, so there is no
    second thread or process to supervise from — the only preemption
    available is a signal.  ``setitimer`` delivers SIGALRM after
    *seconds*; the handler raises :class:`TaskTimeoutError`, which the
    loop's fault boundary classifies as a retriable ``TIMEOUT``.

    Signals only reach Python code on the main thread of the main
    interpreter; elsewhere (or on platforms without SIGALRM) this guard
    degrades to a no-op with a one-time warning, matching the documented
    "main-thread only" contract.
    """
    global _ALARM_UNAVAILABLE_WARNED
    if seconds is None:
        yield
        return
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        if not _ALARM_UNAVAILABLE_WARNED:
            _ALARM_UNAVAILABLE_WARNED = True
            warnings.warn(
                "task_timeout cannot be enforced by the serial engine here "
                "(SIGALRM unavailable or not on the main thread); deadlines "
                "are disabled for this run",
                stacklevel=3,
            )
        yield
        return

    def _on_alarm(signum, frame):  # noqa: ARG001 - signal handler signature
        raise TaskTimeoutError(
            f"task exceeded {seconds:g}s deadline (serial SIGALRM guard)",
            task_key=task_key,
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TaskQueue:
    """Run tasks through a callable with retries and locality placement.

    Every engine places work through the run's
    :class:`~repro.bench.taskledger.TaskLedger`: a worker is handed the
    pending chunk of a datum it already owns before it claims a new one.
    A task retried after a transient failure therefore runs after the
    rest of its datum's tasks and before the next datum, on the serial
    engine as on the others (a retry still backing off joins the backlog
    when its delay has elapsed).

    Parameters
    ----------
    n_workers:
        Worker count; 1 forces the serial engine (with a warning when a
        parallel engine was requested — the downgrade used to be silent).
    engine:
        One of :data:`ENGINES`: ``"serial"``, ``"process"`` or
        ``"cluster"``.
    max_retries:
        Additional attempts per task after a *transient* failure.  A
        task that still fails is reported as failed (not raised) so one
        bad datum cannot sink a campaign — callers inspect
        :class:`TaskResult.ok`.  Shorthand for the default
        :class:`RetryPolicy`; ignored when ``retry_policy`` is given.
    retry_policy:
        Full fault-domain policy: backoff, jitter seed, and which status
        codes are permanent (quarantined on first failure).
    task_timeout:
        Per-task deadline in seconds, ``> 0``; ``None`` (default)
        disables supervision.  The serial engine enforces it in-line
        with a SIGALRM guard — main thread only; elsewhere it degrades
        to a no-op with a one-time warning.  On the process and cluster
        engines a chunk gets one deadline per task plus one of startup
        grace; an overrun charges its tasks a ``TIMEOUT`` attempt and
        recycles the worker slot (or rank) that held it.
    max_pool_rebuilds:
        Consecutive no-progress worker deaths (process-slot rebuilds,
        rank deaths) tolerated before the run fails with a diagnosis.
    chunk_size:
        Process/cluster dispatch granularity: tasks per chunk within a
        datum group.  ``None`` (default) dispatches whole groups —
        maximum batching; a small value interleaves datums across
        workers and lets the affinity map route later chunks back to
        whichever worker loaded the datum first.
    """

    def __init__(
        self,
        n_workers: int = 1,
        engine: str = "serial",
        max_retries: int = 2,
        *,
        retry_policy: RetryPolicy | None = None,
        task_timeout: float | None = None,
        max_pool_rebuilds: int = 5,
        chunk_size: int | None = None,
        cluster: ClusterSpec | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        self.n_workers = max(1, int(n_workers))
        self.requested_engine = engine
        self.cluster = cluster
        if engine == "cluster":
            # Resolve the deployment *now*, not after the caller has
            # paid for dataset init: no launcher environment and spawning
            # disabled means there is no cluster to run on — downgrade
            # to the process engine with a warning (and let QueueStats
            # stay truthful via requested_engine).
            self.cluster = cluster or ClusterSpec()
            if self.cluster.resolve() is None:
                warnings.warn(
                    "engine 'cluster' found no launcher environment and "
                    "spawning is disabled; falling back to 'process'",
                    stacklevel=2,
                )
                engine = "process"
        # A single-worker parallel engine is pointless *except* for the
        # cluster engine, whose one worker is still a separate rank (the
        # 1-rank cell of a scaling sweep).
        if self.n_workers == 1 and engine not in ("serial", "cluster"):
            warnings.warn(
                f"engine {engine!r} requires more than one worker; "
                "falling back to 'serial'",
                stacklevel=2,
            )
        self.engine = engine if (self.n_workers > 1 or engine in ("serial", "cluster")) else "serial"
        self.retry_policy = retry_policy or RetryPolicy(max_retries=int(max_retries))
        if task_timeout is not None and not float(task_timeout) > 0.0:
            raise ValueError("task_timeout must be > 0 (or None to disable deadlines)")
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.max_pool_rebuilds = max(0, int(max_pool_rebuilds))
        if chunk_size is not None and int(chunk_size) < 1:
            raise ValueError("chunk_size must be >= 1 (or None for whole groups)")
        self.chunk_size = None if chunk_size is None else int(chunk_size)

    def run(
        self,
        tasks: list[Task],
        task_fn: Callable[[Task, int], dict[str, Any]] | None,
        *,
        on_result: Callable[[TaskResult], None] | None = None,
        worker_init: Callable[[], Callable[[Task, int], dict[str, Any]]] | None = None,
        chaos=None,
    ) -> tuple[list[TaskResult], QueueStats]:
        """Execute all tasks; returns (results, stats).

        ``task_fn(task, worker)`` produces the result payload; raising
        triggers a retry, then a recorded failure.  ``worker_init`` is
        an optional zero-argument factory returning the task function:
        the process engine calls it once per worker process (per-worker
        dataset/compressor setup) instead of pickling ``task_fn``; the
        serial engine calls it once up front when ``task_fn`` is None.

        Cluster-engine extra (ignored elsewhere): ``chaos`` is a
        picklable :class:`~repro.bench.faults.ChaosPlan` shipped to the
        worker ranks (each rank binds its own task function — including
        the ``rank_kill`` class, which only makes sense worker-side).
        """
        if task_fn is None and worker_init is None:
            # A launched cluster *worker* rank receives its task function
            # over the wire (pickled in the coordinator's init message);
            # requiring one locally would make the symmetric "every rank
            # calls queue.run" entry point impossible.
            if not (
                self.engine == "cluster"
                and self.cluster is not None
                and self.cluster.is_worker_rank
            ):
                raise ValueError("one of task_fn or worker_init is required")
        ledger = TaskLedger(
            self.engine,
            self.requested_engine,
            self.retry_policy,
            on_result,
            task_timeout=self.task_timeout,
            max_worker_deaths=self.max_pool_rebuilds,
        )
        if self.engine == "cluster":
            from .cluster.engine import run_cluster

            return run_cluster(
                self,
                ledger,
                tasks,
                task_fn,
                worker_init=worker_init,
                chaos=chaos,
            )
        if self.engine == "process":
            return self._run_process(ledger, tasks, task_fn, worker_init)
        if task_fn is None:
            task_fn = worker_init()
        return self._run_serial(ledger, tasks, task_fn)

    # -- serial engine -----------------------------------------------------------
    def _run_serial(
        self,
        ledger: TaskLedger,
        tasks: list[Task],
        task_fn: Callable[[Task, int], dict[str, Any]],
    ) -> tuple[list[TaskResult], QueueStats]:
        """One worker, the calling thread: dispatch a single-task chunk
        from the ledger, run it under the deadline guard, charge it.
        While a retry is backing off the loop keeps working through the
        rest."""
        ledger.enqueue(tasks, 1)
        while True:
            ledger.promote_delayed()
            chunk = ledger.dispatch(0)
            if chunk is None:
                if not ledger.delayed:
                    break
                t0 = time.perf_counter()
                ledger.sleep_until_promotable()
                ledger.stats.queue_wait_seconds += time.perf_counter() - t0
                continue
            (task,) = chunk
            payload: dict[str, Any] | None = None
            error: str | None = None
            status = int(Status.SUCCESS)
            t0 = time.perf_counter()
            try:
                with _serial_deadline(self.task_timeout, task.key()):
                    payload = task_fn(task, 0)
            except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                error = f"{type(exc).__name__}: {exc}"
                status = error_status(exc)
            ledger.charge_chunk(0, [(0, payload, error, status, time.perf_counter() - t0)])
        return ledger.outcome()

    # -- process engine ----------------------------------------------------------
    def _run_process(
        self,
        ledger: TaskLedger,
        tasks: list[Task],
        task_fn: Callable[[Task, int], dict[str, Any]] | None,
        worker_init: Callable[[], Callable[[Task, int], dict[str, Any]]] | None,
    ) -> tuple[list[TaskResult], QueueStats]:
        """Fan tasks out to *pinned* worker processes with datum affinity.

        Each worker slot is its own single-process executor, so "worker
        ``w``" names one long-lived OS process — the control a shared
        pool denies.  Work is dispatched in chunks (``chunk_size`` tasks
        of one datum; whole groups by default) routed by the ledger's
        affinity map: a chunk goes to the worker that owns its datum, an
        unclaimed datum is claimed by the first free worker, and a
        worker with nothing of its own *steals* — ownership moving with
        the steal — rather than idle.  A worker holding a warm datum
        (its entry context, or a cache in its dataset stack) serves
        every later chunk of it without another load.

        Results stream back to the parent, which owns the ledger and
        the ``on_result`` sink (so e.g. SQLite sees a single writer).

        A worker process dying, its executor breaking or its chunk
        overrunning the deadline recycles only that slot — terminate,
        rebuild lazily — and the other workers keep their warm state;
        the ledger decides what the slot's chunk is charged.

        ``worker_init`` (and ``task_fn`` when used directly) must be
        picklable; bound methods carrying open handles are not — pass a
        ``functools.partial`` of a module-level factory instead.
        """
        import multiprocessing as mp
        from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        if not tasks:
            return ledger.outcome()
        ledger.enqueue(tasks, self.chunk_size)
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork") if "fork" in methods else mp.get_context()
        pools: dict[int, ProcessPoolExecutor] = {}
        running: dict[int, Future] = {}

        def make_pool(wid: int) -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=1,
                mp_context=ctx,
                initializer=_process_worker_init,
                initargs=(
                    worker_init,
                    None if worker_init is not None else task_fn,
                    wid,
                ),
            )

        def kill_pool(dead: ProcessPoolExecutor) -> None:
            # A broken or hung pool cannot be drained gracefully: cancel
            # what never started, then terminate the worker process so a
            # hung task cannot outlive its executor.
            procs = list((getattr(dead, "_processes", None) or {}).values())
            try:
                dead.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001 - teardown best-effort
                pass
            for proc in procs:
                try:
                    if proc.is_alive():
                        proc.terminate()
                except Exception:  # noqa: BLE001 - teardown best-effort
                    pass

        def recycle(wid: int, cause: str) -> None:
            kill_pool(pools.pop(wid))
            ledger.stats.pool_rebuilds += 1
            ledger.worker_died(wid, cause)

        try:
            while not ledger.aborted:
                ledger.promote_delayed()
                # Dispatch: every free slot takes its best-affinity chunk.
                for wid in range(self.n_workers):
                    if wid in running:
                        continue
                    chunk = ledger.dispatch(wid)
                    if chunk is None:
                        break
                    if wid not in pools:
                        pools[wid] = make_pool(wid)
                    try:
                        running[wid] = pools[wid].submit(_process_run_chunk, chunk)
                    except Exception as exc:  # noqa: BLE001 - broken/shut pool
                        recycle(wid, f"{type(exc).__name__}: {exc}")
                if ledger.pending and len(running) < self.n_workers:
                    continue  # a submit failed: its chunk wants a slot again
                if not running:
                    if not ledger.delayed:
                        break  # drained
                    ledger.sleep_until_promotable()
                    continue

                bound = 0.1 if (self.task_timeout is not None or ledger.delayed) else None
                done, _ = wait(list(running.values()), timeout=bound, return_when=FIRST_COMPLETED)
                broken: list[tuple[int, str]] = []
                for wid in [w for w, fut in running.items() if fut in done]:
                    try:
                        outcomes = running.pop(wid).result()
                    except BrokenProcessPool as exc:
                        # Slot-level fault: the chunk never reported.
                        broken.append((wid, f"{type(exc).__name__}: {exc}"))
                        continue
                    except Exception as exc:  # noqa: BLE001 - chunk-level fault
                        # Attributable to the chunk itself (e.g. an
                        # unpicklable payload): charge the tasks.
                        failed: Outcome = (
                            wid, None, f"{type(exc).__name__}: {exc}",
                            int(Status.TASK_FAILED), 0.0,
                        )
                        outcomes = [failed] * len(ledger.in_flight[wid][0])
                    ledger.charge_chunk(wid, outcomes)
                # After the reports: a death can trip the crash-loop cap,
                # which fails whatever is still booked as in flight.
                for wid, cause in broken:
                    recycle(wid, cause)
                for wid in ledger.charge_overdue():
                    del running[wid]
                    recycle(wid, "hung worker process (deadline exceeded)")
        finally:
            for wid, pool in pools.items():
                if wid in running:
                    kill_pool(pool)  # abandoned mid-chunk
                else:
                    pool.shutdown(wait=True)
        return ledger.outcome()


# -- process-engine worker side (module level: must be picklable) --------------

_WORKER_FN: Callable[[Task, int], dict[str, Any]] | None = None
_WORKER_ID: int = -1


def _process_worker_init(worker_init, task_fn, worker_id: int) -> None:
    """Runs once in each worker process: build the task function there.

    ``worker_id`` arrives by value (each slot is a single-process pool),
    so worker identity is stable across the whole campaign — the parent's
    affinity map and the worker's warm caches agree on who is who.
    """
    global _WORKER_FN, _WORKER_ID
    _WORKER_ID = int(worker_id)
    _WORKER_FN = worker_init() if worker_init is not None else task_fn


def _process_run_chunk(
    chunk: list[Task],
) -> list[tuple[int, dict[str, Any] | None, str | None, int, float]]:
    """Execute one datum chunk sequentially in a worker process.

    Each outcome is ``(worker_id, payload, error, status, exec_seconds)``
    — the status code rides along so the parent's retry policy can
    classify the failure without unpickling exception objects.
    """
    out: list[tuple[int, dict[str, Any] | None, str | None, int, float]] = []
    for task in chunk:
        t0 = time.perf_counter()
        try:
            payload = _WORKER_FN(task, _WORKER_ID)
            out.append(
                (_WORKER_ID, payload, None, int(Status.SUCCESS), time.perf_counter() - t0)
            )
        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
            out.append(
                (
                    _WORKER_ID,
                    None,
                    f"{type(exc).__name__}: {exc}",
                    error_status(exc),
                    time.perf_counter() - t0,
                )
            )
    return out
