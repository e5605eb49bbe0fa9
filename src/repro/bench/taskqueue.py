"""Distributed task queue with locality-aware scheduling and fault
tolerance (the LibDistributed analog of §4.3).

"As data loading times tend to dominate task runtimes for most
compressors ... we attempt to schedule as many jobs with the same data
to the same workers when they are available.  When multiple workers are
not available, we can fall back to single-node processing."

This module holds the seam, :class:`TaskQueue`, and the serial engine.
Engines:

* ``serial`` — single worker on the calling thread, deterministic order
  (the paper's single-node fallback);
* ``process`` — N worker *ranks* started on this host, for NumPy-bound
  collection that needs real cores;
* ``cluster`` — worker ranks on one or many nodes, started here or by a
  launcher (``srun``, ``mpirun``).

Both parallel engines run one coordinator,
:func:`~repro.bench.cluster.engine.run_cluster` (``process`` is its
spawn mode), with worker ids ``1..n``.  The engine named is the one
that runs: one ``process`` worker is one forked rank.

One thing reaches a worker, on every engine: the task function
``fn(task, worker)`` given to :meth:`TaskQueue.run` — already bound to
the run's :class:`~repro.bench.faults.ChaosPlan` when there is one.
The serial loop calls it and each rank receives it pickled in its init
message; every one of them reports a task the same way, through
:func:`~repro.bench.taskledger.outcome_of`.  On every engine results
come back to the calling process, which runs the one ``on_result`` sink
(so e.g. SQLite sees a single writer).

Each engine is only its mechanics (the loop; rendezvous, transport and
heartbeats).  Placement and what a task outcome *costs* — attempts,
retries with backoff, quarantine, deadline charges, the crash-loop cap
— are decided in one place, the
:class:`~repro.bench.taskledger.TaskLedger` every engine drives: tasks
are grouped by ``data_id`` and routed by a worker-id → datum affinity
map, so a datum's chunks follow the worker that loaded it and idle
workers steal (ownership moves with the steal); a parallel engine
dispatches each datum as one chunk.  The serial engine is the
one-worker case of the same backlog: single-task chunks, so it runs
one datum's tasks back to back, datums in order of first appearance.

Fault domains supervised (see :mod:`repro.bench.faults`):

* **exceptions** — classified by :class:`RetryPolicy` into transient
  (retried with exponential backoff + deterministic jitter) and
  permanent (quarantined on first failure: a task asking for an
  unsupported scheme can never succeed, so no attempts are burned);
* **hangs** — with ``task_timeout`` set, the serial engine preempts the
  running task with a SIGALRM deadline guard (main thread only), and
  the parallel engines charge an overdue chunk's tasks a ``TIMEOUT``
  attempt and kill the rank holding it, since a hung worker process
  cannot be reclaimed any other way;
* **worker crashes** — a dead rank (EOF, heartbeat silence) is
  respawned and its in-flight chunk requeued *without* charging the
  tasks an attempt (the worker, not the task, failed); consecutive
  no-progress deaths are capped so a crash-looping worker fails the run
  with a diagnosis instead of hanging it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import signal
import threading
import time
import warnings
from typing import Any, Callable

from ..core.errors import RetryPolicy, TaskTimeoutError
from .cluster.spec import ClusterSpec
from .faults import ChaosPlan
from .taskledger import QueueStats, TaskLedger, TaskResult, outcome_of  # noqa: F401 - re-exported
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
        Worker ranks a parallel engine starts (ids ``1..n``), ``>= 1``.
    engine:
        One of :data:`ENGINES` — the engine that runs, for any count.
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
        kills the rank that held it.
    max_pool_rebuilds:
        Consecutive no-progress worker (rank) deaths tolerated before
        the run fails with a diagnosis.
    cluster:
        The ``cluster`` engine's deployment (default: a launcher when
        there is one, local ranks otherwise); ``process`` always spawns.
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
        cluster: ClusterSpec | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        if int(n_workers) < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.engine = engine
        self.cluster = cluster
        if engine == "process":
            # The cluster loop over local ranks it starts itself, whatever
            # launcher environment it runs under.
            self.cluster = dataclasses.replace(cluster or ClusterSpec(), mode="spawn")
        elif engine == "cluster":
            # Resolve the deployment now: a malformed launched coordinator
            # raises before the caller has paid for dataset init.
            self.cluster = cluster or ClusterSpec()
            self.cluster.resolve()
        self.retry_policy = retry_policy or RetryPolicy(max_retries=int(max_retries))
        if task_timeout is not None and not float(task_timeout) > 0.0:
            raise ValueError("task_timeout must be > 0 (or None to disable deadlines)")
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.max_pool_rebuilds = max(0, int(max_pool_rebuilds))

    def run(
        self,
        tasks: list[Task],
        task_fn: Callable[[Task, int], dict[str, Any]] | None,
        *,
        on_result: Callable[[TaskResult], None] | None = None,
        chaos: ChaosPlan | None = None,
    ) -> tuple[list[TaskResult], QueueStats]:
        """Execute all tasks; returns (results, stats).

        ``task_fn(task, worker)`` produces the result payload; raising
        triggers a retry, then a recorded failure.  It is the one thing
        that reaches a worker, on every engine: the serial loop calls
        it, each rank of the process and cluster engines receives it
        pickled in its init message (one that does not pickle fails the
        run at once).  Per-worker state belongs inside it (e.g.
        :class:`~repro.bench.runner.ExperimentRunner`, whose pickled
        form drops its store, queue and held entry).

        ``chaos`` binds a :class:`~repro.bench.faults.ChaosPlan` here,
        once for every engine: the bound plan is the task function the
        workers get (a cluster rank also asks it for ``rank_kill``
        before each task), and a plan with a ``sink`` rate wraps
        ``on_result``.
        """
        if task_fn is None and not (self.cluster and self.cluster.is_worker_rank):
            # A launched cluster *worker* rank receives its task function
            # over the wire (pickled in the coordinator's init message);
            # requiring one locally would make the symmetric "every rank
            # calls queue.run" entry point impossible.
            raise ValueError("task_fn is required")
        if chaos is not None:
            if task_fn is not None:
                task_fn = chaos.bind(task_fn)
            if on_result is not None and chaos.rates["sink"] > 0.0:
                on_result = chaos.wrap_sink(on_result)
        ledger = TaskLedger(
            self.engine,
            self.retry_policy,
            on_result,
            task_timeout=self.task_timeout,
            max_worker_deaths=self.max_pool_rebuilds,
        )
        if self.engine == "serial":
            return self._run_serial(ledger, tasks, task_fn)
        from .cluster.engine import run_cluster

        return run_cluster(self.cluster, self.n_workers, ledger, tasks, task_fn)

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

        def guarded(task: Task, worker: int) -> dict[str, Any]:
            with _serial_deadline(self.task_timeout, task.key()):
                return task_fn(task, worker)

        ledger.enqueue(tasks, whole_datums=False)
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
            ledger.charge_chunk(0, [outcome_of(guarded, task, 0)])
        return ledger.outcome()
