"""Distributed task queue with locality-aware scheduling and fault
tolerance (the LibDistributed analog of §4.3).

"As data loading times tend to dominate task runtimes for most
compressors ... we attempt to schedule as many jobs with the same data
to the same workers when they are available.  When multiple workers are
not available, we can fall back to single-node processing."

Engines:

* ``serial`` — single worker, deterministic order (the fallback);
* ``thread`` — a pool of worker threads coordinated through a condition
  variable (NumPy kernels release the GIL, so compressor-bound tasks
  overlap);
* ``process`` — N *pinned* single-process executors (one per worker
  slot), for NumPy-bound collection that needs real cores.  Tasks are
  grouped by ``data_id`` and routed by a worker-id → datum affinity map
  (:class:`_AffinityMap`): a datum's chunks follow the worker that
  loaded it, and idle workers steal (ownership moves with the steal);
* ``cluster`` — worker *ranks* on one or many nodes, each writing its
  own checkpoint shard (:mod:`repro.bench.cluster`); same affinity
  routing, rank-level fault supervision.

Serial and thread share the same :class:`LocalityScheduler` and
retry/failure semantics.  A further execution model, the discrete-event
:class:`~repro.bench.simcluster.SimulatedCluster`, reuses the scheduler
to *measure* placement quality under a virtual clock.

Fault domains supervised (see :mod:`repro.bench.faults`):

* **exceptions** — classified by :class:`RetryPolicy` into transient
  (retried with exponential backoff + deterministic jitter) and
  permanent (quarantined on first failure: a task asking for an
  unsupported scheme can never succeed, so no attempts are burned);
* **hangs** — with ``task_timeout`` set, a watchdog abandons thread
  tasks past their deadline (the result of an abandoned execution is
  discarded if it ever arrives), the process engine recycles the
  whole pool when a group overruns, since a hung worker process cannot
  be reclaimed any other way, and the serial engine — which has no
  second thread to supervise from — preempts the running task with a
  SIGALRM deadline guard (main thread only);
* **worker crashes** — a dead worker process breaks the pool; the queue
  rebuilds the executor, requeues every in-flight group *without*
  charging the tasks an attempt (the pool, not the task, failed), and
  caps consecutive no-progress rebuilds so a crash-looping worker fails
  the run with a diagnosis instead of hanging it.

Coordination invariants (thread engine):

* no worker exits while any task is executing or awaiting retry — a
  failure can always be retried on a live worker;
* a worker a task failed on is excluded from retrying it for as long as
  any worker the task has *not* failed on remains; the exclusion is only
  lifted when the task has failed on every worker;
* polls are O(pending): virgin tasks live in one deque scanned once by
  the scheduler, retried tasks in a separate (small) deque — no
  copy-the-deque-per-poll.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
import warnings
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.errors import Status, TaskTimeoutError, error_status
from .cluster.spec import ClusterSpec
from .faults import FaultInjector, RetryPolicy  # noqa: F401 - re-exported
from .tasks import Task

ENGINES = ("serial", "thread", "process", "cluster")

#: Warn once per process that the serial deadline cannot be enforced
#: (no SIGALRM on this platform, or running off the main thread).
_ALARM_UNAVAILABLE_WARNED = False


@contextlib.contextmanager
def _serial_deadline(seconds: float | None, task_key: str):
    """Enforce a per-task deadline in the serial engine via SIGALRM.

    The serial engine runs tasks on the calling thread, so the thread
    engine's watchdog (which abandons a hung *other* thread) cannot
    apply — the only preemption available is a signal.  ``setitimer``
    delivers SIGALRM after *seconds*; the handler raises
    :class:`TaskTimeoutError`, which the worker loop's existing fault
    boundary classifies as a retriable ``TIMEOUT``.

    Signals only reach Python code on the main thread of the main
    interpreter; elsewhere (or on platforms without SIGALRM) this guard
    degrades to a no-op with a one-time warning, matching the documented
    "main-thread only" contract.
    """
    global _ALARM_UNAVAILABLE_WARNED
    if seconds is None or seconds <= 0.0:
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


@dataclass
class TaskResult:
    """Outcome of one task attempt (success or final failure)."""

    task: Task
    worker: int
    payload: dict[str, Any] | None = None
    error: str | None = None
    attempts: int = 1
    #: :class:`~repro.core.errors.Status` code of the final failure
    #: (``SUCCESS`` when ``ok``); drives retry classification and the
    #: checkpoint failure ledger.
    status: int = int(Status.SUCCESS)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class QueueStats:
    """Aggregate scheduling statistics for one run.

    The three timing buckets give the harness the same per-stage
    treatment the paper applies to prediction schemes: ``queue_wait``
    is worker-idle time spent blocked on the dispatcher, ``execute`` is
    time inside the task function, and ``checkpoint`` is time inside the
    ``on_result`` sink (the SQLite write path).  All are summed across
    workers, in seconds.
    """

    completed: int = 0
    failed: int = 0
    retries: int = 0
    locality_hits: int = 0
    locality_misses: int = 0
    per_worker: dict[int, int] = field(default_factory=dict)
    queue_wait_seconds: float = 0.0
    execute_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    #: Times a worker ran a task it was excluded from because the task
    #: had already failed on every worker (the only sanctioned override).
    exclusion_overrides: int = 0
    #: The engine that actually ran (``n_workers=1`` downgrades to
    #: serial) and the engine the caller asked for — so ``--queue-stats``
    #: output is truthful about what executed.
    engine: str = ""
    requested_engine: str = ""
    #: Tasks quarantined on a permanent (non-retriable) failure.
    quarantined: int = 0
    #: Task executions abandoned past their deadline.
    timeouts: int = 0
    #: Times the process pool was torn down and rebuilt after a crash
    #: or a hung worker.
    pool_rebuilds: int = 0
    #: Total backoff delay scheduled before retries, in seconds.
    backoff_seconds: float = 0.0
    #: Worker-pinned affinity accounting (process engine): a hit is a
    #: task dispatched to the worker that already holds its datum, a
    #: miss is a first load, a steal is an idle worker taking over
    #: another worker's datum (ownership transfers with the steal).
    affinity_hits: int = 0
    affinity_misses: int = 0
    affinity_steals: int = 0
    #: Cluster engine: worker ranks declared dead (heartbeat timeout or
    #: connection loss) and ranks respawned after a death (spawn mode).
    rank_deaths: int = 0
    rank_restarts: int = 0
    #: Control-plane bytes the coordinator put on / took off the wire.
    wire_bytes_sent: int = 0
    wire_bytes_received: int = 0
    #: Shard-merge accounting (cluster engine, rank-0 side).
    shards_merged: int = 0
    merge_replaced: int = 0
    merge_quarantined: int = 0

    @property
    def locality_rate(self) -> float:
        total = self.locality_hits + self.locality_misses
        return self.locality_hits / total if total else 0.0

    @property
    def affinity_hit_rate(self) -> float:
        total = self.affinity_hits + self.affinity_misses
        return self.affinity_hits / total if total else 0.0

    def stage_summary(self) -> dict[str, float]:
        """Per-stage harness timings, paper-style (seconds)."""
        return {
            "queue_wait": self.queue_wait_seconds,
            "execute": self.execute_seconds,
            "checkpoint": self.checkpoint_seconds,
        }

    def affinity_summary(self) -> dict[str, Any]:
        """Affinity counters for reports."""
        return {
            "affinity_hits": self.affinity_hits,
            "affinity_misses": self.affinity_misses,
            "affinity_steals": self.affinity_steals,
            "affinity_hit_rate": self.affinity_hit_rate,
        }

    def cluster_summary(self) -> dict[str, Any]:
        """Rank fault-domain + wire + merge counters for reports."""
        tasks = max(self.completed + self.failed, 1)
        return {
            "rank_deaths": self.rank_deaths,
            "rank_restarts": self.rank_restarts,
            "wire_bytes_sent": self.wire_bytes_sent,
            "wire_bytes_received": self.wire_bytes_received,
            "wire_bytes_per_task": (
                (self.wire_bytes_sent + self.wire_bytes_received) / tasks
            ),
            "shards_merged": self.shards_merged,
            "merge_replaced": self.merge_replaced,
            "merge_quarantined": self.merge_quarantined,
        }


class LocalityScheduler:
    """Greedy data-affinity assignment with ownership claims.

    Each worker remembers the data ids it has already loaded (its local
    cache).  A free worker prefers a pending task whose data it holds.
    On a miss it prefers a task whose data *no other worker has claimed*
    — without this, N workers pulling from a FIFO of N-task-per-datum
    batches scatter every datum across every worker and locality drops
    to zero exactly when it matters most.
    """

    def __init__(self) -> None:
        self.worker_cache: dict[int, set[str]] = defaultdict(set)
        self.data_owner: dict[str, int] = {}
        self.stats_hits = 0
        self.stats_misses = 0

    def pick(self, worker: int, pending: deque[Task]) -> Task | None:
        if not pending:
            return None
        cache = self.worker_cache[worker]
        for i, task in enumerate(pending):
            if task.data_id in cache:
                del pending[i]
                self.stats_hits += 1
                return task
        # Miss: claim an unowned datum if one exists, so each worker
        # builds its own partition instead of stealing another's.
        chosen = 0
        for i, task in enumerate(pending):
            if task.data_id not in self.data_owner:
                chosen = i
                break
        task = pending[chosen]
        del pending[chosen]
        self.stats_misses += 1
        cache.add(task.data_id)
        self.data_owner.setdefault(task.data_id, worker)
        return task

    def note_loaded(self, worker: int, data_id: str) -> None:
        self.worker_cache[worker].add(data_id)
        self.data_owner.setdefault(data_id, worker)

    def note_assigned(self, worker: int, data_id: str) -> None:
        """Record a placement made outside :meth:`pick` (e.g. a retry)."""
        if data_id in self.worker_cache[worker]:
            self.stats_hits += 1
        else:
            self.stats_misses += 1
            self.note_loaded(worker, data_id)


class _AffinityMap:
    """Worker-id → datum ownership for the pinned process engine.

    The process-side analog of :class:`LocalityScheduler`'s ownership
    claims: every datum is owned by the worker that first loaded it, and
    dispatch routes that datum's chunks back to the owner.  An idle
    worker with no owned or unclaimed work *steals* — ownership moves
    with the steal, so subsequent chunks of the stolen datum follow the
    thief instead of ping-ponging.
    """

    def __init__(self) -> None:
        self.owner: dict[str, int] = {}
        self.loaded: dict[int, set[str]] = defaultdict(set)
        self.hits = 0
        self.misses = 0
        self.steals = 0

    def pick(self, worker: int, pending: deque[list[Task]]) -> list[Task] | None:
        """Choose (and remove) the best pending chunk for *worker*."""
        if not pending:
            return None
        unowned = -1
        for i, chunk in enumerate(pending):
            did = chunk[0].data_id
            if self.owner.get(did) == worker:
                del pending[i]
                self._account(worker, did, len(chunk))
                return chunk
            if unowned < 0 and did not in self.owner:
                unowned = i
        if unowned >= 0:
            chunk = pending[unowned]
            del pending[unowned]
            did = chunk[0].data_id
            self.owner[did] = worker
            self._account(worker, did, len(chunk))
            return chunk
        # Every pending chunk belongs to some busy worker: steal the
        # oldest rather than idle.  Ownership transfers with the steal.
        chunk = pending.popleft()
        did = chunk[0].data_id
        self.owner[did] = worker
        self.steals += 1
        self._account(worker, did, len(chunk))
        return chunk

    def _account(self, worker: int, data_id: str, n_tasks: int) -> None:
        # Per-task accounting: the first task on a worker that has not
        # loaded the datum pays the load (miss); everything after rides
        # the warm copy (hits).
        if data_id in self.loaded[worker]:
            self.hits += n_tasks
        else:
            self.misses += 1
            self.hits += n_tasks - 1
            self.loaded[worker].add(data_id)

    def forget_worker(self, worker: int) -> None:
        """The worker's process died: its warm data died with it."""
        self.loaded.pop(worker, None)


class TaskQueue:
    """Run tasks through a callable with retries and locality placement.

    Parameters
    ----------
    n_workers:
        Worker count; 1 forces the serial engine (with a warning when a
        parallel engine was requested — the downgrade used to be silent).
    engine:
        One of :data:`ENGINES`: ``"serial"``, ``"thread"``, ``"process"``
        or ``"cluster"``.
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
        Per-task deadline in seconds.  On the thread engine a watchdog
        abandons overdue executions; on the process engine an overdue
        group triggers a pool recycle (hung worker processes are
        terminated).  ``None`` (default) disables supervision.  The
        serial engine enforces the deadline in-line with a SIGALRM
        guard — main thread only; elsewhere it degrades to a no-op with
        a one-time warning.
    max_pool_rebuilds:
        Consecutive no-progress pool rebuilds tolerated before the run
        fails with a diagnosis (process engine only).
    chunk_size:
        Process-engine dispatch granularity: tasks per chunk within a
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
        lock_witness=None,
        cluster: ClusterSpec | None = None,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        self.n_workers = max(1, int(n_workers))
        self.requested_engine = engine
        self.cluster = cluster
        if engine == "cluster":
            # Resolve the deployment *now*, not after the caller has
            # paid for dataset init: no launcher environment, no MPI
            # world, and spawning disabled means there is no cluster to
            # run on — downgrade to the process engine with a warning
            # (and let QueueStats stay truthful via requested_engine).
            self.cluster = cluster or ClusterSpec()
            if self.cluster.resolve() is None:
                warnings.warn(
                    "engine 'cluster' found no launcher environment, no "
                    "usable MPI world, and spawning is disabled; falling "
                    "back to 'process'",
                    stacklevel=2,
                )
                engine = "process"
        # A single-worker parallel engine is pointless *except* for the
        # cluster engine, whose one worker is still a separate rank with
        # its own shard (the 1-rank cell of a scaling sweep).
        if self.n_workers == 1 and engine not in ("serial", "cluster"):
            warnings.warn(
                f"engine {engine!r} requires more than one worker; "
                "falling back to 'serial'",
                stacklevel=2,
            )
        self.engine = engine if (self.n_workers > 1 or engine in ("serial", "cluster")) else "serial"
        self.retry_policy = retry_policy or RetryPolicy(max_retries=int(max_retries))
        #: Kept in sync with the policy for backward compatibility.
        self.max_retries = self.retry_policy.max_retries
        self.task_timeout = None if task_timeout is None else float(task_timeout)
        self.max_pool_rebuilds = max(0, int(max_pool_rebuilds))
        if chunk_size is not None and int(chunk_size) < 1:
            raise ValueError("chunk_size must be >= 1 (or None for whole groups)")
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        #: Optional :class:`~repro.analysis.witness.LockOrderWitness`.
        #: Test-only instrumentation: when set, the threaded engine's
        #: condition lock is wrapped so stress suites can assert the
        #: queue↔checkpoint lock graph stays acyclic.  ``None`` (the
        #: default) adds zero overhead on the hot path.
        self.lock_witness = lock_witness

    def run(
        self,
        tasks: list[Task],
        task_fn: Callable[[Task, int], dict[str, Any]] | None,
        *,
        on_result: Callable[[TaskResult], None] | None = None,
        worker_init: Callable[[], Callable[[Task, int], dict[str, Any]]] | None = None,
        chaos=None,
        merge_store=None,
    ) -> tuple[list[TaskResult], QueueStats]:
        """Execute all tasks; returns (results, stats).

        ``task_fn(task, worker)`` produces the result payload; raising
        triggers a retry (on another worker while one exists), then a
        recorded failure.  ``worker_init`` is an optional zero-argument
        factory returning the task function: the process engine calls it
        once per worker process (per-worker dataset/compressor setup)
        instead of pickling ``task_fn``; the serial/thread engines call
        it once up front when ``task_fn`` is None.

        Cluster-engine extras (ignored elsewhere): ``chaos`` is a
        picklable :class:`~repro.bench.faults.ChaosPlan` shipped to the
        worker ranks (each rank binds its own task function — including
        the ``rank_kill`` class, which only makes sense worker-side),
        and ``merge_store`` is the :class:`CheckpointStore` the rank
        shards are folded into when the campaign drains.  Successful
        cluster results carry ``payload=None`` — the payload's home is
        the rank's shard, and it reaches ``merge_store`` via the merge,
        not the ack.
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
        if self.engine == "cluster":
            from .cluster.engine import run_cluster

            return run_cluster(
                self,
                tasks,
                task_fn,
                on_result=on_result,
                worker_init=worker_init,
                chaos=chaos,
                merge_store=merge_store,
            )
        if self.engine == "process":
            return self._run_process(
                tasks, task_fn, on_result=on_result, worker_init=worker_init
            )
        if task_fn is None:
            task_fn = worker_init()
        return self._run_threaded(tasks, task_fn, on_result=on_result)

    # -- serial / thread engines ------------------------------------------------
    def _run_threaded(
        self,
        tasks: list[Task],
        task_fn: Callable[[Task, int], dict[str, Any]],
        *,
        on_result: Callable[[TaskResult], None] | None,
    ) -> tuple[list[TaskResult], QueueStats]:
        policy = self.retry_policy
        scheduler = LocalityScheduler()
        pending: deque[Task] = deque(tasks)  # never-failed tasks
        retry_pending: deque[Task] = deque()  # failed ≥1×, awaiting retry
        attempts: dict[str, int] = defaultdict(int)
        excluded: dict[str, set[int]] = defaultdict(set)
        #: key → monotonic time before which a retry must not run.
        not_before: dict[str, float] = {}
        in_flight = 0
        results: list[TaskResult] = []
        stats = QueueStats(engine=self.engine, requested_engine=self.requested_engine)
        if self.lock_witness is not None:
            cond = threading.Condition(
                self.lock_witness.wrap(name="taskqueue.cond")
            )
        else:
            cond = threading.Condition()
        n_workers = self.n_workers if self.engine == "thread" else 1
        # Hang supervision state (watchdog mode): live executions by a
        # unique id, plus ids the watchdog gave up on — a late result
        # from an abandoned execution is discarded, not double-counted.
        use_watchdog = self.task_timeout is not None and n_workers > 1
        # Serial engine: no second thread exists to watch this one, so
        # the deadline is enforced in-line by a SIGALRM guard instead.
        serial_deadline = (
            self.task_timeout if (self.task_timeout is not None and n_workers == 1) else None
        )
        executing: dict[int, tuple[str, Task, int, float]] = {}
        abandoned: set[int] = set()
        exec_counter = [0]
        stop_watchdog = threading.Event()

        def finish(result: TaskResult) -> None:
            # Called under the lock.
            if on_result is not None:
                t0 = time.perf_counter()
                try:
                    on_result(result)
                except Exception as exc:  # noqa: BLE001 - callback isolation
                    # A failing result sink (e.g. checkpoint write) must
                    # not kill the worker; record the task as failed so
                    # a restart recomputes it.
                    if result.ok:
                        result = TaskResult(
                            result.task,
                            result.worker,
                            error=f"on_result {type(exc).__name__}: {exc}",
                            attempts=result.attempts,
                            status=error_status(exc),
                        )
                stats.checkpoint_seconds += time.perf_counter() - t0
            results.append(result)
            stats.completed += result.ok
            stats.failed += not result.ok
            if result.worker >= 0:
                stats.per_worker[result.worker] = stats.per_worker.get(result.worker, 0) + 1

        def requeue_or_finish(task: Task, worker: int, error: str, status: int) -> None:
            # Called under the lock, after attempts[key] was incremented.
            key = task.key()
            if policy.should_retry(status, attempts[key]):
                stats.retries += 1
                excluded[key].add(worker)
                delay = policy.delay(key, attempts[key])
                if delay > 0.0:
                    not_before[key] = time.monotonic() + delay
                    stats.backoff_seconds += delay
                retry_pending.append(task)
            else:
                if policy.is_permanent(status):
                    stats.quarantined += 1
                finish(
                    TaskResult(
                        task, worker, error=error, attempts=attempts[key], status=status
                    )
                )

        def take(worker: int) -> Task | None:
            # Called under the lock.  Retries first so they are not
            # starved behind the virgin queue; the deque is bounded by
            # the number of distinct failures, so this scan stays small.
            now = time.monotonic()
            for i, task in enumerate(retry_pending):
                key = task.key()
                if not_before.get(key, 0.0) > now:
                    continue
                if worker not in excluded[key]:
                    del retry_pending[i]
                    not_before.pop(key, None)
                    scheduler.note_assigned(worker, task.data_id)
                    return task
            task = scheduler.pick(worker, pending)
            if task is not None:
                return task
            # Only tasks this worker is excluded from (or still backing
            # off) remain.  Take an excluded one anyway *only* when it
            # has failed on every worker — no live worker could honor
            # the exclusion.
            for i, task in enumerate(retry_pending):
                if not_before.get(task.key(), 0.0) > now:
                    continue
                if len(excluded[task.key()]) >= n_workers:
                    del retry_pending[i]
                    not_before.pop(task.key(), None)
                    stats.exclusion_overrides += 1
                    scheduler.note_assigned(worker, task.data_id)
                    return task
            return None

        def backoff_wait_bound() -> float | None:
            # Called under the lock: the soonest a delayed retry becomes
            # runnable, so a waiting worker wakes in time to take it.
            now = time.monotonic()
            bounds = [
                not_before[t.key()] - now
                for t in retry_pending
                if not_before.get(t.key(), 0.0) > now
            ]
            return max(min(bounds), 1e-4) if bounds else None

        def worker_loop(worker: int) -> None:
            nonlocal in_flight
            while True:
                with cond:
                    while True:
                        task = take(worker)
                        if task is not None:
                            in_flight += 1
                            exec_counter[0] += 1
                            exec_id = exec_counter[0]
                            if use_watchdog:
                                executing[exec_id] = (
                                    task.key(), task, worker, time.monotonic()
                                )
                            break
                        if not pending and not retry_pending and in_flight == 0:
                            # Genuinely drained: nothing queued and no
                            # execution that could still fail and requeue.
                            cond.notify_all()
                            return
                        t0 = time.perf_counter()
                        cond.wait(timeout=backoff_wait_bound())
                        stats.queue_wait_seconds += time.perf_counter() - t0
                key = task.key()
                error: str | None = None
                status = int(Status.SUCCESS)
                payload: dict[str, Any] | None = None
                t0 = time.perf_counter()
                try:
                    with _serial_deadline(serial_deadline, key):
                        payload = task_fn(task, worker)
                except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                    error = f"{type(exc).__name__}: {exc}"
                    status = error_status(exc)
                elapsed = time.perf_counter() - t0
                with cond:
                    stats.execute_seconds += elapsed
                    if serial_deadline is not None and status == int(Status.TIMEOUT):
                        stats.timeouts += 1
                    if exec_id in abandoned:
                        # The watchdog already charged this execution as
                        # a timeout and requeued/failed the task; the
                        # worker rejoins the pool and the stale outcome
                        # is dropped.
                        abandoned.discard(exec_id)
                        cond.notify_all()
                        continue
                    executing.pop(exec_id, None)
                    in_flight -= 1
                    attempts[key] += 1
                    if error is not None:
                        requeue_or_finish(task, worker, error, status)
                    else:
                        finish(
                            TaskResult(
                                task, worker, payload=payload, attempts=attempts[key]
                            )
                        )
                    cond.notify_all()

        def watchdog_loop() -> None:
            nonlocal in_flight
            deadline = float(self.task_timeout or 0.0)
            poll = max(min(deadline / 4.0, 0.25), 0.005)
            while not stop_watchdog.wait(poll):
                with cond:
                    now = time.monotonic()
                    for exec_id, (key, task, worker, t0) in list(executing.items()):
                        if now - t0 <= deadline:
                            continue
                        # Abandon: the hung thread cannot be killed, but
                        # the task can be charged, requeued elsewhere,
                        # and its eventual (stale) result discarded.
                        executing.pop(exec_id)
                        abandoned.add(exec_id)
                        in_flight -= 1
                        stats.timeouts += 1
                        attempts[key] += 1
                        requeue_or_finish(
                            task,
                            worker,
                            f"TaskTimeoutError: task exceeded {deadline:g}s deadline",
                            int(Status.TIMEOUT),
                        )
                        cond.notify_all()

        if n_workers == 1:
            worker_loop(0)
        else:
            threads = [
                threading.Thread(target=worker_loop, args=(w,), daemon=True)
                for w in range(n_workers)
            ]
            watchdog = None
            if use_watchdog:
                watchdog = threading.Thread(target=watchdog_loop, daemon=True)
                watchdog.start()
            for t in threads:
                t.start()
            if use_watchdog:
                # A hung worker never returns, so joining it would hang
                # the queue too; wait on the drain condition instead and
                # leave abandoned daemon threads behind.
                with cond:
                    while pending or retry_pending or in_flight:
                        cond.wait(timeout=0.05)
                stop_watchdog.set()
                if watchdog is not None:
                    watchdog.join(timeout=1.0)
                for t in threads:
                    t.join(timeout=0.1)
            else:
                for t in threads:
                    t.join()
        stats.locality_hits = scheduler.stats_hits
        stats.locality_misses = scheduler.stats_misses
        return results, stats

    # -- process engine ----------------------------------------------------------
    def _run_process(
        self,
        tasks: list[Task],
        task_fn: Callable[[Task, int], dict[str, Any]] | None,
        *,
        on_result: Callable[[TaskResult], None] | None,
        worker_init: Callable[[], Callable[[Task, int], dict[str, Any]]] | None,
    ) -> tuple[list[TaskResult], QueueStats]:
        """Fan tasks out to *pinned* worker processes with datum affinity.

        Each worker slot is its own single-process executor, so "worker
        ``w``" names one long-lived OS process — the control a shared
        pool denies.  Work is dispatched in chunks (``chunk_size`` tasks
        of one datum; whole groups by default) routed by an
        :class:`_AffinityMap`: a chunk goes to the worker that owns its
        datum, an unclaimed datum is claimed by the first free worker,
        and a worker with nothing of its own *steals* — ownership moving
        with the steal — rather than idle.  A worker holding a warm datum
        (its entry context, or a cache in its dataset stack) serves
        every later chunk of it without another load.

        Results stream back to the parent, which owns retries and the
        ``on_result`` sink (so e.g. SQLite sees a single writer).

        Pool-level faults (a worker process dying, its executor breaking)
        are *not* charged to tasks: the slot's in-flight chunk is
        requeued as-is, only that slot is rebuilt (the other workers
        keep their warm state), and only consecutive rebuilds without
        any completed chunk count toward ``max_pool_rebuilds`` —
        exceeding it fails the remaining tasks with a diagnosis instead
        of crash-looping or hanging.

        ``worker_init`` (and ``task_fn`` when used directly) must be
        picklable; bound methods carrying open handles are not — pass a
        ``functools.partial`` of a module-level factory instead.
        """
        import multiprocessing as mp
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        policy = self.retry_policy
        stats = QueueStats(engine="process", requested_engine=self.requested_engine)
        results: list[TaskResult] = []
        if not tasks:
            return results, stats
        attempts: dict[str, int] = defaultdict(int)

        def finish(result: TaskResult) -> None:
            if on_result is not None:
                t0 = time.perf_counter()
                try:
                    on_result(result)
                except Exception as exc:  # noqa: BLE001 - callback isolation
                    if result.ok:
                        result = TaskResult(
                            result.task,
                            result.worker,
                            error=f"on_result {type(exc).__name__}: {exc}",
                            attempts=result.attempts,
                            status=error_status(exc),
                        )
                stats.checkpoint_seconds += time.perf_counter() - t0
            results.append(result)
            stats.completed += result.ok
            stats.failed += not result.ok
            if result.worker >= 0:
                stats.per_worker[result.worker] = stats.per_worker.get(result.worker, 0) + 1

        # Group by datum, then cut groups into dispatch chunks.  With the
        # default chunk_size=None a datum is one chunk (max batching);
        # smaller chunks interleave datums across time and exercise the
        # affinity map's routing.
        groups: dict[str, list[Task]] = {}
        for task in tasks:
            groups.setdefault(task.data_id, []).append(task)
        pending_chunks: deque[list[Task]] = deque()
        for group in groups.values():
            if self.chunk_size is None:
                pending_chunks.append(group)
            else:
                for i in range(0, len(group), self.chunk_size):
                    pending_chunks.append(group[i : i + self.chunk_size])

        affinity = _AffinityMap()
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork") if "fork" in methods else mp.get_context()

        class _Slot:
            __slots__ = ("wid", "pool", "fut", "chunk", "perf_submitted",
                         "submitted", "broken")

            def __init__(self, wid: int) -> None:
                self.wid = wid
                self.pool: ProcessPoolExecutor | None = None
                self.fut = None
                self.chunk: list[Task] | None = None
                self.perf_submitted = 0.0
                self.submitted = 0.0
                self.broken = False

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

        slots = [_Slot(wid) for wid in range(self.n_workers)]
        delayed: list[tuple[float, list[Task]]] = []
        last_pool_error = "unknown"
        rebuilds_without_progress = 0
        aborted = False

        def fail_remaining(diagnosis: str) -> None:
            # Pull in-flight chunks too: an aborted campaign must report
            # every task exactly once.
            for slot in slots:
                if slot.fut is not None:
                    pending_chunks.append(slot.chunk)
                    slot.fut = None
                    slot.chunk = None
                    slot.broken = True
            for _, chunk in delayed:
                pending_chunks.append(chunk)
            delayed.clear()
            while pending_chunks:
                chunk = pending_chunks.popleft()
                for task in chunk:
                    finish(
                        TaskResult(
                            task,
                            -1,
                            error=diagnosis,
                            attempts=max(attempts[task.key()], 1),
                            status=int(Status.TASK_FAILED),
                        )
                    )

        def charge_outcomes(slot: _Slot, chunk: list[Task], outcomes) -> None:
            exec_total = 0.0
            wall = time.perf_counter() - slot.perf_submitted
            for task, (wid, payload, error, status, exec_s) in zip(chunk, outcomes):
                exec_total += exec_s
                stats.execute_seconds += exec_s
                key = task.key()
                attempts[key] += 1
                if error is None:
                    finish(
                        TaskResult(task, wid, payload=payload, attempts=attempts[key])
                    )
                elif policy.should_retry(status, attempts[key]):
                    stats.retries += 1
                    # Resubmitted as a single-task chunk; the affinity
                    # map routes it back to the datum's owner, so the
                    # retry usually lands on a warm worker.
                    delay = policy.delay(key, attempts[key])
                    if delay > 0.0:
                        stats.backoff_seconds += delay
                        delayed.append((time.monotonic() + delay, [task]))
                    else:
                        pending_chunks.append([task])
                else:
                    if policy.is_permanent(status):
                        stats.quarantined += 1
                    finish(
                        TaskResult(
                            task, wid, error=error,
                            attempts=attempts[key], status=status,
                        )
                    )
            # Queue wait: turnaround the chunk spent outside its own
            # execution (slot backlog + transfer).
            stats.queue_wait_seconds += max(wall - exec_total, 0.0)

        try:
            while not aborted:
                now = time.monotonic()
                if delayed:
                    still_delayed = []
                    for ready_at, chunk in delayed:
                        if ready_at <= now:
                            pending_chunks.append(chunk)
                        else:
                            still_delayed.append((ready_at, chunk))
                    delayed = still_delayed

                # Recycle broken slots (crash or hang): requeue their
                # chunk uncharged, drop their warm-data claims, rebuild
                # lazily.  Only consecutive no-progress rebuilds count
                # toward the crash-loop cap.
                for slot in slots:
                    if not slot.broken:
                        continue
                    if slot.pool is not None:
                        kill_pool(slot.pool)
                        slot.pool = None
                    if slot.chunk is not None:
                        pending_chunks.append(slot.chunk)
                    slot.fut = None
                    slot.chunk = None
                    slot.broken = False
                    affinity.forget_worker(slot.wid)
                    stats.pool_rebuilds += 1
                    rebuilds_without_progress += 1
                    if rebuilds_without_progress > self.max_pool_rebuilds:
                        fail_remaining(
                            "TaskFailedError: worker processes failed "
                            f"{rebuilds_without_progress} consecutive times without "
                            f"completing any task (last: {last_pool_error}); "
                            "a worker is crash-looping — aborting the campaign"
                        )
                        aborted = True
                        break
                if aborted:
                    break

                # Dispatch: every free slot takes its best-affinity chunk.
                for slot in slots:
                    if slot.fut is not None or not pending_chunks:
                        continue
                    chunk = affinity.pick(slot.wid, pending_chunks)
                    if chunk is None:
                        continue
                    if slot.pool is None:
                        slot.pool = make_pool(slot.wid)
                    try:
                        fut = slot.pool.submit(_process_run_chunk, chunk)
                    except Exception as exc:  # noqa: BLE001 - broken/shut pool
                        last_pool_error = f"{type(exc).__name__}: {exc}"
                        slot.chunk = chunk
                        slot.broken = True
                        continue
                    slot.fut = fut
                    slot.chunk = chunk
                    slot.perf_submitted = time.perf_counter()
                    slot.submitted = time.monotonic()
                if any(slot.broken for slot in slots):
                    continue

                futmap = {slot.fut: slot for slot in slots if slot.fut is not None}
                if not futmap:
                    if delayed:
                        next_ready = min(ready_at for ready_at, _ in delayed)
                        time.sleep(max(next_ready - time.monotonic(), 0.0) + 1e-4)
                        continue
                    if not pending_chunks:
                        break  # drained
                    continue

                bound = 0.1 if (self.task_timeout is not None or delayed) else None
                done, _ = wait(list(futmap), timeout=bound, return_when=FIRST_COMPLETED)

                progressed = False
                for fut in done:
                    slot = futmap[fut]
                    chunk = slot.chunk
                    slot.fut = None
                    slot.chunk = None
                    try:
                        outcomes = fut.result()
                    except BrokenProcessPool as exc:
                        # Slot-level fault: the chunk never reported, so
                        # its tasks are not charged an attempt — they
                        # rerun wholesale once the slot is rebuilt.
                        last_pool_error = f"{type(exc).__name__}: {exc}"
                        slot.chunk = chunk
                        slot.broken = True
                        continue
                    except Exception as exc:  # noqa: BLE001 - chunk-level fault
                        # Attributable to the chunk itself (e.g. an
                        # unpicklable payload): charge the tasks.
                        outcomes = [
                            (slot.wid, None, f"{type(exc).__name__}: {exc}",
                             int(Status.TASK_FAILED), 0.0)
                            for _ in chunk
                        ]
                    progressed = True
                    charge_outcomes(slot, chunk, outcomes)
                if progressed:
                    rebuilds_without_progress = 0

                if self.task_timeout is not None:
                    # Hang detection: a chunk gets one deadline per task
                    # plus one of startup grace; an overrun means a hung
                    # worker process, reclaimable only by recycling that
                    # slot (terminate + rebuild + requeue).
                    now = time.monotonic()
                    for slot in slots:
                        if slot.fut is None or slot.broken:
                            continue
                        chunk = slot.chunk
                        if now - slot.submitted <= self.task_timeout * (len(chunk) + 1):
                            continue
                        retry_chunk: list[Task] = []
                        for task in chunk:
                            key = task.key()
                            attempts[key] += 1
                            stats.timeouts += 1
                            if policy.should_retry(int(Status.TIMEOUT), attempts[key]):
                                stats.retries += 1
                                retry_chunk.append(task)
                            else:
                                finish(
                                    TaskResult(
                                        task,
                                        -1,
                                        error=(
                                            "TaskTimeoutError: chunk exceeded "
                                            f"{self.task_timeout:g}s/task deadline"
                                        ),
                                        attempts=attempts[key],
                                        status=int(Status.TIMEOUT),
                                    )
                                )
                        if retry_chunk:
                            pending_chunks.append(retry_chunk)
                        last_pool_error = "hung worker process (deadline exceeded)"
                        slot.fut = None
                        slot.chunk = None  # already charged above
                        slot.broken = True
            stats.affinity_hits = affinity.hits
            stats.affinity_misses = affinity.misses
            stats.affinity_steals = affinity.steals
            # Mirror into the locality counters so --queue-stats output
            # is comparable across engines (hit = served from a warm
            # worker, miss = a load somewhere paid for it).
            stats.locality_hits = affinity.hits
            stats.locality_misses = affinity.misses
        finally:
            for slot in slots:
                if slot.pool is None:
                    continue
                if slot.broken or slot.fut is not None:
                    kill_pool(slot.pool)
                else:
                    slot.pool.shutdown(wait=True)
        return results, stats


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
