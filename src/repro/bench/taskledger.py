"""The task ledger: how one task outcome is charged, written once.

Every engine behind :class:`~repro.bench.taskqueue.TaskQueue` (serial,
process, cluster) drives one :class:`TaskLedger` per run.  The engine
owns its *mechanics* — the loop, the worker pools, the transport — and
reports what happened; the ledger owns the *policy*:

* every reported outcome counts one attempt against its task;
* success goes to :meth:`TaskLedger.finish`, which runs the caller's
  ``on_result`` sink in isolation (a failing sink marks the task failed,
  it never kills the run);
* a transient failure is retried as a single-task chunk after the
  policy's seeded backoff; a ``TIMEOUT`` is a transient failure like any
  other, so it backs off too;
* a permanent failure is quarantined on its first attempt;
* a chunk in flight past ``task_timeout * (len(chunk) + 1)`` seconds
  charges each of its tasks one ``TIMEOUT`` attempt
  (:meth:`TaskLedger.charge_overdue`), and the engine kills the worker;
* a worker that dies hands its chunk back *uncharged*, as single-task
  chunks, so one poisonous task cannot hold its chunk-mates hostage;
  ``max_pool_rebuilds`` consecutive deaths without a reported chunk in
  between fail every remaining task exactly once with a diagnosis.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..core.errors import Status, error_status
from .faults import RetryPolicy
from .tasks import Task

#: One task's report from a worker:
#: ``(worker, payload, error, status, execute_seconds)``.
Outcome = tuple[int, "dict[str, Any] | None", "str | None", int, float]


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
    per_worker: dict[int, int] = field(default_factory=dict)
    queue_wait_seconds: float = 0.0
    execute_seconds: float = 0.0
    checkpoint_seconds: float = 0.0
    #: The engine that actually ran (``n_workers=1`` downgrades to
    #: serial) and the engine the caller asked for — so ``--queue-stats``
    #: output is truthful about what executed.
    engine: str = ""
    requested_engine: str = ""
    #: Tasks quarantined on a permanent (non-retriable) failure.
    quarantined: int = 0
    #: Task attempts that ended in a ``TIMEOUT``.
    timeouts: int = 0
    #: Times a process-engine worker slot was torn down and rebuilt
    #: after a crash or a hung worker.
    pool_rebuilds: int = 0
    #: Total backoff delay scheduled before retries, in seconds.
    backoff_seconds: float = 0.0
    #: Worker-pinned affinity accounting (every engine): a hit is a task
    #: dispatched to the worker that already holds its datum, a miss is
    #: a first load, a steal is an idle worker taking over another
    #: worker's datum (ownership transfers with the steal).
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
        """Rank fault-domain + wire counters for reports."""
        tasks = max(self.completed + self.failed, 1)
        return {
            "rank_deaths": self.rank_deaths,
            "rank_restarts": self.rank_restarts,
            "wire_bytes_sent": self.wire_bytes_sent,
            "wire_bytes_received": self.wire_bytes_received,
            "wire_bytes_per_task": (
                (self.wire_bytes_sent + self.wire_bytes_received) / tasks
            ),
        }

    def summary(self) -> dict[str, Any]:
        """The run as one plain mapping: what the runner persists as a
        checkpoint's ``last_run_stats``, what ``report`` renders, and what
        ``--queue-stats`` prints (the cluster counters on that engine only)."""
        return {
            "engine": self.engine,
            "requested_engine": self.requested_engine,
            "completed": self.completed,
            "failed": self.failed,
            "retries": self.retries,
            "stage_summary": self.stage_summary(),
            **self.affinity_summary(),
            **(self.cluster_summary() if self.engine == "cluster" else {}),
        }


class _AffinityMap:
    """Worker-id → datum ownership, the one placement policy.

    Every datum is owned by the worker that first loaded it, and
    dispatch routes that datum's chunks back to the owner; on a miss a
    worker claims a datum *no other worker owns* — without this, N
    workers pulling from a FIFO of N-task-per-datum batches scatter
    every datum across every worker and locality drops to zero exactly
    when it matters most.  An idle
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


class TaskLedger:
    """Results, stats, attempts and the chunk backlog of one run."""

    def __init__(
        self,
        engine: str,
        requested_engine: str,
        policy: RetryPolicy,
        on_result: Callable[[TaskResult], None] | None,
        *,
        task_timeout: float | None,
        max_worker_deaths: int,
    ) -> None:
        self.policy = policy
        self.on_result = on_result
        self.task_timeout = task_timeout
        self.max_worker_deaths = max_worker_deaths
        self.stats = QueueStats(engine=engine, requested_engine=requested_engine)
        self.results: list[TaskResult] = []
        self.attempts: dict[str, int] = defaultdict(int)
        #: Chunks ready to dispatch, and ``(ready_at, chunk)`` retries
        #: still backing off.
        self.pending: deque[list[Task]] = deque()
        self.delayed: list[tuple[float, list[Task]]] = []
        #: worker → ``(chunk, monotonic time it was dispatched)``.
        self.in_flight: dict[int, tuple[list[Task], float]] = {}
        self.affinity = _AffinityMap()
        self.deaths_without_progress = 0
        #: Set by :meth:`fail_remaining`: the engine must stop dispatching.
        self.aborted = False

    # -- backlog -----------------------------------------------------------------
    def enqueue(self, tasks: Iterable[Task], chunk_size: int | None) -> None:
        """Group *tasks* by datum and cut the groups into dispatch chunks
        (``chunk_size=None``: one chunk per datum, maximum batching)."""
        groups: dict[str, list[Task]] = {}
        for task in tasks:
            groups.setdefault(task.data_id, []).append(task)
        for group in groups.values():
            step = chunk_size or len(group)
            for i in range(0, len(group), step):
                self.pending.append(group[i : i + step])

    def promote_delayed(self) -> None:
        """Move retries whose backoff has elapsed onto the backlog."""
        if not self.delayed:
            return
        now = time.monotonic()
        waiting = []
        for ready_at, chunk in self.delayed:
            if ready_at <= now:
                self.pending.append(chunk)
            else:
                waiting.append((ready_at, chunk))
        self.delayed = waiting

    def sleep_until_promotable(self) -> None:
        """Block until the soonest backing-off retry becomes runnable."""
        ready_at = min(ready_at for ready_at, _ in self.delayed)
        time.sleep(max(ready_at - time.monotonic(), 0.0) + 1e-4)

    @property
    def drained(self) -> bool:
        return not (self.pending or self.delayed or self.in_flight)

    def dispatch(self, worker: int) -> list[Task] | None:
        """The best-affinity pending chunk for *worker*, now in flight."""
        chunk = self.affinity.pick(worker, self.pending)
        if chunk is not None:
            self.in_flight[worker] = (chunk, time.monotonic())
        return chunk

    # -- charging ----------------------------------------------------------------
    def finish(self, result: TaskResult) -> None:
        """Report *result* (final for its task) through the sink."""
        stats = self.stats
        if self.on_result is not None:
            t0 = time.perf_counter()
            try:
                self.on_result(result)
            except Exception as exc:  # noqa: BLE001 - callback isolation
                # A failing result sink (e.g. checkpoint write) must not
                # kill the run; record the task as failed so a restart
                # recomputes it.
                if result.ok:
                    result = TaskResult(
                        result.task,
                        result.worker,
                        error=f"on_result {type(exc).__name__}: {exc}",
                        attempts=result.attempts,
                        status=error_status(exc),
                    )
            stats.checkpoint_seconds += time.perf_counter() - t0
        self.results.append(result)
        stats.completed += result.ok
        stats.failed += not result.ok
        if result.worker >= 0:
            stats.per_worker[result.worker] = stats.per_worker.get(result.worker, 0) + 1

    def charge(
        self,
        task: Task,
        worker: int,
        payload: dict[str, Any] | None,
        error: str | None,
        status: int,
    ) -> None:
        """Count one attempt of *task* and decide what happens next."""
        stats = self.stats
        key = task.key()
        self.attempts[key] += 1
        attempts = self.attempts[key]
        if error is None:
            self.finish(TaskResult(task, worker, payload=payload, attempts=attempts))
            return
        stats.timeouts += status == int(Status.TIMEOUT)
        if self.policy.should_retry(status, attempts):
            stats.retries += 1
            delay = self.policy.delay(key, attempts)
            if delay > 0.0:
                stats.backoff_seconds += delay
                self.delayed.append((time.monotonic() + delay, [task]))
            else:
                self.pending.append([task])
            return
        stats.quarantined += self.policy.is_permanent(status)
        self.finish(
            TaskResult(task, worker, error=error, attempts=attempts, status=status)
        )

    def charge_chunk(self, worker: int, outcomes: Iterable[Outcome]) -> None:
        """*worker* reported its in-flight chunk: charge every task.

        The part of the chunk's turnaround not spent executing (slot
        backlog + transfer) is booked as queue wait.
        """
        chunk, submitted = self.in_flight.pop(worker)
        self.deaths_without_progress = 0
        wall = time.monotonic() - submitted
        exec_total = 0.0
        for task, (wid, payload, error, status, exec_s) in zip(chunk, outcomes):
            exec_total += exec_s
            self.charge(task, wid, payload, error, status)
        self.stats.execute_seconds += exec_total
        self.stats.queue_wait_seconds += max(wall - exec_total, 0.0)

    def charge_overdue(self) -> list[int]:
        """Charge a ``TIMEOUT`` attempt to every task of every chunk in
        flight past its deadline (one ``task_timeout`` per task plus one
        of startup grace); returns the workers the engine must kill."""
        if self.task_timeout is None:
            return []
        now = time.monotonic()
        overdue = [
            worker
            for worker, (chunk, submitted) in self.in_flight.items()
            if now - submitted > self.task_timeout * (len(chunk) + 1)
        ]
        for worker in overdue:
            chunk, _ = self.in_flight.pop(worker)
            error = (
                f"TaskTimeoutError: chunk exceeded {self.task_timeout:g}s/task "
                f"deadline on worker {worker}"
            )
            for task in chunk:
                self.charge(task, -1, None, error, int(Status.TIMEOUT))
        return overdue

    def worker_died(self, worker: int, cause: str) -> None:
        """*worker* crashed, hung or vanished: hand its chunk back
        uncharged (the worker failed, not the tasks) and count the death
        toward the crash-loop cap."""
        chunk, _ = self.in_flight.pop(worker, ((), 0.0))
        self.pending.extend([task] for task in chunk)
        self.affinity.forget_worker(worker)
        self.deaths_without_progress += 1
        if self.deaths_without_progress > self.max_worker_deaths:
            self.fail_remaining(
                f"TaskFailedError: workers died {self.deaths_without_progress} "
                f"consecutive times without completing any chunk (last: {cause}); "
                "a worker is crash-looping — aborting the campaign"
            )

    def fail_remaining(self, diagnosis: str) -> None:
        """Abort: report every unfinished task exactly once as failed."""
        self.aborted = True
        self.pending.extend(chunk for chunk, _ in self.in_flight.values())
        self.in_flight.clear()
        self.pending.extend(chunk for _, chunk in self.delayed)
        self.delayed.clear()
        while self.pending:
            for task in self.pending.popleft():
                self.finish(
                    TaskResult(
                        task,
                        -1,
                        error=diagnosis,
                        attempts=max(self.attempts[task.key()], 1),
                        status=int(Status.TASK_FAILED),
                    )
                )

    def outcome(self) -> tuple[list[TaskResult], QueueStats]:
        """``(results, stats)`` with the affinity counters folded in
        (hit = served from a warm worker, miss = a load somewhere paid
        for it)."""
        stats, affinity = self.stats, self.affinity
        stats.affinity_hits = affinity.hits
        stats.affinity_misses = affinity.misses
        stats.affinity_steals = affinity.steals
        return self.results, stats
