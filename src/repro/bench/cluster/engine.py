"""The rank-0 coordinator: dispatch and supervise.

This is the coordinator of both parallel engines behind the
:class:`TaskQueue` seam, ``process`` and ``cluster``: it drives the
:class:`~repro.bench.taskledger.TaskLedger` (datum-affinity chunks,
retry charging, uncharged requeue on infrastructure faults, the
crash-loop cap) with worker *ranks*.  What lives here is the mechanics:

* **dispatch** — every idle rank takes the ledger's best-affinity chunk
  over the transport;
* **supervision** — a rank is declared dead on connection loss (TCP
  EOF), heartbeat staleness, or a chunk overrunning its deadline; the
  ledger takes its in-flight chunk back and, in spawn mode, the rank is
  respawned until the ledger's crash-loop cap aborts the campaign.

Results take the one path every engine shares: a rank acks each batch
with its outcomes, payloads included, and the coordinator charges them
through the ledger, whose ``on_result`` sink (the runner's checkpoint
write) runs here on rank 0 — the single SQLite writer.

Deployment modes (decided by :meth:`ClusterSpec.resolve`), both over
TCP: ``spawn`` starts local ranks as :mod:`multiprocessing` children
(forked where the platform can) on loopback — what the ``process``
engine always does; ``launched-tcp`` expects an external launcher
(``srun``, ``mpirun``) to have started every rank of the same entry
point (rank 0 becomes the coordinator at ``REPRO_CLUSTER_COORD``, the
rest call straight into the worker loop).  On a launched worker rank
:func:`run_cluster` runs the worker loop and returns an empty result
list — so ``mpirun python script.py`` invoking ``queue.run(...)`` on
every rank works transparently.

A forked rank uses nothing it inherited (it opens its own connection and
receives its task function pickled), and the coordinator hangs up every
socket it holds, so no descriptor copy in a rank keeps one alive.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import warnings
from typing import Any, Callable

from ...core.lifetime import exit_with_parent
from ..taskledger import TaskLedger
from ..tasks import Task
from .spec import ClusterSpec, parse_hostport
from .transport import RANK_DEAD, TcpCoordinator, TcpWorkerTransport, TransportError
from .worker import run_worker

#: Seconds granted to the stop → bye handshake per campaign (after the
#: work is drained; a rank that cannot say goodbye in this window is
#: terminated — every result it acked is already charged).
BYE_TIMEOUT = 10.0


def serve_rank(host: str, port: int, rank: int, connect_timeout: float) -> int:
    """Connect to the coordinator at ``host:port`` as *rank* and serve
    it until it says stop; returns :func:`run_worker`'s exit code."""
    transport = TcpWorkerTransport(host, port, rank, connect_timeout=connect_timeout)
    try:
        return run_worker(transport, rank=rank)
    finally:
        transport.close()


def _local_rank(host: str, port: int, rank: int, connect_timeout: float) -> None:
    """Target of a spawn-mode rank.  Its coordinator's EOF is only read
    between batches, so a rank in the middle of a long task watches its
    parent itself rather than outlive a killed campaign."""
    exit_with_parent()
    serve_rank(host, port, rank, connect_timeout)


def _stop_rank(proc: multiprocessing.process.BaseProcess) -> None:
    """Terminate (if still running) and reap a local rank."""
    if proc.is_alive():
        proc.terminate()
    proc.join(5.0)
    if proc.is_alive():
        proc.kill()
        proc.join()


def run_cluster(
    spec: ClusterSpec,
    n_ranks: int,
    ledger: TaskLedger,
    tasks: list[Task],
    task_fn: Callable[[Task, int], dict[str, Any]] | None,
):
    """Run *tasks* on the ranks *spec* describes (*n_ranks* local ones
    in spawn mode), one chunk per datum.

    Every rank's init message carries *task_fn* — chaos-bound already
    when the campaign runs under a plan — as its one task function, so
    it must pickle; one that does not fails the run before any rank
    starts.

    Returns ``(results, stats)`` like every engine; each result reached
    the ledger's ``on_result`` sink as its ack was charged.
    """
    mode = spec.resolve()
    stats = ledger.stats

    # Launched worker rank: serve, then hand back an empty result set —
    # only rank 0 owns results and reporting.
    if spec.is_worker_rank:
        host, port = parse_hostport(spec.coord or "")
        serve_rank(host, port, spec.rank, spec.worker_startup_timeout)
        return ledger.outcome()

    # ---- coordinator side ------------------------------------------------------
    if mode == "spawn" and not tasks:
        return ledger.outcome()  # nothing to run: start no rank
    try:
        pickle.dumps(task_fn)
    except Exception as exc:  # noqa: BLE001 - any pickling failure
        raise TypeError(f"task function {task_fn!r} does not pickle: {exc}") from exc

    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    procs: dict[int, multiprocessing.process.BaseProcess] = {}
    if mode == "launched-tcp":
        host, port = parse_hostport(spec.coord or "")
        coordinator = TcpCoordinator(host, port)
        worker_ranks = set(range(1, spec.world))
    else:  # spawn
        coordinator = TcpCoordinator()
        worker_ranks = set(range(1, n_ranks + 1))

    def start_rank(rank: int) -> None:
        proc = ctx.Process(
            target=_local_rank,
            args=(coordinator.host, coordinator.port, rank, spec.worker_startup_timeout),
            name=f"rank-{rank}",
        )
        proc.start()
        procs[rank] = proc

    ledger.enqueue(tasks)
    #: rank → monotonic time of its last message (admitted ranks only).
    last_seen: dict[int, float] = {}
    #: Ranks not admitted yet since the campaign started.
    never_arrived = set(worker_ranks)
    said_bye: set[int] = set()
    draining = False

    init = {"op": "init", "task_fn": task_fn, "heartbeat_interval": spec.heartbeat_interval}

    def admit(rank: int) -> None:
        """Initialise a newly connected (or respawned) rank."""
        try:
            coordinator.send(rank, init)
        except TransportError:
            return
        last_seen[rank] = time.monotonic()
        never_arrived.discard(rank)

    def on_rank_death(rank: int, cause: str) -> None:
        del last_seen[rank]
        coordinator.drop_rank(rank)
        proc = procs.pop(rank, None)
        if proc is not None:
            _stop_rank(proc)  # hung rather than dead: reclaim the process
        stats.rank_deaths += 1
        ledger.worker_died(rank, cause)
        if mode == "spawn" and not (ledger.aborted or draining):
            start_rank(rank)
            stats.rank_restarts += 1

    try:
        if mode == "spawn":
            for rank in sorted(worker_ranks):
                start_rank(rank)
        # ---- dispatch / supervision loop ---------------------------------------
        # Ranks are admitted as their hellos arrive.  A rank that has not
        # said hello by the startup deadline is written off (it is still
        # admitted if it turns up later); none by then aborts.
        startup_deadline = time.monotonic() + spec.worker_startup_timeout
        while not (ledger.aborted or ledger.drained):
            ledger.promote_delayed()

            if never_arrived and time.monotonic() >= startup_deadline:
                warnings.warn(
                    f"cluster ranks {sorted(never_arrived)} never reported in "
                    f"({spec.worker_startup_timeout:g}s); continuing with "
                    f"{len(worker_ranks - never_arrived)} rank(s)",
                    stacklevel=2,
                )
                if never_arrived == worker_ranks:
                    ledger.fail_remaining(
                        "TaskFailedError: no cluster worker rank arrived within "
                        f"{spec.worker_startup_timeout:g}s — campaign cannot start"
                    )
                    break
                never_arrived.clear()

            if not (last_seen or procs or never_arrived):
                ledger.fail_remaining(
                    "TaskFailedError: every cluster worker rank died and "
                    "none can be respawned — aborting the campaign"
                )
                break

            # A launcher starts its whole world at once, so dispatch waits
            # for every rank it started (or the deadline) and each takes
            # part; spawned ranks are forked one after another, and each
            # takes work as it arrives.
            assembling = mode == "launched-tcp" and bool(never_arrived)
            for rank in [] if assembling else sorted(last_seen):
                if rank in ledger.in_flight:
                    continue
                chunk = ledger.dispatch(rank)
                if chunk is None:
                    break
                try:
                    coordinator.send(rank, {"op": "run", "tasks": chunk})
                except TransportError as exc:
                    on_rank_death(rank, f"send failed: {exc}")

            event = coordinator.poll(timeout=0.05)
            if event is not None:
                rank, msg = event
                if msg is not RANK_DEAD and msg.get("op") == "hello":
                    # A new, late or respawned rank.
                    if rank in worker_ranks and rank not in last_seen:
                        admit(rank)
                elif rank not in last_seen:
                    pass  # a rank already written off (or never admitted)
                elif msg is RANK_DEAD:
                    on_rank_death(rank, "connection lost")
                else:
                    last_seen[rank] = time.monotonic()
                    # Heartbeats only refresh last_seen; stray byes (a
                    # rank stopping early) are ignored here.
                    if msg.get("op") == "result" and rank in ledger.in_flight:
                        ledger.charge_chunk(rank, msg["outcomes"])

            # Heartbeat staleness: a silent rank is a dead rank.
            now = time.monotonic()
            for rank in sorted(last_seen):
                if now - last_seen[rank] > spec.heartbeat_timeout:
                    on_rank_death(rank, "heartbeat timeout")
            # An overrun chunk is *charged* (the task may itself be the
            # hang), then the rank holding it is killed.
            for rank in ledger.charge_overdue():
                on_rank_death(rank, "hung rank (deadline exceeded)")

        # ---- drain: stop → bye -------------------------------------------------
        draining = True
        awaiting_bye: set[int] = set()
        for rank in sorted(last_seen):
            try:
                coordinator.send(rank, {"op": "stop"})
                awaiting_bye.add(rank)
            except TransportError:
                pass
        deadline = time.monotonic() + BYE_TIMEOUT
        while awaiting_bye and time.monotonic() < deadline:
            event = coordinator.poll(timeout=0.1)
            if event is None:
                continue
            rank, msg = event
            if msg is RANK_DEAD or msg.get("op") == "bye":
                awaiting_bye.discard(rank)
                if msg is not RANK_DEAD:
                    said_bye.add(rank)
    finally:
        stats.wire_bytes_sent = coordinator.bytes_sent
        stats.wire_bytes_received = coordinator.bytes_received
        coordinator.close()
        # A rank that said bye is on its way out; any other (one still
        # connecting, or one respawned as the drain began) is stopped.
        for rank, proc in procs.items():
            if rank in said_bye:
                proc.join(5.0)
            _stop_rank(proc)
    return ledger.outcome()


__all__ = ["BYE_TIMEOUT", "run_cluster", "serve_rank"]
