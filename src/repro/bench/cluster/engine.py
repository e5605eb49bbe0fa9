"""The rank-0 coordinator: dispatch and supervise.

This is the ``cluster`` engine behind the :class:`TaskQueue` seam —
the multi-node analog of the pinned process engine, driving the same
:class:`~repro.bench.taskledger.TaskLedger` (datum-affinity chunks,
retry charging, uncharged requeue on infrastructure faults, the
crash-loop cap) with worker *ranks* instead of worker processes.  What
lives here is the mechanics:

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
TCP: ``spawn`` forks local worker subprocesses on loopback;
``launched-tcp`` expects an external launcher (``srun``, ``mpirun``) to
have started every rank of the same entry point (rank 0 becomes the
coordinator at ``REPRO_CLUSTER_COORD``, the rest call straight into the
worker loop).  On a launched worker rank :func:`run_cluster` runs the
worker loop and returns an empty result list — so ``mpirun python
script.py`` invoking ``queue.run(...)`` on every rank works
transparently.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import warnings
from typing import Any, Callable

from ..taskledger import TaskLedger
from ..tasks import Task
from .spec import ClusterSpec, parse_hostport
from .transport import RANK_DEAD, TcpCoordinator, TcpWorkerTransport, TransportError
from .worker import run_worker

#: Seconds granted to the stop → bye handshake per campaign (after the
#: work is drained; a rank that cannot say goodbye in this window is
#: abandoned — every result it acked is already charged).
BYE_TIMEOUT = 10.0


def _spawn_worker(rank: int, host: str, port: int) -> subprocess.Popen:
    """Fork one worker-rank subprocess pointed at the coordinator.

    ``sys.path`` is propagated as ``PYTHONPATH`` so the worker can
    unpickle task functions defined in test/benchmark modules the
    installed package does not know about.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.bench.cluster.worker",
            "--host",
            str(host),
            "--port",
            str(port),
            "--rank",
            str(rank),
        ],
        env=env,
    )


def run_cluster(
    queue,
    ledger: TaskLedger,
    tasks: list[Task],
    task_fn: Callable[[Task, int], dict[str, Any]] | None,
    *,
    worker_init: Callable[[], Callable[[Task, int], dict[str, Any]]] | None = None,
    chaos=None,
):
    """Run *tasks* across the cluster described by ``queue.cluster``.

    Returns ``(results, stats)`` like every engine; each result reached
    the ledger's ``on_result`` sink as its ack was charged.
    """
    spec: ClusterSpec = queue.cluster
    mode = spec.resolve()
    if mode is None:  # pragma: no cover - the queue downgrades first
        raise RuntimeError("cluster engine invoked with no resolvable deployment")
    stats = ledger.stats

    # Launched worker rank: serve, then hand back an empty result set —
    # only rank 0 owns results and reporting.
    if spec.is_worker_rank:
        host, port = parse_hostport(spec.coord or "")
        transport = TcpWorkerTransport(
            host, port, spec.rank, connect_timeout=spec.worker_startup_timeout
        )
        try:
            run_worker(transport, rank=spec.rank)
        finally:
            transport.close()
        return ledger.outcome()

    # ---- coordinator side ------------------------------------------------------
    procs: dict[int, subprocess.Popen] = {}
    if mode == "launched-tcp":
        host, port = parse_hostport(spec.coord or "")
        coordinator = TcpCoordinator(host, port)
        worker_ranks = set(range(1, spec.world))
    else:  # spawn
        coordinator = TcpCoordinator()
        worker_ranks = set(range(1, queue.n_workers + 1))
        for rank in sorted(worker_ranks):
            procs[rank] = _spawn_worker(rank, coordinator.host, coordinator.port)

    # Same chunk shape as the process engine, so affinity behaviour is
    # comparable across engines.
    ledger.enqueue(tasks, queue.chunk_size)
    #: rank → monotonic time of its last message (admitted ranks only).
    last_seen: dict[int, float] = {}
    draining = False

    def admit(rank: int) -> None:
        """Initialise a newly connected (or respawned) rank."""
        try:
            coordinator.send(
                rank,
                {
                    "op": "init",
                    "worker_init": worker_init,
                    "task_fn": task_fn,
                    "chaos": chaos,
                    "heartbeat_interval": spec.heartbeat_interval,
                },
            )
        except TransportError:
            return
        last_seen[rank] = time.monotonic()

    def on_rank_death(rank: int, cause: str) -> None:
        del last_seen[rank]
        coordinator.drop_rank(rank)
        proc = procs.pop(rank, None)
        if proc is not None and proc.poll() is None:
            proc.terminate()  # hung rather than dead: reclaim the process
        stats.rank_deaths += 1
        ledger.worker_died(rank, cause)
        if mode == "spawn" and not (ledger.aborted or draining):
            procs[rank] = _spawn_worker(rank, coordinator.host, coordinator.port)
            stats.rank_restarts += 1

    try:
        # ---- rendezvous --------------------------------------------------------
        arrived = coordinator.wait_for_ranks(worker_ranks, spec.worker_startup_timeout)
        missing = worker_ranks - arrived
        if missing:
            warnings.warn(
                f"cluster ranks {sorted(missing)} never reported in "
                f"({spec.worker_startup_timeout:g}s); continuing with "
                f"{len(arrived)} rank(s)",
                stacklevel=2,
            )
        for rank in sorted(arrived):
            admit(rank)
        if not last_seen and not ledger.drained:
            ledger.fail_remaining(
                "TaskFailedError: no cluster worker rank arrived within "
                f"{spec.worker_startup_timeout:g}s — campaign cannot start"
            )

        # ---- dispatch / supervision loop ---------------------------------------
        while not (ledger.aborted or ledger.drained):
            ledger.promote_delayed()

            # Respawned (or late) ranks say hello asynchronously; fold
            # them in as they appear.
            for rank in coordinator.connected_ranks() - last_seen.keys():
                if rank in worker_ranks:
                    admit(rank)

            if not last_seen and not procs:
                ledger.fail_remaining(
                    "TaskFailedError: every cluster worker rank died and "
                    "none can be respawned — aborting the campaign"
                )
                break

            for rank in sorted(last_seen):
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
                if rank not in last_seen:
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
    finally:
        stats.wire_bytes_sent = coordinator.bytes_sent
        stats.wire_bytes_received = coordinator.bytes_received
        coordinator.close()
        for proc in procs.values():
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
    return ledger.outcome()


__all__ = ["BYE_TIMEOUT", "run_cluster"]
