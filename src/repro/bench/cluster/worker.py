"""The worker-rank loop: execute task batches, ack them with their outcomes.

One process per rank.  The loop takes any object with the
:class:`~repro.bench.cluster.transport.TcpWorkerTransport` ``send`` /
``recv`` surface (the tests script one in-process) and is deliberately
dumb: the coordinator owns scheduling, retries, fault charging and the
checkpoint; the worker runs each task of a batch through the task
function its init message carried (chaos-bound by
:meth:`~repro.bench.taskqueue.TaskQueue.run` when the campaign runs
under a plan) and acks the batch with one outcome per task — built by
:func:`~repro.bench.taskledger.outcome_of`, the same
``(worker, payload, error, status, seconds)`` tuple the serial loop
charges, payload included.  A worker rank opens
no database: rank 0 charges the ack through its task ledger and the
campaign's one ``on_result`` sink writes the payload, as on every other
engine.

No work is lost to a dying rank: a batch whose ack never arrives is
requeued by the coordinator and recomputed, and an acked batch is
already rank 0's.

The ``rank_kill`` chaos class fires here, worker-side: before each task
the rank asks the bound plan, and a selected task ``os._exit``\\ s the
whole rank before executing — no ack, no atexit — simulating abrupt
node loss.  The plan's once-only marker (shared ``state_dir``)
guarantees the requeued batch does not re-kill its next host, so a
chaos campaign provably drains.

Every rank enters this loop through
:func:`~repro.bench.cluster.engine.serve_rank`.
"""

from __future__ import annotations

import os
import threading

from ..faults import ChaosPlan
from ..taskledger import outcome_of
from .wire import FrameError

#: Exit code of a rank killed by the ``rank_kill`` chaos class (so a
#: supervising test can tell a planned kill from an accidental crash).
RANK_KILL_EXIT = 21


def _heartbeat_loop(transport, interval: float, stop: threading.Event) -> None:
    """Send liveness beacons until stopped or the coordinator vanishes."""
    while not stop.wait(interval):
        try:
            transport.send({"op": "heartbeat"})
        except (OSError, ConnectionError):
            return  # coordinator gone; the main loop will notice too


def run_worker(transport, *, rank: int) -> int:
    """Serve one rank until the coordinator says stop.

    Returns a process exit code (0 = clean stop, 1 = coordinator lost).
    The first message must be ``init`` — it carries the pickled task
    function and the heartbeat interval.
    """
    try:
        init = transport.recv()
    except (FrameError, EOFError, OSError):
        return 1
    if not isinstance(init, dict) or init.get("op") != "init":
        raise RuntimeError(f"rank {rank}: expected init, got {init!r}")

    fn = init["task_fn"]
    chaos = fn if isinstance(fn, ChaosPlan) else None

    stop_hb = threading.Event()
    heartbeat = threading.Thread(
        target=_heartbeat_loop,
        args=(transport, float(init["heartbeat_interval"]), stop_hb),
        daemon=True,
    )
    heartbeat.start()
    try:
        while True:
            try:
                msg = transport.recv()
            except (FrameError, EOFError, OSError):
                return 1  # coordinator gone: nothing left to serve
            op = msg.get("op")
            if op == "run":
                outcomes: list[tuple] = []
                for task in msg["tasks"]:
                    if chaos is not None and chaos.fire_rank_kill(task.key()):
                        # Abrupt node loss: no ack.  The coordinator's
                        # heartbeat/EOF supervision requeues this batch;
                        # the once-only marker keeps the next host alive.
                        os._exit(RANK_KILL_EXIT)
                    outcomes.append(outcome_of(fn, task, rank))
                transport.send({"op": "result", "outcomes": outcomes})
            elif op == "stop":
                try:
                    transport.send({"op": "bye"})
                except (OSError, ConnectionError):
                    pass  # the coordinator stops waiting for byes on its own
                return 0
            # Unknown ops are ignored: a newer coordinator may speak a
            # superset of this vocabulary.
    finally:
        stop_hb.set()
        heartbeat.join(timeout=1.0)

