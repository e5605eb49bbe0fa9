"""The worker-rank loop: execute task batches, persist to the local shard.

One process per rank.  The loop takes any object with the
:class:`~repro.bench.cluster.transport.TcpWorkerTransport` ``send`` /
``recv`` surface (the tests script one in-process) and is deliberately
dumb: the
coordinator owns scheduling, retries, and fault charging; the worker
owns exactly two things —

* **execution** — run each task of a batch through the (chaos-wrapped)
  task function;
* **durability** — every payload lands in this rank's own SQLite shard
  and is *flushed before the result ack is sent*.  Durable-before-ack is
  the invariant the zero-lost-tasks guarantee rests on: if the rank dies
  after the flush but before the ack, the coordinator requeues the batch
  and the merge's last-writer-wins folds away the duplicate rows; if it
  dies before the flush, the unacked batch is requeued and recomputed.
  There is no window in which the coordinator believes a task is done
  while no shard holds its payload.

Successful outcomes ship *without* their payloads — the payload's home
is the shard, and it reaches the primary store via the rank-0 merge, not
the control plane.  This keeps wire bytes per task flat no matter how
fat the metrics payloads get.

The ``rank_kill`` chaos class fires here, worker-side: a selected task
``os._exit``\\ s the whole rank before executing — no flush, no ack, no
atexit — simulating abrupt node loss.  The plan's once-only marker
(shared ``state_dir``) guarantees the requeued batch does not re-kill
its next host, so a chaos campaign provably drains.

Spawn-mode entry point: ``python -m repro.bench.cluster.worker --host H
--port P --rank R`` (the coordinator launches this with ``PYTHONPATH``
propagated so pickled task functions resolve).
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from typing import Any

from ...core.errors import Status, error_status
from ..checkpoint import CheckpointStore
from .wire import FrameError

#: Exit code of a rank killed by the ``rank_kill`` chaos class (so a
#: supervising test can tell a planned kill from an accidental crash).
RANK_KILL_EXIT = 21

#: Shard write batching.  Mostly moot — the durable-before-ack flush
#: commits every batch anyway — but keeps mid-batch commits cheap when
#: task batches are large.
SHARD_FLUSH_EVERY = 256


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
    function (or the ``worker_init`` factory), the optional chaos plan,
    and this rank's shard path.
    """
    try:
        init = transport.recv()
    except (FrameError, EOFError, OSError):
        return 1
    if not isinstance(init, dict) or init.get("op") != "init":
        raise RuntimeError(f"rank {rank}: expected init, got {init!r}")

    worker_init = init.get("worker_init")
    fn = worker_init() if worker_init is not None else init["task_fn"]
    chaos = init.get("chaos")
    if chaos is not None:
        chaos = chaos.bind(fn)
        fn = chaos

    completed = 0
    failed = 0
    execute_seconds = 0.0
    stop_hb = threading.Event()
    heartbeat = threading.Thread(
        target=_heartbeat_loop,
        args=(transport, float(init["heartbeat_interval"]), stop_hb),
        daemon=True,
    )
    try:
        with CheckpointStore(
            init["shard_path"], flush_every=int(init.get("flush_every", SHARD_FLUSH_EVERY))
        ) as store:
            heartbeat.start()
            while True:
                try:
                    msg = transport.recv()
                except (FrameError, EOFError, OSError):
                    return 1  # coordinator gone: nothing left to serve
                op = msg.get("op")
                if op == "run":
                    outcomes: list[tuple] = []
                    for task in msg["tasks"]:
                        key = task.key()
                        if chaos is not None and chaos.fire_rank_kill(key):
                            # Abrupt node loss: no flush, no ack.  The
                            # coordinator's heartbeat/EOF supervision
                            # requeues this batch; the once-only marker
                            # keeps the next host alive.
                            os._exit(RANK_KILL_EXIT)
                        t0 = time.perf_counter()
                        try:
                            payload = fn(task, rank)
                        except Exception as exc:  # noqa: BLE001 - fault isolation boundary
                            elapsed = time.perf_counter() - t0
                            error = f"{type(exc).__name__}: {exc}"
                            status = error_status(exc)
                            store.record_failure(
                                key, error, status=status, origin=f"rank{rank}"
                            )
                            outcomes.append((rank, None, error, status, elapsed))
                            failed += 1
                        else:
                            elapsed = time.perf_counter() - t0
                            store.put(
                                key,
                                payload,
                                compressor_hash=task.compressor_hash(),
                                dataset_hash=task.dataset_hash(),
                                experiment_hash=task.experiment_hash(),
                                replicate=task.replicate,
                            )
                            outcomes.append(
                                (rank, None, None, int(Status.SUCCESS), elapsed)
                            )
                            completed += 1
                        execute_seconds += elapsed
                    # Durable-before-ack: the shard holds every payload of
                    # this batch before the coordinator learns it is done.
                    store.flush()
                    transport.send({"op": "result", "outcomes": outcomes})
                elif op == "stop":
                    stats = _rank_stats(
                        rank, completed, failed, execute_seconds, transport
                    )
                    store.set_meta("last_run_stats", json.dumps(stats))
                    store.flush()
                    try:
                        transport.send({"op": "bye", "stats": stats})
                    except (OSError, ConnectionError):
                        pass  # the shard meta already carries the stats
                    return 0
                # Unknown ops are ignored: a newer coordinator may speak a
                # superset of this vocabulary.
    finally:
        stop_hb.set()
        if heartbeat.is_alive():
            heartbeat.join(timeout=1.0)


def _rank_stats(
    rank: int, completed: int, failed: int, execute_seconds: float, transport
) -> dict[str, Any]:
    return {
        "rank": rank,
        "completed": completed,
        "failed": failed,
        "execute_seconds": execute_seconds,
        "wire_bytes_sent": int(getattr(transport, "bytes_sent", 0)),
        "wire_bytes_received": int(getattr(transport, "bytes_received", 0)),
    }


def main(argv: list[str] | None = None) -> int:
    """Spawn-mode entry point (``python -m repro.bench.cluster.worker``)."""
    parser = argparse.ArgumentParser(description="cluster worker rank")
    parser.add_argument("--host", required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--rank", type=int, required=True)
    ns = parser.parse_args(argv)
    from .transport import TcpWorkerTransport

    transport = TcpWorkerTransport(ns.host, ns.port, ns.rank)
    try:
        return run_worker(transport, rank=ns.rank)
    finally:
        transport.close()


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
