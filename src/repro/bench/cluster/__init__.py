"""Multi-node scale-out: the ``cluster`` collection engine.

The subsystem splits along the coordinator/worker seam:

* :mod:`~repro.bench.cluster.spec` — deployment description and
  environment detection (spawned or launcher-started ranks, both over
  TCP), import-light so the task queue can resolve (and honestly
  downgrade) before dataset initialisation is paid for;
* :mod:`~repro.bench.cluster.wire` + :mod:`~repro.bench.cluster.transport`
  — the length-prefixed checksummed frame codec and the pure-socket TCP
  transport that carries it;
* :mod:`~repro.bench.cluster.worker` — the rank loop: execute batches
  and ack each one with its outcomes, payloads included (a worker rank
  opens no database);
* :mod:`~repro.bench.cluster.engine` — the rank-0 coordinator: datum
  affinity dispatch, heartbeat/EOF rank supervision with uncharged
  requeue and respawn; every acked outcome is charged through the task
  ledger, so results reach the caller's ``on_result`` sink exactly as
  on the other engines;
* :mod:`~repro.bench.cluster.sbatch` — SLURM batch-script generation
  for launched-TCP campaigns (``mpirun``-started ranks need no script:
  the Open MPI/PMI rank variables are read directly).

The engine and worker halves import heavy machinery and are loaded
lazily by :meth:`TaskQueue.run`; this package export surface stays
cheap so ``from repro.bench.taskqueue import TaskQueue`` does not drag
transports in.
"""

from .sbatch import generate_sbatch
from .spec import ClusterSpec, detect_launch_env

__all__ = [
    "ClusterSpec",
    "detect_launch_env",
    "generate_sbatch",
]
