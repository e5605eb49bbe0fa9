"""Cluster deployment description and environment detection.

A :class:`ClusterSpec` answers one question for the ``cluster`` engine:
*how does this process find its peers?*  Ranks always talk over TCP;
two answers exist:

* ``spawn`` — no launcher: the coordinator forks its own worker
  subprocesses on this host and hands them a TCP rendezvous address.
  This is what tests and CI use, and what ``--engine cluster`` means on
  a laptop.
* ``launched-tcp`` — an external launcher (``srun``, ``mpirun``, a
  shell loop) started every rank of the same CLI entry point; the
  environment tells each process its rank and the world size (SLURM,
  Open MPI and PMI variables are all read), and ``REPRO_CLUSTER_COORD``
  or ``--coord`` names the coordinator's ``host:port``.

When neither applies — no launcher environment and spawning disabled —
:meth:`ClusterSpec.resolve` returns ``None`` and the
:class:`~repro.bench.taskqueue.TaskQueue` downgrades to the ``process``
engine with a warning instead of raising after the caller already paid
for dataset initialisation.

This module must stay import-light (no taskqueue/engine imports): the
queue imports it at module scope, while the heavy engine half of the
subsystem is imported lazily at run time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


def _env_int(*names: str) -> int | None:
    for name in names:
        raw = os.environ.get(name)
        if raw is not None and raw.strip().lstrip("-").isdigit():
            return int(raw)
    return None


def detect_launch_env() -> dict[str, object]:
    """Read rank/world/coordinator facts from the launcher environment.

    Recognised, in priority order: the subsystem's own
    ``REPRO_CLUSTER_RANK`` / ``REPRO_CLUSTER_WORLD`` /
    ``REPRO_CLUSTER_COORD`` (what the generated sbatch script exports),
    then SLURM (``SLURM_PROCID`` / ``SLURM_NTASKS``), then the Open MPI
    / PMI rank variables ``mpirun`` sets.
    """
    rank = _env_int("REPRO_CLUSTER_RANK", "SLURM_PROCID",
                    "OMPI_COMM_WORLD_RANK", "PMI_RANK")
    world = _env_int("REPRO_CLUSTER_WORLD", "SLURM_NTASKS",
                     "OMPI_COMM_WORLD_SIZE", "PMI_SIZE")
    coord = os.environ.get("REPRO_CLUSTER_COORD")
    return {"rank": rank, "world": world, "coord": coord}


def parse_hostport(spec: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``; raises ValueError otherwise."""
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected HOST:PORT, got {spec!r}")
    return host, int(port)


@dataclass
class ClusterSpec:
    """How the ``cluster`` engine finds (or creates) its worker ranks.

    Parameters
    ----------
    spawn:
        Allow the coordinator to fork local worker subprocesses when no
        launcher environment is present.  ``False`` turns a
        launcher-less ``--engine cluster`` into a ``process``-engine
        downgrade instead.
    coord:
        ``"host:port"`` TCP rendezvous.  In spawn mode
        ``None`` means an ephemeral port on localhost; in launched mode
        it is required (the sbatch generator exports it).
    heartbeat_interval / heartbeat_timeout:
        Worker liveness cadence and the staleness threshold past which
        the coordinator declares a rank dead and requeues its batch.
    worker_startup_timeout:
        Seconds the coordinator waits for every rank's hello before
        giving up on the missing ones.
    """

    spawn: bool = True
    coord: str | None = None
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 10.0
    worker_startup_timeout: float = 30.0
    #: Filled by :meth:`resolve`: ``"spawn"`` / ``"launched-tcp"`` /
    #: ``None`` (downgrade).
    mode: str | None = field(default=None, repr=False)
    #: Launched-mode identity (rank 0 coordinates; ranks 1..world-1 work).
    rank: int = 0
    world: int = 0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0.0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")

    def resolve(self) -> str | None:
        """Decide (and record) the deployment mode for this process.

        Returns the mode, or ``None`` when no cluster deployment is
        possible — the queue's cue to downgrade.  Idempotent.  Raises
        ValueError when a launched deployment's coordinator address is
        not ``HOST:PORT``, before the caller has built anything.
        """
        if self.mode is not None:
            return self.mode
        env = detect_launch_env()
        if env["rank"] is not None and env["world"] is not None and int(env["world"]) > 1:
            if env["coord"] or self.coord:
                coord = self.coord or str(env["coord"])
                parse_hostport(coord)  # raises before the caller builds anything
                self.mode = "launched-tcp"
                self.rank = int(env["rank"])
                self.world = int(env["world"])
                self.coord = coord
                return self.mode
        if self.spawn:
            self.mode = "spawn"
            self.rank = 0
            return self.mode
        return None

    @property
    def is_worker_rank(self) -> bool:
        """True for a launched rank > 0 (runs the worker loop, not the
        coordinator — and must not pay for dataset initialisation)."""
        return self.resolve() == "launched-tcp" and self.rank > 0


__all__ = [
    "ClusterSpec",
    "detect_launch_env",
    "parse_hostport",
]
