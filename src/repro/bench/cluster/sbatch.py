"""Batch-job generation: an SBATCH script for launched-TCP campaigns.

``predict-bench sbatch`` emits a self-contained SLURM script in which
*every* rank runs the same ``collect`` entry point:

* rank 0 (the first task on the first node) resolves the deployment as
  the coordinator and owns dispatch, supervision, and the checkpoint;
* ranks 1..N-1 (the rank taken from ``SLURM_PROCID``) short-circuit
  into the worker loop — they never pay for dataset initialisation and
  open no database: their results ride the acks to rank 0.

The generator is a pure function of its arguments (no clocks, no
hostnames), so the emitted script is golden-testable byte for byte.
"""

from __future__ import annotations

from typing import Sequence


def generate_sbatch(
    command: str,
    *,
    job_name: str = "predict-bench",
    ntasks: int = 4,
    nodes: int | None = None,
    time_limit: str = "01:00:00",
    partition: str | None = None,
    account: str | None = None,
    coord_port: int = 7621,
    extra_directives: Sequence[str] = (),
) -> str:
    """Render the SBATCH script launching *command* on every rank.

    *command* is the collection invocation **without** an engine
    argument (e.g. ``predict-bench collect --config bench.json``) —
    the script appends ``--engine cluster`` itself so the two halves
    cannot drift apart.  ``ntasks`` counts *all* ranks:
    one coordinator plus ``ntasks - 1`` workers.
    """
    if int(ntasks) < 2:
        raise ValueError(
            "ntasks must be >= 2: rank 0 coordinates, so at least one "
            "more rank is needed to do any work"
        )
    if "'" in command:
        raise ValueError(
            "command must not contain single quotes (it is embedded in a "
            "single-quoted srun payload)"
        )
    lines = [
        "#!/bin/bash",
        "# Generated by predict-bench sbatch: cluster collection.",
        f"#SBATCH --job-name={job_name}",
        f"#SBATCH --ntasks={int(ntasks)}",
    ]
    if nodes is not None:
        lines.append(f"#SBATCH --nodes={int(nodes)}")
    lines.append(f"#SBATCH --time={time_limit}")
    if partition is not None:
        lines.append(f"#SBATCH --partition={partition}")
    if account is not None:
        lines.append(f"#SBATCH --account={account}")
    for directive in extra_directives:
        lines.append(f"#SBATCH {directive}")
    lines += [
        "",
        "set -euo pipefail",
        "",
        "# Workers find the coordinator (rank 0, on the first node of the",
        "# allocation) through REPRO_CLUSTER_COORD.",
        'COORD_HOST="$(scontrol show hostnames "${SLURM_JOB_NODELIST}" | head -n 1)"',
        f'export REPRO_CLUSTER_COORD="${{COORD_HOST}}:{int(coord_port)}"',
        'export REPRO_CLUSTER_WORLD="${SLURM_NTASKS}"',
        "",
        "# Every rank runs the same entry point; SLURM_PROCID decides who",
        "# coordinates (rank 0).",
        "srun --export=ALL bash -c '",
        '    export REPRO_CLUSTER_RANK="${SLURM_PROCID}"',
        f"    exec {command} --engine cluster",
        "'",
        "",
    ]
    return "\n".join(lines)


__all__ = ["generate_sbatch"]
