#!/bin/bash
# Generated by predict-bench sbatch: cluster collection.
#SBATCH --job-name=cluster-demo
#SBATCH --ntasks=4
#SBATCH --nodes=2
#SBATCH --time=02:30:00
#SBATCH --partition=batch
#SBATCH --account=csc999
#SBATCH --mem=16G

set -euo pipefail

# Workers find the coordinator (rank 0, on the first node of the
# allocation) through REPRO_CLUSTER_COORD.
COORD_HOST="$(scontrol show hostnames "${SLURM_JOB_NODELIST}" | head -n 1)"
export REPRO_CLUSTER_COORD="${COORD_HOST}:7621"
export REPRO_CLUSTER_WORLD="${SLURM_NTASKS}"

# Every rank runs the same entry point; SLURM_PROCID decides who
# coordinates (rank 0).
srun --export=ALL bash -c '
    export REPRO_CLUSTER_RANK="${SLURM_PROCID}"
    exec predict-bench collect --checkpoint bench.db --engine cluster
'
