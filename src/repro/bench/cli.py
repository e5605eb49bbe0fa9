"""``predict-bench`` command-line interface.

Configuration is converted into option structures through the same
introspection path the library uses (§4.3): ``-o key=value`` flags flow
through :func:`repro.core.config.parse_flags`.

Examples::

    predict-bench run --schemes khan2023 jin2022 rahman2023 \
        --compressors sz3 zfp --timesteps 8 --shape 32 32 16 \
        --checkpoint /tmp/bench.db
    predict-bench list-schemes
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Sequence

from ..core.compressor import compressor_registry
from ..dataset.hurricane import HurricaneDataset
from ..predict.scheme import available_schemes
from .checkpoint import CheckpointStore
from .cluster import ClusterSpec, discover_shards, generate_sbatch, merge_shards, merged_run_stats
from .faults import ChaosPlan, RetryPolicy
from .report import format_table2, rows_to_records
from .runner import ExperimentRunner
from .taskqueue import TaskQueue


def _add_drift_flags(sub: argparse.ArgumentParser) -> None:
    """Drift-detection thresholds, shared by ``serve`` and ``loop``."""
    sub.add_argument("--drift-window", type=int, default=64,
                     help="sliding residual window per model")
    sub.add_argument("--drift-min-observations", type=int, default=16,
                     help="windowed residuals required before evaluating drift")
    sub.add_argument("--drift-calibration", type=int, default=32,
                     help="residuals used to calibrate the conformal radius")
    sub.add_argument("--drift-medape", type=float, default=25.0,
                     help="windowed MedAPE (%%) above which drift breaches")
    sub.add_argument("--drift-alpha", type=float, default=0.1,
                     help="conformal miscoverage level the radius targets")
    sub.add_argument("--drift-slack", type=float, default=5.0,
                     help="fire when the miss rate exceeds alpha x slack")
    sub.add_argument("--drift-hysteresis", type=int, default=3,
                     help="consecutive breaching evaluations before firing")


def _drift_config_kwargs(args: argparse.Namespace) -> dict:
    return {
        "window": args.drift_window,
        "min_observations": args.drift_min_observations,
        "calibration": args.drift_calibration,
        "medape_threshold": args.drift_medape,
        "coverage_alpha": args.drift_alpha,
        "coverage_slack": args.drift_slack,
        "hysteresis": args.drift_hysteresis,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predict-bench",
        description="Train and evaluate compression-performance predictors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the Table-2 evaluation")
    run.add_argument("--schemes", nargs="+", default=["khan2023", "jin2022", "rahman2023"])
    run.add_argument("--compressors", nargs="+", default=["sz3", "zfp"])
    run.add_argument("--bounds", nargs="+", type=float, default=[1e-6, 1e-4])
    run.add_argument("--shape", nargs=3, type=int, default=[64, 64, 32])
    run.add_argument("--timesteps", type=int, default=48)
    run.add_argument("--fields", nargs="+", default=None)
    run.add_argument("--folds", type=int, default=10)
    run.add_argument(
        "--protocol",
        choices=["out_of_sample", "in_sample"],
        default="out_of_sample",
        help="out_of_sample groups CV folds by field (the paper's protocol); "
        "in_sample is the best-case variant of future work 1",
    )
    run.add_argument("--workers", type=int, default=1)
    run.add_argument(
        "--engine", choices=["serial", "process"], default="serial",
        help="collection engine; 'process' uses a worker-process pool with "
        "per-worker dataset/compressor initialization",
    )
    run.add_argument(
        "--chunk-size", type=int, default=None,
        help="process-engine dispatch granularity in tasks per datum chunk "
        "(default: whole datum groups)",
    )
    run.add_argument("--checkpoint", default=":memory:")
    run.add_argument(
        "--flush-every", type=int, default=1,
        help="buffer this many checkpoint writes per SQLite commit "
        "(1 = commit each result, the safest; larger batches scale collection)",
    )
    run.add_argument(
        "--flush-interval", type=float, default=None,
        help="also flush the checkpoint every this many seconds of wall "
        "clock (whichever of count/interval trips first); bounds data "
        "loss for sparse campaigns with a large --flush-every",
    )
    run.add_argument(
        "--queue-stats", action="store_true",
        help="print the harness's own per-stage timings "
        "(queue wait / execute / checkpoint) to stderr",
    )
    run.add_argument("--json", action="store_true", help="emit JSON records")
    run.add_argument(
        "--absolute-bounds",
        action="store_true",
        help="interpret bounds as absolute instead of range-relative",
    )
    run.add_argument(
        "--max-retries", type=int, default=2,
        help="extra attempts per task after a transient failure "
        "(permanent failures are quarantined immediately)",
    )
    run.add_argument(
        "--retry-base-delay", type=float, default=0.0,
        help="first-retry backoff in seconds (0 retries immediately); "
        "subsequent retries back off exponentially with seeded jitter",
    )
    run.add_argument(
        "--task-timeout", type=float, default=None,
        help="per-task deadline in seconds (> 0); the serial engine interrupts "
        "an overdue task (SIGALRM), the process engine charges an overdue "
        "chunk a TIMEOUT attempt per task and recycles that worker's slot",
    )
    run.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject seeded faults during collection, e.g. "
        "'crash:0.1,hang:0.05,exception:0.2,corrupt:0.1,sink:0.1' "
        "(bare class name = rate 1.0); after the chaotic pass the run "
        "verifies the checkpoint and re-collects to prove recovery",
    )
    run.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the deterministic chaos plan (same seed + spec "
        "=> same faults on the same tasks)",
    )

    collect = sub.add_parser(
        "collect",
        help="run (or resume) the collection phase only — no evaluation; "
        "the entry point for the multi-node 'cluster' engine (every "
        "launched rank runs this same command; rank 0 coordinates)",
    )
    collect.add_argument("--schemes", nargs="+", default=["khan2023", "jin2022", "rahman2023"])
    collect.add_argument("--compressors", nargs="+", default=["sz3", "zfp"])
    collect.add_argument("--bounds", nargs="+", type=float, default=[1e-6, 1e-4])
    collect.add_argument("--shape", nargs=3, type=int, default=[32, 32, 16])
    collect.add_argument("--timesteps", type=int, default=8)
    collect.add_argument("--fields", nargs="+", default=None)
    collect.add_argument("--absolute-bounds", action="store_true")
    collect.add_argument("--checkpoint", default="bench.db",
                         help="primary checkpoint the rank shards merge into")
    collect.add_argument("--flush-every", type=int, default=32)
    collect.add_argument("--flush-interval", type=float, default=None)
    collect.add_argument("--workers", type=int, default=2,
                         help="worker ranks to spawn (cluster spawn mode) or "
                         "pool size (process engine)")
    collect.add_argument(
        "--engine", choices=["serial", "process", "cluster"], default="cluster",
    )
    collect.add_argument("--chunk-size", type=int, default=None)
    collect.add_argument("--max-retries", type=int, default=2)
    collect.add_argument("--retry-base-delay", type=float, default=0.0)
    collect.add_argument("--task-timeout", type=float, default=None)
    collect.add_argument(
        "--max-pool-rebuilds", type=int, default=5,
        help="consecutive no-progress rank deaths (or pool rebuilds) "
        "tolerated before the campaign aborts with a diagnosis",
    )
    collect.add_argument("--chaos", default=None, metavar="SPEC",
                         help="seeded fault injection, e.g. 'rank_kill:0.1' "
                         "(cluster ranks bind the plan worker-side)")
    collect.add_argument("--chaos-seed", type=int, default=0)
    collect.add_argument(
        "--chaos-state-dir", default=None,
        help="shared directory for once-only injection markers (must be "
        "reachable by every rank; default: a host-local temp dir)",
    )
    collect.add_argument("--queue-stats", action="store_true")
    collect.add_argument(
        "--shard-dir", default=None,
        help="directory for the per-rank checkpoint shards (launched "
        "campaigns need a shared filesystem path; spawn mode defaults to "
        "a temp dir)",
    )
    collect.add_argument("--cluster-backend", choices=["auto", "tcp", "mpi"],
                         default="auto")
    collect.add_argument("--coord", default=None, metavar="HOST:PORT",
                         help="TCP rendezvous for launched campaigns "
                         "(REPRO_CLUSTER_COORD overrides)")
    collect.add_argument("--no-spawn", action="store_true",
                         help="never fork local worker ranks; without a "
                         "launcher environment this downgrades to 'process'")
    collect.add_argument("--heartbeat-interval", type=float, default=0.5)
    collect.add_argument("--heartbeat-timeout", type=float, default=10.0)
    collect.add_argument("--startup-timeout", type=float, default=30.0,
                         help="seconds rank 0 waits for worker hellos")

    sbatch = sub.add_parser(
        "sbatch",
        help="generate a SLURM batch script for a launched-TCP cluster "
        "campaign (every rank runs the given collect command; shard "
        "paths derive from SLURM_PROCID)",
    )
    sbatch.add_argument(
        "collect_command",
        metavar="COMMAND",
        help="collection invocation to run on every rank, without engine/"
        "shard flags — e.g. 'predict-bench collect --checkpoint bench.db'",
    )
    sbatch.add_argument("--job-name", default="predict-bench")
    sbatch.add_argument("--ntasks", type=int, default=4,
                        help="total ranks (1 coordinator + N-1 workers)")
    sbatch.add_argument("--nodes", type=int, default=None)
    sbatch.add_argument("--time", dest="time_limit", default="01:00:00")
    sbatch.add_argument("--partition", default=None)
    sbatch.add_argument("--account", default=None)
    sbatch.add_argument("--shard-dir", default="cluster-shards")
    sbatch.add_argument("--coord-port", type=int, default=7621)
    sbatch.add_argument(
        "--directive", action="append", default=[], metavar="FLAG",
        help="extra raw #SBATCH directive (repeatable)",
    )
    sbatch.add_argument("--output", default=None,
                        help="write the script here instead of stdout")

    report = sub.add_parser(
        "report",
        help="re-evaluate from an existing checkpoint without recollecting "
        "(§4.3: query and partially restore the key state)",
    )
    report.add_argument(
        "checkpoint",
        help="checkpoint database, or a shard *directory* from a cluster "
        "campaign (per-rank shards are merged in memory for the report)",
    )
    report.add_argument("--schemes", nargs="+", default=["khan2023", "jin2022", "rahman2023"])
    report.add_argument("--compressors", nargs="+", default=["sz3", "zfp"])
    report.add_argument("--folds", type=int, default=10)
    report.add_argument("--protocol", choices=["out_of_sample", "in_sample"],
                        default="out_of_sample")
    report.add_argument("--json", action="store_true")
    report.add_argument(
        "--failures", action="store_true",
        help="also print the checkpoint's persistent failure ledger "
        "(task key, error, status, attempts, originating rank)",
    )

    sub.add_parser("list-schemes", help="enumerate registered schemes")
    sub.add_parser("list-compressors", help="enumerate registered compressors")

    publish = sub.add_parser(
        "publish",
        help="fit final models from a checkpoint and publish them to a registry",
    )
    publish.add_argument("checkpoint")
    publish.add_argument("--registry", required=True, help="registry root directory")
    publish.add_argument("--schemes", nargs="+", default=["khan2023", "jin2022", "rahman2023"])
    publish.add_argument("--compressors", nargs="+", default=["sz3", "zfp"])
    publish.add_argument(
        "--bounds", nargs="+", type=float, default=None,
        help="bounds to publish (default: every bound found in the checkpoint)",
    )
    publish.add_argument("--absolute-bounds", action="store_true")
    publish.add_argument(
        "--verify-n", type=int, default=8,
        help="training rows used for the publish-time round-trip proof",
    )

    serve = sub.add_parser(
        "serve", help="serve predictions from a registry over TCP"
    )
    serve.add_argument("--registry", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listening port (0 = pick an ephemeral port)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="most rows one predict_many call may carry")
    serve.add_argument("--max-in-flight", type=int, default=64,
                       help="admission control: concurrent admitted requests")
    serve.add_argument("--max-queue-depth", type=int, default=256,
                       help="admission control: total queued rows before shedding")
    serve.add_argument("--cache-capacity", type=int, default=64,
                       help="warm-model LRU capacity (models)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes; >1 runs a ServeFleet sharing "
                       "the port via SO_REUSEPORT (or port-per-worker fallback)")
    serve.add_argument("--feat-cache", choices=["off", "local", "shared"],
                       default="shared",
                       help="featurization cache tier: off, per-worker local, "
                       "or row files in a directory shared across the fleet")
    serve.add_argument("--feat-cache-dir", default=None,
                       help="directory of the shared tier's row files "
                       "(default: a private temp dir removed at exit); a "
                       "single-process server leaves its rows for the next "
                       "start on the same directory, a fleet sweeps them at stop")
    serve.add_argument("--feat-cache-capacity", type=int, default=1024,
                       help="per-worker L1 entries in the featurization cache")
    serve.add_argument("--feat-cache-bytes", type=int, default=64 * 1024 * 1024,
                       help="byte budget for the shared featurization tier")
    _add_drift_flags(serve)

    loop = sub.add_parser(
        "loop",
        help="continuous learning: drift-triggered recollect → republish → "
        "refresh rollovers against live servers",
    )
    loop.add_argument("checkpoint", help="shared checkpoint database; each "
                      "round's re-collect resumes from it")
    loop.add_argument("--registry", required=True, help="registry root directory")
    loop.add_argument(
        "--servers", nargs="*", default=[], metavar="HOST:PORT",
        help="live prediction servers to poll for drift and refresh after "
        "each publish; with none given, --rounds rollovers run unconditionally",
    )
    loop.add_argument("--rounds", type=int, default=1,
                      help="rollovers to perform before exiting")
    loop.add_argument("--schemes", nargs="+", default=["rahman2023"])
    loop.add_argument("--compressors", nargs="+", default=["sz3"])
    loop.add_argument("--bounds", nargs="+", type=float, default=[1e-4])
    loop.add_argument("--absolute-bounds", action="store_true")
    loop.add_argument("--shape", nargs=3, type=int, default=[16, 16, 8])
    loop.add_argument("--fields", nargs="+", default=None)
    loop.add_argument(
        "--base-timesteps", type=int, default=4,
        help="timesteps in the round-1 campaign",
    )
    loop.add_argument(
        "--timesteps-per-round", type=int, default=1,
        help="extra timesteps each later round adds (the incremental "
        "re-collect; already-checkpointed tasks are not re-run)",
    )
    loop.add_argument("--workers", type=int, default=1)
    loop.add_argument("--engine", choices=["serial", "process"],
                      default="serial")
    loop.add_argument("--verify-n", type=int, default=4,
                      help="rows for the publish-time round-trip proof")
    loop.add_argument(
        "--max-stage-attempts", type=int, default=12,
        help="crash-loop cap: supervised attempts per rollover",
    )
    loop.add_argument(
        "--retry-base-delay", type=float, default=0.05,
        help="first-retry backoff between rollover stage attempts",
    )
    loop.add_argument(
        "--poll-interval", type=float, default=1.0,
        help="seconds between drift polls while nothing has fired",
    )
    loop.add_argument(
        "--max-polls", type=int, default=10_000,
        help="give up after this many idle polls",
    )
    loop.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help="inject seeded loop faults, e.g. "
        "'trainer_kill:0.5,publish_corrupt:0.3,refresh_drop:0.2' "
        "(collection classes like crash/hang compose in the same spec)",
    )
    loop.add_argument("--chaos-seed", type=int, default=0)
    _add_drift_flags(loop)

    query = sub.add_parser(
        "query", help="query a running prediction server"
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, required=True)
    query.add_argument("--key", default=None, help="registry key to query")
    query.add_argument("--scheme", default=None,
                       help="with --compressor/--bound: derive the key from config")
    query.add_argument("--compressor", default=None)
    query.add_argument("--bound", type=float, default=None)
    query.add_argument("--absolute-bounds", action="store_true")
    query.add_argument(
        "--results", default=None, metavar="JSON",
        help="precomputed metric results as a JSON object",
    )
    query.add_argument(
        "--npy", default=None, metavar="PATH",
        help="raw field as a .npy file; the server featurizes it",
    )
    query.add_argument("--stats", action="store_true", help="print server stats")
    query.add_argument("--models", action="store_true", help="list published models")

    gen = sub.add_parser(
        "generate", help="materialise the synthetic Hurricane as .npy files"
    )
    gen.add_argument("output_dir")
    gen.add_argument("--shape", nargs=3, type=int, default=[64, 64, 32])
    gen.add_argument("--timesteps", type=int, default=48)
    gen.add_argument("--fields", nargs="+", default=None)

    lint = sub.add_parser(
        "lint",
        help="run repro-lint (static invariant checks) over source paths",
    )
    lint.add_argument("paths", nargs="*", default=["src"])
    lint.add_argument("--format", choices=("text", "json", "github"), default="text")
    lint.add_argument("--rules", default=None)
    lint.add_argument("--changed", nargs="?", const="HEAD", default=None, metavar="BASE")
    lint.add_argument("--show-suppressed", action="store_true")
    lint.add_argument("--list-rules", action="store_true")
    return parser


def _queue_from_args(args: argparse.Namespace, **extra: Any) -> TaskQueue:
    """The collection queue the ``run``/``collect`` flags describe; a
    value the queue rejects is a usage error (exit 2, like argparse)."""
    try:
        return TaskQueue(
            args.workers,
            args.engine,
            retry_policy=RetryPolicy(
                max_retries=args.max_retries,
                base_delay=args.retry_base_delay,
                seed=args.chaos_seed,
            ),
            task_timeout=args.task_timeout,
            chunk_size=args.chunk_size,
            **extra,
        )
    except ValueError as exc:
        print(f"predict-bench: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def cmd_run(args: argparse.Namespace) -> int:
    dataset = HurricaneDataset(
        shape=tuple(args.shape),
        timesteps=args.timesteps,
        fields=args.fields,
    )
    queue = _queue_from_args(args)
    runner = ExperimentRunner(
        dataset,
        compressors=args.compressors,
        bounds=args.bounds,
        schemes=args.schemes,
        relative_bounds=not args.absolute_bounds,
        store=CheckpointStore(
            args.checkpoint,
            flush_every=args.flush_every,
            flush_interval=args.flush_interval,
        ),
        queue=queue,
        n_folds=args.folds,
        protocol=args.protocol,
    )
    try:
        chaos = None
        if args.chaos:
            chaos = ChaosPlan.from_spec(args.chaos, seed=args.chaos_seed)
        observations, stats, failures = runner.collect(chaos=chaos)
        if chaos is not None:
            # Prove recovery, not just survival: damage the checkpoint as
            # planned, then re-collect — verify() quarantines corrupt rows
            # and the queue recomputes whatever the chaotic pass lost.
            corrupted = chaos.corrupt_checkpoint(runner.store)
            observations, recovery_stats, failures = runner.collect()
            fired = ",".join(
                f"{kind}={n}" for kind, n in chaos.injected_counts().items() if n
            )
            print(
                f"chaos[seed={args.chaos_seed}] injected {fired or 'nothing'} "
                f"corrupted={len(corrupted)} "
                f"recovery: completed={recovery_stats.completed} "
                f"failed={recovery_stats.failed}",
                file=sys.stderr,
            )
        if args.queue_stats:
            stages = " ".join(
                f"{name}={seconds:.3f}s" for name, seconds in stats.stage_summary().items()
            )
            engine = stats.engine or runner.queue.engine
            requested = (
                f" (requested {stats.requested_engine})"
                if stats.requested_engine and stats.requested_engine != engine
                else ""
            )
            print(
                f"queue[{engine}{requested} x{runner.queue.n_workers}] "
                f"{stages} retries={stats.retries} quarantined={stats.quarantined} "
                f"timeouts={stats.timeouts} pool_rebuilds={stats.pool_rebuilds} "
                f"commits={runner.store.commit_count} "
                f"affinity={stats.affinity_hit_rate:.0%} steals={stats.affinity_steals}",
                file=sys.stderr,
            )
        for failure in failures:
            print(
                f"failed[{failure.status}] {failure.task.key()} "
                f"after {failure.attempts} attempt(s): {failure.error}",
                file=sys.stderr,
            )
        rows = runner.table2(observations)
        if args.json:
            print(json.dumps(rows_to_records(rows), indent=2))
        else:
            print(
                format_table2(
                    rows,
                    title="Hurricane performance results",
                    harness=stats,
                )
            )
    finally:
        runner.close()
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    """Collection only: run (or resume) a campaign into the checkpoint.

    With ``--engine cluster`` this is the symmetric multi-node entry
    point: a launched worker rank (``SLURM_PROCID`` / ``MPI`` rank > 0)
    short-circuits into the worker loop — no dataset initialisation, no
    primary-store access — while rank 0 coordinates, merges the shards
    into ``--checkpoint``, and prints the campaign summary.  On a
    laptop (no launcher) the coordinator simply spawns local worker
    ranks over loopback TCP.
    """
    cluster = None
    if args.engine == "cluster":
        cluster = ClusterSpec(
            backend=args.cluster_backend,
            spawn=not args.no_spawn,
            shard_dir=args.shard_dir,
            coord=args.coord,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            worker_startup_timeout=args.startup_timeout,
        )
        if cluster.is_worker_rank:
            queue = TaskQueue(args.workers, "cluster", cluster=cluster)
            queue.run([], None)
            return 0
    queue = _queue_from_args(
        args, max_pool_rebuilds=args.max_pool_rebuilds, cluster=cluster
    )
    dataset = HurricaneDataset(
        shape=tuple(args.shape), timesteps=args.timesteps, fields=args.fields
    )
    store = CheckpointStore(
        args.checkpoint,
        flush_every=args.flush_every,
        flush_interval=args.flush_interval,
    )
    runner = ExperimentRunner(
        dataset,
        compressors=args.compressors,
        bounds=args.bounds,
        schemes=args.schemes,
        relative_bounds=not args.absolute_bounds,
        store=store,
        queue=queue,
    )
    chaos = None
    if args.chaos:
        chaos = ChaosPlan.from_spec(
            args.chaos, seed=args.chaos_seed, state_dir=args.chaos_state_dir
        )
    try:
        observations, stats, failures = runner.collect(chaos=chaos)
        for failure in failures:
            origin = f" on rank{failure.worker}" if failure.worker > 0 else ""
            print(
                f"failed[{failure.status}] {failure.task.key()} "
                f"after {failure.attempts} attempt(s){origin}: {failure.error}",
                file=sys.stderr,
            )
        engine = stats.engine or queue.engine
        requested = (
            f" (requested {stats.requested_engine})"
            if stats.requested_engine and stats.requested_engine != engine
            else ""
        )
        print(
            f"collected {len(observations)} observation(s) into "
            f"{args.checkpoint} [{engine}{requested}]: "
            f"completed={stats.completed} failed={stats.failed} "
            f"retries={stats.retries}"
        )
        if engine == "cluster":
            cs = stats.cluster_summary()
            print(
                f"cluster: shards_merged={cs['shards_merged']} "
                f"merge_replaced={cs['merge_replaced']} "
                f"merge_quarantined={cs['merge_quarantined']} "
                f"rank_deaths={cs['rank_deaths']} "
                f"rank_restarts={cs['rank_restarts']} "
                f"wire_bytes_per_task={cs['wire_bytes_per_task']:.0f}"
            )
        if args.queue_stats:
            stages = " ".join(
                f"{name}={seconds:.3f}s"
                for name, seconds in stats.stage_summary().items()
            )
            print(
                f"queue[{engine}{requested} x{queue.n_workers}] {stages} "
                f"quarantined={stats.quarantined} timeouts={stats.timeouts} "
                f"commits={store.commit_count}",
                file=sys.stderr,
            )
        if chaos is not None:
            fired = ",".join(
                f"{kind}={n}" for kind, n in chaos.injected_counts().items() if n
            )
            print(
                f"chaos[seed={args.chaos_seed}] injected {fired or 'nothing'}",
                file=sys.stderr,
            )
        return 0 if stats.failed == 0 else 1
    finally:
        runner.close()
        store.close()


def cmd_sbatch(args: argparse.Namespace) -> int:
    """Emit the SLURM batch script for a launched cluster campaign."""
    script = generate_sbatch(
        args.collect_command,
        job_name=args.job_name,
        ntasks=args.ntasks,
        nodes=args.nodes,
        time_limit=args.time_limit,
        partition=args.partition,
        account=args.account,
        shard_dir=args.shard_dir,
        coord_port=args.coord_port,
        extra_directives=args.directive,
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(script)
        os.chmod(args.output, 0o755)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(script)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Rebuild the evaluation tables from checkpointed observations only.

    The collection phase — the expensive, fault-prone part — is not
    re-run: every payload in the database is loaded ("partially
    restored") and the k-fold evaluation replays over it.  Useful after
    a long campaign to try different fold counts, protocols, or scheme
    subsets without touching the metrics.

    Pointing it at a *directory* reports on a cluster campaign's shard
    set directly: the per-rank shards merge into an in-memory store
    (checksum-verified, last-writer-wins — the same fold the
    coordinator performs), per-rank run stats combine into one harness
    view, and ``--failures`` shows which rank recorded each entry.
    """
    from ..dataset.synthetic import SyntheticDataset

    shards = None
    if os.path.isdir(args.checkpoint):
        shards = discover_shards(args.checkpoint)
        if not shards:
            print(
                f"directory {args.checkpoint!r} holds no shard-*.db files",
                file=sys.stderr,
            )
            return 1
        store = CheckpointStore(":memory:")
        merge_report = merge_shards(store, shards)
        print(merge_report.summary(), file=sys.stderr)
    else:
        store = CheckpointStore(args.checkpoint)
    try:
        if args.failures:
            ledger = store.failures()
            if not ledger:
                print("no recorded failures", file=sys.stderr)
            for entry in ledger:
                origin = f" on {entry['origin']}" if entry.get("origin") else ""
                print(
                    f"failed[{entry['status']}] {entry['key']} "
                    f"after {entry['attempts']} attempt(s){origin}: "
                    f"{entry['error']}",
                    file=sys.stderr,
                )
        observations = store.query()
        if not observations:
            print(f"checkpoint {args.checkpoint!r} holds no observations")
            return 1
        # The runner only needs a dataset for collection; evaluation works
        # purely from the stored observations, so an empty stand-in suffices.
        runner = ExperimentRunner(
            SyntheticDataset([]),
            compressors=args.compressors,
            schemes=args.schemes,
            store=store,
            n_folds=args.folds,
            protocol=args.protocol,
        )
        rows = runner.table2(observations)
        # The collection pass persisted its harness statistics (stage
        # timings, affinity counters) with the campaign; surface them so a
        # report from the checkpoint alone tells the whole story.  A shard
        # directory instead folds every rank's stats into one campaign view.
        harness = None
        if shards is not None:
            harness = merged_run_stats(shards)
        else:
            raw_stats = store.get_meta("last_run_stats")
            if raw_stats is not None:
                try:
                    harness = json.loads(raw_stats)
                except ValueError:
                    harness = None
        if args.json:
            print(
                json.dumps(
                    {"rows": rows_to_records(rows), "harness": harness}, indent=2
                )
            )
        else:
            print(
                format_table2(
                    rows,
                    title=f"Report from {args.checkpoint} ({len(observations)} observations)",
                    harness=harness,
                )
            )
        return 0
    finally:
        store.close()


def cmd_publish(args: argparse.Namespace) -> int:
    """Fit final models from checkpointed observations and publish them."""
    from ..dataset.synthetic import SyntheticDataset
    from ..serve import ModelRegistry

    store = CheckpointStore(args.checkpoint)
    try:
        observations = store.query()
        if not observations:
            print(f"checkpoint {args.checkpoint!r} holds no observations")
            return 1
        bounds = args.bounds
        if bounds is None:
            bounds = sorted(
                {float(o["bound"]) for o in observations if o.get("bound") is not None}
            )
        runner = ExperimentRunner(
            SyntheticDataset([]),
            compressors=args.compressors,
            bounds=bounds,
            schemes=args.schemes,
            relative_bounds=not args.absolute_bounds,
            store=store,
        )
        registry = ModelRegistry(args.registry)
        receipts = runner.publish(registry, observations, verify_n=args.verify_n)
        for receipt in receipts:
            m = receipt.manifest
            print(
                f"published {m['scheme']} / {m['compressor']} @ "
                f"{m['compressor_options'].get('pressio:abs'):g} -> "
                f"{receipt.key[:12]}…/{receipt.version} "
                f"({m['meta'].get('n_observations')} obs)"
            )
        if not receipts:
            print("nothing published (no usable observations)", file=sys.stderr)
            return 1
        return 0
    finally:
        store.close()


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the prediction server (or a multi-worker fleet) until interrupted."""
    import asyncio

    from ..serve import (
        DriftConfig,
        FeaturizationCache,
        ModelRegistry,
        PredictionServer,
        ServeFleet,
    )

    drift_config = DriftConfig(**_drift_config_kwargs(args))
    if args.workers > 1:
        fleet = ServeFleet(
            args.registry,
            args.workers,
            host=args.host,
            port=args.port,
            feat_cache=args.feat_cache,
            feat_cache_dir=args.feat_cache_dir,
            feat_cache_capacity=args.feat_cache_capacity,
            feat_cache_bytes=args.feat_cache_bytes,
            drift_config=drift_config,
            server_options={
                "max_batch": args.max_batch,
                "max_in_flight": args.max_in_flight,
                "max_queue_depth": args.max_queue_depth,
                "cache_capacity": args.cache_capacity,
            },
        )
        with fleet:
            mode = "SO_REUSEPORT" if fleet.reuse_port else "port-per-worker"
            for host, port in fleet.data_addresses():
                print(
                    f"serving {args.registry} on {host}:{port} "
                    f"({fleet.workers} workers, {mode}, "
                    f"feat-cache={args.feat_cache})",
                    flush=True,
                )
            try:
                while True:
                    time.sleep(1.0)
            except KeyboardInterrupt:
                pass
        return 0

    feat_cache = None
    if args.feat_cache == "local":
        feat_cache = FeaturizationCache(capacity=args.feat_cache_capacity)
    elif args.feat_cache == "shared":
        # One process: the shared tier is only worth its file writes when
        # --feat-cache-dir names a stable directory, whose rows the next
        # server started on it reads back (nothing sweeps them here);
        # with no directory "local" semantics are what's meant.
        if args.feat_cache_dir is not None:
            feat_cache = FeaturizationCache(
                capacity=args.feat_cache_capacity,
                shared_dir=args.feat_cache_dir,
                shared_capacity_bytes=args.feat_cache_bytes,
            )
        else:
            feat_cache = FeaturizationCache(capacity=args.feat_cache_capacity)

    server = PredictionServer(
        ModelRegistry(args.registry),
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_in_flight=args.max_in_flight,
        max_queue_depth=args.max_queue_depth,
        cache_capacity=args.cache_capacity,
        drift_config=DriftConfig(**_drift_config_kwargs(args)),
        feat_cache=feat_cache,
    )

    async def _serve() -> None:
        await server.start()
        print(f"serving {args.registry} on {server.host}:{server.port}", flush=True)
        await server.serve_until_stopped()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_loop(args: argparse.Namespace) -> int:
    """Run the continuous-learning loop: drift → retrain → refresh."""
    from ..serve import ContinuousLearner, ModelRegistry, RolloverFailedError

    servers = []
    for spec in args.servers:
        host, _, port = spec.rpartition(":")
        if not host or not port.isdigit():
            print(f"--servers wants HOST:PORT, got {spec!r}", file=sys.stderr)
            return 2
        servers.append((host, int(port)))
    chaos = None
    if args.chaos:
        chaos = ChaosPlan.from_spec(args.chaos, seed=args.chaos_seed)
    store = CheckpointStore(args.checkpoint)

    def runner_factory(round_no: int) -> ExperimentRunner:
        dataset = HurricaneDataset(
            shape=tuple(args.shape),
            timesteps=args.base_timesteps
            + max(round_no - 1, 0) * args.timesteps_per_round,
            fields=args.fields,
        )
        return ExperimentRunner(
            dataset,
            compressors=args.compressors,
            bounds=args.bounds,
            schemes=args.schemes,
            relative_bounds=not args.absolute_bounds,
            store=store,
            queue=TaskQueue(args.workers, args.engine),
        )

    learner = ContinuousLearner(
        ModelRegistry(args.registry),
        runner_factory,
        servers=servers,
        retry_policy=RetryPolicy(
            max_retries=args.max_stage_attempts,
            base_delay=args.retry_base_delay,
            seed=args.chaos_seed,
        ),
        max_stage_attempts=args.max_stage_attempts,
        chaos=chaos,
        verify_n=args.verify_n,
        drift_config=_drift_config_kwargs(args),
    )
    try:
        if servers:
            reports = learner.run(
                args.rounds,
                poll_interval=args.poll_interval,
                max_polls=args.max_polls,
            )
        else:
            reports = [
                learner.rollover(round_no)
                for round_no in range(1, args.rounds + 1)
            ]
    except RolloverFailedError as exc:
        print(f"rollover failed: {exc}", file=sys.stderr)
        return 1
    finally:
        store.close()
    for report in reports:
        print(report.summary())
    if chaos is not None:
        fired = ",".join(
            f"{kind}={n}" for kind, n in chaos.injected_counts().items() if n
        )
        print(f"chaos[seed={args.chaos_seed}] injected {fired or 'nothing'}",
              file=sys.stderr)
    return 0 if len(reports) == args.rounds else 1


def cmd_query(args: argparse.Namespace) -> int:
    """One-shot client: stats, model listing, or a prediction."""
    from ..predict.scheme import get_scheme
    from ..serve import PredictionClient, ServerError, registry_key, scheme_params

    with PredictionClient(args.host, args.port) as client:
        if args.stats:
            print(json.dumps(client.stats(), indent=2))
            return 0
        if args.models:
            print(json.dumps(client.models(), indent=2))
            return 0
        key = args.key
        if key is None:
            if not (args.scheme and args.compressor and args.bound is not None):
                print(
                    "query needs --key, or --scheme/--compressor/--bound to "
                    "derive it, or --stats/--models",
                    file=sys.stderr,
                )
                return 2
            scheme = get_scheme(args.scheme)
            key = registry_key(
                scheme.id,
                args.compressor,
                {
                    "pressio:abs": args.bound,
                    "pressio:abs_is_relative": not args.absolute_bounds,
                },
                scheme_params(scheme),
            )
        results = json.loads(args.results) if args.results else None
        data = None
        if args.npy:
            import numpy as np

            data = np.load(args.npy)
        if results is None and data is None:
            print("query needs --results JSON or --npy PATH", file=sys.stderr)
            return 2
        try:
            response = client.predict(key, results=results, data=data)
        except ServerError as exc:
            print(
                json.dumps({"status": exc.server_status, "error": str(exc)}),
                file=sys.stderr,
            )
            return 1
        print(json.dumps(response, indent=2))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    dataset = HurricaneDataset(
        shape=tuple(args.shape), timesteps=args.timesteps, fields=args.fields
    )
    paths = dataset.write_to_directory(args.output_dir)
    print(f"wrote {len(paths)} files under {args.output_dir}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Delegate to repro-lint with the already-parsed options."""
    from ..analysis.cli import main as lint_main

    argv: list[str] = list(args.paths)
    argv += ["--format", args.format]
    if args.rules:
        argv += ["--rules", args.rules]
    if args.changed is not None:
        argv += ["--changed", args.changed]
    if args.show_suppressed:
        argv.append("--show-suppressed")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "collect":
        return cmd_collect(args)
    if args.command == "sbatch":
        return cmd_sbatch(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "publish":
        return cmd_publish(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "loop":
        return cmd_loop(args)
    if args.command == "query":
        return cmd_query(args)
    if args.command == "generate":
        return cmd_generate(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "list-schemes":
        print("\n".join(available_schemes()))
        return 0
    if args.command == "list-compressors":
        print("\n".join(compressor_registry.names()))
        return 0
    return 1  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
