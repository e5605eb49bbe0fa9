"""``predict-bench`` command-line interface.

Each subcommand's flags name what a campaign sweeps (schemes,
compressors, bounds), its dataset, queue and checkpoint; the
:class:`~repro.bench.runner.ExperimentRunner` turns them into option
structures the way a library caller's runner does.  There is no generic
``-o key=value`` flag.

Examples::

    predict-bench run --schemes khan2023 jin2022 rahman2023 \
        --compressors sz3 zfp --timesteps 8 --shape 32 32 16 \
        --checkpoint /tmp/bench.db
    predict-bench list-schemes
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Any, Sequence

from ..core.compressor import compressor_registry
from ..dataset.hurricane import HurricaneDataset
from ..predict.scheme import available_schemes
from .checkpoint import CheckpointStore
from .cluster import ClusterSpec, generate_sbatch
from .cluster.spec import parse_hostport
from .faults import ChaosPlan, RetryPolicy
from .report import format_table2, rows_to_records
from .runner import CollectionResult, ExperimentRunner
from .taskqueue import TaskQueue


def _add_sweep_flags(
    sub: argparse.ArgumentParser, schemes: Sequence[str] = ("khan2023", "jin2022", "rahman2023"),
    compressors: Sequence[str] = ("sz3", "zfp"), bounds: Sequence[float] | None = (1e-6, 1e-4),
    *, bound_flags: bool = True,
) -> None:
    """What a campaign sweeps; ``report`` takes no bound flags."""
    sub.add_argument("--schemes", nargs="+", default=list(schemes))
    sub.add_argument("--compressors", nargs="+", default=list(compressors))
    if not bound_flags:
        return
    sub.add_argument("--bounds", nargs="+", type=float,
                     default=None if bounds is None else list(bounds),
                     help=None if bounds else "default: every bound in the checkpoint")
    sub.add_argument("--absolute-bounds", action="store_true",
                     help="interpret bounds as absolute instead of range-relative")


def _add_dataset_flags(
    sub: argparse.ArgumentParser, shape: Sequence[int], timesteps: int | None
) -> None:
    """The synthetic Hurricane; ``loop`` grows its timesteps per round."""
    sub.add_argument("--shape", nargs=3, type=int, default=list(shape))
    if timesteps is not None:
        sub.add_argument("--timesteps", type=int, default=timesteps)
    sub.add_argument("--fields", nargs="+", default=None)


def _add_queue_flags(
    sub: argparse.ArgumentParser, workers: int, engines: Sequence[str] = ("serial", "process"),
    engine: str = "serial", retry_base_delay: float = 0.0, *, task_flags: bool = True,
) -> None:
    """The collection queue.  ``loop`` has no per-task flags: its
    retries are rollover stages."""
    sub.add_argument("--workers", type=int, default=workers,
                     help="pool size, or worker ranks to spawn (cluster)")
    sub.add_argument("--engine", choices=list(engines), default=engine,
                     help="'process' runs a worker pool with per-worker "
                     "dataset/compressor initialization")
    sub.add_argument("--retry-base-delay", type=float, default=retry_base_delay,
                     help="first-retry backoff in seconds (0 retries at once); "
                     "later retries back off exponentially with seeded jitter")
    if not task_flags:
        return
    sub.add_argument("--chunk-size", type=int, default=None,
                     help="tasks per dispatched datum chunk (default: whole datums)")
    sub.add_argument("--max-retries", type=int, default=2,
                     help="extra attempts per task after a transient failure")
    sub.add_argument("--task-timeout", type=float, default=None,
                     help="per-task deadline in seconds (> 0)")
    sub.add_argument("--queue-stats", action="store_true",
                     help="print the harness's own stage timings to stderr")


def _add_store_flags(sub: argparse.ArgumentParser, checkpoint: str, flush_every: int) -> None:
    """The checkpoint a collection writes and resumes from."""
    sub.add_argument("--checkpoint", default=checkpoint)
    sub.add_argument("--flush-every", type=int, default=flush_every,
                     help="checkpoint writes per SQLite commit (1 = the safest)")
    sub.add_argument("--flush-interval", type=float, default=None,
                     help="also flush every this many seconds of wall clock")


def _add_chaos_flags(sub: argparse.ArgumentParser, example: str) -> None:
    """Seeded fault injection."""
    sub.add_argument("--chaos", default=None, metavar="SPEC",
                     help=f"inject seeded faults, e.g. '{example}'")
    sub.add_argument("--chaos-seed", type=int, default=0,
                     help="same seed + spec => same faults on the same tasks")


def _add_evaluation_flags(sub: argparse.ArgumentParser) -> None:
    """How Table 2 is evaluated and printed."""
    sub.add_argument("--folds", type=int, default=10)
    sub.add_argument("--protocol", choices=["out_of_sample", "in_sample"],
                     default="out_of_sample",
                     help="out_of_sample groups CV folds by field (the paper's "
                     "protocol); in_sample is the best-case variant")
    sub.add_argument("--json", action="store_true", help="emit JSON records")


def _add_drift_flags(sub: argparse.ArgumentParser) -> None:
    """The drift threshold ``serve`` and ``loop`` expose; every other
    :class:`~repro.serve.drift.DriftConfig` field keeps its default."""
    sub.add_argument("--drift-medape", type=float, default=25.0,
                     help="windowed MedAPE (%%) above which drift breaches")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="predict-bench",
        description="Train and evaluate compression-performance predictors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Any, **kwargs: Any) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, **kwargs)
        cmd.set_defaults(func=func)
        return cmd

    run = command("run", cmd_run, help="run the Table-2 evaluation")
    _add_sweep_flags(run)
    _add_dataset_flags(run, shape=(64, 64, 32), timesteps=48)
    _add_queue_flags(run, workers=1)
    _add_store_flags(run, checkpoint=":memory:", flush_every=1)
    _add_chaos_flags(run, example="crash:0.1,hang:0.05,exception:0.2,corrupt:0.1,sink:0.1")
    _add_evaluation_flags(run)

    collect = command(
        "collect", cmd_collect,
        help="run (or resume) the collection phase only — no evaluation; "
        "the entry point for the multi-node 'cluster' engine (every "
        "launched rank runs this same command; rank 0 coordinates)",
    )
    _add_sweep_flags(collect)
    _add_dataset_flags(collect, shape=(32, 32, 16), timesteps=8)
    _add_queue_flags(collect, workers=2, engines=("serial", "process", "cluster"),
                     engine="cluster")
    _add_store_flags(collect, checkpoint="bench.db", flush_every=32)
    _add_chaos_flags(collect, example="rank_kill:0.1")
    collect.add_argument(
        "--max-pool-rebuilds", type=int, default=5,
        help="consecutive no-progress rank deaths (or pool rebuilds) "
        "tolerated before the campaign aborts with a diagnosis",
    )
    collect.add_argument(
        "--chaos-state-dir", default=None,
        help="shared directory for once-only injection markers (must be "
        "reachable by every rank; default: a host-local temp dir)",
    )
    collect.add_argument("--coord", default=None, metavar="HOST:PORT",
                         help="TCP rendezvous for launched campaigns "
                         "(default: REPRO_CLUSTER_COORD)")
    collect.add_argument("--no-spawn", action="store_true",
                         help="never fork local worker ranks; without a "
                         "launcher environment this downgrades to 'process'")
    collect.add_argument("--heartbeat-interval", type=float, default=0.5)
    collect.add_argument("--heartbeat-timeout", type=float, default=10.0)
    collect.add_argument("--startup-timeout", type=float, default=30.0,
                         help="seconds rank 0 waits for worker hellos")

    sbatch = command(
        "sbatch", cmd_sbatch,
        help="generate a SLURM batch script for a launched-TCP cluster "
        "campaign (every rank runs the given collect command; rank "
        "identity derives from SLURM_PROCID)",
    )
    sbatch.add_argument(
        "collect_command",
        metavar="COMMAND",
        help="collection invocation to run on every rank, without an "
        "engine flag — e.g. 'predict-bench collect --checkpoint bench.db'",
    )
    sbatch.add_argument("--job-name", default="predict-bench")
    sbatch.add_argument("--ntasks", type=int, default=4,
                        help="total ranks (1 coordinator + N-1 workers)")
    sbatch.add_argument("--nodes", type=int, default=None)
    sbatch.add_argument("--time", dest="time_limit", default="01:00:00")
    sbatch.add_argument("--partition", default=None)
    sbatch.add_argument("--account", default=None)
    sbatch.add_argument("--coord-port", type=int, default=7621)
    sbatch.add_argument(
        "--directive", action="append", default=[], metavar="FLAG",
        help="extra raw #SBATCH directive (repeatable)",
    )
    sbatch.add_argument("--output", default=None,
                        help="write the script here instead of stdout")

    report = command(
        "report", cmd_report,
        help="re-evaluate from an existing checkpoint without recollecting "
        "(§4.3: query and partially restore the key state)",
    )
    report.add_argument("checkpoint", help="checkpoint database")
    _add_sweep_flags(report, bound_flags=False)
    _add_evaluation_flags(report)
    report.add_argument(
        "--failures", action="store_true",
        help="also print the checkpoint's persistent failure ledger "
        "(task key, error, status, attempts, originating rank)",
    )

    for listed in ("schemes", "compressors"):
        command(f"list-{listed}", cmd_list, help=f"enumerate registered {listed}")

    publish = command(
        "publish", cmd_publish,
        help="fit final models from a checkpoint and publish them to a registry",
    )
    publish.add_argument("checkpoint")
    publish.add_argument("--registry", required=True, help="registry root directory")
    _add_sweep_flags(publish, bounds=None)
    publish.add_argument(
        "--verify-n", type=int, default=8,
        help="training rows used for the publish-time round-trip proof",
    )

    serve = command("serve", cmd_serve, help="serve predictions from a registry over TCP")
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
                       "the port via SO_REUSEPORT (required for >1)")
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

    loop = command(
        "loop", cmd_loop,
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
    _add_sweep_flags(loop, schemes=["rahman2023"], compressors=["sz3"], bounds=[1e-4])
    _add_dataset_flags(loop, shape=(16, 16, 8), timesteps=None)
    loop.add_argument(
        "--base-timesteps", type=int, default=4,
        help="timesteps in the round-1 campaign",
    )
    loop.add_argument(
        "--timesteps-per-round", type=int, default=1,
        help="extra timesteps each later round adds (the incremental "
        "re-collect; already-checkpointed tasks are not re-run)",
    )
    _add_queue_flags(loop, workers=1, retry_base_delay=0.05, task_flags=False)
    loop.add_argument("--verify-n", type=int, default=4,
                      help="rows for the publish-time round-trip proof")
    loop.add_argument(
        "--max-stage-attempts", type=int, default=12,
        help="crash-loop cap: supervised attempts per rollover",
    )
    loop.add_argument(
        "--poll-interval", type=float, default=1.0,
        help="seconds between drift polls while nothing has fired",
    )
    loop.add_argument(
        "--max-polls", type=int, default=10_000,
        help="give up after this many idle polls",
    )
    _add_chaos_flags(
        loop, example="trainer_kill:0.5,publish_corrupt:0.3,refresh_drop:0.2"
    )
    _add_drift_flags(loop)

    query = command("query", cmd_query, help="query a running prediction server")
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

    gen = command("generate", cmd_generate,
                  help="materialise the synthetic Hurricane as .npy files")
    gen.add_argument("output_dir")
    _add_dataset_flags(gen, shape=(64, 64, 32), timesteps=48)
    return parser


# -- builders -------------------------------------------------------------------
def _dataset(args: argparse.Namespace, timesteps: int | None = None) -> HurricaneDataset:
    """The synthetic Hurricane the dataset flags describe."""
    return HurricaneDataset(
        shape=tuple(args.shape),
        timesteps=args.timesteps if timesteps is None else timesteps,
        fields=args.fields,
    )


def _store(args: argparse.Namespace) -> CheckpointStore:
    """The checkpoint ``args.checkpoint`` names, batched as the store
    flags say where a command has them."""
    flags = vars(args)
    return CheckpointStore(
        args.checkpoint,
        flush_every=flags.get("flush_every", 1),
        flush_interval=flags.get("flush_interval"),
    )


def _retry_policy(args: argparse.Namespace, max_retries: int) -> RetryPolicy:
    """``--retry-base-delay`` backoff, jittered by ``--chaos-seed``."""
    return RetryPolicy(
        max_retries=max_retries, base_delay=args.retry_base_delay, seed=args.chaos_seed
    )


def _queue_from_args(args: argparse.Namespace, **extra: Any) -> TaskQueue:
    """The collection queue the queue flags (and, on the ``cluster``
    engine, the cluster flags) describe.  A value the queue rejects — a
    malformed coordinator address included — is a usage error (exit 2,
    like argparse), reported before any dataset is built."""
    try:
        cluster = None
        if args.engine == "cluster":
            cluster = ClusterSpec(
                spawn=not args.no_spawn,
                coord=args.coord,
                heartbeat_interval=args.heartbeat_interval,
                heartbeat_timeout=args.heartbeat_timeout,
                worker_startup_timeout=args.startup_timeout,
            )
        return TaskQueue(
            args.workers,
            args.engine,
            retry_policy=_retry_policy(args, args.max_retries),
            task_timeout=args.task_timeout,
            chunk_size=args.chunk_size,
            cluster=cluster,
            **extra,
        )
    except ValueError as exc:
        print(f"predict-bench: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _runner(
    args: argparse.Namespace, store: CheckpointStore,
    dataset: HurricaneDataset | None = None, **extra: Any,
) -> ExperimentRunner:
    """The campaign the sweep (and evaluation) flags describe.  Without a
    dataset it evaluates or publishes stored observations only, for
    which an empty stand-in suffices."""
    from ..dataset.synthetic import SyntheticDataset

    flags = vars(args)
    if flags.get("bounds") is not None:
        extra["bounds"] = args.bounds
    if "absolute_bounds" in flags:
        extra["relative_bounds"] = not args.absolute_bounds
    if "folds" in flags:
        extra.update(n_folds=args.folds, protocol=args.protocol)
    return ExperimentRunner(
        SyntheticDataset([]) if dataset is None else dataset,
        compressors=args.compressors,
        schemes=args.schemes,
        store=store,
        **extra,
    )


def _chaos(args: argparse.Namespace) -> ChaosPlan | None:
    """The seeded fault plan ``--chaos`` names, if any."""
    if not args.chaos:
        return None
    state_dir = vars(args).get("chaos_state_dir")
    return ChaosPlan.from_spec(args.chaos, seed=args.chaos_seed, state_dir=state_dir)


# -- printers -------------------------------------------------------------------
def _print_chaos(args: argparse.Namespace, chaos: ChaosPlan, tail: str = "") -> None:
    fired = ",".join(f"{kind}={n}" for kind, n in chaos.injected_counts().items() if n)
    print(f"chaos[seed={args.chaos_seed}] injected {fired or 'nothing'}{tail}",
          file=sys.stderr)


def _print_failures(store: CheckpointStore, keys: set[str] | None = None) -> int:
    """``failed[...]`` lines from the store's failure ledger (only *keys*,
    a collection pass's failures, when given); returns how many."""
    entries = [e for e in store.failures() if keys is None or e["key"] in keys]
    for entry in entries:
        origin = f" on {entry['origin']}" if entry.get("origin") else ""
        print(
            f"failed[{entry['status']}] {entry['key']} "
            f"after {entry['attempts']} attempt(s){origin}: {entry['error']}",
            file=sys.stderr,
        )
    return len(entries)


def _engine_label(summary: dict[str, Any]) -> str:
    """The engine that ran, plus the one asked for when they differ."""
    engine, requested = summary["engine"], summary["requested_engine"]
    return f"{engine} (requested {requested})" if requested not in ("", engine) else engine


def _print_table2(
    args: argparse.Namespace, runner: ExperimentRunner, observations: Sequence[Any],
    title: str, harness: dict[str, Any] | None,
) -> None:
    """Table 2 for ``run`` and ``report``; ``--json`` prints the records
    (``report`` wraps them with the harness statistics)."""
    rows = runner.table2(observations)
    if not args.json:
        print(format_table2(rows, title=title, harness=harness))
    elif args.command == "report":
        print(json.dumps({"rows": rows_to_records(rows), "harness": harness}, indent=2))
    else:
        print(json.dumps(rows_to_records(rows), indent=2))


# -- commands -------------------------------------------------------------------
def _collection_pass(
    args: argparse.Namespace, store: CheckpointStore, queue: TaskQueue
) -> tuple[ExperimentRunner, ChaosPlan | None, CollectionResult]:
    """The pass ``run`` shares with ``collect``: build the campaign and
    collect it (under ``--chaos``); ``--queue-stats`` prints the pass's
    summary plus its fault counters as one ``queue[...]`` line."""
    runner = _runner(args, store, _dataset(args), queue=queue)
    chaos = _chaos(args)
    result = runner.collect(chaos=chaos)
    if args.queue_stats:
        stats, summary = result.stats, result.stats.summary()
        stages = " ".join(
            f"{name}={seconds:.3f}s" for name, seconds in summary["stage_summary"].items()
        )
        print(
            f"queue[{_engine_label(summary)} x{queue.n_workers}] "
            f"{stages} retries={summary['retries']} quarantined={stats.quarantined} "
            f"timeouts={stats.timeouts} pool_rebuilds={stats.pool_rebuilds} "
            f"commits={store.commit_count} affinity={summary['affinity_hit_rate']:.0%} "
            f"steals={summary['affinity_steals']}",
            file=sys.stderr,
        )
    return runner, chaos, result


def cmd_run(args: argparse.Namespace) -> int:
    """``collect``'s collection pass, a chaos-recovery pass, then Table 2;
    exits 1 when the campaign holds no observation at all."""
    queue = _queue_from_args(args)
    with _store(args) as store:
        runner, chaos, result = _collection_pass(args, store, queue)
        harness = result.stats.summary()
        if chaos is not None:
            # Prove recovery, not just survival: damage the checkpoint as
            # planned, then re-collect — verify() quarantines corrupt rows
            # and the queue recomputes whatever the chaotic pass lost.
            corrupted = chaos.corrupt_checkpoint(store)
            result = runner.collect()
            _print_chaos(args, chaos, f" corrupted={len(corrupted)} recovery: "
                         f"completed={result.stats.completed} failed={result.stats.failed}")
        _print_failures(store, {f.task.key() for f in result.failures})
        _print_table2(args, runner, result.observations, "Hurricane performance results",
                      harness)
    return 0 if result.observations else 1


def cmd_collect(args: argparse.Namespace) -> int:
    """Collection only: run (or resume) a campaign into the checkpoint.

    With ``--engine cluster`` this is the symmetric multi-node entry
    point: a launched worker rank (``SLURM_PROCID`` / ``OMPI_COMM_WORLD_RANK``
    / ``PMI_RANK`` > 0) short-circuits into the worker loop — no dataset
    initialisation, no database — while rank 0 coordinates, writes every
    acked result into ``--checkpoint``, and prints the campaign summary.
    On a laptop (no launcher) the coordinator simply spawns local worker
    ranks over loopback TCP.
    """
    queue = _queue_from_args(args, max_pool_rebuilds=args.max_pool_rebuilds)
    if queue.cluster is not None and queue.cluster.is_worker_rank:
        queue.run([], None)
        return 0
    with _store(args) as store:
        _, chaos, (observations, stats, failures) = _collection_pass(args, store, queue)
        _print_failures(store, {f.task.key() for f in failures})
        summary = stats.summary()
        print(
            f"collected {len(observations)} observation(s) into "
            f"{args.checkpoint} [{_engine_label(summary)}]: "
            f"completed={stats.completed} failed={stats.failed} "
            f"retries={stats.retries}"
        )
        if stats.engine == "cluster":
            print(f"cluster: rank_deaths={summary['rank_deaths']} "
                  f"rank_restarts={summary['rank_restarts']} "
                  f"wire_bytes_per_task={summary['wire_bytes_per_task']:.0f}")
        if chaos is not None:
            _print_chaos(args, chaos)
        return 0 if stats.failed == 0 else 1


def cmd_sbatch(args: argparse.Namespace) -> int:
    """Emit the SLURM batch script for a launched cluster campaign."""
    names = ("job_name", "ntasks", "nodes", "time_limit", "partition", "account",
             "coord_port")
    script = generate_sbatch(args.collect_command, extra_directives=args.directive,
                             **{name: vars(args)[name] for name in names})
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
    """
    with _store(args) as store:
        if args.failures and not _print_failures(store):
            print("no recorded failures", file=sys.stderr)
        observations = store.query()
        if not observations:
            print(f"checkpoint {args.checkpoint!r} holds no observations")
            return 1
        # The collection pass persisted its harness statistics (stage
        # timings, affinity counters) with the campaign; surface them so a
        # report from the checkpoint alone tells the whole story.
        harness = None
        if (raw_stats := store.get_meta("last_run_stats")) is not None:
            with contextlib.suppress(ValueError):
                harness = json.loads(raw_stats)
        title = f"Report from {args.checkpoint} ({len(observations)} observations)"
        _print_table2(args, _runner(args, store), observations, title, harness)
        return 0


def cmd_publish(args: argparse.Namespace) -> int:
    """Fit final models from checkpointed observations and publish them."""
    from ..serve import ModelRegistry

    with _store(args) as store:
        observations = store.query()
        if not observations:
            print(f"checkpoint {args.checkpoint!r} holds no observations")
            return 1
        # Every stored bound, unless --bounds names some (they win).
        stored = {float(o["bound"]) for o in observations if o.get("bound") is not None}
        receipts = _runner(args, store, bounds=sorted(stored)).publish(
            ModelRegistry(args.registry), observations, verify_n=args.verify_n
        )
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


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the prediction server (or a multi-worker fleet) until interrupted."""
    import asyncio

    from ..serve import DriftConfig, ModelRegistry, PredictionServer, ServeFleet
    from ..serve.fleet import build_feat_cache

    # The server and cache flags are named as the keywords they feed.
    flags = vars(args)
    server_options = {k: flags[k] for k in ("max_batch", "max_in_flight", "max_queue_depth",
                                            "cache_capacity")}
    feat_cache = {k: v for k, v in flags.items() if k.startswith("feat_cache")}
    drift_config = DriftConfig(medape_threshold=args.drift_medape)
    if args.workers > 1:
        fleet = ServeFleet(
            args.registry,
            args.workers,
            host=args.host,
            port=args.port,
            drift_config=drift_config,
            server_options=server_options,
            **feat_cache,
        )
        with fleet:
            host, port = fleet.address
            print(
                f"serving {args.registry} on {host}:{port} "
                f"({fleet.workers} workers, feat-cache={args.feat_cache})",
                flush=True,
            )
            with contextlib.suppress(KeyboardInterrupt):
                while True:
                    time.sleep(1.0)
        return 0

    server = PredictionServer(
        ModelRegistry(args.registry),
        host=args.host,
        port=args.port,
        drift_config=drift_config,
        # One process: nothing sweeps a shared tier's rows at exit, so the
        # next server started on the same --feat-cache-dir reads them back.
        feat_cache=build_feat_cache(feat_cache),
        **server_options,
    )

    async def _serve() -> None:
        await server.start()
        print(f"serving {args.registry} on {server.host}:{server.port}", flush=True)
        await server.serve_until_stopped()

    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(_serve())
    return 0


def cmd_loop(args: argparse.Namespace) -> int:
    """Run the continuous-learning loop: drift → retrain → refresh."""
    from ..serve import ContinuousLearner, ModelRegistry, RolloverFailedError

    try:
        servers = [parse_hostport(spec) for spec in args.servers]
    except ValueError as exc:
        print(f"predict-bench: error: --servers: {exc}", file=sys.stderr)
        return 2
    chaos = _chaos(args)
    store = _store(args)

    def runner_factory(round_no: int) -> ExperimentRunner:
        timesteps = args.base_timesteps + max(round_no - 1, 0) * args.timesteps_per_round
        return _runner(
            args, store, _dataset(args, timesteps), queue=TaskQueue(args.workers, args.engine)
        )

    learner = ContinuousLearner(
        ModelRegistry(args.registry),
        runner_factory,
        servers=servers,
        retry_policy=_retry_policy(args, args.max_stage_attempts - 1),
        chaos=chaos,
        verify_n=args.verify_n,
        drift_config={"medape_threshold": args.drift_medape},
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
        _print_chaos(args, chaos)
    return 0 if len(reports) == args.rounds else 1


def cmd_query(args: argparse.Namespace) -> int:
    """One-shot client: stats, model listing, or a prediction."""
    import numpy as np

    from ..predict.scheme import get_scheme
    from ..serve import PredictionClient, ServerError, registry_key, scheme_params

    with PredictionClient(args.host, args.port) as client:
        if args.stats or args.models:
            print(json.dumps(client.stats() if args.stats else client.models(), indent=2))
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
        data = np.load(args.npy) if args.npy else None
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


def cmd_list(args: argparse.Namespace) -> int:
    schemes = args.command == "list-schemes"
    print("\n".join(available_schemes() if schemes else compressor_registry.names()))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    paths = _dataset(args).write_to_directory(args.output_dir)
    print(f"wrote {len(paths)} files under {args.output_dir}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
