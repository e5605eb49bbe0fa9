"""One command for the repository's benchmark.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1`` runs
one workload once and prints, as its last line, the JSON object
``BENCHMARK.json`` promises: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` it runs every
workload that way (each in its own process, ``--runs`` seeds each), prints
every metric by name and unit, and writes ``perf/out/result.json`` with the
provenance ``perf/compare.py`` needs.  Any correctness breach exits non-zero.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import datetime
import json
import os
import platform
import shutil
import subprocess
import sys

import common

WORKLOADS = {
    "campaign_compute": ("campaign", "run_compute"),
    "campaign_many_small": ("campaign", "run_many_small"),
    "serve_rows": ("serving", "run_rows"),
    "serve_whatif": ("serving", "run_whatif"),
}
SMOKE_SECONDS = 2.0


def parse_args(spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--no-trace", action="store_true",
                        help="all-workloads mode: skip the traced runs")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and a run of a few seconds, for the smoke test")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: seeds per workload (seed, seed+1, ...)")
    parser.add_argument("--out", default=str(common.OUT / "result.json"))
    return parser.parse_args()


# -- one workload, one process ---------------------------------------------------------


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    import importlib

    common.require_program()
    module_name, function_name = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    ctx = common.Run(args.workload, args.seed,
                     SMOKE_SECONDS if args.smoke else args.seconds,
                     bool(args.trace), args.smoke,
                     import_s=time.perf_counter() - _T_START)
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    ctx.workdir.mkdir(parents=True)
    try:
        if ctx.tracer is not None:
            module.register_spans(ctx.tracer)
        getattr(module, function_name)(ctx)
        if ctx.tracer is not None:
            ctx.tracer.write()
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        # multiprocessing's resource tracker (semaphores of the process
        # engine, shm of the featurization cache) would only end after this
        # process has; the driver wants every child ended and waited for.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()

    declared = spec["per_layer"] if ctx.trace else spec["end_to_end"]
    measured = ctx.per_layer if ctx.trace else ctx.end_to_end
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        raise SystemExit(f"perf: metrics not in BENCHMARK.json: {unknown}")
    # Every per-layer metric is printed on every workload; a layer the
    # workload does not touch reads 0.
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared}
    if not ctx.trace:
        for name, metric in metrics.items():
            if not metric["value"] > 0:
                ctx.breach(f"end-to-end metric {name} is {metric['value']}")
    if ctx.failed:
        ctx.breach(f"{ctx.failed} of {ctx.attempted} operations failed")
    common.check_names(metrics)

    for name, metric in metrics.items():
        print(f"{args.workload:22s} {name:42s} {metric['value']:14.6g} {metric['unit']}")
    for message in ctx.breaches:
        print(f"BREACH {args.workload}: {message}")
    ctx.info["host_slowness_mean"] = ctx.meter.slowness()
    print("info " + json.dumps(ctx.info, default=str))
    print(json.dumps({"correct": not ctx.breaches, "attempted": max(ctx.attempted, 1),
                      "failed": ctx.failed, "metrics": metrics}))
    return 1 if ctx.breaches else 0


# -- every workload --------------------------------------------------------------------


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "seed": args.seed, "runs": args.runs, "smoke": args.smoke,
        "seconds": SMOKE_SECONDS if args.smoke else args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": sha,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_all(args: argparse.Namespace, spec: dict) -> int:
    result = {"provenance": provenance(args), "workloads": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        entry = result["workloads"][workload] = {"runs": []}
        for trace in ((0,) if args.no_trace else (0, 1)):
            for seed in range(args.seed, args.seed + (args.runs if trace == 0 else 1)):
                command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(args.seconds),
                           "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
                proc = subprocess.run(command, cwd=common.ROOT, text=True,
                                      stdout=subprocess.PIPE)
                sys.stdout.write(proc.stdout)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode not in (0, 1) or len(lines) < 2:
                    print(f"perf: {workload} --trace {trace} --seed {seed} exited "
                          f"{proc.returncode} without a result")
                    status = 1
                    continue
                status |= proc.returncode
                entry["runs"].append({"seed": seed, "trace": trace,
                                      "info": json.loads(lines[-2].removeprefix("info ")),
                                      **json.loads(lines[-1])})
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"perf: wrote {args.out}")
    return status


def main() -> int:
    spec = common.load_spec()
    common.check_names([m["name"] for kind in ("workloads", "end_to_end", "per_layer")
                        for m in spec[kind]])
    args = parse_args(spec)
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
