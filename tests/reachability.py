"""Reachability replay: which functions under ``src/repro`` no path runs.

The recorder is ``tests/reachability_site/sitecustomize.py``: with that
directory on ``PYTHONPATH`` and ``REPRO_REACH_DIR`` set, every Python
process a command starts (forked, spawned or launched) appends the first
call of each ``src/repro`` code object to a file of its own.  This module
runs the commands and reads the records back::

    python tests/reachability.py replay OUT_DIR           # every path below
    python tests/reachability.py replay OUT_DIR --cheap   # smoke + examples
    python tests/reachability.py report OUT_DIR [--json FILE]

The full path set is the benchmark's smoke run, the documented CLI flows
(with the lint passes the CI ``analysis`` job runs, its one-finding
fixture included), the examples and ``pytest benchmarks --benchmark-disable``.  The flag
matters: pytest-benchmark clears the profile hook (``sys.setprofile(None)``)
around every measured body, so a timed benchmark would hide the very code
it runs.

A function is a ``def`` (methods and nested functions included, each
counted once); its body lines run from its first statement to its last
line, so a nested function's lines also count for its parent.  A module
is *unreached* when none of its functions ran; ``ALLOWLIST`` names the
modules that stay anyway, with the reason.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SITE = Path(__file__).resolve().parent / "reachability_site"
ENABLE = "REPRO_REACH_DIR"
#: A file with exactly one repro-lint finding, RL601.
LINT_FIXTURE = ROOT / "tests" / "lint_fixtures" / "one_finding.py"

ALLOWLIST = {
    "predict/metrics/external.py": "paper §4.2: external metrics",
    "analysis/racewitness.py": "the `FeaturizationCache` seam",
}


# -- the static side: every function and its body lines --------------------------------


def functions(package: Path = PACKAGE) -> dict[tuple[str, int], tuple[str, int]]:
    """``(module, first line) -> (qualified name, body lines)`` for every def.

    The first line is the one ``co_firstlineno`` reports: the first
    decorator's line for a decorated function.
    """
    out: dict[tuple[str, int], tuple[str, int]] = {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    body = child.end_lineno - child.body[0].lineno + 1
                    out[(module, first)] = (prefix + child.name, body)
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


def reached(record_dir: Path, package: Path = PACKAGE) -> set[tuple[str, int]]:
    """``(module, first line)`` of every recorded code object in *package*."""
    hits: set[tuple[str, int]] = set()
    for path in Path(record_dir).glob("*.reach"):
        for line in path.read_text().splitlines():
            filename, first, _name = line.split("\t")
            try:
                module = Path(filename).resolve().relative_to(package).as_posix()
            except ValueError:
                continue  # another checkout's repro, or not a module file
            hits.add((module, int(first)))
    return hits


def summarise(record_dir: Path, package: Path = PACKAGE) -> dict:
    """Unreached functions and body lines, per module and in total."""
    defs = functions(package)
    hits = reached(record_dir, package)
    modules: dict[str, dict] = {}
    for (module, first), (name, body) in sorted(defs.items()):
        entry = modules.setdefault(
            module, {"functions": 0, "body_lines": 0, "unreached": []}
        )
        entry["functions"] += 1
        entry["body_lines"] += body
        if (module, first) not in hits:
            entry["unreached"].append({"name": name, "line": first, "body_lines": body})
    total_f = sum(m["functions"] for m in modules.values())
    total_l = sum(m["body_lines"] for m in modules.values())
    miss_f = sum(len(m["unreached"]) for m in modules.values())
    miss_l = sum(u["body_lines"] for m in modules.values() for u in m["unreached"])
    whole = sorted(
        name for name, m in modules.items() if len(m["unreached"]) == m["functions"]
    )
    return {
        "functions": total_f,
        "unreached_functions": miss_f,
        "body_lines": total_l,
        "unreached_body_lines": miss_l,
        "unreached_share": round(miss_l / total_l, 4) if total_l else 0.0,
        "unreached_modules": {m: ALLOWLIST.get(m) for m in whole},
        "modules": modules,
    }


def render(summary: dict) -> str:
    lines = [
        f"unreached: {summary['unreached_functions']} of {summary['functions']} "
        f"functions, {summary['unreached_body_lines']} of {summary['body_lines']} "
        f"body lines ({100 * summary['unreached_share']:.1f} %)",
        "whole modules never reached:",
    ]
    for module, reason in summary["unreached_modules"].items():
        lines.append(f"  {module}" + (f"  (kept: {reason})" if reason else "  NOT ALLOWLISTED"))
    lines.append("unreached body lines by module:")
    ranked = sorted(
        summary["modules"].items(),
        key=lambda kv: -sum(u["body_lines"] for u in kv[1]["unreached"]),
    )
    for module, entry in ranked:
        missed = entry["unreached"]
        if missed:
            n = sum(u["body_lines"] for u in missed)
            names = ", ".join(u["name"] for u in missed[:6])
            more = f", +{len(missed) - 6}" if len(missed) > 6 else ""
            lines.append(f"  {n:5d}  {module}: {names}{more}")
    return "\n".join(lines)


# -- the dynamic side: the path set -------------------------------------------------------


def recording_env(record_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    path = [str(SITE), str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env[ENABLE] = str(record_dir)
    return env


def cli_flows(work: Path) -> list[list[str]]:
    """The README and verify-skill CLI flows, in an order that feeds each
    the files the previous ones wrote (``serve`` is driven separately)."""
    db, chaos_db, clu_db = work / "ckpt.db", work / "chaos.db", work / "cluster.db"
    reg = work / "registry"
    campaign = ["--shape", "16", "16", "8", "--timesteps", "2", "--fields", "CLOUD", "P",
                "--compressors", "szx", "--bounds", "1e-3", "1e-4"]
    schemes = ["--schemes", "khan2023", "rahman2023", "tao2019"]
    bench = [sys.executable, "-m", "repro.bench.cli"]
    return [
        bench + ["list-schemes"],
        bench + ["run", *campaign, *schemes, "--engine", "process", "--workers", "2",
                 "--checkpoint", str(db), "--flush-every", "4", "--queue-stats"],
        bench + ["run", *campaign, *schemes, "--engine", "serial", "--checkpoint", str(db),
                 "--queue-stats"],
        bench + ["run", *campaign, *schemes, "--engine", "process", "--workers", "2",
                 "--checkpoint", str(chaos_db),
                 "--chaos", "crash:0.4,exception:0.5,corrupt:0.3", "--chaos-seed", "5",
                 "--max-retries", "2", "--queue-stats"],
        bench + ["report", str(db), *schemes, "--compressors", "szx", "--folds", "5",
                 "--protocol", "in_sample"],
        bench + ["report", str(db), *schemes, "--compressors", "szx", "--json"],
        bench + ["report", str(chaos_db), *schemes, "--compressors", "szx", "--failures"],
        bench + ["generate", str(work / "hurricane"), "--shape", "8", "8", "4",
                 "--timesteps", "2"],
        bench + ["publish", str(db), "--registry", str(reg),
                 "--schemes", "rahman2023", "khan2023", "--compressors", "szx"],
        bench + ["collect", *campaign, "--schemes", "khan2023", "--engine", "cluster",
                 "--workers", "2", "--checkpoint", str(clu_db), "--queue-stats"],
        bench + ["sbatch", "predict-bench collect --schemes khan2023 --compressors sz3 "
                 "--checkpoint /scratch/bench.db", "--ntasks", "4"],
        # no --servers: the loop runs its rounds instead of polling for drift
        bench + ["loop", str(work / "loop.db"), "--registry", str(work / "loop-reg"),
                 "--rounds", "1", "--shape", "16", "16", "8", "--base-timesteps", "2",
                 "--fields", "CLOUD", "P", "--compressors", "szx"],
        [sys.executable, "-m", "repro.analysis", str(PACKAGE)],
        # what the CI analysis job runs: both machine-readable renderers
        [sys.executable, "-m", "repro.analysis", str(SRC), "--format", "json"],
        [sys.executable, "-m", "repro.analysis", str(SRC), "--format", "github"],
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
    ]


def lint_fixture(env: dict[str, str], log) -> int:
    """The lint of ``LINT_FIXTURE`` in both machine formats, as the CI
    ``analysis`` job runs it: each must exit 1 and report exactly the
    fixture's one finding.  Returns the failed format count."""
    failures = 0
    for fmt in ("json", "github"):
        argv = [sys.executable, "-m", "repro.analysis", str(LINT_FIXTURE), "--format", fmt]
        print("$ " + " ".join(argv), file=log, flush=True)
        done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        print(done.stdout + done.stderr, file=log, flush=True)
        if fmt == "json":
            rules = [f["rule"] for f in json.loads(done.stdout or "{}").get("findings", [])]
        else:
            rules = [line.split("title=", 1)[1].split()[0]
                     for line in done.stdout.splitlines() if line.startswith("::")]
        ok = done.returncode == 1 and rules == ["RL601"]
        print(f"[{fmt}: exit {done.returncode}, findings {rules}: "
              f"{'ok' if ok else 'FAILED'}]", file=log, flush=True)
        failures += not ok
    return failures


def drive_serve(work: Path, env: dict[str, str], log) -> int:
    """``serve --workers 2`` with a shared cache: one query per kind, then SIGINT."""
    import numpy as np

    field = work / "field.npy"
    np.save(field, np.random.default_rng(0).standard_normal((16, 16, 8)).astype(np.float32))
    # One observation, decoded by the store (a stored row holds values only).
    row = subprocess.run(
        [sys.executable, "-c", "import json, sys; from repro.bench import CheckpointStore; "
         "print(json.dumps(CheckpointStore(sys.argv[1]).query()[0]))", str(work / "ckpt.db")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    bench = [sys.executable, "-m", "repro.bench.cli"]
    server = subprocess.Popen(
        bench + ["serve", "--registry", str(work / "registry"), "--port", "0",
                 "--workers", "2", "--feat-cache", "shared"],
        env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        start_new_session=True,  # a kill below takes the fleet workers too
        # A replay started as a background job inherits SIGINT ignored,
        # and then serve would never see the SIGINT that stops it.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    failures = 0
    try:
        banner = server.stdout.readline()  # "serving ... on HOST:PORT (...)"
        query = bench + ["query", "--port", banner.rsplit(":", 1)[-1].split()[0]]
        model = ["--scheme", "rahman2023", "--compressor", "szx", "--bound", "1e-4"]
        for extra in (model + ["--results", row], model + ["--npy", str(field)],
                      model + ["--npy", str(field)], ["--stats"], ["--models"]):
            failures += run(query + extra, env, log, timeout=120)
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            print("[serve ignored SIGINT for 60 s; killed]", file=log, flush=True)
            os.killpg(server.pid, signal.SIGKILL)
            server.wait()
            failures += 1
    return failures


def run(argv: list[str], env: dict[str, str], log, timeout: float) -> int:
    print("$ " + " ".join(argv), file=log, flush=True)
    start = time.monotonic()
    try:
        code = subprocess.run(argv, env=env, cwd=ROOT, stdout=log, stderr=log,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    print(f"[exit {code} after {time.monotonic() - start:.1f} s]", file=log, flush=True)
    return 0 if code == 0 else 1


def replay(out: Path, cheap: bool) -> int:
    """Run the path set with the recorder on; returns the failed command count."""
    records = out / "records"
    records.mkdir(parents=True, exist_ok=True)
    env = recording_env(records)
    failures = 0
    with open(out / "replay.log", "a") as log, \
            tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work = Path(tmp)
        failures += run([sys.executable, "perf/run.py", "--smoke", "--seed", "5",
                         "--out", str(work / "smoke.json")], env, log, timeout=1800)
        for example in sorted((ROOT / "examples").glob("*.py")):
            failures += run([sys.executable, str(example)], env, log, timeout=900)
        if not cheap:
            for argv in cli_flows(work):
                failures += run(argv, env, log, timeout=900)
            failures += lint_fixture(env, log)
            failures += drive_serve(work, env, log)
            failures += run([sys.executable, "-m", "pytest", "benchmarks", "-q",
                             "-p", "no:cacheprovider", "--benchmark-disable"],
                            env, log, timeout=7200)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("replay", help="run the path set, then report")
    rep.add_argument("out", type=Path)
    rep.add_argument("--cheap", action="store_true",
                     help="only the smoke workloads and the examples")
    show = sub.add_parser("report", help="report on recorded runs")
    show.add_argument("out", type=Path)
    for cmd in (rep, show):
        cmd.add_argument("--json", type=Path, default=None,
                         help="also write the full per-function report here")
    args = parser.parse_args(argv)
    failed = replay(args.out, args.cheap) if args.command == "replay" else 0
    summary = summarise(args.out / "records")
    if args.json is not None:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    print(render(summary))
    if failed:
        print(f"{failed} replayed command(s) failed; see {args.out / 'replay.log'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
