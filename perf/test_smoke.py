"""Smoke test of the benchmark itself: ``python -m pytest perf/test_smoke.py``.

Outside the tier-1 ``testpaths``; it runs ``perf/run.py --smoke`` (every
workload on small inputs, a few seconds each, untraced and traced) and checks
the result's schema, the correctness gate and that every metric
``BENCHMARK.json`` names is printed with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "result.json"
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--seed", "5", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return json.loads(out.read_text(encoding="utf-8")), proc.stdout


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perf"] and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))


def test_provenance(smoke):
    result, _ = smoke
    assert {"seed", "nproc", "python", "numpy", "git_sha", "date"} <= set(result["provenance"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_is_correct(smoke, workload):
    result, stdout = smoke
    runs = result["workloads"][workload]["runs"]
    assert sorted(r["trace"] for r in runs) == [0, 1]
    for run in runs:
        assert set(run) >= {"correct", "attempted", "failed", "metrics", "info", "seed"}
        assert run["correct"] is True and run["failed"] == 0 and run["attempted"] >= 1
        declared = SPEC["per_layer"] if run["trace"] else SPEC["end_to_end"]
        assert set(run["metrics"]) == {m["name"] for m in declared}
        for metric in declared:
            assert run["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert f"{workload:22s} {metric['name']:42s}" in stdout
        if not run["trace"]:
            assert all(m["value"] > 0 for m in run["metrics"].values())
    traced = next(r for r in runs if r["trace"])["metrics"]
    assert traced["compressors.bound_violations"]["value"] == 0
    assert traced["serve.worker_restarts"]["value"] == 0
    expected_hits = {"serve_whatif": 0.25}.get(workload, 0.0)
    assert traced["serve.feat_hit_share"]["value"] == expected_hits
    assert (PERF / "out" / f"trace-{workload}.jsonl").stat().st_size > 0
