"""Smoke tests: the shipped examples actually run.

Only the fast examples execute here (the campaign-scale ones are
exercised piecewise by the benchmark suite); each runs in-process via
runpy so import errors, API drift, or renamed options fail loudly.
"""

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name: str, capsys) -> str:
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    assert os.path.exists(path), path
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "estimated CR" in out
    assert "actual CR" in out


def test_compressor_selection(capsys):
    out = run_example("compressor_selection.py", capsys)
    assert "ranking agreement" in out
    # The method's goal: the estimated ranking usually matches.
    line = [l for l in out.splitlines() if "ranking agreement" in l][0]
    matched, total = line.split(":")[1].split("(")[0].strip().split("/")
    assert int(matched) >= int(total) * 0.7


def test_distributed_training(capsys):
    out = run_example("distributed_training.py", capsys)
    assert "first run" in out
    # The restart re-runs exactly the tasks the first run failed.
    failed = int(out.split(" ok, ")[1].split(" failed")[0])
    assert f"re-ran {failed} missing tasks (affinity hit rate" in out
    assert "Table-2 layout" in out


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "compressor_selection.py",
        "parallel_write.py",
        "autotuning.py",
        "distributed_training.py",
        "counterfactual_design.py",
    ],
)
def test_examples_compile(name):
    """Every shipped example at least byte-compiles."""
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    with open(path) as fh:
        compile(fh.read(), path, "exec")
