"""repro-lint CLI contract + the zero-findings gate over the live tree."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import all_rules, run_paths
from repro.analysis.cli import main as lint_main

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

BAD_SNIPPET = (
    "import time\n"
    "\n"
    "async def tick(interval):\n"
    "    time.sleep(interval)\n"
)

CLEAN_SNIPPET = "def add(a, b):\n    return a + b\n"


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "stalls.py"
    path.write_text(BAD_SNIPPET)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN_SNIPPET)
    return str(path)


def test_src_tree_is_clean():
    """The CI gate, enforced in tier-1: zero active findings over src/."""
    report = run_paths([REPO_SRC])
    assert report.clean, "\n" + report.render_text()


def test_src_tree_has_only_justified_suppressions():
    """The fleet's spawn under the placeholder socket and the warm-model
    cache's one registry stat per take, and nothing else."""
    report = run_paths([REPO_SRC])
    assert sorted(
        (os.path.basename(f.path), f.rule.id) for f in report.suppressed()
    ) == [("fleet.py", "RL702"), ("server.py", "RL601")]


def test_clean_file_exits_zero(clean_file, capsys):
    assert lint_main([clean_file]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_findings_exit_one_with_location(bad_file, capsys):
    assert lint_main([bad_file]) == 1
    out = capsys.readouterr().out
    assert f"{bad_file}:4: RL601" in out
    assert "blocking-call-in-async" in out


def test_json_format_is_machine_readable(bad_file, capsys):
    assert lint_main([bad_file, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] == 1
    assert payload["counts"]["active"] == 1
    [finding] = payload["findings"]
    assert finding["rule"] == "RL601"
    assert finding["line"] == 4
    assert finding["hint"]


def test_rules_filter_by_name_and_id(bad_file):
    assert lint_main([bad_file, "--rules", "RL301"]) == 0
    assert lint_main([bad_file, "--rules", "blocking-call-in-async"]) == 1


def test_unknown_rule_is_a_usage_error(bad_file, capsys):
    assert lint_main([bad_file, "--rules", "RL999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_list_rules_names_all_five(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [rule.id for rule in all_rules()] == [
        "RL000", "RL301", "RL601", "RL603", "RL702",
    ]
    assert len(out.splitlines()) == 5
    for rule in all_rules():
        assert rule.id in out
        assert rule.name in out


def test_rules_family_prefix_selects_the_whole_family(tmp_path):
    path = tmp_path / "loopy.py"
    path.write_text(
        "import time\n"
        "\n"
        "async def tick():\n"
        "    time.sleep(1)\n"
    )
    assert lint_main([str(path), "--rules", "RL6"]) == 1
    assert lint_main([str(path), "--rules", "RL7"]) == 0
    assert lint_main([str(path), "--rules", "RL6,RL7"]) == 1


def test_github_format_emits_annotations(bad_file, capsys):
    assert lint_main([bad_file, "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert f"::error file={bad_file},line=4,title=RL601 blocking-call-in-async::" in out
    assert out.strip().endswith("1 finding(s)")


def test_show_suppressed_includes_silenced_findings(tmp_path, capsys):
    path = tmp_path / "hushed.py"
    path.write_text(
        BAD_SNIPPET.replace(
            "time.sleep(interval)",
            "time.sleep(interval)  # repro-lint: disable=RL601  # demo",
        )
    )
    assert lint_main([str(path)]) == 0
    assert lint_main([str(path), "--show-suppressed"]) == 0
    assert "[suppressed]" in capsys.readouterr().out


def test_stale_suppression_exits_one(tmp_path, capsys):
    """A suppression naming a rule that no longer exists fails the gate."""
    path = tmp_path / "stale.py"
    path.write_text("# repro-lint: disable-file=RL102\n" + CLEAN_SNIPPET)
    assert lint_main([str(path)]) == 1
    assert "unknown rule 'RL102'" in capsys.readouterr().out
    assert lint_main([str(path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["active"] == 0
    assert payload["unknown_suppressions"] == [
        {"path": str(path), "line": 1, "token": "RL102"}
    ]
    assert lint_main([str(path), "--format", "github"]) == 1
    assert f"::error file={path},line=1,title=unknown suppression::" in (
        capsys.readouterr().out
    )


def test_module_entry_point_runs(bad_file):
    import subprocess
    import sys

    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", bad_file],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "RL601" in proc.stdout
