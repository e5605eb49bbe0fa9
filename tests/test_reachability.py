"""The reachability recorder sees every kind of call a replay relies on.

A demo module under a directory named ``repro`` is run with the
recorder on: one function runs in the main thread under a decorator, one
in a ``threading.Thread``, one in a ``fork`` child and one in a ``spawn``
child, and one never runs.  The report must put exactly the last one
among the unreached.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from tests import reachability

DEMO = textwrap.dedent(
    """
    import functools
    import multiprocessing
    import os
    import threading


    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)

        return wrapper


    @deco
    def decorated():
        return 1


    def in_thread():
        return 2


    def in_fork():
        return 3


    def in_spawn():
        return 4


    def never():
        return 5


    def main():
        decorated()
        thread = threading.Thread(target=in_thread)
        thread.start()
        thread.join()
        pid = os.fork()
        if pid == 0:
            in_fork()
            os._exit(0)
        os.waitpid(pid, 0)
        child = multiprocessing.get_context("spawn").Process(target=in_spawn)
        child.start()
        child.join()
        assert child.exitcode == 0
    """
)


def _run_demo(tmp_path, record):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "reachdemo.py").write_text(DEMO)
    env = reachability.recording_env(record or tmp_path / "records")
    if record is None:
        del env[reachability.ENABLE]
    env["PYTHONPATH"] = os.pathsep.join([str(package), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", "import reachdemo; reachdemo.main()"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return package


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_thread_fork_spawn_and_decorated_calls_are_recorded(tmp_path):
    record = tmp_path / "records"
    package = _run_demo(tmp_path, record)
    summary = reachability.summarise(record, package)
    module = summary["modules"]["reachdemo.py"]
    assert [u["name"] for u in module["unreached"]] == ["never"]
    assert summary["unreached_functions"] == 1
    assert summary["unreached_modules"] == {}
    # The parent, the fork child and the spawn child each wrote a file.
    assert len(list(record.glob("*.reach"))) >= 3


def test_decorated_function_is_keyed_by_its_decorator_line(tmp_path):
    """``co_firstlineno`` of a decorated function is its first
    decorator's line; the static walk must use the same key."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "reachdemo.py").write_text(DEMO)
    defs = reachability.functions(package)
    lines = DEMO.splitlines()
    first = {name: line for (_, line), (name, _) in defs.items()}
    assert lines[first["decorated"] - 1].strip() == "@deco"
    namespace: dict = {}
    exec(compile(DEMO, str(package / "reachdemo.py"), "exec"), namespace)
    code = namespace["decorated"].__wrapped__.__code__
    assert code.co_firstlineno == first["decorated"]


def test_nothing_is_recorded_unless_enabled(tmp_path):
    _run_demo(tmp_path, None)
    assert not list(tmp_path.rglob("*.reach"))


def test_lint_fixture_reports_its_one_finding_in_both_formats(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(reachability.SRC))
    with open(tmp_path / "replay.log", "w") as log:
        assert reachability.lint_fixture(env, log) == 0
    assert (tmp_path / "replay.log").read_text().count(": ok]") == 2
