"""Workers die with the process that started them.

A campaign's local worker ranks (on the process and cluster engines)
and a serving fleet's workers exist only to serve their parent.  When that
parent is killed outright (``kill -9``, the OOM killer) nothing stops
them in an orderly way, so each must notice by itself: every test here
starts the parent in a child interpreter, waits until its workers are
busy (a campaign's in the middle of a long task), SIGKILLs the parent
and expects every worker pid gone within a few seconds.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from typing import Callable

import pytest

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads process states from /proc"
)

ROOT = Path(__file__).resolve().parents[1]
PID_DIR_ENV = "REPRO_TEST_PID_DIR"

#: Long enough that a worker still in its task when the parent dies can
#: only be gone within the grace period if something ended it.
TASK_SECONDS = 120.0
GRACE_SECONDS = 5.0


def report_pid_then_sleep(task, worker):
    """The campaign's task function: name this worker's pid, then stay busy."""
    Path(os.environ[PID_DIR_ENV], str(os.getpid())).touch()
    time.sleep(TASK_SECONDS)
    return {}


CAMPAIGN = textwrap.dedent(
    """
    import sys

    from repro.bench import ExperimentRunner, TaskQueue
    from repro.bench.cluster import ClusterSpec
    from repro.dataset import HurricaneDataset
    from tests.test_parent_death import report_pid_then_sleep

    engine = sys.argv[1]
    cluster = ClusterSpec() if engine == "cluster" else None
    runner = ExperimentRunner(
        HurricaneDataset(shape=(8, 8, 4), timesteps=[0], fields=["P", "U"]),
        compressors=("szx",), bounds=(1e-4,), schemes=("tao2019",),
        queue=TaskQueue(2, engine, cluster=cluster),
    )
    runner.collect(task_fn=report_pid_then_sleep)
    """
)

FLEET = textwrap.dedent(
    """
    import multiprocessing, os, sys, time
    from pathlib import Path

    from repro.serve import ServeFleet

    multiprocessing.set_start_method(sys.argv[2])
    fleet = ServeFleet(sys.argv[1], workers=2, feat_cache=sys.argv[3]).start()
    for pid in fleet.worker_pids().values():
        Path(os.environ["REPRO_TEST_PID_DIR"], str(pid)).touch()
    time.sleep(120)
    """
)


def _running(pid: int) -> bool:
    """The process exists and is not a zombie waiting for its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _kill_parent_and_watch(
    script: str,
    args: list[str],
    pid_dir: Path,
    tmpdir: Path | None = None,
    before_kill: Callable[[], None] = lambda: None,
) -> list[int]:
    """Run *script* with *args* (under *tmpdir* as ``TMPDIR`` when given),
    wait for two worker pids in *pid_dir*, call *before_kill*, SIGKILL
    the parent; return the worker pids still running after the grace
    period."""
    env = dict(os.environ)
    env[PID_DIR_ENV] = str(pid_dir)
    if tmpdir is not None:
        env["TMPDIR"] = str(tmpdir)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    parent = subprocess.Popen([sys.executable, "-c", script, *args], cwd=ROOT, env=env)
    pids: list[int] = []
    try:
        deadline = time.monotonic() + 60.0
        while len(pids) < 2:
            assert parent.poll() is None, f"parent exited early ({parent.returncode})"
            assert time.monotonic() < deadline, "workers never reported in"
            time.sleep(0.05)
            pids = [int(p.name) for p in pid_dir.iterdir()]
        assert parent.pid not in pids
        before_kill()
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + GRACE_SECONDS
        while any(_running(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        return [p for p in pids if _running(p)]
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


@pytest.mark.parametrize("engine", ["process", "cluster"])
def test_campaign_workers_die_with_a_killed_campaign(engine, tmp_path):
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    survivors = _kill_parent_and_watch(CAMPAIGN, [engine], pid_dir)
    assert survivors == [], f"{engine} workers outlived their campaign: {survivors}"


@pytest.mark.parametrize(
    "start_method",
    # Under forkserver a worker's OS parent is the fork server, not the
    # fleet: the watch must follow the fleet all the same.
    [m for m in ("fork", "forkserver") if m in multiprocessing.get_all_start_methods()],
)
def test_fleet_workers_die_with_a_killed_fleet(start_method, tmp_path):
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    registry = tmp_path / "registry"
    registry.mkdir()
    survivors = _kill_parent_and_watch(FLEET, [str(registry), start_method, "off"], pid_dir)
    assert survivors == [], f"{start_method} fleet workers outlived their parent: {survivors}"


def test_killed_fleet_leaves_no_cache_dir_of_its_own(tmp_path):
    """The fleet made its shared cache directory, so its workers remove
    it when they see the fleet die."""
    pid_dir, registry, tmpdir = tmp_path / "pids", tmp_path / "registry", tmp_path / "tmp"
    for path in (pid_dir, registry, tmpdir):
        path.mkdir()
    made: list[Path] = []
    survivors = _kill_parent_and_watch(
        FLEET, [str(registry), "fork", "shared"], pid_dir, tmpdir,
        before_kill=lambda: made.extend(tmpdir.glob("featcache-*")),
    )
    assert survivors == [], f"fleet workers outlived their parent: {survivors}"
    assert len(made) == 1
    assert list(tmpdir.glob("featcache-*")) == []
