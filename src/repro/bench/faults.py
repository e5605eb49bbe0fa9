"""Fault-domain supervision: retry policies and the chaos harness.

The paper motivates LibPressio-Predict-Bench with *resilience* — §4.3's
checkpointing exists "in the case of failures", and the failures it has
in mind are real: the external SECRE/FXRZ metric bridges crash, hang,
and misreport.  This module gives the harness a vocabulary for those
fault classes:

* :class:`~repro.core.errors.RetryPolicy` (re-exported here) — how many
  times to retry, with what backoff, and which
  :class:`~repro.core.errors.Status` codes are *permanent* (a task asking
  for an unsupported scheme will never succeed; quarantine it on the
  first failure instead of burning attempts);
* :class:`ChaosPlan` — the multi-class, seeded chaos harness: worker
  crashes (``os._exit``), hangs, checkpoint payload corruption, and
  result-sink failures, each fired deterministically per task key and at
  most once (injection markers survive worker-process death, so a
  crashed-and-respawned worker does not crash-loop on the same task).

Determinism: every injection decision is a pure function of
``(seed, fault class, task key)``; two runs with the same seed inject
the same faults into the same tasks regardless of scheduling order,
worker count, or engine.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
import weakref
from typing import Any, Callable, TYPE_CHECKING

from ..core.errors import RetryPolicy, TaskFailedError, _stable_unit_interval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .tasks import Task


#: Fault classes a :class:`ChaosPlan` can inject.  The first five hit
#: the collection harness (task execution, checkpoint, result sink);
#: the next two hit the continuous-learning loop (trainer killed at a
#: publish fault point, at-rest corruption of a freshly published
#: blob); ``cache_kill`` kills a serving worker in
#: the middle of a shared-featurization-cache store (row written to its
#: temp file, not yet renamed); ``rank_kill`` abruptly kills a whole
#: cluster worker rank at a selected task — the node-loss fault the
#: coordinator's heartbeat supervision and requeue must absorb.
CHAOS_CLASSES = (
    "crash",
    "hang",
    "exception",
    "corrupt",
    "sink",
    "trainer_kill",
    "publish_corrupt",
    "cache_kill",
    "rank_kill",
)


class ChaosPlan:
    """Seeded multi-class fault injection for chaos runs.

    Each fault class fires with its own per-task probability, decided
    deterministically from ``(seed, class, task key)``.  Every selected
    injection fires **once**: a marker file under ``state_dir`` records
    it, so the injection survives worker-process death (a crash-injected
    task must not crash the respawned worker again) and resumed campaigns
    recover instead of re-faulting.  Without a ``state_dir`` the plan
    makes a temporary one and removes it when the plan, and every plan
    bound from it, is released.

    The plan is picklable and doubles as the task-function wrapper
    (``plan.bind(fn)`` — what :meth:`~repro.bench.taskqueue.TaskQueue.run`
    hands every engine's workers when given ``chaos=``), the result-sink
    wrapper (``plan.wrap_sink(on_result)``), and the at-rest checkpoint
    corrupter (``plan.corrupt_checkpoint(store)``).
    """

    def __init__(
        self,
        task_fn: Callable[["Task", int], dict[str, Any]] | None = None,
        *,
        seed: int = 0,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        exception_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        sink_rate: float = 0.0,
        trainer_kill_rate: float = 0.0,
        publish_corrupt_rate: float = 0.0,
        cache_kill_rate: float = 0.0,
        rank_kill_rate: float = 0.0,
        hang_seconds: float = 5.0,
        state_dir: str | None = None,
    ) -> None:
        self.task_fn = task_fn
        self.seed = int(seed)
        self.rates = {
            "crash": float(crash_rate),
            "hang": float(hang_rate),
            "exception": float(exception_rate),
            "corrupt": float(corrupt_rate),
            "sink": float(sink_rate),
            "trainer_kill": float(trainer_kill_rate),
            "publish_corrupt": float(publish_corrupt_rate),
            "cache_kill": float(cache_kill_rate),
            "rank_kill": float(rank_kill_rate),
        }
        self.hang_seconds = float(hang_seconds)
        self._own_dir: _OwnedDir | None = None
        if state_dir is None:
            self._own_dir = _OwnedDir()
            state_dir = self._own_dir.path
        else:
            os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir

    @classmethod
    def from_spec(
        cls,
        spec: str,
        *,
        seed: int = 0,
        hang_seconds: float = 5.0,
        state_dir: str | None = None,
    ) -> "ChaosPlan":
        """Parse ``"crash:0.1,hang:0.05"`` into a plan.

        Classes: ``crash``, ``hang``, ``exception``, ``corrupt``,
        ``sink``, ``trainer_kill``, ``publish_corrupt``, ``cache_kill``,
        ``rank_kill``.  A bare class name means rate 1.0.
        """
        rates: dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, rate = part.partition(":")
            name = name.strip()
            if name not in CHAOS_CLASSES:
                raise ValueError(
                    f"unknown chaos class {name!r}; choose from {CHAOS_CLASSES}"
                )
            rates[name] = float(rate) if rate else 1.0
        return cls(
            seed=seed,
            hang_seconds=hang_seconds,
            state_dir=state_dir,
            **{f"{name}_rate": rate for name, rate in rates.items()},
        )

    # -- deterministic selection -----------------------------------------------
    def selects(self, kind: str, key: str) -> bool:
        """Whether *kind* is planned for *key* (ignores fired markers)."""
        rate = self.rates[kind]
        if rate <= 0.0:
            return False
        return _stable_unit_interval(self.seed, kind, key) < rate

    def _marker(self, kind: str, key: str) -> str:
        digest = hashlib.sha256(key.encode()).hexdigest()[:20]
        return os.path.join(self.state_dir, f"{kind}-{digest}")

    def _fire_once(self, kind: str, key: str) -> bool:
        """True exactly once per selected (kind, key), across processes."""
        if not self.selects(kind, key):
            return False
        try:
            # O_CREAT|O_EXCL: the marker is the atomic once-only latch.
            fd = os.open(self._marker(kind, key), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def injected_counts(self) -> dict[str, int]:
        """How many injections of each class have fired so far."""
        counts = dict.fromkeys(CHAOS_CLASSES, 0)
        try:
            names = os.listdir(self.state_dir)
        except OSError:
            return counts
        for name in names:
            kind = name.split("-", 1)[0]
            if kind in counts:
                counts[kind] += 1
        return counts

    # -- task-function wrapping ------------------------------------------------
    def bind(self, task_fn: Callable[["Task", int], dict[str, Any]]) -> "ChaosPlan":
        """A copy of this plan wrapping *task_fn* (shared marker state)."""
        clone = ChaosPlan(
            task_fn,
            seed=self.seed,
            hang_seconds=self.hang_seconds,
            state_dir=self.state_dir,
        )
        clone.rates = dict(self.rates)
        clone._own_dir = self._own_dir
        return clone

    def __getstate__(self) -> dict[str, Any]:
        # A copy in another process shares the markers, never their removal.
        return {**self.__dict__, "_own_dir": None}

    def __call__(self, task: "Task", worker: int) -> dict[str, Any]:
        if self.task_fn is None:
            raise TaskFailedError("ChaosPlan has no task function; use bind()")
        key = task.key()
        if self._fire_once("crash", key):
            # A worker process dying abruptly — skips atexit/finally, the
            # exact failure mode of a segfaulting metric bridge.  On the
            # serial engine there is no worker process to kill safely, so
            # degrade to an exception (the queue still sees a fault).
            import multiprocessing

            if multiprocessing.current_process().name != "MainProcess":
                os._exit(17)
            raise TaskFailedError("chaos: worker crash (in-process fallback)", task_key=key)
        if self._fire_once("hang", key):
            time.sleep(self.hang_seconds)
        if self._fire_once("exception", key):
            raise TaskFailedError("chaos: injected exception", task_key=key)
        return self.task_fn(task, worker)

    # -- loop-stage faults -------------------------------------------------------
    def loop_fault(self, kind: str, key: str) -> bool:
        """Fire a continuous-learning-loop fault exactly once per *key*.

        ``kind`` is one of ``trainer_kill``/``publish_corrupt``/
        ``cache_kill``; *key* names the stage instance
        (round, registry key, publish fault point…).  Same once-only
        marker discipline as the collection classes, so a retried stage
        does not re-fault on the same site and the supervisor provably
        makes progress through the chaos.
        """
        if kind not in self.rates:
            raise ValueError(f"unknown chaos class {kind!r}")
        return self._fire_once(kind, key)

    # -- cluster-rank faults -----------------------------------------------------
    def fire_rank_kill(self, key: str) -> bool:
        """True exactly once per selected *key*: the worker rank hosting
        this task must die abruptly (``os._exit``, no ack).

        The once-only marker lives in the shared ``state_dir``, so a
        respawned rank — or a different rank the coordinator requeues
        the batch to — does not re-die on the same task, and the chaos
        campaign provably drains.  The caller does the killing: the
        decision must be separable from the act so tests can count
        planned kills without dying themselves.
        """
        return self._fire_once("rank_kill", key)

    # -- sink wrapping -----------------------------------------------------------
    def wrap_sink(self, on_result: Callable[[Any], None]) -> Callable[[Any], None]:
        """Wrap a queue ``on_result`` sink with injected sink failures."""

        def chaotic_sink(result: Any) -> None:
            if result.ok and self._fire_once("sink", result.task.key()):
                raise TaskFailedError(
                    "chaos: injected sink failure", task_key=result.task.key()
                )
            on_result(result)

        return chaotic_sink

    # -- checkpoint corruption ---------------------------------------------------
    def corrupt_checkpoint(self, store: Any) -> list[str]:
        """Corrupt committed payload rows at rest (once per selected key).

        Returns the corrupted keys; ``CheckpointStore.verify()`` must
        detect every one of them and return the keys to ``pending()``.
        """
        store.flush()
        victims = [
            key
            for key in store.keys()
            if self.selects("corrupt", key) and self._fire_once("corrupt", key)
        ]
        if victims:
            store.corrupt_rows(victims)
        return victims


class _OwnedDir:
    """A plan's own marker directory, removed once the last plan holding
    it is released — by the process that made it, never by a fork."""

    def __init__(self) -> None:
        self.path = tempfile.mkdtemp(prefix="chaos-plan-")
        weakref.finalize(self, _remove_dir, self.path, os.getpid())


def _remove_dir(path: str, pid: int) -> None:
    if os.getpid() == pid:
        shutil.rmtree(path, ignore_errors=True)


__all__ = [
    "CHAOS_CLASSES",
    "ChaosPlan",
    "RetryPolicy",
]
