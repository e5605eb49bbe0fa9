"""The continuous-learning loop: drift → re-collect → retrain → republish.

The operational story the versioned registry was built for, closed
into a supervised, chaos-proofed pipeline.  A :class:`ContinuousLearner`
watches live servers' drift monitors (the ``drift`` op); when a model
fires, it drives one **rollover**:

1. **recover** — :meth:`ModelRegistry.recover` heals anything a
   previously killed trainer left behind (rolls an intact committed
   version forward, garbage-collects orphaned stages, quarantines
   corrupt blobs, clears the publish journal);
2. **collect** — an incremental re-collect through the caller's
   ``runner_factory``: the runner shares the campaign's
   :class:`~repro.bench.checkpoint.CheckpointStore`, so only tasks the
   checkpoint does not already hold actually run (resume, not restart);
3. **publish** — retrain and publish vN+1 through the registry's
   journaled two-phase commit, with round-trip proof;
4. **verify** — reload every published key; a blob corrupted after its
   commit is quarantined by the load (``LATEST`` retargeted) and
   triggers a republish (as vN+2) instead of ever being loaded again.

Nothing is sent to the servers: each one re-validates its warm model
against the registry's ``LATEST`` pointer whenever a batch takes it,
so the publish (and any quarantine retarget) reaches every worker of
every server by itself, with zero restarts.

Every stage runs under a :class:`~repro.core.errors.RetryPolicy`
supervisor: stage failures (including injected trainer kills) back off
and retry with per-stage memoisation — observations collected once,
receipts kept across verify retries — up to a crash-loop cap
(:class:`RolloverFailedError` beyond it).  Servers keep answering from
vN the whole time; the only externally visible degradation is the
``stale`` flag in their stats.

Chaos integration (:class:`~repro.bench.faults.ChaosPlan`):
``trainer_kill`` kills the trainer at collect or at a precise publish
fault point, ``publish_corrupt`` damages the freshly committed blob at
rest.  Both seeded, both once-per-site, so a chaos rollover provably
converges.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..core.errors import PressioError, RetryPolicy, Status
from .client import PredictionClient
from .registry import (
    PUBLISH_FAULT_POINTS,
    ModelRegistry,
    PublishedModel,
    _parse_version,
)


class LoopStageError(PressioError):
    """A loop stage failed transiently; the supervisor retries it."""

    status = Status.TASK_FAILED


class TrainerKilledError(LoopStageError):
    """Chaos: the trainer process was killed mid-stage."""


class RolloverFailedError(PressioError):
    """A rollover exhausted its crash-loop cap without converging."""

    status = Status.TASK_FAILED


def _vnum(version: str | None) -> int:
    return _parse_version(version) or 0 if version else 0


@dataclass
class RolloverReport:
    """What one completed rollover did, for logs and benchmarks."""

    round: int
    attempts: int = 0
    stage_attempts: dict[str, int] = field(default_factory=dict)
    published: dict[str, str] = field(default_factory=dict)  # key -> version
    recovered: dict[str, int] = field(default_factory=dict)
    duration_s: float = 0.0

    def summary(self) -> str:
        versions = ", ".join(
            f"{k[:12]}…/{v}" for k, v in sorted(self.published.items())
        )
        return (
            f"round {self.round}: published {versions or 'nothing'} in "
            f"{self.attempts} attempt(s), {self.duration_s:.2f}s"
        )


class ContinuousLearner:
    """Supervise drift-triggered rollovers against live servers.

    Parameters
    ----------
    registry:
        The registry servers load from; rollovers publish into it.
    runner_factory:
        ``runner_factory(round_no)`` returns a fresh
        :class:`~repro.bench.runner.ExperimentRunner` for that round's
        (incremental) campaign.  Sharing one checkpoint store across
        rounds is what makes re-collection incremental.  The learner
        closes each runner when it is done with it.
    servers:
        ``(host, port)`` pairs of live :class:`PredictionServer`\\ s (or
        fleets) whose drift monitors :meth:`run` polls.
    retry_policy:
        Backoff schedule between stage retries, and the crash-loop cap:
        a rollover that cannot converge within ``max_retries + 1``
        supervised attempts raises :class:`RolloverFailedError` instead
        of spinning forever.  The default retries immediately, up to 12
        attempts.
    chaos:
        Optional :class:`~repro.bench.faults.ChaosPlan` with
        ``trainer_kill``/``publish_corrupt`` rates.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        runner_factory: Callable[[int], Any],
        *,
        servers: Sequence[tuple[str, int]] = (),
        retry_policy: RetryPolicy | None = None,
        chaos: Any | None = None,
        verify_n: int = 4,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.registry = registry
        self.runner_factory = runner_factory
        # Entries are (host, port) pairs or fleet-like objects exposing
        # control_addresses(); the latter expand at *call* time, because
        # a fleet's restarted workers report fresh control ports.
        self.servers = [
            entry if hasattr(entry, "control_addresses") else (entry[0], int(entry[1]))
            for entry in servers
        ]
        self.retry_policy = retry_policy or RetryPolicy(max_retries=11)
        self.chaos = chaos
        self.verify_n = int(verify_n)
        self.sleep = sleep
        self.reports: list[RolloverReport] = []

    # -- chaos hooks -------------------------------------------------------------
    def _kill(self, site: str) -> None:
        if self.chaos is not None and self.chaos.loop_fault("trainer_kill", site):
            raise TrainerKilledError(f"chaos: trainer killed at {site}")

    def _publish_fault_hook(self, round_no: int):
        if self.chaos is None:
            return None

        def hook(point: str, key: str, version: str) -> None:
            # Site excludes the version: a retried publish allocates a
            # fresh vN+2, and a site keyed on it would re-fault forever.
            assert point in PUBLISH_FAULT_POINTS
            self._kill(f"round{round_no}:publish:{key}:{point}")

        return hook

    # -- drift polling -----------------------------------------------------------
    def _server_addresses(self) -> list[tuple[str, int]]:
        """The current set of per-server addresses, fleets expanded live.

        A :class:`~repro.serve.fleet.ServeFleet` entry contributes one
        address per live worker (its control ports — the data port is
        kernel-balanced and cannot address a specific worker), so a
        drift poll reads every member of the fleet.
        """
        addresses: list[tuple[str, int]] = []
        for entry in self.servers:
            if hasattr(entry, "control_addresses"):
                addresses.extend(entry.control_addresses())
            else:
                addresses.append(entry)
        return addresses

    def fired_keys(self) -> dict[str, dict[str, Any]]:
        """Keys whose drift monitor has fired and is still stale."""
        fired: dict[str, dict[str, Any]] = {}
        for host, port in self._server_addresses():
            with PredictionClient(host, port) as client:
                body = client.drift()
            for key, snap in body.get("monitors", {}).items():
                if snap.get("fired") and snap.get("stale"):
                    fired[key] = snap
        return fired

    # -- the rollover pipeline ---------------------------------------------------
    def rollover(self, round_no: int) -> RolloverReport:
        """Drive one full recover→collect→publish→verify pass.

        Supervised: every stage may fail (or be chaos-killed) and is
        retried with backoff, memoising completed stages, up to the
        crash-loop cap.  Returns the report; raises
        :class:`RolloverFailedError` past the cap.
        """
        t0 = time.monotonic()
        report = RolloverReport(round=round_no)
        stage_attempts: Counter[str] = Counter()
        recovered: Counter[str] = Counter()
        runner = None
        observations = None
        receipts: list[PublishedModel] | None = None
        last_error: BaseException | None = None
        max_attempts = max(self.retry_policy.max_retries, 0) + 1
        try:
            for attempt in range(1, max_attempts + 1):
                report.attempts = attempt
                try:
                    stage_attempts["recover"] += 1
                    actions = self.registry.recover()
                    for action, items in actions.items():
                        recovered[action] += len(items)
                    if observations is None:
                        stage_attempts["collect"] += 1
                        self._kill(f"round{round_no}:collect")
                        if runner is None:
                            runner = self.runner_factory(round_no)
                        observations = runner.collect().observations
                    if receipts is None:
                        stage_attempts["publish"] += 1
                        receipts = runner.publish(
                            self.registry,
                            observations,
                            verify_n=self.verify_n,
                            meta={"loop_round": round_no},
                            fault_hook=self._publish_fault_hook(round_no),
                        )
                        if not receipts:
                            raise RolloverFailedError(
                                f"round {round_no}: campaign published nothing"
                            )
                        if self.chaos is not None:
                            for receipt in receipts:
                                if self.chaos.loop_fault(
                                    "publish_corrupt",
                                    f"round{round_no}:{receipt.key}",
                                ):
                                    self.registry.damage_version(
                                        receipt.key, receipt.version
                                    )
                    stage_attempts["verify"] += 1
                    for receipt in receipts:
                        # load() heals: a blob corrupted after commit is
                        # quarantined here and LATEST retargeted past it.
                        loaded = self.registry.load(receipt.key)
                        if _vnum(loaded.version) < _vnum(receipt.version):
                            receipts = None
                            raise LoopStageError(
                                f"round {round_no}: {receipt.version} of "
                                f"{receipt.key[:12]}… did not survive "
                                "verification; republishing"
                            )
                    report.published = {r.key: r.version for r in receipts}
                    report.stage_attempts = dict(stage_attempts)
                    report.recovered = {
                        k: n for k, n in recovered.items() if n
                    }
                    report.duration_s = time.monotonic() - t0
                    self.reports.append(report)
                    return report
                except (LoopStageError, OSError) as exc:
                    last_error = exc
                    delay = self.retry_policy.delay(f"round{round_no}", attempt)
                    if delay > 0:
                        self.sleep(delay)
        finally:
            if runner is not None:
                runner.close()
        raise RolloverFailedError(
            f"round {round_no}: rollover did not converge within "
            f"{max_attempts} attempts (crash-loop cap); "
            f"last error: {last_error}"
        ) from last_error

    # -- the outer loop ----------------------------------------------------------
    def run(
        self,
        max_rounds: int,
        *,
        poll_interval: float = 1.0,
        max_polls: int = 10_000,
    ) -> list[RolloverReport]:
        """Poll servers for fired drift monitors; roll over on each fire.

        Completes after *max_rounds* rollovers or *max_polls* idle polls
        (whichever first) and returns the rollover reports.  With no
        servers attached there is nothing to poll — the caller drives
        :meth:`rollover` directly instead.
        """
        reports: list[RolloverReport] = []
        polls = 0
        while len(reports) < int(max_rounds) and polls < int(max_polls):
            if not self.fired_keys():
                polls += 1
                self.sleep(poll_interval)
                continue
            reports.append(self.rollover(len(self.reports) + 1))
        return reports


__all__ = [
    "ContinuousLearner",
    "LoopStageError",
    "RolloverFailedError",
    "RolloverReport",
    "TrainerKilledError",
]
