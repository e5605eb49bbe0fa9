"""Status codes and exception hierarchy for the pressio-style core.

LibPressio reports errors through integer status codes attached to each
plugin (``error_code`` / ``error_msg``).  In Python we favour exceptions,
but we keep the numeric codes so benchmark checkpoints and external
metric bridges can persist a faithful record of failures.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Any


class Status(enum.IntEnum):
    """Numeric status codes mirroring LibPressio's conventions.

    ``SUCCESS`` is zero; genuine failures are positive; warnings are
    negative (LibPressio reserves negative codes for warnings that do
    not abort the operation).
    """

    SUCCESS = 0
    GENERIC_ERROR = 1
    INVALID_OPTION = 2
    INVALID_TYPE = 3
    MISSING_OPTION = 4
    UNSUPPORTED = 5
    CORRUPT_STREAM = 6
    BOUND_VIOLATION = 7
    TASK_FAILED = 8
    TIMEOUT = 9
    WARNING = -1


#: Status codes that can never succeed on retry: the configuration (not
#: the execution) is at fault, so the bench quarantines the task on its
#: first failure instead of burning retry attempts on it.
PERMANENT_STATUSES = frozenset(
    {
        Status.INVALID_OPTION,
        Status.INVALID_TYPE,
        Status.MISSING_OPTION,
        Status.UNSUPPORTED,
    }
)


def is_permanent_status(status: int) -> bool:
    """True when a failure with this status cannot succeed on retry."""
    try:
        return Status(int(status)) in PERMANENT_STATUSES
    except ValueError:
        return False


def _stable_unit_interval(*parts: Any) -> float:
    """A deterministic draw in [0, 1) from hashed parts.

    Python's ``hash()`` is salted per process; worker processes must
    agree with the parent on every draw, so draws go through SHA-256
    instead.
    """
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """When and how to retry a failed operation.

    The one backoff formula of the project: the bench retries failed
    tasks with it, the serving client retries ``overloaded`` answers
    with it, and the fleet retries its control-port fan-out with it.

    * *transient* failures (generic errors, timeouts, crashed workers)
      are retried up to ``max_retries`` extra attempts, with exponential
      backoff and deterministic seeded jitter;
    * *permanent* failures (``UNSUPPORTED``, ``INVALID_OPTION``, …) are
      quarantined immediately — the configuration is wrong, not the
      execution, so no retry can succeed.

    ``base_delay=0`` (the default) disables backoff sleeping entirely,
    preserving the historical retry-immediately behaviour for tests and
    fast in-memory campaigns.
    """

    max_retries: int = 2
    #: First-retry delay in seconds; 0 retries immediately.
    base_delay: float = 0.0
    #: Multiplier applied per additional attempt.
    backoff: float = 2.0
    #: Ceiling on any single delay, in seconds.
    max_delay: float = 30.0
    #: Jitter amplitude as a fraction of the raw delay (±jitter).
    jitter: float = 0.1
    #: Seed for the deterministic jitter draw.
    seed: int = 0
    #: Status codes quarantined on first failure.
    permanent_statuses: frozenset = field(
        default_factory=lambda: frozenset(int(s) for s in PERMANENT_STATUSES)
    )

    def is_permanent(self, status: int) -> bool:
        return int(status) in self.permanent_statuses

    def classify(self, status: int) -> str:
        """``"permanent"`` or ``"transient"`` for a failure status."""
        return "permanent" if self.is_permanent(status) else "transient"

    def should_retry(self, status: int, attempts: int) -> bool:
        """Whether a task with *attempts* completed attempts retries."""
        return not self.is_permanent(status) and attempts <= self.max_retries

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before retry *attempt* (1-based) of *key*.

        Exponential in the attempt number, jittered deterministically
        from ``(seed, key, attempt)`` — a fixed seed reproduces the
        exact backoff schedule of a previous run.
        """
        if self.base_delay <= 0.0:
            return 0.0
        raw = min(self.base_delay * self.backoff ** max(attempt - 1, 0), self.max_delay)
        if self.jitter <= 0.0:
            return raw
        frac = _stable_unit_interval(self.seed, key, attempt)
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * frac)


def error_status(exc: BaseException) -> int:
    """The :class:`Status` code for an arbitrary exception.

    :class:`PressioError` subclasses carry their own code; anything else
    (I/O errors, bridge crashes, numpy faults) is a generic — and thus
    retriable — failure.
    """
    if isinstance(exc, PressioError):
        return int(exc.status)
    return int(Status.GENERIC_ERROR)


class PressioError(Exception):
    """Base class for all errors raised by this library.

    Parameters
    ----------
    msg:
        Human readable message.
    status:
        Numeric status code; persisted by the bench checkpoint layer.
    """

    status: Status = Status.GENERIC_ERROR

    def __init__(self, msg: str, *, status: Status | None = None) -> None:
        super().__init__(msg)
        if status is not None:
            self.status = Status(status)


class OptionError(PressioError):
    """An option was set with an unknown key or an incompatible value."""

    status = Status.INVALID_OPTION


class MissingOptionError(PressioError):
    """A required option was not provided before an operation."""

    status = Status.MISSING_OPTION


class TypeMismatchError(PressioError):
    """An option or buffer had the wrong type."""

    status = Status.INVALID_TYPE


class UnsupportedError(PressioError):
    """The requested operation is not supported by this plugin.

    Raised, for example, when a prediction scheme is asked for a
    predictor for a compressor it cannot model (e.g. the Jin/sian
    ratio-quality model on ZFP, reported as N/A in the paper's Table 2).
    """

    status = Status.UNSUPPORTED


class CorruptStreamError(PressioError):
    """A compressed stream failed validation during decode."""

    status = Status.CORRUPT_STREAM


class BoundViolationError(PressioError):
    """An error-bounded compressor failed to honour its bound.

    This is never expected in normal operation; it exists so the
    property-based test-suite can assert the invariant explicitly and so
    fault-injection tests have a domain-specific failure to raise.
    """

    status = Status.BOUND_VIOLATION


class TaskFailedError(PressioError):
    """A bench task failed; carries the task key for checkpoint replay."""

    status = Status.TASK_FAILED

    def __init__(self, msg: str, *, task_key: str | None = None) -> None:
        super().__init__(msg)
        self.task_key = task_key


class TaskTimeoutError(TaskFailedError):
    """A bench task exceeded its deadline and was abandoned.

    Raised (or recorded by name) by the queue's supervision layer — the
    serial engine's SIGALRM guard and the ledger's chunk-deadline charge
    on the process and cluster engines — when a task outlives
    ``task_timeout``.  Timeouts are transient: a hang may
    be a one-off (I/O stall, contended node), so the retry policy treats
    them like any other retriable fault.
    """

    status = Status.TIMEOUT
