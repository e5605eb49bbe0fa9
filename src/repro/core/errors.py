"""Status codes and exception hierarchy for the pressio-style core.

LibPressio reports errors through integer status codes attached to each
plugin (``error_code`` / ``error_msg``).  In Python we favour exceptions,
but we keep the numeric codes so benchmark checkpoints and external
metric bridges can persist a faithful record of failures.
"""

from __future__ import annotations

import enum


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
