"""The three checker implementations behind repro-lint."""

from .asyncdiscipline import AsyncDisciplineChecker
from .forksafety import ForkSafetyChecker
from .statecodec import StateCodecChecker

#: Instantiation order is also report-grouping order.
ALL_CHECKERS = (
    StateCodecChecker,
    AsyncDisciplineChecker,
    ForkSafetyChecker,
)

__all__ = [
    "ALL_CHECKERS",
    "AsyncDisciplineChecker",
    "ForkSafetyChecker",
    "StateCodecChecker",
]
