"""repro-lint: static checks for the bug classes this harness has shipped.

Each rule here exists because replaying it over the repository's
history found a real bug that a later commit fixed (DESIGN §9 has the
replay table):

* RL301 — a predictor's ``get_state`` ships raw ``get_params()`` output,
  which the exact state codec cannot round-trip;
* RL601 — blocking disk/socket work on the serving event-loop thread;
* RL603 — a ``# loop-owned`` attribute touched from a function shipped
  to a worker thread;
* RL702 — a child process forked while the parent holds live state.

Entry points:

* ``python -m repro.analysis src/`` — CLI with text/JSON/GitHub output
  and a zero-findings exit code;
* :func:`run_paths` — the same engine as a library call;
* :class:`LocksetWitness` — the Eraser-style runtime lockset sanitizer:
  instruments ``# guarded-by:`` attributes during stress tests and
  reports any whose candidate lockset goes empty (a data race no
  schedule needs to fire).

Suppressions: a ``repro-lint: disable=RL702`` comment (then ``# reason``)
on or directly above the offending line, or ``repro-lint:
disable-file=RL601`` once anywhere in a file.  Every suppression should
carry a justification; one naming an unknown rule fails the run.
"""

from .engine import AnalysisReport, run_paths
from .findings import Finding, Rule, Severity, all_rules
from .racewitness import (
    DataRaceViolation,
    LocksetWitness,
    RaceReport,
    guarded_attributes,
)

__all__ = [
    "AnalysisReport",
    "DataRaceViolation",
    "Finding",
    "LocksetWitness",
    "RaceReport",
    "Rule",
    "Severity",
    "all_rules",
    "guarded_attributes",
    "run_paths",
]
