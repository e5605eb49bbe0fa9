"""Findings model: rules, severities, and suppression comments.

A *rule* is a stable id (``RL702``) plus a human name
(``fork-with-live-state``); a *finding* anchors one rule violation to
``file:line`` with a message and a fix hint.  Suppressions are comments
that reference rules by id or name — ``repro-lint: disable=RL702`` or
``repro-lint: disable-file=blocking-call-in-async`` after the ``#``,
followed by a second ``#`` and the reason.

Line-level suppressions apply to findings on the commented line or the
line directly below a standalone suppression comment; file-level
suppressions apply everywhere in the file.  ``disable=all`` silences
every rule.  A suppression naming no known rule fails the run: a rule
that is deleted or renamed cannot leave a silent directive behind.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One checkable contract."""

    id: str
    name: str
    summary: str
    severity: Severity = Severity.ERROR


@dataclass
class Finding:
    """One rule violation anchored to a source location."""

    rule: Rule
    path: str
    line: int
    message: str
    hint: str = ""
    col: int = 0
    suppressed: bool = False

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_record(self) -> dict[str, Any]:
        return {
            "rule": self.rule.id,
            "name": self.rule.name,
            "severity": self.rule.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "suppressed": self.suppressed,
        }

    def render(self) -> str:
        hint = f"  [hint: {self.hint}]" if self.hint else ""
        return (
            f"{self.path}:{self.line}: {self.rule.id} "
            f"({self.rule.name}) {self.message}{hint}"
        )


# -- rule registry -------------------------------------------------------------

RULES: dict[str, Rule] = {}


def _rule(id: str, name: str, summary: str, severity: Severity = Severity.ERROR) -> Rule:
    rule = Rule(id=id, name=name, summary=summary, severity=severity)
    RULES[id] = rule
    return rule


SYNTAX_ERROR = _rule(
    "RL000", "syntax-error", "file does not parse; nothing else can be checked"
)
STATE_GET_PARAMS = _rule(
    "RL301",
    "state-codec-get-params",
    "get_state() ships raw get_params() output (estimator objects leak into state)",
)
ASYNC_BLOCKING_CALL = _rule(
    "RL601",
    "blocking-call-in-async",
    "a blocking call (sleep, disk/socket I/O, subprocess, untimed acquire) "
    "runs on the event-loop thread inside an async def",
)
LOOP_OWNED_CROSS_THREAD = _rule(
    "RL603",
    "loop-owned-cross-thread",
    "a '# loop-owned' annotated attribute is touched from a function shipped "
    "to a worker thread (to_thread/run_in_executor/Thread)",
)
FORK_WITH_LIVE_STATE = _rule(
    "RL702",
    "fork-with-live-state",
    "a child process is forked while the parent function holds live state "
    "(running thread, held lock, open socket/sqlite/file handle)",
)


def all_rules() -> list[Rule]:
    return [RULES[k] for k in sorted(RULES)]


def resolve_rule_token(token: str) -> set[str]:
    """Map a suppression/selection token to rule ids (empty if unknown).

    Accepts exact ids (``RL601``), names (``blocking-call-in-async``),
    ``all``, and family prefixes (``RL6`` selects every RL6xx rule).
    """
    token = token.strip()
    if not token:
        return set()
    if token.lower() == "all":
        return set(RULES)
    if token in RULES:
        return {token}
    by_name = {r.name: r.id for r in RULES.values()}
    if token in by_name:
        return {by_name[token]}
    if re.fullmatch(r"RL\d+", token):
        return {rid for rid in RULES if rid.startswith(token)}
    return set()


# -- suppression comments ------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<scope>-file)?\s*=\s*(?P<rules>[\w\-, ]+)"
)


@dataclass
class Suppressions:
    """Parsed suppression comments for one file."""

    #: line number -> rule ids silenced on that line
    lines: dict[int, set[str]] = field(default_factory=dict)
    #: rule ids silenced for the whole file
    file_wide: set[str] = field(default_factory=set)
    #: (line, token) pairs that named no known rule — they fail the run
    unknown: list[tuple[int, str]] = field(default_factory=list)

    def matches(self, finding: Finding) -> bool:
        if finding.rule.id in self.file_wide:
            return True
        return finding.rule.id in self.lines.get(finding.line, set())


def parse_suppressions(source_lines: Iterable[str]) -> Suppressions:
    """Extract suppression directives from raw source lines.

    A directive on a line with code applies to that line; a directive on
    a standalone comment line applies to the *next* line (so a long
    statement can be annotated without breaking the line length).
    """
    out = Suppressions()
    for lineno, text in enumerate(source_lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if m is None:
            continue
        ids: set[str] = set()
        for token in m.group("rules").split(","):
            resolved = resolve_rule_token(token)
            if not resolved and token.strip():
                out.unknown.append((lineno, token.strip()))
            ids |= resolved
        if not ids:
            continue
        if m.group("scope"):
            out.file_wide |= ids
        else:
            target = lineno
            if text[: m.start()].strip() == "":  # standalone comment line
                target = lineno + 1
                # A standalone directive also covers itself, so a block
                # opener directly on the next line is the common case.
                out.lines.setdefault(lineno, set()).update(ids)
            out.lines.setdefault(target, set()).update(ids)
    return out
