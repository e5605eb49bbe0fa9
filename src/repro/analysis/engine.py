"""Engine: collect files, build the index, run checkers, apply suppressions."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .base import ModuleInfo, ProjectIndex
from .checkers import ALL_CHECKERS
from .findings import RULES, SYNTAX_ERROR, Finding, Severity, resolve_rule_token

#: Directories never worth descending into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


def collect_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` paths."""
    out: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            out.add(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = [
                    d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
                ]
                for fname in filenames:
                    if fname.endswith(".py"):
                        out.add(os.path.join(dirpath, fname))
        else:
            raise FileNotFoundError(path)
    return sorted(out)


@dataclass
class AnalysisReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    #: (path, line, token) suppression directives naming no known rule
    unknown_suppressions: list[tuple[str, int, str]] = field(default_factory=list)

    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def clean(self) -> bool:
        """No active finding and no suppression naming an unknown rule."""
        return not self.active() and not self.unknown_suppressions

    def to_json(self, show_suppressed: bool = False) -> dict[str, Any]:
        shown = self.findings if show_suppressed else self.active()
        return {
            "files": self.files,
            "findings": [f.to_record() for f in shown],
            "counts": {
                "active": len(self.active()),
                "suppressed": len(self.suppressed()),
            },
            "unknown_suppressions": [
                {"path": p, "line": ln, "token": tok}
                for p, ln, tok in self.unknown_suppressions
            ],
        }

    def render_text(self, show_suppressed: bool = False) -> str:
        lines: list[str] = []
        for f in self.active():
            lines.append(f.render())
        if show_suppressed:
            for f in self.suppressed():
                lines.append(f"{f.render()}  [suppressed]")
        for path, lineno, token in self.unknown_suppressions:
            lines.append(
                f"{path}:{lineno}: suppression names unknown rule {token!r}"
            )
        n_active = len(self.active())
        n_sup = len(self.suppressed())
        n_unknown = len(self.unknown_suppressions)
        lines.append(
            f"repro-lint: {self.files} file(s), {n_active} finding(s)"
            + (f", {n_sup} suppressed" if n_sup else "")
            + (f", {n_unknown} unknown suppression(s)" if n_unknown else "")
        )
        return "\n".join(lines)

    def render_github(self, show_suppressed: bool = False) -> str:
        """GitHub Actions workflow-command annotations, one per finding."""
        lines: list[str] = []
        shown = self.findings if show_suppressed else self.active()
        for f in shown:
            level = "error" if f.rule.severity is Severity.ERROR else "warning"
            if f.suppressed:
                level = "notice"
            message = f.message + (f" [hint: {f.hint}]" if f.hint else "")
            lines.append(
                f"::{level} file={f.path},line={f.line},"
                f"title={f.rule.id} {f.rule.name}::{message}"
            )
        for path, lineno, token in self.unknown_suppressions:
            lines.append(
                f"::error file={path},line={lineno},title=unknown suppression::"
                f"suppression names unknown rule {token!r}"
            )
        lines.append(self.render_text().splitlines()[-1])
        return "\n".join(lines)


def run_modules(
    modules: Iterable[ModuleInfo], rules: set[str] | None = None
) -> AnalysisReport:
    """Run every checker over pre-parsed modules (the testable core)."""
    modules = list(modules)
    report = AnalysisReport(files=len(modules))
    index = ProjectIndex(modules)
    checkers = [cls() for cls in ALL_CHECKERS]
    for module in modules:
        raw: list[Finding] = []
        if module.syntax_error is not None:
            raw.append(
                Finding(
                    rule=SYNTAX_ERROR,
                    path=module.path,
                    line=1,
                    message=module.syntax_error,
                )
            )
        else:
            for checker in checkers:
                raw.extend(checker.check_module(module, index))
        for f in raw:
            if rules is not None and f.rule.id not in rules:
                continue
            f.suppressed = module.suppressions.matches(f)
            report.findings.append(f)
        for lineno, token in module.suppressions.unknown:
            report.unknown_suppressions.append((module.path, lineno, token))
    report.findings.sort(key=lambda f: (f.path, f.line, f.rule.id))
    return report


def run_paths(
    paths: Sequence[str], rules: Sequence[str] | None = None
) -> AnalysisReport:
    """Lint files/directories; *rules* optionally restricts by id or name."""
    selected: set[str] | None = None
    if rules is not None:
        selected = set()
        for token in rules:
            resolved = resolve_rule_token(token)
            if not resolved:
                raise ValueError(
                    f"unknown rule {token!r}; known: "
                    + ", ".join(f"{r.id}/{r.name}" for r in RULES.values())
                )
            selected |= resolved
    modules = []
    for path in collect_files(paths):
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        modules.append(ModuleInfo.parse(path, source))
    return run_modules(modules, selected)


def render_json(report: AnalysisReport, show_suppressed: bool = False) -> str:
    return json.dumps(report.to_json(show_suppressed), indent=2, sort_keys=True)
