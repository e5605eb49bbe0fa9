"""Shared AST infrastructure for the checker suite.

Checkers are deliberately *syntactic*: they parse, they never import the
code under analysis (importing would execute module side effects and
drag in optional dependencies).  The cost is heuristic name resolution —
calls are matched by bare name across the scanned tree — which the
checkers compensate for by flagging only patterns that are wrong under
any plausible resolution, and by honouring suppressions for the rest.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .findings import Finding, Suppressions, parse_suppressions

#: ``self.attr = ...  # loop-owned`` declares that the attribute belongs
#: to the event-loop thread: any access from a function shipped to a
#: worker thread (``to_thread``/``run_in_executor``/``Thread``) is a
#: data race (the ServeStats bug class, as RL603).
LOOP_OWNED_MARK = re.compile(r"#\s*loop-owned\b")

#: Method names so common on builtin containers/str/bytes that following
#: a bare-name edge through them would connect a call site to half the
#: codebase (``q.put`` is a queue, not ``CheckpointStore.put``).  Only
#: module-local definitions of these names are followed.
UBIQUITOUS_METHOD_NAMES = frozenset(
    {
        "add", "append", "clear", "close", "copy", "decode", "digest",
        "discard", "encode", "extend", "get", "hexdigest", "insert",
        "items", "join", "keys", "pop", "read", "remove", "setdefault",
        "sort", "split", "update", "values", "write",
    }
)

_LOCKY = ("lock", "cond", "mutex", "sem")


def is_locky(name: str) -> bool:
    """Does *name* read like a lock/condition/semaphore?"""
    low = name.lower()
    return any(tok in low for tok in _LOCKY)


def final_name(node: ast.AST) -> str:
    """Last name segment of an expression (``a.b.c(...)`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return final_name(node.func)
    return ""


def own_calls(fn: ast.AST) -> Iterator[ast.Call]:
    """Call nodes in *fn*'s body, excluding nested function definitions."""
    nested: set[int] = set()
    for node in ast.walk(fn):
        if node is not fn and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            for sub in ast.walk(node):
                nested.add(id(sub))
    for node in ast.walk(fn):
        if isinstance(node, ast.Call) and id(node) not in nested:
            yield node


def call_edge(
    node: ast.Call, module: "ModuleInfo", index: "ProjectIndex"
) -> tuple[str, list["FunctionRecord"]] | None:
    """Conservative call-graph edge: bare names and ``self.<method>`` only.

    Module-local definitions win; otherwise every same-named function in
    the tree is a target, except for :data:`UBIQUITOUS_METHOD_NAMES`.
    """
    func = node.func
    if isinstance(func, ast.Name):
        name = func.id
    elif (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        name = func.attr
    else:
        return None
    candidates = index.functions.get(name, ())
    local = [c for c in candidates if c.module is module]
    if not local and name in UBIQUITOUS_METHOD_NAMES:
        return None
    targets = local or list(candidates)
    return (name, targets) if targets else None


@dataclass
class ModuleInfo:
    """One parsed source file plus its comment-derived metadata."""

    path: str
    tree: ast.Module | None
    lines: list[str]
    suppressions: Suppressions
    syntax_error: str | None = None

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleInfo":
        lines = source.splitlines()
        suppressions = parse_suppressions(lines)
        try:
            tree = ast.parse(source, filename=path)
            error = None
        except SyntaxError as exc:
            tree = None
            error = f"{exc.msg} (line {exc.lineno})"
        return cls(
            path=path,
            tree=tree,
            lines=lines,
            suppressions=suppressions,
            syntax_error=error,
        )

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def expr_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers all exprs we feed
        return ""


def base_names(cls: ast.ClassDef) -> list[str]:
    """Bare names of a class's bases (``pkg.Base`` -> ``Base``)."""
    out = []
    for b in cls.bases:
        if isinstance(b, ast.Name):
            out.append(b.id)
        elif isinstance(b, ast.Attribute):
            out.append(b.attr)
    return out


@dataclass
class FunctionRecord:
    """Index entry for one function/method definition."""

    module: ModuleInfo
    node: ast.FunctionDef | ast.AsyncFunctionDef


class ProjectIndex:
    """Bare-name index of every function in the scanned tree.

    The call-graph walks of RL601 (blocking work behind sync helpers) and
    RL702 (spawns behind ``self._spawn(...)``) resolve edges through it.
    """

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.functions: dict[str, list[FunctionRecord]] = {}
        for module in modules:
            if module.tree is None:
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.functions.setdefault(node.name, []).append(
                        FunctionRecord(module=module, node=node)
                    )


class Checker:
    """Base class: one checker contributes findings for one module."""

    #: Rules this checker can emit (documentation + ``--rules`` filter).
    rules: tuple = ()

    def check_module(
        self, module: ModuleInfo, index: ProjectIndex
    ) -> Iterable[Finding]:  # pragma: no cover - interface
        raise NotImplementedError
