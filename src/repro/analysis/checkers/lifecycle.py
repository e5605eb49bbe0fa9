"""Resource lifecycle: OS-backed handles must reach close/unlink.

A named shared-memory segment whose creator crashes is never reclaimed
by the OS; the same failure shape applies to sqlite connections (WAL
files held open) and memmaps.  This checker
tracks function-local names bound to a resource constructor and flags
those that provably never escape the function nor reach a release call.

"Escapes" (ownership transfer, not a leak at this site): used as a
with-context, returned or yielded, passed as a call argument, stored
into an attribute/subscript/container, or re-aliased to another name.
"Released": ``.close()`` / ``.unlink()`` / ``.shutdown()`` /
``.terminate()`` / ``.stop()`` anywhere in the function — presence on
*some* path keeps the rule quiet; the try/finally placement is the fix
hint, not a second rule.

RL501 stops at the function boundary; RL502 follows the handle through
one call.  When a resource's *only* escape is being passed (as a bare
name) to a project function the index resolves unambiguously, the
checker maps the argument to the callee's parameter and re-runs the
leak analysis there: a callee that neither releases, stores, returns,
yields, re-passes nor with-contexts the received handle did not take
ownership, so the hand-off laundered a leak and the call site is
flagged.  Any ambiguity — method calls, multiple definitions of the
callee name, the handle inside a larger expression, ``*args`` landings
— keeps the old escape semantics (quiet): the rule only speaks when
both sides of the boundary are provable.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..base import Checker, FunctionRecord, ModuleInfo, ProjectIndex, expr_text
from ..findings import RESOURCE_LEAK, RESOURCE_LEAK_ACROSS_CALL, Finding

#: Final callee names that allocate an OS-backed resource.
RESOURCE_FINAL_NAMES = frozenset(
    {
        "SharedMemory",
        "memmap",
        "CheckpointStore",
        "PredictionClient",
        "FleetClient",
        "ServerThread",
        "ServeFleet",
        "create_connection",
    }
)
RESOURCE_DOTTED = frozenset({"sqlite3.connect"})

RELEASE_METHODS = frozenset(
    {"close", "unlink", "shutdown", "terminate", "stop"}
)


def _final_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_resource_ctor(call: ast.Call) -> bool:
    if expr_text(call.func) in RESOURCE_DOTTED:
        return True
    return _final_name(call.func) in RESOURCE_FINAL_NAMES


def _contains_name(node: ast.AST | None, name: str) -> bool:
    """True when *name* occurs as a value, not merely a method receiver.

    ``registry[k] = conn`` transfers ownership; ``cur = conn.execute(q)``
    only *uses* the handle — the receiver position must not count, or
    every method call would launder the leak.
    """
    if node is None:
        return False
    receivers: set[int] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            receivers.add(id(sub.value))
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Name)
            and sub.id == name
            and id(sub) not in receivers
        ):
            return True
    return False


def _map_to_parameter(call: ast.Call, callee: ast.FunctionDef | ast.AsyncFunctionDef, name: str) -> str | None:
    """The callee parameter *name* is passed to, or None when unprovable.

    Only a bare ``ast.Name`` argument maps — ``f(wrap(conn))`` hands the
    handle to ``wrap``, not ``f``.  Landing in ``*args``/``**kwargs``
    (or past the positional list) is unmappable, hence unprovable.
    """
    params = [a.arg for a in callee.args.posonlyargs + callee.args.args]
    kwonly = [a.arg for a in callee.args.kwonlyargs]
    for position, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            if _contains_name(arg, name):
                return None
            continue
        if isinstance(arg, ast.Name) and arg.id == name:
            return params[position] if position < len(params) else None
        if _contains_name(arg, name):
            return None
    for kw in call.keywords:
        if isinstance(kw.value, ast.Name) and kw.value.id == name and kw.arg:
            return kw.arg if kw.arg in params or kw.arg in kwonly else None
        if _contains_name(kw.value, name):
            return None
    return None


class ResourceLifecycleChecker(Checker):
    rules = (RESOURCE_LEAK, RESOURCE_LEAK_ACROSS_CALL)

    def check_module(
        self, module: ModuleInfo, index: ProjectIndex
    ) -> Iterable[Finding]:
        if module.tree is None:
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_function(module, node, index, findings)
        return findings

    def _scan_function(
        self,
        module: ModuleInfo,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        index: ProjectIndex,
        findings: list[Finding],
    ) -> None:
        # name -> (line, constructor text, defining Assign node id)
        tracked: dict[str, tuple[int, str, int]] = {}
        for stmt in ast.walk(fn):
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
                and _is_resource_ctor(stmt.value)
            ):
                name = stmt.targets[0].id
                tracked[name] = (stmt.lineno, expr_text(stmt.value.func), id(stmt))
        for name, (lineno, ctor, defining) in tracked.items():
            quiet, escaping_calls = self._escapes(fn, name, defining)
            if quiet:
                continue
            if not escaping_calls:
                findings.append(
                    Finding(
                        rule=RESOURCE_LEAK,
                        path=module.path,
                        line=lineno,
                        message=(
                            f"'{name}' ({ctor}) is opened here but never reaches "
                            "close/unlink and never leaves this function"
                        ),
                        hint="use a with-statement, or close in try/finally",
                    )
                )
                continue
            # The handle's only exits are call arguments: follow each
            # one level.  Every callee must be provably non-owning for
            # the rule to speak; one ambiguous or owning call is an
            # ownership transfer and the site stays quiet.
            laundering: list[tuple[ast.Call, str, str]] = []
            for call in escaping_calls:
                verdict = self._callee_drops_handle(call, name, index)
                if verdict is None:
                    laundering = []
                    break
                callee_name, param = verdict
                laundering.append((call, callee_name, param))
            for call, callee_name, param in laundering:
                findings.append(
                    Finding(
                        rule=RESOURCE_LEAK_ACROSS_CALL,
                        path=module.path,
                        line=call.lineno,
                        message=(
                            f"'{name}' ({ctor}) is handed to {callee_name}() as "
                            f"'{param}', which neither closes nor stores it — "
                            "the handle is dropped across the call boundary"
                        ),
                        hint=(
                            f"release '{name}' here in try/finally, or make "
                            f"{callee_name}() take ownership (store or close "
                            "the handle)"
                        ),
                    )
                )

    def _escapes(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        name: str,
        defining: int,
    ) -> tuple[bool, list[ast.Call]]:
        """(definitively handled?, calls the name escapes into).

        ``(True, [])`` — released or transferred by a non-call escape;
        nothing to report.  ``(False, [])`` — provably dropped in this
        function (RL501).  ``(False, calls)`` — the only exits are call
        arguments; RL502 decides by looking inside the callees.
        """
        escaping_calls: list[ast.Call] = []
        for node in ast.walk(fn):
            if id(node) == defining:
                continue
            # Released via a method call on the name.
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RELEASE_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                return True, []
            # With-context (including `with closing(x)`-style wrappers,
            # which also match the call-argument case below).
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if _contains_name(item.context_expr, name):
                        return True, []
            # Escapes the function.
            if isinstance(node, ast.Return) and _contains_name(node.value, name):
                return True, []
            if isinstance(node, (ast.Yield, ast.YieldFrom)) and _contains_name(
                getattr(node, "value", None), name
            ):
                return True, []
            if isinstance(node, ast.Call):
                args: list[ast.AST] = list(node.args)
                args.extend(kw.value for kw in node.keywords)
                if any(_contains_name(a, name) for a in args):
                    escaping_calls.append(node)
                    continue
            # Stored or re-aliased.
            if isinstance(node, ast.Assign) and _contains_name(node.value, name):
                return True, []
            if isinstance(node, ast.AugAssign) and _contains_name(node.value, name):
                return True, []
        return False, escaping_calls

    def _callee_drops_handle(
        self, call: ast.Call, name: str, index: ProjectIndex
    ) -> tuple[str, str] | None:
        """Resolve *call* and decide whether the callee drops the handle.

        Returns ``None`` when the callee cannot be proven non-owning
        (method call, unknown or ambiguous name, unmappable argument,
        or the callee releases/stores/forwards the parameter) —
        ambiguity keeps RL502 quiet.  Returns ``(callee_name, param)``
        when the callee provably drops the received handle.
        """
        if not isinstance(call.func, ast.Name):
            return None
        records = index.functions.get(call.func.id, [])
        if len(records) != 1:
            return None
        record: FunctionRecord = records[0]
        callee = record.node
        params = callee.args.posonlyargs + callee.args.args
        if params and params[0].arg in ("self", "cls"):
            # A bare-name call resolving to a method is a mismatch the
            # index cannot arbitrate — stay quiet.
            return None
        param = _map_to_parameter(call, callee, name)
        if param is None:
            return None
        quiet, forwarded = self._escapes(callee, param, defining=-1)
        if quiet or forwarded:
            # Released, stored, returned — or re-passed further down the
            # stack, beyond this rule's one-level horizon.
            return None
        return call.func.id, param
