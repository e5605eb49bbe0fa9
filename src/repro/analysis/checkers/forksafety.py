"""Fork safety: what the parent holds, the child inherits (broken).

A ``fork()`` clones the whole Python heap mid-flight: locks keep their
held/unheld bit but lose the thread that would release them, sockets
and sqlite connections become two handles to one kernel object, other
threads simply do not exist in the child.  The bugs this breeds — a
child deadlocked on a lock its parent held, a placeholder socket kept
alive by every worker, two processes writing one sqlite handle — only
fire under chaos schedules, so RL702 checks them statically: the spawn
site sits inside live parent state — a lock-like ``with`` block or
unreleased ``.acquire``, a started and unjoined thread, an open
socket/sqlite/file/``CheckpointStore`` handle in the same function, or
an ``async def`` (forking with a running event loop clones a loop that
will never be scheduled).  Spawn sites are found directly and through
the call graph (``self._spawn(...)`` counts), so extracting the
``Process`` call into a helper does not hide the hazard.

``subprocess`` is deliberately *not* a spawn site: it forks-and-execs
with ``close_fds=True``, so the child never sees the parent's heap or
descriptors.  State tracking is lexical (source order within one
function).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..base import (
    Checker,
    FunctionRecord,
    ModuleInfo,
    ProjectIndex,
    call_edge,
    expr_text,
    final_name,
    is_locky,
    own_calls,
)
from ..findings import FORK_WITH_LIVE_STATE, Finding

#: Constructor final names whose result must not cross a fork boundary,
#: mapped to the kind named in the finding message.
FORK_SENSITIVE_CTORS = {
    "socket": "socket",
    "create_connection": "socket",
    "connect": "sqlite connection",
    "CheckpointStore": "checkpoint store",
    "open": "file handle",
}

#: Callee final names that create a child process from the live heap.
SPAWN_CTORS = frozenset({"Process", "ProcessPoolExecutor"})
SPAWN_DOTTED = frozenset({"os.fork"})

#: Methods that retire a tracked handle (or thread) for this analysis.
RELEASING_METHODS = frozenset(
    {"close", "join", "release", "shutdown", "stop", "terminate", "unlink"}
)


def _is_spawn_call(node: ast.Call) -> bool:
    if expr_text(node.func) in SPAWN_DOTTED:
        return True
    return final_name(node.func) in SPAWN_CTORS


class ForkSafetyChecker(Checker):
    rules = (FORK_WITH_LIVE_STATE,)

    def __init__(self) -> None:
        #: function-node id -> does it (transitively) spawn a process?
        self._spawns_memo: dict[int, bool] = {}

    def check_module(
        self, module: ModuleInfo, index: ProjectIndex
    ) -> Iterable[Finding]:
        if module.tree is None:
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(module, index, node, findings)
        return findings

    # -- transitive spawners ----------------------------------------------------
    def _spawns(self, record: FunctionRecord, index: ProjectIndex) -> bool:
        key = id(record.node)
        if key in self._spawns_memo:
            return self._spawns_memo[key]
        self._spawns_memo[key] = False  # cycle guard
        for call in own_calls(record.node):
            if _is_spawn_call(call):
                self._spawns_memo[key] = True
                return True
        for call in own_calls(record.node):
            edge = call_edge(call, record.module, index)
            if edge is None:
                continue
            _, targets = edge
            if any(self._spawns(t, index) for t in targets):
                self._spawns_memo[key] = True
                return True
        return False

    # -- per-function lexical walk ----------------------------------------------
    def _check_function(
        self,
        module: ModuleInfo,
        index: ProjectIndex,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        findings: list[Finding],
    ) -> None:
        state = _LiveState(in_async=isinstance(fn, ast.AsyncFunctionDef))
        self._walk(module, index, fn.body, state, findings)

    def _walk(
        self,
        module: ModuleInfo,
        index: ProjectIndex,
        body: list[ast.stmt],
        state: "_LiveState",
        findings: list[Finding],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes are walked as their own functions
            self._apply_statement(module, index, stmt, state, findings)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                entered_locks: list[str] = []
                entered_handles: list[str] = []
                for item in stmt.items:
                    name = final_name(item.context_expr)
                    if is_locky(name):
                        entered_locks.append(name)
                        continue
                    if (
                        isinstance(item.context_expr, ast.Call)
                        and final_name(item.context_expr.func) in FORK_SENSITIVE_CTORS
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        kind = FORK_SENSITIVE_CTORS[final_name(item.context_expr.func)]
                        state.handles[item.optional_vars.id] = kind
                        entered_handles.append(item.optional_vars.id)
                state.held_locks.extend(entered_locks)
                self._walk(module, index, stmt.body, state, findings)
                for name in entered_locks:
                    state.held_locks.remove(name)
                for name in entered_handles:
                    state.handles.pop(name, None)  # the with closed it
            else:
                for sub_body in self._sub_bodies(stmt):
                    self._walk(module, index, sub_body, state, findings)

    @staticmethod
    def _sub_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
        bodies = []
        for attr in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, attr, None)
            if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                bodies.append(sub)
        for handler in getattr(stmt, "handlers", []):
            bodies.append(handler.body)
        return bodies

    def _apply_statement(
        self,
        module: ModuleInfo,
        index: ProjectIndex,
        stmt: ast.stmt,
        state: "_LiveState",
        findings: list[Finding],
    ) -> None:
        # Spawn-site checks run against the state *before* this statement
        # registers new handles.
        for call in self._statement_calls(stmt):
            if _is_spawn_call(call):
                self._report_live_state(module, call, "", state, findings)
                continue
            edge = call_edge(call, module, index)
            if edge is not None:
                name, targets = edge
                if any(self._spawns(t, index) for t in targets):
                    self._report_live_state(
                        module, call, f" via '{name}()'", state, findings
                    )
        # Handle bookkeeping: binds, releases, thread starts.
        self._track_bindings(stmt, state)

    @staticmethod
    def _statement_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
        """Calls in *stmt*'s own expressions, not nested statement bodies."""
        nested: set[int] = set()
        for sub_body in ForkSafetyChecker._sub_bodies(stmt):
            for sub in sub_body:
                for node in ast.walk(sub):
                    nested.add(id(node))
        for node in ast.walk(stmt):
            if id(node) in nested:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for sub in ast.walk(node):
                    nested.add(id(sub))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and id(node) not in nested:
                yield node

    def _track_bindings(self, stmt: ast.stmt, state: "_LiveState") -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            ctor = final_name(value) if isinstance(value, ast.Call) else ""
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if ctor in FORK_SENSITIVE_CTORS:
                    state.handles[target.id] = FORK_SENSITIVE_CTORS[ctor]
                elif ctor == "Thread":
                    state.thread_vars.add(target.id)
                    state.handles.pop(target.id, None)
                else:
                    # Rebinding retires whatever the name used to hold.
                    state.handles.pop(target.id, None)
                    state.started_threads.discard(target.id)
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            func = call.func
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                recv = func.value.id
                if func.attr == "start" and recv in state.thread_vars:
                    state.started_threads.add(recv)
                elif func.attr == "acquire" and is_locky(recv):
                    state.held_locks.append(recv)
                elif func.attr == "release" and recv in state.held_locks:
                    state.held_locks.remove(recv)
                elif func.attr in RELEASING_METHODS:
                    state.handles.pop(recv, None)
                    state.started_threads.discard(recv)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.handles.pop(target.id, None)

    # -- findings ----------------------------------------------------------------
    def _report_live_state(
        self,
        module: ModuleInfo,
        call: ast.Call,
        via: str,
        state: "_LiveState",
        findings: list[Finding],
    ) -> None:
        live: list[str] = []
        if state.held_locks:
            live.append(
                "held lock(s) " + ", ".join(f"'{n}'" for n in state.held_locks)
            )
        for name in sorted(state.started_threads):
            live.append(f"running thread '{name}'")
        for name, kind in sorted(state.handles.items()):
            live.append(f"open {kind} '{name}'")
        if state.in_async:
            live.append("a running event loop (spawn site is in an async def)")
        if not live:
            return
        findings.append(
            Finding(
                rule=FORK_WITH_LIVE_STATE,
                path=module.path,
                line=call.lineno,
                message=(
                    f"child process spawned{via} while the parent holds "
                    + "; ".join(live)
                ),
                hint="release/close the state before forking, or make the "
                "child shed it first thing (close inherited fds, re-open "
                "its own handles)",
            )
        )


class _LiveState:
    """Lexically tracked parent-side state within one function."""

    def __init__(self, *, in_async: bool) -> None:
        self.in_async = in_async
        self.held_locks: list[str] = []
        self.thread_vars: set[str] = set()
        self.started_threads: set[str] = set()
        #: variable name -> handle kind
        self.handles: dict[str, str] = {}
