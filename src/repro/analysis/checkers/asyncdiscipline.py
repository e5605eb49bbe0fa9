"""Async discipline: the event loop must never block or share its state.

Two contracts over ``async def`` code and the helpers it reaches:

* **RL601** — a blocking call (``time.sleep``, synchronous socket or
  sqlite I/O, registry/store disk methods, ``subprocess``, an untimed
  lock ``.acquire``) executes on the event-loop thread.  Direct calls
  inside an ``async def`` are flagged at their own line; calls routed
  through synchronous helpers are found by walking the bare-name call
  graph, so ``await``-free refactors cannot hide the I/O one frame
  down.  Work shipped off the loop with ``asyncio.to_thread``/
  ``run_in_executor`` is naturally exempt: the callable is an
  *argument* there, not a call.
* **RL603** — the ServeStats bug class as a rule: an attribute
  annotated ``# loop-owned`` is touched inside a function shipped to a
  worker thread (``to_thread``, ``run_in_executor``, ``Thread(target=)``,
  executor ``submit``).  Loop-owned state is single-threaded by design;
  the worker must return values for the loop to apply instead.

Call-graph edges are followed conservatively — only bare names and
``self.<method>`` calls, module-local definitions first — so a
``queue.put`` on some other object never aliases into
``CheckpointStore.put``.  The price is false negatives (documented in
DESIGN §9), never a speculative finding.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..base import (
    LOOP_OWNED_MARK,
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
from ..findings import ASYNC_BLOCKING_CALL, LOOP_OWNED_CROSS_THREAD, Finding

#: Dotted callee spellings that always block the calling thread.
BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "sqlite3.connect",
        "socket.create_connection",
        "socket.getaddrinfo",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "shutil.rmtree",
        "shutil.copytree",
        "os.waitpid",
    }
)

#: Bare callee names that block (``from time import sleep`` included).
BLOCKING_BARE = frozenset({"open", "input", "sleep"})

#: Socket-protocol methods, blocking when the receiver looks like a
#: socket/connection (``sock``, ``conn``, ``client`` in its name).
SOCKET_METHODS = frozenset(
    {"accept", "connect", "makefile", "recv", "recv_into", "send", "sendall"}
)
_SOCKETISH = ("sock", "conn", "client")

#: Disk-touching methods of the repo's store/registry objects, blocking
#: when the receiver looks like one (``registry``, ``store``, ``shard``,
#: ``checkpoint``, ``db`` in its name).
DISK_METHODS = frozenset(
    {
        "commit",
        "describe",
        "flush",
        "keys",
        "latest",
        "load",
        "publish",
        "put",
        "record_failure",
        "set_meta",
        "verify",
        "versions",
    }
)
_DISKISH = ("registry", "store", "shard", "checkpoint", "db")

#: Callees that ship their callable argument to a worker thread.
THREAD_SHIP_CALLS = frozenset(
    {"to_thread", "run_in_executor", "submit", "Thread"}
)


def _untimed_acquire(node: ast.Call) -> bool:
    """``lock.acquire()`` with no timeout/blocking bound -> blocks forever."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr != "acquire":
        return False
    if not is_locky(final_name(func.value)):
        return False
    if node.args or node.keywords:
        return False  # blocking=False / timeout=... bound the wait
    return True


def _blocking_reason(node: ast.Call) -> str | None:
    """Why this call blocks the calling thread, or None."""
    func = node.func
    dotted = expr_text(func)
    if dotted in BLOCKING_DOTTED:
        return f"'{dotted}()'"
    if isinstance(func, ast.Name) and func.id in BLOCKING_BARE:
        return f"'{func.id}()'"
    if _untimed_acquire(node):
        return f"untimed '{dotted}()'"
    if isinstance(func, ast.Attribute):
        recv = final_name(func.value).lower()
        if func.attr in SOCKET_METHODS and any(t in recv for t in _SOCKETISH):
            return f"socket I/O '{dotted}()'"
        if func.attr in DISK_METHODS and any(t in recv for t in _DISKISH):
            return f"disk I/O '{dotted}()'"
    return None


class AsyncDisciplineChecker(Checker):
    rules = (ASYNC_BLOCKING_CALL, LOOP_OWNED_CROSS_THREAD)

    def __init__(self) -> None:
        #: function-node id -> blocking reason (memoised across modules;
        #: node identity is stable for the lifetime of one run).
        self._blocking_memo: dict[int, str | None] = {}

    def check_module(
        self, module: ModuleInfo, index: ProjectIndex
    ) -> Iterable[Finding]:
        if module.tree is None:
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                self._check_async_body(module, index, node, findings)
        self._check_loop_owned(module, index, findings)
        return findings

    # -- RL601: blocking work on the loop thread --------------------------------
    def _check_async_body(
        self,
        module: ModuleInfo,
        index: ProjectIndex,
        fn: ast.AsyncFunctionDef,
        findings: list[Finding],
    ) -> None:
        for call in own_calls(fn):
            reason = _blocking_reason(call)
            via = ""
            if reason is None:
                edge = call_edge(call, module, index)
                if edge is None:
                    continue
                name, targets = edge
                for target in targets:
                    if isinstance(target.node, ast.AsyncFunctionDef):
                        continue  # awaited coroutines carry their own findings
                    sub = self._blocks(target, index)
                    if sub is not None:
                        reason = sub
                        via = f" via '{name}()'"
                        break
            if reason is None:
                continue
            findings.append(
                Finding(
                    rule=ASYNC_BLOCKING_CALL,
                    path=module.path,
                    line=call.lineno,
                    message=(
                        f"blocking {reason} runs on the event-loop thread"
                        f"{via} inside 'async def {fn.name}'"
                    ),
                    hint="wrap the call in 'await asyncio.to_thread(...)' "
                    "(or a run_in_executor) so the loop keeps serving",
                )
            )

    def _blocks(self, record: FunctionRecord, index: ProjectIndex) -> str | None:
        """Blocking reason reachable from a sync function, memoised."""
        key = id(record.node)
        if key in self._blocking_memo:
            return self._blocking_memo[key]
        self._blocking_memo[key] = None  # cycle guard
        if isinstance(record.node, ast.AsyncFunctionDef):
            return None
        for call in own_calls(record.node):
            reason = _blocking_reason(call)
            if reason is not None:
                self._blocking_memo[key] = reason
                return reason
        for call in own_calls(record.node):
            edge = call_edge(call, record.module, index)
            if edge is None:
                continue
            name, targets = edge
            for target in targets:
                if isinstance(target.node, ast.AsyncFunctionDef):
                    continue
                sub = self._blocks(target, index)
                if sub is not None:
                    self._blocking_memo[key] = sub
                    return sub
        return self._blocking_memo[key]

    # -- RL603: loop-owned state touched off-loop -------------------------------
    def _check_loop_owned(
        self, module: ModuleInfo, index: ProjectIndex, findings: list[Finding]
    ) -> None:
        assert module.tree is not None
        shipped = self._thread_shipped_names(module.tree)
        if not shipped:
            return
        for cls in (n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)):
            owned = self._loop_owned_attrs(module, cls)
            if not owned:
                continue
            methods = {
                stmt.name: stmt
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef)
            }
            # Worker-thread closure within the class: a shipped method
            # plus every sync method it reaches via self-calls.  Each
            # closure member remembers which shipping call put it off
            # the loop, so the finding can name it.
            queue = [(m, shipped[m]) for m in methods if m in shipped]
            off_loop: dict[str, str] = {}
            while queue:
                name, ship = queue.pop()
                if name in off_loop:
                    continue
                off_loop[name] = ship
                for call in own_calls(methods[name]):
                    func = call.func
                    if (
                        isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                        and func.attr in methods
                    ):
                        queue.append((func.attr, ship))
            for name in sorted(off_loop):
                fn = methods[name]
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr in owned
                    ):
                        findings.append(
                            Finding(
                                rule=LOOP_OWNED_CROSS_THREAD,
                                path=module.path,
                                line=node.lineno,
                                message=(
                                    f"self.{node.attr} is '# loop-owned' but "
                                    f"'{name}()' runs on a worker thread "
                                    f"(shipped via {off_loop[name]})"
                                ),
                                hint="return the value and let the loop thread "
                                "apply it, as _featurize does with its "
                                "per-item results",
                            )
                        )

    @staticmethod
    def _loop_owned_attrs(module: ModuleInfo, cls: ast.ClassDef) -> set[str]:
        owned: set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                target = (
                    node.targets[0]
                    if isinstance(node, ast.Assign) and node.targets
                    else getattr(node, "target", None)
                )
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and LOOP_OWNED_MARK.search(module.line_text(node.lineno))
                ):
                    owned.add(target.attr)
        return owned

    @staticmethod
    def _thread_shipped_names(tree: ast.Module) -> dict[str, str]:
        """Function names handed to thread-shipping calls -> shipping callee."""
        shipped: dict[str, str] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            ship = final_name(node.func)
            if ship not in THREAD_SHIP_CALLS:
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                if isinstance(value, ast.Name):
                    shipped.setdefault(value.id, ship)
                elif (
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                ):
                    shipped.setdefault(value.attr, ship)
        return shipped
