"""Runtime lockset sanitizer: data races no static rule can see.

A ``# guarded-by: _lock`` annotation states which lock protects a
shared attribute; no static rule checks it, because aliasing, reads and
code paths assembled at runtime are out of an AST's reach.  This module
checks it dynamically with the classic Eraser lockset algorithm (Savage
et al., SOSP '97): every witnessed access to a ``# guarded-by:``
attribute intersects the set of witness-wrapped locks the accessing
thread currently holds into the attribute's *candidate lockset*.  A
shared, written attribute whose candidate lockset goes empty has no
lock that consistently protects it — a data race report, even if the
racy interleaving never actually fired during the run.

:meth:`LocksetWitness.wrap` builds the locks it tracks, which is what
the ``lock_witness=`` seam of FeaturizationCache (shared by the serving
event loop and its compute lane) calls::

    witness = LocksetWitness()
    cache = FeaturizationCache(capacity=128, lock_witness=witness)
    witness.instrument(cache, name="featcache")   # auto-finds guarded attrs
    ... hammer it from threads ...
    witness.assert_race_free()

Per-variable state machine (Eraser's, unmodified): *virgin* →
*exclusive* (single thread, lockset untracked — init needs no locks) →
*shared* (second thread reads) / *shared-modified* (second thread
writes, or a write lands while shared).  Lockset refinement starts at
the first cross-thread access; a report fires the moment a
shared-modified variable's lockset empties.

``REPRO_RACE_WITNESS_REPORT=<path>`` makes the stress suites dump a
merged JSON report (see ``tests/test_racewitness_stress.py`` and the
CI ``analysis`` job).
"""

from __future__ import annotations

import ast
import inspect
import itertools
import json
import re
import sys
import textwrap
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

#: ``self.attr = ...  # guarded-by: _lock`` declares that every access
#: of ``self.attr`` holds ``self._lock``.
GUARDED_BY_MARK = re.compile(r"#\s*guarded-by:\s*(?:self\.)?(?P<lock>\w+)")

#: Eraser variable states.
VIRGIN = "virgin"
EXCLUSIVE = "exclusive"
SHARED = "shared"
SHARED_MODIFIED = "shared-modified"


class DataRaceViolation(RuntimeError):
    """A witnessed attribute's candidate lockset went empty."""

    def __init__(self, races: list["RaceReport"]) -> None:
        self.races = list(races)
        super().__init__(
            "lockset witness found {} race(s): {}".format(
                len(races), "; ".join(r.describe() for r in races)
            )
        )


@dataclass
class RaceReport:
    """One attribute whose lockset emptied while shared-modified."""

    var: str
    state: str
    threads: list[str]
    location: str
    write: bool

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        return (
            f"{self.var} ({self.state}, threads {', '.join(self.threads)}) "
            f"lockset emptied at {kind} {self.location}"
        )

    def to_record(self) -> dict[str, Any]:
        return {
            "var": self.var,
            "state": self.state,
            "threads": self.threads,
            "location": self.location,
            "write": self.write,
        }


@dataclass
class _VarState:
    state: str = VIRGIN
    owner: int | None = None
    #: None while exclusive (lockset tracking starts at first sharing).
    lockset: set[str] | None = None
    threads: set[str] = field(default_factory=set)
    reads: int = 0
    writes: int = 0
    reported: bool = False


def guarded_attributes(cls: type) -> dict[str, str]:
    """``# guarded-by:`` annotated attribute -> lock name, from source.

    The annotations are read from the class source, so the attribute
    set the witness watches is the one the code declares.
    """
    try:
        source = textwrap.dedent(inspect.getsource(cls))
    except (OSError, TypeError):
        return {}
    try:
        tree = ast.parse(source)
    except SyntaxError:  # pragma: no cover - getsource returned a fragment
        return {}
    lines = source.splitlines()
    guarded: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        target = (
            node.targets[0]
            if isinstance(node, ast.Assign) and node.targets
            else getattr(node, "target", None)
        )
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        if 1 <= node.lineno <= len(lines):
            m = GUARDED_BY_MARK.search(lines[node.lineno - 1])
            if m:
                guarded[target.attr] = m.group("lock")
    return guarded


class _WitnessedLock:
    """Lock proxy that tracks which witnessed locks each thread holds."""

    def __init__(self, witness: "LocksetWitness", inner: Any, name: str) -> None:
        self._witness = witness
        self._inner = inner
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._witness._held().append(self.name)
        return got

    def release(self) -> None:
        self._inner.release()
        held = self._witness._held()
        # Drop the innermost matching acquisition (out-of-order release
        # is legal; RLock re-entry pushes the name more than once).
        for i in range(len(held) - 1, -1, -1):
            if held[i] == self.name:
                del held[i]
                break

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "_WitnessedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"_WitnessedLock({self.name!r})"


class LocksetWitness:
    """Eraser lockset race detection over ``# guarded-by:`` attributes.

    ``check_on_access=True`` raises :class:`DataRaceViolation` at the
    access that empties a lockset (pinning the racy stack in the
    traceback) instead of deferring to :meth:`assert_race_free`.
    """

    def __init__(self, *, check_on_access: bool = False) -> None:
        self.check_on_access = check_on_access
        self._tls = threading.local()
        self._vars: dict[str, _VarState] = {}
        self._race_list: list[RaceReport] = []
        self._vars_lock = threading.Lock()
        self._pause_depth = 0
        #: Source of per-thread owner tokens (see :meth:`_thread_token`).
        self._tokens = itertools.count(1)

    def wrap(self, lock: Any = None, *, name: str) -> _WitnessedLock:
        """Wrap *lock* (a fresh ``threading.Lock()`` if omitted)."""
        return _WitnessedLock(self, lock if lock is not None else threading.Lock(), name)

    def _held(self) -> list[str]:
        """Names of the witnessed locks the calling thread holds."""
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Suspend access witnessing inside the block.

        For post-join inspection: Eraser has no happens-before edge for
        ``Thread.join``, so reading a witnessed counter after the
        workload would empty its lockset and report a race that cannot
        happen.  Joins really do order those reads; wrap them here.
        """
        with self._vars_lock:
            self._pause_depth += 1
        try:
            yield
        finally:
            with self._vars_lock:
                self._pause_depth -= 1

    # -- instrumentation ---------------------------------------------------------
    def instrument(
        self,
        obj: Any,
        *,
        attrs: Iterable[str] | None = None,
        name: str | None = None,
    ) -> Any:
        """Intercept reads/writes of *obj*'s guarded attributes.

        *attrs* overrides auto-discovery (the ``# guarded-by:``
        annotations in the class source).  Swaps ``obj.__class__`` for a
        dynamically built subclass, so isinstance checks and behaviour
        are untouched; returns *obj* for chaining.
        """
        cls = type(obj)
        watched = frozenset(attrs if attrs is not None else guarded_attributes(cls))
        if not watched:
            raise ValueError(
                f"{cls.__name__} has no '# guarded-by:' attributes; pass attrs=..."
            )
        label = name if name is not None else cls.__name__
        witness = self

        def __getattribute__(self: Any, attr: str) -> Any:
            if attr in watched:
                witness._on_access(f"{label}.{attr}", write=False)
            return cls.__getattribute__(self, attr)

        def __setattr__(self: Any, attr: str, value: Any) -> None:
            if attr in watched:
                witness._on_access(f"{label}.{attr}", write=True)
            cls.__setattr__(self, attr, value)

        shadow = type(
            f"_Witnessed{cls.__name__}",
            (cls,),
            {"__getattribute__": __getattribute__, "__setattr__": __setattr__},
        )
        object.__setattr__(obj, "__class__", shadow)
        return obj

    # -- the Eraser state machine ------------------------------------------------
    def _thread_token(self) -> int:
        """A never-reused identity for the calling thread.

        ``threading.get_ident()`` is recycled once a thread exits, so
        back-to-back short-lived writers would look like one EXCLUSIVE
        owner and never start lockset refinement (a false negative).
        """
        token = getattr(self._tls, "token", None)
        if token is None:
            token = self._tls.token = next(self._tokens)
        return token

    def _on_access(self, var: str, *, write: bool) -> None:
        tid = self._thread_token()
        tname = threading.current_thread().name
        held = set(self._held())
        race: RaceReport | None = None
        with self._vars_lock:
            if self._pause_depth:
                return
            st = self._vars.setdefault(var, _VarState())
            st.threads.add(tname)
            if write:
                st.writes += 1
            else:
                st.reads += 1
            if st.state == VIRGIN:
                st.state = EXCLUSIVE
                st.owner = tid
            elif st.state == EXCLUSIVE and tid == st.owner:
                pass  # single-thread phase: no lockset requirement
            else:
                if st.lockset is None:
                    # First cross-thread access starts refinement.
                    st.lockset = set(held)
                else:
                    st.lockset &= held
                if st.state in (VIRGIN, EXCLUSIVE):
                    st.state = SHARED_MODIFIED if write else SHARED
                elif write and st.state == SHARED:
                    st.state = SHARED_MODIFIED
                if (
                    st.state == SHARED_MODIFIED
                    and not st.lockset
                    and not st.reported
                ):
                    st.reported = True
                    race = RaceReport(
                        var=var,
                        state=st.state,
                        threads=sorted(st.threads),
                        location=self._caller_location(),
                        write=write,
                    )
                    self._race_list.append(race)
        if race is not None and self.check_on_access:
            raise DataRaceViolation([race])

    @staticmethod
    def _caller_location() -> str:
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename == __file__:
            frame = frame.f_back
        if frame is None:  # pragma: no cover - there is always a caller
            return "<unknown>"
        return f"{frame.f_code.co_filename}:{frame.f_lineno}"

    # -- queries / reporting -----------------------------------------------------
    def races(self) -> list[RaceReport]:
        with self._vars_lock:
            return list(self._race_list)

    def assert_race_free(self) -> None:
        races = self.races()
        if races:
            raise DataRaceViolation(races)

    def report(self) -> dict[str, Any]:
        """JSON-able summary: per-variable locksets plus the race list."""
        with self._vars_lock:
            variables = {
                var: {
                    "state": st.state,
                    "lockset": sorted(st.lockset) if st.lockset is not None else None,
                    "threads": sorted(st.threads),
                    "reads": st.reads,
                    "writes": st.writes,
                }
                for var, st in sorted(self._vars.items())
            }
            races = [r.to_record() for r in self._race_list]
        return {"variables": variables, "races": races}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.report(), fh, indent=2, sort_keys=True)


def merge_reports(reports: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Fold per-suite witness reports into one CI artifact."""
    merged: dict[str, Any] = {"suites": {}, "total_races": 0}
    for label_report in reports:
        label = label_report.get("label", f"suite{len(merged['suites'])}")
        merged["suites"][label] = label_report
        merged["total_races"] += len(label_report.get("races", []))
    return merged


__all__ = [
    "DataRaceViolation",
    "LocksetWitness",
    "RaceReport",
    "guarded_attributes",
    "merge_reports",
]
