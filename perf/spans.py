"""Span tracing from outside the program.

The benchmark wraps the *public* callables at each layer boundary (class or
module attributes, swapped in for the traced laps and swapped back after), so
the program itself is not edited.  A span is ``(id, parent, trace, name,
start, end, attrs)``; spans of one task or query share ``trace``.  They stay
in memory until :meth:`Tracer.write`.

Processes forked while the wrappers are installed (the process engine's
workers) inherit them.  A child cannot hand memory back, so it appends each
finished top-level span tree to its own part file, parented to the span that
was open at the fork; :meth:`Tracer.collect_children` folds the part files in.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.spans: list[tuple] = []
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._targets: list[tuple] = []
        self._part = None  # a forked child's open part file
        self._fork_parent: str | None = None
        for stale in [self.path, *self._parts()]:
            stale.unlink(missing_ok=True)
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _after_fork(self) -> None:
        stack = self._stack()
        self._fork_parent = stack[-1][0] if stack else None
        self.spans = []
        self._tls = threading.local()
        self._part = open(self.path.with_name(f"{self.path.name}.part{os.getpid()}"),
                          "a", encoding="utf-8")

    def _parts(self) -> list[Path]:
        return sorted(self.path.parent.glob(self.path.name + ".part*"))

    def _record(self, stack, frame, name, t0, t1, attrs) -> None:
        stack.pop()
        parent = stack[-1][0] if stack else self._fork_parent
        self.spans.append((frame[0], parent, frame[1], name, t0, t1, attrs))
        if self._part is not None and not stack:
            self._part.writelines(self._line(s) for s in self.spans)
            self._part.flush()
            self.spans.clear()

    @contextmanager
    def span(self, name: str, trace: str | None = None, attrs: dict | None = None):
        """A span around the benchmark's own call into a layer."""
        stack = self._stack()
        if trace is None and stack:
            trace = stack[-1][1]
        frame = (f"{os.getpid()}-{next(self._ids)}", trace, False)
        stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._record(stack, frame, name, t0, perf_counter(), attrs)

    def _wrap(self, fn, name, leaf, trace_of, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][2]:
                # Inside a leaf span (a scheme's evaluator): what it calls
                # belongs to that layer, as in the paper's Table-2 columns.
                return fn(*args, **kwargs)
            if trace_of is not None:
                trace = trace_of(*args, **kwargs)
            else:
                trace = stack[-1][1] if stack else None
            frame = (f"{os.getpid()}-{next(tracer._ids)}", trace, leaf)
            stack.append(frame)
            attrs = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if attrs_of is not None:
                    attrs = attrs_of(args, kwargs, result)
            except BaseException:
                t1 = perf_counter()
                attrs = {"raised": True}
                raise
            finally:
                span_name = name(*args, **kwargs) if callable(name) else name
                tracer._record(stack, frame, span_name, t0, t1, attrs)
            return result

        return wrapped

    # -- wrapping public callables -------------------------------------------------
    def target(self, owner, attr: str, name, *, leaf=False, trace_of=None, attrs_of=None) -> None:
        """Register ``owner.attr`` to be wrapped while installed.

        ``name`` is the span name or a callable of the call's arguments;
        ``trace_of`` derives the shared id from the arguments (default: the
        enclosing span's); ``attrs_of(args, kwargs, result)`` adds attributes.
        """
        self._targets.append((owner, attr, name, leaf, trace_of, attrs_of))

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, leaf, trace_of, attrs_of in self._targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, name, leaf, trace_of, attrs_of))
                originals.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- output and analysis -------------------------------------------------------
    @staticmethod
    def _line(span: tuple) -> str:
        sid, parent, trace, name, t0, t1, attrs = span
        record = {"id": sid, "parent": parent, "trace": trace, "name": name,
                  "start": t0, "end": t1}
        if attrs:
            record["attrs"] = attrs
        return json.dumps(record) + "\n"

    def collect_children(self) -> None:
        """Fold the part files forked workers left into ``self.spans``."""
        for part in self._parts():
            with open(part, encoding="utf-8") as fh:
                for line in fh:
                    r = json.loads(line)
                    self.spans.append((r["id"], r["parent"], r["trace"], r["name"],
                                       r["start"], r["end"], r.get("attrs")))
            part.unlink()

    def write(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.writelines(self._line(s) for s in self.spans)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``name -> (count, seconds of self time)``: a span's duration minus
        what its child spans in the same process cover (a forked worker's
        spans run beside their parent's, not inside it)."""
        covered: dict[str, float] = defaultdict(float)
        for sid, parent, _, _, t0, t1, _ in self.spans:
            if parent is not None and parent.partition("-")[0] == sid.partition("-")[0]:
                covered[parent] += t1 - t0
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for sid, _, _, name, t0, t1, _ in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += (t1 - t0) - covered.get(sid, 0.0)
        return {name: (n, s) for name, (n, s) in out.items()}

    def named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[3] == name]
