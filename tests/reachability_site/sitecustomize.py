"""Record the first call of every code object under ``src/repro``.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that holds one, so putting this directory on ``PYTHONPATH``
reaches every interpreter a command starts: spawned pool workers and
cluster ranks, fleet workers and subprocesses all inherit the variable.
Nothing is recorded unless ``REPRO_REACH_DIR`` names an output
directory.  ``tests/reachability.py`` sets both and reads the records.

Each process appends ``path<TAB>first line<TAB>name`` lines to its own
``<pid>.reach`` file with unbuffered ``os.write`` calls, so a ``fork``
child (which keeps the parent's profile hook and its set of seen code
objects) switches to a file of its own and never repeats or tears a
line its parent wrote.  Two threads racing on one first call may both
write its line; the report takes the union, so that costs nothing.
"""

import os
import sys
import threading

_MARK = os.sep + "repro" + os.sep


def _install(out_dir):
    seen = set()
    keep = []  # holds the code objects so their ids are never reused
    state = {"pid": None, "fd": None}

    def emit(line):
        pid = os.getpid()
        if state["pid"] != pid:
            state["pid"] = pid
            state["fd"] = os.open(
                os.path.join(out_dir, f"{pid}.reach"),
                os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644,
            )
        os.write(state["fd"], line.encode())

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        key = id(code)
        if key in seen:
            return
        seen.add(key)
        keep.append(code)
        if _MARK in code.co_filename:
            emit(f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n")

    os.makedirs(out_dir, exist_ok=True)
    sys.setprofile(profile)
    threading.setprofile(profile)


if os.environ.get("REPRO_REACH_DIR"):
    _install(os.environ["REPRO_REACH_DIR"])
