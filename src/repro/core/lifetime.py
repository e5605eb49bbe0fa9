"""Worker processes that end with their parent.

A process started to serve its parent — a campaign's worker rank, a
serving fleet's worker — has nothing to do once that parent is gone,
yet nothing tells it so when the parent dies abruptly (``kill -9``, the
OOM killer): it is reparented and waits for work forever.
:func:`exit_with_parent` is the one watch all of them use; every one of
them is a :mod:`multiprocessing` child.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Callable


def exit_with_parent(cleanup: Callable[[], None] | None = None) -> None:
    """End this process soon after the process that started it dies.

    A daemon thread waits on the logical parent's sentinel, which reads
    end-of-file when that parent dies under every start method (under
    ``forkserver`` the OS parent is the fork server, not the process
    that asked for the child), and then ``os._exit``\\ s — as abrupt as
    the death it follows.  *cleanup*, when given, runs just before: what
    the dead parent would have removed on its way out (a fleet's own
    cache directory).
    """
    parent = multiprocessing.parent_process()
    if parent is None:
        raise RuntimeError("exit_with_parent() needs a multiprocessing child")

    def watch() -> None:
        parent.join()
        try:
            if cleanup is not None:
                cleanup()
        finally:
            os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()
