"""Worker processes that end with their parent.

A process started to serve its parent — a campaign's worker slot, a
serving fleet's worker, a spawned cluster rank — has nothing to do once
that parent is gone, yet nothing tells it so when the parent dies
abruptly (``kill -9``, the OOM killer): it is reparented and waits for
work forever.  :func:`exit_with_parent` is the one watch all of them use.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

#: How often a subprocess-started child looks at its parent pid, in seconds.
PARENT_POLL_SECONDS = 0.25


def exit_with_parent() -> None:
    """End this process soon after the process that started it dies.

    A daemon thread waits for the parent and then ``os._exit``\\ s — as
    abrupt as the death it follows, with no cleanup owed to a parent that
    is gone.  A :mod:`multiprocessing` child waits on its logical
    parent's sentinel, which reads end-of-file when that parent dies under
    every start method (under ``forkserver`` the OS parent is the fork
    server, not the process that asked for the child).  A child started
    any other way (``subprocess``) polls ``os.getppid()``, which changes
    when it is reparented.
    """
    parent = multiprocessing.parent_process()
    if parent is not None:

        def watch() -> None:
            parent.join()
            os._exit(1)

    else:
        parent_pid = os.getppid()

        def watch() -> None:
            while os.getppid() == parent_pid:
                time.sleep(PARENT_POLL_SECONDS)
            os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()
