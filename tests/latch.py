"""A once-only latch that survives worker-process (and rank) death.

Task functions shipped to worker processes cannot keep "already failed
once" in process state: the retry may land in another process, or the
fault may be the process dying.  The latch is a marker file under the
directory the ``state_dir`` fixture (conftest.py) exports to workers.
"""

import os

STATE_DIR_ENV = "REPRO_TEST_STATE_DIR"


def once(name: str) -> bool:
    """True exactly once per *name* across every process of the test."""
    try:
        fd = os.open(
            os.path.join(os.environ[STATE_DIR_ENV], name),
            os.O_CREAT | os.O_EXCL | os.O_WRONLY,
        )
    except FileExistsError:
        return False
    os.close(fd)
    return True
