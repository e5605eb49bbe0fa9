"""A repro-lint fixture with exactly one finding: RL601, a blocking
``time.sleep`` on the event loop.

The reachability replay (``tests/reachability.py``) and the CI
``analysis`` job lint this file in ``--format json`` and
``--format github`` and check that each reports this one finding, so
the finding renderers run on every replay.  Nothing imports it.
"""

import time


async def tick(interval: float) -> None:
    time.sleep(interval)
