"""Which processes load scipy.

scipy's linear algebra serves only the schemes whose estimators or
metrics call it (krasowska2021, underwood2023, ganguli2023, wang2023,
lu2018); each call site imports it where it calls it.  So the default
paths — importing the CLI and the serving tier, a default-scheme
``collect`` on the serial and process engines, Table 2, ``publish`` and
a served prediction for a raw field — run with scipy unimportable, and
a process pays for scipy at its first fit or evaluate that needs it.

Each case runs in a fresh interpreter: a module another test imported
would otherwise already sit in ``sys.modules``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

WITHOUT_SCIPY = textwrap.dedent(
    """
    import sys
    sys.modules["scipy"] = None  # any scipy import now raises ImportError

    import numpy as np

    import repro.bench.cli as cli
    import repro.serve
    from repro.serve import ModelRegistry, PredictionClient, PredictionServer, ServerThread

    tmp = sys.argv[1]
    campaign = ["--shape", "8", "8", "8", "--timesteps", "2", "--fields", "CLOUD", "P", "U"]
    for engine in ("serial", "process"):
        db = f"{tmp}/{engine}.db"
        argv = ["collect", *campaign, "--engine", engine, "--workers", "2", "--checkpoint", db]
        assert cli.main(argv) == 0, engine
        assert cli.main(["report", db]) == 0, engine
    argv = ["publish", f"{tmp}/serial.db", "--registry", f"{tmp}/reg",
            "--schemes", "rahman2023", "khan2023", "--compressors", "sz3"]
    assert cli.main(argv) == 0
    registry = ModelRegistry(f"{tmp}/reg")
    keys = {}
    for key in registry.keys():
        keys.setdefault(registry.describe(key)["manifest"]["scheme"], key)
    assert sorted(keys) == ["khan2023", "rahman2023"], keys
    field = np.random.default_rng(7).standard_normal((8, 8, 8)).astype(np.float32)
    with ServerThread(PredictionServer(registry)) as thread:
        with PredictionClient(*thread.address) as client:
            for scheme, key in sorted(keys.items()):
                reply = client.predict(key, data=field)
                assert reply["status"] == "ok" and np.isfinite(reply["prediction"]), reply
                print(scheme, reply["prediction"])
    assert sys.modules["scipy"] is None
    """
)

WITH_SCIPY = textwrap.dedent(
    """
    import sys

    import repro.bench.cli
    import repro.serve
    assert "scipy" not in sys.modules, "importing the CLI loaded scipy"

    import numpy as np

    from repro.compressors import make_compressor
    from repro.core import PressioData
    from repro.predict import get_scheme

    field = np.random.default_rng(7).standard_normal((8, 8, 8)).astype(np.float32)
    scheme = get_scheme("underwood2023")
    evaluator = scheme.req_metrics_opts(make_compressor("sz3", pressio__abs=1e-3))
    results = evaluator.evaluate(PressioData(field, metadata={"data_id": "f"})).to_dict()
    assert results["svd:relative_rank"] > 0, results
    assert "scipy.linalg" in sys.modules, "the SVD metric ran without scipy"
    """
)


def _run(code: str, tmp_path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    ))
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
    return done


def test_default_paths_run_without_scipy(tmp_path):
    out = _run(WITHOUT_SCIPY, tmp_path).stdout
    assert "Report from" in out and "rahman2023" in out and "khan2023" in out


def test_scipy_loads_at_first_scheme_use_only(tmp_path):
    _run(WITH_SCIPY, tmp_path)
