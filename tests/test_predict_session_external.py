"""Tests for the high-level PredictionSession and the external-metrics
bridge."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core import PressioData, UnsupportedError
from repro.dataset import HurricaneDataset
from repro.predict import PredictionSession
from repro.predict.metrics import ExternalMetric, parse_output, python_external_command


class TestSessionUntrained:
    def test_predict_formula_scheme(self, smooth_field):
        session = PredictionSession.create(
            "jin2022", "sz3", options={"pressio:abs": 1e-3}
        )
        data = PressioData(smooth_field, metadata={"data_id": "s"})
        cr = session.predict(data)
        assert cr > 0
        assert session.timings["last_predict_s"] > 0

    def test_unsupported_pairing_raises_at_creation(self):
        with pytest.raises(UnsupportedError):
            PredictionSession.create("jin2022", "zfp", options={"pressio:abs": 1e-3})

    def test_option_change_triggers_minimal_invalidation(self, smooth_field):
        session = PredictionSession.create(
            "rahman2023", "sz3", options={"pressio:abs": 1e-3}
        )
        data = PressioData(smooth_field, metadata={"data_id": "s"})
        session._evaluate_row(data)
        computed_first = session.evaluator.computed
        session.set_options({"pressio:abs": 1e-4})
        session._evaluate_row(data)
        # rahman's features are all error-agnostic: nothing recomputes.
        assert session.evaluator.computed == computed_first
        assert session.evaluator.reused >= computed_first

    @pytest.mark.parametrize("scheme", ["rahman2023", "khan2023"])
    def test_anonymous_arrays_never_share_cached_metrics(
        self, scheme, smooth_field, sparse_field
    ):
        """Each bare ndarray is wrapped in a fresh, metadata-less buffer;
        the second must not be served the first's cached metrics."""

        def fresh():
            return PredictionSession.create(scheme, "sz3", options={"pressio:abs": 1e-3})

        session = fresh()
        session._evaluate_row(smooth_field)
        second = session._evaluate_row(sparse_field)
        assert second == fresh()._evaluate_row(sparse_field)
        assert session.evaluator.reused == 0

    def test_create_in_a_fresh_interpreter(self):
        """Importing only ``repro.predict.session`` must register the
        codecs: the module's own docstring example starts this way."""
        code = (
            "from repro.predict.session import PredictionSession\n"
            "s = PredictionSession.create('rahman2023', 'sz3', "
            "options={'pressio:abs': 1e-3})\n"
            "print(s.compressor.id)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, text=True,
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "sz3"

    def test_fit_on_noop_for_untrained(self, smooth_field):
        session = PredictionSession.create(
            "tao2019", "szx", options={"pressio:abs": 1e-3}
        )
        out = session.fit_on([smooth_field])
        assert out is session
        assert "fit_s" not in session.timings


class TestSessionTrained:
    @pytest.fixture(scope="class")
    def trained(self):
        ds = HurricaneDataset(shape=(12, 12, 8), timesteps=[0, 20])
        session = PredictionSession.create(
            "rahman2023", "sz3", options={"pressio:abs": 1e-3}
        )
        session.fit_on(list(ds), bounds=[1e-5, 1e-4, 1e-3], relative=True)
        return session, ds

    def test_fit_records_timings(self, trained):
        session, _ = trained
        assert session.timings["training_s"] > 0
        assert session.timings["fit_s"] > 0

    def test_predict_after_fit(self, trained):
        session, ds = trained
        data = HurricaneDataset(shape=(12, 12, 8), timesteps=[40]).load_data(2)
        arr = data.array
        session.set_options(
            {"pressio:abs": 1e-4 * float(arr.max() - arr.min())}
        )
        cr = session.predict(data)
        assert 1.0 < cr < 1000.0

    def test_state_roundtrip_through_session(self, trained):
        session, ds = trained
        state = session.get_state()
        assert state  # non-empty
        clone = PredictionSession.create(
            "rahman2023", "sz3", options={"pressio:abs": 1e-3}, state=state
        )
        # Earlier tests may have reconfigured the shared session: align
        # the options before comparing predictions.
        session.set_options({"pressio:abs": 1e-3})
        data = ds.load_data(0)
        assert clone.predict(data) == pytest.approx(session.predict(data), rel=1e-9)

    def test_bandwidth_target_session(self):
        ds = HurricaneDataset(shape=(12, 12, 8), timesteps=[0])
        session = PredictionSession.create(
            "rahman2023_bandwidth", "szx", options={"pressio:abs": 1e-3}
        )
        session.fit_on(list(ds), bounds=[1e-4, 1e-3], relative=True)
        bw = session.predict(ds.load_data(0))
        assert bw > 1e5  # bytes/second; szx runs at many MB/s here


SCRIPT = textwrap.dedent(
    """
    import argparse
    import numpy as np

    parser = argparse.ArgumentParser()
    parser.add_argument("--api", type=int)
    parser.add_argument("--input")
    parser.add_argument("--dtype")
    parser.add_argument("--dim", action="append", type=int, default=[])
    parser.add_argument("--option", action="append", default=[])
    args = parser.parse_args()

    data = np.load(args.input)
    assert list(data.shape) == args.dim
    print(f"my_mean={data.mean()}")
    print(f"my_max={data.max()}")
    print("# a comment line to be ignored")
    print("not key value")
    """
)

FAILING_SCRIPT = "import sys; sys.stderr.write('boom'); sys.exit(3)\n"


class TestExternalMetric:
    @pytest.fixture()
    def script(self, tmp_path):
        path = os.path.join(str(tmp_path), "metric.py")
        with open(path, "w") as fh:
            fh.write(SCRIPT)
        return path

    def test_runs_and_parses(self, script, smooth_field):
        metric = ExternalMetric(python_external_command(script), name="user")
        data = PressioData(smooth_field, metadata={"data_id": "s"})
        metric.begin_compress_impl(data, data_options := __import__("repro").core.PressioOptions({"pressio:abs": 1e-3}))
        res = metric.get_metrics_results().to_dict()
        assert res["user:error_code"] == 0.0
        assert res["user:my_mean"] == pytest.approx(float(smooth_field.mean()), rel=1e-5)
        assert res["user:my_max"] == pytest.approx(float(smooth_field.max()), rel=1e-5)

    def test_failure_degrades_not_raises(self, tmp_path, smooth_field):
        path = os.path.join(str(tmp_path), "bad.py")
        with open(path, "w") as fh:
            fh.write(FAILING_SCRIPT)
        metric = ExternalMetric(python_external_command(path), name="bad")
        data = PressioData(smooth_field, metadata={"data_id": "s"})
        from repro.core import PressioOptions

        metric.begin_compress_impl(data, PressioOptions())
        res = metric.get_metrics_results().to_dict()
        assert res["bad:error_code"] == 3.0
        assert "boom" in res["bad:error_msg"]

    def test_missing_command(self, smooth_field):
        from repro.core import PressioOptions

        metric = ExternalMetric(["/nonexistent/binary"], name="ghost")
        metric.begin_compress_impl(
            PressioData(smooth_field, metadata={"data_id": "s"}), PressioOptions()
        )
        res = metric.get_metrics_results().to_dict()
        assert res["ghost:error_code"] == 1.0

    def test_parse_output_tolerant(self):
        parsed = parse_output("a=1.5\njunk\n# c\nb = 2\nbad=notnum\n")
        assert parsed == {"a": 1.5, "b": 2.0}

    def test_in_evaluator_with_custom_invalidations(self, script, smooth_field):
        from repro.compressors import make_compressor
        from repro.core import ERROR_DEPENDENT
        from repro.predict import MetricsEvaluator

        comp = make_compressor("sz3", pressio__abs=1e-3)
        metric = ExternalMetric(
            python_external_command(script), name="user",
            invalidations=(ERROR_DEPENDENT,),
        )
        ev = MetricsEvaluator(comp, [metric])
        data = PressioData(smooth_field, metadata={"data_id": "s"})
        first = ev.evaluate(data)
        again = ev.evaluate(data, changed=[])
        assert ev.reused == 1
        assert first.to_dict() == again.to_dict()
