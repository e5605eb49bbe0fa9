"""Tests for a prediction session — Figure 4's walk (get scheme -> get
predictor -> req_metrics_opts -> evaluate -> predict) held across calls
— and for the external-metrics bridge."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.bench import ExperimentRunner
from repro.compressors import make_compressor
from repro.core import PressioData, UnsupportedError
from repro.dataset import HurricaneDataset
from repro.predict import get_scheme
from repro.predict.metrics import ExternalMetric, parse_output, python_external_command


def predict(scheme, comp, predictor, evaluator, data, changed=None):
    """One Figure-4 prediction; *changed* narrows the evaluator's work."""
    kwargs = {} if changed is None else {"changed": changed}
    results = evaluator.evaluate(data, **kwargs)
    results.merge(scheme.config_features(comp))
    return float(predictor.predict(results.to_dict()))


class TestSessionUntrained:
    def test_predict_formula_scheme(self, smooth_field):
        comp = make_compressor("sz3", pressio__abs=1e-3)
        scheme = get_scheme("jin2022")
        data = PressioData(smooth_field, metadata={"data_id": "s"})
        cr = predict(scheme, comp, scheme.get_predictor(comp),
                     scheme.req_metrics_opts(comp), data)
        assert cr > 0

    def test_unsupported_pairing_raises_at_creation(self):
        with pytest.raises(UnsupportedError):
            get_scheme("jin2022").get_predictor(make_compressor("zfp", pressio__abs=1e-3))

    def test_option_change_triggers_minimal_invalidation(self, smooth_field):
        comp = make_compressor("sz3", pressio__abs=1e-3)
        evaluator = get_scheme("rahman2023").req_metrics_opts(comp)
        data = PressioData(smooth_field, metadata={"data_id": "s"})
        evaluator.evaluate(data)
        computed_first = evaluator.computed
        comp.set_options({"pressio:abs": 1e-4})
        evaluator.evaluate(data, changed=["pressio:abs"])
        # rahman's features are all error-agnostic: nothing recomputes.
        assert evaluator.computed == computed_first
        assert evaluator.reused >= computed_first

    @pytest.mark.parametrize("scheme", ["rahman2023", "khan2023"])
    def test_anonymous_arrays_never_share_cached_metrics(
        self, scheme, smooth_field, sparse_field
    ):
        """Each bare ndarray is wrapped in a fresh, metadata-less buffer;
        the second must not be served the first's cached metrics, even
        when the caller says nothing changed."""

        def fresh():
            comp = make_compressor("sz3", pressio__abs=1e-3)
            return get_scheme(scheme).req_metrics_opts(comp)

        evaluator = fresh()
        evaluator.evaluate(smooth_field)
        second = evaluator.evaluate(sparse_field, changed=()).to_dict()
        assert second == fresh().evaluate(sparse_field).to_dict()
        assert evaluator.reused == 0

    def test_create_in_a_fresh_interpreter(self):
        """The walk's documented imports (examples/quickstart.py) register
        the codecs: a fresh interpreter needs nothing else."""
        code = (
            "from repro.compressors import make_compressor\n"
            "from repro.predict import get_scheme\n"
            "comp = make_compressor('sz3', pressio__abs=1e-3)\n"
            "get_scheme('rahman2023').req_metrics_opts(comp)\n"
            "print(comp.id)\n"
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
        """A formula scheme predicts without any fit."""
        comp = make_compressor("szx", pressio__abs=1e-3)
        scheme = get_scheme("tao2019")
        predictor = scheme.get_predictor(comp)
        assert not predictor.needs_training
        data = PressioData(smooth_field, metadata={"data_id": "s"})
        assert predict(scheme, comp, predictor, scheme.req_metrics_opts(comp), data) > 0


def trained_predictor(scheme_name, compressor, dataset, bounds):
    """Fit *scheme_name* on a collected campaign's observations, as
    ``ExperimentRunner.publish`` and Table 2 do."""
    runner = ExperimentRunner(
        dataset, compressors=(compressor,), bounds=tuple(bounds), schemes=(scheme_name,)
    )
    observations = runner.collect().observations
    scheme = get_scheme(scheme_name)
    rows = [o for o in observations if o.get(scheme.target_key) is not None]
    predictor = scheme.get_predictor(make_compressor(compressor))
    predictor.fit(rows, np.asarray([float(o[scheme.target_key]) for o in rows]))
    return runner, observations, scheme, predictor


class TestSessionTrained:
    @pytest.fixture(scope="class")
    def trained(self):
        ds = HurricaneDataset(shape=(12, 12, 8), timesteps=[0, 20])
        return ds, *trained_predictor("rahman2023", "sz3", ds, [1e-5, 1e-4, 1e-3])

    def test_fit_records_timings(self, trained):
        _, runner, observations, scheme, _ = trained
        row = runner.evaluate_scheme(scheme, "sz3", observations)
        assert row.training.available and row.training.mean > 0
        assert row.fit.available and row.fit.mean > 0

    def test_predict_after_fit(self, trained):
        _, _, _, scheme, predictor = trained
        data = HurricaneDataset(shape=(12, 12, 8), timesteps=[40]).load_data(2)
        arr = data.array
        comp = make_compressor("sz3", pressio__abs=1e-4 * float(arr.max() - arr.min()))
        cr = predict(scheme, comp, predictor, scheme.req_metrics_opts(comp), data)
        assert 1.0 < cr < 1000.0

    def test_state_roundtrip_through_session(self, trained):
        ds, _, _, scheme, predictor = trained
        state = predictor.get_state()
        assert state  # non-empty
        comp = make_compressor("sz3", pressio__abs=1e-3)
        clone = scheme.get_predictor(comp)
        clone.set_options({"predictors:state": state})
        data = ds.load_data(0)
        evaluator = scheme.req_metrics_opts(comp)
        assert predict(scheme, comp, clone, evaluator, data) == pytest.approx(
            predict(scheme, comp, predictor, evaluator, data), rel=1e-9
        )

    def test_bandwidth_target_session(self):
        ds = HurricaneDataset(shape=(12, 12, 8), timesteps=[0])
        *_, scheme, predictor = trained_predictor(
            "rahman2023_bandwidth", "szx", ds, [1e-4, 1e-3]
        )
        comp = make_compressor("szx", pressio__abs=1e-3)
        bw = predict(scheme, comp, predictor, scheme.req_metrics_opts(comp), ds.load_data(0))
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
