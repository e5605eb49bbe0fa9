"""Tests for the invalidation-aware metrics evaluator (Q1 of the paper)."""

import numpy as np
import pytest

from repro.compressors import make_compressor
from repro.core import ERROR_AGNOSTIC, ERROR_DEPENDENT, PressioData
from repro.predict import MetricsEvaluator, timing_bucket
from repro.predict.metrics import (
    QuantizedEntropyMetric,
    SpatialMetric,
    ValueStatsMetric,
)


@pytest.fixture
def data(smooth_field):
    return PressioData(smooth_field, metadata={"data_id": "test/smooth"})


@pytest.fixture
def other_data(sparse_field):
    return PressioData(sparse_field, metadata={"data_id": "test/sparse"})


def make_eval():
    comp = make_compressor("sz3", pressio__abs=1e-3)
    return MetricsEvaluator(
        comp, [ValueStatsMetric(), SpatialMetric(), QuantizedEntropyMetric()]
    )


class TestCaching:
    def test_first_evaluation_computes_everything(self, data):
        ev = make_eval()
        res = ev.evaluate(data)
        assert ev.computed == 3 and ev.reused == 0
        assert "stat:std" in res and "qentropy:bits" in res

    def test_unchanged_reevaluation_reuses_everything(self, data):
        ev = make_eval()
        ev.evaluate(data)
        ev.evaluate(data, changed=[])
        assert ev.computed == 3 and ev.reused == 3

    def test_bound_change_recomputes_only_error_dependent(self, data):
        ev = make_eval()
        ev.evaluate(data)
        ev.set_options({"pressio:abs": 1e-5})
        ev.evaluate(data, changed=["pressio:abs"])
        # 3 initial + 1 recomputed (qentropy); 2 error-agnostic reused.
        assert ev.computed == 4
        assert ev.reused == 2

    def test_bound_change_changes_qentropy_value(self, data):
        ev = make_eval()
        fine = ev.evaluate(data)["qentropy:bits"]
        ev.set_options({"pressio:abs": 1e-1})
        coarse = ev.evaluate(data, changed=["pressio:abs"])["qentropy:bits"]
        assert coarse < fine

    def test_new_data_computes_fresh(self, data, other_data):
        ev = make_eval()
        ev.evaluate(data)
        ev.evaluate(other_data)
        assert ev.computed == 6
        assert ev.stats()["cache_entries"] == 6

    def test_explicit_class_invalidation(self, data):
        ev = make_eval()
        ev.evaluate(data)
        ev.evaluate(data, changed=[ERROR_AGNOSTIC])
        # The two error-agnostic metrics recompute; qentropy is reused.
        assert ev.computed == 5 and ev.reused == 1

    def test_each_evaluator_keeps_its_own_cache(self, data):
        first = make_eval()
        first.evaluate(data)
        second = make_eval()
        second.evaluate(data, changed=[])
        assert second.computed == 3 and second.reused == 0
        assert first.stats()["cache_entries"] == second.stats()["cache_entries"] == 3

    def test_cached_value_is_equal_not_just_present(self, data):
        ev = make_eval()
        first = ev.evaluate(data).to_dict()
        second = ev.evaluate(data, changed=[]).to_dict()
        assert first == second


class TestTimingBuckets:
    def test_bucket_mapping(self):
        assert timing_bucket((ERROR_DEPENDENT,)) == "error_dependent"
        assert timing_bucket((ERROR_AGNOSTIC,)) == "error_agnostic"
        assert timing_bucket(("pressio:abs",)) == "error_dependent"

    def test_stage_seconds_accumulate(self, data):
        ev = make_eval()
        ev.evaluate(data)
        stats = ev.stats()
        assert stats["seconds_error_agnostic"] > 0
        assert stats["seconds_error_dependent"] > 0


class TestTrainingRun:
    def test_training_run_produces_ground_truth(self, data):
        """The labels a scheme trains on come from a real compression
        with size and time metrics attached to the compressor."""
        from repro.core import SizeMetrics, TimeMetrics

        comp = make_compressor("sz3", pressio__abs=1e-3)
        comp.set_metrics([SizeMetrics(), TimeMetrics()])
        comp.compress(data)
        res = comp.get_metrics_results()
        assert res["size:compression_ratio"] > 1
        assert res["size:uncompressed_size"] == data.nbytes
        assert res["time:compress"] > 0
