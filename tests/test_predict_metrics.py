"""Tests for the prediction-feature metrics (features and probes)."""

import numpy as np
import pytest

from repro.compressors import make_compressor
from repro.core import PressioData, PressioOptions
from repro.core.compressor import clone_compressor
from repro.predict.metrics import (
    BoundSparsityMetric,
    DistortionMetric,
    QuantizedEntropyMetric,
    SampledTrialMetric,
    SZ3StageProbeMetric,
    SZXStageProbeMetric,
    SparsityMetric,
    SpatialMetric,
    SVDTruncationMetric,
    ValueStatsMetric,
    VariogramMetric,
    ZFPStageProbeMetric,
    lag_correlations,
    spatial_diversity,
    spatial_smoothness,
    svd_truncation_rank,
    variogram_slope,
)

OPTS = PressioOptions({"pressio:abs": 1e-3})


def run_metric(metric, array, options=OPTS):
    data = PressioData(np.asarray(array), metadata={"data_id": "m"})
    metric.reset()
    metric.begin_compress_impl(data, options)
    return metric.get_metrics_results().to_dict()


class TestFeatureFunctions:
    def test_lag_correlation_smooth_vs_noise(self, smooth_field, rough_field):
        assert lag_correlations(smooth_field) > 0.9
        assert abs(lag_correlations(rough_field)) < 0.2

    def test_lag_correlation_constant(self):
        assert lag_correlations(np.full((8, 8), 2.0)) == 1.0

    def test_spatial_diversity_sparse_vs_uniform(self, sparse_field, rough_field):
        assert spatial_diversity(sparse_field) > spatial_diversity(rough_field)

    def test_spatial_smoothness_ordering(self, smooth_field, rough_field):
        assert spatial_smoothness(smooth_field) > spatial_smoothness(rough_field)

    def test_variogram_slope_smooth_positive(self, smooth_field):
        # Smooth data: variance grows with lag → positive slope.
        assert variogram_slope(smooth_field) > 0.5

    def test_variogram_slope_noise_flat(self, rough_field):
        assert abs(variogram_slope(rough_field)) < 0.3

    def test_svd_rank_low_for_separable(self):
        x = np.outer(np.sin(np.linspace(0, 3, 50)), np.cos(np.linspace(0, 3, 40)))
        assert svd_truncation_rank(x, 0.999) <= 2

    def test_svd_rank_high_for_noise(self):
        noise = np.random.default_rng(0).standard_normal((50, 40))
        assert svd_truncation_rank(noise, 0.999) > 20

    def test_svd_rank_1d_input(self):
        assert svd_truncation_rank(np.sin(np.linspace(0, 10, 400))) >= 1


class TestFeatureMetrics:
    def test_value_stats(self, smooth_field):
        res = run_metric(ValueStatsMetric(), smooth_field)
        assert res["stat:std"] == pytest.approx(float(smooth_field.std()), rel=1e-5)
        assert res["stat:value_range"] > 0
        assert "stat:skewness" in res and "stat:kurtosis" in res

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_value_stats_moments_match_plain_float64_reference(self, dtype):
        """The moments are computed by repeated multiplication, not
        ``centered**k``; they must agree with the textbook float64
        definition to rounding (1e-12 relative)."""
        rng = np.random.default_rng(5)
        field = (rng.gamma(2.0, 1.5, (24, 20, 16)) - 1.0).astype(dtype)  # skewed, heavy tail
        res = run_metric(ValueStatsMetric(), field)
        x = field.astype(np.float64).reshape(-1)
        c = x - x.mean()
        m2 = np.mean(c**2)
        assert res["stat:mean"] == pytest.approx(float(x.mean()), rel=1e-12)
        assert res["stat:std"] == pytest.approx(float(np.sqrt(m2)), rel=1e-12)
        assert res["stat:skewness"] == pytest.approx(float(np.mean(c**3) / m2**1.5), rel=1e-12)
        assert res["stat:kurtosis"] == pytest.approx(float(np.mean(c**4) / m2**2), rel=1e-12)
        assert res["stat:skewness"] > 0.5 and res["stat:kurtosis"] > 3.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_value_stats_constant_array_has_zero_skew_and_kurtosis(self, dtype):
        res = run_metric(ValueStatsMetric(), np.full((8, 8, 4), 2.5, dtype=dtype))
        assert res["stat:std"] == 0.0 and res["stat:value_range"] == 0.0
        assert res["stat:skewness"] == 0.0 and res["stat:kurtosis"] == 0.0

    def test_sparsity_metric(self, sparse_field):
        res = run_metric(SparsityMetric(), sparse_field)
        assert res["sparsity:zero_ratio"] == pytest.approx((sparse_field == 0).mean())
        assert res["sparsity:zero_ratio"] + res["sparsity:nonzero_fraction"] == pytest.approx(1.0)

    def test_spatial_metric_keys(self, smooth_field):
        res = run_metric(SpatialMetric(), smooth_field)
        for key in ("correlation", "diversity", "smoothness", "coding_gain"):
            assert f"spatial:{key}" in res

    def test_variogram_metric(self, smooth_field):
        res = run_metric(VariogramMetric(), smooth_field)
        assert "variogram:slope" in res

    def test_svd_metric_declares_nondeterministic(self):
        from repro.core import NONDETERMINISTIC

        assert NONDETERMINISTIC in SVDTruncationMetric().invalidations

    def test_quantized_entropy_error_dependent(self, smooth_field):
        fine = run_metric(QuantizedEntropyMetric(), smooth_field,
                          PressioOptions({"pressio:abs": 1e-5}))
        coarse = run_metric(QuantizedEntropyMetric(), smooth_field,
                            PressioOptions({"pressio:abs": 1e-1}))
        assert coarse["qentropy:bits"] < fine["qentropy:bits"]

    def test_bound_sparsity_grows_with_bound(self, sparse_field):
        small = run_metric(BoundSparsityMetric(), sparse_field,
                           PressioOptions({"pressio:abs": 1e-8}))
        large = run_metric(BoundSparsityMetric(), sparse_field,
                           PressioOptions({"pressio:abs": 1.0}))
        assert large["bsparsity:below_bound_ratio"] >= small["bsparsity:below_bound_ratio"]
        assert large["bsparsity:below_bound_ratio"] == 1.0

    def test_distortion_metric(self, smooth_field):
        res = run_metric(DistortionMetric(), smooth_field)
        assert res["distortion:sdr_db"] > 0
        assert res["distortion:log_rel_bound"] < 0


class TestProbes:
    def test_sampled_trial_close_on_uniform_data(self, rough_field):
        comp = make_compressor("sz3", pressio__abs=1e-3)
        metric = SampledTrialMetric(clone_compressor(comp), fraction=0.3, seed=0)
        res = run_metric(metric, rough_field)
        assert res["trial:sampled_cr"] > 0.5
        assert res["trial:sample_count"] > 0

    def test_sz3_probe_full(self, smooth_field):
        comp = make_compressor("sz3", pressio__abs=1e-3)
        res = run_metric(SZ3StageProbeMetric(clone_compressor(comp)), smooth_field)
        assert res["sz3probe:huffman_bits_exact"] > 0
        assert res["sz3probe:probed_values"] == smooth_field.size
        assert res["sz3probe:element_bits"] == 32

    def test_sz3_probe_sampled_id_differs(self):
        comp = make_compressor("sz3", pressio__abs=1e-3)
        full = SZ3StageProbeMetric(clone_compressor(comp), fraction=1.0)
        sampled = SZ3StageProbeMetric(clone_compressor(comp), fraction=0.1)
        assert full.id == "sz3probe"
        assert sampled.id == "sz3probe_sampled"

    def test_sz3_probe_bits_track_bound(self, smooth_field):
        comp = make_compressor("sz3", pressio__abs=1e-3)
        probe = SZ3StageProbeMetric(clone_compressor(comp))
        fine = run_metric(probe, smooth_field, PressioOptions({"pressio:abs": 1e-6}))
        coarse = run_metric(probe, smooth_field, PressioOptions({"pressio:abs": 1e-2}))
        assert coarse["sz3probe:huffman_bits_exact"] < fine["sz3probe:huffman_bits_exact"]

    def test_zfp_probe(self, smooth_field):
        comp = make_compressor("zfp", pressio__abs=1e-3)
        res = run_metric(ZFPStageProbeMetric(clone_compressor(comp), fraction=0.3), smooth_field)
        assert res["zfpprobe:ac_bits_per_block"] >= 0
        assert res["zfpprobe:probed_blocks"] >= 8
        assert res["zfpprobe:block_values"] == 64

    def test_szx_probe_constant_fraction(self, sparse_field):
        comp = make_compressor("szx", pressio__abs=1e-2)
        res = run_metric(SZXStageProbeMetric(clone_compressor(comp), fraction=0.5),
                         sparse_field, PressioOptions({"pressio:abs": 1e-2}))
        assert 0.0 <= res["szxprobe:constant_fraction"] <= 1.0

    def test_probe_inside_attached_compressor_no_recursion(self, smooth_field):
        """Probes hold a clone, so attaching them to a compressor and
        compressing must not recurse."""
        comp = make_compressor("sz3", pressio__abs=1e-3)
        probe = SZ3StageProbeMetric(clone_compressor(comp), fraction=0.2)
        comp.set_metrics([probe])
        comp.compress(smooth_field)  # would RecursionError on a shared instance
        assert comp.get_metrics_results().get("sz3probe_sampled:probed_values", 0) > 0
