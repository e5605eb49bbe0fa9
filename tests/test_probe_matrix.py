"""Scheme × compressor × shape matrix: short axes never break a probe.

Block-sampling probes used to assume they got whole ``block**d`` cubes
back from :func:`sample_blocks`.  Whenever an axis was shorter than the
block, the sampler fell back to one flat row of the whole array and the
probe's reshape either raised or silently cut the row into fake "blocks"
across the array.  The sampler now returns the blocks it actually cut,
``(k, *block_shape)`` with ``block_shape[i] = min(block, shape[i])``, and
the probes take that shape as given.

Every registered scheme on every white-box compressor, over 3-D shapes
whose axes come from {1, 4, 7, 8, 9, 16}, either refuses the pairing with
:class:`UnsupportedError` up front or evaluates end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.compressors  # noqa: F401  (registers the plugins)
from repro.core.compressor import make_compressor
from repro.core.errors import UnsupportedError
from repro.dataset import sample_blocks
from repro.predict.scheme import available_schemes, get_scheme

SHAPES = (
    (1, 1, 16),
    (4, 4, 4),
    (8, 8, 4),
    (8, 8, 7),
    (7, 8, 9),
    (16, 16, 4),
    (9, 9, 9),
    (16, 1, 8),
    (1, 16, 16),
)
COMPRESSORS = ("sz3", "zfp", "szx", "sperr")
#: Every block size a probe samples with (zfp 4, sz3/zperf/trial 8, sperr 16).
PROBE_BLOCKS = (4, 8, 16)


def _field(shape: tuple[int, ...]) -> np.ndarray:
    rng = np.random.default_rng(sum(shape))
    axes = np.meshgrid(*[np.linspace(0.0, 3.0, s) for s in shape], indexing="ij")
    return (np.sin(sum(axes)) + 0.05 * rng.standard_normal(shape)).astype(np.float32)


@pytest.mark.parametrize("shape", SHAPES, ids=["x".join(map(str, s)) for s in SHAPES])
@pytest.mark.parametrize("block", PROBE_BLOCKS)
def test_sample_blocks_returns_the_blocks_it_cut(shape, block):
    array = _field(shape)
    blocks = sample_blocks(array, block=block, fraction=0.5, seed=3)
    block_shape = tuple(min(block, s) for s in shape)
    assert blocks.shape[1:] == block_shape
    assert blocks.shape[0] >= 1
    # Each sampled block is a real spatial block of the array.
    windows = np.lib.stride_tricks.sliding_window_view(array, block_shape)
    for cut in blocks:
        assert (windows == cut.astype(array.dtype)).all(axis=(-3, -2, -1)).any()


def test_short_axis_blocks_are_spatial_not_flat_slices():
    """16×16×4 once "succeeded" by cutting its one flat row into two
    512-value pieces that were slices across rows, not blocks."""
    array = np.arange(16 * 16 * 4, dtype=np.float64).reshape(16, 16, 4)
    blocks = sample_blocks(array, block=8, fraction=1.0)
    assert blocks.shape == (4, 8, 8, 4)
    corners = sorted(float(b[0, 0, 0]) for b in blocks)
    assert corners == sorted(float(array[i, j, 0]) for i in (0, 8) for j in (0, 8))


@pytest.mark.parametrize("compressor", COMPRESSORS)
@pytest.mark.parametrize("shape", SHAPES, ids=["x".join(map(str, s)) for s in SHAPES])
def test_every_scheme_evaluates_or_refuses(shape, compressor):
    data = _field(shape)
    for scheme_id in available_schemes():
        scheme = get_scheme(scheme_id)
        comp = make_compressor(compressor, pressio__abs=1e-3)
        try:
            evaluator = scheme.req_metrics_opts(comp)
        except UnsupportedError:
            continue
        results = evaluator.evaluate(data)
        assert results, (scheme_id, compressor, shape)
        assert comp.decompress(comp.compress(data)).shape == shape, (scheme_id, compressor)
