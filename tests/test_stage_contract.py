"""``stage_times`` times the encoder ``compress`` runs, not a copy of it.

Table 2's per-stage timings are only meaningful if the timed pipeline is
the one that produces the stream.  For every golden compressor variant:

* ``stage_times`` makes the same ``lossless_compress`` and
  ``huffman.encode`` calls, with the same inputs, as ``compress_impl``;
* its keys are the codec's declared ``stages`` plus ``"total"``;
* running ``compress_impl`` under a recording ``lap`` leaves the payload
  byte-identical to the golden stream, and laps each stage once, in order.
"""

from __future__ import annotations

import hashlib
import os
import sys

import numpy as np
import pytest

import repro.compressors  # noqa: F401  (registers the plugins)
from repro.core.compressor import compressor_registry
from repro.encoding import huffman
from tests import golden_kernels as gk

#: The stage keys ``perf/layers.py`` and ``benchmarks/test_kernels.py`` read.
STAGES = {
    "sz3": ("quantize", "predict", "huffman", "lossless"),
    "zfp": ("fixed_point", "transform", "pack", "lossless"),
    "sperr": ("quantize", "transform", "huffman", "lossless"),
    "szx": ("classify", "pack", "lossless"),
}

VARIANTS = pytest.mark.parametrize(
    "name,comp_id,options,kind",
    gk.GOLDEN_COMPRESSOR_VARIANTS,
    ids=[v[0] for v in gk.GOLDEN_COMPRESSOR_VARIANTS],
)


def _codec(comp_id: str, options: dict):
    comp = compressor_registry.create(comp_id)
    comp.set_options(options)
    return comp


def _digest(payload) -> str:
    return hashlib.sha256(bytes(np.ascontiguousarray(payload).data)).hexdigest()


@pytest.fixture
def encoder_calls(monkeypatch):
    """Every ``lossless_compress`` / ``huffman.encode`` call a codec makes,
    as (kind, input digest, arguments) tuples in call order."""
    calls: list[tuple] = []
    from repro.encoding import lz

    real_lossless, real_encode = lz.lossless_compress, huffman.encode

    def lossless(data, backend="zlib", level=6):
        calls.append(("lossless", _digest(data), backend, level))
        return real_lossless(data, backend=backend, level=level)

    def encode(values, **kwargs):
        calls.append(("huffman", _digest(np.asarray(values)), sorted(kwargs.items())))
        return real_encode(values, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.compressors") and hasattr(module, "lossless_compress"):
            monkeypatch.setattr(module, "lossless_compress", lossless)
    monkeypatch.setattr(huffman, "encode", encode)
    return calls


@VARIANTS
def test_stage_times_makes_the_encoders_calls(name, comp_id, options, kind, encoder_calls):
    field = gk.golden_input(kind)
    comp = _codec(comp_id, options)
    comp.compress_impl(field)
    encoded = list(encoder_calls)
    encoder_calls.clear()
    comp.stage_times(field)
    assert encoded, "the encoder made no lossless/Huffman call"
    assert encoder_calls == encoded


@VARIANTS
def test_stage_keys_are_the_declared_stages(name, comp_id, options, kind):
    comp = _codec(comp_id, options)
    assert tuple(comp.stages) == STAGES[comp_id]
    times = comp.stage_times(gk.golden_input(kind))
    assert tuple(times) == STAGES[comp_id] + ("total",)
    assert all(seconds >= 0.0 for seconds in times.values())
    assert times["total"] >= sum(times[s] for s in STAGES[comp_id]) * (1 - 1e-9)


@VARIANTS
def test_recording_lap_keeps_the_golden_payload(name, comp_id, options, kind):
    comp = _codec(comp_id, options)
    lapped: list[str] = []
    payload = comp.compress_impl(gk.golden_input(kind), lap=lapped.append)
    with open(os.path.join(gk.GOLDEN_DIR, f"comp_{name}.bin"), "rb") as fh:
        assert payload == fh.read()
    assert lapped == list(STAGES[comp_id])
