"""Kernel benchmark: the vectorized LZ77/Huffman hot path and the
forest kernels vs the interpreted reference loops, plus per-stage
compressor timings.

The collection wall-clock path of every campaign runs through the
encoding kernels, so their speed is tracked like the data-plane and
serve benchmarks.  Five sections land in ``BENCH_kernels.json``:

* ``lz77`` — the hash-chain encoder and list-ranking decoder against
  the byte-at-a-time reference implementations on a 1 MiB payload of
  production content (a Huffman-coded quantizer-residual stream — the
  exact bytes the final lossless pass sees inside sz3/sperr).  The
  acceptance bar is a >= 5x combined encode+decode wall-clock win, with
  byte-identical streams.  Two shape-contrast payloads (periodic,
  motif-tiled) are reported alongside for decode-side visibility.
* ``huffman_tables`` — the two-``np.repeat`` canonical-table build
  against the per-symbol scatter loop it replaced, and (``kernels``) the
  two-queue length build, byte-plane packer and anchored-lifting decoder
  against the retired implementations in ``tests/reference_kernels.py``
  — on the production residual stream (sz3's quantize → Lorenzo →
  escape split on a 512 KiB field: ~131 k codes over a ~10 k-symbol
  alphabet) and on a 64-code one (the ``campaign_many_small`` regime).
  Byte equality is asserted, and "not slower" at both sizes.
* ``forest`` — the lock-step forest builder and the all-trees descent
  of ``repro.mlkit.tree`` against the recursive builder and the per-tree
  predict loop in ``tests/reference_kernels.py``, at the campaign's
  shape (24 x 11) and EXPERIMENTS.md's (300 x 11), ``predict`` at batch
  1 and 32.  Every tree's arrays, the out-of-bag predictions and the
  predictions must be byte-equal, and the new kernels not slower.
* ``hashing`` — ``ExperimentRunner.build_tasks()`` on the
  ``campaign_many_small`` cycle (52 entries x 4 configurations x 2
  replicates = 416 tasks), whose parts are encoded once each, against
  the per-task hashing in ``tests/reference_kernels.py`` (six structure
  encodings a task).  Every key and column digest must be equal, and
  the build not slower than the oracle's hashing alone.
* ``stage_times`` — per-kernel wall-clock (quantize / predict /
  huffman / lossless, etc.) for each compressor via the
  ``stage_times`` introspection hooks, so a regression in any single
  kernel is visible in isolation.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.bench import ExperimentRunner
from repro.compressors.sz3 import lorenzo_forward, quantize, split_escapes
from repro.dataset import HurricaneDataset
from repro.encoding import huffman, pack_codes
from repro.encoding.lz import (
    _lz77_compress,
    _lz77_compress_ref,
    _lz77_decompress,
    _lz77_decompress_ref,
)
from repro.mlkit import RandomForestRegressor
from tests import reference_kernels as ref

ARTIFACT = "BENCH_kernels.json"
PAYLOAD_SIZE = 1 << 20
SPEEDUP_BAR = 5.0


def _best(fn, *args, reps: int = 3) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _production_payload(size: int = PAYLOAD_SIZE) -> bytes:
    """Huffman-coded Gaussian quantizer residuals, truncated to *size*.

    This is the content the lz77 stage compresses in production: sz3 and
    sperr hand their Huffman stream to ``lossless_compress``, so the
    kernel benchmark measures the encoder on exactly that byte
    distribution (high entropy, sparse 4-byte repeats).
    """
    rng = np.random.default_rng(21)
    sym = np.clip(np.round(rng.standard_normal(2_500_000) * 3.0), -60, 60).astype(
        np.int64
    )
    stream = huffman.encode(sym)
    assert len(stream) >= size
    return stream[:size]


def _contrast_payloads() -> dict[str, bytes]:
    rng = np.random.default_rng(22)
    motif = rng.integers(0, 40, 2048, dtype=np.int64).astype(np.uint8).tobytes()
    return {
        "periodic": b"abcdab" * (PAYLOAD_SIZE // 6),
        "motif_tiled": motif * (PAYLOAD_SIZE // len(motif)),
    }


def _bench_lz77(payload: bytes, reps: int = 3) -> dict:
    t_enc_ref, stream_ref = _best(_lz77_compress_ref, payload, reps=reps)
    t_enc_new, stream_new = _best(_lz77_compress, payload, reps=reps)
    assert stream_ref == stream_new, "vectorized encoder is not bit-exact"
    t_dec_ref, out_ref = _best(_lz77_decompress_ref, stream_new, len(payload), reps=reps)
    t_dec_new, out_new = _best(_lz77_decompress, stream_new, len(payload), reps=reps)
    assert out_ref == out_new == payload, "decode round-trip failed"
    return {
        "payload_bytes": len(payload),
        "stream_bytes": len(stream_new),
        "encode_ref_s": round(t_enc_ref, 4),
        "encode_vec_s": round(t_enc_new, 4),
        "encode_speedup": round(t_enc_ref / t_enc_new, 2),
        "decode_ref_s": round(t_dec_ref, 4),
        "decode_vec_s": round(t_dec_new, 4),
        "decode_speedup": round(t_dec_ref / t_dec_new, 2),
        "combined_speedup": round((t_enc_ref + t_dec_ref) / (t_enc_new + t_dec_new), 2),
    }


def _bench_field(rng: np.random.Generator) -> np.ndarray:
    axes = [np.linspace(0.0, 2.0 * np.pi, s) for s in (64, 64, 32)]
    zz, yy, xx = np.meshgrid(*axes, indexing="ij")
    field = np.sin(3.0 * xx) * np.cos(2.0 * yy) + 0.5 * np.sin(zz)
    return field + 0.02 * rng.standard_normal(field.shape)


def _bench_huffman_kernels(symbols: np.ndarray, reps: int) -> dict:
    """Build / pack / decode of one symbol stream, new kernel vs oracle."""
    values, counts = np.unique(symbols, return_counts=True)
    t_build_ref, lengths_ref = _best(ref.huffman_code_lengths_heap, counts, reps=reps)
    t_build, lengths = _best(huffman.huffman_code_lengths, counts, reps=reps)
    assert np.array_equal(lengths, lengths_ref), "two-queue build changed a code length"

    code = huffman.build_code(symbols=values, counts=counts)
    idx = np.searchsorted(values, symbols)
    args = (code.codes[idx], code.lengths[idx])
    t_pack_ref, packed_ref = _best(ref.pack_codes_bitplanes, *args, reps=reps)
    t_pack, packed = _best(pack_codes, *args, reps=reps)
    assert packed == packed_ref, "byte-plane packer is not byte-exact"

    stream = huffman.encode(symbols)
    t_dec_ref, out_ref = _best(ref.huffman_decode_full_lifting, stream, reps=reps)
    t_dec, out = _best(huffman.decode, stream, reps=reps)
    assert np.array_equal(out, out_ref) and np.array_equal(out, symbols)
    return {
        "codes": int(symbols.size),
        "symbols": int(values.size),
        "build_ref_s": round(t_build_ref, 6),
        "build_s": round(t_build, 6),
        "build_speedup": round(t_build_ref / t_build, 2),
        "pack_ref_s": round(t_pack_ref, 6),
        "pack_s": round(t_pack, 6),
        "pack_speedup": round(t_pack_ref / t_pack, 2),
        "decode_ref_s": round(t_dec_ref, 6),
        "decode_s": round(t_dec, 6),
        "decode_speedup": round(t_dec_ref / t_dec, 2),
    }


def _bench_forest(rows: int, reps: int) -> dict:
    """Fit and predict of one 30-tree forest, new kernels vs oracle."""
    rng = np.random.default_rng(rows)
    X = rng.standard_normal((rows, 11))
    y = X[:, 0] + 0.1 * rng.standard_normal(rows)
    t_fit_ref, (trees, oob) = _best(ref.forest_fit_loop, X, y, reps=reps)
    t_fit, forest = _best(lambda: RandomForestRegressor().fit(X, y), reps=reps)
    for got, want in zip(forest.trees_, trees):
        for name in ("feature_", "threshold_", "left_", "right_", "value_"):
            assert getattr(got, name).tobytes() == want[name].tobytes(), name
    assert forest.oob_prediction_.tobytes() == oob.tobytes()
    row = {
        "rows": rows,
        "nodes": int(sum(t.feature_.size for t in forest.trees_)),
        "fit_ref_s": round(t_fit_ref, 6),
        "fit_s": round(t_fit, 6),
        "fit_speedup": round(t_fit_ref / t_fit, 2),
    }
    queries = rng.standard_normal((32, 11))
    queries[0, 0] = np.nan
    for batch in (1, 32):
        Q = queries[:batch]
        t_ref, out_ref = _best(ref.forest_predict_loop, trees, Q, reps=50)
        t_new, out = _best(forest.predict, Q, reps=50)
        assert out.tobytes() == out_ref.tobytes()
        row[f"predict_b{batch}_ref_s"] = round(t_ref, 7)
        row[f"predict_b{batch}_s"] = round(t_new, 7)
        row[f"predict_b{batch}_speedup"] = round(t_ref / t_new, 2)
    return row


def _bench_hashing(reps: int) -> dict:
    """``build_tasks()`` at 416 tasks vs hashing every task on its own."""
    dataset = HurricaneDataset(shape=(8, 8, 8), timesteps=4)
    runner = ExperimentRunner(
        dataset, compressors=("sz3", "zfp"), bounds=(1e-6, 1e-4), replicates=2
    )
    t_new, tasks = _best(runner.build_tasks, reps=reps)
    t_ref, want = _best(lambda: [ref.task_hashes_per_task(t) for t in tasks], reps=reps)
    got = [
        (t.key(), t.compressor_hash(), t.dataset_hash(), t.experiment_hash()) for t in tasks
    ]
    assert got == want
    return {
        "tasks": len(tasks),
        "distinct_parts": len(dataset) + 4 + 1,
        "hash_ref_s": round(t_ref, 6),
        "build_tasks_s": round(t_new, 6),
        "speedup": round(t_ref / t_new, 2),
        "per_task_ref_us": round(t_ref / len(tasks) * 1e6, 2),
        "per_task_us": round(t_new / len(tasks) * 1e6, 2),
    }


class TestKernelSpeed:
    def test_kernels_meet_speed_bar(self, record_property):
        report: dict = {}

        # -- lz77: production payload carries the acceptance bar --------
        lz = {"production_hstream": _bench_lz77(_production_payload())}
        for name, payload in _contrast_payloads().items():
            lz[name] = _bench_lz77(payload)
        report["lz77"] = lz
        record_property("lz77", lz)

        # -- canonical table build --------------------------------------
        rng = np.random.default_rng(7)
        sym = np.clip(rng.zipf(1.3, 200_000), 1, 5000).astype(np.int64)
        code = huffman.build_code(sym)
        t_ref, tables_ref = _best(ref.decode_tables_scatter_loop, code)
        t_vec, tables_vec = _best(code.decode_tables)
        assert np.array_equal(tables_ref[0], tables_vec[0])
        assert np.array_equal(tables_ref[1], tables_vec[1])
        report["huffman_tables"] = {
            "symbols": int(code.symbols.size),
            "table_width_bits": code.max_length,
            "build_ref_s": round(t_ref, 5),
            "build_vec_s": round(t_vec, 5),
            "build_speedup": round(t_ref / t_vec, 2),
        }

        # -- Huffman build / pack / decode vs the test-only oracles ------
        field = _bench_field(rng)
        residuals, _ = split_escapes(lorenzo_forward(quantize(field, 1e-5), 1))
        residuals = residuals.reshape(-1)
        report["huffman_tables"]["kernels"] = {
            "production_residuals": _bench_huffman_kernels(residuals, reps=3),
            "tiny_64_codes": _bench_huffman_kernels(residuals[:64], reps=200),
        }
        record_property("huffman_tables", report["huffman_tables"])

        # -- forest fit / predict vs the test-only oracles ----------------
        report["forest"] = {
            "rows_24": _bench_forest(24, reps=5),
            "rows_300": _bench_forest(300, reps=3),
        }
        record_property("forest", report["forest"])

        # -- task hashing vs the test-only per-task oracle ----------------
        report["hashing"] = {"tasks_416": _bench_hashing(reps=10)}
        record_property("hashing", report["hashing"])

        # -- per-stage compressor timings -------------------------------
        from repro.core.compressor import compressor_registry
        import repro.compressors  # noqa: F401

        stage_rows = {}
        for comp_id, options in (
            ("sz3", {"pressio:abs": 1e-3}),
            ("sz3", {"pressio:abs": 1e-3, "sz3:predictor": "interp"}),
            ("zfp", {"pressio:abs": 1e-3}),
            ("szx", {"pressio:abs": 1e-3}),
            ("sperr", {"pressio:abs": 1e-3}),
        ):
            comp = compressor_registry.create(comp_id)
            comp.set_options(options)
            label = comp_id + ("_interp" if options.get("sz3:predictor") else "")
            stage_rows[label] = {
                k: round(v, 5) for k, v in comp.stage_times(field).items()
            }
        report["stage_times"] = stage_rows
        record_property("stage_times", stage_rows)

        with open(ARTIFACT, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        record_property("artifact", os.path.abspath(ARTIFACT))

        # Acceptance bar: >= 5x combined encode+decode wall-clock on the
        # 1 MiB production payload, and the table build must not regress.
        assert lz["production_hstream"]["combined_speedup"] >= SPEEDUP_BAR
        assert lz["production_hstream"]["encode_speedup"] >= SPEEDUP_BAR
        assert report["huffman_tables"]["build_speedup"] >= 1.0
        # The Huffman kernels must win on the production stream and must
        # not lose on tiny ones (thousands of 2 KiB fields per campaign).
        for size, row in report["huffman_tables"]["kernels"].items():
            for kernel in ("build", "pack", "decode"):
                assert row[f"{kernel}_speedup"] >= 1.0, (size, kernel, row)
        # The forest kernels must not lose at either training-set size or
        # either batch size (byte equality was asserted while timing).
        for size, row in report["forest"].items():
            for kernel in ("fit", "predict_b1", "predict_b32"):
                assert row[f"{kernel}_speedup"] >= 1.0, (size, kernel, row)
        # Hashing a campaign's parts once must not lose to hashing every
        # task on its own (key equality was asserted while timing).
        assert report["hashing"]["tasks_416"]["speedup"] >= 1.0, report["hashing"]
        for label, row in stage_rows.items():
            assert row["total"] > 0.0, label
