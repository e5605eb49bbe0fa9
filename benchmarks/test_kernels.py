"""Kernel benchmark: the vectorized LZ77/Huffman hot path and the
forest kernels vs the interpreted reference loops, plus per-stage
compressor timings.

The collection wall-clock path of every campaign runs through the
encoding kernels, so their speed is tracked like the data-plane and
serve benchmarks.  Six sections land in ``BENCH_kernels.json``:

* ``lz77`` — the vectorised hash-chain encoder against the
  byte-at-a-time loop in ``tests/reference_kernels.py`` on a 1 MiB
  payload of production content (a Huffman-coded quantizer-residual
  stream — the exact bytes the final lossless pass sees inside
  sz3/sperr).  The acceptance bar is a >= 5x encode wall-clock win, with
  byte-identical streams.  The one decoder (the token loop) has nothing
  to be compared with, so its ms/MB is reported on the production
  payload and two shape-contrast payloads (periodic, motif-tiled).
* ``huffman_tables`` — the two-``np.repeat`` canonical-table build
  against the per-symbol scatter loop it replaced, and (``kernels``) the
  two-queue length build, argsort canonical code assignment, byte-plane
  packer, lookup-table encoder and from-the-bytes decoder against the
  retired implementations in ``tests/reference_kernels.py`` (heap build,
  one pass per code length, bit-plane packer, searchsorted encoder, and
  both the full-lifting and the int64-window decoder) — on the
  production residual stream (sz3's quantize → Lorenzo → escape split on
  a 512 KiB field: ~131 k codes over a ~10 k-symbol alphabet) and on a
  64-code one (the ``campaign_many_small`` regime).  Byte equality is
  asserted, and "not slower" at both sizes, except that the encoder and
  the int64-window decoder comparisons tie on the 64-code stream and are
  held within 10 % there.  Each row also records the traced peak MB of
  one encode and one decode (``encode_peak_mb``, ``decode_peak_mb``):
  both kernels work in fixed-size blocks, so these stay near the
  output's size; no bar is set on them.
* ``read_uint`` — the fixed-width reader under zfp's and szx's width
  groups, straight from the bytes, against the ``(count, width)`` bit
  matrix it replaced: 118 k values at 22 bits (the largest group one
  ``campaign_compute`` cycle reads) and 63 at 10 bits (its smallest),
  plus the ninth-byte case at 61 bits.  Equal values; not slower on the
  large rows, within 10 % on the 63-value one.  These rows and the
  encoder/decoder ones alternate the two sides call by call (``_race``).
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
import tracemalloc

import numpy as np

from repro.bench import ExperimentRunner
from repro.compressors.sz3 import lorenzo_forward, quantize, split_escapes
from repro.dataset import HurricaneDataset
from repro.encoding import huffman, pack_codes, read_uint_array, write_uint_array
from repro.encoding.lz import _lz77_compress, _lz77_decompress
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


def _race(ref_fn, new_fn, *args, reps: int = 3) -> tuple[float, object, float, object]:
    """Best-of-*reps* of two implementations, their calls alternated so
    that a slow spell of the host cannot fall on one side only."""
    best_ref = best_new = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        out_ref = ref_fn(*args)
        t1 = time.perf_counter()
        out_new = new_fn(*args)
        t2 = time.perf_counter()
        best_ref, best_new = min(best_ref, t1 - t0), min(best_new, t2 - t1)
    return best_ref, out_ref, best_new, out_new


def _peak_mb(fn, *args) -> float:
    """Traced peak of one call in MB (its arguments allocated before)."""
    tracemalloc.start()
    try:
        fn(*args)
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
    finally:
        tracemalloc.stop()


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
    t_enc_ref, stream_ref = _best(ref.lz77_compress_loop, payload, reps=reps)
    t_enc, stream = _best(_lz77_compress, payload, reps=reps)
    assert stream == stream_ref, "vectorized encoder is not bit-exact"
    t_dec, out = _best(_lz77_decompress, stream, len(payload), reps=reps)
    assert out == payload, "decode round-trip failed"
    return {
        "payload_bytes": len(payload),
        "stream_bytes": len(stream),
        "encode_ref_s": round(t_enc_ref, 4),
        "encode_vec_s": round(t_enc, 4),
        "encode_speedup": round(t_enc_ref / t_enc, 2),
        "decode_s": round(t_dec, 4),
        "decode_ms_per_mb": round(t_dec * 1e3 / (len(payload) / 1e6), 3),
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
    t_canon_ref, codes_ref, t_canon, codes = _race(
        ref.canonical_codes_per_length, huffman.canonical_codes, code.lengths, reps=reps
    )
    assert codes.tobytes() == codes_ref.tobytes(), "argsort ranking changed a code"
    idx = np.searchsorted(values, symbols)
    args = (code.codes[idx], code.lengths[idx])
    t_pack_ref, packed_ref = _best(ref.pack_codes_bitplanes, *args, reps=reps)
    t_pack, packed = _best(pack_codes, *args, reps=reps)
    assert packed == packed_ref, "byte-plane packer is not byte-exact"

    t_enc_ref, stream_ref, t_enc, stream = _race(
        ref.huffman_encode_searchsorted, huffman.encode, symbols, reps=reps
    )
    assert stream == stream_ref, "lookup-table encoder is not byte-exact"

    t_dec_ref, out_ref = _best(ref.huffman_decode_full_lifting, stream, reps=reps)
    t_dec_win, out_win, t_dec, out = _race(
        ref.huffman_decode_windows, huffman.decode, stream, reps=reps
    )
    assert np.array_equal(out, out_ref) and np.array_equal(out, symbols)
    assert np.array_equal(out, out_win)
    encode_peak, decode_peak = _peak_mb(huffman.encode, symbols), _peak_mb(huffman.decode, stream)
    return {
        "codes": int(symbols.size),
        "symbols": int(values.size),
        "build_ref_s": round(t_build_ref, 6),
        "build_s": round(t_build, 6),
        "build_speedup": round(t_build_ref / t_build, 2),
        "canonical_ref_s": round(t_canon_ref, 6),
        "canonical_s": round(t_canon, 6),
        "canonical_speedup": round(t_canon_ref / t_canon, 2),
        "pack_ref_s": round(t_pack_ref, 6),
        "pack_s": round(t_pack, 6),
        "pack_speedup": round(t_pack_ref / t_pack, 2),
        "encode_ref_s": round(t_enc_ref, 6),
        "encode_s": round(t_enc, 6),
        "encode_speedup": round(t_enc_ref / t_enc, 2),
        "decode_ref_s": round(t_dec_ref, 6),
        "decode_windows_ref_s": round(t_dec_win, 6),
        "decode_s": round(t_dec, 6),
        "decode_speedup": round(t_dec_ref / t_dec, 2),
        "decode_windows_speedup": round(t_dec_win / t_dec, 2),
        "encode_peak_mb": encode_peak,
        "decode_peak_mb": decode_peak,
    }


def _bench_read_uint(width: int, count: int, reps: int) -> dict:
    """One fixed-width read, from the bytes vs the bit matrix."""
    rng = np.random.default_rng(width)
    values = rng.integers(0, 2**63, count, dtype=np.uint64) >> np.uint64(64 - width)
    payload = write_uint_array(values, width)
    t_ref, want, t_new, got = _race(
        ref.read_uint_array_bitmatrix, read_uint_array, payload, width, count, reps=reps
    )
    assert got.tobytes() == want.tobytes() == values.tobytes()
    return {
        "width": width,
        "count": count,
        "read_ref_s": round(t_ref, 7),
        "read_s": round(t_new, 7),
        "read_speedup": round(t_ref / t_new, 2),
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
        t_vec, tables_vec = _best(ref.decode_tables, code)
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
            "tiny_64_codes": _bench_huffman_kernels(residuals[:64], reps=1000),
        }
        record_property("huffman_tables", report["huffman_tables"])

        # -- fixed-width reads vs the bit-matrix oracle -------------------
        report["read_uint"] = {
            "group_118k_x22": _bench_read_uint(22, 118_377, reps=5),
            "small_group_63_x10": _bench_read_uint(10, 63, reps=2000),
            "ninth_byte_4k_x61": _bench_read_uint(61, 4096, reps=20),
        }
        record_property("read_uint", report["read_uint"])

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

        # Acceptance bar: >= 5x encode wall-clock on the 1 MiB production
        # payload, and the table build must not regress.
        assert lz["production_hstream"]["encode_speedup"] >= SPEEDUP_BAR
        assert report["huffman_tables"]["build_speedup"] >= 1.0
        # The Huffman kernels must win on the production stream and must
        # not lose on tiny ones (thousands of 2 KiB fields per campaign).
        for size, row in report["huffman_tables"]["kernels"].items():
            for kernel in ("build", "canonical", "pack", "decode"):
                assert row[f"{kernel}_speedup"] >= 1.0, (size, kernel, row)
        # Against the forms they replaced, the lookup encoder, the
        # from-the-bytes decoder and the fixed-width reader must win on
        # the large inputs.  On the tiny ones they do not: the two sides
        # share all but a handful of NumPy calls (about a microsecond
        # each), and four runs on 2 shared cores read 0.95-0.99 for the
        # 64-code encode (its values span too wide for the table, so it
        # is the sorted search plus a min and a max), 0.96-0.99 for the
        # 63-value read and 1.01-1.04 for the window decoder.  The 0.9
        # bar there only catches a larger regression; it does not make
        # them "not slower".
        large = report["huffman_tables"]["kernels"]["production_residuals"]
        tiny = report["huffman_tables"]["kernels"]["tiny_64_codes"]
        for kernel in ("encode", "decode_windows"):
            assert large[f"{kernel}_speedup"] >= 1.0, (kernel, large)
            assert tiny[f"{kernel}_speedup"] >= 0.9, (kernel, tiny)
        for size, row in report["read_uint"].items():
            bar = 0.9 if row["count"] < 100 else 1.0
            assert row["read_speedup"] >= bar, (size, row)
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
