"""Golden-stream fixture definitions for the kernel layer.

The vectorized kernel rewrites (LZ77 hash-chain matcher, list-ranking
token decoder, canonical-table build) are only acceptable if they are
*bit-exact*: the byte streams they emit must be identical to the ones
the original interpreted implementations produced.  This module pins
that contract:

* deterministic input generators (seeded ``np.random.default_rng``, so
  the same bytes come back on every run and platform);
* the frozen-variant table: one named entry per (compressor, options)
  pair and per raw LZ77 payload;
* a ``regen`` entry point that writes the frozen streams under
  ``tests/golden/`` — run it **only** when the stream format itself is
  intentionally changed, never to paper over an accidental diff::

      PYTHONPATH=src python -m tests.golden_kernels

``tests/test_golden_streams.py`` asserts byte-identity of every encoder
against these files plus exact decode round-trips and the error-bound
property on the decoded arrays.
"""

from __future__ import annotations

import os

import numpy as np

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# -- deterministic inputs ----------------------------------------------------

def golden_field(shape: tuple[int, ...] = (24, 20, 16), seed: int = 7) -> np.ndarray:
    """A smooth-but-textured 3-D field: compressible, non-trivial."""
    axes = [np.linspace(0.0, 2.0 * np.pi, s) for s in shape]
    zz, yy, xx = np.meshgrid(*axes, indexing="ij")
    rng = np.random.default_rng(seed)
    field = (
        np.sin(3.0 * xx) * np.cos(2.0 * yy)
        + 0.5 * np.sin(zz + 0.3 * xx)
        + 0.02 * rng.standard_normal(shape)
    )
    return np.ascontiguousarray(field, dtype=np.float64)


def golden_sparse_field(shape: tuple[int, ...] = (24, 20, 16), seed: int = 13) -> np.ndarray:
    """A mostly-zero field (constant-block heavy — the SZx sweet spot)."""
    rng = np.random.default_rng(seed)
    field = np.zeros(shape, dtype=np.float64)
    gate = rng.random(shape) > 0.92
    field[gate] = rng.standard_normal(int(gate.sum()))
    return field


def golden_lz_payloads() -> dict[str, bytes]:
    """Raw byte payloads exercising every LZ77 code path.

    ``periodic`` forces overlapping copies, ``residuals`` mimics a
    quantizer output (short matches, literal islands), ``motif`` repeats
    a long pattern at > 255-byte distance, ``random`` is incompressible
    (stored-raw path), ``runs`` has maximal-length matches, ``tiny`` and
    ``empty`` cover the degenerate ends.
    """
    rng = np.random.default_rng(11)
    residuals = np.clip(
        np.round(rng.standard_normal(60_000) * 2.5), -30, 30
    ).astype(np.int8).tobytes()
    motif = rng.integers(0, 40, 700, dtype=np.int64).astype(np.uint8).tobytes()
    payloads = {
        "periodic": b"abcdab" * 700,
        "residuals": residuals,
        "motif": motif * 60,
        "random": rng.bytes(4096),
        "runs": b"\x00" * 2000 + b"\x07" * 900 + bytes(range(256)) * 4,
        "tiny": b"xyz",
        "empty": b"",
    }
    return payloads


def golden_huffman_symbols(seed: int = 5, size: int = 50_000) -> np.ndarray:
    """A Zipf-ish int64 symbol stream (deep, skewed code tree)."""
    rng = np.random.default_rng(seed)
    sym = rng.zipf(1.3, size).astype(np.int64)
    return np.clip(sym, 1, 5000) - 2500


#: (fixture name, compressor id, options, input kind).  The streams are
#: ``compress_impl`` outputs — the raw codec payload without the generic
#: self-describing header, which is what the kernel layer owns.
GOLDEN_COMPRESSOR_VARIANTS: tuple[tuple[str, str, dict, str], ...] = (
    ("sz3_lorenzo", "sz3", {"pressio:abs": 1e-3}, "field"),
    ("sz3_lorenzo2", "sz3", {"pressio:abs": 1e-3, "sz3:predictor": "lorenzo2"}, "field"),
    ("sz3_interp", "sz3", {"pressio:abs": 1e-3, "sz3:predictor": "interp"}, "field"),
    ("sz3_lz77", "sz3", {"pressio:abs": 1e-3, "sz3:lossless": "lz77"}, "field"),
    ("sz3_sparse", "sz3", {"pressio:abs": 1e-4}, "sparse"),
    ("zfp_accuracy", "zfp", {"pressio:abs": 1e-3}, "field"),
    ("zfp_rate", "zfp", {"pressio:abs": 1e-3, "zfp:mode": "rate", "zfp:rate": 6.0}, "field"),
    ("zfp_lz77", "zfp", {"pressio:abs": 1e-3, "zfp:lossless": "lz77"}, "field"),
    ("szx_default", "szx", {"pressio:abs": 1e-3}, "field"),
    ("szx_lz77", "szx", {"pressio:abs": 1e-3, "szx:lossless": "lz77"}, "field"),
    ("szx_sparse", "szx", {"pressio:abs": 1e-4}, "sparse"),
    ("sperr_default", "sperr", {"pressio:abs": 1e-3}, "field"),
    ("sperr_lz77", "sperr", {"pressio:abs": 1e-3, "sperr:lossless": "lz77"}, "field"),
)


def golden_input(kind: str) -> np.ndarray:
    return golden_field() if kind == "field" else golden_sparse_field()


def compressor_stream(name: str) -> bytes:
    """Encode the named variant with the current implementation."""
    from repro.core.compressor import compressor_registry
    import repro.compressors  # noqa: F401  (registers the plugins)

    for fname, comp_id, options, kind in GOLDEN_COMPRESSOR_VARIANTS:
        if fname == name:
            comp = compressor_registry.create(comp_id)
            comp.set_options(options)
            return comp.compress_impl(golden_input(kind))
    raise KeyError(name)


def lz77_token_stream(payload: bytes) -> bytes:
    """Raw LZ77 token bytes (no lossless header) for *payload*."""
    from repro.encoding.lz import _lz77_compress

    return _lz77_compress(payload)


def huffman_stream() -> bytes:
    from repro.encoding import huffman

    return huffman.encode(golden_huffman_symbols())


def huffman_tables_digest() -> bytes:
    """sha256 of the decode tables for the golden code (2 MiB raw, so the
    fixture pins the digest rather than the bytes)."""
    import hashlib

    from repro.encoding import huffman
    from tests.reference_kernels import decode_tables

    code = huffman.build_code(golden_huffman_symbols())
    sym_table, len_table = decode_tables(code)
    blob = sym_table.astype("<i8").tobytes() + len_table.astype("<i8").tobytes()
    return hashlib.sha256(blob).hexdigest().encode("ascii")


def regen() -> list[str]:
    """(Re)write every golden fixture; returns the paths written."""
    from repro.encoding.lz import lossless_compress

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    written: list[str] = []

    def emit(name: str, blob: bytes) -> None:
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "wb") as fh:
            fh.write(blob)
        written.append(path)

    for name, _comp, _opts, _kind in GOLDEN_COMPRESSOR_VARIANTS:
        emit(f"comp_{name}.bin", compressor_stream(name))
    for name, payload in golden_lz_payloads().items():
        emit(f"lz77_tokens_{name}.bin", lz77_token_stream(payload))
        emit(f"lz77_stream_{name}.bin", lossless_compress(payload, backend="lz77"))
    emit("huffman_stream.bin", huffman_stream())
    emit("huffman_tables.sha256", huffman_tables_digest())
    return written


if __name__ == "__main__":
    for path in regen():
        print(path)
