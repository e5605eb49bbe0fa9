"""Compressor plugin base class (LibPressio's ``libpressio_compressor``).

Concrete codecs implement :meth:`compress_impl` / :meth:`decompress_impl`
over raw bytes; this base class adds the framework responsibilities:

* option handling (``pressio:abs`` etc.) with introspection;
* metrics lifecycle hooks (begin/end compress/decompress) with timing;
* per-stage timing of the one encoder (:meth:`CompressorPlugin.stage_times`);
* a self-describing stream header so decompression needs no template;
* the registry other components use to look codecs up by id.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Sequence

import numpy as np

from .data import PressioData, as_data
from .errors import CorruptStreamError, MissingOptionError
from .metrics import CompositeMetrics, MetricsPlugin, now
from .options import PressioOptions, as_options
from .registry import Registry

#: Global registry of compressor plugins ("sz3", "zfp", "szx", "noop").
compressor_registry: Registry["CompressorPlugin"] = Registry("compressor")

#: ``lap(stage)`` marks the end of *stage* inside ``compress_impl``.
Lap = Callable[[str], None]


def no_lap(stage: str) -> None:
    """The ``lap`` a plain :meth:`CompressorPlugin.compress` runs with."""


_MAGIC = b"RPRC"
_HEADER = struct.Struct("<4sB3xQ")  # magic, ndim, payload length


def _pack_header(array: np.ndarray, payload: bytes) -> bytes:
    """Prefix *payload* with dtype/shape so streams are self-describing."""
    dtype = array.dtype.str.encode()
    parts = [
        _HEADER.pack(_MAGIC, array.ndim, len(payload)),
        len(dtype).to_bytes(2, "little"),
        dtype,
    ]
    for dim in array.shape:
        parts.append(int(dim).to_bytes(8, "little"))
    parts.append(payload)
    return b"".join(parts)


def _unpack_header(stream: bytes) -> tuple[np.dtype, tuple[int, ...], bytes]:
    """Parse a stream header, returning (dtype, shape, payload)."""
    if len(stream) < _HEADER.size:
        raise CorruptStreamError("stream too short for header")
    magic, ndim, payload_len = _HEADER.unpack_from(stream, 0)
    if magic != _MAGIC:
        raise CorruptStreamError("bad magic in compressed stream")
    off = _HEADER.size
    dlen = int.from_bytes(stream[off : off + 2], "little")
    off += 2
    dtype = np.dtype(stream[off : off + dlen].decode())
    off += dlen
    shape = tuple(
        int.from_bytes(stream[off + 8 * i : off + 8 * (i + 1)], "little")
        for i in range(ndim)
    )
    off += 8 * ndim
    payload = stream[off : off + payload_len]
    if len(payload) != payload_len:
        raise CorruptStreamError("truncated compressed payload")
    return dtype, shape, payload


class CompressorPlugin:
    """Abstract error-bounded compressor.

    Subclasses set :attr:`id`, declare their option surface in
    :meth:`default_options`, and implement the two ``*_impl`` methods.
    """

    id: str = "compressor"

    #: The encoder's stages in order: ``compress_impl`` calls ``lap(name)``
    #: as each one ends, and :meth:`stage_times` reports one time per name.
    stages: tuple[str, ...] = ()

    #: Option keys that affect the error of the reconstruction.  Consulted
    #: by the invalidation machinery: a change to one of these keys
    #: triggers ``predictors:error_dependent`` invalidation.
    error_affecting_options: Sequence[str] = ("pressio:abs", "pressio:rel")

    def __init__(self, **options: Any) -> None:
        self._options = self.default_options()
        self.set_options(PressioOptions({k.replace("__", ":"): v for k, v in options.items()}))
        self._metrics = CompositeMetrics([])

    # -- configuration -------------------------------------------------------
    def default_options(self) -> PressioOptions:
        """The full option surface with defaults; subclasses extend."""
        return PressioOptions({"pressio:abs": 1e-4})

    def set_options(self, opts: PressioOptions | dict[str, Any]) -> None:
        """Merge *opts* into the current configuration."""
        self._options.merge(as_options(opts))

    def get_options(self) -> PressioOptions:
        return self._options.copy()

    def get_configuration(self) -> PressioOptions:
        """Static metadata for introspection and invalidation queries."""
        return PressioOptions(
            {
                "pressio:id": self.id,
                "pressio:error_affecting": list(self.error_affecting_options),
                "pressio:thread_safe": True,
            }
        )

    @property
    def abs_bound(self) -> float:
        """The configured absolute error bound (``pressio:abs``)."""
        value = self._options.get("pressio:abs")
        if value is None:
            raise MissingOptionError(f"{self.id}: pressio:abs is required")
        return float(value)

    # -- metrics attachment ---------------------------------------------------
    def set_metrics(self, plugins: Sequence[MetricsPlugin]) -> None:
        """Attach metric observers to subsequent (de)compress calls."""
        self._metrics = CompositeMetrics(list(plugins))

    def get_metrics(self) -> CompositeMetrics:
        return self._metrics

    def get_metrics_results(self) -> PressioOptions:
        return self._metrics.get_metrics_results()

    def _resolve_relative_bound(self, array: np.ndarray) -> None:
        """Turn ``pressio:rel`` into a concrete ``pressio:abs``.

        A value-range-relative bound (the paper's footnote 6 calls it
        the principled way to compare fields of different scales) is
        resolved against *this* buffer's range at compress time.
        """
        rel = self._options.get("pressio:rel")
        if rel is None:
            return
        if array.size:
            vrange = float(array.max()) - float(array.min())
        else:
            vrange = 0.0
        self._options["pressio:abs"] = float(rel) * max(vrange, 1e-30)

    # -- public API -----------------------------------------------------------
    def compress(self, data: PressioData | np.ndarray) -> PressioData:
        """Compress *data*, running metric hooks, returning a byte buffer."""
        buf = as_data(data)
        self._resolve_relative_bound(buf.array)
        self._metrics.begin_compress_impl(buf, self._options)
        start = now()
        payload = self.compress_impl(buf.array)
        elapsed = now() - start
        stream = PressioData.from_bytes(
            _pack_header(buf.array, payload),
            metadata={**buf.metadata, "compressor": self.id},
        )
        self._metrics.end_compress_impl(buf, stream, 0, elapsed)
        return stream

    def decompress(self, compressed: PressioData | np.ndarray | bytes) -> PressioData:
        """Decompress a stream produced by :meth:`compress`."""
        if isinstance(compressed, bytes):
            compressed = PressioData.from_bytes(compressed)
        stream = as_data(compressed)
        self._metrics.begin_decompress_impl(stream, self._options)
        dtype, shape, payload = _unpack_header(stream.tobytes())
        start = now()
        out = self.decompress_impl(payload, dtype, shape)
        elapsed = now() - start
        result = PressioData(out, metadata=stream.metadata)
        self._metrics.end_decompress_impl(stream, result, 0, elapsed)
        return result

    def roundtrip(self, data: PressioData | np.ndarray) -> tuple[PressioData, PressioData]:
        """Compress then decompress, returning (stream, reconstruction)."""
        stream = self.compress(data)
        return stream, self.decompress(stream)

    def stage_times(self, array: np.ndarray) -> dict[str, float]:
        """Wall-clock seconds per declared stage of one ``compress_impl``
        run, plus ``"total"`` for the whole call.

        This times the encoder :meth:`compress` runs — the codec reports
        its stage boundaries through ``lap`` — so a stage can neither be
        skipped nor drift from the stream it claims to describe.  Uses
        the configured ``pressio:abs`` as is (no ``pressio:rel`` resolution).
        """
        times = dict.fromkeys(self.stages, 0.0)
        start = mark = now()

        def lap(stage: str) -> None:
            nonlocal mark
            t = now()
            times[stage] += t - mark
            mark = t

        self.compress_impl(np.asarray(array), lap)
        times["total"] = now() - start
        return times

    # -- codec hooks ------------------------------------------------------------
    def compress_impl(self, array: np.ndarray, lap: Lap = no_lap) -> bytes:
        """Encode *array* into a byte payload (header added by caller),
        calling ``lap(stage)`` as each of :attr:`stages` ends."""
        raise NotImplementedError

    def decompress_impl(
        self, payload: bytes, dtype: np.dtype, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Decode *payload* back into an array of the given dtype/shape."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id!r}, options={self._options!r})"


@compressor_registry.register("noop")
class NoopCompressor(CompressorPlugin):
    """Identity codec: stores raw bytes.  Baseline and test fixture."""

    id = "noop"
    error_affecting_options: Sequence[str] = ()

    def default_options(self) -> PressioOptions:
        return PressioOptions()

    @property
    def abs_bound(self) -> float:  # noop is lossless
        return 0.0

    def compress_impl(self, array: np.ndarray, lap: Lap = no_lap) -> bytes:
        return np.ascontiguousarray(array).tobytes()

    def decompress_impl(self, payload, dtype, shape):
        return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def make_compressor(name: str, **options: Any) -> CompressorPlugin:
    """Instantiate a compressor by registry id with option overrides.

    Option keys may use ``__`` for ``:`` (``pressio__abs=1e-4``).
    """
    return compressor_registry.create(name, **options)


def clone_compressor(compressor: CompressorPlugin) -> CompressorPlugin:
    """A fresh instance with the same id and options but no metrics.

    Probe metrics compress sampled data with a *private* clone so that
    running them inside a metrics-attached compressor cannot recurse.
    """
    clone = compressor_registry.create(compressor.id)
    clone.set_options(compressor.get_options())
    return clone
