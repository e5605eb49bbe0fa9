"""Core abstractions: data buffers, options, plugins, hashing.

This package is the LibPressio analog that everything else builds on:

* :class:`~repro.core.data.PressioData` — typed buffers with provenance;
* :class:`~repro.core.options.PressioOptions` — introspectable options;
* :class:`~repro.core.compressor.CompressorPlugin` — codec base + registry;
* :class:`~repro.core.metrics.MetricsPlugin` — lifecycle metric hooks with
  ``predictors:invalidate`` declarations;
* :func:`~repro.core.hashing.options_hash` — stable cryptographic hashing
  of option structures for checkpoint indexing.
"""

from .compressor import (
    CompressorPlugin,
    NoopCompressor,
    compressor_registry,
    make_compressor,
)
from .data import PressioData, as_data
from .errors import (
    PERMANENT_STATUSES,
    BoundViolationError,
    CorruptStreamError,
    MissingOptionError,
    OptionError,
    PressioError,
    RetryPolicy,
    Status,
    TaskFailedError,
    TaskTimeoutError,
    TypeMismatchError,
    UnsupportedError,
    error_status,
    is_permanent_status,
)
from .hashing import combined_hash, options_hash
from .metrics import (
    ERROR_AGNOSTIC,
    ERROR_DEPENDENT,
    NONDETERMINISTIC,
    RUNTIME,
    TRAINING,
    CompositeMetrics,
    ErrorStatMetrics,
    MetricsPlugin,
    SizeMetrics,
    TimeMetrics,
)
from .options import PressioOptions, as_options
from .registry import Registry

__all__ = [
    "BoundViolationError",
    "CompositeMetrics",
    "CompressorPlugin",
    "CorruptStreamError",
    "ERROR_AGNOSTIC",
    "ERROR_DEPENDENT",
    "ErrorStatMetrics",
    "MetricsPlugin",
    "MissingOptionError",
    "NONDETERMINISTIC",
    "NoopCompressor",
    "OptionError",
    "PERMANENT_STATUSES",
    "PressioData",
    "PressioError",
    "PressioOptions",
    "RUNTIME",
    "Registry",
    "RetryPolicy",
    "SizeMetrics",
    "Status",
    "TRAINING",
    "TaskFailedError",
    "TaskTimeoutError",
    "TimeMetrics",
    "TypeMismatchError",
    "UnsupportedError",
    "as_data",
    "as_options",
    "combined_hash",
    "compressor_registry",
    "error_status",
    "is_permanent_status",
    "make_compressor",
    "options_hash",
]
