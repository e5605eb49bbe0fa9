"""Online prediction serving: model registry + batched inference server.

The bridge from an offline training campaign to live queries: the
runner publishes fitted predictors into a :class:`ModelRegistry`
(versioned, checksummed, atomically pointed, with a journaled
two-phase-commit publish), and a :class:`PredictionServer` answers
"what will this compressor at this bound do to this field?" with
micro-batched vectorised inference.  On top of both, the
continuous-learning loop (:class:`ContinuousLearner`) closes the
circle: drift detection (:class:`DriftMonitor`) → incremental
re-collect → republish, which every live server follows on its own.
:class:`ServeFleet` scales the tier to the hardware: one worker process
per core behind a shared ``SO_REUSEPORT`` data port, all sharing the
SQLite table of one :class:`FeaturizationCache` directory.
"""

from .codec import (
    CODEC_VERSION,
    EncodedArray,
    StateSerializationError,
    check_array_header,
    decode_array,
    decode_state,
    encode_array,
    encode_state,
    state_checksum,
)
from .client import (
    ConnectionClosedError,
    PredictionClient,
    ServerError,
)
from .drift import DriftConfig, DriftMonitor, ResidualLedger
from .featcache import CachedRow, FeaturizationCache, content_fingerprint
from .fleet import (
    FEAT_CACHE_MODES,
    FleetFanoutError,
    ServeFleet,
    aggregate_stats,
)
from .loop import (
    ContinuousLearner,
    LoopStageError,
    RolloverFailedError,
    RolloverReport,
    TrainerKilledError,
)
from .registry import (
    INTENT_NAME,
    PUBLISH_FAULT_POINTS,
    LoadedModel,
    ModelIntegrityError,
    ModelNotFoundError,
    ModelRegistry,
    PublishedModel,
    registry_key,
    scheme_params,
)
from .server import (
    STATUS_BAD_REQUEST,
    STATUS_ERROR,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_OVERLOADED,
    PredictionServer,
    ServeStats,
    ServerThread,
)

__all__ = [
    "CODEC_VERSION",
    "CachedRow",
    "ConnectionClosedError",
    "ContinuousLearner",
    "DriftConfig",
    "DriftMonitor",
    "EncodedArray",
    "FEAT_CACHE_MODES",
    "FeaturizationCache",
    "FleetFanoutError",
    "INTENT_NAME",
    "LoadedModel",
    "LoopStageError",
    "ModelIntegrityError",
    "ModelNotFoundError",
    "ModelRegistry",
    "PUBLISH_FAULT_POINTS",
    "PredictionClient",
    "PredictionServer",
    "PublishedModel",
    "ResidualLedger",
    "RolloverFailedError",
    "RolloverReport",
    "STATUS_BAD_REQUEST",
    "STATUS_ERROR",
    "STATUS_NOT_FOUND",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "ServeFleet",
    "ServeStats",
    "ServerError",
    "ServerThread",
    "StateSerializationError",
    "TrainerKilledError",
    "aggregate_stats",
    "check_array_header",
    "content_fingerprint",
    "decode_array",
    "decode_state",
    "encode_array",
    "encode_state",
    "registry_key",
    "scheme_params",
    "state_checksum",
]
