"""Shared featurization cache: skip the scheme evaluator on repeat fields.

The serving tier's featurize stage is massively redundant under what-if
traffic: clients probe the *same field* at different bounds and
compressors, and every probe re-runs the scheme's metric evaluator over
identical bytes.  This module caches evaluator output keyed by what the
metrics actually depend on, derived from the invalidation vocabulary the
schemes already declare (§4.2's ``predictors:*`` classes):

* **Content hash** — a SHA-256 over the wire payload of the field (the
  base64 body plus dtype/shape/order tags), computed *before* any
  decode, so a cache hit skips both the ndarray decode and the
  evaluator.
* **Feature-relevant options** — schemes whose metrics are all
  ``predictors:error_agnostic`` (FXRZ: value stats, sparsity, spatial
  correlation) get keys that *exclude* the compressor's declared
  ``error_affecting_options``, so a what-if sweep over bounds hits one
  entry.  Any ``error_dependent``/``runtime`` metric (the stage probes)
  pins the full stable option set into the key.  A
  ``nondeterministic`` metric (the randomised SVD sketch) makes the
  model uncacheable — a cached row could not be bit-identical to a
  fresh one, so the cache refuses rather than lies.

Two tiers:

* **L1** — a per-process ``OrderedDict`` LRU of decoded rows
  (capacity-bounded by entry count), shared by nothing, paid for by
  nobody.
* **L2** — named shared-memory segments in a
  :class:`~repro.dataset.shm.SharedSegmentRegistry`, so every worker of
  a :class:`~repro.serve.fleet.ServeFleet` shares one feature store: a
  row featurized by worker 0 is a hit for worker 3 without either
  re-running the evaluator.  Rows ride the exact-round-trip state codec
  (:func:`~repro.serve.codec.encode_state`), so an L2 hit is
  bit-identical to the evaluator output that produced it.  The
  registry's write-intent ledger provides crash safety for free: a
  worker killed mid-store leaves an intent record, readers never see
  the torn segment, and the stale-intent reclaim re-opens the key.

Capacity on L2 is byte-bounded: before a store would exceed
``shared_capacity_bytes``, the oldest ledger entries are unlinked
(readers attached to an evicted segment keep their mapping; POSIX
unlink removes the name, not live maps).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..core.hashing import options_hash
from ..core.metrics import ERROR_AGNOSTIC, NONDETERMINISTIC
from ..dataset.shm import SharedSegmentRegistry
from .codec import decode_state, encode_state
from .registry import LoadedModel, scheme_params

#: L2 payload wrapper version (bump when the wrapper layout changes).
_WRAPPER_VERSION = 1


def content_fingerprint(payload: Mapping[str, Any]) -> str:
    """SHA-256 over an encoded-ndarray wire payload (no decode needed).

    Hashing the still-encoded payload (the base64 body plus the
    dtype/shape/order tags) means a hit skips the base64 decode as well
    as the evaluator; two fields with equal bytes but different dtype,
    shape or memory order hash apart.  The body — a string hundreds of
    KB long — is hashed as its own bytes: a ``repr()`` copy of it was
    two thirds of what a cache hit cost.
    """
    h = hashlib.sha256()
    for key in sorted(payload):
        value = payload[key]
        h.update(b"\x00" + key.encode("utf-8") + b"\x00")
        if isinstance(value, str):
            h.update(b"s" + value.encode("utf-8"))
        else:
            h.update(b"r" + repr(value).encode("utf-8"))
    return h.hexdigest()


@dataclass
class CachedRow:
    """One cache hit: the row plus the provenance the stats need."""

    row: dict[str, Any]
    cost_s: float  # what the original featurization cost (seconds)
    source_nbytes: int  # decoded field size the hit avoided touching
    tier: str  # "l1" or "l2"


class FeaturizationCache:
    """Two-tier content-addressed cache of scheme-evaluator rows.

    Parameters
    ----------
    capacity:
        Max L1 entries (row dicts) held per process.
    shared_dir:
        Ledger directory for the shm L2 tier; ``None`` disables L2
        (per-process "local" mode).  Every fleet worker pointing at the
        same directory shares one store.
    shared_capacity_bytes:
        Byte budget for L2 segments; oldest entries are evicted first.
    attach_timeout:
        How long a reader waits on a concurrent in-flight store before
        treating it as a miss.  Short by design: featurizing afresh is
        always correct, so serving must never stall on a dead writer.
    track:
        Passed to :class:`SharedSegmentRegistry` — fleet workers use
        ``False`` (the fleet owner sweeps), standalone servers the
        default ``True``.
    fault_hook:
        Forwarded to the shm registry's publish fault points
        (chaos-test injection; see :data:`~repro.dataset.shm.SHM_FAULT_POINTS`).
    lock_witness:
        A :class:`~repro.analysis.witness.LockOrderWitness` (or the
        lockset-tracking :class:`~repro.analysis.racewitness.LocksetWitness`)
        that wraps the internal lock during stress tests; ``None`` (the
        default) uses a plain ``threading.Lock``.
    """

    def __init__(
        self,
        *,
        capacity: int = 1024,
        shared_dir: str | None = None,
        shared_capacity_bytes: int = 64 * 1024 * 1024,
        attach_timeout: float = 0.25,
        stale_intent_seconds: float = 5.0,
        track: bool = True,
        fault_hook: Any = None,
        lock_witness: Any = None,
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.shared_capacity_bytes = int(shared_capacity_bytes)
        self._lock = (
            lock_witness.wrap(name="featcache.lock")
            if lock_witness is not None
            else threading.Lock()
        )
        #: cache key -> (row, cost_s, source_nbytes)
        self._l1: OrderedDict[str, tuple[dict[str, Any], float, int]] = OrderedDict()  # guarded-by: _lock
        #: (model key, version) -> feature signature (None = uncacheable)
        self._signatures: dict[tuple[str, str], str | None] = {}  # guarded-by: _lock
        self._shm: SharedSegmentRegistry | None = None
        if shared_dir is not None:
            self._shm = SharedSegmentRegistry(
                shared_dir,
                attach_timeout=attach_timeout,
                track=track,
                stale_intent_seconds=stale_intent_seconds,
                fault_hook=fault_hook,
            )
        self.counters = {  # guarded-by: _lock
            "l1_hits": 0,
            "l2_hits": 0,
            "misses": 0,
            "bypass": 0,
            "stores": 0,
            "l1_evictions": 0,
            "l2_evictions": 0,
        }

    # -- keying ------------------------------------------------------------------
    def model_signature(self, model: LoadedModel) -> str | None:
        """The feature-relevant configuration digest for *model*.

        ``None`` means the model's metrics include a nondeterministic
        one — its rows are not reproducible, so caching is refused.
        Memoised per (key, version): deriving the signature instantiates
        the scheme's metrics once, not per request.
        """
        memo_key = (model.key, model.version)
        with self._lock:
            if memo_key in self._signatures:
                return self._signatures[memo_key]
        signature = self._derive_signature(model)
        with self._lock:
            self._signatures[memo_key] = signature
        return signature

    @staticmethod
    def _derive_signature(model: LoadedModel) -> str | None:
        metrics = model.scheme.make_metrics(model.compressor)
        classes: set[str] = set()
        for metric in metrics:
            classes.update(metric.invalidations)
        if NONDETERMINISTIC in classes:
            return None
        options = dict(model.compressor.get_options().stable_items())
        if classes <= {ERROR_AGNOSTIC}:
            # Every metric declares independence from the error
            # configuration: drop the error-affecting options so a
            # what-if sweep over bounds shares one entry.
            for name in model.compressor.error_affecting_options:
                options.pop(name, None)
        return options_hash(
            {
                "featcache:scheme": model.scheme.id,
                "featcache:scheme_options": scheme_params(model.scheme),
                "featcache:compressor": model.compressor.id,
                "featcache:options": options,
                "featcache:feature_keys": list(model.scheme.feature_keys()),
            }
        )

    def scope(self, model: LoadedModel) -> str | None:
        """The entry family *model*'s rows live in (None: uncacheable).

        Models with equal scopes share entries — every bound of an
        error-agnostic scheme, exactly one bound of an error-dependent
        one — which is what lets a client know, before asking, whether a
        ``data_ref`` to this model can be honoured.
        """
        signature = self.model_signature(model)
        return None if signature is None else signature[:24]

    def key_for(self, model: LoadedModel, payload: Mapping[str, Any]) -> str | None:
        """Full cache key for (*model*, encoded field), or None to bypass."""
        return self.key_for_fingerprint(model, content_fingerprint(payload))

    def key_for_fingerprint(
        self, model: LoadedModel, fingerprint: str
    ) -> str | None:
        """Cache key from a client-supplied content fingerprint.

        The ``data_ref`` protocol path: the client already holds the
        fingerprint of a payload it sent earlier, so the key can be
        derived without the payload crossing the wire again."""
        scope = self.scope(model)
        return None if scope is None else f"featrow-{scope}-{fingerprint}"

    # -- lookup / store ------------------------------------------------------------
    def get(self, key: str) -> CachedRow | None:
        """L1 then L2 lookup; promotes an L2 hit into L1."""
        with self._lock:
            entry = self._l1.get(key)
            if entry is not None:
                self._l1.move_to_end(key)
                self.counters["l1_hits"] += 1
                row, cost_s, nbytes = entry
                return CachedRow(dict(row), cost_s, nbytes, "l1")
        if self._shm is not None:
            attached = self._shm.get(key)
            if attached is not None:
                view, info = attached
                try:
                    blob = bytes(view.view(np.uint8))
                finally:
                    if info.name:
                        self._shm.release(key)
                wrapper = self._decode_wrapper(blob)
                if wrapper is not None:
                    row = wrapper["row"]
                    cost_s = float(wrapper["cost_s"])
                    nbytes = int(wrapper["source_nbytes"])
                    self._l1_store(key, row, cost_s, nbytes)
                    with self._lock:
                        self.counters["l2_hits"] += 1
                    return CachedRow(dict(row), cost_s, nbytes, "l2")
        with self._lock:
            self.counters["misses"] += 1
        return None

    def put(
        self,
        key: str,
        row: Mapping[str, Any],
        *,
        cost_s: float,
        source_nbytes: int,
    ) -> None:
        """Store a freshly featurized row in both tiers.

        L2 stores ride the shm registry's write-intent + atomic-rename
        protocol: a reader either sees the complete encoded row or
        nothing, and a writer killed mid-store cannot poison the tier.
        """
        row = dict(row)
        self._l1_store(key, row, float(cost_s), int(source_nbytes))
        with self._lock:
            self.counters["stores"] += 1
        if self._shm is None:
            return
        blob = encode_state(
            {
                "wrapper_version": _WRAPPER_VERSION,
                "row": row,
                "cost_s": float(cost_s),
                "source_nbytes": int(source_nbytes),
            }
        ).encode("utf-8")
        self._evict_l2(incoming=len(blob))
        payload = np.frombuffer(blob, dtype=np.uint8)
        _, info = self._shm.publish(key, payload)
        if info.name:
            # publish() leaves the registry attached (refcounted); the
            # cache reads rows back through get(), so drop ours now.
            self._shm.release(key)

    def _l1_store(self, key: str, row: dict[str, Any], cost_s: float, nbytes: int) -> None:
        with self._lock:
            self._l1[key] = (row, cost_s, nbytes)
            self._l1.move_to_end(key)
            while len(self._l1) > self.capacity:
                self._l1.popitem(last=False)
                self.counters["l1_evictions"] += 1

    def _evict_l2(self, *, incoming: int) -> None:
        assert self._shm is not None
        entries = self._shm.entries()
        used = sum(info.nbytes for info, _ in entries)
        for info, _mtime in entries:
            if used + incoming <= self.shared_capacity_bytes:
                break
            self._shm.unlink(info.key)
            used -= info.nbytes
            with self._lock:
                self.counters["l2_evictions"] += 1

    @staticmethod
    def _decode_wrapper(blob: bytes) -> dict[str, Any] | None:
        try:
            wrapper = decode_state(blob.decode("utf-8"))
        except Exception:  # noqa: BLE001 - a torn/alien blob is a miss
            return None
        if wrapper.get("wrapper_version") != _WRAPPER_VERSION:
            return None
        if not isinstance(wrapper.get("row"), dict):
            return None
        return wrapper

    # -- introspection / lifecycle --------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            out = dict(self.counters)
            out["l1_entries"] = len(self._l1)
        if self._shm is not None:
            entries = self._shm.entries()
            out["l2_entries"] = len(entries)
            out["l2_bytes"] = sum(info.nbytes for info, _ in entries)
        return out

    @property
    def shared(self) -> bool:
        return self._shm is not None

    def close(self) -> None:
        """Detach from the L2 tier (no unlink; the owner sweeps)."""
        if self._shm is not None:
            self._shm.close()

    def sweep(self) -> list[str]:
        """Owner-side cleanup: unlink every L2 segment this cache knows."""
        if self._shm is None:
            return []
        return self._shm.unlink_all()

    def __enter__(self) -> "FeaturizationCache":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


__all__ = [
    "CachedRow",
    "FeaturizationCache",
    "content_fingerprint",
]
