"""Shared featurization cache: skip the scheme evaluator on repeat fields.

The serving tier's featurize stage is massively redundant under what-if
traffic: clients probe the *same field* at different bounds and
compressors, and every probe re-runs the scheme's metric evaluator over
identical bytes.  This module caches evaluator output keyed by what the
metrics actually depend on, derived from the invalidation vocabulary the
schemes already declare (§4.2's ``predictors:*`` classes):

* **Content hash** — a SHA-256 over the wire payload of the field (the
  canonical dtype/shape/order/nbytes header, then the raw body),
  computed *before* any decode, so a cache hit skips both the ndarray
  view and the evaluator.
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
* **L2** — a directory of row files (the paper's ``local_cache``
  pattern, Figure 2: node-local files), so every worker of a
  :class:`~repro.serve.fleet.ServeFleet` shares one feature store: a
  row featurized by worker 0 is a hit for worker 3 without either
  re-running the evaluator, and a server restarted on the same
  directory starts warm.  Rows ride the exact-round-trip state codec
  (:func:`~repro.serve.codec.encode_state`), so an L2 hit is
  bit-identical to the evaluator output that produced it.  A store
  writes a uniquely named temp file and renames it (``os.replace``) onto
  ``<sha256 of the cache key>.row``: a reader sees a whole row or
  nothing, and a writer killed at any instant leaves at most a temp
  file, which a later directory pass reclaims once it is a minute old.  The name is a digest, never
  the key, because a client-supplied ``data_ref`` reaches :meth:`get`
  unvalidated.  No ``fsync``: it is a cache — a file torn by power loss
  (cut short, or blocks read back as zeros) is not the strict JSON the
  codec parses, so it reads as a miss and the next store renames over
  it.

Capacity on L2 is byte-bounded (file sizes, not allocated blocks),
oldest publish first (file mtime), and a store costs the same, amortised,
however many rows the directory holds: each process spends a
*headroom* — ``min(budget - bytes found, budget // _SCAN_FRACTION)`` as
of its last ``os.scandir`` pass — and lists the directory again only
once that is written.  A pass that finds the budget exceeded evicts
down to ``budget - budget // _SCAN_FRACTION`` so the next one is a
headroom away.  One writer therefore never exceeds
``shared_capacity_bytes``; *W* processes writing one directory can
overshoot it by at most ``(W - 1) * (budget // _SCAN_FRACTION)`` bytes,
the headroom the others took before the latest pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.hashing import options_hash
from ..core.metrics import ERROR_AGNOSTIC, NONDETERMINISTIC
from .codec import EncodedArray, decode_state, encode_state
from .registry import LoadedModel, scheme_params

#: L2 payload wrapper version (bump when the wrapper layout changes).
_WRAPPER_VERSION = 1

_ROW_SUFFIX = ".row"
_TMP_SUFFIX = ".tmp"
#: A process lists the shared directory again after writing this
#: fraction of the byte budget (see the module docstring for the
#: eviction rule and the overshoot bound that follow from it).
_SCAN_FRACTION = 8
#: A temp file this old has no writer behind it (a store is one small
#: write); directory passes reclaim it.
_STALE_TMP_SECONDS = 60.0


def _remove(path: str) -> bool:
    try:
        os.remove(path)
    except FileNotFoundError:  # a sibling's pass got there first
        return False
    return True


def content_fingerprint(payload: EncodedArray) -> str:
    """SHA-256 over an encoded field: the canonical header JSON, then the
    raw body (no decode needed).

    Two fields with equal bytes but a different dtype, shape or memory
    order hash apart, because the header is hashed first; the client
    and the server derive the same canonical header, so a fingerprint
    the client memoised names the row the server stored.
    """
    header = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    h = hashlib.sha256(header.encode("utf-8"))
    h.update(b"\n")
    h.update(payload.body)
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
        Directory of the L2 row files; ``None`` disables L2
        (per-process "local" mode).  Every process pointing at the same
        directory shares one store, and the rows outlive the process
        (a fleet removes a directory it made; a named one keeps them).
    shared_capacity_bytes:
        Byte budget for L2 rows; oldest publishes are evicted first
        (the module docstring states the rule and its bound).
    fault_hook:
        Chaos-test seam: called as ``fault_hook(key)`` between the temp
        write and the rename of every L2 store — the one instant a
        killed writer leaves anything behind; tests ``os._exit`` from it.
    lock_witness:
        A :class:`~repro.analysis.racewitness.LocksetWitness` that wraps
        the internal lock during stress tests, so it can check every
        ``# guarded-by: _lock`` access holds it; ``None`` (the default)
        uses a plain ``threading.Lock``.
    """

    def __init__(
        self,
        *,
        capacity: int = 1024,
        shared_dir: str | None = None,
        shared_capacity_bytes: int = 64 * 1024 * 1024,
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
        self.counters = {  # guarded-by: _lock
            "l1_hits": 0,
            "l2_hits": 0,
            "misses": 0,
            "bypass": 0,
            "stores": 0,
            "l1_evictions": 0,
            "l2_evictions": 0,
            #: L2 row writes that raised; each is a later miss, never a
            #: failed reply.
            "l2_write_errors": 0,
        }
        self.shared_dir = None if shared_dir is None else os.fspath(shared_dir)
        self.fault_hook = fault_hook
        #: bytes this process may still store before it must list
        #: ``shared_dir`` again
        self._l2_headroom = 0  # guarded-by: _lock
        if self.shared_dir is not None:
            os.makedirs(self.shared_dir, exist_ok=True)
            self._make_room(0)

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

    def key_for(self, model: LoadedModel, payload: EncodedArray) -> str | None:
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
        stored = self._read_row(key) if self.shared_dir is not None else None
        if stored is not None:
            row, cost_s, nbytes = stored
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
        """Store a freshly featurized row in both tiers, L1 then L2."""
        self.put_l2(*self.put_l1(key, row, cost_s=cost_s, source_nbytes=source_nbytes))

    def put_l1(
        self,
        key: str,
        row: Mapping[str, Any],
        *,
        cost_s: float,
        source_nbytes: int,
    ) -> tuple[str, dict[str, Any], float, int]:
        """Store *row* in this process's L1; return the arguments of the
        :meth:`put_l2` that publishes it to the shared tier.

        The server calls the two halves apart: L1 before a miss's reply
        (so ``cached: true`` holds for the next request), L2 after it.
        """
        entry = (key, dict(row), float(cost_s), int(source_nbytes))
        self._l1_store(*entry)
        with self._lock:
            self.counters["stores"] += 1
        return entry

    def put_l2(self, key: str, row: dict[str, Any], cost_s: float, nbytes: int) -> None:
        """Publish a row file: a temp file renamed onto the row's name, so
        a reader sees the complete encoded row or nothing, and a writer
        killed mid-store cannot poison the tier.  A write that raises is
        counted in ``l2_write_errors`` and is otherwise a later miss.
        """
        if self.shared_dir is None:
            return
        blob = encode_state(
            {
                "wrapper_version": _WRAPPER_VERSION,
                "row": row,
                "cost_s": cost_s,
                "source_nbytes": nbytes,
            }
        ).encode("utf-8")
        with self._lock:
            self._l2_headroom -= len(blob)
            crowded = self._l2_headroom < 0
        tmp = os.path.join(self.shared_dir, uuid.uuid4().hex + _TMP_SUFFIX)
        try:
            if crowded:
                self._make_room(len(blob))
            with open(tmp, "wb") as fh:
                fh.write(blob)
            if self.fault_hook is not None:
                self.fault_hook(key)
            os.replace(tmp, self._row_path(key))
        except Exception:  # noqa: BLE001 - a cache write never fails its caller
            _remove(tmp)
            with self._lock:
                self.counters["l2_write_errors"] += 1

    def _l1_store(self, key: str, row: dict[str, Any], cost_s: float, nbytes: int) -> None:
        with self._lock:
            self._l1[key] = (row, cost_s, nbytes)
            self._l1.move_to_end(key)
            while len(self._l1) > self.capacity:
                self._l1.popitem(last=False)
                self.counters["l1_evictions"] += 1

    def _row_path(self, key: str) -> str:
        digest = hashlib.sha256(key.encode("utf-8", "surrogatepass")).hexdigest()
        return os.path.join(self.shared_dir, digest + _ROW_SUFFIX)

    def _read_row(self, key: str) -> tuple[dict[str, Any], float, int] | None:
        """*key*'s L2 row as ``(row, cost_s, source_nbytes)``; a missing,
        torn or alien file is a miss."""
        try:
            with open(self._row_path(key), "rb") as fh:
                blob = fh.read()
        except OSError:  # never stored, or evicted since
            return None
        try:
            wrapper = decode_state(blob.decode("utf-8"))
            row = wrapper["row"]
            if wrapper["wrapper_version"] != _WRAPPER_VERSION or not isinstance(row, dict):
                return None
            return row, float(wrapper["cost_s"]), int(wrapper["source_nbytes"])
        except Exception:  # noqa: BLE001 - whatever else the bytes are, they are no row
            return None

    def _scan_rows(self) -> list[tuple[int, int, str]]:
        """One ``scandir`` pass: ``(publish time, size, path)`` per row.

        Everything comes from ``stat``; no file is opened.  Temp files
        older than ``_STALE_TMP_SECONDS`` are what writers killed
        mid-store left behind and are reclaimed on the way.
        """
        rows: list[tuple[int, int, str]] = []
        stale_before = time.time() - _STALE_TMP_SECONDS
        with os.scandir(self.shared_dir) as entries:
            for entry in entries:
                try:
                    st = entry.stat()
                except FileNotFoundError:  # renamed or evicted mid-pass
                    continue
                if entry.name.endswith(_ROW_SUFFIX):
                    rows.append((st.st_mtime_ns, st.st_size, entry.path))
                elif entry.name.endswith(_TMP_SUFFIX) and st.st_mtime < stale_before:
                    _remove(entry.path)
        return rows

    def _make_room(self, incoming: int) -> None:
        """List the directory, evict if *incoming* bytes would break the
        budget, and take a new headroom (rule: module docstring)."""
        rows = self._scan_rows()
        used = sum(size for _, size, _ in rows)
        slack = self.shared_capacity_bytes // _SCAN_FRACTION
        evicted = 0
        if used + incoming > self.shared_capacity_bytes:
            rows.sort()
            for _, size, path in rows:
                if used + incoming <= self.shared_capacity_bytes - slack:
                    break
                evicted += _remove(path)
                used -= size
        with self._lock:
            self.counters["l2_evictions"] += evicted
            self._l2_headroom = (
                min(self.shared_capacity_bytes - used, slack) - incoming
            )

    # -- introspection / lifecycle --------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            out = dict(self.counters)
            out["l1_entries"] = len(self._l1)
        if self.shared_dir is not None:
            rows = self._scan_rows()
            out["l2_entries"] = len(rows)
            out["l2_bytes"] = sum(size for _, size, _ in rows)
        return out

    @property
    def shared(self) -> bool:
        return self.shared_dir is not None

    def sweep(self) -> list[str]:
        """Empty the L2 directory of rows and temp files (the directory
        itself stays); returns their names.  For the directory's owner:
        a fleet never sweeps a directory it was handed."""
        if self.shared_dir is None:
            return []
        return [
            name
            for name in os.listdir(self.shared_dir)
            if name.endswith((_ROW_SUFFIX, _TMP_SUFFIX))
            and _remove(os.path.join(self.shared_dir, name))
        ]

    def __enter__(self) -> "FeaturizationCache":
        return self

    def __exit__(self, *exc: Any) -> None:
        """Nothing to release: no OS handle is held between calls."""


__all__ = [
    "CachedRow",
    "FeaturizationCache",
    "content_fingerprint",
]
