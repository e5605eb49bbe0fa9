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
* **L2** — one SQLite table, ``rows(key TEXT PRIMARY KEY, blob)``, in a
  ``rows.db`` inside the shared directory (the paper's harness keeps its
  results the same way: a SQLite store keyed by stable option hashes),
  so every worker of a :class:`~repro.serve.fleet.ServeFleet` shares one
  feature store: a row featurized by worker 0 is a hit for worker 3
  without either re-running the evaluator, and a server restarted on
  the same directory starts warm.  Rows ride the exact-round-trip state
  codec (:func:`~repro.serve.codec.encode_state`), so an L2 hit is
  bit-identical to the evaluator output that produced it.  A lookup is
  one ``SELECT``; a store is one ``INSERT OR REPLACE`` transaction, so a
  reader sees a committed row or nothing, and a writer killed before
  its commit leaves nothing.  The key is a bound parameter, never a
  path: a client-supplied ``data_ref`` reaches :meth:`get` unvalidated.
  WAL mode, ``synchronous=OFF``, because it is a cache: a file that is
  not (or no longer) a database reads as a miss, and the next store
  replaces it.  Each process opens its own connection on first use, so
  a forked child never shares its parent's.

Capacity on L2 is byte-bounded (blob bytes), oldest store first (lowest
``rowid``).  The writer's transaction adds its blob to a running total
kept in the same database and evicts the oldest rows until the total is
back within ``shared_capacity_bytes``, so the budget holds after every
commit however many processes write.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sqlite3
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.hashing import options_hash
from ..core.metrics import ERROR_AGNOSTIC, NONDETERMINISTIC
from .codec import EncodedArray, decode_state, encode_state
from .registry import LoadedModel, scheme_params

#: L2 payload wrapper version (bump when the wrapper layout changes).
_WRAPPER_VERSION = 1

#: The L2 database's file name inside the shared directory.
DB_NAME = "rows.db"
_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS rows (key TEXT PRIMARY KEY, blob BLOB NOT NULL)",
    # The blob bytes ``rows`` holds, kept by every store's transaction.
    "CREATE TABLE IF NOT EXISTS used"
    " (id INTEGER PRIMARY KEY CHECK (id = 0), bytes INTEGER NOT NULL)",
    "INSERT OR IGNORE INTO used VALUES (0, 0)",
)


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
        Directory of the L2 database; ``None`` disables L2
        (per-process "local" mode).  Every process pointing at the same
        directory shares one store, and the rows outlive the process
        (a fleet removes a directory it made; a named one keeps them).
    shared_capacity_bytes:
        Byte budget for L2 blobs; the oldest stores are evicted first.
    fault_hook:
        Chaos-test seam: called as ``fault_hook(key)`` between the
        insert and the commit of every L2 store; tests ``os._exit``
        from it, or raise.
    lock_witness:
        A :class:`~repro.analysis.racewitness.LocksetWitness` that wraps
        the internal locks during stress tests, so it can check every
        ``# guarded-by:`` access holds its lock; ``None`` (the default)
        uses plain ``threading.Lock`` objects.
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
        self._lock, self._db_lock = (
            threading.Lock() if lock_witness is None else lock_witness.wrap(name=name)
            for name in ("featcache.lock", "featcache.db_lock")
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
        #: (pid, connection) to the L2 database, opened on first use
        self._db: tuple[int, sqlite3.Connection] | None = None  # guarded-by: _db_lock
        if self.shared_dir is not None:
            os.makedirs(self.shared_dir, exist_ok=True)

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

    def put(self, key: str, row: Mapping[str, Any], *, cost_s: float, source_nbytes: int) -> None:
        """Store a freshly featurized row in both tiers, L1 then L2."""
        self.put_l2(*self.put_l1(key, row, cost_s=cost_s, source_nbytes=source_nbytes))

    def put_l1(
        self, key: str, row: Mapping[str, Any], *, cost_s: float, source_nbytes: int
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
        """Publish a row to the shared table in one transaction that also
        evicts the oldest rows it pushes past the byte budget.  A file
        that is no database is replaced first; a write that raises is
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
        try:
            try:
                evicted = self._store(key, blob)
            except sqlite3.DatabaseError as exc:
                # The base class itself means "not a database" or "malformed";
                # busy, constraint and I/O errors are subclasses.
                if type(exc) is not sqlite3.DatabaseError:
                    raise
                self._replace_db()
                evicted = self._store(key, blob)
        except Exception:  # noqa: BLE001 - a cache write never fails its caller
            with self._lock:
                self.counters["l2_write_errors"] += 1
            return
        with self._lock:
            self.counters["l2_evictions"] += evicted

    def _l1_store(self, key: str, row: dict[str, Any], cost_s: float, nbytes: int) -> None:
        with self._lock:
            self._l1[key] = (row, cost_s, nbytes)
            self._l1.move_to_end(key)
            while len(self._l1) > self.capacity:
                self._l1.popitem(last=False)
                self.counters["l1_evictions"] += 1

    def _connection(self) -> sqlite3.Connection:
        """This process's connection to the L2 database, opened (and the
        table made) on first use; the caller holds ``_db_lock``."""
        pid = os.getpid()
        if self._db is None or self._db[0] != pid:  # first use, or a forked child
            db = sqlite3.connect(
                os.path.join(self.shared_dir, DB_NAME),
                isolation_level=None,  # every transaction is an explicit BEGIN
                check_same_thread=False,  # the lane stores, the event loop reads stats
            )
            try:
                db.execute("PRAGMA journal_mode=WAL")
                db.execute("PRAGMA synchronous=OFF")
                for statement in _SCHEMA:
                    db.execute(statement)
            except BaseException:
                db.close()
                raise
            self._db = (pid, db)
        return self._db[1]

    def _store(self, key: str, blob: bytes) -> int:
        """Insert *blob* under *key* and evict the oldest rows until the
        running total fits the budget, all in one write transaction;
        returns how many rows were evicted."""
        evicted = 0
        with self._db_lock:
            db = self._connection()
            db.execute("BEGIN IMMEDIATE")
            with db:  # commits, or rolls back on any exception
                used, replaced = db.execute(
                    "SELECT bytes, (SELECT length(blob) FROM rows WHERE key = ?) FROM used",
                    (key,),
                ).fetchone()
                db.execute("INSERT OR REPLACE INTO rows VALUES (?, ?)", (key, blob))
                used += len(blob) - (replaced or 0)
                while used > self.shared_capacity_bytes:
                    rowid, size = db.execute(
                        "SELECT rowid, length(blob) FROM rows ORDER BY rowid LIMIT 1"
                    ).fetchone()
                    db.execute("DELETE FROM rows WHERE rowid = ?", (rowid,))
                    used -= size
                    evicted += 1
                db.execute("UPDATE used SET bytes = ?", (used,))
                if self.fault_hook is not None:
                    self.fault_hook(key)
        return evicted

    def _replace_db(self) -> None:
        """Remove a database file SQLite cannot read, so the next
        connection makes a fresh one."""
        self.close()
        path = os.path.join(self.shared_dir, DB_NAME)
        for name in (path, path + "-wal", path + "-shm"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)

    def _read_row(self, key: str) -> tuple[dict[str, Any], float, int] | None:
        """*key*'s L2 row as ``(row, cost_s, source_nbytes)``; a missing
        or alien row, and a file that is no database, are misses."""
        try:
            with self._db_lock:
                found = self._connection().execute(
                    "SELECT blob FROM rows WHERE key = ?", (key,)
                ).fetchone()
            if found is None:  # never stored, or evicted since
                return None
            wrapper = decode_state(found[0].decode("utf-8"))
            row = wrapper["row"]
            if wrapper["wrapper_version"] != _WRAPPER_VERSION or not isinstance(row, dict):
                return None
            return row, float(wrapper["cost_s"]), int(wrapper["source_nbytes"])
        except Exception:  # noqa: BLE001 - whatever else the bytes are, they are no row
            return None

    # -- introspection / lifecycle --------------------------------------------------
    def stats(self) -> dict[str, Any]:
        with self._lock:
            out = dict(self.counters)
            out["l1_entries"] = len(self._l1)
        if self.shared_dir is not None:
            try:
                with self._db_lock:
                    entries, used = self._connection().execute(
                        "SELECT count(*), total(length(blob)) FROM rows"
                    ).fetchone()
            except Exception:  # noqa: BLE001 - a file that is no database holds no row
                entries, used = 0, 0.0
            out["l2_entries"] = entries
            out["l2_bytes"] = int(used)
        return out

    @property
    def shared(self) -> bool:
        return self.shared_dir is not None

    def sweep(self) -> int:
        """Empty the L2 table (the database stays); returns the number of
        rows removed.  For the directory's owner: a fleet never sweeps a
        directory it was handed."""
        if self.shared_dir is None:
            return 0
        with self._db_lock:
            db = self._connection()
            db.execute("BEGIN IMMEDIATE")
            with db:
                removed = db.execute("DELETE FROM rows").rowcount
                db.execute("UPDATE used SET bytes = 0")
        return removed

    def close(self) -> None:
        """Close this process's L2 connection; the next use reopens it."""
        with self._db_lock:
            if self._db is not None and self._db[0] == os.getpid():
                self._db[1].close()
            self._db = None

    def __enter__(self) -> "FeaturizationCache":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


__all__ = [
    "CachedRow",
    "FeaturizationCache",
    "content_fingerprint",
]
