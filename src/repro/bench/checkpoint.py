"""SQLite checkpoint store (§4.3).

"Checkpointing is enabled via an embedded SQLite database.  A database
was chosen both because of atomicity guarantees in the case of failures
— no accidental partial results — but also the ability to query and
partially restore the key state — the metrics results."

Rows are keyed by the stable hash combining compressor configuration,
dataset configuration, experimental metadata, and replicate id (see
:func:`repro.core.hashing.combined_hash`); payloads are JSON so the
metrics results stay queryable.

Write scaling: a per-task ``commit`` + fsync dominates collection wall
time once tasks are cheap, so the store supports *buffered* writes —
``put`` appends to an in-memory buffer that is flushed as one
``executemany`` + single commit every ``flush_every`` results (and on
close, and on exception exit).  Crash consistency is preserved: SQLite
only ever sees whole flushed batches, so after a crash the database
holds complete rows for every committed batch and nothing from the
batch in flight — :meth:`pending` reports the lost tail and a restart
recomputes exactly those keys.  File-backed stores run in WAL mode,
which makes the commit itself cheaper and lets readers overlap writers.
"""

# The store shares ONE sqlite connection between two threads, guarded by
# self._lock: the thread that owns the store (the queue's on_result sink,
# rank 0's on the cluster engine, plus every read) and, with
# flush_interval set, the timer thread that flushes the buffer.  The
# commit *is* the critical section (single writer by design; WAL keeps
# readers unblocked): committing outside the lock would let the timer's
# flush interleave with a put's executemany/commit pair.

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from typing import Any, Iterable, Mapping

from ..core.errors import is_permanent_status
from ..core.hashing import HASH_VERSION

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    compressor_hash TEXT NOT NULL,
    dataset_hash TEXT NOT NULL,
    experiment_hash TEXT NOT NULL,
    replicate INTEGER NOT NULL,
    payload TEXT NOT NULL,
    created_at REAL NOT NULL,
    checksum TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_results_parts
    ON results (compressor_hash, dataset_hash, experiment_hash);
CREATE TABLE IF NOT EXISTS failures (
    key TEXT PRIMARY KEY,
    error TEXT NOT NULL,
    status INTEGER NOT NULL,
    attempts INTEGER NOT NULL,
    updated_at REAL NOT NULL,
    origin TEXT NOT NULL DEFAULT ''
);
"""

_INSERT_SQL = (
    "INSERT OR REPLACE INTO results "
    "(key, compressor_hash, dataset_hash, experiment_hash, replicate,"
    " payload, created_at, checksum) VALUES (?,?,?,?,?,?,?,?)"
)


def payload_checksum(payload_json: str) -> str:
    """Content checksum of one serialised payload.

    Stored alongside the row and re-derived by :meth:`CheckpointStore.verify`
    — a mismatch means the payload bytes changed after they were hashed
    (torn write, bit rot, external tampering), so the row cannot be
    trusted and must be recomputed.
    """
    return hashlib.sha256(payload_json.encode("utf-8")).hexdigest()[:16]

#: SQLite's default variable limit is 999; stay under it when batching
#: ``WHERE key IN (...)`` lookups.
_IN_CHUNK = 500


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / arrays so payloads serialise cleanly.

    NaN (numpy or Python, scalar or nested in arrays) uniformly becomes
    ``null`` — JSON has no NaN literal, and the two spellings must
    round-trip identically.
    """
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            value = value.item()
        except (ValueError, AttributeError):
            pass
    if hasattr(value, "tolist"):
        return _jsonable(value.tolist())
    if isinstance(value, float) and value != value:  # NaN → null round-trips
        return None
    return value


class CheckpointStore:
    """A process-local handle on the checkpoint database.

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` for an in-process store.
    flush_every:
        Buffer this many :meth:`put` results per commit.  The default 1
        keeps the historical one-commit-per-result behaviour; collection
        campaigns with cheap tasks should raise it (the runner and CLI
        expose it as a knob).  Buffered results are visible to every
        read on this handle; they reach disk on flush/close/exception.
    flush_interval:
        Wall-clock flush period in seconds (``None`` disables).  Works
        *alongside* ``flush_every`` — the buffer commits on whichever
        trips first — so a long-running sparse campaign (large
        ``flush_every``, slow trickle of results) still bounds its
        maximum data loss to one interval.  A daemon timer drives the
        periodic flush, so the bound holds even while no ``put`` arrives.
    lock_witness:
        Optional :class:`~repro.analysis.racewitness.LocksetWitness`;
        when given, the store lock is wrapped so the witness knows which
        thread holds it (test-only instrumentation, zero overhead when
        ``None``).

    Writes use ``INSERT OR REPLACE`` inside explicit batch transactions,
    so a crash mid-write never leaves a partial row; readers see either
    the previous state or the full new batch.
    """

    def __init__(
        self,
        path: str = ":memory:",
        *,
        flush_every: int = 1,
        flush_interval: float | None = None,
        lock_witness=None,
    ) -> None:
        self.path = path
        self.flush_every = max(1, int(flush_every))
        if flush_interval is not None and float(flush_interval) <= 0.0:
            raise ValueError("flush_interval must be positive (or None)")
        self.flush_interval = None if flush_interval is None else float(flush_interval)
        self._last_flush = time.monotonic()  # guarded-by: _lock
        self._stop_flush_timer = threading.Event()
        self._flush_timer: threading.Thread | None = None
        #: Commits issued on the results table — the benchmark counter
        #: proving batching (≤ 1 commit per flush interval).
        self.commit_count = 0  # guarded-by: _lock
        if path != ":memory:":
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        # The flush_interval timer commits from its own thread; SQLite
        # connections default to thread affinity, so share one connection
        # guarded by our own lock instead.
        self._db = sqlite3.connect(path, check_same_thread=False)
        # Test-only: a LocksetWitness wraps the store lock so stress
        # suites can check every '# guarded-by: _lock' access holds it.
        if lock_witness is not None:
            self._lock = lock_witness.wrap(name="checkpoint.lock")
        else:
            self._lock = threading.Lock()
        #: key → encoded row awaiting flush (dict gives replace semantics).
        self._buffer: dict[str, tuple] = {}  # guarded-by: _lock
        if path != ":memory:":
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        self._migrate_schema()
        self._check_hash_version()
        if self.flush_interval is not None:
            self._flush_timer = threading.Thread(
                target=self._flush_timer_loop, daemon=True
            )
            self._flush_timer.start()

    def _flush_timer_loop(self) -> None:
        # Wall-clock flushing must not depend on puts arriving: the
        # timer fires every interval regardless, so the unflushed window
        # is bounded even when the campaign goes quiet mid-batch.
        while not self._stop_flush_timer.wait(self.flush_interval):
            try:
                self.flush()
            except sqlite3.ProgrammingError:  # closed underneath us
                return

    def _migrate_schema(self) -> None:
        """Bring pre-integrity databases up to the current schema.

        Older checkpoints lack the ``checksum`` column; they gain it with
        an empty default, and :meth:`verify` backfills checksums for rows
        whose payload still parses (so legacy rows are not punished, only
        actually-corrupt ones).
        """
        cols = {row[1] for row in self._db.execute("PRAGMA table_info(results)")}
        if "checksum" not in cols:
            self._db.execute(
                "ALTER TABLE results ADD COLUMN checksum TEXT NOT NULL DEFAULT ''"
            )
            self._db.commit()
        # Pre-cluster ledgers lack the origin column (which rank, if
        # any, recorded the failure); empty means "this process".
        fcols = {row[1] for row in self._db.execute("PRAGMA table_info(failures)")}
        if "origin" not in fcols:
            self._db.execute(
                "ALTER TABLE failures ADD COLUMN origin TEXT NOT NULL DEFAULT ''"
            )
            self._db.commit()

    def _check_hash_version(self) -> None:
        """Refuse to mix checkpoints written under a different canonical
        hash encoding — silent key mismatches would masquerade as
        'everything needs recomputing'."""
        cur = self._db.execute("SELECT value FROM meta WHERE key='hash_version'")
        row = cur.fetchone()
        if row is None:
            self._db.execute(
                "INSERT INTO meta (key, value) VALUES ('hash_version', ?)",
                (str(HASH_VERSION),),
            )
            self._db.commit()
        elif int(row[0]) != HASH_VERSION:
            raise RuntimeError(
                f"checkpoint {self.path!r} was written with hash version "
                f"{row[0]}, this build uses {HASH_VERSION}"
            )

    # -- writes ----------------------------------------------------------------
    @staticmethod
    def _encode_row(
        key: str,
        payload: Mapping[str, Any],
        compressor_hash: str,
        dataset_hash: str,
        experiment_hash: str,
        replicate: int,
    ) -> tuple:
        payload_json = json.dumps(_jsonable(dict(payload)))
        return (
            key,
            compressor_hash,
            dataset_hash,
            experiment_hash,
            replicate,
            payload_json,
            time.time(),
            payload_checksum(payload_json),
        )

    def put(
        self,
        key: str,
        payload: Mapping[str, Any],
        *,
        compressor_hash: str = "",
        dataset_hash: str = "",
        experiment_hash: str = "",
        replicate: int = 0,
    ) -> None:
        """Store one result (replacing any prior value).

        With ``flush_every == 1`` the row commits immediately; otherwise
        it is buffered and committed with its batch.
        """
        row = self._encode_row(
            key, payload, compressor_hash, dataset_hash, experiment_hash, replicate
        )
        with self._lock:
            self._buffer[key] = row
            interval_due = (
                self.flush_interval is not None
                and time.monotonic() - self._last_flush >= self.flush_interval
            )
            if len(self._buffer) >= self.flush_every or interval_due:
                self._flush_locked()

    def flush(self) -> None:
        """Commit all buffered results as one atomic batch."""
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        self._last_flush = time.monotonic()
        if not self._buffer:
            return
        self._db.executemany(_INSERT_SQL, list(self._buffer.values()))
        self._db.commit()
        self.commit_count += 1
        self._buffer.clear()

    # -- reads -----------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            row = self._buffer.get(key)
            if row is not None:
                return json.loads(row[5])
            cur = self._db.execute("SELECT payload FROM results WHERE key=?", (key,))
            db_row = cur.fetchone()
        return None if db_row is None else json.loads(db_row[0])

    def pending(self, keys: Iterable[str]) -> list[str]:
        """The subset of *keys* not yet present (what a restart must run).

        One chunked ``SELECT ... WHERE key IN (...)`` per ``_IN_CHUNK``
        keys instead of a query per key — on a campaign-sized restart
        this is the difference between O(N) round-trips and a handful.
        """
        ordered = list(keys)
        present: set[str] = set()
        with self._lock:
            present.update(k for k in ordered if k in self._buffer)
            unknown = [k for k in ordered if k not in present]
            for i in range(0, len(unknown), _IN_CHUNK):
                chunk = unknown[i : i + _IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                cur = self._db.execute(
                    f"SELECT key FROM results WHERE key IN ({marks})", chunk
                )
                present.update(row[0] for row in cur.fetchall())
        return [k for k in ordered if k not in present]

    def count(self) -> int:
        self.flush()
        with self._lock:
            cur = self._db.execute("SELECT COUNT(*) FROM results")
            return int(cur.fetchone()[0])

    def query(
        self,
        *,
        compressor_hash: str | None = None,
        dataset_hash: str | None = None,
        experiment_hash: str | None = None,
    ) -> list[dict[str, Any]]:
        """Partial restore: fetch payloads matching the given hashes."""
        self.flush()
        clauses = []
        args: list[str] = []
        for col, val in (
            ("compressor_hash", compressor_hash),
            ("dataset_hash", dataset_hash),
            ("experiment_hash", experiment_hash),
        ):
            if val is not None:
                clauses.append(f"{col}=?")
                args.append(val)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        with self._lock:
            cur = self._db.execute(f"SELECT payload FROM results{where}", args)
            rows = cur.fetchall()
        return [json.loads(row[0]) for row in rows]

    def keys(self) -> list[str]:
        """All committed (and buffered) result keys."""
        with self._lock:
            out = list(self._buffer)
            cur = self._db.execute("SELECT key FROM results ORDER BY key")
            seen = set(out)
            out.extend(row[0] for row in cur.fetchall() if row[0] not in seen)
        return out

    # -- campaign metadata -------------------------------------------------------
    def set_meta(self, key: str, value: str) -> None:
        """Persist one campaign-level metadata string (e.g. the last
        run's queue statistics, serialised as JSON by the caller)."""
        if key == "hash_version":
            raise ValueError("'hash_version' is managed by the store")
        with self._lock:
            self._db.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?,?)", (key, value)
            )
            self._db.commit()

    def get_meta(self, key: str) -> str | None:
        with self._lock:
            cur = self._db.execute("SELECT value FROM meta WHERE key=?", (key,))
            row = cur.fetchone()
        return None if row is None else str(row[0])

    # -- integrity ---------------------------------------------------------------
    def verify(self) -> list[str]:
        """Audit every committed row's payload against its checksum.

        Corrupt rows (checksum mismatch, or a legacy checksum-less row
        whose payload no longer parses as JSON) are quarantined: deleted
        from ``results`` so their keys surface in :meth:`pending` and a
        restart recomputes them.  Legacy rows that still parse are
        backfilled with a checksum instead.  Returns the quarantined
        keys.
        """
        self.flush()
        corrupt: list[str] = []
        backfill: list[tuple[str, str]] = []
        with self._lock:
            cur = self._db.execute("SELECT key, payload, checksum FROM results")
            for key, payload_json, checksum in cur.fetchall():
                if checksum:
                    if payload_checksum(payload_json) != checksum:
                        corrupt.append(key)
                    continue
                try:
                    json.loads(payload_json)
                except (TypeError, ValueError):
                    corrupt.append(key)
                else:
                    backfill.append((payload_checksum(payload_json), key))
            if backfill:
                self._db.executemany(
                    "UPDATE results SET checksum=? WHERE key=?", backfill
                )
            for i in range(0, len(corrupt), _IN_CHUNK):
                chunk = corrupt[i : i + _IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                self._db.execute(
                    f"DELETE FROM results WHERE key IN ({marks})", chunk
                )
            if backfill or corrupt:
                self._db.commit()
        return corrupt

    def corrupt_rows(self, keys: Iterable[str]) -> int:
        """Chaos hook: overwrite committed payloads *without* refreshing
        the checksum, simulating at-rest corruption that :meth:`verify`
        must catch.  Returns the number of rows damaged."""
        self.flush()
        damaged = 0
        with self._lock:
            for key in keys:
                cur = self._db.execute(
                    "UPDATE results SET payload=? WHERE key=?",
                    ('{"corrupted": tru', key),
                )
                damaged += cur.rowcount
            self._db.commit()
        return damaged

    # -- failure ledger ----------------------------------------------------------
    def record_failure(
        self, key: str, error: str, *, status: int = 1, attempts: int = 1,
        origin: str = "",
    ) -> None:
        """Persist a task's final failure so the campaign record is
        inspectable after the process exits (``collect()`` returns these,
        ``report --failures`` prints them) and resumes can skip tasks
        whose failure is permanent.  ``origin`` names where the failure
        happened (e.g. ``"rank3"``, a cluster worker rank); empty means
        this process."""
        with self._lock:
            self._db.execute(
                "INSERT OR REPLACE INTO failures "
                "(key, error, status, attempts, updated_at, origin) "
                "VALUES (?,?,?,?,?,?)",
                (key, error, int(status), int(attempts), time.time(), origin),
            )
            self._db.commit()

    def clear_failures(self, keys: Iterable[str]) -> None:
        """Drop ledger entries (e.g. once the task finally succeeded)."""
        chunk_src = list(keys)
        if not chunk_src:
            return
        with self._lock:
            for i in range(0, len(chunk_src), _IN_CHUNK):
                chunk = chunk_src[i : i + _IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                self._db.execute(
                    f"DELETE FROM failures WHERE key IN ({marks})", chunk
                )
            self._db.commit()

    def failures(self) -> list[dict[str, Any]]:
        """Every recorded failure, most recent first."""
        with self._lock:
            cur = self._db.execute(
                "SELECT key, error, status, attempts, updated_at, origin "
                "FROM failures ORDER BY updated_at DESC, key"
            )
            rows = cur.fetchall()
        return [
            {
                "key": key,
                "error": error,
                "status": int(status),
                "attempts": int(attempts),
                "updated_at": float(updated_at),
                "origin": origin,
            }
            for key, error, status, attempts, updated_at, origin in rows
        ]

    def failed_keys(self) -> set[str]:
        with self._lock:
            cur = self._db.execute("SELECT key FROM failures")
            return {row[0] for row in cur.fetchall()}

    def poison_keys(self) -> set[str]:
        """Keys whose recorded failure is *permanent* — a resume skips
        these instead of re-running a task that can never succeed."""
        with self._lock:
            cur = self._db.execute("SELECT key, status FROM failures")
            rows = cur.fetchall()
        return {key for key, status in rows if is_permanent_status(status)}

    def close(self) -> None:
        self._stop_flush_timer.set()
        if self._flush_timer is not None:
            self._flush_timer.join(timeout=1.0)
            self._flush_timer = None
        try:
            self.flush()
        finally:
            self._db.close()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        # Flush-on-exception: results computed before the error are not
        # lost; the batch in the buffer commits atomically here.
        self.close()
