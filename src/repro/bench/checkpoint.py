"""SQLite checkpoint store (§4.3).

"Checkpointing is enabled via an embedded SQLite database.  A database
was chosen both because of atomicity guarantees in the case of failures
— no accidental partial results — but also the ability to query and
partially restore the key state — the metrics results."

Rows are keyed by the stable hash combining compressor configuration,
dataset configuration, experimental metadata, and replicate id (see
:func:`repro.core.hashing.combined_hash`); payloads are JSON so the
metrics results stay queryable.

A row stores its values only, ``[column_set_id, v1, …, vn]``; the
``columns`` table holds each distinct ordered key list once (``id``,
``names``, a checksum of ``names``), registered in the transaction of
the first row that uses it.  Rows written before column sets are the
payload object itself and read as such: nothing is rewritten on open.

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
A handle is single-threaded: the thread that opened it does every write
and read (see :class:`CheckpointStore`).

Reads: every multi-row read is one :meth:`CheckpointStore.scan`, one
``SELECT key, payload, checksum FROM results`` that audits each row as
it passes — a row failing its checksum or its column set is quarantined
(deleted, so a restart recomputes it) or, for a read-only caller,
skipped, and legacy checksum-less rows that still parse are backfilled
— and returns the verified payloads by key, decoded as every read is
(one ``json.loads`` over the joined rows, then ``dict(zip(names,
values))`` per row).  A campaign resume reads its todo set and its
observations from that one scan; :meth:`~CheckpointStore.verify` and
:meth:`~CheckpointStore.query` wrap it, :meth:`~CheckpointStore.pending`
and :meth:`~CheckpointStore.keys` read keys only, and
:meth:`~CheckpointStore.get` is the single-key lookup.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
import warnings
from typing import Any, Iterable, Literal, Mapping, NamedTuple

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
CREATE TABLE IF NOT EXISTS columns (
    id INTEGER PRIMARY KEY,
    names TEXT NOT NULL UNIQUE,
    checksum TEXT NOT NULL
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

#: The partial-restore columns, in the order an encoded row holds them
#: (after its key).
_HASH_COLUMNS = ("compressor_hash", "dataset_hash", "experiment_hash")

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
#: ``WHERE key IN (...)`` statements.
_IN_CHUNK = 500

#: What :meth:`CheckpointStore.scan` does with a row that fails its audit:
#: delete it (``"quarantine"``), leave it and skip it (``"skip"``, for
#: read-only callers), or check no checksum (``"off"``).
Audit = Literal["quarantine", "skip", "off"]


class Scan(NamedTuple):
    """What one :meth:`CheckpointStore.scan` read."""

    #: Key → decoded payload of every row that passed the audit, in
    #: table order; buffered results included.
    payloads: dict[str, dict[str, Any]]
    #: Keys whose committed row failed the audit (or, unaudited, did
    #: not decode).
    mismatched: list[str]


def _loads(text: str) -> Any:
    """*text* parsed, or ``None`` where it is not JSON."""
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


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
        read on this handle; they reach disk on flush/close/exception,
        so a crash loses at most the last ``flush_every - 1`` results.

    A handle belongs to the thread that opened it: its connection keeps
    sqlite3's thread check, so a read or write from any other thread
    raises :class:`sqlite3.ProgrammingError` instead of racing.  Every
    engine hands its results to one sink on the calling thread, and a
    process that wants another thread's view opens its own handle (WAL
    lets it read while this one writes).

    Writes use ``INSERT OR REPLACE`` inside explicit batch transactions,
    so a crash mid-write never leaves a partial row; readers see either
    the previous state or the full new batch.
    """

    def __init__(self, path: str = ":memory:", *, flush_every: int = 1) -> None:
        self.path = path
        self.flush_every = max(1, int(flush_every))
        #: Commits issued on the results table — the benchmark counter
        #: proving batching (one commit per ``flush_every`` results).
        self.commit_count = 0
        if path != ":memory:":
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._db = sqlite3.connect(path)
        #: key → encoded row awaiting flush (dict gives replace semantics).
        self._buffer: dict[str, tuple] = {}
        #: The column sets this handle knows (that pass their checksum).
        self._names: dict[int, tuple[str, ...]] = {}
        self._ids: dict[tuple[str, ...], int] = {}
        if path != ":memory:":
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        self._migrate_schema()
        self._check_hash_version()

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
        obj = _jsonable(dict(payload))
        if not all(isinstance(name, str) for name in obj):  # as JSON spells them
            obj = json.loads(json.dumps(obj))
        return (
            key,
            compressor_hash,
            dataset_hash,
            experiment_hash,
            replicate,
            tuple(obj),
            json.dumps(list(obj.values())),
            time.time(),
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
        self._buffer[key] = self._encode_row(
            key, payload, compressor_hash, dataset_hash, experiment_hash, replicate
        )
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Commit all buffered results as one atomic batch."""
        if not self._buffer:
            return
        rows = []
        for *head, names, values, created_at in self._buffer.values():
            cid = self._column_id(names)  # json.dumps([cid, *values]):
            row = f"[{cid}]" if values == "[]" else f"[{cid}, {values[1:]}"
            rows.append((*head, row, created_at, payload_checksum(row)))
        self._db.executemany(_INSERT_SQL, rows)
        self._db.commit()
        self.commit_count += 1
        self._buffer.clear()

    def _column_id(self, names: tuple[str, ...]) -> int:
        """The id of column set *names*, registered in the open
        transaction (it commits with the row that needs it) if new."""
        cid = self._ids.get(names)
        if cid is None:
            text = json.dumps(names)
            checksum = payload_checksum(text)
            sql = "INSERT OR IGNORE INTO columns (names, checksum) VALUES (?,?)"
            self._db.execute(sql, (text, checksum))
            cid, stored = self._db.execute(
                "SELECT id, checksum FROM columns WHERE names=?", (text,)
            ).fetchone()
            if stored != checksum:  # the names are ours byte for byte: re-seal
                self._db.execute("UPDATE columns SET checksum=? WHERE id=?", (checksum, cid))
            self._names[cid], self._ids[names] = names, cid
        return cid

    # -- reads -----------------------------------------------------------------
    def _read_columns(self) -> None:
        """Learn the sets other handles registered, but none that fails its
        checksum or whose names are not unique strings."""
        for cid, text, checksum in self._db.execute("SELECT id, names, checksum FROM columns"):
            names = _loads(text) if payload_checksum(text) == checksum else None
            if isinstance(names, list) and all(isinstance(n, str) for n in names):
                if len(set(names)) == len(names):
                    self._names[cid] = names = tuple(names)
                    self._ids[names] = cid

    def _decode(self, texts: list[str]) -> list[dict[str, Any] | None]:
        """Each row text's payload, or ``None`` where it has none.

        The one decoder of stored rows: one ``json.loads`` over their
        join (one by one if a damaged text breaks it).  An array row maps
        its values onto its column set's names; an object row (written
        before column sets) is the payload itself.  A row whose id stays
        unknown after one re-read of ``columns``, or whose value count
        differs from its set's name count, has no payload.
        """
        rows = _loads("[" + ",".join(texts) + "]")
        if not isinstance(rows, list) or len(rows) != len(texts):
            rows = [_loads(text) for text in texts]
        out: list[dict[str, Any] | None] = []
        reread = False
        for row in rows:
            if type(row) is dict:
                out.append(row)
                continue
            names = None
            if type(row) is list and row and type(row[0]) is int:
                names = self._names.get(row[0])
                if names is None and not reread:
                    self._read_columns()
                    reread = True
                    names = self._names.get(row[0])
            ok = names is not None and len(names) == len(row) - 1
            out.append(dict(zip(names, row[1:])) if ok else None)
        return out

    @staticmethod
    def _buffered(row: tuple) -> dict[str, Any]:
        """The payload of a buffered row, as its flushed row decodes."""
        return dict(zip(row[5], json.loads(row[6])))

    def get(self, key: str) -> dict[str, Any] | None:
        """One result by key (buffered or committed), unaudited; ``None``
        when absent or when its row does not decode."""
        row = self._buffer.get(key)
        if row is not None:
            return self._buffered(row)
        cur = self._db.execute("SELECT payload FROM results WHERE key=?", (key,))
        db_row = cur.fetchone()
        if db_row is None:
            return None
        return self._decode([db_row[0]])[0]

    def scan(
        self,
        *,
        audit: Audit = "quarantine",
        compressor_hash: str | None = None,
        dataset_hash: str | None = None,
        experiment_hash: str | None = None,
    ) -> Scan:
        """Read every row (matching the given hashes) in one ``SELECT``.

        Each committed row is audited as it passes: a row whose payload
        fails its checksum, or that does not decode (see
        :meth:`_decode`; a legacy checksum-less row decodes while
        it parses), is *mismatched*.  ``audit="quarantine"`` deletes
        mismatched rows, so their keys are missing and a restart
        recomputes them, and backfills the legacy rows' checksums;
        ``audit="skip"`` leaves the table as it is and only leaves them
        out; ``audit="off"`` checks no checksum (what does not decode is
        still mismatched).
        Buffered results are read too, unaudited, in place of their
        committed row.
        """
        filters = {
            col: val
            for col, val in zip(
                _HASH_COLUMNS, (compressor_hash, dataset_hash, experiment_hash)
            )
            if val is not None
        }
        where = " AND ".join(f"{col}=?" for col in filters)
        sql = "SELECT key, payload, checksum FROM results" + (
            f" WHERE {where}" if where else ""
        )
        payloads: dict[str, dict[str, Any]] = {}
        mismatched: list[str] = []
        keys: list[str] = []
        texts: list[str] = []
        legacy: dict[str, str] = {}  # checksum-less rows: trusted while they parse
        for key, text, checksum in self._db.execute(sql, list(filters.values())):
            if key in self._buffer:
                continue  # its buffered result replaces it at the flush
            if audit != "off":
                if not checksum:
                    legacy[key] = text
                elif payload_checksum(text) != checksum:
                    mismatched.append(key)
                    continue
            keys.append(key)
            texts.append(text)
        for key, payload in zip(keys, self._decode(texts)):
            if payload is None:
                mismatched.append(key)
            else:
                payloads[key] = payload
        backfill = [
            (payload_checksum(text), key) for key, text in legacy.items() if key in payloads
        ]
        if audit == "quarantine" and (backfill or mismatched):
            self._db.executemany(
                "UPDATE results SET checksum=? WHERE key=?", backfill
            )
            for i in range(0, len(mismatched), _IN_CHUNK):
                chunk = mismatched[i : i + _IN_CHUNK]
                marks = ",".join("?" * len(chunk))
                self._db.execute(
                    f"DELETE FROM results WHERE key IN ({marks})", chunk
                )
            self._db.commit()
        for key, row in self._buffer.items():
            if all(row[1 + _HASH_COLUMNS.index(col)] == val for col, val in filters.items()):
                payloads[key] = self._buffered(row)
        return Scan(payloads, mismatched)

    def pending(self, keys: Iterable[str]) -> list[str]:
        """The subset of *keys* not yet present (what a restart must run)."""
        present = set(self.keys())
        return [k for k in keys if k not in present]

    def count(self) -> int:
        self.flush()
        cur = self._db.execute("SELECT COUNT(*) FROM results")
        return int(cur.fetchone()[0])

    def query(
        self,
        *,
        compressor_hash: str | None = None,
        dataset_hash: str | None = None,
        experiment_hash: str | None = None,
    ) -> list[dict[str, Any]]:
        """Partial restore: the payloads matching the given hashes, in
        key order — not the order the rows arrived in, which on a
        parallel engine is completion order, so an order-sensitive fit
        over them gives one answer per checkpoint.

        Read-only, and audited: a row that fails its checksum or its
        column set is left out — not deleted — with a warning that names
        how many; a ``collect`` on the checkpoint quarantines and
        recomputes them.
        """
        scan = self.scan(
            audit="skip",
            compressor_hash=compressor_hash,
            dataset_hash=dataset_hash,
            experiment_hash=experiment_hash,
        )
        if scan.mismatched:
            warnings.warn(
                f"checkpoint {self.path!r}: skipped {len(scan.mismatched)} row(s) "
                "that fail their checksum or column set; a collect on this "
                "checkpoint recomputes them",
                stacklevel=2,
            )
        return [scan.payloads[key] for key in sorted(scan.payloads)]

    def keys(self) -> list[str]:
        """All committed (and buffered) result keys, sorted; unaudited."""
        present = {key for (key,) in self._db.execute("SELECT key FROM results")}
        return sorted(present.union(self._buffer))

    # -- campaign metadata -------------------------------------------------------
    def set_meta(self, key: str, value: str) -> None:
        """Persist one campaign-level metadata string (e.g. the last
        run's queue statistics, serialised as JSON by the caller)."""
        if key == "hash_version":
            raise ValueError("'hash_version' is managed by the store")
        self._db.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?,?)", (key, value)
        )
        self._db.commit()

    def get_meta(self, key: str) -> str | None:
        cur = self._db.execute("SELECT value FROM meta WHERE key=?", (key,))
        row = cur.fetchone()
        return None if row is None else str(row[0])

    # -- integrity ---------------------------------------------------------------
    def verify(self) -> list[str]:
        """Audit every committed row's payload against its checksum.

        Corrupt rows (checksum mismatch, a row its column set does not
        decode, or a legacy checksum-less row whose payload no longer
        parses as JSON) are quarantined: deleted
        from ``results`` so their keys surface in :meth:`pending` and a
        restart recomputes them.  Legacy rows that still parse are
        backfilled with a checksum instead.  Returns the quarantined
        keys.  One :meth:`scan`, after the buffer is flushed.
        """
        self.flush()
        return self.scan(audit="quarantine").mismatched

    def corrupt_rows(self, keys: Iterable[str]) -> int:
        """Chaos hook: overwrite committed payloads *without* refreshing
        the checksum, simulating at-rest corruption that :meth:`verify`
        must catch.  Returns the number of rows damaged."""
        self.flush()
        damaged = 0
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
        for i in range(0, len(chunk_src), _IN_CHUNK):
            chunk = chunk_src[i : i + _IN_CHUNK]
            marks = ",".join("?" * len(chunk))
            self._db.execute(
                f"DELETE FROM failures WHERE key IN ({marks})", chunk
            )
        self._db.commit()

    def failures(self) -> list[dict[str, Any]]:
        """Every recorded failure, most recent first."""
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
        cur = self._db.execute("SELECT key FROM failures")
        return {row[0] for row in cur.fetchall()}

    def poison_keys(self) -> set[str]:
        """Keys whose recorded failure is *permanent* — a resume skips
        these instead of re-running a task that can never succeed."""
        cur = self._db.execute("SELECT key, status FROM failures")
        rows = cur.fetchall()
        return {key for key, status in rows if is_permanent_status(status)}

    def close(self) -> None:
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
