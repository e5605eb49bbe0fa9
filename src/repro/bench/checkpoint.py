"""SQLite checkpoint store (§4.3).

"Checkpointing is enabled via an embedded SQLite database.  A database
was chosen both because of atomicity guarantees in the case of failures
— no accidental partial results — but also the ability to query and
partially restore the key state — the metrics results."

Rows are keyed by the stable hash combining compressor configuration,
dataset configuration, experimental metadata, and replicate id (see
:func:`repro.core.hashing.combined_hash`); the metrics results stay
queryable through :meth:`CheckpointStore.query`, which decodes them.

A row stores its values only: its top-level Python floats as one
little-endian float64 block (the ``floats`` column), the rest as the
JSON array ``[column_set_id, v…]``.  The ``columns`` table holds each
distinct row shape once (``id``, ``names``, a checksum of ``names``),
registered in the transaction of the first row that uses it; a shape is
its ordered key list plus which of its positions hold floats (a plain
JSON list of names when none does).  A row's checksum covers its text
and its block.  Rows written before float blocks (``floats`` is
``NULL``) and before column sets (the payload object itself) read as
such: nothing is rewritten on open.

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
A handle is single-threaded: the thread that opened it makes every call
(see :class:`CheckpointStore`).

Reads: every multi-row read is one :meth:`CheckpointStore.scan`, one
``SELECT key, payload, floats, checksum FROM results`` that audits each
row as it passes — a row failing its checksum or its column set is
quarantined (deleted, so a restart recomputes it) or, for a read-only
caller, skipped, and legacy checksum-less rows that still parse are
backfilled — and returns the verified payloads by key, decoded as every
read is (one ``json.loads`` over the joined row texts, one
``np.frombuffer`` over each column set's joined float blocks, then each
row's values put back in name order).  A campaign resume reads its todo
set and its observations from that one scan; :meth:`~CheckpointStore.verify`
and :meth:`~CheckpointStore.query` wrap it, :meth:`~CheckpointStore.pending`
and :meth:`~CheckpointStore.keys` read keys only, and
:meth:`~CheckpointStore.get` is the single-key lookup.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import os
import sqlite3
import struct
import threading
import time
import warnings
from typing import Any, Callable, Iterable, Literal, Mapping, NamedTuple, TypeVar

import numpy as np

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
    checksum TEXT NOT NULL DEFAULT '',
    floats BLOB
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

#: A row without a float block, as every build before float blocks wrote
#: it (``floats`` stays ``NULL``).
_INSERT_SQL = (
    "INSERT OR REPLACE INTO results "
    "(key, compressor_hash, dataset_hash, experiment_hash, replicate,"
    " payload, created_at, checksum) VALUES (?,?,?,?,?,?,?,?)"
)

#: A row and its float block, as :meth:`CheckpointStore.flush` writes it.
_INSERT_ROW_SQL = (
    "INSERT OR REPLACE INTO results "
    "(key, compressor_hash, dataset_hash, experiment_hash, replicate,"
    " payload, created_at, checksum, floats) VALUES (?,?,?,?,?,?,?,?,?)"
)


def payload_checksum(payload_json: str, floats: bytes | None = None) -> str:
    """Content checksum of one serialised payload and its float block.

    Stored alongside the row and re-derived by :meth:`CheckpointStore.verify`
    — a mismatch means the payload bytes changed after they were hashed
    (torn write, bit rot, external tampering), so the row cannot be
    trusted and must be recomputed.  A row without a block has the
    checksum of its text alone, as before float blocks.
    """
    digest = hashlib.sha256(payload_json.encode("utf-8"))
    if floats:
        digest.update(floats)
    return digest.hexdigest()[:16]

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


#: A row shape: its ordered names, and the positions among them whose
#: values are Python floats (ascending).
Shape = tuple[tuple[str, ...], tuple[int, ...]]


class _ColumnSet:
    """One row shape and how a stored row of it decodes.

    A decoded row is the list ``[id, v…, f…]``: the JSON array's values
    (the non-float ones, in name order) followed by the float block's.
    ``pick`` puts them back in name order, in one C-level call.
    """

    __slots__ = ("names", "floats", "text", "pick")

    def __init__(self, names: tuple[str, ...], floats: tuple[int, ...]) -> None:
        self.names, self.floats = names, floats
        self.text = json.dumps({"names": names, "floats": floats} if floats else names)
        held = set(floats)
        stored = [i for i in range(len(names)) if i not in held] + list(floats)
        order = sorted(range(len(stored)), key=stored.__getitem__)
        if order == list(range(len(stored))):  # already in name order
            self.pick = operator.itemgetter(slice(1, None))
        else:  # two or more names here, so itemgetter returns a tuple
            self.pick = operator.itemgetter(*(1 + j for j in order))

    @classmethod
    def parse(cls, text: str) -> _ColumnSet | None:
        """The set a ``columns.names`` text spells: a list of unique names
        (no floats), or ``{"names": […], "floats": […]}`` with at least
        one float position; ``None`` for anything else."""
        spec = _loads(text)
        if type(spec) is dict and set(spec) == {"names", "floats"}:
            names, floats = spec["names"], spec["floats"]
            if not (type(floats) is list and floats and all(type(i) is int for i in floats)):
                return None
        else:
            names, floats = spec, []
        if not (type(names) is list and all(type(n) is str for n in names)):
            return None
        if len(set(names)) != len(names) or floats != sorted(set(floats)):
            return None
        if floats and not 0 <= floats[0] <= floats[-1] < len(names):
            return None
        return cls(tuple(names), tuple(floats))

    def holds(self, row: Any, block: bytes | None) -> bool:
        """Whether *row* (a parsed JSON array) and *block* are one row of
        this set: the right number of values, and 8 bytes per float."""
        return (
            len(row) - 1 == len(self.names) - len(self.floats)
            and len(block or b"") == 8 * len(self.floats)
        )


#: Decoded rows by column set: ``(index, [id, v…], float block)`` each.
_Groups = dict[_ColumnSet, list[tuple[int, list, bytes | None]]]


def _with_id(cid: int, values: str) -> str:
    """The row text ``[cid, v…]`` from the JSON array text ``[v…]``."""
    return f"[{cid}]" if values == "[]" else f"[{cid}, {values[1:]}"


_Method = TypeVar("_Method", bound=Callable[..., Any])


def _owner_only(method: _Method) -> _Method:
    """Refuse a call from any thread but the one that opened the store."""

    @functools.wraps(method)
    def checked(self: CheckpointStore, *args: Any, **kwargs: Any) -> Any:
        if threading.get_ident() != self._owner:
            raise sqlite3.ProgrammingError(
                f"checkpoint {self.path!r} was opened in thread {self._owner} "
                f"and used in thread {threading.get_ident()}"
            )
        return method(self, *args, **kwargs)

    return checked  # type: ignore[return-value]


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

    A handle belongs to the thread that opened it: every public method
    checks the calling thread on entry (and the connection keeps
    sqlite3's own check), so a call from any other thread raises
    :class:`sqlite3.ProgrammingError` instead of racing — whether or not
    it would have touched the connection.  Every engine hands its
    results to one sink on the calling thread, and a process that wants
    another thread's view opens its own handle (WAL lets it read while
    this one writes).

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
        self._owner = threading.get_ident()
        #: key → encoded row awaiting flush (dict gives replace semantics).
        self._buffer: dict[str, tuple] = {}
        #: The column sets this handle knows (that pass their checksum),
        #: by id, and the id of each shape.
        self._sets: dict[int, _ColumnSet] = {}
        self._ids: dict[Shape, int] = {}
        #: Every shape this handle has met, registered or only buffered.
        self._shapes: dict[Shape, _ColumnSet] = {}
        if path != ":memory:":
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        self._migrate_schema()
        self._check_hash_version()

    def _migrate_schema(self) -> None:
        """Bring older databases up to the current schema.

        Pre-integrity checkpoints lack the ``checksum`` column; they gain
        it with an empty default, and :meth:`verify` backfills checksums
        for rows whose payload still parses (so legacy rows are not
        punished, only actually-corrupt ones).  Checkpoints from before
        float blocks gain a ``floats`` column that their rows leave
        ``NULL``: their text and checksum read as they were written.
        """
        cols = {row[1] for row in self._db.execute("PRAGMA table_info(results)")}
        if "checksum" not in cols:
            self._db.execute(
                "ALTER TABLE results ADD COLUMN checksum TEXT NOT NULL DEFAULT ''"
            )
            self._db.commit()
        if "floats" not in cols:
            self._db.execute("ALTER TABLE results ADD COLUMN floats BLOB")
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
        values = list(obj.values())
        floats = tuple(i for i, v in enumerate(values) if type(v) is float)
        block = None
        if floats:
            block = struct.pack(f"<{len(floats)}d", *(values[i] for i in floats))
            held = set(floats)
            values = [v for i, v in enumerate(values) if i not in held]
        return (
            key,
            compressor_hash,
            dataset_hash,
            experiment_hash,
            replicate,
            (tuple(obj), floats),
            json.dumps(values),
            block,
            time.time(),
        )

    @_owner_only
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

    @_owner_only
    def flush(self) -> None:
        """Commit all buffered results as one atomic batch."""
        if not self._buffer:
            return
        rows = []
        for *head, shape, values, block, created_at in self._buffer.values():
            row = _with_id(self._column_id(shape), values)
            rows.append((*head, row, created_at, payload_checksum(row, block), block))
        self._db.executemany(_INSERT_ROW_SQL, rows)
        self._db.commit()
        self.commit_count += 1
        self._buffer.clear()

    def _shape(self, shape: Shape) -> _ColumnSet:
        cset = self._shapes.get(shape)
        if cset is None:
            cset = self._shapes[shape] = _ColumnSet(*shape)
        return cset

    def _column_id(self, shape: Shape) -> int:
        """The id of column set *shape*, registered in the open
        transaction (it commits with the row that needs it) if new."""
        cid = self._ids.get(shape)
        if cid is None:
            cset = self._shape(shape)
            checksum = payload_checksum(cset.text)
            sql = "INSERT OR IGNORE INTO columns (names, checksum) VALUES (?,?)"
            self._db.execute(sql, (cset.text, checksum))
            cid, stored = self._db.execute(
                "SELECT id, checksum FROM columns WHERE names=?", (cset.text,)
            ).fetchone()
            if stored != checksum:  # the names are ours byte for byte: re-seal
                self._db.execute("UPDATE columns SET checksum=? WHERE id=?", (checksum, cid))
            self._sets[cid], self._ids[shape] = cset, cid
        return cid

    # -- reads -----------------------------------------------------------------
    def _read_columns(self) -> None:
        """Learn the sets other handles registered, but none that fails its
        checksum or does not parse as a set (:meth:`_ColumnSet.parse`)."""
        for cid, text, checksum in self._db.execute("SELECT id, names, checksum FROM columns"):
            cset = _ColumnSet.parse(text) if payload_checksum(text) == checksum else None
            if cset is not None:
                shape = (cset.names, cset.floats)
                self._sets[cid], self._ids[shape] = self._shapes.setdefault(shape, cset), cid

    def _decode(self, rows: list[tuple[str, bytes | None]]) -> list[dict[str, Any] | None]:
        """Each stored row's payload — from its text and float block — or
        ``None`` where it has none.

        The one decoder of stored rows: one ``json.loads`` over their
        joined texts (one by one if a damaged text breaks it).  An object
        row (written before column sets) is the payload itself.  An array
        row names its column set by id; its values and block are rebuilt
        by :meth:`_rebuild`.  A row whose id stays unknown after one
        re-read of ``columns``, or whose value count or block length does
        not fit its set, has no payload.
        """
        texts = [text for text, _ in rows]
        parsed = _loads("[" + ",".join(texts) + "]")
        if not isinstance(parsed, list) or len(parsed) != len(texts):
            parsed = [_loads(text) for text in texts]
        out: list[dict[str, Any] | None] = [None] * len(rows)
        groups: _Groups = {}
        reread = False
        for i, (row, (_, block)) in enumerate(zip(parsed, rows)):
            if type(row) is dict:
                out[i] = row
                continue
            cset = None
            if type(row) is list and row and type(row[0]) is int:
                cset = self._sets.get(row[0])
                if cset is None and not reread:
                    self._read_columns()
                    reread = True
                    cset = self._sets.get(row[0])
            if cset is not None and cset.holds(row, block):
                groups.setdefault(cset, []).append((i, row, block))
        self._rebuild(groups, out)
        return out

    @staticmethod
    def _rebuild(groups: _Groups, out: list) -> None:
        """Set ``out[i]`` to the payload of each decoded row ``(i, [id, v…],
        block)`` that fits its set: each set's blocks become Python floats
        in one ``np.frombuffer`` over their join, appended to their rows,
        and each row's values go back in name order by the set's ``pick``."""
        for cset, members in groups.items():
            if cset.floats:
                joined = b"".join([block for _, _, block in members])
                floats = np.frombuffer(joined, "<f8").reshape(len(members), len(cset.floats))
                for (_, row, _), values in zip(members, floats.tolist()):
                    row += values
            names, pick = cset.names, cset.pick
            for i, row, _ in members:
                out[i] = dict(zip(names, pick(row)))

    def _buffered(self, rows: list[tuple]) -> list[dict[str, Any]]:
        """The payloads of buffered rows, as their flushed rows decode."""
        groups: _Groups = {}
        for i, (*_, shape, values, block, _created_at) in enumerate(rows):
            row = json.loads(_with_id(0, values))
            groups.setdefault(self._shape(shape), []).append((i, row, block))
        out: list = [None] * len(rows)
        self._rebuild(groups, out)
        return out

    @_owner_only
    def get(self, key: str) -> dict[str, Any] | None:
        """One result by key (buffered or committed), unaudited; ``None``
        when absent or when its row does not decode."""
        row = self._buffer.get(key)
        if row is not None:
            return self._buffered([row])[0]
        cur = self._db.execute("SELECT payload, floats FROM results WHERE key=?", (key,))
        db_row = cur.fetchone()
        if db_row is None:
            return None
        return self._decode([db_row])[0]

    @_owner_only
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
        sql = "SELECT key, payload, floats, checksum FROM results" + (
            f" WHERE {where}" if where else ""
        )
        payloads: dict[str, dict[str, Any]] = {}
        mismatched: list[str] = []
        keys: list[str] = []
        rows: list[tuple[str, bytes | None]] = []
        legacy: dict[str, tuple] = {}  # checksum-less rows: trusted while they parse
        for key, text, block, checksum in self._db.execute(sql, list(filters.values())):
            if key in self._buffer:
                continue  # its buffered result replaces it at the flush
            if audit != "off":
                if not checksum:
                    legacy[key] = (text, block)
                elif payload_checksum(text, block) != checksum:
                    mismatched.append(key)
                    continue
            keys.append(key)
            rows.append((text, block))
        for key, payload in zip(keys, self._decode(rows)):
            if payload is None:
                mismatched.append(key)
            else:
                payloads[key] = payload
        backfill = [
            (payload_checksum(*row), key) for key, row in legacy.items() if key in payloads
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
        buffered = [
            row for row in self._buffer.values()
            if all(row[1 + _HASH_COLUMNS.index(col)] == val for col, val in filters.items())
        ]
        for row, payload in zip(buffered, self._buffered(buffered)):
            payloads[row[0]] = payload
        return Scan(payloads, mismatched)

    @_owner_only
    def pending(self, keys: Iterable[str]) -> list[str]:
        """The subset of *keys* not yet present (what a restart must run)."""
        present = set(self.keys())
        return [k for k in keys if k not in present]

    @_owner_only
    def count(self) -> int:
        self.flush()
        cur = self._db.execute("SELECT COUNT(*) FROM results")
        return int(cur.fetchone()[0])

    @_owner_only
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

    @_owner_only
    def keys(self) -> list[str]:
        """All committed (and buffered) result keys, sorted; unaudited."""
        present = {key for (key,) in self._db.execute("SELECT key FROM results")}
        return sorted(present.union(self._buffer))

    # -- campaign metadata -------------------------------------------------------
    @_owner_only
    def set_meta(self, key: str, value: str) -> None:
        """Persist one campaign-level metadata string (e.g. the last
        run's queue statistics, serialised as JSON by the caller)."""
        if key == "hash_version":
            raise ValueError("'hash_version' is managed by the store")
        self._db.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?,?)", (key, value)
        )
        self._db.commit()

    @_owner_only
    def get_meta(self, key: str) -> str | None:
        cur = self._db.execute("SELECT value FROM meta WHERE key=?", (key,))
        row = cur.fetchone()
        return None if row is None else str(row[0])

    # -- integrity ---------------------------------------------------------------
    @_owner_only
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

    @_owner_only
    def corrupt_rows(self, keys: Iterable[str], *, block: bool = False) -> int:
        """Chaos hook: damage committed rows *without* refreshing the
        checksum, simulating at-rest corruption that :meth:`verify` must
        catch.  A row's text is overwritten, or with ``block=True`` one
        bit of its float block flipped (the text, for a row without
        one).  Returns the number of rows damaged."""
        self.flush()
        damaged = 0
        for key in keys:
            found = self._db.execute("SELECT floats FROM results WHERE key=?", (key,)).fetchone()
            if found is None:
                continue
            if block and found[0]:
                flipped = bytes([found[0][0] ^ 1]) + found[0][1:]
                self._db.execute("UPDATE results SET floats=? WHERE key=?", (flipped, key))
            else:
                self._db.execute(
                    "UPDATE results SET payload=? WHERE key=?", ('{"corrupted": tru', key)
                )
            damaged += 1
        self._db.commit()
        return damaged

    # -- failure ledger ----------------------------------------------------------
    @_owner_only
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

    @_owner_only
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

    @_owner_only
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

    @_owner_only
    def failed_keys(self) -> set[str]:
        cur = self._db.execute("SELECT key FROM failures")
        return {row[0] for row in cur.fetchall()}

    @_owner_only
    def poison_keys(self) -> set[str]:
        """Keys whose recorded failure is *permanent* — a resume skips
        these instead of re-running a task that can never succeed."""
        cur = self._db.execute("SELECT key, status FROM failures")
        rows = cur.fetchall()
        return {key for key, status in rows if is_permanent_status(status)}

    @_owner_only
    def close(self) -> None:
        try:
            self.flush()
        finally:
            self._db.close()

    @_owner_only
    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        # Flush-on-exception: results computed before the error are not
        # lost; the batch in the buffer commits atomically here.
        self.close()
