"""Named shared-memory segments with a filesystem ledger.

:class:`SharedSegmentRegistry` publishes arrays once into named
``multiprocessing.shared_memory`` segments; every other consumer — same
process or a sibling process sharing the ledger directory — *attaches*
to the segment by name instead of receiving a copy.  The serving tier's
featurization cache (:mod:`repro.serve.featcache`) is built on it.

Design points:

* **Self-describing ledger.**  Each published segment has a JSON ledger
  entry (shape, dtype, byte order flag) in a filesystem directory shared
  by all participants.  Segment names are deterministic digests of the
  key, so discovery needs no coordination channel: a process that wants
  a key derives the name, finds the ledger entry, and attaches.
  Publication is write-intent + atomic rename, so a reader never
  attaches to a half-filled segment and a process killed mid-publish
  leaves an intent record the owner can sweep.

* **Refcounted attachment registry.**  Within a process, attachments are
  refcounted: the first consumer maps the segment, later consumers share
  the mapping, and ``release``/``close`` drop it when the count reaches
  zero.  NumPy views pin the underlying buffer, so close degrades
  gracefully (``BufferError`` means a view is still alive; the mapping
  then dies with the process).

* **Unlink-on-close lifecycle.**  Segments are *owned by whoever owns
  the ledger directory*, not by whichever process happened to publish
  them: ``unlink_all()`` sweeps the ledger (including intent records
  from crashed publishers) and unlinks every named segment — leak-proof
  even when a publisher dies between segment creation and ledger
  publication.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

try:  # pragma: no cover - stdlib, but gate for exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

#: Publish stages an injected fault hook can interrupt (chaos tests kill
#: the publisher at each one to prove readers never see a torn segment):
#: after the write-intent record exists, after the segment is created
#: but before the payload is copied, and after the payload is complete
#: but before the ledger rename makes it visible.
SHM_FAULT_POINTS = ("intent", "segment", "filled")


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` can be used here."""
    return _shared_memory is not None


@dataclass(frozen=True)
class SegmentInfo:
    """Ledger record describing one published segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    order: str  # "C" or "F"
    nbytes: int
    key: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "shape": list(self.shape),
                "dtype": self.dtype,
                "order": self.order,
                "nbytes": self.nbytes,
                "key": self.key,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "SegmentInfo":
        raw = json.loads(text)
        return cls(
            name=raw["name"],
            shape=tuple(int(s) for s in raw["shape"]),
            dtype=raw["dtype"],
            order=raw.get("order", "C"),
            nbytes=int(raw["nbytes"]),
            key=raw["key"],
        )


def _array_order(array: np.ndarray) -> str:
    """The memory order a round-trip must restore.

    C-contiguity wins ties (a 1-D array is both); only a genuinely
    Fortran-ordered array is recorded as ``"F"`` so the attach side
    rebuilds the exact same strides instead of silently re-laying it out.
    """
    if array.flags["C_CONTIGUOUS"]:
        return "C"
    if array.flags["F_CONTIGUOUS"]:
        return "F"
    return "C"  # non-contiguous inputs are copied into C layout


class SharedSegmentRegistry:
    """Publish/attach/unlink named shared-memory segments under one ledger.

    Parameters
    ----------
    ledger_dir:
        Directory (shared between parent and workers — a path, not a
        handle) holding one ``<segment>.json`` record per published
        segment plus ``<segment>.intent`` write-intent records.  The
        directory's path also namespaces segment names, so two ledgers
        on one node cannot collide.
    attach_timeout:
        Seconds to wait for a concurrent publisher to finish before the
        caller falls back to loading its own copy.
    track:
        Whether segments stay registered with this process's
        ``resource_tracker``.  The ledger *owner* keeps tracking as a
        crash safety net (if the owner dies, its tracker sweeps).
        Workers must pass ``False``: CPython < 3.13 registers on attach
        as well as create, each forked worker lazily spawns its *own*
        tracker, and a killed worker's tracker would then unlink live
        segments out from under its siblings (bpo-39959).  The ledger
        sweep (:meth:`unlink_all`) is the real cleanup path either way.
    stale_intent_seconds:
        Age beyond which an intent record with no ledger entry is
        treated as a dead publisher and reclaimed (intent + orphan
        segment removed) so the key becomes publishable again.  Long-
        running consumers (the serving featurization cache) need this:
        without it, one crashed writer would make its key permanently
        unpublishable until the owner's final sweep.
    fault_hook:
        Test-only callable invoked at each :data:`SHM_FAULT_POINTS`
        stage of a publish; chaos tests raise/``os._exit`` from it to
        simulate a writer dying mid-publish.
    """

    def __init__(
        self,
        ledger_dir: str,
        *,
        attach_timeout: float = 10.0,
        track: bool = True,
        stale_intent_seconds: float = 30.0,
        fault_hook: Any = None,
    ) -> None:
        if not shared_memory_available():  # pragma: no cover - exotic builds
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self.ledger_dir = os.fspath(ledger_dir)
        os.makedirs(self.ledger_dir, exist_ok=True)
        self.attach_timeout = float(attach_timeout)
        self.track = bool(track)
        self.stale_intent_seconds = float(stale_intent_seconds)
        self.fault_hook = fault_hook
        self._namespace = hashlib.sha1(
            os.path.abspath(self.ledger_dir).encode()
        ).hexdigest()[:8]
        self._lock = threading.Lock()
        #: name -> (SharedMemory, SegmentInfo, refcount)
        self._attached: dict[str, list[Any]] = {}  # guarded-by: _lock

    # -- naming & ledger paths -------------------------------------------------
    def segment_name(self, key: str) -> str:
        """Deterministic segment name for a datum key (no coordination)."""
        digest = hashlib.sha1(key.encode()).hexdigest()[:20]
        return f"psio{self._namespace}-{digest}"

    def _ledger_path(self, name: str) -> str:
        return os.path.join(self.ledger_dir, f"{name}.json")

    def _intent_path(self, name: str) -> str:
        return os.path.join(self.ledger_dir, f"{name}.intent")

    # -- publish / attach --------------------------------------------------------
    def get(self, key: str) -> tuple[np.ndarray, SegmentInfo] | None:
        """Attach to *key*'s segment if published; None when absent.

        The returned array is a read-only view over the shared buffer —
        zero bytes are copied.  The registry holds the mapping open
        (refcounted) until :meth:`release` or :meth:`close`.
        """
        name = self.segment_name(key)
        with self._lock:
            entry = self._attached.get(name)
            if entry is not None:
                entry[2] += 1
                return self._view(entry[0], entry[1]), entry[1]
        info = self._read_ledger(name)
        if info is None:
            return None
        return self._attach(info)

    def publish(self, key: str, array: np.ndarray) -> tuple[np.ndarray, SegmentInfo]:
        """Publish *array* under *key* (or attach if already published).

        Exactly one process wins a concurrent publish; the losers wait
        for the winner's ledger record and attach.  The publish itself
        pays one copy (counted); every later consumer maps for free.
        """
        existing = self.get(key)
        if existing is not None:
            return existing
        name = self.segment_name(key)
        array = np.ascontiguousarray(array) if not (
            array.flags["C_CONTIGUOUS"] or array.flags["F_CONTIGUOUS"]
        ) else array
        info = SegmentInfo(
            name=name,
            shape=tuple(array.shape),
            dtype=array.dtype.str,
            order=_array_order(array),
            nbytes=int(array.nbytes),
            key=key,
        )
        # Write-intent before the segment exists: a worker killed between
        # create and ledger publish still leaves a sweepable record.
        intent = self._intent_path(name)
        try:
            fd = os.open(intent, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            # Another process is publishing right now; wait for it.
            return self._await_publisher(name, key, array)
        try:
            os.write(fd, info.to_json().encode())
        finally:
            os.close(fd)
        self._fault("intent", key)
        try:
            seg = _shared_memory.SharedMemory(
                name=name, create=True, size=max(info.nbytes, 1)
            )
        except FileExistsError:
            # Segment exists from a previous (unswept) publisher; adopt it
            # only via its ledger record, else treat as a publish race.
            os.remove(intent)
            return self._await_publisher(name, key, array)
        if not self.track:
            # Worker-side publish: the segment belongs to the ledger
            # owner's sweep, not to this process's resource tracker.
            self._tracker_call("unregister", name)
        self._fault("segment", key)
        dst = np.ndarray(info.shape, dtype=np.dtype(info.dtype),
                         buffer=seg.buf, order=info.order)
        dst[...] = array
        self._fault("filled", key)
        # Atomic publish: the ledger record appears only once the payload
        # is fully written.
        tmp = self._ledger_path(name) + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(info.to_json())
        os.replace(tmp, self._ledger_path(name))
        os.remove(intent)
        with self._lock:
            self._attached[name] = [seg, info, 1]
        return self._view(seg, info), info

    def _fault(self, point: str, key: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point, key)

    def _await_publisher(
        self, name: str, key: str, array: np.ndarray
    ) -> tuple[np.ndarray, SegmentInfo]:
        deadline = time.monotonic() + self.attach_timeout
        while time.monotonic() < deadline:
            info = self._read_ledger(name)
            if info is not None:
                return self._attach(info)
            time.sleep(0.005)
        # Publisher died mid-write (or is wedged): serve a private copy
        # so the task still runs.  Provably-stale intents are reclaimed
        # here so the key becomes publishable again before the owner's
        # final sweep (the serving cache republishes on the next miss).
        self.reclaim_stale_intent(name)
        return array, SegmentInfo(
            name="", shape=tuple(array.shape), dtype=array.dtype.str,
            order=_array_order(array), nbytes=int(array.nbytes), key=key,
        )

    def reclaim_stale_intent(self, name: str) -> bool:
        """Remove a dead publisher's intent (and orphan segment) for *name*.

        An intent record older than ``stale_intent_seconds`` with no
        ledger entry means the publisher died between intent and ledger
        rename; the half-written segment (if any) was never visible to
        readers, so removing both simply re-opens the key.  Concurrent
        reclaims race benignly (missing-file errors are tolerated).
        Returns True when a reclaim happened.
        """
        if self._read_ledger(name) is not None:
            return False
        intent = self._intent_path(name)
        try:
            age = time.time() - os.stat(intent).st_mtime
        except OSError:
            return False
        if age < self.stale_intent_seconds:
            return False
        try:
            os.remove(intent)
        except FileNotFoundError:
            return False
        self._unlink_segment(name)
        return True

    def _attach(self, info: SegmentInfo) -> tuple[np.ndarray, SegmentInfo]:
        seg = _shared_memory.SharedMemory(name=info.name, create=False)
        self._untrack_attachment(info.name)
        with self._lock:
            entry = self._attached.get(info.name)
            if entry is not None:
                # Raced with another thread attaching the same segment.
                entry[2] += 1
                seg.close()
                seg, info = entry[0], entry[1]
            else:
                self._attached[info.name] = [seg, info, 1]
        return self._view(seg, info), info

    @staticmethod
    def _tracker_call(op: str, name: str) -> None:
        try:
            from multiprocessing import resource_tracker

            getattr(resource_tracker, op)(f"/{name}", "shared_memory")
        except Exception:  # noqa: BLE001 - tracker internals vary by version
            pass

    def _untrack_attachment(self, name: str) -> None:
        """Cancel the resource tracker's per-attach registration.

        CPython < 3.13 registers on *attach* as well as create.  For an
        untracked (worker-side) registry that registration must always
        go: a forked worker lazily spawns its own tracker, and a killed
        worker's tracker would unlink live segments its siblings still use.  A
        tracked (owner-side) registry keeps fork-shared registrations as
        a crash safety net and only untracks where each attacher is
        guaranteed its own tracker (no ``fork``; bpo-39959).
        """
        import multiprocessing

        if self.track and "fork" in multiprocessing.get_all_start_methods():
            return
        self._tracker_call("unregister", name)

    @staticmethod
    def _view(seg: Any, info: SegmentInfo) -> np.ndarray:
        """A read-only array over the segment, exact dtype/order restored."""
        arr = np.ndarray(
            info.shape, dtype=np.dtype(info.dtype), buffer=seg.buf, order=info.order
        )
        arr.setflags(write=False)
        return arr

    def _read_ledger(self, name: str) -> SegmentInfo | None:
        try:
            with open(self._ledger_path(name), encoding="utf-8") as fh:
                return SegmentInfo.from_json(fh.read())
        except FileNotFoundError:
            return None
        except (ValueError, KeyError):  # torn record: treat as unpublished
            return None

    # -- lifecycle ----------------------------------------------------------------
    def release(self, key: str) -> None:
        """Drop one reference to *key*'s attachment (close at zero)."""
        name = self.segment_name(key)
        with self._lock:
            entry = self._attached.get(name)
            if entry is None:
                return
            entry[2] -= 1
            if entry[2] > 0:
                return
            del self._attached[name]
            seg = entry[0]
        try:
            seg.close()
        except BufferError:  # a NumPy view still pins the buffer
            pass

    def attached_names(self) -> list[str]:
        with self._lock:
            return sorted(self._attached)

    def ledger_names(self) -> list[str]:
        """Every segment the ledger knows about (published or intended)."""
        names = set()
        try:
            entries = os.listdir(self.ledger_dir)
        except OSError:
            return []
        for entry in entries:
            if entry.endswith(".json"):
                names.add(entry[: -len(".json")])
            elif entry.endswith(".intent"):
                names.add(entry[: -len(".intent")])
        return sorted(names)

    def entries(self) -> list[tuple[SegmentInfo, float]]:
        """Published ledger records with publish times, oldest first.

        The eviction substrate for capacity-bounded consumers: each
        record carries its original datum key and byte size, and the
        ledger file's mtime orders the entries for oldest-first sweeps.
        Intent-only (in-flight or crashed) publishes are not listed.
        """
        out: list[tuple[SegmentInfo, float]] = []
        for name in self.ledger_names():
            info = self._read_ledger(name)
            if info is None:
                continue
            try:
                mtime = os.stat(self._ledger_path(name)).st_mtime
            except OSError:
                continue
            out.append((info, mtime))
        out.sort(key=lambda pair: pair[1])
        return out

    def iter_live_segments(self) -> Iterator[str]:
        """Ledger-known names that still exist in the OS namespace."""
        for name in self.ledger_names():
            if os.path.exists(f"/dev/shm/{name}"):
                yield name
            else:
                try:
                    seg = _shared_memory.SharedMemory(name=name, create=False)
                except FileNotFoundError:
                    continue
                seg.close()
                yield name

    def close(self) -> None:
        """Close every attachment held by this registry (no unlink)."""
        with self._lock:
            entries = list(self._attached.values())
            self._attached.clear()
        for seg, _info, _refs in entries:
            try:
                seg.close()
            except BufferError:
                pass

    def _unlink_segment(self, name: str) -> bool:
        """Unlink *name*'s OS segment if it exists (True when removed)."""
        try:
            seg = _shared_memory.SharedMemory(name=name, create=False)
        except FileNotFoundError:
            return False
        if not self.track:
            # unlink() sends an unregister; balance it so the
            # tracker never sees a name it was not holding.
            self._tracker_call("register", name)
        try:
            seg.close()
        finally:
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - raced sweep
                return False
        return True

    def unlink(self, key: str) -> bool:
        """Unlink one published *key*: segment, ledger and intent records.

        The per-entry eviction path (capacity-bounded caches retire the
        oldest entries instead of sweeping everything).  Attached
        readers in other processes keep their mapping alive — POSIX
        shm unlink removes the name, not live maps — so eviction never
        tears a row out from under a concurrent reader.  Safe when two
        evictors race; returns True when this call removed the segment.
        """
        name = self.segment_name(key)
        self.release(key)
        removed = self._unlink_segment(name)
        for path in (self._ledger_path(name), self._intent_path(name)):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        return removed

    def unlink_all(self) -> list[str]:
        """Unlink every ledger-known segment; returns the names removed.

        This is the owner-shutdown (and crash-sweep) path: intent records
        from workers killed mid-publish are honoured too, so a chaos run
        cannot leak ``/dev/shm`` names.  Safe to call repeatedly and from
        a process that never attached anything.
        """
        self.close()
        removed: list[str] = []
        for name in self.ledger_names():
            if self._unlink_segment(name):
                removed.append(name)
            for path in (self._ledger_path(name), self._intent_path(name)):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
        return removed

    def __enter__(self) -> "SharedSegmentRegistry":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


__all__ = [
    "SHM_FAULT_POINTS",
    "SegmentInfo",
    "SharedSegmentRegistry",
    "shared_memory_available",
]
