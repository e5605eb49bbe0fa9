"""On-disk model registry: versioned publish of trained predictor state.

The bridge between a finished training campaign and the online serving
layer.  Each published model lives under a *registry key* — the same
stable option-structure hash the checkpoint store uses
(:mod:`repro.core.hashing`) — computed over the scheme identity+options,
the compressor identity, and the error-bound configuration, so "the
FXRZ model for SZ3 at 1e-4 range-relative" resolves to one directory
across processes, machines, and restarts.

Layout::

    root/
      <key>/
        v0001/
          MANIFEST.json   # scheme/compressor identity, checksum, meta
          state.json      # exact predictor state (serve.codec)
        v0002/...
        v0001.quarantined-<n>/   # corrupt blobs moved aside by load()
        LATEST            # text file naming the live version
        INTENT.json       # publish journal; present only mid-publish

Guarantees:

* **versioned publish** — versions are append-only; a publish never
  mutates an existing version directory (it is staged under a dot-prefix
  temp name and atomically renamed into place), and version numbers are
  never reused even after quarantine;
* **journaled two-phase commit** — each publish first journals its
  intent (``INTENT.json``: version, stage name, blob checksum), then
  stages, renames, flips ``LATEST``, and clears the intent.  A trainer
  killed at any point leaves no torn state: :meth:`ModelRegistry.recover`
  rolls an intact committed version forward (flips ``LATEST`` to it) or
  garbage-collects the orphaned stage, then clears the journal;
* **atomic latest pointer** — ``LATEST`` is replaced via write-temp +
  ``os.replace``, so readers see the old version or the new one, never a
  torn pointer; the fresh file is also what live servers watch
  (:meth:`ModelRegistry.stamp`) to follow each publish;
* **integrity** — the manifest records a SHA-256 checksum of the state
  blob; :meth:`ModelRegistry.load` verifies it and *quarantines* a
  mismatching blob (renames the version directory aside, retargets
  ``LATEST``) and falls back to the most recent intact version instead
  of serving corrupt state;
* **publish-time round-trip proof** — the encoded state is decoded into
  a freshly constructed predictor and its predictions compared against
  the live one, so a scheme whose state does not round-trip exactly
  fails at publish, not at first query.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..compressors import make_compressor
from ..core.errors import PressioError, Status
from ..core.hashing import options_hash
from ..predict.predictor import PredictorPlugin
from ..predict.scheme import SchemePlugin, get_scheme
from .codec import (
    CODEC_VERSION,
    StateSerializationError,
    decode_state,
    encode_state,
    state_checksum,
)

MANIFEST_NAME = "MANIFEST.json"
STATE_NAME = "state.json"
LATEST_NAME = "LATEST"
INTENT_NAME = "INTENT.json"
STAGE_PREFIX = ".stage-"

#: Publish fault points, in commit order, for chaos hooks: after the
#: intent is journaled, after the stage directory is fully written,
#: after the rename commits the version, after ``LATEST`` flips.
PUBLISH_FAULT_POINTS = ("intent", "staged", "renamed", "latest")

#: Bump when the registry layout changes.
REGISTRY_VERSION = 1


class ModelNotFoundError(PressioError):
    """No published (intact) version exists for the requested key."""

    status = Status.MISSING_OPTION


class ModelIntegrityError(PressioError):
    """A blob failed its checksum and no fallback version survived."""

    status = Status.CORRUPT_STREAM


def scheme_params(scheme: SchemePlugin) -> dict[str, Any]:
    """Recover a scheme's constructor arguments from its attributes.

    Scheme constructors follow the estimator convention — every named
    parameter is stored verbatim on ``self`` under the same name — so the
    manifest can record enough to rebuild the identical scheme with
    ``get_scheme(id, **params)``.  ``**options`` catch-alls are covered
    by the scheme's own option structure.
    """
    sig = inspect.signature(type(scheme).__init__)
    out: dict[str, Any] = {}
    for name, p in sig.parameters.items():
        if name == "self" or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
            continue
        if hasattr(scheme, name):
            out[name] = getattr(scheme, name)
    return out


def registry_key(
    scheme_id: str,
    compressor_id: str,
    compressor_options: Mapping[str, Any],
    scheme_options: Mapping[str, Any] | None = None,
) -> str:
    """The stable hash identifying one (scheme, compressor, bound) model.

    Built from the same canonical option hashing as checkpoint keys, so
    the key is reproducible from configuration alone — a client that
    knows what it wants to ask never needs a directory listing.
    """
    return options_hash(
        {
            "registry:scheme": scheme_id,
            "registry:scheme_options": dict(scheme_options or {}),
            "registry:compressor": compressor_id,
            "registry:compressor_options": dict(compressor_options),
        }
    )


@dataclass
class PublishedModel:
    """Receipt for one successful publish."""

    key: str
    version: str
    path: str
    manifest: dict[str, Any]


@dataclass
class LoadedModel:
    """A deserialised, ready-to-predict model plus its provenance."""

    key: str
    version: str
    predictor: PredictorPlugin
    scheme: SchemePlugin
    compressor: Any
    manifest: dict[str, Any] = field(default_factory=dict)

    @property
    def target_key(self) -> str:
        return self.manifest.get("target_key", self.scheme.target_key)


def _version_name(n: int) -> str:
    return f"v{n:04d}"


def _parse_version(name: str) -> int | None:
    if len(name) == 5 and name.startswith("v") and name[1:].isdigit():
        return int(name[1:])
    return None


class ModelRegistry:
    """Filesystem-backed registry of published predictor models."""

    def __init__(self, root: str) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    # -- paths -----------------------------------------------------------------
    def _key_dir(self, key: str) -> str:
        return os.path.join(self.root, key)

    def _version_dir(self, key: str, version: str) -> str:
        return os.path.join(self._key_dir(key), version)

    # -- enumeration -----------------------------------------------------------
    def keys(self) -> list[str]:
        """Every key with at least one published version."""
        try:
            names = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return []
        return [k for k in names if self.versions(k)]

    def versions(self, key: str) -> list[str]:
        """Intact (non-quarantined) version names, oldest first."""
        try:
            names = os.listdir(self._key_dir(key))
        except FileNotFoundError:
            return []
        out = [(n, name) for name in names if (n := _parse_version(name)) is not None]
        return [name for _, name in sorted(out)]

    def latest(self, key: str) -> str | None:
        """The version ``LATEST`` points at (validated), else None."""
        try:
            with open(os.path.join(self._key_dir(key), LATEST_NAME)) as fh:
                name = fh.read().strip()
        except FileNotFoundError:
            return None
        if _parse_version(name) is None or not os.path.isdir(
            self._version_dir(key, name)
        ):
            return None
        return name

    def stamp(self, key: str, version: str | None = None) -> tuple[int, int] | None:
        """A change marker for what :meth:`load` of ``(key, version)`` reads.

        Follow-latest is marked by the ``LATEST`` file, which every
        publish and every quarantine retarget replaces with a fresh file
        (:meth:`_set_latest`); a pinned version by its directory, which
        quarantine renames away.  One ``os.stat``: ``(inode, mtime_ns)``,
        or None when the file is gone.
        """
        path = os.path.join(self._key_dir(key), version or LATEST_NAME)
        try:
            st = os.stat(path)
        except FileNotFoundError:
            return None
        return (st.st_ino, st.st_mtime_ns)

    def describe(self, key: str) -> dict[str, Any]:
        """Manifest of the latest version plus version inventory."""
        version = self.latest(key)
        if version is None:
            raise ModelNotFoundError(f"no published model under key {key[:12]}…")
        return {
            "key": key,
            "latest": version,
            "versions": self.versions(key),
            "manifest": self._read_manifest(key, version),
        }

    # -- publish ---------------------------------------------------------------
    def _set_latest(self, key: str, version: str) -> None:
        # Atomic pointer flip: readers racing this see old or new, never
        # a partially written name.
        target = os.path.join(self._key_dir(key), LATEST_NAME)
        tmp = target + f".tmp-{os.getpid()}-{time.monotonic_ns()}"
        with open(tmp, "w") as fh:
            fh.write(version + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)

    def _next_version_number(self, key: str) -> int:
        """Smallest unused version number for *key*.

        Counts quarantined directories (``vNNNN.quarantined-k``) and
        in-flight stages alongside intact versions, so a number is never
        reused — a quarantined ``v0002`` must not be silently replaced
        by a fresh blob claiming the same identity.
        """
        try:
            names = os.listdir(self._key_dir(key))
        except FileNotFoundError:
            return 1
        top = 0
        for name in names:
            if name.startswith(STAGE_PREFIX):
                parts = name[len(STAGE_PREFIX):].split("-")
                n = _parse_version(parts[0]) if parts else None
            else:
                n = _parse_version(name.split(".", 1)[0])
            if n is not None:
                top = max(top, n)
        return top + 1

    # -- publish journal ---------------------------------------------------------
    def _intent_path(self, key: str) -> str:
        return os.path.join(self._key_dir(key), INTENT_NAME)

    def _write_intent(self, key: str, intent: Mapping[str, Any]) -> None:
        target = self._intent_path(key)
        tmp = target + f".tmp-{os.getpid()}-{time.monotonic_ns()}"
        with open(tmp, "w") as fh:
            json.dump(dict(intent), fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)

    def _read_intent(self, key: str) -> dict[str, Any] | None:
        try:
            with open(self._intent_path(key)) as fh:
                intent = json.load(fh)
        except FileNotFoundError:
            return None
        except ValueError:
            return {}  # torn journal: recover() clears it, nothing to roll
        return intent if isinstance(intent, dict) else {}

    def _clear_intent(self, key: str) -> None:
        try:
            os.remove(self._intent_path(key))
        except FileNotFoundError:
            pass

    @staticmethod
    def _fault(
        hook: Callable[[str, str, str], None] | None,
        point: str,
        key: str,
        version: str,
    ) -> None:
        """Invoke a publish fault hook (chaos: kill the trainer here)."""
        if hook is not None:
            hook(point, key, version)

    def publish(
        self,
        scheme: SchemePlugin,
        compressor_id: str,
        compressor_options: Mapping[str, Any],
        predictor: PredictorPlugin,
        *,
        verify_rows: Sequence[Mapping[str, Any]] | None = None,
        meta: Mapping[str, Any] | None = None,
        fault_hook: Callable[[str, str, str], None] | None = None,
    ) -> PublishedModel:
        """Publish *predictor* as the new latest version for its key.

        The state is serialised through the exact codec, decoded back
        into a freshly built predictor, and — when ``verify_rows`` are
        given — the restored predictor's outputs are compared
        element-exactly against the live one.  Any mismatch (or any
        unserialisable state member) raises here, at publish time.

        The commit itself is a journaled two-phase sequence: intent →
        stage → rename → ``LATEST`` flip → intent clear.  A process
        killed anywhere in that sequence leaves state
        :meth:`recover` rolls forward or garbage-collects; it never
        leaves a torn version.  ``fault_hook(point, key, version)`` is
        called at each :data:`PUBLISH_FAULT_POINTS` boundary so chaos
        tests can kill the trainer at a precise phase.
        """
        if predictor.needs_training and not predictor.is_fitted():
            raise StateSerializationError(
                f"refusing to publish unfitted predictor {predictor.id!r} "
                f"for scheme {scheme.id!r}"
            )
        state = predictor.get_state()
        if predictor.needs_training and not state:
            raise StateSerializationError(
                f"scheme {scheme.id!r} reports a fitted predictor but "
                "get_state() returned nothing to persist — its trained "
                "state is trapped in unserialisable members"
            )
        blob = encode_state(state)
        restored = self._rebuild(
            scheme, compressor_id, compressor_options, decode_state(blob)
        )
        if verify_rows:
            rows = list(verify_rows)
            want = np.asarray(predictor.predict_many(rows), dtype=np.float64)
            got = np.asarray(restored.predict_many(rows), dtype=np.float64)
            if want.shape != got.shape or not np.array_equal(want, got):
                raise StateSerializationError(
                    f"scheme {scheme.id!r} predictor state does not "
                    "round-trip: restored predictions differ from the "
                    f"live model (max |Δ| = "
                    f"{float(np.max(np.abs(want - got))) if want.shape == got.shape else float('nan'):g})"
                )
        key = registry_key(
            scheme.id,
            compressor_id,
            compressor_options,
            scheme_params(scheme),
        )
        key_dir = self._key_dir(key)
        os.makedirs(key_dir, exist_ok=True)
        checksum = state_checksum(blob)
        for _ in range(16):  # version-allocation races are finite
            version = _version_name(self._next_version_number(key))
            manifest = {
                "registry_version": REGISTRY_VERSION,
                "codec_version": CODEC_VERSION,
                "key": key,
                "version": version,
                "scheme": scheme.id,
                "scheme_params": _plain(scheme_params(scheme)),
                "compressor": compressor_id,
                "compressor_options": _plain(dict(compressor_options)),
                "target_key": scheme.target_key,
                "needs_training": bool(scheme.needs_training),
                "feature_keys": list(scheme.feature_keys()),
                "state_checksum": checksum,
                "created_at": time.time(),
                "meta": _plain(dict(meta or {})),
            }
            stage = os.path.join(
                key_dir,
                f"{STAGE_PREFIX}{version}-{os.getpid()}-{time.monotonic_ns()}",
            )
            # Phase 1 — journal the intent before touching anything else:
            # after a kill, recover() knows exactly what was in flight.
            self._write_intent(
                key,
                {"version": version, "stage": os.path.basename(stage),
                 "state_checksum": checksum},
            )
            self._fault(fault_hook, "intent", key, version)
            # Phase 2 — stage the whole version under a dot-name, then one
            # rename publishes it: a crash mid-stage leaves only a temp
            # the journal names.
            os.makedirs(stage, exist_ok=True)
            with open(os.path.join(stage, STATE_NAME), "w") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            with open(os.path.join(stage, MANIFEST_NAME), "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            self._fault(fault_hook, "staged", key, version)
            final = self._version_dir(key, version)
            try:
                os.rename(stage, final)
            except OSError:
                # A concurrent publisher committed this version number
                # first; drop our stage and re-allocate.  LATEST stays
                # last-writer-wins — both blobs survive intact.
                shutil.rmtree(stage, ignore_errors=True)
                continue
            self._fault(fault_hook, "renamed", key, version)
            self._set_latest(key, version)
            self._fault(fault_hook, "latest", key, version)
            self._clear_intent(key)
            return PublishedModel(
                key=key, version=version, path=final, manifest=manifest
            )
        raise ModelIntegrityError(
            f"publish for key {key[:12]}… lost the version-allocation race "
            "16 times; giving up"
        )

    # -- recovery ----------------------------------------------------------------
    def _blob_intact(self, key: str, version: str) -> bool:
        """Whether a version directory is complete and checksum-clean."""
        try:
            manifest = self._read_manifest(key, version)
            with open(os.path.join(self._version_dir(key, version), STATE_NAME)) as fh:
                blob = fh.read()
        except (OSError, ValueError):
            return False
        return state_checksum(blob) == manifest.get("state_checksum")

    def _disk_keys(self) -> list[str]:
        try:
            names = sorted(os.listdir(self.root))
        except FileNotFoundError:
            return []
        return [n for n in names if os.path.isdir(os.path.join(self.root, n))]

    def recover(self, key: str | None = None) -> dict[str, list[str]]:
        """Heal the registry after a trainer died mid-publish.

        For every key (or just *key*): a journaled intent whose version
        directory committed intact **rolls forward** — ``LATEST`` flips
        to it if it is newer than the current pointer (never backwards)
        — while an intent whose version never committed is rolled back;
        either way the journal clears and orphaned stage directories are
        removed.  Committed versions that fail their checksum are
        quarantined (with ``LATEST`` retargeted) so :meth:`verify` comes
        back clean.  Idempotent; safe to call at every loop iteration.
        Returns the actions taken, for tests and operator logs.
        """
        actions: dict[str, list[str]] = {
            "rolled_forward": [],
            "cleared_intents": [],
            "removed_stages": [],
            "quarantined": [],
        }
        for k in [key] if key is not None else self._disk_keys():
            key_dir = self._key_dir(k)
            intent = self._read_intent(k)
            if intent is not None:
                version = intent.get("version")
                if (
                    isinstance(version, str)
                    and _parse_version(version) is not None
                    and self._blob_intact(k, version)
                ):
                    current = self.latest(k)
                    cur_n = _parse_version(current) if current else None
                    new_n = _parse_version(version)
                    if cur_n is None or new_n > cur_n:
                        self._set_latest(k, version)
                        actions["rolled_forward"].append(f"{k}:{version}")
                self._clear_intent(k)
                actions["cleared_intents"].append(k)
            # Quarantine corrupt committed versions (at-rest damage the
            # loop must not leave for verify() to keep flagging).
            for version in self.versions(k):
                if not self._blob_intact(k, version):
                    self._quarantine(k, version)
                    actions["quarantined"].append(f"{k}:{version}")
            survivors = self.versions(k)
            if survivors and self.latest(k) is None:
                self._set_latest(k, survivors[-1])
            try:
                names = os.listdir(key_dir)
            except FileNotFoundError:
                continue
            for name in names:
                if name.startswith(STAGE_PREFIX):
                    shutil.rmtree(os.path.join(key_dir, name), ignore_errors=True)
                    actions["removed_stages"].append(f"{k}:{name}")
        return actions

    def verify(self, key: str | None = None) -> list[str]:
        """Audit registry state; returns human-readable issues (empty =
        clean).  The chaos rollover acceptance check: after any number
        of killed trainers and corrupt publishes, ``recover()`` +
        ``load()`` must leave zero issues — no torn versions, no
        dangling journals, no leftover stages, no corrupt blobs."""
        issues: list[str] = []
        for k in [key] if key is not None else self._disk_keys():
            key_dir = self._key_dir(k)
            try:
                names = os.listdir(key_dir)
            except FileNotFoundError:
                continue
            if INTENT_NAME in names:
                issues.append(f"{k}: dangling publish intent")
            for name in names:
                if name.startswith(STAGE_PREFIX):
                    issues.append(f"{k}: leftover stage {name}")
            versions = self.versions(k)
            for version in versions:
                if not self._blob_intact(k, version):
                    issues.append(f"{k}: version {version} fails integrity")
            if versions:
                latest = self.latest(k)
                if latest is None:
                    issues.append(f"{k}: LATEST missing or invalid")
                elif latest not in versions:
                    issues.append(f"{k}: LATEST points at missing {latest}")
        return issues

    def damage_version(self, key: str, version: str) -> str:
        """Chaos hook: garble a committed state blob at rest, leaving
        the manifest checksum stale — integrity checking must catch it.
        Returns the damaged path."""
        path = os.path.join(self._version_dir(key, version), STATE_NAME)
        with open(path, "r+") as fh:
            blob = fh.read()
            fh.seek(0)
            fh.write(blob.replace("0", "1", 1) if "0" in blob else "X" + blob[1:])
        return path

    # -- load ------------------------------------------------------------------
    def _read_manifest(self, key: str, version: str) -> dict[str, Any]:
        with open(os.path.join(self._version_dir(key, version), MANIFEST_NAME)) as fh:
            return json.load(fh)

    def _rebuild(
        self,
        scheme: SchemePlugin,
        compressor_id: str,
        compressor_options: Mapping[str, Any],
        state: dict[str, Any],
    ) -> PredictorPlugin:
        compressor = make_compressor(compressor_id)
        opts = {
            k: v for k, v in dict(compressor_options).items() if k != "pressio:id"
        }
        if opts:
            compressor.set_options(opts)
        predictor = scheme.get_predictor(compressor)
        if state:
            predictor.set_state(state)
        return predictor

    def _quarantine(self, key: str, version: str) -> None:
        src = self._version_dir(key, version)
        n = 0
        while True:
            dst = f"{src}.quarantined-{n}"
            if not os.path.exists(dst):
                break
            n += 1
        try:
            os.rename(src, dst)
        except FileNotFoundError:
            pass  # a concurrent loader already moved it aside

    def load(self, key: str, version: str | None = None) -> LoadedModel:
        """Deserialise a model, verifying blob integrity.

        With ``version=None`` the latest pointer is followed; a corrupt
        blob (checksum mismatch, unreadable state) is quarantined and the
        most recent surviving version is loaded instead, with ``LATEST``
        retargeted so subsequent loads skip the probe.  A pinned
        ``version`` never falls back — the caller asked for that blob
        exactly.
        """
        pinned = version is not None
        attempted: list[str] = []
        while True:
            name = version if pinned else (self.latest(key) or None)
            if name is None:
                candidates = [v for v in self.versions(key) if v not in attempted]
                if not candidates:
                    break
                name = candidates[-1]
            if name in attempted:  # latest pointer already tried
                candidates = [v for v in self.versions(key) if v not in attempted]
                if not candidates:
                    break
                name = candidates[-1]
            attempted.append(name)
            try:
                manifest = self._read_manifest(key, name)
                with open(
                    os.path.join(self._version_dir(key, name), STATE_NAME)
                ) as fh:
                    blob = fh.read()
            except (FileNotFoundError, ValueError) as exc:
                if pinned:
                    raise ModelNotFoundError(
                        f"version {name} of key {key[:12]}… is unreadable: {exc}"
                    ) from exc
                self._quarantine(key, name)
                continue
            if state_checksum(blob) != manifest.get("state_checksum"):
                if pinned:
                    raise ModelIntegrityError(
                        f"blob checksum mismatch for {key[:12]}…/{name}; "
                        "refusing to load corrupt state"
                    )
                # Quarantine and fall back to the prior version.
                self._quarantine(key, name)
                survivors = self.versions(key)
                if survivors:
                    self._set_latest(key, survivors[-1])
                continue
            state = decode_state(blob)
            scheme = get_scheme(manifest["scheme"], **manifest.get("scheme_params", {}))
            compressor = make_compressor(manifest["compressor"])
            opts = {
                k: v
                for k, v in manifest.get("compressor_options", {}).items()
                if k != "pressio:id"
            }
            if opts:
                compressor.set_options(opts)
            predictor = scheme.get_predictor(compressor)
            if state:
                predictor.set_state(state)
            return LoadedModel(
                key=key,
                version=name,
                predictor=predictor,
                scheme=scheme,
                compressor=compressor,
                manifest=manifest,
            )
        if pinned:
            raise ModelNotFoundError(
                f"no version {version!r} published under key {key[:12]}…"
            )
        if not attempted:
            raise ModelNotFoundError(f"no published model under key {key[:12]}…")
        raise ModelIntegrityError(
            f"every published version under key {key[:12]}… failed its "
            "integrity check; nothing intact to serve"
        )


def _plain(value: Any) -> Any:
    """JSON-safe rendering of manifest metadata (lossy is fine here —
    exactness matters for *state*, which goes through the codec)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)
