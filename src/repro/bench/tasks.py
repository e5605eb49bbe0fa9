"""The bench task model.

A task is one (dataset entry × compressor configuration × replicate)
evaluation.  "Individual results are uniquely identified by their
compressor configuration, dataset configuration, experimental metadata,
and replicate ID" (§4.3) — :meth:`Task.key` realises exactly that with
the stable option hashing, and "we compute these hashes once upfront
before execution begins": once per *distinct part*.  A campaign is a
product of a few parts (its compressor configurations, its dataset
entries, one experiment mapping), so
:meth:`~repro.bench.runner.ExperimentRunner.build_tasks` encodes each
part once as a :class:`~repro.core.hashing.HashedOptions` and
:meth:`Task.seal` derives the key with one SHA-256 over those bytes and
the replicate.  A task built by hand from plain mappings seals itself
on first use, to the same values.

What a sealed task keeps — and what crosses a process or rank boundary
with it — is four hex strings: the key and the three column digests.
The canonical bytes stay with whoever built the parts.

Mutation contract: a task is hashed once.  Options edited after the
first ``key()`` / ``*_hash()`` call are not re-read; build a new task
instead — ``dataclasses.replace`` starts from an unsealed one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.hashing import HashedOptions, hash_parts


def compressor_part(compressor_id: str, options: Mapping[str, Any]) -> dict[str, Any]:
    """The structure a task's compressor hash covers: options plus plugin id."""
    return {**options, "pressio:id": compressor_id}


@dataclass
class Task:
    """One unit of bench work."""

    #: Index of the entry within the dataset.
    data_index: int
    #: Locality key — which data this task reads (scheduler input).
    data_id: str
    #: Compressor plugin id ("sz3").
    compressor_id: str
    #: Full compressor option structure for this run.
    compressor_options: Mapping[str, Any]
    #: Stable description of the dataset entry.
    dataset_config: Mapping[str, Any]
    #: Experimental metadata (scheme set, fold protocol, versions...).
    experiment: Mapping[str, Any] = field(default_factory=dict)
    #: Replicate id for nondeterministic metrics.
    replicate: int = 0

    #: (key, compressor hash, dataset hash, experiment hash) once sealed.
    #: Not a constructor argument, so a ``replace()``d task starts
    #: unsealed; plain strings, so it pickles without the encodings.
    _hashes: tuple[str, str, str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def seal(
        self, compressor: HashedOptions, dataset: HashedOptions, experiment: HashedOptions,
        prefix: hashlib._Hash | None = None,
    ) -> None:
        """Fix this task's hashes from its three already-hashed parts;
        *prefix*, if given, is ``hash_parts`` of the three (replicates
        share it)."""
        prefix = prefix or hash_parts(compressor, dataset, experiment)
        self._hashes = (
            hash_parts(str(self.replicate), prefix=prefix).hexdigest(),
            compressor.digest,
            dataset.digest,
            experiment.digest,
        )

    def _sealed(self) -> tuple[str, str, str, str]:
        if self._hashes is None:
            self.seal(
                HashedOptions.of(compressor_part(self.compressor_id, self.compressor_options)),
                HashedOptions.of(self.dataset_config),
                HashedOptions.of(self.experiment),
            )
        return self._hashes

    def key(self) -> str:
        """The checkpoint key (computed once, then cached)."""
        return self._sealed()[0]

    def compressor_hash(self) -> str:
        return self._sealed()[1]

    def dataset_hash(self) -> str:
        return self._sealed()[2]

    def experiment_hash(self) -> str:
        return self._sealed()[3]


def precompute_keys(tasks: list[Task]) -> dict[str, Task]:
    """Hash every task up front; returns key → task (and checks clashes).

    Duplicate keys mean two tasks would silently share a checkpoint row
    — always a configuration bug, so it raises.
    """
    out: dict[str, Task] = {}
    for task in tasks:
        key = task.key()
        if key in out:
            raise ValueError(
                f"duplicate task key {key[:12]}… for data {task.data_id!r}; "
                "tasks must differ in config or replicate"
            )
        out[key] = task
    return out
