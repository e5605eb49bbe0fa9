"""Golden fixture definitions for the stable hashes (ROADMAP direction 5b).

Every checkpoint row, registry directory and featurization-cache entry
is addressed by a digest of an option structure, so a drift of the
canonical encoding orphans all three at once — silently, because a
moved key just looks like work that was never done.  This module pins
the *values*:

* a seeded campaign small enough to list in full (2 fields × 2
  timesteps × sz3/zfp × both default bounds × 2 replicates = 32 tasks):
  every task's checkpoint key and its three column digests;
* ``options_hash`` of one structure, which every spelling in
  :func:`spellings` must reproduce: shuffled dict orders, NumPy scalars
  beside Python ones, tuples beside lists, an opaque entry dropped (and
  one nested inside a container, which drops the container's entry);
* one :func:`~repro.serve.registry.registry_key` and one featurization
  cache key.

``tests/golden/task_keys_v1.json`` was written at the commit *before*
the task layer stopped re-encoding shared parts and must not be
regenerated to paper over a diff: a diff in a task key, a column digest
or ``options_hash`` means ``HASH_VERSION`` should have been bumped.  The
one value regenerated on purpose is ``featcache_key``: its fingerprint
half hashes the query wire's encoding of the field, which moved from a
base64 body to a JSON header plus raw bytes (its scope half, the model
signature, did not move).  The rows it addresses live in a serving
cache, never in a checkpoint.  The entry point::

    PYTHONPATH=src python -m tests.golden_task_keys
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace
from typing import Any

import numpy as np

from repro.bench import ExperimentRunner
from repro.core.compressor import compressor_registry
from repro.core.hashing import HASH_VERSION, options_hash
from repro.dataset import HurricaneDataset
from repro.predict.scheme import get_scheme
from repro.serve import encode_array
from repro.serve.featcache import FeaturizationCache
from repro.serve.registry import registry_key

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "task_keys_v1.json")


def golden_runner() -> ExperimentRunner:
    """The pinned campaign: 4 entries × 4 configurations × 2 replicates."""
    dataset = HurricaneDataset(
        shape=(8, 8, 8), timesteps=[0, 24], fields=["P", "CLOUD"], seed=20230912
    )
    return ExperimentRunner(
        dataset, compressors=("sz3", "zfp"), bounds=(1e-6, 1e-4), replicates=2
    )


def task_records(tasks) -> list[dict[str, Any]]:
    """What the golden file lists per task, in ``build_tasks`` order."""
    return [
        {
            "data_id": task.data_id,
            "compressor": task.compressor_id,
            "bound": task.compressor_options["pressio:abs"],
            "replicate": task.replicate,
            "key": task.key(),
            "compressor_hash": task.compressor_hash(),
            "dataset_hash": task.dataset_hash(),
            "experiment_hash": task.experiment_hash(),
        }
        for task in tasks
    ]


def spellings() -> dict[str, dict[str, Any]]:
    """One option structure, spelt every way that must not move its hash."""
    plain = {
        "pressio:abs": 1e-4,
        "pressio:abs_is_relative": True,
        "sz3:block_size": 3,
        "sz3:predictor": "lorenzo",
        "dims": [8, 8, 8],
        "nested": {"b": [1, 2.5, "x", None], "a": {"z": False, "y": b"\x00\x01"}},
    }
    shuffled = {key: plain[key] for key in reversed(list(plain))}
    shuffled["nested"] = {"a": {"y": b"\x00\x01", "z": False}, "b": [1, 2.5, "x", None]}
    numpy_scalars = {
        **plain,
        "pressio:abs": np.float64(1e-4),
        "pressio:abs_is_relative": np.bool_(True),
        "sz3:block_size": np.int64(3),
        "nested": {"b": [np.int32(1), np.float64(2.5), "x", None], "a": plain["nested"]["a"]},
    }
    tuples = {**plain, "dims": (8, 8, 8), "nested": {**plain["nested"], "b": (1, 2.5, "x", None)}}
    opaque = {**plain, "stream": object(), "callback": len}
    # An opaque value anywhere inside a container makes the container
    # opaque: the whole "nested" entry drops out, not just the handle.
    opaque_nested = {
        **plain,
        "nested": {**plain["nested"], "a": {**plain["nested"]["a"], "handle": object()}},
    }
    return {
        "plain": plain,
        "shuffled": shuffled,
        "numpy_scalars": numpy_scalars,
        "tuples": tuples,
        "opaque_dropped": opaque,
        "opaque_nested": opaque_nested,
        "without_nested": {k: v for k, v in plain.items() if k != "nested"},
    }


def golden_registry_key() -> str:
    return registry_key(
        "rahman2023",
        "sz3",
        {"pressio:abs": 1e-4, "pressio:abs_is_relative": True},
        {"n_estimators": 30},
    )


def golden_featcache_key() -> str:
    """rahman2023 / sz3 on a seeded field, through the cache's own path."""
    compressor = compressor_registry.create("sz3")
    compressor.set_options({"pressio:abs": 1e-3, "pressio:abs_is_relative": True})
    model = SimpleNamespace(
        key="golden", version="v1", scheme=get_scheme("rahman2023"), compressor=compressor
    )
    field = np.random.default_rng(11).standard_normal((8, 8, 8)).astype(np.float32)
    key = FeaturizationCache().key_for(model, encode_array(field))
    assert key is not None
    return key


def current() -> dict[str, Any]:
    """Everything the golden file pins, recomputed by the code under test."""
    return {
        "hash_version": HASH_VERSION,
        "tasks": task_records(golden_runner().build_tasks()),
        "options_hash": {name: options_hash(s) for name, s in spellings().items()},
        "registry_key": golden_registry_key(),
        "featcache_key": golden_featcache_key(),
    }


def load() -> dict[str, Any]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def regen() -> str:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(current(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return GOLDEN_PATH


if __name__ == "__main__":
    print(regen())
