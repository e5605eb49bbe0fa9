"""Task keys: pinned values, hashed-once counts, copies, engine parity.

A checkpoint key that moves orphans the row it named, so the values are
pinned as literals (``golden/task_keys_v1.json``, written before the
task layer stopped re-encoding shared parts) and the number of structure
encodings a campaign costs is pinned exactly: one per distinct part.
CI runs this file under two ``PYTHONHASHSEED`` values — set and dict
iteration order is the one input a key must not see.
"""

from __future__ import annotations

import contextlib
import dataclasses
import pickle
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import CheckpointStore, ExperimentRunner, Task, TaskQueue, precompute_keys
from repro.bench.cluster import ClusterSpec
from repro.core import hashing
from repro.core.hashing import HASH_VERSION, HashedOptions, combined_hash, options_hash
from repro.dataset import HurricaneDataset
from repro.predict import evaluator as evaluator_module
from tests import golden_task_keys as golden
from tests.reference_kernels import task_hashes_per_task

#: The pinned campaign's 32 tasks pickled as one chunk at the commit
#: before ISSUE 24 (only the key rode along then).
PARENT_CHUNK_BYTES = 4661


def hashes(task: Task) -> tuple[str, str, str, str]:
    return (task.key(), task.compressor_hash(), task.dataset_hash(), task.experiment_hash())


def by_hand(task: Task) -> Task:
    """*task* rebuilt from plain copies of its mappings: nothing shared,
    nothing sealed."""
    return Task(
        data_index=task.data_index,
        data_id=task.data_id,
        compressor_id=task.compressor_id,
        compressor_options=dict(task.compressor_options),
        dataset_config=dict(task.dataset_config),
        experiment=dict(task.experiment),
        replicate=task.replicate,
    )


@pytest.fixture(scope="module")
def built() -> list[Task]:
    return golden.golden_runner().build_tasks()


@pytest.fixture
def encodings(monkeypatch):
    """Counts structure walks while the test runs.

    ``parts`` — :meth:`HashedOptions.of` calls, the task layer's one
    encoder entry point; ``evaluator`` — the metric evaluator's own
    dependency hashes; ``total`` — every ``canonical_bytes`` walk,
    whoever asked.
    """
    counts = {"parts": 0, "evaluator": 0, "total": 0}
    real_of = HashedOptions.of.__func__
    real_canonical = hashing.canonical_bytes
    real_options_hash = evaluator_module.options_hash

    def counting_of(cls, options):
        counts["parts"] += 1
        return real_of(cls, options)

    def counting_canonical(options):
        counts["total"] += 1
        return real_canonical(options)

    def counting_options_hash(options):
        counts["evaluator"] += 1
        return real_options_hash(options)

    monkeypatch.setattr(HashedOptions, "of", classmethod(counting_of))
    monkeypatch.setattr(hashing, "canonical_bytes", counting_canonical)
    monkeypatch.setattr(evaluator_module, "options_hash", counting_options_hash)
    return counts


class TestGolden:
    def test_hash_version_is_one(self):
        assert HASH_VERSION == golden.load()["hash_version"] == 1

    def test_build_tasks_reproduces_the_file(self, built):
        pinned = golden.load()["tasks"]
        assert len(pinned) == 32
        assert golden.task_records(built) == pinned

    def test_hand_built_task_equals_the_built_one(self, built):
        for task, pinned in zip(built, golden.load()["tasks"]):
            assert hashes(by_hand(task)) == hashes(task) == (
                pinned["key"],
                pinned["compressor_hash"],
                pinned["dataset_hash"],
                pinned["experiment_hash"],
            )

    def test_per_task_oracle_agrees(self, built):
        assert [hashes(t) for t in built] == [task_hashes_per_task(t) for t in built]

    def test_every_spelling_of_one_structure(self):
        pinned = golden.load()["options_hash"]
        got = {name: options_hash(s) for name, s in golden.spellings().items()}
        assert got == pinned
        same = ("plain", "shuffled", "numpy_scalars", "tuples", "opaque_dropped")
        assert len({got[name] for name in same}) == 1
        assert got["opaque_nested"] == got["without_nested"] != got["plain"]

    def test_registry_and_featcache_keys(self):
        pinned = golden.load()
        assert golden.golden_registry_key() == pinned["registry_key"]
        assert golden.golden_featcache_key() == pinned["featcache_key"]


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
)
#: Stable scalars or an opaque handle, nested in lists and mappings: an
#: unstable entry can sit at every level.
values = st.recursive(
    scalars | st.builds(object),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5) | st.integers(0, 3), inner, max_size=3),
    max_leaves=12,
)
structures = st.dictionaries(st.text(max_size=6) | st.integers(0, 3), values, max_size=4)


class TestHashedParts:
    @given(structures, structures, structures, st.integers(0, 9))
    @settings(max_examples=150, deadline=None)
    def test_combined_hash_over_hashed_parts_equals_raw(self, a, b, c, replicate):
        raw = combined_hash(a, b, c, str(replicate))
        parts = [HashedOptions.of(s) for s in (a, b, c)]
        assert combined_hash(*parts, str(replicate)) == raw
        assert combined_hash(parts[0], b, parts[2], str(replicate)) == raw
        assert [p.digest for p in parts] == [options_hash(s) for s in (a, b, c)]
        assert [p.canonical for p in parts] == [hashing.canonical_bytes(s) for s in (a, b, c)]

    def test_a_hashed_part_is_a_snapshot(self):
        source = {"pressio:abs": 1e-4}
        part = HashedOptions.of(source)
        source["pressio:abs"] = 1e-2
        assert part.digest == options_hash({"pressio:abs": 1e-4})
        with pytest.raises(dataclasses.FrozenInstanceError):
            part.digest = "moved"


class TestCopies:
    def test_replace_of_each_field_gives_a_new_key(self, built):
        task = built[0]
        variants = [
            dataclasses.replace(task, replicate=5),
            dataclasses.replace(
                task, compressor_options={**task.compressor_options, "pressio:abs": 0.5}
            ),
            dataclasses.replace(
                task, dataset_config={**task.dataset_config, "entry:data_id": "other"}
            ),
            dataclasses.replace(task, experiment={**task.experiment, "note": "rerun"}),
        ]
        keys = {v.key() for v in variants}
        assert len(keys) == 4 and task.key() not in keys
        # Only the column of the part that changed moves.
        moved = [
            tuple(a != b for a, b in zip(hashes(v)[1:], hashes(task)[1:])) for v in variants
        ]
        assert moved == [
            (False, False, False),
            (True, False, False),
            (False, True, False),
            (False, False, True),
        ]
        for variant in variants:
            assert hashes(variant) == task_hashes_per_task(variant)
        precompute_keys([task, *variants])  # five distinct rows

    def test_unchanged_replace_keeps_the_key(self, built):
        assert dataclasses.replace(built[3]).key() == built[3].key()

    def test_hashes_are_not_constructor_arguments(self, built):
        task = built[0]
        fields = {f.name: getattr(task, f.name) for f in dataclasses.fields(task) if f.init}
        with pytest.raises(TypeError):
            Task(**fields, _hashes=("k", "c", "d", "e"))
        with pytest.raises(TypeError):
            Task(**fields, _key="k")

    def test_a_task_is_hashed_once(self, built):
        """The mutation contract: options edited after hashing are not
        re-read; a new task (``replace``) is."""
        task = by_hand(built[0])
        key = task.key()
        task.compressor_options["pressio:abs"] = 0.25
        task.replicate = 7
        assert hashes(task) == hashes(built[0]) and task.key() == key
        assert dataclasses.replace(task).key() not in {key, built[1].key()}

    def test_pickle_keeps_the_hashes_and_not_the_encodings(self, built, encodings):
        blob = pickle.dumps(built, protocol=pickle.HIGHEST_PROTOCOL)
        clones = pickle.loads(blob)
        assert [hashes(c) for c in clones] == [hashes(t) for t in built]
        assert encodings == {"parts": 0, "evaluator": 0, "total": 0}
        assert b"pressio-hash-v" not in blob
        assert len(blob) <= 1.15 * PARENT_CHUNK_BYTES


class TestExactCounts:
    """E entries × C configurations × R replicates cost E + C + 1 walks."""

    E, C, R = 4, 4, 2

    def test_build_tasks_encodes_each_distinct_part_once(self, encodings):
        tasks = golden.golden_runner().build_tasks()
        assert len(tasks) == self.E * self.C * self.R
        assert encodings == {"parts": self.E + self.C + 1, "evaluator": 0,
                             "total": self.E + self.C + 1}

    def test_collect_and_resume_add_nothing_from_bench(self, encodings):
        runner = golden.golden_runner()
        cold = runner.collect()
        assert cold.stats.completed == self.E * self.C * self.R
        parts = self.E + self.C + 1
        # One build_tasks; the evaluator's dependency hashes are its own.
        assert encodings["evaluator"] > 0
        assert encodings["parts"] == parts
        assert encodings["total"] == parts + encodings["evaluator"]
        evaluator_calls = encodings["evaluator"]
        resumed = runner.collect()
        assert resumed.stats.completed == 0
        assert len(resumed.observations) == len(cold.observations)
        assert encodings == {"parts": 2 * parts, "evaluator": evaluator_calls,
                             "total": 2 * parts + evaluator_calls}


def _hash_columns(path: str) -> list[tuple]:
    """Every stored row's key and hash columns, read from the file."""
    with contextlib.closing(sqlite3.connect(path)) as db:
        return sorted(db.execute(
            "SELECT key, compressor_hash, dataset_hash, experiment_hash, replicate"
            " FROM results"
        ))


def _campaign(store: CheckpointStore, queue: TaskQueue) -> ExperimentRunner:
    dataset = HurricaneDataset(shape=(8, 8, 8), timesteps=[0], fields=["P", "CLOUD"])
    return ExperimentRunner(
        dataset,
        compressors=("sz3", "zfp"),
        bounds=(1e-6, 1e-4),
        schemes=("khan2023",),
        replicates=2,
        store=store,
        queue=queue,
    )


class TestAcrossEngines:
    def test_hash_columns_equal_on_every_engine(self, tmp_path):
        """The three hash columns exist for partial restore; every engine
        (the cluster one through its acks to rank 0) must store the same
        digests — ``options_hash`` of the part — under the same keys."""
        queues = {
            "serial": TaskQueue(1, "serial"),
            "process": TaskQueue(2, "process"),
            "cluster": TaskQueue(2, "cluster", cluster=ClusterSpec()),
        }
        columns = {}
        for engine, queue in queues.items():
            with CheckpointStore(str(tmp_path / f"{engine}.db")) as store:
                runner = _campaign(store, queue)
                result = runner.collect()
                assert result.stats.engine == engine and not result.failures
                columns[engine] = _hash_columns(str(tmp_path / f"{engine}.db"))
                tasks = runner.build_tasks()
                sz3_loose = [
                    t for t in tasks
                    if t.compressor_id == "sz3" and t.compressor_options["pressio:abs"] == 1e-4
                ]
                payloads = store.query(
                    compressor_hash=sz3_loose[0].compressor_hash(),
                    experiment_hash=sz3_loose[0].experiment_hash(),
                )
                assert sorted((p["data_id"], p["replicate"]) for p in payloads) == sorted(
                    (t.data_id, t.replicate) for t in sz3_loose
                )
                assert {(p["compressor"], p["bound"]) for p in payloads} == {("sz3", 1e-4)}
        assert columns["serial"] == columns["process"] == columns["cluster"]
        expected = sorted(
            (*task_hashes_per_task(by_hand(t)), t.replicate) for t in tasks
        )
        assert columns["serial"] == expected
