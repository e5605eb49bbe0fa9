"""Tests for the SQLite checkpoint store and task key model."""

import sqlite3
import threading
import time

import numpy as np
import pytest

from repro.bench import CheckpointStore, Task, precompute_keys


def make_task(eb=1e-4, rep=0, data="hurricane/P/0") -> Task:
    return Task(
        data_index=0,
        data_id=data,
        compressor_id="sz3",
        compressor_options={"pressio:abs": eb},
        dataset_config={"entry:data_id": data},
        experiment={"schemes": ["khan2023"]},
        replicate=rep,
    )


class TestTaskKeys:
    def test_key_is_stable(self):
        assert make_task().key() == make_task().key()

    def test_key_varies_with_each_component(self):
        base = make_task().key()
        assert make_task(eb=1e-6).key() != base
        assert make_task(rep=1).key() != base
        assert make_task(data="hurricane/U/0").key() != base

    def test_precompute_rejects_duplicates(self):
        with pytest.raises(ValueError):
            precompute_keys([make_task(), make_task()])

    def test_precompute_returns_mapping(self):
        tasks = [make_task(), make_task(eb=1e-6)]
        mapping = precompute_keys(tasks)
        assert len(mapping) == 2
        assert all(mapping[t.key()] is t for t in tasks)

    def test_component_hashes_exposed(self):
        task = make_task()
        assert len(task.compressor_hash()) == 64
        assert task.compressor_hash() != task.dataset_hash()

    def test_key_tells_option_types_apart(self):
        """Options hash the values as given: nothing casts ``1`` to
        ``1.0`` or ``True``, so the three are three tasks."""
        keys = {make_task(eb=value).key() for value in (1, 1.0, True)}
        assert len(keys) == 3


class TestCheckpointStore:
    def test_put_get_roundtrip(self):
        store = CheckpointStore(":memory:")
        store.put("k1", {"cr": 3.5, "field": "P"})
        assert store.get("k1") == {"cr": 3.5, "field": "P"}
        assert store.get("missing") is None

    def test_has_and_pending(self):
        store = CheckpointStore(":memory:")
        store.put("a", {})
        assert store.get("a") is not None and store.get("b") is None
        assert store.pending(["a", "b", "c"]) == ["b", "c"]

    def test_replace_semantics(self):
        store = CheckpointStore(":memory:")
        store.put("a", {"v": 1})
        store.put("a", {"v": 2})
        assert store.get("a") == {"v": 2}
        assert store.count() == 1

    def test_numpy_payloads_serialised(self):
        store = CheckpointStore(":memory:")
        store.put("a", {"scalar": np.float64(2.5), "arr": np.arange(3), "nan": float("nan")})
        out = store.get("a")
        assert out["scalar"] == 2.5
        assert out["arr"] == [0, 1, 2]
        assert out["nan"] is None

    def test_nan_uniform_across_spellings(self):
        """numpy-scalar NaN and Python NaN must round-trip identically
        (both null), including NaN nested inside arrays."""
        store = CheckpointStore(":memory:")
        store.put(
            "a",
            {
                "np_nan": np.float64("nan"),
                "np32_nan": np.float32("nan"),
                "py_nan": float("nan"),
                "arr_with_nan": np.array([1.0, float("nan"), 3.0]),
                "nested": [np.float32("nan"), {"x": np.float64("nan")}],
            },
        )
        out = store.get("a")
        assert out["np_nan"] is None
        assert out["np32_nan"] is None
        assert out["py_nan"] is None
        assert out["arr_with_nan"] == [1.0, None, 3.0]
        assert out["nested"] == [None, {"x": None}]

    def test_query_by_hashes(self):
        store = CheckpointStore(":memory:")
        store.put("a", {"v": 1}, compressor_hash="c1", dataset_hash="d1")
        store.put("b", {"v": 2}, compressor_hash="c1", dataset_hash="d2")
        store.put("c", {"v": 3}, compressor_hash="c2", dataset_hash="d1")
        assert len(store.query(compressor_hash="c1")) == 2
        assert store.query(compressor_hash="c2", dataset_hash="d1")[0]["v"] == 3
        assert len(store.query()) == 3

    def test_persistence_across_handles(self, tmp_path):
        path = str(tmp_path / "ck.db")
        with CheckpointStore(path) as store:
            store.put("a", {"v": 1})
        with CheckpointStore(path) as store:
            assert store.get("a") == {"v": 1}

    def test_hash_version_guard(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck.db")
        CheckpointStore(path).close()
        import repro.bench.checkpoint as ck

        monkeypatch.setattr(ck, "HASH_VERSION", 999)
        with pytest.raises(RuntimeError, match="hash version"):
            CheckpointStore(path)


class TestBufferedFlush:
    def test_batches_commits(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "b.db"), flush_every=8)
        base = store.commit_count
        for i in range(20):
            store.put(f"k{i}", {"v": i})
        assert store.commit_count - base == 2  # two full batches, tail buffered
        store.flush()
        assert store.commit_count - base == 3

    def test_buffered_results_visible_to_reads(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "b.db"), flush_every=100)
        store.put("a", {"v": 1})
        assert store.get("a") == {"v": 1}
        assert store.pending(["a", "b"]) == ["b"]
        store.put("a", {"v": 2})  # replace while buffered
        assert store.get("a") == {"v": 2}
        assert store.count() == 1  # count flushes first, still one row

    def test_count_trips_flush_every(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "c.db"), flush_every=2)
        base = store.commit_count
        store.put("a", {"v": 1})
        assert store.commit_count == base  # below the threshold
        store.put("b", {"v": 2})
        assert store.commit_count == base + 1  # count tripped
        store.close()

    @pytest.mark.parametrize("flush_every", [0, -2])
    def test_nonpositive_flush_every_commits_each_put(self, tmp_path, flush_every):
        store = CheckpointStore(str(tmp_path / "n.db"), flush_every=flush_every)
        assert store.flush_every == 1
        base = store.commit_count
        for i in range(3):
            store.put(f"k{i}", {"v": i})
            assert store.commit_count == base + i + 1
        store.close()

    def test_unflushed_results_reach_no_other_handle(self, tmp_path):
        """Nothing commits behind the writer's back: a buffered row stays
        out of the file until a put fills the batch or flush/close runs."""
        path = str(tmp_path / "u.db")
        writer = CheckpointStore(path, flush_every=100)
        writer.put("k", {"v": 1})
        time.sleep(0.05)
        with CheckpointStore(path) as reader:
            assert reader.count() == 0 and reader.get("k") is None
            writer.flush()
            assert reader.count() == 1 and reader.get("k") == {"v": 1}
        writer.close()

    def test_put_many_single_commit(self, tmp_path):
        """A batch of puts commits once: the flush_every-th put flushes."""
        store = CheckpointStore(str(tmp_path / "m.db"), flush_every=50)
        base = store.commit_count
        for i in range(50):
            store.put(f"k{i}", {"v": i}, replicate=i)
        assert store.commit_count - base == 1
        assert store.count() == 50
        assert store.get("k7") == {"v": 7}

    def test_pending_batched_query_matches_per_key(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "p.db"), flush_every=1000)
        keys = [f"key-{i:04d}" for i in range(1200)]  # spans >1 IN-chunk
        for k in keys[::2]:
            store.put(k, {})
        store.flush()
        missing = store.pending(keys)
        assert missing == keys[1::2]

    def test_flush_on_close_and_on_exception(self, tmp_path):
        path = str(tmp_path / "f.db")
        with pytest.raises(RuntimeError):
            with CheckpointStore(path, flush_every=100) as store:
                store.put("a", {"v": 1})
                raise RuntimeError("campaign interrupted")
        assert CheckpointStore(path).get("a") == {"v": 1}

    def test_crash_before_flush_is_all_or_nothing(self, tmp_path):
        """A crash loses only the unflushed tail: every committed batch
        is fully present, the in-flight batch fully absent, and the
        restarted store reports exactly the lost keys as pending."""
        path = str(tmp_path / "crash.db")
        store = CheckpointStore(path, flush_every=10)
        keys = [f"k{i:02d}" for i in range(25)]
        for i, k in enumerate(keys):
            store.put(k, {"v": i})
        # Simulate the process dying: the connection goes away without
        # flush() or close() ever running.
        store._db.close()
        restarted = CheckpointStore(path)
        assert restarted.count() == 20
        assert restarted.pending(keys) == keys[20:]
        for i, k in enumerate(keys[:20]):
            assert restarted.get(k) == {"v": i}  # no partial rows

    def test_wal_mode_for_file_stores(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "w.db"))
        mode = store._db.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"


class TestOneThread:
    """A handle belongs to the thread that opened it: a flush or read
    from another thread fails loudly instead of sharing the connection."""

    @staticmethod
    def _from_another_thread(fn):
        caught: list[BaseException] = []

        def call() -> None:
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - inspected below
                caught.append(exc)

        worker = threading.Thread(target=call)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return caught

    @pytest.mark.parametrize("op", ["flush", "get", "count", "scan", "pending"])
    def test_second_thread_raises_programming_error(self, tmp_path, op):
        path = str(tmp_path / "t.db")
        store = CheckpointStore(path, flush_every=2)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})  # the batch commits
        store.put("c", {"v": 3})  # buffered
        call = {
            "flush": store.flush,
            "get": lambda: store.get("a"),
            "count": store.count,
            "scan": store.scan,
            "pending": lambda: store.pending(["a", "d"]),
        }[op]
        caught = self._from_another_thread(call)
        assert len(caught) == 1 and isinstance(caught[0], sqlite3.ProgrammingError)
        assert store.get("a") == {"v": 1}
        store.close()  # the owner still commits what it buffered
        with CheckpointStore(path) as reader:
            assert reader.count() == 3 and reader.get("c") == {"v": 3}

    def test_store_starts_no_thread(self, tmp_path):
        before = set(threading.enumerate())
        store = CheckpointStore(str(tmp_path / "n.db"), flush_every=3)
        for i in range(7):
            store.put(f"k{i}", {"v": i})
        assert set(threading.enumerate()) == before
        store.close()
        assert set(threading.enumerate()) == before


class TestIntegrity:
    """Checksum verification and at-rest corruption quarantine."""

    def test_verify_clean_store_returns_nothing(self):
        store = CheckpointStore(":memory:")
        for i in range(5):
            store.put(f"k{i}", {"v": i})
        assert store.verify() == []
        assert store.count() == 5

    def test_verify_quarantines_corrupt_rows_back_to_pending(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "i.db"))
        keys = [f"k{i}" for i in range(6)]
        for i, k in enumerate(keys):
            store.put(k, {"v": i})
        assert store.corrupt_rows(["k1", "k4"]) == 2
        quarantined = store.verify()
        assert sorted(quarantined) == ["k1", "k4"]
        # Quarantined rows are gone: pending() reports them for recompute,
        # the healthy rows are untouched.
        assert sorted(store.pending(keys)) == ["k1", "k4"]
        assert store.get("k0") == {"v": 0}
        # A second audit finds nothing left to complain about.
        assert store.verify() == []

    def test_verify_backfills_legacy_rows(self, tmp_path):
        import json
        import sqlite3
        import time as time_mod

        from repro.core.hashing import HASH_VERSION

        # A pre-integrity database: no checksum column at all.
        path = str(tmp_path / "legacy.db")
        db = sqlite3.connect(path)
        db.executescript(
            """
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            CREATE TABLE results (
                key TEXT PRIMARY KEY,
                compressor_hash TEXT NOT NULL,
                dataset_hash TEXT NOT NULL,
                experiment_hash TEXT NOT NULL,
                replicate INTEGER NOT NULL,
                payload TEXT NOT NULL,
                created_at REAL NOT NULL
            );
            """
        )
        db.execute(
            "INSERT INTO meta VALUES ('hash_version', ?)", (str(HASH_VERSION),)
        )
        db.execute(
            "INSERT INTO results VALUES ('old', '', '', '', 0, ?, ?)",
            (json.dumps({"v": 1}), time_mod.time()),
        )
        db.execute(
            "INSERT INTO results VALUES ('rotten', '', '', '', 0, ?, ?)",
            ('{"v": not-json', time_mod.time()),
        )
        db.commit()
        db.close()

        store = CheckpointStore(path)  # migration adds the column
        assert store.verify() == ["rotten"]  # parses → backfilled; not → gone
        assert store.get("old") == {"v": 1}
        assert store.verify() == []  # backfilled checksum now validates
        # The backfilled row is protected from future corruption.
        store.corrupt_rows(["old"])
        assert store.verify() == ["old"]


class TestFailureLedger:
    def test_record_and_read_failures(self):
        store = CheckpointStore(":memory:")
        store.record_failure("k1", "boom", status=1, attempts=3)
        store.record_failure("k2", "unsupported", status=5, attempts=1)
        ledger = store.failures()
        assert {e["key"] for e in ledger} == {"k1", "k2"}
        by_key = {e["key"]: e for e in ledger}
        assert by_key["k1"]["attempts"] == 3
        assert by_key["k2"]["status"] == 5
        assert store.failed_keys() == {"k1", "k2"}

    def test_poison_keys_only_permanent(self):
        from repro.core import Status

        store = CheckpointStore(":memory:")
        store.record_failure("transient", "io error", status=int(Status.GENERIC_ERROR))
        store.record_failure("poison", "bad option", status=int(Status.INVALID_OPTION))
        store.record_failure("poison2", "unsupported", status=int(Status.UNSUPPORTED))
        assert store.poison_keys() == {"poison", "poison2"}

    def test_record_replaces_and_clear_removes(self):
        store = CheckpointStore(":memory:")
        store.record_failure("k", "first", status=1, attempts=1)
        store.record_failure("k", "second", status=1, attempts=2)
        assert len(store.failures()) == 1
        assert store.failures()[0]["error"] == "second"
        store.clear_failures(["k"])
        assert store.failures() == []
        store.clear_failures([])  # no-op on empty input

    def test_ledger_persists_across_handles(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        with CheckpointStore(path) as store:
            store.record_failure("k", "boom", status=8, attempts=2)
        assert CheckpointStore(path).failed_keys() == {"k"}
