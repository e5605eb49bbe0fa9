"""Featurization-cache correctness: keying, bit-identity, crash safety.

The cache's contract is stronger than "usually right": a hit must be
bit-identical to what the evaluator would produce (golden tests), keys
must move exactly when a feature-relevant option moves (sensitivity in
both directions, derived from the invalidation vocabulary), the shared
table's byte budget must hold exactly however many processes write it,
and a worker killed inside a store must leave the shared tier serving
misses, not torn rows (a chaos test between the insert and the commit).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import sqlite3
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.faults import ChaosPlan
from repro.core.compressor import compressor_registry
from repro.core.data import as_data
from repro.predict.scheme import get_scheme
from repro.serve import EncodedArray, decode_array, decode_state, encode_array, encode_state
from repro.serve import featcache
from repro.serve.featcache import FeaturizationCache, content_fingerprint


def make_model(scheme_id, *, bound=1e-3, key=None, **scheme_opts):
    """A LoadedModel stand-in: the cache only touches scheme/compressor."""
    compressor = compressor_registry.create("sz3")
    compressor.set_options({"pressio:abs": bound, "pressio:abs_is_relative": True})
    return SimpleNamespace(
        key=key or f"{scheme_id}-{bound}",
        version="v1",
        scheme=get_scheme(scheme_id, **scheme_opts),
        compressor=compressor,
    )


@pytest.fixture()
def field():
    rng = np.random.default_rng(11)
    return rng.standard_normal((12, 12, 6)).astype(np.float32)


def featurize(model, arr):
    evaluator = model.scheme.req_metrics_opts(model.compressor)
    return dict(evaluator.evaluate(as_data(arr)))


def db_files(shared_dir):
    """What the shared tier may leave in its directory: the database and
    its WAL side files."""
    db = featcache.DB_NAME
    return set(os.listdir(shared_dir)) <= {db, db + "-wal", db + "-shm"}


def _store_on_command(shared, budget, conn):
    """A writer process: store each batch of keys *conn* sends, answer
    with this writer's eviction count, stop at None."""
    cache = FeaturizationCache(shared_dir=shared, shared_capacity_bytes=budget)
    for keys in iter(conn.recv, None):
        for key in keys:
            cache.put(key, {"key": key, "pad": "x" * 100}, cost_s=0.0, source_nbytes=1)
        conn.send(cache.counters["l2_evictions"])
    cache.close()


class TestKeying:
    def test_error_agnostic_scheme_is_bound_insensitive(self, field):
        """rahman2023's metrics are all predictors:error_agnostic, so a
        what-if sweep over bounds must hit one cache entry."""
        cache = FeaturizationCache()
        payload = encode_array(field)
        tight = make_model("rahman2023", bound=1e-6, key="a")
        loose = make_model("rahman2023", bound=1e-2, key="b")
        assert cache.key_for(tight, payload) == cache.key_for(loose, payload)

    def test_error_dependent_scheme_is_bound_sensitive(self, field):
        """jin2022's stage probe is predictors:error_dependent: its rows
        genuinely differ across bounds, so the keys must too."""
        cache = FeaturizationCache()
        payload = encode_array(field)
        tight = make_model("jin2022", bound=1e-6, key="a")
        loose = make_model("jin2022", bound=1e-2, key="b")
        assert cache.key_for(tight, payload) != cache.key_for(loose, payload)

    def test_nondeterministic_metric_bypasses(self, field):
        """underwood2023 declares its SVD sketch nondeterministic — a
        cached row could not be bit-identical, so the cache refuses."""
        cache = FeaturizationCache()
        model = make_model("underwood2023")
        assert cache.model_signature(model) is None
        assert cache.key_for(model, encode_array(field)) is None

    def test_content_hash_separates_fields_and_layouts(self, field):
        cache = FeaturizationCache()
        model = make_model("rahman2023")
        other = field + 1.0
        assert cache.key_for(model, encode_array(field)) != cache.key_for(
            model, encode_array(other)
        )
        # Same bytes, different shape: distinct features, distinct key.
        reshaped = field.reshape(6, 12, 12)
        assert cache.key_for(model, encode_array(field)) != cache.key_for(
            model, encode_array(reshaped)
        )

    def test_fingerprint_covers_dtype_tags(self, field):
        a = encode_array(field)
        b = encode_array(field.astype(np.float64))
        assert content_fingerprint(a) != content_fingerprint(b)

    def test_fingerprint_tells_a_string_from_what_it_spells(self, field):
        # The header is hashed as canonical JSON: a shape sent as the
        # text of a list must not pass for the list.
        a = encode_array(field)
        spelt = EncodedArray({**a, "shape": repr(a["shape"])}, a.body)
        assert content_fingerprint(a) != content_fingerprint(spelt)

    def test_equal_bytes_in_another_dtype_shape_or_order_fingerprint_apart(self):
        base = np.arange(16, dtype=np.float32).reshape(4, 4)
        variants = {
            "base": encode_array(base),
            "dtype": encode_array(base.view(np.int32)),
            "shape": encode_array(base.reshape(2, 8)),
            # F-order bytes of the transpose are the C-order bytes of base.
            "order": encode_array(np.asfortranarray(base.T)),
        }
        assert {v.body for v in variants.values()} == {variants["base"].body}
        fingerprints = {name: content_fingerprint(v) for name, v in variants.items()}
        assert len(set(fingerprints.values())) == len(variants), fingerprints

    def test_scheme_options_are_key_relevant(self, field):
        cache = FeaturizationCache()
        payload = encode_array(field)
        shallow = make_model("rahman2023", key="a", n_estimators=5)
        deep = make_model("rahman2023", key="b", n_estimators=50)
        assert cache.key_for(shallow, payload) != cache.key_for(deep, payload)


class TestGoldenHits:
    def test_l1_hit_is_bit_identical(self, field):
        cache = FeaturizationCache()
        model = make_model("rahman2023")
        payload = encode_array(field)
        key = cache.key_for(model, payload)
        fresh = featurize(model, decode_array(payload))
        cache.put(key, fresh, cost_s=0.01, source_nbytes=field.nbytes)
        hit = cache.get(key)
        assert hit is not None and hit.tier == "l1"
        assert hit.row == fresh  # exact equality, not approx
        assert cache.counters["l1_hits"] == 1

    def test_l2_hit_is_bit_identical_across_instances(self, field, tmp_path):
        """A row stored by one cache (worker) is a golden hit for a
        second cache over the same ledger directory — the fleet case."""
        shared = str(tmp_path / "store")
        writer = FeaturizationCache(shared_dir=shared)
        reader = FeaturizationCache(shared_dir=shared)
        model = make_model("rahman2023")
        payload = encode_array(field)
        key = writer.key_for(model, payload)
        fresh = featurize(model, decode_array(payload))
        writer.put(key, fresh, cost_s=0.02, source_nbytes=field.nbytes)
        hit = reader.get(key)
        assert hit is not None and hit.tier == "l2"
        assert hit.row == fresh
        assert hit.cost_s == 0.02
        assert hit.source_nbytes == field.nbytes
        # Promoted into the reader's L1: the next hit is local.
        assert reader.get(key).tier == "l1"
        writer.sweep()

    def test_restarted_process_hits_what_its_predecessor_stored(self, field, tmp_path):
        """``--feat-cache-dir`` on a stable directory: one interpreter
        stores and exits, the next one — nothing inherited, no L1 — reads
        the row back bit-identical and can store the key again."""
        shared = str(tmp_path / "store")
        model = make_model("rahman2023")
        fresh = featurize(model, field)
        key = FeaturizationCache().key_for(model, encode_array(field))
        script = (
            "import sys\n"
            "from repro.serve import decode_state, encode_state\n"
            "from repro.serve.featcache import FeaturizationCache\n"
            "cache = FeaturizationCache(shared_dir=sys.argv[1])\n"
            "hit = cache.get(sys.argv[2])\n"
            "cache.put(sys.argv[2], decode_state(sys.stdin.read()), cost_s=0.02, source_nbytes=7)\n"
            "print(hit and encode_state({'tier': hit.tier, 'row': hit.row}))\n"
        )

        def server_lifetime():
            done = subprocess.run(
                [sys.executable, "-c", script, shared, key],
                input=encode_state(fresh), capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            return done.stdout.strip()

        assert server_lifetime() == "None"
        assert decode_state(server_lifetime()) == {"tier": "l2", "row": fresh}

    def test_miss_and_store_counters(self, field):
        cache = FeaturizationCache()
        model = make_model("rahman2023")
        key = cache.key_for(model, encode_array(field))
        assert cache.get(key) is None
        cache.put(key, {"m": 1.0}, cost_s=0.0, source_nbytes=1)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["l1_entries"] == 1


class TestCapacity:
    def test_l1_lru_eviction(self):
        cache = FeaturizationCache(capacity=2)
        for i in range(4):
            cache.put(f"k{i}", {"m": float(i)}, cost_s=0.0, source_nbytes=1)
        assert cache.stats()["l1_entries"] == 2
        assert cache.counters["l1_evictions"] == 2
        assert cache.get("k0") is None
        assert cache.get("k3").row == {"m": 3.0}

    def test_l2_byte_budget_evicts_oldest(self, tmp_path):
        shared = str(tmp_path / "store")
        cache = FeaturizationCache(shared_dir=shared, shared_capacity_bytes=2048)
        big_row = {"m": 0.0, "pad": "x" * 400}
        for i in range(8):
            cache.put(f"k{i}", dict(big_row, m=float(i)), cost_s=0.0, source_nbytes=1)
            assert cache.stats()["l2_bytes"] <= 2048
        stats = cache.stats()
        assert stats["l2_evictions"] > 0
        assert stats["l2_entries"] == 8 - stats["l2_evictions"]
        reader = FeaturizationCache(shared_dir=shared)
        survivors = [i for i in range(8) if reader.get(f"k{i}") is not None]
        assert survivors == list(range(8 - stats["l2_entries"], 8))  # the newest
        assert cache.sweep() == stats["l2_entries"]
        assert reader.stats()["l2_entries"] == 0

    def test_a_store_costs_the_same_however_many_rows_are_held(self, tmp_path, monkeypatch):
        """The cost of a store must not grow with the store: with the
        budget far, the 2nd and the 2000th put run as many statements,
        and none of them aggregates over the table."""
        traced = []
        real_connect = sqlite3.connect

        def connect(*args, **kwargs):
            db = real_connect(*args, **kwargs)
            db.set_trace_callback(traced.append)
            return db

        monkeypatch.setattr(sqlite3, "connect", connect)
        cache = FeaturizationCache(shared_dir=str(tmp_path / "store"))
        per_put = {}
        for i in range(2000):
            traced.clear()
            cache.put(f"k{i}", {"m": float(i)}, cost_s=0.0, source_nbytes=1)
            per_put[i] = list(traced)
        assert len(per_put[1]) == len(per_put[1999])
        assert not any("count(" in s or "total(" in s for s in per_put[1999])
        assert cache.stats()["l2_entries"] == 2000
        cache.close()

    def test_two_writer_processes_keep_the_budget_exactly_oldest_first(self, tmp_path):
        """The running total lives in the writers' own transactions, so
        two processes writing one table never take it past the budget:
        not in turns (where the survivors are exactly the newest keys),
        not when both write at once.  An evicted key reads as a miss."""
        shared = str(tmp_path / "store")
        budget = 4096
        ctx = multiprocessing.get_context("fork")
        pipes, procs = [], []
        for _ in range(2):
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(target=_store_on_command, args=(shared, budget, child_end))
            proc.start()
            pipes.append(parent_end)
            procs.append(proc)
        try:
            order = [f"k{i}" for i in range(120)]
            with FeaturizationCache(shared_dir=shared) as reader:
                for i, key in enumerate(order):
                    pipes[i % 2].send([key])
                    pipes[i % 2].recv()
                    assert reader.stats()["l2_bytes"] <= budget
                survivors = [key for key in order if reader.get(key) is not None]
                assert 0 < len(survivors) < len(order)
                assert survivors == order[len(order) - len(survivors):]
                for w, pipe in enumerate(pipes):
                    pipe.send([f"w{w}-{i}" for i in range(150)])
                evictions = [pipe.recv() for pipe in pipes]
                stats = reader.stats()
            assert all(n > 0 for n in evictions)
            assert budget // 2 < stats["l2_bytes"] <= budget
            with contextlib.closing(sqlite3.connect(os.path.join(shared, featcache.DB_NAME))) as db:
                (used,) = db.execute("SELECT bytes FROM used").fetchone()
            assert used == stats["l2_bytes"]
        finally:
            for pipe in pipes:
                pipe.send(None)
            for proc in procs:
                proc.join(30)
        assert [proc.exitcode for proc in procs] == [0, 0]


class TestCrashSafety:
    def test_writer_killed_mid_store_does_not_poison(self, field, tmp_path):
        """Kill a worker process between the insert and the commit of its
        store.  The survivor sees a clean miss (never a torn row), and
        its first store republishes."""
        shared = str(tmp_path / "store")
        plan = ChaosPlan(
            cache_kill_rate=1.0, seed=3, state_dir=str(tmp_path / "chaos")
        )
        model = make_model("rahman2023")
        payload = encode_array(field)
        fresh = featurize(model, decode_array(payload))

        def victim():
            def hook(key):
                if plan.loop_fault("cache_kill", key):
                    os._exit(1)

            cache = FeaturizationCache(shared_dir=shared, fault_hook=hook)
            key = cache.key_for(model, payload)
            cache.put(key, fresh, cost_s=0.01, source_nbytes=field.nbytes)
            os._exit(0)  # fault did not fire (should not happen)

        proc = multiprocessing.get_context("fork").Process(target=victim)
        proc.start()
        proc.join(30)
        assert proc.exitcode == 1, "victim must die at the fault point"
        assert db_files(shared)  # no temp file: nothing but the database

        survivor = FeaturizationCache(shared_dir=shared)
        key = survivor.key_for(model, payload)
        assert survivor.get(key) is None
        assert survivor.stats()["l2_entries"] == 0
        survivor.put(key, fresh, cost_s=0.01, source_nbytes=field.nbytes)
        reader = FeaturizationCache(shared_dir=shared)  # empty L1: reads L2
        hit = reader.get(key)
        assert hit is not None and hit.tier == "l2"
        assert hit.row == fresh
        assert survivor.counters["l2_write_errors"] == 0
        assert survivor.sweep() == 1

    def test_alien_blob_is_a_miss(self, tmp_path):
        """Blobs the wrapper cannot decode — a row cut short or zeroed, a
        foreign writer's bytes, another codec's JSON, text where bytes
        belong — read as a miss, not an exception, and the next store
        replaces them."""
        shared = str(tmp_path / "store")
        cache = FeaturizationCache(shared_dir=shared)
        cache.put("whole", {"m": 1.0}, cost_s=0.0, source_nbytes=1)
        with contextlib.closing(sqlite3.connect(os.path.join(shared, featcache.DB_NAME))) as db:
            (whole,) = db.execute("SELECT blob FROM rows WHERE key = 'whole'").fetchone()
            aliens = {
                "truncated": whole[: len(whole) // 2],
                "zeroed": whole[:40] + bytes(len(whole) - 40),
                "foreign": b"not json at all",
                "other-codec": b'{"codec_version": 1, "state": []}',
                "empty": b"",
                "text": whole.decode("utf-8"),
            }
            with db:
                db.executemany("INSERT INTO rows VALUES (?, ?)", aliens.items())
        reader = FeaturizationCache(shared_dir=shared)
        for key in aliens:
            assert reader.get(key) is None, key
        assert reader.counters["misses"] == len(aliens)
        assert reader.get("whole").row == {"m": 1.0}
        reader.put("truncated", {"m": 2.0}, cost_s=0.0, source_nbytes=1)
        assert FeaturizationCache(shared_dir=shared).get("truncated").row == {"m": 2.0}
        assert reader.stats()["l2_entries"] == 1 + len(aliens)

    @pytest.mark.parametrize("damage", ["torn", "zeroed", "foreign", "header-only"])
    def test_a_file_that_is_no_database_is_a_miss_and_the_next_store_replaces_it(
        self, tmp_path, damage
    ):
        """No ``fsync``: power loss can leave the database cut short or
        read back as zeros, and a foreign file can sit at its name.  Each
        reads as a miss (and as an empty tier), and the next store
        replaces the file with a fresh database."""
        shared = tmp_path / "store"
        with FeaturizationCache(shared_dir=str(shared)) as cache:
            for i in range(40):
                cache.put(f"k{i}", {"m": float(i), "pad": "x" * 300}, cost_s=0.0, source_nbytes=1)
        path = shared / featcache.DB_NAME
        whole = path.read_bytes()
        path.write_bytes(
            {
                "torn": whole[: len(whole) // 2],
                "zeroed": whole[:40] + bytes(len(whole) - 40),
                "foreign": b"not a database" * 100,
                "header-only": b"SQLite format 3\x00" + bytes(84),
            }[damage]
        )
        reader = FeaturizationCache(shared_dir=str(shared))
        assert reader.get("k39") is None
        assert reader.stats()["l2_entries"] == 0
        reader.put("k39", {"m": 2.0}, cost_s=0.0, source_nbytes=1)
        assert reader.counters["l2_write_errors"] == 0
        with FeaturizationCache(shared_dir=str(shared)) as fresh:
            assert fresh.get("k39").row == {"m": 2.0}
            assert fresh.stats()["l2_entries"] == 1

    def test_a_key_never_names_a_path(self, tmp_path):
        """A ``data_ref`` is client-supplied text that ends up inside the
        cache key: whatever it spells, get and put touch the one database
        inside the shared directory, and the key is a bound parameter.
        A key SQLite cannot take as text (a lone surrogate) is a miss and
        a counted write error."""
        root = tmp_path / "root"
        shared = root / "a" / "b" / "store"
        shared.mkdir(parents=True)
        cache = FeaturizationCache(shared_dir=str(shared))
        hostile = ["../../x", "/etc/passwd", "a/b", "..", "nul\x00byte", "x' OR '1'='1", "x" * 5000]
        keys = [f"featrow-{'0' * 24}-{ref}" for ref in hostile + ["\ud800"]]
        for key in keys:
            assert cache.get(key) is None
            cache.put(key, {"m": 1.0}, cost_s=0.0, source_nbytes=1)
        assert cache.counters["l2_write_errors"] == 1
        reader = FeaturizationCache(shared_dir=str(shared))
        assert [reader.get(key) is not None for key in keys] == [True] * len(hostile) + [False]
        assert reader.stats()["l2_entries"] == len(hostile)
        assert db_files(shared)
        assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_dir()) == [
            "a", "a/b", "a/b/store",
        ]
        assert [p for p in root.rglob("*") if p.is_file() and p.parent != shared] == []
