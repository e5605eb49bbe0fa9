"""Featurization-cache correctness: keying, bit-identity, crash safety.

The cache's contract is stronger than "usually right": a hit must be
bit-identical to what the evaluator would produce (golden tests), keys
must move exactly when a feature-relevant option moves (sensitivity in
both directions, derived from the invalidation vocabulary), and a
worker killed mid-store must leave the shared tier serving misses, not
torn rows (a chaos test at the one instant the row-file publish has).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import re
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


def row_path(shared_dir, key):
    """Where the shared tier keeps *key*: the documented digest name."""
    return os.path.join(shared_dir, hashlib.sha256(key.encode()).hexdigest() + ".row")


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
            # Publish order is the files' mtime, which the kernel stamps
            # from a coarse clock: spell it out instead of sleeping.
            os.utime(row_path(shared, f"k{i}"), ns=(i * 10**9, i * 10**9))
            assert cache.stats()["l2_bytes"] <= 2048  # one writer: exact
        stats = cache.stats()
        assert stats["l2_evictions"] > 0
        assert stats["l2_entries"] == 8 - stats["l2_evictions"]
        reader = FeaturizationCache(shared_dir=shared)
        survivors = [i for i in range(8) if reader.get(f"k{i}") is not None]
        assert survivors == list(range(8 - stats["l2_entries"], 8))  # the newest
        cache.sweep()

    def test_put_does_not_list_the_store_while_the_budget_is_far(
        self, tmp_path, monkeypatch
    ):
        """The cost of a store must not grow with the store: with the
        budget never at stake, 2000 puts list the directory zero times."""
        cache = FeaturizationCache(shared_dir=str(tmp_path / "store"))
        listings = []
        for name in ("scandir", "listdir"):
            real = getattr(os, name)
            monkeypatch.setattr(
                os, name,
                lambda *a, _real=real, **kw: listings.append(a) or _real(*a, **kw),
            )
        for i in range(2000):
            cache.put(f"k{i}", {"m": float(i)}, cost_s=0.0, source_nbytes=1)
        assert listings == []
        assert cache.stats()["l2_entries"] == 2000  # (this one does list)
        assert len(listings) == 1
        cache.sweep()

    def test_two_writers_stay_within_the_documented_overshoot(self, tmp_path):
        """Each writer spends a headroom of at most budget/_SCAN_FRACTION
        between directory passes, so W writers overshoot the budget by at
        most (W - 1) of those; an evicted key reads as a miss."""
        shared = str(tmp_path / "store")
        budget = 16 * 1024
        bound = budget + budget // featcache._SCAN_FRACTION
        writers = [
            FeaturizationCache(shared_dir=shared, shared_capacity_bytes=budget)
            for _ in range(2)
        ]
        row = {"m": 0.0, "pad": "x" * 100}
        peak = 0
        for i in range(400):
            writers[i % 2].put(f"k{i}", dict(row, m=float(i)), cost_s=0.0, source_nbytes=1)
            peak = max(peak, sum(e.stat().st_size for e in os.scandir(shared)))
        assert budget // 2 < peak <= bound
        assert sum(w.counters["l2_evictions"] for w in writers) > 0
        reader = FeaturizationCache(shared_dir=shared)
        assert reader.get("k0") is None  # evicted long ago: a miss, no exception
        assert reader.get("k399").row == dict(row, m=399.0)
        writers[0].sweep()


class TestCrashSafety:
    def test_writer_killed_mid_store_does_not_poison(self, field, tmp_path):
        """Kill a worker process between the temp write and the rename —
        the one instant a store has anything on disk that is not yet a
        row.  The survivor sees a clean miss (never a torn row), its
        first store republishes, and the owner's sweep takes the dead
        writer's temp file with everything else."""
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
        (orphan,) = os.listdir(shared)
        assert orphan.endswith(".tmp")

        survivor = FeaturizationCache(shared_dir=shared)
        key = survivor.key_for(model, payload)
        assert survivor.get(key) is None
        survivor.put(key, fresh, cost_s=0.01, source_nbytes=field.nbytes)
        reader = FeaturizationCache(shared_dir=shared)  # empty L1: reads L2
        hit = reader.get(key)
        assert hit is not None and hit.tier == "l2"
        assert hit.row == fresh
        assert sorted(survivor.sweep()) == sorted([orphan, os.path.basename(row_path(shared, key))])
        assert os.listdir(shared) == []

    def test_alien_blob_is_a_miss(self, tmp_path):
        """Bytes the wrapper cannot decode — a row cut short or read
        back as zeros (power loss without fsync), a foreign writer's
        file, another codec's JSON — read as a miss, not an exception,
        and the next store renames a good row over them."""
        shared = str(tmp_path / "store")
        cache = FeaturizationCache(shared_dir=shared)
        cache.put("whole", {"m": 1.0}, cost_s=0.0, source_nbytes=1)
        with open(row_path(shared, "whole"), "rb") as fh:
            whole = fh.read()
        aliens = {
            "truncated": whole[: len(whole) // 2],
            "zeroed": whole[:40] + bytes(len(whole) - 40),
            "foreign": b"not json at all",
            "other-codec": b'{"codec_version": 1, "state": []}',
            "empty": b"",
        }
        for key, blob in aliens.items():
            with open(row_path(shared, key), "wb") as fh:
                fh.write(blob)
        # What a kill in the middle of the temp write leaves: a stray,
        # half-written temp file.  No reader ever looks at it.
        with open(os.path.join(shared, "0" * 32 + ".tmp"), "wb") as fh:
            fh.write(whole[:17])
        reader = FeaturizationCache(shared_dir=shared)
        for key in aliens:
            assert reader.get(key) is None, key
        assert reader.counters["misses"] == len(aliens)
        assert reader.get("whole").row == {"m": 1.0}
        reader.put("truncated", {"m": 2.0}, cost_s=0.0, source_nbytes=1)
        assert FeaturizationCache(shared_dir=shared).get("truncated").row == {"m": 2.0}
        assert reader.stats()["l2_entries"] == 1 + len(aliens)  # the temp is no row
        cache.sweep()
        assert os.listdir(shared) == []

    def test_stale_temp_files_are_reclaimed_by_a_directory_pass(self, tmp_path):
        """A long-running owner does not wait for its final sweep: any
        pass over the directory drops temp files too old to have a
        writer, and leaves a young one (a store in flight) alone."""
        shared = tmp_path / "store"
        shared.mkdir()
        old, young = shared / ("a" * 32 + ".tmp"), shared / ("b" * 32 + ".tmp")
        for path in (old, young):
            path.write_bytes(b"{")
        long_ago = os.stat(old).st_mtime - 2 * featcache._STALE_TMP_SECONDS
        os.utime(old, (long_ago, long_ago))
        FeaturizationCache(shared_dir=str(shared))  # construction is one pass
        assert os.listdir(shared) == [young.name]

    def test_row_files_are_named_by_a_digest_never_by_the_key(self, tmp_path):
        """A ``data_ref`` is client-supplied text that ends up inside the
        cache key: whatever it spells, get and put touch one flat,
        digest-named file inside the shared directory."""
        root = tmp_path / "root"
        shared = root / "a" / "b" / "store"
        shared.mkdir(parents=True)
        cache = FeaturizationCache(shared_dir=str(shared))
        hostile = ["../../x", "/etc/passwd", "a/b", "..", "nul\x00byte", "\ud800", "x" * 5000]
        for ref in hostile:
            key = f"featrow-{'0' * 24}-{ref}"
            assert cache.get(key) is None
            cache.put(key, {"m": 1.0}, cost_s=0.0, source_nbytes=1)
        names = os.listdir(shared)
        assert len(names) == len(hostile)
        assert all(re.fullmatch(r"[0-9a-f]{64}\.row", name) for name in names)
        assert sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_dir()) == [
            "a", "a/b", "a/b/store",
        ]
        assert [p for p in root.rglob("*") if p.is_file() and p.parent != shared] == []
