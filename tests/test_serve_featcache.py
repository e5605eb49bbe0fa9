"""Featurization-cache correctness: keying, bit-identity, crash safety.

The cache's contract is stronger than "usually right": a hit must be
bit-identical to what the evaluator would produce (golden tests), keys
must move exactly when a feature-relevant option moves (sensitivity in
both directions, derived from the invalidation vocabulary), and a
worker killed mid-store must leave the shared tier serving misses, not
torn rows (chaos tests over the shm write-intent fault points).
"""

from __future__ import annotations

import multiprocessing
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.faults import ChaosPlan
from repro.core.compressor import compressor_registry
from repro.core.data import as_data
from repro.predict.scheme import get_scheme
from repro.serve import decode_array, encode_array
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
        # Strings are hashed as their bytes, everything else as its repr:
        # a shape sent as the text of a list must not pass for the list.
        a = encode_array(field)
        assert content_fingerprint(a) != content_fingerprint({**a, "shape": repr(a["shape"])})

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
        reader.close()
        writer.sweep()
        writer.close()

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
        cache = FeaturizationCache(
            shared_dir=str(tmp_path / "store"), shared_capacity_bytes=2048
        )
        big_row = {"m": 0.0, "pad": "x" * 400}
        for i in range(8):
            cache.put(f"k{i}", dict(big_row, m=float(i)), cost_s=0.0, source_nbytes=1)
        stats = cache.stats()
        assert stats["l2_evictions"] > 0
        assert stats["l2_bytes"] <= 2048
        cache.sweep()
        cache.close()


class TestCrashSafety:
    @pytest.mark.parametrize("point", ["intent", "segment", "filled"])
    def test_writer_killed_mid_store_does_not_poison(self, field, tmp_path, point):
        """Kill a worker process at each shm publish fault point: the
        survivors must see clean misses (never torn rows), and the key
        must become publishable again after the stale-intent window."""
        shared = str(tmp_path / "store")
        plan = ChaosPlan(
            cache_kill_rate=1.0, seed=3, state_dir=str(tmp_path / "chaos")
        )
        model = make_model("rahman2023")
        payload = encode_array(field)
        fresh = featurize(model, decode_array(payload))

        def victim():
            def hook(at, key):
                if at == point and plan.loop_fault("cache_kill", f"{at}:{key}"):
                    os._exit(1)

            cache = FeaturizationCache(
                shared_dir=shared, track=False, fault_hook=hook
            )
            key = cache.key_for(model, payload)
            cache.put(key, fresh, cost_s=0.01, source_nbytes=field.nbytes)
            os._exit(0)  # fault did not fire (should not happen)

        proc = multiprocessing.get_context("fork").Process(target=victim)
        proc.start()
        proc.join(30)
        assert proc.exitcode == 1, "victim must die at the fault point"

        survivor = FeaturizationCache(
            shared_dir=shared, stale_intent_seconds=0.0, attach_timeout=0.1
        )
        key = survivor.key_for(model, payload)
        # Never a torn row: either a clean miss or (point == "filled",
        # where the ledger rename never happened) still a miss.
        assert survivor.get(key) is None
        # The key recovers: the first store after the crash reclaims the
        # dead writer's stale intent (serving a private copy meanwhile),
        # and the next store republishes into the shared tier.
        survivor.put(key, fresh, cost_s=0.01, source_nbytes=field.nbytes)
        survivor.put(key, fresh, cost_s=0.01, source_nbytes=field.nbytes)
        survivor._l1.clear()  # force the next read through L2
        hit = survivor.get(key)
        assert hit is not None and hit.tier == "l2"
        assert hit.row == fresh
        survivor.sweep()
        survivor.close()

    def test_alien_blob_is_a_miss(self, tmp_path):
        """A segment holding bytes the wrapper cannot decode (torn write,
        foreign writer) must read as a miss, not an exception."""
        cache = FeaturizationCache(shared_dir=str(tmp_path / "store"))
        garbage = np.frombuffer(b"not json at all", dtype=np.uint8)
        _, info = cache._shm.publish("poisoned", garbage)
        if info.name:
            cache._shm.release("poisoned")
        assert cache.get("poisoned") is None
        assert cache.counters["misses"] == 1
        cache.sweep()
        cache.close()
