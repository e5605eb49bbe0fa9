"""Lockset-sanitizer stress suites: part of the CI ``analysis`` job.

Each suite runs a real concurrent workload with a
:class:`~repro.analysis.racewitness.LocksetWitness` threaded through the
``lock_witness=`` seam of :class:`FeaturizationCache` (the one store that
two threads share: the event loop and the compute lane) and its
``# guarded-by:`` attributes instrumented, then asserts it race-free: no
witnessed attribute's candidate lockset emptied while shared-modified
(the Eraser verdict).

A deliberately racy fixture proves the witness actually fires — a
sanitizer that cannot fail proves nothing.

``REPRO_RACE_WITNESS_REPORT=<path>`` dumps a merged JSON report of
every suite's locksets and races at session end (uploaded as a CI
artifact by the analysis job).
"""

import json
import os
import threading

import pytest

from repro.analysis import (
    DataRaceViolation,
    LocksetWitness,
    guarded_attributes,
)
from repro.analysis.racewitness import merge_reports
from repro.bench import CheckpointStore
from repro.serve.featcache import FeaturizationCache

#: Collected per-suite witness reports, dumped at session end.
_REPORTS: list[dict] = []


def _register(label: str, witness: LocksetWitness) -> None:
    report = witness.report()
    report["label"] = label
    _REPORTS.append(report)


@pytest.fixture(scope="session", autouse=True)
def _dump_reports():
    yield
    path = os.environ.get("REPRO_RACE_WITNESS_REPORT")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(merge_reports(_REPORTS), fh, indent=2, sort_keys=True)


class RacyCounter:
    """Deliberate victim: the annotation says ``_lock``, one path forgets."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self.total = 0  # guarded-by: _lock

    def add_locked(self, k: int) -> None:
        with self._lock:
            self.total += k

    def add_racy(self, k: int) -> None:
        self.total += k  # the deliberate race under test


class TestDeliberateRace:
    """The witness must fire on a planted race and explain it."""

    def test_auto_discovery_reads_guarded_by_comments(self):
        assert guarded_attributes(RacyCounter) == {"total": "_lock"}

    def test_unlocked_writer_empties_the_lockset(self):
        witness = LocksetWitness()
        counter = RacyCounter(witness.wrap(name="counter.lock"))
        witness.instrument(counter, name="counter")
        # Seed a main-thread access so the workers are never the first
        # (and possibly only) thread Eraser sees: without this, a racy
        # thread that finishes before the locked one starts would stay
        # in the exclusive phase and the race would escape.
        counter.add_locked(1)

        def worker(racy: bool) -> None:
            for _ in range(200):
                (counter.add_racy if racy else counter.add_locked)(1)

        threads = [
            threading.Thread(target=worker, args=(i == 1,), name=f"racer-{i}")
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        races = witness.races()
        assert races, "planted race was not detected"
        assert races[0].var == "counter.total"
        assert races[0].state == "shared-modified"
        with pytest.raises(DataRaceViolation):
            witness.assert_race_free()
        report = witness.report()
        assert report["races"], "race missing from the JSON report"
        assert report["variables"]["counter.total"]["lockset"] == []

    def test_locked_writers_stay_quiet(self):
        witness = LocksetWitness()
        counter = RacyCounter(witness.wrap(name="counter.lock"))
        witness.instrument(counter, name="counter")
        threads = [
            threading.Thread(
                target=lambda: [counter.add_locked(1) for _ in range(200)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        witness.assert_race_free()
        with witness.paused():
            assert counter.total == 800
        witness.assert_race_free()
        assert witness.report()["variables"]["counter.total"]["lockset"] == [
            "counter.lock"
        ]

    def test_sequential_short_lived_threads_are_distinct_owners(self):
        # CPython recycles threading.get_ident() once a thread exits, so
        # back-to-back writers used to look like one EXCLUSIVE owner and
        # refinement never started (lockset stayed unset).
        witness = LocksetWitness()
        counter = RacyCounter(witness.wrap(name="counter.lock"))
        witness.instrument(counter, name="counter")
        for _ in range(8):
            t = threading.Thread(target=counter.add_locked, args=(1,))
            t.start()
            t.join(10)
            assert not t.is_alive()
        witness.assert_race_free()
        variable = witness.report()["variables"]["counter.total"]
        assert variable["state"] == "shared-modified"
        assert variable["lockset"] == ["counter.lock"]

    def test_check_on_access_raises_at_the_racy_site(self):
        witness = LocksetWitness(check_on_access=True)
        counter = RacyCounter(witness.wrap(name="counter.lock"))
        witness.instrument(counter, name="counter")
        counter.add_locked(1)  # main thread: exclusive phase

        failures: list[BaseException] = []

        def racy() -> None:
            try:
                for _ in range(100):
                    counter.add_racy(1)
            except DataRaceViolation as exc:
                failures.append(exc)

        t = threading.Thread(target=racy)
        t.start()
        t.join()
        assert failures, "check_on_access did not raise in the racy thread"


class TestWitnessedFeatCache:
    """Concurrent get/put/stats over the shared featurization cache."""

    def test_featcache_stress_is_race_free(self):
        witness = LocksetWitness()
        # capacity > key population: the second pass over the 80 keys is
        # guaranteed L1 hits, so the hit-path counters are exercised.
        cache = FeaturizationCache(capacity=128, lock_witness=witness)
        witness.instrument(cache, name="featcache")

        def worker(wid: int) -> None:
            for i in range(150):
                key = f"featrow-{i % 80}"
                hit = cache.get(key)
                if hit is None:
                    cache.put(
                        key, {"v": i, "w": wid}, cost_s=0.001, source_nbytes=64
                    )
                if i % 29 == 0:
                    cache.stats()

        threads = [
            threading.Thread(target=worker, args=(w,), name=f"cache-{w}")
            for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        witness.assert_race_free()
        with witness.paused():
            stats = cache.stats()
        assert stats["stores"] > 0
        assert stats["l1_hits"] > 0
        _register("featcache-stress", witness)

    def test_instrument_watches_the_annotated_attrs(self):
        assert set(guarded_attributes(FeaturizationCache)) == {
            "_l1",
            "_db",
            "_signatures",
            "counters",
        }


def test_checkpoint_store_declares_no_guarded_attrs():
    """The checkpoint store has one thread and no lock, so it is no
    witness seam: nothing in it carries a ``# guarded-by:`` note."""
    assert guarded_attributes(CheckpointStore) == {}
