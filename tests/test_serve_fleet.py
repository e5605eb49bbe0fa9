"""Fleet serving: multi-process workers, shared cache, supervision.

The serving tier's scale-out contract: N workers behind one
``SO_REUSEPORT`` address (the only data path — every test here runs on
it), one shared featurization store, a republish that provably reaches
every worker with only predicts sent, a supervisor that restarts crashed
workers while queries keep succeeding, and a start that fails fast when
a worker dies before reporting ready.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socketserver
import sqlite3
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.runner import ExperimentRunner
from repro.dataset import HurricaneDataset
from repro.predict.scheme import get_scheme
from repro.serve import (
    FeaturizationCache,
    ModelRegistry,
    PredictionClient,
    PredictionServer,
    ServeFleet,
    ServerThread,
    encode_array,
    registry_key,
    scheme_params,
)
from repro.serve import ServeStats, aggregate_stats, featcache

BOUND = 1e-3
SHAPE = (16, 16, 8)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A tiny published campaign; the runner stays open to republish."""
    dataset = HurricaneDataset(
        shape=SHAPE, timesteps=[0], fields=["P", "U", "QRAIN", "CLOUD"]
    )
    scheme = get_scheme("rahman2023", n_estimators=5, max_depth=4, augment_factor=1.0)
    runner = ExperimentRunner(
        dataset, compressors=["sz3"], bounds=[BOUND], schemes=[scheme], n_folds=2
    )
    observations = runner.collect().observations
    registry_root = str(tmp_path_factory.mktemp("registry"))
    registry = ModelRegistry(registry_root)
    receipts = runner.publish(registry, observations)
    key = registry_key(
        scheme.id,
        "sz3",
        {"pressio:abs": BOUND, "pressio:abs_is_relative": True},
        scheme_params(scheme),
    )
    rows = [
        dict(o)
        for o in observations
        if o.get("scheme:rahman2023:supported") and o.get("size:compression_ratio")
    ]
    yield SimpleNamespace(
        registry_root=registry_root,
        registry=registry,
        runner=runner,
        observations=observations,
        receipts=receipts,
        key=key,
        rows=rows,
    )
    runner.close()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """The what-if shape: an error-agnostic (rahman2023) and an
    error-dependent (khan2023) scheme, each published at two bounds."""
    dataset = HurricaneDataset(shape=SHAPE, timesteps=[0, 24], fields=["P", "U", "QRAIN"])
    scheme = get_scheme("rahman2023", n_estimators=5, max_depth=4, augment_factor=1.0)
    runner = ExperimentRunner(
        dataset, compressors=["sz3"], bounds=[BOUND, 1e-4],
        schemes=[scheme, "khan2023"], n_folds=2,
    )
    registry = ModelRegistry(str(tmp_path_factory.mktemp("sweep-registry")))
    receipts = runner.publish(registry, runner.collect().observations)
    runner.close()
    keys = [
        r.key
        for r in sorted(
            receipts,
            key=lambda r: (r.manifest["scheme"] != "rahman2023",
                           r.manifest["compressor_options"]["pressio:abs"]),
        )
    ]
    assert len(keys) == 4
    return SimpleNamespace(registry=registry, keys=keys)


class CountingClient(PredictionClient):
    """Counts round trips through the public ``request`` method."""

    round_trips = 0

    def request(self, payload):
        self.round_trips += 1
        return super().request(payload)


def fleet(campaign, workers=2, **kwargs):
    kwargs.setdefault("ready_timeout", 60.0)
    return ServeFleet(campaign.registry_root, workers, **kwargs)


def _shm_names():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psio")}
    except FileNotFoundError:  # pragma: no cover - no tmpfs /dev/shm here
        return set()


def wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestFleetLifecycle:
    def test_start_ping_stats_stop(self, campaign):
        with fleet(campaign) as f:
            assert f.live_workers() == 2
            stats = f.stats()
            assert stats["aggregate"]["workers"] == 2
            assert set(stats["workers"]) == {0, 1}
            assert len(f.control_addresses()) == 2

    def test_reuse_port_single_shared_address(self, campaign):
        with fleet(campaign) as f:
            assert f.address == (f.host, f.port) and f.port > 0
            with PredictionClient(*f.address) as client:
                response = client.predict(campaign.key, results=campaign.rows[0])
            assert response["prediction"] > 0

    @pytest.mark.parametrize("workers", [0, -3])
    def test_a_worker_count_below_one_is_refused(self, campaign, workers):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            fleet(campaign, workers)

    def test_worker_dying_at_boot_fails_start_fast(self, campaign):
        """A worker that exits before reporting ready (here: a server
        option its constructor rejects) fails start() at once — not at
        ready_timeout — naming the worker and its exit code, and leaves
        no worker process or owned cache directory behind."""
        f = fleet(campaign, server_options={"bogus": 1}, ready_timeout=60.0)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=r"worker \d \(exit code 1\)"):
            f.start()
        assert time.monotonic() - t0 < 5.0
        assert [
            p for p in multiprocessing.active_children()
            if p.name.startswith("serve-fleet-")
        ] == []
        assert f.feat_cache_dir is None


class TestSharedFeatureCache:
    def test_cross_worker_featurize_hit(self, campaign):
        """A field featurized by worker 0 is an L2 hit for worker 1 —
        bit-identical prediction, evaluator skipped."""
        rng = np.random.default_rng(5)
        arr = rng.standard_normal(SHAPE).astype(np.float32)
        with fleet(campaign, feat_cache="shared") as f:
            # The data port lets the kernel choose; each worker's control
            # port serves the same ops and pins the worker.
            (a0, a1) = f.control_addresses()
            with PredictionClient(*a0) as c0:
                first = c0.predict(campaign.key, data=arr)
            # Worker 0 writes the row file after its reply is out.
            assert wait_for(
                lambda: f.stats()["workers"][0]["featcache"]["l2_entries"] == 1
            )
            with PredictionClient(*a1) as c1:
                second = c1.predict(campaign.key, data=arr)
            aggregate = f.stats()["aggregate"]
        assert second["prediction"] == first["prediction"]
        assert aggregate["feat_misses"] == 1
        assert aggregate["feat_hits"] == 1
        assert aggregate["feat_bytes_saved"] == arr.nbytes

    def test_named_dir_survives_stop_and_the_next_fleet_starts_warm(
        self, campaign, tmp_path
    ):
        """stop() leaves a caller-named directory's rows: the same query
        to a new fleet on it is an L2 hit, not a featurization."""
        arr = np.random.default_rng(15).standard_normal(SHAPE).astype(np.float32)
        store = str(tmp_path / "store")
        with fleet(campaign, feat_cache="shared", feat_cache_dir=store) as f:
            with PredictionClient(*f.address) as client:
                first = client.predict(campaign.key, data=arr)
            # The row file is written after the reply is out.
            assert wait_for(lambda: any(
                w["featcache"]["l2_entries"] for w in f.stats()["workers"].values()
            ))
        with fleet(campaign, feat_cache="shared", feat_cache_dir=store) as f:
            with PredictionClient(*f.address) as client:
                again = client.predict(campaign.key, data=arr)
            workers = f.stats()["workers"].values()
        assert again["prediction"] == first["prediction"]
        assert sum(w["featcache"]["l2_hits"] for w in workers) >= 1
        assert sum(w["feat_misses"] for w in workers) == 0

    def test_what_if_sweep_hits_within_worker(self, campaign):
        """Repeats of the same field hit the cache (the what-if shape:
        rahman2023's features are bound-insensitive)."""
        rng = np.random.default_rng(6)
        arr = rng.standard_normal(SHAPE).astype(np.float32)
        with fleet(campaign, workers=1, feat_cache="local") as f:
            with PredictionClient(*f.address) as client:
                for _ in range(4):
                    client.predict(campaign.key, data=arr)
            aggregate = f.stats()["aggregate"]
        assert aggregate["feat_misses"] == 1
        assert aggregate["feat_hits"] == 3
        assert aggregate["feat_seconds_saved"] > 0

    def test_cache_off_mode(self, campaign):
        rng = np.random.default_rng(7)
        arr = rng.standard_normal(SHAPE).astype(np.float32)
        with fleet(campaign, workers=1, feat_cache="off") as f:
            with PredictionClient(*f.address) as client:
                client.predict(campaign.key, data=arr)
                client.predict(campaign.key, data=arr)
            stats = f.stats()
            aggregate = stats["aggregate"]
            assert aggregate["feat_hits"] == 0
            assert aggregate["feat_misses"] == 0
            assert all("featcache" not in s for s in stats["workers"].values())


class TestZeroCopyResend:
    def test_repeat_probe_rides_data_ref(self, campaign):
        """Once the server confirms a field is cached, the client's next
        probe of it sends a fingerprint instead of the payload."""
        rng = np.random.default_rng(8)
        arr = rng.standard_normal(SHAPE).astype(np.float32)
        with fleet(campaign, workers=1, feat_cache="shared") as f:
            client = PredictionClient(*f.address)
            try:
                first = client.predict(campaign.key, data=arr)
                assert first["cached"]
                second = client.predict(campaign.key, data=arr)
                third = client.predict(campaign.key, data=arr)
                aggregate = f.stats()["aggregate"]
            finally:
                client.close()
        assert client.ref_hits == 2
        assert second["prediction"] == first["prediction"]
        assert third["prediction"] == first["prediction"]
        assert aggregate["feat_ref_hits"] == 2
        assert aggregate["feat_ref_misses"] == 0

    def test_preencoded_payload_matches_ndarray(self, campaign):
        """data= accepts the encoded wire mapping; same prediction."""
        from repro.serve import encode_array

        rng = np.random.default_rng(9)
        arr = rng.standard_normal(SHAPE).astype(np.float32)
        with fleet(campaign, workers=1, feat_cache="shared") as f:
            with PredictionClient(*f.address) as client:
                by_array = client.predict(campaign.key, data=arr)
                by_payload = client.predict(campaign.key, data=encode_array(arr))
        assert by_payload["prediction"] == by_array["prediction"]

    def test_sweep_sends_refs_only_where_the_scope_allows(self, sweep):
        """rahman@b1, rahman@b2, khan@b1, khan@b2 on one field: the
        error-agnostic second bound rides a ref, the error-dependent
        keys never send one the server could not honour."""
        rng = np.random.default_rng(13)
        first, second = (
            encode_array(rng.standard_normal(SHAPE).astype(np.float32)) for _ in range(2)
        )
        server = PredictionServer(sweep.registry, feat_cache=FeaturizationCache())
        with ServerThread(server) as thread, CountingClient(*thread.address) as client:
            for key in sweep.keys:  # every key's scope is learned here
                client.predict(key, data=first)
            assert client.ref_hits == 0
            before = client.stats()
            trips = client.round_trips
            for key in sweep.keys:
                client.predict(key, data=second)
            trips = client.round_trips - trips
            after = client.stats()
        assert trips == 4
        assert client.ref_hits == 1
        assert after["feat_ref_hits"] - before["feat_ref_hits"] == 1
        assert after["feat_ref_misses"] == 0
        hits = after["feat_hits"] - before["feat_hits"]
        misses = after["feat_misses"] - before["feat_misses"]
        assert (hits, misses) == (1, 3)  # hit share exactly 1/4

    def test_need_data_falls_back_to_full_resend(self, campaign):
        """A ref whose entry was evicted between probes is renegotiated
        transparently: the caller just sees the answer."""
        rng = np.random.default_rng(10)
        kept, evictor = (
            encode_array(rng.standard_normal(SHAPE).astype(np.float32)) for _ in range(2)
        )
        server = PredictionServer(
            campaign.registry, feat_cache=FeaturizationCache(capacity=1)
        )
        with ServerThread(server) as thread, PredictionClient(*thread.address) as client:
            first = client.predict(campaign.key, data=kept)
            client.predict(campaign.key, data=evictor)  # capacity 1: drops `kept`
            response = client.predict(campaign.key, data=kept)
            stats = client.stats()
            assert client.ref_hits == 0
            # The full resend stored the row again, which re-arms the ref.
            client.predict(campaign.key, data=kept)
            assert client.ref_hits == 1
            # On the wire, an unhonourable ref is named by its key.
            refused = client.request({"op": "predict", "key": campaign.key, "data_ref": "0" * 64})
        assert (refused["status"], refused["key"]) == ("need_data", campaign.key)
        assert response["status"] == "ok"
        assert response["prediction"] == first["prediction"]
        assert stats["feat_ref_misses"] == 1
        assert stats["feat_misses"] == 3
        # The renegotiated full send is the one real request served.
        assert stats["failed"] == 0

    def test_hostile_data_ref_is_need_data_and_never_a_path(
        self, campaign, tmp_path, monkeypatch
    ):
        """``data_ref`` is client text that reaches the shared tier
        unvalidated: whatever it spells, the server answers ``need_data``
        and the only file it opens is the database inside the cache
        directory."""
        shared = tmp_path / "a" / "b" / "store"
        opened = []
        real_connect = sqlite3.connect
        monkeypatch.setattr(
            sqlite3, "connect",
            lambda path, *a, **kw: opened.append(path) or real_connect(path, *a, **kw),
        )
        server = PredictionServer(
            campaign.registry, feat_cache=FeaturizationCache(shared_dir=str(shared))
        )
        refs = ["../../x", "/etc/hostname", "..", "x' OR '1'='1", "\ud800"]
        with ServerThread(server) as thread, PredictionClient(*thread.address) as client:
            replies = [
                client.request({"op": "predict", "key": campaign.key, "data_ref": ref})
                for ref in refs
            ]
        assert [r["status"] for r in replies] == ["need_data"] * len(refs)
        assert set(opened) == {os.path.join(str(shared), featcache.DB_NAME)}
        files = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")}
        assert {"a", "a/b", "a/b/store", "a/b/store/rows.db"} <= files
        assert files <= {"a", "a/b", "a/b/store"} | {
            f"a/b/store/rows.db{suffix}" for suffix in ("", "-wal", "-shm")
        }

    def test_cache_off_server_answers_need_data(self, campaign):
        """A ref learned from a cache-on server, sent to its cache-off
        successor on the same port: one ``need_data``, then payloads."""
        payload = encode_array(
            np.random.default_rng(12).standard_normal(SHAPE).astype(np.float32)
        )
        cached = PredictionServer(campaign.registry, feat_cache=FeaturizationCache())
        with ServerThread(cached) as thread:
            client = PredictionClient(*thread.address)
            response = client.predict(campaign.key, data=payload)
            assert response["feat_scope"]
        uncached = PredictionServer(campaign.registry, port=cached.port, feat_cache=None)
        with ServerThread(uncached), client:
            again = client.predict(campaign.key, data=payload)  # redials
            assert "feat_scope" not in again
            client.predict(campaign.key, data=payload)
            stats = client.stats()
        assert again["prediction"] == response["prediction"]
        assert client.ref_hits == 0
        assert stats["feat_ref_misses"] == 1
        # The fallback full send named no scope, so the next predict
        # went straight to a full payload: no more refs.
        assert stats["feat_ref_hits"] == 0
        assert stats["completed"] == 2

    def test_server_without_scopes_is_always_sent_the_payload(self):
        """A server that predates ``feat_scope`` still says ``cached``;
        the client must not guess a scope from that."""
        seen: list[dict] = []

        class OldServer(socketserver.StreamRequestHandler):
            def handle(self):
                for line in self.rfile:
                    seen.append(json.loads(line))
                    self.rfile.read(seen[-1]["data"]["nbytes"])  # the field body
                    reply = {"ok": True, "status": "ok", "prediction": 1.0, "cached": True}
                    self.wfile.write((json.dumps(reply) + "\n").encode())

        payload = encode_array(np.zeros(SHAPE, dtype=np.float32))
        with socketserver.ThreadingTCPServer(("127.0.0.1", 0), OldServer) as old:
            old.daemon_threads = True
            threading.Thread(target=old.serve_forever, daemon=True).start()
            try:
                with PredictionClient(*old.server_address) as client:
                    for _ in range(3):
                        client.predict("some-key", data=payload)
            finally:
                old.shutdown()
        assert client.ref_hits == 0
        assert len(seen) == 3 and all("data" in request for request in seen)


class TestSupervision:
    def test_killed_worker_restarts_and_queries_keep_succeeding(self, campaign):
        with fleet(campaign) as f:
            victim = f.worker_pids()[0]
            with PredictionClient(*f.address, reconnects=4) as client:
                os.kill(victim, signal.SIGKILL)
                # Every query during the kill/restart window must succeed:
                # a dropped connection redials the shared port, which the
                # kernel routes to a live worker.
                for i in range(20):
                    response = client.predict(
                        campaign.key, results=campaign.rows[i % len(campaign.rows)]
                    )
                    assert "prediction" in response
                # live_workers() can still read 2 before the supervisor
                # reaps the victim: wait on the restart itself.
                assert wait_for(lambda: f.restart_counts()[0] >= 1)
                assert wait_for(lambda: f.live_workers() == 2)
                assert f.worker_pids()[0] != victim
                # And the restarted worker serves again.
                assert f.stats()["aggregate"]["workers"] == 2

    @pytest.mark.parametrize("own_dir", [True, False], ids=["fleet-dir", "given-dir"])
    def test_stop_after_a_worker_kill_cleans_up_what_the_fleet_owns(
        self, campaign, tmp_path, own_dir
    ):
        """SIGKILL a worker of a shared-cache fleet under raw-field
        traffic, then stop(): a directory the fleet made is gone with
        its database, a caller's directory keeps its rows, and no
        shared-memory name was ever created."""
        shm_before = _shm_names()
        rng = np.random.default_rng(14)
        fields = [rng.standard_normal(SHAPE).astype(np.float32) for _ in range(6)]
        stop_traffic = threading.Event()
        answered, errors = [], []

        def traffic(client):
            while not stop_traffic.is_set():
                try:
                    reply = client.predict(campaign.key, data=fields[len(answered) % 6] + len(answered))
                    answered.append(reply["prediction"])
                except Exception as exc:  # noqa: BLE001 - asserted empty below
                    errors.append(exc)
                    return

        f = fleet(
            campaign, feat_cache="shared",
            feat_cache_dir=None if own_dir else str(tmp_path / "store"),
        ).start()
        try:
            cache_dir = f.feat_cache_dir
            with PredictionClient(*f.address, reconnects=4) as client:
                thread = threading.Thread(target=traffic, args=(client,), daemon=True)
                thread.start()
                assert wait_for(lambda: len(answered) >= 4)
                os.kill(f.worker_pids()[0], signal.SIGKILL)
                seen = len(answered)
                assert wait_for(lambda: f.live_workers() == 2 and len(answered) >= seen + 4)
                stop_traffic.set()
                thread.join(30)
                assert not thread.is_alive()
            assert errors == []
            with FeaturizationCache(shared_dir=cache_dir) as reader:
                assert reader.stats()["l2_entries"] > 0
        finally:
            f.stop()
        if own_dir:
            assert not os.path.exists(cache_dir) and f.feat_cache_dir is None
        else:
            assert f.feat_cache_dir == cache_dir
            with FeaturizationCache(shared_dir=cache_dir) as reader:
                assert reader.stats()["l2_entries"] > 0
        assert _shm_names() == shm_before

    def test_crash_loop_cap_parks_worker(self, campaign):
        with fleet(campaign, max_restarts=1) as f:
            # Kill worker 0 every time it comes back until the cap trips.
            assert wait_for(
                lambda: self._kill_once(f, 0) and f.crash_looped_workers() == [0],
                timeout=30.0,
            )
            assert f.crash_looped_workers() == [0]
            # The fleet keeps serving on the survivor, and fleet-wide ops
            # exclude the parked slot instead of hanging on it.
            assert f.live_workers() == 1
            assert f.stats()["aggregate"]["workers"] == 1
            with PredictionClient(*f.address, reconnects=4) as client:
                assert client.predict(campaign.key, results=campaign.rows[0])

    def test_shutdown_lines_are_unknown_ops_and_restart_nothing(self, campaign):
        """No request stops a worker: more ``shutdown`` lines than the
        crash-loop cap allows restarts are each refused, and the one
        worker keeps serving without a restart."""
        with fleet(campaign, workers=1, max_restarts=3) as f:
            with PredictionClient(*f.address) as client:
                for _ in range(f.max_restarts + 2):
                    reply = client.request({"op": "shutdown"})
                    assert reply["status"] == "bad_request"
                    assert "unknown op" in reply["error"]
                time.sleep(0.3)  # six supervisor scans
                assert client.predict(campaign.key, results=campaign.rows[0])["prediction"] > 0
            assert f.restart_counts() == {0: 0}
            assert f.crash_looped_workers() == [] and f.live_workers() == 1

    @staticmethod
    def _kill_once(f, worker_id):
        pid = f.worker_pids().get(worker_id)
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return True


class TestRefresh:
    def test_refresh_fans_out_to_every_worker(self, campaign):
        """A republish reaches every worker with only predicts sent."""
        row = campaign.rows[0]

        def served_by_each(f):
            # A worker's control port serves predicts too: address each one.
            out = {}
            for address in f.control_addresses():
                with PredictionClient(*address) as client:
                    out[address] = client.predict(campaign.key, results=row)["version"]
            return out

        with fleet(campaign) as f:
            before = served_by_each(f)  # every worker holds a warm model
            assert len(before) == 2
            campaign.runner.publish(campaign.registry, campaign.observations)
            latest = campaign.registry.latest(campaign.key)
            assert latest not in before.values()
            assert set(served_by_each(f).values()) == {latest}
            # Fresh dials on the shared port reach either worker: all new.
            for _ in range(8):
                with PredictionClient(*f.address) as client:
                    assert client.predict(campaign.key, results=row)["version"] == latest


class TestClientConnectionReuse:
    def test_one_dial_for_many_queries(self, campaign):
        with fleet(campaign, workers=1) as f:
            client = PredictionClient(*f.address)
            try:
                for i in range(8):
                    client.predict(
                        campaign.key, results=campaign.rows[i % len(campaign.rows)]
                    )
                assert client.connect_count == 1
                stats = f.stats()["aggregate"]
            finally:
                client.close()
        # 8 predicts + the stats fan-out connection(s), but the predict
        # path itself rode exactly one TCP connection.
        assert stats["requests"] >= 8
        assert stats["connections"] <= 3

    def test_reconnect_across_worker_restart(self, campaign):
        """A client holding a dead connection transparently redials —
        under SO_REUSEPORT the kernel routes the new connection to a
        live worker, so the query succeeds mid-restart."""
        with fleet(campaign, workers=2) as f:
            client = PredictionClient(*f.address, reconnects=4)
            try:
                first = client.predict(campaign.key, results=campaign.rows[0])
                os.kill(sorted(f.worker_pids().values())[0], signal.SIGKILL)
                # Whether or not the killed worker held our connection,
                # every subsequent query must still answer.
                for _ in range(10):
                    response = client.predict(
                        campaign.key, results=campaign.rows[0]
                    )
                    assert response["prediction"] == first["prediction"]
                assert client.connect_count >= 1
            finally:
                client.close()


def test_fleet_aggregate_carries_every_numeric_key_of_a_snapshot():
    # Both are derived from ServeStats' fields: a counter added there
    # reaches a worker's snapshot and the fleet total alike.
    busy = ServeStats(requests=3, predict_calls=2, batched_rows=5, feat_seconds_saved=0.5)
    busy.observe_latency(0.010)
    idle = ServeStats(requests=1)
    snapshots = [busy.snapshot(), idle.snapshot()]
    aggregate = aggregate_stats(snapshots)

    def numeric(mapping):
        return {k for k, v in mapping.items() if isinstance(v, (int, float))}

    assert numeric(aggregate) - {"workers"} == numeric(snapshots[0])
    assert aggregate["workers"] == 2
    assert aggregate["requests"] == 4 and aggregate["feat_seconds_saved"] == 0.5
    assert aggregate["mean_batch_size"] == 2.5
    assert aggregate["latency_p50_ms"] == snapshots[0]["latency_p50_ms"] == 10.0
