"""End-to-end serving: campaign → publish → server → client predictions.

The acceptance demo for the online service: a trained model queried over
the wire returns exactly what the deserialized predictor returns when
called directly; requests that arrive while their key's batch is running
leave as one vectorised predict call; overload sheds with the documented
status instead of hanging.

The batching and admission tests are deterministic, not timed: a gated
predictor holds one key's batch on the compute lane until the test has
queued exactly the requests it wants behind it.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench.runner import ExperimentRunner
from repro.dataset import HurricaneDataset
from repro.predict.scheme import get_scheme
from repro.serve import (
    DriftConfig,
    ModelRegistry,
    PredictionClient,
    PredictionServer,
    ServerError,
    ServerThread,
    decode_array,
    registry_key,
    scheme_params,
)
from repro.serve import server as server_module

# Fires fast: tiny calibration + window, two breaching evaluations.
FAST_DRIFT = DriftConfig(
    window=8, min_observations=4, calibration=4, hysteresis=2
)


def force_drift(client, key, row, cap=60):
    """Feed skewed ground truth until the key's monitor fires."""
    resp = client.predict(key, results=row)
    for _ in range(cap):
        snap = client.observe(
            key, resp["prediction"], resp["prediction"] * 3.0,
            version=resp["version"],
        )
        if snap["fired"]:
            return snap
    raise AssertionError("drift monitor never fired")

BOUND = 1e-3


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One tiny collection campaign, published into a fresh registry."""
    dataset = HurricaneDataset(
        shape=(16, 16, 8), timesteps=[0, 24], fields=["P", "U", "QRAIN", "CLOUD"]
    )
    scheme = get_scheme("rahman2023", n_estimators=5, max_depth=4, augment_factor=1.0)
    runner = ExperimentRunner(
        dataset,
        compressors=["sz3"],
        bounds=[BOUND],
        schemes=[scheme, "khan2023"],
        n_folds=2,
    )
    observations = runner.collect().observations
    registry = ModelRegistry(str(tmp_path_factory.mktemp("registry")))
    receipts = runner.publish(registry, observations)
    runner.close()
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
    return SimpleNamespace(
        registry=registry, receipts=receipts, key=key, rows=rows, scheme=scheme
    )


def serve(campaign, **kwargs):
    return ServerThread(PredictionServer(campaign.registry, **kwargs))


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.002)


def burst(address, key, rows, n, kind="results"):
    """Fire *n* predicts from *n* connections released simultaneously,
    each carrying ``rows[i % len(rows)]`` as its *kind* (``results`` or
    ``data``); a refused one returns its :class:`ServerError`."""
    barrier = threading.Barrier(n)

    def worker(i):
        with PredictionClient(*address) as client:
            client.ping()  # dialled before the release, not as part of it
            barrier.wait(30)
            try:
                return client.predict(key, **{kind: rows[i % len(rows)]})
            except ServerError as err:
                return err

    with ThreadPoolExecutor(n) as pool:
        return [reply.result(30) for reply in [pool.submit(worker, i) for i in range(n)]]


class Gate:
    """Holds the gated key's ``predict_many`` until the test opens it.

    ``calls`` logs the ``tag`` of every row of every gated call, in
    order: which requests shared a batch, and in what order they left.
    A call carrying a ``poisoned`` tag answers with something no reply
    can be built from — a fault *after* the model work.
    """

    def __init__(self):
        self.open = threading.Event()
        self.open.set()
        self.calls: list[list] = []
        self.poisoned: set = set()


class GatedRegistry:
    """The campaign registry, with *key*'s predictor behind a :class:`Gate`."""

    def __init__(self, registry, key, gate):
        self._registry, self._key, self._gate = registry, key, gate

    def __getattr__(self, name):
        return getattr(self._registry, name)

    def load(self, key, version=None):
        model = self._registry.load(key, version)
        if key == self._key:
            inner, gate = model.predictor.predict_many, self._gate

            def predict_many(rows):
                tags = [row.get("tag") for row in rows]
                gate.calls.append(tags)
                assert gate.open.wait(30), "the test never opened the gate"
                if gate.poisoned.intersection(tags):
                    return ["not a number"] * len(rows)
                return inner(rows)

            model.predictor.predict_many = predict_many
        return model


class Held:
    """A server whose ``campaign.key`` batch is held on the compute lane.

    Entering sends one raw-field predict (raw fields run on the lane, so
    the loop stays free to admit and queue) and returns once it is inside
    the gated ``predict_many``; :meth:`ask` then admits one request at a
    time, so arrival order is the order of the calls; :meth:`release`
    opens the gate and returns every reply in that order.
    """

    def __init__(self, campaign, **server_kwargs):
        self.campaign = campaign
        self.gate = Gate()
        self.server = PredictionServer(
            GatedRegistry(campaign.registry, campaign.key, self.gate), **server_kwargs
        )
        self.thread = ServerThread(self.server)
        self.pool = ThreadPoolExecutor(32)
        self.replies = []

    def __enter__(self):
        self.thread.start()
        self.gate.open.clear()
        field = np.random.default_rng(3).standard_normal((16, 16, 8))
        self.ask(self.campaign.key, data=field.astype(np.float32))
        wait_until(lambda: self.gate.calls)
        return self

    def __exit__(self, *exc):
        self.gate.open.set()
        self.pool.shutdown()
        self.thread.stop()

    def _predict(self, key, client_kwargs, **kwargs):
        with PredictionClient(*self.thread.address, **client_kwargs) as client:
            try:
                return client.predict(key, **kwargs)
            except ServerError as err:
                return err

    def ask(self, key, client_kwargs=None, **kwargs):
        """Send one predict from its own connection; return once admitted
        (or shed) — ``stats.requests`` counts both."""
        seen = self.server.stats.requests
        self.replies.append(
            self.pool.submit(self._predict, key, client_kwargs or {}, **kwargs)
        )
        wait_until(lambda: self.server.stats.requests > seen)

    def release(self):
        self.gate.open.set()
        return [reply.result(30) for reply in self.replies]

    def stats(self):
        with PredictionClient(*self.thread.address) as client:
            return client.stats()


def tagged(campaign, n):
    """*n* campaign rows, each carrying its arrival index as ``tag``."""
    return [{**campaign.rows[i % len(campaign.rows)], "tag": i} for i in range(n)]


def raw_field(seed):
    """A fresh raw field the size of the campaign's."""
    return np.random.default_rng(seed).standard_normal((16, 16, 8)).astype(np.float32)


class TestPublishHook:
    def test_publish_covers_every_combination(self, campaign):
        assert len(campaign.receipts) == 2  # (rahman2023 + khan2023) x sz3 x 1 bound
        assert {r.manifest["scheme"] for r in campaign.receipts} == {
            "rahman2023",
            "khan2023",
        }
        assert campaign.key in {r.key for r in campaign.receipts}

    def test_receipts_carry_campaign_meta(self, campaign):
        for receipt in campaign.receipts:
            assert receipt.manifest["meta"]["n_observations"] >= 2
            assert receipt.manifest["meta"]["relative_bounds"] is True


class TestEndToEnd:
    def test_served_prediction_matches_direct_predictor(self, campaign):
        row = campaign.rows[0]
        direct = campaign.registry.load(campaign.key)
        want = float(direct.predictor.predict(row))
        with serve(campaign) as thread:
            with PredictionClient(*thread.address) as client:
                response = client.predict(campaign.key, results=row)
        assert response["status"] == "ok"
        assert response["prediction"] == want
        assert response["target"] == "size:compression_ratio"
        assert response["version"] == direct.version
        assert set(response["timings"]) == {
            "queue_wait_ms",
            "compute_wait_ms",
            "featurize_ms",
            "featurize_hidden_ms",
            "predict_ms",
        }

    def test_raw_field_is_featurized_server_side(self, campaign):
        # An unseen field: the server must run the same featurization the
        # bench used offline, so its answer equals the direct pipeline's.
        rng = np.random.default_rng(7)
        arr = rng.standard_normal((16, 16, 8)).astype(np.float32)
        from repro.core.data import as_data

        model = campaign.registry.load(campaign.key)
        row = dict(model.scheme.req_metrics_opts(model.compressor).evaluate(as_data(arr)))
        for k, v in model.scheme.config_features(model.compressor).items():
            row.setdefault(k, v)
        want = float(model.predictor.predict(row))
        with serve(campaign) as thread:
            with PredictionClient(*thread.address) as client:
                response = client.predict(campaign.key, data=arr)
        assert response["prediction"] == want

    def test_ping_models_and_stats_ops(self, campaign):
        with serve(campaign) as thread:
            with PredictionClient(*thread.address) as client:
                assert client.ping()
                models = client.models()
                assert {m["manifest"]["scheme"] for m in models} == {
                    "rahman2023",
                    "khan2023",
                }
                client.predict(campaign.key, results=campaign.rows[0])
                stats = client.stats()
        assert stats["completed"] == 1
        assert stats["predict_calls"] == 1
        assert stats["model_loads"] == 1
        assert stats["latency_p99_ms"] > 0
        for stage in (
            "queue_wait_seconds",
            "compute_wait_seconds",
            "featurize_seconds",
            "predict_seconds",
        ):
            assert stats[stage] >= 0

    def test_shutdown_op_stops_server(self, campaign):
        thread = serve(campaign).start()
        with PredictionClient(*thread.address) as client:
            client.shutdown()
        thread._thread.join(5)
        assert not thread._thread.is_alive()


class TestMicroBatching:
    def test_idle_request_is_served_alone_and_at_once(self, campaign):
        with serve(campaign) as thread:
            with PredictionClient(*thread.address) as client:
                client.predict(campaign.key, results=campaign.rows[0])  # cold load
                response = client.predict(campaign.key, results=campaign.rows[1])
        assert response["batch_size"] == 1
        # A lone connection has nobody to share a batch with, so nothing is
        # waited for: the batch leaves on the next loop iteration.
        assert response["timings"]["queue_wait_ms"] < 1.0

    def test_idle_key_pauses_for_company_only_while_another_connection_is_open(
        self, campaign, monkeypatch
    ):
        # The pause stretched to where two released-together requests are
        # certain to land inside it: what is pinned is who waits and who
        # shares, not how long a millisecond is.
        monkeypatch.setattr(server_module, "_COALESCE_S", 0.25)
        with serve(campaign) as thread:
            with PredictionClient(*thread.address) as client:
                client.predict(campaign.key, results=campaign.rows[0])  # cold load
                lone = client.predict(campaign.key, results=campaign.rows[0])
            pair = burst(thread.address, campaign.key, campaign.rows, 2)
        assert lone["batch_size"] == 1 and lone["timings"]["queue_wait_ms"] < 250
        assert [r["batch_size"] for r in pair] == [2, 2]
        assert max(r["timings"]["queue_wait_ms"] for r in pair) >= 250

    def test_burst_coalesces_into_fewer_predict_calls(self, campaign):
        k = 12
        with Held(campaign, max_batch=64) as held:
            for row in tagged(campaign, k):
                held.ask(campaign.key, results=row)
            results = held.release()
            stats = held.stats()
        assert all(r["status"] == "ok" for r in results)
        assert held.gate.calls == [[None], list(range(k))]
        assert {r["batch_size"] for r in results[1:]} == {k}
        assert stats["completed"] == k + 1
        assert stats["predict_calls"] == 2
        assert stats["batched_rows"] == k + 1
        assert stats["queue_wait_seconds"] > 0  # they did wait behind the holder

    def test_batch_answers_agree_with_direct(self, campaign):
        direct = campaign.registry.load(campaign.key)
        rows = tagged(campaign, 8)
        with Held(campaign) as held:
            for row in rows:
                held.ask(campaign.key, results=row)
            results = held.release()
        for row, response in zip(rows, results[1:]):
            assert response["prediction"] == float(direct.predictor.predict(row))

    def test_max_batch_caps_followup_and_remainder_is_fifo(self, campaign):
        with Held(campaign, max_batch=2) as held:
            for row in tagged(campaign, 5):
                held.ask(campaign.key, results=row)
            results = held.release()
        assert held.gate.calls == [[None], [0, 1], [2, 3], [4]]
        assert [r["batch_size"] for r in results] == [1, 2, 2, 2, 2, 1]

    def test_fault_in_one_batch_does_not_strand_those_behind_it(self, campaign):
        with Held(campaign, max_batch=2) as held:
            held.gate.poisoned = {0}
            for row in tagged(campaign, 4):
                held.ask(campaign.key, results=row)
            results = held.release()
            stats = held.stats()
        statuses = [
            r.server_status if isinstance(r, ServerError) else r["status"] for r in results
        ]
        assert statuses == ["ok", "error", "error", "ok", "ok"]
        assert stats["failed"] == 2 and stats["completed"] == 3

    def test_held_key_does_not_delay_another_keys_rows(self, campaign):
        other = next(r.key for r in campaign.receipts if r.key != campaign.key)
        with Held(campaign) as held:
            with PredictionClient(*held.thread.address) as client:
                response = client.predict(other, results=campaign.rows[0])
            assert response["status"] == "ok"
            assert not held.replies[0].done(), "the held batch was not held"
            assert held.release()[0]["status"] == "ok"

    def test_raw_batches_never_featurize_concurrently(self, campaign):
        # The guard against reintroducing the GIL convoy: raw fields of
        # different keys, each featurized from its admission, share one
        # compute lane.
        other = next(r.key for r in campaign.receipts if r.key != campaign.key)
        server = PredictionServer(campaign.registry)
        inner, lock = server._featurize, threading.Lock()
        active = entries = peak = 0

        def counting(model, item):
            nonlocal active, entries, peak
            with lock:
                active += 1
                entries += 1
                peak = max(peak, active)
            try:
                time.sleep(0.05)  # a second lane would be inside by now
                return inner(model, item)
            finally:
                with lock:
                    active -= 1

        server._featurize = counting
        field = raw_field(5)
        barrier = threading.Barrier(2)

        def ask(key):
            with PredictionClient(*thread.address) as client:
                barrier.wait(10)
                return client.predict(key, data=field)

        with ServerThread(server) as thread, ThreadPoolExecutor(2) as pool:
            replies = [r.result(30) for r in [pool.submit(ask, k) for k in (campaign.key, other)]]
        assert all(r["status"] == "ok" for r in replies)
        assert entries == 2 and peak == 1

    def test_raw_featurization_overlaps_the_pause(self, campaign, monkeypatch):
        # With a second connection open, a raw field is featurized while
        # its batch waits out the pause, not after the batch detaches.
        monkeypatch.setattr(server_module, "_COALESCE_S", 0.25)
        server = PredictionServer(campaign.registry)
        events = []
        featurize, run_batch = server._featurize, server._run_batch

        def logged_featurize(model, item):
            events.append("featurize")
            featurize(model, item)

        async def logged_run_batch(*args):
            events.append("detach")
            await run_batch(*args)

        server._featurize, server._run_batch = logged_featurize, logged_run_batch
        with ServerThread(server) as thread, PredictionClient(*thread.address) as idle:
            idle.ping()  # the open connection that could add a row
            with PredictionClient(*thread.address) as client:
                reply = client.predict(campaign.key, data=raw_field(6))
        assert events == ["featurize", "detach"]
        timings = reply["timings"]
        assert timings["queue_wait_ms"] >= 250
        assert timings["featurize_ms"] == 0 and timings["featurize_hidden_ms"] > 0

    def test_reply_timings_sum_to_at_most_the_residency(self, campaign, monkeypatch):
        # Raw fields on two connections: the featurization hidden in the
        # queue wait is reported beside the four stages, not inside them.
        monkeypatch.setattr(server_module, "_COALESCE_S", 0.05)
        server = PredictionServer(campaign.registry)
        with ServerThread(server) as thread:
            replies = burst(thread.address, campaign.key, [raw_field(7), raw_field(8)], 2, "data")
        stages = ("queue_wait_ms", "compute_wait_ms", "featurize_ms", "predict_ms")
        sums = sorted(sum(r["timings"][s] for s in stages) for r in replies)
        # Each reply's sum fits its own residency, so the k-th smallest sum
        # fits the k-th smallest residency.
        residencies = sorted(s * 1e3 for s in server.stats.latencies)
        assert len(residencies) == 2
        assert all(s <= r for s, r in zip(sums, residencies))
        assert all(r["timings"]["featurize_hidden_ms"] > 0 for r in replies)

    def test_a_featurization_fault_fails_only_its_own_request(self, campaign, monkeypatch):
        monkeypatch.setattr(server_module, "_COALESCE_S", 0.25)
        server = PredictionServer(campaign.registry)
        inner, poison = server._featurize_raw, -12345.0

        def evaluator(model, item):
            if decode_array(item.array).flat[0] == poison:
                raise ValueError("poisoned field")
            return inner(model, item)

        server._featurize_raw = evaluator
        poisoned = raw_field(9)
        poisoned.flat[0] = poison
        with ServerThread(server) as thread:
            bad, good = burst(thread.address, campaign.key, [poisoned, raw_field(10)], 2, "data")
            with PredictionClient(*thread.address) as client:
                stats = client.stats()
        assert isinstance(bad, ServerError) and bad.server_status == "error"
        assert "poisoned field" in str(bad)
        assert good["status"] == "ok" and good["batch_size"] == 2
        assert (stats["failed"], stats["completed"], stats["predict_calls"]) == (1, 1, 1)

    def test_stop_drops_featurizations_that_have_not_started(self, campaign):
        held = Held(campaign).__enter__()  # the lane is inside the held predict
        server, started = held.server, []
        inner = server._featurize

        def logged(model, item):
            started.append(item)
            inner(model, item)

        server._featurize = logged
        try:
            for seed in (11, 12):
                held.ask(campaign.key, data=raw_field(seed))  # queued on the busy lane
            with PredictionClient(*held.thread.address) as client:
                client.shutdown()
            held.thread._thread.join(10)
            assert not held.thread._thread.is_alive()
        finally:
            held.gate.open.set()
            held.pool.shutdown()
        server._lane.shutdown(wait=True)
        assert started == []

    def test_cold_load_is_single_flight(self, campaign):
        # a burst racing a cold key: the first request's drain loads the
        # model, the rest queue behind it — the blob deserialises once.
        k = 8
        with serve(campaign) as thread:
            results = burst(thread.address, campaign.key, campaign.rows, k)
            with PredictionClient(*thread.address) as client:
                stats = client.stats()
        assert all(r["status"] == "ok" for r in results)
        assert stats["model_loads"] == 1, "cold load was not single-flight"
        assert stats["cache_misses"] == 1

    def test_stop_leaves_no_compute_thread(self, campaign):
        def lanes():
            return [t for t in threading.enumerate() if t.name.startswith("serve-compute")]

        field = np.zeros((16, 16, 8), dtype=np.float32)
        with serve(campaign) as thread:
            with PredictionClient(*thread.address) as client:
                client.predict(campaign.key, data=field)
            assert len(lanes()) == 1
        wait_until(lambda: not lanes())


class TestAdmissionControl:
    def test_overload_sheds_with_documented_status(self, campaign):
        # overload_retries=0 turns client retries off: the raw shed
        # must surface with the documented status.
        raw = {"overload_retries": 0}
        with Held(campaign, max_in_flight=2, max_queue_depth=1) as held:
            # The held batch is in flight; one more fills both limits.
            for row in tagged(campaign, 5):
                held.ask(campaign.key, raw, results=row)
            results = held.release()
            stats = held.stats()
        ok, shed = results[:2], results[2:]
        assert all(isinstance(r, dict) and r["status"] == "ok" for r in ok)
        for exc in shed:
            assert isinstance(exc, ServerError)
            assert exc.server_status == "overloaded"
            assert "retry with backoff" in str(exc)
        assert stats["shed"] == len(shed) == 4
        assert stats["completed"] == len(ok)

    def test_default_client_retries_through_overload(self, campaign):
        # The same requests that are shed above complete without a single
        # client-visible error when retry-with-backoff is left on — the
        # server's "overloaded" answer is advice the client follows.
        retrying = {"overload_retries": 12, "retry_base_delay": 0.02, "retry_seed": 7}
        with Held(campaign, max_in_flight=2, max_queue_depth=1) as held:
            for row in tagged(campaign, 5):
                held.ask(campaign.key, retrying, results=row)
            results = held.release()
            stats = held.stats()
        errors = [r for r in results if isinstance(r, ServerError)]
        assert not errors, f"retrying clients still saw errors: {errors[:2]}"
        assert all(r["status"] == "ok" for r in results)
        # the server really did shed — the retries are what hid it
        assert stats["shed"] >= 4

    def test_backoff_schedule_is_bounded_and_deterministic(self):
        import random

        from repro.serve import overload_backoff

        rng = random.Random(3)
        delays = [
            overload_backoff(
                a, base_delay=0.05, max_delay=0.4, jitter=0.5, rng=rng
            )
            for a in range(1, 8)
        ]
        # jitter keeps every delay within +/-50% of the raw exponential
        raw = [min(0.05 * 2.0 ** (a - 1), 0.4) for a in range(1, 8)]
        for got, want in zip(delays, raw):
            assert 0.5 * want <= got <= 1.5 * want
        assert max(delays) <= 0.4 * 1.5
        # same seed -> same schedule
        rng2 = random.Random(3)
        again = [
            overload_backoff(
                a, base_delay=0.05, max_delay=0.4, jitter=0.5, rng=rng2
            )
            for a in range(1, 8)
        ]
        assert delays == again

    def test_unknown_key_is_not_found(self, campaign):
        with serve(campaign) as thread:
            with PredictionClient(*thread.address) as client:
                with pytest.raises(ServerError) as err:
                    client.predict("f" * 16, results=campaign.rows[0])
        assert err.value.server_status == "not_found"

    def test_malformed_requests_are_bad_request(self, campaign):
        with serve(campaign) as thread:
            with PredictionClient(*thread.address) as client:
                no_key = client.request({"op": "predict", "results": {}})
                assert no_key["status"] == "bad_request"
                both = client.request(
                    {
                        "op": "predict",
                        "key": campaign.key,
                        "results": {},
                        "data": {"x": 1},
                    }
                )
                assert both["status"] == "bad_request"
                unknown = client.request({"op": "frobnicate"})
                assert unknown["status"] == "bad_request"
                client._sock.sendall(b"this is not json\n")
                garbage = json.loads(client._rfile.readline())
                assert garbage["status"] == "bad_request"

    def test_request_ids_echo_back(self, campaign):
        with serve(campaign) as thread:
            with PredictionClient(*thread.address) as client:
                response = client.request({"op": "ping", "id": "req-42"})
        assert response["id"] == "req-42"


class TestRefreshOp:
    """Registry invalidation push: a re-publish flips live servers."""

    def _copied_registry(self, campaign, tmp_path):
        import shutil

        root = tmp_path / "registry-copy"
        shutil.copytree(campaign.registry.root, root)
        return ModelRegistry(str(root))

    def test_refresh_flips_live_server_to_republished_version(
        self, campaign, tmp_path
    ):
        registry = self._copied_registry(campaign, tmp_path)
        model = registry.load(campaign.key)
        row = campaign.rows[0]
        with ServerThread(PredictionServer(registry)) as thread:
            with PredictionClient(*thread.address) as client:
                first = client.predict(campaign.key, results=row)
                assert first["version"] == model.version
                receipt = registry.publish(
                    model.scheme,
                    model.manifest["compressor"],
                    model.manifest["compressor_options"],
                    model.predictor,
                )
                assert receipt.key == campaign.key
                assert receipt.version != model.version
                # The warm cache still serves the old generation...
                stale = client.predict(campaign.key, results=row)
                assert stale["version"] == model.version
                # ...until a refresh re-reads LATEST and evicts it.
                refreshed = client.refresh()
                assert refreshed[campaign.key] == receipt.version
                fresh = client.predict(campaign.key, results=row)
                assert fresh["version"] == receipt.version
                assert client.stats()["refreshes"] == 1

    @pytest.mark.parametrize("kind", ["results", "data"])
    def test_refresh_during_the_pause_reaches_that_batch(
        self, campaign, tmp_path, monkeypatch, kind
    ):
        # A predict admitted before a refresh and detached after it is
        # answered by the refreshed version.  The coalescing pause is
        # gated on events: it lasts exactly until the refresh has replied.
        registry = self._copied_registry(campaign, tmp_path)
        model = registry.load(campaign.key)
        paused, resume = threading.Event(), threading.Event()
        sleep = asyncio.sleep

        async def gated(delay, result=None):
            if delay != server_module._COALESCE_S:
                return await sleep(delay, result)
            paused.set()
            await asyncio.to_thread(resume.wait, 30)
            return result

        query = {kind: campaign.rows[0] if kind == "results" else raw_field(9)}
        with ServerThread(PredictionServer(registry)) as thread:
            with PredictionClient(*thread.address) as client:
                # A lone connection: warmed without a pause.
                assert client.predict(campaign.key, **query)["version"] == model.version
                receipt = registry.publish(
                    model.scheme,
                    model.manifest["compressor"],
                    model.manifest["compressor_options"],
                    model.predictor,
                )
                monkeypatch.setattr(asyncio, "sleep", gated)
                with PredictionClient(*thread.address) as control, \
                        ThreadPoolExecutor(1) as pool:
                    control.ping()  # a second open connection: the drain pauses
                    reply = pool.submit(client.predict, campaign.key, **query)
                    assert paused.wait(30), "the drain never paused"
                    assert control.refresh()[campaign.key] == receipt.version
                    resume.set()
                    assert reply.result(30)["version"] == receipt.version

    def test_refresh_without_republish_keeps_warm_model(self, campaign):
        with serve(campaign) as thread:
            with PredictionClient(*thread.address) as client:
                before = client.predict(campaign.key, results=campaign.rows[0])
                response = client.request({"op": "refresh", "key": campaign.key})
                assert response["status"] == "ok"
                assert response["evicted"] == 0
                assert response["refreshed"] == {campaign.key: before["version"]}
                # Still a cache hit: the valid warm model survived.
                after = client.predict(campaign.key, results=campaign.rows[0])
                assert after["version"] == before["version"]
                stats = client.stats()
                assert stats["cache_misses"] == 1

    def test_refresh_rejects_empty_key(self, campaign):
        with serve(campaign) as thread:
            with PredictionClient(*thread.address) as client:
                with pytest.raises(ServerError) as err:
                    client.refresh(key="")
        assert err.value.server_status == "bad_request"


class TestObserveAndDriftOps:
    """The observability half of the loop: ground truth flows back in
    via ``observe``, drift state flows out via ``drift`` and ``stats``."""

    def test_observe_feeds_monitor_and_counts(self, campaign):
        with serve(campaign, drift_config=FAST_DRIFT) as thread:
            with PredictionClient(*thread.address) as client:
                resp = client.predict(campaign.key, results=campaign.rows[0])
                snap = client.observe(
                    campaign.key,
                    resp["prediction"],
                    resp["prediction"],
                    version=resp["version"],
                )
                assert snap["observations"] == 1
                assert snap["version"] == resp["version"]
                assert snap["fired"] is False
                stats = client.stats()
                assert stats["observations"] == 1
                assert stats["drift_fires"] == 0
                assert stats["stale_keys"] == []

    def test_observe_validates_inputs(self, campaign):
        with serve(campaign, drift_config=FAST_DRIFT) as thread:
            with PredictionClient(*thread.address) as client:
                no_key = client.request(
                    {"op": "observe", "prediction": 1.0, "truth": 1.0}
                )
                assert no_key["status"] == "bad_request"
                bad_num = client.request(
                    {
                        "op": "observe",
                        "key": campaign.key,
                        "prediction": "wat",
                        "truth": 1.0,
                    }
                )
                assert bad_num["status"] == "bad_request"

    def test_drift_fire_marks_key_stale_until_rollover(
        self, campaign, tmp_path
    ):
        import shutil

        root = tmp_path / "registry-copy"
        shutil.copytree(campaign.registry.root, root)
        registry = ModelRegistry(str(root))
        model = registry.load(campaign.key)
        row = campaign.rows[0]
        with ServerThread(
            PredictionServer(registry, drift_config=FAST_DRIFT)
        ) as thread:
            with PredictionClient(*thread.address) as client:
                snap = force_drift(client, campaign.key, row)
                assert snap["fired_version"] == model.version
                stats = client.stats()
                assert stats["drift_fires"] == 1
                assert campaign.key in stats["stale_keys"]
                body = client.drift()
                assert body["monitors"][campaign.key]["stale"] is True
                assert campaign.key in body["stale_keys"]
                # the fired monitor latches: more truth cannot clear it
                client.observe(campaign.key, 1.0, 1.0)
                assert campaign.key in client.stats()["stale_keys"]
                # rollover: republish + refresh clears staleness and re-arms
                receipt = registry.publish(
                    model.scheme,
                    model.manifest["compressor"],
                    model.manifest["compressor_options"],
                    model.predictor,
                )
                refreshed = client.refresh()
                assert refreshed[campaign.key] == receipt.version
                stats = client.stats()
                assert stats["stale_keys"] == []
                body = client.drift()
                monitor = body["monitors"][campaign.key]
                assert monitor["fired"] is False
                assert monitor["version"] == receipt.version
                assert monitor["calibrated"] is False  # recalibrating

    def test_observe_for_new_version_rearms_monitor(self, campaign):
        with serve(campaign, drift_config=FAST_DRIFT) as thread:
            with PredictionClient(*thread.address) as client:
                force_drift(client, campaign.key, campaign.rows[0])
                # ground truth for a different generation re-arms
                snap = client.observe(
                    campaign.key, 1.0, 1.0, version="v9999"
                )
                assert snap["fired"] is False
                assert snap["version"] == "v9999"
                assert snap["observations"] == 1

    def test_drift_configure_replaces_config_and_rearms(self, campaign):
        with serve(campaign, drift_config=FAST_DRIFT) as thread:
            with PredictionClient(*thread.address) as client:
                client.observe(campaign.key, 1.0, 1.0)
                body = client.drift(
                    configure={"window": 16, "hysteresis": 5, "calibration": 8}
                )
                assert body["monitors"][campaign.key]["observations"] == 0
                bad = client.request(
                    {"op": "drift", "configure": {"nonsense": 1}}
                )
                assert bad["status"] == "bad_request"
                tighter = client.request(
                    {"op": "drift", "configure": {"window": 0}}
                )
                assert tighter["status"] == "bad_request"


class TestQuarantinedVersionEviction:
    """A version quarantined on disk must not survive in the warm LRU —
    not even pinned — once a refresh announces the new world."""

    def test_refresh_evicts_pinned_quarantined_version(
        self, campaign, tmp_path
    ):
        import os
        import shutil

        root = tmp_path / "registry-copy"
        shutil.copytree(campaign.registry.root, root)
        registry = ModelRegistry(str(root))
        model = registry.load(campaign.key)
        row = campaign.rows[0]
        # two generations, so quarantining the latest leaves a fallback
        receipt = registry.publish(
            model.scheme,
            model.manifest["compressor"],
            model.manifest["compressor_options"],
            model.predictor,
        )
        with ServerThread(PredictionServer(registry)) as thread:
            with PredictionClient(*thread.address) as client:
                client.refresh()
                # warm BOTH a follow-latest and a pinned entry for v-new
                assert (
                    client.predict(campaign.key, results=row)["version"]
                    == receipt.version
                )
                pinned = client.predict(
                    campaign.key, results=row, version=receipt.version
                )
                assert pinned["version"] == receipt.version
                # the blob rots at rest; a registry-side load quarantines it
                registry.damage_version(campaign.key, receipt.version)
                healed = registry.load(campaign.key)
                assert healed.version == model.version
                assert receipt.version not in registry.versions(campaign.key)
                # refresh: the pinned ghost must be evicted with the rest
                refreshed = client.refresh()
                assert refreshed[campaign.key] == model.version
                assert (
                    client.predict(campaign.key, results=row)["version"]
                    == model.version
                )
                with pytest.raises(ServerError) as err:
                    client.predict(
                        campaign.key, results=row, version=receipt.version
                    )
                assert err.value.server_status in ("not_found", "error")
