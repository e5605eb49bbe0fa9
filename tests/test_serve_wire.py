"""The query wire: a JSON header line, then the field's raw bytes.

A raw-field predict announces its body in an array header
``{dtype, shape, order, nbytes}``; the server checks that header before
it reads or allocates a byte of the body.  These tests hold the frame to
that: every hostile header gets one ``bad_request`` and a closed
connection, fast, without a buffer sized from what the header claims,
and the server keeps answering other connections.  They also pin what
rides on the frame: the fingerprint the client memoises is the one the
server computes, and the featurization cache's row file is written
after the reply, never in its way.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.runner import ExperimentRunner
from repro.dataset import HurricaneDataset
from repro.predict.scheme import get_scheme
from repro.serve import (
    EncodedArray,
    FeaturizationCache,
    ModelRegistry,
    PredictionClient,
    PredictionServer,
    ServerThread,
    StateSerializationError,
    check_array_header,
    content_fingerprint,
    decode_array,
    encode_array,
    registry_key,
    scheme_params,
)

LIMIT = 4 << 20  # the servers' stream_limit here: 4 MiB
ITEMS = LIMIT // 4  # float32 values in a LIMIT-sized body
SHAPE = (16, 16, 8)
WIRE_DTYPES = ["|i1", "|u1", "<i2", "<u2", "<i4", "<u4", "<i8", "<u8", "<f2", "<f4", "<f8"]


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One published rahman2023/sz3 model."""
    dataset = HurricaneDataset(shape=SHAPE, timesteps=[0], fields=["P", "U", "QRAIN", "CLOUD"])
    scheme = get_scheme("rahman2023", n_estimators=5, max_depth=4, augment_factor=1.0)
    runner = ExperimentRunner(
        dataset, compressors=["sz3"], bounds=[1e-3], schemes=[scheme], n_folds=2
    )
    registry = ModelRegistry(str(tmp_path_factory.mktemp("wire-registry")))
    runner.publish(registry, runner.collect().observations)
    runner.close()
    key = registry_key(
        scheme.id, "sz3", {"pressio:abs": 1e-3, "pressio:abs_is_relative": True},
        scheme_params(scheme),
    )
    return SimpleNamespace(registry=registry, key=key)


@pytest.fixture(scope="module")
def bare_server(tmp_path_factory):
    """A server over an empty registry: the frame is checked before any
    model is looked up, so hostile headers need no published model."""
    registry = ModelRegistry(str(tmp_path_factory.mktemp("empty-registry")))
    with ServerThread(PredictionServer(registry, stream_limit=LIMIT)) as thread:
        yield thread


def field(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(SHAPE).astype(np.float32)


def frame(header, body: bytes = b"", key: str = "f" * 16) -> bytes:
    line = json.dumps({"op": "predict", "key": key, "data": header}) + "\n"
    return line.encode("utf-8") + body


def exchange(address, message: bytes, *, shut_write: bool = False, timeout: float = 1.0):
    """Send *message*, read to EOF; return (replies, seconds).  A server
    that neither answers nor closes within *timeout* fails the test."""
    with socket.create_connection(address, timeout=timeout) as sock:
        t0 = time.monotonic()
        sock.sendall(message)
        if shut_write:
            sock.shutdown(socket.SHUT_WR)
        received = b""
        while chunk := sock.recv(1 << 16):
            received += chunk
        elapsed = time.monotonic() - t0
    return [json.loads(line) for line in received.splitlines()], elapsed


def still_serving(address) -> bool:
    with PredictionClient(*address, timeout=1.0) as client:
        return bool(client.request({"op": "ping"}).get("pong"))


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


# -- the header check, on its own -------------------------------------------------

dims = st.one_of(
    st.integers(-3, 1 << 18),
    st.booleans(),
    st.floats(-2.0, 1e6, allow_nan=False),
    st.text(max_size=2),
)
headers = st.fixed_dictionaries(
    {
        "dtype": st.one_of(
            st.sampled_from(WIRE_DTYPES + ["O", "|O", ">f4", "<c8", "f4", "float32", "V8"]),
            st.text(max_size=4),
            st.integers(),
        ),
        "shape": st.one_of(st.lists(dims, max_size=4), st.integers(), st.none()),
        "order": st.one_of(st.sampled_from(["C", "F", "A", "K", "c", ""]), st.none()),
        "nbytes": st.one_of(
            st.integers(-2, 4 * LIMIT), st.booleans(), st.floats(0, 1e7), st.text(max_size=3)
        ),
    },
    optional={"__ndarray__": st.text(max_size=4)},
)


@st.composite
def consistent_headers(draw):
    """Headers whose nbytes agrees with the shape (possibly over LIMIT)."""
    dtype = draw(st.sampled_from(WIRE_DTYPES))
    shape = draw(st.lists(st.integers(0, 96), max_size=4))
    itemsize = np.dtype(dtype).itemsize
    return {
        "dtype": dtype,
        "shape": shape,
        "order": draw(st.sampled_from(["C", "F"])),
        "nbytes": int(np.prod(shape, dtype=np.int64)) * itemsize,
    }


class TestHeaderCheck:
    @settings(max_examples=400, deadline=None)
    @given(headers | consistent_headers())
    def test_accepts_only_consistent_bounded_headers(self, header):
        try:
            canon = check_array_header(header, LIMIT)
        except StateSerializationError:
            return
        assert canon == header  # nothing to normalise in a header it takes
        assert header["dtype"] in WIRE_DTYPES
        assert all(type(dim) is int and dim >= 0 for dim in header["shape"])
        count = 1
        for dim in header["shape"]:
            count *= dim
        assert count * np.dtype(header["dtype"]).itemsize == header["nbytes"] <= LIMIT
        arr = decode_array(EncodedArray(canon, bytes(canon["nbytes"])))
        assert list(arr.shape) == header["shape"]

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(WIRE_DTYPES),
        st.lists(st.integers(0, 6), min_size=1, max_size=3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip_through_json(self, dtype, shape, fortran, seed):
        raw = np.random.default_rng(seed).bytes(int(np.prod(shape)) * np.dtype(dtype).itemsize)
        arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        if fortran:
            arr = np.asfortranarray(arr)
        sent = encode_array(arr)
        header = check_array_header(json.loads(json.dumps(sent)), LIMIT)
        received = EncodedArray(header, sent.body)
        assert header == dict(sent)
        back = decode_array(received)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()  # bit-exact, NaNs included
        assert content_fingerprint(received) == content_fingerprint(sent)

    def test_big_endian_fields_travel_little_endian(self):
        arr = np.arange(6, dtype=">f8").reshape(2, 3)
        sent = encode_array(arr)
        assert sent["dtype"] == "<f8"
        assert np.array_equal(decode_array(sent), arr)

    @pytest.mark.parametrize("arr", [np.array([{}, None]), np.zeros(3, np.complex64)])
    def test_encode_refuses_what_the_wire_does_not_carry(self, arr):
        with pytest.raises(StateSerializationError):
            encode_array(arr)

    def test_decode_refuses_a_body_of_the_wrong_length(self):
        sent = encode_array(np.zeros(4, np.float32))
        with pytest.raises(StateSerializationError):
            decode_array(EncodedArray(sent, sent.body[:-1]))


# -- hostile frames against a live server ---------------------------------------------

HOSTILE = {
    # Every header below claims LIMIT bytes or more, so a buffer sized
    # from it would show in the allocation peak (whose floor is asyncio's
    # 256 KiB socket read).
    "unknown dtype": {"dtype": "<c32", "shape": [LIMIT // 32], "order": "C", "nbytes": LIMIT},
    "object dtype": {"dtype": "O", "shape": [LIMIT // 8], "order": "C", "nbytes": LIMIT},
    "object dtype, spelt": {"dtype": "|O", "shape": [LIMIT // 8], "order": "C", "nbytes": LIMIT},
    "shape disagrees": {"dtype": "<f4", "shape": [1000], "order": "C", "nbytes": LIMIT},
    "over the limit": {"dtype": "<f4", "shape": [ITEMS + 1], "order": "C", "nbytes": LIMIT + 4},
    # Each of these has a product that does match nbytes: only the
    # per-dimension type and sign checks refuse them.
    "negative dims": {"dtype": "<f4", "shape": [-ITEMS, -1], "order": "C", "nbytes": LIMIT},
    "bool dim": {"dtype": "<f4", "shape": [True, ITEMS], "order": "C", "nbytes": LIMIT},
    "float dim": {"dtype": "<f4", "shape": [float(ITEMS)], "order": "C", "nbytes": LIMIT},
    "string nbytes": {"dtype": "<f4", "shape": [ITEMS], "order": "C", "nbytes": str(LIMIT)},
    "bad order": {"dtype": "<f4", "shape": [ITEMS], "order": "K", "nbytes": LIMIT},
    "extra key": {"dtype": "<f4", "shape": [ITEMS], "order": "C", "nbytes": LIMIT, "x": 1},
    "old base64 payload": {
        "__ndarray__": "AAAAAA==", "dtype": "<f4", "shape": [1], "order": "C",
    },
    "not an object": [LIMIT],
}


class TestHostileFrames:
    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_refused_fast_without_reading_and_server_survives(self, bare_server, case):
        tracemalloc.start()
        try:
            replies, elapsed = exchange(bare_server.address, frame(HOSTILE[case]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r["status"] for r in replies] == ["bad_request"], replies
        assert "array header" in replies[0]["error"]
        assert elapsed < 1.0
        assert peak < LIMIT // 4, f"{peak} bytes allocated for a refused header"
        assert still_serving(bare_server.address)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(headers)
    def test_any_refused_header_is_one_bad_request_and_a_close(self, bare_server, header):
        try:
            check_array_header(header, LIMIT)
        except StateSerializationError:
            replies, elapsed = exchange(bare_server.address, frame(header))
            assert [r["status"] for r in replies] == ["bad_request"]
            assert elapsed < 1.0

    def test_body_cut_short_by_a_client_close(self, bare_server):
        body = encode_array(np.zeros(1024, np.float32))
        replies, elapsed = exchange(
            bare_server.address, frame(body, body.body[:100]), shut_write=True
        )
        assert replies == []  # a clean close: there was no request to answer
        assert elapsed < 1.0
        assert still_serving(bare_server.address)

    def test_body_longer_than_announced(self, bare_server):
        """The surplus is read as the next request line: not JSON, so the
        frame is lost and the connection closes after one refusal."""
        sent = encode_array(np.arange(64, dtype=np.float32))
        replies, elapsed = exchange(
            bare_server.address, frame(sent, sent.body + b"\x00\x01surplus\n")
        )
        assert [r["status"] for r in replies] == ["not_found", "bad_request"]
        assert replies[1]["error"] == "invalid JSON"
        assert elapsed < 1.0
        assert still_serving(bare_server.address)

    def test_a_well_formed_frame_keeps_the_connection(self, bare_server):
        """After a frame whose body matches its header, the next line is
        the next request."""
        sent = encode_array(np.arange(64, dtype=np.float32))
        replies, _ = exchange(
            bare_server.address, frame(sent, sent.body) + b'{"op": "ping"}\n', shut_write=True
        )
        assert [r["status"] for r in replies] == ["not_found", "ok"]


# -- what rides on the frame -----------------------------------------------------------


class TestFingerprintAgreement:
    def test_client_memo_is_the_server_fingerprint(self, campaign):
        payload = encode_array(field(1))
        server = PredictionServer(campaign.registry, feat_cache=FeaturizationCache())
        with ServerThread(server) as thread, PredictionClient(*thread.address) as client:
            first = client.predict(campaign.key, data=payload)
            ref = client._fingerprint(payload)
            # What the server parses off the wire hashes to the memo ...
            parsed = EncodedArray(
                check_array_header(json.loads(json.dumps(payload)), LIMIT), payload.body
            )
            assert content_fingerprint(parsed) == ref
            # ... and it is the name the server stored the row under.
            by_ref = client.request({"op": "predict", "key": campaign.key, "data_ref": ref})
        assert first["cached"] and by_ref["status"] == "ok"
        assert by_ref["prediction"] == first["prediction"]


class TestRowFileAfterTheReply:
    def test_reply_does_not_wait_for_the_row_file(self, campaign, tmp_path):
        """The row-file write is held until after the reply: a reply that
        waited for it would take the hook's whole 10 s."""
        release = threading.Event()
        cache = FeaturizationCache(
            shared_dir=str(tmp_path / "rows"), fault_hook=lambda key: release.wait(10)
        )
        server = PredictionServer(campaign.registry, feat_cache=cache)
        with ServerThread(server) as thread, PredictionClient(*thread.address) as client:
            t0 = time.monotonic()
            reply = client.predict(campaign.key, data=field(2))
            elapsed = time.monotonic() - t0
            release.set()
        assert reply["status"] == "ok" and reply["cached"]
        assert elapsed < 5.0

    def test_a_failed_row_write_is_counted_and_is_a_later_miss(self, campaign, tmp_path):
        shared = str(tmp_path / "rows")

        def hook(key):
            raise OSError("disk full")

        server = PredictionServer(
            campaign.registry, feat_cache=FeaturizationCache(shared_dir=shared, fault_hook=hook)
        )
        payload = encode_array(field(3))
        with ServerThread(server) as thread, PredictionClient(*thread.address) as client:
            reply = client.predict(campaign.key, data=payload)
            assert reply["status"] == "ok" and reply["cached"]
            assert wait_for(lambda: client.stats()["featcache"]["l2_write_errors"] == 1)
            stats = client.stats()
        assert stats["failed"] == 0 and stats["completed"] == 1
        key = server.feat_cache.key_for(campaign.registry.load(campaign.key), payload)
        reader = FeaturizationCache(shared_dir=shared)
        assert reader.get(key) is None  # a miss, not a torn row
        assert reader.stats()["l2_entries"] == 0  # the failed store left no row

    def test_a_sibling_reads_the_row_once_it_is_written(self, campaign, tmp_path):
        shared = str(tmp_path / "rows")
        server = PredictionServer(
            campaign.registry, feat_cache=FeaturizationCache(shared_dir=shared)
        )
        payload = encode_array(field(4))
        with ServerThread(server) as thread, PredictionClient(*thread.address) as client:
            assert client.predict(campaign.key, data=payload)["cached"]
        key = server.feat_cache.key_for(campaign.registry.load(campaign.key), payload)
        sibling = FeaturizationCache(shared_dir=shared)
        assert wait_for(lambda: sibling.get(key) is not None)
        assert sibling.get(key).tier == "l1"  # the L2 hit above was promoted

    def test_a_ref_right_after_cached_is_a_ref_hit(self, campaign, tmp_path):
        server = PredictionServer(
            campaign.registry, feat_cache=FeaturizationCache(shared_dir=str(tmp_path / "rows"))
        )
        payload = encode_array(field(5))
        with ServerThread(server) as thread, PredictionClient(*thread.address) as client:
            first = client.predict(campaign.key, data=payload)
            second = client.predict(campaign.key, data=payload)
            stats = client.stats()
        assert first["cached"] and client.ref_hits == 1
        assert second["prediction"] == first["prediction"]
        assert (stats["feat_ref_hits"], stats["feat_ref_misses"]) == (1, 0)
