"""Tests for the PressioData buffer abstraction."""

import numpy as np

from repro.core import PressioData, as_data


class TestConstruction:
    def test_wraps_without_copy(self):
        arr = np.arange(10, dtype=np.float32)
        buf = PressioData(arr)
        arr[0] = 99
        assert buf.array[0] == 99

    def test_copy_flag(self):
        arr = np.arange(10, dtype=np.float32)
        buf = PressioData(arr, copy=True)
        arr[0] = 99
        assert buf.array[0] == 0

    def test_from_bytes(self):
        buf = PressioData.from_bytes(b"\x01\x02\x03")
        assert buf.dtype == np.uint8 and buf.size == 3

    def test_from_bytes_keeps_payload_and_metadata(self):
        buf = PressioData.from_bytes(b"stream", metadata={"field": "P"})
        assert buf.tobytes() == b"stream" and buf.metadata == {"field": "P"}


class TestProperties:
    def test_shape_size_nbytes(self):
        buf = PressioData(np.zeros((3, 4), dtype=np.float32))
        assert buf.shape == (3, 4)
        assert buf.size == 12
        assert buf.nbytes == 48

    def test_tobytes_roundtrip(self):
        arr = np.arange(6, dtype=np.int32)
        assert np.frombuffer(PressioData(arr).tobytes(), dtype=np.int32).tolist() == list(range(6))


class TestMetadataAndIdentity:
    def test_data_id_from_provenance(self):
        buf = PressioData(np.zeros(3), metadata={"file": "f.npy", "field": "P", "timestep": 2})
        assert buf.data_id() == "f.npy/P/2"

    def test_data_id_explicit(self):
        buf = PressioData(np.zeros(3), metadata={"data_id": "custom"})
        assert buf.data_id() == "custom"

    def test_data_id_anonymous_is_stable(self):
        buf = PressioData(np.zeros(3))
        assert buf.data_id() == buf.data_id()

    def test_data_id_anonymous_is_never_reused(self):
        """CPython hands a freed wrapper's address to the next one, so an
        ``id()``-derived identity would repeat here; caches that outlive
        the buffer key on it."""
        seen = set()
        for _ in range(32):
            ident = PressioData(np.zeros(3)).data_id()  # wrapper freed at once
            assert ident not in seen
            seen.add(ident)

    def test_with_metadata_merges(self):
        buf = PressioData(np.zeros(3), metadata={"a": 1})
        out = buf.with_metadata(b=2)
        assert out.metadata == {"a": 1, "b": 2}
        assert buf.metadata == {"a": 1}


class TestDomains:
    def test_to_domain_tags(self):
        buf = PressioData(np.zeros(3))
        dev = buf.to_domain("device")
        assert dev.domain == "device" and buf.domain == "host"

    def test_moved_buffer_shares_array_and_identity(self):
        buf = PressioData(np.zeros(3), metadata={"data_id": "f/P/0"})
        dev = buf.to_domain("device")
        assert dev.array is buf.array
        assert dev.metadata == buf.metadata and dev.metadata is not buf.metadata
        assert dev.data_id() == buf.data_id()

    def test_same_domain_returns_self(self):
        buf = PressioData(np.zeros(3))
        assert buf.to_domain("host") is buf


def test_as_data_passthrough_and_wrap():
    buf = PressioData(np.zeros(2))
    assert as_data(buf) is buf
    assert isinstance(as_data(np.zeros(2)), PressioData)
