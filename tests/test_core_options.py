"""Tests for PressioOptions: typing, namespaces, stable items."""

import numpy as np
import pytest

from repro.core import OptionError, PressioOptions
from repro.core.options import as_options, is_stable_value


class TestBasicMapping:
    def test_set_get(self):
        opts = PressioOptions({"pressio:abs": 1e-4})
        assert opts["pressio:abs"] == 1e-4

    def test_len_iter_contains(self):
        opts = PressioOptions({"a:x": 1, "b:y": 2})
        assert len(opts) == 2
        assert set(opts) == {"a:x", "b:y"}
        assert "a:x" in opts and "c:z" not in opts

    def test_get_default(self):
        opts = PressioOptions()
        assert opts.get("missing", 42) == 42

    def test_delete(self):
        opts = PressioOptions({"a:x": 1})
        del opts["a:x"]
        assert "a:x" not in opts

    def test_non_string_key_rejected(self):
        opts = PressioOptions()
        with pytest.raises(OptionError):
            opts[42] = 1  # type: ignore[index]

    def test_equality_with_dict(self):
        assert PressioOptions({"a:x": 1}) == {"a:x": 1}
        assert PressioOptions({"a:x": 1}) == PressioOptions({"a:x": 1})
        assert PressioOptions({"a:x": 1}) != PressioOptions({"a:x": 2})

    def test_copy_is_independent(self):
        opts = PressioOptions({"a:x": 1})
        dup = opts.copy()
        dup["a:x"] = 2
        assert opts["a:x"] == 1


class TestValueTypes:
    """A value is stored as given: no declared type casts or rejects it,
    so the hash of an option set sees exactly what the caller set."""

    @pytest.mark.parametrize("value", [1, -3, 1.5, 1e-4, True, False, "hello"])
    def test_value_keeps_its_type(self, value):
        opts = PressioOptions()
        opts["demo:x"] = value
        assert opts["demo:x"] == value
        assert type(opts["demo:x"]) is type(value)
        assert opts.stable_items() == [("demo:x", value)]


class TestNamespacesAndMerge:
    def test_namespace_selection(self):
        opts = PressioOptions({"sz3:a": 1, "zfp:b": 2, "sz3:c": 3})
        sub = opts.namespace("sz3")
        assert sub.to_dict() == {"sz3:a": 1, "sz3:c": 3}

    def test_merge_overwrites(self):
        opts = PressioOptions({"a:x": 1})
        opts.merge({"a:x": 2, "a:y": 3})
        assert opts["a:x"] == 2 and opts["a:y"] == 3

    def test_updated_kwargs_translate_dunder(self):
        opts = PressioOptions({"pressio:abs": 1e-4})
        out = opts.updated(pressio__abs=1e-6)
        assert out["pressio:abs"] == 1e-6
        assert opts["pressio:abs"] == 1e-4  # original untouched


class TestStability:
    def test_stable_scalars(self):
        for value in (1, 1.5, "s", b"b", True, None, np.float64(2.0)):
            assert is_stable_value(value)

    def test_unstable_values(self):
        assert not is_stable_value(lambda: None)
        assert not is_stable_value(open)
        assert not is_stable_value(np.random.default_rng(0))

    def test_nested_containers(self):
        assert is_stable_value([1, 2, {"k": "v"}])
        assert not is_stable_value([1, lambda: None])

    def test_stable_items_excludes_opaque(self):
        opts = PressioOptions({"a:x": 1, "a:cb": (lambda: None)})
        keys = [k for k, _ in opts.stable_items()]
        assert keys == ["a:x"]

    def test_stable_items_sorted(self):
        opts = PressioOptions({"b:y": 2, "a:x": 1})
        assert [k for k, _ in opts.stable_items()] == ["a:x", "b:y"]


def test_as_options_coercion():
    assert as_options(None).to_dict() == {}
    assert as_options({"a:x": 1})["a:x"] == 1
    opts = PressioOptions({"a:x": 1})
    assert as_options(opts) is opts
