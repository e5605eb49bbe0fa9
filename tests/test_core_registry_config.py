"""Tests for the plugin registry and typed option casting."""

import pytest

from repro.core import OptionError, Registry
from repro.core.options import PressioOptions


class TestRegistry:
    def test_register_and_create(self):
        reg: Registry[object] = Registry("demo")

        @reg.register("thing")
        class Thing:
            def __init__(self, value=0):
                self.value = value

        obj = reg.create("thing", value=3)
        assert obj.value == 3

    def test_unknown_name_lists_known(self):
        reg: Registry[object] = Registry("demo")
        reg.add("a", lambda: 1)
        with pytest.raises(OptionError, match="known: a"):
            reg.create("b")

    def test_names_sorted_and_len(self):
        reg: Registry[object] = Registry("demo")
        reg.add("z", lambda: 1)
        reg.add("a", lambda: 2)
        assert reg.names() == ["a", "z"]
        assert len(reg) == 2
        assert "z" in reg

    def test_reregistration_replaces(self):
        reg: Registry[object] = Registry("demo")
        reg.add("x", lambda: 1)
        reg.add("x", lambda: 2)
        assert reg.create("x") == 2


class TestCoercion:
    """A flag string becomes an option value of the option's declared
    type (§4.3's flag -> options conversion by introspection)."""

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("1", 1),
            ("-3", -3),
            ("1.5", 1.5),
            ("1e-4", 1e-4),
            ("true", True),
            ("off", False),
            ("hello", "hello"),
        ],
    )
    def test_coerce_scalar(self, raw, expected):
        opts = PressioOptions()
        opts.set_type("demo:x", type(expected))
        opts.cast_set("demo:x", raw)
        assert opts["demo:x"] == expected
        assert type(opts["demo:x"]) is type(expected)
