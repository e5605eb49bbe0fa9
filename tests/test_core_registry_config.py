"""Tests for the plugin registry."""

import pytest

from repro.core import OptionError, Registry


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
