"""Pinned probe values: the stage probes observe the stages they model.

``golden/probe_values_v1.json`` records every probe metric's results on
Hurricane fields whose every axis is at least 16, at two bounds (see
``tests/golden_probe_values.py``).  A probe rewritten to call the codec's
own stage functions must report exactly what it reported before.
"""

from __future__ import annotations

import pytest

from tests import golden_probe_values as golden


@pytest.fixture(scope="module")
def pinned():
    return golden.load()


@pytest.fixture(scope="module")
def measured():
    return golden.current()


def test_every_pinned_probe_is_measured(pinned, measured):
    assert sorted(measured) == sorted(pinned)


@pytest.mark.parametrize("probe", [name for name, _ in golden.PROBES])
def test_probe_values_match_golden(pinned, measured, probe):
    keys = [k for k in pinned if k.endswith(f"/{probe}")]
    assert len(keys) == len(golden.RELATIVE_BOUNDS) * len(golden.golden_dataset())
    for key in keys:
        want, got = pinned[key], measured[key]
        assert sorted(got) == sorted(want), key
        for name, value in want.items():
            if isinstance(value, float):
                assert got[name] == pytest.approx(value, rel=1e-12, abs=1e-15), (key, name)
            else:
                assert got[name] == value, (key, name)
