"""Tests for stable option hashing (checkpoint key stability)."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PressioOptions, combined_hash, options_hash
from repro.core.hashing import EncodedItems, HashedOptions, canonical_bytes

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)


class TestDeterminism:
    def test_same_options_same_hash(self):
        a = PressioOptions({"pressio:abs": 1e-4, "sz3:predictor": "lorenzo"})
        b = PressioOptions({"sz3:predictor": "lorenzo", "pressio:abs": 1e-4})
        assert options_hash(a) == options_hash(b)

    def test_different_value_different_hash(self):
        a = options_hash({"pressio:abs": 1e-4})
        b = options_hash({"pressio:abs": 1e-6})
        assert a != b

    def test_type_distinguished(self):
        assert options_hash({"k": 1}) != options_hash({"k": 1.0})
        assert options_hash({"k": 1}) != options_hash({"k": "1"})
        assert options_hash({"k": True}) != options_hash({"k": 1})

    def test_opaque_entries_ignored(self):
        base = options_hash({"a": 1})
        with_cb = options_hash({"a": 1, "cb": (lambda: None)})
        assert base == with_cb

    def test_cross_process_stability(self):
        """The whole point: hashes must survive interpreter restarts."""
        code = (
            "from repro.core import options_hash;"
            "print(options_hash({'pressio:abs': 1e-4, 's': 'x', 'n': 3}))"
        )
        out1 = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        here = options_hash({"pressio:abs": 1e-4, "s": "x", "n": 3})
        assert out1.stdout.strip() == here

    def test_array_values_hashable(self):
        a = options_hash({"arr": np.arange(5)})
        b = options_hash({"arr": np.arange(5)})
        c = options_hash({"arr": np.arange(6)})
        assert a == b != c

    def test_nested_structures(self):
        a = options_hash({"cfg": {"x": [1, 2, {"y": 3}]}})
        b = options_hash({"cfg": {"x": [1, 2, {"y": 3}]}})
        c = options_hash({"cfg": {"x": [1, 2, {"y": 4}]}})
        assert a == b != c


class TestCanonicalEncoding:
    def test_container_scalar_no_collision(self):
        assert canonical_bytes({"k": [1]}) != canonical_bytes({"k": 1})

    def test_list_order_matters(self):
        assert canonical_bytes({"k": [1, 2]}) != canonical_bytes({"k": [2, 1]})

    def test_empty_variants_differ(self):
        assert canonical_bytes({"k": []}) != canonical_bytes({"k": {}})
        assert canonical_bytes({"k": ""}) != canonical_bytes({"k": b""})

    @given(st.dictionaries(st.text(min_size=1, max_size=10), scalars, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_hash_is_deterministic_property(self, mapping):
        assert options_hash(mapping) == options_hash(dict(mapping))

    @given(
        st.dictionaries(st.text(min_size=1, max_size=8), scalars, min_size=1, max_size=4),
        st.text(min_size=1, max_size=8),
        scalars,
    )
    @settings(max_examples=50, deadline=None)
    def test_value_change_changes_hash(self, mapping, key, new_value):
        base = options_hash(mapping)
        changed = dict(mapping)
        changed[key] = new_value
        if changed != mapping:
            assert options_hash(changed) != base


#: Values a hash skips: an opaque handle, and a list holding one.
unstable = st.sampled_from([lambda: None, object(), [1, object()]])
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.dictionaries(st.text(max_size=4), scalars, max_size=3),
    unstable,
)


class TestSplicedItem:
    """``EncodedItems.of(base).with_item(k, v)`` is the part of
    ``{**base, k: v}``: what ``build_tasks`` derives each dataset
    entry's part from."""

    @given(
        st.dictionaries(st.text(max_size=8), values, max_size=6),
        st.data(),
        values,
    )
    @settings(max_examples=200, deadline=None)
    def test_splice_equals_the_walk(self, base, data, value):
        key = data.draw(st.one_of(
            st.text(max_size=8),
            st.sampled_from(sorted(base) or [""]),  # a key already in base
            st.integers(),  # non-string keys are not hashed
            st.tuples(st.text(max_size=2)),
        ))
        spliced = EncodedItems.of(base).with_item(key, value)
        assert spliced == HashedOptions.of({**base, key: value})

    def test_splice_replaces_and_drops(self):
        base = {"a": 1, "entry:data_id": "x", "z": [1.5]}
        items = EncodedItems.of(base)
        assert items.with_item("entry:data_id", "y") == HashedOptions.of(
            {**base, "entry:data_id": "y"}
        )
        assert items.with_item("entry:data_id", object()) == HashedOptions.of(
            {"a": 1, "z": [1.5]}
        )
        assert items.with_item(3, "y") == HashedOptions.of(base)


class TestCombinedHash:
    def test_part_order_matters(self):
        a = combined_hash({"x": 1}, {"y": 2})
        b = combined_hash({"y": 2}, {"x": 1})
        assert a != b

    def test_replicate_distinguishes(self):
        a = combined_hash({"x": 1}, "rep0")
        b = combined_hash({"x": 1}, "rep1")
        assert a != b

    def test_mixed_parts(self):
        h = combined_hash({"x": 1}, "meta", PressioOptions({"y": 2}))
        assert len(h) == 64
        assert h == combined_hash({"x": 1}, "meta", {"y": 2})
