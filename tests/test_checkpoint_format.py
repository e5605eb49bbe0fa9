"""The checkpoint row format: values per row, one column list per shape.

A row stores ``[column_set_id, v1, …, vn]``; the ``columns`` table holds
each ordered key list once, with a checksum.  These tests pin what that
must not change — every read returns exactly what a JSON object row
returned, key order included — and what it must refuse: a row whose
column set is damaged, unknown or of another length never comes back,
and never under the wrong keys.

``golden/checkpoint_rows_v1.json`` holds six rows exactly as the build
before column sets wrote them (a ``collect`` of the argv it records),
plus that build's ``report --json`` Table 2 without the two columns it
times live (fit, inference).  It must not be regenerated: the rows are
the format this build has to keep reading.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import os
import sqlite3
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import CheckpointStore, ExperimentRunner, TaskQueue
from repro.bench.checkpoint import _INSERT_SQL, _jsonable, payload_checksum
from repro.bench.cli import _dataset, _runner, build_parser, main
from repro.dataset import HurricaneDataset

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "checkpoint_rows_v1.json")
#: The Table 2 columns timed while the report runs, not read from rows.
LIVE_COLUMNS = ("fit_ms", "inference_ms")


def canonical(payload) -> str:
    """The stored payload as the object-row format read it back."""
    return json.dumps(json.loads(json.dumps(_jsonable(dict(payload)))))


def same(read, want: str) -> bool:
    """*read* is the object row *want*: as JSON text (key order, int vs
    float, bool vs int) and as a value (string keys)."""
    return json.dumps(read) == want and read == json.loads(want)


def insert(path: str, rows) -> None:
    """*rows* (key, 3 hashes, replicate, payload, checksum) written by SQL."""
    with contextlib.closing(sqlite3.connect(path)) as db:
        db.executemany(_INSERT_SQL, [(*r[:6], 0.0, r[6]) for r in rows])
        db.commit()


def stored_rows(path: str) -> dict[str, str]:
    with contextlib.closing(sqlite3.connect(path)) as db:
        return dict(db.execute("SELECT key, payload FROM results"))


def column_sets(path: str) -> dict[int, list[str]]:
    with contextlib.closing(sqlite3.connect(path)) as db:
        return {cid: json.loads(names) for cid, names in db.execute("SELECT id, names FROM columns")}


# -- differential oracle ---------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.floats(allow_nan=True, width=32).map(np.float32),
    st.floats(allow_nan=True).map(np.float64),
    st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.floats(allow_nan=True), max_size=4).map(lambda v: np.asarray(v, dtype=np.float64)),
    st.lists(st.integers(-9, 9), max_size=4).map(lambda v: np.asarray(v, dtype=np.int32)),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)
_keys = st.one_of(st.text(max_size=10), st.integers(-3, 3), st.booleans(), st.none())
payloads = st.dictionaries(_keys, _values, max_size=8)


def _one_task_runner(store: CheckpointStore) -> ExperimentRunner:
    dataset = HurricaneDataset(shape=(4, 4, 4), timesteps=[0], fields=["P"])
    return ExperimentRunner(
        dataset, compressors=("szx",), bounds=(1e-4,), schemes=("khan2023",),
        store=store, queue=TaskQueue(1, "serial"),
    )


class TestDifferentialOracle:
    """Every read path returns ``json.loads(json.dumps(_jsonable(p)))``,
    compared as JSON text so key order, int/float and bool/int count."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=payloads, other=payloads)
    def test_every_read_returns_the_object_row(self, tmp_path_factory, payload, other):
        want = canonical(payload)
        path = str(tmp_path_factory.mktemp("oracle") / "o.db")
        with CheckpointStore(path, flush_every=100) as store:
            store.put("p", payload, compressor_hash="c")
            store.put("q", other, compressor_hash="d")
            assert same(store.get("p"), want)  # buffered
            assert same(store.scan().payloads["p"], want)
            store.flush()
            assert same(store.get("p"), want)  # committed
            assert same(store.scan().payloads["p"], want)
            [queried] = store.query(compressor_hash="c")
            assert same(queried, want)
            assert same(store.get("q"), canonical(other))
            # An object row, as the build before column sets wrote it.
            legacy = json.dumps(_jsonable(dict(payload)))
            insert(path, [("old", "", "", "", 0, legacy, payload_checksum(legacy))])
            assert same(store.get("old"), want)
            assert same(store.scan().payloads["old"], want)
        with CheckpointStore(path) as fresh:  # a new handle learns the sets
            assert same(fresh.get("p"), want)
            assert fresh.verify() == []

    @settings(max_examples=25, deadline=None)
    @given(payload=payloads)
    def test_collect_observations_are_the_object_row(self, payload):
        store = CheckpointStore(":memory:")
        runner = _one_task_runner(store)
        cold = runner.collect(task_fn=lambda task, worker: payload)
        assert cold.stats.completed == 1
        [observed] = cold.observations
        assert same(observed, canonical(payload))
        resumed = runner.collect()
        assert resumed.stats.completed == 0
        [observed] = resumed.observations
        assert same(observed, canonical(payload))

    def test_a_row_stores_values_and_a_shape_once(self, tmp_path):
        path = str(tmp_path / "f.db")
        with CheckpointStore(path) as store:
            for i in range(5):
                store.put(f"k{i}", {"b": i, "a": [i, float("nan")]})
            store.put("other", {"a": 1})
        sets = column_sets(path)
        assert sorted(sets.values()) == [["a"], ["b", "a"]]
        wide = next(cid for cid, names in sets.items() if names == ["b", "a"])
        assert stored_rows(path)["k3"] == f"[{wide}, 3, [3, null]]"
        assert store.commit_count == 6  # the sets rode along with their rows


# -- rows written before column sets ------------------------------------------------


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _golden_runner(path: str, golden) -> ExperimentRunner:
    args = build_parser().parse_args(["collect", *golden["collect_args"], "--checkpoint", path])
    store = CheckpointStore(path)
    return _runner(args, store, _dataset(args), queue=TaskQueue(1, "serial"))


def _report_rows(path: str, golden) -> list[dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["report", path, *golden["report_args"], "--json"]) == 0
    rows = json.loads(out.getvalue())["rows"]
    return [{k: v for k, v in r.items() if k not in LIVE_COLUMNS} for r in rows]


class TestLegacyRows:
    def test_parent_rows_resume_with_no_work_and_report_the_parent_table(self, tmp_path):
        golden = _golden()
        path = str(tmp_path / "legacy.db")
        CheckpointStore(path).close()
        insert(path, golden["rows"])
        runner = _golden_runner(path, golden)
        try:
            resumed = runner.collect()
            assert resumed.stats.completed == 0 and not resumed.failures
            assert runner.store.commit_count == 0
            by_key = {r[0]: json.loads(r[5]) for r in golden["rows"]}
            keys = sorted(t.key() for t in runner.build_tasks())
            assert resumed.observations == [by_key[k] for k in keys]
            assert [list(o) for o in resumed.observations] == [list(by_key[k]) for k in keys]
        finally:
            runner.store.close()
        assert stored_rows(path) == {r[0]: r[5] for r in golden["rows"]}  # nothing rewritten
        assert json.dumps(_report_rows(path, golden)) == json.dumps(golden["table2"])

    def test_a_store_mixing_object_and_value_rows(self, tmp_path):
        golden = _golden()
        path = str(tmp_path / "mixed.db")
        CheckpointStore(path).close()
        kept = golden["rows"][::2]
        insert(path, kept)
        runner = _golden_runner(path, golden)
        try:
            filled = runner.collect()
            assert filled.stats.completed == len(golden["rows"]) - len(kept)
        finally:
            runner.store.close()
        rows = stored_rows(path)
        assert {k for k, text in rows.items() if text.startswith("{")} == {r[0] for r in kept}
        assert sum(text.startswith("[") for text in rows.values()) == len(golden["rows"]) - len(kept)
        runner = _golden_runner(path, golden)
        try:
            resumed = runner.collect()
            assert resumed.stats.completed == 0
            assert resumed.observations == filled.observations
            for key, *_, payload, _checksum in kept:
                assert runner.store.get(key) == json.loads(payload)
        finally:
            runner.store.close()
        table = _report_rows(path, golden)
        assert [r["n_observations"] for r in table] == [6, 6]


# -- corruption ----------------------------------------------------------------------


def _shaped_campaign(path: str) -> ExperimentRunner:
    """Four tasks whose payloads take two shapes (even and odd entries)."""
    dataset = HurricaneDataset(shape=(4, 4, 4), timesteps=[0, 1], fields=["P", "U"])
    return ExperimentRunner(
        dataset, compressors=("szx",), bounds=(1e-4,), schemes=("khan2023",),
        store=CheckpointStore(path), queue=TaskQueue(1, "serial"),
    )


def _shaped(task, worker):
    if task.data_index % 2:
        return {"data_id": task.data_id, "odd": task.data_index}
    return {"data_id": task.data_id, "even": task.data_index, "x": 1.5}


def _damage_column_set(db, odd_id):
    # One byte of the set's names flipped: every row of the set is damaged.
    db.execute("UPDATE columns SET names=replace(names, 'odd', 'ode') WHERE id=?", (odd_id,))
    return [k for k, text in db.execute("SELECT key, payload FROM results")
            if text.startswith(f"[{odd_id},")]


def _unknown_id(db, odd_id):
    key, text = db.execute("SELECT key, payload FROM results WHERE payload LIKE ?",
                           (f"[{odd_id},%",)).fetchone()
    row = json.loads(text)
    row[0] = 999
    text = json.dumps(row)
    db.execute("UPDATE results SET payload=?, checksum=? WHERE key=?",
               (text, payload_checksum(text), key))
    return [key]


def _count_mismatch(db, odd_id):
    key, text = db.execute("SELECT key, payload FROM results WHERE payload NOT LIKE ?",
                           (f"[{odd_id},%",)).fetchone()
    text = json.dumps(json.loads(text)[:-1])  # one value short, checksum refreshed
    db.execute("UPDATE results SET payload=?, checksum=? WHERE key=?",
               (text, payload_checksum(text), key))
    return [key]


class TestCorruption:
    @pytest.mark.parametrize("damage", [_damage_column_set, _unknown_id, _count_mismatch])
    def test_report_skips_and_collect_quarantines(self, tmp_path, damage):
        path = str(tmp_path / "c.db")
        runner = _shaped_campaign(path)
        cold = runner.collect(task_fn=_shaped)
        runner.store.close()
        assert cold.stats.completed == 4
        data_id = {t.key(): t.data_id for t in runner.build_tasks()}
        odd_id = next(cid for cid, names in column_sets(path).items() if "odd" in names)
        with contextlib.closing(sqlite3.connect(path)) as db:
            damaged = damage(db, odd_id)
            db.commit()
        assert damaged
        before = stored_rows(path)
        with CheckpointStore(path) as reader, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            read = reader.query()
        # The damaged rows are left out, the rest read as written.
        assert read == [o for o in cold.observations
                        if o["data_id"] not in {data_id[k] for k in damaged}]
        assert [str(w.message) for w in caught if "skipped" in str(w.message)] == [
            f"checkpoint {path!r}: skipped {len(damaged)} row(s) that fail their "
            "checksum or column set; a collect on this checkpoint recomputes them"
        ]
        assert stored_rows(path) == before  # report changes nothing
        runner = _shaped_campaign(path)
        try:
            with pytest.warns(UserWarning, match=f"quarantined {len(damaged)} corrupt"):
                healed = runner.collect(task_fn=_shaped)
            assert healed.stats.completed == len(damaged)
            assert [json.dumps(o) for o in healed.observations] == [
                json.dumps(o) for o in cold.observations
            ]
        finally:
            runner.store.close()


# -- two handles ---------------------------------------------------------------------


class TestTwoHandles:
    def test_a_handle_decodes_a_set_another_registered(self, tmp_path):
        path = str(tmp_path / "two.db")
        a = CheckpointStore(path)
        b = CheckpointStore(path)
        try:
            a.put("a0", {"x": 1})
            assert a.get("a0") == {"x": 1}
            b.put("b0", {"y": 2, "z": [3]})  # a shape A has never seen
            b.put("b1", {"x": 4})  # one A registered
            assert a.get("b0") == {"y": 2, "z": [3]}
            assert a.scan().payloads == {"a0": {"x": 1}, "b0": {"y": 2, "z": [3]}, "b1": {"x": 4}}
            a.put("a1", {"y": 5, "z": None})  # reuses B's set
            assert sorted(column_sets(path).values()) == [["x"], ["y", "z"]]
            assert b.get("a1") == {"y": 5, "z": None}
            assert a.verify() == [] and b.verify() == []
        finally:
            a.close()
            b.close()

    def test_a_rotted_set_checksum_is_resealed_by_its_next_writer(self, tmp_path):
        path = str(tmp_path / "seal.db")
        with CheckpointStore(path) as store:
            store.put("k", {"v": 1})
        with contextlib.closing(sqlite3.connect(path)) as db:
            db.execute("UPDATE columns SET checksum='0000000000000000'")
            db.commit()
        with CheckpointStore(path) as store:
            assert store.verify() == ["k"]
            store.put("k", {"v": 2})
            assert store.scan().payloads == {"k": {"v": 2}}
        with CheckpointStore(path) as store:
            assert store.verify() == [] and store.get("k") == {"v": 2}


def _register_shapes(path: str, wid: int, start) -> None:
    """One process's writer: its own handle, rows of ten shapes."""
    with CheckpointStore(path, flush_every=3) as store:
        start.wait(timeout=30)
        for i in range(40):
            store.put(f"w{wid}-{i}", {f"s{i % 10}": i, "w": wid})


class TestConcurrentRegistration:
    def test_processes_registering_the_same_shapes_share_one_set_each(self, tmp_path):
        """Two forked processes, each with its own handle on one file,
        put rows of the same ten shapes at once: each shape still gets
        exactly one column set, and the file stays in WAL mode."""
        path = str(tmp_path / "race.db")
        CheckpointStore(path).close()  # the schema exists before both start
        ctx = multiprocessing.get_context("fork")
        start = ctx.Barrier(2)
        procs = [ctx.Process(target=_register_shapes, args=(path, w, start)) for w in range(2)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert [proc.exitcode for proc in procs] == [0, 0]
        assert sorted(column_sets(path).values()) == sorted([f"s{k}", "w"] for k in range(10))
        with CheckpointStore(path) as reader:
            assert reader._db.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            assert reader.verify() == []
            assert reader.get("w1-17") == {"s7": 17, "w": 1}
            assert len(reader.query()) == 2 * 40
