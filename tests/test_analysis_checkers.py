"""Per-checker regression fixtures for repro-lint.

Every rule gets one seeded-bad snippet (asserting rule id *and* line)
and one known-good counterpart that must stay quiet, plus the bug from
the repository's history that earned the rule its place, and the
suppression-comment contract.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.base import ModuleInfo
from repro.analysis.engine import run_modules


def lint(*sources: str, paths: tuple[str, ...] | None = None):
    modules = []
    for i, source in enumerate(sources):
        path = paths[i] if paths else f"fixture_{i}.py"
        modules.append(ModuleInfo.parse(path, textwrap.dedent(source)))
    return run_modules(modules)


def bad_line(source: str, marker: str = "# BAD") -> int:
    """1-based line of the seeded defect."""
    for lineno, text in enumerate(textwrap.dedent(source).splitlines(), start=1):
        if marker in text:
            return lineno
    raise AssertionError(f"fixture is missing a {marker} marker")


def hits(report, rule_id: str) -> list[int]:
    return [f.line for f in report.active() if f.rule.id == rule_id]


# -- RL301 state-codec ---------------------------------------------------------

RL301_BAD = """\
    class ForestPredictor:
        def get_state(self):
            return {"params": self.model.get_params()}  # BAD
"""

RL301_GOOD = """\
    class ForestPredictor:
        def get_state(self):
            return {"params": self.model.get_plain_params()}
"""


class TestStateCodec:
    def test_raw_get_params_in_get_state_is_flagged(self):
        report = lint(RL301_BAD)
        assert hits(report, "RL301") == [bad_line(RL301_BAD)]

    def test_plain_params_pass(self):
        assert lint(RL301_GOOD).clean

    def test_rules_only_apply_to_predictor_like_classes(self):
        src = """\
            class Inventory:
                def get_state(self):
                    return {"params": self.model.get_params()}
        """
        assert lint(src).clean


# -- RL601 blocking-call-in-async ----------------------------------------------

RL601_BAD = """\
    import time

    async def refresh_loop(interval):
        time.sleep(interval)  # BAD
"""

RL601_VIA_BAD = """\
    import time

    def warm_cache():
        time.sleep(0.5)

    async def handle(request):
        warm_cache()  # BAD
"""

RL601_GOOD = """\
    import asyncio
    import time

    async def refresh_loop(interval):
        await asyncio.sleep(interval)
        await asyncio.to_thread(time.sleep, interval)

    async def drain(state_lock):
        state_lock.acquire(timeout=1.0)
"""


class TestAsyncBlockingCall:
    def test_direct_blocking_call_is_flagged(self):
        report = lint(RL601_BAD)
        assert hits(report, "RL601") == [bad_line(RL601_BAD)]

    def test_blocking_call_behind_sync_helper_is_flagged_at_the_call_site(self):
        report = lint(RL601_VIA_BAD)
        assert hits(report, "RL601") == [bad_line(RL601_VIA_BAD)]
        (finding,) = [f for f in report.active() if f.rule.id == "RL601"]
        assert "via 'warm_cache()'" in finding.message

    def test_untimed_lock_acquire_on_the_loop_is_flagged(self):
        src = """\
            async def drain(state_lock):
                state_lock.acquire()  # BAD
        """
        report = lint(src)
        assert hits(report, "RL601") == [bad_line(src)]

    def test_store_disk_methods_on_the_loop_are_flagged(self):
        # The serve/server.py 'models' op regression: registry listing
        # stat'ing version directories from the event-loop thread.
        src = """\
            class Handler:
                def __init__(self, registry):
                    self.registry = registry

                async def models(self):
                    return [self.registry.describe(k) for k in self.registry.keys()]  # BAD
        """
        report = lint(src)
        line = bad_line(src)
        assert hits(report, "RL601") == [line, line]  # describe and keys

    def test_registry_stamp_on_the_loop_is_flagged_unless_suppressed(self):
        # The warm-model cache stats the registry's LATEST per take: the
        # rule sees that call, and only a reasoned suppression admits it.
        src = """\
            class Cache:
                def __init__(self, registry):
                    self.registry = registry

                async def get(self, key):
                    return self.registry.stamp(key)  # BAD
        """
        assert hits(lint(src), "RL601") == [bad_line(src)]
        waived = src.replace("# BAD", "# repro-lint: disable=RL601  # one stat by design")
        report = lint(waived)
        assert hits(report, "RL601") == []
        assert [f.line for f in report.suppressed()] == [bad_line(src)]

    def test_awaited_and_to_thread_shipped_calls_pass(self):
        assert lint(RL601_GOOD).clean


# -- RL603 loop-owned-cross-thread ---------------------------------------------

RL603_BAD = """\
    import asyncio

    class Server:
        def __init__(self):
            self.stats = {}  # loop-owned

        async def handle(self, request):
            await asyncio.to_thread(self._featurize, request)

        def _featurize(self, request):
            self._bump()
            return request

        def _bump(self):
            self.stats["served"] = 1  # BAD
"""

RL603_GOOD = """\
    import asyncio

    class Server:
        def __init__(self):
            self.stats = {}  # loop-owned

        async def handle(self, request):
            served = await asyncio.to_thread(self._featurize, request)
            self.stats["served"] = served

        def _featurize(self, request):
            return 1
"""


class TestLoopOwnedCrossThread:
    def test_owned_attr_touched_in_shipped_closure_is_flagged(self):
        # The touch is two hops off the loop: handle ships _featurize,
        # _featurize calls _bump, _bump touches the loop-owned attr.
        report = lint(RL603_BAD)
        assert hits(report, "RL603") == [bad_line(RL603_BAD)]
        (finding,) = [f for f in report.active() if f.rule.id == "RL603"]
        assert "shipped via to_thread" in finding.message

    def test_worker_returning_a_value_for_the_loop_to_apply_passes(self):
        assert lint(RL603_GOOD).clean


# -- RL702 fork-with-live-state ------------------------------------------------

RL702_BAD = """\
    import threading
    from multiprocessing import Process

    def launch(loop_fn, target):
        pump = threading.Thread(target=loop_fn)
        pump.start()
        child = Process(target=target)  # BAD
        child.start()
        return pump, child
"""

RL702_VIA_BAD = """\
    from multiprocessing import Process

    class Fleet:
        def _spawn(self, wid):
            return Process(target=wid)

        def start(self, state_lock):
            with state_lock:
                self._spawn(1)  # BAD
"""

RL702_GOOD = """\
    import threading
    from multiprocessing import Process

    def launch(loop_fn, target, path):
        pump = threading.Thread(target=loop_fn)
        pump.start()
        pump.join()
        fh = open(path)
        fh.close()
        child = Process(target=target)
        child.start()
        return child
"""


class TestForkWithLiveState:
    def test_spawn_with_running_thread_is_flagged(self):
        report = lint(RL702_BAD)
        assert hits(report, "RL702") == [bad_line(RL702_BAD)]
        (finding,) = [f for f in report.active() if f.rule.id == "RL702"]
        assert "running thread 'pump'" in finding.message

    def test_spawn_under_lock_via_helper_is_flagged_at_the_helper_call(self):
        report = lint(RL702_VIA_BAD)
        assert hits(report, "RL702") == [bad_line(RL702_VIA_BAD)]
        (finding,) = [f for f in report.active() if f.rule.id == "RL702"]
        assert "via '_spawn()'" in finding.message
        assert "held lock(s) 'state_lock'" in finding.message

    def test_spawn_inside_async_def_is_flagged(self):
        src = """\
            from concurrent.futures import ProcessPoolExecutor

            async def scale_out():
                pool = ProcessPoolExecutor()  # BAD
                return pool
        """
        report = lint(src)
        assert hits(report, "RL702") == [bad_line(src)]
        (finding,) = [f for f in report.active() if f.rule.id == "RL702"]
        assert "running event loop" in finding.message

    def test_joined_thread_and_closed_handles_pass(self):
        assert lint(RL702_GOOD).clean


# -- the bugs the kept rules caught --------------------------------------------
#
# Each rule above is kept because replaying it over the repository's history
# found a real bug that a later commit fixed (DESIGN §9).  These fixtures are
# cut down from the code as it was committed: the bad one before the fix, the
# good one after it.

SEED_GET_STATE = """\
    class EstimatorPredictor(PredictorPlugin):
        def get_state(self):
            if self._fitted is None:
                return {}
            return {
                "estimator_state": self._fitted.get_state(),
                "estimator_params": self._fitted.get_params(),  # BAD
                "feature_keys": list(self.feature_keys),
                "log_target": self.log_target,
            }
"""

PLAIN_PARAMS_GET_STATE = SEED_GET_STATE.replace(
    "self._fitted.get_params(),  # BAD", "self._fitted.get_plain_params(),"
)

MODELS_OP_ON_THE_LOOP = """\
    class PredictionServer:
        async def _dispatch(self, request):
            op = request.get("op", "predict")
            if op == "predict":
                response = await self._handle_predict(request)
            elif op == "models":
                response = {
                    "ok": True,
                    "models": [self.registry.describe(k) for k in self.registry.keys()],  # BAD
                }
            return response
"""

MODELS_OP_OFF_THE_LOOP = """\
    import asyncio

    class PredictionServer:
        async def _dispatch(self, request):
            op = request.get("op", "predict")
            if op == "predict":
                response = await self._handle_predict(request)
            elif op == "models":
                models = await asyncio.to_thread(self._describe_models)
                response = {"ok": True, "models": models}
            return response

        def _describe_models(self):
            return [self.registry.describe(k) for k in self.registry.keys()]
"""

STATS_FROM_THE_WORKER = """\
    import asyncio
    import time

    class PredictionServer:
        def __init__(self, registry):
            self.registry = registry
            self.stats = ServeStats()  # loop-owned

        async def _run_batch(self, model, batch):
            rows = await asyncio.to_thread(self._featurize_batch, model, batch)
            return await asyncio.to_thread(model.predictor.predict_many, rows)

        def _featurize_batch(self, model, batch):
            rows = []
            for item in batch:
                t0 = time.perf_counter()
                row = dict(item.row)
                item.featurize_s = time.perf_counter() - t0
                self.stats.featurize_seconds += item.featurize_s  # BAD
                rows.append(row)
            return rows
"""

STATS_ON_THE_LOOP = """\
    import asyncio
    import time

    class PredictionServer:
        def __init__(self, registry):
            self.registry = registry
            self.stats = ServeStats()  # loop-owned

        async def _run_batch(self, model, batch):
            rows = await asyncio.to_thread(self._featurize_batch, model, batch)
            self.stats.featurize_seconds += sum(i.featurize_s for i in batch)
            return await asyncio.to_thread(model.predictor.predict_many, rows)

        def _featurize_batch(self, model, batch):
            rows = []
            for item in batch:
                t0 = time.perf_counter()
                row = dict(item.row)
                item.featurize_s = time.perf_counter() - t0
                rows.append(row)
            return rows
"""

SPAWN_UNDER_PLACEHOLDER = """\
    import socket

    class ServeFleet:
        def start(self):
            placeholder = None
            try:
                if self.reuse_port:
                    placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                    placeholder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                    placeholder.bind((self.host, self.port))
                    self.port = placeholder.getsockname()[1]
                for worker_id in range(self.workers):
                    self._spawn(worker_id)  # BAD
                self._await_ready(self.ready_timeout)
            finally:
                if placeholder is not None:
                    placeholder.close()

        def _spawn(self, worker_id):
            proc = self._ctx.Process(target=_fleet_worker_main, args=(worker_id,))
            proc.start()
"""

HISTORICAL_BUGS = {
    # the seed: estimator objects leak into published state
    "RL301": (SEED_GET_STATE, 1, PLAIN_PARAMS_GET_STATE),
    # 311fbee: the 'models' op walks the registry on the event loop
    "RL601": (MODELS_OP_ON_THE_LOOP, 2, MODELS_OP_OFF_THE_LOOP),
    # 311fbee: ServeStats mutated from the to_thread worker
    "RL603": (STATS_FROM_THE_WORKER, 1, STATS_ON_THE_LOOP),
    # e562036: fleet workers forked while the placeholder socket is open
    "RL702": (SPAWN_UNDER_PLACEHOLDER, 1, None),
}


class TestHistoricalBugs:
    @pytest.mark.parametrize("rule_id", sorted(HISTORICAL_BUGS))
    def test_rule_flags_the_bug_it_caught(self, rule_id):
        bad, count, _ = HISTORICAL_BUGS[rule_id]
        assert hits(lint(bad), rule_id) == [bad_line(bad)] * count

    @pytest.mark.parametrize(
        "rule_id", sorted(r for r, (_, _, fixed) in HISTORICAL_BUGS.items() if fixed)
    )
    def test_the_fix_is_clean(self, rule_id):
        assert lint(HISTORICAL_BUGS[rule_id][2]).clean

    def test_fleet_spawn_is_suppressed_not_moved(self):
        # The placeholder must stay bound while workers spawn, so the fix
        # is in the child (it closes the inherited fd) and the spawn site
        # carries a suppression.
        src = SPAWN_UNDER_PLACEHOLDER.replace(
            "# BAD", "# repro-lint: disable=RL702  # the child closes the fd"
        )
        report = lint(src)
        assert report.clean
        assert [f.rule.id for f in report.suppressed()] == ["RL702"]


# -- suppressions --------------------------------------------------------------


class TestSuppressions:
    def test_same_line_suppression_silences(self):
        src = RL301_BAD.replace(
            "# BAD", "# repro-lint: disable=RL301  # params are plain by construction"
        )
        report = lint(src)
        assert not report.active()
        assert [f.rule.id for f in report.suppressed()] == ["RL301"]

    def test_standalone_comment_covers_next_line(self):
        src = """\
            class ForestPredictor:
                def get_state(self):
                    # repro-lint: disable=state-codec-get-params
                    return {"params": self.model.get_params()}
        """
        report = lint(src)
        assert not report.active()
        assert len(report.suppressed()) == 1

    def test_file_wide_suppression(self):
        src = "# repro-lint: disable-file=RL601\n" + textwrap.dedent(RL601_VIA_BAD)
        report = run_modules([ModuleInfo.parse("fixture.py", src)])
        assert not report.active()
        assert len(report.suppressed()) == 1

    def test_suppression_does_not_hide_other_rules(self):
        src = RL301_BAD.replace("# BAD", "# repro-lint: disable=RL601")
        report = lint(src)
        assert hits(report, "RL301") == [bad_line(src, "disable=RL601")]

    def test_unknown_rule_token_is_surfaced(self):
        src = "x = 1  # repro-lint: disable=RL999\n"
        report = lint(src)
        assert report.unknown_suppressions == [("fixture_0.py", 1, "RL999")]
        assert not report.clean

    def test_suppression_of_a_deleted_rule_fails_the_run(self):
        # A directive left behind by a deleted rule silences nothing;
        # it must not pass the gate either.
        src = "# repro-lint: disable-file=RL102\n" + textwrap.dedent(RL301_GOOD)
        report = lint(src)
        assert not report.findings
        assert report.unknown_suppressions == [("fixture_0.py", 1, "RL102")]
        assert not report.clean


# -- syntax errors -------------------------------------------------------------


def test_syntax_error_yields_rl000():
    report = lint("def broken(:\n")
    assert [f.rule.id for f in report.active()] == ["RL000"]
