"""Invalidation-reuse oracle for the collection worker (ROADMAP aim 3c).

``ExperimentRunner.run_task`` keeps the loaded field, its compressors and
its evaluators while consecutive tasks name one dataset entry.  Whatever it
reuses, its observations must equal those of ``BruteForceRunner`` (fresh
load, compressor and evaluators per task) on every key that is not a timing.
"""

from collections import Counter

import numpy as np
import pytest

from repro.bench import ChaosPlan, ExperimentRunner, TaskQueue
from repro.core.compressor import CompressorPlugin
from repro.core.data import PressioData
from repro.dataset import HurricaneDataset
from repro.dataset.base import DatasetPlugin, StackedDataset
from tests.reference_runner import BruteForceRunner, comparable

#: Error-dependent (khan2023, jin2022), error-agnostic (rahman2023),
#: nondeterministic (underwood2023's SVD) and runtime (tao2019) metrics.
SCHEMES = ("khan2023", "jin2022", "rahman2023", "underwood2023", "tao2019")
COMPRESSORS = ("sz3", "zfp")
BOUNDS = (1e-5, 1e-3)
N_ENTRIES = 4


def _dataset():
    return HurricaneDataset(shape=(8, 8, 8), timesteps=[0, 24], fields=["P", "QRAIN"])


def _runner(cls, dataset, queue=None, replicates=1):
    return cls(dataset, compressors=COMPRESSORS, bounds=BOUNDS, schemes=SCHEMES,
               queue=queue, replicates=replicates)


def _queue(engine):
    return TaskQueue(1, "serial") if engine == "serial" else TaskQueue(2, engine)


class CountingDataset(StackedDataset):
    """Counts payload loads per entry index."""

    id = "counting"

    def __init__(self, inner):
        super().__init__(inner)
        self.loads = Counter()

    def load_data(self, index):
        self.loads[index] += 1
        return self.inner.load_data(index)


class AnonymousDataset(DatasetPlugin):
    """Entries without provenance: no ``data_id``, file, field or timestep."""

    id = "anonymous"

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(5)
        self.arrays = [
            np.cumsum(rng.standard_normal((8, 8, 8)), axis=0).astype(np.float32) * 10.0 ** k
            for k in range(3)
        ]

    def __len__(self):
        return len(self.arrays)

    def load_metadata(self, index):
        return {"shape": self.arrays[index].shape, "dtype": "float32"}

    def load_data(self, index):
        return self._count_load(PressioData(self.arrays[index]))


@pytest.fixture(scope="module", params=[1, 2], ids=["replicates1", "replicates2"])
def reference(request):
    """Brute-force observations on the serial engine, per replicate count."""
    replicates = request.param
    runner = _runner(BruteForceRunner, _dataset(), replicates=replicates)
    observations, stats, failures = runner.collect()
    assert failures == [] and stats.completed == N_ENTRIES * 4 * replicates
    return replicates, comparable(observations)


@pytest.mark.parametrize("engine", ["serial", "process"])
def test_observations_equal_the_brute_force_oracle(engine, reference):
    replicates, expected = reference
    dataset = CountingDataset(_dataset())
    runner = _runner(ExperimentRunner, dataset, _queue(engine), replicates)
    observations, stats, failures = runner.collect()
    assert failures == [] and stats.failed == 0
    assert comparable(observations) == expected
    if engine == "serial":
        # One worker: every field is loaded exactly once.
        assert dataset.loads == Counter(range(N_ENTRIES))

    # The error-agnostic column marks the task that computed the metrics: a
    # worker computes them once per (entry, compressor), and on either engine
    # a datum's tasks all run on one worker (the process engine sends them as
    # one chunk), so exactly one task carries it.
    carriers = Counter((o["data_id"], o["compressor"]) for o in observations
                       if "time:rahman2023:error_agnostic" in o)
    assert len(carriers) == N_ENTRIES * len(COMPRESSORS)
    assert set(carriers.values()) == {1}
    # Replicates ask for fresh nondeterministic draws, so the SVD is then
    # recomputed by every task; without them it is computed once a sweep.
    svd = Counter((o["data_id"], o["compressor"]) for o in observations
                  if "time:underwood2023:error_agnostic" in o)
    if replicates == 1:
        assert set(svd.values()) == {1}
    else:
        assert set(svd.values()) == {len(BOUNDS) * replicates}
    # A timing column is a positive number or absent, never a zero.
    assert all(v > 0 for o in observations for k, v in o.items()
               if k.startswith("time:") and k.count(":") == 2)


def test_replicate_hits_the_error_dependent_cache():
    """Same entry, compressor and bound: the second replicate computes only
    what may not be cached (runtime metrics, nondeterministic draws)."""
    runner = _runner(ExperimentRunner, _dataset(), replicates=2)
    first, second = [t for t in runner.build_tasks()
                     if t.data_index == 0 and t.compressor_id == "sz3"][:2]
    assert first.compressor_options == second.compressor_options
    assert (first.replicate, second.replicate) == (0, 1)
    one, two = runner.run_task(first), runner.run_task(second)
    assert "time:khan2023:error_dependent" in one and "time:jin2022:error_dependent" in one
    assert "time:khan2023:error_dependent" not in two
    assert "time:jin2022:error_dependent" not in two
    assert "time:rahman2023:error_agnostic" not in two
    assert "time:tao2019:error_dependent" in two          # runtime: never cached
    assert "time:underwood2023:error_agnostic" in two     # a fresh SVD draw


def test_chaos_exception_mid_entry_then_retry_yields_the_same_rows(tmp_path, reference):
    replicates, expected = reference
    dataset = _dataset()
    runner = _runner(ExperimentRunner, dataset, replicates=replicates)
    plan = ChaosPlan.from_spec("exception:0.3", seed=11, state_dir=str(tmp_path / "chaos"))
    tasks = runner.build_tasks()
    per_entry = len(tasks) // N_ENTRIES
    hit = [i for i, t in enumerate(tasks) if plan.selects("exception", t.key())]
    assert any(i % per_entry for i in hit), "seed must fault a task inside an entry"
    observations, stats, failures = runner.collect(chaos=plan)
    assert failures == [] and stats.retries == len(hit)
    assert comparable(observations) == expected


def test_exception_inside_run_task_drops_the_context(monkeypatch):
    """A fault that escapes ``run_task`` (here: mid-decompress, ground-truth
    metrics still attached to the held compressor) must not leave a context
    behind; the retry loads afresh and produces the reference row."""
    dataset = CountingDataset(_dataset())
    runner = _runner(ExperimentRunner, dataset)
    reference = _runner(BruteForceRunner, _dataset())
    first, second = [t for t in runner.build_tasks() if t.data_index == 0][:2]
    runner.run_task(first)

    original = CompressorPlugin.decompress

    def failing(self, stream):
        raise RuntimeError("injected")

    monkeypatch.setattr(CompressorPlugin, "decompress", failing)
    with pytest.raises(RuntimeError, match="injected"):
        runner.run_task(second)
    monkeypatch.setattr(CompressorPlugin, "decompress", original)
    assert runner._context is None

    row = runner.run_task(second)
    assert dataset.loads[0] == 2
    assert comparable([row]) == comparable([reference.run_task(second)])


def test_context_is_replaced_with_the_entry():
    dataset = CountingDataset(_dataset())
    runner = _runner(ExperimentRunner, dataset)
    tasks = runner.build_tasks()
    entry0 = [t for t in tasks if t.data_index == 0]
    entry1 = [t for t in tasks if t.data_index == 1]
    runner.run_task(entry0[0])
    runner.run_task(entry0[1])
    assert dataset.loads == Counter({0: 1})
    runner.run_task(entry1[0])  # the worker moves on: its field is replaced
    runner.run_task(entry1[1])
    assert dataset.loads == Counter({0: 1, 1: 1})
    assert runner._context.data_index == 1
    runner.run_task(entry0[2])  # ... and coming back is a fresh load
    assert dataset.loads == Counter({0: 2, 1: 1})
    runner.close()
    assert runner._context is None


def test_entries_without_provenance_never_share_results():
    kwargs = dict(compressors=("sz3",), bounds=BOUNDS,
                  schemes=("khan2023", "rahman2023", "underwood2023"))
    observations, _, failures = ExperimentRunner(AnonymousDataset(), **kwargs).collect()
    expected, _, _ = BruteForceRunner(AnonymousDataset(), **kwargs).collect()
    assert failures == []
    assert comparable(observations) == comparable(expected)
    # The three fields differ by orders of magnitude; had one entry been
    # served another's cached metrics these would coincide.
    assert len({o["stat:std"] for o in observations}) == 3
