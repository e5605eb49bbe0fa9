"""The experiment runner: data collection + k-fold evaluation (§4.3, §5).

Two phases mirror how the real bench separates concerns:

1. **Collection** — every (dataset entry × compressor config × replicate)
   becomes a checkpointable task that (a) runs the compressor with the
   standard metrics attached for ground truth (realised CR, wall times),
   and (b) runs every scheme's metric evaluator, bucketing metric costs
   into the paper's stages.  A worker keeps the loaded field, its
   compressors and its evaluators for as long as consecutive tasks name
   the same entry, so the field is loaded once and a new bound
   recomputes only the error-dependent metrics (§4.2).  :meth:`run_task`
   itself is the task function on every engine: a runner pickles
   without its checkpoint store, queue and held entry, so each worker
   process or cluster rank runs its own copy.  Results land in the
   SQLite checkpoint keyed by stable option hashes, so a re-run (or a
   crash) recomputes only the missing keys.
2. **Evaluation** — per (scheme, compressor): assemble observations into
   feature rows, run the cross-validation protocol (grouped by field for
   the out-of-sample setting §6 emphasises), time fit and inference, and
   compute MedAPE on out-of-fold predictions.  Every fit sees its rows in
   one order, by entry, compressor, bound and replicate: the folds, the
   forests' bootstraps and the augmentation draw rows by position, so
   the order the rows arrived in (completion order, or the key order that
   moves with the campaign's scheme set) must not reach them.

The output rows correspond one-to-one to Table 2 of the paper.
"""

from __future__ import annotations

import json
import math
import warnings
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from ..compressors import make_compressor  # imports register the codecs
from ..core.compressor import CompressorPlugin
from ..core.data import PressioData
from ..core.errors import UnsupportedError
from ..core.hashing import EncodedItems, HashedOptions, hash_parts
from ..core.metrics import ErrorStatMetrics, SizeMetrics, TimeMetrics
from ..dataset.base import DatasetPlugin
from ..mlkit.metrics import medape
from ..mlkit.model_selection import GroupKFold, KFold
from ..predict.evaluator import MetricsEvaluator
from ..predict.scheme import SchemePlugin, get_scheme
from .checkpoint import CheckpointStore
from .faults import ChaosPlan
from .tasks import Task, compressor_part, precompute_keys
from .taskqueue import QueueStats, TaskQueue, TaskResult


def _fit_order(row: Mapping[str, Any]) -> tuple[str, str, float, int]:
    """The sort key that puts the rows of a fit in one order."""
    return (row["data_id"], row["compressor"], row["bound"], row["replicate"])


class CollectionResult(NamedTuple):
    """What one :meth:`ExperimentRunner.collect` pass produced.

    ``failures`` carries the full failed :class:`TaskResult` objects (not
    just a count buried in ``stats``) so callers can programmatically
    inspect what failed, with which status, after how many attempts —
    previously failures were dropped after a ``warnings.warn``.
    """

    observations: list[dict[str, Any]]
    stats: QueueStats
    failures: list[TaskResult]


@dataclass
class StageStat:
    """Mean ± std of one timing stage, in seconds."""

    mean: float = math.nan
    std: float = math.nan
    n: int = 0

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "StageStat":
        arr = np.asarray([s for s in samples if s == s], dtype=np.float64)
        if arr.size == 0:
            return cls()
        return cls(mean=float(arr.mean()), std=float(arr.std()), n=int(arr.size))

    @property
    def available(self) -> bool:
        return self.n > 0

    def ms(self) -> str:
        """Paper-style rendering: 'mean ± std' in milliseconds, or N/A."""
        if not self.available:
            return "N/A"
        return f"{self.mean * 1e3:.2f} ± {self.std * 1e3:.2f}"


@dataclass
class Table2Row:
    """One row of the paper's Table 2."""

    method: str
    compressor: str
    error_dependent: StageStat = field(default_factory=StageStat)
    error_agnostic: StageStat = field(default_factory=StageStat)
    training: StageStat = field(default_factory=StageStat)
    fit: StageStat = field(default_factory=StageStat)
    inference: StageStat = field(default_factory=StageStat)
    compress: StageStat = field(default_factory=StageStat)
    decompress: StageStat = field(default_factory=StageStat)
    medape_pct: float = math.nan
    n_observations: int = 0
    supported: bool = True


class _EntryContext:
    """What a worker holds while consecutive tasks name one dataset entry.

    The loaded field, one compressor per compressor id, and one metric
    evaluator per (scheme, compressor id) — ``None`` where the scheme
    raised :class:`UnsupportedError` for the pairing.  Evaluators share
    their compressor's instance, so a new bound reaches them through its
    options and their caches stay valid by key.
    """

    __slots__ = ("data_index", "data", "bound_scale", "compressors", "evaluators")

    def __init__(self, data_index: int, data: PressioData, relative_bounds: bool) -> None:
        self.data_index = data_index
        self.data = data
        #: What a task's nominal bound is multiplied by: the field's
        #: value range under range-relative bounds, else 1.
        self.bound_scale = 1.0
        if relative_bounds:
            arr = data.array
            vrange = float(arr.max() - arr.min()) if arr.size else 1.0
            self.bound_scale = max(vrange, 1e-30)
        self.compressors: dict[str, CompressorPlugin] = {}
        self.evaluators: dict[tuple[str, str], MetricsEvaluator | None] = {}


class ExperimentRunner:
    """Drives collection and evaluation against one dataset.

    A runner pickles without its live parts — the checkpoint store, the
    queue and the held entry context — so ``self.run_task`` is the task
    function every engine's workers get: a worker rank of the process or
    cluster engine runs it on its own copy of the runner, over its own dataset handle,
    and keeps its own entry context.
    """

    def __init__(
        self,
        dataset: DatasetPlugin,
        *,
        compressors: Sequence[str] = ("sz3", "zfp"),
        bounds: Sequence[float] = (1e-6, 1e-4),
        schemes: Sequence[str | SchemePlugin] = ("khan2023", "jin2022", "rahman2023"),
        relative_bounds: bool = True,
        store: CheckpointStore | None = None,
        queue: TaskQueue | None = None,
        n_folds: int = 10,
        replicates: int = 1,
        protocol: str = "out_of_sample",
        experiment_meta: Mapping[str, Any] | None = None,
    ) -> None:
        self.dataset = dataset
        self.compressors = list(compressors)
        self.bounds = [float(b) for b in bounds]
        self.schemes: list[SchemePlugin] = [
            get_scheme(s) if isinstance(s, str) else s for s in schemes
        ]
        #: When True the per-field bound is ``eb * value_range`` — the
        #: paper's footnote 6 explains fields need comparable bounds;
        #: with synthetic fields spanning 5 orders of magnitude a single
        #: absolute bound degenerates, so range-relative is the default.
        self.relative_bounds = bool(relative_bounds)
        self.store = store or CheckpointStore(":memory:")
        self.queue = queue or TaskQueue(1, "serial")
        self.n_folds = int(n_folds)
        self.replicates = int(replicates)
        #: "out_of_sample" (paper's protocol: folds grouped by field, so
        #: validation fields were never trained on) or "in_sample"
        #: (future work 1's "best-case scenario": plain K-fold, letting
        #: timesteps of one field appear on both sides).
        if protocol not in ("out_of_sample", "in_sample"):
            raise ValueError(f"unknown protocol {protocol!r}")
        self.protocol = protocol
        self.experiment_meta = dict(experiment_meta or {})
        self.experiment_meta.setdefault(
            "schemes", sorted(s.id for s in self.schemes)
        )
        self.experiment_meta.setdefault("relative_bounds", self.relative_bounds)
        #: The entry this worker is on: one held field bounds the memory.
        self._context: _EntryContext | None = None

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.update(store=None, queue=None, _context=None)
        return state

    # -- task construction ----------------------------------------------------
    def build_tasks(self) -> list[Task]:
        """Enumerate all collection tasks with precomputed hashes.

        Each distinct part — one per compressor configuration, the
        experiment mapping — is encoded once, here; its tasks share the
        mapping and are sealed from the hashed part.  The dataset
        configuration is encoded once too, and each entry's part is
        derived from it by splicing in the entry's one item,
        ``entry:data_id``.  Keys share hash prefixes: a configuration is
        fed once, its state copied per entry and then per replicate.
        """
        tasks: list[Task] = []
        metas = self.dataset.load_metadata_all()
        ds_conf = self.dataset.get_configuration().to_dict()
        ds_items = EncodedItems.of(ds_conf)
        experiment_part = HashedOptions.of(self.experiment_meta)
        configs = []
        for comp_id in self.compressors:
            for eb in self.bounds:
                options = {
                    "pressio:abs": eb,
                    "pressio:abs_is_relative": self.relative_bounds,
                }
                part = HashedOptions.of(compressor_part(comp_id, options))
                configs.append((comp_id, options, part, hash_parts(part)))
        for idx, meta in enumerate(metas):
            entry_id = meta.get("data_id", idx)
            data_id = str(entry_id)
            entry_conf = {**ds_conf, "entry:data_id": entry_id}
            entry_part = ds_items.with_item("entry:data_id", entry_id)
            for comp_id, options, config_part, config_state in configs:
                shared = hash_parts(entry_part, experiment_part, prefix=config_state)
                for rep in range(self.replicates):
                    task = Task(
                        data_index=idx,
                        data_id=data_id,
                        compressor_id=comp_id,
                        compressor_options=options,
                        dataset_config=entry_conf,
                        experiment=self.experiment_meta,
                        replicate=rep,
                    )
                    task.seal(config_part, entry_part, experiment_part, shared)
                    tasks.append(task)
        precompute_keys(tasks)
        return tasks

    # -- collection -------------------------------------------------------------
    def run_task(self, task: Task, worker: int = 0) -> dict[str, Any]:
        """Execute one collection task (ground truth + scheme metrics).

        Runs in the held entry context (every worker runs its own copy
        of the runner, so *worker* only labels the caller): the context is
        replaced when ``task.data_index`` differs from the previous
        task's, and dropped when anything escapes (a deadline firing
        mid-compress leaves metrics attached), so a retry starts from a
        fresh load.
        """
        context = self._context
        try:
            if context is None or context.data_index != task.data_index:
                context = self._context = _EntryContext(
                    task.data_index,
                    self.dataset.load_data(task.data_index),
                    self.relative_bounds,
                )
            return self._run_in_context(task, context)
        except BaseException:
            self._context = None
            raise

    def _run_in_context(self, task: Task, context: _EntryContext) -> dict[str, Any]:
        data = context.data
        eb = float(task.compressor_options["pressio:abs"]) * context.bound_scale
        comp = context.compressors.get(task.compressor_id)
        if comp is None:
            comp = context.compressors[task.compressor_id] = make_compressor(
                task.compressor_id
            )
        comp.set_options({"pressio:abs": eb})
        payload: dict[str, Any] = {
            "data_id": task.data_id,
            "field": data.metadata.get("field", task.data_id),
            "timestep": data.metadata.get("timestep", 0),
            "compressor": task.compressor_id,
            "bound": float(task.compressor_options["pressio:abs"]),
            "effective_bound": eb,
            "replicate": task.replicate,
        }
        # Ground truth: run the compressor with the standard metrics.
        size, timer, err = SizeMetrics(), TimeMetrics(), ErrorStatMetrics()
        comp.set_metrics([size, timer, err])
        stream = comp.compress(data)
        comp.decompress(stream)
        truth = comp.get_metrics_results()
        comp.set_metrics([])
        payload.update({k: v for k, v in truth.items()})
        # Derived throughput targets (future work 4: bandwidth
        # prediction).  Runtime-dependent and nondeterministic by
        # nature — replicates give them their spread.
        if truth.get("time:compress"):
            payload["derived:compress_bandwidth"] = (
                truth["size:uncompressed_size"] / truth["time:compress"]
            )
        if truth.get("time:decompress"):
            payload["derived:decompress_bandwidth"] = (
                truth["size:uncompressed_size"] / truth["time:decompress"]
            )
        # Scheme metrics, with per-stage timing buckets.
        for scheme in self.schemes:
            evaluator = self._evaluator(context, scheme, comp)
            payload[f"scheme:{scheme.id}:supported"] = evaluator is not None
            if evaluator is None:
                continue
            # The cache key decides validity: a new bound misses the
            # error-dependent metrics and hits the error-agnostic ones.
            results = evaluator.evaluate(data, changed=())
            payload.update({k: v for k, v in results.items()})
            payload.update(scheme.config_features(comp))
            # Only buckets this task computed in: a bucket served from the
            # cache has no column, so Table 2's mean stays the cost of
            # computing it once.
            for bucket, seconds in evaluator.last_stage_seconds.items():
                payload[f"time:{scheme.id}:{bucket}"] = seconds
        return payload

    def _evaluator(
        self, context: _EntryContext, scheme: SchemePlugin, comp: CompressorPlugin
    ) -> MetricsEvaluator | None:
        """The context's evaluator for (*scheme*, *comp*), built on first
        use; ``None`` memoises an unsupported pairing."""
        key = (scheme.id, comp.id)
        if key not in context.evaluators:
            try:
                evaluator = scheme.req_metrics_opts(comp)
            except UnsupportedError:
                evaluator = None
            else:
                # A campaign that asks for replicates wants fresh
                # nondeterministic draws; one that does not gets the
                # paper's "one SVD per sweep".
                evaluator.cache_nondeterministic = self.replicates == 1
            context.evaluators[key] = evaluator
        return context.evaluators[key]

    def collect(
        self,
        *,
        task_fn=None,
        chaos: ChaosPlan | None = None,
        verify: bool = True,
        skip_poison: bool = True,
    ) -> CollectionResult:
        """Run (or resume) the collection phase through the checkpoint.

        Tasks whose key is already in the store are *not* re-run — this
        is the fine-grained checkpoint/restart the paper motivates with
        its fault-prone metric implementations.  The store is read in
        one scan (:meth:`CheckpointStore.scan`) that gives the todo set
        and, when nothing runs, the observations; a pass that ran tasks
        scans once more to read them back.  Observations come back in
        key order, as :meth:`CheckpointStore.query` gives them.  With
        ``verify=True`` each scan audits the rows: those whose payload
        fails its checksum are quarantined and recomputed, so a corrupted
        checkpoint heals instead of poisoning evaluation.
        Tasks the failure ledger marks *permanently* failed are skipped
        on resume (``skip_poison=True``) — re-running a task that can
        never succeed just burns the campaign's time again.

        Checkpoint writes always happen in this process (the queue's
        ``on_result`` sink), whatever the engine, so SQLite keeps a
        single writer; with a buffered store they batch into one commit
        per flush interval, and the tail flushes before returning.

        The task function is :meth:`run_task` (or ``task_fn``) on every
        engine.  A :class:`~repro.bench.faults.ChaosPlan` (``chaos=``)
        goes to :meth:`TaskQueue.run <repro.bench.taskqueue.TaskQueue.run>`,
        which binds it to that function and the result sink.  On the
        ``cluster`` engine recorded failures carry the originating rank.
        """
        tasks = self.build_tasks()
        by_key = {t.key(): t for t in tasks}
        stored = self._read_store(verify)
        poison: set[str] = set()
        if skip_poison:
            poison = self.store.poison_keys() & by_key.keys()
        todo = [
            t for k, t in by_key.items() if k not in stored and k not in poison
        ]

        def on_result(result) -> None:
            if result.ok:
                task = result.task
                self.store.put(
                    task.key(),
                    result.payload,
                    compressor_hash=task.compressor_hash(),
                    dataset_hash=task.dataset_hash(),
                    experiment_hash=task.experiment_hash(),
                    replicate=task.replicate,
                )

        prior_failed = self.store.failed_keys()
        results, stats = self.queue.run(
            todo, task_fn or self.run_task, on_result=on_result, chaos=chaos
        )
        # The campaign is over: no held field outlives it in this process.
        self._context = None
        self.store.flush()
        failures = [r for r in results if not r.ok]
        for r in failures:
            self.store.record_failure(
                r.task.key(), r.error or "", status=r.status, attempts=r.attempts,
                origin=r.origin,
            )
        if prior_failed:
            # A task that finally succeeded clears its ledger entry.
            recovered = [
                r.task.key() for r in results if r.ok and r.task.key() in prior_failed
            ]
            self.store.clear_failures(recovered)
        if stats.failed:
            warnings.warn(
                f"{stats.failed} collection task(s) failed after retries; "
                f"first errors: {[r.error for r in failures][:3]}",
                stacklevel=2,
            )
        # Persist the harness-side statistics with the campaign, so
        # ``report --json`` on the checkpoint alone can show stage
        # timings and affinity counters without re-running anything.
        # A pass that dispatched nothing has nothing to say: the numbers
        # of the pass that did the work stay (and the commit is saved).
        if todo:
            try:
                self.store.set_meta("last_run_stats", json.dumps(stats.summary()))
            except Exception:  # noqa: BLE001 - stats are advisory, never fatal
                pass
        if todo:
            stored = self._read_store(verify)
        # Key order, as CheckpointStore.query() reads them: an order-
        # sensitive fit over them then gives ``run`` and ``report`` of one
        # checkpoint the same Table 2.
        observations = [stored[k] for k in sorted(by_key) if k in stored]
        return CollectionResult(observations, stats, failures)

    def _read_store(self, verify: bool) -> dict[str, dict[str, Any]]:
        """The store's rows as key → payload, in one scan that (with
        *verify*) quarantines the rows failing their audit."""
        scan = self.store.scan(audit="quarantine" if verify else "off")
        if scan.mismatched:
            warnings.warn(
                f"checkpoint verify quarantined {len(scan.mismatched)} corrupt "
                "row(s); they will be recomputed",
                stacklevel=3,
            )
        return scan.payloads

    # -- publish ---------------------------------------------------------------
    def publish(
        self,
        registry,
        observations: Sequence[Mapping[str, Any]] | None = None,
        *,
        verify_n: int = 8,
        min_observations: int = 2,
        meta: Mapping[str, Any] | None = None,
        fault_hook=None,
    ):
        """Fit and publish one model per (scheme, compressor, bound).

        The bridge from a finished campaign into the serving layer: for
        every combination the campaign collected, fit the scheme's
        predictor on *all* matching observations (serving wants the best
        model, not the cross-validation folds) and publish it to
        *registry* with round-trip verification against the first
        ``verify_n`` training rows.  Schemes that need no training
        (analytic formulas) are published too — their empty state still
        gets a manifest, a key, and a version, so the server answers for
        them uniformly.

        Returns the list of :class:`~repro.serve.registry.PublishedModel`
        receipts.  A (scheme, compressor, bound) with fewer than
        ``min_observations`` usable rows is skipped with a warning, not
        an error — a partial campaign publishes what it can.

        ``fault_hook`` is forwarded to every
        :meth:`~repro.serve.registry.ModelRegistry.publish` call — the
        chaos entry point the continuous-learning loop uses to kill the
        trainer at precise points of the publish journal.
        """
        if observations is None:
            observations = self.collect().observations
        published = []
        for scheme in self.schemes:
            target_key = scheme.target_key
            for comp_id in self.compressors:
                for eb in self.bounds:
                    rows = sorted(
                        (
                            dict(o)
                            for o in observations
                            if o.get("compressor") == comp_id
                            and float(o.get("bound", math.nan)) == eb
                            and o.get(f"scheme:{scheme.id}:supported", False)
                            and o.get(target_key) is not None
                        ),
                        key=_fit_order,
                    )
                    if len(rows) < min_observations:
                        warnings.warn(
                            f"publish: skipping {scheme.id}/{comp_id}@{eb:g} "
                            f"({len(rows)} usable observation(s), need "
                            f"{min_observations})",
                            stacklevel=2,
                        )
                        continue
                    compressor_options = {
                        "pressio:abs": eb,
                        "pressio:abs_is_relative": self.relative_bounds,
                    }
                    comp = make_compressor(comp_id)
                    comp.set_options({"pressio:abs": eb})
                    predictor = scheme.get_predictor(comp)
                    if predictor.needs_training:
                        y = np.asarray([float(r[target_key]) for r in rows])
                        predictor.fit(rows, y)
                    receipt = registry.publish(
                        scheme,
                        comp_id,
                        compressor_options,
                        predictor,
                        verify_rows=rows[: max(int(verify_n), 1)],
                        meta={
                            "n_observations": len(rows),
                            "protocol": self.protocol,
                            "relative_bounds": self.relative_bounds,
                            **dict(meta or {}),
                        },
                        fault_hook=fault_hook,
                    )
                    published.append(receipt)
        return published

    def close(self) -> None:
        """Drop the held entry context (idempotent).

        The checkpoint store and the dataset are left open — they have
        their own lifecycles.
        """
        self._context = None

    # -- evaluation ------------------------------------------------------------
    def evaluate_scheme(
        self,
        scheme: SchemePlugin,
        compressor_id: str,
        observations: Sequence[Mapping[str, Any]],
    ) -> Table2Row:
        """K-fold evaluation of one scheme on one compressor's rows."""
        row = Table2Row(method=scheme.id, compressor=compressor_id)
        target_key = scheme.target_key
        obs = sorted(
            (
                dict(o)
                for o in observations
                if o.get("compressor") == compressor_id
                and o.get(f"scheme:{scheme.id}:supported", False)
                and o.get(target_key) is not None
            ),
            key=_fit_order,
        )
        row.n_observations = len(obs)
        if not obs:
            row.supported = False
            return row
        # Stage timings (per-observation seconds).
        for stage, attr in (
            ("error_dependent", "error_dependent"),
            ("error_agnostic", "error_agnostic"),
        ):
            samples = [
                o[f"time:{scheme.id}:{stage}"]
                for o in obs
                if f"time:{scheme.id}:{stage}" in o
            ]
            setattr(row, attr, StageStat.from_samples(samples))
        y = np.asarray([float(o[target_key]) for o in obs])
        groups = np.asarray([str(o.get("field", o["data_id"])) for o in obs])
        comp = make_compressor(compressor_id)
        if scheme.needs_training:
            # Training observations require running the compressor: its
            # compression time *is* the per-observation training cost.
            row.training = StageStat.from_samples(
                [o["time:compress"] for o in obs if "time:compress" in o]
            )
            fit_times: list[float] = []
            inference_times: list[float] = []
            oof = np.full(y.shape, np.nan)
            n_groups = np.unique(groups).size
            use_groups = self.protocol == "out_of_sample" and n_groups >= 2
            k = min(self.n_folds, n_groups) if use_groups else 0
            if k >= 2:
                splits = GroupKFold(k).split(groups)
            else:
                k = min(self.n_folds, len(obs))
                splits = KFold(k).split(len(obs)) if k >= 2 else iter(())
            for train, val in splits:
                predictor = scheme.get_predictor(comp)
                t0 = time.perf_counter()
                predictor.fit([obs[i] for i in train], y[train])
                fit_times.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                preds = predictor.predict_many([obs[i] for i in val])
                inference_times.append((time.perf_counter() - t0) / max(len(val), 1))
                oof[val] = preds
            row.fit = StageStat.from_samples(fit_times)
            row.inference = StageStat.from_samples(inference_times)
            mask = ~np.isnan(oof)
            if mask.any():
                row.medape_pct = medape(y[mask], oof[mask])
        else:
            predictor = scheme.get_predictor(comp)
            preds = predictor.predict_many(obs)
            row.medape_pct = medape(y, preds)
        return row

    def baseline_row(
        self, compressor_id: str, observations: Sequence[Mapping[str, Any]]
    ) -> Table2Row:
        """The compressor's own compress/decompress timing row."""
        obs = [o for o in observations if o.get("compressor") == compressor_id]
        row = Table2Row(method=compressor_id, compressor=compressor_id)
        row.n_observations = len(obs)
        row.compress = StageStat.from_samples(
            [o["time:compress"] for o in obs if "time:compress" in o]
        )
        row.decompress = StageStat.from_samples(
            [o["time:decompress"] for o in obs if "time:decompress" in o]
        )
        return row

    def table2(self, observations: Sequence[Mapping[str, Any]] | None = None) -> list[Table2Row]:
        """Produce the full Table-2-shaped result set."""
        if observations is None:
            observations = self.collect().observations
        rows: list[Table2Row] = []
        for comp_id in self.compressors:
            rows.append(self.baseline_row(comp_id, observations))
            for scheme in self.schemes:
                rows.append(self.evaluate_scheme(scheme, comp_id, observations))
        return rows
