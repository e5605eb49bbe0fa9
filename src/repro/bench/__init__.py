"""LibPressio-Predict-Bench: scalable, resilient training & evaluation.

Components (§4.3): a SQLite :class:`CheckpointStore` keyed by stable
option hashes; a :class:`TaskQueue` with locality-aware scheduling
whose three engines (serial, process, cluster) share one retry/fault
ledger and one placement policy; and the :class:`ExperimentRunner`
producing Table-2-shaped results under k-fold cross-validation.
"""

from .checkpoint import CheckpointStore
from .faults import CHAOS_CLASSES, ChaosPlan, RetryPolicy
from .report import format_table2, harness_lines, rows_to_records
from .runner import CollectionResult, ExperimentRunner, StageStat, Table2Row
from .tasks import Task, precompute_keys
from .taskqueue import QueueStats, TaskQueue, TaskResult

__all__ = [
    "CHAOS_CLASSES",
    "ChaosPlan",
    "CheckpointStore",
    "CollectionResult",
    "ExperimentRunner",
    "QueueStats",
    "RetryPolicy",
    "StageStat",
    "Table2Row",
    "Task",
    "TaskQueue",
    "TaskResult",
    "format_table2",
    "harness_lines",
    "precompute_keys",
    "rows_to_records",
]
