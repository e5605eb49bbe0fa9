"""Rendering Table-2-style reports."""

from __future__ import annotations

import math
from typing import Any, Mapping, Sequence

from .runner import Table2Row
from .taskqueue import QueueStats

_COLUMNS = (
    ("method", 18),
    ("Error-Dep (ms)", 18),
    ("Error-Agn (ms)", 18),
    ("Training (ms)", 18),
    ("Fit (ms)", 18),
    ("Inference (ms)", 18),
    ("Comp/Decomp (ms)", 26),
    ("MedAPE (%)", 11),
)


def _fmt_medape(value: float) -> str:
    if value != value or math.isinf(value):
        return "N/A"
    return f"{value:.2f}"


def format_row(row: Table2Row) -> str:
    """One line of the table, matching the paper's column set."""
    if row.method == row.compressor:  # baseline compressor row
        comp = (
            f"{row.compress.ms()}/{row.decompress.ms()}"
            if row.compress.available
            else "N/A"
        )
        cells = [row.method, "", "", "", "", "", comp, ""]
    elif not row.supported:
        cells = [f"{row.compressor} {row.method}", "N/A", "N/A", "N/A", "N/A", "N/A", "", "N/A"]
    else:
        cells = [
            f"{row.compressor} {row.method}",
            row.error_dependent.ms(),
            row.error_agnostic.ms(),
            row.training.ms(),
            row.fit.ms(),
            row.inference.ms(),
            "",
            _fmt_medape(row.medape_pct),
        ]
    return " | ".join(c.ljust(w) for c, (_, w) in zip(cells, _COLUMNS))


#: Engines whose affinity counters are worth a footer line: with one
#: worker (serial) every datum is one miss and the rest hits, by
#: construction.
_AFFINITY_ENGINES = ("process", "cluster")


def harness_lines(harness: QueueStats | Mapping[str, Any] | None) -> list[str]:
    """Footer lines giving the harness the same per-stage treatment as
    the schemes: queue-wait / execute / checkpoint timings, plus the
    affinity counters of the engines that route by affinity.

    Accepts live :class:`QueueStats` (a just-finished run) or the plain
    mapping ``report`` restores from the checkpoint's metadata.  Keys an
    older build wrote and this one does not know are ignored.
    """
    if harness is None:
        return []
    if isinstance(harness, QueueStats):
        harness = {
            "engine": harness.engine,
            "stage_summary": harness.stage_summary(),
            **harness.affinity_summary(),
        }
    engine = str(harness.get("engine") or "")
    stages = harness.get("stage_summary") or {}
    lines = []
    if stages:
        label = f"harness[{engine}]" if engine else "harness"
        rendered = " | ".join(
            f"{name} {float(seconds) * 1e3:.2f} ms"
            for name, seconds in stages.items()
        )
        lines.append(f"{label}: {rendered}")
    if engine in _AFFINITY_ENGINES:
        rate = harness.get("affinity_hit_rate")
        affinity = f"{float(rate):.0%}" if rate is not None else "N/A"
        lines.append(
            f"affinity[{engine}]: {affinity} "
            f"(steals {harness.get('affinity_steals') or 0})"
        )
    return lines


def format_table2(
    rows: Sequence[Table2Row],
    title: str | None = None,
    *,
    harness: QueueStats | Mapping[str, Any] | None = None,
) -> str:
    """Render the rows as the paper's Table 2 layout.

    ``harness`` (a :class:`QueueStats` or its checkpointed mapping form)
    appends the harness's own stage timings and affinity counters as a
    footer — the run infrastructure reported in the same breath as the
    schemes it measured.
    """
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(name.ljust(w) for name, w in _COLUMNS)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(format_row(row))
    footer = harness_lines(harness)
    if footer:
        lines.append("-" * len(header))
        lines.extend(footer)
    return "\n".join(lines)


def rows_to_records(rows: Sequence[Table2Row]) -> list[dict]:
    """Rows as plain dicts (for JSON dumps / further analysis)."""
    out = []
    for r in rows:
        out.append(
            {
                "method": r.method,
                "compressor": r.compressor,
                "supported": r.supported,
                "n_observations": r.n_observations,
                "medape_pct": r.medape_pct,
                **{
                    f"{stage}_ms": getattr(r, stage).mean * 1e3
                    if getattr(r, stage).available
                    else None
                    for stage in (
                        "error_dependent",
                        "error_agnostic",
                        "training",
                        "fit",
                        "inference",
                        "compress",
                        "decompress",
                    )
                },
            }
        )
    return out
