"""Rendering helpers for experiment results."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Union

Cell = Union[str, int, float, None]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's summary statistic for speedups)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _render(value: Cell) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Cell]], title: str = ""
) -> str:
    """Plain-text table, columns sized to content."""
    rendered = [[_render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("  ".join("-" * w for w in widths))
    for row in rendered:
        parts.append(line(row))
    return "\n".join(parts)


def format_stage_stats(stages: Dict[str, Dict[str, Union[int, float]]]) -> str:
    """Observability table for ``--stats``: one row per pipeline stage.

    ``stages`` is :meth:`repro.obs.metrics.StageStats.as_dict`
    output (possibly merged across worker processes).
    """
    rows: List[List[Cell]] = []
    for stage, data in stages.items():
        rows.append(
            [
                stage,
                int(data["requests"]),
                int(data["computes"]),
                int(data["memory_hits"]),
                int(data["disk_hits"]),
                int(data.get("invalidations", 0)),
                float(data["wall_seconds"]),
            ]
        )
    return format_table(
        [
            "stage",
            "requests",
            "computed",
            "memory-hit",
            "disk-hit",
            "invalidated",
            "seconds",
        ],
        rows,
        title="Pipeline stage statistics",
    )


def format_analysis_stats(
    analyses: Dict[str, Dict[str, Union[int, float]]]
) -> str:
    """Observability table for the analysis manager: one row per
    registered analysis.

    ``analyses`` is :meth:`repro.obs.metrics.StageStats.analyses`
    output: a hit is a memory hit, a miss a compute.
    """
    rows: List[List[Cell]] = [
        [
            name,
            int(data["requests"]),
            int(data["memory_hits"]),
            int(data["computes"]),
            int(data["invalidations"]),
            float(data["wall_seconds"]),
        ]
        for name, data in sorted(analyses.items())
    ]
    return format_table(
        ["analysis", "requests", "hits", "misses", "invalidated", "seconds"],
        rows,
        title="Analysis manager statistics",
    )


def format_interp_stats(counters: Dict[str, Union[int, float]]) -> str:
    """Observability table for the interpreter tiers: one row per
    ``interp.*`` counter.

    ``counters`` is the ``interp``-prefixed slice of a registry
    snapshot delta (see :attr:`SuiteReport.interp
    <repro.evaluation.parallel_runner.SuiteReport.interp>`): backend
    selections plus superblock formation / codegen specialization
    totals.
    """
    rows: List[List[Cell]] = [
        [name, int(counters[name])] for name in sorted(counters)
    ]
    return format_table(
        ["counter", "value"], rows, title="Interpreter statistics"
    )
