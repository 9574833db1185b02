"""Prometheus text-format exposition for registry snapshots.

Renders a :meth:`~repro.obs.metrics.Registry.snapshot` (plus optional
derived gauges, e.g. the daemon's queue depths) in the Prometheus text
exposition format, so ``repro serve-status --prom`` output can be
dropped straight into a node-exporter textfile collector or scraped by
any Prometheus-compatible agent.  Stdlib-only: the format is just
``# TYPE`` comments and ``name value`` lines.

Metric names are sanitized to the Prometheus grammar
(``[a-zA-Z_:][a-zA-Z0-9_:]*``): the registry's dotted names
(``stage.lower.computes``) become underscored
(``repro_stage_lower_computes``).  Sanitization can collide
(``a.b`` and ``a_b`` both map to ``a_b``); last writer wins, matching
gauge semantics.
"""

from __future__ import annotations

import re
from typing import Dict, Mapping, Optional, Union

Number = Union[int, float]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str, prefix: str = "repro_") -> str:
    """Map an arbitrary registry name onto the Prometheus grammar."""
    cleaned = _NAME_OK.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return prefix + cleaned


def _format_value(value: Number) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(
    snapshot: Mapping[str, Mapping[str, Number]],
    extra_gauges: Optional[Mapping[str, Number]] = None,
    prefix: str = "repro_",
) -> str:
    """Render a registry snapshot as Prometheus exposition text.

    ``extra_gauges`` lets callers add derived values (queue depths,
    uptime) that live outside the registry proper.  The output ends
    with a newline, as the exposition format requires.
    """
    lines = []
    for name in sorted(snapshot.get("counters", {})):
        metric = sanitize_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(
            f"{metric} {_format_value(snapshot['counters'][name])}"
        )
    gauges: Dict[str, Number] = dict(snapshot.get("gauges", {}))
    if extra_gauges:
        gauges.update(extra_gauges)
    for name in sorted(gauges):
        metric = sanitize_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauges[name])}")
    return "\n".join(lines) + "\n"


def status_gauges(status: Mapping[str, object]) -> Dict[str, Number]:
    """Derive exposition gauges from a daemon ``status`` RPC payload.

    Surfaces the introspection numbers that are not registry-resident:
    uptime, queue depth by job state, in-flight count, and worker
    liveness.
    """
    gauges: Dict[str, Number] = {}
    uptime = status.get("uptime_seconds")
    if isinstance(uptime, (int, float)):
        gauges["serve.uptime_seconds"] = uptime
    queue = status.get("queue")
    if isinstance(queue, Mapping):
        for state, count in queue.items():
            if isinstance(count, (int, float)):
                gauges[f"serve.queue.{state}"] = count
    in_flight = status.get("in_flight")
    if isinstance(in_flight, list):
        gauges["serve.in_flight"] = len(in_flight)
    workers = status.get("workers")
    if isinstance(workers, Mapping):
        for key, count in workers.items():
            if isinstance(count, (int, float)):
                gauges[f"serve.workers.{key}"] = count
    accepting = status.get("accepting")
    if isinstance(accepting, bool):
        gauges["serve.accepting"] = 1 if accepting else 0
    return gauges
