"""Sample summaries: medians, percentiles and the run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Mapping, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75)

#: A percentile is reported only with this many samples beyond it, so
#: that it is a measurement of the tail and not one slow sample.
MIN_SAMPLES_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return float(ordered[rank - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the ``q``th percentile."""
    return count - max(1, math.ceil(count * q / 100.0))


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it, as ``(q, value)``;
    ``None`` when there are too few samples for any of them."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(len(values), q) >= MIN_SAMPLES_BEYOND:
            return q, percentile(values, q)
    return None


def fastest_by_part(reps: Sequence[Mapping[str, float]]) -> float:
    """Seconds of a rep made of named parts, each part at its fastest
    over ``reps``.  The reps do identical work and a shared host only
    ever adds time, in spells shorter than a rep: such a spell then
    spoils one part of one rep instead of the whole rep."""
    if not reps:
        raise ValueError("no reps")
    return float(sum(min(rep[part] for rep in reps) for part in reps[0]))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (what the acceptance rule calls the spread of a metric)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative when it
    is better); ``better`` is ``"lower"`` or ``"higher"``."""
    if first == 0:
        return 0.0 if second == 0 else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
