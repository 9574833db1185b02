"""The host-speed probe, and the calibrated seconds built on it.

This benchmark runs on a few cores of a shared host.  The same
deterministic rep takes 20 to 80% longer for minutes at a time, then
recovers; the time goes to the memory hierarchy the neighbours share (a
pure arithmetic loop barely notices, a walk over scattered objects slows
by as much as the program does).  Nothing a run can do inside its few
tens of seconds averages that away, so every end-to-end time is divided
by how slow the host was while it was taken:

    calibrated seconds = raw seconds / slowness
    slowness           = probe reading / REFERENCE_S

The probe is a fixed piece of Python that imports nothing from the
program: a pass over objects scattered through a ~100 MB heap, then an
arithmetic loop as long.  The program is not all memory-bound, and a
probe that is overcorrects; half and half tracked the cold suite, the
warm suite and the sweep best when the mix was varied over recorded
runs.  A reading is the fastest of a few samples; a window takes one
reading before and one after the timed work, with nothing else running,
and uses their mean.  Sampling *while* the work runs was tried and
rejected: on two cores the sampler competes with the work it judges.

On a quiet host slowness is 1 and calibrated seconds are seconds.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

#: One probe sample on this benchmark's host when it is quiet.  Only a
#: scale: it makes calibrated seconds read as quiet-host seconds.
REFERENCE_S = 0.060

OBJECTS = 300_000
TOUCHES = 40_000
ARITHMETIC = 530_000
SAMPLES = 6


class Probe:
    """The fixed work; building it allocates the heap it walks."""

    def __init__(self) -> None:
        self._items = [
            {"a": i, "b": [i, i + 1], "c": str(i)} for i in range(OBJECTS)
        ]
        order = list(range(OBJECTS))
        random.Random(0).shuffle(order)
        self._order = order[:TOUCHES]

    def sample(self) -> float:
        items = self._items
        start = time.perf_counter()
        total = 0
        for k in self._order:
            item = items[k]
            item["a"] += 1
            total += len(item["b"]) + len(item["c"])
        x = 0
        for i in range(ARITHMETIC):
            x = (x * 31 + i) % 1_000_003
        return time.perf_counter() - start

    def reading(self) -> float:
        """Seconds of the fastest of a few samples."""
        return min(self.sample() for _ in range(SAMPLES))


@dataclass
class Window:
    """How slow the host was around one piece of timed work."""

    slowness: float = 1.0

    def seconds(self, raw: float) -> float:
        return raw / self.slowness


class Host:
    """Takes the readings of one run and keeps them for the ledger."""

    def __init__(self, reading: Optional[Callable[[], float]] = None) -> None:
        self._reading = reading or Probe().reading
        self.readings: List[float] = []
        #: Slowness of every window closed so far, in order.
        self.windows: List[float] = []

    def read(self) -> float:
        """One reading, as slowness."""
        self.readings.append(self._reading())
        return self.readings[-1] / REFERENCE_S

    @contextmanager
    def window(self) -> Iterator[Window]:
        """Bracket timed work; the window is usable once it is closed."""
        window = Window()
        before = self.read()
        yield window
        window.slowness = (before + self.read()) / 2.0
        self.windows.append(window.slowness)

    @property
    def mean_reading(self) -> float:
        return sum(self.readings) / len(self.readings)

    @property
    def drift(self) -> float:
        """Change from the first reading of the run to the last."""
        return abs(self.readings[-1] / self.readings[0] - 1.0)
