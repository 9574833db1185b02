"""Process-wide named counters and gauges.

One :class:`Registry` (the module-level :data:`REGISTRY`) absorbs the
pipeline's ad-hoc statistics behind a single namespace so a run can be
summarised with one snapshot:

* ``stage.<name>.{computes,memory_hits,disk_hits,seconds_ms}`` -- mirrored
  from :class:`repro.evaluation.runner.StageStats`.
* ``analysis.<name>.{hits,misses,invalidations}`` -- mirrored from
  :class:`repro.analysis.manager.AnalysisManager`.
* ``interp.backend.{tree,superblock,hooked_superblock}`` -- interpreter
  backend selections, counted once per ``run()``.
* ``interp.superblock.{formed,blocks_fused,fallbacks}`` -- superblock
  formation totals and fallback activations from
  :mod:`repro.runtime.codegen` (a fallback means a budget could expire
  inside a fused region, so the tree walker finished the activation).
* ``interp.superblock.hooked`` -- hooked-tier functions made available
  (compiled or replayed from the artifact cache), and beside it
  ``interp.codegen.{hook_sites,hook_sites_elided}`` -- the block
  boundaries those functions compiled with / without their
  ``on_block_entry`` call: how much of an instrumented run is observed
  (everything unless the interpreter declares ``watched_edges``).
  Counted per function, never per activation.
* ``interp.codegen.{undef_checks,undef_checks_elided}`` -- per generated
  function of either tier, the first reads of a register in a dispatch
  arm that kept / lost the walker's undefined-register test (lost:
  every path to the read assigns the register).  A verified module
  reads 0 kept.
* ``interp.codegen.{functions,specialized_ops}`` -- code-generated
  function bodies and the fused/specialized instruction count
  (compare+branch fusions, address+memory pairs, folded constants).
* ``evalcache.{hits,misses,stores}.<kind>`` -- artifact traffic of
  :class:`repro.artifacts.ArtifactStore` (the same tally as its
  ``traffic()``).

Stdlib-only on purpose: the runtime layer imports this module directly
(never :mod:`repro.obs`, whose exporter pulls in more machinery), so
there is no import cycle and no cost beyond a dict lookup + int add.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, delta: Number = 1) -> None:
        self.value += delta


class Gauge:
    """A named value that can be set to arbitrary levels."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Registry:
    """Named counters and gauges, creatable on first touch.

    A registry can be *scoped per thread*: :meth:`isolated` installs a
    fresh child registry for the calling thread, and every read/write
    made through this instance on that thread (``inc``/``set``/
    ``counter``/``gauge``/``snapshot``/``merge``) is routed to the
    child until the scope exits, at which point the child's totals are
    folded back into the parent.  This is how the service orchestrator
    gives every job attempt its own ``metrics_delta`` even though all
    instrumentation sites share one process-wide :data:`REGISTRY`:
    work done by *this thread* during the scope lands in the scope, so
    two worker threads never cross-contaminate each other's job deltas.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._local = threading.local()

    def _scope(self) -> Optional["Registry"]:
        return getattr(self._local, "scope", None)

    # -- creation / access -------------------------------------------------

    def counter(self, name: str) -> Counter:
        scope = getattr(self._local, "scope", None)
        if scope is not None:
            return scope.counter(name)
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        scope = getattr(self._local, "scope", None)
        if scope is not None:
            return scope.gauge(name)
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def inc(self, name: str, delta: Number = 1) -> None:
        """Fast path: bump a counter by name."""
        scope = getattr(self._local, "scope", None)
        if scope is not None:
            scope.inc(name, delta)
            return
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        c.value += delta

    def set(self, name: str, value: Number) -> None:
        """Fast path: set a gauge by name."""
        scope = getattr(self._local, "scope", None)
        if scope is not None:
            scope.set(name, value)
            return
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        g.value = value

    # -- aggregate views ---------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Number]]:
        """All current values, JSON-stable and sorted by name.

        Under an :meth:`isolated` scope this is the *scope's* snapshot:
        code that computes before/after deltas inside the scope (the
        suite runner, the trace exporter) sees only work attributable
        to the scoped thread.
        """
        scope = getattr(self._local, "scope", None)
        if scope is not None:
            return scope.snapshot()
        return {
            "counters": {n: self._counters[n].value for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].value for n in sorted(self._gauges)},
        }

    def merge(self, snapshot: Mapping[str, Mapping[str, Number]]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add (cross-process totals compose); gauges take the
        incoming value (last writer wins, matching single-process
        semantics where a later ``set`` replaces an earlier one).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set(name, value)

    def reset(self) -> None:
        """Drop every counter and gauge (test isolation)."""
        scope = getattr(self._local, "scope", None)
        if scope is not None:
            scope.reset()
            return
        self._counters.clear()
        self._gauges.clear()

    @contextmanager
    def isolated(self) -> Iterator["Registry"]:
        """Scope this thread's metrics into a fresh child registry.

        Within the ``with`` block, every registry operation made by the
        *calling thread* through this instance lands in the yielded
        child (other threads keep writing to the parent).  On exit the
        child's totals are folded back into the enclosing registry --
        the parent, or an outer scope when isolation nests -- so
        process-wide totals still accumulate; the child's
        :meth:`snapshot` *is* the scope's delta, already in the
        ``metrics_delta`` wire shape.
        """
        previous = getattr(self._local, "scope", None)
        scope = Registry()
        self._local.scope = scope
        try:
            yield scope
        finally:
            self._local.scope = previous
            target = previous if previous is not None else self
            delta = scope.snapshot()
            for name, value in delta["counters"].items():
                target.inc(name, value)
            for name, value in delta["gauges"].items():
                target.set(name, value)

    def __iter__(self) -> Iterator[Tuple[str, Number]]:
        for name in sorted(self._counters):
            yield name, self._counters[name].value
        for name in sorted(self._gauges):
            yield name, self._gauges[name].value


def metrics_delta(
    before: Mapping[str, Mapping[str, Number]],
    after: Mapping[str, Mapping[str, Number]],
) -> Dict[str, Dict[str, Number]]:
    """Registry-snapshot difference ``after - before``.

    Counters subtract (so a reused worker process never double-reports
    counts from earlier work); gauges pass through at their latest
    value, matching :meth:`Registry.merge` semantics on the receiving
    side.  This is the ship-home format of every process-pool worker:
    the parent folds the returned delta into its own registry with
    :meth:`Registry.merge`.
    """
    counters: Dict[str, Number] = {}
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        diff = value - before_counters.get(name, 0)
        if diff:
            counters[name] = diff
    return {"counters": counters, "gauges": dict(after.get("gauges", {}))}


#: The process-wide registry used by all instrumentation sites.
REGISTRY = Registry()
