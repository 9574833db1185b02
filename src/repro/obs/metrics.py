"""Process-wide named counters and gauges.

One :class:`Registry` (the module-level :data:`REGISTRY`) absorbs the
pipeline's ad-hoc statistics behind a single namespace so a run can be
summarised with one snapshot:

* ``stage.<name>.{computes,memory_hits,disk_hits}`` -- mirrored by
  :class:`StageStats` from the stage records it folds (never from its
  ``analysis:<name>`` rows).
* ``analysis.<name>.{hits,misses,invalidations}`` -- counted by
  :class:`repro.analysis.manager.AnalysisManager` beside those rows.
* ``interp.backend.{tree,superblock}`` -- the engine an interpreter
  picked when it was built, counted once per ``run()``.
* ``interp.superblock.{formed,blocks_fused}`` -- superblock formation
  totals from :mod:`repro.runtime.codegen`.
* ``interp.codegen.{hook_sites,hook_sites_elided}`` -- the block
  boundaries each function of a class that overrides
  ``on_block_entry`` compiled with / without its hook call: how much
  of an instrumented run is observed (everything unless the
  interpreter declares ``watched_edges``).  Counted per function,
  never per activation.
* ``interp.codegen.{undef_checks,undef_checks_elided}`` -- per generated
  function, the first reads of a register in a dispatch
  arm that kept / lost the walker's undefined-register test (lost:
  every path to the read assigns the register).  A verified module
  reads 0 kept.
* ``interp.codegen.{functions,specialized_ops}`` -- code-generated
  function bodies and the fused/specialized instruction count
  (compare+branch fusions, address+memory pairs, folded constants).
* ``evalcache.{hits,misses,stores}.<kind>`` -- artifact traffic of
  :class:`repro.artifacts.ArtifactStore` (the same tally as its
  ``traffic()``).

The same module holds the :class:`EvaluationObserver` protocol that
stage records and artifact events flow through, with
:class:`StageStats` as an evaluation runner's first sink, and
:data:`CURRENT_JOB`, the job those events belong to.

Stdlib-only on purpose: the runtime layer imports this module directly
(never :mod:`repro.obs`, whose exporter pulls in more machinery), so
there is no import cycle and no cost beyond a dict lookup + int add.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Union

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


def table_delta(
    before: Mapping[str, Mapping[str, Number]],
    after: Mapping[str, Mapping[str, Number]],
) -> Dict[str, Dict[str, Number]]:
    """Row-wise ``after - before`` of two tables of counters, such as
    two :meth:`StageStats.as_dict` or ``ArtifactStore.traffic``
    snapshots, in ``after``'s row order; a row that did not move is
    left out."""
    delta: Dict[str, Dict[str, Number]] = {}
    for name, row in after.items():
        old = before.get(name, {})
        diff = {field: value - old.get(field, 0) for field, value in row.items()}
        if any(diff.values()):
            delta[name] = diff
    return delta


#: The process-wide registry used by all instrumentation sites.
REGISTRY = Registry()


# -- the observer protocol ---------------------------------------------------


class EvaluationObserver:
    """Protocol through which the pipeline and the service report progress.

    Implementations override any subset; the base class is a usable
    no-op (also exposed as :data:`NULL_OBSERVER`).  ``job`` is
    :data:`CURRENT_JOB` where the event was emitted: ``None`` outside
    the service (a bare evaluation runner).
    """

    def job_started(self, job: Any) -> None:
        """``job`` entered RUNNING."""

    def stage_completed(
        self, job: Any, bench: str, stage: str, outcome: str, seconds: float
    ) -> None:
        """One pipeline stage request finished; ``outcome`` is
        ``compute``, ``memory`` or ``disk``.  The parallel suite runner
        also reports each worker's whole benchmark, as ``stage="bench"``
        with outcome ``compute``."""

    def artifact_stored(
        self, job: Any, kind: str, key: str, outcome: str
    ) -> None:
        """Artifact-store traffic: ``outcome`` is ``store`` (newly
        persisted) or ``hit`` (served warm)."""

    def job_finished(self, job: Any) -> None:
        """``job`` reached a terminal state (done/failed/cancelled)."""


NULL_OBSERVER = EvaluationObserver()


#: The service job whose handler this thread is running (``None``
#: outside one).  The orchestrator sets it on whichever thread runs the
#: handler, and every emitter passes it as the ``job`` of the events it
#: reports.
CURRENT_JOB: ContextVar[Optional[Any]] = ContextVar(
    "current_job", default=None
)


#: Pipeline stages, in execution order (the first rows of
#: :meth:`StageStats.as_dict`).  ``timeline`` is the suite's
#: per-benchmark simulated-time accounting
#: (:meth:`~repro.evaluation.runner.EvaluationRunner.timeline`), asked
#: for by :func:`~repro.evaluation.figures.figure9_row`; ``run`` is the
#: ``run`` job's answer
#: (:meth:`~repro.evaluation.runner.EvaluationRunner.run_result`), whose
#: compute nests the stages before it.
STAGES = (
    "compile",
    "profile",
    "sequential",
    "selection",
    "transform",
    "execute",
    "timeline",
    "run",
)

#: The :class:`StageTally` counter each stage outcome adds one to.
_OUTCOME_COUNTERS = {
    "compute": "computes",
    "memory": "memory_hits",
    "disk": "disk_hits",
}


@dataclass
class StageTally:
    """Observability counters of one pipeline stage."""

    #: Full recomputations (cold: the stage actually ran).
    computes: int = 0
    #: Served from this runner's in-memory memo.
    memory_hits: int = 0
    #: Reconstructed from the disk cache (no interpretation).
    disk_hits: int = 0
    #: Wall-clock spent in this stage (computes + disk loads; memory
    #: hits are effectively free and charged as zero).
    wall_seconds: float = 0.0
    #: Cached results discarded because their subject changed (only
    #: analysis stages report these; pipeline stages stay at zero).
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.computes + self.memory_hits + self.disk_hits

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "computes": self.computes,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "wall_seconds": self.wall_seconds,
            "invalidations": self.invalidations,
        }


class StageStats(EvaluationObserver):
    """Per-stage counters: a fold over stage records.

    An :class:`~repro.evaluation.runner.EvaluationRunner` lists its
    ``stats`` first among the sinks of its stage records, so every
    record reaches :meth:`stage_completed` and is mirrored into the
    registry as ``stage.<stage>.<counter>``.  An
    :class:`~repro.analysis.manager.AnalysisManager` counts its
    requests straight into ``analysis:<name>`` rows of the table it is
    given (memory hits, computes, invalidations); they are not stage
    records and have registry names of their own.  Artifact traffic is
    the store's own tally, not a stage row, so artifact events pass by.
    """

    def __init__(self) -> None:
        self.stages: Dict[str, StageTally] = {}

    def tally(self, stage: str) -> StageTally:
        tally = self.stages.get(stage)
        if tally is None:
            tally = StageTally()
            self.stages[stage] = tally
        return tally

    def record(self, stage: str, outcome: str, seconds: float = 0.0) -> None:
        """Count one stage request: ``outcome`` is ``compute``,
        ``memory`` or ``disk``."""
        counter = _OUTCOME_COUNTERS[outcome]
        tally = self.tally(stage)
        setattr(tally, counter, getattr(tally, counter) + 1)
        tally.wall_seconds += seconds
        REGISTRY.inc(f"stage.{stage}.{counter}")

    def invalidate(self, stage: str) -> None:
        """Count one cache invalidation (a stale cached result dropped
        because the IR it described was mutated)."""
        self.tally(stage).invalidations += 1

    # -- the sink side of the observer protocol ------------------------------

    def stage_completed(
        self, job: Any, bench: str, stage: str, outcome: str, seconds: float
    ) -> None:
        self.record(stage, outcome, seconds)

    # -- views ---------------------------------------------------------------

    def merge(self, stages: Dict[str, dict]) -> None:
        """Fold another table's :meth:`as_dict` in (cross-process
        aggregation for the parallel suite runner).

        Every field defaults to zero so snapshots serialized by older
        code versions -- which may lack fields added since -- merge
        cleanly instead of raising ``KeyError``.
        """
        for stage, data in stages.items():
            tally = self.tally(stage)
            tally.computes += data.get("computes", 0)
            tally.memory_hits += data.get("memory_hits", 0)
            tally.disk_hits += data.get("disk_hits", 0)
            tally.wall_seconds += data.get("wall_seconds", 0.0)
            tally.invalidations += data.get("invalidations", 0)

    def as_dict(self) -> Dict[str, dict]:
        order = [s for s in STAGES if s in self.stages]
        order += [s for s in sorted(self.stages) if s not in STAGES]
        return {stage: self.stages[stage].as_dict() for stage in order}

    def analyses(self) -> Dict[str, dict]:
        """The ``analysis:<name>`` rows of :meth:`as_dict`, by name."""
        prefix = "analysis:"
        return {
            stage[len(prefix):]: row
            for stage, row in self.as_dict().items()
            if stage.startswith(prefix)
        }
