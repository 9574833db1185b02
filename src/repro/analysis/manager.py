"""Versioned analysis manager (the new-pass-manager architecture).

Every analysis the HELIX pipeline consumes -- call graph, Andersen
points-to, loop forests, CFG snapshots, dominators, liveness, induction
classification, and the whole-module :class:`DependenceAnalysis` service
-- is requested through one shared :class:`AnalysisManager`:

    am = AnalysisManager()
    forest = am.get(LOOPS, func)        # or the am.loops(func) shorthand
    dep = am.get(DEPENDENCE, module)

The manager memoizes each result against the *version* of the IR object
it was computed from (:attr:`repro.ir.function.Function.version` /
:attr:`repro.ir.module.Module.version`).  Mutating passes bump those
versions (directly, or automatically through the block-level structural
APIs); the next ``get`` observes the mismatch, records an *invalidation*
and transparently recomputes.  A stale result is therefore never served,
and an analysis is recomputed at most once per mutation of its subject
rather than once per call site.

Function-level bumps propagate to the owning module (see
``Function._module``), so module-scoped analyses (callgraph, points-to,
dependence) are invalidated by any function edit while function-scoped
ones (CFG, loops, liveness) survive edits to *other* functions.

Observability: the manager counts hits, misses, invalidations and
compute wall-clock per analysis straight into ``analysis:<name>`` rows
of one :class:`~repro.obs.metrics.StageStats`
(:attr:`AnalysisManager.stats`: an evaluation runner's own, so they flow
through the suite's ``--stats`` table and ``--report`` JSON, or a fresh
one), and into the registry as
``analysis.<name>.{hits,misses,invalidations}``.

Registering a new analysis means declaring one :class:`Analysis` spec:
its name, a compute callback ``(am, target, *args) -> result`` (which may
request other analyses through ``am``), and -- when requests carry extra
arguments, like the per-loop induction analysis -- a key function mapping
those arguments to a hashable cache key.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.cfg import CFGView
from repro.analysis.dependence import DependenceAnalysis
from repro.analysis.dominators import DominatorTree, dominators
from repro.analysis.induction import InductionInfo, analyze_induction
from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.analysis.loops import Loop, LoopForest, find_loops
from repro.analysis.pointer import PointsToResult, andersen_pointer_analysis
from repro.ir import Function, Module
from repro.obs import REGISTRY, get_tracer
from repro.obs.metrics import StageStats


class Analysis:
    """One registered analysis: how to compute it and how to key requests.

    ``compute`` receives the requesting manager first, so an analysis can
    pull its own prerequisites through the cache (e.g. loops ask for the
    CFG and dominators).  ``key`` maps the extra ``get`` arguments to a
    hashable tuple; parameterless analyses use the default empty key.
    """

    __slots__ = ("name", "compute", "key")

    def __init__(
        self,
        name: str,
        compute: Callable[..., Any],
        key: Optional[Callable[[Tuple[Any, ...]], Tuple[Any, ...]]] = None,
    ) -> None:
        self.name = name
        self.compute = compute
        self.key = key or (lambda args: ())

    def __repr__(self) -> str:
        return f"<Analysis {self.name}>"


# -- the registry ----------------------------------------------------------------


def _compute_dependence(am: "AnalysisManager", module: Module) -> DependenceAnalysis:
    return DependenceAnalysis(
        module,
        callgraph=am.get(CALLGRAPH, module),
        points_to=am.get(POINTS_TO, module),
        manager=am,
    )


def _compute_induction(
    am: "AnalysisManager", func: Function, loop: Loop
) -> InductionInfo:
    cfg = am.get(CFG, func)
    dom = am.get(DOMINATORS, func)
    readonly = None
    module = func._module
    if module is not None:
        readonly = am.get(DEPENDENCE, module).readonly_globals
    return analyze_induction(func, loop, cfg, dom, readonly_symbols=readonly)


#: Module-scoped analyses (invalidated by any mutation in the program).
CALLGRAPH = Analysis("callgraph", lambda am, m: build_callgraph(m))
POINTS_TO = Analysis("points_to", lambda am, m: andersen_pointer_analysis(m))
DEPENDENCE = Analysis("dependence", _compute_dependence)

#: Function-scoped analyses (invalidated only by mutations of that function).
CFG = Analysis("cfg", lambda am, f: CFGView(f))
DOMINATORS = Analysis("dominators", lambda am, f: dominators(am.get(CFG, f)))
LOOPS = Analysis(
    "loops",
    lambda am, f: find_loops(f, am.get(CFG, f), am.get(DOMINATORS, f)),
)
LIVENESS = Analysis("liveness", lambda am, f: compute_liveness(f, am.get(CFG, f)))

#: Per-loop analysis, keyed by the loop header within its function.
INDUCTION = Analysis(
    "induction", _compute_induction, key=lambda args: (args[0].header,)
)


# -- the manager -----------------------------------------------------------------


class AnalysisManager:
    """Version-checked memoization of analyses over Functions/Modules.

    ``stats`` is the table the manager counts into (``None``: a fresh
    one): a hit is a ``memory_hits`` of the ``analysis:<name>`` row, a
    miss a ``computes`` with its compute time, and a stale result an
    ``invalidations``.
    """

    def __init__(self, stats: Optional[StageStats] = None) -> None:
        #: target object -> {(analysis name, *key): (version, result)}.
        #: Weak keys: caches die with the module/function they describe.
        self._cache: "WeakKeyDictionary[Any, Dict[Tuple, Tuple[int, Any]]]" = (
            WeakKeyDictionary()
        )
        self.stats = StageStats() if stats is None else stats

    # -- core protocol -----------------------------------------------------------

    def get(self, analysis: Analysis, target: Any, *args: Any) -> Any:
        """Return ``analysis`` of ``target``, recomputing only when the
        target's version moved since the cached result was produced."""
        version = target.version
        per_target = self._cache.get(target)
        if per_target is None:
            per_target = {}
            self._cache[target] = per_target
        key = (analysis.name,) + tuple(analysis.key(args))
        entry = per_target.get(key)
        if entry is not None:
            if entry[0] == version:
                self._count_hit(analysis.name)
                return entry[1]
            self._count_invalidation(analysis.name)
        start = time.perf_counter()
        with get_tracer().span(f"analysis.{analysis.name}", cat="analysis"):
            result = analysis.compute(self, target, *args)
        seconds = time.perf_counter() - start
        # Keyed on the pre-compute version: if a compute callback ever
        # mutated its subject, the entry would be stale-on-arrival and
        # recomputed next time -- the safe direction.
        per_target[key] = (version, result)
        self._count_miss(analysis.name, seconds)
        return result

    # -- shorthands --------------------------------------------------------------

    def callgraph(self, module: Module) -> CallGraph:
        return self.get(CALLGRAPH, module)

    def points_to(self, module: Module) -> PointsToResult:
        return self.get(POINTS_TO, module)

    def dependence(self, module: Module) -> DependenceAnalysis:
        return self.get(DEPENDENCE, module)

    def cfg(self, func: Function) -> CFGView:
        return self.get(CFG, func)

    def dominators(self, func: Function) -> DominatorTree:
        return self.get(DOMINATORS, func)

    def loops(self, func: Function) -> LoopForest:
        return self.get(LOOPS, func)

    def liveness(self, func: Function) -> LivenessInfo:
        return self.get(LIVENESS, func)

    def induction(self, func: Function, loop: Loop) -> InductionInfo:
        return self.get(INDUCTION, func, loop)

    # -- accounting --------------------------------------------------------------

    def _count_hit(self, name: str) -> None:
        self.stats.tally(f"analysis:{name}").memory_hits += 1
        REGISTRY.inc(f"analysis.{name}.hits")

    def _count_miss(self, name: str, seconds: float) -> None:
        tally = self.stats.tally(f"analysis:{name}")
        tally.computes += 1
        tally.wall_seconds += seconds
        REGISTRY.inc(f"analysis.{name}.misses")

    def _count_invalidation(self, name: str) -> None:
        self.stats.invalidate(f"analysis:{name}")
        REGISTRY.inc(f"analysis.{name}.invalidations")
