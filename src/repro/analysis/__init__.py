"""Program analyses used by the HELIX transformation.

Everything here is a from-scratch implementation of the classical analyses
the paper relies on:

* :mod:`repro.analysis.cfg` -- CFG views, reachability, traversal orders.
* :mod:`repro.analysis.dominators` -- dominator trees (iterative
  Cooper-Harvey-Kennedy).
* :mod:`repro.analysis.loops` -- natural loops and the loop nesting forest.
* :mod:`repro.analysis.dataflow` -- a generic iterative dataflow framework.
* :mod:`repro.analysis.liveness` -- virtual-register liveness.
* :mod:`repro.analysis.callgraph` -- the (direct) call graph.
* :mod:`repro.analysis.pointer` -- Andersen-style interprocedural pointer
  analysis (the role of [17] in the paper).
* :mod:`repro.analysis.induction` -- loop-invariant and induction variables.
* :mod:`repro.analysis.dependence` -- loop-carried data dependences
  (``D_data`` of Step 2).
* :mod:`repro.analysis.loopnest` -- program-wide static/dynamic loop
  nesting graphs (Section 2.2).
* :mod:`repro.analysis.manager` -- the versioned analysis manager: every
  analysis above, requested through one memoizing, invalidation-tracked
  service threaded through the whole compile path.
"""

from repro.analysis.cfg import CFGView, postorder, reachable_blocks, reverse_postorder
from repro.analysis.dominators import DominatorTree, dominators
from repro.analysis.loops import Loop, LoopForest, find_loops
from repro.analysis.dataflow import DataflowProblem, solve_dataflow
from repro.analysis.liveness import LivenessInfo, compute_liveness
from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.pointer import PointsToResult, andersen_pointer_analysis
from repro.analysis.induction import InductionInfo, analyze_induction
from repro.analysis.dependence import (
    DataDependence,
    DependenceAnalysis,
    DependenceKind,
)
from repro.analysis.loopnest import (
    DynamicLoopNestGraph,
    LoopId,
    StaticLoopNestGraph,
    build_static_loop_nest_graph,
)
from repro.analysis.manager import (
    Analysis,
    AnalysisManager,
)

__all__ = [
    "CFGView",
    "postorder",
    "reverse_postorder",
    "reachable_blocks",
    "DominatorTree",
    "dominators",
    "Loop",
    "LoopForest",
    "find_loops",
    "DataflowProblem",
    "solve_dataflow",
    "LivenessInfo",
    "compute_liveness",
    "CallGraph",
    "build_callgraph",
    "PointsToResult",
    "andersen_pointer_analysis",
    "InductionInfo",
    "analyze_induction",
    "DataDependence",
    "DependenceKind",
    "DependenceAnalysis",
    "LoopId",
    "StaticLoopNestGraph",
    "DynamicLoopNestGraph",
    "build_static_loop_nest_graph",
    "Analysis",
    "AnalysisManager",
]
