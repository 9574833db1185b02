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

The package imports none of its modules: import each name from the
module that defines it, so an importer loads only what it uses.
"""
