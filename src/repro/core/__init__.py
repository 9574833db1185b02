"""The HELIX algorithm (paper Section 2).

* :mod:`repro.core.loopinfo` -- metadata describing a parallelized loop.
* :mod:`repro.core.segments` -- Step 4: sequential-segment regions and
  ``wait``/``signal`` insertion.
* :mod:`repro.core.signals` -- Step 6: signal minimization (redundant-wait
  elimination, segment merging, the dependence redundance graph and
  Theorem 1).
* :mod:`repro.core.communication` -- Step 7: thread memory buffers and
  loop-boundary live-variable forwarding.
* :mod:`repro.core.scheduling` -- Step 5: segment shrinking, and Step 8's
  code-balancing scheduler (Figure 6) plus helper-thread wait sequences.
* :mod:`repro.core.parallelizer` -- the per-loop pipeline (Steps 1-9) and
  whole-module driver.
* :mod:`repro.core.model` -- the speedup model (Equation 1).
* :mod:`repro.core.selection` -- Section 2.2's loop-selection algorithm
  over the dynamic loop nesting graph.

The package imports none of its modules: import each name from the
module that defines it, so an importer loads only what it uses.
"""
