"""Evaluation harness: regenerates every table and figure of the paper.

* :mod:`repro.evaluation.runner` -- cached benchmark pipelines (compile,
  profile, select, transform, execute, replay) with per-stage
  observability counters.
* :mod:`repro.evaluation.parallel_runner` -- maps
  :func:`~repro.evaluation.figures.figure9_row` over the suite, sending
  the benchmarks the artifact store (:mod:`repro.artifacts`) cannot
  answer to worker processes, which hand their rows back.  Interrupted
  runs raise
  :class:`~repro.evaluation.parallel_runner.SuiteInterrupted` carrying
  the partial report.
* :mod:`repro.evaluation.figures` -- one driver per experiment:
  Figure 9 (speedups), Table 1 (loop characteristics), Figure 10
  (Step 6/8 ablation), Section 3.3 (prefetching study), Section 3.4
  (model validation), Figure 11 (time breakdown by nesting level),
  Figure 12 (signal-latency misestimation), Figure 13 (nesting-level
  distribution).
* :mod:`repro.evaluation.reporting` -- ASCII tables and statistics.

The package imports none of its modules: import each name from the
module that defines it, so an importer loads only what it uses.
"""
