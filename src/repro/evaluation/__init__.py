"""Evaluation harness: regenerates every table and figure of the paper.

* :mod:`repro.evaluation.runner` -- cached benchmark pipelines (compile,
  profile, select, transform, execute, replay) with per-stage
  observability counters.
* :mod:`repro.evaluation.parallel_runner` -- fans independent benchmark
  pipelines out over worker processes and merges them back through the
  shared artifact directory (:mod:`repro.artifacts`).  Interrupted runs
  raise
  :class:`~repro.evaluation.parallel_runner.SuiteInterrupted` carrying
  the partial report.
* :mod:`repro.evaluation.figures` -- one driver per experiment:
  Figure 9 (speedups), Table 1 (loop characteristics), Figure 10
  (Step 6/8 ablation), Section 3.3 (prefetching study), Section 3.4
  (model validation), Figure 11 (time breakdown by nesting level),
  Figure 12 (signal-latency misestimation), Figure 13 (nesting-level
  distribution).
* :mod:`repro.evaluation.reporting` -- ASCII tables and statistics.
"""

from repro.evaluation.runner import (
    EvaluationRunner,
    StageStats,
    default_runner,
)
from repro.evaluation.reporting import (
    format_stage_stats,
    format_table,
    geomean,
)
from repro.evaluation import figures

__all__ = [
    "EvaluationRunner",
    "StageStats",
    "default_runner",
    "figures",
    "format_stage_stats",
    "format_table",
    "geomean",
]
