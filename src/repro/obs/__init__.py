"""Unified tracing & metrics subsystem (zero-dependency).

Two complementary primitives, both off by default and free when off:

* :class:`Tracer` -- nestable wall-clock spans with typed args, recorded
  as flat events and exportable as Chrome trace-event JSON
  (:mod:`repro.obs.export`), loadable in Perfetto / ``about:tracing``.
  The active tracer is a shared :class:`NullTracer` until
  :func:`tracing` installs a recording one for the calling context, so
  instrumentation sites cost one context-variable read plus a no-op
  context manager when tracing is off.
* :class:`Registry` -- process-wide named counters and gauges
  (:data:`REGISTRY`).  The pipeline's pre-existing ad-hoc stats (stage
  tallies, per-analysis hit/miss rows, interpreter backend selections,
  evaluation-cache disk traffic) all mirror into it, so one snapshot
  describes a whole run.

On top of these sit two reporting surfaces:

* :class:`ResultsStore` (:mod:`repro.obs.results`) -- a versioned,
  content-addressed store of suite run records with a
  :func:`diff` regression engine (``repro bench-diff``).
* :func:`prometheus_text` (:mod:`repro.obs.prom`) -- Prometheus
  text-format exposition of registry snapshots and daemon status
  (``repro serve-status --prom``).

The *simulated-time* timeline exporter lives in
:mod:`repro.obs.timeline`; it is imported explicitly by its users (never
from this package root) because it depends on the runtime layer.
"""

from repro.obs.metrics import REGISTRY, Counter, Gauge, Registry, metrics_delta
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanEvent,
    Tracer,
    get_tracer,
    tracing,
)
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.prom import prometheus_text, status_gauges
from repro.obs.results import (
    RESULTS_SCHEMA_VERSION,
    DiffEntry,
    ResultsStore,
    RunDiff,
    RunRecord,
    diff,
    format_history,
    run_metrics,
)

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Registry",
    "metrics_delta",
    "NULL_TRACER",
    "NullTracer",
    "SpanEvent",
    "Tracer",
    "get_tracer",
    "tracing",
    "chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "status_gauges",
    "RESULTS_SCHEMA_VERSION",
    "DiffEntry",
    "ResultsStore",
    "RunDiff",
    "RunRecord",
    "diff",
    "format_history",
    "run_metrics",
]
