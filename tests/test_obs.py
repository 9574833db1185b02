"""Tests for the observability layer: tracer, metrics, Chrome export.

Covers the recording/null tracer contract, the process-wide registry's
merge semantics, a golden-file schema check of the Chrome trace-event
exporter (deterministic via injected clock/pid/tid), the null tracer's
cost guarantee, and -- structurally -- that the scheduler hot paths
carry no tracing calls at all.
"""

import inspect
import json
import time

import pytest

from repro.obs import (
    NULL_TRACER,
    REGISTRY,
    Registry,
    SpanEvent,
    Tracer,
    chrome_trace,
    get_tracer,
    set_tracer,
    traced,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
)


class FakeClock:
    """Deterministic seconds counter standing in for perf_counter."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _tracer(pid=7, tid=3):
    clock = FakeClock()
    return Tracer(clock=clock, pid=pid, tid=tid), clock


# ------------------------------------------------------------------- tracer


class TestTracer:
    def test_span_records_timing_and_args(self):
        tracer, clock = _tracer()
        with tracer.span("work", cat="c", n=1) as sp:
            clock.advance(0.5)
            sp.set(outcome="ok")
        [event] = tracer.finished()
        assert event == SpanEvent(
            name="work",
            cat="c",
            start_us=0.0,
            dur_us=500_000.0,
            pid=7,
            tid=3,
            args={"n": 1, "outcome": "ok"},
        )

    def test_nested_spans_are_contained(self):
        tracer, clock = _tracer()
        with tracer.span("outer"):
            clock.advance(0.1)
            with tracer.span("inner"):
                clock.advance(0.2)
            clock.advance(0.1)
        inner, outer = tracer.finished()
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.start_us <= inner.start_us
        assert (
            inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us
        )

    def test_event_roundtrips_through_wire_format(self):
        tracer, clock = _tracer()
        with tracer.span("s", cat="c", a=1):
            clock.advance(0.25)
        [event] = tracer.finished()
        restored = SpanEvent.from_dict(
            json.loads(json.dumps(event.as_dict()))
        )
        assert restored == event

    def test_absorb_keeps_foreign_pid_and_tid(self):
        worker, clock = _tracer(pid=111, tid=222)
        with worker.span("remote"):
            clock.advance(0.1)
        parent, _ = _tracer(pid=1, tid=1)
        count = parent.absorb([e.as_dict() for e in worker.finished()])
        assert count == 1
        [event] = parent.finished()
        assert (event.pid, event.tid) == (111, 222)

    def test_tracing_installs_and_restores(self):
        assert get_tracer() is NULL_TRACER
        with tracing() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
            with tracing() as inner:
                assert get_tracer() is inner
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_restores_null(self):
        installed = set_tracer(Tracer())
        try:
            assert get_tracer() is installed
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_traced_decorator_records_per_call(self):
        @traced(cat="test")
        def double(x):
            return 2 * x

        # Off: just runs.
        assert double(21) == 42
        assert NULL_TRACER.finished() == []
        # On: one span per call, labelled by qualname.
        with tracing() as tracer:
            assert double(5) == 10
        [event] = tracer.finished()
        assert "double" in event.name
        assert event.cat == "test"


class TestNullTracer:
    def test_span_is_one_shared_object(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b", cat="c", x=1)
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.finished() == []
        with NULL_TRACER.span("a") as sp:
            sp.set(anything="ignored")

    def test_null_span_cost_stays_in_noise(self):
        # A loose ceiling (10us/span) -- the real number is a few
        # hundred ns; this only catches accidental allocation or clock
        # reads sneaking into the disabled path.
        spans = 20_000
        start = time.perf_counter()
        for _ in range(spans):
            with NULL_TRACER.span("probe"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed / spans < 10e-6

    def test_scheduler_hot_paths_carry_no_tracing(self):
        # The per-event loops must stay pure: no span or counter calls.
        import repro.runtime.sched as sched

        source = inspect.getsource(sched)
        assert "get_tracer" not in source
        assert "REGISTRY" not in source


# ------------------------------------------------------------------ metrics


class TestRegistry:
    def test_counters_and_gauges(self):
        reg = Registry()
        reg.inc("a.hits")
        reg.inc("a.hits", 4)
        reg.counter("a.misses").value += 2
        reg.set("depth", 3)
        reg.gauge("depth").value = 5
        snap = reg.snapshot()
        assert snap["counters"] == {"a.hits": 5, "a.misses": 2}
        assert snap["gauges"] == {"depth": 5}

    def test_snapshot_is_sorted_and_json_stable(self):
        reg = Registry()
        for name in ("z", "a", "m"):
            reg.inc(name)
        assert list(reg.snapshot()["counters"]) == ["a", "m", "z"]
        json.dumps(reg.snapshot())

    def test_merge_adds_counters_and_replaces_gauges(self):
        reg = Registry()
        reg.inc("x", 2)
        reg.set("g", 1)
        reg.merge({"counters": {"x": 3, "y": 1}, "gauges": {"g": 9}})
        snap = reg.snapshot()
        assert snap["counters"] == {"x": 5, "y": 1}
        assert snap["gauges"] == {"g": 9}

    def test_reset(self):
        reg = Registry()
        reg.inc("x")
        reg.set("g", 2)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}}

    def test_process_registry_exists(self):
        assert isinstance(REGISTRY, Registry)


# ------------------------------------------------------------------- export


def _golden_spans():
    # Clock steps are binary-exact fractions so the microsecond
    # arithmetic in the exporter is bit-stable.
    tracer, clock = _tracer(pid=7, tid=3)
    clock.advance(1.0)
    with tracer.span("outer", cat="stage", bench="x"):
        clock.advance(0.25)
        with tracer.span("inner"):
            clock.advance(0.5)
    return tracer.finished()


class TestChromeExport:
    def test_golden_payload(self):
        payload = chrome_trace(
            _golden_spans(),
            registry_snapshot={"counters": {"k": 1}, "gauges": {}},
            process_names={7: "test process"},
            thread_names={(7, 3): "main"},
        )
        assert payload == {
            "traceEvents": [
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 7,
                    "tid": 0,
                    "args": {"name": "test process"},
                },
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 7,
                    "tid": 3,
                    "args": {"name": "main"},
                },
                {
                    "name": "inner",
                    "cat": "default",
                    "ph": "X",
                    "ts": 250_000.0,
                    "dur": 500_000.0,
                    "pid": 7,
                    "tid": 3,
                },
                {
                    "name": "outer",
                    "cat": "stage",
                    "ph": "X",
                    "ts": 0.0,
                    "dur": 750_000.0,
                    "pid": 7,
                    "tid": 3,
                    "args": {"bench": "x"},
                },
            ],
            "displayTimeUnit": "ms",
            "otherData": {"metrics": {"counters": {"k": 1}, "gauges": {}}},
        }
        assert validate_chrome_trace(payload) == []

    def test_timestamps_rebase_to_zero(self):
        payload = chrome_trace(_golden_spans())
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in spans) == 0.0

    def test_write_roundtrips_through_file(self, tmp_path):
        path = tmp_path / "trace.json"
        written = write_chrome_trace(str(path), _golden_spans())
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert validate_chrome_trace(loaded) == []

    def test_validator_flags_broken_events(self):
        problems = validate_chrome_trace(
            {
                "traceEvents": [
                    {"ph": "Q", "name": "x", "pid": 1, "tid": 1},
                    {"ph": "X", "name": "", "pid": 1, "tid": 1,
                     "ts": 0, "dur": 1},
                    {"ph": "X", "name": "ok", "pid": "1", "tid": 1,
                     "ts": -5, "dur": 1},
                    {"ph": "X", "name": "ok", "pid": 1, "tid": 1,
                     "ts": 0},
                    {"ph": "C", "name": "ctr", "pid": 1, "tid": 1,
                     "ts": 0},
                    "not an object",
                ]
            }
        )
        assert len(problems) == 7
        assert validate_chrome_trace(12) != []
        assert validate_chrome_trace({"traceEvents": None}) != []
        assert validate_chrome_trace([]) == []


# ------------------------------------------------ instrumented span taxonomy


class TestInstrumentation:
    def test_frontend_and_passes_emit_spans(self):
        from repro.frontend.lower import compile_source

        with tracing() as tracer:
            compile_source("void main() { int i; for (i = 0; i < 3; i++) {} }")
        names = {e.name for e in tracer.finished()}
        assert {"frontend.parse", "frontend.lower"} <= names

    def test_null_by_default_emits_nothing(self):
        from repro.frontend.lower import compile_source

        assert get_tracer() is NULL_TRACER
        compile_source("void main() {}")  # must not raise or record
        assert NULL_TRACER.finished() == []
