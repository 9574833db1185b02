"""Tests for the application-layer job orchestrator."""

import json
import threading
import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import CURRENT_JOB
from repro.runtime.machine import MachineConfig
from repro.service.jobs import CompileJob, JobState, RunJob
from repro.service.orchestrator import Orchestrator
from tests.helpers import RecordingObserver, check_event_ordering

PROGRAM = """
int total;
void main() {
    int i;
    for (i = 0; i < 30; i++) {
        int k = 0;
        int f = 0;
        while (k < 20) { f = f + (k ^ i); k++; }
        total = (total + f) % 9973;
    }
    print(total);
}
"""


@dataclass(frozen=True)
class FakeSpec:
    """Synthetic job spec driving a test-registered handler."""

    tag: str = "x"

    op = "fake"


def make_orchestrator(handler, **kwargs):
    observer = RecordingObserver()
    kwargs.setdefault("workers", 1)
    orch = Orchestrator(observer=observer, **kwargs)
    orch.handlers[FakeSpec] = handler
    return orch, observer


@pytest.fixture()
def tiny_bench(monkeypatch):
    from repro.bench import suite as bench_suite

    spec = bench_suite.BenchmarkSpec(
        "tinyorch", "synthetic orchestrator test bench",
        lambda scale: PROGRAM, 1.0, "test",
    )
    monkeypatch.setitem(bench_suite.BENCHMARKS, "tinyorch", spec)
    return "tinyorch"


def test_submit_wait_done():
    orch, observer = make_orchestrator(lambda ctx, spec: {"ok": spec.tag})
    try:
        job = orch.submit(FakeSpec("a"))
        orch.wait(job, timeout=10)
        assert job.state is JobState.DONE
        assert job.result == {"ok": "a"}
        assert job.metrics is not None
        kinds = observer.kinds(job.id)
        assert kinds[0] == "job_started"
        assert kinds[-1] == "job_finished"
        assert check_event_ordering(observer.for_job(job.id)) == []
    finally:
        orch.shutdown()


def test_unknown_spec_rejected():
    orch, _ = make_orchestrator(lambda ctx, spec: {})
    try:
        with pytest.raises(TypeError):
            orch.submit(object())
    finally:
        orch.shutdown()


def test_handler_exception_fails_job():
    def boom(ctx, spec):
        raise ValueError("broken input")

    orch, observer = make_orchestrator(boom)
    try:
        job = orch.submit(FakeSpec())
        orch.wait(job, timeout=10)
        assert job.state is JobState.FAILED
        assert "ValueError" in job.error and "broken input" in job.error
        assert observer.kinds(job.id)[-1] == "job_finished"
    finally:
        orch.shutdown()


def test_timeout_fails_job():
    release = threading.Event()

    def slow(ctx, spec):
        release.wait(20)
        return {}

    orch, observer = make_orchestrator(slow)
    try:
        job = orch.submit(FakeSpec(), timeout=0.2)
        orch.wait(job, timeout=10)
        assert job.state is JobState.FAILED
        assert "budget" in job.error
        # The overrun attempt was asked to stop cooperatively.
        assert job.cancel_requested.is_set()
    finally:
        release.set()
        orch.shutdown()


def test_cancel_queued_job():
    gate = threading.Event()

    def blocker(ctx, spec):
        gate.wait(20)
        return {}

    orch, observer = make_orchestrator(blocker, workers=1)
    try:
        first = orch.submit(FakeSpec("hold"))
        second = orch.submit(FakeSpec("victim"))
        assert orch.cancel(second.id) is True
        orch.wait(second, timeout=10)
        assert second.state is JobState.CANCELLED
        assert observer.kinds(second.id) == ["job_finished"]
        gate.set()
        orch.wait(first, timeout=10)
        assert first.state is JobState.DONE
    finally:
        gate.set()
        orch.shutdown()


def test_cancel_running_job_cooperatively():
    entered = threading.Event()

    def cooperative(ctx, spec):
        entered.set()
        while True:
            ctx.check()
            time.sleep(0.01)

    orch, observer = make_orchestrator(cooperative)
    try:
        job = orch.submit(FakeSpec())
        assert entered.wait(10)
        assert orch.cancel(job.id) is True
        orch.wait(job, timeout=10)
        assert job.state is JobState.CANCELLED
        assert job.result is None
    finally:
        orch.shutdown()


def test_cancel_terminal_job_is_noop():
    orch, _ = make_orchestrator(lambda ctx, spec: {})
    try:
        job = orch.submit(FakeSpec())
        orch.wait(job, timeout=10)
        assert orch.cancel(job.id) is False
        assert orch.cancel("no-such-job") is False
    finally:
        orch.shutdown()


def test_drain_stops_intake():
    orch, _ = make_orchestrator(lambda ctx, spec: {})
    try:
        job = orch.submit(FakeSpec())
        assert orch.drain(timeout=10) is True
        assert job.state is JobState.DONE
        with pytest.raises(RuntimeError):
            orch.submit(FakeSpec())
    finally:
        orch.shutdown()


def test_shutdown_cancels_queued_and_joins():
    gate = threading.Event()

    def blocker(ctx, spec):
        gate.wait(20)
        ctx.check()
        return {}

    orch, _ = make_orchestrator(blocker, workers=1)
    running = orch.submit(FakeSpec("running"))
    queued = orch.submit(FakeSpec("queued"))
    orch.cancel(running.id)
    gate.set()
    orch.shutdown(wait=True, timeout=10)
    assert queued.state is JobState.CANCELLED
    orch.wait(running, timeout=10)
    assert running.state.terminal
    assert all(not t.is_alive() for t in orch._threads)


def test_run_job_via_real_pipeline(tmp_path, tiny_bench):
    observer = RecordingObserver()
    orch = Orchestrator(
        cache=tmp_path / "cache", workers=2, observer=observer
    )
    try:
        first = orch.submit(RunJob(tiny_bench, cores=4))
        orch.wait(first, timeout=120)
        assert first.state is JobState.DONE
        assert first.result["output_matches"] is True
        assert first.result["speedup"] > 0
        assert check_event_ordering(observer.for_job(first.id)) == []

        # Resubmission: byte-identical result, served warm.
        second = orch.submit(RunJob(tiny_bench, cores=4))
        orch.wait(second, timeout=120)
        assert second.result == first.result
        counters = orch.status()["artifacts"]["artifacts"]
        assert sum(row["hits"] for row in counters.values()) > 0
    finally:
        orch.shutdown()


def _stage_outcomes(observer, job):
    """``{stage: [outcome, ...]}`` of one job's ``stage_completed``
    events, memory hits left out."""
    outcomes = {}
    for event in observer.for_job(job.id):
        if event.kind == "stage_completed":
            if event.args["outcome"] != "memory":
                outcomes.setdefault(event.args["stage"], []).append(
                    event.args["outcome"]
                )
    return outcomes


def _run(orch, spec, **kwargs):
    job = orch.submit(spec, **kwargs)
    orch.wait(job, timeout=120)
    assert job.state is JobState.DONE, job.error
    return job


def test_repeat_run_job_reads_its_answer_and_nothing_else(
    tmp_path, tiny_bench
):
    from repro.obs import chrome_trace, validate_chrome_trace
    from repro.obs.tracer import SpanEvent

    observer = RecordingObserver()
    orch = Orchestrator(
        cache=tmp_path / "cache", workers=1, observer=observer
    )
    try:
        first = _run(orch, RunJob(tiny_bench, cores=4))
        assert _stage_outcomes(observer, first)["run"] == ["compute"]
        repeat = _run(orch, RunJob(tiny_bench, cores=4))
        assert json.dumps(repeat.result, sort_keys=True) == json.dumps(
            first.result, sort_keys=True
        )
        # The answer needs no module, selection, transformation or
        # trace: the stored ``run`` artifact is the only thing read.
        assert _stage_outcomes(observer, repeat) == {"run": ["disk"]}
        assert check_event_ordering(observer.for_job(repeat.id)) == []
        counters = repeat.metrics["counters"]
        assert counters["evalcache.hits.run"] == 1
        assert not any(k.startswith("evalcache.misses.") for k in counters)

        # A traced repeat still has something to show: its one stage.
        traced = _run(orch, RunJob(tiny_bench, cores=4), trace=True)
        assert traced.result == first.result
        names = [span["name"] for span in traced.spans]
        assert names == ["stage.run"]
        assert traced.spans[0]["args"]["outcome"] == "disk"
        payload = chrome_trace(
            [SpanEvent.from_dict(span) for span in traced.spans]
        )
        assert validate_chrome_trace(payload) == []
    finally:
        orch.shutdown()


def test_other_core_count_shares_the_recording(tmp_path, monkeypatch):
    """What the interpreter, the profiler and the recording run produce
    does not depend on the core count: a second core count of a bench
    whose selection ends in the same module reads all three back,
    interprets nothing, and only selects, transforms and schedules."""
    from repro.bench import suite as bench_suite
    from repro.runtime.parallel import ParallelExecutor
    from tests.test_evaluation_cache import TINY_COHORT

    bench = "tinyshared"
    monkeypatch.setitem(
        bench_suite.BENCHMARKS,
        bench,
        bench_suite.BenchmarkSpec(
            bench, "synthetic bench with a selected loop",
            lambda scale: TINY_COHORT, 1.0, "test",
        ),
    )
    recording_runs = []
    real = ParallelExecutor.run

    def spy(self, *args, **kwargs):
        recording_runs.append(self.machine.cores)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ParallelExecutor, "run", spy)
    observer = RecordingObserver()
    orch = Orchestrator(
        cache=tmp_path / "cache", workers=1, observer=observer
    )
    fresh = Orchestrator(cache=tmp_path / "fresh", workers=1)
    try:
        six = _run(orch, RunJob(bench, cores=6))
        assert six.result["chosen"]
        cold = _stage_outcomes(observer, six)
        for stage in ("profile", "sequential", "execute", "run"):
            assert cold[stage] == ["compute"], stage
        assert recording_runs == [6]
        four = _run(orch, RunJob(bench, cores=4))
        warm = _stage_outcomes(observer, four)
        for stage in ("profile", "sequential", "execute"):
            assert warm[stage] == ["disk"], stage
        assert warm["run"] == ["compute"]
        assert recording_runs == [6]
        assert four.result["cycles"] != six.result["cycles"]
        alone = _run(fresh, RunJob(bench, cores=4))
        assert recording_runs == [6, 4]
        assert json.dumps(four.result, sort_keys=True) == json.dumps(
            alone.result, sort_keys=True
        )
    finally:
        orch.shutdown()
        fresh.shutdown()


def test_corrupt_run_entry_is_recomputed(tmp_path, tiny_bench):
    orch = Orchestrator(cache=tmp_path / "cache", workers=1)
    try:
        first = _run(orch, RunJob(tiny_bench, cores=4))
        (entry,) = (tmp_path / "cache" / "run").glob("*.json")
        good = entry.read_bytes()
        answer = json.loads(good)
        corruptions = (
            b"\xff\xfe not utf-8",
            b"[1, 2]",
            json.dumps({"speedup": 2.0}).encode(),  # fields missing
            json.dumps(dict(answer, bench="other")).encode(),
            json.dumps(dict(answer, cores=2)).encode(),
        )
        for blob in corruptions:
            entry.write_bytes(blob)
            job = _run(orch, RunJob(tiny_bench, cores=4))
            assert job.result == first.result, blob
            assert job.metrics["counters"]["stage.run.computes"] == 1, blob
            # ... and the entry was overwritten with the answer.
            assert entry.read_bytes() == good, blob
    finally:
        orch.shutdown()


def test_cancel_between_stages_of_run_job(tmp_path, tiny_bench):
    """The run stage's checkpoints sit between the pipeline stages: a
    cancel that lands during one stops the job before the next, stores
    no answer, and leaves a later job to finish the work."""

    class CancelAfterProfile(RecordingObserver):
        def stage_completed(self, job, bench, stage, outcome, seconds):
            super().stage_completed(job, bench, stage, outcome, seconds)
            if stage == "profile" and job is victim_holder.get("job"):
                job.request_cancel()

    victim_holder = {}
    observer = CancelAfterProfile()
    orch = Orchestrator(
        cache=tmp_path / "cache", workers=1, observer=observer
    )
    gate = threading.Event()
    orch.handlers[FakeSpec] = lambda ctx, spec: gate.wait(20) or {}
    try:
        blocker = orch.submit(FakeSpec("hold"))
        victim = orch.submit(RunJob(tiny_bench, cores=4))
        victim_holder["job"] = victim
        gate.set()
        orch.wait(blocker, timeout=10)
        orch.wait(victim, timeout=120)
        assert victim.state is JobState.CANCELLED
        assert victim.result is None
        stages = _stage_outcomes(observer, victim)
        # The profile compiled the train build it ran; the sequential
        # baseline, the next stage, never started.
        assert set(stages) == {"compile", "profile"}
        assert check_event_ordering(observer.for_job(victim.id)) == []
        assert not list((tmp_path / "cache" / "run").glob("*.json"))

        again = _run(orch, RunJob(tiny_bench, cores=4))
        assert again.result["output_matches"] is True
        assert _stage_outcomes(observer, again)["run"] == ["compute"]
    finally:
        gate.set()
        orch.shutdown()


def test_finished_jobs_release_their_observers():
    """A per-job observer (the daemon's connection stream) is dropped
    when the job reaches a terminal state, whichever one."""
    gate = threading.Event()

    def handler(ctx, spec):
        if spec.tag == "hold":
            gate.wait(20)
        if spec.tag == "boom":
            raise ValueError("broken input")
        return {}

    orch, _ = make_orchestrator(handler, workers=1)
    streams = [RecordingObserver() for _ in range(5)]
    try:
        hold = orch.submit(FakeSpec("hold"), observer=streams[0])
        queued = orch.submit(FakeSpec("victim"), observer=streams[1])
        assert len(orch._job_observers) == 2
        assert orch.cancel(queued.id) is True
        assert list(orch._job_observers) == [hold.id]
        gate.set()
        rest = [
            orch.submit(FakeSpec(tag), observer=stream)
            for tag, stream in zip(("ok", "boom", "ok"), streams[2:])
        ]
        for job in [hold] + rest:
            orch.wait(job, timeout=10)
    finally:
        gate.set()
        orch.shutdown()  # joins the workers: every terminal event is out
    assert orch._job_observers == {}
    for job, stream in zip([hold, queued] + rest, streams):
        assert stream.kinds(job.id)[-1] == "job_finished"


def test_concurrent_jobs_get_disjoint_metric_deltas():
    """Two jobs running simultaneously on different worker threads must
    not see each other's counters: the per-attempt registry scope is
    thread-local."""
    from repro.obs import REGISTRY

    barrier = threading.Barrier(2, timeout=10)

    def counting(ctx, spec):
        barrier.wait()  # both attempts are now in-flight together
        REGISTRY.inc(f"test.work.{spec.tag}", int(spec.tag))
        barrier.wait()  # neither has folded its scope yet
        return {}

    orch, _ = make_orchestrator(counting, workers=2)
    try:
        before = REGISTRY.snapshot()["counters"]
        jobs = [orch.submit(FakeSpec("3")), orch.submit(FakeSpec("5"))]
        for job in jobs:
            orch.wait(job, timeout=10)
            assert job.state is JobState.DONE
        assert jobs[0].metrics["counters"] == {"test.work.3": 3}
        assert jobs[1].metrics["counters"] == {"test.work.5": 5}
        # Scopes fold into the global registry on exit.
        after = REGISTRY.snapshot()["counters"]
        assert after.get("test.work.3", 0) - before.get("test.work.3", 0) == 3
        assert after.get("test.work.5", 0) - before.get("test.work.5", 0) == 5
    finally:
        orch.shutdown()


def test_traced_submit_attaches_spans():
    from repro.obs import get_tracer

    def spanful(ctx, spec):
        tracer = get_tracer()
        with tracer.span("unit.work", tag=spec.tag):
            pass
        return {}

    orch, _ = make_orchestrator(spanful)
    try:
        traced = orch.submit(FakeSpec("t"), trace=True)
        orch.wait(traced, timeout=10)
        assert traced.state is JobState.DONE
        assert traced.spans, "traced job captured no spans"
        names = [span["name"] for span in traced.spans]
        assert "unit.work" in names

        plain = orch.submit(FakeSpec("p"))
        orch.wait(plain, timeout=10)
        assert plain.spans is None
    finally:
        orch.shutdown()


def test_a_failed_traced_job_keeps_its_spans():
    from repro.obs import get_tracer

    def failing(ctx, spec):
        with get_tracer().span("unit.before_failure"):
            pass
        raise RuntimeError("boom")

    orch, _ = make_orchestrator(failing)
    try:
        job = orch.submit(FakeSpec("f"), trace=True)
        orch.wait(job, timeout=10)
        assert job.state is JobState.FAILED
        assert [span["name"] for span in job.spans] == ["unit.before_failure"]
    finally:
        orch.shutdown()


def test_status_reports_queue_and_workers():
    gate = threading.Event()
    entered = threading.Event()

    def blocker(ctx, spec):
        entered.set()
        gate.wait(20)
        return {}

    orch, _ = make_orchestrator(blocker, workers=1)
    try:
        running = orch.submit(FakeSpec("run"))
        queued = orch.submit(FakeSpec("wait"))
        assert entered.wait(10)
        status = orch.status()
        assert status["accepting"] is True
        assert status["queue"]["running"] == 1
        assert status["queue"]["queued"] == 1
        assert status["workers"]["configured"] == 1
        assert status["workers"]["alive"] == 1
        (entry,) = status["in_flight"]
        assert entry["job"] == running.id
        assert entry["op"] == "fake"
        assert entry["age_seconds"] >= 0
        gate.set()
        for job in (running, queued):
            orch.wait(job, timeout=10)
        status = orch.status()
        assert status["queue"]["done"] == 2
        assert status["in_flight"] == []
        assert set(status["queue"]) == {
            state.value for state in JobState
        }
    finally:
        gate.set()
        orch.shutdown()


@settings(max_examples=15, deadline=None)
@given(
    plan=st.lists(
        st.integers(min_value=0, max_value=3),  # stage events
        min_size=1,
        max_size=4,
    )
)
def test_event_ordering_property_through_orchestrator(plan):
    """Real orchestrator streams always satisfy the observer contract,
    whatever stage activity the handlers produce."""

    def scripted(ctx, spec):
        index = int(spec.tag)
        for count in range(plan[index]):
            for sink in ctx.sinks:
                sink.stage_completed(
                    CURRENT_JOB.get(), f"bench{index}", f"stage{count}",
                    "compute", 0.0,
                )
        return {"index": index}

    orch, observer = make_orchestrator(scripted, workers=2)
    try:
        jobs = [
            orch.submit(FakeSpec(str(index))) for index in range(len(plan))
        ]
        for job in jobs:
            orch.wait(job, timeout=30)
            assert job.state is JobState.DONE
            assert check_event_ordering(observer.for_job(job.id)) == []
    finally:
        orch.shutdown()


def _suite_answer(result):
    return json.dumps(
        {key: result[key] for key in ("geomeans", "speedups", "rendered")},
        sort_keys=True,
    )


def test_suite_job_runs_in_thread_over_the_shared_store(
    tmp_path, tiny_bench, monkeypatch
):
    """A suite job's traffic is the orchestrator's store's traffic, its
    answer is the one-shot suite's, and a request that still asks for
    worker processes runs on the worker thread all the same."""
    import concurrent.futures

    from repro.evaluation import parallel_runner
    from repro.service.daemon import _OPS

    fig9, report, _runner = parallel_runner.run_suite(
        machine=MachineConfig(cores=4),
        cache_dir=str(tmp_path / "oneshot"),
        benches=[tiny_bench],
    )

    def no_pool(*args, **kwargs):
        raise AssertionError("a daemon job forked a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(parallel_runner, "ProcessPoolExecutor", no_pool)
    observer = RecordingObserver()
    orch = Orchestrator(
        cache=tmp_path / "cache", workers=1, observer=observer
    )
    try:
        request = {"op": "suite", "benches": [tiny_bench], "cores": 4}
        job = _run(orch, _OPS["suite"](request))
        counters = orch.status()["artifacts"]["artifacts"]
        for kind in ("profile", "sequential", "plan", "recording"):
            assert counters[kind]["stores"] == 1, (kind, counters)
        assert _suite_answer(job.result) == _suite_answer(
            {
                "geomeans": report.geomeans,
                "speedups": report.speedups,
                "rendered": fig9.render(),
            }
        )
        assert check_event_ordering(observer.for_job(job.id)) == []

        # ``jobs`` is not a key of the suite op any more: it is ignored
        # like any unknown key, and the job never reaches a pool.
        again = _run(orch, _OPS["suite"](dict(request, jobs=2)))
        assert _suite_answer(again.result) == _suite_answer(job.result)
        counters = orch.status()["artifacts"]["artifacts"]
        assert counters["plan"]["hits"] >= 1, counters
    finally:
        orch.shutdown()


def test_compile_job_goes_through_the_transform_stage(tmp_path, monkeypatch):
    """A compile job transforms through the runner's Steps 1-9 stage, so
    it streams a ``transform`` stage event, and answers exactly what
    Steps 1-9 on the selected loops print."""
    from repro.bench import suite as bench_suite
    from repro.core.loopinfo import HelixOptions
    from repro.core.parallelizer import parallelize_module
    from repro.evaluation.runner import EvaluationRunner
    from repro.ir.printer import module_to_str
    from tests.test_evaluation_cache import TINY_COHORT

    bench = "tinycompile"
    monkeypatch.setitem(
        bench_suite.BENCHMARKS,
        bench,
        bench_suite.BenchmarkSpec(
            bench, "synthetic bench with a selected loop",
            lambda scale: TINY_COHORT, 1.0, "test",
        ),
    )
    observer = RecordingObserver()
    orch = Orchestrator(
        cache=tmp_path / "cache", workers=1, observer=observer
    )
    try:
        job = _run(orch, CompileJob(bench, cores=4, include_ir=True))
        assert _stage_outcomes(observer, job)["transform"] == ["compute"]
        assert check_event_ordering(observer.for_job(job.id)) == []
    finally:
        orch.shutdown()
    runner = EvaluationRunner(MachineConfig(cores=4))
    chosen = runner.selection(bench).chosen
    transformed, infos = parallelize_module(
        runner.module(bench, "ref"), chosen, runner.machine, HelixOptions(),
        manager=runner.analysis,
    )
    assert job.result == {
        "bench": bench,
        "cores": 4,
        "chosen": [list(loop) for loop in chosen],
        "parallelized": len(infos),
        "ir": module_to_str(transformed),
    }
    assert job.result["parallelized"] >= 1


class _Logged(RecordingObserver):
    """A recording observer that also logs ``(name, event)`` to a list
    it shares with other sinks, so their relative order shows."""

    def __init__(self, name, log):
        super().__init__()
        self.name, self.log = name, log
        self.threads = set()

    def _record(self, event, job, **args):
        super()._record(event, job, **args)
        self.log.append((self.name, event))
        if event in ("stage_completed", "artifact_stored"):
            self.threads.add(threading.current_thread().name)


def test_events_reach_every_sink_in_order(tmp_path, tiny_bench):
    """The orchestrator-wide sinks, then the job's own observer: each
    event of a real pipeline reaches all of them, one after the other,
    before the next event is emitted."""
    log = []
    first, second, own = (_Logged(n, log) for n in ("first", "second", "own"))
    orch = Orchestrator(cache=tmp_path / "cache", workers=1, observer=second)
    orch.sinks.insert(0, first)  # how the daemon installs its trace writer
    try:
        job = _run(orch, RunJob(tiny_bench, cores=4), observer=own)
    finally:
        orch.shutdown()
    assert len(log) % 3 == 0
    assert [name for name, _ in log] == ["first", "second", "own"] * (
        len(log) // 3
    )
    kinds = [kind for _, kind in log[::3]]
    assert {"stage_completed", "artifact_stored"} <= set(kinds)
    for sink in (first, second, own):
        assert [event.kind for event in sink.events] == kinds
        assert sink.kinds(job.id) == kinds
        assert check_event_ordering(sink.events) == []


def test_a_timed_job_names_itself_on_its_attempt_thread(tmp_path, tiny_bench):
    """A job with a timeout runs its handler on a disposable thread:
    every stage and artifact event its runner emits there still names
    the job."""
    observer = _Logged("sink", [])
    orch = Orchestrator(
        cache=tmp_path / "cache", workers=1, observer=observer
    )
    try:
        job = _run(orch, RunJob(tiny_bench, cores=4), timeout=300)
    finally:
        orch.shutdown()
    assert observer.threads == {f"attempt-{job.id}"}
    emitted = [
        event for event in observer.events
        if event.kind in ("stage_completed", "artifact_stored")
    ]
    assert {event.kind for event in emitted} == {
        "stage_completed", "artifact_stored",
    }
    assert {event.job_id for event in emitted} == {job.id}
    assert check_event_ordering(observer.for_job(job.id)) == []


def _fold(rows):
    """``{stage: {outcome: count}}`` of ``(stage, outcome, count)`` rows,
    pipeline stages only."""
    folded = {}
    for stage, outcome, count in rows:
        if count and not stage.startswith("analysis:"):
            per_stage = folded.setdefault(stage, {})
            per_stage[outcome] = per_stage.get(outcome, 0) + count
    return folded


def test_the_stage_channels_agree(tmp_path, tiny_bench):
    """One stage record, four views: the job's ``stage_completed``
    events, its runner's counters, its ``stage.*`` metrics and the
    ``outcome`` of each ``stage.*`` span all say the same thing, cold,
    warm and traced."""
    outcomes = {"computes": "compute", "memory_hits": "memory",
                "disk_hits": "disk"}
    observer = RecordingObserver()
    orch = Orchestrator(
        cache=tmp_path / "cache", workers=1, observer=observer
    )
    stats = {}

    def run_keeping_stats(ctx, spec):
        result = orch._handle_run(ctx, spec)
        stats[ctx.job.id] = ctx.runner(spec.cores).stats
        return result

    orch.handlers[RunJob] = run_keeping_stats
    try:
        cold = _run(orch, RunJob(tiny_bench, cores=4))
        warm = _run(orch, RunJob(tiny_bench, cores=4))
        traced = _run(orch, RunJob(tiny_bench, cores=2), trace=True)
    finally:
        orch.shutdown()
    folds = {}
    for job in (cold, warm, traced):
        events = folds[job.id] = _fold(
            (event.args["stage"], event.args["outcome"], 1)
            for event in observer.for_job(job.id)
            if event.kind == "stage_completed"
        )
        table = _fold(
            (stage, outcome, getattr(tally, counter))
            for stage, tally in stats[job.id].stages.items()
            for counter, outcome in outcomes.items()
        )
        metrics = _fold(
            (name.split(".")[1], outcomes[name.split(".")[2]], value)
            for name, value in job.metrics["counters"].items()
            if name.startswith("stage.")
        )
        assert events == table == metrics, job.id
    assert folds[warm.id] == {"run": {"disk": 1}}
    stage_spans = [
        span for span in traced.spans if span["name"].startswith("stage.")
    ]
    assert {"stage.selection", "stage.transform"} <= {
        span["name"] for span in stage_spans
    }
    for span in stage_spans:
        assert span["args"]["outcome"] in ("compute", "disk", "memory"), span
