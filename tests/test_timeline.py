"""Differential tests: simulated-time timeline vs the trace scheduler.

The per-core segments exported by :mod:`repro.obs.timeline` are the
reference scheduler's placement, so on the full sched-differential grid
(every source shape x every machine) their category totals must equal
the :class:`ScheduleResult` aggregates of the pack walk
*exactly*, segments on one core must never overlap, and the busy+idle
accounting must close to ``parallel_cycles * cores``.  The reference's
placement is then the oracle of ``timeline_block``, which reads the
per-core accounting the scheduler left on its columns: the two must
agree per core on every path of the walk.
"""

import dataclasses
import inspect
import re

import pytest

from repro.frontend.lower import compile_source
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.timeline import (
    CATEGORIES,
    Segment,
    core_totals,
    run_timeline,
    timeline_block,
    timeline_events,
)
from repro.runtime.interpreter import ExecutionResult
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.sched import schedule_invocation_reference
from repro.runtime.trace import InvocationTrace, pack_traces, unpack_traces
from tests.helpers import recording_of
from tests.test_sched_differential import (
    BASE,
    MACHINES,
    MIXED_GRID,
    SOURCES,
    _invocations,
    _prepare,
)


def _assert_no_overlap(segments):
    per_core = {}
    for seg in segments:
        assert seg.end > seg.start, "zero/negative-length segment emitted"
        per_core.setdefault(seg.core, []).append(seg)
    for segs in per_core.values():
        segs.sort(key=lambda s: (s.start, s.end))
        for a, b in zip(segs, segs[1:]):
            assert a.end <= b.start, f"overlap: {a} vs {b}"


def _reference_segments(trace, loop, machine):
    """The reference scheduler's schedule of one invocation and the
    intervals it placed, as segments in invocation-local time."""
    segments = []
    result = schedule_invocation_reference(
        trace,
        loop,
        machine,
        lambda *interval: segments.append(Segment(*interval)),
    )
    return result, segments


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_invocation_segments_match_schedule_breakdown(name):
    _, _, executor, _ = _prepare(name)
    info_by_id = {info.loop_id: info for info in executor.infos}
    for machine in MACHINES:
        schedules = executor.schedules(machine)
        for trace, sched in zip(_invocations(executor.recording), schedules):
            reference, segments = _reference_segments(
                trace, info_by_id[trace.loop_id], machine
            )
            assert reference == sched
            if trace.iteration_count == 0:
                assert segments == []
                continue
            _assert_no_overlap(segments)
            totals = {category: 0 for category in CATEGORIES}
            for seg in segments:
                totals[seg.category] += seg.cycles
            breakdown = sched.overhead_breakdown()
            # Exact per-bucket equality with the scheduler's aggregates.
            assert totals["compute"] == breakdown["compute"]
            assert totals["stall"] == breakdown["wait_stall"]
            assert totals["signal"] == breakdown["signal"]
            assert totals["transfer"] == breakdown["transfer"]
            assert totals["sequential"] == 0

            last_end = max(seg.end for seg in segments)
            assert last_end == sched.parallel_cycles

            # busy + idle closes to parallel_cycles * cores with
            # nonnegative idle on every core -- equivalently, the
            # breakdown sums to total area minus idle/config/collect.
            cores = machine.cores
            busy = [0] * cores
            for seg in segments:
                busy[seg.core] += seg.cycles
            idle = [sched.parallel_cycles - b for b in busy]
            assert all(i >= 0 for i in idle)
            assert sum(busy) + sum(idle) == sched.parallel_cycles * cores
            assert sum(breakdown.values()) == (
                sched.parallel_cycles * cores
                - sum(idle)
                - totals["config"]
                - totals["collect"]
            )


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_run_timeline_covers_the_whole_run(name):
    _, _, executor, executed = _prepare(name)
    segments = run_timeline(executor)
    _assert_no_overlap(segments)
    assert max(seg.end for seg in segments) == executed.cycles
    assert min(seg.start for seg in segments) == 0

    # Bucket totals over the whole run equal the per-invocation schedule
    # sums, on the executing machine and on a replayed one.
    for machine in (executor.machine, MACHINES[0], MACHINES[-1]):
        schedules = executor.schedules(machine)
        totals = {category: 0 for category in CATEGORIES}
        for seg in run_timeline(executor, machine):
            totals[seg.category] += seg.cycles
        assert totals["compute"] == sum(s.compute_cycles for s in schedules)
        assert totals["stall"] == sum(
            s.wait_stall_cycles for s in schedules
        )
        assert totals["signal"] == sum(s.signal_cycles for s in schedules)
        assert totals["transfer"] == sum(
            s.transfer_cycles for s in schedules
        )


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_timeline_block_aggregates(name):
    _, _, executor, executed = _prepare(name)
    block = timeline_block(executor)
    assert block["cores"] == executor.machine.cores
    assert block["total_cycles"] == executed.cycles
    assert len(block["per_core"]) == executor.machine.cores
    for category in CATEGORIES:
        assert block["totals"][category] == sum(
            row[category] for row in block["per_core"]
        )
    # Everything ran on core 0's track or a worker core; the run did
    # something, so compute plus sequential is nonzero.
    assert block["totals"]["compute"] + block["totals"]["sequential"] > 0

    replay = timeline_block(executor, MACHINES[0])
    assert replay["cores"] == MACHINES[0].cores
    assert replay["total_cycles"] == executor.replay(MACHINES[0]).cycles

    # An equal but distinct MachineConfig (what callers that build their
    # machine from CLI/JSON arguments pass) is the executing machine.
    twin = dataclasses.replace(executor.machine)
    assert twin is not executor.machine
    assert timeline_block(executor, twin) == block


def _assert_consumers_agree(executor, machine):
    """``timeline_block`` (the scheduler's per-core accounting) against
    ``run_timeline`` (segments placed one by one) and the scheduler's
    aggregates."""
    block = timeline_block(executor, machine)
    rows = core_totals(run_timeline(executor, machine), machine.cores)
    assert block["per_core"] == [
        {"core": core, **row} for core, row in enumerate(rows)
    ]
    schedules = executor.schedules(machine)
    totals = block["totals"]
    assert totals["compute"] == sum(s.compute_cycles for s in schedules)
    assert totals["stall"] == sum(s.wait_stall_cycles for s in schedules)
    assert totals["signal"] == sum(s.signal_cycles for s in schedules)
    assert totals["transfer"] == sum(s.transfer_cycles for s in schedules)
    assert block["total_cycles"] == executor.replay(machine).cycles
    return block


def _restored_with_empty_invocation(name):
    """The run of ``name`` as a warm cache restores it -- the recording
    loaded from its serialized form, nothing compiled or scheduled yet
    -- followed by one zero-iteration invocation and a sequential
    tail."""
    transformed, infos, executor, result = _prepare(name)
    recorded = _invocations(executor.recording)
    start = executor.cycles + 3
    empty = InvocationTrace(
        loop_id=recorded[0].loop_id,
        start_cycles=start,
        end_cycles=start + 37,
    )
    restored = ParallelExecutor(transformed, infos, BASE)
    restored.restore_run(
        ExecutionResult(
            output=result.result.output,
            cycles=start + 37 + 5,
            instructions=result.result.instructions,
        ),
        unpack_traces(pack_traces(recording_of(recorded + [empty]))),
        executor.load_count,
    )
    return restored


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_block_equals_segment_totals_on_the_grid(name):
    executor = _restored_with_empty_invocation(name)
    for machine in MACHINES:
        _assert_consumers_agree(executor, machine)
    if name == "cohort_mix":
        # The members of the largest shape ran alike at different points
        # of the recorded clock (stamps are offsets from the start of
        # the invocation): one distinct invocation, which the scheduler
        # walked once and the block counted once per occurrence.
        recording = executor.recording
        shape_of = [
            recording.distinct_shape[d] for d in recording.trace_distinct
        ]
        cohort = max(set(shape_of), key=shape_of.count)
        rows = [i for i, shape in enumerate(shape_of) if shape == cohort]
        starts = {recording.trace_start[i] for i in rows}
        assert len(starts) == len(rows) > 1
        assert len({recording.trace_distinct[i] for i in rows}) == 1


def test_walk_reads_gaps_off_the_recording_not_off_a_column(monkeypatch):
    """The timeline takes the sequential gaps from the invocations' own
    stamps in the recorded clock and asks for no schedule column, the
    executing machine's included.  The block reads the column of its
    machine, scheduling it once when the memo lacks it and never
    again."""
    import repro.runtime.parallel as parallel_mod

    executor = _restored_with_empty_invocation("cohort_mix")
    machine = MACHINES[-1]
    assert machine != executor.machine
    executor._schedules.clear()
    segments = run_timeline(executor, machine)
    assert not executor._schedules

    scheduled = []
    real = parallel_mod.walk_many

    def counting(preparation, machines):
        scheduled.append([m.fingerprint() for m in machines])
        return real(preparation, machines)

    monkeypatch.setattr(parallel_mod, "walk_many", counting)
    block = timeline_block(executor, machine)
    assert scheduled == [[machine.fingerprint()]]
    assert timeline_block(executor, machine) == block
    assert len(scheduled) == 1
    gaps = executor.cycles - sum(
        t.end_cycles - t.start_cycles
        for t in _invocations(executor.recording)
        if t.iteration_count
    )
    assert block["totals"]["sequential"] == gaps
    assert max(seg.end for seg in segments) == block["total_cycles"]
    assert _assert_consumers_agree(executor, machine) == block
    assert set(executor._schedules) == {machine.fingerprint()}


#: Cuts of the walk's vector axis by ``_MAX_WIDTH`` (``None`` keeps the
#: default): every pack in one piece, and cut every three columns, so
#: every shape's axis is wider than a chunk and chunks begin and end
#: inside a machine's columns and between core counts.
ENGINES = {
    "vector": None,
    "vector-chunked": 3,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_block_equals_segment_totals_on_every_engine_path(
    name, engine, monkeypatch
):
    """The per-core accounting is filled in by whichever path of the walk
    met a pack -- the counted-DOALL closed form, or the chunk reduction
    of a walked pack, in one piece or cut -- and must equal the
    reference placement's per-core totals for every machine of the
    mixed grid, scheduled in one ``walk_many`` call: core counts 1
    to 8, all four prefetch modes, non-TSO barriers, with each distinct
    invocation weighted by its occurrences."""
    import repro.runtime.parallel as parallel_mod
    import repro.runtime.sched as sched_mod

    max_width = ENGINES[engine]
    if max_width is not None:
        monkeypatch.setattr(sched_mod, "_MAX_WIDTH", max_width)
    executor = _restored_with_empty_invocation(name)
    calls = []
    real = parallel_mod.walk_many

    def counting(preparation, machines):
        calls.append(len(machines))
        return real(preparation, machines)

    monkeypatch.setattr(parallel_mod, "walk_many", counting)
    missing = {m.fingerprint() for m in MIXED_GRID} - set(executor._schedules)
    executor.replay_many(MIXED_GRID)
    assert calls == [len(missing)]
    assert {m.cores for m in MIXED_GRID} == set(range(1, 9))
    for machine in MIXED_GRID:
        _assert_consumers_agree(executor, machine)
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_a_restore_compiles_one_program_per_shape(name):
    """Restoring a run compiles and schedules nothing; timing it on its
    machine compiles each shape's program once; the report's accounting
    and the timeline compile nothing more."""
    from repro.obs import REGISTRY

    def compiled():
        return REGISTRY.snapshot()["counters"].get(
            "sched.programs_compiled", 0
        )

    _prepare(name)
    before = compiled()
    executor = _restored_with_empty_invocation(name)
    assert compiled() == before and not executor._schedules
    executor.schedule_columns()
    shapes = len(executor.recording.shape_loop)
    assert compiled() - before == shapes
    for machine in (executor.machine, MACHINES[0], MACHINES[-1]):
        timeline_block(executor, machine)
        run_timeline(executor, machine)
    assert compiled() - before == shapes


def test_block_of_a_run_without_traces():
    module = compile_source("void main() { print(7); }")
    executor = ParallelExecutor(module, [], BASE)
    executor.execute()
    assert len(executor.recording) == 0
    for machine in (BASE, MACHINES[0], MACHINES[-1]):
        block = _assert_consumers_agree(executor, machine)
        expected = dict.fromkeys(CATEGORIES, 0)
        expected["sequential"] = executor.cycles
        assert block["totals"] == expected
        assert block["per_core"][0] == {"core": 0, **expected}


def test_timeline_events_are_valid_chrome_events():
    _, _, executor, _ = _prepare("reduction")
    segments = run_timeline(executor)
    events = timeline_events(segments, executor.machine, pid=0)
    payload = chrome_trace([], extra_events=events)
    assert validate_chrome_trace(payload) == []
    tracks = {e["tid"] for e in events if e.get("cat") == "sim"}
    assert tracks <= set(range(executor.machine.cores))
    names = {e["name"] for e in events if e["ph"] == "M"}
    assert "process_name" in names and "thread_name" in names


def test_the_timeline_walks_no_compiled_program():
    # The placement is the reference scheduler's: the timeline module
    # must not grow a walk of its own over compiled trace programs.
    import repro.obs.timeline as timeline

    source = inspect.getsource(timeline)
    assert not re.search(r"\bOP_[A-Z_]+\b", source)
    assert "TraceProgram" not in source
    assert not [name for name in vars(timeline) if name.startswith("OP_")]
