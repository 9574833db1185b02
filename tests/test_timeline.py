"""Differential tests: simulated-time timeline vs the trace scheduler.

The per-core segments exported by :mod:`repro.obs.timeline` re-derive
the scheduler's placement, so on the full sched-differential grid
(every source shape x every machine) their category totals must equal
the :class:`ScheduleResult` aggregates *exactly*, segments on one core
must never overlap, and the busy+idle accounting must close to
``parallel_cycles * cores``.  The walk has two consumers -- the
segment list of ``run_timeline`` and the accumulated ``timeline_block``
-- and they must agree with each other on the same grid.
"""

import dataclasses

import pytest

from repro.frontend import compile_source
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.timeline import (
    CATEGORIES,
    core_totals,
    invocation_segments,
    run_timeline,
    timeline_block,
    timeline_events,
)
from repro.runtime.interpreter import ExecutionResult
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.sched import trace_signature
from repro.runtime.trace import (
    CompactInvocationTrace,
    InvocationTrace,
    pack_traces,
    unpack_traces,
)
from tests.test_sched_differential import BASE, MACHINES, SOURCES, _prepare


def _assert_no_overlap(segments):
    per_core = {}
    for seg in segments:
        assert seg.end > seg.start, "zero/negative-length segment emitted"
        per_core.setdefault(seg.core, []).append(seg)
    for segs in per_core.values():
        segs.sort(key=lambda s: (s.start, s.end))
        for a, b in zip(segs, segs[1:]):
            assert a.end <= b.start, f"overlap: {a} vs {b}"


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_invocation_segments_match_schedule_breakdown(name):
    _, _, executor, _ = _prepare(name)
    info_by_id = {info.loop_id: info for info in executor.infos}
    for machine in MACHINES:
        schedules = executor.schedules(machine)
        for trace, sched in zip(executor.traces, schedules):
            segments = invocation_segments(
                trace, info_by_id[trace.loop_id], machine
            )
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
    """``timeline_block`` (totals accumulated in the walk) against
    ``run_timeline`` (segments from the same walk) and the scheduler."""
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
    """The run of ``name`` as a warm cache restores it -- traces loaded
    from their serialized form, nothing compiled or scheduled yet --
    followed by one zero-iteration invocation and a sequential tail."""
    transformed, infos, executor, result = _prepare(name)
    start = executor.cycles + 3
    empty = CompactInvocationTrace.from_trace(
        InvocationTrace(
            loop_id=executor.traces[0].loop_id,
            start_cycles=start,
            end_cycles=start + 37,
        )
    )
    assert empty.iteration_count == 0
    restored = ParallelExecutor(transformed, infos, BASE)
    restored.restore_run(
        ExecutionResult(
            output=result.result.output,
            cycles=start + 37 + 5,
            instructions=result.result.instructions,
        ),
        unpack_traces(pack_traces(executor.traces)) + [empty],
        executor.load_count,
    )
    return restored


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_block_equals_segment_totals_on_the_grid(name):
    executor = _restored_with_empty_invocation(name)
    for machine in MACHINES:
        _assert_consumers_agree(executor, machine)
    if name == "cohort_mix":
        # The scheduler compiled one program for the whole shape group
        # and the walk placed every member through it, reading the
        # member's own timestamps through its ``raw`` index; the
        # schedules compared against above came from the batched engine,
        # the segments of the first test from per-trace programs.  The
        # members ran alike at different points of the recorded clock
        # (stamps are offsets from the start of the invocation), so the
        # block placed one of them for all.
        groups = {}
        for trace in executor.traces:
            groups.setdefault(trace_signature(trace), []).append(trace)
        cohort = max(groups.values(), key=len)
        assert len({trace.start_cycles for trace in cohort}) == len(cohort) > 1
        assert len({tuple(trace.ev_at) for trace in cohort}) == 1
        assert [trace._program is not None for trace in cohort] == (
            [True] + [False] * (len(cohort) - 1)
        )


def test_walk_reads_gaps_off_the_recording_not_off_a_column():
    """The walk takes the sequential gaps from the traces' own stamps
    in the recorded clock: it asks for no schedule column, the
    executing machine's included, and its totals still equal the
    scheduler's aggregates."""
    executor = _restored_with_empty_invocation("cohort_mix")
    machine = MACHINES[-1]
    assert machine != executor.machine
    executor._schedules.clear()
    block = timeline_block(executor, machine)
    segments = run_timeline(executor, machine)
    assert not executor._schedules
    gaps = executor.cycles - sum(
        t.end_cycles - t.start_cycles
        for t in executor.traces
        if t.iteration_count
    )
    assert block["totals"]["sequential"] == gaps
    assert max(seg.end for seg in segments) == block["total_cycles"]
    assert _assert_consumers_agree(executor, machine) == block
    assert set(executor._schedules) == {machine.fingerprint()}


def test_block_of_a_run_without_traces():
    module = compile_source("void main() { print(7); }")
    executor = ParallelExecutor(module, [], BASE)
    executor.execute()
    assert executor.traces == []
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
