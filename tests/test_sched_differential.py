"""Differential tests: compiled trace scheduler vs the reference engine.

The compiled engine (:func:`schedule_compact` over packed traces) must be
field-exact with :func:`schedule_invocation_reference` for every trace
and machine, :func:`schedule_many` must be field-exact with both under
every cohort/straggler routing, and batched replay must be
indistinguishable from both the reference replay formulation and a
fresh execution under the target machine.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.loops import find_loops
from repro.core import parallelize_module
from repro.evaluation.sched_bench import reference_replay, sweep_machines
from repro.frontend import compile_source
from repro.runtime import run_module
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.parallel import ParallelExecutor, schedule_invocation
from repro.runtime.sched import (
    schedule_invocation_reference,
    schedule_many,
    trace_signature,
)
from repro.runtime.trace import CompactInvocationTrace, InvocationTrace

#: Program shapes covering the scheduler's behaviours: counted DOALL
#: (fast path), cross-iteration data dependences (waits/signals/segment
#: intervals and transfers), non-counted loops (control signals),
#: zero-iteration invocations, and a mix of one shape-identical trace
#: cohort with odd-shaped stragglers (``cohort_mix``).
SOURCES = {
    "doall": """
        int out;
        void main() {
            int i;
            int acc = 0;
            for (i = 0; i < 24; i++) { acc = acc + ((i * 7) ^ (i + 3)); }
            out = acc;
            print(out);
        }
    """,
    "reduction": """
        int total;
        void main() {
            int i;
            for (i = 0; i < 24; i++) {
                int k = 0;
                int f = 0;
                while (k < 9) { f = f + (k ^ i); k++; }
                total = (total + f) % 9973;
            }
            print(total);
        }
    """,
    "whileloop": """
        int acc;
        void main() {
            int v = 1;
            while (v < 4000) {
                acc = (acc + v) % 7919;
                v = v + (acc % 5) + 3;
            }
            print(acc); print(v);
        }
    """,
    "repeat_kernel": """
        int acc;
        void kernel(int n, int seed) {
            int i;
            for (i = 0; i < n; i++) { acc = (acc + i * seed) % 9973; }
        }
        void main() {
            kernel(5, 1); kernel(6, 2); kernel(7, 3);
            kernel(8, 4); kernel(9, 5); kernel(10, 6);
            print(acc);
        }
    """,
    "cohort_mix": """
        int acc;
        void kernel(int n, int seed) {
            int i;
            for (i = 0; i < n; i++) { acc = (acc + i * seed) % 9973; }
        }
        void main() {
            kernel(6, 1); kernel(6, 2); kernel(9, 3); kernel(6, 4);
            kernel(6, 5); kernel(4, 6); kernel(6, 7);
            print(acc);
        }
    """,
    "multi_invocation": """
        int acc;
        void kernel(int n, int seed) {
            int i;
            for (i = 0; i < n; i++) { acc = (acc + i * seed) % 9973; }
        }
        void main() {
            int r;
            for (r = 0; r < 7; r++) { kernel(r * 4, r + 1); }
            kernel(0, 99);
            print(acc);
        }
    """,
}

#: Machines exercising every engine path: each prefetch mode at several
#: core counts (including one core), no-SMT, non-TSO barriers, and
#: degenerate/extreme latencies.
MACHINES = [
    MachineConfig(cores=cores, prefetch_mode=mode)
    for cores in (1, 2, 3, 6)
    for mode in PrefetchMode
] + [
    MachineConfig(cores=4, smt=False),
    MachineConfig(cores=4, total_store_ordering=False),
    MachineConfig(
        cores=4,
        signal_latency=4,
        prefetched_signal_latency=4,
        word_transfer_cycles=16,
    ),
    MachineConfig(
        cores=5,
        signal_latency=220,
        prefetched_signal_latency=0,
        word_transfer_cycles=220,
        total_store_ordering=False,
    ),
]

BASE = MachineConfig(cores=4)

_prepared = {}


def _prepare(name):
    """Transform once per source; record traces under the base machine."""
    cached = _prepared.get(name)
    if cached is None:
        module = compile_source(SOURCES[name])
        loop_ids = []
        for func in module.functions.values():
            loop_ids += [
                l.id for l in find_loops(func) if l.parent is None
            ]
        baseline = run_module(module)
        transformed, infos = parallelize_module(module, loop_ids, BASE)
        executor = ParallelExecutor(transformed, infos, BASE)
        result = executor.execute()
        assert result.output == baseline.output
        cached = (transformed, infos, executor, result)
        _prepared[name] = cached
    return cached


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_schedules_field_exact_across_machines(name):
    _, infos, executor, result = _prepare(name)
    info_by_id = {info.loop_id: info for info in infos}
    assert result.traces, f"{name}: expected recorded traces"
    for machine in MACHINES:
        for trace in result.traces:
            info = info_by_id[trace.loop_id]
            compiled = schedule_invocation(trace, info, machine)
            reference = schedule_invocation_reference(
                trace.to_invocation_trace(), info, machine
            )
            assert compiled == reference, (
                f"{name} under {machine.fingerprint()}: "
                f"{compiled} != {reference}"
            )


#: ``schedule_many`` routings by the cohort threshold that forces them.
#: The all-cohort routing keeps the bare source name as its test id.
ROUTINGS = {"": 1, "-default": None, "-scalar": 1 << 30}

#: Machine grids: the full differential grid plus the degenerate ones
#: (no machine, one machine, a repeated fingerprint).
GRIDS = [MACHINES, [], MACHINES[:1], [MACHINES[5], MACHINES[9], MACHINES[5]]]


@pytest.mark.parametrize(
    "name,min_cohort",
    [
        pytest.param(name, min_cohort, id=name + suffix)
        for name in sorted(SOURCES)
        for suffix, min_cohort in ROUTINGS.items()
    ],
)
def test_cohort_engine_matches_per_trace_engines(
    name, min_cohort, monkeypatch
):
    """``schedule_many`` must be field-exact with per-machine
    ``schedule_compact`` and the reference interpreter for every trace
    and machine, whichever engine a trace is routed to: the numpy cohort
    walk for everything (threshold 1), the scalar engine for everything
    (huge threshold), or the default mix of the two."""
    import repro.runtime.sched as sched_mod

    if min_cohort is not None:
        monkeypatch.setattr(sched_mod, "_MIN_COHORT", min_cohort)
    _, infos, executor, _ = _prepare(name)
    info_by_id = {info.loop_id: info for info in infos}
    traces = list(executor.traces)
    # Every source also schedules a zero-iteration invocation.
    traces.append(
        CompactInvocationTrace.from_trace(
            InvocationTrace(
                loop_id=traces[0].loop_id, start_cycles=5, end_cycles=42
            )
        )
    )
    loops = [info_by_id[t.loop_id] for t in traces]
    if name == "cohort_mix" and min_cohort is None:
        sizes = Counter(trace_signature(t) for t in traces).values()
        assert (
            max(sizes) >= sched_mod._MIN_COHORT > min(sizes)
        ), "default routing must exercise both engines"
    references = [t.to_invocation_trace() for t in traces]
    for grid in GRIDS:
        columns = schedule_many(traces, loops, grid)
        assert [len(column) for column in columns] == [len(grid)] * len(
            traces
        )
        # Results are mutable: every cell is its own object, also under
        # a repeated fingerprint.
        cells = [got for column in columns for got in column]
        assert len({id(got) for got in cells}) == len(cells)
        for trace, reference, info, column in zip(
            traces, references, loops, columns
        ):
            for machine, got in zip(grid, column):
                assert got == schedule_invocation(trace, info, machine)
                assert got == schedule_invocation_reference(
                    reference, info, machine
                )
    assert schedule_many([], [], MACHINES) == []


def test_lagging_schedule_column_extends_incrementally(monkeypatch):
    """A cached column that is merely shorter than the trace list is
    extended in place, not recomputed from scratch."""
    import repro.runtime.parallel as parallel_mod

    transformed, infos, _, _ = _prepare("repeat_kernel")
    executor = ParallelExecutor(transformed, infos, BASE)
    executor.execute()
    probe = BASE.with_cores(2)
    executor.replay(probe)
    full = list(executor._schedules[probe.fingerprint()])
    assert len(full) == len(executor.traces) > 3

    # Truncate the cached column as if traces had been appended since.
    executor._schedules[probe.fingerprint()] = full[:-3]
    scheduled = []
    real = parallel_mod.schedule_many

    def counting(traces, loops, machines):
        scheduled.append(len(traces))
        return real(traces, loops, machines)

    monkeypatch.setattr(parallel_mod, "schedule_many", counting)
    executor.replay(probe)
    assert scheduled == [3]  # only the missing suffix is scheduled
    assert executor._schedules[probe.fingerprint()] == full


def test_scheduling_work_across_run_replay_cycles(monkeypatch):
    """Regression for the memo lifecycle: across run -> replay_many ->
    run -> replay_many, each sweep schedules every trace exactly once
    per missing machine set -- re-running resets the memo (new traces)
    and the second sweep never reschedules the executing machine's
    fresh column."""
    import repro.runtime.parallel as parallel_mod

    transformed, infos, _, _ = _prepare("reduction")
    executor = ParallelExecutor(transformed, infos, BASE)
    probes = [BASE.with_cores(2), BASE.with_cores(3)]
    scheduled = []
    real = parallel_mod.schedule_many

    def counting(traces, loops, machines):
        scheduled.append((len(traces), [m.fingerprint() for m in machines]))
        return real(traces, loops, machines)

    monkeypatch.setattr(parallel_mod, "schedule_many", counting)
    for _ in range(2):
        executor.execute()
        count = len(executor.traces)
        scheduled.clear()
        executor.replay_many(probes)
        assert scheduled == [(count, [p.fingerprint() for p in probes])]
        scheduled.clear()
        executor.replay_many(probes)
        assert scheduled == []  # second sweep fully memoized


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_replay_many_matches_reference_replay(name):
    _, _, executor, _ = _prepare(name)
    legacy = [t.to_invocation_trace() for t in executor.traces]
    compiled_runs = executor.replay_many(MACHINES)
    for machine, compiled in zip(MACHINES, compiled_runs):
        reference, _schedules = reference_replay(executor, machine, legacy)
        assert compiled.result.cycles == reference.result.cycles
        assert compiled.result.output == reference.result.output
        assert compiled.loop_stats == reference.loop_stats


def test_replay_many_equals_sequential_replays():
    _, _, executor, _ = _prepare("reduction")
    probes = MACHINES[:6]
    batched = executor.replay_many(probes)
    for machine, from_batch in zip(probes, batched):
        single = executor.replay(machine)
        assert single.result.cycles == from_batch.result.cycles
        assert single.loop_stats == from_batch.loop_stats


def test_baseline_schedule_memoized_across_replays(monkeypatch):
    transformed, infos, _, _ = _prepare("reduction")
    executor = ParallelExecutor(transformed, infos, BASE)
    executor.execute()
    # ``execute`` times the recording on the executing machine, whose
    # column is then memoized like any other.
    baseline = executor._schedules.get(BASE.fingerprint())
    assert baseline is not None
    assert len(baseline) == len(executor.traces)

    import repro.runtime.parallel as parallel_mod

    calls = []
    real = parallel_mod.schedule_many

    def counting(traces, loops, machines):
        calls.append([m.fingerprint() for m in machines])
        return real(traces, loops, machines)

    monkeypatch.setattr(parallel_mod, "schedule_many", counting)
    probe = BASE.with_cores(2)
    executor.replay(probe)
    # Only the new machine's column is computed; the baseline is reused.
    assert calls
    assert {fp for grid in calls for fp in grid} == {probe.fingerprint()}
    first = len(calls)
    executor.replay(probe)
    assert len(calls) == first  # second replay fully memoized


def test_sweep_machines_cover_distinct_fingerprints():
    machines = sweep_machines(MachineConfig(cores=6))
    prints = [m.fingerprint() for m in machines]
    assert len(prints) == len(set(prints))
    assert MachineConfig(cores=6).fingerprint() not in prints


# ------------------------------------------------------- property testing


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(SOURCES)),
    cores=st.integers(min_value=1, max_value=6),
    mode=st.sampled_from(list(PrefetchMode)),
    tso=st.booleans(),
    latencies=st.sampled_from([(110, 4), (4, 4), (220, 0), (64, 1)]),
)
def test_replay_is_field_identical_to_fresh_execution(
    name, cores, mode, tso, latencies
):
    """``replay(machine)`` on recorded traces must be indistinguishable
    from re-running the same transformed module under that machine --
    including zero-iteration invocations (``multi_invocation``), one
    core, and every prefetch mode."""
    transformed, infos, executor, _ = _prepare(name)
    signal_latency, prefetched = latencies
    machine = MachineConfig(
        cores=cores,
        prefetch_mode=mode,
        total_store_ordering=tso,
        signal_latency=signal_latency,
        prefetched_signal_latency=prefetched,
        word_transfer_cycles=signal_latency,
    )
    replayed = executor.replay(machine)
    fresh = ParallelExecutor(transformed, infos, machine).execute()
    assert replayed.result.cycles == fresh.result.cycles
    assert replayed.result.output == fresh.result.output
    assert replayed.result.instructions == fresh.result.instructions
    assert replayed.loop_stats == fresh.loop_stats


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted(SOURCES)),
    cores=st.integers(min_value=1, max_value=8),
    mode=st.sampled_from(list(PrefetchMode)),
    barrier=st.sampled_from([0, 20, 7]),
)
def test_compiled_engine_matches_reference_engine(name, cores, mode, barrier):
    """Property form of the differential: arbitrary machine knobs."""
    _, infos, executor, _ = _prepare(name)
    info_by_id = {info.loop_id: info for info in infos}
    machine = dataclasses.replace(
        MachineConfig(cores=cores, prefetch_mode=mode),
        total_store_ordering=barrier == 0,
        barrier_cycles=barrier or 20,
    )
    for trace in executor.traces:
        info = info_by_id[trace.loop_id]
        assert schedule_invocation(
            trace, info, machine
        ) == schedule_invocation_reference(
            trace.to_invocation_trace(), info, machine
        )
