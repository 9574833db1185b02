"""Differential tests: the production trace scheduler vs the reference.

:func:`schedule_many` (the pack walk over compiled trace programs) must
be field-exact with :func:`schedule_invocation_reference` for every
trace and machine, under every machine grid and every cut of its vector
axis, and batched replay must be indistinguishable from both the
reference replay formulation and a fresh execution under the target
machine.
"""

import dataclasses
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.loops import find_loops
from repro.core import parallelize_module
from repro.frontend import compile_source
from repro.runtime import run_module
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.sched import (
    CORE_FIELDS,
    ScheduleColumns,
    _resolve_agendas,
    schedule_invocation_reference,
    schedule_many,
)
from repro.runtime.trace import (
    CTRL_DEP,
    OP_WAIT_SYNC,
    OP_XFER,
    InvocationTrace,
    IterationTrace,
    Recording,
    pack_traces,
    unpack_traces,
)
from tests.helpers import recording_of, reference_replay, sweep_machines

#: Program shapes covering the scheduler's behaviours: counted DOALL
#: (fast path), cross-iteration data dependences (waits, signals and
#: transfers), non-counted loops (control signals),
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

#: A loop whose iterations wait on its two dependences in an order of
#: their own on some iterations and in the helper's static order on
#: others, so its ``MATCHED`` and ``HELIX`` agendas differ and agree.
#: Kept out of :data:`SOURCES`, whose clocks and timelines are pinned
#: under ``tests/data``.
BRANCHY = """
    int a;
    int b;
    void main() {
        int i;
        for (i = 0; i < 24; i++) {
            if (i % 3 == 0) { b = (b + i) % 997; }
            a = (a + b * 3 + i) % 991;
        }
        print(a); print(b);
    }
"""

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
        module = compile_source(
            BRANCHY if name == "branchy" else SOURCES[name]
        )
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


def _invocations(recording):
    return [recording.invocation(i) for i in range(len(recording))]


def _loops(executor):
    return {info.loop_id: info for info in executor.infos}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_schedules_field_exact_across_machines(name):
    _, infos, executor, result = _prepare(name)
    info_by_id = {info.loop_id: info for info in infos}
    assert len(result.traces), f"{name}: expected recorded invocations"
    columns = schedule_many(result.traces, info_by_id, MACHINES)
    for mi, machine in enumerate(MACHINES):
        cells = columns.column(mi).results()
        for trace, compiled in zip(_invocations(result.traces), cells):
            reference = schedule_invocation_reference(
                trace, info_by_id[trace.loop_id], machine
            )
            assert compiled == reference, (
                f"{name} under {machine.fingerprint()}: "
                f"{compiled} != {reference}"
            )


#: One grid for one ``schedule_many`` call: the differential grid (core
#: counts 1-6, every prefetch mode, SMT off, non-TSO) plus core counts up
#: to 8, helper modes without TSO and without SMT, and a fingerprint
#: asked for twice.
MIXED_GRID = MACHINES + [
    MachineConfig(cores=8, prefetch_mode=PrefetchMode.MATCHED),
    MachineConfig(
        cores=7,
        prefetch_mode=PrefetchMode.IDEAL,
        total_store_ordering=False,
        barrier_cycles=7,
    ),
    MachineConfig(cores=5, prefetch_mode=PrefetchMode.MATCHED, smt=False),
    MachineConfig(
        cores=4, prefetch_mode=PrefetchMode.HELIX, total_store_ordering=False
    ),
    MachineConfig(
        cores=8,
        prefetch_mode=PrefetchMode.NONE,
        signal_latency=32,
        word_transfer_cycles=8,
        config_cycles_per_thread=11,
    ),
    MACHINES[5],
]

#: Machine grids: the mixed grid plus the degenerate ones (no machine,
#: one machine, a repeated fingerprint).
GRIDS = [
    MIXED_GRID,
    [],
    MIXED_GRID[:1],
    [MACHINES[5], MACHINES[9], MACHINES[5]],
]

#: Cuts of the walk's vector axis by ``_MAX_WIDTH``, ``None`` leaving
#: the default.  The bare source name walks the axis in one piece
#: whatever the default is; ``-default`` runs the cut as shipped; the
#: chunked ones cap a walk at 1-3 columns, so every shape is walked in
#: pieces that begin and end in the middle of the machine grid.
ROUTINGS = {
    "": 1 << 30,
    "-default": None,
    "-chunk1": 1,
    "-chunk2": 2,
    "-chunk3": 3,
}


def _retimed(trace, shift=0, stretch=1, loads=None):
    """``trace`` moved ``shift`` cycles along the recorded clock, its
    offsets from the start of the invocation multiplied by ``stretch``:
    the same shape, and with ``stretch`` 1 the same invocation."""
    base = trace.start_cycles

    def at(stamp):
        return base + shift + (stamp - base) * stretch

    return InvocationTrace(
        loop_id=trace.loop_id,
        start_cycles=at(trace.start_cycles),
        end_cycles=at(trace.end_cycles),
        loads=trace.loads if loads is None else loads,
        iterations=[
            IterationTrace(
                start_cycles=at(it.start_cycles),
                end_cycles=at(it.end_cycles),
                events=[(k, dep, at(t)) for k, dep, t in it.events],
                words=dict(it.words),
            )
            for it in trace.iterations
        ],
    )


_expected = {}


def _differential_case(name):
    """The invocations every routing schedules, their recording and loop
    infos, and what the reference says of each invocation under each
    machine of the mixed grid: the recorded invocations, a
    zero-iteration one, every recorded invocation once more later in the
    clock with other loads (the same distinct invocation) and once
    stretched (the same shape, other stamps)."""
    cached = _expected.get(name)
    if cached is None:
        _, infos, executor, _ = _prepare(name)
        loops = _loops(executor)
        recorded = _invocations(executor.recording)
        traces = recorded + [
            InvocationTrace(
                loop_id=recorded[0].loop_id, start_cycles=5, end_cycles=42
            )
        ]
        traces += [_retimed(t, shift=977, loads=t.loads + 3) for t in recorded]
        traces += [_retimed(t, stretch=3) for t in recorded]
        expected = {}
        for machine in MIXED_GRID:
            expected[machine.fingerprint()] = [
                schedule_invocation_reference(
                    trace, loops[trace.loop_id], machine
                )
                for trace in traces
            ]
        cached = _expected[name] = (
            traces, recording_of(traces), loops, expected
        )
    return cached


@pytest.mark.parametrize(
    "name,routing",
    [
        pytest.param(name, routing, id=name + suffix)
        for name in sorted(SOURCES)
        for suffix, routing in ROUTINGS.items()
    ],
)
def test_cohort_engine_matches_per_trace_engines(name, routing, monkeypatch):
    """``schedule_many`` must be field-exact with the reference
    interpreter for every trace and machine, whatever the grid (one
    machine included) and however its vector axis is cut: in one piece
    or in chunks of one to three columns."""
    import repro.runtime.sched as sched_mod

    if routing is not None:
        monkeypatch.setattr(sched_mod, "_MAX_WIDTH", routing)
    calls = Counter()
    real = sched_mod._schedule_cohort

    def counting(cohort, grid):
        calls[grid.shape[1]] += 1  # by the number of machines
        return real(cohort, grid)

    monkeypatch.setattr(sched_mod, "_schedule_cohort", counting)

    traces, recording, loops, expected = _differential_case(name)
    for grid in GRIDS:
        columns = schedule_many(recording, loops, grid)
        assert len(columns) == len(traces)
        assert columns.data.shape == (
            len(ScheduleColumns.FIELDS), len(grid), len(traces)
        )
        for mi, machine in enumerate(grid):
            column = columns.column(mi)
            assert len(column) == len(traces)
            assert column.results() == expected[machine.fingerprint()]
            assert column.parallel_cycles.tolist() == [
                result.parallel_cycles
                for result in expected[machine.fingerprint()]
            ]
    # Each recorded invocation and its later occurrence are one distinct
    # invocation, its stretched copy another of the same shape.
    recorded = (len(traces) - 1) // 3
    distinct = len(recording.distinct_shape)
    assert len(recording) == len(traces) and distinct <= 2 * recorded + 1
    assert len(recording.shape_loop) < distinct
    # Every grid with a machine went through the pack walk, the
    # one-machine grid included.
    assert set(calls) == {len(grid) for grid in GRIDS if grid}
    assert len(schedule_many(Recording(), {}, MIXED_GRID)) == 0


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_schedule_columns_survive_copy_and_pickle(how):
    """``ScheduleColumns`` reads its fields off ``data`` as attributes,
    and an instance that copy or unpickle builds has no ``data`` until
    its state is restored: the round trip keeps ``data`` and
    ``per_core``, and the fields still read as attributes."""
    import copy
    import pickle

    _, recording, loops, _ = _differential_case("reduction")
    columns = schedule_many(recording, loops, MIXED_GRID)
    clone = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda c: pickle.loads(pickle.dumps(c)),
    }[how](columns)
    assert (clone.data == columns.data).all()
    assert (clone.per_core == columns.per_core).all()
    assert (clone.parallel_cycles == columns.parallel_cycles).all()
    assert clone.column(3).results() == columns.column(3).results()
    with pytest.raises(AttributeError):
        clone.no_such_field


def test_a_shifted_invocation_is_scheduled_once_and_counted_per_trace(
    monkeypatch,
):
    """The same invocation later in the recorded clock, with different
    ``loads``, is one distinct invocation: one walk schedules both,
    their schedules are equal, and ``LoopRunStats`` still counts every
    trace (``loads`` per trace, not per distinct invocation)."""
    import repro.runtime.sched as sched_mod

    transformed, infos, executor, _ = _prepare("reduction")
    (trace,) = _invocations(executor.recording)
    later = _retimed(trace, shift=12345, loads=trace.loads + 40)
    assert later != trace
    walked = []
    real = sched_mod._schedule_cohort

    def counting(cohort, grid):
        walked.append((cohort.sizes.tolist(), cohort.weights.tolist()))
        return real(cohort, grid)

    monkeypatch.setattr(sched_mod, "_schedule_cohort", counting)
    restored = ParallelExecutor(transformed, infos, BASE)
    restored.restore_run(
        dataclasses.replace(executor.run(), cycles=later.end_cycles + 9),
        recording_of([trace, later]),
        executor.load_count,
    )
    walked.clear()
    once = executor.replay_many(MACHINES)
    twice = restored.replay_many(MACHINES)
    # One distinct invocation on either executor, occurring twice in the
    # second run.
    assert walked == [([1], [1]), ([1], [2])]
    assert restored.recording.distinct_shape == [0]
    assert list(restored.recording.trace_distinct) == [0, 0]
    for machine, single, double in zip(MACHINES, once, twice):
        first_cell, second_cell = restored.schedules(machine)
        assert first_cell == second_cell == executor.schedules(machine)[0]
        (one,) = single.loop_stats.values()
        (two,) = double.loop_stats.values()
        assert two.invocations == 2 and two.iterations == 2 * one.iterations
        assert two.parallel_cycles == 2 * one.parallel_cycles
        assert two.loads == trace.loads + later.loads == 2 * one.loads + 40
        assert (
            restored.schedule_columns(machine).per_core
            == 2 * executor.schedule_columns(machine).per_core
        ).all()


def _walked_packs(monkeypatch, sched_mod):
    """Spy on the vector walk: every pack scheduled, as ``[programs,
    members, loop, chunks]`` -- the program and distinct-member count of
    each of its shapes, its loop, and how many chunks it was walked in.
    """
    packs = []
    real_cohort, real_walk = sched_mod._schedule_cohort, sched_mod._walk_chunk

    def cohort(prepared, grid):
        packs.append(
            [prepared.progs, prepared.sizes.tolist(), prepared.loop, 0]
        )
        return real_cohort(prepared, grid)

    def walk(*args):
        packs[-1][3] += 1
        return real_walk(*args)

    monkeypatch.setattr(sched_mod, "_schedule_cohort", cohort)
    monkeypatch.setattr(sched_mod, "_walk_chunk", walk)
    return packs


@pytest.mark.parametrize("max_width", [None, 7])
def test_a_shape_is_walked_once_per_chunk(max_width, monkeypatch):
    """Every machine of a loop's shapes, whatever its prefetch mode,
    advances in one pass per chunk of the vector axis: the pack's
    ``members x machines`` over :data:`_MAX_WIDTH` passes, not one per
    shape or per prefetch-mode class.  The one-member shapes of every
    program under the mixed grid (all four modes), in one piece and in
    chunks of seven columns.  A pack holds the shapes of one loop with
    one iteration count, and every shape is in exactly one pack."""
    import math

    import repro.runtime.sched as sched_mod

    executors = [
        _prepare(name)[2] for name in [*sorted(SOURCES), "branchy"]
    ]
    if max_width is not None:
        monkeypatch.setattr(sched_mod, "_MAX_WIDTH", max_width)
    packs = _walked_packs(monkeypatch, sched_mod)
    shapes = 0
    for executor in executors:
        schedule_many(executor.recording, _loops(executor), MIXED_GRID)
        shapes += len(executor.recording.shape_loop)
    walked = 0
    for programs, members, loop, chunks in packs:
        assert set(members) == {1}
        (n,) = {prog.iterations for prog in programs}
        closed = [loop.counted and prog.active_ops == 0 for prog in programs]
        assert len(set(closed)) == 1
        if n == 0 or closed[0]:
            expected = 0  # nothing to walk: a closed form
        else:
            expected = math.ceil(
                sum(members) * len(MIXED_GRID) / sched_mod._MAX_WIDTH
            )
            walked += 1
        assert chunks == expected
    assert sum(len(programs) for programs, *_ in packs) == shapes
    assert len({id(p) for programs, *_ in packs for p in programs}) == shapes
    assert walked > len(SOURCES)


#: An 80-machine sweep grid (the ledger's shape: core counts 2-6, every
#: prefetch mode, four signal latencies each).
SWEEP_GRID = [
    dataclasses.replace(
        MachineConfig(cores=cores, prefetch_mode=mode),
        signal_latency=latency,
        word_transfer_cycles=latency,
    )
    for cores in (2, 3, 4, 5, 6)
    for mode in PrefetchMode
    for latency in (4, 32, 110, 220)
]


def test_a_loop_is_walked_once_per_chunk(suite_runner, monkeypatch):
    """mcf's ``price_arcs`` loop records 123 one-member shapes of 91
    iterations each.  Under an 80-machine grid they are one pack, walked
    in ``ceil(123 x 80 / _MAX_WIDTH)`` passes, not 123."""
    import math

    import repro.runtime.sched as sched_mod

    executor = suite_runner.helix_run("mcf").executor
    packs = _walked_packs(monkeypatch, sched_mod)
    schedule_many(executor.recording, _loops(executor), SWEEP_GRID)
    widest = max(packs, key=lambda pack: len(pack[0]))
    programs, members, _loop, chunks = widest
    assert len(programs) == 123 and {p.iterations for p in programs} == {91}
    assert sum(members) == 123
    assert chunks == math.ceil(123 * len(SWEEP_GRID) / sched_mod._MAX_WIDTH)
    assert chunks < 4


#: Every prefetch mode in one chunk: TSO and non-TSO, one helper machine
#: without SMT, and core counts of their own, so the walk selects both
#: clock rows and agendas per column.  On one core, a helper's own clock
#: (the end of its last agenda), not the signal, can bound its next
#: prefetch.
ALL_MODES_GRID = [
    MachineConfig(cores=cores, prefetch_mode=mode, total_store_ordering=tso)
    for mode in PrefetchMode
    for cores, tso in ((2, True), (3, False), (4, True))
] + [
    MachineConfig(cores=3, prefetch_mode=PrefetchMode.HELIX, smt=False),
    MachineConfig(cores=1, prefetch_mode=PrefetchMode.HELIX),
    MachineConfig(cores=1, prefetch_mode=PrefetchMode.MATCHED),
    MachineConfig(
        cores=5,
        prefetch_mode=PrefetchMode.MATCHED,
        signal_latency=220,
        prefetched_signal_latency=0,
        total_store_ordering=False,
    ),
]


def _agendas_split(program, loop):
    """Whether the ``MATCHED`` and ``HELIX`` agendas of a shape's
    ``program`` differ on some of its iterations and agree on others,
    and prefetch some wait's signal through different entries."""
    entries, lengths, positions = _resolve_agendas(
        program, tuple(loop.helper_order), loop.counted
    )
    differ = [
        not np.array_equal(mt[:m], hx[:h])
        for mt, hx, m, h in zip(
            entries[0][1:], entries[1][1:], lengths[0][1:], lengths[1][1:]
        )
    ]
    return (
        any(differ)
        and not all(differ)
        and not np.array_equal(positions[0], positions[1])
    )


@pytest.mark.parametrize(
    "stretch", [1, 1 << 40], ids=["recorded", "stretched"]
)
def test_a_mixed_chunk_matches_the_engines(stretch, monkeypatch):
    """``NONE``, ``IDEAL``, ``HELIX`` and ``MATCHED`` columns walked in one
    chunk over a loop whose ``HELIX`` and ``MATCHED`` agendas differ on
    some iterations (two prefetch chains, selected per column) and agree
    on others (one chain): every cell is the reference's.  Stretched so that an invocation spans about 2**40
    cycles, the walk shows that the no-helper sentinel neither wins a
    prefetch nor overflows."""
    import repro.runtime.sched as sched_mod

    _, infos, executor, _ = _prepare("branchy")
    loops = _loops(executor)
    traces = [
        _retimed(
            trace,
            stretch=max(1, stretch // (trace.end_cycles - trace.start_cycles)),
        )
        for trace in _invocations(executor.recording)
    ]
    recording = recording_of(traces)
    assert any(
        _agendas_split(recording.program(shape), loops[recording.loops[k]])
        for shape, k in enumerate(recording.shape_loop)
    )
    if stretch > 1:
        assert min(t.end_cycles - t.start_cycles for t in traces) >= 1 << 39

    packs = _walked_packs(monkeypatch, sched_mod)
    columns = schedule_many(recording, loops, ALL_MODES_GRID)
    assert packs and all(pack[3] == 1 for pack in packs)  # one chunk each
    for mi, machine in enumerate(ALL_MODES_GRID):
        for trace, cell in zip(traces, columns.column(mi).results()):
            assert cell == schedule_invocation_reference(
                trace, loops[trace.loop_id], machine
            ), machine.fingerprint()


#: The shapes of :func:`_mixed_pack`: each iteration waits on and signals
#: dependences 1 and 2, signals the control signal and produces 5; the
#: variants differ from it on some iterations only.
PACK_VARIANTS = ("plain", "helper_order", "xfer", "duplicate", "extra_wait")


def _mixed_pack(counted, stretch=1, iterations=6):
    """One loop's invocations in five shapes of ``iterations`` (at least
    four) iterations each, two distinct invocations a shape, which a
    vector walk packs together.
    Against the plain shape (``MATCHED`` agenda 1, 2; ``HELIX`` 2, 1)
    one waits in the helper's order on iteration 2, so its agendas agree
    there; one forwards data on iteration 3; one signals dependence 1
    twice in every iteration (a barrier-only duplicate); and one waits
    on iteration 2 for a dependence 3 that iteration 1 signalled, which
    only ``MATCHED`` prefetches.  ``stretch`` scales every offset from
    the start of the invocation."""
    from tests.test_parallel_executor import iteration, make_loop_info

    loop = make_loop_info(counted=counted, helper_order=(2, 1))

    def events(variant, k, s, scale):
        at = {
            ("w", 1): 3, ("s", 1): 8, ("n", CTRL_DEP): 10,
            ("w", 2): 12, ("s", 2): 15, ("p", 5): 16,
        }
        if variant == "helper_order" and k == 2:
            at[("w", 2)] = 2
        if variant == "xfer" and k == 3:
            at[("x", 5)] = 9
        if variant == "duplicate":
            at[("s", 1, "again")] = 9
        if variant == "extra_wait" and k == 1:
            at[("s", 3)] = 17
        if variant == "extra_wait" and k == 2:
            at[("w", 3)] = 1
        return sorted(
            ((key[0], key[1], s + offset * scale * stretch)
             for key, offset in at.items()),
            key=lambda event: event[2],
        )

    traces = []
    for v, variant in enumerate(PACK_VARIANTS):
        for scale in (1, 2):
            start = 1000 * (2 * v + scale)
            span = 20 * scale * stretch
            its = []
            for k in range(iterations):
                it = iteration(
                    start + k * span,
                    events(variant, k, start + k * span, scale),
                    start + (k + 1) * span,
                )
                it.words = {5: 3}
                its.append(it)
            traces.append(
                InvocationTrace(
                    loop_id=loop.loop_id,
                    start_cycles=start,
                    end_cycles=start + iterations * span + 5,
                    iterations=its,
                )
            )
    return loop, traces


def _per_shape_walks(recording, loops, grid):
    """``per_core`` of every shape of ``recording`` walked on its own."""
    shape_of = [recording.distinct_shape[d] for d in recording.trace_distinct]
    traces = _invocations(recording)
    return sum(
        schedule_many(
            recording_of(
                [t for t, of in zip(traces, shape_of) if of == shape]
            ),
            loops,
            grid,
        ).per_core
        for shape in range(len(recording.shape_loop))
    )


@pytest.mark.parametrize(
    "stretch", [1, 1 << 40], ids=["recorded", "stretched"]
)
def test_a_mixed_pack_matches_the_engines(stretch, monkeypatch):
    """Shapes that differ per iteration -- an extra ``WAIT_SYNC``, a
    transfer, a duplicate signal, agendas that differ and agree -- are
    one pack, walked in chunks of seven columns that straddle the shapes,
    under every prefetch mode, for a counted and a non-counted loop.
    Every cell is the reference's, and the pack's per-core accounting
    is the sum of each shape walked on its own.  Stretched to ~2**40-cycle invocations, no sentinel wins or
    overflows."""
    import math

    import repro.runtime.sched as sched_mod

    monkeypatch.setattr(sched_mod, "_MAX_WIDTH", 7)
    packs = _walked_packs(monkeypatch, sched_mod)
    for counted in (False, True):
        loop, traces = _mixed_pack(counted, stretch)
        loops = {loop.loop_id: loop}
        recording = recording_of(traces)
        assert len(recording.shape_loop) == 5
        programs = [recording.program(shape) for shape in range(5)]
        assert [OP_XFER in prog.op for prog in programs] == [
            variant == "xfer" for variant in PACK_VARIANTS
        ]
        assert sum(programs[3].pre) == 6 and sum(programs[0].pre) == 0
        assert len(
            {np.count_nonzero(prog.op == OP_WAIT_SYNC) for prog in programs}
        ) == 2
        assert _agendas_split(programs[1], loop)
        if stretch > 1:
            spans = [t.end_cycles - t.start_cycles for t in traces]
            assert min(spans) >= 1 << 40

        del packs[:]
        columns = schedule_many(recording, loops, ALL_MODES_GRID)
        ((walked, members, _, chunks),) = packs
        assert len(walked) == 5 and members == [2] * 5
        assert chunks == math.ceil(10 * len(ALL_MODES_GRID) / 7)
        for mi, machine in enumerate(ALL_MODES_GRID):
            for trace, cell in zip(traces, columns.column(mi).results()):
                assert cell == schedule_invocation_reference(
                    trace, loop, machine
                ), machine.fingerprint()
        assert (
            columns.per_core
            == _per_shape_walks(recording, loops, ALL_MODES_GRID)
        ).all()


def test_mcf_pack_matches_the_engines(suite_runner, monkeypatch):
    """mcf's recorded traces (123 one-member ``price_arcs`` shapes in one
    pack) walked under every prefetch mode in chunks of 100 columns:
    every cell is the reference's, and ``per_core`` is the sum of each
    shape walked on its own."""
    import repro.runtime.sched as sched_mod

    executor = suite_runner.helix_run("mcf").executor
    recording, loops = executor.recording, _loops(executor)
    monkeypatch.setattr(sched_mod, "_MAX_WIDTH", 100)
    columns = schedule_many(recording, loops, ALL_MODES_GRID)
    references = _invocations(recording)
    for mi, machine in enumerate(ALL_MODES_GRID):
        cells = columns.column(mi).results()
        for reference, cell in zip(references, cells):
            assert cell == schedule_invocation_reference(
                reference, loops[reference.loop_id], machine
            ), machine.fingerprint()
    assert (
        columns.per_core
        == _per_shape_walks(recording, loops, ALL_MODES_GRID)
    ).all()


#: Core counts 1 to 6, without and with a helper thread, two latencies
#: each.  Machines are ordered by mode, then core count, so each core
#: count is a block of four columns a shape (two machines, two members).
FEW_ITERATIONS_GRID = [
    MachineConfig(cores=cores, prefetch_mode=mode, signal_latency=latency)
    for mode in (PrefetchMode.NONE, PrefetchMode.HELIX)
    for cores in range(1, 7)
    for latency in (4, 110)
]


@pytest.mark.parametrize("max_width", [1 << 30, 6], ids=["whole", "cut6"])
def test_fewer_iterations_than_cores_match_the_reference(
    max_width, monkeypatch
):
    """A non-counted loop of four iterations, fewer than the largest
    core count, under core counts 1 to 6: walked in one chunk that mixes
    every core count, and in chunks of six columns, which begin and end
    inside a core count's block.  A core starts an iteration where its
    previous one ended (the clock history) and ends where its last one
    did, or at ``conf`` when it ran none; every cell and every core's
    buckets (``per_core``) are the reference's."""
    import math

    import repro.runtime.sched as sched_mod

    monkeypatch.setattr(sched_mod, "_MAX_WIDTH", max_width)
    packs = _walked_packs(monkeypatch, sched_mod)
    loop, traces = _mixed_pack(False, iterations=4)
    assert {trace.iteration_count for trace in traces} == {4}
    grid = FEW_ITERATIONS_GRID
    columns = schedule_many(
        recording_of(traces), {loop.loop_id: loop}, grid
    )
    ((_, members, _, chunks),) = packs
    assert chunks == math.ceil(sum(members) * len(grid) / max_width)
    top = max(machine.cores for machine in grid)
    for mi, machine in enumerate(grid):
        totals = np.zeros((len(CORE_FIELDS), top), dtype=np.int64)

        def emit(core, category, start, end):
            if category in CORE_FIELDS:
                totals[CORE_FIELDS.index(category), core] += end - start

        for trace, cell in zip(traces, columns.column(mi).results()):
            assert cell == schedule_invocation_reference(
                trace, loop, machine, emit
            ), machine.fingerprint()
        assert (columns.per_core[:, mi] == totals).all(), machine.fingerprint()


def test_a_sweep_after_figure9_only_walks(suite_runner, monkeypatch):
    """Scheduling a recording is prepared once.  Each suite bench,
    restored from its stored form and timed on Figure 9's machines, lays
    out every pack it walks (``_pack``) then, nine over the suite; swept
    over an 80-machine grid afterwards, it lays out none and compiles no
    program, and walks the nine again."""
    import repro.runtime.sched as sched_mod
    from repro.bench import benchmark_names
    from repro.obs import REGISTRY
    from repro.runtime.interpreter import ExecutionResult
    from repro.runtime.parallel import RecordedRun

    def compiled():
        return REGISTRY.snapshot()["counters"].get(
            "sched.programs_compiled", 0
        )

    laid_out = []
    real = sched_mod._pack

    def counting(progs, *args):
        laid_out.append(len(progs))
        return real(progs, *args)

    monkeypatch.setattr(sched_mod, "_pack", counting)
    packs = _walked_packs(monkeypatch, sched_mod)
    runs = []
    for bench in benchmark_names():
        recorded = suite_runner.helix_run(bench).executor
        stored = unpack_traces(pack_traces(recorded.recording))
        run = RecordedRun(recorded.infos, recorded.machine)
        run.restore_run(
            ExecutionResult(
                output=recorded.output,
                cycles=recorded.cycles,
                instructions=recorded.instructions,
            ),
            stored,
            recorded.load_count,
        )
        run.replay_many(
            [run.machine.with_cores(c) for c in (2, 4)] + [run.machine]
        )
        runs.append(run)
    walked = [pack for pack in packs if pack[3]]
    assert len(laid_out) == len(walked) == 9
    del laid_out[:], packs[:]
    before = compiled()
    for run in runs:
        run.replay_many(SWEEP_GRID)
    assert laid_out == [] and compiled() == before
    assert len([pack for pack in packs if pack[3]]) == len(walked)


def test_a_new_trace_list_is_prepared_again(monkeypatch):
    """The preparation goes with the recording: later grids over the
    same recording walk the one the first schedule made, and once
    ``recording`` is reassigned the next schedule prepares again."""
    import repro.runtime.parallel as parallel_mod

    transformed, infos, _, _ = _prepare("reduction")
    executor = ParallelExecutor(transformed, infos, BASE)
    executor.execute()
    prepared = []
    real = parallel_mod.prepare_many

    def counting(*args):
        prepared.append(real(*args))
        return prepared[-1]

    monkeypatch.setattr(parallel_mod, "prepare_many", counting)
    first = executor.preparation
    before = [run.cycles for run in executor.replay_many(MACHINES[:4])]
    executor.replay_many(MACHINES[4:8])
    assert prepared == [] and executor.preparation is first
    executor.recording = unpack_traces(pack_traces(executor.recording))
    after = [run.cycles for run in executor.replay_many(MACHINES[:4])]
    assert len(prepared) == 1 and prepared[0] is not first
    assert executor.preparation is prepared[0]
    assert after == before
    executor.replay_many(MACHINES[8:12])
    assert len(prepared) == 1


def test_out_of_order_intervals_are_fixed_up_off_the_first_column():
    """Two waits open at the same cycle and their signals close them in
    reverse order; on a non-TSO machine each wait pays a barrier, so the
    second opens later.  Walked as one cohort under machines of either
    kind, with the non-TSO ones not first, every column is the
    reference's."""
    from tests.test_parallel_executor import iteration, make_loop_info

    loop = make_loop_info(counted=True)
    traces = [
        InvocationTrace(
            loop_id=loop.loop_id,
            start_cycles=start,
            end_cycles=start + 2 * span,
            iterations=[
                iteration(
                    start + i * span,
                    [
                        ("w", 1, start + i * span + 10),
                        ("w", 2, start + i * span + 10),
                        ("s", 2, start + i * span + 20),
                        ("s", 1, start + i * span + gap),
                    ],
                    start + (i + 1) * span,
                )
                for i in range(2)
            ],
        )
        for start, span, gap in ((0, 50, 30), (400, 50, 30), (900, 70, 45))
    ]
    grid = [
        MachineConfig(cores=2, prefetch_mode=PrefetchMode.NONE),
        MachineConfig(
            cores=3, prefetch_mode=PrefetchMode.IDEAL,
            total_store_ordering=False,
        ),
        MachineConfig(cores=2, prefetch_mode=PrefetchMode.IDEAL),
        MachineConfig(
            cores=2, prefetch_mode=PrefetchMode.NONE,
            total_store_ordering=False, barrier_cycles=3,
        ),
    ]
    recording = recording_of(traces)
    columns = schedule_many(recording, {loop.loop_id: loop}, grid)
    # Two distinct invocations, walked together.
    assert len(recording.distinct_shape) == 2
    for mi, machine in enumerate(grid):
        assert columns.column(mi).results() == [
            schedule_invocation_reference(trace, loop, machine)
            for trace in traces
        ]

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
    real = parallel_mod.walk_many

    def counting(preparation, machines):
        scheduled.append(
            (len(preparation.index), [m.fingerprint() for m in machines])
        )
        return real(preparation, machines)

    monkeypatch.setattr(parallel_mod, "walk_many", counting)
    for _ in range(2):
        executor.execute()
        count = len(executor.recording)
        scheduled.clear()
        executor.replay_many(probes)
        assert scheduled == [(count, [p.fingerprint() for p in probes])]
        scheduled.clear()
        executor.replay_many(probes)
        assert scheduled == []  # second sweep fully memoized


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_replay_many_matches_reference_replay(name):
    _, _, executor, _ = _prepare(name)
    legacy = _invocations(executor.recording)
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
    assert len(baseline) == len(executor.recording)

    import repro.runtime.parallel as parallel_mod

    calls = []
    real = parallel_mod.walk_many

    def counting(preparation, machines):
        calls.append([m.fingerprint() for m in machines])
        return real(preparation, machines)

    monkeypatch.setattr(parallel_mod, "walk_many", counting)
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
    cells = schedule_many(executor.recording, info_by_id, [machine])
    for trace, cell in zip(
        _invocations(executor.recording), cells.column(0).results()
    ):
        assert cell == schedule_invocation_reference(
            trace, info_by_id[trace.loop_id], machine
        )


_machines = st.builds(
    MachineConfig,
    cores=st.integers(min_value=1, max_value=8),
    smt=st.booleans(),
    signal_latency=st.integers(min_value=4, max_value=220),
    prefetched_signal_latency=st.integers(min_value=0, max_value=4),
    word_transfer_cycles=st.integers(min_value=0, max_value=220),
    config_cycles_per_thread=st.integers(min_value=0, max_value=90),
    total_store_ordering=st.booleans(),
    barrier_cycles=st.integers(min_value=0, max_value=25),
    prefetch_mode=st.sampled_from(list(PrefetchMode)),
)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(SOURCES)),
    grid=st.lists(_machines, max_size=7),
    max_width=st.sampled_from([2, 5, 8192]),
)
def test_vector_walk_matches_the_engines_on_random_grids(
    name, grid, max_width
):
    """Property form of the batched differential: any machine grid, the
    walk cut anywhere, every cell equal to the reference's."""
    import repro.runtime.sched as sched_mod

    traces, recording, loops, _ = _differential_case(name)
    with mock.patch.object(sched_mod, "_MAX_WIDTH", max_width):
        columns = schedule_many(recording, loops, grid)
    for mi, machine in enumerate(grid):
        got = columns.column(mi).results()
        for trace, cell in zip(traces, got):
            assert cell == schedule_invocation_reference(
                trace, loops[trace.loop_id], machine
            )


def test_scheduling_leaves_numpy_ma_unloaded():
    """Scheduling a recording, stored and restored or just recorded,
    under every prefetch mode and several core counts never imports
    ``numpy.ma`` (plain ``np.unique`` does, ~10 ms of a warm process)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root), env.get("PYTHONPATH")])
    )
    script = """
import sys
from repro.runtime.parallel import RecordedRun
from repro.runtime.trace import pack_traces, unpack_traces
from tests.test_sched_differential import MACHINES, SOURCES, _prepare

for name in sorted(SOURCES):
    _, infos, executor, result = _prepare(name)
    recording = unpack_traces(pack_traces(executor.recording))
    restored = RecordedRun(infos)
    restored.restore_run(result.result, recording, executor.load_count)
    assert restored.replay_many(MACHINES) and executor.replay_many(MACHINES)
print('numpy' in sys.modules, 'numpy.ma' in sys.modules)
"""
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=root, check=True,
    )
    assert loaded.stdout.split() == ["True", "False"], loaded.stderr
