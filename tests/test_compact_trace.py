"""Unit tests of the recording's tables, their interning and their
stored form."""

import base64
import json
import zlib
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, seed, settings

from repro.analysis.loops import find_loops
from repro.bench import benchmark_names
from repro.core import parallelize_module
from repro.frontend import compile_source
from repro.obs import REGISTRY
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.sched import schedule_invocation_reference, schedule_many
from repro.runtime.trace import (
    CTRL_DEP,
    INVOCATION_COLUMNS,
    KIND_NEXT,
    KIND_PRODUCE,
    KIND_SIGNAL,
    KIND_WAIT,
    KIND_XFER,
    OP_WAIT_SYNC,
    TRACE_FORMAT_VERSION,
    InvocationTrace,
    IterationTrace,
    Recording,
    _read_columns,
    _write_columns,
    pack_traces,
    unpack_traces,
)
from tests.helpers import program_fields, recording_of, reference_programs


def _tricky_trace() -> InvocationTrace:
    """Every event kind, with duplicates and non-forwarded consumers."""
    return InvocationTrace(
        loop_id=("main", "for.header"),
        start_cycles=100,
        end_cycles=700,
        loads=9,
        iterations=[
            IterationTrace(
                start_cycles=100,
                end_cycles=300,
                events=[
                    ("w", 3, 110),
                    ("w", 3, 115),  # duplicate wait
                    ("p", 5, 140),
                    ("s", 3, 180),
                    ("s", 3, 185),  # duplicate signal
                    ("n", CTRL_DEP, 200),
                    ("n", CTRL_DEP, 205),  # duplicate next_iter
                    ("x", 5, 250),  # nothing produced before: no transfer
                ],
                words={5: 2},
            ),
            IterationTrace(
                start_cycles=300,
                end_cycles=700,
                events=[
                    ("w", 3, 320),  # stallable: predecessor signalled 3
                    ("w", 7, 330),  # not stallable: 7 never signalled
                    ("x", 5, 360),  # transfers: predecessor produced 5
                    ("x", 5, 365),  # duplicate consumer: no second pay
                    ("s", 3, 400),
                    ("s", 9, 420),  # signal without a wait: no segment
                    ("n", CTRL_DEP, 500),
                ],
                words={5: 2},
            ),
        ],
    )


def _zero_iteration_trace() -> InvocationTrace:
    return InvocationTrace(
        loop_id=("main", "while.header"),
        start_cycles=40,
        end_cycles=55,
        loads=0,
        iterations=[],
    )


def _invocations(recording):
    return [recording.invocation(i) for i in range(len(recording))]


def _shifted(trace, shift, loads=None):
    """``trace`` run ``shift`` cycles later, with ``loads`` loads."""
    return InvocationTrace(
        loop_id=trace.loop_id,
        start_cycles=trace.start_cycles + shift,
        end_cycles=trace.end_cycles + shift,
        loads=trace.loads if loads is None else loads,
        iterations=[
            IterationTrace(
                start_cycles=it.start_cycles + shift,
                end_cycles=it.end_cycles + shift,
                events=[(k, d, at + shift) for k, d, at in it.events],
                words=dict(it.words),
            )
            for it in trace.iterations
        ],
    )


class TestPacking:
    def test_pack_is_lossless(self):
        """Lossless for traces whose every ``words`` key has an ``x``
        event in its iteration: only those counts are kept (at the
        ``x`` events), and an ``x`` event without one reads back as 1."""
        for trace in (_tricky_trace(), _zero_iteration_trace()):
            recording = recording_of([trace])
            assert recording.invocation(0) == trace
            assert recording.shape_iterations == [len(trace.iterations)]
            assert len(recording.ev_kind[0]) == sum(
                len(it.events) for it in trace.iterations
            )

    def test_program_precomputes_machine_independent_stats(self):
        recording = recording_of([_tricky_trace()])
        prog = recording.program(0)
        assert recording.program(0) is prog  # compiled once
        # Raw waits (duplicates included), deduped signals per iteration.
        assert prog.waits == 4
        assert prog.signals == 3  # {3} in iteration 0, {3, 9} in iteration 1
        assert prog.next_iters == 2
        assert prog.transfer_words == 2  # dep 5 transferred once, 2 words
        # MATCHED agendas: ordered-unique wait deps of each iteration.
        assert prog.agendas.tolist() == [3, 3, 7]
        assert prog.agenda_sizes.tolist() == [1, 2]
        # Raw waits and signals, each a barrier on non-TSO machines.
        assert prog.barrier_events == 8
        assert prog.iterations == 2
        # A program is one per shape: it keeps no stamp or span, and
        # the walk gathers each distinct invocation's op stamps from its
        # ``ev_at`` through ``raw``.
        assert not hasattr(prog, "at") and not hasattr(prog, "spans")
        assert [recording.ev_at[0][j] for j in prog.raw] == [
            10, 80, 100, 220, 230, 260, 300, 320, 400,
        ]
        assert prog.active_ops > 0

    def test_doall_program_has_no_active_ops(self):
        trace = InvocationTrace(
            loop_id=("main", "for.header"),
            start_cycles=0,
            end_cycles=90,
            iterations=[
                IterationTrace(
                    start_cycles=30 * i,
                    end_cycles=30 * (i + 1),
                    events=[("n", CTRL_DEP, 30 * i + 5)],
                )
                for i in range(3)
            ],
        )
        prog = recording_of([trace]).program(0)
        assert prog.active_ops == 0
        assert prog.waits == 0 and prog.signals == 0
        assert prog.transfer_words == 0


def _wide_trace() -> InvocationTrace:
    """A column at every width: stamps past 2**31, iteration bounds
    past 2**15, a dependence id past a byte beside ``CTRL_DEP``."""
    far = 2**31 + 7
    return InvocationTrace(
        loop_id=("main", "while.header"),
        start_cycles=5,
        end_cycles=far + 15,
        loads=3,
        iterations=[
            IterationTrace(
                start_cycles=5,
                end_cycles=40_005,
                events=[("w", 300, 15), ("n", CTRL_DEP, 25), ("s", 300, 35)],
            ),
            IterationTrace(
                start_cycles=40_005,
                end_cycles=far + 15,
                events=[
                    ("w", 300, 40_015),
                    ("x", 4, far),
                    ("n", CTRL_DEP, far + 10),
                ],
                words={4: 2},
            ),
        ],
    )


def _stored(recording):
    """``recording`` written and read back the way the store does it."""
    restored = unpack_traces(json.loads(json.dumps(pack_traces(recording))))
    assert pack_traces(restored) == pack_traces(recording)
    return restored


def _edited(payload, **changes):
    """``payload`` with block columns replaced (packing checks nothing,
    unpacking everything)."""
    columns = _read_columns(payload)
    columns.update(changes)
    return dict(payload, **_write_columns(columns))


class TestSerialization:
    def test_versioned_roundtrip_through_json(self):
        traces = [_tricky_trace(), _zero_iteration_trace(), _wide_trace()]
        recording = recording_of(traces)
        assert pack_traces(recording)["format"] == TRACE_FORMAT_VERSION == 5
        restored = _stored(recording)
        assert _invocations(restored) == traces
        for name in ("it_start", "ev_at", "ev_words"):
            for column in getattr(restored, name):
                assert column.typecode == "q"

    def test_empty_recording(self):
        payload = pack_traces(Recording())
        assert payload["rows"] == [0, 0, 0] and payload["loops"] == []
        restored = unpack_traces(payload)
        assert len(restored) == 0
        assert restored.loops == restored.shape_loop == []
        assert restored.distinct_shape == []

    def test_every_width_is_used_and_read_back(self):
        recording = recording_of([_wide_trace()])
        payload = pack_traces(recording)
        widths = payload["widths"]
        assert {name: widths[name] for name in (
            "it_start", "it_end", "ev_off", "ev_kind", "ev_dep", "ev_at",
            "ev_words", "trace_start", "distinct_cycles",
        )} == {
            "it_start": 4, "it_end": 8, "ev_off": 1, "ev_kind": 1,
            "ev_dep": 2, "ev_at": 8, "ev_words": 1, "trace_start": 1,
            "distinct_cycles": 8,
        }
        restored = _stored(recording)
        assert _invocations(restored) == [_wide_trace()]
        assert list(restored.ev_dep[0]) == [
            300, CTRL_DEP, 300, 300, 4, CTRL_DEP
        ]
        assert restored.ev_at[0][-1] == 2**31 + 12  # far + 10, less start

    def test_stamps_are_serialized_as_offsets(self):
        """Iteration bounds and event stamps are offsets from the
        invocation's start: the same invocation a billion cycles later
        is the same distinct invocation, stored once, and changes
        nothing but its row's ``trace_start``."""
        trace = _tricky_trace()
        recording = recording_of([trace])
        assert list(recording.it_start[0]) == [0, 200]
        assert list(recording.ev_at[0][:3]) == [10, 15, 40]
        shift = 10**9
        later = _shifted(trace, shift)
        payload = _read_columns(pack_traces(recording))
        moved = _read_columns(pack_traces(recording_of([later])))
        assert [k for k in moved if (moved[k] != payload[k]).any()] == [
            "trace_start"
        ]
        assert moved["trace_start"].tolist() == [100 + shift]
        both = recording_of([trace, later])
        assert pack_traces(both)["rows"] == [1, 1, 2]
        assert _read_columns(pack_traces(both))["trace_start"].tolist() == [
            100, 100 + shift
        ]
        assert _invocations(_stored(both)) == [trace, later]

    def test_loops_are_a_table(self):
        a, b = _tricky_trace(), _zero_iteration_trace()
        recording = recording_of([a, b, a])
        payload = pack_traces(recording)
        assert payload["loops"] == [["main", "for.header"],
                                    ["main", "while.header"]]
        columns = _read_columns(payload)
        assert columns["shape_loop"].tolist() == [0, 1]
        assert columns["trace_distinct"].tolist() == [0, 1, 0]
        assert _invocations(_stored(recording)) == [a, b, a]

    def test_shapes_and_distinct_invocations_are_stored_once(self):
        """Invocations are interned as they are added: a recorded
        invocation and its later copy with other loads are one distinct
        invocation, and a stretched copy is the same shape but another
        distinct invocation.  Shapes and distinct invocations are
        numbered in order of first occurrence, stored once, and read
        back as the same tables."""
        base = _tricky_trace()
        moved = _shifted(base, 10**6, loads=base.loads + 4)
        slower = _tricky_trace()
        kind, dep, at = slower.iterations[0].events[0]
        slower.iterations[0].events[0] = (kind, dep, at + 1)
        traces = [base, moved, slower, base]
        recording = recording_of(traces)
        assert recording.shape_loop == [0]
        assert recording.distinct_shape == [0, 0]
        assert list(recording.trace_distinct) == [0, 0, 1, 0]
        assert list(recording.trace_loads) == [9, 13, 9, 9]
        assert pack_traces(recording)["rows"] == [1, 2, 4]
        restored = _stored(recording)
        assert _invocations(restored) == traces
        for name in ("shape_loop", "distinct_shape", "distinct_cycles"):
            assert getattr(restored, name) == getattr(recording, name)
        assert restored.trace_distinct == recording.trace_distinct
        # A restored recording interns further rows as the original did.
        again = recording_of([moved])
        restored.add(
            moved.loop_id, moved.start_cycles, moved.end_cycles, moved.loads,
            {name: getattr(again, name)[0] for name in INVOCATION_COLUMNS},
        )
        assert list(restored.trace_distinct) == [0, 0, 1, 0, 0]
        assert len(restored.distinct_shape) == 2

    @pytest.mark.parametrize("case,reason", [
        ("shape index out of range", "tables"),
        ("distinct event count disagrees with its shape", "disagree"),
        ("truncated block", "disagree"),
        ("unused distinct invocation", "tables"),
        ("loop index out of range", "tables"),
        ("unused loop", "tables"),
        ("offsets step back", "offsets"),
        ("event kind out of range", "kinds"),
    ])
    def test_malformed_tables_rejected(self, case, reason):
        recording = recording_of(
            [_tricky_trace(), _wide_trace(), _tricky_trace()]
        )
        payload = pack_traces(recording)
        columns = _read_columns(payload)
        if case == "shape index out of range":
            bad = _edited(payload, distinct_shape=[0, 2])
        elif case == "distinct event count disagrees with its shape":
            # Packing takes the one stamp too many; the block is then
            # longer than the shape's event count makes it.
            recording.ev_at[0].append(recording.ev_at[0][-1])
            bad = pack_traces(recording)
        elif case == "truncated block":
            block = zlib.decompress(base64.b64decode(payload["columns"]))
            bad = dict(
                payload,
                columns=base64.b64encode(zlib.compress(block[:-1])).decode(),
            )
        elif case == "unused distinct invocation":
            bad = _edited(payload, trace_distinct=[0, 0, 0])
        elif case == "loop index out of range":
            bad = _edited(payload, shape_loop=[0, 2])
        elif case == "unused loop":
            bad = dict(payload, loops=payload["loops"] + [["main", "x"]])
        elif case == "offsets step back":
            ev_off = columns["ev_off"].copy()
            ev_off[1], ev_off[2] = ev_off[2], ev_off[1]
            bad = _edited(payload, ev_off=ev_off)
        else:
            kinds = columns["ev_kind"].copy()
            kinds[0] = 5
            bad = _edited(payload, ev_kind=kinds)
        with pytest.raises(ValueError, match=reason):
            unpack_traces(json.loads(json.dumps(bad)))

    def test_previous_format_rejected(self):
        """Format 3 stored one JSON object per trace (format 2 carried
        absolute stamps under the same field names); neither is read,
        alone or in a list, nor a block claiming an older version."""
        per_trace = {"format": 3, "loop_id": ["main", "for.header"]}
        payload = pack_traces(recording_of([_tricky_trace()]))
        for bad in ([per_trace], per_trace, dict(payload, format=3)):
            with pytest.raises(ValueError, match="unsupported recording"):
                unpack_traces(bad)

    def test_formatless_payload_rejected(self):
        payload = pack_traces(recording_of([_tricky_trace()]))
        del payload["format"]
        with pytest.raises(ValueError, match="unsupported recording"):
            unpack_traces(payload)

    def test_unknown_format_rejected(self):
        payload = pack_traces(recording_of([_tricky_trace()]))
        payload["format"] = TRACE_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported recording"):
            unpack_traces(payload)

    def test_serialized_form_omits_compiled_program(self):
        recording = recording_of([_tricky_trace()])
        recording.program(0)  # force compilation
        payload = pack_traces(recording)
        assert "program" not in json.dumps(payload)
        assert _invocations(_stored(recording)) == [_tricky_trace()]


def _compiled() -> int:
    return REGISTRY.snapshot()["counters"].get("sched.programs_compiled", 0)


def _add_shapes(recording, shapes) -> None:
    """Add one invocation of each shape in ``shapes`` to ``recording``,
    each of a loop of its own.  A shape is a list of iterations, an
    iteration a list of ``(kind, dep, words)`` events (``words`` read at
    ``x`` events only)."""
    for iterations in shapes:
        columns = {name: array("q") for name in INVOCATION_COLUMNS}
        columns["ev_off"].append(0)
        for i, events in enumerate(iterations):
            columns["it_start"].append(10 * i)
            columns["it_end"].append(10 * i + 9)
            for kind, dep, words in events:
                columns["ev_kind"].append(kind)
                columns["ev_dep"].append(dep)
                columns["ev_at"].append(10 * i + 1)
                columns["ev_words"].append(words if kind == KIND_XFER else 0)
            columns["ev_off"].append(len(columns["ev_kind"]))
        loop = ("main", f"loop{len(recording.loops)}")
        recording.add(loop, 0, 10 * len(iterations), 0, columns)


def _assert_batches_match_the_reference(shapes, split):
    """``shapes[:split]`` recorded and compiled, then the rest recorded
    and compiled: each batch compiles exactly the shapes not yet
    compiled, and every program equals the per-event reference's."""
    recording = Recording()
    earlier = []
    for part in (shapes[:split], shapes[split:]):
        if not part:
            continue
        first = len(recording.shape_loop)
        _add_shapes(recording, part)
        before = _compiled()
        recording.program(first)
        assert _compiled() - before == len(recording.shape_loop) - first
        assert all(
            recording.program(s) is program for s, program in enumerate(earlier)
        )
        earlier = [recording.program(s) for s in range(len(recording.shape_loop))]
    for program, reference in zip(earlier, reference_programs(recording)):
        assert program_fields(program) == program_fields(reference)


W, S, N, X, P = KIND_WAIT, KIND_SIGNAL, KIND_NEXT, KIND_XFER, KIND_PRODUCE

#: Shapes that hold every case the batch compiler keys on: repeated
#: ``next_iter``s, a wait after a signal of its dependence, a duplicate
#: wait, transfers with and without a producer in the previous
#: iteration, an empty iteration, a zero-iteration shape, and a shape of
#: another iteration count whose first iteration waits on and transfers
#: what the shape before it signalled and produced last.
EVERY_CASE = [
    [
        [(N, CTRL_DEP, 0), (N, CTRL_DEP, 0), (W, 1, 0), (S, 1, 0),
         (P, 2, 0)],
        [(S, 3, 0), (W, 3, 0), (X, 2, 4), (X, 2, 6), (X, 5, 1),
         (W, 1, 0), (N, CTRL_DEP, 0)],
        [],
        [(S, 1, 0), (P, 2, 0), (N, CTRL_DEP, 0)],
    ],
    [],
    [
        [(W, 1, 0), (X, 2, 3), (S, 1, 0), (P, 2, 0)],
        [(X, 2, 3), (W, 1, 0), (W, 1, 0), (N, CTRL_DEP, 0),
         (N, CTRL_DEP, 0), (S, 1, 0)],
    ],
]

_events = st.tuples(
    st.sampled_from([W, S, N, X, P]),
    st.sampled_from([CTRL_DEP, 0, 1, 2]),
    st.integers(1, 9),
)
_shapes = st.lists(
    st.lists(st.lists(_events, max_size=7), max_size=5),
    min_size=1, max_size=4,
)


class TestBatchCompilation:
    @pytest.mark.parametrize("split", [0, 1, 2, 3])
    def test_every_case_matches_the_reference(self, split):
        _assert_batches_match_the_reference(EVERY_CASE, split)

    def test_every_case_compiles_as_the_model_reads_it(self):
        recording = Recording()
        _add_shapes(recording, EVERY_CASE)
        first, empty, other = (recording.program(s) for s in range(3))
        assert empty.iterations == 0 and other.iterations == 2
        # The first iteration of a shape never sees the shape before it.
        assert other.op[0] != OP_WAIT_SYNC
        assert other.transfer_words == 3
        assert first.next_iters == 3 and first.transfer_words == 6
        # Only a duplicate wait or signal is elided before a kept op.
        assert first.pre.tolist() == [0, 0, 0, 0, 1, 0, 0, 0, 0]
        assert other.pre.tolist() == [0, 0, 0, 0, 1, 0]

    @seed(48)
    @settings(max_examples=150, deadline=None, database=None)
    @given(_shapes, st.integers(0, 4))
    @example(EVERY_CASE, 1)
    def test_random_shape_tables_match_the_reference(self, shapes, split):
        _assert_batches_match_the_reference(shapes, split)


class TestWordCounts:
    def test_last_count_of_an_iteration_wins(self):
        """Two ``x`` events of one dependence in one iteration carrying
        different counts: the transfer happens at the first and moves
        the last count written, in the compiled program as in the
        reference scheduler's per-iteration dict."""
        from tests.test_parallel_executor import make_loop_info

        recording = recording_of([_tricky_trace()])
        ev_off, ev_kind = recording.ev_off[0], recording.ev_kind[0]
        xfers = [
            j for j in range(ev_off[1], ev_off[2])
            if ev_kind[j] == KIND_XFER
        ]
        assert len(xfers) == 2
        recording.ev_words[0][xfers[0]] = 3
        recording.ev_words[0][xfers[1]] = 7
        reference = recording.invocation(0)
        assert reference.iterations[1].words == {5: 7}
        assert recording.program(0).transfer_words == 7
        machines = [MachineConfig(cores=2), MachineConfig(cores=4)]
        for counted in (True, False):
            loop = make_loop_info(counted=counted)
            columns = schedule_many(
                recording, {reference.loop_id: loop}, machines
            )
            for mi, machine in enumerate(machines):
                (got,) = columns.column(mi).results()
                assert got == schedule_invocation_reference(
                    reference, loop, machine
                )
                assert got.transfer_words == 7

    def test_signature_sees_word_counts_and_not_stamps(self):
        """A shape is keyed on its event columns, word counts included,
        and never on a stamp: a stretched copy is the same shape, a copy
        that moves another word count is another."""
        stretched = _tricky_trace()
        stretched.end_cycles += 50
        kind, dep, at = stretched.iterations[0].events[0]
        stretched.iterations[0].events[0] = (kind, dep, at + 1)
        heavier = _tricky_trace()
        assert heavier.iterations[0].events[7][0] == "x"  # not forwarded
        heavier.iterations[0].words[5] = 3
        recording = recording_of([_tricky_trace(), stretched, heavier])
        assert recording.distinct_shape == [0, 0, 1]
        assert recording.shape_loop == [0, 0]


@pytest.mark.parametrize("bench", benchmark_names())
def test_every_bench_recording_is_read_back_equal(bench, suite_runner):
    """A bench's recording comes back as the same tables, and its
    invocations as the same per-iteration traces."""
    recording = suite_runner.helix_run(bench).executor.recording
    assert len(recording)
    restored = _stored(recording)
    for name in ("loops", "shape_loop", "shape_iterations",
                 "distinct_shape", "distinct_cycles"):
        assert getattr(restored, name) == getattr(recording, name)
    for name in ("trace_distinct", "trace_start", "trace_loads"):
        assert getattr(restored, name) == getattr(recording, name)
    for name in INVOCATION_COLUMNS:
        assert getattr(restored, name) == getattr(recording, name)
    assert _invocations(restored) == _invocations(recording)


@pytest.mark.parametrize("bench", benchmark_names())
def test_every_bench_recording_compiles_in_one_batch(bench, suite_runner):
    """A bench's recording, read back, compiles every shape in the one
    batch its first program asks for, each equal to the per-event
    reference: every column, the agendas and the six statistics."""
    recording = suite_runner.helix_run(bench).executor.recording
    restored = _stored(recording)
    before = _compiled()
    restored.program(0)
    assert _compiled() - before == len(restored.shape_loop)
    programs = [restored.program(s) for s in range(len(restored.shape_loop))]
    assert _compiled() - before == len(programs)
    for program, reference in zip(programs, reference_programs(restored)):
        assert program_fields(program) == program_fields(reference)


class TestExecutorIntegration:
    def test_executor_records_compact_traces(self):
        source = """
        int acc;
        void main() {
            int i;
            for (i = 0; i < 20; i++) { acc = (acc + i * 3) % 1009; }
            print(acc);
        }
        """
        module = compile_source(source)
        loop_ids = [loop.id for loop in find_loops(module.functions["main"])]
        machine = MachineConfig(cores=4)
        transformed, infos = parallelize_module(module, loop_ids, machine)
        result = ParallelExecutor(transformed, infos, machine).execute()
        assert isinstance(result.traces, Recording) and len(result.traces)
        _stored(result.traces)

    def test_recording_appends_straight_into_the_columns(self, monkeypatch):
        """The recording run fills scratch columns as it goes, and each
        invocation enters the recording through :meth:`Recording.add`
        when it ends: what it leaves is exactly what adding the
        per-iteration form (the reference scheduler's input) makes."""
        from tests.test_sched_differential import BASE, _prepare

        transformed, infos, _executor, _result = _prepare("cohort_mix")
        added = []
        add = Recording.add

        def spy(self, *args):
            added.append(args)
            return add(self, *args)

        monkeypatch.setattr(Recording, "add", spy)
        executor = ParallelExecutor(transformed, infos, BASE)
        executor.run()
        recording = executor.recording
        assert len(recording) > 1 and len(added) == len(recording)
        # Invocations that ran alike were interned as they ended.
        assert len(recording.distinct_shape) < len(recording)
        assert any(any(words) for words in recording.ev_words)
        rebuilt = recording_of(_invocations(recording))
        assert pack_traces(rebuilt) == pack_traces(recording)
