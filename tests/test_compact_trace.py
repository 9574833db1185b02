"""Unit tests of the compact trace representation and its stored form."""

import base64
import json
import zlib

import pytest

from repro.analysis.loops import find_loops
from repro.bench import benchmark_names
from repro.core import parallelize_module
from repro.frontend import compile_source
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor, schedule_invocation
from repro.runtime.sched import (
    group_traces,
    schedule_invocation_reference,
    schedule_many,
    trace_signature,
)
from repro.runtime.trace import (
    CTRL_DEP,
    KIND_XFER,
    TRACE_FORMAT_VERSION,
    CompactInvocationTrace,
    InvocationTrace,
    IterationTrace,
    _read_columns,
    _write_columns,
    as_compact,
    pack_traces,
    unpack_traces,
)


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


class TestPacking:
    def test_pack_is_lossless(self):
        """Lossless for traces whose every ``words`` key has an ``x``
        event in its iteration: only those counts are kept (at the
        ``x`` events), and an ``x`` event without one reads back as 1."""
        for trace in (_tricky_trace(), _zero_iteration_trace()):
            compact = CompactInvocationTrace.from_trace(trace)
            assert compact.to_invocation_trace() == trace
            assert compact.iteration_count == len(trace.iterations)
            assert compact.event_count == sum(
                len(it.events) for it in trace.iterations
            )

    def test_as_compact_normalizes_both_forms(self):
        trace = _tricky_trace()
        compact = as_compact(trace)
        assert isinstance(compact, CompactInvocationTrace)
        assert as_compact(compact) is compact

    def test_program_precomputes_machine_independent_stats(self):
        prog = CompactInvocationTrace.from_trace(_tricky_trace()).program
        # Raw waits (duplicates included), deduped signals per iteration.
        assert prog.waits == 4
        assert prog.signals == 3  # {3} in iteration 0, {3, 9} in iteration 1
        assert prog.next_iters == 2
        assert prog.transfer_words == 2  # dep 5 transferred once, 2 words
        # MATCHED agendas: ordered-unique wait deps of each iteration.
        assert prog.agendas == ((3,), (3, 7))
        # Raw waits and signals, each a barrier on non-TSO machines.
        assert prog.barrier_events == 8
        assert prog.iterations == 2
        # A program is one per shape: it keeps no stamp or span, and
        # the walk gathers each trace's op stamps from its ``ev_at``
        # through ``raw``.
        assert not hasattr(prog, "at") and not hasattr(prog, "spans")
        compact = CompactInvocationTrace.from_trace(_tricky_trace())
        assert [compact.ev_at[j] for j in prog.raw] == [
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
        prog = CompactInvocationTrace.from_trace(trace).program
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


def _stored(traces):
    """``traces`` written and read back the way the store does it."""
    restored, _ = unpack_traces(json.loads(json.dumps(pack_traces(traces))))
    return restored


def _edited(payload, **changes):
    """``payload`` with block columns replaced (packing checks nothing,
    unpacking everything)."""
    columns = _read_columns(payload)
    columns.update(changes)
    return dict(payload, **_write_columns(columns))


class TestSerialization:
    def test_versioned_roundtrip_through_json(self):
        traces = [
            CompactInvocationTrace.from_trace(trace)
            for trace in (_tricky_trace(), _zero_iteration_trace(),
                          _wide_trace())
        ]
        assert pack_traces(traces)["format"] == TRACE_FORMAT_VERSION == 5
        restored = _stored(traces)
        assert restored == traces
        assert [t.to_invocation_trace() for t in restored] == [
            _tricky_trace(), _zero_iteration_trace(), _wide_trace()
        ]
        for trace in restored:
            for column in (trace.it_start, trace.ev_at, trace.ev_words):
                assert column.typecode == "q"

    def test_empty_recording(self):
        payload = pack_traces([])
        assert payload["rows"] == [0, 0, 0] and payload["loops"] == []
        traces, (shapes, first, index) = unpack_traces(payload)
        assert traces == shapes == first == [] and len(index) == 0

    def test_every_width_is_used_and_read_back(self):
        trace = CompactInvocationTrace.from_trace(_wide_trace())
        payload = pack_traces([trace])
        widths = payload["widths"]
        assert {name: widths[name] for name in (
            "it_start", "it_end", "ev_off", "ev_kind", "ev_dep", "ev_at",
            "ev_words", "trace_start", "distinct_cycles",
        )} == {
            "it_start": 4, "it_end": 8, "ev_off": 1, "ev_kind": 1,
            "ev_dep": 2, "ev_at": 8, "ev_words": 1, "trace_start": 1,
            "distinct_cycles": 8,
        }
        (restored,) = _stored([trace])
        assert restored == trace
        assert list(restored.ev_dep) == [300, CTRL_DEP, 300, 300, 4, CTRL_DEP]
        assert restored.ev_at[-1] == 2**31 + 12  # far + 10, less start_cycles

    def test_stamps_are_serialized_as_offsets(self):
        """Iteration bounds and event stamps are stored relative to the
        invocation's ``start_cycles``: the same invocation a billion
        cycles later is the same distinct invocation, stored once, and
        changes nothing but its trace row's ``trace_start``."""
        trace = _tricky_trace()
        compact = CompactInvocationTrace.from_trace(trace)
        assert list(compact.it_start) == [0, 200]
        assert list(compact.ev_at[:3]) == [10, 15, 40]
        shift = 10**9
        later = CompactInvocationTrace.from_trace(
            InvocationTrace(
                loop_id=trace.loop_id,
                start_cycles=trace.start_cycles + shift,
                end_cycles=trace.end_cycles + shift,
                loads=trace.loads,
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
        )
        payload = _read_columns(pack_traces([compact]))
        moved = _read_columns(pack_traces([later]))
        assert [k for k in moved if (moved[k] != payload[k]).any()] == [
            "trace_start"
        ]
        assert moved["trace_start"].tolist() == [100 + shift]
        both = pack_traces([compact, later])
        assert both["rows"] == [1, 1, 2]
        assert _read_columns(both)["trace_start"].tolist() == [100, 100 + shift]
        assert _stored([compact, later]) == [compact, later]

    def test_loops_are_a_table(self):
        a = CompactInvocationTrace.from_trace(_tricky_trace())
        b = CompactInvocationTrace.from_trace(_zero_iteration_trace())
        payload = pack_traces([a, b, a])
        assert payload["loops"] == [["main", "for.header"],
                                    ["main", "while.header"]]
        columns = _read_columns(payload)
        assert columns["shape_loop"].tolist() == [0, 1]
        assert columns["trace_distinct"].tolist() == [0, 1, 0]
        assert _stored([a, b, a]) == [a, b, a]

    def test_shapes_and_distinct_invocations_are_stored_once(self):
        """A shape's event columns and a distinct invocation's stamp
        columns are stored once and shared by the traces restored from
        them; the grouping comes back with the traces."""
        base = CompactInvocationTrace.from_trace(_tricky_trace())
        moved = CompactInvocationTrace.from_trace(_tricky_trace())
        moved.start_cycles += 10**6
        moved.end_cycles += 10**6
        slower = CompactInvocationTrace.from_trace(_tricky_trace())
        slower.ev_at[0] += 1
        traces = [base, moved, slower, base]
        payload = pack_traces(traces)
        assert payload["rows"] == [1, 2, 4]
        restored, grouping = unpack_traces(payload)
        assert restored == traces
        shapes, first, index = grouping
        assert (shapes, first, index.tolist()) == ([[0, 1]], [0, 2], [0, 0, 1, 0])
        expected = group_traces(traces)
        assert expected[:2] == (shapes, first)
        assert (expected[2] == index).all()
        one, two, three, four = restored
        for name in ("ev_off", "ev_kind", "ev_dep", "ev_words"):
            assert getattr(one, name) is getattr(three, name)
        for name in ("it_start", "it_end", "ev_at"):
            assert getattr(one, name) is getattr(two, name)
            assert getattr(one, name) is getattr(four, name)
            assert getattr(one, name) is not getattr(three, name)

    @pytest.mark.parametrize("case,reason", [
        ("shape index out of range", "tables"),
        ("distinct event count disagrees with its shape", "disagree"),
        ("truncated block", "disagree"),
        ("unused distinct invocation", "tables"),
        ("loop index out of range", "tables"),
        ("offsets step back", "offsets"),
        ("event kind out of range", "kinds"),
    ])
    def test_malformed_tables_rejected(self, case, reason):
        base = CompactInvocationTrace.from_trace(_tricky_trace())
        other = CompactInvocationTrace.from_trace(_wide_trace())
        payload = pack_traces([base, other, base])
        columns = _read_columns(payload)
        if case == "shape index out of range":
            bad = _edited(payload, distinct_shape=[0, 2])
        elif case == "distinct event count disagrees with its shape":
            # Packing takes the one stamp too many; the block is then
            # longer than the shape's event count makes it.
            base.ev_at.append(base.ev_at[-1])
            bad = pack_traces([base, other, base])
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
        payload = pack_traces([CompactInvocationTrace.from_trace(_tricky_trace())])
        for bad in ([per_trace], per_trace, dict(payload, format=3)):
            with pytest.raises(ValueError, match="unsupported recording"):
                unpack_traces(bad)

    def test_formatless_payload_rejected(self):
        payload = pack_traces([CompactInvocationTrace.from_trace(_tricky_trace())])
        del payload["format"]
        with pytest.raises(ValueError, match="unsupported recording"):
            unpack_traces(payload)

    def test_unknown_format_rejected(self):
        payload = pack_traces([CompactInvocationTrace.from_trace(_tricky_trace())])
        payload["format"] = TRACE_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported recording"):
            unpack_traces(payload)

    def test_serialized_form_omits_compiled_program(self):
        compact = CompactInvocationTrace.from_trace(_tricky_trace())
        compact.program  # force compilation
        payload = pack_traces([compact])
        assert "program" not in json.dumps(payload)
        # Equality ignores the lazily cached program.
        assert _stored([compact]) == [compact]


class TestWordCounts:
    def test_last_count_of_an_iteration_wins(self):
        """Two ``x`` events of one dependence in one iteration carrying
        different counts: the transfer happens at the first and moves
        the last count written, in the compiled program as in the
        reference scheduler's per-iteration dict."""
        from tests.test_parallel_executor import make_loop_info

        compact = CompactInvocationTrace.from_trace(_tricky_trace())
        xfers = [
            j for j in range(compact.ev_off[1], compact.ev_off[2])
            if compact.ev_kind[j] == KIND_XFER
        ]
        assert len(xfers) == 2
        compact.ev_words[xfers[0]] = 3
        compact.ev_words[xfers[1]] = 7
        reference = compact.to_invocation_trace()
        assert reference.iterations[1].words == {5: 7}
        assert compact.program.transfer_words == 7
        for counted in (True, False):
            loop = make_loop_info(counted=counted)
            for machine in (MachineConfig(cores=2), MachineConfig(cores=4)):
                got = schedule_invocation(compact, loop, machine)
                assert got == schedule_invocation_reference(
                    reference, loop, machine
                )
                assert got.transfer_words == 7

    def test_signature_sees_word_counts_and_not_stamps(self):
        base = CompactInvocationTrace.from_trace(_tricky_trace())
        stretched = CompactInvocationTrace.from_trace(_tricky_trace())
        stretched.ev_at[0] += 1
        stretched.end_cycles += 50
        assert trace_signature(base) == trace_signature(stretched)
        heavier = CompactInvocationTrace.from_trace(_tricky_trace())
        assert heavier.ev_kind[7] == KIND_XFER  # not forwarded: no transfer
        heavier.ev_words[7] = 3
        assert trace_signature(heavier) != trace_signature(base)


@pytest.mark.parametrize("bench", benchmark_names())
def test_every_bench_recording_is_read_back_equal(bench, suite_runner):
    """Traces come back equal, and with them the grouping
    ``schedule_many`` computes from the same traces when given none."""
    executor = suite_runner.helix_run(bench).executor
    traces = executor.traces
    assert traces
    restored, (shapes, first, index) = unpack_traces(
        json.loads(json.dumps(pack_traces(traces)))
    )
    assert restored == traces
    assert [t.to_invocation_trace() for t in restored] == [
        t.to_invocation_trace() for t in traces
    ]
    recomputed = schedule_many(traces, executor._loops(), []).grouping
    assert (shapes, first) == recomputed[:2]
    assert index.tolist() == recomputed[2].tolist()


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
        loop_ids = [l.id for l in find_loops(module.functions["main"])]
        machine = MachineConfig(cores=4)
        transformed, infos = parallelize_module(module, loop_ids, machine)
        result = ParallelExecutor(transformed, infos, machine).execute()
        assert result.traces
        for trace in result.traces:
            assert isinstance(trace, CompactInvocationTrace)
        assert _stored(result.traces) == result.traces

    def test_recording_appends_straight_into_the_columns(self, monkeypatch):
        """The recording run fills the columns as it goes: nothing is
        packed when an invocation ends, and what it leaves is exactly
        what packing the per-iteration form (the reference scheduler's
        input) would have made."""
        from tests.test_sched_differential import BASE, _prepare

        transformed, infos, _executor, _result = _prepare("cohort_mix")
        packed = []
        from_trace = CompactInvocationTrace.from_trace.__func__

        def spy(cls, trace):
            packed.append(trace)
            return from_trace(cls, trace)

        monkeypatch.setattr(
            CompactInvocationTrace, "from_trace", classmethod(spy)
        )
        executor = ParallelExecutor(transformed, infos, BASE)
        executor.run()
        assert len(executor.traces) > 1 and not packed
        for trace in executor.traces:
            assert trace.event_count and any(trace.ev_words)
            assert as_compact(trace.to_invocation_trace()) == trace
        assert len(packed) == len(executor.traces)
