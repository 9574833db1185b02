"""Unit tests of the compact trace representation and its serialization."""

import json

import pytest

from repro.analysis.loops import find_loops
from repro.core import parallelize_module
from repro.frontend import compile_source
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.trace import (
    CTRL_DEP,
    TRACE_FORMAT_VERSION,
    CompactInvocationTrace,
    InvocationTrace,
    IterationTrace,
    as_compact,
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
        assert prog.has_next == (True, True)
        # MATCHED agendas: ordered-unique wait deps of each iteration.
        assert prog.agendas == ((3,), (3, 7))
        # Per-iteration sequential spans.
        assert list(prog.spans) == [200, 400]
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


class TestSerialization:
    def test_versioned_roundtrip_through_json(self):
        for trace in (_tricky_trace(), _zero_iteration_trace()):
            compact = CompactInvocationTrace.from_trace(trace)
            payload = json.loads(json.dumps(compact.to_dict()))
            assert payload["format"] == TRACE_FORMAT_VERSION
            restored = CompactInvocationTrace.from_dict(payload)
            assert restored == compact
            assert restored.to_invocation_trace() == trace

    def test_stamps_are_serialized_as_offsets(self):
        """Iteration bounds and event stamps are written relative to
        the invocation's ``start_cycles``, so where in the run's clock
        an invocation sits costs no digits."""
        trace = _tricky_trace()
        payload = CompactInvocationTrace.from_trace(trace).to_dict()
        assert payload["start_cycles"] == 100
        assert payload["end_cycles"] == 700
        assert payload["iter_start"] == [0, 200]
        assert payload["iter_end"] == [200, 600]
        assert payload["ev_at"][:3] == [10, 15, 40]
        assert max(payload["ev_at"]) == 400
        # The same invocation a billion cycles later: only its two
        # absolute stamps move.
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
        moved = later.to_dict()
        assert {k for k in moved if moved[k] != payload[k]} == {
            "start_cycles", "end_cycles",
        }
        assert CompactInvocationTrace.from_dict(
            json.loads(json.dumps(moved))
        ) == later

    def test_previous_format_rejected(self):
        """Format 2 carried absolute stamps under the same field names;
        reading it as offsets would shift every event, so it is refused
        like any other version."""
        payload = CompactInvocationTrace.from_trace(_tricky_trace()).to_dict()
        assert TRACE_FORMAT_VERSION == 3
        payload["format"] = 2
        with pytest.raises(ValueError, match="unsupported compact-trace"):
            CompactInvocationTrace.from_dict(payload)

    def test_formatless_payload_rejected(self):
        payload = CompactInvocationTrace.from_trace(_tricky_trace()).to_dict()
        del payload["format"]
        with pytest.raises(ValueError, match="unsupported compact-trace"):
            CompactInvocationTrace.from_dict(payload)

    def test_unknown_format_rejected(self):
        payload = CompactInvocationTrace.from_trace(_tricky_trace()).to_dict()
        payload["format"] = TRACE_FORMAT_VERSION + 1
        with pytest.raises(ValueError, match="unsupported compact-trace"):
            CompactInvocationTrace.from_dict(payload)

    def test_serialized_form_omits_compiled_program(self):
        compact = CompactInvocationTrace.from_trace(_tricky_trace())
        compact.program  # force compilation
        payload = compact.to_dict()
        assert "program" not in payload
        # Equality ignores the lazily cached program.
        assert CompactInvocationTrace.from_dict(payload) == compact


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
            restored = CompactInvocationTrace.from_dict(
                json.loads(json.dumps(trace.to_dict()))
            )
            assert restored == trace

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
            assert trace.event_count and any(trace.words)
            assert as_compact(trace.to_invocation_trace()) == trace
        assert len(packed) == len(executor.traces)
