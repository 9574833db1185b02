"""Differential tests of the machine-neutral recording clock.

A recording run keeps the interpreter's own sequential clock; time
under a machine is ``seq_total - sum(seq_i - par_i(machine))``, filled
in after the run.  Before, every invocation was scheduled on the
executing machine as it ended and the clock was rewritten to that
machine's time.  The numbers must not have moved:
``tests/data/recording_cycles.json`` holds, for every suite bench
(executed at 6 cores) and every ``test_sched_differential`` source
(executed at 4), the cycles and a digest of the loop statistics of the
execution and of a replay under each machine of the differential grid,
**generated on the commit before the clock changed**
(``python -m tests.test_recording_clock`` prints the table of the tree
it runs in).

The digests hash :meth:`LoopRunStats.to_dict`, so they moved once
since, when the unread ``segment_cycles`` statistic left the loop
statistics.  That table was recomputed on the commit before the
removal, with only the ``segment_cycles`` key dropped from
``to_dict()``, by the command above; the committed table equals that
output byte for byte, and its cycle counts and trace counts equal the
earlier table's.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench import benchmark_names
from repro.evaluation.runner import EvaluationRunner
from repro.frontend.lower import compile_source
from repro.analysis.loops import find_loops
from repro.core.parallelizer import parallelize_module
from repro.runtime.interpreter import run_module
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.sched import schedule_invocation_reference
from tests.test_sched_differential import BASE, MACHINES, SOURCES, _prepare

TABLE_PATH = Path(__file__).parent / "data" / "recording_cycles.json"


def _digest(loop_stats):
    blob = json.dumps(
        [stats.to_dict() for _, stats in sorted(loop_stats.items())],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _row(executed, executor):
    return {
        "execute": [executed.cycles, _digest(executed.loop_stats)],
        "traces": len(executor.recording),
        "grid": [
            [replayed.cycles, _digest(replayed.loop_stats)]
            for replayed in executor.replay_many(MACHINES)
        ],
    }


def _bench_row(run):
    return {
        **_row(run.parallel, run.executor),
        "sequential": run.sequential.cycles,
    }


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE_PATH.read_text())


@pytest.fixture(scope="module")
def runner(suite_runner):
    return suite_runner


def _assert_recorded_in_the_sequential_clock(executor, executed):
    """Invocations tile the recorded clock in order, and the run under
    the executing machine is the recorded total with every invocation's
    sequential span swapped for its scheduled length."""
    recording = executor.recording
    spans = [
        recording.distinct_cycles[d] for d in recording.trace_distinct
    ]
    end = 0
    for start, span in zip(recording.trace_start, spans):
        assert end <= start and span >= 0
        end = start + span
    assert end <= executor.cycles
    column = executor.schedules()
    assert [s.sequential_cycles for s in column] == spans
    assert executed.cycles == executor.cycles - sum(
        s.sequential_cycles - s.parallel_cycles for s in column
    )


def _assert_field_exact_with_the_reference(executor):
    """Every invocation's column entry under every machine is the
    reference scheduler's.  The reference runs once per distinct
    invocation, on its first occurrence, and every invocation is held to
    its distinct invocation's result.  That is as strong as a call per
    invocation because an invocation reads its distinct invocation's
    columns and stamp offsets, and the reference gives the same answer
    on each distinct invocation's last occurrence too, under one machine
    of the grid (machines taking turns over the distinct
    invocations)."""
    info_by_id = {info.loop_id: info for info in executor.infos}
    recording = executor.recording
    index = recording.trace_distinct.tolist()
    first, last = {}, {}
    for i, distinct in enumerate(index):
        first.setdefault(distinct, i)
        last[distinct] = i
    references = [recording.invocation(first[d]) for d in sorted(first)]
    others = {
        distinct: recording.invocation(i)
        for distinct, i in last.items()
        if i != first[distinct]
    }
    for turn, machine in enumerate(MACHINES):
        column = executor.schedules(machine)
        assert len(column) == len(recording)
        expected = [
            schedule_invocation_reference(
                reference, info_by_id[reference.loop_id], machine
            )
            for reference in references
        ]
        for got, distinct in zip(column, index):
            assert got == expected[distinct], machine.fingerprint()
        for distinct, other in others.items():
            if distinct % len(MACHINES) != turn:
                continue
            assert schedule_invocation_reference(
                other, info_by_id[other.loop_id], machine
            ) == expected[distinct], machine.fingerprint()


@pytest.mark.parametrize("bench", benchmark_names())
def test_bench_numbers_equal_the_previous_clocks(bench, runner, table):
    run = runner.helix_run(bench)
    assert _bench_row(run) == table["benches"][bench]
    _assert_recorded_in_the_sequential_clock(run.executor, run.parallel)
    _assert_field_exact_with_the_reference(run.executor)


@pytest.mark.parametrize("bench", benchmark_names())
def test_a_run_counts_its_recorded_invocations(bench, runner, table):
    """``len(run.parallel.traces)``, which the benchmark harness counts
    as ``runtime.traces``, is the number of invocations the bench
    records, and so is ``len()`` of the executor's recording: the run
    holds the recording itself."""
    run = runner.helix_run(bench)
    assert run.parallel.traces is run.executor.recording
    assert len(run.parallel.traces) == table["benches"][bench]["traces"]


@pytest.mark.parametrize("bench", benchmark_names())
def test_timeline_block_equals_the_per_trace_walk(
    bench, runner, bench_placement
):
    """The report's accounting is read off the per-core columns of the
    schedule walk, which times each distinct invocation once and counts
    it once per occurrence; the reference scheduler places every trace
    for the timeline (the session's placement, which
    ``test_timeline_segments`` holds to its recorded digests).  Same
    per-core buckets, same total."""
    from repro.obs.timeline import timeline_block

    executor = runner.helix_run(bench).executor
    recording = executor.recording
    assert len(recording) >= len(recording.distinct_shape)
    for cores in (2, 4, 6):
        machine = runner.machine.with_cores(cores)
        block = timeline_block(executor, machine)
        rows = bench_placement(bench, cores).core_totals
        assert block["per_core"] == [
            {"core": core, **row} for core, row in enumerate(rows)
        ]
        assert block["total_cycles"] == executor.replay(machine).cycles


def test_a_restored_suite_compiles_one_program_per_shape(runner):
    """Restoring each bench's recording from its stored form and timing
    it on its machine compiles the program of every shape and nothing
    else: 253 programs for the suite's 4,319 invocations."""
    from repro.obs import REGISTRY
    from repro.runtime.interpreter import ExecutionResult
    from repro.runtime.trace import pack_traces, unpack_traces

    def compiled():
        return REGISTRY.snapshot()["counters"].get(
            "sched.programs_compiled", 0
        )

    shapes = traces = 0
    for bench in benchmark_names():
        recorded = runner.helix_run(bench).executor
        stored = unpack_traces(pack_traces(recorded.recording))
        restored = ParallelExecutor(
            recorded.module, recorded.infos, recorded.machine
        )
        before = compiled()
        restored.restore_run(
            ExecutionResult(
                output=recorded.output,
                cycles=recorded.cycles,
                instructions=recorded.instructions,
            ),
            stored,
            recorded.load_count,
        )
        restored.schedule_columns()
        assert restored.recording is stored
        assert compiled() - before == len(stored.shape_loop), bench
        shapes += len(stored.shape_loop)
        traces += len(stored)
    assert (shapes, traces) == (253, 4319)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_source_numbers_equal_the_previous_clocks(name, table):
    """The differential sources: same numbers, and the recorded clock
    is the one an uninstrumented run of the transformed module keeps."""
    transformed, _, executor, executed = _prepare(name)
    assert _row(executed, executor) == table["sources"][name]
    _assert_recorded_in_the_sequential_clock(executor, executed)
    plain = run_module(transformed, BASE)
    assert executor.cycles == plain.cycles
    assert executor.instructions == plain.instructions


def test_zero_iteration_invocation_costs_its_sequential_span():
    """An invocation whose body never ran is scheduled as long as it
    was recorded, so under every machine it adds what it added to the
    recording."""
    from tests.test_timeline import _restored_with_empty_invocation

    _, _, executor, _ = _prepare("multi_invocation")
    restored = _restored_with_empty_invocation("multi_invocation")
    recording = restored.recording
    assert recording.invocation(len(recording) - 1).iteration_count == 0
    _assert_field_exact_with_the_reference(restored)
    added = restored.cycles - executor.cycles
    assert added > 0
    for before, after in zip(
        executor.replay_many(MACHINES), restored.replay_many(MACHINES)
    ):
        assert after.cycles == before.cycles + added
        assert after.loop_stats != before.loop_stats


def test_a_run_whose_loops_never_execute_is_its_recording():
    source = """
    int acc;
    int n;
    void main() {
        int i;
        if (n > 0) {
            for (i = 0; i < n; i++) { acc = acc + i; }
        }
        print(acc);
    }
    """
    module = compile_source(source)
    loop_ids = [l.id for l in find_loops(module.functions["main"])]
    transformed, infos = parallelize_module(module, loop_ids, BASE)
    assert infos
    executor = ParallelExecutor(transformed, infos, BASE)
    executed = executor.execute()
    assert len(executor.recording) == 0
    assert executed.cycles == executor.cycles
    assert executed.cycles == run_module(transformed, BASE).cycles
    for replayed in executor.replay_many(MACHINES):
        assert replayed.cycles == executor.cycles
        assert replayed.loop_stats == {}


if __name__ == "__main__":
    _runner = EvaluationRunner(MachineConfig(cores=6))
    print(
        json.dumps(
            {
                "benches": {
                    bench: _bench_row(_runner.helix_run(bench))
                    for bench in benchmark_names()
                },
                "sources": {
                    name: _row(_prepare(name)[3], _prepare(name)[2])
                    for name in sorted(SOURCES)
                },
            },
            indent=1,
            sort_keys=True,
        )
    )
