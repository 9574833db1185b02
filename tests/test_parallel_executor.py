"""Tests for the parallel executor and its schedule reconstruction."""

import pytest

from repro.analysis.loops import find_loops
from repro.core.parallelizer import parallelize_module
from repro.core.loopinfo import ParallelizedLoop
from repro.frontend.lower import compile_source
from repro.runtime.interpreter import run_module
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.parallel import (
    CTRL_DEP,
    InvocationTrace,
    IterationTrace,
    ParallelExecutor,
)
from repro.runtime.sched import schedule_invocation_reference, schedule_many
from repro.runtime.trace import pack_traces
from tests.helpers import recording_of


def transform(source, cores=4, prefix="for", options=None):
    module = compile_source(source)
    forest = find_loops(module.functions["main"])
    loop_ids = [
        l.id for l in forest if l.parent is None and l.header.startswith(prefix)
    ]
    machine = MachineConfig(cores=cores)
    transformed, infos = parallelize_module(module, loop_ids, machine, options)
    return module, transformed, infos, machine


DOALL = """
int a[64];
int chk;
void main() {
    int i;
    for (i = 0; i < 64; i++) {
        int w = (i * 2654435761) % 97;
        a[i] = w + i;
    }
    for (i = 0; i < 64; i++) { chk = (chk + a[i]) % 10007; }
    print(chk);
}
"""

SEQUENTIAL_SEGMENT = """
int total;
void main() {
    int i;
    for (i = 0; i < 40; i++) {
        int k = 0;
        int f = 0;
        while (k < 150) { f = f + (k ^ i); k++; }
        total = total + (f & 31);
    }
    print(total);
}
"""


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("source", [DOALL, SEQUENTIAL_SEGMENT])
    def test_output_identical(self, source):
        module, transformed, infos, machine = transform(source)
        baseline = run_module(module)
        executor = ParallelExecutor(transformed, infos, machine)
        result = executor.execute()
        assert result.output == baseline.output

    def test_memory_state_identical(self):
        module, transformed, infos, machine = transform(DOALL)
        interp_seq = run_module(module)
        executor = ParallelExecutor(transformed, infos, machine)
        executor.execute()
        seq_executor_memory = {
            k: v
            for k, v in executor.memory.items()
            if not k.startswith("__helix")
        }
        from repro.runtime.interpreter import Interpreter

        base = Interpreter(module)
        base.run()
        assert seq_executor_memory == {
            k: v for k, v in base.memory.items()
        }


class TestSpeedups:
    def test_doall_speedup_scales_with_cores(self):
        source = SEQUENTIAL_SEGMENT
        speedups = {}
        for cores in (2, 4, 6):
            module, transformed, infos, machine = transform(source, cores)
            baseline = run_module(module)
            result = ParallelExecutor(transformed, infos, machine).execute()
            speedups[cores] = baseline.cycles / result.cycles
        assert speedups[2] > 1.3
        assert speedups[4] > speedups[2]
        assert speedups[6] >= speedups[4] * 0.9

    def test_parallel_never_free(self):
        module, transformed, infos, machine = transform(DOALL)
        baseline = run_module(module)
        result = ParallelExecutor(transformed, infos, machine).execute()
        assert result.cycles > baseline.cycles / machine.cores

    def test_loop_stats_populated(self):
        module, transformed, infos, machine = transform(SEQUENTIAL_SEGMENT)
        result = ParallelExecutor(transformed, infos, machine).execute()
        stats = result.loop_stats[infos[0].loop_id]
        assert stats.invocations == 1
        assert stats.iterations == 41  # 40 iterations + exiting entry
        assert stats.signals > 0
        assert stats.sequential_cycles > stats.parallel_cycles

    def test_rerun_resets_invocation_state(self):
        # Regression: run() used to leave _inv_info/_inv_frame from the
        # previous run, so a re-run could misattribute its first
        # invocation.  Two runs of one executor must agree exactly.
        module, transformed, infos, machine = transform(SEQUENTIAL_SEGMENT)
        executor = ParallelExecutor(transformed, infos, machine)
        first = executor.execute()
        second = executor.execute()
        assert second.result.output == first.result.output
        assert second.result.cycles == first.result.cycles
        assert second.loop_stats == first.loop_stats
        assert pack_traces(second.traces) == pack_traces(first.traces)


class TestReplay:
    def test_replay_matches_direct_execution(self):
        module, transformed, infos, _ = transform(SEQUENTIAL_SEGMENT, cores=6)
        machine2 = MachineConfig(cores=2)
        executor6 = ParallelExecutor(
            transformed, infos, MachineConfig(cores=6)
        )
        executor6.execute()
        replayed = executor6.replay(machine2)

        executor2 = ParallelExecutor(transformed, infos, machine2)
        direct = executor2.execute()
        assert replayed.cycles == direct.cycles

    def test_replay_prefetch_modes(self):
        module, transformed, infos, machine = transform(SEQUENTIAL_SEGMENT, 6)
        executor = ParallelExecutor(transformed, infos, machine)
        executor.execute()
        cycles = {}
        for mode in PrefetchMode:
            replay = executor.replay(machine.with_prefetch(mode))
            cycles[mode] = replay.cycles
        assert cycles[PrefetchMode.IDEAL] <= cycles[PrefetchMode.HELIX]
        assert cycles[PrefetchMode.HELIX] <= cycles[PrefetchMode.NONE]

    def test_replay_many_duplicate_and_baseline_machines(self):
        """A sweep list may repeat machines and include the baseline
        itself; every entry stays field-exact with a solo ``replay``."""
        module, transformed, infos, machine = transform(
            SEQUENTIAL_SEGMENT, cores=6
        )
        executor = ParallelExecutor(transformed, infos, machine)
        direct = executor.execute()
        probe = MachineConfig(cores=2)
        sweep = [probe, machine, probe]
        runs = executor.replay_many(sweep)
        assert [r.machine for r in runs] == sweep
        for swept, run in zip(sweep, runs):
            solo = executor.replay(swept)
            assert run.result.cycles == solo.result.cycles
            assert run.result.output == solo.result.output
            assert run.loop_stats == solo.loop_stats
        # Duplicates agree with each other, the baseline entry with the
        # recorded execution.
        assert runs[0].result.cycles == runs[2].result.cycles
        assert runs[1].result.cycles == direct.cycles
        assert runs[1].result.output == direct.output

    def test_replay_many_zero_trace_executor(self):
        """A run whose parallelized loop never executed records no
        traces; replaying it is the recorded run under every machine."""
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
        module, transformed, infos, machine = transform(source)
        assert infos  # the loop was parallelized...
        executor = ParallelExecutor(transformed, infos, machine)
        direct = executor.execute()
        assert len(executor.recording) == 0  # ...but never entered
        probe = MachineConfig(cores=2)
        runs = executor.replay_many([probe, machine])
        for run in runs:
            assert run.result.cycles == direct.cycles
            assert run.result.output == direct.output
            assert run.loop_stats == {}
        solo = executor.replay(probe)
        assert solo.result.cycles == direct.cycles

    def test_replay_many_results_share_output_and_traces(self):
        """The sweep shares one output list and one trace list across
        results instead of copying them per machine."""
        module, transformed, infos, machine = transform(SEQUENTIAL_SEGMENT)
        executor = ParallelExecutor(transformed, infos, machine)
        executor.execute()
        runs = executor.replay_many(
            [MachineConfig(cores=2), MachineConfig(cores=3), machine]
        )
        first = runs[0]
        for run in runs[1:]:
            assert run.result.output is first.result.output
            assert run.traces is first.traces


def make_loop_info(counted=False, helper_order=()):
    return ParallelizedLoop(
        loop_id=("f", "L"),
        func_name="f",
        seq_header="L",
        guard_block="g",
        par_preheader="pp",
        par_header="ph",
        par_latch="lt",
        counted=counted,
        helper_order=list(helper_order),
    )


def schedule_one(trace, loop, machine):
    """The schedule of one hand-written invocation under one machine,
    through the recording and the production scheduler."""
    recording = recording_of([trace])
    columns = schedule_many(recording, {trace.loop_id: loop}, [machine])
    return columns.column(0).results()[0]


def iteration(start, events, end):
    trace = IterationTrace(start_cycles=start, end_cycles=end)
    trace.events = events
    return trace


class TestScheduleInvocation:
    """Unit tests of the timing reconstruction on synthetic traces."""

    def machine(self, cores=2, mode=PrefetchMode.NONE):
        return MachineConfig(cores=cores, prefetch_mode=mode)

    def test_empty_invocation_costs_sequential_span(self):
        # Regression: zero-iteration invocations used to be charged the
        # full thread-configuration cost; they cost their sequential
        # span (the loop body never ran, nothing was configured).
        trace = InvocationTrace(
            loop_id=("f", "L"), start_cycles=100, end_cycles=130
        )
        result = schedule_one(trace, make_loop_info(), self.machine())
        assert result.sequential_cycles == 30
        assert result.parallel_cycles == 30

    def test_empty_invocation_never_charged_configuration(self):
        machine = self.machine(cores=6)
        trace = InvocationTrace(loop_id=("f", "L"), start_cycles=0, end_cycles=5)
        result = schedule_one(trace, make_loop_info(), machine)
        conf = machine.config_cycles_per_thread * (machine.cores - 1)
        assert result.parallel_cycles == 5 < conf

    def test_counted_doall_divides_by_cores(self):
        # 8 iterations of 100 cycles, no sync events, 4 cores.
        iterations = [
            iteration(i * 100, [], (i + 1) * 100) for i in range(8)
        ]
        trace = InvocationTrace(
            loop_id=("f", "L"),
            start_cycles=0,
            end_cycles=800,
            iterations=iterations,
        )
        machine = self.machine(cores=4)
        result = schedule_one(trace, make_loop_info(counted=True), machine)
        conf = machine.config_cycles_per_thread * 3
        drain = machine.signal_latency + 3
        assert result.parallel_cycles == conf + 200 + drain

    def test_non_counted_chains_on_control_signal(self):
        # Tiny iterations: the start chain dominates.
        iterations = []
        for i in range(4):
            start = i * 10
            iterations.append(
                iteration(start, [("n", CTRL_DEP, start + 2)], start + 10)
            )
        trace = InvocationTrace(
            loop_id=("f", "L"), start_cycles=0, end_cycles=40,
            iterations=iterations,
        )
        machine = self.machine(cores=4)
        result = schedule_one(trace, make_loop_info(counted=False), machine)
        # Each hand-off pays the full signal latency.
        assert result.parallel_cycles >= 3 * machine.signal_latency

    def test_wait_blocks_until_signal(self):
        # Iteration 0 signals dep 0 at t=90; iteration 1 waits at its t=10.
        it0 = iteration(0, [("s", 0, 90)], 100)
        it1 = iteration(100, [("w", 0, 110)], 200)
        trace = InvocationTrace(
            loop_id=("f", "L"), start_cycles=0, end_cycles=200,
            iterations=[it0, it1],
        )
        machine = self.machine(cores=2)
        result = schedule_one(trace, make_loop_info(counted=True), machine)
        # Iteration 1 on core 1 reaches its wait at conf+10 but the
        # signal lands at conf+90; completion = signal + pull latency.
        conf = machine.config_cycles_per_thread
        it1_end = conf + 90 + machine.signal_latency + 90
        assert result.parallel_cycles == int(
            it1_end + machine.signal_latency + 1
        )
        assert result.wait_stall_cycles > 0

    def test_first_iteration_never_waits(self):
        it0 = iteration(0, [("w", 0, 50)], 100)
        trace = InvocationTrace(
            loop_id=("f", "L"), start_cycles=0, end_cycles=100,
            iterations=[it0],
        )
        result = schedule_one(
            trace, make_loop_info(counted=True), self.machine()
        )
        assert result.wait_stall_cycles == 0

    def test_transfer_charged_only_when_produced(self):
        machine = self.machine(cores=2)
        # Iteration 0 produces dep 0; iteration 1 consumes -> one transfer.
        it0 = iteration(0, [("p", 0, 40)], 100)
        it1 = iteration(100, [("x", 0, 150)], 200)
        it1.words[0] = 1
        # Iteration 2 consumes but iteration 1 produced nothing.
        it2 = iteration(200, [("x", 0, 250)], 300)
        it2.words[0] = 1
        trace = InvocationTrace(
            loop_id=("f", "L"), start_cycles=0, end_cycles=300,
            iterations=[it0, it1, it2],
        )
        result = schedule_one(trace, make_loop_info(counted=True), machine)
        assert result.transfer_words == 1

    def test_ideal_prefetch_cheapest(self):
        def run(mode):
            iterations = []
            for i in range(6):
                start = i * 100
                iterations.append(
                    iteration(
                        start,
                        [("w", 0, start + 60), ("s", 0, start + 70)],
                        start + 100,
                    )
                )
            trace = InvocationTrace(
                loop_id=("f", "L"), start_cycles=0, end_cycles=600,
                iterations=iterations,
            )
            machine = MachineConfig(cores=2, prefetch_mode=mode)
            info = make_loop_info(counted=True, helper_order=[0])
            return schedule_one(trace, info, machine).parallel_cycles

        # Ordering: ideal <= helix <= none.
        assert run(PrefetchMode.IDEAL) <= run(PrefetchMode.HELIX)
        assert run(PrefetchMode.HELIX) <= run(PrefetchMode.NONE)

    def test_reference_rejects_an_unknown_event_kind(self):
        # Events spelled out ("wait", "signal") are not trace events;
        # the reference used to time them as producer marks.
        iterations = [
            iteration(
                i * 100,
                [("wait", 0, i * 100 + 60), ("signal", 0, i * 100 + 70)],
                (i + 1) * 100,
            )
            for i in range(8)
        ]
        trace = InvocationTrace(
            loop_id=("f", "L"), start_cycles=0, end_cycles=800,
            iterations=iterations,
        )
        with pytest.raises(ValueError, match="'wait'"):
            schedule_invocation_reference(
                trace, make_loop_info(counted=True), self.machine(cores=4)
            )


class TestMemoryConsistency:
    def test_weak_ordering_costs_barriers(self):
        """Section 2.3: without TSO, every sync op pays a barrier."""
        import dataclasses

        module, transformed, infos, machine = transform(SEQUENTIAL_SEGMENT, 6)
        tso = ParallelExecutor(transformed, infos, machine).execute()
        weak_machine = dataclasses.replace(machine, total_store_ordering=False)
        weak = ParallelExecutor(transformed, infos, weak_machine).execute()
        assert weak.result.output == tso.result.output
        assert weak.cycles > tso.cycles


class TestHelperPipelining:
    def test_helper_serializes_prefetches(self):
        """One helper prefetch at a time: with two deps signalled
        back-to-back, the second prefetch completes a pull-latency after
        the first, so only the first wait gets the fast path."""
        machine = MachineConfig(cores=2, prefetch_mode=PrefetchMode.HELIX)
        info = make_loop_info(counted=True, helper_order=[0, 1])
        latency = machine.signal_latency
        fast = machine.prefetched_signal_latency

        iterations = []
        body = 3 * latency  # enough slack for one prefetch, not two
        for i in range(4):
            start = i * body
            iterations.append(
                iteration(
                    start,
                    [
                        ("w", 0, start + body - 40),
                        ("s", 0, start + body - 35),
                        ("w", 1, start + body - 20),
                        ("s", 1, start + body - 15),
                    ],
                    start + body,
                )
            )
        trace = InvocationTrace(
            loop_id=("f", "L"), start_cycles=0, end_cycles=4 * body,
            iterations=iterations,
        )
        helix = schedule_one(trace, info, machine)
        ideal = schedule_one(
            trace, info, machine.with_prefetch(PrefetchMode.IDEAL)
        )
        none = schedule_one(
            trace, info, machine.with_prefetch(PrefetchMode.NONE)
        )
        assert none.parallel_cycles >= helix.parallel_cycles
        assert helix.parallel_cycles >= ideal.parallel_cycles

    def test_helper_state_carries_across_iterations_on_a_core(self):
        """The helper of a core serves iteration i, then i+N: its busy
        time must persist (helper_free), so dense signal traffic cannot
        be prefetched infinitely fast."""
        machine = MachineConfig(cores=1, prefetch_mode=PrefetchMode.HELIX)
        info = make_loop_info(counted=True, helper_order=[0])
        iterations = []
        for i in range(6):
            start = i * 50
            iterations.append(
                iteration(start, [("w", 0, start + 10), ("s", 0, start + 20)], start + 50)
            )
        trace = InvocationTrace(
            loop_id=("f", "L"), start_cycles=0, end_cycles=300,
            iterations=iterations,
        )
        result = schedule_one(trace, info, machine)
        # Single core: everything serial, finishing after all the work.
        assert result.parallel_cycles >= 300
