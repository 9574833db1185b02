"""Watched edges: instrumented runs observe only where they act.

An interpreter may declare, per function, the block-to-block edges its
``on_block_entry`` acts on (``Interpreter.watched_edges``); generated
code then calls the hook only there and fuses every other boundary.
The tree walker keeps announcing every entry, so these tests pin the
generated tier against the tree walker: which calls are made, that
nothing the observers report changes, and that a run near its budget
stays in generated code and counts every block exactly once.
"""

import pytest

from repro.analysis.loopnest import build_static_loop_nest_graph
from repro.analysis.loops import find_loops
from repro.bench import compile_benchmark
from repro.core.loopinfo import HelixOptions
from repro.core.parallelizer import parallelize_module
from repro.core.selection import SelectionConfig, choose_loops
from repro.frontend.lower import compile_source
from tests.ir_parser import parse_module
from repro.obs.metrics import REGISTRY, metrics_delta
from repro.runtime.interpreter import Interpreter
from repro.runtime import profiler as profiler_mod
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.profiler import (
    ProfileData,
    _ProfilingInterpreter,
    profile_module,
)
from repro.runtime.trace import pack_traces
from tests.helpers import assert_over_budget, run_limited
from tests.test_backend_differential import IRREGULAR_CFG
from tests.test_sched_differential import BASE, SOURCES, _prepare

#: Suite benches given the (expensive) call-by-call comparison.
BENCHES = ("equake", "art")

_pipelines = {}


def _pipeline(name):
    """(original module, transformed module, infos, machine)."""
    cached = _pipelines.get(name)
    if cached is None:
        if name in SOURCES:
            transformed, infos, _executor, _result = _prepare(name)
            cached = (compile_source(SOURCES[name]), transformed, infos, BASE)
        else:
            machine = MachineConfig(cores=6)
            module = compile_benchmark(name, "train")
            selection = choose_loops(
                module,
                profile_module(module, machine),
                SelectionConfig(machine=machine, cores=6),
            )
            transformed, infos = parallelize_module(
                module, selection.chosen, machine
            )
            cached = (module, transformed, infos, machine)
        _pipelines[name] = cached
    return cached


def _parallelize_without_inlining(module):
    """Every top-level loop parallelized, calls in their bodies kept."""
    loop_ids = [
        loop.id
        for func in module.functions.values()
        for loop in find_loops(func)
        if loop.parent is None
    ]
    return parallelize_module(
        module, loop_ids, BASE, HelixOptions(enable_inlining=False)
    )


class _RecordingExecutor(ParallelExecutor):
    """Logs every ``on_block_entry`` call before acting on it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def on_block_entry(self, frame, prev, block):
        self.calls.append(
            (frame.func.name, prev.name if prev else None, block.name)
        )
        super().on_block_entry(frame, prev, block)


def _watched_only(interp, calls):
    """``calls`` filtered to what a declaring interpreter's generated
    code announces: activation entries and watched edges."""
    functions = interp.module.functions
    watched = {
        name: interp.watched_edges(func) for name, func in functions.items()
    }
    return [
        call for call in calls
        if call[1] is None or call[1:] in watched[call[0]]
    ]


def _executor_report(executor, result):
    return (
        result.result.to_dict(),
        {k: s.to_dict() for k, s in result.loop_stats.items()},
        pack_traces(result.traces),
        executor.load_count,
    )


@pytest.mark.parametrize("name", ("cohort_mix", "multi_invocation") + BENCHES)
def test_recording_run_calls_the_hook_only_where_it_acts(name):
    _module, transformed, infos, machine = _pipeline(name)
    auto = _RecordingExecutor(transformed, infos, machine)
    tree = _RecordingExecutor(transformed, infos, machine, backend="tree")
    assert _executor_report(auto, auto.execute()) == _executor_report(
        tree, tree.execute()
    )
    assert len(auto.recording)
    assert auto.calls == _watched_only(auto, tree.calls)
    # A few percent of the boundaries, not a reordering of all of them.
    assert len(auto.calls) < len(tree.calls) / 2


def test_parallelized_loop_under_an_active_invocation_is_ignored():
    """Parallelize main's loop *and* the loop of the kernel it calls
    (inlining off, so the calls survive).  Seven kernel activations run
    under main's active invocation and must leave no trace of their
    own, exactly as under the tree walker; only the final
    ``kernel(0, 99)``, called outside main's loop, records kernel's
    loop."""
    module = compile_source(SOURCES["multi_invocation"])
    transformed, infos = _parallelize_without_inlining(module)
    by_func = {info.func_name: info for info in infos}
    assert set(by_func) == {"main", "kernel"}
    auto = _RecordingExecutor(transformed, infos, BASE)
    tree = _RecordingExecutor(transformed, infos, BASE, backend="tree")
    assert _executor_report(auto, auto.execute()) == _executor_report(
        tree, tree.execute()
    )
    assert auto.calls == _watched_only(auto, tree.calls)
    activations = [c for c in auto.calls if c[0] == "kernel" and c[1] is None]
    assert len(activations) == 8
    recording = auto.recording
    assert [
        recording.invocation(i).loop_id for i in range(len(recording))
    ] == [by_func["main"].loop_id, by_func["kernel"].loop_id]


def test_function_with_nothing_watched_has_no_hook_call():
    _module, transformed, infos, machine = _pipeline("cohort_mix")
    assert {info.func_name for info in infos} == {"kernel"}
    executor = ParallelExecutor(transformed, infos, machine)
    executor.execute()
    sources = {
        key[0]: sfunc.source
        for key, sfunc in executor._superblocks.items()
    }
    assert "__obe(" in sources["kernel"]
    assert "__obe" not in sources["main"]
    assert executor.watched_edges(transformed.functions["main"]) == frozenset()


@pytest.mark.parametrize(
    "name", tuple(sorted(SOURCES)) + ("irregular_cfg",) + BENCHES
)
def test_profile_run_calls_the_hook_only_where_it_acts(name, monkeypatch):
    if name == "irregular_cfg":
        module = parse_module(IRREGULAR_CFG)
    else:
        module = _pipeline(name)[0]
    calls = []
    interps = []
    inner = profiler_mod._ProfilingInterpreter.on_block_entry

    def recording(self, frame, prev, block):
        if not interps or interps[-1] is not self:
            interps.append(self)
            calls.append([])
        calls[-1].append(
            (frame.func.name, prev.name if prev else None, block.name)
        )
        inner(self, frame, prev, block)

    monkeypatch.setattr(
        profiler_mod._ProfilingInterpreter, "on_block_entry", recording
    )
    auto = profile_module(module)
    tree = profile_module(module, backend="tree")
    assert auto.to_dict() == tree.to_dict()
    auto_calls, tree_calls = calls
    assert len(tree_calls) == sum(tree.block_counts.values())
    assert auto_calls == _watched_only(interps[0], tree_calls)
    assert len(auto_calls) < len(tree_calls)
    # The call-count pin: one call per activation, per edge taken into a
    # loop from outside it and per edge taken out of one -- and none for
    # a back edge that leaves no loop, however often it is taken.
    nest = interps[0].nest

    def crossings(func, prev, target):
        return [
            loop for loop in nest.forests[func]
            if (prev in loop.blocks) != (target in loop.blocks)
        ]

    assert len(auto_calls) == sum(
        1 for func, prev, target in tree_calls
        if prev is None or crossings(func, prev, target)
    )
    back_edges = [
        call for call in tree_calls
        if call[1] is not None
        and call[2] in nest.forests[call[0]].by_header
        and not crossings(*call)
    ]
    assert back_edges and not set(back_edges) & set(auto_calls)


def test_profile_of_a_loop_free_function_has_no_hook_call(monkeypatch):
    module = compile_source(
        """
        int f(int n) { if (n > 2) { return n * 2; } return n + 1; }
        void main() { int i; for (i = 0; i < 5; i++) { print(f(i)); } }
        """
    )
    seen = []
    init = profiler_mod._ProfilingInterpreter.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(self)

    monkeypatch.setattr(profiler_mod._ProfilingInterpreter, "__init__", keep)
    data = profile_module(module)
    (interp,) = seen
    sources = {
        key[0]: sfunc.source
        for key, sfunc in interp._superblocks.items()
    }
    assert "__obe" not in sources["f"]
    assert "__obe(" in sources["main"]
    # f's blocks are counted statically, and exactly.
    assert data.to_dict() == profile_module(module, backend="tree").to_dict()
    assert data.block_count("f", module.functions["f"].entry.name) == 5


def _delta(run):
    before = REGISTRY.snapshot()
    run()
    return metrics_delta(before, REGISTRY.snapshot())["counters"]


def test_hook_site_counters_say_how_much_was_observed():
    """``interp.codegen.hook_sites`` / ``hook_sites_elided`` count the
    boundaries compiled with and without their hook call, per function
    an observing class compiles -- again by every executor, which generates its
    own code."""
    _module, transformed, infos, machine = _pipeline("cohort_mix")

    class Everywhere(Interpreter):
        def on_block_entry(self, frame, prev, block):
            pass

    every = _delta(Everywhere(transformed).run)
    assert every["interp.codegen.hook_sites"] > 0
    assert "interp.codegen.hook_sites_elided" not in every

    def record():
        ParallelExecutor(transformed, infos, machine).run()

    cold = _delta(record)
    assert (
        cold["interp.codegen.hook_sites"]
        + cold["interp.codegen.hook_sites_elided"]
        == every["interp.codegen.hook_sites"]
    )
    assert (
        cold["interp.codegen.hook_sites_elided"]
        > cold["interp.codegen.hook_sites"]
        > 0
    )
    again = _delta(record)
    for name in ("functions", "hook_sites", "hook_sites_elided"):
        assert again[f"interp.codegen.{name}"] == cold[f"interp.codegen.{name}"]

    plain = _delta(Interpreter(transformed).run)
    assert not any("hook_sites" in name for name in plain)


# ------------------------------------------------------------- budget edge

#: Hand-written so the block shapes are known.  ``body`` returns from a
#: CALL and falls through (``br``, sole predecessor) into ``mid``, which
#: nobody watches; ``heavy`` is fused behind ``mid`` but skipped on the
#: last iteration, so a chain's linear body is longer than what most of
#: its passes run.  A check that budgeted for the whole remainder of the
#: chain would fail in runs that have the budget to complete.
BUDGET_IR = """
module program
global int @acc[1]

func int bump(int %v.0) {
entry0:
  %t1 = mod %v.0, 3
  %t2 = eq %t1, 0
  cbr %t2 -> three, other
three:
  %t3 = add %v.0, 2
  ret %t3
other:
  %t4 = add %v.0, 1
  ret %t4
}

func void main() {
entry0:
  %t0 = mov 0
  br -> head
head:
  %t1 = lt %t0, 12
  cbr %t1 -> body, done
body:
  %t2 = call @bump %t0
  br -> mid
mid:
  %t3 = loadg @acc, 0
  %t4 = add %t3, %t2
  storeg @acc, 0, %t4
  %t5 = mod %t0, 4
  %t6 = eq %t5, 1
  cbr %t6 -> heavy, step
heavy:
  %t7 = loadg @acc, 0
  %t8 = call @bump %t7
  %t9 = mul %t8, 3
  %t10 = add %t9, 1
  %t11 = mod %t10, 977
  %t12 = mul %t11, 5
  %t13 = add %t12, 2
  %t14 = mod %t13, 991
  %t15 = mul %t14, 7
  %t16 = add %t15, 3
  %t17 = mod %t16, 997
  storeg @acc, 0, %t17
  br -> step
step:
  %t18 = add %t0, 1
  %t0 = mov %t18
  br -> head
done:
  %t19 = loadg @acc, 0
  print %t19
  ret
}
"""


def _profile_state(interp):
    """What a profiling run has collected so far, dead or not: the
    profile ``profile_module`` would derive, without the iteration
    counts it reads off the block counts afterwards."""
    counts = {}
    for func in interp.module.functions.values():
        for name, block in func.blocks.items():
            (unwatched,) = interp.unwatched_entries.get((func.name, name), (0,))
            entries = interp._announced.get(block, 0) + unwatched
            if entries:
                counts[func.name, name] = entries
    data = interp.data
    return (
        counts,
        [profile.to_dict() for _, profile in sorted(data.loops.items())],
        data.func_inclusive_cycles,
        data.func_activations,
        data.dynamic_nesting.to_dict(),
    )


def _recording_state(executor):
    """The invocations recorded so far, and their timing."""
    return (
        {k: s.to_dict() for k, s in executor.replay(BASE).loop_stats.items()},
        pack_traces(executor.recording),
    )


def test_budget_edge_never_leaves_generated_code(monkeypatch):
    """Sweep ``max_instructions`` across the program's exact instruction
    count, profiling and recording.  At and above it a generated-tier
    run completes as the walker's does; below it, it raises under the
    over-budget rule.  Either way the tree walker runs nothing of it."""
    walked = []
    exec_block = Interpreter.exec_block

    def spy(interp, frame, block, *start):
        if interp.backend != "tree":
            walked.append(block.name)
        return exec_block(interp, frame, block, *start)

    monkeypatch.setattr(Interpreter, "exec_block", spy)
    module = parse_module(BUDGET_IR)
    transformed, infos = _parallelize_without_inlining(module)
    assert infos

    def sweep(make, observe, exact):
        for limit in range(exact - 30, exact + 30):
            if limit >= exact:
                generated = run_limited(make, "auto", limit, observe)
                walker = run_limited(make, "tree", limit, observe)
                assert generated[:3] == walker[:3], limit
                assert generated[0] is None
            else:
                assert_over_budget(make, limit, observe)
            assert walked == [], limit

    nest = build_static_loop_nest_graph(module)
    sweep(
        lambda backend, limit: _ProfilingInterpreter(
            module, nest, ProfileData(result=None),
            max_instructions=limit, backend=backend,
        ),
        _profile_state,
        profile_module(module, backend="tree").result.instructions,
    )
    sweep(
        lambda backend, limit: ParallelExecutor(
            transformed, infos, BASE, backend=backend,
            max_instructions=limit,
        ),
        _recording_state,
        ParallelExecutor(
            transformed, infos, BASE, backend="tree"
        ).run().instructions,
    )
