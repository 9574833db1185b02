"""Differential identity: compiled backends vs tree-walker, whole corpus.

The acceptance bar for both compiled backends — the pre-decoded closure
tier and the superblock code-generated tier — is *bit-identical*
observable behavior: output, cycles, instructions and return value must
match the tree-walker on every program in ``examples/`` and the
benchmark suite, with and without profiler instrumentation, and through
the parallel executor.  These tests enforce exactly that.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.bench import benchmark_names, compile_benchmark
from repro.core.parallelizer import parallelize_module
from repro.core.selection import SelectionConfig, choose_loops
from repro.analysis.loopnest import build_static_loop_nest_graph
from repro.frontend import compile_source
from repro.ir.parser import parse_module
from repro.runtime import Interpreter, run_module
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.profiler import (
    ProfileData,
    _ProfilingInterpreter,
    profile_module,
)

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Examples that expose their MiniC program as a module-level SOURCE.
EXAMPLE_FILES = ("quickstart.py", "inspect_transformation.py")

#: Benchmarks given the (expensive) full parallel-pipeline comparison.
EXECUTOR_BENCHES = ("equake", "mcf")

#: The compiled backends, each checked against the tree oracle.
COMPILED_BACKENDS = ("decoded", "superblock")

_modules = {}


def _bench_module(name):
    module = _modules.get(name)
    if module is None:
        module = _modules[name] = compile_benchmark(name, "train")
    return module


def _example_module(filename):
    module = _modules.get(filename)
    if module is None:
        path = EXAMPLES_DIR / filename
        spec = importlib.util.spec_from_file_location(path.stem, path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        module = _modules[filename] = compile_source(example.SOURCE)
    return module


def _assert_sequential_identity(module, backend):
    tree = run_module(module, backend="tree")
    compiled = run_module(module, backend=backend)
    assert tree.to_dict() == compiled.to_dict()


def _assert_profile_identity(module, backend):
    tree = profile_module(module, backend="tree")
    compiled = profile_module(module, backend=backend)
    assert tree.to_dict() == compiled.to_dict()


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("bench", benchmark_names())
def test_benchmark_sequential_identity(bench, backend):
    _assert_sequential_identity(_bench_module(bench), backend)


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("bench", benchmark_names())
def test_benchmark_profile_identity(bench, backend):
    _assert_profile_identity(_bench_module(bench), backend)


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("filename", EXAMPLE_FILES)
def test_example_sequential_identity(filename, backend):
    _assert_sequential_identity(_example_module(filename), backend)


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("filename", EXAMPLE_FILES)
def test_example_profile_identity(filename, backend):
    _assert_profile_identity(_example_module(filename), backend)


#: Control flow the MiniC frontend never emits, for the profiler's
#: watched set (edges entering a loop from outside or leaving one): ``done``
#: is reached from inside the nested loop, leaving two loops on one
#: edge; ``join`` is the break target of both inner loops; ``rec``
#: recurses from the outer loop's body, so one loop is active in several
#: activations at once.  ``walk(9)`` takes every edge.
IRREGULAR_CFG = """
module program

func int walk(int %n.0) {
entry0:
  %t1 = mov 0
  %t2 = mov 0
  br -> outer
outer:
  %t3 = lt %t1, %n.0
  cbr %t3 -> obody, done
obody:
  %t4 = mov 0
  br -> inner
inner:
  %t5 = lt %t4, 4
  cbr %t5 -> ibody, second
ibody:
  %t6 = add %t1, %t4
  %t7 = add %t2, %t6
  %t2 = mov %t7
  %t8 = eq %t6, 11
  cbr %t8 -> done, icheck
icheck:
  %t9 = eq %t4, %t1
  cbr %t9 -> join, istep
istep:
  %t10 = add %t4, 1
  %t4 = mov %t10
  br -> inner
second:
  %t11 = mov 0
  br -> jhead
jhead:
  %t12 = lt %t11, 3
  cbr %t12 -> jbody, join
jbody:
  %t13 = add %t11, 4
  %t14 = eq %t13, %t1
  cbr %t14 -> join, jstep
jstep:
  %t15 = add %t11, 1
  %t11 = mov %t15
  br -> jhead
join:
  %t16 = eq %t1, 0
  cbr %t16 -> rec, ostep
rec:
  %t17 = sub %n.0, 1
  %t18 = call @walk %t17
  %t19 = add %t2, %t18
  %t2 = mov %t19
  br -> ostep
ostep:
  %t20 = add %t1, 1
  %t1 = mov %t20
  br -> outer
done:
  ret %t2
}

func void main() {
entry0:
  %t0 = call @walk 9
  print %t0
  ret
}
"""


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_irregular_cfg_profile_identity(backend):
    module = parse_module(IRREGULAR_CFG)
    _assert_profile_identity(module, backend)
    profile = profile_module(module, backend=backend)
    walk = module.functions["walk"]
    assert all(profile.block_count("walk", name) for name in walk.blocks)
    assert profile.func_activations["walk"] == 10


def test_irregular_cfg_watched_set():
    module = parse_module(IRREGULAR_CFG)
    interp = _ProfilingInterpreter(
        module,
        build_static_loop_nest_graph(module),
        ProfileData(module=module, result=None),
    )
    assert interp.watched_edges(module.functions["walk"]) == {
        # into a loop from outside it
        ("entry0", "outer"), ("obody", "inner"), ("second", "jhead"),
        # out of one loop, or (ibody -> done) of two on one edge
        ("outer", "done"), ("ibody", "done"), ("inner", "second"),
        ("icheck", "join"), ("jhead", "join"), ("jbody", "join"),
    }
    # The back edges (istep -> inner, jstep -> jhead, ostep -> outer)
    # leave no loop and are not declared.
    assert interp.watched_edges(module.functions["main"]) == frozenset()


class _HookRecorder(Interpreter):
    """The hooked matrix's instrumented interpreter.

    Counts loads and folds every ``on_block_entry`` call -- order and
    arguments -- into a running digest, so two variants agree on the
    digest iff they made byte-for-byte the same hook call sequence
    without the test holding millions of tuples.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.count_loads = True
        self.blocks_entered = 0
        self.entry_digest = 0

    def on_block_entry(self, frame, prev, block):
        self.blocks_entered += 1
        self.entry_digest = hash(
            (self.entry_digest, prev.name if prev is not None else None,
             block.name)
        )


def _hooked_run(module, backend):
    interp = _HookRecorder(module, backend=backend)
    result = interp.run()
    return (
        result.to_dict(),
        interp.load_count,
        interp.blocks_entered,
        interp.entry_digest,
    )


@pytest.mark.parametrize("bench", benchmark_names())
def test_benchmark_hooked_instrumentation_identity(bench):
    """Hooked superblock tier vs hooked decoded variant vs tree walker.

    All three must agree on the run result *and* on the instrumentation
    they produced: total loads counted and the exact ``on_block_entry``
    call sequence (prev/block arguments in order).
    """
    module = _bench_module(bench)
    tree = _hooked_run(module, "tree")
    assert _hooked_run(module, "decoded") == tree
    assert _hooked_run(module, "superblock") == tree


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("bench", EXECUTOR_BENCHES)
def test_parallel_executor_identity(bench, backend):
    machine = MachineConfig(cores=6)
    module = _bench_module(bench)
    profile = profile_module(module, machine)
    selection = choose_loops(
        module, profile, SelectionConfig(machine=machine, cores=6)
    )
    transformed, infos = parallelize_module(
        module, selection.chosen, machine
    )
    tree = ParallelExecutor(
        transformed, infos, machine, backend="tree"
    ).execute()
    compiled = ParallelExecutor(
        transformed, infos, machine, backend=backend
    ).execute()
    assert tree.result.to_dict() == compiled.result.to_dict()
    assert tree.cycles == compiled.cycles
    assert {k: s.to_dict() for k, s in tree.loop_stats.items()} == {
        k: s.to_dict() for k, s in compiled.loop_stats.items()
    }
    assert len(tree.traces) == len(compiled.traces)


def _trace_bytes(trace):
    """Every stored field of one compact trace, columns as bytes."""
    return (
        trace.loop_id,
        trace.start_cycles,
        trace.end_cycles,
        trace.loads,
        trace.it_start.tobytes(),
        trace.it_end.tobytes(),
        trace.ev_off.tobytes(),
        trace.ev_kind.tobytes(),
        trace.ev_dep.tobytes(),
        trace.ev_at.tobytes(),
        trace.ev_words.tobytes(),
    )


_parallelized = {}


def _parallel_setup(bench, machine):
    entry = _parallelized.get(bench)
    if entry is None:
        module = _bench_module(bench)
        profile = profile_module(module, machine)
        selection = choose_loops(
            module, profile, SelectionConfig(machine=machine, cores=6)
        )
        entry = _parallelized[bench] = parallelize_module(
            module, selection.chosen, machine
        )
    return entry


@pytest.mark.parametrize("bench", benchmark_names())
def test_parallel_executor_recorded_traces_identity(bench):
    """Both compiled tiers record byte-identical invocation traces.

    The executor's record path runs on the hooked engines (it observes
    block entries and sync/transfer instructions), so this pins the
    hooked superblock tier to the decoded hooked variant across the
    whole corpus: results, cycles and every column of every recorded
    trace must match exactly.
    """
    machine = MachineConfig(cores=6)
    transformed, infos = _parallel_setup(bench, machine)
    outcomes = {}
    for backend in COMPILED_BACKENDS:
        outcomes[backend] = ParallelExecutor(
            transformed, infos, machine, backend=backend
        ).execute()
    decoded, superblock = outcomes["decoded"], outcomes["superblock"]
    assert decoded.result.to_dict() == superblock.result.to_dict()
    assert decoded.cycles == superblock.cycles
    assert len(decoded.traces) == len(superblock.traces)
    for left, right in zip(decoded.traces, superblock.traces):
        assert _trace_bytes(left) == _trace_bytes(right)
