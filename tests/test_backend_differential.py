"""Differential identity: generated code vs tree-walker, whole corpus.

The acceptance bar for the superblock code-generated tier is
*bit-identical* observable behavior: output, cycles, instructions and
return value must match the tree-walker on every program in
``examples/`` and the benchmark suite, with and without profiler
instrumentation, and through the parallel executor.

Every comparison also runs over budget, in the ``fallback`` lane (named
for the hand-over to the tree walker it once exercised; generated code
now raises the limit itself): with a budget one instruction short of
what the run needs, the generated code completes ``main`` and
``Interpreter.run``'s final check raises the walker's fault, with the
output, cycles, loads and traces of the complete run in place -- the
state the walker raises in, on the run's last instruction.

Recording every bench on the walker is slow, so the recorded traces of
the whole suite are pinned by ``tests/data/recording_traces.json`` (per
bench, one digest over every column of every trace and one over the
stored block :func:`~repro.runtime.trace.pack_traces` writes, generated by
``python -m tests.test_backend_differential BACKEND`` on the commit
that still had a second compiled tier, and equal there under it, the
generated tier and the walker); the walker itself records
:data:`EXECUTOR_BENCHES` only.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.bench import benchmark_names, compile_benchmark
from repro.core.parallelizer import parallelize_module
from repro.core.selection import SelectionConfig, choose_loops
from repro.analysis.loopnest import build_static_loop_nest_graph
from repro.frontend.lower import compile_source
from tests.ir_parser import parse_module
from repro.obs.metrics import REGISTRY, metrics_delta
from repro.runtime.interpreter import (
    ExecutionLimitExceeded,
    Interpreter,
    run_module,
)
from repro.runtime.interpreter import DEFAULT_MAX_INSTRUCTIONS
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.profiler import (
    ProfileData,
    _ProfilingInterpreter,
    profile_module,
)
from repro.runtime.trace import pack_traces

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
TRACES_PATH = Path(__file__).parent / "data" / "recording_traces.json"

#: Examples that expose their MiniC program as a module-level SOURCE.
EXAMPLE_FILES = ("quickstart.py", "inspect_transformation.py")

#: Benchmarks given the (expensive) full parallel-pipeline comparison.
EXECUTOR_BENCHES = ("equake", "mcf")

#: The compiled backends, each checked against the tree oracle.
COMPILED_BACKENDS = ("superblock",)

#: The compiled backends, then the over-budget lane (see the docstring).
LANES = COMPILED_BACKENDS + ("fallback",)

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


_tree_runs = {}


def _tree_run(kind, module, run):
    """``run()`` on the walker, once per module and kind (the entry
    keeps the module alive, so its id is never reused)."""
    key = (kind, id(module))
    if key not in _tree_runs:
        _tree_runs[key] = (module, run())
    return _tree_runs[key][1]


def _assert_raises_at_the_end(interp, tree, load_count=0):
    """``interp`` holds a budget one short of the walker's ``tree`` run:
    it must fire the limit after the last instruction with everything
    else already done."""
    limit = tree.instructions - 1
    assert interp.max_instructions == limit
    with pytest.raises(ExecutionLimitExceeded) as excinfo:
        interp.run()
    assert (
        str(excinfo.value),
        interp.output,
        interp.instructions,
        interp.cycles,
        interp.load_count,
    ) == (
        f"exceeded {limit} instructions",
        tree.output,
        tree.instructions,
        tree.cycles,
        load_count,
    )


def _assert_sequential_identity(module, lane):
    tree = _tree_run(
        "sequential", module, lambda: run_module(module, backend="tree")
    )
    if lane == "fallback":
        _assert_raises_at_the_end(
            Interpreter(module, max_instructions=tree.instructions - 1), tree
        )
    else:
        before = REGISTRY.snapshot()
        result = run_module(module, backend=lane)
        counters = metrics_delta(before, REGISTRY.snapshot())["counters"]
        assert result.to_dict() == tree.to_dict()
        # The whole run stayed in generated code: one selection of the
        # tier and none of the walker.
        assert (
            counters.get("interp.backend.superblock", 0),
            counters.get("interp.backend.tree", 0),
        ) == (1, 0)


def _assert_profile_identity(module, lane):
    """Returns the walker's profile of ``module``."""
    tree = _tree_run(
        "profile", module, lambda: profile_module(module, backend="tree")
    )
    if lane == "fallback":
        interp = _ProfilingInterpreter(
            module,
            build_static_loop_nest_graph(module),
            ProfileData(result=None),
            max_instructions=tree.result.instructions - 1,
        )
        _assert_raises_at_the_end(interp, tree.result)
    else:
        compiled = profile_module(module, backend=lane)
        assert compiled.to_dict() == tree.to_dict()
    return tree


@pytest.mark.parametrize("backend", LANES)
@pytest.mark.parametrize("bench", benchmark_names())
def test_benchmark_sequential_identity(bench, backend):
    _assert_sequential_identity(_bench_module(bench), backend)


@pytest.mark.parametrize("backend", LANES)
@pytest.mark.parametrize("bench", benchmark_names())
def test_benchmark_profile_identity(bench, backend):
    _assert_profile_identity(_bench_module(bench), backend)


@pytest.mark.parametrize("backend", LANES)
@pytest.mark.parametrize("filename", EXAMPLE_FILES)
def test_example_sequential_identity(filename, backend):
    _assert_sequential_identity(_example_module(filename), backend)


@pytest.mark.parametrize("backend", LANES)
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


@pytest.mark.parametrize("backend", LANES)
def test_irregular_cfg_profile_identity(backend):
    module = _modules.get("irregular_cfg")
    if module is None:
        module = _modules["irregular_cfg"] = parse_module(IRREGULAR_CFG)
    profile = _assert_profile_identity(module, backend)
    walk = module.functions["walk"]
    assert all(profile.block_count("walk", name) for name in walk.blocks)
    assert profile.func_activations["walk"] == 10


def test_irregular_cfg_watched_set():
    module = parse_module(IRREGULAR_CFG)
    interp = _ProfilingInterpreter(
        module,
        build_static_loop_nest_graph(module),
        ProfileData(result=None),
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
    """Generated code with hook overrides vs tree walker.

    Both must agree on the run result *and* on the instrumentation they
    produced: total loads counted and the exact ``on_block_entry`` call
    sequence (prev/block arguments in order).
    """
    module = _bench_module(bench)
    assert _hooked_run(module, "superblock") == _hooked_run(module, "tree")


def _trace_bytes(recording):
    """Every stored field of each invocation of ``recording``, columns
    as bytes."""
    rows = []
    for distinct, start, loads in zip(
        recording.trace_distinct, recording.trace_start, recording.trace_loads
    ):
        shape = recording.distinct_shape[distinct]
        rows.append((
            recording.loops[recording.shape_loop[shape]],
            start,
            start + recording.distinct_cycles[distinct],
            loads,
            recording.it_start[distinct].tobytes(),
            recording.it_end[distinct].tobytes(),
            recording.ev_off[shape].tobytes(),
            recording.ev_kind[shape].tobytes(),
            recording.ev_dep[shape].tobytes(),
            recording.ev_at[distinct].tobytes(),
            recording.ev_words[shape].tobytes(),
        ))
    return rows


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


@pytest.mark.parametrize("backend", LANES)
@pytest.mark.parametrize("bench", EXECUTOR_BENCHES)
def test_parallel_executor_identity(bench, backend):
    machine = MachineConfig(cores=6)
    transformed, infos = _parallel_setup(bench, machine)

    def executor(backend, limit=DEFAULT_MAX_INSTRUCTIONS):
        return ParallelExecutor(
            transformed, infos, machine, backend=backend,
            max_instructions=limit,
        )

    def record():
        walker = executor("tree")
        return walker, walker.execute()

    walker, tree = _tree_run("executor", transformed, record)
    if backend == "fallback":
        compiled = executor("auto", walker.instructions - 1)
        _assert_raises_at_the_end(compiled, walker, walker.load_count)
        traces = compiled.recording
    else:
        compiled = executor(backend).execute()
        assert tree.result.to_dict() == compiled.result.to_dict()
        assert tree.cycles == compiled.cycles
        assert {k: s.to_dict() for k, s in tree.loop_stats.items()} == {
            k: s.to_dict() for k, s in compiled.loop_stats.items()
        }
        traces = compiled.traces
    assert len(tree.traces)
    assert _trace_bytes(tree.traces) == _trace_bytes(traces)


def _recording_row(bench, backend):
    """``recording_traces.json``'s row of ``bench`` recorded at 6 cores
    under ``backend``."""
    machine = MachineConfig(cores=6)
    transformed, infos = _parallel_setup(bench, machine)
    run = ParallelExecutor(
        transformed, infos, machine, backend=backend
    ).execute()
    digest = hashlib.sha256()
    for row in _trace_bytes(run.traces):
        digest.update(repr(row).encode())
    packed = json.dumps(pack_traces(run.traces), sort_keys=True)
    return {
        "cycles": run.cycles,
        "packed_sha256": hashlib.sha256(packed.encode()).hexdigest(),
        "result": run.result.to_dict(),
        "sha256": digest.hexdigest(),
        "traces": len(run.traces),
    }


@pytest.fixture(scope="module")
def recording_traces():
    return json.loads(TRACES_PATH.read_text())


@pytest.mark.parametrize("bench", benchmark_names())
def test_parallel_executor_recorded_traces_identity(bench, recording_traces):
    """The generated tier records byte-identical invocation traces.

    The executor's record path runs generated code that observes block
    entries and sync/transfer instructions, so this pins that code
    across the whole corpus: results, cycles and every column of
    every recorded trace must match the committed table.
    """
    assert _recording_row(bench, "auto") == recording_traces[bench]


if __name__ == "__main__":
    print(
        json.dumps(
            {
                bench: _recording_row(bench, sys.argv[1])
                for bench in benchmark_names()
            },
            indent=1,
            sort_keys=True,
        )
    )
