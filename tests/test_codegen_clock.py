"""The generated tier's bookkeeping: clock in locals, undefined-register
tests only where a path needs them, created blocks weighted from their
origin.

Generated code charges segments into function locals and moves them to
the interpreter only where someone else may look: every hook, every IR
call, every way out of the activation.  These tests pin that against the
tree walker -- an observer that reads the clock at every such point sees
the same values, a hook that rewrites the clock is honoured, and a dead
interpreter's counters are where they were before the clock moved into
locals -- plus the two compile-time decisions that ride along: which
first reads keep the walker's undefined-register test, and how hot the
dispatch tree believes a block created by the transformation is.
"""

import re

import pytest

from repro.analysis.loops import find_loops
from repro.bench import compile_benchmark
from repro.core.parallelizer import parallelize_module
from repro.core.selection import SelectionConfig, choose_loops
from repro.frontend.lower import compile_source
from tests.ir_parser import parse_module
from repro.obs.metrics import REGISTRY, metrics_delta
from repro.runtime.interpreter import (
    ExecutionLimitExceeded,
    Interpreter,
    RuntimeFault,
)
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.profiler import profile_module
from repro.runtime.trace import pack_traces
from tests.helpers import assert_over_budget
from tests.test_backend_differential import IRREGULAR_CFG
from tests.test_sched_differential import BASE, SOURCES
from tests.test_watched_blocks import _pipeline, _watched_only

# ------------------------------------------------------- what observers read


class _ClockSpy:
    """Mixin: logs ``(point, cycles, instructions, load_count)`` wherever
    the interpreter hands control to code that may read the clock."""

    def _note(self, *point):
        self.log.append(
            (point, self.cycles, self.instructions, self.load_count)
        )

    def on_block_entry(self, frame, prev, block):
        self._note(
            "entry", frame.func.name, prev.name if prev else None, block.name
        )
        super().on_block_entry(frame, prev, block)

    def exec_sync(self, frame, instr):
        self._note("sync")
        super().exec_sync(frame, instr)

    def exec_xfer(self, frame, instr):
        self._note("xfer")
        super().exec_xfer(frame, instr)

    def call_function(self, func, args):
        self._note("call", func.name)
        return super().call_function(func, args)


class _SpyInterpreter(_ClockSpy, Interpreter):
    """Declares nothing, so it is called at every block boundary: every
    block is a segment of its own, and the clock still moves out and
    back around each call."""

    def __init__(self, module, backend):
        super().__init__(module, backend=backend)
        self.count_loads = True
        self.log = []


def _every_edge(func):
    return frozenset(
        (prev, target)
        for prev, block in func.blocks.items()
        for target in block.successor_names()
    )


class _DeclaringSpy(_SpyInterpreter):
    """Declares every edge: called at the same boundaries, by code
    compiled from the declared set instead of the default."""

    def watched_edges(self, func):
        return _every_edge(func)


class _SpyExecutor(_ClockSpy, ParallelExecutor):
    def __init__(self, module, infos, machine, backend):
        super().__init__(module, infos, machine, backend=backend)
        self.log = []


def _final(interp, result):
    return (
        result.output, result.cycles, result.instructions,
        interp.cycles, interp.instructions, interp.load_count,
    )


#: The two lines that move a load-counting function's clock.
_MOVES = (
    "__ic = __i.instructions; __cy = __i.cycles; __lc = __i.load_count",
    "__i.instructions = __ic; __i.cycles = __cy; __i.load_count = __lc",
)


def _charges_the_interpreter(interp):
    """Whether a generated line other than those two names one of the
    interpreter's clock attributes (no function does: every one keeps
    its clock in locals)."""
    return any(
        re.search(r"__i\.(instructions|cycles|load_count)", line)
        for sfunc in interp._superblocks.values()
        for line in sfunc.source.splitlines()
        if line.strip() not in _MOVES
    )


@pytest.mark.parametrize("name", sorted(SOURCES) + ["irregular_cfg"])
def test_every_observation_point_reads_the_walkers_clock(name):
    """No boundary is left out, so the logs are equal entry for entry,
    calls and block entries interleaved, whether the observer declares
    its edges or not."""
    if name == "irregular_cfg":
        module = parse_module(IRREGULAR_CFG)
    else:
        module = _pipeline(name)[1]
    runs = []
    for spy in (
        _DeclaringSpy(module, "auto"),
        _SpyInterpreter(module, "auto"),
        _SpyInterpreter(module, "tree"),
    ):
        runs.append((_final(spy, spy.run()), spy.log))
        if spy.backend == "auto":
            assert not _charges_the_interpreter(spy)
    assert runs[0] == runs[1] == runs[2]
    points = {point[0] for point, *_ in runs[0][1]}
    assert points >= {"entry", "call"}
    if name != "irregular_cfg":
        assert "sync" in points


@pytest.mark.parametrize("name", ("equake", "art"))
def test_recording_run_reads_the_walkers_clock(name):
    """The executor declares the edges it acts on; at those, at every
    sync, transfer and call the generated tier shows it the walker's
    clock, with the unobserved boundaries between them fused."""
    _module, transformed, infos, machine = _pipeline(name)
    runs = []
    for backend in ("auto", "tree"):
        spy = _SpyExecutor(transformed, infos, machine, backend)
        final = _final(spy, spy.run())
        announced = set(
            _watched_only(
                spy,
                [point[1:] for point, *_ in spy.log if point[0] == "entry"],
            )
        )
        log = [
            event for event in spy.log
            if event[0][0] != "entry" or event[0][1:] in announced
        ]
        runs.append((final, log, pack_traces(spy.recording)))
    assert runs[0] == runs[1]
    assert {point[0] for point, *_ in runs[0][1]} >= {"entry", "sync", "call"}


def test_a_hook_that_moves_the_clock_is_honoured():
    """``exec_sync`` adds to ``interp.cycles``: the generated function
    must pick the new value up after the call and carry it from there."""

    class Skewed(Interpreter):
        syncs = 0

        def exec_sync(self, frame, instr):
            self.syncs += 1
            self.cycles += 1000

    class SkewedDeclaring(Skewed):
        def watched_edges(self, func):
            return frozenset()

    transformed = _pipeline("cohort_mix")[1]
    plain = Interpreter(transformed).run()
    totals = set()
    for cls, backend in (
        (SkewedDeclaring, "auto"), (Skewed, "auto"), (Skewed, "tree")
    ):
        interp = cls(transformed, backend=backend)
        result = interp.run()
        assert interp.syncs
        assert result.cycles == plain.cycles + 1000 * interp.syncs
        totals.add((result.cycles, result.instructions, interp.syncs))
    assert len(totals) == 1


# ------------------------------------------------- what a dead run leaves


FAULTS = {
    "oob_load": """
        int a[8];
        void main() {
            int i;
            int s = 0;
            for (i = 0; i < 12; i++) { s = s + a[i]; print(s); }
        }
    """,
    "div_zero": """
        int a[8];
        void main() {
            int i;
            for (i = 0; i < 8; i++) { a[i] = 3 - i; }
            for (i = 0; i < 8; i++) { print(100 / a[i]); }
        }
    """,
    "in_callee": """
        int a[8];
        int pick(int k) { int t = k * 2; return a[t] + k; }
        void main() {
            int i;
            int s = 0;
            for (i = 0; i < 8; i++) { s = s + pick(i); print(s); }
        }
    """,
    "limit": """
        int a[8];
        int pick(int k) { int t = k % 8; return a[t] + k; }
        void main() {
            int i;
            int s = 0;
            for (i = 0; i < 50; i++) { a[i % 8] = s; s = s + pick(i); }
            print(s);
        }
    """,
}

class _CountingLoads(Interpreter):
    """Observes block entries, nothing declared: every block is a
    segment of its own."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.count_loads = True

    def on_block_entry(self, frame, prev, block):
        pass


class _CountingAndDeclaring(_CountingLoads):
    """Observes block entries but watches no edge: segments fused as for
    a class that observes nothing."""

    def watched_edges(self, func):
        return frozenset()


#: (message, cycles, instructions, load_count) of the dead interpreter
#: under each observer, as the generated tier left them while every
#: segment still charged through the interpreter attribute (the parent
#: of the change that moved the clock into locals).  A faulting segment
#: is charged whole, so these run a little ahead of the walker.  The
#: ``limit`` rows are the walker's, at its own instruction; generated
#: code raises at its next budget check, under the over-budget rule.
DEAD_CLOCKS = {
    ("oob_load", Interpreter): (
        "load out of bounds: a[8] (size 8)", 112, 94, 0),
    ("oob_load", _CountingLoads): (
        "load out of bounds: a[8] (size 8)", 109, 91, 9),
    ("oob_load", _CountingAndDeclaring): (
        "load out of bounds: a[8] (size 8)", 112, 94, 9),
    ("div_zero", Interpreter): ("integer division by zero", 191, 107, 0),
    ("div_zero", _CountingLoads): ("integer division by zero", 188, 104, 4),
    ("div_zero", _CountingAndDeclaring): (
        "integer division by zero", 191, 107, 4),
    ("in_callee", Interpreter): (
        "load out of bounds: a[8] (size 8)", 132, 72, 0),
    ("in_callee", _CountingLoads): (
        "load out of bounds: a[8] (size 8)", 132, 72, 5),
    ("in_callee", _CountingAndDeclaring): (
        "load out of bounds: a[8] (size 8)", 132, 72, 5),
    ("limit", Interpreter): ("exceeded 300 instructions", 1212, 301, 0),
    ("limit", _CountingLoads): ("exceeded 300 instructions", 1212, 301, 19),
    ("limit", _CountingAndDeclaring): (
        "exceeded 300 instructions", 1212, 301, 19),
}


def _dead_clock(name, observer, backend):
    interp = observer(
        compile_source(FAULTS[name]),
        backend=backend,
        max_instructions=300 if name == "limit" else None,
    )
    with pytest.raises((RuntimeFault, ExecutionLimitExceeded)) as excinfo:
        interp.run()
    return (
        str(excinfo.value),
        interp.cycles, interp.instructions, interp.load_count,
    )


@pytest.mark.parametrize(
    "name,observer",
    sorted(DEAD_CLOCKS, key=lambda key: (key[0], key[1].__name__)),
)
def test_dead_interpreter_keeps_its_clock(name, observer):
    expected = DEAD_CLOCKS[name, observer]
    walker = _dead_clock(name, observer, "tree")
    if name != "limit":
        assert _dead_clock(name, observer, "auto") == expected
        assert walker[0] == expected[0]
        return
    assert walker == expected
    module = compile_source(FAULTS[name])
    assert_over_budget(
        lambda backend, limit: observer(
            module, backend=backend, max_instructions=limit
        ),
        300,
    )


# ------------------------------------------- undefined-register tests kept


#: ``%t9`` is assigned on the ``set`` path only; ``pick(0)`` reads it
#: unassigned.  The read is the whole last segment (``ret``), so the
#: generated tier has charged exactly what the walker has.
MAYBE_UNDEFINED = """
module program

func int pick(int %c.0) {
entry0:
  %t1 = ne %c.0, 0
  cbr %t1 -> set, skip
set:
  %t9 = add %c.0, 40
  br -> join
skip:
  %t2 = add %c.0, 1
  br -> join
join:
  ret %t9
}

func void main() {
entry0:
  %t0 = call @pick 2
  print %t0
  %t3 = call @pick 0
  print %t3
  ret
}
"""

#: The twin: the assignment hoisted above the branch.
ALWAYS_DEFINED = MAYBE_UNDEFINED.replace(
    "  %t1 = ne %c.0, 0\n", "  %t9 = add %c.0, 40\n  %t1 = ne %c.0, 0\n"
).replace("set:\n  %t9 = add %c.0, 40\n", "set:\n")


def _run_and_sources(text, backend):
    interp = Interpreter(parse_module(text), backend=backend)
    before = REGISTRY.snapshot()
    try:
        outcome = interp.run().output
    except RuntimeFault as exc:
        outcome = str(exc)
    counters = metrics_delta(before, REGISTRY.snapshot())["counters"]
    sources = {
        name: sfunc.source for (name, _), sfunc in interp._superblocks.items()
    }
    return (
        (outcome, list(interp.output), interp.cycles, interp.instructions),
        sources,
        counters,
    )


def test_a_read_some_path_leaves_undefined_keeps_its_test():
    walker, _, _ = _run_and_sources(MAYBE_UNDEFINED, "tree")
    assert walker[0] == "use of undefined register %t9 in pick"
    assert walker[1] == ["42"]
    generated, sources, counters = _run_and_sources(MAYBE_UNDEFINED, "auto")
    assert generated == walker
    assert sources["pick"].count("__undef(") == 1
    assert "__undef(" not in sources["main"]
    assert counters["interp.codegen.undef_checks"] == 1
    assert counters["interp.codegen.undef_checks_elided"] >= 2


def test_the_twin_with_the_assignment_hoisted_has_none():
    walker, _, _ = _run_and_sources(ALWAYS_DEFINED, "tree")
    assert walker[0] == ["42", "40"]
    generated, sources, counters = _run_and_sources(ALWAYS_DEFINED, "auto")
    assert generated == walker
    assert not any("__undef(" in source for source in sources.values())
    assert "interp.codegen.undef_checks" not in counters
    assert counters["interp.codegen.undef_checks_elided"] >= 3


def test_a_function_the_verifier_would_reject_keeps_every_test():
    """A dangling branch target: no CFG to reason over, so every first
    read keeps its test (and the walker's ``KeyError`` still fires)."""
    dangling = ALWAYS_DEFINED.replace("-> set, skip", "-> set, nowhere")
    interp = Interpreter(parse_module(dangling, verify=False))
    with pytest.raises(KeyError):
        interp.run()
    pick = interp.module.functions["pick"]
    source = interp._superblocks[pick.name, pick.version].source
    assert source.count("__undef(") >= 2


# ------------------------------------------ created blocks and their weight


def _dispatch_depths(sfunc):
    """Chain head -> number of ``st <`` tests in front of its arm.

    The dispatch tree's leaves are the arms in ``sfunc.blocks`` order,
    each opening with its budget check at the depth of its leaf: the
    ``if __ic > __limit:`` lines right after a dispatch test (or the
    loop) are those openers, one per arm.
    """
    lines = sfunc.source.splitlines()
    openers = [
        line for prev, line in zip(lines, lines[1:])
        if line.strip() == "if __ic > __limit:"
        and re.fullmatch(r" *(while True|if st < \d+|else):", prev)
    ]
    assert len(openers) == len(sfunc.blocks)
    return {
        head: (len(line) - len(line.lstrip()) - 8) // 4
        for head, line in zip(sfunc.blocks, openers)
    }


@pytest.mark.parametrize("name", ("gzip", "vortex"))
def test_created_blocks_are_weighed_from_their_origin(name):
    machine = MachineConfig(cores=6)
    module = compile_benchmark(name, "train")
    profile = profile_module(module, machine)
    selection = choose_loops(
        module, profile, SelectionConfig(machine=machine, cores=6)
    )
    transformed, infos = parallelize_module(module, selection.chosen, machine)
    assert infos
    executor = ParallelExecutor(
        transformed, infos, machine, block_profile=profile.block_counts
    )
    projected = executor.block_profile
    for info in infos:
        blocks = transformed.functions[info.func_name].blocks
        assert info.par_blocks <= set(info.origin) <= set(blocks)
        assert {info.guard_block, info.par_preheader, *info.exit_stubs} <= set(
            info.origin
        )
        for block, (func_name, source) in info.origin.items():
            # Only blocks of the input module, never another clone.
            assert source in module.functions[func_name].blocks
            assert projected.get((info.func_name, block), 0) == (
                profile.block_counts.get((func_name, source), 0)
            )
    if name == "vortex":
        # The inlining bench: some origin sits in another function.
        assert any(
            func_name != info.func_name
            for info in infos
            for func_name, _ in info.origin.values()
        )
    # What the caller measured stays as given.
    for key, count in profile.block_counts.items():
        assert projected[key] == count

    executor.run()
    # Entries per block of this very program, from a counting run.
    entered = profile_module(transformed, machine).block_counts
    tests = entries = 0
    for (func_name, *_), sfunc in executor._superblocks.items():
        for head, depth in _dispatch_depths(sfunc).items():
            count = entered.get((func_name, head), 0)
            tests += depth * count
            entries += count
    # 8.6 suite-wide while created blocks weighed nothing.
    assert tests / entries < 4.5


def test_blocks_step_1_had_to_add_trace_back_to_the_input_too():
    """Two back edges (``continue`` in a ``while``) make Step 1 add a
    unified latch, which Step 9 then clones: both name a block the
    input module has, not each other."""
    module = compile_source(
        """
        int out;
        void main() {
            int i = 0;
            int acc = 0;
            while (i < 20) {
                i = i + 1;
                if (i % 3 == 0) { continue; }
                acc = acc + i;
            }
            out = acc;
            print(out);
        }
        """
    )
    loop = next(
        loop for loop in find_loops(module.functions["main"])
        if loop.parent is None
    )
    assert len(loop.latches) == 2
    transformed, (info,) = parallelize_module(module, [loop.id], BASE)
    added = set(transformed.functions["main"].blocks) - set(
        module.functions["main"].blocks
    )
    assert set(info.origin) == added
    assert any(name.startswith("latch") for name in added)
    for func_name, source in info.origin.values():
        assert source in module.functions[func_name].blocks
    assert Interpreter(transformed).run().output == Interpreter(
        module
    ).run().output
