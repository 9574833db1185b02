"""Tests for the versioned analysis manager.

Three layers of guarantees:

* the version protocol -- every mutating API and pass bumps the version
  of the IR it touches, and function bumps reach the owning module;
* the caching contract -- repeated requests hit, mutations invalidate,
  and a stale result is never served (checked property-style against
  fresh recomputation under random interleavings);
* the migration -- the managed pipeline is byte-identical to the
  recompute-every-request legacy path, while running the whole-module
  analyses at most once per mutation.
"""

import json
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro import MachineConfig, compile_minic
from repro.analysis.cfg import CFGView
from repro.analysis.loops import find_loops
from repro.analysis.manager import AnalysisManager
from repro.core.loopinfo import HelixOptions
from repro.evaluation.runner import EvaluationRunner
from repro.ir import BasicBlock, Instruction, Opcode
from repro.ir.module import clone_module
from repro.ir.printer import module_to_str
from repro.ir.types import Type
from repro.transform.inline import inline_call
from repro.transform.normalize import normalize_loop

from tests.helpers import build_cfg

PROGRAM = """
int total;
void main() {
    int i;
    for (i = 0; i < 40; i++) {
        int k = 0;
        int f = 0;
        while (k < 30) { f = f + (k ^ i); k++; }
        total = (total + f) % 9973;
    }
    print(total);
}
"""

CALL_PROGRAM = """
int acc;
int bump(int x) { return x * 3 + 1; }
void main() {
    int i;
    for (i = 0; i < 25; i++) {
        acc = (acc + bump(i)) % 1009;
    }
    print(acc);
}
"""


def compile_program(source=PROGRAM):
    return compile_minic(source, name="managed")


def tally(manager, name):
    """The ``analysis:<name>`` row ``manager`` counts into."""
    return manager.stats.tally(f"analysis:{name}")


def redirect_a_branch(func):
    """Point the first two-way branch's second target at its first,
    editing the block in place (no block added or removed), and declare
    the edit through the version protocol."""
    for block in func.blocks.values():
        term = block.terminator
        if term.opcode is Opcode.CBR and term.targets[0] != term.targets[1]:
            block.retarget(term.targets[1], term.targets[0])
            func.bump_version()
            return


class UncachedAnalysisManager(AnalysisManager):
    """Recomputes every request: the pre-manager behavior, kept here as
    the reference side of the differential tests."""

    def get(self, analysis, target, *args):
        start = time.perf_counter()
        result = analysis.compute(self, target, *args)
        self._count_miss(analysis.name, time.perf_counter() - start)
        return result


# ---------------------------------------------------------------- versions


class TestVersionProtocol:
    def test_structural_apis_bump_function_and_module(self):
        module = compile_program()
        func = module.functions["main"]
        fv, mv = func.version, module.version

        block = func.new_block("probe")
        block.append(Instruction(Opcode.RET))
        assert func.version > fv and module.version > mv

        fv, mv = func.version, module.version
        extra = BasicBlock("probe_extra")
        extra.append(Instruction(Opcode.RET))
        func.add_block(extra)
        assert func.version > fv and module.version > mv

        fv = func.version
        func.remove_block("probe_extra")
        assert func.version > fv

        fv = func.version
        func.add_local_array("probe_arr", Type.INT, 4)
        assert func.version > fv

        fv = func.version
        func.set_entry(func.entry.name)
        assert func.version > fv

    def test_add_global_bumps_module(self):
        module = compile_program()
        mv = module.version
        module.add_global("probe_g", Type.INT, 1)
        assert module.version > mv

    def test_clone_is_independent(self):
        module = compile_program()
        clone = clone_module(module)
        assert clone.functions["main"]._module is clone
        mv = module.version
        clone.functions["main"].bump_version()
        assert module.version == mv

    def test_inline_bumps_caller(self):
        module = compile_minic(CALL_PROGRAM, name="callprog")
        main = module.functions["main"]
        call = next(
            i for i in main.instructions() if i.opcode is Opcode.CALL
        )
        fv, mv = main.version, module.version
        inline_call(module, main, call)
        assert main.version > fv and module.version > mv

    def test_normalize_bumps(self):
        # Two outside predecessors of the header: normalization must
        # create a preheader, mutating the function.
        func = build_cfg(
            {
                "A": ("B", "C"),
                "B": ("H",),
                "C": ("H",),
                "H": ("L", "X"),
                "L": ("H",),
                "X": (),
            }
        )
        loop = next(
            l for l in find_loops(func) if l.header == "H"
        )
        fv = func.version
        normalize_loop(func, loop)
        assert func.version > fv


# ---------------------------------------------------------------- caching


class TestCachingContract:
    def test_repeated_requests_hit(self):
        module = compile_program()
        func = module.functions["main"]
        am = AnalysisManager()
        assert am.cfg(func) is am.cfg(func)
        assert am.loops(func) is am.loops(func)
        assert am.dependence(module) is am.dependence(module)
        # Dependent analyses (loops, dominators) pull the CFG through the
        # cache too, so hits accumulate -- but it computes exactly once.
        assert tally(am, "cfg").memory_hits >= 1
        assert tally(am, "cfg").computes == 1

    def test_mutation_invalidates(self):
        module = compile_program()
        func = module.functions["main"]
        am = AnalysisManager()
        before = am.cfg(func)
        dep_before = am.dependence(module)
        func.new_block("inv_probe").append(Instruction(Opcode.RET))
        after = am.cfg(func)
        assert after is not before
        assert "inv_probe0" in after.succs or any(
            name.startswith("inv_probe") for name in after.succs
        )
        assert am.dependence(module) is not dep_before
        assert tally(am, "cfg").invalidations == 1
        assert tally(am, "dependence").invalidations == 1

    def test_function_scope_survives_other_function_edits(self):
        module = compile_minic(CALL_PROGRAM, name="callprog")
        main = module.functions["main"]
        bump = module.functions["bump"]
        am = AnalysisManager()
        main_cfg = am.cfg(main)
        am.dependence(module)
        bump.new_block("side_probe").append(Instruction(Opcode.RET))
        # Function-scoped result for the untouched function survives...
        assert am.cfg(main) is main_cfg
        # ...while the module-scoped analysis recomputes.
        assert tally(am, "dependence").invalidations == 0
        am.dependence(module)
        assert tally(am, "dependence").invalidations == 1

    def test_uncached_manager_always_recomputes(self):
        module = compile_program()
        func = module.functions["main"]
        am = UncachedAnalysisManager()
        assert am.cfg(func) is not am.cfg(func)
        assert tally(am, "cfg").memory_hits == 0
        assert tally(am, "cfg").computes == 2

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=st.lists(st.integers(0, 3), min_size=1, max_size=12))
    @example(ops=[2, 3, 1, 2, 3])
    def test_stale_results_never_served(self, ops):
        """Under any interleaving of queries and mutations, a managed
        query always equals a fresh recomputation."""
        module = compile_program()
        func = module.functions["main"]
        am = AnalysisManager()
        probes = 0
        for op in ops:
            if op == 0:  # mutate: grow the CFG
                block = func.new_block(f"h{probes}_")
                block.append(Instruction(Opcode.RET))
                probes += 1
            elif op == 1:  # mutate in place: fold a branch onto one target
                redirect_a_branch(func)
            elif op == 2:  # query CFG
                assert am.cfg(func).succs == CFGView(func).succs
            else:  # query loop forest
                got = {
                    (l.header, frozenset(l.blocks)) for l in am.loops(func)
                }
                want = {
                    (l.header, frozenset(l.blocks)) for l in find_loops(func)
                }
                assert got == want


# ---------------------------------------------------------------- migration


def dependence_signature(manager, module):
    """Order-independent digest of every loop's dependence set.

    Endpoints are identified by (block, index) position, not uid --
    uids are allocated process-globally, so two separately compiled
    copies of the same program never share them.
    """
    analysis = manager.dependence(module)
    digest = []
    for name in sorted(module.functions):
        func = module.functions[name]
        position = {
            instr.uid: (block.name, i)
            for block in func.blocks.values()
            for i, instr in enumerate(block.instructions)
        }
        for loop in manager.loops(func):
            deps = analysis.loop_dependences(func, loop)
            digest.append(
                (
                    name,
                    loop.header,
                    sorted(
                        tuple(sorted(position[e.uid] for e in dep.endpoints()))
                        for dep in deps
                    ),
                )
            )
    return sorted(digest)


class TestDifferential:
    @pytest.mark.parametrize("source", [PROGRAM, CALL_PROGRAM])
    def test_managed_pipeline_matches_legacy(self, source):
        machine = MachineConfig(cores=4)

        def run(make_manager):
            module = compile_minic(source, name="diff")
            runner = EvaluationRunner(machine)
            runner.analysis = make_manager(stats=runner.stats)
            runner.hold(module.name, module)
            result = runner.pipeline(
                module.name, prefetch=machine.prefetch_mode
            )
            return module, runner.analysis, result

        ref_mod, ref_am, legacy = run(UncachedAnalysisManager)
        new_mod, new_am, managed = run(AnalysisManager)

        assert legacy.chosen == managed.chosen
        assert module_to_str(legacy.transformed) == module_to_str(
            managed.transformed
        )
        assert legacy.sequential.output == managed.sequential.output
        assert legacy.parallel.output == managed.parallel.output
        assert dependence_signature(ref_am, ref_mod) == dependence_signature(
            new_am, new_mod
        )

    def test_module_analyses_run_once_per_mutation(self):
        """callgraph/points_to compute exactly once per module mutation
        over the whole pipeline: cold once per module (the reference
        module and its transformed clone), plus once per invalidation."""
        module = compile_program()
        runner = EvaluationRunner(MachineConfig(cores=4))
        runner.hold(module.name, module)
        selection = runner.selection(module.name)
        _, infos = runner.transform(
            module.name, selection.chosen, runner.machine, HelixOptions()
        )
        assert infos, "test program must parallelize a loop"
        manager = runner.analysis
        for name in ("callgraph", "points_to"):
            counter = tally(manager, name)
            assert counter.computes == counter.invalidations + 2, name
        # Function-scoped analyses are shared across many call sites.
        assert tally(manager, "cfg").memory_hits > 0

    def test_helix_run_counter_law(self, tiny_bench):
        """Same law over a full helix_run through the EvaluationRunner."""
        runner = EvaluationRunner(MachineConfig(cores=4))
        run = runner.helix_run(tiny_bench)
        assert run.infos
        for name in ("callgraph", "points_to"):
            counter = tally(runner.analysis, name)
            assert counter.computes == counter.invalidations + 2, name
        # The manager counts straight into the runner's own table.
        assert runner.analysis.stats is runner.stats
        row = runner.stats.as_dict()["analysis:points_to"]
        assert row["computes"] == row["invalidations"] + 2


# ---------------------------------------------------------------- surfacing


@pytest.fixture()
def tiny_bench(monkeypatch):
    from repro.bench import suite as bench_suite
    from repro.evaluation import runner as runner_mod

    spec = bench_suite.BenchmarkSpec(
        "tinymgr", "synthetic manager test bench", lambda scale: PROGRAM,
        1.0, "test",
    )
    monkeypatch.setitem(bench_suite.BENCHMARKS, "tinymgr", spec)
    monkeypatch.setattr(runner_mod, "benchmark_names", lambda: ["tinymgr"])
    return "tinymgr"


class TestObservability:
    def test_compile_pass_stats(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "prog.mc"
        path.write_text(PROGRAM)
        assert main(["compile", str(path), "--pass-stats"]) == 0
        out = capsys.readouterr().out
        assert "chosen loops" in out
        assert "Analysis manager statistics" in out
        assert "dependence" in out and "points_to" in out

    def test_suite_report_contains_analyses(self, tiny_bench, tmp_path,
                                            capsys):
        from repro.cli import main

        report_path = tmp_path / "suite.json"
        argv = [
            "suite", "--cores", "4", "--stats",
            "--report", str(report_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Analysis manager statistics" in out
        assert "invalidated" in out
        report = json.loads(report_path.read_text())
        assert "analyses" in report
        assert "dependence" in report["analyses"]
        dep = report["analyses"]["dependence"]
        assert dep["computes"] >= 1
        assert "invalidations" in dep
