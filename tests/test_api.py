"""End-to-end tests of the public API."""

import pytest

from repro import MachineConfig, compile_minic, parallelize_and_run
from repro.core.loopinfo import HelixOptions
from repro.evaluation.runner import EvaluationRunner, PipelineRun
from repro.runtime.interpreter import run_module
from repro.runtime.machine import PrefetchMode

PROGRAM = """
int data[128];
int total;
void main() {
    int i;
    for (i = 0; i < 128; i++) {
        int k = 0;
        int f = 0;
        while (k < 25) { f = f + (k ^ i) * 3; k++; }
        data[i] = f;
    }
    for (i = 0; i < 128; i++) { total = (total + data[i]) % 65521; }
    print(total);
}
"""


class TestParallelizeAndRun:
    def test_end_to_end(self):
        module = compile_minic(PROGRAM)
        result = parallelize_and_run(module, MachineConfig(cores=6))
        assert isinstance(result, PipelineRun)
        assert result.output_matches
        assert result.speedup > 1.5
        assert result.chosen
        # One parallelized loop per chosen loop, in order.
        assert result.chosen == [info.loop_id for info in result.infos]

    def test_speedup_grows_with_cores(self):
        module = compile_minic(PROGRAM)
        two = parallelize_and_run(module, MachineConfig(cores=2))
        six = parallelize_and_run(module, MachineConfig(cores=6))
        assert six.speedup > two.speedup

    def test_explicit_loop_ids_skip_selection(self):
        module = compile_minic(PROGRAM)
        from repro.analysis.loops import find_loops

        loop = next(
            l for l in find_loops(module.functions["main"]) if l.parent is None
        )
        result = parallelize_and_run(module, loop_ids=[loop.id])
        assert result.selection is None
        assert result.chosen == [loop.id]
        assert result.output_matches

    def test_loop_stats_accessible(self):
        module = compile_minic(PROGRAM)
        result = parallelize_and_run(module)
        stats = result.parallel.loop_stats
        assert stats
        for s in stats.values():
            assert s.iterations > 0

    def test_train_module_used_for_profiling(self, monkeypatch):
        from repro.evaluation import runner as runner_mod

        profiled = []

        def profile_module(module, machine):
            profiled.append((module, real(module, machine)))
            return profiled[-1][1]

        real = runner_mod.profile_module
        monkeypatch.setattr(runner_mod, "profile_module", profile_module)
        ref = compile_minic(PROGRAM)
        train = compile_minic(PROGRAM.replace("128", "32"))
        result = parallelize_and_run(ref, train_module=train)
        assert result.output_matches
        [(module, profile)] = profiled
        assert module is train
        # The profile measured the smaller training input.
        assert profile.result.instructions < result.sequential.instructions

    def test_options_forwarded(self):
        module = compile_minic(PROGRAM)
        options = HelixOptions(enable_signal_optimization=False)
        result = parallelize_and_run(module, options=options)
        assert result.infos
        for info in result.infos:
            assert info.options.enable_signal_optimization is False

    def test_successive_programs_under_one_name_get_their_own_output(self):
        first = compile_minic(PROGRAM)
        second = compile_minic(PROGRAM.replace("% 65521", "% 4093"))
        assert first.name == second.name == "program"
        outputs = []
        for module in (first, second):
            result = parallelize_and_run(module, MachineConfig(cores=4))
            assert result.parallel.result.output == run_module(module).output
            outputs.append(result.parallel.result.output)
        assert outputs[0] != outputs[1]


class TestHeldPrograms:
    """A runner runs a program that is not a bench under a name."""

    def test_edited_program_gets_new_profile_and_plan_keys(self, tmp_path):
        def stored(source):
            runner = EvaluationRunner(MachineConfig(cores=4), cache=tmp_path)
            runner.hold("prog", compile_minic(source))
            assert runner.pipeline("prog").output_matches
            return {
                kind: {path.name for path in (tmp_path / kind).iterdir()}
                for kind in ("profile", "plan")
            }

        first = stored(PROGRAM)
        assert stored(PROGRAM) == first
        edited = stored(PROGRAM.replace("k < 25", "k < 26"))
        for kind in ("profile", "plan"):
            assert len(first[kind]) == 1
            assert len(edited[kind]) == 2 and first[kind] < edited[kind]

    def test_a_name_holds_one_program(self):
        runner = EvaluationRunner(MachineConfig(cores=4))
        module, other = compile_minic(PROGRAM), compile_minic(PROGRAM)
        runner.hold("prog", module)
        runner.hold("prog", module)
        with pytest.raises(ValueError):
            runner.hold("prog", other)
        with pytest.raises(ValueError):
            runner.hold("prog", module, train=other)
        assert runner.module("prog", "ref") is module
        assert runner.module("prog", "train") is module

    def test_a_program_named_like_a_bench_never_aliases_it(self):
        runner = EvaluationRunner(MachineConfig(cores=4))
        module = compile_minic(PROGRAM, name="gzip")
        runner.hold("gzip", module)
        assert runner.module("gzip", "ref") is module
        assert runner.artifacts.modules == {}
        bench = EvaluationRunner(MachineConfig(cores=4))
        assert runner._key(
            "profile", "gzip", machine=runner.machine
        ) != bench._key("profile", "gzip", machine=bench.machine)


class TestMachineVariants:
    def test_prefetch_mode_affects_timing_not_output(self):
        module = compile_minic(PROGRAM)
        runs = {}
        for mode in (PrefetchMode.NONE, PrefetchMode.IDEAL):
            result = parallelize_and_run(
                module, MachineConfig(cores=6, prefetch_mode=mode)
            )
            assert result.output_matches
            assert result.executor.machine.prefetch_mode is mode
            runs[mode] = result.parallel.cycles
        assert runs[PrefetchMode.IDEAL] <= runs[PrefetchMode.NONE]

    def test_smt_disabled_falls_back_to_pull(self):
        module = compile_minic(PROGRAM)
        result = parallelize_and_run(
            module, MachineConfig(cores=4, smt=False)
        )
        assert result.output_matches


def test_import_repro_leaves_the_runner_and_the_daemon_out():
    """``import repro`` loads no other module: its quickstart names are
    imported when first read, and an unknown name is still an
    ``AttributeError``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
            "from repro import compile_minic, parallelize_and_run, MachineConfig\n"
            "assert compile_minic.__module__ == 'repro.api'\n"
            "assert parallelize_and_run.__module__ == 'repro.api'\n"
            "assert MachineConfig.__module__ == 'repro.runtime.machine'\n"
            "try:\n"
            "    repro.no_such_name\n"
            "except AttributeError as error:\n"
            "    print(error)\n",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert loaded == [
        "['repro']",
        "module 'repro' has no attribute 'no_such_name'",
    ]


def test_the_evaluation_runner_leaves_the_service_out():
    """The runner reports progress through ``repro.obs.metrics``, so a
    suite process or a pool worker never loads the service layer."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.evaluation.runner; print(sorted("
            "m for m in sys.modules if m.startswith('repro.service')))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert loaded == "[]"
