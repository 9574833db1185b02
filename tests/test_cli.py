"""Tests for the CLI."""

import pytest

from repro.cli import main

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


@pytest.fixture()
def program_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROGRAM)
    return str(path)


def test_run_prints_output(program_file, capsys):
    assert main(["run", program_file]) == 0
    out = capsys.readouterr().out
    assert out.strip().isdigit()


def test_ir_dump(program_file, capsys):
    assert main(["ir", program_file]) == 0
    out = capsys.readouterr().out
    assert "func void main" in out
    assert "loadg" in out or "storeg" in out


def test_parallelize_reports_speedup(program_file, capsys):
    assert main(["parallelize", program_file, "--cores", "4"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    assert "output identical:  True" in out


def test_bench_command(capsys):
    assert main(["bench", "mcf", "--cores", "2"]) == 0
    out = capsys.readouterr().out
    assert "mcf" in out and "speedup" in out


def test_a_second_bench_call_reads_the_store(monkeypatch, tmp_path, capsys):
    """``repro bench`` asks a runner on the store ``REPRO_EVAL_CACHE``
    names: a second call prints the first call's text from stored
    artifacts and computes no stage."""
    from repro.evaluation import runner as runner_mod

    runners = []

    class Runner(runner_mod.EvaluationRunner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runners.append(self)

    monkeypatch.setenv("REPRO_EVAL_CACHE", str(tmp_path))
    monkeypatch.setattr(runner_mod, "_default", None)
    monkeypatch.setattr(runner_mod, "EvaluationRunner", Runner)
    assert main(["bench", "mcf", "--cores", "2"]) == 0
    cold = capsys.readouterr().out
    assert main(["bench", "mcf", "--cores", "2"]) == 0
    assert capsys.readouterr().out == cold
    stages = runners[-1].stats.as_dict()
    for stage in (
        "compile", "profile", "sequential", "selection", "transform",
        "execute",
    ):
        assert stages.get(stage, {}).get("computes", 0) == 0, stage
    for stage in ("profile", "sequential", "execute"):
        assert stages[stage]["disk_hits"] == 1, stage


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_trace_is_an_option_not_a_command(capsys):
    """A trace is ``--trace PATH`` on the command that does the work;
    there is no ``trace`` command, and a timeline needs a trace.  A
    daemon job's trace rides on its terminal event, so ``serve`` takes
    no trace directory."""
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "mcf"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'trace'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "mcf", "--sim-timeline"])
    assert excinfo.value.code == 2
    assert "--sim-timeline needs --trace" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--trace-dir", "traces"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --trace-dir" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["4:bogus", "x", "0", "0:matched", ""])
def test_bad_machine_is_a_usage_error(spec, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "mcf", "--trace", "t.json", "--sim-timeline", spec])
    assert excinfo.value.code == 2
    assert f"argument --sim-timeline: {spec!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["suite", "bench", "compile"])
@pytest.mark.parametrize("cores", ["0", "-1", "six"])
def test_bad_core_count_is_a_usage_error(command, cores, program_file,
                                         capsys):
    target = {"suite": [], "bench": ["mcf"], "compile": [program_file]}
    with pytest.raises(SystemExit) as excinfo:
        main([command, *target[command], "--cores", cores])
    assert excinfo.value.code == 2
    assert f"argument --cores: {cores!r}" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["-1", "two", ""])
def test_bad_job_count_is_a_usage_error(jobs, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["suite", "--jobs", jobs])
    assert excinfo.value.code == 2
    assert f"argument --jobs: {jobs!r}" in capsys.readouterr().err


def test_zero_jobs_is_one_per_cpu():
    import os

    from repro.evaluation.parallel_runner import effective_jobs

    assert effective_jobs(0) == max(1, os.cpu_count() or 1)
    assert effective_jobs(3) == 3
    with pytest.raises(ValueError):
        effective_jobs(-1)


def test_suite_cache_stats_report(monkeypatch, tmp_path, capsys):
    import json

    from repro.bench import suite as bench_suite
    from repro.evaluation import runner as runner_mod

    spec = bench_suite.BenchmarkSpec(
        "tinycli", "synthetic CLI test bench", lambda scale: PROGRAM, 1.0, "test"
    )
    monkeypatch.setitem(bench_suite.BENCHMARKS, "tinycli", spec)
    monkeypatch.setattr(runner_mod, "benchmark_names", lambda: ["tinycli"])

    cache_dir = str(tmp_path / "cache")
    report = tmp_path / "suite.json"
    argv = [
        "suite", "--cores", "4", "--cache-dir", cache_dir,
        "--stats", "--report", str(report),
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    out = captured.out
    assert "Figure 9" in out
    assert "Pipeline stage statistics" in out
    # One progress line per bench, though it ran in this process.
    assert "[1] tinycli: " in captured.err
    cold = json.loads(report.read_text())
    assert "tinycli" in cold["speedups"]
    assert cold["stages"]["execute"]["computes"] == 1

    # Warm re-run: identical figure output, all interpretation cached.
    assert main(argv) == 0
    warm_out = capsys.readouterr().out
    warm = json.loads(report.read_text())
    assert warm_out.split("Pipeline")[0] == out.split("Pipeline")[0]
    assert warm["stages"]["execute"]["computes"] == 0
    assert warm["stages"]["execute"]["disk_hits"] == 1
    assert warm["wall_seconds"] < cold["wall_seconds"] * 1.5


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failing_bench_stops_the_suite_with_a_partial_report(
    jobs, monkeypatch, tmp_path, capsys
):
    """A bench whose row raises -- here its program divides by zero --
    ends the suite with exit 1, names the bench and the error, and the
    report keeps the benches that completed, marked interrupted."""
    import json
    import multiprocessing

    from repro.bench import suite as bench_suite
    from repro.evaluation import runner as runner_mod

    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("workers inherit the test benchmark registry via fork")
    faulting = PROGRAM.replace("print(total);", "print(total / (total - total));")
    for name, source in (("tinyok", PROGRAM), ("tinyfault", faulting)):
        spec = bench_suite.BenchmarkSpec(
            name, "synthetic CLI test bench", lambda scale, s=source: s, 1.0,
            "test",
        )
        monkeypatch.setitem(bench_suite.BENCHMARKS, name, spec)
    monkeypatch.setattr(
        runner_mod, "benchmark_names", lambda: ["tinyok", "tinyfault"]
    )

    report = tmp_path / "suite.json"
    argv = [
        "suite", "--cores", "4", "--jobs", jobs,
        "--cache-dir", str(tmp_path / "cache"), "--report", str(report),
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "Figure 9" not in captured.out
    assert (
        "suite failed: tinyfault: RuntimeFault: integer division by zero"
        in captured.err
    )
    partial = json.loads(report.read_text())
    assert partial["interrupted"] is True
    assert [b["bench"] for b in partial["benches"]] == ["tinyok"]
    assert set(partial["speedups"]) == {"tinyok"}
    assert multiprocessing.active_children() == []


def test_bench_trace_writes_valid_perfetto_json(
    monkeypatch, tmp_path, capsys
):
    import json

    from repro.bench import suite as bench_suite
    from repro.evaluation import runner as runner_mod
    from repro.obs import validate_chrome_trace

    spec = bench_suite.BenchmarkSpec(
        "tinytrace", "synthetic trace bench", lambda scale: PROGRAM, 1.0,
        "test",
    )
    monkeypatch.setitem(bench_suite.BENCHMARKS, "tinytrace", spec)
    # A cold store, so the trace has a span for every stage.
    monkeypatch.setenv("REPRO_EVAL_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(runner_mod, "_default", None)

    out_path = tmp_path / "trace.json"
    argv = ["bench", "tinytrace", "--trace", str(out_path), "--sim-timeline"]
    assert main(argv) == 0
    assert f"trace written to {out_path}" in capsys.readouterr().err
    payload = json.loads(out_path.read_text())
    assert validate_chrome_trace(payload) == []
    names = {
        e["name"] for e in payload["traceEvents"] if e["ph"] == "X"
    }
    # Wall-clock spans cover the pipeline end to end...
    for required in (
        "frontend.lower",
        "stage.compile",
        "stage.execute",
        "helix.step1.normalize",
        "helix.step9.version",
        "analysis.dependence",
        "select.choose_loops",
        "exec.parallel",
    ):
        assert required in names, required
    # ...and the simulated timeline has one track per core.
    sim_tids = {
        e["tid"]
        for e in payload["traceEvents"]
        if e.get("cat") == "sim" and e["ph"] == "X"
    }
    assert sim_tids == set(range(6))
    assert payload["otherData"]["metrics"]["counters"]

    # A machine spec replays the recording on that machine instead.
    argv = ["bench", "tinytrace", "--trace", str(out_path),
            "--sim-timeline", "8:matched"]
    assert main(argv) == 0
    payload = json.loads(out_path.read_text())
    assert validate_chrome_trace(payload) == []
    sim_tids = {
        e["tid"]
        for e in payload["traceEvents"]
        if e.get("cat") == "sim" and e["ph"] == "X"
    }
    assert sim_tids == set(range(8))


def test_run_trace_flag(program_file, tmp_path, capsys):
    import json

    from repro.obs import NULL_TRACER, get_tracer, validate_chrome_trace

    out_path = tmp_path / "run.json"
    assert main(["run", program_file, "--trace", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert validate_chrome_trace(payload) == []
    names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
    assert "frontend.lower" in names
    # The scoped tracer was uninstalled on the way out.
    assert get_tracer() is NULL_TRACER


def test_import_loads_neither_networkx_nor_numpy():
    """Every ``repro`` command pays for the modules ``import repro.cli``
    loads: graphs are the in-repo ``DiGraph`` and numpy is imported
    where arrays are built, so a fresh interpreter has neither."""
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
            "import sys, repro.cli; "
            "print(sorted({'networkx', 'numpy'} & set(sys.modules)))",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    assert loaded == "[]"
