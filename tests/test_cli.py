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


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("spec", ["4:bogus", "x", "0", "0:matched", ""])
def test_bad_machine_is_a_usage_error(spec, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "mcf", "--machine", spec])
    assert excinfo.value.code == 2
    assert f"argument --machine: {spec!r}" in capsys.readouterr().err


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


def test_trace_command_writes_valid_perfetto_json(
    monkeypatch, tmp_path, capsys
):
    import json

    from repro.bench import suite as bench_suite
    from repro.obs import validate_chrome_trace

    spec = bench_suite.BenchmarkSpec(
        "tinytrace", "synthetic trace bench", lambda scale: PROGRAM, 1.0,
        "test",
    )
    monkeypatch.setitem(bench_suite.BENCHMARKS, "tinytrace", spec)

    out_path = tmp_path / "trace.json"
    argv = ["trace", "tinytrace", "-o", str(out_path), "--sim-timeline"]
    assert main(argv) == 0
    assert "ui.perfetto.dev" in capsys.readouterr().err
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
