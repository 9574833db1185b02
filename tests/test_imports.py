"""A command imports what it runs.

Each test runs a process and reads the ``repro`` modules it ended with.
Package ``__init__``s import none of their modules (``repro`` and
``repro.runtime`` resolve their few names on first use), and a stage
imports the modules it computes with inside the stage: so starting a
command loads no pipeline stage, and a warm suite, which compiles,
selects and transforms nothing, loads none of the modules that do.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

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

#: What a warm suite may not load: the frontend, Step 1's and Step 5's
#: transformations, selection with its model, Steps 4-9, the analysis
#: manager (it serves only selection and the transformation), the
#: interpreter's code generator, the library API and the daemon.
WARM_SUITE_EXCLUDES = (
    "repro.frontend",
    "repro.transform",
    "repro.core.parallelizer",
    "repro.core.selection",
    "repro.core.model",
    "repro.core.signals",
    "repro.core.segments",
    "repro.core.scheduling",
    "repro.analysis.manager",
    "repro.runtime.codegen",
    "repro.api",
    "repro.service",
)

#: The analyses a warm suite does load, each for what a restore reads.
WARM_SUITE_ANALYSES = {
    "repro.analysis": "the package of the modules below",
    "repro.analysis.loopnest": (
        "LoopId names every loop in a stored plan and recording, and "
        "decoding a stored profile rebuilds its dynamic nesting graph"
    ),
    "repro.analysis.digraph": "the nesting graphs are digraphs",
    "repro.analysis.callgraph": "loopnest imports it for the static graph",
    "repro.analysis.loops": "loopnest and the profiler import Loop",
    "repro.analysis.dominators": "loops imports it",
    "repro.analysis.cfg": "loops, dominators and the profiler import it",
}


def _run(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )


def _matching(loaded, prefixes):
    return sorted(
        name for name in loaded
        for prefix in prefixes
        if name == prefix or name.startswith(prefix + ".")
    )


def test_startup_loads_no_pipeline_stage():
    """``import repro.cli`` plus the store's ``code_version()``: what
    every command pays before it dispatches."""
    loaded = json.loads(_run(
        "import json, sys\n"
        "import repro.cli\n"
        "from repro.evaluation.cache import code_version\n"
        "code_version()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    ).stdout)
    assert _matching(loaded, (
        "repro.api",
        "repro.frontend",
        "repro.analysis",
        "repro.core",
        "repro.transform",
        "repro.service",
        "repro.evaluation.runner",
        "repro.evaluation.figures",
        "repro.evaluation.parallel_runner",
        "repro.runtime.interpreter",
        "repro.runtime.codegen",
        "repro.runtime.profiler",
        "repro.runtime.parallel",
        "repro.runtime.sched",
        "repro.runtime.trace",
        "numpy",
    )) == []


SUITE = """
import json, sys
from repro.bench import suite as bench_suite
from repro.evaluation import runner as runner_mod
from repro.cli import main

PROGRAM = {program!r}
bench_suite.BENCHMARKS["tinyimports"] = bench_suite.BenchmarkSpec(
    "tinyimports", "synthetic import test bench", lambda scale: PROGRAM,
    1.0, "test",
)
runner_mod.benchmark_names = lambda: ["tinyimports"]
code = main(["suite", "--jobs", "1", "--cores", "4", "--cache-dir", sys.argv[1],
             "--report", sys.argv[2]])
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def test_a_warm_suite_loads_no_stage_it_does_not_run(tmp_path):
    script = SUITE.format(program=PROGRAM)
    store, report = str(tmp_path / "store"), str(tmp_path / "report.json")
    _run(script, store, report)  # cold: fills the store
    warm = _run(script, store, report)
    stages = json.loads(Path(report).read_text())["stages"]
    assert stages["execute"]["disk_hits"] == 1, stages
    loaded = json.loads(warm.stderr.strip().splitlines()[-1])
    assert _matching(loaded, WARM_SUITE_EXCLUDES) == []
    analyses = _matching(loaded, ("repro.analysis",))
    assert set(analyses) <= set(WARM_SUITE_ANALYSES), analyses
