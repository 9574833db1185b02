"""Ablations of this reproduction's own design choices (DESIGN.md §4).

Beyond the paper's Figure 10 (Steps 6/8), two implementation choices
carry weight here and get their own ablation:

* **Step 5 intra-block scheduling** (signal hoisting / wait sinking /
  moving independent code out of segments) -- without it, segments span
  whole blocks and chain-bound loops serialize.
* **Step 5 dependence-driven inlining** -- without it, dependences whose
  endpoints are calls keep whole call bodies inside segments.

Run on the subset of benchmarks whose chosen loops exercise each
mechanism.
"""

from repro.core.loopinfo import HelixOptions
from repro.evaluation.reporting import format_table, geomean


#: Benchmarks whose profitable loops carry synchronized dependences.
SCHEDULING_SENSITIVE = ["mesa", "twolf", "vpr", "parser", "ammp", "vortex"]
#: Benchmarks with dependence endpoints inside calls.
INLINE_SENSITIVE = ["vortex", "twolf", "mcf"]


def test_step5_scheduling_ablation(benchmark, runner, report):
    def experiment():
        rows = []
        for bench in SCHEDULING_SENSITIVE:
            full = runner.helix_run(bench)
            unscheduled = runner.pipeline(
                bench, options=HelixOptions(enable_segment_scheduling=False)
            )
            assert unscheduled.output_matches
            rows.append([bench, unscheduled.speedup, full.speedup])
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    text = format_table(
        ["benchmark", "no Step 5 scheduling", "full HELIX"],
        rows,
        title="Design ablation: Step 5 intra-block scheduling",
    )
    report("ablation_step5_scheduling", text)

    without = geomean([r[1] for r in rows])
    full = geomean([r[2] for r in rows])
    # Scheduling never hurts and helps overall on this subset.
    assert full >= without - 0.02
    for bench_name, off, on in rows:
        assert on >= off - 0.05, f"{bench_name}: scheduling regressed"


def test_inlining_ablation(benchmark, runner, report):
    def experiment():
        rows = []
        for bench in INLINE_SENSITIVE:
            full = runner.helix_run(bench)
            uninlined = runner.pipeline(
                bench, options=HelixOptions(enable_inlining=False)
            )
            assert uninlined.output_matches
            rows.append([bench, uninlined.speedup, full.speedup])
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    text = format_table(
        ["benchmark", "no inlining", "full HELIX"],
        rows,
        title="Design ablation: Step 5 dependence-driven inlining",
    )
    report("ablation_inlining", text)

    for bench_name, off, on in rows:
        assert on >= off - 0.05, f"{bench_name}: inlining regressed"
