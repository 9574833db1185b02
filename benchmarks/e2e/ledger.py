"""Command line of the benchmark: one run, the full ledger, the selfcheck.

``--trace 0|1`` selects the single-run form the benchmark driver calls
(one workload, one JSON object on the last line of standard output).
Without it the command writes the ledger: every workload, end-to-end
metrics from untraced reps and per-layer metrics from the traced pass,
printed by name with units and saved to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e import procs
from benchmarks.e2e.spans import Span, chrome_trace
from benchmarks.e2e.stats import worse_by
from benchmarks.e2e.workloads import (
    WORKLOADS,
    Checks,
    Context,
    load_references,
)

#: A workload whose host probe drifts by more than this between its
#: start and its end is measured once more and marked noisy.
MAX_CALIB_DRIFT = 0.10

#: Traced passes outside these limits no longer explain the end-to-end
#: number; checked on the workloads that run in one process.
MIN_COVERAGE = 0.90
OVERHEAD_RANGE = (0.85, 1.15)
SINGLE_PROCESS = ("suite_cold", "suite_warm", "machine_sweep")

#: Metrics that must be identical between two runs of the same code and
#: seed: simulated quantities and counts, never host time.
EXACT = (
    "fig9_rel_err",
    "frontend.ir_instrs",
    "core.loops_candidates",
    "core.loops_chosen",
    "runtime.interp_instrs",
    "runtime.traces",
    "runtime.sched_invocations",
    "runtime.sim_seq_cycles",
    "runtime.sim_par_cycles_6c",
    "evaluation.stage_computes",
    "evaluation.stage_disk_hits",
    "evaluation.stage_memory_hits",
)


class Contract:
    """``BENCHMARK.json``: the names, units and bounds of every metric."""

    def __init__(self) -> None:
        data = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
        self.run_seconds: int = data["run_seconds"]
        self.workloads: List[str] = [w["name"] for w in data["workloads"]]
        self.end_to_end: Dict[str, dict] = {
            m["name"]: m for m in data["end_to_end"]
        }
        self.per_layer: Dict[str, dict] = {
            m["name"]: m for m in data["per_layer"]
        }

    def unit(self, name: str) -> str:
        return (self.end_to_end.get(name) or self.per_layer[name])["unit"]

    def with_units(self, values: Dict[str, float]) -> dict:
        return {
            name: {"value": value, "unit": self.unit(name)}
            for name, value in values.items()
        }


class Run:
    """One workload measured once."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, contract: Contract) -> None:
        golden, paper = load_references()
        with procs.run_directory() as cwd:
            procs.compile_sources()
            ctx = Context(cwd, seed, seconds, golden, paper)
            outcome = WORKLOADS[workload](ctx, trace)
        self.workload = workload
        self.checks: Checks = ctx.checks
        self.samples = outcome.samples
        self.host_readings = ctx.host.readings
        self.host_windows = ctx.host.windows
        self.spans: List[Span] = outcome.spans
        self.noisy = False
        self.end_to_end = {
            name: outcome.end_to_end[name] for name in contract.end_to_end
        }
        self.per_layer: Dict[str, float] = {}
        if trace:
            measured = dict(
                outcome.per_layer,
                **{"host.calib_s": ctx.host.mean_reading,
                   "host.calib_drift": ctx.host.drift},
            )
            # A layer this workload never enters reads 0.
            self.per_layer = {
                name: float(measured.get(name, 0.0))
                for name in contract.per_layer
            }
            for name in sorted(set(measured) - set(contract.per_layer)):
                print(f"warning: {name} is measured but not in "
                      "BENCHMARK.json", file=sys.stderr)
        for failure in self.checks.failures:
            print(f"FAILED {workload}: {failure}", file=sys.stderr)
        self.warnings = self._trace_warnings() if trace else []
        for warning in self.warnings:
            print(f"warning: {warning}", file=sys.stderr)

    def _trace_warnings(self) -> List[str]:
        if self.workload not in SINGLE_PROCESS:
            return []
        warnings = []
        cover = self.per_layer["trace.coverage"]
        ratio = self.per_layer["trace.overhead_ratio"]
        if cover < MIN_COVERAGE:
            warnings.append(
                f"{self.workload}: trace.coverage {cover:.3f} is under "
                f"{MIN_COVERAGE}: the layers do not explain wall_s"
            )
        if not OVERHEAD_RANGE[0] <= ratio <= OVERHEAD_RANGE[1]:
            warnings.append(
                f"{self.workload}: trace.overhead_ratio {ratio:.3f} is "
                f"outside {OVERHEAD_RANGE}: the traced pass is not the "
                "work the untraced reps did"
            )
        return warnings

    def as_dict(self, contract: Contract) -> dict:
        attempted = self.checks.attempted
        return {
            "attempted": attempted,
            "failed": self.checks.failed,
            "failed_share": self.checks.failed / attempted,
            "failures": self.checks.failures,
            "noisy": self.noisy,
            "warnings": self.warnings,
            "end_to_end": contract.with_units(self.end_to_end),
            "per_layer": contract.with_units(self.per_layer),
            "samples": self.samples,
            "host_readings": self.host_readings,
            "host_windows": self.host_windows,
        }


def driver_run(args, contract: Contract) -> int:
    """The form the benchmark driver calls: one result line."""
    run = Run(args.workload, args.seed, args.seconds, args.trace == 1,
              contract)
    values = run.per_layer if args.trace == 1 else run.end_to_end
    print(
        json.dumps(
            {
                "correct": run.checks.failed == 0,
                "attempted": run.checks.attempted,
                "failed": run.checks.failed,
                "metrics": contract.with_units(values),
            }
        )
    )
    return 0


def measure_set(names: List[str], seed: int, seconds: float,
                contract: Contract) -> Dict[str, Run]:
    """Every named workload once, traced; a workload measured while the
    host probe drifted is measured once more and marked noisy."""
    runs: Dict[str, Run] = {}
    for name in names:
        print(f"running {name} ...", file=sys.stderr)
        run = Run(name, seed, seconds, True, contract)
        if run.per_layer["host.calib_drift"] > MAX_CALIB_DRIFT:
            print(f"host probe drifted during {name}; measuring it again",
                  file=sys.stderr)
            run = Run(name, seed, seconds, True, contract)
            run.noisy = True
        runs[name] = run
    return runs


def format_ledger(runs: Dict[str, Run], contract: Contract) -> str:
    names = list(runs)
    header = ["metric", "unit"] + [
        name + (" (noisy)" if runs[name].noisy else "") for name in names
    ]
    rows = [header]
    for metric in list(contract.end_to_end) + ["failed_share"] + list(
        contract.per_layer
    ):
        if metric == "failed_share":
            cells = [
                f"{r.checks.failed}/{r.checks.attempted}"
                for r in runs.values()
            ]
            rows.append([metric, "ratio"] + cells)
            continue
        cells = []
        for run in runs.values():
            value = run.end_to_end.get(metric, run.per_layer.get(metric))
            whole = float(value).is_integer() and abs(value) < 1e15
            cells.append(str(int(value)) if whole else f"{value:.6g}")
        rows.append([metric, contract.unit(metric)] + cells)
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rows
    )


def compare_sets(first: Dict[str, Run], second: Dict[str, Run],
                 contract: Contract) -> List[str]:
    """Selfcheck verdicts: where two sets of the same code disagree."""
    problems = []
    for name, a in first.items():
        b = second[name]
        for run in (a, b):
            if run.checks.failed:
                problems.append(f"{name}: {run.checks.failed} failed operations")
        for metric, spec in contract.end_to_end.items():
            x, y = a.end_to_end[metric], b.end_to_end[metric]
            worse = max(
                worse_by(x, y, spec["better"]), worse_by(y, x, spec["better"])
            )
            verdict = "ok" if worse <= spec["bound"] else "DISAGREE"
            print(f"{name:14s} {metric:14s} {x:12.6g} {y:12.6g} "
                  f"{worse:+7.1%} (bound {spec['bound']:.0%}) {verdict}")
            if verdict != "ok":
                problems.append(f"{name}: {metric} {x:.6g} vs {y:.6g}")
        for metric in EXACT:
            x = a.end_to_end.get(metric, a.per_layer.get(metric))
            y = b.end_to_end.get(metric, b.per_layer.get(metric))
            if x != y:
                problems.append(f"{name}: exact {metric} {x!r} vs {y!r}")
    return problems


def write_ledger(path: Path, seed: int, seconds: float,
                 sets: List[Dict[str, Run]], contract: Contract) -> None:
    path.write_text(
        json.dumps(
            {
                "seed": seed,
                "seconds": seconds,
                "source_version": procs.source_version(),
                "sets": [
                    {name: run.as_dict(contract) for name, run in runs.items()}
                    for runs in sets
                ],
            },
            indent=1,
        )
        + "\n"
    )
    trace_path = path.with_suffix(".trace.json")
    trace_path.write_text(
        json.dumps(
            chrome_trace({name: run.spans for name, run in sets[-1].items()})
        )
    )
    print(f"ledger written to {path}, spans to {trace_path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    if not procs.SOURCES.is_dir():
        print(f"error: no program to measure at {procs.SOURCES}",
              file=sys.stderr)
        return 2
    contract = Contract()
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=contract.workloads,
                        help="measure only this workload")
    parser.add_argument("--seconds", type=float,
                        default=float(contract.run_seconds),
                        help="seconds of timed reps per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single-run form: print one result line with "
                        "the end-to-end (0) or per-layer (1) metrics")
    parser.add_argument("--out", type=Path, help="ledger file to write")
    parser.add_argument("--selfcheck", action="store_true",
                        help="measure two sets and require them to agree")
    args = parser.parse_args(argv)
    # The serve workload talks to the daemon through the program's own
    # client, the one import of ``repro`` in this process.
    sys.path.insert(0, str(procs.ROOT / "src"))

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return driver_run(args, contract)

    if args.out is not None:
        args.out = args.out.resolve()
    names = [args.workload] if args.workload else contract.workloads
    sets = [measure_set(names, args.seed, args.seconds, contract)]
    print(format_ledger(sets[0], contract))
    problems: List[str] = []
    if args.selfcheck:
        sets.append(measure_set(names, args.seed, args.seconds, contract))
        print(format_ledger(sets[1], contract))
        problems = compare_sets(sets[0], sets[1], contract)
    if args.out is not None:
        write_ledger(args.out, args.seed, args.seconds, sets, contract)
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    failed = sum(run.checks.failed for runs in sets for run in runs.values())
    return 1 if problems or failed else 0
