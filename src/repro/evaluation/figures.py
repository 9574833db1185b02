"""Experiment drivers: one function per paper table/figure.

Every driver takes an :class:`~repro.evaluation.runner.EvaluationRunner`
(sharing its caches) and returns a result object whose ``render()``
produces the same rows/series the paper reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.loopinfo import HelixOptions
from repro.evaluation.reporting import format_table, geomean
from repro.evaluation.runner import EvaluationRunner, default_runner
from repro.obs.metrics import REGISTRY, metrics_delta, table_delta
from repro.runtime.machine import PrefetchMode

#: Approximate per-benchmark 6-core speedups read off the paper's
#: Figure 9 bars (the text states the exact geomean 2.25x and max 4.12x).
PAPER_FIG9_6CORES: Dict[str, float] = {
    "gzip": 1.9,
    "vpr": 2.0,
    "mesa": 2.6,
    "art": 4.1,
    "mcf": 1.3,
    "equake": 2.9,
    "crafty": 1.35,
    "ammp": 2.2,
    "parser": 1.4,
    "gap": 1.8,
    "vortex": 1.6,
    "bzip2": 2.0,
    "twolf": 2.2,
}

PAPER_GEOMEAN_6CORES = 2.25
PAPER_MAX_6CORES = 4.12


# ---------------------------------------------------------------- Figure 9


@dataclass
class Figure9Row:
    """One benchmark's row of Figure 9, and what making it cost.

    :func:`figure9_row` makes it wherever the bench runs, in the process
    that draws the figure or in a worker process of
    :func:`~repro.evaluation.parallel_runner.run_suite`, and it carries
    all the suite's report needs of the bench."""

    bench: str
    #: Core count (2, 4, 6) -> whole-program speedup.
    speedups: Dict[int, float]
    output_matches: bool
    #: Per-core simulated-time totals on the runner's machine
    #: (:meth:`EvaluationRunner.timeline`).
    timeline: dict
    #: What the bench added to the runner's stage table, to the metrics
    #: registry and to the store's traffic table, each a delta
    #: (:func:`~repro.obs.metrics.table_delta`,
    #: :func:`~repro.obs.metrics.metrics_delta`).
    stages: Dict[str, dict]
    metrics: dict
    traffic: Dict[str, Dict[str, int]]
    wall_seconds: float


@dataclass
class Figure9Result:
    """Whole-program speedups for 2/4/6 cores."""

    speedups: Dict[str, Dict[int, float]]
    core_counts: Tuple[int, ...] = (2, 4, 6)

    @classmethod
    def of(cls, rows: Sequence[Figure9Row]) -> "Figure9Result":
        return cls(speedups={row.bench: row.speedups for row in rows})

    def geomean(self, cores: int) -> float:
        return geomean([row[cores] for row in self.speedups.values()])

    def render(self) -> str:
        rows = []
        for bench, row in self.speedups.items():
            rows.append(
                [bench]
                + [row[c] for c in self.core_counts]
                + [PAPER_FIG9_6CORES.get(bench)]
            )
        rows.append(
            ["geoMean"]
            + [self.geomean(c) for c in self.core_counts]
            + [PAPER_GEOMEAN_6CORES]
        )
        headers = ["benchmark"] + [f"{c} cores" for c in self.core_counts] + [
            "paper(6)"
        ]
        return format_table(
            headers, rows, title="Figure 9: speedups on the simulated CMP"
        )


def figure9_row(runner: EvaluationRunner, bench: str) -> Figure9Row:
    """``bench``'s Figure 9 row on ``runner``: the default pipeline on
    the runner's machine, its recording timed there and at the other
    core counts in one scheduling pass, and its simulated-time
    accounting."""
    start = time.perf_counter()
    stages = runner.stats.as_dict()
    metrics = REGISTRY.snapshot()
    traffic = runner.artifacts.traffic()
    run = runner.helix_run(bench)
    assert run.output_matches, f"{bench}: parallel output diverged"
    swept = [c for c in (2, 4, 6) if c != runner.machine.cores]
    # The run's own machine is asked for with the others, so its column,
    # which the timeline reads too, comes from the same pass.
    *values, own = run.speedups_at(
        [runner.machine.with_cores(c) for c in swept] + [run.executor.machine]
    )
    per_core = dict(zip(swept, values))
    if runner.machine.cores in (2, 4, 6):
        per_core[runner.machine.cores] = own
    timeline = runner.timeline(run)
    return Figure9Row(
        bench=bench,
        speedups=per_core,
        output_matches=run.output_matches,
        timeline=timeline,
        stages=table_delta(stages, runner.stats.as_dict()),
        metrics=metrics_delta(metrics, REGISTRY.snapshot()),
        traffic=table_delta(traffic, runner.artifacts.traffic()),
        wall_seconds=time.perf_counter() - start,
    )


def figure9(
    runner: Optional[EvaluationRunner] = None,
    benches: Optional[Sequence[str]] = None,
) -> Figure9Result:
    """Figure 9 over ``benches`` (default: the runner's suite), one
    :func:`figure9_row` each, in this process."""
    runner = runner or default_runner()
    return Figure9Result.of(
        [figure9_row(runner, bench) for bench in benches or runner.benches()]
    )


# ---------------------------------------------------------------- Table 1


@dataclass
class Table1Row:
    bench: str
    parallelized_loops: int
    candidate_loops: int
    carried_dep_pct: float
    signals_removed_pct: float
    data_transfer_pct: float
    max_code_kb: float


@dataclass
class Table1Result:
    rows: List[Table1Row]

    def render(self) -> str:
        headers = [
            "benchmark",
            "parallelized",
            "candidates",
            "carried-deps%",
            "signals-removed%",
            "transfers%",
            "max-code-KB",
        ]
        data = [
            [
                r.bench,
                r.parallelized_loops,
                r.candidate_loops,
                r.carried_dep_pct,
                r.signals_removed_pct,
                r.data_transfer_pct,
                r.max_code_kb,
            ]
            for r in self.rows
        ]
        return format_table(
            headers, data, title="Table 1: characteristics of parallelized loops"
        )


def table1(runner: Optional[EvaluationRunner] = None) -> Table1Result:
    runner = runner or default_runner()
    rows: List[Table1Row] = []
    for bench in runner.benches():
        run = runner.helix_run(bench)
        selection = run.selection or runner.selection(bench)

        # Loop-carried dependence fraction over the chosen loops.
        module = runner.module(bench, "ref")
        analysis = runner.analysis.dependence(module)
        examined = carried = 0
        for func_name, header in run.chosen:
            func = module.functions[func_name]
            loop = runner.analysis.loops(func).by_header.get(header)
            if loop is None:
                continue
            ex, ca = analysis.loop_dependence_statistics(func, loop)
            examined += ex
            carried += ca

        naive = sum(i.naive_waits + i.naive_signals for i in run.infos)
        final = sum(i.final_waits + i.final_signals for i in run.infos)
        removed = 100.0 * (naive - final) / naive if naive else 0.0

        transfers = sum(
            s.transfer_words for s in run.parallel.loop_stats.values()
        )
        loads = sum(s.loads for s in run.parallel.loop_stats.values())
        transfer_pct = 100.0 * transfers / loads if loads else 0.0

        max_kb = max(
            (i.code_size_bytes() / 1024.0 for i in run.infos), default=0.0
        )
        rows.append(
            Table1Row(
                bench=bench,
                parallelized_loops=len(run.chosen),
                candidate_loops=selection.candidate_count,
                carried_dep_pct=100.0 * carried / examined if examined else 0.0,
                signals_removed_pct=removed,
                data_transfer_pct=transfer_pct,
                max_code_kb=max_kb,
            )
        )
    return Table1Result(rows=rows)


# ---------------------------------------------------------------- Figure 10


#: Ablation configurations: (label, options, prefetch, selection kwargs).
def _ablation_configs() -> List[Tuple[str, HelixOptions, PrefetchMode, Dict]]:
    return [
        (
            "neither",
            HelixOptions(
                enable_signal_optimization=False,
                enable_prefetch_balancing=False,
            ),
            PrefetchMode.NONE,
            {"signal_cost": 110.0, "unoptimized_signals": True},
        ),
        (
            "no-step8",
            HelixOptions(enable_prefetch_balancing=False),
            PrefetchMode.NONE,
            {"signal_cost": 110.0},
        ),
        (
            "no-step6",
            HelixOptions(
                enable_signal_optimization=False,
                enable_prefetch_balancing=False,
            ),
            PrefetchMode.HELIX,
            {"unoptimized_signals": True},
        ),
        (
            "helix-nobalance",
            HelixOptions(enable_prefetch_balancing=False),
            PrefetchMode.HELIX,
            {},
        ),
    ]


@dataclass
class Figure10Result:
    """Speedups at 6 cores with Steps 6/8 selectively disabled.

    Per the paper's caption, the Figure 6 balancing scheduler is disabled
    in all four configurations; the full-HELIX bar of Figure 9 shows the
    balancing contribution on top of ``helix-nobalance``.
    """

    speedups: Dict[str, Dict[str, float]]
    labels: Tuple[str, ...] = (
        "neither",
        "no-step8",
        "no-step6",
        "helix-nobalance",
    )

    def geomean(self, label: str) -> float:
        return geomean([row[label] for row in self.speedups.values()])

    def render(self) -> str:
        rows = [
            [bench] + [row[label] for label in self.labels]
            for bench, row in self.speedups.items()
        ]
        rows.append(["geoMean"] + [self.geomean(l) for l in self.labels])
        return format_table(
            ["benchmark"] + list(self.labels),
            rows,
            title="Figure 10: contribution of Steps 6 and 8 (6 cores)",
        )


def figure10(runner: Optional[EvaluationRunner] = None) -> Figure10Result:
    runner = runner or default_runner()
    speedups: Dict[str, Dict[str, float]] = {}
    for bench in runner.benches():
        row: Dict[str, float] = {}
        for label, options, prefetch, sel_kwargs in _ablation_configs():
            run = runner.pipeline(
                bench,
                options=options,
                prefetch=prefetch,
                **sel_kwargs,
            )
            assert run.output_matches, f"{bench}/{label}: output diverged"
            row[label] = run.speedup
        speedups[bench] = row
    return Figure10Result(speedups=speedups)


# ---------------------------------------------------------------- Section 3.3


@dataclass
class PrefetchStudyResult:
    """HELIX vs matched vs ideal prefetching (Section 3.3)."""

    speedups: Dict[str, Dict[str, float]]
    modes: Tuple[str, ...] = ("none", "helix", "matched", "ideal")

    def geomean(self, mode: str) -> float:
        return geomean([row[mode] for row in self.speedups.values()])

    def render(self) -> str:
        rows = [
            [bench] + [row[m] for m in self.modes]
            for bench, row in self.speedups.items()
        ]
        rows.append(["geoMean"] + [self.geomean(m) for m in self.modes])
        table = format_table(
            ["benchmark"] + list(self.modes),
            rows,
            title="Section 3.3: signal prefetching study (6 cores)",
        )
        deltas = (
            f"\nmatched - helix geomean gap: "
            f"{self.geomean('matched') - self.geomean('helix'):+.2f} "
            f"(paper: ~0.1)\n"
            f"ideal - matched geomean gap: "
            f"{self.geomean('ideal') - self.geomean('matched'):+.2f} "
            f"(paper: ~0.4)"
        )
        return table + deltas


def prefetching_study(
    runner: Optional[EvaluationRunner] = None,
) -> PrefetchStudyResult:
    runner = runner or default_runner()
    speedups: Dict[str, Dict[str, float]] = {}
    mode_map = {
        "none": PrefetchMode.NONE,
        "helix": PrefetchMode.HELIX,
        "matched": PrefetchMode.MATCHED,
        "ideal": PrefetchMode.IDEAL,
    }
    for bench in runner.benches():
        run = runner.helix_run(bench)
        values = run.speedups_at(
            [runner.machine.with_prefetch(mode) for mode in mode_map.values()]
        )
        speedups[bench] = dict(zip(mode_map, values))
    return PrefetchStudyResult(speedups=speedups)


# ---------------------------------------------------------------- Section 3.4


@dataclass
class ModelValidationResult:
    """Model-predicted vs measured speedups (Section 3.4)."""

    predicted: Dict[str, float]
    measured: Dict[str, float]

    def error_pct(self, bench: str) -> float:
        measured = self.measured[bench]
        if measured == 0:
            return 0.0
        return 100.0 * abs(self.predicted[bench] - measured) / measured

    @property
    def mean_error_pct(self) -> float:
        errors = [self.error_pct(b) for b in self.measured]
        return sum(errors) / len(errors) if errors else 0.0

    def render(self) -> str:
        rows = [
            [b, self.predicted[b], self.measured[b], self.error_pct(b)]
            for b in self.measured
        ]
        rows.append(["mean", None, None, self.mean_error_pct])
        return format_table(
            ["benchmark", "model", "measured", "error%"],
            rows,
            title=(
                "Section 3.4: speedup model validation "
                "(paper reports <4% error per benchmark)"
            ),
        )


def model_validation(
    runner: Optional[EvaluationRunner] = None,
) -> ModelValidationResult:
    runner = runner or default_runner()
    predicted: Dict[str, float] = {}
    measured: Dict[str, float] = {}
    for bench in runner.benches():
        run = runner.helix_run(bench)
        selection = run.selection or runner.selection(bench)
        profile = runner.profile(bench)
        saved = sum(
            selection.saved_time.get(lid, 0.0) for lid in run.chosen
        )
        total = float(profile.total_cycles)
        predicted[bench] = total / max(total - saved, 1.0)
        measured[bench] = run.speedup
    return ModelValidationResult(predicted=predicted, measured=measured)


# ---------------------------------------------------------------- Figure 11


@dataclass
class Figure11Result:
    """Time breakdown per selection strategy (levels 1..7 and HELIX)."""

    #: bench -> level label -> (parallel, seq_data, seq_control, outside)%.
    breakdown: Dict[str, Dict[str, Tuple[float, float, float, float]]]
    levels: Tuple[str, ...] = ("1", "2", "3", "4", "5", "6", "7", "H")

    def render(self) -> str:
        rows = []
        for bench, per_level in self.breakdown.items():
            for level in self.levels:
                par, sdata, sctl, outside = per_level[level]
                rows.append([bench, level, par, sdata, sctl, outside])
        return format_table(
            [
                "benchmark",
                "level",
                "parallel%",
                "seq-data%",
                "seq-control%",
                "outside%",
            ],
            rows,
            title="Figure 11: time breakdown by loop nesting level",
        )


def figure11(runner: Optional[EvaluationRunner] = None) -> Figure11Result:
    runner = runner or default_runner()
    breakdown: Dict[str, Dict[str, Tuple[float, float, float, float]]] = {}
    for bench in runner.benches():
        # Per the paper's caption, this analysis assumes an optimistic
        # 0-cycle communication latency -- HELIX then maximizes the
        # parallel-code fraction rather than net saved time.
        selection = runner.selection(bench, signal_cost=0.0)
        profile = runner.profile(bench)
        total = float(profile.total_cycles)
        per_level: Dict[str, Tuple[float, float, float, float]] = {}

        def classify(loop_ids) -> Tuple[float, float, float, float]:
            par = sdata = sctl = inside = 0.0
            for lid in loop_ids:
                inputs = selection.candidates.get(lid)
                if inputs is None:
                    continue
                par += inputs.parallel_cycles
                sdata += inputs.segment_cycles
                sctl += inputs.prologue_cycles
                inside += inputs.total_cycles
            outside = max(0.0, total - inside)
            scale = 100.0 / total
            return (par * scale, sdata * scale, sctl * scale, outside * scale)

        for level in range(1, 8):
            per_level[str(level)] = classify(runner.fixed_level(bench, level))
        per_level["H"] = classify(selection.chosen)
        breakdown[bench] = per_level
    return Figure11Result(breakdown=breakdown)


# ---------------------------------------------------------------- Figure 12


@dataclass
class Figure12Result:
    """Speedups when loop selection misestimates signal latency."""

    underestimated: Dict[str, float]
    overestimated: Dict[str, float]

    def render(self) -> str:
        rows = [
            [b, self.underestimated[b], self.overestimated[b]]
            for b in self.underestimated
        ]
        rows.append(
            [
                "geoMean",
                geomean(list(self.underestimated.values())),
                geomean(list(self.overestimated.values())),
            ]
        )
        return format_table(
            ["benchmark", "S=0 (under)", "S=110 (over)"],
            rows,
            title=(
                "Figure 12: impact of misestimated signal latency during "
                "loop selection (6 cores)"
            ),
        )


def figure12(runner: Optional[EvaluationRunner] = None) -> Figure12Result:
    runner = runner or default_runner()
    under: Dict[str, float] = {}
    over: Dict[str, float] = {}
    for bench in runner.benches():
        run_under = runner.pipeline(bench, signal_cost=0.0)
        assert run_under.output_matches
        under[bench] = run_under.speedup
        run_over = runner.pipeline(bench, signal_cost=110.0)
        assert run_over.output_matches
        over[bench] = run_over.speedup
    return Figure12Result(underestimated=under, overestimated=over)


# ---------------------------------------------------------------- Figure 13


@dataclass
class Figure13Result:
    """Nesting-level distribution of chosen loops per assumed latency."""

    #: latency label -> bench -> {level: % of chosen loops}.
    distributions: Dict[str, Dict[str, Dict[int, float]]]

    def render(self) -> str:
        rows = []
        for label, per_bench in self.distributions.items():
            for bench, dist in per_bench.items():
                for level in sorted(dist):
                    rows.append([label, bench, level, dist[level]])
        return format_table(
            ["signal-cost", "benchmark", "level", "% of chosen loops"],
            rows,
            title="Figure 13: nesting levels of chosen loops (6 cores)",
        )


# ------------------------------------------------- future work: fast signaling


@dataclass
class LatencySweepResult:
    """Speedup vs hardware signal latency (the conclusion's future work).

    The paper closes: "we expect our implementation to exploit fast
    hardware implementations of signaling to obtain better speedup."
    This sweep quantifies that headroom on the simulator: the recorded
    traces are replayed under progressively faster (and slower) signal
    hardware, with loop selection re-run per latency point.
    """

    #: latency (cycles) -> bench -> speedup at 6 cores.
    speedups: Dict[int, Dict[str, float]]

    def geomean(self, latency: int) -> float:
        return geomean(list(self.speedups[latency].values()))

    def render(self) -> str:
        latencies = sorted(self.speedups)
        benches = list(next(iter(self.speedups.values())))
        rows = []
        for bench in benches:
            rows.append([bench] + [self.speedups[l][bench] for l in latencies])
        rows.append(["geoMean"] + [self.geomean(l) for l in latencies])
        return format_table(
            ["benchmark"] + [f"L={l}" for l in latencies],
            rows,
            title=(
                "Future work: speedup vs hardware signal latency "
                "(6 cores; paper testbed is L=110)"
            ),
        )


def latency_sweep(
    runner: Optional[EvaluationRunner] = None,
    latencies: Sequence[int] = (4, 16, 32, 64, 110, 220),
) -> LatencySweepResult:
    import dataclasses as _dc

    runner = runner or default_runner()
    machines = [
        _dc.replace(
            runner.machine,
            signal_latency=max(latency, 4),
            word_transfer_cycles=max(latency, 4),
            prefetched_signal_latency=min(
                4, max(latency, 1)
            ),
        )
        for latency in latencies
    ]
    speedups: Dict[int, Dict[str, float]] = {l: {} for l in latencies}
    for bench in runner.benches():
        run = runner.helix_run(bench)
        values = run.speedups_at(machines)
        for latency, value in zip(latencies, values):
            speedups[latency][bench] = value
    return LatencySweepResult(speedups=speedups)


def figure13(runner: Optional[EvaluationRunner] = None) -> Figure13Result:
    runner = runner or default_runner()
    distributions: Dict[str, Dict[str, Dict[int, float]]] = {}
    for label, signal_cost in (("4 (prefetched)", None), ("110", 110.0)):
        per_bench: Dict[str, Dict[int, float]] = {}
        for bench in runner.benches():
            selection = runner.selection(bench, signal_cost=signal_cost)
            counts: Dict[int, int] = {}
            for lid in selection.chosen:
                inputs = selection.candidates.get(lid)
                level = inputs.nesting_level if inputs else 1
                counts[level] = counts.get(level, 0) + 1
            chosen = sum(counts.values())
            per_bench[bench] = {
                level: 100.0 * n / chosen for level, n in counts.items()
            } if chosen else {}
        distributions[label] = per_bench
    return Figure13Result(distributions=distributions)
