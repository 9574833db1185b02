"""Interpreter tier microbenchmarks (``repro bench-interp``).

Times the two interpreter tiers -- the tree walker and the superblock
code-generated backend -- on the same compiled modules and reports
per-program and aggregate speedups.  Every timed group is also a
differential check: both tiers must produce field-identical
:class:`ExecutionResult`\\ s (output, cycles, instructions, return
value) or the run aborts.

The generated tier is timed in two lanes, like ``bench-sched``:

* **cold** -- a fresh :class:`Interpreter` per run, so the measurement
  includes superblock code generation;
* **warm** -- repeated runs on one interpreter whose per-function
  caches are hot, measuring steady-state execution only.

The instrumented (hooked) tier is not timed here: the profile and
recording runs of ``benchmarks/e2e`` (``runtime.profile_s``,
``runtime.execute_s``) measure it end to end, and the differential
tests hold it to the walker.

Wall-clock is the minimum over ``repeat`` runs (minimum, not mean:
interpreter timing noise is one-sided).  Headline ``speedup`` is warm
superblock over tree; the cold lane quantifies compile overhead.  Both
tiers execute the exact same dynamic instruction stream, so the
throughput ratio equals the wall-clock speedup.

The JSON report (``BENCH_interp.json`` by convention) accumulates the
repo's perf trajectory across PRs: CI uploads one per commit and gates
on ``--min-geomean-speedup``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.bench import benchmark_names, compile_benchmark
from repro.ir import Module
from repro.runtime.interpreter import ExecutionResult, Interpreter
from repro.runtime.machine import MachineConfig
from repro.runtime.profiler import profile_module

#: Benchmarks used by ``--quick`` (CI smoke): a small mix of control-
#: and memory-heavy programs that decodes + runs in a few seconds.
QUICK_BENCHES = ("gzip", "mcf", "equake", "bzip2")


def _geomean(values: Sequence[float]) -> float:
    if not values:
        return 1.0
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def _ratio(numer: float, denom: float) -> float:
    return numer / denom if denom > 0 else float("inf")


@dataclass
class ProgramTiming:
    """Timed comparison of the two tiers on one program.

    ``superblock_seconds`` is the warm lane; ``superblock_cold_seconds``
    includes code generation.
    """

    name: str
    instructions: int
    tree_seconds: float
    superblock_cold_seconds: float
    superblock_seconds: float

    @property
    def speedup(self) -> float:
        """Headline ratio: warm superblock over the tree walker."""
        return _ratio(self.tree_seconds, self.superblock_seconds)

    @property
    def cold_speedup(self) -> float:
        return _ratio(self.tree_seconds, self.superblock_cold_seconds)

    @property
    def codegen_overhead_seconds(self) -> float:
        """Cold-minus-warm superblock time: the codegen cost."""
        return max(0.0, self.superblock_cold_seconds - self.superblock_seconds)

    @property
    def tree_ips(self) -> float:
        return self.instructions / self.tree_seconds if self.tree_seconds else 0.0

    @property
    def superblock_ips(self) -> float:
        if self.superblock_seconds <= 0:
            return 0.0
        return self.instructions / self.superblock_seconds

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "instructions": self.instructions,
            "tree_seconds": self.tree_seconds,
            "superblock_cold_seconds": self.superblock_cold_seconds,
            "superblock_seconds": self.superblock_seconds,
            "tree_instr_per_sec": self.tree_ips,
            "superblock_instr_per_sec": self.superblock_ips,
            "speedup": self.speedup,
            "cold_speedup": self.cold_speedup,
            "codegen_overhead_seconds": self.codegen_overhead_seconds,
        }


@dataclass
class InterpBenchReport:
    """Everything one ``bench-interp`` invocation measured."""

    scale: str
    repeat: int
    programs: List[ProgramTiming] = field(default_factory=list)

    @property
    def geomean_speedup(self) -> float:
        return _geomean([t.speedup for t in self.programs])

    @property
    def cold_geomean_speedup(self) -> float:
        return _geomean([t.cold_speedup for t in self.programs])

    @property
    def min_speedup(self) -> float:
        if not self.programs:
            return 1.0
        return min(t.speedup for t in self.programs)

    @property
    def total_instructions(self) -> int:
        return sum(t.instructions for t in self.programs)

    @property
    def aggregate_speedup(self) -> float:
        """Total-time ratio: weights each program by its runtime."""
        tree = sum(t.tree_seconds for t in self.programs)
        superblock = sum(t.superblock_seconds for t in self.programs)
        return _ratio(tree, superblock)

    @property
    def codegen_overhead_seconds(self) -> float:
        return sum(t.codegen_overhead_seconds for t in self.programs)

    def as_dict(self) -> dict:
        return {
            "scale": self.scale,
            "repeat": self.repeat,
            "programs": [t.as_dict() for t in self.programs],
            "summary": {
                "total_instructions": self.total_instructions,
                "geomean_speedup": self.geomean_speedup,
                "cold_geomean_speedup": self.cold_geomean_speedup,
                "aggregate_speedup": self.aggregate_speedup,
                "min_speedup": self.min_speedup,
                "codegen_overhead_seconds": self.codegen_overhead_seconds,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def render(self) -> str:
        lines = [
            f"{'program':<10} {'instructions':>13} {'tree s':>8} "
            f"{'sb cold':>8} {'sb warm':>8} {'speedup':>8}"
        ]
        for t in self.programs:
            lines.append(
                f"{t.name:<10} {t.instructions:>13,} {t.tree_seconds:>8.3f} "
                f"{t.superblock_cold_seconds:>8.3f} "
                f"{t.superblock_seconds:>8.3f} {t.speedup:>7.2f}x"
            )
        lines.append(
            f"{'geomean':<10} {self.total_instructions:>13,} "
            f"{sum(t.tree_seconds for t in self.programs):>8.3f} "
            f"{sum(t.superblock_cold_seconds for t in self.programs):>8.3f} "
            f"{sum(t.superblock_seconds for t in self.programs):>8.3f} "
            f"{self.geomean_speedup:>7.2f}x"
        )
        lines.append(f"(cold {self.cold_geomean_speedup:.2f}x)")
        return "\n".join(lines)


def _time_tree(
    module: Module, machine: MachineConfig, repeat: int
) -> Tuple[float, ExecutionResult]:
    """Tree walker: no caches to warm, minimum over ``repeat`` runs."""
    interp = Interpreter(module, machine, backend="tree")
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = interp.run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _time_cold(
    module: Module, machine: MachineConfig, repeat: int
) -> float:
    """Fresh interpreter per run: includes codegen time."""
    best = float("inf")
    for _ in range(max(1, repeat)):
        interp = Interpreter(module, machine, backend="superblock")
        start = time.perf_counter()
        interp.run()
        best = min(best, time.perf_counter() - start)
    return best


def _time_warm(
    module: Module, machine: MachineConfig, repeat: int, block_profile=None
) -> Tuple[float, ExecutionResult]:
    """One interpreter, caches pre-warmed by an untimed priming run.

    The warm lane models the steady state of the evaluation pipeline,
    where the profile stage's block-entry counts are available: passing
    them as ``block_profile`` lets the superblock tier form trace-guided
    chains exactly as :class:`~repro.evaluation.runner.EvaluationRunner`
    wires them into sequential and parallel execution.
    """
    interp = Interpreter(
        module, machine, backend="superblock", block_profile=block_profile
    )
    result = interp.run()
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = interp.run()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_interp_bench(
    benches: Optional[Sequence[str]] = None,
    scale: str = "train",
    repeat: int = 1,
    machine: Optional[MachineConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> InterpBenchReport:
    """Time both tiers on ``benches`` and differential-check them.

    Raises :class:`AssertionError` if the tiers ever disagree — the
    benchmark doubles as an end-to-end identity check.
    """
    machine = machine or MachineConfig()
    names = list(benches) if benches is not None else benchmark_names()
    report = InterpBenchReport(scale=scale, repeat=repeat)
    for name in names:
        if progress:
            progress(name)
        module = compile_benchmark(name, scale)
        # One profiled run per program supplies the block-entry counts
        # the warm superblock lane uses for trace-guided chains (the
        # steady state every pipeline re-run sees).
        counts = profile_module(module, machine).block_counts
        tree_s, tree_r = _time_tree(module, machine, repeat)
        super_cold_s = _time_cold(module, machine, repeat)
        super_s, super_r = _time_warm(
            module, machine, repeat, block_profile=counts
        )
        if tree_r.to_dict() != super_r.to_dict():
            # pragma: no cover - identity gate
            raise AssertionError(
                f"backend divergence on {name!r}: tree={tree_r.to_dict()} "
                f"superblock={super_r.to_dict()}"
            )
        report.programs.append(
            ProgramTiming(
                name=name,
                instructions=tree_r.instructions,
                tree_seconds=tree_s,
                superblock_cold_seconds=super_cold_s,
                superblock_seconds=super_s,
            )
        )
    return report
