"""Interpreter backend microbenchmarks (``repro bench-interp``).

Times the interpreter tiers — the tree walker, the pre-decoded closure
backend and the superblock code-generated backend — on the same
compiled modules and reports per-program and aggregate speedups.  Every
timed group is also a differential check: the backends must produce
field-identical :class:`ExecutionResult`\\ s (output, cycles,
instructions, return value) or the run aborts.

Each compiled backend is timed in two lanes, like ``bench-sched``:

* **cold** -- a fresh :class:`Interpreter` per run, so the measurement
  includes decode and superblock code generation;
* **warm** -- repeated runs on one interpreter whose per-function
  caches are hot, measuring steady-state execution only.

A fourth group, the **hooked lane**, measures *instrumented*
throughput at its worst case: an interpreter with ``count_loads`` on
and an ``on_block_entry`` override that declares no watched edges, so
the hook fires at every block boundary (the profiler and
:class:`~repro.runtime.parallel.ParallelExecutor` declare theirs and
are called at a fraction of them) — timed on the decoded hooked
variant versus the hooked superblock tier (cold + warm).  ``hooked_speedup`` is warm hooked-superblock over
hooked-decoded; CI gates its geomean with ``--min-hooked-speedup``.
The two hooked runs must agree on result fields, ``load_count`` *and*
the number of hook invocations, or the run aborts.

Wall-clock is the minimum over ``repeat`` runs (minimum, not mean:
interpreter timing noise is one-sided).  Headline ``speedup`` is warm
superblock over tree; the cold lane quantifies compile overhead.  All
backends execute the exact same dynamic instruction stream, so the
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
    """Timed comparison of the three backends on one program.

    ``decoded_seconds`` and ``superblock_seconds`` are the warm lane;
    the ``*_cold_seconds`` twins include decode / code generation.
    """

    name: str
    instructions: int
    tree_seconds: float
    decoded_cold_seconds: float
    decoded_seconds: float
    superblock_cold_seconds: float
    superblock_seconds: float
    #: Hooked (instrumented) lane: decoded hooked variant warm, hooked
    #: superblock cold and warm.
    hooked_decoded_seconds: float = 0.0
    hooked_cold_seconds: float = 0.0
    hooked_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        """Headline ratio: warm superblock over the tree walker."""
        return _ratio(self.tree_seconds, self.superblock_seconds)

    @property
    def decoded_speedup(self) -> float:
        return _ratio(self.tree_seconds, self.decoded_seconds)

    @property
    def hooked_speedup(self) -> float:
        """Instrumented ratio: warm hooked superblock over hooked decoded."""
        return _ratio(self.hooked_decoded_seconds, self.hooked_seconds)

    @property
    def hooked_cold_speedup(self) -> float:
        return _ratio(self.hooked_decoded_seconds, self.hooked_cold_seconds)

    @property
    def cold_speedup(self) -> float:
        return _ratio(self.tree_seconds, self.superblock_cold_seconds)

    @property
    def codegen_overhead_seconds(self) -> float:
        """Cold-minus-warm superblock time: decode + codegen cost."""
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
            "decoded_cold_seconds": self.decoded_cold_seconds,
            "decoded_seconds": self.decoded_seconds,
            "superblock_cold_seconds": self.superblock_cold_seconds,
            "superblock_seconds": self.superblock_seconds,
            "hooked_decoded_seconds": self.hooked_decoded_seconds,
            "hooked_cold_seconds": self.hooked_cold_seconds,
            "hooked_seconds": self.hooked_seconds,
            "tree_instr_per_sec": self.tree_ips,
            "superblock_instr_per_sec": self.superblock_ips,
            "speedup": self.speedup,
            "decoded_speedup": self.decoded_speedup,
            "cold_speedup": self.cold_speedup,
            "hooked_speedup": self.hooked_speedup,
            "hooked_cold_speedup": self.hooked_cold_speedup,
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
    def decoded_geomean_speedup(self) -> float:
        return _geomean([t.decoded_speedup for t in self.programs])

    @property
    def cold_geomean_speedup(self) -> float:
        return _geomean([t.cold_speedup for t in self.programs])

    @property
    def hooked_geomean_speedup(self) -> float:
        return _geomean([t.hooked_speedup for t in self.programs])

    @property
    def hooked_cold_geomean_speedup(self) -> float:
        return _geomean([t.hooked_cold_speedup for t in self.programs])

    @property
    def min_hooked_speedup(self) -> float:
        if not self.programs:
            return 1.0
        return min(t.hooked_speedup for t in self.programs)

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
                "decoded_geomean_speedup": self.decoded_geomean_speedup,
                "cold_geomean_speedup": self.cold_geomean_speedup,
                "hooked_geomean_speedup": self.hooked_geomean_speedup,
                "hooked_cold_geomean_speedup": self.hooked_cold_geomean_speedup,
                "aggregate_speedup": self.aggregate_speedup,
                "min_speedup": self.min_speedup,
                "min_hooked_speedup": self.min_hooked_speedup,
                "codegen_overhead_seconds": self.codegen_overhead_seconds,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    def render(self) -> str:
        lines = [
            f"{'program':<10} {'instructions':>13} {'tree s':>8} "
            f"{'decoded s':>9} {'sb cold':>8} {'sb warm':>8} {'speedup':>8} "
            f"{'hooked':>7}"
        ]
        for t in self.programs:
            lines.append(
                f"{t.name:<10} {t.instructions:>13,} {t.tree_seconds:>8.3f} "
                f"{t.decoded_seconds:>9.3f} {t.superblock_cold_seconds:>8.3f} "
                f"{t.superblock_seconds:>8.3f} {t.speedup:>7.2f}x "
                f"{t.hooked_speedup:>6.2f}x"
            )
        lines.append(
            f"{'geomean':<10} {self.total_instructions:>13,} "
            f"{sum(t.tree_seconds for t in self.programs):>8.3f} "
            f"{sum(t.decoded_seconds for t in self.programs):>9.3f} "
            f"{sum(t.superblock_cold_seconds for t in self.programs):>8.3f} "
            f"{sum(t.superblock_seconds for t in self.programs):>8.3f} "
            f"{self.geomean_speedup:>7.2f}x "
            f"{self.hooked_geomean_speedup:>6.2f}x"
        )
        lines.append(
            f"(vs decoded {self.decoded_geomean_speedup:.2f}x -> superblock "
            f"gain {_ratio(self.geomean_speedup, self.decoded_geomean_speedup):.2f}x; "
            f"cold {self.cold_geomean_speedup:.2f}x; hooked lane "
            f"{self.hooked_geomean_speedup:.2f}x over hooked decoded, "
            f"cold {self.hooked_cold_geomean_speedup:.2f}x)"
        )
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
    module: Module, machine: MachineConfig, backend: str, repeat: int
) -> Tuple[float, ExecutionResult]:
    """Fresh interpreter per run: includes decode / codegen time."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        interp = Interpreter(module, machine, backend=backend)
        start = time.perf_counter()
        result = interp.run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _time_warm(
    module: Module,
    machine: MachineConfig,
    backend: str,
    repeat: int,
    block_profile=None,
) -> Tuple[float, ExecutionResult]:
    """One interpreter, caches pre-warmed by an untimed priming run.

    Warm lanes model the steady state of the evaluation pipeline, where
    the profile stage's block-entry counts are available: passing them
    as ``block_profile`` lets the superblock tiers form trace-guided
    chains exactly as :class:`~repro.evaluation.runner.EvaluationRunner`
    wires them into sequential and parallel execution.
    """
    interp = Interpreter(
        module, machine, backend=backend, block_profile=block_profile
    )
    result = interp.run()
    best = float("inf")
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = interp.run()
        best = min(best, time.perf_counter() - start)
    return best, result


class _HookBearingInterpreter(Interpreter):
    """Minimal instrumented interpreter for the hooked lane.

    Counts block entries through ``on_block_entry`` -- all of them: it
    declares no ``watched_edges`` -- and loads through ``count_loads``,
    with negligible Python work per event, so the measured ratio
    reflects tier overhead rather than harness weight.  ``backend="decoded"`` selects the decoded hooked
    variant; ``backend="superblock"`` the hooked superblock tier.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.count_loads = True
        self.blocks_entered = 0

    def on_block_entry(self, frame, prev, block) -> None:
        self.blocks_entered += 1


def _time_hooked_cold(
    module: Module, machine: MachineConfig, backend: str, repeat: int
) -> Tuple[float, ExecutionResult, int, int]:
    """Fresh instrumented interpreter per run (includes decode/codegen);
    returns ``(seconds, result, load_count, blocks_entered)``."""
    best = float("inf")
    result = None
    interp = None
    for _ in range(max(1, repeat)):
        interp = _HookBearingInterpreter(module, machine, backend=backend)
        start = time.perf_counter()
        result = interp.run()
        best = min(best, time.perf_counter() - start)
    return best, result, interp.load_count, interp.blocks_entered


def _time_hooked_pair(
    module: Module,
    machine: MachineConfig,
    repeat: int,
    block_profile=None,
) -> Tuple[
    Tuple[float, ExecutionResult, int, int],
    Tuple[float, ExecutionResult, int, int],
]:
    """Warm instrumented lanes, interleaved; returns ``(decoded, superblock)``
    tuples of ``(seconds, result, load_count, blocks_entered)``.

    The two lanes alternate timed runs instead of running back to back:
    the report's gated quantity is their *ratio*, and slow machine drift
    (frequency scaling, allocator state) between two sequential timing
    windows otherwise dominates it.  Interleaving puts both lanes in
    every drift regime, so min-of-N for each sees the same best-case
    machine state.

    ``block_profile`` mirrors the parallel execute/record path, which
    re-runs instrumented code with the profile stage's counts in hand
    (trace-guided chains); the decoded hooked baseline has no chains
    and ignores it.
    """
    hd = _HookBearingInterpreter(module, machine, backend="decoded")
    hs = _HookBearingInterpreter(
        module, machine, backend="superblock", block_profile=block_profile
    )
    # Prime both (decode + codegen happen here, outside the timers).
    hd.run()
    hs.run()
    hd_best = hs_best = float("inf")
    hd_r = hs_r = None
    for _ in range(max(1, repeat)):
        # Base-interpreter runs accumulate load_count across run() calls;
        # zero both counters so the differential check sees one run.
        hd.load_count = 0
        hd.blocks_entered = 0
        start = time.perf_counter()
        hd_r = hd.run()
        hd_best = min(hd_best, time.perf_counter() - start)
        hs.load_count = 0
        hs.blocks_entered = 0
        start = time.perf_counter()
        hs_r = hs.run()
        hs_best = min(hs_best, time.perf_counter() - start)
    return (
        (hd_best, hd_r, hd.load_count, hd.blocks_entered),
        (hs_best, hs_r, hs.load_count, hs.blocks_entered),
    )


def run_interp_bench(
    benches: Optional[Sequence[str]] = None,
    scale: str = "train",
    repeat: int = 1,
    machine: Optional[MachineConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> InterpBenchReport:
    """Time all three backends on ``benches`` and differential-check them.

    Raises :class:`AssertionError` if the backends ever disagree — the
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
        # the warm superblock lanes use for trace-guided chains (the
        # steady state every pipeline re-run sees).
        counts = profile_module(module, machine).block_counts
        tree_s, tree_r = _time_tree(module, machine, repeat)
        decoded_cold_s, _ = _time_cold(module, machine, "decoded", repeat)
        decoded_s, decoded_r = _time_warm(module, machine, "decoded", repeat)
        super_cold_s, _ = _time_cold(module, machine, "superblock", repeat)
        super_s, super_r = _time_warm(
            module, machine, "superblock", repeat, block_profile=counts
        )
        hs_cold_s, _, _, _ = _time_hooked_cold(
            module, machine, "superblock", repeat
        )
        (
            (hd_s, hd_r, hd_loads, hd_blocks),
            (hs_s, hs_r, hs_loads, hs_blocks),
        ) = _time_hooked_pair(module, machine, repeat, block_profile=counts)
        oracle = tree_r.to_dict()
        for label, other in (
            ("decoded", decoded_r),
            ("superblock", super_r),
            ("hooked-decoded", hd_r),
            ("hooked-superblock", hs_r),
        ):
            if oracle != other.to_dict():  # pragma: no cover - identity gate
                raise AssertionError(
                    f"backend divergence on {name!r}: tree={oracle} "
                    f"{label}={other.to_dict()}"
                )
        if (hd_loads, hd_blocks) != (hs_loads, hs_blocks):
            # pragma: no cover - identity gate
            raise AssertionError(
                f"instrumentation divergence on {name!r}: decoded saw "
                f"{hd_loads} loads/{hd_blocks} blocks, superblock "
                f"{hs_loads}/{hs_blocks}"
            )
        report.programs.append(
            ProgramTiming(
                name=name,
                instructions=tree_r.instructions,
                tree_seconds=tree_s,
                decoded_cold_seconds=decoded_cold_s,
                decoded_seconds=decoded_s,
                superblock_cold_seconds=super_cold_s,
                superblock_seconds=super_s,
                hooked_decoded_seconds=hd_s,
                hooked_cold_seconds=hs_cold_s,
                hooked_seconds=hs_s,
            )
        )
    return report
