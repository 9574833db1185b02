"""Top-level public API of the HELIX reproduction.

The three calls most users need::

    module = compile_minic(source_text)          # MiniC -> IR
    result = parallelize(module)                 # profile, select, transform
    outcome = parallelize_and_run(module)        # ... and simulate

``parallelize`` runs the full automatic pipeline of the paper: a profiling
run (training input), loop selection over the dynamic loop nesting graph
with the Equation 1 model, and the Steps 1-9 transformation of every
chosen loop.  ``parallelize_and_run`` additionally executes both versions
on the simulated machine, checks that the parallel program produces
bit-identical output, and reports the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.loopnest import LoopId
from repro.analysis.manager import AnalysisManager
from repro.core.loopinfo import HelixOptions, ParallelizedLoop
from repro.core.parallelizer import parallelize_module
from repro.core.selection import LoopSelection, SelectionConfig, choose_loops
from repro.frontend import compile_source
from repro.ir import Module
from repro.runtime.interpreter import ExecutionResult, run_module
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import (
    LoopRunStats,
    ParallelExecutor,
    ParallelRunResult,
)
from repro.runtime.profiler import ProfileData, profile_module


def compile_minic(source: str, name: str = "program") -> Module:
    """Compile MiniC source text to a verified IR module."""
    return compile_source(source, name)


@dataclass
class HelixResult:
    """Everything produced by one end-to-end HELIX run."""

    original: Module
    transformed: Module
    infos: List[ParallelizedLoop]
    selection: Optional[LoopSelection]
    machine: MachineConfig
    profile: Optional[ProfileData] = None
    sequential: Optional[ExecutionResult] = None
    parallel: Optional[ParallelRunResult] = None
    executor: Optional[ParallelExecutor] = None

    @property
    def chosen_loops(self) -> List[LoopId]:
        return [info.loop_id for info in self.infos]

    @property
    def speedup(self) -> float:
        """Whole-program speedup: sequential cycles / parallel cycles."""
        if self.sequential is None or self.parallel is None:
            raise ValueError("run the programs first (parallelize_and_run)")
        if self.parallel.cycles <= 0:
            return 1.0
        return self.sequential.cycles / self.parallel.cycles

    @property
    def output_matches(self) -> bool:
        """Whether parallel execution reproduced the sequential output."""
        if self.sequential is None or self.parallel is None:
            raise ValueError("run the programs first (parallelize_and_run)")
        return self.sequential.output == self.parallel.output

    def loop_stats(self) -> Dict[LoopId, LoopRunStats]:
        if self.parallel is None:
            return {}
        return self.parallel.loop_stats


def parallelize(
    module: Module,
    machine: Optional[MachineConfig] = None,
    options: Optional[HelixOptions] = None,
    selection_config: Optional[SelectionConfig] = None,
    loop_ids: Optional[Sequence[LoopId]] = None,
    train_module: Optional[Module] = None,
    profile: Optional[ProfileData] = None,
    manager: Optional[AnalysisManager] = None,
) -> HelixResult:
    """Run the automatic pipeline: profile, select, transform.

    ``loop_ids`` overrides automatic selection; ``train_module`` supplies a
    separate training-input build of the program for profiling (defaults
    to ``module`` itself); a precomputed ``profile`` skips the profiling
    run entirely.  ``manager`` supplies a shared versioned analysis cache
    (one is created per call otherwise).
    """
    machine = machine or MachineConfig()
    manager = manager or AnalysisManager()
    selection = None
    if loop_ids is None:
        if profile is None:
            profile = profile_module(train_module or module, machine)
        config = selection_config or SelectionConfig(
            machine=machine, cores=machine.cores
        )
        selection = choose_loops(module, profile, config, manager=manager)
        loop_ids = selection.chosen
    transformed, infos = parallelize_module(
        module, loop_ids, machine, options, manager=manager
    )
    return HelixResult(
        original=module,
        transformed=transformed,
        infos=infos,
        selection=selection,
        machine=machine,
        profile=profile,
    )


def parallelize_and_run(
    module: Module,
    machine: Optional[MachineConfig] = None,
    options: Optional[HelixOptions] = None,
    selection_config: Optional[SelectionConfig] = None,
    loop_ids: Optional[Sequence[LoopId]] = None,
    train_module: Optional[Module] = None,
    manager: Optional[AnalysisManager] = None,
) -> HelixResult:
    """Full pipeline plus simulation of both versions."""
    result = parallelize(
        module,
        machine=machine,
        options=options,
        selection_config=selection_config,
        loop_ids=loop_ids,
        train_module=train_module,
        manager=manager,
    )
    result.sequential = run_module(module, result.machine)
    executor = ParallelExecutor(
        result.transformed, result.infos, result.machine
    )
    result.parallel = executor.execute()
    result.executor = executor
    return result
