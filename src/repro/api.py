"""Top-level public API of the HELIX reproduction.

The two calls most users need::

    module = compile_minic(source_text)          # MiniC -> IR
    result = parallelize_and_run(module)         # profile, select,
                                                 # transform, simulate

``parallelize_and_run`` runs the full automatic pipeline of the paper
on an :class:`~repro.evaluation.runner.EvaluationRunner` that holds the
module: a profiling run (training input), loop selection over the
dynamic loop nesting graph with the Equation 1 model, the Steps 1-9
transformation of every chosen loop, and the execution of both versions
on the simulated machine.  It returns the runner's
:class:`~repro.evaluation.runner.PipelineRun`: the chosen loops, the
selection, the transformed module, both runs, whether the parallel
program reproduced the sequential output bit for bit, and the speedup.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.loopnest import LoopId
from repro.core.loopinfo import HelixOptions
from repro.frontend.lower import compile_source
from repro.ir import Module
from repro.runtime.machine import MachineConfig

if TYPE_CHECKING:
    from repro.evaluation.runner import PipelineRun


def compile_minic(source: str, name: str = "program") -> Module:
    """Compile MiniC source text to a verified IR module."""
    return compile_source(source, name)


def parallelize_and_run(
    module: Module,
    machine: Optional[MachineConfig] = None,
    options: Optional[HelixOptions] = None,
    loop_ids: Optional[Sequence[LoopId]] = None,
    train_module: Optional[Module] = None,
) -> "PipelineRun":
    """Profile, select, transform and simulate ``module`` on ``machine``.

    ``loop_ids`` overrides automatic selection; ``train_module`` is a
    separate training-input build of the program to profile (``module``
    itself by default).  Each call asks a fresh runner with no store
    root that holds the program under ``module.name``.
    """
    # Imported here: ``import repro`` stays clear of the evaluation and
    # service layers the runner brings in.
    from repro.evaluation.runner import EvaluationRunner

    machine = machine or MachineConfig()
    runner = EvaluationRunner(machine)
    runner.hold(module.name, module, train_module)
    return runner.pipeline(
        module.name,
        options=options,
        prefetch=machine.prefetch_mode,
        loop_ids=loop_ids,
    )
