"""Execution substrate: the simulated chip multiprocessor.

The paper evaluates HELIX on a physical Intel i7-980X.  This package is the
simulation substitute: a sequential IR interpreter with a per-instruction
cycle cost model (:mod:`repro.runtime.interpreter`), a profiler built on it
(:mod:`repro.runtime.profiler`), the machine description
(:mod:`repro.runtime.machine`) and the parallel executor that reconstructs
the timing of a HELIX-parallelized loop running on a ring of cores with SMT
helper threads (:mod:`repro.runtime.parallel`).
"""

from repro.runtime.machine import CostModel, MachineConfig, PrefetchMode

__all__ = [
    "MachineConfig",
    "CostModel",
    "PrefetchMode",
    "Interpreter",
    "ExecutionResult",
    "RuntimeFault",
    "ExecutionLimitExceeded",
    "run_module",
]


def __getattr__(name: str):
    """The interpreter's names, imported on first use (PEP 562): every
    command imports :mod:`repro.runtime.machine`, and only the ones that
    interpret load the interpreter."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.runtime.interpreter import (  # noqa: F401  (read by name)
        ExecutionLimitExceeded,
        ExecutionResult,
        Interpreter,
        RuntimeFault,
        run_module,
    )

    return locals()[name]
