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
from repro.runtime.interpreter import (
    ExecutionLimitExceeded,
    ExecutionResult,
    Interpreter,
    RuntimeFault,
    run_module,
)
from repro.runtime.profiler import LoopProfile, ProfileData, profile_module
from repro.runtime.parallel import ParallelExecutor, ParallelRunResult
from repro.runtime.trace import InvocationTrace, Recording

__all__ = [
    "MachineConfig",
    "CostModel",
    "PrefetchMode",
    "Interpreter",
    "ExecutionResult",
    "RuntimeFault",
    "ExecutionLimitExceeded",
    "run_module",
    "profile_module",
    "ProfileData",
    "LoopProfile",
    "ParallelExecutor",
    "ParallelRunResult",
    "Recording",
    "InvocationTrace",
]
