"""repro -- a from-scratch reproduction of HELIX (Campanoni et al., CGO 2012).

HELIX parallelizes loops of irregular sequential programs by running
successive iterations on a ring of cores, synchronizing loop-carried
dependences with ``wait``/``signal`` pairs, minimizing the number and cost
of those signals, and picking which loops to parallelize with a
profile-driven analytical model.

The package is organized as the original system was:

* :mod:`repro.ir` -- the compiler IR (ILDJIT's role).
* :mod:`repro.frontend` -- MiniC, a C-subset frontend (GCC4CLI's role).
* :mod:`repro.analysis` -- CFG/dataflow/pointer/dependence analyses.
* :mod:`repro.transform` -- inlining and loop normalization (Step 1).
* :mod:`repro.core` -- the HELIX algorithm itself (Steps 1-9 and the
  loop-selection heuristic of Section 2.2).
* :mod:`repro.runtime` -- interpreter, profiler, and the cycle-level chip
  multiprocessor simulator standing in for the Intel i7-980X testbed.
* :mod:`repro.bench` -- 13 SPEC-CPU2000-like benchmark programs.
* :mod:`repro.evaluation` -- harness regenerating every paper table/figure.

Quickstart::

    from repro import compile_minic, parallelize_and_run, MachineConfig

    module = compile_minic(source_text)
    result = parallelize_and_run(module, machine=MachineConfig(cores=6))
    print(result.speedup)
"""

__version__ = "1.0.0"

__all__ = [
    "compile_minic",
    "parallelize_and_run",
    "MachineConfig",
    "__version__",
]


def __getattr__(name: str):
    """The quickstart's names, imported on first use (PEP 562): ``import
    repro`` loads no other module, so a command that never compiles
    never pays for the frontend, the analyses or Steps 1-9."""
    if name == "compile_minic":
        from repro.api import compile_minic

        return compile_minic
    if name == "parallelize_and_run":
        from repro.api import parallelize_and_run

        return parallelize_and_run
    if name == "MachineConfig":
        from repro.runtime.machine import MachineConfig

        return MachineConfig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
