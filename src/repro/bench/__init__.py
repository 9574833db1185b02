"""The benchmark suite: 13 SPEC-CPU2000-like MiniC programs.

The paper evaluates 13 of the 15 C benchmarks of SPEC CPU2000 (176.gcc and
253.perlbmk are excluded there because the pointer analysis runs out of
memory).  SPEC sources and inputs are proprietary, so each program here is
a synthetic MiniC workload written to mirror the *loop structure* of the
original benchmark's hot code -- nesting shape, density of loop-carried
dependences, balance of parallel versus sequential-segment code, and
control/memory irregularity -- which are the properties HELIX's behaviour
depends on.  Every program has a ``train`` and a ``ref`` input scale,
preserving the paper's profile-on-train / measure-on-ref methodology.
"""

from repro.bench.suite import (
    BENCHMARKS,
    BenchmarkSpec,
    benchmark_fingerprint,
    benchmark_names,
    compile_benchmark,
    get_benchmark,
    source_fingerprint,
)

__all__ = [
    "BENCHMARKS",
    "BenchmarkSpec",
    "benchmark_fingerprint",
    "benchmark_names",
    "get_benchmark",
    "compile_benchmark",
    "source_fingerprint",
]
