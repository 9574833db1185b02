"""Regenerate ``golden.json`` from the tree-walking interpreter.

    PYTHONPATH=src python benchmarks/e2e/make_golden.py

The tree walker (``run_module(..., backend="tree")``) is the repo's
oracle: the generated interpreter tiers, the parallel executor and the
caches are all checked against what it says each ``ref`` program prints,
how many instructions it executes and how many cycles that takes on the
paper's machine.  Run this only when a benchmark program or the cost
model changes on purpose; never to make a failing check pass.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import benchmark_names, compile_benchmark
from repro.runtime import run_module
from repro.runtime.machine import MachineConfig


def main() -> None:
    machine = MachineConfig(cores=6)
    benches = {}
    for bench in benchmark_names():
        result = run_module(
            compile_benchmark(bench, "ref"), machine, backend="tree"
        )
        benches[bench] = {
            "output": list(result.output),
            "instructions": result.instructions,
            "cycles": result.cycles,
        }
        print(f"{bench}: {result.instructions} instructions")
    payload = {
        "oracle": 'run_module(compile_benchmark(bench, "ref"), '
                  'MachineConfig(cores=6), backend="tree")',
        "benches": benches,
    }
    path = Path(__file__).with_name("golden.json")
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
