"""End-to-end benchmark ledger for the HELIX reproduction.

Four workloads (cold suite, warm suite, machine sweep, serve mix), each
measured end to end with tracing off and then once more through a traced
pass that attributes the time to the packages under ``src/repro``.  See
``README.md`` in this directory; ``BENCHMARK.json`` at the repository
root is the machine-readable contract.

Only :mod:`benchmarks.e2e.child` imports ``repro`` at module level, and
it only ever runs in a child process: the harness itself measures from
outside.
"""
