"""Child-process side of the benchmark: everything that imports ``repro``.

Run as ``python -m benchmarks.e2e.child OP ...`` by the harness, one
child at a time; the last line of standard output is one JSON object.

* ``startup`` -- what every CLI invocation pays before it dispatches.
* ``verify`` -- program outputs, instruction counts and cycles stored
  in a cache directory, for comparison with ``golden.json``.
* ``sweep`` -- the ``machine_sweep`` rep: warm ``run_suite`` load, then
  the timed replay of every benchmark over a machine grid.
* ``traced-suite`` -- the traced pass of the three suite-shaped
  workloads: the same work as ``repro suite`` (and then the sweep),
  performed through the layers' public entry points in the same order,
  each call under a span of :mod:`benchmarks.e2e.spans`.

Layer probes fail soft: a probe that cannot find the name it needs
warns on standard error and leaves its metric out, so a later module
merge degrades the ledger instead of crashing it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from benchmarks.e2e.spans import HARNESS, SpanRecorder, spans_to_dicts

#: Stages whose work is interpretation; cold must compute all of them
#: and warm must read all of them from disk.
INTERPRETATION_STAGES = ("profile", "sequential", "execute")


def soft(counts: Dict[str, float], name: str, probe: Callable[[], float]) -> None:
    """Run one layer probe; a failure warns and leaves ``name`` out."""
    try:
        counts[name] = probe()
    except Exception as exc:  # probes reach into names a merge may move
        print(f"warning: probe {name} failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)


def machines_from(grid: List[dict]):
    """The machine grid the harness drew, as ``MachineConfig`` objects."""
    import dataclasses

    from repro.runtime.machine import MachineConfig, PrefetchMode

    base = MachineConfig(cores=6)
    return [
        dataclasses.replace(
            base,
            cores=cell["cores"],
            prefetch_mode=PrefetchMode(cell["prefetch"]),
            signal_latency=cell["latency"],
            word_transfer_cycles=cell["latency"],
        )
        for cell in grid
    ]


def program_results(runner, parallel: bool = True) -> Dict[str, dict]:
    """Per-benchmark facts that ``golden.json`` pins; ``parallel`` adds
    what the parallel run printed (restoring it costs a second)."""
    results = {}
    for bench in runner.benches():
        sequential = runner.sequential(bench)
        results[bench] = {
            "output": list(sequential.output),
            "instructions": sequential.instructions,
            "cycles": sequential.cycles,
        }
        if parallel:
            run = runner.helix_run(bench)
            results[bench]["parallel_output"] = list(run.parallel.result.output)
            results[bench]["speedup_6c"] = run.speedup
    return results


# ------------------------------------------------------------------ startup


def op_startup(args) -> dict:
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (the import is the measurement)
    from repro.evaluation.cache import code_version

    code_version()
    return {"startup_s": time.perf_counter() - start}


# ------------------------------------------------------------------- verify


def op_verify(args) -> dict:
    from repro.evaluation.cache import EvaluationCache
    from repro.evaluation.runner import EvaluationRunner
    from repro.runtime.machine import MachineConfig

    runner = EvaluationRunner(
        MachineConfig(cores=6), cache=EvaluationCache(args.cache)
    )
    # ``repro suite`` itself asserts that every parallel run printed
    # what the sequential run did, and its exit code is checked.
    results = program_results(runner, parallel=False)
    return {
        "programs": results,
        "recomputed": runner.stats.tally("sequential").computes,
    }


# -------------------------------------------------------------------- sweep


def op_sweep(args) -> dict:
    grid = json.loads(Path(args.grid).read_text())
    start = time.perf_counter()
    from repro.evaluation.parallel_runner import run_suite

    _fig9, _report, runner = run_suite(cache_dir=args.cache)
    load_s = time.perf_counter() - start

    machines = machines_from(grid)
    speedups: Dict[str, List[float]] = {}
    bench_s: Dict[str, float] = {}
    for bench in runner.benches():
        run = runner.helix_run(bench)
        start = time.perf_counter()
        speedups[bench] = run.speedups_at(machines)
        bench_s[bench] = time.perf_counter() - start
    return {
        "load_s": load_s,
        "bench_s": bench_s,
        "speedups": speedups,
        "programs": program_results(runner),
    }


# ------------------------------------------------------------- traced suite


def timed_cache(root: str, rec: SpanRecorder, traffic: Dict[str, float]):
    """An ``EvaluationCache`` whose loads and stores are spans; defined
    here and injected through ``EvaluationRunner(cache=...)``."""
    from repro.evaluation.cache import EvaluationCache

    class TimedCache(EvaluationCache):
        def _size(self, kind: str, key: str) -> int:
            try:
                return (Path(self.root) / kind / f"{key}.json").stat().st_size
            except OSError:
                return 0

        def load(self, kind, key):
            with rec.span(f"load:{kind}", "evaluation.cache_load"):
                payload = super().load(kind, key)
            if payload is not None:
                traffic["load_bytes"] += self._size(kind, key)
            return payload

        def store(self, kind, key, payload):
            with rec.span(f"store:{kind}", "evaluation.cache_store"):
                super().store(kind, key, payload)
            traffic["store_bytes"] += self._size(kind, key)

    return TimedCache(root)


@dataclass
class TracedPass:
    """What the traced pass leaves behind for the count probes."""

    runner: Any
    cache_dir: str
    traffic: Dict[str, float]
    #: Machines every trace was scheduled on (beyond the baseline).
    columns: int
    modules: List[Any] = field(default_factory=list)
    sequentials: List[Any] = field(default_factory=list)
    selections: List[Any] = field(default_factory=list)
    runs: Dict[str, Any] = field(default_factory=dict)

    def traces(self) -> int:
        return sum(len(run.parallel.traces) for run in self.runs.values())

    def analysis(self, column: str) -> float:
        return sum(
            row[column]
            for name, row in self.runner.stats.as_dict().items()
            if name.startswith("analysis:")
        )

    def stages(self, column: str) -> int:
        return sum(
            getattr(self.runner.stats.tally(stage), column)
            for stage in INTERPRETATION_STAGES
        )

    def disk(self, column: str) -> int:
        return sum(
            row[column] for row in self.runner.cache.traffic().values()
        )

    def interp(self, counter: str) -> float:
        from repro.obs import REGISTRY

        return REGISTRY.snapshot()["counters"].get(counter, 0)


def null_span_ns(done: TracedPass) -> float:
    """Cost of entering the program's own tracer while it is disabled."""
    from repro.obs import get_tracer

    tracer = get_tracer()
    rounds = 100_000
    start = time.perf_counter()
    for _ in range(rounds):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - start) / rounds * 1e9


#: Every count the traced pass reports, and how it is read.
COUNT_PROBES: Dict[str, Callable[[TracedPass], float]] = {
    "frontend.ir_instrs": lambda t: sum(
        len(block.instructions)
        for module in t.modules
        for function in module.functions.values()
        for block in function.blocks.values()
    ),
    "analysis.requests": lambda t: t.analysis("requests"),
    "analysis.misses": lambda t: t.analysis("computes"),
    "analysis.invalidations": lambda t: t.analysis("invalidations"),
    "analysis.busy_s": lambda t: t.analysis("wall_seconds"),
    "core.loops_candidates": lambda t: sum(
        len(s.candidates) for s in t.selections
    ),
    "core.loops_chosen": lambda t: sum(len(s.chosen) for s in t.selections),
    "runtime.interp_instrs": lambda t: sum(
        s.instructions for s in t.sequentials
    ),
    "runtime.traces": TracedPass.traces,
    "runtime.sched_invocations": lambda t: t.traces() * t.columns,
    "runtime.sim_seq_cycles": lambda t: sum(s.cycles for s in t.sequentials),
    "runtime.sim_par_cycles_6c": lambda t: sum(
        run.parallel.cycles for run in t.runs.values()
    ),
    "runtime.codegen_functions": lambda t: t.interp("interp.codegen.functions"),
    "runtime.codegen_cache_hits": lambda t: t.interp("interp.codegen.cache.hit"),
    "runtime.codegen_cache_misses": lambda t: t.interp(
        "interp.codegen.cache.miss"
    ),
    "evaluation.cache_load_mb": lambda t: t.traffic["load_bytes"] / 1e6,
    "evaluation.cache_store_mb": lambda t: t.traffic["store_bytes"] / 1e6,
    "evaluation.cache_hits": lambda t: t.disk("hits"),
    "evaluation.cache_misses": lambda t: t.disk("misses"),
    "evaluation.cache_entries": lambda t: sum(
        1 for _ in Path(t.cache_dir).rglob("*.json")
    ),
    "evaluation.stage_computes": lambda t: t.stages("computes"),
    "evaluation.stage_disk_hits": lambda t: t.stages("disk_hits"),
    "evaluation.stage_memory_hits": lambda t: t.stages("memory_hits"),
    "artifacts.sched_memo_entries": lambda t: (
        t.runner.artifacts.counters()["schedules"]["columns"]
    ),
    "artifacts.codegen_stores": lambda t: (
        t.runner.artifacts.counters()["artifacts"]
        .get("codegen", {}).get("stores", 0)
    ),
    "obs.null_span_ns": null_span_ns,
}


def op_traced_suite(args) -> dict:
    rec = SpanRecorder()
    grid = json.loads(Path(args.grid).read_text()) if args.grid else None

    with rec.span("rep", HARNESS):
        with rec.span("import", "cli.startup"):
            import repro.cli  # noqa: F401
            from repro.evaluation import figures
            from repro.evaluation.cache import code_version
            from repro.evaluation.parallel_runner import (
                SuiteReport,
                suite_environment,
            )
            from repro.evaluation.runner import EvaluationRunner
            from repro.obs.timeline import timeline_block
            from repro.runtime.machine import MachineConfig

            code_version()

        machine = MachineConfig(cores=6)
        traffic = {"load_bytes": 0.0, "store_bytes": 0.0}
        runner = EvaluationRunner(
            machine, cache=timed_cache(args.cache, rec, traffic)
        )
        stats = runner.stats
        swept = [machine.with_cores(c) for c in (2, 4)]
        done = TracedPass(
            runner, args.cache, traffic,
            columns=len(swept) + (len(grid) if grid else 0),
        )

        def stage(name: str, stage_name: str, computed: str, restored: str,
                  call: Callable[[], Any]):
            """One stage request under a span named for what it turned
            out to be: a computation or a restore from disk."""
            before = stats.tally(stage_name).computes
            with rec.span(name, restored) as span:
                result = call()
                if stats.tally(stage_name).computes > before:
                    span.layer = computed
            return result, span

        for bench in runner.benches():
            with rec.span(bench, HARNESS):
                for scale in ("train", "ref"):
                    module, _ = stage(
                        f"module:{scale}", "compile",
                        "frontend.compile", "ir.parse",
                        lambda: runner.module(bench, scale),
                    )
                    done.modules.append(module)
                stage("profile", "profile", "runtime.profile",
                      "runtime.restore", lambda: runner.profile(bench))
                sequential, _ = stage(
                    "sequential", "sequential", "runtime.sequential",
                    "runtime.restore", lambda: runner.sequential(bench),
                )
                done.sequentials.append(sequential)
                with rec.span("selection", "core.selection"):
                    done.selections.append(runner.selection(bench))
                transform_before = stats.tally("transform").wall_seconds
                run, span = stage(
                    "pipeline", "execute", "runtime.execute",
                    "runtime.restore", lambda: runner.helix_run(bench),
                )
                # The transformation runs first thing inside pipeline();
                # its extent comes from the runner's own stage timer.
                transform_s = (
                    stats.tally("transform").wall_seconds - transform_before
                )
                rec.add("transform", "core.transform", span.start,
                        span.start + transform_s, parent=span.id)
                with rec.span("replay", "runtime.replay"):
                    run.speedups_at(swept)
                done.runs[bench] = run

        # Everything figure9 asks for is memoized by now, so its span is
        # the figure's own work without the replays above.
        with rec.span("figure9", "evaluation.figure9"):
            fig9 = figures.figure9(runner)
        with rec.span("render", "evaluation.render"):
            text = fig9.render()
        print(text)

        report = SuiteReport(
            jobs=1,
            cores=machine.cores,
            cache_dir=args.cache,
            code_version=code_version(),
            environment=suite_environment(),
        )
        for bench, run in done.runs.items():
            with rec.span(f"timeline:{bench}", "obs.timeline"):
                report.timeline[bench] = timeline_block(run.executor)
        with rec.span("report", "obs.report"):
            report.stages = stats.as_dict()
            report.speedups = {
                bench: {str(c): s for c, s in row.items()}
                for bench, row in fig9.speedups.items()
            }
            report.geomeans = {
                str(c): fig9.geomean(c) for c in fig9.core_counts
            }
            report.cache_traffic = runner.cache.traffic()
            Path(args.report).write_text(report.to_json() + "\n")

        sweep_root = None
        if grid is not None:
            machines = machines_from(grid)
            with rec.span("sweep", HARNESS) as sweep_root:
                for bench, run in done.runs.items():
                    with rec.span(f"sweep:{bench}", "runtime.replay"):
                        run.speedups_at(machines)

    counts: Dict[str, float] = {}
    for name, probe in COUNT_PROBES.items():
        soft(counts, name, lambda: probe(done))
    return {
        "spans": spans_to_dicts(rec.spans),
        "sweep_root": sweep_root.id if sweep_root is not None else None,
        "counts": counts,
        "programs": program_results(runner),
    }


OPS = {
    "startup": op_startup,
    "verify": op_verify,
    "sweep": op_sweep,
    "traced-suite": op_traced_suite,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("op", choices=sorted(OPS))
    parser.add_argument("--cache", default=None)
    parser.add_argument("--grid", default=None)
    parser.add_argument("--report", default=os.devnull)
    args = parser.parse_args(argv)
    result = OPS[args.op](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
