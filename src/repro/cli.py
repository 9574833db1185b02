"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE.mc``            -- compile and run a MiniC program sequentially.
* ``parallelize FILE.mc``    -- full HELIX pipeline + simulated speedup.
* ``compile FILE.mc``        -- profile, select and transform without
  executing; ``--pass-stats`` prints the runner's per-analysis
  hit/miss/invalidation table.
* ``ir FILE.mc``             -- dump the compiled IR.
* ``bench NAME``             -- run one of the 13 suite benchmarks, on
  the artifact store ``REPRO_EVAL_CACHE`` names (if any);
  ``--sim-timeline [CORES[:PREFETCH]]`` adds one simulated-time track
  per core to its ``--trace``.
* ``suite``                  -- Figure 9 over the whole suite; supports
  ``--jobs N`` (at most N worker processes for the benches the cache
  cannot answer; default one per CPU), ``--cache-dir PATH``
  (persistent artifact cache), ``--stats`` (per-stage wall-clock and
  cache-hit counters, including per-analysis rows) and
  ``--report PATH`` (JSON record with ``analyses``, ``environment``
  and per-core ``timeline`` blocks).
* ``bench-diff BASE HEAD``   -- regression-diff two recorded suite runs
  from the versioned results store (or raw report files); exits nonzero
  when any speedup drops by more than its tolerance.  Every
  ``suite --report`` invocation records its run into the
  store (``--results-dir`` / ``$REPRO_RESULTS_DIR`` /
  ``.repro-results``), so history accumulates by default;
  ``bench-diff --list`` shows it.
* ``serve``                  -- long-running compile/run daemon: a
  JSON-lines protocol over a Unix socket (or ``--host``/``--port``
  TCP) through which concurrent clients submit compile/run/suite
  jobs and stream back observer events; all jobs share one
  content-addressed artifact store, so repeated requests are served
  warm.  SIGTERM drains gracefully.  A job submitted with ``"trace":
  true`` gets its own Perfetto trace on its terminal event;
  ``--heartbeat`` records periodic liveness in the job log.
* ``serve-status``           -- one-shot live introspection of a
  running daemon (queue depth by state, in-flight job ages, worker
  liveness, uptime, metrics registry); ``--json`` for the raw payload,
  ``--prom`` for Prometheus text exposition.

``run``, ``compile``, ``bench`` and ``suite`` also accept ``--trace
PATH`` to record their span stream as Chrome trace-event JSON (loadable
in ui.perfetto.dev or about:tracing) while doing their normal job.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.ir import module_to_str
from repro.obs.metrics import EvaluationObserver
from repro.runtime.machine import MachineConfig


def _load(path: str):
    from repro.api import compile_minic

    source = Path(path).read_text()
    return compile_minic(source, name=Path(path).stem)


def _parse_machine(spec: str) -> MachineConfig:
    """``CORES[:PREFETCH]`` -> a machine, e.g. ``4`` or ``8:matched``.

    An argparse ``type=``: a bad spec is a usage error (exit 2).
    """
    from repro.runtime.machine import PrefetchMode

    cores, _, mode = spec.partition(":")
    try:
        machine = MachineConfig(cores=int(cores))
        if mode:
            machine = machine.with_prefetch(PrefetchMode(mode.lower()))
    except ValueError:
        modes = ", ".join(m.value for m in PrefetchMode)
        raise argparse.ArgumentTypeError(
            f"{spec!r} is not CORES[:PREFETCH] with CORES >= 1 and "
            f"PREFETCH one of {modes}"
        ) from None
    return machine


def _cores(text: str) -> int:
    """A ``--cores`` count (argparse ``type=``): a positive integer."""
    try:
        cores = int(text)
    except ValueError:
        cores = 0
    if cores < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive core count"
        )
    return cores


def _jobs(text: str) -> int:
    """A ``--jobs`` cap (argparse ``type=``): ``0`` (one per CPU) or a
    positive integer."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = -1
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a job count (0 = one per CPU)"
        )
    return jobs


#: Default results-store location (see :func:`_results_dir`).
DEFAULT_RESULTS_DIR = ".repro-results"


def _results_dir(args) -> str:
    """Where bench/suite runs are recorded (empty string disables).

    Resolution order: ``--results-dir``, then ``REPRO_RESULTS_DIR``,
    then ``.repro-results`` in the current directory.
    """
    import os

    value = getattr(args, "results_dir", None)
    if value is None:
        value = os.environ.get("REPRO_RESULTS_DIR", DEFAULT_RESULTS_DIR)
    return value


def _write_json_report(path, report, results_dir=None) -> bool:
    """Writer for the suite's JSON report.

    The report object exposes ``to_json``; an empty/None path
    disables writing.  Returns False (after printing why) when the
    write failed, so callers can turn it into a nonzero exit.

    When ``results_dir`` is non-empty, the run is additionally recorded
    into the versioned :class:`~repro.obs.results.ResultsStore` there
    (content-addressed run id + metrics/environment provenance), which
    is what ``repro bench-diff`` compares.  Recording failures warn but
    never fail the run -- the report file is the primary artifact.
    """
    if path:
        try:
            Path(path).write_text(report.to_json() + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return False
        print(f"report written to {path}", file=sys.stderr)
    if results_dir:
        from repro.obs.results import ResultsStore

        try:
            record = ResultsStore(results_dir).record("suite", report)
        except (OSError, ValueError) as exc:
            print(
                f"warning: results store not updated: {exc}",
                file=sys.stderr,
            )
        else:
            print(
                f"run {record.run_id} ({record.kind}) recorded "
                f"in {results_dir}",
                file=sys.stderr,
            )
    return True


def _traced(args, fn, extra_events=()) -> int:
    """Run ``fn`` under a live tracer when ``--trace PATH`` was given,
    writing the Chrome trace (spans + metrics, then ``extra_events`` as
    ``fn`` left them) on the way out."""
    trace_path = getattr(args, "trace", None)
    if not trace_path:
        return fn()
    from repro.obs import REGISTRY, tracing, write_chrome_trace

    with tracing() as tracer:
        code = fn()
    write_chrome_trace(
        trace_path,
        tracer.finished(),
        registry_snapshot=REGISTRY.snapshot(),
        extra_events=extra_events,
    )
    print(f"trace written to {trace_path}", file=sys.stderr)
    return code


def cmd_run(args) -> int:
    return _traced(args, lambda: _cmd_run(args))


def _cmd_run(args) -> int:
    from repro.runtime.interpreter import run_module

    module = _load(args.file)
    result = run_module(module)
    for line in result.output:
        print(line)
    print(
        f"[{result.instructions:,} instructions, {result.cycles:,} cycles]",
        file=sys.stderr,
    )
    return 0


def cmd_ir(args) -> int:
    print(module_to_str(_load(args.file)))
    return 0


def cmd_parallelize(args) -> int:
    from repro.api import parallelize_and_run

    module = _load(args.file)
    machine = MachineConfig(cores=args.cores)
    result = parallelize_and_run(module, machine)
    print(f"chosen loops:      {result.chosen}")
    print(f"sequential cycles: {result.sequential.cycles:,}")
    print(f"parallel cycles:   {result.parallel.cycles:,}")
    print(f"speedup:           {result.speedup:.2f}x on {args.cores} cores")
    print(f"output identical:  {result.output_matches}")
    if not result.output_matches:
        return 1
    return 0


def cmd_compile(args) -> int:
    return _traced(args, lambda: _cmd_compile(args))


def _cmd_compile(args) -> int:
    """Selection, then Steps 1-9, on a runner that holds the program
    (the daemon's ``compile`` op, on a program that is not a bench)."""
    from repro.core.loopinfo import HelixOptions
    from repro.evaluation.reporting import format_analysis_stats
    from repro.evaluation.runner import EvaluationRunner

    module = _load(args.file)
    runner = EvaluationRunner(MachineConfig(cores=args.cores))
    runner.hold(module.name, module)
    selection = runner.selection(module.name)
    _, infos = runner.transform(
        module.name, selection.chosen, runner.machine, HelixOptions()
    )
    print(f"chosen loops:       {selection.chosen}")
    print(f"parallelized loops: {len(infos)}")
    if args.pass_stats:
        print()
        print(format_analysis_stats(runner.stats.analyses()))
    return 0


def cmd_bench(args) -> int:
    timeline: list = []
    return _traced(args, lambda: _cmd_bench(args, timeline), timeline)


def _cmd_bench(args, timeline: list) -> int:
    """One bench's default pipeline, on a runner over the store
    :func:`~repro.evaluation.runner.default_runner` opens
    (``REPRO_EVAL_CACHE``): a store a suite filled answers it without
    compiling or interpreting anything.  With ``--sim-timeline`` the
    run's simulated per-core timeline goes into ``timeline``."""
    from repro.bench import get_benchmark
    from repro.evaluation.runner import EvaluationRunner, default_runner

    spec = get_benchmark(args.name)
    print(f"{spec.name}: {spec.description}")
    runner = EvaluationRunner(
        MachineConfig(cores=args.cores), cache=default_runner().artifacts
    )
    result = runner.helix_run(args.name)
    print(
        f"speedup {result.speedup:.2f}x on {args.cores} cores "
        f"(paper ~{spec.paper_speedup_6}x on 6)"
    )
    if args.sim_timeline:
        from repro.obs.timeline import run_timeline, timeline_events

        # ``--sim-timeline`` alone replays on the executing machine.
        machine = args.sim_timeline
        if machine is True:
            machine = result.executor.machine
        # Simulated time gets its own trace "process" so Perfetto keeps
        # its cycle clock apart from the wall-clock spans.
        timeline += timeline_events(
            run_timeline(result.executor, machine), machine, pid=0
        )
    return 0 if result.output_matches else 1


def _resolve_run(store, ref):
    """A ``bench-diff`` operand: a run ref in the store, or a JSON file.

    File operands may be raw ``suite --report`` files or serialized
    :class:`RunRecord` payloads; store operands are run-id prefixes,
    ``latest``, or ``latest~N`` over the store's suite runs.
    """
    import json

    path = Path(ref)
    if path.is_file():
        return json.loads(path.read_text())
    return store.load(ref, "suite")


def cmd_bench_diff(args) -> int:
    from repro.obs.results import ResultsStore, diff, format_history

    results_dir = _results_dir(args) or DEFAULT_RESULTS_DIR
    store = ResultsStore(results_dir)
    if args.list:
        runs = store.load_runs("suite")
        print(format_history(runs))
        for problem in store.problems:
            print(f"warning: skipped {problem}", file=sys.stderr)
        return 0
    if args.base is None or args.head is None:
        print(
            "error: bench-diff needs BASE and HEAD (or --list)",
            file=sys.stderr,
        )
        return 2
    tolerances = {}
    for spec in args.tolerance or ():
        pattern, sep, value = spec.partition("=")
        if not sep:
            print(
                f"error: bad --tolerance {spec!r} (want PATTERN=FRACTION)",
                file=sys.stderr,
            )
            return 2
        try:
            tolerances[pattern] = float(value)
        except ValueError:
            print(
                f"error: bad --tolerance fraction {value!r}",
                file=sys.stderr,
            )
            return 2
    try:
        base = _resolve_run(store, args.base)
        head = _resolve_run(store, args.head)
        result = diff(
            base,
            head,
            tolerances=tolerances,
            default_tolerance=args.default_tolerance,
        )
    except (KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(result.render())
    if not result.entries:
        print(
            "error: no comparable metrics between base and head",
            file=sys.stderr,
        )
        return 2
    if not result.ok:
        print(
            f"error: {len(result.regressions)} gated regression(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_serve_status(args) -> int:
    import json

    from repro.service.client import ServiceClient

    try:
        with ServiceClient(
            socket_path=None if args.host is not None else args.socket,
            host=args.host,
            port=args.port,
            timeout=args.timeout,
        ) as client:
            status = client.status()
    except (OSError, ConnectionError) as exc:
        print(f"error: cannot reach daemon: {exc}", file=sys.stderr)
        return 1
    status.pop("event", None)
    status.pop("id", None)
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    if args.prom:
        from repro.obs import prometheus_text, status_gauges

        print(
            prometheus_text(
                status.get("metrics", {}),
                extra_gauges=status_gauges(status),
            ),
            end="",
        )
        return 0
    queue = status.get("queue", {})
    workers = status.get("workers", {})
    print(
        f"daemon run {status.get('run')} "
        f"(protocol {status.get('protocol')}), "
        f"up {status.get('uptime_seconds', 0.0):.1f}s, "
        f"{'accepting' if status.get('accepting') else 'draining'}"
    )
    depth = ", ".join(
        f"{state}={queue[state]}" for state in sorted(queue) if queue[state]
    )
    print(f"queue: {depth or 'empty'}")
    print(
        f"workers: {workers.get('alive', '?')}/"
        f"{workers.get('configured', '?')} alive"
    )
    for job in status.get("in_flight", []):
        bench = f" {job['bench']}" if job.get("bench") else ""
        print(
            f"  running {job['job']} ({job['op']}{bench}) "
            f"for {job['age_seconds']:.1f}s"
        )
    counters = status.get("metrics", {}).get("counters", {})
    if counters:
        print(f"metrics: {len(counters)} counters "
              f"(use --json or --prom for values)")
    return 0


def cmd_suite(args) -> int:
    return _traced(args, lambda: _cmd_suite(args))


class _SuiteProgress(EvaluationObserver):
    """Observer printing one line per finished benchmark (``--stats``):
    the suite runner reports each benchmark's row, wherever it ran, as a
    ``stage="bench"`` completion."""

    def __init__(self) -> None:
        self.done = 0

    def stage_completed(self, job, bench, stage, outcome, seconds) -> None:
        if stage == "bench":
            self.done += 1
            print(
                f"  [{self.done}] {bench}: {seconds:.2f}s", file=sys.stderr
            )


def _cmd_suite(args) -> int:
    from repro.evaluation.parallel_runner import SuiteInterrupted, run_suite
    from repro.evaluation.reporting import (
        format_analysis_stats,
        format_interp_stats,
        format_stage_stats,
    )

    try:
        fig9, report, _runner = run_suite(
            machine=MachineConfig(cores=args.cores),
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            observer=_SuiteProgress() if args.stats else None,
        )
    except SuiteInterrupted as exc:
        # Persist whatever completed before the run stopped, then exit
        # with the conventional SIGINT status, or 1 when a bench failed.
        if exc.bench is None:
            print("suite interrupted", file=sys.stderr)
        else:
            cause = exc.__cause__
            print(
                f"suite failed: {exc.bench}: {type(cause).__name__}: {cause}",
                file=sys.stderr,
            )
        if args.report:
            _write_json_report(args.report, exc.report, _results_dir(args))
        return 130 if exc.bench is None else 1
    print(fig9.render())
    if args.stats:
        print()
        print(format_stage_stats(report.stages))
        if report.analyses:
            print()
            print(format_analysis_stats(report.analyses))
        if report.interp:
            print()
            print(format_interp_stats(report.interp))
        print(f"suite wall-clock: {report.wall_seconds:.2f}s "
              f"(jobs={report.jobs})")
    if args.report:
        env = report.environment
        print(
            "environment: Python {python} ({implementation}) on "
            "{platform}, {cpu_count} cpus, code {code}".format(
                python=env.get("python"),
                implementation=env.get("implementation"),
                platform=env.get("platform"),
                cpu_count=env.get("cpu_count"),
                code=report.code_version,
            ),
            file=sys.stderr,
        )
        if not _write_json_report(args.report, report, _results_dir(args)):
            return 1
    return 0


def cmd_serve(args) -> int:
    import tempfile

    from repro.service.daemon import serve_forever
    from repro.service.orchestrator import Orchestrator

    scratch = None
    cache_dir = args.cache_dir
    if cache_dir is None:
        # The daemon's whole point is cross-request warmth, so it always
        # runs over a cache -- a scratch one when none was given.
        scratch = tempfile.TemporaryDirectory(prefix="repro-serve-cache-")
        cache_dir = scratch.name
    orchestrator = Orchestrator(
        cache=cache_dir,
        workers=args.workers,
        default_timeout=args.job_timeout,
    )
    where = (
        f"{args.host}:{args.port}" if args.host is not None else args.socket
    )
    print(
        f"repro serve: listening on {where} "
        f"(cache {cache_dir}, workers {args.workers})",
        file=sys.stderr,
    )
    try:
        serve_forever(
            orchestrator,
            socket_path=None if args.host is not None else args.socket,
            host=args.host,
            port=args.port,
            drain_timeout=args.drain_timeout,
            log_path=args.log,
            heartbeat=args.heartbeat,
        )
    except KeyboardInterrupt:  # pragma: no cover - loops without signal
        pass                   # handler support fall through to here
    finally:
        if scratch is not None:
            scratch.cleanup()
    print("repro serve: drained", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="HELIX reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace_help = "write a Chrome/Perfetto trace of this command to PATH"
    results_help = (
        "versioned results-store directory recording this run for "
        "`repro bench-diff` (default $REPRO_RESULTS_DIR or "
        f"{DEFAULT_RESULTS_DIR}; empty string disables)"
    )

    p = sub.add_parser("run", help="compile and run a MiniC file")
    p.add_argument("file")
    p.add_argument("--trace", default=None, metavar="PATH", help=trace_help)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ir", help="dump compiled IR of a MiniC file")
    p.add_argument("file")
    p.set_defaults(func=cmd_ir)

    p = sub.add_parser("parallelize", help="HELIX-parallelize and simulate")
    p.add_argument("file")
    p.add_argument("--cores", type=_cores, default=6)
    p.set_defaults(func=cmd_parallelize)

    p = sub.add_parser(
        "compile",
        help="profile, select and transform without executing",
    )
    p.add_argument("file")
    p.add_argument("--cores", type=_cores, default=6)
    p.add_argument(
        "--pass-stats",
        action="store_true",
        help="print the analysis manager's hit/miss/invalidation table",
    )
    p.add_argument("--trace", default=None, metavar="PATH", help=trace_help)
    p.set_defaults(func=cmd_compile)

    bench = sub.add_parser("bench", help="run a suite benchmark")
    bench.add_argument("name")
    bench.add_argument("--cores", type=_cores, default=6)
    bench.add_argument(
        "--trace", default=None, metavar="PATH", help=trace_help
    )
    bench.add_argument(
        "--sim-timeline",
        type=_parse_machine,
        nargs="?",
        const=True,
        default=None,
        metavar="CORES[:PREFETCH]",
        help="add one simulated-time track per core to the trace "
        "(compute/stall/signal/transfer segments), replayed on this "
        "machine (e.g. 4 or 8:matched; default: the executing machine)",
    )
    bench.set_defaults(func=cmd_bench)

    p = sub.add_parser("suite", help="Figure 9 across the whole suite")
    p.add_argument("--cores", type=_cores, default=6)
    p.add_argument(
        "--jobs",
        type=_jobs,
        default=0,
        help="most worker processes for the benchmarks the cache cannot "
        "answer (default 0 = one per CPU)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="persistent evaluation cache directory (warm runs skip "
        "all interpretation)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-stage wall-clock and cache-hit counters",
    )
    p.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write a machine-readable JSON report",
    )
    p.add_argument("--trace", default=None, metavar="PATH", help=trace_help)
    p.add_argument(
        "--results-dir", default=None, metavar="DIR", help=results_help
    )
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "bench-diff",
        help="regression-diff two recorded suite runs",
        description=(
            "Compare two suite runs recorded in the results store (or "
            "raw report/record JSON files).  BASE and HEAD are run-id "
            "prefixes, 'latest', 'latest~N', or file paths.  Exits 1 "
            "when any metric drops by more than its tolerance, 2 on "
            "usage/lookup errors."
        ),
    )
    p.add_argument("base", nargs="?", default=None,
                   help="baseline run ref or report file")
    p.add_argument("head", nargs="?", default=None,
                   help="candidate run ref or report file")
    p.add_argument(
        "--results-dir", default=None, metavar="DIR", help=results_help
    )
    p.add_argument(
        "--tolerance",
        action="append",
        default=None,
        metavar="PATTERN=FRACTION",
        help="per-metric allowed relative drop, fnmatch pattern "
        "(e.g. 'speedups.mcf.*=0.2'); repeatable, most specific wins",
    )
    p.add_argument(
        "--default-tolerance",
        type=float,
        default=0.05,
        metavar="FRACTION",
        help="allowed relative drop for unmatched metrics (default 0.05)",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="list recorded run history instead of diffing",
    )
    p.set_defaults(func=cmd_bench_diff)

    p = sub.add_parser(
        "serve",
        help="run the compile/run daemon (JSON-lines over a socket)",
    )
    p.add_argument(
        "--socket",
        default="repro.sock",
        metavar="PATH",
        help="Unix socket to listen on (default ./repro.sock)",
    )
    p.add_argument(
        "--host",
        default=None,
        metavar="HOST",
        help="listen on TCP HOST:PORT instead of the Unix socket",
    )
    p.add_argument(
        "--port",
        type=int,
        default=0,
        metavar="PORT",
        help="TCP port (0 = ephemeral; only with --host)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="artifact-store cache directory (default: scratch dir "
        "that lives as long as the daemon)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent job-executing worker threads; every job, a "
        "suite included, runs on the thread that takes it (default 2)",
    )
    p.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job wall-clock budget (default unbounded)",
    )
    p.add_argument(
        "--drain-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="grace period for in-flight jobs on SIGTERM (default 60)",
    )
    p.add_argument(
        "--log",
        default=None,
        metavar="PATH",
        help="append every job event to this JSON-lines log "
        "(each line stamped with a sequence number and the run id)",
    )
    p.add_argument(
        "--heartbeat",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="interval between liveness records in the job log "
        "(default 15; <= 0 disables)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "serve-status",
        help="query a running daemon's live status (queue, workers, metrics)",
    )
    p.add_argument(
        "--socket",
        default="repro.sock",
        metavar="PATH",
        help="daemon Unix socket (default ./repro.sock)",
    )
    p.add_argument(
        "--host",
        default=None,
        metavar="HOST",
        help="connect over TCP HOST:PORT instead of the Unix socket",
    )
    p.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="TCP port (only with --host)",
    )
    p.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="connection/read timeout (default 10)",
    )
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", action="store_true",
        help="print the full status payload as JSON",
    )
    fmt.add_argument(
        "--prom", action="store_true",
        help="print metrics in Prometheus text exposition format",
    )
    p.set_defaults(func=cmd_serve_status)

    args = parser.parse_args(argv)
    if getattr(args, "sim_timeline", None) and not args.trace:
        bench.error("--sim-timeline needs --trace")
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print (e.g.
        # `repro bench-diff ... | head`); exit quietly instead of
        # dumping a traceback.  Point stdout at devnull so the
        # interpreter's shutdown flush does not raise again.
        import os
        import sys

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
