"""The four workloads: what one run of each does, measures and checks.

Every workload function takes a :class:`Context` and returns an
:class:`Outcome`.  Untraced reps give the end-to-end metrics; with
``trace`` set the run then makes one traced rep (after one untraced rep
as its baseline) and the outcome also carries the per-layer metrics and
the spans they were computed from.
"""

from __future__ import annotations

import json
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from benchmarks.e2e import procs
from benchmarks.e2e.child import INTERPRETATION_STAGES
from benchmarks.e2e.hostprobe import Host, Window
from benchmarks.e2e.spans import (
    HARNESS,
    Span,
    SpanRecorder,
    coverage,
    layer_seconds,
    spans_from_dicts,
)
from benchmarks.e2e.stats import fastest_by_part, median, tail_percentile

HERE = Path(__file__).resolve().parent

# machine_sweep: 80 of the 160 machines of this grid, four latencies for
# each (cores, prefetch mode) pair so that every seed draws a grid of
# the same shape and cost.
GRID_CORES = (2, 3, 4, 5, 6)
GRID_PREFETCH = ("none", "helix", "matched", "ideal")
GRID_LATENCIES = (4, 8, 16, 32, 64, 110, 160, 220)
LATENCIES_PER_PAIR = 4

# serve_mix: 24 keys, each submitted once cold, then 120 warm jobs from
# each of two closed-loop clients.
SERVE_BENCHES = (
    "art", "mcf", "crafty", "equake", "gap", "ammp", "parser", "vortex",
)
SERVE_CORES = (2, 4, 6)
SERVE_CLIENTS = 2
WARM_JOBS_PER_CLIENT = 120

#: Fewest timed reps of a run.  This host's noise only ever adds time
#: (slow spells of seconds to tens of seconds on shared cores), so the
#: repeatable workloads report the fastest of a fixed number of reps.
#: A third rep bought no steadiness in measurement: what is left after
#: two is drift slower than a run.
WARM_REPS = 2
SWEEP_REPS = 2

#: Fresh-process samples behind ``setup_s`` of suite_cold / serve_mix.
STARTUP_SAMPLES = 5
SPAWN_SAMPLES = 3

#: Layers whose busy seconds (sum of span self times) are reported as
#: ``<layer>_s``.
TIMED_LAYERS = (
    "frontend.compile", "ir.parse", "core.selection", "core.transform",
    "runtime.profile", "runtime.sequential", "runtime.execute",
    "runtime.restore", "runtime.replay", "evaluation.cache_store",
    "evaluation.cache_load", "evaluation.figure9", "evaluation.render",
    "obs.timeline", "obs.report", "cli.startup",
)

#: Layer of a ``stage_completed`` event of the service protocol, by
#: (stage, outcome); memory hits cost nothing and get no span.
STAGE_LAYERS = {
    ("compile", "compute"): "frontend.compile",
    ("compile", "disk"): "ir.parse",
    ("profile", "compute"): "runtime.profile",
    ("profile", "disk"): "runtime.restore",
    ("sequential", "compute"): "runtime.sequential",
    ("sequential", "disk"): "runtime.restore",
    ("selection", "compute"): "core.selection",
    ("transform", "compute"): "core.transform",
    ("execute", "compute"): "runtime.execute",
    ("execute", "disk"): "runtime.restore",
}


class Checks:
    """Operations attempted and failed; feeds ``failed_share``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Context:
    cwd: Path
    seed: int
    seconds: float
    golden: Dict[str, dict]
    paper: Dict[str, float]
    checks: Checks = field(default_factory=Checks)
    #: Every end-to-end time is taken inside one of its windows and
    #: reported in calibrated seconds (see :mod:`hostprobe`).
    host: Host = field(default_factory=Host)


@dataclass
class Outcome:
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float] = field(default_factory=dict)
    #: Raw samples behind the medians, for the ledger file.
    samples: Dict[str, List[float]] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)


def load_references() -> Tuple[Dict[str, dict], Dict[str, float]]:
    golden = json.loads((HERE / "golden.json").read_text())
    paper = json.loads((HERE / "paper_fig9.json").read_text())
    return golden["benches"], paper["speedup_6_cores"]


# ----------------------------------------------------------- seeded inputs


def machine_grid(seed: int) -> List[dict]:
    """The 80 machines of one sweep, drawn by ``seed``."""
    rng = random.Random(f"grid:{seed}")
    grid = [
        {"cores": cores, "prefetch": prefetch, "latency": latency}
        for cores in GRID_CORES
        for prefetch in GRID_PREFETCH
        for latency in sorted(rng.sample(GRID_LATENCIES, LATENCIES_PER_PAIR))
    ]
    rng.shuffle(grid)
    return grid


def job_mix(seed: int) -> Tuple[List[tuple], List[List[tuple]]]:
    """Phase A: the 24 keys in seeded order.  Phase B: per client, the
    keys of its warm jobs, every key equally often in seeded order (so
    that two seeds differ in order and not in how much work they ask)."""
    keys = [(b, c) for b in SERVE_BENCHES for c in SERVE_CORES]
    rng = random.Random(f"jobs:{seed}")
    cold = list(keys)
    rng.shuffle(cold)
    warm = []
    for _ in range(SERVE_CLIENTS):
        jobs = keys * (WARM_JOBS_PER_CLIENT // len(keys))
        rng.shuffle(jobs)
        warm.append(jobs)
    return cold, warm


# ------------------------------------------------------------- correctness


def check_programs(
    checks: Checks, golden: Dict[str, dict], programs: Dict[str, dict],
    where: str,
) -> None:
    """One attempted operation per benchmark: everything the run says
    about the program equals what the tree walker said."""
    for bench, want in golden.items():
        got = programs.get(bench, {})
        same = (
            got.get("output") == want["output"]
            and got.get("parallel_output", want["output"]) == want["output"]
            and got.get("instructions") == want["instructions"]
            and got.get("cycles") == want["cycles"]
        )
        checks.expect(same, f"{where}: {bench} differs from golden.json")


def fig9_rel_err(speedups: Dict[str, float], paper: Dict[str, float]) -> float:
    """Mean over the benchmarks run of |measured / paper - 1| at 6 cores."""
    errors = [abs(speedups[b] / paper[b] - 1.0) for b in speedups]
    return sum(errors) / len(errors)


def child_json(ctx: Context, child: procs.Child, what: str) -> dict:
    """The JSON object a helper child printed last; its exit code is one
    attempted operation, and nothing can be measured without it."""
    if not ctx.checks.expect(
        child.returncode == 0, f"{what} exited {child.returncode}"
    ):
        raise RuntimeError(child.stderr.read_text()[-2000:])
    return json.loads(child.last_line())


def verify_cache(ctx: Context, cache_dir: Path, tag: str) -> None:
    """Compare what a cache directory holds with ``golden.json``, and
    require that reading it back recomputed nothing."""
    out = child_json(
        ctx,
        procs.run_child(
            ["-m", "benchmarks.e2e.child", "verify", "--cache", str(cache_dir)],
            f"{tag}.verify", ctx.cwd,
        ),
        f"{tag}: verify child",
    )
    check_programs(ctx.checks, ctx.golden, out["programs"], tag)
    ctx.checks.expect(
        out["recomputed"] == 0, f"{tag}: cache did not hold every stage"
    )


# ------------------------------------------------------------ suite reps


@dataclass
class SuiteRep:
    wall_s: float
    rss_mb: float
    fig9_text: str
    speedups_6c: Dict[str, float]
    stages: Dict[str, dict]


def suite_rep(ctx: Context, cache_dir: Path, tag: str) -> SuiteRep:
    """One ``repro suite`` process against ``cache_dir``."""
    report_path = ctx.cwd / f"{tag}.report.json"
    with ctx.host.window() as window:
        child = procs.run_child(
            procs.SUITE_ARGS
            + ["--cache-dir", str(cache_dir), "--report", str(report_path)],
            tag, ctx.cwd,
        )
    ok = ctx.checks.expect(
        child.returncode == 0, f"{tag}: repro suite exited {child.returncode}"
    )
    if not ok:
        raise RuntimeError(child.stderr.read_text()[-2000:])
    report = json.loads(report_path.read_text())
    return SuiteRep(
        wall_s=window.seconds(child.wall_s),
        rss_mb=child.rss_mb,
        fig9_text=child.stdout.read_text(),
        speedups_6c={b: row["6"] for b, row in report["speedups"].items()},
        stages=report["stages"],
    )


def check_stages(ctx: Context, rep: SuiteRep, tag: str, outcome: str) -> None:
    """A cold rep computes every interpretation stage; a warm rep reads
    every one from disk.  Guards that a workload is what its name says."""
    other = "disk_hits" if outcome == "computes" else "computes"
    ok = all(
        rep.stages[s][outcome] > 0 and rep.stages[s][other] == 0
        for s in INTERPRETATION_STAGES
    )
    ctx.checks.expect(ok, f"{tag}: interpretation stages were not all {outcome}")


def repeat(
    seconds: float, rep: Callable[[int], float], at_least: int = 1
) -> None:
    """Call ``rep(i)``, which returns the seconds it timed, until the
    timed seconds add up to ``seconds`` and ``at_least`` reps are in."""
    timed, i = 0.0, 0
    while timed < seconds or i < at_least:
        timed += rep(i)
        i += 1


def traced_suite(
    ctx: Context, cache_dir: Path, tag: str, grid_path: Optional[Path] = None
) -> Tuple[procs.Child, Window, dict, List[Span]]:
    """The traced pass of a suite-shaped workload, in a fresh process;
    the window it ran in calibrates its wall like an untraced rep's."""
    args = ["-m", "benchmarks.e2e.child", "traced-suite",
            "--cache", str(cache_dir),
            "--report", str(ctx.cwd / f"{tag}.report.json")]
    if grid_path is not None:
        args += ["--grid", str(grid_path)]
    with ctx.host.window() as window:
        child = procs.run_child(args, tag, ctx.cwd)
    out = child_json(ctx, child, f"{tag}: traced suite child")
    check_programs(ctx.checks, ctx.golden, out["programs"], tag)
    return child, window, out, spans_from_dicts(out["spans"], trace=tag)


def suite_layers(
    out: dict, spans: List[Span], traced_wall: float, window: Window,
    untraced_wall: float, region: Optional[List[Span]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced suite pass, in raw seconds.

    ``traced_wall`` is raw like the spans; only the comparison with
    ``untraced_wall``, which is calibrated, goes through ``window``.
    ``region`` narrows coverage to the spans of the timed region when
    the workload times less than the whole child (``machine_sweep``).
    """
    seconds = layer_seconds(spans)
    layers = {f"{layer}_s": seconds.get(layer, 0.0) for layer in TIMED_LAYERS}
    layers.update(out["counts"])
    sequential_s = layers["runtime.sequential_s"]
    layers["runtime.interp_minstr_per_s"] = (
        layers["runtime.interp_instrs"] / sequential_s / 1e6
        if sequential_s else 0.0
    )
    invocations = layers["runtime.sched_invocations"]
    layers["runtime.sched_us_per_invocation"] = (
        layers["runtime.replay_s"] / invocations * 1e6 if invocations else 0.0
    )
    layers["trace.coverage"] = coverage(region or spans, traced_wall)
    layers["trace.overhead_ratio"] = window.seconds(traced_wall) / untraced_wall
    return layers


def descendants(spans: List[Span], root: int) -> List[Span]:
    """``root`` and every span below it (a recorder lists a parent
    before its children, so one pass finds them all)."""
    keep = {root}
    for span in spans:
        if span.parent in keep:
            keep.add(span.id)
    return [span for span in spans if span.id in keep]


def suite_outcome(
    ctx: Context, setups: List[float], reps: List[SuiteRep], cache_mb: float,
    trace: bool, traced_cache: Path, tag: str,
) -> Outcome:
    """End-to-end metrics of the untraced reps of a suite workload and,
    with ``trace``, the per-layer metrics of one traced pass."""
    walls = [r.wall_s for r in reps]
    outcome = Outcome(
        end_to_end={
            "setup_s": median(setups),
            "wall_s": min(walls),
            "peak_rss_mb": median([r.rss_mb for r in reps]),
            "cache_mb": cache_mb,
            "fig9_rel_err": fig9_rel_err(reps[-1].speedups_6c, ctx.paper),
        },
        samples={"setup_s": setups, "wall_s": walls},
    )
    if trace:
        child, window, out, spans = traced_suite(ctx, traced_cache, tag)
        outcome.per_layer = suite_layers(
            out, spans, child.wall_s, window, median(walls)
        )
        outcome.spans = spans
    return outcome


# ---------------------------------------------------------------- suite_cold


def suite_cold(ctx: Context, trace: bool) -> Outcome:
    startups = []
    with ctx.host.window() as window:
        for i in range(STARTUP_SAMPLES):
            child = procs.run_child(
                ["-m", "benchmarks.e2e.child", "startup"], f"startup{i}",
                ctx.cwd,
            )
            ctx.checks.expect(child.returncode == 0, "startup child failed")
            startups.append(child.wall_s)
    startups = [window.seconds(raw) for raw in startups]

    reps: List[SuiteRep] = []
    cache_mb: List[float] = []

    def rep(i: int) -> float:
        tag = f"cold{i}"
        cache_dir = ctx.cwd / f"{tag}.cache"
        one = suite_rep(ctx, cache_dir, tag)
        check_stages(ctx, one, tag, "computes")
        verify_cache(ctx, cache_dir, tag)
        reference = procs.populated_cache() / "fig9.txt"
        if reference.exists():
            ctx.checks.expect(
                one.fig9_text == reference.read_text(),
                f"{tag}: Figure 9 text differs from the populating run",
            )
        reps.append(one)
        cache_mb.append(procs.tree_mb(cache_dir))
        procs.donate_cache(cache_dir, one.fig9_text)
        shutil.rmtree(cache_dir, ignore_errors=True)
        return one.wall_s

    repeat(ctx.seconds, rep)
    return suite_outcome(
        ctx, startups, reps, median(cache_mb), trace,
        ctx.cwd / "cold-traced.cache", "cold-traced",
    )


# ---------------------------------------------------------------- suite_warm


def private_cache(ctx: Context) -> Tuple[Path, str]:
    """This run's own copy of the populated cache, so that nothing a
    run does to its cache can reach the next run."""
    source = procs.ensure_populated_cache(ctx.cwd)
    cache_dir = ctx.cwd / "warm.cache"
    shutil.copytree(source / "cache", cache_dir)
    return cache_dir, (source / "fig9.txt").read_text()


def suite_warm(ctx: Context, trace: bool) -> Outcome:
    procs.ensure_populated_cache(ctx.cwd)  # the build step, not set-up
    start = time.perf_counter()
    cache_dir, cold_text = private_cache(ctx)
    # The copy is a tenth of a second of file system work; the warm-up
    # rep, like every rep, is in calibrated seconds.
    setup_s = time.perf_counter() - start
    setup_s += suite_rep(ctx, cache_dir, "warmup").wall_s

    reps: List[SuiteRep] = []

    def rep(i: int) -> float:
        tag = f"warm{i}"
        one = suite_rep(ctx, cache_dir, tag)
        check_stages(ctx, one, tag, "disk_hits")
        ctx.checks.expect(
            one.fig9_text == cold_text,
            f"{tag}: Figure 9 text differs from the cold run's",
        )
        reps.append(one)
        return one.wall_s

    repeat(ctx.seconds, rep, at_least=WARM_REPS)
    verify_cache(ctx, cache_dir, "warm")
    return suite_outcome(
        ctx, [setup_s], reps, procs.tree_mb(cache_dir), trace,
        cache_dir, "warm-traced",
    )


# ------------------------------------------------------------- machine_sweep


def machine_sweep(ctx: Context, trace: bool) -> Outcome:
    cache_dir, _ = private_cache(ctx)
    grid = machine_grid(ctx.seed)
    grid_path = ctx.cwd / "grid.json"
    grid_path.write_text(json.dumps(grid))

    loads: List[float] = []
    bench_s: List[Dict[str, float]] = []
    rss: List[float] = []
    speedups_6c: Dict[str, float] = {}
    first: Dict[str, list] = {}

    def rep(i: int) -> float:
        tag = f"sweep{i}"
        with ctx.host.window() as window:
            child = procs.run_child(
                ["-m", "benchmarks.e2e.child", "sweep",
                 "--cache", str(cache_dir), "--grid", str(grid_path)],
                tag, ctx.cwd,
            )
        out = child_json(ctx, child, f"{tag}: sweep child")
        check_programs(ctx.checks, ctx.golden, out["programs"], tag)
        swept = out["speedups"]
        ctx.checks.expect(
            all(
                len(swept[b]) == len(grid) and all(s > 0 for s in swept[b])
                for b in ctx.golden
            )
            and first.setdefault("speedups", swept) == swept,
            f"{tag}: sweep speedups are malformed or differ between reps",
        )
        loads.append(window.seconds(out["load_s"]))
        bench_s.append(
            {b: window.seconds(raw) for b, raw in out["bench_s"].items()}
        )
        rss.append(child.rss_mb)
        speedups_6c.update(
            {b: p["speedup_6c"] for b, p in out["programs"].items()}
        )
        return sum(out["bench_s"].values())

    repeat(ctx.seconds, rep, at_least=SWEEP_REPS)
    sweeps = [sum(one.values()) for one in bench_s]
    outcome = Outcome(
        end_to_end={
            "setup_s": median(loads),
            "wall_s": fastest_by_part(bench_s),
            "peak_rss_mb": median(rss),
            "cache_mb": procs.tree_mb(cache_dir),
            "fig9_rel_err": fig9_rel_err(speedups_6c, ctx.paper),
        },
        samples={"setup_s": loads, "wall_s": sweeps},
    )
    if trace:
        _, window, out, spans = traced_suite(
            ctx, cache_dir, "sweep-traced", grid_path
        )
        region = descendants(spans, out["sweep_root"])
        outcome.per_layer = suite_layers(
            out, spans, region[0].duration, window, median(sweeps), region
        )
        outcome.spans = spans
    return outcome


# ----------------------------------------------------------------- serve_mix


@dataclass
class JobRecord:
    """Client-clock timestamps and the terminal event of one job."""

    bench: str
    cores: int
    send: float
    accepted: float
    finished: float
    final: dict
    #: Arrival of ``job_started`` and of each event (traced reps only).
    started: Optional[float] = None
    arrivals: List[Tuple[float, dict]] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.finished - self.send


def run_job(client, bench: str, cores: int, traced: bool) -> JobRecord:
    """Submit one ``run`` job and wait for its terminal event.  A traced
    rep reads the event stream itself to timestamp each arrival; one job
    is in flight per connection, so every event read belongs to it."""
    request = {"op": "run", "bench": bench, "cores": cores}
    send = time.perf_counter()
    job_id = client.request(request)
    accepted = time.perf_counter()
    if not traced:
        final = client.wait(job_id)
        return JobRecord(
            bench, cores, send, accepted, time.perf_counter(), final
        )
    started = None
    arrivals: List[Tuple[float, dict]] = []
    while True:
        event = client.read_event()
        now = time.perf_counter()
        arrivals.append((now, event))
        if event.get("event") == "job_started" and started is None:
            started = now
        if event.get("event") == "job_finished":
            final = dict(event, events=[e for _, e in arrivals[:-1]])
            return JobRecord(
                bench, cores, send, accepted, now, final, started, arrivals
            )


def check_job(ctx: Context, record: JobRecord) -> None:
    final = record.final
    result = final.get("result") or {}
    want = ctx.golden[record.bench]
    ctx.checks.expect(
        final.get("state") == "done"
        and result.get("output_matches") is True
        and result.get("output") == want["output"]
        and result.get("sequential_cycles") == want["cycles"],
        f"serve job {record.bench}@{record.cores}: state "
        f"{final.get('state')!r} or result differs from golden.json",
    )


@dataclass
class ServeRep:
    spawn_s: float
    cold: List[JobRecord]
    warm: List[JobRecord]
    cold_wall: float
    warm_wall: float
    rss_mb: float
    cache_mb: float
    cache_entries: int
    status: dict
    #: Host slowness at spawn, between the phases and after phase B.
    slowness: Tuple[float, float, float]

    @property
    def wall_s(self) -> float:
        """Phases A + B in calibrated seconds, each phase by the mean of
        the readings on either side of it."""
        at_spawn, between, after = self.slowness
        return (
            self.cold_wall / ((at_spawn + between) / 2.0)
            + self.warm_wall / ((between + after) / 2.0)
        )


def spawn_sample(ctx: Context, tag: str) -> float:
    """Spawn a daemon over an empty cache, time spawn to first ``ping``."""
    with ctx.host.window() as window:
        with procs.Daemon(ctx.cwd, ctx.cwd / f"{tag}.cache", tag) as daemon:
            client = daemon.connect()
            try:
                client.ping()
                spawn_s = time.perf_counter() - daemon.spawned
            finally:
                client.close()
    return window.seconds(spawn_s)


def serve_rep(ctx: Context, tag: str, traced: bool) -> ServeRep:
    cold_keys, warm_keys = job_mix(ctx.seed)
    cache_dir = ctx.cwd / f"{tag}.cache"
    at_spawn = ctx.host.read()
    with procs.Daemon(ctx.cwd, cache_dir, tag) as daemon:
        client = daemon.connect()
        try:
            client.ping()
            spawn_s = (time.perf_counter() - daemon.spawned) / at_spawn

            start = time.perf_counter()
            cold = [run_job(client, b, c, traced) for b, c in cold_keys]
            cold_wall = time.perf_counter() - start
            between = ctx.host.read()  # the daemon is idle meanwhile

            warm_by_client: List[List[JobRecord]] = [[] for _ in warm_keys]
            errors: List[BaseException] = []

            def closed_loop(index: int) -> None:
                try:
                    own = daemon.connect()
                    try:
                        for b, c in warm_keys[index]:
                            warm_by_client[index].append(
                                run_job(own, b, c, traced)
                            )
                    finally:
                        own.close()
                except BaseException as exc:  # re-raised by the caller
                    errors.append(exc)

            threads = [
                threading.Thread(target=closed_loop, args=(i,))
                for i in range(len(warm_keys))
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            warm_wall = time.perf_counter() - start
            after = ctx.host.read()
            if errors:
                raise errors[0]
            status = client.status()
            rss_mb = daemon.peak_rss_mb()
        finally:
            client.close()
        code = daemon.stop()
        ctx.checks.expect(code == 0, f"{tag}: daemon exited {code} on SIGTERM")
    rep = ServeRep(
        spawn_s, cold, [r for jobs in warm_by_client for r in jobs],
        cold_wall, warm_wall, rss_mb, procs.tree_mb(cache_dir),
        sum(1 for _ in cache_dir.rglob("*.json")), status,
        (at_spawn, between, after),
    )
    for record in rep.cold + rep.warm:
        check_job(ctx, record)
    return rep


def job_metrics(rep: ServeRep) -> Dict[str, float]:
    """Submit-to-terminal-event latency, measured with tracing off."""
    warm = [r.latency for r in rep.warm]
    q, tail = tail_percentile(warm) or (0, 0.0)
    if q != 95:
        raise RuntimeError(
            f"{len(warm)} warm jobs do not support a p95 (tail is p{q})"
        )
    return {
        "service.job_cold_p50_s": median([r.latency for r in rep.cold]),
        "service.job_warm_p50_s": median(warm),
        "service.job_warm_p95_s": tail,
        "service.warm_jobs_per_s": len(warm) / rep.warm_wall,
    }


def serve_spans(rep: ServeRep, tag: str) -> Tuple[List[Span], float]:
    """Client-side spans of a traced rep and the wall they should cover:
    per job send/accepted/started/finished, and the streamed
    ``stage_completed`` events as children of the run span."""
    rec = SpanRecorder(trace=tag)
    wall = 0.0
    by_client: Dict[str, List[JobRecord]] = {"phaseA": rep.cold}
    per = len(rep.warm) // SERVE_CLIENTS
    for i in range(SERVE_CLIENTS):
        by_client[f"phaseB:client{i}"] = rep.warm[i * per:(i + 1) * per]
    for name, records in by_client.items():
        phase = rec.add(
            name, HARNESS, records[0].send, records[-1].finished, trace=name
        )
        wall += phase.duration
        for n, r in enumerate(records):
            trace = f"{name}:j{n}"
            job = rec.add(f"{r.bench}@{r.cores}", HARNESS, r.send,
                          r.finished, phase.id, trace)
            stages = [
                (event["stage"], STAGE_LAYERS[event["stage"], event["outcome"]],
                 event["seconds"])
                for _, event in r.arrivals
                if event.get("event") == "stage_completed"
                and (event["stage"], event["outcome"]) in STAGE_LAYERS
            ]
            # While the workers hold the interpreter lock the daemon's
            # event loop sends late, so arrivals bunch up at the end of
            # a job.  The durations are the program's own stage timers;
            # the stages are laid end to end up to the terminal event,
            # and the job ran at least that long before it.
            busy = sum(seconds for _, _, seconds in stages)
            started = r.started if r.started is not None else r.accepted
            started = max(r.accepted, min(started, r.finished - busy))
            rec.add("ack", "service.ack", r.send, r.accepted, job.id, trace)
            rec.add("queue", "service.queue_wait", r.accepted, started,
                    job.id, trace)
            run = rec.add("run", "service.run", started, r.finished,
                          job.id, trace)
            cursor = max(started, r.finished - busy)
            for stage, layer, seconds in stages:
                end = min(cursor + seconds, r.finished)
                rec.add(stage, layer, cursor, end, run.id, trace)
                cursor = end
    return rec.spans, wall


def serve_layers(rep: ServeRep, spans: List[Span], wall: float,
                 untraced_wall: float) -> Dict[str, float]:
    seconds = layer_seconds(spans)
    layers = {f"{layer}_s": seconds.get(layer, 0.0) for layer in TIMED_LAYERS}

    def spans_of(layer: str, phase: str) -> List[float]:
        return [s.duration for s in spans
                if s.layer == layer and s.trace.startswith(phase)]

    warm_runs = spans_of("service.run", "phaseB")
    layers.update(
        {
            "service.ack_ms_p50": 1e3 * median(spans_of("service.ack", "phase")),
            "service.queue_wait_ms_p50":
                1e3 * median(spans_of("service.queue_wait", "phase")),
            "service.run_cold_s_p50": median(spans_of("service.run", "phaseA")),
            "service.run_warm_s_p50": median(warm_runs),
            "service.busy_s": sum(warm_runs),
            "service.utilization":
                sum(warm_runs) / (rep.warm_wall * procs.Daemon.WORKERS),
        }
    )

    jobs = rep.cold + rep.warm
    outcomes = {"compute": 0, "disk": 0, "memory": 0}
    interpretation = dict(outcomes)
    computes: Dict[tuple, int] = {}
    for r in jobs:
        for e in r.final["events"]:
            if e.get("event") != "stage_completed":
                continue
            outcomes[e["outcome"]] += 1
            if e["stage"] in INTERPRETATION_STAGES:
                interpretation[e["outcome"]] += 1
            if e["outcome"] == "compute":
                # Modules do not depend on the core count.
                cores = None if e["stage"] == "compile" else r.cores
                key = (r.bench, cores, e["stage"])
                computes[key] = computes.get(key, 0) + 1
    # One compute per distinct (bench, cores, stage) is the work asked
    # for (two for compile: the train and ref builds); more is waste.
    duplicates = sum(
        max(0, n - (2 if stage == "compile" else 1))
        for (_, _, stage), n in computes.items()
    )
    layers.update(
        {
            "service.events_per_job":
                sum(len(r.final["events"]) + 1 for r in jobs) / len(jobs),
            "service.stage_computes": outcomes["compute"],
            "service.stage_disk_hits": outcomes["disk"],
            "service.stage_memory_hits": outcomes["memory"],
            "service.duplicate_computes": duplicates,
            "service.failed_jobs":
                sum(1 for r in jobs if r.final.get("state") != "done"),
            "service.retries": sum(r.final.get("retries", 0) for r in jobs),
            "evaluation.stage_computes": interpretation["compute"],
            "evaluation.stage_disk_hits": interpretation["disk"],
            "evaluation.stage_memory_hits": interpretation["memory"],
        }
    )

    # What the daemon's public ``status`` says about its store and
    # interpreter; each read fails soft.
    store = rep.status.get("artifacts", {})
    counters = rep.status.get("metrics", {}).get("counters", {})
    kinds = store.get("artifacts", {})
    layers.update(
        {
            "evaluation.cache_hits":
                sum(k.get("hits", 0) for k in kinds.values()),
            "evaluation.cache_misses":
                sum(k.get("misses", 0) for k in kinds.values()),
            "evaluation.cache_entries": rep.cache_entries,
            "artifacts.codegen_stores": kinds.get("codegen", {}).get("stores", 0),
            "artifacts.sched_memo_entries":
                store.get("schedules", {}).get("columns", 0),
            "runtime.codegen_functions":
                counters.get("interp.codegen.functions", 0),
            "runtime.codegen_cache_hits":
                counters.get("interp.codegen.cache.hit", 0),
            "runtime.codegen_cache_misses":
                counters.get("interp.codegen.cache.miss", 0),
            "trace.coverage": coverage(spans, wall),
            "trace.overhead_ratio": rep.wall_s / untraced_wall,
        }
    )
    return layers


def serve_mix(ctx: Context, trace: bool) -> Outcome:
    spawns = [
        spawn_sample(ctx, f"spawn{i}") for i in range(SPAWN_SAMPLES - 1)
    ]
    rep = serve_rep(ctx, "serve", traced=False)
    spawns.append(rep.spawn_s)
    speedups_6c = {
        r.bench: r.final["result"]["speedup"] for r in rep.cold if r.cores == 6
    }
    outcome = Outcome(
        end_to_end={
            "setup_s": median(spawns),
            "wall_s": rep.wall_s,
            "peak_rss_mb": rep.rss_mb,
            "cache_mb": rep.cache_mb,
            "fig9_rel_err": fig9_rel_err(speedups_6c, ctx.paper),
        },
        samples={
            "setup_s": spawns,
            "wall_s": [rep.wall_s],
            "job_cold_s": [r.latency for r in rep.cold],
            "job_warm_s": [r.latency for r in rep.warm],
        },
    )
    if trace:
        traced = serve_rep(ctx, "serve-traced", traced=True)
        spans, wall = serve_spans(traced, "serve-traced")
        outcome.per_layer = serve_layers(traced, spans, wall, rep.wall_s)
        outcome.per_layer.update(job_metrics(rep))
        outcome.spans = spans
    return outcome


WORKLOADS: Dict[str, Callable[[Context, bool], Outcome]] = {
    "suite_cold": suite_cold,
    "suite_warm": suite_warm,
    "machine_sweep": machine_sweep,
    "serve_mix": serve_mix,
}
