"""Cached benchmark pipelines for the evaluation.

Running one benchmark end-to-end means: compile train+ref, profile the
train build, select loops, transform the ref build, record its run and
time the recording on the simulated machine.  Several figures share most
of that work, so the runner memoizes each stage in memory; timing for
different core counts or prefetch modes is recomputed from recorded
traces (:meth:`ParallelExecutor.replay`) without re-interpreting the
program.  The recording is memoized (and stored) under the hash of the
IR it ran, so configurations whose selection and transformation end in
the same module share one recording run and only schedule it apart.

With an :class:`~repro.artifacts.ArtifactStore` on a directory, the
three interpretation stages (profile, sequential run, recording run)
and the compiled modules also persist across processes: a warm cache
turns a multi-minute suite run into seconds of JSON loading plus the
cheap pure-compute stages (selection, transformation), which are always
re-derived rather than stored.  The answer of a ``run`` job
(:meth:`EvaluationRunner.run_result`) is a stage of its own on top of
those: eight fields, none of which needs a trace, so a repeat reads
them back and enters no other stage.

Every stage records per-stage wall-clock and hit counters in
:attr:`EvaluationRunner.stats`; ``python -m repro suite --stats`` renders
them and the JSON report embeds them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.loopnest import LoopId
from repro.analysis.manager import AnalysisManager
from repro.artifacts import ArtifactStore, pipeline_fingerprint
from repro.bench import benchmark_names, compile_benchmark
from repro.core.loopinfo import HelixOptions, ParallelizedLoop
from repro.core.parallelizer import parallelize_module
from repro.core.selection import (
    LoopSelection,
    SelectionConfig,
    choose_loops,
    fixed_level_selection,
)
from repro.ir import Module
from repro.ir.parser import parse_module
from repro.obs import REGISTRY, get_tracer
from repro.ir.printer import module_to_str
from repro.runtime.interpreter import ExecutionResult, run_module
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.parallel import ParallelExecutor, ParallelRunResult
from repro.runtime.trace import (
    CompactInvocationTrace,
    pack_traces,
    unpack_traces,
)
from repro.runtime.profiler import ProfileData, profile_module
from repro.service.jobs import NULL_OBSERVER, EvaluationObserver

#: Pipeline stages, in execution order (keys of :class:`StageStats`).
#: ``timeline`` is the suite's per-benchmark simulated-time accounting
#: (:func:`repro.obs.timeline.timeline_block`), recorded by
#: :func:`~repro.evaluation.parallel_runner.run_suite`; ``run`` is the
#: ``run`` job's answer (:meth:`EvaluationRunner.run_result`), whose
#: compute nests the stages before it.
STAGES = (
    "compile",
    "profile",
    "sequential",
    "selection",
    "transform",
    "execute",
    "timeline",
    "run",
)

#: A recording run: its sequential-clock result, traces and load count
#: (the arguments of :meth:`ParallelExecutor.restore_run`).
_Recording = Tuple[ExecutionResult, List[CompactInvocationTrace], int]

#: Fields of a ``run`` answer (the ``run`` artifact's whole payload).
RUN_FIELDS = frozenset(
    (
        "bench",
        "cores",
        "speedup",
        "cycles",
        "sequential_cycles",
        "output",
        "output_matches",
        "chosen",
    )
)


@dataclass
class StageTally:
    """Observability counters of one pipeline stage."""

    #: Full recomputations (cold: the stage actually ran).
    computes: int = 0
    #: Served from this runner's in-memory memo.
    memory_hits: int = 0
    #: Reconstructed from the disk cache (no interpretation).
    disk_hits: int = 0
    #: Wall-clock spent in this stage (computes + disk loads; memory
    #: hits are effectively free and charged as zero).
    wall_seconds: float = 0.0
    #: Cached results discarded because their subject changed (only
    #: analysis stages report these; pipeline stages stay at zero).
    invalidations: int = 0

    @property
    def requests(self) -> int:
        return self.computes + self.memory_hits + self.disk_hits

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "computes": self.computes,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "wall_seconds": self.wall_seconds,
            "invalidations": self.invalidations,
        }


class StageStats:
    """Per-stage counters collected by an :class:`EvaluationRunner`."""

    def __init__(self) -> None:
        self.stages: Dict[str, StageTally] = {}

    def tally(self, stage: str) -> StageTally:
        tally = self.stages.get(stage)
        if tally is None:
            tally = StageTally()
            self.stages[stage] = tally
        return tally

    def record(self, stage: str, outcome: str, seconds: float = 0.0) -> None:
        """Count one stage request: ``outcome`` is ``compute``,
        ``memory`` or ``disk``."""
        tally = self.tally(stage)
        if outcome == "compute":
            tally.computes += 1
            counter = "computes"
        elif outcome == "memory":
            tally.memory_hits += 1
            counter = "memory_hits"
        elif outcome == "disk":
            tally.disk_hits += 1
            counter = "disk_hits"
        else:  # pragma: no cover - caller bug
            raise ValueError(f"unknown stage outcome {outcome!r}")
        tally.wall_seconds += seconds
        # ``analysis:<name>`` rows already reach the registry from the
        # AnalysisManager itself; mirroring them again would double-count.
        if not stage.startswith("analysis:"):
            REGISTRY.inc(f"stage.{stage}.{counter}")

    def invalidate(self, stage: str) -> None:
        """Count one cache invalidation (a stale cached result dropped
        because the IR it described was mutated)."""
        self.tally(stage).invalidations += 1

    def merge(self, stages: Dict[str, dict]) -> None:
        """Fold another runner's :meth:`as_dict` in (cross-process
        aggregation for the parallel suite runner).

        Every field defaults to zero so snapshots serialized by older
        code versions -- which may lack fields added since -- merge
        cleanly instead of raising ``KeyError``.
        """
        for stage, data in stages.items():
            tally = self.tally(stage)
            tally.computes += data.get("computes", 0)
            tally.memory_hits += data.get("memory_hits", 0)
            tally.disk_hits += data.get("disk_hits", 0)
            tally.wall_seconds += data.get("wall_seconds", 0.0)
            tally.invalidations += data.get("invalidations", 0)

    def as_dict(self) -> Dict[str, dict]:
        order = [s for s in STAGES if s in self.stages]
        order += [s for s in sorted(self.stages) if s not in STAGES]
        return {stage: self.stages[stage].as_dict() for stage in order}


@dataclass
class PipelineRun:
    """A transformed benchmark plus its executed results."""

    bench: str
    selection: Optional[LoopSelection]
    chosen: List[LoopId]
    transformed: Module
    infos: List[ParallelizedLoop]
    executor: ParallelExecutor
    parallel: ParallelRunResult
    sequential: ExecutionResult

    @property
    def speedup(self) -> float:
        if self.parallel.cycles <= 0:
            return 1.0
        return self.sequential.cycles / self.parallel.cycles

    @property
    def output_matches(self) -> bool:
        return self.sequential.output == self.parallel.result.output

    def speedup_at(self, machine: MachineConfig) -> float:
        """Speedup under another machine, from recorded traces."""
        return self.speedups_at([machine])[0]

    def speedups_at(self, machines: Sequence[MachineConfig]) -> List[float]:
        """Speedups under several machines in one batched replay.

        The figure sweeps (core counts, prefetch modes, latencies) go
        through here so every stored trace is scheduled once per sweep,
        not twice per swept machine."""
        return [
            1.0 if replayed.cycles <= 0
            else self.sequential.cycles / replayed.cycles
            for replayed in self.executor.replay_many(machines)
        ]

    def replay(self, machine: MachineConfig) -> ParallelRunResult:
        return self.executor.replay(machine)

    def replay_many(
        self, machines: Sequence[MachineConfig]
    ) -> List[ParallelRunResult]:
        return self.executor.replay_many(machines)


class EvaluationRunner:
    """Memoizing driver for all experiments.

    ``cache`` is the :class:`~repro.artifacts.ArtifactStore` under the
    in-memory memos (shared with other runners), or a directory to open
    one on, or ``None`` for a store that keeps nothing on disk; see
    :mod:`repro.artifacts` for the key contents.
    """

    def __init__(
        self,
        machine: Optional[MachineConfig] = None,
        cache: Union[ArtifactStore, str, Path, None] = None,
        observer: Optional[EvaluationObserver] = None,
    ) -> None:
        self.machine = machine or MachineConfig(cores=6)
        #: Stage artifacts (on disk when the store has a root) plus
        #: schedule-column memos; ``cache`` names the same store.
        self.artifacts = (
            cache if isinstance(cache, ArtifactStore) else ArtifactStore(cache)
        )
        self.cache = self.artifacts
        #: Progress sink (the domain protocol): stage completions and
        #: artifact traffic stream through it.  Rebindable -- the
        #: orchestrator points it at a job-bound observer per attempt.
        self.observer: EvaluationObserver = observer or NULL_OBSERVER
        self.stats = StageStats()
        #: Versioned analysis cache shared by every selection and
        #: transformation this runner performs; its per-analysis
        #: hit/miss/invalidation counters mirror into ``stats`` under
        #: ``analysis:<name>`` keys.
        self.analysis = AnalysisManager(stats=self.stats)
        self._modules: Dict[Tuple[str, str], Module] = {}
        self._profiles: Dict[str, ProfileData] = {}
        self._sequential: Dict[str, ExecutionResult] = {}
        self._selections: Dict[Tuple, LoopSelection] = {}
        self._pipelines: Dict[Tuple, PipelineRun] = {}
        #: Recording runs by ``recording`` artifact key.
        self._recordings: Dict[str, _Recording] = {}

    # -- cache plumbing --------------------------------------------------------

    def _load(self, bench: str, kind: str, key: str) -> Optional[dict]:
        payload = self.artifacts.load(kind, key)
        if payload is not None:
            self.observer.artifact_stored(None, kind, key, "hit")
        return payload

    def _store(self, bench: str, kind: str, key: str, payload: dict) -> None:
        if self.artifacts.store(kind, key, payload):
            self.observer.artifact_stored(None, kind, key, "store")

    def _record(
        self, bench: str, stage: str, outcome: str, seconds: float = 0.0
    ) -> None:
        """Tally one stage request and stream it to the observer."""
        self.stats.record(stage, outcome, seconds)
        self.observer.stage_completed(None, bench, stage, outcome, seconds)

    # -- stages ----------------------------------------------------------------

    def module(self, bench: str, scale: str) -> Module:
        key = (bench, scale)
        if key in self._modules:
            self._record(bench, "compile", "memory")
            return self._modules[key]
        start = time.perf_counter()
        with get_tracer().span(
            "stage.compile", cat="stage", bench=bench, scale=scale
        ) as sp:
            disk_key = self.artifacts.key("module", bench, scale=scale)
            payload = self._load(bench, "module", disk_key)
            if payload is not None:
                module = parse_module(payload["ir"])
                outcome = "disk"
            else:
                module = compile_benchmark(bench, scale)
                self._store(
                    bench, "module", disk_key, {"ir": module_to_str(module)}
                )
                outcome = "compute"
            sp.set(outcome=outcome)
        self._modules[key] = module
        self._record(bench, "compile", outcome, time.perf_counter() - start)
        return module

    def profile(self, bench: str) -> ProfileData:
        """Training-input profile (on the train build, so the ref build
        stays the untouched sequential baseline)."""
        if bench in self._profiles:
            self._record(bench, "profile", "memory")
            return self._profiles[bench]
        train = self.module(bench, "train")
        start = time.perf_counter()
        with get_tracer().span("stage.profile", cat="stage", bench=bench) as sp:
            disk_key = self.artifacts.key(
                "profile", bench, machine=self.machine
            )
            payload = self._load(bench, "profile", disk_key)
            if payload is not None:
                data = ProfileData.from_dict(payload, train)
                outcome = "disk"
            else:
                data = profile_module(
                    train, self.machine, codegen_cache=self.artifacts
                )
                self._store(bench, "profile", disk_key, data.to_dict())
                outcome = "compute"
            sp.set(outcome=outcome)
        self._profiles[bench] = data
        self._record(bench, "profile", outcome, time.perf_counter() - start)
        return data

    def sequential(self, bench: str) -> ExecutionResult:
        if bench in self._sequential:
            self._record(bench, "sequential", "memory")
            return self._sequential[bench]
        ref = self.module(bench, "ref")
        start = time.perf_counter()
        with get_tracer().span(
            "stage.sequential", cat="stage", bench=bench
        ) as sp:
            disk_key = self.artifacts.key(
                "sequential", bench, machine=self.machine
            )
            payload = self._load(bench, "sequential", disk_key)
            if payload is not None:
                result = ExecutionResult.from_dict(payload)
                outcome = "disk"
            else:
                # Opportunistic hot-path hint: when the profile stage
                # already ran, its block-entry counts steer superblock
                # formation towards the hot CBR arms.  Never *forces*
                # profiling, and never affects results -- the backend
                # is bit-identical either way.
                profile = self._profiles.get(bench)
                result = run_module(
                    ref,
                    self.machine,
                    block_profile=profile.block_counts if profile else None,
                    codegen_cache=self.artifacts,
                )
                self._store(bench, "sequential", disk_key, result.to_dict())
                outcome = "compute"
            sp.set(outcome=outcome)
        self._sequential[bench] = result
        self._record(bench, "sequential", outcome, time.perf_counter() - start)
        return result

    def selection(
        self,
        bench: str,
        signal_cost: Optional[float] = None,
        unoptimized_signals: bool = False,
        cores: Optional[int] = None,
    ) -> LoopSelection:
        key = (bench, signal_cost, unoptimized_signals, cores)
        if key in self._selections:
            self._record(bench, "selection", "memory")
            return self._selections[key]
        module = self.module(bench, "ref")
        profile = self.profile(bench)
        start = time.perf_counter()
        with get_tracer().span("stage.selection", cat="stage", bench=bench):
            config = SelectionConfig(
                machine=self.machine,
                cores=cores or self.machine.cores,
                signal_cost=signal_cost,
                unoptimized_signals=unoptimized_signals,
            )
            selection = choose_loops(
                module, profile, config, manager=self.analysis
            )
        self._selections[key] = selection
        self._record(bench, "selection", "compute", time.perf_counter() - start)
        return selection

    def fixed_level(self, bench: str, level: int) -> List[LoopId]:
        return fixed_level_selection(
            self.module(bench, "ref"),
            self.profile(bench),
            level,
            manager=self.analysis,
        )

    def pipeline(
        self,
        bench: str,
        options: Optional[HelixOptions] = None,
        prefetch: PrefetchMode = PrefetchMode.HELIX,
        signal_cost: Optional[float] = None,
        unoptimized_signals: bool = False,
        loop_ids: Optional[Sequence[LoopId]] = None,
        cache_key: Optional[str] = None,
    ) -> PipelineRun:
        """Transform + execute one configuration of one benchmark."""
        options = options or HelixOptions()
        # The configuration fingerprint is always part of the key: a
        # string ``cache_key`` only namespaces it, so two calls sharing
        # a label but differing in options/prefetch/selection knobs can
        # never collide.
        config_fp = pipeline_fingerprint(
            options, prefetch, signal_cost, unoptimized_signals, loop_ids
        )
        key = (bench, config_fp, cache_key)
        if key in self._pipelines:
            self._record(bench, "execute", "memory")
            return self._pipelines[key]

        selection = None
        if loop_ids is None:
            selection = self.selection(
                bench,
                signal_cost=signal_cost,
                unoptimized_signals=unoptimized_signals,
            )
            loop_ids = selection.chosen
        machine = self.machine.with_prefetch(prefetch)
        module = self.module(bench, "ref")
        sequential = self.sequential(bench)

        start = time.perf_counter()
        with get_tracer().span("stage.transform", cat="stage", bench=bench):
            transformed, infos = parallelize_module(
                module, loop_ids, machine, options, manager=self.analysis
            )
        self._record(bench, "transform", "compute", time.perf_counter() - start)

        # Same opportunistic hot-path hint the sequential stage uses:
        # an already-collected profile steers superblock chain formation
        # and arm order in the recording run too.  Most of what that
        # run enters are blocks the transformation created; the
        # executor weighs each from the block it came from
        # (``ParallelizedLoop.origin``).
        profile = self._profiles.get(bench)
        executor = ParallelExecutor(
            transformed, infos, machine,
            schedule_memo=self.artifacts.schedule_memo(),
            block_profile=profile.block_counts if profile else None,
            codegen_cache=self.artifacts,
        )
        start = time.perf_counter()
        with get_tracer().span(
            "stage.execute", cat="stage", bench=bench
        ) as sp:
            recording_key = self.artifacts.key(
                "recording",
                bench,
                module=transformed,
                machine=self.machine,
                infos=infos,
            )
            recording = self._recordings.get(recording_key)
            outcome = "memory"
            if recording is None:
                recording = self._stored_recording(bench, recording_key)
                outcome = "disk"
            if recording is not None:
                parallel = executor.restore_run(*recording)
            else:
                parallel = executor.execute()
                recorded = replace(parallel.result, cycles=executor.cycles)
                recording = (recorded, executor.traces, executor.load_count)
                self._store(
                    bench,
                    "recording",
                    recording_key,
                    {
                        "result": recorded.to_dict(),
                        "traces": pack_traces(executor.traces),
                        "load_count": executor.load_count,
                    },
                )
                outcome = "compute"
            self._recordings[recording_key] = recording
            sp.set(outcome=outcome)
        self._record(bench, "execute", outcome, time.perf_counter() - start)

        run = PipelineRun(
            bench=bench,
            selection=selection,
            chosen=list(loop_ids),
            transformed=transformed,
            infos=infos,
            executor=executor,
            parallel=parallel,
            sequential=sequential,
        )
        self._pipelines[key] = run
        return run

    def _stored_recording(self, bench: str, key: str) -> Optional[_Recording]:
        """The stored recording under ``key``; an entry that is not one
        this build reads (fields missing, another trace format, columns
        that do not decode to what their header rows declare) counts as
        absent and is overwritten by the recomputation."""
        payload = self._load(bench, "recording", key)
        if payload is None:
            return None
        try:
            return (
                ExecutionResult.from_dict(payload["result"]),
                unpack_traces(payload["traces"]),
                payload["load_count"],
            )
        except (KeyError, TypeError, ValueError):
            return None

    def helix_run(self, bench: str) -> PipelineRun:
        """The default full-HELIX configuration of one benchmark."""
        return self.pipeline(bench, cache_key="helix")

    def run_result(
        self, bench: str, checkpoint: Callable[[], None] = lambda: None
    ) -> dict:
        """The answer of a ``run`` job: :meth:`helix_run` of ``bench``
        on this runner's machine, reduced to :data:`RUN_FIELDS`.

        A stage like the others: the answer is looked up in the store
        first, and a hit returns it without entering any other stage (no
        module is parsed, nothing selected or transformed, no trace
        decoded).  Otherwise the pipeline runs stage by stage, calling
        ``checkpoint`` between stages (the orchestrator's cancellation
        point), and the answer is stored.  An entry that is not an
        answer to this request counts as absent and is overwritten.
        """
        start = time.perf_counter()
        with get_tracer().span("stage.run", cat="stage", bench=bench) as sp:
            disk_key = self.artifacts.key(
                "run",
                bench,
                machine=self.machine,
                config=pipeline_fingerprint(
                    HelixOptions(), PrefetchMode.HELIX, None, False, None
                ),
            )
            result = self._load(bench, "run", disk_key)
            if (
                result is not None
                and result.keys() == RUN_FIELDS
                and result["bench"] == bench
                and result["cores"] == self.machine.cores
            ):
                outcome = "disk"
            else:
                self.module(bench, "train")
                checkpoint()
                self.profile(bench)
                checkpoint()
                self.sequential(bench)
                checkpoint()
                run = self.helix_run(bench)
                result = {
                    "bench": bench,
                    "cores": self.machine.cores,
                    "speedup": run.speedup,
                    "cycles": run.parallel.cycles,
                    "sequential_cycles": run.sequential.cycles,
                    "output": list(run.parallel.result.output),
                    "output_matches": run.output_matches,
                    "chosen": [list(loop) for loop in run.chosen],
                }
                self._store(bench, "run", disk_key, result)
                outcome = "compute"
            sp.set(outcome=outcome)
        self._record(bench, "run", outcome, time.perf_counter() - start)
        return result

    def benches(self) -> List[str]:
        return benchmark_names()


_default: Optional[EvaluationRunner] = None


def default_runner() -> EvaluationRunner:
    """Process-wide shared runner (pytest benchmarks reuse its caches).

    Set ``REPRO_EVAL_CACHE=<dir>`` to give it a persistent disk cache
    (CI keys one on the source hash via ``actions/cache``).
    """
    global _default
    if _default is None:
        _default = EvaluationRunner(
            cache=os.environ.get("REPRO_EVAL_CACHE") or None
        )
    return _default
