"""The pipeline driver: cached benchmark pipelines for the evaluation,
and the one pipeline of every other caller.

Running one benchmark end-to-end means: compile train+ref, profile the
train build, select loops, transform the ref build, record its run and
time the recording on the simulated machine.  A program that is not a
bench runs the same stages once a runner holds it under a name
(:meth:`EvaluationRunner.hold`): that is all
:func:`repro.api.parallelize_and_run` does, on a runner without a store
root, and ``repro parallelize`` and ``repro compile`` go through it
too.

Several figures share most of that work, so the runner memoizes each
stage in memory; timing for different core counts or prefetch modes is
recomputed from recorded traces (:meth:`RecordedRun.replay`) without
re-interpreting the program.  The recording is memoized (and stored) under the hash of the
IR it ran, so configurations whose selection and transformation end in
the same module share one recording run and only schedule it apart.

With an :class:`~repro.artifacts.ArtifactStore` on a directory, the
three interpretation stages (profile, sequential run, recording run)
persist across processes, and so does what selection and Steps 1-9
decided for each pipeline configuration: its ``plan`` (the chosen
loops, what timing reads of each parallelized loop, and the key of the
recording).  A warm pipeline reads the profile, the plan, the
sequential baseline and the recording, then schedules; it compiles,
selects and transforms nothing.  The transformed module, its loop
infos and the selection are rebuilt on request
(:attr:`PipelineRun.transformed`), and a plan whose recording is gone
is recomputed from scratch.  Each stage looks in the store before it
compiles the module it would need.  The answer of a ``run`` job
(:meth:`EvaluationRunner.run_result`) is a stage of its own on top of
those: eight fields, none of which needs a trace, so a repeat reads
them back and enters no other stage.

Every stage request is reported once (:meth:`EvaluationRunner._stage`):
one record of bench, stage, outcome and seconds, handed to each of the
runner's sinks in order.  The first is :attr:`EvaluationRunner.stats`,
the per-stage table that ``python -m repro suite --stats`` renders and
the JSON report embeds; the others are observers (a daemon connection,
the CLI's progress printer), told which job the request belongs to by
:data:`~repro.obs.metrics.CURRENT_JOB`.
"""

from __future__ import annotations

import os
import time
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.analysis.loopnest import LoopId
from repro.artifacts import ArtifactStore, fingerprint, pipeline_fingerprint
from repro.bench import (
    benchmark_fingerprint,
    benchmark_names,
    compile_benchmark,
    source_fingerprint,
)
from repro.core.loopinfo import (
    HelixOptions,
    LoopInfo,
    LoopRecord,
    ParallelizedLoop,
)
from repro.ir import Module, module_to_str
from repro.obs import get_tracer
from repro.obs.metrics import CURRENT_JOB, EvaluationObserver, StageStats
from repro.runtime.interpreter import ExecutionResult, run_module
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.parallel import (
    ParallelExecutor,
    ParallelRunResult,
    RecordedRun,
)
from repro.runtime.trace import Recording, pack_traces, unpack_traces
from repro.runtime.profiler import ProfileData, profile_module

if TYPE_CHECKING:
    from repro.analysis.manager import AnalysisManager
    from repro.core.selection import LoopSelection

#: A recording run: its sequential-clock result, recording and load
#: count (the arguments of :meth:`RecordedRun.restore_run`).
_Recording = Tuple[ExecutionResult, Recording, int]

#: A pipeline's plan: the chosen loops, the record of each parallelized
#: loop, and the ``recording`` key of the module they produced.
_Plan = Tuple[List[LoopId], List[LoopRecord], str]

_T = TypeVar("_T")


def _decode_plan(payload: dict) -> _Plan:
    chosen, recording = payload["chosen"], payload["recording"]
    if not isinstance(recording, str) or not all(
        isinstance(loop, list)
        and len(loop) == 2
        and all(isinstance(name, str) for name in loop)
        for loop in chosen
    ):
        raise TypeError("mistyped plan")
    loops = [LoopRecord.from_dict(loop) for loop in payload["loops"]]
    return [tuple(loop) for loop in chosen], loops, recording


def _decode_recording(payload: dict) -> _Recording:
    """A stored recording (:func:`unpack_traces` checks its tables)."""
    return (
        ExecutionResult.from_dict(payload["result"]),
        unpack_traces(payload["traces"]),
        payload["load_count"],
    )


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
class PipelineRun:
    """A transformed program (a bench or a held one) plus its executed
    results: what :func:`repro.api.parallelize_and_run` returns.

    ``executor`` holds the recorded run and times it on any machine.
    The selection, the transformed module and its loop infos are built
    the first time they are read: a warm pipeline was restored from its
    plan without any of them.  So is :attr:`parallel`, the run timed on
    its own machine: a caller that asks :meth:`speedups_at` for that
    machine among others first gets every column from one pass.
    """

    bench: str
    chosen: List[LoopId]
    executor: RecordedRun
    sequential: ExecutionResult
    #: The selection (``None`` for a request that named its loops).
    _select: Callable[[], Optional[LoopSelection]] = field(
        repr=False, compare=False
    )
    #: Steps 1-9 on :attr:`chosen`: the transformed module and its infos.
    _transform: Callable[[], Tuple[Module, List[ParallelizedLoop]]] = field(
        repr=False, compare=False
    )

    @cached_property
    def selection(self) -> Optional[LoopSelection]:
        return self._select()

    @cached_property
    def _transformation(self) -> Tuple[Module, List[ParallelizedLoop]]:
        return self._transform()

    @cached_property
    def parallel(self) -> ParallelRunResult:
        return self.executor.replay(self.executor.machine)

    @property
    def transformed(self) -> Module:
        return self._transformation[0]

    @property
    def infos(self) -> List[ParallelizedLoop]:
        return self._transformation[1]

    @property
    def speedup(self) -> float:
        if self.parallel.cycles <= 0:
            return 1.0
        return self.sequential.cycles / self.parallel.cycles

    @property
    def output_matches(self) -> bool:
        # The output is the recording's, under every machine.
        return self.sequential.output == self.executor.output

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
    """Memoizing driver of the pipeline, for benches and held programs.

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
        #: Per-stage counters: the fold over this runner's stage records.
        self.stats = StageStats()
        #: Where stage records and artifact events go, in order: the
        #: counters first, then ``observer`` (an orchestrator appends its
        #: job's observers).
        self.sinks: List[Any] = [self.stats]
        if observer is not None:
            self.sinks.append(observer)
        #: Programs held under a name (:meth:`hold`): scale -> build.
        self._held: Dict[str, Dict[str, Module]] = {}
        self._profiles: Dict[str, ProfileData] = {}
        self._profile_digests: Dict[str, str] = {}
        self._sequential: Dict[str, ExecutionResult] = {}
        self._selections: Dict[Tuple, LoopSelection] = {}
        self._pipelines: Dict[Tuple, PipelineRun] = {}
        #: Recording runs by ``recording`` artifact key.
        self._recordings: Dict[str, _Recording] = {}

    @cached_property
    def analysis(self) -> AnalysisManager:
        """Versioned analysis cache shared by every selection and
        transformation this runner performs; it counts into ``stats``
        under ``analysis:<name>`` keys.  Made on first use: a warm
        pipeline selects and transforms nothing."""
        from repro.analysis.manager import AnalysisManager

        return AnalysisManager(stats=self.stats)

    # -- reporting and cache plumbing ----------------------------------------

    def _stage(
        self,
        bench: str,
        stage: str,
        run: Optional[Callable[[], Tuple[Any, Optional[str]]]] = None,
        **args: Any,
    ) -> Any:
        """Answer one request of ``stage`` and report it once.

        ``run`` answers it under a ``stage.<stage>`` span and returns the
        answer with its outcome (``compute``, ``disk`` or ``memory``), or
        with ``None`` when it has no answer, which is not reported.
        Without ``run`` the request was a memory hit: reported, no span.
        A report is one ``stage_completed`` on each sink, in order, for
        the job running this thread (:data:`CURRENT_JOB`)."""
        value, outcome, seconds = None, "memory", 0.0
        if run is not None:
            start = time.perf_counter()
            with get_tracer().span(
                f"stage.{stage}", cat="stage", bench=bench, **args
            ) as span:
                value, outcome = run()
                span.set(outcome=outcome or "missing")
            seconds = time.perf_counter() - start
        if outcome is not None:
            job = CURRENT_JOB.get()
            for sink in self.sinks:
                sink.stage_completed(job, bench, stage, outcome, seconds)
        return value

    def _artifact(self, kind: str, key: str, outcome: str) -> None:
        job = CURRENT_JOB.get()
        for sink in self.sinks:
            sink.artifact_stored(job, kind, key, outcome)

    def _load(
        self, kind: str, key: str, decode: Callable[[dict], _T]
    ) -> Optional[_T]:
        """The entry of ``kind`` under ``key``, decoded, or ``None`` on a
        miss.  An entry that does not decode (``decode`` raises
        ``KeyError``, ``TypeError`` or ``ValueError``: JSON fields missing
        or mistyped, traces in another format) is a miss too, in the
        store's tally as well, so the stage recomputes and overwrites
        it."""
        payload = self.artifacts.load(kind, key)
        if payload is None:
            return None
        try:
            value = decode(payload)
        except (KeyError, TypeError, ValueError):
            self.artifacts.reject(kind)
            return None
        self._artifact(kind, key, "hit")
        return value

    def _store(self, kind: str, key: str, payload: dict) -> None:
        if self.artifacts.store(kind, key, payload):
            self._artifact(kind, key, "store")

    def _source(self, bench: str, scale: str) -> str:
        held = self._held.get(bench)
        if held is None:
            return benchmark_fingerprint(bench, scale)
        return source_fingerprint(bench, scale, module_to_str(held[scale]))

    def _key(self, kind: str, bench: str, **inputs: Any) -> str:
        """:meth:`ArtifactStore.key`, with a held program's sources
        hashed from its printed IR."""
        return self.artifacts.key(kind, bench, source=self._source, **inputs)

    # -- programs --------------------------------------------------------------

    def hold(
        self, name: str, ref: Module, train: Optional[Module] = None
    ) -> None:
        """Run a caller's program under ``name``: ``ref`` is its ref
        build and ``train`` (``ref`` by default) the build it is
        profiled on.  Every stage takes ``name`` as it takes a bench
        name; :meth:`module` returns these builds and compiles nothing.
        Keys hash each build's printed IR the way they hash a bench's
        MiniC source (:func:`~repro.bench.source_fingerprint`).  The
        builds stay with this runner, out of the store-wide
        :attr:`ArtifactStore.modules`, so a program called like a bench
        never aliases it.  A name holds one program: another module
        under a held name is a ``ValueError``."""
        builds = {"ref": ref, "train": train or ref}
        held = self._held.setdefault(name, builds)
        if any(held[scale] is not build for scale, build in builds.items()):
            raise ValueError(f"this runner holds another program {name!r}")

    # -- stages ----------------------------------------------------------------

    def module(self, bench: str, scale: str) -> Module:
        """The program :meth:`hold` holds under ``bench``, or else the
        bench compiled from source at ``scale``, once per store
        (:attr:`ArtifactStore.modules`)."""
        held = self._held.get(bench)
        if held is not None:
            return held[scale]
        key = (bench, scale)
        module = self.artifacts.modules.get(key)
        if module is not None:
            self._stage(bench, "compile")
            return module
        module = self._stage(
            bench, "compile",
            lambda: (compile_benchmark(bench, scale), "compute"),
            scale=scale,
        )
        return self.artifacts.modules.setdefault(key, module)

    def profile(self, bench: str) -> ProfileData:
        """Training-input profile (on the train build, so the ref build
        stays the untouched sequential baseline).  The train build is
        compiled only when the profile is not stored; a computed
        profile's time includes compiling it."""
        data = self._profiles.get(bench)
        if data is not None:
            self._stage(bench, "profile")
            return data

        def run() -> Tuple[ProfileData, str]:
            key = self._key("profile", bench, machine=self.machine)
            data = self._load("profile", key, ProfileData.from_dict)
            if data is not None:
                return data, "disk"
            data = profile_module(self.module(bench, "train"), self.machine)
            self._store("profile", key, data.to_dict())
            return data, "compute"

        data = self._profiles[bench] = self._stage(bench, "profile", run)
        return data

    def profile_digest(self, bench: str) -> str:
        """Content hash of ``bench``'s profile (a ``plan`` key input)."""
        digest = self._profile_digests.get(bench)
        if digest is None:
            digest = fingerprint(self.profile(bench).to_dict())
            self._profile_digests[bench] = digest
        return digest

    def sequential(self, bench: str) -> ExecutionResult:
        """The ref build's sequential run; like :meth:`profile`, it
        compiles its module only when the result is not stored."""
        result = self._sequential.get(bench)
        if result is not None:
            self._stage(bench, "sequential")
            return result

        def run() -> Tuple[ExecutionResult, str]:
            key = self._key("sequential", bench, machine=self.machine)
            result = self._load("sequential", key, ExecutionResult.from_dict)
            if result is not None:
                return result, "disk"
            # Opportunistic hot-path hint: when the profile stage
            # already ran, its block-entry counts steer superblock
            # formation towards the hot CBR arms.  Never *forces*
            # profiling, and never affects results -- the backend
            # is bit-identical either way.
            profile = self._profiles.get(bench)
            result = run_module(
                self.module(bench, "ref"),
                self.machine,
                block_profile=profile.block_counts if profile else None,
            )
            self._store("sequential", key, result.to_dict())
            return result, "compute"

        result = self._sequential[bench] = self._stage(bench, "sequential", run)
        return result

    def selection(
        self,
        bench: str,
        signal_cost: Optional[float] = None,
        unoptimized_signals: bool = False,
        cores: Optional[int] = None,
    ) -> LoopSelection:
        key = (bench, signal_cost, unoptimized_signals, cores)
        selection = self._selections.get(key)
        if selection is not None:
            self._stage(bench, "selection")
            return selection
        from repro.core.selection import SelectionConfig, choose_loops

        module = self.module(bench, "ref")
        profile = self.profile(bench)
        config = SelectionConfig(
            machine=self.machine,
            cores=cores or self.machine.cores,
            signal_cost=signal_cost,
            unoptimized_signals=unoptimized_signals,
        )
        selection = self._selections[key] = self._stage(
            bench, "selection",
            lambda: (
                choose_loops(module, profile, config, manager=self.analysis),
                "compute",
            ),
        )
        return selection

    def fixed_level(self, bench: str, level: int) -> List[LoopId]:
        from repro.core.selection import fixed_level_selection

        return fixed_level_selection(
            self.module(bench, "ref"),
            self.profile(bench),
            level,
            manager=self.analysis,
        )

    def transform(
        self,
        bench: str,
        loop_ids: Sequence[LoopId],
        machine: MachineConfig,
        options: HelixOptions,
    ) -> Tuple[Module, List[ParallelizedLoop]]:
        """Steps 1-9 on the ref build's ``loop_ids``."""
        from repro.core.parallelizer import parallelize_module

        module = self.module(bench, "ref")
        return self._stage(
            bench, "transform",
            lambda: (
                parallelize_module(
                    module, loop_ids, machine, options, manager=self.analysis
                ),
                "compute",
            ),
        )

    def _execute(
        self,
        bench: str,
        machine: MachineConfig,
        recording_key: str,
        loops: Sequence[LoopInfo],
        transformed: Optional[Module] = None,
    ) -> Optional[RecordedRun]:
        """The ``execute`` stage: the recording under ``recording_key``
        (memoized, stored, or recorded by interpreting ``transformed``),
        adopted by an executor for ``machine`` that schedules nothing
        until a column is read.  Without ``transformed`` a recording
        that is neither memoized nor stored is ``None``, and no stage is
        counted: the caller transforms and asks again."""

        def run() -> Tuple[Optional[RecordedRun], Optional[str]]:
            recording = self._recordings.get(recording_key)
            outcome = "memory"
            if recording is None:
                recording = self._load(
                    "recording", recording_key, _decode_recording
                )
                outcome = "disk"
            if recording is not None:
                executor = RecordedRun(
                    loops, machine,
                    schedule_memo=self.artifacts.schedule_memo(),
                )
                executor.restore_run(*recording)
            elif transformed is None:
                return None, None
            else:
                # Same opportunistic hot-path hint the sequential stage
                # uses: an already-collected profile steers superblock
                # chain formation and arm order in the recording run
                # too.  Most of what that run enters are blocks the
                # transformation created; the executor weighs each from
                # the block it came from (``ParallelizedLoop.origin``).
                profile = self._profiles.get(bench)
                executor = ParallelExecutor(
                    transformed, loops, machine,
                    schedule_memo=self.artifacts.schedule_memo(),
                    block_profile=profile.block_counts if profile else None,
                )
                recorded = executor.run()
                recording = (
                    recorded, executor.recording, executor.load_count,
                )
                self._store(
                    "recording",
                    recording_key,
                    {
                        "result": recorded.to_dict(),
                        "traces": pack_traces(executor.recording),
                        "load_count": executor.load_count,
                    },
                )
                outcome = "compute"
            self._recordings[recording_key] = recording
            return executor, outcome

        return self._stage(bench, "execute", run)

    def pipeline(
        self,
        bench: str,
        options: Optional[HelixOptions] = None,
        prefetch: PrefetchMode = PrefetchMode.HELIX,
        signal_cost: Optional[float] = None,
        unoptimized_signals: bool = False,
        loop_ids: Optional[Sequence[LoopId]] = None,
    ) -> PipelineRun:
        """Select, transform and execute one configuration of one
        benchmark, memoized on the configuration's fingerprint.

        A stored plan stands in for selection and Steps 1-9: with it
        and its recording on disk, nothing is compiled, selected or
        transformed.  A plan whose recording is missing or unreadable
        is recomputed, and both are stored again."""
        options = options or HelixOptions()
        config = pipeline_fingerprint(
            options, prefetch, signal_cost, unoptimized_signals, loop_ids
        )
        key = (bench, config)
        run = self._pipelines.get(key)
        if run is not None:
            self._stage(bench, "execute")
            return run

        # What the run builds on request goes through this runner,
        # held weakly: the runner memoizes the run, and a strong
        # reference back would make it a cycle that keeps every
        # recording it holds alive until the cyclic collector runs.
        owner = weakref.ref(self)

        def runner() -> "EvaluationRunner":
            alive = owner()
            if alive is None:
                raise RuntimeError(
                    f"{bench}: the runner that made this run is gone"
                )
            return alive

        def select() -> Optional[LoopSelection]:
            if loop_ids is not None:
                return None
            return runner().selection(
                bench,
                signal_cost=signal_cost,
                unoptimized_signals=unoptimized_signals,
            )

        machine = self.machine.with_prefetch(prefetch)
        plan_key = self._key(
            "plan",
            bench,
            machine=self.machine,
            config=config,
            profile=None if loop_ids is not None
            else self.profile_digest(bench),
        )
        plan = self._load("plan", plan_key, _decode_plan)
        sequential = self.sequential(bench)

        executor = transformation = None
        if plan is not None:
            chosen, records, recording_key = plan
            executor = self._execute(bench, machine, recording_key, records)
        if executor is None:
            selection = select()
            chosen = selection.chosen if selection is not None else loop_ids
            transformation = self.transform(bench, chosen, machine, options)
            transformed, infos = transformation
            recording_key = self._key(
                "recording",
                bench,
                module=transformed,
                machine=self.machine,
                infos=infos,
            )
            self._store(
                "plan",
                plan_key,
                {
                    "chosen": [list(loop) for loop in chosen],
                    "loops": [LoopRecord.of(info).to_dict() for info in infos],
                    "recording": recording_key,
                },
            )
            executor = self._execute(
                bench, machine, recording_key, infos, transformed
            )

        run = PipelineRun(
            bench=bench,
            chosen=list(chosen),
            executor=executor,
            sequential=sequential,
            _select=select,
            _transform=lambda: runner().transform(
                bench, chosen, machine, options
            ),
        )
        if transformation is not None:
            # Built on the way here: prime the fields built on request.
            run.selection, run._transformation = selection, transformation
        self._pipelines[key] = run
        return run

    def helix_run(self, bench: str) -> PipelineRun:
        """The default full-HELIX configuration of one benchmark."""
        return self.pipeline(bench)

    def timeline(self, run: PipelineRun) -> dict:
        """The ``timeline`` stage: ``run``'s per-core simulated-time
        totals on its machine (:func:`~repro.obs.timeline.timeline_block`),
        walked from its schedule on every request and never stored."""
        from repro.obs.timeline import timeline_block

        return self._stage(
            run.bench, "timeline",
            lambda: (timeline_block(run.executor), "compute"),
        )

    def run_result(
        self, bench: str, checkpoint: Callable[[], None] = lambda: None
    ) -> dict:
        """The answer of a ``run`` job: :meth:`helix_run` of ``bench``
        on this runner's machine, reduced to :data:`RUN_FIELDS`.

        A stage like the others: the answer is looked up in the store
        first, and a hit returns it without entering any other stage (no
        module is compiled, nothing selected or transformed, no trace
        decoded).  Otherwise the pipeline runs stage by stage, calling
        ``checkpoint`` between stages (the orchestrator's cancellation
        point), and the answer is stored.  An entry that is not an
        answer to this request counts as absent and is overwritten.
        """
        def answer(payload: dict) -> dict:
            if (
                payload.keys() != RUN_FIELDS
                or payload["bench"] != bench
                or payload["cores"] != self.machine.cores
            ):
                raise ValueError("not an answer to this request")
            return payload

        def run() -> Tuple[dict, str]:
            disk_key = self._key(
                "run",
                bench,
                machine=self.machine,
                config=pipeline_fingerprint(
                    HelixOptions(), PrefetchMode.HELIX, None, False, None
                ),
            )
            result = self._load("run", disk_key, answer)
            if result is not None:
                return result, "disk"
            self.profile(bench)
            checkpoint()
            self.sequential(bench)
            checkpoint()
            pipeline = self.helix_run(bench)
            result = {
                "bench": bench,
                "cores": self.machine.cores,
                "speedup": pipeline.speedup,
                "cycles": pipeline.parallel.cycles,
                "sequential_cycles": pipeline.sequential.cycles,
                "output": list(pipeline.parallel.result.output),
                "output_matches": pipeline.output_matches,
                "chosen": [list(loop) for loop in pipeline.chosen],
            }
            self._store("run", disk_key, result)
            return result, "compute"

        return self._stage(bench, "run", run)

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
