"""Loop selection (Section 2.2).

The algorithm runs entirely on analysis results and profile data -- no IR
is mutated -- and proceeds in three stages:

1. **Candidate characterization.**  Every loop observed in the dynamic
   loop nesting graph is analyzed: its would-be sequential segments
   (Steps 2/4/6 evaluated analytically), prologue, and transfer volume are
   priced with profile weights, yielding :class:`LoopModelInputs`.
2. **maxT propagation.**  Each node gets ``T`` (time saved if this loop is
   parallelized, from the speedup model) and ``maxT`` (best achievable by
   it or any combination of its subloops); ``maxT`` flows from inner to
   outer loops until a fixed point.
3. **Top-down search.**  From the outermost loops downward, descend while
   a combination of subloops beats the current loop (``maxT > T``); stop
   and select when ``maxT == T > 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.dependence import DependenceAnalysis
from repro.analysis.loopnest import DynamicLoopNestGraph, LoopId
from repro.analysis.loops import Loop
from repro.analysis.manager import AnalysisManager
from repro.core.model import LoopModelInputs, SpeedupModel
from repro.core.segments import (
    compute_region,
    segment_span_blocks,
)
from repro.ir import Function, Module, Opcode
from repro.obs import get_tracer
from repro.runtime.machine import MachineConfig
from repro.runtime.profiler import ProfileData
from repro.transform.normalize import loop_prologue


@dataclass
class SelectionConfig:
    """Knobs of the selection heuristic."""

    machine: MachineConfig = field(default_factory=MachineConfig)
    cores: int = 6
    #: Believed per-signal cost S.  ``None`` = workload-aware effective
    #: latency (the paper's "4 cycles = fully prefetched" assumption,
    #: validated by profiling the optimized form of each loop); a number
    #: fixes S blindly -- 0 and 110 are the Figure 12 corner cases.
    signal_cost: "float | None" = None
    #: Ignore loops with almost no profiled time (noise).
    min_total_cycles: int = 50
    #: Price every dependence's signals instead of the Step 6-minimized
    #: set (used when evaluating the Figure 10 "no Step 6" ablation, whose
    #: loops are selected from profiles of that configuration).
    unoptimized_signals: bool = False


@dataclass
class LoopSelection:
    """Result of the selection algorithm."""

    chosen: List[LoopId]
    candidates: Dict[LoopId, LoopModelInputs]
    saved_time: Dict[LoopId, float]
    max_saved_time: Dict[LoopId, float]
    dynamic_graph: DynamicLoopNestGraph
    config: SelectionConfig

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)

    def predicted_speedup(self, cores: Optional[int] = None) -> float:
        """Model-predicted whole-program speedup of the chosen set."""
        cores = cores or self.config.cores
        total = sum(
            inputs.total_cycles for inputs in self.candidates.values()
        )
        model = SpeedupModel(
            self.config.machine,
            program_cycles=self._program_cycles,
            signal_cost=self.config.signal_cost,
        )
        loops = [self.candidates[lid] for lid in self.chosen]
        return model.program_speedup(loops, cores)

    _program_cycles: float = 0.0


# -- candidate characterization ---------------------------------------------------


def characterize_loop(
    module: Module,
    func: Function,
    loop: Loop,
    profile: ProfileData,
    analysis: DependenceAnalysis,
    machine: MachineConfig,
    nesting_level: int = 1,
    unoptimized_signals: bool = False,
    manager: Optional[AnalysisManager] = None,
) -> LoopModelInputs:
    """Build the model inputs of one candidate loop."""
    if manager is None:
        manager = AnalysisManager()
    cfg = manager.cfg(func)
    induction = manager.induction(func, loop)
    loop_profile = profile.loop(loop.id)
    deps = analysis.loop_dependences(func, loop, induction=induction)

    # Analytic Step 6: distinct regions, maximal under containment.
    regions = []
    for dep in deps:
        region = compute_region(cfg, loop, dep, func)
        if region:
            regions.append((dep, region))
    kept = []
    for i, (dep_i, region_i) in enumerate(regions):
        covered = False
        for j, (dep_j, region_j) in enumerate(regions):
            if i == j:
                continue
            if region_i < region_j or (region_i == region_j and j < i):
                covered = True
                break
        if not covered:
            kept.append((dep_i, region_i))

    # Segment time: the dynamic wait..signal span, profile-weighted.
    # Three contributions:
    #   * interior span blocks (strictly between an endpoint block and the
    #     signal) count in full -- Step 5 cannot move code across blocks;
    #   * a subloop containing an endpoint counts in full: the segment
    #     stays open across every one of its iterations;
    #   * in plain endpoint blocks only the endpoints themselves count
    #     (plus the wait/signal/forwarding ops Step 7 adds), because the
    #     scheduler sinks the wait below the endpoints' feeders and moves
    #     independent code past the signal.
    instr_block: Dict[int, str] = {}
    for name in loop.blocks:
        for instr in func.blocks[name].instructions:
            instr_block[instr.uid] = name
    forest = manager.loops(func)

    full_blocks: Set[str] = set()
    endpoint_cost = 0.0
    sync_deps = 0
    for dep, region in regions:
        span = segment_span_blocks(cfg, loop, dep, region, func)
        dep_endpoint_blocks = set()
        for endpoint in dep.endpoints():
            name = instr_block.get(endpoint.uid)
            if name is None:
                continue
            dep_endpoint_blocks.add(name)
            inner = forest.loop_of(name)
            if inner is not None and inner.header != loop.header:
                # Endpoint inside a subloop: the whole subloop (up to the
                # candidate's direct child) sits inside the segment.
                while (
                    inner.parent is not None
                    and inner.parent.header != loop.header
                ):
                    inner = inner.parent
                full_blocks |= inner.blocks
            count = profile.block_count(func.name, name)
            endpoint_cost += count * profile.instruction_cost(
                machine, func.name, endpoint
            )
        full_blocks |= span - dep_endpoint_blocks
        sync_deps += 1

    def block_cycles(name: str) -> float:
        count = profile.block_count(func.name, name)
        if count == 0:
            return 0.0
        return count * sum(
            profile.instruction_cost(machine, func.name, instr)
            for instr in func.blocks[name].instructions
        )

    # Wait/signal/slot/xfer overhead per synchronized dep per iteration.
    sync_overhead = 6.0 * len(kept) * max(1, loop_profile.iterations)
    segment_cycles = (
        sum(block_cycles(name) for name in full_blocks)
        + endpoint_cost
        + sync_overhead
    )

    # Prologue time (Sequential-Control): header-side blocks not already
    # counted as segment time: Step 1's prologue, taken on the loop as it
    # stands (its latches not yet unified).
    prologue_blocks = loop_prologue(cfg, loop)
    prologue_cycles = sum(
        block_cycles(name) for name in prologue_blocks - full_blocks
    )

    # Clamp into a proper decomposition: prologue + segment + parallel
    # partition the loop's profiled time.
    total = float(loop_profile.total_cycles)
    prologue_cycles = min(prologue_cycles, total)
    segment_cycles = min(segment_cycles, total - prologue_cycles)
    parallel = max(0.0, total - segment_cycles - prologue_cycles)

    # Transfer volume: one word per data-carrying dependence, weighted by
    # how often a producer actually runs (block count / iterations).
    iterations = max(1, loop_profile.iterations)
    words = 0.0
    for dep in deps:
        if dep.transfer_words <= 0:
            continue
        freq = 0.0
        for source in dep.sources:
            name = instr_block.get(source.uid)
            if name is None:
                continue
            freq = max(
                freq,
                profile.block_count(func.name, name) / iterations,
            )
        words += dep.transfer_words * min(1.0, freq)

    # Counted-loop test (Step 3): no side effects and no dependence
    # endpoints in the prologue.
    endpoint_blocks: Set[str] = set()
    for dep, _region in regions:
        for endpoint in dep.endpoints():
            name = instr_block.get(endpoint.uid)
            if name is not None:
                endpoint_blocks.add(name)
    counted = not (prologue_blocks & endpoint_blocks)
    if counted:
        for name in prologue_blocks:
            for instr in func.blocks[name].instructions:
                if instr.opcode in (
                    Opcode.CALL,
                    Opcode.PRINT,
                    Opcode.STOREG,
                    Opcode.STOREP,
                ):
                    counted = False
                    break
            if not counted:
                break

    return LoopModelInputs(
        loop_id=loop.id,
        invocations=loop_profile.invocations,
        iterations=loop_profile.iterations,
        total_cycles=total,
        parallel_cycles=parallel,
        segment_cycles=segment_cycles,
        prologue_cycles=prologue_cycles,
        segments_per_iteration=(
            len(regions) if unoptimized_signals else len(kept)
        ),
        transfer_words_per_iteration=words,
        nesting_level=nesting_level,
        counted=counted,
    )


def _dynamic_levels(graph: DynamicLoopNestGraph) -> Dict[LoopId, int]:
    """1-based minimum distance from a root of the dynamic graph."""
    levels: Dict[LoopId, int] = {}
    frontier = graph.roots()
    level = 1
    seen: Set[LoopId] = set()
    while frontier:
        next_frontier: List[LoopId] = []
        for node in frontier:
            if node in seen:
                continue
            seen.add(node)
            levels[node] = level
            next_frontier.extend(graph.children(node))
        frontier = [n for n in next_frontier if n not in seen]
        level += 1
    return levels


def analyze_candidates(
    module: Module,
    profile: ProfileData,
    config: SelectionConfig,
    manager: Optional[AnalysisManager] = None,
) -> Dict[LoopId, LoopModelInputs]:
    """Characterize every profiled loop."""
    if manager is None:
        manager = AnalysisManager()
    with get_tracer().span(
        "select.analyze_candidates", cat="selection"
    ) as span:
        result = _analyze_candidates(module, profile, config, manager)
        span.set(candidates=len(result))
    return result


def _analyze_candidates(
    module: Module,
    profile: ProfileData,
    config: SelectionConfig,
    manager: AnalysisManager,
) -> Dict[LoopId, LoopModelInputs]:
    analysis = manager.dependence(module)
    forests = {name: manager.loops(f) for name, f in module.functions.items()}
    levels = _dynamic_levels(profile.dynamic_nesting)
    result: Dict[LoopId, LoopModelInputs] = {}
    for loop_id in profile.dynamic_nesting.nodes():
        func_name, header = loop_id
        func = module.functions.get(func_name)
        if func is None:
            continue
        loop = forests[func_name].by_header.get(header)
        if loop is None:
            continue
        result[loop_id] = characterize_loop(
            module,
            func,
            loop,
            profile,
            analysis,
            config.machine,
            nesting_level=levels.get(loop_id, 1),
            unoptimized_signals=config.unoptimized_signals,
            manager=manager,
        )
    return result


# -- the selection algorithm -----------------------------------------------------


def _filter_statically_nested(
    module: Module,
    chosen: Sequence[LoopId],
    manager: AnalysisManager,
) -> List[LoopId]:
    """Drop loops statically nested inside another chosen loop of the same
    function (the runtime flag would serialize them anyway)."""
    forests = {name: manager.loops(f) for name, f in module.functions.items()}
    result: List[LoopId] = []
    for loop_id in chosen:
        func_name, header = loop_id
        loop = forests[func_name].by_header.get(header)
        nested = False
        if loop is not None:
            for other_id in chosen:
                if other_id == loop_id or other_id[0] != func_name:
                    continue
                other = forests[func_name].by_header.get(other_id[1])
                if other is not None and loop.blocks < other.blocks:
                    nested = True
                    break
        if not nested:
            result.append(loop_id)
    return result


def choose_loops(
    module: Module,
    profile: ProfileData,
    config: Optional[SelectionConfig] = None,
    manager: Optional[AnalysisManager] = None,
) -> LoopSelection:
    """Run the full Section 2.2 selection."""
    config = config or SelectionConfig()
    if manager is None:
        manager = AnalysisManager()
    with get_tracer().span("select.choose_loops", cat="selection") as span:
        selection = _choose_loops(module, profile, config, manager)
        span.set(
            candidates=len(selection.candidates),
            chosen=len(selection.chosen),
        )
    return selection


def _choose_loops(
    module: Module,
    profile: ProfileData,
    config: SelectionConfig,
    manager: AnalysisManager,
) -> LoopSelection:
    candidates = analyze_candidates(module, profile, config, manager=manager)
    model = SpeedupModel(
        config.machine,
        program_cycles=float(profile.total_cycles),
        signal_cost=config.signal_cost,
    )

    graph = profile.dynamic_nesting
    saved: Dict[LoopId, float] = {}
    for loop_id, inputs in candidates.items():
        if inputs.total_cycles < config.min_total_cycles:
            saved[loop_id] = 0.0
        else:
            saved[loop_id] = model.saved_cycles(inputs, config.cores)

    # Phase 1: propagate maxT inner -> outer to a fixed point.
    max_saved: Dict[LoopId, float] = dict(saved)
    for _ in range(len(candidates) + 2):
        changed = False
        for loop_id in candidates:
            child_sum = sum(
                max_saved.get(child, 0.0) for child in graph.children(loop_id)
            )
            best = max(saved[loop_id], child_sum)
            if best > max_saved[loop_id] + 1e-9:
                max_saved[loop_id] = best
                changed = True
        if not changed:
            break

    # Phase 2: top-down search.
    chosen: List[LoopId] = []
    visited: Set[LoopId] = set()
    work = [root for root in graph.roots() if root in candidates]
    while work:
        node = work.pop()
        if node in visited:
            continue
        visited.add(node)
        t = saved.get(node, 0.0)
        max_t = max_saved.get(node, 0.0)
        if max_t <= 0.0:
            continue
        if max_t <= t + 1e-9:
            chosen.append(node)
        else:
            work.extend(
                child for child in graph.children(node) if child in candidates
            )

    chosen = _filter_statically_nested(
        module, sorted(set(chosen)), manager=manager
    )
    selection = LoopSelection(
        chosen=sorted(chosen),
        candidates=candidates,
        saved_time=saved,
        max_saved_time=max_saved,
        dynamic_graph=graph,
        config=config,
    )
    selection._program_cycles = float(profile.total_cycles)
    return selection


def fixed_level_selection(
    module: Module,
    profile: ProfileData,
    level: int,
    manager: Optional[AnalysisManager] = None,
) -> List[LoopId]:
    """All profiled loops at one nesting level (the Figure 11/13 baseline)."""
    if manager is None:
        manager = AnalysisManager()
    with get_tracer().span(
        "select.fixed_level", cat="selection", level=level
    ):
        return _fixed_level_selection(module, profile, level, manager)


def _fixed_level_selection(
    module: Module,
    profile: ProfileData,
    level: int,
    manager: AnalysisManager,
) -> List[LoopId]:
    graph = profile.dynamic_nesting
    levels = _dynamic_levels(graph)
    chosen = [loop_id for loop_id, lvl in levels.items() if lvl == level]
    # Drop loops dynamically nested under another chosen loop (a node can
    # sit at the same minimum level as an ancestor through a second
    # parent); counting both would double-book their time.
    chosen_set = set(chosen)
    deduped = []
    for loop_id in sorted(chosen_set):
        ancestors = graph.graph.ancestors(loop_id)
        if not (ancestors & chosen_set):
            deduped.append(loop_id)
    return _filter_statically_nested(module, deduped, manager=manager)
