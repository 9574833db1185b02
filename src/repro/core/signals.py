"""Step 6: minimizing signals.

Three cooperating optimizations, run after Step 4's naive insertion:

1. **Dependence redundance graph + Theorem 1.**  ``d_i`` is redundant due
   to ``d_j`` when ``wait(d_j)`` is available (in the dataflow sense) at
   every occurrence of ``wait(d_i)`` *and* the guarded region of ``d_i``
   is contained in that of ``d_j`` (so ``signal(d_j)`` cannot fire before
   ``d_i``'s producers are done).  Per Theorem 1 it suffices to
   synchronize every node without incoming edges plus one node per cycle
   of the graph; we apply it through the SCC condensation -- one
   representative per source component.  Identical regions form cycles, so
   the paper's "segment merging" is the cycle case of the same machinery.
2. **Redundant wait elimination**: a ``wait(d)`` preceded on all paths by
   another ``wait(d)`` is removed.
3. **Redundant signal elimination**: same, for ``signal(d)``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.analysis.cfg import CFGView
from repro.analysis.digraph import DiGraph
from repro.analysis.loops import Loop
from repro.core.loopinfo import DepSync
from repro.ir import Function, Instruction, Opcode

Fact = FrozenSet[int]


def _availability(
    func: Function,
    loop: Loop,
    cfg: CFGView,
    opcode: Opcode,
) -> Dict[str, Fact]:
    """Must-availability of per-dep WAIT (or SIGNAL) ops at block entry.

    Forward intersection analysis over the loop subgraph with back edges
    cut: a dep index is available at a point if on *every* path from the
    start of the iteration an instruction of ``opcode`` with that dep_id
    has executed.
    """
    gen: Dict[str, Set[int]] = {}
    universe: Set[int] = set()
    for name in loop.blocks:
        ids = {
            i.dep_id
            for i in func.blocks[name].instructions
            if i.opcode is opcode and i.dep_id is not None
        }
        gen[name] = ids
        universe |= ids
    back_edges = {(latch, loop.header) for latch in loop.latches}

    avail_in: Dict[str, Fact] = {name: frozenset(universe) for name in loop.blocks}
    avail_in[loop.header] = frozenset()
    changed = True
    while changed:
        changed = False
        for name in loop.blocks:
            if name == loop.header:
                in_fact: FrozenSet[int] = frozenset()
            else:
                preds = [
                    p
                    for p in cfg.preds[name]
                    if p in loop.blocks and (p, name) not in back_edges
                ]
                if preds:
                    merged = set(avail_in[preds[0]] | gen[preds[0]])
                    for p in preds[1:]:
                        merged &= avail_in[p] | gen[p]
                    in_fact = frozenset(merged)
                else:
                    in_fact = frozenset(universe)
            if in_fact != avail_in[name]:
                avail_in[name] = in_fact
                changed = True
    return avail_in


def _available_before(
    func: Function,
    avail_in: Dict[str, Fact],
    block_name: str,
    target: Instruction,
    opcode: Opcode,
) -> Set[int]:
    """Dep ids with an ``opcode`` op executed before ``target`` in its block
    (plus everything available at block entry)."""
    result = set(avail_in.get(block_name, frozenset()))
    for instr in func.blocks[block_name].instructions:
        if instr is target:
            break
        if instr.opcode is opcode and instr.dep_id is not None:
            result.add(instr.dep_id)
    return result


def _instr_block(func: Function, loop: Loop, instr: Instruction) -> str:
    for name in loop.blocks:
        for existing in func.blocks[name].instructions:
            if existing is instr:
                return name
    raise ValueError(f"instruction {instr} not found in loop")


def build_redundance_graph(
    func: Function, loop: Loop, cfg: CFGView, syncs: Sequence[DepSync]
) -> DiGraph:
    """Edges ``d_j -> d_i`` meaning ``d_i`` is redundant due to ``d_j``."""
    graph = DiGraph()
    active = [s for s in syncs if s.synchronized]
    for sync in active:
        graph.add_node(sync.dep.index)
    avail_in = _availability(func, loop, cfg, Opcode.WAIT)

    # Where each dependence's endpoints live (the occurrences of a and b;
    # the auxiliary pre-signal waits disappear with the dependence, so
    # coverage is checked at the endpoints themselves).
    endpoint_sites: Dict[int, List[Tuple[str, Instruction]]] = {}
    for sync in active:
        sites = []
        endpoint_uids = {e.uid for e in sync.dep.endpoints()}
        for name in loop.blocks:
            for instr in func.blocks[name].instructions:
                if instr.uid in endpoint_uids:
                    sites.append((name, instr))
        endpoint_sites[sync.dep.index] = sites

    for si in active:
        for sj in active:
            if si is sj:
                continue
            if not si.region <= sj.region:
                continue
            covered = True
            for block_name, endpoint in endpoint_sites[si.dep.index]:
                before = _available_before(
                    func, avail_in, block_name, endpoint, Opcode.WAIT
                )
                if sj.dep.index not in before:
                    covered = False
                    break
            if covered:
                graph.add_edge(sj.dep.index, si.dep.index)
    return graph


def apply_theorem1(graph: DiGraph) -> Set[int]:
    """N_to-synch: one representative per source SCC of the graph."""
    return {min(component) for component in graph.source_components()}


def _remove_instrs(func: Function, loop: Loop, instrs: Sequence[Instruction]) -> int:
    uids = {i.uid for i in instrs}
    removed = 0
    for name in loop.blocks:
        block = func.blocks[name]
        before = len(block.instructions)
        block.instructions = [i for i in block.instructions if i.uid not in uids]
        removed += before - len(block.instructions)
    return removed


def eliminate_redundant_waits(
    func: Function, loop: Loop, cfg: CFGView, syncs: Sequence[DepSync]
) -> int:
    """Remove waits already covered by an earlier wait of the same dep."""
    avail_in = _availability(func, loop, cfg, Opcode.WAIT)
    removed = 0
    for sync in syncs:
        if not sync.synchronized:
            continue
        survivors: List[Instruction] = []
        for wait in sync.wait_instrs:
            block_name = _instr_block(func, loop, wait)
            before = _available_before(
                func, avail_in, block_name, wait, Opcode.WAIT
            )
            if sync.dep.index in before:
                func.blocks[block_name].remove(wait)
                removed += 1
            else:
                survivors.append(wait)
        sync.wait_instrs = survivors
    return removed


def eliminate_redundant_signals(
    func: Function, loop: Loop, cfg: CFGView, syncs: Sequence[DepSync]
) -> int:
    """Remove signals already covered by an earlier signal of the same dep."""
    avail_in = _availability(func, loop, cfg, Opcode.SIGNAL)
    removed = 0
    for sync in syncs:
        if not sync.synchronized:
            continue
        survivors: List[Instruction] = []
        for signal in sync.signal_instrs:
            block_name = _instr_block(func, loop, signal)
            before = _available_before(
                func, avail_in, block_name, signal, Opcode.SIGNAL
            )
            if sync.dep.index in before:
                func.blocks[block_name].remove(signal)
                removed += 1
            else:
                survivors.append(signal)
        sync.signal_instrs = survivors
    return removed


def optimize_signals(
    func: Function,
    loop: Loop,
    syncs: Sequence[DepSync],
    cfg: CFGView = None,
) -> Dict[str, int]:
    """Run all of Step 6; returns statistics of what was removed.

    ``cfg`` may be supplied by the caller (the analysis manager's current
    snapshot): this pass only removes straight-line wait/signal
    instructions, never branch targets, so one CFG view stays valid
    throughout.
    """
    cfg = cfg or CFGView(func)
    graph = build_redundance_graph(func, loop, cfg, syncs)
    keep = apply_theorem1(graph)

    dropped_waits = 0
    dropped_signals = 0
    for sync in syncs:
        if not sync.synchronized:
            continue
        if sync.dep.index not in keep:
            # Covered: record which kept dependence covers it.
            for pred in graph.predecessors(sync.dep.index):
                if pred in keep:
                    sync.covered_by = pred
                    break
            else:
                ancestors = graph.ancestors(sync.dep.index) & keep
                sync.covered_by = min(ancestors) if ancestors else None
            sync.synchronized = False
            dropped_waits += _remove_instrs(func, loop, sync.wait_instrs)
            dropped_signals += _remove_instrs(func, loop, sync.signal_instrs)
            sync.wait_instrs = []
            sync.signal_instrs = []

    dropped_waits += eliminate_redundant_waits(func, loop, cfg, syncs)
    dropped_signals += eliminate_redundant_signals(func, loop, cfg, syncs)
    if dropped_waits or dropped_signals:
        func.bump_version()
    return {
        "removed_waits": dropped_waits,
        "removed_signals": dropped_signals,
        "kept_deps": len(keep),
    }
