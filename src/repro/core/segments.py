"""Step 4: computing sequential segments and inserting wait/signal.

For every dependence ``d = (a, b)`` in ``D_data``:

* ``wait(d)`` is inserted immediately before each occurrence of an
  endpoint, and before every ``signal(d)`` (so the next iteration is
  unblocked only after *all* previous iterations got past the endpoints --
  the paper's handling of dependences spanning non-adjacent iterations).
* ``signal(d)`` is inserted at the earliest point along every path through
  the iteration at which neither endpoint can be reached any more: the
  entries of blocks outside the guarded region whose predecessor is inside
  it, and the end of the latch when the region extends to it.

The *guarded region* R(d) is the set of loop blocks from which an endpoint
block is still reachable without crossing the loop's back edge.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence, Set, Tuple

from repro.analysis.cfg import CFGView, reachable_within
from repro.analysis.dependence import DataDependence
from repro.analysis.loops import Loop
from repro.core.loopinfo import DepSync
from repro.ir import Function, Instruction, Opcode


def compute_region(
    cfg: CFGView, loop: Loop, dep: DataDependence, func: Function
) -> FrozenSet[str]:
    """R(d): loop blocks that can still reach an endpoint this iteration."""
    endpoint_blocks: Set[str] = set()
    endpoint_uids = {i.uid for i in dep.endpoints()}
    for name in loop.blocks:
        block = func.blocks[name]
        if any(instr.uid in endpoint_uids for instr in block.instructions):
            endpoint_blocks.add(name)
    blocked = {(latch, loop.header) for latch in loop.latches}
    region = reachable_within(
        cfg, endpoint_blocks, frozenset(loop.blocks), blocked
    )
    return frozenset(region)


def signal_sites(
    cfg: CFGView,
    loop: Loop,
    region: FrozenSet[str],
    inblock_signalled: FrozenSet[str] = frozenset(),
) -> Tuple[List[str], bool]:
    """Where signal(d) goes: (entry blocks outside R, signal-at-latch?).

    ``inblock_signalled`` are region blocks that already signal right
    after their last endpoint; paths through them need no entry signal.
    """
    back_edges = {(latch, loop.header) for latch in loop.latches}
    entries: List[str] = []
    for name in sorted(loop.blocks):
        if name in region:
            continue
        preds_in_region = [
            p
            for p in cfg.preds[name]
            if p in region
            and (p, name) not in back_edges
            and p not in inblock_signalled
        ]
        if preds_in_region:
            entries.append(name)
    at_latch = any(
        latch in region and latch not in inblock_signalled
        for latch in loop.latches
    )
    return entries, at_latch


def inblock_signal_blocks(
    cfg: CFGView,
    loop: Loop,
    region: FrozenSet[str],
    endpoint_blocks: FrozenSet[str],
) -> FrozenSet[str]:
    """Endpoint blocks where the signal can go right after the last
    endpoint: no endpoint is reachable afterwards because every
    in-iteration successor lies outside the region.  This realizes the
    paper's "earliest point at which neither a nor b can be reached" at
    instruction granularity.
    """
    back_edges = {(latch, loop.header) for latch in loop.latches}
    result = set()
    for name in endpoint_blocks:
        successors = [
            s
            for s in cfg.succs[name]
            if s in loop.blocks and (name, s) not in back_edges
        ]
        if all(s not in region for s in successors):
            result.add(name)
    return frozenset(result)


def insert_synchronization(
    func: Function,
    loop: Loop,
    deps: Sequence[DataDependence],
    cfg: CFGView = None,
) -> List[DepSync]:
    """Insert wait/signal for every dependence; returns their DepSyncs."""
    cfg = cfg or CFGView(func)
    syncs: List[DepSync] = []
    for dep in deps:
        region = compute_region(cfg, loop, dep, func)
        sync = DepSync(dep=dep, region=region)
        if not region:
            # Endpoints vanished (e.g. all disambiguated away upstream).
            sync.synchronized = False
            syncs.append(sync)
            continue
        endpoint_uids = {i.uid for i in dep.endpoints()}
        endpoint_blocks = frozenset(
            name
            for name in region
            if any(
                i.uid in endpoint_uids
                for i in func.blocks[name].instructions
            )
        )
        signal_in_block = inblock_signal_blocks(
            cfg, loop, region, endpoint_blocks
        )

        # wait(d) before each endpoint occurrence; in blocks where the
        # signal is legal right after the last endpoint, place it there.
        for name in sorted(region):
            block = func.blocks[name]
            offset = 0
            last_endpoint_at = None
            for index, instr in enumerate(list(block.instructions)):
                if instr.uid in endpoint_uids:
                    wait = Instruction(Opcode.WAIT, dep_id=dep.index)
                    block.insert(index + offset, wait)
                    offset += 1
                    sync.wait_instrs.append(wait)
                    last_endpoint_at = index + offset
            if name in signal_in_block and last_endpoint_at is not None:
                signal = Instruction(Opcode.SIGNAL, dep_id=dep.index)
                block.insert(last_endpoint_at + 1, signal)
                sync.signal_instrs.append(signal)

        # signal(d) at remaining region exits, preceded by wait(d).
        entries, at_latch = signal_sites(cfg, loop, region, signal_in_block)
        for name in entries:
            block = func.blocks[name]
            wait = Instruction(Opcode.WAIT, dep_id=dep.index)
            signal = Instruction(Opcode.SIGNAL, dep_id=dep.index)
            block.insert(0, wait)
            block.insert(1, signal)
            sync.wait_instrs.append(wait)
            sync.signal_instrs.append(signal)
        if at_latch:
            latch = func.blocks[next(iter(loop.latches))]
            wait = Instruction(Opcode.WAIT, dep_id=dep.index)
            signal = Instruction(Opcode.SIGNAL, dep_id=dep.index)
            latch.insert_before_terminator(wait)
            latch.insert_before_terminator(signal)
            sync.wait_instrs.append(wait)
            sync.signal_instrs.append(signal)
        syncs.append(sync)
    if any(s.wait_instrs or s.signal_instrs for s in syncs):
        func.bump_version()
    return syncs


def segment_span_blocks(
    cfg: CFGView,
    loop: Loop,
    dep: DataDependence,
    region: FrozenSet[str],
    func: Function,
) -> FrozenSet[str]:
    """Blocks dynamically inside the segment: from the first endpoint to
    the signal.

    The segment starts at the first executed ``wait`` (just before an
    endpoint) and ends at the ``signal`` (region exit), so it covers every
    region block reachable *from* an endpoint block within the iteration.
    Loop selection prices these whole blocks as sequential time -- the
    intra-block slice alone badly underestimates segments whose endpoints
    sit at opposite ends of the iteration (the pointer-chasing pattern).
    """
    endpoint_uids = {i.uid for i in dep.endpoints()}
    endpoint_blocks = {
        name
        for name in region
        if any(
            instr.uid in endpoint_uids
            for instr in func.blocks[name].instructions
        )
    }
    back_edges = {(latch, loop.header) for latch in loop.latches}
    reached: Set[str] = set(endpoint_blocks)
    work = list(endpoint_blocks)
    while work:
        node = work.pop()
        for succ in cfg.succs[node]:
            if (
                succ in loop.blocks
                and succ not in reached
                and (node, succ) not in back_edges
            ):
                reached.add(succ)
                work.append(succ)
    return frozenset(reached & region)
