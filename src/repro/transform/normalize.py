"""Loop normalization (HELIX Step 1).

Brings a natural loop into the paper's normal form:

* a unique *preheader* (single edge into the header from outside);
* a unique *latch* carrying the only back edge;
* a partition of the loop blocks into the **prologue** -- the minimum set
  of instructions that must execute to decide whether the next iteration's
  prologue executes (formally: blocks *not* post-dominated, within the
  loop, by the unified latch) -- and the **body** (the rest).  Loop exits
  can only originate in the prologue; once control crosses a
  prologue->body edge, the next iteration is certain to start.

The partition is what Step 3 needs: ``NEXT_ITER`` is inserted on every
prologue->body crossing (each crossed exactly once per completing
iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.cfg import CFGView, reachable_within
from repro.analysis.loops import Loop
from repro.ir import Function, Instruction, Opcode


@dataclass
class NormalizedLoop:
    """The result of normalizing one loop."""

    func: Function
    header: str
    preheader: str
    latch: str
    blocks: Set[str]
    prologue_blocks: Set[str] = field(default_factory=set)
    body_blocks: Set[str] = field(default_factory=set)
    #: Edges (prologue block -> body block) where iteration i+1 may start.
    crossing_edges: List[Tuple[str, str]] = field(default_factory=list)
    #: Exit edges (block inside -> first block outside).
    exit_edges: List[Tuple[str, str]] = field(default_factory=list)
    #: Blocks normalization had to create -> the block that was there
    #: before and runs about as often (an outside predecessor for a new
    #: preheader, the header for a unified latch).
    created: Dict[str, str] = field(default_factory=dict)


def _ensure_preheader(func: Function, loop: Loop, cfg: CFGView) -> Tuple[str, CFGView]:
    """Create (or find) the unique preheader of ``loop``."""
    outside_preds = [
        p for p in cfg.preds[loop.header] if p not in loop.blocks
    ]
    if len(outside_preds) == 1:
        pred = func.blocks[outside_preds[0]]
        term = pred.terminator
        if term is not None and term.opcode is Opcode.BR:
            return outside_preds[0], cfg
    pre = func.new_block("pre")
    pre.append(Instruction(Opcode.BR, targets=(loop.header,)))
    for pred_name in outside_preds:
        func.blocks[pred_name].retarget(loop.header, pre.name)
    return pre.name, CFGView(func)


def _ensure_single_latch(
    func: Function, loop: Loop, cfg: CFGView
) -> Tuple[str, CFGView]:
    """Merge multiple back edges through one unified latch block."""
    latches = sorted(loop.latches)
    if len(latches) == 1:
        latch_block = func.blocks[latches[0]]
        term = latch_block.terminator
        if term is not None and term.opcode is Opcode.BR:
            return latches[0], cfg
    latch = func.new_block("latch")
    latch.append(Instruction(Opcode.BR, targets=(loop.header,)))
    for name in latches:
        func.blocks[name].retarget(loop.header, latch.name)
    loop.blocks.add(latch.name)
    loop.latches = {latch.name}
    return latch.name, CFGView(func)


def loop_prologue(cfg: CFGView, loop: Loop) -> Set[str]:
    """Step 1's prologue: the loop blocks from which control can leave
    the loop without passing a latch, i.e. those no latch post-dominates
    within the iteration.

    An exit-free loop would have an empty prologue; its header stays in
    the prologue so iteration hand-off still has a well-defined point.
    """
    exiting = [
        name for name in loop.blocks
        if any(succ not in loop.blocks for succ in cfg.succs[name])
    ]
    prologue = reachable_within(cfg, exiting, frozenset(loop.blocks - loop.latches))
    return prologue or {loop.header}


def normalize_loop(func: Function, loop: Loop) -> NormalizedLoop:
    """Normalize ``loop`` in place and return the region description."""
    cfg = CFGView(func)
    existing = set(func.blocks)
    preheader, cfg = _ensure_preheader(func, loop, cfg)
    latch, cfg = _ensure_single_latch(func, loop, cfg)
    created: Dict[str, str] = {}
    if preheader not in existing:
        created[preheader] = next(iter(cfg.preds[preheader]), loop.header)
    if latch not in existing:
        created[latch] = loop.header

    prologue = loop_prologue(cfg, loop)
    body = loop.blocks - prologue

    crossing = []
    exits = []
    for name in sorted(loop.blocks):
        for succ in cfg.succs[name]:
            if name in prologue and succ in body:
                crossing.append((name, succ))
            if succ not in loop.blocks:
                exits.append((name, succ))

    return NormalizedLoop(
        func=func,
        header=loop.header,
        preheader=preheader,
        latch=latch,
        blocks=set(loop.blocks),
        prologue_blocks=prologue,
        body_blocks=body,
        crossing_edges=crossing,
        exit_edges=exits,
        created=created,
    )
