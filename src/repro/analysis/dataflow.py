"""A generic iterative dataflow framework.

Problems describe direction (forward/backward), meet (union/intersection),
boundary and initial values, and per-block transfer functions over
``frozenset`` facts.  The solver runs a worklist to a fixed point.
Liveness (:mod:`repro.analysis.liveness`) and the definitely-assigned
registers of generated code (:mod:`repro.runtime.codegen`) instantiate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable

from repro.analysis.cfg import CFGView, reverse_postorder

Fact = FrozenSet[Hashable]


@dataclass
class DataflowProblem:
    """Declarative description of a dataflow problem.

    ``transfer(block_name, in_fact) -> out_fact`` must be monotone.
    ``meet`` is ``"union"`` (may) or ``"intersection"`` (must).
    For must-problems, ``universe`` supplies the top value used to
    initialize interior blocks.
    """

    direction: str  # "forward" | "backward"
    meet: str  # "union" | "intersection"
    transfer: Callable[[str, Fact], Fact]
    boundary: Fact = frozenset()
    universe: Fact = frozenset()

    def __post_init__(self) -> None:
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"bad direction {self.direction!r}")
        if self.meet not in ("union", "intersection"):
            raise ValueError(f"bad meet {self.meet!r}")


@dataclass
class DataflowResult:
    """IN/OUT facts per block, in the problem's direction."""

    inputs: Dict[str, Fact]
    outputs: Dict[str, Fact]


def solve_dataflow(cfg: CFGView, problem: DataflowProblem) -> DataflowResult:
    """Iterate ``problem`` over ``cfg`` to a fixed point."""
    forward = problem.direction == "forward"
    if forward:
        edges_in = cfg.preds
        edges_out = cfg.succs
        boundary_nodes = {cfg.entry}
        order = reverse_postorder(cfg)
    else:
        edges_in = cfg.succs
        edges_out = cfg.preds
        boundary_nodes = set(cfg.exits)
        order = list(reversed(reverse_postorder(cfg)))

    nodes = [n for n in order]
    top = problem.universe if problem.meet == "intersection" else frozenset()
    inputs: Dict[str, Fact] = {}
    outputs: Dict[str, Fact] = {n: top for n in nodes}

    # For intersection problems a node with no in-edges (other than the
    # boundary) takes the boundary value; meet over an empty set is top.
    position = {name: i for i, name in enumerate(nodes)}
    work = list(nodes)
    in_work = set(nodes)
    while work:
        node = work.pop(0)
        in_work.discard(node)
        incoming = [p for p in edges_in[node] if p in position]
        if node in boundary_nodes and not incoming:
            in_fact = problem.boundary
        else:
            facts = [outputs[p] for p in incoming]
            if node in boundary_nodes:
                facts.append(problem.boundary)
            if not facts:
                in_fact = top
            elif problem.meet == "union":
                merged = set()
                for fact in facts:
                    merged |= fact
                in_fact = frozenset(merged)
            else:
                merged = set(facts[0])
                for fact in facts[1:]:
                    merged &= fact
                in_fact = frozenset(merged)
        inputs[node] = in_fact
        out_fact = problem.transfer(node, in_fact)
        if out_fact != outputs[node]:
            outputs[node] = out_fact
            for succ in edges_out[node]:
                if succ in position and succ not in in_work:
                    work.append(succ)
                    in_work.add(succ)
    return DataflowResult(inputs=inputs, outputs=outputs)
