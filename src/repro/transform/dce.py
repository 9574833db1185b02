"""Dead code elimination.

Removes pure instructions whose destination register is never read.  Run
after HELIX's scheduling passes in tests to confirm they do not strand
values, and available to users as an ordinary cleanup pass.
"""

from __future__ import annotations

from typing import Set

from repro.ir import Function


def eliminate_dead_code(func: Function) -> int:
    """Iteratively remove dead pure instructions; returns removal count."""
    removed = 0
    changed = True
    while changed:
        changed = False
        used: Set[int] = set()
        for block in func.blocks.values():
            for instr in block.instructions:
                for reg in instr.uses():
                    used.add(reg.uid)
        for block in func.blocks.values():
            keep = []
            for instr in block.instructions:
                dead = (
                    instr.dest is not None
                    and not instr.has_side_effects
                    and not instr.is_terminator
                    and instr.dest.uid not in used
                )
                if dead:
                    removed += 1
                    changed = True
                else:
                    keep.append(instr)
            block.instructions = keep
    if removed:
        func.bump_version()
    return removed
