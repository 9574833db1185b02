"""Inspect what the HELIX transformation does to a loop.

Compiles an irregular loop (data-dependent control flow, a shared
accumulator, a conditionally-updated table), parallelizes it explicitly,
and dumps the parallel version's IR so the inserted ``wait``/``signal``/
``next_iter``/``xfer`` operations and the dual-version guard are visible.

Run:  python examples/inspect_transformation.py
"""

from repro import MachineConfig, compile_minic
from repro.analysis.loops import find_loops
from repro.core.parallelizer import parallelize_module
from repro.ir import Opcode

SOURCE = """
int table[64];
int best;

void main() {
    int i;
    for (i = 0; i < 50; i++) {
        // Irregular control flow: data-dependent walk length.
        int v = (i * 2654435761) % 64;
        int hops = 0;
        while (v > 3 && hops < 10) {
            v = table[v] % 64;
            hops++;
        }
        // Conditionally updated maximum: a loop-carried dependence with
        // an infrequent producer (cheap data forwarding, Figure 2).
        int score = v * 8 - hops;
        if (score > best) {
            best = score;
        }
        // Private update: affine subscript, no synchronization needed.
        table[i % 64] = score;
    }
    print(best);
}
"""


def main() -> None:
    module = compile_minic(SOURCE, name="inspect")
    loop = next(
        l for l in find_loops(module.functions["main"]) if l.parent is None
    )
    transformed, infos = parallelize_module(
        module, [loop.id], MachineConfig(cores=4)
    )
    info = infos[0]
    func = transformed.functions["main"]

    print("HELIX transformation report")
    print("=" * 64)
    print(f"loop: {info.loop_id}  counted={info.counted}")
    print(f"dependences found: {len(info.deps)}")
    for sync in info.deps:
        status = (
            "synchronized"
            if sync.synchronized
            else f"covered by d{sync.covered_by}"
        )
        print(
            f"  d{sync.dep.index}: {sync.dep.kind.value:>8} on "
            f"{sync.dep.location:<12} region={len(sync.region)} blocks "
            f"[{status}]"
        )
    print(
        f"sync ops: {info.naive_waits + info.naive_signals} inserted, "
        f"{info.final_waits + info.final_signals} after Step 6 "
        f"({info.segments_per_iteration} sequential segment(s)/iteration)"
    )
    print(f"helper thread wait order: {info.helper_order}")
    print()

    print("guard block (Step 9 -- picks sequential vs parallel version):")
    for instr in func.blocks[info.guard_block]:
        print(f"    {instr}")
    print()

    print("parallel version blocks (prologue marked P, body marked B):")
    for name in sorted(info.par_blocks):
        tag = "P" if name in info.prologue_blocks else "B"
        print(f"  [{tag}] {name}:")
        for instr in func.blocks[name]:
            marker = ""
            if instr.opcode in (Opcode.WAIT, Opcode.SIGNAL):
                marker = "   <-- synchronization"
            elif instr.opcode is Opcode.NEXT_ITER:
                marker = "   <-- unblocks the next iteration's core"
            elif instr.opcode is Opcode.XFER:
                marker = "   <-- data-forwarding mark"
            print(f"        {instr}{marker}")


if __name__ == "__main__":
    main()
