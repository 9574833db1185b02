"""Loop selection on 179.art -- the paper's Figure 8 walk.

Builds the dynamic loop nesting graph of the art benchmark (whose
``reset_nodes`` is called from two different loops, making the graph a
DAG rather than a tree), annotates every node with the model's saved time
T and the propagated maxT, and shows which loops the two-phase search
selects.

Run:  python examples/loop_selection_demo.py
"""

from repro.bench import compile_benchmark
from repro.core.selection import SelectionConfig, choose_loops
from repro.runtime.profiler import profile_module
from repro.runtime.machine import MachineConfig


def main() -> None:
    machine = MachineConfig(cores=6)
    module = compile_benchmark("art", "train")
    profile = profile_module(module, machine)
    selection = choose_loops(
        module, profile, SelectionConfig(machine=machine, cores=6)
    )

    graph = selection.dynamic_graph
    chosen = set(selection.chosen)

    print("Dynamic loop nesting graph of art (training input)")
    print("=" * 64)

    def describe(loop_id, depth):
        t = selection.saved_time.get(loop_id, 0.0)
        max_t = selection.max_saved_time.get(loop_id, 0.0)
        mark = "  <= chosen" if loop_id in chosen else ""
        indent = "    " * depth
        print(
            f"{indent}{loop_id[0]}:{loop_id[1]:<10} "
            f"T={t:>10.0f}  maxT={max_t:>10.0f}{mark}"
        )
        for child in graph.children(loop_id):
            describe(child, depth + 1)

    for root in graph.roots():
        describe(root, 0)

    print()
    print(
        "Phase 2 stops descending at nodes where maxT == T: parallelizing"
    )
    print(
        "that loop beats any combination of its subloops.  Note the chosen"
    )
    print("loops sit at different nesting levels (the Figure 8/11 point).")
    print()
    print(f"chosen: {selection.chosen}")
    print(f"candidates considered: {selection.candidate_count}")
    print(f"model-predicted speedup at 6 cores: "
          f"{selection.predicted_speedup(6):.2f}x")


if __name__ == "__main__":
    main()
