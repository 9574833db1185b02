"""Walk one benchmark through the paper's ablations (Figure 10 / S3.3).

Runs the twolf benchmark (annealing placement: an RNG-carried segment
plus a long parallel cost evaluation) under every combination the paper
studies: Steps 6 and 8 disabled, prefetching variants, and core counts.

Run:  python examples/ablation_walkthrough.py
"""

from repro import MachineConfig, parallelize_and_run
from repro.bench import compile_benchmark
from repro.core.loopinfo import HelixOptions
from repro.runtime.machine import PrefetchMode


def run(label, machine, options=None):
    ref = compile_benchmark("twolf", "ref")
    train = compile_benchmark("twolf", "train")
    result = parallelize_and_run(
        ref, machine, options=options, train_module=train
    )
    assert result.output_matches
    loops = result.parallel.loop_stats.values()
    signals = sum(s.signals for s in loops)
    stalls = sum(s.wait_stall_cycles for s in loops)
    print(
        f"{label:<28} speedup={result.speedup:5.2f}x  "
        f"signals={signals:>7,}  stall cycles={stalls:>10,}"
    )
    return result


def main() -> None:
    print("twolf under the paper's ablations (6 cores)")
    print("=" * 72)

    base = MachineConfig(cores=6)
    run("full HELIX", base)
    run(
        "no Figure-6 balancing",
        base,
        HelixOptions(enable_prefetch_balancing=False),
    )
    run("no Step 8 (no prefetching)", base.with_prefetch(PrefetchMode.NONE))
    run(
        "no Step 6 (naive signals)",
        base,
        HelixOptions(enable_signal_optimization=False),
    )
    run(
        "neither step",
        base.with_prefetch(PrefetchMode.NONE),
        HelixOptions(
            enable_signal_optimization=False,
            enable_prefetch_balancing=False,
        ),
    )

    print()
    print("prefetching variants (Section 3.3), from recorded traces:")
    result = run("helix prefetching", base)
    executor = result.executor
    for mode in (PrefetchMode.MATCHED, PrefetchMode.IDEAL):
        replay = executor.replay(base.with_prefetch(mode))
        speedup = result.sequential.cycles / replay.cycles
        print(f"{mode.value + ' prefetching':<28} speedup={speedup:5.2f}x")

    print()
    print("core scaling, from the same traces:")
    for cores in (1, 2, 4, 6, 8, 12):
        replay = executor.replay(base.with_cores(cores))
        speedup = result.sequential.cycles / replay.cycles
        print(f"{cores:>2} cores: {speedup:5.2f}x")


if __name__ == "__main__":
    main()
