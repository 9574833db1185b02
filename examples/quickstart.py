"""Quickstart: parallelize a MiniC program with HELIX and measure it.

Run:  python examples/quickstart.py
"""

from repro import MachineConfig, compile_minic, parallelize_and_run

SOURCE = """
int histogram[32];
int data[256];
int checksum;

void main() {
    // Fill the input deterministically.
    int i;
    for (i = 0; i < 256; i++) {
        data[i] = (i * 2654435761) % 97;
    }

    // Hot loop: per-element feature extraction (parallel) feeding a
    // shared checksum (a short sequential segment HELIX synchronizes).
    for (i = 0; i < 256; i++) {
        int v = data[i];
        int k = 0;
        int feature = 0;
        while (k < 40) {
            feature = feature + ((v + k) ^ (k * 3));
            k++;
        }
        data[i] = feature % 1009;
        checksum = (checksum + feature) % 65521;
    }

    print(checksum);
}
"""


def main() -> None:
    module = compile_minic(SOURCE, name="quickstart")
    machine = MachineConfig(cores=6)

    result = parallelize_and_run(module, machine)

    print("HELIX quickstart")
    print("=" * 50)
    print(f"machine: {machine.cores} cores, SMT helper threads on")
    print(f"loops chosen automatically: {result.chosen}")
    print(f"sequential cycles: {result.sequential.cycles:>12,}")
    print(f"parallel cycles:   {result.parallel.cycles:>12,}")
    print(f"speedup:           {result.speedup:>12.2f}x")
    print(f"output identical:  {result.output_matches}")
    print()
    for loop_id, stats in result.parallel.loop_stats.items():
        print(
            f"loop {loop_id}: {stats.iterations} iterations, "
            f"{stats.signals} signals, {stats.transfer_words} words "
            f"forwarded, loop speedup {stats.loop_speedup:.2f}x"
        )


if __name__ == "__main__":
    main()
