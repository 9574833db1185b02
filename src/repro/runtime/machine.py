"""Machine description of the simulated chip multiprocessor.

Defaults model the paper's testbed, an Intel Core i7-980X:

* six cores, each with SMT (so HELIX runs one iteration thread plus one
  helper thread per core -- 2N threads in total);
* an unprefetched inter-core signal costs 110 cycles (two L3-latency hops:
  the receiver polls the shared L3 at 55 cycles and the line is forwarded
  from the sender at another 55 -- Section 3.3);
* a fully prefetched signal costs 4 cycles (an L1 hit);
* forwarding one CPU word of data between cores costs 110 cycles
  (the measured ``M`` of Equation 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict

from repro.ir.instructions import Opcode
from repro.ir.types import CPU_WORD_BYTES


class PrefetchMode(enum.Enum):
    """Helper-thread signal prefetching variants (Sections 2.1/3.3).

    * ``NONE`` -- no helper threads: every wait pays the full pull latency.
    * ``HELIX`` -- helper threads execute the availability-ordered wait
      sequence generated by Step 8.
    * ``MATCHED`` -- helper threads execute waits in the same order as their
      iteration thread (the paper's "matched prefetching" comparison).
    * ``IDEAL`` -- every signal is assumed fully prefetched (L1 hit),
      feasibility ignored (the paper's limit study).
    """

    NONE = "none"
    HELIX = "helix"
    MATCHED = "matched"
    IDEAL = "ideal"


#: Base cycle costs per opcode (integer flavour).  FP arithmetic adds
#: :attr:`CostModel.float_extra`.
_DEFAULT_COSTS: Dict[Opcode, int] = {
    Opcode.MOV: 1,
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.MUL: 3,
    Opcode.DIV: 20,
    Opcode.MOD: 20,
    Opcode.NEG: 1,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.SHL: 1,
    Opcode.SHR: 1,
    Opcode.NOT: 1,
    Opcode.EQ: 1,
    Opcode.NE: 1,
    Opcode.LT: 1,
    Opcode.LE: 1,
    Opcode.GT: 1,
    Opcode.GE: 1,
    Opcode.ITOF: 2,
    Opcode.FTOI: 2,
    Opcode.LEA: 1,
    Opcode.PTRADD: 1,
    Opcode.LOADG: 3,
    Opcode.STOREG: 1,
    Opcode.LOADP: 3,
    Opcode.STOREP: 1,
    Opcode.CALL: 8,
    Opcode.RET: 2,
    Opcode.BR: 1,
    Opcode.CBR: 1,
    Opcode.PRINT: 1,
    # WAIT/SIGNAL base costs are the load/store themselves; the inter-core
    # latency is added by the parallel executor.
    Opcode.WAIT: 1,
    Opcode.SIGNAL: 1,
    Opcode.NEXT_ITER: 1,
    Opcode.XFER: 1,
}


@dataclass(frozen=True)
class CostModel:
    """Per-instruction cycle costs of one core."""

    costs: Dict[Opcode, int] = field(default_factory=lambda: dict(_DEFAULT_COSTS))
    #: Extra cycles for floating-point ADD/SUB/MUL/DIV/NEG.
    float_extra: int = 2

    def cycles(self, opcode: Opcode, is_float: bool = False) -> int:
        """Cycle cost of one dynamic instruction."""
        base = self.costs[opcode]
        if is_float and opcode in (
            Opcode.ADD,
            Opcode.SUB,
            Opcode.MUL,
            Opcode.DIV,
            Opcode.NEG,
        ):
            return base + self.float_extra
        return base


@dataclass(frozen=True)
class MachineConfig:
    """A simulated CMP: core count, SMT, and communication latencies."""

    cores: int = 6
    smt: bool = True
    #: Latency (cycles) of an unprefetched signal: receiver pulls through
    #: the shared cache.  Paper-measured value: 110.
    signal_latency: int = 110
    #: Latency (cycles) of a fully prefetched signal: L1 hit.  Paper: 4.
    prefetched_signal_latency: int = 4
    #: Cycles to transfer one CPU word between cores (``M`` in Equation 1).
    word_transfer_cycles: int = 110
    #: Per-parallel-loop-invocation configuration cost charged to the main
    #: thread, per thread configured (``Conf_i`` contribution).
    config_cycles_per_thread: int = 60
    #: Whether the machine guarantees total store ordering (Section 2.3).
    #: The paper's Intel testbed does; on a weaker machine HELIX must add
    #: memory barriers after synchronizing stores and before synchronizing
    #: loads, each costing ``barrier_cycles``.
    total_store_ordering: bool = True
    barrier_cycles: int = 20
    word_bytes: int = CPU_WORD_BYTES
    cost_model: CostModel = field(default_factory=CostModel)
    prefetch_mode: PrefetchMode = PrefetchMode.HELIX

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("need at least one core")
        if self.signal_latency < self.prefetched_signal_latency:
            raise ValueError(
                "unprefetched signal latency must be >= prefetched latency"
            )

    @property
    def effective_prefetch_mode(self) -> PrefetchMode:
        """Prefetching requires SMT; without it helpers cannot run."""
        if not self.smt:
            return PrefetchMode.NONE
        return self.prefetch_mode

    def fingerprint(self) -> str:
        """Stable key over every field the trace scheduler reads.

        Used to memoize per-machine schedule columns in
        :class:`~repro.runtime.parallel.ParallelExecutor`.  Two configs
        with equal fingerprints produce identical schedules for any
        trace; the cost model and word size are deliberately excluded
        (they shape the trace, not its replay).
        """
        return (
            f"c{self.cores}"
            f":smt{int(self.smt)}"
            f":L{self.signal_latency}"
            f":F{self.prefetched_signal_latency}"
            f":M{self.word_transfer_cycles}"
            f":cf{self.config_cycles_per_thread}"
            f":tso{int(self.total_store_ordering)}"
            f":b{self.barrier_cycles}"
            f":{self.prefetch_mode.value}"
        )

    def with_cores(self, cores: int) -> "MachineConfig":
        """A copy with a different core count."""
        return replace(self, cores=cores)

    def with_prefetch(self, mode: PrefetchMode) -> "MachineConfig":
        """A copy with a different helper-thread prefetching mode."""
        return replace(self, prefetch_mode=mode)
