"""The HELIX speedup model (Section 2.2, Equation 1).

Amdahl's law extended with parallelization overhead::

    Speedup(P, N, O) = 1 / (1 - P + P/N + O)

where ``P`` is the fraction of program time spent in parallelized-loop
code *outside* sequential segments, ``N`` the core count, and ``O`` the
overhead fraction.  Per loop ``i``::

    O_i = Conf_i + Sig_i * S + ceil(Bytes_i / CPU_word) * M
    Sig_i = C-Sig_i + D-Sig_i + (N - 1) * 2 * Invoc_i

with ``S`` the per-signal cost, ``M`` the per-word inter-core transfer
cost, ``C-Sig`` one control signal per iteration, and ``D-Sig`` one data
signal per sequential segment per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.loopnest import LoopId
from repro.runtime.machine import MachineConfig


@dataclass
class LoopModelInputs:
    """Per-loop quantities feeding Equation 1 (absolute cycles)."""

    loop_id: LoopId
    invocations: int
    iterations: int
    #: Inclusive loop time in the sequential profile.
    total_cycles: float
    #: Time outside sequential segments and outside the prologue (P_i).
    parallel_cycles: float
    #: Time inside sequential segments (data-ordered code).
    segment_cycles: float
    #: Time in the prologue (control-ordered code).
    prologue_cycles: float
    #: Sequential segments per iteration (D-Sig per iteration).
    segments_per_iteration: int
    #: Estimated words actually forwarded between iterations, per
    #: iteration (profile-weighted producer frequency).
    transfer_words_per_iteration: float = 0.0
    #: Nesting level in the dynamic loop nesting graph (1 = outermost).
    nesting_level: int = 1
    #: Counted loop: no per-iteration control signal (Step 3).
    counted: bool = False


@dataclass
class SpeedupModel:
    """Evaluates Equation 1 against a machine and a profiled program.

    ``signal_cost`` is the believed per-signal cost ``S``:

    * ``None`` (the default) models what the paper obtains by profiling
      the HELIX-optimized form of each loop: the *effective* latency of a
      signal depends on whether the helper thread has enough slack to
      prefetch it -- fully prefetched (4 cycles, an L1 hit) when the
      inter-segment spacing per core exceeds the pull latency, up to the
      full 110-cycle pull otherwise (the Section 3.3 computation).
    * A number fixes ``S`` blindly -- the Figure 12 corner cases
      (0 = underestimated, 110 = overestimated).
    """

    machine: MachineConfig
    program_cycles: float
    signal_cost: Optional[float] = None

    def effective_signal_cost(self, loop: LoopModelInputs, cores: int) -> float:
        """Per-signal cost, workload-aware unless fixed by configuration.

        The helper thread can only hide the pull latency when the consumer
        reaches its wait *after* the prefetch completes.  Consecutive
        iterations' segment entries are spaced ``per_iter / N`` apart, of
        which the segment itself plus the data transfer are already spoken
        for; only the remaining *gap* counts as prefetch slack.  When the
        chain is the critical path the gap is zero and every signal costs
        the full pull latency -- the self-consistent steady state of the
        executor's schedule.
        """
        if self.signal_cost is not None:
            return self.signal_cost
        latency = float(self.machine.signal_latency)
        fast = float(self.machine.prefetched_signal_latency)
        iterations = max(1, loop.iterations)
        per_iter = loop.total_cycles / iterations
        seg = loop.segment_cycles / iterations
        xfer = (
            loop.transfer_words_per_iteration
            * self.machine.word_transfer_cycles
        )
        gap = per_iter / max(1, cores) - seg - xfer
        # Binary regime, matching the executor's steady state: the wait
        # must trail the predecessor's signal by at least the pull time
        # for the prefetch to be complete; otherwise the line is still in
        # flight and the full pull latency lands on the chain.
        if gap >= latency - fast:
            return fast
        return latency

    def believed_transfer_cycles(self) -> float:
        """The per-word inter-core cost the selection believes in.

        Misestimating signal latency (Figure 12) misestimates inter-core
        communication as a whole -- the cache-to-cache transfer behind a
        data forward is the same mechanism as a signal pull -- so a fixed
        ``signal_cost`` scales the believed ``M`` proportionally.
        """
        machine_m = float(self.machine.word_transfer_cycles)
        if self.signal_cost is None:
            return machine_m
        scale = self.signal_cost / max(1.0, float(self.machine.signal_latency))
        return machine_m * scale

    def signals(self, loop: LoopModelInputs, cores: int) -> float:
        """Sig_i: control + data + thread start/stop signals."""
        c_sig = 0 if loop.counted else loop.iterations
        d_sig = loop.iterations * loop.segments_per_iteration
        startstop = (cores - 1) * 2 * loop.invocations
        return c_sig + d_sig + startstop

    def overhead_cycles(self, loop: LoopModelInputs, cores: int) -> float:
        """O_i in absolute cycles (Equation 1's numerator terms)."""
        conf = (
            self.machine.config_cycles_per_thread
            * max(cores - 1, 1)
            * loop.invocations
        )
        sig = self.signals(loop, cores) * self.effective_signal_cost(loop, cores)
        words = math.ceil(
            loop.transfer_words_per_iteration * loop.iterations
        )
        data = words * self.believed_transfer_cycles()
        return conf + sig + data

    def refined_parallel_cycles(self, loop: LoopModelInputs, cores: int) -> float:
        """Estimated parallel execution time of the loop.

        Each iteration advances the ring by at least the *chain step*
        (sequential segments + signal latency + data transfers, plus the
        prologue hand-off for non-counted loops); cores otherwise share
        the per-iteration work.  Thread configuration and stop signals
        are charged per invocation.
        """
        iterations = max(1, loop.iterations)
        per_iter = loop.total_cycles / iterations
        s_eff = self.effective_signal_cost(loop, cores)

        chain = loop.segment_cycles / iterations
        if loop.segments_per_iteration > 0:
            chain += s_eff
        if not loop.counted:
            chain += loop.prologue_cycles / iterations + s_eff
        chain += (
            loop.transfer_words_per_iteration
            * self.believed_transfer_cycles()
        )

        steady = max(per_iter / cores, chain)
        # Per-invocation costs: thread configuration and stop signals,
        # plus the pipeline drain -- the last iteration still runs its
        # full duration even though the ring advances one `steady` step
        # per iteration.
        believed_latency = (
            self.signal_cost
            if self.signal_cost is not None
            else float(self.machine.signal_latency)
        )
        fixed = (
            self.machine.config_cycles_per_thread * max(cores - 1, 1)
            + believed_latency
            + cores
            - 1
            + max(0.0, per_iter - steady)
        )
        return steady * iterations + fixed * max(1, loop.invocations)

    def saved_cycles(self, loop: LoopModelInputs, cores: int) -> float:
        """T: sequential minus parallelized time of this loop (>= 0)."""
        if cores <= 1:
            return 0.0
        saved = loop.total_cycles - self.refined_parallel_cycles(loop, cores)
        return max(0.0, saved)

    def loop_speedup(self, loop: LoopModelInputs, cores: int) -> float:
        """Whole-program speedup if only this loop is parallelized."""
        return self.program_speedup([loop], cores)

    def program_speedup(
        self, loops: Sequence[LoopModelInputs], cores: int
    ) -> float:
        """Equation 1 for a set of (non-nested) parallelized loops."""
        if self.program_cycles <= 0:
            return 1.0
        p_fraction = sum(l.parallel_cycles for l in loops) / self.program_cycles
        p_fraction = min(p_fraction, 1.0)
        o_fraction = sum(
            self.overhead_cycles(l, cores) for l in loops
        ) / self.program_cycles
        denom = 1.0 - p_fraction + p_fraction / cores + o_fraction
        if denom <= 0:
            return float(cores)
        return 1.0 / denom


def speedup_from_fractions(
    p_fraction: float, cores: int, overhead_fraction: float = 0.0
) -> float:
    """Bare Equation 1 (used in tests and docs)."""
    denom = 1.0 - p_fraction + p_fraction / cores + overhead_fraction
    return 1.0 / denom
