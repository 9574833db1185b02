"""Recorded invocation traces and their compact ("compiled") form.

The parallel executor records one trace per dynamic invocation of a
parallelized loop: per-iteration event streams of
``wait``/``signal``/``next_iter``/``xfer`` executions stamped with
interpreter cycles, the run's own sequential clock.  Those traces are
machine-independent, so every figure of the evaluation schedules them
under swept :class:`~repro.runtime.machine.MachineConfig`\\ s.

Replaying from per-iteration event lists (:class:`InvocationTrace`) is
wasteful: every machine pays the per-event string dispatch, the
duplicate-wait/duplicate-signal filtering, the producer-set rebuilds
and the word-count lookups again, even though none of that depends on
the machine.  The recorded form is therefore a
:class:`CompactInvocationTrace`, *compiled* once:

* the raw events sit in flat ``array('q')`` kind/dep/at/words columns
  with per-iteration slices, which the executor appends to as the run
  goes (:meth:`CompactInvocationTrace.begin`; the per-iteration form
  can be reconstructed from them, and they are what is stored);
* a derived :class:`TraceProgram` resolves everything the scheduler can
  know without a machine: duplicate waits/signals collapse to barrier
  counts, producer marks and non-forwarded consumer marks disappear,
  transferable ``xfer`` events carry their word counts inline, waits
  are split into *can-stall* (predecessor signalled the dependence) and
  *cannot-stall* variants, each can-stall wait points at the signal it
  synchronizes with, and the per-iteration deduped wait agendas for
  ``MATCHED`` prefetching are precomputed.  The aggregate ``waits``,
  ``signals`` and ``transfer_words`` statistics are machine-independent
  and precomputed outright.

:func:`repro.runtime.sched.schedule_compact` consumes the program; the
per-machine loop then touches only integers and small dicts of signal
times.  A program holds no timestamp, so it is one per *shape*:
:func:`repro.runtime.sched.schedule_many` compiles the first trace of
each shape, hands its program to the others, and every scheduler reads
a trace's own stamps through the program's ``raw`` column.

Stamps inside an invocation (``it_start``/``it_end``/``ev_at``) are
offsets from its ``start_cycles`` from the moment they are recorded, in
memory as on disk, so invocations that ran alike at different points of
the run hold equal columns.  Word counts are a column too: ``ev_words``
is aligned with the events, 0 except at ``x`` events, and the count an
iteration transfers for a dependence is the last one written in it.

A recording is stored as one block (:func:`pack_traces` /
:func:`unpack_traces`): a header row per invocation, and every column
of every invocation concatenated, each at the narrowest integer width
that holds it, compressed once.  The block is versioned
(:data:`TRACE_FORMAT_VERSION`); any other version, and any block whose
lengths or offsets disagree with its header rows, raises
:class:`ValueError`.  The per-iteration :class:`InvocationTrace` is the
reference scheduler's input, built by
:meth:`CompactInvocationTrace.to_invocation_trace` (and packed back by
:meth:`~CompactInvocationTrace.from_trace`); it is never recorded into
and never stored.
"""

from __future__ import annotations

import base64
import zlib
from array import array
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.loopnest import LoopId
from repro.obs.metrics import REGISTRY

#: Synthetic dependence id of the control signal (IterationFlag).
CTRL_DEP = -1

#: Stored recording format generation.  Bump when the on-disk shape
#: changes; loading any other version raises.  3: iteration and event
#: stamps are offsets from the invocation's ``start_cycles``.  4: one
#: compressed column block per recording, word counts an event column.
TRACE_FORMAT_VERSION = 4

#: The columns of a stored recording, in block order.
_COLUMNS = (
    "it_start", "it_end", "ev_off", "ev_kind", "ev_dep", "ev_at", "ev_words",
)

#: Raw event kind codes (the packed ``ev_kind`` column).
KIND_WAIT, KIND_SIGNAL, KIND_NEXT, KIND_XFER, KIND_PRODUCE = range(5)

_KIND_TO_CODE = {"w": KIND_WAIT, "s": KIND_SIGNAL, "n": KIND_NEXT,
                 "x": KIND_XFER, "p": KIND_PRODUCE}
_CODE_TO_KIND = "wsnxp"

#: Compiled opcodes (the :class:`TraceProgram` ``op`` column).
#: ``OP_WAIT`` is a first wait that cannot stall (first iteration, or
#: the predecessor never signalled the dependence); ``OP_WAIT_SYNC``
#: runs the full stall/prefetch logic.
OP_WAIT, OP_WAIT_SYNC, OP_SIGNAL, OP_NEXT, OP_XFER = range(5)


@dataclass
class IterationTrace:
    """Events of one loop iteration, stamped with interpreter cycles."""

    start_cycles: int
    end_cycles: int = 0
    #: (kind, dep_id, abs_cycles): 'w' wait, 's' signal, 'n' next_iter,
    #: 'x' consumer mark (dep carries data), 'p' producer mark.
    events: List[Tuple[str, int, int]] = field(default_factory=list)
    #: Words carried per dependence (for 'x' events).
    words: Dict[int, int] = field(default_factory=dict)


@dataclass
class InvocationTrace:
    """One dynamic invocation of a parallelized loop."""

    loop_id: LoopId
    start_cycles: int
    end_cycles: int = 0
    iterations: List[IterationTrace] = field(default_factory=list)
    loads: int = 0

    @property
    def iteration_count(self) -> int:
        return len(self.iterations)


@dataclass
class TraceProgram:
    """Machine-independent compiled form of one trace *shape*.

    Compilation reads only the event kinds, dependences, per-iteration
    slicing and word counts of a trace, never a timestamp, so every
    field here holds for every trace of the shape
    (:func:`~repro.runtime.sched.trace_signature`).  Schedulers take a
    trace's own stamps from its raw columns: ``ev_at`` through
    :attr:`raw`, iteration spans from ``it_start`` / ``it_end``.
    :func:`~repro.runtime.sched.schedule_many` compiles the first trace
    of each shape and hands the program to the others
    (:attr:`CompactInvocationTrace.program`).
    """

    #: Flat compiled event columns (parallel arrays, ``off`` slices them
    #: per iteration).
    op: array
    #: Operand: dependence id (waits/signals), word count (xfers).
    a1: array
    #: Synchronization source: for ``OP_WAIT_SYNC`` the flat op index of
    #: the previous iteration's matching ``OP_SIGNAL`` (pack-time
    #: guarantee: present), -1 for every other opcode.  Lets schedulers
    #: read the predecessor's signal time from a per-op timetable column
    #: instead of rebuilding a dependence dict per iteration.
    src: array
    #: Index of each kept op's source event in the raw ``ev_*`` columns:
    #: what gathers a trace's own op stamps from its ``ev_at``.
    raw: array
    #: Elided barrier-bearing events (duplicate waits/signals) between
    #: the previous kept event and this one; each costs one barrier on
    #: non-TSO machines.
    pre: array
    #: Per-iteration event slices, length ``iterations + 1``.
    off: array
    #: Elided barrier-bearing events after the last kept event of each
    #: iteration.
    tail: array
    #: Per iteration: the raw barrier-bearing events (every recorded
    #: wait and signal, duplicates included) and the words forwarded.
    #: With the trace's spans they fix what the iteration's core spends
    #: computing and forwarding on any machine.
    barriers: array
    words: array
    #: Per-iteration deduped wait agendas (all ``'w'`` deps in first-
    #: occurrence order) for ``MATCHED`` prefetching.
    agendas: Tuple[Tuple[int, ...], ...]
    #: Per-iteration flag: the iteration executed a ``next_iter``.
    has_next: Tuple[bool, ...]
    #: Machine-independent aggregate statistics.
    waits: int
    signals: int
    next_iters: int
    transfer_words: int
    #: Compiled ops excluding OP_NEXT: zero means the trace is a pure
    #: counted-DOALL candidate (no waits, signals or transfers at all).
    active_ops: int
    #: ``sum(barriers)``: each costs one barrier on non-TSO machines, so
    #: a trace's span total plus ``barrier * barrier_events`` is the
    #: exact busy compute time of the invocation on any machine.
    barrier_events: int
    #: ``itemgetter`` over :attr:`raw` (which takes two or more indices
    #: to return a tuple).
    _gather: Optional[Callable] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.raw) > 1:
            self._gather = itemgetter(*self.raw)

    @property
    def iterations(self) -> int:
        return len(self.tail)

    def stamps(self, trace: "CompactInvocationTrace") -> Sequence[int]:
        """``trace``'s stamp of each op: its ``ev_at`` through
        :attr:`raw`."""
        if self._gather is None:
            return [trace.ev_at[j] for j in self.raw]
        return self._gather(trace.ev_at)


@dataclass
class CompactInvocationTrace:
    """Column-packed invocation trace (the recorded and stored form).

    ``ev_kind``/``ev_dep``/``ev_at``/``ev_words`` are the raw events of
    every iteration concatenated into flat ``array('q')`` columns, sliced
    per iteration by ``ev_off`` (:meth:`to_invocation_trace` rebuilds
    the per-iteration form).  ``it_start``/``it_end``/``ev_at`` are
    offsets from ``start_cycles``, in memory as on disk: every consumer
    reads differences only, and two invocations that ran alike at
    different points of the recorded clock hold byte-identical columns
    (what :func:`~repro.runtime.sched.schedule_many` keys distinct
    invocations on).  The :class:`TraceProgram` of the trace's shape and
    the shape signature are built lazily and never stored.
    """

    loop_id: LoopId
    start_cycles: int
    end_cycles: int
    loads: int
    it_start: array
    it_end: array
    ev_off: array
    ev_kind: array
    ev_dep: array
    ev_at: array
    #: Words an 'x' event carries, 0 at every other event.
    ev_words: array
    _program: Optional[TraceProgram] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: :func:`repro.runtime.sched.trace_signature`, cached by it.
    _signature: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def iteration_count(self) -> int:
        return len(self.it_start)

    @property
    def event_count(self) -> int:
        return len(self.ev_kind)

    # -- conversions -------------------------------------------------------

    @classmethod
    def begin(
        cls, loop_id: LoopId, start_cycles: int
    ) -> "CompactInvocationTrace":
        """An invocation that has just begun: empty columns for the
        recorder to append to, ``end_cycles`` / ``loads`` left for it to
        fill in when the invocation ends."""
        return cls(
            loop_id=loop_id,
            start_cycles=start_cycles,
            end_cycles=start_cycles,
            loads=0,
            it_start=array("q"),
            it_end=array("q"),
            ev_off=array("q", [0]),
            ev_kind=array("q"),
            ev_dep=array("q"),
            ev_at=array("q"),
            ev_words=array("q"),
        )

    @classmethod
    def from_trace(cls, trace: InvocationTrace) -> "CompactInvocationTrace":
        """Pack a per-iteration trace into columns.  Every ``x`` event
        carries its iteration's count for the dependence (1 when the
        iteration has none, the count the reference scheduler reads)."""
        base = trace.start_cycles
        packed = cls.begin(trace.loop_id, base)
        packed.end_cycles = trace.end_cycles
        packed.loads = trace.loads
        kind_codes = _KIND_TO_CODE
        ev_kind, ev_dep, ev_at = packed.ev_kind, packed.ev_dep, packed.ev_at
        ev_words = packed.ev_words
        for iteration in trace.iterations:
            packed.it_start.append(iteration.start_cycles - base)
            packed.it_end.append(iteration.end_cycles - base)
            words = iteration.words
            for kind, dep, at in iteration.events:
                ev_kind.append(kind_codes[kind])
                ev_dep.append(dep)
                ev_at.append(at - base)
                ev_words.append(words.get(dep, 1) if kind == "x" else 0)
            packed.ev_off.append(len(ev_kind))
        return packed

    def to_invocation_trace(self) -> InvocationTrace:
        """Reconstruct the per-iteration representation; an iteration's
        ``words`` hold the last count each dependence's ``x`` events
        wrote."""
        iterations = []
        codes = _CODE_TO_KIND
        base = self.start_cycles
        kinds, deps, words = self.ev_kind, self.ev_dep, self.ev_words
        for i in range(len(self.it_start)):
            span = range(self.ev_off[i], self.ev_off[i + 1])
            iterations.append(
                IterationTrace(
                    start_cycles=base + self.it_start[i],
                    end_cycles=base + self.it_end[i],
                    events=[
                        (codes[kinds[j]], deps[j], base + self.ev_at[j])
                        for j in span
                    ],
                    words={
                        deps[j]: words[j]
                        for j in span
                        if kinds[j] == KIND_XFER
                    },
                )
            )
        return InvocationTrace(
            loop_id=self.loop_id,
            start_cycles=self.start_cycles,
            end_cycles=self.end_cycles,
            iterations=iterations,
            loads=self.loads,
        )

    # -- compilation -------------------------------------------------------

    @property
    def program(self) -> TraceProgram:
        """The program of this trace's shape: compiled from the trace on
        first use unless a scheduler has handed it the program of an
        earlier trace of the same shape, and cached on the trace."""
        if self._program is None:
            self._program = self._compile()
        return self._program

    def _compile(self) -> TraceProgram:
        # One registry tick per compilation, outside the event loops.
        REGISTRY.inc("sched.programs_compiled")
        op = array("q")
        a1 = array("q")
        src = array("q")
        raw_ix = array("q")
        pre = array("q")
        off = array("q", [0])
        tail = array("q")
        barriers = array("q")
        moved = array("q")
        agendas: List[Tuple[int, ...]] = []
        has_next: List[bool] = []

        kinds, deps = self.ev_kind, self.ev_dep
        ev_words = self.ev_words
        ev_off = self.ev_off
        waits = signals = next_iters = transfer_total = active = 0
        raw_signals = 0
        #: dep -> flat op index of the iteration's kept OP_SIGNAL.
        prev_sig: Dict[int, int] = {}
        prev_produced: frozenset = frozenset()

        for i in range(len(self.it_start)):
            # dep -> the last count the iteration's 'x' events wrote,
            # and the flat index of the OP_XFER that moves it (the first
            # forwarded event; its count is filled in below).
            words: Dict[int, int] = {}
            transferred: Dict[int, int] = {}
            waited: set = set()
            cur_sig: Dict[int, int] = {}
            produced: set = set()
            agenda: List[int] = []
            agenda_seen: set = set()
            seen_next = False
            pending = 0
            barriers_before = waits + raw_signals

            for j in range(ev_off[i], ev_off[i + 1]):
                kind = kinds[j]
                dep = deps[j]
                if kind == KIND_WAIT:
                    waits += 1
                    if dep not in agenda_seen:
                        agenda_seen.add(dep)
                        agenda.append(dep)
                    if dep in waited or dep in cur_sig:
                        pending += 1  # barrier-only duplicate
                        continue
                    waited.add(dep)
                    source = prev_sig.get(dep, -1) if i > 0 else -1
                    op.append(OP_WAIT_SYNC if source >= 0 else OP_WAIT)
                    a1.append(dep)
                    src.append(source)
                    raw_ix.append(j)
                    pre.append(pending)
                    pending = 0
                    active += 1
                elif kind == KIND_SIGNAL:
                    raw_signals += 1
                    if dep in cur_sig:
                        pending += 1  # barrier-only duplicate
                        continue
                    cur_sig[dep] = len(op)
                    signals += 1
                    op.append(OP_SIGNAL)
                    a1.append(dep)
                    src.append(-1)
                    raw_ix.append(j)
                    pre.append(pending)
                    pending = 0
                    active += 1
                elif kind == KIND_NEXT:
                    if seen_next:
                        continue  # only the first next_iter acts
                    seen_next = True
                    next_iters += 1
                    op.append(OP_NEXT)
                    a1.append(0)
                    src.append(-1)
                    raw_ix.append(j)
                    pre.append(pending)
                    pending = 0
                elif kind == KIND_XFER:
                    words[dep] = ev_words[j]
                    if dep in prev_produced and dep not in transferred:
                        transferred[dep] = len(op)
                        op.append(OP_XFER)
                        a1.append(0)
                        src.append(-1)
                        raw_ix.append(j)
                        pre.append(pending)
                        pending = 0
                        active += 1
                    # non-forwarded consumer marks have no effect
                else:  # KIND_PRODUCE
                    produced.add(dep)

            forwarded = 0
            for dep, ix in transferred.items():
                a1[ix] = words[dep]
                forwarded += words[dep]
            transfer_total += forwarded
            off.append(len(op))
            tail.append(pending)
            barriers.append(waits + raw_signals - barriers_before)
            moved.append(forwarded)
            agendas.append(tuple(agenda))
            has_next.append(seen_next)
            prev_sig = cur_sig
            prev_produced = frozenset(produced)

        return TraceProgram(
            op=op,
            a1=a1,
            src=src,
            raw=raw_ix,
            pre=pre,
            off=off,
            tail=tail,
            barriers=barriers,
            words=moved,
            agendas=tuple(agendas),
            has_next=tuple(has_next),
            waits=waits,
            signals=signals,
            next_iters=next_iters,
            transfer_words=transfer_total,
            active_ops=active,
            barrier_events=waits + raw_signals,
        )


def as_compact(trace) -> CompactInvocationTrace:
    """Normalize a trace (per-iteration or compact) to the compact form."""
    if isinstance(trace, CompactInvocationTrace):
        return trace
    return CompactInvocationTrace.from_trace(trace)


# -- storage -----------------------------------------------------------------


def _narrowest(values) -> int:
    """Bytes per item of the narrowest signed integer holding ``values``."""
    if not len(values):
        return 1
    lo, hi = int(values.min()), int(values.max())
    for width in (1, 2, 4):
        bound = 1 << (8 * width - 1)
        if -bound <= lo and hi < bound:
            return width
    return 8


def pack_traces(traces: Sequence[CompactInvocationTrace]) -> dict:
    """A recording's traces as one JSON-ready block.

    ``invocations`` holds one header row per trace -- index into
    ``loops``, ``start_cycles``, ``end_cycles``, ``loads``, iteration
    count, event count -- and ``columns`` every :data:`_COLUMNS` column
    of every trace, concatenated in that order, each at its ``widths``
    bytes per item (little-endian), zlib-compressed once and
    base64-encoded.
    """
    import numpy as np

    loops: Dict[LoopId, int] = {}
    rows = [
        [
            loops.setdefault(trace.loop_id, len(loops)),
            trace.start_cycles,
            trace.end_cycles,
            trace.loads,
            len(trace.it_start),
            len(trace.ev_kind),
        ]
        for trace in traces
    ]
    widths = {}
    block = []
    for name in _COLUMNS:
        values = np.frombuffer(
            b"".join(getattr(trace, name) for trace in traces), dtype=np.int64
        )
        widths[name] = _narrowest(values)
        block.append(values.astype(f"<i{widths[name]}").tobytes())
    return {
        "format": TRACE_FORMAT_VERSION,
        "loops": [list(loop) for loop in loops],
        "invocations": rows,
        "widths": widths,
        "columns": base64.b64encode(zlib.compress(b"".join(block))).decode(),
    }


def unpack_traces(payload) -> List[CompactInvocationTrace]:
    """The traces :func:`pack_traces` stored, equal to the ones it was
    given.  A payload in any other format, or whose columns do not
    decode to exactly the lengths and per-trace event offsets its header
    rows declare, raises :class:`ValueError` (or :class:`TypeError` /
    :class:`KeyError` where a field is of the wrong type or missing):
    nothing that loads can fail later inside a scheduler."""
    import numpy as np

    version = payload.get("format") if isinstance(payload, dict) else None
    if version != TRACE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported recording format {version!r} "
            f"(this build reads {TRACE_FORMAT_VERSION})"
        )
    loops = payload["loops"]
    if not all(
        isinstance(loop, list) and len(loop) == 2
        and all(isinstance(part, str) for part in loop)
        for loop in loops
    ):
        raise ValueError("malformed recording: loop ids")
    rows = payload["invocations"]
    try:
        header = np.array(rows, dtype=np.int64).reshape(len(rows), 6)
    except OverflowError:
        raise ValueError("malformed recording: header rows") from None
    index, _start, _end, _loads, iters, events = header.T
    if len(header) and (
        index.min() < 0 or index.max() >= len(loops)
        or iters.min() < 0 or events.min() < 0
    ):
        raise ValueError("malformed recording: header rows")
    widths = [payload["widths"][name] for name in _COLUMNS]
    if any(
        type(width) is not int or width not in (1, 2, 4, 8)
        for width in widths
    ):
        raise ValueError("malformed recording: column widths")
    try:
        block = zlib.decompress(
            base64.b64decode(payload["columns"], validate=True)
        )
    except zlib.error as exc:
        raise ValueError(f"unreadable recording columns: {exc}") from None
    # Where each trace's slice of a column ends, per kind of column.
    per_iteration = [0, *np.cumsum(iters).tolist()]
    per_offset = [0, *np.cumsum(iters + 1).tolist()]
    per_event = [0, *np.cumsum(events).tolist()]
    bounds = (per_iteration, per_iteration, per_offset) + (per_event,) * 4
    if len(block) != sum(b[-1] * w for b, w in zip(bounds, widths)):
        raise ValueError("recording columns disagree with its header rows")
    # One column at a time: widened, checked and cut into the traces'
    # arrays before the next, so no second whole copy of the recording
    # is ever held beside them.
    sliced = []
    pos = 0
    for name, width, bound in zip(_COLUMNS, widths, bounds):
        values = np.frombuffer(
            block, dtype=f"<i{width}", count=bound[-1], offset=pos
        ).astype(np.int64)
        pos += bound[-1] * width
        if name == "ev_off" and len(header):
            # Each trace's offsets run from 0 to its event count without
            # stepping back: shifted by the events of the traces before
            # it, the concatenation is one non-decreasing column.
            first = np.array(per_offset[:-1])
            if (
                values[first].any()
                or (values[first + iters] != events).any()
                or (np.diff(values + np.repeat(per_event[:-1], iters + 1))
                    < 0).any()
            ):
                raise ValueError(
                    "recording event offsets disagree with its header"
                )
        if name == "ev_kind" and len(values) and (
            values.min() < 0 or values.max() > KIND_PRODUCE
        ):
            raise ValueError("malformed recording: event kinds")
        column = array("q", values.tobytes())
        sliced.append([column[lo:hi] for lo, hi in zip(bound, bound[1:])])

    loops = [tuple(loop) for loop in loops]
    return [
        CompactInvocationTrace(
            loop_id=loops[loop],
            start_cycles=start,
            end_cycles=end,
            loads=loads,
            **dict(zip(_COLUMNS, columns)),
        )
        for (loop, start, end, loads, _, _), *columns in zip(
            header.tolist(), *sliced
        )
    ]
