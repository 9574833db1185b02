"""A recorded run's invocations: one :class:`Recording`, its tables.

The parallel executor records one *invocation* per dynamic execution of
a parallelized loop: per-iteration event streams of
``wait``/``signal``/``next_iter``/``xfer`` executions stamped with
interpreter cycles, the run's own sequential clock.  Those records are
machine-independent, so every figure of the evaluation schedules them
under swept :class:`~repro.runtime.machine.MachineConfig`\\ s.

A :class:`Recording` holds them as the tables they are stored as, in
memory as on disk.  An invocation is seven ``array('q')`` columns: its
*shape* -- per-iteration event offsets ``ev_off``, kinds ``ev_kind``,
dependences ``ev_dep`` and word counts ``ev_words`` -- and its stamps,
``it_start`` / ``it_end`` / ``ev_at``, offsets from its start.
:meth:`Recording.add` interns them as they arrive: the shape's columns
are kept once per loop and shape, the stamp columns once per *distinct
invocation* (one shape, equal stamps and length), and the invocation
itself is a row naming its distinct invocation, its start and its load
count.  Invocations that ran alike anywhere in the recorded clock are
one distinct invocation, which every scheduler times once.  Word counts
are aligned with the events, 0 except at ``x`` events, and the count an
iteration transfers for a dependence is the last one written in it.

A shape's :class:`TraceProgram` (:meth:`Recording.program`) resolves
everything the scheduler can know without a machine: duplicate
waits/signals collapse to barrier counts, producer marks and
non-forwarded consumer marks disappear, transferable ``xfer`` events
carry their word counts inline, waits are split into *can-stall*
(predecessor signalled the dependence) and *cannot-stall* variants,
each can-stall wait points at the signal it synchronizes with, and the
per-iteration deduped wait agendas for ``MATCHED`` prefetching are
precomputed.  The first program asked for compiles every shape not yet
compiled in one array pass over their concatenated columns
(:func:`_compile`): what is kept of an event is a first occurrence of
its ``(iteration, dependence)`` key, and what it reads of the previous
iteration a sorted lookup of the key one iteration back.  A program's
columns are int64 ndarrays and it holds no stamp:
:func:`repro.runtime.sched.prepare_many` gathers each distinct
invocation's op stamps from its ``ev_at`` through the program's ``raw``
column.

A recording is stored as one block (:func:`pack_traces` /
:func:`unpack_traces`): its tables, every column at the narrowest
integer width that holds it, compressed once.  The block is versioned
(:data:`TRACE_FORMAT_VERSION`); any other version, and any block whose
tables, lengths or offsets disagree, raises :class:`ValueError`.  The
per-iteration :class:`InvocationTrace` is the reference scheduler's
input, built on request by :meth:`Recording.invocation`; it is never
recorded into and never stored.
"""

from __future__ import annotations

import base64
import hashlib
import zlib
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.loopnest import LoopId
from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:
    import numpy as np

#: Synthetic dependence id of the control signal (IterationFlag).
CTRL_DEP = -1

#: Stored recording format generation.  Bump when the on-disk shape
#: changes; loading any other version raises.  3: iteration and event
#: stamps are offsets from the invocation's ``start_cycles``.  4: one
#: compressed column block per recording, word counts an event column.
#: 5: each shape's event columns and each distinct invocation's stamp
#: columns stored once, a trace a row naming its distinct invocation.
TRACE_FORMAT_VERSION = 5

#: The tables of a stored recording: a row per shape (its loop and
#: iteration count), per distinct invocation (its shape and length in
#: cycles) and per trace (its distinct invocation, ``start_cycles`` and
#: ``loads``).
_TABLES = (
    "shape_loop", "shape_iterations",
    "distinct_shape", "distinct_cycles",
    "trace_distinct", "trace_start", "trace_loads",
)
#: The columns stored once per shape, and once per distinct invocation.
_SHAPE_COLUMNS = ("ev_off", "ev_kind", "ev_dep", "ev_words")
_DISTINCT_COLUMNS = ("it_start", "it_end", "ev_at")
#: The columns of one invocation, as :meth:`Recording.add` takes them.
INVOCATION_COLUMNS = _SHAPE_COLUMNS + _DISTINCT_COLUMNS
#: Everything in a stored recording's block, in block order.
_COLUMNS = _TABLES + INVOCATION_COLUMNS

#: Raw event kind codes (the packed ``ev_kind`` column).
KIND_WAIT, KIND_SIGNAL, KIND_NEXT, KIND_XFER, KIND_PRODUCE = range(5)

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
    slicing and word counts of a shape, never a timestamp, so every
    field here holds for every invocation of the shape
    (:meth:`Recording.program`).  Schedulers take an invocation's own
    stamps from its distinct invocation's columns: ``ev_at`` through
    :attr:`raw`, iteration spans from ``it_start`` / ``it_end``.  Every
    column is an int64 ndarray, a view into its compile batch's arrays;
    none is written after compilation.
    """

    #: Flat compiled event columns (parallel arrays, ``off`` slices them
    #: per iteration).
    op: "np.ndarray"
    #: Operand: dependence id (waits/signals), word count (xfers).
    a1: "np.ndarray"
    #: Synchronization source: for ``OP_WAIT_SYNC`` the flat op index of
    #: the previous iteration's matching ``OP_SIGNAL`` (pack-time
    #: guarantee: present), -1 for every other opcode.  Lets schedulers
    #: read the predecessor's signal time from a per-op timetable column
    #: instead of rebuilding a dependence dict per iteration.
    src: "np.ndarray"
    #: Index of each kept op's source event in the raw ``ev_*`` columns:
    #: what gathers a trace's own op stamps from its ``ev_at``.
    raw: "np.ndarray"
    #: Elided barrier-bearing events (duplicate waits/signals) between
    #: the previous kept event and this one; each costs one barrier on
    #: non-TSO machines.
    pre: "np.ndarray"
    #: Per-iteration event slices, length ``iterations + 1``.
    off: "np.ndarray"
    #: Elided barrier-bearing events after the last kept event of each
    #: iteration.
    tail: "np.ndarray"
    #: Per iteration: the raw barrier-bearing events (every recorded
    #: wait and signal, duplicates included) and the words forwarded.
    #: With the trace's spans they fix what the iteration's core spends
    #: computing and forwarding on any machine.
    barriers: "np.ndarray"
    words: "np.ndarray"
    #: The deduped wait agendas for ``MATCHED`` prefetching, one flat
    #: column: each iteration's ``'w'`` deps in first-occurrence order,
    #: ``agenda_sizes[i]`` of them for iteration ``i``.
    agendas: "np.ndarray"
    agenda_sizes: "np.ndarray"
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

    @property
    def iterations(self) -> int:
        return len(self.tail)


def _distinct(values):
    """The distinct entries of an int64 array, ascending.  (``np.unique``
    imports ``numpy.ma`` on first use, ~10 ms of a warm process.)"""
    import numpy as np

    ordered = np.sort(values, axis=None)
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _find(table, keys):
    """Where each of ``keys`` would sit in the ascending ``table``, and
    whether it is there."""
    import numpy as np

    if not len(table):
        return np.zeros(len(keys), dtype=np.int64), np.zeros(len(keys), bool)
    at = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return at, table[at] == keys


def _first_of_key(keys, among):
    """The events of ``among`` (a mask) whose key no earlier event of
    ``among`` has, as a mask; and ``among``'s events ordered by key
    (stably, so by position within a key) with the flag of each that
    starts its key's run.  (Sorted by hand: ``np.unique`` imports
    ``numpy.ma``.)"""
    import numpy as np

    picked = np.flatnonzero(among)
    order = picked[np.argsort(keys[picked], kind="stable")]
    ordered = keys[order]
    starts = np.ones(len(order), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    first = np.zeros(len(keys), dtype=bool)
    first[order[starts]] = True
    return first, order, starts


def _compile(ev_off, kinds, deps, ev_words) -> List[TraceProgram]:
    """The :class:`TraceProgram` of each shape whose columns are given,
    one list per :data:`_SHAPE_COLUMNS` name, compiled in one pass.

    Every event is placed by its shape's iteration, numbered across the
    batch, and keyed on ``(iteration, dependence)``: what the scheduler
    keeps of it is a first occurrence of its key among events of some
    kinds, and what it reads of the previous iteration a lookup of the
    key one iteration back, barred on each shape's first iteration.
    """
    import numpy as np

    def joined(columns) -> "np.ndarray":
        return np.frombuffer(b"".join(columns), dtype=np.int64)

    count = len(ev_off)
    n = np.array([len(o) - 1 for o in ev_off], dtype=np.int64)
    kind, dep, words = joined(kinds), joined(deps), joined(ev_words)
    # The batch's iterations, shape by shape: each one's shape, whether
    # it is its shape's first, and the span of its events.
    it_first = np.cumsum(n) - n
    per_it = np.delete(
        np.diff(joined(ev_off)), (np.cumsum(n + 1) - 1)[:-1]
    )
    total = len(per_it)
    shape_of_it = np.repeat(np.arange(count), n)
    fresh = np.zeros(total, dtype=bool)
    fresh[it_first[n > 0]] = True
    ev_lo = np.concatenate([[0], np.cumsum(per_it)])
    it = np.repeat(np.arange(total), per_it)
    values = _distinct(dep)
    back = len(values)  # a key minus this is the previous iteration's
    key = it * back
    key += np.searchsorted(values, dep)

    is_wait, is_signal = kind == KIND_WAIT, kind == KIND_SIGNAL
    barred = is_wait | is_signal
    # A wait is kept where no wait or signal of its iteration named the
    # dependence before it, a signal where no signal did, the first
    # ``next_iter`` of an iteration, and the first ``xfer`` of a
    # dependence its iteration's predecessor produced.  Every other wait
    # and signal is a barrier-only duplicate.
    first_barred, _, _ = _first_of_key(key, barred)
    kept_wait = first_barred & is_wait
    kept_signal, _, _ = _first_of_key(key, is_signal)
    kept_next, _, _ = _first_of_key(it, kind == KIND_NEXT)
    first_xfer, xfers, x_starts = _first_of_key(key, kind == KIND_XFER)
    moves = np.flatnonzero(first_xfer & ~fresh[it])
    _, produced = _find(np.sort(key[kind == KIND_PRODUCE]), key[moves] - back)
    kept_xfer = np.zeros(len(kind), dtype=bool)
    kept_xfer[moves[produced]] = True
    duplicate = barred & ~(kept_wait | kept_signal)

    ops = np.flatnonzero(kept_wait | kept_signal | kept_next | kept_xfer)
    op_it = it[ops]
    op_shape = shape_of_it[op_it]
    per_it_ops = np.bincount(op_it, minlength=total)
    off = np.concatenate([[0], np.cumsum(per_it_ops)])
    shape_ops = off[it_first]
    shape_events = ev_lo[it_first]
    op = np.array(
        [OP_WAIT, OP_SIGNAL, OP_NEXT, OP_XFER, -1], dtype=np.int64
    )[kind[ops]]

    # Operands: a wait's or signal's dependence, the count the last
    # ``xfer`` of its key wrote for a transfer, 0 for ``next_iter``.
    a1 = np.where(op == OP_NEXT, 0, dep[ops])
    x_ends = np.empty_like(x_starts)
    x_ends[:-1] = x_starts[1:]
    x_ends[-1:] = True
    transfers = op == OP_XFER
    at, _ = _find(key[xfers[x_starts]], key[ops[transfers]])
    a1[transfers] = words[xfers[x_ends]][at]

    # Sources: a wait synchronizes with its predecessor's kept signal of
    # the dependence, if there is one (never on a first iteration).
    signal_ops = np.flatnonzero(op == OP_SIGNAL)
    by_key = np.argsort(key[ops[signal_ops]], kind="stable")
    signal_keys = key[ops[signal_ops]][by_key]
    waits = np.flatnonzero((op == OP_WAIT) & ~fresh[op_it])
    at, hit = _find(signal_keys, key[ops[waits]] - back)
    sync = waits[hit]
    op[sync] = OP_WAIT_SYNC
    src = np.full(len(ops), -1, dtype=np.int64)
    src[sync] = signal_ops[by_key[at[hit]]] - shape_ops[op_shape[sync]]

    # Barrier-only duplicates before each kept op since the one before it
    # (or its iteration's start), and after its iteration's last.
    elided = np.concatenate([[0], np.cumsum(duplicate)])
    mark = elided[ops]
    lead = np.ones(len(ops), dtype=bool)
    lead[1:] = op_it[1:] != op_it[:-1]
    since = np.where(lead, elided[ev_lo[:-1]][op_it], np.roll(mark, 1))
    pre = mark - since
    ends = np.ones(len(ops), dtype=bool)
    ends[:-1] = lead[1:]
    latest = elided[ev_lo[:-1]]
    latest[op_it[ends]] = mark[ends]
    tail = elided[ev_lo[1:]] - latest

    barriers = np.bincount(it[barred], minlength=total)
    moved_so_far = np.concatenate([[0], np.cumsum(np.where(transfers, a1, 0))])
    moved = moved_so_far[off[1:]] - moved_so_far[off[:-1]]
    first_waits, _, _ = _first_of_key(key, is_wait)
    agendas = dep[first_waits]
    agenda_sizes = np.bincount(it[first_waits], minlength=total)
    agenda_lo = np.concatenate([[0], np.cumsum(agenda_sizes)])

    def by_shape(per_it) -> List[int]:
        # Each shape's sum of a per-iteration column.
        sums = np.concatenate([[0], np.cumsum(per_it)])
        return (sums[it_first + n] - sums[it_first]).tolist()

    def ops_by_shape(mask) -> List[int]:
        return np.bincount(op_shape[mask], minlength=count).tolist()

    scalars = zip(
        by_shape(np.bincount(it[is_wait], minlength=total)),
        ops_by_shape(op == OP_SIGNAL),
        ops_by_shape(op == OP_NEXT),
        by_shape(moved),
        ops_by_shape(op != OP_NEXT),
        by_shape(barriers),
    )
    raw = ops - shape_events[op_shape]
    programs = []
    for lo, hi, o_lo, o_hi, stats in zip(
        it_first.tolist(), (it_first + n).tolist(),
        shape_ops.tolist(), off[it_first + n].tolist(), scalars,
    ):
        ops_ = slice(o_lo, o_hi)
        its = slice(lo, hi)
        programs.append(
            TraceProgram(
                op[ops_], a1[ops_], src[ops_], raw[ops_], pre[ops_],
                off[lo : hi + 1] - o_lo, tail[its], barriers[its],
                moved[its], agendas[agenda_lo[lo] : agenda_lo[hi]],
                agenda_sizes[its], *stats,
            )
        )
    REGISTRY.inc("sched.programs_compiled", count)
    return programs


def _digest(columns) -> bytes:
    """What :meth:`Recording.add` interns ``columns`` (arrays) by: a
    16-byte digest of their lengths and contents."""
    digest = hashlib.blake2b(digest_size=16)
    for column in columns:
        digest.update(len(column).to_bytes(8, "little"))
        digest.update(column)
    return digest.digest()


class Recording:
    """A recorded run's invocations, as the tables they are stored as.

    ``loops`` is the loop table.  Per shape: its loop (``shape_loop``,
    an index into ``loops``), its iteration count
    (``shape_iterations``) and its event columns ``ev_off`` /
    ``ev_kind`` / ``ev_dep`` / ``ev_words`` (``ev_kind[s]`` is shape
    ``s``'s).  Per distinct invocation: its shape (``distinct_shape``),
    its length in cycles (``distinct_cycles``) and its stamp columns
    ``it_start`` / ``it_end`` / ``ev_at``, offsets from its start.  Per
    invocation, in recording order, a row: its distinct invocation
    (``trace_distinct``), ``trace_start`` and ``trace_loads``.  Shapes,
    distinct invocations and loops are numbered in order of first
    occurrence, and ``len()`` is the number of invocations.

    Rows enter through :meth:`add` (or are read back whole by
    :func:`unpack_traces`), and no column is mutated afterwards: shapes
    share their columns with every invocation of theirs.
    """

    def __init__(self) -> None:
        self.loops: List[LoopId] = []
        self.shape_loop: List[int] = []
        self.shape_iterations: List[int] = []
        self.ev_off: List[array] = []
        self.ev_kind: List[array] = []
        self.ev_dep: List[array] = []
        self.ev_words: List[array] = []
        self.distinct_shape: List[int] = []
        self.distinct_cycles: List[int] = []
        self.it_start: List[array] = []
        self.it_end: List[array] = []
        self.ev_at: List[array] = []
        self.trace_distinct = array("q")
        self.trace_start = array("q")
        self.trace_loads = array("q")
        self._programs: List[Optional[TraceProgram]] = []
        #: What :meth:`add` interns by (:meth:`_index`), built on first use.
        self._interned: Optional[Tuple[dict, dict, dict]] = None

    def __len__(self) -> int:
        return len(self.trace_distinct)

    def add(
        self,
        loop_id: LoopId,
        start: int,
        end: int,
        loads: int,
        columns: Mapping[str, array],
    ) -> None:
        """Append the invocation of ``loop_id`` that ran from ``start``
        to ``end`` and made ``loads`` loads.  ``columns`` holds its
        :data:`INVOCATION_COLUMNS`, stamps as offsets from ``start``;
        the recording keeps the arrays of a shape or distinct invocation
        it has not seen, so the caller hands over arrays it will not
        append to again."""
        loop_of, shape_of, distinct_of = self._index()
        loop = loop_of.setdefault(loop_id, len(self.loops))
        if loop == len(self.loops):
            self.loops.append(loop_id)
        shape_key = (loop, _digest(columns[n] for n in _SHAPE_COLUMNS))
        shape = shape_of.setdefault(shape_key, len(self.shape_loop))
        if shape == len(self.shape_loop):
            self.shape_loop.append(loop)
            self.shape_iterations.append(len(columns["ev_off"]) - 1)
            for name in _SHAPE_COLUMNS:
                getattr(self, name).append(columns[name])
            self._programs.append(None)
        cycles = end - start
        distinct_key = (
            shape, cycles, _digest(columns[n] for n in _DISTINCT_COLUMNS)
        )
        distinct = distinct_of.setdefault(
            distinct_key, len(self.distinct_shape)
        )
        if distinct == len(self.distinct_shape):
            self.distinct_shape.append(shape)
            self.distinct_cycles.append(cycles)
            for name in _DISTINCT_COLUMNS:
                getattr(self, name).append(columns[name])
        self.trace_distinct.append(distinct)
        self.trace_start.append(start)
        self.trace_loads.append(loads)

    def _index(self) -> Tuple[dict, dict, dict]:
        """Each loop's, shape's and distinct invocation's number, by
        loop id, by ``(loop, digest of its columns)`` and by ``(shape,
        length, digest of its columns)``."""
        if self._interned is None:
            shapes = {}
            for s, loop in enumerate(self.shape_loop):
                columns = (getattr(self, n)[s] for n in _SHAPE_COLUMNS)
                shapes[loop, _digest(columns)] = s
            distincts = {}
            for d, shape in enumerate(self.distinct_shape):
                columns = (getattr(self, n)[d] for n in _DISTINCT_COLUMNS)
                key = (shape, self.distinct_cycles[d], _digest(columns))
                distincts[key] = d
            loops = {loop_id: k for k, loop_id in enumerate(self.loops)}
            self._interned = (loops, shapes, distincts)
        return self._interned

    def program(self, shape: int) -> TraceProgram:
        """The :class:`TraceProgram` of ``shape``.  The first time a
        shape not yet compiled is asked for, every shape not yet
        compiled is compiled, in one batch (:func:`_compile`); no shape
        is compiled twice."""
        program = self._programs[shape]
        if program is None:
            missing = [s for s, p in enumerate(self._programs) if p is None]
            compiled = _compile(*(
                [getattr(self, name)[s] for s in missing]
                for name in _SHAPE_COLUMNS
            ))
            for s, compiled_program in zip(missing, compiled):
                self._programs[s] = compiled_program
            program = self._programs[shape]
        return program

    def invocation(self, i: int) -> InvocationTrace:
        """The ``i``-th invocation in the per-iteration form the
        reference scheduler reads, stamps in the recorded clock; an
        iteration's ``words`` hold the last count each dependence's
        ``x`` events wrote."""
        distinct = self.trace_distinct[i]
        shape = self.distinct_shape[distinct]
        base = self.trace_start[i]
        ev_off, kinds, deps, words = (
            getattr(self, name)[shape] for name in _SHAPE_COLUMNS
        )
        it_start, it_end, ev_at = (
            getattr(self, name)[distinct] for name in _DISTINCT_COLUMNS
        )
        codes = _CODE_TO_KIND
        iterations = []
        for k in range(len(it_start)):
            span = range(ev_off[k], ev_off[k + 1])
            iterations.append(
                IterationTrace(
                    start_cycles=base + it_start[k],
                    end_cycles=base + it_end[k],
                    events=[
                        (codes[kinds[j]], deps[j], base + ev_at[j])
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
            loop_id=self.loops[self.shape_loop[shape]],
            start_cycles=base,
            end_cycles=base + self.distinct_cycles[distinct],
            iterations=iterations,
            loads=self.trace_loads[i],
        )


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


def pack_traces(recording: Recording) -> dict:
    """A recording as one JSON-ready block.

    ``loops`` is the loop table, ``rows`` the number of shapes, distinct
    invocations and invocations, and ``columns`` every :data:`_COLUMNS`
    column -- the three tables, then the shapes' and the distinct
    invocations' columns concatenated -- in that order, each at its
    ``widths`` bytes per item (little-endian), zlib-compressed once and
    base64-encoded.
    """
    import numpy as np

    columns = {
        name: getattr(recording, name) if name in _TABLES
        else np.frombuffer(b"".join(getattr(recording, name)), dtype=np.int64)
        for name in _COLUMNS
    }
    return {
        "format": TRACE_FORMAT_VERSION,
        "loops": [list(loop) for loop in recording.loops],
        "rows": [
            len(recording.shape_loop),
            len(recording.distinct_shape),
            len(recording),
        ],
        **_write_columns(columns),
    }


def _write_columns(columns: Dict[str, Any]) -> dict:
    """The ``widths`` and ``columns`` fields of a stored recording
    holding ``columns`` (every :data:`_COLUMNS` name, any int64-castable
    values)."""
    import numpy as np

    widths = {}
    block = []
    for name in _COLUMNS:
        values = np.asarray(columns[name], dtype=np.int64)
        widths[name] = _narrowest(values)
        block.append(values.astype(f"<i{widths[name]}").tobytes())
    return {
        "widths": widths,
        "columns": base64.b64encode(zlib.compress(b"".join(block))).decode(),
    }


def _read_columns(payload) -> Dict[str, Any]:
    """Every :data:`_COLUMNS` column of a stored recording, as int64
    arrays, checked: see :func:`unpack_traces`."""
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
    rows = payload["rows"]
    if not (
        isinstance(rows, list) and len(rows) == 3
        and all(type(count) is int and count >= 0 for count in rows)
    ):
        raise ValueError("malformed recording: table sizes")
    widths = {name: payload["widths"][name] for name in _COLUMNS}
    if any(
        type(width) is not int or width not in (1, 2, 4, 8)
        for width in widths.values()
    ):
        raise ValueError("malformed recording: column widths")
    try:
        block = zlib.decompress(
            base64.b64decode(payload["columns"], validate=True)
        )
    except zlib.error as exc:
        raise ValueError(f"unreadable recording columns: {exc}") from None

    columns: Dict[str, Any] = {}
    pos = 0

    def read(name: str, count: int) -> None:
        nonlocal pos
        end = pos + count * widths[name]
        if end > len(block):
            raise ValueError("recording columns disagree with its tables")
        columns[name] = np.frombuffer(
            block, dtype=f"<i{widths[name]}", count=count, offset=pos
        ).astype(np.int64)
        pos = end

    def within(name: str, bound: int) -> bool:
        values = columns[name]
        return not len(values) or (values.min() >= 0 and values.max() < bound)

    shapes, distinct, traces = rows
    for name, count in zip(_TABLES, (shapes, shapes, distinct, distinct,
                                     traces, traces, traces)):
        read(name, count)
    # Every index in range, every loop, shape and distinct invocation
    # used (as ``Recording.add`` leaves them), and no count larger than
    # the block could hold, so that no sum below overflows.
    iterations = columns["shape_iterations"]
    if not (
        within("shape_loop", len(loops))
        and within("shape_iterations", len(block) + 1)
        and within("distinct_shape", shapes)
        and within("trace_distinct", distinct)
        and np.bincount(columns["shape_loop"], minlength=len(loops)).all()
        and np.bincount(columns["distinct_shape"], minlength=shapes).all()
        and np.bincount(columns["trace_distinct"], minlength=distinct).all()
    ):
        raise ValueError("malformed recording: tables")

    # Each shape's event offsets run from 0 without stepping back; its
    # last is its event count.
    read("ev_off", int((iterations + 1).sum()))
    ev_off = columns["ev_off"]
    ends = np.cumsum(iterations + 1) - 1
    steps = np.diff(ev_off)
    steps[ends[:-1]] = 0  # from one shape's last offset to the next's 0
    if ev_off[ends - iterations].any() or (steps < 0).any():
        raise ValueError("recording event offsets disagree with its tables")
    events = ev_off[ends]
    if len(events) and events.max() > len(block):
        raise ValueError("recording event offsets disagree with its tables")
    for name in _SHAPE_COLUMNS[1:]:
        read(name, int(events.sum()))
    kinds = columns["ev_kind"]
    if len(kinds) and (kinds.min() < 0 or kinds.max() > KIND_PRODUCE):
        raise ValueError("malformed recording: event kinds")
    of_shape = columns["distinct_shape"]
    for name in _DISTINCT_COLUMNS:
        lengths = events if name == "ev_at" else iterations
        read(name, int(lengths[of_shape].sum()))
    if pos != len(block):
        raise ValueError("recording columns disagree with its tables")
    return columns


def unpack_traces(payload) -> Recording:
    """The recording :func:`pack_traces` stored, equal to the one it was
    given.

    A payload in any other format, or whose tables and columns disagree
    -- an index out of range, a loop, shape or distinct invocation
    nothing uses, event offsets that do not run from 0 without stepping back,
    columns not exactly as long as the tables make them, an event kind
    out of range -- raises :class:`ValueError` (or :class:`TypeError` /
    :class:`KeyError` where a field is of the wrong type or missing):
    nothing that loads can fail later inside a scheduler.
    """
    import numpy as np

    columns = _read_columns(payload)
    recording = Recording()
    recording.loops = [tuple(loop) for loop in payload["loops"]]
    iterations = columns["shape_iterations"]
    events = columns["ev_off"][np.cumsum(iterations + 1) - 1]
    of_shape = columns["distinct_shape"]
    # Each column is dropped as soon as it is cut into its rows' arrays.
    for names, lengths in (
        (_SHAPE_COLUMNS, (iterations + 1, events, events, events)),
        (_DISTINCT_COLUMNS, (iterations[of_shape], iterations[of_shape],
                             events[of_shape])),
    ):
        for name, length in zip(names, lengths):
            column = array("q", columns.pop(name).tobytes())
            bounds = [0, *np.cumsum(length).tolist()]
            setattr(recording, name, [
                column[lo:hi] for lo, hi in zip(bounds, bounds[1:])
            ])
    for name in _TABLES:
        if name.startswith("trace_"):
            setattr(recording, name, array("q", columns[name].tobytes()))
        else:
            setattr(recording, name, columns[name].tolist())
    recording._programs = [None] * len(recording.shape_loop)
    return recording
