"""Invocation schedulers: the production walk and its reference.

:func:`schedule_many` is the one production scheduler, behind every
executor's timing and every machine-grid sweep.  It is two steps.
:func:`prepare_many` is the machine-independent one: it reads a
:class:`~repro.runtime.trace.Recording`'s tables, in which invocations
are already interned by shape and, within a shape, into *distinct
invocations* (equal stamp columns: stamps are offsets from the start of
the invocation).  Each shape's
:class:`~repro.runtime.trace.TraceProgram` is compiled once, every
shape of the recording in one array pass: duplicate filtering, producer
sets, word counts and wait/signal pairing are resolved once per shape,
never per machine, and the walk reads the program's int64 columns as
they are.  The shapes are gathered into packs, and each pack's members,
occurrences, spans, statistics and walk tables are read off once
(:func:`_prepare_cohort`).
:func:`walk_many` then schedules each distinct invocation of the
:class:`Preparation` under a machine grid and fans the result out by
index.  A caller that times one recording under several grids keeps the
preparation and only walks (:class:`~repro.runtime.parallel.RecordedRun`).

The walk takes a *pack*: every shape of one loop with one iteration
count (:func:`_pack` lays their ops out on common slots, iteration
``i`` owning as many as its longest shape has ops there).  Its vector
axis is ``(shape, machine, member)``, cut into chunks of
:data:`_MAX_WIDTH` columns, and one pass per chunk advances every
member of every shape under every machine, whatever its prefetch mode
or core count (:func:`_schedule_cohort`, :func:`_walk_chunk`); the
clocks are a history of iteration ends, in which iteration ``i``
starts where iteration ``i - cores`` ended.  A **counted DOALL**
pack (counted loop, no waits/signals/transfers at all) is not walked:
its finish time is ``conf + max per-core span sum``, a closed form per
core count.  Results are columnar (:class:`ScheduleColumns`: one int64
array per :class:`ScheduleResult` field); the objects are built only
for callers that ask for them.

The walk also accounts the time per core: what each core of each
machine spent computing, stalled, waiting for the control signal and
forwarding data over the whole recording
(:attr:`ScheduleColumns.per_core`, the report's ``timeline`` block).
Each core's clock runs from thread configuration through exactly those
four; compute and forwarding are closed forms per core count, the
control-signal waits are kept per iteration, and stall is what is left
of the clock.

:func:`schedule_invocation_reference` is the original per-event
interpreter over the raw :class:`~repro.runtime.trace.InvocationTrace`.
It is the differential oracle -- ``tests/test_sched_differential``
enforces field-exact :class:`ScheduleResult` equality between it and
the walk, under every machine grid and every cut of the vector axis --
and the simulated timeline's placement: asked to, it reports every
interval a core spends configuring, computing, stalled, waiting for the
control signal, forwarding data or collecting as it walks
(:func:`repro.obs.timeline.run_timeline`).  It is written for clarity,
not speed.

Both implement the same model (see :mod:`repro.runtime.parallel` for
the methodology): per-core clocks with round-robin iteration
assignment, pull-based signal completion ``max(t, ts) + L``,
helper-thread prefetch agendas, data forwarding charged per word
actually produced by the predecessor, and memory barriers on non-TSO
machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.loopnest import LoopId
from repro.core.loopinfo import LoopInfo
from repro.runtime.machine import MachineConfig, PrefetchMode
from repro.runtime.trace import (
    CTRL_DEP,
    OP_NEXT,
    OP_SIGNAL,
    OP_WAIT,
    OP_WAIT_SYNC,
    OP_XFER,
    InvocationTrace,
    Recording,
    TraceProgram,
    _distinct,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass
class ScheduleResult:
    """Timing of one invocation under a specific machine."""

    parallel_cycles: int
    sequential_cycles: int
    signals: int = 0
    waits: int = 0
    wait_stall_cycles: int = 0
    transfer_words: int = 0
    #: Busy compute cycles across all cores: every iteration's
    #: sequential span plus the memory-barrier cost of each recorded
    #: wait/signal (zero on TSO machines).
    compute_cycles: int = 0
    #: Cycles spent receiving iteration-start control signals (the
    #: successor's wait on the predecessor's IterationFlag store);
    #: always zero for counted loops, which derive iteration numbers
    #: locally.
    signal_cycles: int = 0
    #: Cycles spent forwarding data words between cores.
    transfer_cycles: int = 0

    def overhead_breakdown(self) -> Dict[str, int]:
        """Where the busy cycles of this invocation went.

        The four buckets are disjoint: together with the per-thread
        configuration cost, the wind-down collection and per-core idle
        time they account exactly for ``parallel_cycles * cores`` (the
        reference scheduler places every bucket on its core for the
        simulated-time timeline; ``tests/test_timeline.py`` asserts the
        accounting).
        """
        return {
            "compute": self.compute_cycles,
            "wait_stall": self.wait_stall_cycles,
            "signal": self.signal_cycles,
            "transfer": self.transfer_cycles,
        }


#: The per-core buckets of the schedulers' accounting
#: (:attr:`ScheduleColumns.per_core`): the four
#: :meth:`ScheduleResult.overhead_breakdown` buckets, under the names of
#: the simulated-time timeline's categories.
CORE_FIELDS = ("compute", "stall", "signal", "transfer")


#: Agenda-entry sentinel: prefetch the predecessor's control signal
#: (the IterationFlag store) rather than a data dependence.
_CTRL_SRC = -2


def _resolve_agendas(
    prog: TraceProgram, helix_order: Tuple[int, ...], counted: bool
):
    """Resolve both helper-thread agenda flavours to signal-op indices.

    Machine-independent: done once per shape of a pack (:func:`_agendas`)
    and shared by every helper machine that walks it.  For each
    iteration the deduplicated agenda (``MATCHED``: the iteration's wait
    deps, the program's flat ``agendas`` column cut by its
    ``agenda_sizes``; ``HELIX``: the loop's static helper order; both
    led by the control signal on non-counted loops) is reduced to the
    entries whose dependence the previous iteration actually signalled,
    each entry being the flat op index of that signal (or
    :data:`_CTRL_SRC`).
    Returns ``(entries, lengths, positions)``, flavour ``MATCHED`` first
    on each leading axis: ``entries[f, i, p]`` is the ``p``-th entry of
    iteration ``i`` (-1 from ``lengths[f, i]`` on), and
    ``positions[f, j]`` the entry through which op ``j``, an
    ``OP_WAIT_SYNC``, reads its prefetch, -1 when the helper never
    prefetched its dependence (and at every other op).
    """
    import numpy as np

    op, a1, waited = prog.op, prog.a1, prog.agendas
    n = prog.iterations
    it_of_op = np.repeat(np.arange(n), np.diff(prog.off))
    helix = np.array(list(dict.fromkeys(helix_order)), dtype=np.int64)
    deps = _distinct(np.concatenate([a1, waited, helix]))
    lead = 0 if counted else 1

    # Row ``i``: the signal op of each dependence in iteration ``i - 1``,
    # what iteration ``i``'s helper can prefetch (-1: none).
    sig = np.flatnonzero(op == OP_SIGNAL)
    signalled = np.full((n, len(deps)), -1, dtype=np.int64)
    sig = sig[it_of_op[sig] + 1 < n]
    signalled[it_of_op[sig] + 1, np.searchsorted(deps, a1[sig])] = sig

    # (iteration, dependence) of every agenda entry, MATCHED's in the
    # order of each iteration's waits and HELIX's in the helper order.
    m_it = np.repeat(np.arange(n), prog.agenda_sizes)
    m_dep = np.searchsorted(deps, waited)
    h_it, h_col = np.divmod(np.arange(n * len(helix)), len(helix))
    h_dep = np.searchsorted(deps, helix)[h_col]
    kept = []
    for it, dep in ((m_it, m_dep), (h_it, h_dep)):
        source = signalled[it, dep]
        keep = source >= 0
        it, dep, source = it[keep], dep[keep], source[keep]
        # An entry's position: the iteration's kept entries before it,
        # behind the control signal.
        count = np.bincount(it, minlength=n)
        pos = np.arange(len(it)) - (np.cumsum(count) - count)[it] + lead
        count[1:] += lead
        kept.append((it, dep, source, pos, count))
    width = max(int(count.max(initial=0)) for *_, count in kept)
    entries = np.full((2, n, width), -1, dtype=np.int64)
    if lead and n > 1:
        entries[:, 1:, 0] = _CTRL_SRC
    lengths = np.empty((2, n), dtype=np.int64)
    positions = np.full((2, len(op)), -1, dtype=np.int64)
    sync = np.flatnonzero(op == OP_WAIT_SYNC)
    at = (it_of_op[sync], np.searchsorted(deps, a1[sync]))
    by_dep = np.empty((n, len(deps)), dtype=np.int64)
    for f, (it, dep, source, pos, count) in enumerate(kept):
        entries[f, it, pos] = source
        lengths[f] = count
        by_dep.fill(-1)
        by_dep[it, dep] = pos
        positions[f, sync] = by_dep[at]
    return entries, lengths, positions


#: Most columns one pass of the vector walk carries.  Wider axes are
#: walked in chunks of this many columns so that the signal timetable
#: of a chunk stays cache-resident: the 1,231
#: distinct invocations of gzip's largest shape under an 80-machine
#: grid sweep in 0.17 s at 2-4k columns a chunk, 0.20-0.24 s at 8k and
#: 0.22-0.27 s in one piece.
_MAX_WIDTH = 4096


class ScheduleColumns:
    """:class:`ScheduleResult` fields of many invocations, as arrays.

    ``data`` is one int64 array whose first axis runs over
    :attr:`FIELDS` (the dataclass's own field order) and whose last
    axis runs over invocations: ``(field, machine, invocation)`` as
    :func:`schedule_many` returns it, ``(field, invocation)`` for the
    one machine :meth:`column` selects (what the executor memoizes per
    machine fingerprint).  Each field also reads as an attribute
    (``columns.parallel_cycles``); :meth:`results` builds the
    :class:`ScheduleResult` objects for whoever asks.

    ``per_core`` is the per-core accounting of the same walk: an int64
    array ``(bucket, machine, core)`` over :data:`CORE_FIELDS`, or
    ``(bucket, core)`` in one machine's column, holding the cycles each
    core spent in each bucket over the whole recording, every
    invocation counted (distinct invocations once per occurrence).
    Summed over the cores it is the sum of the bucket's field; cores
    past a machine's count read 0.
    """

    FIELDS = tuple(ScheduleResult.__dataclass_fields__)

    def __init__(self, data, per_core) -> None:
        self.data = data
        self.per_core = per_core

    def __len__(self) -> int:
        """The number of invocations."""
        return self.data.shape[-1]

    def __getattr__(self, name: str):
        # Only a field name reads ``data``: any other missing name --
        # ``data`` itself on an instance that copy or unpickle built
        # without ``__init__``, or a dunder they probe -- is missing.
        if name not in self.FIELDS:
            raise AttributeError(name)
        return self.data[self.FIELDS.index(name)]

    def column(self, mi: int) -> "ScheduleColumns":
        """The column of the ``mi``-th machine asked for."""
        return ScheduleColumns(self.data[:, mi], self.per_core[:, mi])

    def results(self) -> List[ScheduleResult]:
        """One machine's column as :class:`ScheduleResult` objects."""
        return [ScheduleResult(*row) for row in self.data.T.tolist()]


@lru_cache(maxsize=256)
def _iteration_cores(iterations: int, counts: Tuple[int, ...], top: int):
    """Which core runs each iteration, as an int64 one-hot matrix:
    row ``k * top + c`` selects the iterations core ``c`` runs when the
    machine has ``counts[k]`` cores (iteration ``i`` on core
    ``i % cores``; rows past a core count select nothing)."""
    import numpy as np

    of_core = np.arange(iterations) % np.array(counts)[:, None, None]
    onehot = (
        (of_core == np.arange(top)[:, None])
        .reshape(len(counts) * top, iterations)
        .astype(np.int64)
    )
    onehot.flags.writeable = False  # shared by every caller
    return onehot


#: What a column without a helper thread reads as its prefetched signal
#: latency: so late that its prefetch ``min`` never wins, and far enough
#: below the int64 ceiling that no clock plus it overflows.
_NEVER = 1 << 62


@dataclass
class _Pack:
    """The walked shapes of one loop that share an iteration count, laid
    out on one set of op slots (:func:`_pack`).

    Iteration ``i`` owns the slots ``off[i]:off[i + 1]``, as many as the
    longest of its shapes has ops in it; a shape's ``k``-th op of the
    iteration sits at slot ``off[i] + k`` and a shorter one pads the
    rest.  Every table is machine-independent and shape-sized: a row per
    slot (or iteration) and a column per member (``dt``, ``et``), per
    shape (``s``) or per helper agenda (``2 s + f``, flavour ``f`` 0 for
    ``MATCHED`` and 1 for ``HELIX``).  Slot entries name rows of the
    walk's timetable, whose row ``zero`` (past the last slot) reads 0.
    """

    off: List[int]
    zero: int
    #: (slots, members): the op's stamp minus the previous op's, or the
    #: iteration start's for its first op; 0 on a padding slot.
    dt: object
    #: (iterations, members): the iteration end minus its last op.
    et: object
    #: (slots, s) and (iterations, s): barriers paid at the op, and
    #: after the iteration's last op.
    bars: object
    tail: object
    #: (slots, s): words forwarded at the op.
    words: object
    #: (slots, s): the signal slot an ``OP_WAIT_SYNC`` reads, ``zero``
    #: at every other op.
    src: object
    #: (slots,): some shape records the time at the slot (a signal, or
    #: a non-counted loop's control signal).
    kept: List[bool]
    #: (iterations, s): the slot of the iteration's control signal.
    nxt: object
    #: Per shape, the slot of each of its program's ops.
    slots: List[object]
    #: (iterations * width, 2 s): the agenda entries of each iteration,
    #: ``width`` a row; the chain's row after its last entry
    #: (``lengths``, (iterations, 2 s)); the chain row each wait reads
    #: its prefetch from, ``never`` where there is none (``positions``,
    #: (slots, 2 s)).  ``None`` until a machine with a helper thread
    #: walks the pack (:func:`_agendas`).
    entries: object = None
    lengths: object = None
    positions: object = None


def _pack(progs, ats, it_s, it_e, loop: LoopInfo) -> _Pack:
    """Lay the walked shapes of one loop and iteration count out on
    common slots (see :class:`_Pack`), agenda tables aside.  ``progs``
    are the shapes' programs, ``ats`` the ``ev_at`` columns of each
    shape's members and ``it_s`` / ``it_e`` the members' iteration
    stamps ``(members, iterations)``, members in the same order."""
    import numpy as np

    n = progs[0].iterations
    count = len(progs)
    sizes = np.array([np.diff(p.off) for p in progs], dtype=np.int64)
    off = np.concatenate([[0], np.cumsum(sizes.max(axis=0))])
    zero = int(off[-1])
    dt = np.zeros((zero, len(it_s)), dtype=np.int64)
    et = np.empty((n, len(it_s)), dtype=np.int64)
    bars = np.zeros((zero, count), dtype=np.int64)
    words = np.zeros_like(bars)
    src = np.full((zero, count), zero, dtype=np.int64)
    kept = np.zeros(zero, dtype=bool)
    nxt = np.full((n, count), zero, dtype=np.int64)
    tail = np.column_stack([p.tail for p in progs])
    slots = []
    lo = 0
    for s, (prog, members) in enumerate(zip(progs, ats)):
        op, first = prog.op, prog.off
        it_of_op = np.repeat(np.arange(n), sizes[s])
        slot = off[it_of_op] + np.arange(len(op)) - first[it_of_op]
        slots.append(slot)

        # Stamp deltas: each op from the one before it, an iteration's
        # first op from the iteration start, its end from its last op.
        cols = slice(lo, lo + len(members))
        lo += len(members)
        at = np.array(
            [np.frombuffer(ev_at, dtype=np.int64) for ev_at in members]
        )[:, prog.raw]
        ran = sizes[s] > 0
        before = np.empty_like(at)
        before[:, 1:] = at[:, :-1]
        before[:, first[:-1][ran]] = it_s[cols, ran]
        dt[slot, cols] = (at - before).T
        last = it_s[cols].copy()
        last[:, ran] = at[:, first[1:][ran] - 1]
        et[:, cols] = (it_e[cols] - last).T

        barred = (op == OP_WAIT_SYNC) | (op == OP_WAIT) | (op == OP_SIGNAL)
        bars[slot, s] = prog.pre + barred
        words[slot, s] = np.where(op == OP_XFER, prog.a1, 0)
        sync = op == OP_WAIT_SYNC
        signals = prog.src[sync]
        src[slot[sync], s] = slot[signals]
        nexts = op == OP_NEXT
        kept[slot[(op == OP_SIGNAL) | (nexts & (not loop.counted))]] = True
        nxt[it_of_op[nexts], s] = slot[nexts]
        if not loop.counted:
            started = nxt[:-1, s] < zero
            assert started.all(), "iteration without start signal"
    return _Pack(
        off=off.tolist(), zero=zero, dt=dt, et=et, bars=bars, tail=tail,
        words=words, src=src, kept=kept.tolist(), nxt=nxt, slots=slots,
    )


def _agendas(pack, progs, loop):
    """Fill the helper-agenda tables of ``pack`` (see :class:`_Pack`),
    whose shapes' programs are ``progs``: done once, the first time a
    machine with a helper thread walks the pack."""
    import numpy as np

    zero = pack.zero
    n = len(pack.off) - 1
    count = len(progs)
    agendas = []
    for s, (prog, slot) in enumerate(zip(progs, pack.slots)):
        entries, ends, positions = _resolve_agendas(
            prog, tuple(loop.helper_order), loop.counted
        )
        entered = np.where(entries >= 0, slot[np.maximum(entries, 0)], zero)
        if not loop.counted:
            entered[:, 1:, 0] = pack.nxt[:-1, s]  # the control signal leads
        agendas.append((entered, ends, positions))
    width = max(entered.shape[2] for entered, *_ in agendas)
    never = width + 1
    entries = np.full((n, width, 2 * count), zero, dtype=np.int64)
    lengths = np.empty((n, 2 * count), dtype=np.int64)
    positions = np.full((zero, 2 * count), never, dtype=np.int64)
    for s, ((entered, ends, at), slot) in enumerate(zip(agendas, pack.slots)):
        g = slice(2 * s, 2 * s + 2)
        entries[:, : entered.shape[2], g] = entered.transpose(1, 2, 0)
        lengths[:, g] = ends.T
        positions[slot, g] = np.where(at >= 0, at + 1, never).T
    # ``entries`` last: a pack whose ``entries`` are set is whole.
    pack.lengths, pack.positions = lengths, positions
    pack.entries = entries.reshape(n * width, 2 * count)


def _walk_chunk(pack, counted, machines, shape, member):
    """Advance one chunk of a pack's columns through its slots.

    ``machines`` is the chunk's columns of the grid, ``shape`` /
    ``member`` each column's shape and member in ``pack``.  Every slot
    is one formula per column: the clock advances by the op's stamp
    delta, barriers and forwarded words; a wait then lands at ``max(t,
    signal) + wait``, or earlier, ``max(t + fast, done)``, where the
    helper thread prefetched the signal by ``done``; a signal records
    the clock.  A column whose op at the slot does not wait reads the
    timetable's zero row with no ``wait`` and ``done`` at
    :data:`_NEVER`, so the wait leaves it where it was; a column without
    a helper thread reads :data:`_NEVER` as ``fast``, so its helper
    chain, walked alongside, never wins.

    The clocks are a history of iteration ends, ``(top + iterations,
    width)`` for ``top`` the chunk's largest core count: rows ``:top``
    hold the starting clock (``conf``), row ``top + i`` the end of
    iteration ``i``, and iteration ``i`` starts where iteration ``i -
    cores`` ended on its core, at row ``top + i - cores``.  Each
    iteration reads that row with one flat ``take`` (a plain row view
    when the chunk has one core count) and writes its own as a plain
    row; the helper threads' clocks are a history of the same form.
    Each core's final clock is read off the history once, at the end.

    Each table row is read once per chunk: as one row index where the
    chunk's columns agree on it (every row of a chunk of one shape and
    one agenda flavour), else as one flat index per column.  Returns
    each core's final clock ``(top, width)`` (``conf`` on cores past a
    column's count), each column's stall cycles and, for a non-counted
    loop, each iteration's control-signal wait ``(iterations, width)``.
    """
    import numpy as np

    cores, lat, fast, wait, xfr, bar, conf, mode = machines
    off, zero = pack.off, pack.zero
    n = len(off) - 1
    width = len(shape)
    top = int(cores.max())
    lanes = np.arange(width)

    def rows(table, keys, present):
        # Each row of ``table`` as the chunk reads it (``keys``: each
        # column's, ``present``: all of them): the row index where the
        # columns agree, else a flat index per column.
        picked = table[:, present]
        found = picked[:, 0].tolist()
        mixed = np.flatnonzero((picked != picked[:, :1]).any(axis=1))
        if len(mixed):
            for r, flat in zip(
                mixed.tolist(),
                table[mixed].take(keys, axis=1) * width + lanes,
            ):
                found[r] = flat
        return found

    # Columns are shape-major: the chunk's shapes are consecutive.
    shapes = np.arange(shape[0], shape[-1] + 1)
    # The clock's advance at each slot and at each iteration's end: the
    # stamp delta, plus the barriers and forwarded words paid there.
    # ``take`` keeps the rows contiguous, as the walk reads them.
    d = pack.dt.take(member, axis=1)
    e = pack.et.take(member, axis=1)
    moved = np.flatnonzero(pack.words[:, shapes].any(axis=1))
    d[moved] += pack.words[moved].take(shape, axis=1) * xfr
    if bar.any():
        barred = np.flatnonzero(pack.bars[:, shapes].any(axis=1))
        d[barred] += pack.bars[barred].take(shape, axis=1) * bar
        e += pack.tail.take(shape, axis=1) * bar

    # The agenda each column reads: its own flavour's, and for a column
    # without a helper thread the flavour the chunk's helpers read.
    modes = list(PrefetchMode)
    is_hx = mode == modes.index(PrefetchMode.HELIX)
    is_mt = mode == modes.index(PrefetchMode.MATCHED)
    helpers = pack.entries is not None and bool((is_hx | is_mt).any())
    if helpers:
        flavours = [f for f, has in enumerate((is_mt, is_hx)) if has.any()]
        agenda = 2 * shape + (
            np.where(is_hx | is_mt, is_hx, flavours[0])
            if len(flavours) == 1 else is_hx
        )
        keys = (2 * shapes[:, None] + flavours).ravel()
    evt = np.zeros((zero + 1, width), dtype=np.int64)
    stall = np.zeros(width, dtype=np.int64)
    # Each iteration's control-signal wait.
    signalled = np.zeros((0 if counted else n, width), dtype=np.int64)
    ndarray = np.ndarray

    def readers(table, found):
        # What reads each row ``rows`` found in ``table``: the row
        # itself, a view the walk's writes show through, or for flat
        # indices a call that gathers one entry per column.
        take = table.reshape(-1).take
        return [
            table[r] if r.__class__ is int else partial(take, r)
            for r in found
        ]

    # The slots where some column waits: what each reads, what it pays
    # (nothing in a column that does not wait) and, below, its prefetch.
    waits = np.flatnonzero((pack.src[:, shapes] != zero).any(axis=1))
    found = rows(pack.src[waits], shape, shapes)
    plan = [None] * zero
    for j, r, read in zip(waits.tolist(), found, readers(evt, found)):
        pays = wait if r.__class__ is int else wait * (r < zero * width)
        plan[j] = [read, pays, None]

    # The history of iteration ends, rows ``:top`` the starting clocks.
    # Iteration ``i`` starts at row ``top + i - cores``: row ``i`` with
    # one core count, else entry ``since`` of the history from row ``i``
    # on, ``since`` being each column's flat index of row ``top - cores``.
    history = np.empty((top + n, width), dtype=np.int64)
    history[:top] = conf
    flat = history.reshape(-1)
    since = None if top == int(cores.min()) else (top - cores) * width + lanes
    if helpers:
        span = pack.entries.shape[0] // n
        never = span + 1
        chain = np.empty((span + 2, width), dtype=np.int64)
        chain[never] = _NEVER
        links = list(chain)
        helped = np.zeros_like(history)  # every helper starts at 0
        flat_helped = helped.reshape(-1)
        entries = readers(evt, rows(pack.entries, agenda, keys))
        reach = pack.lengths[:, keys].max(axis=1).tolist()
        agendas = [entries[i * span : i * span + reach[i]] for i in range(n)]
        ends = readers(chain, rows(pack.lengths, agenda, keys))
        found = rows(pack.positions[waits], agenda, keys)
        for j, p, done in zip(waits.tolist(), found, readers(chain, found)):
            # No prefetch (the ``never`` row): no ``min`` to take.
            if p.__class__ is not int or p != never:
                plan[j][2] = done
    if not counted:
        nexts = readers(evt, rows(pack.nxt, shape, shapes))
    kept = pack.kept

    for i in range(n):
        if helpers and i > 0:
            # The helper thread's agenda, from where it left off: the
            # chain's row ``p`` is when its ``p``-th entry lands.
            if since is None:
                chain[0] = helped[i]
            else:
                flat_helped[i * width :].take(since, out=chain[0])
            for p, r in enumerate(agendas[i], 1):
                np.maximum(
                    links[p - 1],
                    r if r.__class__ is ndarray else r(),
                    out=links[p],
                )
                links[p] += lat
            r = ends[i]
            helped[top + i] = r if r.__class__ is ndarray else r()

        t = history[i] if since is None else flat[i * width :].take(since)
        if not counted and i > 0:
            started = t
            r = nexts[i - 1]
            t = np.maximum(t, r if r.__class__ is ndarray else r())
            t += wait
            if helpers:
                # The control entry leads every agenda.
                np.minimum(t, np.maximum(started + fast, links[1]), out=t)
            signalled[i] = t - started

        for j in range(off[i], off[i + 1]):
            t = t + d[j]
            step = plan[j]
            if step is not None:
                r, pays, p = step
                arrival = np.maximum(t, r if r.__class__ is ndarray else r())
                arrival += pays
                if p is not None:
                    np.minimum(
                        arrival,
                        np.maximum(
                            t + fast, p if p.__class__ is ndarray else p()
                        ),
                        out=arrival,
                    )
                stall += arrival - t
                t = arrival
            if kept[j]:
                evt[j] = t
        np.add(t, e[i], out=history[top + i])

    # Core ``c`` ends where the last iteration it ran did, ``n - cores +
    # (c - n) % cores`` (a starting row when that is negative: it ran
    # none); a core past the column's count reads row 0, ``conf``.
    core = np.arange(top)[:, None]
    last = np.where(core < cores, top + n - cores + (core - n) % cores, 0)
    return flat.take(last * width + lanes), stall, signalled


@dataclass
class _Cohort:
    """The machine-independent half of one pack's schedule
    (:func:`_prepare_cohort`): what :func:`_schedule_cohort` reads of
    its shapes under any grid.  Members run shape-major, as in
    :class:`_Pack`."""

    loop: LoopInfo
    #: The program of each shape.
    progs: List[TraceProgram]
    #: (shapes,): each shape's distinct members; (members,): each
    #: member's occurrences in the run.
    sizes: object
    weights: object
    #: Per member, the fields no machine changes: ``sequential_cycles``
    #: and, for a pack that iterates, ``signals``, ``waits`` and
    #: ``transfer_words``.
    fixed: Dict[str, object]
    #: (members,): the sum of each member's iteration spans, and its
    #: barrier-bearing events.
    spans: object = None
    barrier_events: object = None
    #: (iterations, members + 2 s): each iteration's span per member,
    #: then its barrier-bearing events per shape and its forwarded words
    #: per shape.
    iters: object = None
    #: The walk's layout; ``None`` with nothing to walk (no iteration,
    #: or counted DOALL, a closed form).
    pack: Optional[_Pack] = None


def _prepare_cohort(
    recording: Recording, shapes, loop: LoopInfo, weights
) -> _Cohort:
    """Prepare a pack -- the shapes of one loop that share an iteration
    count -- for walking under any grid.

    ``shapes`` holds ``(shape, members)`` pairs of ``recording``: each
    shape and its distinct invocations, whose occurrences in the run are
    ``weights``, members in the same order.  A program holds no stamp,
    so each shape's is read and every member's own stamps are gathered
    from its distinct invocation's columns.  What no machine changes is
    read off once here: each member's fixed fields, its iteration spans
    and their sum, each shape's per-iteration barriers and words, and,
    unless the pack has no iteration or is counted DOALL (counted loop,
    no waits, signals or transfers at all), its :func:`_pack` tables.
    """
    import numpy as np

    progs = [recording.program(shape) for shape, _ in shapes]
    sizes = np.array([len(members) for _, members in shapes], dtype=np.int64)
    of_shape = np.repeat(np.arange(len(shapes)), sizes)
    members = [d for _, distinct in shapes for d in distinct]
    cycles = recording.distinct_cycles
    cohort = _Cohort(
        loop=loop,
        progs=progs,
        sizes=sizes,
        weights=weights,
        fixed={
            "sequential_cycles": np.array(
                [cycles[d] for d in members], dtype=np.int64
            )
        },
    )
    if progs[0].iterations == 0:
        return cohort

    def stacked(name: str) -> "np.ndarray":
        column = getattr(recording, name)
        return np.array(
            [np.frombuffer(column[d], dtype=np.int64) for d in members]
        )

    def each(values) -> "np.ndarray":
        # One value per shape, for every member.
        return np.array(values, dtype=np.int64)[of_shape]

    def per_iteration(name: str) -> "np.ndarray":
        return np.column_stack([getattr(p, name) for p in progs])

    counted = loop.counted
    it_s, it_e = stacked("it_start"), stacked("it_end")
    sp = it_e - it_s  # per-iteration spans, (members, n)
    cohort.fixed.update(
        signals=each(
            [p.signals if counted else p.signals + p.next_iters for p in progs]
        ),
        waits=each([p.waits for p in progs]),
        transfer_words=each([p.transfer_words for p in progs]),
    )
    cohort.spans = sp.sum(axis=1)
    cohort.barrier_events = each([p.barrier_events for p in progs])
    cohort.iters = np.column_stack(
        [sp.T, per_iteration("barriers"), per_iteration("words")]
    )
    if not (counted and progs[0].active_ops == 0):
        ats = [[recording.ev_at[d] for d in ds] for _, ds in shapes]
        cohort.pack = _pack(progs, ats, it_s, it_e, loop)
    return cohort


def _schedule_cohort(cohort, grid):
    """Schedule a prepared pack under every machine in one walk per
    chunk.

    The vector axis is ``(shape, machine, member)``: per-core clocks and
    the signal timetable are integer vectors with one column per cell,
    and every slot of the pack (:func:`_pack`) advances all of them at
    once, so the per-op interpretive overhead is paid once per loop and
    iteration count instead of once per trace per machine.  Every
    machine field enters the walk as a value (``max``/``min``/``+``
    only) and is broadcast as a per-column vector against the per-member
    time deltas, the prefetch mode included (see :func:`_walk_chunk`):
    the axis is walked in chunks of :data:`_MAX_WIDTH` columns.  Columns
    are ordered by shape, then machine (by prefetch mode, then core
    count), then member, so a wide shape fills chunks of its own, which
    read one agenda flavour and one core count.  The pack's agenda
    tables are built here the first time a grid holds a helper thread
    (:func:`_agendas`), and kept.

    The per-core accounting weights each member by its occurrences and
    sums the columns of each machine.  What a core computes and forwards
    is a closed form per core count: its iterations' spans, barriers and
    words.  What else its clock advanced is control-signal wait -- kept
    per iteration for a non-counted loop and reduced to the core that
    ran it -- and stall.  Each chunk's final clocks are columns of one
    array, so this is read off once per shape, not per chunk.

    ``grid`` holds the machines as :func:`walk_many` tabulates them, one
    row per quantity the walk reads.  Returns the
    :class:`ScheduleColumns` ``data`` block of the pack's members,
    ``data[f, mi, c]`` being field-exact with
    ``schedule_invocation_reference`` of member ``c`` under the
    ``mi``-th machine, and the pack's ``per_core`` block ``(bucket,
    machine, core)``.
    """
    import numpy as np

    cores_v, lat_v, _fast, _wait, xfr_v, bar_v, conf_v, mode_v = grid
    # The main thread collects the exit variable and stops the parallel
    # threads once the last iteration retires.
    wind_v = lat_v + cores_v - 1
    sizes, weights, pack = cohort.sizes, cohort.weights, cohort.pack
    firsts = np.cumsum(sizes) - sizes
    members = len(weights)
    count = len(sizes)
    n = cohort.progs[0].iterations
    counted = cohort.loop.counted
    data = np.zeros(
        (len(ScheduleColumns.FIELDS), grid.shape[1], members), dtype=np.int64
    )
    per_core = np.zeros(
        (len(CORE_FIELDS), grid.shape[1], int(cores_v.max())), dtype=np.int64
    )
    col = dict(zip(ScheduleColumns.FIELDS, data))
    for name, values in cohort.fixed.items():
        col[name][:] = values
    if n == 0:
        col["parallel_cycles"][:] = cohort.fixed["sequential_cycles"]
        return data, per_core
    col["compute_cycles"][:] = (
        cohort.spans + cohort.barrier_events * bar_v[:, None]
    )
    col["transfer_cycles"][:] = col["transfer_words"] * xfr_v[:, None]

    # What a core computes and forwards depends on the core count only:
    # its iterations' spans, one barrier per recorded wait and signal,
    # and the words its iterations receive.  Counted DOALL is then a
    # closed form too: the busiest core's spans, shared across
    # latency/prefetch sweeps.
    top_all = per_core.shape[2]
    counts = _distinct(cores_v)
    of_count = np.searchsorted(counts, cores_v)
    by_core = (
        _iteration_cores(n, tuple(counts.tolist()), top_all) @ cohort.iters
    ).reshape(len(counts), top_all, members + 2 * count)  # per core count
    spans = by_core[:, :, :members]
    occurrences = np.add.reduceat(weights, firsts)  # per shape
    per_core[0] = (spans @ weights)[of_count] + bar_v[:, None] * (
        by_core[of_count, :, members : members + count] @ occurrences
    )
    per_core[3] = xfr_v[:, None] * (
        by_core[of_count, :, members + count :] @ occurrences
    )
    if pack is None:
        col["parallel_cycles"][:] = (
            spans.max(axis=1)[of_count] + (conf_v + wind_v)[:, None]
        )
        return data, per_core
    # ``mode`` 0 is a machine without a helper thread.
    if pack.entries is None and mode_v.any():
        _agendas(pack, cohort.progs, cohort.loop)

    # The axis: per shape, its machines in ``order``, each a block of
    # the shape's members.  Machines by agenda flavour, then core count:
    # most chunks of a wide shape then read one agenda and one core
    # count.
    order = np.lexsort((cores_v, mode_v))
    blocks = len(order) * sizes
    starts = np.cumsum(blocks) - blocks
    axis = int(blocks.sum())
    shape_all = np.repeat(np.arange(count), blocks)
    k, c = np.divmod(np.arange(axis) - starts[shape_all], sizes[shape_all])
    mi_all = order[k]
    member_all = firsts[shape_all] + c

    # Every column's final clock per core, and for a non-counted loop
    # the control-signal waits of the iterations each core ran.
    clocks = np.empty((top_all, axis), dtype=np.int64)
    signals = None if counted else np.zeros_like(clocks)
    for lo in range(0, axis, _MAX_WIDTH):
        chunk = slice(lo, min(lo + _MAX_WIDTH, axis))
        mi_, m_ = mi_all[chunk], member_all[chunk]
        cores = cores_v[mi_]
        ends, stall, signalled = _walk_chunk(
            pack, counted, grid[:, mi_], shape_all[chunk], m_
        )
        clocks[: len(ends), chunk] = ends
        clocks[len(ends) :, chunk] = conf_v[mi_]

        # Clocks only advance and start at ``conf``, which no end
        # precedes: the last end is the greatest final clock.
        col["parallel_cycles"][mi_, m_] = ends.max(axis=0) + wind_v[mi_]
        col["wait_stall_cycles"][mi_, m_] = stall
        if not counted:
            col["signal_cycles"][mi_, m_] = signalled.sum(axis=0)
            # Each iteration's wait, on the core that ran it: one
            # product per core count of the chunk.
            into = signals[:, chunk]
            for cores_of in _distinct(cores).tolist():
                ran = cores == cores_of
                into[:, ran] = (
                    _iteration_cores(n, (cores_of,), top_all)
                    @ signalled[:, ran]
                )

    # Per machine, weighted by occurrence: every clock ran from ``conf``
    # through exactly its iterations' signal waits, compute, stalls and
    # transfers.
    for start, size, first in zip(
        starts.tolist(), sizes.tolist(), firsts.tolist()
    ):
        block = slice(start, start + len(order) * size)
        shape = (top_all, len(order), size)
        w = weights[first : first + size]
        advanced = (clocks[:, block].reshape(shape) - conf_v[order, None]) @ w
        per_core[1, order] += advanced.T
        if signals is not None:
            per_core[2, order] += (signals[:, block].reshape(shape) @ w).T
    per_core[1] -= per_core[0] + per_core[2] + per_core[3]
    return data, per_core


@dataclass
class Preparation:
    """The machine-independent half of :func:`schedule_many` over one
    recording (:func:`prepare_many`), which :func:`walk_many` walks
    under any grid.

    ``packs`` holds, per pack, its distinct invocations and its
    :class:`_Cohort`; ``index`` is the distinct invocation of each
    invocation and ``distinct`` their number.  A
    :class:`~repro.runtime.parallel.RecordedRun` keeps one per
    recording, so a later grid only walks.
    """

    packs: List[Tuple[List[int], _Cohort]]
    index: "np.ndarray"
    distinct: int


def prepare_many(
    recording: Recording, loops: Mapping[LoopId, LoopInfo]
) -> Preparation:
    """Prepare ``recording`` for scheduling under any machines.

    ``loops`` maps each loop id of the recording to its
    parallelized-loop info.  Every shape joins its loop's pack for its
    iteration count, which :func:`_prepare_cohort` prepares as one;
    counted DOALL shapes pack apart.
    """
    import numpy as np

    index = np.array(recording.trace_distinct, dtype=np.int64)
    distinct = len(recording.distinct_shape)
    occurrences = np.bincount(index, minlength=distinct)
    members: List[List[int]] = [[] for _ in recording.shape_loop]
    for d, shape in enumerate(recording.distinct_shape):
        members[shape].append(d)
    # The packs: the shapes of one loop with one iteration count, walked
    # or (counted DOALL) closed-form.
    packs: Dict[Tuple, Tuple[LoopInfo, List[Tuple[int, List[int]]]]] = {}
    for shape, k in enumerate(recording.shape_loop):
        loop = loops[recording.loops[k]]
        program = recording.program(shape)
        closed = loop.counted and program.active_ops == 0
        key = (k, program.iterations, closed)
        packs.setdefault(key, (loop, []))[1].append((shape, members[shape]))
    prepared = []
    for loop, shapes in packs.values():
        packed = [d for _, distinct in shapes for d in distinct]
        prepared.append(
            (
                packed,
                _prepare_cohort(
                    recording, shapes, loop, occurrences[packed]
                ),
            )
        )
    return Preparation(packs=prepared, index=index, distinct=distinct)


def walk_many(
    preparation: Preparation, machines: Sequence[MachineConfig]
) -> ScheduleColumns:
    """Schedule a prepared recording under many machines in one pass.

    Returns the :class:`ScheduleColumns` of ``(field, machine,
    invocation)``, field-exact with :func:`schedule_invocation_reference`
    of each invocation under each machine.  Each pack is walked as one
    under every machine (:func:`_schedule_cohort`), each distinct
    invocation once, and fanned out to its invocations by index; the
    walk also fills the result's
    ``per_core`` accounting, each distinct invocation weighted by its
    occurrences.
    """
    import numpy as np

    data = np.zeros(
        (len(ScheduleColumns.FIELDS), len(machines), preparation.distinct),
        dtype=np.int64,
    )
    per_core = np.zeros(
        (
            len(CORE_FIELDS),
            len(machines),
            max((m.cores for m in machines), default=1),
        ),
        dtype=np.int64,
    )
    if not machines:
        return ScheduleColumns(data[:, :, preparation.index], per_core)
    # The machines as the vector walk reads them: every field a value,
    # the prefetch mode too.  A machine without a helper thread pays
    # ``wait`` on every signal (``IDEAL`` is ``NONE`` with cheaper
    # waits) and reads ``_NEVER`` as its prefetched latency; last comes
    # the agenda flavour a helper thread reads.
    modes = list(PrefetchMode)
    rows = []
    for m in machines:
        mode = m.effective_prefetch_mode
        helper = mode in (PrefetchMode.HELIX, PrefetchMode.MATCHED)
        fast = m.prefetched_signal_latency
        rows.append(
            (
                m.cores,
                m.signal_latency,
                fast if helper else _NEVER,
                fast if mode is PrefetchMode.IDEAL else m.signal_latency,
                m.word_transfer_cycles,
                0 if m.total_store_ordering else m.barrier_cycles,
                m.config_cycles_per_thread * max(m.cores - 1, 1),
                modes.index(mode if helper else PrefetchMode.NONE),
            )
        )
    grid = np.array(rows, dtype=np.int64).T
    for members, cohort in preparation.packs:
        data[:, :, members], pack_per_core = _schedule_cohort(cohort, grid)
        per_core += pack_per_core
    return ScheduleColumns(data[:, :, preparation.index], per_core)


def schedule_many(
    recording: Recording,
    loops: Mapping[LoopId, LoopInfo],
    machines: Sequence[MachineConfig],
) -> ScheduleColumns:
    """Schedule a recording under many machines in one pass:
    :func:`prepare_many`, then :func:`walk_many`.

    For one-shot callers; a caller that schedules the same recording
    under several grids keeps the :class:`Preparation` and only walks
    (:class:`~repro.runtime.parallel.RecordedRun` does).
    """
    return walk_many(prepare_many(recording, loops), machines)


def schedule_invocation_reference(
    trace: InvocationTrace,
    loop: LoopInfo,
    machine: MachineConfig,
    emit: Optional[Callable[[int, str, int, int], None]] = None,
) -> ScheduleResult:
    """Reconstruct the parallel schedule of one invocation.

    The original per-event interpreter over the raw trace, kept as the
    differential oracle for :func:`schedule_many`.  ``emit``, when given,
    is called as ``emit(core, category, start, end)`` for every interval
    the invocation occupies a core, in the order the walk meets them and
    in cycles from the start of thread configuration: ``config`` on
    every core, then per iteration its ``signal`` wait and its
    ``compute`` stretches, split wherever a ``stall`` or a ``transfer``
    interrupts them, and last ``collect`` on core 0, which ends at
    ``parallel_cycles``.  Intervals of no length are not emitted, and a
    zero-iteration invocation emits nothing.
    """
    cores = machine.cores
    latency = machine.signal_latency
    fast = machine.prefetched_signal_latency
    mode = machine.effective_prefetch_mode
    transfer = machine.word_transfer_cycles
    conf = machine.config_cycles_per_thread * max(cores - 1, 1)
    # Section 2.3: without total store ordering every synchronizing load
    # and store needs a memory barrier.
    barrier = 0 if machine.total_store_ordering else machine.barrier_cycles

    core_free = [conf] * cores
    helper_free = [0] * cores
    prev_sig: Dict[int, int] = {}
    prev_produced: Set[int] = set()
    prev_next_time: Optional[int] = None
    iteration_ends: List[int] = []
    barrier_events = 0
    span_total = 0

    stats = ScheduleResult(
        parallel_cycles=0,
        sequential_cycles=trace.end_cycles - trace.start_cycles,
    )

    def occupy(core: int, category: str, start: int, end: int) -> None:
        if emit is not None and end > start:
            emit(core, category, start, end)

    def pull_complete(t: int, ts: int) -> int:
        return max(t, ts) + latency

    def wait_complete(t: int, ts: int, prefetch_done: Optional[int]) -> int:
        if mode is PrefetchMode.NONE:
            return pull_complete(t, ts)
        if mode is PrefetchMode.IDEAL:
            return max(t, ts) + fast
        if prefetch_done is None:
            return pull_complete(t, ts)
        return min(pull_complete(t, ts), max(t + fast, prefetch_done))

    if trace.iterations:
        for core in range(cores):
            occupy(core, "config", 0, conf)

    for i, iteration in enumerate(trace.iterations):
        core = i % cores

        # Helper-thread prefetch agenda for this iteration.
        prefetch_done: Dict[int, int] = {}
        if mode in (PrefetchMode.HELIX, PrefetchMode.MATCHED) and i > 0:
            ctrl_agenda = [] if loop.counted else [CTRL_DEP]
            if mode is PrefetchMode.HELIX:
                agenda = ctrl_agenda + list(loop.helper_order)
            else:
                agenda = ctrl_agenda + [
                    dep for kind, dep, _at in iteration.events if kind == "w"
                ]
            cursor = helper_free[core]
            for dep in agenda:
                if dep in prefetch_done:
                    continue
                ts = prev_next_time if dep == CTRL_DEP else prev_sig.get(dep)
                if ts is None:
                    continue
                done = max(cursor, ts) + latency
                prefetch_done[dep] = done
                cursor = done
            helper_free[core] = cursor

        # Iteration start: counted loops derive their iteration numbers
        # locally (Step 3); other loops wait for the predecessor's control
        # signal (the IterationFlag store).
        t = core_free[core]
        if i > 0 and not loop.counted:
            assert prev_next_time is not None, "iteration without start signal"
            started = t
            t = wait_complete(t, prev_next_time, prefetch_done.get(CTRL_DEP))
            stats.signal_cycles += t - started
            occupy(core, "signal", started, t)

        cur_sig: Dict[int, int] = {}
        cur_next: Optional[int] = None
        cur_produced: Set[int] = set()
        waited: Set[int] = set()
        transferred: Set[int] = set()
        # Where the open compute stretch began: a stall or a transfer
        # closes it, and so does the end of the iteration.
        opened = t
        last = iteration.start_cycles

        for kind, dep, at in iteration.events:
            t += at - last
            last = at
            if kind == "w":
                stats.waits += 1
                barrier_events += 1
                t += barrier
                if dep in waited or dep in cur_sig:
                    continue
                waited.add(dep)
                ts = prev_sig.get(dep)
                if ts is None:
                    continue
                arrival = wait_complete(t, ts, prefetch_done.get(dep))
                if arrival > t:
                    stats.wait_stall_cycles += arrival - t
                    occupy(core, "compute", opened, t)
                    occupy(core, "stall", t, arrival)
                    t = opened = arrival
            elif kind == "s":
                barrier_events += 1
                t += barrier
                if dep not in cur_sig:
                    cur_sig[dep] = t
                    stats.signals += 1
            elif kind == "n":
                if cur_next is None:
                    cur_next = t
                    if not loop.counted:
                        stats.signals += 1
            elif kind == "x":
                if dep in prev_produced and dep not in transferred:
                    transferred.add(dep)
                    words = iteration.words.get(dep, 1)
                    stats.transfer_words += words
                    moved = t + words * transfer
                    if moved > t:
                        occupy(core, "compute", opened, t)
                        occupy(core, "transfer", t, moved)
                        t = opened = moved
            elif kind == "p":  # producer marks only feed the next iteration's set.
                cur_produced.add(dep)
            else:
                raise ValueError(f"unknown trace event kind {kind!r}")

        t += iteration.end_cycles - last
        occupy(core, "compute", opened, t)
        span_total += iteration.end_cycles - iteration.start_cycles
        core_free[core] = t
        iteration_ends.append(t)

        prev_sig = cur_sig
        prev_next_time = cur_next
        prev_produced = cur_produced

    stats.compute_cycles = span_total + barrier * barrier_events
    stats.transfer_cycles = stats.transfer_words * transfer

    if not iteration_ends:
        # Zero-iteration invocation: the loop body never ran, so no
        # threads were configured and nothing needs collecting -- the
        # invocation costs exactly its sequential span.
        stats.parallel_cycles = stats.sequential_cycles
        return stats

    # Main thread collects the exit variable and stops parallel threads.
    finish = max(iteration_ends)
    stats.parallel_cycles = finish + latency + max(cores - 1, 0)
    occupy(0, "collect", finish, stats.parallel_cycles)
    return stats
