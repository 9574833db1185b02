"""Superblock-fused, code-generated interpreter backend.

The tree walker (:class:`~repro.runtime.interpreter.Interpreter`) pays,
on every dynamic instruction, for opcode dispatch, operand
classification, a register ``dict`` and a cost-model lookup.  None of
that depends on runtime values, so this module hoists all of it into
Python source generated once per function:

* **Slot allocation** -- every VReg of the function gets a dense index
  (:func:`allocate_slots`) into the activation's slot list
  (:class:`SlotFrame`), which the generated code holds in locals.
* **Superblock formation** -- basic blocks are grouped into maximal
  single-entry chains (superblocks).  A successor is fused into the
  chain when it is the sole target of the chain's current terminator
  (BR) or one arm of a CBR, and it has exactly one predecessor edge in
  the function's CFG.  When the chain terminator is a CBR with both
  arms fusable, the *hot* arm is chosen from
  ``Interpreter.block_profile`` dynamic block-entry counts when
  available, statically (first target) otherwise; with a profile the
  hottest unclaimed blocks also seed chains first, so hot paths grow
  the longest fused regions.  Chains are capped at
  :data:`MAX_CHAIN_BLOCKS` blocks.
* **Code generation / quickening** -- all superblocks of a function
  merge into ONE generated Python function (``compile()``-ed once per
  ``Interpreter``): an integer-state dispatch loop whose arms are the
  chains, so a chain transition is an in-function jump (``st = k``)
  rather than a call back through a Python driver.  Registers are
  promoted to function-wide Python locals over the slot file --
  materialized once per activation and carried across chain
  transitions without flush or reload -- constants are folded into the
  source, arithmetic and compare handlers are inlined (with the
  tree-walker's exact 64-bit wrap semantics), compare+CBR pairs and
  LEA/PTRADD + LOADP/STOREP pairs are fused, and cycle/instruction
  accounting is charged once per segment instead of once per
  instruction -- into function locals (``__ic``, ``__cy``, ``__lc``
  when loads are counted), so a segment costs two or three local
  additions whatever its length.  The walker's undefined-register test
  is emitted only at a first read that some path reaches without an
  assignment (:func:`_must_defined`, a forward must-define pass over
  :mod:`repro.analysis.dataflow`): in verified code that is nowhere.
* **Hooked tier** -- ``compile_superblocks(..., hooked=True)`` emits a
  hook-aware variant for instrumented runs (the profiler and
  :class:`~repro.runtime.parallel.ParallelExecutor`):
  WAIT/SIGNAL/NEXT_ITER route through ``exec_sync`` and XFER through
  ``exec_xfer`` at segment boundaries, ``count_loads`` becomes a static
  per-segment ``load_count`` increment, and ``on_block_entry`` is
  called -- with the same arguments, order and exact ``cycles`` as the
  tree walker -- on the block-to-block edges the interpreter watches.
  ``Interpreter.watched_edges(func)`` declares that set: ``None`` (the
  default) is every edge, a frozenset of ``(prev, target)`` pairs
  leaves the hook call and the segment close only where the observer
  acts, and every other boundary fuses exactly as in the
  uninstrumented tier, which is simply the emitter with an empty
  watched set (:meth:`_ChainEmitter.observed` is the one predicate).
  The declaration binds generated code only: the tree walker, which
  also runs the budget fallback below, announces every entry, so a
  declaring hook keeps treating undeclared edges as no-ops.  An
  observer that still needs every entry *counted* sets
  ``count_unwatched``: unobserved boundaries then bump a per-block
  cell of ``interp.unwatched_entries``, statically, like loads.
  Because a hook reads ``interp.cycles`` (the parallel executor stamps
  its traces with it) and may rewrite it, the clock locals are written
  back to the interpreter before, and reloaded after, every call that
  leaves the function with the activation still live:
  ``on_block_entry``, ``exec_sync``, ``exec_xfer`` and every IR
  ``CALL`` (the callee charges through the interpreter).  They are
  written back once more wherever the activation ends: before
  ``return``, in the over-budget handler, and before a ``RuntimeFault``
  the function raises itself.  An exception *arriving* from a callee or
  a hook passes through with nothing written: whoever raised it wrote
  its own clock last, and the caller's locals are older.  Hooks
  receive the activation's :class:`SlotFrame` and must not inspect
  register state (true of every in-tree consumer); listener-bearing
  interpreters run on the tree walker.
* **Exactness fallback** -- output, cycle and instruction counts,
  ``RuntimeFault`` messages and ``ExecutionLimitExceeded`` behavior are
  bit-identical to the tree-walker.  Each dispatch arm only runs when
  the instruction budget covers its chain's whole linear body (checked
  on arm entry; loop-shaped chains re-check on every back edge), and
  after every CALL (which consumes budget in the callee) the generated
  code re-checks the rest of the chain in place.  A failed check is
  one statement, ``raise __OB(block, index)``: the dispatch loop
  runs inside a ``try`` (free until something is raised) whose single
  handler writes the register locals back to the slot file -- the one
  write-back of the function, whatever the number of checks -- and
  returns the ``(block name, instruction index)`` anchor: 0, the
  chain's head, for the entry and back-edge checks, the instruction
  after the CALL for a post-call check.  :func:`execute_superblocks`
  copies the defined slots into ``frame.regs`` once and the tree walker
  finishes the activation from the anchor on the same frame object
  (observers such as :class:`~repro.runtime.parallel.ParallelExecutor`
  recognize an activation by its frame), charging instruction by
  instruction, so the limit fires at precisely the walker's dynamic
  instruction.

**Artifact caching**: when the owning interpreter carries a
``codegen_cache`` (any object with ``load(kind, key)`` / ``store(kind,
key, payload)`` -- in practice :class:`repro.artifacts.ArtifactStore`),
generated source and bytecode are content-addressed under the
``"codegen"`` kind and keyed by :data:`CODEGEN_VERSION`, the function's
printed IR, the hook flags and the watched edge set, the module's
global-region sizes and function set, the cost-model parameters and
the function's block-profile projection -- everything the emitted
source can embed as a literal or decide an emission on.  The payload
marshals the code object the build executed (one ``compile()`` per
miss).  A warm hit
re-binds the stored namespace manifest against the live interpreter
and skips formation, rendering *and* ``compile()``
(bytecode is reused when the Python ``cache_tag`` matches, else the
cached source is recompiled).  ``repro serve`` job resubmissions and
warm suite re-runs therefore skip codegen entirely, and
``suite --jobs N`` shards cold compiles across workers through the
shared store.

Assumptions baked into the generated source: global regions are reset
*in place* (their backing lists -- and hence their lengths -- are
stable across runs), so bounds checks against known globals embed the
region size as a literal.  The only tolerated divergence from the
walker: after a non-limit
``RuntimeFault`` aborts a run mid-segment, the dead interpreter's
counters (including ``load_count``) may include instructions from the
faulting segment that never executed (no result object is produced on
a fault); after an exception that is no ``RuntimeFault`` at all (the
``TypeError`` of ill-typed arithmetic, the ``KeyError`` of an unknown
callee or block) they stand at the activation's last write-back.

Counters (:mod:`repro.obs.metrics`): ``interp.superblock.formed``,
``interp.superblock.blocks_fused``, ``interp.codegen.specialized_ops``,
``interp.codegen.functions`` at compile time,
``interp.superblock.hooked`` per hooked-tier function made available
and, with it, ``interp.codegen.hook_sites`` /
``interp.codegen.hook_sites_elided`` for the block boundaries that
function compiled with / without their ``on_block_entry`` call,
``interp.codegen.undef_checks`` / ``interp.codegen.undef_checks_elided``
per function for the first reads that kept / lost the
undefined-register test,
``interp.codegen.cache.hit`` / ``interp.codegen.cache.miss`` per
artifact-cache probe, and ``interp.superblock.fallbacks`` per
exactness-fallback activation.
"""

from __future__ import annotations

import base64
import hashlib
import json
import marshal
import re
import sys
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.analysis.cfg import CFGView
from repro.analysis.dataflow import DataflowProblem, solve_dataflow
from repro.ir import Function, Instruction, Opcode
from repro.ir.operands import Const, Symbol, VReg
from repro.ir.types import Type
from repro.obs.metrics import REGISTRY
from repro.runtime.interpreter import (
    _BINARY_HANDLERS,
    _UNARY_HANDLERS,
    Pointer,
    RuntimeFault,
    _arith_div,
    _arith_mod,
    format_value,
)

_INF = float("inf")

#: Upper bound on blocks fused into one superblock (bounds source size).
MAX_CHAIN_BLOCKS = 64

#: Version of the generated-code layout and namespace manifest.  Bump on
#: ANY change to emitted source shape, bind kinds or driver protocol:
#: it is the only guard between old cached artifacts and new code.
CODEGEN_VERSION = 7

#: Artifact-store kind for cached generated code.
CODEGEN_KIND = "codegen"

_CACHE_TAG = sys.implementation.cache_tag

# 64-bit two's complement wrap, inlined: 2**63 and 2**64 - 1.
_O = "9223372036854775808"
_M = "18446744073709551615"

#: Region/function names safe to splice verbatim into an f-string message.
_SAFE_NAME_RE = re.compile(r"[A-Za-z0-9_.$@:\-]+\Z")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_CMP_OPS = {
    Opcode.EQ: "==",
    Opcode.NE: "!=",
    Opcode.LT: "<",
    Opcode.LE: "<=",
    Opcode.GT: ">",
    Opcode.GE: ">=",
}
_ARITH_OPS = {Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*"}
_BIT_OPS = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}
_SYNC_OPS = (Opcode.WAIT, Opcode.SIGNAL, Opcode.NEXT_ITER, Opcode.XFER)
_LOAD_OPS = (Opcode.LOADG, Opcode.LOADP)


class _Undefined:
    """Sentinel filling unwritten register slots."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<undef>"


_UNDEF = _Undefined()


def _undef(operand: VReg, func_name: str) -> None:
    """Raise the tree-walker's undefined-register fault."""
    raise RuntimeFault(f"use of undefined register {operand} in {func_name}")


class SlotFrame:
    """One activation of generated code: slot file + local arrays.

    ``regs`` is the tree walker's register file; it exists only once
    the activation falls back to the walker, filled from ``slots``.
    """

    __slots__ = ("func", "slots", "local_mem", "ret", "regs")

    def __init__(self, func: Function, nslots: int) -> None:
        self.func = func
        self.slots: List[object] = [_UNDEF] * nslots
        self.local_mem: Dict[str, List] = {}
        self.ret: object = None

    def local_region(self, symbol: Symbol) -> List:
        store = self.local_mem.get(symbol.name)
        if store is None:
            zero = 0.0 if symbol.elem_type is Type.FLOAT else 0
            store = [zero] * symbol.size
            self.local_mem[symbol.name] = store
        return store


def allocate_slots(func: Function) -> Dict[int, int]:
    """Deterministic VReg uid -> dense frame-slot index map for ``func``.

    Parameters first, then destinations and arguments in block order,
    so the map can be recomputed from the IR alone when a cached codegen
    artifact is instantiated.
    """
    slot_map: Dict[int, int] = {}

    def slot(reg: VReg) -> None:
        if reg.uid not in slot_map:
            slot_map[reg.uid] = len(slot_map)

    for param in func.params:
        slot(param)
    for block in func.blocks.values():
        for instr in block.instructions:
            if instr.dest is not None:
                slot(instr.dest)
            for arg in instr.args:
                if isinstance(arg, VReg):
                    slot(arg)
    return slot_map


def _wrap(expr: str) -> str:
    """Source form of ``wrap_int(expr)`` for a known-int expression."""
    return f"((({expr}) + {_O}) & {_M}) - {_O}"


def _literal(value) -> Optional[str]:
    """Render ``value`` as a Python literal, or None if not exactly
    representable (bools and non-finite floats are refused)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if isinstance(value, float) and not (
        value == value and value not in (_INF, -_INF)
    ):
        return None
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


# -- superblock formation -----------------------------------------------------


def _first_terminator(block) -> Optional[Instruction]:
    for instr in block.instructions:
        if instr.is_terminator:
            return instr
    return None


def _fusable_successor(
    func: Function,
    term: Optional[Instruction],
    claimed,
    preds: Dict[str, int],
    block_profile: Optional[Mapping[Tuple[str, str], int]],
) -> Optional[str]:
    """The block to extend the chain with, or None to stop."""
    if term is None or term.opcode is Opcode.RET:
        return None
    blocks = func.blocks

    def ok(name: str) -> bool:
        return name in blocks and name not in claimed and preds.get(name, 0) == 1

    if term.opcode is Opcode.BR:
        target = term.targets[0]
        return target if ok(target) else None
    # CBR: fuse along any fusable arm; prefer the profiled-hot one.
    candidates = [t for t in term.targets if ok(t)]
    if not candidates:
        return None
    if block_profile and len(candidates) > 1:
        fname = func.name
        return max(candidates, key=lambda t: block_profile.get((fname, t), 0))
    return candidates[0]


def form_superblocks(
    func: Function,
    block_profile: Optional[Mapping[Tuple[str, str], int]] = None,
) -> List[List[str]]:
    """Partition ``func``'s blocks into single-entry chains.

    Every block lands in exactly one chain; the entry block always
    heads the first chain.  Interior blocks of a chain have exactly one
    CFG predecessor (the fused edge), which guarantees that every side
    exit of every chain targets a chain *head* -- the invariant the
    generated code relies on to dispatch between superblocks.

    With a ``block_profile``, the non-entry seed order is *trace
    guided*: hotter unclaimed blocks start chains first (a stable sort,
    so ties keep declaration order) and therefore get first claim on
    fusable successors, growing the longest chains along the measured
    hot paths.  Purely a layout heuristic -- never affects semantics.
    """
    blocks = func.blocks
    terms = {name: _first_terminator(b) for name, b in blocks.items()}
    preds: Dict[str, int] = {}
    for term in terms.values():
        if term is not None and term.opcode is not Opcode.RET:
            for target in term.targets:
                if target in blocks:
                    preds[target] = preds.get(target, 0) + 1
    entry_name = func.entry.name
    rest = [n for n in blocks if n != entry_name]
    if block_profile:
        fname = func.name
        rest.sort(key=lambda n: -block_profile.get((fname, n), 0))
    order = [entry_name] + rest
    claimed = set()
    chains: List[List[str]] = []
    for head in order:
        if head in claimed:
            continue
        chain = [head]
        claimed.add(head)
        current = head
        while len(chain) < MAX_CHAIN_BLOCKS:
            nxt = _fusable_successor(
                func, terms[current], claimed, preds, block_profile
            )
            if nxt is None:
                break
            chain.append(nxt)
            claimed.add(nxt)
            current = nxt
        chains.append(chain)
    return chains


def _must_defined(
    func: Function, slot_map: Dict[int, int]
) -> Dict[str, FrozenSet[int]]:
    """Per reachable block, the slots every path from the activation
    entry has assigned before the block's first instruction (the
    parameters are assigned by the driver).  A read of such a slot can
    never see the undefined marker, so the emitter drops the walker's
    undefined-register test there.  A function the verifier would
    reject (a dangling target, instructions behind a terminator) gets
    no answer and keeps every test."""
    blocks = func.blocks
    defs: Dict[str, FrozenSet[int]] = {}
    for name, block in blocks.items():
        term = block.terminator
        if term is None or term is not _first_terminator(block) or any(
            target not in blocks for target in block.successor_names()
        ):
            return {}
        defs[name] = frozenset(
            slot_map[instr.dest.uid]
            for instr in block.instructions
            if instr.dest is not None
        )
    problem = DataflowProblem(
        "forward",
        "intersection",
        transfer=lambda name, fact: fact | defs[name],
        boundary=frozenset(slot_map[param.uid] for param in func.params),
        universe=frozenset(slot_map.values()),
    )
    return solve_dataflow(CFGView(func), problem).inputs


# -- compiled artifacts -------------------------------------------------------


class _HookSpec(NamedTuple):
    """What one compile observes: the normalized form of the hook flags
    that the artifact key and the emitter share."""

    #: Sync/xfer ops route through ``exec_sync`` / ``exec_xfer``.
    hooked: bool
    count_loads: bool
    #: ``(prev, target)`` edges whose traversal calls ``on_block_entry``
    #: (and closes the running segment): ``None`` is every edge, the
    #: empty set -- all the uninstrumented tier ever has -- none.
    watched: Optional[FrozenSet[Tuple[str, str]]]
    #: Unwatched entries bump ``interp.unwatched_entries`` cells.
    count_unwatched: bool


def _hook_spec(interp, func: Function, hooked: bool,
               count_loads: bool) -> _HookSpec:
    """Normalize the caller's flags and ask ``interp`` what it watches
    in ``func`` (nothing is observed, or counted, without ``hooked``)."""
    if not hooked:
        return _HookSpec(False, False, frozenset(), False)
    watched = interp.watched_edges(func)
    return _HookSpec(
        True,
        bool(count_loads),
        watched,
        watched is not None and bool(interp.count_unwatched),
    )


class Superblock:
    """Metadata of one compiled chain (one dispatch arm of the merged
    generated function)."""

    __slots__ = ("head", "chain", "max_instructions")

    def __init__(self) -> None:
        self.head = ""
        self.chain: Tuple[str, ...] = ()
        #: Linear instruction count of the whole chain: an upper bound
        #: on what one pass (one loop iteration) can charge.
        self.max_instructions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<superblock {'+'.join(self.chain)}>"


class SuperblockFunction:
    """All superblocks of one function, compiled against one interpreter.

    The chains share ONE generated function (``run``): an integer-state
    dispatch loop whose arm ``k`` is chain ``k``'s body, with registers
    held in function-wide locals across chain transitions.  ``run(frame,
    limit, 0)`` executes a whole activation and returns ``None`` on RET,
    or the ``(block name, instruction index)`` anchor of the budget
    check that failed -- :func:`execute_superblocks` then finishes the
    activation on the
    tree walker from there.
    """

    __slots__ = (
        "func", "slot_map", "nslots", "param_slots", "entry", "blocks",
        "run", "source", "hooked", "count_loads", "hook_sites",
        "undef_checks",
    )

    def __init__(
        self,
        func: Function,
        slot_map: Dict[int, int],
        entry: Superblock,
        blocks: Dict[str, Superblock],
        run,
        source: str,
        hooked: bool = False,
        count_loads: bool = False,
        hook_sites: Tuple[int, int] = (0, 0),
        undef_checks: Tuple[int, int] = (0, 0),
    ) -> None:
        self.func = func
        #: VReg uid -> slot index (:func:`allocate_slots`).
        self.slot_map = slot_map
        self.nslots = len(slot_map)
        self.param_slots = tuple(slot_map[param.uid] for param in func.params)
        self.entry = entry
        self.blocks = blocks
        #: ``run(frame, limit, state)`` -> None (RET) | over-budget anchor.
        self.run = run
        #: Generated Python source, kept for tests and debugging.
        self.source = source
        self.hooked = hooked
        self.count_loads = count_loads
        #: Block boundaries that (call ``on_block_entry``, fuse without
        #: calling it).
        self.hook_sites = hook_sites
        #: First reads of a register in an arm that (keep the walker's
        #: undefined-register test, are proven defined on every path).
        self.undef_checks = undef_checks


class _OverBudget(Exception):
    """Raised by generated code, and caught by its own function, when
    the instruction budget may expire before the next check; ``args`` is
    the ``(block name, instruction index)`` anchor the walker resumes
    at."""


def _base_namespace(interp, func: Function) -> Dict[str, object]:
    """Globals of the generated module: runtime objects pre-bound under
    stable dunder names (identical for fresh builds and warm artifact
    instantiations)."""
    return {
        "__I": interp,
        "__U": _UNDEF,
        "__undef": _undef,
        "__RF": RuntimeFault,
        "__Ptr": Pointer,
        "__fmt": format_value,
        "__div": _arith_div,
        "__mod": _arith_mod,
        "__call": interp.call_function,
        "__OB": _OverBudget,
        "__fb": func.blocks,
        "__FN": func.name,
    }


def _entry_cell(interp, func: Function, name: str) -> List[int]:
    """The one-element entry counter of block ``name``, created on
    first use and zeroed in place by every ``Interpreter.run``."""
    return interp.unwatched_entries.setdefault((func.name, name), [0])


# -- code generation ----------------------------------------------------------


def _dispatch_split(weights: List[int], lo: int, hi: int) -> int:
    """Split point for the weighted binary dispatch tree over arms
    ``[lo, hi)``: the boundary that best balances entry mass, so hot
    arms sit behind few ``st <`` tests (expected test count tracks the
    entropy of the transition profile, not the arm count)."""
    total = sum(weights[lo:hi])
    acc = 0
    best = lo + 1
    best_d: Optional[int] = None
    for mid in range(lo + 1, hi):
        acc += weights[mid - 1]
        d = abs(2 * acc - total)
        if best_d is None or d < best_d:
            best_d = d
            best = mid
    return best


class _FunctionCodegen:
    """Generates and compiles the superblock source for one function."""

    def __init__(self, interp, func: Function, hook_spec: _HookSpec) -> None:
        self.interp = interp
        self.func = func
        self.hook_spec = hook_spec
        self.hooked = hook_spec.hooked
        self.count_loads = hook_spec.count_loads
        #: Boundaries emitted with / without their ``on_block_entry``
        #: call.
        self.hook_sites = 0
        self.hook_sites_elided = 0
        #: First reads emitted with / without their undefined-register
        #: test.
        self.undef_checks = 0
        self.undef_checks_elided = 0
        self.slot_map = allocate_slots(func)
        self.defined_at = _must_defined(func, self.slot_map)
        # The activation's clock lives in the locals ``__ic`` / ``__cy``
        # (/ ``__lc``); these two lines move it to the interpreter and
        # back wherever someone else may read or write it.
        clock = [("instructions", "__ic"), ("cycles", "__cy")]
        if self.count_loads:
            clock.append(("load_count", "__lc"))
        self.write_back = "; ".join(
            f"__i.{attr} = {local}" for attr, local in clock
        )
        self.reload = "; ".join(
            f"{local} = __i.{attr}" for attr, local in clock
        )
        self.cost_model = interp.cost_model
        self.specialized = 0
        self.chains: List[List[str]] = []
        #: The compiled module of the generated source: what
        #: :meth:`build` executes and :meth:`artifact` marshals.
        self.code = None
        #: Function-wide slot sets (filled by :meth:`build` before any
        #: chain is emitted): every slot the body reads or writes, and
        #: the write subset every budget handoff flushes.
        self.touched_slots: Tuple[int, ...] = ()
        self.write_slots: Tuple[int, ...] = ()
        self.ns: Dict[str, object] = _base_namespace(interp, func)
        self._binds: Dict[Tuple[str, int], str] = {}
        #: Ordered reconstruction manifest: (name, kind, payload) per
        #: bound object, enough to re-bind against a fresh interpreter
        #: when this compile is replayed from the artifact cache.
        self.bind_specs: List[Tuple[str, str, object]] = []
        self._ptr_cache: Dict[Tuple[int, object, str], str] = {}
        #: VReg uid -> number of argument occurrences function-wide.
        self.uses: Dict[int, int] = {}
        for block in func.blocks.values():
            for instr in block.instructions:
                for arg in instr.args:
                    if isinstance(arg, VReg):
                        self.uses[arg.uid] = self.uses.get(arg.uid, 0) + 1

    def bind(self, prefix: str, obj, spec: Tuple[str, object]) -> str:
        """Expose ``obj`` to the generated code under a memoized name.

        ``spec`` is the JSON-able ``(kind, payload)`` recipe that
        :func:`_resolve_bind` uses to rebuild the same object against a
        fresh interpreter on a warm artifact hit.
        """
        key = (prefix, id(obj))
        name = self._binds.get(key)
        if name is None:
            name = f"__{prefix}{len(self._binds)}"
            self._binds[key] = name
            self.ns[name] = obj
            self.bind_specs.append((name, spec[0], spec[1]))
        return name

    def pointer_for(self, store: List, base, name: str) -> str:
        """A pre-built Pointer into a stable (global) region."""
        key = (id(store), base, name)
        bound = self._ptr_cache.get(key)
        if bound is None:
            bound = self.bind(
                "ptr", Pointer(store, base, name), ("ptr", [name, base])
            )
            self._ptr_cache[key] = bound
        return bound

    def cost(self, instr: Instruction) -> int:
        is_float = instr.dest is not None and instr.dest.type is Type.FLOAT
        return self.cost_model.cycles(instr.opcode, is_float)

    def const_expr(self, operand: Const) -> str:
        lit = _literal(operand.value)
        if lit is not None:
            return lit
        return self.bind("c", operand.value, ("c", operand.value))

    def fstr_name(self, name: str) -> str:
        """Fragment rendering ``name`` inside a generated f-string."""
        if _SAFE_NAME_RE.match(name):
            return name
        return "{" + self.bind("nm", name, ("nm", name)) + "}"

    def build(self) -> SuperblockFunction:
        func = self.func
        chains = form_superblocks(func, self.interp.block_profile)
        # Arms are the leaves of a weighted binary tree of `st < mid`
        # tests (`_dispatch_split` below), so order them by measured
        # head entry count, hottest first: a split that balances entry
        # mass then leaves the hot arms behind few tests.  The entry
        # chain stays at arm 0 (the driver starts every activation
        # there).
        profile = self.interp.block_profile
        if profile and len(chains) > 2:
            fname = func.name
            chains[1:] = sorted(
                chains[1:],
                key=lambda chain: -profile.get((fname, chain[0]), 0),
            )
        self.chains = chains
        sblocks: Dict[str, Superblock] = {}
        sb_index: Dict[str, int] = {}
        for i, chain in enumerate(chains):
            sb = Superblock()
            sb.head = chain[0]
            sb.chain = tuple(chain)
            sblocks[chain[0]] = sb
            sb_index[chain[0]] = i
        # Function-wide register file: every slot the generated body can
        # touch is materialized once per activation, so locals stay
        # authoritative across chain transitions (no per-transition
        # flush/reload) and any budget handoff can flush the full write
        # set -- prelude initialization makes every member assignable
        # regardless of which path executed.
        slot_map = self.slot_map
        touched: Dict[int, None] = {}
        writes: Dict[int, None] = {}
        for block in func.blocks.values():
            for instr in block.instructions:
                for reg in instr.uses():
                    touched.setdefault(slot_map[reg.uid], None)
                if instr.dest is not None:
                    slot = slot_map[instr.dest.uid]
                    touched.setdefault(slot, None)
                    writes.setdefault(slot, None)
                if instr.is_terminator:
                    break
        self.touched_slots = tuple(touched)
        self.write_slots = tuple(writes)
        weights = [
            (profile.get((func.name, chain[0]), 0) + 1) if profile else 1
            for chain in chains
        ]

        def emit_range(lo: int, hi: int, base: str) -> List[str]:
            # Weighted binary dispatch: interior nodes test `st < mid`,
            # leaves hold exactly one arm and need no equality test.
            if hi - lo == 1:
                return _ChainEmitter(
                    self, chains[lo], sblocks[chains[lo][0]], sb_index, base
                ).render()
            mid = _dispatch_split(weights, lo, hi)
            lines = [f"{base}if st < {mid}:"]
            lines.extend(emit_range(lo, mid, base + "    "))
            lines.append(f"{base}else:")
            lines.extend(emit_range(mid, hi, base + "    "))
            return lines

        arms = emit_range(0, len(chains), " " * 12)
        head = [
            "def __sb(frame, __limit, st):",
            "    __i = __I",
            "    " + self.reload,
        ]
        if self.hook_sites:
            head.append("    __obe = __i.on_block_entry")
        head.append("    s = frame.slots")
        for slot in self.touched_slots:
            head.append(f"    r{slot} = s[{slot}]")
        head.append("    try:")
        head.append("        while True:")
        # The one register write-back: every over-budget exit raises
        # to here with the clock locals current, and the anchor it
        # carries is where the walker resumes.
        tail = ["    except __OB as __x:"]
        for slot in self.write_slots:
            tail.append(f"        s[{slot}] = r{slot}")
        tail.append("        " + self.write_back)
        tail.append("        return __x.args")
        source = "\n".join(head + arms + tail) + "\n"
        self.code = compile(source, f"<superblocks:{func.name}>", "exec")
        exec(self.code, self.ns)
        REGISTRY.inc("interp.superblock.formed", len(chains))
        REGISTRY.inc(
            "interp.superblock.blocks_fused",
            sum(len(chain) - 1 for chain in chains),
        )
        if self.specialized:
            REGISTRY.inc("interp.codegen.specialized_ops", self.specialized)
        REGISTRY.inc("interp.codegen.functions")
        return SuperblockFunction(
            func,
            self.slot_map,
            sblocks[func.entry.name],
            sblocks,
            self.ns["__sb"],
            source,
            self.hooked,
            self.count_loads,
            (self.hook_sites, self.hook_sites_elided),
            (self.undef_checks, self.undef_checks_elided),
        )

    def artifact(self, sfunc: SuperblockFunction) -> dict:
        """Serializable payload replaying this compile on a fresh
        interpreter (see :func:`_instantiate`)."""
        try:
            bytecode = base64.b64encode(
                marshal.dumps(self.code)
            ).decode("ascii")
        except Exception:  # pragma: no cover - marshal refuses nothing here
            bytecode = None
        return {
            "codegen": CODEGEN_VERSION,
            "function": self.func.name,
            "hooked": self.hooked,
            "count_loads": self.count_loads,
            "chains": [list(chain) for chain in self.chains],
            "max_instructions": [
                sfunc.blocks[chain[0]].max_instructions
                for chain in self.chains
            ],
            "nslots": sfunc.nslots,
            "param_slots": list(sfunc.param_slots),
            "binds": [list(spec) for spec in self.bind_specs],
            "source": sfunc.source,
            "hook_sites": list(sfunc.hook_sites),
            "undef_checks": list(sfunc.undef_checks),
            "cache_tag": _CACHE_TAG,
            "bytecode": bytecode,
        }


class _ChainEmitter:
    """Renders one superblock chain as one dispatch arm of the merged
    generated function.

    :meth:`_FunctionCodegen.build` emits the shared head -- the
    interpreter/hook bindings and a prelude materializing every touched
    slot into locals ``r<slot>`` -- then arranges the arms as a
    profile-weighted binary dispatch tree inside the ``while True:``
    loop (interior nodes test ``st < mid``; a leaf holds exactly one
    arm, so no equality test runs)::

        def __sb(frame, __limit, st):
            __i = __I
            __ic = __i.instructions; __cy = __i.cycles   # the clock
            s = frame.slots
            r3 = s[3]; ...                      # function-wide prelude
            try:
                while True:
                    if st < 1:                   # dispatch tree
                        if __ic + N0 > __limit:  # arm 0 (entry chain)
                            raise __OB('entry0', 0)
                        <charge segment>; <ops>; ...
                        st = 2                   # side exit to chain 2
                        continue                 # back to dispatch
                    else:
                        if st < 2: ...
            except __OB as __x:
                s[..] = r..                      # the one write-back
                __i.instructions = __ic; __i.cycles = __cy
                return __x.args                  # -> the walker finishes

    Locals are authoritative across chain transitions: a transition is
    just ``st = k`` plus a jump back to the dispatch loop, with no
    flush and no reload.  The slot file is only written when control
    leaves the generated function with the frame still live -- an arm's
    over-budget entry check, a loop back edge's budget re-check, or a
    post-CALL re-check -- and every one of those raises to the single
    handler, which flushes the *full* function write set (prelude
    initialization makes every member assignable no matter which path
    executed) and returns the anchor the walker resumes at.  The walker's
    undefined-register check stays at an arm's first read site, against
    the prelude-loaded local, when the register is not assigned on
    every path into the block (:func:`_must_defined`).  Loop-form arms
    (terminator targets the chain head) wrap
    their body in an inner ``while True:``; the back edge is
    ``continue`` on that inner loop, side exits ``break`` out of it and
    fall back to the dispatch loop.

    Charges are emitted *before* each segment's operations; a segment
    that follows a CALL first re-checks the remaining linear budget and
    raises, anchored at the instruction after the CALL, when the limit
    could expire before the chain ends.

    Segments additionally close at every boundary that is
    :meth:`observed` (so ``on_block_entry`` reads exact counters, in
    the walker's exact call order) and, in hooked mode, at every
    sync/xfer opcode (charged through the op before
    ``exec_sync``/``exec_xfer`` runs, as the walker charges an
    instruction before executing it), and each closed segment
    statically bumps ``load_count`` by its LOADG/LOADP count when the
    interpreter counts loads.
    """

    def __init__(
        self, g: _FunctionCodegen, chain, sb, sb_index, base: str
    ) -> None:
        self.g = g
        self.chain = chain
        self.sb = sb
        #: Chain head -> dispatch arm index, for side-exit transitions.
        self.sb_index = sb_index
        #: Indentation of this arm's leaf inside the dispatch tree.
        self.base = base
        self.blocks = g.func.blocks
        self.hooked = g.hooked
        self.count_loads = g.count_loads
        self.watched = g.hook_spec.watched
        # Prescan: linear instruction total and loop shape.
        total = 0
        loop_form = False
        for name in chain:
            block = self.blocks[name]
            term = _first_terminator(block)
            if term is None:
                total += len(block.instructions)
            else:
                total += block.instructions.index(term) + 1
                if term.opcode is not Opcode.RET and chain[0] in term.targets:
                    loop_form = True
        self.total = total
        self.loop_form = loop_form
        sb.max_instructions = total
        # Leaf arms carry no equality test, so the body sits at the
        # leaf's own depth; loop form nests it inside the inner while.
        self.indent = base + "    " if loop_form else base
        self.lines: List[str] = []
        self.buf: List[str] = []
        self.seg_count = 0
        self.seg_cycles = 0
        self.seg_loads = 0
        self.charged = 0
        self.pending_check: Optional[Tuple[str, int]] = None
        self.pending_cond: Optional[str] = None
        #: Slots this arm has assigned or tested so far, and the slots
        #: every path into the block being emitted has assigned
        #: (:func:`_must_defined`): a read outside both keeps the
        #: walker's undefined-register test.
        self.defined: set = set()
        self.proven: FrozenSet[int] = frozenset()
        self.local_regions: Dict[str, str] = {}
        self._tmp = 0

    # -- small helpers -------------------------------------------------------

    def tmp(self) -> str:
        self._tmp += 1
        return f"__t{self._tmp}"

    def emit(self, line: str, extra: str = "") -> None:
        self.lines.append(self.indent + extra + line)

    def emit_call_out(self, call: str, extra: str = "") -> None:
        """Emit, at a closed segment, a call that leaves the function
        with the activation live: the callee reads the exact clock and
        may rewrite it, so the locals go out before and come back
        after."""
        self.emit(self.g.write_back, extra)
        self.emit(call, extra)
        self.emit(self.g.reload, extra)

    def flush_buf(self) -> None:
        ind = self.indent
        self.lines.extend(ind + line for line in self.buf)
        self.buf = []

    def as_name(self, expr: str) -> str:
        """Materialize ``expr`` into a local if it isn't a plain name."""
        if _IDENT_RE.match(expr):
            return expr
        name = self.tmp()
        self.buf.append(f"{name} = {expr}")
        return name

    def charge_op(self, instr: Instruction) -> None:
        self.seg_count += 1
        self.seg_cycles += self.g.cost(instr)
        if self.count_loads and instr.opcode in _LOAD_OPS:
            self.seg_loads += 1

    def bb(self, name: str) -> str:
        """Bound BasicBlock object (hook-call argument)."""
        return self.g.bind("bb", self.blocks[name], ("bb", name))

    def observed(self, prev: str, target: str) -> bool:
        """The one boundary predicate: does entering ``target`` from
        ``prev`` call ``on_block_entry``?  An observed boundary closes
        the running segment first, so the hook reads exact counters;
        every other boundary fuses -- always, in the uninstrumented
        tier, whose watched set is empty."""
        watched = self.watched
        return watched is None or (prev, target) in watched

    def emit_entry(self, prev_name: str, target: str, extra: str = "") -> None:
        """Announce the entry of ``target`` from ``prev_name``: the
        ``on_block_entry`` call when :meth:`observed`, else the static
        entry-count bump when the interpreter counts unwatched entries,
        else nothing.

        ``__obe`` is bound from the interpreter attribute once per
        activation (so instance-level overrides installed before the
        run stay honored), and hooks may mutate any interpreter
        *counter* freely -- the call sits between a write-back and a
        reload of the clock locals -- but
        rebinding the hook attribute itself mid-activation is only
        observed at the next activation, exactly like a mid-activation
        backend switch.
        """
        g = self.g
        if self.observed(prev_name, target):
            g.hook_sites += 1
            self.emit_call_out(
                f"__obe(frame, {self.bb(prev_name)}, {self.bb(target)})",
                extra,
            )
            return
        g.hook_sites_elided += 1
        if not g.hook_spec.count_unwatched:
            return
        cell = g.bind(
            "bc", _entry_cell(g.interp, g.func, target), ("bc", target)
        )
        line = f"{cell}[0] += 1"
        if self.seg_count:
            # An unobserved fused fallthrough leaves the segment open:
            # the bump keeps program order with the buffered ops, behind
            # the segment's post-CALL budget check, so an activation
            # that diverts there never counts a block the fallback is
            # about to announce.
            self.buf.append(line)
        else:
            self.emit(line, extra)

    # -- operand access ------------------------------------------------------

    def read(self, operand) -> str:
        g = self.g
        if isinstance(operand, Const):
            return g.const_expr(operand)
        if isinstance(operand, VReg):
            slot = g.slot_map[operand.uid]
            name = f"r{slot}"
            if slot not in self.defined:
                # The prelude materialized every slot; the walker's
                # undefined-register check stays at the arm's first
                # read site, and only where some path reaches it
                # without an assignment.
                self.defined.add(slot)
                if slot in self.proven:
                    g.undef_checks_elided += 1
                else:
                    g.undef_checks += 1
                    reg = g.bind("vr", operand, ("vr", operand.uid))
                    self.buf.append(f"if {name} is __U:")
                    self.buf.append(f"    {g.write_back}")
                    self.buf.append(f"    __undef({reg}, __FN)")
            return name
        return self.sym_pointer(operand)

    def sym_pointer(self, sym: Symbol) -> str:
        """A Symbol operand decaying to a Pointer, as in eval_operand."""
        g = self.g
        if sym.is_global:
            store = g.interp.memory.get(sym.name)
            if store is not None:
                g.specialized += 1
                return g.pointer_for(store, 0, sym.name)
            # Unknown global: ``region_of`` faults, like the walker.
            sname = g.bind("sym", sym, ("sym", sym.name))
            name = self.tmp()
            self.buf.append(g.write_back)
            self.buf.append(
                f"{name} = __Ptr(__i.region_of({sname}, frame), 0, "
                f"{sym.name!r})"
            )
            return name
        region = self.local_store(sym)
        name = self.tmp()
        self.buf.append(f"{name} = __Ptr({region}, 0, {sym.name!r})")
        return name

    def local_store(self, sym: Symbol) -> str:
        name = self.local_regions.get(sym.name)
        if name is None:
            sname = self.g.bind("sym", sym, ("sym", sym.name))
            name = f"__lm{len(self.local_regions)}"
            self.local_regions[sym.name] = name
            self.buf.append(f"{name} = frame.local_region({sname})")
        return name

    def store_ref(self, sym: Symbol) -> Tuple[str, Optional[int]]:
        """(store expression, static size or None) for LEA/LOADG/STOREG.

        Emitted *after* the index read, matching the walker's operand
        order.  Known-global and local region sizes are static: regions
        are reset in place and never resized.
        """
        g = self.g
        if sym.is_global:
            store = g.interp.memory.get(sym.name)
            if store is not None:
                return g.bind("st", store, ("st", sym.name)), len(store)
            sname = g.bind("sym", sym, ("sym", sym.name))
            name = self.tmp()
            self.buf.append(g.write_back)
            self.buf.append(f"{name} = __i.region_of({sname}, frame)")
            return name, None
        return self.local_store(sym), sym.size

    def wreg(self, reg: VReg) -> str:
        slot = self.g.slot_map[reg.uid]
        self.defined.add(slot)
        return f"r{slot}"

    def bounds(self, kind: str, name_frag: str, index: str,
               store: str, size: Optional[int]) -> None:
        """Emit the walker's bounds check + fault message."""
        if size is not None:
            self.buf.append(f"if {index} < 0 or {index} >= {size}:")
            self.fault(
                f'f"{kind} out of bounds: '
                f'{name_frag}[{{{index}}}] (size {size})"',
                "    ",
            )
        else:
            self.buf.append(f"if {index} < 0 or {index} >= len({store}):")
            self.fault(
                f'f"{kind} out of bounds: '
                f'{name_frag}[{{{index}}}] (size {{len({store})}})"',
                "    ",
            )

    def fault(self, message: str, extra: str = "") -> None:
        """Buffer a ``RuntimeFault`` of the function's own: the clock
        goes back to the interpreter first, since nothing below the
        raise will."""
        self.buf.append(extra + self.g.write_back)
        self.buf.append(f"{extra}raise __RF({message})")

    # -- segment charging ----------------------------------------------------

    def close_segment(self, new_check: Optional[Tuple[str, int]] = None) -> None:
        """Emit the pending charge block, then the buffered op lines.

        When a CALL preceded this segment (``pending_check``), the
        charge is guarded by a conservative remaining-budget test: if
        the rest of the chain's linear body might not fit, raise to the
        function's write-back, anchored at the instruction after the
        CALL in the call's block.
        """
        out = self.lines
        ind = self.indent
        count, cycles = self.seg_count, self.seg_cycles
        loads = self.seg_loads
        check = self.pending_check
        if check is not None and count:
            bname, index = check
            remaining = self.total - self.charged
            out.append(f"{ind}if __ic + {remaining} > __limit:")
            out.append(f"{ind}    raise __OB({bname!r}, {index})")
            self.pending_check = None
        if count:
            out.append(f"{ind}__ic += {count}")
        if cycles:
            out.append(f"{ind}__cy += {cycles}")
        if loads:
            out.append(f"{ind}__lc += {loads}")
        out.extend(ind + line for line in self.buf)
        self.buf = []
        self.charged += count
        self.seg_count = 0
        self.seg_cycles = 0
        self.seg_loads = 0
        if new_check is not None:
            self.pending_check = new_check

    # -- exits ---------------------------------------------------------------

    def exit_lines(self, target: str, extra: str, cur_name: str) -> None:
        """Leave the chain towards ``target`` (always a chain head)."""
        out = self.lines
        ind = self.indent + extra
        if self.loop_form and target == self.chain[0]:
            # Back edge: announce the head re-entry (if observed), then the
            # next iteration re-charges the full linear body, so
            # re-check it; over budget -> raise, anchored at the head,
            # so the walker finishes the activation (it does not
            # re-announce the block it resumes in, so the hook order
            # stays exact).  Registers stay in their locals across the
            # iteration: only the over-budget exit flushes them.
            self.emit_entry(cur_name, target, extra)
            out.append(f"{ind}if __ic + {self.total} > __limit:")
            out.append(f"{ind}    raise __OB({target!r}, 0)")
            out.append(f"{ind}continue")
            return
        if target not in self.blocks:
            # Dangling branch target: KeyError, like the walker's
            # func.blocks[name] lookup (which fires before any hook).
            out.append(f"{ind}__fb[{target!r}]")
            return
        self.emit_entry(cur_name, target, extra)
        # Chain transition: locals carry over, no flush -- just move
        # the dispatch loop to the target arm.  `continue` targets the
        # dispatch loop directly; loop-form arms `break` out of their
        # inner iteration loop and fall through to it.
        out.append(f"{ind}st = {self.sb_index[target]}")
        out.append(f"{ind}{'break' if self.loop_form else 'continue'}")

    # -- instruction emission ------------------------------------------------

    def emit_op(self, instr: Instruction, nxt: Optional[Instruction]) -> int:
        """Emit one non-terminator op (or a fused pair); returns the
        number of instructions consumed."""
        g = self.g
        buf = self.buf
        op = instr.opcode

        # LEA/PTRADD + LOADP/STOREP pair fusion: the intermediate
        # pointer register is consumed exactly once, by the next op.
        if (
            op in (Opcode.LEA, Opcode.PTRADD)
            and instr.dest is not None
            and nxt is not None
            and nxt.opcode in (Opcode.LOADP, Opcode.STOREP)
            and isinstance(nxt.args[0], VReg)
            and nxt.args[0].uid == instr.dest.uid
            and g.uses.get(instr.dest.uid, 0) == 1
        ):
            self.emit_pair(instr, nxt)
            return 2

        if op is Opcode.MOV:
            self.charge_op(instr)
            expr = self.read(instr.args[0])
            buf.append(f"{self.wreg(instr.dest)} = {expr}")
            return 1

        handler = _BINARY_HANDLERS.get(op)
        if handler is not None:
            self.charge_op(instr)
            a_op, b_op = instr.args
            # compare + CBR fusion: skip the register store, stash the
            # condition expression for the terminator.
            if (
                op in _CMP_OPS
                and nxt is not None
                and nxt.opcode is Opcode.CBR
                and isinstance(nxt.args[0], VReg)
                and nxt.args[0].uid == instr.dest.uid
                and g.uses.get(instr.dest.uid, 0) == 1
            ):
                a = self.read(a_op)
                b = self.read(b_op)
                self.pending_cond = f"{a} {_CMP_OPS[op]} {b}"
                g.specialized += 1
                return 1
            if isinstance(a_op, Const) and isinstance(b_op, Const):
                try:
                    value = handler(a_op.value, b_op.value)
                except Exception:
                    value = None
                else:
                    lit = _literal(value)
                    if lit is not None:
                        buf.append(f"{self.wreg(instr.dest)} = {lit}")
                        g.specialized += 1
                        return 1
            a = self.read(a_op)
            b = self.read(b_op)
            dest = self.wreg(instr.dest)
            if op in _CMP_OPS:
                buf.append(f"{dest} = 1 if {a} {_CMP_OPS[op]} {b} else 0")
            elif op in _ARITH_OPS:
                # The walker computes first (so TypeError provenance is
                # identical), then wraps int results.  Wrapping is the
                # identity on in-range ints -- and in-range floats pass
                # through the walker unwrapped too -- so a two-compare
                # range test covers almost every result and the
                # isinstance + three-op wrap only runs on 64-bit
                # overflow (or non-finite floats, which fail both
                # comparisons and fall through unchanged).
                t = self.tmp()
                buf.append(f"{t} = {a} {_ARITH_OPS[op]} {b}")
                buf.append(
                    f"{dest} = {t} if (-{_O}) <= {t} < {_O} else "
                    f"({_wrap(t)}) if isinstance({t}, int) else {t}"
                )
            elif op in _BIT_OPS:
                # Bit ops are int-only in the walker (wrap always):
                # in-range results skip the wrap entirely.
                t = self.tmp()
                buf.append(f"{t} = {a} {_BIT_OPS[op]} {b}")
                buf.append(
                    f"{dest} = {t} if (-{_O}) <= {t} < {_O} else {_wrap(t)}"
                )
            elif op in (Opcode.DIV, Opcode.MOD):
                # C-style truncated div/mod inlines for an integer
                # dividend when the divisor is a positive int constant:
                # the quotient's magnitude is |a|//b with the dividend's
                # sign (c_div/c_mod), it can never overflow or divide by
                # zero, and every other operand shape (floats, bools,
                # pointers, zero/negative divisors) falls back to the
                # walker's generic helper with identical faults.
                py = "//" if op is Opcode.DIV else "%"
                fn = "__div" if op is Opcode.DIV else "__mod"
                if (
                    isinstance(b_op, Const)
                    and type(b_op.value) is int
                    and b_op.value > 0
                ):
                    buf.append(
                        f"{dest} = ({a} {py} {b} if {a} >= 0 "
                        f"else -(-{a} {py} {b})) "
                        f"if type({a}) is int else {fn}({a}, {b})"
                    )
                    g.specialized += 1
                else:
                    # Runtime divisor: guard the same positive-int
                    # fast path dynamically; zero, negative, float and
                    # bool operands all take the walker's helper with
                    # identical faults.
                    # The helper's zero-divisor fault is the one
                    # fault of this function raised below it, so the
                    # clock goes back before the call that will raise.
                    bn = self.as_name(b)
                    buf.append(
                        f"if type({a}) is int and type({bn}) is int "
                        f"and {bn} > 0:"
                    )
                    buf.append(
                        f"    {dest} = {a} {py} {bn} if {a} >= 0 "
                        f"else -(-{a} {py} {bn})"
                    )
                    buf.append("else:")
                    buf.append(f"    if {bn} == 0:")
                    buf.append(f"        {g.write_back}")
                    buf.append(f"    {dest} = {fn}({a}, {bn})")
            else:  # SHL / SHR
                buf.append(f"if {b} < 0 or {b} > 63:")
                self.fault(f'f"shift amount {{{b}}} out of range"', "    ")
                if op is Opcode.SHL:
                    t = self.tmp()
                    buf.append(f"{t} = {a} << {b}")
                    buf.append(
                        f"{dest} = {t} if (-{_O}) <= {t} < {_O} "
                        f"else {_wrap(t)}"
                    )
                else:
                    buf.append(f"{dest} = {a} >> {b}")
            return 1

        fold = _UNARY_HANDLERS.get(op)
        if fold is not None:
            self.charge_op(instr)
            a_op = instr.args[0]
            if isinstance(a_op, Const):
                try:
                    lit = _literal(fold(a_op.value))
                except Exception:
                    lit = None
                if lit is not None:
                    buf.append(f"{self.wreg(instr.dest)} = {lit}")
                    g.specialized += 1
                    return 1
            a = self.read(a_op)
            dest = self.wreg(instr.dest)
            if op is Opcode.NEG:
                # Same range-test fast path as the binary arith ops
                # (negating an int yields an int, a float a float, so
                # testing the result matches the walker's operand test).
                t = self.tmp()
                buf.append(f"{t} = -{a}")
                buf.append(
                    f"{dest} = {t} if (-{_O}) <= {t} < {_O} else "
                    f"({_wrap(t)}) if isinstance({t}, int) else {t}"
                )
            elif op is Opcode.NOT:
                buf.append(f"{dest} = 1 if {a} == 0 else 0")
            elif op is Opcode.ITOF:
                buf.append(f"{dest} = float({a})")
            else:  # FTOI
                buf.append(f"{dest} = {_wrap(f'int({a})')}")
            return 1

        if op is Opcode.LEA:
            self.charge_op(instr)
            sym = instr.args[0]
            idx_op = instr.args[1]
            store = g.interp.memory.get(sym.name) if sym.is_global else None
            if store is not None and isinstance(idx_op, Const):
                pointer = g.pointer_for(store, idx_op.value, sym.name)
                buf.append(f"{self.wreg(instr.dest)} = {pointer}")
                g.specialized += 1
                return 1
            index = self.read(idx_op)
            region, _size = self.store_ref(sym)
            buf.append(
                f"{self.wreg(instr.dest)} = __Ptr({region}, {index}, "
                f"{sym.name!r})"
            )
            return 1

        if op is Opcode.PTRADD:
            self.charge_op(instr)
            ptr = self.read(instr.args[0])
            delta = self.read(instr.args[1])
            p = self.as_name(ptr)
            buf.append(f"if not isinstance({p}, __Ptr):")
            self.fault(f'f"PTRADD on non-pointer {{{p}!r}}"', "    ")
            buf.append(
                f"{self.wreg(instr.dest)} = "
                f"__Ptr({p}.store, {p}.base + {delta}, {p}.region)"
            )
            return 1

        if op is Opcode.LOADG or op is Opcode.STOREG:
            self.charge_op(instr)
            sym = instr.args[0]
            kind = "load" if op is Opcode.LOADG else "store"
            index = self.read(instr.args[1])
            value = self.read(instr.args[2]) if op is Opcode.STOREG else None
            region, size = self.store_ref(sym)
            idx_op = instr.args[1]
            if size is not None and isinstance(idx_op, Const) and not isinstance(
                idx_op.value, bool
            ) and isinstance(idx_op.value, int):
                # Statically decidable bounds: elide the check, or fault
                # unconditionally with the walker's exact message.
                if 0 <= idx_op.value < size:
                    g.specialized += 1
                else:
                    msg = (
                        f"{kind} out of bounds: {sym.name}[{idx_op.value}] "
                        f"(size {size})"
                    )
                    self.fault(repr(msg))
                    return 1
            else:
                self.bounds(kind, g.fstr_name(sym.name), index, region, size)
            if op is Opcode.LOADG:
                buf.append(f"{self.wreg(instr.dest)} = {region}[{index}]")
            else:
                buf.append(f"{region}[{index}] = {value}")
            return 1

        if op is Opcode.LOADP or op is Opcode.STOREP:
            self.charge_op(instr)
            kind = "load" if op is Opcode.LOADP else "store"
            opname = "LOADP" if op is Opcode.LOADP else "STOREP"
            ptr = self.read(instr.args[0])
            index = self.read(instr.args[1])
            value = self.read(instr.args[2]) if op is Opcode.STOREP else None
            p = self.as_name(ptr)
            buf.append(f"if not isinstance({p}, __Ptr):")
            self.fault(f'f"{opname} on non-pointer {{{p}!r}}"', "    ")
            slot = self.tmp()
            buf.append(f"{slot} = {p}.base + {index}")
            store = self.tmp()
            buf.append(f"{store} = {p}.store")
            self.bounds(kind, f"{{{p}.region}}", slot, store, None)
            if op is Opcode.LOADP:
                buf.append(f"{self.wreg(instr.dest)} = {store}[{slot}]")
            else:
                buf.append(f"{store}[{slot}] = {value}")
            return 1

        if op is Opcode.CALL:
            self.charge_op(instr)
            args = [self.read(a) for a in instr.args]
            callee = g.interp.module.functions.get(instr.callee)
            arglist = ", ".join(args)
            if callee is not None:
                fn = g.bind("fn", callee, ("fn", instr.callee))
                call = f"__call({fn}, [{arglist}])"
            else:
                # Unknown callee: KeyError at execution, like the walker.
                call = (
                    f"__call(__i.module.functions[{instr.callee!r}], "
                    f"[{arglist}])"
                )
            # The callee charges through the interpreter: hand it the
            # clock and take it back (a callee that raises has written
            # its own, so nothing is written on the way out).
            buf.append(g.write_back)
            if instr.dest is not None:
                buf.append(f"{self.wreg(instr.dest)} = {call}")
            else:
                buf.append(call)
            buf.append(g.reload)
            return 1

        if op is Opcode.PRINT:
            self.charge_op(instr)
            expr = self.read(instr.args[0])
            buf.append(f"__i.output.append(__fmt({expr}))")
            return 1

        if op in _SYNC_OPS:
            # Timing-only in the fast variant: charge, no effect.  (The
            # hooked emitter intercepts these in render() and routes
            # them through exec_sync/exec_xfer at a segment boundary.)
            self.charge_op(instr)
            return 1

        # Verifier-rejected shapes: fault at execution, like the walker.
        self.charge_op(instr)  # pragma: no cover - defensive
        self.fault(repr(f"cannot execute opcode {op}"))
        return 1

    def emit_pair(self, first: Instruction, second: Instruction) -> None:
        """Fused LEA/PTRADD + LOADP/STOREP: the Pointer is never built."""
        g = self.g
        buf = self.buf
        self.charge_op(first)
        self.charge_op(second)
        g.specialized += 2
        kind = "load" if second.opcode is Opcode.LOADP else "store"
        if first.opcode is Opcode.LEA:
            sym = first.args[0]
            base = self.read(first.args[1])
            region, size = self.store_ref(sym)
            index = self.read(second.args[1])
            value = (
                self.read(second.args[2])
                if second.opcode is Opcode.STOREP
                else None
            )
            slot = self.tmp()
            buf.append(f"{slot} = {base} + {index}")
            self.bounds(kind, g.fstr_name(sym.name), slot, region, size)
            if second.opcode is Opcode.LOADP:
                buf.append(f"{self.wreg(second.dest)} = {region}[{slot}]")
            else:
                buf.append(f"{region}[{slot}] = {value}")
            return
        # PTRADD + LOADP/STOREP
        ptr = self.read(first.args[0])
        delta = self.read(first.args[1])
        p = self.as_name(ptr)
        buf.append(f"if not isinstance({p}, __Ptr):")
        self.fault(f'f"PTRADD on non-pointer {{{p}!r}}"', "    ")
        index = self.read(second.args[1])
        value = (
            self.read(second.args[2])
            if second.opcode is Opcode.STOREP
            else None
        )
        slot = self.tmp()
        buf.append(f"{slot} = {p}.base + {delta} + {index}")
        store = self.tmp()
        buf.append(f"{store} = {p}.store")
        self.bounds(kind, f"{{{p}.region}}", slot, store, None)
        if second.opcode is Opcode.LOADP:
            buf.append(f"{self.wreg(second.dest)} = {store}[{slot}]")
        else:
            buf.append(f"{store}[{slot}] = {value}")

    # -- terminators ---------------------------------------------------------

    def emit_terminator(
        self, instr: Instruction, next_name: Optional[str], cur_name: str
    ) -> None:
        op = instr.opcode
        self.seg_count += 1
        self.seg_cycles += self.g.cost(instr)
        if op is Opcode.RET:
            self.close_segment()
            if instr.args:
                expr = self.read(instr.args[0])
                self.flush_buf()
                self.emit(f"frame.ret = {expr}")
            # Slots die with the frame on RET: only the clock goes back.
            self.emit(self.g.write_back)
            self.emit("return None")
            return
        if op is Opcode.BR:
            target = instr.targets[0]
            if target == next_name:
                # Fused fallthrough: the charge folds into the running
                # segment and no control flow is emitted at all, unless
                # the target is observed -- its hook must see counters
                # through this BR, so the segment closes here.
                if self.observed(cur_name, target):
                    self.close_segment()
                self.emit_entry(cur_name, target)
                return
            self.close_segment()
            self.exit_lines(target, "", cur_name)
            return
        # CBR
        self.close_segment()
        cond_op = instr.args[0]
        if self.pending_cond is not None:
            cond = self.pending_cond
            self.pending_cond = None
            self.flush_buf()
        elif isinstance(cond_op, Const):
            taken = instr.targets[0] if cond_op.value != 0 else instr.targets[1]
            self.g.specialized += 1
            if taken != next_name:
                self.exit_lines(taken, "", cur_name)
            else:
                self.emit_entry(cur_name, taken)
            return
        else:
            expr = self.read(cond_op)
            self.flush_buf()
            cond = f"{expr} != 0"
        t0, t1 = instr.targets[0], instr.targets[1]
        if t0 == next_name:
            self.emit(f"if not ({cond}):")
            self.exit_lines(t1, "    ", cur_name)
            self.emit_entry(cur_name, t0)
        elif t1 == next_name:
            self.emit(f"if {cond}:")
            self.exit_lines(t0, "    ", cur_name)
            self.emit_entry(cur_name, t1)
        else:
            self.emit(f"if {cond}:")
            self.exit_lines(t0, "    ", cur_name)
            self.exit_lines(t1, "", cur_name)

    # -- chain rendering -----------------------------------------------------

    def render(self) -> List[str]:
        g = self.g
        base = self.base
        # Arm entry: the whole linear body must fit the budget or the
        # walker finishes the activation from the chain head (flush
        # first: when entered via a transition, locals are the only
        # current copy of the registers).
        head = [
            f"{base}if __ic + {self.total} > __limit:",
            f"{base}    raise __OB({self.chain[0]!r}, 0)",
        ]
        if self.loop_form:
            head.append(f"{base}while True:")
        for pos, name in enumerate(self.chain):
            block = self.blocks[name]
            # Interior blocks have one predecessor, the fused edge, so
            # what is proven for the chain so far stays proven.
            self.proven |= g.defined_at.get(name, frozenset())
            next_name = self.chain[pos + 1] if pos + 1 < len(self.chain) else None
            instructions = block.instructions
            terminated = False
            i = 0
            while i < len(instructions):
                instr = instructions[i]
                if instr.is_terminator:
                    self.emit_terminator(instr, next_name, name)
                    terminated = True
                    break
                nxt = instructions[i + 1] if i + 1 < len(instructions) else None
                if self.hooked and instr.opcode in _SYNC_OPS:
                    # Charge through the op, then run the hook with
                    # exact counters.
                    self.charge_op(instr)
                    self.close_segment()
                    meth = (
                        "exec_xfer"
                        if instr.opcode is Opcode.XFER
                        else "exec_sync"
                    )
                    ins = g.bind("ins", instr, ("ins", [name, i]))
                    self.emit_call_out(f"__i.{meth}(frame, {ins})")
                    i += 1
                    continue
                consumed = self.emit_op(instr, nxt)
                if instr.opcode is Opcode.CALL:
                    # The callee consumed budget: re-check before the
                    # next charge, resuming after the CALL if short.
                    self.close_segment(new_check=(name, i + 1))
                i += consumed
            if not terminated:
                msg = f"block {name} fell through without terminator"
                self.fault(repr(msg))
                self.close_segment()
        return head + self.lines


# -- artifact instantiation ---------------------------------------------------


def _vreg_map(func: Function) -> Dict[int, VReg]:
    """uid -> VReg over everything the function mentions."""
    vregs: Dict[int, VReg] = {}
    for param in func.params:
        vregs[param.uid] = param
    for block in func.blocks.values():
        for instr in block.instructions:
            if instr.dest is not None:
                vregs[instr.dest.uid] = instr.dest
            for arg in instr.args:
                if isinstance(arg, VReg):
                    vregs[arg.uid] = arg
    return vregs


def _resolve_bind(interp, func: Function, vregs, kind, spec):
    """Rebuild one namespace binding from its artifact recipe."""
    if kind == "c" or kind == "nm":
        return spec
    if kind == "bc":
        return _entry_cell(interp, func, spec)
    if kind == "vr":
        return vregs[spec]
    if kind == "st":
        return interp.memory[spec]
    if kind == "ptr":
        name, base = spec
        return Pointer(interp.memory[name], base, name)
    if kind == "fn":
        return interp.module.functions[spec]
    if kind == "bb":
        return func.blocks[spec]
    if kind == "ins":
        bname, index = spec
        return func.blocks[bname].instructions[index]
    if kind == "sym":
        sym = interp.module.globals.get(spec)
        if sym is None:
            sym = func.locals[spec]
        return sym
    raise KeyError(f"unknown bind kind {kind!r}")


def _instantiate(
    interp, func: Function, hook_spec: _HookSpec, payload: dict
) -> Optional[SuperblockFunction]:
    """Replay a cached compile against a live interpreter, or None when
    the payload does not fit this function/interpreter (caller falls
    back to a fresh build)."""
    if (
        payload.get("codegen") != CODEGEN_VERSION
        or payload.get("function") != func.name
        or bool(payload.get("hooked")) != hook_spec.hooked
        or bool(payload.get("count_loads")) != hook_spec.count_loads
    ):
        return None
    chains = [list(chain) for chain in payload["chains"]]
    flat = [name for chain in chains for name in chain]
    if sorted(flat) != sorted(func.blocks):
        return None
    slot_map = allocate_slots(func)
    if payload["nslots"] != len(slot_map) or payload["param_slots"] != [
        slot_map[param.uid] for param in func.params
    ]:
        return None
    ns = _base_namespace(interp, func)
    sblocks: Dict[str, Superblock] = {}
    for chain, max_instructions in zip(chains, payload["max_instructions"]):
        sb = Superblock()
        sb.head = chain[0]
        sb.chain = tuple(chain)
        sb.max_instructions = max_instructions
        sblocks[chain[0]] = sb
    vregs: Optional[Dict[int, VReg]] = None
    for name, kind, spec in payload["binds"]:
        if kind == "vr" and vregs is None:
            vregs = _vreg_map(func)
        ns[name] = _resolve_bind(interp, func, vregs, kind, spec)
    source = payload["source"]
    code = None
    if payload.get("cache_tag") == _CACHE_TAG and payload.get("bytecode"):
        try:
            code = marshal.loads(base64.b64decode(payload["bytecode"]))
        except Exception:
            code = None
    if code is None:
        code = compile(source, f"<superblocks:{func.name}>", "exec")
    exec(code, ns)
    return SuperblockFunction(
        func,
        slot_map,
        sblocks[func.entry.name],
        sblocks,
        ns["__sb"],
        source,
        hook_spec.hooked,
        hook_spec.count_loads,
        tuple(payload["hook_sites"]),
        tuple(payload["undef_checks"]),
    )


def artifact_key(interp, func: Function, hooked: bool,
                 count_loads: bool) -> str:
    """Content address of one function's generated code.

    Covers everything the emitted source can embed as a literal: the
    codegen layout version, the function's printed IR (opcodes,
    operands, local sizes), the hook flags and the watched edges
    the interpreter declares for the function (which boundaries call
    the hook, which count, which fuse), the module's global-region
    sizes and known-function set, the cost model (cycle charges are
    literals in the source) and the block-profile projection for this
    function (chain formation is trace guided).  Machine fields the
    source never sees -- core counts, latencies -- are deliberately
    excluded, so jobs differing only in those share warm codegen.
    """
    return _artifact_key(
        interp, func, _hook_spec(interp, func, hooked, count_loads)
    )


def _artifact_key(interp, func: Function, hook_spec: _HookSpec) -> str:
    from repro.ir.printer import function_to_str

    cost_model = interp.cost_model
    profile = interp.block_profile
    projection = None
    if profile:
        fname = func.name
        projection = sorted(
            (block, count)
            for (owner, block), count in profile.items()
            if owner == fname
        )
    spec = {
        "codegen": CODEGEN_VERSION,
        "ir": function_to_str(func),
        "hooked": hook_spec.hooked,
        "count_loads": hook_spec.count_loads,
        "watched": (
            None
            if hook_spec.watched is None
            else sorted(map(list, hook_spec.watched))
        ),
        "count_unwatched": hook_spec.count_unwatched,
        "globals": sorted(
            (name, len(init))
            for name, init in interp.module.global_inits.items()
        ),
        "functions": sorted(interp.module.functions),
        "costs": sorted(
            (opcode.value, cycles)
            for opcode, cycles in cost_model.costs.items()
        ),
        "float_extra": cost_model.float_extra,
        "profile": projection,
    }
    blob = json.dumps(spec, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# -- entry points -------------------------------------------------------------


def compile_superblocks(
    interp,
    func: Function,
    hooked: bool = False,
    count_loads: bool = False,
) -> SuperblockFunction:
    """Form, generate and compile all superblocks of ``func``.

    With ``hooked=True`` the generated chains call ``exec_sync`` /
    ``exec_xfer`` at the tree walker's observation points and
    ``on_block_entry`` on the edges
    ``interp.watched_edges(func)`` declares -- every edge by default
    -- (and statically count loads when ``count_loads`` is set, and
    unwatched entries when ``interp.count_unwatched`` is).  When the
    interpreter carries a ``codegen_cache``, the compile is
    content-addressed: a warm hit replays the stored source and
    namespace manifest and skips formation, rendering and (when the
    Python version matches) ``compile()`` entirely.
    """
    hook_spec = _hook_spec(interp, func, hooked, count_loads)
    cache = getattr(interp, "codegen_cache", None)
    sfunc = None
    if cache is not None:
        key = _artifact_key(interp, func, hook_spec)
        payload = cache.load(CODEGEN_KIND, key)
        if payload is not None:
            try:
                sfunc = _instantiate(interp, func, hook_spec, payload)
            except Exception:
                sfunc = None
        REGISTRY.inc(
            "interp.codegen.cache.miss"
            if sfunc is None
            else "interp.codegen.cache.hit"
        )
    if sfunc is None:
        gen = _FunctionCodegen(interp, func, hook_spec)
        sfunc = gen.build()
        if cache is not None:
            cache.store(CODEGEN_KIND, key, gen.artifact(sfunc))
    emitted, elided = sfunc.undef_checks
    REGISTRY.inc("interp.codegen.undef_checks", emitted)
    REGISTRY.inc("interp.codegen.undef_checks_elided", elided)
    if hooked:
        emitted, elided = sfunc.hook_sites
        REGISTRY.inc("interp.superblock.hooked")
        REGISTRY.inc("interp.codegen.hook_sites", emitted)
        REGISTRY.inc("interp.codegen.hook_sites_elided", elided)
    return sfunc


def execute_superblocks(interp, sfunc: SuperblockFunction, args) -> object:
    """Run one activation of ``sfunc`` on ``args`` and return its value.

    In the hooked tier the activation-entry ``on_block_entry(frame,
    None, entry)`` is made here; every later boundary hook lives
    inside the generated code.  The whole activation -- chain dispatch
    included -- runs inside the single generated function; a chain is
    only entered, iterated or continued past a CALL while the remaining
    instruction budget covers the rest of its linear body, otherwise
    ``run`` writes the register locals back and returns the anchor of
    the failed check.  The tree walker then finishes the activation from
    there, on the same frame and without re-announcing the block it
    resumes in, so ``ExecutionLimitExceeded`` fires at precisely the
    walker's dynamic instruction.
    """
    frame = SlotFrame(sfunc.func, sfunc.nslots)
    slots = frame.slots
    for slot, value in zip(sfunc.param_slots, args):
        slots[slot] = value
    limit = interp.max_instructions
    if limit is None:
        limit = _INF
    if sfunc.hooked:
        interp.on_block_entry(frame, None, sfunc.func.entry)
    anchor = sfunc.run(frame, limit, 0)
    if anchor is None:
        return frame.ret
    REGISTRY.inc("interp.superblock.fallbacks")
    name, index = anchor
    frame.regs = {
        uid: slots[slot]
        for uid, slot in sfunc.slot_map.items()
        if slots[slot] is not _UNDEF
    }
    return interp._walk(frame, sfunc.func.blocks[name], index)
