"""Sequential IR interpreter with a cycle cost model.

The interpreter provides three services:

* **Functional execution** -- running MiniC programs (compiled to IR) to
  produce observable output; this is the correctness oracle used to check
  that HELIX-parallelized code computes exactly what the sequential code
  does.
* **Cycle accounting** -- every dynamic instruction is charged its
  :class:`~repro.runtime.machine.CostModel` cost, giving the sequential
  baseline times of the evaluation.
* **Hooks** -- block-transition and call events that the profiler
  (:mod:`repro.runtime.profiler`) and the parallel executor
  (:mod:`repro.runtime.parallel`) build on.

Integer semantics are C-like: 64-bit two's-complement wrap-around,
truncating division.  This keeps benchmark programs (hash functions, RNGs)
deterministic and portable.

Two execution tiers share these semantics (selected per activation by
:meth:`Interpreter.call_function`):

* the **tree-walker** in this module -- simple, hookable everywhere, the
  oracle every other tier is checked against, and the tier that
  finishes any activation the generated code hands back;
* the **superblock backend** (:mod:`repro.runtime.codegen`) -- basic
  blocks are fused into single-entry superblocks and all superblocks of
  a function are code-generated into one compiled Python function.

Selection is automatic and always bit-identical to the tree-walker:
uninstrumented runs use the superblock backend, hook users (profiler,
parallel executor) its hooked tier -- which calls ``on_block_entry``
on every block-to-block edge, or only on the ones
:meth:`Interpreter.watched_edges` declares --, while listener users and
subclasses that override ``exec_instr``-level methods run on the
tree-walker.  When the instruction budget could expire inside a fused
region, generated code hands its activation, frame and all, to the
walker at the instruction it stopped before (:meth:`Interpreter._walk`),
so the limit fires exactly where the walker alone would fire it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.ir import BasicBlock, Function, Instruction, Module, Opcode
from repro.ir.operands import Const, Operand, Symbol, VReg
from repro.ir.types import Type
# Stdlib-only counter registry; deliberately not the repro.obs package
# root, which would pull the exporters into the interpreter's imports.
from repro.obs.metrics import REGISTRY
from repro.runtime.machine import MachineConfig

_INT_MASK = (1 << 64) - 1
_INT_SIGN = 1 << 63


def wrap_int(value: int) -> int:
    """Wrap a Python int to 64-bit two's complement."""
    value &= _INT_MASK
    if value & _INT_SIGN:
        value -= 1 << 64
    return value


def c_div(a: int, b: int) -> int:
    """C-style integer division (truncates toward zero)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def c_mod(a: int, b: int) -> int:
    """C-style remainder (sign of the dividend)."""
    return a - c_div(a, b) * b


class RuntimeFault(Exception):
    """A dynamic error: division by zero, out-of-bounds access, bad pointer."""


class ExecutionLimitExceeded(RuntimeFault):
    """The instruction budget was exhausted (probable infinite loop)."""


class Pointer:
    """A runtime pointer: a memory region plus an element offset."""

    __slots__ = ("store", "base", "region")

    def __init__(self, store: List, base: int, region: str) -> None:
        self.store = store
        self.base = base
        #: Region name, for diagnostics only.
        self.region = region

    def offset(self, delta: int) -> "Pointer":
        return Pointer(self.store, self.base + delta, self.region)

    def read(self, index: int):
        slot = self.base + index
        if slot < 0 or slot >= len(self.store):
            raise RuntimeFault(
                f"load out of bounds: {self.region}[{slot}] (size {len(self.store)})"
            )
        return self.store[slot]

    def write(self, index: int, value) -> None:
        slot = self.base + index
        if slot < 0 or slot >= len(self.store):
            raise RuntimeFault(
                f"store out of bounds: {self.region}[{slot}] (size {len(self.store)})"
            )
        self.store[slot] = value

    def __repr__(self) -> str:
        return f"<ptr {self.region}+{self.base}>"


@dataclass
class Frame:
    """One function activation: registers and frame-local array storage."""

    func: Function
    regs: Dict[int, object] = field(default_factory=dict)
    local_mem: Dict[str, List] = field(default_factory=dict)

    def local_region(self, symbol: Symbol) -> List:
        store = self.local_mem.get(symbol.name)
        if store is None:
            zero = 0.0 if symbol.elem_type is Type.FLOAT else 0
            store = [zero] * symbol.size
            self.local_mem[symbol.name] = store
        return store


@dataclass
class ExecutionResult:
    """Outcome of a program run."""

    output: List[str]
    cycles: int
    instructions: int
    return_value: object = None

    @property
    def output_text(self) -> str:
        return "\n".join(self.output)

    def to_dict(self) -> dict:
        """JSON-stable representation for the evaluation disk cache.

        ``return_value`` must be JSON-representable (int/float/str/None);
        entry points of the benchmark suite only ever return those.
        """
        return {
            "output": list(self.output),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "return_value": self.return_value,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionResult":
        return cls(
            output=list(data["output"]),
            cycles=data["cycles"],
            instructions=data["instructions"],
            return_value=data.get("return_value"),
        )


def format_value(value) -> str:
    """Canonical rendering of a printed value (the oracle format)."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


#: Overriding any of these (class- or instance-level) disables the
#: generated tier: its code fuses exactly this logic, so a replacement
#: must run on the tree-walker to take effect.
_TREE_FORCING = frozenset(
    {"exec_block", "exec_instr", "eval_operand", "eval_terminator", "charge"}
)

#: Overriding any of these selects the generated tier's *hooked*
#: variant, which calls them at the same points as the tree-walker.
_HOOK_FORCING = frozenset({"on_block_entry", "exec_sync", "exec_xfer"})

#: Backend modes resolved per activation.
_BACKEND_TREE, _BACKEND_SUPER, _BACKEND_HOOKED_SUPER = 0, 1, 2

#: Registry counter names, indexed by backend mode.
_BACKEND_COUNTERS = (
    "interp.backend.tree",
    "interp.backend.superblock",
    "interp.backend.hooked_superblock",
)


class Interpreter:
    """Executes a :class:`~repro.ir.Module` sequentially.

    Subclasses (the parallel executor) may override :meth:`on_block_entry`
    to observe control flow, and reuse :meth:`exec_instr` /
    :meth:`eval_operand` to execute individual instructions.

    ``backend`` selects the execution engine: ``"auto"`` (default) uses
    the superblock backend for uninstrumented runs and its *hooked* tier
    for hook/``count_loads`` users, and tree-walks listener-bearing runs
    and subclasses that override core execution methods; ``"tree"``
    always tree-walks, while ``"superblock"`` asserts that the generated
    tier is usable (raising ``ValueError`` for subclasses that override
    core execution methods).

    ``block_profile`` optionally supplies dynamic block-entry counts
    keyed ``(function name, block name)`` (the shape of
    :attr:`repro.runtime.profiler.ProfileData.block_counts`); the
    superblock backend uses them for trace-guided chain formation --
    hot blocks seed chains first and hot CBR arms are fused.  Purely a
    performance hint -- never affects semantics.

    ``codegen_cache`` optionally supplies an artifact store (any object
    with ``load(kind, key)`` / ``store(kind, key, payload)``, in
    practice :class:`repro.artifacts.ArtifactStore`); the superblock
    tiers content-address their generated code through it so warm runs
    skip codegen (see :mod:`repro.runtime.codegen`).
    """

    def __init__(
        self,
        module: Module,
        machine: Optional[MachineConfig] = None,
        max_instructions: Optional[int] = 500_000_000,
        backend: str = "auto",
        block_profile: Optional[Mapping[Tuple[str, str], int]] = None,
        codegen_cache=None,
    ) -> None:
        if backend not in ("auto", "superblock", "tree"):
            raise ValueError(f"unknown interpreter backend {backend!r}")
        self.module = module
        self.machine = machine or MachineConfig()
        self.cost_model = self.machine.cost_model
        self.max_instructions = max_instructions
        self.memory: Dict[str, List] = {}
        self.output: List[str] = []
        self.cycles = 0
        self.instructions = 0
        self.call_depth = 0
        # Each IR-level call nests a few Python frames; keep the guest
        # limit comfortably under CPython's recursion limit so runaway
        # recursion surfaces as a clean RuntimeFault.
        self.max_call_depth = 200
        #: Optional hooks; see the profiler for usage.
        self.block_listener: Optional[
            Callable[[str, Optional[str], str, int], None]
        ] = None
        self.call_listener: Optional[Callable[[str, bool, int], None]] = None
        #: Count LOADG/LOADP executions into :attr:`load_count` (the
        #: parallel executor prices data forwarding from this).
        self.count_loads = False
        self.load_count = 0
        #: Count the block entries a declared :meth:`watched_edges` set
        #: keeps from :meth:`on_block_entry` into
        #: :attr:`unwatched_entries`: ``(function, block)`` -> a
        #: one-element cell the generated code bumps in place.  Only the
        #: generated tier elides hook calls, so only it ever counts here;
        #: an observer that needs every entry adds these to the entries
        #: its hook saw (the profiler does).
        self.count_unwatched = False
        self.unwatched_entries: Dict[Tuple[str, str], List[int]] = {}
        self.backend = backend
        self.block_profile = dict(block_profile) if block_profile else None
        #: Optional content-addressed store for generated superblock
        #: code; duck-typed so the runtime layer never imports the
        #: evaluation layer (see repro.artifacts.ArtifactStore).
        self.codegen_cache = codegen_cache
        cls = type(self)
        core_overrides = sorted(
            name
            for name in _TREE_FORCING
            if getattr(cls, name) is not getattr(Interpreter, name)
        )
        core_overridden = bool(core_overrides)
        if backend == "superblock" and core_overridden:
            raise ValueError(
                f"{cls.__name__} overrides core execution methods "
                f"({', '.join(core_overrides)}); the {backend} backend "
                "cannot honor them"
            )
        self._force_tree = backend == "tree" or core_overridden
        self._class_hooked = any(
            getattr(cls, name) is not getattr(Interpreter, name)
            for name in _HOOK_FORCING
        )
        # Both compiled caches key on ``Function.version`` alongside the
        # name: IR mutation bumps the version, so a post-mutation
        # activation can never execute stale generated code.
        #: (name, version) -> SuperblockFunction (uninstrumented tier).
        self._superblocks: Dict[Tuple[str, int], object] = {}
        #: (name, version, counting loads, counting unwatched entries)
        #: -> hooked SuperblockFunction.
        self._hooked_superblocks: Dict[
            Tuple[str, int, bool, bool], object
        ] = {}
        # Imported here (not at module top) to break the import cycle;
        # by construction time repro.runtime is fully initialized.
        from repro.runtime import codegen

        self._codegen = codegen
        self.reset_memory()

    # -- memory ------------------------------------------------------------

    def reset_memory(self) -> None:
        """(Re)initialize global memory from module initializers.

        Regions are reset *in place* so their backing lists stay stable
        across runs -- generated code binds global symbols to these
        lists at compile time.
        """
        memory = self.memory
        for name, init in self.module.global_inits.items():
            store = memory.get(name)
            if store is None:
                memory[name] = list(init)
            else:
                store[:] = init

    def region_of(self, symbol: Symbol, frame: Frame) -> List:
        if symbol.is_global:
            store = self.memory.get(symbol.name)
            if store is None:
                raise RuntimeFault(f"unknown global {symbol.name!r}")
            return store
        return frame.local_region(symbol)

    # -- running -----------------------------------------------------------

    def run(self, entry: str = "main", args: Sequence = ()) -> ExecutionResult:
        """Execute ``entry`` to completion and return the result."""
        self.output = []
        self.cycles = 0
        self.instructions = 0
        self.load_count = 0
        # In place: generated code holds the cells themselves.
        for cell in self.unwatched_entries.values():
            cell[0] = 0
        # A prior run that faulted mid-call left call_depth raised; reset
        # so re-running the same instance never trips the limit early.
        self.call_depth = 0
        self.reset_memory()
        # Count the backend this run selects, once per run -- never per
        # activation, which is the hot path.
        REGISTRY.inc(_BACKEND_COUNTERS[self._backend_mode()])
        func = self.module.functions[entry]
        value = self.call_function(func, list(args))
        return ExecutionResult(
            output=list(self.output),
            cycles=self.cycles,
            instructions=self.instructions,
            return_value=value,
        )

    def _backend_mode(self) -> int:
        """Resolve which engine executes the next activation.

        Runs once per activation, so the instance-override probes use
        ``frozenset.isdisjoint`` against ``__dict__`` (a handful of
        hash lookups) rather than a ``keys() &`` intersection, which
        allocates a fresh set per call.
        """
        if (
            self._force_tree
            or not _TREE_FORCING.isdisjoint(self.__dict__)
            # Listeners observe *every* block entry and call edge;
            # fused chains cannot honor that.
            or self.block_listener is not None
            or self.call_listener is not None
        ):
            return _BACKEND_TREE
        if (
            self._class_hooked
            or self.count_loads
            or not _HOOK_FORCING.isdisjoint(self.__dict__)
        ):
            # Hook overrides and load counting run on the hooked
            # superblock tier (same observation points, fused chains).
            return _BACKEND_HOOKED_SUPER
        return _BACKEND_SUPER

    def call_function(self, func: Function, args: Sequence) -> object:
        """Run one activation of ``func`` and return its value."""
        if len(args) != len(func.params):
            raise RuntimeFault(
                f"{func.name} called with {len(args)} args, "
                f"expects {len(func.params)}"
            )
        self.call_depth += 1
        if self.call_depth > self.max_call_depth:
            raise RuntimeFault("call depth limit exceeded")
        if self.call_listener is not None:
            self.call_listener(func.name, True, self.cycles)
        mode = self._backend_mode()
        if mode == _BACKEND_SUPER:
            value = self._call_super(func, args)
        elif mode == _BACKEND_HOOKED_SUPER:
            value = self._call_hooked_super(func, args)
        else:
            value = self._call_tree(func, args)
        if self.call_listener is not None:
            self.call_listener(func.name, False, self.cycles)
        self.call_depth -= 1
        return value

    def _call_tree(self, func: Function, args: Sequence) -> object:
        """Tree-walking activation (the reference engine)."""
        frame = Frame(func)
        for param, value in zip(func.params, args):
            frame.regs[param.uid] = value
        self.on_block_entry(frame, None, func.entry)
        return self._walk(frame, func.entry)

    def _walk(self, frame, block: BasicBlock, index: int = 0) -> object:
        """Tree-walk ``frame``'s activation to its RET, starting at
        instruction ``index`` of ``block``, and return its value.

        ``block``'s entry has already been announced; every later one
        goes through :meth:`on_block_entry`.  :meth:`_call_tree` starts
        here at the entry block; generated code that cannot cover the
        rest of a chain from the instruction budget hands its activation
        over here, on the same frame object, with ``frame.regs`` filled
        from its slots (see :mod:`repro.runtime.codegen`).
        """
        func = frame.func
        outcome = self.exec_block(frame, block, index)
        while outcome[0] == "jump":
            next_block = func.blocks[outcome[1]]
            self.on_block_entry(frame, block, next_block)
            block = next_block
            outcome = self.exec_block(frame, block)
        return outcome[1]

    def _call_super(self, func: Function, args: Sequence) -> object:
        """Superblock code-generated activation; compiles on first use."""
        codegen = self._codegen
        key = (func.name, func.version)
        sfunc = self._superblocks.get(key)
        if sfunc is None:
            sfunc = codegen.compile_superblocks(self, func)
            self._superblocks[key] = sfunc
        return codegen.execute_superblocks(self, sfunc, args)

    def _call_hooked_super(self, func: Function, args: Sequence) -> object:
        """Hooked superblock activation: fused chains that call
        ``exec_sync`` / ``exec_xfer`` at the tree-walker's observation
        points and ``on_block_entry`` on the edges :meth:`watched_edges`
        declares (every one by default), with ``count_loads`` compiled
        to static per-segment increments."""
        codegen = self._codegen
        count_loads = self.count_loads
        key = (func.name, func.version, count_loads, self.count_unwatched)
        sfunc = self._hooked_superblocks.get(key)
        if sfunc is None:
            sfunc = codegen.compile_superblocks(
                self, func, hooked=True, count_loads=count_loads
            )
            self._hooked_superblocks[key] = sfunc
        return codegen.execute_superblocks(self, sfunc, args)

    def on_block_entry(
        self, frame: Frame, prev: Optional[BasicBlock], block: BasicBlock
    ) -> None:
        """Hook called on every block entry (including function entry,
        with ``prev`` None), or -- from generated code only -- on the
        edges :meth:`watched_edges` declares."""
        if self.block_listener is not None:
            self.block_listener(
                frame.func.name,
                prev.name if prev is not None else None,
                block.name,
                self.cycles,
            )

    def watched_edges(
        self, func: Function
    ) -> Optional[FrozenSet[Tuple[str, str]]]:
        """The ``(prev, target)`` block edges of ``func`` whose traversal
        :meth:`on_block_entry` acts on, or ``None`` (the default) for
        every edge.

        An override promises that leaving out the call on any *other*
        edge -- the activation entry, which has no ``prev``, is always
        announced -- changes nothing the observer reports, so the
        hooked superblock tier fuses those boundaries as the
        uninstrumented tier does: no hook call, no segment close
        (:attr:`count_unwatched` keeps the entry counts of their
        targets).  The promise is one-sided: the tree walker, which
        also finishes any activation the budget check hands back,
        announces every entry, so the hook must keep handling
        undeclared edges as it would without the declaration.  Asked
        once per compiled function; the answer must not change over the
        interpreter's lifetime.
        """
        return None

    def exec_block(
        self, frame: Frame, block: BasicBlock, start: int = 0
    ) -> Tuple[str, object]:
        """Execute one block from its instruction ``start`` on; returns
        ('ret', value) or ('jump', name)."""
        instructions = block.instructions
        for instr in instructions[start:] if start else instructions:
            if instr.is_terminator:
                return self.eval_terminator(frame, instr)
            self.exec_instr(frame, instr)
        raise RuntimeFault(f"block {block.name} fell through without terminator")

    # -- instruction execution ------------------------------------------------

    def charge(self, instr: Instruction) -> None:
        """Account one dynamic instruction's cycles."""
        is_float = instr.dest is not None and instr.dest.type is Type.FLOAT
        self.cycles += self.cost_model.cycles(instr.opcode, is_float)
        self.instructions += 1
        if (
            self.max_instructions is not None
            and self.instructions > self.max_instructions
        ):
            raise ExecutionLimitExceeded(
                f"exceeded {self.max_instructions} instructions"
            )

    def eval_operand(self, operand: Operand, frame: Frame):
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, VReg):
            try:
                return frame.regs[operand.uid]
            except KeyError:
                raise RuntimeFault(
                    f"use of undefined register {operand} in {frame.func.name}"
                ) from None
        # Symbol operand outside LEA/LOADG/STOREG context: decay to pointer.
        return Pointer(self.region_of(operand, frame), 0, operand.name)

    def eval_terminator(self, frame: Frame, instr: Instruction) -> Tuple[str, object]:
        self.charge(instr)
        if instr.opcode is Opcode.RET:
            value = self.eval_operand(instr.args[0], frame) if instr.args else None
            return ("ret", value)
        if instr.opcode is Opcode.BR:
            return ("jump", instr.targets[0])
        # CBR
        cond = self.eval_operand(instr.args[0], frame)
        return ("jump", instr.targets[0] if cond != 0 else instr.targets[1])

    def exec_instr(self, frame: Frame, instr: Instruction) -> None:
        """Execute one non-terminator instruction.

        Dispatch is a precomputed ``Opcode -> handler`` table
        (:data:`_EXEC_HANDLERS`) rather than an ``if``/``elif`` chain, so
        the reference backend's cost per instruction doesn't grow with
        the opcode's position in the ISA.  Handlers route every operand
        through :meth:`eval_operand` (and sync ops through
        :meth:`exec_sync` / :meth:`exec_xfer`), preserving all subclass
        hook points.
        """
        self.charge(instr)
        if self.count_loads and instr.reads_memory:
            self.load_count += 1
        handler = _EXEC_HANDLERS.get(instr.opcode)
        if handler is None:  # pragma: no cover - verifier rejects these
            raise RuntimeFault(f"cannot execute opcode {instr.opcode}")
        handler(self, frame, instr)

    def exec_sync(self, frame: Frame, instr: Instruction) -> None:
        """Hook for WAIT/SIGNAL/NEXT_ITER (overridden by the executor)."""

    def exec_xfer(self, frame: Frame, instr: Instruction) -> None:
        """Hook for XFER data-forwarding markers."""


def _arith_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise RuntimeFault("integer division by zero")
        return c_div(a, b)
    if b == 0:
        raise RuntimeFault("float division by zero")
    return a / b


def _arith_mod(a, b):
    if b == 0:
        raise RuntimeFault("modulo by zero")
    return c_mod(a, b)


def _shift_left(a, b):
    if b < 0 or b > 63:
        raise RuntimeFault(f"shift amount {b} out of range")
    return wrap_int(a << b)


def _shift_right(a, b):
    if b < 0 or b > 63:
        raise RuntimeFault(f"shift amount {b} out of range")
    return a >> b


def _add(a, b):
    result = a + b
    return wrap_int(result) if isinstance(result, int) else result


def _sub(a, b):
    result = a - b
    return wrap_int(result) if isinstance(result, int) else result


def _mul(a, b):
    result = a * b
    return wrap_int(result) if isinstance(result, int) else result


_BINARY_HANDLERS = {
    Opcode.ADD: _add,
    Opcode.SUB: _sub,
    Opcode.MUL: _mul,
    Opcode.DIV: _arith_div,
    Opcode.MOD: _arith_mod,
    Opcode.AND: lambda a, b: wrap_int(a & b),
    Opcode.OR: lambda a, b: wrap_int(a | b),
    Opcode.XOR: lambda a, b: wrap_int(a ^ b),
    Opcode.SHL: _shift_left,
    Opcode.SHR: _shift_right,
    Opcode.EQ: lambda a, b: 1 if a == b else 0,
    Opcode.NE: lambda a, b: 1 if a != b else 0,
    Opcode.LT: lambda a, b: 1 if a < b else 0,
    Opcode.LE: lambda a, b: 1 if a <= b else 0,
    Opcode.GT: lambda a, b: 1 if a > b else 0,
    Opcode.GE: lambda a, b: 1 if a >= b else 0,
}


# -- tree-walker dispatch table ----------------------------------------------
#
# One handler per opcode, bound into _EXEC_HANDLERS below.  Handlers take
# (interp, frame, instr) and must only touch operand/region state through
# the interpreter's overridable methods so subclass hooks keep working.


def _exec_mov(interp, frame, instr):
    frame.regs[instr.dest.uid] = interp.eval_operand(instr.args[0], frame)


def _make_exec_binary(handler):
    def run(interp, frame, instr):
        a = interp.eval_operand(instr.args[0], frame)
        b = interp.eval_operand(instr.args[1], frame)
        frame.regs[instr.dest.uid] = handler(a, b)

    return run


def _neg(a):
    return wrap_int(-a) if isinstance(a, int) else -a


def _not(a):
    return 1 if a == 0 else 0


def _ftoi(a):
    return wrap_int(int(a))


def _make_exec_unary(handler):
    def run(interp, frame, instr):
        frame.regs[instr.dest.uid] = handler(
            interp.eval_operand(instr.args[0], frame)
        )

    return run


def _exec_lea(interp, frame, instr):
    symbol = instr.args[0]
    index = interp.eval_operand(instr.args[1], frame)
    store = interp.region_of(symbol, frame)
    frame.regs[instr.dest.uid] = Pointer(store, index, symbol.name)


def _exec_ptradd(interp, frame, instr):
    ptr = interp.eval_operand(instr.args[0], frame)
    delta = interp.eval_operand(instr.args[1], frame)
    if not isinstance(ptr, Pointer):
        raise RuntimeFault(f"PTRADD on non-pointer {ptr!r}")
    frame.regs[instr.dest.uid] = ptr.offset(delta)


def _exec_loadg(interp, frame, instr):
    symbol = instr.args[0]
    index = interp.eval_operand(instr.args[1], frame)
    store = interp.region_of(symbol, frame)
    if index < 0 or index >= len(store):
        raise RuntimeFault(
            f"load out of bounds: {symbol.name}[{index}] "
            f"(size {len(store)})"
        )
    frame.regs[instr.dest.uid] = store[index]


def _exec_storeg(interp, frame, instr):
    symbol = instr.args[0]
    index = interp.eval_operand(instr.args[1], frame)
    value = interp.eval_operand(instr.args[2], frame)
    store = interp.region_of(symbol, frame)
    if index < 0 or index >= len(store):
        raise RuntimeFault(
            f"store out of bounds: {symbol.name}[{index}] "
            f"(size {len(store)})"
        )
    store[index] = value


def _exec_loadp(interp, frame, instr):
    ptr = interp.eval_operand(instr.args[0], frame)
    index = interp.eval_operand(instr.args[1], frame)
    if not isinstance(ptr, Pointer):
        raise RuntimeFault(f"LOADP on non-pointer {ptr!r}")
    frame.regs[instr.dest.uid] = ptr.read(index)


def _exec_storep(interp, frame, instr):
    ptr = interp.eval_operand(instr.args[0], frame)
    index = interp.eval_operand(instr.args[1], frame)
    value = interp.eval_operand(instr.args[2], frame)
    if not isinstance(ptr, Pointer):
        raise RuntimeFault(f"STOREP on non-pointer {ptr!r}")
    ptr.write(index, value)


def _exec_call(interp, frame, instr):
    args = [interp.eval_operand(a, frame) for a in instr.args]
    callee = interp.module.functions[instr.callee]
    value = interp.call_function(callee, args)
    if instr.dest is not None:
        frame.regs[instr.dest.uid] = value


def _exec_print(interp, frame, instr):
    interp.output.append(format_value(interp.eval_operand(instr.args[0], frame)))


def _exec_sync_op(interp, frame, instr):
    # Synchronization pseudo-ops are timing-only; functionally inert.
    interp.exec_sync(frame, instr)


def _exec_xfer_op(interp, frame, instr):
    # Data-forwarding marker; functionally inert, timed by executor.
    interp.exec_xfer(frame, instr)


_EXEC_HANDLERS: Dict[Opcode, Callable] = {
    Opcode.MOV: _exec_mov,
    Opcode.LEA: _exec_lea,
    Opcode.PTRADD: _exec_ptradd,
    Opcode.LOADG: _exec_loadg,
    Opcode.STOREG: _exec_storeg,
    Opcode.LOADP: _exec_loadp,
    Opcode.STOREP: _exec_storep,
    Opcode.CALL: _exec_call,
    Opcode.PRINT: _exec_print,
    Opcode.WAIT: _exec_sync_op,
    Opcode.SIGNAL: _exec_sync_op,
    Opcode.NEXT_ITER: _exec_sync_op,
    Opcode.XFER: _exec_xfer_op,
}
_EXEC_HANDLERS.update(
    {op: _make_exec_binary(h) for op, h in _BINARY_HANDLERS.items()}
)

#: Unary opcodes and the value function both tiers apply.
_UNARY_HANDLERS = {
    Opcode.NEG: _neg,
    Opcode.NOT: _not,
    Opcode.ITOF: float,
    Opcode.FTOI: _ftoi,
}
_EXEC_HANDLERS.update(
    {op: _make_exec_unary(h) for op, h in _UNARY_HANDLERS.items()}
)


def run_module(
    module: Module,
    machine: Optional[MachineConfig] = None,
    entry: str = "main",
    max_instructions: Optional[int] = 500_000_000,
    backend: str = "auto",
    block_profile: Optional[Mapping[Tuple[str, str], int]] = None,
    codegen_cache=None,
) -> ExecutionResult:
    """Convenience: interpret ``module`` sequentially and return the result."""
    interp = Interpreter(
        module,
        machine,
        max_instructions=max_instructions,
        backend=backend,
        block_profile=block_profile,
        codegen_cache=codegen_cache,
    )
    return interp.run(entry)
