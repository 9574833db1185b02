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

Two execution tiers share these semantics, and each interpreter picks
one when it is built:

* the **tree-walker** in this module -- simple, hookable everywhere, and
  the oracle every other tier is checked against;
* the **superblock backend** (:mod:`repro.runtime.codegen`) -- basic
  blocks are fused into single-entry superblocks and all superblocks of
  a function are code-generated into one compiled Python function.

Generated code is always bit-identical to the tree-walker and is the
default.  An interpreter tree-walks when asked to (``backend="tree"``)
or when its class overrides an ``exec_instr``-level method, whose logic
generated code fuses away.  Otherwise generated code observes exactly
what the class declares: it calls an overridden ``on_block_entry`` on
the edges :meth:`Interpreter.watched_edges` declares, and routes sync
and xfer ops through ``exec_sync`` / ``exec_xfer`` when the class
overrides them.

The instruction budget (``max_instructions``) is a guard against
programs that never terminate, not an observable.  A run within it is
bit-identical on both tiers.  A run that exceeds it raises
:class:`ExecutionLimitExceeded` with the same message on both: the
walker at the first instruction past the limit, generated code at its
next budget check, at most one chain's linear body later, with its
clock written back there.
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


#: The instruction budget of an interpreter built without one.
DEFAULT_MAX_INSTRUCTIONS = 500_000_000


def limit_exceeded(limit: int) -> ExecutionLimitExceeded:
    """The fault every tier raises once a run has charged more than
    ``limit`` instructions."""
    return ExecutionLimitExceeded(f"exceeded {limit} instructions")


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
        """Inverse of :meth:`to_dict`; raises ``KeyError`` or
        ``TypeError`` on anything else."""
        output = data["output"]
        cycles, instructions = data["cycles"], data["instructions"]
        if not (
            isinstance(output, list)
            and all(isinstance(line, str) for line in output)
            and type(cycles) is int
            and type(instructions) is int
        ):
            raise TypeError("not an execution result")
        return cls(
            output=list(output),
            cycles=cycles,
            instructions=instructions,
            return_value=data.get("return_value"),
        )


def format_value(value) -> str:
    """Canonical rendering of a printed value (the oracle format)."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


#: Overriding any of these makes an interpreter tree-walk: generated
#: code fuses exactly this logic, so a replacement must run on the
#: tree-walker to take effect.
_TREE_FORCING = frozenset(
    {"exec_block", "exec_instr", "eval_operand", "eval_terminator", "charge"}
)


def _overrides(cls, name: str) -> bool:
    """Does ``cls`` replace the base :class:`Interpreter`'s ``name``?"""
    return getattr(cls, name) is not getattr(Interpreter, name)


class Interpreter:
    """Executes a :class:`~repro.ir.Module` sequentially.

    Subclasses (the profiler, the parallel executor) observe a run by
    overriding the hooks :meth:`on_block_entry`, :meth:`exec_sync`,
    :meth:`exec_xfer` and :meth:`call_function`, and reuse
    :meth:`exec_instr` / :meth:`eval_operand` to execute individual
    instructions.

    ``backend`` selects the execution engine once, here: ``"auto"``
    (default) runs generated code unless the class overrides a core
    execution method (:data:`_TREE_FORCING`), which tree-walks;
    ``"tree"`` always tree-walks, while ``"superblock"`` asserts that
    generated code is usable (raising ``ValueError`` for subclasses that
    override core execution methods).

    ``block_profile`` optionally supplies dynamic block-entry counts
    keyed ``(function name, block name)`` (the shape of
    :attr:`repro.runtime.profiler.ProfileData.block_counts`); the
    superblock backend uses them for trace-guided chain formation --
    hot blocks seed chains first and hot CBR arms are fused.  Purely a
    performance hint -- never affects semantics.
    """

    def __init__(
        self,
        module: Module,
        machine: Optional[MachineConfig] = None,
        max_instructions: Optional[int] = DEFAULT_MAX_INSTRUCTIONS,
        backend: str = "auto",
        block_profile: Optional[Mapping[Tuple[str, str], int]] = None,
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
        #: Count LOADG/LOADP executions into :attr:`load_count` (the
        #: parallel executor prices data forwarding from this).
        #: Generated code reads this flag, like :attr:`count_unwatched`,
        #: when it compiles a function, so both are set before the
        #: first run.
        self.count_loads = False
        self.load_count = 0
        #: Count the block entries a declared :meth:`watched_edges` set
        #: keeps from :meth:`on_block_entry` into
        #: :attr:`unwatched_entries`: ``(function, block)`` -> a
        #: one-element cell the generated code bumps in place.  Only
        #: generated code elides hook calls, so only it ever counts here;
        #: an observer that needs every entry adds these to the entries
        #: its hook saw (the profiler does).
        self.count_unwatched = False
        self.unwatched_entries: Dict[Tuple[str, str], List[int]] = {}
        self.backend = backend
        self.block_profile = dict(block_profile) if block_profile else None
        cls = type(self)
        core_overrides = sorted(
            name for name in _TREE_FORCING if _overrides(cls, name)
        )
        if backend == "superblock" and core_overrides:
            raise ValueError(
                f"{cls.__name__} overrides core execution methods "
                f"({', '.join(core_overrides)}); the {backend} backend "
                "cannot honor them"
            )
        #: The engine of every activation, fixed for the interpreter's
        #: lifetime: the tree walker, or generated code.  (A flag, not a
        #: stored bound method, which would make every interpreter a
        #: reference cycle that only the cyclic collector frees.)
        self._tree = backend == "tree" or bool(core_overrides)
        #: What generated code observes, read off the class: block
        #: entries, and sync/xfer ops.
        self._observes_blocks = _overrides(cls, "on_block_entry")
        self._observes_sync = _overrides(cls, "exec_sync") or _overrides(
            cls, "exec_xfer"
        )
        #: (name, version) -> SuperblockFunction.  ``Function.version``
        #: is part of the key: IR mutation bumps it, so a post-mutation
        #: activation can never execute stale generated code.
        self._superblocks: Dict[Tuple[str, int], object] = {}
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
        REGISTRY.inc(
            "interp.backend.tree" if self._tree else "interp.backend.superblock"
        )
        func = self.module.functions[entry]
        value = self.call_function(func, list(args))
        # Generated code checks the budget at chain entries and after
        # calls; this covers the entry activation's last chain.
        limit = self.max_instructions
        if limit is not None and self.instructions > limit:
            raise limit_exceeded(limit)
        return ExecutionResult(
            output=list(self.output),
            cycles=self.cycles,
            instructions=self.instructions,
            return_value=value,
        )

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
        if self._tree:
            value = self._call_tree(func, args)
        else:
            value = self._call_super(func, args)
        self.call_depth -= 1
        return value

    def _call_tree(self, func: Function, args: Sequence) -> object:
        """Tree-walking activation (the reference engine)."""
        frame = Frame(func)
        for param, value in zip(func.params, args):
            frame.regs[param.uid] = value
        block = func.entry
        self.on_block_entry(frame, None, block)
        outcome = self.exec_block(frame, block)
        while outcome[0] == "jump":
            next_block = func.blocks[outcome[1]]
            self.on_block_entry(frame, block, next_block)
            block = next_block
            outcome = self.exec_block(frame, block)
        return outcome[1]

    def _call_super(self, func: Function, args: Sequence) -> object:
        """Generated-code activation; compiles ``func`` on first use."""
        codegen = self._codegen
        key = (func.name, func.version)
        sfunc = self._superblocks.get(key)
        if sfunc is None:
            sfunc = codegen.compile_superblocks(self, func)
            self._superblocks[key] = sfunc
        return codegen.execute_superblocks(self, sfunc, args)

    def on_block_entry(
        self, frame: Frame, prev: Optional[BasicBlock], block: BasicBlock
    ) -> None:
        """Hook called on every block entry (including function entry,
        with ``prev`` None), or -- from generated code only -- on the
        edges :meth:`watched_edges` declares; the base class observes
        nothing, and generated code only calls an override."""

    def watched_edges(
        self, func: Function
    ) -> Optional[FrozenSet[Tuple[str, str]]]:
        """The ``(prev, target)`` block edges of ``func`` whose traversal
        :meth:`on_block_entry` acts on, or ``None`` (the default) for
        every edge.

        An override promises that leaving out the call on any *other*
        edge -- the activation entry, which has no ``prev``, is always
        announced -- changes nothing the observer reports, so generated
        code fuses those boundaries as it does for a class that observes
        nothing: no hook call, no segment close
        (:attr:`count_unwatched` keeps the entry counts of their
        targets).  Only generated code reads the declaration: the tree
        walker announces every entry, so the hook must keep handling
        undeclared edges as it would without it.  Asked once per
        compiled function; the answer must not change over the
        interpreter's lifetime.
        """
        return None

    def exec_block(self, frame: Frame, block: BasicBlock) -> Tuple[str, object]:
        """Execute one block; returns ('ret', value) or ('jump', name)."""
        for instr in block.instructions:
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
            raise limit_exceeded(self.max_instructions)

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
    max_instructions: Optional[int] = DEFAULT_MAX_INSTRUCTIONS,
    backend: str = "auto",
    block_profile: Optional[Mapping[Tuple[str, str], int]] = None,
) -> ExecutionResult:
    """Convenience: interpret ``module`` sequentially and return the result."""
    interp = Interpreter(
        module,
        machine,
        max_instructions=max_instructions,
        backend=backend,
        block_profile=block_profile,
    )
    return interp.run(entry)
