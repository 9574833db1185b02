"""Parser for the textual IR format emitted by :mod:`repro.ir.printer`.

Round-tripping (``parse_module(module_to_str(m))``) gives tests and tools
a stable way to author IR directly, without going through MiniC.  The
grammar is exactly what the printer produces::

    module NAME
    global TYPE @name[SIZE] [= [v, ...]]

    func RET NAME(TYPE %reg, ...) {
      local TYPE $name[SIZE]
    label:
      %dst = op operands
      op operands -> target, ...
    }
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction, Opcode
from repro.ir.module import Module
from repro.ir.operands import Const, Operand, Symbol, VReg
from repro.ir.types import Type


class IRParseError(ValueError):
    """Malformed textual IR."""


_TYPE_NAMES = {t.value: t for t in Type}
_OPCODES = {op.value: op for op in Opcode}

_GLOBAL_RE = re.compile(
    r"^global\s+(\w+)\s+@([\w.]+)\[(\d+)\](?:\s*=\s*(\[.*\])(\.\.\.)?)?$"
)
_FUNC_RE = re.compile(r"^func\s+(\w+)\s+([\w.]+)\((.*)\)\s*\{$")
_LOCAL_RE = re.compile(r"^local\s+(\w+)\s+\$([\w.]+)\[(\d+)\]$")
_LABEL_RE = re.compile(r"^([\w.]+):$")
_REG_RE = re.compile(r"^%(?:([\w.]+)\.(\d+)|t(\d+))$")


def _parse_reg(token: str, types: Dict[int, Type]) -> VReg:
    match = _REG_RE.match(token)
    if not match:
        raise IRParseError(f"bad register {token!r}")
    if match.group(3) is not None:
        uid, name = int(match.group(3)), ""
    else:
        uid, name = int(match.group(2)), match.group(1)
    return VReg(uid, types.get(uid, Type.INT), name)


def _split_operands(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


class _FunctionParser:
    def __init__(self, module: Module, header: re.Match) -> None:
        ret_type = _TYPE_NAMES[header.group(1)]
        self.func = Function(header.group(2), ret_type)
        self.module = module
        self.reg_types: Dict[int, Type] = {}
        self.block: Optional[BasicBlock] = None
        params = header.group(3).strip()
        if params:
            for part in _split_operands(params):
                type_name, reg_text = part.split()
                match = _REG_RE.match(reg_text)
                if not match:
                    raise IRParseError(f"bad parameter {part!r}")
                param_type = _TYPE_NAMES[type_name]
                name = match.group(1) or ""
                reg = self.func.add_param(param_type, name)
                # The printer preserves uids; remap ours to match.
                uid = int(match.group(2) or match.group(3))
                self.reg_types[uid] = param_type
                self.func.params[-1] = VReg(uid, param_type, name)
        self.func._next_vreg = max(self.reg_types, default=-1) + 1

    def _operand(self, token: str) -> Operand:
        if token.startswith("%"):
            return _parse_reg(token, self.reg_types)
        if token.startswith("@"):
            name = token[1:]
            sym = self.module.globals.get(name)
            if sym is None:
                raise IRParseError(f"unknown global {token}")
            return sym
        if token.startswith("$"):
            name = token[1:]
            sym = self.func.locals.get(name)
            if sym is None:
                raise IRParseError(f"unknown local {token}")
            return sym
        try:
            if any(c in token for c in ".eE") and not token.lstrip("-").isdigit():
                return Const.float(float(token))
            return Const.int(int(token))
        except ValueError:
            raise IRParseError(f"bad operand {token!r}") from None

    def parse_line(self, line: str) -> None:
        local = _LOCAL_RE.match(line)
        if local:
            self.func.add_local_array(
                local.group(2), _TYPE_NAMES[local.group(1)], int(local.group(3))
            )
            return
        label = _LABEL_RE.match(line)
        if label:
            self.block = BasicBlock(label.group(1))
            self.func.add_block(self.block)
            return
        if self.block is None:
            raise IRParseError(f"instruction outside block: {line!r}")
        self.block.instructions.append(self._instruction(line))

    def _instruction(self, line: str) -> Instruction:
        dest = None
        if line.startswith("%") and " = " in line:
            dest, _, line = line.partition(" = ")
            dest = dest.strip()
            if not line:
                raise IRParseError(f"bad assignment {dest!r}")

        targets: Tuple[str, ...] = ()
        if "->" in line:
            line, _, target_text = line.partition("->")
            line = line.strip()
            targets = tuple(_split_operands(target_text))

        parts = line.split(None, 1)
        opcode = _OPCODES.get(parts[0])
        if opcode is None:
            raise IRParseError(f"unknown opcode {parts[0]!r}")
        rest = parts[1] if len(parts) > 1 else ""

        callee = None
        dep_id = None
        tokens = _split_operands(rest)
        cleaned: List[str] = []
        for token in tokens:
            inner = token.split()
            for piece in inner:
                if piece.startswith("@") and opcode is Opcode.CALL:
                    callee = piece[1:]
                elif piece.startswith("#d"):
                    dep_id = int(piece[2:])
                else:
                    cleaned.append(piece.rstrip(","))
        args = tuple(self._operand(token) for token in cleaned)

        dest_reg = None
        if dest is not None:
            # Infer the destination type from the opcode and operands.
            match = _REG_RE.match(dest)
            if not match:
                raise IRParseError(f"bad destination {dest!r}")
            uid = int(match.group(2) or match.group(3))
            name = match.group(1) or ""
            dest_type = _infer_dest_type(opcode, args, self.module, callee)
            self.reg_types[uid] = dest_type
            dest_reg = VReg(uid, dest_type, name)
            self.func._next_vreg = max(self.func._next_vreg, uid + 1)

        return Instruction(
            opcode,
            dest=dest_reg,
            args=args,
            targets=targets,
            callee=callee,
            dep_id=dep_id,
        )


def _infer_dest_type(
    opcode: Opcode, args: Tuple[Operand, ...], module: Module, callee: Optional[str]
) -> Type:
    from repro.ir.operands import operand_type

    if opcode in (Opcode.LEA, Opcode.PTRADD):
        return Type.PTR
    if opcode is Opcode.ITOF:
        return Type.FLOAT
    if opcode is Opcode.FTOI:
        return Type.INT
    if opcode is Opcode.LOADG:
        sym = args[0]
        assert isinstance(sym, Symbol)
        return sym.elem_type
    if opcode is Opcode.LOADP:
        return Type.INT  # elem type is not recoverable from text
    if opcode is Opcode.CALL and callee and callee in module.functions:
        return module.functions[callee].return_type
    if opcode in (
        Opcode.EQ,
        Opcode.NE,
        Opcode.LT,
        Opcode.LE,
        Opcode.GT,
        Opcode.GE,
        Opcode.NOT,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.MOD,
    ):
        return Type.INT
    float_arg = any(
        operand_type(a) is Type.FLOAT for a in args
    )
    if float_arg:
        return Type.FLOAT
    ptr_arg = any(operand_type(a) is Type.PTR for a in args)
    if ptr_arg and opcode in (Opcode.MOV, Opcode.ADD, Opcode.SUB):
        return Type.PTR
    return Type.INT


def parse_module(text: str, verify: bool = True) -> Module:
    """Parse a printed module back into IR."""
    lines = [line.strip() for line in text.splitlines()]
    module: Optional[Module] = None
    parser: Optional[_FunctionParser] = None

    for raw in lines:
        if not raw:
            continue
        if raw.startswith("module "):
            module = Module(raw.split(None, 1)[1])
            continue
        if module is None:
            raise IRParseError("missing 'module' header")
        if raw.startswith("global "):
            match = _GLOBAL_RE.match(raw)
            if not match:
                raise IRParseError(f"bad global: {raw!r}")
            init = None
            if match.group(4):
                if match.group(5):
                    raise IRParseError(
                        "cannot parse truncated initializer (size > 8); "
                        "print with full precision first"
                    )
                init = eval(match.group(4), {"__builtins__": {}})  # noqa: S307
            module.add_global(
                match.group(2),
                _TYPE_NAMES[match.group(1)],
                int(match.group(3)),
                init=init,
            )
            continue
        func_match = _FUNC_RE.match(raw)
        if func_match:
            parser = _FunctionParser(module, func_match)
            continue
        if raw == "}":
            if parser is None:
                raise IRParseError("unmatched '}'")
            module.add_function(parser.func)
            parser = None
            continue
        if parser is None:
            raise IRParseError(f"unexpected line outside function: {raw!r}")
        parser.parse_line(raw)

    if module is None:
        raise IRParseError("empty input")
    if verify:
        from repro.ir.verify import verify_module

        verify_module(module)
    return module
