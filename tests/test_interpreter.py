"""Tests for the interpreter: semantics, faults, accounting."""

import pytest

from repro.frontend.lower import compile_source
from repro.ir import Function, Instruction, IRBuilder, Module, Opcode
from repro.ir.operands import Const, VReg
from repro.ir.types import Type
from repro.obs.metrics import REGISTRY, metrics_delta
from repro.runtime.interpreter import (
    ExecutionLimitExceeded,
    Interpreter,
    RuntimeFault,
    run_module,
)
from repro.runtime.interpreter import (
    _shift_left,
    _shift_right,
    c_div,
    c_mod,
    format_value,
    wrap_int,
)
from repro.runtime.machine import MachineConfig

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class TestIntSemantics:
    def test_wrap_int_identity_in_range(self):
        assert wrap_int(42) == 42
        assert wrap_int(-42) == -42

    def test_wrap_int_at_boundaries(self):
        assert wrap_int(2**63 - 1) == 2**63 - 1
        assert wrap_int(2**63) == -(2**63)
        assert wrap_int(-(2**63) - 1) == 2**63 - 1

    def test_wrap_int_overflow(self):
        assert wrap_int(2**64) == 0
        assert wrap_int(2**64 + 5) == 5

    @pytest.mark.parametrize(
        "a,b,q,r",
        [(7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1)],
    )
    def test_c_division(self, a, b, q, r):
        assert c_div(a, b) == q
        assert c_mod(a, b) == r

    def test_wrap_int_at_int64_extremes(self):
        assert wrap_int(INT64_MIN) == INT64_MIN
        assert wrap_int(INT64_MAX) == INT64_MAX
        assert wrap_int(INT64_MAX + 1) == INT64_MIN
        assert wrap_int(INT64_MIN - 1) == INT64_MAX
        assert wrap_int(INT64_MIN * 2) == 0

    @pytest.mark.parametrize(
        "a,b,q,r",
        [
            (INT64_MIN, 1, INT64_MIN, 0),
            (INT64_MIN, 2, -(2**62), 0),
            (INT64_MAX, -1, -INT64_MAX, 0),
            (INT64_MIN + 1, -1, INT64_MAX, 0),
            (-1, INT64_MAX, 0, -1),
            (INT64_MIN, INT64_MAX, -1, -1),
            (-9, 4, -2, -1),
            (-9, -4, 2, -1),
        ],
    )
    def test_c_division_at_extremes(self, a, b, q, r):
        assert c_div(a, b) == q
        assert c_mod(a, b) == r

    def test_c_division_truncates_negative_dividends_toward_zero(self):
        # C semantics: -7/2 == -3 (not Python's floor -4), remainder
        # takes the dividend's sign.
        assert c_div(-7, 2) == -3
        assert (-7) // 2 == -4  # the Python behavior we must not inherit
        assert c_mod(-7, 2) == -1
        assert (-7) % 2 == 1

    def test_shift_left_boundary_amounts(self):
        assert _shift_left(1, 0) == 1
        assert _shift_left(1, 62) == 2**62
        assert _shift_left(1, 63) == INT64_MIN  # wraps into the sign bit
        assert _shift_left(3, 63) == INT64_MIN  # only the low bit survives
        assert _shift_left(INT64_MAX, 1) == -2
        with pytest.raises(RuntimeFault):
            _shift_left(1, 64)
        with pytest.raises(RuntimeFault):
            _shift_left(1, -1)

    def test_shift_right_boundary_amounts(self):
        assert _shift_right(INT64_MAX, 0) == INT64_MAX
        assert _shift_right(INT64_MAX, 62) == 1
        assert _shift_right(INT64_MAX, 63) == 0
        # Arithmetic shift: the sign propagates.
        assert _shift_right(INT64_MIN, 63) == -1
        assert _shift_right(-1, 63) == -1
        with pytest.raises(RuntimeFault):
            _shift_right(1, 64)
        with pytest.raises(RuntimeFault):
            _shift_right(1, -1)

    @pytest.mark.parametrize(
        "expr",
        [
            "print((0 - 9) / 4); print((0 - 9) % 4);",
            "print(9 / (0 - 4)); print(9 % (0 - 4));",
            "print(1 << 63); print(1 << 0);",
            "print((0 - 1) >> 63); print(9223372036854775807 >> 62);",
            "print(9223372036854775807 + 1);",
            "print((0 - 9223372036854775807 - 1) - 1);",
            "print(3037000500 * 3037000499);",
        ],
    )
    def test_backends_agree_on_integer_edge_cases(self, expr):
        module = compile_source(f"void main() {{ {expr} }}")
        tree = run_module(module, backend="tree")
        generated = run_module(module, backend="superblock")
        assert tree.to_dict() == generated.to_dict()


class TestFaults:
    def run_body(self, body, decls=""):
        module = compile_source(f"{decls}\nvoid main() {{ {body} }}")
        return run_module(module)

    def test_division_by_zero(self):
        with pytest.raises(RuntimeFault):
            self.run_body("int z = 0; print(1 / z);")

    def test_modulo_by_zero(self):
        with pytest.raises(RuntimeFault):
            self.run_body("int z = 0; print(1 % z);")

    def test_load_out_of_bounds(self):
        with pytest.raises(RuntimeFault):
            self.run_body("print(a[10]);", decls="int a[4];")

    def test_store_out_of_bounds(self):
        with pytest.raises(RuntimeFault):
            self.run_body("a[-1] = 1;", decls="int a[4];")

    def test_pointer_out_of_bounds(self):
        with pytest.raises(RuntimeFault):
            self.run_body("int *p = &a[3]; p[2] = 1;", decls="int a[4];")

    def test_shift_out_of_range(self):
        with pytest.raises(RuntimeFault):
            self.run_body("int s = 70; print(1 << s);")

    def test_instruction_limit(self):
        module = compile_source("void main() { while (1) { } }")
        with pytest.raises(ExecutionLimitExceeded):
            run_module(module, max_instructions=10_000)

    def test_call_depth_limit(self):
        module = compile_source(
            "int f(int n) { return f(n + 1); } void main() { print(f(0)); }"
        )
        with pytest.raises(RuntimeFault):
            run_module(module)

    def test_call_depth_reset_after_faulted_run(self):
        # A fault raised inside a callee leaves call_depth > 0; before
        # run() reset it, repeated runs on one instance crept toward the
        # depth limit and eventually faulted with the wrong diagnostic.
        module = compile_source(
            "int f(int z) { return 1 / z; } void main() { print(f(0)); }"
        )
        interp = Interpreter(module)
        interp.max_call_depth = 4
        for _ in range(10):
            with pytest.raises(RuntimeFault, match="division by zero"):
                interp.run()


class TestAccounting:
    def test_cycles_accumulate(self):
        module = compile_source("void main() { print(1 + 2); }")
        result = run_module(module)
        assert result.cycles > 0
        assert result.instructions > 0

    def test_mul_costs_more_than_add(self):
        add = run_module(
            compile_source("void main() { int a = 1; int b = a + a; }")
        ).cycles
        mul = run_module(
            compile_source("void main() { int a = 1; int b = a * a; }")
        ).cycles
        assert mul > add

    def test_float_arithmetic_costs_extra(self):
        int_run = run_module(
            compile_source("void main() { int a = 1; int b = a + a; }")
        ).cycles
        float_run = run_module(
            compile_source("void main() { float a = 1.0; float b = a + a; }")
        ).cycles
        assert float_run > int_run

    def test_deterministic_across_runs(self):
        module = compile_source(
            """
            int a[8];
            void main() {
                int i;
                for (i = 0; i < 8; i++) { a[i] = i * 3; }
                print(a[7]);
            }
            """
        )
        first = run_module(module)
        second = run_module(module)
        assert first.output == second.output
        assert first.cycles == second.cycles

    def test_memory_reset_between_runs(self):
        module = compile_source(
            "int g;\nvoid main() { g = g + 1; print(g); }"
        )
        interp = Interpreter(module)
        assert interp.run().output == ["1"]
        assert interp.run().output == ["1"]


class _Observer(Interpreter):
    """Observes a run the one way there is, by overriding the hooks:
    every block entry and every call's entry and exit, each with the
    clock it saw."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.blocks = []
        self.calls = []
        self.events = []

    def on_block_entry(self, frame, prev, block):
        event = (
            frame.func.name,
            prev.name if prev is not None else None,
            block.name,
            self.cycles,
        )
        self.blocks.append(event[:3])
        self.events.append(event)

    def call_function(self, func, args):
        self.calls.append((func.name, True))
        self.events.append((func.name, True, self.cycles))
        value = super().call_function(func, args)
        self.calls.append((func.name, False))
        self.events.append((func.name, False, self.cycles))
        return value


class TestHooks:
    def test_block_listener_sees_entry(self):
        module = compile_source(
            "void main() { int i; for (i = 0; i < 3; i++) { } }"
        )
        interp = _Observer(module)
        interp.run()
        events = interp.blocks
        assert events[0][1] is None  # function entry has no predecessor
        headers = [e for e in events if e[2].startswith("for")]
        assert len(headers) == 4  # 3 iterations + final exit test

    def test_call_listener_pairs(self):
        module = compile_source(
            "int f() { return 1; } void main() { print(f() + f()); }"
        )
        interp = _Observer(module)
        interp.run()
        events = interp.calls
        assert events.count(("f", True)) == 2
        assert events.count(("f", False)) == 2
        assert events[0] == ("main", True)
        assert events[-1] == ("main", False)

    def test_listener_runs_match_the_walker(self):
        """Generated code calls the overridden hooks with the walker's
        arguments, in the walker's order, at the walker's cycles."""
        module = compile_source(
            "int total;\n"
            "int f(int i) { return i * 2; }\n"
            "void main() { int i; for (i = 0; i < 50; i++) "
            "{ total = total + f(i); } print(total); }"
        )

        def collect(backend):
            interp = _Observer(module, backend=backend)
            before = REGISTRY.snapshot()
            result = interp.run().to_dict()
            counters = metrics_delta(before, REGISTRY.snapshot())["counters"]
            tiers = {
                name: count for name, count in counters.items()
                if name.startswith("interp.backend.")
            }
            return result, interp.events, tiers

        generated, generated_events, generated_tiers = collect("auto")
        walked, walked_events, walked_tiers = collect("tree")
        assert generated_tiers == {"interp.backend.superblock": 1}
        assert walked_tiers == {"interp.backend.tree": 1}
        assert len(generated_events) > 200
        assert (generated, generated_events) == (walked, walked_events)


class TestBackendValidation:
    @pytest.mark.parametrize("backend", ("jit", "decoded"))
    def test_unknown_backend_rejected(self, backend):
        module = compile_source("void main() { print(1); }")
        with pytest.raises(ValueError, match="unknown interpreter backend"):
            Interpreter(module, backend=backend)


class TestFormatting:
    def test_int_format(self):
        assert format_value(42) == "42"
        assert format_value(-3) == "-3"

    def test_float_format(self):
        assert format_value(1.5) == "1.5"
        assert format_value(1 / 3) == "0.333333"

    def test_return_value_surfaced(self):
        module = Module()
        func = Function("main", Type.INT)
        module.add_function(func)
        b = IRBuilder(func)
        b.start_block("entry")
        b.ret(Const.int(9))
        assert run_module(module).return_value == 9
