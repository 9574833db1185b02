"""Tests for AST -> IR lowering, checked through execution semantics.

Each program is compiled and interpreted; the printed output is compared
against the value C semantics would produce.  This exercises the whole
frontend pipeline end to end.
"""

import pytest

from repro.frontend.errors import MiniCError
from repro.frontend.lower import compile_source
from repro.ir import verify_module
from repro.runtime.interpreter import run_module


def run(source):
    module = compile_source(source)
    return run_module(module).output


def run_main(body, decls=""):
    return run(f"{decls}\nvoid main() {{ {body} }}")


class TestExpressions:
    def test_arithmetic(self):
        assert run_main("print(2 + 3 * 4 - 1);") == ["13"]

    def test_division_truncates_toward_zero(self):
        assert run_main("print(-7 / 2);") == ["-3"]
        assert run_main("print(7 / -2);") == ["-3"]

    def test_modulo_keeps_dividend_sign(self):
        assert run_main("print(-7 % 3);") == ["-1"]
        assert run_main("print(7 % -3);") == ["1"]

    def test_bitwise(self):
        assert run_main("print(6 & 3); print(6 | 3); print(6 ^ 3);") == [
            "2",
            "7",
            "5",
        ]

    def test_shifts(self):
        assert run_main("print(1 << 10); print(1024 >> 3);") == ["1024", "128"]

    def test_comparisons(self):
        assert run_main("print(3 < 4); print(4 <= 3); print(5 == 5);") == [
            "1",
            "0",
            "1",
        ]

    def test_unary(self):
        assert run_main("int x = 5; print(-x); print(!x); print(!0);") == [
            "-5",
            "0",
            "1",
        ]

    def test_float_arithmetic(self):
        assert run_main("float f = 1.5; print(f * 2.0 + 0.25);") == ["3.25"]

    def test_int_float_promotion(self):
        assert run_main("int i = 3; print(i / 2); print(i / 2.0);") == [
            "1",
            "1.5",
        ]

    def test_float_to_int_assignment_truncates(self):
        assert run_main("int x = 0; x = 7 / 2.0; print(x);") == ["3"]


class TestShortCircuit:
    def test_and_skips_rhs(self):
        # RHS would divide by zero if evaluated.
        source = """
        int z = 0;
        void main() {
            int guard = 0;
            if (guard && 10 / z > 0) { print(1); } else { print(2); }
        }
        """
        assert run(source) == ["2"]

    def test_or_skips_rhs(self):
        source = """
        int z = 0;
        void main() {
            if (1 || 10 / z > 0) { print(1); } else { print(2); }
        }
        """
        assert run(source) == ["1"]

    def test_result_is_normalized(self):
        assert run_main("print(2 && 3); print(0 || 7);") == ["1", "1"]


class TestControlFlow:
    def test_if_else_chains(self):
        body = """
        int x = 2;
        if (x == 1) { print(10); }
        else { if (x == 2) { print(20); } else { print(30); } }
        """
        assert run_main(body) == ["20"]

    def test_while_loop(self):
        assert run_main("int i = 0; int s = 0; while (i < 5) { s += i; i++; } print(s);") == ["10"]

    def test_for_loop(self):
        assert run_main("int s = 0; int i; for (i = 1; i <= 4; i++) { s *= 2; s += i; } print(s);") == ["26"]

    def test_break(self):
        body = "int i; for (i = 0; i < 100; i++) { if (i == 3) { break; } } print(i);"
        assert run_main(body) == ["3"]

    def test_continue(self):
        body = """
        int s = 0; int i;
        for (i = 0; i < 6; i++) { if (i % 2 == 0) { continue; } s += i; }
        print(s);
        """
        assert run_main(body) == ["9"]

    def test_nested_loops_with_break(self):
        body = """
        int total = 0; int i; int j;
        for (i = 0; i < 4; i++) {
            for (j = 0; j < 10; j++) {
                if (j > i) { break; }
                total++;
            }
        }
        print(total);
        """
        assert run_main(body) == ["10"]

    def test_early_return(self):
        source = """
        int pick(int x) {
            if (x > 0) { return 1; }
            return -1;
        }
        void main() { print(pick(5)); print(pick(-5)); }
        """
        assert run(source) == ["1", "-1"]

    def test_fall_off_non_void_returns_zero(self):
        source = """
        int weird(int x) { if (x > 0) { return 7; } }
        void main() { print(weird(0)); }
        """
        assert run(source) == ["0"]


class TestArraysAndGlobals:
    def test_global_scalar_update(self):
        assert run_main("g = 5; g += 2; print(g);", decls="int g;") == ["7"]

    def test_global_array(self):
        body = "int i; for (i = 0; i < 4; i++) { a[i] = i * i; } print(a[3]);"
        assert run_main(body, decls="int a[4];") == ["9"]

    def test_global_initializer(self):
        assert run_main("print(a[0] + a[2]);", decls="int a[3] = {10, 20, 30};") == ["40"]

    def test_local_array(self):
        body = "int buf[4]; buf[1] = 11; buf[2] = buf[1] + 1; print(buf[2]);"
        assert run_main(body) == ["12"]

    def test_compound_assign_to_element(self):
        assert run_main("a[1] = 5; a[1] *= 3; print(a[1]);", decls="int a[2];") == ["15"]

    def test_local_scalars_shadow_globals(self):
        source = """
        int x = 100;
        void main() { int x = 5; print(x); }
        """
        assert run(source) == ["5"]

    def test_block_scoping(self):
        body = "int x = 1; if (1) { int x = 2; print(x); } print(x);"
        assert run_main(body) == ["2", "1"]


class TestPointers:
    def test_address_of_and_deref(self):
        body = "int *p = &a[1]; *p = 42; print(a[1]);"
        assert run_main(body, decls="int a[4];") == ["42"]

    def test_pointer_indexing(self):
        body = "int *p = &a[1]; p[2] = 9; print(a[3]);"
        assert run_main(body, decls="int a[4];") == ["9"]

    def test_pointer_arithmetic(self):
        body = "int *p = a; int *q = p + 2; *q = 5; print(a[2]);"
        assert run_main(body, decls="int a[4];") == ["5"]

    def test_array_decay_to_param(self):
        source = """
        int a[4];
        void fill(int *p, int n) {
            int i;
            for (i = 0; i < n; i++) { p[i] = i + 1; }
        }
        void main() { fill(a, 4); print(a[0] + a[3]); }
        """
        assert run(source) == ["5"]

    def test_pointer_to_local_array(self):
        source = """
        int sum3(int *p) { return p[0] + p[1] + p[2]; }
        void main() {
            int buf[3];
            buf[0] = 1; buf[1] = 2; buf[2] = 3;
            print(sum3(buf));
        }
        """
        assert run(source) == ["6"]

    def test_address_of_global_scalar(self):
        source = """
        int g;
        void main() { int *p = &g; *p = 77; print(g); }
        """
        assert run(source) == ["77"]


class TestFunctions:
    def test_recursion(self):
        source = """
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        void main() { print(fib(10)); }
        """
        assert run(source) == ["55"]

    def test_mutual_recursion(self):
        source = """
        int is_odd(int n);
        void main() { print(0); }
        """
        # Forward declarations are not supported; mutual recursion must be
        # avoided -- verify the error is a clean diagnostic.
        with pytest.raises(MiniCError):
            compile_source(source)

    def test_float_return(self):
        source = """
        float half(int x) { return x / 2.0; }
        void main() { print(half(5)); }
        """
        assert run(source) == ["2.5"]

    def test_argument_coercion(self):
        source = """
        float f(float x) { return x + 0.5; }
        void main() { print(f(2)); }
        """
        assert run(source) == ["2.5"]


class TestDiagnostics:
    def test_undeclared_identifier(self):
        with pytest.raises(MiniCError):
            compile_source("void main() { x = 1; }")

    def test_redeclaration(self):
        with pytest.raises(MiniCError):
            compile_source("void main() { int x; int x; }")

    def test_call_undefined_function(self):
        with pytest.raises(MiniCError):
            compile_source("void main() { foo(); }")

    def test_wrong_arg_count(self):
        with pytest.raises(MiniCError):
            compile_source("int f(int a) { return a; } void main() { f(); }")

    def test_assign_to_array_name(self):
        with pytest.raises(MiniCError):
            compile_source("int a[3]; void main() { a = 1; }")

    def test_deref_non_pointer(self):
        with pytest.raises(MiniCError):
            compile_source("void main() { int x; *x = 1; }")

    def test_break_outside_loop(self):
        with pytest.raises(MiniCError):
            compile_source("void main() { break; }")

    def test_return_value_from_void(self):
        with pytest.raises(MiniCError):
            compile_source("void main() { return 1; }")

    def test_missing_return_value(self):
        with pytest.raises(MiniCError):
            compile_source("int f() { return; } void main() { }")

    def test_no_main(self):
        with pytest.raises(MiniCError):
            compile_source("int f() { return 0; }")

    def test_address_of_register_variable(self):
        with pytest.raises(MiniCError):
            compile_source("void main() { int x; int *p = &x; }")


class TestVerifiedOutput:
    def test_all_lowered_modules_verify(self):
        source = """
        int data[16];
        int process(int *p, int n) {
            int s = 0;
            int i;
            for (i = 0; i < n; i++) {
                if (p[i] % 2 == 0 && p[i] > 0) { s += p[i]; }
            }
            return s;
        }
        void main() {
            int i;
            for (i = 0; i < 16; i++) { data[i] = i - 4; }
            print(process(data, 16));
        }
        """
        module = compile_source(source)
        verify_module(module)
        assert run_module(module).output == ["30"]
