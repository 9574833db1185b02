"""Regression-style frontend tests: trickier MiniC shapes."""

import pytest

from repro.frontend.errors import MiniCError
from repro.frontend.lower import compile_source
from repro.runtime.interpreter import run_module


def run(source):
    return run_module(compile_source(source)).output


class TestTrickyControlFlow:
    def test_short_circuit_in_loop_condition(self):
        source = """
        int a[8];
        void main() {
            int i = 0;
            while (i < 8 && a[i] == 0) {
                a[i] = 1;
                i++;
            }
            print(i);
        }
        """
        assert run(source) == ["8"]

    def test_or_condition_with_side_window(self):
        source = """
        void main() {
            int x = 0;
            int y = 10;
            while (x < 3 || y > 8) {
                x++;
                y--;
            }
            print(x);
            print(y);
        }
        """
        # Loop runs while x<3 or y>8: iterations 1..3 get x to 3 / y to 7.
        assert run(source) == ["3", "7"]

    def test_nested_breaks_bind_to_inner_loop(self):
        source = """
        void main() {
            int count = 0;
            int i;
            for (i = 0; i < 3; i++) {
                int j;
                for (j = 0; j < 10; j++) {
                    if (j == 1) { break; }
                    count++;
                }
            }
            print(count);
        }
        """
        assert run(source) == ["3"]

    def test_continue_in_while_rechecks_condition(self):
        source = """
        void main() {
            int i = 0;
            int s = 0;
            while (i < 10) {
                i++;
                if (i % 2 == 0) { continue; }
                s += i;
            }
            print(s);
        }
        """
        assert run(source) == ["25"]

    def test_deeply_nested_conditionals(self):
        source = """
        void main() {
            int x = 5;
            if (x > 0) {
                if (x > 3) {
                    if (x > 4) { print(1); } else { print(2); }
                } else { print(3); }
            } else { print(4); }
        }
        """
        assert run(source) == ["1"]

    def test_empty_loop_body(self):
        assert run("void main() { int i; for (i = 0; i < 5; i++) { } print(i); }") == ["5"]

    def test_loop_with_zero_iterations(self):
        source = """
        void main() {
            int n = 0;
            int s = 7;
            int i;
            for (i = 0; i < n; i++) { s = 0; }
            print(s);
        }
        """
        assert run(source) == ["7"]


class TestOperatorsAndLiterals:
    def test_compound_operators_all(self):
        source = """
        void main() {
            int x = 20;
            x += 4; print(x);
            x -= 6; print(x);
            x *= 2; print(x);
            x /= 3; print(x);
            x %= 7; print(x);
        }
        """
        assert run(source) == ["24", "18", "36", "12", "5"]

    def test_decrement(self):
        assert run("void main() { int i = 3; i--; i--; print(i); }") == ["1"]

    def test_negative_global_initializer(self):
        assert run("int g = -9;\nvoid main() { print(g); }") == ["-9"]

    def test_float_literal_formats(self):
        assert run("void main() { print(1e2); print(.25); print(2.5e-1); }") == [
            "100",
            "0.25",
            "0.25",
        ]

    def test_unary_chain(self):
        assert run("void main() { int x = 3; print(- -x); print(!!x); }") == [
            "3",
            "1",
        ]

    def test_modulo_precedence_with_compare(self):
        assert run("void main() { print(7 % 3 == 1); }") == ["1"]

    def test_large_integers_wrap(self):
        source = """
        void main() {
            int big = 1;
            int i;
            for (i = 0; i < 64; i++) { big = big * 2; }
            print(big);
        }
        """
        # 2^64 wraps to 0 in 64-bit arithmetic.
        assert run(source) == ["0"]


class TestScopesAndShadowing:
    def test_loop_variable_scoped_to_block(self):
        source = """
        void main() {
            int i;
            for (i = 0; i < 2; i++) {
                int v = i * 10;
                print(v);
            }
        }
        """
        assert run(source) == ["0", "10"]

    def test_same_name_in_sibling_blocks(self):
        source = """
        void main() {
            if (1) { int t = 1; print(t); }
            if (1) { int t = 2; print(t); }
        }
        """
        assert run(source) == ["1", "2"]

    def test_local_array_shadowing_global(self):
        source = """
        int a[4];
        void fill_global() { a[0] = 100; }
        void main() {
            int a[4];
            a[0] = 5;
            fill_global();
            print(a[0]);
        }
        """
        assert run(source) == ["5"]

    def test_duplicate_param_rejected(self):
        with pytest.raises(MiniCError):
            compile_source("int f(int a, int a) { return a; } void main(){}")


class TestComments:
    def test_comments_everywhere(self):
        source = """
        // leading comment
        int g = 1; /* trailing */
        void main() {
            /* block
               spanning lines */
            print(g); // end of line
        }
        """
        assert run(source) == ["1"]
