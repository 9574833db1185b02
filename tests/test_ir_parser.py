"""Tests for the textual IR parser (print -> parse round trips)."""

import pytest

from repro.frontend.lower import compile_source
from repro.ir import module_to_str
from tests.ir_parser import IRParseError, parse_module
from repro.runtime.interpreter import run_module


def roundtrip(source):
    module = compile_source(source)
    text = module_to_str(module)
    reparsed = parse_module(text)
    return module, reparsed


class TestRoundTrip:
    def test_simple_program(self):
        module, reparsed = roundtrip(
            """
            int g = 3;
            void main() { print(g + 4); }
            """
        )
        assert run_module(reparsed).output == run_module(module).output

    def test_control_flow(self):
        module, reparsed = roundtrip(
            """
            void main() {
                int i;
                int s = 0;
                for (i = 0; i < 7; i++) {
                    if (i % 2 == 0) { s += i; } else { s -= 1; }
                }
                print(s);
            }
            """
        )
        assert run_module(reparsed).output == run_module(module).output

    def test_functions_and_calls(self):
        module, reparsed = roundtrip(
            """
            int add(int a, int b) { return a + b; }
            void main() { print(add(2, 3)); }
            """
        )
        assert run_module(reparsed).output == ["5"]

    def test_arrays_and_pointers(self):
        module, reparsed = roundtrip(
            """
            int data[8];
            void main() {
                int *p = &data[2];
                *p = 11;
                p[1] = data[2] + 1;
                print(data[3]);
            }
            """
        )
        assert run_module(reparsed).output == ["12"]

    def test_local_arrays(self):
        module, reparsed = roundtrip(
            """
            void main() {
                int buf[4];
                buf[0] = 9;
                print(buf[0]);
            }
            """
        )
        assert run_module(reparsed).output == ["9"]

    def test_float_arithmetic(self):
        module, reparsed = roundtrip(
            """
            void main() {
                float f = 0.5;
                print(f * 4.0 + 1.0);
            }
            """
        )
        assert run_module(reparsed).output == ["3"]

    def test_global_initializers(self):
        module, reparsed = roundtrip(
            "int a[3] = {4, 5, 6};\nvoid main() { print(a[1]); }"
        )
        assert run_module(reparsed).output == ["5"]

    def test_transformed_module_roundtrips(self):
        """Even HELIX output (wait/signal/next_iter/xfer) round-trips."""
        from repro.analysis.loops import find_loops
        from repro.core.parallelizer import parallelize_module

        module = compile_source(
            """
            int total;
            void main() {
                int i;
                for (i = 0; i < 12; i++) { total = total + i * 3 % 5; }
                print(total);
            }
            """
        )
        loop = next(iter(find_loops(module.functions["main"])))
        transformed, _ = parallelize_module(module, [loop.id])
        text = module_to_str(transformed)
        reparsed = parse_module(text)
        assert run_module(reparsed).output == run_module(module).output


class TestHandWrittenIR:
    def test_author_ir_directly(self):
        text = """
        module hand
        global int @g[1]

        func void main() {
        entry:
          %t0 = add 2, 3
          storeg @g, 0, %t0
          %t1 = loadg @g, 0
          print %t1
          ret
        }
        """
        module = parse_module(text)
        assert run_module(module).output == ["5"]

    def test_branching_ir(self):
        text = """
        module hand

        func void main() {
        entry:
          %t0 = lt 1, 2
          cbr %t0 -> yes, no
        yes:
          print 1
          br -> done
        no:
          print 0
          br -> done
        done:
          ret
        }
        """
        module = parse_module(text)
        assert run_module(module).output == ["1"]


class TestErrors:
    def test_unknown_opcode(self):
        with pytest.raises(IRParseError):
            parse_module("module m\nfunc void main() {\nentry:\n  frobnicate\n}")

    def test_unknown_global(self):
        with pytest.raises(IRParseError):
            parse_module(
                "module m\nfunc void main() {\nentry:\n  %t0 = loadg @ghost, 0\n  ret\n}"
            )

    def test_instruction_outside_block(self):
        with pytest.raises(IRParseError):
            parse_module("module m\nfunc void main() {\n  ret\n}")

    def test_empty_input(self):
        with pytest.raises(IRParseError):
            parse_module("")
