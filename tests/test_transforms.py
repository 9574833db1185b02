"""Tests for the transforms HELIX builds on: inlining, normalization."""

import pytest

from repro.analysis.cfg import CFGView
from repro.analysis.loops import find_loops
from repro.frontend.lower import compile_source
from repro.ir import Opcode, verify_module
from repro.runtime.interpreter import run_module
from repro.transform.inline import InlineError, can_inline, inline_call
from repro.transform.normalize import normalize_loop


def first_call(func):
    return next(i for i in func.instructions() if i.opcode is Opcode.CALL)


class TestInlining:
    SOURCE = """
    int g;
    int twice(int x) { return x * 2; }
    void main() {
        int a = 5;
        g = twice(a) + 1;
        print(g);
    }
    """

    def test_semantics_preserved(self):
        module = compile_source(self.SOURCE)
        before = run_module(module).output
        func = module.functions["main"]
        inline_call(module, func, first_call(func))
        verify_module(module)
        after = run_module(module).output
        assert before == after == ["11"]

    def test_no_calls_remain(self):
        module = compile_source(self.SOURCE)
        func = module.functions["main"]
        inline_call(module, func, first_call(func))
        assert not any(
            i.opcode is Opcode.CALL for i in func.instructions()
        )

    def test_inline_with_control_flow(self):
        source = """
        int absval(int x) {
            if (x < 0) { return -x; }
            return x;
        }
        void main() { print(absval(-7) + absval(3)); }
        """
        module = compile_source(source)
        func = module.functions["main"]
        inline_call(module, func, first_call(func))
        inline_call(module, func, first_call(func))
        verify_module(module)
        assert run_module(module).output == ["10"]

    def test_inline_inside_loop(self):
        source = """
        int g;
        int step(int x) { return x + 3; }
        void main() {
            int s = 0;
            int i;
            for (i = 0; i < 4; i++) { s = step(s); }
            g = s;
            print(s);
        }
        """
        module = compile_source(source)
        before = run_module(module).output
        func = module.functions["main"]
        inline_call(module, func, first_call(func))
        verify_module(module)
        assert run_module(module).output == before
        # The loop now contains the callee's body.
        forest = find_loops(func)
        assert len(forest) == 1

    def test_callee_locals_renamed(self):
        source = """
        int f() {
            int buf[4];
            buf[0] = 9;
            return buf[0];
        }
        void main() { print(f()); }
        """
        module = compile_source(source)
        func = module.functions["main"]
        inline_call(module, func, first_call(func))
        verify_module(module)
        assert run_module(module).output == ["9"]
        assert any("buf" in name for name in func.locals)

    def test_clone_names_depend_on_the_caller_alone(self):
        """Clones are tagged with the first ``inl<n>`` the caller has
        not used, whatever the process inlined before: the same input
        prints the same IR every time."""
        from repro.ir.printer import module_to_str

        source = """
        int f(int x) { int buf[2]; buf[0] = x; return buf[0] + 1; }
        int g(int x) { return f(x) * 2; }
        void main() { print(f(1) + f(2)); print(g(3)); }
        """

        def inlined():
            module = compile_source(source)
            main, g = module.functions["main"], module.functions["g"]
            inline_call(module, main, first_call(main))
            inline_call(module, g, first_call(g))
            inline_call(module, main, first_call(main))
            verify_module(module)
            return module

        first = inlined()
        main, g = first.functions["main"], first.functions["g"]
        # Per caller, from one: the count does not run across functions.
        assert {n.split("_")[0] for n in main.blocks if "_" in n} == {
            "inl1", "inl2",
        }
        assert set(main.locals) == {"inl1_buf", "inl2_buf"}
        assert "inl1_cont" in g.blocks and "inl2_cont" not in g.blocks
        assert module_to_str(inlined()) == module_to_str(first)
        assert run_module(first).output == ["5", "8"]
        # A callee that was itself inlined into keeps its tags inside
        # the caller's: no clash with the caller's own ``inl1``.
        inline_call(first, main, first_call(main))
        verify_module(first)
        assert "inl3_inl1_cont" in main.blocks
        assert run_module(first).output == ["5", "8"]

    def test_can_inline_rejects_recursion(self):
        source = """
        int rec(int n) { if (n > 0) { return rec(n - 1); } return 0; }
        void main() { print(rec(2)); }
        """
        module = compile_source(source)
        func = module.functions["main"]
        assert not can_inline(module, first_call(func))

    def test_can_inline_rejects_oversized(self):
        module = compile_source(self.SOURCE)
        func = module.functions["main"]
        assert not can_inline(module, first_call(func), max_callee_instructions=1)

    def test_void_callee(self):
        source = """
        int g;
        void bump() { g = g + 1; }
        void main() { bump(); bump(); print(g); }
        """
        module = compile_source(source)
        func = module.functions["main"]
        inline_call(module, func, first_call(func))
        verify_module(module)
        assert run_module(module).output == ["2"]


class TestNormalization:
    def get_loop(self, source):
        module = compile_source(source)
        func = module.functions["main"]
        loop = next(iter(find_loops(func)))
        return module, func, loop

    def test_for_loop_regions(self):
        module, func, loop = self.get_loop(
            "void main() { int i; for (i = 0; i < 4; i++) { print(i); } }"
        )
        norm = normalize_loop(func, loop)
        verify_module(module)
        assert norm.header == loop.header
        assert norm.header in norm.prologue_blocks
        assert norm.latch in norm.body_blocks
        assert norm.prologue_blocks.isdisjoint(norm.body_blocks)
        assert norm.prologue_blocks | norm.body_blocks == norm.blocks

    def test_crossing_edges_from_prologue_to_body(self):
        module, func, loop = self.get_loop(
            "void main() { int i; for (i = 0; i < 4; i++) { print(i); } }"
        )
        norm = normalize_loop(func, loop)
        assert norm.crossing_edges
        for src, dst in norm.crossing_edges:
            assert src in norm.prologue_blocks
            assert dst in norm.body_blocks

    def test_break_extends_prologue(self):
        module, func, loop = self.get_loop(
            """
            void main() {
                int i;
                for (i = 0; i < 100; i++) {
                    if (i == 5) { break; }
                    print(i);
                }
            }
            """
        )
        norm = normalize_loop(func, loop)
        # Blocks up to and including the break test can leave the loop,
        # so they belong to the prologue.
        exits = {src for src, _dst in norm.exit_edges}
        assert exits <= norm.prologue_blocks

    def test_multi_latch_unified(self):
        module, func, loop = self.get_loop(
            """
            void main() {
                int i = 0;
                while (i < 10) {
                    if (i % 2 == 0) { i = i + 3; continue; }
                    i = i + 1;
                }
                print(i);
            }
            """
        )
        before = run_module(module).output
        norm = normalize_loop(func, loop)
        verify_module(module)
        assert run_module(module).output == before
        # All back edges now come through one latch.
        forest = find_loops(func)
        new_loop = forest.by_header[norm.header]
        assert len(new_loop.latches) == 1

    def test_preheader_created(self):
        module, func, loop = self.get_loop(
            """
            void main() {
                int i = 0;
                int r = 0;
                if (r == 0) { i = 1; }
                while (i < 5) { i = i + 2; }
                print(i);
            }
            """
        )
        before = run_module(module).output
        norm = normalize_loop(func, loop)
        verify_module(module)
        cfg = CFGView(func)
        outside_preds = [
            p for p in cfg.preds[norm.header] if p not in norm.blocks
        ]
        assert outside_preds == [norm.preheader]
        assert run_module(module).output == before

    def test_semantics_preserved(self):
        source = """
        int acc;
        void main() {
            int i;
            for (i = 0; i < 10; i++) {
                if (i == 7) { break; }
                acc = acc + i;
            }
            print(acc);
        }
        """
        module, func, loop = self.get_loop(source)
        before = run_module(module).output
        normalize_loop(func, loop)
        verify_module(module)
        assert run_module(module).output == before
