"""Tests for the loop-carried dependence analysis (HELIX Step 2)."""

from repro.analysis.dependence import (
    DependenceAnalysis,
    DependenceKind,
    affine_of,
)
from repro.analysis.induction import analyze_induction
from repro.analysis.loops import find_loops
from repro.frontend.lower import compile_source
from repro.ir import Opcode


def loop_deps(source, func_name="main", header_prefix="for"):
    module = compile_source(source)
    func = module.functions[func_name]
    forest = find_loops(func)
    loop = next(l for l in forest if l.header.startswith(header_prefix))
    analysis = DependenceAnalysis(module)
    return module, func, loop, analysis.loop_dependences(func, loop)


class TestDoall:
    def test_iv_indexed_array_has_no_carried_deps(self):
        _, _, _, deps = loop_deps(
            """
            int a[16];
            void main() {
                int i;
                for (i = 0; i < 16; i++) { a[i] = a[i] + 1; }
            }
            """
        )
        assert deps == []

    def test_reads_of_readonly_arrays_are_free(self):
        _, _, _, deps = loop_deps(
            """
            int a[16];
            int b[16];
            void main() {
                int i;
                for (i = 0; i < 16; i++) { b[i] = a[i] * 2; }
            }
            """
        )
        assert deps == []

    def test_strided_affine_accesses_disambiguated(self):
        _, _, _, deps = loop_deps(
            """
            int a[64];
            void main() {
                int i;
                for (i = 0; i < 16; i++) { a[2 * i + 1] = a[2 * i + 1] + 1; }
            }
            """
        )
        assert deps == []

    def test_distinct_constant_cells_never_conflict(self):
        _, _, _, deps = loop_deps(
            """
            int a[4];
            void main() {
                int i;
                for (i = 0; i < 8; i++) { a[0] = i; print(a[1]); }
            }
            """
        )
        # a[0] is written, a[1] is read: distinct constants, but the
        # write-write on a[0] across iterations is still carried (WAW).
        kinds = {d.kind for d in deps}
        assert DependenceKind.RAW not in kinds


class TestCarriedMemory:
    def test_scalar_global_accumulator(self):
        _, _, _, deps = loop_deps(
            """
            int total;
            void main() {
                int i;
                for (i = 0; i < 8; i++) { total = total + i; }
            }
            """
        )
        raw = [d for d in deps if d.kind is DependenceKind.RAW]
        assert raw, "accumulator through memory must be carried"
        assert raw[0].transfer_words == 1

    def test_shifted_subscript_is_carried(self):
        _, _, _, deps = loop_deps(
            """
            int a[32];
            void main() {
                int i;
                for (i = 1; i < 31; i++) { a[i] = a[i - 1] + 1; }
            }
            """
        )
        assert any(d.kind is DependenceKind.RAW for d in deps)

    def test_data_dependent_subscript_is_carried(self):
        _, _, _, deps = loop_deps(
            """
            int hist[16];
            int data[32];
            void main() {
                int i;
                for (i = 0; i < 32; i++) {
                    hist[data[i] % 16] = hist[data[i] % 16] + 1;
                }
            }
            """
        )
        assert any("hist" in d.location for d in deps)

    def test_pointer_accesses_conservative(self):
        _, _, _, deps = loop_deps(
            """
            int a[32];
            void main() {
                int *p = a;
                int i;
                for (i = 0; i < 8; i++) { *p = *p + 1; p = p + 1; }
            }
            """
        )
        assert any(d.kind in (DependenceKind.RAW, DependenceKind.WAW) for d in deps)

    def test_calls_carry_callee_effects(self):
        module, func, loop, deps = loop_deps(
            """
            int total;
            void bump() { total = total + 1; }
            void main() {
                int i;
                for (i = 0; i < 4; i++) { bump(); }
            }
            """
        )
        assert deps, "call writing a global must create a dependence"
        endpoints = deps[0].endpoints()
        assert all(e.opcode is Opcode.CALL for e in endpoints)


class TestCarriedRegisters:
    def test_register_accumulator(self):
        _, _, _, deps = loop_deps(
            """
            int g;
            void main() {
                int s = 0;
                int i;
                for (i = 0; i < 8; i++) { s = s * 3 + i; }
                g = s;
            }
            """
        )
        reg = [d for d in deps if d.kind is DependenceKind.REGISTER]
        assert len(reg) == 1
        assert reg[0].transfer_words == 1
        assert reg[0].sources and reg[0].sinks

    def test_induction_variable_exempt(self):
        _, _, _, deps = loop_deps(
            "void main() { int i; for (i = 0; i < 8; i++) { } }"
        )
        assert deps == []

    def test_invariant_exempt(self):
        _, _, _, deps = loop_deps(
            """
            void main() {
                int k = 7;
                int i;
                for (i = 0; i < 8; i++) { print(i + k); }
            }
            """
        )
        assert [d for d in deps if d.kind is DependenceKind.REGISTER] == []

    def test_iteration_private_value_exempt(self):
        _, _, _, deps = loop_deps(
            """
            void main() {
                int i;
                for (i = 0; i < 8; i++) {
                    int t = i * 2;
                    print(t);
                }
            }
            """
        )
        assert [d for d in deps if d.kind is DependenceKind.REGISTER] == []

    def test_sinks_are_upward_exposed_only(self):
        _, func, _, deps = loop_deps(
            """
            int g;
            void main() {
                int s = 0;
                int i;
                for (i = 0; i < 8; i++) {
                    s = s * 2 + 1;
                    print(s);
                }
                g = s;
            }
            """
        )
        reg = [d for d in deps if d.kind is DependenceKind.REGISTER][0]
        # print(s) happens after the redefinition, so it consumes the
        # current iteration's value, not the carried one.
        sink_ops = {i.opcode for i in reg.sinks}
        assert Opcode.PRINT not in sink_ops

    def test_constant_step_accumulator_is_iv_exempt(self):
        # `s = s + 1` is itself an induction variable: locally computable
        # from the iteration number, so no synchronization is needed.
        _, _, _, deps = loop_deps(
            """
            int g;
            void main() {
                int s = 0;
                int i;
                for (i = 0; i < 8; i++) { s = s + 1; }
                g = s;
            }
            """
        )
        assert [d for d in deps if d.kind is DependenceKind.REGISTER] == []


class TestStatistics:
    def test_dependence_statistics(self):
        module = compile_source(
            """
            int a[16];
            int total;
            void main() {
                int i;
                for (i = 0; i < 16; i++) {
                    a[i] = a[i] + 1;
                    total = total + a[i];
                }
            }
            """
        )
        func = module.functions["main"]
        forest = find_loops(func)
        loop = next(iter(forest))
        analysis = DependenceAnalysis(module)
        examined, carried = analysis.loop_dependence_statistics(func, loop)
        assert examined > carried > 0


class TestAffineCanonicalization:
    def get_info(self, source):
        module = compile_source(source)
        func = module.functions["main"]
        forest = find_loops(func)
        loop = next(iter(forest))
        info = analyze_induction(func, loop)
        return func, loop, info

    def test_same_expression_same_shape(self):
        func, loop, info = self.get_info(
            """
            int a[32];
            void main() {
                int i;
                for (i = 0; i < 8; i++) { a[i + 3] = a[i + 3] + 1; }
            }
            """
        )
        indices = []
        for instr in loop.instructions():
            if instr.opcode in (Opcode.LOADG, Opcode.STOREG):
                form = affine_of(instr.args[1], info)
                if form is not None:
                    indices.append(form)
        assert len(indices) >= 2
        assert indices[0].same_shape(indices[1])
        assert indices[0].coeff == 1 and indices[0].const == 3
