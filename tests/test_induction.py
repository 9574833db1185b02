"""Tests for induction-variable and invariant analysis."""

from repro.analysis.induction import analyze_induction
from repro.analysis.loops import find_loops
from repro.frontend.lower import compile_source


def loop_induction(source, header_prefix="for"):
    module = compile_source(source)
    func = module.functions["main"]
    forest = find_loops(func)
    loop = next(l for l in forest if l.header.startswith(header_prefix))
    return func, loop, analyze_induction(func, loop)


def uid_of(func, name):
    for instr in func.instructions():
        if instr.dest is not None and instr.dest.name == name:
            return instr.dest.uid
    raise AssertionError(name)


class TestBasicIVs:
    def test_for_counter_detected(self):
        func, loop, info = loop_induction(
            "void main() { int i; for (i = 0; i < 9; i++) { } }"
        )
        i_uid = uid_of(func, "i")
        assert i_uid in info.basic_ivs
        iv = info.basic_ivs[i_uid]
        assert iv.step == 1
        assert iv.once_per_iteration
        assert iv.disambiguates

    def test_negative_step(self):
        func, loop, info = loop_induction(
            "void main() { int i; for (i = 9; i > 0; i--) { } }"
        )
        iv = info.basic_ivs[uid_of(func, "i")]
        assert iv.step == -1

    def test_strided_step(self):
        func, loop, info = loop_induction(
            "void main() { int i; for (i = 0; i < 20; i += 3) { } }"
        )
        iv = info.basic_ivs[uid_of(func, "i")]
        assert iv.step == 3

    def test_invariant_step_has_no_constant(self):
        func, loop, info = loop_induction(
            """
            void main() {
                int n = 2;
                int i;
                for (i = 0; i < 20; i += n) { }
            }
            """
        )
        iv = info.basic_ivs[uid_of(func, "i")]
        assert iv.step is None
        assert not iv.disambiguates

    def test_conditional_update_is_not_basic_iv(self):
        func, loop, info = loop_induction(
            """
            void main() {
                int i = 0;
                int steps = 0;
                for (steps = 0; steps < 10; steps++) {
                    if (steps % 2 == 0) { i = i + 1; }
                }
                print(i);
            }
            """
        )
        i_uid = uid_of(func, "i")
        iv = info.basic_ivs.get(i_uid)
        # Conditionally updated: allowed as an IV for sync exemption, but
        # it must not be used for subscript disambiguation.
        assert iv is None or not iv.disambiguates

    def test_non_iv_accumulator(self):
        func, loop, info = loop_induction(
            """
            int g;
            void main() {
                int s = 0;
                int i;
                for (i = 0; i < 4; i++) { s = s * 2 + 1; }
                g = s;
            }
            """
        )
        s_uid = uid_of(func, "s")
        assert s_uid not in info.basic_ivs
        assert not info.sync_exempt(s_uid)


class TestInvariants:
    def test_outside_defined_register_invariant(self):
        func, loop, info = loop_induction(
            """
            int g;
            void main() {
                int bound = 17;
                int i;
                int s = 0;
                for (i = 0; i < 10; i++) { s += bound; }
                g = s;
            }
            """
        )
        assert info.is_invariant(uid_of(func, "bound"))

    def test_in_loop_pure_computation_of_invariants(self):
        func, loop, info = loop_induction(
            """
            int g;
            void main() {
                int a = 3;
                int i;
                int s = 0;
                for (i = 0; i < 10; i++) {
                    int scaled = a * 4;
                    s += scaled;
                }
                g = s;
            }
            """
        )
        assert info.is_invariant(uid_of(func, "scaled"))

    def test_loads_are_not_invariant(self):
        func, loop, info = loop_induction(
            """
            int g[4];
            void main() {
                int i;
                int s = 0;
                for (i = 0; i < 4; i++) {
                    int v = g[0];
                    s += v;
                    g[0] = s;
                }
            }
            """
        )
        assert not info.is_invariant(uid_of(func, "v"))


class TestDerivedIVs:
    def test_scaled_iv_is_derived(self):
        func, loop, info = loop_induction(
            """
            int g[64];
            void main() {
                int i;
                for (i = 0; i < 8; i++) {
                    int idx = i * 8 + 1;
                    g[idx % 64] = i;
                }
            }
            """
        )
        assert info.is_induction(uid_of(func, "idx"))

    def test_sync_exempt_covers_ivs_and_invariants(self):
        func, loop, info = loop_induction(
            """
            void main() {
                int k = 5;
                int i;
                for (i = 0; i < 4; i++) { int t = i + k; print(t); }
            }
            """
        )
        assert info.sync_exempt(uid_of(func, "i"))
        assert info.sync_exempt(uid_of(func, "k"))


class TestReadonlyGlobals:
    def test_readonly_global_load_is_invariant(self):
        from repro.analysis.dependence import DependenceAnalysis
        from repro.frontend.lower import compile_source

        source = """
        int W = 32;
        int grid[1024];
        void main() {
            int row;
            for (row = 0; row < 4; row++) {
                int col;
                for (col = 0; col < W; col++) {
                    grid[row * W + col] = grid[row * W + col] + 1;
                }
            }
        }
        """
        module = compile_source(source)
        analysis = DependenceAnalysis(module)
        assert "W" in analysis.readonly_globals
        assert "grid" not in analysis.readonly_globals
        func = module.functions["main"]
        from repro.analysis.loops import find_loops

        inner = next(
            l for l in find_loops(func) if l.parent is not None
        )
        # row*W + col is affine once the W load is invariant: no deps.
        assert analysis.loop_dependences(func, inner) == []

    def test_written_global_not_readonly(self):
        from repro.analysis.dependence import DependenceAnalysis
        from repro.frontend.lower import compile_source

        module = compile_source(
            """
            int N = 8;
            void main() { N = 9; print(N); }
            """
        )
        analysis = DependenceAnalysis(module)
        assert "N" not in analysis.readonly_globals

    def test_pointer_store_disqualifies(self):
        from repro.analysis.dependence import DependenceAnalysis
        from repro.frontend.lower import compile_source

        module = compile_source(
            """
            int a[4];
            void main() { int *p = a; *p = 1; print(a[0]); }
            """
        )
        analysis = DependenceAnalysis(module)
        assert "a" not in analysis.readonly_globals


class TestConditionalCounters:
    def test_conditional_counter_not_sync_exempt(self):
        """A conditionally-bumped counter is not locally computable from
        the iteration number: it must keep its synchronization."""
        func, loop, info = loop_induction(
            """
            int g;
            void main() {
                int hits = 0;
                int i;
                for (i = 0; i < 10; i++) {
                    if (i % 3 == 0) { hits = hits + 1; }
                }
                g = hits;
            }
            """
        )
        hits_uid = uid_of(func, "hits")
        assert not info.sync_exempt(hits_uid)

    def test_unconditional_counter_exempt(self):
        func, loop, info = loop_induction(
            """
            int g;
            void main() {
                int n = 0;
                int i;
                for (i = 0; i < 10; i++) { n = n + 2; }
                g = n;
            }
            """
        )
        assert info.sync_exempt(uid_of(func, "n"))

    def test_derived_of_conditional_iv_not_exempt(self):
        func, loop, info = loop_induction(
            """
            int g[64];
            void main() {
                int hits = 0;
                int i;
                for (i = 0; i < 10; i++) {
                    if (i % 3 == 0) { hits = hits + 1; }
                    int slot = hits * 2;
                    g[slot % 64] = i;
                }
            }
            """
        )
        assert not info.sync_exempt(uid_of(func, "slot"))

    def test_conditional_counter_creates_dependence(self):
        from repro.analysis.dependence import (
            DependenceAnalysis,
            DependenceKind,
        )
        from repro.analysis.loops import find_loops
        from repro.frontend.lower import compile_source

        module = compile_source(
            """
            int g;
            void main() {
                int hits = 0;
                int i;
                for (i = 0; i < 10; i++) {
                    if (i % 3 == 0) { hits = hits + 1; }
                }
                g = hits;
            }
            """
        )
        func = module.functions["main"]
        loop = next(iter(find_loops(func)))
        deps = DependenceAnalysis(module).loop_dependences(func, loop)
        assert any(d.kind is DependenceKind.REGISTER for d in deps)
