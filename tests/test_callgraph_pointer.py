"""Tests for the call graph and the Andersen pointer analysis."""

from repro.analysis.callgraph import build_callgraph
from repro.analysis.pointer import andersen_pointer_analysis, loc_key
from repro.frontend.lower import compile_source
from repro.ir import Opcode
from tests.ir_parser import parse_module
from repro.ir.types import Type
from repro.transform.inline import can_inline


class TestCallGraph:
    SOURCE = """
    int c() { return 1; }
    int b() { return c(); }
    int a() { return b() + c(); }
    int rec(int n) { if (n > 0) { return rec(n - 1); } return 0; }
    void main() { print(a()); print(rec(3)); }
    """

    def test_edges(self):
        module = compile_source(self.SOURCE)
        graph = build_callgraph(module)
        assert graph.callees("a") == ["b", "c"]
        assert graph.callers("c") == ["a", "b"]

    def test_transitive_callees(self):
        module = compile_source(self.SOURCE)
        graph = build_callgraph(module)
        assert graph.transitive_callees("a") == {"b", "c"}
        assert graph.transitive_callees("main") == {"a", "b", "c", "rec"}

    def test_recursion_detection(self):
        module = compile_source(self.SOURCE)
        graph = build_callgraph(module)
        assert graph.is_recursive("rec")
        assert not graph.is_recursive("a")

    def test_mutual_recursion_is_recursion(self):
        """``a -> b -> a``: both functions reach themselves, so Step 5
        inlines no call into the cycle -- neither of its own call sites,
        nor ``main``'s call of ``a`` -- while ``main``, outside it, is
        not recursive."""
        module = parse_module(
            """
module program

func int a(int %n.0) {
entry0:
  %t1 = lt %n.0, 1
  cbr %t1 -> done, more
done:
  ret 0
more:
  %t2 = sub %n.0, 1
  %t3 = call @b %t2
  ret %t3
}

func int b(int %m.0) {
entry0:
  %t4 = call @a %m.0
  %t5 = add %t4, 1
  ret %t5
}

func void main() {
entry0:
  %t0 = call @a 3
  print %t0
  ret
}
"""
        )
        graph = build_callgraph(module)
        assert graph.is_recursive("a")
        assert graph.is_recursive("b")
        assert not graph.is_recursive("main")
        calls = {
            (func.name, instr.callee): instr
            for func in module.functions.values()
            for instr in func.instructions()
            if instr.opcode is Opcode.CALL
        }
        assert not can_inline(module, calls["a", "b"])
        assert not can_inline(module, calls["b", "a"])
        assert not can_inline(module, calls["main", "a"])

    def test_call_sites_recorded(self):
        module = compile_source(self.SOURCE)
        graph = build_callgraph(module)
        assert len(graph.call_sites[("a", "c")]) == 1

    def test_functions_called_from_instructions(self):
        module = compile_source(self.SOURCE)
        graph = build_callgraph(module)
        main_instrs = list(module.functions["main"].instructions())
        called = graph.functions_called_from(main_instrs)
        assert called == {"a", "b", "c", "rec"}


class TestPointerAnalysis:
    def test_direct_lea(self):
        module = compile_source(
            """
            int data[8];
            void main() { int *p = &data[2]; *p = 1; }
            """
        )
        pts = andersen_pointer_analysis(module)
        func = module.functions["main"]
        store = next(
            i for i in func.instructions() if i.opcode is Opcode.STOREP
        )
        locs = pts.locations_accessed("main", store)
        assert locs == frozenset({(None, "data")})

    def test_flow_through_copy_and_arith(self):
        module = compile_source(
            """
            int data[8];
            void main() {
                int *p = data;
                int *q = p + 3;
                *q = 1;
            }
            """
        )
        pts = andersen_pointer_analysis(module)
        func = module.functions["main"]
        store = next(
            i for i in func.instructions() if i.opcode is Opcode.STOREP
        )
        assert pts.locations_accessed("main", store) == frozenset(
            {(None, "data")}
        )

    def test_flow_through_call_parameter(self):
        module = compile_source(
            """
            int a[4];
            int b[4];
            void write0(int *p) { p[0] = 1; }
            void main() { write0(a); write0(&b[1]); }
            """
        )
        pts = andersen_pointer_analysis(module)
        func = module.functions["write0"]
        store = next(
            i for i in func.instructions() if i.opcode is Opcode.STOREP
        )
        locs = pts.locations_accessed("write0", store)
        assert locs == frozenset({(None, "a"), (None, "b")})

    def test_distinct_arrays_do_not_alias(self):
        module = compile_source(
            """
            int a[4];
            int b[4];
            void main() {
                int *p = a;
                int *q = b;
                *p = 1;
                *q = 2;
            }
            """
        )
        pts = andersen_pointer_analysis(module)
        func = module.functions["main"]
        stores = [
            i for i in func.instructions() if i.opcode is Opcode.STOREP
        ]
        assert not pts.may_alias("main", stores[0], "main", stores[1])

    def test_local_arrays_tracked_per_function(self):
        module = compile_source(
            """
            void main() {
                int buf[4];
                int *p = buf;
                *p = 5;
                print(buf[0]);
            }
            """
        )
        pts = andersen_pointer_analysis(module)
        func = module.functions["main"]
        store = next(
            i for i in func.instructions() if i.opcode is Opcode.STOREP
        )
        assert pts.locations_accessed("main", store) == frozenset(
            {("main", "buf")}
        )

    def test_direct_ops_use_symbol_exactly(self):
        module = compile_source(
            """
            int g[4];
            void main() { g[1] = 2; print(g[1]); }
            """
        )
        pts = andersen_pointer_analysis(module)
        func = module.functions["main"]
        store = next(
            i for i in func.instructions() if i.opcode is Opcode.STOREG
        )
        load = next(i for i in func.instructions() if i.opcode is Opcode.LOADG)
        assert pts.may_alias("main", store, "main", load)

    def test_unknown_pointer_falls_back_to_everything(self):
        module = compile_source(
            """
            int a[2];
            void main() { a[0] = 1; }
            """
        )
        pts = andersen_pointer_analysis(module)
        from repro.ir.operands import VReg

        # A register never given points-to facts: conservative fallback.
        assert pts.pts("main", VReg(999, Type.PTR)) == pts.all_locations
