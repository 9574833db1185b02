"""Property-based tests (hypothesis) for core invariants.

The headline property: for randomly generated MiniC programs, HELIX
parallelization preserves observable behaviour exactly -- the paper's
non-speculative correctness claim.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import MachineConfig, compile_minic, parallelize_and_run
from repro.analysis.cfg import CFGView
from repro.analysis.dominators import dominators
from repro.analysis.loops import find_loops
from repro.runtime.interpreter import run_module
from repro.runtime.interpreter import c_div, c_mod, wrap_int

from tests.helpers import build_cfg

# ---------------------------------------------------------------- arithmetic

ints64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestArithmeticProperties:
    @given(ints64)
    def test_wrap_int_is_idempotent(self, x):
        assert wrap_int(wrap_int(x)) == wrap_int(x)

    @given(st.integers())
    def test_wrap_int_in_range(self, x):
        w = wrap_int(x)
        assert -(2**63) <= w < 2**63

    @given(st.integers())
    def test_wrap_int_congruent_mod_2_64(self, x):
        assert (wrap_int(x) - x) % (2**64) == 0

    @given(ints64, ints64.filter(lambda b: b != 0))
    def test_c_division_identity(self, a, b):
        q, r = c_div(a, b), c_mod(a, b)
        assert q * b + r == a
        assert abs(r) < abs(b)

    @given(ints64, ints64.filter(lambda b: b != 0))
    def test_c_mod_sign_follows_dividend(self, a, b):
        r = c_mod(a, b)
        assert r == 0 or (r > 0) == (a > 0)


# ---------------------------------------------------------------- expressions


@st.composite
def int_exprs(draw, depth=0):
    """A MiniC integer expression over variables a, b, c with its Python
    evaluator."""
    if depth > 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            value = draw(st.integers(-50, 50))
            return str(value), lambda env, v=value: v
        name = "abc"[choice - 1]
        return name, lambda env, n=name: env[n]
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
    left_src, left_fn = draw(int_exprs(depth=depth + 1))
    right_src, right_fn = draw(int_exprs(depth=depth + 1))

    def evaluate(env, op=op, lf=left_fn, rf=right_fn):
        a, b = lf(env), rf(env)
        if op == "+":
            return wrap_int(a + b)
        if op == "-":
            return wrap_int(a - b)
        if op == "*":
            return wrap_int(a * b)
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        return a ^ b

    return f"({left_src} {op} {right_src})", evaluate


class TestExpressionSemantics:
    @settings(max_examples=60, deadline=None)
    @given(
        int_exprs(),
        st.integers(-30, 30),
        st.integers(-30, 30),
        st.integers(-30, 30),
    )
    def test_compiled_expression_matches_python_model(self, expr, a, b, c):
        source, evaluate = expr
        program = f"""
        void main() {{
            int a = {a}; int b = {b}; int c = {c};
            print({source});
        }}
        """
        module = compile_minic(program)
        expected = evaluate({"a": a, "b": b, "c": c})
        assert run_module(module).output == [str(expected)]


# ---------------------------------------------------------------- dominators


@st.composite
def random_cfgs(draw):
    """A random connected CFG over up to 8 blocks (plus entry/exit)."""
    n = draw(st.integers(2, 8))
    names = [f"N{i}" for i in range(n)]
    edges = {}
    for i, name in enumerate(names):
        choices = names[max(0, i - 2): i] + names[i + 1:]
        count = draw(st.integers(0, min(2, len(choices))))
        targets = draw(
            st.lists(
                st.sampled_from(choices),
                min_size=count,
                max_size=count,
                unique=True,
            )
        ) if choices else []
        edges[name] = targets
    return edges


class TestDominatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_cfgs())
    def test_entry_dominates_reachable(self, edges):
        cfg = CFGView(build_cfg(edges, entry="N0"))
        dom = dominators(cfg)
        for node in dom.idom:
            assert dom.dominates("N0", node)

    @settings(max_examples=60, deadline=None)
    @given(random_cfgs())
    def test_idom_strictly_dominates(self, edges):
        cfg = CFGView(build_cfg(edges, entry="N0"))
        dom = dominators(cfg)
        for node, parent in dom.idom.items():
            if parent is not None and node != dom.root:
                assert dom.strictly_dominates(parent, node)

    @settings(max_examples=60, deadline=None)
    @given(random_cfgs())
    def test_loop_headers_dominate_their_blocks(self, edges):
        func = build_cfg(edges, entry="N0")
        cfg = CFGView(func)
        dom = dominators(cfg)
        forest = find_loops(func, cfg, dom)
        for loop in forest:
            for block in loop.blocks:
                assert dom.dominates(loop.header, block)


# ---------------------------------------------------------------- end to end


@st.composite
def loop_programs(draw):
    """Random loop nests mixing DOALL writes, accumulators and branches."""
    iters = draw(st.integers(3, 20))
    stride = draw(st.integers(1, 3))
    acc_op = draw(st.sampled_from(["+", "^"]))
    acc_expr = draw(
        st.sampled_from(["i * 3", "a[i % 16]", "i * i + 1", "total % 7 + i"])
    )
    use_branch = draw(st.booleans())
    branch_mod = draw(st.integers(2, 4))
    inner = draw(st.integers(0, 12))
    body = []
    if inner:
        body.append(
            f"int k = 0; int f = 0;"
            f" while (k < {inner}) {{ f = f + (k ^ i); k++; }}"
            f" a[i % 16] = f;"
        )
    else:
        body.append("a[i % 16] = i * 2;")
    update = f"total = total {acc_op} ({acc_expr});"
    if use_branch:
        body.append(f"if (i % {branch_mod} == 0) {{ {update} }}")
    else:
        body.append(update)
    body_src = "\n        ".join(body)
    return f"""
    int a[16];
    int total;
    void main() {{
        int i;
        for (i = 0; i < {iters}; i = i + {stride}) {{
            {body_src}
        }}
        print(total);
        int j;
        int chk = 0;
        for (j = 0; j < 16; j++) {{ chk = chk ^ a[j] * (j + 1); }}
        print(chk);
    }}
    """


class TestParallelizationCorrectness:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(loop_programs(), st.sampled_from([2, 4, 6]))
    def test_parallel_output_equals_sequential(self, source, cores):
        module = compile_minic(source)
        baseline = run_module(module)
        from repro.analysis.loops import find_loops

        loop_ids = [
            l.id
            for l in find_loops(module.functions["main"])
            if l.parent is None
        ]
        result = parallelize_and_run(
            module,
            MachineConfig(cores=cores),
            loop_ids=loop_ids,
        )
        assert result.parallel.result.output == baseline.output


class TestIRRoundTripProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(loop_programs())
    def test_print_parse_preserves_behaviour(self, source):
        """module_to_str / parse_module round-trips any frontend output."""
        from repro.ir import module_to_str
        from tests.ir_parser import parse_module

        module = compile_minic(source)
        baseline = run_module(module)
        reparsed = parse_module(module_to_str(module))
        assert run_module(reparsed).output == baseline.output
