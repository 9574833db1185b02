"""Edge-case parity of the precompiled (generated) tier with the tree walker.

Whole-program identity with the tree walker lives in
``test_backend_differential`` and the generated tier's own mechanics in
``test_codegen``; these tests pin down, on small constructed programs,
what a run compiled ahead of execution must share with the walker: fault
text, the over-budget rule (``tests.helpers.assert_over_budget``) on
programs that never terminate, and the per-run state an interpreter
resets or keeps.
"""

import pytest

from repro.frontend.lower import compile_source
from repro.runtime.interpreter import (
    ExecutionLimitExceeded,
    Interpreter,
    RuntimeFault,
    run_module,
)
from tests.helpers import assert_over_budget

COUNT_SRC = """
int total;
void main() {
    int i;
    for (i = 0; i < 50; i++) { total = total + i; }
    print(total);
}
"""


def _fault_message(module, backend, **kwargs):
    with pytest.raises(RuntimeFault) as excinfo:
        run_module(module, backend=backend, **kwargs)
    return str(excinfo.value)


class TestFaultParity:
    @pytest.mark.parametrize(
        "body,decls",
        [
            ("print(a[7]);", "int a[4];"),
            ("a[0 - 1] = 1;", "int a[4];"),
            ("int *p = &a[2]; print(p[5]);", "int a[4];"),
            ("int *p = &a[2]; p[5] = 1;", "int a[4];"),
            ("int z = 0; print(1 / z);", ""),
            ("int z = 0; print(1 % z);", ""),
            ("int s = 64; print(1 << s);", ""),
        ],
    )
    def test_fault_messages_identical(self, body, decls):
        module = compile_source(f"{decls}\nvoid main() {{ {body} }}")
        assert _fault_message(module, "tree") == _fault_message(
            module, "superblock"
        )


#: Programs that never terminate, each a different way round a cycle:
#: a loop-form arm's back edge, two chains of which neither is loop-form
#: (the cycle passes arm entries only), a body that is one CALL (the
#: check after the call's return and the back edge), and a long callee
#: followed by as long a tail: without the check after the call, the
#: tail would run too and overshoot the limit by more than any chain.
NON_TERMINATING = {
    "loop_form": """
        void main() {
            int i = 0;
            while (1) { print(i); i = i + 1; }
        }
    """,
    "across_chains": """
        int g;
        void main() {
            int i = 0;
            while (1) {
                if (i % 3 == 0) { g = g + 1; } else { g = g - 2; }
                i = i + 1;
            }
        }
    """,
    "call_only": """
        int g;
        void tick() { g = g + 1; }
        void main() {
            while (1) { tick(); }
        }
    """,
    "call_then_tail": """
        int g;
        void churn() {
            g = g * 3 + 1; g = g % 1009; g = g * 5 + 2; g = g % 1013;
            g = g * 7 + 3; g = g % 1019; g = g * 9 + 4; g = g % 1021;
        }
        void main() {
            while (1) {
                churn();
                g = g * 3 + 5; g = g % 1031; g = g * 5 + 6; g = g % 1033;
                g = g * 7 + 7; g = g % 1039; g = g * 9 + 8; g = g % 1049;
            }
        }
    """,
}


def _limited(module):
    return lambda backend, limit: Interpreter(
        module, max_instructions=limit, backend=backend
    )


class TestLimitParity:
    @pytest.mark.parametrize(
        "shape,limit",
        [
            pytest.param("loop_form", limit, id=str(limit))
            for limit in (1, 7, 50, 123, 499)
        ]
        + [
            pytest.param(shape, limit, id=f"{shape}-{limit}")
            for shape in ("across_chains", "call_only", "call_then_tail")
            for limit in (1, 50, 499)
        ],
    )
    def test_limit_fires_at_identical_instruction(self, shape, limit):
        """The walker fires on the first instruction past the limit,
        generated code at its next check (the over-budget rule)."""
        module = compile_source(NON_TERMINATING[shape])
        assert_over_budget(_limited(module), limit)
        interp = Interpreter(module, max_instructions=limit)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run()
        sources = [sfunc.source for sfunc in interp._superblocks.values()]
        # Loop-form arms nest an iteration loop inside the dispatch loop.
        loop_form = any(source.count("while True:") > 1 for source in sources)
        assert loop_form == (shape != "across_chains")

    def test_limit_parity_across_calls(self):
        module = compile_source(
            """
            int f(int n) { print(n); return n * 2; }
            void main() {
                int i;
                for (i = 0; i < 100; i++) { f(i); }
            }
            """
        )
        reference = run_module(module, backend="tree")
        for limit in (5, 37, reference.instructions - 1):
            assert_over_budget(_limited(module), limit)

    def test_exact_budget_completes_on_both(self):
        module = compile_source(COUNT_SRC)
        reference = run_module(module, backend="tree")
        limit = reference.instructions
        tree = run_module(module, backend="tree", max_instructions=limit)
        generated = run_module(
            module, backend="superblock", max_instructions=limit
        )
        assert tree.to_dict() == generated.to_dict() == reference.to_dict()


class TestDecodedState:
    """What an interpreter keeps across runs (compiled code) and what it
    resets (memory)."""

    def test_memory_resets_between_runs(self):
        module = compile_source(
            "int g;\nvoid main() { g = g + 1; print(g); }"
        )
        interp = Interpreter(module)
        assert interp.run().output == ["1"]
        assert interp.run().output == ["1"]

    def test_decode_cache_reused_across_runs(self):
        module = compile_source(COUNT_SRC)
        interp = Interpreter(module, backend="superblock")
        interp.run()
        cached = dict(interp._superblocks)
        interp.run()
        assert interp._superblocks == cached  # no recompile on the second run
