"""Edge-case parity of the precompiled (generated) tier with the tree walker.

Whole-program identity with the tree walker lives in
``test_backend_differential`` and the generated tier's own mechanics in
``test_codegen``; these tests pin down, on small constructed programs,
what a run compiled ahead of execution must share with the walker: fault
text, the instruction at which the budget fires, which path listeners
select, and the per-run state an interpreter resets or keeps.
"""

import pytest

from repro.frontend import compile_source
from repro.runtime import (
    ExecutionLimitExceeded,
    Interpreter,
    RuntimeFault,
    run_module,
)
from repro.runtime.interpreter import _BACKEND_SUPER, _BACKEND_TREE

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


class TestBackendSelection:
    def test_listeners_select_hooked_variant(self):
        # Listener-bearing runs take the walker, the one tier that
        # reports every block and call event.
        interp = Interpreter(compile_source(COUNT_SRC))
        interp.block_listener = lambda f, p, b, c: None
        assert interp._backend_mode() == _BACKEND_TREE
        interp.block_listener = None
        assert interp._backend_mode() == _BACKEND_SUPER
        interp.call_listener = lambda n, e, c: None
        assert interp._backend_mode() == _BACKEND_TREE


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


class TestLimitParity:
    def _run_limited(self, module, backend, limit):
        interp = Interpreter(module, max_instructions=limit, backend=backend)
        with pytest.raises(ExecutionLimitExceeded) as excinfo:
            interp.run()
        return str(excinfo.value), list(interp.output), interp.instructions

    @pytest.mark.parametrize("limit", [1, 7, 50, 123, 499])
    def test_limit_fires_at_identical_instruction(self, limit):
        module = compile_source(
            """
            void main() {
                int i = 0;
                while (1) { print(i); i = i + 1; }
            }
            """
        )
        tree = self._run_limited(module, "tree", limit)
        generated = self._run_limited(module, "superblock", limit)
        assert tree == generated

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
            tree = self._run_limited(module, "tree", limit)
            generated = self._run_limited(module, "superblock", limit)
            assert tree == generated

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
