"""Tests for liveness."""

from repro.analysis.liveness import compute_liveness
from repro.frontend import compile_source


def named_uid(func, name):
    """Find the uid of the frontend-named register ``name``."""
    for instr in func.instructions():
        if instr.dest is not None and instr.dest.name == name:
            return instr.dest.uid
        for reg in instr.uses():
            if reg.name == name:
                return reg.uid
    raise AssertionError(f"no register named {name}")


class TestLiveness:
    def test_loop_carried_value_live_at_header(self):
        module = compile_source(
            """
            void main() {
                int s = 0;
                int i;
                for (i = 0; i < 4; i++) { s = s + i; }
                print(s);
            }
            """
        )
        func = module.functions["main"]
        live = compute_liveness(func)
        s_uid = named_uid(func, "s")
        header = next(n for n in func.blocks if n.startswith("for"))
        assert s_uid in live.live_at_entry(header)

    def test_dead_after_last_use(self):
        module = compile_source(
            """
            void main() {
                int a = 1;
                print(a);
                int b = 2;
                print(b);
            }
            """
        )
        func = module.functions["main"]
        live = compute_liveness(func)
        entry = func.entry.name
        # Nothing is live at function exit.
        assert live.live_at_exit(entry) == frozenset()

    def test_branch_arm_uses_propagate(self):
        module = compile_source(
            """
            void main() {
                int x = 5;
                int flag = 1;
                if (flag) { print(x); } else { print(0); }
            }
            """
        )
        func = module.functions["main"]
        live = compute_liveness(func)
        x_uid = named_uid(func, "x")
        then_block = next(n for n in func.blocks if n.startswith("then"))
        assert x_uid in live.live_at_entry(then_block)

    def test_params_recorded(self):
        module = compile_source(
            "int f(int a) { return a; } void main() { print(f(1)); }"
        )
        func = module.functions["f"]
        live = compute_liveness(func)
        assert func.params[0].uid in live.regs
