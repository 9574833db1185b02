"""Unit and property tests for the superblock code-generated backend.

``test_backend_differential`` proves whole-corpus identity; these tests
pin down the generated tier's mechanics in isolation: superblock
formation (chain shapes, profile-guided hot-arm choice, the chain-length
bound), slot allocation, fault parity on adversarial programs, the
over-budget rule (``tests.helpers.assert_over_budget``), backend
selection and validation, the fused address+memory and compare+branch
specializations, and the ``interp.superblock.*`` /
``interp.codegen.*`` observability counters.
"""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.frontend.lower import compile_source
from repro.ir import Function, Instruction, IRBuilder, Module, Opcode
from repro.ir.operands import Const, VReg
from repro.ir.types import Type
from repro.obs.metrics import REGISTRY, metrics_delta
from repro.runtime.interpreter import (
    ExecutionLimitExceeded,
    Interpreter,
    RuntimeFault,
    run_module,
)
from repro.runtime.codegen import (
    MAX_CHAIN_BLOCKS,
    allocate_slots,
    form_superblocks,
)
from tests.helpers import assert_over_budget

BACKENDS = ("tree", "superblock")

LOOP_SRC = """
void main() {
    int i = 0;
    while (1) { print(i); i = i + 1; }
}
"""

_loop_module = compile_source(LOOP_SRC)


def _chains(module, name="main", profile=None):
    return form_superblocks(module.functions[name], profile)


# ---------------------------------------------------------------- formation


class TestFormation:
    def test_every_block_in_exactly_one_chain(self):
        module = compile_source(
            """
            int f(int n) { if (n < 2) { return n; } return f(n - 1); }
            void main() {
                int i;
                for (i = 0; i < 5; i++) { print(f(i)); }
            }
            """
        )
        for func in module.functions.values():
            chains = form_superblocks(func)
            flat = [b for chain in chains for b in chain]
            assert sorted(flat) == sorted(func.blocks)
            assert len(flat) == len(set(flat))

    def test_entry_heads_first_chain(self):
        chains = _chains(_loop_module)
        assert chains[0][0] == _loop_module.functions["main"].entry.name

    def test_straightline_blocks_collapse_to_one_chain(self):
        module = Module()
        func = Function("main")
        module.add_function(func)
        b = IRBuilder(func)
        entry = b.start_block("entry")
        mid = b.new_block("mid")
        tail = b.new_block("tail")
        b.br(mid)
        b.set_block(mid)
        b.br(tail)
        b.set_block(tail)
        b.ret()
        assert form_superblocks(func) == [[entry.name, mid.name, tail.name]]

    def test_join_block_starts_its_own_chain(self):
        # Diamond: the join has two predecessors, so neither arm may
        # absorb it -- it must head a chain of its own.
        module = compile_source(
            """
            void main(int n) {
                if (n) { print(1); } else { print(2); }
                print(3);
            }
            """
        )
        func = module.functions["main"]
        chains = form_superblocks(func)
        preds = {}
        for block in func.blocks.values():
            for instr in block.instructions:
                if instr.opcode in (Opcode.BR, Opcode.CBR):
                    for t in instr.targets:
                        preds[t] = preds.get(t, 0) + 1
                    break
        joins = {name for name, count in preds.items() if count > 1}
        assert joins
        heads = {chain[0] for chain in chains}
        assert joins <= heads

    def test_side_exits_target_chain_heads(self):
        # The invariant the generated dispatch relies on: any block a
        # chain branches out to heads some chain.
        for name, func in compile_source(LOOP_SRC).functions.items():
            chains = form_superblocks(func)
            heads = {chain[0] for chain in chains}
            member = {b for chain in chains for b in chain}
            for block in func.blocks.values():
                for instr in block.instructions:
                    if instr.opcode in (Opcode.BR, Opcode.CBR):
                        for target in instr.targets:
                            chain = next(c for c in chains if block.name in c)
                            follows = (
                                block.name != chain[-1]
                                and chain[chain.index(block.name) + 1]
                                == target
                            )
                            if not follows and target in member:
                                assert target in heads
                        break

    def test_profile_prefers_hot_arm(self):
        def build():
            module = Module()
            func = Function("main")
            module.add_function(func)
            b = IRBuilder(func)
            b.start_block("entry")
            cond = b.mov(Const.int(1))
            cold = b.new_block("cold")
            hot = b.new_block("hot")
            b.cbr(cond, cold, hot)
            for block in (cold, hot):
                b.set_block(block)
                b.ret()
            return func, cold.name, hot.name

        func, cold, hot = build()
        profile = {("main", hot): 1000, ("main", cold): 3}
        chains = form_superblocks(func, profile)
        assert chains[0][1] == hot
        # Reversing the temperatures reverses the fused arm.
        chains = form_superblocks(func, {("main", cold): 9, ("main", hot): 1})
        assert chains[0][1] == cold

    def test_chain_length_is_bounded(self):
        module = Module()
        func = Function("main")
        module.add_function(func)
        b = IRBuilder(func)
        b.start_block("entry")
        blocks = [b.new_block(f"b{i}") for i in range(MAX_CHAIN_BLOCKS + 10)]
        b.br(blocks[0])
        for current, nxt in zip(blocks, blocks[1:]):
            b.set_block(current)
            b.br(nxt)
        b.set_block(blocks[-1])
        b.ret()
        chains = form_superblocks(func)
        assert max(len(chain) for chain in chains) == MAX_CHAIN_BLOCKS
        flat = [name for chain in chains for name in chain]
        assert sorted(flat) == sorted(func.blocks)


# ---------------------------------------------------------- slot allocation


class TestSlotAllocation:
    def test_registers_get_dense_distinct_slots(self):
        func = _loop_module.functions["main"]
        uids = {
            reg.uid
            for block in func.blocks.values()
            for instr in block.instructions
            for reg in (instr.dest, *instr.args)
            if isinstance(reg, VReg)
        }
        slot_map = allocate_slots(func)
        assert set(slot_map) == uids
        assert sorted(slot_map.values()) == list(range(len(uids)))

    def test_param_slots_receive_arguments(self):
        module = compile_source(
            "int add3(int a, int b, int c) { return a + b + c; }\n"
            "void main() { print(add3(1, 2, 3)); }"
        )
        interp = Interpreter(module, backend="superblock")
        assert interp.run().output == ["6"]
        func = module.functions["add3"]
        sfunc = interp._superblocks[("add3", func.version)]
        assert sfunc.param_slots == (0, 1, 2)
        assert sfunc.nslots == len(allocate_slots(func))


# ------------------------------------------------------------- generated code


class TestGeneratedCode:
    def test_source_is_kept_on_the_compiled_function(self):
        interp = Interpreter(_loop_module, max_instructions=100)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run()
        func = _loop_module.functions["main"]
        sfunc = interp._superblocks[("main", func.version)]
        assert "def __sb" in sfunc.source
        assert sfunc.entry.max_instructions > 0

    @pytest.mark.parametrize("hooked", (False, True))
    def test_registers_are_never_written_back(self, hooked):
        """An activation ends in generated code, by RET or by a fault, so
        no register goes back to the slot file and nothing is caught:
        every budget check (arm entry, loop-form back edge, after a
        CALL) raises past the function like its other faults."""
        module = compile_source(
            """
            int acc;
            int step(int v) {
                if (v % 3 == 0) { return v + 2; }
                return v + 1;
            }
            void main() {
                int i;
                int j;
                for (i = 0; i < 6; i++) {
                    acc = acc + step(i);
                    for (j = 0; j < 3; j++) {
                        acc = (acc * 5 + step(j)) % 977;
                    }
                }
                print(acc);
            }
            """
        )
        interp = (_Observing if hooked else Interpreter)(
            module, backend="superblock"
        )
        interp.count_loads = hooked
        interp.run()
        compiled = interp._superblocks
        assert {key[0] for key in compiled} == {"main", "step"}
        for sfunc in compiled.values():
            assert ("__obe(" in sfunc.source) == hooked
            source = sfunc.source
            assert not re.search(r"^ *s\[\d+\] = ", source, re.M), source
            assert "except" not in source and "try:" not in source
            # ... while the budget checks are many.
            assert source.count("raise __XL(__limit)") > 1

    def test_superblock_cache_reused_across_runs(self):
        module = compile_source(
            "int g;\nvoid main() { g = g + 1; print(g); }"
        )
        interp = Interpreter(module, backend="superblock")
        assert interp.run().output == ["1"]
        cached = dict(interp._superblocks)
        assert interp.run().output == ["1"]  # memory reset between runs
        assert interp._superblocks == cached  # no recompilation

    def test_hooked_and_uninstrumented_variants_cached_separately(self):
        """Each interpreter caches the one variant its class and flags
        ask for, reading ``count_loads`` when it compiles: code compiled
        without it keeps counting nothing, and an interpreter that
        counts from its first run compiles a counting variant of its
        own."""
        plain = Interpreter(_loop_module, max_instructions=50)
        with pytest.raises(ExecutionLimitExceeded):
            plain.run()
        plain.count_loads = True
        with pytest.raises(ExecutionLimitExceeded):
            plain.run()
        counting = Interpreter(_loop_module, max_instructions=50)
        counting.count_loads = True
        with pytest.raises(ExecutionLimitExceeded):
            counting.run()
        (plain_code,) = plain._superblocks.values()
        (counting_code,) = counting._superblocks.values()
        assert "__lc" not in plain_code.source
        assert "__i.load_count = __lc" in counting_code.source

    def test_fused_pointer_pairs_behave_identically(self):
        module = compile_source(
            """
            int a[4];
            void main() {
                int *p = &a[1];
                p[2] = 7;
                print(a[3]);
                a[0] = 5;
                print(p[0 - 1]);
                print(a[2 - 1]);
            }
            """
        )
        oracle = run_module(module, backend="tree").to_dict()
        assert run_module(module, backend="superblock").to_dict() == oracle

    def test_recursion_identity(self):
        module = compile_source(
            """
            int fib(int n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            void main() { print(fib(12)); }
            """
        )
        oracle = run_module(module, backend="tree").to_dict()
        assert run_module(module, backend="superblock").to_dict() == oracle

    def test_zero_iteration_loops(self):
        module = compile_source(
            """
            void main() {
                int i;
                int n = 0;
                for (i = 0; i < n; i++) { print(i); }
                while (n) { n = n - 1; print(n); }
                print(42);
            }
            """
        )
        oracle = run_module(module, backend="tree").to_dict()
        assert oracle["output"] == ["42"]
        assert run_module(module, backend="superblock").to_dict() == oracle


# ------------------------------------------------------------- fault parity


def _fault(module, backend, **kwargs):
    interp = Interpreter(module, backend=backend, **kwargs)
    with pytest.raises(RuntimeFault) as excinfo:
        interp.run()
    return str(excinfo.value), list(interp.output)


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
            ("int s = 0 - 1; print(4 >> s);", ""),
        ],
    )
    def test_fault_messages_and_output_identical(self, body, decls):
        module = compile_source(f"{decls}\nvoid main() {{ {body} }}")
        assert _fault(module, "superblock") == _fault(module, "tree")

    def test_undefined_register_message(self):
        module = Module()
        func = Function("main", Type.INT)
        module.add_function(func)
        b = IRBuilder(func)
        b.start_block("entry")
        ghost = VReg(uid=999, type=Type.INT, name="ghost")
        b.emit(
            Instruction(
                Opcode.ADD,
                dest=VReg(uid=1000, type=Type.INT),
                args=(ghost, Const.int(1)),
            )
        )
        b.ret(Const.int(0))
        tree = _fault(module, "tree")
        assert "undefined register" in tree[0]
        assert _fault(module, "superblock") == tree

    def test_unterminated_block_message(self):
        module = Module()
        func = Function("main")
        module.add_function(func)
        b = IRBuilder(func)
        b.start_block("entry")
        b.mov(Const.int(1))  # no terminator follows
        tree = _fault(module, "tree")
        assert "without terminator" in tree[0]
        assert _fault(module, "superblock") == tree

    def test_fault_mid_superblock_after_partial_output(self):
        # The fused region has already printed when the fault fires;
        # the partial output and the message must match the walker's.
        module = compile_source(
            """
            int a[4];
            void main() {
                int i;
                for (i = 0; i < 3; i++) { print(i); }
                print(a[9]);
            }
            """
        )
        tree = _fault(module, "tree")
        assert tree[1] == ["0", "1", "2"]
        assert _fault(module, "superblock") == tree

    @settings(max_examples=20, deadline=None)
    @given(idx=st.integers(min_value=-6, max_value=12))
    def test_indexing_identity_or_identical_fault(self, idx):
        module = compile_source(
            f"""
            int a[8];
            void main() {{
                int i;
                for (i = 0; i < 8; i++) {{ a[i] = i * i; }}
                print(a[{idx}]);
            }}
            """
        )
        if 0 <= idx < 8:
            oracle = run_module(module, backend="tree").to_dict()
            assert run_module(module, backend="superblock").to_dict() == oracle
        else:
            assert _fault(module, "superblock") == _fault(module, "tree")


class _HookedRecorder(Interpreter):
    """Instrumented interpreter for the hooked parity matrix."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.count_loads = True
        self.entries = []

    def on_block_entry(self, frame, prev, block):
        self.entries.append((prev.name if prev else None, block.name))


def _hooked_fault(module, backend):
    interp = _HookedRecorder(module, backend=backend)
    with pytest.raises(RuntimeFault) as excinfo:
        interp.run()
    return (
        str(excinfo.value),
        list(interp.output),
        interp.load_count,
        interp.entries,
    )


class TestHookedFaultParity:
    """Observing generated code faults exactly like the walker,
    instrumentation included: message, partial output, loads counted so
    far and the ``on_block_entry`` sequence up to the fault must all
    match.  The budget fault follows the over-budget rule instead."""

    @pytest.mark.parametrize(
        "body,decls",
        [
            ("print(a[7]);", "int a[4];"),
            ("a[0 - 1] = 1;", "int a[4];"),
            ("int z = 0; print(1 / z);", ""),
            ("int s = 64; print(1 << s);", ""),
        ],
    )
    def test_hooked_fault_matrix(self, body, decls):
        module = compile_source(f"{decls}\nvoid main() {{ {body} }}")
        assert _hooked_fault(module, "superblock") == _hooked_fault(
            module, "tree"
        )

    def test_hooked_fault_mid_superblock_after_partial_output(self):
        module = compile_source(
            """
            int a[4];
            void main() {
                int i;
                for (i = 0; i < 3; i++) { print(a[i]); }
                print(a[9]);
            }
            """
        )
        tree = _hooked_fault(module, "tree")
        assert tree[1] == ["0", "0", "0"]
        # Three in-bounds loads plus the faulting attempt are counted.
        assert tree[2] == 4
        assert _hooked_fault(module, "superblock") == tree

    @settings(max_examples=15, deadline=None)
    @given(limit=st.integers(min_value=1, max_value=400))
    def test_hooked_limit_fires_at_identical_instruction(self, limit):
        """Over budget, an observing run follows the over-budget rule,
        its entry sequence being the observer state."""
        assert_over_budget(
            lambda backend, limit: _HookedRecorder(
                _loop_module, backend=backend, max_instructions=limit
            ),
            limit,
            lambda interp: list(interp.entries),
        )


# ------------------------------------------------------------- limit parity


def _limited(module):
    return lambda backend, limit: Interpreter(
        module, max_instructions=limit, backend=backend
    )


class TestLimitParity:
    """The walker fires the limit on the first instruction past it;
    generated code raises the same fault at its next check, with the
    walker's clock of one instruction earlier
    (``tests.helpers.assert_over_budget``)."""

    @settings(max_examples=40, deadline=None)
    @given(limit=st.integers(min_value=1, max_value=600))
    def test_limit_fires_at_identical_instruction(self, limit):
        assert_over_budget(_limited(_loop_module), limit)

    @settings(max_examples=15, deadline=None)
    @given(limit=st.integers(min_value=1, max_value=400))
    def test_limit_parity_across_calls(self, limit):
        module = compile_source(
            """
            int f(int n) { print(n); return n * 2; }
            void main() {
                int i;
                for (i = 0; i < 100; i++) { f(i); }
            }
            """
        )
        assert_over_budget(_limited(module), limit)

    def test_exact_budget_completes_on_all_backends(self):
        module = compile_source(
            """
            void main() {
                int i;
                int total = 0;
                for (i = 0; i < 50; i++) { total = total + i; }
                print(total);
            }
            """
        )
        reference = run_module(module, backend="tree")
        limit = reference.instructions
        for backend in BACKENDS:
            run = run_module(module, backend=backend, max_instructions=limit)
            assert run.to_dict() == reference.to_dict()


# ------------------------------------------------------ version-keyed caches


class TestVersionKeyedCaches:
    """Compiled-code caches key on ``Function.version``: mutating the IR
    and bumping the version must recompile, never replay stale code."""

    SRC = "void main() { int x = 3; print(x + 4); }"

    @staticmethod
    def _mutate_const(module, value):
        func = module.functions["main"]
        block = next(iter(func.blocks.values()))
        mov = block.instructions[0]
        assert mov.opcode is Opcode.MOV
        mov.args = (Const(value, Type.INT),)
        func.bump_version()
        return func

    def test_superblock_tier_recompiles_after_bump(self):
        module = compile_source(self.SRC)
        interp = Interpreter(module, backend="superblock")
        assert interp.run().output == ["7"]
        old_version = module.functions["main"].version
        func = self._mutate_const(module, 10)
        assert interp.run().output == ["14"]
        assert ("main", old_version) in interp._superblocks
        assert ("main", func.version) in interp._superblocks

    def test_hooked_superblock_tier_recompiles_after_bump(self):
        module = compile_source(self.SRC)
        interp = _Observing(module)
        interp.count_loads = True
        assert interp.run().output == ["7"]
        old_version = module.functions["main"].version
        func = self._mutate_const(module, 10)
        assert interp.run().output == ["14"]
        assert {("main", old_version), ("main", func.version)} <= set(
            interp._superblocks
        )


# -------------------------------------------------------- backend selection


class _Observing(Interpreter):
    """Observes every block entry (and nothing else)."""

    def on_block_entry(self, frame, prev, block):
        pass


def _tiers(interp):
    """The ``interp.backend.*`` counters one run of ``interp`` bumps
    (the loop module runs until its budget fires)."""
    before = REGISTRY.snapshot()
    with pytest.raises(ExecutionLimitExceeded):
        interp.run()
    counters = metrics_delta(before, REGISTRY.snapshot())["counters"]
    return {
        name: count for name, count in counters.items()
        if name.startswith("interp.backend.")
    }


_GENERATED = {"interp.backend.superblock": 1}
_WALKED = {"interp.backend.tree": 1}


class TestBackendSelection:
    def test_plain_interpreter_uses_superblock_path(self):
        interp = Interpreter(_loop_module, max_instructions=50)
        assert _tiers(interp) == _GENERATED

    def test_superblock_backend_is_pinnable(self):
        interp = Interpreter(
            _loop_module, max_instructions=50, backend="superblock"
        )
        assert _tiers(interp) == _GENERATED

    def test_backend_tree_forces_walker(self):
        interp = Interpreter(_loop_module, max_instructions=50, backend="tree")
        assert _tiers(interp) == _WALKED

    def test_count_loads_selects_hooked_superblock_tier(self):
        """Counting loads runs generated code that counts them."""
        interp = Interpreter(_loop_module, max_instructions=50)
        interp.count_loads = True
        assert _tiers(interp) == _GENERATED
        (sfunc,) = interp._superblocks.values()
        assert "__i.load_count = __lc" in sfunc.source

    def test_hook_override_subclass_selects_hooked_superblock(self):
        """A hook override runs generated code that calls the hook."""
        interp = _Observing(_loop_module, max_instructions=50)
        assert _tiers(interp) == _GENERATED
        (sfunc,) = interp._superblocks.values()
        assert "__obe(" in sfunc.source

    def test_core_override_subclass_falls_back_to_tree(self):
        class Tracing(Interpreter):
            def exec_instr(self, frame, instr):
                return super().exec_instr(frame, instr)

        interp = Tracing(_loop_module, max_instructions=50)
        assert _tiers(interp) == _WALKED

    def test_tier_is_read_off_the_class_once(self):
        """The tier is fixed when the interpreter is built: a method
        assigned to the instance afterwards is not a class override and
        changes neither the tier nor the compiled code."""

        def unreachable(*args):
            raise AssertionError("an instance attribute is not an override")

        module = compile_source(
            "void main() { int i; for (i = 0; i < 5; i++) { print(i); } }"
        )
        interp = Interpreter(module)
        interp.exec_instr = unreachable
        interp.on_block_entry = unreachable
        before = REGISTRY.snapshot()
        assert interp.run().output == ["0", "1", "2", "3", "4"]
        counters = metrics_delta(before, REGISTRY.snapshot())["counters"]
        assert counters["interp.backend.superblock"] == 1
        assert "interp.backend.tree" not in counters
        (sfunc,) = interp._superblocks.values()
        assert "__obe" not in sfunc.source

    def test_superblock_backend_rejects_core_overrides(self):
        class Tracing(Interpreter):
            def eval_operand(self, operand, frame):
                return super().eval_operand(operand, frame)

        with pytest.raises(ValueError, match="eval_operand"):
            Tracing(_loop_module, backend="superblock")


# ------------------------------------------------------- hooked equivalence


class TestHookedEquivalence:
    SRC = """
    int a[16];
    void main() {
        int i;
        int total = 0;
        for (i = 0; i < 16; i++) { a[i] = i; }
        for (i = 0; i < 16; i++) { total = total + a[i]; }
        print(total);
    }
    """

    def test_count_loads_matches_tree(self):
        module = compile_source(self.SRC)

        def loads(backend):
            interp = Interpreter(module, backend=backend)
            interp.count_loads = True
            result = interp.run()
            return interp.load_count, result.to_dict()

        assert loads("auto") == loads("tree")

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_count_loads_restarts_with_every_run(self, backend):
        module = compile_source(self.SRC)
        tree = Interpreter(module, backend="tree")
        tree.count_loads = True
        tree.run()
        interp = Interpreter(module, backend=backend)
        interp.count_loads = True
        interp.run()
        first = interp.load_count
        interp.run()
        assert first == interp.load_count == tree.load_count == 16

    def test_on_block_entry_sequence_matches_tree(self):
        module = compile_source(self.SRC)

        class Entries(Interpreter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.entries = []

            def on_block_entry(self, frame, prev, block):
                self.entries.append(
                    (prev.name if prev else None, block.name)
                )

        auto = Entries(module)
        before = REGISTRY.snapshot()
        result = auto.run()
        counters = metrics_delta(before, REGISTRY.snapshot())["counters"]
        assert counters["interp.backend.superblock"] == 1
        tree = Entries(module, backend="tree")
        assert result.to_dict() == tree.run().to_dict()
        assert auto.entries == tree.entries


# ------------------------------------------------------------------ counters


def _delta(run):
    before = REGISTRY.snapshot()
    run()
    return metrics_delta(before, REGISTRY.snapshot())["counters"]


class TestCounters:
    def test_superblock_run_bumps_formation_counters(self):
        module = compile_source(self.FUSION_SRC)
        counters = _delta(lambda: run_module(module, backend="superblock"))
        assert counters["interp.backend.superblock"] == 1
        assert counters["interp.superblock.formed"] >= 1
        assert counters["interp.codegen.functions"] >= 1
        assert counters.get("interp.superblock.blocks_fused", 0) >= 1
        assert counters.get("interp.codegen.specialized_ops", 0) >= 1

    FUSION_SRC = """
    int a[4];
    void main() {
        int i;
        for (i = 0; i < 4; i++) { a[i] = i * 3; }
        int *p = &a[1];
        print(p[2]);
    }
    """

    def test_compilation_happens_once_per_interpreter(self):
        module = compile_source(self.FUSION_SRC)
        interp = Interpreter(module, backend="superblock")
        first = _delta(interp.run)
        again = _delta(interp.run)
        assert first["interp.codegen.functions"] >= 1
        assert "interp.codegen.functions" not in again

    @staticmethod
    def _walked_blocks(monkeypatch):
        """The blocks the tree walker executes from now on."""
        walked = []
        exec_block = Interpreter.exec_block

        def spy(interp, frame, block, *start):
            walked.append(block.name)
            return exec_block(interp, frame, block, *start)

        monkeypatch.setattr(Interpreter, "exec_block", spy)
        return walked

    def test_budget_expiry_stays_in_generated_code(self, monkeypatch):
        """The generated tier raises the limit itself: the walker runs
        nothing, and no counter of a hand-over exists."""
        walked = self._walked_blocks(monkeypatch)
        counters = _delta(
            lambda: pytest.raises(
                ExecutionLimitExceeded,
                run_module,
                _loop_module,
                backend="superblock",
                max_instructions=123,
            )
        )
        assert walked == []
        assert counters["interp.backend.superblock"] == 1
        assert not any(
            name.startswith("interp.backend.tree")
            or name.startswith("interp.superblock.fallback")
            for name in counters
        )

    def test_unlimited_run_needs_no_fallback(self, monkeypatch):
        walked = self._walked_blocks(monkeypatch)
        module = compile_source(self.FUSION_SRC)
        counters = _delta(lambda: run_module(module, backend="superblock"))
        assert walked == []
        assert counters["interp.backend.superblock"] == 1
