"""Content-addressed codegen artifacts across interpreter lifetimes.

The superblock tiers content-address their generated source/bytecode
into an :class:`~repro.artifacts.ArtifactStore` (kind ``"codegen"``),
so a warm process -- a suite re-run, a ``repro serve`` resubmission, a
``--jobs`` sibling worker -- instantiates stored code instead of
re-deriving it.  These tests pin the cache protocol: cold miss+store,
warm hit with *zero* decode or codegen work, key sensitivity (hook
flags and IR content in, machine shape out), and graceful fallback on
corrupt payloads.
"""

import pytest

from repro.analysis.loops import find_loops
from repro.artifacts import ArtifactStore
from repro.core.parallelizer import parallelize_module
from repro.frontend import compile_source
from repro.obs.metrics import REGISTRY, metrics_delta
from repro.runtime import Interpreter, run_module
from repro.runtime.codegen import CODEGEN_KIND, artifact_key
from repro.runtime.machine import MachineConfig
from repro.runtime.parallel import ParallelExecutor

SRC = """
int f(int n) { return n * 2 + 1; }
void main() {
    int i;
    int total = 0;
    for (i = 0; i < 20; i++) { total = total + f(i); }
    print(total);
}
"""


def _delta(run):
    before = REGISTRY.snapshot()
    run()
    return metrics_delta(before, REGISTRY.snapshot())["counters"]


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


def _codegen_row(store):
    return store.counters()["artifacts"].get(CODEGEN_KIND, {})


class TestColdAndWarm:
    def test_a_miss_compiles_once_and_a_hit_not_at_all(
        self, store, monkeypatch
    ):
        """The code object a build executes is the one its artifact
        marshals: ``compile`` runs once per miss, never for a hit."""
        import builtins

        compiled = []
        real_compile = builtins.compile

        def spy(source, filename, *args, **kwargs):
            if str(filename).startswith("<superblocks:"):
                compiled.append(filename)
            return real_compile(source, filename, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", spy)
        for hooked in (False, True):
            del compiled[:]
            interp = Interpreter(compile_source(SRC), codegen_cache=store)
            interp.count_loads = hooked
            counters = _delta(interp.run)
            assert counters["interp.codegen.cache.miss"] == 2
            assert sorted(compiled) == [
                "<superblocks:f>", "<superblocks:main>"
            ]
        del compiled[:]
        warm = Interpreter(compile_source(SRC), codegen_cache=store)
        counters = _delta(warm.run)
        assert counters["interp.codegen.cache.hit"] == 2
        assert not compiled

    def test_cold_run_misses_then_stores(self, store):
        module = compile_source(SRC)
        interp = Interpreter(module, backend="superblock", codegen_cache=store)
        counters = _delta(interp.run)
        # Two functions, each compiled once: miss + store, no hits yet.
        assert counters["interp.codegen.cache.miss"] == 2
        assert "interp.codegen.cache.hit" not in counters
        row = _codegen_row(store)
        assert row["misses"] == 2
        assert row["stores"] == 2

    def test_warm_run_skips_decode_and_codegen(self, store):
        oracle = run_module(compile_source(SRC), backend="tree")
        cold = Interpreter(
            compile_source(SRC), backend="superblock", codegen_cache=store
        )
        assert cold.run().to_dict() == oracle.to_dict()
        warm = Interpreter(
            compile_source(SRC), backend="superblock", codegen_cache=store
        )
        counters = _delta(lambda: warm.run())
        assert counters["interp.codegen.cache.hit"] == 2
        assert "interp.codegen.cache.miss" not in counters
        # The warm path rebuilds nothing: no codegen.
        assert "interp.codegen.functions" not in counters
        assert warm.run().to_dict() == oracle.to_dict()
        # The replayed source is the stored source, byte for byte.
        for key, sfunc in warm._superblocks.items():
            assert sfunc.source == cold._superblocks[key].source

    def test_hooked_tier_warm_hit_preserves_instrumentation(self, store):
        def hooked_run(cache):
            interp = Interpreter(compile_source(SRC), codegen_cache=cache)
            interp.count_loads = True
            entries = []
            interp.on_block_entry = (
                lambda frame, prev, block: entries.append(block.name)
            )
            result = interp.run()
            return result.to_dict(), interp.load_count, entries

        cold = hooked_run(store)
        before = _codegen_row(store).get("hits", 0)
        warm = hooked_run(store)
        assert warm == cold
        assert _codegen_row(store)["hits"] > before


class TestKeying:
    def test_key_excludes_machine_shape(self):
        module = compile_source(SRC)
        func = module.functions["main"]
        small = Interpreter(module, machine=MachineConfig(cores=2))
        large = Interpreter(module, machine=MachineConfig(cores=16))
        assert artifact_key(small, func, False, False) == artifact_key(
            large, func, False, False
        )

    def test_key_covers_hook_flags(self):
        module = compile_source(SRC)
        func = module.functions["main"]
        interp = Interpreter(module)
        keys = {
            artifact_key(interp, func, hooked, counts)
            for hooked, counts in (
                (False, False), (True, False), (True, True),
            )
        }
        assert len(keys) == 3

    def test_key_covers_function_content(self):
        left = Interpreter(compile_source(SRC))
        right = Interpreter(
            compile_source(SRC.replace("n * 2 + 1", "n * 3 + 1"))
        )
        assert artifact_key(
            left, left.module.functions["f"], False, False
        ) != artifact_key(right, right.module.functions["f"], False, False)

    def test_key_covers_block_profile(self):
        module = compile_source(SRC)
        func = module.functions["main"]
        plain = Interpreter(module)
        guided = Interpreter(
            module, block_profile={("main", func.entry.name): 100}
        )
        assert artifact_key(plain, func, False, False) != artifact_key(
            guided, func, False, False
        )

    def test_key_of_a_transformed_bench_repeats_within_a_process(self):
        """vortex's transformation inlines into ``main``; the clones'
        names used to count up across the whole process, so the second
        transformation of one process printed other block names, keyed
        other codegen artifacts and could share no recording."""
        from repro.evaluation.runner import EvaluationRunner
        from repro.ir.printer import module_to_str

        machine = MachineConfig(cores=6)
        runner = EvaluationRunner(machine)
        module = runner.module("vortex", "ref")
        chosen = runner.selection("vortex").chosen

        def transformed_main():
            transformed, infos = parallelize_module(module, chosen, machine)
            assert sum(info.inlined_calls for info in infos) > 0
            executor = ParallelExecutor(transformed, infos, machine)
            key = artifact_key(
                executor, transformed.functions["main"], True, True
            )
            return module_to_str(transformed), key

        assert transformed_main() == transformed_main()


class TestWatchedBlocksKeying:
    """The watched edges an interpreter declares are part of what the
    generated source embeds (which boundaries call the hook), so they are
    part of the key: executors over one module with different ``infos``
    must not share hooked code, the same ``infos`` on another machine
    shape must."""

    SRC = """
    int a;
    int b;
    void main() {
        int i;
        int j;
        for (i = 0; i < 9; i++) { a = (a + i * 3) % 101; }
        for (j = 0; j < 7; j++) { b = (b + j * 5) % 103; }
        print(a + b);
    }
    """

    @pytest.fixture
    def transformed(self):
        module = compile_source(self.SRC)
        loop_ids = [loop.id for loop in find_loops(module.functions["main"])]
        assert len(loop_ids) == 2
        return parallelize_module(module, loop_ids, MachineConfig(cores=4))

    @staticmethod
    def _record(module, infos, store, cores=4, backend="auto"):
        executor = ParallelExecutor(
            module, infos, MachineConfig(cores=cores), backend=backend,
            codegen_cache=store,
        )
        outcome = executor.execute()
        return executor, (
            outcome.result.to_dict(),
            list(outcome.traces),
            executor.load_count,
        )

    def test_different_infos_do_not_share_hooked_code(
        self, transformed, store
    ):
        module, infos = transformed
        main = module.functions["main"]
        both, both_report = self._record(module, infos, store)
        counters = _delta(
            lambda: self._record(module, infos[:1], store)
        )
        first, first_report = self._record(module, infos[:1], store)
        assert artifact_key(both, main, True, True) != artifact_key(
            first, main, True, True
        )
        # The second executor found nothing of the first's to reuse ...
        assert counters["interp.codegen.cache.miss"] == 1
        assert "interp.codegen.cache.hit" not in counters
        # ... and each records exactly what the tree walker records.
        assert both_report == self._record(
            module, infos, None, backend="tree"
        )[1]
        assert first_report == self._record(
            module, infos[:1], None, backend="tree"
        )[1]
        assert len(first_report[1]) == 1 < len(both_report[1])

    def test_same_infos_at_another_core_count_hit(self, transformed, store):
        module, infos = transformed
        self._record(module, infos, store, cores=4)
        counters = _delta(
            lambda: self._record(module, infos, store, cores=2)
        )
        assert counters["interp.codegen.cache.hit"] == 1
        assert "interp.codegen.cache.miss" not in counters

    def test_key_hashes_the_edges_not_only_their_targets(self, transformed):
        module, _infos = transformed
        main = module.functions["main"]
        preds = {}
        for name, block in main.blocks.items():
            for target in block.successor_names():
                preds.setdefault(target, []).append(name)
        target, (first, second, *_rest) = next(
            (t, p) for t, p in preds.items() if len(p) > 1
        )

        class Declaring(Interpreter):
            edges = frozenset()

            def watched_edges(self, func):
                return self.edges

        interp = Declaring(module)
        keys = set()
        for edges in ([], [(first, target)], [(second, target)],
                      [(first, target), (second, target)]):
            interp.edges = frozenset(edges)
            keys.add(artifact_key(interp, main, True, False))
        assert len(keys) == 4

    def test_key_covers_unwatched_counting(self, transformed):
        module, infos = transformed
        main = module.functions["main"]
        executor = ParallelExecutor(module, infos, MachineConfig(cores=4))
        plain = artifact_key(executor, main, True, True)
        executor.count_unwatched = True
        assert artifact_key(executor, main, True, True) != plain
        # Nothing is unwatched when every edge is: the flag is inert.
        interp = Interpreter(module)
        plain = artifact_key(interp, main, True, False)
        interp.count_unwatched = True
        assert artifact_key(interp, main, True, False) == plain


class TestCorruptPayload:
    def test_garbage_payload_falls_back_to_compile(self, store):
        module = compile_source(SRC)
        interp = Interpreter(module, backend="superblock", codegen_cache=store)
        for name in ("main", "f"):
            key = artifact_key(
                interp, module.functions[name], False, False
            )
            store.store(CODEGEN_KIND, key, {"garbage": True})
        oracle = run_module(compile_source(SRC), backend="tree")
        counters = _delta(lambda: interp.run())
        assert interp.run().to_dict() == oracle.to_dict()
        # The poisoned payloads are read but never trusted: the build
        # path recompiles (and re-stores) both functions.
        assert counters["interp.codegen.cache.miss"] == 2
        assert counters["interp.codegen.functions"] == 2
