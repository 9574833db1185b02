"""Tests for the persistent evaluation cache and the parallel runner.

A tiny synthetic benchmark is registered in the suite registry so the
full pipeline (compile, profile, select, transform, execute) runs in
milliseconds rather than the seconds a real suite benchmark takes.
"""

import base64
import dataclasses
import json
import multiprocessing
import zlib

import pytest

from repro.artifacts import (
    KEY_INPUTS,
    ArtifactStore,
    code_version,
    fingerprint,
    pipeline_fingerprint,
)
from repro.bench import benchmark_fingerprint
from repro.bench import suite as bench_suite
from repro.core.loopinfo import HelixOptions
from repro.evaluation.parallel_runner import run_suite
from repro.evaluation.reporting import format_stage_stats
from repro.evaluation.runner import EvaluationRunner, StageStats
from repro.frontend.lower import compile_source
from repro.analysis.loops import find_loops
from repro.core.parallelizer import parallelize_module
from repro.runtime.interpreter import ExecutionResult
from repro.runtime.machine import CostModel, MachineConfig, PrefetchMode
from tests.ir_parser import parse_module
from repro.ir.printer import module_to_str
from repro.runtime.parallel import ParallelExecutor
from repro.runtime.profiler import ProfileData, profile_module
from repro.runtime.sched import schedule_many
from repro.runtime.trace import (
    _read_columns,
    _write_columns,
    pack_traces,
    unpack_traces,
)

TINY = """
int total;
void main() {
    int i;
    for (i = 0; i < 24; i++) {
        int k = 0;
        int f = 0;
        while (k < 12) { f = f + (k ^ i); k++; }
        total = (total + f) % 9973;
    }
    print(total);
}
"""

TINY2 = """
int acc;
void main() {
    int i;
    for (i = 0; i < 30; i++) { acc = (acc + i * i) % 7919; }
    print(acc);
}
"""

#: Eight invocations of one DOALL loop: one shape group, selected for
#: parallelization (the pair above is too small to be), so a warm replay
#: schedules it as a cohort through a single compiled program.
TINY_COHORT = """
int out[32];
void kernel(int seed) {
    int i;
    for (i = 0; i < 32; i++) {
        int k = 0;
        int f = 0;
        while (k < 40) { f = f + (k ^ i) * seed; k++; }
        out[i] = f;
    }
}
void main() {
    int r;
    for (r = 1; r < 9; r++) { kernel(r); }
    print(out[3]); print(out[31]);
}
"""

#: The same with a cross-iteration dependence, so the loop synchronizes
#: and its time depends on the prefetch mode.
TINY_SYNC = TINY_COHORT.replace(
    "int out[32];", "int out[32];\nint acc;"
).replace("out[i] = f;", "out[i] = f; acc = (acc + f) % 9973;")


def _register(name: str, source: str) -> str:
    bench_suite.BENCHMARKS[name] = bench_suite.BenchmarkSpec(
        name, "synthetic test benchmark", lambda scale: source, 1.0, "test"
    )
    return name


@pytest.fixture()
def tiny_bench():
    name = _register("tinytest", TINY)
    yield name
    del bench_suite.BENCHMARKS[name]


@pytest.fixture()
def tiny_cohort():
    name = _register("tinycohort", TINY_COHORT)
    yield name
    del bench_suite.BENCHMARKS[name]


@pytest.fixture()
def tiny_sync():
    name = _register("tinysync", TINY_SYNC)
    yield name
    del bench_suite.BENCHMARKS[name]


@pytest.fixture()
def tiny_pair():
    names = [_register("tinytest", TINY), _register("tinytest2", TINY2)]
    yield names
    for name in names:
        del bench_suite.BENCHMARKS[name]


def _executed_tiny(cores=4):
    module = compile_source(TINY)
    loop_ids = [
        l.id
        for l in find_loops(module.functions["main"])
        if l.parent is None
    ]
    machine = MachineConfig(cores=cores)
    transformed, infos = parallelize_module(module, loop_ids, machine)
    executor = ParallelExecutor(transformed, infos, machine)
    return executor, executor.execute(), transformed, infos, machine


# ------------------------------------------------------------- serialization


class TestTraceSerialization:
    def test_recorded_traces_roundtrip_to_identical_schedules(self):
        executor, result, _, infos, machine = _executed_tiny()
        info_by_id = {info.loop_id: info for info in infos}
        assert len(result.traces), "tiny benchmark must record invocations"
        stored = unpack_traces(
            json.loads(json.dumps(pack_traces(result.traces)))
        )
        assert pack_traces(stored) == pack_traces(result.traces)
        probes = [machine, machine.with_cores(2)]
        restored = schedule_many(stored, info_by_id, probes)
        recorded = schedule_many(result.traces, info_by_id, probes)
        assert (restored.data == recorded.data).all()
        assert (restored.per_core == recorded.per_core).all()

    def test_restored_executor_replays_identically(self):
        executor, result, transformed, infos, machine = _executed_tiny()
        clone = ParallelExecutor(transformed, infos, machine)
        # The recording: the run in its own sequential clock.
        recorded = dataclasses.replace(result.result, cycles=executor.cycles)
        assert recorded.cycles != result.cycles
        clone.restore_run(
            ExecutionResult.from_dict(
                json.loads(json.dumps(recorded.to_dict()))
            ),
            unpack_traces(pack_traces(result.traces)),
            load_count=executor.load_count,
        )
        # Restoring schedules nothing; the run is timed when read.
        assert not clone._schedules
        restored = clone.replay(machine)
        assert restored.cycles == result.cycles
        assert restored.loop_stats == result.loop_stats
        assert clone.load_count == executor.load_count
        for probe in (machine.with_cores(2),
                      machine.with_prefetch(PrefetchMode.NONE)):
            direct = executor.replay(probe)
            replayed = clone.replay(probe)
            assert replayed.cycles == direct.cycles
            assert replayed.loop_stats == direct.loop_stats

    def test_execution_result_roundtrip(self):
        result = ExecutionResult(
            output=["1", "2.5"], cycles=77, instructions=31, return_value=None
        )
        assert ExecutionResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        ) == result

    def test_profile_roundtrip(self):
        module = compile_source(TINY)
        machine = MachineConfig(cores=4)
        profile = profile_module(module, machine)
        restored = ProfileData.from_dict(
            json.loads(json.dumps(profile.to_dict()))
        )
        assert restored.loops == profile.loops
        assert restored.block_counts == profile.block_counts
        assert restored.func_inclusive_cycles == profile.func_inclusive_cycles
        assert restored.func_activations == profile.func_activations
        assert restored.result == profile.result
        assert restored.dynamic_nesting.nodes() == profile.dynamic_nesting.nodes()
        assert sorted(restored.dynamic_nesting.graph.edges) == sorted(
            profile.dynamic_nesting.graph.edges
        )


# ------------------------------------------------------------------ hashing


def _stage_keys(bench, machine=None, options=None):
    """The real per-kind keys of one (bench, machine, options) request
    (the ``plan`` under a fixed profile digest)."""
    store = ArtifactStore()
    machine = machine or MachineConfig(cores=4)
    config = pipeline_fingerprint(
        options or HelixOptions(), PrefetchMode.HELIX, None, False, None
    )
    return {
        "profile": store.key("profile", bench, machine=machine),
        "sequential": store.key("sequential", bench, machine=machine),
        "plan": store.key(
            "plan", bench, machine=machine, config=config, profile="digest"
        ),
        "run": store.key("run", bench, machine=machine, config=config),
    }


def _recording_key(machine=None, module=None, infos=None, bench="tinytest"):
    """The ``recording`` key of the transformed TINY (or of what the
    caller changed about it)."""
    _, _, transformed, tiny_infos, tiny_machine = _executed_tiny()
    return ArtifactStore().key(
        "recording",
        bench,
        module=module or transformed,
        machine=machine or tiny_machine,
        infos=tiny_infos if infos is None else infos,
    )


def _changed(instance, fld):
    """``instance`` with one dataclass field moved off its value."""
    value = getattr(instance, fld.name)
    if isinstance(value, bool):
        value = not value
    elif isinstance(value, int):
        value = value + 1
    elif isinstance(value, CostModel):
        value = CostModel(float_extra=value.float_extra + 1)
    elif isinstance(value, PrefetchMode):
        value = PrefetchMode.NONE
    else:  # a new field type: teach this helper about it
        raise AssertionError(f"no changed value for field {fld.name!r}")
    return dataclasses.replace(instance, **{fld.name: value})


class TestFingerprints:
    def test_fingerprint_is_stable_and_sensitive(self):
        base = {"a": 1, "b": [1, 2]}
        assert fingerprint(base) == fingerprint({"b": [1, 2], "a": 1})
        assert fingerprint(base) != fingerprint({"a": 1, "b": [2, 1]})

    def test_options_fingerprint_covers_every_field(self, tiny_bench):
        base = _stage_keys(tiny_bench)
        for fld in dataclasses.fields(HelixOptions):
            keys = _stage_keys(
                tiny_bench, options=_changed(HelixOptions(), fld)
            )
            # Transformation options: the plan and the answer
            # downstream of Steps 1-9 see every one, the two kinds
            # upstream none (and a recording only through the module
            # they lead to).
            for kind in ("plan", "run"):
                assert keys[kind] != base[kind], (kind, fld.name)
            for kind in ("profile", "sequential"):
                assert keys[kind] == base[kind], (kind, fld.name)

    def test_machine_fingerprint_sees_cost_model(self, tiny_bench):
        machine = MachineConfig(cores=4)
        base = _stage_keys(tiny_bench, machine)
        assert _stage_keys(tiny_bench, MachineConfig(cores=4)) == base
        base["recording"] = _recording_key(machine)
        for fld in dataclasses.fields(MachineConfig):
            changed = _changed(machine, fld)
            keys = _stage_keys(tiny_bench, changed)
            for kind in ("plan", "run"):
                assert keys[kind] != base[kind], (kind, fld.name)
            # The interpreter, the profiler and the recording run read
            # the cost model and nothing else of a machine: cores,
            # prefetch mode and every latency leave their artifacts'
            # keys alone.
            keys["recording"] = _recording_key(changed)
            for kind in ("profile", "sequential", "recording"):
                assert (keys[kind] != base[kind]) == (
                    fld.name == "cost_model"
                ), (kind, fld.name)

    def test_recording_key_sees_the_module_and_the_watched_blocks(self):
        """A recording is keyed on what the recording run reads: the
        printed transformed module and, per loop, where an invocation
        begins, iterates and ends -- not the bench sources, the request
        or any other field of the loop records."""
        _, _, transformed, infos, machine = _executed_tiny()
        base = _recording_key()
        assert _recording_key() == base
        assert _recording_key(bench="other") != base

        (info,) = infos
        for change in (
            {"exit_stubs": {**info.exit_stubs, "elsewhere": "exit"}},
            {"exit_stubs": {}},
            {"par_header": info.par_latch},
            {"par_preheader": info.guard_block},
            {"func_name": "other"},
            {"loop_id": ("other", info.loop_id[1])},
        ):
            changed = dataclasses.replace(info, **change)
            assert _recording_key(infos=[changed]) != base, change
        assert _recording_key(infos=[]) != base
        for change in (
            {"counted": not info.counted},
            {"helper_order": [99]},
            {"seq_header": "other"},
            {"options": HelixOptions(enable_helper_threads=False)},
        ):
            changed = dataclasses.replace(info, **change)
            assert _recording_key(infos=[changed]) == base, change

        edited = parse_module(module_to_str(transformed))
        assert _recording_key(module=edited) == base
        main = edited.functions["main"]
        main.blocks[info.par_header].name = "renamed"
        assert _recording_key(module=edited) != base

    def test_keys_see_source_text_and_code_version(self, monkeypatch):
        import repro.artifacts as artifacts_mod

        # Source hashes are memoized per (bench, scale): a private memo,
        # emptied whenever the bench's text changes under its name.
        monkeypatch.setattr(bench_suite, "_fingerprints", {})

        def keys_with(source):
            bench_suite._fingerprints.clear()
            monkeypatch.setitem(
                bench_suite.BENCHMARKS,
                "tinykeys",
                bench_suite.BenchmarkSpec(
                    "tinykeys", "synthetic test benchmark", source, 1.0,
                    "test",
                ),
            )
            return _stage_keys("tinykeys")

        base = keys_with(lambda scale: TINY)
        edited = keys_with(lambda scale: TINY2)
        assert all(edited[kind] != base[kind] for kind in base)
        # A stage's key hashes the scales it consumed: a train-only
        # edit leaves the sequential baseline's key alone.
        train_edit = keys_with(
            lambda scale: TINY if scale == "ref" else TINY2
        )
        assert train_edit["sequential"] == base["sequential"]
        for kind in ("profile", "run"):
            assert train_edit[kind] != base[kind], kind
        # The plan reads the train build only through the profile, and
        # sees an edit there through the profile's digest.
        assert train_edit["plan"] == base["plan"]

        assert keys_with(lambda scale: TINY) == base
        recording = _recording_key()
        monkeypatch.setattr(artifacts_mod, "_code_version", "0" * 16)
        bumped = _stage_keys("tinykeys")
        assert all(bumped[kind] != base[kind] for kind in base)
        assert _recording_key() != recording

    def test_pipeline_fingerprint_distinguishes_configs(self):
        fp = pipeline_fingerprint(HelixOptions(), PrefetchMode.HELIX, None,
                                  False, None)
        assert fp != pipeline_fingerprint(
            HelixOptions(), PrefetchMode.NONE, None, False, None
        )
        assert fp != pipeline_fingerprint(
            HelixOptions(enable_segment_scheduling=False),
            PrefetchMode.HELIX, None, False, None,
        )
        assert fp != pipeline_fingerprint(
            HelixOptions(), PrefetchMode.HELIX, 110.0, False, None
        )
        assert fp != pipeline_fingerprint(
            HelixOptions(), PrefetchMode.HELIX, None, False,
            [("main", "for.header")],
        )

    def test_code_version_stable_within_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16

    def test_benchmark_fingerprint_differs_by_scale_content(self, tiny_pair):
        a, b = tiny_pair
        assert benchmark_fingerprint(a) != benchmark_fingerprint(b)


# ---------------------------------------------------------------- disk store


class TestEvaluationCache:
    def test_store_load(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        assert cache.load("plan", "k1") is None
        cache.store("plan", "k1", {"recording": "k2"})
        assert cache.load("plan", "k1") == {"recording": "k2"}
        assert cache.traffic()["plan"] == {
            "hits": 1, "misses": 1, "stores": 1
        }

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        cache.store("profile", "k", {"x": 1})
        path = cache._path("profile", "k")
        corruptions = (
            b"{not json",  # truncated write
            b'{"x": "\xff\xfe"}',  # not UTF-8
            b"[1, 2]",  # JSON, but no payload object
        )
        for blob in corruptions:
            path.write_bytes(blob)
            assert cache.load("profile", "k") is None, blob
        assert cache.traffic()["profile"]["misses"] == len(corruptions)
        # A miss is recomputed and overwritten like any other.
        cache.store("profile", "k", {"x": 2})
        assert cache.load("profile", "k") == {"x": 2}

    def test_store_is_compact_json(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        cache.store("profile", "k", {"a": [1, 2], "b": {"c": 3}})
        assert cache._path("profile", "k").read_text() == (
            '{"a":[1,2],"b":{"c":3}}'
        )


# -------------------------------------------------------- runner integration


class TestRunnerCacheIntegration:
    def test_warm_cache_skips_interpretation(self, tiny_bench, tmp_path):
        machine = MachineConfig(cores=4)
        cold = EvaluationRunner(machine, cache=ArtifactStore(tmp_path))
        run_cold = cold.helix_run(tiny_bench)
        for stage in ("compile", "profile", "sequential", "execute"):
            assert cold.stats.stages[stage].computes >= 1, stage

        warm = EvaluationRunner(machine, cache=ArtifactStore(tmp_path))
        run_warm = warm.helix_run(tiny_bench)
        # The plan stands in for selection and Steps 1-9, and no stage
        # compiles the module it would have read.
        for stage in ("compile", "selection", "transform"):
            assert stage not in warm.stats.stages, stage
        for stage in ("profile", "sequential", "execute"):
            tally = warm.stats.stages[stage]
            assert (tally.computes, tally.disk_hits) == (0, 1), stage
        assert warm.artifacts.traffic()["plan"]["hits"] == 1

        assert run_warm.speedup == run_cold.speedup
        assert run_warm.parallel.cycles == run_cold.parallel.cycles
        assert run_warm.sequential.cycles == run_cold.sequential.cycles
        assert run_warm.output_matches
        # The restored executor replays other machines identically.
        probe = machine.with_cores(2)
        assert run_warm.speedup_at(probe) == run_cold.speedup_at(probe)

    def test_warm_run_answers_like_the_cold_one(self, tiny_sync, tmp_path):
        """Everything a figure reads of a run restored from its plan
        equals the cold run's: speedups at every Figure 9 core count,
        the timeline block, and -- built on request -- the selection,
        the transformed module and its loop infos."""
        from repro.obs.timeline import timeline_block

        def infos(run):
            return [
                {
                    **{
                        fld.name: getattr(info, fld.name)
                        for fld in dataclasses.fields(info)
                        if fld.name != "deps"
                    },
                    "deps": [
                        (d.index, d.synchronized, d.covered_by, d.merged,
                         sorted(d.region))
                        for d in info.deps
                    ],
                }
                for info in run.infos
            ]

        machine = MachineConfig(cores=6)
        cores = [machine.with_cores(c) for c in (2, 4, 6)]
        runs = []
        for _ in range(2):
            runner = EvaluationRunner(machine, cache=ArtifactStore(tmp_path))
            run = runner.helix_run(tiny_sync)
            runs.append(
                (run, runner, run.speedups_at(cores), timeline_block(
                    run.executor
                ))
            )
        (cold, _, *cold_answers), (warm, runner, *warm_answers) = runs
        assert cold.chosen and cold.parallel.loop_stats
        assert warm_answers == cold_answers
        assert "transform" not in runner.stats.stages
        assert module_to_str(warm.transformed) == module_to_str(
            cold.transformed
        )
        assert infos(warm) == infos(cold)
        assert warm.selection.chosen == cold.selection.chosen == warm.chosen
        assert runner.stats.stages["transform"].computes == 1
        assert runner.stats.stages["selection"].computes == 1

    def test_a_run_answer_miss_schedules_one_machine(
        self, tiny_sync, tmp_path, monkeypatch
    ):
        """A ``run`` answer that is not stored times the run on the
        runner's machine only: one ``walk_many`` call with one
        machine, whether the recording was made (cold) or restored from
        disk (another core count over the same store).  A stored answer
        schedules nothing."""
        import repro.runtime.parallel as parallel_mod

        calls = []
        real = parallel_mod.walk_many

        def counting(preparation, machines):
            calls.append([m.cores for m in machines])
            return real(preparation, machines)

        monkeypatch.setattr(parallel_mod, "walk_many", counting)
        machine = MachineConfig(cores=4)
        for cores, restored, expected in (
            (4, 0, [[4]]), (2, 1, [[2]]), (4, 0, [])
        ):
            runner = EvaluationRunner(
                machine.with_cores(cores), cache=ArtifactStore(tmp_path)
            )
            calls.clear()
            answer = runner.run_result(tiny_sync)
            assert calls == expected, cores
            assert answer["output_matches"]
            execute = runner.stats.stages.get("execute")
            assert (execute.disk_hits if execute else 0) == restored

    def test_a_run_does_not_keep_its_runner_alive(self, tiny_bench, tmp_path):
        """A run reaches its runner weakly: a runner memoizes its runs,
        so a strong reference back would be a cycle holding every
        recording of a finished daemon job until the cyclic collector
        runs."""
        import gc
        import weakref

        machine = MachineConfig(cores=4)
        EvaluationRunner(machine, cache=ArtifactStore(tmp_path)).helix_run(
            tiny_bench
        )
        gc.disable()
        try:
            runner = EvaluationRunner(machine, cache=ArtifactStore(tmp_path))
            run = runner.helix_run(tiny_bench)
            owner = weakref.ref(runner)
            del runner
            assert owner() is None
        finally:
            gc.enable()
        with pytest.raises(RuntimeError, match="runner .* is gone"):
            run.transformed

    def test_plan_without_its_recording_is_recomputed(
        self, tiny_sync, tmp_path
    ):
        """A plan is only half an answer: when its recording is missing
        or does not decode, the pipeline selects, transforms and records
        again, and stores the recording it made."""
        machine = MachineConfig(cores=4)

        def helix_run():
            runner = EvaluationRunner(machine, cache=ArtifactStore(tmp_path))
            return runner.helix_run(tiny_sync), runner

        cold, _ = helix_run()
        (entry,) = (tmp_path / "recording").glob("*.json")
        (plan,) = (tmp_path / "plan").glob("*.json")
        good, good_plan = entry.read_bytes(), plan.read_bytes()
        for damage in (entry.unlink, lambda: entry.write_bytes(b"[1, 2]")):
            damage()
            run, runner = helix_run()
            assert runner.artifacts.traffic()["plan"]["hits"] == 1
            for stage in ("selection", "transform", "execute"):
                tally = runner.stats.stages[stage]
                assert (tally.computes, tally.requests) == (1, 1), stage
            assert run.parallel.cycles == cold.parallel.cycles
            assert entry.read_bytes() == good
            assert plan.read_bytes() == good_plan

    def test_undecodable_plan_is_a_miss(self, tiny_sync, tmp_path):
        """A plan entry that is JSON but not a plan is recomputed and
        overwritten; the recording it names is still read from disk."""
        machine = MachineConfig(cores=4)

        def helix_run():
            runner = EvaluationRunner(machine, cache=ArtifactStore(tmp_path))
            run = runner.helix_run(tiny_sync)
            return run, runner.stats.stages, runner.artifacts.traffic()

        cold, _, _ = helix_run()
        (entry,) = (tmp_path / "plan").glob("*.json")
        good = entry.read_bytes()
        payload = json.loads(good)
        (loop,) = payload["loops"]
        corruptions = [
            {},
            dict(payload, recording=5),
            dict(payload, chosen=5),
            dict(payload, chosen=["ab"]),
            dict(payload, chosen=[["main"]]),
            dict(payload, loops=[1]),
            dict(payload, loops=[dict(loop, loop_id="ab")]),
            dict(payload, loops=[dict(loop, counted="yes")]),
            dict(payload, loops=[dict(loop, exit_stubs=[1])]),
            dict(payload, loops=[dict(loop, helper_order=[True])]),
            {k: v for k, v in payload.items() if k != "loops"},
        ]
        for blob in corruptions:
            entry.write_text(json.dumps(blob))
            run, stages, traffic = helix_run()
            assert stages["transform"].computes == 1, blob
            assert stages["execute"].disk_hits == 1, blob
            # Rejected, the plan is a miss in the store's tally too.
            plan = traffic["plan"]
            assert (plan["hits"], plan["misses"]) == (0, 1), blob
            assert run.parallel.cycles == cold.parallel.cycles, blob
            assert entry.read_bytes() == good, blob
        _, stages, _ = helix_run()
        assert "transform" not in stages

    def test_named_loops_get_a_plan_of_their_own(self, tiny_sync, tmp_path):
        """A pipeline that names its loops has its own plan, keyed
        without the profile it does not read."""
        machine = MachineConfig(cores=4)
        cold = EvaluationRunner(machine, cache=ArtifactStore(tmp_path))
        chosen = cold.helix_run(tiny_sync).chosen
        named = cold.pipeline(tiny_sync, loop_ids=[])
        assert chosen and named.chosen == []
        assert len(list((tmp_path / "plan").glob("*.json"))) == 2

        warm = EvaluationRunner(machine, cache=ArtifactStore(tmp_path))
        run = warm.pipeline(tiny_sync, loop_ids=[])
        assert run.chosen == [] and run.selection is None
        assert run.parallel.cycles == named.parallel.cycles
        for stage in ("profile", "selection", "transform"):
            assert stage not in warm.stats.stages, stage
        assert warm.stats.stages["execute"].disk_hits == 1

    def test_machine_change_invalidates_entries(self, tiny_bench, tmp_path):
        EvaluationRunner(
            MachineConfig(cores=4), cache=ArtifactStore(tmp_path)
        ).helix_run(tiny_bench)
        # A latency changes how traces are scheduled and nothing an
        # interpreter reads, the recording run included: all three
        # interpretation stages are read back.
        other = EvaluationRunner(
            MachineConfig(cores=4, signal_latency=220),
            cache=ArtifactStore(tmp_path),
        )
        other.helix_run(tiny_bench)
        for stage in ("profile", "sequential", "execute"):
            assert other.stats.stages[stage].computes == 0, stage
            assert other.stats.stages[stage].disk_hits == 1, stage
        # A cost-model change is seen by all three interpretation stages.
        retuned = EvaluationRunner(
            MachineConfig(cores=4, cost_model=CostModel(float_extra=3)),
            cache=ArtifactStore(tmp_path),
        )
        retuned.helix_run(tiny_bench)
        for stage in ("profile", "sequential", "execute"):
            assert retuned.stats.stages[stage].computes == 1, stage
        # Selection and Steps 1-9 read the whole machine: each runs
        # again under a new plan.
        for runner in (other, retuned):
            assert runner.stats.stages["transform"].computes == 1
        assert len(list((tmp_path / "plan").glob("*.json"))) == 3

    def test_same_module_shares_one_recording_in_memory(
        self, tiny_sync, monkeypatch
    ):
        """Configurations of one runner whose transformation ends in the
        same module record once: the memo is keyed like the store."""
        recorded = []
        real = ParallelExecutor.run

        def spy(self, *args, **kwargs):
            recorded.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(ParallelExecutor, "run", spy)
        runner = EvaluationRunner(MachineConfig(cores=4))
        helix = runner.helix_run(tiny_sync)
        assert helix.chosen and len(helix.parallel.traces)
        ideal = runner.pipeline(tiny_sync, prefetch=PrefetchMode.IDEAL)
        assert ideal is not helix
        assert module_to_str(ideal.transformed) == module_to_str(
            helix.transformed
        )
        assert len(recorded) == 1
        tally = runner.stats.stages["execute"]
        assert (tally.computes, tally.memory_hits) == (1, 1)
        # ... and the shared recording is timed on each one's machine,
        # as a runner of its own would have.
        alone = EvaluationRunner(MachineConfig(cores=4)).pipeline(
            tiny_sync, prefetch=PrefetchMode.IDEAL
        )
        assert len(recorded) == 2
        assert ideal.parallel.machine == alone.parallel.machine
        assert ideal.parallel.cycles == alone.parallel.cycles
        assert ideal.parallel.loop_stats == alone.parallel.loop_stats
        assert ideal.parallel.cycles < helix.parallel.cycles
        probe = MachineConfig(cores=2)
        assert ideal.speedup_at(probe) == alone.speedup_at(probe)
        # A different module is a different recording.
        runner.pipeline(tiny_sync, loop_ids=[])
        assert len(recorded) == 3

    def test_a_different_selection_records_again(self, tmp_path):
        """art selects one loop fewer at 6 cores than at 2 or 4: the
        two smaller machines share a recording, the largest has its
        own."""
        runs = {}
        for cores in (2, 6, 4):
            runner = EvaluationRunner(
                MachineConfig(cores=cores), cache=ArtifactStore(tmp_path)
            )
            runs[cores] = (runner.helix_run("art"), runner.stats)
        assert runs[4][0].chosen == runs[2][0].chosen
        assert len(runs[6][0].chosen) < len(runs[2][0].chosen)
        for cores, outcome in ((2, "computes"), (6, "computes"),
                               (4, "disk_hits")):
            tally = runs[cores][1].stages["execute"]
            assert getattr(tally, outcome) == tally.requests == 1, cores
        assert len(list((tmp_path / "recording").glob("*.json"))) == 2

    def test_unreadable_recording_entry_is_recomputed(
        self, tiny_cohort, tmp_path
    ):
        machine = MachineConfig(cores=4)

        def helix_run():
            runner = EvaluationRunner(
                machine, cache=ArtifactStore(tmp_path)
            )
            return runner.helix_run(tiny_cohort), runner.stats

        cold, _ = helix_run()
        (entry,) = (tmp_path / "recording").glob("*.json")
        good = entry.read_bytes()
        payload = json.loads(good)
        assert sorted(payload) == ["load_count", "result", "traces"]
        assert payload["result"]["cycles"] == cold.executor.cycles
        _, stats = helix_run()
        assert stats.stages["execute"].disk_hits == 1
        block = payload["traces"]
        columns = base64.b64decode(block["columns"])

        def traces(**fields):
            """The entry with fields of its column block replaced."""
            return json.dumps(
                dict(payload, traces=dict(block, **fields))
            ).encode()

        def repacked(mutate):
            """The entry packed again after ``mutate`` edited its traces
            (packing checks nothing, unpacking everything)."""
            restored = unpack_traces(block)
            mutate(restored)
            return json.dumps(
                dict(payload, traces=pack_traces(restored))
            ).encode()

        def edited(**changes):
            """The entry with columns of its block replaced."""
            columns = _read_columns(block)
            columns.update(changes)
            return traces(**_write_columns(columns))

        def unordered(restored):
            shape = next(
                s for s, n in enumerate(restored.shape_iterations) if n > 1
            )
            ev_off = restored.ev_off[shape]
            ev_off[1] = ev_off[-1] + 1

        def short(restored):
            restored.ev_off[0][-1] -= 1

        def stamp_too_many(restored):
            restored.ev_at[0].append(0)

        shapes, distinct, count = block["rows"]
        iterations = _read_columns(block)["shape_iterations"]
        raw = zlib.decompress(columns)
        corruptions = (
            b"\xff\xfe not utf-8",
            b"[1, 2]",
            json.dumps({"result": payload["result"]}).encode(),
            json.dumps(dict(payload, result=[1])).encode(),
            # The previous format: one JSON object per trace.
            json.dumps(
                dict(payload, traces=[{"format": 3, "loop_id": ["a", "b"]}])
            ).encode(),
            traces(format=3),
            traces(columns="not base64!"),
            # A truncated zlib stream.
            traces(
                columns=base64.b64encode(columns[: len(columns) // 2]).decode()
            ),
            # A block cut short.
            traces(columns=base64.b64encode(zlib.compress(raw[:-1])).decode()),
            # Column lengths that disagree with the tables.
            edited(shape_iterations=iterations + 1),
            traces(rows=[shapes, distinct, count - 1]),
            traces(widths=dict(block["widths"], ev_at=3)),
            traces(rows=[shapes, distinct, 2**70]),
            repacked(stamp_too_many),
            # A shape index out of range.
            edited(distinct_shape=[shapes] * distinct),
            # Per-shape event offsets that step back, or stop short.
            repacked(unordered),
            repacked(short),
        )
        for blob in corruptions:
            entry.write_bytes(blob)
            run, stats = helix_run()
            assert stats.stages["execute"].computes == 1, blob
            assert run.parallel.cycles == cold.parallel.cycles, blob
            # ... and the entry was overwritten with the recording.
            assert entry.read_bytes() == good, blob

    @pytest.mark.parametrize(
        "kind,stage", [
            ("profile", "profile"),
            ("sequential", "sequential"),
        ],
    )
    def test_undecodable_stage_entry_is_recomputed(
        self, kind, stage, tiny_bench, tmp_path
    ):
        """An entry that is JSON but not its stage's payload -- fields
        missing or mistyped -- is a miss like an absent one: the stage
        recomputes and overwrites it, and a fresh runner reads the
        rewritten entry back from disk."""
        machine = MachineConfig(cores=4)

        def baseline():
            runner = EvaluationRunner(machine, cache=ArtifactStore(tmp_path))
            runner.profile(tiny_bench)
            result = runner.sequential(tiny_bench)
            traffic = runner.artifacts.traffic()[kind]
            return result, runner.stats.stages[stage], traffic

        cold, _, _ = baseline()
        entries = sorted((tmp_path / kind).glob("*.json"))
        good = [entry.read_bytes() for entry in entries]
        payload = json.loads(good[0])
        corruptions = {
            "profile": [
                dict(payload, loops=5),
                dict(payload, result=[1]),
                dict(payload, block_counts=[[1]]),
                dict(payload, dynamic_nesting=[]),
            ],
            "sequential": [
                dict(payload, output=5),
                dict(payload, output=[1]),
                dict(payload, cycles="many"),
            ],
        }[kind]
        for blob in [{}] + corruptions:
            for entry in entries:
                entry.write_text(json.dumps(blob))
            result, tally, traffic = baseline()
            assert result == cold, blob
            assert tally.computes == len(entries), blob
            # Rejected, each entry is a miss in the store's tally too.
            assert (traffic["hits"], traffic["misses"]) == (
                0, len(entries)
            ), blob
            assert [entry.read_bytes() for entry in entries] == good, blob
        _, tally, _ = baseline()
        assert (tally.computes, tally.disk_hits) == (0, len(entries))

    def test_runners_on_one_store_share_its_compiled_modules(
        self, tiny_bench
    ):
        """Compiled modules live on the store, not on a runner: runners
        on one store, on any thread, get one module object per build,
        and a later runner compiles nothing."""
        import sys
        import threading

        store = ArtifactStore()
        modules = []

        def compile_ref():
            runner = EvaluationRunner(MachineConfig(cores=4), cache=store)
            modules.append(runner.module(tiny_bench, "ref"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=compile_ref) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(modules) == 8
        assert all(module is modules[0] for module in modules)
        assert store.modules == {(tiny_bench, "ref"): modules[0]}
        later = EvaluationRunner(MachineConfig(cores=4), cache=store)
        assert later.module(tiny_bench, "ref") is modules[0]
        assert later.stats.stages["compile"].memory_hits == 1

    def test_runner_without_cache_unchanged(self, tiny_bench):
        runner = EvaluationRunner(MachineConfig(cores=4))
        first = runner.helix_run(tiny_bench)
        second = runner.helix_run(tiny_bench)
        assert first is second
        assert runner.stats.stages["execute"].memory_hits == 1

    def test_cache_key_does_not_shadow_options(self, tiny_bench):
        # Regression: a string cache_key used to *replace* the config in
        # the memo key, so differing configurations sharing a label
        # returned the first result computed.  The memo key is now the
        # configuration's fingerprint alone.
        runner = EvaluationRunner(MachineConfig(cores=4))
        helix = runner.pipeline(tiny_bench, prefetch=PrefetchMode.HELIX)
        nopf = runner.pipeline(tiny_bench, prefetch=PrefetchMode.NONE)
        assert nopf is not helix
        assert nopf.parallel.machine.prefetch_mode is PrefetchMode.NONE
        noopt = runner.pipeline(
            tiny_bench,
            options=HelixOptions(enable_signal_optimization=False),
        )
        assert noopt is not helix
        # An identical config still memoizes.
        again = runner.pipeline(tiny_bench, prefetch=PrefetchMode.HELIX)
        assert again is helix


# ------------------------------------------------------------ stage counters


class TestStageStats:
    def test_merge_and_render(self):
        stats = StageStats()
        stats.record("execute", "compute", 2.0)
        stats.record("execute", "disk", 0.5)
        stats.record("compile", "memory")
        other = StageStats()
        other.record("execute", "compute", 1.0)
        stats.merge(other.as_dict())
        data = stats.as_dict()
        assert data["execute"]["computes"] == 2
        assert data["execute"]["disk_hits"] == 1
        assert data["execute"]["wall_seconds"] == pytest.approx(3.5)
        # Stages render in pipeline order.
        text = format_stage_stats(data)
        lines = text.splitlines()
        assert lines[0] == "Pipeline stage statistics"
        assert "compile" in lines[3]
        assert "execute" in lines[4]

    def test_merge_folds_invalidations(self):
        stats = StageStats()
        stats.invalidate("analysis:loops")
        other = StageStats()
        other.invalidate("analysis:loops")
        other.invalidate("analysis:loops")
        other.record("analysis:loops", "compute", 0.25)
        stats.merge(other.as_dict())
        tally = stats.tally("analysis:loops")
        assert tally.invalidations == 3
        assert tally.computes == 1
        assert tally.wall_seconds == pytest.approx(0.25)

    def test_merge_tolerates_legacy_partial_snapshots(self):
        # Snapshots from older code versions may lack fields added
        # since; every one defaults to zero instead of raising.
        stats = StageStats()
        stats.record("execute", "compute", 1.0)
        stats.merge({"execute": {"computes": 2}, "profile": {}})
        assert stats.tally("execute").computes == 3
        assert stats.tally("execute").wall_seconds == pytest.approx(1.0)
        assert stats.tally("profile").requests == 0
        assert stats.tally("profile").invalidations == 0


# ------------------------------------------------------------ parallel suite


class TestParallelSuite:
    def test_sequential_suite_report(self, tiny_pair, tmp_path):
        fig9, report, runner = run_suite(
            machine=MachineConfig(cores=4),
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            benches=tiny_pair,
        )
        assert set(report.speedups) == set(tiny_pair)
        assert report.wall_seconds > 0
        assert report.stages["execute"]["computes"] == len(tiny_pair)
        # An inline suite makes a row per bench too, in suite order.
        assert [b.bench for b in report.benches] == list(tiny_pair)
        for outcome in report.benches:
            assert outcome.output_matches
            assert outcome.wall_seconds > 0
            assert outcome.stages["execute"]["computes"] == 1
        payload = json.loads(report.to_json())
        assert payload["geomeans"]["4"] == pytest.approx(fig9.geomean(4))
        assert payload["code_version"] == code_version()
        # Provenance block: where and on what the suite ran.
        env = payload["environment"]
        assert env["code_version"] == code_version()
        assert env["python"] and env["platform"]
        assert env["cpu_count"] >= 1
        # Simulated-time accounting: one per-core block per benchmark,
        # internally consistent.
        assert set(payload["timeline"]) == set(tiny_pair)
        for block in payload["timeline"].values():
            assert block["cores"] == 4
            assert len(block["per_core"]) == 4
            for category, total in block["totals"].items():
                assert total == sum(
                    row[category] for row in block["per_core"]
                )
            # The run's cycles land somewhere: parallel compute or the
            # main thread's sequential track.
            assert (
                block["totals"]["compute"] + block["totals"]["sequential"]
                > 0
            )
        # ... and its own cost is a stage row beside the pipeline's.
        timeline = payload["stages"]["timeline"]
        assert timeline["computes"] == timeline["requests"] == len(tiny_pair)
        assert timeline["wall_seconds"] > 0
        assert list(report.stages)[:7] == [
            "compile", "profile", "sequential", "selection", "transform",
            "execute", "timeline",
        ]
        assert "timeline" in format_stage_stats(report.stages)
        # Interpreter counter block: sequential references run on the
        # superblock tier, so formation/codegen totals accumulate.
        interp = payload["interp"]
        assert interp["interp.backend.superblock"] >= len(tiny_pair)
        assert interp["interp.superblock.formed"] > 0
        assert interp["interp.codegen.functions"] > 0

    def test_every_stored_kind_is_a_keyed_kind(self, tiny_pair, tmp_path):
        """A cold suite stores, and probes, only the kinds
        :data:`KEY_INPUTS` declares: every artifact key comes from
        ``ArtifactStore.key``, and generated code is not an artifact."""
        cache_dir = tmp_path / "cache"
        _, _, runner = run_suite(
            machine=MachineConfig(cores=4),
            jobs=1,
            cache_dir=str(cache_dir),
            benches=tiny_pair,
        )
        on_disk = {path.name for path in cache_dir.iterdir() if path.is_dir()}
        probed = set(runner.artifacts.traffic())
        assert {"profile", "sequential", "plan", "recording"} <= on_disk
        assert on_disk <= set(KEY_INPUTS)
        assert probed <= set(KEY_INPUTS)

    def test_warm_timeline_compiles_per_shape_and_builds_no_segment(
        self, tiny_pair, tmp_path, monkeypatch
    ):
        """On a warm cache ``run_suite`` compiles one trace program per
        shape of each recording, all of them in each bench's one
        scheduling pass; its accounting loop compiles nothing and never
        materializes a ``Segment``."""
        import repro.obs.timeline as timeline_mod
        from repro.obs import REGISTRY

        def compiled() -> float:
            return REGISTRY.snapshot()["counters"].get(
                "sched.programs_compiled", 0
            )

        real = timeline_mod.timeline_block
        by_timeline = groups = traces = 0

        def counting(executor, machine=None):
            nonlocal by_timeline, groups, traces
            before = compiled()
            block = real(executor, machine)
            by_timeline += compiled() - before
            traces += len(executor.recording)
            groups += len(executor.recording.shape_loop)
            return block

        def no_segment(self, *args, **kwargs):
            raise AssertionError("timeline_block built a Segment")

        benches = tiny_pair + [_register("tinycohort", TINY_COHORT)]
        try:
            suite = dict(
                machine=MachineConfig(cores=4),
                jobs=1,
                cache_dir=str(tmp_path / "cache"),
                benches=benches,
            )
            _, cold, _ = run_suite(**suite)
            monkeypatch.setattr(timeline_mod, "timeline_block", counting)
            monkeypatch.setattr(timeline_mod.Segment, "__init__", no_segment)
            before = compiled()
            _, warm, _ = run_suite(**suite)
            by_suite = compiled() - before
        finally:
            del bench_suite.BENCHMARKS["tinycohort"]
        assert warm.stages["execute"]["disk_hits"] == len(benches)
        assert warm.timeline == cold.timeline
        # The cohort bench makes the bound bite: eight traces, one group,
        # and the scheduler's replay compiled just the one program.
        assert traces == 8 and groups == 1
        assert by_timeline == 0
        assert by_suite == groups

    def test_a_warm_suite_schedules_each_bench_in_one_pass(
        self, tiny_cohort, tiny_sync, tmp_path, monkeypatch
    ):
        """A warm suite schedules each bench's restored recording once:
        one ``walk_many`` call per bench, under Figure 9's three
        core counts, and the bench's speedups, its run on the executing
        machine and its timeline all read those columns."""
        import repro.runtime.parallel as parallel_mod

        benches = [tiny_cohort, tiny_sync]
        suite = dict(
            machine=MachineConfig(cores=6),
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            benches=benches,
        )
        _, cold, _ = run_suite(**suite)
        calls = []
        real = parallel_mod.walk_many

        def counting(preparation, machines):
            calls.append(
                (len(preparation.index), sorted(m.cores for m in machines))
            )
            return real(preparation, machines)

        monkeypatch.setattr(parallel_mod, "walk_many", counting)
        _, warm, runner = run_suite(**suite)
        assert warm.stages["execute"]["disk_hits"] == len(benches)
        assert [cores for _, cores in calls] == [[2, 4, 6]] * len(benches)
        assert all(traces for traces, _ in calls)
        for bench in benches:
            runner.helix_run(bench).parallel
        assert len(calls) == len(benches)
        assert warm.speedups == cold.speedups
        assert warm.timeline == cold.timeline

    def test_a_warm_suite_groups_nothing(
        self, tiny_cohort, tiny_sync, tmp_path, monkeypatch
    ):
        """A stored recording is read back as its tables: a warm suite's
        restore and Figure 9 scheduling intern no invocation.  A cold
        suite interns each invocation once, as it is recorded, and
        stores and schedules the same tables."""
        import repro.runtime.trace as trace_mod

        benches = [tiny_cohort, tiny_sync]
        suite = dict(
            machine=MachineConfig(cores=6),
            jobs=1,
            cache_dir=str(tmp_path / "cache"),
            benches=benches,
        )
        signed = []
        real = trace_mod._digest

        def counting(columns):
            signed.append(columns)
            return real(columns)

        monkeypatch.setattr(trace_mod, "_digest", counting)
        _, cold, runner = run_suite(**suite)
        invocations = sum(
            len(runner.helix_run(bench).executor.recording)
            for bench in benches
        )
        # One digest of the shape's columns, one of the stamps'.
        assert invocations and len(signed) == 2 * invocations
        signed.clear()
        _, warm, runner = run_suite(**suite)
        assert warm.stages["execute"]["disk_hits"] == len(benches)
        for bench in benches:
            runner.helix_run(bench).parallel
        assert signed == []
        assert warm.speedups == cold.speedups
        assert warm.timeline == cold.timeline

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the workers run the patched row via fork",
    )
    def test_a_dead_worker_does_not_kill_the_suite(
        self, tiny_pair, tiny_cohort, tmp_path, monkeypatch
    ):
        """A pool worker that dies breaks the pool, and so does the
        victim's worker in the fresh pool that replaces it: every bench
        that one still owed a row is run in this process instead.  The
        suite completes with the Figure 9 text, the speedups and the
        store entries of an undisturbed cold run.  The victim dies after
        its bench stored everything, so the parent reads some of it
        back."""
        import os

        from repro.evaluation import parallel_runner

        machine = MachineConfig(cores=4)
        benches = tiny_pair + [tiny_cohort]

        def cold(name):
            cache_dir = tmp_path / name
            fig9, report, _ = run_suite(
                machine=machine, jobs=2, cache_dir=str(cache_dir),
                benches=benches,
            )
            entries = {
                str(path.relative_to(cache_dir)): path.read_bytes()
                for path in cache_dir.rglob("*.json")
            }
            return fig9.render(), report, entries

        undisturbed = cold("undisturbed")
        parent = os.getpid()
        real = parallel_runner.figure9_row

        def dying(runner, bench):
            row = real(runner, bench)
            if os.getpid() != parent and bench == tiny_cohort:
                os._exit(9)
            return row

        monkeypatch.setattr(parallel_runner, "figure9_row", dying)
        figure, report, entries = cold("disturbed")
        assert figure == undisturbed[0]
        assert report.speedups == undisturbed[1].speedups
        assert [b.bench for b in report.benches] == benches
        assert entries == undisturbed[2]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the workers run the patched row via fork",
    )
    def test_a_dead_worker_is_replaced_by_a_fresh_pool(
        self, tiny_pair, tiny_cohort, tmp_path, monkeypatch
    ):
        """A worker that dies once breaks its pool; the benches it still
        owed go to one fresh pool, so every row is still made in a worker
        process, and the Figure 9 text and the store bytes are an
        undisturbed cold run's."""
        import os

        from repro.evaluation import parallel_runner

        machine = MachineConfig(cores=4)
        benches = tiny_pair + [tiny_cohort]

        def cold(name):
            cache_dir = tmp_path / name
            fig9, report, _ = run_suite(
                machine=machine, jobs=2, cache_dir=str(cache_dir),
                benches=benches,
            )
            entries = {
                str(path.relative_to(cache_dir)): path.read_bytes()
                for path in cache_dir.rglob("*.json")
            }
            return fig9.render(), report, entries

        undisturbed = cold("undisturbed")
        parent = os.getpid()
        died = tmp_path / "died"
        made = tmp_path / "made"
        real = parallel_runner.figure9_row

        def dying_once(runner, bench):
            if os.getpid() != parent and not died.exists():
                died.touch()
                os._exit(9)
            row = real(runner, bench)
            with open(made, "a") as log:
                log.write(f"{bench} {os.getpid()}\n")
            return row

        monkeypatch.setattr(parallel_runner, "figure9_row", dying_once)
        figure, report, entries = cold("disturbed")
        assert died.exists()
        rows = dict(line.split() for line in made.read_text().splitlines())
        assert sorted(rows) == sorted(benches)
        assert str(parent) not in rows.values()
        assert figure == undisturbed[0]
        assert [b.bench for b in report.benches] == benches
        assert entries == undisturbed[2]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the test benchmark registry via fork",
    )
    def test_parallel_suite_identical_to_sequential(self, tiny_pair):
        machine = MachineConfig(cores=4)
        fig_seq, _, _ = run_suite(machine=machine, jobs=1, benches=tiny_pair)
        fig_par, report, _ = run_suite(
            machine=machine, jobs=2, benches=tiny_pair
        )
        assert fig_par.render() == fig_seq.render()
        assert [b.bench for b in report.benches] == list(tiny_pair)
        assert all(b.output_matches for b in report.benches)
        # The workers hand their rows back: nothing is read from disk,
        # and each bench is interpreted once per stage.
        for stage in ("profile", "sequential", "execute"):
            row = report.stages[stage]
            assert row["disk_hits"] == 0, (stage, row)
            assert row["computes"] == len(tiny_pair), (stage, row)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the test benchmark registry via fork",
    )
    def test_pooled_and_inline_cold_suites_agree(self, tiny_pair, tmp_path):
        """A cold pooled suite and a cold inline one give the same
        report counters and write the same store entries, byte for
        byte."""
        machine = MachineConfig(cores=4)
        runs = {}
        for jobs in (1, 2):
            cache_dir = tmp_path / f"jobs{jobs}"
            fig9, report, _ = run_suite(
                machine=machine, jobs=jobs, cache_dir=str(cache_dir),
                benches=tiny_pair,
            )
            entries = {
                str(path.relative_to(cache_dir)): path.read_bytes()
                for path in cache_dir.rglob("*.json")
            }
            runs[jobs] = fig9, report, entries
        (fig_in, inline, in_entries), (fig_pool, pooled, pool_entries) = (
            runs[1], runs[2]
        )
        assert fig_pool.render() == fig_in.render()
        assert pooled.speedups == inline.speedups
        assert pooled.geomeans == inline.geomeans
        assert pooled.timeline == inline.timeline
        assert pooled.interp == inline.interp
        assert pooled.interp["interp.backend.superblock"] >= len(tiny_pair)
        assert {s: r["computes"] for s, r in pooled.stages.items()} == {
            s: r["computes"] for s, r in inline.stages.items()
        }
        # The report's traffic is every bench's, wherever it ran.
        assert pooled.cache_traffic == inline.cache_traffic
        for kind in ("profile", "sequential", "plan", "recording"):
            assert pooled.cache_traffic[kind]["stores"] == len(tiny_pair)
        assert pool_entries == in_entries

    def test_stored_suite_starts_no_pool(
        self, tiny_pair, tmp_path, monkeypatch
    ):
        """Over a fully stored cache every bench runs in this process:
        no pool starts, whatever ``jobs`` allows, and the returned
        runner is memory-warm."""
        from repro.evaluation import parallel_runner

        machine = MachineConfig(cores=4)
        cache_dir = str(tmp_path / "cache")
        run_suite(
            machine=machine, jobs=1, cache_dir=cache_dir, benches=tiny_pair
        )

        def no_pool(*args, **kwargs):
            raise AssertionError("a warm suite started a process pool")

        monkeypatch.setattr(parallel_runner, "ProcessPoolExecutor", no_pool)
        _, warm, runner = run_suite(
            machine=machine, jobs=2, cache_dir=cache_dir, benches=tiny_pair
        )
        for stage in ("profile", "sequential", "execute"):
            assert warm.stages[stage]["computes"] == 0, stage
            assert warm.stages[stage]["disk_hits"] == len(tiny_pair), stage
        before = runner.stats.tally("execute").memory_hits
        for bench in tiny_pair:
            runner.helix_run(bench)
        assert runner.stats.tally("execute").memory_hits == (
            before + len(tiny_pair)
        )

    def test_one_cold_bench_is_recomputed_inline(
        self, tiny_pair, tmp_path, monkeypatch
    ):
        """A bench whose profile is gone is the only cold one; one cold
        bench makes one worker, so it runs in this process."""
        from repro.evaluation import parallel_runner

        machine = MachineConfig(cores=4)
        cache_dir = tmp_path / "cache"
        run_suite(
            machine=machine, jobs=1, cache_dir=str(cache_dir),
            benches=tiny_pair,
        )
        cold = tiny_pair[0]
        key = ArtifactStore(cache_dir).key("profile", cold, machine=machine)
        (cache_dir / "profile" / f"{key}.json").unlink()

        def no_pool(*args, **kwargs):
            raise AssertionError("one cold bench started a process pool")

        monkeypatch.setattr(parallel_runner, "ProcessPoolExecutor", no_pool)
        _, report, _ = run_suite(
            machine=machine, jobs=2, cache_dir=str(cache_dir),
            benches=tiny_pair,
        )
        computed = {
            outcome.bench: {
                stage: row["computes"]
                for stage, row in outcome.stages.items()
                if stage in ("profile", "sequential", "execute")
                and row["computes"]
            }
            for outcome in report.benches
        }
        assert computed == {cold: {"profile": 1}, tiny_pair[1]: {}}
        assert report.cache_traffic["profile"]["stores"] == 1

    def test_interrupted_inline_suite_reports_completed_benches(
        self, tiny_pair, tmp_path
    ):
        """An interrupt during the second bench leaves a partial report
        that lists the first."""
        from repro.evaluation.parallel_runner import SuiteInterrupted
        from repro.obs.metrics import EvaluationObserver

        class InterruptSecond(EvaluationObserver):
            def stage_completed(self, job, bench, stage, outcome, seconds):
                if bench == tiny_pair[1]:
                    raise KeyboardInterrupt

        with pytest.raises(SuiteInterrupted) as excinfo:
            run_suite(
                machine=MachineConfig(cores=4),
                jobs=1,
                cache_dir=str(tmp_path / "cache"),
                benches=tiny_pair,
                observer=InterruptSecond(),
            )
        report = excinfo.value.report
        assert report.interrupted
        assert [b.bench for b in report.benches] == [tiny_pair[0]]
        assert set(report.speedups) == set(report.timeline) == {tiny_pair[0]}
        assert report.stages["execute"]["computes"] == 1

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the test benchmark registry via fork",
    )
    def test_interrupted_pooled_suite_joins_its_workers(self, tiny_pair):
        """An interrupt while the first worker row is consumed tears the
        pool down; the rows that completed are in the partial report,
        in suite order, and no worker process is left."""
        from repro.evaluation.parallel_runner import SuiteInterrupted
        from repro.obs.metrics import EvaluationObserver

        class InterruptOnce(EvaluationObserver):
            fired = False

            def stage_completed(self, job, bench, stage, outcome, seconds):
                if not self.fired:
                    self.fired = True
                    raise KeyboardInterrupt

        with pytest.raises(SuiteInterrupted) as excinfo:
            run_suite(
                machine=MachineConfig(cores=4),
                jobs=2,
                benches=tiny_pair,
                observer=InterruptOnce(),
            )
        report = excinfo.value.report
        assert report.interrupted
        benches = [b.bench for b in report.benches]
        assert benches == list(tiny_pair)[: len(benches)]
        assert benches[:1] == [tiny_pair[0]]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the test benchmark registry via fork",
    )
    def test_parallel_trace_merges_to_sequential_span_set(self, tiny_pair):
        from repro.obs import tracing

        machine = MachineConfig(cores=4)
        with tracing() as seq_tracer:
            run_suite(machine=machine, jobs=1, benches=tiny_pair)
        with tracing() as par_tracer:
            run_suite(machine=machine, jobs=2, benches=tiny_pair)
        seq_names = {e.name for e in seq_tracer.finished()}
        par_names = {e.name for e in par_tracer.finished()}
        # Workers ship their spans home, so the merged parallel trace
        # covers exactly the spans a sequential run records.
        assert par_names == seq_names
        # ... under their own process ids (>= 2 distinct: the parent
        # plus at least one worker).
        assert len({e.pid for e in par_tracer.finished()}) >= 2

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the test benchmark registry via fork",
    )
    def test_parallel_suite_reuses_persistent_cache(
        self, tiny_pair, tmp_path
    ):
        machine = MachineConfig(cores=4)
        cache_dir = str(tmp_path / "cache")
        run_suite(
            machine=machine, jobs=2, cache_dir=cache_dir, benches=tiny_pair
        )
        _, warm_report, _ = run_suite(
            machine=machine, jobs=2, cache_dir=cache_dir, benches=tiny_pair
        )
        for stage in ("compile", "selection", "transform"):
            assert stage not in warm_report.stages, stage
        for stage in ("profile", "sequential", "execute"):
            assert warm_report.stages[stage]["computes"] == 0, stage
