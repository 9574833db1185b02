"""Tests for the unified content-addressed :class:`ArtifactStore`."""

import pytest

from repro.artifacts import (
    ArtifactStore,
    ScheduleMemo,
    code_version,
    fingerprint,
)
from repro.bench import benchmark_fingerprint
from repro.obs import REGISTRY

PROGRAM = """
int total;
void main() {
    int i;
    for (i = 0; i < 30; i++) {
        int k = 0;
        int f = 0;
        while (k < 20) { f = f + (k ^ i); k++; }
        total = (total + f) % 9973;
    }
    print(total);
}
"""


@pytest.fixture()
def tiny_bench(monkeypatch):
    from repro.bench import suite as bench_suite
    from repro.evaluation import runner as runner_mod

    spec = bench_suite.BenchmarkSpec(
        "tinyart", "synthetic artifact test bench",
        lambda scale: PROGRAM, 1.0, "test",
    )
    monkeypatch.setitem(bench_suite.BENCHMARKS, "tinyart", spec)
    monkeypatch.setattr(runner_mod, "benchmark_names", lambda: ["tinyart"])
    return "tinyart"


def test_stage_key_matches_pre_refactor_formula(tiny_bench):
    """The store's key is byte-identical to the old ``_disk_key``."""
    store = ArtifactStore()
    scales = ("train", "ref")
    extra = {"stage": "profile", "scale": "train"}
    expected = fingerprint(
        {
            "code": code_version(),
            "bench": tiny_bench,
            "sources": {
                scale: benchmark_fingerprint(tiny_bench, scale)
                for scale in scales
            },
            **extra,
        }
    )
    assert store.stage_key(tiny_bench, scales, extra) == expected


def test_memory_only_store():
    store = ArtifactStore()
    assert store.root is None
    assert store.load("module", "k") is None
    assert store.store("module", "k", {"x": 1}) is False
    counters = store.counters()
    assert counters["artifacts"]["module"] == {
        "hits": 0, "misses": 1, "stores": 0,
    }
    assert counters["artifacts"] == store.traffic()


def test_disk_roundtrip_and_counters(tmp_path):
    store = ArtifactStore(tmp_path / "cache")
    assert store.load("profile", "key1") is None  # miss
    assert store.store("profile", "key1", {"v": 42}) is True
    assert store.load("profile", "key1") == {"v": 42}  # hit
    counters = store.counters()["artifacts"]["profile"]
    assert counters == {"hits": 1, "misses": 1, "stores": 1}


def test_the_registry_mirrors_the_one_tally(tmp_path):
    """Every count the store keeps reaches the metrics registry as
    ``evalcache.<what>.<kind>``, and nothing else does."""
    with REGISTRY.isolated() as registry:
        store = ArtifactStore(tmp_path / "cache")
        store.load("profile", "a")
        store.store("profile", "a", {"v": 1})
        store.load("profile", "a")
        store.load("codegen", "b")
        counters = registry.snapshot()["counters"]
    mirrored = {
        name: value for name, value in counters.items()
        if name.startswith("evalcache.")
    }
    assert mirrored == {
        f"evalcache.{what}.{kind}": count
        for kind, row in store.traffic().items()
        for what, count in row.items()
        if count
    }
    assert store.traffic() == {
        "codegen": {"hits": 0, "misses": 1, "stores": 0},
        "profile": {"hits": 1, "misses": 1, "stores": 1},
    }


def test_stores_on_one_directory_share_artifacts(tmp_path):
    store = ArtifactStore(tmp_path / "cache")
    store.store("module", "k", {"a": 1})
    # Same directory through a second store: the artifact is shared.
    other = ArtifactStore(str(tmp_path / "cache"))
    assert other.load("module", "k") == {"a": 1}
    assert other.traffic() == {"module": {"hits": 1, "misses": 0, "stores": 0}}


def test_the_old_import_path_names_the_store():
    """The end-to-end harness under ``benchmarks/e2e`` imports the disk
    layer and the code version from ``repro.evaluation.cache``, and
    subclasses the former to time loads and stores."""
    from repro.evaluation import cache

    assert cache.EvaluationCache is ArtifactStore
    assert cache.code_version is code_version


def test_a_runner_opens_a_store_on_a_directory(tmp_path):
    from repro.evaluation.runner import EvaluationRunner

    runner = EvaluationRunner(cache=tmp_path / "cache")
    assert runner.cache is runner.artifacts
    assert runner.artifacts.root == tmp_path / "cache"
    shared = ArtifactStore(tmp_path / "cache")
    assert EvaluationRunner(cache=shared).artifacts is shared
    assert EvaluationRunner().artifacts.root is None


def test_runner_hits_pre_refactor_warm_cache(tmp_path, tiny_bench):
    """A cache dir written by one runner serves a fresh runner entirely
    from disk -- the hit/miss parity contract of the refactor."""
    from repro.evaluation.runner import EvaluationRunner
    from repro.runtime.machine import MachineConfig

    cache_dir = tmp_path / "cache"
    machine = MachineConfig(cores=4)

    cold = EvaluationRunner(machine, cache=cache_dir)
    cold_run = cold.helix_run(tiny_bench)
    cold_counters = cold.artifacts.counters()["artifacts"]
    assert all(row["hits"] == 0 for row in cold_counters.values())
    assert sum(row["stores"] for row in cold_counters.values()) > 0

    warm = EvaluationRunner(machine, cache=cache_dir)
    warm_run = warm.helix_run(tiny_bench)
    warm_counters = warm.artifacts.counters()["artifacts"]
    assert sum(row["hits"] for row in warm_counters.values()) > 0
    assert all(row["misses"] == 0 for row in warm_counters.values())
    assert all(row["stores"] == 0 for row in warm_counters.values())

    assert warm_run.speedup == cold_run.speedup
    assert warm_run.parallel.cycles == cold_run.parallel.cycles
    assert list(warm_run.parallel.result.output) == list(
        cold_run.parallel.result.output
    )


def test_schedule_memo_accounting():
    store = ArtifactStore()
    memo = store.schedule_memo()
    assert isinstance(memo, ScheduleMemo)
    memo["machine-a"] = [object(), object()]
    memo["machine-b"] = [object()]
    assert store.counters()["schedules"] == {
        "memos": 1, "machines": 2, "columns": 3,
    }
    other = store.schedule_memo()
    other["machine-a"] = [object()]
    schedules = store.counters()["schedules"]
    assert schedules == {"memos": 2, "machines": 3, "columns": 4}


def test_schedule_memo_leaves_the_count_with_its_executor():
    """The store tracks memos weakly: a daemon's store outlives every
    job's executors and must not keep their schedule columns alive."""
    import gc

    from repro.evaluation.runner import EvaluationRunner

    store = ArtifactStore()
    kept = store.schedule_memo()
    kept["machine-a"] = [object()]
    runner = EvaluationRunner(cache=store)
    runner.helix_run("mcf")
    live = store.counters()["schedules"]
    assert live["memos"] == 2 and live["columns"] > 1
    del runner
    gc.collect()
    assert store.counters()["schedules"] == {
        "memos": 1, "machines": 1, "columns": 1,
    }


def test_executor_schedules_live_in_store_memo():
    """The runner's executors memoize schedule columns inside a
    store-registered namespace, so store counters see them."""
    from repro.evaluation.runner import EvaluationRunner

    runner = EvaluationRunner()
    runner.helix_run("mcf")
    schedules = runner.artifacts.counters()["schedules"]
    assert schedules["memos"] >= 1
    assert schedules["columns"] > 0
