"""Tests over the 13-benchmark suite.

Correctness is checked at the ``train`` input scale to keep the suite
fast; the benchmark harness (``benchmarks/``) runs the full ``ref`` scale.
"""

import pytest

from repro import MachineConfig, parallelize_and_run
from repro.bench import (
    BENCHMARKS,
    benchmark_names,
    compile_benchmark,
    get_benchmark,
)
from repro.runtime import run_module

ALL_NAMES = benchmark_names()

_pipeline_cache = {}


def helix_train_run(name):
    """One cached full-pipeline run per benchmark at train scale."""
    if name not in _pipeline_cache:
        module = compile_benchmark(name, "train")
        _pipeline_cache[name] = parallelize_and_run(
            module, MachineConfig(cores=6)
        )
    return _pipeline_cache[name]


class TestRegistry:
    def test_thirteen_benchmarks(self):
        assert len(ALL_NAMES) == 13
        assert set(ALL_NAMES) == set(BENCHMARKS)

    def test_specs_complete(self):
        for name in ALL_NAMES:
            spec = get_benchmark(name)
            assert spec.description
            assert spec.modeled
            assert spec.paper_speedup_6 > 1.0

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            get_benchmark("nonesuch")

    def test_paper_max_is_art(self):
        best = max(ALL_NAMES, key=lambda n: BENCHMARKS[n].paper_speedup_6)
        assert best == "art"


@pytest.mark.parametrize("name", ALL_NAMES)
class TestPerBenchmark:
    def test_compiles_at_both_scales(self, name):
        train = compile_benchmark(name, "train")
        ref = compile_benchmark(name, "ref")
        assert train.instruction_count() > 50
        assert ref.instruction_count() == train.instruction_count()

    def test_deterministic_output(self, name):
        module = compile_benchmark(name, "train")
        first = run_module(module)
        assert first.output == helix_train_run(name).sequential.output
        assert first.output  # prints checksums

    def test_ref_is_larger_than_train(self, name):
        spec = get_benchmark(name)
        # ref sources differ only in workload constants.
        assert spec.source("ref") != spec.source("train")

    def test_parallel_execution_matches_sequential(self, name):
        result = helix_train_run(name)
        assert result.output_matches, (
            f"{name}: {result.sequential.output} != {result.parallel.output}"
        )

    def test_no_slowdown_at_six_cores(self, name):
        result = helix_train_run(name)
        assert result.speedup >= 0.95


class TestSuiteShape:
    def test_speedup_ordering_roughly_matches_paper(self):
        """art must beat the low-parallelism benchmarks even on train."""
        speedups = {
            name: helix_train_run(name).speedup
            for name in ("art", "mcf", "crafty")
        }
        assert speedups["art"] > speedups["mcf"]
        assert speedups["art"] > speedups["crafty"]
