"""Tests for the evaluation harness (reporting, runner caching, drivers).

Figure drivers are exercised on a single benchmark to keep the suite
fast; ``benchmarks/`` runs the real thing over all thirteen.
"""

import pytest

from repro.evaluation.reporting import format_table, geomean
from repro.evaluation.runner import EvaluationRunner
from repro.evaluation import figures
from repro.runtime.machine import MachineConfig


class TestReporting:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([3.0]) == pytest.approx(3.0)
        assert geomean([]) == 0.0

    def test_geomean_skips_nonpositive(self):
        assert geomean([4.0, 0.0]) == pytest.approx(4.0)

    def test_format_table_aligns(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["long-name", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-name" in lines[-1]
        assert "1.50" in text

    def test_format_table_none_cells(self):
        text = format_table(["x"], [[None]])
        assert "-" in text


@pytest.fixture(scope="module")
def mini_runner():
    """A runner restricted to one benchmark (mcf: fast, has both a chosen
    loop and rejected serial loops)."""
    runner = EvaluationRunner(MachineConfig(cores=6))
    runner.benches = lambda: ["mcf"]
    return runner


class TestRunnerCaching:
    def test_modules_cached(self, mini_runner):
        a = mini_runner.module("mcf", "ref")
        b = mini_runner.module("mcf", "ref")
        assert a is b

    def test_pipeline_cached_by_key(self, mini_runner):
        a = mini_runner.helix_run("mcf")
        b = mini_runner.helix_run("mcf")
        assert a is b

    def test_sequential_cached(self, mini_runner):
        a = mini_runner.sequential("mcf")
        assert a is mini_runner.sequential("mcf")

    def test_pipeline_correct(self, mini_runner):
        run = mini_runner.helix_run("mcf")
        assert run.output_matches
        assert run.speedup > 0.9


class TestFigureDrivers:
    def test_figure9(self, mini_runner):
        result = figures.figure9(mini_runner)
        row = result.speedups["mcf"]
        assert set(row) == {2, 4, 6}
        assert all(v > 0.8 for v in row.values())
        assert "Figure 9" in result.render()

    def test_table1(self, mini_runner):
        result = figures.table1(mini_runner)
        row = result.rows[0]
        assert row.bench == "mcf"
        assert row.candidate_loops >= row.parallelized_loops >= 1
        assert 0 <= row.carried_dep_pct <= 100
        assert "Table 1" in result.render()

    def test_prefetching_study(self, mini_runner):
        result = figures.prefetching_study(mini_runner)
        row = result.speedups["mcf"]
        assert row["ideal"] >= row["helix"] >= row["none"] - 1e-9
        assert "3.3" in result.render()

    def test_model_validation(self, mini_runner):
        result = figures.model_validation(mini_runner)
        assert "mcf" in result.predicted
        assert result.error_pct("mcf") < 50
        assert "3.4" in result.render()

    def test_figure11(self, mini_runner):
        result = figures.figure11(mini_runner)
        per_level = result.breakdown["mcf"]
        for label in result.levels:
            parts = per_level[label]
            assert len(parts) == 4
            assert sum(parts) == pytest.approx(100.0, abs=1.0)

    def test_figure13(self, mini_runner):
        result = figures.figure13(mini_runner)
        assert set(result.distributions) == {"4 (prefetched)", "110"}
        for per_bench in result.distributions.values():
            for dist in per_bench.values():
                if dist:
                    assert sum(dist.values()) == pytest.approx(100.0)

    def test_figure12(self, mini_runner):
        result = figures.figure12(mini_runner)
        assert "mcf" in result.underestimated
        assert "mcf" in result.overestimated
        # Overestimating latency must never produce a slowdown.
        assert result.overestimated["mcf"] >= 0.95

    def test_figure10(self, mini_runner):
        result = figures.figure10(mini_runner)
        row = result.speedups["mcf"]
        assert set(row) == set(result.labels)
        # No configuration may crash or corrupt output (asserted inside),
        # and the full pipeline must be at least as good as "neither".
        assert row["helix-nobalance"] >= row["neither"] - 0.1


class TestLatencySweep:
    def test_sweep_monotone(self, mini_runner):
        result = figures.latency_sweep(
            mini_runner, latencies=(4, 110, 220)
        )
        assert set(result.speedups) == {4, 110, 220}
        assert result.geomean(4) >= result.geomean(110) >= result.geomean(220)
        assert "signal latency" in result.render()
