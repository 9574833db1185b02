"""ResultsStore round-trips, regression diffing, and the Prometheus
exporter (`repro.obs.results` / `repro.obs.prom`)."""

import copy
import json
from pathlib import Path

import pytest

from repro.obs.prom import (
    parse_exposition,
    prometheus_text,
    sanitize_name,
    status_gauges,
)
from repro.obs.results import (
    ResultsStore,
    RunRecord,
    aggregate,
    compute_run_id,
    diff,
    format_history,
    infer_kind,
    run_metrics,
)


def interp_report(**overrides):
    report = {
        "scale": "train",
        "repeat": 2,
        "programs": [
            {"name": "mcf", "speedup": 10.0, "tree_seconds": 2.0,
             "cold_speedup": 4.0},
            {"name": "gzip", "speedup": 12.0, "tree_seconds": 1.0,
             "cold_speedup": 5.0},
            {"name": "equake", "speedup": 8.0, "tree_seconds": 1.5,
             "cold_speedup": 3.0},
        ],
        "summary": {"geomean_speedup": 9.86, "aggregate_speedup": 10.1,
                    "min_speedup": 8.0},
    }
    report.update(overrides)
    return report


ENV = {"code_version": "deadbeef", "python": "3.x"}


class TestStore:
    def test_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path)
        record = store.record("interp", interp_report(), environment=ENV,
                              metrics={"counters": {"x": 1}, "gauges": {}})
        loaded = store.load_runs("interp")
        assert len(loaded) == 1
        got = loaded[0]
        assert got.run_id == record.run_id
        assert got.kind == "interp"
        assert got.code_version == "deadbeef"
        assert got.metrics == {"counters": {"x": 1}, "gauges": {}}
        assert got.report == record.report
        assert isinstance(got, RunRecord)

    def test_content_addressed_dedup(self, tmp_path):
        store = ResultsStore(tmp_path)
        a = store.record("interp", interp_report(), environment=ENV)
        b = store.record("interp", interp_report(), environment=ENV)
        assert a.run_id == b.run_id
        assert len(store.load_runs()) == 1
        # A different measurement gets a different id.
        c = store.record(
            "interp",
            interp_report(summary={"geomean_speedup": 5.0}),
            environment=ENV,
        )
        assert c.run_id != a.run_id
        assert len(store.load_runs()) == 2

    def test_run_id_ignores_clock(self):
        a = compute_run_id("interp", interp_report(), "v", ENV)
        b = compute_run_id("interp", interp_report(), "v", ENV)
        assert a == b

    def test_report_object_with_as_dict(self, tmp_path):
        class FakeReport:
            def as_dict(self):
                return interp_report()

        record = ResultsStore(tmp_path).record(
            "interp", FakeReport(), environment=ENV
        )
        assert record.report["programs"][0]["name"] == "mcf"

    def test_corrupt_payload_fallback(self, tmp_path):
        store = ResultsStore(tmp_path)
        keep = store.record("interp", interp_report(), environment=ENV)
        (tmp_path / "interp" / "mangled.json").write_text("{oops")
        (tmp_path / "interp" / "empty.json").write_text("{}")
        runs = store.load_runs("interp")
        assert [r.run_id for r in runs] == [keep.run_id]
        assert len(store.problems) == 2

    def test_load_by_prefix_and_latest(self, tmp_path):
        store = ResultsStore(tmp_path)
        first = store.record("interp", interp_report(), environment=ENV,
                             created=100.0)
        second = store.record(
            "interp", interp_report(repeat=9), environment=ENV, created=200.0
        )
        assert store.load(first.run_id[:8]).run_id == first.run_id
        assert store.load("latest").run_id == second.run_id
        assert store.load("latest~1").run_id == first.run_id
        assert store.latest("interp").run_id == second.run_id
        with pytest.raises(KeyError):
            store.load("zzzz-no-such-run")
        with pytest.raises(KeyError):
            store.load("latest~7")

    def test_history_and_aggregate(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.record("interp", interp_report(), environment=ENV,
                     created=100.0)
        store.record(
            "interp",
            interp_report(summary={"geomean_speedup": 12.0}),
            environment=ENV,
            created=200.0,
        )
        runs = store.load_runs("interp")
        table = format_history(runs)
        assert "summary.geomean_speedup" in table
        assert runs[0].run_id in table and runs[1].run_id in table
        stats = aggregate(runs)
        entry = stats["summary.geomean_speedup"]
        assert entry["count"] == 2
        assert entry["latest"] == 12.0
        assert entry["min"] == pytest.approx(9.86)
        assert format_history([]) == "(no recorded runs)"


class TestKindsAndMetrics:
    def test_infer_kind(self):
        assert infer_kind(interp_report()) == "interp"
        assert infer_kind(
            {"programs": [{"name": "x", "speedup": 1.0,
                           "batched_speedup": 1.1}]}
        ) == "sched"
        # No command writes pass-pipeline reports any more.
        with pytest.raises(ValueError):
            infer_kind({"programs": [{"name": "x", "uncached_seconds": 1.0}]})
        assert infer_kind(
            {"geomeans": {"6": 2.0}, "speedups": {"mcf": {"6": 2.1}}}
        ) == "suite"
        with pytest.raises(ValueError):
            infer_kind({"mystery": 1})

    def test_run_metrics_keeps_ratios_drops_timings(self):
        metrics = run_metrics(interp_report())
        assert metrics["programs.mcf.speedup"] == 10.0
        assert metrics["summary.geomean_speedup"] == 9.86
        assert not any("seconds" in path for path in metrics)
        assert "repeat" not in metrics

    def test_run_metrics_suite_shape(self):
        metrics = run_metrics(
            {
                "geomeans": {"2": 1.5, "6": 2.4},
                "speedups": {"mcf": {"2": 1.4, "6": 2.2}},
                "wall_seconds": 9.0,
            }
        )
        assert metrics["geomeans.6"] == 2.4
        assert metrics["speedups.mcf.2"] == 1.4
        assert "wall_seconds" not in metrics


class TestDiff:
    def test_identical_runs_diff_clean(self, tmp_path):
        store = ResultsStore(tmp_path)
        record = store.record("interp", interp_report(), environment=ENV)
        result = diff(record, record)
        assert result.ok
        assert result.entries
        assert all(e.status == "ok" for e in result.entries)
        assert "0 regression(s)" in result.render()

    def test_injected_regression_detected(self):
        base = interp_report()
        head = copy.deepcopy(base)
        for program in head["programs"]:
            program["speedup"] *= 0.85  # -15%: above any sane tolerance
        head["summary"]["geomean_speedup"] *= 0.85
        result = diff(base, head, kind="interp")
        assert not result.ok
        regressed = {e.metric for e in result.regressions}
        assert "summary.geomean_speedup" in regressed
        assert "programs.mcf.speedup" in regressed

    def test_improvement_is_not_a_regression(self):
        base = interp_report()
        head = copy.deepcopy(base)
        head["summary"]["geomean_speedup"] *= 1.5
        result = diff(base, head, kind="interp")
        assert result.ok
        assert any(e.status == "improved" for e in result.entries)

    def test_tolerance_patterns_most_specific_wins(self):
        base = interp_report()
        head = copy.deepcopy(base)
        head["summary"]["geomean_speedup"] *= 0.85
        head["programs"][0]["speedup"] *= 0.85
        result = diff(
            base, head, kind="interp",
            tolerances={"summary.*": 0.5, "programs.mcf.*": 0.5},
        )
        assert result.ok
        # Everything else still gated at the 5% default.
        strict = diff(base, head, kind="interp",
                      tolerances={"summary.*": 0.5})
        assert {e.metric for e in strict.regressions} == {
            "programs.mcf.speedup"
        }

    def test_subset_run_diffs_against_full_baseline(self):
        full = interp_report()
        quick = {
            "scale": "train",
            "repeat": 2,
            "programs": [p for p in copy.deepcopy(full["programs"])
                         if p["name"] != "equake"],
            # Whole-set aggregate over a different program set: higher
            # than the full suite's, and rightly incomparable.
            "summary": {"geomean_speedup": 10.95},
        }
        result = diff(full, quick, kind="interp")
        assert result.ok, result.render()
        assert not any(
            e.metric.startswith("summary.") for e in result.entries
        )
        shared = [e for e in result.entries if "(shared)" in e.metric]
        assert shared, "expected recomputed shared-set geomeans"
        # Shared-set geomean of (10, 12) on both sides.
        entry = next(e for e in shared if e.metric.startswith(
            "geomean.speedup"))
        assert entry.base == pytest.approx((10.0 * 12.0) ** 0.5)
        assert entry.change == pytest.approx(0.0)

    def test_subset_regression_still_detected(self):
        full = interp_report()
        quick = {
            "programs": [
                {"name": "mcf", "speedup": 8.0, "tree_seconds": 1.0},
                {"name": "gzip", "speedup": 9.0, "tree_seconds": 1.0},
            ],
        }
        result = diff(full, quick, kind="interp")
        assert not result.ok

    def test_cross_kind_rejected(self):
        with pytest.raises(ValueError):
            diff(interp_report(), {"geomeans": {"6": 1.0},
                                   "speedups": {"m": {"6": 1.0}}})

    def test_serialized_record_operand(self, tmp_path):
        store = ResultsStore(tmp_path)
        record = store.record("interp", interp_report(), environment=ENV)
        path = tmp_path / "interp" / f"{record.run_id}.json"
        payload = json.loads(path.read_text())
        result = diff(payload, record)
        assert result.ok
        assert result.base_id == record.run_id

    def test_as_dict_shape(self):
        result = diff(interp_report(), interp_report(), kind="interp")
        data = result.as_dict()
        assert data["ok"] is True
        assert data["kind"] == "interp"
        assert all("metric" in e and "change" in e for e in data["entries"])


class TestBenchDiffCli:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def seed(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        base = store.record("interp", interp_report(), environment=ENV,
                            created=100.0)
        bad = copy.deepcopy(interp_report())
        for program in bad["programs"]:
            program["speedup"] *= 0.85
        bad["summary"]["geomean_speedup"] *= 0.85
        head = store.record("interp", bad, environment=ENV, created=200.0)
        return store, base, head

    def test_identical_clean_and_regression_nonzero(self, tmp_path, capsys):
        _, base, head = self.seed(tmp_path)
        results = str(tmp_path / "results")
        assert self.run_cli(
            ["bench-diff", base.run_id, base.run_id,
             "--results-dir", results]
        ) == 0
        assert self.run_cli(
            ["bench-diff", base.run_id, head.run_id,
             "--results-dir", results]
        ) == 1
        out = capsys.readouterr()
        assert "regression" in out.out

    def test_latest_refs_and_tolerance(self, tmp_path):
        self.seed(tmp_path)
        results = str(tmp_path / "results")
        assert self.run_cli(
            ["bench-diff", "latest~1", "latest", "--results-dir", results]
        ) == 1
        assert self.run_cli(
            ["bench-diff", "latest~1", "latest", "--results-dir", results,
             "--tolerance", "summary.*=0.5",
             "--tolerance", "programs.*=0.5"]
        ) == 0
        assert self.run_cli(
            ["bench-diff", "latest~1", "latest", "--results-dir", results,
             "--default-tolerance", "0.5"]
        ) == 0

    def test_file_operands(self, tmp_path):
        base_path = tmp_path / "base.json"
        head_path = tmp_path / "head.json"
        base_path.write_text(json.dumps(interp_report()))
        bad = copy.deepcopy(interp_report())
        bad["summary"]["geomean_speedup"] *= 0.8
        head_path.write_text(json.dumps(bad))
        results = str(tmp_path / "results")
        assert self.run_cli(
            ["bench-diff", str(base_path), str(base_path),
             "--results-dir", results]
        ) == 0
        assert self.run_cli(
            ["bench-diff", str(base_path), str(head_path),
             "--results-dir", results]
        ) == 1

    def test_usage_errors(self, tmp_path, capsys):
        results = str(tmp_path / "results")
        assert self.run_cli(["bench-diff", "--results-dir", results]) == 2
        assert self.run_cli(
            ["bench-diff", "nope", "nada", "--results-dir", results]
        ) == 2
        assert self.run_cli(
            ["bench-diff", "a", "b", "--results-dir", results,
             "--tolerance", "broken"]
        ) == 2
        capsys.readouterr()

    def test_list_history(self, tmp_path, capsys):
        _, base, head = self.seed(tmp_path)
        assert self.run_cli(
            ["bench-diff", "--list",
             "--results-dir", str(tmp_path / "results")]
        ) == 0
        out = capsys.readouterr().out
        assert base.run_id in out and head.run_id in out


class TestBenchRecording:
    #: The bench with the fewest traces (44): these tests check that a
    #: run is, or is not, recorded -- not what the reference engine
    #: makes of gzip's 1,900.
    BENCH = "bzip2"

    def test_bench_sched_records_run(self, tmp_path, capsys):
        from repro.cli import main

        results = tmp_path / "results"
        out = tmp_path / "BENCH_sched.json"
        rc = main(
            ["bench-sched", "--benches", self.BENCH, "--repeat", "1",
             "--out", str(out), "--results-dir", str(results)]
        )
        assert rc == 0
        capsys.readouterr()
        store = ResultsStore(results)
        runs = store.load_runs("sched")
        assert len(runs) == 1
        assert runs[0].report == json.loads(out.read_text())
        assert runs[0].environment.get("cpu_count")
        # An identical re-run diffs clean against itself via the CLI.
        assert main(
            ["bench-diff", "latest", "latest",
             "--results-dir", str(results)]
        ) == 0
        capsys.readouterr()

    def test_empty_results_dir_disables_recording(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        rc = main(
            ["bench-sched", "--benches", self.BENCH, "--repeat", "1",
             "--out", "", "--results-dir", ""]
        )
        assert rc == 0
        capsys.readouterr()
        assert not (tmp_path / ".repro-results").exists()


class TestProm:
    def test_sanitize(self):
        assert sanitize_name("stage.lower.computes") == (
            "repro_stage_lower_computes"
        )
        assert sanitize_name("9lives", prefix="") == "_9lives"

    def test_exposition_round_trip(self):
        text = prometheus_text(
            {"counters": {"a.b": 3}, "gauges": {"g": 1.5}},
            extra_gauges={"serve.queue.done": 4},
        )
        assert text.endswith("\n")
        parsed = parse_exposition(text)
        assert parsed["repro_a_b"] == ("counter", 3.0)
        assert parsed["repro_g"] == ("gauge", 1.5)
        assert parsed["repro_serve_queue_done"] == ("gauge", 4.0)

    def test_status_gauges(self):
        gauges = status_gauges(
            {
                "uptime_seconds": 12.5,
                "queue": {"queued": 1, "running": 2, "done": 3},
                "in_flight": [{"job": "j1"}, {"job": "j2"}],
                "retries": 1,
                "workers": {"configured": 4, "alive": 3},
                "accepting": True,
            }
        )
        assert gauges["serve.uptime_seconds"] == 12.5
        assert gauges["serve.queue.running"] == 2
        assert gauges["serve.in_flight"] == 2
        assert gauges["serve.workers.alive"] == 3
        assert gauges["serve.accepting"] == 1
