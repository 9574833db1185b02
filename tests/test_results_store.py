"""ResultsStore round-trips, regression diffing, and the Prometheus
exporter (`repro.obs.results` / `repro.obs.prom`)."""

import copy
import json
import os

import pytest

from repro.obs.prom import prometheus_text, sanitize_name, status_gauges
from repro.obs.results import (
    ResultsStore,
    RunRecord,
    compute_run_id,
    diff,
    format_history,
    run_metrics,
)
from tests.helpers import parse_exposition


def suite_report(**overrides):
    """The shape of a ``repro suite --report`` file, cut down to what
    the store and the diff read plus a few blocks they must ignore."""
    report = {
        "jobs": 1,
        "cores": 6,
        "wall_seconds": 9.0,
        "speedups": {
            "mcf": {"2": 1.4, "4": 2.0, "6": 2.2},
            "gzip": {"2": 1.5, "4": 2.4, "6": 2.8},
            "equake": {"2": 1.8, "4": 3.1, "6": 4.0},
        },
        "geomeans": {"2": 1.56, "4": 2.47, "6": 2.87},
        "benches": [
            {"bench": "mcf", "wall_seconds": 3.0, "output_matches": True},
        ],
        "stages": {"execute": {"computes": 3, "seconds": 4.5}},
    }
    report.update(overrides)
    return report


def scaled(report, factor):
    """``report`` with every speedup and geomean times ``factor``."""
    report = copy.deepcopy(report)
    for row in report["speedups"].values():
        for cores in row:
            row[cores] *= factor
    for cores in report["geomeans"]:
        report["geomeans"][cores] *= factor
    return report


ENV = {"code_version": "deadbeef", "python": "3.x"}


class TestStore:
    def test_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path)
        record = store.record("suite", suite_report(), environment=ENV,
                              metrics={"counters": {"x": 1}, "gauges": {}})
        loaded = store.load_runs("suite")
        assert len(loaded) == 1
        got = loaded[0]
        assert got.run_id == record.run_id
        assert got.kind == "suite"
        assert got.code_version == "deadbeef"
        assert got.metrics == {"counters": {"x": 1}, "gauges": {}}
        assert got.report == record.report
        assert isinstance(got, RunRecord)

    def test_content_addressed_dedup(self, tmp_path):
        store = ResultsStore(tmp_path)
        a = store.record("suite", suite_report(), environment=ENV)
        b = store.record("suite", suite_report(), environment=ENV)
        assert a.run_id == b.run_id
        assert len(store.load_runs()) == 1
        # A different measurement gets a different id.
        c = store.record(
            "suite", suite_report(geomeans={"6": 5.0}), environment=ENV
        )
        assert c.run_id != a.run_id
        assert len(store.load_runs()) == 2

    def test_run_id_ignores_clock(self):
        a = compute_run_id("suite", suite_report(), "v", ENV)
        b = compute_run_id("suite", suite_report(), "v", ENV)
        assert a == b

    def test_report_object_with_as_dict(self, tmp_path):
        class FakeReport:
            def as_dict(self):
                return suite_report()

        record = ResultsStore(tmp_path).record(
            "suite", FakeReport(), environment=ENV
        )
        assert record.report["speedups"]["mcf"]["6"] == 2.2

    def test_corrupt_payload_fallback(self, tmp_path):
        store = ResultsStore(tmp_path)
        keep = store.record("suite", suite_report(), environment=ENV)
        (tmp_path / "suite" / "mangled.json").write_text("{oops")
        (tmp_path / "suite" / "empty.json").write_text("{}")
        runs = store.load_runs("suite")
        assert [r.run_id for r in runs] == [keep.run_id]
        assert len(store.problems) == 2

    def test_concurrent_writers_of_one_run_never_tear_it(self, tmp_path):
        # Every writer of one measurement targets the same record path;
        # each must stage its bytes in a temp file of its own.
        import sys
        import threading

        store = ResultsStore(tmp_path)
        errors = []

        def write():
            try:
                for _ in range(25):
                    store.record("suite", suite_report(), environment=ENV,
                                 created=1.0)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        workers = [threading.Thread(target=write) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        (record,) = store.load_runs("suite")
        assert store.problems == []
        assert [p.name for p in (tmp_path / "suite").iterdir()] == [
            f"{record.run_id}.json"
        ]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            ResultsStore(tmp_path).record(
                "suite", suite_report(), environment=ENV
            )
        assert list((tmp_path / "suite").iterdir()) == []

    def test_load_by_prefix_and_latest(self, tmp_path):
        store = ResultsStore(tmp_path)
        first = store.record("suite", suite_report(), environment=ENV,
                             created=100.0)
        second = store.record(
            "suite", suite_report(jobs=9), environment=ENV, created=200.0
        )
        assert store.load(first.run_id[:8]).run_id == first.run_id
        assert store.load("latest").run_id == second.run_id
        assert store.load("latest~1").run_id == first.run_id
        assert store.load("latest", "suite").run_id == second.run_id
        with pytest.raises(KeyError):
            store.load("zzzz-no-such-run")
        with pytest.raises(KeyError):
            store.load("latest~7")

    @pytest.mark.parametrize("ref", ["latest~-1", "latest~x", "latest~"])
    def test_latest_offset_must_be_a_non_negative_integer(self, tmp_path,
                                                          ref):
        store = ResultsStore(tmp_path)
        store.record("suite", suite_report(), environment=ENV, created=100.0)
        store.record("suite", suite_report(jobs=9), environment=ENV,
                     created=200.0)
        with pytest.raises(KeyError) as excinfo:
            store.load(ref)
        assert repr(ref) in excinfo.value.args[0]

    def test_history_and_aggregate(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.record("suite", suite_report(), environment=ENV,
                     created=100.0)
        store.record(
            "suite",
            suite_report(geomeans={"6": 3.5}),
            environment=ENV,
            created=200.0,
        )
        runs = store.load_runs("suite")
        table = format_history(runs)
        assert "geomeans.6" in table
        assert runs[0].run_id in table and runs[1].run_id in table
        assert format_history([]) == "(no recorded runs)"


class TestKindsAndMetrics:
    def test_run_metrics_keeps_ratios_drops_timings(self):
        metrics = run_metrics(suite_report())
        assert metrics["speedups.mcf.6"] == 2.2
        assert metrics["geomeans.6"] == 2.87
        assert len(metrics) == 12
        assert not any("seconds" in path for path in metrics)
        assert not any(path.startswith(("stages.", "benches.", "jobs"))
                       for path in metrics)

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
        record = store.record("suite", suite_report(), environment=ENV)
        result = diff(record, record)
        assert result.ok
        assert result.entries
        assert all(e.status == "ok" for e in result.entries)
        assert "0 regression(s)" in result.render()

    def test_injected_regression_detected(self):
        base = suite_report()
        head = scaled(base, 0.85)  # -15%: above any sane tolerance
        result = diff(base, head)
        assert not result.ok
        regressed = {e.metric for e in result.regressions}
        assert "geomeans.6" in regressed
        assert "speedups.mcf.6" in regressed

    def test_improvement_is_not_a_regression(self):
        base = suite_report()
        head = copy.deepcopy(base)
        head["geomeans"]["6"] *= 1.5
        result = diff(base, head)
        assert result.ok
        assert any(e.status == "improved" for e in result.entries)

    def test_tolerance_patterns_most_specific_wins(self):
        base = suite_report()
        head = copy.deepcopy(base)
        head["geomeans"]["6"] *= 0.85
        head["speedups"]["mcf"]["6"] *= 0.85
        result = diff(
            base, head,
            tolerances={"geomeans.*": 0.5, "speedups.mcf.*": 0.5},
        )
        assert result.ok
        # Everything else still gated at the 5% default.
        strict = diff(base, head, tolerances={"geomeans.*": 0.5})
        assert {e.metric for e in strict.regressions} == {"speedups.mcf.6"}

    def test_subset_run_diffs_against_full_baseline(self):
        full = suite_report()
        subset = copy.deepcopy(full)
        del subset["speedups"]["equake"]
        # Whole-set geomeans over a different bench set: lower than the
        # full suite's, and rightly incomparable.
        subset["geomeans"] = {"2": 1.45, "4": 2.19, "6": 2.48}
        result = diff(full, subset)
        assert result.ok, result.render()
        assert not any(
            e.metric.startswith("geomeans.") for e in result.entries
        )
        shared = [e for e in result.entries if "(shared)" in e.metric]
        assert shared, "expected recomputed shared-set geomeans"
        # Shared-set geomean of mcf and gzip at 6 cores on both sides.
        entry = next(
            e for e in shared if e.metric == "geomean.cores=6 (shared)"
        )
        assert entry.base == pytest.approx((2.2 * 2.8) ** 0.5)
        assert entry.change == pytest.approx(0.0)

    def test_subset_regression_still_detected(self):
        full = suite_report()
        subset = {
            "speedups": {"mcf": {"6": 1.8}, "gzip": {"6": 2.3}},
            "geomeans": {"6": 2.03},
        }
        result = diff(full, subset)
        assert not result.ok

    def test_cross_kind_rejected(self, tmp_path):
        # Records of the retired per-layer benches may linger in a
        # store; they never diff against a suite run.
        other = ResultsStore(tmp_path).record(
            "interp", {"programs": []}, environment=ENV
        )
        with pytest.raises(ValueError):
            diff(other, suite_report())

    def test_serialized_record_operand(self, tmp_path):
        store = ResultsStore(tmp_path)
        record = store.record("suite", suite_report(), environment=ENV)
        path = tmp_path / "suite" / f"{record.run_id}.json"
        payload = json.loads(path.read_text())
        result = diff(payload, record)
        assert result.ok
        assert result.base_id == record.run_id

    def test_as_dict_shape(self):
        result = diff(suite_report(), suite_report())
        data = result.as_dict()
        assert data["ok"] is True
        assert data["kind"] == "suite"
        assert all("metric" in e and "change" in e for e in data["entries"])


class TestBenchDiffCli:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def seed(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        base = store.record("suite", suite_report(), environment=ENV,
                            created=100.0)
        head = store.record("suite", scaled(suite_report(), 0.85),
                            environment=ENV, created=200.0)
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
             "--tolerance", "geomeans.*=0.5",
             "--tolerance", "speedups.*=0.5"]
        ) == 0
        assert self.run_cli(
            ["bench-diff", "latest~1", "latest", "--results-dir", results,
             "--default-tolerance", "0.5"]
        ) == 0

    def test_negative_offset_is_a_usage_error(self, tmp_path, capsys):
        self.seed(tmp_path)
        assert self.run_cli(
            ["bench-diff", "latest~-1", "latest",
             "--results-dir", str(tmp_path / "results")]
        ) == 2
        assert "'latest~-1'" in capsys.readouterr().err

    def test_only_suite_runs_are_resolved(self, tmp_path, capsys):
        _, base, _ = self.seed(tmp_path)
        store = ResultsStore(tmp_path / "results")
        store.record("interp", {"programs": []}, environment=ENV,
                     created=300.0)
        results = str(tmp_path / "results")
        # The newer interp record is neither ``latest`` nor listed.
        assert self.run_cli(
            ["bench-diff", base.run_id, "latest~1", "--results-dir", results]
        ) == 0
        assert self.run_cli(
            ["bench-diff", "--list", "--results-dir", results]
        ) == 0
        assert "interp" not in capsys.readouterr().out

    def test_file_operands(self, tmp_path):
        base_path = tmp_path / "base.json"
        head_path = tmp_path / "head.json"
        base_path.write_text(json.dumps(suite_report()))
        bad = copy.deepcopy(suite_report())
        bad["geomeans"]["6"] *= 0.8
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
    """The CLI's report writer records each suite report it writes."""

    @staticmethod
    def report():
        from repro.evaluation.parallel_runner import SuiteReport

        data = suite_report()
        return SuiteReport(
            jobs=1, cores=6, cache_dir=None, code_version="deadbeef",
            speedups=data["speedups"], geomeans=data["geomeans"],
        )

    def test_bench_sched_records_run(self, tmp_path, capsys):
        from repro.cli import _write_json_report, main

        results = tmp_path / "results"
        out = tmp_path / "suite.json"
        assert _write_json_report(str(out), self.report(), str(results))
        capsys.readouterr()
        store = ResultsStore(results)
        runs = store.load_runs("suite")
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
        import argparse

        from repro.cli import _results_dir, _write_json_report

        monkeypatch.chdir(tmp_path)
        # ``--results-dir ''`` wins over $REPRO_RESULTS_DIR.
        args = argparse.Namespace(results_dir="")
        assert _write_json_report("", self.report(), _results_dir(args))
        capsys.readouterr()
        assert sorted(tmp_path.iterdir()) == []


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
                "workers": {"configured": 4, "alive": 3},
                "accepting": True,
            }
        )
        assert gauges["serve.uptime_seconds"] == 12.5
        assert gauges["serve.queue.running"] == 2
        assert gauges["serve.in_flight"] == 2
        assert gauges["serve.workers.alive"] == 3
        assert gauges["serve.accepting"] == 1
        assert "serve.retries" not in gauges
