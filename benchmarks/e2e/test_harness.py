"""Unit tests of the benchmark harness itself (no workload is run).

    python -m pytest benchmarks/e2e -q

Kept outside the tier-1 ``testpaths``: they test the measuring
instrument, not the program.
"""

import copy
import json
import re
from pathlib import Path

import pytest

from benchmarks.e2e import child, ledger, procs, workloads
from benchmarks.e2e.spans import (
    HARNESS,
    SpanRecorder,
    chrome_trace,
    coverage,
    layer_seconds,
    self_times,
    spans_from_dicts,
    spans_to_dicts,
)
from benchmarks.e2e.hostprobe import REFERENCE_S, Host, Window
from benchmarks.e2e.stats import (
    fastest_by_part,
    median,
    percentile,
    quartile_spread,
    samples_beyond,
    tail_percentile,
    worse_by,
)

CONTRACT = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ------------------------------------------------------------------- stats


def test_median_and_nearest_rank_percentile():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        median([])


def test_tail_percentile_needs_ten_samples_beyond():
    # 240 warm jobs: p99 has 2 samples beyond it, p95 has 12.
    assert samples_beyond(240, 99) == 2
    assert samples_beyond(240, 95) == 12
    q, value = tail_percentile(list(range(240)))
    assert (q, value) == (95, 227)
    # 200 is the fewest samples that support a p95.
    assert tail_percentile(list(range(200)))[0] == 95
    assert tail_percentile(list(range(199)))[0] == 90
    assert tail_percentile(list(range(1100)))[0] == 99
    # 24 cold jobs support no tail at all: report the median only.
    assert tail_percentile(list(range(24))) is None


def test_fastest_by_part_rejects_a_slow_spell_in_each_rep():
    quiet = {"gzip": 0.8, "mesa": 1.2, "mcf": 2.0}
    # Every rep is hit somewhere, no part is hit in all of them.
    reps = [dict(quiet, gzip=1.3), dict(quiet, mcf=2.9), dict(quiet, mesa=1.5)]
    assert min(sum(rep.values()) for rep in reps) > 4.2
    assert fastest_by_part(reps) == pytest.approx(4.0)
    assert fastest_by_part(reps[:1]) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        fastest_by_part([])


def test_host_windows_calibrate_by_the_readings_around_them():
    readings = iter([REFERENCE_S, 3 * REFERENCE_S, 3 * REFERENCE_S,
                     1.5 * REFERENCE_S])
    host = Host(reading=lambda: next(readings))
    with host.window() as first:
        pass
    with host.window() as second:
        pass
    # Twice as slow on average: ten raw seconds were five of work.
    assert first.slowness == pytest.approx(2.0)
    assert first.seconds(10.0) == pytest.approx(5.0)
    assert second.slowness == pytest.approx(2.25)
    assert host.mean_reading == pytest.approx(2.125 * REFERENCE_S)
    assert host.drift == pytest.approx(0.5)
    assert Window().seconds(3.0) == 3.0  # a quiet host changes nothing


def test_quartile_spread_and_worse_by():
    values = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 30.0]
    assert quartile_spread(values) < 0.05  # one burst does not move it
    assert worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert worse_by(10.0, 9.0, "higher") == pytest.approx(0.1)


# ------------------------------------------------------------------- spans


def test_self_time_subtracts_the_union_of_overlapping_children():
    rec = SpanRecorder()
    root = rec.add("rep", HARNESS, 0.0, 10.0)
    a = rec.add("a", "layer.a", 1.0, 5.0, parent=root.id)
    rec.add("b", "layer.b", 4.0, 8.0, parent=root.id)      # overlaps a
    rec.add("c", "layer.c", 9.0, 12.0, parent=root.id)     # sticks out
    rec.add("a1", "layer.a1", 2.0, 3.0, parent=a.id)
    own = self_times(rec.spans)
    # children cover [1, 8] and [9, 10] of the root's [0, 10].
    assert own[root.id] == pytest.approx(2.0)
    assert own[a.id] == pytest.approx(3.0)
    totals = layer_seconds(rec.spans)
    assert totals["layer.a"] == pytest.approx(3.0)
    assert totals["layer.a1"] == pytest.approx(1.0)
    assert totals[HARNESS] == pytest.approx(2.0)


def test_self_times_of_a_tree_add_up_to_its_root():
    rec = SpanRecorder()
    with rec.span("rep", HARNESS) as root:
        with rec.span("x", "layer.x"):
            with rec.span("y", "layer.y"):
                pass
        with rec.span("z", "layer.x") as relabelled:
            relabelled.layer = "layer.z"
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert sum(self_times(rec.spans).values()) == pytest.approx(root.duration)
    assert coverage(rec.spans, root.duration) <= 1.0
    assert "layer.z" in layer_seconds(rec.spans)
    assert all(s.trace == "rep" for s in rec.spans)


def test_spans_survive_the_trip_from_a_child_and_export():
    rec = SpanRecorder()
    with rec.span("rep", HARNESS):
        with rec.span("x", "layer.x"):
            pass
    shipped = spans_from_dicts(
        json.loads(json.dumps(spans_to_dicts(rec.spans))), trace="warm-traced"
    )
    assert [s.name for s in shipped] == ["rep", "x"]
    assert {s.trace for s in shipped} == {"warm-traced"}
    events = chrome_trace({"suite_warm": shipped})["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == 2 and all(e["dur"] >= 0 for e in complete)


# ----------------------------------------------------------- seeded inputs


def test_machine_grid_is_seeded_and_always_the_same_shape():
    one, again, other = (
        workloads.machine_grid(7), workloads.machine_grid(7),
        workloads.machine_grid(8),
    )
    assert one == again
    assert one != other
    for grid in (one, other):
        assert len(grid) == 80
        assert len({tuple(sorted(cell.items())) for cell in grid}) == 80
        pairs = {}
        for cell in grid:
            pairs.setdefault((cell["cores"], cell["prefetch"]), []).append(
                cell["latency"]
            )
        assert len(pairs) == 20
        assert all(len(latencies) == 4 for latencies in pairs.values())


def test_job_mix_is_seeded_and_asks_the_same_work_of_every_seed():
    cold, warm = workloads.job_mix(3)
    assert (cold, warm) == workloads.job_mix(3)
    other_cold, other_warm = workloads.job_mix(4)
    assert cold != other_cold and warm != other_warm
    keys = {(b, c) for b in workloads.SERVE_BENCHES for c in (2, 4, 6)}
    assert len(cold) == 24 and set(cold) == keys
    assert len(warm) == 2 and all(len(jobs) == 120 for jobs in warm)
    for jobs, other_jobs in zip(warm, other_warm):
        assert sorted(jobs) == sorted(other_jobs)
    assert tail_percentile(range(sum(len(jobs) for jobs in warm)))[0] == 95


# ---------------------------------------------------------------- contract


def test_contract_names_units_and_limits():
    end_to_end, per_layer = CONTRACT["end_to_end"], CONTRACT["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer] + [
        w["name"] for w in CONTRACT["workloads"]
    ]
    assert len(names) == len(set(names))
    for metric in end_to_end + per_layer:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= (
        end_to_end[0].items()
    )
    assert all(len(w["why"]) <= 200 for w in CONTRACT["workloads"])
    assert [w["name"] for w in CONTRACT["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


def synthetic_serve_rep():
    """Two cold and 240 warm jobs with made-up timestamps and events."""

    def job(bench, cores, at, outcome):
        events = [
            {"event": "job_started", "job": "j", "op": "run", "retries": 0},
            {"event": "stage_completed", "job": "j", "bench": bench,
             "stage": "execute", "outcome": outcome, "seconds": 0.4},
        ]
        final = {"event": "job_finished", "state": "done", "retries": 0,
                 "events": events, "result": {}}
        arrivals = [(at + 0.2, events[0]), (at + 0.7, events[1]),
                    (at + 0.8, final)]
        return workloads.JobRecord(
            bench, cores, at, at + 0.1, at + 0.8, final, at + 0.2, arrivals
        )

    cold = [job("art", 6, 0.0, "compute"), job("art", 6, 1.0, "compute")]
    warm = [job("mcf", 2, 2.0 + i, "disk") for i in range(240)]
    return workloads.ServeRep(
        spawn_s=0.5, cold=cold, warm=warm, cold_wall=2.0, warm_wall=120.0,
        rss_mb=90.0, cache_mb=28.0, cache_entries=10, status={},
        slowness=(1.0, 1.0, 2.0),
    )


def emitted_per_layer_names():
    counts = dict.fromkeys(child.COUNT_PROBES, 1.0)
    names = set(
        workloads.suite_layers({"counts": counts}, [], 1.0, Window(), 1.0)
    )
    rep = synthetic_serve_rep()
    spans, wall = workloads.serve_spans(rep, "t")
    names |= set(workloads.serve_layers(rep, spans, wall, 100.0))
    names |= set(workloads.job_metrics(rep))
    return names | {"host.calib_s", "host.calib_drift"}


def test_every_name_printed_is_in_benchmark_json_and_the_reverse():
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    assert emitted_per_layer_names() == declared
    contract = ledger.Contract()
    assert set(contract.per_layer) == declared
    assert contract.unit("wall_s") == "s"
    assert contract.with_units({"wall_s": 1.5}) == {
        "wall_s": {"value": 1.5, "unit": "s"}
    }
    assert set(ledger.EXACT) <= declared | set(contract.end_to_end)


def test_serve_spans_account_for_each_job_once():
    rep = synthetic_serve_rep()
    spans, wall = workloads.serve_spans(rep, "t")
    layers = workloads.serve_layers(rep, spans, wall, 100.0)
    assert layers["service.ack_ms_p50"] == pytest.approx(100.0)
    assert layers["service.queue_wait_ms_p50"] == pytest.approx(100.0)
    assert layers["service.run_warm_s_p50"] == pytest.approx(0.6)
    assert layers["runtime.restore_s"] == pytest.approx(240 * 0.4)
    assert layers["runtime.execute_s"] == pytest.approx(2 * 0.4)
    # art@6 executed twice: the second compute is wasted work.
    assert layers["service.duplicate_computes"] == 1
    assert layers["service.events_per_job"] == 3
    assert 0.0 < layers["trace.coverage"] <= 1.0
    assert workloads.job_metrics(rep)["service.warm_jobs_per_s"] == 2.0
    # Calibrated: phase A on a quiet host, phase B on one 1.5 times slow.
    assert rep.wall_s == pytest.approx(2.0 + 120.0 / 1.5)


# ------------------------------------------------------------- correctness


def test_corrupted_golden_entry_raises_failed_share():
    golden, paper = workloads.load_references()
    assert set(golden) == set(paper) and len(golden) == 13
    programs = {
        bench: dict(entry, parallel_output=entry["output"])
        for bench, entry in golden.items()
    }
    checks = workloads.Checks()
    workloads.check_programs(checks, golden, programs, "test")
    assert (checks.attempted, checks.failed) == (13, 0)

    corrupted = copy.deepcopy(golden)
    corrupted["mcf"]["output"][0] += "0"
    corrupted["art"]["instructions"] += 1
    workloads.check_programs(checks, corrupted, programs, "test")
    assert (checks.attempted, checks.failed) == (26, 2)
    assert checks.failed / checks.attempted > 0

    # A benchmark the run says nothing about is a failure, not a pass.
    workloads.check_programs(checks, golden, {}, "test")
    assert checks.failed == 2 + 13


def test_fig9_rel_err_uses_the_committed_paper_readings():
    _, paper = workloads.load_references()
    assert workloads.fig9_rel_err(dict(paper), paper) == 0.0
    off = {bench: value * 1.1 for bench, value in paper.items()}
    assert workloads.fig9_rel_err(off, paper) == pytest.approx(0.1)
    assert workloads.fig9_rel_err({"art": 4.51}, paper) == pytest.approx(0.1)


def test_checks_and_repeat():
    checks = workloads.Checks()
    assert checks.expect(True, "fine") and not checks.expect(False, "broken")
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.failures == ["broken"]
    calls = []
    workloads.repeat(5.0, lambda i: calls.append(i) or 2.0)
    assert calls == [0, 1, 2]
    workloads.repeat(5.0, lambda i: calls.append(i) or 21.0)
    assert calls == [0, 1, 2, 0]
    workloads.repeat(5.0, lambda i: calls.append(i) or 21.0, at_least=2)
    assert calls == [0, 1, 2, 0, 0, 1]


def test_benchmark_files_are_where_the_contract_says():
    here = Path(__file__).resolve().parent
    assert here == procs.ROOT / CONTRACT["paths"][0]
    assert CONTRACT["command"][-1] == "benchmarks.e2e"
    assert (here / "__main__.py").is_file()
