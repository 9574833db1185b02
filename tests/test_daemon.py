"""End-to-end tests for the ``repro serve`` daemon and its client."""

import asyncio
import json
import os
import threading
import time

import pytest

from repro.service.orchestrator import Orchestrator
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import Daemon, validate_event

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

#: How long a ``slowd`` compile waits for its gate before going ahead
#: anyway, so a test that never opens it cannot hang a worker for good.
GATE_TIMEOUT = 60.0


@pytest.fixture()
def slow_gate():
    """Every compile of ``slowd`` waits on this event: a test holds
    workers busy until the state it asserts is in place, then sets it.
    Teardown always sets it (the daemon fixtures, which stop their
    daemon first, set it before they do)."""
    gate = threading.Event()
    yield gate
    gate.set()


@pytest.fixture()
def tiny_bench(monkeypatch, slow_gate):
    from repro.bench import suite as bench_suite
    from repro.evaluation import runner as runner_mod

    def slow_source(scale):
        slow_gate.wait(GATE_TIMEOUT)
        return PROGRAM

    spec = bench_suite.BenchmarkSpec(
        "tinyd", "synthetic daemon test bench",
        lambda scale: PROGRAM, 1.0, "test",
    )
    slow = bench_suite.BenchmarkSpec(
        "slowd", "synthetic slow daemon test bench",
        slow_source, 1.0, "test",
    )
    monkeypatch.setitem(bench_suite.BENCHMARKS, "tinyd", spec)
    monkeypatch.setitem(bench_suite.BENCHMARKS, "slowd", slow)
    monkeypatch.setattr(
        runner_mod, "benchmark_names", lambda: ["tinyd"]
    )
    return "tinyd"


@pytest.fixture()
def daemon(tmp_path, tiny_bench, slow_gate):
    socket_path = str(tmp_path / "repro.sock")
    log_path = str(tmp_path / "jobs.jsonl")
    orchestrator = Orchestrator(cache=tmp_path / "cache", workers=2)
    server = Daemon(
        orchestrator,
        socket_path=socket_path,
        drain_timeout=60.0,
        log_path=log_path,
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(
            server.serve(install_signal_handlers=False)
        ),
        daemon=True,
    )
    thread.start()
    assert server.ready.wait(10)
    yield server
    slow_gate.set()
    server.request_stop()
    thread.join(30)
    assert not thread.is_alive()


def one_shot_run(bench, cores, cache_dir):
    """The one-shot CLI equivalent of a daemon ``run`` job."""
    from repro.evaluation.runner import EvaluationRunner
    from repro.runtime.machine import MachineConfig

    runner = EvaluationRunner(MachineConfig(cores=cores), cache=cache_dir)
    run = runner.helix_run(bench)
    return {
        "bench": bench,
        "cores": cores,
        "speedup": run.speedup,
        "cycles": run.parallel.cycles,
        "sequential_cycles": run.sequential.cycles,
        "output": list(run.parallel.result.output),
        "output_matches": run.output_matches,
        "chosen": [list(loop) for loop in run.chosen],
    }


def test_ping_and_stats(daemon):
    """``status`` is the one introspection RPC: the old ``stats`` op is
    answered like any unknown op."""
    with ServiceClient(socket_path=daemon.socket_path) as client:
        assert client.ping() is True
        status = client.status()
        assert validate_event(status) == []
        assert sum(status["queue"].values()) == 0
        assert status["artifacts"]["artifacts"] == {}
        with pytest.raises(ServiceError, match="unknown op 'stats'"):
            client.request({"op": "stats"})
        assert client.ping() is True


def test_concurrent_clients_byte_identical(daemon, tiny_bench, tmp_path):
    """>= 8 concurrent clients all get byte-identical results, equal to
    the one-shot CLI pipeline's."""
    clients = 8
    results = [None] * clients
    errors = []

    def worker(index):
        try:
            with ServiceClient(socket_path=daemon.socket_path) as client:
                finished = client.run(
                    {"op": "run", "bench": tiny_bench, "cores": 4}
                )
                for event in finished["events"]:
                    assert validate_event(event) == []
                results[index] = finished["result"]
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not errors
    assert all(result is not None for result in results)

    blobs = {json.dumps(r, sort_keys=True) for r in results}
    assert len(blobs) == 1, "daemon results differ across clients"

    expected = one_shot_run(tiny_bench, 4, tmp_path / "oneshot-cache")
    assert json.dumps(results[0], sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )


def test_resubmission_hits_warm_store(daemon, tiny_bench):
    with ServiceClient(socket_path=daemon.socket_path) as client:
        client.run({"op": "run", "bench": tiny_bench, "cores": 4})
        finished = client.run(
            {"op": "run", "bench": tiny_bench, "cores": 4}
        )
        hits = [
            event for event in finished["events"]
            if event["event"] == "artifact_stored"
            and event["outcome"] == "hit"
        ]
        assert hits, "resubmitted job saw no warm artifact hits"
        counters = client.status()["artifacts"]["artifacts"]
        assert sum(row["hits"] for row in counters.values()) > 0


def test_compile_and_traced_run_ops(daemon, tiny_bench):
    from repro.obs import validate_chrome_trace

    with ServiceClient(socket_path=daemon.socket_path) as client:
        # A traced job's trace rides on its terminal event, with the
        # job's metrics delta embedded.  On a
        # cold store it shows every stage.
        traced = client.run(
            {"op": "run", "bench": "mcf", "cores": 6, "trace": True}
        )
        # The synthetic bench has no profitable loops; compile a real
        # one to see the transform actually fire.
        compiled = client.run({"op": "compile", "bench": "mcf", "cores": 4})
        assert compiled["result"]["parallelized"] >= 1
    assert traced["result"]["output_matches"] is True
    assert "trace_path" not in traced
    payload = traced["trace"]
    assert validate_chrome_trace(payload) == []
    assert payload["otherData"]["metrics"] == traced["metrics"]
    names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
    for required in (
        "frontend.lower",
        "stage.compile",
        "helix.parallelize_module",
        "exec.parallel",
    ):
        assert required in names, required


def test_suite_op_streams_bench_progress(daemon, tiny_bench):
    with ServiceClient(socket_path=daemon.socket_path) as client:
        finished = client.run(
            {"op": "suite", "benches": [tiny_bench], "cores": 4}
        )
        assert finished["result"]["geomeans"]
        stages = [
            event for event in finished["events"]
            if event["event"] == "stage_completed"
        ]
        assert stages, "suite job streamed no stage events"


def test_cancel_queued_job(daemon, tiny_bench, slow_gate):
    """With both workers held on gated jobs, a queued job can be
    cancelled before it ever runs."""
    with ServiceClient(socket_path=daemon.socket_path) as client:
        blockers = [
            client.request({"op": "run", "bench": "slowd", "cores": 2}),
            client.request({"op": "run", "bench": "slowd", "cores": 3}),
        ]
        victim = client.request(
            {"op": "run", "bench": tiny_bench, "cores": 4}
        )
        assert client.cancel(victim) is True
        finished = client.wait(victim)
        assert finished["state"] == "cancelled"
        slow_gate.set()
        for job in blockers:
            done = client.wait(job)
            assert done["state"] == "done"


def test_bad_requests_get_errors(daemon):
    with ServiceClient(socket_path=daemon.socket_path) as client:
        with pytest.raises(ServiceError, match="unknown op"):
            client.request({"op": "explode"})
        # Tracing is ``"trace": true`` on a job, not an op of its own.
        with pytest.raises(ServiceError, match="unknown op 'trace'"):
            client.request({"op": "trace", "bench": "mcf"})
        with pytest.raises(ServiceError, match="bad run request"):
            client.request({"op": "run"})
        with pytest.raises(ServiceError, match="unknown benchmark"):
            client.run({"op": "run", "bench": "does-not-exist"})


def test_job_log_written(daemon, tiny_bench):
    with ServiceClient(socket_path=daemon.socket_path) as client:
        client.run({"op": "run", "bench": tiny_bench, "cores": 4})
    lines = [
        json.loads(line)
        for line in open(daemon.log_path, encoding="utf-8")
    ]
    assert any(event["event"] == "accepted" for event in lines)
    assert any(event["event"] == "job_finished" for event in lines)
    for event in lines:
        assert validate_event(event) == []


@pytest.fixture()
def obs_daemon(tmp_path, tiny_bench, slow_gate):
    """A daemon with the full observability plane on: fast heartbeat,
    job log."""
    socket_path = str(tmp_path / "obs.sock")
    orchestrator = Orchestrator(cache=tmp_path / "cache", workers=2)
    server = Daemon(
        orchestrator,
        socket_path=socket_path,
        drain_timeout=60.0,
        log_path=str(tmp_path / "jobs.jsonl"),
        heartbeat=0.2,
    )
    thread = threading.Thread(
        target=lambda: asyncio.run(
            server.serve(install_signal_handlers=False)
        ),
        daemon=True,
    )
    thread.start()
    assert server.ready.wait(10)
    yield server
    slow_gate.set()
    server.request_stop()
    thread.join(30)
    assert not thread.is_alive()


def test_status_rpc_schema_and_queue_depth(obs_daemon, tiny_bench, slow_gate):
    with ServiceClient(socket_path=obs_daemon.socket_path) as client:
        status = client.status()
        assert validate_event(status) == []
        assert status["run"] == obs_daemon.run_id
        assert status["uptime_seconds"] >= 0
        assert status["workers"] == {"configured": 2, "alive": 2}
        assert status["accepting"] is True
        assert set(status["queue"]) == {
            "queued", "running", "done", "failed", "cancelled",
        }
        assert all(count == 0 for count in status["queue"].values())
        # Hold both workers on gated jobs plus one queued job, then
        # check the live depth gauges add up.
        jobs = [
            client.request({"op": "run", "bench": "slowd", "cores": c})
            for c in (2, 3, 4)
        ]
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            status = client.status()
            if status["queue"]["running"] == 2:
                break
            time.sleep(0.05)
        assert status["queue"]["running"] == 2
        assert status["queue"]["queued"] == 1
        in_flight = status["in_flight"]
        assert len(in_flight) == 2
        for entry in in_flight:
            assert entry["op"] == "run"
            assert entry["bench"] == "slowd"
            assert entry["age_seconds"] >= 0
        slow_gate.set()
        for job in jobs:
            client.wait(job)
        status = client.status()
        assert status["queue"]["done"] == 3
        assert status["queue"]["running"] == 0
        assert status["in_flight"] == []


def test_traced_job_carries_a_valid_perfetto_trace(obs_daemon, tiny_bench):
    from repro.obs import validate_chrome_trace

    with ServiceClient(socket_path=obs_daemon.socket_path) as client:
        finished = client.run(
            {"op": "run", "bench": tiny_bench, "cores": 4, "trace": True}
        )
        payload = finished.get("trace")
        assert payload, "traced job carried no trace"
        assert validate_chrome_trace(payload) == []
        spans = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert spans, "trace has no spans"
        assert payload["otherData"]["metrics"] == finished["metrics"]
        # A repeat is answered by the stored ``run`` artifact, which is
        # all its trace shows.
        repeat = client.run(
            {"op": "run", "bench": tiny_bench, "cores": 4, "trace": True}
        )
        payload = repeat["trace"]
        assert validate_chrome_trace(payload) == []
        assert [
            e["name"] for e in payload["traceEvents"] if e["ph"] == "X"
        ] == ["stage.run"]
        # An untraced job gets no trace at all.
        plain = client.run({"op": "run", "bench": tiny_bench, "cores": 4})
        assert "trace" not in plain


def test_job_metrics_are_per_job_deltas(obs_daemon, tiny_bench):
    """Two jobs on a warm store must not double-count each other's work:
    each terminal event carries only its own attempt's delta."""
    with ServiceClient(socket_path=obs_daemon.socket_path) as client:
        cold = client.run({"op": "run", "bench": tiny_bench, "cores": 4})
        warm = client.run({"op": "run", "bench": tiny_bench, "cores": 4})
    cold_counters = cold["metrics"]["counters"]
    warm_counters = warm["metrics"]["counters"]
    # The cold attempt compiles and executes from scratch; the warm
    # resubmission reads its stored answer and enters no other stage.
    # Each terminal event must carry only its own attempt's delta:
    # pre-isolation, job.metrics was a shared-registry snapshot, which
    # would have replayed the cold job's computes in the warm job too.
    assert cold_counters.get("stage.execute.computes", 0) >= 1
    assert cold_counters.get("stage.run.computes", 0) == 1
    assert cold_counters.get("interp.codegen.functions", 0) >= 1
    assert warm_counters.get("interp.codegen.functions", 0) == 0
    assert warm_counters.get("stage.run.disk_hits", 0) == 1
    assert warm_counters.get("evalcache.hits.run", 0) == 1
    assert not [
        name for name in warm_counters
        if name.startswith("stage.") and name.endswith(".computes")
    ]
    cold_store_misses = sum(
        v for k, v in cold_counters.items()
        if k.startswith("evalcache.misses.")
    )
    warm_store_misses = sum(
        v for k, v in warm_counters.items()
        if k.startswith("evalcache.misses.")
    )
    assert cold_store_misses >= 1
    assert warm_store_misses == 0


def test_log_has_seq_run_and_heartbeats(obs_daemon, tiny_bench):
    with ServiceClient(socket_path=obs_daemon.socket_path) as client:
        client.run({"op": "run", "bench": tiny_bench, "cores": 4})
        time.sleep(0.5)  # let at least one more heartbeat land
    lines = [
        json.loads(line)
        for line in open(obs_daemon.log_path, encoding="utf-8")
    ]
    assert lines
    seqs = [line["seq"] for line in lines]
    assert seqs == list(range(1, len(lines) + 1)), "seq not monotonic"
    assert {line["run"] for line in lines} == {obs_daemon.run_id}
    kinds = [line["event"] for line in lines]
    assert "heartbeat" in kinds
    assert kinds[0] == "heartbeat", "first heartbeat should be immediate"
    for line in lines:
        payload = {
            k: v for k, v in line.items() if k not in ("seq", "run")
        }
        assert validate_event(payload) == []
    beats = [line for line in lines if line["event"] == "heartbeat"]
    assert all(
        "queue" in beat and "workers" in beat and beat["uptime_seconds"] >= 0
        for beat in beats
    )


def test_graceful_drain(tmp_path, tiny_bench, slow_gate):
    """request_stop (the SIGTERM path) finishes in-flight jobs, tears
    the workers down, and removes the socket."""
    socket_path = str(tmp_path / "drain.sock")
    orchestrator = Orchestrator(cache=tmp_path / "cache", workers=2)
    server = Daemon(orchestrator, socket_path=socket_path, drain_timeout=60)
    thread = threading.Thread(
        target=lambda: asyncio.run(
            server.serve(install_signal_handlers=False)
        ),
        daemon=True,
    )
    thread.start()
    assert server.ready.wait(10)

    client = ServiceClient(socket_path=socket_path)
    job = client.request({"op": "run", "bench": "slowd", "cores": 4})
    server.request_stop()
    slow_gate.set()
    # The in-flight job still completes and streams its terminal event.
    finished = client.wait(job)
    assert finished["state"] == "done"
    client.close()
    thread.join(30)
    assert not thread.is_alive()
    assert not os.path.exists(socket_path)
    # Workers were joined; a fresh submit is refused.
    with pytest.raises(RuntimeError):
        orchestrator.submit(
            __import__("repro.service.jobs", fromlist=["RunJob"]).RunJob(
                "tinyd"
            )
        )
