"""Shared pytest configuration.

Points the CLI's default results store at a per-test temporary
directory, so bench/suite commands invoked inside tests never write
run records into the developer's working tree (`.repro-results`).
Tests that exercise the store explicitly pass ``--results-dir``.

``suite_runner`` is one 6-core evaluation runner for the session, so
the modules that inspect every suite bench's recording record each
bench once between them, and ``bench_placement`` places each of those
recordings with the reference scheduler once per core count.
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_results_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results-store"))


@pytest.fixture(scope="session")
def suite_runner():
    from repro.evaluation.runner import EvaluationRunner
    from repro.runtime.machine import MachineConfig

    return EvaluationRunner(MachineConfig(cores=6))


@pytest.fixture(scope="session")
def bench_placement(suite_runner):
    """``bench_placement(bench, cores)``: the reference scheduler's
    placement of a suite bench's recording at ``cores`` cores
    (:func:`tests.helpers.bench_placements`), once per session."""
    from tests.helpers import bench_placements

    return bench_placements(suite_runner)
