"""Every key the suite asks the artifact store for, held to a recorded table.

A key hashes the code version, so any edit to the package moves every
key; what must not move is the formula.  ``tests/data/artifact_keys.json``
holds, with the code version pinned to ``"0" * 16``, each suite bench's
keys of every stage kind: ``profile`` and ``sequential``, ``plan`` and
``run`` at 2, 4 and 6 cores, and the ``recording`` of the 6-core
transformation.  The table was **generated while the disk cache and its
key helpers lived in a module of their own** (``repro.evaluation.cache``:
``EvaluationCache``, ``fingerprint``, ``pipeline_fingerprint``,
``code_version``), by running

    PYTHONPATH=src python -m tests.test_artifact_keys \\
        > tests/data/artifact_keys.json

in a checkout of that tree with this file copied in and :data:`PIN`
pointed at ``repro.evaluation.cache``.  Every key must still come out
the same.  The ``plan`` rows were added later, when that kind replaced
the ``module`` kind, whose rows were removed; no other row moved.
"""

import json
from pathlib import Path

import pytest

import repro.artifacts
from repro.bench import benchmark_names
from repro.core.loopinfo import HelixOptions
from repro.runtime.machine import PrefetchMode

TABLE_PATH = Path(__file__).parent / "data" / "artifact_keys.json"

#: The module holding the key helpers and the ``_code_version`` memo.
PIN = repro.artifacts

#: The code version every key of the table was taken under.
PINNED_VERSION = "0" * 16

#: The core counts every ``run`` key is taken at (Figure 9's machines).
RUN_CORES = (2, 4, 6)


def _keys(runner, bench, run):
    """``bench``'s keys on ``runner``'s store, ``run`` being its
    ``helix_run``; the caller pins the code version."""
    store = runner.artifacts
    machine = runner.machine
    config = PIN.pipeline_fingerprint(
        HelixOptions(), PrefetchMode.HELIX, None, False, None
    )
    return {
        "profile": store.key("profile", bench, machine=machine),
        "sequential": store.key("sequential", bench, machine=machine),
        "plan": {
            str(cores): store.key(
                "plan", bench, machine=machine.with_cores(cores),
                config=config, profile=runner.profile_digest(bench),
            )
            for cores in RUN_CORES
        },
        "run": {
            str(cores): store.key(
                "run", bench, machine=machine.with_cores(cores), config=config
            )
            for cores in RUN_CORES
        },
        "recording": store.key(
            "recording", bench,
            module=run.transformed, machine=machine, infos=run.infos,
        ),
    }


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE_PATH.read_text())


@pytest.mark.parametrize("bench", benchmark_names())
def test_bench_keys_are_the_recorded_ones(
    bench, suite_runner, table, monkeypatch
):
    # Recorded before the pin: the session runner memoizes recordings
    # under their real keys.
    run = suite_runner.helix_run(bench)
    monkeypatch.setattr(PIN, "_code_version", PINNED_VERSION)
    assert _keys(suite_runner, bench, run) == table[bench]


if __name__ == "__main__":
    from repro.evaluation.runner import EvaluationRunner
    from repro.runtime.machine import MachineConfig

    _runner = EvaluationRunner(MachineConfig(cores=6))
    _runs = {bench: _runner.helix_run(bench) for bench in benchmark_names()}
    PIN._code_version = PINNED_VERSION
    print(
        json.dumps(
            {
                bench: _keys(_runner, bench, run)
                for bench, run in _runs.items()
            },
            indent=1,
            sort_keys=True,
        )
    )
