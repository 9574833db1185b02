"""The simulated timeline, held to the one its own placement walk drew.

``repro trace --sim-timeline`` draws a run's per-core intervals with
:func:`repro.obs.timeline.run_timeline`, which takes them from the
reference scheduler's walk.  ``tests/data/timeline_segments.json`` holds
a SHA-256 over that segment list for every differential source (restored
with a zero-iteration invocation and a sequential tail) under every
machine of ``MIXED_GRID``, and for every suite bench at 2, 4 and 6
cores.  The table was **generated while the timeline still placed
intervals with a walk of its own** over the compiled trace programs,
by running

    PYTHONPATH=src python -m tests.test_timeline_segments \\
        > tests/data/timeline_segments.json

in a checkout of that tree with this file copied in.  Every digest must
still come out the same.
"""

import json
from pathlib import Path

import pytest

from repro.bench import benchmark_names
from repro.obs.timeline import run_timeline
from tests.helpers import bench_placements, segments_digest
from tests.test_sched_differential import MIXED_GRID, SOURCES
from tests.test_timeline import _restored_with_empty_invocation

TABLE_PATH = Path(__file__).parent / "data" / "timeline_segments.json"

#: The core counts every bench is placed at (Figure 9's machines).
BENCH_CORES = (2, 4, 6)


def _source_row(name):
    executor = _restored_with_empty_invocation(name)
    return [
        segments_digest(run_timeline(executor, machine))
        for machine in MIXED_GRID
    ]


def _bench_row(placement, bench):
    """``placement``: :func:`tests.helpers.bench_placements` of a 6-core
    runner (the session's ``bench_placement``)."""
    return {
        str(cores): placement(bench, cores).digest for cores in BENCH_CORES
    }


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_source_timelines_are_the_recorded_ones(name, table):
    assert _source_row(name) == table["sources"][name]


@pytest.mark.parametrize("bench", benchmark_names())
def test_bench_timelines_are_the_recorded_ones(bench, bench_placement, table):
    assert _bench_row(bench_placement, bench) == table["benches"][bench]


if __name__ == "__main__":
    from repro.evaluation.runner import EvaluationRunner
    from repro.runtime.machine import MachineConfig

    _placement = bench_placements(EvaluationRunner(MachineConfig(cores=6)))
    print(
        json.dumps(
            {
                "benches": {
                    bench: _bench_row(_placement, bench)
                    for bench in benchmark_names()
                },
                "sources": {name: _source_row(name) for name in sorted(SOURCES)},
            },
            indent=1,
            sort_keys=True,
        )
    )
