"""Tests for the service domain layer: jobs, states, observers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import EvaluationObserver
from repro.service.jobs import (
    CompileJob,
    InvalidTransition,
    Job,
    JobState,
    RunJob,
    SuiteJob,
)
from tests.helpers import ObservedEvent, check_event_ordering


# -- state machine -----------------------------------------------------------


def test_happy_path_transitions():
    job = Job(spec=RunJob("mcf"))
    assert job.state is JobState.QUEUED
    assert not job.finished.is_set()
    job.transition(JobState.RUNNING)
    job.transition(JobState.DONE)
    assert job.state.terminal
    assert job.finished.is_set()


def test_retry_edge_running_to_queued():
    """There is no retry edge: a running job only ever ends."""
    job = Job(spec=RunJob("mcf"))
    job.transition(JobState.RUNNING)
    with pytest.raises(InvalidTransition):
        job.transition(JobState.QUEUED)
    assert job.state is JobState.RUNNING
    job.transition(JobState.FAILED)
    assert job.finished.is_set()


@pytest.mark.parametrize(
    "path",
    [
        (JobState.DONE,),  # queued -> done skips running
        (JobState.FAILED,),  # queued -> failed skips running
        (JobState.RUNNING, JobState.DONE, JobState.RUNNING),
        (JobState.CANCELLED, JobState.RUNNING),
        (JobState.RUNNING, JobState.FAILED, JobState.QUEUED),
    ],
)
def test_illegal_transitions_raise(path):
    job = Job(spec=RunJob("mcf"))
    with pytest.raises(InvalidTransition):
        for state in path:
            job.transition(state)


def test_job_ids_unique():
    ids = {Job(spec=RunJob("mcf")).id for _ in range(50)}
    assert len(ids) == 50


def test_spec_ops():
    assert CompileJob("mcf").op == "compile"
    assert RunJob("mcf").op == "run"
    assert SuiteJob().op == "suite"


# -- observers ---------------------------------------------------------------


def test_base_observer_is_noop():
    obs = EvaluationObserver()
    obs.job_started(None)
    obs.stage_completed(None, "b", "s", "o", 0.0)
    obs.artifact_stored(None, "k", "key", "hit")
    obs.job_finished(None)


# -- event-ordering contract -------------------------------------------------


def _ev(event, **args):
    return ObservedEvent(kind=event, job_id="j", args=args)


def test_ordering_accepts_wellformed_stream():
    events = [
        _ev("job_started"),
        _ev("artifact_stored", artifact="module", key="k", outcome="store"),
        _ev("stage_completed", bench="mcf", stage="module",
            outcome="compute", seconds=0.1),
        _ev("job_finished", state="done"),
    ]
    assert check_event_ordering(events) == []


def test_ordering_accepts_retry_stream():
    """A retry is a resubmission: the failed job and the job that retries
    it each stream their own job_started..job_finished, and each stream
    passes on its own; run together they would break the contract."""
    failed = [
        ObservedEvent(kind="job_started", job_id="j1", args={}),
        ObservedEvent(kind="stage_completed", job_id="j1",
                      args=dict(bench="b", stage="s", outcome="compute",
                                seconds=0.0)),
        ObservedEvent(kind="job_finished", job_id="j1",
                      args=dict(state="failed")),
    ]
    retried = [
        ObservedEvent(kind="job_started", job_id="j2", args={}),
        ObservedEvent(kind="job_finished", job_id="j2",
                      args=dict(state="done")),
    ]
    assert check_event_ordering(failed) == []
    assert check_event_ordering(retried) == []
    assert check_event_ordering(failed + retried)


@pytest.mark.parametrize(
    "events, fragment",
    [
        ([], "empty"),
        ([_ev("stage_completed", bench="b", stage="s", outcome="c",
              seconds=0.0)], "not job_started"),
        ([_ev("job_started")], "not job_finished"),
        (
            [
                _ev("job_started"),
                _ev("job_finished", state="done"),
                _ev("job_finished", state="done"),
            ],
            "job_finished",
        ),
        # The stream an in-daemon retry would emit: a second job_started.
        pytest.param(
            [
                _ev("job_started"),
                _ev("stage_completed", bench="b", stage="s",
                    outcome="compute", seconds=0.0),
                _ev("job_started"),
                _ev("job_finished", state="done"),
            ],
            "job_started",
            id="events4-retries",
        ),
    ],
)
def test_ordering_flags_violations(events, fragment):
    problems = check_event_ordering(events)
    assert problems
    assert any(fragment in p for p in problems)


@settings(max_examples=100, deadline=None)
@given(
    stages=st.lists(
        st.tuples(
            st.sampled_from(["stage_completed", "artifact_stored"]),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=8,
    ),
)
def test_ordering_property(stages):
    """Any stream built by the contract passes the contract checker."""
    events = [_ev("job_started")]
    for kind, _ in stages:
        if kind == "stage_completed":
            events.append(
                _ev(kind, bench="b", stage="s", outcome="compute",
                    seconds=0.0)
            )
        else:
            events.append(_ev(kind, kind_="k", key="k", outcome="hit"))
    events.append(_ev("job_finished", state="done"))
    assert check_event_ordering(events) == []
    # ... and the same stream with the terminal event displaced fails.
    if len(events) > 2:
        broken = [events[-1]] + events[:-1]
        assert check_event_ordering(broken)
