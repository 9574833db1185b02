"""Fuzzing `validate_event` and `check_event_ordering` against
malformed, truncated, and out-of-order event streams.

The daemon's JSON-lines protocol is consumed by CI (`serve-smoke`
validates every logged line) and by external clients, so the two
validators must reject anything shaped wrong without ever crashing --
these tests drive them with hypothesis-generated garbage alongside
deterministic known-bad cases.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.daemon import PROTOCOL_VERSION, validate_event
from tests.helpers import ObservedEvent, check_event_ordering

assert PROTOCOL_VERSION == 3

# -- strategy building blocks ------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

#: Well-formed events, per kind, with every required field present.
WELL_FORMED = {
    "accepted": {"event": "accepted", "job": "j1", "op": "run"},
    "job_started": {"event": "job_started", "job": "j1", "op": "run"},
    "stage_completed": {
        "event": "stage_completed", "job": "j1", "bench": "mcf",
        "stage": "compile", "outcome": "compute", "seconds": 0.5,
    },
    "artifact_stored": {
        "event": "artifact_stored", "job": "j1", "kind": "recording",
        "key": "ab12", "outcome": "store",
    },
    "job_finished": {"event": "job_finished", "job": "j1", "state": "failed"},
    "status": {
        "event": "status", "run": "r1", "uptime_seconds": 1.0,
        "queue": {}, "workers": {}, "metrics": {},
    },
    "heartbeat": {
        "event": "heartbeat", "uptime_seconds": 1.0, "queue": {},
        "workers": {},
    },
    "trace_written": {"event": "trace_written", "job": "j1", "path": "t.json"},
    "cancelled": {"event": "cancelled", "job": "j1"},
    "error": {"event": "error", "message": "boom"},
    "pong": {"event": "pong"},
    "draining": {"event": "draining"},
}


class TestValidateEventDeterministic:
    def test_every_known_kind_validates(self):
        for kind, event in WELL_FORMED.items():
            assert validate_event(event) == [], kind

    def test_done_requires_result(self):
        done = dict(WELL_FORMED["job_finished"], state="done")
        assert validate_event(done) == ["done job_finished missing result"]
        done["result"] = {"ok": True}
        assert validate_event(done) == []

    def test_non_object_rejected(self):
        for junk in (None, 7, "event", ["event"], 3.5, True):
            assert validate_event(junk) == ["event is not an object"]

    def test_missing_or_bad_kind(self):
        assert validate_event({}) == ["missing event kind"]
        assert validate_event({"event": ""}) == ["missing event kind"]
        assert validate_event({"event": 42}) == ["missing event kind"]
        assert validate_event({"event": "wat"}) == [
            "unknown event kind 'wat'"
        ]

    def test_each_required_field_reported_when_missing(self):
        for kind, event in WELL_FORMED.items():
            for field in event:
                if field == "event":
                    continue
                mutilated = {k: v for k, v in event.items() if k != field}
                problems = validate_event(mutilated)
                assert any(field in p for p in problems), (kind, field)

    def test_log_line_wrapping_stays_valid(self):
        # The daemon's log wraps events with seq/run; extra fields must
        # not trip validation (forward-compatible schema).
        wrapped = {"seq": 3, "run": "abc", **WELL_FORMED["heartbeat"]}
        assert validate_event(wrapped) == []


class TestValidateEventFuzz:
    @given(st.recursive(
        json_scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=8), inner, max_size=4),
        ),
        max_leaves=12,
    ))
    @settings(max_examples=200, deadline=None)
    def test_never_crashes_on_arbitrary_json(self, payload):
        problems = validate_event(payload)
        assert isinstance(problems, list)
        assert all(isinstance(p, str) for p in problems)

    @given(
        kind=st.sampled_from(sorted(WELL_FORMED)),
        dropped=st.sets(st.text(max_size=12), max_size=3),
        extra=st.dictionaries(
            st.text(min_size=1, max_size=8), json_scalars, max_size=3
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_truncated_events_flag_exactly_the_missing_fields(
        self, kind, dropped, extra
    ):
        event = dict(WELL_FORMED[kind])
        required = set(event) - {"event"}
        # The kind stays: without it no field is required, and an event
        # without a kind is ``test_missing_or_bad_kind``'s case.
        for field in dropped - {"event"}:
            event.pop(field, None)
        for key, value in extra.items():
            event.setdefault(key, value)
        problems = validate_event(event)
        missing = required - set(event)
        if kind == "job_finished" and event.get("state") == "done":
            pass  # the result-presence rule may add one more problem
        else:
            assert len(problems) == len(missing)
        for field in missing:
            assert any(field in p for p in problems)

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_truncated_wire_lines_fail_parse_or_validate(self, prefix):
        # A truncated JSON line either fails to parse (the daemon
        # answers with an error event) or parses to something
        # validate_event can classify -- never a crash.
        line = json.dumps(WELL_FORMED["job_started"])[: len(prefix) % 40]
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            return
        assert isinstance(validate_event(payload), list)


# -- event-ordering fuzz -----------------------------------------------------


def make_events(kinds):
    return [ObservedEvent(kind=kind, job_id="j1") for kind in kinds]


WELL_ORDERED = [
    ["job_started", "job_finished"],
    ["job_started", "stage_completed", "artifact_stored", "job_finished"],
]


class TestCheckEventOrdering:
    def test_well_ordered_streams_pass(self):
        for kinds in WELL_ORDERED:
            assert check_event_ordering(make_events(kinds)) == [], kinds

    def test_empty_stream(self):
        assert check_event_ordering([]) == ["empty event stream"]

    def test_truncated_stream_missing_finish(self):
        problems = check_event_ordering(
            make_events(["job_started", "stage_completed"])
        )
        assert any("job_finished" in p for p in problems)

    def test_headless_stream(self):
        problems = check_event_ordering(
            make_events(["stage_completed", "job_finished"])
        )
        assert any("not job_started" in p for p in problems)

    def test_double_finish(self):
        problems = check_event_ordering(
            make_events(["job_started", "job_finished", "job_finished"])
        )
        assert any("job_finished events" in p for p in problems)

    def test_job_started_fires_once(self):
        bad = make_events(
            ["job_started", "stage_completed", "job_started", "job_finished"]
        )
        problems = check_event_ordering(bad)
        assert problems == ["2 job_started events (expected 1)"]

    @given(
        st.lists(
            st.sampled_from(
                ["job_started", "stage_completed", "artifact_stored",
                 "job_finished"]
            ),
            min_size=0,
            max_size=8,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzz_never_crashes_and_accepts_only_contracts(self, kinds):
        problems = check_event_ordering(make_events(kinds))
        assert isinstance(problems, list)
        well_formed = (
            bool(kinds)
            and kinds[0] == "job_started"
            and kinds[-1] == "job_finished"
            and kinds.count("job_started") == 1
            and kinds.count("job_finished") == 1
        )
        if well_formed:
            assert problems == []
        else:
            assert problems

    @given(st.permutations(
        ["job_started", "stage_completed", "artifact_stored", "job_finished"]
    ))
    @settings(max_examples=24, deadline=None)
    def test_out_of_order_permutations(self, kinds):
        problems = check_event_ordering(make_events(list(kinds)))
        in_order = kinds[0] == "job_started" and kinds[-1] == "job_finished"
        assert (problems == []) == in_order
