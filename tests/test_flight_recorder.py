"""The flight recorder: ring semantics, subscriptions, crash dumps."""

import json

import pytest

from repro.telemetry import FlightRecorder, MetricsRegistry
from tests.conftest import make_latent_session


def _ticker(start=1000.0):
    state = {"t": start}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


class TestRing:
    def test_capacity_bounds_the_ring_but_not_the_count(self):
        recorder = FlightRecorder(capacity=3, clock=_ticker())
        for i in range(5):
            recorder.record({"type": "tick", "i": i})
        assert len(recorder) == 3
        assert recorder.events_seen == 5
        doc = recorder.to_dict()
        assert doc["events_dropped"] == 2
        assert [e["i"] for e in doc["events"]] == [2, 3, 4]
        # sequence numbers keep counting across drops
        assert [e["seq"] for e in doc["events"]] == [3, 4, 5]

    def test_tail_returns_newest_oldest_first(self):
        recorder = FlightRecorder(capacity=10, clock=_ticker())
        for i in range(4):
            recorder.record({"type": "tick", "i": i})
        assert [e["i"] for e in recorder.tail(2)] == [2, 3]
        assert recorder.tail(0) == []
        assert len(recorder.tail()) == 4

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestSubscriptions:
    def test_captures_registry_events(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(clock=_ticker()).attach(registry=registry)
        registry.emit("degraded_tie", reason="deadline", pairs=[[1, 2]])
        (event,) = recorder.tail()
        assert event["type"] == "degraded_tie"
        assert event["reason"] == "deadline"

    def test_attach_is_idempotent(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(clock=_ticker())
        recorder.attach(registry=registry)
        recorder.attach(registry=registry)
        registry.emit("tick")
        assert recorder.events_seen == 1

    def test_detach_stops_the_feed_but_keeps_the_ring(self):
        registry = MetricsRegistry()
        recorder = FlightRecorder(clock=_ticker()).attach(registry=registry)
        registry.emit("kept")
        recorder.detach()
        registry.emit("missed")
        assert [e["type"] for e in recorder.tail()] == ["kept"]

    def test_captures_comparisons_from_a_live_session(self):
        session = make_latent_session([0.0, 5.0], sigma=0.5)
        recorder = FlightRecorder(clock=_ticker()).attach(session=session)
        session.compare(0, 1)
        (event,) = recorder.tail()
        assert event["type"] == "comparison"
        assert {event["left"], event["right"]} == {0, 1}
        assert event["total_cost"] == session.total_cost
        assert event["cost"] > 0


class TestDumps:
    def test_dump_writes_json_and_creates_parents(self, tmp_path):
        registry = MetricsRegistry()
        recorder = FlightRecorder(clock=_ticker()).attach(registry=registry)
        registry.emit("checkpoint", path="q.ckpt")
        out = tmp_path / "deep" / "nested" / "flight.json"
        recorder.dump(out, reason="test")
        doc = json.loads(out.read_text())
        assert doc["reason"] == "test"
        assert doc["events"][0]["type"] == "checkpoint"
        assert registry.counter_value("flight_recorder_dumps_total") == 1

    def test_guard_dumps_on_crash_and_reraises(self, tmp_path):
        recorder = FlightRecorder(clock=_ticker())
        recorder.record({"type": "tick"})
        out = tmp_path / "crash.json"
        with pytest.raises(RuntimeError, match="boom"):
            with recorder.guard(out):
                raise RuntimeError("boom")
        doc = json.loads(out.read_text())
        assert doc["reason"] == "unhandled RuntimeError"
        assert doc["events"][-1] == {
            **doc["events"][-1],
            "type": "crash",
            "exception": "RuntimeError",
            "message": "boom",
        }

    def test_guard_is_silent_on_success(self, tmp_path):
        recorder = FlightRecorder(clock=_ticker())
        out = tmp_path / "never.json"
        with recorder.guard(out):
            pass
        assert not out.exists()
