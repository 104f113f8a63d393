"""Flight recorder: ring bounds, dump/replay round-trip, auto-dump."""

import json

import pytest

from repro.artifact import read
from repro.obs.flight import (
    SCHEMA,
    FlightRecorder,
    validate_flight_doc,
)


def frame(step, wall=None, model=None, **extra):
    return {
        "step": step,
        "wall": wall or {"Comm": 0.001 * step},
        "model": model or {},
        **extra,
    }


class TestRings:
    def test_frames_bounded(self):
        rec = FlightRecorder(max_steps=4)
        for s in range(1, 11):
            rec.record_frame(frame(s))
        assert [f["step"] for f in rec.frames] == [7, 8, 9, 10]
        assert rec.frames_seen == 10

    def test_events_bounded_with_running_seq(self):
        rec = FlightRecorder(max_events=3)
        for i in range(7):
            rec.record_event("retry", attempt=i)
        assert [e["seq"] for e in rec.events] == [4, 5, 6]
        assert rec.events_seen == 7

    def test_events_stamped_with_current_step(self):
        rec = FlightRecorder()
        rec.record_frame(frame(5))
        rec.record_event("degradation")
        assert rec.events[-1]["step"] == 5

    def test_frame_requires_step(self):
        with pytest.raises(ValueError):
            FlightRecorder().record_frame({"wall": {}})

    def test_event_fields_cannot_shadow_envelope(self):
        rec = FlightRecorder()
        # "kind" collides with the positional parameter itself ...
        with pytest.raises(TypeError):
            rec.record_event("fault-injected", kind="drop")
        # ... and the envelope guard rejects the stamped keys.
        with pytest.raises(ValueError):
            rec.record_event("fault-injected", seq=7)
        with pytest.raises(ValueError):
            rec.record_event("fault-injected", step=3)

    def test_rejects_empty_rings(self):
        with pytest.raises(ValueError):
            FlightRecorder(max_steps=0)

    def test_clear_keeps_totals(self):
        rec = FlightRecorder()
        rec.record_frame(frame(1))
        rec.record_event("retry")
        rec.clear()
        assert not rec.frames and not rec.events
        assert rec.frames_seen == 1 and rec.events_seen == 1


class TestDumpRoundTrip:
    def build(self):
        rec = FlightRecorder(max_steps=8, max_events=8)
        for s in range(1, 6):
            rec.record_frame(frame(s, model={"Comm": 1e-6 * s}))
            if s % 2:
                rec.record_event("retry", phase="forward")
        rec.record_event("retry-exhausted", rank=0, peer=3)
        return rec

    def test_dump_validates(self):
        doc = self.build().dump("on-demand")
        assert validate_flight_doc(doc) == 5
        assert doc["schema"] == SCHEMA
        assert doc["totals"] == {"frames_seen": 5, "events_seen": 4}

    def test_replay_round_trip_exact(self):
        rec = self.build()
        doc = rec.dump("on-demand", meta={"pattern": "p2p"})
        replay = FlightRecorder.from_doc(doc)
        assert replay.dump("on-demand", meta={"pattern": "p2p"}) == doc

    def test_replay_continues_sequences(self):
        rec = self.build()
        replay = FlightRecorder.from_doc(rec.dump("x"))
        replay.record_event("retry")
        # Sequence numbers keep ascending past the restored tail.
        assert replay.events[-1]["seq"] == rec.events[-1]["seq"] + 1
        assert replay.events[-1]["step"] == 5

    def test_write_and_load(self, tmp_path):
        path = str(tmp_path / "flight.json")
        doc = self.build().write(path, "on-demand")
        loaded = read(path, validate_flight_doc)
        assert loaded == json.loads(json.dumps(doc))  # JSON-stable


class TestValidator:
    def test_rejects_wrong_schema(self):
        doc = FlightRecorder().dump("r")
        doc["schema"] = "repro-flightrec/999"
        with pytest.raises(ValueError, match="schema"):
            validate_flight_doc(doc)

    def test_rejects_empty_reason(self):
        doc = FlightRecorder().dump("r")
        doc["reason"] = ""
        with pytest.raises(ValueError, match="reason"):
            validate_flight_doc(doc)

    def test_rejects_unordered_steps(self):
        rec = FlightRecorder()
        rec.record_frame(frame(2))
        doc = rec.dump("r")
        doc["frames"].append(dict(doc["frames"][0], step=1))
        with pytest.raises(ValueError, match="strictly increasing"):
            validate_flight_doc(doc)

    def test_rejects_negative_stage_seconds(self):
        rec = FlightRecorder()
        rec.record_frame(frame(1, wall={"Comm": -0.1}))
        with pytest.raises(ValueError, match="Comm"):
            validate_flight_doc(rec.dump("r"))

    def test_rejects_totals_from_doc_cannot_read(self):
        doc = FlightRecorder().dump("r")
        doc["totals"] = {}
        with pytest.raises(ValueError, match=r"\$\.totals\.frames_seen"):
            FlightRecorder.from_doc(doc)
        doc["totals"] = {"frames_seen": 0, "events_seen": -1}
        with pytest.raises(ValueError, match=r"\$\.totals\.events_seen"):
            validate_flight_doc(doc)

    def test_rejects_overflowing_ring(self):
        rec = FlightRecorder(max_steps=2)
        rec.record_frame(frame(1))
        rec.record_frame(frame(2))
        doc = rec.dump("r")
        doc["frames"].append(frame(3))
        with pytest.raises(ValueError, match="exceed max_steps"):
            validate_flight_doc(doc)

    def test_rejects_out_of_order_events(self):
        rec = FlightRecorder()
        rec.record_event("a")
        rec.record_event("b")
        doc = rec.dump("r")
        doc["events"].reverse()
        with pytest.raises(ValueError, match="out of order"):
            validate_flight_doc(doc)


class TestAutoDump:
    def test_autodump_on_notable_event(self, tmp_path):
        from repro.obs.telemetry import TELEMETRY, StepTelemetry

        path = str(tmp_path / "auto.json")
        telem = StepTelemetry()
        prev = TELEMETRY.autodump_path
        TELEMETRY.autodump_path = path
        try:
            telem.flight.record_frame(frame(1))
            telem.record_event("retry")  # not an auto-dump kind
            assert not (tmp_path / "auto.json").exists()
            telem.record_event("degradation", from_pattern="p2p", to_pattern="3stage")
        finally:
            TELEMETRY.autodump_path = prev
        doc = read(path, validate_flight_doc)
        assert doc["reason"] == "degradation"
        assert [e["kind"] for e in doc["events"]] == ["retry", "degradation"]

    def test_no_autodump_without_path(self):
        from repro.obs.telemetry import TELEMETRY, StepTelemetry

        prev = TELEMETRY.autodump_path
        TELEMETRY.autodump_path = None
        try:
            telem = StepTelemetry()
            telem.record_event("retry-exhausted")  # must not raise or write
        finally:
            TELEMETRY.autodump_path = prev
        assert telem.counter_value("events_total", kind="retry-exhausted") == 1
