"""Chrome trace-event export and schema-validator tests."""

import json

import pytest

from repro.artifact import read
from repro.cli import main
from repro.obs.export import (
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def small_trace():
    tracer = Tracer(enabled=True)
    epoch = tracer._epoch
    with tracer.span("step 1", cat="step", track="run"):
        tracer.add_wall_span("Pair", epoch, epoch + 0.25, cat="stage", track="stages")
        tracer.instant("msg", cat="msg", track="rank0", src=0, dst=1, nbytes=96)
    tracer.add_model_span("wire", 0.0, 1e-6, cat="wire", track="tni0")
    registry = MetricsRegistry(enabled=True)
    registry.counter("messages_total", phase="forward").inc(3)
    return tracer, registry


class TestExport:
    def test_two_processes_with_names(self):
        doc = chrome_trace_events(*small_trace())
        meta = {
            (e["pid"], e["args"]["name"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert meta == {(1, "wall clock"), (2, "simulated machine")}

    def test_tracks_become_named_threads(self):
        doc = chrome_trace_events(*small_trace())
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"run", "stages", "rank0", "tni0"} <= names

    def test_spans_are_complete_events_in_microseconds(self):
        doc = chrome_trace_events(*small_trace())
        pair = next(e for e in doc["traceEvents"] if e["name"] == "Pair")
        assert pair["ph"] == "X"
        assert pair["pid"] == 1
        assert pair["dur"] == pytest.approx(0.25e6)

    def test_model_spans_land_on_pid_2(self):
        doc = chrome_trace_events(*small_trace())
        wire = next(e for e in doc["traceEvents"] if e["name"] == "wire")
        assert wire["pid"] == 2
        assert wire["dur"] == pytest.approx(1.0)

    def test_metrics_ride_along_as_counter_events(self):
        doc = chrome_trace_events(*small_trace())
        c = next(e for e in doc["traceEvents"] if e["ph"] == "C")
        assert c["name"] == "messages_total"
        assert c["args"]["messages_total"] == 3

    def test_roundtrip_file_validates(self, tmp_path):
        tracer, registry = small_trace()
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(str(path), tracer, registry)
        assert validate_chrome_trace(read(str(path))) == len(doc["traceEvents"])


class TestValidator:
    def test_accepts_generated_document(self):
        doc = chrome_trace_events(*small_trace())
        assert validate_chrome_trace(doc) == len(doc["traceEvents"])

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            validate_chrome_trace([])

    def test_rejects_missing_events_array(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"ph": "Z", "name": "x"}]}
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace(doc)

    def test_rejects_empty_name(self):
        doc = {"traceEvents": [{"ph": "M", "name": ""}]}
        with pytest.raises(ValueError, match="name"):
            validate_chrome_trace(doc)

    def test_rejects_negative_duration(self):
        doc = {"traceEvents": [{"ph": "X", "name": "x", "ts": 0.0, "dur": -1.0}]}
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(doc)

    def test_rejects_nan_timestamp(self):
        doc = {"traceEvents": [{"ph": "i", "name": "x", "ts": float("nan")}]}
        with pytest.raises(ValueError, match="ts"):
            validate_chrome_trace(doc)

    def test_rejects_non_integer_pid(self):
        doc = {"traceEvents": [{"ph": "M", "name": "x", "pid": "one"}]}
        with pytest.raises(ValueError, match="pid"):
            validate_chrome_trace(doc)


class TestCliSmoke:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        rc = main(
            [
                "--potential", "lj", "--atoms", "256", "--ranks", "2", "2", "2",
                "--pattern", "parallel-p2p", "--steps", "3",
                "--trace", str(path), "--metrics",
            ]
        )
        assert rc == 0
        assert validate_chrome_trace(read(str(path))) > 0
        out = capsys.readouterr().out
        assert "Span-derived stage breakdown" in out
        assert "metrics report:" in out
        doc = json.loads(path.read_text())
        phases = {e["args"].get("phase") for e in doc["traceEvents"] if e["ph"] == "i"}
        assert "forward" in phases
