"""Critical-path analyzer: exact attribution, chain shape, exports."""

import csv

import pytest

from repro.artifact import dumps
from repro.machine.params import FUGAKU
from repro.network.simulator import Message, NetworkSimulator
from repro.network.stacks import MpiStack, UtofuStack
from repro.obs import observe
from repro.obs.critpath import (
    CATEGORY_LABELS,
    CriticalPathResult,
    analyze_critical_path,
    critpath_counter_events,
    render_critical_path,
    write_critpath_csv,
)
from repro.obs.export import chrome_trace_events, validate_chrome_trace
from repro.obs.trace import Tracer


def p2p_messages(n=13, nbytes=4096):
    # 13 sends spread over 6 threads / 6 TNIs, like a half-shell schedule.
    return [
        Message(nbytes=nbytes, hops=1 + i % 3, rank=0, thread=i % 6, tni=i % 6)
        for i in range(n)
    ]


def traced_round(messages, stack=None):
    sim = NetworkSimulator(stack or UtofuStack())
    with observe(metrics=False) as (tracer, _):
        res = sim.run_round(messages)
    return tracer, res


def traced_staged(stages, stack=None):
    sim = NetworkSimulator(stack or MpiStack())
    with observe(metrics=False) as (tracer, _):
        res = sim.run_staged(stages)
    return tracer, res


class TestAttributionExactness:
    def test_partition_sums_to_completion(self):
        tracer, res = traced_round(p2p_messages())
        cp = analyze_critical_path(tracer)
        assert cp.completion - cp.base == pytest.approx(res.completion_time, abs=0)
        assert cp.total_attributed == pytest.approx(cp.total_time, rel=1e-12)

    def test_staged_partition_includes_barriers(self):
        stages = [[Message(nbytes=2048, thread=0), Message(nbytes=2048, thread=0)]
                  for _ in range(3)]
        tracer, res = traced_staged(stages)
        cp = analyze_critical_path(tracer)
        assert cp.completion == pytest.approx(res.completion_time, abs=0)
        assert cp.total_attributed == pytest.approx(cp.total_time, rel=1e-12)
        assert cp.attribution.get("barrier", 0.0) > 0.0

    def test_message_and_wire_counts(self):
        tracer, _ = traced_round(p2p_messages(7))
        cp = analyze_critical_path(tracer)
        assert cp.messages == 7
        assert cp.wire_segments >= 7

    def test_chain_is_contiguous(self):
        tracer, _ = traced_round(p2p_messages())
        cp = analyze_critical_path(tracer)
        for prev, nxt in zip(cp.segments, cp.segments[1:]):
            assert nxt.start == pytest.approx(prev.end, abs=0)
        assert cp.segments[0].start == pytest.approx(cp.base, abs=1e-15)
        assert cp.segments[-1].end == pytest.approx(cp.completion, abs=0)


class TestBottleneckStory:
    def test_single_tni_contention_blames_the_engine(self):
        # Six threads hammering one TNI: serialization dominates.
        msgs = [Message(nbytes=65536, thread=i % 6, tni=0) for i in range(12)]
        tracer, _ = traced_round(msgs)
        cp = analyze_critical_path(tracer)
        assert cp.top_bottleneck() == "tni"
        assert cp.resource_busy["tni0"] > 0

    def test_mpi_staged_is_software_bound(self):
        # The 3-stage pattern under MPI: injection overhead + barriers
        # outweigh the wire (the paper's "why 3-stage loses").
        stages = [[Message(nbytes=1024, thread=0), Message(nbytes=1024, thread=0)]
                  for _ in range(3)]
        tracer, _ = traced_staged(stages, MpiStack())
        cp = analyze_critical_path(tracer)
        soft = cp.attribution.get("inject", 0) + cp.attribution.get("barrier", 0)
        assert soft > cp.attribution.get("wire", 0)

    def test_bottlenecks_ranked_and_sum_to_100(self):
        tracer, _ = traced_round(p2p_messages())
        cp = analyze_critical_path(tracer)
        ranked = cp.bottlenecks()
        shares = [pct for _, _, pct in ranked]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) == pytest.approx(100.0)

    def test_queue_time_recorded_as_blocked(self):
        msgs = [Message(nbytes=65536, thread=i % 6, tni=0) for i in range(12)]
        tracer, _ = traced_round(msgs)
        cp = analyze_critical_path(tracer)
        assert sum(cp.resource_blocked.values()) > 0


class TestInputsAndEdges:
    def test_empty_tracer(self):
        cp = analyze_critical_path(Tracer())
        assert cp.total_time == 0.0
        assert cp.segments == []
        assert cp.top_bottleneck() == ""

    def test_explicit_span_list(self):
        tracer, _ = traced_round(p2p_messages(3))
        cp = analyze_critical_path(spans=list(tracer.spans))
        assert cp.messages == 3

    def test_wall_spans_ignored(self):
        tracer, _ = traced_round(p2p_messages(3))
        tracer.add_wall_span("step", 0.0, 1.0, cat="inject")
        cp = analyze_critical_path(tracer)
        assert cp.completion < 0.5  # the 1 s wall span did not leak in


class TestRenderers:
    def test_text_report(self):
        tracer, _ = traced_round(p2p_messages())
        cp = analyze_critical_path(tracer)
        text = render_critical_path(cp)
        assert "Critical path" in text
        assert CATEGORY_LABELS["tni"] in text

    def test_csv_rows(self, tmp_path):
        tracer, _ = traced_round(p2p_messages())
        cp = analyze_critical_path(tracer)
        path = tmp_path / "cp.csv"
        write_critpath_csv(str(path), cp)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["rank", "category", "seconds", "percent", "label"]
        assert len(rows) == 1 + len(cp.attribution)
        total = sum(float(r[2]) for r in rows[1:])
        assert total == pytest.approx(cp.total_time, rel=1e-12)

    def test_counter_events_validate_in_trace(self):
        tracer, _ = traced_round(p2p_messages())
        cp = analyze_critical_path(tracer)
        extra = critpath_counter_events(cp)
        assert extra, "no counter events emitted"
        doc = chrome_trace_events(tracer, extra_events=extra)
        assert validate_chrome_trace(doc) == len(doc["traceEvents"])
        names = {e["name"] for e in extra}
        assert names == {"critical-path", "critpath-seconds"}

    def test_counter_events_empty_result(self):
        assert critpath_counter_events(CriticalPathResult()) == []


class TestStructuredExport:
    def test_to_dict_preserves_the_partition(self):
        from repro.obs.critpath import critpath_to_dict

        tracer, _ = traced_round(p2p_messages())
        cp = analyze_critical_path(tracer)
        doc = critpath_to_dict(cp)
        assert doc["schema"] == "repro-critpath/1"
        assert doc["attribution"] == dict(cp.attribution)
        assert sum(doc["attribution"].values()) == pytest.approx(
            doc["total"], rel=1e-12
        )
        assert doc["messages"] == cp.messages
        assert [b["category"] for b in doc["bottlenecks"]] == [
            cat for cat, _, _ in cp.bottlenecks()
        ]
        assert len(doc["segments"]) == len(cp.segments)

    def test_spans_round_trip_through_chrome(self):
        import json as _json

        from repro.obs.export import spans_from_chrome

        tracer, _ = traced_round(p2p_messages())
        doc = _json.loads(_json.dumps(chrome_trace_events(tracer)))
        back = spans_from_chrome(doc)
        cp_direct = analyze_critical_path(tracer)
        cp_back = analyze_critical_path(spans=back)
        # µs round-trip keeps the attribution identical to analysis noise.
        assert cp_back.messages == cp_direct.messages
        assert set(cp_back.attribution) == set(cp_direct.attribution)
        for cat, secs in cp_direct.attribution.items():
            assert cp_back.attribution[cat] == pytest.approx(secs, rel=1e-6)


class TestCLI:
    def _write_trace(self, tmp_path):
        import json as _json

        from repro.obs.export import write_chrome_trace

        tracer, _ = traced_round(p2p_messages())
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer)
        _json.loads(path.read_text())  # sanity: valid JSON on disk
        return path

    def test_text_and_json_modes(self, tmp_path, capsys):
        import json as _json

        from repro.obs.critpath import main

        path = self._write_trace(tmp_path)
        assert main([str(path)]) == 0
        assert "critical path" in capsys.readouterr().out.lower()
        assert main([str(path), "--json"]) == 0
        out = capsys.readouterr().out
        doc = _json.loads(out)
        assert out == dumps(doc)  # the artifact byte format, one trailing newline
        assert doc["schema"] == "repro-critpath/1"
        assert sum(doc["attribution"].values()) == pytest.approx(
            doc["total"], rel=1e-9
        )

    def test_csv_side_output(self, tmp_path, capsys):
        from repro.obs.critpath import main

        path = self._write_trace(tmp_path)
        out = tmp_path / "cp.csv"
        assert main([str(path), "--csv", str(out), "--json"]) == 0
        capsys.readouterr()
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["rank", "category", "seconds", "percent", "label"]
        assert len(rows) > 1

    def test_missing_or_spanless_trace_exits_2(self, tmp_path, capsys):
        import json as _json

        from repro.obs.critpath import main

        assert main([str(tmp_path / "gone.json")]) == 2
        empty = tmp_path / "empty.json"
        empty.write_text(_json.dumps({"traceEvents": []}))
        assert main([str(empty)]) == 2
        assert "no model-clock exchange spans" in capsys.readouterr().err
