"""Happens-before detector: synthetic streams, fault replays, trace files."""

import pytest

from repro.analysis.hb import (
    HB_RULES,
    TraceEvent,
    TraceSpan,
    VectorClock,
    check_flags_stale,
    check_silent,
    detect_races,
    detect_races_in_file,
    events_from_chrome,
)
from repro.faults import FAULTS, FaultPlan, FaultSpec, RetryPolicy
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.md.potentials import LennardJones
from repro.md.simulation import Simulation, SimulationConfig
from repro.obs import hbevents, observe


def ev(name, track, ts, **args):
    cat = {"msg": "msg", "recv": "recv"}.get(name, "hb")
    return TraceEvent(name=name, cat=cat, track=track, ts=ts, args=args)


class TestVectorClock:
    def test_tick_join_dominates(self):
        a, b = VectorClock(), VectorClock()
        a.tick("rank0")
        b.tick("rank1")
        assert not a.dominates(b) and not b.dominates(a)
        b.join(a)
        assert b.dominates(a)

    def test_copy_does_not_alias(self):
        a = VectorClock({"rank0": 1})
        c = a.copy()
        a.tick("rank0")
        assert c.counts["rank0"] == 1


class TestSyntheticStreams:
    """Handcrafted event sequences exercise each hazard shape directly."""

    def test_put_land_read_is_silent(self):
        events = [
            ev("hb-put", "rank0", 0.1, res="stag7", lo=0, n=8, put=1, inflight=0),
            ev("hb-land", "nic", 0.2, res="stag7", lo=0, n=8, put=1),
            ev("hb-read", "rank1", 0.3, res="stag7", ok=1),
        ]
        assert detect_races(events=events).clean

    def test_read_of_unlanded_put_flags_hb001(self):
        events = [
            ev("hb-put", "rank0", 0.1, res="stag7", lo=0, n=8, put=1, inflight=1),
            ev("hb-read", "rank1", 0.2, res="stag7", ok=1),
            ev("hb-land", "nic", 0.3, res="stag7", lo=0, n=8, put=1),
        ]
        report = detect_races(events=events)
        assert [f.rule for f in report.findings] == ["HB001"]
        assert "put #1" in report.findings[0].message

    def test_ring_slot_read_overlaps_pending_ring_put(self):
        """A bare ring{id} put covers every ring{id}/slot{k} read."""
        events = [
            ev("hb-put", "rank0", 0.1, res="ring9", lo=0, n=4, put=1, inflight=1),
            ev("hb-read", "rank1", 0.2, res="ring9/slot0", ok=0),
        ]
        report = detect_races(events=events)
        rules = [f.rule for f in report.findings]
        assert "HB001" in rules
        stale = next(f for f in report.findings if "in flight" in f.message)
        assert "consume found the slot clean" in stale.detail

    def test_fence_with_pending_put_flags_hb001(self):
        events = [
            ev("hb-put", "rank0", 0.1, res="stag7", lo=32, n=8, put=1, inflight=1),
            ev("hb-fence", "comm", 0.2, stage="forward", pending=1),
            ev("hb-land", "nic", 0.3, res="stag7", lo=32, n=8, put=1),
        ]
        report = detect_races(events=events)
        assert [f.rule for f in report.findings] == ["HB001"]
        assert "fence at stage 'forward'" in report.findings[0].message
        assert "[32, 40)" in report.findings[0].message

    def test_never_landed_put_flags_hb001(self):
        events = [
            ev("hb-put", "rank0", 0.1, res="stag7", lo=0, n=8, put=1, inflight=1),
        ]
        report = detect_races(events=events)
        assert [f.rule for f in report.findings] == ["HB001"]
        assert "never landed" in report.findings[0].message

    def test_overwrite_of_unconsumed_slot_flags_hb002(self):
        events = [
            ev("hb-write", "rank0", 0.1, res="ring9/slot0", ok=1),
            ev("hb-write", "rank0", 0.2, res="ring9/slot0", ok=1),
        ]
        report = detect_races(events=events)
        assert [f.rule for f in report.findings] == ["HB002"]
        assert "rewrote ring9/slot0" in report.findings[0].message

    def test_write_consume_write_is_silent(self):
        events = [
            ev("hb-write", "rank0", 0.1, res="ring9/slot0", ok=1),
            ev("hb-read", "rank1", 0.2, res="ring9/slot0", ok=1),
            ev("hb-write", "rank0", 0.3, res="ring9/slot0", ok=1),
        ]
        assert detect_races(events=events).clean

    def test_consume_with_nothing_in_flight_is_cursor_desync(self):
        events = [ev("hb-read", "rank1", 0.2, res="ring9/slot2", ok=0)]
        report = detect_races(events=events)
        assert [f.rule for f in report.findings] == ["HB001"]
        assert "cursor desync" in report.findings[0].message

    def test_retry_polls_do_not_duplicate_findings(self):
        """Hazards dedupe by (rule, res, put): one finding per stale put."""
        events = [
            ev("hb-put", "rank0", 0.1, res="ring9", lo=0, n=4, put=1, inflight=1),
            ev("hb-read", "rank1", 0.2, res="ring9/slot0", ok=0),
            ev("hb-read", "rank1", 0.3, res="ring9/slot0", ok=0),
            ev("hb-read", "rank1", 0.4, res="ring9/slot0", ok=0),
            ev("hb-land", "nic", 0.5, res="ring9", lo=0, n=4, put=1),
            ev("hb-read", "rank1", 0.6, res="ring9/slot0", ok=1),
        ]
        report = detect_races(events=events)
        assert len([f for f in report.findings if "in flight" in f.message]) == 1

    def test_hazard_anchored_to_enclosing_span(self):
        spans = [TraceSpan("p2p.forward-rdma", "comm", "rank0", 0.0, 1.0)]
        events = [
            ev("hb-put", "rank0", 0.1, res="stag7", lo=0, n=8, put=1, inflight=1),
            ev("hb-read", "rank1", 0.2, res="stag7", ok=1),
        ]
        report = detect_races(events=events, spans=spans)
        assert "during span 'p2p.forward-rdma'" in report.findings[0].detail

    def test_message_edge_orders_read_after_land(self):
        """A land relayed through a message makes the later read safe."""
        events = [
            ev("hb-put", "rank0", 0.1, res="stag7", lo=0, n=8, put=1, inflight=0),
            ev("hb-land", "nic", 0.2, res="stag7", lo=0, n=8, put=1),
            ev("msg", "rank0", 0.3, src=0, dst=1, phase="border"),
            ev("recv", "rank1", 0.4, src=0, dst=1, phase="border"),
            ev("hb-read", "rank1", 0.5, res="stag7", ok=1),
        ]
        assert detect_races(events=events).clean


def probe_sim():
    edge = lj_density_to_cell(0.8442)
    x, box = fcc_lattice((4, 4, 4), edge)
    v = maxwell_velocities(x.shape[0], 1.44, seed=7)
    cfg = SimulationConfig(
        dt=0.005, skin=0.3, pattern="p2p", rdma=True, neighbor_every=3
    )
    return Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))


def stale_plan(kind):
    return FaultPlan(
        seed=3,
        policy=RetryPolicy(),
        faults=(FaultSpec(kind=kind, count=1, severity=2),),
    )


class TestFaultReplay:
    """The detector flags exactly the §3.4 hazards ``faults/`` injects."""

    def test_clean_rdma_run_is_silent(self):
        hbevents.reset()
        with observe(metrics=False) as (tracer, _):
            probe_sim().run(6)
            report = detect_races(tracer)
        assert check_silent(report)[0], report.render()
        assert report.events_analyzed > 0

    def test_rdma_stale_plan_flags_forward_fence(self):
        hbevents.reset()
        with observe(metrics=False) as (tracer, _):
            with FAULTS.inject(stale_plan("rdma-stale")):
                probe_sim().run(6)
            report = detect_races(tracer)
        ok, detail = check_flags_stale(report)
        assert ok, detail
        fence = next(f for f in report.findings if "fence" in f.message)
        assert "during span 'p2p.forward-rdma'" in fence.detail
        assert "still in flight" in fence.message

    def test_ring_stale_plan_flags_reverse_consume(self):
        hbevents.reset()
        with observe(metrics=False) as (tracer, _):
            with FAULTS.inject(stale_plan("ring-stale")):
                probe_sim().run(6)
            report = detect_races(tracer)
        ok, detail = check_flags_stale(report)
        assert ok, detail
        stale = next(f for f in report.findings if "in flight" in f.message)
        assert "during span 'p2p.reverse-rdma'" in stale.detail


class TestChromeRoundTrip:
    """detect_races_in_file sees the same hazards as the live tracer."""

    def test_exported_trace_reproduces_findings(self, tmp_path):
        from repro.obs.export import write_chrome_trace

        hbevents.reset()
        path = str(tmp_path / "stale.json")
        with observe(metrics=False) as (tracer, _):
            with FAULTS.inject(stale_plan("rdma-stale")):
                probe_sim().run(6)
            live = detect_races(tracer)
            write_chrome_trace(path, tracer)
        replayed = detect_races_in_file(path)
        assert replayed.files_analyzed == [path]
        assert sorted(f.message for f in replayed.findings) == sorted(
            f.message for f in live.findings
        )
        assert replayed.events_analyzed == live.events_analyzed

    def test_events_from_chrome_skips_model_process(self):
        doc = {
            "traceEvents": [
                {"ph": "M", "pid": 1, "tid": 3, "name": "thread_name",
                 "args": {"name": "rank0"}},
                {"ph": "i", "pid": 1, "tid": 3, "name": "hb-put", "cat": "hb",
                 "ts": 100.0, "args": {"res": "stag1", "put": 1}},
                {"ph": "i", "pid": 2, "tid": 3, "name": "hb-put", "cat": "hb",
                 "ts": 50.0, "args": {"res": "stag2", "put": 1}},
                {"ph": "X", "pid": 1, "tid": 3, "name": "p2p.forward-rdma",
                 "cat": "comm", "ts": 0.0, "dur": 500.0},
            ]
        }
        events, spans = events_from_chrome(doc)
        assert [e.track for e in events] == ["rank0"]
        assert events[0].ts == pytest.approx(1e-4)
        assert [s.name for s in spans] == ["p2p.forward-rdma"]


def test_rule_catalog_is_stable():
    assert sorted(HB_RULES) == ["HB001", "HB002"]


class TestEdgeCases:
    """Degenerate traces must be analyzed, not crash the detector."""

    def test_empty_trace_is_clean(self):
        report = detect_races(events=[], spans=[])
        assert report.clean
        assert report.events_analyzed == 0

    def test_single_rank_trace_is_clean(self):
        """One rank's put/land/read stream: nothing to race against."""
        events = [
            ev("hb-put", "rank0", 0.1, res="stag0", lo=0, n=4, put=1, inflight=0),
            ev("hb-land", "nic", 0.2, res="stag0", lo=0, n=4, put=1),
            ev("hb-read", "rank0", 0.3, res="stag0", ok=1),
        ]
        report = detect_races(events=events, spans=[])
        assert report.clean, report.render()

    def test_duplicate_fence_instants_flag_once(self):
        """The same pending put seen at two identical fence timestamps
        produces one deduplicated HB001 finding, not a crash or two."""
        events = [
            ev("hb-put", "rank0", 0.1, res="stag0", lo=0, n=4, put=1, inflight=1),
            ev("hb-fence", "comm", 0.2, stage="forward", pending=1),
            ev("hb-fence", "comm", 0.2, stage="forward", pending=1),
        ]
        report = detect_races(events=events, spans=[])
        hb001 = [f for f in report.findings if f.rule == "HB001"]
        assert len(hb001) >= 1
        keys = {(f.rule, f.message) for f in report.findings}
        assert len(keys) == len(report.findings), "duplicate findings emitted"

    def test_chrome_trace_with_unknown_cats_is_skipped_not_crashed(self):
        """Foreign categories parse fine and are ignored by the detector."""
        doc = {
            "traceEvents": [
                {"ph": "M", "pid": 1, "tid": 3, "name": "thread_name",
                 "args": {"name": "rank0"}},
                {"ph": "i", "pid": 1, "tid": 3, "name": "gc",
                 "cat": "v8.gc", "ts": 100, "args": {"heap": 1}},
                {"ph": "i", "pid": 1, "tid": 3, "name": "blink.user_timing",
                 "cat": "blink", "ts": 200, "args": {}},
                {"ph": "X", "pid": 1, "tid": 3, "name": "frame",
                 "cat": "gpu", "ts": 50, "dur": 400},
                {"ph": "i", "pid": 2, "tid": 1, "name": "other-process",
                 "cat": "hb", "ts": 300, "args": {}},
            ]
        }
        events, spans = events_from_chrome(doc)
        assert len(events) == 2  # pid-2 event dropped, both pid-1 instants kept
        assert len(spans) == 1
        report = detect_races(events=events, spans=spans)
        assert report.clean
        assert report.events_analyzed == 0  # nothing in hb/msg/recv
