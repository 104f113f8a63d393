"""The always-on telemetry plane: instruments, flush, export, gating."""

import math

import numpy as np
import pytest

from repro import LennardJones, Simulation, SimulationConfig
from repro.faults import FAULTS, FaultPlan, FaultSpec, RetryPolicy
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.obs.telemetry import (
    AUTODUMP_EVENTS,
    TELEMETRY,
    StepTelemetry,
    check_counters,
    check_fastpath_kept,
    check_sketch_sums,
    get_telemetry,
)
from repro.obs.trace import TRACER

CELLS = (4, 2, 2)
GRID = (2, 1, 1)
STEPS = 6


def build_sim(pattern="parallel-p2p", rdma=False, **cfg_kw):
    edge = lj_density_to_cell(0.8442)
    x, box = fcc_lattice(CELLS, edge)
    v = maxwell_velocities(len(x), 1.44, seed=11)
    cfg = SimulationConfig(
        dt=0.005, skin=0.3, pattern=pattern, rdma=rdma, neighbor_every=4, **cfg_kw
    )
    return Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=GRID)


class TestPrimitives:
    def test_counter_accumulates_per_label_set(self):
        t = StepTelemetry()
        t.counter_add("widgets_total", 2.0, kind="a")
        t.counter_add("widgets_total", 3.0, kind="a")
        t.counter_add("widgets_total", 1.0, kind="b")
        assert t.counter_value("widgets_total", kind="a") == 5.0
        assert t.counter_value("widgets_total", kind="b") == 1.0
        assert t.counter_value("widgets_total", kind="missing") == 0.0

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            StepTelemetry().counter_add("x_total", -1.0)

    def test_gauge_overwrites(self):
        t = StepTelemetry()
        t.gauge_set("pool_bytes", 100.0)
        t.gauge_set("pool_bytes", 40.0)
        assert t.gauges[("pool_bytes", ())] == 40.0

    def test_observe_builds_one_sketch_per_label_set(self):
        t = StepTelemetry()
        for v in (1.0, 2.0, 3.0):
            t.observe("stage_wall_seconds", v, stage="Comm")
        t.observe("stage_wall_seconds", 9.0, stage="Pair")
        comm = t.sketch("stage_wall_seconds", stage="Comm")
        assert comm is not None and comm.count == 3
        assert t.sketch("stage_wall_seconds", stage="Pair").count == 1
        assert t.sketch("stage_wall_seconds", stage="Neigh") is None

    def test_label_order_is_canonical(self):
        t = StepTelemetry()
        t.counter_add("c_total", 1.0, b="2", a="1")
        assert t.counter_value("c_total", a="1", b="2") == 1.0


class TestControl:
    def test_get_telemetry_is_the_singleton(self):
        assert get_telemetry() is TELEMETRY

    def test_default_enabled(self):
        assert TELEMETRY.enabled is True

    def test_disabled_context_restores(self):
        with TELEMETRY.scope():
            t = StepTelemetry()
            TELEMETRY.attach(t)
            with TELEMETRY.disabled():
                assert TELEMETRY.enabled is False
                assert TELEMETRY.active is None
                TELEMETRY.emit("retry")  # no active sink: dropped
            assert TELEMETRY.enabled is True
            assert TELEMETRY.active is t
            assert t.counter_value("events_total", kind="retry") == 0.0

    def test_emit_routes_to_active(self):
        with TELEMETRY.scope():
            t = StepTelemetry()
            TELEMETRY.attach(t)
            TELEMETRY.emit("retry", phase="forward")
            assert t.counter_value("events_total", kind="retry") == 1.0
            assert t.flight.events[-1]["phase"] == "forward"

    def test_autodump_kinds_are_the_documented_set(self):
        assert AUTODUMP_EVENTS == {
            "degradation", "retry-exhausted", "selfcheck-failure",
        }


class TestExport:
    def build(self):
        t = StepTelemetry()
        t.counter_add("messages_total", 7.0)
        t.counter_add("events_total", 2.0, kind="retry")
        t.gauge_set("pool_bytes", 2048.0)
        for v in (0.001, 0.002, 0.004):
            t.observe("stage_wall_seconds", v, stage="Comm")
        return t

    def test_openmetrics_format(self):
        text = self.build().render_openmetrics()
        lines = text.splitlines()
        assert "# TYPE repro_messages_total counter" in lines
        assert "repro_messages_total 7" in lines
        assert 'repro_events_total{kind="retry"} 2' in lines
        assert "# TYPE repro_pool_bytes gauge" in lines
        assert "repro_pool_bytes 2048" in lines
        assert "# TYPE repro_stage_wall_seconds summary" in lines
        assert any(
            line.startswith('repro_stage_wall_seconds{stage="Comm",quantile="0.5"}')
            for line in lines
        )
        assert 'repro_stage_wall_seconds_count{stage="Comm"} 3' in lines
        assert any(
            line.startswith('repro_stage_wall_seconds_sum{stage="Comm"}')
            for line in lines
        )
        assert lines[-1] == "# EOF"
        assert text.endswith("# EOF\n")

    def test_snapshot_structure(self):
        snap = self.build().snapshot()
        assert snap["counters"]['events_total{kind="retry"}'] == 2.0
        assert snap["gauges"]["pool_bytes"] == 2048.0
        sk = snap["sketches"]['stage_wall_seconds{stage="Comm"}']
        assert sk["count"] == 3
        assert snap["flight"] == {"frames": 0, "events": 0}


class TestFlushIntegration:
    def run_sim(self, **kw):
        with TELEMETRY.scope():
            sim = build_sim(**kw)
            sim.setup()
            sim.run(STEPS)
        return sim

    def test_counters_mirror_exchange_and_transport_bookkeeping(self):
        sim = self.run_sim()
        assert sim.telemetry is not None
        ok, detail = check_counters(sim, STEPS)
        assert ok, detail

    @pytest.mark.parametrize("rdma", [False, True], ids=["messages", "rdma"])
    def test_direct_plane_traffic_reaches_telemetry(self, rdma):
        """Replayed phases feed the totals the telemetry plane reads.

        The direct plane appends whole phases to the traffic log; the
        run-lifetime totals (all ``flush_step`` and the flight frames
        see) must count them like per-message ``record()`` does.
        """
        with TELEMETRY.scope():
            sim = build_sim(pattern="p2p", rdma=rdma)
            sim.setup()
            sim.run(STEPS - 1)
            log = sim.world.transport.log
            count, nbytes = log.count(), log.total_bytes()
            sim.step()
        t = sim.telemetry
        assert sim.exchange.plan_stats()["slowpath_phases"] == 0
        assert log.count() > 0
        assert t.counter_value("messages_total") == log.count()
        assert t.counter_value("message_bytes_total") == log.total_bytes()
        frame = t.flight.frames[-1]
        assert frame["messages"] == log.count() - count
        assert frame["bytes"] == log.total_bytes() - nbytes
        if not rdma:
            # Forward + reverse messages every step, not just border traffic.
            assert frame["messages"] > 0

    def test_telemetry_leaves_fastpath_on(self):
        ok, detail = check_fastpath_kept(self.run_sim())
        assert ok, detail

    def test_tracer_still_gates_fastpath(self):
        prev = TRACER.enabled
        TRACER.enabled = True
        try:
            sim = self.run_sim()
        finally:
            TRACER.enabled = prev
        assert sim.exchange.plan_stats()["fastpath_phases"] == 0
        assert sim.exchange._gate_blocks["observability"] > 0

    def test_stage_sketch_sums_telescope_to_timers(self):
        sim = self.run_sim()
        for stage in sim.timers.wall:
            assert sim.telemetry.sketch("stage_wall_seconds", stage=stage.value).count == STEPS
        ok, detail = check_sketch_sums(sim)
        assert ok, detail

    def test_model_sketches_only_when_modeling(self):
        sim = self.run_sim(model_machine_time=True)
        t = sim.telemetry
        comm = t.sketch("stage_model_seconds", stage="Comm")
        assert comm is not None and comm.count == STEPS
        plain = self.run_sim()
        assert plain.telemetry.sketch("stage_model_seconds", stage="Comm") is None

    def test_flight_frames_carry_step_summaries(self):
        sim = self.run_sim()
        frames = list(sim.telemetry.flight.frames)
        assert [f["step"] for f in frames] == list(range(1, STEPS + 1))
        last = frames[-1]
        assert last["pattern"] == sim.exchange.name
        assert set(last["wall"]) == {s.value for s in sim.timers.wall}
        assert last["messages"] >= 0 and last["bytes"] >= 0

    def test_disabled_plane_attaches_nothing(self):
        with TELEMETRY.disabled():
            sim = build_sim()
            sim.run(3)
        assert sim.telemetry is None

    def test_degradation_keeps_counters_monotonic(self):
        # A lethal drop swaps the exchange object mid-run; the flush
        # must reset its cumulative-feed snapshot (not subtract the old
        # object's totals, which would produce a negative delta).
        plan = FaultPlan(
            seed=1,
            policy=RetryPolicy(max_retries=2),
            faults=(FaultSpec("drop", phases=("border",), severity=99, count=1),),
        )
        with TELEMETRY.scope():
            sim = build_sim()
            with FAULTS.inject(plan):
                sim.run(STEPS)
        t = sim.telemetry
        assert sim.degradations == [("parallel-p2p", "p2p")]
        assert t.counter_value("events_total", kind="degradation") == 1.0
        assert t.counter_value("steps_total") == STEPS
        ev = next(e for e in t.flight.events if e["kind"] == "degradation")
        assert (ev["from_pattern"], ev["to_pattern"]) == ("parallel-p2p", "p2p")
        for (name, _), v in t.counters.items():
            assert v >= 0.0 and math.isfinite(v), name


class TestBitIdenticalPhysics:
    def test_trajectory_identical_with_and_without_telemetry(self):
        with TELEMETRY.scope():
            on = build_sim()
            on.run(STEPS)
        with TELEMETRY.disabled():
            off = build_sim()
            off.run(STEPS)
        assert on.telemetry is not None and off.telemetry is None
        assert np.array_equal(on.gather_positions(), off.gather_positions())
