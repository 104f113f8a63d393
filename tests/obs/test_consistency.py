"""Three-way consistency: trace vs TrafficLog vs Table 1 analytics.

The observability tentpole's acceptance test: the per-message instants
recorded by the tracer, the :class:`TrafficLog` ground truth, and the
paper's Table 1 formulas must all tell the same story about how many
messages moved and (approximately) how many bytes.
"""

import pytest

from repro import LennardJones, Simulation, SimulationConfig
from repro.core.analytic import analyze_simulation
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.md.stages import Stage
from repro.obs import observe
from repro.obs.trace import Tracer
from repro.obs.report import (
    check_forward_counts,
    check_phase_traffic,
    check_stage_breakdown,
    phase_summary_from_trace,
    render_phase_table,
    stage_breakdown_from_trace,
    write_stage_csv,
)

STEPS = 10


def traced_run(pattern):
    edge = lj_density_to_cell(0.8442)
    x, box = fcc_lattice((4, 4, 4), edge)
    v = maxwell_velocities(x.shape[0], 1.44, seed=11)
    cfg = SimulationConfig(pattern=pattern, neighbor_every=5)
    with observe(metrics=False) as (tracer, _):
        sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
        sim.run(STEPS)
    # Detach the records from the global singleton so a later reset
    # (another observe block) cannot invalidate this fixture value.
    snapshot = Tracer()
    snapshot.spans = list(tracer.spans)
    snapshot.instants = list(tracer.instants)
    return sim, snapshot


@pytest.fixture(scope="module", params=["3stage", "parallel-p2p"])
def run(request):
    return traced_run(request.param)


class TestTraceVsTrafficLog:
    def test_same_phases(self, run):
        sim, tracer = run
        ok, detail = check_phase_traffic(tracer, sim.world.transport.log)
        assert ok, detail
        assert detail == "phases ['border', 'exchange', 'forward', 'reverse']"

    def test_counts_and_bytes_exact(self, run):
        sim, tracer = run
        ok, detail = check_phase_traffic(tracer, sim.world.transport.log)
        assert ok, detail


class TestTraceVsTable1:
    def test_forward_message_count_matches_formula(self, run):
        sim, tracer = run
        expected_per_rank = 6 if sim.config.pattern == "3stage" else 13
        assert analyze_simulation(sim).total_messages == expected_per_rank
        ok, detail = check_forward_counts(tracer, sim)
        assert ok, detail

    def test_forward_bytes_near_analytic_volume(self, run):
        sim, tracer = run
        analysis = analyze_simulation(sim)
        n_forward = sim.step_count - sim.rebuilds
        predicted = analysis.total_bytes * sim.world.size * n_forward
        measured = phase_summary_from_trace(tracer)["forward"].total_bytes
        # The analytic volumes are density estimates of shell populations,
        # and bin-granular border selection ships whole bins that intersect
        # the shell — a systematic overshoot at small sub-box sizes.
        assert measured == pytest.approx(predicted, rel=0.25)


class TestTraceVsStageTimers:
    def test_breakdown_bit_exact(self, run):
        sim, tracer = run
        ok, detail = check_stage_breakdown(tracer, sim.timers)
        assert ok, detail

    def test_breakdown_rejects_bad_account(self, run):
        _, tracer = run
        with pytest.raises(ValueError):
            stage_breakdown_from_trace(tracer, "cpu")


class TestRenderers:
    def test_phase_table_lists_all_phases(self, run):
        _, tracer = run
        table = render_phase_table(tracer)
        for phase in ("border", "forward", "reverse", "exchange"):
            assert phase in table

    def test_stage_csv_roundtrip(self, run, tmp_path):
        sim, tracer = run
        path = tmp_path / "stages.csv"
        write_stage_csv(str(path), tracer)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "stage,wall_seconds,model_seconds"
        assert len(rows) == 1 + len(Stage)
        wall = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
        for stage in Stage:
            assert wall[stage.value] == pytest.approx(sim.timers.wall[stage])

    def test_phase_csv_matches_traffic_log(self, run, tmp_path):
        from repro.obs.report import write_phase_csv

        sim, tracer = run
        path = tmp_path / "phases.csv"
        write_phase_csv(str(path), tracer)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "phase,messages,bytes"
        log = sim.world.transport.log
        parsed = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
        assert set(parsed) == {m.phase for m in log.messages}
        for phase, (count, nbytes) in parsed.items():
            s = log.summary(phase)
            assert (int(count), int(nbytes)) == (s.count, s.total_bytes)
