"""Integration: EAM runs — mid-pair comm, check-yes allreduce, full lists."""

import numpy as np
import pytest

from repro import SerialReference, Simulation, SimulationConfig, make_cu_like_eam
from repro.md.lattice import fcc_lattice, maxwell_velocities
from repro.md.potentials import SuttonChenEAM
from repro.md.serial import check_trajectory


def copper_system(cells=(4, 4, 4), temperature=0.02, seed=9):
    x, box = fcc_lattice(cells, 3.615)
    v = maxwell_velocities(x.shape[0], temperature, seed=seed)
    return x, v, box


def eam_config(pattern="p2p", **kw):
    defaults = dict(
        dt=0.002, skin=1.0, pattern=pattern,
        neighbor_every=5, neighbor_check=True,
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def serial_eam():
    x, v, box = copper_system()
    ref = SerialReference(x, v, box, SuttonChenEAM(cutoff=4.95), dt=0.002)
    ref.run(15)
    return x, v, box, ref


class TestPatternsVsSerial:
    @pytest.mark.parametrize(
        "pattern,rdma",
        [("3stage", False), ("p2p", False), ("p2p", True), ("parallel-p2p", True)],
    )
    def test_eam_trajectory_matches_serial(self, pattern, rdma, serial_eam):
        x, v, box, ref = serial_eam
        sim = Simulation(
            x, v, box, SuttonChenEAM(cutoff=4.95),
            eam_config(pattern, rdma=rdma), grid=(2, 2, 1),
        )
        sim.run(15)
        ok, detail = check_trajectory(sim, ref.x)
        assert ok, detail

    def test_eam_pressure_trace_matches(self, serial_eam):
        """The EAM half of Fig. 11."""
        x, v, box, ref = serial_eam
        sim = Simulation(
            x, v, box, SuttonChenEAM(cutoff=4.95),
            eam_config("parallel-p2p", rdma=True), grid=(2, 2, 1),
        )
        sim.run(15)
        s = sim.sample_thermo()
        r = ref.sample_thermo()
        assert s.pressure == pytest.approx(r.pressure, abs=1e-12)
        assert s.total_energy == pytest.approx(r.total_energy, abs=1e-8)

    def test_tabulated_eam_runs_parallel(self):
        x, v, box = copper_system(cells=(3, 3, 3))
        sim = Simulation(
            x, v, box, make_cu_like_eam(), eam_config("p2p"), grid=(1, 1, 1)
        )
        sim.run(5)
        assert np.isfinite(sim.sample_thermo().total_energy)


class TestMidPairCommunication:
    def test_pair_stage_traffic_present(self):
        """EAM must generate the two extra pair-stage exchanges the paper
        describes (density reverse-sum + fp forward)."""
        x, v, box = copper_system()
        sim = Simulation(
            x, v, box, SuttonChenEAM(cutoff=4.95), eam_config("p2p"), grid=(2, 2, 1)
        )
        sim.setup()
        log = sim.world.transport.log
        assert log.count("pair-reverse") > 0
        assert log.count("pair-forward") > 0

    def test_lj_has_no_mid_pair_traffic(self):
        from repro import quick_lj_simulation

        sim = quick_lj_simulation(cells=(4, 4, 4), ranks=(2, 2, 1))
        sim.setup()
        log = sim.world.transport.log
        assert log.count("pair-reverse") == 0
        assert log.count("pair-forward") == 0

    def test_full_list_skips_density_reverse(self):
        """Newton off: density is complete locally; only fp forwards."""
        x, v, box = copper_system()
        sim = Simulation(
            x, v, box, SuttonChenEAM(cutoff=4.95),
            eam_config("p2p", newton=False), grid=(2, 2, 1),
        )
        sim.setup()
        log = sim.world.transport.log
        assert log.count("pair-reverse") == 0
        assert log.count("pair-forward") > 0


class TestNewtonOff:
    def test_newton_off_matches_serial(self, serial_eam):
        x, v, box, ref = serial_eam
        sim = Simulation(
            x, v, box, SuttonChenEAM(cutoff=4.95),
            eam_config("p2p", newton=False), grid=(2, 2, 1),
        )
        sim.run(15)
        d = box.minimum_image(sim.gather_positions() - ref.x)
        assert np.abs(d).max() < 1e-9

    def test_newton_off_doubles_border_traffic(self):
        """Fig. 15 premise: full lists need the full 26-neighbor shell."""
        # Jitter the lattice: perfect lattice columns sit exactly on the
        # border thresholds and bias the half/full ratio.
        x, v, box = copper_system()
        x = x + np.random.default_rng(3).uniform(-0.3, 0.3, size=x.shape)
        sims = {}
        for newton in (True, False):
            sim = Simulation(
                x, v, box, SuttonChenEAM(cutoff=4.95),
                eam_config("p2p", newton=newton), grid=(2, 2, 1),
            )
            sim.setup()
            sims[newton] = sum(sim.atoms_of(r).nghost for r in range(4))
        assert sims[False] == pytest.approx(2 * sims[True], rel=0.05)

    def test_newton_off_skips_reverse_stage(self):
        x, v, box = copper_system()
        sim = Simulation(
            x, v, box, SuttonChenEAM(cutoff=4.95),
            eam_config("p2p", newton=False), grid=(2, 2, 1),
        )
        sim.run(2)
        assert sim.world.transport.log.count("reverse") == 0


class TestCheckYesPolicy:
    def test_allreduce_decision_recorded(self):
        x, v, box = copper_system(temperature=0.2)
        sim = Simulation(
            x, v, box, SuttonChenEAM(cutoff=4.95),
            eam_config("p2p", neighbor_check=True, neighbor_every=5),
            grid=(2, 2, 1),
        )
        sim.run(20)
        # 20 steps at every=5 -> up to 4 global checks ran; whether they
        # triggered depends on motion, but the run must stay consistent.
        assert sim.total_local_atoms() == sim.natoms

    def test_energy_conserved_eam(self):
        x, v, box = copper_system(temperature=0.01)
        sim = Simulation(
            x, v, box, SuttonChenEAM(cutoff=4.95), eam_config("p2p"), grid=(2, 2, 1)
        )
        sim.setup()
        e0 = sim.sample_thermo().total_energy
        sim.run(40)
        assert sim.sample_thermo().total_energy == pytest.approx(e0, rel=1e-5)
