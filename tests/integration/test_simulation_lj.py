"""Integration: full LJ runs across patterns, rebuilds, conservation."""

import numpy as np
import pytest

from repro import (
    LennardJones,
    SerialReference,
    Simulation,
    SimulationConfig,
    quick_lj_simulation,
)
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.md.serial import check_atoms_conserved, check_energy_drift, check_momentum

PATTERNS = [
    ("3stage", False),
    ("p2p", False),
    ("p2p", True),
    ("parallel-p2p", False),
    ("parallel-p2p", True),
]


@pytest.fixture(scope="module")
def serial_trace():
    """Serial reference trajectory: 30 steps of a 500-atom LJ melt."""
    edge = lj_density_to_cell(0.8442)
    x, box = fcc_lattice((5, 5, 5), edge)
    v = maxwell_velocities(x.shape[0], 1.44, seed=17)
    ref = SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)
    samples = []
    for _ in range(30):
        ref.step()
        samples.append(ref.sample_thermo())
    return ref, samples


class TestPatternsVsSerial:
    @pytest.mark.parametrize("pattern,rdma", PATTERNS)
    def test_trajectory_matches_serial(self, pattern, rdma, serial_trace):
        ref, _ = serial_trace
        sim = quick_lj_simulation(
            cells=(5, 5, 5), ranks=(2, 2, 2), pattern=pattern, rdma=rdma,
            seed=17, neighbor_every=10,
        )
        sim.run(30)
        x = sim.gather_positions()
        # Same physics to floating-point accumulation noise.
        assert np.allclose(x, ref.x, atol=1e-8)
        v = sim.gather_velocities()
        assert np.allclose(v, ref.v, atol=1e-8)

    @pytest.mark.parametrize("pattern,rdma", PATTERNS)
    def test_pressure_matches_serial(self, pattern, rdma, serial_trace):
        """Fig. 11's accuracy claim: the optimized code's pressure trace
        is indistinguishable from the reference."""
        _, samples = serial_trace
        sim = quick_lj_simulation(
            cells=(5, 5, 5), ranks=(2, 2, 2), pattern=pattern, rdma=rdma,
            seed=17, neighbor_every=10, thermo_every=10,
        )
        sim.run(30)
        for mine, ref_s in zip(sim.samples, samples[9::10]):
            assert mine.pressure == pytest.approx(ref_s.pressure, abs=1e-10)


class TestConservation:
    @pytest.mark.parametrize("pattern", ["3stage", "p2p", "parallel-p2p"])
    def test_energy_conservation(self, pattern):
        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), pattern=pattern,
            seed=30, neighbor_every=5,
        )
        sim.setup()
        e0 = sim.sample_thermo().total_energy
        sim.run(60)
        ok, detail = check_energy_drift(e0, sim.sample_thermo().total_energy, 60)
        assert ok, detail

    def test_momentum_conservation(self):
        sim = quick_lj_simulation(cells=(4, 4, 4), ranks=(2, 2, 2), seed=31)
        sim.run(40)
        ok, detail = check_momentum(sim)
        assert ok, detail

    def test_atom_count_conserved_across_migration(self):
        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), seed=32, neighbor_every=5
        )
        sim.run(40)
        assert check_atoms_conserved(sim)[0]
        assert sim.rebuilds >= 7


class TestRebuildPolicies:
    def test_check_no_rebuilds_on_cadence(self):
        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), seed=33,
            neighbor_every=10, neighbor_check=False,
        )
        sim.run(30)
        assert sim.rebuilds == 3

    def test_check_yes_can_skip_rebuilds(self):
        """Cold start (tiny velocities): displacement stays under skin/2,
        so check-yes skips rebuilds that check-no would do."""
        edge = lj_density_to_cell(0.8442)
        x, box = fcc_lattice((4, 4, 4), edge)
        v = maxwell_velocities(x.shape[0], 0.0001, seed=34)
        cfg = SimulationConfig(
            dt=0.005, skin=0.3, pattern="p2p",
            neighbor_every=5, neighbor_check=True,
        )
        sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
        sim.run(20)
        assert sim.rebuilds == 0

    def test_the_displacement_check_is_neigh_time(self):
        """A check step that does not rebuild still walked every rank's
        displacements: Neigh time (LAMMPS' ``neighbor->decide()``), the
        allreduce of the flags Other — nothing outside the stage timers."""
        from repro.md.stages import Stage

        edge = lj_density_to_cell(0.8442)
        x, box = fcc_lattice((4, 4, 4), edge)
        v = maxwell_velocities(x.shape[0], 0.0001, seed=34)
        cfg = SimulationConfig(
            dt=0.005, skin=0.3, pattern="p2p", neighbor_every=5, neighbor_check=True
        )
        sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
        sim.run(3)
        wall = dict(sim.timers.wall)
        sim.step()  # step 4: no check
        assert sim.timers.wall[Stage.NEIGH] == wall[Stage.NEIGH]
        assert sim.timers.wall[Stage.OTHER] == wall[Stage.OTHER]
        sim.step()  # step 5: every rank checks, nobody moved far enough
        assert sim.rebuilds == 0
        assert sim.timers.wall[Stage.NEIGH] > wall[Stage.NEIGH]
        assert sim.timers.wall[Stage.OTHER] > wall[Stage.OTHER]

    def test_check_yes_triggers_on_motion(self):
        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), seed=35, temperature=2.5,
            neighbor_every=5, neighbor_check=True,
        )
        sim.run(40)
        assert sim.rebuilds >= 2


class TestDriverBehaviour:
    def test_setup_idempotent_entry(self):
        sim = quick_lj_simulation(cells=(4, 4, 4), ranks=(2, 1, 1), seed=36)
        sim.step()  # implicit setup
        assert sim.step_count == 1

    def test_stage_timers_populated(self):
        sim = quick_lj_simulation(cells=(4, 4, 4), ranks=(2, 1, 1), seed=37)
        sim.run(5)
        from repro.md import Stage

        for stage in (Stage.PAIR, Stage.COMM, Stage.MODIFY):
            assert sim.timers.wall[stage] > 0

    def test_transport_drained_per_step(self):
        sim = quick_lj_simulation(cells=(4, 4, 4), ranks=(2, 2, 1), seed=38)
        sim.run(3)
        sim.world.transport.assert_drained()

    def test_oversubscribed_grid_rejected(self):
        with pytest.raises(ValueError):
            quick_lj_simulation(cells=(4, 4, 4), ranks=(8, 1, 1))

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            quick_lj_simulation(cells=(4, 4, 4), ranks=(1, 1, 1), pattern="telepathy")

    def test_bad_shapes_rejected(self):
        from repro.md import Box

        with pytest.raises(ValueError):
            Simulation(
                np.zeros((4, 3)),
                np.zeros((5, 3)),
                Box((0, 0, 0), (10, 10, 10)),
                LennardJones(),
                SimulationConfig(),
                grid=(1, 1, 1),
            )
