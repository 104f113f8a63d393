"""The serial minimum-image reference engine in its own right."""

import numpy as np
import pytest

from repro import LennardJones, SerialReference
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.md.potentials import SuttonChenEAM


def lj_melt(cells=(4, 4, 4), t=1.44, seed=1):
    edge = lj_density_to_cell(0.8442)
    x, box = fcc_lattice(cells, edge)
    v = maxwell_velocities(x.shape[0], t, seed=seed)
    return x, v, box


class TestConstruction:
    def test_cutoff_must_fit_half_box(self):
        x, v, box = lj_melt(cells=(2, 2, 2))  # box edge ~3.36
        with pytest.raises(ValueError, match="half the box edge"):
            SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)

    def test_shape_validation(self):
        x, v, box = lj_melt()
        with pytest.raises(ValueError):
            SerialReference(x[:10], v, box, LennardJones(), dt=0.005)

    def test_initial_forces_computed(self):
        x, v, box = lj_melt()
        ref = SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)
        assert ref.f.shape == x.shape
        assert np.allclose(ref.f.sum(axis=0), 0.0, atol=1e-10)


class TestPhysics:
    def test_lattice_energy_per_atom_reasonable(self):
        """The perfect FCC crystal at rho* = 0.8442 has the energy per atom
        of an independent lattice sum: half of ``4 (r^-12 - r^-6)`` over
        every lattice vector shorter than the 2.5 sigma cutoff, unshifted
        (the engine's truncation).  FCC sites are the points of a cubic
        grid of spacing a/2 whose index sum is even."""
        x, _, box = lj_melt(t=0.0)
        ref = SerialReference(x, np.zeros_like(x), box, LennardJones(cutoff=2.5), dt=0.005)
        half = lj_density_to_cell(0.8442) / 2
        g = np.arange(-int(2.5 / half) - 1, int(2.5 / half) + 2)
        i, j, k = np.meshgrid(g, g, g, indexing="ij")
        r = half * np.sqrt(i**2 + j**2 + k**2)[(i + j + k) % 2 == 0]
        r = r[(r > 0) & (r < 2.5)]
        lattice_sum = 0.5 * float(np.sum(4.0 * (r**-12 - r**-6)))
        assert ref.energy / x.shape[0] == pytest.approx(lattice_sum, rel=1e-12)

    def test_energy_conservation(self):
        x, v, box = lj_melt(t=0.8, seed=2)
        ref = SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.002)
        e0 = ref.sample_thermo().total_energy
        ref.run(100)
        assert ref.sample_thermo().total_energy == pytest.approx(e0, rel=2e-3)  # truncated LJ jumps at the cutoff

    def test_momentum_conserved(self):
        x, v, box = lj_melt(seed=3)
        ref = SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)
        ref.run(50)
        assert np.allclose(ref.v.sum(axis=0), 0.0, atol=1e-10)

    def test_positions_stay_wrapped(self):
        x, v, box = lj_melt(seed=4)
        ref = SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)
        ref.run(30)
        assert box.contains(ref.x).all()

    def test_eam_path(self):
        x, box = fcc_lattice((3, 3, 3), 3.615)
        v = maxwell_velocities(x.shape[0], 0.02, seed=5)
        ref = SerialReference(x, v, box, SuttonChenEAM(cutoff=4.95), dt=0.002)
        e0 = ref.sample_thermo().total_energy
        ref.run(30)
        assert ref.sample_thermo().total_energy == pytest.approx(e0, rel=1e-5)
        assert ref.energy < 0  # cohesive metal

    def test_thermo_sample_fields(self):
        x, v, box = lj_melt(seed=6)
        ref = SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)
        s = ref.sample_thermo()
        assert s.natoms == x.shape[0]
        assert s.temperature > 0
        assert s.step == 0


class TestEmptyRanks:
    """Ranks that own zero atoms must not break any exchange."""

    def _sparse_sim(self, pattern):
        from repro import Simulation, SimulationConfig
        from repro.md import Box

        # 8 atoms clustered in one corner of a 8-rank decomposition.
        rng = np.random.default_rng(7)
        x = rng.uniform(0.5, 2.0, size=(8, 3))
        v = rng.normal(0, 0.1, size=(8, 3))
        box = Box((0, 0, 0), (12, 12, 12))
        cfg = SimulationConfig(dt=0.005, skin=0.3, pattern=pattern,
                               neighbor_every=5)
        return Simulation(x, v, box, LennardJones(cutoff=2.0), cfg, grid=(2, 2, 2))

    @pytest.mark.parametrize("pattern", ["3stage", "p2p", "parallel-p2p"])
    def test_empty_ranks_survive_steps(self, pattern):
        sim = self._sparse_sim(pattern)
        empties = sum(1 for r in range(8) if sim.atoms_of(r).nlocal == 0)
        assert empties >= 5  # most ranks start empty
        sim.run(10)
        assert sim.total_local_atoms() == 8
        sim.world.transport.assert_drained()
