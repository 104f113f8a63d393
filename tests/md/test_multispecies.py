"""Multi-species support: per-pair LJ coefficients, mixing, and the type
array surviving ghosts and migration across every exchange pattern."""

import numpy as np
import pytest

from repro import LennardJones, SerialReference, Simulation, SimulationConfig
from repro.md import Box
from repro.md.atoms import Atoms
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.md.neighbor import build_pairs
from repro.md.serial import check_trajectory


class TestCoefficientTables:
    def test_defaults_fill_table(self):
        lj = LennardJones(epsilon=2.0, sigma=1.5, cutoff=3.0, n_types=3)
        assert lj.coeff(0, 2) == (2.0, 1.5, 3.0)

    def test_set_coeff_symmetric(self):
        lj = LennardJones(n_types=2)
        lj.set_coeff(0, 1, epsilon=0.5, sigma=1.2)
        assert lj.coeff(0, 1) == lj.coeff(1, 0)
        assert lj.coeff(0, 1)[0] == 0.5

    def test_lorentz_berthelot_mixing(self):
        lj = LennardJones(n_types=2)
        lj.set_coeff(0, 0, epsilon=1.0, sigma=1.0)
        lj.set_coeff(1, 1, epsilon=4.0, sigma=2.0)
        eps, sig, _ = lj.coeff(0, 1)
        assert eps == pytest.approx(2.0)  # sqrt(1*4)
        assert sig == pytest.approx(1.5)  # (1+2)/2

    def test_explicit_cross_term_beats_mixing(self):
        lj = LennardJones(n_types=2)
        lj.set_coeff(0, 1, epsilon=9.0, sigma=0.9)
        lj.set_coeff(0, 0, epsilon=1.0, sigma=1.0)
        lj.set_coeff(1, 1, epsilon=4.0, sigma=2.0)
        assert lj.coeff(0, 1)[0] == 9.0  # not remixed away

    def test_global_cutoff_tracks_max(self):
        lj = LennardJones(cutoff=2.5, n_types=2)
        lj.set_coeff(1, 1, epsilon=1.0, sigma=1.0, cutoff=4.0)
        assert lj.cutoff == 4.0

    def test_validation(self):
        lj = LennardJones(n_types=2)
        with pytest.raises(ValueError):
            lj.set_coeff(0, 5, 1.0, 1.0)
        with pytest.raises(ValueError):
            lj.set_coeff(0, 0, -1.0, 1.0)
        with pytest.raises(ValueError):
            LennardJones(n_types=0)


class TestKernel:
    def _dimer(self, r, types):
        atoms = Atoms()
        atoms.set_local(
            np.array([[0.0, 0, 0], [r, 0, 0]]),
            np.zeros((2, 3)),
            np.array([0, 1]),
            np.array(types, dtype=np.int32),
        )
        return atoms

    def test_per_pair_energy(self):
        lj = LennardJones(n_types=2)
        lj.set_coeff(0, 0, 1.0, 1.0)
        lj.set_coeff(1, 1, 3.0, 1.0)
        r = 1.1

        def energy(types):
            atoms = self._dimer(r, types)
            i, j = build_pairs(atoms.x, 2, lj.cutoff)
            return lj.compute(atoms, i, j).energy

        e00 = energy([0, 0])
        e11 = energy([1, 1])
        assert e11 == pytest.approx(3.0 * e00)
        e01 = energy([0, 1])
        assert e01 == pytest.approx(np.sqrt(3.0) * e00)  # mixed epsilon

    def test_single_type_path_unchanged(self):
        """n_types=1 must give bit-identical results to the fast path."""
        lj1 = LennardJones()
        lj2 = LennardJones(n_types=2)  # same coeffs everywhere
        atoms_a = self._dimer(1.3, [0, 0])
        atoms_b = self._dimer(1.3, [0, 1])
        i, j = build_pairs(atoms_a.x, 2, 2.5)
        e1 = lj1.compute(atoms_a, i, j).energy
        e2 = lj2.compute(atoms_b, i, j).energy
        assert e1 == pytest.approx(e2)

    def test_per_pair_cutoff(self):
        lj = LennardJones(n_types=2)
        lj.set_coeff(0, 0, 1.0, 1.0, cutoff=1.0)
        lj.set_coeff(1, 1, 1.0, 1.0, cutoff=3.0)
        atoms = self._dimer(2.0, [0, 0])
        i, j = build_pairs(atoms.x, 2, 3.0)
        assert lj.compute(atoms, i, j).energy == 0.0  # beyond 0-0 cutoff
        atoms = self._dimer(2.0, [1, 1])
        assert lj.compute(atoms, i, j).energy != 0.0


class TestParallelMixture:
    @pytest.fixture(scope="class")
    def mixture(self):
        """A 50/50 binary LJ mixture on an FCC lattice."""
        edge = lj_density_to_cell(0.8442)
        x, box = fcc_lattice((4, 4, 4), edge)
        rng = np.random.default_rng(31)
        types = (rng.random(x.shape[0]) < 0.5).astype(np.int32)
        v = maxwell_velocities(x.shape[0], 1.0, seed=31)
        lj = LennardJones(n_types=2, cutoff=2.5)
        lj.set_coeff(0, 0, 1.0, 1.0)
        lj.set_coeff(1, 1, 0.5, 0.88)
        return x, v, box, types, lj

    def _build_potential(self):
        lj = LennardJones(n_types=2, cutoff=2.5)
        lj.set_coeff(0, 0, 1.0, 1.0)
        lj.set_coeff(1, 1, 0.5, 0.88)
        return lj

    @pytest.mark.parametrize("pattern,rdma", [
        ("3stage", False), ("p2p", False), ("p2p", True), ("parallel-p2p", True),
    ])
    def test_mixture_matches_serial(self, mixture, pattern, rdma):
        x, v, box, types, _ = mixture
        ref = SerialReference(
            x, v, box, self._build_potential(), dt=0.005, types=types
        )
        ref.run(15)
        cfg = SimulationConfig(dt=0.005, skin=0.3, pattern=pattern, rdma=rdma,
                               neighbor_every=5)
        sim = Simulation(
            x, v, box, self._build_potential(), cfg, grid=(2, 2, 2), types=types
        )
        sim.run(15)
        ok, detail = check_trajectory(sim, ref.x)
        assert ok, detail

    def test_types_travel_with_migration(self, mixture):
        x, v, box, types, _ = mixture
        cfg = SimulationConfig(dt=0.005, skin=0.3, pattern="p2p", neighbor_every=5)
        sim = Simulation(
            x, v, box, self._build_potential(), cfg, grid=(2, 2, 2), types=types
        )
        sim.run(20)
        # Reassemble types by tag; must match the initial assignment.
        out = np.full(sim.natoms, -1, dtype=np.int32)
        for rank in range(8):
            atoms = sim.atoms_of(rank)
            out[atoms.tag[: atoms.nlocal]] = atoms.type[: atoms.nlocal]
        assert np.array_equal(out, types)

    def test_ghost_types_consistent(self, mixture):
        x, v, box, types, _ = mixture
        cfg = SimulationConfig(dt=0.005, skin=0.3, pattern="p2p")
        sim = Simulation(
            x, v, box, self._build_potential(), cfg, grid=(2, 2, 2), types=types
        )
        sim.setup()
        for rank in range(8):
            atoms = sim.atoms_of(rank)
            ghost_tags = atoms.tag[atoms.nlocal :]
            ghost_types = atoms.type[atoms.nlocal :]
            assert np.array_equal(ghost_types, types[ghost_tags])

    def test_bad_types_shape_rejected(self, mixture):
        x, v, box, types, _ = mixture
        with pytest.raises(ValueError):
            Simulation(
                x, v, box, self._build_potential(), SimulationConfig(),
                grid=(1, 1, 1), types=types[:-1],
            )
