"""EAM potential: functional forms, two-pass structure, tabulated splines."""

import numpy as np
import pytest

from repro.md import Atoms, make_cu_like_eam
from repro.md.neighbor import build_pairs
from repro.md.potentials import SuttonChenEAM
from repro.md.potentials.eam import _smoothstep_cut


@pytest.fixture
def sc():
    return SuttonChenEAM(cutoff=4.95)


def cluster(n=8, seed=0, spread=5.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, spread, size=(n, 3)) + np.arange(n)[:, None] * 0.01
    atoms = Atoms()
    atoms.set_local(x, np.zeros((n, 3)), np.arange(n, dtype=np.int64))
    return atoms


class TestSmoothstep:
    def test_endpoints(self):
        s, ds = _smoothstep_cut(1.0, 2.0)
        assert s(np.array([0.5]))[0] == 1.0
        assert s(np.array([2.5]))[0] == 0.0
        assert s(np.array([1.5]))[0] == pytest.approx(0.5)

    def test_derivative_matches_numeric(self):
        s, ds = _smoothstep_cut(1.0, 2.0)
        r = np.linspace(1.05, 1.95, 7)
        h = 1e-7
        numeric = (s(r + h) - s(r - h)) / (2 * h)
        assert np.allclose(ds(r), numeric, atol=1e-5)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            _smoothstep_cut(2.0, 1.0)


class TestFunctionalForms:
    def test_phi_positive_and_decaying(self, sc):
        r = np.array([2.0, 2.5, 3.0])
        phi = sc.phi(r)
        assert np.all(phi > 0)
        assert phi[0] > phi[1] > phi[2]

    def test_phi_vanishes_at_cutoff(self, sc):
        assert sc.phi(np.array([4.95]))[0] == pytest.approx(0.0, abs=1e-12)
        assert sc.rho(np.array([4.95]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_embedding_negative_and_concave(self, sc):
        rho = np.array([1.0, 2.0, 9.0])
        F = sc.embed(rho)
        assert np.all(F < 0)  # cohesion
        # F = -c' sqrt(rho): doubling rho does not double |F|
        assert abs(F[1]) < 2 * abs(F[0]) * 0.99

    def test_dembed_matches_numeric(self, sc):
        rho = np.array([0.5, 2.0, 8.0])
        h = 1e-7
        numeric = (sc.embed(rho + h) - sc.embed(rho - h)) / (2 * h)
        assert np.allclose(sc.dembed(rho), numeric, rtol=1e-5)

    def test_dphi_matches_numeric(self, sc):
        r = np.linspace(2.2, 4.8, 9)
        h = 1e-7
        numeric = (sc.phi(r + h) - sc.phi(r - h)) / (2 * h)
        assert np.allclose(sc.dphi(r), numeric, atol=1e-8)

    def test_drho_matches_numeric(self, sc):
        r = np.linspace(2.2, 4.8, 9)
        h = 1e-7
        numeric = (sc.rho(r + h) - sc.rho(r - h)) / (2 * h)
        assert np.allclose(sc.drho(r), numeric, atol=1e-6)


class TestCompute:
    def test_forces_match_numerical_gradient(self, sc):
        """Full-system gradient check: f = -dU/dx for every coordinate."""
        atoms = cluster(6, seed=1, spread=4.0)
        n = atoms.nlocal

        def total_energy(flat):
            a = Atoms()
            a.set_local(flat.reshape(n, 3), np.zeros((n, 3)), np.arange(n, dtype=np.int64))
            i, j = build_pairs(a.x, n, sc.cutoff)
            return sc.compute(a, i, j).energy

        i, j = build_pairs(atoms.x, n, sc.cutoff)
        sc.compute(atoms, i, j)
        f_analytic = atoms.f[:n].copy()

        flat = atoms.x[:n].ravel().copy()
        h = 1e-6
        for k in range(len(flat)):
            fp = flat.copy()
            fm = flat.copy()
            fp[k] += h
            fm[k] -= h
            f_num = -(total_energy(fp) - total_energy(fm)) / (2 * h)
            assert f_analytic.ravel()[k] == pytest.approx(f_num, rel=1e-4, abs=1e-5)

    def test_newton_total_force_zero(self, sc):
        atoms = cluster(10, seed=2)
        i, j = build_pairs(atoms.x, 10, sc.cutoff)
        sc.compute(atoms, i, j)
        assert np.allclose(atoms.f.sum(axis=0), 0.0, atol=1e-10)

    def test_half_and_full_list_agree(self, sc):
        a1 = cluster(12, seed=3)
        i, j = build_pairs(a1.x, 12, sc.cutoff, half=True)
        r1 = sc.compute(a1, i, j, half_list=True)

        a2 = cluster(12, seed=3)
        i, j = build_pairs(a2.x, 12, sc.cutoff, half=False)
        r2 = sc.compute(a2, i, j, half_list=False)

        assert r1.energy == pytest.approx(r2.energy)
        assert r1.virial == pytest.approx(r2.virial)
        assert np.allclose(a1.f[:12], a2.f[:12])

    def test_comm_call_counts(self, sc):
        """Half list needs reverse+forward; full list only forward —
        the paper's 'two additional communications'."""
        atoms = cluster(8, seed=4)
        i, j = build_pairs(atoms.x, 8, sc.cutoff, half=True)
        assert sc.compute(atoms, i, j, half_list=True).comm_calls == 2
        atoms = cluster(8, seed=4)
        i, j = build_pairs(atoms.x, 8, sc.cutoff, half=False)
        assert sc.compute(atoms, i, j, half_list=False).comm_calls == 1

    def test_embedding_energy_reported(self, sc):
        atoms = cluster(8, seed=5)
        i, j = build_pairs(atoms.x, 8, sc.cutoff)
        res = sc.compute(atoms, i, j)
        assert res.extra["embedding_energy"] < 0
        assert res.energy > res.extra["embedding_energy"]  # pair part positive

    def test_isolated_atoms_zero_everything(self, sc):
        atoms = Atoms()
        atoms.set_local(
            np.array([[0.0, 0, 0], [100.0, 0, 0]]), np.zeros((2, 3)), np.array([0, 1])
        )
        i, j = build_pairs(atoms.x, 2, sc.cutoff)
        res = sc.compute(atoms, i, j)
        assert res.energy == 0.0
        assert np.all(atoms.f == 0.0)


class TestPhasedAPI:
    def test_phases_equal_monolithic(self, sc):
        a1 = cluster(10, seed=6)
        i, j = build_pairs(a1.x, 10, sc.cutoff)
        r1 = sc.compute(a1, i, j)

        a2 = cluster(10, seed=6)
        i, j = build_pairs(a2.x, 10, sc.cutoff)
        scratch = sc.density_pass(a2, i, j, half_list=True)
        sc.embedding_pass(a2, scratch)
        r2 = sc.force_pass(a2, scratch)

        assert r1.energy == pytest.approx(r2.energy)
        assert np.allclose(a1.f, a2.f)


class TestTabulated:
    def test_matches_analytic_forces(self, sc):
        """Spline tables agree with the analytic forms at physical
        separations (the table floor is 0.5 A, far below any real pair)."""
        tab = make_cu_like_eam(cutoff=4.95)
        from repro.md import fcc_lattice

        x, _ = fcc_lattice((2, 2, 2), 3.615)
        rng = np.random.default_rng(7)
        x = x + rng.normal(0, 0.05, size=x.shape)
        n = x.shape[0]

        def atoms():
            a = Atoms()
            a.set_local(x, np.zeros((n, 3)), np.arange(n, dtype=np.int64))
            return a

        a1, a2 = atoms(), atoms()
        i, j = build_pairs(x, n, 4.95)
        e1 = sc.compute(a1, i, j).energy
        e2 = tab.compute(a2, i, j).energy
        assert e2 == pytest.approx(e1, rel=1e-6)
        assert np.allclose(a1.f, a2.f, rtol=1e-6, atol=1e-8)

    def test_clamping_outside_table(self):
        tab = make_cu_like_eam()
        # below r_min and above cutoff must not blow up
        assert np.isfinite(tab.phi(np.array([0.1]))[0])
        assert tab.phi(np.array([10.0]))[0] == pytest.approx(0.0, abs=1e-10)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            SuttonChenEAM(cutoff=-1.0)


def test_import_repro_does_not_import_scipy():
    """SciPy serves :func:`make_cu_like_eam` alone: ``import repro`` (and
    the analytic Sutton-Chen engine path) must not pay for it."""
    import subprocess
    import sys

    code = (
        "import sys, repro, repro.md.simulation; "
        "from repro.md.potentials import SuttonChenEAM; SuttonChenEAM(); "
        "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr or "scipy was imported by `import repro`"
