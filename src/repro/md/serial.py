"""Serial reference MD: minimum-image, brute-force, single-rank.

A deliberately *independent* implementation path used to validate the
whole parallel machinery: no domain decomposition, no ghosts, no
communication — periodic boundaries are handled with the minimum-image
convention and pairs come from an O(N^2) sweep.  If a multi-rank run
over any exchange pattern disagrees with this, the bug is in the
communication stack, which is exactly what we want tests to catch.

Only valid when the cutoff is below half the shortest box edge (the
minimum-image requirement); the constructor enforces it.
"""

from __future__ import annotations

import numpy as np

from repro.md.kernels import scatter_add_scalar, scatter_add_vec, scatter_sub_vec
from repro.md.potentials.base import PairPotential
from repro.md.region import Box
from repro.md.thermo import Thermo, ThermoSample


class SerialReference:
    """Minimum-image NVE integrator for cross-validation."""

    def __init__(
        self,
        x: np.ndarray,
        v: np.ndarray,
        box: Box,
        potential: PairPotential,
        dt: float,
        mass: float = 1.0,
        types: np.ndarray | None = None,
    ) -> None:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.shape != v.shape or x.ndim != 2 or x.shape[1] != 3:
            raise ValueError("x and v must both be (N, 3)")
        self.types = (
            np.zeros(x.shape[0], dtype=np.int32)
            if types is None
            else np.asarray(types, dtype=np.int32)
        )
        if potential.cutoff >= float(np.min(box.lengths)) / 2.0:
            raise ValueError(
                "minimum-image reference requires cutoff < half the box edge"
            )
        self.x = box.wrap(x)
        self.v = v.copy()
        self.box = box
        self.potential = potential
        self.dt = dt
        self.mass = mass
        self.natoms = x.shape[0]
        self.f = np.zeros_like(self.x)
        self.energy = 0.0
        self.virial = 0.0
        self.step_count = 0
        self._compute()

    # ------------------------------------------------------------------
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All i<j pairs within the cutoff, minimum-imaged."""
        n = self.natoms
        iu, ju = np.triu_indices(n, k=1)
        d = self.box.minimum_image(self.x[iu] - self.x[ju])
        r2 = np.einsum("ij,ij->i", d, d)
        rc2 = self.potential.cutoff**2
        keep = r2 < rc2
        return iu[keep], ju[keep], d[keep], np.sqrt(r2[keep])

    def _compute(self) -> None:
        self.f[:] = 0.0
        pot = self.potential
        i, j, d, r = self._pairs()
        if hasattr(pot, "density_pass"):
            self._compute_eam(i, j, d, r)
            return
        # LJ-style: pure pair forces (multi-type aware).
        r2 = r * r
        if getattr(pot, "n_types", 1) > 1:
            ti, tj = self.types[i], self.types[j]
            eps = pot._eps[ti, tj]
            sig2 = pot._sig[ti, tj] ** 2
            cut2 = pot._cut[ti, tj] ** 2
            keep = r2 < cut2
            i, j, d, r2 = i[keep], j[keep], d[keep], r2[keep]
            eps, sig2 = eps[keep], sig2[keep]
            sr6 = (sig2 / r2) ** 3
            fpair = 24.0 * eps * sr6 * (2.0 * sr6 - 1.0) / r2
            energy = float(np.sum(4.0 * eps * (sr6 * sr6 - sr6)))
        else:
            fpair = pot.pair_force_over_r(r2)
            energy = float(np.sum(pot.pair_energy(r)))
        fvec = fpair[:, None] * d
        scatter_add_vec(self.f, i, fvec)
        scatter_sub_vec(self.f, j, fvec)
        self.energy = energy
        self.virial = float(np.sum(fpair * r2))

    def _compute_eam(self, i, j, d, r) -> None:
        pot = self.potential
        density = np.zeros(self.natoms)
        rho_r = pot.rho(r)
        scatter_add_scalar(density, i, rho_r)
        scatter_add_scalar(density, j, rho_r)
        rho_bar = np.maximum(density, 0.0)
        e_embed = float(np.sum(pot.embed(rho_bar)))
        fp = pot.dembed(rho_bar)
        du = pot.dphi(r) + (fp[i] + fp[j]) * pot.drho(r)
        fpair = -du / r
        fvec = fpair[:, None] * d
        scatter_add_vec(self.f, i, fvec)
        scatter_sub_vec(self.f, j, fvec)
        self.energy = float(np.sum(pot.phi(r))) + e_embed
        self.virial = float(np.sum(fpair * r * r))

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One velocity-Verlet step (wraps positions every step)."""
        dtf = 0.5 * self.dt / self.mass
        self.v += dtf * self.f
        self.x = self.box.wrap(self.x + self.dt * self.v)
        self._compute()
        self.v += dtf * self.f
        self.step_count += 1

    def run(self, n_steps: int) -> None:
        """Advance ``n_steps`` timesteps."""
        for _ in range(n_steps):
            self.step()

    def sample_thermo(self) -> ThermoSample:
        """Global thermo snapshot of the serial state."""
        ke = 0.5 * self.mass * float(np.einsum("ij,ij->", self.v, self.v))
        return Thermo.reduce(
            self.step_count,
            [ke],
            [self.energy],
            [self.virial],
            self.natoms,
            self.box.volume,
        )


# -- a parallel run against this reference --------------------------------
def check_trajectory(sim, x_ref: np.ndarray) -> tuple[bool, str]:
    """``sim``'s positions equal ``x_ref`` to 1e-9, modulo periodic images
    (the parallel driver wraps only at migration, the reference every step)."""
    err = float(np.abs(sim.box.minimum_image(sim.gather_positions() - x_ref)).max())
    return err < 1e-9, f"max deviation {err:.2e}"


def check_momentum(sim) -> tuple[bool, str]:
    """Every component of the total momentum stays below 1e-9."""
    p = np.abs(sim.gather_velocities().sum(axis=0))
    return bool(np.all(p < 1e-9)), f"|p| {p.max():.2e}"


def check_atoms_conserved(sim) -> tuple[bool, str]:
    """Migration neither loses nor duplicates an atom."""
    n = sim.total_local_atoms()
    return n == sim.natoms, f"{n}/{sim.natoms}"


def check_energy_drift(e0: float, e1: float, steps: int) -> tuple[bool, str]:
    """Total energy moves less than 5e-3 relative over ``steps``: pairs
    crossing the unshifted cutoff drift that little, an integrator bug far
    more."""
    drift = abs(e1 - e0) / abs(e0)
    return drift < 5e-3, f"relative drift {drift:.2e} over {steps} steps"
