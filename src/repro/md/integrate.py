"""NVE velocity-Verlet integration (the ``fix nve`` of Table 2).

LAMMPS splits the update across the timestep: ``initial_integrate``
(half-kick + drift) before the force evaluation and ``final_integrate``
(second half-kick) after it — together the Modify stage of the paper's
breakdown.  The paper's observation that OpenMP makes this stage 10x
slower at 22 atoms/rank is a statement about parallel-region overhead,
not about this arithmetic; the timing model applies that overhead, the
arithmetic here is plain vectorized NumPy.
"""

from __future__ import annotations

from repro.md.atoms import Atoms


class NVEIntegrator:
    """Velocity Verlet in the microcanonical ensemble."""

    def __init__(self, dt: float, mass: float = 1.0) -> None:
        if dt <= 0:
            raise ValueError(f"timestep must be positive, got {dt}")
        if mass <= 0:
            raise ValueError(f"mass must be positive, got {mass}")
        self.dt = dt
        self.mass = mass

    def initial_integrate(self, atoms: Atoms) -> None:
        """Half-kick velocities, then drift positions (local atoms)."""
        n = atoms.nlocal
        dtf = 0.5 * self.dt / self.mass
        atoms.v[:] += dtf * atoms.f_local()
        atoms.x_local()[:n] += self.dt * atoms.v

    def final_integrate(self, atoms: Atoms) -> None:
        """Second half-kick with the new forces."""
        dtf = 0.5 * self.dt / self.mass
        atoms.v[:] += dtf * atoms.f_local()
