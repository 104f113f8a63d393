"""Lennard-Jones 12-6 pair potential (paper Eq. 1, Table 2 LJ column).

``U(r) = 4 eps [ (sigma/r)^12 - (sigma/r)^6 ]`` truncated at ``cutoff``
(2.5 sigma in the benchmark) without shift, matching the LAMMPS bench
input the paper uses.  The kernel is a single vectorized pass over the
pair list with bincount-based scatter accumulation (see
:mod:`repro.md.kernels`): every atom row sums its pairs in list order,
which is :mod:`repro.md.neighbor`'s pair order.
"""

from __future__ import annotations

import numpy as np

from repro.md.atoms import Atoms
from repro.md.kernels import scatter_pair_forces
from repro.md.pairtiles import PairTile, as_tile
from repro.md.potentials.base import ForceResult, PairPotential


class LennardJones(PairPotential):
    """LJ 12-6 with energy computed only inside the cutoff (no shift).

    Supports multiple species: construct with ``n_types > 1`` and set
    per-pair coefficients with :meth:`set_coeff`; unset cross terms fill
    in by Lorentz-Berthelot mixing (geometric epsilon, arithmetic sigma),
    matching LAMMPS' default ``pair_modify mix``.
    """

    rank_tiled = True

    def __init__(
        self,
        epsilon: float = 1.0,
        sigma: float = 1.0,
        cutoff: float = 2.5,
        n_types: int = 1,
    ):
        if epsilon <= 0 or sigma <= 0 or cutoff <= 0:
            raise ValueError("epsilon, sigma and cutoff must be positive")
        if n_types < 1:
            raise ValueError(f"n_types must be >= 1, got {n_types}")
        self.epsilon = epsilon
        self.sigma = sigma
        self.cutoff = cutoff
        self.n_types = n_types
        # Per-type-pair tables (filled by mixing until set explicitly).
        self._eps = np.full((n_types, n_types), epsilon)
        self._sig = np.full((n_types, n_types), sigma)
        self._cut = np.full((n_types, n_types), cutoff)
        self._diag_set = [False] * n_types
        self._pair_set = np.zeros((n_types, n_types), dtype=bool)

    # -- multi-species coefficients ------------------------------------
    def set_coeff(
        self, i: int, j: int, epsilon: float, sigma: float, cutoff: float | None = None
    ) -> None:
        """Set the (i, j) interaction (symmetric); remix unset cross terms."""
        if not (0 <= i < self.n_types and 0 <= j < self.n_types):
            raise ValueError(f"types ({i}, {j}) out of range for {self.n_types}")
        if epsilon <= 0 or sigma <= 0:
            raise ValueError("epsilon and sigma must be positive")
        cut = cutoff if cutoff is not None else self.cutoff
        for a, b in ((i, j), (j, i)):
            self._eps[a, b] = epsilon
            self._sig[a, b] = sigma
            self._cut[a, b] = cut
            self._pair_set[a, b] = True
        if i == j:
            self._diag_set[i] = True
            self._remix()
        self.cutoff = float(self._cut.max())  # neighbor lists use the max

    def _remix(self) -> None:
        """Lorentz-Berthelot fill for cross terms not set explicitly."""
        for a in range(self.n_types):
            for b in range(self.n_types):
                if a == b or self._pair_set[a, b]:
                    continue
                if self._diag_set[a] and self._diag_set[b]:
                    self._eps[a, b] = np.sqrt(self._eps[a, a] * self._eps[b, b])
                    self._sig[a, b] = 0.5 * (self._sig[a, a] + self._sig[b, b])
                    self._cut[a, b] = max(self._cut[a, a], self._cut[b, b])

    def coeff(self, i: int, j: int) -> tuple[float, float, float]:
        """(epsilon, sigma, cutoff) for the (i, j) interaction."""
        return float(self._eps[i, j]), float(self._sig[i, j]), float(self._cut[i, j])

    def pair_energy(self, r: np.ndarray) -> np.ndarray:
        """U(r) for scalar/array distances (no cutoff applied)."""
        sr6 = (self.sigma / r) ** 6
        return 4.0 * self.epsilon * (sr6 * sr6 - sr6)

    def pair_force_over_r(self, r2: np.ndarray) -> np.ndarray:
        """fpair(r)/r such that f_i += fpair * (x_i - x_j)."""
        sr2 = (self.sigma * self.sigma) / r2
        sr6 = sr2 * sr2 * sr2
        return 24.0 * self.epsilon * sr6 * (2.0 * sr6 - 1.0) / r2

    def compute(
        self,
        atoms: Atoms | PairTile,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        half_list: bool = True,
    ) -> ForceResult:
        """Vectorized LJ force/energy/virial over the pair list.

        ``atoms`` is one rank's :class:`Atoms` or a whole-rank
        :class:`~repro.md.pairtiles.PairTile` (per-rank energy/virial
        arrays, see :class:`ForceResult`).
        """
        tile = as_tile(atoms, pair_i, pair_j)
        scratch = tile.scratch
        eps: float | np.ndarray = self.epsilon
        sig2: float | np.ndarray = self.sigma * self.sigma
        cut2: float | np.ndarray = self.cutoff * self.cutoff
        if self.n_types != 1:
            # per-pair cutoffs: type-pair index into the flattened tables
            npairs = pair_i.shape[0]
            tpair = scratch("tpair", npairs, np.intp)
            t = scratch("t", npairs, np.int32)
            np.take(tile.type, pair_i, out=t, mode="clip")
            np.multiply(t, self.n_types, out=tpair)
            np.take(tile.type, pair_j, out=t, mode="clip")
            np.add(tpair, t, out=tpair)
            cut2 = scratch("cut2", npairs)
            np.take((self._cut * self._cut).ravel(), tpair, out=cut2, mode="clip")

        keep, i, j, d, r2 = tile.pairs_inside(pair_i, pair_j, cut2)
        n = keep.shape[0]
        if self.n_types != 1:
            tkeep = np.take(tpair, keep, out=scratch("tkeep", n, np.intp), mode="clip")
            eps = np.take(self._eps.ravel(), tkeep, out=scratch("eps", n), mode="clip")
            sig2 = np.take(
                (self._sig * self._sig).ravel(), tkeep, out=scratch("sig2", n), mode="clip"
            )

        # fpair = 24 eps sr6 (2 sr6 - 1) / r2, evaluated left to right
        sr6, tmp, fpair, e_pair = scratch("work", n, lead=4)
        np.divide(sig2, r2, out=tmp)  # sr2
        np.multiply(tmp, tmp, out=sr6)
        np.multiply(sr6, tmp, out=sr6)
        np.multiply(24.0 * eps, sr6, out=fpair)
        np.multiply(2.0, sr6, out=tmp)
        np.subtract(tmp, 1.0, out=tmp)
        np.multiply(fpair, tmp, out=fpair)
        np.divide(fpair, r2, out=fpair)
        scatter_pair_forces(tile.f, i, j, fpair, d, tmp, half_list)

        # e_pair = 4 eps (sr6 sr6 - sr6);  virial_pair = fpair r2 (r . f)
        np.multiply(sr6, sr6, out=e_pair)
        np.subtract(e_pair, sr6, out=e_pair)
        np.multiply(4.0 * eps, e_pair, out=e_pair)
        virial_pair = np.multiply(fpair, r2, out=tmp)

        # A directed list visits each pair twice (once per endpoint).
        scale = 1.0 if half_list else 0.5
        kb = np.searchsorted(keep, tile.pair_bounds)
        energy = scale * tile.rank_sums(e_pair, kb)
        virial = scale * tile.rank_sums(virial_pair, kb)
        if tile is not atoms:  # one rank's Atoms: plain floats
            return ForceResult(float(energy[0]), float(virial[0]))
        return ForceResult(energy, virial)
