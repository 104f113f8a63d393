"""Stillinger-Weber three-body potential (silicon).

The paper's Fig. 11 evaluates a silicon system and its section 4.4
extended experiment exists because potentials "such as Tersoff and
DeePMD require a full neighbor list" — the 26-neighbor communication
scenario.  Stillinger-Weber is the classic three-body silicon potential
with the same communication requirements as Tersoff and a much cleaner
functional form:

``U = sum_pairs phi2(r) + sum_triplets(j<k around center i) phi3``

* ``phi2(r) = A eps (B (sigma/r)^p - (sigma/r)^q) exp(sigma/(r - a sigma))``
* ``phi3 = lambda eps (cos(theta_jik) - cos0)^2
  exp(gamma sigma/(r_ij - a sigma)) exp(gamma sigma/(r_ik - a sigma))``

Communication-wise this is the paper's hardest functional case: a **full
neighbor list** (triplets need all of an atom's neighbors) *and*
ghost-force accumulation (a triplet centered on a local atom pushes on
ghost j and k), so the driver must run both the full 26-neighbor shell
and the reverse exchange — exactly LAMMPS' "pair style sw requires
newton pair on" constraint.

Triplet enumeration is vectorized: the full pair list is converted to a
CSR per-atom view and all ``C(n_i, 2)`` ordered pairs per center are
generated with cumsum arithmetic (no Python loop over atoms).  The CSR
is a *stable* sort by center of a list in :mod:`repro.md.neighbor`'s pair
order, so a center's neighbours come diagonal by diagonal (``j`` ascending
cyclically from ``i + 1``) whatever search built the list.
Parameters default to the original Stillinger-Weber silicon set (1985),
in reduced units (eps = sigma = 1); metal-unit silicon uses
``eps = 2.1683`` eV, ``sigma = 2.0951`` A.
"""

from __future__ import annotations

import numpy as np

from repro.md.atoms import Atoms
from repro.md.kernels import scatter_add_vec
from repro.md.potentials.base import ForceResult, PairPotential


class StillingerWeber(PairPotential):
    """SW silicon: two-body + three-body terms over a full list."""

    needs_full_list = True
    force_ghosts = True

    def __init__(
        self,
        epsilon: float = 1.0,
        sigma: float = 1.0,
        A: float = 7.049556277,
        B: float = 0.6022245584,
        p: float = 4.0,
        q: float = 0.0,
        a: float = 1.80,
        lam: float = 21.0,
        gamma: float = 1.20,
        cos_theta0: float = -1.0 / 3.0,
    ) -> None:
        if epsilon <= 0 or sigma <= 0 or a <= 0:
            raise ValueError("epsilon, sigma and a must be positive")
        self.epsilon = epsilon
        self.sigma = sigma
        self.A, self.B, self.p, self.q = A, B, p, q
        self.a = a
        self.lam = lam
        self.gamma = gamma
        self.cos_theta0 = cos_theta0
        self.cutoff = a * sigma

    # -- scalar pieces -----------------------------------------------------
    def _phi2(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi2, dphi2/dr) inside the cutoff (vectorized)."""
        s = self.sigma
        rr = r / s
        core = self.A * self.epsilon * (self.B * rr ** (-self.p) - rr ** (-self.q))
        dcore = (
            self.A
            * self.epsilon
            * (-self.p * self.B * rr ** (-self.p - 1) + self.q * rr ** (-self.q - 1))
            / s
        )
        expo = np.exp(s / (r - self.a * s))
        dexpo = -s / (r - self.a * s) ** 2 * expo
        return core * expo, dcore * expo + core * dexpo

    def _g(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Three-body radial factor (g, dg/dr) inside the cutoff."""
        gs = self.gamma * self.sigma
        g = np.exp(gs / (r - self.a * self.sigma))
        dg = -gs / (r - self.a * self.sigma) ** 2 * g
        return g, dg

    # -- triplet enumeration ------------------------------------------------
    @staticmethod
    def _triplets(first: np.ndarray, neigh: np.ndarray, nlocal: int):
        """All (center, j, k) with j before k in each center's CSR row."""
        counts = (first[1:] - first[:-1]).astype(np.intp)
        n_tri_per = counts * (counts - 1) // 2
        total = int(n_tri_per.sum())
        if total == 0:
            e = np.empty(0, dtype=np.intp)
            return e, e, e
        centers = np.repeat(np.arange(nlocal, dtype=np.intp), n_tri_per)
        # Local triplet index within each center's row:
        t_local = np.arange(total) - np.repeat(
            np.concatenate(([0], np.cumsum(n_tri_per)[:-1])), n_tri_per
        )
        # Map t_local -> (row_j, row_k) with row_j < row_k for row size n:
        n = counts[centers].astype(float)
        # row_j is the largest jj with jj*(n-1) - jj*(jj-1)/2 <= t_local
        jj = np.floor(
            (2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * t_local)) / 2
        ).astype(np.intp)
        offset = jj * (2 * counts[centers] - jj - 1) // 2
        kk = (t_local - offset + jj + 1).astype(np.intp)
        base = first[centers]
        return centers, neigh[base + jj], neigh[base + kk]

    # -- kernel ----------------------------------------------------------------
    def compute(
        self,
        atoms: Atoms,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        half_list: bool = True,
    ) -> ForceResult:
        """Two-body + three-body forces; requires a full (directed) list."""
        if half_list:
            raise ValueError("Stillinger-Weber requires a full neighbor list")
        x = atoms.x
        f = atoms.f
        nlocal = atoms.nlocal
        cut = self.cutoff

        # Restrict the (skin-padded) list to the true cutoff.
        if pair_i.size:
            d_all = x[pair_i] - x[pair_j]
            r2 = np.einsum("ij,ij->i", d_all, d_all)
            keep = r2 < cut * cut
            pi, pj = pair_i[keep], pair_j[keep]
            d2 = d_all[keep]
            r = np.sqrt(r2[keep])
        else:
            pi = pj = np.empty(0, dtype=np.intp)
            d2 = np.empty((0, 3))
            r = np.empty(0)

        energy = 0.0
        virial = 0.0

        # --- two-body (directed: each undirected pair visited twice) ---
        if r.size:
            e2, de2 = self._phi2(r)
            # f_i = -dphi2/dr * (x_i - x_j)/r; only i receives — the rank
            # owning j computes the mirror visit, halving energy/virial.
            scatter_add_vec(f, pi, (-de2 / r)[:, None] * d2)
            energy += 0.5 * float(e2.sum())
            virial += 0.5 * float((-de2 * r).sum())

        # --- three-body -----------------------------------------------------
        # CSR over the cutoff-restricted directed list.
        order = np.argsort(pi, kind="stable")
        pi_s, pj_s = pi[order], pj[order]
        first = np.searchsorted(pi_s, np.arange(nlocal + 1))
        centers, j_idx, k_idx = self._triplets(first, pj_s, nlocal)
        if centers.size:
            dij = x[j_idx] - x[centers]
            dik = x[k_idx] - x[centers]
            rij = np.sqrt(np.einsum("ij,ij->i", dij, dij))
            rik = np.sqrt(np.einsum("ij,ij->i", dik, dik))
            u = np.einsum("ij,ij->i", dij, dik) / (rij * rik)
            du = u - self.cos_theta0
            gij, dgij = self._g(rij)
            gik, dgik = self._g(rik)
            lam_eps = self.lam * self.epsilon

            e3 = lam_eps * du * du * gij * gik
            energy += float(e3.sum())

            # Gradients of u w.r.t. x_j and x_k:
            du_dxj = dik / (rij * rik)[:, None] - (u / rij**2)[:, None] * dij
            du_dxk = dij / (rij * rik)[:, None] - (u / rik**2)[:, None] * dik

            pref = (2.0 * lam_eps * du * gij * gik)[:, None]
            fj = -(pref * du_dxj + (lam_eps * du * du * dgij * gik / rij)[:, None] * dij)
            fk = -(pref * du_dxk + (lam_eps * du * du * gij * dgik / rik)[:, None] * dik)
            fi = -(fj + fk)

            scatter_add_vec(f, centers, fi)
            scatter_add_vec(f, j_idx, fj)  # may land on ghosts -> reverse
            scatter_add_vec(f, k_idx, fk)
            virial += float(np.einsum("ij,ij->", dij, fj))
            virial += float(np.einsum("ij,ij->", dik, fk))

        return ForceResult(
            energy=energy,
            virial=virial,
            extra={"triplets": int(centers.size)},
        )
