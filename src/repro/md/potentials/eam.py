"""Embedded-atom method potential (paper Eq. 2, Table 2 EAM column).

``U = sum_i F(rho_i) + 1/2 sum_{i != j} phi(r_ij)``, with
``rho_i = sum_j rho(r_ij)``.

The evaluation is the two-pass structure whose *communication* the paper
cares about (section 4.1): with Newton's law and a half list, pass 1
accumulates density onto both partners (including ghosts), a **reverse
sum** merges ghost densities into owners, embedding derivatives
``fp = F'(rho)`` are computed for owned atoms, a **forward broadcast**
copies fp onto ghosts, and pass 2 evaluates pair forces that need
``fp_i + fp_j``.  Those are exactly the "two additional communications
during the pair stage" the paper optimizes.  Densities and forces sum in
list order — :mod:`repro.md.neighbor`'s pair order — and pass 1 hands
pass 2 its compacted pairs (``own=True`` scratch) in that same order.

The paper's benchmark uses the tabulated ``Cu_u3.eam`` (Foiles-Daw-Adams)
file shipped with LAMMPS, which we cannot redistribute; as documented in
DESIGN.md we substitute the Sutton-Chen copper parameterization — an
analytic EAM with the same evaluation structure and a comparable cutoff
(Table 2: 4.95 A) — and also exercise LAMMPS' tabulated-spline machinery
by building cubic-spline tables from the analytic forms
(:func:`make_cu_like_eam`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.md.atoms import Atoms
from repro.md.kernels import scatter_add_scalar, scatter_pair_forces
from repro.md.pairtiles import PairTile, as_tile
from repro.md.potentials.base import ForceResult, PairPotential


def _smoothstep_cut(r_inner: float, r_cut: float):
    """C1 switching function S(r): 1 below ``r_inner``, 0 above ``r_cut``.

    Returns ``(S, dS)`` vectorized callables.
    """
    if not 0.0 < r_inner < r_cut:
        raise ValueError(f"need 0 < r_inner < r_cut, got {r_inner}, {r_cut}")
    width = r_cut - r_inner

    def s(r: np.ndarray) -> np.ndarray:
        x = np.clip((np.asarray(r, dtype=float) - r_inner) / width, 0.0, 1.0)
        return 1.0 - x * x * (3.0 - 2.0 * x)

    def ds(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        x = np.clip((r - r_inner) / width, 0.0, 1.0)
        out = -6.0 * x * (1.0 - x) / width
        return out

    return s, ds


class EAMPotential(PairPotential):
    """EAM from callables ``phi, dphi, rho, drho, F, dF`` (all vectorized).

    The callables must already include cutoff smoothing — ``phi`` and
    ``rho`` must vanish at ``cutoff``.
    """

    rank_tiled = True
    #: the tiles' per-row buffers (``PairTile.row_scratch``) the driver's
    #: two mid-pair exchange phases run over
    density_rows = "eam.density"
    fp_rows = "eam.fp"

    def __init__(
        self,
        phi: Callable,
        dphi: Callable,
        rho: Callable,
        drho: Callable,
        embed: Callable,
        dembed: Callable,
        cutoff: float,
    ) -> None:
        if cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        self.phi, self.dphi = phi, dphi
        self.rho, self.drho = rho, drho
        self.embed, self.dembed = embed, dembed
        self.cutoff = cutoff

    # ------------------------------------------------------------------
    # Phased API: the multi-rank driver interleaves world-level ghost
    # communication between these passes (reverse-sum density after
    # pass 1, forward fp after the embedding pass).
    # ------------------------------------------------------------------
    def density_pass(
        self,
        atoms: Atoms | PairTile,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        half_list: bool = True,
    ) -> dict:
        """Pass 1: accumulate electron density; returns the scratch dict.

        ``scratch['density']`` has one entry per atom (local then ghost,
        rank after rank for a tile); with a half list, ghost entries hold
        this rank's contributions to remote atoms and must be
        reverse-summed to owners before the embedding pass.  The
        compacted pairs (``i``, ``j``, ``d`` as ``(3, P)``, ``r``) stay in
        the tile's own range of the workspace until its ``force_pass``;
        ``bounds`` delimits each rank's run in them.
        """
        tile = as_tile(atoms, pair_i, pair_j)
        # own=True: the compacted pairs outlive the other tiles' passes
        keep, i, j, d, r = tile.pairs_inside(
            pair_i, pair_j, self.cutoff * self.cutoff, own=True
        )
        np.sqrt(r, out=r)
        n = keep.shape[0]

        density = tile.row_scratch(self.density_rows)
        density[...] = 0.0
        if n:
            rho_r = self.rho(r)
            scatter_add_scalar(density, i, rho_r)
            if half_list:
                scatter_add_scalar(density, j, rho_r)
        return {
            "tile": tile,
            "i": i,
            "j": j,
            "d": d,
            "r": r,
            "density": density,
            "half": half_list,
            "bounds": np.searchsorted(keep, tile.pair_bounds),
        }

    def embedding_pass(self, atoms: Atoms | PairTile, scratch: dict) -> float:
        """Embedding energies and derivatives from the complete density.

        Fills ``scratch['fp']`` for owned atoms (ghost entries zero until
        the driver forwards them) and returns the embedding energy; the
        per-rank energies go to ``scratch['embedding_energy']``.  Works
        on the tile ``density_pass`` recorded in ``scratch``.
        """
        tile: PairTile = scratch["tile"]
        rows = tile.local_rows
        rho_local = np.take(scratch["density"], rows, mode="clip")
        np.maximum(rho_local, 0.0, out=rho_local)
        e_embed = tile.rank_sums(self.embed(rho_local), tile.local_bounds)
        fp = tile.row_scratch(self.fp_rows)
        fp[...] = 0.0
        fp[rows] = self.dembed(rho_local)
        scratch["fp"] = fp
        scratch["embedding_energy"] = e_embed
        return float(e_embed.sum())

    def force_pass(self, atoms: Atoms | PairTile, scratch: dict) -> ForceResult:
        """Pass 2: pair forces with the embedding chain rule."""
        tile: PairTile = scratch["tile"]
        i, j, d, r = scratch["i"], scratch["j"], scratch["d"], scratch["r"]
        fp = scratch["fp"]
        half_list = scratch["half"]
        e_embed = scratch["embedding_energy"]
        n = r.shape[0]

        energy_pair = np.zeros(len(tile.ranks))
        virial = np.zeros(len(tile.ranks))
        if n:
            # du = dphi + (fp_i + fp_j) drho;  f_i += (-du / r) (x_i - x_j)
            fpair, tmp = tile.scratch("work", n, lead=4)[:2]
            np.take(fp, i, out=fpair, mode="clip")
            np.take(fp, j, out=tmp, mode="clip")
            np.add(fpair, tmp, out=fpair)
            np.multiply(fpair, self.drho(r), out=fpair)
            np.add(self.dphi(r), fpair, out=fpair)
            np.negative(fpair, out=fpair)
            np.divide(fpair, r, out=fpair)
            scatter_pair_forces(tile.f, i, j, fpair, d, tmp, half_list)
            w = np.multiply(fpair, r, out=tmp)
            np.multiply(w, r, out=w)
            # A directed list visits each pair twice (once per endpoint).
            scale = 1.0 if half_list else 0.5
            bounds = scratch["bounds"]
            energy_pair = scale * tile.rank_sums(self.phi(r), bounds)
            virial = scale * tile.rank_sums(w, bounds)

        energy = energy_pair + e_embed
        if tile is not atoms:  # one rank's Atoms: plain floats
            energy, virial, e_embed = float(energy[0]), float(virial[0]), float(e_embed[0])
        return ForceResult(
            energy=energy,
            virial=virial,
            comm_calls=2 if half_list else 1,
            extra={"embedding_energy": e_embed},
        )

    def compute(
        self,
        atoms: Atoms | PairTile,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        half_list: bool = True,
    ) -> ForceResult:
        """All three passes back to back: complete on one rank, where
        ghosts are same-rank periodic images whose contributions were
        already accumulated locally."""
        scratch = self.density_pass(atoms, pair_i, pair_j, half_list)
        self.embedding_pass(atoms, scratch)
        return self.force_pass(atoms, scratch)


class SuttonChenEAM(EAMPotential):
    """Analytic Sutton-Chen EAM (Cu defaults), C1-smoothed to the cutoff.

    ``phi(r) = eps (a/r)^n``, ``rho(r) = (a/r)^m``,
    ``F(rho) = -eps c sqrt(rho)``.  Copper: n=9, m=6, c=39.432,
    eps=1.2382e-2 eV, a=3.615 A (Sutton & Chen 1990).
    """

    def __init__(
        self,
        epsilon: float = 1.2382e-2,
        a: float = 3.615,
        c: float = 39.432,
        n: int = 9,
        m: int = 6,
        cutoff: float = 4.95,
        smooth_fraction: float = 0.85,
    ) -> None:
        s, ds = _smoothstep_cut(smooth_fraction * cutoff, cutoff)

        def phi(r):
            return epsilon * (a / r) ** n * s(r)

        def dphi(r):
            core = epsilon * (a / r) ** n
            return -n * core / r * s(r) + core * ds(r)

        def rho(r):
            return (a / r) ** m * s(r)

        def drho(r):
            core = (a / r) ** m
            return -m * core / r * s(r) + core * ds(r)

        def embed(rho_bar):
            return -epsilon * c * np.sqrt(np.maximum(rho_bar, 0.0))

        def dembed(rho_bar):
            rb = np.maximum(rho_bar, 1e-30)
            return -0.5 * epsilon * c / np.sqrt(rb)

        super().__init__(phi, dphi, rho, drho, embed, dembed, cutoff)
        self.epsilon, self.a, self.c, self.n, self.m = epsilon, a, c, n, m


def make_cu_like_eam(
    cutoff: float = 4.95,
    n_r: int = 2000,
    n_rho: int = 2000,
) -> EAMPotential:
    """Tabulated copper-like EAM via cubic splines (funcfl-style).

    Samples the analytic Sutton-Chen forms onto dense tables and
    interpolates with natural cubic splines, mirroring how LAMMPS
    evaluates ``Cu_u3.eam``.  Agreement with the analytic potential is
    verified in tests to < 1e-8 relative.
    """
    # The only SciPy user in the engine: imported here so ``import repro``
    # does not pay for it.
    from scipy.interpolate import CubicSpline

    ref = SuttonChenEAM(cutoff=cutoff)
    r_min = 0.5  # well below any physical separation
    r = np.linspace(r_min, cutoff, n_r)
    phi_s = CubicSpline(r, ref.phi(r))
    rho_s = CubicSpline(r, ref.rho(r))

    # Density range: generous upper bound (~12 neighbors at ~0.7 a).
    rho_max = 16.0 * float(ref.rho(np.array([0.7 * ref.a]))[0] + 1.0)
    rho_grid = np.linspace(0.0, rho_max, n_rho)
    embed_s = CubicSpline(rho_grid, ref.embed(rho_grid))

    dphi_s = phi_s.derivative()
    drho_s = rho_s.derivative()
    dembed_s = embed_s.derivative()

    def clamp_r(fn):
        def wrapped(x):
            x = np.clip(np.asarray(x, dtype=float), r_min, cutoff)
            return fn(x)

        return wrapped

    def clamp_rho(fn):
        def wrapped(x):
            x = np.clip(np.asarray(x, dtype=float), 0.0, rho_max)
            return fn(x)

        return wrapped

    return EAMPotential(
        phi=clamp_r(phi_s),
        dphi=clamp_r(dphi_s),
        rho=clamp_r(rho_s),
        drho=clamp_r(drho_s),
        embed=clamp_rho(embed_s),
        dembed=clamp_rho(dembed_s),
        cutoff=cutoff,
    )
