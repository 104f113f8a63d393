"""Oracles: the per-rank MD kernels as they stood before the tile rewrite.

Verbatim copies (only ``self`` renamed to ``pot`` and methods turned into
module functions) of ``LennardJones.compute``, the three
``EAMPotential`` passes, ``neighbor.build_pairs``, the scatter helpers
they used and the per-rank Pair loop of ``Simulation._compute_forces``,
taken from the parent of the commit that introduced whole-rank Pair
tiles.  They exist so ``test_pair_tiles.py`` can assert the engine's
gather-friendly kernels are *bit-identical* to the straightforward NumPy
spelling — forces, per-rank energy/virial, EAM density/fp — and that
``neighbor.build_pairs`` returns the frozen search's pair *set*: the
order of a pair list is ``repro.md.neighbor``'s contract now, and
``in_contract_order`` (the one addition here) puts a list in it.  Nothing under ``src/`` may import this.

The oracle pins ``np.einsum("ij,ij->i", d, d)`` as the squared-distance
association, which this NumPy evaluates as ``(x*x + z*z) + y*y``.  If a
NumPy release changes einsum's association, update *this file* (and
``kernels.r2_from_delta`` with it, deliberately) — not the engine alone.
"""

from __future__ import annotations

import numpy as np

from repro.md.atoms import Atoms
from repro.md.potentials.base import ForceResult


# -- repro.md.kernels (scatter helpers) ------------------------------------
def scatter_signed_vec(
    out: np.ndarray, idx: np.ndarray, vec: np.ndarray, sign: int
) -> None:
    """``out[idx] += sign * vec`` for (N, 3) arrays, bincount-accelerated.

    The one signed reduction both force kernels and the communication
    unpack path share; ``sign`` must be ``+1`` or ``-1``.  The add and
    subtract branches are kept literal (``+=`` / ``-=``) so results stay
    bit-identical to accumulating the un-negated weights directly.
    """
    if idx.size == 0:
        return
    n = out.shape[0]
    if sign >= 0:
        for k in range(out.shape[1]):
            out[:, k] += np.bincount(idx, weights=vec[:, k], minlength=n)
    else:
        for k in range(out.shape[1]):
            out[:, k] -= np.bincount(idx, weights=vec[:, k], minlength=n)


def scatter_add_vec(out: np.ndarray, idx: np.ndarray, vec: np.ndarray) -> None:
    """``out[idx] += vec`` for (N, 3) arrays, bincount-accelerated."""
    scatter_signed_vec(out, idx, vec, 1)


def scatter_sub_vec(out: np.ndarray, idx: np.ndarray, vec: np.ndarray) -> None:
    """``out[idx] -= vec`` for (N, 3) arrays."""
    scatter_signed_vec(out, idx, vec, -1)


def scatter_add_scalar(out: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``out[idx] += values`` for 1-D arrays (EAM density accumulation)."""
    if idx.size == 0:
        return
    out += np.bincount(idx, weights=values, minlength=out.shape[0])


# -- LennardJones.compute --------------------------------------------------
def lj_compute(
    pot,
    atoms: Atoms,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    comm: object | None = None,
    half_list: bool = True,
) -> ForceResult:
    """Vectorized LJ force/energy/virial over the pair list."""
    x = atoms.x
    f = atoms.f
    if pair_i.size == 0:
        return ForceResult()

    d = x[pair_i] - x[pair_j]
    r2 = np.einsum("ij,ij->i", d, d)

    if pot.n_types == 1:
        eps = pot.epsilon
        sig2 = pot.sigma * pot.sigma
        cut2 = pot.cutoff * pot.cutoff
    else:
        ti = atoms.type[pair_i]
        tj = atoms.type[pair_j]
        eps = pot._eps[ti, tj]
        sig = pot._sig[ti, tj]
        sig2 = sig * sig
        cut = pot._cut[ti, tj]
        cut2 = cut * cut

    mask = r2 < cut2
    i = pair_i[mask]
    j = pair_j[mask]
    d = d[mask]
    r2 = r2[mask]
    if pot.n_types != 1:
        eps = eps[mask]
        sig2 = sig2[mask]

    sr2 = sig2 / r2
    sr6 = sr2 * sr2 * sr2
    fpair = 24.0 * eps * sr6 * (2.0 * sr6 - 1.0) / r2
    fvec = fpair[:, None] * d
    scatter_add_vec(f, i, fvec)
    if half_list:
        scatter_sub_vec(f, j, fvec)

    e_pair = 4.0 * eps * (sr6 * sr6 - sr6)
    virial_pair = fpair * r2  # r . f per pair

    if half_list:
        energy = float(e_pair.sum())
        virial = float(virial_pair.sum())
    else:
        # Directed list visits each pair twice (once per endpoint).
        energy = 0.5 * float(e_pair.sum())
        virial = 0.5 * float(virial_pair.sum())
    return ForceResult(energy=energy, virial=virial)


# -- EAMPotential passes ---------------------------------------------------
def eam_density_pass(
    pot,
    atoms: Atoms,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    half_list: bool = True,
) -> dict:
    """Pass 1: accumulate electron density; returns the scratch dict.

    ``scratch['density']`` has one entry per atom (local then ghost);
    with a half list, ghost entries hold this rank's contributions to
    remote atoms and must be reverse-summed to owners before the
    embedding pass.
    """
    x = atoms.x
    n = atoms.ntotal
    if pair_i.size:
        d = x[pair_i] - x[pair_j]
        r2 = np.einsum("ij,ij->i", d, d)
        mask = r2 < pot.cutoff * pot.cutoff
        i, j, d = pair_i[mask], pair_j[mask], d[mask]
        r = np.sqrt(r2[mask])
    else:
        i = j = np.empty(0, dtype=np.intp)
        d = np.empty((0, 3))
        r = np.empty(0)

    density = np.zeros(n)
    if r.size:
        rho_r = pot.rho(r)
        scatter_add_scalar(density, i, rho_r)
        if half_list:
            scatter_add_scalar(density, j, rho_r)
    return {"i": i, "j": j, "d": d, "r": r, "density": density, "half": half_list}

def eam_embedding_pass(pot, atoms: Atoms, scratch: dict) -> float:
    """Embedding energies and derivatives from the complete density.

    Fills ``scratch['fp']`` for local atoms (ghost entries zero until
    the driver forwards them) and returns the embedding energy.
    """
    nlocal = atoms.nlocal
    rho_local = np.maximum(scratch["density"][:nlocal], 0.0)
    e_embed = float(np.sum(pot.embed(rho_local)))
    fp = np.zeros(atoms.ntotal)
    fp[:nlocal] = pot.dembed(rho_local)
    scratch["fp"] = fp
    scratch["embedding_energy"] = e_embed
    return e_embed

def eam_force_pass(pot, atoms: Atoms, scratch: dict) -> ForceResult:
    """Pass 2: pair forces with the embedding chain rule."""
    f = atoms.f
    i, j, d, r = scratch["i"], scratch["j"], scratch["d"], scratch["r"]
    fp = scratch["fp"]
    half_list = scratch["half"]
    e_embed = scratch["embedding_energy"]

    energy_pair = 0.0
    virial = 0.0
    if r.size:
        dphi_r = pot.dphi(r)
        drho_r = pot.drho(r)
        du = dphi_r + (fp[i] + fp[j]) * drho_r
        fpair = -du / r  # f_i += fpair * (x_i - x_j)
        fvec = fpair[:, None] * d
        scatter_add_vec(f, i, fvec)
        if half_list:
            scatter_sub_vec(f, j, fvec)
        e_p = pot.phi(r)
        w = fpair * r * r
        if half_list:
            energy_pair = float(e_p.sum())
            virial = float(w.sum())
        else:
            energy_pair = 0.5 * float(e_p.sum())
            virial = 0.5 * float(w.sum())

    return ForceResult(
        energy=energy_pair + e_embed,
        virial=virial,
        comm_calls=2 if half_list else 1,
        extra={"embedding_energy": e_embed},
    )


# -- neighbor.build_pairs --------------------------------------------------
def _ranges_to_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], starts[k]+counts[k])`` vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    # Standard trick: offsets where each range begins, then cumulative fix-up.
    ends = np.cumsum(counts)
    out = np.ones(total, dtype=np.intp)
    out[0] = starts[0]
    prev_last = starts[:-1] + counts[:-1] - 1  # last value of each range
    out[ends[:-1]] = starts[1:] - prev_last
    return np.cumsum(out)


def build_pairs(
    x: np.ndarray,
    nlocal: int,
    cutoff: float,
    half: bool = True,
    ghost_rule: str = "all",
) -> tuple[np.ndarray, np.ndarray]:
    """Build neighbor pairs ``(i, j)`` with ``|x_i - x_j| < cutoff``.

    ``i`` is always a local atom (< ``nlocal``); ``j`` ranges over all
    atoms.  With ``half=True`` each pair appears once (see module doc for
    the ghost rules); with ``half=False`` the list is directed — both
    (i, j) and (j, i) appear for local-local pairs.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if nlocal > n:
        raise ValueError(f"nlocal {nlocal} exceeds atom count {n}")
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if ghost_rule not in ("all", "coord"):
        raise ValueError(f"unknown ghost_rule {ghost_rule!r}")
    if nlocal == 0 or n < 2:
        e = np.empty(0, dtype=np.intp)
        return e, e

    # --- binning ----------------------------------------------------------
    lo = x.min(axis=0) - 1e-9
    hi = x.max(axis=0) + 1e-9
    span = np.maximum(hi - lo, 1e-12)
    ncell = np.maximum((span // cutoff).astype(np.intp), 1)
    cell_edge = span / ncell
    cell3 = np.minimum((x - lo) // cell_edge, ncell - 1).astype(np.intp)
    strides = np.array([ncell[1] * ncell[2], ncell[2], 1], dtype=np.intp)
    cell_id = cell3 @ strides
    total_cells = int(ncell.prod())

    order = np.argsort(cell_id, kind="stable")
    sorted_cells = cell_id[order]
    # One searchsorted gives every boundary: left edge of cell k is
    # bounds[k], right edge is bounds[k + 1] (== left edge of k + 1 for
    # integer ids).
    bounds = np.searchsorted(sorted_cells, np.arange(total_cells + 1), side="left")
    cell_start = bounds[:-1]
    cell_end = bounds[1:]

    local_mask_sorted = order < nlocal

    # All 27 stencil offsets processed in one batch.  The flattened
    # (offset, atom) enumeration is offset-major with atoms ascending —
    # exactly the order a per-offset loop would concatenate in, so the
    # resulting pair list (and with it every downstream accumulation
    # order) is unchanged.
    offsets = np.array(
        [
            (ox, oy, oz)
            for ox in (-1, 0, 1)
            for oy in (-1, 0, 1)
            for oz in (-1, 0, 1)
        ],
        dtype=np.intp,
    )
    sorted_cell3 = cell3[order]
    ncell3 = sorted_cell3[None, :, :] + offsets[:, None, :]
    valid = ((ncell3 >= 0) & (ncell3 < ncell)).all(axis=2)
    # Only local atoms originate pairs.
    valid &= local_mask_sorted[None, :]
    flat = np.flatnonzero(valid.ravel())
    if flat.size == 0:
        e = np.empty(0, dtype=np.intp)
        return e, e
    nsorted = sorted_cell3.shape[0]
    src = flat % nsorted
    ncid = ncell3.reshape(-1, 3)[flat] @ strides
    starts = cell_start[ncid]
    counts = cell_end[ncid] - starts
    have = counts > 0
    src = src[have]
    if src.size == 0:
        e = np.empty(0, dtype=np.intp)
        return e, e
    starts = starts[have]
    counts = counts[have]
    i_sorted = np.repeat(src, counts)
    j_sorted = _ranges_to_indices(starts, counts)
    i = order[i_sorted]
    j = order[j_sorted]

    # --- distance + pair rules ---------------------------------------------
    keep = i != j
    i, j = i[keep], j[keep]
    d = x[i] - x[j]
    keep = np.einsum("ij,ij->i", d, d) < cutoff * cutoff
    i, j = i[keep], j[keep]

    if not half:
        return i, j

    j_local = j < nlocal
    keep_local = j_local & (i < j)
    if ghost_rule == "all":
        keep_ghost = ~j_local
    else:
        # Lexicographic (z, y, x) coordinate rule for full-shell ghosts.
        xi, xj = x[i], x[j]
        gz = xj[:, 2] > xi[:, 2]
        ez = xj[:, 2] == xi[:, 2]
        gy = xj[:, 1] > xi[:, 1]
        ey = xj[:, 1] == xi[:, 1]
        gx = xj[:, 0] > xi[:, 0]
        keep_ghost = ~j_local & (gz | (ez & (gy | (ey & gx))))
    keep = keep_local | keep_ghost
    return i[keep], j[keep]


def in_contract_order(i: np.ndarray, j: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A pair list over ``n`` atoms put in the repo's pair order — ascending
    ``((j - i) mod n, i)``, spelled with ``lexsort`` rather than the
    engine's single key."""
    order = np.lexsort((i, (j - i) % n))
    return i[order], j[order]


def build_pairs_in_contract_order(
    x: np.ndarray,
    nlocal: int,
    cutoff: float,
    half: bool = True,
    ghost_rule: str = "all",
) -> tuple[np.ndarray, np.ndarray]:
    """The frozen search's pair set in the repo's pair order."""
    i, j = build_pairs(x, nlocal, cutoff, half=half, ghost_rule=ghost_rule)
    return in_contract_order(i, j, np.shape(x)[0])


# -- Simulation._compute_forces (the per-rank Pair driver) -----------------
def compute_forces_per_rank(sim) -> None:
    """``Simulation._compute_forces`` as it stood: one kernel call per
    rank, with ``pot.compute`` / ``pot.*_pass`` replaced by the oracles
    above (the only edit) — and, since the exchange's scalar phases take
    one world array and the driver keeps one result per tile, its
    per-rank dicts handed over through ``scalar_phase`` and its results
    as single-rank tiles."""
    from repro.md.stages import Stage
    from tests._world_arrays import scalar_phase

    self = sim
    pot = self.potential
    results = {}
    with self.timers.timing(Stage.PAIR):
        for rank in range(self.world.size):
            self.atoms_of(rank).zero_forces()
        if hasattr(pot, "density_pass"):
            scratch = {}
            for rank in range(self.world.size):
                atoms = self.atoms_of(rank)
                nl = self.neigh_of(rank)
                scratch[rank] = eam_density_pass(
                    pot, atoms, nl.pair_i, nl.pair_j, half_list=self.half
                )
            if self.half:
                scalar_phase(
                    self.exchange.reverse_sum_scalar_world,
                    {r: s["density"] for r, s in scratch.items()},
                )
            for rank in range(self.world.size):
                eam_embedding_pass(pot, self.atoms_of(rank), scratch[rank])
            scalar_phase(
                self.exchange.forward_scalar_world, {r: s["fp"] for r, s in scratch.items()}
            )
            for rank in range(self.world.size):
                results[rank] = eam_force_pass(pot, self.atoms_of(rank), scratch[rank])
        else:
            for rank in range(self.world.size):
                atoms = self.atoms_of(rank)
                nl = self.neigh_of(rank)
                results[rank] = lj_compute(
                    pot, atoms, nl.pair_i, nl.pair_j, half_list=self.half
                )
        self._last_results = [((rank,), result) for rank, result in results.items()]
    if self.half or self.potential.force_ghosts:
        # Newton's-law runs always reverse; 3-body full-list kernels
        # (Stillinger-Weber/Tersoff style) also scatter triplet forces
        # onto ghosts and need the same merge (LAMMPS: "pair style sw
        # requires newton pair on").
        with self.timers.timing(Stage.COMM):
            self.exchange.reverse()
