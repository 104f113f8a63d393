"""Neighbor lists: one pair order, two vectorized candidate searches.

LAMMPS builds Verlet lists over local + ghost atoms with an extended
cutoff ``r_comm = cutoff + skin`` and rebuilds them either on a fixed
cadence (``neigh_modify every N check no``, the LJ benchmark) or when any
atom has moved more than half the skin (``check yes``, the EAM benchmark
— the variant whose global allreduce dominates "Other" in Table 3).

Two list flavors (paper section 4.4):

* **half** — each pair appears once; forces are applied to both partners
  (Newton's 3rd law).  For local-local pairs the rule is ``i < j``.  For
  local-ghost pairs the rule depends on how ghosts were communicated:

  - ``ghost_rule="all"`` — the p2p pattern's half shell: ghosts only
    arrive from the 13 plus-side neighbors, so every local-ghost pair is
    owned by exactly one rank already and all of them are kept.
  - ``ghost_rule="coord"`` — the 3-stage pattern's full shell: both ranks
    see the pair, so the conventional coordinate tie-break keeps it only
    where the ghost is lexicographically above in (z, y, x).

* **full** — each local atom lists *all* its neighbors (Tersoff/DeePMD
  style); communication must then supply the full 26-neighbor shell.

**The pair order** — *the* order of every pair list in this repository,
half or full, whatever search produced it: ascending in the single key
``((j - i) mod n) * n + i``, i.e. diagonal by diagonal of the ``(i, j)``
matrix, ``i`` ascending within a diagonal.  The order is part of the
result, because every force kernel accumulates in list order (``F`` is
bit-identical between patterns, planes and tile groupings only because
they all see one order); owning it here makes any later search a drop-in.
Why diagonal and not ``(i, j)``: within a diagonal both ``i`` and ``j``
are strictly ascending, so neither index ever repeats in consecutive
pairs, and ``np.bincount`` — the scatter of every kernel — does not
stall on a chain of read-modify-writes of one accumulator row.  Measured,
19 k pairs over 1477 rows (a rank of ``lj-bulk-8r``): ``bincount(pair_i)``
52.6 us sorted by ``(i, j)``, 38.3 us in the order the 27-offset search
used to emit, 24.6 us on the diagonal order (``pair_j`` 24.9 us);
``docs/performance.md`` § *Neigh* has the table.

**The searches** — ``build_pairs`` picks one from ``nlocal * n`` alone
(:data:`ALL_PAIRS_CELLS`):

* *all pairs* (:func:`_all_pairs`) — the ``nlocal x n`` distance matrix
  in one pass.  At the strong-scaling limit (32 locals, ~350 rows) binning
  costs more than looking at every row.
* *half-width cells* (:func:`_cell_pairs`) — cells at least
  ``cutoff / 2`` wide, reach ``ceil(cutoff / edge)`` (= 2) cells per
  axis.  The searched volume over the cutoff sphere is ``(3 edge)^3`` for
  cutoff-wide cells and ``(5 edge)^3`` here — at best 6.4 against 3.7,
  and ``span // width`` rounds the cell *up*, which costs the wide cell
  more: on a rank of ``lj-bulk-8r`` (span 13.8, ``r_comm`` 2.8) the edges
  come out 3.45 and 1.53, the ratios 13.0 and 5.1.  Cells that are
  neighbours along z are adjacent in the cell-sorted order, so a local
  atom's candidates are one contiguous run per (x, y) cell column — 25
  runs, not 125 — and distances are taken in cell-sorted space, where
  those runs are contiguous reads.

Both are NumPy end to end — no Python-level loop over atoms — and both
evaluate ``r^2`` in ``kernels.r2_from_deltas``' association, so the pair
*set* is the one every earlier builder (``tests/md/_reference_kernels``)
returns, bit for bit at the cutoff.

**Non-finite positions** are an error (LAMMPS' *Non-numeric atom
coords*): a ``NaN`` or ``inf`` row would otherwise silently empty or thin
the list and the run would carry on with zero forces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.kernels import pair_deltas, r2_from_deltas

#: ``build_pairs`` looks at all ``nlocal * n`` entries of the (local, any)
#: distance matrix up to this many, and bins into half-width cells above.
#: A constant, not a setting: both searches return the same list (the
#: order contract), so the choice is speed only, and it reads nothing but
#: the input's size.  Measured ms per rank (best of 15, LJ at r_comm 2.8,
#: ranks of live runs; 27-offset search this replaced / all pairs /
#: half-width cells): 12.6 k entries (32 x 394, ``lj-strong-27r``) 0.31 /
#: 0.11 / 0.28, 21 k (3-stage's full shell) 0.46 / 0.25 / 0.44, 73 k 1.29 /
#: 0.64 / 0.71, 119 k 2.22 / 1.22 / 1.10, 147 k 1.62 / 1.36 / 1.14, 275 k
#: 2.50 / 2.59 / 1.63, 432 k 3.72 / 4.17 / 2.43, 809 k (500 x 1618,
#: ``lj-bulk-8r``) 7.20 / 7.52 / 3.48, 2 M (one rank of 864) 9.3 / 23.2 /
#: 5.8 — the two cross between 73 k and 119 k.
ALL_PAIRS_CELLS = 1 << 17


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


def _all_pairs(
    xT: np.ndarray, nlocal: int, cutoff: float, half: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Every (local, any) pair closer than ``cutoff``: one distance matrix.

    Half lists keep ``i < j`` — ghosts sit above every local index, so
    that also admits every local-ghost pair.
    """
    n = xT.shape[1]
    d = np.empty((4, nlocal, n))
    for k in range(3):
        np.subtract(xT[k, :nlocal, None], xT[k][None, :], out=d[k])
    r2 = np.empty((nlocal, n))
    r2_from_deltas(d, r2, d[3])
    near = r2 < cutoff * cutoff
    square = near[:, :nlocal]
    if half:
        square &= np.tri(nlocal, k=-1, dtype=bool).T  # j > i only
    else:
        np.fill_diagonal(square, False)
    return np.divmod(np.flatnonzero(near), n)


def _cell_candidates(
    xT: np.ndarray, nlocal: int, cutoff: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Candidate pairs of the half-width-cell search, in cell-sorted space.

    Returns ``(order, xsT, src, cand)``: ``order`` sorts the atoms by cell
    (z fastest), ``xsT = xT[:, order]``, and ``(src[p], cand[p])`` are
    positions in that order — every local atom against every atom within
    ``reach`` cells of its own on each axis, itself included.
    """
    n = xT.shape[1]
    lo = xT.min(axis=1) - 1e-9
    span = np.maximum(xT.max(axis=1) + 1e-9 - lo, 1e-12)
    ncell = np.maximum(span // (0.5 * cutoff), 1.0)
    crowd = ncell.prod() / (4.0 * n)
    if crowd > 1.0:
        # a cutoff far below the mean spacing: keep the cell table O(n)
        # (wider cells are still exact, the reach below follows the edge)
        ncell = np.maximum(np.floor(ncell / np.cbrt(crowd)), 1.0)
    ncell = ncell.astype(np.intp)
    edge = span / ncell
    reach = np.minimum(np.ceil(cutoff / edge).astype(np.intp), ncell - 1)
    nx, ny, nz = ncell.tolist()

    cell3 = ((xT - lo[:, None]) // edge[:, None]).astype(np.intp)
    np.minimum(cell3, (ncell - 1)[:, None], out=cell3)
    cell_id = (cell3[0] * ny + cell3[1]) * nz + cell3[2]
    order = np.argsort(cell_id, kind="stable")
    # left edge of cell k in the sorted order is bounds[k], right edge bounds[k + 1]
    bounds = np.searchsorted(np.take(cell_id, order), np.arange(nx * ny * nz + 1))
    xsT = np.take(xT, order, axis=1)

    # One run of the sorted order per (local atom, x offset, y offset): the
    # cells cz - reach .. cz + reach of one (x, y) column are adjacent.
    local = np.flatnonzero(order < nlocal)
    cx, cy, cz = np.take(cell3, np.take(order, local), axis=1)
    colx = cx[:, None, None] + np.arange(-reach[0], reach[0] + 1)[None, :, None]
    coly = cy[:, None, None] + np.arange(-reach[1], reach[1] + 1)[None, None, :]
    in_grid = ((colx >= 0) & (colx < nx)) & ((coly >= 0) & (coly < ny))
    runs = np.flatnonzero(in_grid)
    at = runs // in_grid[0].size
    column = np.take(((colx * ny + coly) * nz).ravel(), runs)
    starts = np.take(bounds, column + np.take(np.maximum(cz - reach[2], 0), at))
    ends = np.take(bounds, column + np.take(np.minimum(cz + reach[2], nz - 1) + 1, at))
    counts = ends - starts
    filled = np.flatnonzero(counts)
    counts = np.take(counts, filled)
    src = np.repeat(np.take(local, np.take(at, filled)), counts)
    cand = _ranges_to_indices(np.take(starts, filled), counts)
    return order, xsT, src, cand


def _cell_pairs(
    xT: np.ndarray, nlocal: int, cutoff: float, half: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Every (local, any) pair closer than ``cutoff``, through half-width cells.

    Distances are taken in cell-sorted space; ``order`` maps only the
    pairs inside the cutoff back to atom indices, where the self pairs go
    and a half list keeps ``i < j`` (which admits every local-ghost pair).
    """
    order, xsT, src, cand = _cell_candidates(xT, nlocal, cutoff)
    d = np.empty((4, src.shape[0]))
    pair_deltas(xsT, src, cand, d)
    r2 = np.empty(src.shape[0])
    r2_from_deltas(d, r2, d[3])
    near = np.flatnonzero(r2 < cutoff * cutoff)
    i = np.take(order, np.take(src, near))
    j = np.take(order, np.take(cand, near))
    keep = np.flatnonzero(i < j if half else i != j)
    return np.take(i, keep), np.take(j, keep)


def _ghost_above(xT: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The ``coord`` tie-break: is ``x_j`` above ``x_i`` in (z, y, x) order?

    The sign of a float difference is the sign of the comparison, so the
    first of dz, dy, dx that is not zero decides.
    """
    d = np.empty((4, i.shape[0]))
    pair_deltas(xT, i, j, d)
    dx, dy, dz = d[0], d[1], d[2]
    return (dz < 0) | ((dz == 0) & ((dy < 0) | ((dy == 0) & (dx < 0))))


def _build(
    search, x: np.ndarray, nlocal: int, cutoff: float, half: bool, ghost_rule: str
) -> tuple[np.ndarray, np.ndarray]:
    """``build_pairs`` with the candidate search given: validation, the
    search, the ``coord`` tie-break, the order contract."""
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
    finite = np.isfinite(x)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        kind = "local" if row < nlocal else "ghost"
        raise ValueError(f"non-finite position {x[row]} in row {row} ({kind} atom)")
    xT = np.ascontiguousarray(x.T)

    i, j = search(xT, nlocal, cutoff, half)
    if half and ghost_rule == "coord":
        ghost = np.flatnonzero(j >= nlocal)
        keep = np.ones(i.shape[0], dtype=bool)
        keep[ghost] = _ghost_above(xT, i[ghost], j[ghost])
        i, j = i[keep], j[keep]
    # the order contract: ascending ((j - i) mod n, i)
    key = (j - i) % n * n + i
    key.sort()
    diagonal, i = np.divmod(key, n)
    return i, (i + diagonal) % n


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
    (i, j) and (j, i) appear for local-local pairs.  The list comes back
    in the module's pair order.  Raises ``ValueError`` on a non-finite
    position.
    """
    x = np.asarray(x, dtype=float)
    search = _all_pairs if nlocal * x.shape[0] <= ALL_PAIRS_CELLS else _cell_pairs
    return _build(search, x, nlocal, cutoff, half, ghost_rule)


def build_pairs_bruteforce(
    x: np.ndarray,
    nlocal: int,
    cutoff: float,
    half: bool = True,
    ghost_rule: str = "all",
) -> tuple[np.ndarray, np.ndarray]:
    """O(N^2) reference implementation for testing the binned builder."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    ii, jj = np.meshgrid(np.arange(nlocal), np.arange(n), indexing="ij")
    i, j = ii.ravel(), jj.ravel()
    keep = i != j
    i, j = i[keep], j[keep]
    d = x[i] - x[j]
    keep = np.einsum("ij,ij->i", d, d) < cutoff * cutoff
    i, j = i[keep], j[keep]
    if not half:
        return i.astype(np.intp), j.astype(np.intp)
    j_local = j < nlocal
    keep_local = j_local & (i < j)
    if ghost_rule == "all":
        keep_ghost = ~j_local
    else:
        xi, xj = x[i], x[j]
        gz = xj[:, 2] > xi[:, 2]
        ez = xj[:, 2] == xi[:, 2]
        gy = xj[:, 1] > xi[:, 1]
        ey = xj[:, 1] == xi[:, 1]
        gx = xj[:, 0] > xi[:, 0]
        keep_ghost = ~j_local & (gz | (ez & (gy | (ey & gx))))
    keep = keep_local | keep_ghost
    return i[keep].astype(np.intp), j[keep].astype(np.intp)


@dataclass
class NeighborSettings:
    """Rebuild policy (the ``neigh_modify`` of Table 2)."""

    cutoff: float
    skin: float
    every: int = 20
    check: bool = False
    half: bool = True
    ghost_rule: str = "all"

    @property
    def r_comm(self) -> float:
        """Communication cutoff: force cutoff plus skin."""
        return self.cutoff + self.skin


class NeighborList:
    """A Verlet pair list with displacement-triggered rebuild support."""

    def __init__(self, settings: NeighborSettings) -> None:
        self.settings = settings
        self.pair_i = np.empty(0, dtype=np.intp)
        self.pair_j = np.empty(0, dtype=np.intp)
        self._x_at_build: np.ndarray | None = None
        self.builds = 0

    def build(self, x: np.ndarray, nlocal: int) -> None:
        """(Re)build the pair list over local+ghost positions ``x``."""
        s = self.settings
        self.pair_i, self.pair_j = build_pairs(
            x, nlocal, s.r_comm, half=s.half, ghost_rule=s.ghost_rule
        )
        self._x_at_build = np.array(x[:nlocal], copy=True)
        self.builds += 1

    @property
    def n_pairs(self) -> int:
        return int(self.pair_i.shape[0])

    def max_displacement_sq(self, x_local: np.ndarray) -> float:
        """Largest squared displacement of a local atom since last build."""
        if self._x_at_build is None:
            return float("inf")
        ref = self._x_at_build
        if x_local.shape[0] != ref.shape[0]:
            # Atom migration changed the local set; force a rebuild.
            return float("inf")
        d = x_local - ref
        return float(np.einsum("ij,ij->i", d, d).max(initial=0.0))

    def needs_rebuild(self, x_local: np.ndarray) -> bool:
        """LAMMPS ``check yes`` criterion: moved beyond half the skin."""
        half_skin = 0.5 * self.settings.skin
        return self.max_displacement_sq(x_local) > half_skin * half_skin

    def per_atom(self, nlocal: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR view of the list: ``(firstneigh, neighbors)``.

        ``neighbors[firstneigh[i]:firstneigh[i+1]]`` are atom ``i``'s
        partners — LAMMPS' per-atom representation, which downstream
        analysis (coordination numbers, bond-order parameters, custom
        potentials) expects.  Rows are sorted by ``i``; within a row the
        neighbors keep the list's pair order, i.e. ``(j - i) mod n``
        ascending: ``j`` upwards from ``i + 1``, then round from 0.
        """
        order = np.argsort(self.pair_i, kind="stable")
        sorted_i = self.pair_i[order]
        firstneigh = np.searchsorted(sorted_i, np.arange(nlocal + 1))
        return firstneigh.astype(np.intp), self.pair_j[order]

    def coordination(self, nlocal: int) -> np.ndarray:
        """Neighbor count per local atom (full coordination only when
        this is a full list; a half list counts each pair once)."""
        counts = np.bincount(self.pair_i, minlength=nlocal)[:nlocal]
        if self.settings.half:
            counts = counts + np.bincount(
                self.pair_j[self.pair_j < nlocal], minlength=nlocal
            )[:nlocal]
        return counts
