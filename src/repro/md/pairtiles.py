"""Whole-rank Pair tiles: a few big kernel calls instead of one per rank.

At the strong-scaling limit (22-32 atoms per rank) the Pair stage is a
loop of tiny NumPy kernels.  At every reneighbouring the driver freezes
the ranks' pair lists into a few **tiles of consecutive whole ranks**:
flat ``pair_i/pair_j`` (rank-local index + the rank's slab start) over
the rows of the ranks' shared :class:`~repro.md.atoms.AtomArena`.  The
storage is world-flat and a tile is a **window** onto it: ``tile.x`` /
``tile.f`` / ``tile.type`` *are* the arena rows from its first rank's
slab to its last rank's last ghost — nothing is copied in or out, the
headroom rows between slabs ride along untouched by any pair.  Each step
a tile refreshes its ``(3, N)`` transpose and zeroes its force rows
(``load``), the potential runs once over the flat pair list — a tile
exposes the read surface the kernels use on ``Atoms`` (``x``, ``f``,
``type``, ``ntotal``), so it is *the same kernel on a bigger rank* — and
the forces are already where ``Atoms.f`` and the exchange's reverse look
for them.

Bit-identity with a per-rank loop rests on three rules:

* **A rank is never split.**  Every atom row then receives its
  ``i``-contributions followed by its ``j``-contributions in exactly the
  order a per-rank call produces — each rank's list in
  :mod:`repro.md.neighbor`'s pair order, ranks one after the other; rows
  of different ranks are disjoint, so which ranks share a tile changes
  nothing.  (Splitting a rank would re-associate ``((0 + S_i) - S_j)``.)
* **Per-rank tallies are slice sums.**  Energy/virial of rank ``k`` is
  ``values[b[k]:b[k+1]].sum()`` over the contiguous run of that rank's
  compacted pairs — NumPy's pairwise sum over the same values and length
  reproduces the per-rank bits; ``np.add.reduceat`` does not.
* ``F`` is zeroed, then ``+=`` / ``-=`` — the per-rank order, so
  ``-0.0`` never appears where it did not before.

Which ranks share a tile is therefore not behaviour, only speed
(``tests/md/test_pair_tiles.py`` proves it for arbitrary groupings).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import DTypeLike

from repro.md.atoms import AtomArena, Atoms
from repro.md.kernels import pair_deltas, r2_from_deltas
from repro.md.neighbor import NeighborList

#: Close a tile when adding the next rank would exceed this many pairs.
#: A constant, not a setting: grouping is not behaviour (see above), and
#: the scan is flat from here up.  Measured Pair ms/step against the
#: target (best of 3 x 100 steps, the perf ledger's workloads):
#: ``lj-strong-27r`` (27 ranks x ~1.2 k pairs) — 1 (= one rank per tile)
#: 3.26, 4 k 1.91, 8 k 1.61, 16 k 1.43, 32 k 1.30, 64 k 1.27, unbounded
#: 1.25; ``eam-hot-27r`` — 1: 6.78, 8 k 3.44, 32 k 2.90, 64 k 2.71,
#: unbounded 2.82; ``lj-bulk-8r`` (8 ranks x ~19 k pairs, one rank per
#: tile up to 32 k) — 5.0 at every target within noise.  32768 sits on
#: every plateau while keeping a tile's scratch (~11 arrays of 8 B per
#: pair) inside a 4 MiB L2.
TILE_PAIRS = 32768

#: Buffers are allocated this much larger than first asked for: pair and
#: ghost counts drift a few percent between neighbour epochs.
HEADROOM = 1.25


class Workspace:
    """Grow-only named arrays with counted allocations and regrowths.

    ``array(key, shape)`` returns a view of a persistent buffer; the
    buffer is allocated with :data:`HEADROOM` on first use and regrown
    (counted in ``grow_events``) only if a later request exceeds it.
    Tile pair lists are world-flat and kernel scratch is sized independently
    of how ranks are grouped into tiles (see :meth:`PairTile.scratch`),
    so regrouping never moves a buffer: in a steady run ``allocations``
    stops moving after the first neighbour epoch and ``grow_events``
    stays 0.

    Contents do not survive a regrow, and two views of one key alias — a
    key names one use.  The only per-step allocations the tile kernels
    still make are the ones NumPy offers no ``out=`` for
    (``np.flatnonzero``, ``np.bincount``), the ``searchsorted`` of the
    per-rank bounds, and whatever an EAM potential's user-supplied
    callables allocate.
    """

    def __init__(self) -> None:
        self._buffers: dict[Hashable, np.ndarray] = {}
        self.allocations = 0
        self.grow_events = 0

    def array(
        self, key: Hashable, shape: int | tuple[int, ...], dtype: DTypeLike = np.float64
    ) -> np.ndarray:
        """A ``shape``-d view of the buffer named ``key`` (uninitialised)."""
        size = shape if isinstance(shape, int) else math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            self.allocations += 1
            if buf is not None:
                self.grow_events += 1
            buf = np.empty(int(size * HEADROOM) + 8, dtype=dtype)
            self._buffers[key] = buf
        return buf[:size].reshape(shape)


@dataclass(eq=False)
class PairTile:
    """Consecutive whole ranks as one kernel input.

    ``row_bounds[k]`` is where ``ranks[k]``'s slab starts — its rows
    (local then ghost) follow, then headroom up to ``row_bounds[k + 1]``
    (for the last rank: no headroom, the tile ends with its ghosts);
    ``pair_bounds`` delimit its pairs in the flat ``pair_i/pair_j`` and
    ``local_bounds`` its owned rows in ``local_rows`` — all relative to
    the tile.  ``x``/``f``/``type`` are the arena's rows themselves and,
    with ``ntotal``, mirror ``Atoms``; ``xT`` is the ``(3, ntotal)`` copy
    of ``x`` with contiguous rows that the kernels gather from.

    ``origin`` is the tile's first ``(arena row, pair)``, ``extent`` the
    world's ``(arena rows, pairs)`` and ``capacity`` the per-pair scratch
    size shared by all tiles of the world.  ``layout`` is the arena
    layout the windows were cut from.
    """

    ranks: tuple[int, ...]
    atoms: tuple[Atoms, ...]
    row_bounds: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_bounds: np.ndarray
    local_rows: np.ndarray
    local_bounds: np.ndarray
    type: np.ndarray
    x: np.ndarray
    xT: np.ndarray
    f: np.ndarray
    workspace: Workspace
    origin: tuple[int, int]
    extent: tuple[int, int]
    capacity: int
    arena: AtomArena
    layout: int

    @property
    def ntotal(self) -> int:
        return int(self.x.shape[0])

    @property
    def nlocal(self) -> int:
        """Owned rows.  Only in a single-rank tile are they rows
        ``[0, nlocal)`` as in ``Atoms`` (what Stillinger-Weber assumes)."""
        return int(self.local_rows.shape[0])

    # -- per step ----------------------------------------------------------
    def load(self) -> None:
        """Transpose the current positions for the gathers; zero the
        force rows."""
        if self.layout != self.arena.layout:
            raise RuntimeError(
                "the arena was re-laid out since this tile was built: its windows "
                "are rows of arrays no rank uses any more"
            )
        self.xT[...] = self.x.T
        self.f[...] = 0.0

    # -- scratch -----------------------------------------------------------
    def scratch(
        self,
        key: str,
        n: int,
        dtype: DTypeLike = np.float64,
        lead: int | None = None,
        own: bool = False,
    ) -> np.ndarray:
        """``n`` per-pair scratch entries (``(lead, n)`` with ``lead``).

        Temporaries come from the front of a buffer of ``capacity``
        pairs that all tiles share, so consecutive tiles reuse the same
        cache lines.  ``own=True`` places the entries in this tile's own
        pair range of a world-sized buffer instead, where they survive
        other tiles' kernels (EAM keeps its compacted pairs from the
        density pass to the force pass).  Neither size depends on how
        ranks are grouped into tiles, so regrouping never regrows one.
        """
        pairs = self.extent[1] if own else self.capacity
        lo = self.origin[1] if own else 0
        buf = self.workspace.array(key, pairs if lead is None else (lead, pairs), dtype)
        return buf[..., lo : lo + n]

    def row_scratch(self, key: str) -> np.ndarray:
        """One float per row of this tile, in the tile's own row range of
        the world-sized buffer ``key`` (survives other tiles' kernels)."""
        lo = self.origin[0]
        return self.workspace.array(key, self.extent[0])[lo : lo + self.ntotal]

    def pairs_inside(
        self,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        cut2: float | np.ndarray,
        own: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(keep, i, j, d, r2)``: the listed pairs with ``r2 < cut2``.

        One mask, one compaction: ``keep`` indexes the surviving pairs in
        list order; ``i``/``j``/``r2`` and the separations ``d`` (shape
        ``(3, n)``, ``x_i - x_j``) are compacted with it.  ``cut2`` is a
        scalar or one value per listed pair.  The results are scratch
        (``own`` as in :meth:`scratch`); the four-row ``"work"`` block is
        used on the way and free again on return.
        """
        scratch = self.scratch
        npairs = pair_i.shape[0]
        d_all = scratch("work", npairs, lead=4)
        pair_deltas(self.xT, pair_i, pair_j, d_all)
        r2_all = scratch("r2_all", npairs)
        r2_from_deltas(d_all, r2_all, d_all[3])
        mask = np.less(r2_all, cut2, out=scratch("mask", npairs, np.bool_))
        keep = np.flatnonzero(mask)
        n = keep.shape[0]
        i = np.take(pair_i, keep, out=scratch("i", n, np.intp, own=own), mode="clip")
        j = np.take(pair_j, keep, out=scratch("j", n, np.intp, own=own), mode="clip")
        d = scratch("d", n, lead=3, own=own)
        for k in range(3):
            np.take(d_all[k], keep, out=d[k], mode="clip")
        r2 = np.take(r2_all, keep, out=scratch("r2", n, own=own), mode="clip")
        return keep, i, j, d, r2

    # -- per-rank pieces of flat per-tile arrays -------------------------
    def rank_sums(self, values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """``values[bounds[k]:bounds[k+1]].sum()`` for each rank ``k``.

        Contiguous slice sums, *not* ``np.add.reduceat``: the pairwise
        sum over the same values and length is what a per-rank kernel
        call computes, bit for bit.
        """
        return np.array(
            [values[bounds[k] : bounds[k + 1]].sum() for k in range(len(self.ranks))]
        )


def as_tile(
    atoms: Atoms | PairTile, pair_i: np.ndarray, pair_j: np.ndarray
) -> PairTile:
    """``atoms`` itself if it is a tile, else a single-rank tile over it.

    The wrapper aliases ``atoms.x`` / ``atoms.f`` (forces accumulate in
    place, as the kernels always did for plain ``Atoms``) and carries a
    throw-away workspace.
    """
    if isinstance(atoms, PairTile):
        if pair_i.shape[0] != atoms.pair_bounds[-1]:
            raise ValueError("a tile's kernels run over the tile's own pair list")
        return atoms
    n, nlocal, npairs = atoms.ntotal, atoms.nlocal, int(pair_i.shape[0])
    x = atoms.x
    return PairTile(
        ranks=(0,),
        atoms=(atoms,),
        row_bounds=np.array([0, n], dtype=np.intp),
        pair_i=pair_i,
        pair_j=pair_j,
        pair_bounds=np.array([0, npairs], dtype=np.intp),
        local_rows=np.arange(nlocal, dtype=np.intp),
        local_bounds=np.array([0, nlocal], dtype=np.intp),
        type=atoms.type,
        x=x,
        xT=np.ascontiguousarray(x.T),
        f=atoms.f,
        workspace=Workspace(),
        origin=(0, 0),
        extent=(n, npairs),
        capacity=npairs,
        arena=atoms.arena,
        layout=atoms.arena.layout,
    )


def group_ranks(pair_counts: Sequence[int], tile_pairs: int) -> list[list[int]]:
    """Runs of consecutive ranks, each closed when adding the next rank
    would exceed ``tile_pairs`` (a rank on its own may)."""
    groups: list[list[int]] = []
    total = 0
    for rank, count in enumerate(pair_counts):
        if groups and total + count <= tile_pairs:
            groups[-1].append(rank)
            total += count
        else:
            groups.append([rank])
            total = count
    return groups


def _bounds(counts: Sequence[int]) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``."""
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out


class PairTiles:
    """The world's tiles; ``rebuild`` at every reneighbouring.

    Pair lists, ``xT`` and all kernel scratch live in one
    :class:`Workspace`, so rebuilding re-fills buffers instead of
    allocating them; positions, forces and types are the arena's.
    """

    def __init__(self) -> None:
        self.workspace = Workspace()
        self.tiles: list[PairTile] = []
        self.arena: AtomArena | None = None

    def world_rows(self, key: str) -> np.ndarray:
        """One float per arena row: the buffer every tile's
        ``row_scratch(key)`` is a window of, whole — what the exchange's
        scalar phases take."""
        return self.workspace.array(key, self.arena.rows)

    def rebuild(
        self,
        atoms: Sequence[Atoms],
        lists: Sequence[NeighborList],
        groups: Sequence[Sequence[int]],
    ) -> None:
        """Freeze ``lists`` (one per rank, as just built over ``atoms``)
        into one tile per group; the groups must cover the ranks in order.
        The ranks' atoms share one arena afterwards (they are moved into
        one, in place, if they did not)."""
        if [r for group in groups for r in group] != list(range(len(atoms))):
            raise ValueError(f"tiles must be runs of consecutive ranks, got {groups}")
        arena = self.arena = AtomArena.adopt(atoms)
        starts = arena.starts
        pairs = _bounds([neigh.n_pairs for neigh in lists])
        locals_ = _bounds([a.nlocal for a in atoms])
        extent = (arena.rows, int(pairs[-1]))
        # Scratch for the largest tile, and never less than a full default
        # tile: a world whose pair count hovers around TILE_PAIRS (one tile
        # in one epoch, two in the next) must not regrow it.
        largest = max(int(pairs[g[-1] + 1] - pairs[g[0]]) for g in groups)
        capacity = max(largest, min(extent[1], TILE_PAIRS))

        ws = self.workspace
        pair_i = ws.array("pair_i", extent[1], np.intp)
        pair_j = ws.array("pair_j", extent[1], np.intp)
        local_rows = ws.array("local_rows", int(locals_[-1]), np.intp)
        xT = ws.array("xT", (3, extent[0]))

        self.tiles = []
        for group in groups:
            lo, hi = group[0], group[-1] + 1
            row0 = starts[lo]
            for r in group:
                # rank-local index + the rank's slab start within the tile
                offset = starts[r] - row0
                np.add(lists[r].pair_i, offset, out=pair_i[pairs[r] : pairs[r + 1]])
                np.add(lists[r].pair_j, offset, out=pair_j[pairs[r] : pairs[r + 1]])
                local_rows[locals_[r] : locals_[r + 1]] = np.arange(
                    offset, offset + atoms[r].nlocal
                )
            row_bounds = starts[lo : hi + 1] - row0
            # the window closes with the last rank's ghosts, not its headroom
            row_bounds[-1] = row_bounds[-2] + atoms[hi - 1].ntotal
            row_span = slice(row0, row0 + row_bounds[-1])
            pair_span = slice(pairs[lo], pairs[hi])
            self.tiles.append(
                PairTile(
                    ranks=tuple(group),
                    atoms=tuple(atoms[lo:hi]),
                    row_bounds=row_bounds,
                    pair_i=pair_i[pair_span],
                    pair_j=pair_j[pair_span],
                    pair_bounds=pairs[lo : hi + 1] - pairs[lo],
                    local_rows=local_rows[locals_[lo] : locals_[hi]],
                    local_bounds=locals_[lo : hi + 1] - locals_[lo],
                    type=arena.type[row_span],
                    x=arena.x[row_span],
                    xT=xT[:, row_span],
                    f=arena.f[row_span],
                    workspace=ws,
                    origin=(int(row0), int(pairs[lo])),
                    extent=extent,
                    capacity=capacity,
                    arena=arena,
                    layout=arena.layout,
                )
            )
