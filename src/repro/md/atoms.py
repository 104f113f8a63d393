"""Structure-of-arrays atom storage: world-flat arrays, one slab per rank.

Follows LAMMPS' layout: one contiguous block of per-atom arrays where
indices ``[0, nlocal)`` are atoms this rank owns and ``[nlocal,
nlocal+nghost)`` are ghost copies received from neighbors.  Positions and
forces of local and ghost atoms therefore live in the same arrays — the
property the paper's pre-registered RDMA scheme exploits by PUT-ing
straight into a remote rank's position array at a known ghost offset
(Fig. 9).

The arrays themselves belong to an :class:`AtomArena`: ``x / v / f / tag
/ type`` for *every* member, each member a contiguous slab ``[locals |
ghosts | headroom]`` of them.  An :class:`Atoms` is a window onto its
slab and always lives in an arena — a lone ``Atoms()`` is an arena of one
slab — so a whole world's atoms can share one arena
(:meth:`AtomArena.adopt`, in place: the ``Atoms`` objects keep their
identity) and a neighbour's ghost row is then a row number of the same
array: the exchange's direct plane gathers a round with one ``np.take``
and the Pair tiles are windows instead of copies.

A slab that must grow past its capacity re-lays the arena out (every
slab moves to a new array, geometric growth for the one that asked).
That is counted twice over: in the member's ``grow_events`` and the
arena's ``relayouts``, so tests can verify that sizing slabs from the
theoretical maximum (section 3.4) eliminates reallocation during a run.
Whoever holds arena row numbers names the :attr:`AtomArena.layout` they
were computed against.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


class AtomArena:
    """World-flat ``x / v / f / tag / type``; member ``i`` owns rows
    ``starts[i]:starts[i + 1]`` of each."""

    def __init__(self, members: Sequence[Atoms], capacities: Sequence[int]) -> None:
        self.members = list(members)
        #: re-layouts forced by a member outgrowing its slab
        self.relayouts = 0
        #: generation of the row numbering (moves with every re-layout)
        self.layout = 0
        self._lay_out([max(int(c), 1) for c in capacities])

    @classmethod
    def adopt(cls, atoms: Sequence[Atoms], capacity: int = 0) -> AtomArena:
        """The one arena holding exactly ``atoms``, in order, every slab at
        least ``capacity`` rows: theirs if they already share such a one,
        else a new one they move into (contents and identity kept)."""
        arena = atoms[0].arena
        if (
            len(arena.members) == len(atoms)
            and all(a is b and a.arena is arena for a, b in zip(arena.members, atoms))
            and all(a.capacity >= capacity for a in atoms)
        ):
            return arena
        return cls(atoms, [max(a.capacity, capacity) for a in atoms])

    @property
    def rows(self) -> int:
        return int(self.starts[-1])

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.x, self.v, self.f, self.tag, self.type))

    def grow(self, member: Atoms, rows: int) -> None:
        """Re-lay the arena out with ``member``'s slab ``rows`` long."""
        # whoever was adopted into another arena since has left this one
        self.members = [a for a in self.members if a.arena is self]
        self._lay_out([rows if a is member else a.capacity for a in self.members])
        self.relayouts += 1

    def _lay_out(self, capacities: list[int]) -> None:
        """Allocate the arrays for ``capacities`` and move every member's
        slab (whole: rows past ``ntotal`` are storage too) into its place."""
        self.starts = np.zeros(len(capacities) + 1, dtype=np.intp)
        np.cumsum(capacities, out=self.starts[1:])
        rows = self.rows
        self.x, self.v, self.f = (np.zeros((rows, 3)) for _ in range(3))
        self.tag = np.zeros(rows, dtype=np.int64)
        self.type = np.zeros(rows, dtype=np.int32)
        self.layout += 1
        for member, lo, hi in zip(
            self.members, self.starts[:-1].tolist(), self.starts[1:].tolist()
        ):
            held = lo + member.capacity
            for name in ("x", "v", "f", "tag", "type"):
                array = getattr(self, name)
                array[lo:held] = getattr(member, "_" + name)
                setattr(member, "_" + name, array[lo:hi])
            member.arena, member.start = self, lo


class Atoms:
    """Per-rank atom arrays: positions, velocities, forces, tags — a
    window onto this rank's slab of an :class:`AtomArena`.

    Parameters
    ----------
    capacity:
        Initial allocated rows.  With the paper's pre-sizing optimization
        the caller passes the theoretical maximum so no growth ever
        happens mid-run.
    """

    # Until an arena lays it out an Atoms holds no rows.
    _x = _v = _f = np.empty((0, 3))
    _tag = np.empty(0, dtype=np.int64)
    _type = np.empty(0, dtype=np.int32)
    #: the arena whose arrays the views above are slabs of ...
    arena: AtomArena
    #: ... and the first arena row of the slab
    start: int

    def __init__(self, capacity: int = 64) -> None:
        self.nlocal = 0
        self.nghost = 0
        self.grow_events = 0
        AtomArena([self], [capacity])

    def __deepcopy__(self, memo: dict) -> Atoms:
        """A lone twin (its own arena of one slab), not a copy of every
        rank the arena holds."""
        twin = Atoms(self.capacity)
        for name in ("_x", "_v", "_f", "_tag", "_type"):
            getattr(twin, name)[...] = getattr(self, name)
        twin.nlocal, twin.nghost, twin.grow_events = self.nlocal, self.nghost, self.grow_events
        return twin

    # -- views ---------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._x.shape[0]

    @property
    def ntotal(self) -> int:
        return self.nlocal + self.nghost

    @property
    def x(self) -> np.ndarray:
        """Positions of all atoms (local then ghost), shape (ntotal, 3)."""
        return self._x[: self.ntotal]

    @property
    def v(self) -> np.ndarray:
        """Velocities of local atoms (ghosts carry no velocity)."""
        return self._v[: self.nlocal]

    @property
    def f(self) -> np.ndarray:
        """Forces of all atoms; ghost rows accumulate Newton partners."""
        return self._f[: self.ntotal]

    @property
    def tag(self) -> np.ndarray:
        """Global atom ids for all atoms (local then ghost)."""
        return self._tag[: self.ntotal]

    @property
    def type(self) -> np.ndarray:
        """Atom species ids for all atoms (local then ghost); 0-based."""
        return self._type[: self.ntotal]

    def x_local(self) -> np.ndarray:
        """Positions of local atoms only."""
        return self._x[: self.nlocal]

    def f_local(self) -> np.ndarray:
        """Forces of local atoms only."""
        return self._f[: self.nlocal]

    # -- capacity management ---------------------------------------------------
    def reserve(self, rows: int) -> None:
        """Ensure capacity for at least ``rows`` atoms."""
        if rows <= self.capacity:
            return
        self.arena.grow(self, max(rows, self.capacity * 2))
        self.grow_events += 1

    # -- population -------------------------------------------------------------
    def set_local(
        self,
        x: np.ndarray,
        v: np.ndarray,
        tag: np.ndarray,
        type_: np.ndarray | None = None,
    ) -> None:
        """Replace the local atom set (drops any ghosts)."""
        n = x.shape[0]
        if v.shape[0] != n or tag.shape[0] != n:
            raise ValueError("x, v, tag must have matching first dimension")
        if type_ is not None and type_.shape[0] != n:
            raise ValueError("type must match the atom count")
        self.reserve(n)
        self._x[:n] = x
        self._v[:n] = v
        self._tag[:n] = tag
        self._type[:n] = 0 if type_ is None else type_
        self._f[:n] = 0.0
        self.nlocal = n
        self.nghost = 0

    def clear_ghosts(self) -> None:
        """Drop all ghosts (start of exchange/border)."""
        self.nghost = 0

    def append_ghosts(
        self, x: np.ndarray, tag: np.ndarray, type_: np.ndarray | None = None
    ) -> tuple[int, int]:
        """Append ghost atoms; returns their ``(start, count)`` range."""
        n = x.shape[0]
        start = self.ntotal
        self.reserve(start + n)
        self._x[start : start + n] = x
        self._tag[start : start + n] = tag
        self._type[start : start + n] = 0 if type_ is None else type_
        self._f[start : start + n] = 0.0
        self.nghost += n
        return start, n

    def add_local(
        self,
        x: np.ndarray,
        v: np.ndarray,
        tag: np.ndarray,
        type_: np.ndarray | None = None,
    ) -> None:
        """Append migrated-in local atoms (exchange stage).

        Only legal while no ghosts are present (exchange happens right
        before borders rebuilds them).
        """
        if self.nghost:
            raise RuntimeError("cannot add local atoms while ghosts exist")
        n = x.shape[0]
        start = self.nlocal
        self.reserve(start + n)
        self._x[start : start + n] = x
        self._v[start : start + n] = v
        self._tag[start : start + n] = tag
        self._type[start : start + n] = 0 if type_ is None else type_
        self._f[start : start + n] = 0.0
        self.nlocal += n

    def remove_local(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Remove local atoms by index; returns their (x, v, tag, type).

        Only legal while no ghosts are present.
        """
        if self.nghost:
            raise RuntimeError("cannot remove local atoms while ghosts exist")
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and (indices.min() < 0 or indices.max() >= self.nlocal):
            raise IndexError("remove_local index out of local range")
        out = (
            self._x[indices].copy(),
            self._v[indices].copy(),
            self._tag[indices].copy(),
            self._type[indices].copy(),
        )
        keep = np.ones(self.nlocal, dtype=bool)
        keep[indices] = False
        n_keep = int(keep.sum())
        self._x[:n_keep] = self._x[: self.nlocal][keep]
        self._v[:n_keep] = self._v[: self.nlocal][keep]
        self._tag[:n_keep] = self._tag[: self.nlocal][keep]
        self._type[:n_keep] = self._type[: self.nlocal][keep]
        self.nlocal = n_keep
        return out

    def zero_forces(self) -> None:
        """Zero the force rows of local and ghost atoms."""
        self._f[: self.ntotal] = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Atoms(nlocal={self.nlocal}, nghost={self.nghost}, cap={self.capacity})"
