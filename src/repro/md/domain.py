"""3D domain decomposition.

Splits the global box across a ``(px, py, pz)`` rank grid (paper Fig. 1)
and assigns atoms to owners: the classification the *exchange* stage
(migration) runs over every rank's atoms at once to move those whose
positions left their sub-box to the owning rank.

:func:`decompose_grid` chooses the rank grid the way LAMMPS does — the
factorization of P minimizing communication surface for the given box
aspect ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.region import Box, SubBox


def _factorizations(p: int) -> list[tuple[int, int, int]]:
    """All ordered 3-factorizations of ``p``."""
    out = []
    for a in range(1, p + 1):
        if p % a:
            continue
        q = p // a
        for b in range(1, q + 1):
            if q % b:
                continue
            out.append((a, b, q // b))
    return out


def decompose_grid(p: int, box_lengths: tuple[float, float, float]) -> tuple[int, int, int]:
    """Pick the rank grid minimizing total sub-box surface area.

    This is LAMMPS' default heuristic: for a cubic box it yields the most
    cubic factorization of ``p``.
    """
    if p < 1:
        raise ValueError(f"rank count must be >= 1, got {p}")
    L = np.asarray(box_lengths, dtype=float)

    def surface(grid: tuple[int, int, int]) -> float:
        s = L / np.asarray(grid)
        return 2.0 * (s[0] * s[1] + s[1] * s[2] + s[0] * s[2])

    return min(_factorizations(p), key=lambda g: (surface(g), g))


@dataclass
class Domain:
    """The global box partitioned over a rank grid."""

    box: Box
    grid: tuple[int, int, int]

    def __post_init__(self) -> None:
        if min(self.grid) < 1:
            raise ValueError(f"grid must be positive, got {self.grid}")
        self._lo = np.asarray(self.box.lo)
        self._sub_len = self.box.lengths / np.asarray(self.grid)

    @property
    def size(self) -> int:
        px, py, pz = self.grid
        return px * py * pz

    @property
    def sub_lengths(self) -> np.ndarray:
        """Edge lengths of every (uniform) sub-box."""
        return self._sub_len.copy()

    def sub_box(self, grid_pos: tuple[int, int, int]) -> SubBox:
        """The sub-box at ``grid_pos``."""
        gp = np.asarray(grid_pos)
        if np.any(gp < 0) or np.any(gp >= np.asarray(self.grid)):
            raise ValueError(f"grid position {grid_pos} outside grid {self.grid}")
        lo = self._lo + gp * self._sub_len
        hi = self._lo + (gp + 1) * self._sub_len
        return SubBox(tuple(lo), tuple(hi), tuple(int(v) for v in gp), self.grid)

    def owner_grid_pos(self, x: np.ndarray) -> np.ndarray:
        """Grid position owning each (wrapped) position; shape (N, 3)."""
        xw = self.box.wrap(np.atleast_2d(x))
        gp = np.floor((xw - self._lo) / self._sub_len).astype(np.int64)
        # Guard against positions landing exactly on the high edge after
        # floating-point wrap.
        np.clip(gp, 0, np.asarray(self.grid) - 1, out=gp)
        return gp

    def owner_rank(self, x: np.ndarray) -> np.ndarray:
        """Owning rank per position, ranks numbered x fastest as in
        :meth:`~repro.runtime.world.World.rank_at`."""
        gp = self.owner_grid_pos(x)
        return gp[:, 0] + self.grid[0] * (gp[:, 1] + self.grid[1] * gp[:, 2])

    def scatter(self, x: np.ndarray) -> dict[tuple[int, int, int], np.ndarray]:
        """Index arrays of ``x`` grouped by owning grid position."""
        keys = self.owner_rank(x)
        out: dict[tuple[int, int, int], np.ndarray] = {}
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        for chunk in np.split(order, boundaries):
            if chunk.size == 0:
                continue
            k = int(keys[chunk[0]])
            px, py = self.grid[0], self.grid[1]
            pos = (k % px, (k // px) % py, k // (px * py))
            out[pos] = chunk
        return out
