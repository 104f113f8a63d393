"""The World: a container of in-process ranks driven phase-by-phase.

SPMD code normally runs as *P* processes executing the same program.
Here the same effect is achieved single-process: the world owns *P*
per-rank states and a driver calls ``for rank in world: do_phase(rank)``
for each program phase.  Phase boundaries are the synchronization points;
within a phase, ranks may only *send*; receives happen in the next phase
(or later in the same phase via a second sweep), which is exactly the
post-all-sends / complete-all-receives structure of the LAMMPS exchange
code.

:class:`RankContext` is the per-rank handle: rank id, cartesian position
in the rank grid, transport endpoints, and a scratch namespace the MD
engine hangs its per-rank state on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.runtime.transport import Transport


@dataclass
class RankContext:
    """Per-rank state handle."""

    rank: int
    world: "World"
    grid_pos: tuple[int, int, int] = (0, 0, 0)
    #: free-form per-rank state (the MD engine stores its Domain etc. here)
    state: dict[str, Any] = field(default_factory=dict)

    def send(self, dst: int, tag, payload) -> None:
        """Send ``payload`` to ``dst`` through the world transport."""
        self.world.transport.send(self.rank, dst, tag, payload)

    def recv(self, src: int, tag):
        """Receive the oldest matching message (raises if missing)."""
        return self.world.transport.recv(self.rank, src, tag)

    def try_recv(self, src: int, tag):
        """Receive if available, else None."""
        return self.world.transport.try_recv(self.rank, src, tag)


class World:
    """``size`` simulated ranks arranged (optionally) on a 3D grid.

    Parameters
    ----------
    size:
        Total rank count.
    grid:
        Optional ``(px, py, pz)`` rank grid; must multiply to ``size``.
        When present, each rank knows its grid position — the basis of the
        3D domain decomposition and of neighbor enumeration.
    """

    def __init__(self, size: int, grid: tuple[int, int, int] | None = None) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        if grid is not None:
            px, py, pz = grid
            if px * py * pz != size:
                raise ValueError(f"grid {grid} does not multiply to size {size}")
        self.size = size
        self.grid = grid
        self.transport = Transport(size)
        self.ranks = [RankContext(r, self) for r in range(size)]
        if grid is not None:
            for r, ctx in enumerate(self.ranks):
                ctx.grid_pos = self.grid_pos_of(r)

    # -- grid arithmetic -----------------------------------------------------
    def grid_pos_of(self, rank: int) -> tuple[int, int, int]:
        """Rank -> (ix, iy, iz), x fastest (LAMMPS rank ordering)."""
        if self.grid is None:
            raise ValueError("world has no rank grid")
        px, py, pz = self.grid
        ix = rank % px
        iy = (rank // px) % py
        iz = rank // (px * py)
        return (ix, iy, iz)

    def rank_at(self, pos: tuple[int, int, int]) -> int:
        """(ix, iy, iz) -> rank, with periodic wrap on every axis."""
        if self.grid is None:
            raise ValueError("world has no rank grid")
        px, py, pz = self.grid
        ix, iy, iz = pos[0] % px, pos[1] % py, pos[2] % pz
        return ix + px * (iy + py * iz)

    def neighbor_rank(self, rank: int, offset: tuple[int, int, int]) -> int:
        """Rank at grid offset ``offset`` from ``rank`` (periodic)."""
        ix, iy, iz = self.grid_pos_of(rank)
        return self.rank_at((ix + offset[0], iy + offset[1], iz + offset[2]))

    # -- phase driving ---------------------------------------------------------
    def __iter__(self) -> Iterator[RankContext]:
        return iter(self.ranks)

    def run_phase(self, name: str, fn: Callable[[RankContext], None]) -> None:
        """Run ``fn`` once per rank, labelling the traffic with ``name``."""
        self.transport.set_phase(name)
        for ctx in self.ranks:
            fn(ctx)

    def run_exchange(
        self,
        name: str,
        send_fn: Callable[[RankContext], None],
        recv_fn: Callable[[RankContext], None],
    ) -> None:
        """A send sweep followed by a receive sweep (one bulk exchange)."""
        self.transport.set_phase(name)
        for ctx in self.ranks:
            send_fn(ctx)
        for ctx in self.ranks:
            recv_fn(ctx)
