"""Topology mapping: MPI rank grid -> TofuD nodes (section 3.5.3).

Fugaku's scheduler hands a job a contiguous block of nodes with a known
virtual 3D shape; ``mpi-extend`` then tells each rank its node's physical
coordinates.  The paper maps the MD rank grid onto that block so that
neighboring sub-boxes are neighboring nodes — 1-hop communication for
faces, additive for edges/corners — and packs the 4 ranks of a node as a
2x2x1 sub-brick of the rank grid so intra-node neighbors are 0 hops.

:class:`TopoMap` reproduces that embedding and answers hop queries the
performance model and the fine-grained scheduler use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.topology import TofuTopology

#: How the paper's 4 ranks-per-node tile the rank grid within one node.
RANKS_PER_NODE_BRICK = (2, 2, 1)


@dataclass(frozen=True)
class JobShape:
    """A scheduler allocation: virtual 3D node grid of a torus block."""

    nodes: tuple[int, int, int]

    @property
    def node_count(self) -> int:
        nx, ny, nz = self.nodes
        return nx * ny * nz

    def rank_grid(self, brick: tuple[int, int, int] = RANKS_PER_NODE_BRICK) -> tuple[int, int, int]:
        """The rank grid this allocation supports at 4 ranks/node."""
        return tuple(n * b for n, b in zip(self.nodes, brick))


class TopoMap:
    """Embedding of a 3D rank grid onto a TofuD node block.

    Parameters
    ----------
    job:
        The allocated node block.
    topology:
        The machine; defaults to the smallest torus containing the job.
    brick:
        Ranks-per-node arrangement (default 2x2x1 = 4 ranks).
    """

    def __init__(
        self,
        job: JobShape,
        topology: TofuTopology | None = None,
        brick: tuple[int, int, int] = RANKS_PER_NODE_BRICK,
    ) -> None:
        self.job = job
        self.brick = brick
        if topology is None:
            topology = TofuTopology.for_virtual_shape(self._padded_virtual(job.nodes))
        self.topology = topology
        vshape = topology.virtual_shape
        if any(j > v for j, v in zip(job.nodes, vshape)):
            raise ValueError(f"job {job.nodes} does not fit machine grid {vshape}")
        self.rank_grid = job.rank_grid(brick)

    @staticmethod
    def _padded_virtual(nodes: tuple[int, int, int]) -> tuple[int, int, int]:
        """Round a node shape up to whole TofuD cells (2, 3, 2 folding)."""
        from repro.machine.topology import TOFU_CELL_SHAPE

        return tuple(
            -(-n // c) * c for n, c in zip(nodes, TOFU_CELL_SHAPE)
        )

    # -- rank -> node ---------------------------------------------------------
    def node_of_rank(self, rank_pos: tuple[int, int, int]) -> tuple[int, int, int]:
        """Virtual node coordinates hosting the rank at ``rank_pos``."""
        for p, g in zip(rank_pos, self.rank_grid):
            if not 0 <= p < g:
                raise ValueError(f"rank position {rank_pos} outside grid {self.rank_grid}")
        return tuple(p // b for p, b in zip(rank_pos, self.brick))

    def local_index(self, rank_pos: tuple[int, int, int]) -> int:
        """Which of the node's 4 rank slots this rank occupies (0..3)."""
        bx, by, bz = self.brick
        lx, ly, lz = (p % b for p, b in zip(rank_pos, self.brick))
        return lx + bx * (ly + by * lz)

    # -- hop queries ------------------------------------------------------------
    def hops_between(
        self, rank_a: tuple[int, int, int], rank_b: tuple[int, int, int]
    ) -> int:
        """Physical network hops between two ranks (0 if co-located).

        Periodic rank-grid wrap is honored: the neighbor of the last rank
        along an axis is the first, and the torus routes the short way.
        """
        na, nb = self.node_of_rank(rank_a), self.node_of_rank(rank_b)
        if na == nb:
            return 0
        ca = self.topology.coord_for_virtual(na)
        cb = self.topology.coord_for_virtual(nb)
        return self.topology.hops(ca, cb)

    def neighbor_hops(
        self, rank_pos: tuple[int, int, int], offset: tuple[int, int, int]
    ) -> int:
        """Hops to the rank at grid ``offset`` (periodic wrap)."""
        target = tuple(
            (p + o) % g for p, o, g in zip(rank_pos, offset, self.rank_grid)
        )
        return self.hops_between(rank_pos, target)
