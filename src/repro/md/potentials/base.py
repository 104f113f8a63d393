"""Potential interface.

A potential computes forces from a pair list.  Simple pair potentials
(LJ) need no communication inside the pair stage; EAM does — its
electron density must be complete before embedding derivatives exist,
which takes a reverse-sum of ghost densities and a forward broadcast of
the derivative (the "two additional communications during the pair
stage" of paper section 4.1).  Those ride the active communication
pattern: the driver interleaves EAM's three passes with the exchange's
``reverse_sum_scalar_world`` / ``forward_scalar_world`` itself, so the
same EAM code runs over the 3-stage or p2p exchange unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.atoms import Atoms
from repro.md.pairtiles import PairTile


@dataclass
class ForceResult:
    """Outputs of one force evaluation (this rank's share).

    ``energy`` and ``virial`` are *owned* contributions: summing them over
    ranks gives the global potential energy and the global scalar virial
    ``sum_pairs r_ij . f_ij`` (+ embedding terms for EAM).

    A kernel run over one rank's ``Atoms`` reports floats.  Run over a
    multi-rank :class:`~repro.md.pairtiles.PairTile` it reports arrays
    with one entry per rank of the tile (``tile.ranks`` order), each
    bit-identical to what the single-rank call reports — see
    :meth:`per_rank`.
    """

    energy: float | np.ndarray = 0.0
    virial: float | np.ndarray = 0.0
    #: per-stage seconds spent inside mid-pair communication, if any
    comm_calls: int = 0
    extra: dict = field(default_factory=dict)

    def per_rank(self, n_ranks: int) -> list[tuple[float, float]]:
        """``(energy, virial)`` of each of the ``n_ranks`` ranks the
        kernel's input covered."""
        energy = np.broadcast_to(self.energy, n_ranks).tolist()
        virial = np.broadcast_to(self.virial, n_ranks).tolist()
        return list(zip(energy, virial))


class PairPotential:
    """Base class: cutoff + force kernel over a half or full pair list."""

    #: interaction cutoff (force range, excludes skin)
    cutoff: float = 0.0
    #: whether this potential needs a full neighbor list (Tersoff-style)
    needs_full_list: bool = False
    #: whether the kernel writes forces onto ghost atoms even with a full
    #: list (3-body potentials scatter triplet forces to j and k), which
    #: obliges the driver to run the reverse exchange
    force_ghosts: bool = False
    #: whether the kernel honours a tile's ``pair_bounds`` (per-rank
    #: energy/virial from one call over several ranks); the driver gives
    #: every other potential one rank per tile
    rank_tiled: bool = False

    def compute(
        self,
        atoms: Atoms | PairTile,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        half_list: bool = True,
    ) -> ForceResult:
        """Accumulate forces into ``atoms.f``; return energy/virial.

        ``pair_i`` are local indices; ``pair_j`` local or ghost.  With
        ``half_list=True`` the kernel applies Newton's 3rd law (force on
        both partners, energy/virial counted once).  With
        ``half_list=False`` the list is directed and only ``i`` receives
        force; energy/virial are halved per visit.
        """
        raise NotImplementedError
