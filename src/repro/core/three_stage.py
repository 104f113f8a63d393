"""The 3-stage exchange — baseline LAMMPS communication (paper Fig. 4).

Six swaps (two per dimension, x then y then z); each dimension's swaps
forward the ghosts received by earlier dimensions, so 6 messages build
the full 26-neighbor shell.  The defining constraint — and the reason
the paper replaces it — is the barrier between stages: a y-swap cannot
start until the x-swaps delivered, because its payload contains them.

Supports shell radius > 1 (long cutoffs) by repeating each direction's
swap ``radius`` times, each repetition forwarding the previous one's
atoms one rank further — message count grows linearly (6, 12, ...)
where p2p grows quadratically, the Fig. 15 crossover.

Functionally this is a *schedule* on the base class's one replay: one
round per swap (one send, one receive), and which atoms a swap selects.
Packing, the delivery planes and the drain are the shared ones; the
*timing* of the pattern (including the stage barriers) is priced by the
perfmodel from the route schedule and the fencing this class declares.
"""

from __future__ import annotations

import numpy as np

from repro.core.comm_plan import RoundGeometry
from repro.core.exchange_base import GhostExchange
from repro.core.patterns import three_stage_swaps
from repro.md.domain import Domain
from repro.network.stacks import MpiStack
from repro.obs.trace import TRACER
from repro.runtime.world import World


class ThreeStageExchange(GhostExchange):
    """Staged dimension-by-dimension ghost exchange (full shell)."""

    ghost_rule = "coord"  # full shell: half lists need the coordinate rule
    full_shell = True
    name = "3stage"
    stack_cls = MpiStack
    sends_per_stage = 2  # the two swaps of a level share a stage (Fig. 4 barriers)

    def __init__(
        self, world: World, domain: Domain, rcomm: float, radius: int = 1
    ) -> None:
        super().__init__(world, domain, rcomm, radius)
        self.swaps = three_stage_swaps(radius)
        self.n_rounds = len(self.swaps)
        # Per swap, every rank's threshold on the face it flows through.
        self._faces = [
            np.array(
                [
                    sub.hi[swap.dim] - rcomm if swap.dir > 0 else sub.lo[swap.dim] + rcomm
                    for sub in self._subs
                ]
            )[:, None]
            for swap in self.swaps
        ]

    def _round_span(self, k: int):
        swap = self.swaps[k]
        return TRACER.span(f"swap{k}", cat="swap", track="comm", dim=swap.dim, dir=swap.dir)

    def _round_geometry(self, rank: int, k: int) -> RoundGeometry:
        """Swap ``k``: one send along its flow, one receive against it."""
        swap = self.swaps[k]
        o_send = tuple(swap.dir if d == swap.dim else 0 for d in range(3))
        tag = ("3s", k)
        src = self.world.neighbor_rank(rank, tuple(-o for o in o_send))
        return RoundGeometry(
            [(self.world.neighbor_rank(rank, o_send), self.shift_for_send(rank, o_send), tag, 1)],
            [(src, tag, 1, 0)],
        )

    def _select_border(
        self, k: int, landed: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The atoms within ``rcomm`` of the face swap ``k`` flows through,
        among every rank's candidates at once (one compare over a padded
        block of their rows): rounds before ``k`` have delivered, one
        block each, so swap ``j``'s block is rows ``landed[j]:landed[j +
        1]``."""
        swap = self.swaps[k]
        first = k - k % (2 * self.radius)  # the dimension's first swap
        if k - first >= 2:
            # Repetition of this flow: forward what the previous
            # repetition delivered (and still faces the border).
            lo, hi = landed[k - 2], landed[k - 1]
        else:
            # Both directions of a dim scan only the atoms present when
            # the dimension's swaps began (LAMMPS' nlast): the -d swap
            # must not re-send ghosts the +d swap just delivered.
            lo, hi = np.zeros_like(landed[first]), landed[first]
        width = np.arange((hi - lo).max(initial=0))
        rows = (self.arena.starts[:-1] + lo)[:, None] + width
        along = np.take(self.arena.x[:, swap.dim], rows, mode="clip")
        face = self._faces[k]
        mask = along >= face if swap.dir > 0 else along < face
        mask &= width < (hi - lo)[:, None]
        rank, row = np.nonzero(mask)
        return row + lo[rank], np.count_nonzero(mask, axis=1)[:, None]
