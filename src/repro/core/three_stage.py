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

Functionally the atoms move through the world transport; the *timing* of
the pattern (including the stage barriers) is priced by the perfmodel
from the route schedule this class reports.
"""

from __future__ import annotations

import numpy as np

from repro.core.exchange_base import GhostExchange, RecvRoute, SendRoute
from repro.core.patterns import three_stage_swaps
from repro.md.domain import Domain
from repro.obs.trace import TRACER
from repro.runtime.world import World


class ThreeStageExchange(GhostExchange):
    """Staged dimension-by-dimension ghost exchange (full shell)."""

    ghost_rule = "coord"  # full shell: half lists need the coordinate rule
    full_shell = True
    name = "3stage"

    def __init__(
        self, world: World, domain: Domain, rcomm: float, radius: int = 1
    ) -> None:
        super().__init__(world, domain, rcomm)
        if radius < 1:
            raise ValueError(f"shell radius must be >= 1, got {radius}")
        self.radius = radius
        self.swaps = three_stage_swaps(radius)

    # -- border stage ----------------------------------------------------------
    def borders(self) -> None:
        """Staged border exchange: 2 swaps per dimension with forwarding."""
        with self._phase_span("border"):
            self._borders_impl()

    def _borders_impl(self) -> None:
        world = self.world
        transport = world.transport
        transport.set_phase("border")
        self._clear_routes()
        for rank in range(world.size):
            self.atoms_of(rank).clear_ghosts()

        # Per (rank, dim, dir): ghost range received by the previous swap
        # of the same flow, for multi-hop forwarding at radius > 1.
        prev_recv: dict[tuple[int, int, int], tuple[int, int]] = {}
        # Per (rank, dim): atom count when the dimension's swaps began.
        # Both directions of a dim scan only those atoms (LAMMPS' nlast):
        # the -d swap must not re-send ghosts the +d swap just delivered.
        dim_first: dict[tuple[int, int], int] = {}

        for k, swap in enumerate(self.swaps):
            dim, direction = swap.dim, swap.dir
            with TRACER.span(
                f"swap{k}", cat="swap", track="comm", dim=dim, dir=direction
            ):
                self._border_swap(k, dim, direction, prev_recv, dim_first)

    def _border_swap(
        self,
        k: int,
        dim: int,
        direction: int,
        prev_recv: dict,
        dim_first: dict,
    ) -> None:
        """One staged swap: send sweep then receive sweep (a Fig. 4 stage)."""
        world = self.world
        transport = world.transport
        tag = ("3s", k)
        # Send sweep -------------------------------------------------
        for rank in range(world.size):
            atoms = self.atoms_of(rank)
            sub = self.sub_box_of(rank)
            flow_key = (rank, dim, direction)
            dim_key = (rank, dim)
            if dim_key not in dim_first:
                dim_first[dim_key] = atoms.ntotal
            if flow_key in prev_recv:
                # Repetition of this flow: forward what the previous
                # repetition delivered (and still faces the border).
                lo, n = prev_recv[flow_key]
                cand = np.arange(lo, lo + n, dtype=np.intp)
            else:
                cand = np.arange(dim_first[dim_key], dtype=np.intp)
            x = atoms.x
            if direction > 0:
                mask = x[cand, dim] >= sub.hi[dim] - self.rcomm
            else:
                mask = x[cand, dim] < sub.lo[dim] + self.rcomm
            send_idx = cand[mask]

            o_send = tuple(direction if d == dim else 0 for d in range(3))
            peer = world.neighbor_rank(rank, o_send)
            shift = self.shift_for_send(rank, o_send)
            self.routes[rank].sends.append(
                SendRoute(peer=peer, send_idx=send_idx, shift=shift, tag=tag)
            )
            payload = (
                atoms.x[send_idx] + shift,
                atoms.tag[send_idx],
                atoms.type[send_idx],
            )
            transport.send(rank, peer, tag + ("border",), payload)

        # Receive sweep ----------------------------------------------
        for rank in range(world.size):
            atoms = self.atoms_of(rank)
            o_send = tuple(direction if d == dim else 0 for d in range(3))
            src = world.neighbor_rank(rank, tuple(-o for o in o_send))
            payload_x, payload_tag, payload_type = self._recv(
                transport, rank, src, tag + ("border",)
            )
            start, count = atoms.append_ghosts(payload_x, payload_tag, payload_type)
            self.routes[rank].recvs.append(
                RecvRoute(peer=src, recv_start=start, recv_count=count, tag=tag)
            )
            prev_recv[(rank, dim, direction)] = (start, count)

    # -- staged forward / reverse ------------------------------------------------
    def _forward_array(self, arrays, apply_shift: bool, phase: str) -> None:
        """Swap-by-swap replay: later swaps forward earlier swaps' data."""
        transport = self.world.transport
        transport.set_phase(phase)
        n_swaps = len(self.swaps)
        for k in range(n_swaps):
            for rank in range(self.world.size):
                route = self.routes[rank].sends[k]
                data = arrays[rank]
                payload = np.array(data[route.send_idx], copy=True)
                if apply_shift and payload.ndim == 2:
                    payload += route.shift
                transport.send(rank, route.peer, route.tag + (phase,), payload)
            for rank in range(self.world.size):
                route = self.routes[rank].recvs[k]
                data = arrays[rank]
                payload = self._recv(
                    transport, rank, route.peer, route.tag + (phase,)
                )
                lo, n = route.recv_start, route.recv_count
                data[lo : lo + n] = payload

    def _reverse_sum_array(self, arrays, phase: str) -> None:
        """Reverse replay: ghost contributions retrace the swaps backwards."""
        transport = self.world.transport
        transport.set_phase(phase)
        n_swaps = len(self.swaps)
        for k in reversed(range(n_swaps)):
            for rank in range(self.world.size):
                route = self.routes[rank].recvs[k]
                data = arrays[rank]
                lo, n = route.recv_start, route.recv_count
                transport.send(
                    rank, route.peer, route.tag + (phase,), np.array(data[lo : lo + n])
                )
            # Collect the whole swap before applying any sum so an
            # escalation mid-swap leaves no half-applied contributions
            # (inter-swap applies must still happen: the next swap of
            # the backward replay forwards what this one accumulated).
            received = []
            for rank in range(self.world.size):
                route = self.routes[rank].sends[k]
                received.append(
                    self._recv(transport, rank, route.peer, route.tag + (phase,))
                )
            for rank in range(self.world.size):
                route = self.routes[rank].sends[k]
                np.add.at(arrays[rank], route.send_idx, received[rank])
