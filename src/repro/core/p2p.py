"""Peer-to-peer ghost exchange (paper sections 3.2/3.4, Fig. 5).

Each rank exchanges *directly* with every neighbor in the shell:

* With Newton's 3rd law (half lists) ghosts are **received from the 13
  plus-side neighbors** and border atoms **sent to the 13 minus-side
  neighbors** — half the 3-stage volume (Table 1), and every message is
  independent, so all 13 can be in flight at once.
* With a full neighbor list (``newton=False``, Tersoff/DeePMD-style) the
  full 26-neighbor shell is exchanged (Fig. 15).
* Shell ``radius`` 2 covers long cutoffs: 62/124 direct neighbors — the
  quadratic growth that makes p2p lose at 124 (Fig. 15).

Two data planes:

* ``rdma=False`` — payloads through the world transport (the MPI-p2p
  baseline of Fig. 6).
* ``rdma=True`` — the optimized uTofu plane of section 3.4: position and
  force arrays registered once (sized from the :class:`GhostBudget`
  theoretical maximum), forward-stage positions PUT directly into the
  remote position array at the offset piggybacked during the border
  stage, reverse-stage forces length-prefix-combined into the 4-deep
  round-robin receive rings.

Both planes produce bit-identical ghost data; tests assert it.  Under the
base class's one replay this class is a one-round schedule — geometry
(:meth:`_round_geometry`) and border-atom selection
(:meth:`_select_border`) — plus the RDMA *delivery plane*
(:meth:`_rdma_forward` / :meth:`_rdma_reverse`), which packs and drains
through the base's world table like every plane and only carries each
send's stage slice by PUT and ring; an unobserved, fault-free run of
either flavour rides the base's direct plane.
"""

from __future__ import annotations

import numpy as np

from repro.core.border_bins import BorderBins
from repro.core.comm_plan import Epoch, RoundGeometry
from repro.core.exchange_base import GhostExchange
from repro.core.message_combine import split
from repro.core.patterns import (
    half_shell_offsets,
    offset_hops,
    shell_offsets,
)
from repro.core.rdma_buffers import BufferOverwriteError, RdmaEndpoint, RemoteWindow
from repro.faults.injector import FAULTS, RetryExhaustedError
from repro.machine.rdma import RdmaEngine
from repro.md.atoms import AtomArena
from repro.md.domain import Domain
from repro.obs import hbevents
from repro.obs.trace import TRACER
from repro.runtime.transport import SentMessage, payload_nbytes
from repro.runtime.world import World


class P2PExchange(GhostExchange):
    """Direct per-neighbor ghost exchange, message or RDMA data plane."""

    name = "p2p"
    fallback_pattern = "3stage"

    def __init__(
        self,
        world: World,
        domain: Domain,
        rcomm: float,
        newton: bool = True,
        radius: int = 1,
        rdma: bool = False,
        ring_depth: int = 4,
        density: float | None = None,
    ) -> None:
        super().__init__(world, domain, rcomm, radius)
        self.newton = newton
        self.rdma = rdma
        self.ring_depth = ring_depth
        # Half list over a half shell needs no coordinate tie-break;
        # full shell (newton off) pairs with a *full* neighbor list.
        self.ghost_rule = "all"
        self.full_shell = not newton

        if newton:
            self.recv_offsets = half_shell_offsets(radius)
            self.send_offsets = [tuple(-o for o in off) for off in self.recv_offsets]
        else:
            self.recv_offsets = shell_offsets(radius)
            self.send_offsets = list(self.recv_offsets)

        # Radius 1 classifies every rank's atoms in one pass.
        self._bins = BorderBins(self._subs, rcomm, self.send_offsets) if radius == 1 else None
        self._window_msgs: tuple[list[SentMessage], int] | None = None
        self._windows: list[tuple] | None = None

        # RDMA plane state
        self.engine: RdmaEngine | None = None
        self.endpoints: dict[int, RdmaEndpoint] = {}
        self._density = density
        self.reregistrations = 0
        #: the arena layout the endpoints' registrations are slabs of
        self._registered: tuple[AtomArena, int] | None = None

    def telemetry_feed(self) -> tuple[dict[str, float], dict[str, float]]:
        """Base feed plus the RDMA re-registration count."""
        counters, gauges = super().telemetry_feed()
        counters["rdma_reregistrations"] = float(self.reregistrations)
        return counters, gauges

    # -- neighbor arithmetic ---------------------------------------------------
    def peer_for(self, rank: int, offset: tuple[int, int, int]) -> int:
        """Rank at grid ``offset`` from ``rank`` (periodic)."""
        return self.world.neighbor_rank(rank, offset)

    def _routes_tag(self, o_recv: tuple[int, int, int]) -> tuple:
        return ("p2p", o_recv)

    def _round_geometry(self, rank: int, k: int) -> RoundGeometry:
        """The one round: a send to and a recv from every shell offset.

        A receive from offset ``o`` pairs with its source's send to ``-o``;
        both sides enumerate offsets in the same canonical order, so the
        slot is deterministic — and it is also which of the owner's rings
        (allocated per send) serves the route's reverse traffic.
        """
        sends = [
            (
                self.peer_for(rank, o_send),
                self.shift_for_send(rank, o_send),
                self._routes_tag(tuple(-o for o in o_send)),
                offset_hops(o_send),
            )
            for o_send in self.send_offsets
        ]
        recvs = [
            (
                self.peer_for(rank, o_recv),
                self._routes_tag(o_recv),
                offset_hops(o_recv),
                self.send_offsets.index(tuple(-o for o in o_recv)),
            )
            for o_recv in self.recv_offsets
        ]
        return RoundGeometry(sends, recvs)

    def _select_border(
        self, k: int, landed: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route every rank's local atoms to the send offsets: per rank
        neighbor-major with rows ascending — the order the per-offset
        ``flatnonzero`` sweeps concatenate in.  Radius 1 is one world
        classification over a padded block of every slab's local rows
        (:meth:`BorderBins.route_world`)."""
        nlocal = landed[0]
        if self._bins is not None:
            rows = self.arena.starts[:-1, None] + np.arange(nlocal.max(initial=0))
            return self._bins.route_world(np.take(self.arena.x, rows, axis=0, mode="clip"), nlocal)
        # Long-cutoff shells (radius > 1): the generic region test, one
        # sweep per offset and rank.
        parts, counts = [], []
        for rank, sub in enumerate(self._subs):
            x_local = self.atoms_of(rank).x_local()
            sweeps = [
                np.flatnonzero(sub.border_mask(x_local, o_send, self.rcomm))
                for o_send in self.send_offsets
            ]
            parts += sweeps
            counts.append([sweep.shape[0] for sweep in sweeps])
        return np.concatenate(parts), np.array(counts, dtype=np.intp)

    # -- RDMA setup -----------------------------------------------------------------
    def _border_setup(self) -> None:
        """Also the one-time registration of arrays and rings: every
        rank's slab of the arena, which the base class just sized to the
        theoretical maximum so the registration stays valid for the run."""
        super()._border_setup()
        if not self.rdma or self.engine is not None:
            return
        self.engine = RdmaEngine()
        budget = self._plan_budget()
        for rank in range(self.world.size):
            atoms = self.atoms_of(rank)
            self.endpoints[rank] = RdmaEndpoint(
                rank=rank,
                engine=self.engine,
                x_storage=atoms._x,
                f_storage=atoms._f,
                budget=budget,
                n_neighbors=len(self.recv_offsets),
                ring_depth=self.ring_depth,
                full_shell=self.full_shell,
            )
        self._registered = (self.arena, self.arena.layout)

    # -- border stage hooks ----------------------------------------------------------
    def _border_done(self, plane: str, epoch: Epoch) -> None:
        if self.rdma:
            # A registration is of a slab of one arena layout: while the
            # layout stands no slab has moved and there is nothing to compare.
            arena = self.arena
            if self._registered != (arena, arena.layout):
                for rank in range(self.world.size):
                    atoms = self.atoms_of(rank)
                    if self.endpoints[rank].revalidate(atoms._x, atoms._f):
                        self.reregistrations += 1
                        self._windows = None
                self._registered = (arena, arena.layout)
            self._exchange_windows(plane, epoch)

    def _exchange_windows(self, plane: str, epoch: Epoch) -> None:
        """Piggyback the ghost offsets + stags to senders (section 3.4).

        In hardware this rides in the border-stage descriptor (8 bytes);
        functionally we move a :class:`RemoteWindow` per route — on the
        border stage's plane: installed directly (same records logged),
        or enveloped through the transport one by one.
        """
        transport = self.world.transport
        transport.set_phase("border-piggyback")
        if plane == "direct":
            # Every route's window from its static part and the epoch's
            # ghost offset: where its receive lands.
            offsets = (epoch.recv_bounds[:, :-1] * 3).ravel().tolist()
            for (install, slot, rank, x_stag, ring), offset in zip(self._window_parts(), offsets):
                install(slot, RemoteWindow(rank, x_stag, offset, ring))
            transport.log.record_phase(*self._window_messages())
            return
        with TRACER.span(
            f"{self.name}.window-piggyback", cat="rdma", track="comm", pattern=self.name
        ):
            for rank, plan in enumerate(epoch.plans):
                endpoint = self.endpoints[rank]
                for n_idx, (src, lo, _, tag) in enumerate(plan.recvs(0, "window")):
                    window = endpoint.window_for_neighbor(n_idx, lo * 3)
                    transport.send(rank, src, tag, (n_idx, window))
            for rank, plan in enumerate(epoch.plans):
                endpoint = self.endpoints[rank]
                for s_idx, (peer, _, _, tag) in enumerate(plan.sends(0, "window")):
                    _, window = self._recv(transport, rank, peer, tag)
                    # Keyed by *our* send index: the slot put_positions uses.
                    endpoint.install_remote(s_idx, window)

    def _window_parts(self) -> list[tuple]:
        """What never changes about a route's window until a
        re-registration, per route rank-major in receive order: the
        sender's ``install_remote`` and the slot it is keyed by (the
        *sender's* send index: the slot its ``put_positions`` uses), and
        the advertising rank, its position array's STag and the ring
        serving the route."""
        if self._windows is None:
            self._windows = [
                (self.endpoints[src].install_remote, slot, rank, endpoint.x_region.stag,
                 tuple(endpoint.recv_rings[n_idx].stags()))
                for rank, (geom,) in enumerate(self._geom)
                for endpoint in (self.endpoints[rank],)
                for n_idx, (src, slot) in enumerate(zip(geom.recv_peers, geom.recv_slots))
            ]
        return self._windows

    def _window_messages(self) -> tuple[list[SentMessage], int]:
        """The piggyback phase's traffic records and their byte sum.

        Peers, tags and the payload size never change during a run (every
        ``(n_idx, RemoteWindow)`` weighs the same), so the records are
        built once, in the transport sends' rank-major/recv-offset order.
        """
        if self._window_msgs is None:
            nbytes = payload_nbytes((0, self.endpoints[0].window_for_neighbor(0, 0)))
            msgs = [
                SentMessage(rank, src, tag, nbytes, "border-piggyback")
                for rank, (geom,) in enumerate(self._geom)
                for src, tag in zip(geom.recv_peers, geom.wire_tags("window")[1])
            ]
            self._window_msgs = (msgs, nbytes * len(msgs))
        return self._window_msgs

    # -- rdma plane: PUTs into registered arrays and receive rings ------------
    # Selected for the vector phases of an ``rdma`` exchange when faults or
    # heavyweight observability are on.  It packs and drains through the
    # epoch's world table like the other planes and carries each send's
    # stage slice its own way: a windowed PUT lands the slice at exactly
    # ``recv_start`` rows of the remote array, and the ring round trip moves
    # each ghost block byte for byte into its send's stage slice — the
    # direct plane writes the same bytes to the same rows without the
    # staged-buffer/ring machinery.
    def _rdma_forward(self, data: np.ndarray, apply_shift: bool, phase: str, k: int) -> None:
        """Forward positions by direct PUT into remote position arrays
        (an rdma exchange's plan has one round: window slots and rings
        are numbered by segment)."""
        epoch = self._epoch
        stage = self._packed(data, apply_shift, k)
        with TRACER.span(
            f"{self.name}.forward-rdma", cat="rdma", track="comm", pattern=self.name
        ):
            # put_positions copies the slice into the staged send buffer,
            # so the stage is free for reuse immediately.
            for rank, (plan, at) in enumerate(zip(epoch.plans, epoch.world[k].packed_at)):
                endpoint = self.endpoints[rank]
                for s_idx, (_, start, stop, _) in enumerate(plan.sends(0)):
                    endpoint.put_positions(s_idx, stage[at + start : at + stop])
            # A PUT completes remotely only after the fence: poll until
            # every in-flight (fault-deferred) forward PUT has landed.
            self._rdma_fence("forward")
        self._fastpath_phases += 1

    def _rdma_reverse(self, data: np.ndarray, phase: str, k: int) -> None:
        """Reverse forces via length-prefixed PUTs into receive rings."""
        epoch = self._epoch
        rnd = epoch.world[k]
        stage = self._stage_of(data, rnd.bins.shape[0])
        starts = epoch.arena.starts.tolist()
        with TRACER.span(
            f"{self.name}.reverse-rdma", cat="rdma", track="comm", pattern=self.name
        ):
            # Ghost holders put into the owners' rings...
            for rank, (plan, base) in enumerate(zip(epoch.plans, starts)):
                endpoint = self.endpoints[rank]
                slots = self._geom[rank][0].recv_slots
                for r_idx, (peer, lo, hi, _) in enumerate(plan.recvs(0)):
                    # Our recv r_idx pairs with the owner's send of the
                    # opposite offset; the owner consumes rings in its own
                    # send order, so target the ring it will read.
                    ring = self.endpoints[peer].recv_rings[slots[r_idx]]
                    endpoint.put_into_ring(r_idx, ring, data[base + lo : base + hi])
            # ... and the owners drain them in deterministic order, each
            # route's block into its send's stage slice — what the shared
            # drain reads on every plane, so they stay bitwise identical.
            for rank, (plan, at) in enumerate(zip(epoch.plans, rnd.packed_at)):
                endpoint = self.endpoints[rank]
                for s_idx, (peer, start, stop, _) in enumerate(plan.sends(0)):
                    forces = split(
                        self._consume_ring(endpoint.recv_rings[s_idx], rank, peer),
                        trailing_shape=(3,),
                    )
                    if forces.shape[0] != stop - start:
                        raise RuntimeError(
                            f"reverse payload of {forces.shape[0]} rows does not "
                            f"match {stop - start} border atoms"
                        )
                    stage[at + start : at + stop] = forces
        self._sum_onto_owners(data, stage, rnd)
        self._fastpath_phases += 1

    # -- RDMA-plane robustness (fence + ring retry) ---------------------------
    def _rdma_fence(self, stage: str) -> None:
        """Poll until every in-flight (fault-deferred) PUT has landed.

        The message-plane analogue is :meth:`_recv`; here each retry
        poll ages the deferred-PUT store.  Without a fault session — or
        with nothing in flight — this returns immediately.
        """
        session = FAULTS.session
        if session is None or session.pending_deferred() == 0:
            return
        hbevents.emit_fence(stage, session.pending_deferred())

        def poll():
            session.release_tick()
            return session.pending_deferred() == 0 or None

        if not self._retry(
            poll, "rdma-fence", {"stage": stage, "pattern": self.name}, stage
        ):
            raise RetryExhaustedError(
                f"{session.pending_deferred()} RDMA PUT(s) still in flight after "
                f"{session.policy.max_retries} fence polls (stage {stage!r}, "
                f"pattern {self.name!r})"
            )

    def _consume_ring(self, ring, rank: int, peer: int) -> np.ndarray:
        """Consume a receive ring, retrying while its PUT is in flight.

        A ring-stale fault leaves the buffer clean (the §3.4 hazard:
        nothing marks it written yet), so :meth:`RecvBufferRing.consume`
        raises; each retry ages the deferred store until the PUT lands.
        """
        session = FAULTS.session
        try:
            return ring.consume()
        except BufferOverwriteError:
            if session is None:
                raise

        def poll():
            session.release_tick()
            try:
                return ring.consume()
            except BufferOverwriteError:
                return None

        data = self._retry(
            poll, "ring-retry", {"rank": rank, "peer": peer, "pattern": self.name},
            "reverse", rank=rank, peer=peer,
        )
        if data is None:
            raise RetryExhaustedError(
                f"rank {rank} ring from {peer} still stale after "
                f"{session.policy.max_retries} retries (pattern {self.name!r})"
            )
        return data


def check_preregistered(exchange: P2PExchange) -> tuple[bool, str]:
    """§3.4: the RDMA plane registered its arrays once for the whole run."""
    n = exchange.reregistrations
    return n == 0, f"{n} re-registrations"
