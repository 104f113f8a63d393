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

Both planes produce bit-identical ghost data; tests assert it.  This
class adds only the RDMA *delivery plane* (:meth:`_rdma_forward` /
:meth:`_rdma_reverse`) under the base class's one replay; an unobserved,
fault-free run of either flavour rides the base's direct plane.
"""

from __future__ import annotations

import numpy as np

from repro.core.border_bins import BorderBins
from repro.core.exchange_base import GhostExchange, RecvRoute, SendRoute
from repro.core.ghost import GhostBudget
from repro.core.message_combine import split
from repro.core.patterns import (
    half_shell_offsets,
    offset_hops,
    shell_offsets,
)
from repro.core.rdma_buffers import BufferOverwriteError, RdmaEndpoint
from repro.faults.injector import FAULTS, RetryExhaustedError
from repro.machine.rdma import RdmaEngine
from repro.md.domain import Domain
from repro.obs import hbevents
from repro.obs.trace import TRACER
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
        use_border_bins: bool = True,
        ring_depth: int = 4,
        density: float | None = None,
    ) -> None:
        super().__init__(world, domain, rcomm)
        if radius < 1:
            raise ValueError(f"shell radius must be >= 1, got {radius}")
        self.newton = newton
        self.radius = radius
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

        self.use_border_bins = use_border_bins and radius == 1
        self._bins: dict[int, BorderBins] = {}
        # Static border geometry per rank: the domain decomposition and
        # the rank grid never change during a run, so peers, PBC shifts,
        # tags and hop counts are computed once and replayed by every
        # border stage (only the atom selection is per-call work).
        self._geom: dict[int, tuple] = {}

        # RDMA plane state
        self.engine: RdmaEngine | None = None
        self.endpoints: dict[int, RdmaEndpoint] = {}
        self._density = density
        self._budget: GhostBudget | None = None
        self.reregistrations = 0

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

    def _border_geometry(self, rank: int) -> tuple:
        """(sub-box, send geometry, recv geometry) of ``rank``, built once.

        Send geometry is one ``(peer, shift, tag, wire tag, hops)`` tuple
        per send offset (in offset order); recv geometry one
        ``(src, tag, wire tag, hops)`` per recv offset.
        """
        geom = self._geom.get(rank)
        if geom is None:
            sub = self.sub_box_of(rank)
            sends = []
            for o_send in self.send_offsets:
                o_recv = tuple(-o for o in o_send)
                tag = self._routes_tag(o_recv)
                sends.append(
                    (
                        self.peer_for(rank, o_send),
                        self.shift_for_send(rank, o_send),
                        tag,
                        tag + ("border",),
                        offset_hops(o_send),
                    )
                )
            recvs = []
            for o_recv in self.recv_offsets:
                tag = self._routes_tag(o_recv)
                recvs.append(
                    (
                        self.peer_for(rank, o_recv),
                        tag,
                        tag + ("border",),
                        offset_hops(o_recv),
                    )
                )
            geom = (sub, sends, recvs)
            self._geom[rank] = geom
        return geom

    # -- analytic sizing -------------------------------------------------------------
    def _plan_budget(self) -> GhostBudget:
        """The analytic ghost budget sizing RDMA rings *and* buffer pools.

        Computed once from the measured density (or the configured one)
        and reused for every registration and pool allocation.
        """
        if self._budget is None:
            sub_len = float(np.min(self.domain.sub_lengths))
            if self._density is None:
                total_atoms = sum(
                    self.atoms_of(r).nlocal for r in range(self.world.size)
                )
                self._density = total_atoms / self.domain.box.volume
            self._budget = GhostBudget(a=sub_len, r=self.rcomm, density=self._density)
        return self._budget

    # -- RDMA setup -----------------------------------------------------------------
    def _ensure_rdma(self) -> None:
        """One-time registration of arrays and rings (setup stage)."""
        if not self.rdma or self.engine is not None:
            return
        self.engine = RdmaEngine()
        budget = self._plan_budget()
        for rank in range(self.world.size):
            atoms = self.atoms_of(rank)
            # Pre-size the atom arrays to the theoretical maximum so the
            # one-time registration stays valid for the whole run.
            max_total = budget.max_local_atoms() + budget.max_ghost_atoms(
                self.full_shell
            )
            atoms.reserve(max_total)
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

    # -- border stage ----------------------------------------------------------------
    def borders(self) -> None:
        """Direct border exchange with every shell neighbor."""
        with self._phase_span("border"):
            self._borders_impl()

    def _borders_impl(self) -> None:
        world = self.world
        transport = world.transport
        transport.set_phase("border")
        self._ensure_rdma()
        self._clear_routes()
        for rank in range(world.size):
            self.atoms_of(rank).clear_ghosts()
        # On the direct plane border payloads skip the send envelope
        # (rank checks, fault arming, per-message instants) but keep the
        # identical traffic records.
        fast = self._plane("border") == "direct"

        # Send sweep: every rank routes its border atoms to each
        # send-offset neighbor (bin-accelerated when exact).
        for rank in range(world.size):
            atoms = self.atoms_of(rank)
            sub, send_geom, _ = self._border_geometry(rank)
            x_local = atoms.x_local()

            idx_lists = None
            if self.use_border_bins:
                bins = self._bins.get(rank)
                if bins is None or bins.sub_box != sub:
                    try:
                        bins = BorderBins(sub, self.rcomm, self.send_offsets)
                        self._bins[rank] = bins
                    except ValueError:
                        bins = None
                if bins is not None and bins.is_exact():
                    idx_lists = bins.route(x_local)

            for n_idx, o_send in enumerate(self.send_offsets):
                if idx_lists is not None:
                    send_idx = idx_lists[n_idx]
                else:
                    mask = sub.border_mask(x_local, o_send, self.rcomm)
                    send_idx = np.flatnonzero(mask).astype(np.intp)
                peer, shift, tag, wire_tag, hops = send_geom[n_idx]
                self.routes[rank].sends.append(
                    SendRoute(
                        peer=peer,
                        send_idx=send_idx,
                        shift=shift,
                        tag=tag,
                        hops=hops,
                    )
                )
                payload = (
                    atoms.x[send_idx] + shift,
                    atoms.tag[send_idx],
                    atoms.type[send_idx],
                )
                if fast:
                    transport.send_fast(
                        rank, peer, wire_tag, payload,
                        payload[0].nbytes + payload[1].nbytes + payload[2].nbytes,
                    )
                else:
                    transport.send(rank, peer, wire_tag, payload)

        # Receive sweep: append ghosts in canonical recv-offset order.
        for rank in range(world.size):
            atoms = self.atoms_of(rank)
            _, _, recv_geom = self._border_geometry(rank)
            for src, tag, wire_tag, hops in recv_geom:
                if fast:
                    payload_x, payload_tag, payload_type = transport.recv_fast(
                        rank, src, wire_tag
                    )
                else:
                    payload_x, payload_tag, payload_type = self._recv(
                        transport, rank, src, wire_tag
                    )
                start, count = atoms.append_ghosts(payload_x, payload_tag, payload_type)
                self.routes[rank].recvs.append(
                    RecvRoute(
                        peer=src,
                        recv_start=start,
                        recv_count=count,
                        tag=tag,
                        hops=hops,
                    )
                )

        if self.rdma:
            for rank in range(self.world.size):
                atoms = self.atoms_of(rank)
                if self.endpoints[rank].revalidate(atoms._x, atoms._f):
                    self.reregistrations += 1
            self._exchange_windows()

    def _exchange_windows(self) -> None:
        """Piggyback the ghost offsets + stags to senders (section 3.4).

        In hardware this rides in the border-stage descriptor (8 bytes);
        functionally we move a :class:`RemoteWindow` per route.
        """
        transport = self.world.transport
        transport.set_phase("border-piggyback")
        with TRACER.span(
            f"{self.name}.window-piggyback", cat="rdma", track="comm", pattern=self.name
        ):
            for rank in range(self.world.size):
                endpoint = self.endpoints[rank]
                for n_idx, route in enumerate(self.routes[rank].recvs):
                    window = endpoint.window_for_neighbor(n_idx, route.recv_start * 3)
                    transport.send(
                        rank, route.peer, route.tag + ("window",), (n_idx, window)
                    )
            for rank in range(self.world.size):
                endpoint = self.endpoints[rank]
                for s_idx, route in enumerate(self.routes[rank].sends):
                    _, window = self._recv(
                        transport, rank, route.peer, route.tag + ("window",)
                    )
                    # Keyed by *our* send index: the slot put_positions uses.
                    endpoint.install_remote(s_idx, window)

    # -- rdma plane: PUTs into registered arrays and receive rings ------------
    # Selected for the vector phases of an ``rdma`` exchange when faults or
    # heavyweight observability are on; unobserved, a windowed PUT lands the
    # packed slice at exactly ``recv_start`` rows of the remote array and the
    # ring round trip moves each ghost block byte-for-byte into the owner's
    # pooled buffer — the direct plane writes the same bytes to the same rows
    # without the staged-buffer/ring machinery.
    def _rdma_forward(self, arrays, bufs, phase: str) -> None:
        """Forward positions by direct PUT into remote position arrays."""
        with TRACER.span(
            f"{self.name}.forward-rdma", cat="rdma", track="comm", pattern=self.name
        ):
            # put_positions copies the segment into the staged send
            # buffer, so the pool is free for reuse immediately.
            for rank, buf in enumerate(bufs):
                endpoint = self.endpoints[rank]
                for s_idx, seg in enumerate(self._plans[rank].send_segments):
                    endpoint.put_positions(s_idx, buf[seg.start : seg.stop])
            # A PUT completes remotely only after the fence: poll until
            # every in-flight (fault-deferred) forward PUT has landed.
            self._rdma_fence("forward")
        self._fastpath_phases += 1

    def _rdma_reverse(self, arrays, bufs, phase: str) -> None:
        """Reverse forces via length-prefixed PUTs into receive rings."""
        with TRACER.span(
            f"{self.name}.reverse-rdma", cat="rdma", track="comm", pattern=self.name
        ):
            # Ghost holders put into the owners' rings...
            for rank in range(self.world.size):
                endpoint = self.endpoints[rank]
                for r_idx, seg in enumerate(self._plans[rank].recv_segments):
                    # Our recv offset index r_idx pairs with the owner's
                    # send route of the opposite offset; the owner consumes
                    # rings in its own send order, so target the ring it
                    # will read.
                    ring = self.endpoints[seg.peer].recv_rings[
                        self._owner_ring_index(seg.tag)
                    ]
                    endpoint.put_into_ring(
                        r_idx, ring, arrays[rank][seg.lo : seg.lo + seg.n]
                    )
            # ... and the owners drain them in deterministic order, each
            # route's block into the pooled buffer the shared fused scatter
            # reads — the same summation the message plane uses, so both
            # planes stay bitwise identical.
            for rank, buf in enumerate(bufs):
                endpoint = self.endpoints[rank]
                for seg in self._plans[rank].send_segments:
                    ring = endpoint.recv_rings[self._owner_ring_index(seg.tag)]
                    forces = split(
                        self._consume_ring(ring, rank, seg.peer), trailing_shape=(3,)
                    )
                    if forces.shape[0] != seg.stop - seg.start:
                        raise RuntimeError(
                            f"reverse payload of {forces.shape[0]} rows does not "
                            f"match {seg.stop - seg.start} border atoms"
                        )
                    buf[seg.start : seg.stop] = forces
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

    def _owner_ring_index(self, tag: tuple) -> int:
        """Which of the owner's rings serves the route tagged ``tag``.

        Rings are allocated per recv-offset slot; for reverse traffic we
        reuse the owner's *send* slot index (both sides enumerate offsets
        in the same canonical order, so the index is deterministic).
        """
        o_recv = tag[1]
        o_send = tuple(-o for o in o_recv)
        return self.send_offsets.index(o_send)

    # -- schedule export (consumed by the perfmodel) -----------------------------------------
    def message_schedule(self, rank: int, bytes_per_atom: int = 24):
        """(nbytes, hops) of this rank's forward-stage sends."""
        return [
            (route.count * bytes_per_atom, route.hops)
            for route in self.routes[rank].sends
        ]
