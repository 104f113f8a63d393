"""Oracle: the p2p border stage as it stood before the pack-once rewrite.

Verbatim copies (only ``self`` renamed to ``ex`` and methods turned into
module functions) of ``P2PExchange._border_geometry``, ``_borders_impl``
and ``_exchange_windows`` from the parent of the commit that made the
border stage pack once per rank: every route is masked with
``SubBox.border_mask``, gathered with three fancy-index reads, shifted,
sent through the transport (``send_fast``/``recv_fast`` on the direct
plane, ``send``/``_recv`` otherwise) and appended to the receiver one
message at a time; windows always travel as full-envelope sends.  The
one omission is the parent's 27-bin ``BorderBins`` branch — it was only
taken where it equalled these mask sweeps, and that table no longer
exists.

``borders(ex)`` drives a live :class:`~repro.core.p2p.P2PExchange` and
leaves ``ex._flat`` alone, so the exchange's ``RankPlan`` s are then
built the old way too — by concatenating the per-route arrays.  Nothing
under ``src/`` may import this.
"""

from __future__ import annotations

import numpy as np

from repro.core.exchange_base import RecvRoute, SendRoute
from repro.core.patterns import offset_hops
from repro.obs.trace import TRACER


def border_geometry(ex, rank: int) -> tuple:
    """(sub-box, send geometry, recv geometry) of ``rank``.

    Send geometry is one ``(peer, shift, tag, wire tag, hops)`` tuple
    per send offset (in offset order); recv geometry one
    ``(src, tag, wire tag, hops)`` per recv offset.
    """
    sub = ex.sub_box_of(rank)
    sends = []
    for o_send in ex.send_offsets:
        o_recv = tuple(-o for o in o_send)
        tag = ex._routes_tag(o_recv)
        sends.append(
            (
                ex.peer_for(rank, o_send),
                ex.shift_for_send(rank, o_send),
                tag,
                tag + ("border",),
                offset_hops(o_send),
            )
        )
    recvs = []
    for o_recv in ex.recv_offsets:
        tag = ex._routes_tag(o_recv)
        recvs.append(
            (
                ex.peer_for(rank, o_recv),
                tag,
                tag + ("border",),
                offset_hops(o_recv),
            )
        )
    return (sub, sends, recvs)


def borders(ex) -> None:
    """Direct border exchange with every shell neighbor."""
    with ex._phase_span("border"):
        _borders_impl(ex)


def _borders_impl(ex) -> None:
    world = ex.world
    transport = world.transport
    transport.set_phase("border")
    ex._ensure_rdma()
    ex._clear_routes()
    for rank in range(world.size):
        ex.atoms_of(rank).clear_ghosts()
    # On the direct plane border payloads skip the send envelope
    # (rank checks, fault arming, per-message instants) but keep the
    # identical traffic records.
    fast = ex._plane("border") == "direct"

    # Send sweep: every rank routes its border atoms to each
    # send-offset neighbor.
    for rank in range(world.size):
        atoms = ex.atoms_of(rank)
        sub, send_geom, _ = border_geometry(ex, rank)
        x_local = atoms.x_local()

        for n_idx, o_send in enumerate(ex.send_offsets):
            mask = sub.border_mask(x_local, o_send, ex.rcomm)
            send_idx = np.flatnonzero(mask).astype(np.intp)
            peer, shift, tag, wire_tag, hops = send_geom[n_idx]
            ex.routes[rank].sends.append(
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
        atoms = ex.atoms_of(rank)
        _, _, recv_geom = border_geometry(ex, rank)
        for src, tag, wire_tag, hops in recv_geom:
            if fast:
                payload_x, payload_tag, payload_type = transport.recv_fast(
                    rank, src, wire_tag
                )
            else:
                payload_x, payload_tag, payload_type = ex._recv(
                    transport, rank, src, wire_tag
                )
            start, count = atoms.append_ghosts(payload_x, payload_tag, payload_type)
            ex.routes[rank].recvs.append(
                RecvRoute(
                    peer=src,
                    recv_start=start,
                    recv_count=count,
                    tag=tag,
                    hops=hops,
                )
            )

    if ex.rdma:
        for rank in range(ex.world.size):
            atoms = ex.atoms_of(rank)
            if ex.endpoints[rank].revalidate(atoms._x, atoms._f):
                ex.reregistrations += 1
        _exchange_windows(ex)


def _exchange_windows(ex) -> None:
    """Piggyback the ghost offsets + stags to senders (section 3.4).

    In hardware this rides in the border-stage descriptor (8 bytes);
    functionally we move a :class:`RemoteWindow` per route.
    """
    transport = ex.world.transport
    transport.set_phase("border-piggyback")
    with TRACER.span(
        f"{ex.name}.window-piggyback", cat="rdma", track="comm", pattern=ex.name
    ):
        for rank in range(ex.world.size):
            endpoint = ex.endpoints[rank]
            for n_idx, route in enumerate(ex.routes[rank].recvs):
                window = endpoint.window_for_neighbor(n_idx, route.recv_start * 3)
                transport.send(
                    rank, route.peer, route.tag + ("window",), (n_idx, window)
                )
        for rank in range(ex.world.size):
            endpoint = ex.endpoints[rank]
            for s_idx, route in enumerate(ex.routes[rank].sends):
                _, window = ex._recv(
                    transport, rank, route.peer, route.tag + ("window",)
                )
                # Keyed by *our* send index: the slot put_positions uses.
                endpoint.install_remote(s_idx, window)
