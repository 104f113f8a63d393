"""Oracle: the p2p border stage as it stood before the pack-once rewrite.

The per-route sweeps of ``P2PExchange._border_geometry``,
``_borders_impl`` and ``_exchange_windows`` from the parent of the commit
that made the border stage pack once per rank (``self`` renamed to
``ex``, methods turned into module functions): every route is masked
with ``SubBox.border_mask``, gathered with three fancy-index reads,
shifted, sent through the transport (``send_fast``/``recv_fast`` on the
direct plane, ``send``/``_recv`` otherwise) and appended to the receiver
one message at a time; windows always travel as full-envelope sends.  The
one omission is the parent's 27-bin ``BorderBins`` branch — it was only
taken where it equalled these mask sweeps, and that table no longer
exists.

``borders(ex)`` drives a live :class:`~repro.core.p2p.P2PExchange`.  It
keeps its own per-route records and concatenates them the old way — one
``np.concatenate`` of the per-route row sets, one ``np.repeat`` of the
per-route shifts — into the four arrays per rank an epoch is, and hands
them over through ``ex._new_epoch``, the install point the exchange's
own border stage uses.  Nothing under ``src/`` may import this.
"""

from __future__ import annotations

import numpy as np

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
    ex._border_setup()
    ex._epoch = None
    for rank in range(world.size):
        ex.atoms_of(rank).clear_ghosts()
    # On the direct plane border payloads skip the send envelope
    # (rank checks, fault arming, per-message instants) but keep the
    # identical traffic records.
    fast = ex._plane("border") == "direct"

    # Send sweep: every rank routes its border atoms to each
    # send-offset neighbor.
    routes = {rank: [] for rank in range(world.size)}  # per route: (send_idx, shift)
    for rank in range(world.size):
        atoms = ex.atoms_of(rank)
        sub, send_geom, _ = border_geometry(ex, rank)
        x_local = atoms.x_local()

        for n_idx, o_send in enumerate(ex.send_offsets):
            mask = sub.border_mask(x_local, o_send, ex.rcomm)
            send_idx = np.flatnonzero(mask).astype(np.intp)
            peer, shift, tag, wire_tag, hops = send_geom[n_idx]
            routes[rank].append((send_idx, shift))
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
    landed = {rank: [ex.atoms_of(rank).nlocal] for rank in range(world.size)}
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
            landed[rank].append(start + count)

    # The per-route arrays, concatenated, are the epoch.
    arrays = []
    for rank in range(world.size):
        counts = [send_idx.shape[0] for send_idx, _ in routes[rank]]
        arrays.append(
            (
                np.concatenate([send_idx for send_idx, _ in routes[rank]]),
                # Per-row shift table: adding it is bit-identical to the
                # per-route broadcast add (same addends, same dtype).
                np.repeat(np.stack([shift for _, shift in routes[rank]]), counts, axis=0),
                np.cumsum([0, *counts]),
                np.array(landed[rank]),
            )
        )
    epoch = ex._new_epoch(arrays)

    if ex.rdma:
        for rank in range(ex.world.size):
            atoms = ex.atoms_of(rank)
            if ex.endpoints[rank].revalidate(atoms._x, atoms._f):
                ex.reregistrations += 1
        _exchange_windows(ex, landed)
    ex._epoch = epoch


def _exchange_windows(ex, landed) -> None:
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
            _, _, recv_geom = border_geometry(ex, rank)
            for n_idx, (src, tag, _, _) in enumerate(recv_geom):
                window = endpoint.window_for_neighbor(n_idx, landed[rank][n_idx] * 3)
                transport.send(rank, src, tag + ("window",), (n_idx, window))
        for rank in range(ex.world.size):
            endpoint = ex.endpoints[rank]
            _, send_geom, _ = border_geometry(ex, rank)
            for s_idx, (peer, _, tag, _, _) in enumerate(send_geom):
                _, window = ex._recv(transport, rank, peer, tag + ("window",))
                # Keyed by *our* send index: the slot put_positions uses.
                endpoint.install_remote(s_idx, window)
