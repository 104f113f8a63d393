"""Static round geometry, per-epoch plan arrays and the world tables.

The paper's §3.4 discipline — compute addresses and sizes once,
pre-register, then reuse every step — applied to the *functional*
exchange hot path.  What the exchange knows splits in two:

* **Static** (:class:`RoundGeometry`, built once per run): everything
  about a neighbour that the decomposition fixes — peer, tags (base and
  on the wire, per phase), hops, PBC shift, and which of the sender's
  sends each receive pairs with.  A route's peer, tag and hops live here
  and nowhere else.  :class:`WorldGeometry` holds the same, world-wide:
  per round the columns over every rank the border stage packs and logs
  through.
* **An epoch** (:class:`Epoch`, one per border stage): per rank four
  arrays in a :class:`RankPlan` — which atom rows to gather
  (``fwd_idx``), the shift each row gets (``shift_rows``), where each
  send's rows sit in the packed buffer (``send_bounds``) and where each
  received block lands (``recv_bounds``) — the one offset and one length
  per neighbour the border stage piggybacks.  A route is geometry x
  bounds; the border stage writes them world-wide, one
  :class:`BorderRound` per round, as it packs and lands each round, and
  the plans are rank slices of those arrays; the next stage replaces the
  epoch whole, together with everything derived from it (wiring, traffic
  records, priced times).

The ranks' atoms share one :class:`~repro.md.atoms.AtomArena`, so the
epoch also holds the plans **world-wide**: per :class:`Round` of the
schedule (one for the direct-neighbour patterns, one per swap for the
staged 3-stage sweep) a :class:`WorldRound` of arena row numbers — the
round's packed rows plus slab starts, permuted into destination order
through the static pairing.  The per-step work of a round is one gather each way through a
staging block as long as the arena:

* **forward**: one ``np.take`` and one vectorized shift add.  The direct
  plane gathers in destination order and copies one slice per rank into
  its landing span; the planes that move messages (mailbox, RDMA) gather
  in source-packed order (:attr:`WorldRound.bins`), so send ``j`` of a
  rank is one slice of the stage, and carry each slice;
* **reverse**: every owner's contributions land in the stage in
  source-packed order — gathered from the ghost rows by the direct plane,
  received slice by slice by the others — and one ``bincount`` per
  component over the whole world adds them onto the owned rows.

Every plane therefore sums an owner row's contributions from zero, in the
rank's packed order, then adds the sum to the row — so all three stay
bit-identical, and they differ only in how each send's slice travels.

Bit-identity notes (load-bearing, do not "simplify"):

* the shift add runs unconditionally over the whole packed block when
  shifts apply — skipping all-zero shifts would turn ``-0.0`` into
  ``+0.0`` relative to the seed path's ``payload += route.shift``;
* the reverse scatter is bounded to the round's ``data[:scatter_len]``
  in every slab that sends (:attr:`WorldRound.owned`) so it never writes
  the ghost rows that round's planes read — zero-copy reverse payloads
  are live views of ghost rows while owners apply — and never adds
  ``+ 0.0`` to a row the round does not sum into;
* a staged round is one swap, never a dimension's pair: an atom both
  swaps send would be summed ``f + (c+ + c-)`` by one ``bincount`` where
  the staged replay sums ``(f + c-) + c+`` (docs/performance.md).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.md.atoms import AtomArena
from repro.runtime.transport import SentMessage


class RoundGeometry:
    """What never changes about one rank's part in one round: the domain
    decomposition and the rank grid are fixed for a run, so peers, PBC
    shifts, tags and hop counts are computed once (only the atom
    selection is per-epoch work).

    Built from one ``(peer, shift, tag, hops)`` per send and one ``(src,
    tag, hops, src's send slot in the round)`` per receive; the slot is
    the static send<->recv pairing.
    """

    __slots__ = (
        "send_peers", "send_tags", "send_hops", "shifts",
        "recv_peers", "recv_tags", "recv_hops", "recv_slots", "_wire",
    )

    def __init__(self, sends: list[tuple], recvs: list[tuple]) -> None:
        self.send_peers, shifts, self.send_tags, self.send_hops = map(list, zip(*sends))
        self.shifts = np.array(shifts)  # (n_sends, 3)
        self.recv_peers, self.recv_tags, self.recv_hops, self.recv_slots = map(
            list, zip(*recvs)
        )
        self._wire: dict[str, tuple[list[tuple], list[tuple]]] = {}

    def wire_tags(self, phase: str | None) -> tuple[list[tuple], list[tuple]]:
        """(send tags, recv tags) as ``phase`` puts them on the wire (the
        base tags for ``None``)."""
        if phase is None:
            return self.send_tags, self.recv_tags
        tags = self._wire.get(phase)
        if tags is None:
            tags = self._wire[phase] = (
                [tag + (phase,) for tag in self.send_tags],
                [tag + (phase,) for tag in self.recv_tags],
            )
        return tags


class Round(NamedTuple):
    """One fenced step of a plan's schedule.

    A direct-neighbour pattern has one round; the staged sweep has one per
    swap, because a later swap packs rows an earlier one delivered.  Rounds
    own disjoint slices of the plan's packed rows, so nothing aliases
    across them.
    """

    rows: slice  # this round's packed rows: of fwd_idx / shift_rows
    idx: np.ndarray  # fwd_idx[rows]
    shifts: np.ndarray  # shift_rows[rows]
    sends: slice  # its sends, as positions in send_bounds
    recvs: slice  # its receives, as positions in recv_bounds
    #: reverse scatters touch ``data[:scatter_len]`` only: the rows below
    #: the round's own landing zone.  Every send row lies there (it was
    #: present before the round's ghosts were appended) and the ghost rows
    #: the planes are still reading lie above — while rows an *earlier*
    #: round delivered may accumulate, which is the staged forwarding.
    scatter_len: int


class RankPlan:
    """One rank's four epoch arrays over its static geometry.

    ``fwd_idx`` / ``shift_rows`` are the gather the border stage packed
    through; send ``j`` owns packed rows ``send_bounds[j]:send_bounds[j +
    1]`` and receive ``i`` lands in atom rows ``recv_bounds[i]:
    recv_bounds[i + 1]`` — sends and receives numbered round-major, as the
    geometry lists them.  An epoch's plans are views of its world arrays.
    """

    __slots__ = (
        "geom", "fwd_idx", "shift_rows", "send_bounds", "recv_bounds",
        "n_pack", "_rounds",
    )

    def __init__(
        self,
        geom: list[RoundGeometry],
        fwd_idx: np.ndarray,
        shift_rows: np.ndarray,
        send_bounds: np.ndarray,
        recv_bounds: np.ndarray,
    ) -> None:
        self.geom = geom
        self.fwd_idx = fwd_idx
        self.shift_rows = shift_rows
        self.send_bounds = send_bounds
        self.recv_bounds = recv_bounds
        self.n_pack = int(send_bounds[-1])
        self._rounds: list[Round] | None = None

    @property
    def rounds(self) -> list[Round]:
        """The plan cut per :class:`Round` (on first use: the direct plane
        replays the world tables and never asks)."""
        if self._rounds is None:
            self._rounds = []
            s = r = 0
            for g in self.geom:
                s_hi, r_hi = s + len(g.send_peers), r + len(g.recv_peers)
                rows = slice(int(self.send_bounds[s]), int(self.send_bounds[s_hi]))
                self._rounds.append(
                    Round(
                        rows, self.fwd_idx[rows], self.shift_rows[rows],
                        slice(s, s_hi), slice(r, r_hi), int(self.recv_bounds[r]),
                    )
                )
                s, r = s_hi, r_hi
        return self._rounds

    # -- routes: geometry x bounds -------------------------------------------
    def sends(self, k: int, phase: str | None = None) -> zip:
        """``(peer, start, stop, tag)`` of every send of round ``k``: its
        packed rows and its tag on ``phase``'s wire (the
        base tag without a phase)."""
        at = self.rounds[k].sends
        bounds = self.send_bounds[at.start : at.stop + 1].tolist()
        g = self.geom[k]
        return zip(g.send_peers, bounds, bounds[1:], g.wire_tags(phase)[0])

    def recvs(self, k: int, phase: str | None = None) -> zip:
        """``(peer, lo, hi, tag)`` of every receive of round ``k``: its
        rows of the atom arrays."""
        at = self.rounds[k].recvs
        bounds = self.recv_bounds[at.start : at.stop + 1].tolist()
        g = self.geom[k]
        return zip(g.recv_peers, bounds, bounds[1:], g.wire_tags(phase)[1])

    def send_sizes(self) -> tuple[list[int], list[int]]:
        """(atom count, hops) of every send, round-major."""
        hops = [h for g in self.geom for h in g.send_hops]
        return np.diff(self.send_bounds).tolist(), hops


def ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(first[i], first[i] + counts[i])`` for every ``i``, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(first - (ends - counts), counts) + np.arange(int(counts.sum()))


class WorldGeometry:
    """The run's static part, world-wide: every rank's
    :class:`RoundGeometry` as columns over all ranks, per round.

    Every rank plays a part of the same shape in a round — as many sends
    and receives as every other rank — so a round's per-send values are
    ``(ranks, sends)`` tables, flattened rank-major: the PBC shift of each
    send (``shifts``), the flat send each receive pairs with, receives in
    destination order — rank by rank, receive by receive (``pairs``) — and
    the hops of every send of the run (``hops``, ``(ranks, sends)``
    round-major).  Built once, by the first border stage.
    """

    def __init__(self, geom: list[list[RoundGeometry]]) -> None:
        self.geom = geom
        self.n_sends: list[int] = []
        self.n_recvs: list[int] = []
        self.shifts: list[np.ndarray] = []
        self.pairs: list[np.ndarray] = []
        for k in range(len(geom[0])):
            parts = [rounds[k] for rounds in geom]
            shapes = {(len(g.send_peers), len(g.recv_peers)) for g in parts}
            if len(shapes) > 1:
                raise ValueError(
                    f"round {k}: ranks differ in their (sends, receives): {sorted(shapes)}"
                )
            ((n_sends, n_recvs),) = shapes
            self.n_sends.append(n_sends)
            self.n_recvs.append(n_recvs)
            self.shifts.append(np.concatenate([g.shifts for g in parts]))
            self.pairs.append(
                np.array(
                    [
                        src * n_sends + slot
                        for g in parts
                        for src, slot in zip(g.recv_peers, g.recv_slots)
                    ],
                    dtype=np.intp,
                )
            )
        self.hops = np.array(
            [[h for g in rounds for h in g.send_hops] for rounds in geom], dtype=np.int64
        )
        self._routes: dict[tuple, list[tuple]] = {}

    def records(
        self, k: int, phase: str, sends: bool, counts: np.ndarray, width: int
    ) -> list[SentMessage]:
        """The traffic records of every send (receive) of round ``k``,
        rank-major in route order, carrying ``counts`` rows of ``width``
        bytes: the static ``(rank, peer, tag on phase's wire)`` columns
        times the epoch's counts."""
        key = (k, phase, sends)
        routes = self._routes.get(key)
        if routes is None:
            routes = self._routes[key] = [
                (rank, peer, tag)
                for rank, rounds in enumerate(self.geom)
                for peer, tag in zip(
                    rounds[k].send_peers if sends else rounds[k].recv_peers,
                    rounds[k].wire_tags(phase)[0 if sends else 1],
                )
            ]
        return [
            SentMessage(rank, peer, tag, n * width, phase)
            for (rank, peer, tag), n in zip(routes, counts.tolist())
        ]

    def dest_order(self, k: int, counts: np.ndarray) -> np.ndarray:
        """Round ``k``'s packed rows — ``counts`` of them per send,
        source-packed — listed in destination order."""
        flat = counts.ravel()
        pairs = self.pairs[k]
        return ranges((np.cumsum(flat) - flat)[pairs], flat[pairs])


class BorderRound(NamedTuple):
    """What one round of a border stage packed, world-wide, in
    source-packed order — rank by rank, send by send, rows ascending."""

    idx: np.ndarray  # the rows sent, numbered within the sender's slab
    shift_rows: np.ndarray  # the PBC shift each one got
    counts: np.ndarray  # (ranks, sends): rows per send
    #: the packed rows in destination order (:meth:`WorldGeometry.dest_order`)
    order: np.ndarray


class WorldRound(NamedTuple):
    """One round of the whole world as arena rows: what every plane
    replays, one gather each way (docs/performance.md, *The round table*).

    The direct plane's forward is in **destination order** — rank by rank,
    receive by receive, rows ascending — so each rank's block of the
    gathered stage is one slice copy into its contiguous landing span.
    Everything else is in **source-packed order** — rank by rank, send by
    send, rows ascending, the order of the rank's own packed rows — so
    send ``j`` of ``rank`` is stage rows ``packed_at[rank] + start :
    packed_at[rank] + stop`` for its ``(start, stop)`` in
    :meth:`RankPlan.sends`, and one ``bincount`` over the world sums every
    owner row's contributions in the rank's packed order.
    """

    src_rows: np.ndarray  # arena rows gathered forward, destination order
    shifts: np.ndarray  # the PBC shift of each, same order
    #: per receiving rank ``(lo, hi, a, b)``: stage rows ``a:b`` land in
    #: arena rows ``lo:hi``
    spans: list[tuple[int, int, int, int]]
    ghost_rows: np.ndarray  # arena ghost rows read by reverse, source-packed order
    bins: np.ndarray  # the owner row each one sums into (fwd_idx + slab start)
    pack_shifts: np.ndarray  # the PBC shift of each bins row, same order
    #: per rank, where its packed rows of the round start in the stage,
    #: less their start in its own send bounds
    packed_at: list[int]
    #: arena rows reverse may write: below the round's ``scatter_len`` in
    #: every slab that sends in the round (:class:`Round`) — nothing else
    #: may even see ``+ 0.0``, which would turn a ``-0.0`` positive
    owned: np.ndarray


class Epoch:
    """What one border stage decided, world-wide: every rank's
    :class:`RankPlan` and everything derived from them.  Installed whole
    when the stage completes and dropped whole by the next migration, so
    invalidating any of it is replacing the epoch.

    Built from the stage's world arrays — a :class:`BorderRound` per round
    and every rank's receive bounds, ``(ranks, receives + 1)`` — whose
    rank slices are the plans.  ``world`` is every plane's wiring, a
    :class:`WorldRound` per round of arena row numbers; arrays whose send
    and paired receive disagree on a row count cannot be wired and are
    refused (``ValueError``).  Row numbers mean something under one layout
    of one arena only: the epoch names both (``arena``, ``layout``) and is
    stale once the arena's moved on.
    """

    __slots__ = (
        "plans", "arena", "layout", "world", "counts", "landed", "recv_bounds",
        "send_sizes", "records", "priced",
    )

    def __init__(
        self,
        geometry: WorldGeometry,
        rounds: list[BorderRound],
        recv_bounds: np.ndarray,
        arena: AtomArena,
    ) -> None:
        self.arena = arena
        self.layout = arena.layout
        #: per round, the ``(ranks, sends)`` rows of every send ...
        self.counts = [rnd.counts for rnd in rounds]
        #: ... and of every receive, destination order
        self.landed: list[np.ndarray] = []
        #: ``(ranks, receives + 1)``: every rank's receive bounds
        self.recv_bounds = recv_bounds
        counts = np.concatenate(self.counts, axis=1)
        send_bounds = np.zeros((counts.shape[0], counts.shape[1] + 1), dtype=np.intp)
        np.cumsum(counts, axis=1, out=send_bounds[:, 1:])
        #: ``(atom count, hops)`` of every rank's sends, ``(ranks, sends)``
        #: round-major: what the modeled clock prices
        self.send_sizes = (counts, geometry.hops)
        self.world = self._world_rounds(geometry, rounds, send_bounds, recv_bounds)
        self.plans = self._plans(geometry, rounds, send_bounds, recv_bounds)
        #: (phase, vec, forward) -> the phase's traffic records and byte sum
        self.records: dict = {}
        #: modeled times (:mod:`repro.core.modeling`)
        self.priced: dict = {}

    @staticmethod
    def _plans(
        geometry: WorldGeometry,
        rounds: list[BorderRound],
        send_bounds: np.ndarray,
        recv_bounds: np.ndarray,
    ) -> list[RankPlan]:
        """Every rank's plan, its arrays rank slices of the world's (the
        rounds' packed rows regrouped rank-major when there are several)."""
        fwd_idx, shift_rows = rounds[0].idx, rounds[0].shift_rows
        if len(rounds) > 1:
            n = np.stack([rnd.counts.sum(axis=1) for rnd in rounds], axis=1)
            per_round = n.sum(axis=0)
            first = np.cumsum(n, axis=0) - n + (np.cumsum(per_round) - per_round)
            rank_major = ranges(first.ravel(), n.ravel())
            fwd_idx = np.concatenate([rnd.idx for rnd in rounds])[rank_major]
            shift_rows = np.concatenate([rnd.shift_rows for rnd in rounds])[rank_major]
        n_pack = send_bounds[:, -1]
        return [
            RankPlan(geom, fwd_idx[a : a + n], shift_rows[a : a + n], sends, recvs)
            for geom, a, n, sends, recvs in zip(
                geometry.geom, (np.cumsum(n_pack) - n_pack).tolist(), n_pack.tolist(),
                send_bounds, recv_bounds,
            )
        ]

    def _world_rounds(
        self,
        geometry: WorldGeometry,
        rounds: list[BorderRound],
        send_bounds: np.ndarray,
        recv_bounds: np.ndarray,
    ) -> list[WorldRound]:
        """The world tables: per round the packed rows plus slab starts
        (source-packed order), permuted into destination order."""
        starts = self.arena.starts[:-1]
        world = []
        s = r = 0
        for k, rnd in enumerate(rounds):
            n_sends, n_recvs = geometry.n_sends[k], geometry.n_recvs[k]
            pairs = geometry.pairs[k]
            sent = rnd.counts.ravel()[pairs]
            landed = np.diff(recv_bounds[:, r : r + n_recvs + 1], axis=1).ravel()
            if not np.array_equal(sent, landed):
                i = int(np.flatnonzero(sent != landed)[0])
                raise ValueError(
                    f"round {k}: rank {pairs[i] // n_sends} sends {sent[i]} rows to rank "
                    f"{i // n_recvs}, whose paired receive lands {landed[i]}"
                )
            self.landed.append(sent)
            n_rows = rnd.counts.sum(axis=1)
            bins = rnd.idx + np.repeat(starts, n_rows)
            lo, hi = recv_bounds[:, r], recv_bounds[:, r + n_recvs]
            ghost_rows = np.empty_like(bins)
            ghost_rows[rnd.order] = ranges(starts + lo, hi - lo)
            # where a rank's packed rows of the round begin, world-wide,
            # less where they begin in its own send bounds
            packed_at = np.cumsum(n_rows) - n_rows - send_bounds[:, s]
            spans, owned = [], np.zeros(self.arena.rows, dtype=bool)
            a = 0
            for start, low, high, sends in zip(
                starts.tolist(), lo.tolist(), hi.tolist(), n_rows.tolist()
            ):
                if high > low:
                    spans.append((start + low, start + high, a, a + high - low))
                    a += high - low
                if sends:
                    owned[start : start + low] = True
            world.append(
                WorldRound(
                    np.take(bins, rnd.order), np.take(rnd.shift_rows, rnd.order, axis=0),
                    spans, ghost_rows, bins, rnd.shift_rows, packed_at.tolist(), owned,
                )
            )
            s, r = s + n_sends, r + n_recvs
        return world
