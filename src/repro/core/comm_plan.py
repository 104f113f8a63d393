"""Static round geometry, per-epoch plan arrays and the world tables.

The paper's §3.4 discipline — compute addresses and sizes once,
pre-register, then reuse every step — applied to the *functional*
exchange hot path.  What the exchange knows splits in two:

* **Static** (:class:`RoundGeometry`, built once per run): everything
  about a neighbour that the decomposition fixes — peer, tags (base and
  on the wire, per phase), hops, PBC shift, and which of the sender's
  sends each receive pairs with.  A route's peer, tag and hops live here
  and nowhere else.
* **An epoch** (:class:`Epoch`, one per border stage): per rank four
  arrays in a :class:`RankPlan` — which atom rows to gather
  (``fwd_idx``), the shift each row gets (``shift_rows``), where each
  send's rows sit in the packed buffer (``send_bounds``) and where each
  received block lands (``recv_bounds``) — the one offset and one length
  per neighbour the border stage piggybacks.  A route is geometry x
  bounds; the border stage writes the arrays as it packs and lands each
  round, and the next one replaces the epoch whole, together with
  everything derived from it (wiring, traffic records, priced times).

The ranks' atoms share one :class:`~repro.md.atoms.AtomArena`, so the
epoch also holds the plans **world-wide**: per :class:`Round` of the
schedule (one for the direct-neighbour patterns, one per swap for the
staged 3-stage sweep) a :class:`WorldRound` of arena row numbers — the
plans' arrays rank-concatenated plus slab starts, read through the static
pairing.  The per-step work of a round is one gather each way through a
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
    geometry lists them.
    """

    __slots__ = (
        "geom", "fwd_idx", "shift_rows", "send_bounds", "recv_bounds",
        "n_pack", "rounds",
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
        self.rounds: list[Round] = []
        s = r = 0
        for g in geom:
            s_hi, r_hi = s + len(g.send_peers), r + len(g.recv_peers)
            rows = slice(int(send_bounds[s]), int(send_bounds[s_hi]))
            self.rounds.append(
                Round(
                    rows, fwd_idx[rows], shift_rows[rows],
                    slice(s, s_hi), slice(r, r_hi), int(recv_bounds[r]),
                )
            )
            s, r = s_hi, r_hi

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


def pair_table(geom: list[list[RoundGeometry]]) -> list[tuple[np.ndarray, ...]]:
    """The static send<->recv pairing of the whole world, per round:
    ``(src, send position, dst, recv position)`` columns, one row per
    route, positions indexing the rank-concatenated ``send_bounds`` /
    ``recv_bounds`` (``n + 1`` entries per rank).  ``geom[rank][k]`` is
    the rank's part in round ``k``."""

    def firsts(counts: list[list[int]]) -> np.ndarray:
        # (ranks, rounds) route counts -> where each one's first route sits
        n = np.array(counts)
        per_rank = n.sum(axis=1) + 1
        return (np.cumsum(per_rank) - per_rank)[:, None] + np.cumsum(n, axis=1) - n

    s_first = firsts([[len(g.send_peers) for g in rounds] for rounds in geom])
    r_first = firsts([[len(g.recv_peers) for g in rounds] for rounds in geom])
    table = []
    for k in range(len(geom[0])):
        rows = [
            (src, s_first[src][k] + slot, dst, r_first[dst][k] + i)
            for dst, rounds in enumerate(geom)
            for i, (src, slot) in enumerate(zip(rounds[k].recv_peers, rounds[k].recv_slots))
        ]
        table.append(tuple(np.array(rows, dtype=np.intp).T))
    return table


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(first[i], first[i] + counts[i])`` for every ``i``, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(first - (ends - counts), counts) + np.arange(int(counts.sum()))


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

    ``world`` is every plane's wiring, a :class:`WorldRound` per round of
    arena row numbers; plans whose send and paired receive disagree on a
    row count cannot be wired and are refused (``ValueError``).  Row
    numbers mean something under one layout of one arena only: the epoch
    names both (``arena``, ``layout``) and is stale once the arena's moved
    on.
    """

    __slots__ = ("plans", "arena", "layout", "world", "records", "priced")

    def __init__(
        self, plans: list[RankPlan], pairs: list[tuple[np.ndarray, ...]], arena: AtomArena
    ) -> None:
        self.plans = plans
        self.arena = arena
        self.layout = arena.layout
        self.world = self._world_rounds(pairs)
        #: (phase, vec, forward) -> the phase's traffic records and byte sum
        self.records: dict = {}
        #: modeled times (:mod:`repro.core.modeling`)
        self.priced: dict = {}

    def _world_rounds(self, pairs: list[tuple[np.ndarray, ...]]) -> list[WorldRound]:
        """The world tables: per round the plans' arrays rank-concatenated
        (source-packed order), plus slab starts, read through the static
        pairing (destination order)."""
        plans, starts = self.plans, self.arena.starts[:-1]
        send_bounds = np.concatenate([plan.send_bounds for plan in plans])
        recv_bounds = np.concatenate([plan.recv_bounds for plan in plans])
        recv_ends = [plan.recv_bounds.tolist() for plan in plans]
        world = []
        for k, (src, s_at, dst, r_at) in enumerate(pairs):
            counts = send_bounds[s_at + 1] - send_bounds[s_at]
            landed = recv_bounds[r_at + 1] - recv_bounds[r_at]
            if not np.array_equal(counts, landed):
                i = int(np.flatnonzero(counts != landed)[0])
                raise ValueError(
                    f"round {k}: rank {src[i]} sends {counts[i]} rows to rank {dst[i]}, "
                    f"whose paired receive lands {landed[i]}"
                )
            rounds = [plan.rounds[k] for plan in plans]
            n_rows = np.array([rnd.idx.size for rnd in rounds])
            bins = np.concatenate([rnd.idx for rnd in rounds]) + np.repeat(starts, n_rows)
            # where a rank's packed rows of the round begin, world-wide,
            # less where they begin in its own send bounds
            packed_at = np.cumsum(n_rows) - n_rows - [rnd.rows.start for rnd in rounds]
            # pair tables list routes in destination order
            packed = _ranges(packed_at[src] + send_bounds[s_at], counts)
            ghost_rows = np.empty_like(bins)
            ghost_rows[packed] = _ranges(starts[dst] + recv_bounds[r_at], counts)
            spans, owned = [], np.zeros(self.arena.rows, dtype=bool)
            a = 0
            for start, ends, rnd in zip(starts.tolist(), recv_ends, rounds):
                lo, hi = ends[rnd.recvs.start], ends[rnd.recvs.stop]
                if hi > lo:
                    spans.append((start + lo, start + hi, a, a + hi - lo))
                    a += hi - lo
                if rnd.idx.size:
                    owned[start : start + rnd.scatter_len] = True
            shifts = np.concatenate([rnd.shifts for rnd in rounds])
            world.append(
                WorldRound(
                    np.take(bins, packed), np.take(shifts, packed, axis=0), spans,
                    ghost_rows, bins, shifts, packed_at.tolist(), owned,
                )
            )
        return world
