"""Persistent per-rank communication plans and pooled flat buffers.

The paper's §3.4 discipline — compute addresses and sizes once,
pre-register, then reuse every step — applied to the *functional*
exchange hot path.  After the border stage rebuilds the routes, each
rank's forward/reverse replay is fully determined: which atom rows to
gather, which PBC shift each row gets, which peer/tag each contiguous
segment goes to, and where received blocks land.  A :class:`RankPlan`
freezes all of that into flat arrays at plan-build time so the per-step
work collapses to

* **pack**: one ``np.take`` gather into a pooled send buffer plus one
  vectorized shift add (forward), and
* **unpack**: one signed ``bincount`` scatter-add over the concatenated
  contributions (reverse) — the one drain under all three delivery
  planes (direct, mailbox, RDMA rings), so they stay bit-identical

per :class:`Round` of the plan's schedule: one round for the
direct-neighbour patterns, one per swap for the staged 3-stage sweep.

Buffers live in a :class:`BufferPool` that persists across plan rebuilds
(reneighboring changes the *indices*, not the buffer capacity) and is
sized from the :class:`~repro.core.ghost.GhostBudget` analytic maximum
like the RDMA rings — growth is a counted fallback, not the steady
state.

Bit-identity notes (load-bearing, do not "simplify"):

* the shift add runs unconditionally over the whole packed block when
  shifts apply — skipping all-zero shifts would turn ``-0.0`` into
  ``+0.0`` relative to the seed path's ``payload += route.shift``;
* the reverse scatter is bounded to the round's ``data[:scatter_len]``
  so it never writes the ghost rows that round's planes read — zero-copy
  reverse payloads are live views of ghost rows while owners apply;
* a staged round is one swap, never a dimension's pair: an atom both
  swaps send would be summed ``f + (c+ + c-)`` by one ``bincount`` where
  the staged replay sums ``(f + c-) + c+`` (docs/performance.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.ghost import GhostBudget
from repro.md.kernels import scatter_add_scalar, scatter_signed_vec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (exchange_base imports us)
    from repro.core.exchange_base import RecvRoute, SendRoute


class BufferPool:
    """Preallocated pack/unpack storage for one rank, reused forever.

    Capacity is derived from the analytic ghost maximum of the exchange's
    :class:`GhostBudget` (the same dominance rule commlint
    CL008 enforces for the RDMA rings); growing past it is possible but
    counted in :attr:`grow_events` so benchmarks can gate on zero.
    """

    def __init__(self, budget: GhostBudget, full_shell: bool = False) -> None:
        self.budget = budget
        self.full_shell = full_shell
        self.allocations = 0
        self.grow_events = 0
        self._vec: np.ndarray | None = None
        self._scalar: np.ndarray | None = None

    @property
    def capacity_rows(self) -> int:
        """Rows the vector buffer currently holds (0 before first use)."""
        return self._vec.shape[0] if self._vec is not None else 0

    def _capacity_for(self, rows: int) -> int:
        analytic = int(self.budget.max_ghost_atoms(self.full_shell))
        if rows <= analytic:
            return analytic
        # Fallback/growth path: geometric headroom, counted by callers.
        return max(rows, 16) * 2

    def vec(self, rows: int) -> np.ndarray:
        """A float64 ``(>= rows, 3)`` buffer (positions/forces)."""
        if self._vec is None or self._vec.shape[0] < rows:
            if self._vec is not None:
                self.grow_events += 1
            self._vec = np.empty((self._capacity_for(rows), 3), dtype=np.float64)
            self.allocations += 1
        return self._vec

    def scalar(self, rows: int) -> np.ndarray:
        """A float64 ``(>= rows,)`` buffer (EAM per-atom scalars)."""
        if self._scalar is None or self._scalar.shape[0] < rows:
            if self._scalar is not None:
                self.grow_events += 1
            self._scalar = np.empty(self._capacity_for(rows), dtype=np.float64)
            self.allocations += 1
        return self._scalar

    @property
    def nbytes(self) -> int:
        """Bytes currently held by the pool."""
        total = 0
        if self._vec is not None:
            total += self._vec.nbytes
        if self._scalar is not None:
            total += self._scalar.nbytes
        return total


class _Segment:
    """One contiguous slice of the packed buffer bound to a peer/tag."""

    __slots__ = ("peer", "start", "stop", "tag", "nbytes_vec", "nbytes_scalar")

    def __init__(self, peer: int, start: int, stop: int, tag: tuple) -> None:
        self.peer = peer
        self.start = start
        self.stop = stop
        self.tag = tag
        n = stop - start
        self.nbytes_vec = n * 24  # 3 x float64
        self.nbytes_scalar = n * 8


class _RecvSegment:
    """One incoming ghost block (destination range in the atom arrays)."""

    __slots__ = ("peer", "lo", "n", "tag", "nbytes_vec", "nbytes_scalar")

    def __init__(self, peer: int, lo: int, n: int, tag: tuple) -> None:
        self.peer = peer
        self.lo = lo
        self.n = n
        self.tag = tag
        self.nbytes_vec = n * 24
        self.nbytes_scalar = n * 8


class Round(NamedTuple):
    """One fenced step of a plan's schedule.

    A direct-neighbour pattern has one round; the staged sweep has one per
    swap, because a later swap packs rows an earlier one delivered.  Rounds
    own disjoint row slices of the plan's one pooled buffer, so nothing
    aliases across them.
    """

    rows: slice  # this round's rows of fwd_idx / shift_rows / the buffer
    idx: np.ndarray  # fwd_idx[rows]
    shifts: np.ndarray  # shift_rows[rows]
    sends: slice  # its send_segments
    recvs: slice  # its recv_segments
    #: reverse scatters touch ``data[:scatter_len]`` only: the rows below
    #: the round's own landing zone.  Every send row lies there (it was
    #: present before the round's ghosts were appended) and the ghost rows
    #: the planes are still reading lie above — while rows an *earlier*
    #: round delivered may accumulate, which is the staged forwarding.
    scatter_len: int


class RankPlan:
    """Frozen replay plan for one rank, valid until reneighboring."""

    __slots__ = (
        "n_pack",
        "fwd_idx",
        "shift_rows",
        "send_segments",
        "recv_segments",
        "rounds",
        "pool",
        "_tag_cache",
    )

    def __init__(
        self,
        sends: list[SendRoute],
        recvs: list[RecvRoute],
        nlocal: int,
        pool: BufferPool,
        flat: tuple[np.ndarray, np.ndarray] | None = None,
        n_rounds: int = 1,
    ) -> None:
        counts = [route.count for route in sends]
        self.n_pack = int(sum(counts))
        if flat is not None:
            # The border stage gathered through these very arrays (every
            # send_idx is a slice of fwd_idx): take them as given.
            self.fwd_idx, self.shift_rows = flat
        elif self.n_pack:
            self.fwd_idx = np.concatenate([route.send_idx for route in sends])
            # Per-row shift table: adding it is bit-identical to the seed's
            # per-route broadcast add (same addends, same dtype).
            self.shift_rows = np.repeat(
                np.stack([route.shift for route in sends]), counts, axis=0
            )
        else:
            self.fwd_idx = np.empty(0, dtype=np.intp)
            self.shift_rows = np.empty((0, 3), dtype=np.float64)
        self.send_segments: list[_Segment] = []
        cursor = 0
        for route, n in zip(sends, counts):
            self.send_segments.append(
                _Segment(route.peer, cursor, cursor + n, route.tag)
            )
            cursor += n
        self.recv_segments = [
            _RecvSegment(route.peer, route.recv_start, route.recv_count, route.tag)
            for route in recvs
        ]
        # Routes arrive in round order, so a round is a run of each list.
        self.rounds: list[Round] = []
        s = r = row = 0
        for k in range(n_rounds):
            s_lo, r_lo, row_lo = s, r, row
            while s < len(sends) and sends[s].round == k:
                row += counts[s]
                s += 1
            while r < len(recvs) and recvs[r].round == k:
                r += 1
            rows = slice(row_lo, row)
            self.rounds.append(
                Round(
                    rows,
                    self.fwd_idx[rows],
                    self.shift_rows[rows],
                    slice(s_lo, s),
                    slice(r_lo, r),
                    recvs[r_lo].recv_start if r_lo < r else nlocal,
                )
            )
        self.pool = pool
        self._tag_cache: dict[str, tuple[list[tuple], list[tuple]]] = {}

    # -- tags ---------------------------------------------------------------
    def tags(self, phase: str) -> tuple[list[tuple], list[tuple]]:
        """(send tags, recv tags) for ``phase``, built once per plan."""
        cached = self._tag_cache.get(phase)
        if cached is None:
            cached = (
                [seg.tag + (phase,) for seg in self.send_segments],
                [seg.tag + (phase,) for seg in self.recv_segments],
            )
            self._tag_cache[phase] = cached
        return cached

    def round_sends(self, k: int, phase: str) -> zip:
        """(segment, ``phase`` tag) of every send of round ``k``."""
        sends = self.rounds[k].sends
        return zip(self.send_segments[sends], self.tags(phase)[0][sends])

    def round_recvs(self, k: int, phase: str) -> zip:
        """(segment, ``phase`` tag) of every receive of round ``k``."""
        recvs = self.rounds[k].recvs
        return zip(self.recv_segments[recvs], self.tags(phase)[1][recvs])

    # -- pack / unpack ------------------------------------------------------
    def buffer(self, vec: bool) -> np.ndarray:
        """The pooled buffer every round packs into / collects into."""
        return self.pool.vec(self.n_pack) if vec else self.pool.scalar(self.n_pack)

    def pack(self, data: np.ndarray, buf: np.ndarray, k: int, apply_shift: bool) -> None:
        """Gather round ``k``'s send rows of a (N, 3) or 1-D per-atom
        array into its slice of ``buf`` (positions get the PBC shifts)."""
        rnd = self.rounds[k]
        out = buf[rnd.rows]
        if data.ndim == 2:
            np.take(data, rnd.idx, axis=0, out=out)
            if apply_shift:
                out += rnd.shifts
        else:
            np.take(data, rnd.idx, out=out)

    def apply_reverse(self, data: np.ndarray, buf: np.ndarray, k: int) -> None:
        """Fused scatter-add of round ``k``'s collected contributions.

        ``buf`` holds one row per packed send row, in send-segment order
        (the same order the seed path iterated routes).  The scatter is
        bounded to the round's ``scatter_len``; see :class:`Round`.
        """
        rnd = self.rounds[k]
        owned = data[: rnd.scatter_len]
        if data.ndim == 2:
            scatter_signed_vec(owned, rnd.idx, buf[rnd.rows], 1)
        else:
            scatter_add_scalar(owned, rnd.idx, buf[rnd.rows])
