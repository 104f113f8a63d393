"""Shared machinery of the ghost-exchange implementations.

Both patterns (3-stage and p2p) reduce to the same route abstraction:
after the **border** stage, each rank holds

* :class:`SendRoute` s — (peer, local/ghost indices to pack, PBC shift to
  apply, tag), and
* :class:`RecvRoute` s — (peer, destination ghost range, tag),

and the **forward** (positions owner->ghost), **reverse** (forces
ghost->owner) and EAM mid-pair scalar exchanges are generic replays of
those routes.  The PBC shift is applied by the *sender* (as real LAMMPS
does in its pack kernels) so the RDMA path — where data lands directly
in the remote array with no receiver-side unpack — is identical in
content to the message path.

The base class also does atom migration (**exchange** stage) and traffic
modelling: every executed phase can report the message schedule it just
performed, which the perfmodel prices on the network simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.comm_plan import BufferPool, RankPlan
from repro.faults.injector import FAULTS, RetryExhaustedError
from repro.md.atoms import Atoms
from repro.md.domain import Domain
from repro.obs.metrics import METRICS
from repro.obs.telemetry import TELEMETRY
from repro.obs.trace import NULL_SPAN, TRACER
from repro.runtime.transport import SentMessage
from repro.runtime.world import RankContext, World


@dataclass
class SendRoute:
    """One outgoing message route of the forward stage."""

    peer: int
    send_idx: np.ndarray  # indices into the sender's atom arrays
    shift: np.ndarray  # (3,) PBC shift applied by the sender to positions
    tag: tuple
    hops: int = 1

    @property
    def count(self) -> int:
        return int(self.send_idx.shape[0])


@dataclass
class RecvRoute:
    """One incoming ghost block of the forward stage."""

    peer: int
    recv_start: int
    recv_count: int
    tag: tuple
    hops: int = 1


@dataclass
class RankRoutes:
    """All routes of one rank, aligned so replay order is deterministic."""

    sends: list[SendRoute] = field(default_factory=list)
    recvs: list[RecvRoute] = field(default_factory=list)

    def clear(self) -> None:
        """Drop all routes (called at the start of every border stage)."""
        self.sends.clear()
        self.recvs.clear()


class GhostExchange:
    """Abstract base of the border/forward/reverse/exchange protocol.

    Subclasses implement :meth:`borders` (building routes + initial ghost
    population); everything else is generic.

    Parameters
    ----------
    world, domain:
        The rank world (must carry a 3D grid) and the decomposed box.
    rcomm:
        Ghost shell thickness = force cutoff + neighbor skin.
    """

    #: half-list ghost rule the pattern requires ("all" or "coord")
    ghost_rule: str = "all"
    #: whether the pattern communicates the full 26-neighbor shell
    full_shell: bool = False
    name: str = "abstract"
    #: next tier of the degradation ladder (None = sturdiest pattern)
    fallback_pattern: str | None = None
    #: whether the forward/reverse vector phases are one-sided PUTs
    rdma: bool = False

    def __init__(self, world: World, domain: Domain, rcomm: float) -> None:
        if world.grid is None:
            raise ValueError("ghost exchange requires a world with a rank grid")
        if rcomm <= 0:
            raise ValueError(f"rcomm must be positive, got {rcomm}")
        self.world = world
        self.domain = domain
        self.rcomm = rcomm
        self.routes: dict[int, RankRoutes] = {
            r: RankRoutes() for r in range(world.size)
        }
        # Robustness-layer accounting (only moves under a fault session).
        self.retries = 0
        self.retry_model_time = 0.0
        # Plan cache (section 3.4 reuse discipline): routes are frozen
        # into flat RankPlans on first use after every border stage and
        # replayed until the epoch moves (reneighbor/migration).
        self._plan_epoch = 0
        self._plans: dict[int, RankPlan] = {}
        self._plans_built_epoch = -1
        # Flat (fwd_idx, shift_rows) per rank when the border stage of
        # epoch _flat_epoch gathered through them already.
        self._flat: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._flat_epoch = -1
        self._pools: dict[int, BufferPool] = {}
        self._model_cache: dict = {}
        self._plan_builds = 0
        # Phases delivered without the mailbox (direct and RDMA planes).
        self._fastpath_phases = 0
        # Phases _plane refused the direct plane, by cause (telemetry
        # feed; the always-on plane itself never gates).
        self._gate_blocks = {"observability": 0, "faults": 0}
        # Direct-plane wiring (built with the plans): every send segment
        # resolved to its destination slice, so a replayed phase is pure
        # slice copies with no per-message mailbox traffic.
        self._fwd_deliveries: list[tuple[int, int, int, int, int, int]] | None = None
        self._rev_deliveries: list[tuple[int, int, int, int, int, int]] | None = None
        self._phase_msgs: dict = {}

    # -- helpers ----------------------------------------------------------
    def atoms_of(self, rank: int) -> Atoms:
        """The per-rank atom storage held in the world state."""
        return self.world.ranks[rank].state["atoms"]

    def sub_box_of(self, rank: int):
        """The sub-box owned by ``rank``."""
        return self.domain.sub_box(self.world.grid_pos_of(rank))

    def shift_for_send(self, sender_rank: int, o_send: tuple[int, int, int]) -> np.ndarray:
        """PBC shift the sender applies for the receiver at ``o_send``.

        Equal to the receiver's ``ghost_shift`` toward the sender (offset
        ``-o_send`` from the receiver's perspective).
        """
        recv_pos = tuple(
            (p + o) % g
            for p, o, g in zip(
                self.world.grid_pos_of(sender_rank), o_send, self.world.grid
            )
        )
        o_recv = tuple(-o for o in o_send)
        return self.domain.sub_box(recv_pos).ghost_shift(o_recv, self.domain.box)

    # -- abstract ------------------------------------------------------------
    def borders(self) -> None:
        """Rebuild ghost sets and routes on every rank (border stage)."""
        raise NotImplementedError

    def _phase_span(self, phase: str):
        """Trace span wrapping one communication phase of this pattern."""
        if not TRACER.enabled:
            # Skip even the span-argument construction on the hot path.
            return NULL_SPAN
        return TRACER.span(
            f"{self.name}.{phase}", cat="comm", track="comm", pattern=self.name, phase=phase
        )

    # -- plan cache ----------------------------------------------------------
    def _clear_routes(self) -> None:
        """Drop all routes and invalidate cached plans (border stage)."""
        for rr in self.routes.values():
            rr.clear()
        self._invalidate_plans()

    def _invalidate_plans(self) -> None:
        """Bump the plan epoch: cached plans/model results are stale."""
        self._plan_epoch += 1
        self._model_cache.clear()

    def _plan_budget(self) -> object | None:
        """GhostBudget used to size the buffer pools (None = grow lazily)."""
        return None

    def _plans_current(self) -> dict[int, RankPlan]:
        """The per-rank plans for the current route epoch (built lazily)."""
        if self._plans_built_epoch != self._plan_epoch:
            budget = self._plan_budget()
            # A plan invalidated without a new border stage is rebuilt
            # from the route objects alone.
            flat = self._flat if self._flat_epoch == self._plan_epoch else {}
            for rank in range(self.world.size):
                pool = self._pools.get(rank)
                if pool is None:
                    pool = BufferPool(budget=budget, full_shell=self.full_shell)
                    self._pools[rank] = pool
                rr = self.routes[rank]
                self._plans[rank] = RankPlan(
                    sends=rr.sends,
                    recvs=rr.recvs,
                    nlocal=self.atoms_of(rank).nlocal,
                    pool=pool,
                    flat=flat.get(rank),
                )
            self._wire_deliveries()
            self._plans_built_epoch = self._plan_epoch
            self._plan_builds += 1
        return self._plans

    def _wire_deliveries(self) -> None:
        """Pair every send segment with its destination recv segment.

        In the lockstep world each send route has exactly one matching
        recv route on the peer (same base tag, mirrored peer), so the
        forward stage can write packed slices straight into the
        receiver's ghost rows and the reverse stage can collect ghost
        slices straight into the owner's unpack buffer.  If any pairing
        is missing (sabotaged routes), wiring is dropped and
        :meth:`_plane` never picks the direct plane.
        """
        self._phase_msgs = {}
        size = self.world.size
        recv_maps = {
            rank: {(seg.peer, seg.tag): seg for seg in self._plans[rank].recv_segments}
            for rank in range(size)
        }
        fwd: list[tuple[int, int, int, int, int, int]] = []
        rev: list[tuple[int, int, int, int, int, int]] = []
        for rank in range(size):
            for seg in self._plans[rank].send_segments:
                rseg = recv_maps[seg.peer].get((rank, seg.tag))
                if rseg is None or rseg.n != seg.stop - seg.start:
                    self._fwd_deliveries = None
                    self._rev_deliveries = None
                    return
                hi = rseg.lo + rseg.n
                fwd.append((rank, seg.start, seg.stop, seg.peer, rseg.lo, hi))
                rev.append((seg.peer, rseg.lo, hi, rank, seg.start, seg.stop))
        self._fwd_deliveries = fwd
        self._rev_deliveries = rev

    def _phase_messages(self, phase: str, vec: bool, forward: bool) -> tuple[list, int]:
        """The phase's :class:`SentMessage` records and their byte sum.

        The direct plane replays identical traffic every step between
        reneighborings, so the per-message records are precomputed once
        per plan in the seed's send order (rank-major, segment order)
        and appended wholesale on each replay.
        """
        key = (phase, vec, forward)
        cached = self._phase_msgs.get(key)
        if cached is None:
            msgs = []
            for rank in range(self.world.size):
                plan = self._plans[rank]
                send_tags, recv_tags = plan.tags(phase)
                segs, tags = (
                    (plan.send_segments, send_tags)
                    if forward
                    else (plan.recv_segments, recv_tags)
                )
                for seg, tag in zip(segs, tags):
                    msgs.append(
                        SentMessage(
                            rank, seg.peer, tag,
                            seg.nbytes_vec if vec else seg.nbytes_scalar,
                            phase,
                        )
                    )
            cached = self._phase_msgs[key] = (msgs, sum(m.nbytes for m in msgs))
        return cached

    def plan_stats(self) -> dict[str, int]:
        """Allocation/reuse counters of the plan cache and buffer pools."""
        pools = list(self._pools.values())
        return {
            "plan_builds": self._plan_builds,
            "fastpath_phases": self._fastpath_phases,
            "slowpath_phases": sum(self._gate_blocks.values()),
            "pool_allocations": sum(p.allocations for p in pools),
            "pool_grow_events": sum(p.grow_events for p in pools),
            "pool_bytes": sum(p.nbytes for p in pools),
        }

    def telemetry_feed(self) -> tuple[dict[str, float], dict[str, float]]:
        """(cumulative counters, gauges) for the per-step telemetry flush.

        Counter-shaped on purpose: everything here is bookkeeping the
        hot path already maintains (plan cache, pools, retry layer), so
        reading it once per step costs O(ranks) and the fast path stays
        untouched.  Subclasses extend with their plane-specific feeds
        (RDMA re-registrations, ring cursors).
        """
        stats = self.plan_stats()
        counters: dict[str, float] = {
            "plan_builds": float(stats["plan_builds"]),
            "fastpath_phases": float(stats["fastpath_phases"]),
            "slowpath_phases": float(stats["slowpath_phases"]),
            "pool_allocations": float(stats["pool_allocations"]),
            "pool_grow_events": float(stats["pool_grow_events"]),
            "retries": float(self.retries),
            "retry_model_seconds": self.retry_model_time,
        }
        gauges: dict[str, float] = {
            "pool_bytes": float(stats["pool_bytes"]),
            "pool_rows_used": float(
                sum(p.n_pack for p in self._plans.values())
                if self._plans_built_epoch == self._plan_epoch
                else 0
            ),
            "pool_rows_capacity": float(
                sum(pool.capacity_rows for pool in self._pools.values())
            ),
        }
        return counters, gauges

    # -- generic forward/reverse -------------------------------------------------
    def forward(self) -> None:
        """Send owned positions to every ghost copy (forward stage)."""
        with self._phase_span("forward"):
            self._forward_array(
                {r: self.atoms_of(r).x for r in range(self.world.size)},
                apply_shift=True,
                phase="forward",
            )

    def reverse(self) -> None:
        """Accumulate ghost forces back onto owners (reverse stage)."""
        with self._phase_span("reverse"):
            self._reverse_sum_array(
                {r: self.atoms_of(r).f for r in range(self.world.size)},
                phase="reverse",
            )

    def forward_scalar_world(self, arrays: dict[int, np.ndarray]) -> None:
        """Owner -> ghost broadcast of one scalar per atom (EAM fp)."""
        with self._phase_span("pair-forward"):
            self._forward_array(arrays, apply_shift=False, phase="pair-forward")

    def reverse_sum_scalar_world(self, arrays: dict[int, np.ndarray]) -> None:
        """Ghost -> owner sum of one scalar per atom (EAM density)."""
        with self._phase_span("pair-reverse"):
            self._reverse_sum_array(arrays, phase="pair-reverse")

    # -- the one replay: pack -> delivery plane -> drain -----------------------
    # ThreeStageExchange overrides both bodies with its staged swaps; every
    # other pattern varies only the plane.
    def _plane(self, phase: str) -> str:
        """Which delivery plane carries ``phase`` (the one selector).

        ``"direct"`` — the pre-wired slice copies — unless something
        needs to see or perturb individual messages: an armed fault
        plane or a **heavyweight** observability session (the per-event
        tracer or the per-message metrics registry) gets the same packed
        buffers through ``"mailbox"`` (the world transport) or, for the
        vector phases of an ``rdma`` exchange, ``"rdma"`` (PUTs, fence,
        rings), bit-identically.  A session with neither message nor
        RDMA faults armed cannot touch the data plane (network-kind
        faults only price modeled time, which is simulated separately),
        so it stays direct — the faults-off guard measures this idle
        cost.  The border stage asks too: its routes are not built yet,
        so "direct" there means the packed payload slices are written
        straight into the receivers' ghost rows.

        The always-on telemetry plane (:data:`~repro.obs.telemetry
        .TELEMETRY`) is deliberately **not** consulted: it is fed from
        the counters this class already maintains, once per step, so
        live percentiles and the flight recorder coexist with the full
        speedup (the ``telemetry-overhead`` bench guard enforces <5%
        wall).  Refusals are counted per cause for that same feed.
        """
        session = FAULTS.session
        if session is not None and (session.message_faults or session.rdma_faults):
            self._gate_blocks["faults"] += 1
        elif TRACER.enabled or METRICS.enabled:
            self._gate_blocks["observability"] += 1
        elif phase == "border" or self._fwd_deliveries is not None:
            return "direct"
        return "rdma" if self._is_put(phase) else "mailbox"

    def _is_put(self, phase: str) -> bool:
        """Whether ``phase`` moves by one-sided PUT (RDMA PUTs are not
        logged messages, whichever plane stands in for them)."""
        return self.rdma and phase in ("forward", "reverse")

    def _forward_array(
        self, arrays: dict[int, np.ndarray], apply_shift: bool, phase: str
    ) -> None:
        """Owner -> ghost replay: one pooled gather per rank, then the plane."""
        self.world.transport.set_phase(phase)
        plans = self._plans_current()
        vec = arrays[0].ndim == 2
        bufs = [
            plans[rank].pack_vec(arrays[rank], apply_shift)
            if vec
            else plans[rank].pack_scalar(arrays[rank])
            for rank in range(self.world.size)
        ]
        getattr(self, f"_{self._plane(phase)}_forward")(arrays, bufs, phase)

    def _reverse_sum_array(self, arrays: dict[int, np.ndarray], phase: str) -> None:
        """Ghost -> owner replay: the plane fills every owner's pooled
        unpack buffer (send-segment order), then one fused scatter each.

        Collect-all-then-apply-all: an escalation mid-collect must not
        leave a half-summed array behind (the post-degradation force
        recompute relies on it), and it is safe because
        :meth:`RankPlan.apply_reverse` never writes past the local atoms
        — the ghost rows being read are never mutated.
        """
        self.world.transport.set_phase(phase)
        plans = self._plans_current()
        vec = arrays[0].ndim == 2
        bufs = [plans[rank].unpack_buffer(vec) for rank in range(self.world.size)]
        getattr(self, f"_{self._plane(phase)}_reverse")(arrays, bufs, phase)
        for rank, buf in enumerate(bufs):
            plans[rank].apply_reverse(arrays[rank], buf)

    # -- direct plane: pre-wired slice copies ---------------------------------
    def _direct_forward(self, arrays, bufs, phase: str) -> None:
        """Copy every packed slice straight into the receiver's ghost rows
        (the bytes the mailbox round trip would move, none of its
        bookkeeping); the traffic log gets the seed's per-message records."""
        self._direct_account(phase, arrays, forward=True)
        for src, s, e, dst, lo, hi in self._fwd_deliveries:
            arrays[dst][lo:hi] = bufs[src][s:e]

    def _direct_reverse(self, arrays, bufs, phase: str) -> None:
        """Copy every ghost slice straight into its owner's unpack buffer."""
        self._direct_account(phase, arrays, forward=False)
        for src, lo, hi, dst, s, e in self._rev_deliveries:
            bufs[dst][s:e] = arrays[src][lo:hi]

    def _direct_account(self, phase: str, arrays, forward: bool) -> None:
        if not self._is_put(phase):
            self.world.transport.log.record_phase(
                *self._phase_messages(phase, arrays[0].ndim == 2, forward)
            )
        self._fastpath_phases += 1

    # -- mailbox plane: the fault- and tracer-visible world transport ---------
    def _mailbox_forward(self, arrays, bufs, phase: str) -> None:
        transport = self.world.transport
        for rank, buf in enumerate(bufs):
            plan = self._plans[rank]
            for seg, tag in zip(plan.send_segments, plan.tags(phase)[0]):
                transport.send(rank, seg.peer, tag, buf[seg.start : seg.stop].copy())
        for rank in range(self.world.size):
            plan = self._plans[rank]
            for seg, tag in zip(plan.recv_segments, plan.tags(phase)[1]):
                arrays[rank][seg.lo : seg.lo + seg.n] = self._recv(
                    transport, rank, seg.peer, tag
                )

    def _mailbox_reverse(self, arrays, bufs, phase: str) -> None:
        transport = self.world.transport
        for rank in range(self.world.size):
            plan = self._plans[rank]
            for seg, tag in zip(plan.recv_segments, plan.tags(phase)[1]):
                transport.send(
                    rank, seg.peer, tag, arrays[rank][seg.lo : seg.lo + seg.n].copy()
                )
        for rank, buf in enumerate(bufs):
            plan = self._plans[rank]
            for seg, tag in zip(plan.send_segments, plan.tags(phase)[0]):
                buf[seg.start : seg.stop] = self._recv(transport, rank, seg.peer, tag)

    # -- the retry policy layer -----------------------------------------------
    def _retry(self, poll, span: str, span_args: dict, phase: str, **who):
        """Timeout/backoff polling while a fault session is active.

        Up to ``max_retries`` attempts: each waits the current timeout
        (accounted as a ``cat="retry"`` model span and in
        ``retry_model_time``), then ``poll()`` ages the faulted plane
        one tick and returns what was awaited — or ``None`` while it is
        still in flight, which doubles the timeout.  Returns ``None``
        when the attempts run out; an exceeded fault budget raises from
        ``check_budget``.  Either way the caller escalates so the
        driver can fall back along :attr:`fallback_pattern`.
        """
        session = FAULTS.session
        policy = session.policy
        timeout = policy.base_timeout
        with TRACER.span(span, cat="retry", track="comm", **span_args):
            for attempt in range(1, policy.max_retries + 1):
                session.check_budget()
                session.note_retry(phase)
                self.retries += 1
                self.retry_model_time += timeout
                TRACER.model_span_seq(
                    "retry-backoff", timeout, cat="retry", track="comm",
                    attempt=attempt, **who, phase=phase,
                )
                got = poll()
                if got is not None:
                    return got
                timeout *= policy.backoff
        return None

    def _recv(self, transport, rank: int, peer: int, tag: tuple):
        """Receive, retrying while message faults are armed.

        Without them this is exactly ``transport.recv`` (the fault layer
        must add zero cost when disabled: a lockstep recv can never
        miss).  With them, each retry poll ages the mailbox's limbo so
        held messages can land.
        """
        session = FAULTS.session
        if session is None or not session.message_faults:
            return transport.recv(rank, peer, tag)
        payload = transport.try_recv(rank, peer, tag)
        if payload is not None:
            return payload

        def poll():
            transport.fault_poll(rank, peer, tag)
            return transport.try_recv(rank, peer, tag)

        phase = transport.phase
        payload = self._retry(
            poll, "recv-retry", {"rank": rank, "peer": peer, "phase": phase}, phase,
            rank=rank, peer=peer,
        )
        if payload is not None:
            return payload
        attempts = session.policy.max_retries
        TELEMETRY.emit(
            "retry-exhausted",
            rank=rank, peer=peer, phase=phase, pattern=self.name, attempts=attempts,
        )
        raise RetryExhaustedError(
            f"rank {rank} gave up on {peer} tag {tag!r} after "
            f"{attempts} retries (phase {phase!r}, pattern {self.name!r})"
        )

    # -- migration -------------------------------------------------------------
    def exchange(self) -> None:
        """Migrate atoms that left their sub-box (exchange stage).

        Runs with ghosts cleared (LAMMPS order: exchange -> borders).
        Positions are wrapped into the global box first.
        """
        # Migration moves atoms between ranks: every cached plan (and
        # modeled-time entry) is stale until the next border stage.
        self._invalidate_plans()
        with self._phase_span("exchange"):
            self._exchange_impl()

    def _exchange_impl(self) -> None:
        world = self.world
        transport = world.transport
        transport.set_phase("exchange")
        box = self.domain.box

        outgoing: dict[int, list] = {}
        for rank in range(world.size):
            atoms = self.atoms_of(rank)
            atoms.clear_ghosts()
            x = atoms.x_local()
            x[:] = box.wrap(x)
            groups = self.domain.scatter(x)
            my_pos = world.grid_pos_of(rank)
            leaving: list[np.ndarray] = []
            for pos, idx in groups.items():
                if pos == my_pos:
                    continue
                leaving.append((pos, idx))
            outgoing[rank] = leaving

        for rank in range(world.size):
            atoms = self.atoms_of(rank)
            # Collect and remove in one pass so indices stay valid.
            all_idx = (
                np.concatenate([idx for _, idx in outgoing[rank]])
                if outgoing[rank]
                else np.empty(0, dtype=np.intp)
            )
            if all_idx.size:
                x, v, tag, type_ = atoms.remove_local(all_idx)
                # Re-split by destination, preserving group boundaries.
                cursor = 0
                for pos, idx in outgoing[rank]:
                    n = idx.shape[0]
                    sl = slice(cursor, cursor + n)
                    dest = world.rank_at(pos)
                    transport.send(
                        rank, dest, ("exch",), (x[sl], v[sl], tag[sl], type_[sl])
                    )
                    cursor += n
            # Every rank sends a (possibly empty) marker count so receives
            # are deterministic.
            transport.send(rank, rank, ("exch-done",), len(outgoing[rank]))

        for rank in range(world.size):
            atoms = self.atoms_of(rank)
            transport.recv(rank, rank, ("exch-done",))
            # Drain everything addressed to us this phase.
            for src in range(world.size):
                while True:
                    payload = transport.try_recv(rank, src, ("exch",))
                    if payload is None:
                        break
                    x, v, tag, type_ = payload
                    atoms.add_local(x, v, tag, type_)

    # -- statistics ----------------------------------------------------------------
    def messages_per_rank(self) -> dict[int, int]:
        """Forward-stage send count per rank (Table 1's ``msg``)."""
        return {r: len(rr.sends) for r, rr in self.routes.items()}

    def ghost_counts(self) -> dict[int, int]:
        """Current ghost-atom count per rank."""
        return {r: self.atoms_of(r).nghost for r in range(self.world.size)}
