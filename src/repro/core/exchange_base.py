"""Shared machinery of the ghost-exchange implementations.

Both patterns (3-stage and p2p) reduce to the same route abstraction: a
*route* is one neighbour's **static** part — peer, PBC shift, tag, hops,
round, held in the run's :class:`~repro.core.comm_plan.RoundGeometry`
table — times the **epoch's** bounds — which rows are packed for it and
where its block lands, the numbers the **border** stage writes as it
packs and delivers each round (:class:`~repro.core.comm_plan.Epoch`).
The **forward** (positions owner->ghost), **reverse** (forces
ghost->owner) and EAM mid-pair scalar exchanges are generic replays of
the installed epoch, one *round* at a time.  A pattern is a schedule:
what a subclass adds is its rounds' geometry (peers, shifts, tags) and
which atoms each round selects — p2p one round to every shell neighbour,
3-stage one round per swap, each packing what the earlier ones
delivered.  The PBC shift is applied by the *sender* (as real LAMMPS
does in its pack kernels) so the RDMA path — where data lands directly
in the remote array with no receiver-side unpack — is identical in
content to the message path.

The world's atoms live in one :class:`~repro.md.atoms.AtomArena` (the
first border stage moves them in, slabs sized to the analytic maximum of
section 3.4), so positions, forces and EAM's per-atom scalars are each
*one* array for the whole world and a ghost row is a row number of the
array its owner's row is in.  The replay hands that array to one of
three delivery planes, which share the epoch's world tables — one gather
into a staging block per round, one ``bincount`` drain per reverse round
— and differ only in how each send's rows travel: ``direct`` writes them
straight into the landing rows, while ``mailbox`` (the world transport)
and ``rdma`` (PUTs and rings), selected when a fault plane or an
observer must see messages, carry each send's slice of the stage.

An epoch exists from the end of a completed ``borders()`` to the next
``exchange()`` (migration), and for as long as the arena keeps the layout
its row numbers were written against: replaying without one is a
:class:`NoEpochError`, and a border stage that escalates installs none.

The base class also does atom migration (**exchange** stage) — one pass
over every rank's local rows of the arena, no plane and no message: no
fault may touch it — and traffic modelling: every executed phase can
report the message schedule it just performed, which the perfmodel
prices on the network simulator.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.comm_plan import Epoch, RankPlan, RoundGeometry, WorldRound, pair_table
from repro.core.ghost import GhostBudget
from repro.faults.injector import FAULTS, RetryExhaustedError
from repro.md.atoms import AtomArena, Atoms
from repro.md.domain import Domain
from repro.network.stacks import SoftwareStack, UtofuStack
from repro.obs.metrics import METRICS
from repro.obs.telemetry import TELEMETRY
from repro.obs.trace import NULL_SPAN, TRACER
from repro.runtime.transport import SentMessage
from repro.runtime.world import World


class NoEpochError(RuntimeError):
    """A replay or schedule was asked for with no border stage to replay."""


class _BorderPack(NamedTuple):
    """One rank's packed border payload of one round, sends concatenated."""

    idx: np.ndarray  # send rows, send-major
    bounds: list[int]  # the round's send j owns rows bounds[j]:bounds[j + 1]
    shift_rows: np.ndarray
    x: np.ndarray
    tag: np.ndarray
    type: np.ndarray


def _cat(parts: tuple[np.ndarray, ...]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _leading_rows(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Rows ``starts[i] : starts[i] + counts[i]`` of every slab, slab-major."""
    first = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(starts[:-1] - first, counts)


class GhostExchange:
    """Abstract base of the border/forward/reverse/exchange protocol.

    Subclasses declare a schedule — :attr:`n_rounds`,
    :meth:`_round_geometry` and :meth:`_select_border` — everything else
    is generic.

    Parameters
    ----------
    world, domain:
        The rank world (must carry a 3D grid) and the decomposed box.
    rcomm:
        Ghost shell thickness = force cutoff + neighbor skin.
    radius:
        Shell radius in sub-boxes: how many ranks away a ghost may come
        from along one axis.
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
    #: rounds of the pattern's schedule (fenced: round k+1 packs after
    #: round k delivered)
    n_rounds: int = 1
    #: what the modeled clock prices the pattern on (the paper's pairings:
    #: p2p on uTofu, the 3-stage baseline on MPI) ...
    stack_cls: type[SoftwareStack] = UtofuStack
    #: ... how many consecutive sends share one fenced stage of it
    #: (None: every send is in flight at once) ...
    sends_per_stage: int | None = None
    #: ... and how many threads inject one rank's sends
    n_comm_threads: int = 1

    def __init__(
        self, world: World, domain: Domain, rcomm: float, radius: int = 1
    ) -> None:
        if world.grid is None:
            raise ValueError("ghost exchange requires a world with a rank grid")
        if rcomm <= 0:
            raise ValueError(f"rcomm must be positive, got {rcomm}")
        if radius < 1:
            raise ValueError(f"shell radius must be >= 1, got {radius}")
        sub_len = float(np.min(domain.sub_lengths))
        if rcomm > radius * sub_len:
            # Ghosts would have to come from further than the schedule
            # reaches: they would be dropped silently.
            raise ValueError(
                f"ghost shell {rcomm:.3f} exceeds shell_radius {radius} x "
                f"sub-box {sub_len:.3f}; increase shell_radius or use fewer ranks"
            )
        self.world = world
        self.domain = domain
        self.rcomm = rcomm
        self.radius = radius
        # The decomposition is fixed for a run.
        self._subs = [domain.sub_box(world.grid_pos_of(r)) for r in range(world.size)]
        # Robustness-layer accounting (only moves under a fault session).
        self.retries = 0
        self.retry_model_time = 0.0
        # Static for the run, built by the first border stage: every
        # (rank, round)'s geometry and the world's send<->recv pairing.
        self._geom: list[list[RoundGeometry]] = []
        self._pairs: list[tuple[np.ndarray, ...]] = []
        # The one per-epoch value (section 3.4 reuse discipline): what the
        # last completed border stage wrote, replayed until migration
        # drops it.  Everything cached per epoch hangs off it.
        self._epoch: Epoch | None = None
        # The world's atoms share one arena from the first border stage on:
        # an epoch's world tables are row numbers of it, gathered through
        # one staging block as long as the arena (every plane packs and
        # collects there).
        self.arena: AtomArena | None = None
        self._stage = np.empty((0, 3))
        self._density: float | None = None  # measured at first use
        self._budget: GhostBudget | None = None
        self._plan_builds = 0
        # Phases delivered without the mailbox (direct and RDMA planes).
        self._fastpath_phases = 0
        # Phases _plane refused the direct plane, by cause (telemetry
        # feed; the always-on plane itself never gates).
        self._gate_blocks = {"observability": 0, "faults": 0}

    # -- helpers ----------------------------------------------------------
    def atoms_of(self, rank: int) -> Atoms:
        """The per-rank atom storage held in the world state."""
        return self.world.ranks[rank].state["atoms"]

    def sub_box_of(self, rank: int):
        """The sub-box owned by ``rank``."""
        return self._subs[rank]

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

    # -- the schedule a pattern declares -----------------------------------------
    def _round_geometry(self, rank: int, k: int) -> RoundGeometry:
        """Peers, shifts, tags and hops of ``rank`` in round ``k``."""
        raise NotImplementedError

    def _select_border(
        self, rank: int, k: int, landed: list[int]
    ) -> tuple[np.ndarray, list[int]]:
        """The atom rows ``rank`` sends in round ``k``, send-major with rows
        ascending within a send, and the row count of each send.
        ``landed`` is the rank's receive bounds so far: its local count,
        then the end row of every block the earlier rounds delivered."""
        raise NotImplementedError

    def _adopt(self) -> AtomArena:
        """The world's atoms in one arena — slabs sized to the analytic
        maximum (section 3.4: what is registered never moves), so adoption
        is the first stage's work (migration's or borders') and a no-op
        after."""
        budget = self._plan_budget()
        self.arena = AtomArena.adopt(
            [self.atoms_of(rank) for rank in range(self.world.size)],
            budget.max_local_atoms() + budget.max_ghost_atoms(self.full_shell),
        )
        return self.arena

    def _border_setup(self) -> None:
        """Preparation before a border stage: once, the run's static
        geometry; every time, :meth:`_adopt`."""
        if not self._geom:
            self._geom = [
                [self._round_geometry(rank, k) for k in range(self.n_rounds)]
                for rank in range(self.world.size)
            ]
            self._pairs = pair_table(self._geom)
        self._adopt()

    def _border_done(self, plane: str, epoch: Epoch) -> None:
        """After the last round, before ``epoch`` is installed (``plane``
        is the one the stage rode)."""

    def _round_span(self, k: int):
        """Trace span around border round ``k`` (none by default)."""
        return NULL_SPAN

    def _phase_span(self, phase: str):
        """Trace span wrapping one communication phase of this pattern."""
        if not TRACER.enabled:
            # Skip even the span-argument construction on the hot path.
            return NULL_SPAN
        return TRACER.span(
            f"{self.name}.{phase}", cat="comm", track="comm", pattern=self.name, phase=phase
        )

    # -- the epoch ------------------------------------------------------------
    def _current(self) -> Epoch:
        """The installed epoch; replaying without one — or with one written
        against a layout the arena has left — is an error, never a replay
        of stale rows."""
        epoch = self._epoch
        if epoch is None:
            raise NoEpochError(
                f"{self.name}: no border stage to replay - call borders() first "
                "(exchange() drops the epoch; a borders() that escalated installed none)"
            )
        if epoch.layout != epoch.arena.layout:
            raise NoEpochError(
                f"{self.name}: the epoch's rows are of arena layout {epoch.layout}, the "
                f"arena is at {epoch.arena.layout} (a slab outgrew its capacity) - "
                "call borders() again"
            )
        return epoch

    def _new_epoch(self, arrays: list[tuple[np.ndarray, ...]]) -> Epoch:
        """An epoch from every rank's ``(fwd_idx, shift_rows, send_bounds,
        recv_bounds)`` — whoever ran the border stage installs it as
        ``_epoch`` once the stage has completed.  Arrays whose send and
        paired receive disagree on a row count are a ``ValueError``."""
        if self._stage.shape[0] < self.arena.rows:
            # a round lands on distinct ghost rows: never more than the arena has
            self._stage = np.empty((self.arena.rows, 3))
        self._plan_builds += 1
        return Epoch(
            [RankPlan(geom, *columns) for geom, columns in zip(self._geom, arrays)],
            self._pairs,
            self.arena,
        )

    def _plan_budget(self) -> GhostBudget:
        """The analytic ghost budget sizing the arena's slabs (and RDMA
        rings).

        Computed once from the measured density (or a configured one)
        and reused for every registration and adoption.
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

    def _phase_messages(self, phase: str, vec: bool, forward: bool) -> tuple[list, int]:
        """The phase's :class:`SentMessage` records and their byte sum.

        The direct plane replays identical traffic every step between
        reneighborings, so the per-message records are computed once
        per epoch in the mailbox plane's send order — round-major (the
        reverse replay walks the rounds backwards), then rank-major,
        then route order — and appended wholesale on each replay.
        """
        records = self._current().records
        cached = records.get((phase, vec, forward))
        if cached is None:
            width = 24 if vec else 8
            msgs = []
            rounds = range(self.n_rounds)
            for k in rounds if forward else reversed(rounds):
                for rank, plan in enumerate(self._epoch.plans):
                    routes = plan.sends(k, phase) if forward else plan.recvs(k, phase)
                    for peer, lo, hi, tag in routes:
                        msgs.append(SentMessage(rank, peer, tag, (hi - lo) * width, phase))
            cached = records[phase, vec, forward] = (msgs, sum(m.nbytes for m in msgs))
        return cached

    def plan_stats(self) -> dict[str, int]:
        """Reuse counters of the plan cache and of what is sized from the
        ghost budget: ``pool_grow_events`` counts the arena's re-layouts,
        ``pool_bytes`` the arena plus the staging block."""
        arena = self.arena
        return {
            "plan_builds": self._plan_builds,
            "fastpath_phases": self._fastpath_phases,
            "slowpath_phases": sum(self._gate_blocks.values()),
            "pool_grow_events": arena.relayouts if arena else 0,
            "pool_bytes": (arena.nbytes if arena else 0) + self._stage.nbytes,
        }

    def telemetry_feed(self) -> tuple[dict[str, float], dict[str, float]]:
        """(cumulative counters, gauges) for the per-step telemetry flush.

        Counter-shaped on purpose: everything here is bookkeeping the
        hot path already maintains (plan cache, arena, retry layer), so
        reading it once per step costs O(ranks) and the fast path stays
        untouched.  Subclasses extend with their plane-specific feeds
        (RDMA re-registrations, ring cursors).
        """
        stats = self.plan_stats()
        counters = {key: float(value) for key, value in stats.items() if key != "pool_bytes"}
        counters["retries"] = float(self.retries)
        counters["retry_model_seconds"] = self.retry_model_time
        gauges: dict[str, float] = {
            "pool_bytes": float(stats["pool_bytes"]),
            "pool_rows_used": float(
                sum(plan.n_pack for plan in self._epoch.plans) if self._epoch else 0
            ),
        }
        return counters, gauges

    # -- generic forward/reverse -------------------------------------------------
    def forward(self) -> None:
        """Send owned positions to every ghost copy (forward stage)."""
        with self._phase_span("forward"):
            self._forward_array(self._current().arena.x, apply_shift=True, phase="forward")

    def reverse(self) -> None:
        """Accumulate ghost forces back onto owners (reverse stage)."""
        with self._phase_span("reverse"):
            self._reverse_sum_array(self._current().arena.f, phase="reverse")

    def forward_scalar_world(self, values: np.ndarray) -> None:
        """Owner -> ghost broadcast of one scalar per atom (EAM fp):
        ``values`` holds one entry per arena row, updated in place."""
        with self._phase_span("pair-forward"):
            self._forward_array(values, apply_shift=False, phase="pair-forward")

    def reverse_sum_scalar_world(self, values: np.ndarray) -> None:
        """Ghost -> owner sum of one scalar per atom (EAM density), one
        entry per arena row."""
        with self._phase_span("pair-reverse"):
            self._reverse_sum_array(values, phase="pair-reverse")

    # -- the one replay: per round, the delivery plane ---------------------------
    # Every pattern runs these bodies; they differ in the plan's round table
    # and in the plane.
    def _plane(self, phase: str) -> str:
        """Which delivery plane carries ``phase`` (the one selector).

        ``"direct"`` — the epoch's world tables, the stage landing in
        place — unless something needs to see or perturb individual
        messages: an armed fault plane or a **heavyweight** observability
        session (the per-event tracer or the per-message metrics registry)
        gets the same stage slices carried by ``"mailbox"`` (the world
        transport) or, for the vector phases of an ``rdma`` exchange,
        ``"rdma"`` (PUTs, fence, rings), bit-identically.  A session with
        neither message nor RDMA faults armed cannot touch the data plane
        (network-kind faults only price modeled time, which is simulated
        separately), so it stays direct — the faults-off guard measures
        this idle cost.  The border stage asks too: no epoch is installed
        yet, so "direct" there means the packed payload slices are written
        straight into the receivers' ghost rows.

        The always-on telemetry plane (:data:`~repro.obs.telemetry
        .TELEMETRY`) is deliberately **not** consulted: it is fed from
        the counters this class already maintains, once per step, so
        live percentiles and the flight recorder coexist with the full
        speedup (the telemetry overhead guard enforces <5%
        wall).  Refusals are counted per cause for that same feed.
        """
        session = FAULTS.session
        if session is not None and (session.message_faults or session.rdma_faults):
            cause = "faults"
        elif TRACER.enabled or METRICS.enabled:
            cause = "observability"
        else:
            return "direct"
        self._gate_blocks[cause] += 1
        return "rdma" if self._is_put(phase) else "mailbox"

    def _is_put(self, phase: str) -> bool:
        """Whether ``phase`` moves by one-sided PUT (RDMA PUTs are not
        logged messages, whichever plane stands in for them)."""
        return self.rdma and phase in ("forward", "reverse")

    def _deliverer(self, phase: str, vec: bool, forward: bool):
        """The plane's per-round delivery method for ``phase``.  The direct
        plane accounts for the whole phase up front: the traffic log gets
        the mailbox plane's per-message records, precomputed."""
        plane = self._plane(phase)
        if plane == "direct":
            if not self._is_put(phase):
                self.world.transport.log.record_phase(
                    *self._phase_messages(phase, vec, forward)
                )
            self._fastpath_phases += 1
        return getattr(self, f"_{plane}_{'forward' if forward else 'reverse'}")

    def _check_world_array(self, data: np.ndarray) -> None:
        """A replayed array holds one entry per arena row."""
        rows = self._current().arena.rows
        if data.shape[0] != rows:
            raise ValueError(
                f"{self.name}: a world array holds one entry per arena row "
                f"({rows}), got {data.shape[0]}"
            )

    def _forward_array(self, data: np.ndarray, apply_shift: bool, phase: str) -> None:
        """Owner -> ghost replay of a world array, round after round — so
        a later round gathers what an earlier one delivered."""
        self._check_world_array(data)
        self.world.transport.set_phase(phase)
        deliver = self._deliverer(phase, data.ndim == 2, forward=True)
        for k in range(self.n_rounds):
            deliver(data, apply_shift, phase, k)

    def _reverse_sum_array(self, data: np.ndarray, phase: str) -> None:
        """Ghost -> owner replay, rounds backwards: each round's ghost
        contributions are summed onto their owner rows before the next
        round forwards what this one summed.

        Collect-all-then-apply-all within a round, on every plane: an
        escalation mid-collect must not leave a half-summed array behind
        (the post-degradation force recompute relies on it), and it is
        safe because no plane's drain writes past the round's scatter
        bound — the ghost rows being read are never mutated.
        """
        self._check_world_array(data)
        self.world.transport.set_phase(phase)
        collect = self._deliverer(phase, data.ndim == 2, forward=False)
        for k in reversed(range(self.n_rounds)):
            collect(data, phase, k)

    # -- the world table, one gather per round: what every plane shares -------
    def _stage_of(self, data: np.ndarray, n: int) -> np.ndarray:
        """The front ``n`` rows of the staging block, shaped like ``data``'s."""
        return self._stage[:n] if data.ndim == 2 else self._stage.reshape(-1)[:n]

    def _staged(self, data: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``data[rows]`` gathered into the front of the staging block."""
        out = self._stage_of(data, rows.shape[0])
        return np.take(data, rows, axis=0, out=out, mode="clip")

    def _packed(self, data: np.ndarray, apply_shift: bool, k: int) -> np.ndarray:
        """Every rank's round-``k`` send rows gathered into the staging
        block in source-packed order (positions get their PBC shifts):
        send ``j`` of a rank is one slice of it (:class:`WorldRound`)."""
        rnd = self._epoch.world[k]
        stage = self._staged(data, rnd.bins)
        if apply_shift:
            stage += rnd.pack_shifts
        return stage

    def _sum_onto_owners(
        self, data: np.ndarray, stage: np.ndarray, rnd: WorldRound
    ) -> None:
        """Sum the round's contributions — ``stage``, in source-packed
        order — onto the owner rows with one ``bincount`` per component:
        each owner row's contributions in its rank's packed order, each
        bin from zero, then ``data + sum`` on the round's owned rows
        only."""
        if data.ndim == 2:
            columns = [(data[:, c], stage[:, c]) for c in range(3)]
        else:
            columns = [(data, stage)]
        for column, weights in columns:
            np.add(
                column, np.bincount(rnd.bins, weights=weights, minlength=data.shape[0]),
                out=column, where=rnd.owned,
            )

    # -- direct plane: no carrier, the stage lands in place --------------------
    def _direct_forward(self, data: np.ndarray, apply_shift: bool, phase: str, k: int) -> None:
        """Gather every ghost row's source row of the world at once
        (positions get their PBC shifts), then one slice copy per rank
        into its landing span: the bytes the mailbox round trip would
        move, none of its bookkeeping."""
        rnd = self._epoch.world[k]
        stage = self._staged(data, rnd.src_rows)
        if apply_shift:
            stage += rnd.shifts
        for lo, hi, a, b in rnd.spans:
            data[lo:hi] = stage[a:b]

    def _direct_reverse(self, data: np.ndarray, phase: str, k: int) -> None:
        """Gather every ghost row of the round in source-packed order and
        sum it onto its owner row."""
        rnd = self._epoch.world[k]
        self._sum_onto_owners(data, self._staged(data, rnd.ghost_rows), rnd)

    # -- mailbox plane: the fault- and tracer-visible world transport ---------
    def _mailbox_forward(self, data: np.ndarray, apply_shift: bool, phase: str, k: int) -> None:
        """Send each send's slice of the packed stage; land each receive
        in its arena rows."""
        transport = self.world.transport
        epoch = self._epoch
        stage = self._packed(data, apply_shift, k)
        for rank, (plan, at) in enumerate(zip(epoch.plans, epoch.world[k].packed_at)):
            for peer, start, stop, tag in plan.sends(k, phase):
                transport.send(rank, peer, tag, stage[at + start : at + stop].copy())
        for rank, (plan, base) in enumerate(zip(epoch.plans, epoch.arena.starts.tolist())):
            for peer, lo, hi, tag in plan.recvs(k, phase):
                data[base + lo : base + hi] = self._recv(transport, rank, peer, tag)

    def _mailbox_reverse(self, data: np.ndarray, phase: str, k: int) -> None:
        """Send each ghost block to its owner; collect every contribution
        into its send's stage slice, then one drain."""
        transport = self.world.transport
        epoch = self._epoch
        rnd = epoch.world[k]
        for rank, (plan, base) in enumerate(zip(epoch.plans, epoch.arena.starts.tolist())):
            for peer, lo, hi, tag in plan.recvs(k, phase):
                transport.send(rank, peer, tag, data[base + lo : base + hi].copy())
        stage = self._stage_of(data, rnd.bins.shape[0])
        for rank, (plan, at) in enumerate(zip(epoch.plans, rnd.packed_at)):
            for peer, start, stop, tag in plan.sends(k, phase):
                stage[at + start : at + stop] = self._recv(transport, rank, peer, tag)
        self._sum_onto_owners(data, stage, rnd)

    # -- border stage: the same rounds, writing the epoch ----------------------
    def borders(self) -> None:
        """Rebuild ghost sets and the epoch on every rank (border stage)."""
        with self._phase_span("border"):
            self._borders_impl()

    def _borders_impl(self) -> None:
        """Per round: pack every rank's selected atoms once, then the plane.

        The shape of the forward/reverse replay: one selection and three
        ``np.take`` gathers per rank produce the concatenated send rows of
        the round; ``_plane`` picks who carries the slices; ghosts land in
        canonical recv order on either plane, and the next round selects
        among them.  Packing appends to the rank's send bounds, landing to
        its receive bounds; with the gather arrays themselves they are the
        epoch, installed once every round (and the pattern's
        ``_border_done``) went through — an escalation on the way leaves
        no epoch behind.
        """
        world = self.world
        world.transport.set_phase("border")
        self._border_setup()
        self._epoch = None
        for rank in range(world.size):
            self.atoms_of(rank).clear_ghosts()
        plane = self._plane("border")
        deliver = getattr(self, f"_{plane}_border")
        sent = [[0] for _ in range(world.size)]
        landed = [[self.atoms_of(rank).nlocal] for rank in range(world.size)]
        rounds = []
        for k in range(self.n_rounds):
            with self._round_span(k):
                packs = [
                    self._pack_border(rank, k, sent[rank], landed[rank])
                    for rank in range(world.size)
                ]
                deliver(packs, k, landed)
            rounds.append(packs)
        epoch = self._new_epoch(
            [
                (
                    _cat(tuple(pack.idx for pack in packs)),
                    _cat(tuple(pack.shift_rows for pack in packs)),
                    np.array(sent[rank]),
                    np.array(landed[rank]),
                )
                for rank, packs in enumerate(zip(*rounds))
            ]
        )
        self._border_done(plane, epoch)
        self._epoch = epoch

    def _pack_border(
        self, rank: int, k: int, sent: list[int], landed: list[int]
    ) -> _BorderPack:
        """Gather the payload rows ``rank`` sends in round ``k`` and append
        the round's sends to ``sent``, the rank's send bounds.

        ``idx`` is send-major with rows ascending, so every route's rows
        are a slice of it and the gathers are the per-route ``x[send_idx]
        + shift`` bit for bit (the shift add stays unconditional: the
        ``-0.0`` rule of the plan replay).
        """
        atoms = self.atoms_of(rank)
        idx, counts = self._select_border(rank, k, landed)
        bounds = [0, *np.cumsum(counts).tolist()]
        base = sent[-1]
        sent.extend(base + b for b in bounds[1:])
        shift_rows = np.repeat(self._geom[rank][k].shifts, counts, axis=0)
        x = np.take(atoms.x, idx, axis=0)
        x += shift_rows
        return _BorderPack(
            idx, bounds, shift_rows, x, np.take(atoms.tag, idx), np.take(atoms.type, idx)
        )

    def _direct_border(self, packs: list[_BorderPack], k: int, landed: list[list[int]]) -> None:
        """Write every payload slice straight into its receiver's ghost
        rows — one append per rank, no mailbox round trip per route — and
        log the records the per-message sends would have written."""
        msgs = []
        for rank, pack in enumerate(packs):
            row_bytes = 3 * pack.x.itemsize + pack.tag.itemsize + pack.type.itemsize
            geom = self._geom[rank][k]
            for peer, tag, lo, hi in zip(
                geom.send_peers, geom.wire_tags("border")[0], pack.bounds, pack.bounds[1:]
            ):
                msgs.append(SentMessage(rank, peer, tag, row_bytes * (hi - lo), "border"))
        self.world.transport.log.record_phase(msgs, sum(m.nbytes for m in msgs))
        for rank, ends in enumerate(landed):
            geom = self._geom[rank][k]
            blocks = []
            for src, slot in zip(geom.recv_peers, geom.recv_slots):
                pack = packs[src]
                lo, hi = pack.bounds[slot], pack.bounds[slot + 1]
                blocks.append((pack.x[lo:hi], pack.tag[lo:hi], pack.type[lo:hi]))
                ends.append(ends[-1] + hi - lo)
            self.atoms_of(rank).append_ghosts(*(_cat(column) for column in zip(*blocks)))

    def _mailbox_border(self, packs: list[_BorderPack], k: int, landed: list[list[int]]) -> None:
        """Every payload slice through ``Transport.send`` and the retrying
        ``_recv``, one message at a time: what faults act on and the
        tracer sees."""
        transport = self.world.transport
        for rank, pack in enumerate(packs):
            geom = self._geom[rank][k]
            for peer, tag, lo, hi in zip(
                geom.send_peers, geom.wire_tags("border")[0], pack.bounds, pack.bounds[1:]
            ):
                transport.send(rank, peer, tag, (pack.x[lo:hi], pack.tag[lo:hi], pack.type[lo:hi]))
        for rank, ends in enumerate(landed):
            atoms = self.atoms_of(rank)
            geom = self._geom[rank][k]
            for src, tag in zip(geom.recv_peers, geom.wire_tags("border")[1]):
                start, count = atoms.append_ghosts(*self._recv(transport, rank, src, tag))
                ends.append(start + count)

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
        # Migration moves atoms between ranks: the epoch's rows (and
        # everything priced from them) mean nothing until the next
        # border stage writes new ones.
        self._epoch = None
        with self._phase_span("exchange"):
            self._exchange_impl()

    def _exchange_impl(self) -> None:
        """One pass over every rank's local rows of the arena: gather and
        wrap them once, find each row's owner, write them back with forces
        zeroed — per rank, the rows it keeps in their old order, then
        arrivals by ascending source rank, each in its source's row order.
        A non-finite position raises before any slab is written.  No fault
        may touch migration (``EXEMPT_PHASES``), so nothing rides a
        mailbox: the log and an observer get what a send per destination
        and a drain by source would have recorded."""
        world = self.world
        world.transport.set_phase("exchange")
        size = world.size
        arena = self._adopt()
        nlocal = np.array([atoms.nlocal for atoms in arena.members])
        src = np.repeat(np.arange(size), nlocal)
        rows = _leading_rows(arena.starts, nlocal)
        x = arena.x[rows]
        bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
        if bad.size:
            at = bad[0]
            raise ValueError(
                f"{self.name}: rank {src[at]} holds atom {arena.tag[rows[at]]} at a "
                f"non-finite position {x[at].tolist()}; it has no owner to migrate to"
            )
        x = self.domain.box.wrap(x)
        dest = self.domain.owner_rank(x)
        moved = dest != src
        order = np.argsort(dest * (size + 1) + np.where(moved, src + 1, 0), kind="stable")
        v, tag, type_ = arena.v[rows], arena.tag[rows], arena.type[rows]
        counts = np.bincount(dest, minlength=size)
        for atoms, n in zip(arena.members, counts.tolist()):
            atoms.clear_ghosts()
            atoms.reserve(n)  # may re-lay the arena out: rows below are of the last layout
            atoms.nlocal = n
        rows = _leading_rows(arena.starts, counts)
        arena.x[rows] = x[order]
        arena.v[rows] = v[order]
        arena.tag[rows] = tag[order]
        arena.type[rows] = type_[order]
        arena.f[rows] = 0.0

        # Per source: one ("exch",) send per destination, then its
        # ("exch-done",) count; per destination: that marker, then the
        # drain by source.
        row_bytes = 6 * x.itemsize + tag.itemsize + type_.itemsize  # x, v, tag, type
        sent = np.bincount(src[moved] * size + dest[moved], minlength=size * size)
        sent = sent.reshape(size, size).tolist()
        msgs, received = [], []
        for rank in range(size):
            msgs.extend(
                SentMessage(rank, peer, ("exch",), row_bytes * n, "exchange")
                for peer, n in enumerate(sent[rank])
                if n
            )
            msgs.append(SentMessage(rank, rank, ("exch-done",), 8, "exchange"))
            received.append((rank, rank))
            received.extend((peer, rank) for peer in range(size) if sent[peer][rank])
        world.transport.record_moved(msgs, sum(m.nbytes for m in msgs), received)

    # -- statistics ----------------------------------------------------------------
    def messages_per_rank(self) -> dict[int, int]:
        """Forward-stage send count per rank (Table 1's ``msg``)."""
        return {r: len(plan.send_bounds) - 1 for r, plan in enumerate(self._current().plans)}

    def ghost_counts(self) -> dict[int, int]:
        """Current ghost-atom count per rank."""
        return {r: self.atoms_of(r).nghost for r in range(self.world.size)}
