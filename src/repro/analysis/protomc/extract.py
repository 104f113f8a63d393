"""Extract per-rank communication programs from scenarios and exchanges.

Three entry points, cheapest first:

* :func:`model_from_profile` — pure arithmetic from a
  :class:`~repro.analysis.commlint.CommProfile` + rank grid + pattern
  (what ``repro verify`` runs over the whole fleet);
* :func:`model_from_scenario` — derives grid/pattern/budget from a
  ``repro-scenario/1`` document and delegates to the profile path;
* :func:`model_from_exchange` — reads the *live* route tables of a
  built :class:`~repro.core.exchange_base.GhostExchange` (selfcheck
  cross-validates this against the arithmetic extraction).

Conventions (mirroring ``repro.core``):

* p2p with Newton: recvs over the 13-offset half shell, sends over its
  negation; ``newton=False`` exchanges the full 26-shell (62/124 at
  radius 2).  Tags carry the receive-side offset, so aliased peers on
  tiny grids stay distinguishable.
* 3-stage: the :func:`~repro.core.patterns.three_stage_swaps` schedule
  with a **dimension fence** between dim groups — a y-swap payload
  contains forwarded x ghosts, which is exactly the ordering dependency
  the checker must see.
* reverse stage: every forward flow flipped (forces flow back).
* ``rdma=True`` adds the end-of-stage fence of section 3.4.
* self-routes (periodic wrap onto the own rank) are local copies, not
  messages: skipped symmetrically on both sides.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.analysis.protomc.model import FENCE, RECV, SEND, CommModel, Op
from repro.core.patterns import half_shell_offsets, shell_offsets, three_stage_swaps

if TYPE_CHECKING:
    from repro.analysis.commlint import CommProfile
    from repro.core.exchange_base import GhostExchange

#: Canonical rank grid for roles that do not carry one (model sweep).
CANONICAL_GRID = (3, 3, 3)

#: Stage name -> short tag prefix used in message tags.
_STAGE_TAG = {"borders": "bord", "forward": "fwd", "reverse": "rev"}


def grid_peer(
    rank: int, offset: tuple[int, int, int], grid: tuple[int, int, int]
) -> int:
    """Rank at periodic grid ``offset`` from ``rank`` (x-major layout)."""
    gx, gy, gz = grid
    x, y, z = rank % gx, (rank // gx) % gy, rank // (gx * gy)
    return (
        (x + offset[0]) % gx
        + gx * ((y + offset[1]) % gy)
        + gx * gy * ((z + offset[2]) % gz)
    )


def degradation_ladder(pattern: str) -> tuple[str, ...]:
    """The retry-degradation chain starting at ``pattern``.

    Follows the live exchange classes' ``fallback_pattern`` attributes
    so the model can never drift from the runtime ladder.  A cycle in
    the class attributes is preserved (truncated one tier past the
    repeat) for P4 to flag.
    """
    from repro.core.fine_p2p import FineGrainedP2PExchange
    from repro.core.p2p import P2PExchange
    from repro.core.three_stage import ThreeStageExchange

    fallback = {
        cls.name: cls.fallback_pattern
        for cls in (FineGrainedP2PExchange, P2PExchange, ThreeStageExchange)
    }
    chain: list[str] = []
    tier: str | None = pattern
    while tier is not None:
        chain.append(tier)
        if chain.count(tier) > 1:  # cycle: keep the repeat as evidence
            break
        tier = fallback.get(tier)
    return tuple(chain)


def _p2p_stage_ops(
    rank: int,
    grid: tuple[int, int, int],
    stage: str,
    newton: bool,
    radius: int,
    atoms: int,
) -> list[Op]:
    """One p2p stage of one rank: all sends posted, then all recvs."""
    recv_offsets = half_shell_offsets(radius) if newton else shell_offsets(radius)
    prefix = _STAGE_TAG[stage]
    forward = stage != "reverse"
    ops: list[Op] = []
    # Forward flow: send along -o, receive along +o (tags keyed by the
    # receive-side offset).  Reverse flips every flow: forces travel
    # back along the routes ghosts arrived on.
    for o in recv_offsets:
        o_send = tuple(-c for c in o)
        send_off, recv_off = (o_send, o) if forward else (o, o_send)
        peer_s = grid_peer(rank, send_off, grid)
        peer_r = grid_peer(rank, recv_off, grid)
        if peer_s != rank:
            ops.append(Op(SEND, rank, peer_s, (prefix, o), stage, atoms))
        if peer_r != rank:
            ops.append(Op(RECV, rank, peer_r, (prefix, o), stage, atoms))
    # Group sends first: the runtime posts every send before draining
    # (exchange_base._forward_array), and P3's burst analysis needs it.
    ops.sort(key=lambda op: op.kind != SEND)
    return ops


def _three_stage_ops(
    rank: int,
    grid: tuple[int, int, int],
    stage: str,
    radius: int,
    atoms: int,
) -> list[Op]:
    """One 3-stage stage: the swap schedule with dimension fences."""
    swaps = three_stage_swaps(radius)
    prefix = _STAGE_TAG[stage]
    if stage == "reverse":  # forces retrace the swaps backwards
        swaps = list(reversed(swaps))
    ops: list[Op] = []
    prev_dim: int | None = None
    for k, swap in enumerate(swaps):
        if prev_dim is not None and swap.dim != prev_dim:
            # A swap in dim d forwards ghosts delivered by dim d-1: the
            # dependency is a barrier between dimension groups.
            ops.append(Op(FENCE, rank, -1, (prefix, "dim", prev_dim), stage))
        prev_dim = swap.dim
        direction = swap.dir if stage != "reverse" else -swap.dir
        vec = tuple(direction if d == swap.dim else 0 for d in range(3))
        dst = grid_peer(rank, vec, grid)
        src = grid_peer(rank, tuple(-c for c in vec), grid)
        tag = (prefix, "3s", k)
        if dst != rank:
            ops.append(Op(SEND, rank, dst, tag, stage, atoms))
        if src != rank:
            ops.append(Op(RECV, rank, src, tag, stage, atoms))
    return ops


def build_programs(
    grid: tuple[int, int, int],
    pattern: str,
    *,
    newton: bool = True,
    radius: int = 1,
    rdma: bool = False,
    stage_order: tuple[str, ...] = ("borders", "forward", "reverse"),
    atoms: int = 0,
) -> tuple[tuple[Op, ...], ...]:
    """Per-rank op programs for a pattern on a rank grid."""
    n_ranks = math.prod(grid)
    programs: list[tuple[Op, ...]] = []
    for rank in range(n_ranks):
        ops: list[Op] = []
        for stage in stage_order:
            if pattern == "3stage":
                ops.extend(_three_stage_ops(rank, grid, stage, radius, atoms))
            else:  # p2p / parallel-p2p share the direct-neighbor protocol
                ops.extend(
                    _p2p_stage_ops(rank, grid, stage, newton, radius, atoms)
                )
            if rdma:
                # Section 3.4: the RDMA plane fences once per stage so
                # ring slots recycle before the next stage's PUTs.
                ops.append(Op(FENCE, rank, -1, ("stage", stage), stage))
        programs.append(tuple(ops))
    return tuple(programs)


def model_from_profile(
    profile: CommProfile,
    grid: tuple[int, int, int],
    pattern: str,
    *,
    reorder: bool = False,
    max_retries: int = 8,
    label: str | None = None,
) -> CommModel:
    """Build the checkable model of one comm profile + rank grid."""
    from repro.core.ghost import GhostBudget

    budget = GhostBudget(
        a=profile.sub_box_edge, r=profile.rcomm, density=profile.density
    )
    slot_atoms = budget.max_atoms_per_message()
    programs = build_programs(
        grid,
        pattern,
        newton=profile.newton,
        radius=profile.shell_radius,
        rdma=profile.rdma,
        stage_order=profile.stage_order,
        atoms=slot_atoms,
    )
    return CommModel(
        label=label or f"{profile.label}/{pattern}",
        n_ranks=math.prod(grid),
        programs=programs,
        ring_depth=profile.ring_depth,
        slot_atoms=slot_atoms,
        rings=profile.rdma,
        reorder=reorder,
        ladder=degradation_ladder(pattern),
        max_retries=max_retries,
    )


def model_from_scenario(scenario: dict, pattern: str | None = None) -> CommModel:
    """The checkable model of one ``repro-scenario/1`` document.

    ``pattern`` defaults to the scenario's first (most aggressive)
    pattern.  Model-sweep scenarios have no rank grid of their own and
    are checked on the canonical :data:`CANONICAL_GRID`.
    """
    from repro.scenarios.validate import comm_profile

    p = scenario["params"]
    role = scenario["role"]
    if pattern is None:
        if role == "bench":
            pattern = str(p.get("pattern", "p2p"))
        else:
            pats = p.get("patterns") or ["p2p"]
            pattern = str(pats[0])
    grid = CANONICAL_GRID if role == "model" else tuple(p["grid"])
    reorder = False
    max_retries = 8
    if role == "fault":
        from repro.faults.plan import template_plan

        kind = str(scenario["axes"]["fault"])
        plan = template_plan(kind, seed=int(scenario["seed"]))
        max_retries = plan.policy.max_retries
        reorder = any(f.kind == "reorder" for f in plan.faults)
    return model_from_profile(
        comm_profile(scenario),
        grid,  # type: ignore[arg-type]
        pattern,
        reorder=reorder,
        max_retries=max_retries,
        label=f"{scenario['id']}/{pattern}",
    )


def model_from_exchange(exchange: GhostExchange, *, label: str | None = None) -> CommModel:
    """Model a *live* exchange from its installed epoch: static round
    geometry (peers, tags) x the border stage's bounds (atom counts).

    Call after ``exchange.borders()``.  Forward tags are shared by both
    endpoints of a route, so the reverse stage is the exact flip: sends
    retrace recv routes and vice versa.  Ring depth and slot size are the
    exchange's own: its ``ring_depth`` (4 for 3-stage, which has none) and its
    budget's ``max_atoms_per_message()``.
    """
    programs: list[tuple[Op, ...]] = []
    n_ranks = exchange.world.size
    rdma = bool(getattr(exchange, "rdma", False))
    for rank, plan in enumerate(exchange._current().plans):
        # (peer, tag, atoms) of every route to or from another rank
        sends, recvs = (
            [
                (peer, tuple(tag), hi - lo)
                for k in range(exchange.n_rounds)
                for peer, lo, hi, tag in routes(k)
                if peer != rank
            ]
            for routes in (plan.sends, plan.recvs)
        )
        ops: list[Op] = []
        for stage in ("borders", "forward"):
            prefix = _STAGE_TAG[stage]
            for peer, tag, count in sends:
                ops.append(Op(SEND, rank, peer, (prefix,) + tag, stage, count))
            for peer, tag, count in recvs:
                ops.append(Op(RECV, rank, peer, (prefix,) + tag, stage, count))
            if rdma:
                ops.append(Op(FENCE, rank, -1, ("stage", stage), stage))
        for peer, tag, count in recvs:  # reverse: forces back along recv routes
            ops.append(Op(SEND, rank, peer, ("rev",) + tag, "reverse", count))
        for peer, tag, count in sends:
            ops.append(Op(RECV, rank, peer, ("rev",) + tag, "reverse", count))
        if rdma:
            ops.append(Op(FENCE, rank, -1, ("stage", "reverse"), "reverse"))
        programs.append(tuple(ops))
    return CommModel(
        label=label or f"live/{exchange.name}",
        n_ranks=n_ranks,
        programs=tuple(programs),
        ring_depth=getattr(exchange, "ring_depth", 4),
        slot_atoms=exchange._plan_budget().max_atoms_per_message(),
        rings=rdma,
        ladder=degradation_ladder(exchange.name),
    )


def check_live_extraction(exchanges: dict[str, GhostExchange]) -> tuple[bool, str]:
    """Models read from border-exchanged live exchanges, keyed by pattern,
    send Table 1's message count from rank 0 and prove P1-P4."""
    from repro.analysis.protomc.checker import verify_model
    from repro.core.analytic import TABLE1_MESSAGES

    ok, parts = True, []
    for pattern, exchange in exchanges.items():
        model = model_from_exchange(exchange, label=f"live/{pattern}")
        sends = sum(op.kind == SEND and op.stage == "borders" for op in model.programs[0])
        want = TABLE1_MESSAGES[pattern]
        ok = ok and sends == want and verify_model(model).ok
        parts.append(f"{pattern}: {sends}/{want} border sends")
    return ok, ", ".join(parts)
