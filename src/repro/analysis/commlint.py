"""commlint — protocol-invariant checks on the exchange that runs.

The paper's speedup rests on protocol invariants that are easy to break
silently in review: ring depth 4 (§3.4), one CQ per TNI per rank with 24
distinct CQs per node (§3.3), Newton-symmetric send/recv plans (§3.1),
RDMA targets that were actually exchanged during the border stage, and
buffers sized from the analytic ghost maximum (§3.4).  commlint checks
them on live objects, in two modes:

* **live** — :func:`run_commlint` builds the self-check battery's LJ
  system (256 atoms, 2x2x2 ranks, ``p2p`` + rdma), runs ``setup()`` and
  asks :func:`exchange_violations` about the rings, windows and arena
  that exchange really built, against its own analytic budget; it also
  checks the fine VCQ binding (24 distinct CQs) and the shell generators
  (the half-shell send plan is the exact negation of the receive plan);
* **config** — :func:`lint_config` checks one
  :class:`CommProfile`, the scenario fleet's L1 level (outside input).

The invariants both modes check (CQ count, shell symmetry, message
bound, slab dominance) are each stated once, as a ``_*_violations``
function both callers anchor.  Every rule has a stable ID (``CL001``..).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.findings import AnalysisReport, Finding

if TYPE_CHECKING:
    from repro.core.exchange_base import GhostExchange
    from repro.core.ghost import GhostBudget

#: Minimum safe receive-ring depth for the border->forward->reverse
#: dependency chain (paper Fig. 10; enforced live by RecvBufferRing).
MIN_RING_DEPTH = 4

#: The rule catalog: stable ID -> one-line description.
RULES: dict[str, str] = {
    "CL001": "round-robin receive-ring depth below 4 (overwrite hazard, §3.4)",
    "CL002": "duplicated VCQ->CQ binding (CQs are not thread-safe, §3.3)",
    "CL003": "fine binding must use 24 distinct CQs/node, one per TNI per rank (§3.3)",
    "CL004": "stage order violated: border before forward, forward before reverse",
    "CL005": "send/recv plan not Newton-symmetric (send offsets must negate recv, §3.1)",
    "CL006": "RDMA window not pre-registered, or a send without an exchanged window (§3.4)",
    "CL007": "RDMA buffer below the analytic ghost maximum (§3.4)",
    "CL008": "atom arena slab not dominated by the GhostBudget analytic maximum (§3.4)",
    "CL009": "per-route ring depth (one message per slot) below the "
             "worst-case burst of the send schedule (§3.4)",
}

_STAGE_ORDER = {"borders": 0, "forward": 1, "reverse": 2}


# -- shared predicates -------------------------------------------------------
# One statement per invariant.  Each returns ``(rule, message)`` pairs;
# the live pass anchors them to the live object's source line,
# :func:`lint_config` to ``<config:label>``.
def _fine_binding_violations(n_ranks: int) -> list[tuple[str, str]]:
    """CL002/CL003: ``n_ranks`` x 6 distinct CQs, one per TNI per rank."""
    from repro.machine.params import FUGAKU
    from repro.machine.tni import NodeNIC, TNIAllocationError

    nic = NodeNIC(FUGAKU)
    try:
        vcq_map = nic.bind_fine(list(range(n_ranks)))
    except TNIAllocationError as exc:
        return [("CL003", f"fine VCQ binding infeasible: {exc}")]
    out = []
    bindings = [(v.cq.tni, v.cq.index) for vcqs in vcq_map.values() for v in vcqs]
    dupes = sorted({b for b in bindings if bindings.count(b) > 1})
    if dupes:
        out.append(("CL002", f"fine binding produced duplicated CQ(s) {dupes}"))
    expected = n_ranks * nic.tni_count
    if nic.cqs_in_use() != expected or len(bindings) != expected:
        out.append((
            "CL003",
            f"fine binding allocated {nic.cqs_in_use()} CQs, expected "
            f"{expected} ({n_ranks} ranks x {nic.tni_count} TNIs)",
        ))
    for rank, vcqs in vcq_map.items():
        tnis = {v.tni for v in vcqs}
        if len(vcqs) != nic.tni_count or len(tnis) != len(vcqs):
            out.append((
                "CL003",
                f"rank {rank} holds {len(vcqs)} VCQs over {len(tnis)} "
                "distinct TNIs, expected one per TNI",
            ))
            break
    # The per-rank-per-TNI hardware rule must be *enforced*, not assumed.
    try:
        nic.tnis[0].allocate_cq(0)
    except TNIAllocationError:
        pass
    else:
        out.append(
            ("CL003", "TNI.allocate_cq allowed a rank to own two CQs on one TNI")
        )
    return out


def _shell_symmetry_violations(radius: int) -> list[tuple[str, str]]:
    """CL005: half shell U its negation = the negation-closed full shell."""
    from repro.core import patterns

    half = set(patterns.half_shell_offsets(radius))
    full = set(patterns.shell_offsets(radius))
    negated = {tuple(-o for o in off) for off in half}
    out = []
    if half & negated:
        out.append((
            "CL005",
            f"half shell (radius {radius}) is not disjoint from its negation: "
            "some pairs are exchanged twice",
        ))
    if half | negated != full:
        out.append((
            "CL005",
            f"half shell + negation != full shell at radius {radius} "
            f"({len(half | negated)} vs {len(full)} offsets)",
        ))
    if full != {tuple(-o for o in off) for off in full}:
        out.append(
            ("CL005", f"full shell (radius {radius}) is not closed under negation")
        )
    return out


def _worst_message_atoms(budget: GhostBudget) -> float:
    """Analytic worst-case shell message (the stage-3 slab bounds all of Table 1)."""
    from repro.core.ghost import offset_volume
    from repro.core.patterns import shell_offsets

    return max(
        offset_volume(budget.a, budget.r, off) * budget.density * budget.safety
        for off in shell_offsets(1)
    )


def _message_bound_violations(per_message: int, worst: float) -> list[tuple[str, str]]:
    """CL007: the single-message bound dominates every shell message."""
    if per_message >= worst:
        return []
    return [(
        "CL007",
        f"max_atoms_per_message()={per_message} is below the analytic "
        f"worst-case message of {worst:.1f} atoms",
    )]


def _pool_dominance_violations(budget: GhostBudget) -> list[tuple[str, str]]:
    """CL008: an arena adopted at the budget's analytic maximum holds it in
    every slab, is reused at that capacity, and counts growth past it."""
    from repro.md.atoms import AtomArena, Atoms

    out = []
    capacity = budget.max_local_atoms() + budget.max_ghost_atoms(False)
    atoms = [Atoms(1), Atoms(1)]
    arena = AtomArena.adopt(atoms, capacity)
    smallest = min(a.capacity for a in atoms)
    if smallest < capacity:
        out.append((
            "CL008",
            f"slab capacity {smallest} is below the analytic maximum {capacity}",
        ))
    # Steady state: re-adopting at the same capacity keeps the one layout.
    if AtomArena.adopt(atoms, capacity) is not arena or arena.relayouts != 0:
        out.append((
            "CL008",
            f"re-adopting at capacity {capacity} re-laid the arena out "
            f"(relayouts={arena.relayouts})",
        ))
    # Growth past the analytic maximum must be possible but *counted*.
    atoms[0].reserve(atoms[0].capacity + 1)
    if arena.relayouts != 1:
        out.append((
            "CL008",
            f"over-budget growth was not counted (relayouts={arena.relayouts}, "
            "expected 1)",
        ))
    # An arena and its members reference each other: unlink them so the
    # slabs are freed on return, not at the next cyclic collection
    # (lint_config runs this once per scenario).
    arena.members.clear()
    return out


# -- the live pass -----------------------------------------------------------
def _anchored(obj: object, violations: list[tuple[str, str]]) -> list[Finding]:
    """``(rule, message)`` violations as findings at ``obj``'s definition."""
    if not violations:
        return []
    try:
        path = inspect.getsourcefile(obj) or "<runtime>"  # type: ignore[arg-type]
        _, line = inspect.getsourcelines(obj)  # type: ignore[arg-type]
    except (OSError, TypeError):
        path, line = "<runtime>", 0
    return [
        Finding(rule=rule, path=path, line=line, message=message)
        for rule, message in violations
    ]


def _summary(rule: str, offenders: list[str]) -> list[tuple[str, str]]:
    """One violation naming the first of ``offenders`` and counting the rest."""
    if not offenders:
        return []
    more = f" (and {len(offenders) - 1} more)" if len(offenders) > 1 else ""
    return [(rule, offenders[0] + more)]


def exchange_violations(exchange: GhostExchange) -> list[Finding]:
    """CL001/CL006/CL007/CL008 on a border-exchanged ``exchange``: the
    receive rings, registered regions, installed windows and atom arena it
    built, against its own :meth:`~GhostExchange._plan_budget`."""
    import numpy as np

    from repro.core.rdma_buffers import RdmaEndpoint, RecvBufferRing
    from repro.machine.rdma import RdmaError
    from repro.md.atoms import AtomArena

    arena = exchange.arena
    if arena is None:
        raise ValueError(f"{exchange.name}: no arena before the first border stage")
    budget = exchange._plan_budget()
    per_message = budget.max_atoms_per_message()
    needed = per_message * 3 + 1  # xyz + length prefix
    shallow: list[str] = []
    small: list[str] = []
    unresolved: list[str] = []
    for rank, endpoint in sorted(getattr(exchange, "endpoints", {}).items()):
        atoms = exchange.atoms_of(rank)
        handles: list[tuple[int, int, str]] = []
        for n_idx, ring in enumerate(endpoint.recv_rings):
            where = f"rank {rank} ring {n_idx}"
            if ring.depth < MIN_RING_DEPTH:
                shallow.append(f"{where}: depth {ring.depth} < {MIN_RING_DEPTH}")
            if ring.capacity < needed:
                small.append(
                    f"{where}: capacity {ring.capacity} < analytic requirement "
                    f"{needed} elements"
                )
            handles += [(ring.rank, stag, where) for stag in ring.stags()]
        for name, region, storage in (
            ("position", endpoint.x_region, atoms._x),
            ("force", endpoint.f_region, atoms._f),
        ):
            if region.length < storage.size:
                small.append(
                    f"rank {rank}: registered {name} region ({region.length} "
                    f"elements) is smaller than its storage ({storage.size})"
                )
        # A PUT goes only to a window the border stage exchanged, and every
        # handle it names resolves on the rank that owns it.
        for s_idx in range(len(endpoint.send_buffers)):
            window = endpoint.remote.get(s_idx)
            where = f"rank {rank} send {s_idx}"
            if window is None:
                unresolved.append(f"{where}: no exchanged remote window")
                continue
            handles += [
                (window.rank, stag, where)
                for stag in (window.x_stag, *window.recv_stags)
            ]
        for owner, stag, where in handles:
            try:
                exchange.engine.cache_for(owner).lookup(stag)  # type: ignore[attr-defined]
            except RdmaError as exc:
                unresolved.append(f"{where}: {exc}")

    capacity = budget.max_local_atoms() + budget.max_ghost_atoms(exchange.full_shell)
    slabs = [
        f"rank {rank}: slab of {rows} rows is below the analytic maximum {capacity}"
        for rank, rows in enumerate(np.diff(arena.starts).tolist())
        if rows < capacity
    ]
    if arena.relayouts:
        slabs.append(
            f"the arena was re-laid out {arena.relayouts} time(s): a slab "
            "outgrew its capacity"
        )
    return (
        _anchored(RecvBufferRing, _summary("CL001", shallow))
        + _anchored(RdmaEndpoint, _summary("CL006", unresolved))
        + _anchored(
            RdmaEndpoint,
            _message_bound_violations(per_message, _worst_message_atoms(budget))
            + _summary("CL007", small),
        )
        + _anchored(AtomArena, _summary("CL008", slabs))
    )


def probe_exchange(ring_depth: int | None = None) -> GhostExchange:
    """The self-check battery's system after ``setup()``: LJ, 256 atoms at
    rho* = 0.8442 on 2x2x2 ranks, ``p2p`` over the rdma plane, its receive
    rings ``ring_depth`` deep (default: as the exchange builds them)."""
    from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
    from repro.md.potentials import LennardJones
    from repro.md.simulation import Simulation, SimulationConfig

    x, box = fcc_lattice((4, 4, 4), lj_density_to_cell(0.8442))
    v = maxwell_velocities(x.shape[0], 1.44, seed=7)
    cfg = SimulationConfig(dt=0.005, skin=0.3, pattern="p2p", rdma=True)
    sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
    if ring_depth is not None:  # the rings are built by the first border stage
        sim.exchange.ring_depth = ring_depth  # type: ignore[attr-defined]
    sim.setup()
    return sim.exchange


# -- single-config entry (scenario fleet L1) ---------------------------------
@dataclass(frozen=True)
class CommProfile:
    """The communication-relevant shape of ONE concrete configuration.

    Where the live pass checks the objects one built exchange holds,
    :func:`lint_config` lints one derived CommPlan/machine configuration
    — the L1 feasibility level of the scenario fleet.
    Geometry is the per-rank sub-box (``sub_box_edge``), ``rcomm`` the
    communication cutoff, ``density`` the mean atom density the
    GhostBudget prices.
    """

    label: str
    sub_box_edge: float
    rcomm: float
    density: float
    ring_depth: int = 4
    stage_order: tuple[str, ...] = ("borders", "forward", "reverse")
    shell_radius: int = 1
    newton: bool = True
    rdma: bool = False
    window_exchange: bool = True
    ranks_per_node: int = 4
    #: How many same-route send epochs (stages) the schedule can leave
    #: outstanding at once: 1 when a fence drains every stage (the rdma
    #: window-exchange discipline), 3 when borders/forward/reverse can
    #: all be in flight together (CL009 checks capacity against it).
    inflight_epochs: int = 3
    cq_bindings: tuple[tuple[int, int], ...] | None = None


def _cfg_finding(profile: CommProfile, rule: str, message: str, detail: str = "") -> Finding:
    return Finding(
        rule=rule,
        path=f"<config:{profile.label}>",
        message=message,
        detail=detail,
    )


def lint_config(profile: CommProfile) -> list[Finding]:
    """Run the CL001–CL009 feasibility rules on one configuration.

    Returns the (possibly empty) finding list; never raises on an
    infeasible profile — infeasibility IS the finding.
    """
    from repro.core.ghost import GhostBudget

    def shared(violations: list[tuple[str, str]]) -> list[Finding]:
        return [_cfg_finding(profile, rule, message) for rule, message in violations]

    findings: list[Finding] = []

    # CL001: receive-ring depth covers the border->forward->reverse chain.
    if profile.ring_depth < MIN_RING_DEPTH:
        findings.append(_cfg_finding(
            profile, "CL001",
            f"ring_depth {profile.ring_depth} < {MIN_RING_DEPTH}",
            "a PUT from stage k+1 can land on data stage k has not consumed",
        ))

    # CL002: explicit CQ bindings (when given) must be duplicate-free.
    if profile.cq_bindings is not None:
        dupes = sorted(
            {b for b in profile.cq_bindings if profile.cq_bindings.count(b) > 1}
        )
        if dupes:
            findings.append(_cfg_finding(
                profile, "CL002",
                f"duplicated VCQ->CQ binding(s) {dupes}",
                "a CQ is not thread-safe; every VCQ must bind a distinct CQ",
            ))

    # CL003: the node's TNIs can actually host one CQ per rank per TNI.
    if not 1 <= profile.ranks_per_node <= 4:
        findings.append(_cfg_finding(
            profile, "CL003",
            f"ranks_per_node {profile.ranks_per_node} outside [1, 4]",
            "Fugaku runs 4 ranks per node; the fine binding is defined "
            "for at most 4 ranks sharing 6 TNIs",
        ))
    else:
        findings += shared(_fine_binding_violations(profile.ranks_per_node))

    # CL004: declared stage order must be border -> forward -> reverse.
    known = [s for s in profile.stage_order if s in _STAGE_ORDER]
    if [_STAGE_ORDER[s] for s in known] != sorted(_STAGE_ORDER[s] for s in known):
        findings.append(_cfg_finding(
            profile, "CL004",
            f"stage order {profile.stage_order} violates "
            "borders -> forward -> reverse",
            "routes are rebuilt by the border stage; forward replays them "
            "and reverse retraces forward",
        ))

    # CL005: the stencil at this radius is Newton-symmetric.
    if profile.shell_radius < 1:
        findings.append(_cfg_finding(
            profile, "CL005", f"shell_radius {profile.shell_radius} < 1"
        ))
    else:
        findings += shared(_shell_symmetry_violations(profile.shell_radius))

    # CL006: one-sided PUTs require the border-stage window exchange.
    if profile.rdma and not profile.window_exchange:
        findings.append(_cfg_finding(
            profile, "CL006",
            "rdma enabled without the border-stage window exchange",
            "STags are only valid after the border stage piggybacks them; "
            "a PUT without the exchange targets a stale window",
        ))

    # CL007: geometry + analytic buffer bound.
    if profile.sub_box_edge <= 0 or profile.rcomm <= 0 or profile.density <= 0:
        findings.append(_cfg_finding(
            profile, "CL007",
            f"degenerate geometry (sub_box_edge={profile.sub_box_edge:g}, "
            f"rcomm={profile.rcomm:g}, density={profile.density:g})",
        ))
        return findings  # budget math below needs positive inputs
    if profile.rcomm > profile.shell_radius * profile.sub_box_edge:
        findings.append(_cfg_finding(
            profile, "CL007",
            f"rcomm {profile.rcomm:g} exceeds stencil reach "
            f"{profile.shell_radius} x sub-box edge {profile.sub_box_edge:g}",
            "the ghost shell escapes the stencil: atoms beyond the "
            "neighbor ranks can never arrive, and the analytic buffer "
            "bound no longer dominates",
        ))
        return findings
    budget = GhostBudget(
        a=profile.sub_box_edge, r=profile.rcomm, density=profile.density
    )
    per_message = budget.max_atoms_per_message()
    worst = _worst_message_atoms(budget)
    findings += shared(_message_bound_violations(per_message, worst))

    # CL008: an arena sized by this budget never re-lays out in budget.
    findings += shared(_pool_dominance_violations(budget))

    # CL009: a ring slot holds one message (``rdma_buffers`` sizes every
    # slot by max_atoms_per_message(), which CL007 checks dominates each
    # shell message), so a route's ring_depth slots must cover the
    # inflight_epochs messages the send schedule can leave outstanding on
    # it — the arithmetic precursor to protomc's exact P3 bound.
    if profile.inflight_epochs < 1:
        findings.append(_cfg_finding(
            profile, "CL009",
            f"inflight_epochs {profile.inflight_epochs} < 1",
        ))
    elif profile.ring_depth < profile.inflight_epochs:
        findings.append(_cfg_finding(
            profile, "CL009",
            f"ring depth {profile.ring_depth} slots is below the worst-case "
            f"burst of {profile.inflight_epochs} outstanding messages per route",
            "an adversarially delayed drain overflows the route's ring "
            "slots; raise ring_depth or fence between stages "
            "(repro verify proves the exact bound per scenario)",
        ))
    return findings


# -- entry point -------------------------------------------------------------
def run_commlint() -> AnalysisReport:
    """The live pass: :func:`exchange_violations` on :func:`probe_exchange`,
    the fine VCQ binding of a 4-rank node, and the shell generators at
    radii 1-2; the arena mechanics are checked at the probe's budget."""
    from repro.core import patterns
    from repro.machine.tni import NodeNIC
    from repro.md.atoms import AtomArena

    exchange = probe_exchange()
    report = AnalysisReport(tool="commlint")
    report.findings = (
        _anchored(NodeNIC.bind_fine, _fine_binding_violations(4))
        + _anchored(
            patterns.half_shell_offsets,
            _shell_symmetry_violations(1) + _shell_symmetry_violations(2),
        )
        + exchange_violations(exchange)
        + _anchored(AtomArena, _pool_dominance_violations(exchange._plan_budget()))
    )
    report.files_analyzed.append(f"<exchange:{exchange.name}+rdma 2x2x2>")
    return report


def check_clean(report: AnalysisReport) -> tuple[bool, str]:
    """A commlint run found nothing."""
    return report.clean, (
        f"{len(report.findings)} finding(s) on {', '.join(report.files_analyzed)}"
    )


def check_flags_seeded_bug() -> tuple[bool, str]:
    """An exchange built with 3-deep receive rings comes back as one CL001."""
    rules = [f.rule for f in exchange_violations(probe_exchange(ring_depth=3))]
    return rules == ["CL001"], f"rules {rules}"
