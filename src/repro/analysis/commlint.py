"""commlint — static protocol-invariant checks for the exchange/RDMA stack.

The paper's speedup rests on protocol invariants that are easy to break
silently in review: ring depth 4 (§3.4), one CQ per TNI per rank with 24
distinct CQs per node (§3.3), Newton-symmetric send/recv plans (§3.1),
RDMA targets that were actually exchanged during the border stage, and
buffers sized from the analytic ghost maximum (§3.4).  commlint verifies
them *without running a simulation*, in two cooperating halves:

* **static** — an AST pass over the communication sources (``core/``,
  ``machine/`` and the stage-order call sites in ``md/``) that flags
  syntactic violations: literal ring depths below 4, duplicated literal
  CQ bindings, out-of-order stage calls, asymmetric literal offset
  tables, RDMA puts aimed at literal (never-exchanged) STags, and
  buffer capacities that are bare literals instead of
  :class:`~repro.core.ghost.GhostBudget` expressions;
* **introspective** — checks that import the live modules and verify
  the invariants on the real objects: the fine VCQ binding yields 24
  distinct CQs, the half-shell send plan is the exact negation of the
  receive plan, ring/endpoint defaults are >= 4, the endpoint's
  buffers dominate the analytic maximum and are pre-registered, and so
  do the atom arena's slabs.

The four invariants :func:`lint_config` checks on one configuration as
well (CQ count, shell symmetry, message bound, slab dominance) are each
stated once, as a ``_*_violations`` function both callers anchor.

Every rule has a stable ID (``CL001``..) so findings are suppressible
with ``# commlint: disable=CL001`` on the flagged line or
``# commlint: disable-file=CL001`` anywhere in the file.
"""

from __future__ import annotations

import ast
import inspect
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.findings import AnalysisReport, Finding

if TYPE_CHECKING:
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
    "CL006": "RDMA put targets a literal/unexchanged STag or skips the window exchange (§3.4)",
    "CL007": "RDMA buffer size not derived from (or below) the analytic ghost maximum (§3.4)",
    "CL008": "atom arena slab not dominated by the GhostBudget analytic maximum (§3.4)",
    "CL009": "per-route in-flight capacity (ring depth x slot size) below the "
             "worst-case burst of the send schedule (§3.4)",
}

_SUPPRESS_RE = re.compile(r"#\s*commlint:\s*disable=([A-Z0-9,\s]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*commlint:\s*disable-file=([A-Z0-9,\s]+)")
_OFFSET_SEND_RE = re.compile(r"send.*offset", re.IGNORECASE)
_OFFSET_RECV_RE = re.compile(r"recv.*offset", re.IGNORECASE)

#: Repo-relative module set scanned by default (the exchange/RDMA stack
#: plus the stage-order call sites).
DEFAULT_MODULES = (
    "core/analytic.py",
    "core/border_bins.py",
    "core/comm_plan.py",
    "core/exchange_base.py",
    "core/fine_p2p.py",
    "core/ghost.py",
    "core/message_combine.py",
    "core/p2p.py",
    "core/patterns.py",
    "core/rdma_buffers.py",
    "core/three_stage.py",
    "machine/rdma.py",
    "machine/tni.py",
    "md/simulation.py",
    "md/stages.py",
)


def default_paths() -> list[str]:
    """The communication sources commlint scans by default."""
    import repro

    pkg = Path(inspect.getsourcefile(repro)).parent  # type: ignore[arg-type]
    return [str(pkg / rel) for rel in DEFAULT_MODULES]


# -- suppression handling ----------------------------------------------------
class _Suppressions:
    """Per-line and file-level ``# commlint: disable=`` directives."""

    def __init__(self, source: str) -> None:
        self.by_line: dict[int, set[str]] = {}
        self.file_level: set[str] = set()
        for lineno, line in enumerate(source.splitlines(), start=1):
            m = _SUPPRESS_FILE_RE.search(line)
            if m:
                self.file_level.update(self._ids(m.group(1)))
                continue
            m = _SUPPRESS_RE.search(line)
            if m:
                self.by_line.setdefault(lineno, set()).update(self._ids(m.group(1)))

    @staticmethod
    def _ids(raw: str) -> list[str]:
        return [part.strip() for part in raw.split(",") if part.strip()]

    def hides(self, rule: str, line: int) -> bool:
        """Whether ``rule`` at ``line`` is suppressed."""
        return rule in self.file_level or rule in self.by_line.get(line, set())


# -- AST helpers -------------------------------------------------------------
def _call_name(node: ast.Call) -> str:
    """Last dotted segment of the called name (``a.b.C(...)`` -> ``C``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _literal_int(node: ast.AST | None) -> int | None:
    """The int value of a numeric literal (including ``-n``), else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(
        node.value, bool
    ):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -node.operand.value
    return None


def _arg(call: ast.Call, position: int, keyword: str) -> ast.AST | None:
    """Argument at ``position`` or passed as ``keyword=``, else None."""
    for kw in call.keywords:
        if kw.arg == keyword:
            return kw.value
    if len(call.args) > position:
        return call.args[position]
    return None


def _literal_offset_table(node: ast.AST) -> list[tuple[int, ...]] | None:
    """Parse a literal list/tuple of int-tuples, else None."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    out: list[tuple[int, ...]] = []
    for elt in node.elts:
        if not isinstance(elt, (ast.Tuple, ast.List)):
            return None
        vals = [_literal_int(e) for e in elt.elts]
        if any(v is None for v in vals):
            return None
        out.append(tuple(v for v in vals if v is not None))
    return out


# -- static rules ------------------------------------------------------------
def _check_ring_depth(tree: ast.Module, path: str) -> list[Finding]:
    """CL001: literal ring depths below :data:`MIN_RING_DEPTH`."""
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            depth_node = None
            if name == "RecvBufferRing":
                depth_node = _arg(node, 3, "depth")
            elif name in ("RdmaEndpoint", "P2PExchange", "FineGrainedP2PExchange"):
                depth_node = _arg(node, -1, "ring_depth")
            else:
                for kw in node.keywords:
                    if kw.arg == "ring_depth":
                        depth_node = kw.value
            depth = _literal_int(depth_node)
            if depth is not None and depth < MIN_RING_DEPTH:
                findings.append(
                    Finding(
                        rule="CL001",
                        path=path,
                        line=node.lineno,
                        message=f"receive-ring depth {depth} < {MIN_RING_DEPTH}",
                        detail="a PUT from stage k+1 can land on data stage k has "
                        "not consumed (paper §3.4, Fig. 10)",
                    )
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            defaults = args.defaults
            params = args.args[len(args.args) - len(defaults):] if defaults else []
            for param, default in zip(params, defaults):
                if param.arg != "ring_depth":
                    continue
                depth = _literal_int(default)
                if depth is not None and depth < MIN_RING_DEPTH:
                    findings.append(
                        Finding(
                            rule="CL001",
                            path=path,
                            line=node.lineno,
                            message=f"default ring_depth {depth} < {MIN_RING_DEPTH} "
                            f"in {node.name}()",
                        )
                    )
    return findings


def _check_duplicate_bindings(tree: ast.Module, path: str) -> list[Finding]:
    """CL002: literal ``ControlQueue(tni, index)`` pairs constructed twice."""
    findings = []
    seen: dict[tuple[int, int], int] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _call_name(node) == "ControlQueue"):
            continue
        tni = _literal_int(_arg(node, 0, "tni"))
        index = _literal_int(_arg(node, 1, "index"))
        if tni is None or index is None:
            continue
        key = (tni, index)
        if key in seen:
            findings.append(
                Finding(
                    rule="CL002",
                    path=path,
                    line=node.lineno,
                    message=f"CQ (tni={tni}, index={index}) bound twice "
                    f"(first at line {seen[key]})",
                    detail="a CQ is not thread-safe; every VCQ must bind a "
                    "distinct CQ (paper §3.3, Fig. 7)",
                )
            )
        else:
            seen[key] = node.lineno
    return findings


_STAGE_ORDER = {"borders": 0, "forward": 1, "reverse": 2}


def _check_stage_order(tree: ast.Module, path: str) -> list[Finding]:
    """CL004: within one function, border < forward < reverse call order."""
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first_line: dict[str, int] = {}
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _STAGE_ORDER
            ):
                stage = sub.func.attr
                first_line.setdefault(stage, sub.lineno)
        ordered = sorted(first_line, key=lambda s: first_line[s])
        for earlier, later in zip(ordered, ordered[1:]):
            if _STAGE_ORDER[earlier] > _STAGE_ORDER[later]:
                findings.append(
                    Finding(
                        rule="CL004",
                        path=path,
                        line=first_line[earlier],
                        message=f"{earlier}() called before {later}() in "
                        f"{node.name}()",
                        detail="routes are rebuilt by the border stage; forward "
                        "replays them and reverse retraces forward",
                    )
                )
                break
    return findings


def _check_plan_symmetry(tree: ast.Module, path: str) -> list[Finding]:
    """CL005: literal send/recv offset tables must be Newton-symmetric."""
    sends: tuple[int, list[tuple[int, ...]]] | None = None
    recvs: tuple[int, list[tuple[int, ...]]] | None = None
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        name = (
            target.id
            if isinstance(target, ast.Name)
            else target.attr
            if isinstance(target, ast.Attribute)
            else ""
        )
        table = _literal_offset_table(node.value)
        if table is None:
            continue
        if _OFFSET_SEND_RE.search(name):
            sends = (node.lineno, table)
        elif _OFFSET_RECV_RE.search(name):
            recvs = (node.lineno, table)
    if sends is None or recvs is None:
        return []
    send_set = set(sends[1])
    recv_set = set(recvs[1])
    negated_recv = {tuple(-o for o in off) for off in recv_set}
    half_symmetric = send_set == negated_recv and not (send_set & recv_set)
    full_symmetric = send_set == recv_set and send_set == {
        tuple(-o for o in off) for off in send_set
    }
    if half_symmetric or full_symmetric:
        return []
    return [
        Finding(
            rule="CL005",
            path=path,
            line=sends[0],
            message="send offsets are not the negation of recv offsets "
            "(nor a negation-closed full shell)",
            detail="Newton's 3rd law pairs every received ghost block with a "
            "send to the opposite neighbor (paper §3.1, Table 1)",
        )
    ]


def _check_rdma_targets(tree: ast.Module, path: str) -> list[Finding]:
    """CL006: puts must target exchanged windows, not literal STags."""
    findings = []
    has_put_positions_call = False
    put_positions_line = 0
    has_window_exchange = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name == "put" and (len(node.args) + len(node.keywords)) >= 6:
                stag = _literal_int(_arg(node, 3, "dst_stag"))
                if stag is not None:
                    findings.append(
                        Finding(
                            rule="CL006",
                            path=path,
                            line=node.lineno,
                            message=f"RDMA put targets literal stag {stag}",
                            detail="STags are only valid after the border-stage "
                            "window exchange piggybacks them (paper §3.4)",
                        )
                    )
                offset = _literal_int(_arg(node, 4, "dst_offset"))
                if offset is not None and offset != 0:
                    findings.append(
                        Finding(
                            rule="CL006",
                            path=path,
                            line=node.lineno,
                            message=f"RDMA put targets literal remote offset {offset}",
                            detail="the ghost offset must come from the exchanged "
                            "RemoteWindow, not be assumed",
                        )
                    )
            elif name == "put_positions":
                has_put_positions_call = True
                put_positions_line = put_positions_line or node.lineno
            elif name in ("install_remote", "_exchange_windows", "_exchange_windows_impl"):
                has_window_exchange = True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in (
            "_exchange_windows",
            "_exchange_windows_impl",
        ):
            has_window_exchange = True
    if has_put_positions_call and not has_window_exchange:
        findings.append(
            Finding(
                rule="CL006",
                path=path,
                line=put_positions_line,
                message="put_positions() used without a window exchange "
                "(install_remote/_exchange_windows) in this module",
                detail="forward PUTs land at the offset the border stage "
                "piggybacked; without the exchange the target is stale",
            )
        )
    return findings


def _derives_from_budget(node: ast.AST | None) -> bool:
    """Whether an expression references a GhostBudget analytic method."""
    if node is None:
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in (
            "max_atoms_per_message",
            "max_ghost_atoms",
            "max_local_atoms",
        ):
            return True
    return False


def _check_buffer_sizing(tree: ast.Module, path: str) -> list[Finding]:
    """CL007: ring capacities must not be bare literals."""
    findings = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _call_name(node) == "RecvBufferRing"):
            continue
        cap_node = _arg(node, 2, "capacity_elems")
        cap = _literal_int(cap_node)
        if cap is not None and not _derives_from_budget(cap_node):
            findings.append(
                Finding(
                    rule="CL007",
                    path=path,
                    line=node.lineno,
                    message=f"receive-ring capacity is the bare literal {cap}",
                    detail="capacities must derive from the GhostBudget "
                    "theoretical maximum so registration happens once "
                    "and no growth path exists (paper §3.4)",
                )
            )
    return findings


def _check_pool_sizing(tree: ast.Module, path: str) -> list[Finding]:
    """CL008: the atom arena's slabs must size from the GhostBudget — an
    ``AtomArena.adopt(atoms, capacity)`` fed a bare literal capacity
    instead of the budget's analytic maximum is flagged."""
    findings = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-2:] == ["AtomArena", "adopt"]
        ):
            continue
        capacity = _literal_int(_arg(node, 1, "capacity"))
        if capacity is not None:
            findings.append(
                Finding(
                    rule="CL008",
                    path=path,
                    line=node.lineno,
                    message=f"AtomArena slab capacity is the bare literal {capacity}",
                    detail="pass the GhostBudget analytic maximum so every slab "
                    "dominates it and steady state never re-lays out (paper §3.4)",
                )
            )
    return findings


def _check_inflight_capacity(tree: ast.Module, path: str) -> list[Finding]:
    """CL009: literal ring capacity vs the literal send-burst schedule.

    Flags any call carrying both a literal ring depth (``ring_depth``
    or ``depth``) and a literal ``inflight_epochs`` where the depth
    cannot absorb one worst-case message per outstanding epoch — the
    statically decidable shadow of :func:`lint_config`'s exact check
    (slot size cancels when both sides count worst-case messages).
    """
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        depth_node = None
        epochs_node = None
        for kw in node.keywords:
            if kw.arg in ("ring_depth", "depth"):
                depth_node = kw.value
            elif kw.arg == "inflight_epochs":
                epochs_node = kw.value
        depth = _literal_int(depth_node)
        epochs = _literal_int(epochs_node)
        if depth is None or epochs is None:
            continue
        if depth < epochs:
            findings.append(
                Finding(
                    rule="CL009",
                    path=path,
                    line=node.lineno,
                    message=f"ring depth {depth} cannot absorb "
                    f"{epochs} outstanding send epoch(s) per route",
                    detail="each un-drained stage epoch holds one worst-case "
                    "message per route in flight; capacity must cover the "
                    "burst (paper §3.4)",
                )
            )
    return findings


_STATIC_RULES = (
    _check_ring_depth,
    _check_duplicate_bindings,
    _check_stage_order,
    _check_plan_symmetry,
    _check_rdma_targets,
    _check_buffer_sizing,
    _check_pool_sizing,
    _check_inflight_capacity,
)


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Run every static rule over one source text (suppressions applied)."""
    tree = ast.parse(source, filename=path)
    suppressions = _Suppressions(source)
    findings: list[Finding] = []
    for rule_fn in _STATIC_RULES:
        findings.extend(rule_fn(tree, path))
    kept = [f for f in findings if not suppressions.hides(f.rule, f.line)]
    lint_source.last_suppressed = len(findings) - len(kept)  # type: ignore[attr-defined]
    return kept


# -- shared predicates -------------------------------------------------------
# One statement per invariant.  Each returns ``(rule, message)`` pairs;
# the introspective half anchors them to the live object's source line,
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


# -- introspective checks ----------------------------------------------------
def _anchored(obj: object, violations: list[tuple[str, str]]) -> list[Finding]:
    """``(rule, message)`` violations as findings at ``obj``'s definition."""
    try:
        path = inspect.getsourcefile(obj) or "<runtime>"  # type: ignore[arg-type]
        _, line = inspect.getsourcelines(obj)  # type: ignore[arg-type]
    except (OSError, TypeError):
        path, line = "<runtime>", 0
    return [
        Finding(rule=rule, path=path, line=line, message=message)
        for rule, message in violations
    ]


def _introspect_vcq_bindings() -> list[Finding]:
    """CL002/CL003 on the live NodeNIC fine binding (24 distinct CQs)."""
    from repro.machine.tni import NodeNIC

    return _anchored(NodeNIC.bind_fine, _fine_binding_violations(4))


def _introspect_plan_symmetry() -> list[Finding]:
    """CL005 on the live offset generators, both Newton modes, radii 1-2."""
    from repro.core import patterns

    return _anchored(
        patterns.half_shell_offsets,
        _shell_symmetry_violations(1) + _shell_symmetry_violations(2),
    )


def _introspect_ring_defaults() -> list[Finding]:
    """CL001 on the live default ring depths (ring, endpoint, exchange)."""
    from repro.core.p2p import P2PExchange
    from repro.core.rdma_buffers import RdmaEndpoint, RecvBufferRing

    findings = []
    for obj, param in (
        (RecvBufferRing.__init__, "depth"),
        (RdmaEndpoint.__init__, "ring_depth"),
        (P2PExchange.__init__, "ring_depth"),
    ):
        default = inspect.signature(obj).parameters[param].default
        if isinstance(default, int) and default < MIN_RING_DEPTH:
            findings += _anchored(obj, [(
                "CL001",
                f"default {param}={default} < {MIN_RING_DEPTH} in {obj.__qualname__}",
            )])
    return findings


def _introspect_buffer_sizing() -> list[Finding]:
    """CL006/CL007/CL008 on a live endpoint and arena: analytic dominance
    + registration."""
    import numpy as np

    from repro.core.ghost import GhostBudget
    from repro.core.rdma_buffers import RdmaEndpoint
    from repro.machine.rdma import RdmaEngine, RdmaError
    from repro.md.atoms import AtomArena

    budget = GhostBudget(a=8.0, r=2.5, density=0.05)
    per_message = budget.max_atoms_per_message()
    violations = _message_bound_violations(per_message, _worst_message_atoms(budget))

    engine = RdmaEngine()
    capacity = budget.max_local_atoms() + budget.max_ghost_atoms(False)
    endpoint = RdmaEndpoint(
        rank=0,
        engine=engine,
        x_storage=np.zeros((capacity, 3)),
        f_storage=np.zeros((capacity, 3)),
        budget=budget,
        n_neighbors=13,
    )
    needed = per_message * 3 + 1  # xyz + length prefix
    for ring in endpoint.recv_rings:
        if ring.capacity < needed:
            violations.append((
                "CL007",
                f"receive-ring capacity {ring.capacity} < analytic requirement "
                f"{needed} elements",
            ))
            break
    if endpoint.x_region.length < capacity * 3:
        violations.append((
            "CL007",
            f"registered position region ({endpoint.x_region.length} elements) "
            f"is smaller than the pre-sized storage ({capacity * 3})",
        ))
    # Every advertised ring STag must resolve to a pre-registered region:
    # a PUT into an unregistered window is the §3.4 failure mode.
    cache = engine.cache_for(0)
    try:
        for ring in endpoint.recv_rings:
            for stag in ring.stags():
                cache.lookup(stag)
        cache.lookup(endpoint.x_region.stag)
        cache.lookup(endpoint.f_region.stag)
    except RdmaError as exc:
        violations.append(
            ("CL006", f"advertised window is not pre-registered: {exc}")
        )
    return _anchored(RdmaEndpoint, violations) + _anchored(
        AtomArena, _pool_dominance_violations(budget)
    )


_INTROSPECTIVE_CHECKS = (
    _introspect_vcq_bindings,
    _introspect_plan_symmetry,
    _introspect_ring_defaults,
    _introspect_buffer_sizing,
)


def run_introspection() -> list[Finding]:
    """Run every introspective check against the live modules."""
    findings: list[Finding] = []
    for check in _INTROSPECTIVE_CHECKS:
        try:
            findings.extend(check())
        except Exception as exc:  # pragma: no cover - diagnostic path
            rule = "CL003" if "vcq" in check.__name__ else "CL007"
            findings.append(
                Finding(
                    rule=rule,
                    message=f"introspective check {check.__name__} crashed: {exc!r}",
                )
            )
    return findings


# -- single-config entry (scenario fleet L1) ---------------------------------
@dataclass(frozen=True)
class CommProfile:
    """The communication-relevant shape of ONE concrete configuration.

    This is the library-callable face of commlint: where the AST pass
    lints *sources* and the introspective pass lints the *default live
    objects*, :func:`lint_config` lints one derived CommPlan/machine
    configuration — the L1 feasibility level of the scenario fleet.
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

    # CL009: per-route in-flight capacity (ring depth x slot size) must
    # cover the worst-case burst the send schedule can leave outstanding
    # (inflight_epochs stage-epochs of the worst message) — the static
    # precursor to protomc's exact P3 bound.
    capacity = profile.ring_depth * per_message
    burst = profile.inflight_epochs * worst
    if profile.inflight_epochs < 1:
        findings.append(_cfg_finding(
            profile, "CL009",
            f"inflight_epochs {profile.inflight_epochs} < 1",
        ))
    elif capacity < burst:
        findings.append(_cfg_finding(
            profile, "CL009",
            f"in-flight capacity {profile.ring_depth} x {per_message} = "
            f"{capacity} atoms is below the worst-case burst "
            f"{profile.inflight_epochs} x {worst:.1f} = {burst:.1f}",
            "an adversarially delayed drain overflows the route's ring "
            "slots; raise ring_depth or fence between stages "
            "(repro verify proves the exact bound per scenario)",
        ))
    return findings


# -- entry point -------------------------------------------------------------
def run_commlint(
    paths: Sequence[str] | None = None, introspect: bool = True
) -> AnalysisReport:
    """Lint ``paths`` (default: the exchange/RDMA stack) and report.

    ``introspect=False`` restricts the run to the pure AST pass — useful
    when linting standalone fixture files that should not trigger the
    live-module checks.
    """
    report = AnalysisReport(tool="commlint")
    targets: Iterable[str] = paths if paths is not None else default_paths()
    for path in targets:
        p = Path(path)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for file in files:
            source = file.read_text(encoding="utf-8")
            report.findings.extend(lint_source(source, str(file)))
            report.suppressed += getattr(lint_source, "last_suppressed", 0)
            report.files_analyzed.append(str(file))
    if introspect:
        report.findings.extend(run_introspection())
    return report


#: The seeded protocol bug commlint must always be able to flag: a receive
#: ring shallower than the §3.4 minimum of four.
SEEDED_RING_DEPTH_BUG = "ring = RecvBufferRing(engine, 0, cap, depth=3)\n"


def check_clean(report: AnalysisReport) -> tuple[bool, str]:
    """A commlint run found nothing."""
    return report.clean, (
        f"{len(report.findings)} finding(s) over {len(report.files_analyzed)} files"
    )


def check_flags_seeded_bug() -> tuple[bool, str]:
    """The seeded ring-depth bug comes back as exactly one CL001."""
    rules = [f.rule for f in lint_source(SEEDED_RING_DEPTH_BUG)]
    return rules == ["CL001"], f"rules {rules}"
