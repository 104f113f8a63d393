"""Explicit-state exploration of :class:`~repro.analysis.protomc.model.CommModel`.

Four properties (:data:`~repro.analysis.protomc.model.PROPERTIES`):

* **P1 / P2** — depth-first exploration of interleavings with
  partial-order reduction: a non-blocking send, an *unambiguous* recv
  (exactly one matchable entry) and an enabled global fence each
  commute with every other enabled action and can never be disabled,
  so each is a sound singleton ample set.  The checker branches — with
  state hashing to merge converging paths — only on ambiguous recv
  matches (same tag twice in flight under a reorder plane).  Every
  transition strictly consumes program ops, so the state graph is a
  DAG and exploration always terminates.  Clean symmetric protocols
  collapse to a single linear path of ~total-ops states, which is what
  makes checking all 206 fleet scenarios feasible.

* **P3** — exact worst-case in-flight analysis via vector clocks: one
  canonical execution assigns clocks (program order, send→recv edges,
  fence joins); per route, an adversarial scheduler can hold message
  ``i`` concurrent with message ``j ≤ i`` unless ``recv_j``
  happens-before ``send_i``.  That bound is exact under arbitrary
  delay/reorder, and a *lazy* scheduler (recvs deferred until nothing
  else is enabled) reproduces it as a concrete replayable trace.

* **P4** — the degradation ladder is checked as a well-founded
  descent: finite retries and no tier ever revisited.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.protomc.model import FENCE, RECV, SEND, PROPERTIES, CommModel, Op

#: Machine-readable transition: ("send", rank) | ("recv", rank, entry_idx)
#: | ("fence", fence_tag).
Action = tuple

#: How many rendered trace lines a finding/counterexample keeps.
TRACE_TAIL = 40


@dataclass(frozen=True)
class Counterexample:
    """One property violation with a replayable transition sequence."""

    prop: str  # P1..P4
    label: str
    actions: tuple[Action, ...]  # full machine trace (replay input)
    trace: tuple[str, ...]  # rendered lines (tail-truncated for reports)
    detail: str = ""
    route: tuple[int, int] = (-1, -1)  # P3: the overflowing (src, dst)
    threshold: int = 0  # P3: capacity the route exceeded

    def render(self) -> str:
        """The violation headline plus the (tail-truncated) trace."""
        lines = [f"{self.prop} violated [{self.label}]: {self.detail}"]
        lines += [f"    {step}" for step in self.trace]
        return "\n".join(lines)


@dataclass
class VerifyResult:
    """Verification outcome of one model."""

    label: str
    counterexamples: list[Counterexample] = field(default_factory=list)
    states: int = 0  # transitions executed across all explored paths
    wall_ms: float = 0.0
    incomplete: bool = False  # budget exhausted before the space closed

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.incomplete

    def render(self) -> str:
        """One budget line per model plus any counterexample traces."""
        status = "ok" if self.ok else ("incomplete" if self.incomplete else "FAIL")
        head = (
            f"verify {self.label}: {status} states={self.states} "
            f"wall={self.wall_ms:.1f}ms"
        )
        return "\n".join([head] + [c.render() for c in self.counterexamples])


class BudgetExhausted(Exception):
    """Raised internally when max_states or the wall deadline trips."""


class _Sim:
    """Mutable protocol state with the persistent-first scheduling policy."""

    def __init__(self, model: CommModel, vc: bool = False) -> None:
        self.m = model
        self.pc = [0] * model.n_ranks
        # (src, dst) -> in-flight entries [tag, atoms, sender-VC]
        self.queues: dict[tuple[int, int], list[tuple]] = {}
        self.actions: list[Action] = []
        self.vc = vc
        self.clocks = [[0] * model.n_ranks for _ in range(model.n_ranks)] if vc else []
        # route -> ordered VC snapshots of its send / recv events
        self.send_vcs: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self.recv_vcs: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self.inflight_peak: dict[tuple[int, int], int] = {}

    # -- inspection ---------------------------------------------------------
    def op_at(self, rank: int) -> Op | None:
        program = self.m.programs[rank]
        return program[self.pc[rank]] if self.pc[rank] < len(program) else None

    def complete(self) -> bool:
        return all(
            self.pc[r] >= len(self.m.programs[r]) for r in range(self.m.n_ranks)
        )

    def matches(self, op: Op) -> list[int]:
        """Entry indexes of route ``(op.peer, op.rank)`` matchable by ``op``."""
        q = self.queues.get((op.peer, op.rank))
        if not q:
            return []
        if self.m.reorder:
            return [i for i, entry in enumerate(q) if entry[0] == op.tag]
        return [0] if q[0][0] == op.tag else []

    def fence_enabled(self, tag: tuple) -> bool:
        for rank in self.m.fence_ranks.get(tag, frozenset()):
            op = self.op_at(rank)
            if op is None or op.kind != FENCE or op.tag != tag:
                return False
        return True

    def choose(self, defer_recv_all: bool = False) -> Action | list[Action] | None:
        """Pick the next transition under the persistent-first policy.

        Returns one :data:`Action` (a sound singleton ample set), a
        list of actions (ambiguous recv branch point — the caller must
        explore all of them), or ``None`` (no enabled transition).
        With ``defer_recv_all`` recvs become last-resort only — the
        lazy adversarial scheduler used for P3 witnesses.
        """
        ambiguous: list[Action] = []
        recv_fallback: Action | None = None
        for rank in range(self.m.n_ranks):
            op = self.op_at(rank)
            if op is None:
                continue
            if op.kind == SEND:
                return (SEND, rank)
            if op.kind == RECV:
                hits = self.matches(op)
                if len(hits) == 1 and not defer_recv_all:
                    return (RECV, rank, hits[0])
                if len(hits) == 1 and recv_fallback is None:
                    recv_fallback = (RECV, rank, hits[0])
                elif len(hits) > 1:
                    ambiguous.extend((RECV, rank, i) for i in hits)
        for tag in self.m.fence_ranks:
            if self.fence_enabled(tag):
                return (FENCE, tag)
        if ambiguous and not defer_recv_all:
            return ambiguous
        if recv_fallback is not None:
            return recv_fallback
        if ambiguous:
            return ambiguous[0]
        return None

    # -- execution ----------------------------------------------------------
    def step(self, action: Action) -> None:
        kind = action[0]
        if kind == SEND:
            rank = action[1]
            op = self.op_at(rank)
            assert op is not None and op.kind == SEND, f"bad replay step {action}"
            snapshot: tuple[int, ...] = ()
            if self.vc:
                clock = self.clocks[rank]
                clock[rank] += 1
                snapshot = tuple(clock)
                self.send_vcs.setdefault((rank, op.peer), []).append(snapshot)
            route = (rank, op.peer)
            q = self.queues.setdefault(route, [])
            q.append((op.tag, op.atoms, snapshot))
            peak = self.inflight_peak.get(route, 0)
            if len(q) > peak:
                self.inflight_peak[route] = len(q)
            self.pc[rank] += 1
        elif kind == RECV:
            rank, idx = action[1], action[2]
            op = self.op_at(rank)
            assert op is not None and op.kind == RECV, f"bad replay step {action}"
            entry = self.queues[(op.peer, rank)].pop(idx)
            assert entry[0] == op.tag, f"tag mismatch replaying {action}"
            if self.vc:
                clock = self.clocks[rank]
                for k, component in enumerate(entry[2]):
                    if component > clock[k]:
                        clock[k] = component
                clock[rank] += 1
                self.recv_vcs.setdefault((op.peer, rank), []).append(tuple(clock))
            self.pc[rank] += 1
        else:  # fence
            tag = action[1]
            participants = sorted(self.m.fence_ranks[tag])
            assert self.fence_enabled(tag), f"fence {tag} not enabled in replay"
            if self.vc:
                joined = [
                    max(self.clocks[p][k] for p in participants)
                    for k in range(self.m.n_ranks)
                ]
                for p in participants:
                    self.clocks[p] = list(joined)
                    self.clocks[p][p] += 1
            for p in participants:
                self.pc[p] += 1
        self.actions.append(action)

    def render_action(self, action: Action) -> str:
        """Render an action *before* executing it (needs current pc)."""
        if action[0] == FENCE:
            ranks = self.m.fence_ranks[action[1]]
            return f"fence {action[1]} joins {len(ranks)} rank(s)"
        op = self.op_at(action[1])
        assert op is not None
        return op.render()

    def snapshot(self) -> tuple:
        """Hashable canonical state (used to merge converging branches)."""
        frozen = tuple(
            (route, tuple(entries))
            for route, entries in sorted(self.queues.items())
            if entries
        )
        return (tuple(self.pc), frozen)

    def fork(self) -> _Sim:
        twin = _Sim.__new__(_Sim)
        twin.m = self.m
        twin.pc = list(self.pc)
        twin.queues = {route: list(q) for route, q in self.queues.items() if q}
        twin.actions = list(self.actions)
        twin.vc = self.vc
        twin.clocks = [list(c) for c in self.clocks] if self.vc else []
        twin.send_vcs = {r: list(v) for r, v in self.send_vcs.items()}
        twin.recv_vcs = {r: list(v) for r, v in self.recv_vcs.items()}
        twin.inflight_peak = dict(self.inflight_peak)
        return twin


def _render_tail(sim: _Sim, actions: list[Action]) -> tuple[str, ...]:
    """Re-render the tail of a trace by replaying it on a fresh sim."""
    fresh = _Sim(sim.m)
    lines: list[str] = []
    for action in actions:
        lines.append(fresh.render_action(action))
        fresh.step(action)
    if len(lines) > TRACE_TAIL:
        omitted = len(lines) - TRACE_TAIL
        lines = [f"... {omitted} earlier step(s) elided ..."] + lines[-TRACE_TAIL:]
    return tuple(lines)


def _blocked_summary(sim: _Sim) -> str:
    stuck = []
    for rank in range(sim.m.n_ranks):
        op = sim.op_at(rank)
        if op is not None:
            stuck.append(op.render())
    head = ", ".join(stuck[:6])
    more = f" (+{len(stuck) - 6} more)" if len(stuck) > 6 else ""
    return f"{len(stuck)} rank(s) blocked: {head}{more}"


def _explore(
    model: CommModel, max_states: int, deadline: float | None
) -> tuple[Counterexample | None, int, bool]:
    """DFS over interleavings for P1 (deadlock) and P2 (message leak).

    Returns (first counterexample or None, transitions executed,
    budget-exhausted flag).  Branches only at ambiguous recv matches;
    branch-point states are hashed so converging paths merge.
    """
    transitions = 0
    seen: set[tuple] = set()
    stack: list[tuple[_Sim, Action]] = []
    sim: _Sim | None = _Sim(model)
    pending: Action | list[Action] | None = sim.choose()
    while True:
        if sim is None:
            if not stack:
                return None, transitions, False
            sim, action = stack.pop()
            pending = action
        assert sim is not None
        if pending is None:
            if sim.complete():
                leaked = {r: q for r, q in sim.queues.items() if q}
                if leaked:
                    route, entries = next(iter(sorted(leaked.items())))
                    detail = (
                        f"{sum(len(q) for q in leaked.values())} message(s) "
                        f"never consumed on {len(leaked)} route(s); first: "
                        f"r{route[0]}->r{route[1]} tags "
                        f"{[e[0] for e in entries]}"
                    )
                    return (
                        Counterexample(
                            "P2", model.label, tuple(sim.actions),
                            _render_tail(sim, sim.actions), detail,
                        ),
                        transitions, False,
                    )
            else:
                return (
                    Counterexample(
                        "P1", model.label, tuple(sim.actions),
                        _render_tail(sim, sim.actions), _blocked_summary(sim),
                    ),
                    transitions, False,
                )
            sim = None  # path closed clean: backtrack
            continue
        if isinstance(pending, list):
            key = sim.snapshot()
            if key in seen:
                sim = None
                continue
            seen.add(key)
            for alternative in pending[1:]:
                stack.append((sim.fork(), alternative))
            pending = pending[0]
        sim.step(pending)
        transitions += 1
        if transitions >= max_states or (
            transitions % 1024 == 0
            and deadline is not None
            and time.monotonic() > deadline
        ):
            return None, transitions, True
        pending = sim.choose()


def _check_buffers(model: CommModel) -> tuple[Counterexample | None, int]:
    """P3 via vector clocks on one canonical run (see module docstring).

    Returns (counterexample or None, transitions of the canonical run).
    """
    sim = _Sim(model, vc=True)
    while True:
        choice = sim.choose()
        if choice is None:
            break
        sim.step(choice if not isinstance(choice, list) else choice[0])
    transitions = len(sim.actions)

    # Static slot overflow: one message larger than its pooled ring slot.
    if model.slot_atoms > 0:
        for rank, program in enumerate(model.programs):
            for op in program:
                if op.kind == SEND and op.atoms > model.slot_atoms:
                    return (
                        Counterexample(
                            "P3", model.label, (), (),
                            f"{op.render()} carries {op.atoms} atoms > "
                            f"slot capacity {model.slot_atoms} "
                            f"(GhostBudget max_atoms_per_message)",
                            route=(rank, op.peer), threshold=model.slot_atoms,
                        ),
                        transitions,
                    )

    # Per-route capacity: the RDMA ring plane recycles ``ring_depth``
    # slots per peer (§3.4 overwrite hazard); the message transport
    # pools one dedicated slot per tagged message, so its bound is the
    # route's distinct-tag count (exceedable only by double-posting).
    def capacity(route: tuple[int, int]) -> int:
        if model.rings:
            return model.ring_depth
        tags = set()
        src, dst = route
        for op in model.programs[src]:
            if op.kind == SEND and op.peer == dst:
                tags.add(op.tag)
        return len(tags)

    worst_route: tuple[int, int] | None = None
    worst = 0
    worst_cap = 0
    for route, sends in sim.send_vcs.items():
        cap = capacity(route)
        for i, send_vc in enumerate(sends):
            if i + 1 <= cap:  # even zero frees cannot overflow yet
                continue
            # Adversarial delay keeps message j <= i in flight unless
            # its recv happens-before this send.
            recvs = sim.recv_vcs.get(route, [])
            freed = 0
            for j in range(i + 1):
                if j < len(recvs):
                    recv_vc = recvs[j]
                    if all(recv_vc[k] <= send_vc[k] for k in range(len(send_vc))):
                        freed += 1
            concurrent = (i + 1) - freed
            if concurrent - cap > worst - worst_cap:
                worst, worst_route, worst_cap = concurrent, route, cap
    if worst_route is None or worst <= worst_cap:
        return None, transitions

    # Concrete witness: the lazy scheduler defers every recv until
    # nothing else is enabled, realizing the adversarial bound.
    lazy = _Sim(model)
    while True:
        choice = lazy.choose(defer_recv_all=True)
        if choice is None:
            break
        lazy.step(choice if not isinstance(choice, list) else choice[0])
    peak = lazy.inflight_peak.get(worst_route, 0)
    # Truncate the witness just past the moment the route peaked.
    cut = len(lazy.actions)
    replayed = _Sim(model)
    for n, action in enumerate(lazy.actions, start=1):
        replayed.step(action)
        if replayed.inflight_peak.get(worst_route, 0) >= peak:
            cut = n
            break
    actions = tuple(lazy.actions[:cut])
    src, dst = worst_route
    plane = "ring" if model.rings else "pooled slot"
    bytes_note = (
        f" (~{worst * model.slot_atoms} atoms vs "
        f"{worst_cap * model.slot_atoms} budgeted)"
        if model.slot_atoms else ""
    )
    detail = (
        f"route r{src}->r{dst}: {worst} message(s) concurrently in flight "
        f"under adversarial delay, {plane} capacity {worst_cap}{bytes_note} "
        f"(witness schedule reaches {peak})"
    )
    return (
        Counterexample(
            "P3", model.label, actions, _render_tail(lazy, list(actions)),
            detail, route=worst_route, threshold=worst_cap,
        ),
        transitions + len(lazy.actions),
    )


def _check_ladder(model: CommModel) -> Counterexample | None:
    """P4: the degradation ladder must be a finite, non-repeating descent."""
    if model.max_retries < 1:
        return Counterexample(
            "P4", model.label, (), (),
            f"retry policy allows {model.max_retries} retries — the ladder "
            "can never be entered",
        )
    seen: set[str] = set()
    for tier in model.ladder:
        if tier in seen:
            chain = " -> ".join(model.ladder)
            return Counterexample(
                "P4", model.label, (), tuple([chain]),
                f"degradation ladder revisits tier {tier!r}: {chain} — "
                "retry exhaustion would cycle forever",
            )
        seen.add(tier)
    return None


def verify_model(
    model: CommModel,
    *,
    max_states: int = 500_000,
    budget_s: float | None = 30.0,
) -> VerifyResult:
    """Check P1–P4 on one model within a state/wall budget.

    Budget exhaustion marks the result ``incomplete`` (deadlock freedom
    unproven) rather than passing silently.
    """
    t0 = time.monotonic()
    deadline = t0 + budget_s if budget_s is not None else None
    result = VerifyResult(label=model.label)

    cex = _check_ladder(model)
    if cex is not None:
        result.counterexamples.append(cex)

    explored, transitions, exhausted = _explore(model, max_states, deadline)
    result.states += transitions
    result.incomplete = exhausted
    if explored is not None:
        result.counterexamples.append(explored)

    # Buffer analysis needs a completing canonical run; under a
    # deadlock the P1 trace is the actionable finding.
    if explored is None or explored.prop != "P1":
        cex, canonical = _check_buffers(model)
        result.states += canonical
        if cex is not None:
            result.counterexamples.append(cex)

    result.counterexamples.sort(key=lambda c: c.prop)
    result.wall_ms = (time.monotonic() - t0) * 1e3
    return result


def replay(model: CommModel, cex: Counterexample) -> bool:
    """Re-execute a counterexample and confirm it violates its property."""
    if cex.prop == "P4":
        return _check_ladder(model) is not None
    sim = _Sim(model)
    try:
        for action in cex.actions:
            sim.step(action)
    except (AssertionError, IndexError, KeyError):
        return False
    if cex.prop == "P1":
        return sim.choose() is None and not sim.complete()
    if cex.prop == "P2":
        return sim.complete() and any(q for q in sim.queues.values())
    if cex.prop == "P3":
        if not cex.actions:  # static slot overflow: recheck the program
            return any(
                op.kind == SEND and op.atoms > model.slot_atoms
                for program in model.programs
                for op in program
            )
        return sim.inflight_peak.get(cex.route, 0) > cex.threshold
    return False


def findings_from(results: list[VerifyResult]) -> list[Finding]:
    """Render verification results as ``repro-analysis/1`` findings."""
    findings: list[Finding] = []
    for result in results:
        for cex in result.counterexamples:
            findings.append(Finding(
                rule=cex.prop,
                message=f"{PROPERTIES[cex.prop]} — {cex.detail}",
                path=cex.label,
                detail="\n".join(cex.trace),
            ))
        if result.incomplete:
            findings.append(Finding(
                rule="P1",
                message=(
                    "state budget exhausted before the interleaving space "
                    "closed — deadlock freedom unproven"
                ),
                path=result.label,
                detail=f"explored {result.states} transition(s)",
            ))
    return findings


def verify_scenario(
    scenario: dict,
    *,
    max_states: int = 500_000,
    budget_s: float | None = 30.0,
) -> VerifyResult:
    """Extract and verify one ``repro-scenario/1`` document."""
    from repro.analysis.protomc.extract import model_from_scenario

    return verify_model(
        model_from_scenario(scenario), max_states=max_states, budget_s=budget_s
    )


def check_proves(result: VerifyResult) -> tuple[bool, str]:
    """The model proved P1-P4 within its state budget."""
    return result.ok, f"{result.states} state(s), {result.wall_ms:.1f}ms"
