"""Seeded protocol mutations: each must be caught by its named property.

The battery is the checker's own regression harness (wired into
selfcheck and ``repro verify --mutations``): every mutation injects a
real §3.3/§3.4 failure mode into a known-clean model, and the checker
must (a) flag it, (b) name the *right* property, and (c) produce a
counterexample that replays.

==================  ====  =====================================================
drop-recv-post      P2    a forward recv is never posted — the matching PUT
                          stays in the ring forever (message leak)
swap-stage-order    P1    one rank runs reverse before forward — classic
                          cross-stage deadlock (everyone waits on everyone)
shrink-ring         P3    ring depth 1 under a multi-stage burst — the §3.4
                          double-buffer overwrite hazard
break-newton        P1    one send retargeted to the wrong neighbor — the
                          half-shell symmetry CL005 assumes is broken, the
                          rightful receiver blocks forever
cyclic-ladder       P4    fallback chain revisits a tier — retry exhaustion
                          would livelock instead of degrading
==================  ====  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.protomc.checker import replay, verify_model
from repro.analysis.protomc.extract import build_programs, degradation_ladder
from repro.analysis.protomc.model import RECV, SEND, CommModel, Op


def base_model(grid: tuple[int, int, int] = (2, 2, 2)) -> CommModel:
    """A known-clean rdma p2p/newton model the mutations corrupt.

    The RDMA plane (per-peer rings + end-of-stage fences) is the
    interesting one: it is where ring-capacity P3 bites, and its fences
    exercise the barrier semantics P1 must reason through.
    """
    return CommModel(
        label=f"mutation-base/p2p/{'x'.join(map(str, grid))}",
        n_ranks=grid[0] * grid[1] * grid[2],
        programs=build_programs(grid, "p2p", newton=True, rdma=True, atoms=64),
        ring_depth=4,
        slot_atoms=64,
        rings=True,
        ladder=degradation_ladder("p2p"),
    )


def _edit_rank(
    model: CommModel, rank: int, program: tuple[Op, ...], label: str
) -> CommModel:
    programs = list(model.programs)
    programs[rank] = program
    return model.with_programs(tuple(programs), label=f"{model.label}+{label}")


def drop_recv_post(model: CommModel) -> CommModel:
    """Remove rank 0's last forward recv: its message leaks (P2).

    Runs under a reorder fault plane so later traffic on the route can
    overtake the orphaned message — the protocol then *completes* with
    the PUT still in flight, which is exactly what distinguishes a leak
    (P2) from a deadlock (P1).
    """
    program = model.programs[0]
    idx = max(
        i for i, op in enumerate(program)
        if op.kind == RECV and op.stage == "forward"
    )
    mutated = _edit_rank(
        model, 0, program[:idx] + program[idx + 1:], "drop-recv-post"
    )
    return replace(mutated, reorder=True)


def swap_stage_order(model: CommModel) -> CommModel:
    """Rank 0 runs reverse before forward; everyone else doesn't (P1)."""
    program = model.programs[0]
    by_stage = {
        stage: tuple(op for op in program if op.stage == stage)
        for stage in ("borders", "forward", "reverse")
    }
    swapped = by_stage["borders"] + by_stage["reverse"] + by_stage["forward"]
    return _edit_rank(model, 0, swapped, "swap-stage-order")


def shrink_ring(model: CommModel) -> CommModel:
    """Ring depth 1 cannot absorb the border+forward burst (P3)."""
    return replace(model, ring_depth=1, label=f"{model.label}+shrink-ring")


def break_newton(model: CommModel) -> CommModel:
    """Retarget one forward send of rank 0 to the wrong peer (P1)."""
    program = list(model.programs[0])
    idx = next(
        i for i, op in enumerate(program)
        if op.kind == SEND and op.stage == "forward"
    )
    op = program[idx]
    wrong = next(
        p for p in range(model.n_ranks) if p not in (op.peer, op.rank)
    )
    program[idx] = replace(op, peer=wrong)
    return _edit_rank(model, 0, tuple(program), "break-newton")


def cyclic_ladder(model: CommModel) -> CommModel:
    """Fallback chain that revisits its starting tier (P4)."""
    return replace(
        model,
        ladder=("parallel-p2p", "p2p", "parallel-p2p"),
        label=f"{model.label}+cyclic-ladder",
    )


#: name -> (expected property, mutator)
MUTATIONS: dict[str, tuple[str, object]] = {
    "drop-recv-post": ("P2", drop_recv_post),
    "swap-stage-order": ("P1", swap_stage_order),
    "shrink-ring": ("P3", shrink_ring),
    "break-newton": ("P1", break_newton),
    "cyclic-ladder": ("P4", cyclic_ladder),
}


@dataclass(frozen=True)
class MutationOutcome:
    """One battery entry: was the mutation caught, named, replayable?"""

    name: str
    expected: str  # the property that must flag it
    caught: bool  # a counterexample with the expected property exists
    replayed: bool  # that counterexample replays and re-violates
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.caught and self.replayed

    def render(self) -> str:
        """``name: caught/MISSED`` with the expected property."""
        status = "caught+replayed" if self.ok else "MISSED"
        return f"{self.name}: expected {self.expected} -> {status} ({self.detail})"


def run_mutation_battery(
    model: CommModel | None = None, *, max_states: int = 200_000
) -> list[MutationOutcome]:
    """Verify every mutation is caught by its named property."""
    clean = model if model is not None else base_model()
    outcomes: list[MutationOutcome] = []
    for name, (expected, mutate) in MUTATIONS.items():
        mutated = mutate(clean)  # type: ignore[operator]
        result = verify_model(mutated, max_states=max_states)
        hits = [c for c in result.counterexamples if c.prop == expected]
        caught = bool(hits)
        replayed = caught and replay(mutated, hits[0])
        detail = hits[0].detail if hits else (
            "no counterexample" if result.ok
            else f"flagged {[c.prop for c in result.counterexamples]} instead"
        )
        outcomes.append(MutationOutcome(name, expected, caught, replayed, detail))
    return outcomes


def check_mutations_caught(outcomes: list[MutationOutcome]) -> tuple[bool, str]:
    """Every seeded mutation was caught by its named property, and the
    counterexample replays."""
    missed = [o for o in outcomes if not o.ok]
    return not missed, (
        ", ".join(o.render() for o in missed)
        or f"{len(outcomes)} mutation(s) caught + replayed"
    )
