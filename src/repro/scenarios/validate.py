"""Multi-level scenario validation: L0 schema -> L1 commlint -> L2 model
sanity -> L3 executable smoke.

Modeled on the lammps-reaper pipeline: each level only runs when every
lower level passed, every rejection carries a **fixing hint** (what to
change in the spec to make the scenario feasible), and the levels get
progressively more expensive:

========  ==============================================================
L0        structural schema checks on the scenario document itself
          (``repro-scenario/1`` shape, per-axis value constraints)
L1        commlint CL001–CL009 feasibility on the derived
          :class:`~repro.analysis.commlint.CommProfile` (ring depth,
          VCQ/CQ binding, stage order, Newton symmetry at the stencil
          radius, window exchange, GhostBudget dominance, stencil reach)
L2        model sanity: ``modeled_step_comm_time`` finite (executable
          roles), StageModel stage times finite and additive (model
          roles), GhostBudget-dominated buffers
L2.5      protocol model checking: :mod:`repro.analysis.protomc`
          exhaustively explores the scenario's send/recv/fence
          interleavings and proves P1 (deadlock freedom), P2 (no
          message leaks), P3 (buffer safety), P4 (ladder termination)
L3        executable smoke: build the world, run a step, check the
          invariant the scenario's consuming gate relies on
========  ==============================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.commlint import CommProfile

LEVELS = ("L0", "L1", "L2", "L2.5", "L3")

#: rule/check -> what to change in the spec.  These are the "iterative
#: fixing hints": a rejected scenario names the failing check and the
#: axis-level remedy.
HINTS: dict[str, str] = {
    "CL001": "raise params.ring_depth to >= 4",
    "CL002": "remove the duplicated entry from params.cq_bindings",
    "CL003": "keep the rank grid at <= 4 ranks per node (Fugaku: 4 ranks x 6 TNIs)",
    "CL004": "reorder params.stage_order to borders -> forward -> reverse",
    "CL005": "use stencil radius 1 or 2 (half shell must Newton-complement the full shell)",
    "CL006": "drop rdma from the scenario or re-enable the window exchange",
    "CL007": "shrink the cutoff axis value or coarsen the rank grid so "
             "rcomm <= stencil radius x sub-box edge",
    "CL008": "size buffers from the GhostBudget (raise atoms or box_edge "
             "so the analytic maximum dominates)",
    "CL009": "raise params.ring_depth (or set params.inflight_epochs to "
             "match the fenced schedule) so ring capacity covers the "
             "worst-case same-route burst",
    "P1": "restore the borders -> forward -> reverse stage order and keep "
          "every send/recv pair peer-symmetric: some interleaving blocks "
          "all ranks on recv/fence",
    "P2": "post a recv for every send on the route; an unconsumed message "
          "stays in the remote ring past step end",
    "P3": "raise params.ring_depth (or keep the rdma stage fences) so the "
          "adversarial in-flight burst fits the pooled ring capacity",
    "P4": "keep the degradation ladder an acyclic descent "
          "(parallel-p2p -> p2p -> 3stage) with max_retries >= 1",
    "schema": "regenerate the scenario from a spec; hand-edited documents "
              "must keep the repro-scenario/1 shape",
    "geometry": "fix the geometry axis entry: 3 positive grid ints "
                "(<= 64 ranks), box_edge > 0, atoms >= 8",
    "sub-box": "coarsen the rank grid or enlarge box_edge so every "
               "sub-box edge stays >= rcomm",
    "patterns": "limit params.patterns to 3stage/p2p/parallel-p2p",
    "comm-time": "the modeled step comm time must be finite and positive; "
                 "check the cutoff/skin axis values",
    "stage-model": "model scenarios must price finitely: keep nodes on the "
                   "paper ladder and potential in lj/eam",
    "ghost-budget": "the analytic ghost maximum must be a positive finite "
                    "atom count; check box_edge/atoms/cutoff",
    "smoke": "the scenario must survive a short run; lower dt or the "
             "velocity scale implied by the seed",
    "fault-absorb": "use an absorbable fault template (severity <= "
                    "max_retries, no fault_budget)",
}


@dataclass(frozen=True)
class ValidationIssue:
    """One rejection: which scenario, which level/check, how to fix it."""

    scenario: str
    level: str
    check: str
    message: str
    hint: str = ""

    def render(self) -> str:
        """``[Ln:check] scenario: message`` plus the fixing hint."""
        text = f"[{self.level}:{self.check}] {self.scenario}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class FleetValidation:
    """Aggregated result of validating one fleet at one level."""

    level: str
    checked: int = 0
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def rejected(self) -> int:
        return len({i.scenario for i in self.issues})

    def render(self) -> str:
        """Every issue line plus a checked/rejected summary footer."""
        lines = [i.render() for i in self.issues]
        lines.append(
            f"fleet validation [{self.level}]: {self.checked} checked, "
            f"{self.rejected} rejected, {len(self.issues)} issue(s)"
        )
        return "\n".join(lines)


def _issue(scenario: dict, level: str, check: str, message: str) -> ValidationIssue:
    return ValidationIssue(
        scenario=str(scenario.get("id", "<unknown>")),
        level=level,
        check=check,
        message=message,
        hint=HINTS.get(check, ""),
    )


# -- L0: scenario document schema ------------------------------------------
def check_l0(scenario: dict) -> list[ValidationIssue]:
    """Structural checks on one expanded scenario document."""
    from repro.scenarios.spec import (
        EXECUTABLE_ROLES,
        MAX_RANKS,
        PATTERNS,
        ROLES,
        SCENARIO_SCHEMA,
    )

    issues: list[ValidationIssue] = []
    if scenario.get("schema") != SCENARIO_SCHEMA:
        issues.append(_issue(
            scenario, "L0", "schema",
            f"schema is {scenario.get('schema')!r}, expected {SCENARIO_SCHEMA!r}",
        ))
    for key in ("id", "block", "role", "axes", "params", "seed", "tier"):
        if key not in scenario:
            issues.append(_issue(scenario, "L0", "schema", f"missing key {key!r}"))
    role = scenario.get("role")
    if role not in ROLES:
        issues.append(_issue(
            scenario, "L0", "schema", f"role {role!r} not in {ROLES}"
        ))
        return issues
    if scenario.get("tier") not in ("sampled", "full"):
        issues.append(_issue(
            scenario, "L0", "schema", f"tier {scenario.get('tier')!r} invalid"
        ))
    p = scenario.get("params", {})
    if not isinstance(p, dict):
        return issues + [_issue(scenario, "L0", "schema", "params is not an object")]
    if role in EXECUTABLE_ROLES or role == "bench":
        grid = p.get("grid")
        if not (isinstance(grid, list) and len(grid) == 3
                and all(isinstance(g, int) and g >= 1 for g in grid)):
            issues.append(_issue(
                scenario, "L0", "geometry", f"params.grid {grid!r} is not 3 ints"
            ))
        elif math.prod(grid) > MAX_RANKS:
            issues.append(_issue(
                scenario, "L0", "geometry",
                f"{math.prod(grid)} ranks > {MAX_RANKS}",
            ))
    if role in EXECUTABLE_ROLES:
        if not (isinstance(p.get("box_edge"), (int, float)) and p["box_edge"] > 0):
            issues.append(_issue(
                scenario, "L0", "geometry", f"box_edge {p.get('box_edge')!r} invalid"
            ))
        if not (isinstance(p.get("atoms"), int) and p["atoms"] >= 8):
            issues.append(_issue(
                scenario, "L0", "geometry", f"atoms {p.get('atoms')!r} < 8"
            ))
        if not (isinstance(p.get("cutoff"), (int, float)) and p["cutoff"] > 0):
            issues.append(_issue(
                scenario, "L0", "geometry", f"cutoff {p.get('cutoff')!r} invalid"
            ))
        if p.get("skin", 0.3) < 0:
            issues.append(_issue(scenario, "L0", "geometry", "skin < 0"))
        pats = p.get("patterns", ["parallel-p2p", "p2p", "3stage"])
        if not (isinstance(pats, list) and pats
                and all(v in PATTERNS for v in pats)):
            issues.append(_issue(
                scenario, "L0", "patterns", f"params.patterns {pats!r} invalid"
            ))
    return issues


# -- L1: commlint feasibility ----------------------------------------------
def comm_profile(scenario: dict) -> CommProfile:
    """Derive the :class:`~repro.analysis.commlint.CommProfile` L1 lints."""
    from repro.analysis.commlint import CommProfile
    from repro.scenarios.build import (
        bench_geometry,
        min_sub_box_edge,
        model_geometry,
        scenario_density,
        scenario_rcomm,
    )

    p = scenario["params"]
    role = scenario["role"]
    if role == "model":
        sub_edge, rcomm, density = model_geometry(scenario)
        ranks_per_node = 4
    elif role == "bench":
        sub_edge, rcomm, density = bench_geometry(scenario)
        ranks_per_node = min(math.prod(p["grid"]), 4)
    else:
        sub_edge = min_sub_box_edge(scenario)
        rcomm = scenario_rcomm(scenario)
        density = scenario_density(scenario)
        ranks_per_node = min(math.prod(p["grid"]), 4)
    return CommProfile(
        label=scenario["id"],
        sub_box_edge=sub_edge,
        rcomm=rcomm,
        density=density,
        ring_depth=int(p.get("ring_depth", 4)),
        stage_order=tuple(p.get("stage_order", ("borders", "forward", "reverse"))),
        shell_radius=int(p.get("shell_radius", 1)),
        newton=bool(p.get("newton", True)),
        rdma=bool(p.get("rdma", False)),
        window_exchange=bool(p.get("window_exchange", True)),
        ranks_per_node=ranks_per_node,
        # The rdma plane fences at every stage end, draining the rings;
        # the message transport can leave all three stages outstanding.
        inflight_epochs=int(
            p.get("inflight_epochs", 1 if p.get("rdma", False) else 3)
        ),
    )


def check_l1(scenario: dict) -> list[ValidationIssue]:
    """commlint CL001–CL009 on the derived comm profile."""
    from repro.analysis.commlint import lint_config

    return [
        _issue(scenario, "L1", f.rule, f.message)
        for f in lint_config(comm_profile(scenario))
    ]


# -- L2: model sanity -------------------------------------------------------
def check_l2(scenario: dict) -> list[ValidationIssue]:
    """Analytic sanity: finite comm time, GhostBudget-dominated buffers."""
    from repro.core.ghost import GhostBudget

    issues: list[ValidationIssue] = []
    profile = comm_profile(scenario)
    budget = GhostBudget(a=profile.sub_box_edge, r=profile.rcomm,
                         density=profile.density)
    ghost_max = budget.max_ghost_atoms(False)
    if not (math.isfinite(ghost_max) and ghost_max > 0):
        issues.append(_issue(
            scenario, "L2", "ghost-budget",
            f"analytic ghost maximum {ghost_max!r} is not a positive finite count",
        ))
    role = scenario["role"]
    if role == "model":
        from repro.perfmodel import StageModel, variant_by_name
        from repro.scenarios.build import model_workload

        w = model_workload(scenario)
        res = StageModel().step_times(
            w, int(scenario["params"]["nodes"]),
            variant_by_name(scenario["params"]["variant"]),
        )
        total = res.total
        if not (math.isfinite(total) and total > 0):
            issues.append(_issue(
                scenario, "L2", "stage-model",
                f"modeled step time {total!r} is not finite and positive",
            ))
        elif abs(total - sum(res.stages.values())) > 1e-12 * max(total, 1.0):
            issues.append(_issue(
                scenario, "L2", "stage-model",
                "stage times do not sum to the step total",
            ))
    elif role in ("equivalence", "fault"):
        from repro.core.modeling import modeled_step_comm_time
        from repro.scenarios.build import scenario_exchange

        ex = scenario_exchange(scenario, "p2p")
        t = modeled_step_comm_time(
            ex, rebuild=False,
            newton=bool(scenario["params"].get("newton", True)),
        )
        if not (math.isfinite(t) and t > 0):
            issues.append(_issue(
                scenario, "L2", "comm-time",
                f"modeled_step_comm_time = {t!r}, expected finite > 0",
            ))
    return issues


# -- L2.5: protocol model checking ------------------------------------------
def check_l25(scenario: dict) -> list[ValidationIssue]:
    """Model-check the scenario's communication protocol (P1–P4).

    Extracts the per-rank send/recv/fence programs implied by the
    scenario and exhaustively explores their interleavings
    (:mod:`repro.analysis.protomc`).  Every counterexample becomes one
    rejection named after the violated property; an exhausted state
    budget rejects too — "unproven" is not "proven".
    """
    from repro.analysis.protomc.checker import verify_scenario

    result = verify_scenario(scenario, max_states=300_000, budget_s=20.0)
    issues = [
        _issue(scenario, "L2.5", c.prop, c.detail)
        for c in result.counterexamples
    ]
    if result.incomplete:
        issues.append(_issue(
            scenario, "L2.5", "P1",
            f"state budget exhausted after {result.states} transition(s) — "
            "deadlock freedom unproven",
        ))
    return issues


# -- L3: executable smoke ---------------------------------------------------
def check_l3(scenario: dict) -> list[ValidationIssue]:
    """Run the scenario briefly and check the invariant its gate relies on."""
    import numpy as np

    issues: list[ValidationIssue] = []
    role = scenario["role"]
    if role == "model":
        return issues  # fully covered by L2 (nothing to execute)
    if role == "bench":
        from repro.md.presets import PRESETS

        p = scenario["params"]
        sim = PRESETS[p["potential"]].simulation(
            tuple(p["cells"]), tuple(p["grid"]),
            pattern=p["pattern"], rdma=p["rdma"],
        )
        sim.run(1)
        thermo = sim.sample_thermo()
        if not math.isfinite(thermo.total_energy):
            issues.append(_issue(
                scenario, "L3", "smoke", "total energy diverged after 1 step"
            ))
        return issues

    from repro.scenarios.build import scenario_simulation

    if role == "fault":
        from repro.faults.plan import template_plan

        plan = template_plan(scenario["axes"]["fault"], seed=scenario["seed"])
        if not plan.absorbable():
            return [_issue(
                scenario, "L3", "fault-absorb",
                f"template plan for {scenario['axes']['fault']!r} is not absorbable",
            )]
        from repro.faults.injector import FAULTS

        clean = scenario_simulation(scenario)
        clean.run(1)
        faulted = scenario_simulation(scenario)
        with FAULTS.inject(plan) as session:
            faulted.run(1)
        if session.stats.unabsorbed:
            issues.append(_issue(
                scenario, "L3", "fault-absorb",
                f"{session.stats.unabsorbed} fault(s) went unabsorbed",
            ))
        if not np.array_equal(clean.gather_forces(), faulted.gather_forces()):
            issues.append(_issue(
                scenario, "L3", "fault-absorb",
                "forces drifted from the fault-free run under an absorbable plan",
            ))
        return issues

    sim = scenario_simulation(scenario)
    sim.run(1)
    forces = sim.gather_forces()
    if not np.all(np.isfinite(forces)):
        issues.append(_issue(
            scenario, "L3", "smoke", "non-finite forces after 1 step"
        ))
    return issues


_CHECKS = {
    "L0": check_l0,
    "L1": check_l1,
    "L2": check_l2,
    "L2.5": check_l25,
    "L3": check_l3,
}


def validate_scenario(scenario: dict, level: str = "L2") -> list[ValidationIssue]:
    """Run levels L0..``level`` on one scenario, stopping at the first
    level that rejects (higher levels assume lower ones hold)."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; choose from {LEVELS}")
    issues: list[ValidationIssue] = []
    for lvl in LEVELS[: LEVELS.index(level) + 1]:
        try:
            issues = _CHECKS[lvl](scenario)
        except Exception as exc:
            issues = [_issue(
                scenario, lvl, "schema" if lvl == "L0" else "smoke",
                f"{lvl} check crashed: {exc!r}",
            )]
        if issues:
            return issues
    return []


def validate_fleet(scenarios: list[dict], level: str = "L2") -> FleetValidation:
    """Validate every scenario of a fleet at one level."""
    result = FleetValidation(level=level)
    for scenario in scenarios:
        result.checked += 1
        result.issues.extend(validate_scenario(scenario, level))
    return result
