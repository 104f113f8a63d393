"""Built-in self-check: the cross-validation battery as a library call.

``python -m repro --selfcheck`` builds a handful of runs of one LJ system
and asks check functions about them.  Each ``check_<what>(...) -> (passed,
detail)`` lives beside the code it checks, and the tests that state the
same invariant call it too; this module holds the runs and the names.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.analysis.commlint import check_clean, check_flags_seeded_bug, run_commlint
from repro.analysis.hb import check_flags_stale, check_silent, detect_races
from repro.analysis.protomc.checker import check_proves, verify_model, verify_scenario
from repro.analysis.protomc.extract import check_live_extraction
from repro.analysis.protomc.mutations import base_model, check_mutations_caught, run_mutation_battery
from repro.core.analytic import analyze_simulation, check_ghost_halving, check_table1_counts
from repro.core.p2p import check_preregistered
from repro.faults import injector
from repro.faults.injector import FAULTS, FaultError
from repro.faults.plan import FaultPlan, FaultSpec, RetryPolicy
from repro.md import serial
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.md.potentials import LennardJones
from repro.md.simulation import Simulation, SimulationConfig
from repro.md.stages import Stage
from repro.obs import observe, rankprof, telemetry
from repro.obs.critpath import check_horizon_messages, check_partitions_modeled, traced_round
from repro.obs.flight import check_autodump
from repro.obs.report import check_forward_counts, check_phase_traffic, check_stage_breakdown
from repro.scenarios import core_spec, default_fleet, registry
from repro.scenarios.build import scenario_exchange

#: The §3.4 hazards the race detector must flag: a stale window, a stale ring.
STALE_PLAN = FaultPlan(seed=3, faults=tuple(
    FaultSpec(kind=kind, count=1, severity=2) for kind in ("rdma-stale", "ring-stale")))
#: A forward drop outliving the retry budget (3-stage has no fallback tier).
EXHAUST_PLAN = FaultPlan(seed=2, policy=RetryPolicy(max_retries=2), faults=(
    FaultSpec("drop", phases=("forward",), severity=9, count=1),))
#: Injection jitter on rank 2 alone.
JITTER_PLAN = FaultPlan(seed=5, faults=(FaultSpec("inject-jitter", src=2, stall=2e-6),))


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SelfCheckReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        """Record one named check outcome."""
        self.checks.append(CheckResult(name, passed, detail))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        """Human-readable PASS/FAIL listing."""
        lines = ["repro self-check:"] + [
            f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}" + (f" — {c.detail}" if c.detail else "")
            for c in self.checks
        ]
        lines.append(f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines)


def _sim(x, v, box, pattern: str, neighbor_every: int = 5, **cfg) -> Simulation:
    """The battery's LJ system on 2x2x2 ranks."""
    cfg = SimulationConfig(dt=0.005, skin=0.3, pattern=pattern, neighbor_every=neighbor_every, **cfg)
    return Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))


def run_selfcheck(cells=(4, 4, 4), steps: int = 20, seed: int = 7, fault_plan=None) -> SelfCheckReport:
    """Run the battery; a ``fault_plan`` adds the fault battery, last (for ``--trace``)."""
    report = SelfCheckReport()
    add = report.add
    x, box = fcc_lattice(cells, lj_density_to_cell(0.8442))
    v = maxwell_velocities(x.shape[0], 1.44, seed=seed)
    ref = serial.SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)
    e0 = ref.sample_thermo().total_energy
    ref.run(steps)
    sims = {}
    for pattern, rdma in (("3stage", False), ("p2p", False), ("p2p", True), ("parallel-p2p", True)):
        sim = sims[(pattern, rdma)] = _sim(x, v, box, pattern, rdma=rdma)
        sim.run(steps)
        label = pattern + ("+rdma" if rdma else "")
        add(f"trajectory[{label}] matches serial reference", *serial.check_trajectory(sim, ref.x))
        add(f"momentum[{label}] conserved", *serial.check_momentum(sim))
        add(f"atoms[{label}] conserved through migration", *serial.check_atoms_conserved(sim))
    e1 = ref.sample_thermo().total_energy
    add("energy drift within truncation noise", *serial.check_energy_drift(e0, e1, steps))
    half, three = sims[("p2p", False)].exchange, sims[("3stage", False)].exchange
    add("message counts match Table 1 (13 p2p vs 6 3-stage)", *check_table1_counts(half, three))
    add("ghost volume halved by Newton's law (Table 1)", *check_ghost_halving(half, three))
    add("pre-registration held (no re-registrations)", *check_preregistered(sims[("p2p", True)].exchange))
    _observability_checks(add, x, v, box, steps=max(steps // 2, 5))
    _analysis_checks(add, x, v, box)
    _telemetry_checks(add, x, v, box, steps=max(steps // 2, 5))
    _rankprof_checks(add, x, v, box)
    _fleet_checks(add)
    if fault_plan is not None:
        _fault_checks(add, x, v, box, fault_plan)
    return report


def _observability_checks(add, x, v, box, steps: int) -> None:
    for pattern in ("3stage", "parallel-p2p"):
        with observe(metrics=False) as (tracer, _):
            sim = _sim(x, v, box, pattern)
            sim.run(steps)
        n, log = analyze_simulation(sim).total_messages, sim.world.transport.log
        add(f"trace[{pattern}] phase traffic equals TrafficLog", *check_phase_traffic(tracer, log))
        add(f"trace[{pattern}] forward counts match Table 1 ({n} msgs/rank)", *check_forward_counts(tracer, sim))
        add(f"trace[{pattern}] stage breakdown reproduces StageTimers", *check_stage_breakdown(tracer, sim.timers))
    for pattern in ("3stage", "parallel-p2p"):
        sim = _sim(x, v, box, pattern, rdma=pattern != "3stage", model_machine_time=True)
        sim.setup()  # populate the exchange routes the model replays
        modeled, cp = traced_round(sim.exchange)
        add(f"critpath[{pattern}] attribution sums to modeled exchange time", *check_partitions_modeled(cp, modeled))
        add(f"critpath[{pattern}] message count matches rank-0 send schedule",
            *check_horizon_messages(cp, sim.exchange))
        with observe(metrics=False) as (tracer, _):
            sim.run(5)
        add(f"critpath[{pattern}] model stage breakdown reproduces StageTimers",
            *check_stage_breakdown(tracer, sim.timers, "model"))


def _analysis_checks(add, x, v, box, steps: int = 5) -> None:
    add("commlint clean on the communication stack", *check_clean(run_commlint()))
    add("commlint flags a seeded ring-depth bug (CL001)", *check_flags_seeded_bug())
    for name, check, plan in (
        ("race detector silent on fault-free RDMA run", check_silent, None),
        ("race detector flags injected §3.4 hazards (HB001)", check_flags_stale, STALE_PLAN),
    ):
        with observe(metrics=False) as (tracer, _):
            sim = _sim(x, v, box, "p2p", rdma=True, neighbor_every=3)
            with FAULTS.inject(plan) if plan else nullcontext():
                sim.run(steps)
        add(name, *check(detect_races(tracer)))


def _telemetry_checks(add, x, v, box, steps: int) -> None:
    with telemetry.TELEMETRY.alone():
        sim = _sim(x, v, box, "p2p", rdma=True, model_machine_time=True)
        sim.setup()
        # Per-step stage deltas of the timers the flush folds, recorded apart from it.
        last = {clock: {s: 0.0 for s in Stage} for clock in ("wall", "model")}
        deltas = {clock: {s: [] for s in Stage} for clock in last}
        for _ in range(steps):
            sim.step()
            for clock, prev in last.items():
                for s, now in getattr(sim.timers, clock).items():
                    deltas[clock][s].append(now - prev[s])
                    prev[s] = now
        add("telemetry leaves the exchange fast path on", *telemetry.check_fastpath_kept(sim))
        add("telemetry counters equal exchange/transport bookkeeping", *telemetry.check_counters(sim, steps))
        add("stage sketch sums telescope to StageTimers totals", *telemetry.check_sketch_sums(sim))
        add("stage sketch p50/means agree with StageTimers breakdown", *telemetry.check_sketch_quantiles(sim, deltas))

    with telemetry.TELEMETRY.alone(), tempfile.TemporaryDirectory() as tmp:
        sim = _sim(x, v, box, "3stage", neighbor_every=4)
        sim.run(3)  # healthy steps populate the frame ring first
        dump, died = os.path.join(tmp, "flight.json"), False
        try:
            with telemetry.TELEMETRY.autodump_to(dump), FAULTS.inject(EXHAUST_PLAN):
                sim.run(3)
        except FaultError:
            died = True
        add("forced RetryExhaustedError auto-dumps a valid flight record", *check_autodump(dump, died))


def _rankprof_checks(add, x, v, box) -> None:
    sim = _sim(x, v, box, "parallel-p2p", rdma=True, model_machine_time=True)
    sim.setup()
    prof = rankprof.profile_exchange(sim.exchange, phases=("forward", "reverse"))
    doc = rankprof.to_dict(prof, label="selfcheck-clean")
    add("rankprof attribution partitions each rank's exchange exactly", *rankprof.check_partitions(prof))
    add("rankprof completions telescope to modeled_exchange_time bit-exactly",
        *rankprof.check_telescopes(prof, sim.exchange))
    add("rankprof rank-0 row equals whole-run critpath attribution bit-exactly",
        *rankprof.check_rank0_row(prof, traced_round(sim.exchange)[1]))
    add("rankprof document validates as repro-rankprof/1", *rankprof.check_document(doc, prof))
    with FAULTS.inject(JITTER_PLAN):
        jittered = rankprof.profile_exchange(sim.exchange, phases=("forward", "reverse"))
    add("rankprof names the jittered rank as the sole fault straggler",
        *rankprof.check_names_straggler(prof, jittered, 2))


def _fleet_checks(add) -> None:
    fleet = default_fleet()
    off = registry.differential_scenarios("off")
    fault = next(s for s in fleet if s["role"] == "fault" and s["tier"] == "sampled")
    sampled = next(s for s in fleet if s["role"] == "equivalence" and s["tier"] == "sampled"
                   and s["params"]["grid"] != [1, 1, 1])  # >1 rank: a real state space
    eq = next(s for s in fleet if s["role"] == "equivalence"  # Table 1's half shell
              and tuple(s["params"]["grid"]) == (2, 2, 2) and s["params"]["newton"])
    add("fleet expansion deterministic, duplicate-free, >= 200 configs", *registry.check_expansion(core_spec()))
    add("legacy 24-config grid embedded in the fleet (same seeds)", *registry.check_legacy_embedded(off))
    add("whole fleet passes L0+L1 (schema + commlint feasibility)", *registry.check_fleet_valid(fleet, "L1"))
    add("fleet equivalence scenario: variants agree bit-identically", *registry.check_variants_agree(
        off[0], {p: scenario_exchange(off[0], p) for p in ("p2p", "parallel-p2p", "3stage")}))
    add("fleet fault scenario: template plan absorbed bit-identically", *registry.check_scenario_valid(fault, "L3"))
    add("protomc: clean rdma p2p model proves P1-P4", *check_proves(verify_model(base_model())))
    add("protomc: every seeded mutation caught by its named property",
        *check_mutations_caught(run_mutation_battery()))
    proved, detail = check_proves(verify_scenario(sampled, max_states=200_000, budget_s=20.0))
    add("protomc: sampled fleet scenario verifies end-to-end", proved, f"{sampled['id']}: {detail}")
    add("protomc: live route extraction matches Table 1 and verifies",
        *check_live_extraction({p: scenario_exchange(eq, p) for p in ("p2p", "3stage")}))


def _fault_checks(add, x, v, box, plan, steps: int = 8) -> None:
    def build() -> Simulation:
        return _sim(x, v, box, "parallel-p2p", rdma=True, neighbor_every=4, model_machine_time=True)

    def injected():
        sim = build()
        with observe(metrics=False) as (tracer, _), FAULTS.inject(plan) as session:
            sim.run(steps)
        return sim, (injector.trace_signature(tracer), session.stats)

    clean = build()
    clean.run(steps)
    faulted, (signature, stats) = injected()
    add("faults injected by plan", *injector.check_fired(stats))
    add("all faults absorbed or degraded cleanly", *injector.check_absorbed(stats))
    if stats.degradations == 0:
        add("ghost region bit-identical to fault-free run", *injector.check_ghosts_identical(faulted, clean))
    else:
        add("trajectory preserved across degradation", *injector.check_degraded_trajectory(faulted, clean))
    add("fault and retry spans present in trace", *injector.check_fault_spans(signature))
    cp_sim = build()
    with FAULTS.inject(plan):
        cp_sim.setup()
        modeled, cp = traced_round(cp_sim.exchange)
    add("critpath partitions faulted exchange exactly", *check_partitions_modeled(cp, modeled))
    # Replay last: the global tracer (what ``--trace`` exports) keeps a faulted run.
    add("fault plan replays deterministically", *injector.check_replays((signature, stats), injected()[1]))
