"""Built-in self-check: the cross-validation battery as a library call.

A downstream user's first command after installing (``python -m repro
--selfcheck``): runs the same physical system through the serial
minimum-image reference and every communication implementation, and
verifies

1. forces match the reference at machine precision,
2. trajectories stay identical over tens of steps (migration included),
3. conservation laws hold (momentum exactly, energy to truncation noise),
4. the traffic actually moved matches Table 1 (13 vs 6 messages, half
   vs full ghost volume),
5. the observability layer agrees with the ground truth: per-phase
   message counts/bytes recomputed from the trace equal the
   :class:`~repro.runtime.transport.TrafficLog`, the forward counts
   equal the Table 1 analytic formulas, and the span-derived stage
   breakdown reproduces :class:`~repro.md.stages.StageTimers` exactly,
6. the critical-path analyzer's attribution partitions the modeled
   exchange time exactly and agrees with the rank's send schedule and
   the model-clock ``StageTimers`` account,
7. the analysis layer holds both ways: commlint reports zero findings
   on the shipped communication stack yet flags a seeded protocol bug,
   and the happens-before race detector stays silent on a fault-free
   RDMA run yet flags injected §3.4 stale windows.

Returns a structured report; any failed check names itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.md.potentials import LennardJones
from repro.md.serial import SerialReference
from repro.md.simulation import Simulation, SimulationConfig

VARIANTS = (
    ("3stage", False),
    ("p2p", False),
    ("p2p", True),
    ("parallel-p2p", True),
)


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
        lines = ["repro self-check:"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name}" + (f" — {c.detail}" if c.detail else ""))
        lines.append(
            f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed"
        )
        return "\n".join(lines)


def run_selfcheck(
    cells=(4, 4, 4), steps: int = 20, seed: int = 7, fault_plan=None
) -> SelfCheckReport:
    """Run the full cross-validation battery; returns the report.

    With a :class:`~repro.faults.plan.FaultPlan`, the fault battery runs
    last (so a CLI ``--trace`` export shows its fault/retry spans): the
    plan is injected into a fresh run and the ghost region must come out
    bit-identical to the fault-free run whenever the retry layer absorbs
    every fault.
    """
    report = SelfCheckReport()
    edge = lj_density_to_cell(0.8442)
    x, box = fcc_lattice(cells, edge)
    v = maxwell_velocities(x.shape[0], 1.44, seed=seed)
    ref = SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)
    e0 = ref.sample_thermo().total_energy
    ref.run(steps)

    sims = {}
    for pattern, rdma in VARIANTS:
        cfg = SimulationConfig(
            dt=0.005, skin=0.3, pattern=pattern, rdma=rdma, neighbor_every=5
        )
        sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
        sim.run(steps)
        sims[(pattern, rdma)] = sim
        label = pattern + ("+rdma" if rdma else "")

        d = box.minimum_image(sim.gather_positions() - ref.x)
        err = float(np.abs(d).max())
        report.add(
            f"trajectory[{label}] matches serial reference",
            err < 1e-9,
            f"max deviation {err:.2e}",
        )

        p = sim.gather_velocities().sum(axis=0)
        report.add(
            f"momentum[{label}] conserved",
            bool(np.all(np.abs(p) < 1e-9)),
            f"|p| {np.abs(p).max():.2e}",
        )

        report.add(
            f"atoms[{label}] conserved through migration",
            sim.total_local_atoms() == sim.natoms,
            f"{sim.total_local_atoms()}/{sim.natoms}",
        )

    e1 = ref.sample_thermo().total_energy
    drift = abs(e1 - e0) / abs(e0)
    report.add(
        "energy drift within truncation noise",
        drift < 5e-3,
        f"relative drift {drift:.2e} over {steps} steps",
    )

    # Table 1 traffic shape on the live exchanges.
    msg_p2p = sims[("p2p", False)].exchange.messages_per_rank()[0]
    msg_3s = sims[("3stage", False)].exchange.messages_per_rank()[0]
    report.add(
        "message counts match Table 1 (13 p2p vs 6 3-stage)",
        (msg_p2p, msg_3s) == (13, 6),
        f"measured {msg_p2p} and {msg_3s}",
    )
    g_p2p = sum(sims[("p2p", False)].exchange.ghost_counts().values())
    g_3s = sum(sims[("3stage", False)].exchange.ghost_counts().values())
    ratio = g_p2p / g_3s if g_3s else 0.0
    report.add(
        "ghost volume halved by Newton's law (Table 1)",
        0.42 < ratio < 0.58,
        f"p2p/3stage ghost ratio {ratio:.3f}",
    )

    rereg = sims[("p2p", True)].exchange.reregistrations
    report.add(
        "pre-registration held (no re-registrations)",
        rereg == 0,
        f"{rereg} re-registrations",
    )
    _observability_checks(report, x, v, box, steps=max(steps // 2, 5))
    _critpath_checks(report, x, v, box)
    _analysis_checks(report, x, v, box)
    _telemetry_checks(report, x, v, box, steps=max(steps // 2, 5))
    _scaling_observatory_checks(report, x, v, box)
    _fleet_checks(report)
    _protomc_checks(report)
    if fault_plan is not None:
        _fault_checks(report, x, v, box, fault_plan)
    return report


def _observability_checks(
    report: SelfCheckReport,
    x: np.ndarray,
    v: np.ndarray,
    box,
    steps: int = 10,
) -> None:
    """Trace-vs-TrafficLog-vs-Table-1 cross-validation (observability).

    Re-runs a small system under tracing and checks three independent
    accounts of the same communication against each other:

    * per-phase counts/bytes recomputed from the per-message trace
      instants must equal the :class:`TrafficLog` exactly,
    * forward message counts must equal the Table 1 analytic formulas
      (6 messages/rank for 3-stage, 13 for the half-shell p2p),
    * the span-derived stage breakdown must equal ``StageTimers`` —
      bit-exact, because both accounts share the measured floats.
    """
    from repro.core.analytic import analyze_p2p, analyze_three_stage
    from repro.obs import observe
    from repro.obs.report import phase_summary_from_trace, stage_breakdown_from_trace

    for pattern in ("3stage", "parallel-p2p"):
        cfg = SimulationConfig(
            dt=0.005, skin=0.3, pattern=pattern, neighbor_every=5
        )
        with observe(metrics=False) as (tracer, _):
            sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
            sim.run(steps)
            phases = phase_summary_from_trace(tracer)
            stage_wall = stage_breakdown_from_trace(tracer, "wall")

        log = sim.world.transport.log
        log_phases = {m.phase for m in log.messages}
        agree = log_phases == set(phases) and all(
            (phases[ph].count, phases[ph].total_bytes)
            == (log.summary(ph).count, log.summary(ph).total_bytes)
            for ph in phases
        )
        report.add(
            f"trace[{pattern}] phase traffic equals TrafficLog",
            agree,
            f"phases {sorted(phases)}",
        )

        a = float(np.min(sim.domain.sub_lengths))
        r = sim.potential.cutoff + cfg.skin
        density = sim.natoms / box.volume
        if pattern == "3stage":
            analysis = analyze_three_stage(a, r, density)
        else:
            analysis = analyze_p2p(a, r, density, newton=sim.half)
        expected_forward = analysis.total_messages * sim.world.size * (
            sim.step_count - sim.rebuilds
        )
        measured_forward = phases["forward"].count if "forward" in phases else 0
        report.add(
            f"trace[{pattern}] forward counts match Table 1 "
            f"({analysis.total_messages} msgs/rank)",
            measured_forward == expected_forward,
            f"measured {measured_forward}, predicted {expected_forward}",
        )

        max_err = max(
            abs(stage_wall[s.value] - sim.timers.wall[s]) for s in sim.timers.wall
        )
        report.add(
            f"trace[{pattern}] stage breakdown reproduces StageTimers",
            max_err == 0.0,
            f"max |span sum - timer| = {max_err:.2e}",
        )


def _critpath_checks(
    report: SelfCheckReport,
    x: np.ndarray,
    v: np.ndarray,
    box,
) -> None:
    """Critical-path-vs-model-vs-TrafficLog cross-validation.

    The critical-path analyzer claims its per-category attribution
    partitions the modeled exchange exactly.  Check that claim against
    the two independent accounts that already exist:

    * the chain's completion time must equal the scalar
      :func:`~repro.core.modeling.modeled_exchange_time` returns (same
      simulator, independent reduction), and the attribution must sum to
      it within float tolerance;
    * the number of distinct messages on the analyzer's wire horizon
      must equal the rank's send schedule — the same per-rank count the
      :class:`TrafficLog` records once per exchange phase;
    * with ``model_machine_time`` on, the model-timeline stage breakdown
      recomputed from spans must reproduce ``StageTimers.model``
      bit-exactly (both accounts share the accumulated floats).
    """
    from repro.core.modeling import modeled_exchange_time
    from repro.obs import observe
    from repro.obs.critpath import analyze_critical_path
    from repro.obs.report import stage_breakdown_from_trace

    for pattern in ("3stage", "parallel-p2p"):
        cfg = SimulationConfig(
            dt=0.005, skin=0.3, pattern=pattern, rdma=(pattern != "3stage"),
            neighbor_every=5, model_machine_time=True,
        )
        sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
        sim.setup()  # populate the exchange routes the model replays

        with observe(metrics=False) as (tracer, _):
            modeled = modeled_exchange_time(sim.exchange, "forward", rank=0)
        cp = analyze_critical_path(tracer)

        tol = 1e-9 * max(modeled, 1e-12)
        report.add(
            f"critpath[{pattern}] attribution sums to modeled exchange time",
            abs(cp.completion - modeled) <= tol
            and abs(cp.total_attributed - cp.total_time) <= tol,
            f"modeled {modeled:.3e}s, chain {cp.total_attributed:.3e}s "
            f"(diff {abs(cp.total_attributed - (cp.completion - cp.base)):.1e})",
        )

        sends = sim.exchange.messages_per_rank()[0]
        report.add(
            f"critpath[{pattern}] message count matches rank-0 send schedule",
            cp.messages == sends,
            f"chain horizon saw {cp.messages}, TrafficLog schedule has {sends}",
        )

        with observe(metrics=False) as (tracer, _):
            sim.run(5)
            stage_model = stage_breakdown_from_trace(tracer, "model")
        max_err = max(
            abs(stage_model[s.value] - sim.timers.model[s]) for s in sim.timers.model
        )
        report.add(
            f"critpath[{pattern}] model stage breakdown reproduces StageTimers",
            max_err == 0.0,
            f"max |span sum - timer| = {max_err:.2e}",
        )


def _analysis_checks(
    report: SelfCheckReport,
    x: np.ndarray,
    v: np.ndarray,
    box,
    steps: int = 5,
) -> None:
    """Static-analyzer and race-detector battery (the analysis layer).

    Four checks pin both directions of the analysis tooling:

    * commlint must report **zero** findings on the shipped
      communication stack (static + live introspection),
    * commlint must still be able to *fail* — a seeded ring-depth-3
      snippet must come back flagged CL001,
    * the happens-before detector must stay silent on a fault-free
      traced RDMA run,
    * it must flag the §3.4 stale windows when ``rdma-stale`` and
      ``ring-stale`` plans are injected into the same run.
    """
    from repro.analysis.commlint import lint_source, run_commlint
    from repro.analysis.hb import detect_races
    from repro.faults.injector import FAULTS
    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.obs import observe

    lint = run_commlint()
    report.add(
        "commlint clean on the communication stack",
        lint.clean,
        f"{len(lint.findings)} finding(s) over {len(lint.files_analyzed)} files",
    )

    seeded = lint_source("ring = RecvBufferRing(engine, 0, cap, depth=3)\n")
    report.add(
        "commlint flags a seeded ring-depth bug (CL001)",
        [f.rule for f in seeded] == ["CL001"],
        f"rules {[f.rule for f in seeded]}",
    )

    def probe(plan=None):
        cfg = SimulationConfig(
            dt=0.005, skin=0.3, pattern="p2p", rdma=True, neighbor_every=3
        )
        with observe(metrics=False) as (tracer, _):
            sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
            if plan is not None:
                with FAULTS.inject(plan):
                    sim.run(steps)
            else:
                sim.run(steps)
            return detect_races(tracer)

    clean = probe()
    report.add(
        "race detector silent on fault-free RDMA run",
        clean.clean,
        f"{len(clean.findings)} hazard(s) in {clean.events_analyzed} events",
    )

    hazards = probe(
        FaultPlan(
            seed=3,
            faults=(
                FaultSpec(kind="rdma-stale", count=1, severity=2),
                FaultSpec(kind="ring-stale", count=1, severity=2),
            ),
        )
    )
    report.add(
        "race detector flags injected §3.4 hazards (HB001)",
        any(f.rule == "HB001" for f in hazards.findings),
        f"rules {sorted(hazards.by_rule())}",
    )


def _telemetry_checks(
    report: SelfCheckReport,
    x: np.ndarray,
    v: np.ndarray,
    box,
    steps: int = 10,
) -> None:
    """The always-on telemetry plane against its three ground truths.

    * enabling telemetry must **not** push the exchange off the fast
      path (the whole point of the third tier), and its counters must
      equal the exchange/transport bookkeeping they are fed from;
    * the per-stage quantile sketches must reproduce ``StageTimers``:
      sketch sums telescope to the timer totals, sketch means match the
      per-step means derived from ``breakdown()``, and every sketch
      quantile is within the sketch's relative-accuracy bound of the
      true rank quantile of independently recorded per-step deltas;
    * a forced ``RetryExhaustedError`` must auto-dump a **valid**
      ``repro-flightrec/1`` document carrying the pre-failure step
      frames and the fault/retry/exhaustion event trail.
    """
    import math
    import os
    import tempfile
    from contextlib import contextmanager

    from repro.faults.injector import FAULTS, FaultError
    from repro.faults.plan import FaultPlan, FaultSpec, RetryPolicy
    from repro.md.stages import Stage
    from repro.obs.flight import SCHEMA, load_flight_doc
    from repro.obs.metrics import METRICS
    from repro.obs.telemetry import TELEMETRY
    from repro.obs.trace import TRACER

    def true_quantile(samples: list[float], q: float) -> float:
        ordered = sorted(samples)
        return ordered[max(1, math.ceil(q * len(ordered))) - 1]

    @contextmanager
    def quiet_observability():
        # This battery asserts the fast path survives telemetry *alone*;
        # a CLI --trace/--metrics session (which legitimately blocks the
        # fast path) must not leak in.
        prev_trace, prev_metrics = TRACER.enabled, METRICS.enabled
        TRACER.enabled = False
        METRICS.enabled = False
        try:
            with TELEMETRY.scope():
                yield
        finally:
            TRACER.enabled = prev_trace
            METRICS.enabled = prev_metrics

    with quiet_observability():
        cfg = SimulationConfig(
            dt=0.005, skin=0.3, pattern="p2p", rdma=True,
            neighbor_every=5, model_machine_time=True,
        )
        sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
        telem = sim.telemetry
        sim.setup()
        # Record per-stage deltas independently, sampling the same
        # cumulative timers the flush folds (identical float sequence).
        wall_samples = {s: [] for s in Stage}
        model_samples = {s: [] for s in Stage}
        prev_wall = {s: 0.0 for s in Stage}
        prev_model = {s: 0.0 for s in Stage}
        for _ in range(steps):
            sim.step()
            for s in Stage:
                wall_samples[s].append(sim.timers.wall[s] - prev_wall[s])
                model_samples[s].append(sim.timers.model[s] - prev_model[s])
                prev_wall[s] = sim.timers.wall[s]
                prev_model[s] = sim.timers.model[s]

        stats = sim.exchange.plan_stats()
        report.add(
            "telemetry leaves the exchange fast path on",
            telem is not None
            and stats["fastpath_phases"] > 0
            and sim.exchange._gate_blocks["observability"] == 0,
            f"{stats['fastpath_phases']} fastpath phases, "
            f"{sim.exchange._gate_blocks['observability']} observability blocks",
        )

        log = sim.world.transport.log
        counters_agree = (
            telem.counter_value("fastpath_phases_total") == stats["fastpath_phases"]
            and telem.counter_value("plan_builds_total") == stats["plan_builds"]
            and telem.counter_value("messages_total") == log.count()
            and telem.counter_value("message_bytes_total") == log.total_bytes()
            and telem.counter_value("steps_total") == steps
        )
        report.add(
            "telemetry counters equal exchange/transport bookkeeping",
            counters_agree,
            f"{telem.counter_value('messages_total'):.0f} messages, "
            f"{telem.counter_value('fastpath_phases_total'):.0f} fastpath phases",
        )

        sum_err = 0.0
        mean_err = 0.0
        q_ok = True
        wall_means = {
            name: t / steps for name, (t, _) in sim.timers.breakdown("wall").items()
        }
        for s in Stage:
            sk = telem.sketch("stage_wall_seconds", stage=s.value)
            total = sim.timers.wall[s]
            sum_err = max(sum_err, abs(sk.total - total))
            mean_err = max(mean_err, abs(sk.mean - wall_means[s.value]))
            for sk2, samples in (
                (sk, wall_samples[s]),
                (telem.sketch("stage_model_seconds", stage=s.value), model_samples[s]),
            ):
                if sk2 is None:
                    continue
                for q in (0.5, 0.95, 0.99):
                    truth = true_quantile(samples, q)
                    if abs(sk2.quantile(q) - truth) > truth * 1.01 * sk2.rel_accuracy:
                        q_ok = False
        report.add(
            "stage sketch sums telescope to StageTimers totals",
            sum_err < 1e-9,
            f"max |sketch sum - timer| = {sum_err:.2e}",
        )
        report.add(
            "stage sketch p50/means agree with StageTimers breakdown",
            q_ok and mean_err < 1e-12,
            f"max mean error {mean_err:.2e}, quantiles within rank-error bound",
        )

    # Forced retry exhaustion: 3-stage has no fallback tier, so a drop
    # outliving the retry budget escapes as RetryExhaustedError and must
    # leave a valid flight dump behind.
    with quiet_observability():
        cfg = SimulationConfig(dt=0.005, skin=0.3, pattern="3stage", neighbor_every=4)
        sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
        sim.run(3)  # healthy steps populate the frame ring first
        plan = FaultPlan(
            seed=2,
            policy=RetryPolicy(max_retries=2),
            faults=(FaultSpec("drop", phases=("forward",), severity=9, count=1),),
        )
        fd, dump_path = tempfile.mkstemp(suffix=".json")
        os.close(fd)
        died = False
        try:
            with TELEMETRY.autodump_to(dump_path), FAULTS.inject(plan):
                sim.run(3)
        except FaultError:
            died = True
        try:
            doc = load_flight_doc(dump_path)
            kinds = {e["kind"] for e in doc["events"]}
            frames_ok = (
                len(doc["frames"]) >= 3
                and set(doc["frames"][-1]["wall"]) == {s.value for s in Stage}
            )
            report.add(
                "forced RetryExhaustedError auto-dumps a valid flight record",
                died
                and doc["schema"] == SCHEMA
                and doc["reason"] == "retry-exhausted"
                and frames_ok
                and {"fault-injected", "retry", "retry-exhausted"} <= kinds,
                f"{len(doc['frames'])} frames, events {sorted(kinds)}",
            )
        except (OSError, ValueError) as exc:
            report.add(
                "forced RetryExhaustedError auto-dumps a valid flight record",
                False,
                f"dump invalid: {exc}",
            )
        finally:
            os.unlink(dump_path)


def _scaling_observatory_checks(
    report: SelfCheckReport,
    x: np.ndarray,
    v: np.ndarray,
    box,
) -> None:
    """Scaling-observatory battery: rank-granular attribution + diagnosis.

    The per-rank profiler claims its table is the *same account* the
    existing layers keep, extended to rank granularity.  Five checks pin
    that claim:

    * every (rank, phase) row's attribution partitions its modeled
      completion exactly (the critpath invariant, per rank);
    * each row's completion equals an independently recomputed
      :func:`~repro.core.modeling.modeled_exchange_time` for that rank
      **bit-exactly** — the profile telescopes to the untraced account;
    * rank 0's forward row *is* the whole-run critical-path attribution
      (same spans, same analysis) bit-for-bit;
    * the serialized ``repro-rankprof/1`` document round-trips through
      its validator (which re-checks the partition invariant);
    * ``repro diag`` on two profiles differing only by one jittered rank
      (fault plane, ``inject-jitter`` on rank 2) names that exact
      cohort, the ``fault`` category, and the imbalance shape in its
      top-ranked finding.
    """
    from repro.core.modeling import modeled_exchange_time
    from repro.faults import FAULTS, FaultPlan
    from repro.faults.plan import FaultSpec
    from repro.obs import observe
    from repro.obs.critpath import analyze_critical_path
    from repro.obs.diag import diagnose
    from repro.obs.rankprof import profile_exchange, to_dict, validate_rankprof_doc

    cfg = SimulationConfig(
        dt=0.005, skin=0.3, pattern="parallel-p2p", rdma=True,
        neighbor_every=5, model_machine_time=True,
    )
    sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
    sim.setup()

    prof = profile_exchange(sim.exchange, phases=("forward", "reverse"))
    worst = 0.0
    for p in prof.profiles:
        tol = 1e-9 * max(p.completion, 1e-12)
        worst = max(worst, abs(sum(p.attribution.values()) - p.completion) - tol)
    report.add(
        "rankprof attribution partitions each rank's exchange exactly",
        worst <= 0.0,
        f"{len(prof.profiles)} rank x phase rows checked",
    )

    exact = all(
        modeled_exchange_time(sim.exchange, p.phase, rank=p.rank) == p.completion
        for p in prof.profiles
    )
    report.add(
        "rankprof completions telescope to modeled_exchange_time bit-exactly",
        exact,
        f"{len(prof.profiles)} independent re-computations",
    )

    with observe(metrics=False) as (tracer, _):
        modeled_exchange_time(sim.exchange, "forward", rank=0)
    cp = analyze_critical_path(tracer)
    row0 = prof.by_phase("forward")[0]
    report.add(
        "rankprof rank-0 row equals whole-run critpath attribution bit-exactly",
        row0.attribution == dict(cp.attribution)
        and row0.completion == cp.completion - cp.base,
        f"{len(row0.attribution)} categories compared",
    )

    doc_clean = to_dict(prof, label="selfcheck-clean")
    try:
        rows = validate_rankprof_doc(doc_clean)
        report.add(
            "rankprof document validates as repro-rankprof/1",
            rows == len(prof.profiles),
            f"{rows} rows",
        )
    except ValueError as exc:
        report.add("rankprof document validates as repro-rankprof/1", False, str(exc))
        return

    plan = FaultPlan(
        seed=5, faults=(FaultSpec("inject-jitter", src=2, stall=2e-6),)
    )
    with FAULTS.inject(plan):
        jittered = profile_exchange(sim.exchange, phases=("forward", "reverse"))
    doc_jit = to_dict(jittered, label="selfcheck-jittered")
    diag = diagnose(doc_clean, doc_jit, "clean", "jittered")
    top = diag.findings[0] if diag.findings else None
    report.add(
        "diag names the perturbed rank cohort, category, and shape",
        top is not None
        and top.cohort == (2,)
        and top.category == "fault"
        and top.shape == "imbalance"
        and top.stage == "Comm",
        "top finding: "
        + (
            f"{top.shape} in {top.stage}/{top.category} on ranks "
            f"{list(top.cohort)}" if top else "none"
        ),
    )


def _ghost_digest(sim: Simulation) -> str:
    """SHA-256 over every rank's ghost positions + tags (bit-exact)."""
    import hashlib

    h = hashlib.sha256()
    for rank in range(sim.world.size):
        atoms = sim.atoms_of(rank)
        h.update(atoms.x[atoms.nlocal : atoms.ntotal].tobytes())
        h.update(atoms.tag[atoms.nlocal : atoms.ntotal].tobytes())
    return h.hexdigest()


def _fleet_checks(report: SelfCheckReport) -> None:
    """Scenario-fleet battery: the spec-driven registry is trustworthy.

    Five checks pin the generator the differential/fault/bench gates
    parametrize over: deterministic >= 200-config expansion, the legacy
    hand-written 24-config grid provably embedded, zero L0/L1
    rejections fleet-wide, and one executable smoke per consumer
    (equivalence bit-identity across all three variants, fault template
    absorbed bit-identically).
    """
    from repro.scenarios import (
        core_spec,
        default_fleet,
        dumps_fleet,
        expand_spec,
        legacy_equivalence_configs,
        validate_fleet,
        validate_scenario,
    )
    from repro.scenarios.build import ghost_set, scenario_exchange

    spec = core_spec()
    first, second = expand_spec(spec), expand_spec(spec)
    ids = [s["id"] for s in first]
    report.add(
        "fleet expansion deterministic, duplicate-free, >= 200 configs",
        len(first) >= 200
        and len(set(ids)) == len(ids)
        and dumps_fleet(spec, first) == dumps_fleet(spec, second),
        f"{len(first)} scenarios, {len(set(ids))} distinct ids",
    )

    fleet = default_fleet()
    by_key = {
        (tuple(s["params"]["grid"]), s["params"]["cutoff"], s["params"]["newton"]): s
        for s in fleet
        if s["role"] == "equivalence" and s["params"]["observability"] == "off"
    }
    legacy = legacy_equivalence_configs()
    missing = [k for k in legacy if k not in by_key]
    grids = [k[0] for k in legacy[::6]]  # axis order of the legacy grid list
    seed_mismatch = [
        k for k in legacy
        if k in by_key
        and by_key[k]["seed"]
        != 1000 * grids.index(k[0]) + int(100 * k[1]) + (1 if k[2] else 0)
    ]
    report.add(
        "legacy 24-config grid embedded in the fleet (same seeds)",
        not missing and not seed_mismatch and len(legacy) == 24,
        f"{len(legacy) - len(missing)}/{len(legacy)} present, "
        f"{len(seed_mismatch)} seed mismatch(es)",
    )

    l1 = validate_fleet(list(fleet), level="L1")
    report.add(
        "whole fleet passes L0+L1 (schema + commlint feasibility)",
        l1.ok,
        f"{l1.checked} checked, {len(l1.issues)} issue(s)",
    )

    sampled_eq = next(
        s for s in fleet
        if s["role"] == "equivalence" and s["params"]["observability"] == "off"
    )
    exchanges = {
        p: scenario_exchange(sampled_eq, p) for p in ("p2p", "parallel-p2p", "3stage")
    }
    nranks = int(np.prod(sampled_eq["params"]["grid"]))
    fine_equal = all(
        np.array_equal(
            exchanges["p2p"].atoms_of(r).x, exchanges["parallel-p2p"].atoms_of(r).x
        )
        for r in range(nranks)
    )
    shell_contains = all(
        ghost_set(exchanges["p2p"], r) <= ghost_set(exchanges["3stage"], r)
        for r in range(nranks)
    )
    report.add(
        "fleet equivalence scenario: variants agree bit-identically",
        fine_equal and shell_contains,
        f"{sampled_eq['id']} over {nranks} rank(s)",
    )

    fault_scenario = next(
        s for s in fleet if s["role"] == "fault" and s["tier"] == "sampled"
    )
    issues = validate_scenario(fault_scenario, level="L3")
    report.add(
        "fleet fault scenario: template plan absorbed bit-identically",
        not issues,
        issues[0].render() if issues else fault_scenario["id"],
    )


def _protomc_checks(report: SelfCheckReport) -> None:
    """Protocol model-checker battery (protomc P1–P4).

    Four checks pin the checker the ``protocol-verify`` CI gate and the
    ``L2.5`` validation level rely on: a clean model proves all four
    properties, every seeded protocol mutation is caught by its *named*
    property with a replayable counterexample, a sampled fleet scenario
    verifies end-to-end, and the arithmetic extraction agrees with the
    live route tables (Table 1 message counts) on a real exchange.
    """
    from repro.analysis.protomc import (
        base_model,
        model_from_exchange,
        replay,
        run_mutation_battery,
        verify_model,
        verify_scenario,
    )
    from repro.analysis.protomc.model import SEND
    from repro.scenarios import default_fleet
    from repro.scenarios.build import scenario_exchange

    clean = verify_model(base_model())
    report.add(
        "protomc: clean rdma p2p model proves P1-P4",
        clean.ok,
        f"{clean.states} state(s), {clean.wall_ms:.1f}ms",
    )

    outcomes = run_mutation_battery()
    missed = [o for o in outcomes if not o.ok]
    report.add(
        "protomc: every seeded mutation caught by its named property",
        not missed,
        ", ".join(o.render() for o in missed)
        or f"{len(outcomes)} mutation(s) caught + replayed",
    )

    fleet = default_fleet()
    sampled = next(
        s for s in fleet
        if s["role"] == "equivalence"
        and s["tier"] == "sampled"
        and s["params"]["grid"] != [1, 1, 1]  # >1 rank: a real state space
    )
    result = verify_scenario(sampled, max_states=200_000, budget_s=20.0)
    confirmed = all(replay_ok for replay_ok in (
        replay(base_model(), c) for c in result.counterexamples
    ))
    report.add(
        "protomc: sampled fleet scenario verifies end-to-end",
        result.ok and confirmed,
        f"{sampled['id']}: {result.states} state(s), {result.wall_ms:.1f}ms",
    )

    eq = next(
        s for s in fleet
        if s["role"] == "equivalence"
        and tuple(s["params"]["grid"]) == (2, 2, 2)
        and s["params"]["newton"]  # Table 1 counts are the half-shell ones
    )
    live_models = {}
    for pattern, expected in (("p2p", 13), ("3stage", 6)):
        ex = scenario_exchange(eq, pattern)
        ex.borders()
        live = model_from_exchange(ex, label=f"selfcheck/{pattern}")
        border_sends = sum(
            1 for op in live.programs[0]
            if op.kind == SEND and op.stage == "borders"
        )
        live_models[pattern] = (live, border_sends, expected)
    live_ok = all(
        got == expected and verify_model(m).ok
        for m, got, expected in live_models.values()
    )
    report.add(
        "protomc: live route extraction matches Table 1 and verifies",
        live_ok,
        ", ".join(
            f"{p}: {got}/{expected} border sends"
            for p, (_, got, expected) in live_models.items()
        ),
    )


def _fault_checks(
    report: SelfCheckReport,
    x: np.ndarray,
    v: np.ndarray,
    box,
    plan,
    steps: int = 8,
) -> None:
    """The tentpole invariant: faults must be absorbed without a trace.

    Runs the fine-p2p+RDMA variant (every fault kind has a target there)
    fault-free and under ``plan``, and checks:

    * faults actually fired and every one was absorbed (or, for a
      non-absorbable plan, degraded cleanly with no unabsorbed leftovers);
    * if no degradation happened, the final ghost region is
      **bit-identical** to the fault-free run; after a degradation the
      trajectory still matches to integration precision;
    * fault and retry events appear in the trace (Perfetto-exportable);
    * the plan replays: a second injection reproduces the exact trace
      event sequence and fault statistics;
    * the critical path still partitions a faulted exchange round exactly.
    """
    from repro.core.modeling import modeled_exchange_time
    from repro.faults.injector import FAULTS
    from repro.obs import observe
    from repro.obs.critpath import analyze_critical_path

    def build() -> Simulation:
        cfg = SimulationConfig(
            dt=0.005, skin=0.3, pattern="parallel-p2p", rdma=True,
            neighbor_every=4, model_machine_time=True,
        )
        return Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))

    def trace_key(tracer):
        wall = [(s.name, s.cat, s.track) for s in tracer.spans if s.clock == "wall"]
        model = [
            (s.name, s.cat, s.track, s.ts, s.dur)
            for s in tracer.spans
            if s.clock == "model"
        ]
        inst = [(e.name, e.cat, e.track) for e in tracer.instants]
        return wall, model, inst

    baseline = build()
    baseline.run(steps)
    digest0 = _ghost_digest(baseline)
    pos0 = baseline.gather_positions()

    faulted = build()
    with observe(metrics=False) as (tracer, _):
        with FAULTS.inject(plan) as session:
            faulted.run(steps)
        wall1, model1, inst1 = trace_key(tracer)
    stats1 = session.stats

    report.add(
        "faults injected by plan",
        stats1.total_injected() > 0,
        f"{stats1.total_injected()} fired: "
        + ", ".join(f"{k}={n}" for k, n in sorted(stats1.injected.items())),
    )
    report.add(
        "all faults absorbed or degraded cleanly",
        stats1.unabsorbed == 0,
        f"{stats1.absorbed} absorbed over {stats1.retries} retries, "
        f"{stats1.degradations} degradation(s), {stats1.unabsorbed} unabsorbed",
    )
    if stats1.degradations == 0:
        report.add(
            "ghost region bit-identical to fault-free run",
            _ghost_digest(faulted) == digest0
            and np.array_equal(faulted.gather_positions(), pos0),
            f"digest {digest0[:12]}…",
        )
    else:
        dev = float(np.abs(box.minimum_image(faulted.gather_positions() - pos0)).max())
        report.add(
            "trajectory preserved across degradation",
            dev < 1e-9,
            f"max deviation {dev:.2e} after "
            + " -> ".join([plan and faulted.degradations[0][0]]
                          + [t for _, t in faulted.degradations]),
        )

    fault_events = len([e for e in inst1 if e[1] == "fault"]) + len(
        [s for s in model1 if s[1] == "fault"]
    )
    retry_events = len([s for s in wall1 if s[1] == "retry"]) + len(
        [s for s in model1 if s[1] == "retry"]
    )
    report.add(
        "fault and retry spans present in trace",
        fault_events > 0 and retry_events > 0,
        f"{fault_events} fault events, {retry_events} retry spans",
    )

    cp_sim = build()
    with FAULTS.inject(plan):
        cp_sim.setup()
        with observe(metrics=False) as (tracer, _):
            modeled = modeled_exchange_time(cp_sim.exchange, "forward", rank=0)
        cp = analyze_critical_path(tracer)
    tol = 1e-9 * max(modeled, 1e-12)
    report.add(
        "critpath partitions faulted exchange exactly",
        abs(cp.completion - modeled) <= tol
        and abs(cp.total_attributed - cp.total_time) <= tol,
        f"modeled {modeled:.3e}s, attributed {cp.total_attributed:.3e}s",
    )

    # Replay last so the global tracer (what ``--trace`` exports) holds
    # the full faulted run, fault and retry spans included.
    replay = build()
    with observe(metrics=False) as (tracer, _):
        with FAULTS.inject(plan) as session2:
            replay.run(steps)
        wall2, model2, inst2 = trace_key(tracer)
    report.add(
        "fault plan replays deterministically",
        (wall1, model1, inst1) == (wall2, model2, inst2)
        and stats1 == session2.stats,
        f"{len(wall1)}+{len(model1)} spans, {len(inst1)} instants reproduced",
    )
