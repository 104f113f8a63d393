"""Continuous benchmark harness with regression gating.

The paper's whole argument is a performance delta; this module makes the
repository's own perf trajectory a first-class, machine-checked
artifact.  Three subcommands::

    python -m repro.obs.bench run --out BENCH_PR2.json [--suite smoke]
    python -m repro.obs.bench compare baseline.json BENCH_PR2.json
    python -m repro.obs.bench report BENCH_PR2.json [--csv out.csv]

``run`` executes a declared suite of configurations (potential x pattern
x rank grid x rdma) and records, per configuration:

* **wall** — pytest-benchmark-style stats (min/median/mean/stddev/max
  over ``--repeats`` runs) of the five-stage wall breakdown,
* **model** — the deterministic simulated-Fugaku stage seconds
  (``StageTimers.model``) of the same run,
* **traffic** — per-phase message counts and byte volumes from the
  :class:`~repro.runtime.transport.TrafficLog`,
* **critpath** — the critical-path attribution of the modeled forward
  exchange (:mod:`repro.obs.critpath`): completion time, per-category
  seconds, and the top bottleneck,

plus the Table 1 / Table 3 / Fig. 13-headline model outputs, into a
versioned ``repro-bench/1`` JSON document.

``compare`` diffs two artifacts with per-metric-group tolerances and
exits nonzero on regressions: model times and critical-path completion
gate at 5 % (so an injected 10 % stage-time slowdown fails), traffic
shape at 2 % in either direction, the Fig. 13 speedups must not drop
more than 5 %.  Wall-clock stats are warn-only by default (they compare
across machines); ``--gate-wall`` turns them into gates for same-machine
comparisons.  See ``docs/benchmarking.md``.
"""

from __future__ import annotations

import argparse
import math
import platform
import statistics
import sys
import time
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.artifact import Cursor, read, write
from repro.md.stages import Stage
from repro.obs.critpath import require_partition

#: Versioned schema identifier checked by :func:`validate_bench_doc`.
SCHEMA = "repro-bench/1"

STAGES = tuple(stage.value for stage in Stage)

#: Per-metric-group relative tolerances for ``compare``.
DEFAULT_TOLERANCES = {
    "model_stage": 0.05,  # modeled stage seconds (deterministic)
    "model_total": 0.05,
    "critpath": 0.05,  # modeled exchange completion time
    "traffic_count": 0.02,  # message counts (match both directions)
    "traffic_bytes": 0.02,
    "table1": 1e-6,  # pure analytics
    "table3": 0.05,  # modeled Table 3 totals
    "fig13": 0.05,  # headline speedups must not drop
    "wall": 0.5,  # wall medians (warn-only unless --gate-wall)
    "imbalance": 0.10,  # per-rank max/mean + p99/p50 ratios (warn-only)
}


@dataclass(frozen=True)
class BenchConfig:
    """One declared benchmark configuration."""

    potential: str  # "lj" | "eam"
    pattern: str  # "3stage" | "p2p" | "parallel-p2p"
    grid: tuple[int, int, int]
    rdma: bool
    cells: tuple[int, int, int] = (4, 4, 4)
    steps: int = 10

    @property
    def key(self) -> str:
        """Stable identifier used to match runs across artifacts."""
        g = "x".join(str(n) for n in self.grid)
        return f"{self.potential}/{self.pattern}/{g}" + ("/rdma" if self.rdma else "")

    def to_dict(self) -> dict:
        """JSON-ready form of this configuration."""
        return {
            "potential": self.potential,
            "pattern": self.pattern,
            "grid": list(self.grid),
            "rdma": self.rdma,
            "cells": list(self.cells),
            "steps": self.steps,
        }


#: The declared suites.  ``smoke`` is the CI gate (seconds); ``full``
#: covers the whole potential x pattern x grid x rdma lattice;
#: ``faults-off`` reruns the smoke configs and additionally proves the
#: disabled fault-injection layer is free (:func:`fault_overhead_guard`);
#: ``comm-fastpath`` is the exchange-dominated set the plan-cache /
#: flat-buffer fast path must speed up (the live record of that speedup
#: is the perf ledger's ``lj-strong-27r``); ``telemetry-overhead`` reruns
#: those configs and proves the always-on telemetry plane costs <5% wall
#: with the fast path still active (:func:`telemetry_overhead_guard`);
#: ``ci`` is smoke + comm-fastpath in one artifact.
SUITES: dict[str, tuple[BenchConfig, ...]] = {
    "smoke": (
        BenchConfig("lj", "3stage", (2, 2, 2), rdma=False),
        BenchConfig("lj", "parallel-p2p", (2, 2, 2), rdma=True),
        BenchConfig("eam", "parallel-p2p", (2, 2, 2), rdma=True),
    ),
    "comm-fastpath": (
        BenchConfig("lj", "p2p", (3, 3, 3), rdma=False, cells=(6, 6, 6), steps=40),
        BenchConfig("lj", "parallel-p2p", (3, 3, 3), rdma=True, cells=(6, 6, 6), steps=40),
        BenchConfig("eam", "parallel-p2p", (3, 3, 3), rdma=True, cells=(5, 5, 5), steps=15),
    ),
    "faults-off": (
        BenchConfig("lj", "3stage", (2, 2, 2), rdma=False),
        BenchConfig("lj", "parallel-p2p", (2, 2, 2), rdma=True),
        BenchConfig("eam", "parallel-p2p", (2, 2, 2), rdma=True),
    ),
    "full": (
        BenchConfig("lj", "3stage", (2, 2, 2), rdma=False),
        BenchConfig("lj", "p2p", (2, 2, 2), rdma=False),
        BenchConfig("lj", "p2p", (2, 2, 2), rdma=True),
        BenchConfig("lj", "parallel-p2p", (2, 2, 2), rdma=True),
        BenchConfig("lj", "parallel-p2p", (1, 2, 2), rdma=True),
        BenchConfig("eam", "3stage", (2, 2, 2), rdma=False),
        BenchConfig("eam", "parallel-p2p", (2, 2, 2), rdma=True),
    ),
}
SUITES["ci"] = SUITES["smoke"] + SUITES["comm-fastpath"]
SUITES["telemetry-overhead"] = SUITES["comm-fastpath"]


def build_simulation(cfg: BenchConfig):
    """A fresh Simulation for one bench configuration."""
    from repro.md.presets import PRESETS

    preset = PRESETS[cfg.potential]
    return preset.simulation(
        cfg.cells,
        cfg.grid,
        pattern=cfg.pattern,
        rdma=cfg.rdma,
        model_machine_time=True,
        thermo_every=0,
    )


def _stats(samples: list[float]) -> dict:
    """pytest-benchmark-style summary of repeated wall measurements."""
    return {
        "min": min(samples),
        "max": max(samples),
        "mean": statistics.fmean(samples),
        "median": statistics.median(samples),
        "stddev": statistics.stdev(samples) if len(samples) > 1 else 0.0,
        "repeats": len(samples),
    }


def sample_wall(cfg: BenchConfig, repeats: int):
    """Build and run ``cfg`` ``repeats`` times; returns ``(sim, wall)``.

    ``wall`` is the per-stage and total wall statistics over the repeats
    (the ``wall`` record of a run or a scaling rung); ``sim`` is the
    final repeat's simulation, from which callers take what is
    deterministic (model breakdown, traffic, critical path).
    """
    stage_samples: dict[str, list[float]] = {s: [] for s in STAGES}
    total_samples: list[float] = []
    sim = None
    for _ in range(max(repeats, 1)):
        sim = build_simulation(cfg)
        sim.run(cfg.steps)
        for stage in Stage:
            stage_samples[stage.value].append(sim.timers.wall[stage])
        total_samples.append(sim.timers.total_wall())
    wall = {
        "stages": {s: _stats(v) for s, v in stage_samples.items()},
        "total": _stats(total_samples),
    }
    return sim, wall


def run_config(cfg: BenchConfig, repeats: int = 3) -> tuple[dict, object]:
    """Execute one configuration; returns (run record, critpath tracer).

    The wall breakdown is measured ``repeats`` times
    (:func:`sample_wall`); the model breakdown, traffic, and critical
    path are deterministic and taken from the final repeat.
    """
    from repro.core.modeling import modeled_exchange_time
    from repro.obs import observe
    from repro.obs.critpath import analyze_critical_path
    from repro.obs.trace import Tracer

    sim, wall = sample_wall(cfg, repeats)
    model = _model_stages(sim)
    traffic = {
        ph: {"count": count, "bytes": nbytes}
        for ph, (count, nbytes) in _traffic_shape(sim).items()
    }

    # Critical path of the modeled forward exchange (rank 0's schedule).
    with observe(metrics=False) as (tracer, _):
        modeled_exchange_time(sim.exchange, "forward", rank=0)
    cp = analyze_critical_path(tracer)
    snapshot = Tracer()
    snapshot.spans = list(tracer.spans)
    snapshot.instants = list(tracer.instants)

    # Per-rank profile of the same phase: the imbalance account `repro
    # diag` diffs (rank 0's row equals the critpath record above).
    from repro.obs.rankprof import bench_record, profile_exchange

    rankprof = bench_record(profile_exchange(sim.exchange, phases=("forward",)))

    record = {
        "key": cfg.key,
        "config": {**cfg.to_dict(), "atoms": sim.natoms},
        "wall": wall,
        "model": {"stages": model, "total": sum(model.values())},
        "traffic": traffic,
        "critpath": {
            "completion": cp.completion - cp.base,
            "messages": cp.messages,
            "wire_segments": cp.wire_segments,
            "attribution": dict(cp.attribution),
            "top": cp.top_bottleneck(),
        },
        "rankprof": rankprof,
    }
    stats = getattr(sim.exchange, "plan_stats", None)
    if stats is not None:
        # Allocation-count evidence for the flat-buffer fast path: CI's
        # alloc gate requires zero pool regrowth and a nonzero fast-path
        # phase count on the comm-fastpath configurations.
        record["alloc"] = stats()
    return record, (snapshot, cp)


def _model_stages(sim) -> dict:
    """Modeled (simulated-Fugaku) seconds per stage of one run."""
    return {s.value: t for s, t in sim.timers.model.items()}


def _traffic_shape(sim) -> dict:
    """Per-phase (count, bytes) of one run's traffic log."""
    log = sim.world.transport.log
    return {
        ph: (log.summary(ph).count, log.summary(ph).total_bytes)
        for ph in sorted({m.phase for m in log.messages})
    }


def overhead_guard(suite: str, arms, limit: float, repeats: int, fastpath: bool) -> dict:
    """Interleaved A/B proof that the ``on`` arm is (nearly) free.

    ``arms`` is the (off, on) pair of context-manager factories a fresh
    simulation is built and run under.  Every configuration of ``suite``
    runs once per arm per repeat — interleaved so machine drift hits
    both arms equally — and must show:

    * modeled stage seconds **exactly** equal, and the traffic shape
      (per-phase message counts and bytes) exactly equal;
    * with ``fastpath``: the exchange's direct plane active in both
      arms (``fastpath_phases > 0``);
    * the wall overhead under ``limit``.  Scheduler noise is bursty and
      one-sided (a burst only slows a sample), so the estimate is the
      minimum of the min-over-samples ratio and the best interleaved
      pair ratio — a lower bound that converges to the true overhead and
      never false-fails on noise; when it still reads over the limit,
      sampling escalates (up to 4x) before concluding.  The
      deterministic equality checks are the hard gate; the wall bound is
      the smoke alarm for gross overhead regressions.
    """
    entries = []
    for cfg in SUITES[suite]:
        walls: tuple[list[float], list[float]] = ([], [])
        shapes: list = [None, None]
        phases = [0, 0]

        def sample_pair() -> None:
            for i, arm in enumerate(arms):
                with arm():
                    sim = build_simulation(cfg)
                    sim.run(cfg.steps)
                walls[i].append(sim.timers.total_wall())
                shapes[i] = (_model_stages(sim), _traffic_shape(sim))
                phases[i] = sim.exchange.plan_stats()["fastpath_phases"]

        def overhead_now() -> float:
            # Scheduler noise only ever *slows* a sample, so both the
            # min-over-samples ratio and the best interleaved pair are
            # upper bounds contaminated from above; their minimum is the
            # tightest noise-immune estimate of the true overhead.
            off_wall, on_wall = walls
            if min(off_wall) <= 0:
                return 0.0
            global_ratio = min(on_wall) / min(off_wall)
            pair_ratio = min(on / off for on, off in zip(on_wall, off_wall))
            return min(global_ratio, pair_ratio) - 1.0

        for _ in range(max(repeats, 1)):
            sample_pair()
        # Real overhead survives more samples; scheduler noise does not.
        # Keep sampling (up to 4x) while the min-ratio looks over limit.
        while overhead_now() >= limit and len(walls[0]) < 4 * max(repeats, 1):
            sample_pair()
        overhead = overhead_now()
        (off_model, off_traffic), (on_model, on_traffic) = shapes
        entry = {
            "key": cfg.key,
            "model_equal": off_model == on_model,
            "traffic_equal": off_traffic == on_traffic,
            "wall_off_min": min(walls[0]),
            "wall_on_min": min(walls[1]),
            "overhead": overhead,
            "samples": len(walls[0]),
        }
        ok = entry["model_equal"] and entry["traffic_equal"] and overhead < limit
        if fastpath:
            entry["fastpath_off"], entry["fastpath_on"] = phases
            ok = ok and min(phases) > 0
        entry["ok"] = ok
        entries.append(entry)
    return {"limit": limit, "entries": entries, "ok": all(e["ok"] for e in entries)}


def _render_guard(title: str, guard: dict) -> str:
    lines = [title.format(limit=f"{100 * guard['limit']:g}")]
    for e in guard["entries"]:
        fastpath = (
            f"fastpath {e['fastpath_off']}/{e['fastpath_on']} phases (off/on), "
            if "fastpath_off" in e
            else ""
        )
        lines.append(
            f"  [{'OK' if e['ok'] else 'FAIL':>4}] {e['key']}: {fastpath}"
            f"model {'==' if e['model_equal'] else '!='}, "
            f"traffic {'==' if e['traffic_equal'] else '!='}, "
            f"wall {e['wall_off_min']:.4g}s -> {e['wall_on_min']:.4g}s "
            f"({100 * e['overhead']:+.2f}%)"
        )
    return "\n".join(lines)


#: Relative wall-clock overhead the *disabled* fault layer may add.
OVERHEAD_LIMIT = 0.02


def fault_overhead_guard(repeats: int = 5) -> dict:
    """Prove the fault-injection layer is free when it has nothing to do.

    :func:`overhead_guard` over the smoke suite: plain vs. inside an
    *empty* :class:`~repro.faults.plan.FaultPlan` session (layer active,
    zero faults scheduled) — an armed-but-idle session must add zero
    modeled time, envelope wrapping must not change what is sent, and
    the wall overhead stays under :data:`OVERHEAD_LIMIT`.
    """
    from repro.faults import FAULTS, FaultPlan

    plan = FaultPlan(seed=0, faults=())
    return overhead_guard(
        "smoke", (nullcontext, lambda: FAULTS.inject(plan)), OVERHEAD_LIMIT,
        repeats, fastpath=False,
    )


def render_fault_guard(guard: dict) -> str:
    """Text summary of one :func:`fault_overhead_guard` result."""
    return _render_guard(
        "fault-layer overhead guard (limit {limit}% wall, "
        "model/traffic must match exactly):",
        guard,
    )


#: Relative wall-clock overhead the *enabled* telemetry plane may add.
TELEMETRY_OVERHEAD_LIMIT = 0.05


def telemetry_overhead_guard(repeats: int = 5) -> dict:
    """Prove the always-on telemetry plane is nearly free on the hot path.

    :func:`overhead_guard` over the ``comm-fastpath`` configurations:
    inside :meth:`~repro.obs.telemetry.TelemetryControl.disabled` vs.
    telemetry on (the default).  Counters observe the run, they do not
    change it — and they must never push the exchange off its direct
    plane, so ``fastpath_phases > 0`` is required in **both** arms; the
    wall overhead stays under :data:`TELEMETRY_OVERHEAD_LIMIT`.
    """
    from repro.obs.telemetry import TELEMETRY

    return overhead_guard(
        "telemetry-overhead", (TELEMETRY.disabled, nullcontext),
        TELEMETRY_OVERHEAD_LIMIT, repeats, fastpath=True,
    )


def render_telemetry_guard(guard: dict) -> str:
    """Text summary of one :func:`telemetry_overhead_guard` result."""
    return _render_guard(
        "telemetry overhead guard (limit {limit}% wall, "
        "fast path active in both arms, model/traffic must match exactly):",
        guard,
    )


def model_tables() -> dict:
    """The Table 1 / Table 3 / Fig. 13-headline model outputs."""
    from repro.figures import fig13, table1

    t1 = table1.compute()
    last = fig13.compute(nodes_list=(36864,))
    table3 = [
        {
            "workload": r.workload,
            "variant": r.variant,
            "nodes": r.nodes,
            "stages": dict(r.stages),
            "total": r.total,
        }
        for r in (pts[-1].result for pts in last.curves.values())
    ]
    return {
        "table1": {
            "msgs_3stage": t1.three_stage.total_messages,
            "msgs_p2p": t1.p2p.total_messages,
            "volume_ratio": t1.volume_ratio,
            "bytes_3stage": t1.three_stage.total_bytes,
            "bytes_p2p": t1.p2p.total_bytes,
        },
        "table3": table3,
        "fig13": {
            "lj_speedup_36864": last.speedup_last("lj"),
            "eam_speedup_36864": last.speedup_last("eam"),
        },
    }


def run_configs(
    configs: Sequence[BenchConfig],
    suite: str,
    repeats: int = 3,
    label: str = "local",
    trace_dir: str | None = None,
) -> dict:
    """Run an explicit config list; returns the ``repro-bench/1`` doc.

    This is the suite-agnostic core ``run_suite`` and ``bench fleet``
    share: the ``suite`` string only labels the artifact (fleet runs use
    ``"fleet:<spec-name>"``), the gating machinery (``compare``,
    per-group tolerances) works on the document either way.
    """
    runs = []
    for cfg in configs:
        record, (tracer, cp) = run_config(cfg, repeats)
        runs.append(record)
        if trace_dir is not None:
            from repro.obs.critpath import critpath_counter_events
            from repro.obs.export import write_chrome_trace

            name = record["key"].replace("/", "-")
            write_chrome_trace(
                f"{trace_dir}/trace_{name}.json",
                tracer,
                extra_events=critpath_counter_events(cp),
            )
    from repro.obs.metrics import METRICS
    from repro.obs.telemetry import TELEMETRY
    from repro.obs.trace import TRACER

    doc = {
        "schema": SCHEMA,
        "label": label,
        "suite": suite,
        "meta": {
            "generator": "repro.obs.bench",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "repeats": repeats,
            "unix_time": time.time(),
            # Wall numbers measured under different observability regimes
            # are not comparable; ``compare`` refuses mismatched artifacts.
            "observability": {
                "tracer": TRACER.enabled,
                "metrics": METRICS.enabled,
                "telemetry": TELEMETRY.enabled,
                "fastpath_phases": sum(
                    r.get("alloc", {}).get("fastpath_phases", 0) for r in runs
                ),
            },
        },
        "runs": runs,
        "model_tables": model_tables(),
    }
    if suite == "faults-off":
        doc["fault_guard"] = fault_overhead_guard(repeats)
    if suite == "telemetry-overhead":
        doc["telemetry_guard"] = telemetry_overhead_guard(repeats)
    validate_bench_doc(doc)
    return doc


def run_suite(
    suite: str = "smoke",
    repeats: int = 3,
    label: str = "local",
    trace_dir: str | None = None,
) -> dict:
    """Run a declared suite; returns the ``repro-bench/1`` document."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return run_configs(SUITES[suite], suite, repeats, label, trace_dir)


def fleet_configs(spec_path: str) -> tuple[str, list[BenchConfig]]:
    """(spec name, BenchConfigs) of a spec's ``bench``-role scenarios.

    Imported lazily so the scenarios package never cycles with bench.
    """
    from repro.scenarios.spec import expand_spec, load_json

    spec = load_json(spec_path)
    scenarios = [s for s in expand_spec(spec) if s["role"] == "bench"]
    if not scenarios:
        raise ValueError(f"{spec_path}: spec has no bench-role scenarios")
    configs = [
        BenchConfig(
            potential=s["params"]["potential"],
            pattern=s["params"]["pattern"],
            grid=tuple(s["params"]["grid"]),
            rdma=bool(s["params"]["rdma"]),
            cells=tuple(s["params"]["cells"]),
            steps=int(s["params"]["steps"]),
        )
        for s in scenarios
    ]
    return spec["name"], configs


# -- schema ---------------------------------------------------------------
def validate_bench_doc(doc: dict) -> int:
    """Validate a ``repro-bench/1`` document; returns the run count.

    Raises ``ValueError("bench document invalid at <path>: <why>")``
    naming the first offending path (the :mod:`repro.artifact` contract).
    """
    c = Cursor(doc, "bench document")
    c.schema(SCHEMA)
    c.text("label")
    meta = c.obj("meta")
    runs = c.arr("runs", nonempty=True)
    seen = set()
    for run in runs.each():
        key = run.text("key", nonempty=True)
        run.require(key not in seen, f"duplicate key {key!r}", "key")
        seen.add(key)
        run.obj("config")
        wall = run.obj("wall")
        wall.obj("total")
        stages = wall.obj("stages")
        for s in STAGES:
            stats = stages.obj(s)
            for k in ("min", "max", "mean", "median", "stddev", "repeats"):
                stats.number(k, lo=0)
        model = run.obj("model").obj("stages")
        for s in STAGES:
            model.number(s, lo=0)
        for phase in run.obj("traffic", nonempty=True).each():
            phase.integer("count")
            phase.integer("bytes")
        cp = run.obj("critpath")
        require_partition(cp, cp.number("completion", lo=0))
        # Per-rank profile: optional (pre-observatory artifacts lack it),
        # but when present each rank's attribution must partition its
        # completion — the same invariant the critpath record obeys.
        if run.get("rankprof") is not None:
            rankprof = run.obj("rankprof")
            for row in rankprof.arr("ranks", nonempty=True).each():
                row.integer("rank")
                require_partition(row, row.number("completion", lo=0))
            imbalance = rankprof.obj("imbalance")
            imbalance.number("max_mean")
            imbalance.number("p99_p50")
    tables = c.obj("model_tables")
    tables.obj("table1")
    tables.arr("table3")
    tables.obj("fig13")
    for guard_key in ("fault_guard", "telemetry_guard"):
        if c.get(guard_key) is not None:
            guard = c.obj(guard_key)
            guard.flag("ok")
            guard.arr("entries", nonempty=True)
    if meta.get("observability") is not None:
        observability = meta.obj("observability")
        for k in ("tracer", "metrics", "telemetry"):
            observability.flag(k)
    return len(runs.value)


# -- compare --------------------------------------------------------------
@dataclass(frozen=True)
class CompareEntry:
    """One compared metric."""

    path: str
    old: float
    new: float
    group: str
    mode: str  # "lower_better" | "higher_better" | "match" | "info"
    tol: float
    status: str  # "ok" | "improved" | "warn" | "regressed"

    @property
    def rel(self) -> float:
        if self.old == 0:
            return 0.0 if self.new == 0 else math.inf
        return (self.new - self.old) / self.old


@dataclass
class CompareReport:
    """Outcome of diffing two bench artifacts."""

    old_label: str
    new_label: str
    entries: list[CompareEntry] = field(default_factory=list)

    @property
    def regressions(self) -> list[CompareEntry]:
        return [e for e in self.entries if e.status == "regressed"]

    @property
    def warnings(self) -> list[CompareEntry]:
        return [e for e in self.entries if e.status == "warn"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self, verbose: bool = False) -> str:
        """Text summary: deltas worst-first, per-group summary, verdict.

        Deviating metrics print sorted by severity (regressed before
        warn before improved, larger relative delta first); warn-only
        groups — ``mode="info"`` entries that can never gate — are
        annotated so a red-looking line is readable as non-blocking.
        ``verbose`` appends the in-tolerance metrics too.
        """
        lines = [
            f"bench compare: {self.old_label} -> {self.new_label} "
            f"({len(self.entries)} metrics)"
        ]
        severity = {"regressed": 0, "warn": 1, "improved": 2, "ok": 3}

        def sort_key(e: CompareEntry):
            rel = abs(e.rel) if math.isfinite(e.rel) else math.inf
            return (severity[e.status], -rel, e.path)

        shown = [e for e in self.entries if e.status != "ok"]
        if verbose:
            shown = list(self.entries)
        for e in sorted(shown, key=sort_key):
            rel = "inf" if math.isinf(e.rel) else f"{100 * e.rel:+.1f}%"
            note = " (warn-only)" if e.mode == "info" else ""
            lines.append(
                f"  [{e.status.upper():>9}] {e.path}: {e.old:.6g} -> {e.new:.6g} "
                f"({rel}, tol {100 * e.tol:g}% [{e.group}]){note}"
            )
        # Per-group roll-up, worst group first.
        groups: dict[str, list[CompareEntry]] = {}
        for e in self.entries:
            groups.setdefault(e.group, []).append(e)

        def group_key(item):
            name, entries = item
            worst = min(severity[e.status] for e in entries)
            size = max(
                (abs(e.rel) for e in entries if e.status != "ok"
                 and math.isfinite(e.rel)),
                default=0.0,
            )
            inf_dev = any(
                e.status != "ok" and math.isinf(e.rel) for e in entries
            )
            return (worst, not inf_dev, -size, name)

        lines.append("per-group (worst first):")
        for name, entries in sorted(groups.items(), key=group_key):
            n_reg = sum(1 for e in entries if e.status == "regressed")
            n_warn = sum(1 for e in entries if e.status == "warn")
            n_imp = sum(1 for e in entries if e.status == "improved")
            gated = any(e.mode != "info" for e in entries)
            tag = "gated" if gated else "warn-only"
            lines.append(
                f"  {name:<14} [{tag}]: {len(entries)} metric(s), "
                f"{n_reg} regressed, {n_warn} warned, {n_imp} improved"
            )
        if self.regressions:
            verdict = (
                f"verdict: FAIL — {len(self.regressions)} regression(s) in "
                f"gated groups "
                f"({', '.join(sorted({e.group for e in self.regressions}))})"
            )
        else:
            tail = (
                f" ({len(self.warnings)} warn-only deviation(s))"
                if self.warnings else ""
            )
            verdict = f"verdict: OK — no regressions beyond tolerance{tail}"
        lines.append(verdict)
        return "\n".join(lines)


def _classify(old: float, new: float, mode: str, tol: float) -> str:
    if old == new:
        return "ok"
    rel = (new - old) / old if old != 0 else math.inf
    if mode == "match":
        return "regressed" if abs(rel) > tol else "ok"
    if mode == "info":
        return "warn" if abs(rel) > tol else "ok"
    if mode == "higher_better":
        rel = -rel
    # now: positive rel = slower/worse
    if rel > tol:
        return "regressed"
    if rel < -tol:
        return "improved"
    return "ok"


def compare(
    old: dict,
    new: dict,
    tolerances: dict | None = None,
    gate_wall: bool = False,
) -> CompareReport:
    """Diff two artifacts; regressions beyond tolerance fail the gate.

    Refuses (``ValueError``) when both artifacts declare their
    observability regime and the regimes differ — wall numbers measured
    with telemetry/tracing on are not comparable against a baseline
    measured with them off.  Artifacts predating the observability
    metadata compare as before.
    """
    validate_bench_doc(old)
    validate_bench_doc(new)
    old_obs = old.get("meta", {}).get("observability")
    new_obs = new.get("meta", {}).get("observability")
    if old_obs is not None and new_obs is not None:
        flags = ("tracer", "metrics", "telemetry")
        mismatch = [k for k in flags if old_obs.get(k) != new_obs.get(k)]
        if mismatch:
            detail = ", ".join(
                f"{k}: {old_obs.get(k)} vs {new_obs.get(k)}" for k in mismatch
            )
            raise ValueError(
                f"refusing to compare artifacts with different observability "
                f"regimes ({detail}); re-run the baseline under the same flags"
            )
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    report = CompareReport(old.get("label", "?"), new.get("label", "?"))

    def add(path, o, n, group, mode):
        t = tol[group]
        report.entries.append(
            CompareEntry(path, float(o), float(n), group, mode,
                         t, _classify(float(o), float(n), mode, t))
        )

    new_runs = {r["key"]: r for r in new["runs"]}
    for run in old["runs"]:
        key = run["key"]
        other = new_runs.get(key)
        if other is None:
            report.entries.append(
                CompareEntry(f"runs[{key}]", 1.0, 0.0, "coverage", "match", 0.0, "regressed")
            )
            continue
        for s in STAGES:
            o = run["model"]["stages"][s]
            if o > 0 or other["model"]["stages"][s] > 0:
                add(f"runs[{key}].model.{s}", o, other["model"]["stages"][s],
                    "model_stage", "lower_better")
        add(f"runs[{key}].model.total", run["model"]["total"], other["model"]["total"],
            "model_total", "lower_better")
        for ph in run["traffic"]:
            if ph not in other["traffic"]:
                report.entries.append(
                    CompareEntry(f"runs[{key}].traffic.{ph}", 1.0, 0.0,
                                 "traffic_count", "match", 0.0, "regressed")
                )
                continue
            add(f"runs[{key}].traffic.{ph}.count", run["traffic"][ph]["count"],
                other["traffic"][ph]["count"], "traffic_count", "match")
            add(f"runs[{key}].traffic.{ph}.bytes", run["traffic"][ph]["bytes"],
                other["traffic"][ph]["bytes"], "traffic_bytes", "match")
        add(f"runs[{key}].critpath.completion", run["critpath"]["completion"],
            other["critpath"]["completion"], "critpath", "lower_better")
        for cat, secs in run["critpath"]["attribution"].items():
            add(f"runs[{key}].critpath.{cat}", secs,
                other["critpath"]["attribution"].get(cat, 0.0), "critpath", "info")
        wall_mode = "lower_better" if gate_wall else "info"
        add(f"runs[{key}].wall.total.median", run["wall"]["total"]["median"],
            other["wall"]["total"]["median"], "wall", wall_mode)
        # Per-rank imbalance (warn-only): only when both sides carry the
        # profile, so pre-observatory baselines keep comparing cleanly.
        o_imb = run.get("rankprof", {}).get("imbalance")
        n_imb = other.get("rankprof", {}).get("imbalance")
        if o_imb and n_imb:
            for ratio in ("max_mean", "p99_p50"):
                add(f"runs[{key}].imbalance.{ratio}", o_imb[ratio],
                    n_imb[ratio], "imbalance", "info")

    t1o, t1n = old["model_tables"]["table1"], new["model_tables"]["table1"]
    for k in ("msgs_3stage", "msgs_p2p", "volume_ratio", "bytes_3stage", "bytes_p2p"):
        add(f"table1.{k}", t1o[k], t1n[k], "table1", "match")
    t3n = {(e["workload"], e["variant"]): e for e in new["model_tables"]["table3"]}
    for e in old["model_tables"]["table3"]:
        other = t3n.get((e["workload"], e["variant"]))
        if other is not None:
            add(f"table3[{e['workload']}/{e['variant']}].total", e["total"],
                other["total"], "table3", "lower_better")
    f13o, f13n = old["model_tables"]["fig13"], new["model_tables"]["fig13"]
    for k in ("lj_speedup_36864", "eam_speedup_36864"):
        add(f"fig13.{k}", f13o[k], f13n[k], "fig13", "higher_better")
    return report


# -- report ---------------------------------------------------------------
def render_report(doc: dict) -> str:
    """Human-readable rendering of one bench artifact."""
    validate_bench_doc(doc)
    lines = [
        f"bench artifact {doc['label']!r} (suite {doc.get('suite', '?')}, "
        f"{len(doc['runs'])} configs, schema {doc['schema']})",
    ]
    for run in doc["runs"]:
        cp = run["critpath"]
        w = run["wall"]["total"]
        lines.append("")
        lines.append(f"== {run['key']} ({run['config']['atoms']} atoms, "
                     f"{run['config']['steps']} steps) ==")
        lines.append(
            f"  wall total: median {w['median']:.4g}s "
            f"(min {w['min']:.4g}, stddev {w['stddev']:.2g}, n={w['repeats']})"
        )
        lines.append(f"  model Comm: {run['model']['stages']['Comm']:.4g}s")
        traffic = ", ".join(
            f"{ph}={t['count']}msg/{t['bytes']}B" for ph, t in sorted(run["traffic"].items())
        )
        lines.append(f"  traffic: {traffic}")
        ranked = sorted(cp["attribution"].items(), key=lambda kv: -kv[1])
        attr = ", ".join(
            f"{cat} {100 * secs / cp['completion']:.0f}%" for cat, secs in ranked
        )
        lines.append(
            f"  critical path ({cp['completion'] * 1e6:.2f}us over "
            f"{cp['messages']} msgs): {attr} -> bottleneck: {cp['top']}"
        )
    t1 = doc["model_tables"]["table1"]
    f13 = doc["model_tables"]["fig13"]
    lines.append("")
    lines.append(
        f"model tables: Table1 {t1['msgs_p2p']} vs {t1['msgs_3stage']} msgs "
        f"(volume ratio {t1['volume_ratio']:.3f}); Fig13 speedups "
        f"LJ {f13['lj_speedup_36864']:.2f}x / EAM {f13['eam_speedup_36864']:.2f}x"
    )
    return "\n".join(lines)


def write_report_csv(path: str, doc: dict) -> None:
    """CSV: one row per (config, stage) with wall stats + model seconds."""
    import csv

    validate_bench_doc(doc)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["key", "stage", "wall_min", "wall_median", "wall_mean",
             "wall_stddev", "model_seconds"]
        )
        for run in doc["runs"]:
            for s in STAGES:
                st = run["wall"]["stages"][s]
                writer.writerow(
                    [run["key"], s, repr(st["min"]), repr(st["median"]),
                     repr(st["mean"]), repr(st["stddev"]),
                     repr(run["model"]["stages"][s])]
                )


# -- CLI ------------------------------------------------------------------
def _label(args) -> str:
    """The artifact label: ``--label``, else the stem of ``--out``."""
    if args.label is not None:
        return args.label
    stem = args.out.rsplit("/", 1)[-1]
    return stem[:-5] if stem.endswith(".json") else stem


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``run|compare|report`` subcommands."""
    p = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Continuous benchmark harness with regression gating.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a suite and write a BENCH json artifact")
    run.add_argument("--out", required=True, help="output artifact path (BENCH_PR<k>.json)")
    run.add_argument("--suite", choices=sorted(SUITES), default="smoke")
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument("--label", default=None, help="artifact label (default: out stem)")
    run.add_argument(
        "--trace-dir", default=None,
        help="also write one Perfetto trace (with critical-path counter "
        "tracks) per configuration into this directory",
    )

    flt = sub.add_parser(
        "fleet",
        help="run the bench-role scenarios of a scenario spec "
        "(repro-scenario-spec/1); gate the artifact with `compare`",
    )
    flt.add_argument("spec", help="path to a repro-scenario-spec/1 JSON file")
    flt.add_argument("--out", required=True, help="output artifact path")
    flt.add_argument("--repeats", type=int, default=3)
    flt.add_argument("--label", default=None, help="artifact label (default: out stem)")
    flt.add_argument("--trace-dir", default=None,
                     help="write one Perfetto trace per configuration")

    cmp_ = sub.add_parser("compare", help="diff two artifacts; exit 1 on regression")
    cmp_.add_argument("baseline")
    cmp_.add_argument("candidate")
    cmp_.add_argument("--warn-only", action="store_true",
                      help="report regressions but exit 0 (first-PR mode)")
    cmp_.add_argument("--gate-wall", action="store_true",
                      help="gate wall medians too (same-machine comparisons)")
    cmp_.add_argument("--verbose", action="store_true", help="print every metric")
    cmp_.add_argument(
        "--tol", action="append", default=[], metavar="GROUP=REL",
        help=f"override a tolerance group, e.g. --tol model_stage=0.1 "
        f"(groups: {', '.join(sorted(DEFAULT_TOLERANCES))})",
    )

    rep = sub.add_parser("report", help="render one artifact as text (and CSV)")
    rep.add_argument("artifact")
    rep.add_argument("--csv", default=None, help="also write a per-stage CSV")

    scl = sub.add_parser(
        "scaling",
        help="run one config across a rank-grid ladder and write a "
        "repro-scaling/1 artifact (see repro.obs.scaling)",
    )
    scl.add_argument("--out", required=True, help="output artifact path")
    scl.add_argument("--potential", choices=("lj", "eam"), default="lj")
    scl.add_argument(
        "--pattern", choices=("3stage", "p2p", "parallel-p2p"),
        default="parallel-p2p",
    )
    scl.add_argument("--rdma", action="store_true")
    scl.add_argument("--cells", type=int, nargs=3, default=(4, 4, 4),
                     metavar=("CX", "CY", "CZ"))
    scl.add_argument("--steps", type=int, default=10)
    scl.add_argument("--repeats", type=int, default=2)
    scl.add_argument(
        "--ladder", default="1x2x2,2x2x2",
        help="comma-separated rank grids, ordered by rank count "
        "(default 1x2x2,2x2x2)",
    )
    scl.add_argument("--label", default=None, help="artifact label (default: out stem)")
    return p


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code (1 = regression)."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        doc = run_suite(args.suite, args.repeats, _label(args), args.trace_dir)
        write(args.out, doc)
        print(f"# bench: {len(doc['runs'])} configs -> {args.out} (schema {SCHEMA})")
        print(render_report(doc))
        guard = doc.get("fault_guard")
        if guard is not None:
            print()
            print(render_fault_guard(guard))
            if not guard["ok"]:
                print("FAIL: disabled fault layer is not free")
                return 1
        guard = doc.get("telemetry_guard")
        if guard is not None:
            print()
            print(render_telemetry_guard(guard))
            if not guard["ok"]:
                print("FAIL: telemetry plane is not cheap enough")
                return 1
        return 0
    if args.command == "fleet":
        try:
            spec_name, configs = fleet_configs(args.spec)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
        doc = run_configs(
            configs, f"fleet:{spec_name}", args.repeats, _label(args), args.trace_dir
        )
        write(args.out, doc)
        print(f"# bench fleet: {len(doc['runs'])} configs from {spec_name} "
              f"-> {args.out} (schema {SCHEMA})")
        print(render_report(doc))
        return 0
    if args.command == "compare":
        overrides = {}
        for spec in args.tol:
            group, _, value = spec.partition("=")
            if group not in DEFAULT_TOLERANCES or not value:
                print(f"error: bad --tol {spec!r}")
                return 2
            overrides[group] = float(value)
        try:
            report = compare(
                read(args.baseline), read(args.candidate),
                tolerances=overrides, gate_wall=args.gate_wall,
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
        print(report.render(verbose=args.verbose))
        if not report.ok:
            if args.warn_only:
                print("WARN: regressions found (ignored: --warn-only)")
                return 0
            print("FAIL: perf regression beyond tolerance")
            return 1
        print("OK: no regressions beyond tolerance")
        return 0
    if args.command == "report":
        doc = read(args.artifact)
        print(render_report(doc))
        if args.csv:
            write_report_csv(args.csv, doc)
            print(f"# csv -> {args.csv}")
        return 0
    if args.command == "scaling":
        from repro.obs.scaling import (
            ScalingSpec,
            capture_scaling,
            parse_ladder,
            render_scaling,
            validate_scaling_doc,
        )

        try:
            ladder = parse_ladder(args.ladder)
            spec = ScalingSpec(args.potential, args.pattern, args.rdma,
                               tuple(args.cells), args.steps)
            doc = capture_scaling(spec, ladder, args.repeats, _label(args))
            validate_scaling_doc(doc)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        write(args.out, doc)
        print(f"# scaling: {len(doc['points'])} rungs -> {args.out} "
              f"(schema {doc['schema']})")
        print(render_scaling(doc))
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
