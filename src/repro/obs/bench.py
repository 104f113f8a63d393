"""The two wall-clock overhead guards and the paper's model tables.

Every performance claim is measured by the perf ledger
(``benchmarks/ledger/``, see ``docs/benchmarking.md``).  This module
keeps the two checks the ledger does not make, plus the model outputs
the ledger's ``paper-model`` workload prices:

* :func:`fault_overhead_guard` — an armed-but-idle fault session adds no
  modeled time, no traffic and under :data:`OVERHEAD_LIMIT` wall;
* :func:`telemetry_overhead_guard` — the always-on telemetry plane adds
  no modeled time, no traffic, keeps the exchange on its direct plane
  and costs under :data:`TELEMETRY_OVERHEAD_LIMIT` wall;
* :func:`model_tables` — the Table 1 / Table 3 / Fig. 13-headline
  outputs.

One CLI runs a guard (five repeats per arm), prints it and exits 1 when
it fails::

    python -m repro.obs.bench faults-off
    python -m repro.obs.bench telemetry
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import dataclass


@dataclass(frozen=True)
class BenchConfig:
    """One configuration a guard runs in both arms."""

    potential: str  # "lj" | "eam"
    pattern: str  # "3stage" | "p2p" | "parallel-p2p"
    grid: tuple[int, int, int]
    rdma: bool
    cells: tuple[int, int, int] = (4, 4, 4)
    steps: int = 10

    @property
    def key(self) -> str:
        """Stable identifier the guard reports each entry under."""
        g = "x".join(str(n) for n in self.grid)
        return f"{self.potential}/{self.pattern}/{g}" + ("/rdma" if self.rdma else "")


#: What the faults-off guard prices: one config per pattern family on
#: eight ranks, a few seconds in all.
SMOKE = (
    BenchConfig("lj", "3stage", (2, 2, 2), rdma=False),
    BenchConfig("lj", "parallel-p2p", (2, 2, 2), rdma=True),
    BenchConfig("eam", "parallel-p2p", (2, 2, 2), rdma=True),
)

#: What the telemetry guard prices: exchange-dominated 27-rank runs,
#: where the direct plane's per-step savings are largest.
COMM_FASTPATH = (
    BenchConfig("lj", "p2p", (3, 3, 3), rdma=False, cells=(6, 6, 6), steps=40),
    BenchConfig("lj", "parallel-p2p", (3, 3, 3), rdma=True, cells=(6, 6, 6), steps=40),
    BenchConfig("eam", "parallel-p2p", (3, 3, 3), rdma=True, cells=(5, 5, 5), steps=15),
)


def build_simulation(cfg: BenchConfig):
    """A fresh Simulation for one guard configuration."""
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


def overhead_guard(configs, arms, limit: float, repeats: int, fastpath: bool) -> dict:
    """Interleaved A/B proof that the ``on`` arm is (nearly) free.

    ``arms`` is the (off, on) pair of context-manager factories a fresh
    simulation is built and run under.  Every configuration runs once per
    arm per repeat — interleaved so machine drift hits both arms
    equally — and must show:

    * modeled stage seconds **exactly** equal, and the traffic shape
      (per-phase message counts and bytes) exactly equal;
    * with ``fastpath``: the exchange's direct plane active in both
      arms (``fastpath_phases > 0``);
    * the wall overhead under ``limit``.  Scheduler noise is bursty and
      one-sided (a burst only slows a sample), so the estimate is the
      minimum of the min-over-samples ratio and the best interleaved
      pair ratio.  Noise in an ``off`` sample drags that pair's ratio
      low, so the estimate reads below the true overhead and is biased
      towards passing.  When it still reads over the limit, sampling
      escalates (up to 4x) before concluding.  The deterministic
      equality checks are the hard gate; the wall bound is the smoke
      alarm for gross overhead regressions.
    """
    entries = []
    for cfg in configs:
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

    :func:`overhead_guard` over :data:`SMOKE`: plain vs. inside an
    *empty* :class:`~repro.faults.plan.FaultPlan` session (layer active,
    zero faults scheduled) — an armed-but-idle session must add zero
    modeled time, envelope wrapping must not change what is sent, and
    the wall overhead stays under :data:`OVERHEAD_LIMIT`.
    """
    from repro.faults import FAULTS, FaultPlan

    plan = FaultPlan(seed=0, faults=())
    return overhead_guard(
        SMOKE, (nullcontext, lambda: FAULTS.inject(plan)), OVERHEAD_LIMIT,
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

    :func:`overhead_guard` over :data:`COMM_FASTPATH`: inside
    :meth:`~repro.obs.telemetry.TelemetryControl.disabled` vs. telemetry
    on (the default).  Counters observe the run, they do not change it —
    and they must never push the exchange off its direct plane, so
    ``fastpath_phases > 0`` is required in **both** arms; the wall
    overhead stays under :data:`TELEMETRY_OVERHEAD_LIMIT`.
    """
    from repro.obs.telemetry import TELEMETRY

    return overhead_guard(
        COMM_FASTPATH, (TELEMETRY.disabled, nullcontext),
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


#: guard name -> (guard, renderer, failure line)
GUARDS = {
    "faults-off": (
        fault_overhead_guard, render_fault_guard, "FAIL: disabled fault layer is not free"
    ),
    "telemetry": (
        telemetry_overhead_guard, render_telemetry_guard,
        "FAIL: telemetry plane is not cheap enough",
    ),
}


def main(argv=None) -> int:
    """Run one overhead guard; returns 0 when it holds, 1 when it fails
    (argparse exits 2 on an unknown guard name)."""
    p = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Wall-clock overhead guards of the fault layer and telemetry plane.",
    )
    p.add_argument("guard", choices=sorted(GUARDS))
    args = p.parse_args(argv)
    guard, render, failure = GUARDS[args.guard]
    result = guard()
    print(render(result))
    if not result["ok"]:
        print(failure)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
