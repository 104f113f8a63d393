"""The five MD workloads: fresh repeats of a fixed step count, timed per step.

Inputs are built here from ``seed + repeat``; the engine only ever sees
``x, v, box``.  One run keeps starting fresh repeats until ``seconds``
of set-up + stepping have been measured, so a faster engine measures
more repeats, never a shorter time.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ledger_core import RunResult, SpanRecorder, exact, peak_rss_mb, quiet_gc, summary
from repro.md.presets import PRESETS
from repro.md.simulation import Simulation
from repro.md.stages import Stage
from repro.obs import observe
from repro.obs.trace import TRACER

#: steps of the discarded warm-up simulation (lazy imports, first calls)
WARMUP_STEPS = 5
#: step at which the multi-rank energy is compared with a single-rank run
REFERENCE_STEPS = 20
MIN_REPEATS = 2


@dataclass(frozen=True)
class MDSpec:
    potential: str
    cells: tuple[int, int, int]
    grid: tuple[int, int, int]
    pattern: str
    rdma: bool
    steps: int
    temperature: float | None = None  # None: the preset's Table 2 value
    observed: bool = False  # run inside repro.obs.observe() (tracer + metrics)
    drift_tol: float = 1e-2


MD_WORKLOADS: dict[str, MDSpec] = {
    "lj-strong-27r": MDSpec("lj", (6, 6, 6), (3, 3, 3), "parallel-p2p", True, 200),
    "lj-bulk-8r": MDSpec("lj", (10, 10, 10), (2, 2, 2), "p2p", False, 80),
    "eam-hot-27r": MDSpec(
        "eam", (6, 6, 6), (3, 3, 3), "parallel-p2p", True, 200,
        temperature=1.0, drift_tol=1e-4,
    ),
    "lj-3stage-27r": MDSpec("lj", (6, 6, 6), (3, 3, 3), "3stage", False, 150),
    "lj-traced-27r": MDSpec(
        "lj", (6, 6, 6), (3, 3, 3), "parallel-p2p", True, 60, observed=True
    ),
}

#: span name for every instance attribute the traced pass shadows
EXCHANGE_SPANS = {
    "exchange": "core.migrate",
    "borders": "core.borders",
    "forward": "core.forward",
    "reverse": "core.reverse",
    "forward_scalar_world": "core.pair_forward",
    "reverse_sum_scalar_world": "core.pair_reverse",
}
TRANSPORT_METHODS = ("send", "recv", "send_fast", "recv_fast")


def make_simulation(spec: MDSpec, seed: int, grid=None) -> Simulation:
    """A fresh Simulation of ``spec`` on inputs generated from ``seed``."""
    preset = PRESETS[spec.potential]
    x, v, box = preset.build_system(spec.cells, spec.temperature, seed=seed)
    if grid is None:
        cfg = preset.config(
            spec.pattern, spec.rdma, model_machine_time=True, thermo_every=0
        )
        grid = spec.grid
    else:  # the plain single-rank baseline
        cfg = preset.config("p2p", False, thermo_every=0)
    return Simulation(x, v, box, preset.potential(), cfg, grid=grid)


def instrument(sim: Simulation, rec: SpanRecorder) -> None:
    """Shadow the layer entry points of ``sim`` with span-recording
    instance attributes (see README: 'Traced run')."""
    for attr, name in EXCHANGE_SPANS.items():
        rec.wrap(sim.exchange, attr, name)
    for rank in range(sim.world.size):
        neigh = sim.neigh_of(rank)
        rec.wrap(neigh, "build", "md.neigh.build")
        rec.wrap(neigh, "needs_rebuild", "md.neigh.check")
    pot = sim.potential
    passes = (
        ("density_pass", "embedding_pass", "force_pass")
        if hasattr(pot, "density_pass")
        else ("compute",)
    )
    for attr in passes:
        rec.wrap(pot, attr, "md.pair.kernel")
    rec.wrap(sim.integrator, "initial_integrate", "md.integrate")
    rec.wrap(sim.integrator, "final_integrate", "md.integrate")
    if sim.telemetry is not None:
        rec.wrap(sim.telemetry, "flush_step", "obs.telemetry.flush")
    for attr in TRANSPORT_METHODS:
        rec.wrap(sim.world.transport, attr, "runtime.transport")
    rec.wrap(sim, "sample_thermo", "md.thermo.sample")


def total_pairs(sim: Simulation) -> int:
    return sum(sim.neigh_of(r).n_pairs for r in range(sim.world.size))


class Repeat:
    """Measurements of one fresh simulation."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.step_ns: list[int] = []  # ordinary steps
        self.rebuild_ns: list[int] = []  # steps on which sim.rebuilds advanced
        self.stage_s = {s: 0.0 for s in Stage}
        self.pairs_evaluated = 0
        self.pairs_built = 0
        self.energy_at_reference: float | None = None
        self.rec: SpanRecorder | None = None
        # read off the simulation when the stepping loop ends
        self.plan_stats: dict[str, int] = {}
        self.ghosts_per_rank = 0.0
        self.model_comm_s = 0.0
        # deltas over the stepping loop (set-up excluded)
        self.records = 0  # TRACER spans + instants
        self.msgs = 0
        self.bytes = 0

    @property
    def steps(self) -> int:
        return len(self.step_ns) + len(self.rebuild_ns)

    @property
    def loop_s(self) -> float:
        return (sum(self.step_ns) + sum(self.rebuild_ns)) / 1e9


def run_repeat(
    spec: MDSpec, seed: int, res: RunResult, trace: bool, step_base: int
) -> Repeat:
    """Construct, set up and step one simulation; count ops and checks."""
    rep = Repeat()
    with quiet_gc(), observe() if spec.observed else nullcontext():
        t0 = time.perf_counter()
        sim = make_simulation(spec, seed)
        sim.setup()
        rep.setup_s = time.perf_counter() - t0

        rec = rep.rec = SpanRecorder() if trace else None
        if rec is not None:
            instrument(sim, rec)
        log = sim.world.transport.log
        stage0 = dict(sim.timers.wall)
        records0 = len(TRACER.spans) + len(TRACER.instants)
        msgs0, bytes0 = log.count(), log.total_bytes()
        e0 = sim.sample_thermo().total_energy
        pairs_now = total_pairs(sim)

        for i in range(spec.steps):
            rebuilds0 = sim.rebuilds
            try:
                if rec is None:
                    t = time.perf_counter_ns()
                    sim.step()
                    dt = time.perf_counter_ns() - t
                else:
                    rec.step_id = step_base + i
                    root = rec.begin("step")
                    sim.step()
                    rec.finish(root)
                    dt = rec.ends[root] - rec.starts[root]
            except Exception as exc:  # an MD step that raises is a failed op
                res.op(False, f"step {i + 1} raised {exc!r}")
                break
            res.op(True)
            if sim.rebuilds > rebuilds0:
                rep.rebuild_ns.append(dt)
                pairs_now = total_pairs(sim)
                rep.pairs_built += pairs_now
            else:
                rep.step_ns.append(dt)
            rep.pairs_evaluated += pairs_now
            if i + 1 == REFERENCE_STEPS:
                rep.energy_at_reference = sim.sample_thermo().total_energy

        for stage in Stage:
            rep.stage_s[stage] = sim.timers.wall[stage] - stage0[stage]
        rep.records = len(TRACER.spans) + len(TRACER.instants) - records0
        rep.msgs, rep.bytes = log.count() - msgs0, log.total_bytes() - bytes0
        rep.plan_stats = sim.exchange.plan_stats()
        ghosts = sim.exchange.ghost_counts()
        rep.ghosts_per_rank = sum(ghosts.values()) / len(ghosts)
        rep.model_comm_s = sim.timers.model[Stage.COMM]

        # end-of-run output checks, each an operation of its own
        e1 = sim.sample_thermo().total_energy
        forces = sim.gather_forces()
        res.check(
            "energy and forces finite",
            math.isfinite(e1) and bool(np.all(np.isfinite(forces))),
            f"E={e1!r}",
        )
        res.check(
            "atoms conserved", sim.total_local_atoms() == sim.natoms,
            f"{sim.total_local_atoms()}/{sim.natoms}",
        )
        momentum = float(np.abs(sim.gather_velocities().sum(axis=0)).max())
        res.check("momentum conserved", momentum <= 1e-9 * sim.natoms, f"|p|={momentum:.3e}")
        drift = abs(e1 - e0) / abs(e0)
        res.check("energy drift", drift <= spec.drift_tol, f"{drift:.3e} > {spec.drift_tol}")
    return rep


def serial_baseline(spec: MDSpec, seed: int) -> tuple[float, float]:
    """(total energy after REFERENCE_STEPS, atom-steps/s) of the plain
    single-rank run of the same inputs."""
    sim = make_simulation(spec, seed, grid=(1, 1, 1))
    sim.setup()
    t0 = time.perf_counter()
    sim.run(REFERENCE_STEPS)
    wall = time.perf_counter() - t0
    return sim.sample_thermo().total_energy, sim.natoms * REFERENCE_STEPS / wall


def run_md(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    spec = MD_WORKLOADS[name]
    res = RunResult(name, seed, trace)
    natoms = 4 * math.prod(spec.cells)

    with observe() if spec.observed else nullcontext():
        make_simulation(spec, seed).run(WARMUP_STEPS)

    repeats: list[Repeat] = []
    t_start = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - t_start < seconds:
        repeats.append(
            run_repeat(spec, seed + len(repeats), res, trace, len(repeats) * spec.steps)
        )
    rss = peak_rss_mb()

    # Repeat 0 carries every exact-class number: its inputs depend on the
    # seed only, not on how many repeats this machine had time for.
    rep0 = repeats[0]
    e_serial, serial_rate = serial_baseline(spec, seed)
    if rep0.energy_at_reference is None:
        res.check("reference step reached", False)
    else:
        rel = abs(rep0.energy_at_reference - e_serial) / abs(e_serial)
        res.check("energy matches single-rank run", rel <= 1e-10, f"rel {rel:.3e}")

    # "measured the program that ships" guards
    slowpath = max(r.plan_stats["slowpath_phases"] for r in repeats)
    if spec.observed:
        res.check("slow path taken under observe()", slowpath > 0)
    else:
        res.check("fast path only", slowpath == 0, f"slowpath_phases={slowpath}")
    if name == "eam-hot-27r":
        fewest = min(len(r.rebuild_ns) for r in repeats)
        res.check("check-triggered rebuilds", fewest >= 3, f"only {fewest} in a repeat")

    steps_ms = [ns / 1e6 for r in repeats for ns in r.step_ns]
    rebuild_ms = [ns / 1e6 for r in repeats for ns in r.rebuild_ns]
    res.info = {
        "repeats": len(repeats),
        "steps_per_repeat": spec.steps,
        "natoms": natoms,
        "ordinary_steps": len(steps_ms),
        "rebuild_steps": len(rebuild_ms),
        "slowpath_phases": slowpath,
    }
    work = [natoms * r.steps / r.loop_s for r in repeats]
    if trace:
        res.metrics = layer_metrics(spec, repeats, work, serial_rate)
        res.recorder = rep0.rec
        return res
    res.metrics = {
        "setup_s": summary([r.setup_s for r in repeats]),
        "work_per_s": summary(work),
        "op_ms_p50": summary(
            [statistics.median(r.step_ns) / 1e6 for r in repeats],
            value=statistics.median(steps_ms),
        ),
        "slow_op_ms_p50": summary(
            [statistics.median(r.rebuild_ns) / 1e6 for r in repeats],
            value=statistics.median(rebuild_ms),
        ),
        "peak_rss_mb": exact(rss),
    }
    return res


def layer_metrics(spec, repeats, work, serial_rate) -> dict[str, dict]:
    """Per-layer numbers of a traced run (README: 'Per-layer metrics')."""
    rep0 = repeats[0]
    steps = sum(r.steps for r in repeats)
    rebuilds = sum(len(r.rebuild_ns) for r in repeats)
    loop_ms = sum(r.loop_s for r in repeats) * 1e3

    # span name -> calls / self ms, over all repeats; calls0: repeat 0 only
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    for r in repeats:
        for span, (c, ns) in r.rec.totals().items():
            calls[span] = calls.get(span, 0) + c
            self_ms[span] = self_ms.get(span, 0.0) + ns / 1e6
    calls0 = {span: c for span, (c, _) in rep0.rec.totals().items()}

    def ms(span: str) -> float:
        return self_ms.get(span, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, dict] = {}

    def put(name: str, value: float) -> None:
        m[name] = exact(value)

    stage_ms = {s: sum(r.stage_s[s] for r in repeats) * 1e3 for s in Stage}
    for stage in Stage:
        put(f"stage.{stage.value.lower()}_ms_per_step", stage_ms[stage] / steps)
    put("stage.unattributed_ms_per_step", (loop_ms - sum(stage_ms.values())) / steps)

    kernel = "md.pair.kernel"
    put("md.pair.kernel_ms_per_step", ms(kernel) / steps)
    put("md.pair.calls_per_step", calls0.get(kernel, 0) / spec.steps)
    put("md.pair.us_per_call", ratio(ms(kernel) * 1e3, calls.get(kernel, 0)))
    put("md.pair.ns_per_pair",
        ratio(ms(kernel) * 1e6, sum(r.pairs_evaluated for r in repeats)))
    build = "md.neigh.build"
    put("md.neigh.build_ms_per_rebuild", ratio(ms(build), rebuilds))
    put("md.neigh.build_calls", calls0.get(build, 0))
    put("md.neigh.pairs_per_build", ratio(rep0.pairs_built, calls0.get(build, 0)))
    put("md.neigh.ns_per_pair", ratio(ms(build) * 1e6, sum(r.pairs_built for r in repeats)))
    put("md.neigh.check_ms_per_step", ms("md.neigh.check") / steps)
    put("md.integrate.ms_per_step", ms("md.integrate") / steps)
    put("md.thermo.sample_ms", ratio(ms("md.thermo.sample"), calls.get("md.thermo.sample", 0)))
    put("md.serial_atom_steps_per_s", serial_rate)
    put("md.rebuilds_per_repeat", len(rep0.rebuild_ns))

    for phase in ("forward", "reverse", "pair_forward", "pair_reverse"):
        put(f"core.{phase}_ms_per_step", ms(f"core.{phase}") / steps)
    put("core.borders_ms_per_rebuild", ratio(ms("core.borders"), rebuilds))
    put("core.migrate_ms_per_rebuild", ratio(ms("core.migrate"), rebuilds))
    for key in ("plan_builds", "fastpath_phases", "slowpath_phases",
                "pool_grow_events", "pool_bytes"):
        put(f"core.{key}", rep0.plan_stats[key])
    put("core.ghost_atoms_per_rank", rep0.ghosts_per_rank)
    put("core.model_comm_us_per_step", rep0.model_comm_s / spec.steps * 1e6)

    put("runtime.transport.ms_per_step", ms("runtime.transport") / steps)
    put("runtime.transport.msgs_per_step", rep0.msgs / spec.steps)
    put("runtime.transport.bytes_per_step", rep0.bytes / spec.steps)
    put("obs.telemetry.flush_ms_per_step", ms("obs.telemetry.flush") / steps)
    put("obs.tracer.records_per_step", rep0.records / spec.steps)

    put("trace.unwrapped_ms_per_step", ms("step") / steps)
    m["trace.work_per_s"] = summary(work)
    return m
