"""``paper-model``: the modeled-clock producers, driven call by call.

No MD stepping.  One cycle regenerates every model figure/table, sweeps
the network simulator over the live message schedules of three 27-rank
LJ exchanges, prices MD steps cold and warm, and runs the rank profiler
and the critical-path analyzer.  Cycles repeat until ``seconds`` have
been measured.  Simulated statistics must repeat exactly; only host
time is subject to noise.
"""

from __future__ import annotations

import math
import statistics
import time

from ledger_core import RunResult, SpanRecorder, exact, peak_rss_mb, quiet_gc, summary
from ledger_md import MD_WORKLOADS, MDSpec, make_simulation
from repro.core.modeling import (
    modeled_exchange_time,
    modeled_step_comm_time,
    rank_messages,
    stack_for_exchange,
)
from repro.core.three_stage import ThreeStageExchange
from repro.figures import fig12, fig13
from repro.figures.__main__ import EXPERIMENTS
from repro.network.simulator import NetworkSimulator
from repro.network.stacks import UtofuStack
from repro.obs import observe
from repro.obs.bench import model_tables
from repro.obs.critpath import analyze_critical_path
from repro.obs.rankprof import profile_exchange
from repro.perfmodel import StageModel, variant_by_name

#: the only experiment that steps real MD; the MD workloads cover that
SKIPPED_FIGURES = ("fig11",)
#: the three exchange patterns the simulator is swept over
LIVE_PATTERNS = (("3stage", False), ("p2p", False), ("parallel-p2p", True))
PHASE_BYTES = {"border": 32, "forward": 24, "reverse": 24}
#: full sweeps (every pattern x rank x phase) per cycle; fixed so the
#: simulated-message count of a cycle is a constant of the benchmark
SIM_SWEEPS = 72
WARM_CALLS = 200
STEP_TIMES_CALLS = 50
MIN_CYCLES = 2
#: sanity band for the model's distance from the paper's headline numbers
PAPER_ERR_CEILING_PCT = 25.0


def live_exchanges(seed: int) -> list:
    """27-rank LJ exchanges of all three patterns, set up on fresh inputs."""
    base = MD_WORKLOADS["lj-strong-27r"]
    out = []
    for pattern, rdma in LIVE_PATTERNS:
        spec = MDSpec(base.potential, base.cells, base.grid, pattern, rdma, 0)
        sim = make_simulation(spec, seed)
        sim.setup()
        out.append(sim.exchange)
    return out


def simulator_sweep(exchanges, rec: SpanRecorder, res: RunResult, reference: list | None):
    """Every rank x phase schedule of every exchange through the simulator.

    Returns (messages simulated, completion times, per-round host ns)."""
    msgs_total = 0
    completions: list[float] = []
    round_ns: list[int] = []
    for exchange in exchanges:
        stack = stack_for_exchange(exchange)
        staged = isinstance(exchange, ThreeStageExchange)
        for rank in range(exchange.world.size):
            for phase, nbytes in PHASE_BYTES.items():
                known = isinstance(stack, UtofuStack) or phase != "border"
                msgs = rank_messages(exchange, rank, nbytes, known)
                sim = NetworkSimulator(stack)
                idx = rec.begin("network.sim")
                if staged:
                    result = sim.run_staged([msgs[i : i + 2] for i in range(0, len(msgs), 2)])
                else:
                    result = sim.run_round(msgs)
                rec.finish(idx)
                round_ns.append(rec.ends[idx] - rec.starts[idx])
                t = result.completion_time
                ok = math.isfinite(t) and t > 0 and result.message_count == len(msgs)
                if reference is not None:
                    ok = ok and t == reference[len(completions)]
                res.op(ok, f"simulator round {exchange.name}/{rank}/{phase}: {t!r}")
                completions.append(t)
                msgs_total += len(msgs)
    return msgs_total, completions, round_ns


def paper_numbers(results: dict) -> dict[str, float]:
    """The simulated statistics a simulator-speed change must not move."""
    f13, f12, t1 = results["fig13"], results["fig12"], results["table1"]
    ours = {
        "perfmodel.fig13_speedup_lj": f13.speedup_last("lj"),
        "perfmodel.fig13_speedup_eam": f13.speedup_last("eam"),
        "perfmodel.fig12_comm_reduction": f12.comm_reduction("lj-65k"),
    }
    paper = {
        "perfmodel.fig13_speedup_lj": fig13.PAPER["speedup_last"]["lj"],
        "perfmodel.fig13_speedup_eam": fig13.PAPER["speedup_last"]["eam"],
        "perfmodel.fig12_comm_reduction": fig12.PAPER["comm_reduction_65k"],
    }
    err = max(abs(ours[k] - paper[k]) / paper[k] for k in ours)
    return {
        **ours,
        "perfmodel.table1_msgs_p2p": t1.p2p.total_messages,
        "perfmodel.table1_msgs_3stage": t1.three_stage.total_messages,
        "perfmodel.table1_volume_ratio": t1.volume_ratio,
        "perfmodel.paper_err_max_pct": 100.0 * err,
    }


def run_cycle(seed: int, rec: SpanRecorder, res: RunResult, cycle: int) -> dict:
    out: dict = {}
    rec.step_id = cycle

    t0 = time.perf_counter()
    model = StageModel()
    exchanges = live_exchanges(seed)
    out["setup_s"] = time.perf_counter() - t0

    # 1. every model figure and table
    results = {}
    with rec.span("figures") as fig_root:
        for name, mod in EXPERIMENTS.items():
            if name in SKIPPED_FIGURES:
                continue
            try:
                with rec.span(f"figures.{name}"):
                    results[name] = mod.compute()
                    text = mod.render(results[name])
                res.op(bool(text.strip()), f"figure {name} rendered nothing")
            except Exception as exc:
                res.op(False, f"figure {name} raised {exc!r}")
    out["figures_ms"] = (rec.ends[fig_root] - rec.starts[fig_root]) / 1e6
    with rec.span("obs.bench.model_tables"):
        tables = model_tables()
    numbers = paper_numbers(results)
    res.check(
        "model_tables agrees with fig13",
        tables["fig13"]["lj_speedup_36864"] == numbers["perfmodel.fig13_speedup_lj"]
        and tables["fig13"]["eam_speedup_36864"] == numbers["perfmodel.fig13_speedup_eam"],
    )
    res.check(
        "model within the sanity band of the paper",
        numbers["perfmodel.paper_err_max_pct"] <= PAPER_ERR_CEILING_PCT,
        f"{numbers['perfmodel.paper_err_max_pct']:.2f}% > {PAPER_ERR_CEILING_PCT}%",
    )
    out["numbers"] = numbers

    # 2. MD step pricing: cold (plan-epoch cache still empty) then warm
    cold_ns, warm_ns = [], []
    for exchange in exchanges:
        for rebuild in (False, True):
            idx = rec.begin("core.modeling.cold")
            cold = modeled_step_comm_time(exchange, rebuild)
            rec.finish(idx)
            cold_ns.append(rec.ends[idx] - rec.starts[idx])
            idx = rec.begin("core.modeling.warm")
            for _ in range(WARM_CALLS):
                warm = modeled_step_comm_time(exchange, rebuild)
            rec.finish(idx)
            warm_ns.append((rec.ends[idx] - rec.starts[idx]) / WARM_CALLS)
            res.op(
                math.isfinite(cold) and cold > 0 and warm == cold,
                f"step pricing {exchange.name} rebuild={rebuild}: {cold!r} vs {warm!r}",
            )
    out["cold_us"] = statistics.mean(cold_ns) / 1e3
    out["warm_us"] = statistics.mean(warm_ns) / 1e3

    # 3. network simulator over the live schedules
    sim_msgs = 0
    round_ns: list[int] = []
    reference = None
    for _ in range(SIM_SWEEPS):
        n, completions, ns = simulator_sweep(exchanges, rec, res, reference)
        reference = reference or completions
        sim_msgs += n
        round_ns += ns
    out["sim_msgs"] = sim_msgs
    out["sim_rounds"] = len(round_ns)
    out["round_ns"] = round_ns

    # 4. analytic stage model, rank profiler, critical path
    workloads = (fig13.lj_workload(), fig13.eam_workload())
    idx = rec.begin("perfmodel.step_times")
    for _ in range(STEP_TIMES_CALLS):
        for w in workloads:
            for vname in ("ref", "opt"):
                total = model.step_times(w, 36864, variant_by_name(vname)).total
    rec.finish(idx)
    out["step_times_us"] = (rec.ends[idx] - rec.starts[idx]) / 1e3 / (STEP_TIMES_CALLS * 4)
    res.op(math.isfinite(total) and total > 0, f"StageModel.step_times total {total!r}")

    fine = exchanges[-1]
    with rec.span("obs.rankprof.profile"):
        profile = profile_exchange(fine, phases=("forward",))
    res.op(len(profile.profiles) == fine.world.size, "rank profile incomplete")
    with observe(metrics=False) as (tracer, _):
        modeled_exchange_time(fine, "forward", rank=0)
    with rec.span("obs.critpath.analyze"):
        cp = analyze_critical_path(tracer)
    res.op(
        math.isfinite(cp.completion) and cp.completion > cp.base,
        "critical path empty",
    )
    return out


def run_paper_model(seed: int, seconds: float, trace: bool) -> RunResult:
    res = RunResult("paper-model", seed, trace)
    rec = SpanRecorder()
    live_exchanges(seed)  # discarded: first-call costs of the set-up path
    cycles: list[dict] = []
    t_start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - t_start < seconds:
        with quiet_gc():
            cycles.append(run_cycle(seed + len(cycles), rec, res, len(cycles)))
    rss = peak_rss_mb()

    first = cycles[0]
    res.check(
        "simulated statistics identical across cycles",
        all(c["numbers"] == first["numbers"] for c in cycles),
    )
    totals = rec.totals()
    n = len(cycles)
    res.info = {"cycles": n, "sim_sweeps_per_cycle": SIM_SWEEPS}

    def sim_rate(c: dict) -> float:
        return c["sim_msgs"] / (sum(c["round_ns"]) / 1e9)

    round_ms = [ns / 1e6 for c in cycles for ns in c["round_ns"]]
    if not trace:
        m = res.metrics
        m["setup_s"] = summary([c["setup_s"] for c in cycles])
        m["work_per_s"] = summary([sim_rate(c) for c in cycles])
        m["op_ms_p50"] = summary(
            [statistics.median(c["round_ns"]) / 1e6 for c in cycles],
            value=statistics.median(round_ms),
        )
        m["slow_op_ms_p50"] = summary([c["figures_ms"] for c in cycles])
        m["peak_rss_mb"] = exact(rss)
        return res

    def span_ms(name: str) -> float:
        return totals.get(name, (0, 0))[1] / 1e6 / n

    m = res.metrics
    for name, value in first["numbers"].items():
        m[name] = exact(value)
    m["network.sim_rounds"] = exact(first["sim_rounds"])
    m["network.sim_msgs"] = exact(first["sim_msgs"])
    m["network.sim_us_per_msg"] = summary([1e6 / sim_rate(c) for c in cycles])
    m["core.modeling.cold_us_per_call"] = summary([c["cold_us"] for c in cycles])
    m["core.modeling.warm_us_per_call"] = summary([c["warm_us"] for c in cycles])
    m["perfmodel.step_times_us_per_call"] = summary(
        [c["step_times_us"] for c in cycles])
    named = ("topomap", "sensitivity", "fig8")
    for fig in named:
        m[f"figures.{fig}_ms"] = exact(span_ms(f"figures.{fig}"))
    rest = sum(
        span_ms(f"figures.{fig}")
        for fig in EXPERIMENTS
        if fig not in named and fig not in SKIPPED_FIGURES
    )
    m["figures.rest_ms"] = exact(rest + span_ms("figures"))
    m["obs.rankprof.profile_ms"] = exact(span_ms("obs.rankprof.profile"))
    m["obs.critpath.analyze_ms"] = exact(span_ms("obs.critpath.analyze"))
    m["trace.work_per_s"] = summary([sim_rate(c) for c in cycles])
    res.recorder = rec
    return res
