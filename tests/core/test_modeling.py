"""Modeled-machine-time bridge tests (repro.core.modeling)."""

import numpy as np
import pytest

from repro import quick_lj_simulation
from repro.core import FineGrainedP2PExchange, modeling
from repro.core.analytic import analyze_simulation
from repro.core.modeling import (
    modeled_exchange_time,
    modeled_step_comm_time,
    price_exchange,
    rank_messages,
    stack_for_exchange,
)
from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.machine import FUGAKU
from repro.md import Stage
from repro.md.presets import PRESETS
from repro.network import MpiStack, NetworkSimulator, UtofuStack
from repro.network.simulator import simulate_owned_rounds
from repro.obs import observe
from repro.obs.bench import model_tables
from repro.obs.critpath import analyze_critical_path
from repro.obs.trace import tracing
from repro.perfmodel import (
    EAM_WORKLOAD_1M7,
    LJ_WORKLOAD_65K,
    VARIANTS,
    StageModel,
    Workload,
    variant_by_name,
)
from repro.runtime import WorkItem, split_load


def sim_for(pattern, **kw):
    sim = quick_lj_simulation(cells=(5, 5, 5), ranks=(2, 2, 2), pattern=pattern, **kw)
    sim.setup()
    return sim


class TestStackPairing:
    def test_3stage_runs_on_mpi(self):
        sim = sim_for("3stage")
        assert isinstance(stack_for_exchange(sim.exchange), MpiStack)

    def test_p2p_runs_on_utofu(self):
        sim = sim_for("p2p")
        assert isinstance(stack_for_exchange(sim.exchange), UtofuStack)


class TestModeledTimes:
    def test_p2p_forward_faster_than_3stage(self):
        t3 = modeled_exchange_time(sim_for("3stage").exchange, "forward")
        tp = modeled_exchange_time(sim_for("p2p").exchange, "forward")
        assert tp < t3

    def test_parallel_faster_than_serial_p2p(self):
        tp = modeled_exchange_time(sim_for("p2p").exchange, "forward")
        tf = modeled_exchange_time(sim_for("parallel-p2p").exchange, "forward")
        assert tf < tp

    def test_border_costlier_than_forward(self):
        ex = sim_for("p2p").exchange
        assert modeled_exchange_time(ex, "border") > modeled_exchange_time(
            ex, "forward"
        ) * 0.99

    def test_unknown_phase_rejected(self):
        ex = sim_for("p2p").exchange
        with pytest.raises(ValueError):
            modeled_exchange_time(ex, "teleport")

    def test_step_time_rebuild_costs_more(self):
        ex = sim_for("p2p").exchange
        t_plain = modeled_step_comm_time(ex, rebuild=False)
        t_rebuild = modeled_step_comm_time(ex, rebuild=True)
        assert t_rebuild > t_plain

    def test_newton_off_skips_reverse(self):
        ex = sim_for("p2p").exchange
        with_rev = modeled_step_comm_time(ex, rebuild=False, newton=True)
        without = modeled_step_comm_time(ex, rebuild=False, newton=False)
        assert without < with_rev


class TestSimulationIntegration:
    def test_model_timer_accumulates(self):
        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), pattern="p2p",
            model_machine_time=True,
        )
        sim.run(5)
        assert sim.timers.model[Stage.COMM] > 0

    def test_disabled_by_default(self):
        sim = quick_lj_simulation(cells=(4, 4, 4), ranks=(2, 2, 2))
        sim.run(3)
        assert sim.timers.total_model() == 0.0

    def test_pattern_ordering_on_same_run(self):
        totals = {}
        for pattern in ("3stage", "p2p", "parallel-p2p"):
            sim = quick_lj_simulation(
                cells=(4, 4, 4), ranks=(2, 2, 2), pattern=pattern,
                model_machine_time=True, seed=77,
            )
            sim.run(10)
            totals[pattern] = sim.timers.model[Stage.COMM]
        assert totals["parallel-p2p"] < totals["p2p"] < totals["3stage"]

    def test_model_metrics_deterministic(self):
        """Two fresh runs of one configuration model the same machine:
        stage seconds, traffic and rank 0's forward critical path."""

        def modeled_run():
            sim = PRESETS["lj"].simulation(
                (4, 4, 4), (2, 2, 2), pattern="3stage", rdma=False,
                model_machine_time=True, thermo_every=0,
            )
            sim.run(3)
            log = sim.world.transport.log
            traffic = {
                ph: (log.summary(ph).count, log.summary(ph).total_bytes)
                for ph in {m.phase for m in log.messages}
            }
            with observe(metrics=False) as (tracer, _):
                modeled_exchange_time(sim.exchange, "forward", rank=0)
            cp = analyze_critical_path(tracer)
            return dict(sim.timers.model), traffic, dict(cp.attribution)

        assert modeled_run() == modeled_run()


class TestModelTables:
    def test_model_tables_present(self):
        """The Table 1 / Fig. 13 outputs the perf ledger's paper-model
        workload prices."""
        t = model_tables()
        assert (t["table1"]["msgs_p2p"], t["table1"]["msgs_3stage"]) == (13, 6)
        assert t["fig13"]["lj_speedup_36864"] > 2.0
        assert t["fig13"]["eam_speedup_36864"] > 1.5
        assert {r["variant"] for r in t["table3"]} == {"ref", "opt"}

    def test_table1_p2p_halves_the_ghost_volume(self):
        """Newton's third law: the half shell carries half the 3-stage
        ghost atoms, and so (up to per-message rounding) half the bytes."""
        t1 = model_tables()["table1"]
        assert t1["volume_ratio"] == pytest.approx(0.5, rel=1e-12)
        assert t1["bytes_p2p"] / t1["bytes_3stage"] == pytest.approx(0.5, rel=0.01)

    @pytest.mark.parametrize("row", range(4))
    def test_table3_stages_sum_to_the_total(self, row):
        r = model_tables()["table3"][row]
        assert r["nodes"] == 36864
        assert set(r["stages"]) == {s.value for s in Stage}
        assert sum(r["stages"].values()) == pytest.approx(r["total"], rel=1e-12)

    @pytest.mark.parametrize("potential", ["lj", "eam"])
    def test_fig13_speedup_is_the_table3_ref_over_opt(self, potential):
        """The headline speedup and Table 3 price the same 36 864-node
        step: ref total over opt total, with every stage but Other cut."""
        t = model_tables()
        rows = {
            r["variant"]: r for r in t["table3"] if r["workload"] == f"{potential}-strong"
        }
        ref, opt = rows["ref"], rows["opt"]
        assert t["fig13"][f"{potential}_speedup_36864"] == pytest.approx(
            ref["total"] / opt["total"], rel=1e-12
        )
        for stage in ("Pair", "Neigh", "Comm", "Modify"):
            assert opt["stages"][stage] < ref["stages"][stage], stage


# -- one pricing pass per epoch ----------------------------------------------
def live_exchange(kind):
    """A 27-rank exchange a few steps into a run (the strong-scaling
    shape: r_comm > a/2), by pattern; ``serial-pool`` is parallel-p2p
    with one communication thread."""
    pattern = {"serial-pool": "parallel-p2p"}.get(kind, kind)
    sim = quick_lj_simulation(
        cells=(6, 6, 6), ranks=(3, 3, 3), pattern=pattern, rdma=pattern != "3stage"
    )
    sim.run(12)
    if kind != "serial-pool":
        return sim.exchange
    ex = FineGrainedP2PExchange(
        sim.world, sim.domain, sim.exchange.rcomm, n_comm_threads=1
    )
    ex.borders()
    return ex


def event_loop_time(exchange, phase, rank, params=FUGAKU):
    """One rank's phase on ``NetworkSimulator``, spelled out."""
    stack = stack_for_exchange(exchange, params)
    msgs = rank_messages(exchange, rank, *modeling.PHASES[phase])
    sim = NetworkSimulator(stack, params)
    if exchange.sends_per_stage:
        return sim.run_staged([msgs[i : i + 2] for i in range(0, len(msgs), 2)]).completion_time
    return sim.run_round(msgs).completion_time


PHASES = ("border", "forward", "reverse")
KINDS = ("p2p", "parallel-p2p", "serial-pool", "3stage")


class TestWorldPricing:
    @pytest.mark.parametrize("kind", KINDS)
    def test_step_pricing_equals_the_event_loop_rank_by_rank(self, kind, monkeypatch):
        ex = live_exchange(kind)
        expected = {
            (phase, rank): event_loop_time(ex, phase, rank)
            for phase in PHASES
            for rank in range(ex.world.size)
        }
        ex._epoch.priced.clear()  # drop what the run and the oracle cached
        rounds = []  # what went rank by rank on the event loop
        run_round, run_staged = NetworkSimulator.run_round, NetworkSimulator.run_staged
        monkeypatch.setattr(
            NetworkSimulator, "run_round",
            lambda self, msgs: rounds.append(msgs) or run_round(self, msgs),
        )
        monkeypatch.setattr(
            NetworkSimulator, "run_staged",
            lambda self, stages: rounds.append(sum(stages, [])) or run_staged(self, stages),
        )
        passes = []  # known_length of every world-pass call
        monkeypatch.setattr(
            modeling, "simulate_owned_rounds",
            lambda *args: passes.append(args[-1]) or simulate_owned_rounds(*args),
        )
        rebuild = modeled_step_comm_time(ex, rebuild=True)
        plain = modeled_step_comm_time(ex, rebuild=False)
        if kind == "3stage":
            # Only the MPI two-message border goes rank by rank (refused
            # on its first stage); forward/reverse — one cache entry —
            # take the world pass, one call per 2-send stage.
            assert passes == [False, True, True, True]
            assert len(rounds) == ex.world.size
            assert not any(m.known_length for msgs in rounds for m in msgs)
        else:
            # The border's length is news to the receiver (known_length
            # False) but uTofu still sends one message; forward/reverse.
            assert passes == [False, True]
            assert rounds == []  # every rank priced by the world pass
        for (phase, rank), t in expected.items():
            got = modeled_exchange_time(ex, phase, rank=rank)
            assert got == t and type(got) is float
        ranks = range(ex.world.size)
        slowest = {p: max(expected[p, r] for r in ranks) for p in PHASES}
        # The thread pool's fork / join, once per parallel round.
        fj = FUGAKU.threadpool_fork_join if kind == "parallel-p2p" else 0.0
        assert rebuild == slowest["border"] * 1.3 + fj + (slowest["reverse"] + fj)
        assert plain == slowest["forward"] + fj + (slowest["reverse"] + fj)
        assert type(rebuild) is float and type(plain) is float

    def test_reverse_is_served_from_forwards_entry(self, monkeypatch):
        ex = live_exchange("parallel-p2p")
        ex._epoch.priced.clear()
        passes = []
        monkeypatch.setattr(
            modeling, "simulate_owned_rounds",
            lambda *args: passes.append(args[-1]) or simulate_owned_rounds(*args),
        )
        modeled_step_comm_time(ex, rebuild=True)  # border + reverse
        assert len(passes) == 2
        modeled_step_comm_time(ex, rebuild=False)  # forward == reverse's entry
        modeled_exchange_time(ex, "forward", rank=5)
        assert len(passes) == 2

    def test_threads_are_split_loads_rule_over_one_cost(self):
        """The pricer's thread of every send is LPT (``split_load``) over
        injection + software latency + wire of the 8-byte-floored payload
        (one thread issues in route order, as p2p does)."""
        ex = live_exchange("parallel-p2p")
        stack = stack_for_exchange(ex)
        for rank in range(ex.world.size):
            counts, hops = ex._epoch.plans[rank].send_sizes()
            for width in (32, 24):
                sizes = [(max(count * width, 8), h) for count, h in zip(counts, hops)]
                items = [
                    WorkItem(
                        (n, h),
                        stack.injection_interval(n) + stack.software_latency(n)
                        + FUGAKU.wire_time(n, h),
                    )
                    for n, h in sizes
                ]
                assert [
                    (item.payload, thread)
                    for thread, bucket in enumerate(split_load(items, ex.n_comm_threads))
                    for item in bucket
                ] == [((m.nbytes, m.hops), m.thread) for m in rank_messages(ex, rank, width, True)]

    @pytest.mark.parametrize("kind", ["p2p", "parallel-p2p"])
    def test_observers_and_refusals_fall_through_to_the_event_loop(self, kind, monkeypatch):
        ex = live_exchange(kind)
        ex._epoch.priced.clear()
        expected = modeled_step_comm_time(ex, rebuild=True)
        with tracing():
            assert modeled_step_comm_time(ex, rebuild=True) == expected
        stall = FaultSpec(kind="tni-stall", stall=1e-6, probability=0.0)
        with FAULTS.inject(FaultPlan(faults=(stall,))):
            assert modeled_step_comm_time(ex, rebuild=True) == expected
        ex._epoch.priced.clear()
        monkeypatch.setattr(modeling, "simulate_owned_rounds", lambda *args: None)
        assert modeled_step_comm_time(ex, rebuild=True) == expected

    def test_cache_is_keyed_on_the_params_value(self):
        """A freed params object and its successor at the same address
        are different machines (the cache used to key on ``id``)."""
        ex = sim_for("p2p").exchange
        for i in range(20):
            first = FUGAKU.evolve(rdma_put_latency=FUGAKU.rdma_put_latency * (2 + i))
            modeled_step_comm_time(ex, rebuild=False, params=first)
            del first
            second = FUGAKU.evolve(rdma_put_latency=FUGAKU.rdma_put_latency * 1000)
            got = modeled_step_comm_time(ex, rebuild=False, params=second)
            ex._epoch.priced.clear()
            assert got == modeled_step_comm_time(ex, rebuild=False, params=second)
            ex._epoch.priced.clear()


# -- the two clocks -------------------------------------------------------
#: stage-model variant -> the engine pattern it models
CLOCK_PAIRS = (("opt", "parallel-p2p"), ("4tni_p2p", "p2p"), ("ref", "3stage"))


@pytest.fixture(scope="module")
def strong_runs():
    """lj-strong-27r's geometry (6x6x6 cells on 3x3x3 ranks, 32 atoms per
    rank), 40 steps into a run, by pattern."""
    runs = {}
    for _, pattern in CLOCK_PAIRS:
        sim = quick_lj_simulation(
            cells=(6, 6, 6), ranks=(3, 3, 3), pattern=pattern, rdma=pattern != "3stage"
        )
        sim.run(40)
        runs[pattern] = sim
    return runs


def stage_workload(sim):
    """The stage model's workload at ``sim``'s density, shell and atoms
    per rank, on one node."""
    return Workload(
        "engine", "lj", sim.natoms // sim.world.size * FUGAKU.ranks_per_node,
        sim.natoms / sim.box.volume, sim.exchange.rcomm, 0.005, rebuild_every=20,
    )


class TestTwoClocks:
    @pytest.mark.parametrize("phase", ["forward", "border"])
    @pytest.mark.parametrize("variant,pattern", CLOCK_PAIRS)
    def test_stage_model_rank_row_prices_as_the_engine(self, strong_runs, variant, pattern, phase):
        """The stage model's one-rank analytic row, priced by the one
        pricer, against the engine's slowest rank."""
        sim, model, v = strong_runs[pattern], StageModel(), variant_by_name(variant)
        atoms, hops = model.rank_row(v, stage_workload(sim), 1)
        (analytic,) = price_exchange(atoms, hops, phase, **model.pattern_facts(v))
        engine = max(
            modeled_exchange_time(sim.exchange, phase, rank=rank)
            for rank in range(sim.world.size)
        )
        assert analytic == pytest.approx(engine, rel=0.05)

    @pytest.mark.parametrize("phase", sorted(modeling.PHASES))
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_node_row_never_cheaper_than_one_rank(self, variant, phase):
        """Sharing the node's TNIs can only delay a round."""
        model, v = StageModel(), variant_by_name(variant)
        for w, nodes in ((LJ_WORKLOAD_65K, 768), (LJ_WORKLOAD_65K, 36864), (EAM_WORKLOAD_1M7, 768)):
            atoms, hops = model.rank_row(v, w, nodes)
            (one,) = price_exchange(atoms, hops, phase, **model.pattern_facts(v))
            assert model.exchange_round_time(v, w, nodes, phase) >= one


class TestCensus:
    @pytest.mark.parametrize("pattern", ["p2p", "3stage"])
    def test_atoms_sent_per_forward_match_table1(self, strong_runs, pattern):
        """What each rank sends per forward, against the Table 1 classes
        the stage model prices (bin-granular border selection overshoots
        the analytic shell volume)."""
        sim = strong_runs[pattern]
        sent = np.mean([sum(plan.send_sizes()[0]) for plan in sim.exchange._epoch.plans])
        assert sent == pytest.approx(analyze_simulation(sim).total_atoms, rel=0.12)
