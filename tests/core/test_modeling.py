"""Modeled-machine-time bridge tests (repro.core.modeling)."""

import pytest

from repro import quick_lj_simulation
from repro.core import FineGrainedP2PExchange, modeling
from repro.core.modeling import (
    modeled_exchange_time,
    modeled_step_comm_time,
    rank_messages,
    stack_for_exchange,
)
from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.machine import FUGAKU
from repro.md import Stage
from repro.network import MpiStack, NetworkSimulator, UtofuStack
from repro.network.simulator import simulate_owned_rounds
from repro.obs.trace import tracing
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

    def test_measured_sizes_agree_with_analytic_model(self):
        """The functional route sizes must match the analytic Table 1
        volumes that the perfmodel uses (cross-layer consistency)."""
        from repro.core import analyze_p2p

        sim = quick_lj_simulation(cells=(6, 6, 6), ranks=(2, 2, 2), pattern="p2p")
        sim.setup()
        a = float(sim.domain.sub_lengths[0])
        density = sim.natoms / sim.box.volume
        ana = analyze_p2p(a, sim.exchange.rcomm, density)
        measured = sum(sim.exchange._epoch.plans[0].send_sizes()[0])
        assert measured == pytest.approx(ana.total_atoms, rel=0.25)


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
    known = isinstance(stack, UtofuStack) or phase != "border"
    msgs = rank_messages(exchange, rank, {"border": 32}.get(phase, 24), known)
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
            assert passes == [True, True]  # border, then forward/reverse
            assert rounds == []  # every rank priced by the world pass
        for (phase, rank), t in expected.items():
            got = modeled_exchange_time(ex, phase, rank=rank)
            assert got == t and type(got) is float
        ranks = range(ex.world.size)
        slowest = {p: max(expected[p, r] for r in ranks) for p in PHASES}
        assert rebuild == slowest["border"] * 1.3 + slowest["reverse"]
        assert plain == slowest["forward"] + slowest["reverse"]
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

    @pytest.mark.parametrize("kind", ["parallel-p2p", "serial-pool"])
    def test_world_pass_fills_the_schedule_cache(self, kind):
        ex = live_exchange(kind)
        ex._epoch.priced.clear()
        ex._epoch.schedules.clear()
        modeled_step_comm_time(ex, rebuild=True)
        assert set(ex._epoch.schedules) == {
            (rank, width) for rank in range(ex.world.size) for width in (32, 24)
        }
        for (rank, width), sched in ex._epoch.schedules.items():
            assert sched == ex._assign_threads_impl(rank, width)
            assert all(type(v) is int for a in sched for v in a)
            # ... which is split_load's rule over the scalar costs.
            items = [
                WorkItem(n, ex.message_cost(count * width, hops))
                for n, (count, hops) in enumerate(zip(*ex._epoch.plans[rank].send_sizes()))
            ]
            assert [
                (item.payload, thread)
                for thread, bucket in enumerate(split_load(items, ex.n_comm_threads))
                for item in bucket
            ] == [(a.neighbor_index, a.thread) for a in sched]

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
