"""Retry absorption and the degradation ladder, driven through Simulation."""

import numpy as np
import pytest

from repro import LennardJones, Simulation, SimulationConfig
from repro.faults import (
    FAULTS,
    FaultPlan,
    FaultSpec,
    RetryExhaustedError,
    RetryPolicy,
)
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.md.serial import check_trajectory

CELLS = (4, 2, 2)
GRID = (2, 1, 1)
STEPS = 4


def build_sim(pattern="parallel-p2p", rdma=False):
    edge = lj_density_to_cell(0.8442)
    x, box = fcc_lattice(CELLS, edge)
    v = maxwell_velocities(len(x), 1.44, seed=11)
    cfg = SimulationConfig(
        dt=0.005, skin=0.3, pattern=pattern, rdma=rdma, neighbor_every=4
    )
    return Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=GRID)


def baseline_positions():
    sim = build_sim()
    sim.run(STEPS)
    return sim.gather_positions()


class TestAbsorption:
    def test_absorbable_drops_leave_run_bit_identical(self):
        plan = FaultPlan(
            seed=5,
            policy=RetryPolicy(max_retries=6),
            faults=(FaultSpec("drop", phases=("border",), severity=2, count=4),),
        )
        clean = baseline_positions()
        sim = build_sim()
        with FAULTS.inject(plan) as session:
            sim.run(STEPS)
        assert session.stats.injected["drop"] == 4
        assert session.stats.unabsorbed == 0
        assert sim.degradations == []
        assert np.array_equal(sim.gather_positions(), clean)

    def test_retries_accounted_on_exchange(self):
        plan = FaultPlan(
            seed=5,
            faults=(FaultSpec("drop", phases=("border",), severity=2, count=2),),
        )
        sim = build_sim()
        with FAULTS.inject(plan) as session:
            sim.run(STEPS)
        assert session.stats.retries > 0
        assert sim.exchange.retries >= session.stats.retries
        assert sim.exchange.retry_model_time > 0.0

    def test_rdma_fence_absorbs_stale_puts(self):
        plan = FaultPlan(
            seed=9,
            faults=(FaultSpec("rdma-stale", severity=2, count=2),),
        )
        clean = baseline_positions()
        sim = build_sim(rdma=True)
        with FAULTS.inject(plan) as session:
            sim.run(STEPS)
        assert session.stats.injected["rdma-stale"] == 2
        assert session.stats.unabsorbed == 0
        assert np.array_equal(sim.gather_positions(), clean)


class TestDegradationLadder:
    def plan_one_lethal_drop(self):
        # Held longer than the retry horizon, but only once: the fine
        # tier must escalate, the p2p tier then runs fault-free.
        return FaultPlan(
            seed=1,
            policy=RetryPolicy(max_retries=2),
            faults=(FaultSpec("drop", phases=("border",), severity=99, count=1),),
        )

    def test_single_degradation_fine_to_p2p(self):
        sim = build_sim()
        with FAULTS.inject(self.plan_one_lethal_drop()) as session:
            sim.run(STEPS)
        assert sim.degradations == [("parallel-p2p", "p2p")]
        assert sim.exchange.name == "p2p"
        assert session.stats.degradations == 1
        assert session.stats.degraded_casualties >= 1
        assert session.stats.unabsorbed == 0

    def test_trajectory_preserved_across_degradation(self):
        clean = baseline_positions()
        sim = build_sim()
        with FAULTS.inject(self.plan_one_lethal_drop()):
            sim.run(STEPS)
        ok, detail = check_trajectory(sim, clean)
        assert ok, detail

    def test_terminal_tier_reraises(self):
        # Unlimited lethal drops kill every tier; after 3-stage (the
        # sturdiest pattern) there is nowhere left to fall.
        plan = FaultPlan(
            seed=2,
            policy=RetryPolicy(max_retries=2),
            faults=(FaultSpec("drop", phases=("border",), severity=99),),
        )
        sim = build_sim()
        with FAULTS.inject(plan):
            with pytest.raises(RetryExhaustedError):
                sim.run(STEPS)
        assert sim.degradations == [("parallel-p2p", "p2p"), ("p2p", "3stage")]

    def test_no_session_never_degrades(self):
        sim = build_sim()
        sim.run(STEPS)
        assert sim.degradations == []
