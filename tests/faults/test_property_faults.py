"""Property tests of the two headline fault-layer guarantees.

* Any *absorbable* plan (every non-timing severity within the retry
  horizon, no budget) leaves the final ghost region and trajectory
  bit-identical to the fault-free run.
* Any plan replays: the same seed and schedule produce the identical
  trace event sequence and fault statistics, twice.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LennardJones, Simulation, SimulationConfig
from repro.faults import FAULTS, FaultPlan, FaultSpec, RetryPolicy
from repro.faults.injector import check_ghosts_identical, check_replays, trace_signature
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.obs import observe

MAX_RETRIES = 6
STEPS = 3


def build_sim(rdma: bool):
    edge = lj_density_to_cell(0.8442)
    x, box = fcc_lattice((4, 2, 2), edge)
    v = maxwell_velocities(len(x), 1.44, seed=23)
    cfg = SimulationConfig(
        dt=0.005, skin=0.3, pattern="parallel-p2p", rdma=rdma, neighbor_every=4
    )
    return Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 1, 1))


#: Strategy for absorbable fault specs (severity within the horizon).
absorbable_spec = st.one_of(
    st.builds(
        FaultSpec,
        kind=st.sampled_from(["drop", "delay", "reorder"]),
        probability=st.floats(0.3, 1.0),
        count=st.integers(1, 4),
        phases=st.just(("border",)),
        severity=st.integers(1, MAX_RETRIES),
    ),
    st.builds(
        FaultSpec,
        kind=st.sampled_from(["rdma-stale", "ring-stale"]),
        probability=st.floats(0.3, 1.0),
        count=st.integers(1, 3),
        severity=st.integers(1, MAX_RETRIES),
    ),
)


class TestAbsorbablePlansAreInvisible:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        faults=st.lists(absorbable_spec, min_size=1, max_size=3),
    )
    def test_ghosts_and_trajectory_bit_identical(self, seed, faults):
        plan = FaultPlan(
            seed=seed, policy=RetryPolicy(max_retries=MAX_RETRIES),
            faults=tuple(faults),
        )
        assert plan.absorbable()
        rdma = any(f.kind in ("rdma-stale", "ring-stale") for f in faults)

        clean = build_sim(rdma)
        clean.run(STEPS)

        faulted = build_sim(rdma)
        with FAULTS.inject(plan) as session:
            faulted.run(STEPS)

        assert session.stats.unabsorbed == 0
        assert faulted.degradations == []
        ok, detail = check_ghosts_identical(faulted, clean)
        assert ok, detail


class TestReplayDeterminism:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_same_plan_same_trace_sequence(self, seed):
        plan = FaultPlan(
            seed=seed,
            policy=RetryPolicy(max_retries=MAX_RETRIES),
            faults=(
                FaultSpec("drop", probability=0.5, phases=("border",),
                          severity=2, count=3),
                FaultSpec("reorder", probability=0.5, phases=("border",), count=3),
                FaultSpec("rdma-stale", probability=0.4, count=2),
            ),
        )

        def run():
            sim = build_sim(rdma=True)
            with observe(metrics=False) as (tracer, _):
                with FAULTS.inject(plan) as session:
                    sim.run(STEPS)
            return trace_signature(tracer), session.stats

        ok, detail = check_replays(run(), run())
        assert ok, detail
