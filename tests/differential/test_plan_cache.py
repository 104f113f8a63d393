"""Plan-cache correctness: caching may never change what is exchanged.

The border stage writes each rank's flat gather/scatter arrays
(:class:`~repro.core.comm_plan.RankPlan`) into one
:class:`~repro.core.comm_plan.Epoch` that is replayed until migration
drops it.  These tests prove the three ways that could go wrong do not:

* a *stale* epoch surviving migration/reneighboring (epoch replacement),
* a *cached* replay differing from a freshly derived one (re-deriving
  the wiring and records from the arrays every step must be
  bit-identical),
* the *fast* path (the direct plane) differing from the traced slow
  path (each send's slice carried as a message, the seed semantics).

Every pattern rides the same plans: the ``...ThreeStage`` classes rerun
each test with ``pattern = "3stage"`` (twelve-round plans at radius 2).
"""

import numpy as np
import pytest

from repro import LennardJones, Simulation, SimulationConfig
from repro.core import NoEpochError, P2PExchange, ThreeStageExchange
from repro.core.modeling import rank_messages
from repro.faults import FAULTS, FaultPlan, FaultSpec, RetryExhaustedError, RetryPolicy
from repro.md import Box, Domain
from repro.md.atoms import Atoms
from repro.obs.trace import tracing
from repro.runtime import World
from tests._world_arrays import scalar_phase

BOX_EDGE = 9.0  # matches test_exchange_equivalence: sub-box 4.5 >= rcomm


def random_system(n_atoms: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, BOX_EDGE, size=(n_atoms, 3))
    v = rng.normal(0.0, 0.3, size=(n_atoms, 3))
    v -= v.mean(axis=0)
    return x, v, Box((0, 0, 0), (BOX_EDGE,) * 3)


def build_world(grid):
    world = World(int(np.prod(grid)), grid=grid)
    box = Box((0, 0, 0), (BOX_EDGE,) * 3)
    domain = Domain(box, grid)
    for rank in range(world.size):
        world.ranks[rank].state["atoms"] = Atoms()
    return world, domain


def _lj_sim(seed=7, pattern="p2p", steps=0, rdma=False, newton=True, **overrides):
    x, v, box = random_system(150, seed)
    cfg = SimulationConfig(
        dt=0.002, skin=0.3, pattern=pattern, rdma=rdma,
        neighbor_every=3, newton=newton, **overrides,
    )
    sim = Simulation(x, v, box, LennardJones(cutoff=1.55), cfg, grid=(2, 2, 2))
    if steps:
        sim.run(steps)
    return sim


def armed_but_silent():
    """A message-fault session that can never fire: mailbox plane, no faults."""
    return FAULTS.inject(
        FaultPlan(seed=0, faults=(FaultSpec(kind="drop", probability=0.0),))
    )


class TestPlanInvalidation:
    pattern = "p2p"
    fresh_exchange = staticmethod(
        lambda world, domain, rcomm: P2PExchange(world, domain, rcomm, newton=True)
    )

    def test_cached_run_matches_paranoid_invalidation(self):
        """Re-deriving the epoch from its arrays before every step changes
        nothing.

        Ten steps crossing three reneighborings: the run that trusts what
        the epoch cached (rounds, wiring, records) must produce
        bit-identical positions, velocities and forces to the run that
        rebuilds all of it from the four arrays per rank each step.
        """
        cached = _lj_sim(seed=11, pattern=self.pattern)
        paranoid = _lj_sim(seed=11, pattern=self.pattern)
        cached.setup()
        paranoid.setup()
        for _ in range(10):
            ex = paranoid.exchange
            ex._epoch = ex._new_epoch(
                [
                    (plan.fwd_idx, plan.shift_rows, plan.send_bounds, plan.recv_bounds)
                    for plan in ex._epoch.plans
                ]
            )
            paranoid.step()
            cached.step()
        assert np.array_equal(cached.gather_positions(), paranoid.gather_positions())
        assert np.array_equal(cached.gather_velocities(), paranoid.gather_velocities())
        assert np.array_equal(cached.gather_forces(), paranoid.gather_forces())

    def test_migration_and_borders_bump_epoch(self):
        """exchange() drops the epoch, borders() installs a new one;
        forward() reuses."""
        sim = _lj_sim(seed=12, pattern=self.pattern)
        sim.setup()
        ex = sim.exchange
        epoch = ex._epoch
        ex.forward()
        assert ex._epoch is epoch  # replay does not invalidate
        ex.exchange()
        assert ex._epoch is None  # migration does
        ex.borders()
        assert ex._epoch is not None and ex._epoch is not epoch  # reneighboring renews
        renewed = ex._epoch
        ex.borders()
        assert ex._epoch is not renewed  # ... every time

    def test_replay_without_a_border_stage_is_a_typed_error(self):
        """After exchange() the old epoch's rows index atoms that have
        moved: every replay and schedule refuses, naming the missing
        borders(), instead of gathering through them."""
        sim = _lj_sim(seed=12, pattern=self.pattern, steps=4)
        ex = sim.exchange
        ex.exchange()
        scalars = {r: np.zeros(ex.atoms_of(r).ntotal) for r in range(ex.world.size)}
        for replay in (
            ex.forward,
            ex.reverse,
            lambda: scalar_phase(ex.forward_scalar_world, scalars),
            lambda: scalar_phase(ex.reverse_sum_scalar_world, scalars),
            lambda: rank_messages(ex, 0, 24, True),
            ex.messages_per_rank,
        ):
            with pytest.raises(NoEpochError, match=r"borders\(\)"):
                replay()
        ex.borders()
        ex.forward()

    def test_epoch_names_the_arena_layout_it_was_written_against(self):
        """World tables are arena row numbers: once a rank outgrows its
        slab every row has moved, and a replay must refuse — typed, naming
        borders() — rather than gather through the old numbers.  A fresh
        border stage recovers: ghosts and forces as on an undisturbed twin."""
        sim = _lj_sim(seed=12, pattern=self.pattern, steps=4)
        twin = _lj_sim(seed=12, pattern=self.pattern, steps=4)
        ex = sim.exchange
        grown = sim.atoms_of(3)
        x_before = grown.x.copy()
        grown.reserve(grown.capacity + 1)
        assert np.array_equal(grown.x, x_before) and grown.grow_events == 1
        assert ex.arena.relayouts == 1 and ex.plan_stats()["pool_grow_events"] == 1
        scalars = {r: np.zeros(ex.atoms_of(r).ntotal) for r in range(ex.world.size)}
        for replay in (
            ex.forward,
            ex.reverse,
            lambda: scalar_phase(ex.forward_scalar_world, scalars),
            lambda: scalar_phase(ex.reverse_sum_scalar_world, scalars),
        ):
            with pytest.raises(NoEpochError, match=r"layout.*borders\(\)"):
                replay()
        rng = np.random.default_rng(0)
        for each in (sim, twin):
            each.exchange.borders()
        for r in range(ex.world.size):
            a, b = sim.atoms_of(r), twin.atoms_of(r)
            a.f[...] = rng.normal(size=a.f.shape)
            b.f[...] = a.f
        for each in (sim, twin):
            each.exchange.forward()
            each.exchange.reverse()
        for r in range(ex.world.size):
            a, b = sim.atoms_of(r), twin.atoms_of(r)
            assert np.array_equal(a.tag, b.tag)
            assert np.array_equal(a.x.view(np.int64), b.x.view(np.int64))
            assert np.array_equal(a.f.view(np.int64), b.f.view(np.int64))
        assert twin.exchange.arena.relayouts == 0

    def test_failed_border_stage_installs_no_epoch(self):
        """A border message lost for longer than the retry budget escalates
        mid-stage: a typed error, and nothing half-written to replay."""
        sim = _lj_sim(seed=12, pattern=self.pattern, steps=4)
        ex = sim.exchange
        assert ex._epoch is not None
        lost = FaultSpec(kind="drop", probability=0.2, count=1, severity=50, phases=("border",))
        plan = FaultPlan(seed=3, policy=RetryPolicy(max_retries=3), faults=(lost,))
        assert not plan.absorbable()
        with FAULTS.inject(plan):
            with pytest.raises(RetryExhaustedError):
                ex.borders()
        assert ex._epoch is None and ex.retries == 3
        with pytest.raises(NoEpochError):
            ex.forward()

    def test_plan_builds_track_reneighborings(self):
        """One plan build per borders epoch, not per phase."""
        sim = _lj_sim(seed=13, pattern=self.pattern)
        sim.run(10)  # neighbor_every=3 -> setup + 3 rebuilds
        stats = sim.exchange.plan_stats()
        assert stats["plan_builds"] == 1 + sim.rebuilds
        assert stats["fastpath_phases"] > 0
        assert stats["pool_grow_events"] == 0

    def test_stale_plan_never_survives_reneighbor(self):
        """Ghosts after a mid-run reneighbor match a from-scratch build.

        If a stale gather plan survived, the replayed ghost region would
        come from pre-migration atom rows and drift from an exchange
        that never cached anything.
        """
        # Step 6 reneighbors and positions only drift on the *next*
        # step, so border-time routes and current atoms still agree —
        # the precondition for comparing against a from-scratch build.
        sim = _lj_sim(seed=14, steps=6, pattern=self.pattern)
        x_state = {
            r: sim.atoms_of(r).x[: sim.atoms_of(r).nlocal].copy()
            for r in range(sim.world.size)
        }
        sim.exchange.forward()
        # A fresh exchange over a copy of the same owned atoms: borders
        # from scratch, no history to be stale about.
        world, domain = build_world((2, 2, 2))
        for r in range(world.size):
            src = sim.atoms_of(r)
            dst = world.ranks[r].state["atoms"]
            n = src.nlocal
            dst.set_local(x_state[r], src.v[:n].copy(), src.tag[:n].copy())
        fresh = self.fresh_exchange(world, domain, sim.exchange.rcomm)
        fresh.borders()
        for r in range(world.size):
            a, b = sim.atoms_of(r), fresh.atoms_of(r)
            ghosts_a = {
                (int(t), p.tobytes())
                for t, p in zip(a.tag[a.nlocal :], a.x[a.nlocal :])
            }
            ghosts_b = {
                (int(t), p.tobytes())
                for t, p in zip(b.tag[b.nlocal :], b.x[b.nlocal :])
            }
            assert ghosts_a == ghosts_b


class TestPlanInvalidationThreeStage(TestPlanInvalidation):
    pattern = "3stage"
    fresh_exchange = staticmethod(ThreeStageExchange)


class TestFastSlowEquivalence:
    pattern = "p2p"
    routes_per_rank_full_shell = 26

    def test_traced_slow_path_is_bit_identical(self):
        """TRACER on (slow per-route path) == TRACER off (fast path)."""
        fast = _lj_sim(seed=15, pattern=self.pattern)
        slow = _lj_sim(seed=15, pattern=self.pattern)
        fast.run(6)
        with tracing():
            slow.run(6)
        assert np.array_equal(fast.gather_positions(), slow.gather_positions())
        assert np.array_equal(fast.gather_forces(), slow.gather_forces())

    def test_scalar_phases_share_the_plan(self):
        """EAM's per-atom scalar forward/reverse ride the same plan."""
        from repro.md.presets import PRESETS

        fast = PRESETS["eam"].simulation(
            (4, 4, 4), (2, 2, 2), pattern=self.pattern, rdma=False, thermo_every=0
        )
        slow = PRESETS["eam"].simulation(
            (4, 4, 4), (2, 2, 2), pattern=self.pattern, rdma=False, thermo_every=0
        )
        fast.run(4)
        with tracing():
            slow.run(4)
        assert np.array_equal(fast.gather_positions(), slow.gather_positions())
        assert np.array_equal(fast.gather_forces(), slow.gather_forces())

    def _assert_planes_agree(self, observed=tracing, **kw):
        """Direct plane (plain run) == the plane an observed run selects."""
        fast = _lj_sim(seed=16, pattern=self.pattern, **kw)
        slow = _lj_sim(seed=16, pattern=self.pattern, **kw)
        fast.run(6)
        with observed():
            slow.run(6)
        assert fast.exchange.plan_stats()["slowpath_phases"] == 0
        assert slow.exchange.plan_stats()["slowpath_phases"] > 0
        assert np.array_equal(fast.gather_positions(), slow.gather_positions())
        assert np.array_equal(fast.gather_forces(), slow.gather_forces())
        return slow

    def test_full_shell_mailbox_plane_is_bit_identical(self):
        """newton=False: 26 routes per rank through the shared pack."""
        slow = self._assert_planes_agree(newton=False)
        per_rank = slow.exchange.messages_per_rank().values()
        assert all(n == self.routes_per_rank_full_shell for n in per_rank)

    @pytest.mark.parametrize("newton", [True, False], ids=["newton-on", "newton-off"])
    def test_armed_but_silent_fault_session_is_bit_identical(self, newton):
        """An armed message-fault plane gets the mailbox, and the same bits."""
        slow = self._assert_planes_agree(observed=armed_but_silent, newton=newton)
        assert slow.exchange._gate_blocks["faults"] > 0

    def test_radius_two_planes_agree(self):
        """Long-cutoff schedules (62 neighbours / 12 swaps) on both planes."""
        self._assert_planes_agree(shell_radius=2)

    def test_rdma_plane_is_bit_identical(self):
        """rdma=True: PUT + fence + ring drain == the direct slice copies."""
        slow = self._assert_planes_agree(rdma=True)
        # The traced vector phases rode the rdma plane, not the mailbox.
        assert slow.exchange.plan_stats()["fastpath_phases"] > 0
        assert slow.world.transport.log.count("forward") == 0

    def test_box_edge_guard(self):
        """The shared fixtures still decompose as the suite assumes."""
        assert BOX_EDGE / 2 >= 1.55 + 0.3


class TestFastSlowEquivalenceThreeStage(TestFastSlowEquivalence):
    pattern = "3stage"
    routes_per_rank_full_shell = 6  # one per swap, whatever the list type
    test_rdma_plane_is_bit_identical = None  # 3-stage has no rdma flavour
