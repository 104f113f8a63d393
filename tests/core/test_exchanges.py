"""Ghost-exchange implementations: structure, traffic accounting, and the
central equivalence guarantees (every pattern produces the same physics)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LennardJones, SerialReference, quick_lj_simulation
from repro.core import FineGrainedP2PExchange, P2PExchange, ThreeStageExchange
from repro.core.modeling import rank_messages
from repro.core.p2p import check_preregistered
from repro.machine import FUGAKU
from repro.md import Box, Domain
from repro.md.atoms import Atoms
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
from repro.network import UtofuStack
from repro.runtime import World


def build_world(grid, natoms=200, seed=0, box_edge=12.0):
    """A world with random atoms scattered by ownership."""
    world = World(int(np.prod(grid)), grid=grid)
    box = Box((0, 0, 0), (box_edge,) * 3)
    domain = Domain(box, grid)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, box_edge, size=(natoms, 3))
    v = rng.normal(size=(natoms, 3))
    tags = np.arange(natoms, dtype=np.int64)
    groups = domain.scatter(x)
    for rank in range(world.size):
        pos = world.grid_pos_of(rank)
        idx = groups.get(pos, np.empty(0, dtype=np.intp))
        atoms = Atoms()
        atoms.set_local(x[idx], v[idx], tags[idx])
        world.ranks[rank].state["atoms"] = atoms
    return world, domain, x, tags


class TestP2PStructure:
    def test_thirteen_messages_per_rank(self):
        world, domain, _, _ = build_world((2, 2, 2))
        ex = P2PExchange(world, domain, rcomm=2.0)
        ex.borders()
        assert all(n == 13 for n in ex.messages_per_rank().values())

    def test_full_shell_26_messages(self):
        world, domain, _, _ = build_world((2, 2, 2))
        ex = P2PExchange(world, domain, rcomm=2.0, newton=False)
        ex.borders()
        assert all(n == 26 for n in ex.messages_per_rank().values())

    def test_ghosts_within_rcomm_of_subbox(self):
        """Every received ghost genuinely lies in the ghost shell."""
        world, domain, _, _ = build_world((3, 2, 2), natoms=600)
        ex = P2PExchange(world, domain, rcomm=1.5)
        ex.borders()
        for rank in range(world.size):
            atoms = ex.atoms_of(rank)
            sub = ex.sub_box_of(rank)
            gx = atoms.x[atoms.nlocal :]
            lo = np.asarray(sub.lo) - 1.5
            hi = np.asarray(sub.hi) + 1.5
            assert np.all((gx >= lo - 1e-9) & (gx < hi + 1e-9))

    def test_half_shell_ghosts_complete(self):
        """Every (local atom, remote atom) pair within rcomm appears on
        exactly one rank as (local, ghost)."""
        world, domain, x, tags = build_world((2, 2, 2), natoms=300)
        ex = P2PExchange(world, domain, rcomm=2.0)
        ex.borders()
        box = domain.box
        # All physical pairs within rcomm under minimum image:
        iu, ju = np.triu_indices(x.shape[0], k=1)
        d = box.minimum_image(x[iu] - x[ju])
        close = np.einsum("ij,ij->i", d, d) < 2.0**2
        want = {(int(a), int(b)) for a, b in zip(iu[close], ju[close])}
        # Pairs visible on some rank as local-local or local-ghost:
        got = set()
        for rank in range(world.size):
            atoms = ex.atoms_of(rank)
            xx = atoms.x
            n = atoms.ntotal
            for i in range(atoms.nlocal):
                dd = xx[i] - xx
                r2 = np.einsum("ij,ij->i", dd, dd)
                for j in np.flatnonzero(r2 < 4.0):
                    if j == i:
                        continue
                    if j < atoms.nlocal and j < i:
                        continue  # counted from the other end
                    if j >= atoms.nlocal or j > i:
                        got.add(tuple(sorted((int(atoms.tag[i]), int(atoms.tag[j])))))
        assert want <= got

    def test_traffic_volume_matches_table1_half(self):
        """Measured border traffic equals the analytic half-shell volume
        within statistical fluctuation."""
        world, domain, x, _ = build_world((2, 2, 2), natoms=4000)
        ex = P2PExchange(world, domain, rcomm=1.2)
        ex.borders()
        from repro.core import half_shell_volume

        density = x.shape[0] / domain.box.volume
        a = float(domain.sub_lengths[0])
        expected_atoms = half_shell_volume(a, 1.2) * density * world.size
        total_ghosts = sum(ex.ghost_counts().values())
        assert total_ghosts == pytest.approx(expected_atoms, rel=0.12)


class TestThreeStageStructure:
    def test_six_swaps_per_rank(self):
        world, domain, _, _ = build_world((2, 2, 2))
        ex = ThreeStageExchange(world, domain, rcomm=2.0)
        ex.borders()
        assert all(n == 6 for n in ex.messages_per_rank().values())

    def test_full_shell_ghost_count_double_of_p2p(self):
        w1, d1, _, _ = build_world((2, 2, 2), natoms=3000, seed=4)
        w2, d2, _, _ = build_world((2, 2, 2), natoms=3000, seed=4)
        e3 = ThreeStageExchange(w1, d1, rcomm=1.2)
        ep = P2PExchange(w2, d2, rcomm=1.2)
        e3.borders()
        ep.borders()
        g3 = sum(e3.ghost_counts().values())
        gp = sum(ep.ghost_counts().values())
        assert g3 == pytest.approx(2 * gp, rel=0.03)

    def test_corner_ghosts_arrive_via_forwarding(self):
        """An atom in a corner region must reach the diagonal neighbor
        even though the 3-stage never sends diagonally."""
        world, domain, _, _ = build_world((2, 2, 2), natoms=0, box_edge=8.0)
        corner_pos = np.array([[3.9, 3.9, 3.9]])  # corner of rank 0's box
        a0 = world.ranks[0].state["atoms"]
        a0.set_local(corner_pos, np.zeros((1, 3)), np.array([777]))
        ex = ThreeStageExchange(world, domain, rcomm=1.0)
        ex.borders()
        # Rank 7 owns [4,8)^3 and must see tag 777 as a ghost.
        a7 = ex.atoms_of(7)
        assert 777 in a7.tag[a7.nlocal :]


FULL_SHELL = {
    "3stage": ThreeStageExchange,
    "p2p-full": lambda w, d, **kw: P2PExchange(w, d, newton=False, **kw),
}


class TestShellWithinReach:
    """(4, 2, 2) ranks of a 12 sigma box: the thinnest sub-box edge is 3."""

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("pattern", list(FULL_SHELL))
    def test_shell_beyond_the_schedules_reach_is_refused(self, pattern, radius):
        """rcomm > radius x sub-box edge used to return with ghosts missing
        (only ``Simulation`` guarded it)."""
        world, domain, _, _ = build_world((4, 2, 2), natoms=400, seed=2)
        with pytest.raises(ValueError, match="exceeds shell_radius"):
            FULL_SHELL[pattern](world, domain, rcomm=3.0 * radius + 0.5, radius=radius)

    @pytest.mark.parametrize("pattern", list(FULL_SHELL))
    def test_radius_two_shell_is_complete(self, pattern):
        """rcomm 3.5 at radius 2: every periodic image inside the shell
        of a rank's sub-box arrives, exactly once."""
        world, domain, x, tags = build_world((4, 2, 2), natoms=400, seed=2)
        ex = FULL_SHELL[pattern](world, domain, rcomm=3.5, radius=2)
        ex.borders()
        images = [
            (int(t), *np.round(p + 12.0 * np.array(s), 9))
            for s in np.ndindex(3, 3, 3)
            for t, p in zip(tags, x - 12.0)
        ]
        for rank in range(world.size):
            sub, atoms = ex.sub_box_of(rank), ex.atoms_of(rank)
            lo, hi = np.array(sub.lo) - 3.5, np.array(sub.hi) + 3.5
            owned = set(atoms.tag[: atoms.nlocal].tolist())
            want = sorted(
                im for im in images
                if np.all(im[1:] >= lo) and np.all(im[1:] < hi)
                and not (im[0] in owned and sub.contains(np.array([im[1:]]))[0])
            )
            got = sorted(
                (int(t), *np.round(p, 9))
                for t, p in zip(atoms.tag[atoms.nlocal :], atoms.x[atoms.nlocal :])
            )
            assert got == want


class TestForwardReverse:
    @pytest.mark.parametrize("make", [
        lambda w, d: ThreeStageExchange(w, d, rcomm=2.0),
        lambda w, d: P2PExchange(w, d, rcomm=2.0),
        lambda w, d: P2PExchange(w, d, rcomm=2.0, rdma=True),
        lambda w, d: FineGrainedP2PExchange(w, d, rcomm=2.0),
    ])
    def test_forward_updates_ghost_positions(self, make):
        world, domain, _, _ = build_world((2, 2, 2), natoms=400, seed=5)
        ex = make(world, domain)
        ex.borders()
        ghost_before = {
            r: ex.atoms_of(r).x[ex.atoms_of(r).nlocal :].copy() for r in range(8)
        }
        # Move every local atom a tiny bit, then forward.
        for r in range(8):
            ex.atoms_of(r).x_local()[:] += 0.01
        ex.forward()
        for r in range(8):
            atoms = ex.atoms_of(r)
            after = atoms.x[atoms.nlocal :]
            assert np.allclose(after, ghost_before[r] + 0.01)

    @pytest.mark.parametrize("make", [
        lambda w, d: ThreeStageExchange(w, d, rcomm=2.0),
        lambda w, d: P2PExchange(w, d, rcomm=2.0),
        lambda w, d: P2PExchange(w, d, rcomm=2.0, rdma=True),
    ])
    def test_reverse_conserves_total_force(self, make):
        """Reverse moves ghost force to owners without creating any."""
        world, domain, _, _ = build_world((2, 2, 2), natoms=400, seed=6)
        ex = make(world, domain)
        ex.borders()
        rng = np.random.default_rng(0)
        total = np.zeros(3)
        for r in range(8):
            atoms = ex.atoms_of(r)
            atoms._f[: atoms.ntotal] = rng.normal(size=(atoms.ntotal, 3))
            total += atoms.f.sum(axis=0)
        ex.reverse()
        after = np.zeros(3)
        for r in range(8):
            after += ex.atoms_of(r).f_local().sum(axis=0)
        # Ghost rows may retain stale values; only local rows count after
        # a reverse.  Total force over owners == previous total over all.
        assert np.allclose(after, total, atol=1e-9)

    def test_rdma_and_message_planes_identical(self):
        w1, d1, _, _ = build_world((2, 2, 2), natoms=400, seed=7)
        w2, d2, _, _ = build_world((2, 2, 2), natoms=400, seed=7)
        msg = P2PExchange(w1, d1, rcomm=2.0, rdma=False)
        rdma = P2PExchange(w2, d2, rcomm=2.0, rdma=True)
        msg.borders()
        rdma.borders()
        for r in range(8):
            ex_pair = (msg.atoms_of(r), rdma.atoms_of(r))
            assert np.allclose(ex_pair[0].x, ex_pair[1].x)
        for r in range(8):
            msg.atoms_of(r).x_local()[:] += 0.05
            rdma.atoms_of(r).x_local()[:] += 0.05
        msg.forward()
        rdma.forward()
        for r in range(8):
            assert np.allclose(msg.atoms_of(r).x, rdma.atoms_of(r).x)

    def test_rdma_no_reregistration_during_run(self):
        """Pre-sizing keeps registration one-time across reborders."""
        world, domain, _, _ = build_world((2, 2, 2), natoms=400, seed=8)
        ex = P2PExchange(world, domain, rcomm=2.0, rdma=True)
        for _ in range(4):
            ex.exchange()
            ex.borders()
            ex.forward()
            ex.reverse()
        assert check_preregistered(ex)[0]

    def test_registration_is_of_the_slab_and_moves_with_a_relayout(self):
        """``lj-strong-27r``: a rank's registered arrays are its slab of
        the shared arena — views, every slicing a new object — so what is
        compared is address and extent.  Three epochs register nothing
        again; one forced re-layout moves every slab, and the next border
        stage re-registers each rank exactly once.  While the layout
        stands no slab can have moved, so no address is even compared."""
        from repro.md.presets import PRESETS

        sim = PRESETS["lj"].simulation((6, 6, 6), (3, 3, 3), seed=12345)
        ex = sim.exchange
        assert ex.rdma
        sim.setup()
        compared = []
        for rank, endpoint in ex.endpoints.items():
            endpoint.revalidate = lambda *a, _r=rank, _f=endpoint.revalidate: (
                compared.append(_r) or _f(*a)
            )
        sim.run(45)
        assert sim.rebuilds == 2 and ex.plan_stats()["plan_builds"] == 3
        assert ex.reregistrations == 0 and compared == []
        regions = [ex.endpoints[r].x_region for r in range(27)]
        for rank in range(27):
            atoms = sim.atoms_of(rank)
            assert np.shares_memory(regions[rank].data, ex.arena.x)
            assert regions[rank].data.size == 3 * atoms.capacity
        sim.run(14)  # ... to the eve of the rebuild at step 60
        sim.atoms_of(5).reserve(sim.atoms_of(5).capacity + 1)
        assert ex.plan_stats()["pool_grow_events"] == 1
        sim.run(1)  # migration, borders: every endpoint revalidates
        assert sim.rebuilds == 3 and ex.reregistrations == 27
        assert sorted(compared) == list(range(27))
        assert all(ex.endpoints[r].x_region is not regions[r] for r in range(27))
        sim.run(20)
        assert sim.rebuilds == 4 and ex.reregistrations == 27 and len(compared) == 27


class TestExchangeMigration:
    @pytest.mark.parametrize("make", [
        lambda w, d: ThreeStageExchange(w, d, rcomm=2.0),
        lambda w, d: P2PExchange(w, d, rcomm=2.0),
    ])
    def test_atoms_conserved_and_owned(self, make):
        world, domain, _, _ = build_world((2, 2, 2), natoms=500, seed=9)
        ex = make(world, domain)
        # Push some atoms across boundaries.
        rng = np.random.default_rng(1)
        for r in range(8):
            atoms = ex.atoms_of(r)
            atoms.x_local()[:] += rng.normal(0, 1.0, size=(atoms.nlocal, 3))
        ex.exchange()
        tags = []
        for r in range(8):
            atoms = ex.atoms_of(r)
            sub = ex.sub_box_of(r)
            assert sub.contains(atoms.x_local()).all()
            tags.extend(atoms.tag[: atoms.nlocal].tolist())
        assert sorted(tags) == list(range(500))
        world.transport.assert_drained()

    def test_velocities_travel_with_atoms(self):
        world, domain, _, _ = build_world((2, 2, 2), natoms=100, seed=10)
        before = {}
        for r in range(8):
            atoms = ex_atoms = world.ranks[r].state["atoms"]
            for t, vv in zip(atoms.tag[: atoms.nlocal], atoms.v):
                before[int(t)] = vv.copy()
        ex = P2PExchange(world, domain, rcomm=2.0)
        for r in range(8):
            ex.atoms_of(r).x_local()[:] += 3.0
        ex.exchange()
        for r in range(8):
            atoms = ex.atoms_of(r)
            for t, vv in zip(atoms.tag[: atoms.nlocal], atoms.v):
                assert np.allclose(vv, before[int(t)])


def migration_world(grid, x, box_edge):
    """A p2p exchange over ``x`` scattered by ownership; velocities seeded,
    tags the input rows, species ``tag % 3``."""
    world = World(int(np.prod(grid)), grid=grid)
    domain = Domain(Box((0, 0, 0), (box_edge,) * 3), grid)
    v = np.random.default_rng(len(x)).normal(size=x.shape)
    groups = domain.scatter(x)
    for rank in range(world.size):
        idx = groups.get(world.grid_pos_of(rank), np.empty(0, dtype=np.intp))
        atoms = Atoms()
        atoms.set_local(x[idx], v[idx], idx.astype(np.int64), (idx % 3).astype(np.int32))
        world.ranks[rank].state["atoms"] = atoms
    return P2PExchange(world, domain, rcomm=2.0)


def locals_of(ex):
    """Each rank's ``(x, v, tag, type)`` of its local rows, copied."""
    out = []
    for r in range(ex.world.size):
        a = ex.atoms_of(r)
        n = a.nlocal
        out.append((a.x[:n].copy(), a.v.copy(), a.tag[:n].copy(), a.type[:n].copy()))
    return out


def assert_migration_order(ex, before):
    """Rank ``d``'s locals after ``exchange()``: the rows it kept in their
    old order, then arrivals by ascending source rank, each in its
    source's row order; positions wrapped, nothing else changed."""
    box, size = ex.domain.box, ex.world.size
    dest = [ex.domain.owner_rank(box.wrap(x)) for x, _, _, _ in before]
    tags = []
    for d in range(size):
        sources = [d, *(s for s in range(size) if s != d)]
        parts = [[col[dest[s] == d] for col in before[s]] for s in sources]
        x, v, tag, type_ = (np.concatenate(col) for col in zip(*parts))
        a = ex.atoms_of(d)
        assert a.nghost == 0 and a.nlocal == len(tag)
        assert np.array_equal(a.tag, tag) and np.array_equal(a.type, type_)
        assert np.array_equal(a.x, box.wrap(x)) and np.array_equal(a.v, v)
        assert ex.sub_box_of(d).contains(a.x).all()
        tags.extend(a.tag.tolist())
    assert sorted(tags) == sorted(t for _, _, tag, _ in before for t in tag.tolist())


class TestMigrationOrder:
    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.sampled_from([(1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 3, 3)]),
        natoms=st.integers(0, 60),  # few atoms on 27 ranks: many hold none
        scale=st.sampled_from([0.5, 3.0, 12.0]),  # next sub-box, further, past the box
        borders_first=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_kept_then_arrivals_by_source(self, grid, natoms, scale, borders_first, seed):
        rng = np.random.default_rng(seed)
        ex = migration_world(grid, rng.uniform(0, 9.0, size=(natoms, 3)), 9.0)
        if borders_first:  # ghosts present, the arena adopted
            ex.borders()
        for r in range(ex.world.size):
            a = ex.atoms_of(r)
            a.x_local()[:] += rng.normal(0, scale, size=(a.nlocal, 3))
        before = locals_of(ex)
        ex.exchange()
        assert_migration_order(ex, before)
        ex.world.transport.assert_drained()

    def test_a_slab_outgrowing_its_capacity_relays_the_arena_once(self):
        ex = migration_world((2, 2, 2), np.random.default_rng(5).uniform(0, 12.0, (500, 3)), 12.0)
        ex.borders()
        capacity = ex.atoms_of(6).capacity
        rng = np.random.default_rng(6)
        lo = np.asarray(ex.sub_box_of(6).lo)
        for r in range(8):  # every atom into rank 6's sub-box
            a = ex.atoms_of(r)
            a.x_local()[:] = lo + rng.uniform(0.5, 5.5, size=(a.nlocal, 3))
        before = locals_of(ex)
        relayouts = ex.arena.relayouts
        ex.exchange()
        assert ex.atoms_of(6).nlocal == 500 > capacity
        assert ex.arena.relayouts == relayouts + 1
        assert_migration_order(ex, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_position_names_rank_and_atom(self, bad):
        ex = migration_world((2, 2, 2), np.random.default_rng(7).uniform(0, 12.0, (80, 3)), 12.0)
        a = ex.atoms_of(5)
        a.x_local()[1, 2] = bad
        tag = int(a.tag[1])
        before = locals_of(ex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"rank 5 holds atom {tag} at a non-finite"):
                ex.exchange()
        for (x, v, tags, types), (x1, v1, tags1, types1) in zip(before, locals_of(ex)):
            assert np.array_equal(x, x1, equal_nan=True) and np.array_equal(v, v1)
            assert np.array_equal(tags, tags1) and np.array_equal(types, types1)


class TestFineGrained:
    def test_functionally_identical_to_p2p(self):
        w1, d1, _, _ = build_world((2, 2, 2), natoms=300, seed=11)
        w2, d2, _, _ = build_world((2, 2, 2), natoms=300, seed=11)
        plain = P2PExchange(w1, d1, rcomm=2.0)
        fine = FineGrainedP2PExchange(w2, d2, rcomm=2.0)
        plain.borders()
        fine.borders()
        for r in range(8):
            assert np.allclose(plain.atoms_of(r).x, fine.atoms_of(r).x)

    def test_thread_schedule_covers_all_messages(self):
        world, domain, _, _ = build_world((2, 2, 2), natoms=300, seed=12)
        fine = FineGrainedP2PExchange(world, domain, rcomm=2.0)
        fine.borders()
        msgs = rank_messages(fine, 0, 24, True)
        counts, hops = fine._epoch.plans[0].send_sizes()
        assert len(msgs) == 13
        assert sorted((m.nbytes, m.hops) for m in msgs) == sorted(
            (max(24 * c, 8), h) for c, h in zip(counts, hops)
        )
        assert all(0 <= m.thread < 6 and m.tni == m.thread for m in msgs)

    def test_load_balance_quality(self):
        """Fig. 10's goal: thread loads within ~2x of the mean even with
        faces 10x heavier than corners."""
        world, domain, _, _ = build_world((2, 2, 2), natoms=2000, seed=13)
        fine = FineGrainedP2PExchange(world, domain, rcomm=2.0)
        fine.borders()
        stack = UtofuStack()
        loads = [0.0] * fine.n_comm_threads
        for m in rank_messages(fine, 0, 24, True):
            loads[m.thread] += (
                stack.injection_interval(m.nbytes)
                + stack.software_latency(m.nbytes)
                + FUGAKU.wire_time(m.nbytes, m.hops)
            )
        assert max(loads) / (sum(loads) / len(loads)) < 2.0

    def test_invalid_thread_count(self):
        world, domain, _, _ = build_world((2, 2, 2))
        with pytest.raises(ValueError):
            FineGrainedP2PExchange(world, domain, rcomm=2.0, n_comm_threads=7)


class TestSmallGrids:
    """Degenerate rank grids exercise self-sends and duplicate peers."""

    @pytest.mark.parametrize("grid", [(1, 1, 1), (2, 1, 1), (1, 2, 2)])
    def test_p2p_matches_serial_forces(self, grid):
        edge = lj_density_to_cell(0.8442)
        x, box = fcc_lattice((4, 4, 4), edge)
        v = maxwell_velocities(x.shape[0], 1.44, seed=21)
        ref = SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)
        sim = quick_lj_simulation(cells=(4, 4, 4), ranks=grid, pattern="p2p", seed=21)
        sim.setup()
        assert np.allclose(sim.gather_forces(), ref.f, atol=1e-10)

    def test_p2p_radius2_long_cutoff(self):
        """Sub-box thinner than the shell (Fig. 15's regime): the p2p
        pattern reaches 2 ranks away and still matches the serial
        reference."""
        edge = lj_density_to_cell(0.8442)
        x, box = fcc_lattice((4, 4, 4), edge)
        v = maxwell_velocities(x.shape[0], 1.44, seed=23)
        ref = SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)
        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(4, 1, 1), pattern="p2p", seed=23, shell_radius=2
        )
        sim.setup()
        assert np.allclose(sim.gather_forces(), ref.f, atol=1e-10)
        assert sim.exchange.messages_per_rank()[0] == 62  # half of 124

    @pytest.mark.parametrize("grid", [(1, 1, 1), (2, 2, 1)])
    def test_3stage_matches_serial_forces(self, grid):
        edge = lj_density_to_cell(0.8442)
        x, box = fcc_lattice((4, 4, 4), edge)
        v = maxwell_velocities(x.shape[0], 1.44, seed=22)
        ref = SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)
        sim = quick_lj_simulation(cells=(4, 4, 4), ranks=grid, pattern="3stage", seed=22)
        sim.setup()
        assert np.allclose(sim.gather_forces(), ref.f, atol=1e-10)
