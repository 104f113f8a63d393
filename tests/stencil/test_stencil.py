"""Stencil mini-app tests: the paper's generalization claim."""

import numpy as np
import pytest

from repro.core.patterns import shell_offsets
from repro.machine import FUGAKU
from repro.network import Message, MpiStack, NetworkSimulator, UtofuStack
from repro.runtime import World
from repro.stencil import (
    DistributedField,
    JacobiSolver,
    P2PHalo,
    ThreeStageHalo,
    jacobi_reference,
    make_halo,
)


def make_field(grid=(2, 2, 2), shape=(8, 8, 8), seed=0):
    world = World(int(np.prod(grid)), grid=grid)
    field = DistributedField(world, shape)
    rng = np.random.default_rng(seed)
    field.scatter_global(rng.random(shape))
    return world, field


class TestDistributedField:
    def test_scatter_gather_roundtrip(self):
        world, field = make_field()
        rng = np.random.default_rng(3)
        data = rng.random((8, 8, 8))
        field.scatter_global(data)
        assert np.array_equal(field.gather_global(), data)

    def test_interior_shape(self):
        world, field = make_field(grid=(2, 2, 1), shape=(8, 4, 6))
        assert field.interior(0).shape == (4, 2, 6)
        assert field.full(0).shape == (6, 4, 8)

    def test_indivisible_shape_rejected(self):
        world = World(8, grid=(2, 2, 2))
        with pytest.raises(ValueError):
            DistributedField(world, (9, 8, 8))

    def test_block_thinner_than_halo_rejected(self):
        world = World(8, grid=(2, 2, 2))
        with pytest.raises(ValueError):
            DistributedField(world, (2, 8, 8), halo_width=2)

    def test_send_recv_slab_shapes(self):
        world, field = make_field()
        face = field.send_slab(0, (1, 0, 0))
        assert face.shape == (1, 4, 4)
        edge = field.send_slab(0, (1, -1, 0))
        assert edge.shape == (1, 1, 4)
        corner = field.recv_slab(0, (1, 1, 1))
        assert corner.shape == (1, 1, 1)

    def test_interior_sum_matches_global(self):
        world, field = make_field(seed=5)
        assert field.total_interior_sum() == pytest.approx(
            field.gather_global().sum()
        )


class TestHaloExchanges:
    @pytest.mark.parametrize("pattern", ["p2p", "3stage"])
    def test_halos_match_periodic_neighbors(self, pattern):
        """Every halo cell must equal the periodic global value."""
        world, field = make_field(seed=7)
        data = field.gather_global()
        make_halo(field, pattern).exchange()
        padded = np.pad(data, 1, mode="wrap")
        for rank in range(world.size):
            ix, iy, iz = world.grid_pos_of(rank)
            bx, by, bz = field.block_shape
            want = padded[
                ix * bx : ix * bx + bx + 2,
                iy * by : iy * by + by + 2,
                iz * bz : iz * bz + bz + 2,
            ]
            assert np.array_equal(field.full(rank), want)

    def test_patterns_fill_identical_halos(self):
        w1, f1 = make_field(seed=9)
        w2, f2 = make_field(seed=9)
        P2PHalo(f1).exchange()
        ThreeStageHalo(f2).exchange()
        for rank in range(8):
            assert np.array_equal(f1.full(rank), f2.full(rank))

    def test_message_counts_match_patterns(self):
        world, field = make_field()
        p2p, staged = P2PHalo(field), ThreeStageHalo(field)
        assert p2p.messages_per_exchange() == 26
        assert staged.messages_per_exchange() == 6
        # Section 5: the 26 direct messages over uTofu still beat the six
        # staged MPI swaps on the machine model.
        swaps = [Message(n, h) for n, h in staged.message_schedule()]
        t_staged = NetworkSimulator(MpiStack(), FUGAKU).run_staged(
            [swaps[i : i + 2] for i in range(0, len(swaps), 2)]
        )
        t_p2p = NetworkSimulator(UtofuStack(), FUGAKU).run_round(
            [Message(n, h) for n, h in p2p.message_schedule()]
        )
        assert t_p2p.completion_time < t_staged.completion_time

    def test_3stage_forwarding_grows_messages(self):
        """Later dimensions carry the earlier halos — the stage-2/3
        message growth of Table 1, on a mesh."""
        world, field = make_field(shape=(8, 8, 8))
        sched = ThreeStageHalo(field).message_schedule()
        sizes = [n for n, _ in sched]
        assert sizes[0] < sizes[2] < sizes[4]  # x < y < z slabs

    def test_p2p_schedule_has_face_edge_corner_sizes(self):
        world, field = make_field()
        sizes = sorted({n for n, _ in P2PHalo(field).message_schedule()})
        assert len(sizes) == 3  # corner < edge < face

    def test_total_bytes_match_between_patterns(self):
        """Both patterns deliver the same halo volume; 3-stage sends the
        corner data through intermediate ranks so its wire total equals
        the direct p2p total."""
        w1, f1 = make_field(seed=11)
        w2, f2 = make_field(seed=11)
        P2PHalo(f1).exchange()
        ThreeStageHalo(f2).exchange()
        b1 = w1.transport.log.total_bytes()
        b2 = w2.transport.log.total_bytes()
        assert b1 == b2

    def test_single_rank_periodic_wrap(self):
        world = World(1, grid=(1, 1, 1))
        field = DistributedField(world, (4, 4, 4))
        rng = np.random.default_rng(2)
        data = rng.random((4, 4, 4))
        field.scatter_global(data)
        make_halo(field, "p2p").exchange()
        padded = np.pad(data, 1, mode="wrap")
        assert np.array_equal(field.full(0), padded)

    def test_unknown_pattern(self):
        world, field = make_field()
        with pytest.raises(ValueError):
            make_halo(field, "avian-carrier")


class TestJacobi:
    @pytest.mark.parametrize("pattern", ["p2p", "3stage"])
    def test_matches_reference(self, pattern):
        rng = np.random.default_rng(1)
        data = rng.random((8, 8, 8))
        ref = jacobi_reference(data, 6)
        world = World(8, grid=(2, 2, 2))
        solver = JacobiSolver(world, (8, 8, 8), pattern=pattern)
        solver.set_initial(data)
        solver.run(6)
        assert solver.residual_vs(ref) < 1e-13

    def test_mean_conserved(self):
        rng = np.random.default_rng(4)
        data = rng.random((8, 8, 8))
        world = World(4, grid=(2, 2, 1))
        solver = JacobiSolver(world, (8, 8, 8))
        solver.set_initial(data)
        solver.run(10)
        assert solver.solution().mean() == pytest.approx(data.mean())

    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(6)
        data = rng.random((8, 8, 8))
        world = World(8, grid=(2, 2, 2))
        solver = JacobiSolver(world, (8, 8, 8))
        solver.set_initial(data)
        solver.run(20)
        assert solver.solution().var() < 0.05 * data.var()

    def test_corners_are_load_bearing(self):
        """Zeroing corner halos after the exchange changes the answer —
        proof the 27-point stencil genuinely needs the full shell."""
        rng = np.random.default_rng(8)
        data = rng.random((8, 8, 8))
        ref = jacobi_reference(data, 1)
        world = World(8, grid=(2, 2, 2))
        solver = JacobiSolver(world, (8, 8, 8), pattern="p2p")
        solver.set_initial(data)
        solver.halo.exchange()
        for rank in range(8):
            solver.field.recv_slab(rank, (1, 1, 1))[:] = 0.0  # sabotage
        from repro.stencil.jacobi import _apply_cube

        for rank in range(8):
            solver.field.interior(rank)[:] = _apply_cube(
                solver.field.full(rank), solver.theta, 1
            )
        assert solver.residual_vs(ref) > 1e-6

    def test_invalid_theta(self):
        world = World(1, grid=(1, 1, 1))
        with pytest.raises(ValueError):
            JacobiSolver(world, (4, 4, 4), theta=0.0)

    def test_uniform_field_is_fixed_point(self):
        world = World(8, grid=(2, 2, 2))
        solver = JacobiSolver(world, (8, 8, 8))
        solver.set_initial(np.full((8, 8, 8), 3.5))
        solver.run(3)
        assert np.allclose(solver.solution(), 3.5)


class TestWideHalos:
    """Width-2 halos + the 125-point kernel: the long-cutoff regime on a
    mesh (the stencil analogue of the paper's Fig. 15 scenarios)."""

    @pytest.mark.parametrize("pattern", ["p2p", "3stage"])
    def test_radius2_matches_reference(self, pattern):
        rng = np.random.default_rng(14)
        data = rng.random((8, 8, 8))
        ref = jacobi_reference(data, 4, radius=2)
        world = World(8, grid=(2, 2, 2))
        solver = JacobiSolver(world, (8, 8, 8), pattern=pattern, radius=2)
        solver.set_initial(data)
        solver.run(4)
        assert solver.residual_vs(ref) < 1e-12

    def test_radius2_mean_conserved(self):
        rng = np.random.default_rng(15)
        data = rng.random((8, 8, 8))
        world = World(4, grid=(2, 2, 1))
        solver = JacobiSolver(world, (8, 8, 8), radius=2)
        solver.set_initial(data)
        solver.run(6)
        assert solver.solution().mean() == pytest.approx(data.mean())

    def test_wide_halo_message_sizes_grow(self):
        world = World(8, grid=(2, 2, 2))
        f1 = DistributedField(world, (8, 8, 8), halo_width=1)
        world2 = World(8, grid=(2, 2, 2))
        f2 = DistributedField(world2, (8, 8, 8), halo_width=2)
        b1 = sum(n for n, _ in P2PHalo(f1).message_schedule())
        b2 = sum(n for n, _ in P2PHalo(f2).message_schedule())
        assert b2 > 2 * b1  # wider strips, cubically bigger corners

    def test_invalid_radius(self):
        world = World(1, grid=(1, 1, 1))
        with pytest.raises(ValueError):
            JacobiSolver(world, (4, 4, 4), radius=0)
