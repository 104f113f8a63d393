"""Domain decomposition: grid choice, ownership, scatter."""

import numpy as np
import pytest

from repro.md import Box, Domain, decompose_grid
from repro.runtime import World


@pytest.fixture
def domain():
    return Domain(Box((0, 0, 0), (12, 12, 12)), (3, 2, 2))


class TestGridChoice:
    def test_cube_prefers_cubic_grid(self):
        assert decompose_grid(8, (10, 10, 10)) == (2, 2, 2)
        assert decompose_grid(27, (10, 10, 10)) == (3, 3, 3)

    def test_prime_rank_count(self):
        g = decompose_grid(7, (10, 10, 10))
        assert sorted(g) == [1, 1, 7]

    def test_elongated_box_splits_long_axis(self):
        g = decompose_grid(4, (40.0, 10.0, 10.0))
        assert g == (4, 1, 1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            decompose_grid(0, (1, 1, 1))


class TestSubBoxes:
    def test_sub_lengths(self, domain):
        assert np.allclose(domain.sub_lengths, [4, 6, 6])

    def test_sub_boxes_tile_box(self, domain):
        total = sum(
            domain.sub_box((i, j, k)).volume
            for i in range(3)
            for j in range(2)
            for k in range(2)
        )
        assert total == pytest.approx(domain.box.volume)

    def test_sub_box_metadata(self, domain):
        sb = domain.sub_box((2, 1, 0))
        assert sb.grid_pos == (2, 1, 0)
        assert sb.grid_shape == (3, 2, 2)
        assert sb.lo == (8.0, 6.0, 0.0)

    def test_out_of_grid_rejected(self, domain):
        with pytest.raises(ValueError):
            domain.sub_box((3, 0, 0))

    def test_size(self, domain):
        assert domain.size == 12


class TestOwnership:
    def test_owner_of_interior_points(self, domain):
        gp = domain.owner_grid_pos(np.array([[1.0, 1.0, 1.0], [9.0, 7.0, 7.0]]))
        assert gp.tolist() == [[0, 0, 0], [2, 1, 1]]

    def test_out_of_box_positions_wrap(self, domain):
        gp = domain.owner_grid_pos(np.array([[12.5, -0.5, 0.0]]))
        assert gp.tolist() == [[0, 1, 0]]

    def test_owner_consistent_with_sub_box(self, domain):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 12, size=(200, 3))
        gp = domain.owner_grid_pos(x)
        for pos, point in zip(gp, x):
            assert domain.sub_box(tuple(pos)).contains(point)

    def test_edge_positions_clipped(self, domain):
        # exactly on the global hi edge wraps to 0
        gp = domain.owner_grid_pos(np.array([[12.0, 12.0, 12.0]]))
        assert gp.tolist() == [[0, 0, 0]]

    @pytest.mark.parametrize("x", [
        np.random.default_rng(4).uniform(-6, 18, size=(300, 3)),
        np.array([[12.0, 12.0, 12.0], [11.999999999, 0.0, 6.0]]),  # the high edge
    ])
    def test_owner_rank_numbers_ranks_as_the_world_does(self, domain, x):
        world = World(domain.size, grid=domain.grid)
        want = [world.rank_at(tuple(p)) for p in domain.owner_grid_pos(x)]
        assert domain.owner_rank(x).tolist() == want


class TestScatter:
    def test_scatter_partitions_all_atoms(self, domain):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 12, size=(500, 3))
        groups = domain.scatter(x)
        idx = np.concatenate(list(groups.values()))
        assert sorted(idx.tolist()) == list(range(500))

    def test_scatter_groups_are_owned(self, domain):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 12, size=(300, 3))
        for pos, idx in domain.scatter(x).items():
            assert domain.sub_box(pos).contains(x[idx]).all()

    def test_scatter_empty(self, domain):
        assert domain.scatter(np.empty((0, 3))) == {}

    def test_single_rank_gets_everything(self):
        d = Domain(Box((0, 0, 0), (5, 5, 5)), (1, 1, 1))
        x = np.random.default_rng(3).uniform(0, 5, size=(50, 3))
        groups = d.scatter(x)
        assert list(groups) == [(0, 0, 0)]
        assert len(groups[(0, 0, 0)]) == 50
