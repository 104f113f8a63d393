"""Section 3.5 optimizations: message combine, border bins, topo map."""

import itertools

import numpy as np
import pytest

from repro.core import (
    BorderBins,
    JobShape,
    MessageFormatError,
    TopoMap,
    combine,
    split,
    write_into,
)
from repro.core.patterns import half_shell_offsets, shell_offsets
from repro.md.region import SubBox


class TestMessageCombine:
    def test_roundtrip_flat(self):
        payload = np.arange(7.0)
        assert np.array_equal(split(combine(payload)), payload)

    def test_roundtrip_shaped(self):
        payload = np.arange(12.0).reshape(4, 3)
        out = split(combine(payload), trailing_shape=(3,))
        assert np.array_equal(out, payload)

    def test_empty_payload(self):
        out = split(combine(np.empty(0)))
        assert out.size == 0

    def test_single_message_not_two(self):
        """The whole point (3.5.1): length + content in ONE buffer."""
        msg = combine(np.arange(5.0))
        assert msg.shape == (6,)
        assert msg[0] == 5.0

    def test_oversized_buffer_decodes_live_prefix(self):
        """Receiver buffers are maximally sized; only the prefix is live."""
        buf = np.full(100, -1.0)
        n = write_into(buf, np.arange(6.0))
        assert n == 7
        assert np.array_equal(split(buf), np.arange(6.0))

    def test_write_into_rejects_overflow(self):
        buf = np.zeros(4)
        with pytest.raises(MessageFormatError):
            write_into(buf, np.arange(10.0))

    def test_corrupt_length_rejected(self):
        msg = combine(np.arange(3.0))
        msg[0] = 99.0  # claims more than physically present
        with pytest.raises(MessageFormatError):
            split(msg)
        msg[0] = -1.0
        with pytest.raises(MessageFormatError):
            split(msg)
        msg[0] = 2.5
        with pytest.raises(MessageFormatError):
            split(msg)

    def test_shape_mismatch_rejected(self):
        msg = combine(np.arange(7.0))
        with pytest.raises(MessageFormatError):
            split(msg, trailing_shape=(3,))

    def test_non_1d_rejected(self):
        with pytest.raises(MessageFormatError):
            split(np.zeros((2, 2)))


@pytest.fixture
def sub():
    return SubBox((0.0, 0.0, 0.0), (10.0, 10.0, 10.0), (1, 1, 1), (3, 3, 3))


class TestBorderBins:
    def test_routing_matches_bruteforce(self, sub):
        """Bin-accelerated routing == 13 brute-force border_mask sweeps."""
        offsets = [tuple(-o for o in off) for off in half_shell_offsets(1)]
        bins = BorderBins(sub, rcomm=2.0, send_offsets=offsets)
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 10, size=(400, 3))
        routed = bins.route(x)
        for k, off in enumerate(offsets):
            brute = np.flatnonzero(sub.border_mask(x, off, 2.0))
            assert np.array_equal(routed[k], brute)

    def test_full_shell_routing(self, sub):
        offsets = shell_offsets(1)
        bins = BorderBins(sub, rcomm=1.5, send_offsets=offsets)
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 10, size=(300, 3))
        routed = bins.route(x)
        for k, off in enumerate(offsets):
            brute = np.flatnonzero(sub.border_mask(x, off, 1.5))
            assert np.array_equal(routed[k], brute)

    def test_interior_atom_goes_nowhere(self, sub):
        bins = BorderBins(sub, rcomm=2.0, send_offsets=shell_offsets(1))
        routed = bins.route(np.array([[5.0, 5.0, 5.0]]))
        assert all(r.size == 0 for r in routed)

    def test_corner_atom_goes_to_seven_neighbors(self, sub):
        """A corner-region atom is needed by 7 neighbors (3 faces, 3
        edges, 1 corner)."""
        bins = BorderBins(sub, rcomm=2.0, send_offsets=shell_offsets(1))
        routed = bins.route(np.array([[9.5, 9.5, 9.5]]))
        assert sum(r.size for r in routed) == 7

    def test_bin_ids_in_range(self, sub):
        bins = BorderBins(sub, rcomm=2.0, send_offsets=shell_offsets(1))
        rng = np.random.default_rng(7)
        ids = bins.bin_of(rng.uniform(0, 10, size=(100, 3)))
        assert ids.min() >= 0 and ids.max() < 27

    def test_exact_beyond_half_the_edge(self, sub):
        """rcomm = 0.6 a: atoms sit in both borders of an axis, and the
        six-flag routing still equals the brute-force masks."""
        offsets = shell_offsets(1)
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 10, size=(400, 3))
        routed = BorderBins(sub, 6.0, offsets).route(x)
        both = np.intersect1d(
            routed[offsets.index((-1, 0, 0))], routed[offsets.index((1, 0, 0))]
        )
        assert both.size  # the atoms a ternary digit would lose
        for k, off in enumerate(offsets):
            brute = np.flatnonzero(sub.border_mask(x, off, 6.0))
            assert np.array_equal(routed[k], brute)

    def test_rcomm_exceeding_subbox_rejected(self, sub):
        with pytest.raises(ValueError):
            BorderBins(sub, 11.0, shell_offsets(1))

    def test_invalid_rcomm(self, sub):
        with pytest.raises(ValueError):
            BorderBins(sub, 0.0, shell_offsets(1))


class TestTopoMap:
    def test_rank_grid_is_4x_nodes(self):
        job = JobShape((8, 12, 8))  # the paper's 768-node shape
        assert job.node_count == 768
        assert job.rank_grid() == (16, 24, 8)  # 2x2x1 brick

    def test_node_of_rank(self):
        tm = TopoMap(JobShape((4, 6, 4)))
        assert tm.node_of_rank((0, 0, 0)) == (0, 0, 0)
        assert tm.node_of_rank((1, 1, 0)) == (0, 0, 0)  # same node
        assert tm.node_of_rank((2, 0, 0)) == (1, 0, 0)

    def test_local_index_distinguishes_ranks_in_node(self):
        tm = TopoMap(JobShape((4, 6, 4)))
        locals_ = {
            tm.local_index((x, y, 0)) for x in range(2) for y in range(2)
        }
        assert locals_ == {0, 1, 2, 3}

    def test_same_node_is_zero_hops(self):
        tm = TopoMap(JobShape((4, 6, 4)))
        assert tm.hops_between((0, 0, 0), (1, 1, 0)) == 0

    def test_face_neighbors_are_close(self):
        """The topo-map guarantee (3.5.3): decomposition neighbors sit at
        most a couple of physical hops away, from every rank."""
        tm = TopoMap(JobShape((4, 6, 4)))
        for pos in itertools.product(*(range(g) for g in tm.rank_grid)):
            for off in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
                assert tm.neighbor_hops(pos, off) <= 2, (pos, off)

    def test_rank_outside_grid_rejected(self):
        tm = TopoMap(JobShape((4, 6, 4)))
        with pytest.raises(ValueError):
            tm.node_of_rank((99, 0, 0))

    def test_job_too_big_for_machine_rejected(self):
        from repro.machine import TofuTopology

        small = TofuTopology((1, 1, 1))
        with pytest.raises(ValueError):
            TopoMap(JobShape((8, 12, 8)), topology=small)

    def test_periodic_wrap_neighbor(self):
        tm = TopoMap(JobShape((4, 6, 4)))
        gx = tm.rank_grid[0]
        # last rank's +x neighbor wraps to rank 0; torus keeps it close
        assert tm.neighbor_hops((gx - 1, 0, 0), (1, 0, 0)) <= 3
