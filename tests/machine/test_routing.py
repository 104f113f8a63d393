"""Dimension-order routing and the topo-map congestion advantage."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JobShape, TopoMap
from repro.core.patterns import half_shell_offsets
from repro.figures import topomap
from repro.machine import TofuCoord, TofuTopology
from repro.machine.routing import (
    CongestionReport,
    link_congestion,
    link_loads,
    neighbor_traffic_pairs,
    route,
)


def as_arrays(pairs):
    """``(src, dst)``, ``(N, 6)`` each, of a list of ``TofuCoord`` pairs."""
    return tuple(
        np.array([pair[k].as_tuple() for pair in pairs], dtype=np.int64) for k in (0, 1)
    )


def congestion_of(topo, pairs):
    """The vector ``link_congestion`` over a list of ``TofuCoord`` pairs."""
    return link_congestion(topo, *as_arrays(pairs))


def oracle_loads(topo, pairs):
    """Per-link loads built one :func:`route` at a time, keyed by link id."""
    return Counter(
        topo.node_index(link.node) * 12 + link.axis * 2 + (link.direction > 0)
        for a, b in pairs
        for link in route(topo, a, b)
    )


@pytest.fixture
def topo():
    return TofuTopology((2, 2, 2))


class TestRoute:
    def test_route_length_equals_hops(self, topo):
        for i in range(0, topo.node_count, 5):
            for j in range(0, topo.node_count, 7):
                a, b = topo.coord_of(i), topo.coord_of(j)
                assert len(route(topo, a, b)) == topo.hops(a, b)

    def test_route_to_self_is_empty(self, topo):
        c = topo.coord_of(3)
        assert route(topo, c, c) == []

    def test_route_links_are_connected(self, topo):
        """Each link starts where the previous one ended."""
        a, b = topo.coord_of(0), topo.coord_of(topo.node_count - 1)
        links = route(topo, a, b)
        current = a
        for link in links:
            assert link.node == current
            vals = list(current.as_tuple())
            vals[link.axis] = (vals[link.axis] + link.direction) % topo.full_shape[
                link.axis
            ]
            current = TofuCoord(*vals)
        assert current == b

    def test_torus_takes_short_way(self):
        topo = TofuTopology((4, 1, 1))
        a = TofuCoord(0, 0, 0, 0, 0, 0)
        b = TofuCoord(3, 0, 0, 0, 0, 0)
        links = route(topo, a, b)
        assert len(links) == 1
        assert links[0].direction == -1  # wraps backwards

    def test_out_of_topology_rejected(self, topo):
        with pytest.raises(ValueError):
            route(topo, TofuCoord(9, 0, 0, 0, 0, 0), topo.coord_of(0))


class TestCongestion:
    def test_empty_report(self, topo):
        rep = congestion_of(topo, [])
        assert rep.max_link_load == 0
        assert rep.mean_hops == 0.0

    def test_disjoint_routes_load_one(self, topo):
        a, b = topo.coord_of(0), topo.coord_of(1)
        c, d = topo.coord_of(10), topo.coord_of(11)
        rep = congestion_of(topo, [(a, b), (c, d)])
        assert rep.max_link_load == 1

    def test_shared_route_counts(self, topo):
        a, b = topo.coord_of(0), topo.coord_of(1)
        rep = congestion_of(topo, [(a, b)] * 5)
        assert rep.max_link_load == 5


@st.composite
def routed_pairs(draw):
    """A small topology (1-3 cells per axis, so size-1 and size-2 tori
    occur) and a list of node pairs on it."""
    topo = TofuTopology(tuple(draw(st.integers(1, 3)) for _ in range(3)))
    node = st.integers(0, topo.node_count - 1).map(topo.coord_of)
    return topo, draw(st.lists(st.tuples(node, node), max_size=12))


class TestVectorRouting:
    """The array pass against the one-route-at-a-time oracle."""

    @settings(max_examples=40, deadline=None)
    @given(routed_pairs())
    def test_matches_route_oracle(self, case):
        topo, pairs = case
        loads = link_loads(topo, *as_arrays(pairs))
        want = oracle_loads(topo, pairs)
        assert {i: int(loads[i]) for i in np.flatnonzero(loads)} == want
        assert congestion_of(topo, pairs) == CongestionReport(
            total_messages=len(pairs),
            total_link_traversals=sum(want.values()),
            max_link_load=max(want.values(), default=0),
            distinct_links=len(want),
        )

    def test_out_of_topology_rejected(self, topo):
        src = np.array([[0, 0, 0, 0, 0, 0]])
        with pytest.raises(ValueError):
            link_congestion(topo, src, np.array([[0, 0, 0, 2, 0, 0]]))

    def test_pairs_match_scalar_placement(self):
        """Rank ``i`` runs where rank ``placement[i]`` would: the array
        unfold equals ``node_of_rank`` + ``coord_for_virtual``."""
        tm = TopoMap(JobShape((4, 6, 2)))  # odd cells on x and y: serpentine
        offsets = half_shell_offsets(1)
        gx, gy, gz = tm.rank_grid
        positions = [(x, y, z) for x in range(gx) for y in range(gy) for z in range(gz)]
        index = {p: i for i, p in enumerate(positions)}
        placement = list(range(len(positions)))
        random.Random(3).shuffle(placement)
        want = []
        for i, p in enumerate(positions):
            for off in offsets:
                q = tuple((a + o) % g for a, o, g in zip(p, off, tm.rank_grid))
                na = tm.node_of_rank(positions[placement[i]])
                nb = tm.node_of_rank(positions[placement[index[q]]])
                if na != nb:
                    want.append(
                        tm.topology.coord_for_virtual(na).as_tuple()
                        + tm.topology.coord_for_virtual(nb).as_tuple()
                    )
        src, dst = neighbor_traffic_pairs(tm, offsets, np.array(placement))
        assert np.hstack([src, dst]).tolist() == [list(w) for w in want]

    def test_paper_job_reports_pinned(self):
        """The 768-node figure's reports, as the scalar path gave them."""
        res = topomap.compute((8, 12, 8))
        assert res.mapped == CongestionReport(35328, 55296, 36, 3584)
        assert res.randomized == CongestionReport(39898, 186681, 62, 7680)


class TestTopoMapAdvantage:
    """Section 3.5.3 quantified: the topology-preserving placement beats
    a random placement on both hops and congestion."""

    def _compare(self, job_nodes):
        res = topomap.compute(job_nodes)
        return res.mapped, res.randomized

    def test_topo_map_reduces_mean_hops(self):
        mapped, randomized = self._compare((4, 6, 4))
        assert mapped.mean_hops < 0.7 * randomized.mean_hops

    def test_topo_map_reduces_total_traffic(self):
        mapped, randomized = self._compare((4, 6, 4))
        assert mapped.total_link_traversals < randomized.total_link_traversals

    def test_topo_map_keeps_many_pairs_on_node(self):
        """With the 2x2x1 brick, several of the 13 neighbors are
        co-located and never touch the network."""
        tm = TopoMap(JobShape((4, 6, 4)))
        offsets = half_shell_offsets(1)
        src, dst = neighbor_traffic_pairs(tm, offsets)
        total_sends = tm.rank_grid[0] * tm.rank_grid[1] * tm.rank_grid[2] * 13
        assert len(src) == len(dst) < total_sends  # some stayed on-node
