"""Neighbor-list tests: both candidate searches vs brute force, the pair
order contract, half/full rules, rebuild policies."""

import numpy as np
import pytest
from _reference_kernels import in_contract_order
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import NeighborList, NeighborSettings, build_pairs, neighbor
from repro.md.neighbor import build_pairs_bruteforce
from repro.md.presets import PRESETS

SEARCHES = [neighbor._all_pairs, neighbor._cell_pairs]


def pair_set(i, j):
    return {(int(a), int(b)) for a, b in zip(i, j)}


def random_system(n, nlocal, seed, span=10.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, span, size=(n, 3)), nlocal


class TestBinnedVsBruteForce:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("half", [True, False])
    def test_matches_bruteforce_random(self, seed, half):
        x, nlocal = random_system(300, 200, seed)
        got = pair_set(*build_pairs(x, nlocal, 1.5, half=half))
        want = pair_set(*build_pairs_bruteforce(x, nlocal, 1.5, half=half))
        assert got == want

    @pytest.mark.parametrize("rule", ["all", "coord"])
    def test_ghost_rules_match_bruteforce(self, rule):
        x, nlocal = random_system(250, 150, 7)
        got = pair_set(*build_pairs(x, nlocal, 2.0, half=True, ghost_rule=rule))
        want = pair_set(
            *build_pairs_bruteforce(x, nlocal, 2.0, half=True, ghost_rule=rule)
        )
        assert got == want

    def test_large_cutoff_single_cell(self):
        x, nlocal = random_system(60, 60, 3, span=2.0)
        got = pair_set(*build_pairs(x, nlocal, 5.0))
        want = pair_set(*build_pairs_bruteforce(x, nlocal, 5.0))
        assert got == want

    def test_tiny_cutoff(self):
        x, nlocal = random_system(500, 500, 4)
        got = pair_set(*build_pairs(x, nlocal, 0.3))
        want = pair_set(*build_pairs_bruteforce(x, nlocal, 0.3))
        assert got == want


class TestPairProperties:
    def test_i_always_local(self):
        x, nlocal = random_system(200, 120, 5)
        i, j = build_pairs(x, nlocal, 2.0, half=False)
        assert np.all(i < nlocal)

    def test_distances_below_cutoff(self):
        x, nlocal = random_system(200, 150, 6)
        i, j = build_pairs(x, nlocal, 1.8)
        d = x[i] - x[j]
        assert np.all(np.einsum("ij,ij->i", d, d) < 1.8**2)

    def test_no_self_pairs(self):
        x, nlocal = random_system(100, 100, 8)
        i, j = build_pairs(x, nlocal, 3.0, half=False)
        assert np.all(i != j)

    def test_half_local_pairs_unique(self):
        x, nlocal = random_system(150, 150, 9)
        i, j = build_pairs(x, nlocal, 2.0, half=True)
        assert np.all(i < j)  # all-local: i<j rule
        assert len(pair_set(i, j)) == len(i)

    def test_full_list_is_symmetric_on_locals(self):
        x, nlocal = random_system(100, 100, 10)
        pairs = pair_set(*build_pairs(x, nlocal, 2.0, half=False))
        assert all((b, a) in pairs for a, b in pairs)

    def test_full_has_twice_half_for_all_local(self):
        x, nlocal = random_system(120, 120, 11)
        nh = build_pairs(x, nlocal, 2.0, half=True)[0].size
        nf = build_pairs(x, nlocal, 2.0, half=False)[0].size
        assert nf == 2 * nh

    def test_coord_rule_partitions_ghost_pairs(self):
        """'coord' keeps exactly one orientation of each local-ghost pair
        relative to keeping all of them."""
        x, nlocal = random_system(200, 100, 12)
        all_g = build_pairs(x, nlocal, 2.5, half=True, ghost_rule="all")
        coord_g = build_pairs(x, nlocal, 2.5, half=True, ghost_rule="coord")
        n_ghost_all = int((all_g[1] >= nlocal).sum())
        n_ghost_coord = int((coord_g[1] >= nlocal).sum())
        assert 0 < n_ghost_coord < n_ghost_all

    def test_empty_inputs(self):
        i, j = build_pairs(np.zeros((1, 3)), 1, 1.0)
        assert i.size == 0
        i, j = build_pairs(np.zeros((5, 3)), 0, 1.0)
        assert i.size == 0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_pairs(np.zeros((5, 3)), 6, 1.0)
        with pytest.raises(ValueError):
            build_pairs(np.zeros((5, 3)), 5, -1.0)
        with pytest.raises(ValueError):
            build_pairs(np.zeros((5, 3)), 5, 1.0, ghost_rule="bogus")


class TestNeighborList:
    def settings(self, **kw):
        defaults = dict(cutoff=1.5, skin=0.5)
        defaults.update(kw)
        return NeighborSettings(**defaults)

    def test_r_comm(self):
        assert self.settings().r_comm == 2.0

    def test_build_counts(self):
        x, nlocal = random_system(100, 100, 13)
        nl = NeighborList(self.settings())
        nl.build(x, nlocal)
        assert nl.builds == 1
        assert nl.n_pairs == build_pairs(x, nlocal, 2.0)[0].size

    def test_displacement_tracking(self):
        x, nlocal = random_system(50, 50, 14)
        nl = NeighborList(self.settings(skin=1.0))
        nl.build(x, nlocal)
        assert not nl.needs_rebuild(x[:nlocal])  # nothing moved
        moved = x[:nlocal].copy()
        moved[0] += 0.6  # > skin/2 = 0.5
        assert nl.needs_rebuild(moved)

    def test_displacement_below_half_skin_ok(self):
        x, nlocal = random_system(50, 50, 15)
        nl = NeighborList(self.settings(skin=1.0))
        nl.build(x, nlocal)
        moved = x[:nlocal] + 0.2  # |d| = 0.35 < 0.5
        assert not nl.needs_rebuild(moved)

    def test_unbuilt_list_always_needs_rebuild(self):
        nl = NeighborList(self.settings())
        assert nl.needs_rebuild(np.zeros((3, 3)))

    def test_changed_local_count_forces_rebuild(self):
        x, nlocal = random_system(50, 50, 16)
        nl = NeighborList(self.settings())
        nl.build(x, nlocal)
        assert nl.needs_rebuild(x[:30])


class TestPerAtomView:
    def _built(self, half=True, seed=20):
        x, nlocal = random_system(150, 150, seed)
        nl = NeighborList(NeighborSettings(cutoff=1.5, skin=0.5, half=half))
        nl.build(x, nlocal)
        return x, nlocal, nl

    def test_csr_covers_all_pairs(self):
        x, nlocal, nl = self._built()
        first, neigh = nl.per_atom(nlocal)
        assert first[0] == 0
        assert first[-1] == nl.n_pairs
        rebuilt = set()
        for i in range(nlocal):
            for j in neigh[first[i] : first[i + 1]]:
                rebuilt.add((i, int(j)))
        assert rebuilt == set(zip(nl.pair_i.tolist(), nl.pair_j.tolist()))

    def test_csr_rows_keep_the_pair_order(self):
        x, nlocal, nl = self._built(half=False)
        first, neigh = nl.per_atom(nlocal)
        for i in range(nlocal):
            row = neigh[first[i] : first[i + 1]]
            assert np.all(np.diff((row - i) % x.shape[0]) > 0)

    def test_csr_rows_monotone(self):
        x, nlocal, nl = self._built(half=False)
        first, _ = nl.per_atom(nlocal)
        assert np.all(np.diff(first) >= 0)

    def test_coordination_full_equals_direct_count(self):
        x, nlocal, nl = self._built(half=False)
        coord = nl.coordination(nlocal)
        assert coord.sum() == nl.n_pairs
        # spot-check atom 0 against brute force
        d = x - x[0]
        r2 = np.einsum("ij,ij->i", d, d)
        expect = int(((r2 < 2.0**2) & (r2 > 0)).sum())
        assert coord[0] == expect

    def test_half_and_full_coordination_agree(self):
        """Counting both pair endpoints of a half list equals the full
        list's per-atom counts (all-local system)."""
        x, nlocal = random_system(120, 120, 21)
        half_nl = NeighborList(NeighborSettings(cutoff=1.5, skin=0.5, half=True))
        half_nl.build(x, nlocal)
        full_nl = NeighborList(NeighborSettings(cutoff=1.5, skin=0.5, half=False))
        full_nl.build(x, nlocal)
        assert np.array_equal(
            half_nl.coordination(nlocal), full_nl.coordination(nlocal)
        )


# ---------------------------------------------------------------------------
# the contract: any search, the brute-force set, one order
# ---------------------------------------------------------------------------
def bruteforce_in_contract_order(x, nlocal, cutoff, half, ghost_rule):
    """The brute-force set sorted by ``((j - i) mod n, i)``."""
    i, j = build_pairs_bruteforce(x, nlocal, cutoff, half=half, ghost_rule=ghost_rule)
    return in_contract_order(i, j, x.shape[0])


def assert_contract(search, x, nlocal, cutoff, half=True, ghost_rule="all"):
    got = neighbor._build(search, np.asarray(x, dtype=float), nlocal, cutoff, half, ghost_rule)
    want = bruteforce_in_contract_order(x, nlocal, cutoff, half, ghost_rule)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[0].dtype == got[1].dtype == np.intp
    return got


class TestBothSearchesMeetTheContract:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 90),
        local_share=st.floats(0.0, 1.0),
        spans=st.tuples(*[st.sampled_from([0.0, 0.4, 2.0, 9.0])] * 3),
        cutoff=st.sampled_from([0.15, 0.5, 1.0, 1.5, 3.0, 12.0]),
        lattice=st.booleans(),
        half=st.booleans(),
        ghost_rule=st.sampled_from(["all", "coord"]),
    )
    def test_random_boxes(self, seed, n, local_share, spans, cutoff, lattice, half, ghost_rule):
        """Cubes, slabs, needles and points (a zero span is one cell along
        that axis), cutoffs from below the smallest span to above the
        largest; on the half-unit lattice coordinates tie and distances
        land exactly on the cutoff."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, (n, 3)) * np.array(spans)
        if lattice:
            x = np.round(x * 2.0) / 2.0
        nlocal = int(round(local_share * n))
        for search in SEARCHES:
            assert_contract(search, x, nlocal, cutoff, half, ghost_rule)

    def test_keys_strictly_increase_and_neither_index_repeats(self):
        """What the diagonal order is for: consecutive pairs never share
        ``i`` or ``j`` within a diagonal, so ``bincount`` never chains."""
        x, nlocal = random_system(300, 200, 31)
        n = x.shape[0]
        for half in (True, False):
            i, j = build_pairs(x, nlocal, 1.5, half=half)
            key = (j - i) % n * n + i
            assert np.all(np.diff(key) > 0)
            same_diagonal = np.diff(key // n) == 0
            assert np.all(np.diff(i)[same_diagonal] > 0)
            assert np.all(np.diff(j)[same_diagonal] != 0)  # ascending, one wrap at most

    def test_build_pairs_chooses_by_size_alone(self, monkeypatch):
        calls = []
        for search in SEARCHES:
            monkeypatch.setattr(
                neighbor, search.__name__,
                lambda *a, _s=search: calls.append(_s.__name__) or _s(*a),
            )
        x, _ = random_system(600, 600, 32)
        edge = neighbor.ALL_PAIRS_CELLS // 600
        for nlocal in (edge, edge + 1):
            got = build_pairs(x, nlocal, 1.2)
            want = bruteforce_in_contract_order(x, nlocal, 1.2, True, "all")
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert calls == ["_all_pairs", "_cell_pairs"]


@pytest.mark.parametrize("search", SEARCHES)
class TestEdgeCases:
    def test_coincident_atoms_are_pairs(self, search):
        x = np.array([[1.0, 1.0, 1.0]] * 3 + [[1.0, 1.0, 1.4]])
        i, j = assert_contract(search, x, 4, 0.5)
        assert pair_set(i, j) == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)}
        i, j = assert_contract(search, x, 2, 0.5, half=False)
        assert pair_set(i, j) == {(0, 1), (1, 0), (0, 2), (1, 2), (0, 3), (1, 3)}

    def test_a_pair_at_exactly_the_cutoff_is_out(self, search):
        x = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, np.nextafter(1.5, 0.0), 0.0]])
        i, j = assert_contract(search, x, 3, 1.5)
        assert pair_set(i, j) == {(0, 2)}

    @pytest.mark.parametrize("half", [True, False])
    def test_all_local_none_local_and_a_single_atom(self, search, half):
        x, _ = random_system(80, 80, 33, span=4.0)
        assert assert_contract(search, x, 80, 1.0, half)[0].size > 0
        assert assert_contract(search, x, 0, 1.0, half)[0].size == 0
        assert assert_contract(search, x[:1], 1, 1.0, half)[0].size == 0

    def test_all_atoms_in_one_cell(self, search):
        x, _ = random_system(40, 25, 34, span=0.2)
        i, j = assert_contract(search, x, 25, 1.0)
        assert i.size == 25 * 24 // 2 + 25 * 15

    def test_coord_rule_ties(self, search):
        """Ghosts level with a local in z, in z and y, and in all three:
        the first coordinate of (z, y, x) that differs decides, a full tie
        is nobody's pair."""
        x = np.array(
            [[1.0, 1.0, 1.0],  # the local
             [0.5, 1.0, 1.0], [1.5, 1.0, 1.0],  # z, y tie: x decides
             [1.0, 0.5, 1.0], [1.0, 1.5, 1.0],  # z ties: y decides
             [1.0, 1.0, 0.5], [1.0, 1.0, 1.5],
             [1.0, 1.0, 1.0]]  # a full tie
        )
        i, j = assert_contract(search, x, 1, 0.75, ghost_rule="coord")
        assert pair_set(i, j) == {(0, 2), (0, 4), (0, 6)}


@pytest.mark.parametrize("search", SEARCHES)
class TestNonFinitePositions:
    """A ``NaN`` used to empty the whole list (only a ``RuntimeWarning``),
    an ``inf`` to thin it: the run carried on with zero forces."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row,kind", [(17, "local"), (230, "ghost")])
    def test_raises_naming_the_first_offending_row(self, search, bad, row, kind):
        x, nlocal = random_system(250, 150, 35)
        x[row, 1] = bad
        x[240, 2] = bad  # a later one is not the one named
        with pytest.raises(ValueError, match=rf"non-finite position .* row {row} \({kind}"):
            neighbor._build(search, x, nlocal, 2.0, True, "all")

    def test_through_the_list(self, search, monkeypatch):
        monkeypatch.setattr(
            neighbor, "ALL_PAIRS_CELLS", 0 if search is neighbor._cell_pairs else 1 << 40
        )
        x, nlocal = random_system(50, 30, 36)
        nl = NeighborList(NeighborSettings(cutoff=1.5, skin=0.5))
        nl.build(x, nlocal)
        x[3, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite position"):
            nl.build(x, nlocal)
        assert nl.builds == 1 and nl.n_pairs > 0  # the old list stands


# ---------------------------------------------------------------------------
# how many candidates the binned search looks at
# ---------------------------------------------------------------------------
def candidates_per_kept_pair(sim) -> float:
    candidates = kept = 0
    for rank in range(sim.world.size):
        atoms, s = sim.atoms_of(rank), sim.neigh_of(rank).settings
        xT = np.ascontiguousarray(atoms.x.T)
        candidates += neighbor._cell_candidates(xT, atoms.nlocal, s.r_comm)[2].size
        kept += sim.neigh_of(rank).n_pairs
    return candidates / kept


class TestCandidateCount:
    """Counts, so they repeat exactly.  The 27-offset stencil over cells at
    least ``r_comm`` wide looked at 17.1 candidates per kept pair on the
    first shape; half-width cells look at about 7."""

    def test_lj_bulk_8r_shape(self):
        sim = PRESETS["lj"].simulation((10, 10, 10), (2, 2, 2), "p2p", False, seed=12345)
        sim.run(20)  # lists of the first reneighbouring: off-lattice positions
        assert sim.rebuilds == 1
        assert 4.0 < candidates_per_kept_pair(sim) <= 8.0

    def test_single_rank_864_atoms(self):
        sim = PRESETS["lj"].simulation((6, 6, 6), (1, 1, 1), "p2p", False, seed=12345)
        sim.setup()
        assert sim.atoms_of(0).nlocal == 864
        assert 4.0 < candidates_per_kept_pair(sim) <= 8.0
