"""Whole-rank Pair tiles and the gather-friendly kernels vs. the oracles.

Everything here is ``np.array_equal`` — bit-identity, not tolerance:
forces, per-rank energy/virial and EAM density/fp against the verbatim
pre-tile kernels kept in ``_reference_kernels.py``, and pair lists
against the frozen search's pair set put in the repo's pair order.
"""

from __future__ import annotations

import copy
import functools

import _reference_kernels as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LennardJones, Simulation, SimulationConfig
from repro.faults import FAULTS, FaultPlan, FaultSpec, RetryPolicy
from repro.md import neighbor
from repro.md.atoms import Atoms
from repro.md.kernels import r2_from_deltas
from repro.md.lattice import (
    diamond_lattice,
    fcc_lattice,
    lj_density_to_cell,
    maxwell_velocities,
)
from repro.md.neighbor import build_pairs
from repro.md.pairtiles import TILE_PAIRS, PairTiles, group_ranks
from repro.md.potentials import SuttonChenEAM, make_cu_like_eam
from repro.md.presets import PRESETS
from tests._world_arrays import scalar_phase

GRID = (2, 2, 2)


# ---------------------------------------------------------------------------
# worlds: per-rank Atoms + neighbour lists taken from a short real run
# ---------------------------------------------------------------------------
def two_species_lj() -> LennardJones:
    lj = LennardJones(cutoff=2.5, n_types=2)
    lj.set_coeff(0, 0, 1.0, 1.0, 2.5)
    lj.set_coeff(1, 1, 0.5, 0.88, 2.2)
    lj.set_coeff(0, 1, 1.5, 0.8, 2.0)  # per-pair cutoff below the list cutoff
    return lj


def lj_system(cells=(5, 5, 5), keep=None):
    x, box = fcc_lattice(cells, lj_density_to_cell(0.8442))
    if keep is not None:
        x = x[keep(x, box)]
    return x, maxwell_velocities(x.shape[0], 1.44, seed=7), box


def eam_system(cells=(6, 6, 6)):
    x, box = fcc_lattice(cells, 3.615)
    return x, maxwell_velocities(x.shape[0], 0.6, seed=7), box


def make_world(name: str) -> Simulation:
    """A set-up, slightly evolved multi-rank Simulation for case ``name``."""
    kind, _, variant = name.partition("/")
    pattern = "3stage" if "coord" in variant else "p2p"
    newton = "newton-off" not in variant
    types = None
    if kind == "lj":
        x, v, box = lj_system()
        pot = LennardJones(cutoff=2.5)
    elif kind == "lj2":
        x, v, box = lj_system()
        pot = two_species_lj()
        types = (np.arange(x.shape[0]) % 2).astype(np.int32)
    elif kind == "lj-empty-ranks":
        # atoms only in the low-x half: the high-x ranks own nothing
        x, v, box = lj_system(keep=lambda x, box: x[:, 0] < 0.45 * box.lengths[0])
        pot = LennardJones(cutoff=2.5)
    elif kind == "eam":
        x, v, box = eam_system()
        pot = SuttonChenEAM(cutoff=4.95)
    elif kind == "eam-tab":
        x, v, box = eam_system()
        pot = make_cu_like_eam(cutoff=4.95)
    else:
        raise AssertionError(name)
    cfg = SimulationConfig(
        dt=0.005, skin=0.3, pattern=pattern, newton=newton, neighbor_every=1000
    )
    sim = Simulation(x, v, box, pot, cfg, grid=GRID, types=types)
    sim.run(3)  # off-lattice positions, lists three steps old
    return sim


CASES = [
    "lj/all",
    "lj/coord",
    "lj/newton-off",
    "lj2/all",
    "lj2/coord,newton-off",
    "lj-empty-ranks/all",
    "eam/all",
    "eam/coord",
    "eam/newton-off",
    "eam-tab/all",
]


@functools.lru_cache(maxsize=None)
def world(name: str) -> Simulation:
    return make_world(name)


def ranks_of(sim: Simulation) -> range:
    return range(sim.world.size)


def fresh_atoms(sim: Simulation) -> list[Atoms]:
    """Deep copies of every rank's atoms with forces zeroed."""
    out = [copy.deepcopy(sim.atoms_of(r)) for r in ranks_of(sim)]
    for a in out:
        a.zero_forces()
    return out


def evaluate_per_rank(sim: Simulation) -> dict:
    """The oracle: one reference-kernel call per rank (no reverse comm)."""
    pot, atoms = sim.potential, fresh_atoms(sim)
    lists = [sim.neigh_of(r) for r in ranks_of(sim)]
    out: dict = {}
    if hasattr(pot, "density_pass"):
        scratch = {
            r: ref.eam_density_pass(pot, a, nl.pair_i, nl.pair_j, half_list=sim.half)
            for r, (a, nl) in enumerate(zip(atoms, lists))
        }
        if sim.half:
            scalar_phase(
                sim.exchange.reverse_sum_scalar_world,
                {r: s["density"] for r, s in scratch.items()},
            )
        out["density"] = [scratch[r]["density"].copy() for r in scratch]
        for r, a in enumerate(atoms):
            ref.eam_embedding_pass(pot, a, scratch[r])
        scalar_phase(
            sim.exchange.forward_scalar_world, {r: s["fp"] for r, s in scratch.items()}
        )
        out["fp"] = [scratch[r]["fp"].copy() for r in scratch]
        results = [ref.eam_force_pass(pot, a, scratch[r]) for r, a in enumerate(atoms)]
        out["embedding"] = [res.extra["embedding_energy"] for res in results]
    else:
        results = [
            ref.lj_compute(pot, a, nl.pair_i, nl.pair_j, half_list=sim.half)
            for a, nl in zip(atoms, lists)
        ]
    out["f"] = [a.f.copy() for a in atoms]
    out["energy"] = [res.energy for res in results]
    out["virial"] = [res.virial for res in results]
    return out


def evaluate_tiled(sim: Simulation, groups) -> dict:
    """The engine: one kernel call per tile of ``groups``, over copies of
    the ranks' atoms moved into an arena of their own — laid out like the
    simulation's (a copy keeps its capacity), so the exchange's world
    tables number its rows too and the scalar phases take the tiles'
    per-arena-row buffers whole, as the driver hands them over."""
    pot, atoms = sim.potential, fresh_atoms(sim)
    lists = [sim.neigh_of(r) for r in ranks_of(sim)]
    tiles = PairTiles()
    tiles.rebuild(atoms, lists, groups)
    assert tiles.arena is not sim.exchange.arena
    assert np.array_equal(tiles.arena.starts, sim.exchange.arena.starts)
    for tile in tiles.tiles:
        assert np.shares_memory(tile.x, tiles.arena.x)
        assert np.shares_memory(tile.f, tile.atoms[-1].f)
    out: dict = {}
    energy, virial, embedding = [], [], []

    def per_rank(values):
        """Copies of every rank's rows (local then ghost) of a world array."""
        return [values[a.start : a.start + a.ntotal].copy() for a in atoms]

    if hasattr(pot, "density_pass"):
        scratch = []
        for tile in tiles.tiles:
            tile.load()
            scratch.append(
                pot.density_pass(tile, tile.pair_i, tile.pair_j, half_list=sim.half)
            )
        density = tiles.world_rows(pot.density_rows)
        if sim.half:
            sim.exchange.reverse_sum_scalar_world(density)
        out["density"] = per_rank(density)
        for tile, sc in zip(tiles.tiles, scratch):
            pot.embedding_pass(tile, sc)
        fp = tiles.world_rows(pot.fp_rows)
        sim.exchange.forward_scalar_world(fp)
        out["fp"] = per_rank(fp)
        for tile, sc in zip(tiles.tiles, scratch):
            res = pot.force_pass(tile, sc)
            energy += res.energy.tolist()
            virial += res.virial.tolist()
            embedding += res.extra["embedding_energy"].tolist()
        out["embedding"] = embedding
    else:
        for tile in tiles.tiles:
            tile.load()
            res = pot.compute(tile, tile.pair_i, tile.pair_j, half_list=sim.half)
            assert res.per_rank(len(tile.ranks)) == list(zip(res.energy, res.virial))
            energy += res.energy.tolist()
            virial += res.virial.tolist()
    out["f"] = [a.f.copy() for a in atoms]
    out["energy"] = energy
    out["virial"] = virial
    return out


def assert_same(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key in want:
        for rank, (g, w) in enumerate(zip(got[key], want[key])):
            assert np.array_equal(g, w), f"{key} differs on rank {rank}"


def default_groups(sim: Simulation):
    return group_ranks([sim.neigh_of(r).n_pairs for r in ranks_of(sim)], TILE_PAIRS)


# ---------------------------------------------------------------------------
# kernels on tiles vs. the per-rank oracle
# ---------------------------------------------------------------------------
class TestTilesMatchPerRankOracle:
    @pytest.mark.parametrize("name", CASES)
    def test_default_grouping(self, name):
        sim = world(name)
        assert_same(evaluate_tiled(sim, default_groups(sim)), evaluate_per_rank(sim))

    @pytest.mark.parametrize("name", CASES)
    def test_one_rank_per_tile_and_all_in_one(self, name):
        sim = world(name)
        want = evaluate_per_rank(sim)
        n = sim.world.size
        assert_same(evaluate_tiled(sim, [[r] for r in range(n)]), want)
        assert_same(evaluate_tiled(sim, [list(range(n))]), want)

    def test_the_worlds_cover_what_they_claim(self):
        assert any(world("lj-empty-ranks/all").atoms_of(r).nlocal == 0 for r in range(8))
        assert world("lj/coord").neigh_of(0).settings.ghost_rule == "coord"
        assert world("lj/all").neigh_of(0).settings.ghost_rule == "all"
        assert world("lj/newton-off").half is False
        lj2 = world("lj2/all")
        inside = sum(lj2.rank_results()[r][0] != 0.0 for r in range(8))
        assert inside == 8 and len(set(lj2.atoms_of(0).type.tolist())) == 2

    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.booleans(), min_size=7, max_size=7), eam=st.booleans())
    def test_any_grouping_of_whole_ranks_is_the_same_run(self, cuts, eam):
        """Which consecutive ranks share a tile is speed, not behaviour —
        so ``TILE_PAIRS`` is a constant, not a setting."""
        sim = world("eam/all" if eam else "lj2/all")
        groups = [[0]]
        for rank, cut in enumerate(cuts, start=1):
            if cut:
                groups.append([rank])
            else:
                groups[-1].append(rank)
        assert_same(evaluate_tiled(sim, groups), evaluate_per_rank(sim))

    def test_a_rank_is_never_split(self):
        sim = world("lj/all")
        atoms = fresh_atoms(sim)
        lists = [sim.neigh_of(r) for r in ranks_of(sim)]
        for bad in ([[0, 1, 2], [4, 5, 6, 7]], [[1, 0], [2, 3, 4, 5, 6, 7]], [[0, 1]]):
            with pytest.raises(ValueError):
                PairTiles().rebuild(atoms, lists, bad)


class TestGroupRanks:
    def test_closes_before_exceeding(self):
        assert group_ranks([10, 10, 10, 10], 25) == [[0, 1], [2, 3]]
        assert group_ranks([10, 10, 10], 30) == [[0, 1, 2]]

    def test_a_big_rank_stands_alone(self):
        assert group_ranks([5, 100, 5, 5], 20) == [[0], [1], [2, 3]]

    def test_empty_ranks_ride_along(self):
        assert group_ranks([0, 3, 0, 0, 4], 5) == [[0, 1, 2, 3], [4]]

    def test_no_ranks(self):
        assert group_ranks([], TILE_PAIRS) == []


# ---------------------------------------------------------------------------
# kernels on plain Atoms (the public signature) vs. the oracle
# ---------------------------------------------------------------------------
def gas(n: int, nlocal: int, seed: int, types: bool = False) -> Atoms:
    rng = np.random.default_rng(seed)
    atoms = Atoms(capacity=n)
    atoms.set_local(
        rng.uniform(0.0, 6.0, (nlocal, 3)),
        np.zeros((nlocal, 3)),
        np.arange(nlocal, dtype=np.int64),
        rng.integers(0, 2, nlocal).astype(np.int32) if types else None,
    )
    atoms.append_ghosts(
        rng.uniform(-2.0, 8.0, (n - nlocal, 3)),
        np.arange(nlocal, n, dtype=np.int64),
        rng.integers(0, 2, n - nlocal).astype(np.int32) if types else None,
    )
    return atoms


class TestPlainAtomsMatchOracle:
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("species", [1, 2])
    def test_lj(self, half, species):
        pot = LennardJones(cutoff=2.5) if species == 1 else two_species_lj()
        a = gas(300, 200, seed=3, types=species == 2)
        b = copy.deepcopy(a)
        i, j = build_pairs(a.x, a.nlocal, 2.8, half=half)
        # forces accumulate on top of what is already there, as before
        a.f[...] = b.f[...] = np.random.default_rng(0).normal(size=a.f.shape)
        got = pot.compute(a, i, j, half_list=half)
        want = ref.lj_compute(pot, b, i, j, half_list=half)
        assert np.array_equal(a.f, b.f)
        assert (got.energy, got.virial) == (want.energy, want.virial)
        assert isinstance(got.energy, float) and isinstance(got.virial, float)
        assert got.per_rank(1) == [(want.energy, want.virial)]

    @pytest.mark.parametrize("half", [True, False])
    def test_eam_phases(self, half):
        pot = SuttonChenEAM(cutoff=4.95)
        a = gas(250, 250, seed=4)
        a.x[...] = a.x * 1.6 + 1.0  # spread to metallic separations
        b = copy.deepcopy(a)
        i, j = build_pairs(a.x, a.nlocal, 5.5, half=half)
        got_s = pot.density_pass(a, i, j, half_list=half)
        want_s = ref.eam_density_pass(pot, b, i, j, half_list=half)
        assert np.array_equal(got_s["density"], want_s["density"])
        assert pot.embedding_pass(a, got_s) == ref.eam_embedding_pass(pot, b, want_s)
        assert np.array_equal(got_s["fp"], want_s["fp"])
        got = pot.force_pass(a, got_s)
        want = ref.eam_force_pass(pot, b, want_s)
        assert np.array_equal(a.f, b.f)
        assert (got.energy, got.virial, got.comm_calls, got.extra) == (
            want.energy, want.virial, want.comm_calls, want.extra,
        )

    def test_empty_pair_list(self):
        e = np.empty(0, dtype=np.intp)
        a = gas(10, 6, seed=5)
        res = LennardJones().compute(a, e, e)
        assert (res.energy, res.virial) == (0.0, 0.0) and not a.f.any()
        pot = SuttonChenEAM()
        got = pot.compute(a, e, e)
        want_s = ref.eam_density_pass(pot, a, e, e)
        ref.eam_embedding_pass(pot, a, want_s)
        want = ref.eam_force_pass(pot, a, want_s)
        assert (got.energy, got.virial) == (want.energy, want.virial)
        assert not a.f.any()

    def test_no_pair_inside_the_cutoff(self):
        a = gas(2, 2, seed=6)
        a.x[...] = [[0.0, 0.0, 0.0], [2.7, 0.0, 0.0]]  # in the skin only
        i, j = np.array([0], dtype=np.intp), np.array([1], dtype=np.intp)
        res = LennardJones(cutoff=2.5).compute(a, i, j)
        assert (res.energy, res.virial) == (0.0, 0.0) and not a.f.any()

    def test_a_tile_runs_over_its_own_pair_list_only(self):
        sim = world("lj/all")
        tiles = PairTiles()
        tiles.rebuild(
            fresh_atoms(sim), [sim.neigh_of(r) for r in ranks_of(sim)], [list(range(8))]
        )
        tile = tiles.tiles[0]
        tile.load()
        with pytest.raises(ValueError):
            sim.potential.compute(tile, tile.pair_i[:5], tile.pair_j[:5])


# ---------------------------------------------------------------------------
# build_pairs and the r2 helper
# ---------------------------------------------------------------------------
def pair_inputs():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(2, 260))
        nlocal = int(rng.integers(0, n + 1))
        x = rng.uniform(0.0, rng.uniform(2.0, 7.0), (n, 3))
        if trial % 2:
            x = np.round(x * 2.0) / 2.0  # lattice: coordinate ties, r2 == rc2
        yield x, nlocal, float(rng.choice([0.5, 1.0, 1.5, 2.8]))


def assert_oracle_set_in_contract_order(got, x, nlocal, cutoff, **rules) -> None:
    """``got`` is the frozen search's pair set, ascending in the contract's
    key ``((j - i) mod n) * n + i`` — strictly, so no pair twice."""
    want = ref.build_pairs_in_contract_order(x, nlocal, cutoff, **rules)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    n = x.shape[0]
    assert np.all(np.diff((got[1] - got[0]) % n * n + got[0]) > 0)


class TestBuildPairs:
    @pytest.mark.parametrize("half", [True, False])
    @pytest.mark.parametrize("ghost_rule", ["all", "coord"])
    def test_identical_lists_including_order(self, half, ghost_rule):
        """The frozen search's pair set, in the contract's order."""
        for x, nlocal, cutoff in pair_inputs():
            got = build_pairs(x, nlocal, cutoff, half=half, ghost_rule=ghost_rule)
            assert_oracle_set_in_contract_order(
                got, x, nlocal, cutoff, half=half, ghost_rule=ghost_rule
            )
            assert got[0].dtype == got[1].dtype == np.intp

    @pytest.mark.parametrize("name", ["lj/all", "lj/coord", "eam/newton-off"])
    def test_identical_on_every_rank_of_a_world(self, name):
        sim = world(name)
        for r in ranks_of(sim):
            a, s = sim.atoms_of(r), sim.neigh_of(r).settings
            got = build_pairs(a.x, a.nlocal, s.r_comm, half=s.half, ghost_rule=s.ghost_rule)
            assert_oracle_set_in_contract_order(
                got, a.x, a.nlocal, s.r_comm, half=s.half, ghost_rule=s.ghost_rule
            )

    def test_degenerate_inputs(self):
        x = np.zeros((1, 3))
        assert build_pairs(x, 1, 1.0)[0].size == 0
        assert build_pairs(np.zeros((5, 3)), 0, 1.0)[0].size == 0
        far = np.arange(12.0).reshape(4, 3) * 10.0
        assert build_pairs(far, 4, 1.0)[0].size == 0  # candidates, none in range


class TestR2Helper:
    """``r2_from_deltas`` must be ``np.einsum("ij,ij->i", d, d)`` bit for
    bit: the oracle kernels use einsum, and a last-bit difference flips
    cutoff decisions.  If a NumPy release changes einsum's association
    this fails — update the *oracle* (and the helper with it), do not
    loosen the comparison."""

    @staticmethod
    def helper(d: np.ndarray) -> np.ndarray:
        dT = np.ascontiguousarray(d.T)
        out, tmp = np.empty(d.shape[0]), np.empty(d.shape[0])
        r2_from_deltas(dT, out, tmp)
        return out

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 31, 1000, 200_001])
    def test_random(self, n):
        rng = np.random.default_rng(n)
        d = rng.normal(size=(n, 3)) * rng.uniform(0.01, 30.0)
        assert np.array_equal(self.helper(d), np.einsum("ij,ij->i", d, d))

    def test_lattice(self):
        x, _ = fcc_lattice((6, 6, 6), lj_density_to_cell(0.8442))
        d = x[:, None, :] - x[None, :64, :]
        d = d.reshape(-1, 3)
        assert np.array_equal(self.helper(d), np.einsum("ij,ij->i", d, d))

    def test_the_plain_association_would_not_do(self):
        d = np.random.default_rng(0).normal(size=(10_000, 3))
        plain = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
        assert not np.array_equal(plain, np.einsum("ij,ij->i", d, d))


# ---------------------------------------------------------------------------
# whole runs: the tile driver vs. the per-rank driver
# ---------------------------------------------------------------------------
def ledger_shaped(potential, temperature, per_rank_oracle, monkeypatch) -> Simulation:
    """``lj-strong-27r`` / ``eam-hot-27r`` of the perf ledger, 200 steps."""
    preset = PRESETS[potential]
    x, v, box = preset.build_system((6, 6, 6), temperature, seed=12345)
    cfg = preset.config("parallel-p2p", True, thermo_every=10)
    sim = Simulation(x, v, box, preset.potential(), cfg, grid=(3, 3, 3))
    if per_rank_oracle:
        monkeypatch.setattr(neighbor, "build_pairs", ref.build_pairs_in_contract_order)
        monkeypatch.setattr(
            sim, "_compute_forces", lambda: ref.compute_forces_per_rank(sim)
        )
    sim.run(200)
    monkeypatch.undo()
    return sim


@pytest.mark.parametrize("potential,temperature", [("lj", None), ("eam", 1.0)])
def test_200_steps_identical_to_the_per_rank_driver(potential, temperature, monkeypatch):
    want = ledger_shaped(potential, temperature, True, monkeypatch)
    got = ledger_shaped(potential, temperature, False, monkeypatch)
    assert got.rebuilds == want.rebuilds >= 3
    assert np.array_equal(got.gather_positions(), want.gather_positions())
    assert np.array_equal(got.gather_velocities(), want.gather_velocities())
    assert np.array_equal(got.gather_forces(), want.gather_forces())
    assert len(got.samples) == 20 and got.samples == want.samples
    assert got.sample_thermo() == want.sample_thermo()


def test_stillinger_weber_runs_as_single_rank_tiles():
    from repro.md.potentials.sw import StillingerWeber

    pot = StillingerWeber()
    assert not pot.rank_tiled and LennardJones.rank_tiled and SuttonChenEAM.rank_tiled
    x, box = diamond_lattice((3, 3, 3), 5.431 / 2.0951)  # reduced silicon
    x = x + np.random.default_rng(2).normal(0.0, 0.02, x.shape)
    cfg = SimulationConfig(dt=0.001, skin=0.3, pattern="p2p")
    sim = Simulation(x, np.zeros_like(x), box, pot, cfg, grid=(2, 1, 1))
    sim.setup()
    assert [t.ranks for t in sim._tiles.tiles] == [(0,), (1,)]
    # the same forces as the kernel called directly on each rank's Atoms
    direct = copy.deepcopy([sim.atoms_of(r) for r in range(2)])
    for r, atoms in enumerate(direct):
        atoms.zero_forces()
        nl = sim.neigh_of(r)
        res = pot.compute(atoms, nl.pair_i, nl.pair_j, half_list=False)
        assert res.energy == sim.rank_results()[r][0] != 0.0
    # the sim's forces have been reverse-summed where they stand (a tile's
    # rows are the ranks' own): evaluate the tiles again for the comparison
    for tile, atoms in zip(sim._tiles.tiles, direct):
        tile.load()
        pot.compute(tile, tile.pair_i, tile.pair_j, half_list=False)
        assert np.array_equal(tile.f, atoms.f)
        assert np.shares_memory(tile.f, tile.atoms[0].f)


# ---------------------------------------------------------------------------
# satellites: one reneighbour helper, workspace accounting
# ---------------------------------------------------------------------------
def small_sim(pattern="parallel-p2p") -> Simulation:
    x, box = fcc_lattice((4, 2, 2), lj_density_to_cell(0.8442))
    v = maxwell_velocities(len(x), 1.44, seed=11)
    cfg = SimulationConfig(dt=0.005, skin=0.3, pattern=pattern, neighbor_every=4)
    return Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 1, 1))


def test_degradation_mid_run_never_leaves_tiles_stale():
    """parallel-p2p -> p2p -> 3stage on *ordinary* steps (lethal drops in
    ``forward``): the ladder swaps the exchange and every NeighborList,
    so tiles frozen from the old lists would be stale.  Afterwards the
    forces of the run equal a fresh per-rank evaluation of the ranks' own
    atoms and lists (+ reverse), bit for bit."""
    plan = FaultPlan(
        seed=1,
        policy=RetryPolicy(max_retries=2),
        faults=(FaultSpec("drop", phases=("forward",), severity=99, count=1),),
    )
    sim = small_sim()
    sim.run(5)  # rebuild at step 4; tiles now one step old
    lists_before = [sim.neigh_of(r) for r in ranks_of(sim)]
    for _ in range(2):  # one lethal drop per step: one tier down per step
        with FAULTS.inject(plan):
            sim.run(1)
    assert sim.degradations == [("parallel-p2p", "p2p"), ("p2p", "3stage")]
    assert sim.step_count == 7 and sim.rebuilds == 1  # no scheduled rebuild since
    sim.run(1)

    # the tiles describe the lists and atoms the ranks hold *now*
    lists = [sim.neigh_of(r) for r in ranks_of(sim)]
    assert all(new is not old for new, old in zip(lists, lists_before))
    for tile in sim._tiles.tiles:
        assert tile.atoms == tuple(sim.atoms_of(r) for r in tile.ranks)
        for k, r in enumerate(tile.ranks):
            pairs = slice(tile.pair_bounds[k], tile.pair_bounds[k + 1])
            assert np.array_equal(tile.pair_i[pairs] - tile.row_bounds[k], lists[r].pair_i)
            assert np.array_equal(tile.pair_j[pairs] - tile.row_bounds[k], lists[r].pair_j)

    got = sim.gather_forces()
    energies = sim.rank_results()
    ref.compute_forces_per_rank(sim)  # fresh: per-rank oracle kernels + reverse
    assert np.array_equal(sim.gather_forces(), got)
    assert sim.rank_results() == energies

    # and the trajectory is the one a run born on the last tier has
    fresh = small_sim("3stage")
    fresh.run(8)
    dev = sim.domain.box.minimum_image(sim.gather_positions() - fresh.gather_positions())
    assert np.abs(dev).max() < 1e-9


def test_workspace_stops_allocating_after_the_first_epoch():
    """3 neighbour epochs of ``lj-strong``-shaped input: every tile buffer
    and kernel scratch is sized (with headroom) in the first one."""
    sim = PRESETS["lj"].simulation((6, 6, 6), (3, 3, 3), seed=12345)
    ws = sim._tiles.workspace
    sim.run(19)  # epoch 1: set-up lists
    allocations = ws.allocations
    assert allocations > 0 and ws.grow_events == 0
    tile_counts = {len(sim._tiles.tiles)}
    for _ in range(2):  # epochs 2 and 3
        sim.run(20)
        tile_counts.add(len(sim._tiles.tiles))
    assert sim.rebuilds == 2
    assert ws.allocations == allocations
    assert ws.grow_events == 0
    assert tile_counts <= {1, 2}


def test_workspace_counts_a_regrow():
    from repro.md.pairtiles import Workspace

    ws = Workspace()
    a = ws.array("k", 100)
    assert a.shape == (100,) and (ws.allocations, ws.grow_events) == (1, 0)
    assert ws.array("k", (2, 60)).shape == (2, 60)  # within headroom
    assert (ws.allocations, ws.grow_events) == (1, 0)
    ws.array("k", 1000)
    assert (ws.allocations, ws.grow_events) == (2, 1)
