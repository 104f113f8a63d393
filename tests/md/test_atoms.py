"""SoA atom-array tests: local/ghost layout, growth accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import Atoms
from repro.md.atoms import AtomArena


@pytest.fixture
def atoms():
    a = Atoms(capacity=8)
    x = np.arange(9.0).reshape(3, 3)
    v = np.ones((3, 3))
    a.set_local(x, v, np.array([10, 11, 12]))
    return a


class TestLocal:
    def test_set_local(self, atoms):
        assert atoms.nlocal == 3
        assert atoms.nghost == 0
        assert np.array_equal(atoms.tag, [10, 11, 12])

    def test_views_share_storage(self, atoms):
        atoms.x[0, 0] = 99.0
        assert atoms.x_local()[0, 0] == 99.0

    def test_mismatched_shapes_rejected(self):
        a = Atoms()
        with pytest.raises(ValueError):
            a.set_local(np.zeros((3, 3)), np.zeros((2, 3)), np.zeros(3, dtype=np.int64))


class TestGhosts:
    def test_append_ghosts_returns_range(self, atoms):
        start, count = atoms.append_ghosts(np.zeros((2, 3)), np.array([20, 21]))
        assert (start, count) == (3, 2)
        assert atoms.ntotal == 5
        assert atoms.nghost == 2

    def test_ghosts_follow_locals_in_memory(self, atoms):
        atoms.append_ghosts(7 * np.ones((2, 3)), np.array([20, 21]))
        assert np.all(atoms.x[3:] == 7.0)
        assert np.array_equal(atoms.tag[3:], [20, 21])

    def test_clear_ghosts(self, atoms):
        atoms.append_ghosts(np.zeros((2, 3)), np.array([20, 21]))
        atoms.clear_ghosts()
        assert atoms.nghost == 0
        assert atoms.ntotal == 3

    def test_ghost_forces_zeroed_on_append(self, atoms):
        atoms._f[3:5] = 42.0
        atoms.append_ghosts(np.zeros((2, 3)), np.array([20, 21]))
        assert np.all(atoms.f[3:5] == 0.0)


class TestGrowth:
    def test_growth_preserves_data(self):
        a = Atoms(capacity=2)
        a.set_local(np.ones((2, 3)), np.zeros((2, 3)), np.array([1, 2]))
        a.append_ghosts(2 * np.ones((10, 3)), np.arange(10, dtype=np.int64))
        assert np.all(a.x[:2] == 1.0)
        assert np.all(a.x[2:] == 2.0)
        assert a.grow_events >= 1

    def test_presized_arrays_never_grow(self):
        """The paper's section 3.4 invariant: theoretical-max sizing means
        zero reallocation during the run."""
        a = Atoms(capacity=100)
        a.set_local(np.zeros((10, 3)), np.zeros((10, 3)), np.arange(10, dtype=np.int64))
        for _ in range(5):
            a.clear_ghosts()
            a.append_ghosts(np.zeros((80, 3)), np.arange(80, dtype=np.int64))
        assert a.grow_events == 0

    def test_reserve_noop_when_sufficient(self, atoms):
        cap = atoms.capacity
        atoms.reserve(cap - 1)
        assert atoms.capacity == cap
        assert atoms.grow_events == 0


class TestForces:
    def test_zero_forces(self, atoms):
        atoms.f[:] = 3.0
        atoms.zero_forces()
        assert np.all(atoms.f == 0.0)


# -- arena: ranks sharing world-flat arrays behave as lone Atoms do ---------
N_RANKS = 3

_count = st.integers(0, 12)
OPS = st.one_of(
    st.tuples(st.just("set_local"), _count),
    st.tuples(st.just("append_ghosts"), _count),
    st.tuples(st.just("clear_ghosts"), st.none()),
    st.tuples(st.just("reserve"), st.integers(0, 40)),
    st.tuples(st.just("write"), st.none()),
)


def apply(atoms, op, arg, rng):
    """One population call (or an in-place write through the views) with
    payloads drawn from ``rng`` — same seed, same payloads."""
    if op == "set_local":
        atoms.set_local(
            rng.normal(size=(arg, 3)), rng.normal(size=(arg, 3)),
            rng.integers(0, 999, arg), rng.integers(0, 3, arg).astype(np.int32),
        )
    elif op == "append_ghosts":
        atoms.append_ghosts(rng.normal(size=(arg, 3)), rng.integers(0, 999, arg))
    elif op == "clear_ghosts":
        atoms.clear_ghosts()
    elif op == "reserve":
        atoms.reserve(arg)
    else:
        atoms.x[...] += 1.0
        atoms.f[...] = rng.normal(size=atoms.f.shape)
        atoms.v[...] *= 2.0


def state(atoms):
    return (
        atoms.nlocal, atoms.nghost, atoms.grow_events, atoms.capacity,
        atoms.x.tobytes(), atoms.v.tobytes(), atoms.f.tobytes(),
        atoms.tag.tobytes(), atoms.type.tobytes(),
    )


class TestArena:
    @settings(max_examples=60, deadline=None)
    @given(
        capacities=st.lists(st.integers(1, 6), min_size=N_RANKS, max_size=N_RANKS),
        script=st.lists(st.tuples(st.integers(0, N_RANKS - 1), OPS), max_size=30),
    )
    def test_arena_backed_ranks_equal_lone_twins(self, capacities, script):
        """Any sequence of population calls on ranks that share an arena
        leaves what the same sequence leaves on lone ``Atoms`` — values,
        counts, growth accounting — across every forced re-layout, and the
        views stay windows of the arena's arrays."""
        shared = [Atoms(capacity=c) for c in capacities]
        lone = [Atoms(capacity=c) for c in capacities]
        arena = AtomArena.adopt(shared)
        assert arena.members == shared and arena.relayouts == 0
        for step, (rank, (op, arg)) in enumerate(script):
            apply(shared[rank], op, arg, np.random.default_rng(step))
            apply(lone[rank], op, arg, np.random.default_rng(step))
            for a, b in zip(shared, lone):
                assert state(a) == state(b)
                assert a.arena is arena and b.arena is not arena
                assert np.shares_memory(a._x, arena.x) and np.shares_memory(a._f, arena.f)
            assert [a.start for a in shared] == arena.starts[:-1].tolist()
        assert arena.relayouts == sum(a.grow_events for a in shared)
        assert arena.rows == sum(a.capacity for a in shared)

    def test_adopting_keeps_identity_and_contents(self):
        ranks = [Atoms(capacity=4) for _ in range(3)]
        for k, atoms in enumerate(ranks):
            atoms.set_local(np.full((2, 3), k + 1.0), np.full((2, 3), -k), np.array([k, k + 10]))
            atoms.append_ghosts(np.full((1, 3), 7.0), np.array([99]))
        before = [state(a) for a in ranks]
        arena = AtomArena.adopt(ranks, capacity=6)
        assert [state(a)[:3] + state(a)[4:] for a in ranks] == [s[:3] + s[4:] for s in before]
        assert [a.capacity for a in ranks] == [6, 6, 6] and arena.starts.tolist() == [0, 6, 12, 18]
        assert AtomArena.adopt(ranks, capacity=5) is arena  # already one arena, big enough

    def test_ranks_adopted_elsewhere_have_left(self):
        """A different membership is a new arena; the old one forgets who
        left at its next re-layout instead of pulling them back."""
        ranks = [Atoms(capacity=4) for _ in range(3)]
        for k, atoms in enumerate(ranks):
            atoms.set_local(np.full((2, 3), k + 1.0), np.zeros((2, 3)), np.array([k, k + 10]))
        old = AtomArena.adopt(ranks)
        new = AtomArena.adopt(ranks[:2])
        assert new is not old and ranks[2].arena is old and ranks[0].arena is new
        ranks[0].x[...] = 42.0
        ranks[2].reserve(9)  # re-lays the old arena out: only its own member moves
        assert old.members == [ranks[2]] and old.rows == 9
        assert ranks[0].arena is new and (ranks[0].x == 42.0).all()
        assert (ranks[2].x == 3.0).all() and np.shares_memory(ranks[2]._x, old.x)

    def test_a_copy_is_a_lone_twin(self):
        import copy

        ranks = [Atoms(capacity=4) for _ in range(2)]
        AtomArena.adopt(ranks)
        ranks[1].set_local(np.ones((3, 3)), np.zeros((3, 3)), np.arange(3))
        twin = copy.deepcopy(ranks[1])
        assert state(twin) == state(ranks[1])
        assert twin.arena is not ranks[1].arena and twin.arena.members == [twin]
        twin.x[...] = 5.0
        assert (ranks[1].x == 1.0).all()
