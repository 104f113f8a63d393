"""The pack-once border stage against the per-route oracle.

``_reference_borders.py`` holds the border stage as it stood before
``P2PExchange`` classified each rank once and packed all neighbors'
payload rows with three gathers.  Everything the stage leaves behind —
ghost rows, routes, RDMA windows, traffic records, plan counters — must be
equal on every plane, for half and full shells, with and without RDMA,
below and above ``r_comm = a/2``, before and after a migration.
"""

from contextlib import nullcontext

import _reference_borders as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_three_stage_golden import routes_of

from repro import quick_lj_simulation
from repro.core import BorderBins, FineGrainedP2PExchange, P2PExchange, modeling
from repro.core.comm_plan import RoundGeometry, WorldGeometry
from repro.core.ghost import GhostBudget
from repro.core.patterns import half_shell_offsets, shell_offsets
from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.md import Box, Domain
from repro.md.atoms import Atoms
from repro.md.presets import PRESETS
from repro.md.region import SubBox
from repro.md.simulation import Simulation
from repro.obs import observe
from repro.runtime import World

BOX_EDGE = 12.0
PATTERNS = {"p2p": P2PExchange, "parallel-p2p": FineGrainedP2PExchange}


def drop_and_redeliver():
    """A message-fault session that loses border and piggyback messages
    and redelivers them after two retry polls."""
    plan = FaultPlan(
        seed=5,
        faults=(
            FaultSpec(
                kind="drop", probability=0.25, severity=2,
                phases=("border", "border-piggyback"),
            ),
        ),
    )
    return FAULTS.inject(plan)


PLANES = {
    "direct": nullcontext,
    "mailbox-observed": observe,
    "mailbox-faulted": drop_and_redeliver,
}


def build_exchange(pattern, grid, rcomm, newton, rdma, seed, natoms=400):
    """A fresh exchange over random typed atoms scattered by ownership."""
    world = World(int(np.prod(grid)), grid=grid)
    domain = Domain(Box((0, 0, 0), (BOX_EDGE,) * 3), grid)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, BOX_EDGE, size=(natoms, 3))
    v = rng.normal(size=(natoms, 3))
    tags = np.arange(natoms, dtype=np.int64)
    types = rng.integers(0, 3, size=natoms).astype(np.int32)
    groups = domain.scatter(x)
    for rank in range(world.size):
        idx = groups.get(world.grid_pos_of(rank), np.empty(0, dtype=np.intp))
        atoms = Atoms()
        atoms.set_local(x[idx], v[idx], tags[idx], types[idx])
        world.ranks[rank].state["atoms"] = atoms
    return PATTERNS[pattern](world, domain, rcomm, newton=newton, rdma=rdma)


def installed_windows(ex, rank):
    """``rank``'s RemoteWindows with every STag (a process-wide serial
    number) resolved to what it names on the advertising endpoint."""
    out = {}
    for slot, window in ex.endpoints[rank].remote.items():
        owner = ex.endpoints[window.rank]
        rings = [tuple(ring.stags()) for ring in owner.recv_rings]
        out[slot] = (
            window.rank,
            window.ghost_elem_offset,
            window.x_stag == owner.x_region.stag,
            rings.index(window.recv_stags),
        )
    return out


def assert_same_border_state(new, old):
    """Everything a border stage leaves behind, new == oracle."""
    for rank in range(new.world.size):
        a, b = new.atoms_of(rank), old.atoms_of(rank)
        assert (a.nlocal, a.nghost) == (b.nlocal, b.nghost)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.tag, b.tag) and a.tag.dtype == b.tag.dtype
        assert np.array_equal(a.type, b.type) and a.type.dtype == b.type.dtype
        assert not a.f[a.nlocal :].any()
        # Routes: static geometry x the epoch's bounds, on both sides.
        (sends_a, recvs_a), (sends_b, recvs_b) = routes_of(new, rank), routes_of(old, rank)
        assert len(sends_a) == len(sends_b) == len(new.send_offsets)
        for (peer_a, idx_a, shift_a, *rest_a), (peer_b, idx_b, shift_b, *rest_b) in zip(
            sends_a, sends_b
        ):
            assert (peer_a, rest_a) == (peer_b, rest_b)
            assert idx_a.dtype == idx_b.dtype
            assert np.array_equal(idx_a, idx_b)
            assert np.array_equal(shift_a, shift_b)
        assert recvs_a == recvs_b and len(recvs_a) == len(new.recv_offsets)
        if new.rdma:
            assert installed_windows(new, rank) == installed_windows(old, rank)
    la, lb = new.world.transport.log, old.world.transport.log
    assert la.messages == lb.messages
    assert (la.grand_total_count, la.grand_total_bytes) == (
        lb.grand_total_count, lb.grand_total_bytes,
    )
    assert new.plan_stats() == old.plan_stats()
    assert new.reregistrations == old.reregistrations
    assert (new.retries, new.retry_model_time) == (old.retries, old.retry_model_time)
    new.world.transport.assert_drained()


def migrate(ex, seed):
    """Kick every local atom and run the migration stage."""
    rng = np.random.default_rng(seed)
    for rank in range(ex.world.size):
        x = ex.atoms_of(rank).x_local()
        x += rng.normal(scale=0.8, size=x.shape)
    ex.exchange()


@pytest.mark.parametrize("plane", list(PLANES))
@pytest.mark.parametrize("rdma", [False, True], ids=["messages", "rdma"])
@pytest.mark.parametrize("newton", [True, False], ids=["half13", "full26"])
@pytest.mark.parametrize("pattern", list(PATTERNS))
def test_border_stage_equals_per_route_oracle(pattern, newton, rdma, plane):
    """(3, 3, 3) ranks at r_comm = 0.7 a: atoms in both borders of an
    axis, distinct peers per offset; then again after a migration."""
    args = (pattern, (3, 3, 3), 2.8, newton, rdma, 11)
    new, old = build_exchange(*args), build_exchange(*args)
    for step in range(2):
        with PLANES[plane]():
            new.borders()
        with PLANES[plane]():
            ref.borders(old)
        assert_same_border_state(new, old)
        assert (new.retries > 0) == (plane == "mailbox-faulted")
        # The arrays the border stage wrote as it packed and landed are
        # the arrays concatenated from the oracle's per-route records.
        for plan, other in zip(new._epoch.plans, old._epoch.plans):
            assert plan.fwd_idx.flags.c_contiguous
            for name in ("fwd_idx", "shift_rows", "send_bounds", "recv_bounds"):
                assert np.array_equal(getattr(plan, name), getattr(other, name))
        # ... and so are the world tables derived from them.
        assert new._epoch.world is not None
        for table, other in zip(new._epoch.world, old._epoch.world):
            assert table.spans == other.spans
            for name in ("src_rows", "shifts", "ghost_rows", "bins", "owned"):
                assert np.array_equal(getattr(table, name), getattr(other, name))
        new.forward()
        old.forward()
        assert_same_border_state(new, old)
        migrate(new, seed=step)
        migrate(old, seed=step)


@pytest.mark.parametrize("rcomm", [2.0, 5.5], ids=["below-half", "above-half"])
def test_small_grid_with_repeated_peers(rcomm):
    """(2, 2, 2): the +1 and -1 neighbors of an axis are the same rank, so
    only the tags tell a rank's routes to one peer apart."""
    for rdma in (False, True):
        args = ("p2p", (2, 2, 2), rcomm, True, rdma, 4)
        new, old = build_exchange(*args), build_exchange(*args)
        new.borders()
        ref.borders(old)
        assert_same_border_state(new, old)


# -- the routing itself ----------------------------------------------------
@st.composite
def routing_cases(draw):
    """One to four random sub-boxes, one ``r_comm`` in (0, a] of the
    narrowest edge, random atoms in each plus atoms exactly on the
    thresholds the flags compare against."""
    subs = []
    for _ in range(draw(st.integers(1, 4))):
        lo = [draw(st.floats(-20, 20)) for _ in range(3)]
        edge = [draw(st.floats(0.5, 6.0)) for _ in range(3)]
        subs.append(
            SubBox(tuple(lo), tuple(low + e for low, e in zip(lo, edge)), (1, 1, 1), (3, 3, 3))
        )
    a = min(float(sub.lengths.min()) for sub in subs)
    regime = draw(st.sampled_from(["below", "above", "edge"]))
    if regime == "below":
        rcomm = a * draw(st.floats(0.01, 0.5))
    elif regime == "above":
        rcomm = a * draw(st.floats(0.5, 1.0, exclude_min=True))
    else:
        rcomm = a
    rcomm = min(rcomm, a)
    xs = []
    for sub in subs:
        n = draw(st.integers(0, 40))
        unit = draw(
            st.lists(st.tuples(*[st.floats(0, 1, exclude_max=True)] * 3), min_size=n, max_size=n)
        )
        x = np.asarray(sub.lo) + np.array(unit).reshape(n, 3) * sub.lengths
        on_edge = [np.asarray(sub.lo) + rcomm, np.asarray(sub.hi) - rcomm]
        xs.append(np.concatenate([x, *[e[None, :] for e in on_edge]]))
    return subs, rcomm, xs, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(routing_cases())
def test_route_equals_border_mask_sweeps(case):
    """Six-flag routing == the 13/26 brute-force sweeps, order included,
    for every r_comm in (0, min edge]: one sub-box at a time, and every
    sub-box at once through the world classifier, whose padding rows
    (threshold atoms, which would route) are never routed."""
    subs, rcomm, xs, full = case
    offsets = (
        shell_offsets(1)
        if full
        else [tuple(-o for o in off) for off in half_shell_offsets(1)]
    )
    sweeps = [
        [np.flatnonzero(sub.border_mask(x, off, rcomm)) for off in offsets]
        for sub, x in zip(subs, xs)
    ]
    for sub, x, brute in zip(subs, xs, sweeps):
        bins = BorderBins(sub, rcomm, offsets)
        for routed, swept in zip(bins.route(x), brute):
            assert np.array_equal(routed, swept)
        idx, counts = bins.route_flat(x)
        assert idx.dtype == np.intp and idx.flags.c_contiguous
        assert np.array_equal(idx, np.concatenate(brute))
        assert counts.tolist() == [s.size for s in brute]

    nlocal = np.array([x.shape[0] for x in xs])
    padded = np.empty((len(xs), nlocal.max() + 2, 3))
    for row, sub, x in zip(padded, subs, xs):
        row[:] = np.asarray(sub.hi) - rcomm
        row[: x.shape[0]] = x
    idx, counts = BorderBins(subs, rcomm, offsets).route_world(padded, nlocal)
    assert idx.dtype == np.intp and idx.flags.c_contiguous
    assert np.array_equal(idx, np.concatenate([part for brute in sweeps for part in brute]))
    assert counts.tolist() == [[s.size for s in brute] for brute in sweeps]


def test_route_world_of_empty_sub_boxes():
    """No local atoms anywhere: a zero-width block routes nothing."""
    subs = [SubBox((0.0,) * 3, (4.0,) * 3, (1, 1, 1), (3, 3, 3))] * 3
    idx, counts = BorderBins(subs, 1.0, shell_offsets(1)).route_world(
        np.empty((3, 0, 3)), np.zeros(3, dtype=np.intp)
    )
    assert idx.size == 0 and counts.shape == (3, 26) and not counts.any()


# -- the world pass's own rules ---------------------------------------------
def test_a_border_stage_outgrowing_its_slabs_relays_out_before_landing():
    """Slabs far below the ghost budget: every receiver that outgrows its
    slab re-lays the arena out once (reserved for the whole round before
    any row lands), and the ghosts equal the mailbox plane's, which grows
    message by message."""
    args = ("p2p", (3, 3, 3), 2.8, True, False, 11)
    new, carried = build_exchange(*args), build_exchange(*args)
    for ex in (new, carried):
        ex._budget = GhostBudget(a=4.0, r=ex.rcomm, density=1e-6)
    caps = [new.atoms_of(rank).capacity for rank in range(27)]
    new.borders()
    with observe():
        carried.borders()
    grown = [rank for rank in range(27) if new.atoms_of(rank).ntotal > caps[rank]]
    assert grown and new.arena.relayouts == len(grown)
    for rank in range(27):
        a, b = new.atoms_of(rank), carried.atoms_of(rank)
        need = a.ntotal
        assert a.capacity == (max(need, 2 * caps[rank]) if rank in grown else caps[rank])
        assert (a.nlocal, a.nghost) == (b.nlocal, b.nghost)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.tag, b.tag)
        assert np.array_equal(a.type, b.type) and not a.f[a.nlocal :].any()
    new.forward()  # the epoch's rows are of the final layout
    carried.forward()
    for rank in range(27):
        assert np.array_equal(new.atoms_of(rank).x, carried.atoms_of(rank).x)


def test_windows_follow_a_reregistration():
    """A slab outgrown between two border stages moves every registration:
    the next stage's windows name the new position arrays, not the
    remembered ones."""
    ex = build_exchange("p2p", (3, 3, 3), 2.8, True, True, 11)
    ex.borders()
    atoms = ex.atoms_of(4)
    atoms.reserve(2 * atoms.capacity)  # the arena re-lays out
    ex.borders()
    assert ex.reregistrations > 0
    for rank in range(27):
        assert all(same_x for _, _, same_x, _ in installed_windows(ex, rank).values())


def test_world_geometry_refuses_ranks_of_unequal_shape():
    ex = build_exchange("p2p", (3, 3, 3), 2.8, True, False, 11)
    ex.borders()
    geom = [list(rounds) for rounds in ex._geom]
    g = geom[1][0]
    sends = list(zip(g.send_peers, g.shifts, g.send_tags, g.send_hops))[:-1]
    geom[1][0] = RoundGeometry(
        sends, list(zip(g.recv_peers, g.recv_tags, g.recv_hops, g.recv_slots))
    )
    with pytest.raises(ValueError, match=r"round 0: ranks differ in their \(sends, receives\)"):
        WorldGeometry(geom)


class Counter:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def count_calls(monkeypatch):
    mask = Counter(SubBox.border_mask)
    code = Counter(BorderBins.code_of)
    monkeypatch.setattr(SubBox, "border_mask", lambda self, *a: mask(self, *a))
    monkeypatch.setattr(BorderBins, "code_of", lambda self, x: code(self, x))
    return mask, code


def test_radius1_classifies_once_per_border_stage_and_never_masks(monkeypatch):
    """27 ranks at r_comm = 0.83 a: one world classification per
    reneighbouring, zero border_mask calls."""
    sim = quick_lj_simulation(cells=(6, 6, 6), ranks=(3, 3, 3), pattern="parallel-p2p", rdma=True)
    assert sim.exchange.rcomm > sim.domain.sub_lengths.min() / 2
    mask, code = count_calls(monkeypatch)
    sim.run(25)
    assert sim.rebuilds >= 1
    assert mask.calls == 0
    assert code.calls == 1 + sim.rebuilds


def test_radius2_still_uses_border_mask(monkeypatch):
    sim = quick_lj_simulation(
        cells=(4, 4, 4), ranks=(4, 1, 1), pattern="p2p", seed=23, shell_radius=2
    )
    mask, code = count_calls(monkeypatch)
    sim.setup()
    assert code.calls == 0
    assert mask.calls == 4 * len(sim.exchange.send_offsets)


# -- whole runs through the oracle ------------------------------------------
@pytest.mark.parametrize("potential", ["lj", "eam"])
def test_200_step_run_equals_the_oracle_path(potential, monkeypatch):
    """lj-strong / eam-hot shaped runs (27 ranks, parallel-p2p + rdma,
    model time on): positions, velocities, forces, thermo and the
    modeled clock equal a run whose border stage is the per-route oracle,
    whose plans are concatenated from routes and whose steps are priced
    rank by rank on the event loop."""
    preset = PRESETS[potential]

    def build():
        x, v, box = preset.build_system(
            (6, 6, 6), 1.0 if potential == "eam" else None, seed=777
        )
        cfg = preset.config(
            "parallel-p2p", True, model_machine_time=True, thermo_every=20
        )
        return Simulation(x, v, box, preset.potential(), cfg, grid=(3, 3, 3))

    new = build()
    new.run(200)

    old = build()
    old.exchange.borders = lambda: ref.borders(old.exchange)
    monkeypatch.setattr(modeling, "simulate_rounds", lambda *args: None)
    old.run(200)

    assert new.rebuilds == old.rebuilds >= 3
    assert np.array_equal(new.gather_positions(), old.gather_positions())
    assert np.array_equal(new.gather_velocities(), old.gather_velocities())
    assert np.array_equal(new.gather_forces(), old.gather_forces())
    assert new.samples == old.samples and len(new.samples) == 10
    assert new.timers.model == old.timers.model
    assert all(type(t) is float for t in new.timers.model.values())
    assert new.exchange.plan_stats() == old.exchange.plan_stats()
    log_new, log_old = new.world.transport.log, old.world.transport.log
    assert (log_new.grand_total_count, log_new.grand_total_bytes) == (
        log_old.grand_total_count, log_old.grand_total_bytes,
    )
