"""The plane selector's truth table, one phase at a time.

``GhostExchange._plane`` is the only place that decides how a round's
rows travel: the ``direct`` world table, the ``mailbox`` transport, or
the ``rdma`` PUT/fence/ring machinery.  Each cell below runs exactly one
forward phase and one reverse phase and checks which plane carried them,
how the ``plan_stats()`` counters moved, and what reached the traffic
log (PUT phases are never logged messages, whichever plane stands in).
The selector serves every pattern: the staged 3-stage exchange sits in
the table beside the two p2p flavours.

Below the table, the planes against each other bit for bit — as integer
views, so a ``-0.0`` that one plane turns into ``+0.0`` is a failure —
with faults armed that never fire, and with message faults that do.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import P2PExchange, ThreeStageExchange
from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.faults.plan import template_plan
from repro.obs.metrics import collecting
from repro.obs.trace import tracing
from tests._world_arrays import scalar_phase
from tests.core.test_exchanges import build_world


def armed(*kinds):
    """A fault session whose faults are armed but can never fire."""
    faults = tuple(FaultSpec(kind=k, probability=0.0) for k in kinds)
    return lambda: FAULTS.inject(FaultPlan(seed=0, faults=faults))


# regime -> (context, gate cause counted in slowpath_phases or None, direct?)
REGIMES = {
    "no-session": (nullcontext, None, True),
    "idle-session": (armed(), None, True),
    "message-fault-armed": (armed("drop"), "faults", False),
    "rdma-fault-armed": (armed("rdma-stale"), "faults", False),
    "tracer-on": (tracing, "observability", False),
    "metrics-on": (collecting, "observability", False),
}


FLAVOURS = {
    "messages": lambda world, domain: P2PExchange(world, domain, rcomm=2.0),
    "rdma": lambda world, domain: P2PExchange(world, domain, rcomm=2.0, rdma=True),
    "3stage": lambda world, domain: ThreeStageExchange(world, domain, rcomm=2.0),
}


@pytest.mark.parametrize("kind", ["vector", "scalar"])
@pytest.mark.parametrize("flavour", list(FLAVOURS))
@pytest.mark.parametrize("regime", list(REGIMES))
def test_plane_selection_table(regime, flavour, kind):
    context, cause, direct = REGIMES[regime]
    world, domain, _, _ = build_world((2, 2, 2), natoms=300, seed=3)
    ex = FLAVOURS[flavour](world, domain)
    rdma = ex.rdma
    ex.borders()

    chosen = []
    select = ex._plane

    def spy(phase):
        chosen.append(select(phase))
        return chosen[-1]

    ex._plane = spy
    scalars = {
        r: np.arange(ex.atoms_of(r).ntotal, dtype=np.float64)
        for r in range(world.size)
    }
    n_routes = sum(ex.messages_per_rank().values())
    log = world.transport.log
    before, blocks, logged = ex.plan_stats(), dict(ex._gate_blocks), log.count()
    with context():
        if kind == "vector":
            ex.forward()
            ex.reverse()
        else:
            scalar_phase(ex.forward_scalar_world, scalars)
            scalar_phase(ex.reverse_sum_scalar_world, scalars)
    after = ex.plan_stats()

    is_put = rdma and kind == "vector"
    plane = "direct" if direct else "rdma" if is_put else "mailbox"
    assert chosen == [plane, plane]
    # fastpath_phases: delivered without the mailbox; slowpath_phases:
    # refusals of the direct plane, by cause.
    assert after["fastpath_phases"] - before["fastpath_phases"] == (
        0 if plane == "mailbox" else 2
    )
    assert after["slowpath_phases"] - before["slowpath_phases"] == (2 if cause else 0)
    for name, count in ex._gate_blocks.items():
        assert count - blocks[name] == (2 if name == cause else 0)
    assert after["plan_builds"] == before["plan_builds"]
    assert log.count() - logged == (0 if is_put else 2 * n_routes)
    assert log.grand_total_count == log.count()
    world.transport.assert_drained()


# name -> (grid, atoms, rcomm, exchange factory); every one also runs with
# the other plane an armed session selects for it
SHAPES = {
    "p2p-half13": ((3, 3, 3), 500, 2.0, lambda w, d, r: P2PExchange(w, d, r)),
    "p2p-full26": ((3, 3, 3), 500, 2.0, lambda w, d, r: P2PExchange(w, d, r, newton=False)),
    "p2p-half13-rdma": ((3, 3, 3), 500, 2.0, lambda w, d, r: P2PExchange(w, d, r, rdma=True)),
    # the +1 and -1 neighbours of an axis are one rank
    "repeated-peers": ((2, 2, 2), 300, 2.0, lambda w, d, r: P2PExchange(w, d, r)),
    "repeated-peers-rdma": ((2, 2, 2), 300, 2.0, lambda w, d, r: P2PExchange(w, d, r, rdma=True)),
    "radius2": ((3, 2, 2), 600, 1.5, lambda w, d, r: P2PExchange(w, d, r, radius=2)),
    "3stage": ((3, 3, 3), 500, 2.0, lambda w, d, r: ThreeStageExchange(w, d, r)),
    "3stage-radius2": ((3, 2, 2), 600, 1.5, lambda w, d, r: ThreeStageExchange(w, d, r, radius=2)),
}


def signed_zeros(rng, shape):
    """Random values with a third of the entries ``+0.0`` and a third
    ``-0.0``: what ``x + 0.0`` changes and ``==`` does not see."""
    values = rng.normal(size=shape)
    kind = rng.integers(0, 3, size=shape)
    values[kind == 1] = 0.0
    values[kind == 2] = -0.0
    return values


def bits(array):
    return np.ascontiguousarray(array).view(np.int64)


def run_both_planes(name, context):
    """Two identical worlds of ``SHAPES[name]`` — positions jittered,
    forces and two scalar arrays a third ``+0.0`` and a third ``-0.0`` —
    run forward, reverse and both scalar phases, the first on the direct
    plane and the second inside ``context()``; every array is compared
    as integers.  Returns the second exchange."""
    grid, natoms, rcomm, make = SHAPES[name]
    exchanges = []
    for _ in range(2):
        world, domain, _, _ = build_world(grid, natoms=natoms, seed=5)
        exchanges.append(make(world, domain, rcomm))
        exchanges[-1].borders()
    direct, other = exchanges
    ranks = range(direct.world.size)
    rng = np.random.default_rng(8)
    for rank in ranks:
        a, b = direct.atoms_of(rank), other.atoms_of(rank)
        assert np.array_equal(a.tag, b.tag)
        a.x_local()[...] += rng.normal(scale=0.05, size=(a.nlocal, 3))
        b.x_local()[...] = a.x_local()
        a.f[...] = signed_zeros(rng, a.f.shape)
        b.f[...] = a.f
    scalars = [
        {rank: signed_zeros(rng, direct.atoms_of(rank).ntotal) for rank in ranks}
        for _ in range(2)
    ]
    ran = []
    for ex, ctx in ((direct, nullcontext), (other, context)):
        mine = [{rank: values.copy() for rank, values in each.items()} for each in scalars]
        before = ex.plan_stats()["slowpath_phases"]
        with ctx():
            ex.forward()
            ex.reverse()
            scalar_phase(ex.forward_scalar_world, mine[0])
            scalar_phase(ex.reverse_sum_scalar_world, mine[1])
        ran.append((ex.plan_stats()["slowpath_phases"] - before, mine))
    (refused_direct, got), (refused_other, want) = ran
    assert (refused_direct, refused_other) == (0, 4)
    for rank in ranks:
        a, b = direct.atoms_of(rank), other.atoms_of(rank)
        assert np.array_equal(bits(a.x), bits(b.x)), f"x differs on rank {rank}"
        assert np.array_equal(bits(a.f), bits(b.f)), f"f differs on rank {rank}"
        assert np.signbit(a.f[a.f == 0.0]).any()  # the case is there to be caught
        for g, w in zip(got, want):
            assert np.array_equal(bits(g[rank]), bits(w[rank])), f"scalar differs on {rank}"
    return other


@pytest.mark.parametrize("name", list(SHAPES))
def test_direct_plane_equals_the_armed_plane_bit_for_bit(name):
    run_both_planes(name, armed("drop", "rdma-stale"))


@pytest.mark.parametrize("kind", ["drop", "delay", "reorder"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_fired_message_faults_leave_the_carrying_planes_bit_identical(shape, kind):
    """Faults that fire: dropped, late and reordered messages are retried
    or matched by tag, and what lands in the stage slices is what the
    direct plane gathers."""
    carried = run_both_planes(shape, lambda: FAULTS.inject(template_plan(kind)))
    if kind in ("drop", "delay"):
        assert carried.retries > 0
