"""The plane selector's truth table, one phase at a time.

``GhostExchange._plane`` is the only place that decides how packed
buffers travel: ``direct`` slice copies, the ``mailbox`` transport, or
the ``rdma`` PUT/fence/ring machinery.  Each cell below runs exactly one
forward phase and one reverse phase and checks which plane carried them,
how the ``plan_stats()`` counters moved, and what reached the traffic
log (PUT phases are never logged messages, whichever plane stands in).
The selector serves every pattern: the staged 3-stage exchange sits in
the table beside the two p2p flavours.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import P2PExchange, ThreeStageExchange
from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.obs.metrics import collecting
from repro.obs.trace import tracing
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
    "deliveries-unwired": (nullcontext, "unwired", False),
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
    if regime == "deliveries-unwired":
        # What the epoch holds when a pairing's two counts disagree.
        ex._epoch.deliveries = None

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
            ex.forward_scalar_world(scalars)
            ex.reverse_sum_scalar_world(scalars)
    after = ex.plan_stats()

    is_put = rdma and kind == "vector"
    plane = "direct" if direct else "rdma" if is_put else "mailbox"
    assert chosen == [plane, plane]
    # fastpath_phases: delivered without the mailbox; slowpath_phases:
    # refusals of the direct plane, by cause (an unwired epoch is one).
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
