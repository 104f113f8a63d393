"""Modeled Fugaku time for functional exchanges.

A functional run on the in-process runtime has no meaningful wall-clock
communication cost (everything is a memcpy).  This module prices the
*actual routes* an exchange built — real per-neighbor atom counts, real
hops — on the network simulator, so a functional `Simulation` can also
report the five-stage breakdown in simulated Fugaku seconds
(``StageTimers.model``).  It is the bridge between the two halves of the
reproduction: the perfmodel sweeps use analytic message sizes, while
this uses the measured ones, and tests check they agree.
"""

from __future__ import annotations

import numpy as np

from repro.core.exchange_base import GhostExchange
from repro.faults.injector import FAULTS
from repro.machine.params import FUGAKU, MachineParams
from repro.network.simulator import Message, NetworkSimulator, simulate_owned_rounds
from repro.network.stacks import SoftwareStack, UtofuStack
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER


def stack_for_exchange(
    exchange: GhostExchange, params: MachineParams = FUGAKU
) -> SoftwareStack:
    """The software stack the pattern declares: baseline 3-stage runs on
    MPI, the p2p exchanges on uTofu (the paper's pairings)."""
    return exchange.stack_cls(params=params)


def rank_messages(
    exchange: GhostExchange,
    rank: int,
    bytes_per_atom: int,
    known_length: bool,
) -> list[Message]:
    """Simulator messages for one rank's sends of one exchange phase."""
    msgs = exchange.comm_schedule(rank, bytes_per_atom)
    if known_length:
        return msgs
    return [
        Message(m.nbytes, m.hops, m.rank, m.thread, m.tni, known_length=False)
        for m in msgs
    ]


_PHASE_BYTES = {"forward": 24, "reverse": 24, "border": 32}


def _cache_for(exchange: GhostExchange) -> dict | None:
    """The priced times of the exchange's epoch, or ``None`` when results
    must not be cached: traced/metered/faulted runs always re-simulate so
    their per-round model spans, counters and stall injections stay
    complete."""
    if FAULTS.session is not None or TRACER.enabled or METRICS.enabled:
        return None
    return exchange._current().priced


def _payload(exchange: GhostExchange, phase: str, params: MachineParams):
    """(stack, bytes per atom, known_length) pricing ``phase``."""
    bytes_per_atom = _PHASE_BYTES.get(phase)
    if bytes_per_atom is None:
        raise ValueError(f"unknown phase {phase!r}")
    stack = stack_for_exchange(exchange, params)
    # Message combine / piggyback: uTofu paths always know lengths; the
    # MPI baseline only for fixed-size forward/reverse replays.
    return stack, bytes_per_atom, isinstance(stack, UtofuStack) or phase != "border"


def modeled_exchange_time(
    exchange: GhostExchange,
    phase: str = "forward",
    params: MachineParams = FUGAKU,
    rank: int = 0,
) -> float:
    """Simulated seconds for one exchange phase of one rank's schedule.

    ``phase`` selects the payload width: ``forward``/``reverse`` move 3
    doubles per atom, ``border`` adds the tag (and, under MPI without
    message combine, the extra length message).

    The modeled time is a pure function of the epoch, the payload width
    and the machine params, so with faults and observability off it is
    kept with the epoch (and goes with it on reneighboring), keyed on
    exactly those — ``reverse`` is ``forward``'s
    entry, and two params objects price alike iff they are equal.
    """
    stack, bytes_per_atom, known = _payload(exchange, phase, params)
    cache = _cache_for(exchange)
    if cache is not None:
        key = (bytes_per_atom, known, params)
        times = cache.get(key)
        if times is None:
            times = cache[key] = [None] * exchange.world.size
        elif times[rank] is not None:
            return times[rank]
    sim = NetworkSimulator(stack, params)
    msgs = rank_messages(exchange, rank, bytes_per_atom, known)

    fence = exchange.sends_per_stage
    if fence:
        stages = [msgs[i : i + fence] for i in range(0, len(msgs), fence)]
        result = sim.run_staged(stages).completion_time
    else:
        result = sim.run_round(msgs).completion_time
    if cache is not None:
        times[rank] = result
    return result


def _world_times(
    exchange: GhostExchange, phase: str, params: MachineParams
) -> list[float] | None:
    """Every rank's modeled time for ``phase`` from one vectorized pass.

    The ``(ranks, sends)`` tables (atoms from the epoch's send bounds,
    hops from the static geometry) become
    the ``(ranks, messages)`` schedule :func:`rank_messages` would list
    rank by rank, and :func:`~repro.network.simulator.simulate_owned_rounds`
    prices it into the epoch's cache — bit-identical to what
    :func:`modeled_exchange_time` returns per rank.  A fenced pattern is
    priced stage by stage, each rank's next stage starting at its own
    completion plus the barrier (``NetworkSimulator.run_staged`` per
    rank).  ``None`` when nothing may be cached or the schedule is not
    one the closed form takes (ranks with differing send counts,
    multi-message protocols, shared TNIs): callers then simulate rank by
    rank.
    """
    cache = _cache_for(exchange)
    if cache is None:
        return None
    stack, bytes_per_atom, known = _payload(exchange, phase, params)
    key = (bytes_per_atom, known, params)
    times = cache.get(key)
    if times is not None:
        return None if None in times else times
    counts, hops = zip(*(plan.send_sizes() for plan in exchange._current().plans))
    if len(set(map(len, counts))) != 1:
        return None
    nbytes, hops, thread = exchange.schedule_world(
        np.array(counts), np.array(hops), bytes_per_atom
    )
    ranks, n = nbytes.shape
    fence = exchange.sends_per_stage or max(n, 1)
    barrier = NetworkSimulator(stack, params).barrier_cost
    times = [0.0] * ranks
    for lo in range(0, n, fence):
        start = np.asarray(times) + barrier if lo else np.zeros(ranks)
        stage = slice(lo, lo + fence)
        times = simulate_owned_rounds(
            nbytes[:, stage], hops[:, stage], thread[:, stage], thread[:, stage],
            start, stack, params, known,
        )
        if times is None:
            return None
    cache[key] = times
    return times


def modeled_step_comm_time(
    exchange: GhostExchange,
    rebuild: bool,
    newton: bool = True,
    params: MachineParams = FUGAKU,
) -> float:
    """Simulated comm seconds of one MD step (max over ranks).

    Rebuild steps pay border (+ the exchange migration, approximated as
    a sparse border); ordinary steps pay forward; Newton runs add the
    reverse.

    Like :func:`modeled_exchange_time`, the result is a pure function
    of the epoch, so between reneighborings it is served from the
    epoch's cache (one lookup instead of a max over all
    ranks' per-phase entries) whenever faults and observability are off;
    a miss prices each phase for all ranks at once (:func:`_world_times`).
    """
    cache = _cache_for(exchange)
    key = ("step", rebuild, newton, params)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit

    def slowest(phase: str) -> float:
        times = _world_times(exchange, phase, params)
        if times is None:
            times = [
                modeled_exchange_time(exchange, phase, params, rank)
                for rank in range(exchange.world.size)
            ]
        return max(times)

    if rebuild:
        t = slowest("border") * 1.3  # migration rides along as a sparse extra exchange
    else:
        t = slowest("forward")
    if newton:
        t += slowest("reverse")
    if cache is not None:
        cache[key] = t
    return t
