"""Modeled Fugaku time: the one pricer of an exchange round.

A functional run on the in-process runtime has no meaningful wall-clock
communication cost (everything is a memcpy).  Both modeled clocks price
their exchange rounds through :func:`price_exchange` instead:

* the engine hands it the *actual routes* an exchange built — real
  per-neighbor atom counts, real hops, one row per rank — so a functional
  `Simulation` can also report the five-stage breakdown in simulated
  Fugaku seconds (``StageTimers.model``);
* the stage model (:mod:`repro.perfmodel.stagemodel`) hands it Table 1's
  analytic message classes as one row: a node of four ranks.

Every pricing decision is made once, here: the payload width and whether
the receiver knows the length come from the phase (:data:`PHASES`); every
payload is floored at 8 bytes; several communication threads split a
rank's sends by one LPT cost (Fig. 10), thread *t* driving TNI *t*
(Fig. 7); fenced patterns pay the barrier between stages.  Two things
are never charged inside a round: the thread-pool fork / join (charged
once per parallel round where the step is assembled,
:func:`modeled_step_comm_time` and ``StageModel.step_times``) and buffer
copies (the paper's Fig. 6 is measured with packing excluded).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.exchange_base import GhostExchange
from repro.machine.params import FUGAKU, MachineParams
from repro.network.simulator import Message, NetworkSimulator, observed, simulate_rounds
from repro.network.stacks import SoftwareStack
from repro.runtime.threadpool import lpt_bins, lpt_rows

#: phase -> (payload bytes per atom, whether the receiver knows the
#: length).  Forward and reverse move 3 doubles per atom at lengths the
#: border stage fixed (LAMMPS replays them); a border message adds the tag
#: and its length is news to the receiver, which costs MPI a length
#: message first; EAM's two mid-pair rounds move one double.
PHASES = {"forward": (24, True), "reverse": (24, True), "border": (32, False), "pair": (8, True)}


class Schedule(NamedTuple):
    """Every row's messages in issue order: ``(rows, messages)`` tables
    plus, per message column, the rank of the row's node that injects it,
    and the column ranges of the fenced stages."""

    nbytes: np.ndarray
    hops: np.ndarray
    thread: np.ndarray
    tni: np.ndarray
    rank: np.ndarray
    stages: list[slice]


def schedule(
    atoms: np.ndarray,
    hops: np.ndarray,
    bytes_per_atom: int,
    stack: SoftwareStack,
    params: MachineParams = FUGAKU,
    threads: int = 1,
    fence: int | None = None,
    node_ranks: int = 1,
    hop_tnis: int = 1,
) -> Schedule:
    """The messages of ``(rows, sends)`` tables of atoms and hops.

    Each of a row's ``node_ranks`` ranks sends the row's sends.  With
    ``threads`` > 1 a rank's sends are LPT-balanced over its threads by
    injection + software latency + wire cost, thread-major; thread *t*
    drives TNI *t*.  Several rows (a rebuild's 27 ranks) are balanced
    at once by :func:`~repro.runtime.threadpool.lpt_rows`; a single row
    (the stage model's node) keeps :func:`~repro.runtime.threadpool.lpt_bins`,
    which is cheaper there — the same rule, bit for bit.  One thread injects on its rank's own TNI, or hops
    over ``hop_tnis`` TNIs' VCQs send by send (6TNI-single).  ``fence``
    consecutive sends of every rank share one stage (None: one stage).
    """
    nbytes = np.maximum(np.rint(atoms * bytes_per_atom), 8).astype(np.int64)
    hops = np.asarray(hops, dtype=np.int64)
    rows, sends = nbytes.shape
    thread = np.zeros_like(nbytes)
    if threads > 1:
        costs = (
            stack.injection_intervals(nbytes)
            + stack.software_latencies(nbytes)
            + params.wire_times(nbytes, hops)
        )
        if rows == 1:  # one row: the list LPT beats NumPy's fixed cost
            bins = lpt_bins(costs[0].tolist(), threads)
            order = np.array([[i for b in bins for i in b]], dtype=np.intp)
            thread = np.array([[t for t, b in enumerate(bins) for _ in b]], dtype=np.int64)
        else:
            order, thread = lpt_rows(costs, threads)
        nbytes = np.take_along_axis(nbytes, order, 1)
        hops = np.take_along_axis(hops, order, 1)
    fence = fence or max(sends, 1)
    stages, cols = [], []
    for lo in range(0, sends, fence):
        stage = [(k, s) for k in range(node_ranks) for s in range(lo, min(lo + fence, sends))]
        stages.append(slice(len(cols), len(cols) + len(stage)))
        cols += stage
    rank, slot = np.array(cols, dtype=np.int64).reshape(-1, 2).T
    if threads > 1:
        tni = thread[:, slot]
    else:
        lane = slot % hop_tnis if hop_tnis > 1 else rank % params.tnis_per_node
        tni = np.broadcast_to(lane, (rows, len(slot)))
    return Schedule(nbytes[:, slot], hops[:, slot], thread[:, slot], tni, rank, stages)


def _phase(phase: str) -> tuple[int, bool]:
    """``phase``'s row of :data:`PHASES`."""
    if phase not in PHASES:
        raise ValueError(f"unknown phase {phase!r}")
    return PHASES[phase]


def _row_stages(
    s: Schedule, row: int, known_length: bool, first_rank: int
) -> list[list[Message]]:
    """Row ``row`` of ``s`` as the event loop's stages of messages."""
    rank = (s.rank + first_rank).tolist()
    columns = (s.nbytes[row].tolist(), s.hops[row].tolist(), rank)
    msgs = [
        Message(*m, known_length=known_length)
        for m in zip(*columns, s.thread[row].tolist(), s.tni[row].tolist())
    ]
    return [msgs[st] for st in s.stages]


def price_exchange(
    atoms: np.ndarray,
    hops: np.ndarray,
    phase: str,
    stack: SoftwareStack,
    params: MachineParams = FUGAKU,
    threads: int = 1,
    fence: int | None = None,
    node_ranks: int = 1,
    hop_tnis: int = 1,
    first_rank: int = 0,
) -> list[float]:
    """Completion seconds of every row's round of ``phase``.

    The rows are :func:`schedule`'s; row ``r``'s ranks are numbered from
    ``first_rank + r * node_ranks`` (fault sessions and trace tracks name
    them).  A fenced stage starts at the previous stage's completion plus
    the barrier.  Many rows take the world pass
    (:func:`~repro.network.simulator.simulate_rounds`) whatever their
    shape — the MPI two-message border, shared TNIs and VCQ hopping
    included.  One row takes the event loop (a loop of a node's ~50
    messages beats NumPy's fixed cost), and so does every row under an
    observer — the tracer, metrics, timing faults — the one thing the
    world pass refuses.  The two agree bit for bit.
    """
    bytes_per_atom, known = _phase(phase)
    s = schedule(atoms, hops, bytes_per_atom, stack, params, threads, fence, node_ranks, hop_tnis)
    rows = len(s.nbytes)
    sim = NetworkSimulator(stack, params)
    if rows > 1:
        stream = s.rank * threads + s.thread
        times = [0.0] * rows
        for i, st in enumerate(s.stages):
            start = np.asarray(times) + sim.barrier_cost if i else np.zeros(rows)
            times = simulate_rounds(
                s.nbytes[:, st], s.hops[:, st], stream[:, st], s.tni[:, st],
                start, stack, params, known,
            )
            if times is None:
                break
        else:
            return times
    return [
        sim.run_staged(_row_stages(s, r, known, first_rank + r * node_ranks)).completion_time
        for r in range(rows)
    ]


# -- the engine's rows ----------------------------------------------------
def stack_for_exchange(
    exchange: GhostExchange, params: MachineParams = FUGAKU
) -> SoftwareStack:
    """The software stack the pattern declares: baseline 3-stage runs on
    MPI, the p2p exchanges on uTofu (the paper's pairings)."""
    return exchange.stack_cls(params=params)


def _facts(exchange: GhostExchange, params: MachineParams) -> dict:
    """What :func:`price_exchange` needs of the pattern besides its rows."""
    return {
        "stack": stack_for_exchange(exchange, params),
        "params": params,
        "threads": exchange.n_comm_threads,
        "fence": exchange.sends_per_stage,
    }


def _rank_row(exchange: GhostExchange, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """``rank``'s sends as a one-row table of atoms and hops."""
    counts, hops = exchange._current().plans[rank].send_sizes()
    return np.array([counts], dtype=np.int64), np.array([hops], dtype=np.int64)


def _cache_for(exchange: GhostExchange) -> dict | None:
    """The epoch's cache of priced times and message lists, or ``None``
    when results must not be cached: traced/metered runs and sessions
    with timing faults always re-simulate so their per-round model spans,
    counters and stall injections stay complete."""
    return None if observed() else exchange._current().priced


def rank_messages(
    exchange: GhostExchange,
    rank: int,
    bytes_per_atom: int,
    known_length: bool,
) -> list[Message]:
    """Simulator messages for one rank's sends of one exchange phase, in
    issue order (a fenced pattern's stages back to back); kept with the
    epoch like the priced times."""
    cache = _cache_for(exchange)
    key = ("messages", rank, bytes_per_atom, known_length)
    msgs = cache.get(key) if cache is not None else None
    if msgs is None:
        s = schedule(*_rank_row(exchange, rank), bytes_per_atom, **_facts(exchange, FUGAKU))
        msgs = [m for stage in _row_stages(s, 0, known_length, rank) for m in stage]
        if cache is not None:
            cache[key] = msgs
    return list(msgs)


def _key(phase: str, params: MachineParams) -> tuple:
    """The cache key of ``phase``: ``reverse`` shares ``forward``'s."""
    return _phase(phase), params


def modeled_exchange_time(
    exchange: GhostExchange,
    phase: str = "forward",
    params: MachineParams = FUGAKU,
    rank: int = 0,
) -> float:
    """Simulated seconds for one exchange phase of one rank's schedule.

    The modeled time is a pure function of the epoch, the phase's payload
    and the machine params, so with faults and observability off it is
    kept with the epoch (and goes with it on reneighboring), keyed on
    exactly those — ``reverse`` is ``forward``'s entry, and two params
    objects price alike iff they are equal.
    """
    key = _key(phase, params)
    cache = _cache_for(exchange)
    if cache is not None:
        times = cache.get(key)
        if times is None:
            times = cache[key] = [None] * exchange.world.size
        elif times[rank] is not None:
            return times[rank]
    (t,) = price_exchange(
        *_rank_row(exchange, rank), phase, first_rank=rank, **_facts(exchange, params)
    )
    if cache is not None:
        times[rank] = t
    return t


def _world_times(exchange: GhostExchange, phase: str, params: MachineParams) -> list[float]:
    """Every rank's modeled time for ``phase``: the ``(ranks, sends)``
    tables of atoms and hops the epoch carries (every rank plays a part of
    the same shape in a round), priced in one call — one schedule, one row
    LPT, one world pass — bit-identical to :func:`modeled_exchange_time`
    per rank."""
    key = _key(phase, params)
    cache = _cache_for(exchange)
    times = cache.get(key) if cache is not None else None
    if times is not None and None not in times:
        return times
    counts, hops = exchange._current().send_sizes
    times = price_exchange(counts, hops, phase, **_facts(exchange, params))
    if cache is not None:
        cache[key] = times
    return times


def modeled_step_comm_time(
    exchange: GhostExchange,
    rebuild: bool,
    newton: bool = True,
    params: MachineParams = FUGAKU,
) -> float:
    """Simulated comm seconds of one MD step (max over ranks).

    Rebuild steps pay border (+ the exchange migration, priced as 0.3 of
    a border round); ordinary steps pay forward; Newton runs add the
    reverse.  Every parallel round — border, forward, reverse — pays the
    thread pool's fork / join once when the pattern injects on several
    threads.

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

    fork_join = params.threadpool_fork_join if exchange.n_comm_threads > 1 else 0.0

    def slowest(phase: str) -> float:
        return max(_world_times(exchange, phase, params))

    if rebuild:
        t = slowest("border") * 1.3 + fork_join
    else:
        t = slowest("forward") + fork_join
    if newton:
        t += slowest("reverse") + fork_join
    if cache is not None:
        cache[key] = t
    return t
