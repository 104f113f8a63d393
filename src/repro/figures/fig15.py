"""Fig. 15 — extended neighborhoods: 26, 62 and 124 messages per stage.

Scenarios (paper section 4.4):

* **26** — potentials needing a full neighbor list (Tersoff, DeePMD):
  Newton off, shell radius 1.
* **62** — cutoff larger than the sub-box, Newton on: radius-2 half shell.
* **124** — cutoff larger than the sub-box, Newton off: radius-2 full
  shell — where the paper finds p2p *loses* to 3-stage, because 3-stage
  message count grows linearly (6 -> 12) while p2p grows ~n^2 (26 -> 124).

Cost model (documented, deliberately explicit rather than hidden in the
event simulator): a communication thread is occupied per message
*endpoint* — injection CPU on send, completion-queue processing on
receive (``mrq_poll_cost``) — plus the wire time of the slowest message
and, for the staged pattern, a barrier per stage.  The optimized p2p
spreads its endpoints over 6 pool threads; the 3-stage runs one thread
but only 6*radius messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.patterns import message_count, CommPattern
from repro.figures.common import format_table, us
from repro.machine.params import FUGAKU, MachineParams
from repro.network.stacks import UtofuStack

PAPER = {
    "p2p_wins": {26: True, 62: True, 124: False},
    "reason": "3-stage scales linearly, p2p is an n-squared extension",
}

#: The three scenarios: (label, newton, radius).
SCENARIOS = ((26, False, 1), (62, True, 2), (124, False, 2))


@dataclass
class ScenarioTimes:
    neighbors: int
    newton: bool
    radius: int
    p2p_time: float
    three_stage_time: float

    @property
    def p2p_wins(self) -> bool:
        return self.p2p_time < self.three_stage_time


@dataclass
class Fig15Result:
    scenarios: list[ScenarioTimes] = field(default_factory=list)

    def wins(self) -> dict[int, bool]:
        """Winner per scenario: neighbors -> does p2p win?"""
        return {s.neighbors: s.p2p_wins for s in self.scenarios}


def _endpoint_cost(stack, params: MachineParams, nbytes: int) -> float:
    """Thread occupancy per message endpoint (send or receive)."""
    send = stack.injection_interval(nbytes) + stack.software_latency(nbytes)
    recv = params.mrq_poll_cost
    # Averaged: a thread handles as many sends as receives per exchange.
    return (send + recv) / 2.0


def scenario_times(
    neighbors: int,
    newton: bool,
    radius: int,
    msg_bytes: int = 528,
    comm_threads: int = 6,
    params: MachineParams = FUGAKU,
) -> ScenarioTimes:
    """Cost both patterns for one extended-neighborhood scenario."""
    stack = UtofuStack(params=params)
    per_endpoint = _endpoint_cost(stack, params, msg_bytes)
    wire = params.wire_time(msg_bytes, hops=max(radius, 1))

    # p2p: `neighbors` sends + `neighbors` receives over the pool threads.
    n_p2p = message_count(CommPattern.P2P, newton=newton, radius=radius)
    assert n_p2p == neighbors
    endpoints = 2 * n_p2p
    # Ring polling is the n^2 term the paper names: arrivals from N
    # neighbors come in arbitrary order, so each incoming message costs
    # ~N/T ring probes until it is found -> O(N^2/T) probes per exchange.
    ring_scan = (n_p2p * n_p2p / comm_threads) * params.ring_probe_cost
    t_p2p = (
        params.threadpool_fork_join
        + (endpoints / comm_threads) * per_endpoint
        + ring_scan
        + wire
    )

    # 3-stage: 6*radius swaps, single comm thread, barrier per swap; each
    # swap's message is larger (forwarded volume) -> scale bytes by the
    # accumulated slab growth factor (~neighbors/n_swaps per atom copy).
    n_swaps = message_count(CommPattern.THREE_STAGE, radius=radius)
    stage_bytes = msg_bytes * max(neighbors // n_swaps, 1)
    barrier = 2.0 * stack.software_latency(8)
    t_3s = 0.0
    for _ in range(n_swaps):
        t_3s += (
            2.0 * _endpoint_cost(stack, params, stage_bytes)  # send + recv
            + params.wire_time(stage_bytes, hops=1)
            + barrier
        )
    return ScenarioTimes(neighbors, newton, radius, t_p2p, t_3s)


def compute(msg_bytes: int = 528, params: MachineParams = FUGAKU) -> Fig15Result:
    """Evaluate the 26/62/124-neighbor scenarios."""
    res = Fig15Result()
    for neighbors, newton, radius in SCENARIOS:
        res.scenarios.append(
            scenario_times(neighbors, newton, radius, msg_bytes, params=params)
        )
    return res


def render(res: Fig15Result) -> str:
    """Format the Fig. 15 comparison table."""
    rows = [
        [
            s.neighbors,
            "half" if s.newton else "full",
            s.radius,
            us(s.p2p_time),
            us(s.three_stage_time),
            "p2p" if s.p2p_wins else "3-stage",
        ]
        for s in res.scenarios
    ]
    table = format_table(
        ["neighbors", "list", "radius", "p2p [us]", "3-stage [us]", "winner"],
        rows,
        title="Fig. 15 — extended neighborhoods (26 / 62 / 124 messages)",
    )
    wins, paper = res.wins(), PAPER["p2p_wins"]
    notes = (
        f"\n p2p wins at 26: {wins[26]} (paper {paper[26]}), 62: {wins[62]} "
        f"(paper {paper[62]}), 124: {wins[124]} (paper {paper[124]} — 3-stage scales "
        "linearly, p2p ~n^2)"
    )
    return table + notes
