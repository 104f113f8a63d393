"""Section 3.5.3 — the topo map, quantified.

The paper states that mapping MPI ranks onto the 6D torus "can
effectively reduce the average communication hops and latency" but
reports no numbers.  This module produces them: for the 768-node job
shape (8x12x8), route every rank's 13 half-shell neighbor messages under
(a) the topology-preserving placement and (b) a random placement (what a
topology-oblivious scheduler gives you), and compare mean hops, total
link traversals and worst-link congestion.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.core import JobShape, TopoMap
from repro.core.patterns import half_shell_offsets
from repro.figures.common import format_table
from repro.machine.routing import CongestionReport, link_congestion, neighbor_traffic_pairs

PAPER = {
    "claim": "MPI ranks can be directly mapped to a sub-box while "
    "preserving the original physical topology; this can effectively "
    "reduce the average communication hops and latency",
}


@dataclass
class TopoMapResult:
    job_nodes: tuple[int, int, int]
    mapped: CongestionReport
    randomized: CongestionReport
    on_node_fraction_mapped: float
    on_node_fraction_random: float

    @property
    def hop_reduction(self) -> float:
        if self.randomized.mean_hops == 0:
            return 0.0
        return 1.0 - self.mapped.mean_hops / self.randomized.mean_hops


def compute(job_nodes: tuple[int, int, int] = (8, 12, 8), seed: int = 7) -> TopoMapResult:
    """Route neighbor traffic under topo-map and random placements."""
    tm = TopoMap(JobShape(job_nodes))
    offsets = half_shell_offsets(1)
    n_ranks = math.prod(tm.rank_grid)
    total_sends = n_ranks * len(offsets)

    placement = list(range(n_ranks))
    random.Random(seed).shuffle(placement)
    # One placement's pairs at a time: at the paper's largest job they
    # are tens of MB each.
    mapped = link_congestion(tm.topology, *neighbor_traffic_pairs(tm, offsets))
    randomized = link_congestion(
        tm.topology, *neighbor_traffic_pairs(tm, offsets, np.array(placement))
    )
    return TopoMapResult(
        job_nodes=job_nodes,
        mapped=mapped,
        randomized=randomized,
        on_node_fraction_mapped=1.0 - mapped.total_messages / total_sends,
        on_node_fraction_random=1.0 - randomized.total_messages / total_sends,
    )


def render(res: TopoMapResult) -> str:
    """Format the placement-comparison table."""
    rows = [
        [
            "topo map (paper)",
            res.mapped.mean_hops,
            res.mapped.total_link_traversals,
            res.mapped.max_link_load,
            f"{100 * res.on_node_fraction_mapped:.0f}%",
        ],
        [
            "random placement",
            res.randomized.mean_hops,
            res.randomized.total_link_traversals,
            res.randomized.max_link_load,
            f"{100 * res.on_node_fraction_random:.0f}%",
        ],
    ]
    table = format_table(
        ["placement", "mean hops", "link traversals", "max link load", "on-node msgs"],
        rows,
        title=(
            f"Section 3.5.3 — topo map vs random placement "
            f"({res.job_nodes[0]}x{res.job_nodes[1]}x{res.job_nodes[2]} nodes, "
            "13-neighbor exchange)"
        ),
    )
    notes = (
        f"\n mean-hop reduction from topology-aware placement: "
        f"{100 * res.hop_reduction:.0f}% (paper: 'effectively reduce the "
        "average communication hops')"
    )
    return table + notes
