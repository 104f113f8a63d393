"""Fig. 12 — step-by-step optimization results on 768 nodes.

Five variants x two potentials x two system sizes: total speedup over
the reference (Fig. 12a), communication time (Fig. 12b) and pair-stage
time (Fig. 12c).  Paper anchors: 3.01x / 2.45x total at 65K (LJ / EAM),
1.6x / 1.4x at 1.7M; comm -77 %; LJ pair -43 % / EAM pair -56 % at 65K.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.figures.common import format_table, us
from repro.perfmodel import (
    EAM_WORKLOAD_1M7,
    EAM_WORKLOAD_65K,
    LJ_WORKLOAD_1M7,
    LJ_WORKLOAD_65K,
    StageModel,
    variant_by_name,
)
from repro.perfmodel.stagemodel import StageTimesResult

PAPER = {
    "total_speedup_65k": {"lj": 3.01, "eam": 2.45},
    "total_speedup_1m7": {"lj": 1.6, "eam": 1.4},
    "comm_reduction_65k": 0.77,
    "pair_reduction_65k": {"lj": 0.43, "eam": 0.56},
}

VARIANT_ORDER = ("ref", "utofu_3stage", "4tni_p2p", "6tni_p2p", "opt")
WORKLOADS = (LJ_WORKLOAD_65K, LJ_WORKLOAD_1M7, EAM_WORKLOAD_65K, EAM_WORKLOAD_1M7)


@dataclass
class Fig12Result:
    nodes: int
    results: dict[str, dict[str, StageTimesResult]] = field(default_factory=dict)

    def speedup(self, workload: str, variant: str) -> float:
        """Speedup of ``variant`` over ref for ``workload``."""
        base = self.results[workload]["ref"].total
        return base / self.results[workload][variant].total

    def comm_reduction(self, workload: str) -> float:
        """Fractional Comm-stage reduction of opt vs ref."""
        r = self.results[workload]
        return 1.0 - r["opt"].stages["Comm"] / r["ref"].stages["Comm"]

    def pair_reduction(self, workload: str) -> float:
        """Fractional Pair-stage reduction of opt vs ref."""
        r = self.results[workload]
        return 1.0 - r["opt"].stages["Pair"] / r["ref"].stages["Pair"]


def compute(nodes: int = 768, model: StageModel | None = None) -> Fig12Result:
    """Price all five variants on the four Fig. 12 workloads."""
    model = model if model is not None else StageModel()
    res = Fig12Result(nodes=nodes)
    for w in WORKLOADS:
        res.results[w.name] = {
            name: model.step_times(w, nodes, variant_by_name(name))
            for name in VARIANT_ORDER
        }
    return res


def render(res: Fig12Result) -> str:
    """Format the step-by-step results table."""
    rows = []
    for wname, variants in res.results.items():
        for vname in VARIANT_ORDER:
            r = variants[vname]
            rows.append(
                [
                    wname,
                    vname,
                    us(r.total),
                    res.speedup(wname, vname),
                    us(r.stages["Comm"]),
                    us(r.stages["Pair"]),
                ]
            )
    table = format_table(
        ["workload", "variant", "step [us]", "speedup", "Comm [us]", "Pair [us]"],
        rows,
        title=f"Fig. 12 — step-by-step results on {res.nodes} nodes",
    )
    s65, s1m7 = PAPER["total_speedup_65k"], PAPER["total_speedup_1m7"]
    pair = PAPER["pair_reduction_65k"]
    notes = (
        f"\n total speedup 65K: LJ {res.speedup('lj-65k', 'opt'):.2f}x "
        f"(paper {s65['lj']}x), EAM {res.speedup('eam-65k', 'opt'):.2f}x "
        f"(paper {s65['eam']}x)"
        f"\n total speedup 1.7M: LJ {res.speedup('lj-1.7m', 'opt'):.2f}x "
        f"(paper {s1m7['lj']}x), EAM {res.speedup('eam-1.7m', 'opt'):.2f}x "
        f"(paper {s1m7['eam']}x)"
        f"\n comm reduction 65K LJ: {100 * res.comm_reduction('lj-65k'):.0f}% "
        f"(paper {100 * PAPER['comm_reduction_65k']:.0f}%)"
        f"\n pair reduction 65K: LJ {100 * res.pair_reduction('lj-65k'):.0f}% "
        f"(paper {100 * pair['lj']:.0f}%), "
        f"EAM {100 * res.pair_reduction('eam-65k'):.0f}% (paper {100 * pair['eam']:.0f}%)"
    )
    return table + notes
