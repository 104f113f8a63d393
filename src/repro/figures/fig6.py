"""Fig. 6 — message transmission time of the five implementations.

The paper measures 10k iterations of the ghost exchange (packing
excluded) on 768 nodes for: MPI-3stage, MPI-p2p, uTofu-3stage,
uTofu-p2p, and the thread-pool (parallel) variant, on both the 65K and
1.7M systems.  Headline: uTofu-p2p cuts 79 % vs MPI-3stage, and naive
MPI-p2p is *slower* than MPI-3stage.

We regenerate the bars with ``StageModel.exchange_round_time``: one
node's forward round priced by the engine's pricer
(:func:`repro.core.modeling.price_exchange`) — no MD compute, no OS
noise (a tight comm loop keeps ranks synchronized, see the stagemodel
docstring), no packing and no thread-pool fork / join, as the paper
measures.  Forward rounds run at lengths the border stage fixed, so
only the border would pay MPI's two-message length protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.figures.common import format_table, us
from repro.perfmodel import LJ_WORKLOAD_1M7, LJ_WORKLOAD_65K, StageModel, variant_by_name

#: Published qualitative anchors.
PAPER = {
    "reduction_utofu_p2p_vs_mpi_3stage": 0.79,
    "mpi_p2p_slower_than_mpi_3stage": True,
    "utofu_p2p_vs_utofu_3stage_speedup": 1.5,
}

VARIANT_ORDER = ("ref", "mpi_p2p", "utofu_3stage", "4tni_p2p", "opt")
LABELS = {
    "ref": "MPI-3stage",
    "mpi_p2p": "MPI-p2p",
    "utofu_3stage": "uTofu-3stage",
    "4tni_p2p": "uTofu-p2p",
    "opt": "threadpool-p2p",
}


@dataclass
class Fig6Result:
    nodes: int
    times: dict[str, dict[str, float]] = field(default_factory=dict)
    # times[workload][variant] = seconds per exchange round

    def reduction(self, workload: str) -> float:
        """uTofu-p2p time reduction vs MPI-3stage (paper: 79 %)."""
        t = self.times[workload]
        return 1.0 - t["4tni_p2p"] / t["ref"]

    def utofu_ratio(self, workload: str) -> float:
        """uTofu-3stage over uTofu-p2p round time (paper: 1.5x)."""
        t = self.times[workload]
        return t["utofu_3stage"] / t["4tni_p2p"]


def compute(
    nodes: int = 768,
    model: StageModel | None = None,
    workloads=(LJ_WORKLOAD_65K, LJ_WORKLOAD_1M7),
) -> Fig6Result:
    """Price all five implementations' exchange rounds on each workload."""
    model = model if model is not None else StageModel()
    res = Fig6Result(nodes=nodes)
    for w in workloads:
        res.times[w.name] = {
            name: model.exchange_round_time(variant_by_name(name), w, nodes)
            for name in VARIANT_ORDER
        }
    return res


def render(res: Fig6Result) -> str:
    """Format the transmission-time bars as a table."""
    rows = []
    for wname, times in res.times.items():
        for vname in VARIANT_ORDER:
            rows.append([wname, LABELS[vname], us(times[vname])])
    table = format_table(
        ["system", "implementation", "round time [us]"],
        rows,
        title=f"Fig. 6 — ghost-exchange transmission time on {res.nodes} nodes",
    )
    notes = (
        f"\n 65K: uTofu-p2p vs MPI-3stage reduction: "
        f"{100 * res.reduction('lj-65k'):.0f}% "
        f"(paper: {100 * PAPER['reduction_utofu_p2p_vs_mpi_3stage']:.0f}%)"
        f"\n 65K: uTofu-3stage / uTofu-p2p: {res.utofu_ratio('lj-65k'):.2f}x "
        f"(paper: {PAPER['utofu_p2p_vs_utofu_3stage_speedup']}x)"
        f"\n 65K: MPI-p2p slower than MPI-3stage: "
        f"{res.times['lj-65k']['mpi_p2p'] > res.times['lj-65k']['ref']} "
        f"(paper: {PAPER['mpi_p2p_slower_than_mpi_3stage']})"
    )
    return table + notes
