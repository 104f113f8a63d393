"""Fig. 14 — weak scaling from 768 to 20 736 nodes.

100K atoms per core (LJ) / 72K (EAM), ending at 99 / 72 billion atoms.
The paper reports nearly linear growth of simulation performance; we
plot atom-steps/second and the linearity ratio per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.figures.common import format_table
from repro.figures.fig13 import eam_workload, lj_workload
from repro.perfmodel import StageModel, variant_by_name, weak_scaling
from repro.perfmodel.scaling import (
    WEAK_EAM_ATOMS_PER_CORE,
    WEAK_LJ_ATOMS_PER_CORE,
    WEAK_SCALING_NODES,
    ScalingPoint,
    weak_scaling_rate,
)

PAPER = {
    "atoms_final": {"lj": 99e9, "eam": 72e9},
    "claim": "simulation performance increases almost linearly",
}


@dataclass
class Fig14Result:
    curves: dict[str, list[ScalingPoint]] = field(default_factory=dict)

    def linearity(self, potential: str) -> float:
        """Rate gain vs node gain over the sweep; 1.0 = perfectly linear."""
        pts = self.curves[potential]
        rates = weak_scaling_rate(pts)
        return (rates[-1] / rates[0]) / (pts[-1].nodes / pts[0].nodes)


def compute(nodes_list=WEAK_SCALING_NODES, model: StageModel | None = None) -> Fig14Result:
    """Sweep the opt variant over the weak-scaling node counts."""
    model = model if model is not None else StageModel()
    res = Fig14Result()
    res.curves["lj"] = weak_scaling(
        lj_workload(), variant_by_name("opt"), WEAK_LJ_ATOMS_PER_CORE,
        nodes_list, model=model,
    )
    res.curves["eam"] = weak_scaling(
        eam_workload(), variant_by_name("opt"), WEAK_EAM_ATOMS_PER_CORE,
        nodes_list, model=model,
    )
    return res


def render(res: Fig14Result) -> str:
    """Format the weak-scaling table with linearity notes."""
    rows = []
    for pot, pts in res.curves.items():
        rates = weak_scaling_rate(pts)
        for p, rate in zip(pts, rates):
            rows.append([pot, p.nodes, p.natoms / 1e9, p.step_time * 1e3, rate / 1e9])
    table = format_table(
        ["potential", "nodes", "atoms [G]", "step [ms]", "Gatom-steps/s"],
        rows,
        title="Fig. 14 — weak scaling (100K / 72K atoms per core)",
    )
    notes = (
        f"\n linearity (1.0 = ideal): LJ {res.linearity('lj'):.3f}, "
        f"EAM {res.linearity('eam'):.3f} (paper: 'almost linear')"
        f"\n final system sizes: LJ {res.curves['lj'][-1].natoms / 1e9:.1f}G "
        f"(paper {PAPER['atoms_final']['lj'] / 1e9:.0f}G), "
        f"EAM {res.curves['eam'][-1].natoms / 1e9:.1f}G "
        f"(paper {PAPER['atoms_final']['eam'] / 1e9:.0f}G)"
    )
    return table + notes
