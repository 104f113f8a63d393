"""Fig. 13 + Table 3 — strong scaling from 768 to 36 864 nodes.

Fig. 13a: step time and parallel efficiency per node count for ref and
opt, both potentials, plus the headline performance at the last point
(paper: 2.9x / 2.2x speedup; 8.77 Mtau/day LJ, 2.87 us/day EAM).
Fig. 13b: pair and comm stage times along the sweep.
Table 3: the five-stage breakdown (seconds + percent) at the last point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.figures.common import format_table, pct, us
from repro.perfmodel import (
    StageModel,
    parallel_efficiency,
    performance_per_day,
    strong_scaling,
    variant_by_name,
)
from repro.perfmodel.scaling import (
    STRONG_EAM_ATOMS,
    STRONG_LJ_ATOMS,
    STRONG_SCALING_NODES,
    ScalingPoint,
)
from repro.perfmodel.stagemodel import Workload

PAPER = {
    "speedup_last": {"lj": 2.9, "eam": 2.2},
    "perf_last": {"lj_mtau_day": 8.77, "eam_us_day": 2.87},
    "table3_pct": {
        ("ref", "lj"): {"Pair": 15.3, "Neigh": 1.5, "Comm": 64.85, "Modify": 9.36, "Other": 8.99},
        ("opt", "lj"): {"Pair": 26.71, "Neigh": 3.71, "Comm": 43.67, "Modify": 10.23, "Other": 15.68},
        ("ref", "eam"): {"Pair": 43.44, "Neigh": 2.3, "Comm": 33.5, "Modify": 3.85, "Other": 16.91},
        ("opt", "eam"): {"Pair": 40.85, "Neigh": 4.1, "Comm": 20.02, "Modify": 3.19, "Other": 31.84},
    },
}

STAGES = ("Pair", "Neigh", "Comm", "Modify", "Other")


def lj_workload() -> Workload:
    """The strong-scaling LJ workload (4,194,304 atoms)."""
    return Workload("lj-strong", "lj", STRONG_LJ_ATOMS, 0.8442, 2.8, 0.005, rebuild_every=20)


def eam_workload() -> Workload:
    """The strong-scaling EAM workload (3,456,000 atoms)."""
    return Workload(
        "eam-strong", "eam", STRONG_EAM_ATOMS, 0.0847, 5.95, 0.005,
        rebuild_every=20, allreduce_every=5,
    )


@dataclass
class Fig13Result:
    curves: dict[tuple[str, str], list[ScalingPoint]] = field(default_factory=dict)
    # curves[(potential, variant)] = points

    def speedup_last(self, potential: str) -> float:
        """ref/opt step-time ratio at the last (36 864-node) point."""
        return (
            self.curves[(potential, "ref")][-1].step_time
            / self.curves[(potential, "opt")][-1].step_time
        )

    def efficiency(self, potential: str, variant: str) -> list[float]:
        """Parallel-efficiency series for one curve."""
        return parallel_efficiency(self.curves[(potential, variant)])

    def reduction_last(self, potential: str, stage: str) -> float:
        """Fractional ``stage`` reduction of opt vs ref at the last point."""
        ref = self.curves[(potential, "ref")][-1].result.stages[stage]
        return 1.0 - self.curves[(potential, "opt")][-1].result.stages[stage] / ref

    def perf_last(self, potential: str) -> float:
        """opt's performance at the last point: Mtau/day (LJ) or us/day (EAM)."""
        return performance_per_day(self.curves[(potential, "opt")][-1], 0.005) / 1e6


def compute(
    nodes_list=STRONG_SCALING_NODES,
    model: StageModel | None = None,
    potentials=("lj", "eam"),
) -> Fig13Result:
    """Sweep ref and opt over the strong-scaling node counts."""
    model = model if model is not None else StageModel()
    res = Fig13Result()
    workloads = {"lj": lj_workload, "eam": eam_workload}
    for pot in potentials:
        w = workloads[pot]()
        for vname in ("ref", "opt"):
            res.curves[(pot, vname)] = strong_scaling(
                w, variant_by_name(vname), nodes_list, model=model
            )
    return res


def render(res: Fig13Result) -> str:
    """Format Fig. 13a/13b and the Table 3 breakdown."""
    parts = []
    # Fig. 13a
    rows = []
    for (pot, vname), pts in res.curves.items():
        effs = res.efficiency(pot, vname)
        for p, e in zip(pts, effs):
            rows.append([pot, vname, p.nodes, us(p.step_time), pct(e)])
    parts.append(
        format_table(
            ["potential", "variant", "nodes", "step [us]", "efficiency %"],
            rows,
            title="Fig. 13a — strong scaling (4.19M LJ / 3.46M EAM atoms)",
        )
    )
    speedup, perf = PAPER["speedup_last"], PAPER["perf_last"]
    parts.append(
        f" headline speedup at 36864: LJ {res.speedup_last('lj'):.2f}x "
        f"(paper {speedup['lj']}x), EAM {res.speedup_last('eam'):.2f}x "
        f"(paper {speedup['eam']}x)\n"
        f" performance: LJ {res.perf_last('lj'):.1f} Mtau/day "
        f"(paper {perf['lj_mtau_day']}), "
        f"EAM {res.perf_last('eam'):.2f} us/day (paper {perf['eam_us_day']})"
    )

    # Fig. 13b
    rows = []
    for (pot, vname), pts in res.curves.items():
        for p in pts:
            rows.append(
                [pot, vname, p.nodes, us(p.result.stages["Pair"]), us(p.result.stages["Comm"])]
            )
    parts.append(
        format_table(
            ["potential", "variant", "nodes", "Pair [us]", "Comm [us]"],
            rows,
            title="Fig. 13b — pair and communication stage times",
        )
    )

    # Table 3
    rows = []
    for pot in ("lj", "eam"):
        for vname in ("ref", "opt"):
            r = res.curves[(pot, vname)][-1].result
            label = ("Origin" if vname == "ref" else "Opt") + "-" + pot.upper()
            rows.append([label, "us/step"] + [us(r.stages[s]) for s in STAGES])
            rows.append([label, "%"] + [r.percent(s) for s in STAGES])
    parts.append(
        format_table(
            ["run", "unit", *STAGES],
            rows,
            title="Table 3 — stage breakdown at the last strong-scaling point",
        )
    )
    return "\n\n".join(parts)
