"""Strong/weak scaling sweeps and derived figure metrics.

Reproduces the axes of Figs. 13 and 14:

* Strong scaling (Fig. 13): fixed total atoms (4,194,304 LJ / 3,456,000
  EAM), node counts {768, 2160, 6144, 18432, 36864}; report step time,
  simulated time per day (Mtau/day for LJ, us/day for EAM), speedup of
  ``opt`` over ``ref``, and parallel efficiency relative to the first
  point.
* Weak scaling (Fig. 14): fixed atoms per core (100K LJ / 72K EAM),
  nodes {768, 2160, 6144, 20736}; report atoms simulated per second
  (nearly flat per-step time = linear scaling).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.machine.params import FUGAKU, MachineParams
from repro.perfmodel.stagemodel import StageModel, StageTimesResult, Workload
from repro.perfmodel.variants import Variant, variant_by_name

#: Node counts of the paper's strong-scaling sweep (section 4.3.1).
STRONG_SCALING_NODES = (768, 2160, 6144, 18432, 36864)
#: Node counts of the weak-scaling sweep (section 4.3.2).
WEAK_SCALING_NODES = (768, 2160, 6144, 20736)

#: Strong-scaling particle counts (section 4.3.1).
STRONG_LJ_ATOMS = 4_194_304
STRONG_EAM_ATOMS = 3_456_000
#: Weak-scaling atoms per core (section 4.3.2).
WEAK_LJ_ATOMS_PER_CORE = 100_000
WEAK_EAM_ATOMS_PER_CORE = 72_000


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a scaling curve."""

    nodes: int
    natoms: int
    result: StageTimesResult

    @property
    def step_time(self) -> float:
        return self.result.total

    @property
    def atoms_per_core(self) -> float:
        return self.natoms / (self.nodes * 48)


def strong_scaling(
    workload: Workload,
    variant: Variant | str,
    nodes_list=STRONG_SCALING_NODES,
    params: MachineParams = FUGAKU,
    model: StageModel | None = None,
) -> list[ScalingPoint]:
    """Fixed-size sweep over node counts."""
    if isinstance(variant, str):
        variant = variant_by_name(variant)
    model = model if model is not None else StageModel(params)
    return [
        ScalingPoint(n, workload.natoms, model.step_times(workload, n, variant))
        for n in nodes_list
    ]


def weak_scaling(
    workload: Workload,
    variant: Variant | str,
    atoms_per_core: int,
    nodes_list=WEAK_SCALING_NODES,
    params: MachineParams = FUGAKU,
    model: StageModel | None = None,
) -> list[ScalingPoint]:
    """Fixed atoms-per-core sweep over node counts."""
    if isinstance(variant, str):
        variant = variant_by_name(variant)
    model = model if model is not None else StageModel(params)
    out = []
    for n in nodes_list:
        natoms = atoms_per_core * n * 48
        w = replace(workload, natoms=natoms)
        out.append(ScalingPoint(n, natoms, model.step_times(w, n, variant)))
    return out


def parallel_efficiency(points: list[ScalingPoint]) -> list[float]:
    """Fig. 13a percentages: efficiency vs the first (768-node) point.

    ``eff_i = (t_0 * n_0) / (t_i * n_i)`` for strong scaling.
    """
    if not points:
        return []
    t0, n0 = points[0].step_time, points[0].nodes
    return [t0 * n0 / (p.step_time * p.nodes) for p in points]


def performance_per_day(point: ScalingPoint, dt: float) -> float:
    """Simulated time units per wall-clock day (Fig. 13a right axis).

    For LJ, dt is in tau -> returns tau/day (paper: 8.77 Mtau/day).
    For EAM, dt in ps -> returns ps/day (paper: 2.87 us/day = 2.87e6 ps).
    """
    steps_per_day = 86400.0 / point.step_time
    return steps_per_day * dt


def weak_scaling_rate(points: list[ScalingPoint]) -> list[float]:
    """Fig. 14 y-axis: atom-steps per second."""
    return [p.natoms / p.step_time for p in points]
