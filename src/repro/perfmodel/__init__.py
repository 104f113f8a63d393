"""Whole-application performance model for paper-scale experiments.

The functional engine runs real atoms on tens of ranks; the paper's
evaluation runs 768-36 864 *nodes*.  This package bridges the gap with a
calibrated per-stage model:

* :mod:`repro.perfmodel.variants` — the five artifact code variants
  (ref, utofu-3stage, 4tni-p2p, 6tni-p2p, opt/parallel-p2p) as
  declarative specs: software stack, pattern, threading, TNI binding.
* :mod:`repro.perfmodel.stagemodel` — per-stage times (Pair / Neigh /
  Comm / Modify / Other) for a workload on a variant; communication is
  priced by the discrete-event network simulator on the actual message
  schedule, compute stages by calibrated per-atom costs and the
  OpenMP/thread-pool overhead models.
* :mod:`repro.perfmodel.scaling` — strong/weak scaling sweeps and the
  derived metrics the figures report (speedup, parallel efficiency,
  tau/day, us/day).

Calibration anchors (documented per constant in ``stagemodel``) come
from the paper's Table 3 and section 3 micro-measurements; tests pin the
qualitative claims (orderings, crossovers, reduction percentages within
stated bands), not exact microseconds.
"""

from repro.perfmodel.variants import Variant, VARIANTS, variant_by_name
from repro.perfmodel.stagemodel import (
    CalibrationConstants,
    StageModel,
    StageTimesResult,
    Workload,
    LJ_WORKLOAD_65K,
    LJ_WORKLOAD_1M7,
    EAM_WORKLOAD_65K,
    EAM_WORKLOAD_1M7,
)
from repro.perfmodel.scaling import (
    ScalingPoint,
    strong_scaling,
    weak_scaling,
    parallel_efficiency,
    performance_per_day,
)

__all__ = [
    "Variant",
    "VARIANTS",
    "variant_by_name",
    "CalibrationConstants",
    "StageModel",
    "StageTimesResult",
    "Workload",
    "LJ_WORKLOAD_65K",
    "LJ_WORKLOAD_1M7",
    "EAM_WORKLOAD_65K",
    "EAM_WORKLOAD_1M7",
    "ScalingPoint",
    "strong_scaling",
    "weak_scaling",
    "parallel_efficiency",
    "performance_per_day",
]
