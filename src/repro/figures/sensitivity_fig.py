"""Calibration sensitivity: is the reproduction's story robust?

Not a paper figure — it is the reproduction's own robustness evidence.
Several machine constants are estimates (marked in
:class:`~repro.machine.params.MachineParams`; provenance in
docs/calibration.md).  A reproduction whose conclusions flip when an
estimated constant moves would be calibration-fitting, not reproduction.
``sweep()`` perturbs each constant over a multiplicative range and
re-checks the ``robust`` rows of :mod:`repro.figures.claims` on Fig. 13
(36 864 nodes), Fig. 6 and Fig. 8 (256 B) recomputed under it:

* opt beats ref at 36 864 nodes (LJ) by more than 1.5x;
* the LJ communication time at 36 864 nodes is at least halved;
* naive MPI p2p stays slower than MPI 3-stage (Fig. 6);
* uTofu p2p stays faster than uTofu 3-stage (Fig. 6);
* single-thread 6TNI stays slower than 4TNI at small messages (Fig. 8).

The claims table requires every row to hold over [0.5x, 2x] on every
estimated constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.figures import claims, fig6, fig8, fig13
from repro.figures.common import format_table
from repro.machine.params import FUGAKU, MachineParams
from repro.perfmodel import LJ_WORKLOAD_65K
from repro.perfmodel.scaling import STRONG_SCALING_NODES
from repro.perfmodel.stagemodel import StageModel

PAPER = {
    "claim": "(reproduction-internal) conclusions must not depend on the "
    "estimated constants"
}

#: MachineParams fields documented as estimates (not paper-measured).
ESTIMATED_PARAMS = (
    "hop_latency",
    "mpi_t_inj",
    "utofu_t_inj",
    "mpi_per_message_overhead",
    "utofu_per_message_overhead",
    "tni_engine_message_time",
    "vcq_switch_overhead",
    "registration_base",
)


def evaluate_claims(params: MachineParams) -> tuple[str, ...]:
    """Ids of the robust claim rows that fail under ``params``.

    Each experiment is priced only on what the robust rows read: Fig. 13's
    LJ curves at the last point and Fig. 6's 65K system.
    """
    model = StageModel(params)
    results = {
        "fig13": fig13.compute(
            nodes_list=STRONG_SCALING_NODES[-1:], model=model, potentials=("lj",)
        ),
        "fig6": fig6.compute(model=model, workloads=(LJ_WORKLOAD_65K,)),
        "fig8": fig8.compute(per_rank=40, sizes=(256,), params=params),
    }
    return tuple(c.id for c in claims.ROBUST if not c.check(results[c.experiment])[1])


@dataclass
class SensitivityRow:
    """Sweep outcome for one constant: factor -> failed robust row ids."""

    name: str
    base_value: float
    results: dict[float, tuple[str, ...]] = field(default_factory=dict)

    def holds_at(self, factor: float) -> bool:
        """Whether every robust row held at the given perturbation factor."""
        return not self.results[factor]

    @property
    def robust_range(self) -> tuple[float, float]:
        """Widest contiguous factor range (around 1.0) where all hold."""
        factors = sorted(self.results)
        lo = hi = 1.0
        for f in reversed([f for f in factors if f <= 1.0]):
            if self.holds_at(f):
                lo = f
            else:
                break
        for f in [f for f in factors if f >= 1.0]:
            if self.holds_at(f):
                hi = f
            else:
                break
        return (lo, hi)


def sweep(
    factors=(0.5, 0.7, 1.0, 1.3, 2.0),
    params: MachineParams = FUGAKU,
    names=ESTIMATED_PARAMS,
) -> list[SensitivityRow]:
    """Perturb each estimated constant and re-check every robust row."""
    rows = []
    failed: dict[MachineParams, tuple[str, ...]] = {}  # factor 1.0 recurs per constant
    for name in names:
        base = getattr(params, name)
        row = SensitivityRow(name=name, base_value=base)
        for factor in factors:
            perturbed = replace(params, **{name: base * factor})
            if perturbed not in failed:
                failed[perturbed] = evaluate_claims(perturbed)
            row.results[factor] = failed[perturbed]
        rows.append(row)
    return rows


def compute(factors=(0.5, 0.7, 1.0, 1.3, 2.0)) -> list[SensitivityRow]:
    """Run the full perturbation sweep."""
    return sweep(factors=factors)


def render(rows: list[SensitivityRow]) -> str:
    """Format the sensitivity table plus the robustness verdict."""
    table_rows = []
    for row in rows:
        lo, hi = row.robust_range
        marks = " ".join("Y" if row.holds_at(f) else "n" for f in sorted(row.results))
        table_rows.append([row.name, f"{row.base_value:.3g}", marks, f"[{lo}x, {hi}x]"])
    factors = sorted(rows[0].results) if rows else []
    title = (
        "Calibration sensitivity — claims hold (Y/n) at factors "
        + ", ".join(f"{f}x" for f in factors)
    )
    all_hold = all(row.holds_at(f) for row in rows for f in row.results)
    verdict = (
        "\n verdict: every qualitative claim holds at every factor for "
        f"every estimated constant: {all_hold}"
    )
    return (
        format_table(["constant", "base", "claims hold", "robust range"], table_rows, title=title)
        + verdict
    )
