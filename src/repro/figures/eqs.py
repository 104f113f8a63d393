"""Equations (3)-(8) — the section 3.1 timing formulas, evaluated.

Shows the six pattern/optimization combinations under both software
stacks and verifies the paper's analytic conclusion: under uTofu,
``T_p2p-parallel < T_3stage-parallel`` because ``T_inj`` is tiny and
``T_3 = T_0``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import timing_model
from repro.core.analytic import TimingModel
from repro.figures.common import format_table, us
from repro.network import MpiStack, UtofuStack

PAPER = {
    "conclusion": "p2p pattern theoretically takes less communication time "
    "than 3-stage on Fugaku (uTofu)",
    "t3_equals_t0": True,
    "utofu_p2p_parallel_wins": True,
    "mpi_naive_p2p_loses": True,
}


@dataclass
class EqsResult:
    mpi: TimingModel
    utofu: TimingModel

    @property
    def utofu_p2p_wins(self) -> bool:
        return self.utofu.p2p_parallel < self.utofu.three_stage_parallel

    @property
    def mpi_naive_p2p_loses(self) -> bool:
        return self.mpi.p2p_naive > self.mpi.three_stage_opt


def compute(a: float = 1.37, r: float = 2.8, density: float = 0.8442) -> EqsResult:
    """Defaults are the 65K-atoms-on-768-nodes geometry (22 atoms/rank)."""
    return EqsResult(
        mpi=timing_model(a, r, density, stack=MpiStack()),
        utofu=timing_model(a, r, density, stack=UtofuStack()),
    )


def render(res: EqsResult) -> str:
    """Format the Eq. (3)-(8) table with the paper's conclusions."""
    rows = []
    for name, tm in (("MPI", res.mpi), ("uTofu", res.utofu)):
        d = tm.as_dict()
        rows.append(
            [
                name,
                us(tm.t_inj),
                us(d["3stage-naive"]),
                us(d["p2p-naive"]),
                us(d["3stage-opt"]),
                us(d["p2p-opt"]),
                us(d["3stage-parallel"]),
                us(d["p2p-parallel"]),
            ]
        )
    table = format_table(
        ["stack", "T_inj", "Eq3 3s-naive", "Eq4 p2p-naive", "Eq5 3s-opt",
         "Eq6 p2p-opt", "Eq7 3s-par", "Eq8 p2p-par"],
        rows,
        title="Equations (3)-(8) evaluated [us], 65K@768 geometry",
    )
    notes = (
        f"\n uTofu p2p-parallel beats 3stage-parallel: {res.utofu_p2p_wins} "
        f"(paper: {PAPER['utofu_p2p_parallel_wins']})"
        f"\n MPI naive p2p loses to MPI 3-stage: {res.mpi_naive_p2p_loses} "
        f"(paper: {PAPER['mpi_naive_p2p_loses']} — motivates uTofu)"
    )
    return table + notes
