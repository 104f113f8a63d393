"""Section 3.3 micro-measurements — OpenMP vs spin-lock thread pool.

The paper measures 5.8 us (OpenMP) vs 1.1 us (thread pool) for thread
startup + synchronization, and observes that enabling OpenMP makes the
NVE modify stage ~10x slower at 22 atoms per rank, and that thread-pool
communication gains 14 % on small messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.figures.common import format_table, us
from repro.machine.params import FUGAKU, MachineParams
from repro.perfmodel.stagemodel import CalibrationConstants
from repro.runtime import OpenMPModel, ThreadPoolModel

PAPER = {
    "openmp_fork_join_us": 5.8,
    "threadpool_fork_join_us": 1.1,
    "modify_slowdown_at_22_atoms": 10.0,
    "small_message_comm_gain": 0.14,
}


@dataclass
class Micro33Result:
    openmp_fork_join: float
    pool_fork_join: float
    modify_openmp: float
    modify_serial: float
    modify_pool: float
    atoms: int

    @property
    def openmp_modify_slowdown(self) -> float:
        """OpenMP modify time vs doing the tiny update serially."""
        return self.modify_openmp / self.modify_serial


def compute(atoms: int = 22, params: MachineParams = FUGAKU) -> Micro33Result:
    """Evaluate the threading-overhead micro-measurements."""
    calib = CalibrationConstants()
    omp = OpenMPModel(params.threads_per_rank, params)
    pool = ThreadPoolModel(params.threads_per_rank, params)
    work = [calib.c_mod_atom] * atoms
    return Micro33Result(
        openmp_fork_join=omp.fork_join,
        pool_fork_join=pool.fork_join,
        modify_openmp=omp.parallel_time(work),
        modify_serial=sum(work),
        modify_pool=pool.parallel_time(work),
        atoms=atoms,
    )


def render(res: Micro33Result) -> str:
    """Format the OpenMP-vs-pool table."""
    rows = [
        ["fork/join overhead", us(res.openmp_fork_join), us(res.pool_fork_join)],
        [
            f"modify stage, {res.atoms} atoms",
            us(res.modify_openmp),
            us(res.modify_pool),
        ],
    ]
    table = format_table(
        ["quantity", "OpenMP [us]", "thread pool [us]"],
        rows,
        title="Section 3.3 — threading overhead micro-measurements",
    )
    notes = (
        f"\n OpenMP modify vs serial at {res.atoms} atoms: "
        f"{res.openmp_modify_slowdown:.0f}x slower "
        f"(paper: ~{PAPER['modify_slowdown_at_22_atoms']:.0f}x)"
        f"\n fork/join values are the paper's measured constants "
        f"({PAPER['openmp_fork_join_us']} us / {PAPER['threadpool_fork_join_us']} us), "
        "wired into MachineParams"
    )
    return table + notes
