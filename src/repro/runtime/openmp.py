"""OpenMP fork-join model — the baseline the thread pool replaces.

Identical interface to :class:`repro.runtime.threadpool.ThreadPoolModel`
but with the measured 5.8 us fork/join of an OpenMP parallel region
(paper section 3.3).  The paper's observation that enabling OpenMP makes
the NVE modify stage *10x slower* at small atom counts falls straight out
of this model: with 22 atoms the useful work is tens of nanoseconds while
the region overhead is microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.machine.params import FUGAKU, MachineParams
from repro.runtime.threadpool import WorkItem, makespan


@dataclass
class OpenMPModel:
    """Timing model of OpenMP parallel regions (static scheduling)."""

    n_threads: int
    params: MachineParams = field(default=FUGAKU)
    parallel_regions: int = 0

    @property
    def fork_join(self) -> float:
        return self.params.openmp_fork_join

    def parallel_time(self, work: Sequence[float]) -> float:
        """Wall time of one ``#pragma omp parallel for`` region.

        OpenMP static scheduling splits the iteration space evenly by
        *count*, not cost — we model that by round-robin assignment in
        the original order, which is pessimal for skewed work (another
        reason the paper's cost-aware pool wins on communication).
        """
        self.parallel_regions += 1
        bins: list[list[WorkItem]] = [[] for _ in range(self.n_threads)]
        for i, w in enumerate(work):
            bins[i % self.n_threads].append(WorkItem(None, w))
        return self.fork_join + makespan(bins)

    def serial_fraction_speedup(self, total_work: float, serial_work: float) -> float:
        """Amdahl helper: speedup on a mixed serial/parallel workload."""
        if total_work <= 0:
            return 1.0
        parallel_work = max(total_work - serial_work, 0.0)
        t_parallel = serial_work + parallel_work / self.n_threads + self.fork_join
        return total_work / t_parallel
