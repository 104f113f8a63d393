"""Spin-lock thread-pool model and deterministic load splitting.

Section 3.3 of the paper replaces OpenMP parallel regions with a
persistent spin-lock thread pool because LAMMPS enters a parallel region
in *every* stage of *every* step: at 22 atoms per rank the 5.8 us OpenMP
fork/join dwarfs the work, while the pool's measured 1.1 us does not.

Two things live here:

* :class:`ThreadPoolModel` — the timing model: dispatching N work items
  over T threads costs ``fork_join + max(per-thread work)``.
* :func:`split_load` — the paper's communication load balancing (Fig. 10):
  13 neighbor messages with heterogeneous sizes and hop counts are
  distributed over 6 communication threads so the per-thread *cost* (not
  count) is balanced.  We use LPT (longest-processing-time-first) greedy
  scheduling, which is deterministic and within 4/3 of optimal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.machine.params import FUGAKU, MachineParams
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACER


@dataclass(frozen=True)
class WorkItem:
    """One schedulable unit: an opaque payload with a known cost."""

    payload: object
    cost: float

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise ValueError(f"negative cost {self.cost}")


def lpt_bins(costs: Sequence[float], n_bins: int) -> list[list[int]]:
    """LPT-balance item *indices* over ``n_bins`` bins by cost.

    The rule, written once: items in cost-descending order (ties by
    original index), each to the least-loaded bin (ties by bin index).
    """
    if n_bins < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_bins}")
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    loads = [0.0] * n_bins
    # A stable sort keeps equal costs in original order, reversed or not.
    for i in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):
        j = loads.index(min(loads))
        bins[j].append(i)
        loads[j] += costs[i]
    return bins


def lpt_rows(costs: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`lpt_bins` of every row of a ``(rows, items)`` cost table at
    once: ``(order, bin)`` tables, each row its items bin-major in the
    order :func:`lpt_bins` fills them, and the bin of each.

    Row for row the same rule and the same float additions: items in
    cost-descending stable order, each to the least-loaded bin, the lowest
    index on ties, loads summed in that order — one NumPy step per item
    for all rows, so it pays off from a few rows up.
    """
    if n_bins < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_bins}")
    rows, items = costs.shape
    ranked = np.argsort(-costs, axis=1, kind="stable")
    ranked_costs = np.take_along_axis(costs, ranked, axis=1)
    loads = np.zeros((rows, n_bins))
    bin_of = np.empty((rows, items), dtype=np.intp)
    every = np.arange(rows)
    for i in range(items):
        least = loads.argmin(axis=1)
        bin_of[:, i] = least
        loads[every, least] += ranked_costs[:, i]
    by_bin = np.argsort(bin_of, axis=1, kind="stable")
    return np.take_along_axis(ranked, by_bin, 1), np.take_along_axis(bin_of, by_bin, 1)


def split_load(items: Sequence[WorkItem], n_threads: int) -> list[list[WorkItem]]:
    """LPT-balance ``items`` over ``n_threads`` bins by cost.

    Deterministic: ties broken by original order.  Returns ``n_threads``
    lists (some possibly empty when there are fewer items than threads).
    """
    return [
        [items[i] for i in idxs]
        for idxs in lpt_bins([item.cost for item in items], n_threads)
    ]


def makespan(bins: Sequence[Sequence[WorkItem]]) -> float:
    """The bottleneck (max per-bin) cost of a partition."""
    return max((sum(w.cost for w in b) for b in bins), default=0.0)


@dataclass
class ThreadPoolModel:
    """Timing model of a persistent spin-lock thread pool.

    ``fork_join`` is the full dispatch + spin-wait-join overhead of one
    parallel region (paper-measured 1.1 us).  The pool is persistent, so
    no thread start cost is ever paid after construction.
    """

    n_threads: int
    params: MachineParams = field(default=FUGAKU)
    parallel_regions: int = 0

    @property
    def fork_join(self) -> float:
        return self.params.threadpool_fork_join

    def parallel_time(self, work: Sequence[float]) -> float:
        """Wall time of one parallel region executing ``work`` items.

        Items are LPT-balanced over the threads; the region costs the
        fork/join overhead plus the bottleneck thread's work.  An empty
        region still pays the fork/join (the code enters it regardless).
        """
        self.parallel_regions += 1
        items = [WorkItem(None, w) for w in work]
        bottleneck = makespan(split_load(items, self.n_threads))
        if TRACER.enabled:
            # Two back-to-back model spans make the fixed fork/join
            # overhead (the paper's 1.1 us) visible next to the work.
            start = TRACER.model_clock
            TRACER.add_model_span(
                "fork_join", start, self.fork_join,
                cat="threadpool", track="threadpool", n_threads=self.n_threads,
            )
            TRACER.add_model_span(
                "parallel_work", start + self.fork_join, bottleneck,
                cat="threadpool", track="threadpool", n_items=len(items),
            )
        if METRICS.enabled:
            METRICS.counter("threadpool_regions_total").inc()
            METRICS.counter("threadpool_fork_join_seconds").inc(self.fork_join)
        return self.fork_join + bottleneck

    def serial_fraction_speedup(self, total_work: float, serial_work: float) -> float:
        """Amdahl helper: speedup of this pool on a mixed workload."""
        if total_work <= 0:
            return 1.0
        parallel_work = max(total_work - serial_work, 0.0)
        t_parallel = serial_work + parallel_work / self.n_threads + self.fork_join
        return total_work / t_parallel
