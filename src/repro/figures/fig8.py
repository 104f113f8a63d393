"""Fig. 8 — message rate and bandwidth vs message size on one node.

Three configurations: single thread over 4 TNIs (one per rank), single
thread over 6 TNIs (VCQ hopping + inter-rank contention), and 6 threads
over 6 TNIs (the fine-grained pool).  Paper findings: single-6TNI is
*slower* than single-4TNI, and the parallel configuration boosts the
message rate by at least 50 % below ~512 B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.figures.common import format_table
from repro.machine.params import FUGAKU, MachineParams
from repro.network import Message, UtofuStack, simulate_round, simulate_rounds

PAPER = {
    "parallel_gain_small_messages": 1.5,  # at least, below 512 B
    "single_6tni_below_single_4tni": True,
}

SIZES = (8, 32, 128, 256, 512, 1024, 4096, 16384, 65536)


@dataclass
class Fig8Result:
    sizes: tuple
    rates: dict[str, list[float]] = field(default_factory=dict)  # Mmsg/s
    bandwidths: dict[str, list[float]] = field(default_factory=dict)  # GB/s

    def parallel_gain(self, size: int) -> float:
        """Parallel over single-4TNI message-rate ratio at ``size``."""
        k = self.sizes.index(size)
        return self.rates["parallel-6tni"][k] / self.rates["single-4tni"][k]


MODES = ("single-4tni", "single-6tni", "parallel-6tni")


def compute(
    per_rank: int = 200,
    ranks: int = 4,
    params: MachineParams = FUGAKU,
    sizes=SIZES,
) -> Fig8Result:
    """Sweep message sizes through the three TNI configurations: one world
    pass over ``modes x sizes`` rows of ``ranks x per_rank`` messages."""
    stack = UtofuStack(params=params)
    rank, i = np.divmod(np.arange(ranks * per_rank), per_rank)
    lane = i % 6
    # Per mode, rank-major: each message's thread and the TNI it drives.
    thread = np.repeat(np.stack([0 * rank, 0 * rank, lane]), len(sizes), axis=0)
    tni = np.repeat(np.stack([rank, lane, lane]), len(sizes), axis=0)
    nbytes = np.repeat(np.tile(sizes, len(MODES))[:, None], rank.size, axis=1)
    hops = np.ones_like(nbytes)
    times = simulate_rounds(
        nbytes, hops, rank * 6 + thread, tni, np.zeros(len(nbytes)), stack, params
    )
    if times is None:  # an observer wants every event: the loop, row by row
        times = [
            simulate_round(
                [Message(*m) for m in zip(*(a.tolist() for a in (b, h, rank, t, e)))],
                stack, params,
            ).completion_time
            for b, h, t, e in zip(nbytes, hops, thread, tni)
        ]
    n = per_rank * ranks
    res = Fig8Result(sizes=tuple(sizes))
    for m, mode in enumerate(MODES):
        done = times[m * len(sizes) : (m + 1) * len(sizes)]
        res.rates[mode] = [n / t / 1e6 for t in done]
        res.bandwidths[mode] = [n * size / t / 1e9 for size, t in zip(sizes, done)]
    return res


def render(res: Fig8Result) -> str:
    """Format the message-rate/bandwidth table."""
    rows = []
    for k, size in enumerate(res.sizes):
        rows.append(
            [
                size,
                res.rates["single-4tni"][k],
                res.rates["single-6tni"][k],
                res.rates["parallel-6tni"][k],
                res.bandwidths["single-4tni"][k],
                res.bandwidths["parallel-6tni"][k],
            ]
        )
    table = format_table(
        ["bytes", "4TNI Mmsg/s", "6TNI Mmsg/s", "par Mmsg/s", "4TNI GB/s", "par GB/s"],
        rows,
        title="Fig. 8 — message rate / bandwidth vs size (1 node, 4 ranks)",
    )
    k = res.sizes.index(256)
    notes = (
        f"\n parallel gain at 256 B: {res.parallel_gain(256):.2f}x "
        f"(paper: >= {PAPER['parallel_gain_small_messages']}x below 512 B)"
        f"\n single-6TNI < single-4TNI at 256 B: "
        f"{res.rates['single-6tni'][k] < res.rates['single-4tni'][k]}"
        f" (paper: {PAPER['single_6tni_below_single_4tni']})"
    )
    return table + notes
