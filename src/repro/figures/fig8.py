"""Fig. 8 — message rate and bandwidth vs message size on one node.

Three configurations: single thread over 4 TNIs (one per rank), single
thread over 6 TNIs (VCQ hopping + inter-rank contention), and 6 threads
over 6 TNIs (the fine-grained pool).  Paper findings: single-6TNI is
*slower* than single-4TNI, and the parallel configuration boosts the
message rate by at least 50 % below ~512 B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.figures.common import format_table
from repro.machine.params import FUGAKU, MachineParams
from repro.network import Message, UtofuStack, simulate_round

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


def _mode_messages(mode: str, size: int, per_rank: int, ranks: int):
    msgs = []
    for r in range(ranks):
        for i in range(per_rank):
            if mode == "single-4tni":
                m = Message(size, 1, rank=r, thread=0, tni=r)
            elif mode == "single-6tni":
                m = Message(size, 1, rank=r, thread=0, tni=i % 6)
            elif mode == "parallel-6tni":
                m = Message(size, 1, rank=r, thread=i % 6, tni=i % 6)
            else:
                raise ValueError(mode)
            msgs.append(m)
    return msgs


def compute(
    per_rank: int = 200,
    ranks: int = 4,
    params: MachineParams = FUGAKU,
    sizes=SIZES,
) -> Fig8Result:
    """Sweep message sizes through the three TNI configurations."""
    stack = UtofuStack(params=params)
    res = Fig8Result(sizes=tuple(sizes))
    for mode in ("single-4tni", "single-6tni", "parallel-6tni"):
        rates, bws = [], []
        for size in sizes:
            out = simulate_round(_mode_messages(mode, size, per_rank, ranks), stack, params)
            n = per_rank * ranks
            rates.append(n / out.completion_time / 1e6)
            bws.append(n * size / out.completion_time / 1e9)
        res.rates[mode] = rates
        res.bandwidths[mode] = bws
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
