"""Discrete-event network simulation for the TofuD substrate.

* :mod:`repro.network.stacks` — software-stack cost models: the heavy MPI
  stack vs the thin uTofu one-sided stack.
* :mod:`repro.network.simulator` — message-level simulation of injections
  through TNIs onto the torus: per-thread injection intervals
  (``T_inj``), per-TNI engine serialization and contention, pipelined
  wire transfer.  This is what turns the paper's Table 1 geometry into
  the times of Figs. 6, 8, 12 and 13.  Two pricers: the event loop
  :func:`simulate_round` (the reference, and the one path for observers:
  tracer, metrics, timing faults) and the world pass
  :func:`simulate_rounds` (many rounds in one vector pass: shared TNI
  engines, VCQ switches and two-message protocols included).
"""

from repro.network.stacks import SoftwareStack, MpiStack, UtofuStack, stack_by_name
from repro.network.simulator import (
    Message,
    NetworkSimulator,
    RoundResult,
    simulate_round,
    simulate_rounds,
)

__all__ = [
    "SoftwareStack",
    "MpiStack",
    "UtofuStack",
    "stack_by_name",
    "Message",
    "NetworkSimulator",
    "RoundResult",
    "simulate_round",
    "simulate_rounds",
]
