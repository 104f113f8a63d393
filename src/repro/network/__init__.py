"""Discrete-event network simulation for the TofuD substrate.

* :mod:`repro.network.stacks` — software-stack cost models: the heavy MPI
  stack vs the thin uTofu one-sided stack.
* :mod:`repro.network.simulator` — message-level simulation of injections
  through TNIs onto the torus: per-thread injection intervals
  (``T_inj``), per-TNI engine serialization and contention, pipelined
  wire transfer.  This is what turns the paper's Table 1 geometry into
  the times of Figs. 6, 8, 12 and 13.  Two pricers: the event loop
  :func:`simulate_round` (the reference; observers, faults, VCQ switches
  and multi-wire protocols) and the world pass
  :func:`simulate_owned_rounds` (every rank's round in one vector pass).
"""

from repro.network.stacks import SoftwareStack, MpiStack, UtofuStack, stack_by_name
from repro.network.simulator import (
    Message,
    NetworkSimulator,
    RoundResult,
    simulate_owned_rounds,
    simulate_round,
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
    "simulate_owned_rounds",
]
