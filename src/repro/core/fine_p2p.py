"""Fine-grained thread-pool p2p (paper section 3.3, Figs. 7 and 10).

Functionally this moves exactly the same bytes as
:class:`~repro.core.p2p.P2PExchange` — correctness cannot depend on which
thread injected a message.  What changes is the *schedule*: each rank's
13 neighbor messages are distributed over 6 communication threads, each
thread driving its own VCQ bound to a distinct TNI (the 4 ranks x 6 CQs
= 24-CQ layout of Fig. 7), so injections proceed in parallel.

The class only declares its thread count; the pricer
(:func:`repro.core.modeling.schedule`) balances each rank's sends over
the threads by Fig. 10's cost — payload serialization (message size) and
path length (hops): the 3 face messages are big but near, the 4 corner
messages small but far — with LPT assignment, and the network simulator
turns that schedule into the paper's >=50 % message-rate boost for
<512 B messages (Fig. 8) and the 77 % communication-time cut (Fig. 12).
"""

from __future__ import annotations

from repro.core.p2p import P2PExchange
from repro.machine.params import FUGAKU, MachineParams


class FineGrainedP2PExchange(P2PExchange):
    """Thread-pool-parallel p2p: same data, parallel injection schedule."""

    name = "parallel-p2p"
    # First rung of the degradation ladder: same routes, single-threaded
    # injection — then coarse p2p's own fallback reaches 3-stage.
    fallback_pattern = "p2p"

    def __init__(
        self,
        *args,
        n_comm_threads: int | None = None,
        params: MachineParams = FUGAKU,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.n_comm_threads = (
            n_comm_threads if n_comm_threads is not None else params.comm_threads_per_rank
        )
        if not 1 <= self.n_comm_threads <= params.tnis_per_node:
            raise ValueError(
                f"comm threads {self.n_comm_threads} must be in "
                f"[1, {params.tnis_per_node}] (one VCQ per TNI per rank)"
            )
