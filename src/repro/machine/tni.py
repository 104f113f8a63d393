"""Tofu Network Interface (TNI) / control-queue model.

Paper Fig. 7: each node's TofuD controller has **6 TNIs**, each with **9
control queues (CQs)**; all CQs of a TNI share one message-processing
engine, so two threads injecting through different CQs of the *same* TNI
serialize, while injections through different TNIs proceed in parallel.
A CQ is not thread-safe: software creates a **virtual control queue
(VCQ)** bound to exactly one CQ and gives each thread its own VCQ.

The ownership rules the paper exploits are encoded here:

* By default an MPI rank may allocate **one CQ per TNI** (so 4 ranks per
  node can collectively own 4 CQs on each of the 6 TNIs = 24 CQs).
* Coarse-grained mode (section 3.2) binds rank *i* to a single CQ on TNI
  *i* — 4 ranks use 4 TNIs.
* Fine-grained mode (section 3.3) gives each rank 6 VCQs, one CQ on each
  of the 6 TNIs, each driven by its own thread.

The timing consequences (per-TNI serialization, contention when several
ranks hit one TNI) are consumed by :mod:`repro.network.simulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.params import FUGAKU, MachineParams


class TNIAllocationError(RuntimeError):
    """Raised when CQ allocation violates the hardware ownership rules."""


@dataclass(frozen=True)
class ControlQueue:
    """One hardware control queue: ``(tni, index)`` on some node."""

    tni: int
    index: int


@dataclass(frozen=True)
class VirtualControlQueue:
    """A software VCQ: a (rank, thread) handle bound to one hardware CQ.

    VCQs are the unit of thread-safety — one thread drives one VCQ; the
    bound CQ (and hence TNI engine) is where serialization happens.
    """

    owner_rank: int
    thread: int
    cq: ControlQueue

    @property
    def tni(self) -> int:
        return self.cq.tni


@dataclass
class TNI:
    """One Tofu network interface with its 9 CQs and busy-time tracking.

    ``busy_until`` is the discrete-event availability horizon of the TNI's
    shared message-processing engine; the network simulator advances it as
    messages are injected.
    """

    index: int
    params: MachineParams = field(default=FUGAKU)
    busy_until: float = 0.0

    def __post_init__(self) -> None:
        self._allocated: dict[int, int] = {}  # cq index -> owning rank

    @property
    def cq_count(self) -> int:
        return self.params.cqs_per_tni

    def allocate_cq(self, rank: int) -> ControlQueue:
        """Allocate the next free CQ on this TNI to ``rank``.

        Hardware rule (paper section 3.3): each rank may hold at most one
        CQ per TNI.
        """
        if rank in self._allocated.values():
            raise TNIAllocationError(
                f"rank {rank} already owns a CQ on TNI {self.index}"
            )
        for i in range(self.cq_count):
            if i not in self._allocated:
                self._allocated[i] = rank
                return ControlQueue(self.index, i)
        raise TNIAllocationError(f"TNI {self.index} has no free CQs")

    def owner_of(self, cq_index: int) -> int | None:
        """Rank owning ``cq_index``, or None if free."""
        return self._allocated.get(cq_index)

    def allocated_count(self) -> int:
        """Number of CQs currently allocated on this TNI."""
        return len(self._allocated)

    def reset_time(self) -> None:
        """Clear the engine's busy horizon (new simulation round)."""
        self.busy_until = 0.0


class NodeNIC:
    """The full TofuD controller of one node: 6 TNIs and VCQ bookkeeping."""

    def __init__(self, params: MachineParams = FUGAKU) -> None:
        self.params = params
        self.tnis = [TNI(i, params) for i in range(params.tnis_per_node)]
        self._vcqs: list[VirtualControlQueue] = []

    @property
    def tni_count(self) -> int:
        return len(self.tnis)

    def reset_time(self) -> None:
        """Reset every TNI's busy horizon."""
        for t in self.tnis:
            t.reset_time()

    # -- binding policies ---------------------------------------------------
    def bind_fine(self, local_ranks: list[int]):
        """Fine-grained binding: every rank gets one VCQ on *every* TNI.

        This is the paper's thread-pool layout (Fig. 7 right): with 4
        ranks, 4 x 6 = 24 distinct CQs are in use and each rank can drive
        6 communication threads without sharing a CQ.  Returns a mapping
        ``rank -> [VCQ x 6]`` ordered by TNI.
        """
        out: dict[int, list[VirtualControlQueue]] = {}
        for rank in local_ranks:
            vcqs = []
            for thread, tni in enumerate(self.tnis):
                cq = tni.allocate_cq(rank)
                vcqs.append(VirtualControlQueue(owner_rank=rank, thread=thread, cq=cq))
            self._vcqs.extend(vcqs)
            out[rank] = vcqs
        return out

    # -- queries -------------------------------------------------------------
    def vcqs_of(self, rank: int) -> list[VirtualControlQueue]:
        """All VCQs owned by ``rank`` on this node."""
        return [v for v in self._vcqs if v.owner_rank == rank]

    def cqs_in_use(self) -> int:
        """Total CQs allocated across the node's TNIs."""
        return sum(t.allocated_count() for t in self.tnis)
