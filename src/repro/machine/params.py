"""Calibrated machine parameters for the Fugaku substrate.

Every timing constant used by the network simulator and the performance
model lives here, in a single frozen dataclass.  The values are anchored to
numbers reported in the paper (and the TofuD paper it cites):

* uTofu RDMA PUT minimal latency: **0.49 us** (paper section 2.2).
* Link bandwidth: **6.8 GB/s** per port, 10 ports per node (section 2.2).
* Thread-pool start/sync overhead **1.1 us** vs OpenMP **5.8 us**
  (section 3.3, measured by the authors).
* The MPI software stack's injection interval ``T_inj`` is large enough
  that a naive MPI p2p (12 extra injections) loses to MPI 3-stage, while
  the uTofu ``T_inj`` is small enough that uTofu-p2p beats uTofu-3stage by
  about 1.5x (section 3.2, Fig. 6).  ``utofu_t_inj = 0.135 us`` reproduces
  those orderings and the reported 79 % reduction of uTofu-p2p vs
  MPI-3stage.  ``mpi_t_inj = 2.4 us`` and ``mpi_per_message_overhead =
  0.6 us`` (1.45 us and 0.95 us before MPI forward / reverse rounds were
  priced at known lengths) are the point of the grid {1.6 ... 3.0 us, step
  0.2} x {0.3 ... 0.8 us, step 0.1; 0.95 us} with the lowest median error
  over the claims table's ``fit`` rows alone (docs/calibration.md).
* A64FX: 4 CMGs x 12 compute cores, 512-bit SVE, 32 DP flop/cycle/core at
  2.0 GHz nominal (section 2.2 and the A64FX reference the paper cites).

Anything not stated in the paper is estimated from the cited literature and
clearly marked ``# estimated``.  Tests in ``tests/machine/test_params.py``
pin the orderings the paper's analysis depends on (e.g. the Fig. 6
inequalities), so a recalibration that breaks the paper's story fails CI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class MachineParams:
    """All calibrated constants of the simulated machine.

    Times are in **seconds**, sizes in **bytes**, rates in **bytes/second**
    unless a field name says otherwise.  Instances are immutable; derive
    variants with :meth:`evolve`.
    """

    # --- node / CPU ------------------------------------------------------
    cmgs_per_node: int = 4
    compute_cores_per_cmg: int = 12
    assistant_cores_per_cmg: int = 1
    clock_hz: float = 2.0e9
    dp_flops_per_cycle_per_core: float = 32.0  # 2x 512-bit SVE FMA pipes
    hbm_bandwidth_per_cmg: float = 256e9  # HBM2, section 2.2
    hbm_capacity_per_cmg: float = 8 * 2**30

    # --- TofuD network ---------------------------------------------------
    tnis_per_node: int = 6
    cqs_per_tni: int = 9
    ports_per_node: int = 10
    link_bandwidth: float = 6.8e9  # per paper: 6.8 GB/s injection per port
    hop_latency: float = 0.08e-6  # estimated per-hop switch delay
    rdma_put_latency: float = 0.49e-6  # paper: uTofu minimal latency
    cache_injection_saving: float = 0.05e-6  # estimated LLC-injection gain
    tni_engine_message_time: float = 0.08e-6  # estimated engine occupancy floor
    vcq_switch_overhead: float = 0.06e-6  # estimated cost of hopping VCQs
    mrq_poll_cost: float = 0.3e-6  # estimated per-message completion handling
    ring_probe_cost: float = 0.01e-6  # estimated single ring-status probe

    # --- software stacks -------------------------------------------------
    # T_inj: interval between two consecutive messages reaching the network
    # from the same sending core (paper section 3.1, citing Zambre et al.).
    mpi_t_inj: float = 2.4e-6  # calibrated (fit rows): heavy MPI stack
    utofu_t_inj: float = 0.135e-6  # calibrated: thin one-sided stack
    mpi_per_message_overhead: float = 0.6e-6  # calibrated (fit rows): tag matching
    utofu_per_message_overhead: float = 0.12e-6  # descriptor build + ring
    mpi_rendezvous_threshold: int = 16 * 1024  # eager/rendezvous switch
    mpi_rendezvous_extra: float = 1.8e-6  # RTS/CTS handshake round trip
    mpi_unknown_length_extra_message: bool = True  # 2-step length protocol

    # --- memory registration (section 3.4) --------------------------------
    registration_base: float = 2.4e-6  # kernel trap, estimated
    registration_per_page: float = 0.25e-6  # page pinning, estimated
    page_size: int = 4096

    # --- threading (section 3.3) -----------------------------------------
    threadpool_fork_join: float = 1.1e-6  # paper-measured
    openmp_fork_join: float = 5.8e-6  # paper-measured
    comm_threads_per_rank: int = 6

    # --- deployment -------------------------------------------------------
    ranks_per_node: int = 4  # one per CMG (section 3.2)

    # ---------------------------------------------------------------------
    @property
    def cores_per_node(self) -> int:
        """Compute cores available to the application per node."""
        return self.cmgs_per_node * self.compute_cores_per_cmg

    @property
    def node_peak_flops(self) -> float:
        """Peak double-precision flop/s of one node."""
        return self.cores_per_node * self.clock_hz * self.dp_flops_per_cycle_per_core

    @property
    def threads_per_rank(self) -> int:
        """Worker threads per MPI rank (12 on Fugaku: 48 cores / 4 ranks)."""
        return self.cores_per_node // self.ranks_per_node

    def registration_cost(self, nbytes: int) -> float:
        """Cost of registering ``nbytes`` of memory for RDMA.

        Registration requires a kernel trap plus per-page pinning; this is
        the overhead the paper's pre-registered address scheme (section
        3.4) pays exactly once instead of on every buffer growth.
        """
        if nbytes <= 0:
            return self.registration_base
        pages = -(-nbytes // self.page_size)
        return self.registration_base + pages * self.registration_per_page

    def wire_time(self, nbytes: int, hops: int) -> float:
        """Pure hardware time for one message of ``nbytes`` over ``hops``.

        Transmission is fully pipelined (section 3.1), so serialization is
        paid once and each extra hop adds only switch latency.
        """
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        serial = nbytes / self.link_bandwidth
        return self.rdma_put_latency + max(hops - 1, 0) * self.hop_latency + serial

    def wire_times(self, nbytes: np.ndarray, hops: np.ndarray) -> np.ndarray:
        """:meth:`wire_time` for arrays of sizes and (non-negative) hop
        counts, elementwise identical (same terms, same association)."""
        serial = nbytes / self.link_bandwidth
        return self.rdma_put_latency + np.maximum(hops - 1, 0) * self.hop_latency + serial

    def evolve(self, **changes) -> "MachineParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: The default, paper-calibrated Fugaku machine.
FUGAKU = MachineParams()
