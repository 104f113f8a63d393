"""Software-stack cost models: MPI vs uTofu.

The paper's central measurement (Fig. 6) is that the *same* communication
pattern costs wildly different amounts under the two stacks:

* **MPI** pays tag matching, message fragmentation and (for unknown-length
  receives) a two-message length-then-content protocol; its injection
  interval ``T_inj`` is more than 10x uTofu's.  That is why naive MPI-p2p
  (13 messages) *loses* to MPI-3stage (6 messages) despite moving half the
  ghost volume.
* **uTofu** is a thin one-sided layer: build a descriptor, ring a VCQ
  doorbell.  Its small ``T_inj`` is what makes the p2p pattern's extra
  messages nearly free, and its piggyback mechanism embeds small payloads
  (the 8-byte ghost offset of section 3.4) in the descriptor itself.

Both stacks answer three questions for the simulator: the sender CPU time
per message (:meth:`SoftwareStack.injection_interval`), any extra protocol
messages (:meth:`SoftwareStack.protocol_message_count`), and fixed
per-message software latency added on top of the wire time
(:meth:`SoftwareStack.software_latency`).  The two cost questions also
come elementwise over arrays of sizes (``injection_intervals`` /
``software_latencies``) for the simulator's world pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.params import FUGAKU, MachineParams


@dataclass(frozen=True)
class SoftwareStack:
    """Base class for communication software stacks."""

    params: MachineParams = FUGAKU
    name: str = "abstract"

    def injection_interval(self, nbytes: int) -> float:
        """Sender CPU time consumed to inject one message (``T_inj``)."""
        raise NotImplementedError

    def software_latency(self, nbytes: int) -> float:
        """Per-message software latency outside the injection interval."""
        raise NotImplementedError

    def protocol_message_count(self, nbytes: int, known_length: bool) -> int:
        """Wire messages actually needed to deliver one logical message."""
        raise NotImplementedError

    def injection_intervals(self, nbytes: np.ndarray) -> np.ndarray:
        """:meth:`injection_interval` elementwise over an array of sizes."""
        raise NotImplementedError

    def software_latencies(self, nbytes: np.ndarray) -> np.ndarray:
        """:meth:`software_latency` elementwise over an array of sizes."""
        raise NotImplementedError

    def supports_piggyback(self) -> bool:
        """Whether tiny payloads can ride in the message descriptor."""
        return False


@dataclass(frozen=True)
class MpiStack(SoftwareStack):
    """Two-sided MPI with eager/rendezvous protocol and tag matching."""

    name: str = "mpi"

    def injection_interval(self, nbytes: int) -> float:
        """T_inj with the rendezvous surcharge above the eager limit."""
        t = self.params.mpi_t_inj
        if nbytes > self.params.mpi_rendezvous_threshold:
            # Rendezvous: the sender also burns CPU on the RTS/CTS exchange.
            t += self.params.mpi_rendezvous_extra
        return t

    def software_latency(self, nbytes: int) -> float:
        """Tag-matching and stack traversal cost per message."""
        return self.params.mpi_per_message_overhead

    def protocol_message_count(self, nbytes: int, known_length: bool) -> int:
        # Unknown-length arrays need a separate length message first
        # (the overhead the paper's "message combine" removes, section 3.5.1).
        """1 eager message, or 2 for unknown-length transfers."""
        n = 1
        if not known_length and self.params.mpi_unknown_length_extra_message:
            n += 1
        return n

    # Elementwise identical to the scalar methods above (np.where picks
    # between the same two sums the scalar branch computes).
    def injection_intervals(self, nbytes: np.ndarray) -> np.ndarray:
        """Per-message ``T_inj`` for an array of sizes."""
        p = self.params
        return np.where(
            nbytes > p.mpi_rendezvous_threshold,
            p.mpi_t_inj + p.mpi_rendezvous_extra,
            p.mpi_t_inj,
        )

    def software_latencies(self, nbytes: np.ndarray) -> np.ndarray:
        """Per-message software latency for an array of sizes."""
        return np.full(nbytes.shape, self.params.mpi_per_message_overhead)


@dataclass(frozen=True)
class UtofuStack(SoftwareStack):
    """One-sided uTofu RDMA: thin descriptors, piggyback, cache injection."""

    name: str = "utofu"
    cache_injection: bool = True

    def injection_interval(self, nbytes: int) -> float:
        """The thin one-sided T_inj (size-independent)."""
        return self.params.utofu_t_inj

    def software_latency(self, nbytes: int) -> float:
        """Descriptor cost, reduced by cache injection."""
        lat = self.params.utofu_per_message_overhead
        if self.cache_injection:
            lat -= self.params.cache_injection_saving
        return max(lat, 0.0)

    def protocol_message_count(self, nbytes: int, known_length: bool) -> int:
        # One-sided put with a length-prefixed payload is always a single
        # message: the receiver parses the length from the first element
        # (message combine) or learns offsets at setup (pre-registration).
        """Always 1: length rides in the payload or descriptor."""
        return 1

    def supports_piggyback(self) -> bool:
        """True — small payloads ride in the descriptor."""
        return True

    # Elementwise forms of the scalar methods (both constants).
    def injection_intervals(self, nbytes: np.ndarray) -> np.ndarray:
        """Per-message ``T_inj`` for an array of sizes."""
        return np.full(nbytes.shape, self.params.utofu_t_inj)

    def software_latencies(self, nbytes: np.ndarray) -> np.ndarray:
        """Per-message software latency for an array of sizes."""
        return np.full(nbytes.shape, self.software_latency(0))


def stack_by_name(name: str, params: MachineParams = FUGAKU) -> SoftwareStack:
    """Factory: ``"mpi"`` or ``"utofu"`` (case-insensitive)."""
    key = name.lower()
    if key == "mpi":
        return MpiStack(params=params)
    if key == "utofu":
        return UtofuStack(params=params)
    raise ValueError(f"unknown software stack {name!r}")
