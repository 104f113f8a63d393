"""Pre-registered RDMA buffers (paper section 3.4).

The baseline LAMMPS grows send/receive buffers on demand; under RDMA
every growth forces a re-registration (kernel trap).  The optimized code

1. sizes every buffer from the **theoretical maximum** ghost population
   (:class:`repro.core.ghost.GhostBudget`) so registration happens once,
2. registers the *position and force arrays themselves* so forward-stage
   positions are PUT straight into the remote array at the ghost offset
   (no unpack copy), with the 8-byte offset piggybacked during the border
   stage, and
3. keeps **four receive buffers per neighbor in round-robin** so a PUT
   from the next stage can never land on data the previous stage has not
   consumed yet (Fig. 10).

This module provides those three pieces; the p2p exchange composes them.
The overwrite hazard is enforced, not just documented —
:class:`RecvBufferRing` raises :class:`BufferOverwriteError` when a write
would clobber an unconsumed buffer, and a test shows depth 4 is the
smallest safe depth for the border->forward->reverse dependency chain
the paper analyzed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ghost import GhostBudget
from repro.machine.rdma import MemoryRegion, RdmaEngine
from repro.obs import hbevents
from repro.obs.metrics import METRICS, OCCUPANCY_BUCKETS


class BufferOverwriteError(RuntimeError):
    """A remote write targeted a receive buffer still holding live data."""


def _same_memory(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays are the same address and extent — what a
    registration is of.  (Not ``a.base is b``: a slab of an arena is
    itself a view, and every slicing of it is a new object.)"""
    return (
        a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
        and a.nbytes == b.nbytes
    )


class RecvBufferRing:
    """Round-robin registered receive buffers for one neighbor."""

    def __init__(
        self,
        engine: RdmaEngine,
        rank: int,
        capacity_elems: int,
        depth: int = 4,
    ) -> None:
        if depth < 1:
            raise ValueError(f"ring depth must be >= 1, got {depth}")
        if capacity_elems < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity_elems}")
        cache = engine.cache_for(rank)
        self.rank = rank
        self.depth = depth
        self.capacity = capacity_elems
        self.buffers: list[MemoryRegion] = [
            cache.register(np.zeros(capacity_elems)) for _ in range(depth)
        ]
        self._dirty = [False] * depth
        self._write_cursor = 0
        self._read_cursor = 0

    @property
    def ring_id(self) -> int:
        """Stable ring identity (the first buffer's STag) for trace events."""
        return self.buffers[0].stag

    def stags(self) -> list[int]:
        """Registered handles, exchanged with the neighbor at setup."""
        return [b.stag for b in self.buffers]

    def acquire_for_write(self) -> tuple[int, MemoryRegion]:
        """Next buffer the *sender* will target; errors on overwrite.

        Both sides advance their cursors in lockstep (same deterministic
        protocol), so the sender knows the index without communication.
        """
        idx = self._write_cursor
        if METRICS.enabled:
            METRICS.histogram(
                "recv_ring_occupancy", buckets=OCCUPANCY_BUCKETS
            ).observe(self.outstanding())
        if self._dirty[idx]:
            hbevents.emit_write(self.rank, f"ring{self.ring_id}/slot{idx}", ok=False)
            raise BufferOverwriteError(
                f"receive buffer {idx} would be overwritten before it was "
                f"consumed (ring depth {self.depth} too shallow)"
            )
        hbevents.emit_write(self.rank, f"ring{self.ring_id}/slot{idx}", ok=True)
        self._dirty[idx] = True
        self._write_cursor = (idx + 1) % self.depth
        return idx, self.buffers[idx]

    def consume(self) -> np.ndarray:
        """The receiver drains the oldest written buffer."""
        idx = self._read_cursor
        if not self._dirty[idx]:
            hbevents.emit_read(self.rank, f"ring{self.ring_id}/slot{idx}", ok=False)
            raise BufferOverwriteError(
                f"consume() on clean buffer {idx}: protocol out of sync"
            )
        hbevents.emit_read(self.rank, f"ring{self.ring_id}/slot{idx}", ok=True)
        self._dirty[idx] = False
        self._read_cursor = (idx + 1) % self.depth
        return self.buffers[idx].data

    def outstanding(self) -> int:
        """Number of written-but-unconsumed buffers."""
        return sum(self._dirty)


@dataclass(slots=True)
class RemoteWindow:
    """What a neighbor told us at setup: where to PUT (Fig. 9/10).

    Every border stage builds one per route afresh (the ghost offset
    moves) and nothing writes to it after; not frozen because a frozen
    dataclass costs ~4x as much to build, 351 times a reneighbouring.
    """

    rank: int
    x_stag: int
    ghost_elem_offset: int  # element offset of our ghosts in their x array
    recv_stags: tuple[int, ...]  # their ring, in cursor order


class RdmaEndpoint:
    """Per-rank RDMA resources for the optimized exchange.

    Registers the position and force arrays (flat float64 views over the
    ``(capacity, 3)`` storage) plus one receive ring and one send buffer
    per neighbor, all sized from the :class:`GhostBudget` — one-time
    registration, verified by ``registration_count`` staying flat during
    a run.
    """

    def __init__(
        self,
        rank: int,
        engine: RdmaEngine,
        x_storage: np.ndarray,
        f_storage: np.ndarray,
        budget: GhostBudget,
        n_neighbors: int,
        ring_depth: int = 4,
        full_shell: bool = False,
    ) -> None:
        if x_storage.ndim != 2 or x_storage.shape[1] != 3:
            raise ValueError("x_storage must be (capacity, 3)")
        self.rank = rank
        self.engine = engine
        cache = engine.cache_for(rank)
        # Flat views share memory with the atom arrays: a PUT into the
        # region is a PUT into the atoms' coordinates.
        self.x_region = cache.register(x_storage.reshape(-1))
        self.f_region = cache.register(f_storage.reshape(-1))

        per_msg = budget.max_atoms_per_message() * 3 + 1  # +1 length prefix
        self.ring_depth = ring_depth
        self.recv_rings: list[RecvBufferRing] = [
            RecvBufferRing(engine, rank, per_msg, ring_depth)
            for _ in range(n_neighbors)
        ]
        self.send_buffers: list[np.ndarray] = [
            np.zeros(per_msg) for _ in range(n_neighbors)
        ]
        self.remote: dict[int, RemoteWindow] = {}  # neighbor index -> window
        self.max_ghosts = budget.max_ghost_atoms(full_shell)

    def revalidate(self, x_storage: np.ndarray, f_storage: np.ndarray) -> bool:
        """Re-register if the atom arrays were reallocated (grew).

        Returns True when a re-registration happened — the per-growth
        kernel-trap overhead that pre-sizing from the theoretical maximum
        is designed to eliminate.  ``registration_count`` on the cache
        exposes it to tests and the ablation bench.
        """
        if _same_memory(self.x_region.data, x_storage) and _same_memory(
            self.f_region.data, f_storage
        ):
            return False
        cache = self.engine.cache_for(self.rank)
        cache.deregister(self.x_region)
        cache.deregister(self.f_region)
        self.x_region = cache.register(x_storage.reshape(-1))
        self.f_region = cache.register(f_storage.reshape(-1))
        return True

    def window_for_neighbor(self, neighbor_index: int, ghost_elem_offset: int) -> RemoteWindow:
        """The setup-stage message advertising our windows to a neighbor."""
        return RemoteWindow(
            rank=self.rank,
            x_stag=self.x_region.stag,
            ghost_elem_offset=ghost_elem_offset,
            recv_stags=tuple(self.recv_rings[neighbor_index].stags()),
        )

    def install_remote(self, neighbor_index: int, window: RemoteWindow) -> None:
        """Record a neighbor's advertised window for later PUTs."""
        self.remote[neighbor_index] = window

    def put_positions(
        self, neighbor_index: int, packed_xyz: np.ndarray
    ) -> int:
        """Forward stage: PUT packed positions straight into the remote
        position array at the pre-agreed ghost offset.  Returns bytes."""
        window = self.remote[neighbor_index]
        flat = packed_xyz.reshape(-1)
        src = self.send_buffers[neighbor_index]
        if flat.size > src.size:
            raise BufferOverwriteError(
                f"send of {flat.size} elements exceeds pre-sized buffer {src.size}"
            )
        src[: flat.size] = flat
        src_region = self._send_region(neighbor_index, src)
        self.engine.put(
            src_region,
            0,
            window.rank,
            window.x_stag,
            window.ghost_elem_offset,
            flat.size,
        )
        return flat.size * 8

    _send_regions: dict[int, MemoryRegion]

    def _send_region(self, neighbor_index: int, buf: np.ndarray) -> MemoryRegion:
        if not hasattr(self, "_send_regions"):
            self._send_regions = {}
        if neighbor_index not in self._send_regions:
            cache = self.engine.cache_for(self.rank)
            self._send_regions[neighbor_index] = cache.register(buf)
        return self._send_regions[neighbor_index]

    def put_into_ring(
        self,
        neighbor_index: int,
        remote_ring: RecvBufferRing,
        payload: np.ndarray,
    ) -> int:
        """Reverse stage: length-prefixed PUT into the neighbor's ring.

        ``remote_ring`` is the receiving endpoint's ring object (the
        in-process stand-in for the remote side's registered memory —
        cursor discipline is what we are modeling).  Returns bytes sent.
        """
        from repro.core.message_combine import write_into
        from repro.faults.injector import FAULTS

        session = FAULTS.session
        if session is not None:
            ticks = session.rdma_defer("ring-stale", self.rank)
            if ticks > 0:
                # The ring PUT is in flight: the consumer sees a clean
                # buffer (the §3.4 hazard) until the deferred write —
                # acquire + encode, preserving cursor discipline — lands
                # after ``ticks`` consume-retry polls.
                data = np.ascontiguousarray(payload, dtype=np.float64).ravel().copy()
                res = f"ring{remote_ring.ring_id}"
                pid = hbevents.emit_put(
                    self.rank, res, 0, data.size, inflight=True
                )

                def land(ring=remote_ring, data=data, res=res, pid=pid) -> None:
                    _, region = ring.acquire_for_write()
                    write_into(region.data, data)
                    hbevents.emit_land(res, 0, data.size, pid)

                session.defer(ticks, land, "ring-stale")
                return (data.size + 1) * 8

        _, region = remote_ring.acquire_for_write()
        n = write_into(region.data, payload)
        return n * 8
