"""Dimension-order routing and link-congestion analysis.

The TofuD router forwards packets dimension by dimension (x, y, z, a,
b, c), taking the short way around each torus ring.  This module
enumerates the actual links of each route so placements can be compared
by *congestion*, not just hop count — the quantitative backing for the
paper's topo-map optimization (section 3.5.3): mapping the MD rank grid
onto the torus keeps neighbor traffic on disjoint short paths, while a
random placement piles unrelated routes onto shared links.

A link is identified as ``(node_coord, axis, direction)`` — the egress
port used.  Each node has at most 10 ports (2 per torus axis of x, y,
z, b; 1 each for the mesh axes a, c), matching the hardware.

:func:`neighbor_traffic_pairs` and :func:`link_congestion` work on
``(N, 6)`` coordinate arrays and route :data:`CHUNK` messages per NumPy
pass, so the working set stays bounded at the paper's 147 456-rank job;
:func:`route` and :class:`Link` are the one-route-at-a-time oracle they
are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.machine.topology import (
    AXIS_NAMES,
    TOFU_CELL_SHAPE,
    TORUS_AXES,
    TofuCoord,
    TofuTopology,
)


#: messages routed per array pass (the 768-node figure takes two)
CHUNK = 1 << 15


@dataclass(frozen=True)
class Link:
    """One directed egress link: from ``node`` along ``axis`` toward ``direction``."""

    node: TofuCoord
    axis: int  # 0..5 = x y z a b c
    direction: int  # +1 or -1

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        sign = "+" if self.direction > 0 else "-"
        return f"{self.node}{sign}{AXIS_NAMES[self.axis]}"


def _axis_steps(src: int, dst: int, size: int, torus: bool) -> list[int]:
    """Per-hop directions along one axis (short way around on tori)."""
    if src == dst:
        return []
    fwd = (dst - src) % size
    back = (src - dst) % size
    if torus and size > 1:
        if fwd <= back:
            return [+1] * fwd
        return [-1] * back
    # Mesh: must go directly.
    step = 1 if dst > src else -1
    return [step] * abs(dst - src)


def route(topo: TofuTopology, src: TofuCoord, dst: TofuCoord) -> list[Link]:
    """The links of the dimension-order route from ``src`` to ``dst``."""
    for c in (src, dst):
        if not topo.contains(c):
            raise ValueError(f"coordinate {c} outside topology")
    links: list[Link] = []
    current = list(src.as_tuple())
    for axis in range(6):
        size = topo.full_shape[axis]
        for step in _axis_steps(current[axis], dst.as_tuple()[axis], size, TORUS_AXES[axis]):
            links.append(Link(TofuCoord(*current), axis, step))
            current[axis] = (current[axis] + step) % size
    assert tuple(current) == dst.as_tuple()
    return links


@dataclass
class CongestionReport:
    """Link-load statistics for a set of routed messages."""

    total_messages: int
    total_link_traversals: int
    max_link_load: int
    distinct_links: int

    @property
    def mean_hops(self) -> float:
        if self.total_messages == 0:
            return 0.0
        return self.total_link_traversals / self.total_messages

    @property
    def congestion(self) -> float:
        """Max over mean link load — 1.0 means perfectly spread."""
        if self.distinct_links == 0:
            return 0.0
        mean = self.total_link_traversals / self.distinct_links
        return self.max_link_load / mean if mean > 0 else 0.0


def _coords_for_virtual(v: np.ndarray) -> np.ndarray:
    """``(N, 3)`` virtual-grid nodes -> ``(N, 6)`` coordinates: the array
    form of :meth:`TofuTopology.coord_for_virtual`."""
    span = np.array(TOFU_CELL_SHAPE)
    cells, local = np.divmod(v, span)
    intra = np.where(cells % 2 == 0, local, span - 1 - local)  # serpentine
    return np.concatenate([cells, intra], axis=1)


def link_loads(topo: TofuTopology, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """How many of the ``(src[i], dst[i])`` routes cross each link.

    ``src`` and ``dst`` are ``(N, 6)`` coordinate arrays.  The routes are
    expanded :data:`CHUNK` at a time, axis by axis in the order
    :func:`route` walks them, and the chunks' loads add up.  Entry
    ``node_index * 12 + axis * 2 + (direction > 0)`` of the result is the
    load of the egress port :class:`Link` names.
    """
    src = np.asarray(src).reshape(-1, 6)
    dst = np.asarray(dst).reshape(-1, 6)
    shape = np.array(topo.full_shape)
    for c in (src, dst):
        if ((c < 0) | (c >= shape)).any():
            raise ValueError(f"coordinate outside topology {topo.full_shape}")
    strides = np.array([math.prod(topo.full_shape[k + 1:]) for k in range(6)])  # row-major
    loads = np.zeros(topo.node_count * 12, dtype=np.int64)
    for lo in range(0, len(src), CHUNK):
        chunk_src = src[lo : lo + CHUNK].astype(np.int64)
        chunk_dst = dst[lo : lo + CHUNK].astype(np.int64)
        node = chunk_src @ strides  # node index of each route's current hop
        for axis, (size, stride) in enumerate(zip(topo.full_shape, strides)):
            s, d = chunk_src[:, axis], chunk_dst[:, axis]
            fwd, back = (d - s) % size, (s - d) % size
            # torus: the short way round (ties go +); mesh: straight at dst
            up = (fwd <= back) if TORUS_AXES[axis] and size > 1 else (d >= s)
            hops = np.where(up, fwd, back)
            # hop j of a route leaves from coordinate s + j * step on this axis
            j = np.arange(hops.sum()) - np.repeat(np.cumsum(hops) - hops, hops)
            step = np.where(up, 1, -1)
            coord = (np.repeat(s, hops) + np.repeat(step, hops) * j) % size
            at = np.repeat(node - s * stride, hops) + coord * stride
            loads += np.bincount(at * 12 + axis * 2 + np.repeat(up, hops), minlength=loads.size)
            node += (d - s) * stride
    return loads


def link_congestion(
    topo: TofuTopology, src: np.ndarray, dst: np.ndarray
) -> CongestionReport:
    """Route every ``(src[i], dst[i])`` pair and report link-load statistics.

    Same-node pairs contribute zero links (NoC traffic, not network).
    """
    loads = link_loads(topo, src, dst)
    return CongestionReport(
        total_messages=len(src),
        total_link_traversals=int(loads.sum()),
        max_link_load=int(loads.max()),
        distinct_links=int(np.count_nonzero(loads)),
    )


def neighbor_traffic_pairs(
    topo_map, offsets: list[tuple[int, int, int]], placement: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)`` node coordinates, ``(N, 6)`` int16 each, of every
    rank's sends to ``offsets`` that leave the node (ranks in row-major
    order, offsets within a rank), built :data:`CHUNK` sends at a time.

    ``placement`` optionally remaps rank grid positions: rank ``i``
    (row-major) runs where rank ``placement[i]`` would, e.g. a random
    permutation modelling a topology-oblivious scheduler; ``None`` is the
    paper's topo map.
    """
    grid = np.array(topo_map.rank_grid)
    n_ranks = int(grid.prod())
    node = np.stack(np.unravel_index(np.arange(n_ranks), grid), axis=1)
    if placement is not None:
        node = node[placement]  # where each rank runs
    node = (node // topo_map.brick).astype(np.int16)
    src = np.empty((n_ranks * len(offsets), 6), dtype=np.int16)
    dst = np.empty_like(src)
    n = 0
    per_chunk = max(CHUNK // len(offsets), 1)
    for lo in range(0, n_ranks, per_chunk):
        ranks = np.arange(lo, min(lo + per_chunk, n_ranks))
        pos = np.stack(np.unravel_index(ranks, grid), axis=1)
        to = (pos[:, None, :] + np.array(offsets)[None, :, :]) % grid
        na = node[np.repeat(ranks, len(offsets))]
        nb = node[np.ravel_multi_index(to.reshape(-1, 3).T, grid)]
        off_node = (na != nb).any(axis=1)  # intra-node: no network links
        m = int(off_node.sum())
        src[n : n + m] = _coords_for_virtual(na[off_node])
        dst[n : n + m] = _coords_for_virtual(nb[off_node])
        n += m
    return src[:n], dst[:n]
