"""Per-rank dicts for the exchange's world-array scalar phases (tests only)."""

from __future__ import annotations

import numpy as np


def scalar_phase(phase, arrays: dict[int, np.ndarray]) -> None:
    """Run ``phase`` — a bound ``forward_scalar_world`` /
    ``reverse_sum_scalar_world`` — over ``{rank: one value per atom of the
    rank}``: spread onto one per-arena-row array, run, copy back in place."""
    arena = phase.__self__.arena
    values = np.zeros(arena.rows)
    slabs = {
        rank: values[atoms.start : atoms.start + atoms.ntotal]
        for rank, atoms in enumerate(arena.members)
    }
    for rank, array in arrays.items():
        slabs[rank][...] = array
    phase(values)
    for rank, array in arrays.items():
        array[...] = slabs[rank]
