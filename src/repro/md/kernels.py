"""Vectorized scatter-accumulation kernels for the force loops.

``np.add.at`` is the obvious way to scatter per-pair forces onto atoms,
but it dispatches through the slow buffered-ufunc path; ``np.bincount``
with weights does the same reduction ~5x faster (a standard NumPy
hot-path trick — see the HPC-Python guides on vectorizing the inner
loop).  All force kernels route through these helpers so the whole
engine benefits and the accumulation order is consistent everywhere
(bit-identical results between the serial reference and every parallel
path require *one* summation strategy).
"""

from __future__ import annotations

import numpy as np


def scatter_signed_vec(
    out: np.ndarray, idx: np.ndarray, vec: np.ndarray, sign: int
) -> None:
    """``out[idx] += sign * vec`` for (N, 3) arrays, bincount-accelerated.

    The one signed reduction the serial and three-body force kernels
    share; ``sign`` must be ``+1`` or ``-1``.  The add and
    subtract branches are kept literal (``+=`` / ``-=``) so results stay
    bit-identical to accumulating the un-negated weights directly.
    """
    if idx.size == 0:
        return
    n = out.shape[0]
    if sign >= 0:
        for k in range(out.shape[1]):
            out[:, k] += np.bincount(idx, weights=vec[:, k], minlength=n)
    else:
        for k in range(out.shape[1]):
            out[:, k] -= np.bincount(idx, weights=vec[:, k], minlength=n)


def scatter_add_vec(out: np.ndarray, idx: np.ndarray, vec: np.ndarray) -> None:
    """``out[idx] += vec`` for (N, 3) arrays, bincount-accelerated."""
    scatter_signed_vec(out, idx, vec, 1)


def scatter_sub_vec(out: np.ndarray, idx: np.ndarray, vec: np.ndarray) -> None:
    """``out[idx] -= vec`` for (N, 3) arrays."""
    scatter_signed_vec(out, idx, vec, -1)


def scatter_add_scalar(out: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """``out[idx] += values`` for 1-D arrays (EAM density accumulation)."""
    if idx.size == 0:
        return
    out += np.bincount(idx, weights=values, minlength=out.shape[0])


def pair_deltas(
    xT: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray, out: np.ndarray
) -> None:
    """``out[k] = xT[k][pair_i] - xT[k][pair_j]`` for k = 0..2.

    ``xT`` is a contiguous ``(3, N)`` position array, ``out`` ``(4, P)``
    scratch: rows 0..2 receive the separation components, row 3 is used
    as the gather temporary (and is free afterwards).
    """
    tmp = out[3]
    for k in range(3):
        np.take(xT[k], pair_i, out=out[k], mode="clip")
        np.take(xT[k], pair_j, out=tmp, mode="clip")
        np.subtract(out[k], tmp, out=out[k])


def r2_from_deltas(d: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Squared length of each separation: ``out = (dx*dx + dz*dz) + dy*dy``.

    The association is load-bearing.  It is exactly what
    ``np.einsum("ij,ij->i", d, d)`` — the previous spelling, still the
    oracle under ``tests/md`` — evaluates per row on this NumPy (2.x),
    independent of row count and alignment; the plain ``x*x + y*y + z*z``
    differs in the last bit for about a quarter of all rows, which would
    flip cutoff decisions and every downstream sum.  Write it once, here.
    """
    np.multiply(d[0], d[0], out=out)
    np.multiply(d[2], d[2], out=tmp)
    np.add(out, tmp, out=out)
    np.multiply(d[1], d[1], out=tmp)
    np.add(out, tmp, out=out)


def scatter_pair_forces(
    f: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    fpair: np.ndarray,
    d: np.ndarray,
    tmp: np.ndarray,
    half_list: bool,
) -> None:
    """``f[i] += fpair * d`` and, for a half list, ``f[j] -= fpair * d``.

    ``d`` is ``(3, P)``; each component's ``fpair * d[k]`` is formed once
    in contiguous ``tmp`` and fed to ``bincount``.  Per atom row the sum
    is ``(f + S_i) - S_j`` with both partial sums in pair order — the
    order :func:`scatter_add_vec` then :func:`scatter_sub_vec` produce.
    """
    n = f.shape[0]
    for k in range(3):
        np.multiply(fpair, d[k], out=tmp)
        f[:, k] += np.bincount(pair_i, weights=tmp, minlength=n)
        if half_list:
            f[:, k] -= np.bincount(pair_j, weights=tmp, minlength=n)
