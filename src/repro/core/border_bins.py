"""Border bins: O(1) neighbor targeting for border atoms (section 3.5.2).

Deciding which neighbors need a given border atom naively tests the atom
against up to 26 ghost regions.  The paper instead cuts each sub-box at
distance ``r_comm`` from its faces, classifies every atom once, and lets
a precomputed class -> neighbor-list table finish the job.

Exactness (why the class is six flags, not one of 27 bins).  For shell
radius 1, :meth:`repro.md.region.SubBox.border_mask` ``(x, o, r)`` is the
AND over axes ``k`` of ``x_k >= hi_k - r`` (``o_k = +1``),
``x_k < lo_k + r`` (``o_k = -1``), *true* (``o_k = 0``): six independent
flags per atom, and a neighbor needs the atom iff every flag its offset
requires is set.  A ternary digit per axis (low border / interior / high
border — the 3x3x3 picture) folds the two flags of an axis into one and
loses the atoms that sit in *both* borders, which exist as soon as
``r > a/2`` — the strong-scaling limit the paper is about.  Six bits lose
nothing for any ``r <= a``, so the 64-code membership table below
reproduces the 13/26 brute-force sweeps bit for bit there, order
included: ``np.nonzero`` of the (neighbor, atom) membership matrix is
row-major, i.e. neighbor-major with atoms ascending — exactly the order
successive ``np.flatnonzero(border_mask(...))`` calls concatenate in.

The table depends on the send offsets only, so one classifier holds every
rank's sub-box edges and routes the whole world in one pass: each rank's
local atoms are a row of a padded ``(ranks, width)`` block, and the C
order of the ``(rank, neighbor, atom)`` membership array is rank-major,
then the per-rank order above.

Tests verify it against the brute-force region test on random atoms,
including ``r`` in ``(a/2, a]`` and atoms exactly on the thresholds.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.md.region import SubBox

_AXIS_WEIGHTS = np.array([1, 2, 4], dtype=np.uint8)
#: the code of a padding row: no neighbor takes it
_EMPTY = 64
#: 3x3x3 bin id of each six-bit code: digit_k = 1 - low_k + high_k.
_BIN_OF_CODE = np.array(
    [
        sum(3**k * (1 - (code >> k & 1) + (code >> (3 + k) & 1)) for k in range(3))
        for code in range(64)
    ],
    dtype=np.intp,
)


class BorderBins:
    """Six-flag classification of one sub-box — or of every rank's at
    once — for border-atom routing.

    Parameters
    ----------
    sub_boxes:
        This rank's sub-box, or every rank's in rank order (the world
        classifier of :meth:`route_world`).
    rcomm:
        Ghost-shell thickness (cutoff + skin).  Must not exceed any
        sub-box edge — beyond that a radius-1 shell no longer covers the
        cutoff (that long-cutoff regime routes via the generic region
        test instead).
    send_offsets:
        Neighbor offsets (components in ``{-1, 0, +1}``) a rank *sends
        border atoms to* — the same for every rank, so the membership
        table is shared.
    """

    def __init__(
        self,
        sub_boxes: SubBox | Sequence[SubBox],
        rcomm: float,
        send_offsets: list[tuple[int, int, int]],
    ) -> None:
        boxes = [sub_boxes] if isinstance(sub_boxes, SubBox) else list(sub_boxes)
        if rcomm <= 0:
            raise ValueError(f"rcomm must be positive, got {rcomm}")
        for box in boxes:
            if np.any(rcomm > box.lengths):
                raise ValueError(
                    f"rcomm {rcomm} exceeds sub-box lengths {tuple(box.lengths)}; "
                    "border bins require sub-boxes wider than the shell"
                )
        self.sub_boxes = boxes
        self.rcomm = rcomm
        self.send_offsets = list(send_offsets)
        # The same float expressions border_mask compares against, one
        # row per sub-box.
        self._low_edge = np.array([np.asarray(box.lo) + rcomm for box in boxes])
        self._high_edge = np.array([np.asarray(box.hi) - rcomm for box in boxes])
        # Neighbor x code membership (neighbor-major so a nonzero comes
        # out in send-offset order): code bit k = low flag of axis k,
        # bit 3+k = high flag.  A neighbor takes a code iff the code
        # carries every flag its offset requires; no neighbor takes
        # _EMPTY, the code of a padding row.
        required = np.array(
            [
                sum(1 << (k if o < 0 else 3 + k) for k, o in enumerate(off) if o)
                for off in self.send_offsets
            ],
            dtype=np.uint8,
        )
        codes = np.arange(64, dtype=np.uint8)
        self._table = np.zeros((len(self.send_offsets), _EMPTY + 1), dtype=bool)
        self._table[:, :64] = (codes & required[:, None]) == required[:, None]

    def code_of(self, x: np.ndarray) -> np.ndarray:
        """Six-bit border code per position: bit ``k`` set when within
        ``rcomm`` of the low face of axis ``k``, bit ``3 + k`` of the high
        face (two comparisons per axis, no branching).

        ``x`` is ``(n, 3)`` positions in the one sub-box, or ``(boxes,
        width, 3)``: row ``b`` of it compared against sub-box ``b``.
        """
        x = np.atleast_2d(x)
        low, high = self._low_edge, self._high_edge
        if x.ndim == 3:
            low, high = low[:, None], high[:, None]
        elif len(self.sub_boxes) > 1:
            raise ValueError("(n, 3) positions need a one-box BorderBins")
        code: np.ndarray = (x < low) @ _AXIS_WEIGHTS
        code |= ((x >= high) @ _AXIS_WEIGHTS) << 3
        return code

    def bin_of(self, x: np.ndarray) -> np.ndarray:
        """The paper's 3x3x3 bin id per position (one ternary digit per
        axis: 0 low border / 1 interior / 2 high border).

        A projection of :meth:`code_of` kept for illustration: an atom in
        both borders of an axis (``rcomm > edge/2``) has no ternary
        digit and reads as interior, which is why routing uses the codes.
        """
        bins: np.ndarray = _BIN_OF_CODE[self.code_of(x)]
        return bins

    def route_world(self, x: np.ndarray, nlocal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(idx, counts)`` for every sub-box at once: box ``b``'s atoms
        are ``x[b, :nlocal[b]]`` (rows past that are padding, never
        routed).  ``idx`` holds row numbers within a box, box-major, then
        send-offset-major, rows ascending — box ``b``'s block is what the
        13/26 ``np.flatnonzero(border_mask(...))`` sweeps over its atoms
        concatenate to; ``counts[b, n]`` is how many neighbor ``n`` gets.

        One classification and one ``flatnonzero`` over a ``(boxes,
        neighbors, width)`` membership array, whose C order is that order.
        """
        boxes, width = x.shape[:2]
        code = self.code_of(x)
        code[np.arange(width) >= np.asarray(nlocal)[:, None]] = _EMPTY
        # (neighbors, boxes, width) -> box-major, flattened in C order
        flat = np.flatnonzero(self._table[:, code].transpose(1, 0, 2))
        sends = len(self.send_offsets)
        counts = np.bincount(flat // width, minlength=boxes * sends)
        return flat % width, counts.reshape(boxes, sends)

    def route_flat(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(idx, counts)``: the rows of ``x`` every neighbor needs,
        concatenated in send-offset order (rows ascending within a
        neighbor), and how many each neighbor gets — :meth:`route_world`
        of a one-box classifier."""
        x = np.atleast_2d(x)
        idx, counts = self.route_world(x[None], np.array([x.shape[0]]))
        return idx, counts[0]

    def route(self, x: np.ndarray) -> list[np.ndarray]:
        """Index arrays of ``x`` to send to each neighbor (views of
        :meth:`route_flat`'s ``idx``), equal to the brute-force
        ``border_mask`` sweeps for every ``rcomm`` the constructor accepts."""
        idx, counts = self.route_flat(x)
        return np.split(idx, np.cumsum(counts)[:-1])
