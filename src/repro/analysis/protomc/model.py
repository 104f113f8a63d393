"""Communication-protocol model: per-rank op programs + channel semantics.

A :class:`CommModel` is the explicit-state-checkable abstraction of one
scenario's communication schedule: every rank runs a straight-line
program of :class:`Op`s (sends, recvs, fences) against per-route FIFO
channels.  The semantics mirror the repo's exchange discipline:

* **send** is non-blocking — an RDMA PUT lands in the remote ring
  whether or not the receiver has drained it (the section 3.4 hazard;
  buffer pressure is property P3's job, not a send-side block);
* **recv** blocks until the *head* of its ``(src, dst)`` channel carries
  the expected tag — or, under a reorder fault plane
  (``reorder=True``), until *any* in-flight entry matches;
* **fence** is a global barrier over every rank whose program contains
  the same fence tag (the 3-stage dimension barrier, the RDMA
  end-of-stage fence).

The checker (:mod:`repro.analysis.protomc.checker`) explores
interleavings of these programs; the extractor
(:mod:`repro.analysis.protomc.extract`) builds them from scenarios,
:class:`~repro.analysis.commlint.CommProfile`\\ s, or live exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

SEND = "send"
RECV = "recv"
FENCE = "fence"

#: The four verified properties, in severity order.
PROPERTIES: dict[str, str] = {
    "P1": "deadlock freedom: no reachable state blocks every rank on recv/fence",
    "P2": "no message leaks: every posted send is consumed before step end",
    "P3": "buffer safety: per-route in-flight load never exceeds ring capacity",
    "P4": "ladder termination: the degradation ladder is a well-founded descent",
}


@dataclass(frozen=True)
class Op:
    """One protocol action of one rank's straight-line program."""

    kind: str  # SEND | RECV | FENCE
    rank: int
    peer: int = -1  # destination (send) / source (recv); -1 for fences
    tag: tuple = ()  # message tag (send/recv) or barrier tag (fence)
    stage: str = ""  # borders | forward | reverse (provenance for traces)
    atoms: int = 0  # modeled payload (atom count) for buffer accounting

    def render(self) -> str:
        """Human-readable trace line, e.g. ``r3 send->r5 ('fwd', (1, 0, 0))``."""
        if self.kind == FENCE:
            return f"r{self.rank} fence {self.tag}"
        arrow = f"->r{self.peer}" if self.kind == SEND else f"<-r{self.peer}"
        return f"r{self.rank} {self.kind}{arrow} {self.tag}"


@dataclass(frozen=True)
class CommModel:
    """One scenario's communication state machine, ready to check.

    ``programs[r]`` is rank ``r``'s op sequence.  ``ring_depth`` and
    ``slot_atoms`` carry the pooled GhostBudget sizing P3 checks
    against: each in-flight message occupies one ring slot of
    ``slot_atoms`` capacity.  ``ladder`` is the degradation chain P4
    checks for well-foundedness (tier names, first = starting pattern).
    """

    label: str
    n_ranks: int
    programs: tuple[tuple[Op, ...], ...]
    ring_depth: int = 4
    slot_atoms: int = 0
    #: True when the RDMA ring plane is in use: reverse payloads recycle
    #: through ``ring_depth``-deep per-peer rings (the §3.4 hazard), so
    #: P3 bounds per-route in-flight load by ``ring_depth``.  False on
    #: the message transport, where the pool dedicates one slot per
    #: tagged message and the bound is the per-route tag count.
    rings: bool = False
    reorder: bool = False
    ladder: tuple[str, ...] = ()
    max_retries: int = 8
    #: fence tag -> frozenset of participating ranks (derived; cached here
    #: so mutations that edit programs keep participants consistent).
    fence_ranks: dict[tuple, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.programs) != self.n_ranks:
            raise ValueError(
                f"{self.label}: {len(self.programs)} programs for "
                f"{self.n_ranks} ranks"
            )
        if not self.fence_ranks:
            ranks_of: dict[tuple, set[int]] = {}
            for rank, program in enumerate(self.programs):
                for op in program:
                    if op.kind == FENCE:
                        ranks_of.setdefault(op.tag, set()).add(rank)
            object.__setattr__(
                self,
                "fence_ranks",
                {tag: frozenset(ranks) for tag, ranks in ranks_of.items()},
            )

    def with_programs(
        self, programs: tuple[tuple[Op, ...], ...], label: str | None = None
    ) -> CommModel:
        """A copy with replaced programs (fence participants re-derived)."""
        return replace(
            self,
            programs=programs,
            label=label or self.label,
            fence_ranks={},
        )
