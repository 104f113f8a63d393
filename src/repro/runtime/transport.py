"""Mailbox transport between in-process ranks, with traffic accounting.

Functionally this is the MPI/uTofu data plane: rank A deposits a payload
addressed ``(dst, tag)``; rank B collects it with ``recv(src, tag)``.
Because the :class:`~repro.runtime.world.World` drives all ranks through
each program phase in lockstep, every send of a phase completes before any
receive of that phase — the same guarantee a correct two-sided exchange
or a fenced one-sided epoch provides.

Every send is also recorded in a :class:`TrafficLog`.  The log is how the
repository keeps itself honest: tests compare the *measured* message
counts and byte volumes of a functional ghost exchange against the
paper's Table 1 formulas, and the performance model prices logged traffic
with the network simulator instead of guessing.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.faults.injector import FAULTS, HOLD, REORDER
from repro.obs.metrics import METRICS, SIZE_BUCKETS
from repro.obs.trace import TRACER


class TransportError(RuntimeError):
    """Raised on protocol misuse (missing message, bad addressing)."""


class _Envelope:
    """Payload wrapper used while a fault session is active.

    The sequence number is assigned per mailbox ``(src, dst, tag)`` in
    send order; the receive path always pops the lowest sequence still
    waiting, which transparently restores injection order after a
    reorder fault or a late limbo release.
    """

    __slots__ = ("seq", "payload")

    def __init__(self, seq: int, payload: Any) -> None:
        self.seq = seq
        self.payload = payload


@dataclass(frozen=True)
class SentMessage:
    """Record of one logical message for accounting."""

    src: int
    dst: int
    tag: Hashable
    nbytes: int
    phase: str = ""


@dataclass
class TrafficLog:
    """Aggregated traffic statistics, queryable per phase and per pair.

    Every :class:`SentMessage` is retained until :meth:`clear` (long runs
    that never ask for per-message summaries clear once per step).  There
    is one accounting: per-phase, per-pair ``[count, bytes]`` rows folded
    *lazily* from the records appended since the last fold — on the first
    query after an append — so appending does no per-message work and
    every query below answers for everything retained.
    """

    messages: list[SentMessage] = field(default_factory=list)
    #: Monotonic run-lifetime totals: unlike the aggregates below they
    #: survive :meth:`clear` (per-step clearing), so the telemetry plane
    #: can delta them once per step without retaining records.
    grand_total_count: int = 0
    grand_total_bytes: int = 0
    #: ``phase -> {(src, dst): [count, bytes]}``.  Invariant: these rows
    #: account exactly for ``messages[:_folded]``; ``messages[_folded:]``
    #: is still to be folded.
    _phases: dict = field(default_factory=dict, repr=False)
    _folded: int = field(default=0, repr=False)

    def _fold(self) -> dict:
        """Fold the not-yet-accounted records in; return the aggregates."""
        phases = self._phases
        for m in self.messages[self._folded:]:
            pairs = phases.get(m.phase)
            if pairs is None:
                pairs = phases[m.phase] = {}
            row = pairs.get((m.src, m.dst))
            if row is None:
                pairs[(m.src, m.dst)] = [1, m.nbytes]
            else:
                row[0] += 1
                row[1] += m.nbytes
        self._folded = len(self.messages)
        return phases

    def record(self, msg: SentMessage) -> None:
        """Append one message record."""
        self.messages.append(msg)
        self.grand_total_count += 1
        self.grand_total_bytes += msg.nbytes

    def record_phase(self, msgs: list[SentMessage], nbytes: int) -> None:
        """Append one replayed phase's records; ``nbytes`` is their byte sum,
        precomputed with the list, so the log does no per-message work here."""
        self.messages.extend(msgs)
        self.grand_total_count += len(msgs)
        self.grand_total_bytes += nbytes

    def clear(self) -> None:
        """Drop all records (and aggregates)."""
        self.messages.clear()
        self._phases.clear()
        self._folded = 0

    # -- queries -----------------------------------------------------------
    def _rows(self, phase: str | None) -> Iterator[tuple[tuple[int, int], int, int]]:
        """``((src, dst), count, bytes)`` per phase and pair; a pair
        repeats once per phase when ``phase`` is ``None``."""
        phases = self._fold()
        selected = phases.values() if phase is None else [phases.get(phase, {})]
        for pairs in selected:
            for pair, (count, nbytes) in pairs.items():
                yield pair, count, nbytes

    def count(self, phase: str | None = None) -> int:
        """Message count, optionally filtered by phase."""
        return sum(count for _, count, _ in self._rows(phase))

    def total_bytes(self, phase: str | None = None) -> int:
        """Byte volume, optionally filtered by phase."""
        return sum(nbytes for _, _, nbytes in self._rows(phase))

    def count_by_rank(self, phase: str | None = None) -> dict[int, int]:
        """Send counts keyed by source rank."""
        out: dict[int, int] = defaultdict(int)
        for (src, _), count, _ in self._rows(phase):
            out[src] += count
        return dict(out)

    def pairs(self, phase: str | None = None) -> set[tuple[int, int]]:
        """Distinct (src, dst) pairs that communicated."""
        return {pair for pair, _, _ in self._rows(phase)}

    def summary(self, phase: str | None = None) -> "TrafficSummary":
        """One-call aggregate (counts, bytes, busiest pair) of a phase.

        The convenience figures and tests kept re-deriving by hand from
        ``log.messages``; also the unit the observability self-checks
        compare against the trace-recomputed account.
        """
        pair_bytes: dict[tuple[int, int], int] = defaultdict(int)
        count = 0
        for pair, n, nbytes in self._rows(phase):
            count += n
            pair_bytes[pair] += nbytes
        max_pair = max(pair_bytes, key=lambda p: (pair_bytes[p], p), default=None)
        return TrafficSummary(
            phase=phase,
            count=count,
            total_bytes=sum(pair_bytes.values()),
            pair_count=len(pair_bytes),
            max_pair=max_pair,
            max_pair_bytes=pair_bytes.get(max_pair, 0),
        )


@dataclass(frozen=True)
class TrafficSummary:
    """Aggregate view of one phase's traffic (or of the whole log)."""

    phase: str | None
    count: int
    total_bytes: int
    pair_count: int
    max_pair: tuple[int, int] | None
    max_pair_bytes: int


def payload_nbytes(payload: Any) -> int:
    """Best-effort byte size of a payload (ndarray-aware)."""
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, (tuple, list)):
        return sum(payload_nbytes(p) for p in payload)
    return 0


class Transport:
    """Point-to-point mailboxes for ``size`` ranks."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"world size must be >= 1, got {size}")
        self.size = size
        self._boxes: dict[tuple[int, int, Hashable], deque[Any]] = defaultdict(deque)
        self._seq: dict[tuple[int, int, Hashable], int] = defaultdict(int)
        self.log = TrafficLog()
        self.phase = ""

    def set_phase(self, phase: str) -> None:
        """Label subsequent traffic (border/forward/reverse/...)."""
        self.phase = phase

    def _check_rank(self, rank: int, what: str) -> None:
        if not 0 <= rank < self.size:
            raise TransportError(f"{what} rank {rank} out of range [0, {self.size})")

    def send(self, src: int, dst: int, tag: Hashable, payload: Any) -> None:
        """Deposit ``payload`` for ``dst``; completes immediately.

        Self-sends are allowed (a rank that is its own periodic neighbor
        on a 1-wide decomposition still runs the exchange protocol).
        """
        self._check_rank(src, "source")
        self._check_rank(dst, "destination")
        key = (src, dst, tag)
        session = FAULTS.session
        if session is None or not session.message_faults:
            self._boxes[key].append(payload)
        else:
            # Envelope every message while message faults are armed so
            # the receive path can restore send order after faults.
            seq = self._seq[key]
            self._seq[key] = seq + 1
            env = _Envelope(seq, payload)
            verdict = session.on_send(src, dst, tag, self.phase)
            if verdict is None:
                self._boxes[key].append(env)
            elif verdict[0] == HOLD:
                session.hold(key, seq, payload, verdict[1], verdict[2])
            elif verdict[0] == REORDER:
                box = self._boxes[key]
                box.insert(session.rng.randrange(len(box) + 1), env)
                session.note_reorder(key)
            else:  # pragma: no cover - defensive
                raise TransportError(f"unknown fault verdict {verdict!r}")
        nbytes = payload_nbytes(payload)
        self.log.record(SentMessage(src, dst, tag, nbytes, self.phase))
        if TRACER.enabled:
            TRACER.instant(
                "msg",
                cat="msg",
                track=f"rank{src}",
                src=src,
                dst=dst,
                phase=self.phase,
                nbytes=nbytes,
                tag=repr(tag),
            )
        if METRICS.enabled:
            METRICS.counter("messages_total", phase=self.phase).inc()
            METRICS.histogram("message_size_bytes", buckets=SIZE_BUCKETS).observe(nbytes)

    def send_fast(
        self, src: int, dst: int, tag: Hashable, payload: Any, nbytes: int
    ) -> None:
        """Envelope-free send: deposit + traffic record, nothing else.

        For callers that guarantee no message/RDMA fault is armed and
        tracing/metrics are disabled, and know the payload byte size —
        the rank checks, fault envelopes and per-message observability
        of :meth:`send` are all skipped.  ``payload`` may be a zero-copy
        view of a pooled buffer.  (The exchange's direct plane no longer
        round-trips through the mailbox at all; this pair stays because
        the perf ledger's traced pass shadows both by name.)
        """
        self._boxes[(src, dst, tag)].append(payload)
        self.log.record(SentMessage(src, dst, tag, nbytes, self.phase))

    def recv_fast(self, dst: int, src: int, tag: Hashable) -> Any:
        """Hot-path receive pairing :meth:`send_fast` (no fault session)."""
        box = self._boxes.get((src, dst, tag))
        if not box:
            raise TransportError(
                f"rank {dst} has no message from {src} with tag {tag!r} "
                f"(phase {self.phase!r})"
            )
        payload = box.popleft()
        if type(payload) is _Envelope:  # pragma: no cover - defensive
            payload = payload.payload
        return payload

    @staticmethod
    def _take(box: deque) -> Any:
        """Pop the next message: FIFO for plain payloads, min-seq for
        envelopes (restores send order after reorder/limbo release)."""
        head = box[0]
        if not isinstance(head, _Envelope):
            return box.popleft()
        best = min(range(len(box)), key=lambda i: box[i].seq)
        env = box[best]
        del box[best]
        return env.payload

    def recv(self, dst: int, src: int, tag: Hashable) -> Any:
        """Collect the oldest matching message; raises if none is waiting."""
        self._check_rank(dst, "destination")
        self._check_rank(src, "source")
        box = self._boxes.get((src, dst, tag))
        if not box:
            raise TransportError(
                f"rank {dst} has no message from {src} with tag {tag!r} "
                f"(phase {self.phase!r})"
            )
        payload = self._take(box)
        self._note_recv(src, dst)
        return payload

    def try_recv(self, dst: int, src: int, tag: Hashable) -> Any | None:
        """Like :meth:`recv` but returns ``None`` when nothing is waiting."""
        box = self._boxes.get((src, dst, tag))
        if not box:
            return None
        payload = self._take(box)
        self._note_recv(src, dst)
        return payload

    def _note_recv(self, src: int, dst: int) -> None:
        """Record a delivery as a trace instant (the race detector's
        message-synchronization edge from ``src`` to ``dst``)."""
        if TRACER.enabled:
            TRACER.instant(
                "recv", cat="recv", track=f"rank{dst}",
                src=src, dst=dst, phase=self.phase,
            )

    def fault_poll(self, dst: int, src: int, tag: Hashable) -> None:
        """One retry poll: age this mailbox's limbo, redeliver releases.

        Called by the robust receive between backoff attempts; a no-op
        without an active fault session.
        """
        session = FAULTS.session
        if session is None:
            return
        key = (src, dst, tag)
        released = session.tick(key)
        if released:
            box = self._boxes[key]
            for seq, payload in released:
                box.append(_Envelope(seq, payload))

    def purge(self) -> int:
        """Drop all undelivered messages and reset sequence counters.

        Used by the degradation ladder: after a tier change the exchange
        protocol restarts from scratch, so in-flight traffic of the
        abandoned attempt must not leak into :meth:`assert_drained`.
        """
        dropped = self.pending_count()
        self._boxes.clear()
        self._seq.clear()
        return dropped

    def pending_count(self) -> int:
        """Messages deposited but not yet received."""
        return sum(len(b) for b in self._boxes.values())

    def assert_drained(self) -> None:
        """Protocol check: no message may be left behind after a step."""
        pending = self.pending_count()
        if pending:
            stuck = [k for k, b in self._boxes.items() if b]
            raise TransportError(
                f"{pending} undelivered message(s) left in transport: {stuck[:8]}"
            )
