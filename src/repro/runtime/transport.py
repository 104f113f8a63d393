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

    By default every :class:`SentMessage` is retained (the seed
    behavior).  Long production runs can instead bound the record list
    with :meth:`set_window`: the log keeps a rolling window of the most
    recent messages while *exact* per-phase aggregates (counts, bytes,
    per-pair bytes, per-source counts) are maintained incrementally, so
    every query below still answers for the whole run.
    """

    messages: list[SentMessage] = field(default_factory=list)
    max_messages: int | None = None
    #: Monotonic run-lifetime totals: unlike the aggregates below they
    #: survive :meth:`clear` (per-step clearing), so the telemetry plane
    #: can delta them once per step without retaining records.
    grand_total_count: int = 0
    grand_total_bytes: int = 0
    _phase_count: dict = field(default_factory=dict, repr=False)
    _phase_bytes: dict = field(default_factory=dict, repr=False)
    _phase_pair_bytes: dict = field(default_factory=dict, repr=False)
    _phase_src_count: dict = field(default_factory=dict, repr=False)

    def set_window(self, max_messages: int | None) -> None:
        """Bound the retained record list to a rolling window.

        Aggregates are (re)built from the currently retained messages;
        call this before traffic of interest starts (the usual place is
        simulation setup).  ``None`` restores unbounded retention.
        """
        self.max_messages = max_messages
        self._phase_count.clear()
        self._phase_bytes.clear()
        self._phase_pair_bytes.clear()
        self._phase_src_count.clear()
        if max_messages is not None:
            for m in self.messages:
                self._aggregate(m)
            self._trim()

    def _aggregate(self, msg: SentMessage) -> None:
        phase = msg.phase
        self._phase_count[phase] = self._phase_count.get(phase, 0) + 1
        self._phase_bytes[phase] = self._phase_bytes.get(phase, 0) + msg.nbytes
        pair_bytes = self._phase_pair_bytes.setdefault(phase, {})
        pair = (msg.src, msg.dst)
        pair_bytes[pair] = pair_bytes.get(pair, 0) + msg.nbytes
        src_count = self._phase_src_count.setdefault(phase, {})
        src_count[msg.src] = src_count.get(msg.src, 0) + 1

    def _trim(self) -> None:
        # Amortized O(1): trim in chunks once the list doubles the window.
        assert self.max_messages is not None
        if len(self.messages) > 2 * self.max_messages:
            del self.messages[: len(self.messages) - self.max_messages]

    def record(self, msg: SentMessage) -> None:
        """Append one message record."""
        self.messages.append(msg)
        self.grand_total_count += 1
        self.grand_total_bytes += msg.nbytes
        if self.max_messages is not None:
            self._aggregate(msg)
            self._trim()

    def record_phase(self, msgs: list[SentMessage], nbytes: int) -> None:
        """Append one replayed phase's records; ``nbytes`` is their byte
        sum, precomputed with the list, so an unbounded log does no
        per-message work (a windowed one aggregates each record)."""
        if self.max_messages is not None:
            for m in msgs:
                self.record(m)
            return
        self.messages.extend(msgs)
        self.grand_total_count += len(msgs)
        self.grand_total_bytes += nbytes

    def clear(self) -> None:
        """Drop all records (and aggregates)."""
        self.messages.clear()
        self._phase_count.clear()
        self._phase_bytes.clear()
        self._phase_pair_bytes.clear()
        self._phase_src_count.clear()

    # -- queries -----------------------------------------------------------
    def count(self, phase: str | None = None) -> int:
        """Message count, optionally filtered by phase."""
        if self.max_messages is not None:
            if phase is None:
                return sum(self._phase_count.values())
            return self._phase_count.get(phase, 0)
        return sum(1 for m in self.messages if phase is None or m.phase == phase)

    def total_bytes(self, phase: str | None = None) -> int:
        """Byte volume, optionally filtered by phase."""
        if self.max_messages is not None:
            if phase is None:
                return sum(self._phase_bytes.values())
            return self._phase_bytes.get(phase, 0)
        return sum(m.nbytes for m in self.messages if phase is None or m.phase == phase)

    def count_by_rank(self, phase: str | None = None) -> dict[int, int]:
        """Send counts keyed by source rank."""
        out: dict[int, int] = defaultdict(int)
        if self.max_messages is not None:
            for ph, src_count in self._phase_src_count.items():
                if phase is None or ph == phase:
                    for src, n in src_count.items():
                        out[src] += n
            return dict(out)
        for m in self.messages:
            if phase is None or m.phase == phase:
                out[m.src] += 1
        return dict(out)

    def pairs(self, phase: str | None = None) -> set[tuple[int, int]]:
        """Distinct (src, dst) pairs that communicated."""
        if self.max_messages is not None:
            out: set[tuple[int, int]] = set()
            for ph, pair_bytes in self._phase_pair_bytes.items():
                if phase is None or ph == phase:
                    out.update(pair_bytes)
            return out
        return {
            (m.src, m.dst)
            for m in self.messages
            if phase is None or m.phase == phase
        }

    def summary(self, phase: str | None = None) -> "TrafficSummary":
        """One-call aggregate (counts, bytes, busiest pair) of a phase.

        The convenience figures and tests kept re-deriving by hand from
        ``log.messages``; also the unit the observability self-checks
        compare against the trace-recomputed account.
        """
        pair_bytes: dict[tuple[int, int], int] = defaultdict(int)
        count = 0
        total = 0
        if self.max_messages is not None:
            for ph, pb in self._phase_pair_bytes.items():
                if phase is not None and ph != phase:
                    continue
                for pair, nbytes in pb.items():
                    pair_bytes[pair] += nbytes
            count = self.count(phase)
            total = self.total_bytes(phase)
        else:
            for m in self.messages:
                if phase is not None and m.phase != phase:
                    continue
                count += 1
                total += m.nbytes
                pair_bytes[(m.src, m.dst)] += m.nbytes
        max_pair: tuple[int, int] | None = None
        max_pair_bytes = 0
        if pair_bytes:
            max_pair = max(pair_bytes, key=lambda p: (pair_bytes[p], p))
            max_pair_bytes = pair_bytes[max_pair]
        return TrafficSummary(
            phase=phase,
            count=count,
            total_bytes=total,
            pair_count=len(pair_bytes),
            max_pair=max_pair,
            max_pair_bytes=max_pair_bytes,
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
