"""Message-level network simulation.

The simulator answers: *given this set of messages, injected by these
threads through these TNIs under this software stack, when does the last
byte arrive?*  It models exactly the effects the paper's analysis
(section 3.1) is built on:

* **Injection serialization** — a thread injects messages one at a time;
  each injection consumes the stack's ``T_inj`` of CPU.  A single thread
  hopping between several VCQs additionally pays a VCQ-switch cost (the
  "software function call" overhead the paper blames for 6TNI-single
  being slow).
* **TNI engine serialization** — all CQs of a TNI share one
  message-processing engine (Fig. 7), so messages from different ranks or
  threads that land on the same TNI queue up; the engine holds a message
  for its serialization time (with a small floor for tiny messages).
* **Pipelined transfer** — the wire time of a message overlaps both the
  sender's subsequent injections and other TNIs' work; per section 3.1,
  transmission is fully pipelined so hop latency is additive but
  serialization is paid once.

Two pricers:

* :func:`simulate_round`, the event loop — one bulk-synchronous round,
  message by message.  It is the reference the other pricer is tested
  against, and the only path for observers (tracer, metrics, sessions
  with timing faults), which need its per-message events.
  :class:`NetworkSimulator` composes it into staged patterns (the
  3-stage exchange) with inter-stage barriers.
* :func:`simulate_rounds`, the world pass — many independent rounds in
  one vector pass, bit-identical to the event loop row by row for every
  round shape: streams sharing a TNI engine, VCQ switches and
  two-message protocols included.  It refuses only observers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.faults.injector import FAULTS
from repro.machine.params import FUGAKU, MachineParams
from repro.network.stacks import SoftwareStack, UtofuStack
from repro.obs.metrics import HOP_BUCKETS, METRICS
from repro.obs.trace import TRACER


@dataclass(frozen=True)
class Message:
    """One logical message to be delivered.

    ``rank``/``thread`` identify the injecting context (threads of the
    same rank run on different cores, so distinct ``(rank, thread)`` pairs
    inject in parallel); ``tni`` is the network interface used.
    """

    nbytes: int
    hops: int = 1
    rank: int = 0
    thread: int = 0
    tni: int = 0
    known_length: bool = True

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"negative message size {self.nbytes}")
        if self.hops < 0:
            raise ValueError(f"negative hop count {self.hops}")


@dataclass
class RoundResult:
    """Timing of one communication round."""

    completion_time: float
    last_injection: float
    arrivals: list[float] = field(default_factory=list)
    wire_messages: int = 0

    @property
    def message_count(self) -> int:
        return len(self.arrivals)

    def message_rate(self) -> float:
        """Delivered logical messages per second."""
        if self.completion_time <= 0:
            return float("inf")
        return self.message_count / self.completion_time

    def bandwidth(self, payload_bytes: int) -> float:
        """Achieved payload bandwidth for this round."""
        if self.completion_time <= 0:
            return float("inf")
        return payload_bytes / self.completion_time


def simulate_round(
    messages: list[Message],
    stack: SoftwareStack,
    params: MachineParams = FUGAKU,
    start_time: float = 0.0,
    msg_base: int = 0,
    stage: int = 0,
) -> RoundResult:
    """Simulate one round of message injections: the event loop.

    Messages are processed in list order per thread (the order the code
    would issue them); different threads proceed concurrently from
    ``start_time``, and every TNI engine starts the round idle.  This is
    the reference every vectorized pricer is tested against, and the one
    path that serves observers (tracer, metrics, fault sessions).

    ``msg_base``/``stage`` give trace spans their provenance: every
    inject/queue/tni-engine/wire segment of logical message *i* carries
    ``msg=msg_base+i`` and its wire-segment index ``seg``, so
    :mod:`repro.obs.critpath` can reassemble the dependency chain.
    """
    clocks: dict[tuple[int, int], float] = {}
    free: dict[int, float] = {}  # per-TNI engine horizon
    last_vcq: dict[tuple[int, int], int] = {}

    arrivals: list[float] = []
    last_injection = start_time
    wire_messages = 0

    trace_on = TRACER.enabled
    metrics_on = METRICS.enabled
    session = FAULTS.session
    # A round from time zero gets its own base on the simulated timeline;
    # a later stage of a staged pattern reuses the current one.
    if not trace_on:
        base = 0.0
    elif start_time == 0.0:
        base = TRACER.begin_model_round()
    else:
        base = TRACER.model_offset

    for msg_idx, msg in enumerate(messages):
        key = (msg.rank, msg.thread)
        clock = clocks.get(key, start_time)
        msg_id = msg_base + msg_idx

        n_wire = stack.protocol_message_count(msg.nbytes, msg.known_length)
        wire_messages += n_wire

        if metrics_on:
            METRICS.histogram("message_hops", buckets=HOP_BUCKETS).observe(msg.hops)
        if trace_on:
            injector = f"rank{msg.rank}/thr{msg.thread}"

        # VCQ switch: a thread moving to a different TNI's VCQ pays extra
        # software overhead (descriptor cache, function-call chain).
        if last_vcq.get(key, msg.tni) != msg.tni:
            if trace_on:
                TRACER.add_model_span(
                    "vcq-switch", base + clock, params.vcq_switch_overhead,
                    cat="vcq", track=injector, tni=msg.tni, msg=msg_id, stage=stage,
                )
            clock += params.vcq_switch_overhead
        last_vcq[key] = msg.tni

        arrival = clock
        for i in range(n_wire):
            # A length-prefix protocol message is tiny; the payload is last.
            nbytes = 8 if (n_wire > 1 and i < n_wire - 1) else msg.nbytes

            if session is not None:
                # Timing faults delay the injector before the descriptor
                # is written; each fault span ends exactly where the
                # inject span starts so the critical-path chain stays
                # contiguous (partition exactness).
                wait = session.vcq_credit_wait(msg.rank, msg.thread, msg.tni)
                if wait > 0.0:
                    if trace_on:
                        TRACER.add_model_span(
                            "vcq-credit", base + clock, wait,
                            cat="fault", track=injector, tni=msg.tni,
                            msg=msg_id, seg=i, stage=stage,
                        )
                    clock += wait
                jitter = session.injection_jitter(msg.rank, msg.thread, msg.tni)
                if jitter > 0.0:
                    if trace_on:
                        TRACER.add_model_span(
                            "inject-jitter", base + clock, jitter,
                            cat="fault", track=injector, tni=msg.tni,
                            msg=msg_id, seg=i, stage=stage,
                        )
                    clock += jitter

            inj_start = clock
            clock += stack.injection_interval(nbytes)
            inject_time = clock

            serial = max(nbytes / params.link_bandwidth, params.tni_engine_message_time)
            # A stalled TNI engine holds the message longer; the hold
            # extends the engine occupancy so queued successors also wait.
            tstall = session.tni_stall(msg.tni) if session is not None else 0.0
            hold = serial + tstall
            if hold < 0:
                raise ValueError(f"negative TNI engine hold {hold}")
            eng_start = max(inject_time, free.get(msg.tni, 0.0))
            free[msg.tni] = eng_start + hold

            arrival = (
                eng_start
                + tstall
                + serial
                + stack.software_latency(nbytes)
                + params.rdma_put_latency
                + max(msg.hops - 1, 0) * params.hop_latency
            )

            if metrics_on:
                # Tofu does not retransmit: every injection reaches the wire.
                METRICS.counter("injections_total").inc()
                METRICS.counter("tni_busy_seconds", tni=str(msg.tni)).inc(serial)
            if trace_on:
                TRACER.add_model_span(
                    "inject", base + inj_start, clock - inj_start,
                    cat="inject", track=injector, nbytes=nbytes, tni=msg.tni,
                    msg=msg_id, seg=i, stage=stage,
                )
                if eng_start > inject_time:
                    TRACER.add_model_span(
                        "queue", base + inject_time, eng_start - inject_time,
                        cat="queue", track=injector, tni=msg.tni,
                        msg=msg_id, seg=i, stage=stage,
                    )
                if tstall > 0.0:
                    TRACER.add_model_span(
                        "tni-stall", base + eng_start, tstall,
                        cat="fault", track=f"tni{msg.tni}", rank=msg.rank,
                        thread=msg.thread, msg=msg_id, seg=i, stage=stage,
                    )
                TRACER.add_model_span(
                    "tni-engine", base + eng_start + tstall, serial,
                    cat="tni", track=f"tni{msg.tni}", nbytes=nbytes, rank=msg.rank,
                    thread=msg.thread, msg=msg_id, seg=i, stage=stage,
                )
                TRACER.add_model_span(
                    "wire", base + eng_start + tstall + serial,
                    arrival - eng_start - tstall - serial,
                    cat="wire", track=injector, hops=msg.hops, nbytes=nbytes,
                    msg=msg_id, seg=i, stage=stage,
                )

        clocks[key] = clock
        last_injection = max(last_injection, clock)
        arrivals.append(arrival)

    completion = max(arrivals, default=start_time)
    return RoundResult(
        completion_time=completion,
        last_injection=last_injection,
        arrivals=arrivals,
        wire_messages=wire_messages,
    )


def observed() -> bool:
    """Whether an observer — the tracer, the metrics registry, a fault
    session with timing faults — wants the event loop's per-message
    events (the one thing the world pass refuses)."""
    session = FAULTS.session
    timing = session is not None and session.timing_faults
    return timing or TRACER.enabled or METRICS.enabled


class _Queues(NamedTuple):
    """FIFO queues of a flat key array, list order kept within a key,
    laid out *position-major*: every queue's first element, then every
    second one, ...  Queues rank longest first, so those still running
    at position ``k`` are the first ``active[k]``."""

    order: np.ndarray  # the list in key order
    same: np.ndarray  # key-ordered element ``i + 1`` is in ``i``'s queue
    slot: np.ndarray  # list index -> position-major index
    active: list[int]
    keys: np.ndarray  # each queue's key, by rank

    def lay_out(self, values: np.ndarray) -> np.ndarray:
        """List-order ``values`` in position-major layout."""
        out = np.empty_like(values)
        out[self.slot] = values
        return out


def _queues(key: np.ndarray) -> _Queues:
    """:class:`_Queues` of the flat ``key`` array."""
    order = np.argsort(key, kind="stable")
    ks = key[order]
    same = ks[1:] == ks[:-1]
    head = np.flatnonzero(np.concatenate(([True], ~same)))
    length = np.diff(np.append(head, ks.size))
    by_length = np.argsort(-length, kind="stable")
    rank = np.empty_like(head)
    rank[by_length] = np.arange(head.size)
    pos = np.arange(ks.size) - np.repeat(head, length)
    active = np.bincount(pos)
    slot = np.empty_like(order)
    slot[order] = (np.cumsum(active) - active)[pos] + np.repeat(rank, length)
    return _Queues(order, same, slot, active.tolist(), ks[head[by_length]])


def simulate_rounds(
    nbytes: np.ndarray,
    hops: np.ndarray,
    thread: np.ndarray,
    tni: np.ndarray,
    start: np.ndarray,
    stack: SoftwareStack,
    params: MachineParams = FUGAKU,
    known_length: bool = True,
) -> list[float] | None:
    """Completion times of many independent rounds in one pass, or ``None``.

    Row ``r`` of the ``(rounds, messages)`` arrays is one round in issue
    order from ``start[r]`` with idle TNI engines; ``thread`` names each
    message's injection stream in its row (a :class:`Message`'s ``(rank,
    thread)``).  Row ``r``'s result is :func:`simulate_round`'s
    ``completion_time`` for its :class:`Message` list and
    ``start_time=start[r]``, as a Python float, bit for bit, for every
    round shape: streams sharing a TNI engine, a stream hopping VCQs, a
    two-message protocol (an 8-byte length segment before each payload).
    A fenced pattern chains its stages through ``start``
    (:meth:`NetworkSimulator.run_staged` per row).  ``None`` (callers fall
    back to the event loop) only when :func:`observed`.

    Two FIFO recurrences in the loop's association, each run one queue
    position at a time across all queues of all rows (:class:`_Queues`;
    everything is O(rows · messages)): per ``(row, stream)``, ``clock =
    start; clock += switch; clock += interval``, the switch being
    ``vcq_switch_overhead`` when the stream's previous message used
    another TNI; then per ``(row, TNI)`` in list order, ``eng_start =
    max(inject, free); free = eng_start + serial``.  Where every stream
    owns its TNI the engine queue *is* the stream: one layout serves both.
    """
    if observed():
        return None
    rounds, n = nbytes.shape
    if nbytes.size == 0:
        return np.asarray(start, dtype=np.float64).tolist()
    # Wire segments in issue order (the stacks' count depends on the
    # length flag alone): 8-byte length segments, the payload last.
    wire = stack.protocol_message_count(1, known_length)
    size = np.repeat(nbytes.astype(np.float64).ravel(), wire)
    size.reshape(-1, wire)[:, :-1] = 8.0
    row = np.repeat(np.arange(rounds), n * wire)
    per_row = int(thread.max()) + 1
    streams = _queues(row * per_row + np.repeat(thread.ravel(), wire))
    tni = np.repeat(tni.ravel(), wire)
    serial = np.maximum(size / params.link_bandwidth, params.tni_engine_message_time)

    moved = np.diff(tni[streams.order]) != 0
    switch = np.empty(size.size, dtype=bool)
    switch[streams.order] = np.concatenate(([False], streams.same & moved))
    hopping = bool(switch.any())
    vcq = streams.lay_out(np.where(switch, params.vcq_switch_overhead, 0.0))
    interval = streams.lay_out(stack.injection_intervals(size))
    clock = np.asarray(start, dtype=np.float64)[streams.keys // per_row]
    inject = np.empty_like(interval)
    lo = 0
    for m in streams.active:
        hi = lo + m
        if hopping:  # ``+ 0.0`` on a stream staying on its TNI: a no-op
            clock[:m] += vcq[lo:hi]
        clock[:m] += interval[lo:hi]
        inject[lo:hi] = clock[:m]
        lo = hi

    engine = row * (int(tni.max()) + 1) + tni
    # Owned: one stream per engine; the first slots are the streams' heads.
    if not hopping and np.bincount(engine[streams.slot < streams.active[0]]).max() == 1:
        engines = streams
    else:
        engines = _queues(engine)
        inject = engines.lay_out(inject[streams.slot])
    hold = engines.lay_out(serial)
    eng_start = np.empty_like(inject)
    free = np.zeros(engines.active[0])
    lo = 0
    for m in engines.active:
        hi = lo + m
        eng_start[lo:hi] = np.maximum(inject[lo:hi], free[:m])
        free[:m] = eng_start[lo:hi] + hold[lo:hi]
        lo = hi
    # A zero TNI stall adds exactly ``+ 0.0`` to these non-negative times
    # in the loop — a bitwise no-op — so it is dropped.
    arrival = (
        eng_start[engines.slot] + serial + stack.software_latencies(size)
        + params.rdma_put_latency
        + np.maximum(np.repeat(hops.ravel(), wire) - 1.0, 0.0) * params.hop_latency
    )
    return arrival.reshape(rounds, n, wire)[:, :, -1].max(axis=1).tolist()


class NetworkSimulator:
    """Stateful simulator for staged communication patterns.

    The 3-stage exchange (paper Fig. 4) runs three rounds with a barrier
    between them — stage *k+1* may not start before every stage-*k*
    message has arrived (each stage forwards part of what the previous one
    received).  ``barrier_cost`` adds the synchronization price itself;
    MPI barriers on a real machine cost microseconds, a uTofu flag-poll
    barrier much less.
    """

    def __init__(
        self,
        stack: SoftwareStack | None = None,
        params: MachineParams = FUGAKU,
        barrier_cost: float | None = None,
    ) -> None:
        self.params = params
        self.stack = stack if stack is not None else UtofuStack(params=params)
        if barrier_cost is None:
            # A barrier is two software latencies (notify + release) per
            # participating stage under either stack.
            barrier_cost = 2.0 * self.stack.software_latency(8)
        self.barrier_cost = barrier_cost

    def run_round(self, messages: list[Message]) -> RoundResult:
        """One bulk round with fresh resources."""
        return simulate_round(messages, self.stack, self.params)

    def run_staged(self, stages: list[list[Message]]) -> RoundResult:
        """Sequential stages with inter-stage barriers (3-stage pattern)."""
        t = 0.0
        arrivals: list[float] = []
        last_injection = 0.0
        wire = 0
        msg_base = 0
        for i, stage in enumerate(stages):
            if i > 0:
                if TRACER.enabled:
                    # Stage i's first injection starts exactly at the end
                    # of this span — the dependency edge the critical-path
                    # analyzer follows across the inter-stage barrier.
                    TRACER.add_model_span(
                        "barrier", TRACER.model_offset + t, self.barrier_cost,
                        cat="barrier", track="barrier", stage=i,
                    )
                t += self.barrier_cost
            res = simulate_round(
                stage, self.stack, self.params, start_time=t,
                msg_base=msg_base, stage=i,
            )
            msg_base += len(stage)
            arrivals.extend(res.arrivals)
            last_injection = max(last_injection, res.last_injection)
            wire += res.wire_messages
            t = res.completion_time
        return RoundResult(
            completion_time=t,
            last_injection=last_injection,
            arrivals=arrivals,
            wire_messages=wire,
        )

    def point_to_point_time(self, nbytes: int, hops: int) -> float:
        """Time for one isolated message (the T_0..T_5 of Table 1)."""
        res = self.run_round([Message(nbytes=nbytes, hops=hops)])
        return res.completion_time
