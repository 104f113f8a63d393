"""The fault injector: one seeded session consulted by every layer.

The module-level :data:`FAULTS` singleton mirrors the observability
design (``TRACER``/``METRICS``): it starts with **no active session**,
every instrumentation site guards on ``FAULTS.session is None`` (one
attribute read), and the functional and modeled paths are byte-identical
to the fault-free build until a :class:`~repro.faults.plan.FaultPlan`
is activated — the ``faults-off`` bench guard enforces it.

With a session active:

* the transport wraps payloads in sequence-numbered envelopes and asks
  :meth:`FaultSession.on_send` whether to deliver, hold (drop/delay),
  or shuffle the mailbox (reorder).  Held messages live in *limbo*
  until the receiver's retry polls release them; sequence numbers let
  the robust receive restore injection order, which is what keeps an
  absorbed fault run bit-identical to the fault-free run;
* the network simulator asks for injection jitter, VCQ-credit waits and
  TNI stalls, emitting each as a ``cat="fault"`` model span placed so
  the critical-path chain still partitions the round exactly;
* the RDMA engine and receive rings ask whether a PUT is still in
  flight; deferred PUTs land when fence/consume retries tick them.

Every injection, absorption, retry, degradation and escalation is
counted in :class:`FaultStats` and emitted as trace events/metrics so
``critpath`` and ``bench`` can attribute the cost of surviving faults.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Callable, Hashable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.faults.plan import (
    EXEMPT_PHASES,
    MESSAGE_KINDS,
    RDMA_KINDS,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
)
from repro.obs.metrics import METRICS
from repro.obs.telemetry import TELEMETRY
from repro.obs.trace import TRACER


class FaultError(RuntimeError):
    """Base of all fault-layer errors."""


class FaultEscalation(FaultError):
    """A fault the retry layer could not absorb; the driver may degrade."""


class RetryExhaustedError(FaultEscalation):
    """A receiver gave up after ``max_retries`` backoff polls."""


class FaultBudgetExceededError(FaultEscalation):
    """More faults were injected than the policy's budget tolerates."""


#: ``on_send`` verdicts (module constants so the transport can branch
#: without string comparisons).
DELIVER = 0
HOLD = 1
REORDER = 2


@dataclass
class FaultStats:
    """Session-level accounting, rendered by the CLI and asserted by tests."""

    injected: dict[str, int] = field(default_factory=dict)
    absorbed: int = 0
    retries: int = 0
    degradations: int = 0
    degraded_casualties: int = 0
    unabsorbed: int = 0

    def total_injected(self) -> int:
        """All faults fired so far, across kinds."""
        return sum(self.injected.values())


class _SpecState:
    """A spec plus its remaining firing budget (``None`` = unlimited)."""

    __slots__ = ("spec", "remaining")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.remaining: int | None = spec.count


@dataclass
class _HeldMessage:
    """One message sitting in limbo until its retry polls run out."""

    ticks: int
    seq: int
    payload: Any


@dataclass
class _DeferredPut:
    """One in-flight RDMA/ring PUT and the callback that lands it."""

    ticks: int
    land: Callable[[], None]


class FaultSession:
    """One activated plan: RNG stream, limbo stores, and statistics."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.policy: RetryPolicy = plan.policy
        self.rng = random.Random(plan.seed)
        self._specs = [_SpecState(s) for s in plan.faults]
        self._by_kind: dict[str, list[_SpecState]] = {}
        for st in self._specs:
            self._by_kind.setdefault(st.spec.kind, []).append(st)
        # Per-plane arming flags: the envelope protocol and RDMA deferral
        # checks only pay their cost when the plan can actually fire on
        # that plane (the faults-off bench guard measures the idle cost).
        self.message_faults = any(s.kind in MESSAGE_KINDS for s in plan.faults)
        self.rdma_faults = any(s.kind in RDMA_KINDS for s in plan.faults)
        self.stats = FaultStats()
        # Held messages per mailbox key (src, dst, tag).
        self._limbo: dict[tuple[int, int, Hashable], list[_HeldMessage]] = {}
        # Deferred RDMA/ring PUTs awaiting fence/consume polls.
        self._deferred: list[_DeferredPut] = []
        # Per-VCQ injection counters for credit exhaustion.
        self._vcq_count: dict[tuple[int, int, int], int] = {}
        self.closed = False

    # -- spec matching ------------------------------------------------------
    def _match(
        self,
        kind: str,
        phase: str | None = None,
        src: int | None = None,
        dst: int | None = None,
        tni: int | None = None,
        draw: bool = True,
    ) -> FaultSpec | None:
        """First spec of ``kind`` whose filters pass and whose die roll hits.

        The probability draw happens on every filter match (not only on
        fire) so the RNG stream advances in deterministic call order —
        the replay property depends on it.
        """
        for st in self._by_kind.get(kind, ()):
            spec = st.spec
            if st.remaining == 0:
                continue
            if spec.phases is not None and phase not in spec.phases:
                continue
            if spec.src is not None and spec.src != src:
                continue
            if spec.dst is not None and spec.dst != dst:
                continue
            if spec.tni is not None and spec.tni != tni:
                continue
            if draw and spec.probability < 1.0 and self.rng.random() >= spec.probability:
                continue
            if st.remaining is not None:
                st.remaining -= 1
            return spec
        return None

    def _note_injected(self, kind: str, **args: int | str) -> None:
        self.stats.injected[kind] = self.stats.injected.get(kind, 0) + 1
        TELEMETRY.emit("fault-injected", fault=kind, **args)
        if METRICS.enabled:
            METRICS.counter("faults_injected_total", kind=kind).inc()
        if TRACER.enabled:
            TRACER.instant(f"fault-{kind}", cat="fault", track="faults", kind=kind, **args)

    # -- message plane (transport hooks) ------------------------------------
    def on_send(
        self, src: int, dst: int, tag: Hashable, phase: str
    ) -> tuple[int, int, str] | None:
        """Fault verdict for one send; ``None`` means deliver untouched.

        Returns ``(HOLD, ticks, kind)`` for drop/delay or
        ``(REORDER, 0, kind)``; migration traffic is exempt (see
        :data:`~repro.faults.plan.EXEMPT_PHASES`).
        """
        if phase in EXEMPT_PHASES:
            return None
        spec = self._match("drop", phase=phase, src=src, dst=dst)
        if spec is not None:
            return (HOLD, spec.severity, "drop")
        spec = self._match("delay", phase=phase, src=src, dst=dst)
        if spec is not None:
            return (HOLD, spec.severity, "delay")
        spec = self._match("reorder", phase=phase, src=src, dst=dst)
        if spec is not None:
            return (REORDER, 0, "reorder")
        return None

    def hold(
        self,
        key: tuple[int, int, Hashable],
        seq: int,
        payload: Any,
        ticks: int,
        kind: str,
    ) -> None:
        """Move one message into limbo for ``ticks`` retry polls."""
        self._limbo.setdefault(key, []).append(_HeldMessage(ticks, seq, payload))
        self._note_injected(kind, src=key[0], dst=key[1])

    def note_reorder(self, key: tuple[int, int, Hashable]) -> None:
        """Count a fired reorder (absorbed immediately by seq restore)."""
        self._note_injected("reorder", src=key[0], dst=key[1])
        self.stats.absorbed += 1
        if METRICS.enabled:
            METRICS.counter("faults_absorbed_total").inc()

    def tick(self, key: tuple[int, int, Hashable]) -> list[tuple[int, Any]]:
        """One receiver retry poll: age this mailbox's limbo, return releases."""
        entries = self._limbo.get(key)
        if not entries:
            return []
        released: list[tuple[int, Any]] = []
        kept: list[_HeldMessage] = []
        for entry in entries:
            entry.ticks -= 1
            if entry.ticks <= 0:
                released.append((entry.seq, entry.payload))
                self.stats.absorbed += 1
                if METRICS.enabled:
                    METRICS.counter("faults_absorbed_total").inc()
            else:
                kept.append(entry)
        if kept:
            self._limbo[key] = kept
        else:
            del self._limbo[key]
        return released

    # -- retry/budget accounting --------------------------------------------
    def check_budget(self) -> None:
        """Raise when the plan's fault budget is spent (degradation trigger)."""
        budget = self.policy.fault_budget
        if budget is not None and self.stats.total_injected() > budget:
            raise FaultBudgetExceededError(
                f"{self.stats.total_injected()} faults injected exceeds "
                f"budget {budget}"
            )

    def note_retry(self, phase: str) -> None:
        """Count one receiver retry poll (metric keyed by phase)."""
        self.stats.retries += 1
        TELEMETRY.emit("retry", phase=phase)
        if METRICS.enabled:
            METRICS.counter("fault_retries_total", phase=phase).inc()

    # -- simulated-machine timing hooks --------------------------------------
    def injection_jitter(self, rank: int, thread: int, tni: int) -> float:
        """Extra software time before one injection (0.0 = no fault)."""
        spec = self._match("inject-jitter", src=rank, tni=tni)
        if spec is None:
            return 0.0
        jitter = spec.stall * self.rng.random()
        self._note_injected("inject-jitter", rank=rank, thread=thread, tni=tni)
        self.stats.absorbed += 1  # timing faults cost only modeled time
        return jitter

    def vcq_credit_wait(self, rank: int, thread: int, tni: int) -> float:
        """Stall when this VCQ's descriptor credits run out."""
        states = self._by_kind.get("vcq-credit")
        if not states:
            return 0.0
        key = (rank, thread, tni)
        self._vcq_count[key] = self._vcq_count.get(key, 0) + 1
        for st in states:
            spec = st.spec
            if st.remaining == 0:
                continue
            if spec.src is not None and spec.src != rank:
                continue
            if spec.tni is not None and spec.tni != tni:
                continue
            if self._vcq_count[key] % spec.credits:
                continue
            if st.remaining is not None:
                st.remaining -= 1
            self._note_injected("vcq-credit", rank=rank, thread=thread, tni=tni)
            self.stats.absorbed += 1
            return spec.stall
        return 0.0

    def tni_stall(self, tni: int) -> float:
        """Extra engine hold time for one message on ``tni``."""
        spec = self._match("tni-stall", tni=tni)
        if spec is None:
            return 0.0
        self._note_injected("tni-stall", tni=tni)
        self.stats.absorbed += 1
        return spec.stall

    # -- RDMA plane -----------------------------------------------------------
    def rdma_defer(self, kind: str, rank: int) -> int:
        """Ticks a PUT from ``rank`` stays in flight (0 = lands now)."""
        if not self.rdma_faults:
            return 0
        spec = self._match(kind, src=rank)
        return spec.severity if spec is not None else 0

    def defer(self, ticks: int, land: Callable[[], None], kind: str) -> None:
        """Register an in-flight PUT that lands after ``ticks`` polls."""
        self._deferred.append(_DeferredPut(ticks, land))
        self._note_injected(kind)

    def pending_deferred(self) -> int:
        """PUTs registered but not yet landed."""
        return len(self._deferred)

    def release_tick(self) -> int:
        """One fence/consume poll: age deferred PUTs, land the due ones."""
        if not self._deferred:
            return 0
        landed = 0
        kept: list[_DeferredPut] = []
        for entry in self._deferred:
            entry.ticks -= 1
            if entry.ticks <= 0:
                entry.land()
                landed += 1
                self.stats.absorbed += 1
                if METRICS.enabled:
                    METRICS.counter("faults_absorbed_total").inc()
            else:
                kept.append(entry)
        self._deferred = kept
        return landed

    # -- degradation / teardown ----------------------------------------------
    def on_degrade(self, from_pattern: str, to_pattern: str) -> None:
        """The driver fell back a tier: write off in-flight casualties."""
        casualties = sum(len(v) for v in self._limbo.values()) + len(self._deferred)
        self.stats.degradations += 1
        self.stats.degraded_casualties += casualties
        self._limbo.clear()
        self._deferred.clear()
        TELEMETRY.emit(
            "degradation",
            from_pattern=from_pattern,
            to_pattern=to_pattern,
            casualties=casualties,
        )
        if METRICS.enabled:
            METRICS.counter(
                "fault_degradations_total", to=to_pattern
            ).inc()
        if TRACER.enabled:
            TRACER.instant(
                "degrade", cat="fault", track="faults",
                from_pattern=from_pattern, to_pattern=to_pattern,
            )

    def close(self) -> None:
        """End the session; anything still in limbo is unabsorbed."""
        if self.closed:
            return
        leftovers = sum(len(v) for v in self._limbo.values()) + len(self._deferred)
        self.stats.unabsorbed += leftovers
        self._limbo.clear()
        self._deferred.clear()
        self.closed = True

    def render(self) -> str:
        """Human-readable session summary (printed by the CLI)."""
        s = self.stats
        lines = [
            "fault-injection session:",
            f"  injected   {s.total_injected()}"
            + (
                " (" + ", ".join(f"{k}={n}" for k, n in sorted(s.injected.items())) + ")"
                if s.injected
                else ""
            ),
            f"  absorbed   {s.absorbed} (over {s.retries} retries)",
            f"  degraded   {s.degradations} tier change(s), "
            f"{s.degraded_casualties} in-flight casualt(ies) written off",
            f"  unabsorbed {s.unabsorbed}",
        ]
        return "\n".join(lines)


class FaultInjector:
    """Process-wide injector holding at most one active session."""

    def __init__(self) -> None:
        self.session: FaultSession | None = None

    @property
    def active(self) -> bool:
        return self.session is not None

    def activate(self, plan: FaultPlan) -> FaultSession:
        """Start a session; errors if one is already active."""
        if self.session is not None:
            raise FaultError("a fault session is already active")
        self.session = FaultSession(plan)
        return self.session

    def deactivate(self) -> FaultSession | None:
        """End the active session (tallying unabsorbed leftovers)."""
        session = self.session
        if session is not None:
            session.close()
        self.session = None
        return session

    @contextmanager
    def inject(self, plan: FaultPlan) -> Iterator[FaultSession]:
        """Scoped session: ``with FAULTS.inject(plan) as session: ...``."""
        session = self.activate(plan)
        try:
            yield session
        finally:
            self.deactivate()


#: The process-wide injector.  Never replaced, only (de)activated, so
#: instrumented modules may safely hold a reference to it.
FAULTS = FaultInjector()


# -- the absorption contract, checked -------------------------------------------
def ghost_digest(sim) -> str:
    """SHA-256 over every rank's ghost positions and tags (bit-exact)."""
    h = hashlib.sha256()
    for rank in range(sim.world.size):
        atoms = sim.atoms_of(rank)
        h.update(atoms.x[atoms.nlocal : atoms.ntotal].tobytes())
        h.update(atoms.tag[atoms.nlocal : atoms.ntotal].tobytes())
    return h.hexdigest()


def trace_signature(tracer) -> tuple[list, list, list]:
    """What a replay of the same plan must reproduce: wall spans by
    identity, model spans with their times, instants by identity."""
    wall = [(s.name, s.cat, s.track) for s in tracer.spans if s.clock == "wall"]
    model = [
        (s.name, s.cat, s.track, s.ts, s.dur) for s in tracer.spans if s.clock == "model"
    ]
    return wall, model, [(e.name, e.cat, e.track) for e in tracer.instants]


def check_fired(stats: FaultStats) -> tuple[bool, str]:
    """The plan fired at least one fault."""
    kinds = ", ".join(f"{k}={n}" for k, n in sorted(stats.injected.items()))
    return stats.total_injected() > 0, f"{stats.total_injected()} fired: {kinds}"


def check_absorbed(stats: FaultStats) -> tuple[bool, str]:
    """Every fault was absorbed by a retry or by a clean degradation."""
    return stats.unabsorbed == 0, (
        f"{stats.absorbed} absorbed over {stats.retries} retries, "
        f"{stats.degradations} degradation(s), {stats.unabsorbed} unabsorbed"
    )


def check_ghosts_identical(faulted, clean) -> tuple[bool, str]:
    """Without a degradation the faulted run's ghost region and positions
    are bit-identical to the fault-free run's."""
    digest = ghost_digest(clean)
    ok = ghost_digest(faulted) == digest and np.array_equal(
        faulted.gather_positions(), clean.gather_positions()
    )
    return ok, f"digest {digest[:12]}…"


def check_degraded_trajectory(faulted, clean) -> tuple[bool, str]:
    """After a degradation the trajectory still matches the fault-free run
    to integration precision."""
    from repro.md.serial import check_trajectory

    ok, detail = check_trajectory(faulted, clean.gather_positions())
    ladder = [faulted.degradations[0][0]] + [to for _, to in faulted.degradations]
    return ok, f"{detail} after {' -> '.join(ladder)}"


def check_fault_spans(signature: tuple[list, list, list]) -> tuple[bool, str]:
    """The faulted run's trace (its :func:`trace_signature`) carries fault
    events and retry spans."""
    wall, model, instants = signature
    faults = sum(e[1] == "fault" for e in instants) + sum(s[1] == "fault" for s in model)
    retries = sum(s[1] == "retry" for s in wall) + sum(s[1] == "retry" for s in model)
    return faults > 0 and retries > 0, (
        f"{faults} fault events, {retries} retry spans"
    )


def check_replays(first: tuple, second: tuple) -> tuple[bool, str]:
    """Two injections of one plan, each ``(trace_signature, stats)``, give
    the same trace and the same fault statistics."""
    (wall, model, instants), _ = first
    return first == second, (
        f"{len(wall)}+{len(model)} spans, {len(instants)} instants reproduced"
    )
