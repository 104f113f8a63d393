"""Span/event tracer over two timelines: wall clock and simulated machine.

Every timing claim of the paper is an *attribution* claim — which stage,
which message, which TNI — so the tracer records attributed intervals
rather than bare totals:

* **Wall spans** — real elapsed intervals of this Python process
  (``time.perf_counter``), nested via a context-manager stack, used for
  the five-stage breakdown and the exchange phases.
* **Model spans** — intervals on the simulated-Fugaku timeline: message
  injection / TNI-engine / wire segments from the network simulator,
  thread-pool fork/join regions, and the per-stage modeled seconds that
  :class:`~repro.md.stages.StageTimers` accounts.
* **Instants** — zero-duration events (one per transported message),
  the raw material for the traffic consistency checks.

The module-level singleton :data:`TRACER` starts **disabled**; every
instrumentation site guards on ``TRACER.enabled`` (one attribute read)
so the hot paths pay no measurable cost until tracing is switched on.
The singleton object is never replaced — instrumented modules may hold a
reference to it — only reset.

Durations are recorded *exactly as measured* (``t1 - t0``, the same
float the timers accumulate), which is what lets
:func:`repro.obs.report.stage_breakdown_from_trace` reproduce
``StageTimers`` totals to the last bit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Clock identifiers for :class:`SpanRecord.clock`.
WALL = "wall"
MODEL = "model"


@dataclass
class SpanRecord:
    """One completed interval on one timeline."""

    name: str
    cat: str  # "stage" | "step" | "comm" | "inject" | "tni" | "wire" | ...
    ts: float  # seconds since the tracer epoch (its clock's zero)
    dur: float  # recorded exactly as measured, never recomputed
    clock: str  # WALL or MODEL
    track: str  # display row: "stages", "rank0/thr2", "tni3", ...
    args: dict = field(default_factory=dict)
    id: int = 0
    parent: int | None = None

    @property
    def end(self) -> float:
        """Interval end (``ts + dur``)."""
        return self.ts + self.dur


@dataclass
class InstantRecord:
    """A zero-duration event (e.g. one message leaving a rank)."""

    name: str
    cat: str
    ts: float
    clock: str
    track: str
    args: dict = field(default_factory=dict)


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()

#: Public no-op span: hot paths that guard on ``TRACER.enabled`` return
#: this directly, skipping even the span-name/kwargs construction.
NULL_SPAN = _NULL_SPAN


class _OpenSpan:
    """A live wall-clock span; records itself on exit."""

    __slots__ = ("tracer", "name", "cat", "track", "args", "id", "parent", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, track: str, args: dict):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.track = track
        self.args = args

    def __enter__(self):
        tr = self.tracer
        self.id = tr._next_id
        tr._next_id += 1
        self.parent = tr._stack[-1].id if tr._stack else None
        tr._stack.append(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append(
            SpanRecord(
                name=self.name,
                cat=self.cat,
                ts=self._t0 - tr._epoch,
                dur=t1 - self._t0,
                clock=WALL,
                track=self.track,
                args=self.args,
                id=self.id,
                parent=self.parent,
            )
        )
        return False


class Tracer:
    """Recorder of spans and instants over the wall and model timelines.

    ``model_clock`` is the high-water mark of the simulated timeline;
    components with no absolute machine clock (thread-pool regions,
    per-stage modeled seconds) append at the cursor, while the network
    simulator places whole rounds at :attr:`model_offset` (set by
    :meth:`begin_model_round`) so rounds laid out with internal absolute
    times do not overlap earlier activity.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.reset()

    def reset(self) -> None:
        """Drop all records and restart both timelines at zero."""
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self._stack: list[_OpenSpan] = []
        self._next_id = 1
        self._epoch = time.perf_counter()
        self.model_clock = 0.0
        self.model_offset = 0.0

    # -- recording ---------------------------------------------------------
    def span(self, name: str, cat: str = "", track: str = "main", **args):
        """Context manager measuring a wall-clock span (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _OpenSpan(self, name, cat, track, args)

    def add_wall_span(
        self, name: str, t0: float, t1: float, cat: str = "", track: str = "main", **args
    ) -> None:
        """Record a completed span from raw ``perf_counter`` readings.

        ``dur`` is stored as exactly ``t1 - t0`` — the same float a
        caller that also accumulates the interval adds to its own total,
        so trace-derived sums can match external accounts bit-for-bit.
        """
        if not self.enabled:
            return
        parent = self._stack[-1].id if self._stack else None
        sid = self._next_id
        self._next_id += 1
        self.spans.append(
            SpanRecord(
                name=name,
                cat=cat,
                ts=t0 - self._epoch,
                dur=t1 - t0,
                clock=WALL,
                track=track,
                args=args,
                id=sid,
                parent=parent,
            )
        )

    def add_model_span(
        self, name: str, start: float, dur: float, cat: str = "", track: str = "machine", **args
    ) -> None:
        """Record a span at an absolute position on the simulated timeline."""
        if not self.enabled:
            return
        sid = self._next_id
        self._next_id += 1
        self.spans.append(
            SpanRecord(
                name=name,
                cat=cat,
                ts=start,
                dur=dur,
                clock=MODEL,
                track=track,
                args=args,
                id=sid,
                parent=None,
            )
        )
        end = start + dur
        if end > self.model_clock:
            self.model_clock = end

    def model_span_seq(
        self, name: str, dur: float, cat: str = "", track: str = "machine", **args
    ) -> None:
        """Append a model span at the running cursor (no absolute clock)."""
        if not self.enabled:
            return
        self.add_model_span(name, self.model_clock, dur, cat=cat, track=track, **args)

    def begin_model_round(self) -> float:
        """Start an independent simulator round; returns its base offset."""
        self.model_offset = self.model_clock
        return self.model_offset

    def instant(
        self,
        name: str,
        cat: str = "",
        track: str = "main",
        clock: str = WALL,
        ts: float | None = None,
        **args,
    ) -> None:
        """Record a zero-duration event on either timeline."""
        if not self.enabled:
            return
        if ts is None:
            ts = time.perf_counter() - self._epoch if clock == WALL else self.model_clock
        self.instants.append(InstantRecord(name, cat, ts, clock, track, args))

    # -- queries -----------------------------------------------------------
    def spans_with(self, cat: str | None = None, clock: str | None = None) -> list[SpanRecord]:
        """Spans filtered by category and/or clock, in completion order."""
        return [
            s
            for s in self.spans
            if (cat is None or s.cat == cat) and (clock is None or s.clock == clock)
        ]

    def instants_with(self, cat: str | None = None) -> list[InstantRecord]:
        """Instant events filtered by category, in record order."""
        return [e for e in self.instants if cat is None or e.cat == cat]


#: The process-wide tracer. Never replaced, only reset, so modules may
#: safely hold a reference to it.
TRACER = Tracer()


def get_tracer() -> Tracer:
    """The global tracer singleton."""
    return TRACER


@contextmanager
def tracing(fresh: bool = True):
    """Enable the global tracer for a block; restores the prior state."""
    prev = TRACER.enabled
    if fresh:
        TRACER.reset()
    TRACER.enabled = True
    try:
        yield TRACER
    finally:
        TRACER.enabled = prev
