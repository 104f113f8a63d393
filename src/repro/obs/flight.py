"""Step-granular flight recorder: the last N steps, always in memory.

Production failures rarely announce themselves while a tracer happens to
be attached.  The flight recorder is the always-on black box: a bounded
ring of per-step stage summaries (wall/model seconds per stage, fastpath
phase counts, traffic deltas) plus a second ring of recent notable
events (fault injections, retries, degradation-ladder transitions,
retry exhaustion).  Both rings are O(1) per step and bounded, so they
can stay on for a run of any length.

On a terminal failure — ``RetryExhaustedError`` escaping the retry
layer, a degradation-ladder transition, or a selfcheck failure — the
ring is dumped as a versioned ``repro-flightrec/1`` JSON document, the
post-mortem artifact CI uploads and ``python -m repro telemetry dump``
produces on demand.  :func:`validate_flight_doc` is the schema contract
(same style as ``validate_bench_doc``), and :meth:`FlightRecorder.from_doc`
rebuilds a recorder from a dump so replay round-trips exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.artifact import Cursor, read, write

#: Versioned schema identifier checked by :func:`validate_flight_doc`.
SCHEMA = "repro-flightrec/1"

#: Default ring depths (steps retained, events retained).
DEFAULT_MAX_STEPS = 64
DEFAULT_MAX_EVENTS = 256


class FlightRecorder:
    """Bounded rings of per-step frames and notable events."""

    def __init__(
        self,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if max_steps < 1 or max_events < 1:
            raise ValueError("flight recorder rings must hold at least one entry")
        self.max_steps = max_steps
        self.max_events = max_events
        self.frames: deque[dict] = deque(maxlen=max_steps)
        self.events: deque[dict] = deque(maxlen=max_events)
        #: total frames/events ever recorded (ring drops do not decrement)
        self.frames_seen = 0
        self.events_seen = 0
        self._event_seq = 0
        self._current_step = 0

    # -- ingest -------------------------------------------------------------
    def record_frame(self, frame: dict) -> None:
        """Append one per-step summary (must carry a ``step`` key)."""
        if "step" not in frame:
            raise ValueError("flight frame must carry a 'step' key")
        self._current_step = int(frame["step"])
        self.frames.append(frame)
        self.frames_seen += 1

    def record_event(self, kind: str, **fields: Any) -> None:
        """Append one notable event, stamped with a sequence number and
        the most recent completed step."""
        if {"kind", "seq", "step"} & fields.keys():
            raise ValueError("event fields may not shadow 'kind', 'seq', or 'step'")
        self.events.append(
            {"seq": self._event_seq, "step": self._current_step,
             "kind": kind, **fields}
        )
        self._event_seq += 1
        self.events_seen += 1

    def clear(self) -> None:
        """Drop both rings (counters and sequence keep running)."""
        self.frames.clear()
        self.events.clear()

    # -- dump / load ----------------------------------------------------------
    def dump(self, reason: str, meta: dict | None = None) -> dict:
        """The ring contents as a versioned ``repro-flightrec/1`` document."""
        return {
            "schema": SCHEMA,
            "reason": reason,
            "meta": dict(meta or {}),
            "limits": {"max_steps": self.max_steps, "max_events": self.max_events},
            "totals": {
                "frames_seen": self.frames_seen,
                "events_seen": self.events_seen,
            },
            "frames": list(self.frames),
            "events": list(self.events),
        }

    def write(self, path: str, reason: str, meta: dict | None = None) -> dict:
        """Dump to ``path`` as JSON; returns the document written."""
        doc = self.dump(reason, meta)
        validate_flight_doc(doc)
        write(path, doc)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> FlightRecorder:
        """Rebuild a recorder from a dump (``rec.dump(r) == from_doc(...)
        .dump(r)`` — the replay round-trip the tests pin)."""
        validate_flight_doc(doc)
        rec = cls(
            max_steps=doc["limits"]["max_steps"],
            max_events=doc["limits"]["max_events"],
        )
        for frame in doc["frames"]:
            rec.frames.append(dict(frame))
        for event in doc["events"]:
            rec.events.append(dict(event))
        rec.frames_seen = doc["totals"]["frames_seen"]
        rec.events_seen = doc["totals"]["events_seen"]
        if doc["events"]:
            rec._event_seq = max(e["seq"] for e in doc["events"]) + 1
        if doc["frames"]:
            rec._current_step = int(doc["frames"][-1]["step"])
        return rec


# -- schema ---------------------------------------------------------------
def validate_flight_doc(doc: dict) -> int:
    """Validate a ``repro-flightrec/1`` document; returns the frame count.

    Raises ``ValueError("flight document invalid at <path>: <why>")``
    naming the first offending path.  Everything
    :meth:`FlightRecorder.from_doc` reads is checked here.
    """
    c = Cursor(doc, "flight document")
    c.schema(SCHEMA)
    c.text("reason", nonempty=True)
    c.obj("meta")
    limits = c.obj("limits")
    max_steps = limits.integer("max_steps", lo=1)
    max_events = limits.integer("max_events", lo=1)
    totals = c.obj("totals")
    totals.integer("frames_seen", lo=0)
    totals.integer("events_seen", lo=0)
    frames = c.arr("frames")
    n = len(frames.value)
    frames.require(n <= max_steps, f"{n} frames exceed max_steps {max_steps}")
    last_step = -1
    for frame in frames.each():
        step = frame.integer("step", lo=0)
        frame.require(step > last_step,
                      f"steps not strictly increasing ({last_step} -> {step})", "step")
        last_step = step
        for part in ("wall", "model"):
            for seconds in frame.obj(part).each():
                seconds.number(lo=0)
    events = c.arr("events")
    n = len(events.value)
    events.require(n <= max_events, f"{n} events exceed max_events {max_events}")
    last_seq = -1
    for event in events.each():
        event.text("kind", nonempty=True)
        seq = event.integer("seq", lo=0)
        event.require(seq > last_seq, f"events out of order ({last_seq} -> {seq})",
                      "seq")
        last_seq = seq
    return len(frames.value)


def check_autodump(path: str, died: bool) -> tuple[bool, str]:
    """A run that ``died`` of retry exhaustion left a valid dump at ``path``:
    that reason, at least 3 pre-failure frames timing every stage, and the
    fault -> retry -> exhaustion event trail."""
    from repro.md.stages import Stage

    try:
        doc = read(path, validate_flight_doc)
    except (OSError, ValueError) as exc:
        return False, f"dump invalid: {exc}"
    frames = doc["frames"]
    kinds = {e["kind"] for e in doc["events"]}
    ok = (
        died
        and doc["reason"] == "retry-exhausted"
        and len(frames) >= 3
        and set(frames[-1]["wall"]) == {s.value for s in Stage}
        and {"fault-injected", "retry", "retry-exhausted"} <= kinds
    )
    return ok, f"{len(frames)} frames, events {sorted(kinds)}"
