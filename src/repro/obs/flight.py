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

import json
from collections import deque
from typing import Any

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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
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


def load_flight_doc(path: str) -> dict:
    """Load and validate one flight-recorder dump."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    validate_flight_doc(doc)
    return doc


# -- schema ---------------------------------------------------------------
def _require(cond: bool, path: str, why: str) -> None:
    if not cond:
        raise ValueError(f"flight document invalid at {path}: {why}")


def validate_flight_doc(doc: dict) -> int:
    """Validate a ``repro-flightrec/1`` document; returns the frame count.

    Raises :class:`ValueError` naming the first offending path — the
    same contract as ``validate_bench_doc`` / ``validate_chrome_trace``.
    """
    _require(isinstance(doc, dict), "$", "not an object")
    _require(
        doc.get("schema") == SCHEMA,
        "$.schema", f"expected {SCHEMA!r}, got {doc.get('schema')!r}",
    )
    _require(isinstance(doc.get("reason"), str) and bool(doc["reason"]),
             "$.reason", "missing non-empty reason")
    _require(isinstance(doc.get("meta"), dict), "$.meta", "missing meta object")
    limits = doc.get("limits")
    _require(isinstance(limits, dict), "$.limits", "missing limits")
    for k in ("max_steps", "max_events"):
        _require(
            isinstance(limits.get(k), int) and limits[k] >= 1,
            f"$.limits.{k}", f"invalid {limits.get(k)!r}",
        )
    totals = doc.get("totals")
    _require(isinstance(totals, dict), "$.totals", "missing totals")
    frames = doc.get("frames")
    _require(isinstance(frames, list), "$.frames", "missing frames array")
    _require(len(frames) <= limits["max_steps"], "$.frames",
             f"{len(frames)} frames exceed max_steps {limits['max_steps']}")
    last_step = None
    for i, frame in enumerate(frames):
        ctx = f"$.frames[{i}]"
        _require(isinstance(frame, dict), ctx, "not an object")
        step = frame.get("step")
        _require(isinstance(step, int) and step >= 0, f"{ctx}.step",
                 f"invalid {step!r}")
        _require(last_step is None or step > last_step, f"{ctx}.step",
                 f"steps not strictly increasing ({last_step} -> {step})")
        last_step = step
        for part in ("wall", "model"):
            table = frame.get(part)
            _require(isinstance(table, dict), f"{ctx}.{part}", "missing stage table")
            for stage, v in table.items():
                _require(
                    isinstance(v, (int, float)) and v >= 0,
                    f"{ctx}.{part}.{stage}", f"invalid {v!r}",
                )
    events = doc.get("events")
    _require(isinstance(events, list), "$.events", "missing events array")
    _require(len(events) <= limits["max_events"], "$.events",
             f"{len(events)} events exceed max_events {limits['max_events']}")
    last_seq = None
    for i, event in enumerate(events):
        ctx = f"$.events[{i}]"
        _require(isinstance(event, dict), ctx, "not an object")
        _require(isinstance(event.get("kind"), str) and bool(event["kind"]),
                 f"{ctx}.kind", "missing kind")
        seq = event.get("seq")
        _require(isinstance(seq, int) and seq >= 0, f"{ctx}.seq", f"invalid {seq!r}")
        _require(last_seq is None or seq > last_seq, f"{ctx}.seq",
                 f"events out of order ({last_seq} -> {seq})")
        last_seq = seq
    return len(frames)


def check_autodump(path: str, died: bool) -> tuple[bool, str]:
    """A run that ``died`` of retry exhaustion left a valid dump at ``path``:
    that reason, at least 3 pre-failure frames timing every stage, and the
    fault -> retry -> exhaustion event trail."""
    from repro.md.stages import Stage

    try:
        doc = load_flight_doc(path)
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
