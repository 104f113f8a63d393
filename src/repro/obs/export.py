"""Chrome trace-event export (viewable in Perfetto / chrome://tracing).

Maps the tracer's two timelines onto two trace "processes":

* pid 1 — the wall clock of this Python process (steps, stages,
  exchange phases, message instants),
* pid 2 — the simulated Fugaku machine (injection / TNI-engine / wire
  segments, thread-pool regions, modeled stage seconds).

Tracks (``"rank0/thr2"``, ``"tni3"``, ``"stages"``, ...) become named
threads.  Spans are emitted as complete events (``"ph": "X"``), instants
as ``"ph": "i"``, with timestamps in microseconds per the trace-event
format.  :func:`validate_chrome_trace` checks the schema the CI smoke
run relies on — it is intentionally strict about the fields viewers
actually parse.
"""

from __future__ import annotations

import json
import numbers

from repro.artifact import Cursor
from repro.obs.metrics import METRICS, Counter, Gauge, MetricsRegistry
from repro.obs.trace import MODEL, TRACER, Tracer, WALL

_PID = {WALL: 1, MODEL: 2}
_PROCESS_NAMES = {1: "wall clock", 2: "simulated machine"}


def _clean_args(args: dict) -> dict:
    """JSON-safe copy of span args (everything else stringified)."""
    out = {}
    for k, v in args.items():
        if isinstance(v, (str, bool)) or isinstance(v, numbers.Real):
            out[k] = v
        else:
            out[k] = repr(v)
    return out


def chrome_trace_events(
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    extra_events: list[dict] | None = None,
) -> dict:
    """Build the trace-event JSON document for ``tracer`` (+ metrics).

    Counters and gauges from ``registry`` (default: the global one) ride
    along as a final batch of counter (``"ph": "C"``) samples so the
    totals are visible in the same viewer.  ``extra_events`` appends
    pre-built trace events (e.g. the critical-path counter tracks from
    :func:`repro.obs.critpath.critpath_counter_events`); they pass
    through :func:`validate_chrome_trace` like everything else.
    """
    tracer = tracer if tracer is not None else TRACER
    registry = registry if registry is not None else METRICS

    events: list[dict] = []
    tids: dict[tuple[int, str], int] = {}

    for pid, name in _PROCESS_NAMES.items():
        events.append(
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name", "args": {"name": name}}
        )

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == pid]) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tids[key],
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        return tids[key]

    for span in tracer.spans:
        pid = _PID[span.clock]
        events.append(
            {
                "name": span.name,
                "cat": span.cat or "default",
                "ph": "X",
                "pid": pid,
                "tid": tid_for(pid, span.track),
                "ts": span.ts * 1e6,
                "dur": span.dur * 1e6,
                "args": _clean_args(span.args),
            }
        )

    for ev in tracer.instants:
        pid = _PID[ev.clock]
        events.append(
            {
                "name": ev.name,
                "cat": ev.cat or "default",
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid_for(pid, ev.track),
                "ts": ev.ts * 1e6,
                "args": _clean_args(ev.args),
            }
        )

    t_end = max(
        [s.end for s in tracer.spans if s.clock == WALL] + [e.ts for e in tracer.instants],
        default=0.0,
    )
    for metric in registry.all_metrics():
        if isinstance(metric, (Counter, Gauge)):
            events.append(
                {
                    "name": metric.name,
                    "cat": "metric",
                    "ph": "C",
                    "pid": 1,
                    "tid": 0,
                    "ts": t_end * 1e6,
                    "args": {metric.name: metric.value},
                }
            )

    if extra_events:
        events.extend(extra_events)

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    extra_events: list[dict] | None = None,
) -> dict:
    """Serialize :func:`chrome_trace_events` to ``path``; returns the doc."""
    doc = chrome_trace_events(tracer, registry, extra_events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc


def validate_chrome_trace(doc: dict) -> int:
    """Validate a trace-event document; returns the event count.

    Raises ``ValueError("trace document invalid at <path>: <why>")``
    naming the first offending event field.  Checks the invariants
    viewers depend on: the ``traceEvents`` array, known phase types,
    string names, integer pid/tid, and non-negative, non-NaN microsecond
    timestamps/durations on timed events.
    """
    events = Cursor(doc, "trace document").arr("traceEvents")
    for ev in events.each():
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "i", "I", "M", "C"):
            ev.fail(f"unknown phase {ph!r}", "ph")
        ev.text("name", nonempty=True)
        for field in ("pid", "tid"):
            if field in ev.value:
                ev.integer(field)
        if ph in ("X", "i", "I", "C"):
            ev.number("ts", lo=0)
        if ph == "X":
            ev.number("dur", lo=0)
        if "args" in ev.value:
            ev.require(isinstance(ev.value["args"], dict), "args must be an object", "args")
    return len(events.value)


def spans_from_chrome(doc: dict) -> list:
    """Rebuild :class:`~repro.obs.trace.SpanRecord` s from an exported doc.

    The inverse of the span half of :func:`chrome_trace_events`: complete
    events (``"ph": "X"``) map back to spans, pid back to the clock via
    the same ``_PID`` table, tid back to the track name via the
    ``thread_name`` metadata events, and microsecond timestamps back to
    seconds.  This is what lets the critical-path analyzer replay a
    trace *file* instead of a live tracer — attribution
    over an exported trace agrees with the live analysis to float
    round-trip precision.
    """
    from repro.obs.trace import SpanRecord

    validate_chrome_trace(doc)
    clock_for = {pid: clock for clock, pid in _PID.items()}
    tracks: dict[tuple[int, int], str] = {}
    for ev in doc["traceEvents"]:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            tracks[(ev["pid"], ev["tid"])] = ev.get("args", {}).get("name", "")
    spans = []
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        pid = ev.get("pid")
        if pid not in clock_for:
            continue
        spans.append(
            SpanRecord(
                name=ev["name"],
                cat=ev.get("cat", ""),
                ts=ev["ts"] / 1e6,
                dur=ev["dur"] / 1e6,
                clock=clock_for[pid],
                track=tracks.get((pid, ev.get("tid")), ""),
                args=dict(ev.get("args", {})),
            )
        )
    return spans
