"""Vector-clock happens-before race detector for the RDMA plane.

One-sided communication has no receive call to anchor ordering on: a PUT
lands whenever the NIC gets to it, and the §3.4 discipline (pre-sized
registered buffers, 4-deep receive rings, dirty-flag polling, fences)
exists precisely to order every *read* of a remote-written buffer after
the *land* of the write.  The GROMACS NVSHMEM redesign (PAPERS.md) hit
the same class of bug — remote writes landing in still-live buffers.

This detector reconstructs that ordering from a trace and flags the two
§3.4 hazard shapes the fault layer can inject:

* **HB001 — stale read**: memory was observed while a PUT targeting it
  was still in flight.  Evidence: a ring consume overlapping an
  unlanded put (``rdma-stale``/``ring-stale`` defer the land), a
  consume of a never-written slot, a fence entered with PUTs pending,
  or a put that never landed before the trace ended.
* **HB002 — overwrite before read**: a ring slot was acquired for
  writing while its previous write was still unconsumed (the exact
  failure a ring depth < 4 produces under the border->forward->reverse
  dependency chain).

Events come from :mod:`repro.obs.hbevents` (``cat="hb"`` instants) plus
the transport's per-message ``msg``/``recv`` instants, which contribute
message synchronization edges.  The detector maintains one vector clock
per actor (``rank{r}`` tracks, the ``nic``, the ``comm`` fence track):
message delivery joins the sender's clock into the receiver, a
successful consume joins the slot's write clock into the reader (the
paper's §3.5.1 dirty-flag poll), and a land joins the issuing put's
clock into the NIC.  A read is safe exactly when the land of every
overlapping write is in its causal past; reads that cannot be so
ordered are the findings.

Input is either the live :data:`~repro.obs.trace.TRACER`, or an
exported Chrome trace file (``repro analyze --trace run.json``) — the
export preserves every field the detector needs.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any

from repro.analysis.findings import AnalysisReport, Finding

#: The dynamic-rule catalog: stable ID -> one-line description.
HB_RULES: dict[str, str] = {
    "HB001": "stale read: memory observed before an in-flight RDMA PUT landed (§3.4)",
    "HB002": "overwrite before read: ring slot rewritten while unconsumed (§3.4)",
}


@dataclass(frozen=True)
class TraceEvent:
    """One instant event, normalized from the tracer or a Chrome export."""

    name: str
    cat: str
    track: str
    ts: float
    args: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TraceSpan:
    """One wall-clock span, used to anchor hazards to protocol phases."""

    name: str
    cat: str
    track: str
    ts: float
    dur: float

    @property
    def end(self) -> float:
        return self.ts + self.dur


class VectorClock:
    """A per-actor logical clock: ``{actor: count}`` with join/tick."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict[str, int] | None = None) -> None:
        self.counts: dict[str, int] = dict(counts) if counts else {}

    def tick(self, actor: str) -> None:
        """Advance ``actor``'s own component."""
        self.counts[actor] = self.counts.get(actor, 0) + 1

    def join(self, other: "VectorClock") -> None:
        """Component-wise maximum (a synchronization edge arriving)."""
        for actor, count in other.counts.items():
            if count > self.counts.get(actor, 0):
                self.counts[actor] = count

    def copy(self) -> "VectorClock":
        """Snapshot this clock (joins must not alias the source counts)."""
        return VectorClock(self.counts)

    def dominates(self, other: "VectorClock") -> bool:
        """True when ``other`` is in this clock's causal past."""
        return all(
            self.counts.get(actor, 0) >= count
            for actor, count in other.counts.items()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{a}:{c}" for a, c in sorted(self.counts.items()))
        return f"VC({inner})"


@dataclass
class _PendingPut:
    """A PUT that was issued but whose land has not been seen yet."""

    put: int
    res: str
    lo: int
    n: int
    actor: str
    clock: VectorClock
    ts: float


def _overlaps(write: _PendingPut, res: str, lo: int | None, n: int | None) -> bool:
    """Whether a read of ``res[lo:lo+n]`` touches ``write``'s target.

    Ring resources nest (``ring7`` covers ``ring7/slot2``); region
    resources (``stag{N}``) compare element ranges.
    """
    if write.res != res and not res.startswith(write.res + "/") and not write.res.startswith(res + "/"):
        return False
    if lo is None or n is None or write.n == 0:
        return True
    return write.lo < lo + n and lo < write.lo + write.n


def events_from_tracer(tracer: Any = None) -> tuple[list[TraceEvent], list[TraceSpan]]:
    """Normalize the live tracer's instants and wall spans."""
    from repro.obs.trace import TRACER, WALL

    tracer = tracer if tracer is not None else TRACER
    events = [
        TraceEvent(e.name, e.cat, e.track, e.ts, dict(e.args))
        for e in tracer.instants
    ]
    spans = [
        TraceSpan(s.name, s.cat, s.track, s.ts, s.dur)
        for s in tracer.spans
        if s.clock == WALL
    ]
    return events, spans


def events_from_chrome(doc: dict) -> tuple[list[TraceEvent], list[TraceSpan]]:
    """Re-parse an exported Chrome trace document (wall process only).

    The export maps tracks to numbered threads with ``thread_name``
    metadata; instants keep their args verbatim, so the detector sees
    the same stream a live run produces.
    """
    tracks: dict[tuple[int, int], str] = {}
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            tracks[(ev["pid"], ev["tid"])] = ev["args"]["name"]
    events: list[TraceEvent] = []
    spans: list[TraceSpan] = []
    for ev in doc.get("traceEvents", []):
        if ev.get("pid") != 1:  # pid 1 = the wall-clock process
            continue
        track = tracks.get((ev["pid"], ev.get("tid", 0)), "main")
        if ev.get("ph") == "i":
            events.append(
                TraceEvent(
                    ev["name"], ev.get("cat", ""), track,
                    ev["ts"] / 1e6, dict(ev.get("args", {})),
                )
            )
        elif ev.get("ph") == "X":
            spans.append(
                TraceSpan(
                    ev["name"], ev.get("cat", ""), track,
                    ev["ts"] / 1e6, ev.get("dur", 0.0) / 1e6,
                )
            )
    # The tracer's instants list is program order; exported events keep
    # that order, but sort defensively by timestamp for foreign traces.
    events.sort(key=lambda e: e.ts)
    return events, spans


def _enclosing_span(spans: list[TraceSpan], ts: float) -> str:
    """Name of the innermost protocol span covering ``ts`` (or '')."""
    best: TraceSpan | None = None
    for span in spans:
        if span.cat not in ("comm", "rdma", "retry", "stage"):
            continue
        if span.ts <= ts <= span.end:
            if best is None or span.ts >= best.ts:
                best = span
    return best.name if best else ""


class _Detector:
    """One pass over the event stream, accumulating hazards."""

    def __init__(self, spans: list[TraceSpan], report: AnalysisReport) -> None:
        self.spans = spans
        self.report = report
        self.clocks: defaultdict[str, VectorClock] = defaultdict(VectorClock)
        self.pending: dict[tuple[str, int], _PendingPut] = {}
        self.slot_dirty: dict[str, bool] = {}
        self.slot_write_clock: dict[str, VectorClock] = {}
        self.msg_queues: defaultdict[tuple[int, int, str], deque[VectorClock]] = (
            defaultdict(deque)
        )
        self.flagged: set[tuple] = set()

    # -- hazard emission -------------------------------------------------
    def _flag(self, key: tuple, finding: Finding) -> None:
        if key in self.flagged:
            return
        self.flagged.add(key)
        self.report.add(finding)

    def _span_detail(self, ts: float, extra: str) -> str:
        span = _enclosing_span(self.spans, ts)
        where = f"during span '{span}'" if span else "outside any protocol span"
        return f"{where}; {extra}" if extra else where

    # -- event handlers --------------------------------------------------
    def feed(self, ev: TraceEvent) -> None:
        actor = ev.track
        self.clocks[actor].tick(actor)
        handler = {
            "msg": self._on_msg,
            "recv": self._on_recv,
            "hb-put": self._on_put,
            "hb-land": self._on_land,
            "hb-write": self._on_write,
            "hb-read": self._on_read,
            "hb-fence": self._on_fence,
        }.get(ev.name)
        if handler is not None:
            handler(ev)

    def _on_msg(self, ev: TraceEvent) -> None:
        src, dst = ev.args.get("src"), ev.args.get("dst")
        if src is None or dst is None:
            return
        key = (int(src), int(dst), str(ev.args.get("phase", "")))
        self.msg_queues[key].append(self.clocks[f"rank{src}"].copy())

    def _on_recv(self, ev: TraceEvent) -> None:
        src, dst = ev.args.get("src"), ev.args.get("dst")
        if src is None or dst is None:
            return
        key = (int(src), int(dst), str(ev.args.get("phase", "")))
        queue = self.msg_queues.get(key)
        if queue:
            self.clocks[ev.track].join(queue.popleft())

    def _on_put(self, ev: TraceEvent) -> None:
        res = str(ev.args.get("res", ""))
        put = int(ev.args.get("put", 0))
        self.pending[(res, put)] = _PendingPut(
            put=put,
            res=res,
            lo=int(ev.args.get("lo", 0)),
            n=int(ev.args.get("n", 0)),
            actor=ev.track,
            clock=self.clocks[ev.track].copy(),
            ts=ev.ts,
        )

    def _on_land(self, ev: TraceEvent) -> None:
        res = str(ev.args.get("res", ""))
        put = int(ev.args.get("put", 0))
        write = self.pending.pop((res, put), None)
        if write is not None:
            self.clocks[ev.track].join(write.clock)

    def _on_write(self, ev: TraceEvent) -> None:
        res = str(ev.args.get("res", ""))
        if self.slot_dirty.get(res):
            self._flag(
                ("HB002", res, ev.ts),
                Finding(
                    rule="HB002",
                    path="<trace>",
                    message=f"{ev.track} rewrote {res} while its previous "
                    "write was unconsumed",
                    detail=self._span_detail(
                        ev.ts,
                        "the 4-deep round-robin ring exists so adjacent "
                        "stages never reuse a live slot (paper Fig. 10)",
                    ),
                ),
            )
        if int(ev.args.get("ok", 1)):
            self.slot_dirty[res] = True
            self.slot_write_clock[res] = self.clocks[ev.track].copy()

    def _on_read(self, ev: TraceEvent) -> None:
        res = str(ev.args.get("res", ""))
        ok = int(ev.args.get("ok", 1))
        reader = self.clocks[ev.track]
        hit_pending = False
        for write in list(self.pending.values()):
            if not _overlaps(write, res, None, None):
                continue
            hit_pending = True
            self._flag(
                ("HB001", write.res, write.put),
                Finding(
                    rule="HB001",
                    path="<trace>",
                    message=f"{ev.track} observed {res} while put #{write.put} "
                    f"from {write.actor} toward {write.res} was still in "
                    "flight",
                    detail=self._span_detail(
                        ev.ts,
                        "consume found the slot clean"
                        if not ok
                        else "no happens-before edge orders the land "
                        "before this read",
                    ),
                ),
            )
        if ok:
            self.slot_dirty[res] = False
            write_clock = self.slot_write_clock.get(res)
            if write_clock is not None:
                # The dirty-flag poll (§3.5.1) is the acquire edge.
                reader.join(write_clock)
        elif not hit_pending:
            self._flag(
                ("HB001", res, "desync"),
                Finding(
                    rule="HB001",
                    path="<trace>",
                    message=f"{ev.track} consumed {res} with no matching "
                    "write in flight (cursor desync)",
                    detail=self._span_detail(ev.ts, ""),
                ),
            )

    def _on_fence(self, ev: TraceEvent) -> None:
        stage = str(ev.args.get("stage", ""))
        for write in self.pending.values():
            self._flag(
                ("HB001", write.res, write.put),
                Finding(
                    rule="HB001",
                    path="<trace>",
                    message=f"fence at stage '{stage}' entered with put "
                    f"#{write.put} from {write.actor} toward {write.res} "
                    f"[{write.lo}, {write.lo + write.n}) still in flight",
                    detail=self._span_detail(
                        ev.ts,
                        "readers past the fence would observe the previous "
                        "epoch without the retry loop (paper §3.4)",
                    ),
                ),
            )

    def finish(self, end_ts: float) -> None:
        """Flag puts that never landed before the trace ended."""
        for write in self.pending.values():
            self._flag(
                ("HB001", write.res, write.put, "lost"),
                Finding(
                    rule="HB001",
                    path="<trace>",
                    message=f"put #{write.put} from {write.actor} toward "
                    f"{write.res} never landed before the trace ended",
                    detail=self._span_detail(end_ts, ""),
                ),
            )


def detect_races(
    tracer: Any = None,
    *,
    events: list[TraceEvent] | None = None,
    spans: list[TraceSpan] | None = None,
) -> AnalysisReport:
    """Run the happens-before analysis; returns the hazard report.

    Pass nothing to analyze the live global tracer, or ``events``/
    ``spans`` (e.g. from :func:`events_from_chrome`) for a saved trace.
    """
    if events is None:
        events, tracer_spans = events_from_tracer(tracer)
        spans = tracer_spans if spans is None else spans
    spans = spans or []
    report = AnalysisReport(tool="race-detector")
    detector = _Detector(spans, report)
    relevant = 0
    for ev in events:
        if ev.cat in ("hb", "msg", "recv"):
            relevant += 1
            detector.feed(ev)
    detector.finish(events[-1].ts if events else 0.0)
    report.events_analyzed = relevant
    return report


def detect_races_in_file(path: str) -> AnalysisReport:
    """Analyze an exported Chrome trace file."""
    from repro.artifact import read

    events, spans = events_from_chrome(read(path))
    report = detect_races(events=events, spans=spans)
    report.files_analyzed.append(path)
    return report


def check_silent(report: AnalysisReport) -> tuple[bool, str]:
    """The detector found no hazard."""
    return report.clean, (
        f"{len(report.findings)} hazard(s) in {report.events_analyzed} events"
    )


def check_flags_stale(report: AnalysisReport) -> tuple[bool, str]:
    """Injected §3.4 stale windows / rings are flagged, as HB001 only."""
    rules = sorted(report.by_rule())
    return rules == ["HB001"], f"rules {rules}"
