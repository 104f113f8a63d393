"""Critical-path analysis of the simulated communication timeline.

The network simulator records every modeled message as a chain of
segments — ``inject`` (software injection overhead), ``queue`` (waiting
for a busy TNI engine), ``tni-engine`` (per-TNI serialization), ``wire``
(software latency + PUT latency + hops) — plus ``vcq-switch`` stalls and
inter-stage ``barrier`` spans.  This module answers the question the
raw timeline only implies: *which of those segments actually determined
the exchange's completion time, and by how much?*

:func:`analyze_critical_path` walks the dependency chain backward from
the last wire arrival.  Each step follows the edge that was binding:

* a ``wire`` segment starts exactly when its TNI engine released it;
* a ``tni-engine`` segment starts either when the message was injected
  (injector-bound) or when the engine finished its previous message
  (engine-bound — the per-TNI serialization of Fig. 8);
* an ``inject`` segment starts when the same thread finished its
  previous injection (injection-interval stall), after a ``vcq-switch``,
  or at a stage ``barrier`` whose own start is the previous stage's last
  arrival.

Because each predecessor *ends* where its successor *starts* (the
simulator computes both from the same floats), the chain partitions the
interval ``[window start, completion]`` exactly: the per-category
attribution sums to the total modeled exchange time to float precision —
an invariant the self-check battery enforces.  Residual gaps (none in
simulator-produced traces, but possible for hand-built spans) are
attributed to ``idle`` so the partition stays exact.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass, field

from repro.artifact import Cursor, dumps, read
from repro.machine.params import FUGAKU, MachineParams
from repro.obs.trace import MODEL, SpanRecord, TRACER, Tracer

#: Span categories that form the simulated-exchange dependency graph.
PATH_CATS = ("inject", "queue", "tni", "wire", "vcq", "barrier", "fault")

#: Human-readable label per attribution category (reports and CSV).
CATEGORY_LABELS = {
    "inject": "software injection overhead",
    "tni": "per-TNI engine serialization",
    "wire": "wire (latency + hops)",
    "vcq": "VCQ-switch stalls",
    "barrier": "inter-stage barriers",
    "queue": "blocked on busy TNI engine",
    "fault": "injected fault stalls",
    "idle": "unattributed gaps",
}


@dataclass(frozen=True)
class PathSegment:
    """One link of the critical chain, in absolute model seconds."""

    name: str
    cat: str
    start: float
    end: float
    track: str

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPathResult:
    """Longest dependency chain + per-resource attribution of one window."""

    base: float = 0.0  # analysis window start on the model timeline
    completion: float = 0.0  # last wire arrival
    segments: list[PathSegment] = field(default_factory=list)  # time order
    attribution: dict[str, float] = field(default_factory=dict)
    resource_busy: dict[str, float] = field(default_factory=dict)
    resource_blocked: dict[str, float] = field(default_factory=dict)
    messages: int = 0  # distinct logical messages in the window
    wire_segments: int = 0

    @property
    def total_time(self) -> float:
        """Modeled exchange time of the window (completion - base)."""
        return self.completion - self.base

    @property
    def total_attributed(self) -> float:
        """Sum of the per-category attribution (== total_time by construction)."""
        return sum(self.attribution.values())

    def bottlenecks(self) -> list[tuple[str, float, float]]:
        """Categories ranked by critical-path share: (cat, seconds, percent)."""
        total = self.total_time
        ranked = sorted(self.attribution.items(), key=lambda kv: -kv[1])
        return [
            (cat, secs, 100.0 * secs / total if total > 0 else 0.0)
            for cat, secs in ranked
        ]

    def top_bottleneck(self) -> str:
        """The category holding the largest share of the critical path."""
        ranked = self.bottlenecks()
        return ranked[0][0] if ranked else ""


def partitions(attribution, completion: float) -> bool:
    """Whether the seconds in ``attribution`` sum to ``completion`` within
    1e-9 relative — the invariant every critical-path account (whole run,
    per rank, serialized) obeys."""
    return abs(sum(attribution) - completion) <= 1e-9 * max(completion, 1e-12)


def require_partition(record: Cursor, completion: float) -> None:
    """A serialized record's non-empty ``attribution`` object holds numbers
    that :func:`partitions` its ``completion``."""
    attr = record.obj("attribution", nonempty=True)
    for secs in attr.each():
        secs.number()
    if not partitions(attr.value.values(), completion):
        record.fail(
            f"sums to {sum(attr.value.values())!r}, not completion {completion!r}",
            "attribution",
        )


def traced_round(
    exchange, phase: str = "forward", rank: int = 0, params: MachineParams = FUGAKU
) -> tuple[float, CriticalPathResult]:
    """Model one rank's exchange round under a fresh trace: the scalar
    ``modeled_exchange_time`` and the critical path of that round."""
    from repro.core.modeling import modeled_exchange_time
    from repro.obs import observe

    with observe(metrics=False) as (tracer, _):
        modeled = modeled_exchange_time(exchange, phase, params, rank)
    return modeled, analyze_critical_path(tracer)


def check_partitions_modeled(cp: CriticalPathResult, modeled: float) -> tuple[bool, str]:
    """The chain completes at the scalar ``modeled_exchange_time`` returned
    for the same round, and its attribution partitions the window."""
    ok = partitions([cp.completion], modeled) and partitions(
        cp.attribution.values(), cp.total_time
    )
    return ok, (
        f"modeled {modeled:.3e}s, chain {cp.total_attributed:.3e}s "
        f"(diff {abs(cp.total_attributed - cp.total_time):.1e})"
    )


def check_horizon_messages(cp: CriticalPathResult, exchange) -> tuple[bool, str]:
    """The distinct messages on the wire horizon are rank 0's send schedule."""
    sends = exchange.messages_per_rank()[0]
    return cp.messages == sends, (
        f"chain horizon saw {cp.messages}, TrafficLog schedule has {sends}"
    )


def _model_path_spans(tracer: Tracer) -> list[SpanRecord]:
    return [
        s
        for s in tracer.spans
        if s.clock == MODEL and s.cat in PATH_CATS
    ]


def analyze_critical_path(
    tracer: Tracer | None = None, spans: list[SpanRecord] | None = None
) -> CriticalPathResult:
    """Walk the dependency chain back from the last wire arrival.

    ``spans`` overrides the tracer as the input window (useful for
    analyzing one simulator round out of a longer trace); by default
    every model-clock exchange span of the global tracer is analyzed —
    one traced exchange round per analysis is the intended use.
    """
    if spans is None:
        tracer = tracer if tracer is not None else TRACER
        spans = _model_path_spans(tracer)
    else:
        spans = [s for s in spans if s.clock == MODEL and s.cat in PATH_CATS]

    result = CriticalPathResult()
    if not spans:
        return result

    wires = [s for s in spans if s.cat == "wire"]
    base = min(s.ts for s in spans)
    completion = max((s.end for s in wires), default=max(s.end for s in spans))
    result.base = base
    result.completion = completion
    result.wire_segments = len(wires)
    result.messages = len({(s.args.get("stage", 0), s.args.get("msg")) for s in wires})

    # -- aggregate busy/blocked per resource (all spans, path or not) ----
    for s in spans:
        if s.cat in ("tni", "inject", "wire", "vcq", "barrier", "fault"):
            result.resource_busy[s.track] = result.resource_busy.get(s.track, 0.0) + s.dur
        elif s.cat == "queue":
            result.resource_blocked[s.track] = (
                result.resource_blocked.get(s.track, 0.0) + s.dur
            )

    # -- chain walk-back -------------------------------------------------
    tol = 1e-12 + max(abs(completion), 1.0) * 1e-9
    by_end = sorted(spans, key=lambda s: s.end)
    ends = [s.end for s in by_end]

    def candidates_at(t: float) -> list[SpanRecord]:
        """Spans whose end lands within ``tol`` of ``t`` (binary search)."""
        lo = bisect.bisect_left(ends, t - tol)
        hi = bisect.bisect_right(ends, t + tol)
        return by_end[lo:hi]

    def predecessor(cur: SpanRecord) -> SpanRecord | None:
        cands = [c for c in candidates_at(cur.ts) if c is not cur and c.cat != "queue"]
        if not cands:
            return None
        msg = cur.args.get("msg")
        seg = cur.args.get("seg")
        stage = cur.args.get("stage")

        def score(c: SpanRecord) -> tuple:
            same_msg = (
                c.args.get("msg") == msg
                and c.args.get("seg") == seg
                and c.args.get("stage") == stage
                and msg is not None
            )
            same_track = c.track == cur.track
            # Prefer the message's own upstream segment, then the same
            # resource's previous occupant (engine/thread serialization),
            # then anything else ending here (barrier <- wire edges).
            return (not same_msg, not same_track, abs(c.end - cur.ts))

        return min(cands, key=score)

    chain: list[PathSegment] = []
    # Start from the wire span realizing the completion time.
    cur = max(wires, key=lambda s: s.end) if wires else max(spans, key=lambda s: s.end)
    cursor = cur.end
    for _ in range(len(spans) + 2):
        chain.append(PathSegment(cur.name, cur.cat, cur.ts, cursor, cur.track))
        cursor = cur.ts
        if cursor <= base + tol:
            break
        nxt = predecessor(cur)
        if nxt is None:
            # Gap with no producing span: close it as idle down to the
            # latest earlier span end (or the window base) and continue.
            earlier = [s for s in by_end if s.end < cursor - tol]
            floor = max((s.end for s in earlier), default=base)
            chain.append(PathSegment("idle", "idle", floor, cursor, ""))
            cursor = floor
            if cursor <= base + tol or not earlier:
                break
            nxt = max(earlier, key=lambda s: s.end)
        cur = nxt

    chain.reverse()
    result.segments = chain
    attribution: dict[str, float] = {}
    for seg in chain:
        attribution[seg.cat] = attribution.get(seg.cat, 0.0) + seg.dur
    result.attribution = attribution
    return result


def render_critical_path(result: CriticalPathResult) -> str:
    """Text report: ranked bottlenecks, then the chain itself."""
    lines = [
        "Critical path through the simulated exchange:",
        f"  completion {result.completion * 1e6:.3f} us over "
        f"{result.messages} messages ({result.wire_segments} wire segments); "
        f"attributed {result.total_attributed * 1e6:.3f} us "
        f"in {len(result.segments)} links",
        "",
        f"{'rank':<5}| {'category':<10}| {'share':>7} | {'seconds':>12} | what it is",
        "-" * 78,
    ]
    for i, (cat, secs, pct) in enumerate(result.bottlenecks(), 1):
        lines.append(
            f"{i:<5}| {cat:<10}|{pct:>6.1f}% | {secs:>12.4g} | "
            f"{CATEGORY_LABELS.get(cat, cat)}"
        )
    lines.append("-" * 78)
    busiest = sorted(result.resource_busy.items(), key=lambda kv: -kv[1])[:4]
    if busiest:
        lines.append(
            "busiest resources: "
            + ", ".join(f"{trk} {sec * 1e6:.2f}us" for trk, sec in busiest)
        )
    blocked = sum(result.resource_blocked.values())
    if blocked:
        lines.append(f"total injector time blocked on busy TNI engines: {blocked * 1e6:.2f}us")
    return "\n".join(lines)


def critpath_to_dict(result: CriticalPathResult) -> dict:
    """Structured (JSON-ready) form of a critical-path analysis.

    The machine-readable twin of :func:`render_critical_path`, for
    external tooling that would otherwise parse text.
    Versioned as ``repro-critpath/1``; attribution keys/values are the
    exact floats of the analysis (the partition invariant survives
    serialization).
    """
    return {
        "schema": "repro-critpath/1",
        "base": result.base,
        "completion": result.completion,
        "total": result.total_time,
        "attributed": result.total_attributed,
        "messages": result.messages,
        "wire_segments": result.wire_segments,
        "attribution": dict(result.attribution),
        "bottlenecks": [
            {"rank": i, "category": cat, "seconds": secs, "percent": pct,
             "label": CATEGORY_LABELS.get(cat, cat)}
            for i, (cat, secs, pct) in enumerate(result.bottlenecks(), 1)
        ],
        "segments": [
            {"name": s.name, "cat": s.cat, "start": s.start, "end": s.end,
             "track": s.track}
            for s in result.segments
        ],
        "resource_busy": dict(result.resource_busy),
        "resource_blocked": dict(result.resource_blocked),
    }


def write_critpath_csv(path: str, result: CriticalPathResult) -> None:
    """CSV export: one row per attribution category, ranked."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "category", "seconds", "percent", "label"])
        for i, (cat, secs, pct) in enumerate(result.bottlenecks(), 1):
            writer.writerow([i, cat, repr(secs), f"{pct:.2f}", CATEGORY_LABELS.get(cat, cat)])


def main(argv=None) -> int:
    """``python -m repro.obs.critpath TRACE.json [--json] [--csv PATH]``.

    Replays the model-clock spans of an exported Chrome trace through
    :func:`analyze_critical_path` and prints the attribution — as the
    text report by default, as ``repro-critpath/1`` JSON with ``--json``
    (the structured form external tooling consumes).
    """
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="repro.obs.critpath",
        description="Critical-path attribution of an exported trace.",
    )
    parser.add_argument("trace", help="Chrome trace-event JSON (from --trace)")
    parser.add_argument(
        "--json", action="store_true",
        help="print repro-critpath/1 JSON instead of the text report",
    )
    parser.add_argument("--csv", metavar="PATH", help="also write the ranked CSV")
    args = parser.parse_args(argv)

    from repro.obs.export import spans_from_chrome

    try:
        spans = spans_from_chrome(read(args.trace))
    except (OSError, ValueError) as exc:
        print(f"critpath: cannot load {args.trace}: {exc}", file=sys.stderr)
        return 2
    result = analyze_critical_path(spans=spans)
    if not result.segments:
        print(
            f"critpath: {args.trace} holds no model-clock exchange spans "
            "(record with --trace on a modeled run)",
            file=sys.stderr,
        )
        return 2
    if args.csv:
        write_critpath_csv(args.csv, result)
    if args.json:
        print(dumps(critpath_to_dict(result)), end="")
    else:
        print(render_critical_path(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
