"""Reports derived from the trace — the breakdowns, *recomputed*.

The point of the observability layer is that the numbers the repository
already reports (``StageTimers`` breakdown, ``TrafficLog`` accounts) can
be re-derived from the span/event stream and cross-checked.  This module
does the deriving:

* :func:`stage_breakdown_from_trace` — Table-3-style per-stage seconds
  summed from ``cat="stage"`` spans (bit-exact against ``StageTimers``
  because spans store the same measured floats the timers accumulate).
* :func:`phase_summary_from_trace` — per-phase message counts and byte
  volumes recomputed from the per-message instants, comparable 1:1 with
  :meth:`repro.runtime.transport.TrafficLog.summary` and with the
  Table 1 analytic predictions.
* text / CSV renderers for both.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from repro.md.stages import Stage
from repro.obs.trace import MODEL, TRACER, Tracer, WALL


def stage_breakdown_from_trace(tracer: Tracer | None = None, which: str = "wall") -> dict[str, float]:
    """Per-stage seconds summed from the trace's stage spans.

    ``which`` selects the timeline: ``"wall"`` for measured process time,
    ``"model"`` for simulated Fugaku seconds.  Spans are summed in record
    order — the same float-addition order the timers used — so the result
    equals ``StageTimers`` totals exactly, not just approximately.
    """
    if which not in ("wall", "model"):
        raise ValueError(f"which must be 'wall' or 'model', got {which!r}")
    tracer = tracer if tracer is not None else TRACER
    clock = WALL if which == "wall" else MODEL
    out = {s.value: 0.0 for s in Stage}
    for span in tracer.spans:
        if span.cat == "stage" and span.clock == clock:
            out[span.name] = out.get(span.name, 0.0) + span.dur
    return out


def render_stage_table(tracer: Tracer | None = None, which: str = "wall") -> str:
    """Table-3-style breakdown rendered from spans (not from the timers)."""
    breakdown = stage_breakdown_from_trace(tracer, which)
    total = sum(breakdown.values())
    unit = "wall" if which == "wall" else "simulated Fugaku"
    lines = [
        f"Span-derived stage breakdown ({unit} seconds):",
        f"{'Section':<10}| {'time':>12} |{'%total':>8}",
        "-" * 36,
    ]
    for name, t in breakdown.items():
        pct = 100.0 * t / total if total > 0 else 0.0
        lines.append(f"{name:<10}| {t:>12.5g} |{pct:>7.2f}%")
    lines.append("-" * 36)
    lines.append(f"Total: {total:.5g} s over {len(tracer.spans if tracer else TRACER.spans)} spans")
    return "\n".join(lines)


@dataclass(frozen=True)
class PhaseTraffic:
    """Message count and byte volume of one phase, recomputed from trace."""

    phase: str
    count: int
    total_bytes: int


def phase_summary_from_trace(tracer: Tracer | None = None) -> dict[str, PhaseTraffic]:
    """Per-phase traffic recomputed from the per-message instants.

    The instants are emitted by :class:`~repro.runtime.transport.Transport`
    (category ``"msg"``), so this is an independent re-aggregation of the
    same ground truth :class:`~repro.runtime.transport.TrafficLog` keeps —
    the consistency checks compare the two.
    """
    tracer = tracer if tracer is not None else TRACER
    counts: dict[str, int] = {}
    nbytes: dict[str, int] = {}
    for ev in tracer.instants:
        if ev.cat != "msg":
            continue
        phase = ev.args.get("phase", "")
        counts[phase] = counts.get(phase, 0) + 1
        nbytes[phase] = nbytes.get(phase, 0) + int(ev.args.get("nbytes", 0))
    return {
        ph: PhaseTraffic(phase=ph, count=counts[ph], total_bytes=nbytes[ph])
        for ph in counts
    }


def render_phase_table(tracer: Tracer | None = None) -> str:
    """Per-phase message counts/bytes recomputed from the trace."""
    summary = phase_summary_from_trace(tracer)
    lines = [
        "Span-derived traffic by phase:",
        f"{'Phase':<18}| {'messages':>9} | {'bytes':>12}",
        "-" * 45,
    ]
    for phase in sorted(summary):
        t = summary[phase]
        lines.append(f"{phase:<18}| {t.count:>9d} | {t.total_bytes:>12d}")
    lines.append("-" * 45)
    return "\n".join(lines)


def write_stage_csv(path: str, tracer: Tracer | None = None) -> None:
    """CSV export of the span-derived breakdown (both timelines)."""
    wall = stage_breakdown_from_trace(tracer, "wall")
    model = stage_breakdown_from_trace(tracer, "model")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "wall_seconds", "model_seconds"])
        for stage in Stage:
            writer.writerow([stage.value, wall[stage.value], model[stage.value]])


def write_phase_csv(path: str, tracer: Tracer | None = None) -> None:
    """CSV export of the span-derived traffic table (phase rows sorted)."""
    summary = phase_summary_from_trace(tracer)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "messages", "bytes"])
        for phase in sorted(summary):
            t = summary[phase]
            writer.writerow([t.phase, t.count, t.total_bytes])


def check_phase_traffic(tracer: Tracer, log) -> tuple[bool, str]:
    """The trace's per-phase counts and bytes equal ``log``'s, over the same
    set of phases."""
    phases = phase_summary_from_trace(tracer)
    agree = {m.phase for m in log.messages} == set(phases) and all(
        (t.count, t.total_bytes) == (log.summary(ph).count, log.summary(ph).total_bytes)
        for ph, t in phases.items()
    )
    return agree, f"phases {sorted(phases)}"


def check_forward_counts(tracer: Tracer, sim) -> tuple[bool, str]:
    """The trace's forward messages are Table 1's per-rank count for the
    run's geometry, times ranks, times forward phases (the steps that did
    not reneighbour)."""
    from repro.core.analytic import analyze_simulation

    phases = phase_summary_from_trace(tracer)
    per_rank = analyze_simulation(sim).total_messages
    expected = per_rank * sim.world.size * (sim.step_count - sim.rebuilds)
    measured = phases["forward"].count if "forward" in phases else 0
    return measured == expected, f"measured {measured}, predicted {expected}"


def check_stage_breakdown(tracer: Tracer, timers, which: str = "wall") -> tuple[bool, str]:
    """The span-derived breakdown on timeline ``which`` reproduces the
    ``StageTimers`` account bit-exactly."""
    derived = stage_breakdown_from_trace(tracer, which)
    account = timers.wall if which == "wall" else timers.model
    err = max(abs(derived[s.value] - t) for s, t in account.items())
    return err == 0.0, f"max |span sum - timer| = {err:.2e}"
