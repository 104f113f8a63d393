"""Always-on telemetry: counters, sketches, and the flight recorder.

The third observability tier.  The tracer and the metrics registry are
*sessions* — heavyweight, per-event, and deliberately kept off the
exchange's direct delivery plane (``GhostExchange._plane``) because
per-message spans/histograms cost more than the replay they would observe.
Telemetry is the tier production cannot turn off: **counter-shaped, not
event-shaped** (the pMR lesson — per-connection/buffer accounting stays
on the hot path when it is amortized), so enabling it forfeits nothing.

The batching discipline:

* hot-path code keeps doing exactly what it already does — bump plain
  integer attributes (``_fastpath_phases``, ``retries``, arena
  re-layout counts, the traffic log's running totals).  No telemetry
  call ever appears inside a per-message or per-phase loop;
* once per step, :meth:`StepTelemetry.flush_step` folds the *deltas* of
  those cumulative feeds into named counters/gauges, records per-stage
  wall/model durations into mergeable
  :class:`~repro.obs.sketch.QuantileSketch` es (p50/p95/p99 without
  storing samples), and appends one frame to the
  :class:`~repro.obs.flight.FlightRecorder` ring;
* rare notable events (fault injections, retries, degradations, retry
  exhaustion) are pushed eagerly via :meth:`TelemetryControl.emit` —
  they only fire under an armed fault session, so the fault-free hot
  path never sees them.

The module-level :data:`TELEMETRY` control starts **enabled** (unlike
``TRACER``/``METRICS``): the ``telemetry-overhead`` bench guard holds
its cost under 5% wall on the exchange-dominated suite with the fast
path still active in both arms.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.obs.flight import FlightRecorder
from repro.obs.sketch import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.md.simulation import Simulation

#: Quantiles exported by the OpenMetrics summary blocks.
EXPORT_QUANTILES = (0.5, 0.95, 0.99)

#: Event kinds that trigger an automatic flight-recorder dump when
#: ``TELEMETRY.autodump_path`` is set.
AUTODUMP_EVENTS = frozenset({"degradation", "retry-exhausted", "selfcheck-failure"})

_MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, Any]) -> _MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the OpenMetrics/Prometheus text format.

    Backslash, double-quote, and newline are the three characters the
    exposition format requires escaping inside quoted label values —
    unescaped they corrupt the line for every scraper.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_str(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    return (
        "{"
        + ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
        + "}"
    )


def write_textfile(path: str, text: str) -> None:
    """Atomically (re)write ``path`` — write a sibling temp file, then
    rename into place, so concurrent readers (node-exporter's textfile
    collector, a tailing CI step) always see a complete document, never
    a torn write.
    """
    import os

    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


class StepTelemetry:
    """Per-run telemetry state: counters, gauges, sketches, flight ring.

    One instance per :class:`~repro.md.simulation.Simulation` (attached
    at construction when :data:`TELEMETRY` is enabled), so concurrent or
    back-to-back runs never bleed into each other's percentiles.
    """

    def __init__(
        self,
        flight_steps: int | None = None,
        flight_events: int | None = None,
        rel_accuracy: float = 0.01,
    ) -> None:
        self.counters: dict[_MetricKey, float] = {}
        self.gauges: dict[_MetricKey, float] = {}
        self.sketches: dict[_MetricKey, QuantileSketch] = {}
        self.rel_accuracy = rel_accuracy
        self.flight = FlightRecorder(
            max_steps=flight_steps or TELEMETRY.flight_steps,
            max_events=flight_events or TELEMETRY.flight_events,
        )
        # Cumulative-feed snapshots for delta folding.
        self._prev_wall: dict[str, float] = {}
        self._prev_model: dict[str, float] = {}
        self._prev_exchange: dict[str, float] = {}
        self._prev_exchange_id: int | None = None
        self._prev_msg_count = 0
        self._prev_msg_bytes = 0

    # -- primitive instruments ----------------------------------------------
    def counter_add(self, name: str, amount: float, **labels: Any) -> None:
        """Add ``amount`` (>= 0) to a named monotonic counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        k = _key(name, labels)
        self.counters[k] = self.counters.get(k, 0.0) + amount

    def gauge_set(self, name: str, value: float, **labels: Any) -> None:
        """Overwrite a named gauge."""
        self.gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one sample into a named quantile sketch."""
        k = _key(name, labels)
        sk = self.sketches.get(k)
        if sk is None:
            sk = QuantileSketch(rel_accuracy=self.rel_accuracy)
            self.sketches[k] = sk
        sk.add(value)

    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of one counter (0 when never incremented)."""
        return self.counters.get(_key(name, labels), 0.0)

    def sketch(self, name: str, **labels: Any) -> QuantileSketch | None:
        """The sketch registered under ``name``/labels, if any."""
        return self.sketches.get(_key(name, labels))

    # -- events ----------------------------------------------------------------
    def record_event(self, kind: str, **fields: Any) -> None:
        """One notable event: counted, ring-buffered, maybe auto-dumped."""
        self.counter_add("events_total", 1.0, kind=kind)
        self.flight.record_event(kind, **fields)
        if kind in AUTODUMP_EVENTS and TELEMETRY.autodump_path is not None:
            self.flight.write(TELEMETRY.autodump_path, reason=kind)

    # -- the per-step flush -----------------------------------------------------
    def flush_step(self, sim: Simulation) -> None:
        """Fold one step's cumulative feeds into counters/sketches/frames.

        Amortized O(stages + ranks) per step, independent of atom or
        message counts — every per-message cost was already paid (or
        skipped) by the existing fast-path bookkeeping this reads.
        """
        timers = sim.timers
        wall_delta: dict[str, float] = {}
        model_delta: dict[str, float] = {}
        for stage, total in timers.wall.items():
            d = total - self._prev_wall.get(stage.value, 0.0)
            wall_delta[stage.value] = d
            self._prev_wall[stage.value] = total
            self.observe("stage_wall_seconds", d, stage=stage.value)
        model_on = sim.config.model_machine_time
        for stage, total in timers.model.items():
            d = total - self._prev_model.get(stage.value, 0.0)
            model_delta[stage.value] = d
            self._prev_model[stage.value] = total
            if model_on:
                self.observe("stage_model_seconds", d, stage=stage.value)
        step_wall = sum(wall_delta.values())
        self.observe("step_wall_seconds", step_wall)

        # Exchange feed (plan cache, arena, retries).  A degradation
        # swaps the exchange object; its counters restart from zero, so
        # the snapshot resets with it and monotonicity is preserved.
        counters, gauges = sim.exchange.telemetry_feed()
        if id(sim.exchange) != self._prev_exchange_id:
            self._prev_exchange = {}
            self._prev_exchange_id = id(sim.exchange)
        exchange_delta: dict[str, float] = {}
        for name, total in counters.items():
            d = total - self._prev_exchange.get(name, 0.0)
            self._prev_exchange[name] = total
            exchange_delta[name] = d
            if d:
                self.counter_add(name + "_total", d)
        for name, value in gauges.items():
            self.gauge_set(name, value)

        # Transport feed: the traffic log's running grand totals (kept
        # by ``record`` in O(1), surviving per-step log clears).
        log = sim.world.transport.log
        msg_d = log.grand_total_count - self._prev_msg_count
        bytes_d = log.grand_total_bytes - self._prev_msg_bytes
        self._prev_msg_count = log.grand_total_count
        self._prev_msg_bytes = log.grand_total_bytes
        self.counter_add("messages_total", msg_d)
        self.counter_add("message_bytes_total", bytes_d)
        self.counter_add("steps_total", 1.0)

        self.flight.record_frame(
            {
                "step": sim.step_count,
                "wall": wall_delta,
                "model": model_delta,
                "messages": msg_d,
                "bytes": bytes_d,
                "fastpath_phases": exchange_delta.get("fastpath_phases", 0.0),
                "slowpath_phases": exchange_delta.get("slowpath_phases", 0.0),
                "retries": exchange_delta.get("retries", 0.0),
                "pattern": sim.exchange.name,
            }
        )

    # -- export ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Structured snapshot (JSON-ready) of every instrument."""
        def table(d: dict[_MetricKey, float]) -> dict[str, float]:
            return {
                name + _label_str(labels): v
                for (name, labels), v in sorted(d.items())
            }

        return {
            "counters": table(self.counters),
            "gauges": table(self.gauges),
            "sketches": {
                name + _label_str(labels): sk.to_dict()
                for (name, labels), sk in sorted(self.sketches.items())
            },
            "flight": {
                "frames": len(self.flight.frames),
                "events": len(self.flight.events),
            },
        }

    def render_openmetrics(self, prefix: str = "repro_") -> str:
        """OpenMetrics/Prometheus text exposition of every instrument.

        Counters render with the conventional ``_total`` suffix (the
        feed names already carry it), sketches as summary blocks with
        ``quantile`` labels plus ``_count``/``_sum`` series, and the
        document ends with the OpenMetrics ``# EOF`` marker.
        """
        lines: list[str] = []
        by_name_c: dict[str, list[tuple[tuple[tuple[str, str], ...], float]]] = {}
        for (name, labels), v in sorted(self.counters.items()):
            by_name_c.setdefault(name, []).append((labels, v))
        for name, series in by_name_c.items():
            base = prefix + name
            lines.append(f"# TYPE {base} counter")
            for labels, v in series:
                lines.append(f"{base}{_label_str(labels)} {v:g}")
        by_name_g: dict[str, list[tuple[tuple[tuple[str, str], ...], float]]] = {}
        for (name, labels), v in sorted(self.gauges.items()):
            by_name_g.setdefault(name, []).append((labels, v))
        for name, series in by_name_g.items():
            base = prefix + name
            lines.append(f"# TYPE {base} gauge")
            for labels, v in series:
                lines.append(f"{base}{_label_str(labels)} {v:g}")
        by_name_s: dict[str, list[tuple[tuple[tuple[str, str], ...], QuantileSketch]]] = {}
        for (name, labels), sk in sorted(self.sketches.items()):
            by_name_s.setdefault(name, []).append((labels, sk))
        for name, sketches in by_name_s.items():
            base = prefix + name
            lines.append(f"# TYPE {base} summary")
            for labels, sk in sketches:
                for q in EXPORT_QUANTILES:
                    ql = labels + (("quantile", f"{q:g}"),)
                    lines.append(f"{base}{_label_str(ql)} {sk.quantile(q):g}")
                lines.append(f"{base}_count{_label_str(labels)} {sk.count}")
                lines.append(f"{base}_sum{_label_str(labels)} {sk.total:g}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


class TelemetryControl:
    """Process-wide switchboard for the always-on telemetry plane.

    Holds the enable flag (default **on**), the flight-recorder ring
    depths new :class:`StepTelemetry` instances inherit, the optional
    auto-dump path, and a reference to the most recently attached
    per-run telemetry (what the CLI exports and global event sources —
    the fault injector — feed into).
    """

    def __init__(self) -> None:
        self.enabled = True
        self.flight_steps = 64
        self.flight_events = 256
        self.autodump_path: str | None = None
        self.active: StepTelemetry | None = None

    def attach(self, telemetry: StepTelemetry) -> None:
        """Make ``telemetry`` the active sink for global event sources."""
        self.active = telemetry

    def emit(self, kind: str, **fields: Any) -> None:
        """Route one event to the active per-run telemetry (if any)."""
        st = self.active
        if st is not None:
            st.record_event(kind, **fields)

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Temporarily turn the plane off (overhead-guard control arm)."""
        prev_enabled, prev_active = self.enabled, self.active
        self.enabled = False
        self.active = None
        try:
            yield
        finally:
            self.enabled = prev_enabled
            self.active = prev_active

    @contextmanager
    def autodump_to(self, path: str | None) -> Iterator[None]:
        """Arm the flight-recorder auto-dump at ``path`` for a block
        (``None`` leaves the current target); restored on exit."""
        prev = self.autodump_path
        if path is not None:
            self.autodump_path = path
        try:
            yield
        finally:
            self.autodump_path = prev

    @contextmanager
    def scope(self) -> Iterator[None]:
        """Isolate attachments for a block (tests / selfcheck batteries):
        whatever runs inside attaches its own telemetry; the previous
        active instance is restored on exit."""
        prev = self.active
        try:
            yield
        finally:
            self.active = prev

    @contextmanager
    def alone(self) -> Iterator[None]:
        """:meth:`scope` with the session observers (tracer, metrics)
        switched off: what telemetry costs and sees by itself, even inside
        a ``--trace`` / ``--metrics`` session that would block the fast path."""
        from repro.obs.metrics import METRICS
        from repro.obs.trace import TRACER

        prev = TRACER.enabled, METRICS.enabled
        TRACER.enabled = METRICS.enabled = False
        try:
            with self.scope():
                yield
        finally:
            TRACER.enabled, METRICS.enabled = prev


#: The process-wide control.  Never replaced, only toggled/attached.
TELEMETRY = TelemetryControl()


def get_telemetry() -> TelemetryControl:
    """The global telemetry control singleton."""
    return TELEMETRY


# -- the plane against the bookkeeping it is fed from ------------------------
def check_fastpath_kept(sim: Simulation) -> tuple[bool, str]:
    """Telemetry is attached and the exchange still replays on the fast
    path: no phase was blocked for observability."""
    fast = sim.exchange.plan_stats()["fastpath_phases"]
    blocks = sim.exchange._gate_blocks["observability"]
    ok = sim.telemetry is not None and fast > 0 and blocks == 0
    return ok, f"{fast} fastpath phases, {blocks} observability blocks"


def check_counters(sim: Simulation, steps: int) -> tuple[bool, str]:
    """The counters equal what :meth:`StepTelemetry.flush_step` folds: the
    exchange's plan stats and the traffic log's run-lifetime totals."""
    t, stats = sim.telemetry, sim.exchange.plan_stats()
    log = sim.world.transport.log
    ok = (
        t.counter_value("fastpath_phases_total") == stats["fastpath_phases"]
        and t.counter_value("plan_builds_total") == stats["plan_builds"]
        and t.counter_value("messages_total") == log.grand_total_count
        and t.counter_value("message_bytes_total") == log.grand_total_bytes
        and t.counter_value("steps_total") == steps
    )
    return ok, (
        f"{t.counter_value('messages_total'):.0f} messages, "
        f"{t.counter_value('fastpath_phases_total'):.0f} fastpath phases"
    )


def check_sketch_sums(sim: Simulation) -> tuple[bool, str]:
    """Each stage's wall sketch sums to its ``StageTimers`` total (1e-9)."""
    err = max(
        abs(sim.telemetry.sketch("stage_wall_seconds", stage=s.value).total - total)
        for s, total in sim.timers.wall.items()
    )
    return err < 1e-9, f"max |sketch sum - timer| = {err:.2e}"


def check_sketch_quantiles(sim: Simulation, deltas: dict) -> tuple[bool, str]:
    """Sketch means equal the ``StageTimers`` per-step means (1e-12), and
    every exported quantile lies within the sketch's relative-accuracy
    bound of the true rank quantile of ``deltas[clock][stage]`` — per-step
    timer deltas recorded independently of the flush."""
    from repro.obs.rankprof import rank_percentile

    totals = sim.timers.breakdown("wall")
    mean_err, in_bound = 0.0, True
    for clock, per_stage in deltas.items():
        for stage, samples in per_stage.items():
            sk = sim.telemetry.sketch(f"stage_{clock}_seconds", stage=stage.value)
            if sk is None:
                continue
            if clock == "wall":
                mean = totals[stage.value][0] / len(samples)
                mean_err = max(mean_err, abs(sk.mean - mean))
            for q in EXPORT_QUANTILES:
                truth = rank_percentile(samples, q)
                in_bound &= abs(sk.quantile(q) - truth) <= truth * 1.01 * sk.rel_accuracy
    return in_bound and mean_err < 1e-12, (
        f"max mean error {mean_err:.2e}, quantiles within rank-error bound"
    )
