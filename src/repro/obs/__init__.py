"""repro.obs — unified tracing and metrics for the whole reproduction.

One observability layer under every account the repository keeps:

* :mod:`repro.obs.trace` — span/event tracer over two timelines (wall
  clock and simulated machine), attributed by rank/thread/TNI/stage/
  phase, a no-op when disabled.
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms (message sizes, hops, RDMA registrations, receive-ring
  occupancy, per-TNI busy time, injections).
* :mod:`repro.obs.export` — Chrome trace-event JSON, viewable in
  Perfetto.
* :mod:`repro.obs.report` — Table-3-style breakdowns and traffic
  summaries *derived from spans*, which the self-check battery compares
  against ``StageTimers``, ``TrafficLog``, and the Table 1 formulas.
* :mod:`repro.obs.critpath` — critical-path analysis of the simulated
  exchange: which inject/TNI/wire/barrier segments determined the
  completion time, attributed per category and per resource.
* :mod:`repro.obs.bench` — the continuous benchmark harness
  (``python -m repro.obs.bench run|compare|report``) recording wall and
  model breakdowns, traffic, critical paths, and the Table 1/3 +
  Fig. 13 model outputs into versioned ``BENCH_*.json`` artifacts with
  regression gating (see docs/benchmarking.md).
* :mod:`repro.obs.telemetry` / :mod:`repro.obs.sketch` /
  :mod:`repro.obs.flight` — the third, **always-on** tier: batched
  counters/gauges fed from fast-path bookkeeping, mergeable quantile
  sketches (p50/p95/p99 without samples), a bounded flight-recorder
  ring dumped on terminal failures, and an OpenMetrics exporter
  (``python -m repro telemetry``).  Unlike the tracer and the metrics
  registry, telemetry never disables the exchange fast path.
* :mod:`repro.obs.rankprof` — critical-path attribution at *rank*
  granularity: per-rank × per-phase × per-category tables, max/mean +
  p99/p50 imbalance, and the straggler cohort with span-anchored
  evidence, which is the diagnosis of a slow rank.

Typical use::

    from repro.obs import observe
    from repro.obs.export import write_chrome_trace

    with observe() as (tracer, metrics):
        sim = quick_lj_simulation(pattern="parallel-p2p")
        sim.run(20)
    write_chrome_trace("out.json", tracer)
    print(metrics.render())

or from the CLI: ``python -m repro --trace out.json --metrics``.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

from repro.obs.flight import FlightRecorder, validate_flight_doc
from repro.obs.metrics import METRICS, MetricsRegistry, collecting, get_metrics
from repro.obs.rankprof import RankProfileResult, profile_exchange
from repro.obs.sketch import QuantileSketch
from repro.obs.telemetry import TELEMETRY, StepTelemetry, get_telemetry
from repro.obs.trace import TRACER, Tracer, get_tracer, tracing


@contextmanager
def observe(trace: bool = True, metrics: bool = True, fresh: bool = True):
    """Enable tracing and/or metrics for a block; restore state on exit.

    Yields ``(tracer, registry)`` — the global singletons, whose records
    remain readable after the block ends.
    """
    with tracing(fresh) if trace else nullcontext():
        with collecting(fresh) if metrics else nullcontext():
            yield TRACER, METRICS


__all__ = [
    "TRACER",
    "METRICS",
    "TELEMETRY",
    "Tracer",
    "MetricsRegistry",
    "StepTelemetry",
    "QuantileSketch",
    "FlightRecorder",
    "get_tracer",
    "get_metrics",
    "get_telemetry",
    "validate_flight_doc",
    "tracing",
    "collecting",
    "observe",
    "RankProfileResult",
    "profile_exchange",
]
