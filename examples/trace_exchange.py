"""Trace one exchange-heavy run and export it for Perfetto.

Runs the LJ melt bench under the fine-grained thread-pool p2p exchange
with tracing and metrics on, then

1. writes a Chrome trace-event file (open it in https://ui.perfetto.dev:
   pid 1 is this process' wall clock, pid 2 the simulated Fugaku),
2. prints the span-derived stage breakdown next to the ``StageTimers``
   account to show they agree bit-for-bit, and
3. prints the per-phase traffic recomputed from per-message events next
   to the ``TrafficLog`` ground truth.

Run:  python examples/trace_exchange.py [out.json]
"""

import sys

from repro import quick_lj_simulation
from repro.md.stages import Stage
from repro.obs import observe
from repro.artifact import read
from repro.obs.export import validate_chrome_trace, write_chrome_trace
from repro.obs.report import (
    phase_summary_from_trace,
    render_phase_table,
    render_stage_table,
)


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "trace_exchange.json"

    with observe() as (tracer, metrics):
        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), pattern="parallel-p2p"
        )
        sim.run(20)

    write_chrome_trace(out, tracer, metrics)
    n_events = validate_chrome_trace(read(out))
    print(f"wrote {n_events} events to {out} (open in https://ui.perfetto.dev)\n")

    print(render_stage_table(tracer))
    print("\nagreement with StageTimers (span sum - timer, per stage):")
    from repro.obs.report import stage_breakdown_from_trace

    derived = stage_breakdown_from_trace(tracer)
    for stage in Stage:
        diff = derived[stage.value] - sim.timers.wall[stage]
        print(f"  {stage.value:<8} {diff:+.1e}")

    print()
    print(render_phase_table(tracer))
    print("\nagreement with TrafficLog (trace - log, per phase):")
    log = sim.world.transport.log
    for phase, t in sorted(phase_summary_from_trace(tracer).items()):
        s = log.summary(phase)
        print(
            f"  {phase:<18} count {t.count - s.count:+d}  "
            f"bytes {t.total_bytes - s.total_bytes:+d}"
        )

    print()
    print(metrics.render())


if __name__ == "__main__":
    main()
