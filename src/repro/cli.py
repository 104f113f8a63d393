"""Command-line runner: a miniature ``lmp`` for this reproduction.

Mirrors how the paper's artifact is driven (pick a potential input,
pick a communication build, run, read the log)::

    python -m repro --potential lj  --atoms 4000 --ranks 2 2 2 \
                    --pattern parallel-p2p --rdma --steps 100

    python -m repro --potential eam --atoms 2048 --steps 50 --pattern 3stage

Prints a LAMMPS-style log: thermo table, Performance line, MPI task
timing breakdown, and (with ``--model-time``) the simulated-Fugaku
communication account.
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext

from repro import Simulation
from repro.md import fcc_box_for_atoms
from repro.md.domain import decompose_grid
from repro.md.logfmt import format_run_summary
from repro.obs import METRICS, TELEMETRY, TRACER, observe
from repro.obs.telemetry import write_textfile


def _workload_flags() -> argparse.ArgumentParser:
    """Parent parser: the flags describing a workload, declared once for
    the runner and ``telemetry`` (each sets its own size defaults)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--potential", choices=("lj", "eam"), default="lj")
    p.add_argument("--atoms", type=int, default=4000, help="approximate atom count")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument(
        "--ranks", type=int, nargs=3, metavar=("PX", "PY", "PZ"), default=None,
        help="rank grid; default: best factorization of --nranks",
    )
    p.add_argument("--nranks", type=int, default=8, help="rank count if --ranks unset")
    p.add_argument(
        "--pattern", choices=("3stage", "p2p", "parallel-p2p"), default="parallel-p2p"
    )
    p.add_argument("--rdma", action="store_true", help="pre-registered RDMA data plane")
    p.add_argument(
        "--model-time", action="store_true",
        help="also account simulated Fugaku communication time",
    )
    p.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="inject a replayable FaultPlan (see docs/fault_injection.md)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for ``python -m repro``."""
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the LAMMPS-on-Fugaku reproduction engine.",
        parents=[_workload_flags()],
    )
    p.add_argument(
        "--input", "-in", dest="input", default=None,
        help="LAMMPS-style input script (see examples/inputs/); overrides "
        "the system/potential flags above",
    )
    p.add_argument("--newton", dest="newton", action="store_true", default=True)
    p.add_argument("--no-newton", dest="newton", action="store_false")
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--thermo", type=int, default=10, help="thermo output interval")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument(
        "--selfcheck", action="store_true",
        help="run the built-in cross-validation battery and exit; with "
        "--faults, also verifies every fault is absorbed and the ghost "
        "region stays bit-identical to the fault-free run",
    )
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span/event trace and write it as Chrome trace-event "
        "JSON (open in Perfetto: https://ui.perfetto.dev)",
    )
    p.add_argument(
        "--metrics", action="store_true",
        help="collect and print counters/histograms (message sizes, hops, "
        "RDMA registrations, TNI busy time, ...)",
    )
    p.add_argument(
        "--no-telemetry", dest="telemetry", action="store_false", default=True,
        help="disable the always-on telemetry plane (counters, percentile "
        "sketches, flight recorder); on by default and fastpath-compatible",
    )
    p.add_argument(
        "--flightrec", metavar="PATH", default=None,
        help="write the flight-recorder ring to PATH; also auto-dumps there "
        "on retry exhaustion, degradation, or selfcheck failure",
    )
    p.add_argument(
        "--openmetrics", metavar="PATH", default=None,
        help="write telemetry counters/gauges/percentiles to PATH in "
        "OpenMetrics text format after the run",
    )
    return p


def build_simulation(args) -> Simulation:
    """Construct a Simulation from the parsed preset flags."""
    from repro.md.presets import PRESETS

    preset = PRESETS[args.potential]
    cells = fcc_box_for_atoms(args.atoms)
    x, v, box = preset.build_system(cells, args.temperature, seed=args.seed)
    grid = tuple(args.ranks) if args.ranks else decompose_grid(args.nranks, tuple(box.lengths))
    cfg = preset.config(
        pattern=args.pattern,
        rdma=args.rdma,
        newton=args.newton,
        thermo_every=args.thermo,
        model_machine_time=args.model_time,
    )
    return Simulation(x, v, box, preset.potential(), cfg, grid=grid)


def build_telemetry_parser() -> argparse.ArgumentParser:
    """Parser for ``python -m repro telemetry``."""
    p = argparse.ArgumentParser(
        prog="python -m repro telemetry",
        description="Run a workload and export its always-on telemetry: a "
        "JSON snapshot, a repro-flightrec/1 flight-recorder dump, or an "
        "OpenMetrics textfile (node-exporter textfile-collector style).",
        parents=[_workload_flags()],
    )
    p.add_argument(
        "action", nargs="?", default="snapshot",
        choices=("snapshot", "dump", "serve-textfile"),
        help="snapshot: counters/gauges/sketches as JSON; dump: flight-"
        "recorder ring as repro-flightrec/1; serve-textfile: periodically "
        "rewritten OpenMetrics text file",
    )
    p.add_argument(
        "--dump", dest="dump_flag", action="store_true",
        help="alias for the 'dump' action",
    )
    p.add_argument(
        "--output", "-o", default=None,
        help="output path (default: stdout for snapshot, telemetry-flight"
        ".json for dump, telemetry.prom for serve-textfile)",
    )
    p.add_argument(
        "--interval", type=int, default=20,
        help="serve-textfile: rewrite the textfile every N steps",
    )
    p.set_defaults(
        atoms=2048, steps=50, newton=True, temperature=None, seed=12345, thermo=0
    )
    return p


def telemetry_main(argv) -> int:
    """``python -m repro telemetry`` entry point."""
    import json

    args = build_telemetry_parser().parse_args(argv)
    action = "dump" if args.dump_flag else args.action
    output = args.output
    if output is None and action != "snapshot":
        output = "telemetry-flight.json" if action == "dump" else "telemetry.prom"

    fault_plan = None
    if args.faults is not None:
        from repro.faults import FaultPlan

        try:
            fault_plan = FaultPlan.load(args.faults)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load fault plan {args.faults!r}: {exc}")
            return 2
    sim = build_simulation(args)
    telem = sim.telemetry
    if telem is None:
        print("error: telemetry plane is disabled")
        return 2
    from repro.faults import FAULTS
    from repro.faults.injector import FaultError

    injection = FAULTS.inject(fault_plan) if fault_plan is not None else nullcontext()
    survived = True
    # A terminal fault mid-run is exactly when the flight dump matters:
    # arm the auto-dump before the run so the ring is captured at the
    # moment of death, not after.
    try:
        with TELEMETRY.autodump_to(output if action == "dump" else None), injection:
            sim.setup()
            if action == "serve-textfile":
                done = 0
                while done < args.steps:
                    chunk = min(args.interval, args.steps - done)
                    sim.run(chunk)
                    done += chunk
                    write_textfile(output, telem.render_openmetrics())
            else:
                sim.run(args.steps)
    except FaultError as exc:
        survived = False
        print(f"# run did not survive the fault plan: {exc}")

    if action == "snapshot":
        text = json.dumps(telem.snapshot(), indent=2, sort_keys=True)
        if output is None:
            print(text)
        else:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"# telemetry snapshot -> {output}")
    elif action == "dump":
        if survived:
            telem.flight.write(output, reason="on-demand")
        frames = len(telem.flight.frames)
        events = len(telem.flight.events)
        print(f"# flight recorder: {frames} frames, {events} events -> {output}")
    else:
        write_textfile(output, telem.render_openmetrics())
        print(f"# openmetrics textfile -> {output}")
    return 0 if survived else 1


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    import sys

    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["analyze"]:
        from repro.analysis.cli import main as analyze_main

        return analyze_main(argv[1:])
    if argv[:1] == ["telemetry"]:
        return telemetry_main(argv[1:])
    if argv[:1] == ["scenarios"]:
        from repro.scenarios.cli import main as scenarios_main

        return scenarios_main(argv[1:])
    if argv[:1] == ["verify"]:
        from repro.analysis.protomc.cli import main as verify_main

        return verify_main(argv[1:])
    args = build_parser().parse_args(argv)
    # Fail fast: discover an unwritable path or an unreadable plan before
    # the run, not after it has already burned the simulation time.
    for what, path in (("flight recorder", args.flightrec), ("trace file", args.trace)):
        if path is None:
            continue
        try:
            with open(path, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"error: cannot write {what} {path!r}: {exc}")
            return 2
    fault_plan = None
    if args.faults is not None:
        from repro.faults import FaultPlan

        try:
            fault_plan = FaultPlan.load(args.faults)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load fault plan {args.faults!r}: {exc}")
            return 2
    # The observers are process-wide: arm them for this run only, so an
    # in-process caller (tests, selfcheck) gets its own state back
    # whether the run returns, fails or raises.
    telemetry = nullcontext() if args.telemetry else TELEMETRY.disabled()
    observers = observe(trace=args.trace is not None, metrics=args.metrics)
    with telemetry, TELEMETRY.autodump_to(args.flightrec), observers:
        if args.selfcheck:
            return _selfcheck(args, fault_plan)
        return _run(args, fault_plan)


def _selfcheck(args, fault_plan) -> int:
    """``--selfcheck``: run the battery, export what the flags ask for."""
    from repro.obs.export import write_chrome_trace
    from repro.selfcheck import run_selfcheck

    report = run_selfcheck(fault_plan=fault_plan)
    print(report.render())
    # --trace/--metrics compose with --selfcheck: the battery's last
    # observed round is exported like a normal run's trace would be.
    if args.trace is not None:
        doc = write_chrome_trace(args.trace)
        print(f"# trace: {len(doc['traceEvents'])} events -> {args.trace}")
    if args.metrics:
        print()
        print(METRICS.render())
    if not report.ok:
        failing = [c.name for c in report.checks if not c.passed]
        # Routed to the last attached run's flight recorder; with
        # --flightrec this auto-dumps the ring at the failure.
        TELEMETRY.emit("selfcheck-failure", failing=", ".join(failing))
        print(f"# selfcheck FAILED: {', '.join(failing)}")
        return 1
    return 0


def _run(args, fault_plan) -> int:
    """Build the simulation the flags describe, run it, print the log."""
    from repro.faults import FAULTS
    from repro.faults.injector import FaultError

    if args.input:
        from repro.md.inputscript import InputScript

        script = InputScript.from_file(args.input)
        grid = tuple(args.ranks) if args.ranks else None
        sim = script.build(grid=grid, n_ranks=args.nranks)
        steps = script.total_run_steps() or args.steps
        label = f"input script {args.input}"
    else:
        sim = build_simulation(args)
        steps = args.steps
        label = f"{args.potential.upper()} preset"
    print(
        f"# repro: {sim.natoms} atoms ({label}), "
        f"{sim.world.size} ranks {sim.grid}, "
        f"pattern={sim.config.pattern}"
        f"{' +rdma' if sim.config.rdma else ''}, {steps} steps"
    )
    injection = FAULTS.inject(fault_plan) if fault_plan is not None else nullcontext()
    fault_session = None
    try:
        with injection as fault_session:
            sim.setup()
            sim.samples.append(sim.sample_thermo())
            sim.run(steps)
    except FaultError as exc:
        # The degradation ladder ran out of tiers: report, don't dump
        # a traceback — the plan simply was not survivable.
        print(f"# fault injection: run did not survive the plan: {exc}")
        if fault_session is not None:
            print(fault_session.render())
        return 1
    if sim.samples[-1].step != sim.step_count:
        sim.samples.append(sim.sample_thermo())
    print(format_run_summary(sim))
    if fault_session is not None:
        print()
        print(fault_session.render())
        if sim.degradations:
            ladder = " -> ".join(
                [sim.degradations[0][0]] + [t for _, t in sim.degradations]
            )
            print(f"# degraded: {ladder}")
        if fault_session.stats.unabsorbed:
            return 1
    if args.trace is not None:
        from repro.obs.export import write_chrome_trace
        from repro.obs.report import render_phase_table, render_stage_table

        doc = write_chrome_trace(args.trace)
        print()
        print(render_stage_table(TRACER, "wall"))
        if sim.config.model_machine_time:
            print()
            print(render_stage_table(TRACER, "model"))
        print()
        print(render_phase_table(TRACER))
        print()
        print(
            f"# trace: {len(doc['traceEvents'])} events -> {args.trace} "
            "(open in https://ui.perfetto.dev)"
        )
    if args.metrics:
        print()
        print(METRICS.render())
    if sim.telemetry is not None:
        if args.flightrec is not None:
            doc = sim.telemetry.flight.write(args.flightrec, reason="end-of-run")
            print(f"# flight recorder: {len(doc['frames'])} frames -> {args.flightrec}")
        if args.openmetrics is not None:
            write_textfile(args.openmetrics, sim.telemetry.render_openmetrics())
            print(f"# openmetrics textfile -> {args.openmetrics}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
