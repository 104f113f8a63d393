"""``repro analyze`` — drive commlint and the race detector.

Usage (as a subcommand of ``python -m repro``)::

    python -m repro analyze                      # full analysis, text report
    python -m repro analyze --json               # machine-readable output
    python -m repro analyze --strict             # exit 1 on ANY finding
    python -m repro analyze --trace run.json     # race-detect a saved trace
    python -m repro analyze --faults plan.json   # probe run under a plan

By default the command runs both passes: commlint (the live checks of a
built ``p2p`` + rdma exchange's rings, windows and arena, plus the VCQ
binding and shell generators), and the happens-before detector over a
short traced probe run of every exchange variant.  On a healthy tree
both report zero findings and the exit code is 0; the CI
``lint-and-analyze`` job runs ``--strict`` on every push.
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.analysis.findings import AnalysisReport

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan

#: (pattern, rdma) probe matrix for the dynamic pass — every exchange
#: variant the self-check battery also exercises.
PROBE_VARIANTS: tuple[tuple[str, bool], ...] = (
    ("3stage", False),
    ("p2p", True),
    ("parallel-p2p", True),
)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``analyze`` subcommand."""
    p = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Live invariant checks (commlint) + happens-before protocol analysis.",
    )
    p.add_argument(
        "--no-dynamic", action="store_true",
        help="skip the race-detector probe runs",
    )
    p.add_argument(
        "--trace", metavar="TRACE.json", default=None,
        help="race-detect an exported Chrome trace instead of probe runs",
    )
    p.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="run the dynamic probe under a FaultPlan (hazards expected: "
        "the detector should flag the plan's §3.4 windows)",
    )
    p.add_argument(
        "--steps", type=int, default=6,
        help="probe run length in MD steps (default 6)",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="also model-check the probe protocol variants (protomc P1-P4; "
        "run `python -m repro verify` for the whole fleet)",
    )
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument(
        "--strict", action="store_true",
        help="exit nonzero on any finding, warnings included",
    )
    return p


def _verify_probe() -> AnalysisReport:
    """Model-check every probe exchange variant on a small rank grid."""
    from repro.analysis.commlint import CommProfile
    from repro.analysis.protomc.checker import findings_from, verify_model
    from repro.analysis.protomc.extract import model_from_profile

    report = AnalysisReport(tool="protomc")
    results = []
    for pattern, rdma in PROBE_VARIANTS:
        profile = CommProfile(
            label=f"probe/{pattern}{'+rdma' if rdma else ''}",
            sub_box_edge=3.36, rcomm=2.8, density=0.8442, rdma=rdma,
        )
        results.append(verify_model(model_from_profile(profile, (2, 2, 2), pattern)))
        report.files_analyzed.append(f"<verify:{pattern}{'+rdma' if rdma else ''}>")
    for finding in findings_from(results):
        report.add(finding)
    return report


def _dynamic_probe(plan: FaultPlan | None = None, steps: int = 6) -> AnalysisReport:
    """Race-detect short traced runs of every exchange variant."""
    from repro.analysis.hb import detect_races
    from repro.faults.injector import FAULTS
    from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
    from repro.md.potentials import LennardJones
    from repro.md.simulation import Simulation, SimulationConfig
    from repro.obs import observe

    edge = lj_density_to_cell(0.8442)
    x, box = fcc_lattice((4, 4, 4), edge)
    v = maxwell_velocities(x.shape[0], 1.44, seed=7)

    merged = AnalysisReport(tool="race-detector")
    for pattern, rdma in PROBE_VARIANTS:
        cfg = SimulationConfig(
            dt=0.005, skin=0.3, pattern=pattern, rdma=rdma, neighbor_every=3
        )
        with observe(metrics=False) as (tracer, _):
            sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
            if plan is not None:
                with FAULTS.inject(plan):
                    sim.run(steps)
            else:
                sim.run(steps)
            probe = detect_races(tracer)
        merged.extend(probe)
        merged.files_analyzed.append(f"<probe:{pattern}{'+rdma' if rdma else ''}>")
    return merged


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``repro analyze``; returns the exit code."""
    args = build_parser().parse_args(argv)

    from repro.analysis.commlint import run_commlint

    combined = AnalysisReport(tool="analyze")
    combined.extend(run_commlint())

    dynamic: AnalysisReport | None = None
    if args.trace is not None:
        from repro.analysis.hb import detect_races_in_file

        dynamic = detect_races_in_file(args.trace)
    elif not args.no_dynamic:
        plan = None
        if args.faults is not None:
            from repro.faults.plan import FaultPlan

            try:
                plan = FaultPlan.load(args.faults)
            except (OSError, ValueError) as exc:
                print(f"error: cannot load fault plan {args.faults!r}: {exc}")
                return 2
        dynamic = _dynamic_probe(plan, steps=args.steps)
    if dynamic is not None:
        combined.extend(dynamic)
    if args.verify:
        combined.extend(_verify_probe())

    # Byte-stable output: merged findings sorted + deduped no matter
    # which pass produced them (or in what order).
    combined.normalize()

    if args.json:
        print(combined.render_json())
    else:
        print(combined.render())
    if args.strict:
        return 0 if combined.clean else 1
    return 0 if combined.ok else 1
