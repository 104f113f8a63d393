"""``python -m repro verify`` — model-check the scenario fleet.

Verifies P1–P4 (deadlock freedom, no message leaks, buffer safety,
ladder termination) for every scenario of the registry fleet (or a
``--spec`` expansion), printing a per-scenario state-count/wall-time
budget line and optionally writing a ``repro-verify/1`` report.

Exit codes: 0 all proven, 1 counterexamples / unproven scenarios /
missed mutations, 2 usage or IO errors.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.findings import AnalysisReport
from repro.analysis.protomc.checker import (
    VerifyResult,
    findings_from,
    verify_scenario,
)
from repro.artifact import write

REPORT_SCHEMA = "repro-verify/1"


def _fleet(spec_path: str | None) -> list[dict]:
    if spec_path is None:
        from repro.scenarios.registry import default_fleet

        return list(default_fleet())
    from repro.scenarios.spec import expand_spec, load_json, validate_spec

    doc = load_json(spec_path)
    issues = validate_spec(doc)
    if issues:
        raise ValueError(f"{spec_path}: {len(issues)} spec issue(s): {issues[0]}")
    return expand_spec(doc)


def _result_doc(result: VerifyResult) -> dict:
    return {
        "label": result.label,
        "ok": result.ok,
        "states": result.states,
        "wall_ms": round(result.wall_ms, 3),
        "incomplete": result.incomplete,
        "counterexamples": [
            {
                "property": c.prop,
                "detail": c.detail,
                "trace": list(c.trace),
            }
            for c in result.counterexamples
        ],
    }


def _run_mutations(args: argparse.Namespace) -> int:
    from repro.analysis.protomc.mutations import run_mutation_battery

    outcomes = run_mutation_battery(max_states=args.max_states)
    for outcome in outcomes:
        print(f"mutation {outcome.render()}")
    missed = [o for o in outcomes if not o.ok]
    print(
        f"mutation battery: {len(outcomes) - len(missed)}/{len(outcomes)} "
        "caught with the named property and a replayable trace"
    )
    return 1 if missed else 0


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``verify`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro verify",
        description="model-check fleet communication protocols (P1-P4)",
    )
    parser.add_argument("--spec", help="verify a spec expansion instead of "
                        "the registry fleet")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="ID", help="restrict to these scenario ids")
    parser.add_argument("--max-states", type=int, default=500_000,
                        help="per-scenario transition budget")
    parser.add_argument("--budget", type=float, default=30.0, metavar="S",
                        help="per-scenario wall budget in seconds")
    parser.add_argument("--report", metavar="PATH",
                        help=f"write the {REPORT_SCHEMA} report here")
    parser.add_argument("--json", action="store_true",
                        help="print findings as a JSON analysis report")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-scenario budget lines")
    parser.add_argument("--mutations", action="store_true",
                        help="run the seeded-mutation battery instead")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro verify``; returns the exit code."""
    args = build_parser().parse_args(argv)
    if args.mutations:
        return _run_mutations(args)
    try:
        scenarios = _fleet(args.spec)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    if args.scenario:
        wanted = set(args.scenario)
        scenarios = [s for s in scenarios if s["id"] in wanted]
        if not scenarios:
            print(f"verify: no scenario matches {sorted(wanted)}",
                  file=sys.stderr)
            return 2

    t0 = time.monotonic()
    results: list[VerifyResult] = []
    for scenario in scenarios:
        result = verify_scenario(
            scenario, max_states=args.max_states, budget_s=args.budget
        )
        results.append(result)
        if not args.quiet:
            status = "ok" if result.ok else (
                "INCOMPLETE" if result.incomplete else "FAIL"
            )
            print(
                f"verify {result.label}: {status} states={result.states} "
                f"wall={result.wall_ms:.1f}ms"
            )
    wall_s = time.monotonic() - t0

    report = AnalysisReport(tool="protomc")
    for finding in findings_from(results):
        report.add(finding)
    report.files_analyzed = sorted({r.label for r in results})
    report.normalize()
    if args.report:
        doc = {
            "schema": REPORT_SCHEMA,
            "scenarios": [_result_doc(r) for r in results],
            "summary": {
                "checked": len(results),
                "proven": sum(1 for r in results if r.ok),
                "states": sum(r.states for r in results),
                "wall_s": round(wall_s, 3),
            },
        }
        write(args.report, doc)
    if args.json:
        print(report.render_json())
    else:
        failed = [r for r in results if not r.ok]
        for result in failed:
            print(result.render(), file=sys.stderr)
        print(
            f"verify: {len(results) - len(failed)}/{len(results)} scenario(s) "
            f"proven deadlock-free (P1-P4), "
            f"{sum(r.states for r in results)} state(s), {wall_s:.1f}s"
        )
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
