#!/usr/bin/env python3
"""Perf ledger: one command for every wall-clock and modeled-clock number.

    run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--spans FILE]
        one run of one workload; the last stdout line is the result JSON
        (``--trace 0``: the end-to-end metrics, ``--trace 1``: the per-layer ones)
    run.py [--seed N] [--out FILE]
        every workload untraced, then every workload traced, one
        subprocess per run; writes one ledger document
    run.py compare OLD.json NEW.json
        per workload x metric verdicts between two ledger documents

See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import os

# One thread, whatever the caller exported: the ledger measures the
# single-process engine, and BLAS pools would add a second source of noise.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from ledger_core import REPO_ROOT, RunResult, load_contract  # noqa: E402

sys.path.insert(0, str(REPO_ROOT / "src"))

SCHEMA = "perf-ledger/1"


def shipping_guards() -> dict:
    """Refuse to measure anything but the program that ships.

    Returns the ``meta`` block; raises SystemExit when an observer or a
    fault session is already armed in this process."""
    import numpy

    from repro.faults.injector import FAULTS
    from repro.obs.metrics import METRICS
    from repro.obs.telemetry import TELEMETRY
    from repro.obs.trace import TRACER

    state = {
        "tracer_enabled": TRACER.enabled,
        "metrics_enabled": METRICS.enabled,
        "fault_session": FAULTS.session is not None,
        "telemetry_enabled": TELEMETRY.enabled,
    }
    expected = {"tracer_enabled": False, "metrics_enabled": False,
                "fault_session": False, "telemetry_enabled": True}
    if state != expected:
        raise SystemExit(f"ledger: not the shipping configuration: {state}")
    return {
        **state,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    from ledger_md import MD_WORKLOADS, run_md

    if name in MD_WORKLOADS:
        return run_md(name, seed, seconds, trace)
    if name == "paper-model":
        from ledger_model import run_paper_model

        return run_paper_model(seed, seconds, trace)
    if name == "tooling-fleet":
        from ledger_fleet import run_tooling_fleet

        return run_tooling_fleet(seed, seconds, trace)
    raise SystemExit(f"ledger: unknown workload {name!r}")


def contract_metrics(res: RunResult, contract: dict) -> dict[str, dict]:
    """The run's metrics in contract order; a per-layer metric this
    workload never exercises reads 0."""
    declared = contract["per_layer" if res.trace else "end_to_end"]
    names = {m["name"] for m in declared}
    stray = sorted(set(res.metrics) - names)
    if stray:
        raise SystemExit(f"ledger: metrics missing from BENCHMARK.json: {stray}")
    out = {}
    for spec in declared:
        got = res.metrics.get(spec["name"])
        if got is None:
            if not res.trace:
                raise SystemExit(f"ledger: {res.workload} reported no {spec['name']}")
            got = {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0, "samples": []}
        out[spec["name"]] = {"unit": spec["unit"], **got}
    return out


def single_run(args: argparse.Namespace) -> int:
    contract = load_contract()
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        raise SystemExit(f"ledger: unknown workload {args.workload!r}")
    meta = shipping_guards()
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = contract_metrics(res, contract)

    print(f"# {res.workload}  seed={res.seed}  trace={int(res.trace)}  {res.info}")
    for name, m in metrics.items():
        spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]" if m["n"] > 1 else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{spread}")
    print(f"ops_attempted {res.attempted}  ops_failed {res.failed}")
    for failure in res.failures[:20]:
        print(f"FAILED: {failure}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(res.to_doc(metrics, meta), fh, indent=1)
            fh.write("\n")
    if args.spans and res.recorder is not None:
        res.recorder.dump(args.spans)

    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if res.failed == 0 else 1


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def ledger_run(args: argparse.Namespace) -> int:
    """Every workload untraced, then every workload traced."""
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload:
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    doc: dict = {
        "schema": SCHEMA,
        "meta": {"seed": args.seed, "run_seconds": seconds, "git_sha": git_sha()},
        "workloads": {n: {} for n in names},
    }
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for trace in (0, 1):
            for name in names:
                part = Path(tmp) / f"{name}.{trace}.json"
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--out", str(part)]
                proc = subprocess.run(cmd, cwd=REPO_ROOT)
                failed |= proc.returncode != 0
                if not part.exists():
                    print(f"ledger: {name} --trace {trace} produced no result", file=sys.stderr)
                    continue
                run = json.loads(part.read_text(encoding="utf-8"))
                doc["meta"].update(run.pop("meta"))
                slot = doc["workloads"][name]
                section = "per_layer" if trace else "end_to_end"
                # a per-layer metric the workload never exercised is left out
                slot[section] = {k: m for k, m in run["metrics"].items() if m["n"]}
                slot.setdefault("runs", {})[section] = {
                    k: run[k] for k in ("ops_attempted", "ops_failed", "failures", "info")
                }
                slot["ops_attempted"] = slot.get("ops_attempted", 0) + run["ops_attempted"]
                slot["ops_failed"] = slot.get("ops_failed", 0) + run["ops_failed"]
    doc["derived"] = derived_metrics(doc["workloads"])
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


def derived_metrics(workloads: dict) -> dict:
    """Ratios across passes and workloads, each with its base."""
    out: dict = {"trace.overhead_ratio": {}}
    for name, slot in workloads.items():
        try:
            base = slot["end_to_end"]["work_per_s"]["value"]
            traced = slot["per_layer"]["trace.work_per_s"]["value"]
        except KeyError:
            continue
        out["trace.overhead_ratio"][name] = {
            "value": base / traced, "base": base, "base_metric": "work_per_s (untraced)",
        }
    try:
        base = workloads["lj-strong-27r"]["end_to_end"]["op_ms_p50"]["value"]
        slow = workloads["lj-traced-27r"]["end_to_end"]["op_ms_p50"]["value"]
        out["obs.traced_slowdown"] = {
            "value": slow / base, "base": base,
            "base_metric": "lj-strong-27r op_ms_p50 (ms)",
        }
    except KeyError:
        pass
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from ledger_compare import main as compare_main

        return compare_main(argv[1:])
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print("ledger: src/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--spans", help="with --trace 1: write the recorded spans here")
    args = parser.parse_args(argv)
    if args.workload and args.trace is not None:
        if args.seconds is None:
            args.seconds = float(load_contract()["run_seconds"])
        return single_run(args)
    return ledger_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
