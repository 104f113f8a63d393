"""``tooling-fleet``: the gates themselves — scenario validation + selfcheck.

The untraced pass calls ``validate_scenario(s, "L3")`` once per
scenario; the traced pass calls the five level checks one by one (and
the model checker directly, to read its state count).  Both end with
the selfcheck battery.
"""

from __future__ import annotations

import random
import statistics
import time

from ledger_core import RunResult, SpanRecorder, exact, peak_rss_mb, quiet_gc, summary
from repro.analysis.protomc import verify_scenario
from repro.scenarios.corespec import core_spec
from repro.scenarios.spec import dumps_fleet, expand_spec, validate_spec
from repro.scenarios.validate import (
    check_l0,
    check_l1,
    check_l2,
    check_l3,
    validate_scenario,
)
from repro.selfcheck import run_selfcheck

#: ``--seconds`` at which the whole fleet is validated; a shorter run
#: validates every k-th scenario of each role (k = ceil(this / seconds))
FULL_FLEET_SECONDS = 30
SETUP_REPEATS = 25
SELFCHECK_REPEATS = 3
#: check_l25's own budgets (validate.py), so the direct call proves the same
PROTOMC_LIMITS = {"max_states": 300_000, "budget_s": 20.0}


def fleet_subset(fleet: list[dict], seconds: float, seed: int) -> list[dict]:
    """Every k-th scenario of each role, in a seed-shuffled order.

    The subset depends on ``seconds`` only, so every seed validates the
    same scenarios: role mix decides the cost (a model-role scenario with
    its protomc proof costs ~10x an equivalence one)."""
    stride = max(1, -(-FULL_FLEET_SECONDS // max(int(seconds), 1)))
    by_role: dict[str, list[dict]] = {}
    for scenario in fleet:
        by_role.setdefault(scenario["role"], []).append(scenario)
    subset = [s for role in sorted(by_role) for s in by_role[role][::stride]]
    random.Random(seed).shuffle(subset)
    return subset


def validate_by_level(scenario: dict, rec: SpanRecorder) -> tuple[bool, int]:
    """L0..L3 one call each, stopping at the first rejecting level (as
    ``validate_scenario`` does).  Returns (accepted, protomc states)."""
    states = 0
    for name, check in (("l0", check_l0), ("l1", check_l1), ("l2", check_l2)):
        with rec.span(f"scenarios.{name}"):
            issues = check(scenario)
        if issues:
            return False, states
    with rec.span("scenarios.l25"):
        proof = verify_scenario(scenario, **PROTOMC_LIMITS)
    states = proof.states
    if not proof.ok:
        return False, states
    with rec.span("scenarios.l3"):
        issues = check_l3(scenario)
    return not issues, states


def run_tooling_fleet(seed: int, seconds: float, trace: bool) -> RunResult:
    res = RunResult("tooling-fleet", seed, trace)
    rec = SpanRecorder()

    # set-up: what `scenarios generate` does before validating — check the
    # spec, expand it, dump the byte-stable fleet artifact
    setup_s = []
    for _ in range(1 + SETUP_REPEATS):  # the first, cold one is discarded
        t0 = time.perf_counter()
        spec = core_spec()
        spec_issues = validate_spec(spec)
        fleet = expand_spec(spec)
        artifact = dumps_fleet(spec, fleet)
        setup_s.append(time.perf_counter() - t0)
    del setup_s[0]
    res.check("fleet spec valid and dumped", not spec_issues and bool(artifact))
    subset = fleet_subset(fleet, seconds, seed)

    # lazy imports of the check levels are paid once per process, untimed
    warmed: set[str] = set()
    for scenario in fleet:
        if scenario["role"] not in warmed:
            warmed.add(scenario["role"])
            validate_scenario(scenario, "L3")

    scenario_ms: list[float] = []
    states = rejected = 0
    for i, scenario in enumerate(subset):
        rec.step_id = i
        with quiet_gc():
            idx = rec.begin("scenario")
            why = "rejected"
            try:
                if trace:
                    accepted, n = validate_by_level(scenario, rec)
                    states += n
                else:
                    accepted = not validate_scenario(scenario, "L3")
            except Exception as exc:
                accepted, why = False, f"raised {exc!r}"
            rec.finish(idx)
        scenario_ms.append((rec.ends[idx] - rec.starts[idx]) / 1e6)
        rejected += not accepted
        res.op(accepted, f"scenario {scenario['id']} {why}")
    scenarios_s = sum(scenario_ms) / 1e3

    selfcheck_ms: list[float] = []
    passed = total = 0
    for _ in range(SELFCHECK_REPEATS):
        with quiet_gc():
            idx = rec.begin("selfcheck")
            report = run_selfcheck()
            rec.finish(idx)
        selfcheck_ms.append((rec.ends[idx] - rec.starts[idx]) / 1e6)
        passed, total = sum(c.passed for c in report.checks), len(report.checks)
        for check in report.checks:
            res.op(check.passed, f"selfcheck {check.name}: {check.detail}")
    rss = peak_rss_mb()

    res.info = {"fleet": len(fleet), "validated": len(subset),
                "selfcheck_runs": SELFCHECK_REPEATS}
    rate = len(subset) / scenarios_s
    m = res.metrics
    if not trace:
        m["setup_s"] = summary(setup_s)
        m["work_per_s"] = exact(rate)
        m["op_ms_p50"] = exact(statistics.median(scenario_ms))
        m["slow_op_ms_p50"] = summary(selfcheck_ms)
        m["peak_rss_mb"] = exact(rss)
        return res

    totals = rec.totals()
    for level in ("l0", "l1", "l2", "l25", "l3"):
        m[f"scenarios.{level}_s"] = exact(
            totals.get(f"scenarios.{level}", (0, 0))[1] / 1e9)
    m["scenarios.rejected"] = exact(rejected)
    ranked = sorted(scenario_ms)
    m["scenarios.ms_p85"] = exact(ranked[int(0.85 * len(ranked))])
    m["analysis.protomc.states"] = exact(states)
    m["analysis.protomc.states_per_s"] = exact(
        states / (totals["scenarios.l25"][1] / 1e9))
    m["selfcheck.checks_passed"] = exact(passed)
    m["selfcheck.checks_total"] = exact(total)
    m["selfcheck.wall_s"] = exact(statistics.median(selfcheck_ms) / 1e3)
    m["trace.work_per_s"] = exact(rate)
    res.recorder = rec
    return res
