"""``run.py compare OLD.json NEW.json`` — verdicts between two ledger documents.

End-to-end metrics get a verdict against the bound BENCHMARK.json fixes
for them; exact-class per-layer metrics (counts and simulated
statistics) must be equal; per-layer timings are listed with their
ratio, for attribution, without a verdict.
"""

from __future__ import annotations

import json
import sys

from ledger_core import load_contract

#: units that mark a per-layer metric as exact-class: for one seed and
#: one ``--seconds`` it repeats bit for bit on any machine
EXACT_UNITS = frozenset({"count", "B", "ratio", "%", "model_us"})


def classify(old: dict, new: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, gain) for one end-to-end metric of one workload.

    ``gain`` is the change as a share of the old median, signed so that
    positive is better.  A spread (quartile distance over median, either
    side) wider than the bound leaves the row ``unresolved`` unless every
    run of one side beats every run of the other."""
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (new["value"] - old["value"]) / abs(old["value"])
    spread = max(
        (m["q3"] - m["q1"]) / abs(m["value"]) for m in (old, new)
    )
    if spread > bound:
        a = [sign * s for s in old["samples"]]
        b = [sign * s for s in new["samples"]]
        separated = bool(a and b) and (min(b) > max(a) or max(b) < min(a))
        if not separated:
            return "unresolved", gain
    if gain < -bound:
        return "regressed", gain
    if gain > bound:
        return "improved", gain
    return "unchanged", gain


def fmt(m: dict) -> str:
    if m["n"] > 1:
        return f"{m['value']:.6g} [{m['q1']:.6g}..{m['q3']:.6g}] n={m['n']}"
    return f"{m['value']:.6g}"


def compare(old: dict, new: dict, contract: dict) -> tuple[list[str], bool]:
    """Report lines and whether anything regressed."""
    lines: list[str] = []
    bad = False
    same_inputs = all(
        old["meta"].get(k) == new["meta"].get(k) for k in ("seed", "run_seconds")
    )
    lines.append(
        f"old: sha {old['meta'].get('git_sha')} seed {old['meta'].get('seed')}   "
        f"new: sha {new['meta'].get('git_sha')} seed {new['meta'].get('seed')}"
    )
    if not same_inputs:
        lines.append("seeds or run lengths differ: exact-class metrics not compared")
    for spec in contract["workloads"]:
        name = spec["name"]
        o, n = old["workloads"].get(name), new["workloads"].get(name)
        if not o or not n:
            lines.append(f"\n== {name}: missing on one side, skipped")
            continue
        lines.append(f"\n== {name}")
        for metric in contract["end_to_end"]:
            mo, mn = o["end_to_end"][metric["name"]], n["end_to_end"][metric["name"]]
            verdict, gain = classify(mo, mn, metric["better"], metric["bound"])
            bad |= verdict == "regressed"
            lines.append(
                f"  {verdict:10s} {metric['name']:16s} {fmt(mo)} -> {fmt(mn)} "
                f"{metric['unit']}  ({gain:+.1%} of old {mo['value']:.6g}, "
                f"{metric['better']} is better, bound {metric['bound']:.0%})"
            )
        for metric in contract["per_layer"]:
            mo = o.get("per_layer", {}).get(metric["name"])
            mn = n.get("per_layer", {}).get(metric["name"])
            if mo is None or mn is None:  # not exercised by this workload
                continue
            if metric["unit"] in EXACT_UNITS:
                if not same_inputs:
                    continue
                if mo["value"] != mn["value"]:
                    bad = True
                    lines.append(
                        f"  {'changed':10s} {metric['name']:36s} "
                        f"{mo['value']!r} -> {mn['value']!r} {metric['unit']} (exact class)"
                    )
                continue
            ratio = (
                f"x{mn['value'] / mo['value']:.3f} of old {mo['value']:.6g}"
                if mo["value"] else "old is 0"
            )
            lines.append(
                f"  {'layer':10s} {metric['name']:36s} {mo['value']:.6g} -> "
                f"{mn['value']:.6g} {metric['unit']}  ({ratio})"
            )
        rate_old = o["ops_failed"] / o["ops_attempted"]
        rate_new = n["ops_failed"] / n["ops_attempted"]
        worse = rate_new > rate_old
        bad |= worse
        lines.append(
            f"  {'FAILED MORE' if worse else 'ops':10s} failed/attempted "
            f"{o['ops_failed']}/{o['ops_attempted']} -> {n['ops_failed']}/{n['ops_attempted']}"
        )
    key = "obs.traced_slowdown"
    do, dn = old.get("derived", {}).get(key), new.get("derived", {}).get(key)
    if do and dn:
        lines.append(
            f"\n{key}: x{do['value']:.2f} -> x{dn['value']:.2f} "
            f"(each over its own {do['base_metric']}: {do['base']:.6g}, {dn['base']:.6g})"
        )
    lines.append("\nresult: " + ("REGRESSED" if bad else "no regression"))
    return lines, bad


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare OLD.json NEW.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    lines, bad = compare(docs[0], docs[1], load_contract())
    print("\n".join(lines))
    return 1 if bad else 0
