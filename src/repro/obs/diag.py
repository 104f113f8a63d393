"""`repro diag`: automated regression diagnosis over observability artifacts.

Given two artifacts of the same kind — ``repro-bench/1`` records,
``repro-scaling/1`` ladders, ``repro-rankprof/1`` tables, or two
exported Chrome traces — the engine diffs them and emits a *ranked,
human-readable explanation* of the delta instead of a wall of numbers:

* which **stage** (Pair/Neigh/Comm/...) accounts for the change,
* which **critical-path category** (inject/queue/tni/wire/vcq/barrier/
  fault/idle) inside it,
* which **rank cohort** carries it (when per-rank data is present),
* and the **shape** of the regression:

  - ``imbalance`` — a minority cohort of ranks slowed down (a straggler
    problem; rebalance or look at that cohort's node),
  - ``wire``      — the delta sits in wire time across ranks (more
    bytes, more hops, or a slower link: a traffic/topology problem),
  - ``overhead``  — injection/queue/TNI/VCQ/barrier/fault time grew (a
    software-stack or contention problem, the paper's §3.2–3.3 axis),
  - ``mixed``     — no single signature dominates.

Every finding is quantified (seconds, share of the total delta) and,
when the inputs carry span-anchored evidence, points at the concrete
slowest link.  ``--json`` writes a versioned ``repro-diag/1`` report for
CI gating; identical artifacts produce an empty finding list and a
"no significant deltas" verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.artifact import Cursor, read, write

#: Versioned schema identifier checked by :func:`validate_diag_doc`.
SCHEMA = "repro-diag/1"

#: Regression shapes a finding may be classified as.
SHAPES = ("imbalance", "wire", "overhead", "mixed")

#: Critical-path categories that count as software/contention overhead.
OVERHEAD_CATS = frozenset(
    {"inject", "queue", "tni", "vcq", "barrier", "fault", "idle"}
)

#: A per-rank delta joins the straggler cohort when it carries at least
#: this fraction of the largest aligned per-rank delta.
COHORT_FRACTION = 0.5


@dataclass(frozen=True)
class DiagFinding:
    """One ranked explanation of part of the old->new delta."""

    scope: str  # run key / "ranks=8" / phase / "trace"
    delta: float  # seconds, new - old (sign preserved)
    share: float  # |delta| / sum of |finding deltas|
    stage: str  # Pair/Neigh/Comm/Modify/Other ("" if unknown)
    category: str  # critpath category ("" if no attribution present)
    cohort: tuple[int, ...]  # ranks carrying the delta (() if no rank data)
    shape: str  # one of SHAPES
    detail: str  # one-line human explanation
    evidence: dict = field(default_factory=dict)  # span-anchored, optional


@dataclass
class DiagReport:
    """The full diagnosis of one artifact pair."""

    kind: str  # bench | scaling | rankprof | trace
    old_label: str
    new_label: str
    old_total: float
    new_total: float
    findings: list[DiagFinding] = field(default_factory=list)

    @property
    def delta(self) -> float:
        return self.new_total - self.old_total

    @property
    def verdict(self) -> str:
        if not self.findings:
            return "no significant deltas: the artifacts are equivalent"
        top = self.findings[0]
        word = "regressed" if top.delta > 0 else "improved"
        where = f"stage {top.stage}" if top.stage else top.scope
        cat = f", category {top.category}" if top.category else ""
        who = f", ranks {list(top.cohort)}" if top.cohort else ""
        return (
            f"{word} by {abs(self.delta):.4g}s total; dominant finding is "
            f"{top.shape}-shaped in {where}{cat}{who} "
            f"({top.share:.0%} of the explained delta)"
        )

    def to_dict(self) -> dict:
        """The versioned ``repro-diag/1`` form of this report."""
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "old": self.old_label,
            "new": self.new_label,
            "total": {
                "old": self.old_total,
                "new": self.new_total,
                "delta": self.delta,
            },
            "verdict": self.verdict,
            "findings": [
                {
                    "scope": f.scope,
                    "delta": f.delta,
                    "share": f.share,
                    "stage": f.stage,
                    "category": f.category,
                    "cohort": list(f.cohort),
                    "shape": f.shape,
                    "detail": f.detail,
                    "evidence": dict(f.evidence),
                }
                for f in self.findings
            ],
        }


# -- artifact loading -----------------------------------------------------
def artifact_kind(doc: dict) -> str:
    """Classify a loaded JSON document by its schema."""
    if not isinstance(doc, dict):
        raise ValueError("artifact is not a JSON object")
    if "traceEvents" in doc:
        return "trace"
    schema = doc.get("schema", "")
    for kind, prefix in (
        ("bench", "repro-bench/"),
        ("scaling", "repro-scaling/"),
        ("rankprof", "repro-rankprof/"),
    ):
        if isinstance(schema, str) and schema.startswith(prefix):
            return kind
    raise ValueError(
        f"unrecognized artifact: schema {schema!r} is none of repro-bench/*, "
        "repro-scaling/*, repro-rankprof/*, or a Chrome trace"
    )


def load_artifact(path: str) -> tuple[str, dict]:
    """Load ``path`` and classify it; returns ``(kind, doc)``."""
    doc = read(path)
    return artifact_kind(doc), doc


# -- shared analysis helpers ----------------------------------------------
def _noise_floor(*totals: float) -> float:
    """Deltas below this are float noise, not findings."""
    scale = max([abs(t) for t in totals] + [0.0])
    return max(1e-15, 1e-9 * scale)


def _top_delta(old: dict, new: dict, direction: float) -> tuple[str, float]:
    """Key with the largest delta aligned with ``direction`` (+1/-1).

    Falls back to the largest absolute delta when nothing moved the
    aligned way (e.g. the total regressed but every component improved —
    impossible for exact partitions, possible across partial tables).
    """
    deltas = {
        k: new.get(k, 0.0) - old.get(k, 0.0) for k in set(old) | set(new)
    }
    if not deltas:
        return "", 0.0
    aligned = {k: d for k, d in deltas.items() if d * direction > 0}
    pool = aligned if aligned else deltas
    key = max(pool, key=lambda k: abs(pool[k]))
    return key, deltas[key]


def _cohort(per_rank_delta: dict[int, float], direction: float,
            noise: float) -> tuple[int, ...]:
    """Ranks carrying the delta: within COHORT_FRACTION of the worst."""
    aligned = {
        r: d * direction for r, d in per_rank_delta.items()
        if d * direction > noise
    }
    if not aligned:
        return ()
    worst = max(aligned.values())
    return tuple(sorted(r for r, d in aligned.items()
                        if d >= COHORT_FRACTION * worst))


def _shape(category: str, cohort: tuple[int, ...], nranks: int) -> str:
    """Classify a finding: imbalance-, wire-, or overhead-shaped."""
    if cohort and nranks > 1 and len(cohort) <= max(1, nranks // 4):
        return "imbalance"
    if category == "wire":
        return "wire"
    if category in OVERHEAD_CATS:
        return "overhead"
    return "mixed"


def _rankprof_phase_diff(
    old_phase: dict, new_phase: dict, direction: float | None = None
) -> dict:
    """Diff one phase of two rankprof docs -> cohort/category/evidence.

    The cohort is the ranks that moved the way the phase's own total did,
    unless the caller explains a delta of its own ``direction`` (+1/-1).
    """
    old_rows = {r["rank"]: r for r in old_phase.get("rows", ())}
    new_rows = {r["rank"]: r for r in new_phase.get("rows", ())}
    common = sorted(set(old_rows) & set(new_rows))
    old_total = sum(old_rows[r]["completion"] for r in common)
    new_total = sum(new_rows[r]["completion"] for r in common)
    delta = new_total - old_total
    noise = _noise_floor(old_total, new_total)
    if direction is None:
        direction = 1.0 if delta >= 0 else -1.0
    per_rank = {
        r: new_rows[r]["completion"] - old_rows[r]["completion"] for r in common
    }
    cohort = _cohort(per_rank, direction, noise)
    # Attribute the category over the cohort (falling back to all ranks):
    # the cohort's attribution deltas say *why* the slow ranks slowed.
    pool = cohort if cohort else tuple(common)
    old_cats: dict[str, float] = {}
    new_cats: dict[str, float] = {}
    for r in pool:
        for c, s in old_rows[r].get("attribution", {}).items():
            old_cats[c] = old_cats.get(c, 0.0) + s
        for c, s in new_rows[r].get("attribution", {}).items():
            new_cats[c] = new_cats.get(c, 0.0) + s
    category, _ = _top_delta(old_cats, new_cats, direction)
    evidence = {}
    if cohort:
        worst = max(cohort, key=lambda r: per_rank[r] * direction)
        evidence = dict(new_rows[worst].get("evidence", {}))
        evidence["rank"] = worst
    return {
        "delta": delta,
        "noise": noise,
        "cohort": cohort,
        "nranks": len(common),
        "category": category,
        "evidence": evidence,
        "old_total": old_total,
        "new_total": new_total,
    }


def _finalize(report: DiagReport) -> DiagReport:
    """Rank findings by |delta| and fill in the shares."""
    report.findings.sort(key=lambda f: -abs(f.delta))
    explained = sum(abs(f.delta) for f in report.findings)
    if explained > 0:
        report.findings = [
            DiagFinding(
                scope=f.scope, delta=f.delta, share=abs(f.delta) / explained,
                stage=f.stage, category=f.category, cohort=f.cohort,
                shape=f.shape, detail=f.detail, evidence=f.evidence,
            )
            for f in report.findings
        ]
    return report


# -- per-kind diagnosis ---------------------------------------------------
def _diag_rankprof(old: dict, new: dict, report: DiagReport) -> None:
    phases = sorted(set(old.get("phases", {})) & set(new.get("phases", {})))
    for phase in phases:
        d = _rankprof_phase_diff(old["phases"][phase], new["phases"][phase])
        report.old_total += d["old_total"]
        report.new_total += d["new_total"]
        if abs(d["delta"]) <= d["noise"]:
            continue
        shape = _shape(d["category"], d["cohort"], d["nranks"])
        who = (f"ranks {list(d['cohort'])}" if d["cohort"]
               else f"all {d['nranks']} ranks")
        report.findings.append(
            DiagFinding(
                scope=phase, delta=d["delta"], share=0.0, stage="Comm",
                category=d["category"], cohort=d["cohort"], shape=shape,
                detail=(
                    f"{phase} exchange {'slowed' if d['delta'] > 0 else 'sped up'} "
                    f"{abs(d['delta']):.4g}s on {who}; "
                    f"largest attribution shift in {d['category'] or 'n/a'}"
                ),
                evidence=d["evidence"],
            )
        )


def _diag_bench(old: dict, new: dict, report: DiagReport) -> None:
    old_runs = {r["key"]: r for r in old.get("runs", ())}
    new_runs = {r["key"]: r for r in new.get("runs", ())}
    for key in sorted(set(old_runs) & set(new_runs)):
        o, n = old_runs[key], new_runs[key]
        o_total = o["model"]["total"]
        n_total = n["model"]["total"]
        report.old_total += o_total
        report.new_total += n_total
        delta = n_total - o_total
        noise = _noise_floor(o_total, n_total)
        direction = 1.0 if delta >= 0 else -1.0
        stage, stage_delta = _top_delta(
            o["model"]["stages"], n["model"]["stages"], direction
        )
        category, _ = _top_delta(
            o.get("critpath", {}).get("attribution", {}),
            n.get("critpath", {}).get("attribution", {}),
            direction,
        )
        cohort: tuple[int, ...] = ()
        nranks = 0
        o_rp, n_rp = o.get("rankprof"), n.get("rankprof")
        if isinstance(o_rp, dict) and isinstance(n_rp, dict):
            d = _rankprof_phase_diff(
                {"rows": o_rp.get("ranks", ())}, {"rows": n_rp.get("ranks", ())},
                direction,
            )
            cohort, nranks = d["cohort"], d["nranks"]
            # When the per-rank table is live, the cohort's attribution
            # shift names the category — sharper than rank 0's path.
            if cohort and d["category"]:
                category = d["category"]
        if abs(delta) <= noise:
            continue
        shape = _shape(category, cohort, nranks)
        report.findings.append(
            DiagFinding(
                scope=key, delta=delta, share=0.0, stage=stage,
                category=category, cohort=cohort, shape=shape,
                detail=(
                    f"{key}: modeled total moved {delta:+.4g}s, led by stage "
                    f"{stage} ({stage_delta:+.4g}s); critpath shift in "
                    f"{category or 'n/a'}"
                ),
            )
        )


def _diag_scaling(old: dict, new: dict, report: DiagReport) -> None:
    old_pts = {p["ranks"]: p for p in old.get("points", ())}
    new_pts = {p["ranks"]: p for p in new.get("points", ())}
    for ranks in sorted(set(old_pts) & set(new_pts)):
        o, n = old_pts[ranks], new_pts[ranks]
        o_total = o["model"]["per_step"]
        n_total = n["model"]["per_step"]
        report.old_total += o_total
        report.new_total += n_total
        delta = n_total - o_total
        noise = _noise_floor(o_total, n_total)
        direction = 1.0 if delta >= 0 else -1.0
        stage, stage_delta = _top_delta(
            o["model"]["stages"], n["model"]["stages"], direction
        )
        d = _rankprof_phase_diff(
            o.get("rankprof", {}).get("phases", {}).get("forward", {}),
            n.get("rankprof", {}).get("phases", {}).get("forward", {}),
        )
        if abs(delta) <= noise:
            continue
        eff_note = ""
        if "efficiency" in o and "efficiency" in n:
            eff_note = (
                f"; efficiency {o['efficiency']:.3f} -> {n['efficiency']:.3f}"
            )
        shape = _shape(d["category"], d["cohort"], d["nranks"])
        who = (f"ranks {list(d['cohort'])}" if d["cohort"]
               else f"all {d['nranks']} ranks")
        report.findings.append(
            DiagFinding(
                scope=f"ranks={ranks}", delta=delta, share=0.0, stage=stage,
                category=d["category"], cohort=d["cohort"], shape=shape,
                detail=(
                    f"rung {ranks} ranks: per-step model moved {delta:+.4g}s, "
                    f"led by stage {stage} ({stage_delta:+.4g}s/run) on {who}"
                    f"{eff_note}"
                ),
                evidence=d["evidence"],
            )
        )


def _diag_trace(old: dict, new: dict, report: DiagReport) -> None:
    import re

    from repro.obs.critpath import analyze_critical_path
    from repro.obs.export import spans_from_chrome

    results = []
    busy = []
    for doc in (old, new):
        spans = spans_from_chrome(doc)
        results.append(analyze_critical_path(spans=spans))
        # Per-rank busy seconds from the simulator's injector tracks
        # ("rank3/thr0"): the only rank-granular signal a trace carries.
        per_rank: dict[int, float] = {}
        for s in spans:
            m = re.match(r"rank(\d+)(/|$)", s.track)
            if m and s.cat in ("inject", "vcq", "fault"):
                r = int(m.group(1))
                per_rank[r] = per_rank.get(r, 0.0) + s.dur
        busy.append(per_rank)
    o_cp, n_cp = results
    report.old_total = o_cp.total_time
    report.new_total = n_cp.total_time
    delta = report.new_total - report.old_total
    noise = _noise_floor(report.old_total, report.new_total)
    if abs(delta) <= noise:
        return
    direction = 1.0 if delta >= 0 else -1.0
    category, _ = _top_delta(o_cp.attribution, n_cp.attribution, direction)
    common = sorted(set(busy[0]) & set(busy[1]))
    per_rank = {r: busy[1][r] - busy[0][r] for r in common}
    cohort = _cohort(per_rank, direction, noise)
    shape = _shape(category, cohort, len(common))
    evidence = {}
    if n_cp.segments:
        seg = max(n_cp.segments, key=lambda s: s.end - s.start)
        evidence = {"name": seg.name, "cat": seg.cat, "track": seg.track,
                    "start": seg.start, "end": seg.end}
    report.findings.append(
        DiagFinding(
            scope="trace", delta=delta, share=0.0, stage="Comm",
            category=category, cohort=cohort, shape=shape,
            detail=(
                f"modeled exchange completion moved {delta:+.4g}s; critpath "
                f"shift in {category or 'n/a'}"
                + (f", rank-side time grew on ranks {list(cohort)}"
                   if cohort else "")
            ),
            evidence=evidence,
        )
    )


def diagnose(
    old_doc: dict,
    new_doc: dict,
    old_label: str = "old",
    new_label: str = "new",
) -> DiagReport:
    """Diff two same-kind artifacts into a ranked :class:`DiagReport`."""
    old_kind = artifact_kind(old_doc)
    new_kind = artifact_kind(new_doc)
    if old_kind != new_kind:
        raise ValueError(
            f"cannot diag across kinds: {old_label} is {old_kind}, "
            f"{new_label} is {new_kind}"
        )
    report = DiagReport(
        kind=old_kind, old_label=old_label, new_label=new_label,
        old_total=0.0, new_total=0.0,
    )
    dispatch = {
        "bench": _diag_bench,
        "scaling": _diag_scaling,
        "rankprof": _diag_rankprof,
        "trace": _diag_trace,
    }
    dispatch[old_kind](old_doc, new_doc, report)
    return _finalize(report)


def check_names_faulted_rank(report: DiagReport, rank: int) -> tuple[bool, str]:
    """A fault stall added to one rank's exchange ranks first as a
    ``fault`` imbalance in ``Comm`` carried by exactly that rank."""
    top = report.findings[0] if report.findings else None
    if top is None:
        return False, "top finding: none"
    ok = (top.cohort, top.category, top.shape, top.stage) == (
        (rank,), "fault", "imbalance", "Comm"
    )
    return ok, (
        f"top finding: {top.shape} in {top.stage}/{top.category} "
        f"on ranks {list(top.cohort)}"
    )


# -- rendering / validation / CLI -----------------------------------------
def render_diag(report: DiagReport, top: int = 5) -> str:
    """Human-readable diagnosis: headline verdict, then ranked findings."""
    lines = [
        f"diagnosis [{report.kind}]: {report.old_label} -> {report.new_label}",
        f"  totals {report.old_total:.6g}s -> {report.new_total:.6g}s "
        f"({report.delta:+.4g}s)",
        f"  verdict: {report.verdict}",
    ]
    for i, f in enumerate(report.findings[:top], 1):
        lines.append("")
        lines.append(
            f"#{i} [{f.shape}] {f.scope}: {f.delta:+.4g}s "
            f"({f.share:.0%} of explained delta)"
        )
        lines.append(f"    {f.detail}")
        if f.evidence and "name" in f.evidence:
            ev = f.evidence
            where = f" on {ev['track']}" if ev.get("track") else ""
            who = f" (rank {ev['rank']})" if "rank" in ev else ""
            lines.append(
                f"    evidence{who}: span {ev['name']!r} [{ev.get('cat', '?')}]"
                f"{where}"
            )
    hidden = len(report.findings) - top
    if hidden > 0:
        lines.append(f"  ... {hidden} more finding(s); raise --top to see them")
    return "\n".join(lines)


def validate_diag_doc(doc: dict) -> int:
    """Validate a ``repro-diag/1`` report; returns the finding count."""
    c = Cursor(doc, "diag report")
    c.schema(SCHEMA)
    kind = c.text("kind")
    c.require(kind in ("bench", "scaling", "rankprof", "trace"),
              f"unknown kind {kind!r}", "kind")
    total = c.obj("total")
    old, new, delta = (total.number(k, finite=True) for k in ("old", "new", "delta"))
    total.require(abs(delta - (new - old)) <= 1e-9, "delta != new - old", "delta")
    c.text("verdict", nonempty=True)
    findings = c.arr("findings")
    prev = math.inf
    share_sum = 0.0
    for f in findings.each():
        for k in ("scope", "stage", "category", "detail"):
            f.text(k)
        shape = f.text("shape")
        f.require(shape in SHAPES, f"unknown shape {shape!r}", "shape")
        d = f.number("delta", finite=True)
        f.require(abs(d) <= prev + 1e-12, "findings not ranked by |delta|", "delta")
        prev = abs(d)
        s = f.number("share", lo=0.0)
        f.require(s <= 1.0, f"share {s!r} above 1", "share")
        share_sum += s
        for rank in f.arr("cohort").each():
            rank.integer()
    if findings.value:
        findings.require(abs(share_sum - 1.0) <= 1e-6,
                         f"shares sum to {share_sum!r}, not 1.0")
    return len(findings.value)


def main(argv=None) -> int:
    """``python -m repro diag OLD NEW [--json PATH] [--top N]``."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="repro diag",
        description=(
            "Diff two observability artifacts (bench, scaling, rankprof, or "
            "Chrome traces) and explain the delta: stage, critpath category, "
            "rank cohort, and regression shape."
        ),
    )
    parser.add_argument("old", help="baseline artifact (JSON)")
    parser.add_argument("new", help="candidate artifact (JSON)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the repro-diag/1 report")
    parser.add_argument("--top", type=int, default=5,
                        help="findings to print (default 5)")
    args = parser.parse_args(argv)

    try:
        old_kind, old_doc = load_artifact(args.old)
        new_kind, new_doc = load_artifact(args.new)
    except (OSError, ValueError, KeyError) as exc:
        print(f"diag: {exc}", file=sys.stderr)
        return 2
    if old_kind != new_kind:
        # A kind mismatch is a *failed check* on valid inputs, not a
        # usage error: name the check and exit 1 (no traceback).
        print(
            f"diag: FAILED kind-match — cannot diag across kinds: "
            f"{args.old} is {old_kind!r}, {args.new} is {new_kind!r}",
            file=sys.stderr,
        )
        return 1
    try:
        report = diagnose(old_doc, new_doc, old_label=args.old,
                          new_label=args.new)
    except (OSError, ValueError, KeyError) as exc:
        print(f"diag: {exc}", file=sys.stderr)
        return 2
    print(render_diag(report, top=args.top))
    if args.json:
        doc = report.to_dict()
        validate_diag_doc(doc)
        write(args.json, doc)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
