"""Per-rank critical-path profiler: load imbalance at rank granularity.

The critical-path analyzer (:mod:`repro.obs.critpath`) explains one
rank's modeled exchange.  But the
paper's scaling cliffs (Figs. 11-15) are *distribution* phenomena — a
handful of slow ranks, or one saturated category on a straggler cohort,
decide the strong-scaling knee.  This module extends the attribution to
rank granularity:

* :func:`profile_exchange` runs :func:`~repro.core.modeling.\
  modeled_exchange_time` for **every** rank of an exchange under a fresh
  trace and critical-path-analyzes each round, producing a per-rank ×
  per-phase × per-category time table;
* :class:`RankProfileResult` derives the load-imbalance metrics the
  stage model only asserts analytically — max/mean and p99/p50 ratios
  per phase — and identifies **stragglers** with span-anchored evidence
  (the longest link of the slow rank's critical chain);
* :func:`feed_telemetry` folds the table into per-rank-labeled
  :class:`~repro.obs.sketch.QuantileSketch` es on the always-on
  telemetry plane;
* :func:`to_dict` / :func:`validate_rankprof_doc` define the versioned
  ``repro-rankprof/1`` artifact;
* :func:`check_names_straggler` is the diagnosis contract: a stall on
  one rank makes that rank, and only it, the straggler of every phase,
  with ``fault`` its top category.

The exactness contract carries over bit-for-bit: each rank's
attribution partitions its modeled exchange time exactly (the critpath
invariant), rank 0's row *is* the attribution ``critpath`` gives rank
0's round alone (same spans, same analysis; :func:`check_rank0_row`),
and profiling is a pure observer — the 24-configuration differential
suite proves ghosts and forces stay bit-identical with the profiler
enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.artifact import Cursor
from repro.machine.params import FUGAKU, MachineParams
from repro.obs.critpath import (
    CriticalPathResult,
    partitions,
    require_partition,
    traced_round,
)

#: Versioned schema identifier checked by :func:`validate_rankprof_doc`.
SCHEMA = "repro-rankprof/1"

#: Exchange phases a profile may cover.
PROFILE_PHASES = ("forward", "reverse", "border")

#: A rank is a straggler when its completion exceeds the per-phase
#: median by this relative margin.
STRAGGLER_MARGIN = 0.10


def rank_percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile of ``values`` under the sketch rank convention.

    Value at 1-based rank ``max(1, ceil(q * n))`` of the sorted list —
    the same rule :meth:`repro.obs.sketch.QuantileSketch.quantile`
    applies, so table-derived and sketch-derived percentiles agree.
    Returns ``nan`` for an empty list (the unified empty-distribution
    semantics).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


@dataclass(frozen=True)
class RankPhaseProfile:
    """One rank's critical-path account of one exchange phase."""

    rank: int
    phase: str
    completion: float  # modeled exchange seconds (== attribution sum)
    attribution: dict[str, float]
    messages: int
    wire_segments: int
    natoms: int  # owned atoms (the Pair-side load proxy)
    evidence: dict  # longest chain link: name/cat/track/start/end

    @property
    def top_category(self) -> str:
        """Category holding the largest share of this rank's path."""
        if not self.attribution:
            return ""
        return max(self.attribution.items(), key=lambda kv: kv[1])[0]


@dataclass(frozen=True)
class ImbalanceStats:
    """Distribution summary of one phase's per-rank completions."""

    phase: str
    mean: float
    min: float
    max: float
    max_mean: float  # the classic LAMMPS-style imbalance ratio
    p99_p50: float
    stragglers: tuple[int, ...]  # ranks above the straggler margin


@dataclass
class RankProfileResult:
    """Per-rank × per-phase × per-category profile of one exchange."""

    pattern: str
    ranks: int
    phases: tuple[str, ...]
    straggler_margin: float = STRAGGLER_MARGIN
    profiles: list[RankPhaseProfile] = field(default_factory=list)

    def by_phase(self, phase: str) -> list[RankPhaseProfile]:
        """This phase's rows, ordered by rank."""
        rows = [p for p in self.profiles if p.phase == phase]
        return sorted(rows, key=lambda p: p.rank)

    def completions(self, phase: str) -> list[float]:
        """Per-rank modeled completion seconds of one phase."""
        return [p.completion for p in self.by_phase(phase)]

    def imbalance(self, phase: str) -> ImbalanceStats:
        """max/mean + p99/p50 imbalance and the straggler cohort."""
        rows = self.by_phase(phase)
        times = [p.completion for p in rows]
        if not times:
            return ImbalanceStats(phase, math.nan, math.nan, math.nan,
                                  math.nan, math.nan, ())
        mean = sum(times) / len(times)
        p50 = rank_percentile(times, 0.50)
        p99 = rank_percentile(times, 0.99)
        cut = p50 * (1.0 + self.straggler_margin)
        stragglers = tuple(p.rank for p in rows if p.completion > cut)
        return ImbalanceStats(
            phase=phase,
            mean=mean,
            min=min(times),
            max=max(times),
            max_mean=max(times) / mean if mean > 0 else math.nan,
            p99_p50=p99 / p50 if p50 > 0 else math.nan,
            stragglers=stragglers,
        )

    def categories(self, phase: str) -> dict[str, float]:
        """Per-category seconds summed over all ranks of one phase."""
        out: dict[str, float] = {}
        for p in self.by_phase(phase):
            for cat, secs in p.attribution.items():
                out[cat] = out.get(cat, 0.0) + secs
        return out


def _chain_evidence(cp: CriticalPathResult) -> dict:
    """The longest link of a critical chain, span-anchored."""
    if not cp.segments:
        return {}
    seg = max(cp.segments, key=lambda s: s.dur)
    return {
        "name": seg.name,
        "cat": seg.cat,
        "track": seg.track,
        "start": seg.start,
        "end": seg.end,
        "dur": seg.dur,
    }


def profile_exchange(
    exchange,
    phases: tuple[str, ...] = ("forward",),
    params: MachineParams = FUGAKU,
    straggler_margin: float = STRAGGLER_MARGIN,
) -> RankProfileResult:
    """Critical-path-profile every rank of ``exchange``, per phase.

    Each (rank, phase) runs the rank's real message schedule through the
    network simulator under a fresh trace (the model cache is bypassed
    whenever the tracer is live, so every round produces full
    provenance spans) and is analyzed independently.  Pure observer: the
    exchange's functional state, plan cache, and fast-path gate are
    untouched.
    """
    for phase in phases:
        if phase not in PROFILE_PHASES:
            raise ValueError(
                f"unknown phase {phase!r}; choose from {PROFILE_PHASES}"
            )
    result = RankProfileResult(
        pattern=exchange.name,
        ranks=exchange.world.size,
        phases=tuple(phases),
        straggler_margin=straggler_margin,
    )
    for rank in range(exchange.world.size):
        natoms = int(exchange.atoms_of(rank).nlocal)
        for phase in phases:
            _, cp = traced_round(exchange, phase, rank, params)
            result.profiles.append(
                RankPhaseProfile(
                    rank=rank,
                    phase=phase,
                    completion=cp.completion - cp.base,
                    attribution=dict(cp.attribution),
                    messages=cp.messages,
                    wire_segments=cp.wire_segments,
                    natoms=natoms,
                    evidence=_chain_evidence(cp),
                )
            )
    return result


def feed_telemetry(result: RankProfileResult, telemetry=None) -> int:
    """Fold a profile into per-rank-labeled telemetry sketches.

    Records ``rank_exchange_seconds{phase,rank}`` (one sample per rank
    per phase) and ``rank_critpath_seconds{phase,rank,category}`` into
    the given :class:`~repro.obs.telemetry.StepTelemetry` (default: the
    globally attached one).  Returns the number of samples recorded —
    0 when no telemetry is attached, so callers never need to guard.
    """
    if telemetry is None:
        from repro.obs.telemetry import TELEMETRY

        telemetry = TELEMETRY.active
    if telemetry is None:
        return 0
    samples = 0
    for p in result.profiles:
        telemetry.observe(
            "rank_exchange_seconds", p.completion, phase=p.phase, rank=p.rank
        )
        samples += 1
        for cat, secs in p.attribution.items():
            telemetry.observe(
                "rank_critpath_seconds", secs,
                phase=p.phase, rank=p.rank, category=cat,
            )
            samples += 1
    return samples


# -- artifact -------------------------------------------------------------
def to_dict(result: RankProfileResult, label: str = "local") -> dict:
    """The versioned ``repro-rankprof/1`` form of a profile."""
    phases = {}
    for phase in result.phases:
        imb = result.imbalance(phase)
        phases[phase] = {
            "rows": [
                {
                    "rank": p.rank,
                    "completion": p.completion,
                    "attribution": dict(p.attribution),
                    "messages": p.messages,
                    "wire_segments": p.wire_segments,
                    "natoms": p.natoms,
                    "top": p.top_category,
                    "evidence": dict(p.evidence),
                }
                for p in result.by_phase(phase)
            ],
            "imbalance": {
                "mean": imb.mean,
                "min": imb.min,
                "max": imb.max,
                "max_mean": imb.max_mean,
                "p99_p50": imb.p99_p50,
                "stragglers": list(imb.stragglers),
            },
        }
    return {
        "schema": SCHEMA,
        "label": label,
        "pattern": result.pattern,
        "ranks": result.ranks,
        "straggler_margin": result.straggler_margin,
        "phases": phases,
    }


def validate_rankprof_doc(doc: dict) -> int:
    """Validate a ``repro-rankprof/1`` document; returns the row count.

    The critical invariant is re-checked on the serialized form: every
    row's attribution must sum to its completion within float tolerance.
    ``max_mean`` / ``p99_p50`` may be NaN (a phase whose mean or p50 is 0).
    """
    c = Cursor(doc, "rankprof document")
    c.schema(SCHEMA)
    ranks = c.integer("ranks", lo=1)
    rows_total = 0
    for body in c.obj("phases", nonempty=True).each():
        body.require(body.key in PROFILE_PHASES, f"unknown phase {body.key!r}")
        seen = set()
        for row in body.arr("rows", nonempty=True).each():
            r = row.integer("rank", lo=0)
            row.require(r < ranks, f"rank {r} outside {ranks} ranks", "rank")
            row.require(r not in seen, f"duplicate rank {r}", "rank")
            seen.add(r)
            require_partition(row, row.number("completion", lo=0, finite=True))
            rows_total += 1
        imb = body.obj("imbalance")
        for k in ("mean", "max", "max_mean", "p99_p50"):
            imb.number(k)
        for straggler in imb.arr("stragglers").each():
            straggler.integer()
    return rows_total


def check_partitions(result: RankProfileResult) -> tuple[bool, str]:
    """Every (rank, phase) row's attribution partitions its completion."""
    ok = all(partitions(p.attribution.values(), p.completion) for p in result.profiles)
    return ok, f"{len(result.profiles)} rank x phase rows checked"


def check_telescopes(result: RankProfileResult, exchange) -> tuple[bool, str]:
    """Each row's completion is, bit for bit, the untraced
    ``modeled_exchange_time`` of that rank and phase."""
    from repro.core.modeling import modeled_exchange_time

    ok = all(
        modeled_exchange_time(exchange, p.phase, rank=p.rank) == p.completion
        for p in result.profiles
    )
    return ok, f"{len(result.profiles)} independent re-computations"


def check_rank0_row(result: RankProfileResult, cp: CriticalPathResult) -> tuple[bool, str]:
    """Rank 0's forward row is the whole-run critical path ``cp`` of the
    same round, bit for bit."""
    row = result.by_phase("forward")[0]
    ok = row.attribution == dict(cp.attribution) and row.completion == cp.completion - cp.base
    return ok, f"{len(row.attribution)} categories compared"


def check_document(doc: dict, result: RankProfileResult) -> tuple[bool, str]:
    """``doc`` (the serialized ``result``) validates with one row per profile."""
    try:
        rows = validate_rankprof_doc(doc)
    except ValueError as exc:
        return False, str(exc)
    return rows == len(result.profiles), f"{rows} rows"


def check_names_straggler(
    clean: RankProfileResult, perturbed: RankProfileResult, rank: int
) -> tuple[bool, str]:
    """A fault stall on ``rank`` alone makes it the sole straggler.

    Passes when ``clean`` has no straggler in any phase and, in every
    phase of ``perturbed``, the straggler cohort is exactly ``(rank,)``
    with ``fault`` that row's top category.
    """
    calm = not any(clean.imbalance(ph).stragglers for ph in clean.phases)
    seen = []
    for phase in perturbed.phases:
        cohort = perturbed.imbalance(phase).stragglers
        top = next((p.top_category for p in perturbed.by_phase(phase) if p.rank == rank), None)
        seen.append((phase, cohort, top))
    ok = calm and bool(seen) and all(c == (rank,) and t == "fault" for _, c, t in seen)
    return ok, f"clean stragglers: {'none' if calm else 'some'}; " + ", ".join(
        f"{ph} stragglers {list(c)} (rank {rank} top {t})" for ph, c, t in seen)


def render_rank_profile(result: RankProfileResult) -> str:
    """Text report: per-phase rank table + imbalance + straggler evidence."""
    lines = [
        f"per-rank exchange profile: pattern {result.pattern}, "
        f"{result.ranks} ranks, phases {', '.join(result.phases)}"
    ]
    for phase in result.phases:
        imb = result.imbalance(phase)
        lines.append("")
        lines.append(
            f"[{phase}] max/mean {imb.max_mean:.3f}, p99/p50 {imb.p99_p50:.3f}, "
            f"stragglers {list(imb.stragglers) or 'none'} "
            f"(margin {100 * result.straggler_margin:g}% over median)"
        )
        lines.append(f"{'rank':>5} | {'atoms':>6} | {'modeled us':>10} | "
                     f"{'msgs':>4} | top category")
        lines.append("-" * 64)
        for p in result.by_phase(phase):
            mark = " *" if p.rank in imb.stragglers else ""
            lines.append(
                f"{p.rank:>5} | {p.natoms:>6} | {p.completion * 1e6:>10.3f} | "
                f"{p.messages:>4} | {p.top_category}{mark}"
            )
        for p in result.by_phase(phase):
            if p.rank in imb.stragglers and p.evidence:
                ev = p.evidence
                lines.append(
                    f"  straggler rank {p.rank}: longest link {ev['name']!r} "
                    f"({ev['cat']}, {ev['dur'] * 1e6:.3f}us on {ev['track']}) "
                    f"[{ev['start'] * 1e6:.3f}, {ev['end'] * 1e6:.3f}]us"
                )
    return "\n".join(lines)
