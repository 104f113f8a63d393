"""Every paper claim the reproduction checks, stated once.

Each row of :data:`CLAIMS` names the experiment whose ``compute()``
result it reads (an ``EXPERIMENTS`` key of ``python -m repro.figures``),
a getter over that result, the published value as a reference into that
module's ``PAPER`` dict, and an optional open ``(lower, upper)`` band.
A getter that returns a bool makes a *shape* row, which must be True; a
numeric row must land inside its band, or is reported only when it has
none.  This is a ReFrame check's shape: the sanity pattern and its
reference band live in one object.

Three readers, one table:

* ``tests/figures`` runs one test per row on each experiment's default
  result;
* the calibration sweep (:mod:`repro.figures.sensitivity_fig`) re-checks
  the ``robust`` rows under every perturbed machine constant;
* :func:`scoreboard` renders EXPERIMENTS.md's summary: one line per
  experiment, every numeric row's error against the paper, and the
  median / max error of the ``fit`` and ``held-out`` splits.

The split covers the 31 published numbers of Fig. 12 and Fig. 13 /
Table 3 and is fixed before any model change: the model may be tuned on
``fit`` rows and is judged on ``held-out`` ones.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from types import ModuleType
from typing import Any

import numpy as np

from repro.figures import eqs, fig6, fig8, fig12, fig13, fig14, fig15, micro33, table1
from repro.machine.params import FUGAKU

INF = math.inf


@dataclass(frozen=True)
class Claim:
    """One checked statement about one experiment's result."""

    id: str
    experiment: str
    get: Callable[[Any], Any]
    paper: float | None = None
    band: tuple[float, float] | None = None
    split: str | None = None  # "fit" | "held-out" | None
    robust: bool = False

    def check(self, result: Any) -> tuple[Any, bool]:
        """The row's value on ``result`` and whether the row holds."""
        value = self.get(result)
        if isinstance(value, (bool, np.bool_)):
            return bool(value), bool(value)
        lower, upper = self.band if self.band is not None else (-INF, INF)
        return value, lower < value < upper


def _last(res, potential: str, variant: str):
    """Fig. 13's stage result at the last (36 864-node) point."""
    return res.curves[(potential, variant)][-1].result


def _fig8_small(res) -> list[int]:
    """Indices of the sizes below the paper's 512 B small-message edge."""
    return [k for k, size in enumerate(res.sizes) if size <= 512]


_TABLE3_RUN = {"ref": "origin", "opt": "opt"}
_TABLE3_BANDS = {("ref", "lj", "Comm"): (55.0, 80.0), ("opt", "lj", "Comm"): (35.0, 60.0)}


CLAIMS: tuple[Claim, ...] = (
    # Table 1 — communication pattern analysis
    Claim(
        "table1.volume-ratio", "table1",
        lambda r: math.isclose(r.volume_ratio, table1.PAPER["volume_ratio"]),
    ),
    Claim(
        "table1.msgs.3stage", "table1",
        lambda r: r.three_stage.total_messages == table1.PAPER["3stage"]["total_msg"],
    ),
    Claim(
        "table1.msgs.p2p", "table1",
        lambda r: r.p2p.total_messages == table1.PAPER["p2p"]["total_msg"],
    ),
    # Equations (3)-(8)
    Claim(
        "eqs.utofu-p2p-wins", "eqs",
        lambda r: r.utofu_p2p_wins == eqs.PAPER["utofu_p2p_parallel_wins"],
    ),
    Claim(
        "eqs.mpi-naive-p2p-loses", "eqs",
        lambda r: r.mpi_naive_p2p_loses == eqs.PAPER["mpi_naive_p2p_loses"],
    ),
    Claim(
        "eqs.parallel-le-opt-le-naive", "eqs",
        lambda r: all(
            tm.three_stage_parallel <= tm.three_stage_opt <= tm.three_stage_naive
            and tm.p2p_parallel <= tm.p2p_opt <= tm.p2p_naive
            for tm in (r.mpi, r.utofu)
        ),
    ),
    # Fig. 6 — transmission time of the five implementations
    Claim(
        "fig6.mpi-p2p-slower.lj-65k", "fig6",
        lambda r: (r.times["lj-65k"]["mpi_p2p"] > r.times["lj-65k"]["ref"])
        == fig6.PAPER["mpi_p2p_slower_than_mpi_3stage"],
        robust=True,
    ),
    Claim(
        "fig6.utofu-p2p-beats-3stage.lj-65k", "fig6",
        lambda r: r.times["lj-65k"]["4tni_p2p"] < r.times["lj-65k"]["utofu_3stage"],
        robust=True,
    ),
    Claim(
        "fig6.utofu-3stage-beats-mpi.lj-65k", "fig6",
        lambda r: r.times["lj-65k"]["utofu_3stage"] < r.times["lj-65k"]["ref"],
    ),
    Claim("fig6.opt-beats-ref.lj-65k", "fig6", lambda r: r.times["lj-65k"]["opt"] < r.times["lj-65k"]["ref"]),
    Claim(
        "fig6.p2p-wins.lj-1.7m", "fig6",
        lambda r: max(r.times["lj-1.7m"]["4tni_p2p"], r.times["lj-1.7m"]["opt"])
        < r.times["lj-1.7m"]["utofu_3stage"],
    ),
    Claim(
        "fig6.reduction.lj-65k", "fig6", lambda r: r.reduction("lj-65k"),
        paper=fig6.PAPER["reduction_utofu_p2p_vs_mpi_3stage"], band=(0.65, 0.95),
    ),
    Claim(
        "fig6.utofu-ratio.lj-65k", "fig6", lambda r: r.utofu_ratio("lj-65k"),
        paper=fig6.PAPER["utofu_p2p_vs_utofu_3stage_speedup"], band=(1.2, 2.2),
    ),
    # Fig. 8 — message rate vs size
    Claim(
        "fig8.single-6tni-slower", "fig8",
        lambda r: all(
            r.rates["single-6tni"][k] < r.rates["single-4tni"][k] for k in _fig8_small(r)
        )
        == fig8.PAPER["single_6tni_below_single_4tni"],
        robust=True,
    ),
    Claim(
        "fig8.parallel-gain.below-512b", "fig8",
        lambda r: min(r.parallel_gain(r.sizes[k]) for k in _fig8_small(r)),
        band=(fig8.PAPER["parallel_gain_small_messages"], INF),
    ),
    Claim("fig8.rate-falls-with-size", "fig8", lambda r: all(v[0] >= v[-1] for v in r.rates.values())),
    Claim(
        "fig8.bandwidth-saturates", "fig8",
        lambda r: r.bandwidths["single-4tni"][-1] > 0.8 * r.bandwidths["single-4tni"][-2]
        and r.bandwidths["single-4tni"][-1] * 1e9 <= 4 * FUGAKU.link_bandwidth * 1.01,
    ),
    # Fig. 11 — accuracy, real MD
    Claim("fig11.traces-agree", "fig11", lambda r: r.agrees),
    Claim("fig11.max-diff.lj", "fig11", lambda r: r.lj.max_abs_diff, band=(-INF, 1e-10)),
    Claim("fig11.max-diff.eam", "fig11", lambda r: r.eam.max_abs_diff, band=(-INF, 1e-10)),
    Claim(
        "fig11.traces-evolve", "fig11",
        lambda r: len(r.lj.pressure_ref) >= 5 and max(r.lj.pressure_ref) != min(r.lj.pressure_ref),
    ),
    # Fig. 12 — step-by-step speedups on 768 nodes
    *(
        Claim(
            f"fig12.speedup.{pot}-{size}", "fig12",
            lambda r, w=f"{pot}-{size}": r.speedup(w, "opt"),
            paper=fig12.PAPER[key][pot], band=band, split=split,
        )
        for pot, size, key, split, band in (
            ("lj", "65k", "total_speedup_65k", "fit", (2.2, 4.2)),
            ("eam", "65k", "total_speedup_65k", "fit", (1.8, 4.0)),
            ("lj", "1.7m", "total_speedup_1m7", "held-out", (1.2, 2.6)),
            ("eam", "1.7m", "total_speedup_1m7", "held-out", (1.1, 2.0)),
        )
    ),
    Claim(
        "fig12.comm-reduction.lj-65k", "fig12", lambda r: r.comm_reduction("lj-65k"),
        paper=fig12.PAPER["comm_reduction_65k"], band=(0.65, 0.88), split="held-out",
    ),
    Claim(
        "fig12.pair-reduction.lj-65k", "fig12", lambda r: r.pair_reduction("lj-65k"),
        paper=fig12.PAPER["pair_reduction_65k"]["lj"], band=(0.30, 0.75), split="held-out",
    ),
    Claim(
        "fig12.pair-reduction.eam-65k", "fig12", lambda r: r.pair_reduction("eam-65k"),
        paper=fig12.PAPER["pair_reduction_65k"]["eam"], band=(0.35, 0.80), split="held-out",
    ),
    Claim(
        "fig12.gain-shrinks-with-size", "fig12",
        lambda r: r.speedup("lj-1.7m", "opt") < r.speedup("lj-65k", "opt")
        and r.speedup("eam-1.7m", "opt") < r.speedup("eam-65k", "opt"),
    ),
    Claim(
        "fig12.6tni-below-4tni.lj-65k", "fig12",
        lambda r: r.speedup("lj-65k", "6tni_p2p") < r.speedup("lj-65k", "4tni_p2p"),
    ),
    Claim(
        "fig12.opt-fastest.lj-65k", "fig12",
        lambda r: all(
            r.speedup("lj-65k", "opt") >= r.speedup("lj-65k", v)
            for v in ("utofu_3stage", "4tni_p2p", "6tni_p2p")
        ),
    ),
    # Fig. 13 + Table 3 — strong scaling to 36 864 nodes
    *(
        Claim(
            f"fig13.speedup.{pot}", "fig13", lambda r, pot=pot: r.speedup_last(pot),
            paper=fig13.PAPER["speedup_last"][pot], band=band, split="held-out",
        )
        for pot, band in (("lj", (2.2, 3.8)), ("eam", (1.7, 3.2)))
    ),
    Claim(
        "fig13.perf.lj-mtau-per-day", "fig13", lambda r: r.perf_last("lj"),
        paper=fig13.PAPER["perf_last"]["lj_mtau_day"], band=(3.0, 40.0), split="held-out",
    ),
    Claim(
        "fig13.perf.eam-us-per-day", "fig13", lambda r: r.perf_last("eam"),
        paper=fig13.PAPER["perf_last"]["eam_us_day"], band=(1.0, 15.0), split="held-out",
    ),
    *(
        Claim(
            f"table3.{_TABLE3_RUN[variant]}-{pot}.{stage.lower()}", "fig13",
            lambda r, pot=pot, variant=variant, stage=stage: _last(r, pot, variant).percent(stage),
            paper=pct, band=_TABLE3_BANDS.get((variant, pot, stage)), split="fit",
        )
        for (variant, pot), row in fig13.PAPER["table3_pct"].items()
        for stage, pct in row.items()
    ),
    Claim(
        "table3.origin-eam.pair-largest", "fig13",
        lambda r: _last(r, "eam", "ref").stages["Pair"] == max(_last(r, "eam", "ref").stages.values()),
    ),
    Claim(
        "table3.opt-eam.other-above-comm", "fig13",
        lambda r: _last(r, "eam", "opt").stages["Other"] > _last(r, "eam", "opt").stages["Comm"],
    ),
    Claim("fig13.opt-beats-ref-1.5x.lj", "fig13", lambda r: r.speedup_last("lj") > 1.5, robust=True),
    Claim(
        "fig13.comm-halved.lj", "fig13", lambda r: r.reduction_last("lj", "Comm") > 0.5,
        robust=True,
    ),
    Claim("fig13.pair-reduction.lj", "fig13", lambda r: r.reduction_last("lj", "Pair"), band=(0.3, 0.75)),
    Claim("fig13.pair-reduction.eam", "fig13", lambda r: r.reduction_last("eam", "Pair"), band=(0.4, 0.80)),
    Claim(
        "fig13.efficiency-falls", "fig13",
        lambda r: all(
            a >= b for key in r.curves for a, b in zip(r.efficiency(*key), r.efficiency(*key)[1:])
        ),
    ),
    Claim(
        "fig13.opt-holds-efficiency", "fig13",
        lambda r: all(
            o >= f
            for pot in ("lj", "eam")
            for o, f in zip(r.efficiency(pot, "opt")[1:], r.efficiency(pot, "ref")[1:])
        ),
    ),
    # Fig. 14 — weak scaling
    *(
        Claim(f"fig14.linearity.{pot}", "fig14", lambda r, pot=pot: r.linearity(pot), band=(0.9, INF))
        for pot in ("lj", "eam")
    ),
    *(
        Claim(
            f"fig14.atoms.{pot}", "fig14", lambda r, pot=pot: r.curves[pot][-1].natoms,
            paper=fig14.PAPER["atoms_final"][pot], band=(0.99 * atoms, 1.01 * atoms),
        )
        for pot, atoms in (("lj", 99.5e9), ("eam", 71.7e9))
    ),
    *(
        Claim(
            f"fig14.step-time-spread.{pot}", "fig14",
            lambda r, pot=pot: max(p.step_time for p in r.curves[pot])
            / min(p.step_time for p in r.curves[pot]),
            band=(0.0, 1.15),
        )
        for pot in ("lj", "eam")
    ),
    # Fig. 15 — extended neighborhoods
    Claim("fig15.winners", "fig15", lambda r: r.wins() == fig15.PAPER["p2p_wins"]),
    Claim(
        "fig15.p2p-time-grows", "fig15",
        lambda r: 0 < r.scenarios[0].p2p_time < r.scenarios[1].p2p_time < r.scenarios[2].p2p_time
        and all(s.three_stage_time > 0 for s in r.scenarios),
    ),
    Claim(
        "fig15.p2p-growth.124-vs-26", "fig15",
        lambda r: r.scenarios[2].p2p_time / r.scenarios[0].p2p_time, band=(0.8 * 124 / 26, INF),
    ),
    Claim(
        "fig15.3stage-growth.124-vs-26", "fig15",
        lambda r: r.scenarios[2].three_stage_time / r.scenarios[0].three_stage_time,
        band=(0.0, 4.0),
    ),
    # Section 3.3 — OpenMP vs thread pool
    Claim(
        "micro33.openmp-fork-join", "micro33",
        lambda r: math.isclose(r.openmp_fork_join, 1e-6 * micro33.PAPER["openmp_fork_join_us"]),
    ),
    Claim(
        "micro33.pool-fork-join", "micro33",
        lambda r: math.isclose(r.pool_fork_join, 1e-6 * micro33.PAPER["threadpool_fork_join_us"]),
    ),
    Claim(
        "micro33.modify-slowdown", "micro33", lambda r: r.openmp_modify_slowdown,
        paper=micro33.PAPER["modify_slowdown_at_22_atoms"], band=(8.0, INF),
    ),
    Claim("micro33.pool-modify-faster", "micro33", lambda r: r.modify_pool < r.modify_openmp),
    # Section 3.5.3 — topo map
    Claim("topomap.hop-reduction", "topomap", lambda r: r.hop_reduction, band=(0.4, INF)),
    Claim(
        "topomap.fewer-hops-and-traversals", "topomap",
        lambda r: r.mapped.mean_hops < r.randomized.mean_hops
        and r.mapped.total_link_traversals < r.randomized.total_link_traversals,
    ),
    Claim("topomap.on-node-fraction", "topomap", lambda r: r.on_node_fraction_mapped, band=(0.05, INF)),
    Claim(
        "topomap.on-node-beats-random", "topomap",
        lambda r: r.on_node_fraction_random < r.on_node_fraction_mapped,
    ),
    # Sections 3.4/3.5 — ablations
    Claim(
        "ablations.prereg-halves-registrations", "ablations",
        lambda r: r.registrations_opt < r.registrations_baseline / 2
        and r.registration_time_saved > 0,
    ),
    Claim("ablations.combine-saving", "ablations", lambda r: r.combine_saving, band=(0.3, 0.7)),
    Claim("ablations.bins-test-reduction", "ablations", lambda r: r.bins_test_reduction, band=(4.0, INF)),
    Claim(
        "ablations.each-removal-costs", "ablations",
        lambda r: all(t >= times["opt"] * 0.999 for times in r.step_times.values() for t in times.values()),
    ),
    Claim(
        "ablations.openmp-removal-cost", "ablations",
        lambda r: min(t["opt-openmp"] / t["opt"] for t in r.step_times.values()),
        band=(1.1, INF),
    ),
    # Calibration sensitivity: the robust rows above, under every perturbation
    Claim(
        "sensitivity.robust-rows-hold.0.5x-2x", "sensitivity",
        lambda rows: all(
            row.results.keys() >= {0.5, 2.0} and all(map(row.holds_at, row.results))
            for row in rows
        ),
    ),
)

#: The rows the calibration sweep re-checks (the old C1-C5).
ROBUST: tuple[Claim, ...] = tuple(c for c in CLAIMS if c.robust)


def scoreboard(experiments: Mapping[str, ModuleType], results: Mapping[str, Any]) -> str:
    """EXPERIMENTS.md's summary block, rendered from the rows."""
    checked = {c.id: c.check(results[c.experiment]) for c in CLAIMS}
    lines = ["| experiment | paper artifact | claims holding |", "|---|---|---|"]
    for name, module in experiments.items():
        ids = [c.id for c in CLAIMS if c.experiment == name]
        failed = [i for i in ids if not checked[i][1]]
        status = f"{len(ids) - len(failed)} / {len(ids)}"
        if failed:
            status += " — fails " + ", ".join(f"`{i}`" for i in failed)
        artifact = (module.__doc__ or name).strip().splitlines()[0].rstrip(".")
        lines.append(f"| `{name}` | {artifact} | {status} |")

    lines += ["", "| claim | split | paper | measured | error |", "|---|---|---:|---:|---:|"]
    errors: dict[str, list[float]] = {"fit": [], "held-out": []}
    for c in CLAIMS:
        if c.paper is None:
            continue
        value = checked[c.id][0]
        error = value / c.paper - 1.0
        if c.split is not None:
            errors[c.split].append(abs(error))
        lines.append(
            f"| `{c.id}` | {c.split or '—'} | {c.paper:g} | {value:.3g} | {100 * error:+.1f} % |"
        )

    lines += ["", "| split | rows | median error | max error |", "|---|---:|---:|---:|"]
    for split, errs in errors.items():
        lines.append(
            f"| {split} | {len(errs)} | {100 * statistics.median(errs):.1f} % "
            f"| {100 * max(errs):.1f} % |"
        )
    return "\n".join(lines)
