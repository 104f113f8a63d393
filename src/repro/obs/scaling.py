"""Scaling-curve capture: measured ladders vs the calibrated model.

``python -m repro.obs.bench scaling`` runs one benchmark configuration
across a *rank-grid ladder* (strong scaling: the cell count is fixed, so
every rung simulates the same atoms on more ranks) and emits a versioned
``repro-scaling/1`` artifact.  Every rung records:

* measured wall statistics over N repeats and the deterministic modeled
  stage breakdown (the same accounts ``repro-bench/1`` keeps);
* **parallel efficiency** of both curves relative to the first rung
  (``eff_i = t_0 r_0 / (t_i r_i)``, the Fig. 13a formula);
* per-rank **imbalance** from the rank profiler
  (:mod:`repro.obs.rankprof`) — max/mean, p99/p50, straggler cohort —
  plus the full embedded ``repro-rankprof/1`` table;
* the **predicted** step time from :func:`repro.perfmodel.scaling.\
  modeled_ladder` at the matching node counts, and the
  predicted-vs-measured curve-shape **divergence**
  (``(t_i/t_0) / (p_i/p_0) - 1``: zero when the measured curve bends
  exactly like the analytic one, positive when measurement scales worse
  than predicted).

The artifact is what :mod:`repro.obs.diag` diffs to answer "why did
config B scale worse than A".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.artifact import Cursor
from repro.obs.bench import STAGES, BenchConfig, _model_stages, sample_wall

#: Versioned schema identifier checked by :func:`validate_scaling_doc`.
SCHEMA = "repro-scaling/1"

#: Default 2-rung ladder: cheap enough for CI, enough for a slope.
DEFAULT_LADDER = ((1, 2, 2), (2, 2, 2))

#: Functional exchange pattern -> perfmodel variant used for the
#: predicted curve.  (3-stage maps to the MPI reference; plain p2p to
#: the single-thread 4-TNI artifact; parallel-p2p to the full opt.)
PATTERN_VARIANTS = {"3stage": "ref", "p2p": "4tni_p2p", "parallel-p2p": "opt"}


@dataclass(frozen=True)
class ScalingSpec:
    """The configuration swept across the ladder (grid comes per rung)."""

    potential: str = "lj"
    pattern: str = "parallel-p2p"
    rdma: bool = True
    cells: tuple[int, int, int] = (4, 4, 4)
    steps: int = 10

    def config(self, grid: tuple[int, int, int]) -> BenchConfig:
        """This spec instantiated as one rung's :class:`BenchConfig`."""
        return BenchConfig(
            self.potential, self.pattern, grid, self.rdma, self.cells, self.steps
        )


def parse_ladder(text: str) -> tuple[tuple[int, int, int], ...]:
    """Parse ``"1x2x2,2x2x2"`` into a grid ladder."""
    ladder = []
    for part in text.split(","):
        dims = tuple(int(d) for d in part.strip().split("x"))
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"bad grid {part!r}; want e.g. 2x2x2")
        ladder.append(dims)
    if not ladder:
        raise ValueError("empty ladder")
    return tuple(ladder)


def workload_from_sim(sim, potential: str) -> "Workload":
    """Project a live Simulation onto the stage model's Workload axis.

    ``potential`` is the preset key ("lj" | "eam"); everything else —
    atom count, density, communication radius, timestep, rebuild
    cadence, Newton mode — is read off the live simulation so the
    predicted curve prices exactly the system that was measured.
    """
    from repro.perfmodel.stagemodel import Workload

    cfg = sim.config
    return Workload(
        name=f"capture-{potential}",
        potential=potential,
        natoms=sim.natoms,
        density=sim.natoms / sim.box.volume,
        rcomm=sim.potential.cutoff + cfg.skin,
        dt=cfg.dt,
        rebuild_every=cfg.neighbor_every,
        allreduce_every=5 if potential == "eam" else 0,
        newton=cfg.newton,
    )


def capture_scaling(
    spec: ScalingSpec,
    ladder=DEFAULT_LADDER,
    repeats: int = 2,
    label: str = "local",
) -> dict:
    """Run ``spec`` across ``ladder`` and build a ``repro-scaling/1`` doc.

    Rungs must be ordered by increasing rank count (strong-scaling
    convention: efficiencies are relative to the first rung).
    """
    from repro.obs.rankprof import profile_exchange, to_dict as rankprof_to_dict
    from repro.perfmodel.scaling import modeled_ladder, ranks_to_nodes

    ranks_list = [g[0] * g[1] * g[2] for g in ladder]
    if ranks_list != sorted(ranks_list):
        raise ValueError(f"ladder must be ordered by rank count, got {ranks_list}")

    points = []
    workload = None
    for grid in ladder:
        cfg = spec.config(grid)
        sim, wall = sample_wall(cfg, repeats)
        if workload is None:
            workload = workload_from_sim(sim, spec.potential)
        model = _model_stages(sim)
        prof = profile_exchange(sim.exchange, phases=("forward",))
        imb = prof.imbalance("forward")
        points.append(
            {
                "key": cfg.key,
                "grid": list(grid),
                "ranks": cfg.grid[0] * cfg.grid[1] * cfg.grid[2],
                "atoms": sim.natoms,
                "wall": wall,
                "model": {
                    "stages": model,
                    "total": sum(model.values()),
                    "per_step": sum(model.values()) / cfg.steps,
                },
                "imbalance": {
                    "max_mean": imb.max_mean,
                    "p99_p50": imb.p99_p50,
                    "stragglers": list(imb.stragglers),
                },
                "rankprof": rankprof_to_dict(prof, label=cfg.key),
            }
        )

    variant = PATTERN_VARIANTS[spec.pattern]
    predicted = modeled_ladder(workload, variant, ranks_list)
    t0 = points[0]["model"]["per_step"]
    r0 = ranks_list[0]
    p0 = predicted[0].step_time
    for pt, pred, ranks in zip(points, predicted, ranks_list):
        t = pt["model"]["per_step"]
        pt["efficiency"] = (t0 * r0) / (t * ranks) if t > 0 else math.nan
        pt["predicted"] = {
            "nodes": ranks_to_nodes(ranks),
            "step_time": pred.step_time,
            "efficiency": (p0 * predicted[0].nodes)
            / (pred.step_time * pred.nodes),
            "stages": dict(pred.result.stages),
        }
        # Curve-shape divergence: how much worse (positive) or better
        # (negative) the measured curve bends than the predicted one,
        # both normalized to their first rung.
        pt["divergence"] = (t / t0) / (pred.step_time / p0) - 1.0

    return {
        "schema": SCHEMA,
        "label": label,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "spec": {
            "potential": spec.potential,
            "pattern": spec.pattern,
            "rdma": spec.rdma,
            "cells": list(spec.cells),
            "steps": spec.steps,
            "repeats": repeats,
            "variant": variant,
        },
        "workload": {
            "natoms": workload.natoms,
            "density": workload.density,
            "rcomm": workload.rcomm,
        },
        "points": points,
    }


# -- validation -----------------------------------------------------------
def validate_scaling_doc(doc: dict) -> int:
    """Validate a ``repro-scaling/1`` document; returns the rung count.

    A rung's embedded rankprof table fails as
    ``scaling document invalid at $.points[i].rankprof: rankprof document
    invalid at <path>: <why>``.
    """
    from repro.obs.rankprof import validate_rankprof_doc

    c = Cursor(doc, "scaling document")
    c.schema(SCHEMA)
    spec = c.obj("spec")
    for k in ("potential", "pattern", "variant"):
        spec.text(k)
    points = c.arr("points", nonempty=True)
    prev_ranks = 0
    for pt in points.each():
        ranks = pt.integer("ranks")
        pt.require(ranks > prev_ranks, f"rungs must strictly increase, got {ranks!r}",
                   "ranks")
        prev_ranks = ranks
        pt.number("efficiency", finite=True)
        pt.number("divergence", finite=True)
        stages = pt.obj("model").obj("stages")
        stages.require(set(stages.value) == set(STAGES),
                       f"stage set mismatch {sorted(stages.value)}")
        pred = pt.obj("predicted")
        pred.require(pred.number("step_time") > 0, "step time must be positive",
                     "step_time")
        imb = pt.obj("imbalance")
        imb.number("max_mean")
        imb.number("p99_p50")
        rankprof = pt.obj("rankprof")
        try:
            validate_rankprof_doc(rankprof.value)
        except ValueError as exc:
            rankprof.fail(str(exc))
    first = next(points.each())
    first.require(abs(first.number("efficiency") - 1.0) < 1e-9,
                  "first rung must have efficiency 1.0", "efficiency")
    return len(points.value)


def render_scaling(doc: dict) -> str:
    """Human-readable scaling-curve table."""
    spec = doc["spec"]
    lines = [
        f"scaling capture [{doc.get('label', '?')}]: {spec['potential']}/"
        f"{spec['pattern']}{'/rdma' if spec.get('rdma') else ''} "
        f"cells {'x'.join(str(c) for c in spec['cells'])}, "
        f"{spec['steps']} steps, model variant {spec['variant']}",
        f"{'ranks':>5} | {'model ms/step':>13} | {'eff':>6} | {'pred eff':>8} | "
        f"{'diverg':>7} | {'max/mean':>8} | stragglers",
        "-" * 76,
    ]
    for pt in doc["points"]:
        imb = pt["imbalance"]
        strag = imb["stragglers"]
        lines.append(
            f"{pt['ranks']:>5} | {pt['model']['per_step'] * 1e3:>13.4f} | "
            f"{pt['efficiency']:>6.3f} | {pt['predicted']['efficiency']:>8.3f} | "
            f"{pt['divergence']:>+7.1%} | {imb['max_mean']:>8.3f} | "
            f"{strag if strag else 'none'}"
        )
    return "\n".join(lines)
