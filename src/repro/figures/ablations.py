"""Sections 3.4/3.5 ablations — what each small optimization is worth.

The paper describes pre-registered addresses, message combine and border
bins qualitatively; this module quantifies each against the simulated
substrate so the design choices in DESIGN.md have numbers:

* **pre-registration** — registration cost avoided per run: the baseline
  re-registers on every buffer growth; pre-sizing registers once.
* **message combine** — MPI's two-message unknown-length protocol vs the
  length-prefixed single message, per border exchange.
* **border bins** — per-atom region tests needed to route border atoms:
  the brute-force path tests every atom against each neighbor's region
  (axis comparisons growing with the neighbor count), the binned path
  classifies each atom once (6 comparisons) and finishes with a table
  lookup.  Wall time is also measured, with the caveat that in NumPy both
  paths are fully vectorized so the scalar-code advantage the paper
  exploits (a C++ inner loop over atoms) shows up in the operation count,
  not the Python wall clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import BorderBins
from repro.core.patterns import half_shell_offsets
from repro.figures.common import format_table, us
from repro.machine.params import FUGAKU, MachineParams
from repro.md.region import SubBox
from repro.network import Message, NetworkSimulator, MpiStack

PAPER = {
    "pre_registration": "buffers registered once, sized from the theoretical max",
    "message_combine": "two-step MPI length protocol folded into one message",
    "border_bins": "27-bin routing beats scanning all neighbor regions",
}


@dataclass
class AblationResult:
    # pre-registration
    registrations_baseline: int
    registrations_opt: int
    registration_time_saved: float
    # message combine
    combine_round_without: float
    combine_round_with: float
    # border bins
    bins_route_time: float
    brute_route_time: float
    atoms_routed: int
    tests_per_atom_brute: float = 0.0
    tests_per_atom_binned: float = 0.0
    # step-time ablation: {workload: {variant: step seconds}}
    step_times: dict = field(default_factory=dict)

    @property
    def combine_saving(self) -> float:
        return 1.0 - self.combine_round_with / self.combine_round_without

    @property
    def bins_test_reduction(self) -> float:
        return self.tests_per_atom_brute / max(self.tests_per_atom_binned, 1e-12)


def compute(params: MachineParams = FUGAKU, n_atoms: int = 20000) -> AblationResult:
    # --- pre-registration --------------------------------------------------
    # Baseline: LAMMPS doubles buffers as ghosts grow during equilibration;
    # a typical run re-registers each of 13 neighbor buffers ~4 times plus
    # the position/force arrays a few times.
    """Measure the three section 3.4/3.5 ablations and the step-time one."""
    growth_events = 13 * 4 + 2 * 3
    buf_bytes = 64 * 1024
    baseline_regs = growth_events
    opt_regs = 13 + 2  # one per neighbor ring + x and f arrays
    saved = (baseline_regs - opt_regs) * params.registration_cost(buf_bytes)

    # --- message combine ------------------------------------------------------
    sim = NetworkSimulator(MpiStack(params=params), params)
    msgs_unknown = [Message(528, hops=1, known_length=False) for _ in range(13)]
    msgs_known = [Message(528, hops=1, known_length=True) for _ in range(13)]
    t_without = sim.run_round(msgs_unknown).completion_time
    t_with = sim.run_round(msgs_known).completion_time

    # --- border bins (measured wall time on real arrays) ---------------------
    sub = SubBox((0, 0, 0), (20, 20, 20), (1, 1, 1), (3, 3, 3))
    offsets = [tuple(-o for o in off) for off in half_shell_offsets(1)]
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 20, size=(n_atoms, 3))
    bins = BorderBins(sub, rcomm=2.5, send_offsets=offsets)

    t0 = time.perf_counter()
    routed = bins.route(x)
    t_bins = time.perf_counter() - t0

    t0 = time.perf_counter()
    brute = [np.flatnonzero(sub.border_mask(x, off, 2.5)) for off in offsets]
    t_brute = time.perf_counter() - t0

    # sanity: both routes agree
    for a, b in zip(routed, brute):
        assert np.array_equal(a, b)

    # Per-atom comparison counts: brute tests each nonzero offset axis of
    # each of the 13 regions; bins do 2 comparisons per axis once.
    tests_brute = float(sum(sum(1 for o in off if o) for off in offsets))
    tests_binned = 6.0  # 2 thresholds x 3 axes

    return AblationResult(
        registrations_baseline=baseline_regs,
        registrations_opt=opt_regs,
        registration_time_saved=saved,
        combine_round_without=t_without,
        combine_round_with=t_with,
        bins_route_time=t_bins,
        brute_route_time=t_brute,
        atoms_routed=n_atoms,
        tests_per_atom_brute=tests_brute,
        tests_per_atom_binned=tests_binned,
        step_times=perf_ablation(params=params),
    )


def perf_ablation(nodes: int = 768, params: MachineParams = FUGAKU) -> dict:
    """Step-time cost of removing each optimization from ``opt``.

    Returns ``{workload: {variant: step_seconds}}`` for the 65K and 1.7M
    LJ systems — the design-choice ablation DESIGN.md calls out.
    """
    from repro.perfmodel import StageModel
    from repro.perfmodel.stagemodel import LJ_WORKLOAD_1M7, LJ_WORKLOAD_65K
    from repro.perfmodel.variants import ablation_variants

    model = StageModel(params)
    out = {}
    for w in (LJ_WORKLOAD_65K, LJ_WORKLOAD_1M7):
        out[w.name] = {
            name: model.step_times(w, nodes, v).total
            for name, v in ablation_variants().items()
        }
    return out


def render_perf_ablation(results: dict) -> str:
    """Format the opt-minus-one step-time table."""
    rows = []
    for wname, times in results.items():
        base = times["opt"]
        for name, t in times.items():
            rows.append([wname, name, us(t), f"+{100 * (t / base - 1):.1f}%"])
    return format_table(
        ["workload", "variant", "step [us]", "vs opt"],
        rows,
        title="Step-time ablation: opt with each optimization removed (768 nodes)",
    )


def render(res: AblationResult) -> str:
    """Format the ablation tables."""
    rows = [
        [
            "pre-registration",
            f"{res.registrations_baseline} registrations",
            f"{res.registrations_opt} registrations",
            f"{us(res.registration_time_saved):.1f} us saved",
        ],
        [
            "message combine",
            f"{us(res.combine_round_without):.2f} us/border",
            f"{us(res.combine_round_with):.2f} us/border",
            f"{100 * res.combine_saving:.0f}% saved",
        ],
        [
            "border bins",
            f"{res.tests_per_atom_brute:.0f} tests/atom "
            f"({1e3 * res.brute_route_time:.2f} ms)",
            f"{res.tests_per_atom_binned:.0f} tests/atom "
            f"({1e3 * res.bins_route_time:.2f} ms)",
            f"{res.bins_test_reduction:.1f}x fewer tests",
        ],
    ]
    table = format_table(
        ["optimization", "baseline", "optimized", "benefit"],
        rows,
        title="Sections 3.4/3.5 — optimization ablations",
    )
    return table + "\n\n" + render_perf_ablation(res.step_times)
