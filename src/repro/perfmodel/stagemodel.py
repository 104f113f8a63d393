"""Per-stage time model: one MD step of a workload on a variant.

The model composes, per step:

* **Pair** — per-atom force cost (calibrated per potential) divided over
  the 12 worker threads, a fixed list-traversal cost, the parallel-region
  fork/join overhead (OpenMP for the baseline variants, thread pool for
  ``opt`` — the section 3.3 measurement), a load-imbalance factor, and
  for EAM the two mid-pair ghost exchanges (8 bytes per atom) priced
  like the Comm rounds (they are counted in Pair, as LAMMPS and Table 3
  do).
* **Neigh** — rebuild cost amortized over the rebuild interval.
* **Comm** — forward + reverse rounds every step plus border on rebuild
  steps, and the migration as 0.3 of a border round.  Each round is
  priced by :func:`repro.core.modeling.price_exchange`, the engine's own
  pricer, on one node's row: its 4 ranks each send Table 1's message
  classes, sharing the node's 6 TNIs by the variant's threads and TNI
  binding.  The rounds carry no buffer copies (Fig. 6 is measured
  packing excluded); a variant that injects on several threads pays the
  thread pool's fork / join once per round here, where the step is
  assembled.  The scale-dependent synchronization-noise absorption
  described below comes on top.
* **Modify** — NVE update + its parallel-region overhead (the stage the
  paper saw go 10x slower under OpenMP at small atom counts).
* **Other** — output plus, for EAM's ``check yes`` policy, the global
  allreduce every 5 steps (Table 3's dominant "Other" cost at scale).

**Synchronization noise.**  The paper's absolute stage times at 36 864
nodes (Table 3) are far larger than pure message arithmetic predicts —
at 147 456 ranks every bulk-synchronous exchange absorbs OS jitter and
arrival skew.  We model this with a per-step noise budget
``c_os_noise * ln(total_ranks)`` charged to the synchronizing stages:
staged patterns absorb all of it in Comm (every stage is a sync point);
the parallel p2p pattern splits it between Comm and Other (its single
dependency round re-syncs less often).  The constant is calibrated so
the Table 3 *percentages* come out right; pure-communication
microbenchmarks (Fig. 6/8) never include this term, matching how the
paper's tight comm loops keep ranks in lockstep.

Calibration notes per constant are inline; tests assert the paper's
qualitative claims (orderings, reduction bands, crossovers), not exact
microseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.core.analytic import analyze_p2p, analyze_three_stage
from repro.core.modeling import price_exchange
from repro.core.three_stage import ThreeStageExchange
from repro.machine.params import FUGAKU, MachineParams
from repro.perfmodel.variants import Variant
from repro.runtime.collectives import allreduce_cost


@dataclass(frozen=True)
class CalibrationConstants:
    """Every tunable of the stage model, with provenance."""

    # Per-atom pair force cost, single core (estimated from LAMMPS
    # throughput on A64FX-class cores; EAM pays its two passes plus
    # spline interpolation of rho/phi/F — calibrated against the Table 3
    # Pair-stage ratio between Origin-EAM and Opt-EAM).
    c_atom_pair_lj: float = 0.5e-6
    c_atom_pair_eam: float = 6.0e-6
    # Fixed per-step pair-stage cost (list traversal setup, cache warm).
    c_pair_fixed: float = 2.0e-6
    # Parallel regions entered per step per stage (drives the OpenMP vs
    # thread-pool gap; EAM's two passes double the pair regions).
    pair_regions_lj: int = 2
    pair_regions_eam: int = 4
    modify_regions: int = 2
    neigh_regions: int = 1
    # Neighbor rebuild: per-atom binning+stencil cost, single core.
    c_neigh_atom: float = 0.4e-6
    # NVE update per atom, single core.
    c_mod_atom: float = 0.01e-6
    # Output/bookkeeping per step ("Other" floor).
    c_output: float = 3.0e-6
    # Per-atom-per-region border test (ablation: border bins cut the
    # count from ~27 axis tests to 6 per atom).
    c_region_test: float = 2.0e-9
    # Probability that a rebuild grows a communication buffer when
    # buffers are NOT pre-sized (ablation: forces re-registration).
    buffer_growth_probability: float = 0.2
    # OS/sync noise absorbed per step per sync chain at scale; the
    # ln(ranks) scaling follows the standard jitter-absorption argument.
    c_os_noise: float = 1.2e-6
    # Fraction of the noise budget the parallel-p2p pattern absorbs in
    # Comm (the rest surfaces at the next global sync -> Other).
    parallel_noise_comm_fraction: float = 0.7
    # Load imbalance cap (Poisson max/mean saturates with migration).
    imbalance_cap: float = 3.0


@dataclass(frozen=True)
class Workload:
    """One benchmark system (paper Table 2 + section 4 scales)."""

    name: str
    potential: str  # "lj" | "eam"
    natoms: int
    density: float  # atoms per unit volume (model units)
    rcomm: float  # cutoff + skin, model units
    dt: float
    rebuild_every: int  # effective rebuild interval in steps
    allreduce_every: int = 0  # 0: no global check (LJ); EAM: 5
    newton: bool = True
    shell_radius: int = 1


#: The paper's four step-by-step workloads (Fig. 12) at 768 nodes; atom
#: counts follow section 3 ("65K and 1.7 million hydrogen atoms").
LJ_WORKLOAD_65K = Workload(
    "lj-65k", "lj", 65_536, 0.8442, 2.8, 0.005, rebuild_every=20
)
LJ_WORKLOAD_1M7 = Workload(
    "lj-1.7m", "lj", 1_700_000, 0.8442, 2.8, 0.005, rebuild_every=20
)
EAM_WORKLOAD_65K = Workload(
    "eam-65k", "eam", 65_536, 0.0847, 5.95, 0.005, rebuild_every=20, allreduce_every=5
)
EAM_WORKLOAD_1M7 = Workload(
    "eam-1.7m", "eam", 1_700_000, 0.0847, 5.95, 0.005, rebuild_every=20, allreduce_every=5
)


@dataclass
class StageTimesResult:
    """Per-step stage seconds for one (workload, nodes, variant)."""

    workload: str
    variant: str
    nodes: int
    stages: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.stages.values())

    def percent(self, stage: str) -> float:
        """Stage share of the step in percent."""
        return 100.0 * self.stages[stage] / self.total if self.total else 0.0

    def breakdown(self) -> dict[str, tuple[float, float]]:
        """Stage -> (seconds, percent), Table 3 style."""
        return {k: (v, self.percent(k)) for k, v in self.stages.items()}


@lru_cache(maxsize=256)
def _table1_row(
    pattern: str, a: float, rcomm: float, density: float, newton: bool, radius: int
) -> tuple[np.ndarray, np.ndarray]:
    """Table 1's message classes at sub-box edge ``a``, class by class, as
    read-only ``(1, sends)`` atoms and hops: a pure function of its
    arguments, so every ``MachineParams`` that leaves ``a`` alone shares
    one row."""
    if pattern == "3stage":
        ana = analyze_three_stage(a, rcomm, density)
    else:
        ana = analyze_p2p(a, rcomm, density, newton=newton, radius=radius)
    row = [(c.atoms, c.hops) for c in ana.classes for _ in range(c.count)]
    atoms, hops = (np.array([col]) for col in zip(*row))
    atoms.flags.writeable = hops.flags.writeable = False
    return atoms, hops


class StageModel:
    """Prices one MD step of a workload on a variant at a node count."""

    def __init__(
        self,
        params: MachineParams = FUGAKU,
        calib: CalibrationConstants | None = None,
    ) -> None:
        self.params = params
        self.calib = calib if calib is not None else CalibrationConstants()

    # -- helpers -----------------------------------------------------------
    def ranks(self, nodes: int) -> int:
        """Total MPI ranks at ``nodes`` (4 per node)."""
        return nodes * self.params.ranks_per_node

    def atoms_per_rank(self, w: Workload, nodes: int) -> float:
        """Average atoms owned per rank."""
        return w.natoms / self.ranks(nodes)

    def sub_box_edge(self, w: Workload, nodes: int) -> float:
        """Cubic sub-box side implied by atoms/rank and density."""
        return (self.atoms_per_rank(w, nodes) / w.density) ** (1.0 / 3.0)

    def imbalance(self, w: Workload, nodes: int) -> float:
        """Poisson max/mean across ranks: 1 + sqrt(2 ln R / mean)."""
        mean = max(self.atoms_per_rank(w, nodes), 1.0)
        r = max(self.ranks(nodes), 2)
        return min(1.0 + math.sqrt(2.0 * math.log(r) / mean), self.calib.imbalance_cap)

    def _region_overhead(self, variant: Variant, regions: int) -> float:
        per = (
            self.params.threadpool_fork_join
            if variant.threadpool_compute
            else self.params.openmp_fork_join
        )
        return regions * per

    def noise_budget(self, nodes: int) -> float:
        """Per-step OS/sync jitter at this scale."""
        return self.calib.c_os_noise * math.log(max(self.ranks(nodes), 2))

    # -- communication rounds --------------------------------------------------
    def rank_row(
        self, variant: Variant, w: Workload, nodes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One rank's sends as a ``(1, sends)`` table of expected atoms and
        hops: Table 1's message classes at this scale, class by class."""
        return _table1_row(
            variant.pattern, self.sub_box_edge(w, nodes), w.rcomm, w.density,
            w.newton, w.shell_radius,
        )

    def pattern_facts(self, variant: Variant) -> dict:
        """What :func:`~repro.core.modeling.price_exchange` needs of the
        variant besides its row."""
        return {
            "stack": variant.stack(self.params),
            "params": self.params,
            "threads": variant.comm_threads,
            "fence": (
                ThreeStageExchange.sends_per_stage if variant.pattern == "3stage" else None
            ),
            "hop_tnis": variant.tnis_used,
        }

    def exchange_round_time(
        self, variant: Variant, w: Workload, nodes: int, phase: str = "forward"
    ) -> float:
        """One exchange round of ``phase`` on this variant (no noise, no
        fork / join, no copies).

        The row is the symmetric node: its 4 ranks send the same row and
        share the node's 6 TNIs — one TNI per rank when one thread
        injects, thread *t* on TNI *t* when several do (the 24 CQs on 6
        TNIs of section 3.3).
        """
        atoms, hops = self.rank_row(variant, w, nodes)
        return price_exchange(
            atoms, hops, phase,
            node_ranks=self.params.ranks_per_node, **self.pattern_facts(variant),
        )[0]

    # -- stages -------------------------------------------------------------------
    def step_times(
        self, w: Workload, nodes: int, variant: Variant
    ) -> StageTimesResult:
        """Price one MD step: the five-stage breakdown."""
        c = self.calib
        p = self.params
        threads = p.threads_per_rank
        atoms = self.atoms_per_rank(w, nodes)
        imb = self.imbalance(w, nodes)
        nu = self.noise_budget(nodes)

        is_eam = w.potential == "eam"
        c_atom = c.c_atom_pair_eam if is_eam else c.c_atom_pair_lj
        pair_regions = c.pair_regions_eam if is_eam else c.pair_regions_lj

        # --- communication rounds (pure message time) -------------------
        # The thread pool's fork / join wraps every parallel round once.
        fork_join = p.threadpool_fork_join if variant.comm_threads > 1 else 0.0
        fwd = self.exchange_round_time(variant, w, nodes, "forward") + fork_join
        rev = fwd if w.newton else 0.0
        border = self.exchange_round_time(variant, w, nodes, "border")
        exchange_mig = 0.3 * border  # migration is a sparse subset of a border
        border += fork_join

        # Ablations of the section 3.4/3.5 optimizations ---------------
        n_msgs = 13 if w.newton else 26
        if variant.pattern == "p2p" and variant.stack_name == "utofu":
            if not variant.message_combine:
                # Two-step unknown-length protocol: one extra tiny
                # injection per border message.
                stack = variant.stack(p)
                border += n_msgs * (
                    stack.injection_interval(8) + stack.software_latency(8)
                )
            if not variant.rdma_preregistered:
                # Dynamically grown buffers re-register on growth.
                border += (
                    c.buffer_growth_probability
                    * n_msgs
                    * p.registration_cost(4096)
                )
        # Border-atom routing CPU: bins classify once, brute scans all
        # neighbor regions (~27 axis tests for the half shell).
        tests = 6.0 if variant.border_bins else 27.0
        border += atoms * tests * c.c_region_test / threads

        comm = fwd + rev + (border + exchange_mig) / w.rebuild_every

        # Noise absorption at the comm sync chain.
        if variant.pattern == "3stage" or variant.comm_threads == 1:
            comm_noise, other_noise = nu, 0.0
        else:
            comm_noise = nu * c.parallel_noise_comm_fraction
            other_noise = nu * (1.0 - c.parallel_noise_comm_fraction)
        comm += comm_noise

        # --- pair -----------------------------------------------------------
        pair = (
            c.c_pair_fixed
            + self._region_overhead(variant, pair_regions)
            + (atoms * c_atom / threads) * imb
        )
        if is_eam:
            # Two mid-pair ghost exchanges (density reverse + fp forward),
            # priced on this variant's comm configuration — the pair-stage
            # communication the paper also optimizes (section 4.2).
            pair += 2.0 * (self.exchange_round_time(variant, w, nodes, "pair") + fork_join)

        # --- neigh ------------------------------------------------------------
        neigh = (
            self._region_overhead(variant, c.neigh_regions)
            + (atoms * c.c_neigh_atom / threads) * imb
        ) / w.rebuild_every

        # --- modify ------------------------------------------------------------
        modify = self._region_overhead(variant, c.modify_regions) + (
            atoms * c.c_mod_atom / threads
        )

        # --- other --------------------------------------------------------------
        other = c.c_output + other_noise
        if w.allreduce_every:
            stack = variant.stack(self.params)  # allreduce stays MPI-like
            other += (
                allreduce_cost(self.ranks(nodes), 8, stack, p) + nu
            ) / w.allreduce_every

        return StageTimesResult(
            workload=w.name,
            variant=variant.name,
            nodes=nodes,
            stages={
                "Pair": pair,
                "Neigh": neigh,
                "Comm": comm,
                "Modify": modify,
                "Other": other,
            },
        )
