"""The multi-rank MD driver: LAMMPS' run loop over the simulated world.

One :class:`Simulation` owns a :class:`~repro.runtime.world.World` of
ranks, a domain decomposition, per-rank atoms/neighbor lists, and a
pluggable ghost exchange (3-stage, p2p, or fine-grained p2p — the choice
the paper evaluates).  The step structure is LAMMPS':

1. **Modify** — NVE initial integrate (half kick + drift).
2. Every ``every`` steps (and per the ``check`` criterion for EAM):
   **Comm** exchange (migration) + borders, then **Neigh** rebuild;
   otherwise **Comm** forward (ghost positions).
3. **Pair** — force evaluation; EAM interleaves its density reverse-sum
   and fp forward between passes (through the same exchange).
4. **Comm** — reverse (ghost forces -> owners, Newton on).
5. **Modify** — NVE final integrate.
6. **Other** — thermo output and, for ``check=True``, the global
   allreduce that decides rebuilds (the cost that dominates EAM's
   "Other" column in Table 3); the per-rank displacement check feeding
   it is **Neigh** time, where LAMMPS counts ``neighbor->decide()``.

Wall time of each stage is accumulated in :class:`StageTimers`; the
modeled Fugaku time of the same run comes from the perfmodel, which
prices this driver's communication schedules.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.exchange_base import GhostExchange
from repro.core.fine_p2p import FineGrainedP2PExchange
from repro.core.p2p import P2PExchange
from repro.core.three_stage import ThreeStageExchange
from repro.faults.injector import FAULTS, FaultEscalation
from repro.md.atoms import Atoms
from repro.md.domain import Domain, decompose_grid
from repro.md.integrate import NVEIntegrator
from repro.md.neighbor import NeighborList, NeighborSettings
from repro.md.pairtiles import TILE_PAIRS, PairTiles, group_ranks
from repro.md.potentials.base import ForceResult, PairPotential
from repro.md.region import Box
from repro.md.stages import Stage, StageTimers
from repro.md.thermo import Thermo, ThermoSample
from repro.obs.telemetry import TELEMETRY, StepTelemetry
from repro.obs.trace import TRACER
from repro.runtime.collectives import allreduce
from repro.runtime.world import World


@dataclass
class SimulationConfig:
    """Run parameters (the input-script knobs of paper Table 2)."""

    dt: float = 0.005
    skin: float = 0.3
    neighbor_every: int = 20
    neighbor_check: bool = False
    newton: bool = True
    pattern: str = "p2p"  # "3stage" | "p2p" | "parallel-p2p"
    rdma: bool = False
    shell_radius: int = 1
    mass: float = 1.0
    thermo_every: int = 0  # 0: only on demand
    #: also price each step's communication on the network simulator and
    #: accumulate it into ``timers.model`` (simulated Fugaku seconds)
    model_machine_time: bool = False
    #: drop the per-message traffic log at the end of every step — for
    #: long runs that never ask for per-message summaries.  Off by
    #: default: benchmarks and self-checks read the full log.
    clear_traffic_each_step: bool = False


class Simulation:
    """A complete multi-rank MD run."""

    def __init__(
        self,
        x: np.ndarray,
        v: np.ndarray,
        box: Box,
        potential: PairPotential,
        config: SimulationConfig,
        grid: tuple[int, int, int] | None = None,
        n_ranks: int | None = None,
        fixes: list | None = None,
        types: np.ndarray | None = None,
    ) -> None:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.shape != v.shape or x.ndim != 2 or x.shape[1] != 3:
            raise ValueError("x and v must both be (N, 3)")
        if types is not None:
            types = np.asarray(types, dtype=np.int32)
            if types.shape != (x.shape[0],):
                raise ValueError("types must be a 1-D array matching x")
        self.config = config
        self.potential = potential
        self.box = box
        self.natoms = x.shape[0]

        if grid is None:
            grid = decompose_grid(n_ranks or 1, tuple(box.lengths))
        self.grid = grid
        self.world = World(int(np.prod(grid)), grid=grid)
        self.domain = Domain(box, grid)

        rcomm = potential.cutoff + config.skin
        self._rcomm = rcomm
        self.exchange = self._make_exchange(rcomm)
        self.half = config.newton and not potential.needs_full_list
        #: (from_pattern, to_pattern) of every fault-driven tier change
        self.degradations: list[tuple[str, str]] = []

        settings = NeighborSettings(
            cutoff=potential.cutoff,
            skin=config.skin,
            every=config.neighbor_every,
            check=config.neighbor_check,
            half=self.half,
            ghost_rule=self.exchange.ghost_rule,
        )
        self._neigh_settings = settings
        self.integrator = NVEIntegrator(config.dt, config.mass)
        self.fixes = list(fixes) if fixes else []
        self.thermo = Thermo(box.volume, config.mass)
        self.timers = StageTimers()
        # Always-on telemetry plane (counters/sketches/flight ring) —
        # per-run state so back-to-back simulations never pollute each
        # other's percentiles.  Attaching makes this run the sink for
        # global event sources (the fault injector).
        self.telemetry: StepTelemetry | None = None
        if TELEMETRY.enabled:
            self.telemetry = StepTelemetry()
            TELEMETRY.attach(self.telemetry)
        self.step_count = 0
        self.rebuilds = 0
        self.samples: list[ThermoSample] = []
        #: the last force evaluation, as the kernels reported it: one
        #: ``(ranks, ForceResult)`` per tile (:meth:`rank_results` expands)
        self._last_results: list[tuple[tuple[int, ...], ForceResult]] = []
        #: whole-rank Pair tiles, refrozen from the lists by _reneighbor()
        self._tiles = PairTiles()

        # Distribute atoms and per-rank state.
        wrapped = box.wrap(x)
        groups = self.domain.scatter(wrapped)
        tags = np.arange(self.natoms, dtype=np.int64)
        for rank in range(self.world.size):
            pos = self.world.grid_pos_of(rank)
            idx = groups.get(pos, np.empty(0, dtype=np.intp))
            atoms = Atoms(capacity=max(2 * idx.size, 64))
            atoms.set_local(
                wrapped[idx], v[idx], tags[idx],
                None if types is None else types[idx],
            )
            ctx = self.world.ranks[rank]
            ctx.state["atoms"] = atoms
            ctx.state["neigh"] = NeighborList(settings)

        self._setup_done = False

    # ------------------------------------------------------------------
    def _make_exchange(
        self,
        rcomm: float,
        pattern: str | None = None,
        rdma: bool | None = None,
    ) -> GhostExchange:
        cfg = self.config
        pattern = cfg.pattern if pattern is None else pattern
        rdma = cfg.rdma if rdma is None else rdma
        newton = cfg.newton and not self.potential.needs_full_list
        if pattern == "3stage":
            # Full shell whatever `newton`: the list type is `self.half`.
            return ThreeStageExchange(
                self.world, self.domain, rcomm, radius=cfg.shell_radius
            )
        p2p = {"p2p": P2PExchange, "parallel-p2p": FineGrainedP2PExchange}.get(pattern)
        if p2p is None:
            raise ValueError(f"unknown communication pattern {pattern!r}")
        return p2p(
            self.world,
            self.domain,
            rcomm,
            newton=newton,
            radius=cfg.shell_radius,
            rdma=rdma,
        )

    # -- graceful degradation (fault-budget escalation) -----------------
    def _degrade(self, exc: FaultEscalation) -> None:
        """Fall back along the pattern ladder after an escalation.

        fine-p2p -> coarse-p2p -> 3-stage: each tier rebuilds the
        exchange on the plain message plane, purges in-flight traffic of
        the abandoned attempt, refreshes the neighbor lists (the ghost
        rule may change), and re-establishes migration + borders + lists
        + Pair tiles from the ranks' still-consistent owned atoms.  If
        re-establishing a tier escalates again, the ladder continues;
        when no tier is left the original error propagates.
        """
        while True:
            fallback = self.exchange.fallback_pattern
            session = FAULTS.session
            if fallback is None or session is None:
                raise exc
            from_pattern = self.exchange.name
            session.on_degrade(from_pattern, fallback)
            self.degradations.append((from_pattern, fallback))
            self.world.transport.purge()
            self.exchange = self._make_exchange(
                self._rcomm, pattern=fallback, rdma=False
            )
            self._neigh_settings = dataclasses.replace(
                self._neigh_settings, ghost_rule=self.exchange.ghost_rule
            )
            for rank in range(self.world.size):
                self.world.ranks[rank].state["neigh"] = NeighborList(
                    self._neigh_settings
                )
            try:
                self._reneighbor()
                return
            except FaultEscalation as next_exc:
                exc = next_exc

    def _compute_forces_robust(self) -> None:
        """Force computation that survives mid-phase escalations.

        ``_compute_forces`` zeroes every tile's forces as it loads it, so
        after a degradation (which re-established ghosts, neighbor lists
        and tiles) it can simply run again from scratch — no partial sums
        survive.
        """
        while True:
            try:
                self._compute_forces()
                return
            except FaultEscalation as exc:
                self._degrade(exc)

    def atoms_of(self, rank: int) -> Atoms:
        """The atom storage of ``rank``."""
        return self.world.ranks[rank].state["atoms"]

    def neigh_of(self, rank: int) -> NeighborList:
        """The neighbor list of ``rank``."""
        return self.world.ranks[rank].state["neigh"]

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """Initial borders + neighbor lists + forces (LAMMPS setup())."""
        with TRACER.span("setup", cat="step", track="run", pattern=self.config.pattern):
            try:
                self._reneighbor()
            except FaultEscalation as exc:
                # _degrade re-establishes borders + lists on the new tier.
                self._degrade(exc)
            self._compute_forces_robust()
            self._setup_done = True

    def _reneighbor(self) -> None:
        """Migration + borders (Comm), every rank's list (Neigh), and the
        Pair tiles frozen from those lists.

        The one place lists are built — setup, scheduled rebuilds and the
        degradation ladder all come through here — so the tiles can never
        describe an older exchange, ghost set or list than the ranks hold.
        """
        with self.timers.timing(Stage.COMM):
            self.exchange.exchange()
            self.exchange.borders()
        with self.timers.timing(Stage.NEIGH):
            ranks = range(self.world.size)
            atoms = [self.atoms_of(rank) for rank in ranks]
            lists = [self.neigh_of(rank) for rank in ranks]
            for a, neigh in zip(atoms, lists):
                neigh.build(a.x, a.nlocal)
            if self.potential.rank_tiled:
                groups = group_ranks([neigh.n_pairs for neigh in lists], TILE_PAIRS)
            else:  # the kernel cannot tally per rank: one rank per tile
                groups = [[rank] for rank in ranks]
            self._tiles.rebuild(atoms, lists, groups)

    def _compute_forces(self) -> None:
        """Pair stage (+ reverse comm): one kernel call per tile of ranks."""
        pot = self.potential
        tiles = self._tiles.tiles
        with self.timers.timing(Stage.PAIR):
            if hasattr(pot, "density_pass"):
                scratch = []
                for tile in tiles:
                    tile.load()
                    scratch.append(
                        pot.density_pass(
                            tile, tile.pair_i, tile.pair_j, half_list=self.half
                        )
                    )
                # every tile's density / fp rows are windows of one
                # per-arena-row buffer: the exchange takes it whole
                if self.half:
                    self.exchange.reverse_sum_scalar_world(
                        self._tiles.world_rows(pot.density_rows)
                    )
                for tile, sc in zip(tiles, scratch):
                    pot.embedding_pass(tile, sc)
                self.exchange.forward_scalar_world(self._tiles.world_rows(pot.fp_rows))
                results = [pot.force_pass(tile, sc) for tile, sc in zip(tiles, scratch)]
            else:
                results = []
                for tile in tiles:
                    tile.load()
                    results.append(
                        pot.compute(tile, tile.pair_i, tile.pair_j, half_list=self.half)
                    )
            self._last_results = [(tile.ranks, result) for tile, result in zip(tiles, results)]
        if self.half or self.potential.force_ghosts:
            # Newton's-law runs always reverse; 3-body full-list kernels
            # (Stillinger-Weber/Tersoff style) also scatter triplet forces
            # onto ghosts and need the same merge (LAMMPS: "pair style sw
            # requires newton pair on").
            with self.timers.timing(Stage.COMM):
                self.exchange.reverse()

    def rank_results(self) -> dict[int, tuple[float, float]]:
        """``{rank: (energy, virial)}`` of the last force evaluation,
        expanded from the per-tile results on demand."""
        return {
            rank: pair
            for ranks, result in self._last_results
            for rank, pair in zip(ranks, result.per_rank(len(ranks)))
        }

    def _needs_rebuild(self) -> bool:
        """The every/check policy of ``neigh_modify`` (Table 2)."""
        cfg = self.config
        if self.step_count == 0:
            return False
        if self.step_count % cfg.neighbor_every:
            return False
        if not cfg.neighbor_check:
            return True
        # check yes: any rank's atoms moved beyond half the skin ->
        # global OR via allreduce (the EAM cost in Table 3 "Other").
        with self.timers.timing(Stage.NEIGH):
            flags = [
                self.neigh_of(rank).needs_rebuild(self.atoms_of(rank).x_local())
                for rank in range(self.world.size)
            ]
        with self.timers.timing(Stage.OTHER):
            decision = bool(allreduce(flags, op=any))
        return decision

    def step(self) -> None:
        """Advance one MD timestep."""
        if not self._setup_done:
            self.setup()
        self.step_count += 1
        with TRACER.span(f"step {self.step_count}", cat="step", track="run"):
            self._step_impl()

    def _step_impl(self) -> None:
        """One timestep's body (wrapped in a ``cat="step"`` span)."""
        with self.timers.timing(Stage.MODIFY):
            for rank in range(self.world.size):
                self.integrator.initial_integrate(self.atoms_of(rank))

        rebuilt = self._needs_rebuild()
        if rebuilt:
            try:
                self._reneighbor()
            except FaultEscalation as exc:
                self._degrade(exc)
            self.rebuilds += 1
        else:
            try:
                with self.timers.timing(Stage.COMM):
                    self.exchange.forward()
            except FaultEscalation as exc:
                # The re-established borders carry current positions, so
                # no separate forward re-run is needed.
                self._degrade(exc)

        if self.config.model_machine_time:
            from repro.core.modeling import modeled_step_comm_time

            self.timers.add_model(
                Stage.COMM,
                modeled_step_comm_time(self.exchange, rebuilt, newton=self.half),
            )

        self._compute_forces_robust()

        with self.timers.timing(Stage.MODIFY):
            for rank in range(self.world.size):
                self.integrator.final_integrate(self.atoms_of(rank))

        if self.fixes:
            temperature = None
            if any(f.needs_temperature for f in self.fixes):
                with self.timers.timing(Stage.OTHER):
                    temperature = self.sample_thermo().temperature
            with self.timers.timing(Stage.MODIFY):
                for fix in self.fixes:
                    for rank in range(self.world.size):
                        fix.end_of_step(
                            self.atoms_of(rank), rank, self.step_count, temperature
                        )

        if self.config.thermo_every and self.step_count % self.config.thermo_every == 0:
            with self.timers.timing(Stage.OTHER):
                self.samples.append(self.sample_thermo())

        # Telemetry flush stays outside the stage timers so the per-stage
        # sketch sums telescope exactly to the StageTimers totals (the
        # selfcheck battery pins that identity).
        if self.telemetry is not None:
            self.telemetry.flush_step(self)

        if self.config.clear_traffic_each_step:
            self.world.transport.log.clear()

    def run(self, n_steps: int) -> None:
        """Advance ``n_steps`` timesteps."""
        for _ in range(n_steps):
            self.step()

    # ------------------------------------------------------------------
    def sample_thermo(self) -> ThermoSample:
        """Global thermo reduction (an allreduce in real LAMMPS)."""
        ke = [self.thermo.local_kinetic(self.atoms_of(r)) for r in range(self.world.size)]
        results = self.rank_results()
        pe, w = zip(*(results.get(r, (0.0, 0.0)) for r in range(self.world.size)))
        return Thermo.reduce(
            self.step_count, ke, pe, w, self.natoms, self.box.volume
        )

    def gather_positions(self) -> np.ndarray:
        """All local positions, ordered by global tag (for comparisons)."""
        out = np.zeros((self.natoms, 3))
        for rank in range(self.world.size):
            atoms = self.atoms_of(rank)
            out[atoms.tag[: atoms.nlocal]] = atoms.x_local()
        return out

    def gather_velocities(self) -> np.ndarray:
        """All local velocities, ordered by global tag."""
        out = np.zeros((self.natoms, 3))
        for rank in range(self.world.size):
            atoms = self.atoms_of(rank)
            out[atoms.tag[: atoms.nlocal]] = atoms.v
        return out

    def gather_forces(self) -> np.ndarray:
        """All local forces, ordered by global tag."""
        out = np.zeros((self.natoms, 3))
        for rank in range(self.world.size):
            atoms = self.atoms_of(rank)
            out[atoms.tag[: atoms.nlocal]] = atoms.f_local()
        return out

    def total_local_atoms(self) -> int:
        """Sum of local atom counts (conservation check)."""
        return sum(self.atoms_of(r).nlocal for r in range(self.world.size))
