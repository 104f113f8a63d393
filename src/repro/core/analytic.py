"""Analytic communication-time model: paper Table 1 and Equations (3)-(8).

Given sub-box side ``a``, cutoff ``r``, atom density and bytes-per-atom,
this module produces the Table 1 rows (message sizes, hops, counts) and
evaluates the six timing formulas:

========================  =============================================
Eq. (3)  3stage-naive      ``2 T0 + 2 T1 + 2 T2``
Eq. (4)  p2p-naive         ``12 T_inj + T_last``
Eq. (5)  3stage-opt        ``3 T_inj + T0 + T1 + T2``
Eq. (6)  p2p-opt           ``12 T_inj + min(T3, T4, T5)``
Eq. (7)  3stage-parallel   ``T0 + T1 + T2``
Eq. (8)  p2p-parallel      ``2 T_inj + min(T3, T4, T5)``
========================  =============================================

``T0..T5`` are point-to-point times for the six distinct (size, hop)
message classes of Table 1; they come from the network simulator so the
analytic model and the discrete-event model share one source of truth.
The paper's conclusion — p2p beats 3-stage on Fugaku because uTofu's
``T_inj`` is tiny and ``T3 = T0`` — is asserted as a test over this
module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ghost import offset_volume, stage_volumes
from repro.core.patterns import p2p_neighbors
from repro.machine.params import FUGAKU, MachineParams
from repro.network.simulator import NetworkSimulator
from repro.network.stacks import SoftwareStack, UtofuStack


@dataclass(frozen=True)
class MessageClass:
    """One row of Table 1: a (volume, hops, count) message class."""

    name: str
    atoms: float  # expected atoms per message (volume * density)
    nbytes: int  # payload bytes per message
    hops: int
    count: int  # messages of this class per rank

    @property
    def total_atoms(self) -> float:
        return self.atoms * self.count


@dataclass(frozen=True)
class PatternAnalysis:
    """All message classes of one pattern plus the Table 1 totals."""

    pattern: str
    classes: tuple[MessageClass, ...]

    @property
    def total_messages(self) -> int:
        return sum(c.count for c in self.classes)

    @property
    def total_atoms(self) -> float:
        return sum(c.total_atoms for c in self.classes)

    @property
    def total_bytes(self) -> float:
        return sum(c.nbytes * c.count for c in self.classes)


def analyze_three_stage(
    a: float, r: float, density: float, bytes_per_atom: int = 24
) -> PatternAnalysis:
    """Table 1 upper block: the 3 stages x 2 directions of the 3-stage."""
    s1, s2, s3 = stage_volumes(a, r)
    mk = lambda name, vol, hop: MessageClass(
        name=name,
        atoms=vol * density,
        nbytes=int(round(vol * density * bytes_per_atom)),
        hops=hop,
        count=2,
    )
    return PatternAnalysis(
        pattern="3stage",
        classes=(
            mk("stage1:a^2 r", s1, 1),
            mk("stage2:a^2 r + 2 a r^2", s2, 1),
            mk("stage3:(a+2r)^2 r", s3, 1),
        ),
    )


def analyze_p2p(
    a: float,
    r: float,
    density: float,
    bytes_per_atom: int = 24,
    newton: bool = True,
    radius: int = 1,
) -> PatternAnalysis:
    """Table 1 lower block: faces/edges/corners of the p2p half shell."""
    groups: dict[tuple[str, int], list] = {}
    for nb in p2p_neighbors(newton=newton, radius=radius):
        vol = offset_volume(a, r, nb.offset)
        groups.setdefault((nb.kind, nb.hops), []).append(vol)
    classes = []
    for (kind, hops), vols in sorted(groups.items(), key=lambda kv: kv[0][1]):
        vol = vols[0]
        classes.append(
            MessageClass(
                name=f"{kind}:{hops}hop",
                atoms=vol * density,
                nbytes=int(round(vol * density * bytes_per_atom)),
                hops=hops,
                count=len(vols),
            )
        )
    return PatternAnalysis(pattern="p2p", classes=tuple(classes))


def analyze_simulation(sim) -> PatternAnalysis:
    """The Table 1 analysis of a live simulation's sub-box, cutoff + skin,
    density and pattern."""
    a = float(min(sim.domain.sub_lengths))
    r = sim.potential.cutoff + sim.config.skin
    density = sim.natoms / sim.box.volume
    if sim.config.pattern == "3stage":
        return analyze_three_stage(a, r, density)
    return analyze_p2p(a, r, density, newton=sim.half)


#: Table 1's messages per rank and stage: the p2p half shell, the 3-stage.
TABLE1_MESSAGES = {"p2p": 13, "3stage": 6}


def check_table1_counts(p2p, three_stage) -> tuple[bool, str]:
    """Rank 0 of the live exchanges sends Table 1's message counts."""
    got = p2p.messages_per_rank()[0], three_stage.messages_per_rank()[0]
    want = TABLE1_MESSAGES["p2p"], TABLE1_MESSAGES["3stage"]
    return got == want, f"measured {got[0]} and {got[1]}"


def check_ghost_halving(p2p, three_stage) -> tuple[bool, str]:
    """Newton's law halves the ghost volume (Table 1): the p2p / 3-stage
    ghost ratio lies in (0.42, 0.58)."""
    g_p2p = sum(p2p.ghost_counts().values())
    g_3s = sum(three_stage.ghost_counts().values())
    ratio = g_p2p / g_3s if g_3s else 0.0
    return 0.42 < ratio < 0.58, f"p2p/3stage ghost ratio {ratio:.3f}"


@dataclass(frozen=True)
class TimingModel:
    """Equations (3)-(8) evaluated for concrete message classes."""

    t_inj: float
    t_stage: tuple[float, float, float]  # T0, T1, T2
    t_p2p: tuple[float, float, float]  # T3, T4, T5

    @property
    def three_stage_naive(self) -> float:
        t0, t1, t2 = self.t_stage
        return 2 * t0 + 2 * t1 + 2 * t2

    @property
    def p2p_naive(self) -> float:
        t_last = max(self.t_p2p)
        return 12 * self.t_inj + t_last

    @property
    def three_stage_opt(self) -> float:
        t0, t1, t2 = self.t_stage
        return 3 * self.t_inj + t0 + t1 + t2

    @property
    def p2p_opt(self) -> float:
        return 12 * self.t_inj + min(self.t_p2p)

    @property
    def three_stage_parallel(self) -> float:
        return sum(self.t_stage)

    @property
    def p2p_parallel(self) -> float:
        return 2 * self.t_inj + min(self.t_p2p)

    def as_dict(self) -> dict[str, float]:
        """All six formula values keyed by the paper's names."""
        return {
            "3stage-naive": self.three_stage_naive,
            "p2p-naive": self.p2p_naive,
            "3stage-opt": self.three_stage_opt,
            "p2p-opt": self.p2p_opt,
            "3stage-parallel": self.three_stage_parallel,
            "p2p-parallel": self.p2p_parallel,
        }


def timing_model(
    a: float,
    r: float,
    density: float,
    stack: SoftwareStack | None = None,
    params: MachineParams = FUGAKU,
    bytes_per_atom: int = 24,
) -> TimingModel:
    """Build Eq. (3)-(8) inputs from the network simulator.

    ``T0..T2`` price the three 3-stage message classes; ``T3..T5`` the
    p2p face/edge/corner classes (1, 2, 3 hops).  ``T_inj`` comes from
    the stack — the quantity whose MPI-vs-uTofu gap drives the paper.
    """
    stack = stack if stack is not None else UtofuStack(params=params)
    sim = NetworkSimulator(stack, params)
    three = analyze_three_stage(a, r, density, bytes_per_atom)
    p2p = analyze_p2p(a, r, density, bytes_per_atom)
    t_stage = tuple(
        sim.point_to_point_time(c.nbytes, c.hops) for c in three.classes
    )
    t_p2p = tuple(sim.point_to_point_time(c.nbytes, c.hops) for c in p2p.classes)
    # Representative injection interval: the typical (face) message size.
    t_inj = stack.injection_interval(p2p.classes[0].nbytes)
    return TimingModel(t_inj=t_inj, t_stage=t_stage, t_p2p=t_p2p)
