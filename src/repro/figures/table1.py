"""Table 1 — communication pattern analysis.

Regenerates the paper's message-class table for both patterns (message
size expression, hops, message count) and the two totals, for a concrete
sub-box/cutoff/density, and checks the symbolic identities:

* 3-stage total atoms = ``8 r^3 + 12 a r^2 + 6 a^2 r``,  6 messages;
* p2p total atoms = ``4 r^3 + 6 a r^2 + 3 a^2 r``,  13 messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import analyze_p2p, analyze_three_stage
from repro.core.analytic import PatternAnalysis
from repro.figures.common import format_table

#: Published Table 1 structure.
PAPER = {
    "3stage": {"total_msg": 6, "rows": [("a^2 r", 1, 2), ("a^2 r + 2 a r^2", 1, 2), ("(a+2r)^2 r", 1, 2)]},
    "p2p": {"total_msg": 13, "rows": [("a^2 r", 1, 3), ("a r^2", 2, 6), ("r^3", 3, 4)]},
    "total_atom_3stage": "8r^3 + 12ar^2 + 6a^2r",
    "total_atom_p2p": "4r^3 + 6ar^2 + 3a^2r",
    "volume_ratio": 0.5,
}


@dataclass
class Table1Result:
    a: float
    r: float
    density: float
    three_stage: PatternAnalysis
    p2p: PatternAnalysis

    @property
    def volume_ratio(self) -> float:
        """p2p total over 3-stage total — 0.5 with Newton's law."""
        return self.p2p.total_atoms / self.three_stage.total_atoms


def compute(a: float = 3.0, r: float = 1.0, density: float = 0.8442) -> Table1Result:
    """Build both pattern analyses for one geometry."""
    return Table1Result(
        a=a,
        r=r,
        density=density,
        three_stage=analyze_three_stage(a, r, density),
        p2p=analyze_p2p(a, r, density),
    )


def render(res: Table1Result) -> str:
    """Format the Table 1 rows plus the volume-ratio note."""
    rows = []
    for ana in (res.three_stage, res.p2p):
        for cls in ana.classes:
            rows.append(
                [ana.pattern, cls.name, cls.atoms, cls.nbytes, cls.hops, cls.count]
            )
        rows.append(
            [ana.pattern, "TOTAL", ana.total_atoms, int(ana.total_bytes), "-", ana.total_messages]
        )
    table = format_table(
        ["pattern", "msg class", "atoms/msg", "bytes/msg", "hops", "msgs"],
        rows,
        title=(
            f"Table 1 — pattern analysis (a={res.a}, r_cut={res.r}, "
            f"rho={res.density})"
        ),
    )
    ratio = (
        f"\n p2p/3stage ghost volume ratio: {res.volume_ratio:.3f} "
        f"(paper: {PAPER['volume_ratio']} — Newton's 3rd law halves the exchange)"
    )
    return table + ratio
