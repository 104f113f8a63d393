"""Interatomic potentials: Lennard-Jones and EAM (paper Table 2)."""

from repro.md.potentials.base import PairPotential, ForceResult
from repro.md.potentials.lj import LennardJones
from repro.md.potentials.eam import EAMPotential, SuttonChenEAM, make_cu_like_eam
from repro.md.potentials.sw import StillingerWeber

__all__ = [
    "PairPotential",
    "ForceResult",
    "LennardJones",
    "EAMPotential",
    "SuttonChenEAM",
    "make_cu_like_eam",
    "StillingerWeber",
]
