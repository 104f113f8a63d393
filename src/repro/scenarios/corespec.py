"""The core fleet spec: the paper's configuration space as one document.

:func:`core_spec` is the in-tree source of ``examples/fleet_core.spec.json``
(a test asserts the committed file equals this serialization).  The
expansion covers:

* the legacy differential 24-config grid (4 rank grids x 3 cutoffs x
  2 Newton modes) under each observability regime — ``off`` in full,
  telemetry/rankprof sampled down to 12 each so the CI sampled tier is
  exactly 24 + 12 + 12 = 48 configs;
* a 48-scenario fault plane (2 grids x 2 cutoffs x 2 Newton x 6
  absorbable plan templates);
* an 80-scenario analytic model sweep (potential x variant x the
  Fig. 13 node ladder x Newton x stencil radius);
* the 6 bench configs of the ``ci`` suite (smoke + comm-fastpath).

Total: 206 scenarios in the full tier (>= 200 by construction).
"""

from __future__ import annotations

from repro.artifact import dumps

#: The legacy hand-written differential grid (order matters: the seed
#: formula indexes this list).
LEGACY_GRIDS = ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2))
LEGACY_CUTOFFS = (1.3, 1.55, 1.8)
LEGACY_BOX_EDGE = 9.0
LEGACY_ATOMS = 150
LEGACY_SKIN = 0.3


def _geometry(grid: tuple[int, int, int]) -> dict:
    return {
        "grid": list(grid),
        "box_edge": LEGACY_BOX_EDGE,
        "atoms": LEGACY_ATOMS,
    }


def _equivalence_block(name: str, observability: str, sample: int | str) -> dict:
    return {
        "name": name,
        "role": "equivalence",
        "axes": {
            "geometry": [_geometry(g) for g in LEGACY_GRIDS],
            "cutoff": list(LEGACY_CUTOFFS),
            "newton": [True, False],
        },
        "fixed": {"observability": observability},
        "tolerances": {"force_atol": 1e-10},
        "sample": sample,
    }


def core_spec() -> dict:
    """The committed ``fleet-core`` spec as a plain dict."""
    from repro.faults.plan import TEMPLATE_KINDS

    return {
        "schema": "repro-scenario-spec/1",
        "name": "fleet-core",
        "note": "paper configuration space: equivalence grid under every "
                "observability regime, fault plane, Fig. 13 model sweep, "
                "ci bench configs",
        "defaults": {
            "skin": LEGACY_SKIN,
            "dt": 0.002,
            "neighbor_every": 3,
            "steps": 2,
            "patterns": ["parallel-p2p", "p2p", "3stage"],
            "rdma": False,
        },
        "blocks": [
            _equivalence_block("equivalence-off", "off", "all"),
            _equivalence_block("equivalence-telemetry", "telemetry", 12),
            _equivalence_block("equivalence-rankprof", "rankprof", 12),
            {
                "name": "fault-plane",
                "role": "fault",
                "axes": {
                    "geometry": [_geometry((2, 1, 1)), _geometry((2, 2, 2))],
                    "cutoff": [1.3, 1.8],
                    "newton": [True, False],
                    "fault": list(TEMPLATE_KINDS),
                },
                "sample": 4,
            },
            {
                "name": "model-sweep",
                "role": "model",
                "axes": {
                    "potential": ["lj", "eam"],
                    "variant": ["ref", "opt"],
                    "nodes": [768, 2160, 6144, 18432, 36864],
                    "newton": [True, False],
                    "stencil": [1, 2],
                },
                "sample": 4,
            },
            {
                "name": "bench-ci",
                "role": "bench",
                "axes": {
                    "config": [
                        {"potential": "lj", "pattern": "3stage",
                         "grid": [2, 2, 2], "rdma": False},
                        {"potential": "lj", "pattern": "parallel-p2p",
                         "grid": [2, 2, 2], "rdma": True},
                        {"potential": "eam", "pattern": "parallel-p2p",
                         "grid": [2, 2, 2], "rdma": True},
                        {"potential": "lj", "pattern": "p2p",
                         "grid": [3, 3, 3], "rdma": False,
                         "cells": [6, 6, 6], "steps": 40},
                        {"potential": "lj", "pattern": "parallel-p2p",
                         "grid": [3, 3, 3], "rdma": True,
                         "cells": [6, 6, 6], "steps": 40},
                        {"potential": "eam", "pattern": "parallel-p2p",
                         "grid": [3, 3, 3], "rdma": True,
                         "cells": [5, 5, 5], "steps": 15},
                    ],
                },
                "sample": 3,
            },
        ],
    }


def dumps_core_spec() -> str:
    """Byte-stable serialization of :func:`core_spec` (the committed file)."""
    return dumps(core_spec())
