"""The scenario registry: the one config source the test suites consume.

The differential equivalence suite, the telemetry/rankprof on-off
differential suites, and the fault-absorption battery all parametrize
over slices of :func:`default_fleet` — the expansion of the committed
``fleet-core`` spec — instead of hand-written config lists.

Tier selection is driven by the ``REPRO_FLEET`` environment variable:

==========  ==========================================================
(unset)     the full differential grid per regime (identical coverage
            to the legacy hand-written 24-config lists)
sampled     the deterministic ~48-config CI tier (24 off + 12
            telemetry + 12 rankprof)
full        everything, including the tests behind the ``fleet_full``
            marker
==========  ==========================================================
"""

from __future__ import annotations

import os
from functools import lru_cache

from repro.scenarios.corespec import core_spec
from repro.scenarios.spec import expand_spec

FLEET_ENV = "REPRO_FLEET"
_REGIMES = ("off", "telemetry", "rankprof")


def fleet_mode() -> str:
    """Current tier: ``default`` | ``sampled`` | ``full``."""
    mode = os.environ.get(FLEET_ENV, "default").strip().lower() or "default"
    if mode not in ("default", "sampled", "full"):
        raise ValueError(
            f"{FLEET_ENV}={mode!r} invalid; use 'sampled' or 'full' (or unset)"
        )
    return mode


@lru_cache(maxsize=1)
def default_fleet() -> tuple[dict, ...]:
    """The expanded ``fleet-core`` spec (cached; treat as read-only)."""
    return tuple(expand_spec(core_spec()))


def scenarios_by_role(role: str) -> list[dict]:
    """Every fleet scenario of one role."""
    return [s for s in default_fleet() if s["role"] == role]


def differential_scenarios(regime: str = "off") -> list[dict]:
    """Equivalence scenarios for one observability regime, tier-filtered.

    With ``REPRO_FLEET`` unset every regime returns its full 24-config
    grid (the legacy coverage); ``sampled`` keeps telemetry/rankprof at
    their 12-config CI quota; ``full`` is identical to the default for
    equivalence blocks (their full tier IS the 24 grid).
    """
    if regime not in _REGIMES:
        raise ValueError(f"unknown regime {regime!r}; choose from {_REGIMES}")
    rows = [
        s for s in scenarios_by_role("equivalence")
        if s["params"].get("observability", "off") == regime
    ]
    if fleet_mode() == "sampled":
        rows = [s for s in rows if s["tier"] == "sampled"]
    return rows


def fault_scenarios() -> list[dict]:
    """Fault-plane scenarios, tier-filtered (sampled unless full)."""
    rows = scenarios_by_role("fault")
    if fleet_mode() != "full":
        rows = [s for s in rows if s["tier"] == "sampled"]
    return rows


def model_scenarios() -> list[dict]:
    """Analytic model-sweep scenarios, tier-filtered."""
    rows = scenarios_by_role("model")
    if fleet_mode() != "full":
        rows = [s for s in rows if s["tier"] == "sampled"]
    return rows


def bench_scenarios() -> list[dict]:
    """Bench-role scenarios (always the whole block; it is small)."""
    return scenarios_by_role("bench")


def legacy_equivalence_configs() -> list[tuple[tuple[int, int, int], float, bool]]:
    """The deleted hand-written 24-config list, reconstructed.

    The registry-refactor proof: every one of these (grid, cutoff,
    newton) triples — with the legacy box edge, atom count, skin, and
    seed — must appear in the generated fleet.
    """
    import itertools

    from repro.scenarios.corespec import LEGACY_CUTOFFS, LEGACY_GRIDS

    return [
        (grid, cutoff, newton)
        for grid, cutoff, newton in itertools.product(
            LEGACY_GRIDS, LEGACY_CUTOFFS, (True, False)
        )
    ]


def scenario_ids(scenarios: list[dict]) -> list[str]:
    """Stable pytest parametrize ids for a scenario list."""
    return [s["id"] for s in scenarios]


# -- the registry the gates parametrize over, checked --------------------------
def check_expansion(spec: dict) -> tuple[bool, str]:
    """``spec`` expands deterministically (byte-identical documents) into
    at least 200 scenarios with distinct ids."""
    from repro.scenarios.spec import dumps_fleet

    first, second = expand_spec(spec), expand_spec(spec)
    ids = {s["id"] for s in first}
    ok = (
        len(first) >= 200
        and len(ids) == len(first)
        and dumps_fleet(spec, first) == dumps_fleet(spec, second)
    )
    return ok, f"{len(first)} scenarios, {len(ids)} distinct ids"


def check_legacy_embedded(scenarios: list[dict]) -> tuple[bool, str]:
    """The 24 legacy (grid, cutoff, newton) configurations are among the
    equivalence ``scenarios``, each with its legacy seed."""
    by_key = {
        (tuple(s["params"]["grid"]), s["params"]["cutoff"], s["params"]["newton"]): s
        for s in scenarios
    }
    legacy = legacy_equivalence_configs()
    grids = [k[0] for k in legacy[::6]]  # axis order of the legacy grid list
    missing = [k for k in legacy if k not in by_key]
    seed_mismatch = [
        k for k in legacy
        if k in by_key
        and by_key[k]["seed"]
        != 1000 * grids.index(k[0]) + int(100 * k[1]) + (1 if k[2] else 0)
    ]
    ok = not missing and not seed_mismatch and len(legacy) == 24
    return ok, (
        f"{len(legacy) - len(missing)}/{len(legacy)} present, "
        f"{len(seed_mismatch)} seed mismatch(es)"
    )


def check_fleet_valid(fleet: list[dict], level: str) -> tuple[bool, str]:
    """Every scenario of ``fleet`` passes validation levels L0..``level``."""
    from repro.scenarios.validate import validate_fleet

    result = validate_fleet(list(fleet), level=level)
    return result.ok, f"{result.checked} checked, {len(result.issues)} issue(s)"


def check_scenario_valid(scenario: dict, level: str) -> tuple[bool, str]:
    """One scenario passes validation levels L0..``level``."""
    from repro.scenarios.validate import validate_scenario

    issues = validate_scenario(scenario, level=level)
    return not issues, issues[0].render() if issues else scenario["id"]


def check_variants_agree(scenario: dict, exchanges: dict) -> tuple[bool, str]:
    """``scenario``'s border-exchanged ``exchanges``, keyed by pattern: the
    p2p and parallel-p2p rows are bit-identical, and the p2p ghost region
    lies inside the 3-stage's on every rank."""
    import numpy as np

    from repro.scenarios.build import ghost_set

    p2p, fine, three = (exchanges[p] for p in ("p2p", "parallel-p2p", "3stage"))
    nranks = p2p.world.size
    ok = all(
        np.array_equal(p2p.atoms_of(r).x, fine.atoms_of(r).x)
        and ghost_set(p2p, r) <= ghost_set(three, r)
        for r in range(nranks)
    )
    return ok, f"{scenario['id']} over {nranks} rank(s)"
